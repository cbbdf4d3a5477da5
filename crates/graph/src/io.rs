//! Graph serialization: whitespace edge lists and DIMACS clique format.
//!
//! The microarray pipeline's thresholded correlation graphs are exchanged
//! as edge lists; the clique community's benchmark instances use DIMACS
//! (`p edge n m` + `e u v`, 1-indexed).

use crate::BitGraph;
use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::path::Path;

/// Errors from parsing graph files.
#[derive(Debug)]
pub enum ParseError {
    /// I/O failure while reading.
    Io(io::Error),
    /// Malformed content, with line number and message.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Io(e) => write!(f, "I/O error: {e}"),
            ParseError::Malformed { line, message } => {
                write!(f, "line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

impl From<io::Error> for ParseError {
    fn from(e: io::Error) -> Self {
        ParseError::Io(e)
    }
}

pub(crate) fn malformed(line: usize, message: impl Into<String>) -> ParseError {
    ParseError::Malformed {
        line,
        message: message.into(),
    }
}

/// The `u v` pair on line `line` (1-based) of an edge or edit list,
/// `#` comment stripped; `None` for a blank or comment-only line.
pub(crate) fn parse_pair(line: usize, text: &str) -> Result<Option<(usize, usize)>, ParseError> {
    let body = text.split('#').next().unwrap_or("").trim();
    if body.is_empty() {
        return Ok(None);
    }
    let mut tokens = body.split_whitespace();
    let mut vertex = |missing: &str| -> Result<usize, ParseError> {
        tokens
            .next()
            .ok_or_else(|| malformed(line, missing))?
            .parse()
            .map_err(|e| malformed(line, format!("bad vertex id: {e}")))
    };
    let u = vertex("missing source vertex")?;
    let v = vertex("missing target vertex")?;
    if tokens.next().is_some() {
        return Err(malformed(line, "trailing tokens after edge"));
    }
    Ok(Some((u, v)))
}

/// Upper bound on the vertex count any parser will allocate for. A
/// dense `BitGraph` takes n²/8 bytes, so a garbage or hostile header
/// (`p edge 4000000000 1`) would otherwise turn into a half-exabyte
/// allocation before the first edge is read. Genome-scale inputs in the
/// paper top out around 10⁵ vertices; one million leaves 10× headroom
/// at a worst-case 125 GB — big, but a deliberate operator choice
/// rather than an integer-driven OOM.
pub const MAX_VERTICES: usize = 1_000_000;

fn check_vertex_bound(line: usize, n: usize) -> Result<(), ParseError> {
    if n > MAX_VERTICES {
        return Err(malformed(
            line,
            format!("vertex count {n} exceeds the supported maximum {MAX_VERTICES}"),
        ));
    }
    Ok(())
}

/// Read a 0-indexed edge list: one `u v` pair per line; `#` starts a
/// comment; vertex count is `max id + 1` unless a larger `n` is given
/// explicitly or via a `# n=<count>` header comment (which
/// [`write_edge_list`] emits, so isolated trailing vertices round-trip).
pub fn read_edge_list<R: Read>(reader: R, n: Option<usize>) -> Result<BitGraph, ParseError> {
    let mut edges: Vec<(usize, usize)> = Vec::new();
    let mut max_id = 0usize;
    let mut n = n;
    for (li, line) in BufReader::new(reader).lines().enumerate() {
        let line = line?;
        if n.is_none() {
            if let Some(comment) = line.split_once('#').map(|(_, c)| c) {
                if let Some(rest) = comment.trim().strip_prefix("n=") {
                    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
                    if let Ok(hint) = digits.parse::<usize>() {
                        n = Some(hint);
                    }
                }
            }
        }
        let Some((u, v)) = parse_pair(li + 1, &line)? else {
            continue;
        };
        check_vertex_bound(li + 1, u.max(v).saturating_add(1))?;
        max_id = max_id.max(u).max(v);
        edges.push((u, v));
    }
    let n = match n {
        Some(n) => {
            check_vertex_bound(0, n)?;
            if !edges.is_empty() && max_id >= n {
                return Err(malformed(0, format!("vertex {max_id} >= declared n {n}")));
            }
            n
        }
        None => {
            if edges.is_empty() {
                0
            } else {
                max_id + 1
            }
        }
    };
    Ok(BitGraph::from_edges(n, edges))
}

/// Write a 0-indexed edge list.
pub fn write_edge_list<W: Write>(g: &BitGraph, mut writer: W) -> io::Result<()> {
    let mut buf = String::new();
    writeln!(buf, "# n={} m={}", g.n(), g.m()).unwrap();
    for (u, v) in g.edges() {
        writeln!(buf, "{u} {v}").unwrap();
    }
    writer.write_all(buf.as_bytes())
}

/// Read DIMACS clique format (`c` comments, `p edge N M`, `e U V`
/// 1-indexed).
pub fn read_dimacs<R: Read>(reader: R) -> Result<BitGraph, ParseError> {
    let mut g: Option<BitGraph> = None;
    for (li, line) in BufReader::new(reader).lines().enumerate() {
        let line = line?;
        let body = line.trim();
        if body.is_empty() || body.starts_with('c') {
            continue;
        }
        if let Some(rest) = body.strip_prefix("p ") {
            if g.is_some() {
                return Err(malformed(li + 1, "duplicate problem line"));
            }
            let mut it = rest.split_whitespace();
            let kind = it.next().unwrap_or("");
            if kind != "edge" && kind != "col" {
                return Err(malformed(
                    li + 1,
                    format!("unsupported problem kind {kind:?}"),
                ));
            }
            let n: usize = it
                .next()
                .ok_or_else(|| malformed(li + 1, "missing n"))?
                .parse()
                .map_err(|e| malformed(li + 1, format!("bad n: {e}")))?;
            check_vertex_bound(li + 1, n)?;
            g = Some(BitGraph::new(n));
        } else if let Some(rest) = body.strip_prefix("e ") {
            let g = g
                .as_mut()
                .ok_or_else(|| malformed(li + 1, "edge before problem line"))?;
            let mut it = rest.split_whitespace();
            let u: usize = it
                .next()
                .ok_or_else(|| malformed(li + 1, "missing u"))?
                .parse()
                .map_err(|e| malformed(li + 1, format!("bad u: {e}")))?;
            let v: usize = it
                .next()
                .ok_or_else(|| malformed(li + 1, "missing v"))?
                .parse()
                .map_err(|e| malformed(li + 1, format!("bad v: {e}")))?;
            if u == 0 || v == 0 || u > g.n() || v > g.n() {
                return Err(malformed(
                    li + 1,
                    "vertex out of range (DIMACS is 1-indexed)",
                ));
            }
            g.add_edge(u - 1, v - 1);
        } else {
            return Err(malformed(li + 1, format!("unrecognized line {body:?}")));
        }
    }
    g.ok_or_else(|| malformed(0, "no problem line"))
}

/// Write DIMACS clique format.
pub fn write_dimacs<W: Write>(g: &BitGraph, mut writer: W) -> io::Result<()> {
    let mut buf = String::new();
    writeln!(buf, "p edge {} {}", g.n(), g.m()).unwrap();
    for (u, v) in g.edges() {
        writeln!(buf, "e {} {}", u + 1, v + 1).unwrap();
    }
    writer.write_all(buf.as_bytes())
}

/// Load a graph from a path, choosing the format by extension
/// (`.clq`/`.dimacs` → DIMACS, anything else → edge list).
pub fn load(path: &Path) -> Result<BitGraph, ParseError> {
    let file = std::fs::File::open(path)?;
    match path.extension().and_then(|e| e.to_str()) {
        Some("clq") | Some("dimacs") => read_dimacs(file),
        _ => read_edge_list(file, None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_list_roundtrip() {
        let g = BitGraph::from_edges(5, [(0, 1), (1, 4), (2, 3)]);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let h = read_edge_list(&buf[..], Some(5)).unwrap();
        assert_eq!(g, h);
    }

    #[test]
    fn edge_list_infers_n() {
        let text = b"0 1\n# comment line\n3 2  # trailing comment\n";
        let g = read_edge_list(&text[..], None).unwrap();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 2);
    }

    #[test]
    fn edge_list_rejects_garbage() {
        assert!(read_edge_list(&b"0 x\n"[..], None).is_err());
        assert!(read_edge_list(&b"0\n"[..], None).is_err());
        assert!(read_edge_list(&b"0 1 2\n"[..], None).is_err());
        assert!(read_edge_list(&b"0 9\n"[..], Some(5)).is_err());
    }

    #[test]
    fn dimacs_roundtrip() {
        let g = BitGraph::from_edges(4, [(0, 1), (2, 3), (1, 2)]);
        let mut buf = Vec::new();
        write_dimacs(&g, &mut buf).unwrap();
        let h = read_dimacs(&buf[..]).unwrap();
        assert_eq!(g, h);
    }

    #[test]
    fn dimacs_validation() {
        assert!(read_dimacs(&b"e 1 2\n"[..]).is_err()); // edge before p
        assert!(read_dimacs(&b"p edge 2 1\ne 0 1\n"[..]).is_err()); // 0-index
        assert!(read_dimacs(&b"p edge 2 1\ne 1 3\n"[..]).is_err()); // range
        assert!(read_dimacs(&b"p foo 2 1\n"[..]).is_err()); // kind
        let g = read_dimacs(&b"c hi\np edge 3 1\ne 1 3\n"[..]).unwrap();
        assert!(g.has_edge(0, 2));
    }

    #[test]
    fn empty_edge_list() {
        let g = read_edge_list(&b"# nothing\n"[..], None).unwrap();
        assert_eq!(g.n(), 0);
        let g = read_edge_list(&b""[..], Some(7)).unwrap();
        assert_eq!(g.n(), 7);
        assert_eq!(g.m(), 0);
    }
}
