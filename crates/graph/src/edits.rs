//! Edge-edit scripts for dynamic graph maintenance.
//!
//! `gsb update` consumes plain edit files — the same whitespace `u v`
//! line format as the edge lists in [`crate::io`], one edge per line,
//! `#` comments — naming edges to add to or remove from an indexed
//! graph. Parsing canonicalizes each pair to `(min, max)` and rejects
//! self-loops; duplicates are preserved in file order because the
//! update engine applies edits sequentially and reports skips (an edge
//! already present / already absent) per occurrence.

use crate::io::{malformed, parse_pair, ParseError, MAX_VERTICES};
use std::io::{BufRead, BufReader, Read};
use std::path::Path;

/// Read an edit list: one `u v` edge per line, 0-indexed, `#` starts a
/// comment. Pairs come back canonicalized as `(min, max)`.
pub fn read_edit_list<R: Read>(reader: R) -> Result<Vec<(usize, usize)>, ParseError> {
    let mut edits = Vec::new();
    for (li, line) in BufReader::new(reader).lines().enumerate() {
        let Some((u, v)) = parse_pair(li + 1, &line?)? else {
            continue;
        };
        if u == v {
            return Err(malformed(li + 1, format!("self-loop {u}-{v}")));
        }
        if u.max(v) >= MAX_VERTICES {
            return Err(malformed(
                li + 1,
                format!(
                    "vertex {} exceeds the supported maximum {MAX_VERTICES}",
                    u.max(v)
                ),
            ));
        }
        edits.push((u.min(v), u.max(v)));
    }
    Ok(edits)
}

/// Load an edit list from a path.
pub fn load_edits(path: &Path) -> Result<Vec<(usize, usize)>, ParseError> {
    read_edit_list(std::fs::File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_canonicalizes() {
        let text = b"3 1\n# comment\n0 2  # add hub\n\n5 7\n";
        let edits = read_edit_list(&text[..]).unwrap();
        assert_eq!(edits, vec![(1, 3), (0, 2), (5, 7)]);
    }

    #[test]
    fn rejects_garbage() {
        assert!(read_edit_list(&b"1\n"[..]).is_err());
        assert!(read_edit_list(&b"1 x\n"[..]).is_err());
        assert!(read_edit_list(&b"1 2 3\n"[..]).is_err());
        assert!(read_edit_list(&b"4 4\n"[..]).is_err());
        assert!(read_edit_list(&b"0 99999999\n"[..]).is_err());
    }

    #[test]
    fn keeps_duplicates_in_order() {
        let edits = read_edit_list(&b"0 1\n1 0\n"[..]).unwrap();
        assert_eq!(edits, vec![(0, 1), (0, 1)]);
    }
}
