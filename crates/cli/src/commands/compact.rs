//! `gsb compact` — fold an index's delta chain back into a clean base.
//!
//! Rebuilds the four-file index from the live clique set in a
//! `compact.tmp/` staging directory, then swaps it in atomically
//! (manifest rename last). A crash at any point leaves either the old
//! view or a completed staging build; re-running `gsb compact` finishes
//! the interrupted swap instead of rebuilding. The result is
//! byte-identical to `gsb index` run fresh on the updated graph.

use crate::args::Args;
use crate::CliError;
use std::fmt::Write as _;
use std::path::Path;

/// `gsb compact`
pub fn compact(argv: &[String]) -> Result<String, CliError> {
    let a = Args::parse(argv, &[], &[], 1)?;
    let dir = a.required_positional(0, "INDEX_DIR")?;

    let o = gsb_index::compact(Path::new(dir), None).map_err(CliError::Store)?;

    let mut out = String::new();
    if !o.compacted {
        let _ = writeln!(
            out,
            "compact {dir}: no delta chain — already compact (generation {})",
            o.generation
        );
        return Ok(out);
    }
    if o.resumed {
        let _ = writeln!(
            out,
            "compact {dir}: finished an interrupted swap (no rebuild needed)"
        );
    }
    let _ = writeln!(
        out,
        "compacted {dir} at generation {}: {} clique(s), {} vertices, chain folded",
        o.generation, o.cliques, o.n
    );
    Ok(out)
}
