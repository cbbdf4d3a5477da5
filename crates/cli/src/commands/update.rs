//! `gsb update` — apply an edge-edit batch to an index directory
//! in place, re-enumerating only the affected neighborhoods.
//!
//! The edit files use the same whitespace `u v` edge-list format as
//! `gsb index` inputs (`#` comments, one edge per line); removals are
//! applied before additions, each in file order. The new cliques and
//! tombstones land as an appended delta generation, and the manifest
//! generation bump is atomic — a `gsb serve --reload-poll` process
//! watching the directory picks the new view up live.

use crate::args::Args;
use crate::CliError;
use gsb_graph::edits::load_edits;
use gsb_index::EditScript;
use std::fmt::Write as _;
use std::path::Path;

/// `gsb update`
pub fn update(argv: &[String]) -> Result<String, CliError> {
    let a = Args::parse(argv, &["add-edges", "remove-edges"], &[], 1)?;
    let dir = a.required_positional(0, "INDEX_DIR")?;

    let mut script = EditScript::default();
    if let Some(path) = a.flag("remove-edges") {
        script.remove = load_edits(Path::new(path))?;
    }
    if let Some(path) = a.flag("add-edges") {
        script.add = load_edits(Path::new(path))?;
    }
    if script.remove.is_empty() && script.add.is_empty() {
        return Err(CliError::Usage(
            "gsb update needs --add-edges FILE and/or --remove-edges FILE".into(),
        ));
    }

    let o = gsb_index::update(Path::new(dir), &script, None).map_err(CliError::Store)?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "update {dir}: {} removal(s) applied ({} skipped), {} addition(s) applied ({} skipped)",
        o.removes_applied, o.removes_skipped, o.adds_applied, o.adds_skipped
    );
    if !o.committed {
        let _ = writeln!(
            out,
            "every edit was a no-op — nothing written, index unchanged (generation {})",
            o.generation
        );
        return Ok(out);
    }
    let _ = writeln!(
        out,
        "generation {}: +{} clique(s), {} tombstoned; {} live of {} total, {} vertices",
        o.generation, o.new_cliques, o.new_tombstones, o.live, o.total, o.n
    );
    Ok(out)
}
