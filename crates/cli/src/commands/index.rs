//! `gsb index` — enumerate maximal cliques straight into a persistent
//! on-disk index (clique store + postings + size directory), queryable
//! afterwards with `gsb query` / `gsb serve` without re-running the
//! enumeration. The flags are [`gsb_index::build`]'s options (blocks at
//! the default target, which `gsb update` and `gsb compact` keep): the
//! cliques come from pivoted Bron–Kerbosch per root vertex, in the
//! Clique Enumerator's canonical order, so the files are the ones the
//! paper's enumerator would write.

use super::load;
use crate::args::Args;
use crate::CliError;
use gsb_core::WriterSink;
use gsb_index::{build, BuildOptions};
use std::fmt::Write as _;
use std::path::Path;

/// `gsb index`
pub fn index(argv: &[String]) -> Result<String, CliError> {
    let a = Args::parse(argv, &["out", "min", "max", "threads", "text-out"], &[], 1)?;
    let graph_path = a.required_positional(0, "GRAPH")?;
    let Some(out_dir) = a.flag("out") else {
        return Err(CliError::Usage(
            "gsb index requires --out DIR (where the index is written)".into(),
        ));
    };
    let defaults = BuildOptions::default();
    let options = BuildOptions {
        min: a.flag_or("min", defaults.min)?,
        max: a.flag_opt("max")?,
        threads: a.flag_or("threads", defaults.threads)?,
        ..defaults
    };
    // Every flag is checked before the graph loads, so a bad command
    // line fails as usage (exit 2) whatever the graph file holds.
    let g = load(graph_path)?;
    let dir = Path::new(out_dir);

    // --text-out also streams the classic `size\tv …` lines.
    let summary = if let Some(text_path) = a.flag("text-out") {
        let mut text = WriterSink::new(std::fs::File::create(text_path)?);
        let summary = build(&g, dir, options, Some(&mut text)).map_err(CliError::Store)?;
        text.finish()?;
        summary
    } else {
        build(&g, dir, options, None).map_err(CliError::Store)?
    };

    let mut out = String::new();
    let _ = writeln!(
        out,
        "indexed {} maximal cliques from {graph_path} into {out_dir}",
        summary.cliques
    );
    let _ = writeln!(
        out,
        "largest clique: {} / blocks: {} / store: {} bytes / postings: {} bytes",
        summary.max_clique, summary.blocks, summary.store_bytes, summary.postings_bytes
    );
    if let Some(text_path) = a.flag("text-out") {
        let _ = writeln!(out, "text copy: {text_path}");
    }
    Ok(out)
}
