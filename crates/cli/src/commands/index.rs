//! `gsb index` — enumerate maximal cliques straight into a persistent
//! on-disk index (clique store + postings + size directory), queryable
//! afterwards with `gsb query` / `gsb serve` without re-running the
//! enumeration. The cliques come from pivoted Bron–Kerbosch per root
//! vertex ([`gsb_core::rooted`]), in the Clique Enumerator's canonical
//! order, so the files are the ones the paper's enumerator would write.

use super::load;
use crate::args::Args;
use crate::CliError;
use gsb_core::{rooted, TeeSink, WriterSink};
use gsb_index::IndexWriter;
use std::fmt::Write as _;
use std::path::Path;

/// `gsb index`
pub fn index(argv: &[String]) -> Result<String, CliError> {
    let a = Args::parse(
        argv,
        &["out", "min", "max", "threads", "block-target", "text-out"],
        &[],
        1,
    )?;
    let graph_path = a.required_positional(0, "GRAPH")?;
    let Some(out_dir) = a.flag("out") else {
        return Err(CliError::Usage(
            "gsb index requires --out DIR (where the index is written)".into(),
        ));
    };
    let min_k: usize = a.flag_or("min", 3)?;
    let max_k: Option<usize> = a.flag_opt("max")?;
    let threads: usize = a.flag_or("threads", 1)?;
    let block_target: Option<usize> = a.flag_opt("block-target")?;
    // Every flag is checked before the graph loads, so a bad command
    // line fails as usage (exit 2) whatever the graph file holds.
    let g = load(graph_path)?;

    let mut writer = IndexWriter::create(Path::new(out_dir), g.n()).map_err(CliError::Store)?;
    if let Some(bytes) = block_target {
        writer = writer.block_target(bytes);
    }
    // An unbounded run maintains "every maximal clique ≥ --min", which
    // is exactly the set `gsb update` knows how to maintain — record
    // the min and snapshot the graph so the index stays updatable.
    // --max truncates the set to a shape updates can't reason about, so
    // such indexes are committed frozen (queryable, not updatable).
    if max_k.is_none() {
        writer = writer
            .min_size(min_k as u32)
            .snapshot(&g)
            .map_err(CliError::Store)?;
    }

    // --text-out additionally streams the classic `size\tv …` lines;
    // the index sink goes first in the tee so a flush barrier makes the
    // durable artifact durable before the convenience copy.
    let summary = if let Some(text_path) = a.flag("text-out") {
        let file = std::fs::File::create(text_path)?;
        let mut text = WriterSink::new(file);
        {
            let mut tee = TeeSink(&mut writer, &mut text);
            rooted::maximal_cliques(&g, min_k, max_k, threads, &mut tee);
        }
        text.finish()?;
        writer.finish().map_err(CliError::Store)?
    } else {
        rooted::maximal_cliques(&g, min_k, max_k, threads, &mut writer);
        writer.finish().map_err(CliError::Store)?
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
