//! `gsb bench-update` — incremental maintenance vs. full rebuild.
//!
//! Self-contained: generates a planted-module graph, builds an
//! updatable index, then times `gsb update` batches of growing size
//! (1, 4, 16, 64 edge toggles) against the cost of re-enumerating and
//! re-indexing the patched graph from scratch. The point of the delta
//! chain is that a single-edge edit touches one neighborhood instead
//! of the whole graph — the bench asserts that claim (≥10× for
//! single-edge edits at full size) and that the largest batch has no
//! cliff (≥3× at full size), and commits the numbers to a JSON file
//! (default `results/BENCH_update.json`) whose *schema* is diffed in
//! CI; values are hardware-dependent, the shape is not.
//!
//! The competitor (and the base index) is the level-wise Clique
//! Enumerator plus a global (size, lex) sort into an `IndexWriter`, not
//! `gsb index`'s twice-as-fast [`gsb_index::build`]; against that, the
//! 64-edit batch misses the 3× floor (EXPERIMENTS.md, "One build path").

use crate::args::Args;
use crate::CliError;
use gsb_core::{CliqueEnumerator, CliqueSink, EnumConfig};
use gsb_graph::generators::{planted, Module};
use gsb_graph::BitGraph;
use gsb_index::{EditScript, IndexWriter};
use gsb_rng::SplitMix64;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

const MIN_K: usize = 3;
const BATCHES: [usize; 4] = [1, 4, 16, 64];
/// Full-size floor on the largest batch's speedup: an update that
/// costs as much as a rebuild is a performance cliff.
const BATCH_FLOOR: f64 = 3.0;

/// `gsb bench-update`
pub fn bench_update(argv: &[String]) -> Result<String, CliError> {
    let a = Args::parse(argv, &["out", "seed"], &["smoke"], 0)?;
    let out_path = PathBuf::from(a.flag("out").unwrap_or("results/BENCH_update.json"));
    let seed: u64 = a.flag_or("seed", 21)?;
    let smoke = a.switch("smoke");

    // The levelwise-scale target from the paper's workload: n=400 with
    // planted modules so the clique population is non-trivial. Smoke
    // keeps CI fast; the speedup floor is only enforced at full size
    // where the asymptotic gap actually shows.
    let (n, trials, required) = if smoke { (120, 2, 2.0) } else { (400, 3, 10.0) };
    // p=0.30 puts the full-size graph deep in the levelwise regime
    // (~280k maximal cliques at n=400): the rebuild competitor pays for
    // all of them while a single-edge update touches one neighborhood
    // plus a fixed durability floor (three fsynced appends + manifest).
    let g = planted(
        n,
        if smoke { 0.25 } else { 0.30 },
        &[Module::clique(13), Module::clique(11), Module::clique(9)],
        seed,
    );
    let work = std::env::temp_dir().join(format!("gsb-bench-update-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work)?;
    let base_dir = work.join("base");
    let base_us = time_rebuild(&base_dir, &g)?;
    let base_cliques = gsb_index::CliqueIndex::open(&base_dir)
        .map_err(CliError::Store)?
        .len();

    let mut rng = SplitMix64::new(seed ^ 0xB37C);
    let mut rows = Vec::new();
    for (bi, &edits) in BATCHES.iter().enumerate() {
        let script = toggle_script(&g, edits, &mut rng);
        // Best-of-`trials` update time, each against a fresh copy of
        // the base index (update mutates the directory in place).
        let mut best_update = u64::MAX;
        let mut outcome = None;
        for t in 0..trials {
            let dir = work.join(format!("upd-{bi}-{t}"));
            copy_dir(&base_dir, &dir)?;
            let t0 = Instant::now();
            let o = gsb_index::update(&dir, &script, None).map_err(CliError::Store)?;
            best_update = best_update.min(t0.elapsed().as_micros() as u64);
            outcome = Some(o);
        }
        let o = outcome.expect("at least one trial");
        // The competitor: enumerate + index the patched graph from
        // scratch, timed on the same machine moments later.
        let mut patched = g.clone();
        for &(u, v) in &script.remove {
            patched.remove_edge(u, v);
        }
        for &(u, v) in &script.add {
            patched.add_edge(u, v);
        }
        let mut best_rebuild = u64::MAX;
        for t in 0..trials {
            let dir = work.join(format!("reb-{bi}-{t}"));
            best_rebuild = best_rebuild.min(time_rebuild(&dir, &patched)?);
        }
        let speedup = best_rebuild as f64 / best_update.max(1) as f64;
        rows.push(Row {
            edits,
            update_us: best_update,
            rebuild_us: best_rebuild,
            speedup,
            new_cliques: o.new_cliques,
            tombstones: o.new_tombstones,
        });
    }
    let _ = std::fs::remove_dir_all(&work);

    let single = rows[0].speedup;
    let batch_json: Vec<String> = rows.iter().map(Row::to_json).collect();
    let json = format!(
        "{{\n  \"bench\": \"gsb_bench_update\",\n  \"smoke\": {smoke},\n  \"seed\": {seed},\n  \"n\": {n},\n  \"min_k\": {MIN_K},\n  \"base_cliques\": {base_cliques},\n  \"base_build_us\": {base_us},\n  \"batches\": [\n    {}\n  ],\n  \"single_edge_speedup\": {single:.2},\n  \"required_speedup\": {required:.1}\n}}\n",
        batch_json.join(",\n    "),
    );
    if let Some(parent) = out_path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(&out_path, &json)?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "bench-update ({}): n={n}, {base_cliques} base cliques ({base_us}us to build)",
        if smoke { "smoke" } else { "full" }
    );
    for r in &rows {
        let _ = writeln!(
            out,
            "  {:>3} edit(s): update {:>8}us vs rebuild {:>8}us — {:.1}x ({} new, {} tombstoned)",
            r.edits, r.update_us, r.rebuild_us, r.speedup, r.new_cliques, r.tombstones
        );
    }
    let _ = writeln!(out, "results written to {}", out_path.display());
    if single < required {
        return Err(CliError::Runtime(format!(
            "single-edge update speedup {single:.1}x is below the required {required:.0}x"
        )));
    }
    let largest = rows.last().expect("one row per batch");
    if !smoke && largest.speedup < BATCH_FLOOR {
        return Err(CliError::Runtime(format!(
            "{}-edit update speedup {:.1}x is below the required {BATCH_FLOOR:.0}x",
            largest.edits, largest.speedup
        )));
    }
    Ok(out)
}

struct Row {
    edits: usize,
    update_us: u64,
    rebuild_us: u64,
    speedup: f64,
    new_cliques: u64,
    tombstones: u64,
}

impl Row {
    fn to_json(&self) -> String {
        format!(
            "{{\"edits\":{},\"update_us\":{},\"rebuild_us\":{},\"speedup\":{:.2},\"new_cliques\":{},\"tombstones\":{}}}",
            self.edits, self.update_us, self.rebuild_us, self.speedup, self.new_cliques, self.tombstones
        )
    }
}

/// The competitor: enumerate `g` from scratch with the level-wise
/// Clique Enumerator, sort, and write a fresh updatable index at `dir`;
/// returns the wall time in microseconds.
fn time_rebuild(dir: &Path, g: &BitGraph) -> Result<u64, CliError> {
    let _ = std::fs::remove_dir_all(dir);
    let t0 = Instant::now();
    let mut w = IndexWriter::create(dir, g.n())
        .map_err(CliError::Store)?
        .min_size(MIN_K as u32)
        .snapshot(g)
        .map_err(CliError::Store)?;
    let mut cliques = Vec::new();
    {
        let mut sink = gsb_core::CollectSink::default();
        CliqueEnumerator::new(EnumConfig {
            min_k: MIN_K,
            max_k: None,
            record_costs: false,
        })
        .enumerate(g, &mut sink);
        cliques.append(&mut sink.cliques);
    }
    cliques.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
    for c in &cliques {
        w.maximal(c);
    }
    w.finish().map_err(CliError::Store)?;
    Ok(t0.elapsed().as_micros() as u64)
}

/// `edits` edge toggles (remove if present, add if absent), tracked on
/// a scratch copy so every toggle in the batch is effective.
fn toggle_script(g: &BitGraph, edits: usize, rng: &mut SplitMix64) -> EditScript {
    let mut scratch = g.clone();
    let mut script = EditScript::default();
    while script.remove.len() + script.add.len() < edits {
        let u = rng.below(g.n());
        let v = rng.below(g.n());
        if u == v {
            continue;
        }
        let (u, v) = (u.min(v), u.max(v));
        if scratch.has_edge(u, v) {
            scratch.remove_edge(u, v);
            script.remove.push((u, v));
        } else {
            scratch.add_edge(u, v);
            script.add.push((u, v));
        }
    }
    script
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), CliError> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}
