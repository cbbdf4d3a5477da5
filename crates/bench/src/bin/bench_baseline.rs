//! Committed perf baseline: one small fixed-scale measured pass per
//! backend (`results/BENCH_backends.json`, on the workload the
//! `ablation_wah` bench times) plus index query latency percentiles
//! (`results/BENCH_query.json`). CI regenerates both and diffs the
//! schema, so a PR that silently drops a field or a backend fails loud.
//!
//! Run from the repo root: `cargo run -p gsb-bench --bin bench_baseline`.

use gsb_bitset::{BitSet, NeighborSet, WahBitSet};
use gsb_core::sink::CountSink;
use gsb_core::{CliqueEnumerator, EnumConfig, EnumStats};
use gsb_graph::generators::{planted, Module};
use gsb_graph::BitGraph;
use gsb_index::{build, BuildOptions, CliqueIndex};
use gsb_telemetry::percentile;
use std::fmt::Write as _;
use std::time::Instant;

/// The fixed workload shared with `ablation_wah`: three planted
/// modules over sparse background, big enough to cross block
/// boundaries, small enough for CI.
fn backend_workload() -> BitGraph {
    planted(
        400,
        0.008,
        &[Module::clique(13), Module::clique(11), Module::clique(9)],
        21,
    )
}

/// Denser workload for the query bench: enough cliques that postings
/// lists, size runs, and block-cache traffic are all non-trivial.
fn query_workload() -> BitGraph {
    planted(
        400,
        0.035,
        &[Module::clique(13), Module::clique(11), Module::clique(9)],
        21,
    )
}

fn run_levelwise<S: NeighborSet>(g: &BitGraph) -> (usize, EnumStats) {
    let mut sink = CountSink::default();
    let stats = CliqueEnumerator::<S>::with_backend(EnumConfig::default()).enumerate(g, &mut sink);
    (sink.count, stats)
}

/// One JSON record per backend from a single measured pass: wall time,
/// clique count (must agree across backends), total AND ops, and the
/// peak per-level heap footprint — the number WAH is supposed to move.
fn export_backends(g: &BitGraph) -> std::io::Result<()> {
    let mut records = String::new();
    for (name, (count, stats)) in [
        ("dense", run_levelwise::<BitSet>(g)),
        ("wah", run_levelwise::<WahBitSet>(g)),
    ] {
        let peak_heap = stats
            .levels
            .iter()
            .map(|l| l.memory.heap_bytes)
            .max()
            .unwrap_or(0);
        let and_ops: u64 = stats.levels.iter().map(|l| l.and_ops).sum();
        if !records.is_empty() {
            records.push(',');
        }
        let _ = write!(
            records,
            "\n    {{\"backend\":\"{name}\",\"wall_ns\":{},\"maximal\":{count},\
             \"and_ops\":{and_ops},\"peak_heap_bytes\":{peak_heap}}}",
            stats.wall_ns
        );
    }
    let json = format!(
        "{{\n  \"bench\": \"levelwise_backends\",\n  \"n\": {},\n  \"m\": {},\n  \
         \"results\": [{records}\n  ]\n}}\n",
        g.n(),
        g.m()
    );
    std::fs::write("results/BENCH_backends.json", json)?;
    println!("wrote results/BENCH_backends.json");
    Ok(())
}

struct QueryRecord {
    query: &'static str,
    samples: Vec<u64>,
}

fn record(query: &'static str, mut run: impl FnMut()) -> QueryRecord {
    // One warm pass to fault in file pages and fill the block cache the
    // same way for every query type, then the measured passes.
    run();
    let mut samples = Vec::with_capacity(2_000);
    for _ in 0..2_000 {
        let start = Instant::now();
        run();
        samples.push(start.elapsed().as_nanos() as u64);
    }
    QueryRecord { query, samples }
}

fn export_queries(g: &BitGraph) -> std::io::Result<()> {
    let dir = std::env::temp_dir().join(format!("gsb_bench_baseline_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let summary = build(g, &dir, BuildOptions::default(), None).expect("build index");
    let index = CliqueIndex::open(&dir).expect("open index");

    let n = g.n() as u32;
    let max = index.max_size();
    let mut turn = 0u32;
    let records = [
        record("containing", || {
            turn = (turn + 7) % n;
            let ids = index.containing(turn).expect("containing");
            std::hint::black_box(ids);
        }),
        record("of_size_materialize", || {
            turn = (turn + 3) % max.max(1);
            let lo = 3 + turn % max.saturating_sub(2).max(1);
            let ids = index.of_size(lo, lo + 1);
            let cliques = index.materialize(ids.take(64)).expect("materialize");
            std::hint::black_box(cliques);
        }),
        record("max_clique", || {
            let c = index.max_clique().expect("max_clique");
            std::hint::black_box(c);
        }),
        record("overlap", || {
            turn = (turn + 13) % n;
            let ids = index.overlap(turn, (turn + 29) % n).expect("overlap");
            std::hint::black_box(ids);
        }),
    ];

    let mut body = String::new();
    for r in &records {
        let mut sorted = r.samples.clone();
        sorted.sort_unstable();
        let mean = sorted.iter().sum::<u64>() as f64 / sorted.len() as f64;
        if !body.is_empty() {
            body.push(',');
        }
        let _ = write!(
            body,
            "\n    {{\"query\":\"{}\",\"samples\":{},\"p50_ns\":{},\"p90_ns\":{},\
             \"p99_ns\":{},\"max_ns\":{},\"mean_ns\":{:.0}}}",
            r.query,
            sorted.len(),
            percentile(&sorted, 0.50),
            percentile(&sorted, 0.90),
            percentile(&sorted, 0.99),
            sorted.last().copied().unwrap_or(0),
            mean
        );
    }
    let json = format!(
        "{{\n  \"bench\": \"index_query\",\n  \"n\": {},\n  \"m\": {},\n  \
         \"cliques\": {},\n  \"store_bytes\": {},\n  \"postings_bytes\": {},\n  \
         \"results\": [{body}\n  ]\n}}\n",
        g.n(),
        g.m(),
        summary.cliques,
        summary.store_bytes,
        summary.postings_bytes
    );
    std::fs::write("results/BENCH_query.json", json)?;
    println!("wrote results/BENCH_query.json");
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

fn main() -> std::io::Result<()> {
    std::fs::create_dir_all("results")?;
    export_backends(&backend_workload())?;
    export_queries(&query_workload())?;
    Ok(())
}
