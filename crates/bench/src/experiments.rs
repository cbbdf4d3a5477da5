//! One function per table/figure of the paper's evaluation (§3).
//!
//! Each returns a plain-text report. The scaling figures (5–8) replay
//! *measured* per-sub-list expansion costs from a real sequential run
//! onto P ∈ [1, 256] virtual processors (see `gsb-par::vsim` and
//! DESIGN.md §2 — this host has nothing like a 256-CPU Altix, and the
//! claims under test are properties of the task-cost distribution).

use crate::report::{fmt_bytes, fmt_ns, Table};
use crate::workloads::Workload;
use gsb_core::kose::{kose_ram_with, KoseSearch};
use gsb_core::sink::CountSink;
use gsb_core::{
    CliqueEnumerator, EnumConfig, EnumStats, Level, LevelReport, ParallelStats, SubList,
};
use gsb_graph::BitGraph;
use gsb_par::vsim::{SimConfig, VirtualScheduler};
use gsb_par::{partition_greedy, rebalance, BalancePolicy, LevelStats};
use std::fmt::Write as _;
use std::time::Instant;

/// Processor counts used by the paper's Figs. 5–7.
pub const PAPER_PROCS: [usize; 9] = [1, 2, 4, 8, 16, 32, 64, 128, 256];

/// Sequential run with per-sub-list cost recording.
fn measured_run(g: &BitGraph, min_k: usize) -> EnumStats {
    let mut sink = CountSink::default();
    CliqueEnumerator::new(EnumConfig {
        min_k,
        max_k: None,
        record_costs: true,
    })
    .enumerate(g, &mut sink)
}

/// Median ns-per-work-unit across several measured runs. Using one
/// common scale for every row of a figure keeps rows comparable: the
/// per-run wall/unit ratio wobbles with cache state on a shared host,
/// while the unit counts themselves are deterministic.
fn median_scale(runs: &[EnumStats]) -> f64 {
    let mut scales: Vec<f64> = runs
        .iter()
        .map(EnumStats::ns_per_unit)
        .filter(|s| *s > 0.0)
        .collect();
    if scales.is_empty() {
        return 1.0;
    }
    scales.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    scales[scales.len() / 2]
}

/// Unit costs of a run converted with an explicit common scale.
fn costs_at_scale(stats: &EnumStats, scale: f64) -> Vec<Vec<u64>> {
    stats
        .costs
        .as_ref()
        .expect("record_costs was set")
        .iter()
        .map(|l| l.iter().map(|&u| (u as f64 * scale) as u64).collect())
        .collect()
}

/// Virtual scheduler seeded with a run's measured level costs at a
/// caller-supplied common ns-per-unit scale.
///
/// Sync constants are calibrated to the *scaled* workload: the paper's
/// own numbers imply a per-level synchronization cost at 256 CPUs of
/// ~1–2 % of the level's sequential work (e.g. Init_K=20: T_seq = 98 s
/// over ~8 levels, speedup 22 at 256 ⇒ ≈0.5 s sync per ~12 s level).
/// Our levels are ~10³× smaller, so the absolute barrier cost shrinks
/// proportionally; keeping the paper's default commodity constants
/// would make the barrier 50× *relatively* costlier than the Altix's
/// and hide the regime the figures are about.
fn scheduler_with_scale(stats: &EnumStats, scale: f64) -> VirtualScheduler {
    VirtualScheduler::new(
        costs_at_scale(stats, scale),
        SimConfig {
            sync_base_ns: 5_000,
            sync_per_proc_ns: 300,
            ..SimConfig::default()
        },
    )
}

/// The init_k values exercised by the paper (3, and ω−10 … ω−8, i.e.
/// 18–20 for the ω=28 myogenic graph), transposed to the scaled ω.
fn init_ks(omega: usize) -> Vec<usize> {
    let mut ks = vec![3usize];
    for off in (8..=10).rev() {
        let k = omega.saturating_sub(off);
        if k > 3 {
            ks.push(k);
        }
    }
    ks.dedup();
    ks
}

/// The Figs. 5–9 graph: scaled stand-in for the 2,895-vertex myogenic
/// workload, with the planted-module size capped so the default run
/// finishes in seconds (the paper's ω=28 puts ~4·10⁷ candidate cliques
/// at the middle levels; ω=20 keeps the same shape at ~2·10⁵).
fn figure_graph(scale: f64) -> (BitGraph, usize) {
    let mut spec = Workload::Myogenic.spec_scaled(scale);
    spec.profile.max_module = spec.profile.max_module.min(20);
    let g = spec.graph();
    let omega = gsb_core::maximum_clique_size(&g);
    (g, omega)
}

/// **Table 1** — Kose RAM vs. sequential Clique Enumerator, sizes 3–ω,
/// on the sparse brain-like graph. The paper reports 17,261 s vs. 45 s
/// (speedup ≈ 383×) on a 1 GHz PowerPC G4.
pub fn table1(scale: f64) -> String {
    let spec = Workload::BrainSparse.spec_scaled(scale);
    let g = spec.graph();
    let mut out = String::new();
    let _ = writeln!(out, "workload: {}", spec.describe(&g));

    let t0 = Instant::now();
    let mut ce_sink = CountSink::default();
    let ce_stats = CliqueEnumerator::new(EnumConfig::default()).enumerate(&g, &mut ce_sink);
    let ce_ns = t0.elapsed().as_nanos() as u64;

    let t0 = Instant::now();
    let mut kose_sink = CountSink::default();
    let kose_stats = kose_ram_with(&g, 3, KoseSearch::SortedList, &mut kose_sink);
    let kose_ns = t0.elapsed().as_nanos() as u64;

    let t0 = Instant::now();
    let mut kose_hash_sink = CountSink::default();
    kose_ram_with(&g, 3, KoseSearch::HashSet, &mut kose_hash_sink);
    let kose_hash_ns = t0.elapsed().as_nanos() as u64;

    assert_eq!(ce_sink.count, kose_sink.count, "algorithms must agree");
    assert_eq!(ce_sink.count, kose_hash_sink.count, "algorithms must agree");
    let omega = ce_stats.levels.last().map_or(0, |l| l.k + 1);
    let mut t = Table::new(&[
        "graph",
        "density",
        "clique sizes",
        "Kose RAM",
        "Clique Enumerator",
        "speedup",
    ]);
    t.row(&[
        format!("{} vertices", g.n()),
        format!("{:.4}%", 100.0 * g.density()),
        format!("[3, {omega}]"),
        fmt_ns(kose_ns),
        fmt_ns(ce_ns),
        format!("{:.0}x", kose_ns as f64 / ce_ns.max(1) as f64),
    ]);
    let _ = writeln!(out, "{}", t.render());
    let _ = writeln!(
        out,
        "with a hash-accelerated (generous) Kose baseline: {} ({:.0}x)",
        fmt_ns(kose_hash_ns),
        kose_hash_ns as f64 / ce_ns.max(1) as f64
    );
    let _ = writeln!(
        out,
        "maximal cliques (size >= 3): {}; Kose peak stored cliques: {}",
        ce_sink.count,
        kose_stats.peak_stored()
    );
    let _ = writeln!(
        out,
        "paper: 17,261 s vs 45 s (383x) on a 1 GHz PowerPC G4; the claim\n\
         under test is the ratio's direction and magnitude, not seconds."
    );
    out
}

/// **Figure 5** — run times vs. processor count for several `Init_K`,
/// on the myogenic-like graph, virtual processors replaying measured
/// costs.
pub fn fig5(scale: f64) -> String {
    let (g, omega) = figure_graph(scale);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "graph: n={}, m={}, density={:.3}%, max clique={}",
        g.n(),
        g.m(),
        100.0 * g.density(),
        omega
    );
    let mut header: Vec<String> = vec!["Init_K".into(), "T_seq".into()];
    header.extend(PAPER_PROCS.iter().map(|p| format!("P={p}")));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut t = Table::new(&header_refs);
    let mut seq_times = Vec::new();
    let ks = init_ks(omega);
    let runs: Vec<EnumStats> = ks.iter().map(|&k| measured_run(&g, k)).collect();
    let tscale = median_scale(&runs);
    for (&init_k, stats) in ks.iter().zip(&runs) {
        let vs = scheduler_with_scale(stats, tscale);
        let sweep = vs.sweep(&PAPER_PROCS);
        let mut row = vec![init_k.to_string(), fmt_ns(vs.sequential_ns())];
        row.extend(sweep.iter().map(|&(_, ns, _)| fmt_ns(ns)));
        t.row(&row);
        seq_times.push((init_k, vs.sequential_ns()));
    }
    let _ = writeln!(out, "{}", t.render());
    // The paper's A5 observation: "when the initial clique size
    // increases by one, the run times decrease by almost half."
    let highs: Vec<&(usize, u64)> = seq_times.iter().filter(|(k, _)| *k > 3).collect();
    for w in highs.windows(2) {
        let (k0, t0) = *w[0];
        let (k1, t1) = *w[1];
        let _ = writeln!(
            out,
            "Init_K {k0} -> {k1}: sequential time ratio {:.2} (paper: ~0.5)",
            t1 as f64 / t0.max(1) as f64
        );
    }
    out
}

/// **Figure 6** — absolute and relative speedups up to 64 processors.
pub fn fig6(scale: f64) -> String {
    let (g, omega) = figure_graph(scale);
    let procs: Vec<usize> = PAPER_PROCS.iter().copied().filter(|&p| p <= 64).collect();
    let mut out = String::new();
    let mut header: Vec<String> = vec!["Init_K".into(), "measure".into()];
    header.extend(procs.iter().map(|p| format!("P={p}")));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut t = Table::new(&header_refs);
    let ks = init_ks(omega);
    let runs: Vec<EnumStats> = ks.iter().map(|&k| measured_run(&g, k)).collect();
    let tscale = median_scale(&runs);
    for (&init_k, stats) in ks.iter().zip(&runs) {
        let vs = scheduler_with_scale(stats, tscale);
        let sweep = vs.sweep(&procs);
        let mut abs_row = vec![init_k.to_string(), "absolute".into()];
        abs_row.extend(sweep.iter().map(|&(_, _, s)| format!("{s:.1}")));
        t.row(&abs_row);
        let mut rel_row = vec![init_k.to_string(), "relative".into()];
        rel_row.push("-".into());
        for w in sweep.windows(2) {
            let rel = w[0].1 as f64 / w[1].1.max(1) as f64;
            rel_row.push(format!("{rel:.2}"));
        }
        t.row(&rel_row);
    }
    let mut out2 = t.render();
    out2.push_str("paper: relative speedups remain around 1.8 as P doubles up to 64.\n");
    out.push_str(&out2);
    out
}

/// **Figure 7** — absolute speedup at 256 processors vs. the problem's
/// sequential run time (paper: 22 → 51 as T_seq grows 98 s → 1,948 s,
/// a 20× spread obtained by varying Init_K). At bench scale the Init_K
/// sweep alone spans only ~4× of sequential time, so the spread is
/// widened the same way the paper got it — by changing how much work
/// the enumeration has to do (problem scale × Init_K).
pub fn fig7(scale: f64) -> String {
    let mut runs: Vec<(String, EnumStats)> = Vec::new();
    for &f in &[0.6, 1.0] {
        let (g, omega) = figure_graph(scale * f);
        for &init_k in &[omega.saturating_sub(8).max(3), 3] {
            let stats = measured_run(&g, init_k);
            runs.push((format!("n={}, Init_K={init_k}", g.n()), stats));
        }
    }
    let common = median_scale(&runs.iter().map(|(_, s)| s.clone()).collect::<Vec<_>>());
    let mut rows: Vec<(String, u64, f64)> = Vec::new();
    for (name, stats) in &runs {
        let vs = scheduler_with_scale(stats, common);
        let s256 = vs.sweep(&[256])[0].2;
        rows.push((name.clone(), vs.sequential_ns(), s256));
    }
    rows.sort_by_key(|&(_, t, _)| t);
    rows.dedup_by(|a, b| a.0 == b.0);
    let mut t = Table::new(&["problem", "T_seq", "speedup @ 256 procs"]);
    for (name, ns, s) in &rows {
        t.row(&[name.clone(), fmt_ns(*ns), format!("{s:.1}")]);
    }
    let mut out = t.render();
    let (first, last) = (rows.first().unwrap(), rows.last().unwrap());
    let _ = writeln!(
        out,
        "speedup at 256 procs grows {:.1} -> {:.1} as T_seq grows {} -> {}: {} (paper: 22 -> 51)",
        first.2,
        last.2,
        fmt_ns(first.1),
        fmt_ns(last.1),
        if last.2 > first.2 { "yes" } else { "NO" }
    );
    out
}

/// Thread-free replay of the paper's centralized balancer (§2.3) on
/// `threads` workers: the first level is seeded by LPT on
/// [`SubList::cost`], every child stays on its parent's worker, and
/// after each level [`rebalance`] moves sub-lists from heavy to light
/// workers under [`BalancePolicy::default`]. Each worker's queue is
/// expanded with [`CliqueEnumerator::step`], so a worker's load is the
/// deterministic work units its queue cost — what a threaded run of the
/// same schedule would count, without the host's core contention.
fn balancer_replay(g: &BitGraph, enum_config: EnumConfig, threads: usize) -> ParallelStats {
    let wall = Instant::now();
    let seq = CliqueEnumerator::new(enum_config);
    let mut sink = CountSink::default();
    let mut init_stats = EnumStats::default();
    let init = seq.init_level(g, &mut sink, &mut init_stats);
    let mut stats = ParallelStats {
        total_maximal: init_stats.total_maximal,
        ..Default::default()
    };
    let costs: Vec<u64> = init.sublists.iter().map(SubList::cost).collect();
    let mut seeds: Vec<Option<SubList>> = init.sublists.into_iter().map(Some).collect();
    let mut queues: Vec<Vec<SubList>> = partition_greedy(&costs, threads)
        .iter()
        .map(|part| {
            part.iter()
                .map(|&i| seeds[i].take().expect("seeded once"))
                .collect()
        })
        .collect();
    let mut k = init.k;
    while queues.iter().any(|q| !q.is_empty()) && enum_config.max_k.is_none_or(|mx| k < mx) {
        let mut timing = LevelStats {
            level: k,
            ..Default::default()
        };
        let mut level: Option<LevelReport> = None;
        let mut children = Vec::with_capacity(threads);
        for sublists in std::mem::take(&mut queues) {
            timing.per_worker_tasks.push(sublists.len());
            let (next, r) = seq.step(g, Level { k, sublists }, &mut sink);
            timing.per_worker_ns.push(r.ns);
            timing.per_worker_units.push(r.units);
            children.push(next.sublists);
            // The level's report sums its workers'; its time is the
            // slowest worker's.
            level = Some(match level {
                None => r,
                Some(mut l) => {
                    l.sublists += r.sublists;
                    l.candidates += r.candidates;
                    l.maximal_found += r.maximal_found;
                    l.ns = l.ns.max(r.ns);
                    l.memory.n_sublists += r.memory.n_sublists;
                    l.memory.n_cliques += r.memory.n_cliques;
                    l.memory.formula_bytes += r.memory.formula_bytes;
                    l.memory.heap_bytes += r.memory.heap_bytes;
                    l.units += r.units;
                    l.and_ops += r.and_ops;
                    l.maximality_tests += r.maximality_tests;
                    l
                }
            });
        }
        timing.transfers = rebalance(&mut children, SubList::cost, &BalancePolicy::default());
        let level = level.expect("at least one worker");
        stats.total_maximal += level.maximal_found;
        stats.levels.push(level);
        stats.run.levels.push(timing);
        queues = children;
        k += 1;
    }
    stats.run.wall_ns = wall.elapsed().as_nanos() as u64;
    stats
}

/// **Figure 8** — load balance: mean ± stddev of per-processor load
/// for P ∈ {2,…,16} (paper: stddev within 10% of mean). Loads are the
/// deterministic work units each worker executes under the paper's
/// centralized dynamic balancer, replayed without threads (LPT seeding,
/// children on their parent's worker, [`rebalance`] after each level)
/// — the contention-free measure of how well the *balancer* did
/// (per-worker wall times on a shared host measure the OS, not the
/// algorithm).
pub fn fig8(scale: f64) -> String {
    let (g, omega) = figure_graph(scale);
    let init_k = omega.saturating_sub(10).max(3);
    let mut t = Table::new(&["P", "mean load", "stddev", "stddev/mean", "transfers"]);
    let mut worst = 0.0f64;
    let mut last_stats = None;
    for threads in [2usize, 4, 8, 16] {
        let enum_config = EnumConfig {
            min_k: init_k,
            ..Default::default()
        };
        let pstats = balancer_replay(&g, enum_config, threads);
        let loads = pstats.run.per_worker_unit_totals();
        let mean = gsb_par::stats::mean(&loads);
        let sd = gsb_par::stats::stddev(&loads);
        let rel = if mean > 0.0 { sd / mean } else { 0.0 };
        worst = worst.max(rel);
        t.row(&[
            threads.to_string(),
            format!("{:.0} units", mean),
            format!("{:.0}", sd),
            format!("{:.1}%", 100.0 * rel),
            pstats.run.total_transfers().to_string(),
        ]);
        last_stats = Some(pstats);
    }
    let mut out = format!("Init_K = {init_k}\n{}", t.render());
    let _ = writeln!(
        out,
        "worst stddev/mean: {:.1}% (paper: within 10%)",
        100.0 * worst
    );
    if let Some(pstats) = last_stats {
        let _ = writeln!(
            out,
            "16-thread run: {} levels, {} maximal cliques found",
            pstats.levels.len(),
            pstats.total_maximal
        );
        // Export the 16-thread run in the telemetry record format so
        // `gsb report` can render the same imbalance table from it.
        if let Ok(path) = std::env::var("GSB_METRICS_OUT") {
            match std::fs::write(&path, crate::report::run_jsonl(&pstats)) {
                Ok(()) => {
                    let _ = writeln!(out, "wrote per-level run log to {path}");
                }
                Err(e) => {
                    let _ = writeln!(out, "could not write {path}: {e}");
                }
            }
        }
    }
    out
}

/// **Figure 9** — memory to hold the candidate cliques, per clique
/// size, full range 3 → ω (paper: rises to ~20 GB at k = 13 on the
/// 2,895-vertex graph, then falls).
pub fn fig9(scale: f64) -> String {
    let (g, omega) = figure_graph(scale);
    let mut sink = CountSink::default();
    let stats = CliqueEnumerator::new(EnumConfig::default()).enumerate(&g, &mut sink);
    let mut t = Table::new(&[
        "clique size k",
        "N[k] sublists",
        "M[k] cliques",
        "formula bytes",
        "actual heap",
    ]);
    let mut peak_k = 0usize;
    let mut peak_bytes = 0usize;
    for l in &stats.levels {
        if l.memory.formula_bytes > peak_bytes {
            peak_bytes = l.memory.formula_bytes;
            peak_k = l.k;
        }
        t.row(&[
            l.k.to_string(),
            l.memory.n_sublists.to_string(),
            l.memory.n_cliques.to_string(),
            fmt_bytes(l.memory.formula_bytes),
            fmt_bytes(l.memory.heap_bytes),
        ]);
    }
    let mut out = format!(
        "graph: n={}, max clique={omega}; enumerating sizes 3 -> {omega}\n{}",
        g.n(),
        t.render()
    );
    let _ = writeln!(
        out,
        "peak at k={peak_k}: {} (paper: peak ~20 GB at k=13 of ω=28, i.e. k/ω≈0.46; here k/ω={:.2})",
        fmt_bytes(peak_bytes),
        peak_k as f64 / omega.max(1) as f64
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_ks_shapes() {
        assert_eq!(init_ks(28), vec![3, 18, 19, 20]);
        assert_eq!(init_ks(20), vec![3, 10, 11, 12]);
        assert_eq!(init_ks(5), vec![3]);
    }

    #[test]
    fn balancer_replay_does_the_sequential_work() {
        // However the balancer spreads the sub-lists, the replay expands
        // exactly the sequential run's levels: same cliques, same units.
        use gsb_graph::generators::{planted, Module};
        let g = planted(60, 0.1, &[Module::clique(9), Module::clique(7)], 3);
        let config = EnumConfig::default();
        let seq = CliqueEnumerator::new(config).enumerate(&g, &mut CountSink::default());
        let seq_units: u64 = seq.levels.iter().map(|l| l.units).sum();
        for threads in [1, 3, 8] {
            let replay = balancer_replay(&g, config, threads);
            assert_eq!(replay.total_maximal, seq.total_maximal, "threads={threads}");
            assert_eq!(replay.levels.len(), seq.levels.len(), "threads={threads}");
            let units: u64 = replay.run.per_worker_unit_totals().iter().sum();
            assert_eq!(units, seq_units, "threads={threads}");
            assert!(replay
                .run
                .levels
                .iter()
                .all(|l| l.per_worker_units.len() == threads));
        }
    }

    #[test]
    fn tiny_experiments_run() {
        // Smoke-test every experiment at a very small scale.
        for f in [table1 as fn(f64) -> String, fig5, fig6, fig7, fig9] {
            let report = f(0.12);
            assert!(!report.is_empty());
        }
        // Fig. 8 must also keep the paper's balance: per-processor load
        // within 10% of the mean.
        let report = fig8(0.12);
        let worst: f64 = report
            .lines()
            .find_map(|l| l.strip_prefix("worst stddev/mean: "))
            .and_then(|rest| rest.split('%').next())
            .and_then(|pct| pct.parse().ok())
            .expect("fig8 reports its worst spread");
        assert!(
            worst <= 10.0,
            "Fig. 8 spread {worst}% exceeds 10%:\n{report}"
        );
    }
}
