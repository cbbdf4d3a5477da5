//! Committed scheduler baseline (`results/BENCH_steal.json`): the
//! paper's level-barrier discipline (LPT on `SubList::cost()` estimates,
//! its centralized planner) vs. the work-stealing runtime (online greedy,
//! no estimates), replayed on 8 virtual processors over *measured*
//! per-sub-list costs from a real sequential run — the same vsim
//! substitution DESIGN.md §2 uses for the Altix scaling figures (on a
//! 2-vCPU host an 8-thread wall clock would measure the OS scheduler,
//! not ours).
//!
//! The workload is a ~10⁴-vertex skewed-degree graph built to have the
//! cost profile that separates the schedulers: seven hub vertices
//! whose sub-lists carry huge tails of mutually non-adjacent periphery
//! vertices (enormous `cost()` estimate, cheap in reality — non-edges
//! skip the bitmap AND) over a denser-than-usual background whose
//! thousands of small sub-lists hold most of the true work. The
//! barrier planner trusts the estimates: one hub per processor, and
//! the entire background funnels onto the single hub-free processor
//! because its estimated load never catches up. The thief-side
//! scheduler needs no estimates and drains both populations evenly.
//!
//! Run from the repo root: `cargo run -p gsb-bench --bin bench_steal`.

use gsb_core::sink::CountSink;
use gsb_core::{CliqueEnumerator, EnumConfig, EnumStats};
use gsb_graph::generators::gnp;
use gsb_graph::BitGraph;
use gsb_par::vsim::{SimConfig, Strategy, VirtualScheduler};
use gsb_par::SimResult;
use std::fmt::Write as _;

/// Virtual processor count the acceptance claim is about.
const PROCS: usize = 8;

/// The skewed-degree workload: a G(n, 0.003) background (median
/// degree ~30 — most of the true level-2 work), six exact 11-cliques
/// (dense structure feeding the deeper levels), and seven mutually
/// non-adjacent hub vertices sharing a 3500-vertex periphery. A hub
/// sub-list's tail holds ~3500 mostly non-adjacent vertices, so its
/// t² estimate (~12M units) towers over the summed estimate of the
/// whole background (~9M) while its true cost is a fraction of the
/// background's: the exact mispricing that makes an estimate-driven
/// plan park one hub per processor and funnel everything else onto
/// the processor left without one.
fn steal_workload() -> BitGraph {
    let n = 10_000;
    let mut g = gnp(n, 0.003, 0xC11A5EED);
    // Exact cliques: vertices [10 + 20·i, 10 + 20·i + 11).
    for module in 0..6usize {
        let base = 10 + 20 * module;
        for i in 0..11 {
            for j in i + 1..11 {
                g.add_edge(base + i, base + j);
            }
        }
    }
    // Hubs 0..7 (not adjacent to each other) over a shared periphery;
    // periphery vertices meet each other only through background
    // edges, so hub tails are overwhelmingly non-adjacent pairs.
    for hub in 0..7usize {
        for p in 200..3_700 {
            g.add_edge(hub, p);
        }
    }
    g
}

/// Sequential measured run: deterministic per-sub-list work units per
/// level, plus the wall-time scale to convert them to nanoseconds.
fn measured_run(g: &BitGraph) -> EnumStats {
    let mut sink = CountSink::default();
    CliqueEnumerator::new(EnumConfig {
        min_k: 3,
        max_k: None,
        record_costs: true,
    })
    .enumerate(g, &mut sink)
}

/// Walk the level loop again collecting `SubList::cost()` — the
/// estimate the paper's barrier planner uses — for every sub-list in
/// the same per-level order the measured run recorded actuals in.
fn planner_estimates(g: &BitGraph) -> Vec<Vec<u64>> {
    let seq = CliqueEnumerator::new(EnumConfig::default());
    let mut sink = CountSink::default();
    let mut stats = EnumStats::default();
    let mut level = seq.init_level(g, &mut sink, &mut stats);
    let mut estimates = Vec::new();
    while !level.sublists.is_empty() {
        estimates.push(level.sublists.iter().map(|sl| sl.cost()).collect());
        let (next, _) = seq.step(g, level, &mut sink);
        level = next;
    }
    estimates
}

fn fractions(r: &SimResult) -> (Vec<f64>, f64) {
    let wall = r.total_ns.max(1) as f64;
    let busy: Vec<f64> = r
        .per_proc_busy_ns
        .iter()
        .map(|&b| b as f64 / wall)
        .collect();
    let max_idle = busy.iter().map(|b| 1.0 - b).fold(0.0f64, f64::max);
    (busy, max_idle)
}

fn scheduler_record(name: &str, r: &SimResult, seq_ns: u64) -> String {
    let (busy, max_idle) = fractions(r);
    let busy_json: Vec<String> = busy.iter().map(|b| format!("{b:.4}")).collect();
    format!(
        "\n    {{\"scheduler\":\"{name}\",\"procs\":{},\"wall_ns\":{},\
         \"speedup_vs_seq\":{:.2},\"per_worker_busy_frac\":[{}],\
         \"max_idle_frac\":{:.4}}}",
        r.procs,
        r.total_ns,
        seq_ns as f64 / r.total_ns.max(1) as f64,
        busy_json.join(","),
        max_idle
    )
}

fn main() -> std::io::Result<()> {
    let g = steal_workload();
    eprintln!("workload: n={}, m={}", g.n(), g.m());
    let stats = measured_run(&g);
    let estimates = planner_estimates(&g);
    let actual_ns = stats.costs_ns().expect("record_costs was set");
    assert_eq!(
        estimates.iter().map(Vec::len).collect::<Vec<_>>(),
        actual_ns.iter().map(Vec::len).collect::<Vec<_>>(),
        "estimate walk and measured run disagree on level shapes"
    );
    let tasks: usize = actual_ns.iter().map(Vec::len).sum();

    // Same sync constants as the Figs. 5-8 replays (experiments.rs):
    // calibrated so the barrier cost is proportionally what the paper's
    // own numbers imply, not the dominant term.
    let sync = SimConfig {
        sync_base_ns: 5_000,
        sync_per_proc_ns: 300,
        strategy: Strategy::Lpt,
    };
    let barrier = VirtualScheduler::with_estimates(
        actual_ns.clone(),
        estimates,
        SimConfig {
            strategy: Strategy::Lpt,
            ..sync
        },
    );
    let steal = VirtualScheduler::new(
        actual_ns,
        SimConfig {
            strategy: Strategy::Steal,
            ..sync
        },
    );
    let seq_ns = barrier.sequential_ns();
    let rb = barrier.run(PROCS);
    let rs = steal.run(PROCS);
    let speedup = rb.total_ns as f64 / rs.total_ns.max(1) as f64;
    let (_, steal_max_idle) = fractions(&rs);
    if std::env::var_os("BENCH_STEAL_LEVELS").is_some() {
        for (li, (b, s)) in rb
            .level_makespan_ns
            .iter()
            .zip(&rs.level_makespan_ns)
            .enumerate()
        {
            eprintln!(
                "level {li:2}: barrier {:>12} ns  steal {:>12} ns  ratio {:.2}",
                b,
                s,
                *b as f64 / (*s).max(1) as f64
            );
        }
    }
    eprintln!(
        "levels={}, tasks={tasks}, T_seq={}ms; barrier {}ms, steal {}ms \
         -> steal is {speedup:.2}x faster; steal max idle {:.1}%",
        stats.levels.len(),
        seq_ns / 1_000_000,
        rb.total_ns / 1_000_000,
        rs.total_ns / 1_000_000,
        100.0 * steal_max_idle
    );

    // The acceptance floor this baseline exists to pin: regressing the
    // steal scheduler (or "improving" the estimate model into these
    // numbers) should fail the bench, not silently shift a JSON field.
    assert!(
        speedup >= 1.5,
        "steal must be >= 1.5x faster than barrier at {PROCS} procs, got {speedup:.2}x"
    );
    assert!(
        steal_max_idle < 0.15,
        "steal max per-worker idle fraction must stay under 15%, got {:.1}%",
        100.0 * steal_max_idle
    );

    let mut body = String::new();
    body.push_str(&scheduler_record("barrier", &rb, seq_ns));
    body.push(',');
    body.push_str(&scheduler_record("steal", &rs, seq_ns));
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\n  \"bench\": \"steal_scheduler\",\n  \"n\": {},\n  \"m\": {},\n  \
         \"levels\": {},\n  \"tasks\": {tasks},\n  \"sequential_ns\": {seq_ns},\n  \
         \"speedup_steal_vs_barrier\": {speedup:.2},\n  \"results\": [{body}\n  ]\n}}\n",
        g.n(),
        g.m(),
        stats.levels.len()
    );
    std::fs::create_dir_all("results")?;
    std::fs::write("results/BENCH_steal.json", json)?;
    println!("wrote results/BENCH_steal.json");
    Ok(())
}
