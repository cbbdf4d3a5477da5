//! The multithreaded Clique Enumerator must be indistinguishable from
//! the sequential one — for every thread count and seeding — and must
//! honor the non-decreasing-size delivery contract. The sequential
//! enumerator is the oracle.

use gsb::core::sink::CollectSink;
use gsb::core::{CliqueEnumerator, EnumConfig, ParallelConfig, ParallelEnumerator};
use gsb::graph::generators::{correlation_like, gnp, planted, CorrelationProfile, Module};
use gsb::graph::BitGraph;
use std::sync::Arc;

fn workload(seed: u64) -> BitGraph {
    let mut profile = CorrelationProfile::myogenic_like(160);
    profile.max_module = 11;
    correlation_like(&profile, seed)
}

fn sequential(g: &BitGraph, config: EnumConfig) -> Vec<Vec<u32>> {
    let mut sink = CollectSink::default();
    CliqueEnumerator::new(config).enumerate(g, &mut sink);
    let mut v = sink.cliques;
    v.sort();
    v
}

fn parallel(g: &Arc<BitGraph>, threads: usize, config: EnumConfig) -> Vec<Vec<u32>> {
    let mut v = parallel_ordered(g, threads, config);
    v.sort();
    v
}

/// Sequential emission order, unsorted: the byte-identity reference.
fn sequential_ordered(g: &BitGraph, config: EnumConfig) -> Vec<Vec<u32>> {
    let mut sink = CollectSink::default();
    CliqueEnumerator::new(config).enumerate(g, &mut sink);
    sink.cliques
}

/// Parallel emission order, unsorted.
fn parallel_ordered(g: &Arc<BitGraph>, threads: usize, config: EnumConfig) -> Vec<Vec<u32>> {
    let mut sink = CollectSink::default();
    ParallelEnumerator::new(ParallelConfig {
        threads,
        enum_config: config,
        ..Default::default()
    })
    .enumerate(g, &mut sink);
    sink.cliques
}

#[test]
fn all_thread_counts_match_sequential() {
    let g = workload(1);
    let config = EnumConfig::default();
    let expect = sequential(&g, config);
    let garc = Arc::new(g);
    for threads in [1, 2, 3, 4, 7, 8, 16] {
        assert_eq!(
            parallel(&garc, threads, config),
            expect,
            "threads {threads}"
        );
    }
}

#[test]
fn seeded_parallel_matches_sequential() {
    let g = workload(3);
    for min_k in [5, 7] {
        let config = EnumConfig {
            min_k,
            ..Default::default()
        };
        let expect = sequential(&g, config);
        let garc = Arc::new(g.clone());
        assert_eq!(parallel(&garc, 4, config), expect, "min_k {min_k}");
    }
}

#[test]
fn parallel_delivery_is_size_ordered_and_duplicate_free() {
    let g = Arc::new(workload(4));
    let mut sink = CollectSink::default();
    ParallelEnumerator::new(ParallelConfig {
        threads: 4,
        ..Default::default()
    })
    .enumerate(&g, &mut sink);
    let sizes: Vec<usize> = sink.cliques.iter().map(Vec::len).collect();
    assert!(sizes.windows(2).all(|w| w[0] <= w[1]), "{sizes:?}");
    let mut dedup = sink.cliques.clone();
    dedup.sort();
    dedup.dedup();
    assert_eq!(dedup.len(), sink.cliques.len());
}

#[test]
fn repeated_runs_are_deterministic_in_content() {
    let g = Arc::new(workload(5));
    let config = EnumConfig::default();
    let a = parallel(&g, 4, config);
    let b = parallel(&g, 4, config);
    assert_eq!(a, b);
}

/// The level-order contract: steal-scheduled output is byte-identical
/// (same cliques, same emission order) to the sequential enumerator
/// across 100 seeded random graphs and every thread count — plus
/// graphs of 200–600 vertices, whose levels are wide enough that each
/// steal run holds many sub-lists.
#[test]
fn steal_output_is_byte_identical_to_sequential_on_random_graphs() {
    let config = EnumConfig::default();
    // Vary size and density with the seed so the sweep crosses sparse,
    // dense, and mid-range regimes.
    let small = (0..100u64).map(|seed| {
        let n = 24 + (seed % 5) as usize * 8;
        let p = 0.08 + (seed % 7) as f64 * 0.04;
        (seed, n, p, &[1usize, 4, 8][..])
    });
    let wide = (100..108u64).map(|seed| {
        let n = 200 + (seed % 5) as usize * 100;
        let p = 0.02 + (seed % 4) as f64 * 0.02;
        (seed, n, p, &[2usize, 3][..])
    });
    for (seed, n, p, thread_counts) in small.chain(wide) {
        let g = Arc::new(gnp(n, p, seed));
        let expect = sequential_ordered(&g, config);
        for &threads in thread_counts {
            let got = parallel_ordered(&g, threads, config);
            assert_eq!(
                got, expect,
                "seed {seed} (n={n}, p={p:.2}), threads {threads}: emission order diverged"
            );
        }
    }
}

/// Adversarial skew: one planted module makes a single sub-list ~100x
/// heavier than the background ones, so nearly all the work sits on
/// one task. Thieves must drain around it without perturbing the
/// emitted order.
#[test]
fn steal_output_is_byte_identical_under_extreme_sublist_skew() {
    let config = EnumConfig::default();
    // 0.004 background on 220 vertices: background sub-lists hold a
    // handful of candidates, while clique(14)'s prefix sub-list
    // carries thousands of bitmap words — two orders of magnitude
    // heavier.
    let g = Arc::new(planted(220, 0.004, &[Module::clique(14)], 77));
    let expect = sequential_ordered(&g, config);
    assert!(expect.iter().any(|c| c.len() == 14), "module not planted");
    for threads in [1usize, 4, 8] {
        let got = parallel_ordered(&g, threads, config);
        assert_eq!(got, expect, "threads {threads}");
    }
}

#[test]
fn balancer_reports_transfers_under_skew() {
    // A workload with one dominating module forces the scheduler to
    // move work off the overloaded thread at some level.
    let g = Arc::new(gsb::graph::generators::planted(
        200,
        0.005,
        &[gsb::graph::generators::Module::clique(13)],
        9,
    ));
    let mut sink = CollectSink::default();
    let stats = ParallelEnumerator::new(ParallelConfig {
        threads: 4,
        ..Default::default()
    })
    .enumerate(&g, &mut sink);
    assert!(
        stats.run.total_transfers() > 0,
        "expected at least one load transfer"
    );
    // and the per-worker unit loads stay within a sane spread
    let loads = stats.run.per_worker_unit_totals();
    let mean = gsb::par::stats::mean(&loads);
    let sd = gsb::par::stats::stddev(&loads);
    assert!(sd <= mean, "wildly unbalanced: mean {mean}, sd {sd}");
}
