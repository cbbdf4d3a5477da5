//! Cross-crate property tests on arbitrary graphs: the pipeline facade,
//! both maximum-clique routes, paraclique containment, and the memory
//! accounting identities. Each property is a seeded sweep over 40
//! graphs.

use gsb::core::memory::LevelMemory;
use gsb::core::sink::CollectSink;
use gsb::core::sublist::Level;
use gsb::core::{maximum_clique, CliquePipeline};
use gsb::fpt::maximum_clique_via_vc;
use gsb::fpt::vc::{is_vertex_cover, minimum_vertex_cover};
use gsb::graph::BitGraph;
use gsb_rng::{sweep, SplitMix64};
use std::sync::Arc;

const N: usize = 16;
const CASES: u64 = 40;

/// A graph on `N` vertices, each edge present with probability 1/2.
fn arb_graph(rng: &mut SplitMix64) -> BitGraph {
    let mut g = BitGraph::new(N);
    for u in 0..N {
        for v in u + 1..N {
            if rng.chance(0.5) {
                g.add_edge(u, v);
            }
        }
    }
    g
}

#[test]
fn maxclique_routes_and_pipeline_agree() {
    sweep(CASES, |rng| {
        let g = arb_graph(rng);
        let direct = maximum_clique(&g).len();
        let via_vc = maximum_clique_via_vc(&g).len();
        assert_eq!(direct, via_vc);
        let mut sink = CollectSink::default();
        let report = CliquePipeline::new()
            .min_size(1)
            .run(&Arc::new(g), &mut sink);
        assert_eq!(report.maximum_clique, Some(direct));
        let biggest = sink.cliques.iter().map(Vec::len).max().unwrap_or(0);
        assert_eq!(biggest, direct);
    });
}

#[test]
fn vc_complement_identity() {
    sweep(CASES, |rng| {
        let g = arb_graph(rng);
        // |min VC| + |max IS| = n, and the clique complement identity
        let cover = minimum_vertex_cover(&g);
        assert!(is_vertex_cover(&g, &cover));
        let clique_in_complement = maximum_clique(&g.complement()).len();
        assert_eq!(cover.len() + clique_in_complement, N);
    });
}

#[test]
fn paraclique_contains_seed_and_stays_dense() {
    sweep(CASES, |rng| {
        let g = arb_graph(rng);
        // Glom factor in [0.7, 1.0]; every fourth case takes the closed
        // end, 1.0, whose result must stay a clique.
        let pct = if rng.below(4) == 0 {
            1.0
        } else {
            0.7 + 0.3 * rng.unit()
        };
        let seed = maximum_clique(&g);
        if seed.is_empty() {
            return;
        }
        let pc = gsb::core::paraclique::paraclique(&g, &seed, pct);
        for v in &seed {
            assert!(pc.contains(v));
        }
        if pct == 1.0 {
            let vs: Vec<usize> = pc.iter().map(|&v| v as usize).collect();
            assert!(g.is_clique(&vs));
        }
    });
}

#[test]
fn memory_formula_is_additive_over_sublists() {
    sweep(CASES, |rng| {
        use gsb::core::kclique::seed_level;
        let g = arb_graph(rng);
        let (level, _) = seed_level::<gsb::bitset::BitSet>(&g, 3);
        let mem = LevelMemory::account(&level, g.n());
        let by_hand: usize = level
            .sublists
            .iter()
            .map(|sl| sl.formula_bytes(g.n()))
            .sum();
        assert_eq!(mem.formula_bytes, by_hand);
        assert_eq!(mem.n_cliques, level.n_cliques());
        let empty = LevelMemory::account(
            &Level::<gsb::bitset::BitSet> {
                k: 4,
                sublists: vec![],
            },
            g.n(),
        );
        assert_eq!(empty.formula_bytes, 0);
    });
}

#[test]
fn graph_stack_votes_bound_each_other() {
    sweep(CASES, |rng| {
        use gsb::graph::ops::{intersection, union, GraphStack};
        let (g1, g2, g3) = (arb_graph(rng), arb_graph(rng), arb_graph(rng));
        let u = union(&g1, &union(&g2, &g3));
        let i = intersection(&g1, &intersection(&g2, &g3));
        let stack = GraphStack::from_graphs(vec![g1, g2, g3]);
        assert_eq!(stack.at_least(1), u);
        assert_eq!(stack.at_least(3), i);
        let mid = stack.at_least(2);
        for (a, b) in mid.edges() {
            assert!(stack.support(a, b) >= 2);
        }
    });
}
