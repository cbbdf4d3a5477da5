//! Affected-neighborhood subproblems for dynamic clique maintenance.
//!
//! Das et al. (*Shared-Memory Parallel Maximal Clique Enumeration from
//! Static and Dynamic Graphs*) observe that after an edge edit the
//! maximal-clique set changes only inside the edited edge's
//! neighborhood: adding `{u, v}` creates exactly the cliques
//! `{u, v} ∪ M` for each maximal clique `M` of the subgraph induced by
//! `N(u) ∩ N(v)`, and subsumes exactly the cliques `M ∪ {u}` and
//! `M ∪ {v}` that were maximal without the edge. This module builds
//! that induced subproblem, solves it with the per-root pivoted
//! Bron–Kerbosch search that also builds every index
//! ([`rooted::maximal_cliques`]) and maps vertex ids back to the host
//! graph.
//!
//! Pivoting matters here. An edit inside a large clique makes the
//! subproblem itself a clique of ω − 2 vertices: the levelwise
//! [`CliqueEnumerator`](crate::CliqueEnumerator) walks all 2^(ω−2) of
//! its sub-cliques, while pivoted BK descends one branch per vertex.
//! The per-root search emits the enumerator's canonical (size, then
//! lexicographic) order, and the map back to host ids keeps vertex
//! order, so callers see the enumerator's list; the tests check that
//! against the enumerator on seeded graphs.

use crate::rooted;
use crate::sink::CollectSink;
use crate::{Clique, Vertex};
use gsb_bitset::BitSet;
use gsb_graph::BitGraph;

/// All maximal cliques (of every size, including isolated-vertex
/// singletons) of the subgraph of `g` induced by `keep`, expressed in
/// `g`'s vertex ids and each sorted ascending, in canonical (size, then
/// lexicographic) order.
pub fn maximal_cliques_induced(g: &BitGraph, keep: &BitSet) -> Vec<Clique> {
    let (sub, map) = g.induced(keep);
    let mut sink = CollectSink::default();
    rooted::maximal_cliques(&sub, 1, None, 1, &mut sink);
    // `induced` assigns new labels in ascending old-id order, so the
    // canonical stream stays canonical once mapped back.
    let mut cliques = sink.cliques;
    for v in cliques.iter_mut().flatten() {
        *v = map[*v as usize] as Vertex;
    }
    cliques
}

/// The maximal cliques `M` of the subgraph of `g` induced by
/// `N(u) ∩ N(v)`, or `[∅]` when that neighborhood is empty; each
/// sorted ascending. The common neighborhood is the same whether or
/// not `{u, v}` is an edge, and toggling the edge moves the
/// maximal-clique set between exactly two families built from these:
/// the cliques `M ∪ {u, v}`, maximal with the edge, and the cliques
/// `M ∪ {u}` / `M ∪ {v}` that are maximal without it.
pub fn common_neighborhood_cliques(g: &BitGraph, u: usize, v: usize) -> Vec<Clique> {
    let cn = g.common_neighbors(&[u, v]);
    if cn.none() {
        return vec![Clique::new()];
    }
    maximal_cliques_induced(g, &cn)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerator::{CliqueEnumerator, EnumConfig};
    use gsb_graph::generators::{planted, Module};

    fn naive_maximal(g: &BitGraph) -> Vec<Clique> {
        // brute force over all subsets (test graphs are tiny)
        let n = g.n();
        let mut out = Vec::new();
        for mask in 1u32..(1 << n) {
            let vs: Vec<usize> = (0..n).filter(|&v| mask & (1 << v) != 0).collect();
            if g.is_clique(&vs) && g.is_maximal_clique(&vs) {
                out.push(vs.iter().map(|&v| v as Vertex).collect());
            }
        }
        out.sort_by(|a: &Clique, b: &Clique| a.len().cmp(&b.len()).then(a.cmp(b)));
        out
    }

    #[test]
    fn induced_matches_naive() {
        let g = BitGraph::from_edges(
            8,
            [
                (0, 1),
                (0, 2),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (3, 5),
                (5, 6),
            ],
        );
        let mut keep = BitSet::new(8);
        for v in [0, 1, 2, 3, 4, 5] {
            keep.insert(v);
        }
        let got = maximal_cliques_induced(&g, &keep);
        let (sub, map) = g.induced(&keep);
        let want: Vec<Clique> = naive_maximal(&sub)
            .into_iter()
            .map(|c| c.iter().map(|&v| map[v as usize] as Vertex).collect())
            .collect();
        let mut got_sorted = got.clone();
        got_sorted.sort_by(|a, b| a.len().cmp(&b.len()).then(a.cmp(b)));
        assert_eq!(got_sorted, want);
        // isolated vertices of the induced subgraph appear as singletons
        let mut keep = BitSet::new(8);
        keep.insert(7);
        assert_eq!(maximal_cliques_induced(&g, &keep), vec![vec![7]]);
    }

    #[test]
    fn common_neighborhood_cliques_with_and_without_the_edge() {
        // triangle 0-1-2 plus pendant 3 on vertex 2
        let mut g = BitGraph::from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)]);
        // {1, 3}: common neighborhood {2} → M = {2}, either way
        assert_eq!(common_neighborhood_cliques(&g, 1, 3), vec![vec![2]]);
        g.add_edge(1, 3);
        assert_eq!(common_neighborhood_cliques(&g, 3, 1), vec![vec![2]]);
        // {0, 3} after that: common neighborhood {1, 2}, one edge
        assert_eq!(common_neighborhood_cliques(&g, 0, 3), vec![vec![1, 2]]);
        // no common neighbor at all: the single empty clique
        let h = BitGraph::from_edges(3, [(0, 2)]);
        assert_eq!(common_neighborhood_cliques(&h, 2, 0), vec![Clique::new()]);
    }

    /// The levelwise Clique Enumerator's answer for the same induced
    /// subgraph: its emission order is the canonical one.
    fn enumerator_induced(g: &BitGraph, keep: &BitSet) -> Vec<Clique> {
        let (sub, map) = g.induced(keep);
        let mut sink = CollectSink::default();
        if sub.n() > 0 {
            let config = EnumConfig {
                min_k: 1,
                max_k: None,
                record_costs: false,
            };
            CliqueEnumerator::new(config).enumerate(&sub, &mut sink);
        }
        for c in &mut sink.cliques {
            for v in c.iter_mut() {
                *v = map[*v as usize] as Vertex;
            }
        }
        sink.cliques
    }

    #[test]
    fn seeded_sweep_matches_the_enumerator_in_order() {
        gsb_rng::sweep(150, |rng| {
            let n = 4 + rng.below(33);
            let modules: Vec<Module> = (0..rng.below(3))
                .map(|_| Module::clique(3 + rng.below(n.min(12) - 2)))
                .collect();
            let g = planted(n, 0.1 + 0.6 * rng.unit(), &modules, rng.next_u64());
            // The whole graph, a random subset, and common neighbourhoods
            // of random pairs (what `gsb update` asks for).
            let mut keeps = vec![BitSet::full(n)];
            keeps.push(BitSet::from_ones(n, (0..n).filter(|_| rng.chance(0.6))));
            for _ in 0..4 {
                let (u, v) = (rng.below(n), rng.below(n));
                keeps.push(g.common_neighbors(&[u, v]));
            }
            for keep in &keeps {
                assert_eq!(
                    maximal_cliques_induced(&g, keep),
                    enumerator_induced(&g, keep),
                    "n={n} keep={:?}",
                    keep.iter_ones().collect::<Vec<_>>()
                );
            }
        });
    }
}
