//! Per-level memory accounting (the data behind the paper's Fig. 9).
//!
//! §2.3's space analysis: "at each step k, the algorithm would need
//! `M[k]·c + N[k]·((k−1)·c + ⌈n/8⌉)` bytes to hold all the candidate
//! k-cliques, and `N[k]·sizeof(pointers)` more bytes to keep the
//! pointers to the sub-lists", where `c` is the bytes per vertex index.
//! We report both that formula and the bytes the structures actually
//! hold on the heap.

use crate::sublist::{Level, SubList};
use crate::Vertex;
use gsb_bitset::NeighborSet;

/// Memory held by one level of candidate cliques.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LevelMemory {
    /// The paper's `N[k]`.
    pub n_sublists: usize,
    /// The paper's `M[k]`.
    pub n_cliques: usize,
    /// Bytes according to the paper's formula.
    pub formula_bytes: usize,
    /// Bytes actually held on the heap by the structures.
    pub heap_bytes: usize,
}

impl LevelMemory {
    /// Account for one level over an `n`-vertex graph.
    ///
    /// `formula_bytes` uses the paper's dense cost model regardless of
    /// the bitmap representation `S`; `heap_bytes` reflects what `S`
    /// actually holds, so a compressed level reports a smaller heap.
    pub fn account<S: NeighborSet>(level: &Level<S>, n: usize) -> Self {
        let c = std::mem::size_of::<Vertex>();
        let n_sublists = level.n_sublists();
        let n_cliques = level.n_cliques();
        let k = level.k.max(1);
        let formula_bytes = n_cliques * c
            + n_sublists * ((k - 1) * c + n.div_ceil(8))
            + n_sublists * std::mem::size_of::<usize>();
        let heap_bytes = level
            .sublists
            .iter()
            .map(SubList::heap_bytes)
            .sum::<usize>()
            + level.sublists.capacity() * std::mem::size_of::<SubList<S>>();
        LevelMemory {
            n_sublists,
            n_cliques,
            formula_bytes,
            heap_bytes,
        }
    }

    /// Count one more sub-list of a level over an `n`-vertex graph: the
    /// running form of [`account`](Self::account), for a level being
    /// built.
    pub(crate) fn add<S: NeighborSet>(&mut self, sl: &SubList<S>, n: usize) {
        self.n_sublists += 1;
        self.n_cliques += sl.len();
        self.formula_bytes += sl.formula_bytes(n);
        self.heap_bytes += sl.heap_bytes() + std::mem::size_of::<SubList<S>>();
    }

    /// Combined bytes for holding this level and the next
    /// simultaneously — the transient peak of the level step (the paper
    /// reports "607 GB ... to hold new generated (k+1)-cliques and
    /// 404 GB to hold k-cliques").
    pub fn with_next(&self, next: &LevelMemory) -> usize {
        self.formula_bytes + next.formula_bytes
    }

    /// Conservative projection of the *next* level's formula bytes,
    /// before building it.
    ///
    /// The paper's growth bound (§2.3): each sub-list with `t` tails
    /// yields at most `t·(t−1)/2 ≤ (t−1)²` children, but the only
    /// quantity known without expanding is the candidate count, which
    /// satisfies `N[k+1] ≤ M[k] − 2·N[k]` (every child sub-list consumes
    /// a tail pair). We take `N' = M[k] − 2·N[k]` (clamped at 0) for the
    /// sub-list count and `M' ≈ M[k]` for the clique count — a heuristic,
    /// not a bound: dense levels can exceed it. It is meant as a cheap
    /// degradation trigger, not an admission-control guarantee.
    pub fn projected_next_bytes(&self, k: usize, n: usize) -> usize {
        let c = std::mem::size_of::<Vertex>();
        let n_next = self.n_cliques.saturating_sub(2 * self.n_sublists);
        let m_next = self.n_cliques;
        m_next * c + n_next * (k.max(1) * c + n.div_ceil(8)) + n_next * std::mem::size_of::<usize>()
    }

    /// Projected transient peak of the upcoming level step: this level
    /// plus the projected next one, both resident while expanding.
    pub fn projected_peak_bytes(&self, k: usize, n: usize) -> usize {
        self.formula_bytes
            .saturating_add(self.projected_next_bytes(k, n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sublist::SubList;
    use gsb_bitset::BitSet;
    use gsb_graph::BitGraph;

    #[test]
    fn formula_matches_hand_computation() {
        let g = BitGraph::complete(5);
        let cn01 = g.common_neighbors(&[0, 1]);
        let cn02 = g.common_neighbors(&[0, 2]);
        let level = Level {
            k: 3,
            sublists: vec![
                SubList {
                    prefix: vec![0, 1],
                    cn: cn01,
                    tails: vec![2, 3, 4],
                },
                SubList {
                    prefix: vec![0, 2],
                    cn: cn02,
                    tails: vec![3, 4],
                },
            ],
        };
        let mem = LevelMemory::account(&level, 5);
        assert_eq!(mem.n_sublists, 2);
        assert_eq!(mem.n_cliques, 5);
        // M*c = 5*4; N*((k-1)*c + ceil(5/8)) = 2*(2*4+1); N*ptr = 2*8
        assert_eq!(mem.formula_bytes, 20 + 18 + 16);
        assert!(mem.heap_bytes > 0);
    }

    #[test]
    fn empty_level_is_cheap() {
        let mem = LevelMemory::account(
            &Level::<BitSet> {
                k: 4,
                sublists: Vec::new(),
            },
            100,
        );
        assert_eq!(mem.formula_bytes, 0);
        assert_eq!(mem.n_cliques, 0);
    }

    #[test]
    fn with_next_sums() {
        let a = LevelMemory {
            formula_bytes: 100,
            ..Default::default()
        };
        let b = LevelMemory {
            formula_bytes: 50,
            ..Default::default()
        };
        assert_eq!(a.with_next(&b), 150);
    }

    #[test]
    fn projection_is_monotone_and_zero_safe() {
        let empty = LevelMemory::default();
        assert_eq!(empty.projected_next_bytes(3, 100), 0);
        let mem = LevelMemory {
            n_sublists: 2,
            n_cliques: 10,
            formula_bytes: 500,
            heap_bytes: 600,
        };
        // N' = 10 - 4 = 6, M' = 10, c = 4, n = 80 → ceil(80/8) = 10
        // 10*4 + 6*(3*4 + 10) + 6*8 = 40 + 132 + 48
        assert_eq!(mem.projected_next_bytes(3, 80), 220);
        assert_eq!(mem.projected_peak_bytes(3, 80), 720);
        // more sub-lists than pairs: projection clamps to the M' term
        let tight = LevelMemory {
            n_sublists: 10,
            n_cliques: 10,
            ..Default::default()
        };
        assert_eq!(tight.projected_next_bytes(3, 80), 40);
    }

    #[test]
    fn bitset_dominates_for_large_n() {
        // For genome-scale n the per-sub-list ceil(n/8) bitmap dominates,
        // which is why the paper keeps one per sub-list, not per clique.
        let n = 12_422;
        let g = BitGraph::new(n);
        let level = Level {
            k: 3,
            sublists: vec![SubList {
                prefix: vec![0, 1],
                cn: BitSet::new(n),
                tails: vec![2, 3],
            }],
        };
        let _ = g;
        let mem = LevelMemory::account(&level, n);
        assert!(mem.formula_bytes > n / 8);
        assert!(mem.formula_bytes < n); // but only once, not per clique
    }
}
