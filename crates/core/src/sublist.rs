//! The k-clique sub-list: the paper's central data structure.
//!
//! "The k-cliques generated from a same (k−1)-clique naturally form a
//! sub-list consisting of the (k−1)-clique with a list of common
//! neighbors of this (k−1)-clique" (§2.3). Storing the shared prefix and
//! its common-neighbor bitmap once per sub-list — instead of once per
//! clique — is what cuts both the memory footprint and the repeated
//! bitwise work.
//!
//! The common-neighbor bitmap is generic over
//! [`NeighborSet`]: the same sub-list works
//! dense or WAH-compressed. The default parameter
//! keeps every pre-trait use (`SubList`, `Level`) meaning the dense
//! representation.

use crate::{Clique, Vertex};
use gsb_bitset::{BitSet, NeighborSet};

/// A group of k-cliques sharing their first (k−1) vertices.
///
/// Structural invariants (checked by [`SubList::validate`]):
/// * `prefix` is strictly ascending;
/// * `tails` is strictly ascending and every tail exceeds the last
///   prefix vertex ("only the common neighbors whose indices \[are\]
///   higher than the index of the (k−1)-th vertex need to be kept");
/// * `cn` is the common-neighbor bitmap of `prefix` over all `n`
///   vertices of the host graph.
#[derive(Clone, Debug)]
pub struct SubList<S = BitSet> {
    /// The shared (k−1)-clique, ascending.
    pub prefix: Vec<Vertex>,
    /// Common neighbors of `prefix` (bitmap over the whole graph).
    pub cn: S,
    /// The k-th vertex of each member clique, ascending.
    pub tails: Vec<Vertex>,
}

impl<S> SubList<S> {
    /// Clique size k of the member cliques.
    pub fn k(&self) -> usize {
        self.prefix.len() + 1
    }

    /// Number of member cliques.
    pub fn len(&self) -> usize {
        self.tails.len()
    }

    /// True when the sub-list holds no cliques.
    pub fn is_empty(&self) -> bool {
        self.tails.is_empty()
    }

    /// Materialize the i-th member clique.
    pub fn clique(&self, i: usize) -> Clique {
        let mut c = self.prefix.clone();
        c.push(self.tails[i]);
        c
    }

    /// Iterate all member cliques (allocates one Vec per clique; for
    /// hot paths use `prefix`/`tails` directly).
    pub fn cliques(&self) -> impl Iterator<Item = Clique> + '_ {
        (0..self.len()).map(|i| self.clique(i))
    }

    /// Estimated expansion cost for load balancing: the pair loop is
    /// quadratic in the tail count.
    pub fn cost(&self) -> u64 {
        let t = self.tails.len() as u64;
        t * t
    }

    /// Bytes of the paper's space formula attributable to this sub-list:
    /// `|tails|·c + (k−1)·c + ⌈n/8⌉ + sizeof(ptr)`. Deliberately
    /// representation-independent — it is the paper's dense cost model,
    /// used for spill budgets and the projection bound.
    pub fn formula_bytes(&self, n: usize) -> usize {
        let c = std::mem::size_of::<Vertex>();
        self.tails.len() * c + self.prefix.len() * c + n.div_ceil(8) + std::mem::size_of::<usize>()
    }
}

impl<S: NeighborSet> SubList<S> {
    /// Actual heap bytes held (representation-dependent: a compressed
    /// `cn` shrinks this, never `formula_bytes`).
    pub fn heap_bytes(&self) -> usize {
        self.prefix.capacity() * std::mem::size_of::<Vertex>()
            + self.tails.capacity() * std::mem::size_of::<Vertex>()
            + self.cn.heap_bytes()
    }

    /// Convert the common-neighbor bitmap to another representation.
    pub fn convert<T: NeighborSet>(&self) -> SubList<T> {
        SubList {
            prefix: self.prefix.clone(),
            cn: T::from_bitset(&self.cn.to_bitset()),
            tails: self.tails.clone(),
        }
    }

    /// Assert the structural invariants (test support).
    pub fn validate(&self, g: &gsb_graph::BitGraph) {
        assert!(
            self.prefix.windows(2).all(|w| w[0] < w[1]),
            "prefix not ascending"
        );
        assert!(
            self.tails.windows(2).all(|w| w[0] < w[1]),
            "tails not ascending"
        );
        if let (Some(&last), Some(&first)) = (self.prefix.last(), self.tails.first()) {
            assert!(first > last, "tail {first} not above prefix end {last}");
        }
        let members: Vec<usize> = self.prefix.iter().map(|&v| v as usize).collect();
        assert!(g.is_clique(&members), "prefix is not a clique");
        let expect = g.common_neighbors(&members);
        assert_eq!(self.cn.to_bitset(), expect, "stale common-neighbor bitmap");
        for &t in &self.tails {
            assert!(
                self.cn.contains(t as usize),
                "tail {t} is not a common neighbor of the prefix"
            );
        }
    }
}

/// All candidate sub-lists of one level (the paper's `L_k`).
#[derive(Clone, Debug)]
pub struct Level<S = BitSet> {
    /// Clique size k of member cliques.
    pub k: usize,
    /// The sub-lists.
    pub sublists: Vec<SubList<S>>,
}

impl<S> Default for Level<S> {
    fn default() -> Self {
        Level {
            k: 0,
            sublists: Vec::new(),
        }
    }
}

impl<S> Level<S> {
    /// The paper's `N[k]`: number of candidate sub-lists.
    pub fn n_sublists(&self) -> usize {
        self.sublists.len()
    }

    /// The paper's `M[k]`: total number of candidate cliques.
    pub fn n_cliques(&self) -> usize {
        self.sublists.iter().map(SubList::len).sum()
    }

    /// True when the level holds no work.
    pub fn is_empty(&self) -> bool {
        self.sublists.is_empty()
    }
}

impl<S: NeighborSet> Level<S> {
    /// Convert every sub-list to another representation.
    pub fn convert<T: NeighborSet>(&self) -> Level<T> {
        Level {
            k: self.k,
            sublists: self.sublists.iter().map(SubList::convert).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsb_graph::BitGraph;

    fn k4_sublist() -> (BitGraph, SubList) {
        let g = BitGraph::complete(4);
        let cn = g.common_neighbors(&[0, 1]);
        (
            g,
            SubList {
                prefix: vec![0, 1],
                cn,
                tails: vec![2, 3],
            },
        )
    }

    #[test]
    fn accessors() {
        let (g, sl) = k4_sublist();
        assert_eq!(sl.k(), 3);
        assert_eq!(sl.len(), 2);
        assert_eq!(sl.clique(0), vec![0, 1, 2]);
        assert_eq!(sl.clique(1), vec![0, 1, 3]);
        assert_eq!(sl.cliques().count(), 2);
        assert_eq!(sl.cost(), 4);
        sl.validate(&g);
    }

    #[test]
    fn formula_bytes_matches_paper_terms() {
        let (g, sl) = k4_sublist();
        // M-term: 2 tails * 4B; N-term: (k-1)=2 prefix * 4B + ceil(4/8)=1
        // + 8B pointer
        assert_eq!(sl.formula_bytes(g.n()), 2 * 4 + 2 * 4 + 1 + 8);
    }

    #[test]
    fn level_counts() {
        let (_, sl) = k4_sublist();
        let level = Level {
            k: 3,
            sublists: vec![sl.clone(), sl],
        };
        assert_eq!(level.n_sublists(), 2);
        assert_eq!(level.n_cliques(), 4);
        assert!(!level.is_empty());
        assert!(Level::<gsb_bitset::BitSet>::default().is_empty());
    }

    #[test]
    fn conversion_roundtrips_across_representations() {
        let (g, sl) = k4_sublist();
        let wah: SubList<gsb_bitset::WahBitSet> = sl.convert();
        wah.validate(&g);
        let back: SubList = wah.convert();
        back.validate(&g);
        assert_eq!(back.cn, sl.cn);
        assert_eq!(back.tails, sl.tails);
    }

    #[test]
    #[should_panic(expected = "stale common-neighbor bitmap")]
    fn validate_catches_bad_cn() {
        let (g, mut sl) = k4_sublist();
        sl.cn = gsb_bitset::BitSet::new(4);
        sl.validate(&g);
    }
}
