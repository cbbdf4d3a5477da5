//! The [`BitGraph`] type: an undirected simple graph whose adjacency is
//! one bit string per vertex.

use gsb_bitset::BitSet;
use std::fmt;

/// Undirected simple graph over vertices `0..n` with bitmap adjacency.
///
/// ```
/// use gsb_graph::BitGraph;
/// let g = BitGraph::from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)]);
/// assert_eq!(g.degree(2), 3);
/// assert!(g.is_maximal_clique(&[0, 1, 2]));
/// assert_eq!(g.common_neighbors(&[0, 1]).to_vec(), vec![2]);
/// ```
///
/// Invariants (checked in debug builds, preserved by every method):
/// adjacency is symmetric and irreflexive (no self-loops).
#[derive(Clone, PartialEq, Eq)]
pub struct BitGraph {
    adj: Vec<BitSet>,
    m: usize,
}

impl BitGraph {
    /// An edgeless graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        BitGraph {
            adj: (0..n).map(|_| BitSet::new(n)).collect(),
            m: 0,
        }
    }

    /// Build from an edge list; duplicate edges and self-loops are
    /// ignored. Panics on out-of-range endpoints.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let mut g = Self::new(n);
        for (u, v) in edges {
            g.add_edge(u, v);
        }
        g
    }

    /// A graph from its adjacency rows: `rows[v]` is `N(v)` over a
    /// universe of `rows.len()` bits. The rows must be symmetric and
    /// irreflexive (checked in debug builds); panics when a row's
    /// universe is not `rows.len()`.
    pub fn from_rows(rows: Vec<BitSet>) -> Self {
        let n = rows.len();
        assert!(rows.iter().all(|r| r.len() == n), "row universe mismatch");
        let m = rows.iter().map(BitSet::count_ones).sum::<usize>() / 2;
        let g = BitGraph { adj: rows, m };
        #[cfg(debug_assertions)]
        g.validate();
        g
    }

    /// The same graph re-embedded on `n ≥ self.n()` vertices: existing
    /// edges are preserved, the new vertices start isolated. Dynamic
    /// edge additions may name vertices the indexed graph has never
    /// seen; the adjacency bitmaps are fixed-width, so growth copies
    /// each row's words into a wider one. At the same `n` the graph is
    /// returned as it is, with nothing copied; a caller that keeps its
    /// graph clones it first.
    pub fn grown(self, n: usize) -> Self {
        assert!(n >= self.n(), "grown() cannot shrink a graph");
        if n == self.n() {
            return self;
        }
        let adj = (0..n)
            .map(|v| {
                let mut words = vec![0u64; gsb_bitset::words_for(n)];
                if let Some(old) = self.adj.get(v) {
                    words[..old.words().len()].copy_from_slice(old.words());
                }
                BitSet::from_words(n, words)
            })
            .collect();
        BitGraph { adj, m: self.m }
    }

    /// A complete graph on `n` vertices.
    pub fn complete(n: usize) -> Self {
        let mut g = Self::new(n);
        for u in 0..n {
            for v in u + 1..n {
                g.add_edge(u, v);
            }
        }
        g
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.adj.len()
    }

    /// Number of edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Edge density: `m / (n choose 2)`; zero for graphs with fewer than
    /// two vertices.
    pub fn density(&self) -> f64 {
        let n = self.n();
        if n < 2 {
            return 0.0;
        }
        self.m as f64 / (n as f64 * (n as f64 - 1.0) / 2.0)
    }

    /// Insert edge `{u, v}`. Returns whether it was new. Self-loops are
    /// ignored (returns false).
    pub fn add_edge(&mut self, u: usize, v: usize) -> bool {
        assert!(u < self.n() && v < self.n(), "vertex out of range");
        if u == v {
            return false;
        }
        let new = self.adj[u].insert(v);
        self.adj[v].insert(u);
        if new {
            self.m += 1;
        }
        new
    }

    /// Remove edge `{u, v}`. Returns whether it existed.
    pub fn remove_edge(&mut self, u: usize, v: usize) -> bool {
        assert!(u < self.n() && v < self.n(), "vertex out of range");
        if u == v {
            return false;
        }
        let had = self.adj[u].remove(v);
        self.adj[v].remove(u);
        if had {
            self.m -= 1;
        }
        had
    }

    /// Is `{u, v}` an edge?
    #[inline]
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.adj[u].contains(v)
    }

    /// The neighborhood of `v` as a bit string (the paper's `Neighbors(G, v)`).
    #[inline]
    pub fn neighbors(&self, v: usize) -> &BitSet {
        &self.adj[v]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        self.adj[v].count_ones()
    }

    /// Iterator over all vertices.
    pub fn vertices(&self) -> std::ops::Range<usize> {
        0..self.n()
    }

    /// Iterator over edges `(u, v)` with `u < v`, lexicographic.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.vertices().flat_map(move |u| {
            self.adj[u]
                .iter_ones()
                .skip_while(move |&v| v <= u)
                .map(move |v| (u, v))
        })
    }

    /// Are all given vertices pairwise adjacent? (Clique test.)
    pub fn is_clique(&self, vs: &[usize]) -> bool {
        vs.iter()
            .enumerate()
            .all(|(i, &u)| vs[i + 1..].iter().all(|&v| self.has_edge(u, v)))
    }

    /// Common neighbors of a vertex set: `⋀ N(v)`, minus the set itself.
    /// For the empty set this is every vertex. This is the paper's
    /// "common neighbors of a clique" bitmap.
    pub fn common_neighbors(&self, vs: &[usize]) -> BitSet {
        let mut cn = BitSet::full(self.n());
        for &v in vs {
            cn.and_assign(&self.adj[v]);
        }
        for &v in vs {
            cn.remove(v);
        }
        cn
    }

    /// Is the vertex set a *maximal* clique? (Pairwise adjacent and no
    /// common neighbor — one AND-chain plus an any-bit test.)
    pub fn is_maximal_clique(&self, vs: &[usize]) -> bool {
        self.is_clique(vs) && self.common_neighbors(vs).none()
    }

    /// The complement graph (no self-loops).
    pub fn complement(&self) -> BitGraph {
        let n = self.n();
        let mut adj: Vec<BitSet> = Vec::with_capacity(n);
        let mut m = 0;
        for v in 0..n {
            let mut row = self.adj[v].clone();
            row.not_assign();
            row.remove(v);
            m += row.count_ones();
            adj.push(row);
        }
        BitGraph { adj, m: m / 2 }
    }

    /// Induced subgraph on `keep` (given as a bitmap over this graph's
    /// vertices). Returns the subgraph and the map from new vertex ids to
    /// original ids (sorted ascending, so relative order is preserved).
    pub fn induced(&self, keep: &BitSet) -> (BitGraph, Vec<usize>) {
        assert_eq!(keep.len(), self.n(), "universe mismatch");
        let old_ids: Vec<usize> = keep.iter_ones().collect();
        let mut new_id = vec![usize::MAX; self.n()];
        for (ni, &oi) in old_ids.iter().enumerate() {
            new_id[oi] = ni;
        }
        let k = old_ids.len();
        let mut g = BitGraph::new(k);
        for (ni, &oi) in old_ids.iter().enumerate() {
            for oj in self.adj[oi].and(keep).iter_ones() {
                let nj = new_id[oj];
                if nj > ni {
                    g.add_edge(ni, nj);
                }
            }
        }
        (g, old_ids)
    }

    /// Relabel vertices by `perm`, where `perm[new] = old`. Panics unless
    /// `perm` is a permutation of `0..n`.
    pub fn relabeled(&self, perm: &[usize]) -> BitGraph {
        let n = self.n();
        assert_eq!(perm.len(), n, "permutation length mismatch");
        let mut inv = vec![usize::MAX; n];
        for (new, &old) in perm.iter().enumerate() {
            assert!(old < n && inv[old] == usize::MAX, "not a permutation");
            inv[old] = new;
        }
        let mut g = BitGraph::new(n);
        for (u, v) in self.edges() {
            g.add_edge(inv[u], inv[v]);
        }
        g
    }

    /// Heap bytes of the adjacency bitmaps (for memory accounting).
    pub fn heap_bytes(&self) -> usize {
        self.adj.iter().map(BitSet::heap_bytes).sum::<usize>()
            + self.adj.capacity() * std::mem::size_of::<BitSet>()
    }

    /// Debug-only structural validation: symmetry, irreflexivity, edge
    /// count. Cheap enough for tests on any graph used there.
    pub fn validate(&self) {
        let mut m = 0;
        for u in self.vertices() {
            assert!(!self.adj[u].contains(u), "self-loop at {u}");
            for v in self.adj[u].iter_ones() {
                assert!(self.adj[v].contains(u), "asymmetric edge ({u},{v})");
                if u < v {
                    m += 1;
                }
            }
        }
        assert_eq!(m, self.m, "edge count drift");
    }
}

impl fmt::Debug for BitGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitGraph(n={}, m={})", self.n(), self.m())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path4() -> BitGraph {
        BitGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)])
    }

    #[test]
    fn add_remove_edges() {
        let mut g = BitGraph::new(3);
        assert!(g.add_edge(0, 1));
        assert!(!g.add_edge(1, 0)); // duplicate, reversed
        assert!(!g.add_edge(1, 1)); // self-loop ignored
        assert_eq!(g.m(), 1);
        assert!(g.has_edge(0, 1) && g.has_edge(1, 0));
        assert!(g.remove_edge(0, 1));
        assert!(!g.remove_edge(0, 1));
        assert_eq!(g.m(), 0);
        g.validate();
    }

    #[test]
    fn degrees_and_density() {
        let g = path4();
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
        assert!((g.density() - 0.5).abs() < 1e-12);
        assert_eq!(BitGraph::new(1).density(), 0.0);
    }

    #[test]
    fn edges_lexicographic() {
        let g = path4();
        assert_eq!(g.edges().collect::<Vec<_>>(), vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn complete_graph() {
        let g = BitGraph::complete(5);
        assert_eq!(g.m(), 10);
        assert!(g.is_clique(&[0, 1, 2, 3, 4]));
        assert!(g.is_maximal_clique(&[0, 1, 2, 3, 4]));
        assert!(!g.is_maximal_clique(&[0, 1]));
        g.validate();
    }

    #[test]
    fn common_neighbors_matches_paper_fig2() {
        // K4 minus nothing: CN(a,b) = {c,d}; CN(a,b,c) = {d}; CN(K4) = {}.
        let g = BitGraph::complete(4);
        assert_eq!(g.common_neighbors(&[0, 1]).to_vec(), vec![2, 3]);
        assert_eq!(g.common_neighbors(&[0, 1, 2]).to_vec(), vec![3]);
        assert!(g.common_neighbors(&[0, 1, 2, 3]).none());
        assert_eq!(g.common_neighbors(&[]).count_ones(), 4);
    }

    #[test]
    fn grown_keeps_edges_across_word_boundaries() {
        for (from, to) in [(5, 5), (5, 7), (63, 66), (64, 65), (127, 130)] {
            let g =
                BitGraph::from_edges(from, (1..from).map(|v| (v - 1, v)).chain([(0, from - 1)]));
            let h = g.clone().grown(to);
            h.validate();
            assert_eq!((h.n(), h.m()), (to, g.m()));
            assert!((0..from).all(|u| (0..from).all(|v| h.has_edge(u, v) == g.has_edge(u, v))));
            assert!((from..to).all(|v| h.degree(v) == 0));
            assert_eq!(
                BitGraph::from_rows((0..to).map(|v| h.neighbors(v).clone()).collect()),
                h
            );
        }
    }

    #[test]
    fn complement_involutive() {
        let g = path4();
        let c = g.complement();
        c.validate();
        assert_eq!(c.m(), 6 - 3);
        assert!(c.has_edge(0, 2) && c.has_edge(0, 3) && c.has_edge(1, 3));
        assert_eq!(c.complement(), g);
    }

    #[test]
    fn induced_subgraph_remaps() {
        let g = BitGraph::from_edges(5, [(0, 1), (1, 3), (3, 4), (0, 4)]);
        let keep = BitSet::from_ones(5, [0, 3, 4]);
        let (h, ids) = g.induced(&keep);
        assert_eq!(ids, vec![0, 3, 4]);
        assert_eq!(h.n(), 3);
        // surviving edges: (3,4) -> (1,2), (0,4) -> (0,2)
        assert_eq!(h.m(), 2);
        assert!(h.has_edge(1, 2) && h.has_edge(0, 2) && !h.has_edge(0, 1));
        h.validate();
    }

    #[test]
    fn relabel_roundtrip() {
        let g = path4();
        let perm = vec![3, 2, 1, 0]; // reverse
        let h = g.relabeled(&perm);
        h.validate();
        assert_eq!(h.m(), g.m());
        assert!(h.has_edge(3, 2) && h.has_edge(2, 1) && h.has_edge(1, 0));
        assert_eq!(h.relabeled(&perm), g.relabeled(&[0, 1, 2, 3]));
    }

    #[test]
    fn is_clique_checks_all_pairs() {
        let g = path4();
        assert!(g.is_clique(&[0, 1]));
        assert!(!g.is_clique(&[0, 1, 2]));
        assert!(g.is_clique(&[2]));
        assert!(g.is_clique(&[]));
    }
}
