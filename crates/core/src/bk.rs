//! Bron–Kerbosch maximal clique enumeration: Base and Improved variants.
//!
//! §2.2 of the paper: both algorithms do a depth-first traversal over
//! the sets COMPSUB (clique in progress), CANDIDATES (extenders still to
//! try), and NOT (extenders already tried higher up). Base BK takes
//! candidates in presentation order; Improved BK picks a pivot with the
//! most connections into CANDIDATES and only branches on candidates not
//! adjacent to it. Neither emits cliques in size order — that is the
//! Clique Enumerator's reason to exist — but they are the trusted
//! references the rest of the crate is validated against, called only
//! by tests and benches ([`rooted`](crate::rooted) serves the CLI).

use crate::sink::CliqueSink;
use crate::Vertex;
use gsb_bitset::BitSet;
use gsb_graph::BitGraph;

/// Enumerate all maximal cliques with Base BK (candidate order =
/// ascending vertex index).
pub fn base_bk(g: &BitGraph, sink: &mut impl CliqueSink) {
    let n = g.n();
    if n == 0 {
        return;
    }
    let mut compsub = Vec::new();
    let candidates = BitSet::full(n);
    let not = BitSet::new(n);
    extend_base(g, &mut compsub, candidates, not, sink);
}

fn extend_base(
    g: &BitGraph,
    compsub: &mut Vec<Vertex>,
    mut candidates: BitSet,
    mut not: BitSet,
    sink: &mut impl CliqueSink,
) {
    while let Some(v) = candidates.first_one() {
        candidates.remove(v);
        compsub.push(v as Vertex);
        let new_candidates = candidates.and(g.neighbors(v));
        let new_not = not.and(g.neighbors(v));
        if new_candidates.none() && new_not.none() {
            sink.maximal(compsub);
        } else {
            extend_base(g, compsub, new_candidates, new_not, sink);
        }
        compsub.pop();
        not.insert(v);
    }
}

/// Enumerate all maximal cliques with Improved BK (pivoting).
pub fn improved_bk(g: &BitGraph, sink: &mut impl CliqueSink) {
    let n = g.n();
    if n == 0 {
        return;
    }
    let mut compsub = Vec::new();
    let candidates = BitSet::full(n);
    let not = BitSet::new(n);
    extend_improved(g, &mut compsub, candidates, not, sink);
}

fn extend_improved(
    g: &BitGraph,
    compsub: &mut Vec<Vertex>,
    mut candidates: BitSet,
    mut not: BitSet,
    sink: &mut impl CliqueSink,
) {
    if candidates.none() && not.none() {
        sink.maximal(compsub);
        return;
    }
    // Pivot: the vertex of CANDIDATES ∪ NOT with the most connections to
    // the remaining CANDIDATES; only candidates outside its neighborhood
    // can lead to cliques the pivot's branch would miss.
    let pivot = candidates
        .iter_ones()
        .chain(not.iter_ones())
        .max_by_key(|&p| (g.neighbors(p).count_and(&candidates), usize::MAX - p))
        .expect("candidates or not nonempty");
    let branch = candidates.and_not(g.neighbors(pivot));
    for v in branch.iter_ones() {
        candidates.remove(v);
        compsub.push(v as Vertex);
        let new_candidates = candidates.and(g.neighbors(v));
        let new_not = not.and(g.neighbors(v));
        extend_improved(g, compsub, new_candidates, new_not, sink);
        compsub.pop();
        not.insert(v);
    }
}

/// Collect all maximal cliques with Base BK, each sorted, the whole set
/// sorted lexicographically (canonical form for comparisons in tests).
pub fn base_bk_sorted(g: &BitGraph) -> Vec<Vec<Vertex>> {
    let mut sink = crate::sink::CollectSink::default();
    base_bk(g, &mut sink);
    let mut cliques = sink.cliques;
    for c in &mut cliques {
        c.sort_unstable();
    }
    cliques.sort();
    cliques
}

/// Collect all maximal cliques with Improved BK, canonicalized.
pub fn improved_bk_sorted(g: &BitGraph) -> Vec<Vec<Vertex>> {
    let mut sink = crate::sink::CollectSink::default();
    improved_bk(g, &mut sink);
    let mut cliques = sink.cliques;
    for c in &mut cliques {
        c.sort_unstable();
    }
    cliques.sort();
    cliques
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsb_graph::generators::gnp;

    #[test]
    fn k3_single_clique() {
        let g = BitGraph::complete(3);
        assert_eq!(base_bk_sorted(&g), vec![vec![0, 1, 2]]);
        assert_eq!(improved_bk_sorted(&g), vec![vec![0, 1, 2]]);
    }

    #[test]
    fn path_cliques_are_edges() {
        let g = BitGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        let expect = vec![vec![0, 1], vec![1, 2], vec![2, 3]];
        assert_eq!(base_bk_sorted(&g), expect);
        assert_eq!(improved_bk_sorted(&g), expect);
    }

    #[test]
    fn isolated_vertices_are_maximal_1_cliques() {
        let g = BitGraph::from_edges(3, [(0, 1)]);
        assert_eq!(base_bk_sorted(&g), vec![vec![0, 1], vec![2]]);
        assert_eq!(improved_bk_sorted(&g), vec![vec![0, 1], vec![2]]);
    }

    #[test]
    fn empty_graph() {
        let g = BitGraph::new(0);
        assert!(base_bk_sorted(&g).is_empty());
        assert!(improved_bk_sorted(&g).is_empty());
        // edgeless graph: every vertex is a maximal 1-clique
        let g = BitGraph::new(3);
        assert_eq!(base_bk_sorted(&g).len(), 3);
    }

    #[test]
    fn moon_moser_extremal_count() {
        // K_{3,3,3} complement-style Moon–Moser graph: 3^(n/3) maximal
        // cliques — the bound the paper cites [25]. n=9 → 27 cliques.
        let mut g = BitGraph::complete(9);
        for part in 0..3 {
            let a = 3 * part;
            g.remove_edge(a, a + 1);
            g.remove_edge(a, a + 2);
            g.remove_edge(a + 1, a + 2);
        }
        assert_eq!(base_bk_sorted(&g).len(), 27);
        assert_eq!(improved_bk_sorted(&g).len(), 27);
    }

    #[test]
    fn variants_agree_on_random_graphs() {
        for seed in 0..8 {
            let g = gnp(28, 0.35, seed);
            assert_eq!(base_bk_sorted(&g), improved_bk_sorted(&g), "seed {seed}");
        }
    }

    #[test]
    fn every_reported_clique_is_maximal() {
        let g = gnp(30, 0.4, 99);
        for c in base_bk_sorted(&g) {
            let vs: Vec<usize> = c.iter().map(|&v| v as usize).collect();
            assert!(g.is_maximal_clique(&vs), "{c:?} not maximal");
        }
    }
}
