//! Maximal cliques by pivoted Bron–Kerbosch per root vertex, emitted in
//! the Clique Enumerator's canonical (size, then lexicographic) order.
//!
//! Every maximal clique has one smallest vertex, its *root*. Root `r`
//! solves Bron–Kerbosch with `R = {r}`, `P = {u ∈ N(r) : u > r}` and
//! `X = {u ∈ N(r) : u < r}`, so it reports exactly the maximal cliques
//! whose smallest vertex is `r`: each clique once, at its root (Das et
//! al.'s ParMCE decomposition, with Tomita pivoting).
//!
//! That is also why no global sort is needed. Within one size class,
//! canonical order compares first vertices first, and a clique's first
//! vertex is its root; so all of root `r`'s cliques of a size precede
//! every later root's. The order is therefore a small sort of each
//! root's own cliques, appended per size to buckets in root order, and
//! the buckets are emitted size by size. Consecutive runs of roots can
//! go to threads, each filling its own buckets, and concatenating the
//! runs in order gives the same stream at every thread count.
//!
//! Each root works on `LocalRows`: the adjacency of the subgraph
//! induced by `N(r)`, as `deg(r)`-bit rows (San Segundo et al.'s
//! bit-parallel BK on neighbourhood-local bitsets). Any common
//! neighbour of a clique through `r` lies in `N(r)`, so the local rows
//! decide maximality exactly, and their cost follows the degree, not n.
//! `gsb_index::build` runs this search over a whole graph, `gsb update`
//! over each edited edge's common neighbourhood ([`crate::neighborhood`]).

use crate::sink::CliqueSink;
use crate::Vertex;
use gsb_bitset::{words_for, WORD_BITS};
use gsb_graph::BitGraph;
use std::ops::Range;
use std::panic::resume_unwind;
use std::thread;

/// Every maximal clique of `g` with `min ≤ size ≤ max`, into `sink` in
/// canonical (size, then lexicographic) order, each clique ascending:
/// the Clique Enumerator's stream for `EnumConfig { min_k: min, max_k:
/// max, .. }`. A `min` of 0 counts as 1, so isolated vertices come out
/// at `min ≤ 1` and edges with no common neighbour at `min ≤ 2`.
/// Maximal cliques larger than `max` are not reported. `threads` runs of
/// consecutive roots are searched side by side; the stream is the same
/// for every `threads`. A panic on a worker thread is re-raised here.
pub fn maximal_cliques(
    g: &BitGraph,
    min: usize,
    max: Option<usize>,
    threads: usize,
    sink: &mut impl CliqueSink,
) {
    let sizes = min.max(1)..max.map_or(usize::MAX, |m| m.saturating_add(1));
    if g.n() == 0 || sizes.is_empty() {
        return;
    }
    let adj = Adjacency::new(g);
    let runs = split_roots(&adj, threads.max(1));
    let mut buckets: Vec<Buckets> = thread::scope(|s| {
        let (first, rest) = runs.split_first().expect("n > 0 gives one run at least");
        let handles: Vec<_> = rest
            .iter()
            .map(|roots| {
                let (adj, sizes, roots) = (&adj, sizes.clone(), roots.clone());
                s.spawn(move || search_roots(adj, sizes, roots))
            })
            .collect();
        let mut done = vec![search_roots(&adj, sizes.clone(), first.clone())];
        for h in handles {
            done.push(h.join().unwrap_or_else(|panic| resume_unwind(panic)));
        }
        done
    });
    let top = buckets.iter().map(Vec::len).max().unwrap_or(0);
    for size in sizes.start..top {
        for run in &mut buckets {
            if let Some(bucket) = run.get_mut(size) {
                for clique in std::mem::take(bucket).chunks_exact(size) {
                    sink.maximal(clique);
                }
            }
        }
    }
}

/// One run's output: `buckets[s]` holds its cliques of size `s` back to
/// back, in canonical order.
type Buckets = Vec<Vec<Vertex>>;

/// Cut the roots into at most `runs` ranges of consecutive roots with
/// about equal estimated cost. A root's cost is taken as
/// `deg(r) · |P|`: building its rows walks its neighbours' lists, and
/// its search branches over `P`.
fn split_roots(adj: &Adjacency<'_>, runs: usize) -> Vec<Range<usize>> {
    let n = adj.n();
    let cost = |r: usize| {
        let list = adj.neighbours(r);
        let later = list.len() - list.partition_point(|&v| (v as usize) < r);
        (list.len() * later) as u64 + 1
    };
    let total: u64 = (0..n).map(cost).sum();
    let runs = runs.min(n) as u64;
    let mut out = Vec::with_capacity(runs as usize);
    let (mut start, mut done) = (0, 0u64);
    for t in 1..=runs {
        let mut end = start;
        while end < n && (t == runs || done < total * t / runs) {
            done += cost(end);
            end += 1;
        }
        out.push(start..end);
        start = end;
    }
    out
}

/// Search every root in `roots`, keeping cliques whose size is in
/// `sizes`.
fn search_roots(adj: &Adjacency<'_>, sizes: Range<usize>, roots: Range<usize>) -> Buckets {
    let mut rows = LocalRows::new(adj.n());
    let mut search = Search::new(sizes);
    let mut buckets = Buckets::new();
    for r in roots {
        search.root(&mut rows, adj, r, &mut buckets);
    }
    buckets
}

/// A graph's sorted adjacency lists beside its bit rows: the
/// neighbours of `v` are `list[start[v]..start[v + 1]]`, ascending.
pub(crate) struct Adjacency<'g> {
    graph: &'g BitGraph,
    start: Vec<usize>,
    list: Vec<Vertex>,
}

impl<'g> Adjacency<'g> {
    /// The adjacency lists of `g`.
    pub(crate) fn new(g: &'g BitGraph) -> Self {
        let mut start = Vec::with_capacity(g.n() + 1);
        let mut list = Vec::with_capacity(2 * g.m());
        start.push(0);
        for v in g.vertices() {
            list.extend(g.neighbors(v).iter_ones().map(|u| u as Vertex));
            start.push(list.len());
        }
        Adjacency {
            graph: g,
            start,
            list,
        }
    }

    /// Vertex count.
    pub(crate) fn n(&self) -> usize {
        self.start.len() - 1
    }

    /// The neighbours of `v`, ascending.
    pub(crate) fn neighbours(&self, v: usize) -> &[Vertex] {
        &self.list[self.start[v]..self.start[v + 1]]
    }

    /// The neighbours of `v` as the words of an n-bit row.
    fn row(&self, v: usize) -> &[u64] {
        self.graph.neighbors(v).words()
    }
}

/// Marks a vertex outside the current neighbourhood in
/// [`LocalRows`]'s position map.
const ABSENT: u32 = u32::MAX;

/// The adjacency of the subgraph induced by `N(r)` for one root `r`, as
/// `deg(r)`-bit rows over local positions: position `i` is the `i`-th
/// neighbour of `r` in id order, so the *earlier* neighbours (ids below
/// `r`) take positions `0..earlier()` and the later ones the rest. The
/// row of a later neighbour is complete; the row of an earlier one holds
/// only its later neighbours, which is all a search rooted at `r` reads
/// of it. One value is reused from root to root.
pub(crate) struct LocalRows {
    neighbours: Vec<Vertex>,
    earlier: usize,
    words: usize,
    rows: Vec<u64>,
    /// Local position of every vertex of `N(r)` while the rows are
    /// built, [`ABSENT`] everywhere else and between builds.
    position: Vec<u32>,
}

impl LocalRows {
    /// Empty rows for roots of an `n`-vertex graph.
    pub(crate) fn new(n: usize) -> Self {
        LocalRows {
            neighbours: Vec::new(),
            earlier: 0,
            words: 0,
            rows: Vec::new(),
            position: vec![ABSENT; n],
        }
    }

    /// Rebuild for root `r`. Each neighbour `v` pairs with the
    /// neighbours of `r` in one span of ids, found either by walking
    /// `v`'s sorted list through a position map or by ANDing the two
    /// n-bit rows over the span, whichever reads less: a row costs at
    /// most `deg(v)` steps, never n.
    pub(crate) fn build(&mut self, adj: &Adjacency<'_>, r: usize) {
        self.neighbours.clear();
        self.neighbours.extend_from_slice(adj.neighbours(r));
        let d = self.neighbours.len();
        self.earlier = self.neighbours.partition_point(|&v| (v as usize) < r);
        self.words = words_for(d);
        self.rows.clear();
        self.rows.resize(d * self.words, 0);
        let Some(&last) = self.neighbours.last() else {
            return;
        };
        for (i, &v) in self.neighbours.iter().enumerate() {
            self.position[v as usize] = i as u32;
        }
        let (w, rows, position) = (self.words, &mut self.rows, &self.position);
        let mut pair = |i: usize, j: usize| {
            rows[i * w + j / WORD_BITS] |= 1 << (j % WORD_BITS);
            rows[j * w + i / WORD_BITS] |= 1 << (i % WORD_BITS);
        };
        let root_row = adj.row(r);
        for (i, &v) in self.neighbours.iter().enumerate() {
            // An earlier neighbour pairs only with later ones (ids past
            // r); a later one with the later ones past itself, the rest
            // of its row being filled from the other side.
            let past = if i < self.earlier { r as Vertex } else { v };
            let list = adj.neighbours(v as usize);
            // The pairs are N(v) ∩ N(r) over ids (past, last]: AND the
            // two n-bit rows over that span where it is fewer words than
            // v has neighbours, else walk v's list through the position
            // map.
            let (lo, hi) = ((past as usize + 1) / WORD_BITS, last as usize / WORD_BITS);
            if (hi + 1).saturating_sub(lo) < list.len() {
                let first = !0u64 << ((past as usize + 1) % WORD_BITS);
                for (k, (a, b)) in adj.row(v as usize)[lo..=hi]
                    .iter()
                    .zip(&root_row[lo..=hi])
                    .enumerate()
                {
                    let mut bits = a & b & if k == 0 { first } else { !0 };
                    while bits != 0 {
                        let u = (lo + k) * WORD_BITS + bits.trailing_zeros() as usize;
                        pair(i, position[u] as usize);
                        bits &= bits - 1;
                    }
                }
            } else {
                for &u in &list[list.partition_point(|&u| u <= past)..] {
                    if u > last {
                        break;
                    }
                    let j = position[u as usize];
                    if j != ABSENT {
                        pair(i, j as usize);
                    }
                }
            }
        }
        for &v in &self.neighbours {
            self.position[v as usize] = ABSENT;
        }
    }

    /// `N(r)` in id order: local position `i` is vertex
    /// `neighbours()[i]`.
    pub(crate) fn neighbours(&self) -> &[Vertex] {
        &self.neighbours
    }

    /// Number of neighbours with an id below the root's.
    pub(crate) fn earlier(&self) -> usize {
        self.earlier
    }

    /// Words per row: `⌈deg(r) / 64⌉`.
    pub(crate) fn words(&self) -> usize {
        self.words
    }

    /// The row of local position `i`.
    pub(crate) fn row(&self, i: usize) -> &[u64] {
        &self.rows[i * self.words..(i + 1) * self.words]
    }
}

/// The Bron–Kerbosch search of one root at a time, with its scratch
/// kept from root to root so the recursion allocates nothing.
struct Search {
    sizes: Range<usize>,
    /// Per depth: the candidate set P, the excluded set X and the
    /// branch set, one row width each.
    stack: Vec<u64>,
    /// The clique in progress, less the root, as local bits.
    clique: Vec<u64>,
    /// The sort key of each clique found at this root (see
    /// [`Search::record`]), one row width each.
    keys: Vec<u64>,
    /// The size of each clique found at this root.
    found: Vec<u32>,
    /// Each clique's size and first key word, and its index.
    order: Vec<(u128, u32)>,
}

impl Search {
    fn new(sizes: Range<usize>) -> Self {
        Search {
            sizes,
            stack: Vec::new(),
            clique: Vec::new(),
            keys: Vec::new(),
            found: Vec::new(),
            order: Vec::new(),
        }
    }

    /// Every maximal clique rooted at `r` with its size in range, sorted
    /// and appended to `buckets`.
    fn root(&mut self, rows: &mut LocalRows, adj: &Adjacency<'_>, r: usize, buckets: &mut Buckets) {
        let list = adj.neighbours(r);
        let later = list.len() - list.partition_point(|&v| (v as usize) < r);
        // No later neighbour: r is the smallest vertex of no clique but
        // itself, and that only when it has no neighbour at all.
        if (later == 0 && !list.is_empty()) || 1 + later < self.sizes.start {
            return;
        }
        rows.build(adj, r);
        let (d, w) = (rows.neighbours().len(), rows.words());
        self.stack.clear();
        self.stack.resize((d + 2) * 3 * w, 0);
        for i in rows.earlier()..d {
            self.stack[i / WORD_BITS] |= 1 << (i % WORD_BITS);
        }
        for i in 0..rows.earlier() {
            self.stack[w + i / WORD_BITS] |= 1 << (i % WORD_BITS);
        }
        self.clique.clear();
        self.clique.resize(w, 0);
        self.keys.clear();
        self.found.clear();
        self.expand(rows, 0, 1);

        // Sort on the size and the first key word together, which settle
        // nearly every comparison; the rest of the key breaks the ties.
        let (keys, found) = (&self.keys, &self.found);
        let key = |c: u32| &keys[c as usize * w..(c as usize + 1) * w];
        self.order.clear();
        self.order.extend(found.iter().zip(0..).map(|(&size, c)| {
            let first = key(c).first().copied().unwrap_or(0);
            ((size as u128) << 64 | first as u128, c)
        }));
        self.order.sort_unstable_by(|a, b| {
            a.0.cmp(&b.0)
                .then_with(|| key(a.1)[1..].cmp(&key(b.1)[1..]))
        });
        for &(_, c) in &self.order {
            let size = found[c as usize] as usize;
            if buckets.len() <= size {
                buckets.resize_with(size + 1, Vec::new);
            }
            let bucket = &mut buckets[size];
            bucket.push(r as Vertex);
            for (k, &word) in key(c).iter().enumerate() {
                let mut bits = (!word).reverse_bits();
                while bits != 0 {
                    bucket.push(rows.neighbours()[k * WORD_BITS + bits.trailing_zeros() as usize]);
                    bits &= bits - 1;
                }
            }
        }
    }

    /// Pivoted Bron–Kerbosch at `depth`, where the clique in progress
    /// has `size` vertices and the stack holds this depth's P and X.
    fn expand(&mut self, rows: &LocalRows, depth: usize, size: usize) {
        let w = rows.words();
        let at = depth * 3 * w;
        let (p, rest) = self.stack[at..].split_at_mut(w);
        let (x, rest) = rest.split_at_mut(w);
        let candidates: usize = p.iter().map(|b| b.count_ones() as usize).sum();
        if candidates == 0 {
            if x.iter().all(|&b| b == 0) && self.sizes.contains(&size) {
                self.record(size);
            }
            return;
        }
        // Too few candidates to reach the smallest size wanted, or every
        // maximal clique through this one is larger than the largest.
        if size + candidates < self.sizes.start || size + 1 >= self.sizes.end {
            return;
        }
        // Tomita's pivot: the vertex of P ∪ X with the most neighbours in
        // P. Only candidates outside its neighbourhood need a branch. A
        // vertex of X that sees all of P leaves no branch at all. When
        // every vertex of P sees the rest of P, P is a clique and so is
        // R ∪ P, maximal because no vertex of X sees all of P: it is the
        // one clique below this node.
        let mut pivot: Option<(usize, usize)> = None;
        for i in ones(x) {
            let hits = count_and(rows.row(i), p);
            if hits == candidates {
                return;
            }
            if pivot.is_none_or(|(most, _)| hits > most) {
                pivot = Some((hits, i));
            }
        }
        let mut p_is_clique = true;
        for i in ones(p) {
            let hits = count_and(rows.row(i), p);
            if pivot.is_none_or(|(most, _)| hits > most) {
                pivot = Some((hits, i));
            }
            if hits + 1 < candidates {
                p_is_clique = false;
                if pivot.is_some_and(|(most, _)| most + 1 == candidates) {
                    break;
                }
            }
        }
        if p_is_clique {
            if self.sizes.contains(&(size + candidates)) {
                for (c, &b) in self.clique.iter_mut().zip(p.iter()) {
                    *c |= b;
                }
                self.record(size + candidates);
                let (p, _) = self.stack[at..].split_at(w);
                for (c, &b) in self.clique.iter_mut().zip(p) {
                    *c &= !b;
                }
            }
            return;
        }
        let (_, pivot) = pivot.expect("P is not empty");
        let branch = &mut rest[..w];
        for ((b, &c), &nb) in branch.iter_mut().zip(p.iter()).zip(rows.row(pivot)) {
            *b = c & !nb;
        }
        for k in 0..w {
            let mut bits = self.stack[at + 2 * w + k];
            while bits != 0 {
                let bit = bits & bits.wrapping_neg();
                bits ^= bit;
                let v = k * WORD_BITS + bit.trailing_zeros() as usize;
                let row = rows.row(v);
                let (here, next) = self.stack[at..].split_at_mut(3 * w);
                let (next_p, next_x) = next[..2 * w].split_at_mut(w);
                for i in 0..w {
                    next_p[i] = here[i] & row[i];
                    next_x[i] = here[w + i] & row[i];
                }
                self.clique[k] |= bit;
                self.expand(rows, depth + 1, size + 1);
                self.clique[k] &= !bit;
                self.stack[at + k] &= !bit;
                self.stack[at + w + k] |= bit;
            }
        }
    }

    /// Keep the clique in progress with its sort key: each word as
    /// `!word.reverse_bits()`. For two sets of one size, the one holding
    /// the lowest position where they differ has the smaller sorted
    /// list, and that bit becomes the highest differing bit of the
    /// reversed words, set in it; so comparing keys as word slices
    /// orders the cliques lexicographically, as vertex lists.
    fn record(&mut self, size: usize) {
        self.keys
            .extend(self.clique.iter().map(|&word| !word.reverse_bits()));
        self.found.push(size as u32);
    }
}

/// Positions of the set bits of `words`, ascending.
fn ones(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(k, &word)| {
        let mut bits = word;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let i = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                k * WORD_BITS + i
            })
        })
    })
}

/// `|a ∩ b|`.
fn count_and(a: &[u64], b: &[u64]) -> usize {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x & y).count_ones() as usize)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bk::improved_bk;
    use crate::enumerator::{CliqueEnumerator, EnumConfig};
    use crate::sink::CollectSink;
    use crate::Clique;
    use gsb_graph::generators::{correlation_like, gnp, planted, CorrelationProfile, Module};
    use gsb_rng::SplitMix64;

    fn rooted(g: &BitGraph, min: usize, max: Option<usize>, threads: usize) -> Vec<Clique> {
        let mut sink = CollectSink::default();
        maximal_cliques(g, min, max, threads, &mut sink);
        sink.cliques
    }

    /// The Clique Enumerator's stream: the canonical order itself.
    fn enumerator(g: &BitGraph, min: usize, max: Option<usize>) -> Vec<Clique> {
        let mut sink = CollectSink::default();
        let config = EnumConfig {
            min_k: min,
            max_k: max,
            record_costs: false,
        };
        CliqueEnumerator::new(config).enumerate(g, &mut sink);
        sink.cliques
    }

    /// `improved_bk`'s cliques of at least `min` vertices, each sorted,
    /// the list sorted into (size, lex) order.
    fn bk_canonical(g: &BitGraph, min: usize) -> Vec<Clique> {
        let mut sink = CollectSink::default();
        improved_bk(g, &mut sink);
        let mut cliques: Vec<Clique> = sink
            .cliques
            .into_iter()
            .filter(|c| c.len() >= min)
            .map(|mut c| {
                c.sort_unstable();
                c
            })
            .collect();
        cliques.sort_unstable_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
        cliques
    }

    /// Make the lowest ids hubs adjacent to about 70–200 other vertices,
    /// so their roots search rows of two to four words, and plant a
    /// clique among the first hub's neighbours.
    fn add_hubs(g: &mut BitGraph, rng: &mut SplitMix64) {
        let n = g.n();
        for hub in 0..1 + rng.below(3) {
            let reach = (70 + rng.below(131)).min(n - 1);
            for v in (0..n).filter(|&v| v != hub).take(reach * 3 / 2) {
                if rng.chance(2.0 / 3.0) {
                    g.add_edge(hub, v);
                }
            }
        }
        let members: Vec<usize> = g.neighbors(0).iter_ones().step_by(9).take(8).collect();
        for (i, &u) in members.iter().enumerate() {
            for &v in &members[i + 1..] {
                g.add_edge(u, v);
            }
        }
    }

    #[test]
    fn seeded_sweep_matches_the_enumerator_in_order() {
        // Planted, G(n, p) and correlation-like graphs, half of them
        // larger and sparser with hubs added; each kind must reach
        // degrees past 128 somewhere in the sweep.
        let mut widest = [0; 3];
        gsb_rng::sweep(120, |rng| {
            let kind = rng.below(3);
            let hubs = rng.chance(0.5);
            let (n, p) = if hubs {
                (220 + rng.below(100), 0.02 + 0.03 * rng.unit())
            } else {
                (12 + rng.below(100), 0.05 + 0.2 * rng.unit())
            };
            let mut g = match kind {
                0 => {
                    let modules: Vec<Module> = (0..rng.below(4))
                        .map(|_| Module::clique(3 + rng.below(10)))
                        .collect();
                    planted(n, p, &modules, rng.next_u64())
                }
                1 => gnp(n, p, rng.next_u64()),
                _ => {
                    let profile = CorrelationProfile {
                        n: n.max(40),
                        density: 0.02 + 0.04 * rng.unit(),
                        max_module: 6 + rng.below(8),
                        modules: 4 + rng.below(8),
                        overlap: 0.4,
                    };
                    correlation_like(&profile, rng.next_u64())
                }
            };
            if hubs {
                add_hubs(&mut g, rng);
            }
            let degree = g.vertices().map(|v| g.degree(v)).max().unwrap_or(0);
            widest[kind] = widest[kind].max(degree);
            let min = 1 + rng.below(4);
            let max = rng.chance(0.3).then(|| min - 1 + rng.below(5));
            let want = enumerator(&g, min, max);
            for threads in [1, 2, 4] {
                assert_eq!(
                    rooted(&g, min, max, threads),
                    want,
                    "n={} m={} min={min} max={max:?} threads={threads}",
                    g.n(),
                    g.m()
                );
            }
        });
        assert!(widest.iter().all(|&w| w > 128), "widest roots {widest:?}");
    }

    #[test]
    fn empty_edgeless_and_small_graphs() {
        for min in 0..4 {
            assert!(rooted(&BitGraph::new(0), min, None, 2).is_empty());
        }
        let edgeless = BitGraph::new(4);
        assert_eq!(
            rooted(&edgeless, 1, None, 3),
            vec![vec![0], vec![1], vec![2], vec![3]]
        );
        assert!(rooted(&edgeless, 2, None, 1).is_empty());
        // A triangle, a disjoint edge and an isolated vertex.
        let g = BitGraph::from_edges(6, [(1, 2), (0, 1), (0, 2), (3, 4)]);
        let every = vec![vec![5], vec![3, 4], vec![0, 1, 2]];
        assert_eq!(rooted(&g, 0, None, 1), every);
        assert_eq!(rooted(&g, 1, None, 4), every);
        assert_eq!(rooted(&g, 2, None, 2), every[1..]);
        assert_eq!(rooted(&g, 3, None, 1), every[2..]);
        assert_eq!(rooted(&g, 1, Some(2), 1), every[..2]);
        assert!(rooted(&g, 3, Some(2), 1).is_empty());
        assert!(rooted(&g, 1, Some(0), 1).is_empty());
        // Disjoint edges: maximal 2-cliques with no common neighbour.
        let matching = BitGraph::from_edges(6, [(4, 5), (0, 1), (2, 3)]);
        assert_eq!(
            rooted(&matching, 2, None, 2),
            vec![vec![0, 1], vec![2, 3], vec![4, 5]]
        );
        for g in [&edgeless, &g, &matching] {
            for (min, max) in [(1, None), (2, None), (3, None), (1, Some(2))] {
                assert_eq!(rooted(g, min, max, 1), enumerator(g, min, max));
            }
        }
    }

    #[test]
    fn large_planted_cliques_match_pivoted_bk() {
        // K26 planted and the ω = 24 planted graph, where the levelwise
        // enumerator walks 2^ω sub-cliques and takes seconds.
        for (n, modules) in [(300, vec![26]), (2895, vec![24, 20, 18])] {
            let modules: Vec<Module> = modules.into_iter().map(Module::clique).collect();
            let g = planted(n, 0.02, &modules, 1);
            let want = bk_canonical(&g, 3);
            assert_eq!(want.last().map(Vec::len), Some(modules[0].size));
            for threads in [1, 2] {
                assert_eq!(
                    rooted(&g, 3, None, threads),
                    want,
                    "n={n} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn runs_cover_the_roots_in_order() {
        let g = planted(200, 0.05, &[Module::clique(12)], 4);
        let adj = Adjacency::new(&g);
        for runs in [1, 2, 3, 4, 7, 500] {
            let cut = split_roots(&adj, runs);
            assert_eq!(cut.len(), runs.min(g.n()));
            assert_eq!(cut[0].start, 0);
            assert_eq!(cut.last().map(|r| r.end), Some(g.n()));
            assert!(cut.windows(2).all(|w| w[0].end == w[1].start));
        }
    }

    #[test]
    fn local_rows_hold_the_induced_adjacency() {
        let g = gnp(90, 0.5, 7);
        let adj = Adjacency::new(&g);
        let mut rows = LocalRows::new(g.n());
        for r in [0, 1, 45, 89] {
            rows.build(&adj, r);
            let nbrs = rows.neighbours();
            assert_eq!(nbrs, adj.neighbours(r));
            assert!(nbrs[..rows.earlier()].iter().all(|&v| (v as usize) < r));
            assert!(nbrs[rows.earlier()..].iter().all(|&v| (v as usize) > r));
            for i in 0..nbrs.len() {
                for j in 0..nbrs.len() {
                    let edge = g.has_edge(nbrs[i] as usize, nbrs[j] as usize);
                    let kept = i >= rows.earlier() || j >= rows.earlier();
                    let bit = rows.row(i)[j / WORD_BITS] >> (j % WORD_BITS) & 1 == 1;
                    assert_eq!(bit, edge && kept, "root {r}: ({i}, {j})");
                }
            }
        }
    }
}
