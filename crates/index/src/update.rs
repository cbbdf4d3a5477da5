//! `gsb update` — incremental index maintenance for dynamic graphs.
//!
//! Das et al. (*Shared-Memory Parallel Maximal Clique Enumeration from
//! Static and Dynamic Graphs*) localize the effect of an edge edit. Let
//! `Ms` be the maximal cliques of the subgraph induced by
//! `N(u) ∩ N(v)`, or `[∅]` when that set is empty; it is the same set
//! with or without the edge. Toggling `{u, v}` then moves the maximal
//! cliques between two families:
//!
//! * `W = { M ∪ {u, v} }`, the maximal cliques holding both endpoints
//!   while the edge exists;
//! * `W̄`, every `M ∪ {u}` and `M ∪ {v}` that is maximal without the
//!   edge. Only a neighbor of `u` outside `N(v)` can extend `M ∪ {u}`,
//!   so the test is one AND-chain over that difference.
//!
//! **Adding** the edge kills `W̄` and inserts `W`; **removing** it kills
//! `W` and inserts `W̄`. Every edit costs one enumeration of its common
//! neighborhood plus postings lookups for the cliques it kills: `W` is
//! every live clique holding both endpoints (one postings overlap), and
//! each `W̄` clique's id is found from its members' postings within the
//! size runs of its size. No store block is decoded.
//!
//! The engine applies a batch sequentially (removals, then additions)
//! against the evolving graph plus an in-memory overlay, so after every
//! edit the maintained set is exactly `{maximal cliques of the current
//! graph with size ≥ min_size}` — the same set a full re-enumeration of
//! the patched graph produces. Vertices the batch grows the graph by
//! start isolated, so at `--min 1` each enters as a singleton. Cliques
//! created then killed within one batch never touch disk.
//!
//! A commit appends — never rewrites: delta blocks to `cliques.gsi`
//! (encoded by `format::BlockBuilder`, as `gsb index` encodes its own),
//! one postings frame to `postings.gsp`, one [`DeltaGeneration`] record
//! to `index.gsd`, then renames a fresh `index.meta` into place. The
//! manifest is the single commit point: it records the committed byte
//! extent of all three files, so a crash mid-append leaves a torn tail
//! the next update truncates away, and a crash before the rename leaves
//! the previous committed view byte-for-byte intact. A live `gsb serve`
//! polling the manifest hot-reloads the new generation atomically.

use crate::compact::pending_swap;
use crate::format::{
    canonical, encode_delta_postings, live_histogram, patched_graph, BlockBuilder, DeltaGeneration,
    IndexMeta, CLIQUES_FILE, DIRECTORY_FILE, META_FILE, POSTINGS_FILE,
};
use crate::reader::{intersect_sorted, CliqueIndex};
use crate::writer::{write_atomic, DEFAULT_BLOCK_TARGET};
use gsb_core::store::{frame, sync_dir, StoreError};
use gsb_core::{neighborhood, Clique, Vertex};
use gsb_graph::BitGraph;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fs::OpenOptions;
use std::io::Write;
use std::path::Path;
use std::rc::Rc;

/// A batch of edge edits: removals are applied first, then additions,
/// each in file order.
#[derive(Clone, Debug, Default)]
pub struct EditScript {
    /// Edges to remove, canonical `(min, max)` pairs.
    pub remove: Vec<(usize, usize)>,
    /// Edges to add, canonical `(min, max)` pairs. Endpoints beyond the
    /// indexed graph grow it.
    pub add: Vec<(usize, usize)>,
}

/// What [`update`] did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct UpdateOutcome {
    /// Manifest generation after the call (unchanged when nothing
    /// committed).
    pub generation: u64,
    /// Removals applied / skipped (edge absent or out of range).
    pub removes_applied: usize,
    /// Removals skipped.
    pub removes_skipped: usize,
    /// Additions applied / skipped (edge already present).
    pub adds_applied: usize,
    /// Additions skipped.
    pub adds_skipped: usize,
    /// New cliques appended as a delta generation.
    pub new_cliques: u64,
    /// Stored cliques tombstoned by this batch.
    pub new_tombstones: u64,
    /// Total clique ids after the call.
    pub total: u64,
    /// Live cliques after the call.
    pub live: u64,
    /// Vertex count after the call.
    pub n: usize,
    /// False when every edit was a no-op and nothing was written.
    pub committed: bool,
}

/// Sequential maintenance state over one batch: the stored index plus
/// an in-memory overlay of kills and additions.
struct Maintainer<'a> {
    idx: &'a CliqueIndex,
    g: BitGraph,
    min_k: usize,
    /// Stored ids killed by this batch.
    killed: HashSet<u64>,
    /// Cliques this batch made live (and has not killed again).
    added: HashSet<Clique>,
    /// Memoized raw postings (reader-level tombstones already filtered).
    /// Stored postings are immutable for the life of a batch — kills
    /// live in `killed` and are filtered at use time — and consecutive
    /// lookups hit the same few vertices over and over, so this turns
    /// O(lookups) postings reads into O(distinct vertices).
    postings: HashMap<usize, Rc<Vec<u64>>>,
}

impl<'a> Maintainer<'a> {
    /// Raw live stored ids containing a vertex, memoized, ascending.
    fn raw_containing(&mut self, v: usize) -> Result<Rc<Vec<u64>>, StoreError> {
        if let Some(ids) = self.postings.get(&v) {
            return Ok(Rc::clone(ids));
        }
        let ids = Rc::new(self.idx.containing(v as Vertex)?);
        self.postings.insert(v, Rc::clone(&ids));
        Ok(ids)
    }

    /// Live stored ids containing both endpoints, minus batch kills.
    fn stored_overlap(&mut self, u: usize, v: usize) -> Result<Vec<u64>, StoreError> {
        let a = self.raw_containing(u)?;
        let b = self.raw_containing(v)?;
        let mut out = intersect_sorted(&a, &b);
        out.retain(|id| !self.killed.contains(id));
        Ok(out)
    }

    /// The live stored id of clique `c`, from postings alone: an id in
    /// every member's list holds a superset of `c`, and one inside a
    /// size run of `|c|` holds exactly `c`. Within each such run the two
    /// shortest member lists are merged and the others binary-probed,
    /// shortest first.
    fn stored_id(&mut self, c: &Clique) -> Result<Option<u64>, StoreError> {
        let lists = c
            .iter()
            .map(|&x| self.raw_containing(x as usize))
            .collect::<Result<Vec<_>, _>>()?;
        for run in self.idx.size_run_ids(c.len() as u32) {
            let mut within: Vec<&[u64]> = lists
                .iter()
                .map(|ids| {
                    let lo = ids.partition_point(|&id| id < run.start);
                    let hi = ids.partition_point(|&id| id < run.end);
                    &ids[lo..hi]
                })
                .collect();
            within.sort_unstable_by_key(|ids| ids.len());
            let (candidates, probe) = match within.as_slice() {
                [] => return Ok(None),
                [only] => (only.to_vec(), &[][..]),
                [a, b, rest @ ..] => (intersect_sorted(a, b), rest),
            };
            let found = candidates.into_iter().find(|id| {
                probe.iter().all(|ids| ids.binary_search(id).is_ok()) && !self.killed.contains(id)
            });
            if found.is_some() {
                return Ok(found);
            }
        }
        Ok(None)
    }

    /// Is `c` in the maintained set right now?
    fn contains(&mut self, c: &Clique) -> Result<bool, StoreError> {
        Ok(self.added.contains(c) || self.stored_id(c)?.is_some())
    }

    /// Kill a clique the current graph holds as maximal. An index
    /// whose live set lacks it — growth past a gap vertex once left
    /// `--min 1` indexes without that vertex's singleton — has nothing
    /// to tombstone, and the edit brings it back in step.
    fn kill(&mut self, c: &Clique) -> Result<(), StoreError> {
        if !self.added.remove(c) {
            if let Some(id) = self.stored_id(c)? {
                self.killed.insert(id);
            }
        }
        Ok(())
    }

    /// Make a clique that just became maximal live.
    fn insert(&mut self, c: Clique) -> Result<(), StoreError> {
        if c.len() >= self.min_k {
            debug_assert!(!self.contains(&c)?, "{c:?} is already live");
            self.added.insert(c);
        }
        Ok(())
    }

    /// `W̄`: each `M ∪ {a}`, `a ∈ {u, v}`, that is maximal in the
    /// current graph, which must not hold the edge `{u, v}`.
    fn one_sided(&self, ms: &[Clique], u: usize, v: usize) -> Vec<Clique> {
        debug_assert!(!self.g.has_edge(u, v));
        let mut out = Vec::new();
        for (a, b) in [(u, v), (v, u)] {
            // A common neighbor extending M ∪ {a} would extend M inside
            // the common neighborhood, so only these can.
            let outside = self.g.neighbors(a).and_not(self.g.neighbors(b));
            for m in ms {
                let mut ext = outside.clone();
                for &x in m {
                    ext.and_assign(self.g.neighbors(x as usize));
                }
                if ext.none() {
                    out.push(with(m, &[a]));
                }
            }
        }
        out
    }

    /// Process one removal. Returns whether the edge existed.
    fn remove_edge(&mut self, u: usize, v: usize) -> Result<bool, StoreError> {
        if u >= self.g.n() || v >= self.g.n() || !self.g.has_edge(u, v) {
            return Ok(false);
        }
        let ms = neighborhood::common_neighborhood_cliques(&self.g, u, v);
        // Every live clique holding both endpoints is some M ∪ {u, v}.
        let stored = self.stored_overlap(u, v)?;
        let mut dying = stored.len();
        for m in &ms {
            dying += usize::from(self.added.remove(&with(m, &[u, v])));
        }
        debug_assert_eq!(
            dying,
            ms.iter().filter(|m| m.len() + 2 >= self.min_k).count()
        );
        self.killed.extend(stored);
        self.g.remove_edge(u, v);
        for c in self.one_sided(&ms, u, v) {
            self.insert(c)?;
        }
        Ok(true)
    }

    /// Process one addition. Returns whether the edge was new.
    fn add_edge(&mut self, u: usize, v: usize) -> Result<bool, StoreError> {
        if u == v || self.g.has_edge(u, v) {
            return Ok(false);
        }
        let ms = neighborhood::common_neighborhood_cliques(&self.g, u, v);
        for c in self.one_sided(&ms, u, v) {
            if c.len() >= self.min_k {
                self.kill(&c)?;
            }
        }
        self.g.add_edge(u, v);
        for m in &ms {
            self.insert(with(m, &[u, v]))?;
        }
        Ok(true)
    }
}

/// `m` plus the vertices `extra`, sorted ascending.
fn with(m: &Clique, extra: &[usize]) -> Clique {
    let mut c = m.clone();
    c.extend(extra.iter().map(|&x| x as Vertex));
    c.sort_unstable();
    c
}

/// Truncate a data file back to its committed extent, repairing a torn
/// append from a crashed update. A file *shorter* than the manifest
/// says is real corruption and stays a typed error.
fn repair_extent(dir: &Path, name: &str, extent: u64) -> Result<(), StoreError> {
    let path = dir.join(name);
    let len = std::fs::metadata(&path)?.len();
    if len < extent {
        return Err(StoreError::Torn {
            context: "index file shorter than manifest extent",
            needed: extent as usize,
            have: len as usize,
        });
    }
    if len > extent {
        let f = OpenOptions::new().write(true).open(&path)?;
        f.set_len(extent)?;
        f.sync_all()?;
    }
    Ok(())
}

/// Apply an edit batch to the committed index in `dir`, appending one
/// delta generation and bumping the manifest generation atomically.
/// See the module docs for the protocol and crash model.
pub fn update(
    dir: &Path,
    script: &EditScript,
    block_target: Option<usize>,
) -> Result<UpdateOutcome, StoreError> {
    // Finishing a pending compaction swap must win.
    if pending_swap(dir) {
        return Err(StoreError::Io(std::io::Error::other(
            "a compaction swap is pending — run `gsb compact` to finish it first",
        )));
    }
    let meta0 = IndexMeta::from_text(&std::fs::read_to_string(dir.join(META_FILE))?)?;
    if meta0.min_size == 0 || meta0.graph_bytes == 0 || meta0.dir_bytes == 0 {
        return Err(StoreError::Io(std::io::Error::other(
            "index is not updatable (built before dynamic updates, or with --max): \
             rebuild it with `gsb index`",
        )));
    }
    repair_extent(dir, CLIQUES_FILE, meta0.store_bytes)?;
    repair_extent(dir, POSTINGS_FILE, meta0.postings_bytes)?;
    repair_extent(dir, DIRECTORY_FILE, meta0.dir_bytes)?;

    let idx = CliqueIndex::open(dir)?;
    let n_target = script
        .add
        .iter()
        .map(|&(u, v)| u.max(v) + 1)
        .chain([meta0.n])
        .max()
        .unwrap_or(meta0.n);
    let g = patched_graph(dir, idx.meta(), idx.chain(), n_target, |_| {})?;

    let mut m = Maintainer {
        idx: &idx,
        g,
        min_k: meta0.min_size as usize,
        killed: HashSet::new(),
        added: HashSet::new(),
        postings: HashMap::new(),
    };
    // Vertices the batch grows the graph by start isolated: each is a
    // maximal singleton until an edit below attaches it.
    for w in meta0.n..n_target {
        m.insert(vec![w as Vertex])?;
    }
    let mut out = UpdateOutcome {
        generation: meta0.generation,
        total: meta0.cliques,
        live: meta0.cliques - meta0.tombstones,
        n: meta0.n,
        ..Default::default()
    };
    let mut removed_effective = Vec::new();
    let mut added_effective = Vec::new();
    for &(u, v) in &script.remove {
        if m.remove_edge(u, v)? {
            out.removes_applied += 1;
            removed_effective.push((u as u32, v as u32));
        } else {
            out.removes_skipped += 1;
        }
    }
    for &(u, v) in &script.add {
        if m.add_edge(u, v)? {
            out.adds_applied += 1;
            added_effective.push((u as u32, v as u32));
        } else {
            out.adds_skipped += 1;
        }
    }
    if out.removes_applied == 0 && out.adds_applied == 0 {
        return Ok(out);
    }

    // Canonical per-generation emission: (size, lex) — the same order
    // the enumerators produce, which is what makes compaction
    // byte-identical to a fresh rebuild.
    let mut new_cliques: Vec<Clique> = m.added.into_iter().collect();
    new_cliques.sort_by(|a, b| canonical(a, b));
    let mut tombstones: Vec<u64> = m.killed.into_iter().collect();
    tombstones.sort_unstable();
    removed_effective.sort_unstable();
    added_effective.sort_unstable();
    let n_after = m.g.n();

    // Encode delta blocks and the per-generation postings overlay.
    let first_id = meta0.cliques;
    let mut blocks = BlockBuilder::new(
        meta0.store_bytes,
        first_id,
        block_target.unwrap_or(DEFAULT_BLOCK_TARGET),
    );
    let mut store_append = Vec::new();
    let mut postings: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
    for c in &new_cliques {
        for &v in c {
            postings.entry(v).or_default().push(blocks.next_id);
        }
        blocks.push(c, &mut store_append)?;
    }
    blocks.seal(&mut store_append)?;
    let postings_append = frame(&encode_delta_postings(&postings));

    let gen = DeltaGeneration {
        generation: meta0.generation + 1,
        n: n_after as u32,
        first_id,
        count: new_cliques.len() as u64,
        size_runs: blocks.size_runs,
        blocks: blocks.blocks,
        tombstones,
        postings_offset: meta0.postings_bytes,
        postings_len: postings_append.len() as u64,
        removed_edges: removed_effective,
        added_edges: added_effective,
    };
    let dir_append = frame(&gen.encode());

    // New live maximum: every run, this generation's too, minus every
    // tombstone, this generation's too.
    let runs = [idx.runs(), &gen.size_runs].concat();
    let dead = idx.dead_ids().chain(gen.tombstones.iter().copied());
    let max_clique = live_histogram(&runs, dead)?.last().map_or(0, |&(s, _)| s);

    debug_assert_eq!(
        idx.io_stats().blocks_decoded,
        0,
        "an update decoded a store block"
    );

    // Append, fsync, then commit via the manifest rename. Order
    // matters: data before directory record before manifest.
    append_fsync(dir, CLIQUES_FILE, &store_append)?;
    append_fsync(dir, POSTINGS_FILE, &postings_append)?;
    gsb_core::failpoint::inject("update.pre_dir").map_err(StoreError::Io)?;
    append_fsync(dir, DIRECTORY_FILE, &dir_append)?;
    gsb_core::failpoint::inject("update.pre_commit").map_err(StoreError::Io)?;
    let meta = IndexMeta {
        version: 1,
        n: n_after,
        cliques: first_id + new_cliques.len() as u64,
        max_clique,
        blocks: meta0.blocks + gen.blocks.len() as u64,
        store_bytes: meta0.store_bytes + store_append.len() as u64,
        postings_bytes: meta0.postings_bytes + postings_append.len() as u64,
        generation: meta0.generation + 1,
        min_size: meta0.min_size,
        delta_generations: meta0.delta_generations + 1,
        tombstones: meta0.tombstones + gen.tombstones.len() as u64,
        dir_bytes: meta0.dir_bytes + dir_append.len() as u64,
        graph_bytes: meta0.graph_bytes,
        graph_crc: meta0.graph_crc,
    };
    write_atomic(dir, META_FILE, meta.to_text().as_bytes()).map_err(StoreError::Io)?;
    sync_dir(dir);

    out.generation = meta.generation;
    out.new_cliques = gen.count;
    out.new_tombstones = gen.tombstones.len() as u64;
    out.total = meta.cliques;
    out.live = meta.cliques - meta.tombstones;
    out.n = meta.n;
    out.committed = true;
    Ok(out)
}

/// Append bytes to `dir/name` and fsync the file.
fn append_fsync(dir: &Path, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
    let mut f = OpenOptions::new().append(true).open(dir.join(name))?;
    f.write_all(bytes)?;
    f.sync_all()?;
    Ok(())
}
