//! [`CliqueIndex`] — the read-only query engine over a committed index.
//!
//! `open` loads the manifest and directory into memory (a few bytes per
//! size run, block, and vertex) and keeps the store and postings files
//! open; queries then touch only the frames they need. Decoded blocks
//! sit in a small LRU cache, so point lookups in a hot id range skip
//! both the read and the CRC pass. A cached block is one flat
//! `format::Block` (one vertex buffer plus record ends), not a `Vec` per
//! clique, and every read borrows its cliques from it as `&[Vertex]`;
//! only the calls that return owned cliques copy. All shared state is
//! behind mutexes, making one `CliqueIndex` safely shareable across
//! server threads via `Arc`.
//!
//! `open` fails on the first defect of `format::walk_chain`, the
//! directory walk `gsb scrub` runs too, and blocks and postings decode
//! through [`crate::format`]'s checked decoders: a corrupted byte surfaces as a
//! typed [`StoreError`], never a panic or a silently wrong answer.
//! Every clique read goes through [`CliqueIndex::with_cliques`].
//!
//! Corruption is additionally *quarantined*: a block that fails its
//! CRC/codec checks is remembered in an in-memory set, so later queries
//! fail fast without re-reading it, and the serving layer can answer
//! **degraded-exact** via [`CliqueIndex::materialize_degraded`] — every
//! clique returned is exact, quarantined ids are skipped and counted.
//! Transient I/O errors do *not* quarantine (a retry may succeed).

use crate::format::{
    check_header, decode_block, decode_postings, read_at, read_delta_postings, read_frame_at,
    walk_chain, Block, BlockEntry, DeltaGeneration, IndexDirectory, IndexMeta, SizeRun,
    CLIQUES_FILE, CLIQUES_MAGIC, DIRECTORY_FILE, HEADER_LEN, META_FILE, POSTINGS_FILE,
    POSTINGS_MAGIC,
};
use gsb_bitset::BitSet;
use gsb_core::store::StoreError;
use gsb_core::{Clique, Vertex};
use std::collections::{BTreeSet, HashMap};
use std::fs::File;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Default number of decoded blocks kept by the LRU cache.
pub const DEFAULT_CACHE_BLOCKS: usize = 32;

/// Index-level statistics for `gsb stats --index`.
#[derive(Clone, Debug, Default)]
pub struct IndexStats {
    /// Vertices of the indexed graph.
    pub n: usize,
    /// Total clique ids (live + tombstoned) across base and deltas.
    pub cliques: u64,
    /// Largest *live* clique size.
    pub max_clique: u32,
    /// Blocks in the store (base + delta).
    pub blocks: u64,
    /// Bytes of the clique store.
    pub store_bytes: u64,
    /// Bytes of the postings file.
    pub postings_bytes: u64,
    /// `(size, count)` pairs over *live* cliques, ascending in size.
    pub size_histogram: Vec<(u32, u64)>,
    /// Live (non-tombstoned) cliques.
    pub live: u64,
    /// Tombstoned clique ids across the chain.
    pub tombstones: u64,
    /// Delta generations appended after the base (0 = clean base).
    pub delta_generations: u64,
}

/// Tiny exact LRU over decoded blocks: a stamp per entry, evict the
/// oldest. Capacities are small (default 32), so the O(capacity)
/// eviction scan is noise next to the read it avoids.
struct BlockCache {
    capacity: usize,
    stamp: u64,
    entries: HashMap<usize, (u64, Arc<Block>)>,
}

impl BlockCache {
    fn new(capacity: usize) -> Self {
        BlockCache {
            capacity: capacity.max(1),
            stamp: 0,
            entries: HashMap::new(),
        }
    }

    fn get(&mut self, block: usize) -> Option<Arc<Block>> {
        self.stamp += 1;
        let stamp = self.stamp;
        self.entries.get_mut(&block).map(|e| {
            e.0 = stamp;
            e.1.clone()
        })
    }

    /// Insert, returning whether an older entry was evicted.
    fn put(&mut self, block: usize, decoded: Arc<Block>) -> bool {
        self.stamp += 1;
        let mut evicted = false;
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&block) {
            if let Some((&oldest, _)) = self.entries.iter().min_by_key(|(_, (s, _))| *s) {
                self.entries.remove(&oldest);
                evicted = true;
            }
        }
        self.entries.insert(block, (self.stamp, decoded));
        evicted
    }
}

/// A point-in-time snapshot of the reader's I/O counters — block-cache
/// effectiveness and decode cost — for the live `/metrics` exposition.
/// Counters are cumulative since [`CliqueIndex::open`] and reset on
/// hot-reload (a fresh reader), which the serving layer reports via the
/// index `generation`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Block lookups answered from the decoded-block cache.
    pub cache_hits: u64,
    /// Block lookups that had to read and decode from disk.
    pub cache_misses: u64,
    /// Cache insertions that displaced an older block.
    pub cache_evictions: u64,
    /// Blocks successfully read, CRC-verified, and decoded.
    pub blocks_decoded: u64,
    /// Total nanoseconds spent in block read+CRC+decode.
    pub decode_ns: u64,
    /// Postings-list reads served (one per `containing` lookup).
    pub postings_reads: u64,
}

/// The reader's live I/O counters (relaxed atomics — see [`IoStats`]).
#[derive(Debug, Default)]
struct IoCounters {
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cache_evictions: AtomicU64,
    blocks_decoded: AtomicU64,
    decode_ns: AtomicU64,
    postings_reads: AtomicU64,
}

impl IoCounters {
    fn snapshot(&self) -> IoStats {
        IoStats {
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            cache_evictions: self.cache_evictions.load(Ordering::Relaxed),
            blocks_decoded: self.blocks_decoded.load(Ordering::Relaxed),
            decode_ns: self.decode_ns.load(Ordering::Relaxed),
            postings_reads: self.postings_reads.load(Ordering::Relaxed),
        }
    }
}

/// What [`CliqueIndex::materialize_degraded`] produced: every clique
/// that could be read exactly, plus how many ids were skipped because
/// their block is quarantined.
#[derive(Clone, Debug, Default)]
pub struct DegradedCliques {
    /// Exact cliques, in request order.
    pub cliques: Vec<Clique>,
    /// Ids skipped because their block is corrupt/quarantined.
    pub skipped: u64,
}

impl DegradedCliques {
    /// True when nothing was skipped — the answer is complete.
    pub fn is_complete(&self) -> bool {
        self.skipped == 0
    }
}

/// A committed on-disk index, opened read-only. See the module docs.
///
/// When the manifest records delta generations (`gsb update` ran since
/// the last base build / compaction), `open` merges the chain into a
/// unified view: one block table spanning base and delta blocks, a
/// tombstone set over the whole id space, and per-vertex postings
/// overlays. Every public query is then tombstone-aware — dead ids
/// never leak out of `containing`/`ids_of_size`/`overlap`/`max_clique`.
pub struct CliqueIndex {
    meta: IndexMeta,
    directory: IndexDirectory,
    chain: Vec<DeltaGeneration>,
    /// Unified block table: base blocks then each generation's delta
    /// blocks, ascending in `first_id`.
    blocks: Vec<BlockEntry>,
    /// Per-block vertex bound for decoding (the graph may grow across
    /// generations, so delta blocks can reference vertices ≥ base n).
    block_bound: Vec<u32>,
    /// Unified size-run table in id order (sizes ascend within the base
    /// and within each generation, not globally).
    runs: Vec<SizeRun>,
    /// Live cliques.
    live: u64,
    /// Tombstoned ids over the whole id space.
    dead: BitSet,
    /// Per-vertex postings gained after the base, ascending ids.
    overlay: HashMap<Vertex, Vec<u64>>,
    /// `(size, live count)` ascending in size.
    live_hist: Vec<(u32, u64)>,
    store: Mutex<File>,
    postings: Mutex<File>,
    cache: Mutex<BlockCache>,
    /// Blocks that failed a CRC/codec check since open. Never unset at
    /// runtime — a corrupt block stays corrupt until the index is
    /// rebuilt (and hot-reloaded, which starts a fresh reader).
    quarantined: Mutex<BTreeSet<usize>>,
    io: IoCounters,
}

impl CliqueIndex {
    /// Open the index in `dir`. Refuses an uncommitted directory (no
    /// `index.meta`) and any header/CRC/consistency violation, all as
    /// typed errors.
    pub fn open(dir: &Path) -> Result<Self, StoreError> {
        let meta_path = dir.join(META_FILE);
        if !meta_path.exists() {
            return Err(StoreError::Io(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!("{}: no index.meta — not a committed index", dir.display()),
            )));
        }
        let meta = IndexMeta::from_text(&std::fs::read_to_string(meta_path)?)?;

        // Bytes past the committed extent are a torn append from a
        // crashed update, and are ignored.
        let mut gsd = std::fs::read(dir.join(DIRECTORY_FILE))?;
        gsd.truncate(meta.dir_extent(gsd.len()));
        let mut defects = Vec::new();
        let walk = walk_chain(&gsd, &meta, &mut defects)?;
        if let Some(defect) = defects.into_iter().next() {
            return Err(defect.error);
        }
        let n = walk.directory.n;

        // Unified block table, each block with its generation's bound.
        let mut blocks = walk.directory.blocks.clone();
        let mut block_bound = vec![n; blocks.len()];
        for g in &walk.chain {
            blocks.extend_from_slice(&g.blocks);
            block_bound.extend(std::iter::repeat_n(g.n, g.blocks.len()));
        }

        let store = open_checked(&dir.join(CLIQUES_FILE), CLIQUES_MAGIC, n)?;
        let mut postings = open_checked(&dir.join(POSTINGS_FILE), POSTINGS_MAGIC, n)?;

        // Postings overlays: one eagerly-loaded frame per generation
        // (delta postings are small next to the base file).
        let mut overlay: HashMap<Vertex, Vec<u64>> = HashMap::new();
        for g in &walk.chain {
            for (v, ids) in read_delta_postings(&mut postings, g, meta.postings_bytes)? {
                overlay.entry(v).or_default().extend(ids);
            }
        }

        Ok(CliqueIndex {
            live: meta.cliques - walk.dead.count_ones() as u64,
            meta,
            directory: walk.directory,
            chain: walk.chain,
            blocks,
            block_bound,
            runs: walk.runs,
            dead: walk.dead,
            overlay,
            live_hist: walk.live_hist,
            store: Mutex::new(store),
            postings: Mutex::new(postings),
            cache: Mutex::new(BlockCache::new(DEFAULT_CACHE_BLOCKS)),
            quarantined: Mutex::new(BTreeSet::new()),
            io: IoCounters::default(),
        })
    }

    /// Override the block cache capacity (decoded blocks retained).
    pub fn cache_blocks(self, capacity: usize) -> Self {
        *self.cache.lock().unwrap() = BlockCache::new(capacity);
        self
    }

    /// Vertices of the indexed graph.
    pub fn n(&self) -> usize {
        self.meta.n
    }

    /// Rebuild generation recorded in `index.meta` (0 for indexes
    /// written before generations existed).
    pub fn generation(&self) -> u64 {
        self.meta.generation
    }

    /// Block indexes quarantined since open (ascending). Empty on a
    /// healthy index.
    pub fn quarantined_blocks(&self) -> Vec<usize> {
        self.quarantined.lock().unwrap().iter().copied().collect()
    }

    /// Snapshot of the reader's cumulative I/O counters (cache
    /// hits/misses/evictions, decode count and nanoseconds, postings
    /// reads). Lock-free; safe to call from a metrics scrape.
    pub fn io_stats(&self) -> IoStats {
        self.io.snapshot()
    }

    /// Total clique *ids* in the index — live and tombstoned. Ids are
    /// stable across updates, so this only grows until a compaction.
    pub fn len(&self) -> u64 {
        self.meta.cliques
    }

    /// Live (non-tombstoned) cliques.
    pub fn live_len(&self) -> u64 {
        self.live
    }

    /// True when the index holds no live cliques.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Whether `id` names a live clique (false for tombstoned ids and
    /// ids beyond the index).
    pub fn is_live(&self, id: u64) -> bool {
        id < self.meta.cliques && !self.dead.contains(id as usize)
    }

    /// Largest live clique size present.
    pub fn max_size(&self) -> u32 {
        self.live_hist.last().map_or(0, |&(s, _)| s)
    }

    /// Delta generations appended after the base (0 = clean base).
    pub fn delta_generations(&self) -> u64 {
        self.chain.len() as u64
    }

    /// The committed delta chain, oldest first.
    pub fn chain(&self) -> &[DeltaGeneration] {
        &self.chain
    }

    /// The committed manifest this reader opened.
    pub fn meta(&self) -> &IndexMeta {
        &self.meta
    }

    /// Size runs of the base and every generation, in id order.
    pub(crate) fn runs(&self) -> &[SizeRun] {
        &self.runs
    }

    /// Tombstoned ids, ascending.
    pub(crate) fn dead_ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.dead.iter_ones().map(|id| id as u64)
    }

    /// Index-level statistics (all from the directory — no store scan).
    pub fn stats(&self) -> IndexStats {
        IndexStats {
            n: self.meta.n,
            cliques: self.meta.cliques,
            max_clique: self.max_size(),
            blocks: self.blocks.len() as u64,
            store_bytes: self.meta.store_bytes,
            postings_bytes: self.meta.postings_bytes,
            size_histogram: self.live_hist.clone(),
            live: self.live,
            tombstones: self.meta.cliques - self.live,
            delta_generations: self.chain.len() as u64,
        }
    }

    /// Materialize the clique with id `id`. Works for tombstoned ids
    /// too (ids are never reused); callers that must not surface dead
    /// cliques filter with [`is_live`](Self::is_live) first.
    pub fn get(&self, id: u64) -> Result<Clique, StoreError> {
        let mut out = Vec::new();
        self.with_cliques([id], |_, c| {
            out.extend_from_slice(c?);
            Ok(())
        })?;
        Ok(out)
    }

    /// The id ranges of every size run (base and delta) holding cliques
    /// of exactly `size` — live and tombstoned ids alike.
    pub(crate) fn size_run_ids(
        &self,
        size: u32,
    ) -> impl Iterator<Item = std::ops::Range<u64>> + '_ {
        self.runs
            .iter()
            .filter(move |r| r.size == size)
            .map(|r| r.first_id..r.first_id + r.count)
    }

    /// `cliques-containing(v)`: ids of every *live* clique containing
    /// vertex `v`, ascending. A vertex outside the graph contains
    /// nothing; vertices added by later generations answer from the
    /// postings overlays alone.
    pub fn containing(&self, v: Vertex) -> Result<Vec<u64>, StoreError> {
        let vu = v as usize;
        if vu >= self.meta.n {
            return Ok(Vec::new());
        }
        let mut ids = if vu < self.directory.n as usize {
            self.base_postings(vu)?
        } else {
            Vec::new()
        };
        if let Some(extra) = self.overlay.get(&v) {
            // Overlay ids all postdate the base id space, so the
            // concatenation stays ascending.
            ids.extend_from_slice(extra);
        }
        ids.retain(|&id| !self.dead.contains(id as usize));
        Ok(ids)
    }

    /// Base-file postings record for a vertex below the base n.
    fn base_postings(&self, v: usize) -> Result<Vec<u64>, StoreError> {
        let range = self.directory.postings_range(v)?;
        let mut bytes = vec![0u8; (range.end - range.start) as usize];
        self.io.postings_reads.fetch_add(1, Ordering::Relaxed);
        gsb_core::failpoint::inject("index.postings_read").map_err(StoreError::Io)?;
        read_at(
            &mut *self.postings.lock().expect("postings file lock poisoned"),
            range.start,
            &mut bytes,
            "postings record",
        )?;
        decode_postings(&bytes, self.directory.clique_count)
    }

    /// `cliques-of-size(lo..=hi)` as a contiguous id range. Only valid
    /// on a chain-free index (base ids are sorted by size; delta ids
    /// are not globally, and tombstones punch holes) — chain-aware
    /// callers use [`ids_of_size`](Self::ids_of_size).
    pub fn of_size(&self, lo: u32, hi: u32) -> std::ops::Range<u64> {
        self.directory.size_range_ids(lo, hi)
    }

    /// Ids of every *live* clique with size in `lo..=hi`, ascending.
    pub fn ids_of_size(&self, lo: u32, hi: u32) -> Vec<u64> {
        let mut out = Vec::new();
        for run in &self.runs {
            if run.size < lo || run.size > hi {
                continue;
            }
            out.extend(
                (run.first_id..run.first_id + run.count)
                    .filter(|&id| !self.dead.contains(id as usize)),
            );
        }
        out
    }

    /// The lexicographically first maximum *live* clique (None when
    /// empty). Within any one run cliques ascend lexicographically, so
    /// only the first live id of each max-size run is materialized.
    pub fn max_clique(&self) -> Result<Option<Clique>, StoreError> {
        let Some(&(target, _)) = self.live_hist.last() else {
            return Ok(None);
        };
        let first_live = self
            .runs
            .iter()
            .filter(|r| r.size == target)
            .filter_map(|run| {
                (run.first_id..run.first_id + run.count)
                    .find(|&id| !self.dead.contains(id as usize))
            });
        let mut best: Option<Clique> = None;
        self.with_cliques(first_live, |_, c| {
            let c = c?;
            if best.as_ref().is_none_or(|b| c < b.as_slice()) {
                best = Some(c.to_vec());
            }
            Ok(())
        })?;
        Ok(best)
    }

    /// `overlap(v, w)`: ids of *live* cliques containing both vertices,
    /// by merging their ascending postings.
    pub fn overlap(&self, v: Vertex, w: Vertex) -> Result<Vec<u64>, StoreError> {
        Ok(intersect_sorted(&self.containing(v)?, &self.containing(w)?))
    }

    /// Materialize a batch of ids (helper for range and postings
    /// queries).
    pub fn materialize(
        &self,
        ids: impl IntoIterator<Item = u64>,
    ) -> Result<Vec<Clique>, StoreError> {
        let mut out = Vec::new();
        self.with_cliques(ids, |_, c| {
            out.push(c?.to_vec());
            Ok(())
        })?;
        Ok(out)
    }

    /// The one id → block walk behind every clique read. `f` sees each
    /// id in turn with its clique borrowed from the decoded block, or
    /// with the error that kept it from being read; an error `f` returns
    /// ends the walk. Consecutive ids in one block cost one cache lookup,
    /// so ascending ids (what postings and size queries return) load
    /// each block once. Once a block fails a corruption check, the rest
    /// of its run gets the quarantine error without another lookup.
    pub fn with_cliques(
        &self,
        ids: impl IntoIterator<Item = u64>,
        mut f: impl FnMut(u64, Result<&[Vertex], StoreError>) -> Result<(), StoreError>,
    ) -> Result<(), StoreError> {
        // The current run's block, `None` once it failed as corrupt.
        let mut run: Option<(usize, Option<Arc<Block>>)> = None;
        for id in ids {
            if id >= self.meta.cliques {
                f(
                    id,
                    Err(StoreError::Codec {
                        context: "clique id beyond the index",
                    }),
                )?;
                continue;
            }
            let block_i = self
                .blocks
                .partition_point(|b| b.first_id <= id)
                .saturating_sub(1);
            if run.as_ref().is_none_or(|(i, _)| *i != block_i) {
                match self.load_block(block_i) {
                    Ok(block) => run = Some((block_i, Some(block))),
                    Err(e) => {
                        run = is_corruption(&e).then_some((block_i, None));
                        f(id, Err(e))?;
                        continue;
                    }
                }
            }
            let entry = &self.blocks[block_i];
            let clique = match &run {
                Some((_, Some(block))) => {
                    block
                        .get((id - entry.first_id) as usize)
                        .ok_or(StoreError::CountMismatch {
                            expected: entry.count as usize,
                            found: block.len(),
                        })
                }
                _ => Err(StoreError::Codec {
                    context: "clique block quarantined",
                }),
            };
            f(id, clique)?;
        }
        Ok(())
    }

    /// Materialize a batch of ids, *skipping* (and counting) any id
    /// whose block is quarantined or fails its corruption checks right
    /// now. Transient I/O errors still propagate — only corruption is
    /// degradable, because every clique actually returned stays exact.
    pub fn materialize_degraded(
        &self,
        ids: impl IntoIterator<Item = u64>,
    ) -> Result<DegradedCliques, StoreError> {
        let mut out = DegradedCliques::default();
        self.with_cliques(ids, |_, c| {
            match c {
                Ok(c) => out.cliques.push(c.to_vec()),
                Err(e) if is_corruption(&e) => out.skipped += 1,
                Err(e) => return Err(e),
            }
            Ok(())
        })?;
        Ok(out)
    }

    fn load_block(&self, block_i: usize) -> Result<Arc<Block>, StoreError> {
        if let Some(hit) = self.cache.lock().unwrap().get(block_i) {
            self.io.cache_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(hit);
        }
        self.io.cache_misses.fetch_add(1, Ordering::Relaxed);
        if self.quarantined.lock().unwrap().contains(&block_i) {
            return Err(StoreError::Codec {
                context: "clique block quarantined",
            });
        }
        let result = self.load_block_uncached(block_i);
        if let Err(e) = &result {
            // Corruption is permanent for this reader's lifetime; a
            // transient I/O failure (including injected faults) is not.
            if is_corruption(e) {
                self.quarantined.lock().unwrap().insert(block_i);
            }
        }
        result
    }

    fn load_block_uncached(&self, block_i: usize) -> Result<Arc<Block>, StoreError> {
        let decode_started = Instant::now();
        let entry = self.blocks.get(block_i).ok_or(StoreError::Codec {
            context: "block table",
        })?;
        gsb_core::failpoint::inject("index.block_read").map_err(StoreError::Io)?;
        let frame = read_frame_at(
            &mut *self.store.lock().expect("store file lock poisoned"),
            entry.offset,
            self.meta.store_bytes,
            "clique block",
        )?;
        let block = Arc::new(decode_block(&frame, entry, self.block_bound[block_i])?);
        self.io.blocks_decoded.fetch_add(1, Ordering::Relaxed);
        self.io.decode_ns.fetch_add(
            decode_started.elapsed().as_nanos() as u64,
            Ordering::Relaxed,
        );
        if self.cache.lock().unwrap().put(block_i, block.clone()) {
            self.io.cache_evictions.fetch_add(1, Ordering::Relaxed);
        }
        Ok(block)
    }
}

/// Errors that indicate corrupt bytes (permanent until a rebuild), as
/// opposed to transient I/O failures a retry could clear.
fn is_corruption(e: &StoreError) -> bool {
    !matches!(e, StoreError::Io(_))
}

/// Open a file and validate its 16-byte header against `magic` and the
/// directory's vertex count.
fn open_checked(path: &Path, magic: u64, n: u32) -> Result<File, StoreError> {
    let mut f = File::open(path)?;
    let mut header = [0u8; HEADER_LEN];
    read_at(&mut f, 0, &mut header, "index file header")?;
    let file_n = check_header(&header, magic, "index file header")?;
    if file_n != n {
        return Err(StoreError::GraphMismatch {
            checkpoint_bits: file_n as usize,
            graph_bits: n as usize,
        });
    }
    Ok(f)
}

/// Linear merge intersection of two ascending id lists.
pub(crate) fn intersect_sorted(a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::IndexWriter;
    use gsb_core::CliqueSink;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("gsb-index-reader-{}-{name}", std::process::id()))
    }

    fn build(dir: &Path, n: usize, cliques: &[&[Vertex]]) {
        let _ = std::fs::remove_dir_all(dir);
        let mut w = IndexWriter::create(dir, n).unwrap().block_target(24);
        for c in cliques {
            w.maximal(c);
        }
        w.finish().unwrap();
    }

    #[test]
    fn queries_answer_from_disk() {
        let dir = tmp("basic");
        build(
            &dir,
            10,
            &[
                &[0, 1, 2],
                &[2, 3, 4],
                &[5, 6, 7],
                &[0, 1, 2, 3],
                &[4, 5, 6, 7],
            ],
        );
        let idx = CliqueIndex::open(&dir).unwrap();
        assert_eq!(idx.len(), 5);
        assert_eq!(idx.n(), 10);
        assert_eq!(idx.max_size(), 4);
        assert_eq!(idx.get(1).unwrap(), vec![2, 3, 4]);
        assert_eq!(idx.containing(2).unwrap(), vec![0, 1, 3]);
        assert_eq!(idx.containing(9).unwrap(), Vec::<u64>::new());
        assert_eq!(idx.containing(99).unwrap(), Vec::<u64>::new());
        assert_eq!(idx.of_size(3, 3), 0..3);
        assert_eq!(idx.of_size(4, 10), 3..5);
        assert_eq!(idx.of_size(9, 10), 0..0);
        assert_eq!(idx.max_clique().unwrap().unwrap(), vec![0, 1, 2, 3]);
        assert_eq!(idx.overlap(0, 3).unwrap(), vec![3]);
        assert_eq!(idx.overlap(0, 9).unwrap(), Vec::<u64>::new());
        let stats = idx.stats();
        assert_eq!(stats.cliques, 5);
        assert_eq!(stats.size_histogram, vec![(3, 3), (4, 2)]);
        assert!(stats.postings_bytes > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_eviction_keeps_answers_identical() {
        let dir = tmp("cache");
        let cliques: Vec<Vec<Vertex>> = (0..40).map(|i| vec![i, i + 1, i + 2]).collect();
        let refs: Vec<&[Vertex]> = cliques.iter().map(Vec::as_slice).collect();
        build(&dir, 50, &refs);
        let idx = CliqueIndex::open(&dir).unwrap().cache_blocks(2);
        for round in 0..3 {
            for id in 0..40u64 {
                assert_eq!(idx.get(id).unwrap(), cliques[id as usize], "round {round}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn io_stats_track_cache_and_decode_activity() {
        let dir = tmp("iostats");
        let cliques: Vec<Vec<Vertex>> = (0..40).map(|i| vec![i, i + 1, i + 2]).collect();
        let refs: Vec<&[Vertex]> = cliques.iter().map(Vec::as_slice).collect();
        build(&dir, 50, &refs);
        let idx = CliqueIndex::open(&dir).unwrap().cache_blocks(2);
        assert_eq!(idx.io_stats(), IoStats::default());

        let blocks = idx.directory.blocks.len() as u64;
        assert!(blocks > 2, "need >2 blocks to exercise eviction");
        // A full scan decodes every block once; with capacity 2 the
        // later blocks evict the earlier ones.
        for id in 0..40u64 {
            idx.get(id).unwrap();
        }
        let s = idx.io_stats();
        assert_eq!(s.blocks_decoded, blocks);
        assert_eq!(s.cache_misses, blocks);
        assert_eq!(s.cache_evictions, blocks - 2);
        assert_eq!(s.cache_hits, 40 - blocks);
        assert!(s.decode_ns > 0);
        assert_eq!(s.postings_reads, 0);

        // A repeat of the last id is a pure cache hit.
        idx.get(39).unwrap();
        let s2 = idx.io_stats();
        assert_eq!(s2.cache_hits, s.cache_hits + 1);
        assert_eq!(s2.blocks_decoded, s.blocks_decoded);

        idx.containing(3).unwrap();
        assert_eq!(idx.io_stats().postings_reads, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_block_is_quarantined_and_serving_degrades_exact() {
        let dir = tmp("quarantine");
        let cliques: Vec<Vec<Vertex>> = (0..40).map(|i| vec![i, i + 1, i + 2]).collect();
        let refs: Vec<&[Vertex]> = cliques.iter().map(Vec::as_slice).collect();
        build(&dir, 50, &refs);

        // Flip one byte inside the *last* block's payload so earlier
        // blocks stay healthy.
        let idx = CliqueIndex::open(&dir).unwrap();
        let last_block = idx.directory.blocks.len() - 1;
        assert!(last_block > 0, "need multiple blocks for this test");
        let offset = idx.directory.blocks[last_block].offset as usize;
        drop(idx);
        let path = dir.join(CLIQUES_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[offset + 10] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        let idx = CliqueIndex::open(&dir).unwrap();
        let first_bad = idx.directory.blocks[last_block].first_id;
        // Healthy ids still answer exactly.
        assert_eq!(idx.get(0).unwrap(), cliques[0]);
        // The corrupt block fails typed and lands in quarantine.
        assert!(is_corruption(&idx.get(first_bad).unwrap_err()));
        assert_eq!(idx.quarantined_blocks(), vec![last_block]);
        // A second hit fails fast (still typed, still quarantined once).
        assert!(idx.get(first_bad).is_err());
        assert_eq!(idx.quarantined_blocks(), vec![last_block]);
        // Degraded materialization skips exactly the quarantined ids.
        let all: Vec<u64> = (0..40).collect();
        let degraded = idx.materialize_degraded(all).unwrap();
        assert_eq!(degraded.skipped, 40 - first_bad);
        assert!(!degraded.is_complete());
        assert_eq!(degraded.cliques.len() as u64, first_bad);
        for (i, c) in degraded.cliques.iter().enumerate() {
            assert_eq!(c, &cliques[i]);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn uncommitted_or_missing_dir_is_typed() {
        let dir = tmp("missing");
        let _ = std::fs::remove_dir_all(&dir);
        assert!(matches!(CliqueIndex::open(&dir), Err(StoreError::Io(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
