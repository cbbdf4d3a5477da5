//! [`CliqueIndex`] — the read-only query engine over a committed index.
//!
//! `open` loads the manifest and directory into memory (a few bytes per
//! size run, block, and vertex) and keeps the store and postings files
//! open; queries then touch only the frames they need. Decoded blocks
//! sit in a small LRU cache, so point lookups in a hot id range skip
//! both the read and the CRC pass. All shared state is behind mutexes,
//! making one `CliqueIndex` safely shareable across server threads via
//! `Arc`.
//!
//! Every decode path bound-checks against the directory and verifies
//! the frame CRC: a corrupted block surfaces as a typed
//! [`StoreError`], never a panic or a silently wrong answer.
//!
//! Corruption is additionally *quarantined*: a block that fails its
//! CRC/codec checks is remembered in an in-memory set, so later queries
//! fail fast without re-reading it, and the serving layer can answer
//! **degraded-exact** via [`CliqueIndex::materialize_degraded`] — every
//! clique returned is exact, quarantined ids are skipped and counted.
//! Transient I/O errors do *not* quarantine (a retry may succeed).

use crate::format::{
    check_header, decode_delta_postings, parse_frame, BlockEntry, DeltaGeneration, IndexDirectory,
    IndexMeta, SizeRun, CLIQUES_FILE, CLIQUES_MAGIC, DIRECTORY_FILE, DIRECTORY_MAGIC, HEADER_LEN,
    META_FILE, POSTINGS_FILE, POSTINGS_MAGIC,
};
use gsb_bitset::BitSet;
use gsb_core::store::StoreError;
use gsb_core::{Clique, Vertex};
use std::collections::{BTreeSet, HashMap};
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
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
    entries: HashMap<usize, (u64, Arc<Vec<Clique>>)>,
}

impl BlockCache {
    fn new(capacity: usize) -> Self {
        BlockCache {
            capacity: capacity.max(1),
            stamp: 0,
            entries: HashMap::new(),
        }
    }

    fn get(&mut self, block: usize) -> Option<Arc<Vec<Clique>>> {
        self.stamp += 1;
        let stamp = self.stamp;
        self.entries.get_mut(&block).map(|e| {
            e.0 = stamp;
            e.1.clone()
        })
    }

    /// Insert, returning whether an older entry was evicted.
    fn put(&mut self, block: usize, cliques: Arc<Vec<Clique>>) -> bool {
        self.stamp += 1;
        let mut evicted = false;
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&block) {
            if let Some((&oldest, _)) = self.entries.iter().min_by_key(|(_, (s, _))| *s) {
                self.entries.remove(&oldest);
                evicted = true;
            }
        }
        self.entries.insert(block, (self.stamp, cliques));
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
    /// Total clique ids (live + dead).
    total: u64,
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

        let gsd = std::fs::read(dir.join(DIRECTORY_FILE))?;
        // The manifest pins the committed extent of the directory file;
        // bytes past it are a torn append from a crashed update and are
        // ignored (pre-chain manifests record 0 = "the whole file").
        let committed = if meta.dir_bytes == 0 {
            gsd.len()
        } else {
            meta.dir_bytes as usize
        };
        if gsd.len() < committed {
            return Err(StoreError::Torn {
                context: "index directory file",
                needed: committed,
                have: gsd.len(),
            });
        }
        let gsd = &gsd[..committed];
        let n = check_header(gsd, DIRECTORY_MAGIC, "index directory header")?;
        let (payload, mut pos) = parse_frame(gsd, HEADER_LEN, "index directory")?;
        let directory = IndexDirectory::decode(payload)?;
        if directory.n != n {
            return Err(StoreError::GraphMismatch {
                checkpoint_bits: directory.n as usize,
                graph_bits: n as usize,
            });
        }
        if directory.postings_offsets.len() != directory.n as usize + 1 {
            return Err(StoreError::CountMismatch {
                expected: directory.n as usize + 1,
                found: directory.postings_offsets.len(),
            });
        }
        let mut chain = Vec::new();
        while pos < gsd.len() {
            let (payload, next) = parse_frame(gsd, pos, "delta generation")?;
            chain.push(DeltaGeneration::decode(payload)?);
            pos = next;
        }
        if chain.len() as u64 != meta.delta_generations {
            return Err(StoreError::CountMismatch {
                expected: meta.delta_generations as usize,
                found: chain.len(),
            });
        }

        // Chain consistency against the manifest: contiguous id space,
        // monotone vertex growth, strictly increasing generations
        // ending at the manifest's, and contiguous postings extents.
        let mut total = directory.clique_count;
        let mut max_n = directory.n;
        let mut post_end = directory.postings_bytes;
        let mut tombstone_total = 0u64;
        let mut prev_generation = 0u64;
        for g in &chain {
            if g.first_id != total
                || g.n < max_n
                || g.postings_offset != post_end
                || g.generation <= prev_generation
            {
                return Err(StoreError::Codec {
                    context: "delta chain discontinuity",
                });
            }
            total += g.count;
            max_n = g.n;
            post_end += g.postings_len;
            tombstone_total += g.tombstones.len() as u64;
            prev_generation = g.generation;
        }
        if let Some(last) = chain.last() {
            if last.generation != meta.generation {
                return Err(StoreError::Codec {
                    context: "delta chain generation does not match manifest",
                });
            }
        }
        if total != meta.cliques || tombstone_total != meta.tombstones {
            return Err(StoreError::CountMismatch {
                expected: meta.cliques as usize,
                found: total as usize,
            });
        }
        if max_n as usize != meta.n {
            return Err(StoreError::GraphMismatch {
                checkpoint_bits: max_n as usize,
                graph_bits: meta.n,
            });
        }
        if post_end != meta.postings_bytes {
            return Err(StoreError::CountMismatch {
                expected: meta.postings_bytes as usize,
                found: post_end as usize,
            });
        }

        // Unified block / size-run tables.
        let mut blocks = directory.blocks.clone();
        let mut block_bound = vec![directory.n; blocks.len()];
        let mut runs = directory.size_runs.clone();
        for g in &chain {
            blocks.extend_from_slice(&g.blocks);
            block_bound.extend(std::iter::repeat_n(g.n, g.blocks.len()));
            runs.extend_from_slice(&g.size_runs);
        }
        if blocks.len() as u64 != meta.blocks {
            return Err(StoreError::CountMismatch {
                expected: meta.blocks as usize,
                found: blocks.len(),
            });
        }

        // Tombstones → dead set. Double kills are corruption: every id
        // dies at most once across the whole chain.
        let mut dead = BitSet::new(total as usize);
        for g in &chain {
            for &id in &g.tombstones {
                if !dead.insert(id as usize) {
                    return Err(StoreError::Codec {
                        context: "tombstone kills an already-dead clique",
                    });
                }
            }
        }
        let live = total - tombstone_total;

        // Live histogram: run totals minus each dead id's run.
        let mut hist: std::collections::BTreeMap<u32, u64> = std::collections::BTreeMap::new();
        for run in &runs {
            *hist.entry(run.size).or_insert(0) += run.count;
        }
        for id in dead.iter_ones() {
            let run_i = runs
                .partition_point(|r| r.first_id <= id as u64)
                .saturating_sub(1);
            let size = runs[run_i].size;
            match hist.get_mut(&size) {
                Some(c) if *c > 0 => *c -= 1,
                _ => {
                    return Err(StoreError::Codec {
                        context: "tombstone outside any size run",
                    })
                }
            }
        }
        let live_hist: Vec<(u32, u64)> = hist.into_iter().filter(|&(_, c)| c > 0).collect();

        let store = open_checked(&dir.join(CLIQUES_FILE), CLIQUES_MAGIC, directory.n)?;
        let mut postings = open_checked(&dir.join(POSTINGS_FILE), POSTINGS_MAGIC, directory.n)?;

        // Postings overlays: one eagerly-loaded frame per generation
        // (delta postings are small next to the base file).
        let mut overlay: HashMap<Vertex, Vec<u64>> = HashMap::new();
        for g in &chain {
            let mut bytes = vec![0u8; g.postings_len as usize];
            postings.seek(SeekFrom::Start(g.postings_offset))?;
            read_exact_typed(&mut postings, &mut bytes, "delta postings frame")?;
            let (payload, next) = parse_frame(&bytes, 0, "delta postings frame")?;
            if next != bytes.len() {
                return Err(StoreError::Codec {
                    context: "delta postings frame",
                });
            }
            for (v, ids) in
                decode_delta_postings(payload, g.n, g.id_range(), "delta postings frame")?
            {
                overlay.entry(v).or_default().extend(ids);
            }
        }

        Ok(CliqueIndex {
            meta,
            directory,
            chain,
            blocks,
            block_bound,
            runs,
            total,
            live,
            dead,
            overlay,
            live_hist,
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
        self.total
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
        id < self.total && !self.dead.contains(id as usize)
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

    /// Index-level statistics (all from the directory — no store scan).
    pub fn stats(&self) -> IndexStats {
        IndexStats {
            n: self.meta.n,
            cliques: self.total,
            max_clique: self.max_size(),
            blocks: self.blocks.len() as u64,
            store_bytes: self.meta.store_bytes,
            postings_bytes: self.meta.postings_bytes,
            size_histogram: self.live_hist.clone(),
            live: self.live,
            tombstones: self.total - self.live,
            delta_generations: self.chain.len() as u64,
        }
    }

    /// Materialize the clique with id `id`. Works for tombstoned ids
    /// too (ids are never reused); callers that must not surface dead
    /// cliques filter with [`is_live`](Self::is_live) first.
    pub fn get(&self, id: u64) -> Result<Clique, StoreError> {
        if id >= self.total {
            return Err(StoreError::Codec {
                context: "clique id beyond the index",
            });
        }
        let block_i = self
            .blocks
            .partition_point(|b| b.first_id <= id)
            .saturating_sub(1);
        let block = self.load_block(block_i)?;
        let entry = &self.blocks[block_i];
        let within = (id - entry.first_id) as usize;
        block.get(within).cloned().ok_or(StoreError::CountMismatch {
            expected: entry.count as usize,
            found: block.len(),
        })
    }

    /// Size of the clique with id `id`, from the run table alone (no
    /// store read).
    pub fn size_of(&self, id: u64) -> Option<u32> {
        if id >= self.total {
            return None;
        }
        let run_i = self
            .runs
            .partition_point(|r| r.first_id <= id)
            .saturating_sub(1);
        Some(self.runs[run_i].size)
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
        let start = self.directory.postings_offsets[v];
        let end = self.directory.postings_offsets[v + 1];
        if end < start || end > self.directory.postings_bytes {
            return Err(StoreError::Codec {
                context: "postings offsets",
            });
        }
        let mut bytes = vec![0u8; (end - start) as usize];
        self.io.postings_reads.fetch_add(1, Ordering::Relaxed);
        {
            gsb_core::failpoint::inject("index.postings_read").map_err(StoreError::Io)?;
            let mut f = self.postings.lock().unwrap();
            f.seek(SeekFrom::Start(start))?;
            read_exact_typed(&mut f, &mut bytes, "postings record")?;
        }
        let (payload, _) = parse_frame(&bytes, 0, "postings record")?;
        let mut pos = 0usize;
        let ids = crate::format::decode_id_list(
            payload,
            &mut pos,
            self.directory.clique_count,
            "postings record",
        )?;
        if pos != payload.len() {
            return Err(StoreError::Codec {
                context: "postings record",
            });
        }
        Ok(ids)
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
        let mut best: Option<Clique> = None;
        for run in &self.runs {
            if run.size != target {
                continue;
            }
            let first_live = (run.first_id..run.first_id + run.count)
                .find(|&id| !self.dead.contains(id as usize));
            if let Some(id) = first_live {
                let c = self.get(id)?;
                if best.as_ref().is_none_or(|b| c < *b) {
                    best = Some(c);
                }
            }
        }
        Ok(best)
    }

    /// `overlap(v, w)`: ids of *live* cliques containing both vertices,
    /// via postings intersection on the dense [`BitSet`].
    pub fn overlap(&self, v: Vertex, w: Vertex) -> Result<Vec<u64>, StoreError> {
        let a = self.containing(v)?;
        let b = self.containing(w)?;
        if a.is_empty() || b.is_empty() {
            return Ok(Vec::new());
        }
        let universe = self.total as usize;
        let mut set = BitSet::from_ones(universe, a.iter().map(|&id| id as usize));
        let other = BitSet::from_ones(universe, b.iter().map(|&id| id as usize));
        set.and_assign(&other);
        Ok(set.iter_ones().map(|id| id as u64).collect())
    }

    /// Materialize a batch of ids (helper for range and postings
    /// queries).
    pub fn materialize(
        &self,
        ids: impl IntoIterator<Item = u64>,
    ) -> Result<Vec<Clique>, StoreError> {
        let ids: Vec<u64> = ids.into_iter().collect();
        let mut out = Vec::with_capacity(ids.len());
        self.with_cliques(&ids, |_, c| out.push(c.clone()))?;
        Ok(out)
    }

    /// Visit a batch of ids, borrowing each decoded clique in place —
    /// one cache lookup per block *run* instead of per id, and no
    /// per-clique allocation. Ascending ids (what postings queries
    /// return) visit each block exactly once, so bulk scans over a
    /// postings list cost one decode per block instead of one per id.
    pub fn with_cliques(
        &self,
        ids: &[u64],
        mut f: impl FnMut(u64, &Clique),
    ) -> Result<(), StoreError> {
        let mut cached: Option<(usize, Arc<Vec<Clique>>)> = None;
        for &id in ids {
            if id >= self.total {
                return Err(StoreError::Codec {
                    context: "clique id beyond the index",
                });
            }
            let block_i = self
                .blocks
                .partition_point(|b| b.first_id <= id)
                .saturating_sub(1);
            if cached.as_ref().is_none_or(|(i, _)| *i != block_i) {
                cached = Some((block_i, self.load_block(block_i)?));
            }
            let (_, block) = cached.as_ref().expect("block just cached");
            let entry = &self.blocks[block_i];
            let within = (id - entry.first_id) as usize;
            let c = block.get(within).ok_or(StoreError::CountMismatch {
                expected: entry.count as usize,
                found: block.len(),
            })?;
            f(id, c);
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
        for id in ids {
            match self.get(id) {
                Ok(c) => out.cliques.push(c),
                Err(e) if is_corruption(&e) => out.skipped += 1,
                Err(e) => return Err(e),
            }
        }
        Ok(out)
    }

    fn load_block(&self, block_i: usize) -> Result<Arc<Vec<Clique>>, StoreError> {
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

    fn load_block_uncached(&self, block_i: usize) -> Result<Arc<Vec<Clique>>, StoreError> {
        let decode_started = Instant::now();
        let entry = self.blocks.get(block_i).ok_or(StoreError::Codec {
            context: "block table",
        })?;
        let bound = self.block_bound[block_i];
        gsb_core::failpoint::inject("index.block_read").map_err(StoreError::Io)?;
        let mut head = [0u8; 8];
        let payload = {
            let mut f = self.store.lock().unwrap();
            f.seek(SeekFrom::Start(entry.offset))?;
            read_exact_typed(&mut f, &mut head, "clique block frame")?;
            let len = u32::from_le_bytes(head[..4].try_into().unwrap()) as usize;
            if len > self.meta.store_bytes as usize {
                return Err(StoreError::Torn {
                    context: "clique block frame",
                    needed: len,
                    have: self.meta.store_bytes as usize,
                });
            }
            let mut payload = vec![0u8; len];
            read_exact_typed(&mut f, &mut payload, "clique block")?;
            payload
        };
        let stored = u32::from_le_bytes(head[4..8].try_into().unwrap());
        let computed = gsb_core::store::crc32(&payload);
        if stored != computed {
            return Err(StoreError::Checksum {
                context: "clique block",
                stored,
                computed,
            });
        }
        if payload.len() < 4 {
            return Err(StoreError::Torn {
                context: "clique block",
                needed: 4,
                have: payload.len(),
            });
        }
        let count = u32::from_le_bytes(payload[..4].try_into().unwrap());
        if count != entry.count {
            return Err(StoreError::CountMismatch {
                expected: entry.count as usize,
                found: count as usize,
            });
        }
        let mut pos = 4usize;
        let mut cliques = Vec::with_capacity(count as usize);
        for _ in 0..count {
            cliques.push(crate::format::decode_clique(
                &payload,
                &mut pos,
                bound,
                "clique record",
            )?);
        }
        if pos != payload.len() {
            return Err(StoreError::Codec {
                context: "clique block",
            });
        }
        let cliques = Arc::new(cliques);
        self.io.blocks_decoded.fetch_add(1, Ordering::Relaxed);
        self.io.decode_ns.fetch_add(
            decode_started.elapsed().as_nanos() as u64,
            Ordering::Relaxed,
        );
        if self.cache.lock().unwrap().put(block_i, cliques.clone()) {
            self.io.cache_evictions.fetch_add(1, Ordering::Relaxed);
        }
        Ok(cliques)
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
    read_exact_typed(&mut f, &mut header, "index file header")?;
    let file_n = check_header(&header, magic, "index file header")?;
    if file_n != n {
        return Err(StoreError::GraphMismatch {
            checkpoint_bits: file_n as usize,
            graph_bits: n as usize,
        });
    }
    Ok(f)
}

/// `read_exact` with short reads surfaced as typed truncation.
fn read_exact_typed(f: &mut File, buf: &mut [u8], context: &'static str) -> Result<(), StoreError> {
    f.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            StoreError::Torn {
                context,
                needed: buf.len(),
                have: 0,
            }
        } else {
            StoreError::Io(e)
        }
    })
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
