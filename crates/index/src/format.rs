//! On-disk byte layout of the clique index (DESIGN.md §11).
//!
//! An index directory holds four files, every binary structure framed
//! `[payload_len: u32 LE][crc32(payload): u32 LE][payload]` by the
//! checkpoint format's own codec (`gsb_core::store::{frame,
//! parse_frame}`), so torn writes and bit rot surface as typed
//! [`StoreError`]s — never as panics or silently wrong answers:
//!
//! * `cliques.gsi` — the clique store: a 16-byte header followed by
//!   CRC-framed blocks; each block payload is a record count then
//!   length-prefixed, delta-encoded (LEB128 varint) vertex lists.
//! * `postings.gsp` — per-vertex postings: a header then one CRC-framed
//!   record per vertex, each a count plus delta-encoded clique ids.
//! * `index.gsd` — the directory: a header then one CRC-framed payload
//!   holding the size runs, the block table, and the postings offsets.
//! * `index.meta` — a key=value text manifest, written last by
//!   tmp-then-rename: its presence is the commit point of the index.
//!
//! This module is the one place those layouts are encoded and checked.
//! `BlockBuilder` writes store blocks for `gsb index` and `gsb update`;
//! `read_frame_at` and `decode_block` read them back, each block as one
//! flat `Block`, for the reader and `gsb scrub`; `walk_chain` decodes
//! `index.gsd` and cross-checks it against the manifest for both;
//! `live_histogram`, `decode_postings`, `read_delta_postings` and
//! `patched_graph` are the other rules they share.

use gsb_bitset::BitSet;
use gsb_core::store::{crc32, parse_frame, StoreError};
use gsb_core::Vertex;
use gsb_graph::BitGraph;
use std::collections::BTreeMap;
use std::io::{Read, Seek, SeekFrom, Write};
use std::ops::Range;

/// Clique store file name.
pub const CLIQUES_FILE: &str = "cliques.gsi";
/// Postings file name.
pub const POSTINGS_FILE: &str = "postings.gsp";
/// Directory file name.
pub const DIRECTORY_FILE: &str = "index.gsd";
/// Manifest file name — the commit point.
pub const META_FILE: &str = "index.meta";
/// Graph snapshot file name (written by `gsb index` / `gsb compact`;
/// required by `gsb update` to patch the graph without the original
/// edge list).
pub const GRAPH_FILE: &str = "graph.gsg";
/// Scratch directory used by `gsb compact` while folding a delta chain
/// into a fresh base; a valid inner manifest marks a swap in progress.
pub const COMPACT_TMP_DIR: &str = "compact.tmp";

/// `"SC05ICS1"` — index clique store, format 1.
pub const CLIQUES_MAGIC: u64 = 0x5343_3035_4943_5331;
/// `"SC05IPL1"` — index postings lists, format 1.
pub const POSTINGS_MAGIC: u64 = 0x5343_3035_4950_4C31;
/// `"SC05IDR1"` — index directory, format 1.
pub const DIRECTORY_MAGIC: u64 = 0x5343_3035_4944_5231;
/// `"SC05IGR1"` — index graph snapshot, format 1.
pub const GRAPH_MAGIC: u64 = 0x5343_3035_4947_5231;

/// Bytes of the fixed file header: magic, bitmap width, header CRC.
pub const HEADER_LEN: usize = 16;

/// Build the 16-byte file header: `magic: u64 LE, n: u32 LE,
/// crc32(first 12 bytes): u32 LE`.
pub fn header_bytes(magic: u64, n: u32) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[..8].copy_from_slice(&magic.to_le_bytes());
    h[8..12].copy_from_slice(&n.to_le_bytes());
    let crc = crc32(&h[..12]);
    h[12..16].copy_from_slice(&crc.to_le_bytes());
    h
}

/// Validate a file header against `magic`; returns the recorded `n`.
pub fn check_header(bytes: &[u8], magic: u64, context: &'static str) -> Result<u32, StoreError> {
    if bytes.len() < HEADER_LEN {
        return Err(StoreError::Torn {
            context,
            needed: HEADER_LEN,
            have: bytes.len(),
        });
    }
    let stored_crc = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
    let computed = crc32(&bytes[..12]);
    if stored_crc != computed {
        return Err(StoreError::Checksum {
            context,
            stored: stored_crc,
            computed,
        });
    }
    let found = u64::from_le_bytes(bytes[..8].try_into().unwrap());
    if found != magic {
        return Err(StoreError::BadMagic { found });
    }
    Ok(u32::from_le_bytes(bytes[8..12].try_into().unwrap()))
}

/// Fill `buf` from byte `offset` of `f`; a short read is typed
/// truncation.
pub(crate) fn read_at(
    f: &mut (impl Read + Seek),
    offset: u64,
    buf: &mut [u8],
    context: &'static str,
) -> Result<(), StoreError> {
    f.seek(SeekFrom::Start(offset))?;
    f.read_exact(buf).map_err(|e| match e.kind() {
        std::io::ErrorKind::UnexpectedEof => StoreError::Torn {
            context,
            needed: buf.len(),
            have: 0,
        },
        _ => StoreError::Io(e),
    })
}

/// Read the whole frame at `offset`: its 8-byte head, then the payload
/// the head declares, unverified ([`parse_frame`] checks it). A length
/// beyond `extent`, the file's committed bytes, is refused before it is
/// allocated, as the short read it would be.
pub(crate) fn read_frame_at(
    f: &mut (impl Read + Seek),
    offset: u64,
    extent: u64,
    context: &'static str,
) -> Result<Vec<u8>, StoreError> {
    let mut frame = vec![0u8; 8];
    read_at(f, offset, &mut frame, context)?;
    let len = u32::from_le_bytes(frame[..4].try_into().expect("4-byte slice")) as usize;
    if len as u64 > extent {
        return Err(StoreError::Torn {
            context,
            needed: len,
            have: 0,
        });
    }
    frame.resize(8 + len, 0);
    read_at(f, offset + 8, &mut frame[8..], context)?;
    Ok(frame)
}

/// Append a LEB128 varint.
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Decode a LEB128 varint at `*pos`, advancing it. Bounded to 10 bytes;
/// anything longer (or a short read) is a typed codec error.
pub fn get_varint(buf: &[u8], pos: &mut usize, context: &'static str) -> Result<u64, StoreError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let Some(&byte) = buf.get(*pos) else {
            return Err(StoreError::Torn {
                context,
                needed: *pos + 1,
                have: buf.len(),
            });
        };
        *pos += 1;
        if shift >= 64 {
            return Err(StoreError::Codec { context });
        }
        v |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Encode one clique record into a block payload: `len` as varint, the
/// first vertex, then the gaps between consecutive (strictly ascending)
/// vertices. Gaps of a sorted clique are ≥ 1, so delta coding plus
/// LEB128 keeps genome-scale vertex ids to one or two bytes each.
pub fn encode_clique(buf: &mut Vec<u8>, clique: &[Vertex]) {
    put_varint(buf, clique.len() as u64);
    let mut prev = 0u64;
    for (i, &v) in clique.iter().enumerate() {
        let v = u64::from(v);
        if i == 0 {
            put_varint(buf, v);
        } else {
            put_varint(buf, v - prev);
        }
        prev = v;
    }
}

/// Decode one clique record, appending its vertices to `out`; `n`
/// bounds both the clique length and the vertex ids so corrupted
/// lengths fail typed instead of allocating. On error `out` may hold
/// part of the record.
pub fn decode_clique(
    buf: &[u8],
    pos: &mut usize,
    n: u32,
    out: &mut Vec<Vertex>,
    context: &'static str,
) -> Result<(), StoreError> {
    let len = get_varint(buf, pos, context)?;
    if len == 0 || len > u64::from(n) {
        return Err(StoreError::Codec { context });
    }
    let mut prev = 0u64;
    for i in 0..len {
        let delta = get_varint(buf, pos, context)?;
        let v = if i == 0 { delta } else { prev + delta };
        if v >= u64::from(n) || (i > 0 && delta == 0) {
            return Err(StoreError::Codec { context });
        }
        out.push(v as Vertex);
        prev = v;
    }
    Ok(())
}

/// Encode an ascending id list (postings) as count + first + gaps.
pub fn encode_id_list(buf: &mut Vec<u8>, ids: &[u64]) {
    put_varint(buf, ids.len() as u64);
    let mut prev = 0u64;
    for (i, &id) in ids.iter().enumerate() {
        if i == 0 {
            put_varint(buf, id);
        } else {
            put_varint(buf, id - prev);
        }
        prev = id;
    }
}

/// Decode an ascending id list; every id must stay below `bound`.
pub fn decode_id_list(
    buf: &[u8],
    pos: &mut usize,
    bound: u64,
    context: &'static str,
) -> Result<Vec<u64>, StoreError> {
    let len = get_varint(buf, pos, context)?;
    if len > bound {
        return Err(StoreError::Codec { context });
    }
    let mut ids = Vec::with_capacity(len as usize);
    let mut prev = 0u64;
    for i in 0..len {
        let delta = get_varint(buf, pos, context)?;
        let id = if i == 0 { delta } else { prev + delta };
        if id >= bound || (i > 0 && delta == 0) {
            return Err(StoreError::Codec { context });
        }
        ids.push(id);
        prev = id;
    }
    Ok(ids)
}

/// The canonical clique order the enumerators emit, a base's ids ascend
/// in and `gsb update` writes each generation in: by size, then
/// lexicographically. The writer refuses, scrub reports and compaction
/// rejects cliques that break it.
pub(crate) fn canonical(a: &[Vertex], b: &[Vertex]) -> std::cmp::Ordering {
    a.len().cmp(&b.len()).then_with(|| a.cmp(b))
}

/// One contiguous run of equal-size cliques in id space. The
/// enumerators emit in non-decreasing size order, so sizes partition
/// the id space into a handful of runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SizeRun {
    /// Clique size of every member of the run.
    pub size: u32,
    /// First clique id of the run.
    pub first_id: u64,
    /// Number of cliques in the run.
    pub count: u64,
}

/// One block of the clique store.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockEntry {
    /// Byte offset of the block's frame in `cliques.gsi`.
    pub offset: u64,
    /// Clique id of the block's first record.
    pub first_id: u64,
    /// Records in the block.
    pub count: u32,
    /// Smallest clique size in the block.
    pub min_size: u32,
    /// Largest clique size in the block.
    pub max_size: u32,
}

/// Bytes before an open block's records: frame length, CRC, count.
const BLOCK_HEAD: usize = 12;

/// Streams cliques into framed store blocks. Each push encodes one
/// clique as the next id, extends the size runs and the open block's
/// size range, and seals the block once its records reach the target.
/// Sealing writes one frame, `[len][crc][count: u32 LE][records]`, to
/// the caller's sink and keeps its [`BlockEntry`]. `IndexWriter`
/// streams the blocks into `cliques.gsi`; `gsb update` collects them to
/// append.
pub(crate) struct BlockBuilder {
    /// Sealed blocks, ascending in `first_id`.
    pub(crate) blocks: Vec<BlockEntry>,
    /// Size runs over every pushed clique.
    pub(crate) size_runs: Vec<SizeRun>,
    /// Id of the next pushed clique.
    pub(crate) next_id: u64,
    /// Store offset of the next sealed block.
    pub(crate) offset: u64,
    /// Seal a block once its encoded records reach this many bytes.
    pub(crate) target: usize,
    /// The open block's frame: [`BLOCK_HEAD`] bytes filled in at seal
    /// time, then the records.
    open: Vec<u8>,
    count: u32,
    min_size: u32,
    max_size: u32,
}

impl BlockBuilder {
    /// Blocks from store offset `offset`, ids from `first_id`.
    pub(crate) fn new(offset: u64, first_id: u64, target: usize) -> Self {
        BlockBuilder {
            blocks: Vec::new(),
            size_runs: Vec::new(),
            next_id: first_id,
            offset,
            target,
            open: vec![0; BLOCK_HEAD],
            count: 0,
            min_size: u32::MAX,
            max_size: 0,
        }
    }

    /// Encode `clique` (strictly ascending) as id `next_id`, sealing the
    /// block into `out` once it reaches the target.
    pub(crate) fn push(&mut self, clique: &[Vertex], out: &mut impl Write) -> std::io::Result<()> {
        let size = clique.len() as u32;
        encode_clique(&mut self.open, clique);
        self.count += 1;
        self.min_size = self.min_size.min(size);
        self.max_size = self.max_size.max(size);
        match self.size_runs.last_mut() {
            Some(run) if run.size == size => run.count += 1,
            _ => self.size_runs.push(SizeRun {
                size,
                first_id: self.next_id,
                count: 1,
            }),
        }
        self.next_id += 1;
        if self.open.len() - BLOCK_HEAD >= self.target {
            self.seal(out)?;
        }
        Ok(())
    }

    /// Write the open block, if it holds any clique, to `out` as one
    /// frame and keep its entry.
    pub(crate) fn seal(&mut self, out: &mut impl Write) -> std::io::Result<()> {
        if self.count == 0 {
            return Ok(());
        }
        let payload_len = (self.open.len() - 8) as u32;
        self.open[8..12].copy_from_slice(&self.count.to_le_bytes());
        let crc = crc32(&self.open[8..]);
        self.open[..4].copy_from_slice(&payload_len.to_le_bytes());
        self.open[4..8].copy_from_slice(&crc.to_le_bytes());
        out.write_all(&self.open)?;
        self.blocks.push(BlockEntry {
            offset: self.offset,
            first_id: self.next_id - u64::from(self.count),
            count: self.count,
            min_size: self.min_size,
            max_size: self.max_size,
        });
        self.offset += self.open.len() as u64;
        self.open.truncate(BLOCK_HEAD);
        self.count = 0;
        self.min_size = u32::MAX;
        self.max_size = 0;
        Ok(())
    }
}

/// One decoded store block: the records' vertices back to back in one
/// buffer, and where each record ends in it. Record `i` is
/// `vertices[ends[i - 1]..ends[i]]` (from 0 for the first), so a block
/// costs two allocations however many cliques it holds.
#[derive(Debug)]
pub(crate) struct Block {
    vertices: Vec<Vertex>,
    ends: Vec<u32>,
}

impl Block {
    /// Records in the block.
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    /// Record `i`, or `None` past the end.
    pub(crate) fn get(&self, i: usize) -> Option<&[Vertex]> {
        let end = *self.ends.get(i)? as usize;
        let start = i.checked_sub(1).map_or(0, |j| self.ends[j] as usize);
        Some(&self.vertices[start..end])
    }

    /// Every record in id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &[Vertex]> + '_ {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let record = &self.vertices[start..end as usize];
            start = end as usize;
            record
        })
    }
}

/// Verify and decode the store block `entry` names, as read by
/// [`read_frame_at`]: the frame CRC, the record count against the
/// entry, every record (vertex ids below `n`, size inside the entry's
/// range) and no bytes after the last record.
pub(crate) fn decode_block(frame: &[u8], entry: &BlockEntry, n: u32) -> Result<Block, StoreError> {
    const CTX: &str = "clique block";
    let (payload, _) = parse_frame(frame, 0, CTX)?;
    if payload.len() < 4 {
        return Err(StoreError::Torn {
            context: CTX,
            needed: 4,
            have: payload.len(),
        });
    }
    let count = u32::from_le_bytes(payload[..4].try_into().expect("4-byte slice"));
    if count != entry.count {
        return Err(StoreError::CountMismatch {
            expected: entry.count as usize,
            found: count as usize,
        });
    }
    // Every record spends at least one byte on its length and one on
    // each vertex, so the payload bounds both buffers; and a payload
    // fits a u32 frame length, so every end fits a u32.
    let records = (count as usize).min(payload.len());
    let mut block = Block {
        vertices: Vec::with_capacity(payload.len().saturating_sub(4 + records)),
        ends: Vec::with_capacity(records),
    };
    let mut pos = 4usize;
    for _ in 0..count {
        let start = block.vertices.len();
        decode_clique(payload, &mut pos, n, &mut block.vertices, "clique record")?;
        let size = (block.vertices.len() - start) as u32;
        if size < entry.min_size || size > entry.max_size {
            return Err(StoreError::Codec {
                context: "clique size outside its block's declared range",
            });
        }
        block.ends.push(block.vertices.len() as u32);
    }
    if pos != payload.len() {
        return Err(StoreError::Codec { context: CTX });
    }
    Ok(block)
}

/// The in-memory form of `index.gsd`: everything a reader needs to
/// answer queries without scanning the store.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IndexDirectory {
    /// Vertex count of the indexed graph.
    pub n: u32,
    /// Total cliques in the store.
    pub clique_count: u64,
    /// Size runs, ascending in size and contiguous in id space.
    pub size_runs: Vec<SizeRun>,
    /// Block table, ascending in `first_id`.
    pub blocks: Vec<BlockEntry>,
    /// Byte offset of each vertex's postings frame in `postings.gsp`.
    pub postings_offsets: Vec<u64>,
    /// Total bytes of `postings.gsp` (for stats and bounds checks).
    pub postings_bytes: u64,
}

impl IndexDirectory {
    /// Serialize as one frame-able payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut p = Vec::new();
        put_varint(&mut p, u64::from(self.n));
        put_varint(&mut p, self.clique_count);
        put_tables(&mut p, &self.size_runs, &self.blocks);
        put_varint(&mut p, self.postings_offsets.len() as u64);
        for &off in &self.postings_offsets {
            put_varint(&mut p, off);
        }
        put_varint(&mut p, self.postings_bytes);
        p
    }

    /// Decode the payload written by [`encode`](Self::encode); the size
    /// runs and the block table must each cover `0..clique_count`.
    pub fn decode(payload: &[u8]) -> Result<Self, StoreError> {
        const CTX: &str = "index directory";
        let pos = &mut 0usize;
        let n = get_varint(payload, pos, CTX)?;
        if n > u64::from(u32::MAX) {
            return Err(StoreError::Codec { context: CTX });
        }
        let clique_count = get_varint(payload, pos, CTX)?;
        let (size_runs, blocks) = get_tables(payload, pos, 0..clique_count, CTX)?;
        let offsets = get_varint(payload, pos, CTX)?;
        if offsets != n + 1 {
            return Err(StoreError::Codec { context: CTX });
        }
        let mut postings_offsets = Vec::with_capacity(offsets as usize);
        for _ in 0..offsets {
            postings_offsets.push(get_varint(payload, pos, CTX)?);
        }
        let postings_bytes = get_varint(payload, pos, CTX)?;
        if *pos != payload.len() {
            return Err(StoreError::Codec { context: CTX });
        }
        Ok(IndexDirectory {
            n: n as u32,
            clique_count,
            size_runs,
            blocks,
            postings_offsets,
            postings_bytes,
        })
    }

    /// The contiguous clique-id range holding every clique whose size
    /// lies in `lo..=hi` (valid because ids are assigned in
    /// non-decreasing size order).
    pub fn size_range_ids(&self, lo: u32, hi: u32) -> std::ops::Range<u64> {
        let mut start = None;
        let mut end = 0u64;
        for run in &self.size_runs {
            if run.size >= lo && run.size <= hi {
                start.get_or_insert(run.first_id);
                end = run.first_id + run.count;
            }
        }
        match start {
            Some(s) => s..end,
            None => 0..0,
        }
    }

    /// Largest clique size present (0 when empty).
    pub fn max_size(&self) -> u32 {
        self.size_runs.last().map_or(0, |r| r.size)
    }

    /// Byte range of vertex `v`'s record in `postings.gsp` (`v` below
    /// `n`).
    pub(crate) fn postings_range(&self, v: usize) -> Result<Range<u64>, StoreError> {
        let (start, end) = (self.postings_offsets[v], self.postings_offsets[v + 1]);
        if end < start || end > self.postings_bytes {
            return Err(StoreError::Codec {
                context: "postings offsets",
            });
        }
        Ok(start..end)
    }
}

/// Decode a base postings record, the bytes of
/// [`IndexDirectory::postings_range`]: one frame holding ascending ids
/// below `clique_count`, with nothing after the list.
pub(crate) fn decode_postings(bytes: &[u8], clique_count: u64) -> Result<Vec<u64>, StoreError> {
    const CTX: &str = "postings record";
    let (payload, _) = parse_frame(bytes, 0, CTX)?;
    let mut pos = 0usize;
    let ids = decode_id_list(payload, &mut pos, clique_count, CTX)?;
    if pos != payload.len() {
        return Err(StoreError::Codec { context: CTX });
    }
    Ok(ids)
}

/// Append the size runs and the block table, as both `index.gsd`
/// records store them.
fn put_tables(p: &mut Vec<u8>, runs: &[SizeRun], blocks: &[BlockEntry]) {
    put_varint(p, runs.len() as u64);
    for run in runs {
        put_varint(p, u64::from(run.size));
        put_varint(p, run.first_id);
        put_varint(p, run.count);
    }
    put_varint(p, blocks.len() as u64);
    for b in blocks {
        put_varint(p, b.offset);
        put_varint(p, b.first_id);
        put_varint(p, u64::from(b.count));
        put_varint(p, u64::from(b.min_size));
        put_varint(p, u64::from(b.max_size));
    }
}

/// Decode what [`put_tables`] wrote for the clique ids `ids`: size runs
/// of strictly growing size and blocks at growing offsets, each table
/// covering `ids` in order with no gap and no empty entry.
fn get_tables(
    payload: &[u8],
    pos: &mut usize,
    ids: Range<u64>,
    context: &'static str,
) -> Result<(Vec<SizeRun>, Vec<BlockEntry>), StoreError> {
    let bad = || StoreError::Codec { context };
    let runs = get_varint(payload, pos, context)?;
    if runs > ids.end - ids.start {
        return Err(bad());
    }
    let mut size_runs = Vec::with_capacity(runs as usize);
    let (mut expect, mut prev_size) = (ids.start, 0u32);
    for _ in 0..runs {
        let run = SizeRun {
            size: get_varint(payload, pos, context)? as u32,
            first_id: get_varint(payload, pos, context)?,
            count: get_varint(payload, pos, context)?,
        };
        if run.first_id != expect || run.count == 0 || run.size <= prev_size {
            return Err(bad());
        }
        expect = run.first_id.checked_add(run.count).ok_or_else(bad)?;
        prev_size = run.size;
        size_runs.push(run);
    }
    if expect != ids.end {
        return Err(bad());
    }
    let nblocks = get_varint(payload, pos, context)?;
    if nblocks > ids.end - ids.start {
        return Err(bad());
    }
    let mut blocks = Vec::with_capacity(nblocks as usize);
    let (mut expect, mut prev_offset) = (ids.start, 0u64);
    for _ in 0..nblocks {
        let b = BlockEntry {
            offset: get_varint(payload, pos, context)?,
            first_id: get_varint(payload, pos, context)?,
            count: get_varint(payload, pos, context)? as u32,
            min_size: get_varint(payload, pos, context)? as u32,
            max_size: get_varint(payload, pos, context)? as u32,
        };
        if b.first_id != expect || b.count == 0 || b.offset <= prev_offset {
            return Err(bad());
        }
        expect = b.first_id.checked_add(u64::from(b.count)).ok_or_else(bad)?;
        prev_offset = b.offset;
        blocks.push(b);
    }
    if expect != ids.end {
        return Err(bad());
    }
    Ok((size_runs, blocks))
}

/// One committed delta generation, stored as a CRC-framed record
/// appended to `index.gsd` after the base directory frame (DESIGN.md
/// §16). Each `gsb update` commit appends exactly one: the new cliques
/// it produced (as delta blocks in `cliques.gsi` plus one postings
/// frame in `postings.gsp`), the ids it tombstoned, and the effective
/// edge edits it applied — enough to reconstruct the current graph from
/// the base snapshot by replay.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DeltaGeneration {
    /// Manifest generation at which this record was committed.
    pub generation: u64,
    /// Vertex count after this generation's edits (≥ the previous
    /// generation's; edge additions may introduce new vertices).
    pub n: u32,
    /// First clique id assigned to this generation's new cliques.
    pub first_id: u64,
    /// Number of new cliques in this generation.
    pub count: u64,
    /// Size runs over the new cliques, ascending and contiguous in
    /// `first_id..first_id + count` (absolute ids).
    pub size_runs: Vec<SizeRun>,
    /// Delta blocks appended to `cliques.gsi` (absolute offsets).
    pub blocks: Vec<BlockEntry>,
    /// Clique ids from earlier generations subsumed by this one,
    /// strictly ascending and all below `first_id`.
    pub tombstones: Vec<u64>,
    /// Byte offset of this generation's postings frame in
    /// `postings.gsp`.
    pub postings_offset: u64,
    /// Byte length of that frame (header through payload end).
    pub postings_len: u64,
    /// Edges removed by this generation, `(u, v)` with `u < v`,
    /// strictly ascending — replayed before `added_edges`.
    pub removed_edges: Vec<(u32, u32)>,
    /// Edges added by this generation, same encoding as
    /// `removed_edges` — replayed after it.
    pub added_edges: Vec<(u32, u32)>,
}

fn encode_edges(p: &mut Vec<u8>, edges: &[(u32, u32)]) {
    put_varint(p, edges.len() as u64);
    for &(u, v) in edges {
        put_varint(p, u64::from(u));
        put_varint(p, u64::from(v));
    }
}

fn decode_edges(
    payload: &[u8],
    pos: &mut usize,
    n: u32,
    context: &'static str,
) -> Result<Vec<(u32, u32)>, StoreError> {
    let count = get_varint(payload, pos, context)?;
    if count > u64::from(n) * u64::from(n) {
        return Err(StoreError::Codec { context });
    }
    let mut edges = Vec::with_capacity(count as usize);
    let mut prev: Option<(u32, u32)> = None;
    for _ in 0..count {
        let u = get_varint(payload, pos, context)?;
        let v = get_varint(payload, pos, context)?;
        if u >= v || v >= u64::from(n) {
            return Err(StoreError::Codec { context });
        }
        let e = (u as u32, v as u32);
        if prev.is_some_and(|p| p >= e) {
            return Err(StoreError::Codec { context });
        }
        edges.push(e);
        prev = Some(e);
    }
    Ok(edges)
}

impl DeltaGeneration {
    /// Clique ids introduced by this generation.
    pub fn id_range(&self) -> std::ops::Range<u64> {
        self.first_id..self.first_id + self.count
    }

    /// Serialize as one frame-able payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut p = Vec::new();
        put_varint(&mut p, self.generation);
        put_varint(&mut p, u64::from(self.n));
        put_varint(&mut p, self.first_id);
        put_varint(&mut p, self.count);
        put_tables(&mut p, &self.size_runs, &self.blocks);
        encode_id_list(&mut p, &self.tombstones);
        put_varint(&mut p, self.postings_offset);
        put_varint(&mut p, self.postings_len);
        encode_edges(&mut p, &self.removed_edges);
        encode_edges(&mut p, &self.added_edges);
        p
    }

    /// Decode one record payload, validating every structural
    /// invariant that does not require the data files: contiguous size
    /// runs and blocks covering exactly `id_range`, ascending
    /// tombstones below `first_id`, and canonical `u < v < n` edits.
    pub fn decode(payload: &[u8]) -> Result<Self, StoreError> {
        const CTX: &str = "delta generation";
        let pos = &mut 0usize;
        let generation = get_varint(payload, pos, CTX)?;
        let n = get_varint(payload, pos, CTX)?;
        if n > u64::from(u32::MAX) {
            return Err(StoreError::Codec { context: CTX });
        }
        let n = n as u32;
        let first_id = get_varint(payload, pos, CTX)?;
        let count = get_varint(payload, pos, CTX)?;
        let end = first_id
            .checked_add(count)
            .ok_or(StoreError::Codec { context: CTX })?;
        let (size_runs, blocks) = get_tables(payload, pos, first_id..end, CTX)?;
        let tombstones = decode_id_list(payload, pos, first_id.max(1), CTX)?;
        if tombstones.iter().any(|&id| id >= first_id) {
            return Err(StoreError::Codec { context: CTX });
        }
        let postings_offset = get_varint(payload, pos, CTX)?;
        let postings_len = get_varint(payload, pos, CTX)?;
        let removed_edges = decode_edges(payload, pos, n, CTX)?;
        let added_edges = decode_edges(payload, pos, n, CTX)?;
        if *pos != payload.len() {
            return Err(StoreError::Codec { context: CTX });
        }
        Ok(DeltaGeneration {
            generation,
            n,
            first_id,
            count,
            size_runs,
            blocks,
            tombstones,
            postings_offset,
            postings_len,
            removed_edges,
            added_edges,
        })
    }
}

/// Encode one generation's postings overlay: vertex count, then per
/// vertex (ascending) its id and the ascending clique ids it gained.
/// Framed and appended to `postings.gsp` as a single record per
/// generation — the base file's per-vertex layout cannot be extended
/// in place without rewriting it.
pub fn encode_delta_postings(entries: &BTreeMap<u32, Vec<u64>>) -> Vec<u8> {
    let mut buf = Vec::new();
    put_varint(&mut buf, entries.len() as u64);
    for (v, ids) in entries {
        put_varint(&mut buf, u64::from(*v));
        encode_id_list(&mut buf, ids);
    }
    buf
}

/// Read generation `gen`'s postings overlay from `postings.gsp`, whose
/// committed extent is `extent` bytes: one frame filling exactly
/// `postings_len` bytes at `postings_offset`, whose vertices ascend
/// below the generation's `n` and whose ids fall inside its id range. A
/// length beyond the extent is refused before it is allocated, as the
/// short read it would be.
pub(crate) fn read_delta_postings(
    f: &mut (impl Read + Seek),
    gen: &DeltaGeneration,
    extent: u64,
) -> Result<Vec<(u32, Vec<u64>)>, StoreError> {
    const CTX: &str = "delta postings";
    if gen.postings_len > extent {
        return Err(StoreError::Torn {
            context: CTX,
            needed: gen.postings_len as usize,
            have: 0,
        });
    }
    let mut bytes = vec![0u8; gen.postings_len as usize];
    read_at(f, gen.postings_offset, &mut bytes, CTX)?;
    let (payload, next) = parse_frame(&bytes, 0, CTX)?;
    if next != bytes.len() {
        return Err(StoreError::Codec {
            context: "delta postings frame extent",
        });
    }
    let (n, ids) = (gen.n, gen.id_range());
    let pos = &mut 0usize;
    let count = get_varint(payload, pos, CTX)?;
    if count > u64::from(n) {
        return Err(StoreError::Codec { context: CTX });
    }
    let mut entries = Vec::with_capacity(count as usize);
    let mut prev: Option<u32> = None;
    for _ in 0..count {
        let v = get_varint(payload, pos, CTX)?;
        if v >= u64::from(n) || prev.is_some_and(|p| u64::from(p) >= v) {
            return Err(StoreError::Codec { context: CTX });
        }
        let list = decode_id_list(payload, pos, ids.end, CTX)?;
        if list.is_empty() || list.iter().any(|&id| id < ids.start) {
            return Err(StoreError::Codec { context: CTX });
        }
        prev = Some(v as u32);
        entries.push((v as u32, list));
    }
    if *pos != payload.len() {
        return Err(StoreError::Codec { context: CTX });
    }
    Ok(entries)
}

/// One defect in an index: where, and the typed error. `gsb scrub`
/// reports every one; `CliqueIndex::open` fails on the first.
#[derive(Debug)]
pub struct Finding {
    /// Human-readable site, e.g. `cliques.gsi block 3` or `index.meta`.
    pub site: String,
    /// What failed there.
    pub error: StoreError,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.site, self.error)
    }
}

fn finding(defects: &mut Vec<Finding>, site: impl Into<String>, error: StoreError) {
    defects.push(Finding {
        site: site.into(),
        error,
    });
}

/// `index.gsd` decoded and checked against the manifest by
/// [`walk_chain`].
#[derive(Debug)]
pub(crate) struct ChainWalk {
    /// The base directory.
    pub(crate) directory: IndexDirectory,
    /// Every delta generation up to the first undecodable one, oldest
    /// first.
    pub(crate) chain: Vec<DeltaGeneration>,
    /// Size runs of the base then of each generation, in id order
    /// (sizes ascend within the base and within each generation).
    pub(crate) runs: Vec<SizeRun>,
    /// Tombstoned ids over the base and chain id space.
    pub(crate) dead: BitSet,
    /// `(size, live count)` ascending in size, empty sizes dropped.
    pub(crate) live_hist: Vec<(u32, u64)>,
}

/// Decode `index.gsd` (`bytes`, the whole file) and check it against
/// the manifest: the header, the base frame, then every chain frame up
/// to the committed extent, the chain's continuity (first id, vertex
/// count, postings offset, generation), the chain head against the
/// manifest generation, each manifest count, the tombstones (no id dies
/// twice) and the live maximum. Defects are pushed to `defects` and the
/// walk goes on; an unreadable base directory ends it with `Err`.
/// Bytes past the committed extent are a defect: a reader that ignores
/// a torn append passes the committed bytes only.
pub(crate) fn walk_chain(
    bytes: &[u8],
    meta: &IndexMeta,
    defects: &mut Vec<Finding>,
) -> Result<ChainWalk, StoreError> {
    let committed = meta.dir_extent(bytes.len());
    if bytes.len() != committed {
        finding(
            defects,
            format!("{DIRECTORY_FILE} length"),
            StoreError::Torn {
                context: "directory length vs committed extent",
                needed: committed,
                have: bytes.len(),
            },
        );
    }
    let bytes = &bytes[..committed.min(bytes.len())];
    let n = check_header(bytes, DIRECTORY_MAGIC, "index directory header")?;
    let (payload, mut next) = parse_frame(bytes, HEADER_LEN, "index directory")?;
    let directory = IndexDirectory::decode(payload)?;
    if directory.n != n {
        return Err(StoreError::GraphMismatch {
            checkpoint_bits: directory.n as usize,
            graph_bits: n as usize,
        });
    }

    let mut chain: Vec<DeltaGeneration> = Vec::new();
    let mut expected_first = directory.clique_count;
    let mut expected_post = directory.postings_bytes;
    let mut max_n = directory.n;
    while next < bytes.len() {
        let site = format!("{DIRECTORY_FILE} generation {}", chain.len());
        let gen = match parse_frame(bytes, next, "delta generation").and_then(|(payload, at)| {
            next = at;
            DeltaGeneration::decode(payload)
        }) {
            Ok(gen) => gen,
            Err(e) => {
                // the walk cannot continue past an undecodable frame
                finding(defects, site, e);
                break;
            }
        };
        if gen.first_id != expected_first
            || gen.postings_offset != expected_post
            || gen.n < max_n
            || gen.generation <= chain.last().map_or(0, |g| g.generation)
        {
            finding(
                defects,
                format!("{site} continuity"),
                StoreError::Codec {
                    context: "delta chain discontinuity",
                },
            );
        }
        expected_first = gen.first_id + gen.count;
        expected_post = gen.postings_offset.saturating_add(gen.postings_len);
        max_n = max_n.max(gen.n);
        chain.push(gen);
    }
    if let Some(last) = chain.last() {
        if last.generation != meta.generation {
            finding(
                defects,
                format!("{DIRECTORY_FILE} chain head"),
                StoreError::CountMismatch {
                    expected: meta.generation as usize,
                    found: last.generation as usize,
                },
            );
        }
    }

    // Manifest counts are totals over base + chain.
    if max_n as usize != meta.n {
        finding(
            defects,
            META_FILE,
            StoreError::GraphMismatch {
                checkpoint_bits: max_n as usize,
                graph_bits: meta.n,
            },
        );
    }
    let total = directory.clique_count + chain.iter().map(|g| g.count).sum::<u64>();
    let sum = |f: fn(&DeltaGeneration) -> u64| chain.iter().map(f).sum::<u64>();
    for (what, meta_v, want) in [
        ("cliques", meta.cliques, total),
        (
            "blocks",
            meta.blocks,
            directory.blocks.len() as u64 + sum(|g| g.blocks.len() as u64),
        ),
        (
            "postings_bytes",
            meta.postings_bytes,
            directory.postings_bytes + sum(|g| g.postings_len),
        ),
        (
            "delta_generations",
            meta.delta_generations,
            chain.len() as u64,
        ),
        (
            "tombstones",
            meta.tombstones,
            sum(|g| g.tombstones.len() as u64),
        ),
    ] {
        if meta_v != want {
            finding(
                defects,
                format!("{META_FILE} {what}"),
                StoreError::CountMismatch {
                    expected: want as usize,
                    found: meta_v as usize,
                },
            );
        }
    }

    // Tombstones: ascending within a generation and below its first id
    // (both codec-enforced); across the chain no id may die twice.
    let mut dead = BitSet::new(total as usize);
    for (gi, gen) in chain.iter().enumerate() {
        for &id in &gen.tombstones {
            let context = if id >= total {
                "tombstone beyond the index"
            } else if !dead.insert(id as usize) {
                "tombstone kills an already-dead clique"
            } else {
                continue;
            };
            finding(
                defects,
                format!("{DIRECTORY_FILE} generation {gi} tombstone {id}"),
                StoreError::Codec { context },
            );
        }
    }
    let mut runs = directory.size_runs.clone();
    for gen in &chain {
        runs.extend_from_slice(&gen.size_runs);
    }
    let live_hist = match live_histogram(&runs, dead.iter_ones().map(|id| id as u64)) {
        Ok(hist) => hist,
        Err(e) => {
            finding(defects, format!("{DIRECTORY_FILE} tombstones"), e);
            Vec::new()
        }
    };
    let live_max = live_hist.last().map_or(0, |&(size, _)| size);
    if live_max != meta.max_clique {
        finding(
            defects,
            format!("{META_FILE} max_clique"),
            StoreError::CountMismatch {
                expected: live_max as usize,
                found: meta.max_clique as usize,
            },
        );
    }
    Ok(ChainWalk {
        directory,
        chain,
        runs,
        dead,
        live_hist,
    })
}

/// Live cliques per size: each size run's count minus the tombstoned
/// ids inside it, as `(size, count)` ascending in size with empty sizes
/// dropped. `runs` must ascend in id space; a tombstone outside every
/// run is corruption.
pub(crate) fn live_histogram(
    runs: &[SizeRun],
    dead: impl IntoIterator<Item = u64>,
) -> Result<Vec<(u32, u64)>, StoreError> {
    let mut hist: BTreeMap<u32, u64> = BTreeMap::new();
    for run in runs {
        *hist.entry(run.size).or_insert(0) += run.count;
    }
    for id in dead {
        let run = runs.partition_point(|r| r.first_id + r.count <= id);
        match runs
            .get(run)
            .filter(|r| r.first_id <= id)
            .and_then(|r| hist.get_mut(&r.size))
        {
            Some(c) if *c > 0 => *c -= 1,
            _ => {
                return Err(StoreError::Codec {
                    context: "tombstone outside any size run",
                })
            }
        }
    }
    Ok(hist.into_iter().filter(|&(_, c)| c > 0).collect())
}

/// The current graph of an updatable index: the committed snapshot in
/// `dir`, grown to the most vertices the snapshot, any generation or
/// `n_target` names, with the chain's edit log replayed over it (each
/// generation's removals, then its additions). An edit that removes an
/// absent edge or adds a present one goes to `defect`: `gsb scrub`
/// reports it, `gsb update` and `gsb compact` ignore it.
pub(crate) fn patched_graph(
    dir: &std::path::Path,
    meta: &IndexMeta,
    chain: &[DeltaGeneration],
    n_target: usize,
    mut defect: impl FnMut(Finding),
) -> Result<BitGraph, StoreError> {
    let snap = crate::snapshot::read_graph_checked(dir, meta.graph_bytes, meta.graph_crc)?;
    let n = chain
        .iter()
        .map(|gen| gen.n as usize)
        .fold(snap.n().max(n_target), usize::max);
    let mut g = snap.grown(n);
    for (gi, gen) in chain.iter().enumerate() {
        for &(u, v) in &gen.removed_edges {
            if !g.remove_edge(u as usize, v as usize) {
                defect(Finding {
                    site: format!("{GRAPH_FILE} generation {gi} edit -({u},{v})"),
                    error: StoreError::Codec {
                        context: "edit log removes an absent edge",
                    },
                });
            }
        }
        for &(u, v) in &gen.added_edges {
            if !g.add_edge(u as usize, v as usize) {
                defect(Finding {
                    site: format!("{GRAPH_FILE} generation {gi} edit +({u},{v})"),
                    error: StoreError::Codec {
                        context: "edit log adds a present edge",
                    },
                });
            }
        }
    }
    Ok(g)
}

/// The `index.meta` manifest: human-readable key=value lines, written
/// last (tmp-then-rename) so its presence marks a committed index.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IndexMeta {
    /// Format version (currently 1).
    pub version: u32,
    /// Vertex count of the indexed graph.
    pub n: usize,
    /// Total cliques indexed.
    pub cliques: u64,
    /// Largest clique size.
    pub max_clique: u32,
    /// Blocks in the clique store.
    pub blocks: u64,
    /// Bytes of `cliques.gsi`.
    pub store_bytes: u64,
    /// Bytes of `postings.gsp`.
    pub postings_bytes: u64,
    /// Monotonic rebuild counter: bumped every time a writer replaces
    /// an existing committed index in the same directory *and* every
    /// time `gsb update` commits a delta generation. The serving layer
    /// polls it to trigger atomic hot-reloads. Absent in pre-generation
    /// manifests, which read back as generation 0.
    pub generation: u64,
    /// Minimum clique size the index maintains (the `--min` the base
    /// build ran with). 0 in manifests written before dynamic updates
    /// existed — such indexes refuse `gsb update` because the
    /// maintained set is unknown.
    pub min_size: u32,
    /// Delta generations appended after the base (0 = clean base).
    pub delta_generations: u64,
    /// Total tombstoned (dead) clique ids across the chain.
    pub tombstones: u64,
    /// Committed bytes of `index.gsd` (base frame + chain records).
    /// 0 in pre-chain manifests, meaning "the whole file".
    pub dir_bytes: u64,
    /// Bytes of the `graph.gsg` snapshot (0 = no snapshot on disk;
    /// such indexes cannot be updated in place).
    pub graph_bytes: u64,
    /// CRC-32 of the entire `graph.gsg` file, pinning the snapshot to
    /// this manifest's commit point.
    pub graph_crc: u32,
}

impl IndexMeta {
    /// Committed bytes of an `index.gsd` of `file_len` bytes:
    /// `dir_bytes`, or the whole file under a pre-chain manifest (which
    /// records 0).
    pub(crate) fn dir_extent(&self, file_len: usize) -> usize {
        match self.dir_bytes {
            0 => file_len,
            committed => committed as usize,
        }
    }

    /// Render as key=value text. The final `crc=` line covers every
    /// preceding byte, so even fields with no cross-checkable twin
    /// elsewhere in the index (like `generation`) cannot rot silently.
    pub fn to_text(&self) -> String {
        let body = format!(
            "version={}\nn={}\ncliques={}\nmax_clique={}\nblocks={}\nstore_bytes={}\npostings_bytes={}\ngeneration={}\nmin_size={}\ndelta_generations={}\ntombstones={}\ndir_bytes={}\ngraph_bytes={}\ngraph_crc={}\n",
            self.version,
            self.n,
            self.cliques,
            self.max_clique,
            self.blocks,
            self.store_bytes,
            self.postings_bytes,
            self.generation,
            self.min_size,
            self.delta_generations,
            self.tombstones,
            self.dir_bytes,
            self.graph_bytes,
            self.graph_crc
        );
        let crc = crc32(body.as_bytes());
        format!("{body}crc={crc}\n")
    }

    /// Parse the text form; unknown keys are ignored (forward compat),
    /// missing required keys are a typed codec error. When a `crc=`
    /// line is present (writers emit one since generations were added),
    /// it is verified against the preceding bytes; manifests written
    /// before it existed parse without one.
    pub fn from_text(text: &str) -> Result<Self, StoreError> {
        const CTX: &str = "index.meta";
        let mut crc_seen = false;
        // The checksum line is the one *starting* with `crc=` — a plain
        // substring search would stop inside `graph_crc=` first.
        let crc_pos = if text.starts_with("crc=") {
            Some(0)
        } else {
            text.find("\ncrc=").map(|p| p + 1)
        };
        if let Some(pos) = crc_pos {
            // No trim here: stray whitespace after the digits means the
            // trailing newline itself was corrupted.
            let line = text[pos..].lines().next().unwrap_or("");
            let stored = line["crc=".len()..]
                .strip_suffix('\r')
                .unwrap_or(&line["crc=".len()..])
                .parse::<u32>()
                .map_err(|_| StoreError::Codec { context: CTX })?;
            let computed = crc32(&text.as_bytes()[..pos]);
            if stored != computed {
                return Err(StoreError::Checksum {
                    context: CTX,
                    stored,
                    computed,
                });
            }
            crc_seen = true;
        }
        // Every known key's value must parse; unknown keys are skipped.
        const KEYS: [&str; 14] = [
            "version",
            "n",
            "cliques",
            "max_clique",
            "blocks",
            "store_bytes",
            "postings_bytes",
            "generation",
            "min_size",
            "delta_generations",
            "tombstones",
            "dir_bytes",
            "graph_bytes",
            "graph_crc",
        ];
        let mut fields = BTreeMap::new();
        for line in text.lines() {
            let Some((key, value)) = line.split_once('=') else {
                continue;
            };
            if let Some(&key) = KEYS.iter().find(|&&k| k == key.trim()) {
                let value = value.trim().parse::<u64>();
                fields.insert(key, value.map_err(|_| StoreError::Codec { context: CTX })?);
            }
        }
        let get = |key| fields.get(key).copied();
        let or_zero = |key| get(key).unwrap_or(0);
        let meta = IndexMeta {
            version: or_zero("version") as u32,
            n: get("n").map_or(usize::MAX, |v| v as usize),
            cliques: get("cliques").unwrap_or(u64::MAX),
            max_clique: get("max_clique").map_or(u32::MAX, |v| v as u32),
            blocks: or_zero("blocks"),
            store_bytes: or_zero("store_bytes"),
            postings_bytes: or_zero("postings_bytes"),
            generation: or_zero("generation"),
            min_size: or_zero("min_size") as u32,
            delta_generations: or_zero("delta_generations"),
            tombstones: or_zero("tombstones"),
            dir_bytes: or_zero("dir_bytes"),
            graph_bytes: or_zero("graph_bytes"),
            graph_crc: or_zero("graph_crc") as u32,
        };
        if meta.version != 1
            || meta.n == usize::MAX
            || meta.cliques == u64::MAX
            || meta.max_clique == u32::MAX
        {
            return Err(StoreError::Codec { context: CTX });
        }
        // `generation` and `crc` were introduced together: a manifest
        // declaring one but missing the other lost bytes to corruption.
        if get("generation").is_some() && !crc_seen {
            return Err(StoreError::Codec { context: CTX });
        }
        Ok(meta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsb_core::store::frame;

    #[test]
    fn varint_roundtrip_and_bounds() {
        let mut buf = Vec::new();
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            buf.clear();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos, "t").unwrap(), v);
            assert_eq!(pos, buf.len());
        }
        // truncated varint is torn, not a panic
        let mut pos = 0;
        assert!(matches!(
            get_varint(&[0x80u8, 0x80], &mut pos, "t"),
            Err(StoreError::Torn { .. })
        ));
        // an overlong varint is a codec error
        let mut pos = 0;
        let overlong = [0x80u8; 11];
        assert!(matches!(
            get_varint(&overlong, &mut pos, "t"),
            Err(StoreError::Codec { .. })
        ));
    }

    #[test]
    fn clique_codec_roundtrip() {
        let mut buf = Vec::new();
        let cliques: Vec<Vec<u32>> = vec![vec![0], vec![3, 9, 10, 400], vec![1, 2, 3]];
        for c in &cliques {
            encode_clique(&mut buf, c);
        }
        let (mut pos, mut out) = (0, Vec::new());
        for c in &cliques {
            let start = out.len();
            decode_clique(&buf, &mut pos, 500, &mut out, "t").unwrap();
            assert_eq!(&out[start..], c.as_slice());
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn clique_codec_rejects_corruption_typed() {
        let mut buf = Vec::new();
        encode_clique(&mut buf, &[5, 6, 7]);
        // vertex beyond n
        let mut pos = 0;
        assert!(decode_clique(&buf, &mut pos, 6, &mut Vec::new(), "t").is_err());
        // absurd length must not allocate
        let mut huge = Vec::new();
        put_varint(&mut huge, u64::MAX);
        let mut pos = 0;
        assert!(matches!(
            decode_clique(&huge, &mut pos, 100, &mut Vec::new(), "t"),
            Err(StoreError::Codec { .. })
        ));
    }

    #[test]
    fn block_decodes_flat_and_checks_its_entry() {
        let cliques: [&[Vertex]; 4] = [&[7], &[0, 3], &[1, 2], &[4, 5, 9]];
        let mut builder = BlockBuilder::new(0, 0, usize::MAX);
        let mut frame = Vec::new();
        for c in cliques {
            builder.push(c, &mut frame).unwrap();
        }
        builder.seal(&mut frame).unwrap();
        let entry = builder.blocks[0];
        let block = decode_block(&frame, &entry, 10).unwrap();
        assert_eq!(block.len(), 4);
        assert!(block.iter().eq(cliques));
        assert_eq!(block.get(2), Some(&[1, 2][..]));
        assert_eq!(block.get(4), None);
        // each check of the entry still holds
        assert!(decode_block(&frame, &entry, 9).is_err());
        let short = BlockEntry { count: 3, ..entry };
        assert!(matches!(
            decode_block(&frame, &short, 10),
            Err(StoreError::CountMismatch { .. })
        ));
        let narrow = BlockEntry {
            max_size: 2,
            ..entry
        };
        assert!(decode_block(&frame, &narrow, 10).is_err());
    }

    #[test]
    fn id_list_roundtrip_and_zero_delta_rejected() {
        let mut buf = Vec::new();
        encode_id_list(&mut buf, &[0, 5, 6, 1000]);
        let mut pos = 0;
        assert_eq!(
            decode_id_list(&buf, &mut pos, 1001, "t").unwrap(),
            vec![0, 5, 6, 1000]
        );
        // a duplicate id (zero delta) is corruption
        let mut bad = Vec::new();
        put_varint(&mut bad, 2);
        put_varint(&mut bad, 4);
        put_varint(&mut bad, 0);
        let mut pos = 0;
        assert!(decode_id_list(&bad, &mut pos, 10, "t").is_err());
    }

    #[test]
    fn frame_detects_flips_and_truncation() {
        let framed = frame(b"hello index");
        let (payload, next) = parse_frame(&framed, 0, "t").unwrap();
        assert_eq!(payload, b"hello index");
        assert_eq!(next, framed.len());
        for i in 0..framed.len() {
            let mut bad = framed.clone();
            bad[i] ^= 0x40;
            assert!(parse_frame(&bad, 0, "t").is_err(), "flip at byte {i}");
        }
        assert!(parse_frame(&framed[..framed.len() - 1], 0, "t").is_err());
    }

    #[test]
    fn header_roundtrip_and_corruption() {
        let h = header_bytes(CLIQUES_MAGIC, 1234);
        assert_eq!(check_header(&h, CLIQUES_MAGIC, "t").unwrap(), 1234);
        assert!(matches!(
            check_header(&h, POSTINGS_MAGIC, "t"),
            Err(StoreError::BadMagic { .. })
        ));
        let mut bad = h;
        bad[9] ^= 1;
        assert!(matches!(
            check_header(&bad, CLIQUES_MAGIC, "t"),
            Err(StoreError::Checksum { .. })
        ));
        assert!(check_header(&h[..10], CLIQUES_MAGIC, "t").is_err());
    }

    #[test]
    fn directory_roundtrip() {
        let dir = IndexDirectory {
            n: 40,
            clique_count: 7,
            size_runs: vec![
                SizeRun {
                    size: 3,
                    first_id: 0,
                    count: 5,
                },
                SizeRun {
                    size: 5,
                    first_id: 5,
                    count: 2,
                },
            ],
            blocks: vec![BlockEntry {
                offset: 16,
                first_id: 0,
                count: 7,
                min_size: 3,
                max_size: 5,
            }],
            postings_offsets: (0..41).map(|i| 16 + i * 9).collect(),
            postings_bytes: 400,
        };
        let payload = dir.encode();
        assert_eq!(IndexDirectory::decode(&payload).unwrap(), dir);
        // every single-byte flip fails typed (decode or the outer frame)
        let framed = frame(&payload);
        for i in 0..framed.len() {
            let mut bad = framed.clone();
            bad[i] ^= 0x10;
            let r = parse_frame(&bad, 0, "t").and_then(|(p, _)| IndexDirectory::decode(p));
            assert!(r.is_err(), "flip at {i} silently accepted");
        }
        assert_eq!(dir.size_range_ids(3, 3), 0..5);
        assert_eq!(dir.size_range_ids(4, 9), 5..7);
        assert_eq!(dir.size_range_ids(6, 9), 0..0);
        assert_eq!(dir.max_size(), 5);
    }

    #[test]
    fn delta_generation_roundtrip_and_flip_sweep() {
        let gen = DeltaGeneration {
            generation: 4,
            n: 55,
            first_id: 12,
            count: 5,
            size_runs: vec![
                SizeRun {
                    size: 3,
                    first_id: 12,
                    count: 4,
                },
                SizeRun {
                    size: 4,
                    first_id: 16,
                    count: 1,
                },
            ],
            blocks: vec![BlockEntry {
                offset: 900,
                first_id: 12,
                count: 5,
                min_size: 3,
                max_size: 4,
            }],
            tombstones: vec![1, 7, 9],
            postings_offset: 4000,
            postings_len: 66,
            removed_edges: vec![(0, 3), (2, 9)],
            added_edges: vec![(0, 3), (5, 54)],
        };
        let payload = gen.encode();
        assert_eq!(DeltaGeneration::decode(&payload).unwrap(), gen);
        // every single-byte flip fails typed (decode or the outer frame)
        let framed = frame(&payload);
        for i in 0..framed.len() {
            let mut bad = framed.clone();
            bad[i] ^= 0x11;
            let r = parse_frame(&bad, 0, "t").and_then(|(p, _)| DeltaGeneration::decode(p));
            assert!(r.is_err(), "flip at {i} silently accepted");
        }
        // an empty generation (tombstones/edits only) is legal
        let empty = DeltaGeneration {
            generation: 2,
            n: 10,
            first_id: 40,
            count: 0,
            tombstones: vec![3],
            postings_offset: 100,
            postings_len: 9,
            removed_edges: vec![(1, 2)],
            ..Default::default()
        };
        assert_eq!(DeltaGeneration::decode(&empty.encode()).unwrap(), empty);
        // a tombstone at/above first_id is structural corruption
        let mut bad = gen.clone();
        bad.tombstones = vec![12];
        assert!(DeltaGeneration::decode(&bad.encode()).is_err());
        // non-canonical edits (u >= v) are rejected
        let mut bad = gen.clone();
        bad.added_edges = vec![(9, 9)];
        assert!(DeltaGeneration::decode(&bad.encode()).is_err());
    }

    #[test]
    fn meta_roundtrip_and_missing_keys() {
        let meta = IndexMeta {
            version: 1,
            n: 40,
            cliques: 7,
            max_clique: 5,
            blocks: 1,
            store_bytes: 100,
            postings_bytes: 400,
            generation: 3,
            min_size: 3,
            delta_generations: 2,
            tombstones: 4,
            dir_bytes: 220,
            graph_bytes: 90,
            graph_crc: 12345,
        };
        assert_eq!(IndexMeta::from_text(&meta.to_text()).unwrap(), meta);
        assert!(IndexMeta::from_text("version=1\nn=4\n").is_err());
        assert!(IndexMeta::from_text("garbage").is_err());
        // pre-generation manifests (no `generation` key) stay readable
        let old = "version=1\nn=4\ncliques=2\nmax_clique=2\nblocks=1\n";
        let parsed = IndexMeta::from_text(old).unwrap();
        assert_eq!(parsed.generation, 0);
        // ... and pre-chain manifests default to "no chain, no snapshot"
        assert_eq!(parsed.min_size, 0);
        assert_eq!(parsed.delta_generations, 0);
        assert_eq!(parsed.dir_bytes, 0);
        assert_eq!(parsed.graph_bytes, 0);
        // the trailing crc line catches every single-byte flip, even in
        // fields with no cross-check elsewhere (generation)
        let text = meta.to_text();
        for i in 0..text.len() {
            let mut bad = text.clone().into_bytes();
            bad[i] ^= 0x04; // stays ASCII, usually still parseable text
            if let Ok(flipped) = String::from_utf8(bad) {
                let r = IndexMeta::from_text(&flipped);
                assert!(
                    r.is_err() || r.as_ref().unwrap() == &meta,
                    "flip at byte {i} silently changed the manifest"
                );
                if r.is_ok() {
                    // a flip that still parses equal is impossible: the
                    // crc line pins every preceding byte
                    panic!("flip at byte {i} produced an accepted manifest");
                }
            }
        }
    }
}
