//! Out-of-core level storage.
//!
//! The paper's motivation (§1): "To deal with such large memory
//! requirements we have previously developed an out-of-core algorithm
//! ... However, the algorithm could not finish after one week of
//! execution ... Intensive disk I/O access has been the major
//! bottleneck" — which is why the Altix's in-core terabytes win. This
//! module supplies both halves of that comparison: a compact binary
//! codec for k-clique sub-lists, and a [`LevelStore`] that keeps a
//! level in memory until a byte budget is exceeded and spills the rest
//! to disk, streaming it back for the next expansion pass. The
//! `ablation_spill` bench quantifies the I/O penalty the paper reports.
//!
//! ## Crash safety
//!
//! Every on-disk record, here and in `gsb-index`, is framed
//! `[len: u32][crc32: u32][payload]` by [`frame`] and [`parse_frame`], so
//! a torn write, truncated file, or flipped bit surfaces as a typed
//! [`StoreError`] instead of a panic or silently wrong data. Level
//! checkpoints are written atomically in a versioned format that also
//! records the graph's bitmap width, letting resume reject a checkpoint
//! taken against a different graph. [`write_atomic`] — temp file,
//! fsync, rename — is the one durable file write: checkpoints, run
//! metadata, index manifests and metrics files all go through it.

use crate::sublist::SubList;
use crate::Vertex;
use gsb_bitset::{BitSet, NeighborSet};
use std::fmt;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

/// Errors from the binary store: spill files and level checkpoints.
///
/// Corruption is reported as data (which file region, which checksum),
/// never as a panic: a multi-day enumeration must be able to fall back
/// to an older checkpoint when the newest one is torn.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file does not start with a known checkpoint magic.
    BadMagic {
        /// The first 8 bytes found, little-endian.
        found: u64,
    },
    /// Data ends mid-header or mid-record (torn write / truncation).
    Torn {
        /// Which structure was being read.
        context: &'static str,
        /// Bytes the structure needs.
        needed: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// A record or header failed its CRC32 check (bit rot, partial
    /// overwrite).
    Checksum {
        /// Which structure was being read.
        context: &'static str,
        /// Checksum stored in the file.
        stored: u32,
        /// Checksum computed over the data.
        computed: u32,
    },
    /// The file holds a different number of records than its header
    /// claims.
    CountMismatch {
        /// Records promised by the header.
        expected: usize,
        /// Records actually decodable.
        found: usize,
    },
    /// A file was written for a different graph: a checkpoint's
    /// common-neighbor bitmap width, or an index file's vertex count,
    /// disagrees with the graph it is read against.
    GraphMismatch {
        /// Vertex count (bitmap width) the file records.
        checkpoint_bits: usize,
        /// Vertex count of the graph it is read against.
        graph_bits: usize,
    },
    /// The file was written with a different bitmap representation than
    /// the one reading it (see [`gsb_bitset::NeighborSet::KIND`]).
    BackendMismatch {
        /// Representation kind recorded in the file.
        found: u8,
        /// Representation kind expected by the reader.
        expected: u8,
    },
    /// Payload bytes do not decode as the expected bitmap
    /// representation.
    Codec {
        /// Which structure was being read.
        context: &'static str,
    },
    /// A `run.meta` names a bitmap representation this build does not
    /// have (such as the retired `hybrid`).
    UnknownBackend {
        /// The `backend=` value on record.
        name: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::BadMagic { found } => {
                write!(f, "not a gsb level checkpoint (magic {found:#018x})")
            }
            StoreError::Torn {
                context,
                needed,
                have,
            } => write!(
                f,
                "torn {context}: needs {needed} bytes, only {have} available"
            ),
            StoreError::Checksum {
                context,
                stored,
                computed,
            } => write!(
                f,
                "corrupt {context}: stored crc32 {stored:#010x}, computed {computed:#010x}"
            ),
            StoreError::CountMismatch { expected, found } => write!(
                f,
                "record count mismatch: header claims {expected}, file holds {found}"
            ),
            StoreError::GraphMismatch {
                checkpoint_bits,
                graph_bits,
            } => write!(
                f,
                "file is for a {checkpoint_bits}-vertex graph, not {graph_bits}"
            ),
            StoreError::BackendMismatch { found, expected } => write!(
                f,
                "file holds bitmap representation kind {found}, reader expects {expected}"
            ),
            StoreError::Codec { context } => {
                write!(f, "corrupt {context}: bytes do not decode")
            }
            StoreError::UnknownBackend { name } => write!(
                f,
                "run.meta records backend '{name}', which this build does not have \
                 (expected dense or wah)"
            ),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Slicing-by-8 tables: `CRC32_TABLES[0]` is the classic bytewise
/// table, and `CRC32_TABLES[k][b]` is the CRC state contribution of
/// byte `b` followed by `k` zero bytes, so eight table lookups fold
/// eight input bytes at once.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Take `N` bytes off the front of a read cursor. Every reader checks
/// the remaining length first, so a short cursor is a bug here.
fn take<const N: usize>(buf: &mut &[u8]) -> [u8; N] {
    let (head, rest) = buf
        .split_first_chunk::<N>()
        .expect("length checked before reading");
    *buf = rest;
    *head
}

fn take_u32(buf: &mut &[u8]) -> u32 {
    u32::from_le_bytes(take(buf))
}

fn take_u64(buf: &mut &[u8]) -> u64 {
    u64::from_le_bytes(take(buf))
}

/// CRC-32 (IEEE 802.3 polynomial) of `data` — the per-record integrity
/// check of the spill/checkpoint formats.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut c = !0u32;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let (lo, hi) = chunk.split_at(4);
        let lo = c ^ u32::from_le_bytes(lo.try_into().expect("4-byte half"));
        let hi = u32::from_le_bytes(hi.try_into().expect("4-byte half"));
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Frame a payload: `[len: u32 LE][crc32(payload): u32 LE][payload]`.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 8);
    put_u32(&mut out, payload.len() as u32);
    put_u32(&mut out, crc32(payload));
    out.extend_from_slice(payload);
    out
}

/// Parse one frame at `pos`; returns the verified payload and the
/// position just past it.
pub fn parse_frame<'a>(
    bytes: &'a [u8],
    pos: usize,
    context: &'static str,
) -> Result<(&'a [u8], usize), StoreError> {
    let torn = |needed, have| StoreError::Torn {
        context,
        needed,
        have,
    };
    let rest = bytes.get(pos..).unwrap_or_default();
    let mut head = rest.get(..8).ok_or(torn(8, rest.len()))?;
    let len = take_u32(&mut head) as usize;
    let stored = take_u32(&mut head);
    let payload = rest[8..].get(..len).ok_or(torn(len, rest.len() - 8))?;
    let computed = crc32(payload);
    if stored != computed {
        return Err(StoreError::Checksum {
            context,
            stored,
            computed,
        });
    }
    Ok((payload, pos + 8 + len))
}

/// Encode one sub-list into a length-prefixed binary record.
///
/// Layout: `prefix_len: u32, tails_len: u32, n_bits: u32,
/// prefix: [u32], tails: [u32], cn payload`. For a fixed-width
/// representation (dense: [`NeighborSet::serialized_len`] is `Some`)
/// the payload is written raw — byte-identical to the historical dense
/// format. The variable-width representation (WAH) prepends a
/// `payload_len: u32`.
pub fn encode_sublist<S: NeighborSet>(sl: &SubList<S>, buf: &mut Vec<u8>) {
    let n_bits = sl.cn.nbits();
    put_u32(buf, sl.prefix.len() as u32);
    put_u32(buf, sl.tails.len() as u32);
    put_u32(buf, n_bits as u32);
    for &v in &sl.prefix {
        put_u32(buf, v);
    }
    for &t in &sl.tails {
        put_u32(buf, t);
    }
    let mut payload = Vec::new();
    sl.cn.serialize_into(&mut payload);
    match S::serialized_len(n_bits) {
        Some(len) => debug_assert_eq!(len, payload.len(), "fixed-width codec drift"),
        None => put_u32(buf, payload.len() as u32),
    }
    buf.extend_from_slice(&payload);
}

/// Decode one sub-list from the reader side of [`encode_sublist`],
/// advancing the cursor `buf` past it. Returns `Ok(None)` at a clean
/// end of input and a typed [`StoreError::Torn`] on a short read —
/// corruption is an error to recover from, not a panic.
pub fn decode_sublist<S: NeighborSet>(buf: &mut &[u8]) -> Result<Option<SubList<S>>, StoreError> {
    if buf.is_empty() {
        return Ok(None);
    }
    if buf.len() < 12 {
        return Err(StoreError::Torn {
            context: "sub-list header",
            needed: 12,
            have: buf.len(),
        });
    }
    let prefix_len = take_u32(buf) as usize;
    let tails_len = take_u32(buf) as usize;
    let n_bits = take_u32(buf) as usize;
    let vec_need = 4 * (prefix_len + tails_len);
    if buf.len() < vec_need {
        return Err(StoreError::Torn {
            context: "sub-list body",
            needed: vec_need,
            have: buf.len(),
        });
    }
    let prefix: Vec<Vertex> = (0..prefix_len).map(|_| take_u32(buf)).collect();
    let tails: Vec<Vertex> = (0..tails_len).map(|_| take_u32(buf)).collect();
    let payload_len = match S::serialized_len(n_bits) {
        Some(len) => len,
        None => {
            if buf.len() < 4 {
                return Err(StoreError::Torn {
                    context: "sub-list bitmap length",
                    needed: 4,
                    have: buf.len(),
                });
            }
            take_u32(buf) as usize
        }
    };
    if buf.len() < payload_len {
        return Err(StoreError::Torn {
            context: "sub-list bitmap",
            needed: payload_len,
            have: buf.len(),
        });
    }
    let (payload, rest) = buf.split_at(payload_len);
    let cn = S::deserialize(n_bits, payload).ok_or(StoreError::Codec {
        context: "sub-list bitmap",
    })?;
    *buf = rest;
    Ok(Some(SubList { prefix, cn, tails }))
}

/// Append one sub-list as a CRC-framed record:
/// `[payload_len: u32][crc32(payload): u32][payload]`. `scratch` is a
/// reusable encode buffer.
pub fn encode_record<S: NeighborSet>(sl: &SubList<S>, out: &mut Vec<u8>, scratch: &mut Vec<u8>) {
    scratch.clear();
    encode_sublist(sl, scratch);
    out.extend_from_slice(&frame(scratch));
}

/// Read back one CRC-framed record written by [`encode_record`],
/// advancing the cursor `bytes` past it. Returns `Ok(None)` at a clean
/// end of input; any torn frame or checksum failure is a typed error.
pub fn decode_record<S: NeighborSet>(bytes: &mut &[u8]) -> Result<Option<SubList<S>>, StoreError> {
    if bytes.is_empty() {
        return Ok(None);
    }
    let (mut payload, next) = parse_frame(bytes, 0, "record payload")?;
    // The payload checksum passed, so decoding consumes exactly the
    // payload; a disagreement means the frame length itself lied.
    let len = payload.len();
    let sl = decode_sublist(&mut payload)?.ok_or(StoreError::Torn {
        context: "empty record payload",
        needed: 12,
        have: 0,
    })?;
    if !payload.is_empty() {
        return Err(StoreError::CountMismatch {
            expected: len,
            found: len - payload.len(),
        });
    }
    *bytes = &bytes[next..];
    Ok(Some(sl))
}

/// Spill configuration for enumeration runs.
#[derive(Clone, Debug)]
pub struct SpillConfig {
    /// In-memory budget, in *formula* bytes, before a level spills.
    pub budget_bytes: usize,
    /// Directory for spill files (a unique file per level is created
    /// inside and deleted on drop).
    pub dir: PathBuf,
}

impl SpillConfig {
    /// Budgeted spilling into the system temp directory.
    pub fn in_temp(budget_bytes: usize) -> Self {
        SpillConfig {
            budget_bytes,
            dir: std::env::temp_dir(),
        }
    }
}

/// One level of candidate sub-lists, resident in memory up to a budget
/// and on disk beyond it. Generic over the bitmap representation: the
/// spill records carry whatever [`NeighborSet`] the run enumerates
/// with, so a WAH run spills compressed bytes.
pub struct LevelStore<S: NeighborSet = BitSet> {
    budget_bytes: usize,
    dir: PathBuf,
    graph_n: usize,
    resident: Vec<SubList<S>>,
    resident_bytes: usize,
    spill: Option<Spill>,
    total: usize,
    scratch: Vec<u8>,
}

struct Spill {
    path: PathBuf,
    writer: Option<BufWriter<File>>,
    records: usize,
    bytes_written: u64,
}

impl<S: NeighborSet> LevelStore<S> {
    /// An empty store for a graph with `graph_n` vertices.
    pub fn new(config: &SpillConfig, graph_n: usize) -> Self {
        LevelStore {
            budget_bytes: config.budget_bytes,
            dir: config.dir.clone(),
            graph_n,
            resident: Vec::new(),
            resident_bytes: 0,
            spill: None,
            total: 0,
            scratch: Vec::new(),
        }
    }

    /// Number of sub-lists stored (resident + spilled).
    pub fn len(&self) -> usize {
        self.total
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Sub-lists currently resident in memory.
    pub fn resident_len(&self) -> usize {
        self.resident.len()
    }

    /// Sub-lists spilled to disk.
    pub fn spilled_len(&self) -> usize {
        self.spill.as_ref().map_or(0, |s| s.records)
    }

    /// Bytes written to the spill file so far (framing included).
    pub fn spilled_bytes(&self) -> u64 {
        self.spill.as_ref().map_or(0, |s| s.bytes_written)
    }

    /// Append a sub-list, spilling it to disk (as a CRC-framed record)
    /// if the memory budget is exhausted. The budget is charged in the
    /// paper's *formula* bytes, which are representation-independent,
    /// so dense and compressed runs spill at the same points.
    pub fn push(&mut self, sl: SubList<S>) -> Result<(), StoreError> {
        self.total += 1;
        let cost = sl.formula_bytes(self.graph_n);
        if self.resident_bytes + cost <= self.budget_bytes {
            self.resident_bytes += cost;
            self.resident.push(sl);
            return Ok(());
        }
        // Transient failures before any bytes hit the spill file are
        // retried with backoff; once the buffered writer is involved a
        // partial write can't be blindly replayed, so `write_all`
        // errors below stay fatal (the CRC framing catches torn tails
        // on read-back).
        let retry = crate::supervise::RetryPolicy::default();
        retry.run_io(|| crate::failpoint::inject("spill.write"))?;
        let spill = match &mut self.spill {
            Some(s) => s,
            None => {
                static SPILL_SEQ: std::sync::atomic::AtomicU64 =
                    std::sync::atomic::AtomicU64::new(0);
                let seq = SPILL_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let path = self
                    .dir
                    .join(format!("gsb-spill-{}-{seq}.bin", std::process::id()));
                let file = retry.run_io(|| File::create(&path))?;
                self.spill = Some(Spill {
                    path,
                    writer: Some(BufWriter::new(file)),
                    records: 0,
                    bytes_written: 0,
                });
                self.spill.as_mut().expect("just created")
            }
        };
        let mut buf = Vec::new();
        encode_record(&sl, &mut buf, &mut self.scratch);
        let writer = spill.writer.as_mut().expect("writer open while pushing");
        writer.write_all(&buf)?;
        spill.bytes_written += buf.len() as u64;
        spill.records += 1;
        Ok(())
    }

    /// Drain the store, applying `f` to every sub-list: resident ones
    /// first (moved out), then spilled ones streamed back from disk.
    /// Torn or corrupt spill records surface as typed errors; the spill
    /// file is removed either way.
    pub fn drain(mut self, mut f: impl FnMut(SubList<S>)) -> Result<DrainReport, StoreError> {
        for sl in self.resident.drain(..) {
            f(sl);
        }
        let mut report = DrainReport {
            read_back: 0,
            bytes_read: 0,
        };
        let Some(mut spill) = self.spill.take() else {
            return Ok(report);
        };
        let result = (|| -> Result<(), StoreError> {
            // flush and reopen for reading
            if let Some(w) = spill.writer.take() {
                w.into_inner()
                    .map_err(std::io::IntoInnerError::into_error)?
                    .sync_all()?;
            }
            let mut reader = BufReader::new(File::open(&spill.path)?);
            let mut raw = Vec::with_capacity(spill.bytes_written as usize);
            reader.read_to_end(&mut raw)?;
            report.bytes_read = raw.len() as u64;
            let mut bytes = &raw[..];
            while let Some(sl) = decode_record(&mut bytes)? {
                report.read_back += 1;
                f(sl);
            }
            if report.read_back != spill.records {
                return Err(StoreError::CountMismatch {
                    expected: spill.records,
                    found: report.read_back,
                });
            }
            Ok(())
        })();
        let _ = std::fs::remove_file(&spill.path);
        result.map(|()| report)
    }
}

impl<S: NeighborSet> Drop for LevelStore<S> {
    fn drop(&mut self) {
        if let Some(spill) = self.spill.take() {
            drop(spill.writer);
            let _ = std::fs::remove_file(&spill.path);
        }
    }
}

/// What came back from disk during a drain.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DrainReport {
    /// Records streamed back from the spill file.
    pub read_back: usize,
    /// Bytes read from disk.
    pub bytes_read: u64,
}

/// Legacy (v1) checkpoint magic: unframed records, no checksums.
/// Still readable for files written by earlier builds.
const CHECKPOINT_MAGIC_V1: u64 = 0x5343_3035_474C_5631; // "SC05GLV1"
/// Dense (v2) checkpoint magic: CRC-checked header carrying the
/// graph's bitmap width, CRC-framed records. Still written for dense
/// runs, byte-identical to earlier builds.
const CHECKPOINT_MAGIC_V2: u64 = 0x5343_3035_474C_5632; // "SC05GLV2"

/// v3 checkpoint magic: like v2 but the header also records which
/// bitmap representation ([`NeighborSet::KIND`]) the records hold.
/// Written for non-dense runs.
const CHECKPOINT_MAGIC_V3: u64 = 0x5343_3035_474C_5633; // "SC05GLV3"

/// v2 header: magic u64 | k u32 | n_bits u32 | count u64, then a u32
/// CRC over those 24 bytes.
const V2_HEADER_BYTES: usize = 24;

/// v3 header: magic u64 | k u32 | n_bits u32 | count u64 | kind u32,
/// then a u32 CRC over those 28 bytes.
const V3_HEADER_BYTES: usize = 28;

/// Write a whole level (the paper's `L_k`) as a checkpoint file:
/// genome-scale runs took the original authors hours to days, and a
/// levelwise algorithm has a natural consistent cut at every barrier.
///
/// The write is atomic ([`write_atomic`]): a crash mid-checkpoint leaves
/// either the previous checkpoint or none — never a torn one under the
/// final name — and the directory is synced so the rename is durable
/// too. The header and then each CRC-framed record stream through a
/// buffered writer, so the encoding never holds more than one record.
/// The graph's bitmap width (from the first sub-list) is recorded so
/// resume can reject a checkpoint from a different graph. Returns the
/// bytes written (header + framed records), which the telemetry layer
/// reports as the checkpoint's I/O cost.
///
/// Dense levels are written in the historical v2 format (byte-identical
/// to earlier builds); other representations get a v3 header that also
/// records the representation kind, so resume can reject a checkpoint
/// taken under a different backend.
pub fn write_level<S: NeighborSet>(
    path: &Path,
    level: &crate::sublist::Level<S>,
) -> Result<u64, StoreError> {
    let n_bits = level.sublists.first().map_or(0, |sl| sl.cn.nbits());
    let mut header = Vec::with_capacity(V3_HEADER_BYTES + 4);
    let magic = if S::KIND == gsb_bitset::KIND_DENSE {
        CHECKPOINT_MAGIC_V2
    } else {
        CHECKPOINT_MAGIC_V3
    };
    put_u64(&mut header, magic);
    put_u32(&mut header, level.k as u32);
    put_u32(&mut header, n_bits as u32);
    put_u64(&mut header, level.sublists.len() as u64);
    if magic == CHECKPOINT_MAGIC_V3 {
        put_u32(&mut header, u32::from(S::KIND));
    }
    let header_crc = crc32(&header);
    put_u32(&mut header, header_crc);
    let bytes = write_atomic(path, |file| {
        file.write_all(&header)?;
        let mut bytes = header.len() as u64;
        let (mut record, mut scratch) = (Vec::new(), Vec::new());
        for sl in &level.sublists {
            record.clear();
            encode_record(sl, &mut record, &mut scratch);
            file.write_all(&record)?;
            bytes += record.len() as u64;
        }
        Ok(bytes)
    })?;
    if let Some(dir) = path.parent() {
        sync_dir(dir);
    }
    Ok(bytes)
}

/// Write `path` atomically and durably: `write` fills a sibling
/// `<name>.tmp` through a buffered writer, which is then flushed,
/// fsynced and renamed over `path`, so a crash leaves the old file or
/// the new one — never a torn one under the final name. On any error
/// the tmp file is removed. The directory is not synced: each commit
/// point does that once, with [`sync_dir`]. Safe to retry wholesale —
/// the rename either happened or it did not.
pub fn write_atomic<T>(
    path: &Path,
    write: impl FnOnce(&mut BufWriter<File>) -> std::io::Result<T>,
) -> std::io::Result<T> {
    let tmp = sibling_tmp(path);
    let result = File::create(&tmp).and_then(|file| {
        let mut file = BufWriter::new(file);
        let value = write(&mut file)?;
        file.into_inner()
            .map_err(std::io::IntoInnerError::into_error)?
            .sync_all()?;
        std::fs::rename(&tmp, path)?;
        Ok(value)
    });
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Best-effort directory fsync, so the renames into `dir` are durable
/// themselves; not every platform or filesystem lets a directory be
/// opened. An empty path (the parent of a bare file name) is the
/// working directory.
pub fn sync_dir(dir: &Path) {
    let dir = if dir.as_os_str().is_empty() {
        Path::new(".")
    } else {
        dir
    };
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

/// Remove orphaned `*.tmp` files from `dir`: every durable file is
/// written tmp-then-rename by [`write_atomic`], so a tmp left by a crash
/// mid-write is never valid.
pub fn sweep_tmp_files(dir: &Path) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        if entry.file_name().to_string_lossy().ends_with(".tmp") {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

fn sibling_tmp(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map_or_else(|| "checkpoint".into(), |n| n.to_os_string());
    name.push(".tmp");
    path.with_file_name(name)
}

/// Read a level checkpoint written by [`write_level`] (v3, v2, or
/// legacy v1 files from earlier builds), returning the level and the
/// bitmap width it was taken over (0 when unknown: v1 files and empty
/// levels). v1/v2 files hold dense records; reading them as another
/// representation is a typed [`StoreError::BackendMismatch`].
pub fn read_level_meta<S: NeighborSet>(
    path: &Path,
) -> Result<(crate::sublist::Level<S>, usize), StoreError> {
    let raw = std::fs::read(path)?;
    let mut bytes = &raw[..];
    if bytes.len() < 8 {
        return Err(StoreError::Torn {
            context: "checkpoint magic",
            needed: 8,
            have: bytes.len(),
        });
    }
    let magic = take_u64(&mut bytes);
    if matches!(magic, CHECKPOINT_MAGIC_V1 | CHECKPOINT_MAGIC_V2)
        && S::KIND != gsb_bitset::KIND_DENSE
    {
        return Err(StoreError::BackendMismatch {
            found: gsb_bitset::KIND_DENSE,
            expected: S::KIND,
        });
    }
    match magic {
        CHECKPOINT_MAGIC_V3 => read_level_v3(&raw),
        CHECKPOINT_MAGIC_V2 => read_level_v2(&raw),
        CHECKPOINT_MAGIC_V1 => read_level_v1(bytes).map(|l| (l, 0)),
        found => Err(StoreError::BadMagic { found }),
    }
}

/// Read a level checkpoint written by [`write_level`].
pub fn read_level<S: NeighborSet>(path: &Path) -> Result<crate::sublist::Level<S>, StoreError> {
    read_level_meta(path).map(|(level, _)| level)
}

/// `raw` is the whole file; its magic has already been matched.
fn read_level_v3<S: NeighborSet>(
    raw: &[u8],
) -> Result<(crate::sublist::Level<S>, usize), StoreError> {
    let mut bytes = &raw[8..];
    // 20 header bytes after the magic, plus the 4-byte header CRC.
    if bytes.len() < 24 {
        return Err(StoreError::Torn {
            context: "checkpoint header",
            needed: 24,
            have: bytes.len(),
        });
    }
    let k = take_u32(&mut bytes) as usize;
    let n_bits = take_u32(&mut bytes) as usize;
    let count = take_u64(&mut bytes) as usize;
    let kind = take_u32(&mut bytes);
    let stored = take_u32(&mut bytes);
    let computed = crc32(&raw[..V3_HEADER_BYTES]);
    if computed != stored {
        return Err(StoreError::Checksum {
            context: "checkpoint header",
            stored,
            computed,
        });
    }
    if kind != u32::from(S::KIND) {
        return Err(StoreError::BackendMismatch {
            found: kind.min(255) as u8,
            expected: S::KIND,
        });
    }
    let mut sublists = Vec::with_capacity(count.min(1 << 20));
    while let Some(sl) = decode_record(&mut bytes)? {
        sublists.push(sl);
        if sublists.len() > count {
            break;
        }
    }
    if sublists.len() != count {
        return Err(StoreError::CountMismatch {
            expected: count,
            found: sublists.len(),
        });
    }
    Ok((crate::sublist::Level { k, sublists }, n_bits))
}

/// `raw` is the whole file; its magic has already been matched.
fn read_level_v2<S: NeighborSet>(
    raw: &[u8],
) -> Result<(crate::sublist::Level<S>, usize), StoreError> {
    let mut bytes = &raw[8..];
    // 16 header bytes after the magic, plus the 4-byte header CRC.
    if bytes.len() < 20 {
        return Err(StoreError::Torn {
            context: "checkpoint header",
            needed: 20,
            have: bytes.len(),
        });
    }
    let k = take_u32(&mut bytes) as usize;
    let n_bits = take_u32(&mut bytes) as usize;
    let count = take_u64(&mut bytes) as usize;
    let stored = take_u32(&mut bytes);
    let computed = crc32(&raw[..V2_HEADER_BYTES]);
    if computed != stored {
        return Err(StoreError::Checksum {
            context: "checkpoint header",
            stored,
            computed,
        });
    }
    let mut sublists = Vec::with_capacity(count.min(1 << 20));
    while let Some(sl) = decode_record(&mut bytes)? {
        sublists.push(sl);
        if sublists.len() > count {
            break;
        }
    }
    if sublists.len() != count {
        return Err(StoreError::CountMismatch {
            expected: count,
            found: sublists.len(),
        });
    }
    Ok((crate::sublist::Level { k, sublists }, n_bits))
}

fn read_level_v1<S: NeighborSet>(mut bytes: &[u8]) -> Result<crate::sublist::Level<S>, StoreError> {
    if bytes.len() < 12 {
        return Err(StoreError::Torn {
            context: "checkpoint header",
            needed: 12,
            have: bytes.len(),
        });
    }
    let k = take_u32(&mut bytes) as usize;
    let count = take_u64(&mut bytes) as usize;
    let mut sublists = Vec::with_capacity(count.min(1 << 20));
    for _ in 0..count {
        match decode_sublist(&mut bytes)? {
            Some(sl) => sublists.push(sl),
            None => {
                return Err(StoreError::CountMismatch {
                    expected: count,
                    found: sublists.len(),
                })
            }
        }
    }
    Ok(crate::sublist::Level { k, sublists })
}

/// Convenience: does `dir` exist and accept files? Used by callers to
/// validate a [`SpillConfig`] before a long run.
pub fn dir_writable(dir: &Path) -> bool {
    let probe = dir.join(format!(".gsb-probe-{}", std::process::id()));
    match File::create(&probe) {
        Ok(_) => {
            let _ = std::fs::remove_file(&probe);
            true
        }
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsb_bitset::WahBitSet;
    use gsb_graph::BitGraph;

    fn sample_sublists(n_graph: usize, count: usize) -> Vec<SubList> {
        let g = BitGraph::complete(n_graph);
        (0..count)
            .map(|i| {
                let a = i % (n_graph - 3);
                let members = vec![a];
                SubList {
                    prefix: vec![a as Vertex],
                    cn: g.common_neighbors(&members),
                    tails: ((a + 1)..(a + 3)).map(|v| v as Vertex).collect(),
                }
            })
            .collect()
    }

    #[test]
    fn codec_roundtrip() {
        for sl in sample_sublists(70, 5) {
            let mut buf = Vec::new();
            encode_sublist(&sl, &mut buf);
            let mut bytes = &buf[..];
            let back: SubList = decode_sublist(&mut bytes).unwrap().expect("one record");
            assert_eq!(back.prefix, sl.prefix);
            assert_eq!(back.tails, sl.tails);
            assert_eq!(back.cn, sl.cn);
            assert!(decode_sublist::<BitSet>(&mut bytes).unwrap().is_none());
        }
    }

    #[test]
    fn multiple_records_stream() {
        let sls = sample_sublists(40, 7);
        let mut buf = Vec::new();
        for sl in &sls {
            encode_sublist(sl, &mut buf);
        }
        let mut bytes = &buf[..];
        let mut back: Vec<SubList> = Vec::new();
        while let Some(sl) = decode_sublist(&mut bytes).unwrap() {
            back.push(sl);
        }
        assert_eq!(back.len(), sls.len());
        for (a, b) in back.iter().zip(&sls) {
            assert_eq!(a.tails, b.tails);
        }
    }

    /// The bytewise definition the sliced loop must reproduce.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in data {
            c = CRC32_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    #[test]
    fn crc32_slicing_matches_bytewise_at_every_length_and_offset() {
        let mut rng = gsb_rng::SplitMix64::new(0xC3C3);
        let buf: Vec<u8> = (0..120).map(|_| rng.below(256) as u8).collect();
        for offset in 0..8 {
            for len in 0..=100 {
                let data = &buf[offset..offset + len];
                assert_eq!(
                    crc32(data),
                    crc32_bytewise(data),
                    "offset {offset}, len {len}"
                );
            }
        }
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn crc32_known_vectors() {
        // IEEE 802.3 reference values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn framed_record_roundtrip_and_detection() {
        let sl = &sample_sublists(40, 1)[0];
        let mut clean = Vec::new();
        encode_record(sl, &mut clean, &mut Vec::new());

        // clean round-trip
        let mut bytes = &clean[..];
        let back: SubList = decode_record(&mut bytes).unwrap().expect("one record");
        assert_eq!(back.tails, sl.tails);
        assert!(decode_record::<BitSet>(&mut bytes).unwrap().is_none());

        // every truncation is torn, never a panic or silent success
        for cut in 0..clean.len() {
            let mut bytes = &clean[..cut];
            if cut == 0 {
                assert!(decode_record::<BitSet>(&mut bytes).unwrap().is_none());
            } else {
                assert!(decode_record::<BitSet>(&mut bytes).is_err(), "cut at {cut}");
            }
        }

        // every single-bit flip is detected (CRC32 catches all 1-bit
        // errors; flips in the frame fields fail length or crc checks)
        for byte in 0..clean.len() {
            for bit in 0..8 {
                let mut bad = clean.clone();
                bad[byte] ^= 1 << bit;
                let mut bytes = &bad[..];
                assert!(
                    decode_record::<BitSet>(&mut bytes).is_err(),
                    "flip byte {byte} bit {bit} undetected"
                );
            }
        }
    }

    #[test]
    fn wah_records_roundtrip() {
        for sl in sample_sublists(70, 5) {
            let wah: SubList<WahBitSet> = sl.convert();
            let mut buf = Vec::new();
            let mut scratch = Vec::new();
            encode_record(&wah, &mut buf, &mut scratch);
            let mut bytes = &buf[..];
            let back: SubList<WahBitSet> = decode_record(&mut bytes).unwrap().expect("one record");
            assert_eq!(back.prefix, wah.prefix);
            assert_eq!(back.tails, wah.tails);
            assert_eq!(back.cn.to_bitset(), sl.cn);
        }
    }

    #[test]
    fn store_all_resident_under_budget() {
        let config = SpillConfig::in_temp(usize::MAX);
        let mut store = LevelStore::new(&config, 40);
        let sls = sample_sublists(40, 10);
        for sl in sls.clone() {
            store.push(sl).unwrap();
        }
        assert_eq!(store.len(), 10);
        assert_eq!(store.resident_len(), 10);
        assert_eq!(store.spilled_len(), 0);
        let mut seen = 0;
        let report = store.drain(|_| seen += 1).unwrap();
        assert_eq!(seen, 10);
        assert_eq!(report.read_back, 0);
    }

    #[test]
    fn store_spills_over_budget_and_reads_back() {
        let config = SpillConfig::in_temp(300); // a few records only
        let mut store = LevelStore::new(&config, 40);
        let sls = sample_sublists(40, 20);
        for sl in sls.clone() {
            store.push(sl).unwrap();
        }
        assert_eq!(store.len(), 20);
        assert!(
            store.spilled_len() > 0,
            "budget should have forced spilling"
        );
        assert!(store.spilled_bytes() > 0);
        let mut tails = Vec::new();
        let report = store.drain(|sl| tails.push(sl.tails.clone())).unwrap();
        assert_eq!(tails.len(), 20);
        assert!(report.read_back > 0);
        // content preserved (resident first, then spilled, same order)
        let expect: Vec<Vec<Vertex>> = sls.iter().map(|s| s.tails.clone()).collect();
        let mut got_sorted = tails.clone();
        let mut expect_sorted = expect.clone();
        got_sorted.sort();
        expect_sorted.sort();
        assert_eq!(got_sorted, expect_sorted);
    }

    #[test]
    fn zero_budget_spills_everything() {
        let config = SpillConfig::in_temp(0);
        let mut store = LevelStore::new(&config, 40);
        for sl in sample_sublists(40, 5) {
            store.push(sl).unwrap();
        }
        assert_eq!(store.resident_len(), 0);
        assert_eq!(store.spilled_len(), 5);
        let mut n = 0;
        let report = store.drain(|_| n += 1).unwrap();
        assert_eq!(n, 5);
        assert_eq!(report.read_back, 5);
        assert!(report.bytes_read > 0);
    }

    #[test]
    fn corrupted_spill_file_yields_typed_error_and_is_removed() {
        let config = SpillConfig::in_temp(0);
        let mut store = LevelStore::new(&config, 40);
        for sl in sample_sublists(40, 4) {
            store.push(sl).unwrap();
        }
        let path = store.spill.as_ref().unwrap().path.clone();
        // flip one payload bit behind the store's back
        if let Some(w) = store.spill.as_mut().unwrap().writer.take() {
            w.into_inner().unwrap().sync_all().unwrap();
        }
        let mut raw = std::fs::read(&path).unwrap();
        let mid = raw.len() / 2;
        raw[mid] ^= 0x10;
        std::fs::write(&path, &raw).unwrap();
        let err = store.drain(|_| {}).unwrap_err();
        assert!(
            matches!(
                err,
                StoreError::Checksum { .. } | StoreError::CountMismatch { .. }
            ),
            "unexpected error {err}"
        );
        assert!(!path.exists(), "spill file leaked after failed drain");
    }

    #[test]
    fn spill_file_removed_on_drop() {
        let config = SpillConfig::in_temp(0);
        let mut store = LevelStore::new(&config, 40);
        for sl in sample_sublists(40, 3) {
            store.push(sl).unwrap();
        }
        let path = store.spill.as_ref().unwrap().path.clone();
        assert!(path.exists());
        drop(store);
        assert!(!path.exists(), "spill file leaked");
    }

    #[test]
    fn dir_writable_checks() {
        assert!(dir_writable(&std::env::temp_dir()));
        assert!(!dir_writable(Path::new("/nonexistent-gsb-dir")));
    }

    #[test]
    fn v1_checkpoints_still_readable() {
        let sls = sample_sublists(40, 3);
        let mut buf = Vec::new();
        put_u64(&mut buf, CHECKPOINT_MAGIC_V1);
        put_u32(&mut buf, 3);
        put_u64(&mut buf, sls.len() as u64);
        for sl in &sls {
            encode_sublist(sl, &mut buf);
        }
        let path = std::env::temp_dir().join(format!("gsb-v1-compat-{}.lvl", std::process::id()));
        std::fs::write(&path, &buf).unwrap();
        let (level, n_bits) = read_level_meta::<BitSet>(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(level.k, 3);
        assert_eq!(level.sublists.len(), 3);
        assert_eq!(n_bits, 0, "v1 files carry no graph width");
    }

    #[test]
    fn atomic_write_leaves_no_tmp_behind() {
        let level = crate::sublist::Level {
            k: 4,
            sublists: sample_sublists(40, 6),
        };
        let path = std::env::temp_dir().join(format!("gsb-atomic-{}.lvl", std::process::id()));
        write_level(&path, &level).unwrap();
        assert!(!sibling_tmp(&path).exists(), "temp file left behind");
        let (back, n_bits) = read_level_meta::<BitSet>(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(back.k, 4);
        assert_eq!(back.sublists.len(), 6);
        assert_eq!(n_bits, 40);

        // The helper itself: a write lands whole and leaves no tmp; a
        // failed write leaves the old file and no tmp either.
        let path = std::env::temp_dir().join(format!("gsb-atomic-{}.txt", std::process::id()));
        write_atomic(&path, |w| w.write_all(b"first\n")).unwrap();
        assert!(!sibling_tmp(&path).exists(), "temp file left behind");
        let err = write_atomic(&path, |w| {
            w.write_all(b"torn")?;
            Err::<(), _>(std::io::Error::other("mid-write failure"))
        });
        assert!(err.is_err());
        assert!(
            !sibling_tmp(&path).exists(),
            "temp file left behind on error"
        );
        assert_eq!(std::fs::read(&path).unwrap(), b"first\n");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn v3_checkpoint_roundtrips_wah_and_rejects_wrong_backend() {
        let level: crate::sublist::Level<WahBitSet> = crate::sublist::Level {
            k: 4,
            sublists: sample_sublists(40, 6),
        }
        .convert();
        let path = std::env::temp_dir().join(format!("gsb-v3-{}.lvl", std::process::id()));
        write_level(&path, &level).unwrap();
        let (back, n_bits) = read_level_meta::<WahBitSet>(&path).unwrap();
        assert_eq!(back.k, 4);
        assert_eq!(back.sublists.len(), 6);
        assert_eq!(n_bits, 40);
        for (a, b) in back.sublists.iter().zip(&level.sublists) {
            assert_eq!(a.cn, b.cn);
            assert_eq!(a.tails, b.tails);
        }
        // a dense reader must get a typed mismatch, not garbage
        let err = read_level_meta::<BitSet>(&path).unwrap_err();
        assert!(
            matches!(err, StoreError::BackendMismatch { .. }),
            "unexpected error {err}"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn v3_checkpoint_of_a_retired_kind_is_a_backend_mismatch() {
        let level: crate::sublist::Level<WahBitSet> = crate::sublist::Level {
            k: 4,
            sublists: sample_sublists(40, 3),
        }
        .convert();
        let path = std::env::temp_dir().join(format!("gsb-v3-kind2-{}.lvl", std::process::id()));
        write_level(&path, &level).unwrap();
        // Retag the header as kind 2 (the retired adaptive backend) with
        // a valid header CRC, as a build that still wrote it would have.
        let mut raw = std::fs::read(&path).unwrap();
        raw[24..28].copy_from_slice(&2u32.to_le_bytes());
        let crc = crc32(&raw[..V3_HEADER_BYTES]);
        raw[V3_HEADER_BYTES..V3_HEADER_BYTES + 4].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, &raw).unwrap();
        let err = read_level_meta::<BitSet>(&path).unwrap_err();
        assert!(
            matches!(
                err,
                StoreError::BackendMismatch {
                    found: 2,
                    expected: 0
                }
            ),
            "unexpected error {err}"
        );
        let err = read_level_meta::<WahBitSet>(&path).unwrap_err();
        assert!(
            matches!(
                err,
                StoreError::BackendMismatch {
                    found: 2,
                    expected: 1
                }
            ),
            "unexpected error {err}"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn dense_reader_rejects_nothing_but_wah_rejects_v2() {
        let level = crate::sublist::Level {
            k: 3,
            sublists: sample_sublists(40, 2),
        };
        let path = std::env::temp_dir().join(format!("gsb-v2-gate-{}.lvl", std::process::id()));
        write_level(&path, &level).unwrap();
        assert!(read_level_meta::<BitSet>(&path).is_ok());
        let err = read_level_meta::<WahBitSet>(&path).unwrap_err();
        assert!(
            matches!(
                err,
                StoreError::BackendMismatch {
                    found: gsb_bitset::KIND_DENSE,
                    ..
                }
            ),
            "unexpected error {err}"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn wah_spill_store_roundtrips_compressed_records() {
        let config = SpillConfig::in_temp(0);
        let mut store: LevelStore<WahBitSet> = LevelStore::new(&config, 40);
        let originals: Vec<SubList<WahBitSet>> = sample_sublists(40, 5)
            .iter()
            .map(SubList::convert)
            .collect();
        for sl in originals.clone() {
            store.push(sl).unwrap();
        }
        assert_eq!(store.spilled_len(), 5);
        let mut back = Vec::new();
        let report = store.drain(|sl| back.push(sl)).unwrap();
        assert_eq!(report.read_back, 5);
        let mut got: Vec<_> = back.iter().map(|s| s.tails.clone()).collect();
        let mut want: Vec<_> = originals.iter().map(|s| s.tails.clone()).collect();
        got.sort();
        want.sort();
        assert_eq!(got, want);
    }
}
