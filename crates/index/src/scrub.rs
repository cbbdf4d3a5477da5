//! Offline index scrubbing — `gsb scrub`'s engine.
//!
//! [`scrub`] walks a committed index directory end to end: the manifest
//! (including its self-CRC), the directory file — base record **and
//! every delta-generation record of the chain** — every CRC-framed
//! block of the clique store (base and delta), every postings record
//! (base and per-generation overlay frames), the graph snapshot pinned
//! by the manifest's whole-file CRC, and the chain's edit log replayed
//! against it — then cross-checks the layers against each other
//! (counts, sizes, offsets, tombstone accounting, and a full
//! recomputation of the postings from the decoded cliques). Every
//! defect is collected as a typed [`ScrubFinding`] rather than stopping
//! at the first, so one pass maps the whole blast radius.
//!
//! The directory walk, the block and postings decoders and the edit-log
//! replay are [`crate::format`]'s, the ones [`crate::CliqueIndex`] opens
//! and reads with: the reader fails on the first defect they find,
//! scrub reports them all. What scrub adds is the store walk's
//! placement and coverage checks, the canonical (size, lex) order of
//! the base's records and of each generation's, each data file's length
//! against its committed extent, and the postings recomputed from the
//! cliques.
//!
//! Together with the per-frame CRCs this detects *every* single-byte
//! corruption of a committed index — chained or not: flips inside
//! frames fail their CRC, flips in headers fail the header CRC, flips
//! in the manifest fail its self-CRC, flips in the snapshot fail the
//! manifest-pinned whole-file CRC, and flips that survive a local check
//! (there are none, but belt and braces) would still trip a
//! cross-check.

use crate::format::{
    canonical, check_header, decode_block, decode_postings, patched_graph, read_at,
    read_delta_postings, read_frame_at, walk_chain, BlockEntry, ChainWalk, DeltaGeneration,
    IndexDirectory, IndexMeta, CLIQUES_FILE, CLIQUES_MAGIC, COMPACT_TMP_DIR, DIRECTORY_FILE,
    GRAPH_FILE, HEADER_LEN, META_FILE, POSTINGS_FILE, POSTINGS_MAGIC,
};
use gsb_core::store::StoreError;
use std::collections::BTreeMap;
use std::fs::File;
use std::path::Path;

/// One defect found by the scrub: where, and the typed error.
pub use crate::format::Finding as ScrubFinding;

/// Everything one scrub pass checked and found.
#[derive(Debug, Default)]
pub struct ScrubReport {
    /// Store blocks whose frame + records were fully verified (base
    /// and delta).
    pub blocks_checked: u64,
    /// Clique records decoded and validated (base and delta).
    pub cliques_checked: u64,
    /// Postings records verified against the recomputed truth (base
    /// vertices plus one per verified delta-generation frame).
    pub postings_checked: u64,
    /// Delta-generation records of the chain fully verified.
    pub delta_generations_checked: u64,
    /// Tombstones verified: in range, ascending, no double kill.
    pub tombstones_checked: u64,
    /// Every defect found, in walk order.
    pub findings: Vec<ScrubFinding>,
}

impl ScrubReport {
    /// True when the index verified completely.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    fn flag(&mut self, site: impl Into<String>, error: StoreError) {
        self.findings.push(ScrubFinding {
            site: site.into(),
            error,
        });
    }
}

/// Scrub the committed index in `dir`. Never panics and never stops at
/// the first defect; structural failures that make deeper layers
/// unreachable (an undecodable directory, say) are themselves findings.
pub fn scrub(dir: &Path) -> ScrubReport {
    let mut report = ScrubReport::default();

    // 1. The manifest: present, parseable, self-CRC intact.
    let meta = match std::fs::read_to_string(dir.join(META_FILE)) {
        Err(e) => {
            report.flag(META_FILE, StoreError::Io(e));
            return report;
        }
        Ok(text) => match IndexMeta::from_text(&text) {
            Err(e) => {
                report.flag(META_FILE, e);
                return report;
            }
            Ok(meta) => meta,
        },
    };

    // 1b. A finished-but-unswapped compaction means the directory is
    // mid-transition; everything below may legitimately mismatch until
    // `gsb compact` finishes the swap.
    if crate::compact::pending_swap(dir) {
        report.flag(
            COMPACT_TMP_DIR,
            StoreError::Io(std::io::Error::other(
                "pending compaction swap — run `gsb compact` to finish it",
            )),
        );
    }

    // 2. The directory file and its chain, cross-checked against the
    // manifest (torn tail included).
    let walk = match std::fs::read(dir.join(DIRECTORY_FILE))
        .map_err(StoreError::Io)
        .and_then(|bytes| walk_chain(&bytes, &meta, &mut report.findings))
    {
        Err(e) => {
            report.flag(DIRECTORY_FILE, e);
            return report;
        }
        Ok(walk) => walk,
    };
    report.delta_generations_checked = walk.chain.len() as u64;
    report.tombstones_checked = walk.dead.count_ones() as u64;

    // 3. The clique store: header, then every block frame + record —
    // base blocks recompute the base postings truth; each generation's
    // blocks recompute that generation's overlay truth.
    let truth_postings = scrub_store(dir, &meta, &walk, &mut report);

    // 4. Base postings: header, then every record against the
    // recomputed truth (exact id-list equality, not just CRC validity).
    scrub_postings(dir, &meta, &walk.directory, &truth_postings, &mut report);

    // 5. The graph snapshot and the chain's edit log replayed over it.
    scrub_graph(dir, &meta, &walk.chain, &mut report);

    report
}

/// Open `name` and flag a length other than the committed `extent`
/// and a bad header; `None` when the file cannot be read at all.
fn open_data_file(
    dir: &Path,
    name: &str,
    extent: u64,
    magic: u64,
    [length_ctx, header_ctx]: [&'static str; 2],
    report: &mut ScrubReport,
) -> Option<File> {
    let mut f = match File::open(dir.join(name)) {
        Err(e) => {
            report.flag(name, StoreError::Io(e));
            return None;
        }
        Ok(f) => f,
    };
    match f.metadata() {
        Err(e) => report.flag(name, StoreError::Io(e)),
        Ok(m) if m.len() != extent => report.flag(
            format!("{name} length"),
            StoreError::Torn {
                context: length_ctx,
                needed: extent as usize,
                have: m.len() as usize,
            },
        ),
        Ok(_) => {}
    }
    let mut header = [0u8; HEADER_LEN];
    if let Err(e) = read_at(&mut f, 0, &mut header, header_ctx) {
        report.flag(name, e);
        return None;
    }
    if let Err(e) = check_header(&header, magic, header_ctx) {
        report.flag(format!("{name} header"), e);
    }
    Some(f)
}

/// Walk the store; returns the base postings its blocks imply.
fn scrub_store(
    dir: &Path,
    meta: &IndexMeta,
    walk: &ChainWalk,
    report: &mut ScrubReport,
) -> Vec<Vec<u64>> {
    let base = &walk.directory;
    let mut truth_postings: Vec<Vec<u64>> = vec![Vec::new(); base.n as usize];
    let Some(f) = open_data_file(
        dir,
        CLIQUES_FILE,
        meta.store_bytes,
        CLIQUES_MAGIC,
        ["clique store length", "clique store header"],
        report,
    ) else {
        return truth_postings;
    };

    // Base blocks then each generation's: one contiguous walk from the
    // header, each block decoded at its generation's vertex bound. Base
    // blocks recompute the base postings truth; each generation's
    // postings frame is checked against the truth its own blocks give.
    let mut store = StoreWalk {
        f,
        store_bytes: meta.store_bytes,
        offset: HEADER_LEN as u64,
        first_id: 0,
    };
    let site = format!("{CLIQUES_FILE} ");
    store.blocks(&site, &base.blocks, base.n, report, |id, clique| {
        for &v in clique {
            truth_postings[v as usize].push(id);
        }
    });
    if store.first_id != base.clique_count {
        report.flag(
            format!("{CLIQUES_FILE} coverage"),
            StoreError::CountMismatch {
                expected: base.clique_count as usize,
                found: store.first_id as usize,
            },
        );
    }
    for (gi, gen) in walk.chain.iter().enumerate() {
        let mut truth: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
        let site = format!("{CLIQUES_FILE} generation {gi} ");
        store.blocks(&site, &gen.blocks, gen.n, report, |id, clique| {
            for &v in clique {
                truth.entry(v).or_default().push(id);
            }
        });
        // The generation's postings frame against its blocks' truth.
        let site = format!("{POSTINGS_FILE} generation {gi}");
        let got = File::open(dir.join(POSTINGS_FILE))
            .map_err(StoreError::Io)
            .and_then(|mut f| read_delta_postings(&mut f, gen, meta.postings_bytes));
        match got.map(BTreeMap::from_iter) {
            Err(e) => report.flag(site, e),
            Ok(got) if got != truth => report.flag(
                site,
                StoreError::CountMismatch {
                    expected: truth.len(),
                    found: got.len(),
                },
            ),
            Ok(_) => report.postings_checked += 1,
        }
    }
    if meta.dir_bytes > 0 && store.offset != meta.store_bytes {
        report.flag(
            format!("{CLIQUES_FILE} coverage"),
            StoreError::CountMismatch {
                expected: meta.store_bytes as usize,
                found: store.offset as usize,
            },
        );
    }
    truth_postings
}

/// The store walk's position: where the next block must start.
struct StoreWalk {
    f: File,
    store_bytes: u64,
    offset: u64,
    first_id: u64,
}

impl StoreWalk {
    /// Verify one block table end to end (placement, frame, records,
    /// and the records' canonical (size, lex) order), handing each
    /// decoded clique to `record` with its global id. A block that fails
    /// to decode restarts the order check at the next one.
    fn blocks(
        &mut self,
        site: &str,
        blocks: &[BlockEntry],
        n: u32,
        report: &mut ScrubReport,
        mut record: impl FnMut(u64, &[u32]),
    ) {
        let mut last: Vec<u32> = Vec::new();
        for (i, entry) in blocks.iter().enumerate() {
            let site = format!("{site}block {i}");
            if entry.offset != self.offset || entry.first_id != self.first_id {
                report.flag(
                    format!("{site} placement"),
                    StoreError::Codec {
                        context: "block table not contiguous",
                    },
                );
            }
            self.first_id = entry.first_id + u64::from(entry.count);
            let decoded =
                read_frame_at(&mut self.f, entry.offset, self.store_bytes, "clique block")
                    .and_then(|frame| Ok((decode_block(&frame, entry, n)?, frame.len() as u64)));
            match decoded {
                Err(e) => {
                    report.flag(site, e);
                    last.clear();
                }
                Ok((block, frame_len)) => {
                    for (id, clique) in (entry.first_id..).zip(block.iter()) {
                        if !last.is_empty() && canonical(&last, clique).is_ge() {
                            report.flag(
                                format!("{site} clique {id}"),
                                StoreError::Codec {
                                    context: "clique out of canonical (size, lex) order",
                                },
                            );
                        }
                        last.clear();
                        last.extend_from_slice(clique);
                        record(id, clique);
                    }
                    report.blocks_checked += 1;
                    report.cliques_checked += block.len() as u64;
                    self.offset = entry.offset + frame_len;
                }
            }
        }
    }
}

fn scrub_postings(
    dir: &Path,
    meta: &IndexMeta,
    directory: &IndexDirectory,
    truth_postings: &[Vec<u64>],
    report: &mut ScrubReport,
) {
    let Some(mut f) = open_data_file(
        dir,
        POSTINGS_FILE,
        meta.postings_bytes,
        POSTINGS_MAGIC,
        ["postings length", "postings header"],
        report,
    ) else {
        return;
    };
    for (v, truth) in truth_postings.iter().enumerate() {
        let site = format!("{POSTINGS_FILE} vertex {v}");
        let decoded = directory.postings_range(v).and_then(|range| {
            let mut bytes = vec![0u8; (range.end - range.start) as usize];
            read_at(&mut f, range.start, &mut bytes, "postings record")?;
            decode_postings(&bytes, directory.clique_count)
        });
        match decoded {
            Err(e) => report.flag(site, e),
            Ok(ids) if ids != *truth => report.flag(
                site,
                StoreError::CountMismatch {
                    expected: truth.len(),
                    found: ids.len(),
                },
            ),
            Ok(_) => report.postings_checked += 1,
        }
    }
}

/// Verify the graph snapshot (length + whole-file CRC + decode) and
/// replay the chain's edit log over it: every recorded removal must hit
/// an existing edge, every addition a missing one, within bounds.
fn scrub_graph(dir: &Path, meta: &IndexMeta, chain: &[DeltaGeneration], report: &mut ScrubReport) {
    if meta.graph_bytes == 0 {
        // frozen index: no snapshot, and a chain would be unreachable —
        // flagged already by the updatable cross-checks if present
        if !chain.is_empty() {
            report.flag(
                GRAPH_FILE,
                StoreError::Codec {
                    context: "delta chain on an index with no graph snapshot",
                },
            );
        }
        return;
    }
    // Grown only as far as the snapshot and the chain say: a manifest
    // `n` they do not reach is a defect, not a size to grow to.
    let g = match patched_graph(dir, meta, chain, 0, |defect| report.findings.push(defect)) {
        Err(e) => return report.flag(GRAPH_FILE, e),
        Ok(g) => g,
    };
    if g.n() != meta.n {
        report.flag(
            GRAPH_FILE,
            StoreError::GraphMismatch {
                checkpoint_bits: g.n(),
                graph_bits: meta.n,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::update::{update, EditScript};
    use crate::writer::{BuildOptions, IndexWriter};
    use gsb_core::CliqueSink;
    use gsb_graph::BitGraph;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("gsb-index-scrub-{}-{name}", std::process::id()))
    }

    fn build(dir: &Path) {
        let _ = std::fs::remove_dir_all(dir);
        let mut w = IndexWriter::create(dir, 30).unwrap().block_target(24);
        for i in 0..20u32 {
            w.maximal(&[i, i + 1, i + 2]);
        }
        w.maximal(&[0, 2, 4, 6]);
        w.finish().unwrap();
    }

    /// A small updatable index with a two-generation chain: new
    /// cliques, tombstones, and vertex growth all present.
    fn build_chained(dir: &Path) {
        let _ = std::fs::remove_dir_all(dir);
        let mut g = BitGraph::new(8);
        for (u, v) in [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (3, 5)] {
            g.add_edge(u, v);
        }
        let options = BuildOptions {
            min: 2,
            block_target: 24,
            ..BuildOptions::default()
        };
        crate::build(&g, dir, options, None).unwrap();
        update(
            dir,
            &EditScript {
                remove: vec![(3, 5)],
                add: vec![(0, 3), (6, 7)],
            },
            None,
        )
        .unwrap();
        update(
            dir,
            &EditScript {
                remove: vec![(0, 1)],
                add: vec![(5, 8)],
            },
            None,
        )
        .unwrap();
    }

    #[test]
    fn clean_index_scrubs_clean() {
        let dir = tmp("clean");
        build(&dir);
        let report = scrub(&dir);
        assert!(report.is_clean(), "{:?}", report.findings);
        assert_eq!(report.cliques_checked, 21);
        assert!(report.blocks_checked > 1);
        assert_eq!(report.postings_checked, 30);
        assert_eq!(report.delta_generations_checked, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn edgeless_graph_indexes_scrub_clean() {
        // 0 vertices (an empty edge list), then isolated vertices only.
        for n in [0, 5] {
            let dir = tmp(&format!("edgeless{n}"));
            let _ = std::fs::remove_dir_all(&dir);
            let g = BitGraph::new(n);
            crate::build(&g, &dir, BuildOptions::default(), None).unwrap();
            let report = scrub(&dir);
            assert!(report.is_clean(), "n = {n}: {:?}", report.findings);
            assert_eq!(report.cliques_checked, 0);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn clean_chained_index_scrubs_clean() {
        let dir = tmp("chain_clean");
        build_chained(&dir);
        let report = scrub(&dir);
        assert!(report.is_clean(), "{:?}", report.findings);
        assert_eq!(report.delta_generations_checked, 2);
        assert!(
            report.tombstones_checked > 0,
            "chain fixture killed nothing"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_meta_is_a_finding_not_a_panic() {
        let dir = tmp("nometa");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let report = scrub(&dir);
        assert_eq!(report.findings.len(), 1);
        assert!(report.findings[0].site.contains(META_FILE));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The acceptance bar: every single-byte flip in every index file
    /// is detected. Exhaustive over the whole directory — the files are
    /// a few KiB here, so this stays fast.
    #[test]
    fn every_single_byte_corruption_is_detected() {
        let dir = tmp("sweep");
        build(&dir);
        assert!(scrub(&dir).is_clean());
        for file in [META_FILE, DIRECTORY_FILE, CLIQUES_FILE, POSTINGS_FILE] {
            flip_sweep(&dir, file);
        }
        assert!(scrub(&dir).is_clean(), "restore left the index dirty");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Same bar for a chained index: flips anywhere in the delta
    /// blocks, overlay frames, chain records, or the graph snapshot
    /// are all detected.
    #[test]
    fn every_single_byte_corruption_in_a_chain_is_detected() {
        let dir = tmp("chain_sweep");
        build_chained(&dir);
        assert!(scrub(&dir).is_clean(), "{:?}", scrub(&dir).findings);
        for file in [
            META_FILE,
            DIRECTORY_FILE,
            CLIQUES_FILE,
            POSTINGS_FILE,
            "graph.gsg",
        ] {
            flip_sweep(&dir, file);
        }
        assert!(scrub(&dir).is_clean(), "restore left the index dirty");
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn flip_sweep(dir: &Path, file: &str) {
        let path = dir.join(file);
        let pristine = std::fs::read(&path).unwrap();
        for i in 0..pristine.len() {
            for bit in [0x01u8, 0x40] {
                let mut bad = pristine.clone();
                bad[i] ^= bit;
                std::fs::write(&path, &bad).unwrap();
                let report = scrub(dir);
                assert!(
                    !report.is_clean(),
                    "{file}: flip 0x{bit:02x} at byte {i} went undetected"
                );
            }
        }
        std::fs::write(&path, &pristine).unwrap();
    }

    #[test]
    fn torn_tails_and_double_kills_are_findings() {
        let dir = tmp("chain_torn");
        build_chained(&dir);
        // torn tail past the committed extent of each chain file
        for file in [CLIQUES_FILE, POSTINGS_FILE, DIRECTORY_FILE] {
            let path = dir.join(file);
            let pristine = std::fs::read(&path).unwrap();
            let mut torn = pristine.clone();
            torn.extend_from_slice(b"junk");
            std::fs::write(&path, &torn).unwrap();
            assert!(!scrub(&dir).is_clean(), "{file}: torn tail went undetected");
            std::fs::write(&path, &pristine).unwrap();
        }
        assert!(scrub(&dir).is_clean());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
