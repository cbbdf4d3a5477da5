//! `gsb compact` — fold a delta chain back into a clean base index.
//!
//! Compaction is a merge, not a materialize-and-sort. The base's ids
//! ascend in the canonical `(size, lex)` order the enumerators emit,
//! so one [`CliqueIndex::with_cliques`] pass streams its live cliques
//! (base minus tombstones) straight out of the decoded blocks. The
//! chain's live cliques are the only ones copied: they are collected
//! and sorted into the same order, and each is spliced in before the
//! first base clique it precedes. The merged stream goes into a fresh
//! four-file index in a scratch directory (`compact.tmp/`) through
//! [`IndexWriter`], the exact code path `gsb index` uses. Because the
//! emission order is canonical, the compacted `cliques.gsi` /
//! `postings.gsp` / `index.gsd` / `graph.gsg` are **byte-identical** to
//! a fresh `gsb index` rebuild of the patched graph at the same
//! `--min`; only the manifest generation differs (it outranks the live
//! one so the serving layer hot-reloads).
//!
//! The merge checks that every clique it writes is strictly after the
//! one before it. A base out of canonical order (or a clique stored
//! twice) fails the compaction with a typed error that asks for a
//! rebuild with `gsb index`, and leaves the live index untouched: a
//! merge cannot repair the order, and must not write a base that is
//! not canonical.
//!
//! ## Crash model
//!
//! The build phase is invisible: everything lands inside
//! `compact.tmp/`, whose own `index.meta` is written last. A crash
//! before that inner manifest exists leaves a stale scratch directory
//! the next compaction deletes and redoes. A crash **during the swap**
//! (after the inner manifest, while files move into place) is the one
//! non-atomic window: the live directory may briefly mix old and new
//! files. Re-running `gsb compact` detects the valid inner manifest and
//! finishes the swap instead of rebuilding — and `gsb update` refuses
//! to run until it does, so the window cannot widen.

use crate::format::{
    canonical, patched_graph, IndexMeta, CLIQUES_FILE, COMPACT_TMP_DIR, DIRECTORY_FILE, GRAPH_FILE,
    META_FILE, POSTINGS_FILE,
};
use crate::reader::CliqueIndex;
use crate::writer::{IndexWriter, WriteSummary};
use gsb_core::store::{sync_dir, StoreError};
use gsb_core::{CliqueSink, Vertex};
use std::path::Path;

/// What [`compact`] did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CompactOutcome {
    /// Manifest generation after the call.
    pub generation: u64,
    /// Live cliques in the compacted base (also the new id space).
    pub cliques: u64,
    /// Vertex count of the compacted index.
    pub n: usize,
    /// True when a crashed compaction's pending swap was finished
    /// instead of rebuilding.
    pub resumed: bool,
    /// False when the index had no delta chain and nothing was done.
    pub compacted: bool,
}

/// Is there a completed-but-unswapped compaction in `dir` (a valid
/// manifest inside `compact.tmp/`)?
pub(crate) fn pending_swap(dir: &Path) -> bool {
    std::fs::read_to_string(dir.join(COMPACT_TMP_DIR).join(META_FILE))
        .is_ok_and(|text| IndexMeta::from_text(&text).is_ok())
}

/// Move the finished scratch index into place: data files first, the
/// manifest last (the commit point), then drop the scratch directory.
/// Files already moved by a crashed earlier attempt are skipped.
fn finish_swap(dir: &Path) -> Result<IndexMeta, StoreError> {
    let tmp = dir.join(COMPACT_TMP_DIR);
    let meta = IndexMeta::from_text(&std::fs::read_to_string(tmp.join(META_FILE))?)?;
    for name in [CLIQUES_FILE, POSTINGS_FILE, DIRECTORY_FILE, GRAPH_FILE] {
        let src = tmp.join(name);
        match std::fs::rename(&src, dir.join(name)) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
        gsb_core::failpoint::inject_tagged("compact.swap_file", name)?;
    }
    std::fs::rename(tmp.join(META_FILE), dir.join(META_FILE))?;
    let _ = std::fs::remove_dir_all(&tmp);
    sync_dir(dir);
    Ok(meta)
}

/// Fold the delta chain of the index in `dir` into a clean base. A
/// no-op when there is no chain; finishes a crashed swap when one is
/// pending. `block_target` overrides the store's block-sealing
/// threshold (bytes), defaulting to the writer's.
pub fn compact(dir: &Path, block_target: Option<usize>) -> Result<CompactOutcome, StoreError> {
    if pending_swap(dir) {
        let meta = finish_swap(dir)?;
        return Ok(CompactOutcome {
            generation: meta.generation,
            cliques: meta.cliques,
            n: meta.n,
            resumed: true,
            compacted: true,
        });
    }
    // Any scratch directory without a valid inner manifest is debris
    // from a crash mid-build; redo from scratch.
    let tmp = dir.join(COMPACT_TMP_DIR);
    let _ = std::fs::remove_dir_all(&tmp);

    let meta0 = IndexMeta::from_text(&std::fs::read_to_string(dir.join(META_FILE))?)?;
    if meta0.delta_generations == 0 {
        return Ok(CompactOutcome {
            generation: meta0.generation,
            cliques: meta0.cliques,
            n: meta0.n,
            resumed: false,
            compacted: false,
        });
    }
    if meta0.min_size == 0 || meta0.graph_bytes == 0 {
        return Err(StoreError::Codec {
            context: "compact: chained index is missing min_size or graph snapshot",
        });
    }

    let idx = CliqueIndex::open(dir)?;
    let g = patched_graph(dir, idx.meta(), idx.chain(), meta0.n, |_| {})?;
    let mut w = IndexWriter::create(&tmp, g.n())?
        .min_size(meta0.min_size)
        .generation(meta0.generation + 1)
        .snapshot(&g)?;
    if let Some(bytes) = block_target {
        w = w.block_target(bytes);
    }
    drop(g);
    let built = merge_live(&idx, w);
    drop(idx); // release file handles before files are renamed over
               // A build that failed left no inner manifest; the scratch files go
               // with it, so the live index is exactly as it was.
    let summary = built.inspect_err(|_| {
        let _ = std::fs::remove_dir_all(&tmp);
    })?;
    gsb_core::failpoint::inject("compact.pre_swap")?;
    let meta = finish_swap(dir)?;
    debug_assert_eq!(meta.cliques, summary.cliques);
    Ok(CompactOutcome {
        generation: meta.generation,
        cliques: meta.cliques,
        n: meta.n,
        resumed: false,
        compacted: true,
    })
}

/// Stream the live set of `idx` into `w` in canonical order: one pass
/// over the base's live ids, with the chain's live cliques, sorted,
/// pushed ahead of the first base clique each one precedes. Each clique
/// must sort strictly after the one written before it.
fn merge_live(idx: &CliqueIndex, mut w: IndexWriter) -> Result<WriteSummary, StoreError> {
    let chain_start = idx.chain().first().map_or(idx.len(), |gen| gen.first_id);
    let mut chain = idx.materialize((chain_start..idx.len()).filter(|&id| idx.is_live(id)))?;
    chain.sort_unstable_by(|a, b| canonical(a, b));
    let mut chain = chain.into_iter().peekable();

    let mut last: Vec<Vertex> = Vec::new();
    let mut push = |c: &[Vertex]| {
        if !last.is_empty() && canonical(&last, c).is_ge() {
            return Err(StoreError::Codec {
                context: "compact: live cliques out of canonical (size, lex) order \
                          — rebuild the index with `gsb index`",
            });
        }
        last.clear();
        last.extend_from_slice(c);
        w.maximal(c);
        Ok(())
    };
    let base = (0..chain_start).filter(|&id| idx.is_live(id));
    idx.with_cliques(base, |_, base| {
        let base = base?;
        while let Some(c) = chain.next_if(|c| canonical(c, base).is_lt()) {
            push(&c)?;
        }
        push(base)
    })?;
    chain.try_for_each(|c| push(&c))?;
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{
        encode_id_list, header_bytes, BlockBuilder, CLIQUES_MAGIC, HEADER_LEN, POSTINGS_MAGIC,
    };
    use crate::update::{update, EditScript};
    use crate::writer::DEFAULT_BLOCK_TARGET;
    use gsb_core::store::frame;
    use gsb_graph::BitGraph;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gsb-compact-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A committed, updatable base that stores [3, 4, 5] before
    /// [0, 1, 2]. The writer refuses that order, so the base is written
    /// canonical and its store block and postings are then encoded again
    /// the other way round with the crate's block builder. Both
    /// encodings keep every length, so the directory and the manifest
    /// still describe the files.
    fn base_out_of_order(dir: &Path) {
        let g = BitGraph::from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]);
        let mut w = IndexWriter::create(dir, g.n())
            .expect("create")
            .min_size(3)
            .snapshot(&g)
            .expect("snapshot");
        w.maximal(&[0, 1, 2]);
        w.maximal(&[3, 4, 5]);
        w.finish().expect("finish");

        let stored: [&[Vertex]; 2] = [&[3, 4, 5], &[0, 1, 2]];
        let n = g.n() as u32;
        let mut store = header_bytes(CLIQUES_MAGIC, n).to_vec();
        let mut blocks = BlockBuilder::new(HEADER_LEN as u64, 0, DEFAULT_BLOCK_TARGET);
        for c in stored {
            blocks.push(c, &mut store).expect("push");
        }
        blocks.seal(&mut store).expect("seal");
        let mut postings = header_bytes(POSTINGS_MAGIC, n).to_vec();
        for v in 0..n {
            let ids: Vec<u64> = (0..)
                .zip(stored)
                .filter(|(_, c)| c.contains(&v))
                .map(|(id, _)| id)
                .collect();
            let mut payload = Vec::new();
            encode_id_list(&mut payload, &ids);
            postings.extend(frame(&payload));
        }
        for (name, bytes) in [(CLIQUES_FILE, store), (POSTINGS_FILE, postings)] {
            let path = dir.join(name);
            let committed = std::fs::metadata(&path).expect("committed file").len();
            assert_eq!(committed, bytes.len() as u64, "{name} changed length");
            std::fs::write(path, bytes).expect("rewrite");
        }
    }

    #[test]
    fn compacting_a_base_out_of_canonical_order_fails_typed_and_keeps_the_index() {
        let dir = tmp("out_of_order");
        base_out_of_order(&dir);
        let script = EditScript {
            remove: vec![],
            add: vec![(6, 7), (6, 8), (7, 8)],
        };
        let out = update(&dir, &script, None).expect("update");
        assert!(out.committed && out.new_cliques == 1, "{out:?}");

        let err = compact(&dir, None).expect_err("compacted a base out of order");
        assert!(
            matches!(err, StoreError::Codec { .. }),
            "not a typed codec error: {err}"
        );
        assert!(err.to_string().contains("gsb index"), "{err}");
        assert!(
            !dir.join("compact.tmp").exists(),
            "scratch index left behind"
        );
        let idx = CliqueIndex::open(&dir).expect("open after the failed compaction");
        assert_eq!(idx.generation(), out.generation);
        assert_eq!(idx.delta_generations(), 1);
        assert_eq!(
            idx.materialize(0..idx.len()).expect("materialize"),
            vec![vec![3, 4, 5], vec![0, 1, 2], vec![6, 7, 8]]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scrub_reports_a_base_out_of_canonical_order() {
        let dir = tmp("scrub_out_of_order");
        base_out_of_order(&dir);
        let report = crate::scrub::scrub(&dir);
        let sites: Vec<&str> = report.findings.iter().map(|f| f.site.as_str()).collect();
        assert_eq!(sites, [format!("{CLIQUES_FILE} block 0 clique 1")]);
        assert!(
            report.findings[0].error.to_string().contains("canonical"),
            "{}",
            report.findings[0].error
        );
        assert_eq!(report.cliques_checked, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
