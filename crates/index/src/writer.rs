//! [`build`], the one way a graph becomes an index, runs
//! `gsb_core::rooted`'s search into an [`IndexWriter`], a [`CliqueSink`]
//! that `gsb compact` and `gsb shard` also feed from an existing index.
//!
//! Cliques stream through `format::BlockBuilder` (the block encoder
//! `gsb update` shares) into CRC-framed blocks appended to
//! `cliques.gsi.tmp`; postings and the size directory accumulate in
//! memory (both are tiny next to the store: one id per clique
//! membership). [`finish`] completes the index with the atomic
//! tmp-then-rename convention of `gsb_core::checkpoint` — the
//! `index.meta` manifest is renamed into place last, so a crash at any
//! earlier point leaves only `*.tmp` files, which the next writer
//! sweeps with [`sweep_tmp_files`]. Durable-sink contract:
//! [`flush_barrier`] seals the open block and fsyncs, so everything
//! received before a checkpoint survives a crash after it.
//!
//! [`CliqueSink`]: gsb_core::CliqueSink
//! [`sweep_tmp_files`]: gsb_core::store::sweep_tmp_files
//! [`finish`]: IndexWriter::finish
//! [`flush_barrier`]: gsb_core::CliqueSink::flush_barrier

use crate::format::{
    canonical, encode_id_list, header_bytes, BlockBuilder, IndexDirectory, IndexMeta, CLIQUES_FILE,
    CLIQUES_MAGIC, DIRECTORY_FILE, DIRECTORY_MAGIC, GRAPH_FILE, HEADER_LEN, META_FILE,
    POSTINGS_FILE, POSTINGS_MAGIC,
};
use gsb_core::store::{self, crc32, frame, sweep_tmp_files, sync_dir, StoreError};
use gsb_core::{rooted, CliqueSink, RetryPolicy, TeeSink, Vertex};
use gsb_graph::BitGraph;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// Default block target: seal a block once its encoded records reach
/// this size. Small enough that a point query decodes little, large
/// enough that frame overhead (8 bytes) disappears.
pub const DEFAULT_BLOCK_TARGET: usize = 64 * 1024;

/// How [`build`] indexes a graph: `gsb index`'s `--min`, `--max` and
/// `--threads`, with the same defaults, and the block target.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BuildOptions {
    /// Smallest clique size indexed; 0 counts as 1.
    pub min: usize,
    /// Largest clique size indexed. Set, the index is committed frozen.
    pub max: Option<usize>,
    /// Threads searching runs of roots; the files are the same for any.
    pub threads: usize,
    /// Block-sealing threshold, bytes of encoded records. `gsb index`
    /// always builds at [`DEFAULT_BLOCK_TARGET`], the target `gsb
    /// update` and `gsb compact` write at; tests set a small one to
    /// get indexes of many blocks.
    pub block_target: usize,
}

impl Default for BuildOptions {
    fn default() -> Self {
        BuildOptions {
            min: 3,
            max: None,
            threads: 1,
            block_target: DEFAULT_BLOCK_TARGET,
        }
    }
}

/// Index every maximal clique of `g` with `min ≤ size ≤ max` into
/// `dir`, in the canonical (size, lex) order of
/// [`rooted::maximal_cliques`], and commit it. `tee`, when given, sees
/// every clique right after the writer (`gsb index --text-out`).
///
/// Without `max` the index holds every maximal clique of at least
/// `min`, the set `gsb update` maintains, so `min` and a `graph.gsg`
/// snapshot are recorded and the index is updatable. `max` truncates
/// the set to a shape updates cannot reason about, so such an index is
/// committed frozen: queryable, not updatable.
pub fn build(
    g: &BitGraph,
    dir: &Path,
    options: BuildOptions,
    tee: Option<&mut dyn CliqueSink>,
) -> Result<WriteSummary, StoreError> {
    let BuildOptions {
        min, max, threads, ..
    } = options;
    let mut writer = IndexWriter::create(dir, g.n())?.block_target(options.block_target);
    if max.is_none() {
        writer = writer.min_size(min as u32).snapshot(g)?;
    }
    match tee {
        Some(tee) => rooted::maximal_cliques(g, min, max, threads, &mut TeeSink(&mut writer, tee)),
        None => rooted::maximal_cliques(g, min, max, threads, &mut writer),
    }
    writer.finish()
}

/// What [`IndexWriter::finish`] built.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WriteSummary {
    /// Cliques indexed.
    pub cliques: u64,
    /// Blocks in the store.
    pub blocks: u64,
    /// Largest clique size.
    pub max_clique: u32,
    /// Bytes of `cliques.gsi`.
    pub store_bytes: u64,
    /// Bytes of `postings.gsp`.
    pub postings_bytes: u64,
}

/// Streaming index builder; see the module docs for the protocol.
pub struct IndexWriter {
    dir: PathBuf,
    n: usize,
    generation: u64,
    store: BufWriter<File>,
    blocks: BlockBuilder,
    postings: Vec<Vec<u64>>,
    min_size_meta: u32,
    snapshot: Option<(u64, u32)>,
    retry: RetryPolicy,
    /// The clique accepted last; the next must sort strictly after it.
    last: Vec<Vertex>,
    /// First error encountered while streaming (subsequent cliques are
    /// dropped; surfaced by [`finish`](Self::finish), mirroring
    /// [`gsb_core::WriterSink`]'s deferred-error protocol).
    error: Option<StoreError>,
}

impl IndexWriter {
    /// Start a new index for an `n`-vertex graph in `dir` (created if
    /// missing; orphaned `*.tmp` files from a crashed writer are swept).
    pub fn create(dir: &Path, n: usize) -> Result<Self, StoreError> {
        std::fs::create_dir_all(dir)?;
        sweep_tmp_files(dir);
        // Replacing a committed index bumps its generation so pollers
        // (the serving layer's hot-reload watcher) see the change even
        // when the rebuilt index is byte-identical otherwise.
        let generation = match std::fs::read_to_string(dir.join(META_FILE)) {
            Ok(text) => IndexMeta::from_text(&text)
                .map(|m| m.generation + 1)
                .unwrap_or(1),
            Err(_) => 0,
        };
        let tmp = dir.join(format!("{CLIQUES_FILE}.tmp"));
        let mut store = BufWriter::new(File::create(&tmp)?);
        store.write_all(&header_bytes(CLIQUES_MAGIC, n as u32))?;
        Ok(IndexWriter {
            dir: dir.to_path_buf(),
            n,
            generation,
            store,
            blocks: BlockBuilder::new(HEADER_LEN as u64, 0, DEFAULT_BLOCK_TARGET),
            postings: vec![Vec::new(); n],
            min_size_meta: 0,
            snapshot: None,
            retry: RetryPolicy::default(),
            last: Vec::new(),
            error: None,
        })
    }

    /// Override the block-sealing threshold (bytes of encoded records).
    pub fn block_target(mut self, bytes: usize) -> Self {
        self.blocks.target = bytes;
        self
    }

    /// Record the minimum clique size the index maintains (the `--min`
    /// this build ran with). Required for `gsb update`: without it the
    /// maintained set is unknown and updates are refused.
    pub fn min_size(mut self, k: u32) -> Self {
        self.min_size_meta = k;
        self
    }

    /// Force the committed manifest's generation instead of deriving it
    /// from any previous manifest in the directory. Used by compaction,
    /// which builds in a scratch directory but must outrank the live
    /// manifest it replaces.
    pub fn generation(mut self, generation: u64) -> Self {
        self.generation = generation;
        self
    }

    /// Attach a snapshot of the indexed graph, written as `graph.gsg`
    /// alongside the index and pinned to the manifest by a whole-file
    /// CRC. `gsb update` requires one; without it the index is
    /// queryable but frozen. The graph must have the vertex count this
    /// writer was created with.
    pub fn snapshot(mut self, g: &BitGraph) -> Result<Self, StoreError> {
        if g.n() != self.n {
            return Err(StoreError::Codec {
                context: "index writer: snapshot vertex count differs from index",
            });
        }
        let bytes = crate::snapshot::encode_graph(g);
        let tmp = self.dir.join(format!("{GRAPH_FILE}.tmp"));
        let mut f = File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
        self.snapshot = Some((bytes.len() as u64, crc32(&bytes)));
        Ok(self)
    }

    fn defer(&mut self, e: StoreError) {
        if self.error.is_none() {
            self.error = Some(e);
        }
    }

    /// Complete the index: seal and persist the store, write postings
    /// and the directory, and rename the `index.meta` manifest into
    /// place as the commit point. Atomic writes are retried under the
    /// crate-standard [`RetryPolicy`].
    pub fn finish(mut self) -> Result<WriteSummary, StoreError> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.blocks.seal(&mut self.store)?;
        self.store.flush()?;
        let file = self
            .store
            .into_inner()
            .map_err(|e| StoreError::Io(std::io::Error::other(e.to_string())))?;
        file.sync_all()?;
        drop(file);
        let retry = self.retry;
        retry.run_io(|| {
            std::fs::rename(
                self.dir.join(format!("{CLIQUES_FILE}.tmp")),
                self.dir.join(CLIQUES_FILE),
            )
        })?;

        // Postings: header, then one CRC-framed record per vertex, with
        // the byte offset of every record captured for the directory.
        let offsets = retry.run_io(|| {
            store::write_atomic(&self.dir.join(POSTINGS_FILE), |w| {
                w.write_all(&header_bytes(POSTINGS_MAGIC, self.n as u32))?;
                let mut offsets = vec![HEADER_LEN as u64];
                let mut payload = Vec::new();
                for ids in &self.postings {
                    payload.clear();
                    encode_id_list(&mut payload, ids);
                    let framed = frame(&payload);
                    w.write_all(&framed)?;
                    offsets.push(offsets[offsets.len() - 1] + framed.len() as u64);
                }
                Ok(offsets)
            })
        })?;
        let postings_bytes = offsets[offsets.len() - 1];

        let blocks = self.blocks;
        let directory = IndexDirectory {
            n: self.n as u32,
            clique_count: blocks.next_id,
            size_runs: blocks.size_runs,
            blocks: blocks.blocks,
            postings_offsets: offsets,
            postings_bytes,
        };
        let mut dir_bytes = header_bytes(DIRECTORY_MAGIC, self.n as u32).to_vec();
        dir_bytes.extend_from_slice(&frame(&directory.encode()));
        retry.run_store(|| {
            write_atomic(&self.dir, DIRECTORY_FILE, &dir_bytes)?;
            Ok(())
        })?;

        // Graph snapshot (when attached): renamed into place before the
        // manifest so `graph_bytes`/`graph_crc` never describe a file
        // that is not there. Without one, drop any stale snapshot a
        // previous build left so it cannot be mistaken for this index's.
        if self.snapshot.is_some() {
            retry.run_io(|| {
                std::fs::rename(
                    self.dir.join(format!("{GRAPH_FILE}.tmp")),
                    self.dir.join(GRAPH_FILE),
                )
            })?;
        } else {
            let _ = std::fs::remove_file(self.dir.join(GRAPH_FILE));
        }

        let summary = WriteSummary {
            cliques: directory.clique_count,
            blocks: directory.blocks.len() as u64,
            max_clique: directory.max_size(),
            store_bytes: blocks.offset,
            postings_bytes,
        };
        let (graph_bytes, graph_crc) = self.snapshot.unwrap_or((0, 0));
        let meta = IndexMeta {
            version: 1,
            n: self.n,
            cliques: summary.cliques,
            max_clique: summary.max_clique,
            blocks: summary.blocks,
            store_bytes: summary.store_bytes,
            postings_bytes: summary.postings_bytes,
            generation: self.generation,
            min_size: self.min_size_meta,
            delta_generations: 0,
            tombstones: 0,
            dir_bytes: dir_bytes.len() as u64,
            graph_bytes,
            graph_crc,
        };
        // The commit point: readers refuse a directory without this file.
        retry.run_store(|| {
            write_atomic(&self.dir, META_FILE, meta.to_text().as_bytes())?;
            Ok(())
        })?;
        sync_dir(&self.dir);
        Ok(summary)
    }
}

impl CliqueSink for IndexWriter {
    fn maximal(&mut self, clique: &[Vertex]) {
        if self.error.is_some() {
            return;
        }
        // The enumerators' canonical (size, lex) order is what makes
        // sequential ids sorted by size, and compaction a merge; a
        // violation would corrupt every size-range answer, so it is a
        // deferred typed error.
        if !self.last.is_empty() && canonical(&self.last, clique).is_ge() {
            return self.defer(StoreError::Codec {
                context: "index writer: cliques arrived out of canonical (size, lex) order",
            });
        }
        if clique.is_empty()
            || clique.iter().any(|&v| v as usize >= self.n)
            || clique.windows(2).any(|w| w[0] >= w[1])
        {
            return self.defer(StoreError::Codec {
                context: "index writer: clique not strictly ascending within the graph",
            });
        }
        self.last.clear();
        self.last.extend_from_slice(clique);
        for &v in clique {
            self.postings[v as usize].push(self.blocks.next_id);
        }
        if let Err(e) = self.blocks.push(clique, &mut self.store) {
            self.defer(StoreError::Io(e));
        }
    }

    fn flush_barrier(&mut self) -> std::io::Result<()> {
        if let Some(e) = &self.error {
            return Err(std::io::Error::other(e.to_string()));
        }
        self.blocks.seal(&mut self.store)?;
        self.store.flush()?;
        self.store.get_ref().sync_data()
    }
}

/// Write `bytes` to `dir/name` with the one durable atomic write
/// (sibling tmp, fsync, rename). Safe to retry wholesale — the rename
/// either happened or it did not.
pub(crate) fn write_atomic(dir: &Path, name: &str, bytes: &[u8]) -> std::io::Result<()> {
    store::write_atomic(&dir.join(name), |w| w.write_all(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("gsb-index-writer-{}-{name}", std::process::id()))
    }

    #[test]
    fn crashed_writer_leaves_only_tmps_and_next_create_sweeps() {
        let dir = tmp("sweep");
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut w = IndexWriter::create(&dir, 10).unwrap();
            w.maximal(&[1, 2, 3]);
            w.flush_barrier().unwrap();
            // dropped without finish(): the crash
        }
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert!(names.iter().all(|n| n.ends_with(".tmp")), "{names:?}");
        let w = IndexWriter::create(&dir, 10).unwrap();
        drop(w);
        // meta never appeared, so the directory holds no committed index
        assert!(!dir.join(META_FILE).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn out_of_order_and_out_of_range_cliques_are_deferred_typed_errors() {
        let dir = tmp("order");
        let _ = std::fs::remove_dir_all(&dir);
        let mut w = IndexWriter::create(&dir, 10).unwrap();
        w.maximal(&[1, 2, 3]);
        w.maximal(&[4, 5]); // size shrank: ordering contract broken
        assert!(w.finish().is_err());

        // same size, lex order broken; then the same clique twice
        for second in [[0, 1, 2], [1, 2, 3]] {
            let mut w = IndexWriter::create(&dir, 10).unwrap();
            w.maximal(&[1, 2, 3]);
            w.maximal(&second);
            let err = w
                .finish()
                .expect_err("accepted a clique out of canonical order");
            assert!(matches!(err, StoreError::Codec { .. }), "{err}");
        }

        let mut w = IndexWriter::create(&dir, 4).unwrap();
        w.maximal(&[2, 9]); // vertex 9 outside a 4-vertex graph
        assert!(w.finish().is_err());

        let mut w = IndexWriter::create(&dir, 4).unwrap();
        w.maximal(&[2, 2]); // not strictly ascending
        assert!(w.flush_barrier().is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rebuilding_over_a_committed_index_bumps_generation() {
        let dir = tmp("generation");
        let _ = std::fs::remove_dir_all(&dir);
        let read_gen = |dir: &Path| {
            IndexMeta::from_text(&std::fs::read_to_string(dir.join(META_FILE)).unwrap())
                .unwrap()
                .generation
        };
        for expect in 0..3u64 {
            let mut w = IndexWriter::create(&dir, 10).unwrap();
            w.maximal(&[1, 2, 3]);
            w.finish().unwrap();
            assert_eq!(read_gen(&dir), expect);
        }
        // a crashed (unfinished) writer must not consume a generation
        drop(IndexWriter::create(&dir, 10).unwrap());
        let mut w = IndexWriter::create(&dir, 10).unwrap();
        w.maximal(&[1, 2, 3]);
        w.finish().unwrap();
        assert_eq!(read_gen(&dir), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn summary_counts_blocks_and_sizes() {
        let dir = tmp("summary");
        let _ = std::fs::remove_dir_all(&dir);
        let mut w = IndexWriter::create(&dir, 100).unwrap().block_target(16);
        for i in 0..20u32 {
            w.maximal(&[i, i + 1, i + 2]);
        }
        w.maximal(&[0, 2, 4, 6]);
        let summary = w.finish().unwrap();
        assert_eq!(summary.cliques, 21);
        assert_eq!(summary.max_clique, 4);
        assert!(summary.blocks > 1, "tiny target must split blocks");
        assert!(dir.join(META_FILE).exists());
        assert!(dir.join(CLIQUES_FILE).exists());
        assert!(dir.join(POSTINGS_FILE).exists());
        assert!(dir.join(DIRECTORY_FILE).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
