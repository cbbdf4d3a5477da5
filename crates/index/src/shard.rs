//! Splitting one committed clique index into contiguous-id shards.
//!
//! The enumerators emit cliques in non-decreasing size order, so
//! sequential clique ids are already sorted by size (DESIGN.md §11).
//! That makes clique-id-range sharding trivial *and* query-preserving:
//!
//! * each shard is an ordinary index directory an unmodified
//!   `gsb serve` can serve — cliques keep their relative order, so the
//!   sub-index satisfies the writer's size-order contract;
//! * a global clique id maps to `(shard, local id = global - id_lo)`;
//! * `of_size` stays a contiguous range per shard, and each shard's
//!   covered size interval `[size_lo, size_hi]` lets a router forward
//!   a size query only to the shards that intersect it;
//! * the top size run starts in the first shard whose size coverage
//!   reaches the largest size, so that shard's first maximum clique is
//!   the global one (the lexicographically first). The run can go on
//!   into later shards, so the last shard's first maximum clique need
//!   not be it.
//!
//! [`split_index`] streams the source index block by block through
//! [`CliqueIndex::with_cliques`] into one [`IndexWriter`] per shard, so
//! every shard inherits the full on-disk hygiene (CRC-framed blocks,
//! atomic `index.meta` commit point). Shards are written side by side,
//! at most one per available core, each through its own reader of the
//! source, so they share no file handle or block cache; a shard's bytes
//! depend only on its id range, never on what runs beside it.

use crate::reader::CliqueIndex;
use crate::writer::IndexWriter;
use gsb_core::{CliqueSink, StoreError};
use std::panic::resume_unwind;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// One shard produced by [`split_index`]: where it lives and which
/// slice of the global id/size space it owns.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardSummary {
    /// Shard ordinal (0-based; id ranges ascend with it).
    pub shard: usize,
    /// The shard's index directory (`<out>/shard<k>`).
    pub dir: PathBuf,
    /// First global clique id owned by this shard (inclusive).
    pub id_lo: u64,
    /// One past the last global clique id owned (exclusive).
    pub id_hi: u64,
    /// Smallest clique size stored in this shard (0 when empty).
    pub size_lo: u32,
    /// Largest clique size stored in this shard (0 when empty).
    pub size_hi: u32,
}

/// Split the committed index at `src` into `shards` contiguous-id
/// sub-indexes under `out/shard<k>`, returning each shard's id and
/// size coverage in shard order. Ids are divided as evenly as possible;
/// the relative order of cliques is preserved, so every shard is a
/// valid standalone index. `shards` must be at least 1 and no larger
/// than the clique count (an empty shard could never answer for its id
/// range). When shards fail, the first failure in shard order is
/// returned; a panic while writing a shard is re-raised here.
pub fn split_index(src: &Path, out: &Path, shards: usize) -> Result<Vec<ShardSummary>, StoreError> {
    if shards == 0 {
        return Err(StoreError::Codec {
            context: "shard split: shard count must be at least 1",
        });
    }
    let index = CliqueIndex::open(src)?;
    if index.delta_generations() > 0 {
        // Shards assume a dense tombstone-free id space (contiguous
        // per-shard id ranges); folding the chain first restores it.
        return Err(StoreError::Codec {
            context: "shard split: index has a delta chain — run `gsb compact` first",
        });
    }
    let total = index.len();
    if total < shards as u64 {
        return Err(StoreError::Codec {
            context: "shard split: more shards than cliques",
        });
    }
    let n = index.n();
    drop(index);
    let range = |k: usize| {
        let id = |k: usize| (k as u64) * total / shards as u64;
        id(k)..id(k + 1)
    };
    let workers = thread::available_parallelism()
        .map_or(1, |p| p.get())
        .min(shards);
    // Each worker takes the next unwritten shard. The counter hands out
    // shard numbers only, so it publishes nothing else.
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, Result<ShardSummary, StoreError>)> = thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if k >= shards {
                            return mine;
                        }
                        mine.push((
                            k,
                            write_shard(src, &out.join(format!("shard{k}")), n, k, range(k)),
                        ));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|panic| resume_unwind(panic)))
            .collect()
    });
    done.sort_unstable_by_key(|(k, _)| *k);
    done.into_iter().map(|(_, summary)| summary).collect()
}

/// Write shard `k`, the cliques with ids in `ids`, into `dir` through a
/// reader of its own.
fn write_shard(
    src: &Path,
    dir: &Path,
    n: usize,
    k: usize,
    ids: std::ops::Range<u64>,
) -> Result<ShardSummary, StoreError> {
    let index = CliqueIndex::open(src)?;
    let mut writer = IndexWriter::create(dir, n)?;
    let mut size_lo = 0u32;
    let mut size_hi = 0u32;
    index.with_cliques(ids.clone(), |id, clique| {
        let clique = clique?;
        let size = clique.len() as u32;
        if id == ids.start {
            size_lo = size;
        }
        size_hi = size_hi.max(size);
        writer.maximal(clique);
        Ok(())
    })?;
    writer.finish()?;
    Ok(ShardSummary {
        shard: k,
        dir: dir.to_path_buf(),
        id_lo: ids.start,
        id_hi: ids.end,
        size_lo,
        size_hi,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::{build, BuildOptions};
    use gsb_core::{CliqueEnumerator, CollectSink, EnumConfig};
    use gsb_graph::generators::{planted, Module};

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("gsb_index_shard_{}_{}", std::process::id(), name));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn split_preserves_every_clique_and_covers_the_id_space() {
        let g = planted(50, 0.08, &[Module::clique(7), Module::clique(5)], 11);
        let dir = tmp("split_src");
        let mut truth = CollectSink::default();
        CliqueEnumerator::new(EnumConfig::default()).enumerate(&g, &mut truth);
        build(&g, &dir, BuildOptions::default(), None).expect("build");

        let out = tmp("split_out");
        let shards = split_index(&dir, &out, 3).expect("split");
        assert_eq!(shards.len(), 3);
        // Contiguous, gap-free id coverage starting at 0.
        assert_eq!(shards[0].id_lo, 0);
        for w in shards.windows(2) {
            assert_eq!(w[0].id_hi, w[1].id_lo, "id gap between shards");
            // size order is global, so coverage intervals ascend too
            assert!(w[0].size_hi <= w[1].size_lo, "size coverage overlaps");
        }
        assert_eq!(
            shards.last().unwrap().id_hi,
            truth.cliques.len() as u64,
            "last shard must end at the clique count"
        );

        // Every global id resolves to the same clique through its shard.
        let source = CliqueIndex::open(&dir).expect("open source");
        for s in &shards {
            let sub = CliqueIndex::open(&s.dir).expect("open shard");
            assert_eq!(sub.len(), s.id_hi - s.id_lo);
            for id in s.id_lo..s.id_hi {
                assert_eq!(
                    sub.get(id - s.id_lo).expect("shard get"),
                    source.get(id).expect("source get"),
                    "clique {id} differs through shard {}",
                    s.shard
                );
            }
            // The summary's size coverage matches the shard contents.
            assert_eq!(sub.stats().max_clique, s.size_hi);
        }
        assert_eq!(first_covering_max(&shards), source.max_clique().unwrap());
        // Shards written side by side hold the bytes of shards written
        // one after another.
        let serial = tmp("split_serial");
        for s in &shards {
            let mut writer = IndexWriter::create(&serial, g.n()).expect("create");
            source
                .with_cliques(s.id_lo..s.id_hi, |_, clique| {
                    writer.maximal(clique?);
                    Ok(())
                })
                .expect("read source");
            writer.finish().expect("finish");
            let mut files: Vec<_> = std::fs::read_dir(&s.dir)
                .expect("list shard")
                .map(|e| e.expect("entry").file_name())
                .collect();
            files.sort();
            assert!(files.len() >= 4, "{files:?}");
            for f in &files {
                assert_eq!(
                    std::fs::read(s.dir.join(f)).expect("shard file"),
                    std::fs::read(serial.join(f)).expect("serial file"),
                    "shard {} file {f:?}",
                    s.shard
                );
            }
            std::fs::remove_dir_all(&serial).ok();
        }
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&out).ok();

        // K3,3,3,3: 81 maximal cliques, all of size 4, split 40/41 — the
        // top size run spans the boundary and starts in shard 0.
        let mut g = gsb_graph::BitGraph::new(12);
        for u in 0..12 {
            for v in u + 1..12 {
                if u / 3 != v / 3 {
                    g.add_edge(u, v);
                }
            }
        }
        let dir = tmp("split_k3333");
        build(&g, &dir, BuildOptions::default(), None).expect("build");
        let out = tmp("split_k3333_out");
        let shards = split_index(&dir, &out, 2).expect("split");
        assert_eq!(
            (shards[0].id_hi, shards[1].id_hi, shards[1].size_lo),
            (40, 81, 4)
        );
        let source = CliqueIndex::open(&dir).expect("open source");
        assert_eq!(first_covering_max(&shards), source.max_clique().unwrap());
        assert_eq!(first_covering_max(&shards), Some(vec![0, 3, 6, 9]));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&out).ok();
    }

    /// The maximum clique of the first shard whose size coverage
    /// reaches the top size: the global maximum clique.
    fn first_covering_max(shards: &[ShardSummary]) -> Option<Vec<u32>> {
        let top = shards.last().unwrap().size_hi;
        let first = shards.iter().find(|s| s.size_hi == top).unwrap();
        CliqueIndex::open(&first.dir).unwrap().max_clique().unwrap()
    }

    #[test]
    fn split_rejects_zero_and_oversubscribed_shard_counts() {
        let g = planted(20, 0.1, &[Module::clique(4)], 5);
        let dir = tmp("split_reject");
        let summary = build(&g, &dir, BuildOptions::default(), None).expect("build");
        let out = tmp("split_reject_out");
        assert!(split_index(&dir, &out, 0).is_err());
        assert!(split_index(&dir, &out, summary.cliques as usize + 1).is_err());
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&out).ok();
    }
}
