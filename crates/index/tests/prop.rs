//! Property tests for the on-disk clique index.
//!
//! The contract under test: for any graph, every query answered from
//! disk is identical to recomputing the answer from an in-memory
//! enumeration of the same graph; building the same index twice yields
//! byte-identical files; and corrupting any single byte of any index
//! file — of a base index or of one with a delta chain — yields a typed
//! [`StoreError`], never a panic or a wrong answer.

mod support;

use gsb_core::{CliqueEnumerator, CollectSink, EnumConfig, StoreError};
use gsb_graph::generators::{gnp, planted, Module};
use gsb_graph::BitGraph;
use gsb_index::format::{CLIQUES_FILE, DIRECTORY_FILE, GRAPH_FILE, META_FILE, POSTINGS_FILE};
use gsb_index::{read_graph_checked, update, BuildOptions, CliqueIndex, EditScript};
use std::collections::HashSet;
use std::path::Path;
use support::{build_index, tmp};

/// Index `g` at `dir` with `block_target`-byte blocks and return the
/// Clique Enumerator's cliques of `g`, the oracle for its answers.
fn build(g: &BitGraph, dir: &Path, block_target: usize) -> Vec<Vec<u32>> {
    build_index(g, dir, with_blocks(block_target));
    let mut collect = CollectSink::default();
    CliqueEnumerator::new(EnumConfig::default()).enumerate(g, &mut collect);
    collect.cliques
}

fn with_blocks(block_target: usize) -> BuildOptions {
    BuildOptions {
        block_target,
        ..BuildOptions::default()
    }
}

/// Build `g`'s index as [`build`] does, then apply one `gsb update`
/// with 16-byte delta blocks: three removals among the
/// highest-numbered vertices, three additions that close triangles and
/// an edge to a new vertex. The chain then holds several delta blocks,
/// a delta postings frame and a generation record for the reader's
/// corruption sweeps to hit.
fn build_chained(g: &BitGraph, dir: &Path, block_target: usize) {
    build_index(g, dir, with_blocks(block_target));
    let n = g.n();
    let pairs: Vec<(usize, usize)> = (0..n)
        .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
        .collect();
    let script = EditScript {
        remove: pairs
            .iter()
            .rev()
            .copied()
            .filter(|&(u, v)| g.has_edge(u, v))
            .take(3)
            .collect(),
        add: pairs
            .iter()
            .copied()
            .filter(|&(u, v)| !g.has_edge(u, v) && g.neighbors(u).intersects(g.neighbors(v)))
            .take(3)
            .chain([(0, n)])
            .collect(),
    };
    let out = update(dir, &script, Some(16)).expect("update");
    assert!(out.committed && out.n == n + 1, "{out:?}");
    assert!(out.new_tombstones > 0, "the update must kill cliques");
    let index = CliqueIndex::open(dir).expect("open chained index");
    assert!(
        index.chain()[0].blocks.len() > 1,
        "tiny blocks must split the delta"
    );
}

/// Check every supported query against the in-memory truth.
fn check_queries(index: &CliqueIndex, g: &BitGraph, truth: &[Vec<u32>]) {
    let n = g.n() as u32;
    assert_eq!(index.len(), truth.len() as u64);
    assert_eq!(index.n(), g.n());

    // get(id): exact clique recall in emission order.
    for (id, expected) in truth.iter().enumerate() {
        assert_eq!(&index.get(id as u64).expect("get"), expected);
    }

    // containing(v) for every vertex, including one past the end.
    for v in 0..=n {
        let expected: Vec<u64> = truth
            .iter()
            .enumerate()
            .filter(|(_, c)| c.contains(&v))
            .map(|(id, _)| id as u64)
            .collect();
        assert_eq!(index.containing(v).expect("containing"), expected, "v={v}");
    }

    // of_size over every (lo, hi) pair up to max size + 1.
    let max = truth.iter().map(Vec::len).max().unwrap_or(0) as u32;
    for lo in 0..=max + 1 {
        for hi in lo..=max + 1 {
            let ids = index.of_size(lo, hi);
            let expected: Vec<u64> = truth
                .iter()
                .enumerate()
                .filter(|(_, c)| (lo..=hi).contains(&(c.len() as u32)))
                .map(|(id, _)| id as u64)
                .collect();
            // Sorted-by-size emission makes the answer one contiguous
            // run; the expected ids must be exactly that range.
            assert_eq!(
                ids.collect::<Vec<u64>>(),
                expected,
                "size range {lo}..={hi}"
            );
        }
    }

    // max_clique: same size as the truth's largest, and present in it.
    let got = index.max_clique().expect("max_clique");
    match truth.iter().map(Vec::len).max() {
        None => assert!(got.is_none()),
        Some(best) => {
            let got = got.expect("non-empty index has a max clique");
            assert_eq!(got.len(), best);
            assert!(truth.contains(&got));
        }
    }

    // overlap(v, w) over a deterministic sample of pairs.
    for v in 0..n.min(12) {
        for w in 0..n.min(12) {
            let expected: Vec<u64> = truth
                .iter()
                .enumerate()
                .filter(|(_, c)| c.contains(&v) && c.contains(&w))
                .map(|(id, _)| id as u64)
                .collect();
            assert_eq!(
                index.overlap(v, w).expect("overlap"),
                expected,
                "overlap({v},{w})"
            );
        }
    }
}

#[test]
fn disk_queries_match_recompute_on_100_random_graphs() {
    for seed in 0..100u64 {
        // Vary order, density, and block size so indexes cross block
        // boundaries in different places; every 10th graph gets a
        // planted module so large cliques appear too.
        let n = 12 + (seed as usize % 7) * 4;
        let p = 0.15 + (seed % 5) as f64 * 0.12;
        let g = if seed % 10 == 9 {
            planted(n, 0.1, &[Module::clique(6)], seed)
        } else {
            gnp(n, p, seed)
        };
        let dir = tmp(&format!("match_{seed}"));
        let truth = build(&g, &dir, if seed % 3 == 0 { 64 } else { 4096 });
        let index = CliqueIndex::open(&dir).expect("open index");
        check_queries(&index, &g, &truth);
    }
}

#[test]
fn rebuild_is_byte_identical() {
    let g = planted(60, 0.12, &[Module::clique(8), Module::clique(5)], 7);
    let (a, b) = (tmp("bytes_a"), tmp("bytes_b"));
    build(&g, &a, 256);
    build(&g, &b, 256);
    for file in [CLIQUES_FILE, POSTINGS_FILE, DIRECTORY_FILE, META_FILE] {
        let left = std::fs::read(a.join(file)).expect("read a");
        let right = std::fs::read(b.join(file)).expect("read b");
        assert_eq!(left, right, "{file} differs between identical builds");
    }
}

/// `build` streams the Clique Enumerator's cliques to its tee, records
/// `min_size` and a `graph.gsg` snapshot exactly when `max` is unset,
/// and writes the same files at 1, 2 and 4 threads.
#[test]
fn build_is_updatable_exactly_without_max_and_the_same_at_every_thread_count() {
    let g = planted(70, 0.12, &[Module::clique(8), Module::clique(6)], 9);
    for max in [None, Some(4)] {
        let mut oracle = CollectSink::default();
        let config = EnumConfig {
            min_k: 2,
            max_k: max,
            record_costs: false,
        };
        CliqueEnumerator::new(config).enumerate(&g, &mut oracle);
        let mut first = None;
        for threads in [1, 2, 4] {
            let dir = tmp(&format!("build_{threads}"));
            let options = BuildOptions {
                min: 2,
                max,
                threads,
                block_target: 128,
            };
            let mut teed = CollectSink::default();
            let summary = gsb_index::build(&g, &dir, options, Some(&mut teed)).expect("build");
            assert_eq!(
                teed.cliques, oracle.cliques,
                "max {max:?}, threads {threads}"
            );
            assert_eq!(summary.cliques, oracle.cliques.len() as u64);
            assert!(summary.blocks > 1, "a 128-byte target must split blocks");

            let meta = CliqueIndex::open(&dir).expect("open").meta().clone();
            let updatable = max.is_none();
            assert_eq!(meta.min_size, if updatable { 2 } else { 0 });
            assert_eq!(dir.join(GRAPH_FILE).exists(), updatable);
            if updatable {
                let snapshot = read_graph_checked(&dir, meta.graph_bytes, meta.graph_crc);
                assert!(
                    snapshot.expect("snapshot") == g,
                    "the snapshot is not the graph"
                );
            } else {
                assert_eq!((meta.graph_bytes, meta.graph_crc), (0, 0));
            }

            let files: Vec<Option<Vec<u8>>> = [
                CLIQUES_FILE,
                POSTINGS_FILE,
                DIRECTORY_FILE,
                META_FILE,
                GRAPH_FILE,
            ]
            .iter()
            .map(|f| std::fs::read(dir.join(f)).ok())
            .collect();
            match &first {
                None => first = Some(files),
                Some(want) => assert!(&files == want, "max {max:?}: threads {threads} differ"),
            }
        }
    }
}

/// Run every query; collect the first typed error, panic on none.
fn sweep_queries(index: &CliqueIndex) -> Result<(), StoreError> {
    for id in 0..index.len() {
        index.get(id)?;
    }
    for v in 0..index.n() as u32 {
        let ids = index.containing(v)?;
        index.materialize(ids)?;
    }
    index.max_clique()?;
    index.overlap(0, 1)?;
    Ok(())
}

#[test]
fn every_single_byte_corruption_is_a_typed_error() {
    let g = gnp(24, 0.35, 11);
    let dir = tmp("corrupt");
    // Tiny blocks so the store has several frames to corrupt.
    let truth = build(&g, &dir, 96);
    assert!(!truth.is_empty(), "graph must have cliques to index");
    corrupt_every_byte(&dir);

    let chained = tmp("corrupt_chained");
    build_chained(&g, &chained, 96);
    corrupt_every_byte(&chained);
}

/// Flip every byte of the three binary files in turn: `open` or a query
/// must fail typed each time, and the restored index must answer again.
fn corrupt_every_byte(dir: &Path) {
    for file in [CLIQUES_FILE, POSTINGS_FILE, DIRECTORY_FILE] {
        let path = dir.join(file);
        let pristine = std::fs::read(&path).expect("read index file");
        let mut detected = 0usize;
        for pos in 0..pristine.len() {
            let mut bytes = pristine.clone();
            bytes[pos] ^= 0x41;
            std::fs::write(&path, &bytes).expect("write corrupted file");
            // Either open() rejects the file, or some query does; a
            // flipped byte must never pass unnoticed or panic.
            let outcome = CliqueIndex::open(dir).and_then(|index| sweep_queries(&index));
            if outcome.is_err() {
                detected += 1;
            }
            let err = outcome.expect_err(&format!("flip at {file}:{pos} went undetected"));
            // StoreError is the typed surface; formatting it must work.
            let _ = err.to_string();
        }
        assert_eq!(detected, pristine.len(), "{file}: all flips detected");
        std::fs::write(&path, &pristine).expect("restore file");
        // After restoring, the index is whole again.
        let index = CliqueIndex::open(dir).expect("restored index opens");
        sweep_queries(&index).expect("restored index answers");
    }
}

#[test]
fn truncations_are_typed_errors() {
    let g = gnp(20, 0.3, 5);
    let dir = tmp("truncate");
    build(&g, &dir, 128);
    truncate_every_length(&dir);

    let chained = tmp("truncate_chained");
    build_chained(&g, &chained, 128);
    truncate_every_length(&chained);
}

/// Cut each binary file to every shorter length in turn: `open` or a
/// query must fail typed each time.
fn truncate_every_length(dir: &Path) {
    for file in [CLIQUES_FILE, POSTINGS_FILE, DIRECTORY_FILE] {
        let path = dir.join(file);
        let pristine = std::fs::read(&path).expect("read");
        for keep in 0..pristine.len() {
            std::fs::write(&path, &pristine[..keep]).expect("truncate");
            let outcome = CliqueIndex::open(dir).and_then(|index| sweep_queries(&index));
            assert!(
                outcome.is_err(),
                "{file} truncated to {keep} bytes accepted"
            );
        }
        std::fs::write(&path, &pristine).expect("restore");
    }
}

#[test]
fn postings_agree_with_store_under_dedup() {
    // Cross-check: the union of containing(v) over all v enumerates
    // every clique id exactly len(clique) times.
    let g = planted(40, 0.15, &[Module::clique(7)], 3);
    let dir = tmp("xcheck");
    let truth = build(&g, &dir, 512);
    let index = CliqueIndex::open(&dir).expect("open");
    let mut seen = vec![0usize; truth.len()];
    let mut vertices_with_postings = HashSet::new();
    for v in 0..g.n() as u32 {
        for id in index.containing(v).expect("containing") {
            seen[id as usize] += 1;
            vertices_with_postings.insert(v);
        }
    }
    for (id, clique) in truth.iter().enumerate() {
        assert_eq!(seen[id], clique.len(), "clique {id} posting multiplicity");
    }
    assert_eq!(
        vertices_with_postings.len(),
        truth.iter().flatten().collect::<HashSet<_>>().len()
    );
}
