//! Checkpoint/resume: interrupting an enumeration at any level barrier
//! and resuming from the persisted level must reproduce the full run.
//!
//! All on-disk state lives in a [`util::TempDirGuard`] so a failing
//! assertion cannot leak checkpoint files into the system temp dir.

mod util;

use gsb_core::sink::CollectSink;
use gsb_core::store::{read_level, write_level};
use gsb_core::{CliqueEnumerator, EnumConfig, Vertex};
use gsb_graph::generators::{planted, Module};
use gsb_graph::BitGraph;
use util::TempDirGuard;

fn full_run(g: &BitGraph) -> Vec<Vec<Vertex>> {
    let mut sink = CollectSink::default();
    CliqueEnumerator::default().enumerate(g, &mut sink);
    let mut v = sink.cliques;
    v.sort();
    v
}

#[test]
fn interrupt_resume_at_every_level() {
    let dir = TempDirGuard::new("ckpt-every-level");
    let g = planted(36, 0.08, &[Module::clique(9), Module::clique(6)], 7);
    let expect = full_run(&g);
    let enumerator = CliqueEnumerator::default();

    // Drive the run manually; at each barrier, checkpoint, reload, and
    // race a resumed run to completion — results must always match.
    let mut sink = CollectSink::default();
    let mut stats_shim = gsb_core::EnumStats::default();
    let mut level = enumerator.init_level(&g, &mut sink, &mut stats_shim);
    let mut checkpoints = 0;
    while !level.is_empty() {
        // checkpoint here
        let path = dir.file(&format!("ckpt-{}.lvl", level.k));
        write_level(&path, &level).unwrap();
        let restored = read_level(&path).unwrap();
        assert_eq!(restored.k, level.k);
        assert_eq!(restored.n_cliques(), level.n_cliques());

        // resumed run from the restored level
        let mut resumed_sink = CollectSink::default();
        enumerator.enumerate_from_level(&g, restored, &mut resumed_sink);
        let mut combined = sink.cliques.clone();
        combined.extend(resumed_sink.cliques);
        combined.sort();
        assert_eq!(combined, expect, "checkpoint at level {}", level.k);
        checkpoints += 1;

        // advance the primary run one level
        let (next, _) = enumerator.step(&g, level, &mut sink);
        level = next;
    }
    assert!(
        checkpoints >= 3,
        "workload too shallow: {checkpoints} levels"
    );
    // primary run, driven level by level, also matches
    let mut all = sink.cliques;
    all.sort();
    assert_eq!(all, expect);
}

#[test]
fn seeded_level_roundtrips_through_disk() {
    let dir = TempDirGuard::new("ckpt-seed");
    let g = planted(30, 0.1, &[Module::clique(8)], 2);
    let (level, _) = gsb_core::kclique::seed_level(&g, 4);
    let path = dir.file("seed.lvl");
    write_level(&path, &level).unwrap();
    let restored = read_level(&path).unwrap();
    assert_eq!(restored.k, level.k);
    assert_eq!(restored.n_sublists(), level.n_sublists());
    for (a, b) in restored.sublists.iter().zip(&level.sublists) {
        assert_eq!(a.prefix, b.prefix);
        assert_eq!(a.tails, b.tails);
        assert_eq!(a.cn, b.cn);
    }
    // resuming from the seed equals a seeded full run
    let mut from_restored = CollectSink::default();
    CliqueEnumerator::default().enumerate_from_level(&g, restored, &mut from_restored);
    let mut seeded = CollectSink::default();
    CliqueEnumerator::new(EnumConfig {
        min_k: 4,
        ..Default::default()
    })
    .enumerate(&g, &mut seeded);
    // the direct seeded run also reports maximal 4-cliques found at
    // seeding; filter both down to sizes > 4 for a fair comparison
    let trim = |v: &CollectSink| {
        let mut c: Vec<_> = v.cliques.iter().filter(|c| c.len() > 4).cloned().collect();
        c.sort();
        c
    };
    assert_eq!(trim(&from_restored), trim(&seeded));
}

#[test]
fn corrupt_checkpoints_are_rejected() {
    let dir = TempDirGuard::new("ckpt-bad");
    let path = dir.file("bad.lvl");
    std::fs::write(&path, b"not a checkpoint").unwrap();
    assert!(read_level::<gsb_bitset::BitSet>(&path).is_err());
    std::fs::write(&path, 0x5343_3035_474C_5631u64.to_le_bytes()).unwrap();
    assert!(read_level::<gsb_bitset::BitSet>(&path).is_err()); // truncated after magic
}
