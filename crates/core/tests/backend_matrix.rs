//! Backend equivalence matrix: the dense and WAH-compressed
//! representations must be observationally identical — same canonical
//! maximal-clique sets as Bron–Kerbosch and identical per-level counts
//! — across a large randomized graph family, and a WAH level must
//! survive a checkpoint round-trip byte-identically.

use gsb_bitset::{BitSet, NeighborSet, WahBitSet};
use gsb_core::bk::base_bk_sorted;
use gsb_core::sink::CollectSink;
use gsb_core::store::{read_level, write_level};
use gsb_core::{CliqueEnumerator, EnumConfig, EnumStats, Vertex};
use gsb_graph::generators::{gnp, planted, Module};
use gsb_graph::BitGraph;

/// Per-level `(k, N[k], M[k], maximal)` counts.
type LevelCounts = Vec<(usize, usize, usize, usize)>;

/// Canonical clique set (each clique sorted, set sorted) plus the
/// per-level counts for one backend.
fn run_backend<S: NeighborSet>(g: &BitGraph) -> (Vec<Vec<Vertex>>, LevelCounts) {
    let mut sink = CollectSink::default();
    let stats: EnumStats =
        CliqueEnumerator::<S>::with_backend(EnumConfig::default()).enumerate(g, &mut sink);
    let mut cliques = sink.cliques;
    for c in &mut cliques {
        c.sort_unstable();
    }
    cliques.sort();
    let levels = stats
        .levels
        .iter()
        .map(|l| (l.k, l.sublists, l.candidates, l.maximal_found))
        .collect();
    (cliques, levels)
}

/// Render the canonical set in the CLI's `size\tv1 v2 ...` text form so
/// the cross-backend comparison is literally byte-for-byte.
fn render(cliques: &[Vec<Vertex>]) -> String {
    let mut out = String::new();
    for c in cliques {
        let text: Vec<String> = c.iter().map(u32::to_string).collect();
        out.push_str(&format!("{}\t{}\n", c.len(), text.join(" ")));
    }
    out
}

#[test]
fn all_backends_match_bron_kerbosch_on_200_random_graphs() {
    for seed in 0..200u64 {
        // Sweep sizes and densities deterministically with the seed.
        let n = 12 + (seed as usize % 5) * 4; // 12..=28
        let p = 0.15 + 0.05 * (seed % 7) as f64; // 0.15..=0.45
        let g = gnp(n, p, seed);

        let mut expect: Vec<Vec<Vertex>> = base_bk_sorted(&g)
            .into_iter()
            .filter(|c| c.len() >= 3)
            .collect();
        expect.sort();

        let (dense, dense_levels) = run_backend::<BitSet>(&g);
        let (wah, wah_levels) = run_backend::<WahBitSet>(&g);

        assert_eq!(dense, expect, "dense vs BK, seed {seed} (n={n}, p={p})");
        assert_eq!(render(&wah), render(&dense), "wah vs dense, seed {seed}");
        assert_eq!(wah_levels, dense_levels, "wah level counts, seed {seed}");
    }
}

#[test]
fn wah_checkpoint_roundtrip_is_byte_identical_and_resumable() {
    let g = planted(40, 0.06, &[Module::clique(9), Module::clique(7)], 13);
    let config = EnumConfig::default();

    // Ground truth: a straight-through WAH run.
    let (expect, _) = run_backend::<WahBitSet>(&g);

    // Step a WAH run to the level-4 barrier.
    let seq = CliqueEnumerator::<WahBitSet>::with_backend(config);
    let mut pre = CollectSink::default();
    let mut stats = EnumStats::default();
    let mut level = seq.init_level(&g, &mut pre, &mut stats);
    while level.k < 4 && !level.sublists.is_empty() {
        let (next, _) = seq.step(&g, level, &mut pre);
        level = next;
    }

    // Byte-identical round-trip: write, read back, write again — the
    // two serializations must match exactly, and the reloaded level
    // must describe the same sub-lists.
    let dir = std::env::temp_dir().join(format!("gsb-backend-matrix-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path_a = dir.join("wah-a.lvl");
    let path_b = dir.join("wah-b.lvl");
    write_level(&path_a, &level).unwrap();
    let reloaded = read_level::<WahBitSet>(&path_a).unwrap();
    assert_eq!(reloaded.k, level.k);
    assert_eq!(reloaded.sublists.len(), level.sublists.len());
    for (a, b) in reloaded.sublists.iter().zip(&level.sublists) {
        assert_eq!(a.prefix, b.prefix);
        assert_eq!(a.tails, b.tails);
        assert_eq!(a.cn, b.cn);
    }
    write_level(&path_b, &reloaded).unwrap();
    assert_eq!(
        std::fs::read(&path_a).unwrap(),
        std::fs::read(&path_b).unwrap(),
        "re-serializing the reloaded WAH level changed its bytes"
    );

    // A dense read of the WAH checkpoint must be rejected, not decoded.
    assert!(matches!(
        read_level::<BitSet>(&path_a),
        Err(gsb_core::StoreError::BackendMismatch { .. })
    ));

    // Resume from the reloaded level and check the union equals the
    // straight-through run.
    let mut post = CollectSink::default();
    seq.enumerate_from_level(&g, reloaded, &mut post);
    let mut got = pre.cliques;
    got.extend(post.cliques);
    for c in &mut got {
        c.sort_unstable();
    }
    got.sort();
    got.dedup();
    assert_eq!(got, expect);

    let _ = std::fs::remove_dir_all(&dir);
}
