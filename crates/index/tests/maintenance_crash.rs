//! Crash recovery at every maintenance failpoint.
//!
//! `gsb update` plants `update.pre_dir` (delta blocks and postings
//! appended, directory record not) and `update.pre_commit` (every
//! append done, manifest not renamed); `gsb compact` plants
//! `compact.pre_swap` (scratch index finished, nothing moved) and
//! `compact.swap_file` (after each data file moves into place). Each is
//! armed in turn with an injected I/O error, and after each fault:
//!
//! * before the swap window, the index opens at the previous
//!   generation and answers with the oracle's cliques of the previous
//!   graph;
//! * inside the swap window — the one non-atomic window of DESIGN.md
//!   §16 — updates refuse to run;
//! * the next update or compaction completes;
//! * the final compaction is byte-identical to a fresh build.
//!
//! Requires `--features failpoints`; without it this file is empty.

#![cfg(feature = "failpoints")]

mod support;

use gsb_core::failpoint::{self, FailAction};
use gsb_core::{Clique, CliqueEnumerator, CollectSink, EnumConfig};
use gsb_graph::generators::gnp;
use gsb_graph::BitGraph;
use gsb_index::{compact, update, BuildOptions, CliqueIndex, EditScript};
use std::path::Path;
use support::{build_index, tmp};

/// The oracle's `--min`: `gsb index`'s default, which the fixtures use.
const MIN_K: usize = 3;
const DATA_FILES: [&str; 4] = ["cliques.gsi", "postings.gsp", "index.gsd", "graph.gsg"];

fn enumerate(g: &BitGraph) -> Vec<Clique> {
    let mut sink = CollectSink::default();
    CliqueEnumerator::new(EnumConfig {
        min_k: MIN_K,
        max_k: None,
        record_costs: false,
    })
    .enumerate(g, &mut sink);
    sink.cliques
}

/// The generation and (size, lex)-sorted live cliques of the index.
fn opened(dir: &Path) -> (u64, Vec<Clique>) {
    let idx = CliqueIndex::open(dir).expect("open");
    let ids: Vec<u64> = (0..idx.len()).filter(|&id| idx.is_live(id)).collect();
    let mut live = idx.materialize(ids).expect("materialize");
    live.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
    (idx.generation(), live)
}

fn patched(g: &BitGraph, script: &EditScript) -> BitGraph {
    let n = script.add.iter().map(|&(_, v)| v + 1).chain([g.n()]).max();
    let mut out = g.clone().grown(n.expect("at least g.n()"));
    for &(u, v) in &script.remove {
        out.remove_edge(u, v);
    }
    for &(u, v) in &script.add {
        out.add_edge(u, v);
    }
    out
}

/// A batch of `k` removals and `k` additions, plus a growth edge when
/// `grow` is set.
fn script(g: &BitGraph, k: usize, skip: usize, grow: bool) -> EditScript {
    let edges: Vec<(usize, usize)> = g.edges().skip(skip).take(k).collect();
    let mut absent = Vec::new();
    'pairs: for u in skip..g.n() {
        for v in u + 1..g.n() {
            if !g.has_edge(u, v) {
                absent.push((u, v));
                if absent.len() == k {
                    break 'pairs;
                }
            }
        }
    }
    if grow {
        absent.push((1, g.n() + 1));
    }
    EditScript {
        remove: edges,
        add: absent,
    }
}

/// The compacted index in `dir` equals a fresh build of `g`, file for
/// file (the manifest up to its generation and crc).
fn assert_fresh_rebuild(dir: &Path, g: &BitGraph, case: &str) {
    let fresh = tmp(&format!("{case}_fresh"));
    build_index(g, &fresh, BuildOptions::default());
    for name in DATA_FILES {
        let got = std::fs::read(dir.join(name)).expect("read compacted");
        let want = std::fs::read(fresh.join(name)).expect("read fresh");
        assert!(got == want, "{case}: {name} differs from a fresh build");
    }
    let meta = |d: &Path| {
        std::fs::read_to_string(d.join("index.meta"))
            .expect("read meta")
            .lines()
            .filter(|l| !l.starts_with("generation=") && !l.starts_with("crc="))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(meta(dir), meta(&fresh), "{case}: manifests differ");
}

/// One test, so no other test in this binary races the process-wide
/// failpoint registry.
#[test]
fn every_maintenance_failpoint_recovers_to_a_fresh_rebuild() {
    let base = gnp(48, 0.16, 5);
    let first = script(&base, 3, 0, true);
    let g1 = patched(&base, &first);
    let second = script(&g1, 4, 7, false);
    let g2 = patched(&g1, &second);

    let mut cases: Vec<(&str, Option<&str>)> = vec![
        ("update.pre_dir", None),
        ("update.pre_commit", None),
        ("compact.pre_swap", None),
    ];
    cases.extend(DATA_FILES.map(|f| ("compact.swap_file", Some(f))));
    for (site, tag) in cases {
        let case = format!("{site}-{}", tag.unwrap_or("any"));
        let dir = tmp(&case);
        build_index(&base, &dir, BuildOptions::default());
        update(&dir, &first, None).expect("first update");
        let before = opened(&dir);
        assert_eq!(before, (1, enumerate(&g1)), "{case}: first update");

        failpoint::reset_all();
        match tag {
            Some(t) => failpoint::configure_tagged(site, t, FailAction::error_once()),
            None => failpoint::configure(site, FailAction::error_once()),
        }
        let final_graph = if site.starts_with("update.") {
            assert!(
                update(&dir, &second, None).is_err(),
                "{case}: fault not raised"
            );
            assert_eq!(failpoint::hits(site), 1, "{case}: site not reached");
            failpoint::reset_all();
            assert_eq!(opened(&dir), before, "{case}: not the previous generation");
            let out = update(&dir, &second, None).expect("update after the fault");
            assert_eq!(out.generation, 2, "{case}");
            assert_eq!(opened(&dir), (2, enumerate(&g2)), "{case}: retried update");
            let out = compact(&dir, None).expect("compact");
            assert!(out.compacted && !out.resumed, "{case}");
            g2.clone()
        } else {
            assert!(compact(&dir, None).is_err(), "{case}: fault not raised");
            assert_eq!(failpoint::hits(site), 1, "{case}: site not reached");
            failpoint::reset_all();
            if tag.is_none() {
                assert_eq!(opened(&dir), before, "{case}: not the previous generation");
            }
            assert!(
                update(&dir, &second, None).is_err(),
                "{case}: update ran over a pending compaction swap"
            );
            let out = compact(&dir, None).expect("compact after the fault");
            assert!(
                out.resumed,
                "{case}: the pending swap was rebuilt, not finished"
            );
            assert_eq!(
                opened(&dir),
                (2, enumerate(&g1)),
                "{case}: resumed compaction"
            );
            g1.clone()
        };
        assert_fresh_rebuild(&dir, &final_graph, &case);
    }
}
