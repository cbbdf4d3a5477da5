//! Hot-reload racing graceful drain: rebuild `index.meta` generations
//! in place while clients hammer the server, then SIGTERM mid-swap.
//!
//! The contract under test (DESIGN.md §13): every answer the server
//! ever gives is computed against ONE `Arc<CliqueIndex>` snapshot.
//! A hot-reload swaps the served index atomically between requests,
//! and a drain answers everything it accepted on whatever snapshot
//! that request started with — so the `(generation, cliques,
//! max_clique)` triple inside any single answer must always be
//! internally consistent, even for answers racing the swap or the
//! shutdown. A torn read (generation from one index, counts from
//! another) is the bug this test exists to catch.

mod support;

use gsb_core::{CliqueEnumerator, CollectSink, EnumConfig};
use gsb_graph::generators::{planted, Module};
use gsb_index::{BuildOptions, ServeConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use support::{build_index, get, serve, tmp};

/// Index one graph into `dir` (in place: bumps the committed
/// generation) and return its clique count and max clique size.
fn rebuild(dir: &std::path::Path, big: usize, seed: u64) -> (u64, u64) {
    let g = planted(40, 0.08, &[Module::clique(big), Module::clique(4)], seed);
    let mut collect = CollectSink::default();
    CliqueEnumerator::new(EnumConfig::default()).enumerate(&g, &mut collect);
    build_index(&g, dir, BuildOptions::default());
    let max = collect.cliques.iter().map(Vec::len).max().unwrap_or(0) as u64;
    (collect.cliques.len() as u64, max)
}

#[test]
fn sigterm_mid_swap_keeps_every_answer_on_one_generation() {
    let dir = tmp("gens");
    // Even generations serve the 6-clique graph, odd ones the
    // 7-clique graph — distinguishable on every axis, so a torn
    // answer cannot masquerade as a valid one.
    let (even_cliques, even_max) = rebuild(&dir, 6, 31);
    let (odd_cliques, odd_max) = rebuild(&tmp("probe"), 7, 32);
    assert_ne!(even_cliques, odd_cliques, "fixture graphs must differ");
    assert_ne!(even_max, odd_max, "fixture graphs must differ");

    let server = serve(
        &dir,
        ServeConfig {
            threads: 2,
            reload: Some((dir.to_path_buf(), Duration::from_millis(25))),
            ..ServeConfig::default()
        },
    );
    let addr = server.addr();

    // Client hammer: collect every (generation, cliques, max_clique)
    // triple the server ever hands out, until the listener goes away.
    let stop = Arc::new(AtomicBool::new(false));
    let clients: Vec<_> = (0..3)
        .map(|c| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut seen = Vec::new();
                let parse = |key: &str, body: &str| -> Option<u64> {
                    gsb_telemetry::json::parse(body)
                        .ok()
                        .map(|p| p.u64_or_zero(key))
                };
                loop {
                    // /stats and /ready both carry generation-tagged
                    // counts; alternate so the drain races both paths.
                    let path = if c % 2 == 0 { "/stats" } else { "/ready" };
                    let Some((status, _, body)) = get(addr, path) else {
                        // Listener gone: the drain finished. Only then
                        // may requests stop being answered.
                        assert!(
                            stop.load(Ordering::Acquire),
                            "client {c}: connection died before shutdown was requested"
                        );
                        break;
                    };
                    assert_ne!(status, 500, "client {c}: internal error: {body}");
                    if body.contains("\"generation\"") {
                        seen.push((
                            parse("generation", &body).unwrap(),
                            parse("cliques", &body).unwrap(),
                            parse("max_clique", &body),
                            body.clone(),
                        ));
                    }
                }
                seen
            })
        })
        .collect();

    // Rebuild generations under the hammer, then SIGTERM immediately
    // after committing a fresh manifest — the drain races the watcher
    // mid-swap.
    let mut swaps = 0u64;
    for gen in 1..=4u64 {
        // Pacing: edits under load. Each generation stays up for a few
        // poll windows, so the hammer gets to answer from it.
        std::thread::sleep(Duration::from_millis(120));
        let (big, seed) = if gen % 2 == 1 { (7, 32) } else { (6, 31) };
        rebuild(&dir, big, seed);
        swaps += 1;
    }
    // Pacing: land the drain inside a poll window, while the watcher
    // may be swapping the last generation in.
    std::thread::sleep(Duration::from_millis(15));
    stop.store(true, Ordering::Release);
    let report = server.wait().expect("run");

    let mut answers = 0usize;
    let mut gens_seen = std::collections::BTreeSet::new();
    for client in clients {
        for (generation, cliques, max_clique, body) in client.join().expect("join client") {
            answers += 1;
            gens_seen.insert(generation);
            let (want_cliques, want_max) = if generation % 2 == 0 {
                (even_cliques, even_max)
            } else {
                (odd_cliques, odd_max)
            };
            assert!(
                generation <= swaps,
                "generation {generation} never committed: {body}"
            );
            assert_eq!(
                cliques, want_cliques,
                "torn answer: generation {generation} with foreign clique count: {body}"
            );
            // /ready has no max_clique field; /stats must match.
            if let Some(max) = max_clique.filter(|_| body.contains("max_clique")) {
                assert_eq!(
                    max, want_max,
                    "torn answer: generation {generation} with foreign max clique: {body}"
                );
            }
        }
    }
    assert!(answers > 0, "clients never got an answer");
    assert!(
        gens_seen.len() >= 2,
        "only generations {gens_seen:?} observed — the hammer never saw a swap"
    );
    assert!(report.reloads >= 1, "reloads never counted");
    assert!(report.requests >= answers as u64, "requests lost");
}
