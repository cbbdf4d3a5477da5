//! Server chaos harness: seeded fault schedules against a live server.
//!
//! Each seed derives a deterministic schedule from
//! [`gsb_core::failpoint::server_chaos_schedule`] — injected I/O
//! errors and stalls at the serving-path failpoints (`index.block_read`,
//! `index.postings_read`, `serve.accept`, `serve.respond`) — and every
//! third seed additionally corrupts a byte of the on-disk clique store,
//! so block quarantine and degraded-exact serving run *under* injected
//! faults, not only in isolation. A misbehaving client (binary garbage)
//! rides along in every run.
//!
//! Invariants held across all seeds:
//!
//! * the server never panics (`worker_panics == 0`, clean join);
//! * every parsed request gets a typed status with exact
//!   `Content-Length`; a connection killed by an injected accept or
//!   respond fault dies silently but never hangs;
//! * accepted `200` answers are exact: the `count` field always equals
//!   the ground truth, and degradation is explicit (`X-Gsb-Degraded`)
//!   — never silent truncation;
//! * no request outlives its deadline budget by more than scheduling
//!   slack;
//! * after the schedule exhausts, the server converges back to
//!   answering `/health` with 200.
//!
//! Requires `--features failpoints`; without it this file is empty.

#![cfg(feature = "failpoints")]

mod support;

use gsb_core::failpoint;
use gsb_core::{CliqueEnumerator, CollectSink, EnumConfig};
use gsb_graph::generators::{planted, Module};
use gsb_index::{BuildOptions, ServeConfig};
use std::time::{Duration, Instant};
use support::{build_index, copy_index, get, serve, tmp};

const SEEDS: u64 = 72;
const REQUEST_DEADLINE: Duration = Duration::from_secs(2);
/// Client-observed latency bound: the budget plus generous scheduling
/// slack (loaded CI machines); the point is "bounded", not "fast".
const LATENCY_SLACK: Duration = Duration::from_secs(4);

#[test]
fn chaos_schedules_never_panic_and_answers_stay_exact() {
    // One ground-truth index, rebuilt per seed by file copy.
    let g = planted(60, 0.07, &[Module::clique(8), Module::clique(5)], 23);
    let golden = tmp("golden");
    let mut collect = CollectSink::default();
    CliqueEnumerator::new(EnumConfig::default()).enumerate(&g, &mut collect);
    let truth = collect.cliques;
    build_index(&g, &golden, BuildOptions::default());

    for seed in 0..SEEDS {
        let schedule = failpoint::server_chaos_schedule(seed);
        let dir = tmp(&format!("seed{seed}"));
        copy_index(&golden, &dir);

        // Every third seed also corrupts the tail of the clique store:
        // the last block must quarantine and serving must degrade
        // exactly, even while I/O faults fire around it.
        let corrupted = seed % 3 == 0;
        if corrupted {
            let store = dir.join("cliques.gsi");
            let mut bytes = std::fs::read(&store).expect("read store");
            let at = bytes.len() - 6;
            bytes[at] ^= 0x20;
            std::fs::write(&store, &bytes).expect("write corrupt store");
        }

        failpoint::reset_all();
        for (site, action) in &schedule {
            failpoint::configure(site, *action);
        }
        let server = serve(
            &dir,
            ServeConfig {
                threads: 2,
                deadline: Duration::from_secs(2),
                request_deadline: REQUEST_DEADLINE,
                queue_limit: 16,
                ..ServeConfig::default()
            },
        );
        let addr = server.addr();

        // A misbehaving client rides along in every schedule.
        {
            let started = Instant::now();
            let _ = get(addr, "/\x01garbage\x02path");
            assert!(
                started.elapsed() < REQUEST_DEADLINE + LATENCY_SLACK,
                "seed {seed}: garbage client not bounded"
            );
        }

        // Mixed query workload: enough requests that bounded schedules
        // (skip < 8, times <= 3) exhaust before the final health check.
        let mut answered = 0u32;
        for round in 0..14u32 {
            let v = (seed as u32 * 7 + round * 3) % 60;
            let w = (seed as u32 * 11 + round * 5) % 60;
            let path = match round % 5 {
                0 => "/health".to_string(),
                1 => format!("/containing/{v}"),
                2 => "/max".to_string(),
                3 => format!("/overlap/{v}/{w}"),
                _ => "/stats".to_string(),
            };
            let started = Instant::now();
            let outcome = get(addr, &path);
            assert!(
                started.elapsed() < REQUEST_DEADLINE + LATENCY_SLACK,
                "seed {seed} round {round} ({path}): {:?} exceeds deadline budget",
                started.elapsed()
            );
            let Some((status, head, body)) = outcome else {
                continue; // killed by an injected accept/respond fault
            };
            answered += 1;
            assert!(
                matches!(status, 200 | 500 | 503),
                "seed {seed} round {round} ({path}): unexpected status {status}: {body}"
            );
            if status != 200 {
                continue;
            }
            // Exactness of accepted answers: counts always match the
            // ground truth (counts come from postings and the
            // directory, which this harness never corrupts), and any
            // skipped cliques are explicitly marked.
            if let Some(v_str) = path.strip_prefix("/containing/") {
                let v: u32 = v_str.parse().unwrap();
                let expected = truth.iter().filter(|c| c.contains(&v)).count();
                assert!(
                    body.contains(&format!("\"count\":{expected}")),
                    "seed {seed}: containing({v}) count drifted: {body}"
                );
                if body.contains("\"degraded\":") {
                    assert!(
                        head.contains("X-Gsb-Degraded:"),
                        "seed {seed}: degraded body without header marker"
                    );
                    assert!(corrupted, "seed {seed}: degraded answer on a clean index");
                }
            } else if path == "/max" && !corrupted {
                assert!(body.contains("\"size\":8"), "seed {seed}: max: {body}");
            }
        }
        assert!(
            answered > 0,
            "seed {seed}: every request died — schedules are bounded, some must land"
        );

        // Faults over (schedules are bounded anyway; disarming makes
        // the convergence check deterministic): the server must be back
        // to healthy answering — injected errors never wedge it.
        failpoint::reset_all();
        let (status, _, _) = get(addr, "/health").expect("post-chaos health answer");
        assert_eq!(status, 200, "seed {seed}: server did not converge");

        if corrupted {
            // Probe a vertex of the largest clique: that clique lives in
            // the corrupted (now quarantined) tail block, so the answer
            // must be 200, count-exact, and explicitly degraded.
            let probe = truth.iter().max_by_key(|c| c.len()).unwrap()[0];
            let (status, head, body) =
                get(addr, &format!("/containing/{probe}")).expect("degraded probe answer");
            assert_eq!(status, 200, "seed {seed}: degraded probe: {body}");
            let expected = truth.iter().filter(|c| c.contains(&probe)).count();
            assert!(
                body.contains(&format!("\"count\":{expected}")),
                "seed {seed}: degraded probe count drifted: {body}"
            );
            assert!(
                head.contains("X-Gsb-Degraded:") && body.contains("\"degraded\":"),
                "seed {seed}: corruption served silently: {head} {body}"
            );
        }

        let report = server.wait().expect("server run must not error");
        let parsed = gsb_telemetry::json::parse(&report.metrics_json).expect("metrics parse");
        assert_eq!(
            parsed.u64_or_zero("worker_panics"),
            0,
            "seed {seed}: a worker panicked under chaos"
        );
        if corrupted {
            assert!(
                report.degraded > 0,
                "seed {seed}: degraded probe not counted in the report"
            );
        }
    }
}
