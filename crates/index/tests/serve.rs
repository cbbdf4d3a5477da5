//! Concurrent storm test for the query server: 16 client threads
//! hammer an in-process `Server`, every response must be complete and
//! correct, and a shutdown request must drain gracefully — all
//! accepted connections answered, per-endpoint histograms exported.

mod support;

use gsb_core::{CliqueEnumerator, CollectSink, EnumConfig};
use gsb_graph::generators::{planted, Module};
use gsb_index::{BuildOptions, CliqueIndex, ServeConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;
use support::{build_index, get, serve, serve_on, tmp, wait_until, TempDir};

#[test]
fn storm_then_graceful_drain() {
    // A graph with known structure: planted cliques guarantee both a
    // deep size histogram and hot postings lists.
    let g = planted(80, 0.08, &[Module::clique(9), Module::clique(6)], 13);
    let dir = tmp("storm");
    let mut collect = CollectSink::default();
    CliqueEnumerator::new(EnumConfig::default()).enumerate(&g, &mut collect);
    let truth = collect.cliques;
    build_index(&g, &dir, BuildOptions::default());

    let metrics_path = dir.join("serve_metrics.json");
    let server = serve(
        &dir,
        ServeConfig {
            threads: 8,
            deadline: Duration::from_secs(5),
            metrics_out: Some(metrics_path.clone()),
            ..ServeConfig::default()
        },
    );
    let addr = server.addr();

    // 16 concurrent clients, each issuing a mixed query workload and
    // verifying every answer against the in-memory truth.
    let truth = Arc::new(truth);
    let clients: Vec<_> = (0..16)
        .map(|c| {
            let truth = Arc::clone(&truth);
            std::thread::spawn(move || {
                for round in 0..20 {
                    let v = ((c * 7 + round * 3) % 80) as u32;
                    let w = ((c * 11 + round * 5) % 80) as u32;

                    let (status, _, body) =
                        get(addr, &format!("/containing/{v}")).expect("response");
                    assert_eq!(status, 200);
                    let expected = truth.iter().filter(|cl| cl.contains(&v)).count();
                    assert!(
                        body.contains(&format!("\"count\":{expected}")),
                        "containing({v}): {body}"
                    );

                    let (status, _, body) =
                        get(addr, &format!("/overlap/{v}/{w}")).expect("response");
                    assert_eq!(status, 200);
                    let expected = truth
                        .iter()
                        .filter(|cl| cl.contains(&v) && cl.contains(&w))
                        .count();
                    assert!(
                        body.contains(&format!("\"count\":{expected}")),
                        "overlap({v},{w}): {body}"
                    );

                    let (status, _, body) = get(addr, "/max?limit=1").expect("response");
                    assert_eq!(status, 200);
                    assert!(body.contains("\"size\":9"), "max: {body}");

                    let (status, _, body) = get(addr, "/size/3/4?limit=2").expect("response");
                    assert_eq!(status, 200);
                    let expected = truth
                        .iter()
                        .filter(|cl| (3..=4).contains(&cl.len()))
                        .count();
                    assert!(
                        body.contains(&format!("\"count\":{expected}")),
                        "size: {body}"
                    );

                    let (status, _, _) = get(addr, "/health").expect("response");
                    assert_eq!(status, 200);
                }
                // Error paths must answer, not hang or kill a worker.
                let (status, _, _) = get(addr, "/no/such/endpoint").expect("response");
                assert_eq!(status, 404);
                let (status, _, _) = get(addr, "/containing/notanumber").expect("response");
                assert_eq!(status, 400);
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread");
    }

    // Drain: the wait must return with every connection answered and
    // the metrics file in place.
    let report = server.wait().expect("server run");
    assert!(
        report.requests >= 16 * 20 * 5,
        "requests: {}",
        report.requests
    );
    assert!(report.connections >= report.requests);

    let metrics = std::fs::read_to_string(&metrics_path).expect("metrics file written");
    assert_eq!(metrics, report.metrics_json);
    let parsed = gsb_telemetry::json::parse(&metrics).expect("metrics JSON parses");
    assert_eq!(parsed.u64_or_zero("requests"), report.requests);
    let endpoints = parsed.get("endpoints").expect("endpoints object");
    for ep in [
        "containing",
        "overlap",
        "max",
        "size",
        "health",
        "not_found",
    ] {
        let entry = endpoints.get(ep).unwrap_or_else(|| panic!("endpoint {ep}"));
        assert!(entry.u64_or_zero("requests") > 0, "{ep} count");
        assert!(
            entry.u64_or_zero("p99_ns") >= entry.u64_or_zero("p50_ns"),
            "{ep} quantiles ordered"
        );
    }
}

#[test]
fn drain_waits_for_queued_connections() {
    // Open connections, delay sending the request until after shutdown
    // is requested: the server must still answer them (drain), because
    // they were accepted before the token fired.
    let g = planted(30, 0.1, &[Module::clique(5)], 99);
    let dir = tmp("drain");
    build_index(&g, &dir, BuildOptions::default());

    let server = serve(
        &dir,
        ServeConfig {
            threads: 2,
            deadline: Duration::from_secs(5),
            metrics_out: None,
            ..ServeConfig::default()
        },
    );
    let addr = server.addr();

    // Pre-open sockets: two hold the workers, two wait in the
    // admission queue behind them.
    let mut pending: Vec<TcpStream> = (0..4)
        .map(|_| {
            let s = TcpStream::connect(addr).expect("connect");
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            s
        })
        .collect();
    // Pacing: the acceptor takes all four before the drain. No request
    // can observe that: with both workers held, it would wait in the
    // queue behind them.
    std::thread::sleep(Duration::from_millis(100));
    server.drain();

    // Requests sent *after* the shutdown request still get answers.
    for s in &mut pending {
        write!(s, "GET /health HTTP/1.1\r\nHost: t\r\n\r\n").expect("send");
        let mut response = String::new();
        s.read_to_string(&mut response).expect("read");
        assert!(
            response.contains("200 OK") && response.ends_with("{\"status\":\"ok\"}"),
            "drained connection got: {response:?}"
        );
    }
    let report = server.wait().expect("run");
    assert!(report.connections >= 4);
}

#[test]
fn hot_reload_swaps_generations_and_survives_a_bad_rebuild() {
    // Serve generation 0, rebuild the index in place (generation 1),
    // and watch the server swap atomically: answers flip to the new
    // clique set without the listener ever going away. Then corrupt
    // the manifest and verify a failed reload keeps the old index.
    let g = planted(40, 0.08, &[Module::clique(6)], 31);
    let dir = tmp("reload");
    build_index(&g, &dir, BuildOptions::default());

    let server = serve(
        &dir,
        ServeConfig {
            threads: 2,
            reload: Some((dir.to_path_buf(), Duration::from_millis(50))),
            ..ServeConfig::default()
        },
    );
    let addr = server.addr();

    let (status, _, body) = get(addr, "/stats").expect("response");
    assert_eq!(status, 200);
    assert!(body.contains("\"generation\":0"), "{body}");

    // In-place rebuild from a different graph: bigger max clique, and
    // the build bumps the committed generation to 1.
    let g2 = planted(40, 0.08, &[Module::clique(7), Module::clique(5)], 32);
    build_index(&g2, &dir, BuildOptions::default());

    wait_until(
        "the hot reload serves generation 1",
        Duration::from_secs(10),
        || {
            let (status, _, body) = get(addr, "/stats").expect("response");
            assert_eq!(status, 200, "server must keep answering during reload");
            body.contains("\"generation\":1")
        },
    );
    let (status, _, body) = get(addr, "/max").expect("response");
    assert_eq!(status, 200);
    assert!(
        body.contains("\"size\":7"),
        "answers not from the new index: {body}"
    );

    // A broken rebuild must not take the server down: corrupt the
    // manifest, wait until the watcher has counted the failed reload,
    // and verify the generation-1 index is still the one answering.
    std::fs::write(dir.join("index.meta"), "garbage, not a manifest\n").expect("clobber meta");
    wait_until(
        "the failed reload is counted",
        Duration::from_secs(10),
        || {
            let (status, _, body) = get(addr, "/metrics").expect("response");
            assert_eq!(status, 200, "metrics scrape failed");
            sample(&body, "gsb_http_reload_errors_total").is_some_and(|n| n > 0)
        },
    );
    let (status, _, body) = get(addr, "/stats").expect("response");
    assert_eq!(status, 200);
    assert!(
        body.contains("\"generation\":1"),
        "failed reload must keep the old index: {body}"
    );

    let report = server.wait().expect("run");
    assert!(report.reloads >= 1, "reload not counted");
}

#[test]
fn a_rebuild_before_the_server_starts_is_reloaded() {
    // The index is opened, then rebuilt in place before the server
    // starts: the watcher compares the manifest with the generation it
    // serves, not with the manifest it first reads, so it reloads.
    let g = planted(40, 0.08, &[Module::clique(6)], 31);
    let dir = tmp("stale");
    build_index(&g, &dir, BuildOptions::default());
    let stale = Arc::new(CliqueIndex::open(&dir).expect("open"));
    build_index(&g, &dir, BuildOptions::default());

    let config = ServeConfig {
        threads: 2,
        reload: Some((dir.to_path_buf(), Duration::from_millis(50))),
        ..ServeConfig::default()
    };
    let server = serve_on(stale, "127.0.0.1:0", config);
    let addr = server.addr();
    wait_until(
        "the rebuild made before start-up is served",
        Duration::from_secs(10),
        || {
            let (status, _, body) = get(addr, "/stats").expect("response");
            assert_eq!(status, 200);
            body.contains("\"generation\":1")
        },
    );
    assert_eq!(server.wait().expect("run").reloads, 1);
}

#[test]
fn sigterm_under_load_answers_accepted_and_sheds_overflow() {
    // The drain contract under overload: with the admission queue full,
    // a SIGTERM-style shutdown must still answer everything that was
    // accepted, while over-queue connections get a typed 503 +
    // Retry-After rather than a reset — and the whole thing maps to
    // exit 143 at the CLI layer (CliError::Drained, signal 15).
    let g = planted(30, 0.1, &[Module::clique(5)], 7);
    let dir = tmp("overload_drain");
    build_index(&g, &dir, BuildOptions::default());

    let server = serve(
        &dir,
        ServeConfig {
            threads: 1,
            queue_limit: 1,
            deadline: Duration::from_secs(5),
            request_deadline: Duration::from_secs(10),
            ..ServeConfig::default()
        },
    );
    let addr = server.addr();

    let connect = || {
        let s = TcpStream::connect(addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s
    };
    // First connection occupies the single worker (we send nothing yet,
    // the worker blocks reading its header on the request budget).
    let mut held = connect();
    // Pacing: the acceptor hands `held` to the worker before the next
    // connection arrives. No request can observe that hand-off: with
    // the one worker held, it would wait in the queue behind `held`.
    std::thread::sleep(Duration::from_millis(100));
    // Second fills the queue (limit 1).
    let mut queued = connect();
    // Third finds the queue full: shed inline with a typed 503. Its
    // answer also shows the acceptor took `queued` first (FIFO backlog).
    let mut overflow = connect();
    {
        let mut response = String::new();
        overflow.read_to_string(&mut response).expect("read shed");
        assert!(response.contains("503"), "overflow got: {response:?}");
        // Retry-After scales with queue depth: the queue is full here
        // (depth == limit), so the shed advertises the max backoff.
        assert!(response.contains("Retry-After: 8"), "{response:?}");
        assert!(
            response.contains("admission queue full"),
            "not the queue-full shed: {response:?}"
        );
    }

    // SIGTERM with the queue still full.
    server.drain();

    // Both accepted connections must still be answered in full.
    for s in [&mut held, &mut queued] {
        write!(s, "GET /health HTTP/1.1\r\nHost: t\r\n\r\n").expect("send");
        let mut response = String::new();
        s.read_to_string(&mut response).expect("read");
        assert!(
            response.contains("200 OK") && response.ends_with("{\"status\":\"ok\"}"),
            "accepted connection dropped during drain: {response:?}"
        );
    }

    let report = server.wait().expect("run");
    assert!(report.connections >= 3, "{:?}", report.connections);
    assert!(report.shed >= 1, "queue-full shed not counted");
}

/// A small served index for the shutdown-wake tests.
fn small_index(name: &str) -> (TempDir, Arc<CliqueIndex>) {
    let g = planted(30, 0.1, &[Module::clique(5)], 5);
    let dir = tmp(name);
    build_index(&g, &dir, BuildOptions::default());
    let index = Arc::new(CliqueIndex::open(&dir).expect("open"));
    (dir, index)
}

/// The value of one unlabelled or fully labelled Prometheus sample.
fn sample(promtext: &str, name: &str) -> Option<u64> {
    promtext
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
}

#[test]
fn idle_server_returns_within_a_second_of_shutdown() {
    // The acceptor blocks in accept(); only the shutdown waker's
    // connection can return it, on a loopback or a wildcard listener.
    let (_dir, index) = small_index("idle");
    for addr in ["127.0.0.1:0", "0.0.0.0:0"] {
        let server = serve_on(Arc::clone(&index), addr, ServeConfig::default());
        // One answered request: the acceptor is back in accept().
        let loopback = SocketAddr::from(([127, 0, 0, 1], server.addr().port()));
        assert_eq!(get(loopback, "/health").expect("response").0, 200);
        let report = server
            .wait_timeout(Duration::from_secs(1))
            .unwrap_or_else(|| panic!("{addr}: run still blocked 1 s after the shutdown request"))
            .expect("run");
        assert_eq!(report.connections, 1, "{addr}: the waker was counted");
        assert_eq!(report.shed, 0, "{addr}: the waker was shed");
    }
}

#[test]
fn shutdown_wake_is_invisible_to_counters_and_the_access_log() {
    // N requests; the last one is a /metrics scrape on a connection
    // accepted before the shutdown request and sent after it, so it
    // sees the counters once the waker's connection has been through
    // the acceptor.
    const N: u64 = 12;
    let (dir, _) = small_index("wake");
    let access_path = dir.join("access.jsonl");
    let server = serve(
        &dir,
        ServeConfig {
            threads: 2,
            access_log: Some(access_path.clone()),
            ..ServeConfig::default()
        },
    );
    let addr = server.addr();

    // The scrape's connection comes first: the requests answered
    // behind it (by the other worker) show the acceptor took it.
    let mut held = TcpStream::connect(addr).expect("connect");
    held.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    for i in 0..N - 1 {
        let path = if i % 2 == 0 {
            "/health"
        } else {
            "/containing/0"
        };
        assert_eq!(get(addr, path).expect("response").0, 200, "{path}");
    }
    server.drain();
    // Pacing: the waker connects on its 20 ms tick; this lands the
    // scrape after its connection went through the acceptor. Nothing
    // shows that moment without a connection of its own.
    std::thread::sleep(Duration::from_millis(300));
    write!(held, "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n").expect("send");
    let mut response = String::new();
    held.read_to_string(&mut response).expect("read");
    assert!(response.contains("200 OK"), "held scrape: {response:?}");

    let report = server.wait().expect("run");
    assert_eq!(report.connections, N);
    assert_eq!(report.requests, N);
    assert_eq!(report.shed, 0);
    for (metric, want) in [
        ("gsb_http_connections_total", N),
        ("gsb_http_responses_total{status=\"503\"}", 0),
        ("gsb_http_write_errors_total", 0),
        ("gsb_http_shed_total{cause=\"draining\"}", 0),
    ] {
        assert_eq!(sample(&response, metric), Some(want), "{metric}");
    }
    let access = std::fs::read_to_string(&access_path).expect("access log");
    assert_eq!(access.lines().count() as u64, N, "{access}");
}

#[test]
fn a_panicking_owner_leaves_no_listener_serving() {
    // The handle drains its server on drop, also while a panic unwinds
    // through the code that started it: the port refuses afterwards.
    let (_dir, index) = small_index("panic");
    let mut addr = None;
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let server = serve_on(index, "127.0.0.1:0", ServeConfig::default());
        addr = Some(server.addr());
        assert_eq!(get(server.addr(), "/health").expect("response").0, 200);
        panic!("the test body fails while its server runs");
    }));
    assert!(outcome.is_err(), "the closure was meant to panic");
    let addr = addr.expect("the server started");
    assert!(
        TcpStream::connect(addr).is_err(),
        "{addr} still accepts connections after its owner panicked"
    );
}
