//! Router chaos harness: seeded backend-fault schedules against a live
//! replicated tier, over real sockets.
//!
//! Each seed derives a deterministic per-replica fault assignment from
//! `SplitMix64` — every replica of a 2-shard × 2-replica tier is one
//! of:
//!
//! * **Live** — an ordinary in-process backend server on its shard;
//! * **LiveCorrupt** (every 4th seed, one replica) — live, but serving
//!   a byte-flipped copy of its shard: block quarantine degrades its
//!   answers exactly and the router must either pass the degradation
//!   through (counts) or fail over to the healthy twin (block reads);
//! * **Killed** — the port refuses connections;
//! * **Stalled** — accepts connections and never responds (the
//!   accept-then-hang pathology that eats naive clients);
//! * **Reset** — accepts and immediately closes (connection reset).
//!
//! Invariants held across all seeds:
//!
//! * the router never panics (`worker_panics == 0`, clean join) and
//!   *always* answers — a typed status for every request, never a
//!   silent drop;
//! * every answer is bounded by the request deadline plus scheduling
//!   slack, stalled backends notwithstanding;
//! * answers are **count-exact over the answered shards**: whenever a
//!   shard has a live replica it is answered exactly, and
//!   `missing_shards` only ever names shards with *no* live replica —
//!   degraded-exact, never silent truncation, never a degraded answer
//!   while every shard was servable;
//! * a whole tier down yields a typed 503 naming the missing shards,
//!   not a blind 500;
//! * faulty replicas end up ejected: their breaker gauge leaves
//!   CLOSED before any traffic (active probes alone detect them).
//!
//! Focused tests ride along: whole-shard-down degradation semantics,
//! circuit-breaker recovery after a killed replica restarts on the
//! same port, the two ways a hedge race ends (the hedge beats a slow
//! primary; a handed-off primary beats a stalled hedge), and the
//! deadline a backend is told (the try's budget).

mod support;

use gsb_core::{CliqueEnumerator, CollectSink, EnumConfig, Vertex};
use gsb_graph::generators::{planted, Module};
use gsb_index::{split_index, BuildOptions, CliqueIndex, Running, ServeConfig, ServeReport};
use gsb_index::{Router, RouterConfig, RouterReport, ShardSpec, ShardSummary, Topology};
use gsb_rng::SplitMix64;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU16, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use support::{build_index, copy_index, get, serve, serve_on, tmp, wait_until, TempDir};

const SEEDS: u64 = 48;
const REQUEST_DEADLINE: Duration = Duration::from_secs(2);
/// Client-observed latency bound: the budget plus generous scheduling
/// slack (loaded CI machines); the point is "bounded", not "fast".
const LATENCY_SLACK: Duration = Duration::from_secs(4);

/// Flip a byte near the tail of the clique store: the last block
/// quarantines on first read, counts stay exact (postings intact).
fn corrupt_tail(dir: &Path) {
    let store = dir.join("cliques.gsi");
    let mut bytes = std::fs::read(&store).expect("read store");
    let at = bytes.len() - 6;
    bytes[at] ^= 0x20;
    std::fs::write(&store, &bytes).expect("write corrupt store");
}

/// What one replica of the tier does this seed.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Kind {
    Live,
    LiveCorrupt,
    Killed,
    Stalled,
    Reset,
}

impl Kind {
    fn is_live(self) -> bool {
        matches!(self, Kind::Live | Kind::LiveCorrupt)
    }
}

/// Accept and hold (stall=true) or accept and drop (stall=false).
fn fault_listener(stall: bool) -> (SocketAddr, Arc<AtomicBool>, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fault listener");
    let addr = listener.local_addr().expect("addr");
    listener.set_nonblocking(true).expect("nonblocking");
    let stop = Arc::new(AtomicBool::new(false));
    let handle = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut held = Vec::new();
            while !stop.load(Ordering::Acquire) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        if stall {
                            held.push(stream); // hold open, never answer
                        } // else: drop immediately — reset/EOF
                    }
                    // Pacing: the fault listener's accept poll.
                    Err(_) => std::thread::sleep(Duration::from_millis(2)),
                }
            }
        })
    };
    (addr, stop, handle)
}

/// A port that refuses connections for the whole test binary. It lies
/// below the host's ephemeral range, so no port-0 bind (every backend,
/// router and fault listener here binds port 0) can be handed it, and
/// it is probed first, so nothing listens there. Every call gets a port
/// of its own.
fn dead_port() -> SocketAddr {
    static TAKEN: AtomicU16 = AtomicU16::new(0);
    let below = ephemeral_range_start();
    loop {
        let taken = TAKEN.fetch_add(1, Ordering::Relaxed);
        let port = below
            .checked_sub(1 + taken)
            .expect("no port left below the ephemeral range");
        let addr = SocketAddr::from(([127, 0, 0, 1], port));
        match TcpStream::connect_timeout(&addr, Duration::from_millis(200)) {
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionRefused => return addr,
            _ => continue, // something answers there: take the next port
        }
    }
}

/// The first port the kernel hands to port-0 binds: Linux's
/// `ip_local_port_range`, else the start of the IANA dynamic range.
fn ephemeral_range_start() -> u16 {
    std::fs::read_to_string("/proc/sys/net/ipv4/ip_local_port_range")
        .ok()
        .and_then(|range| range.split_whitespace().next()?.parse().ok())
        .unwrap_or(49152)
}

fn backend_config() -> ServeConfig {
    ServeConfig {
        threads: 2,
        deadline: Duration::from_secs(2),
        request_deadline: Duration::from_millis(1500),
        queue_limit: 64,
        ..ServeConfig::default()
    }
}

fn router_config() -> RouterConfig {
    RouterConfig {
        threads: 2,
        deadline: Duration::from_secs(2),
        request_deadline: REQUEST_DEADLINE,
        queue_limit: 64,
        probe_interval: Duration::from_millis(50),
        breaker_failures: 3,
        breaker_cooldown: Duration::from_millis(100),
        try_timeout: Duration::from_millis(250),
        ..RouterConfig::default()
    }
}

fn start_router(topology: Topology) -> Running<RouterReport> {
    Router::bind(topology, "127.0.0.1:0", router_config())
        .and_then(Router::start)
        .expect("start router")
}

/// Drain the router and return its report, checking that no worker
/// panicked.
fn join_router(router: Running<RouterReport>) -> RouterReport {
    let report = router.wait().expect("router run must not error");
    let parsed = gsb_telemetry::json::parse(&report.metrics_json).expect("metrics parse");
    assert_eq!(
        parsed.u64_or_zero("worker_panics"),
        0,
        "a router worker panicked under chaos"
    );
    report
}

/// The `gsb_router_backend_state` gauge for one backend address, read
/// off a `/metrics` Prometheus scrape. CLOSED=0, HALF_OPEN=1, OPEN=2.
fn breaker_gauge(promtext: &str, backend: &str) -> Option<u64> {
    let needle = format!("backend=\"{backend}\"");
    promtext
        .lines()
        .find(|l| l.starts_with("gsb_router_backend_state{") && l.contains(&needle))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
}

/// Scrape `/metrics` until the backend's breaker gauge satisfies
/// `ok`; fail naming `what` after 5 s.
fn wait_for_breaker(router: SocketAddr, backend: &str, ok: impl Fn(u64) -> bool, what: &str) {
    wait_until(what, Duration::from_secs(5), || {
        let (status, _, body) = get(router, "/metrics").expect("router response");
        assert_eq!(status, 200, "metrics scrape failed");
        breaker_gauge(&body, backend).is_some_and(&ok)
    });
}

/// Ground truth + golden shard directories shared by every seed.
struct Fixture {
    truth: Vec<Vec<Vertex>>,
    /// Holds the shard directories.
    _shards: TempDir,
    shards: Vec<ShardSummary>,
}

fn build_fixture(tag: &str) -> Fixture {
    let g = planted(60, 0.07, &[Module::clique(8), Module::clique(5)], 23);
    let golden = tmp(&format!("{tag}_golden"));
    let mut collect = CollectSink::default();
    CliqueEnumerator::new(EnumConfig::default()).enumerate(&g, &mut collect);
    build_index(&g, &golden, BuildOptions::default());
    let shards_dir = tmp(&format!("{tag}_shards"));
    let summaries = split_index(&golden, &shards_dir, 2).expect("split");
    Fixture {
        truth: collect.cliques,
        _shards: shards_dir,
        shards: summaries,
    }
}

impl Fixture {
    fn topology(&self, replicas: &[Vec<String>]) -> Topology {
        Topology {
            shards: self
                .shards
                .iter()
                .zip(replicas)
                .map(|(s, r)| ShardSpec::new(s, r.clone()))
                .collect(),
        }
    }

    fn dir(&self, shard: usize) -> &Path {
        &self.shards[shard].dir
    }

    fn shard_of(&self, id: u64) -> usize {
        self.shards
            .iter()
            .position(|s| id >= s.id_lo && id < s.id_hi)
            .expect("id owned by some shard")
    }

    /// Count cliques matching `pred` whose global id falls in an
    /// answered shard.
    fn count_over(&self, answered: &[bool], pred: impl Fn(&[Vertex]) -> bool) -> u64 {
        self.truth
            .iter()
            .enumerate()
            .filter(|(id, c)| answered[self.shard_of(*id as u64)] && pred(c))
            .count() as u64
    }
}

/// Which shards the router reports missing, from a 200 body; asserts
/// every named shard is truly dead and returns the answered mask.
fn answered_mask(body: &str, live: &[bool; 2], context: &str) -> [bool; 2] {
    let parsed = gsb_telemetry::json::parse(body).expect("parse router body");
    let mut answered = [true, true];
    for m in parsed.u64_array("missing_shards") {
        let m = m as usize;
        assert!(
            !live[m],
            "{context}: shard {m} reported missing but it has a live replica: {body}"
        );
        answered[m] = false;
    }
    for (s, alive) in live.iter().enumerate() {
        assert!(
            *alive || !answered[s],
            "{context}: dead shard {s} not reported missing: {body}"
        );
    }
    answered
}

#[test]
fn seeded_backend_faults_never_panic_and_answers_stay_exact() {
    let fx = build_fixture("seeds");
    let max_size = fx.truth.iter().map(Vec::len).max().unwrap();
    let gid0 = fx.shards[0].id_lo; // first clique of shard 0
    let gid1 = fx.shards[1].id_lo; // first clique of shard 1
    let (mut total_retries, mut total_hedges, mut total_degraded) = (0u64, 0u64, 0u64);

    for seed in 0..SEEDS {
        let mut rng = SplitMix64::new(seed ^ 0xC4A0_5C4A_05C4_A05C);
        // Live-biased draw so most shards keep a live replica (the
        // exact-under-failover path); the rest exercise degradation.
        let mut kinds = [[Kind::Live; 2]; 2];
        for shard in kinds.iter_mut() {
            for kind in shard.iter_mut() {
                *kind = match rng.below(8) {
                    0..=4 => Kind::Live,
                    5 => Kind::Killed,
                    6 => Kind::Stalled,
                    _ => Kind::Reset,
                };
            }
        }
        // Every 4th seed one replica serves corrupted bytes while the
        // tier also has whatever faults the draw above dealt.
        let corrupt_replica = (seed % 4 == 0).then(|| {
            let pick = rng.below(4);
            kinds[pick / 2][pick % 2] = Kind::LiveCorrupt;
            (pick / 2, pick % 2)
        });
        let live = [
            kinds[0].iter().any(|k| k.is_live()),
            kinds[1].iter().any(|k| k.is_live()),
        ];
        let corrupt_on = |shard: usize| corrupt_replica.is_some_and(|(s, _)| s == shard);

        // Assemble the tier.
        let mut servers: Vec<Running<ServeReport>> = Vec::new();
        let mut faults: Vec<(Arc<AtomicBool>, JoinHandle<()>)> = Vec::new();
        let mut corrupt_dirs: Vec<TempDir> = Vec::new();
        let mut replicas: Vec<Vec<String>> = vec![Vec::new(), Vec::new()];
        for (shard, shard_kinds) in kinds.iter().enumerate() {
            for (r, kind) in shard_kinds.iter().enumerate() {
                let addr = match kind {
                    Kind::Live => {
                        let server = serve(fx.dir(shard), backend_config());
                        let addr = server.addr();
                        servers.push(server);
                        addr
                    }
                    Kind::LiveCorrupt => {
                        let dir = tmp(&format!("seed{seed}_corrupt{shard}_{r}"));
                        copy_index(fx.dir(shard), &dir);
                        corrupt_tail(&dir);
                        let server = serve(&dir, backend_config());
                        let addr = server.addr();
                        servers.push(server);
                        corrupt_dirs.push(dir);
                        addr
                    }
                    Kind::Killed => dead_port(),
                    Kind::Stalled | Kind::Reset => {
                        let (addr, stop, handle) = fault_listener(*kind == Kind::Stalled);
                        faults.push((stop, handle));
                        addr
                    }
                };
                replicas[shard].push(addr.to_string());
            }
        }
        let tier = start_router(fx.topology(&replicas));
        let router = tier.addr();

        // Ejection: every dead replica's breaker leaves CLOSED before
        // any traffic (active probes alone find them), so most requests
        // of the workload fail over instantly.
        for (shard, shard_kinds) in kinds.iter().enumerate() {
            for (r, kind) in shard_kinds.iter().enumerate() {
                if !kind.is_live() {
                    wait_for_breaker(
                        router,
                        &replicas[shard][r],
                        |g| g != 0,
                        &format!("seed {seed}: the dead {kind:?} replica {shard}/{r} is ejected"),
                    );
                }
            }
        }

        // Mixed workload; every answer typed, bounded, and exact over
        // the shards it claims to have answered.
        for round in 0..14u32 {
            let v = (seed as u32 * 7 + round * 3) % 60;
            let w = (seed as u32 * 11 + round * 5) % 60;
            let path = match round % 7 {
                0 => "/health".to_string(),
                1 => format!("/containing/{v}"),
                2 => "/max".to_string(),
                3 => format!("/overlap/{v}/{w}"),
                4 => "/stats".to_string(),
                5 => format!("/get/{}", if round % 2 == 1 { gid1 } else { gid0 }),
                _ => "/size/1/64".to_string(),
            };
            let started = Instant::now();
            let (status, head, body) = get(router, &path).expect("router response");
            assert!(
                started.elapsed() < REQUEST_DEADLINE + LATENCY_SLACK,
                "seed {seed} round {round} ({path}): {:?} exceeds deadline budget",
                started.elapsed()
            );
            let ctx = format!("seed {seed} round {round} ({path})");
            match round % 7 {
                0 => assert_eq!(status, 200, "{ctx}: health must always answer ok"),
                1 | 3 => {
                    // Scatter queries: 503 only with the whole tier
                    // down; 200 answers are count-exact over the
                    // answered shards and degradation is explicit.
                    if status == 503 {
                        assert!(
                            !live[0] && !live[1],
                            "{ctx}: 503 while a shard had a live replica: {body}"
                        );
                        assert!(
                            body.contains("missing_shards"),
                            "{ctx}: untyped 503: {body}"
                        );
                        continue;
                    }
                    assert_eq!(status, 200, "{ctx}: {body}");
                    let answered = answered_mask(&body, &live, &ctx);
                    let expected = if round % 7 == 1 {
                        fx.count_over(&answered, |c| c.contains(&v))
                    } else {
                        fx.count_over(&answered, |c| c.contains(&v) && c.contains(&w))
                    };
                    assert!(
                        body.contains(&format!("\"count\":{expected}")),
                        "{ctx}: count drifted (want {expected}): {body}"
                    );
                    if body.contains("missing_shards") || body.contains("\"degraded\":") {
                        assert!(
                            head.contains("X-Gsb-Degraded:"),
                            "{ctx}: degraded body without header marker: {head}"
                        );
                    } else {
                        assert!(
                            !head.contains("X-Gsb-Degraded:"),
                            "{ctx}: degraded header on a clean answer"
                        );
                    }
                }
                2 => {
                    // /max routes to the last shard. A corrupt replica
                    // 500s on the quarantined tail block; with a
                    // healthy twin the router fails over, without one
                    // the shard is unanswerable (typed 503).
                    if live[1] && !corrupt_on(1) {
                        assert_eq!(status, 200, "{ctx}: {body}");
                        assert!(
                            body.contains(&format!("\"size\":{max_size}")),
                            "{ctx}: {body}"
                        );
                    } else if !live[1] {
                        assert_eq!(status, 503, "{ctx}: {body}");
                        assert!(
                            body.contains("missing_shards"),
                            "{ctx}: untyped 503: {body}"
                        );
                    } else {
                        assert!(
                            status == 503
                                || (status == 200
                                    && body.contains(&format!("\"size\":{max_size}"))),
                            "{ctx}: {status} {body}"
                        );
                    }
                }
                4 => {
                    if status == 503 {
                        assert!(!live[0] && !live[1], "{ctx}: {body}");
                        continue;
                    }
                    assert_eq!(status, 200, "{ctx}: {body}");
                    let answered = answered_mask(&body, &live, &ctx);
                    let expected: u64 = fx
                        .shards
                        .iter()
                        .enumerate()
                        .filter(|(s, _)| answered[*s])
                        .map(|(_, s)| s.id_hi - s.id_lo)
                        .sum();
                    assert!(
                        body.contains(&format!("\"cliques\":{expected}")),
                        "{ctx}: clique total drifted (want {expected}): {body}"
                    );
                }
                5 => {
                    let gid = if round % 2 == 1 { gid1 } else { gid0 };
                    let owner = fx.shard_of(gid);
                    let exact = format!("\"id\":{gid},\"size\":{}", fx.truth[gid as usize].len());
                    if live[owner] && !corrupt_on(owner) {
                        assert_eq!(status, 200, "{ctx}: {body}");
                        assert!(body.contains(&exact), "{ctx}: wrong clique: {body}");
                    } else if !live[owner] {
                        assert_eq!(status, 503, "{ctx}: {body}");
                        assert!(
                            body.contains("missing_shards"),
                            "{ctx}: untyped 503: {body}"
                        );
                    } else {
                        // Corrupt replica on the owner shard: exact via
                        // the healthy twin, or typed 503 if the twin is
                        // dead and only corrupted bytes remain.
                        assert!(
                            status == 503 || (status == 200 && body.contains(&exact)),
                            "{ctx}: {status} {body}"
                        );
                    }
                }
                _ => {
                    if live[0] && live[1] {
                        assert_eq!(status, 200, "{ctx}: {body}");
                        assert!(
                            !body.contains("missing_shards"),
                            "{ctx}: degraded while fully live: {body}"
                        );
                        assert!(
                            body.contains(&format!("\"count\":{}", fx.truth.len())),
                            "{ctx}: size sweep count drifted: {body}"
                        );
                    } else {
                        assert!(matches!(status, 200 | 503), "{ctx}: {status} {body}");
                    }
                }
            }
        }

        let report = join_router(tier);
        assert!(report.requests >= 14, "seed {seed}: requests went missing");
        total_retries += report.retries;
        total_hedges += report.hedges;
        total_degraded += report.degraded_answers;

        for (stop, handle) in faults {
            stop.store(true, Ordering::Release);
            handle.join().expect("fault listener join");
        }
        for server in servers {
            server.wait().expect("backend run");
        }
    }

    // Across 48 seeds the fault mix must have exercised the recovery
    // machinery itself, not just the happy path.
    assert!(
        total_retries + total_hedges > 0,
        "no retry or hedge fired across any seed"
    );
    assert!(total_degraded > 0, "no degraded answer across any seed");
}

#[test]
fn whole_shard_down_degrades_exactly_with_typed_answers() {
    let fx = build_fixture("sharddown");
    let backends = [0, 0].map(|shard| serve(fx.dir(shard), backend_config()));
    let replicas = vec![
        backends.iter().map(|b| b.addr().to_string()).collect(),
        vec![dead_port().to_string(), dead_port().to_string()],
    ];
    let tier = start_router(fx.topology(&replicas));
    let router = tier.addr();
    for dead in &replicas[1] {
        wait_for_breaker(router, dead, |g| g == 2, "the dead shard's breakers open");
    }

    // Scatter: 200, explicitly degraded, exact over shard 0.
    let v = fx.truth[0][0];
    let (status, head, body) = get(router, &format!("/containing/{v}")).expect("router response");
    assert_eq!(status, 200, "{body}");
    assert!(
        head.contains("X-Gsb-Degraded:"),
        "no degraded marker: {head}"
    );
    assert!(body.contains("\"missing_shards\":[1]"), "{body}");
    let expected = fx.count_over(&[true, false], |c| c.contains(&v));
    assert!(body.contains(&format!("\"count\":{expected}")), "{body}");

    // Point reads on the dead shard: typed 503 naming it; the live
    // shard keeps answering exactly.
    let gid1 = fx.shards[1].id_lo;
    let (status, _, body) = get(router, &format!("/get/{gid1}")).expect("router response");
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("\"missing_shards\":[1]"), "{body}");
    let (status, _, body) = get(router, "/max").expect("router response");
    assert_eq!(status, 503, "max lives on the dead shard: {body}");
    let (status, _, body) = get(router, "/get/0").expect("router response");
    assert_eq!(status, 200, "{body}");
    assert!(
        body.contains(&format!("\"id\":0,\"size\":{}", fx.truth[0].len())),
        "{body}"
    );

    // /health stays green (the router is fine), /ready goes red (the
    // tier is not fully servable) — the load-balancer-facing split.
    let (status, _, _) = get(router, "/health").expect("router response");
    assert_eq!(status, 200);
    let (status, _, body) = get(router, "/ready").expect("router response");
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("\"live_shards\":1"), "{body}");

    let report = join_router(tier);
    assert!(report.degraded_answers > 0, "degradation not counted");
    for backend in backends {
        backend.wait().expect("backend run");
    }
}

#[test]
fn breaker_reopens_then_recloses_after_replica_restart() {
    let fx = build_fixture("recovery");
    let server_a = serve(fx.dir(0), backend_config());
    let server_b = serve(fx.dir(0), backend_config());
    let server_1 = serve(fx.dir(1), backend_config());
    let addr_a = server_a.addr();
    let replicas = vec![
        vec![addr_a.to_string(), server_b.addr().to_string()],
        vec![server_1.addr().to_string()],
    ];
    let tier = start_router(fx.topology(&replicas));
    let router = tier.addr();

    let v = fx.truth[fx.truth.len() - 1][0]; // vertex of the max clique
    let expected = fx.count_over(&[true, true], |c| c.contains(&v));
    let exact = |label: &str| {
        let (status, head, body) =
            get(router, &format!("/containing/{v}")).expect("router response");
        assert_eq!(status, 200, "{label}: {body}");
        assert!(
            body.contains(&format!("\"count\":{expected}")),
            "{label}: count drifted: {body}"
        );
        assert!(
            !head.contains("X-Gsb-Degraded:"),
            "{label}: degraded while shard 0 had a live replica"
        );
    };
    let a = addr_a.to_string();
    wait_for_breaker(router, &a, |g| g == 0, "replica A reports healthy");
    exact("before kill");

    // Kill replica A: probes must open its breaker, answers must stay
    // exact and non-degraded through replica B.
    server_a.wait().expect("run A");
    wait_for_breaker(router, &a, |g| g == 2, "the killed replica's breaker opens");
    for _ in 0..5 {
        exact("after kill");
    }

    // Restart on the same port (std listeners set SO_REUSEADDR): the
    // next successful probe must re-close the breaker.
    let index = Arc::new(CliqueIndex::open(fx.dir(0)).expect("open shard index"));
    let server_a2 = serve_on(index, &a, backend_config());
    assert_eq!(
        server_a2.addr(),
        addr_a,
        "restart must reuse the original address"
    );
    wait_for_breaker(
        router,
        &a,
        |g| g == 0,
        "the restarted replica's breaker re-closes",
    );
    exact("after restart");

    let report = join_router(tier);
    assert_eq!(report.degraded_answers, 0, "failover leaked degradation");
    for server in [server_a2, server_b, server_1] {
        server.wait().expect("backend run");
    }
}

#[test]
fn idle_router_returns_within_a_second_of_shutdown() {
    // The router's acceptor blocks in accept() like the server's; the
    // shutdown waker must return it on a loopback or wildcard listener.
    for addr in ["127.0.0.1:0", "0.0.0.0:0"] {
        let topology = Topology {
            shards: vec![ShardSpec {
                id_lo: 0,
                id_hi: 1,
                size_lo: 1,
                size_hi: 1,
                replicas: vec![dead_port().to_string()],
            }],
        };
        let router = Router::bind(topology, addr, router_config())
            .and_then(Router::start)
            .expect("start router");
        // One answered request: the acceptor is back in accept().
        let loopback = SocketAddr::from(([127, 0, 0, 1], router.addr().port()));
        assert_eq!(get(loopback, "/health").expect("response").0, 200);
        let report = router
            .wait_timeout(Duration::from_secs(1))
            .unwrap_or_else(|| panic!("{addr}: run still blocked 1 s after the shutdown request"))
            .expect("router run");
        assert_eq!(report.connections, 1, "{addr}: the waker was counted");
        assert_eq!(report.shed, 0, "{addr}: the waker was shed");
    }
}

#[test]
fn shutdown_wake_is_invisible_to_router_counters() {
    // N requests through a live tier; the last is a /metrics scrape on
    // a connection accepted before the shutdown request and sent after
    // it, so it sees the counters once the waker's connection has been
    // through the acceptor.
    const N: u64 = 10;
    let fx = build_fixture("wake");
    let backends = [0, 1].map(|shard| serve(fx.dir(shard), backend_config()));
    let replicas: Vec<Vec<String>> = backends
        .iter()
        .map(|b| vec![b.addr().to_string()])
        .collect();
    let tier = start_router(fx.topology(&replicas));
    let router = tier.addr();
    let v = fx.truth[0][0];
    // The scrape's connection comes first: the requests answered
    // behind it (by the other worker) show the acceptor took it.
    let mut held = TcpStream::connect(router).expect("connect");
    held.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    for i in 0..N - 1 {
        let path = match i % 3 {
            0 => "/health".to_string(),
            1 => format!("/containing/{v}"),
            _ => "/stats".to_string(),
        };
        let (status, _, body) = get(router, &path).expect("router response");
        assert_eq!(status, 200, "{path}: {body}");
    }
    tier.drain();
    // Pacing: the waker connects on its 20 ms tick; this lands the
    // scrape after its connection went through the acceptor. Nothing
    // shows that moment without a connection of its own.
    std::thread::sleep(Duration::from_millis(300));
    write!(held, "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n").expect("send");
    let mut response = String::new();
    held.read_to_string(&mut response).expect("read");
    assert!(response.contains("200 OK"), "held scrape: {response:?}");

    let report = join_router(tier);
    assert_eq!(report.connections, N);
    assert_eq!(report.requests, N);
    assert_eq!(report.shed, 0);
    let sample = |name: &str| -> Option<u64> {
        response
            .lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
    };
    for (metric, want) in [
        ("gsb_router_connections_total", N),
        ("gsb_router_responses_total{status=\"503\"}", 0),
        ("gsb_router_write_errors_total", 0),
        ("gsb_router_shed_requests_total", 0),
    ] {
        assert_eq!(sample(metric), Some(want), "{metric}");
    }
    for backend in backends {
        backend.wait().expect("backend run");
    }
}

/// A scripted replica: answers `GET /ready` at once and every other GET
/// with `body` after `delay`, or never (holding the connection open)
/// when `delay` is `None`. Records the head of every such query.
struct Scripted {
    addr: SocketAddr,
    heads: Arc<Mutex<Vec<String>>>,
    stop: Arc<AtomicBool>,
    handle: JoinHandle<()>,
}

fn respond(stream: &mut TcpStream, body: &str) {
    let _ = write!(
        stream,
        "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
}

fn scripted_backend(delay: Option<Duration>, body: &'static str) -> Scripted {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind scripted replica");
    let addr = listener.local_addr().expect("addr");
    listener.set_nonblocking(true).expect("nonblocking");
    let stop = Arc::new(AtomicBool::new(false));
    let heads = Arc::new(Mutex::new(Vec::new()));
    let handle = {
        let (stop, heads) = (Arc::clone(&stop), Arc::clone(&heads));
        std::thread::spawn(move || {
            let mut held = Vec::new();
            while !stop.load(Ordering::Acquire) {
                let Ok((mut stream, _)) = listener.accept() else {
                    // Pacing: the scripted replica's accept poll.
                    std::thread::sleep(Duration::from_millis(2));
                    continue;
                };
                stream.set_nonblocking(false).expect("blocking stream");
                stream
                    .set_read_timeout(Some(Duration::from_secs(2)))
                    .expect("read timeout");
                let mut head = Vec::new();
                let mut byte = [0u8; 1];
                while !head.ends_with(b"\r\n\r\n") && stream.read(&mut byte).unwrap_or(0) == 1 {
                    head.push(byte[0]);
                }
                let head = String::from_utf8_lossy(&head).into_owned();
                if head.starts_with("GET /ready ") {
                    respond(&mut stream, "{\"ready\":true}");
                    continue;
                }
                heads.lock().expect("heads lock").push(head);
                match delay {
                    None => held.push(stream),
                    Some(delay) => {
                        std::thread::spawn(move || {
                            // Pacing: the scripted answer's delay.
                            std::thread::sleep(delay);
                            respond(&mut stream, body);
                        });
                    }
                }
            }
        })
    };
    Scripted {
        addr,
        heads,
        stop,
        handle,
    }
}

impl Scripted {
    fn stop(self) {
        self.stop.store(true, Ordering::Release);
        self.handle.join().expect("scripted replica join");
    }
}

/// One shard of one clique whose replicas are `replicas`.
fn one_shard(replicas: &[SocketAddr]) -> Topology {
    Topology {
        shards: vec![ShardSpec {
            id_lo: 0,
            id_hi: 1,
            size_lo: 1,
            size_hi: 9,
            replicas: replicas.iter().map(SocketAddr::to_string).collect(),
        }],
    }
}

#[test]
fn hedge_wins_over_a_slow_primary() {
    // The first routed try goes to the shard's first replica: it answers
    // only after 300 ms, so past the 20 ms hedge delay the healthy twin
    // is asked too, and its exact answer comes back first.
    let fx = build_fixture("hedgewin");
    let slow = scripted_backend(Some(Duration::from_millis(300)), "{\"size\":0}");
    let twin = serve(fx.dir(1), backend_config());
    let direct = serve(fx.dir(1), backend_config());
    let tier = start_router(one_shard(&[slow.addr, twin.addr()]));

    let started = Instant::now();
    let (status, _, body) = get(tier.addr(), "/max").expect("router response");
    let took = started.elapsed();
    assert_eq!(status, 200, "{body}");
    assert_eq!(
        body,
        get(direct.addr(), "/max").expect("direct response").2,
        "the hedged answer is not exact"
    );
    assert!(
        took < Duration::from_millis(200),
        "the hedge did not answer before the slow primary: {took:?}"
    );

    let report = join_router(tier);
    assert_eq!((report.hedges, report.hedge_wins), (1, 1));
    slow.stop();
    for backend in [twin, direct] {
        backend.wait().expect("backend run");
    }
}

#[test]
fn handed_off_primary_wins_over_a_stalled_hedge() {
    // The primary answers after the hedge delay; the hedge candidate
    // never answers. The primary's try, handed off to a reused thread
    // when the hedge fired, still delivers the answer.
    const PRIMARY: &str = "{\"id\":0,\"size\":3,\"clique\":[1,2,3],\"from\":\"primary\"}";
    let primary = scripted_backend(Some(Duration::from_millis(100)), PRIMARY);
    let stalled = scripted_backend(None, "{}");
    let tier = start_router(one_shard(&[primary.addr, stalled.addr]));

    let (status, _, body) = get(tier.addr(), "/max").expect("router response");
    assert_eq!((status, body.as_str()), (200, PRIMARY));
    let report = join_router(tier);
    assert_eq!((report.hedges, report.hedge_wins), (1, 0));
    assert_eq!(
        stalled.heads.lock().expect("heads lock").len(),
        1,
        "the hedge try never reached the stalled replica"
    );
    primary.stop();
    stalled.stop();
}

#[test]
fn backends_are_told_the_try_budget_not_the_request_budget() {
    let replica = scripted_backend(Some(Duration::ZERO), "{\"size\":0}");
    let tier = start_router(one_shard(&[replica.addr]));
    let (status, _, body) = get(tier.addr(), "/max").expect("router response");
    assert_eq!(status, 200, "{body}");
    join_router(tier);

    let heads = replica.heads.lock().expect("heads lock").clone();
    let try_timeout_ms = router_config().try_timeout.as_millis() as u64;
    assert!(REQUEST_DEADLINE.as_millis() as u64 > try_timeout_ms);
    let sent: u64 = heads[0]
        .lines()
        .find_map(|l| l.strip_prefix("X-Gsb-Deadline-Ms: "))
        .unwrap_or_else(|| panic!("no deadline header in {:?}", heads[0]))
        .parse()
        .expect("numeric deadline header");
    assert!(
        (1..=try_timeout_ms).contains(&sent),
        "X-Gsb-Deadline-Ms {sent} exceeds the {try_timeout_ms} ms try budget"
    );
    replica.stop();
}
