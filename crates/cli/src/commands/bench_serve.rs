//! `gsb bench-serve` — closed-loop load generator for the query server.
//!
//! Self-contained: generates a planted-module graph, builds a
//! throwaway index, starts an in-process [`Server`], and drives it
//! with closed-loop client threads through a real socket. Two
//! scenarios run back to back:
//!
//! * **steady** — a modest client pool against a generously
//!   provisioned server: the happy-path QPS/latency baseline.
//! * **overload** — a larger pool against a deliberately tiny
//!   admission queue and per-endpoint rate limit: what matters here is
//!   that the server *sheds typed* (429/503 with `Retry-After`)
//!   instead of stretching latency, and that accepted requests stay
//!   fast.
//! * **scrape** (with `--scrape`) — the steady load again, but with
//!   the access log + slow-query log on and dedicated clients
//!   hammering `/metrics` and `/metrics-json`: measures what the
//!   observability stack costs (query p99 vs. the bare steady run)
//!   and that scrapes stay 200 under load.
//! * **router_steady / router_failover** (with `--router`) — the same
//!   query mix against a `gsb router` fronting 2 shards × 2 replicas
//!   (split with [`split_index`], every backend an in-process
//!   [`Server`]). The steady run baselines the routed path; the
//!   failover run kills one replica mid-load and commits what the tier
//!   did about it — failover latency percentiles, retry/hedge counts,
//!   and that answers stayed exact (zero degraded) because the shard's
//!   second replica survived. The command fails if either run saw a
//!   client error or a degraded answer, or if the steady run shed.
//!
//! Results (QPS, latency percentiles, shed rate) are committed to a
//! JSON file (default `results/BENCH_serve.json`) whose *schema* is
//! diffed in CI — values are hardware-dependent, the shape is not.

use crate::args::Args;
use crate::CliError;
use gsb_core::{CliqueEnumerator, EnumConfig, ShutdownToken};
use gsb_graph::generators::{planted, Module};
use gsb_index::{
    split_index, CliqueIndex, IndexWriter, Router, RouterConfig, ServeConfig, ServeReport, Server,
    ShardSpec, Topology,
};
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `gsb bench-serve`
pub fn bench_serve(argv: &[String]) -> Result<String, CliError> {
    let a = Args::parse(argv, &["out", "seed"], &["smoke", "scrape", "router"], 0)?;
    let out_path = PathBuf::from(a.flag("out").unwrap_or("results/BENCH_serve.json"));
    let seed: u64 = a.flag_or("seed", 13)?;
    let smoke = a.switch("smoke");
    let with_scrape = a.switch("scrape");
    let with_router = a.switch("router");

    // A graph big enough for non-trivial postings, small enough that
    // the bench is self-contained and fast.
    let (n, duration) = if smoke {
        (60, Duration::from_millis(300))
    } else {
        (200, Duration::from_secs(2))
    };
    let g = planted(n, 0.06, &[Module::clique(9), Module::clique(6)], seed);
    let dir = std::env::temp_dir().join(format!("gsb-bench-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let enumerator = CliqueEnumerator::new(EnumConfig::default());
    let mut writer = IndexWriter::create(&dir, g.n()).map_err(CliError::Store)?;
    enumerator.enumerate(&g, &mut writer);
    writer.finish().map_err(CliError::Store)?;

    let steady = run_scenario(
        &dir,
        ServeConfig {
            threads: 4,
            queue_limit: 256,
            rate_limit: None,
            ..ServeConfig::default()
        },
        4,
        0,
        duration,
        n as u32,
    )?;
    let overload = run_scenario(
        &dir,
        ServeConfig {
            threads: 2,
            queue_limit: 4,
            rate_limit: Some(if smoke { 400.0 } else { 800.0 }),
            rate_burst: 16,
            request_deadline: Duration::from_millis(1500),
            ..ServeConfig::default()
        },
        16,
        0,
        duration,
        n as u32,
    )?;
    // The scrape scenario repeats the steady query load with the full
    // observability stack on — access log, slow-query log, and a pool
    // of clients hammering /metrics + /metrics-json concurrently — so
    // the committed JSON records what watching the server costs.
    let scrape = if with_scrape {
        let access = dir.join("bench-access.jsonl");
        let s = run_scenario(
            &dir,
            ServeConfig {
                threads: 4,
                queue_limit: 256,
                rate_limit: None,
                access_log: Some(access.clone()),
                slow_query_ms: Some(250),
                ..ServeConfig::default()
            },
            4,
            2,
            duration,
            n as u32,
        )?;
        Some(s)
    } else {
        None
    };
    let router_runs = if with_router {
        let shards_dir = dir.join("shards");
        let summaries = split_index(&dir, &shards_dir, 2).map_err(CliError::Store)?;
        let steady = run_router_scenario(&summaries, 4, duration, n as u32, false)?;
        let failover = run_router_scenario(&summaries, 4, duration, n as u32, true)?;
        Some((steady, failover))
    } else {
        None
    };
    let _ = std::fs::remove_dir_all(&dir);

    let scrape_json = match &scrape {
        Some(s) => {
            // p99 under scrape+logging load relative to the bare steady
            // run: the acceptance gate is "observability costs <5%".
            let regression = s.p99_us as f64 / steady.p99_us.max(1) as f64;
            format!(
                ",\n    \"scrape\": {}",
                s.to_json_with(&format!("\"p99_vs_steady\":{regression:.4}"))
            )
        }
        None => String::new(),
    };
    let router_json = match &router_runs {
        Some((rs, rf)) => format!(
            ",\n    \"router_steady\": {},\n    \"router_failover\": {}",
            rs.to_json(),
            rf.to_json()
        ),
        None => String::new(),
    };
    let json = format!(
        "{{\n  \"bench\": \"gsb_bench_serve\",\n  \"smoke\": {smoke},\n  \"seed\": {seed},\n  \"scenarios\": {{\n    \"steady\": {},\n    \"overload\": {}{}{}\n  }}\n}}\n",
        steady.to_json(),
        overload.to_json(),
        scrape_json,
        router_json,
    );
    if let Some(parent) = out_path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(&out_path, &json)?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "bench-serve ({})",
        if smoke { "smoke" } else { "full" }
    );
    let mut scenarios = vec![("steady", &steady), ("overload", &overload)];
    if let Some(s) = &scrape {
        scenarios.push(("scrape", s));
    }
    for (name, s) in scenarios {
        let _ = writeln!(
            out,
            "  {name}: {} requests, {:.0} qps, p50 {}us p95 {}us p99 {}us, ok {}, rate-limited {}, shed {} ({:.1}% shed rate)",
            s.requests,
            s.qps,
            s.p50_us,
            s.p95_us,
            s.p99_us,
            s.ok,
            s.rate_limited,
            s.shed,
            100.0 * s.shed_rate,
        );
        if s.scrape_requests > 0 {
            let _ = writeln!(
                out,
                "          /metrics scrapes: {} ({} ok), p50 {}us p99 {}us; query p99 {:.2}x steady",
                s.scrape_requests,
                s.scrape_ok,
                s.scrape_p50_us,
                s.scrape_p99_us,
                s.p99_us as f64 / steady.p99_us.max(1) as f64,
            );
        }
    }
    if let Some((rs, rf)) = &router_runs {
        for (name, s) in [("router_steady", rs), ("router_failover", rf)] {
            let _ = writeln!(
                out,
                "  {name}: {} requests, {:.0} qps, p50 {}us p95 {}us p99 {}us, ok {}, degraded {}, errors {}; retries {}, hedges {} ({} wins)",
                s.requests,
                s.qps,
                s.p50_us,
                s.p95_us,
                s.p99_us,
                s.ok,
                s.degraded_ok,
                s.errors,
                s.retries,
                s.hedges,
                s.hedge_wins,
            );
        }
    }
    let _ = writeln!(out, "results written to {}", out_path.display());
    if let Some((rs, rf)) = &router_runs {
        router_claims(rs, rf).map_err(CliError::Runtime)?;
    }
    Ok(out)
}

/// What the routed scenarios claim: every answer of both runs exact
/// (no client error, no degraded answer, even with a replica killed),
/// and nothing shed by the healthy tier.
fn router_claims(steady: &RouterScenario, failover: &RouterScenario) -> Result<(), String> {
    let mut broken = Vec::new();
    for (name, s) in [("router_steady", steady), ("router_failover", failover)] {
        if s.errors > 0 {
            broken.push(format!("{name}: {} client errors", s.errors));
        }
        if s.degraded_ok > 0 || s.degraded_answers > 0 {
            broken.push(format!(
                "{name}: {} degraded answers seen by clients, {} counted by the router",
                s.degraded_ok, s.degraded_answers
            ));
        }
    }
    if steady.shed > 0 {
        broken.push(format!("router_steady: {} requests shed", steady.shed));
    }
    if broken.is_empty() {
        Ok(())
    } else {
        Err(format!("bench-serve --router: {}", broken.join("; ")))
    }
}

/// Aggregated outcome of one routed-tier scenario.
struct RouterScenario {
    clients: usize,
    requests: u64,
    ok: u64,
    degraded_ok: u64,
    shed: u64,
    errors: u64,
    qps: f64,
    p50_us: u64,
    p95_us: u64,
    p99_us: u64,
    max_us: u64,
    killed_replica: bool,
    retries: u64,
    hedges: u64,
    hedge_wins: u64,
    degraded_answers: u64,
    router_requests: u64,
}

impl RouterScenario {
    fn to_json(&self) -> String {
        format!(
            "{{\"clients\":{},\"requests\":{},\"ok\":{},\"degraded_ok\":{},\"shed\":{},\"errors\":{},\"qps\":{:.2},\"p50_us\":{},\"p95_us\":{},\"p99_us\":{},\"max_us\":{},\"killed_replica\":{},\"retries\":{},\"hedges\":{},\"hedge_wins\":{},\"degraded_answers\":{},\"router_requests\":{}}}",
            self.clients,
            self.requests,
            self.ok,
            self.degraded_ok,
            self.shed,
            self.errors,
            self.qps,
            self.p50_us,
            self.p95_us,
            self.p99_us,
            self.max_us,
            self.killed_replica,
            self.retries,
            self.hedges,
            self.hedge_wins,
            self.degraded_answers,
            self.router_requests,
        )
    }
}

/// Start a 2-shards × 2-replicas tier plus a router in-process, drive
/// the usual query mix through the router, and (for the failover run)
/// gracefully kill one replica of shard 0 halfway through — the tier
/// must keep answering exactly through the surviving replica.
fn run_router_scenario(
    summaries: &[gsb_index::ShardSummary],
    clients: usize,
    duration: Duration,
    n: u32,
    kill_one: bool,
) -> Result<RouterScenario, CliError> {
    const REPLICAS: usize = 2;
    let mut backends = Vec::new(); // (shutdown, join handle)
    let mut shards = Vec::new();
    for s in summaries {
        let index = Arc::new(CliqueIndex::open(&s.dir).map_err(CliError::Store)?);
        let mut replicas = Vec::new();
        for _ in 0..REPLICAS {
            let server = Server::bind(
                Arc::clone(&index),
                "127.0.0.1:0",
                ServeConfig {
                    threads: 2,
                    queue_limit: 256,
                    ..ServeConfig::default()
                },
            )?;
            replicas.push(server.local_addr()?.to_string());
            let shutdown = ShutdownToken::new();
            let handle = {
                let shutdown = shutdown.clone();
                std::thread::spawn(move || server.run(&shutdown))
            };
            backends.push((shutdown, handle));
        }
        shards.push(ShardSpec {
            id_lo: s.id_lo,
            id_hi: s.id_hi,
            size_lo: s.size_lo,
            size_hi: s.size_hi,
            replicas,
        });
    }
    let router = Router::bind(
        Topology { shards },
        "127.0.0.1:0",
        RouterConfig {
            threads: 4,
            request_deadline: Duration::from_secs(2),
            try_timeout: Duration::from_millis(400),
            probe_interval: Duration::from_millis(50),
            breaker_cooldown: Duration::from_millis(200),
            ..RouterConfig::default()
        },
    )?;
    let addr = router.local_addr()?;
    let router_shutdown = ShutdownToken::new();
    let router_thread = {
        let shutdown = router_shutdown.clone();
        std::thread::spawn(move || router.run(&shutdown))
    };

    let stop = Arc::new(AtomicBool::new(false));
    let started = Instant::now();
    let workers: Vec<_> = (0..clients)
        .map(|c| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || router_client_loop(addr, c as u32, n, &stop))
        })
        .collect();
    if kill_one {
        // Halfway through, one replica of shard 0 goes away; the load
        // keeps running so the percentiles include the failover.
        std::thread::sleep(duration / 2);
        backends[0].0.request(15);
        std::thread::sleep(duration / 2);
    } else {
        std::thread::sleep(duration);
    }
    stop.store(true, Ordering::Release);

    let mut requests = 0u64;
    let mut ok = 0u64;
    let mut degraded_ok = 0u64;
    let mut shed = 0u64;
    let mut errors = 0u64;
    let mut latencies: Vec<u64> = Vec::new();
    for w in workers {
        let c = w
            .join()
            .map_err(|_| CliError::Runtime("bench-serve router client panicked".into()))?;
        requests += c.requests;
        ok += c.ok;
        degraded_ok += c.rate_limited; // router clients tally degraded here
        shed += c.shed;
        errors += c.errors;
        latencies.extend(c.ok_latencies_us);
    }
    let wall = started.elapsed();
    router_shutdown.request(15);
    let report = router_thread
        .join()
        .map_err(|_| CliError::Runtime("bench-serve router thread panicked".into()))??;
    for (shutdown, handle) in backends {
        shutdown.request(15);
        let _ = handle
            .join()
            .map_err(|_| CliError::Runtime("bench-serve backend thread panicked".into()))?;
    }

    latencies.sort_unstable();
    Ok(RouterScenario {
        clients,
        requests,
        ok,
        degraded_ok,
        shed,
        errors,
        qps: ok as f64 / wall.as_secs_f64().max(1e-9),
        p50_us: pct(&latencies, 0.50),
        p95_us: pct(&latencies, 0.95),
        p99_us: pct(&latencies, 0.99),
        max_us: latencies.last().copied().unwrap_or(0),
        killed_replica: kill_one,
        retries: report.retries,
        hedges: report.hedges,
        hedge_wins: report.hedge_wins,
        degraded_answers: report.degraded_answers,
        router_requests: report.requests,
    })
}

/// The steady query mix through the router, with degraded detection:
/// a 200 whose headers carry `X-Gsb-Degraded` is tallied separately
/// (in the `rate_limited` slot, unused on the routed path) so the
/// failover scenario can prove answers stayed exact.
fn router_client_loop(
    addr: SocketAddr,
    client_id: u32,
    n: u32,
    stop: &AtomicBool,
) -> ClientOutcome {
    let mut out = ClientOutcome {
        requests: 0,
        ok: 0,
        rate_limited: 0,
        shed: 0,
        errors: 0,
        ok_latencies_us: Vec::new(),
    };
    let mut round = 0u32;
    while !stop.load(Ordering::Acquire) {
        let v = (client_id * 7 + round * 3) % n;
        let w = (client_id * 11 + round * 5) % n;
        let path = match round % 6 {
            0 => "/health".to_string(),
            1 => "/stats".to_string(),
            2 => "/max".to_string(),
            3 => format!("/containing/{v}"),
            4 => "/size/3/6?limit=8".to_string(),
            _ => format!("/overlap/{v}/{w}"),
        };
        round = round.wrapping_add(1);
        out.requests += 1;
        let begun = Instant::now();
        match get_response(addr, &path) {
            Ok((200, head)) => {
                if head.contains("X-Gsb-Degraded") {
                    out.rate_limited += 1;
                } else {
                    out.ok += 1;
                    out.ok_latencies_us.push(begun.elapsed().as_micros() as u64);
                }
            }
            Ok((503, _)) | Ok((408, _)) => out.shed += 1,
            Ok(_) => out.errors += 1,
            Err(_) => out.errors += 1,
        }
    }
    out
}

/// One blocking GET; returns the status and the raw response head.
fn get_response(addr: SocketAddr, path: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.set_nodelay(true)?;
    write!(stream, "GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n")?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let status = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::other("malformed status line"))?;
    let head = response
        .split_once("\r\n\r\n")
        .map(|(h, _)| h.to_string())
        .unwrap_or(response);
    Ok((status, head))
}

/// Aggregated outcome of one load scenario.
struct Scenario {
    clients: usize,
    requests: u64,
    ok: u64,
    rate_limited: u64,
    shed: u64,
    errors: u64,
    qps: f64,
    p50_us: u64,
    p95_us: u64,
    p99_us: u64,
    max_us: u64,
    shed_rate: f64,
    scrape_requests: u64,
    scrape_ok: u64,
    scrape_p50_us: u64,
    scrape_p99_us: u64,
    report: ServeReport,
}

impl Scenario {
    fn to_json(&self) -> String {
        self.to_json_with("")
    }

    /// Serialize, splicing `extra` (pre-rendered `"key":value` pairs)
    /// before the closing brace.
    fn to_json_with(&self, extra: &str) -> String {
        let mut json = format!(
            "{{\"clients\":{},\"requests\":{},\"ok\":{},\"rate_limited\":{},\"shed\":{},\"errors\":{},\"qps\":{:.2},\"p50_us\":{},\"p95_us\":{},\"p99_us\":{},\"max_us\":{},\"shed_rate\":{:.4},\"server_requests\":{},\"server_shed\":{},\"server_rate_limited\":{}",
            self.clients,
            self.requests,
            self.ok,
            self.rate_limited,
            self.shed,
            self.errors,
            self.qps,
            self.p50_us,
            self.p95_us,
            self.p99_us,
            self.max_us,
            self.shed_rate,
            self.report.requests,
            self.report.shed,
            self.report.rate_limited,
        );
        if self.scrape_requests > 0 {
            let _ = write!(
                json,
                ",\"scrape_requests\":{},\"scrape_ok\":{},\"scrape_p50_us\":{},\"scrape_p99_us\":{}",
                self.scrape_requests, self.scrape_ok, self.scrape_p50_us, self.scrape_p99_us,
            );
        }
        if !extra.is_empty() {
            let _ = write!(json, ",{extra}");
        }
        json.push('}');
        json
    }
}

fn run_scenario(
    index_dir: &Path,
    config: ServeConfig,
    clients: usize,
    scrape_clients: usize,
    duration: Duration,
    n: u32,
) -> Result<Scenario, CliError> {
    let index = Arc::new(CliqueIndex::open(index_dir).map_err(CliError::Store)?);
    let shutdown = ShutdownToken::new();
    let server = Server::bind(index, "127.0.0.1:0", config)?;
    let addr = server.local_addr()?;
    let server_thread = {
        let shutdown = shutdown.clone();
        std::thread::spawn(move || server.run(&shutdown))
    };

    let stop = Arc::new(AtomicBool::new(false));
    let started = Instant::now();
    let workers: Vec<_> = (0..clients)
        .map(|c| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || client_loop(addr, c as u32, n, &stop))
        })
        .collect();
    let scrapers: Vec<_> = (0..scrape_clients)
        .map(|c| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || scrape_loop(addr, c as u32, &stop))
        })
        .collect();
    std::thread::sleep(duration);
    stop.store(true, Ordering::Release);

    let mut requests = 0u64;
    let mut ok = 0u64;
    let mut rate_limited = 0u64;
    let mut shed = 0u64;
    let mut errors = 0u64;
    let mut latencies: Vec<u64> = Vec::new();
    for w in workers {
        let c = w
            .join()
            .map_err(|_| CliError::Runtime("bench-serve client thread panicked".into()))?;
        requests += c.requests;
        ok += c.ok;
        rate_limited += c.rate_limited;
        shed += c.shed;
        errors += c.errors;
        latencies.extend(c.ok_latencies_us);
    }
    let mut scrape_requests = 0u64;
    let mut scrape_ok = 0u64;
    let mut scrape_latencies: Vec<u64> = Vec::new();
    for s in scrapers {
        let c = s
            .join()
            .map_err(|_| CliError::Runtime("bench-serve scrape thread panicked".into()))?;
        scrape_requests += c.requests;
        scrape_ok += c.ok;
        scrape_latencies.extend(c.ok_latencies_us);
    }
    let wall = started.elapsed();
    shutdown.request(15);
    let report = server_thread
        .join()
        .map_err(|_| CliError::Runtime("bench-serve server thread panicked".into()))??;

    latencies.sort_unstable();
    scrape_latencies.sort_unstable();
    let answered = ok.max(1);
    Ok(Scenario {
        clients,
        requests,
        ok,
        rate_limited,
        shed,
        errors,
        qps: ok as f64 / wall.as_secs_f64().max(1e-9),
        p50_us: pct(&latencies, 0.50),
        p95_us: pct(&latencies, 0.95),
        p99_us: pct(&latencies, 0.99),
        max_us: latencies.last().copied().unwrap_or(0),
        shed_rate: (shed + rate_limited) as f64 / (answered + shed + rate_limited) as f64,
        scrape_requests,
        scrape_ok,
        scrape_p50_us: pct(&scrape_latencies, 0.50),
        scrape_p99_us: pct(&scrape_latencies, 0.99),
        report,
    })
}

/// Per-client tallies from one closed loop.
struct ClientOutcome {
    requests: u64,
    ok: u64,
    rate_limited: u64,
    shed: u64,
    errors: u64,
    ok_latencies_us: Vec<u64>,
}

/// Closed loop: one request at a time, next sent only after the
/// previous response fully arrived — the classic closed-loop load
/// model, so offered load adapts to what the server admits.
fn client_loop(addr: SocketAddr, client_id: u32, n: u32, stop: &AtomicBool) -> ClientOutcome {
    let mut out = ClientOutcome {
        requests: 0,
        ok: 0,
        rate_limited: 0,
        shed: 0,
        errors: 0,
        ok_latencies_us: Vec::new(),
    };
    let mut round = 0u32;
    while !stop.load(Ordering::Acquire) {
        let v = (client_id * 7 + round * 3) % n;
        let w = (client_id * 11 + round * 5) % n;
        let path = match round % 6 {
            0 => "/health".to_string(),
            1 => "/stats".to_string(),
            2 => "/max".to_string(),
            3 => format!("/containing/{v}"),
            4 => "/size/3/6?limit=8".to_string(),
            _ => format!("/overlap/{v}/{w}"),
        };
        round = round.wrapping_add(1);
        out.requests += 1;
        let begun = Instant::now();
        match get_status(addr, &path) {
            Ok(200) => {
                out.ok += 1;
                out.ok_latencies_us.push(begun.elapsed().as_micros() as u64);
            }
            Ok(429) => out.rate_limited += 1,
            Ok(503) | Ok(408) => out.shed += 1,
            Ok(_) => out.errors += 1,
            // Connect refused/reset under overload counts as shed-like
            // backpressure from the kernel backlog.
            Err(_) => out.errors += 1,
        }
    }
    out
}

/// Closed loop against the observability endpoints only: /metrics and
/// /metrics-json alternating. These are admission-exempt, so every
/// scrape should answer 200 even while the query pool saturates the
/// worker queue — a scrape that fails mid-overload is exactly the
/// monitoring outage the exemption exists to prevent.
fn scrape_loop(addr: SocketAddr, client_id: u32, stop: &AtomicBool) -> ClientOutcome {
    let mut out = ClientOutcome {
        requests: 0,
        ok: 0,
        rate_limited: 0,
        shed: 0,
        errors: 0,
        ok_latencies_us: Vec::new(),
    };
    let mut round = client_id;
    while !stop.load(Ordering::Acquire) {
        let path = if round & 1 == 0 {
            "/metrics"
        } else {
            "/metrics-json"
        };
        round = round.wrapping_add(1);
        out.requests += 1;
        let begun = Instant::now();
        match get_status(addr, path) {
            Ok(200) => {
                out.ok += 1;
                out.ok_latencies_us.push(begun.elapsed().as_micros() as u64);
            }
            Ok(429) => out.rate_limited += 1,
            Ok(503) | Ok(408) => out.shed += 1,
            Ok(_) | Err(_) => out.errors += 1,
        }
        // Real scrapers poll on an interval; a short pause keeps the
        // scrape pool from behaving like a second query pool.
        std::thread::sleep(Duration::from_millis(2));
    }
    out
}

/// One blocking GET; returns the response status. The whole response is
/// read (Connection: close), so closed-loop pacing is honest.
fn get_status(addr: SocketAddr, path: &str) -> std::io::Result<u16> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.set_nodelay(true)?;
    write!(stream, "GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n")?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::other("malformed status line"))
}

fn pct(sorted_us: &[u64], q: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let i = ((sorted_us.len() as f64 - 1.0) * q).round() as usize;
    sorted_us[i.min(sorted_us.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean() -> RouterScenario {
        RouterScenario {
            clients: 4,
            requests: 100,
            ok: 100,
            degraded_ok: 0,
            shed: 0,
            errors: 0,
            qps: 1000.0,
            p50_us: 500,
            p95_us: 900,
            p99_us: 1500,
            max_us: 3000,
            killed_replica: false,
            retries: 0,
            hedges: 0,
            hedge_wins: 0,
            degraded_answers: 0,
            router_requests: 100,
        }
    }

    #[test]
    fn router_claims_fail_on_errors_degradation_and_steady_sheds() {
        assert!(router_claims(&clean(), &clean()).is_ok());
        let failover_shed = RouterScenario { shed: 3, ..clean() };
        assert!(router_claims(&clean(), &failover_shed).is_ok());
        for broken in [
            RouterScenario {
                errors: 1,
                ..clean()
            },
            RouterScenario {
                degraded_ok: 1,
                ..clean()
            },
            RouterScenario {
                degraded_answers: 1,
                ..clean()
            },
        ] {
            assert!(router_claims(&clean(), &broken).is_err());
            assert!(router_claims(&broken, &clean()).is_err());
        }
        let steady_shed = RouterScenario { shed: 1, ..clean() };
        assert!(router_claims(&steady_shed, &clean()).is_err());
    }
}
