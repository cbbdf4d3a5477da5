//! `gsb bench-serve` — closed-loop scenario checks for the query
//! server and the router.
//!
//! Self-contained: generates a planted-module graph, builds a
//! throwaway index, starts an in-process [`Server`] ([`Server::start`]),
//! and drives it with closed-loop client threads through a real socket.
//! The scenarios check what the services do under load; they are not
//! the serving timings. The fixture holds about 250 cliques, so a list
//! answer is a few cliques long and query execution never shows in
//! their latencies: perfbench's `direct` and `routed` workloads
//! (`perfbench/`) carry the serving timings. The scenarios run back to
//! back:
//!
//! * **steady** — a modest client pool against a generously
//!   provisioned server: the happy path the others compare against.
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
//!   [`Server`]). The steady run is the routed happy path; the
//!   failover run kills one replica mid-load and commits what the tier
//!   did about it — failover latency percentiles, retry/hedge counts,
//!   and that answers stayed exact (zero degraded) because the shard's
//!   second replica survived. The command fails if either run saw a
//!   client error or a degraded answer, or if the steady run shed.
//!
//! The counts, rates and latency percentiles are committed to a JSON
//! file (default `results/BENCH_serve.json`) whose *schema* is diffed
//! in CI — values are hardware-dependent, the shape is not.

use crate::args::Args;
use crate::CliError;
use gsb_graph::generators::{planted, Module};
use gsb_index::{
    build, split_index, BuildOptions, CliqueIndex, Router, RouterConfig, RouterReport, Running,
    ServeConfig, ServeReport, Server, ShardSpec, ShardSummary, Topology,
};
use gsb_telemetry::percentile;
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
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
    build(&g, &dir, BuildOptions::default(), None).map_err(CliError::Store)?;

    let n = n as u32;
    let steady_config = ServeConfig {
        threads: 4,
        queue_limit: 256,
        rate_limit: None,
        ..ServeConfig::default()
    };
    let overload_config = ServeConfig {
        threads: 2,
        queue_limit: 4,
        rate_limit: Some(if smoke { 400.0 } else { 800.0 }),
        rate_burst: 16,
        request_deadline: Duration::from_millis(1500),
        ..ServeConfig::default()
    };
    let mut scenarios = vec![
        (
            "steady",
            run_scenario(Target::Server(&dir, &steady_config), 4, 0, duration, n)?,
        ),
        (
            "overload",
            run_scenario(Target::Server(&dir, &overload_config), 16, 0, duration, n)?,
        ),
    ];
    if with_scrape {
        // The steady query load again with the full observability stack
        // on — access log, slow-query log, and a pool of clients
        // hammering /metrics + /metrics-json concurrently — so the
        // committed JSON records what watching the server costs.
        let config = ServeConfig {
            access_log: Some(dir.join("bench-access.jsonl")),
            slow_query_ms: Some(250),
            ..steady_config
        };
        let scrape = run_scenario(Target::Server(&dir, &config), 4, 2, duration, n)?;
        scenarios.push(("scrape", scrape));
    }
    if with_router {
        let summaries = split_index(&dir, &dir.join("shards"), 2).map_err(CliError::Store)?;
        for (name, kill_one) in [("router_steady", false), ("router_failover", true)] {
            let tier = Target::Tier(&summaries, kill_one);
            scenarios.push((name, run_scenario(tier, 4, 0, duration, n)?));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    let steady_p99 = scenarios[0].1.p99_us.max(1) as f64;
    let mut entries = Vec::new();
    let mut out = format!("bench-serve ({})\n", if smoke { "smoke" } else { "full" });
    for (name, s) in &scenarios {
        // p99 under scrape+logging load relative to the bare steady
        // run: the acceptance gate is "observability costs <5%".
        let vs_steady = s.p99_us as f64 / steady_p99;
        let extra = match *name {
            "scrape" => format!("\"p99_vs_steady\":{vs_steady:.4}"),
            _ => String::new(),
        };
        entries.push(format!("    \"{name}\": {}", s.to_json_with(&extra)));
        let _ = write!(
            out,
            "  {name}: {} requests, {:.0} qps, p50 {}us p95 {}us p99 {}us, ok {}",
            s.requests, s.qps, s.p50_us, s.p95_us, s.p99_us, s.ok,
        );
        let _ = match &s.report {
            Report::Server(_) => writeln!(
                out,
                ", rate-limited {}, shed {} ({:.1}% shed rate)",
                s.rate_limited,
                s.shed,
                100.0 * s.shed_rate(),
            ),
            Report::Router(r) => writeln!(
                out,
                ", degraded {}, errors {}; retries {}, hedges {} ({} wins)",
                s.degraded_ok, s.errors, r.retries, r.hedges, r.hedge_wins,
            ),
        };
        if s.scrape_requests > 0 {
            let _ = writeln!(
                out,
                "          /metrics scrapes: {} ({} ok), p50 {}us p99 {}us; query p99 {vs_steady:.2}x steady",
                s.scrape_requests, s.scrape_ok, s.scrape_p50_us, s.scrape_p99_us,
            );
        }
    }
    let json = format!(
        "{{\n  \"bench\": \"gsb_bench_serve\",\n  \"smoke\": {smoke},\n  \"seed\": {seed},\n  \"scenarios\": {{\n{}\n  }}\n}}\n",
        entries.join(",\n"),
    );
    if let Some(parent) = out_path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(&out_path, &json)?;
    let _ = writeln!(out, "results written to {}", out_path.display());
    if with_router {
        let routed = &scenarios[scenarios.len() - 2..];
        router_claims(&routed[0].1, &routed[1].1).map_err(CliError::Runtime)?;
    }
    Ok(out)
}

/// What the routed scenarios claim: every answer of both runs exact
/// (no client error, no degraded answer, even with a replica killed),
/// and nothing shed by the healthy tier.
fn router_claims(steady: &Scenario, failover: &Scenario) -> Result<(), String> {
    let mut broken = Vec::new();
    for (name, s) in [("router_steady", steady), ("router_failover", failover)] {
        // The router never rate-limits, so a 429 is a client error too.
        let errors = s.errors + s.rate_limited;
        if errors > 0 {
            broken.push(format!("{name}: {errors} client errors"));
        }
        let counted = match &s.report {
            Report::Server(r) => r.degraded,
            Report::Router(r) => r.degraded_answers,
        };
        if s.degraded_ok > 0 || counted > 0 {
            broken.push(format!(
                "{name}: {} degraded answers seen by clients, {counted} counted by the router",
                s.degraded_ok
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

/// What a scenario drives.
enum Target<'a> {
    /// One server over the index in the directory.
    Server(&'a Path, &'a ServeConfig),
    /// `gsb router` over these shards, 2 replicas each, every backend
    /// an in-process server; with `true`, one replica of shard 0 stops
    /// halfway through the load and the tier must answer exactly
    /// through its twin.
    Tier(&'a [ShardSummary], bool),
}

/// The report of the service the clients talked to.
enum Report {
    Server(ServeReport),
    Router(RouterReport),
}

/// Start one server over the index in `dir`.
fn start_server(dir: &Path, config: ServeConfig) -> Result<Running<ServeReport>, CliError> {
    let index = Arc::new(CliqueIndex::open(dir).map_err(CliError::Store)?);
    Ok(Server::bind(index, "127.0.0.1:0", config)?.start()?)
}

/// Start `target`, drive it with `clients` closed-loop query clients
/// (the steady mix) and `scrapers` clients polling the metrics
/// endpoints for `duration`, then drain it.
fn run_scenario(
    target: Target,
    clients: usize,
    scrapers: usize,
    duration: Duration,
    n: u32,
) -> Result<Scenario, CliError> {
    // The one server, or a tier's backends shard by shard with the
    // router in front of them.
    let mut servers = Vec::new();
    let mut router = None;
    let kill_one = match target {
        Target::Server(dir, config) => {
            servers.push(start_server(dir, config.clone())?);
            false
        }
        Target::Tier(summaries, kill_one) => {
            let mut shards = Vec::new();
            for s in summaries {
                let mut replicas = Vec::new();
                for _ in 0..2 {
                    let config = ServeConfig {
                        threads: 2,
                        queue_limit: 256,
                        ..ServeConfig::default()
                    };
                    let backend = start_server(&s.dir, config)?;
                    replicas.push(backend.addr().to_string());
                    servers.push(backend);
                }
                shards.push(ShardSpec::new(s, replicas));
            }
            let config = RouterConfig {
                threads: 4,
                request_deadline: Duration::from_secs(2),
                try_timeout: Duration::from_millis(400),
                probe_interval: Duration::from_millis(50),
                breaker_cooldown: Duration::from_millis(200),
                ..RouterConfig::default()
            };
            router = Some(Router::bind(Topology { shards }, "127.0.0.1:0", config)?.start()?);
            kill_one
        }
    };
    let addr = router.as_ref().map_or(servers[0].addr(), Running::addr);

    let stop = Arc::new(AtomicBool::new(false));
    let started = Instant::now();
    let pool = |count: usize, scrape: bool| -> Vec<JoinHandle<Tally>> {
        (0..count as u32)
            .map(|c| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || client_loop(addr, c, n, scrape, &stop))
            })
            .collect()
    };
    let (queries, scrapes) = (pool(clients, false), pool(scrapers, true));
    std::thread::sleep(duration / 2);
    if kill_one {
        // One replica of shard 0 goes away; the load keeps running so
        // the percentiles include the failover.
        servers[0].drain();
    }
    std::thread::sleep(duration - duration / 2);
    stop.store(true, Ordering::Release);
    let (queries, scrapes) = (join_clients(queries)?, join_clients(scrapes)?);
    let wall = started.elapsed();

    // The service the clients talked to reports; the router drains
    // before its backends.
    let report = match router {
        Some(router) => Report::Router(router.wait()?),
        None => Report::Server(servers.swap_remove(0).wait()?),
    };
    for server in servers {
        server.wait()?;
    }
    Ok(Scenario {
        clients,
        requests: queries.requests,
        ok: queries.ok,
        degraded_ok: queries.degraded,
        rate_limited: queries.rate_limited,
        shed: queries.shed,
        errors: queries.errors,
        qps: queries.ok as f64 / wall.as_secs_f64().max(1e-9),
        p50_us: queries.pct(0.50),
        p95_us: queries.pct(0.95),
        p99_us: queries.pct(0.99),
        max_us: queries.ok_latencies_us.last().copied().unwrap_or(0),
        scrape_requests: scrapes.requests,
        scrape_ok: scrapes.ok,
        scrape_p50_us: scrapes.pct(0.50),
        scrape_p99_us: scrapes.pct(0.99),
        killed_replica: kill_one,
        report,
    })
}

fn join_clients(handles: Vec<JoinHandle<Tally>>) -> Result<Tally, CliError> {
    let mut total = Tally::default();
    for h in handles {
        let t = h
            .join()
            .map_err(|_| CliError::Runtime("bench-serve client thread panicked".into()))?;
        total.requests += t.requests;
        total.ok += t.ok;
        total.degraded += t.degraded;
        total.rate_limited += t.rate_limited;
        total.shed += t.shed;
        total.errors += t.errors;
        total.ok_latencies_us.extend(t.ok_latencies_us);
    }
    total.ok_latencies_us.sort_unstable();
    Ok(total)
}

/// Tallies of closed-loop clients.
#[derive(Default)]
struct Tally {
    requests: u64,
    /// 200s not marked degraded, each with its latency.
    ok: u64,
    /// 200s marked `X-Gsb-Degraded`.
    degraded: u64,
    rate_limited: u64,
    /// 503s and 408s.
    shed: u64,
    /// Any other status, and transport failures.
    errors: u64,
    /// Latencies of the `ok` answers, ascending once joined.
    ok_latencies_us: Vec<u64>,
}

impl Tally {
    fn pct(&self, q: f64) -> u64 {
        percentile(&self.ok_latencies_us, q)
    }
}

/// Closed loop: one request at a time, next sent only after the
/// previous response fully arrived — the classic closed-loop load
/// model, so offered load adapts to what the server admits. A query
/// client walks the steady mix (health, stats, max, containing, size,
/// overlap); a scrape client alternates `/metrics` and `/metrics-json`,
/// with a short pause as real scrapers poll on an interval. Scrapes are
/// admission-exempt, so every one should answer 200 even while the
/// query pool saturates the worker queue.
fn client_loop(addr: SocketAddr, client: u32, n: u32, scrape: bool, stop: &AtomicBool) -> Tally {
    let mut out = Tally::default();
    let mut round = 0u32;
    while !stop.load(Ordering::Acquire) {
        let (v, w) = ((client * 7 + round * 3) % n, (client * 11 + round * 5) % n);
        let path = match (scrape, round % 6) {
            (true, _) if (client + round) & 1 == 0 => "/metrics".to_string(),
            (true, _) => "/metrics-json".to_string(),
            (false, 0) => "/health".to_string(),
            (false, 1) => "/stats".to_string(),
            (false, 2) => "/max".to_string(),
            (false, 3) => format!("/containing/{v}"),
            (false, 4) => "/size/3/6?limit=8".to_string(),
            (false, _) => format!("/overlap/{v}/{w}"),
        };
        round = round.wrapping_add(1);
        out.requests += 1;
        let begun = Instant::now();
        match get(addr, &path) {
            Ok((200, false)) => {
                out.ok += 1;
                out.ok_latencies_us.push(begun.elapsed().as_micros() as u64);
            }
            Ok((200, true)) => out.degraded += 1,
            Ok((429, _)) => out.rate_limited += 1,
            Ok((503 | 408, _)) => out.shed += 1,
            // Connect refused/reset under overload is an error too.
            Ok(_) | Err(_) => out.errors += 1,
        }
        if scrape {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    out
}

/// One blocking GET, read to the end (Connection: close) so closed-loop
/// pacing is honest: the status, and whether `X-Gsb-Degraded` marks the
/// answer.
fn get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, bool)> {
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
        .map_or(&*response, |(h, _)| h);
    Ok((status, head.contains("X-Gsb-Degraded")))
}

/// Aggregated outcome of one scenario, on one server or a routed tier.
struct Scenario {
    clients: usize,
    requests: u64,
    ok: u64,
    degraded_ok: u64,
    rate_limited: u64,
    shed: u64,
    errors: u64,
    qps: f64,
    p50_us: u64,
    p95_us: u64,
    p99_us: u64,
    max_us: u64,
    scrape_requests: u64,
    scrape_ok: u64,
    scrape_p50_us: u64,
    scrape_p99_us: u64,
    killed_replica: bool,
    report: Report,
}

impl Scenario {
    /// Typed refusals (429s and sheds) per refused-or-answered request.
    fn shed_rate(&self) -> f64 {
        let refused = self.shed + self.rate_limited;
        refused as f64 / (self.ok.max(1) + refused) as f64
    }

    /// Serialize, splicing `extra` (pre-rendered `"key":value` pairs)
    /// before the closing brace. A server scenario reports its shed
    /// rate and server counters, a routed one its router counters.
    fn to_json_with(&self, extra: &str) -> String {
        let mut json = format!(
            "{{\"clients\":{},\"requests\":{},\"ok\":{},\"shed\":{},\"errors\":{},\"qps\":{:.2},\"p50_us\":{},\"p95_us\":{},\"p99_us\":{},\"max_us\":{}",
            self.clients,
            self.requests,
            self.ok,
            self.shed,
            self.errors,
            self.qps,
            self.p50_us,
            self.p95_us,
            self.p99_us,
            self.max_us,
        );
        let _ = match &self.report {
            Report::Server(r) => write!(
                json,
                ",\"rate_limited\":{},\"shed_rate\":{:.4},\"server_requests\":{},\"server_shed\":{},\"server_rate_limited\":{}",
                self.rate_limited,
                self.shed_rate(),
                r.requests,
                r.shed,
                r.rate_limited,
            ),
            Report::Router(r) => write!(
                json,
                ",\"degraded_ok\":{},\"killed_replica\":{},\"retries\":{},\"hedges\":{},\"hedge_wins\":{},\"degraded_answers\":{},\"router_requests\":{}",
                self.degraded_ok,
                self.killed_replica,
                r.retries,
                r.hedges,
                r.hedge_wins,
                r.degraded_answers,
                r.requests,
            ),
        };
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

#[cfg(test)]
mod tests {
    use super::*;

    fn clean() -> Scenario {
        Scenario {
            clients: 4,
            requests: 100,
            ok: 100,
            degraded_ok: 0,
            rate_limited: 0,
            shed: 0,
            errors: 0,
            qps: 1000.0,
            p50_us: 500,
            p95_us: 900,
            p99_us: 1500,
            max_us: 3000,
            scrape_requests: 0,
            scrape_ok: 0,
            scrape_p50_us: 0,
            scrape_p99_us: 0,
            killed_replica: false,
            report: Report::Router(RouterReport {
                requests: 100,
                ..RouterReport::default()
            }),
        }
    }

    #[test]
    fn router_claims_fail_on_errors_degradation_and_steady_sheds() {
        assert!(router_claims(&clean(), &clean()).is_ok());
        let failover_shed = Scenario { shed: 3, ..clean() };
        assert!(router_claims(&clean(), &failover_shed).is_ok());
        for broken in [
            Scenario {
                errors: 1,
                ..clean()
            },
            Scenario {
                degraded_ok: 1,
                ..clean()
            },
            Scenario {
                report: Report::Router(RouterReport {
                    degraded_answers: 1,
                    ..RouterReport::default()
                }),
                ..clean()
            },
        ] {
            assert!(router_claims(&clean(), &broken).is_err());
            assert!(router_claims(&broken, &clean()).is_err());
        }
        let steady_shed = Scenario { shed: 1, ..clean() };
        assert!(router_claims(&steady_shed, &clean()).is_err());
    }
}
