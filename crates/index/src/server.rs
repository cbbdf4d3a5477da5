//! `gsb serve` — a std-only threaded TCP/HTTP query server with
//! overload protection.
//!
//! The first long-lived process in the repo: where a batch run ends at
//! a level barrier, the server ends only when asked. It reuses the
//! robustness substrate built for batch runs — [`ShutdownToken`] for
//! graceful SIGINT/SIGTERM drain, the supervision deadline as a
//! per-connection socket timeout, and [`gsb_telemetry`] histograms for
//! per-endpoint latency, exported as JSON via `--metrics-out` — and
//! adds the serving-specific defenses a genome-scale index needs to
//! stay up under pressure:
//!
//! * **Admission control.** Accepted connections enter a *bounded*
//!   queue (`queue_limit`); when it is full the acceptor answers
//!   `/health`, `/ready` and the metrics endpoints inline and sheds
//!   everything else with a typed `503` + `Retry-After` instead of
//!   letting latency grow without bound. The queue depth is exported
//!   as the `http.queue_depth` gauge, sheds as `http.shed_total`.
//! * **Per-request deadline budget.** Distinct from the per-connection
//!   socket timeout: the budget starts at *accept*. A request that
//!   already spent its budget queueing is shed (`503`), and a client
//!   that dribbles header bytes (slow-loris) is cut off with `408`
//!   once the budget runs out — progress is bounded even though each
//!   individual read is making "progress".
//! * **Per-endpoint rate limiting.** An optional token bucket per
//!   endpoint (`rate_limit` requests/second, `rate_burst` burst)
//!   answers `429` + `Retry-After` when drained. `/health` is exempt:
//!   liveness probes must keep passing during overload.
//! * **Degraded-exact serving.** A corrupt store block is quarantined
//!   by the reader; list endpoints then answer from the healthy blocks
//!   only, marking the response with an `X-Gsb-Degraded: <skipped>`
//!   header and a `"degraded"` body field. Every clique actually
//!   returned is exact — degradation is visible, never silent.
//! * **Atomic hot-reload.** With `reload_poll` + `index_dir` set, a
//!   watcher thread polls `index.meta`; on change it opens and fully
//!   validates the new index off the serving path, then swaps the
//!   shared `Arc<CliqueIndex>`. In-flight requests keep their snapshot
//!   — no request is ever dropped or mixed across generations.
//! * **Live observability.** `GET /metrics` exposes every recorder
//!   series as Prometheus text (`gsb_telemetry::promtext`) and
//!   `GET /metrics-json` serves the same snapshot `--metrics-out`
//!   writes at shutdown — both exempt from the admission queue and the
//!   rate limiter, like `/health`: an overloaded server must stay
//!   scrapeable. Every request gets a trace id (incoming `X-Gsb-Trace`
//!   honored, else generated from the seeded `TraceIdGen`) and a
//!   [`gsb_telemetry::SpanRecorder`] timing
//!   queue→parse→admission→postings→blocks→respond; the id and total
//!   nanoseconds return in `X-Gsb-Trace` / `X-Gsb-Trace-Ns` response
//!   headers. With `--access-log` set, each request appends one JSONL
//!   [`gsb_telemetry::AccessRecord`] line (rotated atomically at
//!   `--access-log-max-bytes`); `--slow-query-ms` tees outliers with
//!   their full span breakdown into a slow-query log.
//!
//! The transport — blocking accept with a shutdown waker, the bounded
//! queue, the worker pool, the budgeted header reader (`408`/`431`),
//! the drain sweep and the metrics file — is the crate's HTTP core
//! (`http.rs`), which `gsb router` runs on too. This module is the
//! query surface: routes, rate limits, the index, and the access log.
//!
//! Endpoints (all GET, JSON responses):
//!
//! | path                 | answer                                   |
//! |----------------------|------------------------------------------|
//! | `/health`            | liveness                                 |
//! | `/ready`             | readiness (503 while draining)           |
//! | `/stats`             | index statistics                         |
//! | `/get/<id>`          | one clique by id                         |
//! | `/containing/<v>`    | cliques containing vertex v              |
//! | `/size/<lo>/<hi>`    | cliques with size in `lo..=hi`           |
//! | `/max`               | one maximum clique                       |
//! | `/overlap/<v>/<w>`   | cliques containing both v and w          |
//! | `/metrics`           | Prometheus text exposition (live)        |
//! | `/metrics-json`      | the `--metrics-out` JSON snapshot (live) |
//!
//! Clique-list endpoints accept `?limit=K` (default 1000) and report
//! the full `count` alongside the possibly-truncated `cliques` array.

use crate::http::{
    find_head_end, header_value, read_head_briefly, respond_full, status_key, trace_headers,
    AddNamed, Http, HttpConfig, Service, CONTENT_TYPE_JSON, CONTENT_TYPE_PROM, STATUS_LABELS,
};
use crate::reader::CliqueIndex;
use gsb_core::{Clique, ShutdownToken};
use gsb_telemetry::access::{AccessRecord, RotatingWriter};
use gsb_telemetry::promtext::{PromKind, PromWriter};
use gsb_telemetry::trace::SpanRecorder;
use gsb_telemetry::{AtomicRecorder, Histogram};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime};

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads answering queries.
    pub threads: usize,
    /// Per-connection socket read/write timeout (the supervision idea:
    /// a peer that stalls past this is disconnected, not waited on).
    pub deadline: Duration,
    /// Per-request deadline *budget*, measured from accept: queueing,
    /// header read, query, and response all share it. A request that
    /// cannot start within the budget is shed with `503`; a header
    /// that cannot finish within it is cut off with `408`.
    pub request_deadline: Duration,
    /// Bounded accept-queue depth; connections beyond it are shed
    /// inline with `503` + `Retry-After`.
    pub queue_limit: usize,
    /// Optional per-endpoint token-bucket rate (requests/second).
    /// `None` disables rate limiting. `/health` is always exempt.
    pub rate_limit: Option<f64>,
    /// Token-bucket burst capacity (tokens), when `rate_limit` is set.
    pub rate_burst: u32,
    /// Cap on total request-head bytes (`431` beyond it).
    pub max_header_bytes: usize,
    /// Poll interval of the `index.meta` hot-reload watcher; `None`
    /// disables reloading. Requires `index_dir`.
    pub reload_poll: Option<Duration>,
    /// The index directory to watch for hot-reload.
    pub index_dir: Option<PathBuf>,
    /// Where to write the metrics JSON at shutdown.
    pub metrics_out: Option<PathBuf>,
    /// JSONL access log: one [`AccessRecord`] per request. `None`
    /// disables access logging.
    pub access_log: Option<PathBuf>,
    /// Rotate the access (and slow-query) log once it exceeds this many
    /// bytes (atomic rename to `<path>.1`); 0 disables rotation.
    pub access_log_max_bytes: u64,
    /// Tee requests slower than this many milliseconds into the
    /// slow-query log (full span breakdown). `None` disables.
    pub slow_query_ms: Option<u64>,
    /// Where slow queries are logged; required when `slow_query_ms` is
    /// set (the CLI defaults it to `<access_log>.slow`).
    pub slow_query_log: Option<PathBuf>,
    /// Seed for the server's trace-id generator (deterministic ids for
    /// reproducible tests and benchmarks).
    pub trace_seed: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            threads: 4,
            deadline: Duration::from_secs(10),
            request_deadline: Duration::from_secs(5),
            queue_limit: 128,
            rate_limit: None,
            rate_burst: 8,
            max_header_bytes: 8192,
            reload_poll: None,
            index_dir: None,
            metrics_out: None,
            access_log: None,
            access_log_max_bytes: 64 * 1024 * 1024,
            slow_query_ms: None,
            slow_query_log: None,
            trace_seed: 17,
        }
    }
}

/// What the drained server did, returned by [`Server::run`].
#[derive(Clone, Debug, Default)]
pub struct ServeReport {
    /// Connections accepted.
    pub connections: u64,
    /// Requests answered with a routed response (any status).
    pub requests: u64,
    /// Connections shed by admission control (queue full, budget
    /// exhausted, slow client, drain sweep).
    pub shed: u64,
    /// Requests answered `429` by the per-endpoint rate limiter.
    pub rate_limited: u64,
    /// Responses served degraded-exact (some ids skipped as corrupt).
    pub degraded: u64,
    /// Successful index hot-reloads.
    pub reloads: u64,
    /// The metrics JSON (also written to `metrics_out` when set).
    pub metrics_json: String,
}

/// Endpoint names; each gets a request counter, a latency histogram,
/// and a rate-limit saturation counter.
pub(crate) const ENDPOINTS: [&str; 12] = [
    "health",
    "ready",
    "stats",
    "get",
    "containing",
    "size",
    "max",
    "overlap",
    "metrics",
    "metrics_json",
    "not_found",
    "bad_request",
];

pub(crate) fn latency_key(endpoint: &str) -> &'static str {
    match endpoint {
        "health" => "http.health.ns",
        "ready" => "http.ready.ns",
        "stats" => "http.stats.ns",
        "get" => "http.get.ns",
        "containing" => "http.containing.ns",
        "size" => "http.size.ns",
        "max" => "http.max.ns",
        "overlap" => "http.overlap.ns",
        "metrics" => "http.metrics.ns",
        "metrics_json" => "http.metrics_json.ns",
        "not_found" => "http.not_found.ns",
        _ => "http.bad_request.ns",
    }
}

pub(crate) fn requests_key(endpoint: &str) -> &'static str {
    match endpoint {
        "health" => "http.health.requests",
        "ready" => "http.ready.requests",
        "stats" => "http.stats.requests",
        "get" => "http.get.requests",
        "containing" => "http.containing.requests",
        "size" => "http.size.requests",
        "max" => "http.max.requests",
        "overlap" => "http.overlap.requests",
        "metrics" => "http.metrics.requests",
        "metrics_json" => "http.metrics_json.requests",
        "not_found" => "http.not_found.requests",
        _ => "http.bad_request.requests",
    }
}

fn rate_limited_key(endpoint: &str) -> &'static str {
    match endpoint {
        "health" => "http.health.rate_limited",
        "ready" => "http.ready.rate_limited",
        "stats" => "http.stats.rate_limited",
        "get" => "http.get.rate_limited",
        "containing" => "http.containing.rate_limited",
        "size" => "http.size.rate_limited",
        "max" => "http.max.rate_limited",
        "overlap" => "http.overlap.rate_limited",
        "metrics" => "http.metrics.rate_limited",
        "metrics_json" => "http.metrics_json.rate_limited",
        "not_found" => "http.not_found.rate_limited",
        _ => "http.bad_request.rate_limited",
    }
}

/// Endpoints exempt from the token buckets and from queue-full
/// shedding: liveness, readiness, and scrapes must keep answering
/// during overload — a router probing `/ready` must learn "still
/// serving, just busy" rather than a shed 503.
pub(crate) fn admission_exempt(endpoint: &str) -> bool {
    matches!(endpoint, "health" | "ready" | "metrics" | "metrics_json")
}

/// One token bucket per endpoint (classic leaky refill: `rate`
/// tokens/second up to `burst`).
struct TokenBuckets {
    rate: f64,
    burst: f64,
    buckets: Vec<Mutex<Bucket>>,
}

struct Bucket {
    tokens: f64,
    last: Instant,
}

impl TokenBuckets {
    fn new(rate: f64, burst: u32) -> Self {
        let burst = f64::from(burst.max(1));
        let now = Instant::now();
        TokenBuckets {
            rate: rate.max(0.0),
            burst,
            buckets: ENDPOINTS
                .iter()
                .map(|_| {
                    Mutex::new(Bucket {
                        tokens: burst,
                        last: now,
                    })
                })
                .collect(),
        }
    }

    /// Take one token for `endpoint`; false means rate-limited.
    fn try_take(&self, endpoint: &str) -> bool {
        let i = ENDPOINTS
            .iter()
            .position(|e| *e == endpoint)
            .unwrap_or(ENDPOINTS.len() - 1);
        let mut b = self.buckets[i].lock().unwrap();
        let now = Instant::now();
        b.tokens =
            (b.tokens + now.duration_since(b.last).as_secs_f64() * self.rate).min(self.burst);
        b.last = now;
        if b.tokens >= 1.0 {
            b.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// Everything the workers, accept loop, and reload watcher share.
struct ServeState {
    /// The transport: recorder, admission queue, drain flag, trace ids.
    http: Http,
    /// The live index. Workers clone the `Arc` per request, so a
    /// hot-reload swap never invalidates an in-flight answer.
    index: Mutex<Arc<CliqueIndex>>,
    config: ServeConfig,
    buckets: Option<TokenBuckets>,
    /// The JSONL access log, when enabled.
    access: Option<Mutex<RotatingWriter>>,
    /// The slow-query log, when enabled.
    slow: Option<Mutex<RotatingWriter>>,
}

impl ServeState {
    /// Current index snapshot for one request.
    fn index(&self) -> Arc<CliqueIndex> {
        self.index.lock().unwrap().clone()
    }

    /// The live `--metrics-out`-shaped JSON snapshot (same renderer the
    /// shutdown write uses), served by `GET /metrics-json`.
    fn live_metrics_json(&self) -> String {
        let r = &self.http.recorder;
        let connections = r.counter("http.connections").get();
        render_metrics(
            r,
            connections,
            total_requests(r),
            self.http.started.elapsed(),
        )
    }

    /// Append one access-log line (and tee it into the slow-query log
    /// when the request crossed the `slow_query_ms` threshold). Called
    /// on the worker path only — accept-loop sheds have no span.
    fn log_access(
        &self,
        span: &SpanRecorder,
        endpoint: &str,
        status: u16,
        cause: &str,
        bytes: u64,
    ) {
        let total_ns = span.total_ns();
        let slow = self
            .config
            .slow_query_ms
            .is_some_and(|ms| total_ns >= ms.saturating_mul(1_000_000));
        if slow {
            self.http.recorder.add_named("http.slow_queries", 1);
        }
        let write_access = self.access.is_some();
        let write_slow = slow && self.slow.is_some();
        if !write_access && !write_slow {
            return;
        }
        let ts_ms = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        let record = AccessRecord {
            ts_ms,
            trace: span.trace_id().to_string(),
            endpoint: endpoint.to_string(),
            status,
            cause: cause.to_string(),
            bytes,
            total_ns,
            stages: span
                .stages()
                .iter()
                .map(|&(name, ns)| (name.to_string(), ns))
                .collect(),
        };
        let line = record.to_json_line();
        if write_access {
            if let Some(w) = &self.access {
                if w.lock().unwrap().append_line(&line).is_err() {
                    self.http.recorder.add_named("http.access_log_errors", 1);
                }
            }
        }
        if write_slow {
            if let Some(w) = &self.slow {
                if w.lock().unwrap().append_line(&line).is_err() {
                    self.http.recorder.add_named("http.access_log_errors", 1);
                }
            }
        }
    }
}

/// A bound, not-yet-running query server.
pub struct Server {
    listener: TcpListener,
    index: Arc<CliqueIndex>,
    config: ServeConfig,
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:7700`; port 0 picks a free port).
    pub fn bind(index: Arc<CliqueIndex>, addr: &str, config: ServeConfig) -> std::io::Result<Self> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            index,
            config,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serve until `shutdown` is requested, then drain: stop accepting,
    /// answer every accepted connection, shed the kernel backlog with
    /// `503`, join the workers, and export metrics.
    pub fn run(self, shutdown: &ShutdownToken) -> std::io::Result<ServeReport> {
        let open_log = |path: &Option<PathBuf>| -> std::io::Result<_> {
            path.as_ref()
                .map(|p| RotatingWriter::open(p, self.config.access_log_max_bytes).map(Mutex::new))
                .transpose()
        };
        let c = &self.config;
        let state = Arc::new(ServeState {
            http: Http::new(HttpConfig {
                role: "server",
                threads: c.threads,
                deadline: c.deadline,
                request_deadline: c.request_deadline,
                queue_limit: c.queue_limit,
                max_header_bytes: c.max_header_bytes,
                trace_seed: c.trace_seed,
            }),
            index: Mutex::new(Arc::clone(&self.index)),
            buckets: c
                .rate_limit
                .map(|rate| TokenBuckets::new(rate, c.rate_burst)),
            access: open_log(&c.access_log)?,
            slow: open_log(&c.slow_query_log)?,
            config: c.clone(),
        });
        let watcher = match (&c.reload_poll, &c.index_dir) {
            (Some(poll), Some(dir)) => {
                let state = Arc::clone(&state);
                let shutdown = shutdown.clone();
                let (poll, dir) = (*poll, dir.clone());
                Some(
                    std::thread::Builder::new()
                        .name("gsb-serve-reload".into())
                        .spawn(move || watch_index(&dir, poll, &state, &shutdown))?,
                )
            }
            _ => None,
        };

        let connections = crate::http::run(&self.listener, &state, shutdown)?;
        if let Some(w) = watcher {
            let _ = w.join();
        }

        let r = &state.http.recorder;
        let requests = total_requests(r);
        let metrics_json = render_metrics(r, connections, requests, state.http.started.elapsed());
        crate::http::write_metrics(c.metrics_out.as_deref(), &metrics_json)?;
        Ok(ServeReport {
            connections,
            requests,
            shed: r.counter("http.shed_total").get(),
            rate_limited: r.counter("http.rate_limited_total").get(),
            degraded: r.counter("http.degraded_total").get(),
            reloads: r.counter("http.reloads").get(),
            metrics_json,
        })
    }
}

/// Requests answered with a routed response, all endpoints.
pub(crate) fn total_requests(recorder: &AtomicRecorder) -> u64 {
    ENDPOINTS
        .iter()
        .map(|ep| recorder.counter(requests_key(ep)).get())
        .sum()
}

/// Count one answered request: its endpoint, status, and latency.
pub(crate) fn record_answer(recorder: &AtomicRecorder, endpoint: &str, status: u16, ns: u64) {
    recorder.add_named(requests_key(endpoint), 1);
    recorder.add_named(status_key(status), 1);
    recorder.histogram(latency_key(endpoint)).observe(ns);
}

/// Poll `index.meta`; on change, open + validate the new index off the
/// serving path and swap it in atomically. A failed open keeps the old
/// index serving and retries on the next change of the manifest.
fn watch_index(
    dir: &std::path::Path,
    poll: Duration,
    state: &ServeState,
    shutdown: &ShutdownToken,
) {
    let meta_path = dir.join(crate::format::META_FILE);
    let mut last = std::fs::read_to_string(&meta_path).unwrap_or_default();
    let mut since_poll = Duration::ZERO;
    const TICK: Duration = Duration::from_millis(20);
    while !shutdown.is_requested() {
        // Short ticks keep shutdown responsive under long poll windows.
        std::thread::sleep(TICK.min(poll));
        since_poll += TICK.min(poll);
        if since_poll < poll {
            continue;
        }
        since_poll = Duration::ZERO;
        let Ok(text) = std::fs::read_to_string(&meta_path) else {
            continue;
        };
        if text == last {
            continue;
        }
        match CliqueIndex::open(dir) {
            Ok(new_index) => {
                let generation = new_index.generation();
                *state.index.lock().unwrap() = Arc::new(new_index);
                last = text;
                state.http.recorder.add_named("http.reloads", 1);
                eprintln!("gsb serve: hot-reloaded index (generation {generation})");
            }
            Err(e) => {
                // Keep serving the old index; `last` stays unchanged so
                // the next poll retries the reload.
                state.http.recorder.add_named("http.reload_errors", 1);
                eprintln!("gsb serve: index reload failed, keeping current index: {e}");
            }
        }
    }
}

/// The per-endpoint latency/QPS export plus the overload counters: one
/// JSON object per endpoint with count, mean, max, coarse log₂
/// percentiles, and rate-limit saturation.
fn render_metrics(
    recorder: &AtomicRecorder,
    connections: u64,
    requests: u64,
    elapsed: Duration,
) -> String {
    let wall_ms = elapsed.as_millis() as u64;
    let qps = if elapsed.as_secs_f64() > 0.0 {
        requests as f64 / elapsed.as_secs_f64()
    } else {
        0.0
    };
    let mut endpoints = String::new();
    for ep in ENDPOINTS {
        let count = recorder.counter(requests_key(ep)).get();
        let limited = recorder.counter(rate_limited_key(ep)).get();
        if count == 0 && limited == 0 {
            continue;
        }
        let h: Histogram = recorder.histogram(latency_key(ep));
        if !endpoints.is_empty() {
            endpoints.push(',');
        }
        endpoints.push_str(&format!(
            "\n    \"{ep}\": {{\"requests\":{count},\"rate_limited\":{limited},\"mean_ns\":{:.0},\"p50_ns\":{},\"p90_ns\":{},\"p99_ns\":{},\"max_ns\":{}}}",
            h.mean(),
            h.quantile_upper_bound(0.50),
            h.quantile_upper_bound(0.90),
            h.quantile_upper_bound(0.99),
            h.max(),
        ));
    }
    let shed_total = recorder.counter("http.shed_total").get();
    let shed_queue_full = recorder.counter("http.shed.queue_full").get();
    let shed_deadline = recorder.counter("http.shed.deadline").get();
    let shed_slow_client = recorder.counter("http.shed.slow_client").get();
    let shed_draining = recorder.counter("http.shed.draining").get();
    let rate_limited = recorder.counter("http.rate_limited_total").get();
    let degraded = recorder.counter("http.degraded_total").get();
    let reloads = recorder.counter("http.reloads").get();
    let reload_errors = recorder.counter("http.reload_errors").get();
    let worker_panics = recorder.counter("http.worker_panics").get();
    let queue_depth = recorder.gauge("http.queue_depth").get();
    format!(
        "{{\n  \"bench\": \"gsb_serve\",\n  \"connections\": {connections},\n  \"requests\": {requests},\n  \"wall_ms\": {wall_ms},\n  \"qps\": {qps:.2},\n  \"shed_total\": {shed_total},\n  \"shed\": {{\"queue_full\":{shed_queue_full},\"deadline\":{shed_deadline},\"slow_client\":{shed_slow_client},\"draining\":{shed_draining}}},\n  \"rate_limited\": {rate_limited},\n  \"degraded\": {degraded},\n  \"reloads\": {reloads},\n  \"reload_errors\": {reload_errors},\n  \"worker_panics\": {worker_panics},\n  \"queue_depth\": {queue_depth},\n  \"endpoints\": {{{endpoints}\n  }}\n}}\n"
    )
}

/// Render every recorder series as Prometheus text exposition (format
/// 0.0.4). Reads only atomic snapshots — never blocks request threads.
///
/// Naming: structured families carry labels (`endpoint=`, `cause=`,
/// `status=`); reader I/O counters come from [`CliqueIndex::io_stats`];
/// any counter not claimed below is swept up as a sanitized
/// `gsb_`-prefixed counter so new series are never silently dropped
/// from scrapes.
fn render_promtext(state: &ServeState, index: &CliqueIndex) -> String {
    let r = &state.http.recorder;
    let mut w = PromWriter::new();

    let req = w.family(
        "gsb_http_requests_total",
        PromKind::Counter,
        "Routed requests, by endpoint.",
    );
    for ep in ENDPOINTS {
        w.sample(&req, &[("endpoint", ep)], r.counter(requests_key(ep)).get());
    }

    let dur = w.family(
        "gsb_http_request_duration_ns",
        PromKind::Histogram,
        "Request handling latency in nanoseconds (log2 buckets), by endpoint.",
    );
    for ep in ENDPOINTS {
        let h = r.histogram(latency_key(ep));
        w.histogram(
            &dur,
            &[("endpoint", ep)],
            &h.cumulative_buckets(),
            h.sum(),
            h.count(),
        );
    }

    let limited = w.family(
        "gsb_http_rate_limited_total",
        PromKind::Counter,
        "Requests answered 429 by the per-endpoint token bucket.",
    );
    for ep in ENDPOINTS {
        w.sample(
            &limited,
            &[("endpoint", ep)],
            r.counter(rate_limited_key(ep)).get(),
        );
    }

    let shed = w.family(
        "gsb_http_shed_total",
        PromKind::Counter,
        "Connections shed by admission control, by cause.",
    );
    for (cause, key) in [
        ("queue_full", "http.shed.queue_full"),
        ("deadline", "http.shed.deadline"),
        ("slow_client", "http.shed.slow_client"),
        ("draining", "http.shed.draining"),
    ] {
        w.sample(&shed, &[("cause", cause)], r.counter(key).get());
    }

    let status = w.family(
        "gsb_http_responses_total",
        PromKind::Counter,
        "Responses written, by HTTP status.",
    );
    for (label, code) in STATUS_LABELS {
        w.sample(
            &status,
            &[("status", label)],
            r.counter(status_key(code)).get(),
        );
    }
    w.sample(
        &status,
        &[("status", "other")],
        r.counter("http.status.other").get(),
    );

    let depth = w.family(
        "gsb_http_queue_depth",
        PromKind::Gauge,
        "Connections currently waiting in the admission queue.",
    );
    w.sample(&depth, &[], r.gauge("http.queue_depth").get());

    // Plain counters: name, recorder key, help.
    let plain: [(&str, &'static str, &str); 11] = [
        (
            "gsb_http_connections_total",
            "http.connections",
            "TCP connections accepted (including shed ones).",
        ),
        (
            "gsb_http_degraded_total",
            "http.degraded_total",
            "Responses served degraded-exact (quarantined ids skipped).",
        ),
        (
            "gsb_http_slow_queries_total",
            "http.slow_queries",
            "Requests slower than the slow-query threshold.",
        ),
        (
            "gsb_http_reloads_total",
            "http.reloads",
            "Successful index hot-reloads.",
        ),
        (
            "gsb_http_reload_errors_total",
            "http.reload_errors",
            "Hot-reload attempts that failed validation.",
        ),
        (
            "gsb_http_worker_panics_total",
            "http.worker_panics",
            "Request handlers that panicked (contained, answered 500).",
        ),
        (
            "gsb_http_read_errors_total",
            "http.read_errors",
            "Connections lost while reading the request.",
        ),
        (
            "gsb_http_write_errors_total",
            "http.write_errors",
            "Responses that failed to write.",
        ),
        (
            "gsb_http_accept_errors_total",
            "http.accept_errors",
            "Accept-path failures.",
        ),
        (
            "gsb_http_rate_limited_requests_total",
            "http.rate_limited_total",
            "Requests answered 429, all endpoints.",
        ),
        (
            "gsb_http_access_log_errors_total",
            "http.access_log_errors",
            "Access-log lines dropped on write failure.",
        ),
    ];
    for (name, key, help) in plain {
        let fam = w.family(name, PromKind::Counter, help);
        w.sample(&fam, &[], r.counter(key).get());
    }

    // Reader I/O: block-cache effectiveness and decode cost. Counters
    // reset on hot-reload (fresh reader), flagged by the generation.
    let io = index.io_stats();
    for (name, value, help) in [
        (
            "gsb_index_cache_hits_total",
            io.cache_hits,
            "Block lookups answered from the decoded-block cache.",
        ),
        (
            "gsb_index_cache_misses_total",
            io.cache_misses,
            "Block lookups that had to read and decode from disk.",
        ),
        (
            "gsb_index_cache_evictions_total",
            io.cache_evictions,
            "Cache insertions that displaced an older block.",
        ),
        (
            "gsb_index_blocks_decoded_total",
            io.blocks_decoded,
            "Blocks read, CRC-verified, and decoded.",
        ),
        (
            "gsb_index_decode_ns_total",
            io.decode_ns,
            "Nanoseconds spent in block read+CRC+decode.",
        ),
        (
            "gsb_index_postings_reads_total",
            io.postings_reads,
            "Postings-list reads served.",
        ),
    ] {
        let fam = w.family(name, PromKind::Counter, help);
        w.sample(&fam, &[], value);
    }
    for (name, value, help) in [
        (
            "gsb_index_generation",
            index.generation(),
            "Rebuild generation of the live index.",
        ),
        (
            "gsb_index_quarantined_blocks",
            index.quarantined_blocks().len() as u64,
            "Store blocks quarantined as corrupt since this reader opened.",
        ),
        (
            "gsb_index_cliques",
            index.len(),
            "Cliques in the live index.",
        ),
        (
            "gsb_index_live_cliques",
            index.live_len(),
            "Cliques surviving the tombstone filter (equals gsb_index_cliques when no delta chain).",
        ),
        (
            "gsb_index_tombstones",
            index.len() - index.live_len(),
            "Cliques killed by the delta chain since the last compaction.",
        ),
        (
            "gsb_index_delta_generations",
            index.delta_generations(),
            "Delta generations stacked on the base index (0 after compaction).",
        ),
    ] {
        let fam = w.family(name, PromKind::Gauge, help);
        w.sample(&fam, &[], value);
    }

    let uptime = w.family(
        "gsb_uptime_seconds",
        PromKind::Gauge,
        "Seconds since the server started.",
    );
    w.sample_f64(&uptime, &[], state.http.started.elapsed().as_secs_f64());

    // Sweep: any counter not claimed above still gets exposed, under a
    // sanitized gsb_-prefixed name, so new instrumentation is never
    // invisible to scrapes.
    let mut claimed: std::collections::BTreeSet<&str> = [
        "http.shed_total",
        "http.shed.queue_full",
        "http.shed.deadline",
        "http.shed.slow_client",
        "http.shed.draining",
        "http.status.other",
        "http.connections",
        "http.degraded_total",
        "http.slow_queries",
        "http.reloads",
        "http.reload_errors",
        "http.worker_panics",
        "http.read_errors",
        "http.write_errors",
        "http.accept_errors",
        "http.rate_limited_total",
        "http.access_log_errors",
    ]
    .into();
    for ep in ENDPOINTS {
        claimed.insert(requests_key(ep));
        claimed.insert(rate_limited_key(ep));
    }
    for (_, code) in STATUS_LABELS {
        claimed.insert(status_key(code));
    }
    for (key, value) in r.snapshot_counters() {
        if claimed.contains(key) {
            continue;
        }
        let fam = w.family(
            &format!("gsb_{key}"),
            PromKind::Counter,
            "Unstructured counter (auto-exported).",
        );
        w.sample(&fam, &[], value);
    }

    w.finish()
}

impl Service for ServeState {
    fn http(&self) -> &Http {
        &self.http
    }

    /// Route the request, apply the caller deadline and the rate
    /// limiter, answer it, and log it.
    fn answer(
        &self,
        stream: &mut TcpStream,
        head: &str,
        accepted_at: Instant,
        mut span: SpanRecorder,
    ) {
        let recorder = &self.http.recorder;
        let (route, limit) = parse_route(head.lines().next().unwrap_or(""));
        let endpoint = route.endpoint();

        // Caller-supplied deadline (`X-Gsb-Deadline-Ms`, measured from
        // our accept): the router carves per-try budgets from its own
        // request deadline and propagates each try's budget, so a
        // backend that cannot start in time sheds instead of computing
        // an answer nobody is waiting for.
        let caller_deadline =
            header_value(head, "x-gsb-deadline-ms").and_then(|v| v.parse::<u64>().ok());
        if caller_deadline.is_some_and(|ms| accepted_at.elapsed() >= Duration::from_millis(ms)) {
            self.http.shed(
                stream,
                503,
                "caller deadline already expired",
                "http.shed.deadline",
            );
            self.log_access(&span, endpoint, 503, "caller_deadline", 0);
            return;
        }

        // Rate limiting sits between parse and execution: cheap typed
        // 429s under saturation, no index work spent on a shed request.
        // `/health` and the metrics endpoints are exempt so liveness
        // probes and scrapes pass during overload.
        let limited = !admission_exempt(endpoint)
            && self.buckets.as_ref().is_some_and(|b| !b.try_take(endpoint));
        span.stage("admission");
        if limited {
            recorder.add_named(rate_limited_key(endpoint), 1);
            recorder.add_named("http.rate_limited_total", 1);
            recorder.add_named(status_key(429), 1);
            let body = "{\"error\":\"rate limit exceeded for this endpoint\"}";
            let extra = trace_headers(&span);
            if respond_full(stream, 429, body, 0, 1, CONTENT_TYPE_JSON, &extra).is_err() {
                recorder.add_named("http.write_errors", 1);
            }
            span.stage("respond");
            self.log_access(&span, endpoint, 429, "rate_limited", 0);
            return;
        }

        let index = self.index();
        let started = Instant::now();
        let (status, body, skipped, content_type) = execute(self, &index, &route, limit, &mut span);
        record_answer(
            recorder,
            endpoint,
            status,
            started.elapsed().as_nanos() as u64,
        );
        if skipped > 0 {
            recorder.add_named("http.degraded_total", 1);
        }
        let extra = trace_headers(&span);
        if respond_full(stream, status, &body, skipped, 1, content_type, &extra).is_err() {
            recorder.add_named("http.write_errors", 1);
        }
        span.stage("respond");
        let cause = if skipped > 0 { "degraded_exact" } else { "" };
        self.log_access(&span, endpoint, status, cause, body.len() as u64);
    }

    /// The queue is full: answer an admission-exempt request (`/health`,
    /// `/ready`, `/metrics`, `/metrics-json`) inline from the accept
    /// loop, shed anything else with a typed 503. The header read is
    /// bounded (50ms, 1 KiB) so a slow client cannot stall accepting.
    fn overloaded(&self, stream: &mut TcpStream) {
        let mut buf = [0u8; 1024];
        let used = read_head_briefly(stream, &mut buf);
        let head = String::from_utf8_lossy(&buf[..used]);
        let (route, limit) = parse_route(head.lines().next().unwrap_or(""));
        let endpoint = route.endpoint();
        let recorder = &self.http.recorder;
        if admission_exempt(endpoint) && find_head_end(&buf[..used]).is_some() {
            let mut span = SpanRecorder::new(self.http.trace_id(&head));
            span.stage("parse");
            let index = self.index();
            let (status, body, skipped, content_type) =
                execute(self, &index, &route, limit, &mut span);
            record_answer(recorder, endpoint, status, span.total_ns());
            let extra = trace_headers(&span);
            if respond_full(stream, status, &body, skipped, 1, content_type, &extra).is_err() {
                recorder.add_named("http.write_errors", 1);
            }
            span.stage("respond");
            self.log_access(
                &span,
                endpoint,
                status,
                "overload_exempt",
                body.len() as u64,
            );
        } else {
            recorder.add_named("http.shed.queue_full", 1);
            recorder.add_named("http.shed_total", 1);
            recorder.add_named(status_key(503), 1);
            let body = "{\"error\":\"server overloaded, admission queue full\",\"shed\":true}";
            let retry = self.http.retry_after_secs();
            if respond_full(stream, 503, body, 0, retry, CONTENT_TYPE_JSON, &[]).is_err() {
                recorder.add_named("http.write_errors", 1);
            }
        }
    }

    fn answered_early(&self, span: &SpanRecorder, endpoint: &str, status: u16, cause: &str) {
        self.log_access(span, endpoint, status, cause, 0);
    }
}

/// A parsed request target, ready for rate limiting and execution.
pub(crate) enum Route {
    /// `/` or `/health`.
    Health,
    /// `/ready` — readiness (index loaded *and* not draining),
    /// distinct from liveness: a draining server is alive but not
    /// ready, so router probes eject it before the drain sweep sheds.
    Ready,
    /// `/stats`.
    Stats,
    /// `/get/<id>` — one clique by id (the router's unit of routing).
    Get(u64),
    /// `/max`.
    Max,
    /// `/containing/<v>`.
    Containing(u32),
    /// `/size/<lo>/<hi>`.
    Size(u32, u32),
    /// `/overlap/<v>/<w>`.
    Overlap(u32, u32),
    /// `/metrics` — Prometheus text exposition.
    Metrics,
    /// `/metrics-json` — the shutdown metrics snapshot, live.
    MetricsJson,
    /// Unknown path.
    NotFound,
    /// Non-GET method.
    MethodNotAllowed,
    /// Malformed request line or parameters.
    Bad(&'static str),
}

impl Route {
    pub(crate) fn endpoint(&self) -> &'static str {
        match self {
            Route::Health => "health",
            Route::Ready => "ready",
            Route::Stats => "stats",
            Route::Get(_) => "get",
            Route::Max => "max",
            Route::Containing(_) => "containing",
            Route::Size(..) => "size",
            Route::Overlap(..) => "overlap",
            Route::Metrics => "metrics",
            Route::MetricsJson => "metrics_json",
            Route::NotFound => "not_found",
            Route::MethodNotAllowed | Route::Bad(_) => "bad_request",
        }
    }
}

/// Parse the request line into a route + result limit. Total function:
/// any garbage maps to a typed `Route` variant, never a panic.
pub(crate) fn parse_route(request_line: &str) -> (Route, usize) {
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let target = parts.next().unwrap_or("");
    if method != "GET" {
        return (Route::MethodNotAllowed, 0);
    }
    if target.is_empty() || target.len() > 2048 {
        return (Route::Bad("malformed request target"), 0);
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let limit = parse_limit(query);
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    let route = match segments.as_slice() {
        [] | ["health"] => Route::Health,
        ["ready"] => Route::Ready,
        ["stats"] => Route::Stats,
        ["max"] => Route::Max,
        ["get", id] => match id.parse::<u64>() {
            Ok(id) => Route::Get(id),
            Err(_) => Route::Bad("clique id must be a number"),
        },
        ["metrics"] => Route::Metrics,
        ["metrics-json"] => Route::MetricsJson,
        ["containing", v] => match v.parse::<u32>() {
            Ok(v) => Route::Containing(v),
            Err(_) => Route::Bad("vertex must be a number"),
        },
        ["size", lo, hi] => match (lo.parse::<u32>(), hi.parse::<u32>()) {
            (Ok(lo), Ok(hi)) if lo <= hi => Route::Size(lo, hi),
            _ => Route::Bad("size range must be /size/<lo>/<hi> with lo <= hi"),
        },
        ["overlap", v, w] => match (v.parse::<u32>(), w.parse::<u32>()) {
            (Ok(v), Ok(w)) => Route::Overlap(v, w),
            _ => Route::Bad("vertices must be numbers"),
        },
        _ => Route::NotFound,
    };
    (route, limit)
}

/// Execute a parsed route. Returns status, body, the count of ids
/// skipped because their block is quarantined (degraded-exact), and the
/// content type. Index lookups record their split into the span: the
/// `postings` stage covers id-list reads and intersection, the `blocks`
/// stage covers materializing cliques from store blocks (cache hits and
/// decodes alike — the reader's `gsb_index_*` counters split those).
fn execute(
    state: &ServeState,
    index: &CliqueIndex,
    route: &Route,
    limit: usize,
    span: &mut SpanRecorder,
) -> (u16, String, u64, &'static str) {
    let json = CONTENT_TYPE_JSON;
    match route {
        Route::Health => (200, "{\"status\":\"ok\"}".into(), 0, json),
        Route::Ready => {
            if state.http.draining() {
                (503, "{\"ready\":false,\"draining\":true}".into(), 0, json)
            } else {
                (
                    200,
                    format!(
                        "{{\"ready\":true,\"draining\":false,\"generation\":{},\"cliques\":{}}}",
                        index.generation(),
                        index.len()
                    ),
                    0,
                    json,
                )
            }
        }
        Route::Stats => (200, stats_json(index), 0, json),
        Route::Get(id) => {
            // tombstoned ids decode fine but are no longer part of the
            // served set — a dead id answers like a missing one
            if !index.is_live(*id) {
                return (
                    404,
                    format!("{{\"error\":\"no clique with id {id}\"}}"),
                    0,
                    json,
                );
            }
            let result = index.get(*id);
            span.stage("blocks");
            match result {
                Ok(c) => (
                    200,
                    format!(
                        "{{\"id\":{id},\"size\":{},\"clique\":{}}}",
                        c.len(),
                        json_ids(&c)
                    ),
                    0,
                    json,
                ),
                Err(_) if *id >= index.len() => (
                    404,
                    format!("{{\"error\":\"no clique with id {id}\"}}"),
                    0,
                    json,
                ),
                Err(e) => (500, error_json(&e), 0, json),
            }
        }
        Route::Metrics => (200, render_promtext(state, index), 0, CONTENT_TYPE_PROM),
        Route::MetricsJson => (200, state.live_metrics_json(), 0, json),
        Route::Max => {
            let result = index.max_clique();
            span.stage("blocks");
            match result {
                Ok(Some(c)) => (
                    200,
                    format!("{{\"size\":{},\"clique\":{}}}", c.len(), json_ids(&c)),
                    0,
                    json,
                ),
                Ok(None) => (200, "{\"size\":0,\"clique\":[]}".into(), 0, json),
                Err(e) => (500, error_json(&e), 0, json),
            }
        }
        Route::Containing(v) => {
            let ids = index.containing(*v);
            span.stage("postings");
            let result = ids.and_then(|ids| {
                index
                    .materialize_degraded(ids.iter().take(limit).copied())
                    .map(|d| (ids, d))
            });
            span.stage("blocks");
            match result {
                Ok((ids, d)) => (
                    200,
                    format!(
                        "{{\"vertex\":{v},\"count\":{},\"ids\":{},\"cliques\":{}{}}}",
                        ids.len(),
                        json_u64s(&ids[..ids.len().min(limit)]),
                        json_cliques(&d.cliques),
                        degraded_field(d.skipped),
                    ),
                    d.skipped,
                    json,
                ),
                Err(e) => (500, error_json(&e), 0, json),
            }
        }
        Route::Size(lo, hi) => {
            // tombstone-aware: the run table filtered by the dead set,
            // so chained and compacted indexes answer identically
            let ids = index.ids_of_size(*lo, *hi);
            span.stage("postings");
            let count = ids.len() as u64;
            let first_id = ids.first().copied().unwrap_or(0);
            let take = (count as usize).min(limit);
            let result = index.materialize_degraded(ids.into_iter().take(take));
            span.stage("blocks");
            match result {
                Ok(d) => (
                    200,
                    format!(
                        "{{\"min\":{lo},\"max\":{hi},\"count\":{count},\"first_id\":{},\"cliques\":{}{}}}",
                        first_id,
                        json_cliques(&d.cliques),
                        degraded_field(d.skipped),
                    ),
                    d.skipped,
                    json,
                ),
                Err(e) => (500, error_json(&e), 0, json),
            }
        }
        Route::Overlap(v, w) => {
            let ids = index.overlap(*v, *w);
            span.stage("postings");
            let result = ids.and_then(|ids| {
                index
                    .materialize_degraded(ids.iter().take(limit).copied())
                    .map(|d| (ids, d))
            });
            span.stage("blocks");
            match result {
                Ok((ids, d)) => (
                    200,
                    format!(
                        "{{\"v\":{v},\"w\":{w},\"count\":{},\"ids\":{},\"cliques\":{}{}}}",
                        ids.len(),
                        json_u64s(&ids[..ids.len().min(limit)]),
                        json_cliques(&d.cliques),
                        degraded_field(d.skipped),
                    ),
                    d.skipped,
                    json,
                ),
                Err(e) => (500, error_json(&e), 0, json),
            }
        }
        Route::NotFound => (404, "{\"error\":\"no such endpoint\"}".into(), 0, json),
        Route::MethodNotAllowed => (405, "{\"error\":\"only GET is supported\"}".into(), 0, json),
        Route::Bad(message) => (400, format!("{{\"error\":\"{message}\"}}"), 0, json),
    }
}

/// The optional `"degraded":N` JSON suffix (empty for complete answers,
/// so healthy responses are byte-identical to the pre-quarantine ones).
fn degraded_field(skipped: u64) -> String {
    if skipped == 0 {
        String::new()
    } else {
        format!(",\"degraded\":{skipped}")
    }
}

fn parse_limit(query: &str) -> usize {
    for pair in query.split('&') {
        if let Some(v) = pair.strip_prefix("limit=") {
            if let Ok(k) = v.parse::<usize>() {
                return k;
            }
        }
    }
    1000
}

fn stats_json(index: &CliqueIndex) -> String {
    let s = index.stats();
    let histogram: Vec<String> = s
        .size_histogram
        .iter()
        .map(|(size, count)| format!("[{size},{count}]"))
        .collect();
    format!(
        "{{\"n\":{},\"cliques\":{},\"max_clique\":{},\"blocks\":{},\"store_bytes\":{},\"postings_bytes\":{},\"generation\":{},\"quarantined_blocks\":{},\"live\":{},\"tombstones\":{},\"delta_generations\":{},\"size_histogram\":[{}]}}",
        s.n,
        s.cliques,
        s.max_clique,
        s.blocks,
        s.store_bytes,
        s.postings_bytes,
        index.generation(),
        index.quarantined_blocks().len(),
        s.live,
        s.tombstones,
        s.delta_generations,
        histogram.join(",")
    )
}

fn error_json(e: &gsb_core::StoreError) -> String {
    format!("{{\"error\":{:?}}}", e.to_string())
}

fn json_ids(c: &[u32]) -> String {
    let items: Vec<String> = c.iter().map(u32::to_string).collect();
    format!("[{}]", items.join(","))
}

fn json_u64s(ids: &[u64]) -> String {
    let items: Vec<String> = ids.iter().map(u64::to_string).collect();
    format!("[{}]", items.join(","))
}

fn json_cliques(cliques: &[Clique]) -> String {
    let items: Vec<String> = cliques.iter().map(|c| json_ids(c)).collect();
    format!("[{}]", items.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn limit_parsing() {
        assert_eq!(parse_limit(""), 1000);
        assert_eq!(parse_limit("limit=5"), 5);
        assert_eq!(parse_limit("a=1&limit=7"), 7);
        assert_eq!(parse_limit("limit=x"), 1000);
    }

    #[test]
    fn route_parsing_is_total() {
        assert!(matches!(
            parse_route("GET /health HTTP/1.1").0,
            Route::Health
        ));
        assert!(matches!(parse_route("GET / HTTP/1.1").0, Route::Health));
        assert!(matches!(
            parse_route("GET /containing/7 HTTP/1.1").0,
            Route::Containing(7)
        ));
        assert!(matches!(
            parse_route("GET /size/3/5 HTTP/1.1").0,
            Route::Size(3, 5)
        ));
        assert!(matches!(
            parse_route("GET /size/5/3 HTTP/1.1").0,
            Route::Bad(_)
        ));
        assert!(matches!(
            parse_route("POST /health HTTP/1.1").0,
            Route::MethodNotAllowed
        ));
        assert!(matches!(parse_route("").0, Route::MethodNotAllowed));
        assert!(matches!(
            parse_route("GET /nope HTTP/1.1").0,
            Route::NotFound
        ));
        let long = format!("GET /{} HTTP/1.1", "a".repeat(4000));
        assert!(matches!(parse_route(&long).0, Route::Bad(_)));
        assert_eq!(parse_route("GET /max?limit=3 HTTP/1.1").1, 3);
    }

    #[test]
    fn metrics_routes_parse_and_are_admission_exempt() {
        assert!(matches!(
            parse_route("GET /metrics HTTP/1.1").0,
            Route::Metrics
        ));
        assert!(matches!(
            parse_route("GET /metrics-json HTTP/1.1").0,
            Route::MetricsJson
        ));
        assert!(admission_exempt("health"));
        assert!(admission_exempt("ready"));
        assert!(admission_exempt("metrics"));
        assert!(admission_exempt("metrics_json"));
        assert!(!admission_exempt("containing"));
        assert!(!admission_exempt("stats"));
        assert!(!admission_exempt("get"));
    }

    #[test]
    fn ready_and_get_routes_parse() {
        assert!(matches!(parse_route("GET /ready HTTP/1.1").0, Route::Ready));
        assert!(matches!(
            parse_route("GET /get/42 HTTP/1.1").0,
            Route::Get(42)
        ));
        assert!(matches!(
            parse_route("GET /get/x HTTP/1.1").0,
            Route::Bad(_)
        ));
        assert_eq!(Route::Ready.endpoint(), "ready");
        assert_eq!(Route::Get(0).endpoint(), "get");
    }

    #[test]
    fn token_bucket_drains_and_refills() {
        let b = TokenBuckets::new(1000.0, 2);
        assert!(b.try_take("max"));
        assert!(b.try_take("max"));
        // burst of 2 exhausted; other endpoints unaffected
        assert!(!b.try_take("max"));
        assert!(b.try_take("stats"));
        // 1000 tokens/s refill: a couple of ms is plenty for one token
        std::thread::sleep(Duration::from_millis(5));
        assert!(b.try_take("max"));
    }

    #[test]
    fn metrics_json_shape() {
        let r = AtomicRecorder::new();
        r.counter(requests_key("containing")).add(3);
        r.histogram(latency_key("containing")).observe(1500);
        r.counter("http.shed_total").add(2);
        r.counter("http.shed.queue_full").add(2);
        let json = render_metrics(&r, 5, 3, Duration::from_millis(1200));
        let parsed = gsb_telemetry::json::parse(&json).expect("valid metrics json");
        assert_eq!(parsed.u64_or_zero("connections"), 5);
        assert_eq!(parsed.u64_or_zero("requests"), 3);
        assert_eq!(parsed.u64_or_zero("shed_total"), 2);
        let shed = parsed.get("shed").expect("shed breakdown");
        assert_eq!(shed.u64_or_zero("queue_full"), 2);
        let endpoints = parsed.get("endpoints").expect("endpoints object");
        let containing = endpoints.get("containing").expect("containing entry");
        assert_eq!(containing.u64_or_zero("requests"), 3);
        assert!(containing.u64_or_zero("p99_ns") >= 1500);
    }
}
