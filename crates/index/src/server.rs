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
//! * **Atomic hot-reload.** With `reload` set (a directory and a poll
//!   interval), a watcher thread polls `index.meta`; on change it
//!   opens and fully validates the new index off the serving path,
//!   then swaps the shared `Arc<CliqueIndex>`. In-flight requests keep
//!   their snapshot — no request is ever dropped or mixed across
//!   generations.
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
//! the drain sweep, the HTTP metric families and the metrics file — is
//! the crate's HTTP core (`http.rs`), which `gsb router` runs on too.
//! The routes, the endpoint list and the answer bodies are the query
//! API (`api.rs`), which the router renders its merged answers with.
//! This module answers that API from one index: `execute` computes
//! each answer, and adds rate limits, hot-reload and the access log.

use crate::api::{admission_exempt, parse_route, Answer, Endpoint, ListAnswer, ListQuery, Route};
use crate::format::{FlatCliques, IndexMeta};
use crate::http::{
    find_head_end, header_value, read_head_briefly, respond_full, status_key, total_requests,
    trace_headers, write_core_families, write_counters, Http, HttpConfig, Reply, Running, Service,
    CONTENT_TYPE_JSON, CONTENT_TYPE_PROM, CORE_COUNTERS, STATUSES,
};
use crate::reader::{CliqueIndex, Matches};
use gsb_core::ShutdownToken;
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
    /// Hot-reload: the index directory whose `index.meta` is watched,
    /// and the poll interval. `None` disables reloading.
    pub reload: Option<(PathBuf, Duration)>,
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
            reload: None,
            metrics_out: None,
            access_log: None,
            access_log_max_bytes: 64 * 1024 * 1024,
            slow_query_ms: None,
            slow_query_log: None,
            trace_seed: 17,
        }
    }
}

/// What the drained server did, returned by [`Server::run`] and
/// [`Running::wait`].
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
            buckets: Endpoint::ALL
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
    fn try_take(&self, endpoint: Endpoint) -> bool {
        let mut b = self.buckets[endpoint as usize].lock().unwrap();
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
        render_metrics(&self.http.recorder, self.http.started.elapsed())
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
            self.http.recorder.add("http.slow_queries", 1);
        }
        let slow_log = self.slow.as_ref().filter(|_| slow);
        if self.access.is_none() && slow_log.is_none() {
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
        for log in self.access.iter().chain(slow_log) {
            if log.lock().unwrap().append_line(&line).is_err() {
                self.http.recorder.add("http.access_log_errors", 1);
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
        self.serve(shutdown, &|| {})
    }

    /// Serve on a thread of its own until the returned handle drains
    /// it or is dropped; returns once the acceptor runs.
    pub fn start(self) -> std::io::Result<Running<ServeReport>> {
        let addr = self.local_addr()?;
        Running::start(addr, "server", move |shutdown, ready| {
            self.serve(shutdown, ready)
        })
    }

    /// [`Server::run`], calling `ready` once the acceptor runs.
    fn serve(self, shutdown: &ShutdownToken, ready: &dyn Fn()) -> std::io::Result<ServeReport> {
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
        let watcher = match &c.reload {
            Some((dir, poll)) => {
                let state = Arc::clone(&state);
                let shutdown = shutdown.clone();
                let (dir, poll) = (dir.clone(), *poll);
                Some(
                    std::thread::Builder::new()
                        .name("gsb-serve-reload".into())
                        .spawn(move || watch_index(&dir, poll, &state, &shutdown))?,
                )
            }
            None => None,
        };

        let connections = crate::http::run(&self.listener, &state, shutdown, ready)?;
        if let Some(w) = watcher {
            let _ = w.join();
        }

        let r = &state.http.recorder;
        let requests = total_requests(r);
        let metrics_json = state.live_metrics_json();
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

/// Poll `index.meta`; when it commits another generation than the one
/// served (or does not parse), open + validate the new index off the
/// serving path and swap it in atomically. Comparing against what is
/// served misses no commit, however late after the index was opened
/// this thread first runs. A failed open keeps the old index serving
/// and is retried at the next poll.
fn watch_index(
    dir: &std::path::Path,
    poll: Duration,
    state: &ServeState,
    shutdown: &ShutdownToken,
) {
    let meta_path = dir.join(crate::format::META_FILE);
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
        let served = state.index.lock().unwrap().generation();
        if IndexMeta::from_text(&text).is_ok_and(|meta| meta.generation == served) {
            continue;
        }
        match CliqueIndex::open(dir) {
            Ok(new_index) => {
                let generation = new_index.generation();
                *state.index.lock().unwrap() = Arc::new(new_index);
                state.http.recorder.add("http.reloads", 1);
                eprintln!("gsb serve: hot-reloaded index (generation {generation})");
            }
            Err(e) => {
                // Keep serving the old index; the manifest still differs
                // from it, so the next poll retries the reload.
                state.http.recorder.add("http.reload_errors", 1);
                eprintln!("gsb serve: index reload failed, keeping current index: {e}");
            }
        }
    }
}

/// The per-endpoint latency/QPS export plus the overload counters: one
/// JSON object per endpoint with count, mean, max, coarse log₂
/// percentiles, and rate-limit saturation.
fn render_metrics(recorder: &AtomicRecorder, elapsed: Duration) -> String {
    let connections = recorder.counter("http.connections").get();
    let requests = total_requests(recorder);
    let wall_ms = elapsed.as_millis() as u64;
    let qps = if elapsed.as_secs_f64() > 0.0 {
        requests as f64 / elapsed.as_secs_f64()
    } else {
        0.0
    };
    let mut endpoints = String::new();
    for ep in Endpoint::ALL {
        let count = recorder.counter(ep.requests_key()).get();
        let limited = recorder.counter(ep.rate_limited_key()).get();
        if count == 0 && limited == 0 {
            continue;
        }
        let h: Histogram = recorder.histogram(ep.latency_key());
        if !endpoints.is_empty() {
            endpoints.push(',');
        }
        endpoints.push_str(&format!(
            "\n    \"{}\": {{\"requests\":{count},\"rate_limited\":{limited},\"mean_ns\":{:.0},\"p50_ns\":{},\"p90_ns\":{},\"p99_ns\":{},\"max_ns\":{}}}",
            ep.name(),
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

/// Shed causes: `cause` label, recorder key.
const SHED_CAUSES: [(&str, &str); 4] = [
    ("queue_full", "http.shed.queue_full"),
    ("deadline", "http.shed.deadline"),
    ("slow_client", "http.shed.slow_client"),
    ("draining", "http.shed.draining"),
];

/// The server's own plain counters: family name suffix, recorder key,
/// help.
const PLAIN_COUNTERS: [(&str, &str, &str); 6] = [
    (
        "degraded_total",
        "http.degraded_total",
        "Answers served degraded-exact.",
    ),
    (
        "slow_queries_total",
        "http.slow_queries",
        "Requests over the slow-query threshold.",
    ),
    (
        "reloads_total",
        "http.reloads",
        "Successful index hot-reloads.",
    ),
    (
        "reload_errors_total",
        "http.reload_errors",
        "Hot-reloads that failed validation.",
    ),
    (
        "rate_limited_requests_total",
        "http.rate_limited_total",
        "429 answers, all endpoints.",
    ),
    (
        "access_log_errors_total",
        "http.access_log_errors",
        "Access-log lines dropped.",
    ),
];

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
    write_core_families(&mut w, r, "gsb_http");

    let limited = w.family(
        "gsb_http_rate_limited_total",
        PromKind::Counter,
        "Requests answered 429 by the per-endpoint token bucket.",
    );
    for ep in Endpoint::ALL {
        let value = r.counter(ep.rate_limited_key()).get();
        w.sample(&limited, &[("endpoint", ep.name())], value);
    }

    let shed = w.family(
        "gsb_http_shed_total",
        PromKind::Counter,
        "Connections shed by admission control, by cause.",
    );
    for (cause, key) in SHED_CAUSES {
        w.sample(&shed, &[("cause", cause)], r.counter(key).get());
    }
    write_counters(&mut w, r, "gsb_http", &PLAIN_COUNTERS);

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
    let mut claimed: std::collections::BTreeSet<&str> =
        ["http.shed_total", "http.status.other"].into();
    claimed.extend(SHED_CAUSES.iter().map(|(_, key)| *key));
    claimed.extend(CORE_COUNTERS.iter().map(|(_, key, _)| *key));
    claimed.extend(PLAIN_COUNTERS.iter().map(|(_, key, _)| *key));
    for ep in Endpoint::ALL {
        claimed.insert(ep.requests_key());
        claimed.insert(ep.rate_limited_key());
    }
    claimed.extend(STATUSES.iter().map(|(_, key, _)| *key));
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
            self.log_access(&span, endpoint.name(), 503, "caller_deadline", 0);
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
            recorder.add(endpoint.rate_limited_key(), 1);
            recorder.add("http.rate_limited_total", 1);
            recorder.add(status_key(429), 1);
            let body = "{\"error\":\"rate limit exceeded for this endpoint\"}";
            let extra = trace_headers(&span);
            if respond_full(stream, 429, body, 0, 1, CONTENT_TYPE_JSON, &extra).is_err() {
                recorder.add("http.write_errors", 1);
            }
            span.stage("respond");
            self.log_access(&span, endpoint.name(), 429, "rate_limited", 0);
            return;
        }

        let index = self.index();
        let started = Instant::now();
        let reply = execute(self, &index, &route, limit, &mut span);
        let (status, ref body, skipped, _) = reply;
        if skipped > 0 {
            recorder.add("http.degraded_total", 1);
        }
        let ns = started.elapsed().as_nanos() as u64;
        self.http.answered(stream, endpoint, &reply, ns, &span);
        span.stage("respond");
        let cause = if skipped > 0 { "degraded_exact" } else { "" };
        self.log_access(&span, endpoint.name(), status, cause, body.len() as u64);
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
        if admission_exempt(endpoint) && find_head_end(&buf[..used]).is_some() {
            let mut span = SpanRecorder::new(self.http.trace_id(&head));
            span.stage("parse");
            let index = self.index();
            let reply = execute(self, &index, &route, limit, &mut span);
            self.http
                .answered(stream, endpoint, &reply, span.total_ns(), &span);
            span.stage("respond");
            let (status, ref body, ..) = reply;
            let bytes = body.len() as u64;
            self.log_access(&span, endpoint.name(), status, "overload_exempt", bytes);
        } else {
            let message = "server overloaded, admission queue full";
            self.http
                .refuse(stream, 503, message, "http.shed.queue_full");
        }
    }

    fn answered_early(&self, span: &SpanRecorder, endpoint: &str, status: u16, cause: &str) {
        self.log_access(span, endpoint, status, cause, 0);
    }
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
) -> Reply {
    let json = CONTENT_TYPE_JSON;
    let answer = match route {
        Route::Health => return (200, "{\"status\":\"ok\"}".into(), 0, json),
        Route::Ready if state.http.draining() => {
            return (503, "{\"ready\":false,\"draining\":true}".into(), 0, json)
        }
        Route::Ready => {
            let body = format!(
                "{{\"ready\":true,\"draining\":false,\"generation\":{},\"cliques\":{}}}",
                index.generation(),
                index.len()
            );
            return (200, body, 0, json);
        }
        Route::Stats => return (200, stats_json(index), 0, json),
        Route::Metrics => return (200, render_promtext(state, index), 0, CONTENT_TYPE_PROM),
        Route::MetricsJson => return (200, state.live_metrics_json(), 0, json),
        // tombstoned ids decode fine but are no longer part of the
        // served set — a dead id answers like a missing one
        Route::Get(id) if !index.is_live(*id) => Answer::no_clique(*id),
        Route::Get(id) => {
            let result = index.get(*id);
            span.stage("blocks");
            match result {
                Ok(clique) => Answer::Clique { id: *id, clique },
                Err(_) if *id >= index.len() => Answer::no_clique(*id),
                Err(e) => Answer::Error(500, e.to_string()),
            }
        }
        Route::Max => {
            let result = index.max_clique();
            span.stage("blocks");
            match result {
                Ok(c) => Answer::Max(c.unwrap_or_default()),
                Err(e) => Answer::Error(500, e.to_string()),
            }
        }
        Route::Containing(v) => list(index, ListQuery::Containing(*v), limit, span),
        Route::Overlap(v, w) => list(index, ListQuery::Overlap(*v, *w), limit, span),
        Route::Size(lo, hi) => list(index, ListQuery::Size(*lo, *hi), limit, span),
        Route::NotFound | Route::MethodNotAllowed | Route::Bad(_) => route.error(),
    };
    answer.reply()
}

/// Answer a list query: how many live cliques match, and the ids and
/// cliques of the first `limit` of them, copied from their blocks into
/// one flat buffer.
fn list(index: &CliqueIndex, query: ListQuery, limit: usize, span: &mut SpanRecorder) -> Answer {
    let matches = match query {
        ListQuery::Containing(v) => index.containing(v).map(|ids| Matches::first(ids, limit)),
        ListQuery::Overlap(v, w) => index.overlap(v, w).map(|ids| Matches::first(ids, limit)),
        // counted from the size runs less their tombstones, so chained
        // and compacted indexes answer identically
        ListQuery::Size(lo, hi) => Ok(index.size_matches(lo, hi, limit)),
    };
    span.stage("postings");
    let result = matches.and_then(|m| {
        let mut cliques = FlatCliques::default();
        let degraded = index.read_degraded(m.ids.iter().copied(), &mut cliques)?;
        Ok(ListAnswer {
            count: m.count,
            ids: m.ids,
            first_id: m.first_id,
            cliques,
            degraded,
            missing_shards: Vec::new(),
        })
    });
    span.stage("blocks");
    match result {
        Ok(list) => Answer::List(query, list),
        Err(e) => Answer::Error(500, e.to_string()),
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_bucket_drains_and_refills() {
        let b = TokenBuckets::new(1000.0, 2);
        assert!(b.try_take(Endpoint::Max));
        assert!(b.try_take(Endpoint::Max));
        // burst of 2 exhausted; other endpoints unaffected
        assert!(!b.try_take(Endpoint::Max));
        assert!(b.try_take(Endpoint::Stats));
        // 1000 tokens/s refill: a couple of ms is plenty for one token
        std::thread::sleep(Duration::from_millis(5));
        assert!(b.try_take(Endpoint::Max));
    }

    #[test]
    fn metrics_json_shape() {
        let r = AtomicRecorder::new();
        r.counter(Endpoint::Containing.requests_key()).add(3);
        r.histogram(Endpoint::Containing.latency_key())
            .observe(1500);
        r.counter("http.shed_total").add(2);
        r.counter("http.shed.queue_full").add(2);
        r.counter("http.connections").add(5);
        let json = render_metrics(&r, Duration::from_millis(1200));
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
