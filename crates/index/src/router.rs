//! `gsb router` — a fault-tolerant front for a sharded, replicated
//! tier of `gsb serve` backends.
//!
//! One `gsb serve` process is a single fault domain: a stall, crash,
//! or corrupt block takes the whole query surface down. The router
//! turns ordinary backends into a survivable tier without any backend
//! cooperation beyond the HTTP surface they already have:
//!
//! * **Static topology.** A text file (see [`Topology`]) lists shards
//!   by global clique-id range — valid because enumeration order is
//!   size order, so contiguous id ranges are also contiguous size
//!   ranges (DESIGN.md §11) — and N replica addresses per shard.
//!   `containing`/`overlap` scatter-gather across every shard;
//!   `of_size` goes only to the shards whose size coverage intersects
//!   the query; `get` goes to the owning shard (global id − `id_lo`);
//!   `max` goes to the first shard whose sizes reach the top size,
//!   where the top size run starts.
//! * **Circuit breakers.** Every backend carries a closed → open →
//!   half-open breaker driven by *passive* failure accounting on the
//!   request path and *active* `GET /ready` probes (a draining backend
//!   answers 503 there first, so it is ejected before it sheds). After
//!   `breaker_cooldown` one half-open trial is admitted; success
//!   closes the breaker, failure re-opens it.
//! * **Deadline-carved retries with jittered backoff.** Every try gets
//!   a timeout carved from what is left of the request deadline
//!   (capped at `try_timeout`), and that try budget is propagated to
//!   the backend via `X-Gsb-Deadline-Ms` so backends shed work the
//!   router has already given up on. Failed tries fail over to the
//!   next replica after a seeded, jittered exponential backoff
//!   ([`gsb_core::RetryPolicy`]).
//! * **Tail-latency hedging.** When a try is slower than the shard's
//!   observed `hedge_percentile` latency (floored at `hedge_min`), a
//!   second try races on another replica; the first answer wins and
//!   the loser is abandoned (it settles its own breaker outcome when
//!   it ends, off the request path).
//! * **Degraded-exact partial answers.** If every replica of a shard
//!   is down, scatter queries answer `200` from the surviving shards
//!   with `X-Gsb-Degraded` and a `"missing_shards"` JSON field —
//!   never a blind 500 — extending the degraded-exact convention of
//!   the backend's block quarantine (whose `"degraded"` counts also
//!   pass through). Only when *no* shard has a live replica does the
//!   router answer a typed 503.
//!
//! * **One server's answers.** The router speaks the same query API as
//!   `gsb serve` (`api.rs`): it reads each shard's list and `/get`
//!   bodies back into the API's types, merges lists by its one rule and
//!   renders them with the same code. A healthy tier therefore answers
//!   every query with the bytes one server over the unsplit index
//!   would; `tests/router_equivalence.rs` pins that.
//!
//! The front runs on the same HTTP core as `gsb serve` (`http.rs`):
//! blocking accept with a shutdown waker, bounded admission queue,
//! request-deadline budget from accept, worker panic containment, and
//! the drain sweep. Only the queue-full policy differs: where the
//! server still answers its probe and scrape endpoints inline, the
//! router sheds every request with a typed `503`. On top come `X-Gsb-Trace`
//! propagation to backends (so `gsb tail` stitches router→backend
//! spans) and `/metrics` Prometheus output with per-backend
//! breaker-state gauges and hedge/retry counters.
//!
//! Routing a request starts no thread in steady state. The worker that
//! owns the request runs the first queried shard's request itself and
//! hands every other shard to a set of reused, parked threads. A shard
//! request runs its primary try on its own thread until the answer
//! arrives or the hedge delay passes; only a try that outlives the
//! hedge delay moves to a reused thread, with the bytes read so far,
//! and races the hedge try there. A job goes to a parked thread when
//! one is idle and to a new thread otherwise, so no job waits for a
//! thread; at most `threads × shards` threads stay parked, and they
//! exit when the router does. Beyond the HTTP core's workers and
//! shutdown waker, the router starts only these and its prober.

use crate::api::{missing_field, parse_clique, parse_route, Answer, ListAnswer, ListQuery, Route};
use crate::http::{
    total_requests, write_core_families, write_counters, Http, HttpConfig, Reply, Running, Service,
    CONTENT_TYPE_JSON, CONTENT_TYPE_PROM,
};
use crate::shard::ShardSummary;
use gsb_core::{RetryPolicy, ShutdownToken, StoreError};
use gsb_rng::SplitMix64;
use gsb_telemetry::json::parse as json_parse;
use gsb_telemetry::promtext::{PromKind, PromWriter};
use gsb_telemetry::trace::SpanRecorder;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, Weak};
use std::time::{Duration, Instant};

/// Magic first line of a topology file.
const TOPOLOGY_MAGIC: &str = "gsb-topology v1";

/// One shard of the tier: its slice of the global clique-id space, the
/// clique sizes it covers, and the replica addresses serving it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardSpec {
    /// First global clique id owned (inclusive).
    pub id_lo: u64,
    /// One past the last global clique id owned (exclusive).
    pub id_hi: u64,
    /// Smallest clique size stored in the shard (inclusive).
    pub size_lo: u32,
    /// Largest clique size stored in the shard (inclusive).
    pub size_hi: u32,
    /// Replica addresses (`ip:port`), each an ordinary `gsb serve`.
    pub replicas: Vec<String>,
}

impl ShardSpec {
    /// The spec of a shard [`split_index`](crate::split_index) wrote,
    /// served by `replicas`.
    pub fn new(shard: &ShardSummary, replicas: Vec<String>) -> ShardSpec {
        ShardSpec {
            id_lo: shard.id_lo,
            id_hi: shard.id_hi,
            size_lo: shard.size_lo,
            size_hi: shard.size_hi,
            replicas,
        }
    }
}

/// The static routing table: shards in ascending, contiguous id order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Topology {
    /// The shards, ascending by id range.
    pub shards: Vec<ShardSpec>,
}

impl Topology {
    /// Parse the greppable text format:
    ///
    /// ```text
    /// gsb-topology v1
    /// # comments and blank lines are ignored
    /// shard=0 ids=0..150 sizes=3..5 replicas=127.0.0.1:7701,127.0.0.1:7702
    /// shard=1 ids=150..235 sizes=5..9 replicas=127.0.0.1:7703,127.0.0.1:7704
    /// ```
    ///
    /// `ids` is a half-open global clique-id range; ranges must be
    /// contiguous from 0. `sizes` is the inclusive clique-size
    /// coverage (`of_size` routing). Every replica must parse as a
    /// socket address.
    pub fn from_text(text: &str) -> Result<Topology, StoreError> {
        const CTX: &str = "topology file";
        let mut lines = text.lines();
        if lines.next().map(str::trim) != Some(TOPOLOGY_MAGIC) {
            return Err(StoreError::Codec {
                context: "topology file: missing `gsb-topology v1` header",
            });
        }
        let mut shards = Vec::new();
        for line in lines {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut shard_no = None;
            let mut ids = None;
            let mut sizes = None;
            let mut replicas: Vec<String> = Vec::new();
            for token in line.split_whitespace() {
                let Some((key, value)) = token.split_once('=') else {
                    return Err(StoreError::Codec { context: CTX });
                };
                match key {
                    "shard" => {
                        shard_no = Some(value.parse::<usize>().map_err(|_| StoreError::Codec {
                            context: "topology file: shard ordinal",
                        })?);
                    }
                    "ids" => {
                        ids = Some(parse_range(
                            value,
                            "topology file: malformed id range (want lo..hi)",
                        )?)
                    }
                    "sizes" => {
                        sizes = Some(parse_range(
                            value,
                            "topology file: malformed size range (want lo..hi)",
                        )?)
                    }
                    "replicas" => {
                        for addr in value.split(',').filter(|a| !a.is_empty()) {
                            addr.parse::<SocketAddr>().map_err(|_| StoreError::Codec {
                                context: "topology file: replica is not ip:port",
                            })?;
                            replicas.push(addr.to_string());
                        }
                    }
                    _ => return Err(StoreError::Codec { context: CTX }),
                }
            }
            let (Some(shard_no), Some((id_lo, id_hi)), Some((size_lo, size_hi))) =
                (shard_no, ids, sizes)
            else {
                return Err(StoreError::Codec {
                    context: "topology file: shard line needs shard=, ids=, sizes=, replicas=",
                });
            };
            if shard_no != shards.len() {
                return Err(StoreError::Codec {
                    context: "topology file: shard ordinals must ascend from 0",
                });
            }
            if replicas.is_empty() {
                return Err(StoreError::Codec {
                    context: "topology file: shard has no replicas",
                });
            }
            let expected_lo = shards.last().map_or(0, |s: &ShardSpec| s.id_hi);
            if id_lo != expected_lo || id_hi <= id_lo {
                return Err(StoreError::Codec {
                    context: "topology file: id ranges must be contiguous from 0",
                });
            }
            if size_hi < size_lo {
                return Err(StoreError::Codec {
                    context: "topology file: size range inverted",
                });
            }
            shards.push(ShardSpec {
                id_lo,
                id_hi,
                size_lo,
                size_hi,
                replicas,
            });
        }
        if shards.is_empty() {
            return Err(StoreError::Codec {
                context: "topology file: no shards",
            });
        }
        Ok(Topology { shards })
    }

    /// Render the same text [`Topology::from_text`] parses.
    pub fn to_text(&self) -> String {
        let mut out = String::from(TOPOLOGY_MAGIC);
        out.push('\n');
        for (k, s) in self.shards.iter().enumerate() {
            out.push_str(&format!(
                "shard={k} ids={}..{} sizes={}..{} replicas={}\n",
                s.id_lo,
                s.id_hi,
                s.size_lo,
                s.size_hi,
                s.replicas.join(",")
            ));
        }
        out
    }

    /// Read and parse a topology file.
    pub fn load(path: &Path) -> Result<Topology, StoreError> {
        let text = std::fs::read_to_string(path)?;
        Topology::from_text(&text)
    }

    /// The shard owning global clique id `id`, if any.
    pub fn owner_of(&self, id: u64) -> Option<usize> {
        self.shards
            .iter()
            .position(|s| id >= s.id_lo && id < s.id_hi)
    }

    /// Shards whose size coverage intersects `lo..=hi`.
    pub fn shards_for_sizes(&self, lo: u32, hi: u32) -> Vec<usize> {
        self.shards
            .iter()
            .enumerate()
            .filter(|(_, s)| s.size_lo <= hi && lo <= s.size_hi)
            .map(|(k, _)| k)
            .collect()
    }

    /// Total cliques across every shard.
    pub fn total_cliques(&self) -> u64 {
        self.shards.last().map_or(0, |s| s.id_hi)
    }
}

/// A `lo..hi` range; `what` names it in the error.
fn parse_range<T: std::str::FromStr>(
    value: &str,
    what: &'static str,
) -> Result<(T, T), StoreError> {
    let err = || StoreError::Codec { context: what };
    let (lo, hi) = value.split_once("..").ok_or_else(err)?;
    Ok((
        lo.parse().map_err(|_| err())?,
        hi.parse().map_err(|_| err())?,
    ))
}

/// Router tuning knobs.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Worker threads answering client requests.
    pub threads: usize,
    /// Per-connection socket read/write timeout (client side).
    pub deadline: Duration,
    /// Per-request deadline budget, measured from accept; every
    /// backend try is carved from what remains of it.
    pub request_deadline: Duration,
    /// Bounded accept-queue depth (excess shed with a typed 503).
    pub queue_limit: usize,
    /// Cap on request-head bytes.
    pub max_header_bytes: usize,
    /// Interval between active `/ready` probes of every backend.
    pub probe_interval: Duration,
    /// Consecutive failures (passive or probe) that open a breaker.
    pub breaker_failures: u32,
    /// How long an open breaker waits before admitting one half-open
    /// trial.
    pub breaker_cooldown: Duration,
    /// Upper bound on any single backend try (the actual timeout is
    /// `min(try_timeout, remaining deadline)`).
    pub try_timeout: Duration,
    /// Latency percentile of recent shard answers at which a hedged
    /// second try launches (`0.0` disables hedging).
    pub hedge_percentile: f64,
    /// Floor for the hedge delay (also used before any latency has
    /// been observed).
    pub hedge_min: Duration,
    /// Seed for retry jitter and replica rotation.
    pub retry_seed: u64,
    /// Seed for the router's trace-id generator.
    pub trace_seed: u64,
    /// Where to write the metrics JSON at shutdown.
    pub metrics_out: Option<PathBuf>,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            threads: 4,
            deadline: Duration::from_secs(10),
            request_deadline: Duration::from_secs(5),
            queue_limit: 128,
            max_header_bytes: 8192,
            probe_interval: Duration::from_millis(250),
            breaker_failures: 3,
            breaker_cooldown: Duration::from_millis(1000),
            try_timeout: Duration::from_secs(1),
            hedge_percentile: 0.95,
            hedge_min: Duration::from_millis(20),
            retry_seed: 0x5343_3035,
            trace_seed: 17,
            metrics_out: None,
        }
    }
}

/// What the drained router did, returned by [`Router::run`] and
/// [`Running::wait`].
#[derive(Clone, Debug, Default)]
pub struct RouterReport {
    /// Client connections accepted.
    pub connections: u64,
    /// Requests answered with a routed response (any status).
    pub requests: u64,
    /// Connections shed by admission control.
    pub shed: u64,
    /// Backend tries that failed and were retried/failed over.
    pub retries: u64,
    /// Hedged second tries launched.
    pub hedges: u64,
    /// Hedged tries that won the race.
    pub hedge_wins: u64,
    /// Scatter answers that were missing at least one shard.
    pub degraded_answers: u64,
    /// The metrics JSON (also written to `metrics_out` when set).
    pub metrics_json: String,
}

/// Breaker states double as the `gsb_router_backend_state` gauge.
const BREAKER_CLOSED: u8 = 0;
const BREAKER_HALF_OPEN: u8 = 1;
const BREAKER_OPEN: u8 = 2;

struct Breaker {
    state: u8,
    consecutive_failures: u32,
    opened_at: Option<Instant>,
    trial_inflight: bool,
}

/// One backend replica: address plus breaker and counters.
struct Backend {
    addr: String,
    sock: SocketAddr,
    shard: usize,
    breaker: Mutex<Breaker>,
    successes_total: AtomicU64,
    failures_total: AtomicU64,
    probe_failures_total: AtomicU64,
}

impl Backend {
    fn new(addr: &str, shard: usize) -> Backend {
        Backend {
            addr: addr.to_string(),
            // Topology validation guarantees this parses.
            sock: addr.parse().expect("validated socket address"),
            shard,
            breaker: Mutex::new(Breaker {
                state: BREAKER_CLOSED,
                consecutive_failures: 0,
                opened_at: None,
                trial_inflight: false,
            }),
            successes_total: AtomicU64::new(0),
            failures_total: AtomicU64::new(0),
            probe_failures_total: AtomicU64::new(0),
        }
    }

    /// May a request be sent to this backend right now? An open
    /// breaker admits one half-open trial once the cooldown elapses.
    fn admit(&self, cooldown: Duration) -> bool {
        let mut b = self.breaker.lock().unwrap();
        match b.state {
            BREAKER_CLOSED => true,
            BREAKER_HALF_OPEN => {
                if b.trial_inflight {
                    false
                } else {
                    b.trial_inflight = true;
                    true
                }
            }
            _ => {
                if b.opened_at.is_some_and(|t| t.elapsed() >= cooldown) && !b.trial_inflight {
                    b.state = BREAKER_HALF_OPEN;
                    b.trial_inflight = true;
                    true
                } else {
                    false
                }
            }
        }
    }

    fn on_success(&self) {
        self.successes_total.fetch_add(1, Ordering::Relaxed);
        let mut b = self.breaker.lock().unwrap();
        b.state = BREAKER_CLOSED;
        b.consecutive_failures = 0;
        b.opened_at = None;
        b.trial_inflight = false;
    }

    fn on_failure(&self, threshold: u32) {
        self.failures_total.fetch_add(1, Ordering::Relaxed);
        let mut b = self.breaker.lock().unwrap();
        b.consecutive_failures = b.consecutive_failures.saturating_add(1);
        b.trial_inflight = false;
        if b.state == BREAKER_HALF_OPEN || b.consecutive_failures >= threshold.max(1) {
            b.state = BREAKER_OPEN;
            b.opened_at = Some(Instant::now());
        }
    }

    fn state_gauge(&self) -> u8 {
        self.breaker.lock().unwrap().state
    }
}

/// Recent shard latencies (winner tries only), for the hedge delay.
struct LatencyWindow {
    ring: Mutex<Ring>,
}

const LATENCY_WINDOW: usize = 128;

/// The newest `len` samples; once full, `next` overwrites the oldest.
struct Ring {
    samples: [u64; LATENCY_WINDOW],
    len: usize,
    next: usize,
}

impl LatencyWindow {
    fn new() -> Self {
        LatencyWindow {
            ring: Mutex::new(Ring {
                samples: [0; LATENCY_WINDOW],
                len: 0,
                next: 0,
            }),
        }
    }

    fn record(&self, ns: u64) {
        let mut r = self.ring.lock().expect("latency window lock poisoned");
        let next = r.next;
        r.samples[next] = ns;
        r.next = (next + 1) % LATENCY_WINDOW;
        r.len = (r.len + 1).min(LATENCY_WINDOW);
    }

    /// Upper bound of the `q` quantile over the window (None until a
    /// few samples exist — hedging then falls back to `hedge_min`).
    fn percentile(&self, q: f64) -> Option<Duration> {
        // Select on a copy, so the lock is held for a memcpy only.
        let (mut samples, len) = {
            let r = self.ring.lock().expect("latency window lock poisoned");
            (r.samples, r.len)
        };
        if len < 8 {
            return None;
        }
        let rank = ((len as f64 - 1.0) * q.clamp(0.0, 1.0)).round() as usize;
        let (_, nth, _) = samples[..len].select_nth_unstable(rank.min(len - 1));
        Some(Duration::from_nanos(*nth))
    }
}

/// A unit of work for a reused thread.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// The channels of parked threads, each waiting for its next job;
/// `None` once the set is dropped.
type Parked = Mutex<Option<Vec<mpsc::Sender<Job>>>>;

/// Parked threads the request path hands work to, so routing a request
/// starts no thread in steady state. A job goes to a parked thread if
/// one is idle and to a new thread otherwise: no job ever waits for a
/// thread, so a stalled backend cannot starve a try. A thread that
/// finishes a job parks again unless `cap` threads are already idle,
/// and parked threads exit once the set is dropped.
struct Threads {
    parked: Arc<Parked>,
    cap: usize,
    /// Threads started over the set's life.
    started: AtomicU64,
}

impl Threads {
    fn new(cap: usize) -> Threads {
        Threads {
            parked: Arc::new(Mutex::new(Some(Vec::new()))),
            cap,
            started: AtomicU64::new(0),
        }
    }

    /// Run `job` on a parked thread, or on a new one if none is idle.
    fn run(&self, job: impl FnOnce() + Send + 'static) {
        let mut job: Job = Box::new(job);
        let idle = lock_parked(&self.parked).as_mut().and_then(Vec::pop);
        if let Some(thread) = idle {
            match thread.send(job) {
                Ok(()) => return,
                Err(mpsc::SendError(back)) => job = back,
            }
        }
        self.started.fetch_add(1, Ordering::Relaxed);
        let (parked, cap) = (Arc::clone(&self.parked), self.cap);
        std::thread::Builder::new()
            .name("gsb-router-job".into())
            .spawn(move || reused_thread(&parked, cap, job))
            .expect("the OS refused to start a router thread");
    }
}

impl Drop for Threads {
    fn drop(&mut self) {
        // Dropping the parked threads' senders ends their wait.
        if let Ok(mut parked) = self.parked.lock() {
            *parked = None;
        }
    }
}

fn lock_parked(parked: &Parked) -> MutexGuard<'_, Option<Vec<mpsc::Sender<Job>>>> {
    parked
        .lock()
        .expect("parked-thread lock poisoned: jobs run outside it")
}

/// One reused thread: run `job`, then park for the next one.
fn reused_thread(parked: &Parked, cap: usize, mut job: Job) {
    loop {
        // A panicking job drops its channel sender unsent, which its
        // receiver reports; the thread itself lives on.
        let _ = catch_unwind(AssertUnwindSafe(job));
        let (tx, rx) = mpsc::channel();
        match lock_parked(parked).as_mut() {
            Some(idle) if idle.len() < cap => idle.push(tx),
            _ => return,
        }
        match rx.recv() {
            Ok(next) => job = next,
            Err(_) => return,
        }
    }
}

/// Everything the workers, accept loop, and prober share.
struct RouterState {
    /// The transport: recorder, admission queue, drain flag, trace ids.
    http: Http,
    topology: Topology,
    config: RouterConfig,
    /// `backends[shard][replica]`.
    backends: Vec<Vec<Arc<Backend>>>,
    /// Round-robin cursor spreading load across replicas.
    rr: AtomicUsize,
    /// Per-shard latency windows feeding the hedge delay.
    latency: Vec<LatencyWindow>,
    /// Per-shard "no live replica" counters.
    shard_unavailable: Vec<AtomicU64>,
    /// Jitter source for retry backoff.
    rng: Mutex<SplitMix64>,
    /// The reused threads of the request path, at most
    /// `threads × shards` of them parked.
    threads: Threads,
    /// This state itself, for the jobs that need it.
    me: Weak<RouterState>,
}

impl RouterState {
    fn new(topology: Topology, config: RouterConfig) -> Arc<RouterState> {
        let backends: Vec<Vec<Arc<Backend>>> = topology
            .shards
            .iter()
            .enumerate()
            .map(|(k, s)| {
                s.replicas
                    .iter()
                    .map(|addr| Arc::new(Backend::new(addr, k)))
                    .collect()
            })
            .collect();
        let shard_count = topology.shards.len();
        Arc::new_cyclic(|me| RouterState {
            http: Http::new(HttpConfig {
                role: "router",
                threads: config.threads,
                deadline: config.deadline,
                request_deadline: config.request_deadline,
                queue_limit: config.queue_limit,
                max_header_bytes: config.max_header_bytes,
                trace_seed: config.trace_seed,
            }),
            topology,
            backends,
            rr: AtomicUsize::new(0),
            latency: (0..shard_count).map(|_| LatencyWindow::new()).collect(),
            shard_unavailable: (0..shard_count).map(|_| AtomicU64::new(0)).collect(),
            rng: Mutex::new(SplitMix64::new(config.retry_seed)),
            threads: Threads::new(config.threads.max(1) * shard_count),
            me: me.clone(),
            config,
        })
    }

    /// The hedge delay for `shard`: observed `hedge_percentile`
    /// latency, floored at `hedge_min`.
    fn hedge_delay(&self, shard: usize) -> Duration {
        let observed = self.latency[shard]
            .percentile(self.config.hedge_percentile)
            .unwrap_or(self.config.hedge_min);
        observed.max(self.config.hedge_min)
    }
}

impl Service for RouterState {
    fn http(&self) -> &Http {
        &self.http
    }

    /// Route one client request, answer it.
    fn answer(
        &self,
        stream: &mut TcpStream,
        head: &str,
        accepted_at: Instant,
        mut span: SpanRecorder,
    ) {
        let (route, limit) = parse_route(head.lines().next().unwrap_or(""));
        let started = Instant::now();
        let reply = dispatch(self, &route, limit, accepted_at, span.trace_id());
        span.stage("gather");
        if reply.2 > 0 {
            self.http.recorder.add("router.degraded_answers", 1);
        }
        let ns = started.elapsed().as_nanos() as u64;
        self.http
            .answered(stream, route.endpoint(), &reply, ns, &span);
    }

    fn overloaded(&self, stream: &mut TcpStream) {
        self.http.shed(
            stream,
            503,
            "router overloaded, admission queue full",
            "http.shed.queue_full",
        );
    }
}

/// A bound, not-yet-running router.
pub struct Router {
    listener: TcpListener,
    topology: Topology,
    config: RouterConfig,
}

impl Router {
    /// Bind `addr` (port 0 picks a free port).
    pub fn bind(topology: Topology, addr: &str, config: RouterConfig) -> std::io::Result<Self> {
        Ok(Router {
            listener: TcpListener::bind(addr)?,
            topology,
            config,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Route until `shutdown` is requested, then drain exactly like
    /// the backend server: answer everything accepted, shed the
    /// backlog typed, join workers and the prober, export metrics.
    pub fn run(self, shutdown: &ShutdownToken) -> std::io::Result<RouterReport> {
        self.route(shutdown, &|| {})
    }

    /// Route on a thread of its own until the returned handle drains
    /// it or is dropped; returns once the acceptor runs.
    pub fn start(self) -> std::io::Result<Running<RouterReport>> {
        let addr = self.local_addr()?;
        Running::start(addr, "router", move |shutdown, ready| {
            self.route(shutdown, ready)
        })
    }

    /// [`Router::run`], calling `ready` once the acceptor runs.
    fn route(self, shutdown: &ShutdownToken, ready: &dyn Fn()) -> std::io::Result<RouterReport> {
        let state = RouterState::new(self.topology, self.config);
        let prober = {
            let state = Arc::clone(&state);
            let shutdown = shutdown.clone();
            std::thread::Builder::new()
                .name("gsb-router-probe".into())
                .spawn(move || probe_loop(&state, &shutdown))?
        };
        let connections = crate::http::run(&self.listener, &state, shutdown, ready)?;
        let _ = prober.join();

        let r = &state.http.recorder;
        let metrics_json = render_router_metrics_json(&state);
        crate::http::write_metrics(state.config.metrics_out.as_deref(), &metrics_json)?;
        Ok(RouterReport {
            connections,
            requests: total_requests(r),
            shed: r.counter("http.shed_total").get(),
            retries: r.counter("router.retries").get(),
            hedges: r.counter("router.hedges").get(),
            hedge_wins: r.counter("router.hedge_wins").get(),
            degraded_answers: r.counter("router.degraded_answers").get(),
            metrics_json,
        })
    }
}

/// Active probing: every backend gets a `GET /ready` on each tick.
/// Success closes the breaker (recovery detection after restart);
/// failure counts toward opening it (fast ejection of killed or
/// draining backends, before clients pay a try-timeout to learn).
fn probe_loop(state: &RouterState, shutdown: &ShutdownToken) {
    const TICK: Duration = Duration::from_millis(10);
    let mut since = state.config.probe_interval; // probe immediately
    while !shutdown.is_requested() {
        if since < state.config.probe_interval {
            std::thread::sleep(TICK.min(state.config.probe_interval));
            since += TICK.min(state.config.probe_interval);
            continue;
        }
        since = Duration::ZERO;
        let timeout = state.config.probe_interval.min(Duration::from_millis(250));
        for shard in &state.backends {
            for backend in shard {
                if ready(backend, timeout) {
                    backend.on_success();
                } else {
                    backend.probe_failures_total.fetch_add(1, Ordering::Relaxed);
                    backend.on_failure(state.config.breaker_failures);
                }
            }
        }
    }
}

/// The answer from one backend try.
struct BackendResponse {
    status: u16,
    body: String,
}

/// One `GET /ready` against a backend, bounded by `timeout` end to
/// end: does it answer 200?
fn ready(backend: &Backend, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    let Ok(mut stream) = backend_send(backend, "/ready", "", 0, deadline) else {
        return false;
    };
    let mut raw = Vec::new();
    read_until(&mut stream, &mut raw, deadline) == Ok(true)
        && parse_response(&raw).is_ok_and(|r| r.status == 200)
}

/// Connect to a backend and send it a GET for `path`, both before
/// `deadline`. `deadline_ms` > 0 is propagated as `X-Gsb-Deadline-Ms`.
fn backend_send(
    backend: &Backend,
    path: &str,
    trace: &str,
    deadline_ms: u64,
    deadline: Instant,
) -> Result<TcpStream, &'static str> {
    let remaining = || {
        deadline
            .checked_duration_since(Instant::now())
            .filter(|left| !left.is_zero())
            .ok_or("backend try timed out")
    };
    let mut stream =
        TcpStream::connect_timeout(&backend.sock, remaining()?).map_err(|_| "connect failed")?;
    let _ = stream.set_nodelay(true);
    stream
        .set_write_timeout(Some(remaining()?))
        .map_err(|_| "socket setup failed")?;
    let trace_header = if trace.is_empty() {
        String::new()
    } else {
        format!("X-Gsb-Trace: {trace}\r\n")
    };
    let deadline_header = if deadline_ms > 0 {
        format!("X-Gsb-Deadline-Ms: {deadline_ms}\r\n")
    } else {
        String::new()
    };
    stream
        .write_all(
            format!(
                "GET {path} HTTP/1.1\r\nHost: {}\r\n{trace_header}{deadline_header}Connection: close\r\n\r\n",
                backend.addr
            )
            .as_bytes(),
        )
        .map_err(|_| "write failed")?;
    Ok(stream)
}

/// Read a backend's answer into `raw` until the backend closes the
/// connection (`Ok(true)`) or `until` passes first (`Ok(false)`).
fn read_until(
    stream: &mut TcpStream,
    raw: &mut Vec<u8>,
    until: Instant,
) -> Result<bool, &'static str> {
    let mut chunk = [0u8; 4096];
    loop {
        let Some(left) = until
            .checked_duration_since(Instant::now())
            .filter(|left| !left.is_zero())
        else {
            return Ok(false);
        };
        stream
            .set_read_timeout(Some(left))
            .map_err(|_| "socket setup failed")?;
        match stream.read(&mut chunk) {
            Ok(0) => return Ok(true),
            Ok(k) => raw.extend_from_slice(&chunk[..k]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // The check above decides whether `until` has passed.
                continue;
            }
            Err(_) => return Err("read failed"),
        }
    }
}

/// Parse a complete backend response: a status line, and a body of
/// exactly its `Content-Length`.
fn parse_response(raw: &[u8]) -> Result<BackendResponse, &'static str> {
    let text = String::from_utf8_lossy(raw);
    let status: u16 = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or("malformed status line")?;
    let (head, body) = text.split_once("\r\n\r\n").ok_or("no header terminator")?;
    let content_length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.parse().ok())
        .ok_or("missing Content-Length")?;
    if body.len() != content_length {
        return Err("truncated body");
    }
    Ok(BackendResponse {
        status,
        body: body.to_string(),
    })
}

/// One backend try: connected, its request sent, and the answer bytes
/// read so far. It reads on the thread that started it until an instant
/// that thread names; an unfinished try can then move, bytes and all,
/// to a reused thread that reads on.
struct Try {
    backend: Arc<Backend>,
    hedged: bool,
    started: Instant,
    /// `started` plus the try's budget: the try fails once it passes.
    deadline: Instant,
    /// The connection, or why connecting or sending failed.
    stream: Result<TcpStream, &'static str>,
    raw: Vec<u8>,
}

/// How one try ended. The try has already settled its backend's
/// breaker, wherever it ended.
struct TryOutcome {
    /// The answer, when it is one the replica can serve (below 429).
    answer: Option<BackendResponse>,
    hedged: bool,
    elapsed: Duration,
}

impl Try {
    /// Connect to `backend` and send it the GET; the try's clock starts
    /// here. The backend is told the try's budget, after which the
    /// router no longer reads its answer.
    fn start(
        backend: Arc<Backend>,
        hedged: bool,
        path: &str,
        trace: &str,
        budget: Duration,
    ) -> Try {
        let started = Instant::now();
        let deadline = started + budget;
        let stream = backend_send(&backend, path, trace, budget.as_millis() as u64, deadline);
        Try {
            backend,
            hedged,
            started,
            deadline,
            stream,
            raw: Vec::new(),
        }
    }

    /// Read on until the answer is complete or the try fails (`Some`),
    /// or until `until` passes first (`None`).
    fn poll(&mut self, until: Instant) -> Option<Result<BackendResponse, &'static str>> {
        let stop = until.min(self.deadline);
        Some(match &mut self.stream {
            Err(e) => Err(*e),
            Ok(stream) => match read_until(stream, &mut self.raw, stop) {
                Ok(true) => parse_response(&self.raw),
                Ok(false) if stop < self.deadline => return None,
                Ok(false) => Err("backend try timed out"),
                Err(e) => Err(e),
            },
        })
    }

    /// Settle the backend's breaker with how the try ended: 429, 5xx
    /// and transport failures all mean "this replica cannot serve right
    /// now".
    fn end(self, result: Result<BackendResponse, &'static str>, threshold: u32) -> TryOutcome {
        let answer = result.ok().filter(|r| r.status < 429);
        if answer.is_some() {
            self.backend.on_success();
        } else {
            self.backend.on_failure(threshold);
        }
        TryOutcome {
            answer,
            hedged: self.hedged,
            elapsed: self.started.elapsed(),
        }
    }

    /// Run the try to its end on this thread.
    fn finish(mut self, threshold: u32) -> TryOutcome {
        let result = self
            .poll(self.deadline)
            .unwrap_or(Err("backend try timed out"));
        self.end(result, threshold)
    }
}

/// Ask `shard` for `path`, failing over across replicas with jittered
/// backoff and hedging slow tries. `None` means no replica answered
/// within the deadline — the shard is unavailable right now. Every try
/// starts on the calling thread; only one that outlives the hedge delay
/// moves to a reused thread.
fn shard_request(
    state: &RouterState,
    shard: usize,
    path: &str,
    accepted: Instant,
    trace: &str,
) -> Option<BackendResponse> {
    const MIN_TRY: Duration = Duration::from_millis(5);
    let replicas = &state.backends[shard];
    let start = state.rr.fetch_add(1, Ordering::Relaxed);
    let policy = RetryPolicy {
        max_retries: 8,
        base_delay_ms: 2,
        max_delay_ms: 40,
        seed: state.config.retry_seed ^ (shard as u64).wrapping_mul(0x9E37_79B9),
    };
    let threshold = state.config.breaker_failures;
    let max_tries = replicas.len() * 2;
    for attempt in 0..max_tries {
        let Some(remaining) = state
            .config
            .request_deadline
            .checked_sub(accepted.elapsed())
        else {
            break;
        };
        if remaining < MIN_TRY {
            break;
        }
        // Prefer a breaker-admitted replica; when every breaker is
        // open (e.g. right after a restart, before a probe lands) fall
        // back to a last-chance direct try so a shard with one living
        // replica is never reported missing on breaker state alone.
        let order =
            |i: usize| -> &Arc<Backend> { &replicas[(start + attempt + i) % replicas.len()] };
        let mut primary = None;
        for i in 0..replicas.len() {
            if order(i).admit(state.config.breaker_cooldown) {
                primary = Some(Arc::clone(order(i)));
                break;
            }
        }
        let primary = primary.unwrap_or_else(|| Arc::clone(order(0)));
        // None when hedging is off.
        let hedge_candidate = (0..replicas.len())
            .map(order)
            .find(|b| !Arc::ptr_eq(b, &primary) && b.state_gauge() != BREAKER_OPEN)
            .cloned()
            .filter(|_| state.config.hedge_percentile > 0.0);
        let try_timeout = remaining.min(state.config.try_timeout);
        let mut first = Try::start(primary, false, path, trace, try_timeout);
        let outcome = match hedge_candidate {
            None => Some(first.finish(threshold)),
            Some(candidate) => {
                let hedge_at = first.started + state.hedge_delay(shard).min(try_timeout / 2);
                match first.poll(hedge_at) {
                    Some(result) => Some(first.end(result, threshold)),
                    None => race(state, first, candidate, path, trace, try_timeout),
                }
            }
        };
        if let Some(TryOutcome {
            answer: Some(resp),
            hedged,
            elapsed,
        }) = outcome
        {
            state.latency[shard].record(elapsed.as_nanos() as u64);
            if hedged {
                state.http.recorder.add("router.hedge_wins", 1);
            }
            return Some(resp);
        }
        state.http.recorder.add("router.retries", 1);
        // Jittered exponential backoff before the next replica, capped
        // so the sleep cannot eat the remaining deadline.
        let backoff = {
            let jitter = state.rng.lock().unwrap().below(3) as u64;
            policy.delay(attempt as u32) + Duration::from_millis(jitter)
        };
        let cap = state
            .config
            .request_deadline
            .checked_sub(accepted.elapsed())
            .unwrap_or(Duration::ZERO)
            / 4;
        std::thread::sleep(backoff.min(cap));
    }
    state.shard_unavailable[shard].fetch_add(1, Ordering::Relaxed);
    None
}

/// The primary try outlived the hedge delay: it reads on on a reused
/// thread while a hedge try on `candidate` races it on another, and the
/// first servable answer wins. The loser settles its breaker when it
/// ends, off the request path (the hedge contract).
fn race(
    state: &RouterState,
    primary: Try,
    candidate: Arc<Backend>,
    path: &str,
    trace: &str,
    budget: Duration,
) -> Option<TryOutcome> {
    let threshold = state.config.breaker_failures;
    let race_deadline = primary.started + budget + Duration::from_millis(50);
    let (tx, rx) = mpsc::channel();
    let to_race = tx.clone();
    state.threads.run(move || {
        let _ = to_race.send(primary.finish(threshold));
    });
    state.http.recorder.add("router.hedges", 1);
    let (path, trace) = (path.to_string(), trace.to_string());
    state.threads.run(move || {
        let hedge = Try::start(candidate, true, &path, &trace, budget);
        let _ = tx.send(hedge.finish(threshold));
    });
    // The channel disconnects once both tries have ended unanswered.
    while let Ok(outcome) = rx.recv_timeout(
        race_deadline
            .saturating_duration_since(Instant::now())
            .max(Duration::from_millis(1)),
    ) {
        if outcome.answer.is_some() {
            return Some(outcome);
        }
    }
    None
}

/// Scatter `path` to every shard in `shards` concurrently: the
/// first on this thread, the rest on reused threads. Returns per-shard
/// answers in input order (`None` = shard down).
fn scatter(
    state: &RouterState,
    shards: &[usize],
    path: &str,
    accepted: Instant,
    trace: &str,
) -> Vec<(usize, Option<BackendResponse>)> {
    let Some(&first) = shards.first() else {
        return Vec::new();
    };
    let me = state
        .me
        .upgrade()
        .expect("a router answering a request is alive");
    let (tx, rx) = mpsc::channel();
    for (i, &shard) in shards.iter().enumerate().skip(1) {
        let (state, tx) = (Arc::clone(&me), tx.clone());
        let (path, trace) = (path.to_string(), trace.to_string());
        me.threads.run(move || {
            let answer = shard_request(&state, shard, &path, accepted, &trace);
            let _ = tx.send((i, (shard, answer)));
        });
    }
    drop(tx);
    let answer = shard_request(state, first, path, accepted, trace);
    let mut answers = vec![(0, (first, answer))];
    answers.extend(rx);
    // A panicking shard request drops its sender unsent; panicking here
    // in turn lets the worker answer the client a typed 500.
    assert_eq!(
        answers.len(),
        shards.len(),
        "a scatter shard request panicked"
    );
    answers.sort_unstable_by_key(|(i, _)| *i);
    answers.into_iter().map(|(_, answer)| answer).collect()
}

/// Route one parsed request. Returns status, body, the degraded count
/// for the `X-Gsb-Degraded` header (missing shards + ids skipped by
/// backend quarantine), and the content type. Query answers are read
/// back into the API's types and rendered by the same code as one
/// server's, so a healthy tier answers byte-identically.
fn dispatch(
    state: &RouterState,
    route: &Route,
    limit: usize,
    accepted: Instant,
    trace: &str,
) -> Reply {
    let json = CONTENT_TYPE_JSON;
    let shards = &state.topology.shards;
    let all_shards: Vec<usize> = (0..shards.len()).collect();
    match route {
        Route::Health => (
            200,
            "{\"status\":\"ok\",\"role\":\"router\"}".into(),
            0,
            json,
        ),
        Route::Ready => {
            let draining = state.http.draining();
            let live = live_shards(state);
            let ready = !draining && live == shards.len();
            let status = if ready { 200 } else { 503 };
            (
                status,
                format!(
                    "{{\"ready\":{ready},\"draining\":{draining},\"shards\":{},\"live_shards\":{live}}}",
                    shards.len()
                ),
                0,
                json,
            )
        }
        Route::Metrics => (200, render_router_promtext(state), 0, CONTENT_TYPE_PROM),
        Route::MetricsJson => (200, render_router_metrics_json(state), 0, json),
        Route::Stats => {
            let answers = scatter(state, &all_shards, "/stats", accepted, trace);
            let mut missing = Vec::new();
            let (mut n, mut cliques, mut max_clique) = (0u64, 0u64, 0u64);
            for (shard, resp) in answers {
                match resp
                    .filter(|r| r.status == 200)
                    .map(|r| json_parse(&r.body))
                {
                    Some(Ok(parsed)) => {
                        n = n.max(parsed.u64_or_zero("n"));
                        cliques += parsed.u64_or_zero("cliques");
                        max_clique = max_clique.max(parsed.u64_or_zero("max_clique"));
                    }
                    _ => missing.push(shard),
                }
            }
            if missing.len() == all_shards.len() {
                return all_down(&missing);
            }
            let degraded = missing.len() as u64;
            (
                200,
                format!(
                    "{{\"role\":\"router\",\"shards\":{},\"n\":{n},\"cliques\":{cliques},\"max_clique\":{max_clique}{}}}",
                    shards.len(),
                    missing_field(&missing)
                ),
                degraded,
                json,
            )
        }
        Route::Get(gid) => {
            let Some(shard) = state.topology.owner_of(*gid) else {
                return Answer::no_clique(*gid).reply();
            };
            let local = gid - shards[shard].id_lo;
            match shard_request(state, shard, &format!("/get/{local}"), accepted, trace) {
                // Answer with the global id, not the shard's local one.
                Some(r) if r.status == 200 => match parse_clique(&r.body) {
                    Some(clique) => Answer::Clique { id: *gid, clique }.reply(),
                    None => (
                        502,
                        "{\"error\":\"unparseable backend answer\"}".into(),
                        0,
                        json,
                    ),
                },
                Some(r) => (r.status, r.body, 0, json),
                None => shard_down(shard),
            }
        }
        Route::Max => {
            // Ids ascend in size order, so the top size run starts in
            // the first shard that reaches the top size. Its first
            // clique is the lexicographically first maximum clique,
            // the one a single server answers. A `/max` body holds no
            // id, so the shard's body passes through.
            let top = shards.last().map_or(0, |s| s.size_hi);
            let shard = state.topology.shards_for_sizes(top, top)[0];
            match shard_request(state, shard, "/max", accepted, trace) {
                Some(r) => (r.status, r.body, 0, json),
                None => shard_down(shard),
            }
        }
        Route::Containing(v) => scatter_list(
            state,
            &all_shards,
            ListQuery::Containing(*v),
            limit,
            accepted,
            trace,
        ),
        Route::Overlap(v, w) => scatter_list(
            state,
            &all_shards,
            ListQuery::Overlap(*v, *w),
            limit,
            accepted,
            trace,
        ),
        Route::Size(lo, hi) => {
            let covering = state.topology.shards_for_sizes(*lo, *hi);
            scatter_list(
                state,
                &covering,
                ListQuery::Size(*lo, *hi),
                limit,
                accepted,
                trace,
            )
        }
        Route::NotFound | Route::MethodNotAllowed | Route::Bad(_) => route.error().reply(),
    }
}

/// Scatter a list query to `shards` and merge the answers by the API's
/// rule ([`ListAnswer::absorb`]). Missing shards are reported in
/// `missing_shards` + `X-Gsb-Degraded`; only all-shards-down yields a
/// (typed) 503. No shard at all (a size range none covers) answers
/// what one server answers: nothing.
fn scatter_list(
    state: &RouterState,
    shards: &[usize],
    query: ListQuery,
    limit: usize,
    accepted: Instant,
    trace: &str,
) -> Reply {
    let answers = scatter(state, shards, &query.path(limit), accepted, trace);
    let mut merged = ListAnswer::default();
    let mut missing = Vec::new();
    for (shard, resp) in answers {
        match resp
            .filter(|r| r.status == 200)
            .and_then(|r| ListAnswer::parse(&r.body))
        {
            Some(part) => merged.absorb(part, state.topology.shards[shard].id_lo),
            None => missing.push(shard),
        }
    }
    if !shards.is_empty() && missing.len() == shards.len() {
        return all_down(&missing);
    }
    merged.finish(query, limit, missing).reply()
}

/// Shards with at least one replica whose breaker is not open.
fn live_shards(state: &RouterState) -> usize {
    state
        .backends
        .iter()
        .filter(|replicas| replicas.iter().any(|b| b.state_gauge() != BREAKER_OPEN))
        .count()
}

/// A single-shard route found its shard down: typed 503, never a
/// blind 500. `missing_shards` names the culprit.
fn shard_down(shard: usize) -> Reply {
    (
        503,
        format!("{{\"error\":\"no live replica for shard {shard}\",\"missing_shards\":[{shard}]}}"),
        1,
        CONTENT_TYPE_JSON,
    )
}

/// Every queried shard is down: typed 503 with the full missing list.
fn all_down(missing: &[usize]) -> Reply {
    (
        503,
        format!(
            "{{\"error\":\"no live replica for any queried shard\"{}}}",
            missing_field(missing)
        ),
        missing.len() as u64,
        CONTENT_TYPE_JSON,
    )
}

/// The router's own plain counters: family name suffix, recorder key,
/// help.
const ROUTER_COUNTERS: [(&str, &str, &str); 5] = [
    (
        "retries_total",
        "router.retries",
        "Failed backend tries retried on another replica.",
    ),
    (
        "hedges_total",
        "router.hedges",
        "Hedged second tries launched.",
    ),
    (
        "hedge_wins_total",
        "router.hedge_wins",
        "Hedged tries that answered first.",
    ),
    (
        "degraded_answers_total",
        "router.degraded_answers",
        "Answers missing a shard or degraded.",
    ),
    (
        "shed_requests_total",
        "http.shed_total",
        "Client connections shed by admission control.",
    ),
];

/// Prometheus text for the router: per-endpoint traffic plus the
/// robustness internals — per-backend breaker state, failure and probe
/// counters, hedge/retry/degradation totals.
fn render_router_promtext(state: &RouterState) -> String {
    let r = &state.http.recorder;
    let mut w = PromWriter::new();
    write_core_families(&mut w, r, "gsb_router");

    let bstate = w.family(
        "gsb_router_backend_state",
        PromKind::Gauge,
        "Circuit breaker state per backend: 0 closed, 1 half-open, 2 open.",
    );
    let bfail = w.family(
        "gsb_router_backend_failures_total",
        PromKind::Counter,
        "Failed tries per backend (passive accounting + probes).",
    );
    let bok = w.family(
        "gsb_router_backend_successes_total",
        PromKind::Counter,
        "Successful answers per backend.",
    );
    let bprobe = w.family(
        "gsb_router_probe_failures_total",
        PromKind::Counter,
        "Failed /ready probes per backend.",
    );
    for replicas in &state.backends {
        for b in replicas {
            let shard = b.shard.to_string();
            let labels = [("backend", b.addr.as_str()), ("shard", shard.as_str())];
            w.sample(&bstate, &labels, u64::from(b.state_gauge()));
            w.sample(&bfail, &labels, b.failures_total.load(Ordering::Relaxed));
            w.sample(&bok, &labels, b.successes_total.load(Ordering::Relaxed));
            w.sample(
                &bprobe,
                &labels,
                b.probe_failures_total.load(Ordering::Relaxed),
            );
        }
    }
    let unavailable = w.family(
        "gsb_router_shard_unavailable_total",
        PromKind::Counter,
        "Requests that found a shard with no live replica.",
    );
    for (k, c) in state.shard_unavailable.iter().enumerate() {
        let shard = k.to_string();
        w.sample(
            &unavailable,
            &[("shard", shard.as_str())],
            c.load(Ordering::Relaxed),
        );
    }

    write_counters(&mut w, r, "gsb_router", &ROUTER_COUNTERS);
    let uptime = w.family(
        "gsb_router_uptime_seconds",
        PromKind::Gauge,
        "Seconds since the router started.",
    );
    w.sample_f64(&uptime, &[], state.http.started.elapsed().as_secs_f64());
    w.finish()
}

/// The `--metrics-out`-shaped JSON snapshot (also `GET /metrics-json`).
fn render_router_metrics_json(state: &RouterState) -> String {
    let r = &state.http.recorder;
    let requests = total_requests(r);
    let mut backends = String::new();
    for replicas in &state.backends {
        for b in replicas {
            if !backends.is_empty() {
                backends.push(',');
            }
            backends.push_str(&format!(
                "\n    {{\"backend\":\"{}\",\"shard\":{},\"state\":{},\"successes\":{},\"failures\":{},\"probe_failures\":{}}}",
                b.addr,
                b.shard,
                b.state_gauge(),
                b.successes_total.load(Ordering::Relaxed),
                b.failures_total.load(Ordering::Relaxed),
                b.probe_failures_total.load(Ordering::Relaxed),
            ));
        }
    }
    let unavailable: Vec<String> = state
        .shard_unavailable
        .iter()
        .map(|c| c.load(Ordering::Relaxed).to_string())
        .collect();
    format!(
        "{{\n  \"bench\": \"gsb_router\",\n  \"connections\": {},\n  \"requests\": {requests},\n  \"shed_total\": {},\n  \"retries\": {},\n  \"hedges\": {},\n  \"hedge_wins\": {},\n  \"degraded_answers\": {},\n  \"worker_panics\": {},\n  \"shard_unavailable\": [{}],\n  \"backends\": [{backends}\n  ]\n}}\n",
        r.counter("http.connections").get(),
        r.counter("http.shed_total").get(),
        r.counter("router.retries").get(),
        r.counter("router.hedges").get(),
        r.counter("router.hedge_wins").get(),
        r.counter("router.degraded_answers").get(),
        r.counter("http.worker_panics").get(),
        unavailable.join(","),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_shards() -> Topology {
        Topology::from_text(
            "gsb-topology v1\n\
             # a comment\n\
             shard=0 ids=0..150 sizes=3..5 replicas=127.0.0.1:7701,127.0.0.1:7702\n\
             shard=1 ids=150..235 sizes=5..9 replicas=127.0.0.1:7703\n",
        )
        .expect("valid topology")
    }

    #[test]
    fn topology_round_trips_and_routes() {
        let t = two_shards();
        assert_eq!(t.shards.len(), 2);
        assert_eq!(Topology::from_text(&t.to_text()).unwrap(), t);
        assert_eq!(t.total_cliques(), 235);
        assert_eq!(t.owner_of(0), Some(0));
        assert_eq!(t.owner_of(149), Some(0));
        assert_eq!(t.owner_of(150), Some(1));
        assert_eq!(t.owner_of(235), None);
        // size routing: boundary size 5 spans both shards
        assert_eq!(t.shards_for_sizes(3, 4), vec![0]);
        assert_eq!(t.shards_for_sizes(5, 5), vec![0, 1]);
        assert_eq!(t.shards_for_sizes(6, 9), vec![1]);
        assert_eq!(t.shards_for_sizes(10, 20), Vec::<usize>::new());
    }

    #[test]
    fn topology_rejects_malformed_input() {
        for bad in [
            "",                                                    // no magic
            "gsb-topology v1\n",                                   // no shards
            "gsb-topology v1\nshard=0 ids=5..10 sizes=1..2 replicas=127.0.0.1:1\n", // gap at 0
            "gsb-topology v1\nshard=1 ids=0..10 sizes=1..2 replicas=127.0.0.1:1\n", // ordinal
            "gsb-topology v1\nshard=0 ids=0..10 sizes=2..1 replicas=127.0.0.1:1\n", // sizes
            "gsb-topology v1\nshard=0 ids=0..10 sizes=1..2 replicas=\n",            // empty
            "gsb-topology v1\nshard=0 ids=0..10 sizes=1..2 replicas=nonsense\n",    // addr
            "gsb-topology v1\nshard=0 ids=10..10 sizes=1..2 replicas=127.0.0.1:1\n", // empty ids
            "gsb-topology v1\nshard=0 ids=0..10 sizes=1..2 replicas=127.0.0.1:1\nshard=1 ids=20..30 sizes=3..4 replicas=127.0.0.1:2\n", // gap
        ] {
            assert!(Topology::from_text(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn breaker_walks_closed_open_half_open_closed() {
        let b = Backend::new("127.0.0.1:9", 0);
        let cooldown = Duration::from_millis(30);
        assert!(b.admit(cooldown));
        assert_eq!(b.state_gauge(), BREAKER_CLOSED);
        for _ in 0..3 {
            b.on_failure(3);
        }
        assert_eq!(b.state_gauge(), BREAKER_OPEN);
        // open: rejected until the cooldown elapses
        assert!(!b.admit(cooldown));
        std::thread::sleep(cooldown + Duration::from_millis(5));
        // half-open: exactly one trial admitted
        assert!(b.admit(cooldown));
        assert_eq!(b.state_gauge(), BREAKER_HALF_OPEN);
        assert!(!b.admit(cooldown));
        // trial failure re-opens immediately (no threshold wait)
        b.on_failure(3);
        assert_eq!(b.state_gauge(), BREAKER_OPEN);
        std::thread::sleep(cooldown + Duration::from_millis(5));
        assert!(b.admit(cooldown));
        b.on_success();
        assert_eq!(b.state_gauge(), BREAKER_CLOSED);
        assert!(b.admit(cooldown));
    }

    #[test]
    fn latency_window_percentile_needs_samples_then_tracks_them() {
        let w = LatencyWindow::new();
        assert_eq!(w.percentile(0.95), None);
        for i in 1..=100u64 {
            w.record(i * 1_000_000); // 1..=100 ms
        }
        let p95 = w.percentile(0.95).unwrap();
        assert!(p95 >= Duration::from_millis(90) && p95 <= Duration::from_millis(100));
        let p0 = w.percentile(0.0).unwrap();
        assert!(p0 <= Duration::from_millis(5));
    }

    #[test]
    fn latency_window_keeps_the_newest_samples() {
        let w = LatencyWindow::new();
        for i in 1..=300u64 {
            w.record(i * 1_000_000);
        }
        // The ring holds 173..=300 ms: rank round(127 · q) of those.
        assert_eq!(w.percentile(0.0), Some(Duration::from_millis(173)));
        assert_eq!(w.percentile(0.5), Some(Duration::from_millis(237)));
        assert_eq!(w.percentile(1.0), Some(Duration::from_millis(300)));
    }

    /// Spin until `done` holds, failing after five seconds.
    fn wait_until(what: &str, done: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting until {what}");
            std::thread::yield_now();
        }
    }

    fn idle(threads: &Threads) -> usize {
        lock_parked(&threads.parked).as_ref().map_or(0, Vec::len)
    }

    #[test]
    fn sequential_jobs_reuse_one_thread() {
        let threads = Threads::new(4);
        for _ in 0..1000 {
            let (tx, rx) = mpsc::channel();
            threads.run(move || tx.send(()).expect("the test waits for it"));
            rx.recv().expect("the job ran");
            wait_until("the thread parks again", || idle(&threads) == 1);
        }
        assert_eq!(threads.started.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn blocked_jobs_each_get_a_thread_and_at_most_the_cap_stays_parked() {
        const CAP: usize = 2;
        const BLOCKED: usize = 5;
        let threads = Threads::new(CAP);
        // The barrier opens only once every job runs at the same time.
        let gate = Arc::new(std::sync::Barrier::new(BLOCKED + 1));
        for _ in 0..BLOCKED {
            let gate = Arc::clone(&gate);
            threads.run(move || {
                gate.wait();
            });
        }
        gate.wait();
        assert_eq!(threads.started.load(Ordering::Relaxed), BLOCKED as u64);
        // Each live thread holds the parked list; so does the set.
        wait_until("the surplus threads exit", || {
            Arc::strong_count(&threads.parked) == 1 + CAP
        });
        assert_eq!(idle(&threads), CAP);

        let parked = Arc::downgrade(&threads.parked);
        drop(threads);
        wait_until("the parked threads exit", || parked.strong_count() == 0);
    }

    #[test]
    fn a_panicking_scatter_shard_reaches_the_caller() {
        // Shard 1 does not exist, so its request panics on a reused
        // thread; the caller must panic too (the worker then answers a
        // typed 500), and the thread must survive for the next job.
        let dead = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .expect("free port");
        let topology = Topology {
            shards: vec![ShardSpec {
                id_lo: 0,
                id_hi: 1,
                size_lo: 1,
                size_hi: 1,
                replicas: vec![dead.to_string()],
            }],
        };
        let state = RouterState::new(topology, RouterConfig::default());
        let scattered = catch_unwind(AssertUnwindSafe(|| {
            scatter(&state, &[0, 1], "/stats", Instant::now(), "")
        }));
        assert!(scattered.is_err(), "the shard's panic was swallowed");
        wait_until("the thread parks again", || idle(&state.threads) == 1);
        let answers = scatter(&state, &[0, 0], "/stats", Instant::now(), "");
        assert!(matches!(answers[..], [(0, None), (0, None)]));
        assert_eq!(state.threads.started.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn routing_a_healthy_tier_starts_at_most_threads_times_shards_threads() {
        use crate::{build, split_index, BuildOptions, CliqueIndex, ServeConfig, Server};
        use gsb_graph::generators::{planted, Module};

        let dir = std::env::temp_dir().join(format!("gsb_router_reuse_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let g = planted(60, 0.07, &[Module::clique(8), Module::clique(5)], 23);
        let golden = dir.join("golden");
        build(&g, &golden, BuildOptions::default(), None).expect("build index");
        let mut servers = Vec::new();
        let mut shards = Vec::new();
        for s in split_index(&golden, &dir.join("shards"), 2).expect("split index") {
            let index = Arc::new(CliqueIndex::open(&s.dir).expect("open shard"));
            let mut replicas = Vec::new();
            for _ in 0..2 {
                let config = ServeConfig {
                    threads: 2,
                    ..ServeConfig::default()
                };
                let server = Server::bind(Arc::clone(&index), "127.0.0.1:0", config)
                    .and_then(Server::start)
                    .expect("start replica");
                replicas.push(server.addr().to_string());
                servers.push(server);
            }
            shards.push(ShardSpec::new(&s, replicas));
        }
        let config = RouterConfig {
            threads: 4,
            ..RouterConfig::default()
        };
        let cap = (config.threads * shards.len()) as u64;
        let state = RouterState::new(Topology { shards }, config);

        // Two clients, 120 requests each, over the scatter and the
        // owner-routed paths.
        let paths = [
            "/stats",
            "/containing/3",
            "/overlap/3/5",
            "/size/1/64",
            "/max",
            "/get/0",
        ];
        std::thread::scope(|scope| {
            for client in 0..2 {
                let state = &state;
                scope.spawn(move || {
                    for i in 0..120 {
                        let path = paths[(client + i) % paths.len()];
                        let (route, limit) = parse_route(&format!("GET {path} HTTP/1.1"));
                        let (status, body, degraded, _) =
                            dispatch(state, &route, limit, Instant::now(), "");
                        assert_eq!((status, degraded), (200, 0), "{path}: {body}");
                    }
                });
            }
        });
        let started = state.threads.started.load(Ordering::Relaxed);
        assert!(
            (1..=cap).contains(&started),
            "240 routed requests started {started} threads (at most {cap} allowed)"
        );

        for server in servers {
            server.wait().expect("replica run");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_shards_field_only_when_degraded() {
        assert_eq!(missing_field(&[]), "");
        assert_eq!(missing_field(&[1, 3]), ",\"missing_shards\":[1,3]");
        let (status, body, degraded, _) = shard_down(2);
        assert_eq!(status, 503);
        assert_eq!(degraded, 1);
        assert!(body.contains("\"missing_shards\":[2]"));
    }
}
