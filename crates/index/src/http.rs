//! The HTTP core that `gsb serve` ([`crate::server`]) and `gsb router`
//! ([`crate::router`]) both run on: everything about a connection
//! except what its request means.
//!
//! * **Blocking accept.** The acceptor sleeps in `accept()`, so an
//!   idle process costs no CPU and a new connection is picked up the
//!   moment the kernel completes its handshake.
//! * **Shutdown waker.** The CLI's `signal(2)` handlers restart
//!   interrupted syscalls (SA_RESTART), so a SIGTERM never returns
//!   from `accept()` on its own. A waker thread checks the
//!   [`ShutdownToken`] on a 20 ms tick and, once shutdown is
//!   requested, connects to the listener's own address (loopback when
//!   it is bound to `0.0.0.0` or `::`). The acceptor re-checks the
//!   token after every accept and drops the waker's connection without
//!   counting it.
//! * **Bounded admission.** Accepted connections enter a queue of at
//!   most `queue_limit`, exported as the `http.queue_depth` gauge.
//!   What happens to a connection that finds the queue full is the
//!   service's policy ([`Service::overloaded`]).
//! * **Worker pool.** A fixed pool pops connections and runs each
//!   under `catch_unwind`: a panic answers `500`, bumps
//!   `http.worker_panics`, and the worker lives on.
//! * **Budgeted header reader.** The request budget starts at accept.
//!   A request that spent it queueing is shed (`503`), a head that
//!   does not complete within it is cut off (`408`), and one larger
//!   than `max_header_bytes` is refused (`431`). Only a complete head
//!   reaches the service ([`Service::answer`]).
//! * **Drain sweep.** On shutdown the acceptor stops, every admitted
//!   connection is answered, and connections still waiting in the
//!   kernel backlog are shed with a typed `503` rather than a silent
//!   reset.
//! * **Metrics.** Both services export the core's families through
//!   [`write_core_families`], under their own name prefix, and
//!   [`write_metrics`] writes the `--metrics-out` JSON atomically
//!   (sibling temp file, fsync, rename).
//! * **In-process start.** [`Running`] runs either service on its own
//!   thread under a private token (`Server::start`, `Router::start`):
//!   it returns once the acceptor runs, and its drop drains the
//!   service, so no caller writes its own token, thread and join.
//!
//! HTTP/1.1, one request per connection (`Connection: close`): every
//! response carries an exact `Content-Length` and the socket closes
//! after it, so a drained shutdown can never truncate a response.

use crate::api::Endpoint;
use gsb_core::store::write_atomic;
use gsb_core::supervise::is_transient;
use gsb_core::{RetryPolicy, ShutdownToken};
use gsb_telemetry::promtext::{PromKind, PromWriter};
use gsb_telemetry::trace::{valid_trace_id, SpanRecorder, TraceIdGen};
use gsb_telemetry::AtomicRecorder;
use std::io::{Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The default response content type.
pub(crate) const CONTENT_TYPE_JSON: &str = "application/json";

/// Prometheus text exposition content type.
pub(crate) const CONTENT_TYPE_PROM: &str = "text/plain; version=0.0.4; charset=utf-8";

/// Write budget for a connection answered from the accept path (queue
/// full, drain sweep): one slow victim cannot stall accepting.
const INLINE_WRITE_BUDGET: Duration = Duration::from_millis(250);

/// The transport knobs of a service.
#[derive(Clone, Debug)]
pub(crate) struct HttpConfig {
    /// `server` or `router`: names threads and shed messages.
    pub role: &'static str,
    /// Worker threads.
    pub threads: usize,
    /// Per-connection socket read/write timeout.
    pub deadline: Duration,
    /// Per-request budget, measured from accept.
    pub request_deadline: Duration,
    /// Admission-queue bound.
    pub queue_limit: usize,
    /// Cap on request-head bytes (`431` beyond it).
    pub max_header_bytes: usize,
    /// Seed of the trace-id generator.
    pub trace_seed: u64,
}

/// Transport state shared by the acceptor, the workers and the service.
pub(crate) struct Http {
    pub config: HttpConfig,
    pub recorder: AtomicRecorder,
    /// When the service started (uptime, QPS).
    pub started: Instant,
    queue_depth: AtomicUsize,
    /// Set once the acceptor stops: `/ready` flips to 503 so a router
    /// ejects this backend *before* the drain sweep sheds its queries,
    /// while `/health` keeps answering 200 (still alive).
    draining: AtomicBool,
    /// Seeded trace-id generator for requests without `X-Gsb-Trace`.
    trace_ids: Mutex<TraceIdGen>,
}

impl Http {
    pub fn new(config: HttpConfig) -> Http {
        Http {
            recorder: AtomicRecorder::new(),
            started: Instant::now(),
            queue_depth: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
            trace_ids: Mutex::new(TraceIdGen::seeded(config.trace_seed)),
            config,
        }
    }

    /// True once shutdown has been requested and the acceptor stopped.
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// The request's trace id: an incoming valid `X-Gsb-Trace` header
    /// wins, else the seeded generator supplies one.
    pub fn trace_id(&self, head: &str) -> String {
        match header_value(head, "x-gsb-trace") {
            Some(v) if valid_trace_id(v) => v.to_string(),
            _ => self.trace_ids.lock().unwrap().next_id(),
        }
    }

    /// `Retry-After` seconds for a shed 503, scaled with how deep the
    /// admission queue currently is: an empty queue suggests a blip
    /// (come back in 1s), a full queue means real overload (back off up
    /// to 8s). Bounded so a buggy depth can never tell clients to wait
    /// forever, and load-dependent so a fleet of backoff clients does
    /// not re-arrive on one fixed beat.
    pub fn retry_after_secs(&self) -> u32 {
        let limit = self.config.queue_limit.max(1);
        let depth = self.queue_depth.load(Ordering::Acquire).min(limit);
        (1 + (7 * depth) / limit) as u32
    }

    /// Shed a connection with a typed, complete response, after
    /// draining the pending request head ([`read_head_briefly`]).
    pub fn shed(&self, stream: &mut TcpStream, status: u16, message: &str, key: &'static str) {
        read_head_briefly(stream, &mut [0u8; 1024]);
        self.refuse(stream, status, message, key);
    }

    /// Shed a connection whose request head was already read.
    pub fn refuse(&self, stream: &mut TcpStream, status: u16, message: &str, key: &'static str) {
        self.recorder.add(key, 1);
        self.recorder.add("http.shed_total", 1);
        self.recorder.add(status_key(status), 1);
        let body = format!("{{\"error\":\"{message}\",\"shed\":true}}");
        let retry = self.retry_after_secs();
        if respond_full(stream, status, &body, 0, retry, CONTENT_TYPE_JSON, &[]).is_err() {
            self.recorder.add("http.write_errors", 1);
        }
    }

    /// Count one answered request (its endpoint, status and latency
    /// `ns`), then write the reply with the span's trace headers.
    pub fn answered(
        &self,
        stream: &mut TcpStream,
        endpoint: Endpoint,
        reply: &Reply,
        ns: u64,
        span: &SpanRecorder,
    ) {
        let (status, body, degraded, content_type) = reply;
        self.recorder.add(endpoint.requests_key(), 1);
        self.recorder.add(status_key(*status), 1);
        self.recorder.histogram(endpoint.latency_key()).observe(ns);
        let extra = trace_headers(span);
        if respond_full(stream, *status, body, *degraded, 1, content_type, &extra).is_err() {
            self.recorder.add("http.write_errors", 1);
        }
    }
}

/// What a service adds to the core: its dispatch and its queue-full
/// policy.
pub(crate) trait Service: Send + Sync + 'static {
    /// The transport state this service runs on.
    fn http(&self) -> &Http;

    /// Answer one request whose head was read within budget. `span`
    /// started at accept, holds the `queue` and `parse` stages, and
    /// carries the resolved trace id.
    fn answer(&self, stream: &mut TcpStream, head: &str, accepted_at: Instant, span: SpanRecorder);

    /// The admission queue is full: this connection's fate, decided on
    /// the accept path (the stream has a short write budget).
    fn overloaded(&self, stream: &mut TcpStream);

    /// The core answered a request itself before dispatch (deadline
    /// shed, `408`, `431`); `endpoint` is `unparsed` or `bad_request`.
    fn answered_early(&self, _span: &SpanRecorder, _endpoint: &str, _status: u16, _cause: &str) {}
}

/// A service running on its own thread, from [`Server::start`] or
/// [`Router::start`]: its address, a drain request and a wait for its
/// report. Dropping it drains the service and waits for it to stop, so
/// its listener closes even when the owner panics.
///
/// [`Server::start`]: crate::Server::start
/// [`Router::start`]: crate::Router::start
pub struct Running<R> {
    addr: SocketAddr,
    shutdown: ShutdownToken,
    /// Gets one message once the acceptor runs, and disconnects when
    /// the service thread ends.
    signals: mpsc::Receiver<()>,
    thread: Option<JoinHandle<std::io::Result<R>>>,
}

impl<R: Send + 'static> Running<R> {
    /// Run `serve` on a thread of its own under a fresh token, and
    /// return once it calls the hook it is given (its acceptor runs).
    /// A service that stops before that returns its error here.
    pub(crate) fn start(
        addr: SocketAddr,
        role: &str,
        serve: impl FnOnce(&ShutdownToken, &dyn Fn()) -> std::io::Result<R> + Send + 'static,
    ) -> std::io::Result<Running<R>> {
        let shutdown = ShutdownToken::new();
        let (signal, signals) = mpsc::channel();
        let token = shutdown.clone();
        let thread = std::thread::Builder::new()
            .name(format!("gsb-{role}"))
            .spawn(move || {
                serve(&token, &|| {
                    let _ = signal.send(());
                })
            })?;
        let running = Running {
            addr,
            shutdown,
            signals,
            thread: Some(thread),
        };
        if running.signals.recv().is_ok() {
            return Ok(running);
        }
        running.wait().and(Err(std::io::Error::other(
            "the service stopped before it accepted",
        )))
    }

    /// The address the service listens on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Ask the service to drain, as SIGTERM asks `gsb serve`: stop
    /// accepting, answer every accepted connection, shed the backlog.
    pub fn drain(&self) {
        self.shutdown.request(15);
    }

    /// Drain the service and wait until it stops: its report, or its
    /// error. A panic of the service thread is raised here.
    pub fn wait(self) -> std::io::Result<R> {
        self.wait_timeout(Duration::MAX)
            .expect("an unbounded wait ends when the service does")
    }

    /// [`Running::wait`] for at most `timeout`: `None` if the service
    /// is still running then, and its thread is left to finish alone.
    pub fn wait_timeout(mut self, timeout: Duration) -> Option<std::io::Result<R>> {
        self.drain();
        if let Err(mpsc::RecvTimeoutError::Timeout) = self.signals.recv_timeout(timeout) {
            self.thread = None;
            return None;
        }
        let thread = self
            .thread
            .take()
            .expect("only a timed-out wait lets go of the thread");
        Some(
            thread
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
        )
    }
}

impl<R> Drop for Running<R> {
    fn drop(&mut self) {
        self.shutdown.request(15);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Serve `listener` until `shutdown` is requested, then drain: stop
/// accepting, answer every admitted connection, shed the kernel backlog
/// with `503`, and join the workers. `ready` runs once the workers and
/// the waker are up, just before the first accept. Returns the
/// connections accepted (the waker's is not one).
pub(crate) fn run<S: Service>(
    listener: &TcpListener,
    service: &Arc<S>,
    shutdown: &ShutdownToken,
    ready: &dyn Fn(),
) -> std::io::Result<u64> {
    let http = service.http();
    let role = http.config.role;
    let (tx, rx) = mpsc::channel::<(TcpStream, Instant)>();
    let rx = Arc::new(Mutex::new(rx));
    let mut workers = Vec::with_capacity(http.config.threads.max(1));
    for i in 0..http.config.threads.max(1) {
        let (rx, service) = (Arc::clone(&rx), Arc::clone(service));
        workers.push(
            std::thread::Builder::new()
                .name(format!("gsb-{role}-{i}"))
                .spawn(move || worker_loop(&rx, &*service))?,
        );
    }
    let waker = Waker::spawn(listener.local_addr()?, shutdown.clone(), role)?;
    ready();

    // A connection accepted after shutdown was requested: the waker's,
    // or a client the drain sweep sheds.
    let mut late = None;
    while !shutdown.is_requested() {
        match listener.accept() {
            Ok(conn) if shutdown.is_requested() => late = Some(conn),
            Ok((stream, _)) => {
                http.recorder.add("http.connections", 1);
                if gsb_core::failpoint::inject("serve.accept").is_err() {
                    // Injected accept-path fault: account and drop,
                    // exactly like a socket that died post-accept.
                    http.recorder.add("http.accept_errors", 1);
                    continue;
                }
                let _ = stream.set_read_timeout(Some(http.config.deadline));
                let _ = stream.set_write_timeout(Some(http.config.deadline));
                let _ = stream.set_nodelay(true);
                if http.queue_depth.load(Ordering::Acquire) >= http.config.queue_limit {
                    let mut stream = stream;
                    let _ = stream.set_write_timeout(Some(INLINE_WRITE_BUDGET));
                    service.overloaded(&mut stream);
                    continue;
                }
                let depth = http.queue_depth.fetch_add(1, Ordering::AcqRel) + 1;
                http.recorder.gauge("http.queue_depth").set(depth as u64);
                if tx.send((stream, Instant::now())).is_err() {
                    break;
                }
            }
            Err(e) if is_transient(&e) => {}
            Err(_) => {
                // EMFILE and friends persist: back off instead of
                // spinning on a blocking accept that fails at once.
                http.recorder.add("http.accept_errors", 1);
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
    let waker = waker.stop();

    // From here on `/ready` answers 503: queued requests still drain
    // to completion, but a router probing readiness ejects this
    // backend instead of routing new work at a closing door.
    http.draining.store(true, Ordering::Release);

    // Drain sweep: everything admitted drains through the workers;
    // connections still waiting in the kernel backlog are shed with a
    // typed 503 instead of a silent reset.
    listener.set_nonblocking(true)?;
    let backlog = std::iter::from_fn(|| listener.accept().ok());
    for (mut stream, peer) in late.into_iter().chain(backlog) {
        if Some(peer) == waker {
            continue;
        }
        http.recorder.add("http.connections", 1);
        let _ = stream.set_nonblocking(false);
        let _ = stream.set_write_timeout(Some(INLINE_WRITE_BUDGET));
        http.shed(
            &mut stream,
            503,
            &format!("{role} draining for shutdown"),
            "http.shed.draining",
        );
    }
    drop(tx);
    for w in workers {
        let _ = w.join();
    }
    Ok(http.recorder.counter("http.connections").get())
}

/// One worker: pop connections, answer them, contain panics.
fn worker_loop<S: Service>(rx: &Mutex<mpsc::Receiver<(TcpStream, Instant)>>, service: &S) {
    let http = service.http();
    loop {
        // Holding the lock only across recv keeps the other workers
        // free to pick up the next connection.
        let conn = rx.lock().unwrap().recv();
        let Ok((mut stream, accepted_at)) = conn else {
            // Channel closed after drain: every queued connection has
            // been answered.
            break;
        };
        let depth = http.queue_depth.fetch_sub(1, Ordering::AcqRel) - 1;
        http.recorder.gauge("http.queue_depth").set(depth as u64);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            serve_connection(service, &mut stream, accepted_at)
        }));
        if outcome.is_err() {
            // The worker survives a panicking request; the client gets
            // a typed 500 instead of a dead socket.
            http.recorder.add("http.worker_panics", 1);
            http.recorder.add(status_key(500), 1);
            let body = "{\"error\":\"internal error answering this request\"}";
            let _ = respond_full(&mut stream, 500, body, 0, 1, CONTENT_TYPE_JSON, &[]);
        }
    }
}

/// Read the request head incrementally (progress bounded by the
/// request budget, size bounded by `max_header_bytes`) and hand it to
/// the service.
fn serve_connection<S: Service>(service: &S, stream: &mut TcpStream, accepted_at: Instant) {
    let http = service.http();
    let config = &http.config;
    // The span's clock starts at accept: the first stage is the queue
    // wait this request already paid for.
    let mut span = SpanRecorder::started_at(String::new(), accepted_at);
    span.stage("queue");
    // The budget already paid for queueing; a request that spent it all
    // waiting is shed rather than started.
    if accepted_at.elapsed() >= config.request_deadline {
        http.shed(
            stream,
            503,
            "request exceeded its deadline budget while queued",
            "http.shed.deadline",
        );
        service.answered_early(&span, "unparsed", 503, "deadline");
        return;
    }

    let mut buf = vec![0u8; config.max_header_bytes.max(64)];
    let mut used = 0usize;
    let head_len = loop {
        let Some(remaining) = config.request_deadline.checked_sub(accepted_at.elapsed()) else {
            // Anti-slow-loris: each read made "progress", but the head
            // never completed within the budget.
            http.shed(
                stream,
                408,
                "request header did not complete within the deadline budget",
                "http.shed.slow_client",
            );
            span.stage("parse");
            service.answered_early(&span, "unparsed", 408, "slow_client");
            return;
        };
        if used == buf.len() {
            http.recorder.add("http.bad_request.requests", 1);
            http.recorder.add(status_key(431), 1);
            let body = "{\"error\":\"request header too large\"}";
            if respond_full(stream, 431, body, 0, 1, CONTENT_TYPE_JSON, &[]).is_err() {
                http.recorder.add("http.write_errors", 1);
            }
            span.stage("parse");
            service.answered_early(&span, "bad_request", 431, "header_too_large");
            return;
        }
        let per_read = remaining.min(config.deadline).max(Duration::from_millis(1));
        let _ = stream.set_read_timeout(Some(per_read));
        match stream.read(&mut buf[used..]) {
            Ok(0) => return, // peer closed before sending a request
            Ok(k) => {
                used += k;
                if let Some(end) = find_head_end(&buf[..used]) {
                    break end;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Read timed out: loop back so the budget check above
                // decides between another read and a 408.
                continue;
            }
            Err(_) => {
                // Connection reset or similar: nothing to answer.
                http.recorder.add("http.read_errors", 1);
                return;
            }
        }
    };

    let head = String::from_utf8_lossy(&buf[..head_len]);
    span.set_trace_id(http.trace_id(&head));
    span.stage("parse");
    service.answer(stream, &head, accepted_at, span);
}

/// Wakes the acceptor out of a blocking `accept()` once shutdown is
/// requested, by connecting to the listener's own address.
struct Waker {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<Option<SocketAddr>>,
}

impl Waker {
    /// The token check interval (the reload watcher's tick).
    const TICK: Duration = Duration::from_millis(20);

    fn spawn(listening: SocketAddr, shutdown: ShutdownToken, role: &str) -> std::io::Result<Waker> {
        let mut target = listening;
        if target.ip().is_unspecified() {
            target.set_ip(match target {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name(format!("gsb-{role}-wake"))
                .spawn(move || {
                    while !stop.load(Ordering::Acquire) {
                        if shutdown.is_requested() {
                            if let Ok(s) = TcpStream::connect_timeout(&target, Self::TICK * 5) {
                                return s.local_addr().ok();
                            }
                        }
                        std::thread::sleep(Self::TICK);
                    }
                    None
                })?
        };
        Ok(Waker { stop, thread })
    }

    /// Stop the waker; the address its connection came from, if it
    /// made one.
    fn stop(self) -> Option<SocketAddr> {
        self.stop.store(true, Ordering::Release);
        self.thread.join().ok().flatten()
    }
}

/// Write the `--metrics-out` JSON atomically: sibling temp file, fsync,
/// rename, the whole write retried on transient errors.
pub(crate) fn write_metrics(path: Option<&Path>, json: &str) -> std::io::Result<()> {
    let Some(path) = path else {
        return Ok(());
    };
    RetryPolicy::default().run_io(|| write_atomic(path, |w| w.write_all(json.as_bytes())))
}

/// Statuses with their own response counter, in exposition order: the
/// code, the recorder key (its last part is the `status` label) and the
/// reason phrase. Any other status counts as `http.status.other`.
pub(crate) const STATUSES: [(u16, &str, &str); 9] = [
    (200, "http.status.200", "OK"),
    (400, "http.status.400", "Bad Request"),
    (404, "http.status.404", "Not Found"),
    (405, "http.status.405", "Method Not Allowed"),
    (408, "http.status.408", "Request Timeout"),
    (429, "http.status.429", "Too Many Requests"),
    (431, "http.status.431", "Request Header Fields Too Large"),
    (500, "http.status.500", "Internal Server Error"),
    (503, "http.status.503", "Service Unavailable"),
];

/// The response counter of `status`, for the `*_responses_total`
/// Prometheus families.
pub(crate) fn status_key(status: u16) -> &'static str {
    STATUSES
        .iter()
        .find(|s| s.0 == status)
        .map_or("http.status.other", |s| s.1)
}

/// A rendered response: status, body, `X-Gsb-Degraded` count and
/// content type.
pub(crate) type Reply = (u16, String, u64, &'static str);

/// Requests answered with a routed response, all endpoints.
pub(crate) fn total_requests(recorder: &AtomicRecorder) -> u64 {
    Endpoint::ALL
        .iter()
        .map(|ep| recorder.counter(ep.requests_key()).get())
        .sum()
}

/// The core's plain counters: family name suffix, recorder key, help.
pub(crate) const CORE_COUNTERS: [(&str, &str, &str); 5] = [
    (
        "connections_total",
        "http.connections",
        "TCP connections accepted (shed ones too).",
    ),
    (
        "worker_panics_total",
        "http.worker_panics",
        "Handlers that panicked (answered 500).",
    ),
    (
        "read_errors_total",
        "http.read_errors",
        "Connections lost reading the request.",
    ),
    (
        "write_errors_total",
        "http.write_errors",
        "Responses that failed to write.",
    ),
    (
        "accept_errors_total",
        "http.accept_errors",
        "Accept-path failures.",
    ),
];

/// One unlabelled counter family per `(name suffix, recorder key,
/// help)` row, named under `prefix`.
pub(crate) fn write_counters(
    w: &mut PromWriter,
    r: &AtomicRecorder,
    prefix: &str,
    counters: &[(&str, &'static str, &str)],
) {
    for &(suffix, key, help) in counters {
        let family = w.family(&format!("{prefix}_{suffix}"), PromKind::Counter, help);
        w.sample(&family, &[], r.counter(key).get());
    }
}

/// Write the core's metric families under `prefix` (`gsb_http` for the
/// server, `gsb_router` for the router): requests and latency by
/// endpoint, responses by status, the admission-queue depth, and
/// [`CORE_COUNTERS`].
pub(crate) fn write_core_families(w: &mut PromWriter, r: &AtomicRecorder, prefix: &str) {
    let requests = w.family(
        &format!("{prefix}_requests_total"),
        PromKind::Counter,
        "Requests answered, by endpoint.",
    );
    for ep in Endpoint::ALL {
        let value = r.counter(ep.requests_key()).get();
        w.sample(&requests, &[("endpoint", ep.name())], value);
    }
    let duration = w.family(
        &format!("{prefix}_request_duration_ns"),
        PromKind::Histogram,
        "Request handling latency in nanoseconds (log2 buckets), by endpoint.",
    );
    for ep in Endpoint::ALL {
        let h = r.histogram(ep.latency_key());
        let labels = [("endpoint", ep.name())];
        w.histogram(
            &duration,
            &labels,
            &h.cumulative_buckets(),
            h.sum(),
            h.count(),
        );
    }
    let status = w.family(
        &format!("{prefix}_responses_total"),
        PromKind::Counter,
        "Responses written, by HTTP status.",
    );
    for (_, key, _) in STATUSES {
        let label = key.trim_start_matches("http.status.");
        w.sample(&status, &[("status", label)], r.counter(key).get());
    }
    let other = r.counter("http.status.other").get();
    w.sample(&status, &[("status", "other")], other);
    let depth = w.family(
        &format!("{prefix}_queue_depth"),
        PromKind::Gauge,
        "Connections currently waiting in the admission queue.",
    );
    w.sample(&depth, &[], r.gauge("http.queue_depth").get());
    write_counters(w, r, prefix, &CORE_COUNTERS);
}

/// Read the request head into `buf` for at most 50 ms in total,
/// stopping at its end or when `buf` is full; returns the bytes read.
/// Every path that answers without the worker's header reader (a shed,
/// an inline answer on the accept path) reads this way first: closing
/// with unread data in the receive buffer makes the kernel reset the
/// connection, and the client would see ECONNRESET instead of the typed
/// response. A head can arrive in several segments, so one read is not
/// enough, and the time bound keeps a silent client from stalling the
/// path.
pub(crate) fn read_head_briefly(stream: &mut TcpStream, buf: &mut [u8]) -> usize {
    let until = Instant::now() + Duration::from_millis(50);
    let mut used = 0;
    while used < buf.len() {
        let left = until.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            break;
        }
        match stream.read(&mut buf[used..]) {
            Ok(k) if k > 0 => used += k,
            _ => break,
        }
        if find_head_end(&buf[..used]).is_some() {
            break;
        }
    }
    used
}

pub(crate) fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
}

/// Case-insensitive lookup of one request-header value.
pub(crate) fn header_value<'a>(head: &'a str, name: &str) -> Option<&'a str> {
    for line in head.lines().skip(1) {
        if let Some((key, value)) = line.split_once(':') {
            if key.trim().eq_ignore_ascii_case(name) {
                return Some(value.trim());
            }
        }
    }
    None
}

/// The `X-Gsb-Trace` / `X-Gsb-Trace-Ns` response headers for a span.
pub(crate) fn trace_headers(span: &SpanRecorder) -> [(&'static str, String); 2] {
    [
        ("X-Gsb-Trace", span.trace_id().to_string()),
        ("X-Gsb-Trace-Ns", span.total_ns().to_string()),
    ]
}

/// Write one complete response. Every response closes the connection
/// and carries an exact `Content-Length`; every error/shed status also
/// carries `Retry-After` (clamped to 1–8 s), a degraded-exact answer is
/// marked with `X-Gsb-Degraded: <skipped ids>`, and `extra` adds
/// headers (the trace id/total pair).
pub(crate) fn respond_full(
    stream: &mut TcpStream,
    status: u16,
    body: &str,
    degraded: u64,
    retry_after_secs: u32,
    content_type: &str,
    extra: &[(&'static str, String)],
) -> std::io::Result<()> {
    gsb_core::failpoint::inject("serve.respond")?;
    let reason = STATUSES
        .iter()
        .find(|s| s.0 == status)
        .map_or("Internal Server Error", |s| s.2);
    let retry_after = if status >= 400 {
        format!("Retry-After: {}\r\n", retry_after_secs.clamp(1, 8))
    } else {
        String::new()
    };
    let degraded_header = if degraded > 0 {
        format!("X-Gsb-Degraded: {degraded}\r\n")
    } else {
        String::new()
    };
    let mut extra_headers = String::new();
    for (name, value) in extra {
        extra_headers.push_str(name);
        extra_headers.push_str(": ");
        extra_headers.push_str(value);
        extra_headers.push_str("\r\n");
    }
    let response = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n{retry_after}{degraded_header}{extra_headers}Connection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_end_detection() {
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\nrest"), Some(18));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n"), None);
    }

    #[test]
    fn retry_after_scales_with_queue_depth_and_stays_bounded() {
        let scale = |depth: usize, limit: usize| {
            let http = Http::new(HttpConfig {
                role: "server",
                threads: 1,
                deadline: Duration::from_secs(1),
                request_deadline: Duration::from_secs(1),
                queue_limit: limit,
                max_header_bytes: 64,
                trace_seed: 0,
            });
            http.queue_depth.store(depth, Ordering::Release);
            http.retry_after_secs()
        };
        assert_eq!(scale(0, 128), 1);
        assert_eq!(scale(64, 128), 4);
        assert_eq!(scale(128, 128), 8);
        // depth beyond limit (racy reads) still clamps to the cap
        assert_eq!(scale(10_000, 128), 8);
        // a zero limit cannot divide by zero
        assert_eq!(scale(5, 0), 8);
    }

    #[test]
    fn header_value_is_case_insensitive_and_trimmed() {
        let head = "GET / HTTP/1.1\r\nHost: x\r\nX-Gsb-Trace:  abc-123 \r\n\r\n";
        assert_eq!(header_value(head, "x-gsb-trace"), Some("abc-123"));
        assert_eq!(header_value(head, "host"), Some("x"));
        assert_eq!(header_value(head, "missing"), None);
    }

    #[test]
    fn status_keys_are_distinct_per_status() {
        let mut seen = std::collections::BTreeSet::new();
        for (code, _, _) in STATUSES {
            assert!(seen.insert(status_key(code)), "duplicate for {code}");
        }
        assert_eq!(status_key(418), "http.status.other");
    }
}
