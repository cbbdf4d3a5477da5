//! `gsb serve` — serve a `gsb index` directory over HTTP until a
//! SIGINT/SIGTERM asks for a graceful drain.

use super::ms;
use crate::args::Args;
use crate::CliError;
use gsb_core::ShutdownToken;
use gsb_index::{endpoint_paths, CliqueIndex, ServeConfig, Server};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// `gsb serve`
pub fn serve(argv: &[String]) -> Result<String, CliError> {
    let a = Args::parse(
        argv,
        &[
            "addr",
            "threads",
            "deadline-secs",
            "request-deadline-ms",
            "queue-limit",
            "rate-limit",
            "rate-burst",
            "max-header-bytes",
            "reload-poll-ms",
            "metrics-out",
            "access-log",
            "access-log-max-bytes",
            "slow-query-ms",
            "slow-query-log",
            "trace-seed",
        ],
        &[],
        1,
    )?;
    let dir = a.required_positional(0, "INDEX_DIR")?;
    let addr = a.flag("addr").unwrap_or("127.0.0.1:7700");
    // Each flag defaults to `ServeConfig::default()`; 0 turns off an
    // optional one.
    let defaults = ServeConfig::default();
    let threads: usize = a.flag_or("threads", defaults.threads)?;
    let deadline_secs: u64 = a.flag_or("deadline-secs", defaults.deadline.as_secs())?;
    let request_deadline_ms: u64 =
        a.flag_or("request-deadline-ms", ms(defaults.request_deadline))?;
    let queue_limit: usize = a.flag_or("queue-limit", defaults.queue_limit)?;
    let rate_limit: f64 = a.flag_or("rate-limit", defaults.rate_limit.unwrap_or(0.0))?;
    let rate_burst: u32 = a.flag_or("rate-burst", defaults.rate_burst)?;
    let max_header_bytes: usize = a.flag_or("max-header-bytes", defaults.max_header_bytes)?;
    let reload_poll = defaults.reload.as_ref().map_or(0, |(_, poll)| ms(*poll));
    let reload_poll_ms: u64 = a.flag_or("reload-poll-ms", reload_poll)?;
    let metrics_out = a.flag("metrics-out").map(PathBuf::from);
    let access_log = a.flag("access-log").map(PathBuf::from);
    let access_log_max_bytes: u64 =
        a.flag_or("access-log-max-bytes", defaults.access_log_max_bytes)?;
    let slow_query_ms: u64 = a.flag_or("slow-query-ms", defaults.slow_query_ms.unwrap_or(0))?;
    let slow_query_log = a.flag("slow-query-log").map(PathBuf::from);
    let trace_seed: u64 = a.flag_or("trace-seed", defaults.trace_seed)?;
    // Slow queries need somewhere to go: an explicit --slow-query-log
    // wins, else derive `<access-log>.slow`.
    let slow_query_log = match (slow_query_ms > 0, slow_query_log, &access_log) {
        (false, _, _) => None,
        (true, Some(path), _) => Some(path),
        (true, None, Some(access)) => {
            let mut name = access.as_os_str().to_os_string();
            name.push(".slow");
            Some(PathBuf::from(name))
        }
        (true, None, None) => {
            return Err(CliError::Usage(
                "--slow-query-ms requires --slow-query-log or --access-log".into(),
            ))
        }
    };

    let index_dir = Path::new(dir).to_path_buf();
    let index = Arc::new(CliqueIndex::open(&index_dir).map_err(CliError::Store)?);
    let config = ServeConfig {
        threads,
        deadline: Duration::from_secs(deadline_secs.max(1)),
        request_deadline: Duration::from_millis(request_deadline_ms.max(1)),
        queue_limit: queue_limit.max(1),
        rate_limit: (rate_limit > 0.0).then_some(rate_limit),
        rate_burst: rate_burst.max(1),
        max_header_bytes: max_header_bytes.max(64),
        reload: (reload_poll_ms > 0)
            .then(|| (index_dir.clone(), Duration::from_millis(reload_poll_ms))),
        metrics_out: metrics_out.clone(),
        access_log: access_log.clone(),
        access_log_max_bytes,
        slow_query_ms: (slow_query_ms > 0).then_some(slow_query_ms),
        slow_query_log,
        trace_seed,
    };
    let server = Server::bind(Arc::clone(&index), addr, config)?;
    let bound = server.local_addr()?;
    // Stderr, eagerly: the operator (and the CI smoke test) needs the
    // address before the first query, while stdout stays machine-clean.
    eprintln!(
        "gsb serve: listening on http://{bound} ({} cliques over {} vertices, {threads} workers, generation {})",
        index.len(),
        index.n(),
        index.generation()
    );
    eprintln!("gsb serve: endpoints: {}", endpoint_paths());
    if let Some(path) = &access_log {
        eprintln!("gsb serve: access log at {}", path.display());
    }

    let shutdown = ShutdownToken::global();
    let report = server.run(&shutdown)?;
    if let Some(path) = &metrics_out {
        eprintln!("gsb serve: metrics written to {}", path.display());
    }
    if report.shed > 0 || report.rate_limited > 0 || report.degraded > 0 || report.reloads > 0 {
        eprintln!(
            "gsb serve: shed {} connections, rate-limited {}, degraded {}, hot-reloads {}",
            report.shed, report.rate_limited, report.degraded, report.reloads
        );
    }
    super::drained(&shutdown, "served", report.requests, report.connections)
}
