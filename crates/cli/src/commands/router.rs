//! `gsb router` — front a sharded, replicated tier of `gsb serve`
//! backends with health-checked failover, circuit breakers, hedged
//! retries, and degraded-exact scatter-gather.

use super::ms;
use crate::args::Args;
use crate::CliError;
use gsb_core::ShutdownToken;
use gsb_index::{endpoint_paths, Router, RouterConfig, Topology};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// `gsb router`
pub fn router(argv: &[String]) -> Result<String, CliError> {
    let a = Args::parse(
        argv,
        &[
            "addr",
            "threads",
            "deadline-secs",
            "request-deadline-ms",
            "queue-limit",
            "max-header-bytes",
            "probe-interval-ms",
            "breaker-failures",
            "breaker-cooldown-ms",
            "try-timeout-ms",
            "hedge-percentile",
            "hedge-min-ms",
            "retry-seed",
            "trace-seed",
            "metrics-out",
        ],
        &[],
        1,
    )?;
    let topology_path = a.required_positional(0, "TOPOLOGY")?;
    let addr = a.flag("addr").unwrap_or("127.0.0.1:7790");
    let defaults = RouterConfig::default();
    let hedge_percentile: f64 = a.flag_or("hedge-percentile", defaults.hedge_percentile)?;
    if !(0.0..=1.0).contains(&hedge_percentile) {
        return Err(CliError::Usage(
            "--hedge-percentile must be within 0..=1 (0 disables hedging)".into(),
        ));
    }
    let config = RouterConfig {
        threads: a.flag_or("threads", defaults.threads)?.max(1),
        deadline: Duration::from_secs(
            a.flag_or("deadline-secs", defaults.deadline.as_secs())?
                .max(1),
        ),
        request_deadline: Duration::from_millis(
            a.flag_or("request-deadline-ms", ms(defaults.request_deadline))?
                .max(1),
        ),
        queue_limit: a.flag_or("queue-limit", defaults.queue_limit)?.max(1),
        max_header_bytes: a
            .flag_or("max-header-bytes", defaults.max_header_bytes)?
            .max(64),
        probe_interval: Duration::from_millis(
            a.flag_or("probe-interval-ms", ms(defaults.probe_interval))?
                .max(10),
        ),
        breaker_failures: a
            .flag_or("breaker-failures", defaults.breaker_failures)?
            .max(1),
        breaker_cooldown: Duration::from_millis(
            a.flag_or("breaker-cooldown-ms", ms(defaults.breaker_cooldown))?
                .max(1),
        ),
        try_timeout: Duration::from_millis(
            a.flag_or("try-timeout-ms", ms(defaults.try_timeout))?
                .max(1),
        ),
        hedge_percentile,
        hedge_min: Duration::from_millis(a.flag_or("hedge-min-ms", ms(defaults.hedge_min))?.max(1)),
        retry_seed: a.flag_or("retry-seed", defaults.retry_seed)?,
        trace_seed: a.flag_or("trace-seed", defaults.trace_seed)?,
        metrics_out: a.flag("metrics-out").map(PathBuf::from),
    };

    let topology = Topology::load(Path::new(topology_path)).map_err(CliError::Store)?;
    let shards = topology.shards.len();
    let replicas: usize = topology.shards.iter().map(|s| s.replicas.len()).sum();
    let cliques = topology.total_cliques();
    let metrics_out = config.metrics_out.clone();
    let front = Router::bind(topology, addr, config)?;
    let bound = front.local_addr()?;
    // Stderr, eagerly: the operator (and the CI smoke test) needs the
    // address before the first query, while stdout stays machine-clean.
    eprintln!(
        "gsb router: listening on http://{bound} ({shards} shards, {replicas} replicas, {cliques} cliques)"
    );
    eprintln!("gsb router: endpoints: {}", endpoint_paths());

    let shutdown = ShutdownToken::global();
    let report = front.run(&shutdown)?;
    if let Some(path) = &metrics_out {
        eprintln!("gsb router: metrics written to {}", path.display());
    }
    if report.retries > 0 || report.hedges > 0 || report.degraded_answers > 0 || report.shed > 0 {
        eprintln!(
            "gsb router: retried {} tries, hedged {} ({} wins), degraded {} answers, shed {}",
            report.retries, report.hedges, report.hedge_wins, report.degraded_answers, report.shed
        );
    }
    super::drained(&shutdown, "routed", report.requests, report.connections)
}
