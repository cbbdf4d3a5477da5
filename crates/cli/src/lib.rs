//! # gsb-cli — command-line front end for the SC'05 clique framework
//!
//! Subcommands (see [`run`] and `gsb help`):
//!
//! * `generate` — synthesize G(n,p), planted-module, or correlation-like
//!   graphs to an edge-list/DIMACS file;
//! * `stats` — profile a graph file (n, m, density, degrees, triangles);
//! * `cliques` — enumerate maximal cliques in non-decreasing size order,
//!   with `Init_K`/max bounds, threads, optional disk spill, and
//!   telemetry export (`--metrics-out`, `--progress`);
//! * `report` — render a `--metrics-out` run log as per-level and
//!   worker-imbalance tables;
//! * `maxclique` — exact maximum clique (direct B&B or the FPT
//!   vertex-cover route);
//! * `vc` — minimum vertex cover / decision;
//! * `fvs` — minimum feedback vertex set;
//! * `convert` — translate between edge-list and DIMACS by extension.
//!
//! Everything returns its report as a `String`, so the whole surface is
//! unit-testable without spawning processes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod commands;

use args::ArgError;
use std::fmt;

/// Top-level CLI errors.
#[derive(Debug)]
pub enum CliError {
    /// No subcommand / unknown subcommand.
    Usage(String),
    /// Argument parsing or validation failed.
    Args(ArgError),
    /// File I/O failed.
    Io(std::io::Error),
    /// Graph file was malformed.
    Parse(gsb_graph::io::ParseError),
    /// Checkpoint/spill storage failed or is corrupt.
    Store(gsb_core::StoreError),
    /// The enumeration runtime failed (worker panics, nothing to
    /// resume, ...).
    Runtime(String),
    /// A graceful shutdown on this signal: the run stopped at a level
    /// barrier with a final checkpoint, ready for `gsb resume`.
    Interrupted(i32),
    /// A graceful server shutdown on this signal: `gsb serve` stopped
    /// accepting, answered every in-flight and queued connection, and
    /// exited clean.
    Drained {
        /// The signal that requested shutdown (2 = SIGINT, 15 = SIGTERM).
        signal: i32,
        /// Connections accepted over the server's lifetime.
        connections: u64,
        /// Requests answered over the server's lifetime.
        requests: u64,
    },
}

impl CliError {
    /// Process exit code: 2 for usage/argument mistakes (the operator
    /// should fix the command line), 1 for runtime failures, and the
    /// conventional `128 + signal` (130 = SIGINT, 143 = SIGTERM) for a
    /// signal-requested graceful shutdown.
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Usage(_) | CliError::Args(_) => 2,
            CliError::Io(_) | CliError::Parse(_) | CliError::Store(_) | CliError::Runtime(_) => 1,
            CliError::Interrupted(signal) => 128 + signal,
            CliError::Drained { signal, .. } => 128 + signal,
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}\n\n{USAGE}"),
            CliError::Args(e) => write!(f, "{e}"),
            CliError::Io(e) => write!(f, "I/O error: {e}"),
            CliError::Parse(e) => write!(f, "parse error: {e}"),
            CliError::Store(e) => write!(f, "storage error: {e}"),
            CliError::Runtime(msg) => write!(f, "runtime error: {msg}"),
            CliError::Interrupted(signal) => write!(
                f,
                "interrupted by signal {signal}; checkpoint saved — continue with `gsb resume`"
            ),
            CliError::Drained {
                signal,
                connections,
                requests,
            } => write!(
                f,
                "shutdown on signal {signal}: drained {connections} connection(s), \
                 {requests} request(s) answered, none truncated"
            ),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Args(e)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

impl From<gsb_graph::io::ParseError> for CliError {
    fn from(e: gsb_graph::io::ParseError) -> Self {
        CliError::Parse(e)
    }
}

impl From<gsb_core::StoreError> for CliError {
    fn from(e: gsb_core::StoreError) -> Self {
        CliError::Store(e)
    }
}

impl From<gsb_core::PipelineError> for CliError {
    fn from(e: gsb_core::PipelineError) -> Self {
        match e {
            gsb_core::PipelineError::Store(e) => CliError::Store(e),
            gsb_core::PipelineError::Interrupted { signal } => CliError::Interrupted(signal),
            other => CliError::Runtime(other.to_string()),
        }
    }
}

/// Usage text.
pub const USAGE: &str = "\
gsb — genome-scale clique analysis (SC'05 framework)

USAGE:
  gsb generate --kind gnp|planted|correlation --n N [--p P] [--density D]
               [--modules 9,7,5] [--seed S] --out FILE
  gsb stats FILE
  gsb cliques FILE [--min K] [--max K] [--threads T] [--count-only]
               [--backend dense|wah]
               [--out FILE] [--checkpoint-dir DIR] [--checkpoint-secs S]
               [--memory-budget BYTES] [--disk-budget BYTES]
               [--worker-deadline-secs S]
               [--metrics-out RUN_JSONL] [--progress]
  gsb resume CHECKPOINT_DIR [--threads T] [--worker-deadline-secs S]
               [--metrics-out RUN_JSONL] [--progress]
  gsb report RUN_JSONL
  gsb maxclique FILE [--via-vc]
  gsb vc FILE [--k K]
  gsb fvs FILE
  gsb motif SEQFILE --l WIDTH [--d MUTATIONS] [--q QUORUM] [--top N]
  gsb index GRAPH --out DIR [--min K] [--max K] [--threads T]
               [--text-out FILE]
  gsb query INDEX_DIR (--containing V | --size-min K --size-max M |
               --max | --overlap V,W) [--ids-only] [--limit N]
  gsb serve INDEX_DIR [--addr HOST:PORT] [--threads T]
               [--deadline-secs S] [--request-deadline-ms MS]
               [--queue-limit N] [--rate-limit QPS] [--rate-burst N]
               [--max-header-bytes N] [--reload-poll-ms MS]
               [--metrics-out FILE] [--access-log FILE]
               [--access-log-max-bytes N] [--slow-query-ms MS]
               [--slow-query-log FILE] [--trace-seed S]
  gsb shard INDEX_DIR --out DIR [--shards N]
               [--topology-out FILE --replicas h:p,h:p/h:p,h:p]
  gsb router TOPOLOGY [--addr HOST:PORT] [--threads T]
               [--deadline-secs S] [--request-deadline-ms MS]
               [--queue-limit N] [--max-header-bytes N]
               [--probe-interval-ms MS] [--breaker-failures N]
               [--breaker-cooldown-ms MS] [--try-timeout-ms MS]
               [--hedge-percentile P] [--hedge-min-ms MS]
               [--retry-seed S] [--trace-seed S] [--metrics-out FILE]
  gsb tail ACCESS_LOG [--top N]
  gsb scrub INDEX_DIR [--json]
  gsb update INDEX_DIR [--add-edges FILE] [--remove-edges FILE]
  gsb compact INDEX_DIR
  gsb bench-serve [--out FILE] [--seed S] [--smoke] [--scrape]
               [--router]
  gsb bench-update [--out FILE] [--seed S] [--smoke]
  gsb stats --index INDEX_DIR
  gsb convert IN OUT
  gsb help

Graph files: whitespace edge lists (0-indexed), or DIMACS with a
.clq/.dimacs extension. Sequence files: one sequence per line.

Backends: `cliques --backend dense|wah` selects the bitmap
representation of the per-sub-list common-neighbor sets — dense u64
words (default) or WAH-compressed run-length words. Both enumerate the
identical clique set; WAH trades AND throughput for a smaller working
set on sparse genome-scale graphs. Checkpoints are written in the
selected representation and `gsb resume` picks the backend up from
run.meta.

Parallel runtime: `cliques --threads T` runs each level as a
work-stealing epoch — the level is cut into cost-balanced runs of
consecutive sub-lists, a run is a task, idle workers steal whole runs
from busy ones, and the output is byte-identical to the sequential
run. Older run.meta files that name a scheduler resume on this runtime.

Crash recovery: `cliques --checkpoint-dir DIR --out FILE` persists the
current level at each barrier (every --checkpoint-secs seconds if
given); after a crash, `gsb resume DIR` reloads the newest valid
checkpoint and completes the run, appending to the original output
file. `--memory-budget BYTES` degrades to the out-of-core enumerator
instead of exceeding the budget (at 0 every level runs out of core).
Every option configures the same level loop, so each run emits the
same bytes as the plain run, at any thread count.

Supervision: with `--checkpoint-dir`, SIGINT/SIGTERM trigger a graceful
shutdown — the in-flight level finishes, a final checkpoint is forced,
and the process exits 130/143 with the directory ready for `gsb
resume` (which reports why the previous run stopped).
`--worker-deadline-secs S` declares a parallel worker stuck after S
seconds inside one sub-list: it is replaced and the level retried, and
a sub-list that stalls again (or panics twice) is skipped into
`quarantine.jsonl` next to the checkpoints (reported by `gsb report`;
the output stays exact except descendants of the quarantined prefixes). `--disk-budget BYTES` caps
total checkpoint bytes, pruning old checkpoints (and surviving ENOSPC)
by keeping at least the newest one. Transient I/O errors on checkpoint
and spill writes are retried with jittered exponential backoff.

Telemetry: `cliques --metrics-out run.jsonl` writes one JSON record per
level barrier plus a final summary; `--progress` prints a live status
line to stderr. `gsb report run.jsonl` renders the per-level summary
and the Fig. 8-style worker-imbalance table from such a file.

Index & serving: `gsb index` writes every maximal clique, in the Clique
Enumerator's order, into a persistent on-disk index (CRC-framed clique
store, per-vertex postings lists, a size-range directory, committed
atomically via index.meta); `gsb query` answers
containment/size-range/max/overlap queries from that directory without
re-running anything; `gsb stats --index DIR` prints the index profile
and size histogram; `gsb serve` exposes the same queries over HTTP
(GET /health /stats /containing/V /size/LO/HI /max /overlap/V/W) with
per-endpoint latency histograms (`--metrics-out`),
a per-connection deadline, and a graceful SIGINT/SIGTERM drain that
answers every accepted connection before exiting 130/143.

Overload & integrity: `gsb serve` admission-controls with a bounded
queue (`--queue-limit`, full queue sheds 503 + Retry-After), optional
per-endpoint token-bucket rate limits (`--rate-limit QPS` with
`--rate-burst`, /health exempt, over-limit answers 429), a per-request
deadline budget measured from accept (`--request-deadline-ms`; slow
clients get 408, oversized headers 431), and optional hot-reloads
(`--reload-poll-ms` polls index.meta and atomically swaps in a rebuilt
index without dropping in-flight requests). Blocks that fail CRC at
read time are quarantined in memory and list answers degrade exactly
(marked with X-Gsb-Degraded) until a rebuild lands. `gsb scrub
INDEX_DIR` walks every CRC frame offline, recomputes the postings from
the decoded cliques, and exits 1 listing findings on any corruption
(`--json` emits one JSON object per finding plus a summary line).
`gsb bench-serve` runs self-contained closed-loop scenario checks
(steady + overload scenarios, plus a concurrent /metrics-scrape
scenario with `--scrape` and router failover scenarios with
`--router`) and writes their counts, shed rates and latency
percentiles to results/BENCH_serve.json. Its fixture is too small to
time query execution; the serving timings are perfbench's direct and
routed workloads.

Dynamic updates: `gsb update` applies an edge-edit batch (plain `u v`
edit files, removals before additions) to an index in place — only the
affected neighborhoods are re-enumerated (delta cliques + tombstones
appended as a new generation, manifest bumped atomically, so a serving
`gsb serve --reload-poll-ms` picks the new view up live without
dropping requests). Indexes built with `--max` are frozen (updates are
refused; rebuild without `--max`). `gsb compact INDEX_DIR` folds the
delta chain back into a clean base byte-identical to a fresh `gsb
index` of the patched graph; it is crash-safe and restartable — a
compact killed mid-swap is finished, not rebuilt, by the next run.
`gsb stats --index` reports the chain length and live/tombstone
counts; `gsb scrub` walks every delta frame, tombstone, and the graph
snapshot with the same any-single-byte-flip guarantee as the base.
`gsb bench-update` times update batches against a full rebuild by the
level-wise Clique Enumerator plus a global sort (not `gsb index`'s
faster per-root build) and commits the speedups to
results/BENCH_update.json.

Replication: `gsb shard` splits one committed index into contiguous
clique-id shard directories (each an ordinary index a stock `gsb
serve` can serve; size order makes id ranges size ranges) and can emit
the matching topology file. `gsb router` fronts those backends: it
scatter-gathers containing/overlap across shards, routes size/get/max
to the owning shards, health-probes every replica's /ready, drives a
per-backend circuit breaker (closed/half-open/open, with passive
failure accounting), carves per-try timeouts from the request deadline
(propagated via X-Gsb-Deadline-Ms so backends shed abandoned work),
fails over across replicas with seeded jittered backoff, hedges tail
latency at --hedge-percentile, and degrades exactly: if every replica
of a shard is down, scatter answers carry the surviving shards plus
X-Gsb-Degraded and a missing_shards field — never a blind 500. The
router's /metrics exports per-backend breaker-state gauges and
retry/hedge/degraded counters.

Observability: `gsb serve` exposes GET /metrics (Prometheus text
format: per-endpoint request counters and latency histograms, queue
depth, shed/degraded/status counters, block-cache and index gauges)
and GET /metrics-json (the --metrics-out snapshot, live); both are
exempt from admission control so a saturated server can still be
watched. Every request carries a trace id (client-supplied via
X-Gsb-Trace or server-generated) echoed in the response headers with
per-request nanoseconds. `--access-log FILE` appends one JSON line per
request (trace id, endpoint, status, shed cause, per-stage timings),
atomically rotated past `--access-log-max-bytes`; `--slow-query-ms`
tees requests over the threshold into `--slow-query-log` (default
`<access-log>.slow`). `gsb tail ACCESS_LOG` renders the RED summary
(rate/errors/duration percentiles per endpoint), the shed/degraded
cause table, and the top `--top` slowest traces with their per-stage
breakdown.";

/// Dispatch a full argv (without the program name) and return the
/// report to print.
pub fn run(argv: &[String]) -> Result<String, CliError> {
    let Some(cmd) = argv.first() else {
        return Err(CliError::Usage("no subcommand given".into()));
    };
    let rest = &argv[1..];
    match cmd.as_str() {
        "generate" => commands::generate(rest),
        "stats" => commands::stats(rest),
        "cliques" => commands::cliques(rest),
        "resume" => commands::resume(rest),
        "report" => commands::report(rest),
        "maxclique" => commands::maxclique(rest),
        "vc" => commands::vertex_cover(rest),
        "fvs" => commands::fvs(rest),
        "motif" => commands::motif(rest),
        "index" => commands::index(rest),
        "query" => commands::query(rest),
        "serve" => commands::serve(rest),
        "router" => commands::router(rest),
        "shard" => commands::shard(rest),
        "tail" => commands::tail(rest),
        "scrub" => commands::scrub(rest),
        "update" => commands::update(rest),
        "compact" => commands::compact(rest),
        "bench-serve" => commands::bench_serve(rest),
        "bench-update" => commands::bench_update(rest),
        "convert" => commands::convert(rest),
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        other => Err(CliError::Usage(format!("unknown subcommand {other:?}"))),
    }
}
