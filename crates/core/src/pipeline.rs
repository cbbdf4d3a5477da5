//! End-to-end driver: the paper's three-stage strategy (§2).
//!
//! "Using a maximum clique algorithm to determine an upper bound on
//! clique size (Section 2.1), we then enumerate all k-cliques ... where
//! k is the user-supplied lower bound (Section 2.2). A maximal clique
//! enumeration algorithm (Section 2.3) is then employed using the
//! non-maximal k-cliques as input."
//!
//! ## Fault tolerance
//!
//! The pipeline is also the fault-tolerant runtime. When configured
//! with [`checkpoint`](CliquePipeline::checkpoint) and/or
//! [`memory_budget`](CliquePipeline::memory_budget) it drives the
//! enumeration through per-level barriers where it
//!
//! 1. flushes durable sinks and persists the level atomically (crash
//!    recovery: [`CliquePipeline::resume`] reloads the newest valid
//!    checkpoint and re-expands it, emitting only sizes above it);
//! 2. projects the next level's footprint and, when it would exceed the
//!    budget, *degrades* mid-flight to the out-of-core enumerator
//!    instead of dying on allocation;
//! 3. contains worker faults: a panicking task is retried inline, a
//!    level whose epoch fails supervision is discarded and retried once
//!    on respawned workers, and a level that still fails writes a final
//!    checkpoint and surfaces [`PipelineError::Workers`].
//!
//! Without those options `run` takes the original in-core fast path.

use crate::backend::{BackendChoice, InMemoryLevel, SpilledLevel};
use crate::checkpoint::{
    latest_checkpoint, record_stop_cause, CheckpointConfig, CheckpointManager, RunProgress,
    StopCause,
};
use crate::enumerator::{CliqueEnumerator, EnumConfig, EnumStats, LevelReport};
use crate::maxclique::maximum_clique_size;
use crate::memory::LevelMemory;
use crate::parallel::{
    BarrierControl, ParallelConfig, ParallelEnumerator, ParallelOutcome, ParallelRunError,
    ParallelStats,
};
use crate::sink::CliqueSink;
use crate::store::{SpillConfig, StoreError};
use crate::sublist::Level;
use crate::supervise::ShutdownToken;
use crate::Vertex;
use gsb_bitset::{BitSet, HybridSet, NeighborSet, WahBitSet};
use gsb_graph::reduce::clique_upper_bound;
use gsb_graph::BitGraph;
use gsb_par::RoundError;
use gsb_telemetry::{LevelRecord, RunSummary, RunTelemetry, TelemetryConfig};
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// A pipeline run failed (only possible with fault-tolerance options:
/// the plain in-core path is infallible).
#[derive(Debug)]
pub enum PipelineError {
    /// Checkpoint or spill I/O / corruption, or a durable sink that
    /// could not be flushed at a barrier.
    Store(StoreError),
    /// A parallel level failed (see [`ParallelRunError::Round`]). When
    /// checkpointing is configured, a final checkpoint of the failed
    /// level was written before this was returned, so the run is
    /// resumable.
    Workers {
        /// The level whose workers failed.
        k: usize,
        /// The failing epoch's worker failures.
        error: RoundError,
    },
    /// `resume` found no checkpoint (none configured, none written, or
    /// the run had already completed and cleaned up).
    NoCheckpoint,
    /// A graceful shutdown was requested (via the pipeline's
    /// [`ShutdownToken`], typically from a SIGINT/SIGTERM handler). The
    /// run stopped at a level barrier; when checkpointing is
    /// configured, a final checkpoint and the stop cause were persisted
    /// first, so the directory is `resume`-ready.
    Interrupted {
        /// The signal number that requested the shutdown (2 = SIGINT,
        /// 15 = SIGTERM); processes conventionally exit `128 + signal`.
        signal: i32,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Store(e) => write!(f, "pipeline storage error: {e}"),
            PipelineError::Workers { k, error } => {
                write!(f, "workers failed at level {k} after retry: {error}")
            }
            PipelineError::NoCheckpoint => write!(f, "no checkpoint to resume from"),
            PipelineError::Interrupted { signal } => {
                write!(f, "interrupted by signal {signal} (checkpoint saved)")
            }
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Store(e) => Some(e),
            PipelineError::Workers { error, .. } => Some(error),
            PipelineError::NoCheckpoint | PipelineError::Interrupted { .. } => None,
        }
    }
}

impl From<StoreError> for PipelineError {
    fn from(e: StoreError) -> Self {
        PipelineError::Store(e)
    }
}

/// Builder for a full clique-analysis run.
#[derive(Clone, Debug)]
pub struct CliquePipeline {
    min_k: usize,
    max_k: Option<usize>,
    threads: usize,
    exact_upper_bound: bool,
    checkpoint: Option<CheckpointConfig>,
    memory_budget: Option<usize>,
    degrade_dir: Option<PathBuf>,
    telemetry: Option<Arc<RunTelemetry>>,
    backend: BackendChoice,
    shutdown: Option<ShutdownToken>,
    worker_deadline: Option<Duration>,
    quarantine: Option<PathBuf>,
}

impl Default for CliquePipeline {
    fn default() -> Self {
        CliquePipeline {
            min_k: 3,
            max_k: None,
            threads: 1,
            exact_upper_bound: true,
            checkpoint: None,
            memory_budget: None,
            degrade_dir: None,
            telemetry: None,
            backend: BackendChoice::Dense,
            shutdown: None,
            worker_deadline: None,
            quarantine: None,
        }
    }
}

/// Bounds and statistics of a pipeline run.
#[derive(Clone, Debug)]
pub struct PipelineReport {
    /// Cheap combinatorial upper bound (degeneracy/coloring).
    pub upper_bound: usize,
    /// Exact maximum clique size, when computed.
    pub maximum_clique: Option<usize>,
    /// The lower bound actually used for seeding.
    pub min_k: usize,
    /// Sequential enumeration stats (single-threaded runs).
    pub enum_stats: Option<EnumStats>,
    /// Parallel stats (multi-threaded runs).
    pub parallel_stats: Option<ParallelStats>,
    /// The checkpoint level this run resumed from, if any.
    pub resumed_from: Option<usize>,
    /// The level at which the run degraded to the out-of-core path, if
    /// the memory watchdog fired.
    pub degraded_at: Option<usize>,
    /// Levels that were checkpointed (and later cleaned up on success).
    pub checkpoints: Vec<usize>,
    /// Out-of-core stats for the degraded tail of the run, if any —
    /// the same per-level reports as `enum_stats`, with
    /// [`LevelReport::bytes_read`] counting the spill traffic.
    pub degraded_stats: Option<EnumStats>,
}

/// What the resilient driver hands back to the report assembly.
#[derive(Default)]
struct ResilientOutcome {
    enum_stats: Option<EnumStats>,
    parallel_stats: Option<ParallelStats>,
    degraded_stats: Option<EnumStats>,
    checkpoints: Vec<usize>,
    degraded_at: Option<usize>,
}

impl CliquePipeline {
    /// New pipeline with defaults (`min_k = 3`, sequential).
    pub fn new() -> Self {
        Self::default()
    }

    /// Report maximal cliques of at least this size (the paper's
    /// `Init_K`).
    pub fn min_size(mut self, k: usize) -> Self {
        self.min_k = k.max(1);
        self
    }

    /// Stop exploring above this size.
    pub fn max_size(mut self, k: usize) -> Self {
        self.max_k = Some(k);
        self
    }

    /// Worker threads (1 = sequential Clique Enumerator).
    pub fn threads(mut self, t: usize) -> Self {
        self.threads = t.max(1);
        self
    }

    /// Skip the exact maximum-clique computation and rely on the cheap
    /// upper bound only (useful when the graph is huge and only the
    /// range matters).
    pub fn skip_exact_bound(mut self) -> Self {
        self.exact_upper_bound = false;
        self
    }

    /// Persist level checkpoints per `config` so a killed run can be
    /// continued with [`resume`](Self::resume). Durable sinks are
    /// flushed before every checkpoint write, so everything a resumed
    /// run skips is already on disk.
    pub fn checkpoint(mut self, config: CheckpointConfig) -> Self {
        self.checkpoint = Some(config);
        self
    }

    /// Graceful degradation under memory pressure: at each barrier,
    /// project the upcoming level step's footprint
    /// ([`LevelMemory::projected_peak_bytes`]) and, when it exceeds
    /// `bytes`, finish the run with the out-of-core enumerator bounded
    /// by the same budget instead of allocating past it.
    pub fn memory_budget(mut self, bytes: usize) -> Self {
        self.memory_budget = Some(bytes);
        self
    }

    /// Directory for spill files when degradation kicks in (default:
    /// the checkpoint directory if configured, else the system temp
    /// directory).
    pub fn degrade_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.degrade_dir = Some(dir.into());
        self
    }

    /// Choose the common-neighbor bitmap representation the enumeration
    /// runs with: dense words (the default and fastest in-core),
    /// WAH-compressed (smallest footprint on sparse genome-scale
    /// graphs), or the adaptive hybrid (per-bitmap choice of the two).
    /// Every choice produces the identical clique set; checkpoints are
    /// written in the selected representation and must be resumed with
    /// the same one (`gsb resume` re-derives it from `run.meta`).
    pub fn backend(mut self, backend: BackendChoice) -> Self {
        self.backend = backend;
        self
    }

    /// Attach a run-telemetry sink: one [`LevelRecord`] per level
    /// barrier (JSONL export and/or live progress per its
    /// [`TelemetryConfig`]), plus a final [`RunSummary`]. Routes the run
    /// through the barrier-driven driver even without checkpointing or
    /// a memory budget.
    pub fn telemetry(mut self, telemetry: Arc<RunTelemetry>) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Cooperative shutdown: the pipeline polls this token at every
    /// level barrier and, when a shutdown was requested (e.g. by a
    /// SIGINT/SIGTERM handler calling [`ShutdownToken::request`]),
    /// finishes the in-flight level, writes a final forced checkpoint
    /// (when checkpointing is configured), records the stop cause for
    /// `resume` to report, and returns
    /// [`PipelineError::Interrupted`]. Routes the run through the
    /// barrier-driven driver.
    pub fn shutdown(mut self, token: ShutdownToken) -> Self {
        self.shutdown = Some(token);
        self
    }

    /// Stuck-worker deadline: a parallel worker that stays this long
    /// inside one sub-list without a heartbeat is declared stuck,
    /// abandoned, and replaced; its level is retried and, with
    /// [`quarantine`](Self::quarantine) configured, a sub-list that
    /// stalls again is convicted instead of failing the run.
    pub fn worker_deadline(mut self, deadline: Duration) -> Self {
        self.worker_deadline = Some(deadline);
        self
    }

    /// Quarantine sidecar path (`quarantine.jsonl`): convicted
    /// sub-lists — a task that panics twice, or one whose worker stalls
    /// past the deadline again on the level's retry — are appended to
    /// this file and skipped (degraded-exact) instead of aborting the
    /// run.
    pub fn quarantine(mut self, path: impl Into<PathBuf>) -> Self {
        self.quarantine = Some(path.into());
        self
    }

    fn enum_config(&self, g: &BitGraph) -> (usize, Option<usize>, EnumConfig) {
        // Stage 1: bounds. The cheap bound caps the level loop; the
        // exact bound reproduces the paper's "maximum clique size
        // was 17 / 110 / 28" preamble.
        let upper_bound = clique_upper_bound(g);
        let maximum = self.exact_upper_bound.then(|| maximum_clique_size(g));
        let effective_max = match (self.max_k, maximum) {
            (Some(mx), Some(exact)) => Some(mx.min(exact)),
            (Some(mx), None) => Some(mx.min(upper_bound)),
            (None, _) => None, // enumerator stops on its own
        };
        let config = EnumConfig {
            min_k: self.min_k,
            max_k: effective_max,
            record_costs: false,
        };
        (upper_bound, maximum, config)
    }

    fn spill_config(&self) -> SpillConfig {
        let dir = self
            .degrade_dir
            .clone()
            .or_else(|| self.checkpoint.as_ref().map(|c| c.dir.clone()))
            .unwrap_or_else(std::env::temp_dir);
        SpillConfig {
            budget_bytes: self.memory_budget.unwrap_or(usize::MAX),
            dir,
        }
    }

    /// Run the pipeline, delivering maximal cliques to `sink` in
    /// non-decreasing size order.
    ///
    /// Panics on failure; failures are only possible when checkpointing
    /// or a memory budget is configured — use
    /// [`try_run`](Self::try_run) to handle them as values.
    pub fn run(&self, g: &BitGraph, sink: &mut impl CliqueSink) -> PipelineReport {
        self.try_run(g, sink)
            .unwrap_or_else(|e| panic!("pipeline failed: {e}"))
    }

    /// Run the pipeline, surfacing checkpoint/budget/worker failures as
    /// [`PipelineError`] values.
    pub fn try_run(
        &self,
        g: &BitGraph,
        sink: &mut impl CliqueSink,
    ) -> Result<PipelineReport, PipelineError> {
        match self.backend {
            BackendChoice::Dense => self.try_run_repr::<BitSet>(g, sink),
            BackendChoice::Wah => self.try_run_repr::<WahBitSet>(g, sink),
            BackendChoice::Hybrid => self.try_run_repr::<HybridSet>(g, sink),
        }
    }

    /// `try_run` under one concrete bitmap representation — the single
    /// monomorphization point for the whole run path.
    fn try_run_repr<S: NeighborSet>(
        &self,
        g: &BitGraph,
        sink: &mut impl CliqueSink,
    ) -> Result<PipelineReport, PipelineError> {
        let io0 = crate::supervise::io_retries();
        let (upper_bound, maximum, config) = self.enum_config(g);

        // Stages 2+3: seed at min_k (inside the enumerator) and run the
        // levelwise enumeration.
        let outcome = if self.checkpoint.is_none()
            && self.memory_budget.is_none()
            && self.telemetry.is_none()
            && self.shutdown.is_none()
        {
            // Original infallible in-core fast path.
            if self.threads == 1 {
                let seq = CliqueEnumerator::<S, InMemoryLevel<S>>::with_backend(config, ());
                ResilientOutcome {
                    enum_stats: Some(seq.enumerate(g, sink)),
                    ..Default::default()
                }
            } else {
                let mut par = ParallelEnumerator::new(ParallelConfig {
                    threads: self.threads,
                    enum_config: config,
                    worker_deadline: self.worker_deadline,
                });
                if let Some(q) = self.quarantine.clone() {
                    par = par.quarantine_to(q);
                }
                let garc = Arc::new(g.clone());
                let stats = match par.enumerate_resilient(
                    &garc,
                    None::<Level<S>>,
                    sink,
                    |_level, _mem, _sink| Ok(BarrierControl::Continue),
                ) {
                    Ok(ParallelOutcome::Complete(stats)) => stats,
                    Ok(ParallelOutcome::Degraded { .. })
                    | Ok(ParallelOutcome::Interrupted { .. }) => {
                        unreachable!("no-op barrier never degrades or halts")
                    }
                    Err(ParallelRunError::Round { k, error, .. }) => {
                        return Err(PipelineError::Workers { k, error })
                    }
                    Err(ParallelRunError::Store(e)) => return Err(PipelineError::Store(e)),
                };
                ResilientOutcome {
                    parallel_stats: Some(stats),
                    ..Default::default()
                }
            }
        } else {
            self.run_resilient::<S, _>(g, sink, None, config)?
        };
        let report = PipelineReport {
            upper_bound,
            maximum_clique: maximum,
            min_k: self.min_k,
            enum_stats: outcome.enum_stats,
            parallel_stats: outcome.parallel_stats,
            resumed_from: None,
            degraded_at: outcome.degraded_at,
            checkpoints: outcome.checkpoints,
            degraded_stats: outcome.degraded_stats,
        };
        self.note_supervision(&report, io0);
        self.finish_telemetry(&report)?;
        Ok(report)
    }

    /// Continue an interrupted run from the newest valid checkpoint in
    /// the configured checkpoint directory.
    ///
    /// The checkpointed level is re-expanded, so only cliques of size
    /// *greater than* the checkpoint level are emitted into `sink`; the
    /// caller owns everything the original run emitted before the
    /// crash (for file sinks: truncate to lines of size ≤ the
    /// checkpoint level — `gsb resume` does exactly that). Fails with
    /// [`PipelineError::NoCheckpoint`] when there is nothing to resume
    /// and [`StoreError::GraphMismatch`] when the checkpoint belongs to
    /// a different graph.
    pub fn resume(
        &self,
        g: &BitGraph,
        sink: &mut impl CliqueSink,
    ) -> Result<PipelineReport, PipelineError> {
        match self.backend {
            BackendChoice::Dense => self.resume_repr::<BitSet>(g, sink),
            BackendChoice::Wah => self.resume_repr::<WahBitSet>(g, sink),
            BackendChoice::Hybrid => self.resume_repr::<HybridSet>(g, sink),
        }
    }

    fn resume_repr<S: NeighborSet>(
        &self,
        g: &BitGraph,
        sink: &mut impl CliqueSink,
    ) -> Result<PipelineReport, PipelineError> {
        let io0 = crate::supervise::io_retries();
        let ckpt = self
            .checkpoint
            .as_ref()
            .ok_or(PipelineError::NoCheckpoint)?;
        let Some((k, mut level)) = latest_checkpoint::<S>(&ckpt.dir, g.n())? else {
            return Err(PipelineError::NoCheckpoint);
        };
        // Parallel runs of earlier versions checkpointed their levels in
        // worker order; in prefix order, every resume emits in the
        // sequential run's order.
        level
            .sublists
            .sort_unstable_by(|a, b| a.prefix.cmp(&b.prefix));
        // Carry the interrupted run's cumulative progress into this
        // run's telemetry so totals keep counting from where it died.
        // A checkpoint dir written by an older build has no progress
        // file; resume still works, the totals just restart at zero.
        if let (Some(telemetry), Ok(progress)) =
            (self.telemetry.as_ref(), RunProgress::load(&ckpt.dir))
        {
            telemetry.seed_prior(
                progress.cliques_emitted,
                progress.levels_done,
                progress.wall_ms.saturating_mul(1_000_000),
            );
        }
        let (upper_bound, maximum, config) = self.enum_config(g);
        let outcome = self.run_resilient::<S, _>(g, sink, Some(level), config)?;
        let report = PipelineReport {
            upper_bound,
            maximum_clique: maximum,
            min_k: self.min_k,
            enum_stats: outcome.enum_stats,
            parallel_stats: outcome.parallel_stats,
            resumed_from: Some(k),
            degraded_at: outcome.degraded_at,
            checkpoints: outcome.checkpoints,
            degraded_stats: outcome.degraded_stats,
        };
        self.note_supervision(&report, io0);
        self.finish_telemetry(&report)?;
        Ok(report)
    }

    /// Feed supervision counters (quarantined sub-lists, transient-I/O
    /// retries performed during this run) into the caller's telemetry
    /// so they land in the final [`RunSummary`].
    fn note_supervision(&self, report: &PipelineReport, io_retries_before: u64) {
        let Some(telemetry) = self.telemetry.as_ref() else {
            return;
        };
        let quarantined = report.parallel_stats.as_ref().map_or(0, |s| s.quarantined);
        if quarantined > 0 {
            telemetry.note_quarantine(quarantined as u64);
        }
        let retried = crate::supervise::io_retries().saturating_sub(io_retries_before);
        if retried > 0 {
            telemetry.note_io_retries(retried);
        }
    }

    /// The signal behind a halt request (SIGINT's 2 when the token was
    /// tripped without one, e.g. from tests).
    fn requested_signal(&self) -> i32 {
        self.shutdown
            .as_ref()
            .and_then(ShutdownToken::signal)
            .unwrap_or(2)
    }

    /// Write the final summary record when the caller attached
    /// telemetry. The internal quiet instance used by plain resilient
    /// runs has no outputs, so skipping it here loses nothing.
    fn finish_telemetry(&self, report: &PipelineReport) -> Result<(), PipelineError> {
        if let Some(telemetry) = self.telemetry.as_ref() {
            telemetry
                .finish(RunSummary {
                    degraded_at: report.degraded_at.map(|k| k as u64),
                    max_clique: report.maximum_clique.unwrap_or(0) as u64,
                    ..Default::default()
                })
                .map_err(|e| PipelineError::Store(StoreError::Io(e)))?;
        }
        Ok(())
    }

    /// The barrier-driven driver behind `try_run` (with options) and
    /// `resume`.
    fn run_resilient<S: NeighborSet, K: CliqueSink>(
        &self,
        g: &BitGraph,
        sink: &mut K,
        start: Option<Level<S>>,
        config: EnumConfig,
    ) -> Result<ResilientOutcome, PipelineError> {
        let mut manager = self
            .checkpoint
            .clone()
            .map(CheckpointManager::new)
            .transpose()?;
        let budget = self.memory_budget;
        let g_n = g.n();
        // Even without caller-attached telemetry the resilient driver
        // keeps a quiet (no-output) instance, so checkpoint barriers
        // can always persist cumulative RunProgress for resume.
        let telemetry = match self.telemetry.clone() {
            Some(t) => t,
            None => Arc::new(
                RunTelemetry::new(TelemetryConfig::default())
                    .map_err(|e| PipelineError::Store(StoreError::Io(e)))?,
            ),
        };

        let outcome = if self.threads == 1 {
            self.run_resilient_sequential(
                g,
                sink,
                start,
                config,
                &mut manager,
                budget,
                g_n,
                &telemetry,
            )?
        } else {
            self.run_resilient_parallel(
                g,
                sink,
                start,
                config,
                &mut manager,
                budget,
                g_n,
                &telemetry,
            )?
        };
        Ok(outcome)
    }

    #[allow(clippy::too_many_arguments)]
    fn run_resilient_sequential<S: NeighborSet, K: CliqueSink>(
        &self,
        g: &BitGraph,
        sink: &mut K,
        start: Option<Level<S>>,
        config: EnumConfig,
        manager: &mut Option<CheckpointManager>,
        budget: Option<usize>,
        g_n: usize,
        telemetry: &RunTelemetry,
    ) -> Result<ResilientOutcome, PipelineError> {
        let seq = CliqueEnumerator::<S, InMemoryLevel<S>>::with_backend(config, ());
        let mut outcome = ResilientOutcome::default();
        let mut stats = EnumStats::default();
        let mut sink = TelemetrySink {
            inner: sink,
            telemetry,
        };
        let mut level = match start {
            Some(level) => level,
            None => seq.init_level(g, &mut sink, &mut stats),
        };
        // One representation conversion of the adjacency rows for the
        // whole run, shared by every level step.
        let rows = crate::enumerator::neighbor_rows::<S>(g);
        loop {
            if level.sublists.is_empty() {
                break;
            }
            if let Some(mx) = config.max_k {
                if level.k >= mx {
                    break;
                }
            }
            let memory = LevelMemory::account(&level, g_n);
            let control = at_barrier(
                manager,
                budget,
                self.shutdown.as_ref(),
                &level,
                &memory,
                &mut sink,
                g_n,
                telemetry,
            )?;
            match control {
                BarrierControl::Continue => {}
                BarrierControl::Halt => {
                    // The barrier already forced a final checkpoint and
                    // recorded the stop cause; leaving the files in
                    // place keeps the directory `resume`-ready.
                    return Err(PipelineError::Interrupted {
                        signal: self.requested_signal(),
                    });
                }
                BarrierControl::Degrade => {
                    outcome.degraded_at = Some(level.k);
                    // Degradation is a backend swap: same kernel, same
                    // representation, the level just moves to the
                    // budgeted spill store.
                    let degraded = CliqueEnumerator::<S, SpilledLevel<S>>::with_backend(
                        config,
                        self.spill_config(),
                    )
                    .try_enumerate_from_level(g, level, &mut sink)
                    .map_err(PipelineError::Store)?;
                    stats.total_maximal += degraded.total_maximal;
                    record_degraded_levels(telemetry, &degraded)?;
                    outcome.degraded_stats = Some(degraded);
                    break;
                }
            }
            let projected = memory.projected_peak_bytes(level.k, g_n) as u64;
            let (next, report) = seq.step_with_rows(g, &rows, &level, &mut sink);
            stats.total_maximal += report.maximal_found;
            telemetry
                .on_level(level_record(&report, projected))
                .map_err(|e| PipelineError::Store(StoreError::Io(e)))?;
            stats.levels.push(report);
            level = next;
        }
        finish_checkpoints(manager, &mut outcome);
        outcome.enum_stats = Some(stats);
        Ok(outcome)
    }

    #[allow(clippy::too_many_arguments)]
    fn run_resilient_parallel<S: NeighborSet, K: CliqueSink>(
        &self,
        g: &BitGraph,
        sink: &mut K,
        start: Option<Level<S>>,
        config: EnumConfig,
        manager: &mut Option<CheckpointManager>,
        budget: Option<usize>,
        g_n: usize,
        telemetry: &RunTelemetry,
    ) -> Result<ResilientOutcome, PipelineError> {
        let mut outcome = ResilientOutcome::default();
        let mut par = ParallelEnumerator::new(ParallelConfig {
            threads: self.threads,
            enum_config: config,
            worker_deadline: self.worker_deadline,
        });
        if let Some(q) = self.quarantine.clone() {
            par = par.quarantine_to(q);
        }
        let garc = Arc::new(g.clone());
        let mut sink = TelemetrySink {
            inner: sink,
            telemetry,
        };
        // The observer can't propagate errors itself; park the first
        // write failure and surface it after the run.
        let mut telemetry_err: Option<std::io::Error> = None;
        let result = par.enumerate_observed(
            &garc,
            start,
            &mut sink,
            |level, memory, sink| {
                at_barrier(
                    manager,
                    budget,
                    self.shutdown.as_ref(),
                    level,
                    memory,
                    sink,
                    g_n,
                    telemetry,
                )
                .map_err(|e| {
                    match e {
                        PipelineError::Store(e) => e,
                        // at_barrier only produces Store errors
                        other => StoreError::Io(std::io::Error::other(other.to_string())),
                    }
                })
            },
            |report, level_stats, retried| {
                let projected = report.memory.projected_peak_bytes(report.k, g_n) as u64;
                let mut record = level_record(report, projected);
                record.busy_ns = level_stats.per_worker_ns.clone();
                record.units = level_stats.per_worker_units.clone();
                record.tasks = level_stats
                    .per_worker_tasks
                    .iter()
                    .map(|&t| t as u64)
                    .collect();
                record.transfers = level_stats.transfers as u64;
                record.steals = level_stats.per_worker_steals.clone();
                record.idle_ns = level_stats.per_worker_idle_ns.clone();
                record.failed_steals = level_stats.failed_steals;
                if retried {
                    record.retries = 1;
                    telemetry.note_retry();
                }
                if let Err(e) = telemetry.on_level(record) {
                    telemetry_err.get_or_insert(e);
                }
            },
        );
        match result {
            Ok(ParallelOutcome::Complete(stats)) => {
                outcome.parallel_stats = Some(stats);
            }
            Ok(ParallelOutcome::Degraded { level, stats }) => {
                outcome.degraded_at = Some(level.k);
                outcome.parallel_stats = Some(stats);
                let degraded = CliqueEnumerator::<S, SpilledLevel<S>>::with_backend(
                    config,
                    self.spill_config(),
                )
                .try_enumerate_from_level(g, level, &mut sink)
                .map_err(PipelineError::Store)?;
                record_degraded_levels(telemetry, &degraded)?;
                outcome.degraded_stats = Some(degraded);
            }
            Ok(ParallelOutcome::Interrupted { stats }) => {
                // The barrier already persisted a forced checkpoint and
                // the stop cause; surface the halt without cleaning up
                // so the directory stays `resume`-ready.
                outcome.parallel_stats = Some(stats);
                return Err(PipelineError::Interrupted {
                    signal: self.requested_signal(),
                });
            }
            Err(ParallelRunError::Round { k, error, level }) => {
                // Abort, but leave a final checkpoint of the failed
                // level so the operator can fix the cause and resume.
                if let Some(mgr) = manager.as_mut() {
                    let _ = sink.flush_barrier();
                    let _ = mgr.force(&level);
                    let _ = record_stop_cause(mgr.dir(), StopCause::WorkerFailure);
                    outcome.checkpoints = mgr.written().to_vec();
                }
                return Err(PipelineError::Workers { k, error });
            }
            Err(ParallelRunError::Store(e)) => return Err(PipelineError::Store(e)),
        }
        if let Some(e) = telemetry_err {
            return Err(PipelineError::Store(StoreError::Io(e)));
        }
        finish_checkpoints(manager, &mut outcome);
        Ok(outcome)
    }
}

/// Counts every emitted clique into the run telemetry before forwarding
/// to the real sink. Wrapping the sink (instead of summing per-level
/// reports) makes the cumulative total exact: seeds emitted during
/// level initialization and the degraded out-of-core tail never produce
/// a per-level record, but they do pass through here.
struct TelemetrySink<'a, S: CliqueSink> {
    inner: &'a mut S,
    telemetry: &'a RunTelemetry,
}

impl<S: CliqueSink> CliqueSink for TelemetrySink<'_, S> {
    fn maximal(&mut self, clique: &[Vertex]) {
        self.telemetry.add_cliques(1);
        self.inner.maximal(clique);
    }

    fn flush_barrier(&mut self) -> std::io::Result<()> {
        self.inner.flush_barrier()
    }
}

/// A [`LevelRecord`] with the fields every execution mode shares;
/// parallel runs layer per-worker data on top.
fn level_record(report: &LevelReport, projected_bytes: u64) -> LevelRecord {
    LevelRecord {
        k: report.k as u64,
        sublists: report.sublists as u64,
        candidates: report.candidates as u64,
        maximal_level: report.maximal_found as u64,
        level_ns: report.ns,
        and_ops: report.and_ops,
        maximality_tests: report.maximality_tests,
        projected_bytes,
        formula_bytes: report.memory.formula_bytes as u64,
        heap_bytes: report.memory.heap_bytes as u64,
        ..Default::default()
    }
}

/// Emit one degraded-mode record per out-of-core level so the JSONL
/// stream covers the whole run even after the watchdog fires.
fn record_degraded_levels(
    telemetry: &RunTelemetry,
    degraded: &EnumStats,
) -> Result<(), PipelineError> {
    for level in &degraded.levels {
        telemetry.note_spill(level.bytes_read);
        let record = LevelRecord {
            k: level.k as u64,
            sublists: level.sublists as u64,
            maximal_level: level.maximal_found as u64,
            level_ns: level.ns,
            degraded: true,
            ..Default::default()
        };
        telemetry
            .on_level(record)
            .map_err(|e| PipelineError::Store(StoreError::Io(e)))?;
    }
    Ok(())
}

/// The per-level barrier: fault injection, memory watchdog, durable
/// sink flush, checkpoint write (plus its telemetry and progress
/// bookkeeping).
#[allow(clippy::too_many_arguments)]
fn at_barrier<S: NeighborSet, K: CliqueSink>(
    manager: &mut Option<CheckpointManager>,
    budget: Option<usize>,
    shutdown: Option<&ShutdownToken>,
    level: &Level<S>,
    memory: &LevelMemory,
    sink: &mut K,
    g_n: usize,
    telemetry: &RunTelemetry,
) -> Result<BarrierControl, PipelineError> {
    // Shutdown wins over everything else at the barrier: the level that
    // just finished is complete and consistent, so persist it (forced,
    // regardless of the checkpoint policy), record why we stopped, and
    // halt. Nothing below this level is lost.
    if let Some(sig) = shutdown.and_then(ShutdownToken::signal) {
        if let Some(mgr) = manager.as_mut() {
            sink.flush_barrier()
                .map_err(|e| PipelineError::Store(StoreError::Io(e)))?;
            let write = mgr.force(level)?;
            telemetry.note_checkpoint(write.ns, write.bytes);
            RunProgress {
                cliques_emitted: telemetry.cliques_emitted(),
                levels_done: telemetry.levels_completed(),
                wall_ms: telemetry.wall_ns() / 1_000_000,
            }
            .save(mgr.dir())?;
            // Best-effort: a failed stop-cause note must not block the
            // shutdown itself.
            let _ = record_stop_cause(mgr.dir(), StopCause::Signal(sig));
        }
        return Ok(BarrierControl::Halt);
    }
    if let Some(budget) = budget {
        crate::failpoint::inject("memory.budget").map_err(StoreError::Io)?;
        if memory.projected_peak_bytes(level.k, g_n) > budget {
            return Ok(BarrierControl::Degrade);
        }
    }
    if let Some(mgr) = manager.as_mut() {
        // Flush the sink first: once the checkpoint exists, a resumed
        // run will never re-emit anything at or below this level, so
        // those cliques must already be out of volatile buffers.
        sink.flush_barrier()
            .map_err(|e| PipelineError::Store(StoreError::Io(e)))?;
        if let Some(write) = mgr.observe_level(level)? {
            telemetry.note_checkpoint(write.ns, write.bytes);
            // Everything of size ≤ level.k is flushed and the level is
            // durable, so these totals are exactly what a resumed run
            // should continue from.
            RunProgress {
                cliques_emitted: telemetry.cliques_emitted(),
                levels_done: telemetry.levels_completed(),
                wall_ms: telemetry.wall_ns() / 1_000_000,
            }
            .save(mgr.dir())?;
        }
    }
    // The crash-simulation site sits after the checkpoint write: a kill
    // here models dying at the barrier with the freshest possible
    // checkpoint on disk — resume must still produce identical output.
    crate::failpoint::inject("pipeline.barrier").map_err(StoreError::Io)?;
    Ok(BarrierControl::Continue)
}

/// Successful completion: record which levels were checkpointed, then
/// remove the now-useless checkpoint files.
fn finish_checkpoints(manager: &mut Option<CheckpointManager>, outcome: &mut ResilientOutcome) {
    if let Some(mgr) = manager.take() {
        outcome.checkpoints = mgr.written().to_vec();
        mgr.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bk::base_bk_sorted;
    use crate::sink::CollectSink;
    use gsb_graph::generators::{planted, Module};

    #[test]
    fn sequential_pipeline_end_to_end() {
        let g = planted(40, 0.08, &[Module::clique(9)], 21);
        let mut sink = CollectSink::default();
        let report = CliquePipeline::new().min_size(4).run(&g, &mut sink);
        assert_eq!(report.maximum_clique, Some(9));
        assert!(report.upper_bound >= 9);
        let mut got = sink.cliques;
        got.sort();
        let expect: Vec<_> = base_bk_sorted(&g)
            .into_iter()
            .filter(|c| c.len() >= 4)
            .collect();
        assert_eq!(got, expect);
        assert!(report.enum_stats.is_some());
        assert!(report.resumed_from.is_none());
        assert!(report.degraded_at.is_none());
    }

    #[test]
    fn parallel_pipeline_matches_sequential() {
        let g = planted(36, 0.1, &[Module::clique(8), Module::clique(6)], 2);
        let mut s1 = CollectSink::default();
        CliquePipeline::new().min_size(3).run(&g, &mut s1);
        let mut s4 = CollectSink::default();
        let report = CliquePipeline::new()
            .min_size(3)
            .threads(4)
            .run(&g, &mut s4);
        let mut a = s1.cliques;
        let mut b = s4.cliques;
        a.sort();
        b.sort();
        assert_eq!(a, b);
        assert!(report.parallel_stats.is_some());
    }

    #[test]
    fn size_window() {
        let g = planted(30, 0.1, &[Module::clique(8)], 13);
        let mut sink = CollectSink::default();
        CliquePipeline::new()
            .min_size(4)
            .max_size(5)
            .run(&g, &mut sink);
        assert!(sink.cliques.iter().all(|c| (4..=5).contains(&c.len())));
        let expect = base_bk_sorted(&g)
            .into_iter()
            .filter(|c| (4..=5).contains(&c.len()))
            .count();
        assert_eq!(sink.cliques.len(), expect);
    }

    #[test]
    fn skip_exact_bound_still_correct() {
        let g = planted(30, 0.1, &[Module::clique(7)], 5);
        let mut sink = CollectSink::default();
        let report = CliquePipeline::new()
            .min_size(3)
            .skip_exact_bound()
            .run(&g, &mut sink);
        assert_eq!(report.maximum_clique, None);
        let mut got = sink.cliques;
        got.sort();
        let expect: Vec<_> = base_bk_sorted(&g)
            .into_iter()
            .filter(|c| c.len() >= 3)
            .collect();
        assert_eq!(got, expect);
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("gsb-pipeline-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn checkpointed_run_matches_plain_and_cleans_up() {
        let g = planted(36, 0.1, &[Module::clique(9), Module::clique(6)], 17);
        let mut plain = CollectSink::default();
        CliquePipeline::new().min_size(3).run(&g, &mut plain);

        let dir = temp_dir("ckpt-match");
        for threads in [1usize, 4] {
            let mut sink = CollectSink::default();
            let report = CliquePipeline::new()
                .min_size(3)
                .threads(threads)
                .checkpoint(CheckpointConfig::every_level(&dir))
                .try_run(&g, &mut sink)
                .expect("checkpointed run");
            let mut a = plain.cliques.clone();
            let mut b = sink.cliques;
            a.sort();
            b.sort();
            assert_eq!(a, b, "threads={threads}");
            assert!(!report.checkpoints.is_empty(), "no checkpoints written");
            // success cleans up: nothing left to resume
            let err = CliquePipeline::new()
                .min_size(3)
                .checkpoint(CheckpointConfig::every_level(&dir))
                .resume(&g, &mut CollectSink::default())
                .unwrap_err();
            assert!(matches!(err, PipelineError::NoCheckpoint));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_from_manufactured_checkpoint_completes_the_set() {
        // Simulate a crash: run the first levels by hand, write a real
        // checkpoint, then resume through the pipeline and check the
        // union of pre-crash and post-resume cliques equals a full run.
        let g = planted(34, 0.1, &[Module::clique(8), Module::clique(6)], 29);
        let mut full = CollectSink::default();
        CliquePipeline::new().min_size(3).run(&g, &mut full);

        let seq = CliqueEnumerator::new(EnumConfig::default());
        let mut pre_crash = CollectSink::default();
        let mut enum_stats = EnumStats::default();
        let mut level = seq.init_level(&g, &mut pre_crash, &mut enum_stats);
        while level.k < 4 && !level.sublists.is_empty() {
            let (next, _) = seq.step(&g, &level, &mut pre_crash);
            level = next;
        }
        let dir = temp_dir("resume");
        let mut mgr = CheckpointManager::new(CheckpointConfig::every_level(&dir)).unwrap();
        mgr.force(&level).unwrap();
        // the crash: `mgr` is dropped without finish(), files stay

        let mut post = CollectSink::default();
        let report = CliquePipeline::new()
            .min_size(3)
            .checkpoint(CheckpointConfig::every_level(&dir))
            .resume(&g, &mut post)
            .expect("resume");
        assert_eq!(report.resumed_from, Some(level.k));
        // resumed run emits only sizes > checkpoint level
        assert!(post.cliques.iter().all(|c| c.len() > level.k));
        // pre-crash cliques ≤ k + resumed > k = the full set
        let mut combined: Vec<_> = pre_crash
            .cliques
            .into_iter()
            .filter(|c| c.len() <= level.k)
            .chain(post.cliques)
            .collect();
        combined.sort();
        let mut expect = full.cliques;
        expect.sort();
        assert_eq!(combined, expect);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn memory_budget_degrades_and_stays_correct() {
        let g = planted(36, 0.1, &[Module::clique(9)], 3);
        let mut plain = CollectSink::default();
        CliquePipeline::new().min_size(3).run(&g, &mut plain);
        // A tiny budget forces degradation at the first barrier.
        let mut sink = CollectSink::default();
        let report = CliquePipeline::new()
            .min_size(3)
            .memory_budget(64)
            .try_run(&g, &mut sink)
            .expect("degraded run");
        assert!(report.degraded_at.is_some(), "watchdog never fired");
        assert!(report.degraded_stats.is_some());
        let mut a = plain.cliques;
        let mut b = sink.cliques;
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn telemetry_covers_the_run_including_the_degraded_tail() {
        let g = planted(36, 0.1, &[Module::clique(9)], 3);
        let jsonl = temp_dir("telemetry").with_extension("jsonl");
        let telemetry = Arc::new(
            RunTelemetry::new(TelemetryConfig {
                metrics_out: Some(jsonl.clone()),
                progress: false,
            })
            .unwrap(),
        );
        let mut sink = CollectSink::default();
        let report = CliquePipeline::new()
            .min_size(3)
            .memory_budget(64)
            .telemetry(telemetry)
            .try_run(&g, &mut sink)
            .expect("degraded telemetry run");
        assert!(report.degraded_at.is_some());

        let text = std::fs::read_to_string(&jsonl).unwrap();
        let parsed = gsb_telemetry::parse_report(&text).expect("valid run log");
        assert!(
            parsed.levels.iter().any(|l| l.degraded),
            "no degraded record"
        );
        let summary = parsed.summary.expect("summary line");
        assert_eq!(summary.degraded_at, report.degraded_at.map(|k| k as u64));
        // sink-wrapped counting means the exported total is exact even
        // though most cliques were emitted by the out-of-core tail
        assert_eq!(summary.maximal_total, sink.cliques.len() as u64);
        let _ = std::fs::remove_file(&jsonl);
    }

    #[test]
    fn generous_budget_never_degrades() {
        let g = planted(30, 0.1, &[Module::clique(7)], 9);
        let mut sink = CollectSink::default();
        let report = CliquePipeline::new()
            .min_size(3)
            .memory_budget(usize::MAX)
            .try_run(&g, &mut sink)
            .expect("run");
        assert!(report.degraded_at.is_none());
        assert!(report.degraded_stats.is_none());
    }

    #[test]
    fn all_backends_match_dense_sequential_and_parallel() {
        let g = planted(34, 0.1, &[Module::clique(8), Module::clique(6)], 7);
        let mut dense = CollectSink::default();
        CliquePipeline::new().min_size(3).run(&g, &mut dense);
        let mut expect = dense.cliques;
        expect.sort();
        for backend in [BackendChoice::Wah, BackendChoice::Hybrid] {
            for threads in [1usize, 3] {
                let mut sink = CollectSink::default();
                CliquePipeline::new()
                    .min_size(3)
                    .threads(threads)
                    .backend(backend)
                    .run(&g, &mut sink);
                let mut got = sink.cliques;
                got.sort();
                assert_eq!(got, expect, "{backend} threads={threads}");
            }
        }
    }

    #[test]
    fn wah_backend_degrades_and_stays_correct() {
        let g = planted(36, 0.1, &[Module::clique(9)], 3);
        let mut plain = CollectSink::default();
        CliquePipeline::new().min_size(3).run(&g, &mut plain);
        let mut sink = CollectSink::default();
        let report = CliquePipeline::new()
            .min_size(3)
            .backend(BackendChoice::Wah)
            .memory_budget(64)
            .try_run(&g, &mut sink)
            .expect("degraded wah run");
        assert!(report.degraded_at.is_some(), "watchdog never fired");
        let degraded = report.degraded_stats.expect("degraded tail stats");
        assert!(degraded.total_bytes_read() > 0, "nothing spilled");
        let mut a = plain.cliques;
        let mut b = sink.cliques;
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn checkpointed_wah_run_resumes_with_same_backend() {
        let g = planted(34, 0.1, &[Module::clique(8), Module::clique(6)], 29);
        let mut full = CollectSink::default();
        CliquePipeline::new().min_size(3).run(&g, &mut full);

        // Run the first levels by hand under WAH, checkpoint, resume.
        let seq = CliqueEnumerator::<WahBitSet, InMemoryLevel<WahBitSet>>::with_backend(
            EnumConfig::default(),
            (),
        );
        let mut pre_crash = CollectSink::default();
        let mut enum_stats = EnumStats::default();
        let mut level = seq.init_level(&g, &mut pre_crash, &mut enum_stats);
        while level.k < 4 && !level.sublists.is_empty() {
            let (next, _) = seq.step(&g, &level, &mut pre_crash);
            level = next;
        }
        let dir = temp_dir("wah-resume");
        let mut mgr = CheckpointManager::new(CheckpointConfig::every_level(&dir)).unwrap();
        mgr.force(&level).unwrap();

        let mut post = CollectSink::default();
        let report = CliquePipeline::new()
            .min_size(3)
            .backend(BackendChoice::Wah)
            .checkpoint(CheckpointConfig::every_level(&dir))
            .resume(&g, &mut post)
            .expect("wah resume");
        assert_eq!(report.resumed_from, Some(level.k));
        let mut combined: Vec<_> = pre_crash
            .cliques
            .into_iter()
            .filter(|c| c.len() <= level.k)
            .chain(post.cliques)
            .collect();
        combined.sort();
        let mut expect = full.cliques;
        expect.sort();
        assert_eq!(combined, expect);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resuming_wah_checkpoint_as_dense_is_a_backend_mismatch() {
        let g = planted(30, 0.1, &[Module::clique(7)], 11);
        let seq = CliqueEnumerator::<WahBitSet, InMemoryLevel<WahBitSet>>::with_backend(
            EnumConfig::default(),
            (),
        );
        let mut sink = CollectSink::default();
        let mut enum_stats = EnumStats::default();
        let level = seq.init_level(&g, &mut sink, &mut enum_stats);
        let dir = temp_dir("mismatch-resume");
        let mut mgr = CheckpointManager::new(CheckpointConfig::every_level(&dir)).unwrap();
        mgr.force(&level).unwrap();

        let err = CliquePipeline::new()
            .checkpoint(CheckpointConfig::every_level(&dir))
            .resume(&g, &mut CollectSink::default())
            .unwrap_err();
        assert!(
            matches!(
                err,
                PipelineError::Store(StoreError::BackendMismatch { .. })
            ),
            "got {err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
