//! End-to-end driver: the paper's three-stage strategy (§2).
//!
//! "Using a maximum clique algorithm to determine an upper bound on
//! clique size (Section 2.1), we then enumerate all k-cliques ... where
//! k is the user-supplied lower bound (Section 2.2). A maximal clique
//! enumeration algorithm (Section 2.3) is then employed using the
//! non-maximal k-cliques as input."
//!
//! ## One loop, configured
//!
//! Every run — plain, checkpointed, budgeted, observed, at any thread
//! count — is the level loop of [`crate::enumerator`] with the
//! pipeline's barrier hook and per-level observer, and with each level
//! expanded by the sequential step (one thread) or a steal epoch
//! ([`crate::parallel`]). With no option set the hooks do nothing, so a
//! mode costs what the plain run costs. At each barrier the pipeline
//!
//! 1. flushes durable sinks and persists the level atomically (crash
//!    recovery: [`CliquePipeline::resume`] reloads the newest valid
//!    checkpoint and re-expands it, emitting only sizes above it);
//! 2. projects the next level's footprint and, when it would exceed the
//!    budget, *degrades* mid-flight to the out-of-core loop instead of
//!    dying on allocation;
//! 3. halts on a shutdown request, after a final checkpoint.
//!
//! Worker faults are contained by the steal epoch: a panicking task is
//! retried inline, a level whose epoch fails supervision is discarded
//! and retried once on respawned workers, and a level that still fails
//! writes a final checkpoint and surfaces [`PipelineError::Workers`].

use crate::backend::BackendChoice;
use crate::checkpoint::{
    latest_checkpoint, record_stop_cause, CheckpointConfig, CheckpointManager, RunProgress,
    StopCause,
};
use crate::enumerator::{
    run_levels, BarrierControl, CliqueEnumerator, EnumConfig, EnumStats, LevelReport, Step, Stop,
};
use crate::maxclique::maximum_clique_size;
use crate::memory::LevelMemory;
use crate::parallel::{Epochs, ParallelConfig, ParallelEnumerator, ParallelStats};
use crate::sink::CliqueSink;
use crate::store::{SpillConfig, StoreError};
use crate::sublist::Level;
use crate::supervise::ShutdownToken;
use crate::Vertex;
use gsb_bitset::{BitSet, NeighborSet, WahBitSet};
use gsb_graph::reduce::clique_upper_bound;
use gsb_graph::BitGraph;
use gsb_par::stats::LevelStats;
use gsb_par::RoundError;
use gsb_telemetry::{LevelRecord, RunSummary, RunTelemetry, TelemetryConfig};
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A pipeline run failed (only possible with fault-tolerance options:
/// a plain in-core run is infallible).
#[derive(Debug)]
pub enum PipelineError {
    /// Checkpoint or spill I/O / corruption, or a durable sink that
    /// could not be flushed at a barrier.
    Store(StoreError),
    /// A parallel level failed: its epoch failed twice, or a sub-list
    /// was convicted with no quarantine sidecar. When checkpointing is
    /// configured, a final checkpoint of the failed level was written
    /// before this was returned, so the run is resumable.
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
    /// Cheap combinatorial upper bound (degeneracy/coloring), when the
    /// bound preamble ran (not with
    /// [`skip_exact_bound`](CliquePipeline::skip_exact_bound)).
    pub upper_bound: Option<usize>,
    /// Exact maximum clique size, when the bound preamble ran.
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

    /// Skip the bound preamble: neither the cheap upper bound nor the
    /// exact maximum clique is computed (useful when the graph is huge
    /// and only the cliques matter). The level loop stops on its own at
    /// the maximum clique either way.
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

    /// Choose the common-neighbor bitmap representation the enumeration
    /// runs with: dense words (the default and fastest in-core),
    /// or WAH-compressed (smallest footprint on sparse genome-scale
    /// graphs). Both choices produces the identical clique set; checkpoints are
    /// written in the selected representation and must be resumed with
    /// the same one (`gsb resume` re-derives it from `run.meta`).
    pub fn backend(mut self, backend: BackendChoice) -> Self {
        self.backend = backend;
        self
    }

    /// Attach a run-telemetry sink: one [`LevelRecord`] per level
    /// barrier (JSONL export and/or live progress per its
    /// [`TelemetryConfig`]), plus a final [`RunSummary`].
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
    /// [`PipelineError::Interrupted`].
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

    /// Spill files go to the checkpoint directory if there is one,
    /// else to the system temp directory.
    fn spill_config(&self) -> SpillConfig {
        let dir = self
            .checkpoint
            .as_ref()
            .map_or_else(std::env::temp_dir, |c| c.dir.clone());
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
    pub fn run(&self, g: &Arc<BitGraph>, sink: &mut impl CliqueSink) -> PipelineReport {
        self.try_run(g, sink)
            .unwrap_or_else(|e| panic!("pipeline failed: {e}"))
    }

    /// Run the pipeline, surfacing checkpoint/budget/worker failures as
    /// [`PipelineError`] values. The graph is shared, not copied, with
    /// the worker threads of a parallel run.
    pub fn try_run(
        &self,
        g: &Arc<BitGraph>,
        sink: &mut impl CliqueSink,
    ) -> Result<PipelineReport, PipelineError> {
        match self.backend {
            BackendChoice::Dense => self.run_repr::<BitSet>(g, sink, None),
            BackendChoice::Wah => self.run_repr::<WahBitSet>(g, sink, None),
        }
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
        g: &Arc<BitGraph>,
        sink: &mut impl CliqueSink,
    ) -> Result<PipelineReport, PipelineError> {
        match self.backend {
            BackendChoice::Dense => self.resume_repr::<BitSet>(g, sink),
            BackendChoice::Wah => self.resume_repr::<WahBitSet>(g, sink),
        }
    }

    fn resume_repr<S: NeighborSet>(
        &self,
        g: &Arc<BitGraph>,
        sink: &mut impl CliqueSink,
    ) -> Result<PipelineReport, PipelineError> {
        let ckpt = self
            .checkpoint
            .as_ref()
            .ok_or(PipelineError::NoCheckpoint)?;
        let Some((_, mut level)) = latest_checkpoint::<S>(&ckpt.dir, g.n())? else {
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
        self.run_repr(g, sink, Some(level))
    }

    /// One run under one concrete bitmap representation — the single
    /// monomorphization point for the whole run path. `start` is a
    /// resumed checkpoint level; `None` seeds the run at `min_k`.
    fn run_repr<S: NeighborSet>(
        &self,
        g: &Arc<BitGraph>,
        sink: &mut impl CliqueSink,
        start: Option<Level<S>>,
    ) -> Result<PipelineReport, PipelineError> {
        let io0 = crate::supervise::io_retries();
        // Stage 1: bounds, which reproduce the paper's "maximum clique
        // size was 17 / 110 / 28" preamble. They never cap the loop: it
        // stops at the maximum clique on its own, because level ω holds
        // no sub-lists.
        let (upper_bound, maximum_clique) = if self.exact_upper_bound {
            (Some(clique_upper_bound(g)), Some(maximum_clique_size(g)))
        } else {
            (None, None)
        };
        let mut report = PipelineReport {
            upper_bound,
            maximum_clique,
            min_k: self.min_k,
            enum_stats: None,
            parallel_stats: None,
            resumed_from: start.as_ref().map(|level| level.k),
            degraded_at: None,
            checkpoints: Vec::new(),
            degraded_stats: None,
        };
        // Stages 2+3: seed at min_k and run the level loop.
        self.enumerate(g, sink, start, &mut report)?;
        self.note_supervision(&report, io0);
        self.finish_telemetry(&report)?;
        Ok(report)
    }

    /// The level loop with the pipeline's hooks, and what follows when
    /// it stops early: degradation continues out of core; a halt or a
    /// failed level leaves the checkpoint directory `resume`-ready.
    fn enumerate<S: NeighborSet, K: CliqueSink>(
        &self,
        g: &Arc<BitGraph>,
        sink: &mut K,
        start: Option<Level<S>>,
        report: &mut PipelineReport,
    ) -> Result<(), PipelineError> {
        let wall = Instant::now();
        let g_n = g.n();
        let config = EnumConfig {
            min_k: self.min_k,
            max_k: self.max_k,
            record_costs: false,
        };
        let mut manager = self
            .checkpoint
            .clone()
            .map(CheckpointManager::new)
            .transpose()?;
        // Checkpoint barriers persist cumulative RunProgress for resume,
        // so a checkpointed run without caller-attached telemetry keeps a
        // quiet (no-output) instance.
        let quiet;
        let telemetry = match (&self.telemetry, &manager) {
            (Some(telemetry), _) => Some(&**telemetry),
            (None, Some(_)) => {
                quiet = RunTelemetry::new(TelemetryConfig::default()).map_err(StoreError::Io)?;
                Some(&quiet)
            }
            (None, None) => None,
        };
        let mut sink = TelemetrySink {
            inner: sink,
            telemetry,
        };
        let mut stats = EnumStats::default();
        let level = match start {
            Some(level) => level,
            None => {
                CliqueEnumerator::<S>::with_backend(config).init_level(g, &mut sink, &mut stats)
            }
        };
        let barrier = |level: &Level<S>, memory: &LevelMemory, sink: &mut TelemetrySink<K>| {
            at_barrier(
                &mut manager,
                self.memory_budget,
                self.shutdown.as_ref(),
                level,
                memory,
                sink,
                g_n,
                telemetry,
            )
        };
        let outcome = if self.threads == 1 {
            let mut step = Step::new(g, false);
            let outcome = run_levels(
                level,
                config.max_k,
                g_n,
                &mut sink,
                &mut step,
                &mut stats,
                barrier,
                |level, _| observe_level(telemetry, level, g_n, None),
            );
            stats.wall_ns = wall.elapsed().as_nanos() as u64;
            report.enum_stats = Some(stats);
            outcome
        } else {
            let mut par = ParallelEnumerator::new(ParallelConfig {
                threads: self.threads,
                enum_config: config,
                worker_deadline: self.worker_deadline,
            });
            if let Some(q) = self.quarantine.clone() {
                par = par.quarantine_to(q);
            }
            let mut epochs = Epochs::new(&par, g);
            let outcome = run_levels(
                level,
                config.max_k,
                g_n,
                &mut sink,
                &mut epochs,
                &mut stats,
                barrier,
                |level, epochs: &Epochs<S>| {
                    let epoch = epochs.run.levels.last().expect("one epoch per level");
                    observe_level(telemetry, level, g_n, Some((epoch, epochs.last_retried)))
                },
            );
            report.parallel_stats = Some(epochs.into_stats(stats, wall));
            outcome
        };
        match outcome {
            Ok(()) => {}
            Err(Stop::Degrade(level)) => {
                report.degraded_at = Some(level.k);
                // Degradation moves the level into the budgeted spill
                // store: same kernel, same representation.
                let degraded = CliqueEnumerator::<S>::with_backend(config)
                    .enumerate_spilled_from_level(g, level, &mut sink, &self.spill_config())?;
                record_degraded_levels(telemetry, &degraded)?;
                report.degraded_stats = Some(degraded);
            }
            Err(Stop::Halt) => {
                // The barrier already forced a final checkpoint and
                // recorded the stop cause; leaving the files in place
                // keeps the directory `resume`-ready.
                return Err(PipelineError::Interrupted {
                    signal: self.requested_signal(),
                });
            }
            Err(Stop::Round { k, error, level }) => {
                // Abort, but leave a final checkpoint of the failed
                // level so the operator can fix the cause and resume.
                if let Some(mgr) = manager.as_mut() {
                    let _ = sink.flush_barrier();
                    let _ = mgr.force(&level);
                    let _ = record_stop_cause(mgr.dir(), StopCause::WorkerFailure);
                }
                return Err(PipelineError::Workers { k, error });
            }
            Err(Stop::Store(e)) => return Err(e.into()),
        }
        // Success: record which levels were checkpointed, then remove
        // the now-useless checkpoint files.
        if let Some(mgr) = manager {
            report.checkpoints = mgr.written().to_vec();
            mgr.finish();
        }
        Ok(())
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
    /// telemetry.
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
}

/// Counts every emitted clique into the run telemetry, when there is
/// one, before forwarding to the real sink. Wrapping the sink (instead
/// of summing per-level reports) makes the cumulative total exact:
/// seeds emitted during level initialization and the degraded
/// out-of-core tail never produce a per-level record, but they do pass
/// through here.
struct TelemetrySink<'a, S: CliqueSink> {
    inner: &'a mut S,
    telemetry: Option<&'a RunTelemetry>,
}

impl<S: CliqueSink> CliqueSink for TelemetrySink<'_, S> {
    fn maximal(&mut self, clique: &[Vertex]) {
        if let Some(telemetry) = self.telemetry {
            telemetry.add_cliques(1);
        }
        self.inner.maximal(clique);
    }

    fn flush_barrier(&mut self) -> std::io::Result<()> {
        self.inner.flush_barrier()
    }
}

/// The per-level observer: one telemetry record per expanded level,
/// with a steal epoch's per-worker timing and retry flag layered on.
fn observe_level(
    telemetry: Option<&RunTelemetry>,
    report: &LevelReport,
    g_n: usize,
    epoch: Option<(&LevelStats, bool)>,
) -> Result<(), StoreError> {
    let Some(telemetry) = telemetry else {
        return Ok(());
    };
    let mut record = LevelRecord {
        k: report.k as u64,
        sublists: report.sublists as u64,
        candidates: report.candidates as u64,
        maximal_level: report.maximal_found as u64,
        level_ns: report.ns,
        and_ops: report.and_ops,
        maximality_tests: report.maximality_tests,
        projected_bytes: report.memory.projected_peak_bytes(report.k, g_n) as u64,
        formula_bytes: report.memory.formula_bytes as u64,
        heap_bytes: report.memory.heap_bytes as u64,
        ..Default::default()
    };
    if let Some((timing, retried)) = epoch {
        record.busy_ns = timing.per_worker_ns.clone();
        record.units = timing.per_worker_units.clone();
        record.tasks = timing.per_worker_tasks.iter().map(|&t| t as u64).collect();
        record.transfers = timing.transfers as u64;
        record.steals = timing.per_worker_steals.clone();
        record.idle_ns = timing.per_worker_idle_ns.clone();
        record.failed_steals = timing.failed_steals;
        if retried {
            record.retries = 1;
            telemetry.note_retry();
        }
    }
    telemetry.on_level(record)?;
    Ok(())
}

/// Emit one degraded-mode record per out-of-core level so the JSONL
/// stream covers the whole run even after the watchdog fires.
fn record_degraded_levels(
    telemetry: Option<&RunTelemetry>,
    degraded: &EnumStats,
) -> Result<(), StoreError> {
    let Some(telemetry) = telemetry else {
        return Ok(());
    };
    for level in &degraded.levels {
        telemetry.note_spill(level.bytes_read);
        telemetry.on_level(LevelRecord {
            k: level.k as u64,
            sublists: level.sublists as u64,
            maximal_level: level.maximal_found as u64,
            level_ns: level.ns,
            degraded: true,
            ..Default::default()
        })?;
    }
    Ok(())
}

/// The per-level barrier: shutdown, fault injection, memory watchdog,
/// durable sink flush, checkpoint write (plus its telemetry and
/// progress bookkeeping).
#[allow(clippy::too_many_arguments)]
fn at_barrier<S: NeighborSet, K: CliqueSink>(
    manager: &mut Option<CheckpointManager>,
    budget: Option<usize>,
    shutdown: Option<&ShutdownToken>,
    level: &Level<S>,
    memory: &LevelMemory,
    sink: &mut K,
    g_n: usize,
    telemetry: Option<&RunTelemetry>,
) -> Result<BarrierControl, StoreError> {
    // Shutdown wins over everything else at the barrier: the level that
    // just finished is complete and consistent, so persist it (forced,
    // regardless of the checkpoint policy), record why we stopped, and
    // halt. Nothing below this level is lost.
    if let Some(sig) = shutdown.and_then(ShutdownToken::signal) {
        if let (Some(mgr), Some(telemetry)) = (manager.as_mut(), telemetry) {
            sink.flush_barrier()?;
            let write = mgr.force(level)?;
            telemetry.note_checkpoint(write.ns, write.bytes);
            save_progress(mgr, telemetry)?;
            // Best-effort: a failed stop-cause note must not block the
            // shutdown itself.
            let _ = record_stop_cause(mgr.dir(), StopCause::Signal(sig));
        }
        return Ok(BarrierControl::Halt);
    }
    if let Some(budget) = budget {
        crate::failpoint::inject("memory.budget")?;
        if memory.projected_peak_bytes(level.k, g_n) > budget {
            return Ok(BarrierControl::Degrade);
        }
    }
    if let (Some(mgr), Some(telemetry)) = (manager.as_mut(), telemetry) {
        // Flush the sink first: once the checkpoint exists, a resumed
        // run will never re-emit anything at or below this level, so
        // those cliques must already be out of volatile buffers.
        sink.flush_barrier()?;
        if let Some(write) = mgr.observe_level(level)? {
            telemetry.note_checkpoint(write.ns, write.bytes);
            // Everything of size ≤ level.k is flushed and the level is
            // durable, so these totals are exactly what a resumed run
            // should continue from.
            save_progress(mgr, telemetry)?;
        }
    }
    // The crash-simulation site sits after the checkpoint write: a kill
    // here models dying at the barrier with the freshest possible
    // checkpoint on disk — resume must still produce identical output.
    crate::failpoint::inject("pipeline.barrier")?;
    Ok(BarrierControl::Continue)
}

/// Persist the run's cumulative telemetry next to its checkpoints.
fn save_progress(mgr: &CheckpointManager, telemetry: &RunTelemetry) -> Result<(), StoreError> {
    RunProgress {
        cliques_emitted: telemetry.cliques_emitted(),
        levels_done: telemetry.levels_completed(),
        wall_ms: telemetry.wall_ns() / 1_000_000,
    }
    .save(mgr.dir())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bk::base_bk_sorted;
    use crate::sink::CollectSink;
    use gsb_graph::generators::{planted, Module};

    #[test]
    fn sequential_pipeline_end_to_end() {
        let g = Arc::new(planted(40, 0.08, &[Module::clique(9)], 21));
        let mut sink = CollectSink::default();
        let report = CliquePipeline::new().min_size(4).run(&g, &mut sink);
        assert_eq!(report.maximum_clique, Some(9));
        assert!(report.upper_bound.is_some_and(|bound| bound >= 9));
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
        // Every mode is the one level loop, so every option set emits
        // exactly the oracle's sequence — unsorted — at any thread count.
        let g = Arc::new(planted(36, 0.1, &[Module::clique(8), Module::clique(6)], 2));
        let mut oracle = CollectSink::default();
        CliqueEnumerator::new(EnumConfig::default()).enumerate(&g, &mut oracle);
        let dir = temp_dir("modes");
        let jsonl = temp_dir("modes-telemetry").with_extension("jsonl");
        let telemetry = || {
            Arc::new(
                RunTelemetry::new(TelemetryConfig {
                    metrics_out: Some(jsonl.clone()),
                    progress: false,
                })
                .unwrap(),
            )
        };
        for threads in [1usize, 4] {
            let plain = CliquePipeline::new().threads(threads);
            let modes = [
                ("no option", plain.clone()),
                ("telemetry", plain.clone().telemetry(telemetry())),
                (
                    "memory_budget(MAX)",
                    plain.clone().memory_budget(usize::MAX),
                ),
                ("memory_budget(0)", plain.clone().memory_budget(0)),
                (
                    "checkpoint(every_level)",
                    plain
                        .clone()
                        .checkpoint(CheckpointConfig::every_level(&dir)),
                ),
            ];
            for (mode, pipe) in modes {
                let mut sink = CollectSink::default();
                let report = pipe.try_run(&g, &mut sink).expect("run");
                assert_eq!(sink.cliques, oracle.cliques, "{mode}, threads={threads}");
                assert_eq!(report.parallel_stats.is_some(), threads > 1, "{mode}");
                assert_eq!(report.degraded_at.is_some(), mode == "memory_budget(0)");
            }
        }
        let _ = std::fs::remove_file(&jsonl);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn size_window() {
        let g = Arc::new(planted(30, 0.1, &[Module::clique(8)], 13));
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
        let g = Arc::new(planted(30, 0.1, &[Module::clique(7)], 5));
        let mut sink = CollectSink::default();
        let report = CliquePipeline::new()
            .min_size(3)
            .skip_exact_bound()
            .run(&g, &mut sink);
        assert_eq!(report.maximum_clique, None);
        assert_eq!(report.upper_bound, None);
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
        let g = Arc::new(planted(
            36,
            0.1,
            &[Module::clique(9), Module::clique(6)],
            17,
        ));
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
        let g = Arc::new(planted(
            34,
            0.1,
            &[Module::clique(8), Module::clique(6)],
            29,
        ));
        let mut full = CollectSink::default();
        CliquePipeline::new().min_size(3).run(&g, &mut full);

        let seq = CliqueEnumerator::new(EnumConfig::default());
        let mut pre_crash = CollectSink::default();
        let mut enum_stats = EnumStats::default();
        let mut level = seq.init_level(&g, &mut pre_crash, &mut enum_stats);
        while level.k < 4 && !level.sublists.is_empty() {
            let (next, _) = seq.step(&g, level, &mut pre_crash);
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
        let g = Arc::new(planted(36, 0.1, &[Module::clique(9)], 3));
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
        let g = Arc::new(planted(36, 0.1, &[Module::clique(9)], 3));
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
        let g = Arc::new(planted(30, 0.1, &[Module::clique(7)], 9));
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
        let g = Arc::new(planted(34, 0.1, &[Module::clique(8), Module::clique(6)], 7));
        let mut dense = CollectSink::default();
        CliquePipeline::new().min_size(3).run(&g, &mut dense);
        let mut expect = dense.cliques;
        expect.sort();
        for threads in [1usize, 3] {
            let mut sink = CollectSink::default();
            CliquePipeline::new()
                .min_size(3)
                .threads(threads)
                .backend(BackendChoice::Wah)
                .run(&g, &mut sink);
            let mut got = sink.cliques;
            got.sort();
            assert_eq!(got, expect, "wah threads={threads}");
        }
    }

    #[test]
    fn wah_backend_degrades_and_stays_correct() {
        let g = Arc::new(planted(36, 0.1, &[Module::clique(9)], 3));
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
        let g = Arc::new(planted(
            34,
            0.1,
            &[Module::clique(8), Module::clique(6)],
            29,
        ));
        let mut full = CollectSink::default();
        CliquePipeline::new().min_size(3).run(&g, &mut full);

        // Run the first levels by hand under WAH, checkpoint, resume.
        let seq = CliqueEnumerator::<WahBitSet>::with_backend(EnumConfig::default());
        let mut pre_crash = CollectSink::default();
        let mut enum_stats = EnumStats::default();
        let mut level = seq.init_level(&g, &mut pre_crash, &mut enum_stats);
        while level.k < 4 && !level.sublists.is_empty() {
            let (next, _) = seq.step(&g, level, &mut pre_crash);
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
        let g = Arc::new(planted(30, 0.1, &[Module::clique(7)], 11));
        let seq = CliqueEnumerator::<WahBitSet>::with_backend(EnumConfig::default());
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
