//! The multithreaded Clique Enumerator (§2.3, "Parallelism for
//! shared-memory machines") on the work-stealing runtime.
//!
//! Each level is a *steal-scope epoch* (Das et al., *Shared-Memory
//! Parallel Maximal Clique Enumeration*): every sub-list is its own
//! task on its owner's deque, idle workers steal (owner-LIFO /
//! thief-FIFO), and the level ends at quiescence — which is where the
//! paper's level-barrier hooks (checkpoint, degradation, halt) attach.
//! The initial level is spread by LPT on estimated sub-list costs, and
//! children stay on the worker that produced them as the next epoch's
//! seed queues, so the paper's task-affinity property survives; the
//! centralized balancer is not needed because stealing balances online
//! (Fig. 8 still measures the paper's balancer through a thread-free
//! replay in `gsb-bench`).
//!
//! Determinism: within a level the set of maximal cliques is
//! independent of the partition *and* of the steal schedule; results
//! are staged per level and released sorted (see
//! [`crate::sink::SequencingSink`]), so output is byte-identical to the
//! sequential enumerator.
//!
//! ## Fault tolerance
//!
//! [`enumerate_resilient`](ParallelEnumerator::enumerate_resilient) is
//! the crash-aware driver: a task that panics is retried inline once,
//! and a task that panics twice is convicted. An epoch that fails
//! supervision (stuck worker, dead thread) is discarded wholesale (no
//! partial emissions), dead threads are respawned, and the level is
//! retried once from its snapshot before the failure is surfaced as a
//! typed [`ParallelRunError`]. A per-level barrier hook lets the
//! pipeline write checkpoints and demand degradation to the out-of-core
//! path mid-flight, or halt for a graceful signal-driven shutdown
//! ([`BarrierControl::Halt`]).
//!
//! ## Supervision
//!
//! With a worker deadline configured
//! ([`ParallelConfig::worker_deadline`]) a worker silent inside one
//! sub-list past the deadline is declared stuck and abandoned, not
//! waited on forever, and the failure names that sub-list. With a
//! quarantine sidecar configured
//! ([`ParallelEnumerator::quarantine_to`]) convicted sub-lists — those
//! that panic twice, or stall past the deadline again on the level's
//! retry — are recorded to `quarantine.jsonl` and skipped, and the
//! level continues: degraded exact, never silently dropped (see
//! [`crate::quarantine`]).

use crate::backend::InMemoryLevel;
use crate::enumerator::{EnumConfig, LevelReport};
use crate::memory::LevelMemory;
use crate::quarantine::QuarantineEntry;
use crate::sink::{CliqueSink, CollectSink, SequencingSink};
use crate::store::StoreError;
use crate::sublist::{Level, SubList};
use crate::Clique;
use gsb_bitset::{BitSet, NeighborSet};
use gsb_graph::BitGraph;
use gsb_par::balance::partition_greedy;
use gsb_par::pool::EpochOut;
use gsb_par::stats::{LevelStats, RunStats};
use gsb_par::{Heartbeat, RoundError, WorkerFailure, WorkerPool};
use std::fmt;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Configuration of a parallel run.
#[derive(Clone, Copy, Debug)]
pub struct ParallelConfig {
    /// Worker threads.
    pub threads: usize,
    /// Size bounds and seeding, as for the sequential enumerator.
    pub enum_config: EnumConfig,
    /// Stuck-worker deadline: a worker that stays inside one sub-list
    /// without a heartbeat for this long is declared dead and
    /// abandoned. `None` (the default) disables the watchdog — a wedged
    /// thread then blocks the level indefinitely.
    pub worker_deadline: Option<Duration>,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            threads: 4,
            enum_config: EnumConfig::default(),
            worker_deadline: None,
        }
    }
}

/// Statistics of a parallel run.
#[derive(Clone, Debug, Default)]
pub struct ParallelStats {
    /// Per-level algorithmic reports (counts, memory).
    pub levels: Vec<LevelReport>,
    /// Per-level, per-worker timing (Fig. 8's raw data).
    pub run: RunStats,
    /// Total maximal cliques reported.
    pub total_maximal: usize,
    /// Levels whose first epoch failed supervision (stuck worker, dead
    /// thread) and were re-run from their snapshot.
    pub retried_levels: Vec<usize>,
    /// Individual tasks that panicked once and succeeded on the inline
    /// retry.
    pub retried_tasks: u64,
    /// Sub-lists isolated into the quarantine sidecar and skipped
    /// (degraded-exact mode): their descendant cliques are missing from
    /// the output but recorded, never silently dropped.
    pub quarantined: usize,
}

/// Verdict of the per-level barrier hook.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BarrierControl {
    /// Expand this level as usual.
    Continue,
    /// Stop the in-core parallel run and hand the level back (the
    /// pipeline continues it out of core).
    Degrade,
    /// Stop the run entirely (graceful shutdown): the barrier has
    /// already persisted what it needs; nothing further is expanded.
    Halt,
}

/// How a resilient parallel run ended. Generic over the bitmap
/// representation the run enumerated with (dense by default).
pub enum ParallelOutcome<S: NeighborSet = BitSet> {
    /// Ran to completion.
    Complete(ParallelStats),
    /// The barrier hook demanded degradation; `level` is unexpanded and
    /// everything of size `< level.k + 1` was already emitted.
    Degraded {
        /// The snapshot to continue from.
        level: Level<S>,
        /// Statistics up to the handoff.
        stats: ParallelStats,
    },
    /// The barrier hook demanded a halt (graceful shutdown). The
    /// barrier persisted its final checkpoint before asking, so the
    /// outcome only carries the statistics.
    Interrupted {
        /// Statistics up to the halt.
        stats: ParallelStats,
    },
}

/// A resilient parallel run failed.
#[derive(Debug)]
pub enum ParallelRunError<S: NeighborSet = BitSet> {
    /// A level failed: its epoch failed twice (original + one retry
    /// from the snapshot), or a task was convicted with no quarantine
    /// sidecar to take it. `level` is the unexpanded snapshot, so the
    /// caller can persist a final checkpoint before aborting.
    Round {
        /// The level being expanded when the workers failed.
        k: usize,
        /// The worker failures of the failing epoch.
        error: RoundError,
        /// The unexpanded level snapshot.
        level: Level<S>,
    },
    /// The barrier hook (checkpoint write, budget check) failed.
    Store(StoreError),
}

impl<S: NeighborSet> fmt::Display for ParallelRunError<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParallelRunError::Round { k, error, .. } => {
                write!(f, "level {k} failed after retry: {error}")
            }
            ParallelRunError::Store(e) => write!(f, "barrier failed: {e}"),
        }
    }
}

impl<S: NeighborSet> std::error::Error for ParallelRunError<S> {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParallelRunError::Round { error, .. } => Some(error),
            ParallelRunError::Store(e) => Some(e),
        }
    }
}

impl<S: NeighborSet> From<StoreError> for ParallelRunError<S> {
    fn from(e: StoreError) -> Self {
        ParallelRunError::Store(e)
    }
}

/// What one task (a single sub-list) produces.
struct TaskOut<S: NeighborSet> {
    new_sublists: Vec<SubList<S>>,
    maximal: Vec<Clique>,
    units: u64,
    and_ops: u64,
    tests: u64,
}

/// The per-task job: expand exactly one sub-list. The pool heartbeats
/// as each task starts, so the stuck-worker deadline measures progress
/// *between sub-lists*.
fn task_job<S: NeighborSet>(
    graph: Arc<BitGraph>,
    rows: Arc<Vec<S>>,
) -> impl Fn(usize, &SubList<S>, &Heartbeat) -> TaskOut<S> + Send + Sync {
    move |_w, sl: &SubList<S>, _hb: &Heartbeat| {
        if let Err(e) = crate::failpoint::inject("parallel.worker") {
            panic!("{e}");
        }
        // Per-sub-list failpoint, keyed by prefix, so tests can poison
        // exactly one sub-list. Gated: the tag string is never built in
        // production runs.
        #[cfg(feature = "failpoints")]
        {
            let tag = sl
                .prefix
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("-");
            if let Err(e) = crate::failpoint::inject_tagged("parallel.sublist", &tag) {
                panic!("{e}");
            }
        }
        let mut new_sublists: Vec<SubList<S>> = Vec::new();
        let mut collect = CollectSink::default();
        let mut buf = S::empty(graph.n());
        let expanded =
            crate::enumerator::expand_sublist(&graph, &rows, sl, &mut buf, &mut collect, |c| {
                new_sublists.push(c)
            });
        TaskOut {
            new_sublists,
            maximal: collect.cliques,
            units: expanded.units,
            and_ops: expanded.and_ops,
            tests: expanded.tests,
        }
    }
}

/// Everything one level expansion produced.
struct LevelExpansion<S: NeighborSet> {
    /// Next level's per-worker seed queues (children keep their
    /// producer's affinity).
    new_queues: Vec<Vec<SubList<S>>>,
    /// Maximal cliques of the level, unsorted.
    maximal: Vec<Clique>,
    units: u64,
    and_ops: u64,
    maximality_tests: u64,
    /// Per-worker timing with the unified moved-work count filled in.
    timing: LevelStats,
    /// Whether the whole level was discarded and re-run from its
    /// snapshot (counts toward [`ParallelStats::retried_levels`]).
    retried_level: bool,
    /// Whether anything was retried at all (level or single task) —
    /// the telemetry `retried` flag.
    retried: bool,
    /// Tasks that succeeded on an inline retry.
    retried_tasks: u64,
    /// Sub-lists isolated to the quarantine sidecar this level.
    quarantined: usize,
}

/// Partition sub-lists over `threads` queues with LPT on estimated cost.
fn partition_level<S: NeighborSet>(
    sublists: Vec<SubList<S>>,
    threads: usize,
) -> Vec<Vec<SubList<S>>> {
    let costs: Vec<u64> = sublists.iter().map(SubList::cost).collect();
    let parts = partition_greedy(&costs, threads);
    let mut queues: Vec<Vec<SubList<S>>> = (0..threads).map(|_| Vec::new()).collect();
    let mut slots: Vec<Option<SubList<S>>> = sublists.into_iter().map(Some).collect();
    for (w, idxs) in parts.iter().enumerate() {
        for &i in idxs {
            queues[w].push(slots[i].take().expect("each task assigned once"));
        }
    }
    queues
}

/// The multithreaded Clique Enumerator.
pub struct ParallelEnumerator {
    /// Run configuration.
    pub config: ParallelConfig,
    // Mutex (not for sharing — the enumerator is used from one thread)
    // so respawning dead workers, which needs `&mut WorkerPool`, works
    // behind the long-standing `&self` entry points.
    pool: Mutex<WorkerPool>,
    /// Quarantine sidecar path; `None` keeps the historical behavior
    /// (a convicted sub-list aborts the run).
    quarantine: Option<PathBuf>,
}

impl ParallelEnumerator {
    /// Build an enumerator (spawns the worker pool).
    pub fn new(config: ParallelConfig) -> Self {
        ParallelEnumerator {
            pool: Mutex::new(WorkerPool::new(config.threads)),
            config,
            quarantine: None,
        }
    }

    /// The worker pool, locked. Poisoning is ignored: a job's panic is
    /// caught on its worker thread and a dead worker is respawned
    /// before the next epoch, so a panic that unwound through a lock
    /// holder leaves the pool usable.
    fn pool(&self) -> MutexGuard<'_, WorkerPool> {
        self.pool.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enable the quarantine sidecar: convicted sub-lists (a double
    /// panic, or a stall past the worker deadline on the level's retry)
    /// are recorded to `path` (JSON lines, appended) and skipped instead
    /// of aborting the run. See [`crate::quarantine`].
    pub fn quarantine_to(mut self, path: impl Into<PathBuf>) -> Self {
        self.quarantine = Some(path.into());
        self
    }

    /// Enumerate maximal cliques of `g`, delivering them level by level
    /// (non-decreasing size) into `sink`.
    ///
    /// Panics if a level fails; use
    /// [`enumerate_resilient`](Self::enumerate_resilient) to handle
    /// failures as values.
    pub fn enumerate(&self, g: &Arc<BitGraph>, sink: &mut impl CliqueSink) -> ParallelStats {
        let outcome = self.enumerate_resilient(g, None::<Level>, sink, |_level, _mem, _sink| {
            Ok(BarrierControl::Continue)
        });
        match outcome {
            Ok(ParallelOutcome::Complete(stats)) => stats,
            Ok(ParallelOutcome::Degraded { .. }) | Ok(ParallelOutcome::Interrupted { .. }) => {
                unreachable!("no-op barrier never degrades or halts")
            }
            Err(e) => panic!("parallel enumeration failed: {e}"),
        }
    }

    /// Fault-tolerant enumeration.
    ///
    /// * `start`: `None` runs from scratch (seeding `min_k`-cliques and
    ///   emitting them as the sequential enumerator does); `Some(level)`
    ///   continues from a snapshot — e.g. a checkpoint — whose seeds
    ///   were already emitted by the original run.
    /// * `barrier` runs once per level *before* expansion, with the
    ///   level snapshot and its memory accounting; it may persist a
    ///   checkpoint (errors propagate) and may demand
    ///   [`BarrierControl::Degrade`], which stops the in-core run and
    ///   returns the unexpanded level for out-of-core continuation.
    ///
    /// An epoch that fails supervision (stuck worker, dead thread) is
    /// discarded — partial results never reach `sink` — dead workers
    /// are respawned, and the level is retried once from its snapshot.
    /// A second failure, or a convicted sub-list with no quarantine
    /// sidecar, aborts with [`ParallelRunError::Round`] carrying the
    /// snapshot, so the caller can write a final checkpoint.
    pub fn enumerate_resilient<S, K, B>(
        &self,
        g: &Arc<BitGraph>,
        start: Option<Level<S>>,
        sink: &mut K,
        barrier: B,
    ) -> Result<ParallelOutcome<S>, ParallelRunError<S>>
    where
        S: NeighborSet,
        K: CliqueSink,
        B: FnMut(&Level<S>, &LevelMemory, &mut K) -> Result<BarrierControl, StoreError>,
    {
        self.enumerate_observed(g, start, sink, barrier, |_report, _stats, _retried| {})
    }

    /// [`enumerate_resilient`](Self::enumerate_resilient) with a
    /// telemetry tap: `observe` runs right after each level completes
    /// (results collected, cliques emitted) with the level's
    /// algorithmic report, its per-worker timing, and whether anything
    /// in the level was retried or quarantined. This is how the
    /// pipeline exports one consistent record per level barrier without
    /// the workers ever touching a shared channel mid-level.
    pub fn enumerate_observed<S, K, B, O>(
        &self,
        g: &Arc<BitGraph>,
        start: Option<Level<S>>,
        sink: &mut K,
        mut barrier: B,
        mut observe: O,
    ) -> Result<ParallelOutcome<S>, ParallelRunError<S>>
    where
        S: NeighborSet,
        K: CliqueSink,
        B: FnMut(&Level<S>, &LevelMemory, &mut K) -> Result<BarrierControl, StoreError>,
        O: FnMut(&LevelReport, &LevelStats, bool),
    {
        let wall = Instant::now();
        let mut stats = ParallelStats::default();
        let threads = self.pool().threads();
        let rows = Arc::new(crate::enumerator::neighbor_rows::<S>(g));

        let init = match start {
            Some(level) => level,
            None => {
                // Initialization is sequential and cheap relative to
                // expansion.
                let seq = crate::enumerator::CliqueEnumerator::<S, InMemoryLevel<S>>::with_backend(
                    self.config.enum_config,
                    (),
                );
                let mut init_stats = crate::enumerator::EnumStats::default();
                let init = seq.init_level(g, sink, &mut init_stats);
                stats.total_maximal += init_stats.total_maximal;
                init
            }
        };
        let mut k = init.k;

        // Initial distribution: LPT over estimated sub-list costs.
        let mut queues = partition_level(init.sublists, threads);

        loop {
            let total_tasks: usize = queues.iter().map(Vec::len).sum();
            if total_tasks == 0 {
                break;
            }
            if let Some(mx) = self.config.enum_config.max_k {
                if k >= mx {
                    break;
                }
            }
            // Snapshot this level before consuming it: the barrier hook
            // checkpoints it, the memory watchdog inspects it, and a
            // failed epoch retries from it.
            let level_view = Level {
                k,
                sublists: queues.iter().flatten().cloned().collect(),
            };
            let memory = LevelMemory::account(&level_view, g.n());
            match barrier(&level_view, &memory, sink)? {
                BarrierControl::Continue => {}
                BarrierControl::Degrade => {
                    stats.run.wall_ns = wall.elapsed().as_nanos() as u64;
                    return Ok(ParallelOutcome::Degraded {
                        level: level_view,
                        stats,
                    });
                }
                BarrierControl::Halt => {
                    stats.run.wall_ns = wall.elapsed().as_nanos() as u64;
                    return Ok(ParallelOutcome::Interrupted { stats });
                }
            }

            // Expand the level as one steal-scope epoch; the sink sees
            // nothing until the level is fully collected.
            let seeds = std::mem::take(&mut queues);
            let expansion = match self.expand_level(g, &rows, &level_view, seeds, threads) {
                Ok(expansion) => expansion,
                Err(e) => {
                    stats.run.wall_ns = wall.elapsed().as_nanos() as u64;
                    return Err(e);
                }
            };
            drop(level_view);
            if expansion.retried_level {
                stats.retried_levels.push(k);
            }
            stats.retried_tasks += expansion.retried_tasks;
            stats.quarantined += expansion.quarantined;

            // Release the level's cliques in canonical (sequential)
            // order: stage level-tagged, sort, forward — the sequencing
            // discipline that preserves the paper's size-order output
            // guarantee regardless of the completion order inside the
            // level.
            let mut seq = SequencingSink::new(&mut *sink);
            for c in expansion.maximal {
                seq.stage(k, c);
            }
            let maximal_found = seq.release(k);
            stats.total_maximal += maximal_found;

            stats.levels.push(LevelReport {
                k,
                sublists: memory.n_sublists,
                candidates: memory.n_cliques,
                maximal_found,
                ns: *expansion.timing.per_worker_ns.iter().max().unwrap_or(&0),
                memory,
                units: expansion.units,
                and_ops: expansion.and_ops,
                maximality_tests: expansion.maximality_tests,
                spilled: 0,
                bytes_read: 0,
            });
            stats.run.levels.push(expansion.timing);
            observe(
                stats.levels.last().expect("just pushed"),
                stats.run.levels.last().expect("just pushed"),
                expansion.retried,
            );
            queues = expansion.new_queues;
            k += 1;
        }
        stats.run.wall_ns = wall.elapsed().as_nanos() as u64;
        Ok(ParallelOutcome::Complete(stats))
    }

    /// Expand one level as a steal-scope epoch: each sub-list is its
    /// own task, idle workers steal, and children stay on the worker
    /// that produced them as the next epoch's seed queues.
    ///
    /// A task that panics is retried inline once by the pool, and a
    /// deterministic double panic convicts just that sub-list. An epoch
    /// that fails supervision (stuck worker, dead thread) is discarded
    /// and re-run from the snapshot; a worker stuck again on that retry
    /// convicts the sub-list its failure names, and the epoch reruns
    /// without it. Convicted sub-lists are quarantined and skipped when
    /// the sidecar is configured; otherwise the level fails with
    /// [`ParallelRunError::Round`] — the sink has seen nothing of it.
    fn expand_level<S: NeighborSet>(
        &self,
        g: &Arc<BitGraph>,
        rows: &Arc<Vec<S>>,
        level_view: &Level<S>,
        queues: Vec<Vec<SubList<S>>>,
        threads: usize,
    ) -> Result<LevelExpansion<S>, ParallelRunError<S>> {
        let epoch = |queues| {
            self.pool().run_epoch(
                queues,
                task_job(Arc::clone(g), Arc::clone(rows)),
                self.config.worker_deadline,
            )
        };
        let fail = |error| ParallelRunError::Round {
            k: level_view.k,
            error,
            level: level_view.clone(),
        };
        let convict = |sl: &SubList<S>, reason: &str| QuarantineEntry {
            k: level_view.k as u64,
            prefix: sl.prefix.clone(),
            tails: sl.tails.clone(),
            reason: reason.to_string(),
        };
        let mut retried_level = false;
        let mut convicted: Vec<QuarantineEntry> = Vec::new();
        let out = match epoch(queues) {
            Ok(out) => out,
            Err(_) => {
                // Supervision failure: the epoch was frozen and its
                // results discarded. Re-seed from the snapshot and retry
                // on respawned workers.
                retried_level = true;
                let snapshot = &level_view.sublists;
                // Snapshot indices of the sub-lists still in the level.
                let mut live: Vec<usize> = (0..snapshot.len()).collect();
                loop {
                    let costs: Vec<u64> = live.iter().map(|&i| snapshot[i].cost()).collect();
                    let parts = partition_greedy(&costs, threads);
                    let seeds = parts
                        .iter()
                        .map(|part| part.iter().map(|&j| snapshot[live[j]].clone()).collect())
                        .collect();
                    let error = match epoch(seeds) {
                        Ok(out) => break out,
                        Err(error) => error,
                    };
                    // Stuck again: every failure must name the sub-list
                    // its worker was wedged in, and the sidecar must be
                    // there to take it.
                    let named = error
                        .failures
                        .iter()
                        .all(|f| f.deadline && f.task.is_some());
                    if !named || self.quarantine.is_none() {
                        return Err(fail(error));
                    }
                    // Seed index (the pool's task numbering) -> snapshot index.
                    let seeded: Vec<usize> = parts.iter().flatten().map(|&j| live[j]).collect();
                    for f in &error.failures {
                        let i = seeded[f.task.expect("checked above")];
                        convicted.push(convict(&snapshot[i], &f.panic_message));
                        live.retain(|&j| j != i);
                    }
                }
            }
        };

        let EpochOut {
            results,
            steal_stats,
            poisoned,
            retried_tasks,
        } = out;
        if !poisoned.is_empty() && self.quarantine.is_none() {
            return Err(fail(RoundError {
                failures: poisoned
                    .iter()
                    .map(|p| WorkerFailure {
                        worker: p.worker,
                        deadline: false,
                        task: None,
                        panic_message: p.panic_message.clone(),
                    })
                    .collect(),
            }));
        }
        convicted.extend(poisoned.iter().map(|p| convict(&p.task, &p.panic_message)));
        if let (Some(path), false) = (&self.quarantine, convicted.is_empty()) {
            crate::quarantine::append_entries(path, &convicted)
                .map_err(|e| ParallelRunError::Store(StoreError::Io(e)))?;
        }

        let mut timing = LevelStats {
            level: level_view.k,
            ..Default::default()
        };
        let (mut units, mut and_ops, mut maximality_tests) = (0u64, 0u64, 0u64);
        let mut maximal: Vec<Clique> = Vec::new();
        let mut new_queues: Vec<Vec<SubList<S>>> = Vec::with_capacity(threads);
        for (task_outs, ss) in results.into_iter().zip(&steal_stats) {
            let mut children: Vec<SubList<S>> = Vec::new();
            let mut worker_units = 0u64;
            for t in task_outs {
                children.extend(t.new_sublists);
                maximal.extend(t.maximal);
                worker_units += t.units;
                and_ops += t.and_ops;
                maximality_tests += t.tests;
            }
            units += worker_units;
            new_queues.push(children);
            timing.per_worker_ns.push(ss.busy_ns);
            timing.per_worker_units.push(worker_units);
            timing.per_worker_tasks.push(ss.tasks as usize);
            timing.per_worker_steals.push(ss.steals);
            timing.per_worker_idle_ns.push(ss.idle_ns);
            timing.failed_steals += ss.failed_steals;
        }
        // Unified moved-work count: a successful steal is a transfer.
        timing.transfers = timing.per_worker_steals.iter().sum::<u64>() as usize;

        let quarantined = convicted.len();
        Ok(LevelExpansion {
            new_queues,
            maximal,
            units,
            and_ops,
            maximality_tests,
            timing,
            retried_level,
            retried: retried_level || retried_tasks > 0 || quarantined > 0,
            retried_tasks,
            quarantined,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bk::base_bk_sorted;
    use crate::Vertex;
    use gsb_graph::generators::{planted, Module};

    fn parallel_sorted(g: &BitGraph, config: ParallelConfig) -> (Vec<Vec<Vertex>>, ParallelStats) {
        let g = Arc::new(g.clone());
        let mut sink = CollectSink::default();
        let stats = ParallelEnumerator::new(config).enumerate(&g, &mut sink);
        let mut cliques = sink.cliques;
        cliques.sort();
        (cliques, stats)
    }

    fn bk_at_least(g: &BitGraph, min_k: usize) -> Vec<Vec<Vertex>> {
        base_bk_sorted(g)
            .into_iter()
            .filter(|c| c.len() >= min_k)
            .collect()
    }

    #[test]
    fn matches_sequential_for_all_thread_counts() {
        let g = planted(36, 0.1, &[Module::clique(9), Module::clique(7)], 4);
        let expect = bk_at_least(&g, 3);
        for threads in [1, 2, 3, 4, 8] {
            let (got, _) = parallel_sorted(
                &g,
                ParallelConfig {
                    threads,
                    ..Default::default()
                },
            );
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn steal_levels_report_steal_counters() {
        // A graph with a planted heavy module skews per-task costs, so
        // at least one level must record a successful steal — and every
        // level's steal vectors must be worker-shaped.
        let g = planted(60, 0.08, &[Module::clique(12)], 21);
        let (_, stats) = parallel_sorted(
            &g,
            ParallelConfig {
                threads: 4,
                ..Default::default()
            },
        );
        for l in &stats.run.levels {
            assert_eq!(l.per_worker_steals.len(), 4);
            assert_eq!(l.per_worker_idle_ns.len(), 4);
            assert_eq!(
                l.transfers,
                l.per_worker_steals.iter().sum::<u64>() as usize,
                "unified moved-work count"
            );
        }
        assert!(
            stats.run.total_transfers() > 0,
            "skewed levels should trigger at least one steal"
        );
    }

    #[test]
    fn seeded_parallel_matches() {
        let g = planted(32, 0.12, &[Module::clique(10)], 11);
        let expect = bk_at_least(&g, 6);
        let (got, _) = parallel_sorted(
            &g,
            ParallelConfig {
                threads: 3,
                enum_config: EnumConfig {
                    min_k: 6,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        assert_eq!(got, expect);
    }

    #[test]
    fn stats_populated() {
        let g = planted(30, 0.1, &[Module::clique(8)], 3);
        let (cliques, stats) = parallel_sorted(
            &g,
            ParallelConfig {
                threads: 4,
                ..Default::default()
            },
        );
        assert_eq!(stats.total_maximal, cliques.len());
        assert!(!stats.levels.is_empty());
        assert_eq!(stats.run.levels.len(), stats.levels.len());
        for l in &stats.run.levels {
            assert_eq!(l.per_worker_ns.len(), 4);
        }
        assert!(stats.run.wall_ns > 0);
        assert!(stats.retried_levels.is_empty());
    }

    #[test]
    fn output_in_non_decreasing_size_order() {
        let g = planted(30, 0.1, &[Module::clique(8), Module::clique(5)], 6);
        let garc = Arc::new(g);
        let mut sink = CollectSink::default();
        ParallelEnumerator::new(ParallelConfig {
            threads: 4,
            ..Default::default()
        })
        .enumerate(&garc, &mut sink);
        let sizes: Vec<usize> = sink.cliques.iter().map(Vec::len).collect();
        assert!(sizes.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn empty_graph_no_hang() {
        let (got, stats) = parallel_sorted(
            &BitGraph::new(0),
            ParallelConfig {
                threads: 2,
                ..Default::default()
            },
        );
        assert!(got.is_empty());
        assert_eq!(stats.total_maximal, 0);
    }

    #[test]
    fn resilient_from_snapshot_matches_rest_of_run() {
        // Step sequentially to the level-3 barrier, then hand the level
        // to the resilient parallel driver as a resume snapshot.
        let g = planted(34, 0.1, &[Module::clique(8), Module::clique(6)], 9);
        let expect = bk_at_least(&g, 3);

        let seq = crate::enumerator::CliqueEnumerator::new(EnumConfig::default());
        let mut sink = CollectSink::default();
        let mut init_stats = crate::enumerator::EnumStats::default();
        let mut level = seq.init_level(&g, &mut sink, &mut init_stats);
        while level.k < 3 && !level.sublists.is_empty() {
            let (next, _) = seq.step(&g, &level, &mut sink);
            level = next;
        }
        let garc = Arc::new(g.clone());
        let outcome = ParallelEnumerator::new(ParallelConfig {
            threads: 3,
            ..Default::default()
        })
        .enumerate_resilient(&garc, Some(level), &mut sink, |_l, _m, _s| {
            Ok(BarrierControl::Continue)
        })
        .expect("resilient run");
        assert!(matches!(outcome, ParallelOutcome::Complete(_)));
        let mut got = sink.cliques;
        got.sort();
        assert_eq!(got, expect);
    }

    #[test]
    fn barrier_degrade_hands_back_unexpanded_level() {
        let g = planted(30, 0.1, &[Module::clique(8)], 5);
        let garc = Arc::new(g.clone());
        let mut sink = CollectSink::default();
        let enumerator = ParallelEnumerator::new(ParallelConfig {
            threads: 2,
            ..Default::default()
        });
        let outcome = enumerator
            .enumerate_resilient(&garc, None::<Level>, &mut sink, |level, _m, _s| {
                Ok(if level.k >= 4 {
                    BarrierControl::Degrade
                } else {
                    BarrierControl::Continue
                })
            })
            .expect("resilient run");
        let ParallelOutcome::Degraded { level, .. } = outcome else {
            panic!("expected degradation at k=4");
        };
        assert_eq!(level.k, 4);
        assert!(!level.sublists.is_empty());
        // continuing sequentially from the handoff completes the run
        let seq = crate::enumerator::CliqueEnumerator::new(EnumConfig::default());
        seq.enumerate_from_level(&g, level, &mut sink);
        let mut got = sink.cliques;
        got.sort();
        assert_eq!(got, bk_at_least(&g, 3));
    }
}
