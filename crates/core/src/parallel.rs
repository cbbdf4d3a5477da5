//! The multithreaded Clique Enumerator (§2.3, "Parallelism for
//! shared-memory machines") on the work-stealing runtime.
//!
//! Each level is a *steal-scope epoch* (Das et al., *Shared-Memory
//! Parallel Maximal Clique Enumeration*). The level is shared, read
//! only, behind an `Arc`, and cut into cost-balanced *runs* of
//! consecutive sub-lists, [`RUNS_PER_WORKER`] per worker: a run is one
//! steal task. Worker w is seeded with the w-th contiguous block of
//! runs, so the children it produces mostly stay with it; idle workers
//! steal whole runs (owner-LIFO / thief-FIFO), and the level ends at
//! quiescence — which is where the paper's level-barrier hooks
//! (checkpoint, degradation, halt) attach. A sub-list expands in about
//! a microsecond on the §3 co-expression graph, so a task holds many:
//! the deque lock, the panic frame, the clock reads, the n-bit scratch
//! buffer and the output vectors are paid once per run. The paper's
//! centralized balancer is not needed because stealing balances online
//! (Fig. 8 still measures it through a thread-free replay in
//! `gsb-bench`).
//!
//! Determinism: each run returns its children and its maximal cliques
//! in expansion order, and the runs are concatenated in level order.
//! That is exactly the sequential enumerator's order, so the sink gets
//! the cliques with no staging or sort, the next level is already in
//! prefix order, and output is byte-identical to the sequential
//! enumerator at every thread count. Every level the level loop hands
//! out — to the barrier hook, on degradation or with a failed epoch —
//! is in the order of the start level.
//!
//! A steal epoch is one of the two ways the level loop of
//! [`crate::enumerator`] expands a level; [`ParallelEnumerator::enumerate`]
//! and the [`CliquePipeline`](crate::CliquePipeline) at more than one
//! thread run that loop with it.
//!
//! ## Fault tolerance
//!
//! The fault unit is the sub-list, not the run: inside a run a
//! panicking sub-list is retried inline once, and one that panics twice
//! is convicted alone while the rest of its run's output is kept. An
//! epoch that fails supervision (stuck worker, dead thread) is
//! discarded wholesale (no partial emissions), dead threads are
//! respawned, and the level is retried once before the failure stops
//! the level loop with the unexpanded level, so the pipeline can write a
//! final checkpoint of it.
//!
//! ## Supervision
//!
//! With a worker deadline configured
//! ([`ParallelConfig::worker_deadline`]) a worker silent inside one
//! sub-list past the deadline is declared stuck and abandoned, not
//! waited on forever. A run names each sub-list on its heartbeat as it
//! enters it, so the failure names that sub-list. With a quarantine
//! sidecar configured ([`ParallelEnumerator::quarantine_to`]) convicted
//! sub-lists — those that panic twice, or stall past the deadline
//! again on the level's retry — are recorded to `quarantine.jsonl` and
//! skipped, and the level continues: degraded exact, never silently
//! dropped (see [`crate::quarantine`]).

use crate::enumerator::{
    run_levels, BarrierControl, CliqueEnumerator, EnumConfig, EnumStats, ExpandLevel, Expanded,
    LevelReport, Stop,
};
use crate::memory::LevelMemory;
use crate::quarantine::QuarantineEntry;
use crate::sink::{CliqueSink, FnSink};
use crate::store::StoreError;
use crate::sublist::{Level, SubList};
use crate::Vertex;
use gsb_bitset::NeighborSet;
use gsb_graph::BitGraph;
use gsb_par::pool::{run_with_retry, EpochOut};
use gsb_par::stats::{LevelStats, RunStats};
use gsb_par::{Heartbeat, RoundError, WorkerFailure, WorkerPool};
use std::ops::Range;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Steal tasks per worker: each level is cut into this many runs of
/// consecutive sub-lists per thread. Enough that a worker whose block
/// finishes early finds whole runs left to steal, few enough that a
/// run holds many microsecond-sized sub-lists.
pub const RUNS_PER_WORKER: usize = 32;

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
    /// thread) and were re-run.
    pub retried_levels: Vec<usize>,
    /// Sub-lists that panicked once and succeeded on the inline retry.
    pub retried_tasks: u64,
    /// Sub-lists isolated into the quarantine sidecar and skipped
    /// (degraded-exact mode): their descendant cliques are missing from
    /// the output but recorded, never silently dropped.
    pub quarantined: usize,
}

/// What one run (a steal task) produces, in expansion order.
struct RunOut<S: NeighborSet> {
    /// Level index of the run's first sub-list: orders the runs.
    start: usize,
    /// Children of the run's sub-lists.
    children: Vec<SubList<S>>,
    /// Maximal cliques, flat: expanding level k finds (k+1)-cliques.
    cliques: Vec<Vertex>,
    /// Sub-lists the run took on (expanded or convicted).
    sublists: u64,
    units: u64,
    and_ops: u64,
    tests: u64,
    /// Sub-lists that panicked once and succeeded on the inline retry.
    retried: u64,
    /// Sub-lists that panicked twice: level index and panic message.
    convicted: Vec<(usize, String)>,
}

/// The per-run job: expand the run's sub-lists of the shared `level` in
/// order with one scratch buffer, skipping the `excluded` ones
/// (convicted earlier in this level). Each sub-list is entered on the
/// heartbeat before anything else, so the stuck-worker deadline
/// measures progress *between sub-lists* and a stuck worker's failure
/// names its sub-list. A panicking sub-list is retried once through the
/// pool's retry helper and then convicted alone: its partial output is
/// truncated away and the run goes on.
fn run_job<S: NeighborSet>(
    graph: Arc<BitGraph>,
    rows: Arc<Vec<S>>,
    level: Arc<Level<S>>,
    excluded: Vec<usize>,
) -> impl Fn(usize, &Range<usize>, &Heartbeat) -> RunOut<S> + Send + Sync {
    move |w, run: &Range<usize>, hb: &Heartbeat| {
        let mut out = RunOut {
            start: run.start,
            children: Vec::new(),
            cliques: Vec::new(),
            sublists: 0,
            units: 0,
            and_ops: 0,
            tests: 0,
            retried: 0,
            convicted: Vec::new(),
        };
        let mut buf = S::empty(graph.n());
        for i in run.clone().filter(|i| !excluded.contains(i)) {
            hb.enter(w, i);
            out.sublists += 1;
            let marks = (out.children.len(), out.cliques.len());
            let expand = |sl: &SubList<S>| {
                // Every attempt starts from the run's output before
                // this sub-list.
                out.children.truncate(marks.0);
                out.cliques.truncate(marks.1);
                if let Err(e) = crate::failpoint::inject("parallel.worker") {
                    panic!("{e}");
                }
                // Per-sub-list failpoint, keyed by prefix, so tests can
                // poison exactly one sub-list. Gated: the tag string is
                // never built in production runs.
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
                let mut sink = FnSink(|c: &[Vertex]| out.cliques.extend_from_slice(c));
                crate::enumerator::expand_sublist(&graph, &rows, sl, &mut buf, &mut sink, |c| {
                    out.children.push(c)
                })
            };
            match run_with_retry(&level.sublists[i], expand) {
                Ok((expanded, was_retried)) => {
                    out.units += expanded.units;
                    out.and_ops += expanded.and_ops;
                    out.tests += expanded.tests;
                    out.retried += u64::from(was_retried);
                }
                Err(message) => {
                    out.children.truncate(marks.0);
                    out.cliques.truncate(marks.1);
                    out.convicted.push((i, message));
                }
            }
        }
        out
    }
}

/// Cut `sublists` into runs of consecutive sub-lists, closing a run
/// once it holds its share of the level's estimated cost
/// ([`SubList::cost`]) — at most `runs + 1` of them. A sub-list at
/// least as heavy as a share closes its run by itself.
fn cut_runs<S>(sublists: &[SubList<S>], runs: usize) -> Vec<Range<usize>> {
    let total: u64 = sublists.iter().map(SubList::cost).sum();
    let share = total.div_ceil(runs as u64).max(1);
    let mut cuts = Vec::with_capacity(runs + 1);
    let (mut start, mut held) = (0, 0u64);
    for (i, sl) in sublists.iter().enumerate() {
        held += sl.cost();
        if held >= share {
            cuts.push(start..i + 1);
            (start, held) = (i + 1, 0);
        }
    }
    if start < sublists.len() {
        cuts.push(start..sublists.len());
    }
    cuts
}

/// One seed queue per worker: worker w gets the w-th contiguous block
/// of runs.
fn seed_queues(runs: &[Range<usize>], threads: usize) -> Vec<Vec<Range<usize>>> {
    let block = runs.len().div_ceil(threads).max(1);
    let mut queues: Vec<Vec<Range<usize>>> = runs.chunks(block).map(<[_]>::to_vec).collect();
    queues.resize_with(threads, Vec::new);
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
    /// (non-decreasing size) into `sink`: the level loop with no hooks,
    /// each level expanded as a steal epoch.
    ///
    /// Panics if a level fails (its epoch failed twice, or a sub-list
    /// was convicted with no quarantine sidecar); the
    /// [`CliquePipeline`](crate::CliquePipeline) surfaces that as a
    /// value.
    pub fn enumerate(&self, g: &Arc<BitGraph>, sink: &mut impl CliqueSink) -> ParallelStats {
        let wall = Instant::now();
        let config = self.config.enum_config;
        let mut stats = EnumStats::default();
        // Initialization is sequential and cheap relative to expansion.
        let level = CliqueEnumerator::new(config).init_level(g, sink, &mut stats);
        let mut epochs = Epochs::new(self, g);
        if let Err(stop) = run_levels(
            level,
            config.max_k,
            g.n(),
            sink,
            &mut epochs,
            &mut stats,
            |_, _, _| Ok(BarrierControl::Continue),
            |_, _| Ok(()),
        ) {
            panic!("parallel enumeration failed: {stop}");
        }
        epochs.into_stats(stats, wall)
    }
}

/// The steal-epoch level expander of one run, and what a parallel run
/// reports beyond its [`LevelReport`]s.
pub(crate) struct Epochs<'a, S: NeighborSet> {
    par: &'a ParallelEnumerator,
    g: &'a Arc<BitGraph>,
    rows: Arc<Vec<S>>,
    threads: usize,
    /// Per-level, per-worker timing.
    pub(crate) run: RunStats,
    retried_levels: Vec<usize>,
    retried_tasks: u64,
    quarantined: usize,
    /// Whether anything in the last level was retried or quarantined —
    /// the telemetry `retried` flag.
    pub(crate) last_retried: bool,
}

impl<'a, S: NeighborSet> Epochs<'a, S> {
    pub(crate) fn new(par: &'a ParallelEnumerator, g: &'a Arc<BitGraph>) -> Self {
        Epochs {
            threads: par.pool().threads(),
            par,
            g,
            rows: Arc::new(crate::enumerator::neighbor_rows::<S>(g)),
            run: RunStats::default(),
            retried_levels: Vec::new(),
            retried_tasks: 0,
            quarantined: 0,
            last_retried: false,
        }
    }

    /// The run's statistics: the loop's per-level reports and totals,
    /// plus the epochs' own.
    pub(crate) fn into_stats(self, stats: EnumStats, wall: Instant) -> ParallelStats {
        let mut run = self.run;
        run.wall_ns = wall.elapsed().as_nanos() as u64;
        ParallelStats {
            levels: stats.levels,
            run,
            total_maximal: stats.total_maximal,
            retried_levels: self.retried_levels,
            retried_tasks: self.retried_tasks,
            quarantined: self.quarantined,
        }
    }
}

impl<S: NeighborSet> ExpandLevel<S> for Epochs<'_, S> {
    /// Expand one level as a steal-scope epoch: the level moves into an
    /// `Arc`, is cut into runs, and worker w starts on the w-th block
    /// of runs while idle workers steal.
    ///
    /// A sub-list that panics is retried inline once, and a double
    /// panic convicts just that sub-list. An epoch that fails
    /// supervision (stuck worker, dead thread) is discarded and re-run
    /// over the same shared level; a worker stuck again on that retry
    /// convicts the sub-list its failure names, and the epoch reruns
    /// without it. Convicted sub-lists are quarantined and skipped when
    /// the sidecar is configured; otherwise the level fails with
    /// [`Stop::Round`] — the sink has seen nothing of it. Otherwise the
    /// runs' cliques go to the sink in level order.
    fn expand_level<K: CliqueSink>(
        &mut self,
        level: Level<S>,
        memory: LevelMemory,
        sink: &mut K,
    ) -> Result<Expanded<S>, Stop<S>> {
        let par = self.par;
        let k = level.k;
        let level = Arc::new(level);
        let runs = cut_runs(&level.sublists, self.threads * RUNS_PER_WORKER);
        let epoch = |excluded: &[usize]| {
            par.pool().run_epoch(
                seed_queues(&runs, self.threads),
                run_job(
                    Arc::clone(self.g),
                    Arc::clone(&self.rows),
                    Arc::clone(&level),
                    excluded.to_vec(),
                ),
                par.config.worker_deadline,
            )
        };
        // A failed epoch's workers (an abandoned one for good) may still
        // hold the level, so handing it out can take a copy.
        let fail = |level: Arc<Level<S>>, error| Stop::Round {
            k,
            error,
            level: Arc::try_unwrap(level).unwrap_or_else(|shared| (*shared).clone()),
        };
        let convict = |i: usize, reason: &str| QuarantineEntry {
            k: k as u64,
            prefix: level.sublists[i].prefix.clone(),
            tails: level.sublists[i].tails.clone(),
            reason: reason.to_string(),
        };
        let mut retried_level = false;
        let mut convicted: Vec<QuarantineEntry> = Vec::new();
        // Sub-lists convicted by a missed deadline, skipped by reruns.
        let mut excluded: Vec<usize> = Vec::new();
        let out = loop {
            let error = match epoch(&excluded) {
                Ok(out) => break out,
                Err(error) => error,
            };
            // Supervision failure: the epoch was frozen and its results
            // discarded. The first one is retried as is on respawned
            // workers.
            if !retried_level {
                retried_level = true;
                continue;
            }
            // Stuck again: every failure must name a sub-list not yet
            // convicted that its worker was wedged in, and the sidecar
            // must be there to take it. Each rerun then convicts at
            // least one more sub-list, so the loop ends.
            let named = error.failures.iter().all(|f| {
                f.deadline
                    && f.task
                        .is_some_and(|i| i < level.sublists.len() && !excluded.contains(&i))
            });
            if !named || par.quarantine.is_none() {
                return Err(fail(level, error));
            }
            for f in &error.failures {
                let i = f.task.expect("checked above");
                convicted.push(convict(i, &f.panic_message));
                excluded.push(i);
            }
        };

        let EpochOut {
            results,
            steal_stats,
            poisoned,
            retried_tasks,
        } = out;
        let mut timing = LevelStats {
            level: k,
            ..Default::default()
        };
        let (mut units, mut and_ops, mut maximality_tests) = (0u64, 0u64, 0u64);
        let mut retried_sublists = retried_tasks;
        // Sub-lists that panicked twice: worker, level index, message.
        let mut panicked: Vec<(usize, usize, String)> = Vec::new();
        let mut outs: Vec<RunOut<S>> = Vec::with_capacity(runs.len());
        for (w, (worker_outs, ss)) in results.into_iter().zip(&steal_stats).enumerate() {
            let (mut worker_units, mut worker_sublists) = (0u64, 0u64);
            for mut run in worker_outs {
                worker_units += run.units;
                worker_sublists += run.sublists;
                and_ops += run.and_ops;
                maximality_tests += run.tests;
                retried_sublists += run.retried;
                panicked.extend(run.convicted.drain(..).map(|(i, msg)| (w, i, msg)));
                outs.push(run);
            }
            units += worker_units;
            timing.per_worker_ns.push(ss.busy_ns);
            timing.per_worker_units.push(worker_units);
            timing.per_worker_tasks.push(worker_sublists as usize);
            timing.per_worker_steals.push(ss.steals);
            timing.per_worker_idle_ns.push(ss.idle_ns);
            timing.failed_steals += ss.failed_steals;
        }
        // Unified moved-work count: a stolen run is a transfer.
        timing.transfers = timing.per_worker_steals.iter().sum::<u64>() as usize;
        // A run whose job panicked outside its per-sub-list retry lost
        // all of its output: each of its sub-lists stands convicted.
        for p in &poisoned {
            let lost = p.task.clone().filter(|i| !excluded.contains(i));
            panicked.extend(lost.map(|i| (p.worker, i, p.panic_message.clone())));
        }
        if !panicked.is_empty() && par.quarantine.is_none() {
            let failures = panicked
                .iter()
                .map(|(worker, _, message)| WorkerFailure {
                    worker: *worker,
                    deadline: false,
                    task: None,
                    panic_message: message.clone(),
                })
                .collect();
            return Err(fail(level, RoundError { failures }));
        }
        convicted.extend(panicked.iter().map(|(_, i, message)| convict(*i, message)));
        if let (Some(path), false) = (&par.quarantine, convicted.is_empty()) {
            crate::quarantine::append_entries(path, &convicted)
                .map_err(|e| Stop::Store(StoreError::Io(e)))?;
        }

        if retried_level {
            self.retried_levels.push(k);
        }
        self.retried_tasks += retried_sublists;
        self.quarantined += convicted.len();
        self.last_retried = retried_level || retried_sublists > 0 || !convicted.is_empty();

        // Level order: concatenating the runs reproduces the sequential
        // enumerator's children and emissions.
        outs.sort_unstable_by_key(|run| run.start);
        let mut next = Level {
            k: k + 1,
            sublists: Vec::with_capacity(outs.iter().map(|run| run.children.len()).sum()),
        };
        let mut maximal_found = 0;
        for run in outs {
            next.sublists.extend(run.children);
            for clique in run.cliques.chunks_exact(k + 1) {
                sink.maximal(clique);
            }
            maximal_found += run.cliques.len() / (k + 1);
        }
        let report = LevelReport {
            k,
            sublists: memory.n_sublists,
            candidates: memory.n_cliques,
            maximal_found,
            ns: *timing.per_worker_ns.iter().max().unwrap_or(&0),
            memory,
            units,
            and_ops,
            maximality_tests,
            spilled: 0,
            bytes_read: 0,
        };
        self.run.levels.push(timing);
        let next_memory = LevelMemory::account(&next, self.g.n());
        Ok((next, next_memory, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bk::base_bk_sorted;
    use crate::sink::CollectSink;
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
    fn runs_tile_the_level_by_cost_shares_and_seed_contiguous_blocks() {
        let g = planted(200, 0.05, &[Module::clique(12)], 7);
        let seq = CliqueEnumerator::new(EnumConfig::default());
        let level = seq.init_level(&g, &mut CollectSink::default(), &mut EnumStats::default());
        let cost = |run: &Range<usize>| level.sublists[run.clone()].iter().map(SubList::cost);
        let share = cost(&(0..level.sublists.len())).sum::<u64>().div_ceil(8);
        let runs = cut_runs(&level.sublists, 8);
        assert!(runs.len() <= 9, "{} runs", runs.len());
        assert_eq!(runs.first().map(|r| r.start), Some(0));
        assert_eq!(runs.last().map(|r| r.end), Some(level.sublists.len()));
        assert!(runs.windows(2).all(|w| w[0].end == w[1].start));
        // Every run but the last closes on the sub-list that brings it
        // to its share.
        for run in &runs[..runs.len() - 1] {
            let held: u64 = cost(run).sum();
            let last = level.sublists[run.end - 1].cost();
            assert!(held >= share && held - last < share, "{run:?}");
        }
        let queues = seed_queues(&runs, 3);
        assert_eq!(queues.len(), 3);
        assert_eq!(queues.concat(), runs, "contiguous blocks in level order");
        // More workers than runs: the spare ones start empty.
        let one = &runs[..1];
        assert_eq!(
            seed_queues(one, 4),
            vec![one.to_vec(), vec![], vec![], vec![]]
        );
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

    /// Run the level loop with steal epochs from `level`; the barrier
    /// degrades once the level reaches `stop_at`.
    fn run_epochs(
        g: &Arc<BitGraph>,
        threads: usize,
        level: Level,
        sink: &mut CollectSink,
        stop_at: usize,
    ) -> Result<(), Stop<gsb_bitset::BitSet>> {
        let par = ParallelEnumerator::new(ParallelConfig {
            threads,
            ..Default::default()
        });
        let mut epochs = Epochs::new(&par, g);
        run_levels(
            level,
            None,
            g.n(),
            sink,
            &mut epochs,
            &mut EnumStats::default(),
            |level, _, _| {
                Ok(if level.k >= stop_at {
                    BarrierControl::Degrade
                } else {
                    BarrierControl::Continue
                })
            },
            |_, _| Ok(()),
        )
    }

    #[test]
    fn epochs_from_snapshot_match_rest_of_run() {
        // Step sequentially to the level-3 barrier, then hand the level
        // to the steal epochs as a resume snapshot.
        let g = planted(34, 0.1, &[Module::clique(8), Module::clique(6)], 9);
        let expect = bk_at_least(&g, 3);

        let seq = CliqueEnumerator::new(EnumConfig::default());
        let mut sink = CollectSink::default();
        let mut init_stats = EnumStats::default();
        let mut level = seq.init_level(&g, &mut sink, &mut init_stats);
        while level.k < 3 && !level.sublists.is_empty() {
            let (next, _) = seq.step(&g, level, &mut sink);
            level = next;
        }
        let done = run_epochs(&Arc::new(g), 3, level, &mut sink, usize::MAX);
        assert!(done.is_ok(), "the run stopped early");
        let mut got = sink.cliques;
        got.sort();
        assert_eq!(got, expect);
    }

    #[test]
    fn barrier_degrade_hands_back_unexpanded_level() {
        let g = Arc::new(planted(30, 0.1, &[Module::clique(8)], 5));
        let seq = CliqueEnumerator::new(EnumConfig::default());
        let mut sink = CollectSink::default();
        let level = seq.init_level(&g, &mut sink, &mut EnumStats::default());
        let Err(Stop::Degrade(level)) = run_epochs(&g, 2, level, &mut sink, 4) else {
            panic!("expected degradation at k=4");
        };
        assert_eq!(level.k, 4);
        assert!(!level.sublists.is_empty());
        // continuing sequentially from the handoff completes the run
        seq.enumerate_from_level(&g, level, &mut sink);
        let mut got = sink.cliques;
        got.sort();
        assert_eq!(got, bk_at_least(&g, 3));
    }
}
