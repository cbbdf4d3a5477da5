//! The Clique Enumerator (§2.3), generic over the bitmap
//! representation, and the level loop every in-core run drives.
//!
//! Levelwise maximal-clique enumeration in non-decreasing size order:
//! take the candidate k-clique sub-lists, expand each into (k+1)-clique
//! sub-lists, decide maximality of every generated (k+1)-clique with one
//! bitwise AND plus an any-bit test, keep only candidates, repeat until
//! nothing is generated.
//!
//! One expansion kernel (`expand_sublist`) serves every configuration,
//! over any [`NeighborSet`] (dense or WAH-compressed).
//! `CliqueEnumerator` with no type argument is the dense enumerator.
//!
//! ## One level loop
//!
//! The paper's enumerator is one level-synchronous loop whose cost is
//! memory: at step k it holds the k-clique level while it builds level
//! k+1. In core that loop is written once (`run_levels`): each pass
//! shows the level to a barrier hook, expands it, emits its maximal
//! cliques and records it. The sequential oracle
//! ([`CliqueEnumerator::enumerate`]), the parallel enumerator and every
//! [`CliquePipeline`](crate::CliquePipeline) mode run it; they differ
//! only in their hooks and in how a level is expanded — by the
//! sequential step, which frees each sub-list once it is expanded, or
//! by a work-stealing epoch ([`crate::parallel`]). Out of core,
//! [`CliqueEnumerator::enumerate_spilled_from_level`] runs the same
//! kernel over a budgeted [`LevelStore`].
//!
//! ## Why every maximal clique is found exactly once
//!
//! Order vertices by index. Any clique `{v_1 < … < v_m}` has one
//! *canonical generation path*: it is produced from the sub-list whose
//! prefix is `{v_1, …, v_{m-2}}` by pairing tails `v_{m-1}` and `v_m`.
//! Induction over m shows the path survives the two pruning rules:
//!
//! * *candidates only* — each proper prefix `P_j = {v_1..v_j}` of a
//!   maximal clique `M` is non-maximal (the next vertex of `M` is a
//!   common neighbor), so the generation test `CN(P_j) ≠ ∅` holds and
//!   `P_j` is kept as a tail;
//! * *sub-lists of size > 1 only* — the sub-list holding `P_j` also
//!   holds `{v_1..v_{j-1}, v_{j+1}}` (also a clique, also non-maximal,
//!   tail index above `v_{j-1}`), so it has at least two members.
//!
//! Conversely a clique generated as maximal has an empty common-neighbor
//! bitmap, which *is* maximality; and the canonical path is unique, so
//! there are no duplicates. These properties are cross-checked against
//! Bron–Kerbosch — for both representations — in the test suites.

use crate::memory::LevelMemory;
use crate::sink::CliqueSink;
use crate::store::{LevelStore, SpillConfig, StoreError};
use crate::sublist::{Level, SubList};
use crate::{kclique, Vertex};
use gsb_bitset::{BitSet, NeighborSet};
use gsb_graph::BitGraph;
use gsb_par::RoundError;
use std::fmt;
use std::marker::PhantomData;
use std::time::Instant;

/// Configuration for an enumeration run.
#[derive(Clone, Copy, Debug)]
pub struct EnumConfig {
    /// Smallest maximal-clique size to report (the paper's `Init_K`).
    /// With `min_k > 3` the run is seeded by the k-clique enumerator.
    pub min_k: usize,
    /// Largest clique size to explore; `None` runs to the maximum
    /// clique. Maximal cliques larger than `max_k` are not reported.
    pub max_k: Option<usize>,
    /// Record per-sub-list expansion costs in deterministic work units
    /// (feeds the virtual-processor scaling simulation).
    pub record_costs: bool,
}

impl Default for EnumConfig {
    fn default() -> Self {
        EnumConfig {
            min_k: 3,
            max_k: None,
            record_costs: false,
        }
    }
}

/// Per-level run report.
#[derive(Clone, Debug)]
pub struct LevelReport {
    /// Clique size of the candidates expanded at this level.
    pub k: usize,
    /// Number of sub-lists expanded (`N[k]`).
    pub sublists: usize,
    /// Number of candidate cliques expanded (`M[k]`).
    pub candidates: usize,
    /// Maximal (k+1)-cliques emitted while expanding this level.
    pub maximal_found: usize,
    /// Wall time of the level (ns).
    pub ns: u64,
    /// Memory accounting for this level's candidates. For a spilled
    /// level the heap figure is what the level *would* hold fully
    /// resident; the formula bytes are representation-independent.
    pub memory: LevelMemory,
    /// Deterministic work units spent expanding this level (the
    /// per-sub-list units of [`EnumStats::costs`], summed).
    pub units: u64,
    /// Bitmap AND operations performed (one per prefix extension, one
    /// per surviving pair's maximality probe, one per kept sub-list's
    /// common-neighbor clone).
    pub and_ops: u64,
    /// Any-bit (`BitOneExists`) maximality tests performed — one per
    /// adjacent tail pair, each deciding candidate vs. maximal.
    pub maximality_tests: u64,
    /// Sub-lists of this level that lived on disk rather than in memory
    /// (0 in core).
    pub spilled: usize,
    /// Bytes streamed back from spill files to expand this level.
    pub bytes_read: u64,
}

/// Full run statistics.
#[derive(Clone, Debug, Default)]
pub struct EnumStats {
    /// One report per expanded level, in order.
    pub levels: Vec<LevelReport>,
    /// Total maximal cliques reported (all sizes, including the seeds).
    pub total_maximal: usize,
    /// Wall time of the whole run (ns).
    pub wall_ns: u64,
    /// When configured: per-level, per-sub-list expansion costs in
    /// deterministic work units (word operations + pair iterations).
    /// Convert to nanoseconds with [`EnumStats::ns_per_unit`].
    pub costs: Option<Vec<Vec<u64>>>,
}

impl EnumStats {
    /// Measured nanoseconds per recorded work unit (wall time of the
    /// levels divided by total units), for converting the deterministic
    /// per-sub-list costs into time.
    pub fn ns_per_unit(&self) -> f64 {
        let total_units: u64 = self.costs.iter().flatten().flat_map(|l| l.iter()).sum();
        if total_units == 0 {
            return 0.0;
        }
        let level_ns: u64 = self.levels.iter().map(|l| l.ns).sum();
        level_ns as f64 / total_units as f64
    }

    /// Per-level, per-sub-list costs in nanoseconds (units × ns/unit).
    pub fn costs_ns(&self) -> Option<Vec<Vec<u64>>> {
        let scale = self.ns_per_unit();
        self.costs.as_ref().map(|levels| {
            levels
                .iter()
                .map(|l| l.iter().map(|&u| (u as f64 * scale) as u64).collect())
                .collect()
        })
    }

    /// Peak of the paper's memory formula across adjacent level pairs.
    pub fn peak_formula_bytes(&self) -> usize {
        let singles = self.levels.iter().map(|l| l.memory.formula_bytes);
        let pairs = self
            .levels
            .windows(2)
            .map(|w| w[0].memory.with_next(&w[1].memory));
        singles.chain(pairs).max().unwrap_or(0)
    }

    /// Total bytes streamed back from spill files across all levels
    /// (0 for a purely in-memory run).
    pub fn total_bytes_read(&self) -> u64 {
        self.levels.iter().map(|l| l.bytes_read).sum()
    }
}

/// The Clique Enumerator over the common-neighbor bitmap
/// representation `S` (dense by default):
///
/// ```
/// use gsb_core::{CliqueEnumerator, EnumConfig, CollectSink};
/// use gsb_graph::BitGraph;
/// // K4 plus a pendant triangle
/// let g = BitGraph::from_edges(5, [
///     (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (2, 4),
/// ]);
/// let mut sink = CollectSink::default();
/// CliqueEnumerator::new(EnumConfig { min_k: 3, ..Default::default() })
///     .enumerate(&g, &mut sink);
/// // non-decreasing size order: the triangle before the K4
/// assert_eq!(sink.cliques, vec![vec![2, 3, 4], vec![0, 1, 2, 3]]);
/// ```
///
/// Other representations are constructed with
/// [`with_backend`](Self::with_backend), e.g. a WAH-compressed
/// out-of-core run:
///
/// ```
/// use gsb_core::{CliqueEnumerator, EnumConfig, CollectSink, SpillConfig};
/// use gsb_bitset::WahBitSet;
/// use gsb_graph::BitGraph;
/// let g = BitGraph::complete(5);
/// let mut sink = CollectSink::default();
/// let stats = CliqueEnumerator::<WahBitSet>::with_backend(EnumConfig::default())
///     .enumerate_spilled(&g, &mut sink, &SpillConfig::in_temp(0))
///     .unwrap();
/// assert_eq!(stats.total_maximal, 1);
/// ```
pub struct CliqueEnumerator<S: NeighborSet = BitSet> {
    /// Run configuration.
    pub config: EnumConfig,
    _repr: PhantomData<fn() -> S>,
}

impl<S: NeighborSet> Clone for CliqueEnumerator<S> {
    fn clone(&self) -> Self {
        Self::with_backend(self.config)
    }
}

impl<S: NeighborSet> fmt::Debug for CliqueEnumerator<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CliqueEnumerator")
            .field("config", &self.config)
            .field("repr", &S::KIND_NAME)
            .finish()
    }
}

impl Default for CliqueEnumerator {
    fn default() -> Self {
        CliqueEnumerator::new(EnumConfig::default())
    }
}

impl CliqueEnumerator {
    /// Dense enumerator with the given configuration.
    pub fn new(config: EnumConfig) -> Self {
        Self::with_backend(config)
    }
}

impl<S: NeighborSet> CliqueEnumerator<S> {
    /// Enumerator over the bitmap representation `S`.
    pub fn with_backend(config: EnumConfig) -> Self {
        CliqueEnumerator {
            config,
            _repr: PhantomData,
        }
    }

    /// Enumerate maximal cliques of `g` into `sink`, in non-decreasing
    /// size order.
    pub fn enumerate(&self, g: &BitGraph, sink: &mut impl CliqueSink) -> EnumStats {
        let started = Instant::now();
        let mut stats = EnumStats::default();
        let level = self.init_level(g, sink, &mut stats);
        self.run_in_core(g, level, sink, stats, started)
    }

    /// Resume (or start) from an explicit level — e.g. one restored
    /// from a checkpoint, or produced by
    /// [`seed_level`](crate::kclique::seed_level) — and run to
    /// completion under this configuration's `max_k`.
    pub fn enumerate_from_level(
        &self,
        g: &BitGraph,
        level: Level<S>,
        sink: &mut impl CliqueSink,
    ) -> EnumStats {
        self.run_in_core(g, level, sink, EnumStats::default(), Instant::now())
    }

    /// The level loop with no hooks and the sequential step.
    fn run_in_core(
        &self,
        g: &BitGraph,
        level: Level<S>,
        sink: &mut impl CliqueSink,
        mut stats: EnumStats,
        started: Instant,
    ) -> EnumStats {
        let mut step = Step::new(g, self.config.record_costs);
        let done = run_levels(
            level,
            self.config.max_k,
            g.n(),
            sink,
            &mut step,
            &mut stats,
            |_, _, _| Ok(BarrierControl::Continue),
            |_, _| Ok(()),
        );
        assert!(done.is_ok(), "a hookless sequential run cannot stop");
        stats.costs = step.costs;
        stats.wall_ns = started.elapsed().as_nanos() as u64;
        stats
    }

    /// Enumerate like [`enumerate`](Self::enumerate), but hold each
    /// level in a budgeted spill store: sub-lists beyond
    /// `spill.budget_bytes` of the paper's formula bytes go to disk and
    /// are streamed back for the next level. Output (as a set, and in
    /// non-decreasing size order) is identical to the in-core run.
    pub fn enumerate_spilled(
        &self,
        g: &BitGraph,
        sink: &mut impl CliqueSink,
        spill: &SpillConfig,
    ) -> Result<EnumStats, StoreError> {
        let started = Instant::now();
        let mut seeds = EnumStats::default();
        let level = self.init_level(g, sink, &mut seeds);
        let mut stats = self.enumerate_spilled_from_level(g, level, sink, spill)?;
        stats.total_maximal += seeds.total_maximal;
        stats.wall_ns = started.elapsed().as_nanos() as u64;
        Ok(stats)
    }

    /// The out-of-core loop: continue an enumeration from an
    /// already-built level (a checkpoint, or the level an in-core run
    /// handed over at its memory budget), each level held in a
    /// [`LevelStore`] and drained through the same kernel as in core.
    /// Emits cliques of size `> level.k` only; the caller is
    /// responsible for everything emitted before the handoff.
    pub fn enumerate_spilled_from_level(
        &self,
        g: &BitGraph,
        level: Level<S>,
        sink: &mut impl CliqueSink,
        spill: &SpillConfig,
    ) -> Result<EnumStats, StoreError> {
        let started = Instant::now();
        let n = g.n();
        let rows = neighbor_rows::<S>(g);
        let mut buf = S::empty(n);
        let mut stats = EnumStats {
            costs: self.config.record_costs.then(Vec::new),
            ..Default::default()
        };
        let mut k = level.k;
        let mut memory = LevelMemory::account(&level, n);
        let mut cur = LevelStore::new(spill, n);
        for sl in level.sublists {
            cur.push(sl)?;
        }
        while !cur.is_empty() && self.config.max_k.is_none_or(|mx| k < mx) {
            let level_start = Instant::now();
            let spilled = cur.spilled_len();
            let mut next = LevelStore::new(spill, n);
            let mut next_memory = LevelMemory::default();
            let mut tally = Tally::new(stats.costs.is_some(), memory.n_sublists);
            let mut pushed = Ok(());
            let drained = cur.drain(|sl| {
                if pushed.is_err() {
                    return;
                }
                tally.add(expand_sublist(g, &rows, &sl, &mut buf, sink, |child| {
                    if pushed.is_ok() {
                        next_memory.add(&child, n);
                        pushed = next.push(child);
                    }
                }));
            })?;
            pushed?;
            let mut report = tally.report(k, memory, level_start, &mut stats.costs);
            report.spilled = spilled;
            report.bytes_read = drained.bytes_read;
            stats.total_maximal += report.maximal_found;
            stats.levels.push(report);
            memory = next_memory;
            k += 1;
            cur = next;
        }
        stats.wall_ns = started.elapsed().as_nanos() as u64;
        Ok(stats)
    }

    /// Build the initial level: from the edge list for `min_k <= 3`
    /// ("takes as input a list of all edges (2-cliques) in non-repeating
    /// canonical order"), else seeded by the k-clique enumerator at
    /// `min_k`. Maximal cliques smaller than the first expandable level
    /// are reported here. Public so external drivers (tests, custom
    /// harnesses) can run the level loop by hand with
    /// [`step`](CliqueEnumerator::step).
    pub fn init_level(
        &self,
        g: &BitGraph,
        sink: &mut impl CliqueSink,
        stats: &mut EnumStats,
    ) -> Level<S> {
        let min_k = self.config.min_k.max(1);
        let within_max = |s: usize| self.config.max_k.is_none_or(|mx| s <= mx);
        if min_k > 3 {
            let (level, maximal) = kclique::seed_level(g, min_k);
            if within_max(min_k) {
                for c in &maximal {
                    sink.maximal(c);
                }
                stats.total_maximal += maximal.len();
            }
            return level;
        }
        let n = g.n();
        // Size-1 and size-2 maximal cliques are invisible to the level
        // loop (it generates sizes >= 3); report them here when asked.
        if min_k <= 1 && within_max(1) {
            for v in 0..n {
                if g.degree(v) == 0 {
                    sink.maximal(&[v as Vertex]);
                    stats.total_maximal += 1;
                }
            }
        }
        if min_k <= 2 && within_max(2) {
            for (u, v) in g.edges() {
                if !g.neighbors(u).intersects(g.neighbors(v)) {
                    sink.maximal(&[u as Vertex, v as Vertex]);
                    stats.total_maximal += 1;
                }
            }
        }
        let sublists = (0..n)
            .filter_map(|a| {
                let tails: Vec<Vertex> = g
                    .neighbors(a)
                    .iter_ones()
                    .filter(|&b| b > a)
                    .map(|b| b as Vertex)
                    .collect();
                // A single tail can pair with nothing; "only the first
                // (n-2) vertices are possible to generate 2-clique
                // sub-lists containing more than one clique".
                (tails.len() > 1).then(|| SubList {
                    prefix: vec![a as Vertex],
                    cn: S::from_bitset(g.neighbors(a)),
                    tails,
                })
            })
            .collect();
        Level { k: 2, sublists }
    }

    /// Expand one level into the next (the paper's `GenerateKCliques`
    /// over the whole `L_k`), reporting maximal (k+1)-cliques to the
    /// sink. The level is consumed: each sub-list is freed once it is
    /// expanded. This is the natural checkpoint granularity: persist
    /// the returned level with [`crate::store::write_level`] and resume
    /// with [`Self::enumerate_from_level`].
    pub fn step(
        &self,
        g: &BitGraph,
        level: Level<S>,
        sink: &mut impl CliqueSink,
    ) -> (Level<S>, LevelReport) {
        let memory = LevelMemory::account(&level, g.n());
        let (next, _, report) = Step::new(g, false).expand(level, memory, sink);
        (next, report)
    }
}

/// Verdict of the per-level barrier hook.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum BarrierControl {
    /// Expand this level as usual.
    Continue,
    /// Stop and hand the unexpanded level back (the pipeline continues
    /// it out of core).
    Degrade,
    /// Stop the run entirely (graceful shutdown): the barrier has
    /// already persisted what it needs.
    Halt,
}

/// Why the level loop stopped before it ran out of levels.
pub(crate) enum Stop<S: NeighborSet> {
    /// The barrier demanded degradation. The level is unexpanded, and
    /// every clique of size `<= level.k` was already emitted.
    Degrade(Level<S>),
    /// The barrier demanded a halt.
    Halt,
    /// A steal epoch failed twice, or a sub-list was convicted with no
    /// quarantine sidecar to take it. Nothing of the level was emitted;
    /// `level` is it, unexpanded, so a caller can checkpoint it.
    Round {
        /// The level whose workers failed.
        k: usize,
        /// The worker failures of the failing epoch.
        error: RoundError,
        /// The unexpanded level.
        level: Level<S>,
    },
    /// A hook (checkpoint write, budget probe, telemetry) or the
    /// quarantine sidecar failed.
    Store(StoreError),
}

impl<S: NeighborSet> fmt::Display for Stop<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Stop::Degrade(level) => write!(f, "degraded at level {}", level.k),
            Stop::Halt => write!(f, "halted"),
            Stop::Round { k, error, .. } => write!(f, "level {k} failed after retry: {error}"),
            Stop::Store(e) => write!(f, "barrier failed: {e}"),
        }
    }
}

/// A level expanded by an [`ExpandLevel`]: the next level, in the order
/// of this one, with its memory, and this level's report.
pub(crate) type Expanded<S> = (Level<S>, LevelMemory, LevelReport);

/// How the level loop expands one level into the next.
pub(crate) trait ExpandLevel<S: NeighborSet> {
    /// Expand `level` (accounted as `memory`), emitting its maximal
    /// (k+1)-cliques into `sink` in level order.
    fn expand_level<K: CliqueSink>(
        &mut self,
        level: Level<S>,
        memory: LevelMemory,
        sink: &mut K,
    ) -> Result<Expanded<S>, Stop<S>>;
}

/// The in-core level loop. From `level`, each pass:
///
/// 1. stops when the level is empty or at `max_k`;
/// 2. shows the level and its memory to `barrier`, by reference, which
///    may persist it or stop the loop ([`BarrierControl`]);
/// 3. hands the level, by value, to `expander`, which emits the
///    level's maximal cliques and builds the next level, counting its
///    memory;
/// 4. records the level's report in `stats` and shows it, with the
///    expander, to `observe`.
///
/// No-op hooks cost nothing: the loop itself allocates nothing beyond
/// what the expander does.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_levels<S, K, E>(
    mut level: Level<S>,
    max_k: Option<usize>,
    g_n: usize,
    sink: &mut K,
    expander: &mut E,
    stats: &mut EnumStats,
    mut barrier: impl FnMut(&Level<S>, &LevelMemory, &mut K) -> Result<BarrierControl, StoreError>,
    mut observe: impl FnMut(&LevelReport, &E) -> Result<(), StoreError>,
) -> Result<(), Stop<S>>
where
    S: NeighborSet,
    K: CliqueSink,
    E: ExpandLevel<S>,
{
    let mut memory = LevelMemory::account(&level, g_n);
    while !level.sublists.is_empty() && max_k.is_none_or(|mx| level.k < mx) {
        match barrier(&level, &memory, sink).map_err(Stop::Store)? {
            BarrierControl::Continue => {}
            BarrierControl::Degrade => return Err(Stop::Degrade(level)),
            BarrierControl::Halt => return Err(Stop::Halt),
        }
        let (next, next_memory, report) = expander.expand_level(level, memory, sink)?;
        stats.total_maximal += report.maximal_found;
        observe(&report, expander).map_err(Stop::Store)?;
        stats.levels.push(report);
        (level, memory) = (next, next_memory);
    }
    Ok(())
}

/// The sequential level expander: the per-vertex rows in `S` built once
/// per run, one scratch bitmap, and the per-sub-list costs when asked.
pub(crate) struct Step<'g, S: NeighborSet> {
    g: &'g BitGraph,
    rows: Vec<S>,
    buf: S,
    /// Per-level, per-sub-list costs ([`EnumConfig::record_costs`]).
    pub(crate) costs: Option<Vec<Vec<u64>>>,
}

impl<'g, S: NeighborSet> Step<'g, S> {
    pub(crate) fn new(g: &'g BitGraph, record_costs: bool) -> Self {
        Step {
            g,
            rows: neighbor_rows(g),
            buf: S::empty(g.n()),
            costs: record_costs.then(Vec::new),
        }
    }

    /// Expand `level`, draining it: each sub-list is freed once it is
    /// expanded, so the level and the next are never both whole. The
    /// next level's memory is counted as it is built.
    fn expand(
        &mut self,
        level: Level<S>,
        memory: LevelMemory,
        sink: &mut impl CliqueSink,
    ) -> Expanded<S> {
        let started = Instant::now();
        let k = level.k;
        // The paper's own bound N[k+1] <= M[k] - 2N[k] sizes the output
        // exactly: no mid-level reallocation can then be charged to
        // whichever sub-list happened to trigger it.
        let mut next = Vec::with_capacity(memory.n_cliques.saturating_sub(2 * memory.n_sublists));
        let mut next_memory = LevelMemory::default();
        let mut tally = Tally::new(self.costs.is_some(), memory.n_sublists);
        let n = self.g.n();
        for sl in level.sublists {
            tally.add(expand_sublist(
                self.g,
                &self.rows,
                &sl,
                &mut self.buf,
                sink,
                |child| {
                    next_memory.add(&child, n);
                    next.push(child);
                },
            ));
        }
        next.shrink_to_fit();
        let report = tally.report(k, memory, started, &mut self.costs);
        let next = Level {
            k: k + 1,
            sublists: next,
        };
        (next, next_memory, report)
    }
}

impl<S: NeighborSet> ExpandLevel<S> for Step<'_, S> {
    fn expand_level<K: CliqueSink>(
        &mut self,
        level: Level<S>,
        memory: LevelMemory,
        sink: &mut K,
    ) -> Result<Expanded<S>, Stop<S>> {
        Ok(self.expand(level, memory, sink))
    }
}

/// One level's sums of [`ExpandOut`], and its per-sub-list costs when
/// they are recorded.
struct Tally {
    maximal: usize,
    units: u64,
    and_ops: u64,
    tests: u64,
    costs: Option<Vec<u64>>,
}

impl Tally {
    fn new(record_costs: bool, sublists: usize) -> Self {
        Tally {
            maximal: 0,
            units: 0,
            and_ops: 0,
            tests: 0,
            costs: record_costs.then(|| Vec::with_capacity(sublists)),
        }
    }

    fn add(&mut self, out: ExpandOut) {
        self.maximal += out.maximal;
        self.units += out.units;
        self.and_ops += out.and_ops;
        self.tests += out.tests;
        if let Some(costs) = self.costs.as_mut() {
            costs.push(out.units);
        }
    }

    /// The in-core report of level `k`, its costs appended to the run's.
    fn report(
        self,
        k: usize,
        memory: LevelMemory,
        started: Instant,
        run_costs: &mut Option<Vec<Vec<u64>>>,
    ) -> LevelReport {
        if let (Some(run), Some(level)) = (run_costs.as_mut(), self.costs) {
            run.push(level);
        }
        LevelReport {
            k,
            sublists: memory.n_sublists,
            candidates: memory.n_cliques,
            maximal_found: self.maximal,
            ns: started.elapsed().as_nanos() as u64,
            memory,
            units: self.units,
            and_ops: self.and_ops,
            maximality_tests: self.tests,
            spilled: 0,
            bytes_read: 0,
        }
    }
}

/// Per-vertex neighbor rows in representation `S`, built once per run:
/// the kernel ANDs candidate bitmaps against these instead of the
/// graph's dense rows, so compressed runs stay compressed end to end.
pub(crate) fn neighbor_rows<S: NeighborSet>(g: &BitGraph) -> Vec<S> {
    (0..g.n()).map(|v| S::from_bitset(g.neighbors(v))).collect()
}

/// What [`expand_sublist`] did: emissions plus the operation counts the
/// telemetry layer exports per level.
pub(crate) struct ExpandOut {
    /// Maximal (k+1)-cliques emitted.
    pub maximal: usize,
    /// Deterministic work units (u64-word operations plus pair
    /// iterations — the portable cost measure the scaling simulation
    /// replays). Counted against the dense word width for every
    /// representation, so costs are comparable across backends.
    pub units: u64,
    /// Bitmap AND operations (prefix extensions, maximality probes,
    /// kept common-neighbor clones).
    pub and_ops: u64,
    /// Any-bit maximality tests (one per adjacent tail pair).
    pub tests: u64,
}

/// Expand one k-clique sub-list into (k+1)-clique sub-lists — the
/// paper's `GenerateKCliques` inner loops (Fig. 3), and the *only*
/// expansion kernel in the crate: sequential, parallel, in-memory and
/// spilled runs all route through here. `rows` are the per-vertex
/// neighbor bitmaps in representation `S` (see [`neighbor_rows`]);
/// `buf` is a scratch bitmap reused across calls; every generated
/// sub-list is handed to `out`.
pub(crate) fn expand_sublist<S: NeighborSet>(
    g: &BitGraph,
    rows: &[S],
    sl: &SubList<S>,
    buf: &mut S,
    sink: &mut impl CliqueSink,
    mut out: impl FnMut(SubList<S>),
) -> ExpandOut {
    let mut maximal = 0usize;
    let tails = &sl.tails;
    if tails.len() < 2 {
        return ExpandOut {
            maximal: 0,
            units: 1,
            and_ops: 0,
            tests: 0,
        };
    }
    let words = gsb_bitset::words_for(g.n()) as u64;
    let mut units = 0u64;
    let mut and_ops = 0u64;
    let mut tests = 0u64;
    let mut clique: Vec<Vertex> = Vec::with_capacity(sl.prefix.len() + 2);
    for i in 0..tails.len() - 1 {
        let v = tails[i];
        // CN(prefix ∪ {v}) = CN(prefix) ∧ N(v)
        S::and_into(&sl.cn, &rows[v as usize], buf);
        units += words;
        and_ops += 1;
        let mut new_tails: Vec<Vertex> = Vec::new();
        for &u in &tails[i + 1..] {
            units += 1;
            if !g.has_edge(v as usize, u as usize) {
                continue;
            }
            // CN(prefix ∪ {v, u}) = CN(prefix ∪ {v}) ∧ N(u):
            // any bit set ⇒ candidate, none ⇒ maximal (BitOneExists).
            units += words;
            and_ops += 1;
            tests += 1;
            if buf.intersects(&rows[u as usize]) {
                new_tails.push(u);
            } else {
                clique.clear();
                clique.extend_from_slice(&sl.prefix);
                clique.push(v);
                clique.push(u);
                sink.maximal(&clique);
                maximal += 1;
            }
        }
        if new_tails.len() > 1 {
            let mut prefix = Vec::with_capacity(sl.prefix.len() + 1);
            prefix.extend_from_slice(&sl.prefix);
            prefix.push(v);
            units += words; // CN clone for the kept sub-list
            and_ops += 1;
            out(SubList {
                prefix,
                cn: buf.clone(),
                tails: new_tails,
            });
        }
    }
    ExpandOut {
        maximal,
        units: units.max(1),
        and_ops,
        tests,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bk::base_bk_sorted;
    use crate::sink::CollectSink;
    use gsb_bitset::WahBitSet;
    use gsb_graph::generators::{gnp, planted, Module};

    fn enumerate_sorted(g: &BitGraph, config: EnumConfig) -> Vec<Vec<Vertex>> {
        let mut sink = CollectSink::default();
        CliqueEnumerator::new(config).enumerate(g, &mut sink);
        let mut cliques = sink.cliques;
        cliques.sort();
        cliques
    }

    fn enumerate_sorted_as<S: NeighborSet>(g: &BitGraph, config: EnumConfig) -> Vec<Vec<Vertex>> {
        let mut sink = CollectSink::default();
        CliqueEnumerator::<S>::with_backend(config).enumerate(g, &mut sink);
        let mut cliques = sink.cliques;
        cliques.sort();
        cliques
    }

    fn bk_at_least(g: &BitGraph, min_k: usize) -> Vec<Vec<Vertex>> {
        base_bk_sorted(g)
            .into_iter()
            .filter(|c| c.len() >= min_k)
            .collect()
    }

    #[test]
    fn figure4_worked_example() {
        // The paper's Fig. 4 graph: two maximal 3-cliques, one maximal
        // 4-clique, one maximal 5-clique. Reconstruction: K5 on
        // {0,1,2,3,4}; K4 {0,1,2,5} sharing a triangle; triangles
        // {0,5,6} and {1,5,6}... build instead a graph with exactly that
        // clique profile.
        let mut g = BitGraph::new(8);
        for u in 0..5usize {
            for v in u + 1..5 {
                g.add_edge(u, v);
            }
        }
        for &(u, v) in &[(5, 6), (5, 7), (6, 7), (4, 5), (4, 6), (4, 7)] {
            g.add_edge(u, v); // K4 on {4,5,6,7}
        }
        g.add_edge(0, 5);
        g.add_edge(1, 5); // triangles {0,1,5}? 0-1 edge exists → {0,1,5}
        g.add_edge(2, 6); // triangle {2,6,?}: 2-6, need shared... leave as edge
        let got = enumerate_sorted(
            &g,
            EnumConfig {
                min_k: 3,
                ..Default::default()
            },
        );
        let expect = bk_at_least(&g, 3);
        assert_eq!(got, expect);
        // sanity: the K5, the K4, and the clique bridging them are found
        assert!(got.contains(&vec![0, 1, 2, 3, 4]));
        assert!(got.contains(&vec![4, 5, 6, 7]));
        assert!(got.contains(&vec![0, 1, 4, 5]));
    }

    #[test]
    fn matches_bk_on_random_graphs() {
        for seed in 0..10 {
            let g = gnp(26, 0.4, seed);
            let got = enumerate_sorted(&g, EnumConfig::default());
            assert_eq!(got, bk_at_least(&g, 3), "seed {seed}");
        }
    }

    #[test]
    fn all_representations_agree_with_bk() {
        for seed in 0..5 {
            let g = gnp(24, 0.4, seed);
            let expect = bk_at_least(&g, 3);
            let config = EnumConfig::default();
            assert_eq!(
                enumerate_sorted_as::<BitSet>(&g, config),
                expect,
                "dense seed {seed}"
            );
            assert_eq!(
                enumerate_sorted_as::<WahBitSet>(&g, config),
                expect,
                "wah seed {seed}"
            );
        }
    }

    #[test]
    fn matches_bk_on_dense_overlapping_cliques() {
        for seed in 0..5 {
            let g = planted(
                40,
                0.1,
                &[Module::clique(9), Module::clique(8), Module::clique(7)],
                seed,
            );
            let got = enumerate_sorted(&g, EnumConfig::default());
            assert_eq!(got, bk_at_least(&g, 3), "seed {seed}");
        }
    }

    #[test]
    fn min_k_1_reports_everything() {
        let g = BitGraph::from_edges(5, [(0, 1), (2, 3)]);
        let got = enumerate_sorted(
            &g,
            EnumConfig {
                min_k: 1,
                ..Default::default()
            },
        );
        assert_eq!(got, vec![vec![0, 1], vec![2, 3], vec![4]]);
    }

    #[test]
    fn seeded_matches_full_run_filtered() {
        for seed in [3u64, 17, 99] {
            let g = planted(36, 0.12, &[Module::clique(10), Module::clique(8)], seed);
            let full = bk_at_least(&g, 6);
            let seeded = enumerate_sorted(
                &g,
                EnumConfig {
                    min_k: 6,
                    ..Default::default()
                },
            );
            assert_eq!(seeded, full, "seed {seed}");
        }
    }

    #[test]
    fn max_k_truncates() {
        let g = planted(30, 0.1, &[Module::clique(9)], 5);
        let got = enumerate_sorted(
            &g,
            EnumConfig {
                min_k: 3,
                max_k: Some(5),
                record_costs: false,
            },
        );
        let expect: Vec<Vec<Vertex>> = bk_at_least(&g, 3)
            .into_iter()
            .filter(|c| c.len() <= 5)
            .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn non_decreasing_order() {
        let g = planted(40, 0.1, &[Module::clique(8), Module::clique(6)], 2);
        let mut sink = CollectSink::default();
        CliqueEnumerator::default().enumerate(&g, &mut sink);
        let sizes: Vec<usize> = sink.cliques.iter().map(Vec::len).collect();
        assert!(sizes.windows(2).all(|w| w[0] <= w[1]), "sizes {sizes:?}");
    }

    #[test]
    fn stats_track_levels_and_memory() {
        let g = planted(40, 0.08, &[Module::clique(8)], 8);
        let mut sink = CountSinkShim::default();
        let stats = CliqueEnumerator::new(EnumConfig {
            record_costs: true,
            ..Default::default()
        })
        .enumerate(&g, &mut sink);
        assert_eq!(stats.total_maximal, sink.0.count);
        assert!(!stats.levels.is_empty());
        assert_eq!(stats.levels[0].k, 2);
        assert!(stats.levels.windows(2).all(|w| w[1].k == w[0].k + 1));
        assert!(stats.peak_formula_bytes() > 0);
        assert_eq!(stats.total_bytes_read(), 0);
        let costs = stats.costs.expect("recorded");
        assert_eq!(costs.len(), stats.levels.len());
        for (lvl, c) in stats.levels.iter().zip(&costs) {
            assert_eq!(lvl.sublists, c.len());
        }
    }

    fn spilled(g: &BitGraph, config: EnumConfig, budget: usize) -> (Vec<Vec<Vertex>>, EnumStats) {
        let mut sink = CollectSink::default();
        let stats = CliqueEnumerator::new(config)
            .enumerate_spilled(g, &mut sink, &SpillConfig::in_temp(budget))
            .expect("io ok");
        let mut v = sink.cliques;
        v.sort();
        (v, stats)
    }

    #[test]
    fn spilled_matches_in_core_across_budgets() {
        let g = planted(40, 0.08, &[Module::clique(9), Module::clique(7)], 6);
        let config = EnumConfig::default();
        let expect = enumerate_sorted(&g, config);
        for budget in [0usize, 200, 5_000, usize::MAX] {
            let (got, stats) = spilled(&g, config, budget);
            assert_eq!(got, expect, "budget {budget}");
            if budget == 0 {
                assert!(stats.total_bytes_read() > 0, "nothing spilled at budget 0");
            }
            if budget == usize::MAX {
                assert_eq!(stats.total_bytes_read(), 0);
            }
            assert_eq!(stats.total_maximal, expect.len());
        }
    }

    #[test]
    fn spilled_wah_backend_matches_dense() {
        let g = planted(40, 0.08, &[Module::clique(9), Module::clique(7)], 6);
        let config = EnumConfig::default();
        let expect = enumerate_sorted(&g, config);
        let mut sink = CollectSink::default();
        let stats = CliqueEnumerator::<WahBitSet>::with_backend(config)
            .enumerate_spilled(&g, &mut sink, &SpillConfig::in_temp(0))
            .expect("io ok");
        let mut got = sink.cliques;
        got.sort();
        assert_eq!(got, expect);
        assert!(stats.total_bytes_read() > 0);
    }

    #[test]
    fn spilled_respects_size_window() {
        let g = planted(32, 0.1, &[Module::clique(8)], 3);
        let config = EnumConfig {
            min_k: 4,
            max_k: Some(6),
            record_costs: false,
        };
        let expect = enumerate_sorted(&g, config);
        let (got, _) = spilled(&g, config, 100);
        assert_eq!(got, expect);
        assert!(got.iter().all(|c| (4..=6).contains(&c.len())));
    }

    #[test]
    fn spill_reports_levels() {
        let g = planted(36, 0.08, &[Module::clique(8)], 11);
        let (_, stats) = spilled(&g, EnumConfig::default(), 0);
        assert!(!stats.levels.is_empty());
        for w in stats.levels.windows(2) {
            assert_eq!(w[1].k, w[0].k + 1);
        }
        // with budget 0 every stored sub-list was spilled
        for l in &stats.levels[1..] {
            assert_eq!(l.spilled, l.sublists);
        }
        assert!(stats.wall_ns > 0);
    }

    #[test]
    fn from_level_handoff_matches_full_run() {
        // Run in core up to the level-3 barrier, hand that level to the
        // out-of-core loop, and check the combined output equals one run.
        let g = planted(36, 0.1, &[Module::clique(8), Module::clique(6)], 21);
        let config = EnumConfig::default();
        let expect = enumerate_sorted(&g, config);

        let enumerator = CliqueEnumerator::new(config);
        let mut sink = CollectSink::default();
        let mut enum_stats = EnumStats::default();
        let mut level = enumerator.init_level(&g, &mut sink, &mut enum_stats);
        while level.k < 3 && !level.sublists.is_empty() {
            let (next, _) = enumerator.step(&g, level, &mut sink);
            level = next;
        }
        enumerator
            .enumerate_spilled_from_level(&g, level, &mut sink, &SpillConfig::in_temp(0))
            .expect("io ok");
        let mut got = sink.cliques;
        got.sort();
        assert_eq!(got, expect);
    }

    #[derive(Default)]
    struct CountSinkShim(crate::sink::CountSink);
    impl CliqueSink for CountSinkShim {
        fn maximal(&mut self, c: &[Vertex]) {
            self.0.maximal(c);
        }
    }

    #[test]
    fn empty_and_tiny_graphs() {
        let got = enumerate_sorted(&BitGraph::new(0), EnumConfig::default());
        assert!(got.is_empty());
        let got = enumerate_sorted(
            &BitGraph::new(2),
            EnumConfig {
                min_k: 1,
                ..Default::default()
            },
        );
        assert_eq!(got, vec![vec![0], vec![1]]);
        let got = enumerate_sorted(
            &BitGraph::complete(2),
            EnumConfig {
                min_k: 2,
                ..Default::default()
            },
        );
        assert_eq!(got, vec![vec![0, 1]]);
    }
}
