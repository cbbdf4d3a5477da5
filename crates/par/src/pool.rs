//! Persistent worker pool running work-stealing epochs.
//!
//! Workers are long-lived ("multiple threads are forked to perform clique
//! generation simultaneously and independently" — §2.3). Each level is
//! one *steal-scope epoch* ([`WorkerPool::run_epoch`]): every worker
//! starts on its own seed queue, preserving task affinity, and idle
//! workers steal from busy ones until the epoch quiesces.
//!
//! ## Panic containment
//!
//! A panic inside a task is caught on the worker thread and the task is
//! retried inline once; a second panic convicts just that task
//! ([`EpochOut::poisoned`]) while the rest of the epoch continues, so
//! one poisoned task cannot deadlock the epoch or kill a multi-hour
//! run. A job whose tasks hold several items — the clique driver's runs
//! of sub-lists — applies the same rule per item with
//! [`run_with_retry`], so a poisoned sub-list convicts itself, not its
//! run. Dead threads are respawned before the next epoch.
//!
//! ## Stuck-worker detection
//!
//! A panic is loud; a wedged thread is silent. Every task gets a
//! [`Heartbeat`] that is beaten when the task starts (long tasks may
//! beat more often, and a task made of items — a run of sub-lists —
//! names each item as it enters it). If a worker stays inside one task
//! without a beat for the configured deadline, the epoch marks it
//! failed ([`WorkerFailure::deadline`]), names the task or item it was
//! in ([`WorkerFailure::task`]), freezes the epoch, and *abandons* the
//! stuck thread: a fresh worker takes over its slot, and the old thread
//! is detached with its late result, if any, discarded. Workers that
//! are idle between tasks are never stuck.

use crate::steal::{EpochTasks, StealStats};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// `Slot::running` value of a worker between tasks.
const IDLE: usize = usize::MAX;

/// Per-worker progress counters for one epoch. Tasks may call
/// [`beat`](Self::beat) at every unit of progress (cheap: one relaxed
/// atomic increment); the supervisor watches the counters and declares
/// a worker stuck when its count stops moving for the deadline while it
/// runs a task.
#[derive(Clone, Debug)]
pub struct Heartbeat {
    slots: Arc<Vec<Slot>>,
}

/// One worker's heartbeat, alone on its cache line: its worker writes
/// both fields at every task and item start, and slots that shared a
/// line would make the workers' writes contend.
#[derive(Debug)]
#[repr(align(64))]
struct Slot {
    beats: AtomicU64,
    /// What the worker is inside (`IDLE` between tasks): the seed index
    /// of its task, or the item the task last named with
    /// [`Heartbeat::enter`]. Relaxed like the beats: it publishes only
    /// its own value.
    running: AtomicUsize,
}

impl Heartbeat {
    fn new(threads: usize) -> Self {
        let slot = |_| Slot {
            beats: AtomicU64::new(0),
            running: AtomicUsize::new(IDLE),
        };
        Heartbeat {
            slots: Arc::new((0..threads).map(slot).collect()),
        }
    }

    /// Record progress for `worker` (out-of-range indices are ignored).
    pub fn beat(&self, worker: usize) {
        if let Some(s) = self.slots.get(worker) {
            s.beats.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn count(&self, worker: usize) -> u64 {
        self.slots
            .get(worker)
            .map_or(0, |s| s.beats.load(Ordering::Relaxed))
    }

    /// `worker` enters `item`: one beat, and a deadline failure names
    /// `item` until the next `enter` or the end of the task. The pool
    /// enters each task's seed index as the task starts; a task made of
    /// items (say, a run of sub-lists) enters each item in turn.
    pub fn enter(&self, worker: usize, item: usize) {
        self.slots[worker].running.store(item, Ordering::Relaxed);
        self.beat(worker);
    }

    fn finish(&self, worker: usize) {
        self.slots[worker].running.store(IDLE, Ordering::Relaxed);
    }

    fn running(&self, worker: usize) -> Option<usize> {
        Some(self.slots[worker].running.load(Ordering::Relaxed)).filter(|&t| t != IDLE)
    }
}

/// One worker's failure within an epoch.
#[derive(Clone, Debug)]
pub struct WorkerFailure {
    /// Index of the worker whose job failed.
    pub worker: usize,
    /// True when the failure was a missed heartbeat deadline (a stuck
    /// thread, abandoned) rather than a caught panic.
    pub deadline: bool,
    /// For a deadline failure, what the worker was stuck in: the item
    /// its task last named with [`Heartbeat::enter`], else the seed
    /// index of the task — its position in the epoch's seed queues
    /// taken in order, worker 0's queue first.
    pub task: Option<usize>,
    /// The panic payload, stringified (`Box<dyn Any>` payloads that are
    /// not strings become `"<non-string panic payload>"`), or the
    /// deadline report for stuck workers.
    pub panic_message: String,
}

/// An epoch in which at least one worker failed (stuck past its
/// deadline, or its thread died); the levelwise driver also reports a
/// convicted task it cannot quarantine this way. The epoch's outputs
/// are discarded wholesale — partial results never reach the caller,
/// so a retried epoch cannot double-count.
#[derive(Clone, Debug)]
pub struct RoundError {
    /// Every worker that failed this epoch.
    pub failures: Vec<WorkerFailure>,
}

impl fmt::Display for RoundError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} worker(s) failed:", self.failures.len())?;
        for failure in &self.failures {
            write!(f, " [worker {}: {}]", failure.worker, failure.panic_message)?;
        }
        Ok(())
    }
}

impl std::error::Error for RoundError {}

/// A task convicted inside a work-stealing epoch: it panicked on its
/// original execution *and* on the immediate inline retry, so the
/// failure is deterministic for this task, not a transient. The owned
/// task is handed back so the caller can quarantine it (the levelwise
/// driver appends it to the quarantine sidecar) instead of failing the
/// whole epoch.
#[derive(Debug)]
pub struct PoisonedTask<T> {
    /// Worker that executed (and retried) the task.
    pub worker: usize,
    /// The task itself, still owned — per-task jobs run by shared
    /// reference precisely so a panic cannot consume the task.
    pub task: T,
    /// Panic payload of the second (convicting) attempt, stringified.
    pub panic_message: String,
}

/// Everything one work-stealing epoch produced. Per-task panics do not
/// discard the epoch: they are retried inline once and, if
/// deterministic, surfaced in [`poisoned`](Self::poisoned) while every
/// other task's result is kept. Only supervision failures (stuck-worker
/// deadline, worker thread death) fail the epoch as a whole.
#[derive(Debug)]
pub struct EpochOut<T, R> {
    /// Per-worker task results, in completion order. Indexed by worker;
    /// a stolen task's result lands on the thief.
    pub results: Vec<Vec<R>>,
    /// Per-worker scheduling counters (steals, failed steals, busy and
    /// idle time).
    pub steal_stats: Vec<StealStats>,
    /// Tasks that panicked twice and were removed from the epoch.
    pub poisoned: Vec<PoisonedTask<T>>,
    /// Tasks that panicked once and succeeded on the inline retry.
    pub retried_tasks: u64,
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// A fixed set of persistent worker threads, each with its own queue.
pub struct WorkerPool {
    senders: Vec<Sender<Job>>,
    handles: Vec<Option<JoinHandle<()>>>,
}

fn spawn_worker(i: usize) -> (Sender<Job>, JoinHandle<()>) {
    let (tx, rx): (Sender<Job>, Receiver<Job>) = channel();
    let handle = std::thread::Builder::new()
        .name(format!("gsb-worker-{i}"))
        .spawn(move || {
            // Run until the channel closes (pool drop). Jobs are
            // panic-wrapped by run_epoch, so this loop only exits on
            // channel close — but a defensive catch keeps a raw job
            // from killing the thread either way.
            for job in rx.iter() {
                let _ = catch_unwind(AssertUnwindSafe(job));
            }
        })
        .expect("failed to spawn worker thread");
    (tx, handle)
}

impl WorkerPool {
    /// Spawn `threads` workers (at least one).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let mut senders = Vec::with_capacity(threads);
        let mut handles = Vec::with_capacity(threads);
        for i in 0..threads {
            let (tx, handle) = spawn_worker(i);
            senders.push(tx);
            handles.push(Some(handle));
        }
        WorkerPool { senders, handles }
    }

    /// Number of workers.
    pub fn threads(&self) -> usize {
        self.senders.len()
    }

    /// Respawn every terminated worker thread; returns how many were
    /// replaced. Queued jobs on a dead worker's channel are lost (the
    /// epoch that enqueued them has already been reported failed).
    pub fn respawn_dead(&mut self) -> usize {
        let mut respawned = 0;
        for i in 0..self.handles.len() {
            let dead = self.handles[i].as_ref().is_none_or(JoinHandle::is_finished);
            if dead {
                if let Some(old) = self.handles[i].take() {
                    let _ = old.join();
                }
                let (tx, handle) = spawn_worker(i);
                self.senders[i] = tx;
                self.handles[i] = Some(handle);
                respawned += 1;
            }
        }
        respawned
    }

    /// Replace the worker at `i` with a fresh thread. The old thread is
    /// joined if already finished, otherwise detached: dropping its
    /// sender closes its queue, so if it ever un-wedges it exits its
    /// loop; if it never does, it stays parked on its (now unreachable)
    /// job — the price of surviving a genuinely stuck thread.
    fn abandon_worker(&mut self, i: usize) {
        let (tx, handle) = spawn_worker(i);
        self.senders[i] = tx;
        if let Some(old) = self.handles[i].replace(handle) {
            if old.is_finished() {
                let _ = old.join();
            }
            // else: detach by dropping the handle.
        }
    }

    /// Execute one work-stealing epoch: the tasks in `queues` (one seed
    /// queue per worker, queues may be empty) are consumed
    /// owner-LIFO/thief-FIFO until quiescence — every task completed.
    /// `f` runs once per task, by shared reference; the [`Heartbeat`]
    /// is beaten as each task starts, and long tasks may beat more
    /// often.
    ///
    /// Fault containment is per-task: a panicking task is retried
    /// inline once and, when the panic repeats, convicted into
    /// [`EpochOut::poisoned`] (the owned task is handed back for
    /// quarantine) while the rest of the epoch continues. Only
    /// supervision failures — a worker silent inside one task past
    /// `deadline` (the stuck thread is abandoned, the failure names its
    /// task, and the epoch is frozen so live workers drain-stop) or a
    /// dead worker thread — fail the epoch with [`RoundError`],
    /// discarding all of its outputs.
    ///
    /// With a single worker the epoch runs inline on the calling
    /// thread: no deques, no channels, no supervision — the degenerate
    /// path `WorkerPool::new(0)` and `new(1)` share.
    pub fn run_epoch<T, R, F>(
        &mut self,
        queues: Vec<Vec<T>>,
        f: F,
        deadline: Option<Duration>,
    ) -> Result<EpochOut<T, R>, RoundError>
    where
        T: Send + 'static,
        R: Send + 'static,
        F: Fn(usize, &T, &Heartbeat) -> R + Send + Sync + 'static,
    {
        assert_eq!(
            queues.len(),
            self.threads(),
            "one seed queue per worker required"
        );
        if self.threads() == 1 {
            return Ok(run_epoch_inline(queues, &f));
        }
        self.respawn_dead();
        let threads = self.threads();
        // Tag every task with its seed index so a stuck worker can name
        // the task it is wedged in.
        let mut seeds = 0..;
        let queues: Vec<Vec<(T, usize)>> = queues
            .into_iter()
            .map(|q| q.into_iter().zip(&mut seeds).collect())
            .collect();
        let epoch = Arc::new(EpochTasks::new(queues));
        let f = Arc::new(f);
        let hb = Heartbeat::new(threads);
        let poisoned: Arc<Mutex<Vec<PoisonedTask<T>>>> = Arc::new(Mutex::new(Vec::new()));
        type Done<R> = (usize, Result<(Vec<R>, StealStats, u64), String>);
        let (done_tx, done_rx) = sync_channel::<Done<R>>(threads);
        for w in 0..threads {
            let f = Arc::clone(&f);
            let epoch = Arc::clone(&epoch);
            let poisoned = Arc::clone(&poisoned);
            let done = done_tx.clone();
            let hb = hb.clone();
            let job: Job = Box::new(move || {
                let out = catch_unwind(AssertUnwindSafe(|| {
                    worker_epoch_loop(w, &epoch, f.as_ref(), &hb, &poisoned)
                }))
                .map_err(|payload| panic_message(payload.as_ref()));
                // Release `f` before reporting, so that what it owns (a
                // whole level, for the clique driver) is freed by the
                // caller, not by a worker after the next epoch began.
                drop(f);
                let _ = done.send((w, out));
            });
            if let Err(send_err) = self.senders[w].send(job) {
                (send_err.0)();
            }
        }
        drop(done_tx);
        // A stuck worker freezes the whole epoch: its tasks cannot be
        // redistributed safely (it may still be executing one), so live
        // workers drain-stop and the epoch is retried by the caller.
        let slots = supervise_collect(&done_rx, threads, &hb, deadline, || epoch.abort());
        let mut results = Vec::with_capacity(threads);
        let mut steal_stats = Vec::with_capacity(threads);
        let mut retried_tasks = 0u64;
        let mut failures = Vec::new();
        for slot in slots {
            match slot {
                Ok((r, s, retried)) => {
                    results.push(r);
                    steal_stats.push(s);
                    retried_tasks += retried;
                }
                Err(fail) => failures.push(fail),
            }
        }
        if !failures.is_empty() {
            for stuck in failures.iter().filter(|fl| fl.deadline) {
                self.abandon_worker(stuck.worker);
            }
            failures.sort_by_key(|fl| fl.worker);
            return Err(RoundError { failures });
        }
        let poisoned = std::mem::take(
            &mut *poisoned
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        Ok(EpochOut {
            results,
            steal_stats,
            poisoned,
            retried_tasks,
        })
    }
}

/// Run `task` under a panic catch, retrying a panic once inline.
/// Returns the result and whether it took the retry, or the payload of
/// the second (convicting) panic. Jobs whose tasks hold several items
/// use it per item, so a panic convicts one item, not the task.
pub fn run_with_retry<T, R>(task: &T, mut f: impl FnMut(&T) -> R) -> Result<(R, bool), String> {
    match catch_unwind(AssertUnwindSafe(|| f(task))) {
        Ok(r) => Ok((r, false)),
        // First panic: transient or deterministic? The task is still
        // owned (executed by reference), so retry in place — a fresh
        // attempt with no partial state carried over.
        Err(_) => catch_unwind(AssertUnwindSafe(|| f(task)))
            .map(|r| (r, true))
            .map_err(|payload| panic_message(payload.as_ref())),
    }
}

/// One worker's epoch loop: acquire (own deque, then steal), execute
/// by reference under a panic catch, retry a panicking task once
/// inline, convict on the second panic. Every acquired task is marked
/// complete exactly once — success, retry, or conviction — so the
/// quiescence count cannot wedge.
fn worker_epoch_loop<T, R, F>(
    w: usize,
    epoch: &EpochTasks<(T, usize)>,
    f: &F,
    hb: &Heartbeat,
    poisoned: &Mutex<Vec<PoisonedTask<T>>>,
) -> (Vec<R>, StealStats, u64)
where
    F: Fn(usize, &T, &Heartbeat) -> R,
{
    let mut results = Vec::new();
    let mut stats = StealStats::default();
    let mut retried = 0u64;
    while let Some((task, seed)) = epoch.acquire(w, &mut stats) {
        hb.enter(w, seed);
        let t0 = Instant::now();
        match run_with_retry(&task, |t| f(w, t, hb)) {
            Ok((r, was_retried)) => {
                retried += u64::from(was_retried);
                results.push(r);
            }
            Err(panic_message) => poisoned
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push(PoisonedTask {
                    worker: w,
                    task,
                    panic_message,
                }),
        }
        hb.finish(w);
        stats.busy_ns += t0.elapsed().as_nanos() as u64;
        stats.tasks += 1;
        epoch.complete();
    }
    (results, stats, retried)
}

/// The single-worker epoch: no deques, no channels, no threads — tasks
/// run inline on the caller with the same per-task retry/conviction
/// semantics as the concurrent path.
fn run_epoch_inline<T, R, F>(queues: Vec<Vec<T>>, f: &F) -> EpochOut<T, R>
where
    F: Fn(usize, &T, &Heartbeat) -> R,
{
    let hb = Heartbeat::new(1);
    let mut results = Vec::new();
    let mut stats = StealStats::default();
    let mut poisoned = Vec::new();
    let mut retried_tasks = 0u64;
    for task in queues.into_iter().flatten() {
        hb.beat(0);
        let t0 = Instant::now();
        match run_with_retry(&task, |t| f(0, t, &hb)) {
            Ok((r, was_retried)) => {
                retried_tasks += u64::from(was_retried);
                results.push(r);
            }
            Err(panic_message) => poisoned.push(PoisonedTask {
                worker: 0,
                task,
                panic_message,
            }),
        }
        stats.busy_ns += t0.elapsed().as_nanos() as u64;
        stats.tasks += 1;
    }
    EpochOut {
        results: vec![results],
        steal_stats: vec![stats],
        poisoned,
        retried_tasks,
    }
}

/// Wait for every worker's report, watching heartbeats when a deadline
/// is set. A worker silent inside one task for the deadline is declared
/// failed without waiting for it (`on_deadline_failure` fires once per
/// such worker — the epoch uses it to freeze the deque set), and any
/// result it sends later is discarded.
fn supervise_collect<P>(
    done_rx: &Receiver<(usize, Result<P, String>)>,
    threads: usize,
    hb: &Heartbeat,
    deadline: Option<Duration>,
    mut on_deadline_failure: impl FnMut(),
) -> Vec<Result<P, WorkerFailure>> {
    let mut slots: Vec<Option<Result<P, WorkerFailure>>> = (0..threads).map(|_| None).collect();
    let mut reported = 0;
    // Stuck detection state: a worker makes progress when its beat
    // count changes between polls, and an idle worker (between tasks,
    // waiting to steal) is always making progress. u64::MAX forces the
    // first poll to record a baseline, so the clock starts at
    // observation, not at dispatch.
    let mut last_beats: Vec<u64> = vec![u64::MAX; threads];
    let mut last_progress: Vec<Instant> = vec![Instant::now(); threads];
    let poll = deadline.map(|d| (d / 4).max(Duration::from_millis(5)));
    while reported < threads {
        let received = match poll {
            None => done_rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
            Some(p) => done_rx.recv_timeout(p),
        };
        match received {
            Ok((i, out)) => {
                if slots[i].is_none() {
                    slots[i] = Some(out.map_err(|panic_message| WorkerFailure {
                        worker: i,
                        deadline: false,
                        task: None,
                        panic_message,
                    }));
                    reported += 1;
                }
                // else: a late result from a worker already declared
                // stuck — discarded; its replacement owns the slot.
            }
            Err(RecvTimeoutError::Timeout) => {
                let d = deadline.expect("timeout implies a deadline");
                let now = Instant::now();
                for i in 0..threads {
                    if slots[i].is_some() {
                        continue;
                    }
                    let beats = hb.count(i);
                    let task = hb.running(i);
                    if beats != last_beats[i] || task.is_none() {
                        last_beats[i] = beats;
                        last_progress[i] = now;
                    } else if now.duration_since(last_progress[i]) >= d {
                        slots[i] = Some(Err(WorkerFailure {
                            worker: i,
                            deadline: true,
                            task,
                            panic_message: format!(
                                "no heartbeat for {:.1}s (deadline {:.1}s)",
                                now.duration_since(last_progress[i]).as_secs_f64(),
                                d.as_secs_f64()
                            ),
                        }));
                        reported += 1;
                        on_deadline_failure();
                    }
                }
            }
            // All senders dropped before every worker reported:
            // thread death outside the job's catch. Mark the
            // missing slots failed rather than blocking forever.
            Err(RecvTimeoutError::Disconnected) => {
                for (i, slot) in slots.iter_mut().enumerate() {
                    if slot.is_none() {
                        *slot = Some(Err(WorkerFailure {
                            worker: i,
                            deadline: false,
                            task: None,
                            panic_message: "worker thread died mid-epoch".to_string(),
                        }));
                        reported += 1;
                    }
                }
            }
        }
    }
    slots
        .into_iter()
        .map(|s| s.expect("every slot reported"))
        .collect()
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.senders.clear(); // close channels; workers drain and exit
        for h in self.handles.drain(..).flatten() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Values of an epoch's results, sorted (stolen results land on
    /// the thief, so per-worker order is schedule-dependent).
    fn sorted<R: Ord + Copy>(out: &EpochOut<impl Sized, R>) -> Vec<R> {
        let mut all: Vec<R> = out.results.iter().flatten().copied().collect();
        all.sort_unstable();
        all
    }

    #[test]
    fn workers_run_concurrently() {
        // All 4 workers must be in-flight at once for the rendezvous
        // counter to reach 4. No task can be stolen before that: a
        // worker only steals once its own single task has completed.
        let mut pool = WorkerPool::new(4);
        let counter = Arc::new(AtomicUsize::new(0));
        let out = pool
            .run_epoch(
                vec![vec![()]; 4],
                {
                    let counter = Arc::clone(&counter);
                    move |_, (), _hb: &Heartbeat| {
                        counter.fetch_add(1, Ordering::SeqCst);
                        let deadline = Instant::now() + Duration::from_secs(2);
                        while counter.load(Ordering::SeqCst) < 4 {
                            if Instant::now() > deadline {
                                return false;
                            }
                            std::hint::spin_loop();
                        }
                        true
                    }
                },
                None,
            )
            .expect("healthy epoch");
        assert_eq!(sorted(&out), vec![true; 4], "workers did not overlap");
    }

    #[test]
    fn timings_reported() {
        let mut pool = WorkerPool::new(2);
        let out = pool
            .run_epoch(
                vec![vec![()], vec![()]],
                |_, (), _hb: &Heartbeat| std::thread::sleep(Duration::from_millis(5)),
                None,
            )
            .expect("healthy epoch");
        let busy: u64 = out.steal_stats.iter().map(|s| s.busy_ns).sum();
        assert!(busy >= 8_000_000, "busy time {busy}ns too small");
        assert_eq!(out.steal_stats.iter().map(|s| s.tasks).sum::<u64>(), 2);
    }

    #[test]
    fn respawn_dead_is_noop_on_healthy_pool() {
        let mut pool = WorkerPool::new(3);
        assert_eq!(pool.respawn_dead(), 0);
    }

    #[test]
    fn heartbeats_keep_a_slow_worker_alive() {
        // Total runtime (320ms) far exceeds the deadline (100ms), but
        // the task beats every 20ms, so it must NOT be declared stuck —
        // and the second worker, idle with nothing to steal, is not
        // stuck either.
        let mut pool = WorkerPool::new(2);
        let out = pool
            .run_epoch(
                vec![vec![()], vec![]],
                |w, (), hb: &Heartbeat| {
                    for _ in 0..16 {
                        std::thread::sleep(Duration::from_millis(20));
                        hb.beat(w);
                    }
                    42u64
                },
                Some(Duration::from_millis(100)),
            )
            .expect("beating worker must survive");
        assert_eq!(sorted(&out), vec![42]);
    }

    #[test]
    fn epoch_zero_threads_clamped_to_one_runs_inline() {
        // new(0) is one worker, and a one-worker epoch executes inline
        // with no deques.
        let mut pool = WorkerPool::new(0);
        assert_eq!(pool.threads(), 1);
        let out = pool
            .run_epoch(vec![vec![7, 8]], |_, x: &i32, _hb| x * 2, None)
            .expect("inline epoch");
        assert_eq!(out.results, vec![vec![14, 16]]);
        assert_eq!(out.steal_stats.len(), 1);
        assert_eq!(out.steal_stats[0].tasks, 2);
        assert_eq!(out.steal_stats[0].steals, 0);
        assert!(out.poisoned.is_empty());
    }

    #[test]
    fn epoch_single_thread_convicts_poison_inline() {
        // The inline path has the same per-task conviction semantics as
        // the concurrent one.
        let mut pool = WorkerPool::new(1);
        let out = pool
            .run_epoch(
                vec![vec![1u64, 13, 2]],
                |_, &x, _hb: &Heartbeat| {
                    if x == 13 {
                        panic!("unlucky {x}");
                    }
                    x * 10
                },
                None,
            )
            .expect("poison must not fail the epoch");
        assert_eq!(out.results, vec![vec![10, 20]]);
        assert_eq!(out.poisoned.len(), 1);
        assert_eq!(out.poisoned[0].task, 13);
        assert_eq!(out.poisoned[0].worker, 0);
        assert_eq!(out.retried_tasks, 0);
    }

    #[test]
    #[should_panic(expected = "one seed queue per worker")]
    fn epoch_queue_count_must_match() {
        let mut pool = WorkerPool::new(2);
        let _ = pool.run_epoch(vec![vec![1]], |_, x: &i32, _hb| *x, None);
    }

    #[test]
    fn epoch_steals_balance_a_skewed_seed() {
        // All 64 tasks seeded on worker 0; with 4 workers the others
        // must steal. Every task completes exactly once.
        let mut pool = WorkerPool::new(4);
        let queues = vec![(0..64u64).collect::<Vec<_>>(), vec![], vec![], vec![]];
        let out = pool
            .run_epoch(
                queues,
                |_, &x, _hb: &Heartbeat| {
                    // enough work per task that thieves get a chance
                    std::thread::sleep(Duration::from_micros(200));
                    x
                },
                None,
            )
            .expect("healthy epoch");
        assert_eq!(sorted(&out), (0..64).collect::<Vec<_>>());
        let steals: u64 = out.steal_stats.iter().map(|s| s.steals).sum();
        assert!(steals > 0, "no worker ever stole from the skewed seed");
        assert_eq!(
            out.steal_stats.iter().map(|s| s.tasks).sum::<u64>(),
            64,
            "task count mismatch"
        );
    }

    #[test]
    fn epoch_transient_panic_is_retried_inline() {
        let mut pool = WorkerPool::new(2);
        let tripped = Arc::new(AtomicUsize::new(0));
        let out = pool
            .run_epoch(
                vec![vec![1u64, 2], vec![3, 4]],
                {
                    let tripped = Arc::clone(&tripped);
                    move |_, &x, _hb: &Heartbeat| {
                        // task 3 panics exactly once, succeeds on retry
                        if x == 3 && tripped.fetch_add(1, Ordering::SeqCst) == 0 {
                            panic!("transient");
                        }
                        x * 10
                    }
                },
                None,
            )
            .expect("transient panic must be absorbed");
        assert_eq!(sorted(&out), vec![10, 20, 30, 40]);
        assert_eq!(out.retried_tasks, 1);
        assert!(out.poisoned.is_empty());
    }

    #[test]
    fn epoch_deterministic_panic_convicts_the_task_only() {
        let mut pool = WorkerPool::new(3);
        let out = pool
            .run_epoch(
                vec![vec![1u64, 2], vec![13], vec![4]],
                |_, &x, _hb: &Heartbeat| {
                    if x == 13 {
                        panic!("poison sub-list {x}");
                    }
                    x * 10
                },
                None,
            )
            .expect("per-task conviction must not fail the epoch");
        assert_eq!(sorted(&out), vec![10, 20, 40], "healthy tasks survive");
        assert_eq!(out.poisoned.len(), 1);
        assert_eq!(out.poisoned[0].task, 13);
        assert!(out.poisoned[0].panic_message.contains("poison sub-list"));
    }

    #[test]
    fn epoch_stuck_worker_fails_the_epoch_and_is_abandoned() {
        let mut pool = WorkerPool::new(2);
        let release = Arc::new(AtomicUsize::new(0));
        let t0 = Instant::now();
        let err = pool
            .run_epoch(
                vec![vec![false], vec![true]],
                {
                    let release = Arc::clone(&release);
                    move |_, &stall, _hb: &Heartbeat| {
                        if stall {
                            let deadline = Instant::now() + Duration::from_secs(30);
                            while release.load(Ordering::SeqCst) == 0 && Instant::now() < deadline {
                                std::thread::sleep(Duration::from_millis(10));
                            }
                        }
                        7u64
                    }
                },
                Some(Duration::from_millis(200)),
            )
            .unwrap_err();
        assert!(t0.elapsed() < Duration::from_secs(10), "waited for stall");
        // Only the stalled worker failed (the other went idle, which is
        // not stuck), and the failure names the stalled task: seed
        // index 1, the first task of worker 1's queue.
        assert_eq!(err.failures.len(), 1, "{err}");
        let failure = &err.failures[0];
        assert!(failure.deadline);
        assert_eq!(failure.task, Some(1), "the failure must name the stall");
        assert!(
            failure.panic_message.contains("no heartbeat"),
            "message: {}",
            failure.panic_message
        );
        // The abandoned worker was replaced: the next epoch is healthy.
        let out = pool
            .run_epoch(
                vec![vec![1u64], vec![2]],
                |_, &x, _hb: &Heartbeat| x + 1,
                None,
            )
            .expect("replacement worker serves the next epoch");
        assert_eq!(sorted(&out), vec![2, 3]);
        release.store(1, Ordering::SeqCst);
    }

    #[test]
    fn stuck_failure_names_the_item_entered_last() {
        // A task made of items enters each on the heartbeat: the
        // failure names the item the worker stalled in, not its task.
        let mut pool = WorkerPool::new(2);
        let release = Arc::new(AtomicUsize::new(0));
        let err = pool
            .run_epoch(
                vec![vec![()], vec![]],
                {
                    let release = Arc::clone(&release);
                    move |w, (), hb: &Heartbeat| {
                        for item in [40, 41, 42] {
                            hb.enter(w, item);
                            let deadline = Instant::now() + Duration::from_secs(30);
                            while item == 41
                                && release.load(Ordering::SeqCst) == 0
                                && Instant::now() < deadline
                            {
                                std::thread::sleep(Duration::from_millis(10));
                            }
                        }
                    }
                },
                Some(Duration::from_millis(200)),
            )
            .unwrap_err();
        assert_eq!(err.failures.len(), 1, "{err}");
        assert_eq!(err.failures[0].task, Some(41));
        release.store(1, Ordering::SeqCst);
    }
}
