//! Work-stealing task distribution for one steal-scope epoch.
//!
//! The level-synchronous runtime of §2.3 parks every core at a barrier
//! until the heaviest worker of the round finishes; the work-stealing
//! runtime replaces the round with an *epoch*: each worker owns a deque
//! of tasks, pops locally LIFO, and — when its own deque runs dry —
//! steals from the front (FIFO end) of a victim's deque, exactly the
//! owner-LIFO/thief-FIFO discipline of a Chase–Lev deque. The epoch is
//! quiescent when every task has completed; that quiescence point is
//! where the old barrier hooks (checkpoint, memory degradation, halt)
//! re-attach with unchanged semantics.
//!
//! This crate forbids `unsafe`, so the deque is not the lock-free
//! Chase–Lev array: each deque is a `Mutex<VecDeque<T>>` with a relaxed
//! atomic length hint so thieves can scan victims without touching
//! their locks. A k-clique sub-list expands in about a microsecond on
//! the §3 co-expression graph, too little to pay for a lock, a panic
//! frame and two clock reads, so the clique driver's tasks are *runs* of
//! consecutive sub-lists — 32 per worker per level. Against a run an
//! uncontended mutex lock (~20 ns) is noise; what matters is the
//! *schedule*, and the schedule is identical to the lock-free
//! version's.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// One worker's task deque: the owner pushes and pops at the back
/// (LIFO, depth-first, cache-warm), thieves steal from the front (FIFO
/// — the oldest, typically largest task, amortizing the steal).
#[derive(Debug, Default)]
pub struct StealDeque<T> {
    tasks: Mutex<VecDeque<T>>,
    /// Length hint maintained outside the lock so a thief can skip
    /// empty victims without contending on their mutex.
    len: AtomicUsize,
}

impl<T> StealDeque<T> {
    /// An empty deque.
    pub fn new() -> Self {
        StealDeque {
            tasks: Mutex::new(VecDeque::new()),
            len: AtomicUsize::new(0),
        }
    }

    /// A deque seeded with `tasks` (front = first to be stolen, back =
    /// first the owner pops).
    pub fn seeded(tasks: impl IntoIterator<Item = T>) -> Self {
        let q: VecDeque<T> = tasks.into_iter().collect();
        let n = q.len();
        StealDeque {
            tasks: Mutex::new(q),
            len: AtomicUsize::new(n),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<T>> {
        // A worker panicking mid-task never holds this lock (pushes and
        // pops are not reentrant with task execution), so a poisoned
        // mutex still guards a consistent queue.
        self.tasks
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Owner push: appended at the back, popped next by the owner.
    pub fn push(&self, task: T) {
        self.lock().push_back(task);
        self.len.fetch_add(1, Ordering::Release);
    }

    /// Owner pop: LIFO from the back.
    pub fn pop(&self) -> Option<T> {
        let mut q = self.lock();
        let t = q.pop_back();
        if t.is_some() {
            self.len.fetch_sub(1, Ordering::Release);
        }
        t
    }

    /// Thief pop: FIFO from the front.
    pub fn steal(&self) -> Option<T> {
        if self.len.load(Ordering::Acquire) == 0 {
            return None;
        }
        let mut q = self.lock();
        let t = q.pop_front();
        if t.is_some() {
            self.len.fetch_sub(1, Ordering::Release);
        }
        t
    }

    /// Current length (a hint: racy by design).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// Is the deque (apparently) empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Per-worker scheduling counters for one epoch — the raw data behind
/// the "steal balance" section of `gsb report` (the steal-scheduler
/// counterpart of Fig. 8's per-processor spread).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StealStats {
    /// Tasks this worker completed (own + stolen).
    pub tasks: u64,
    /// Tasks acquired from another worker's deque.
    pub steals: u64,
    /// Victim scans that found every deque empty while work was still
    /// in flight elsewhere (each costs one yield).
    pub failed_steals: u64,
    /// Nanoseconds spent executing tasks.
    pub busy_ns: u64,
    /// Nanoseconds spent waiting for stealable work (the quiescence
    /// tail: everyone idles while the last tasks finish).
    pub idle_ns: u64,
}

/// The shared state of one steal-scope epoch: every worker's deque,
/// the count of not-yet-completed tasks (quiescence = zero), and an
/// abort flag that freezes the epoch when supervision declares a
/// worker stuck (live workers drain-stop instead of finishing a round
/// whose result will be discarded).
#[derive(Debug)]
pub struct EpochTasks<T> {
    deques: Vec<StealDeque<T>>,
    remaining: AtomicUsize,
    aborted: AtomicBool,
}

impl<T> EpochTasks<T> {
    /// Build an epoch from one seed queue per worker (queues may be
    /// empty — those workers start by stealing).
    pub fn new(queues: Vec<Vec<T>>) -> Self {
        let remaining = queues.iter().map(Vec::len).sum();
        EpochTasks {
            deques: queues.into_iter().map(StealDeque::seeded).collect(),
            remaining: AtomicUsize::new(remaining),
            aborted: AtomicBool::new(false),
        }
    }

    /// Tasks not yet completed (0 = quiescent).
    pub fn remaining(&self) -> usize {
        self.remaining.load(Ordering::Acquire)
    }

    /// Freeze the epoch: workers stop acquiring tasks and return what
    /// they have. Called by the supervisor on a stuck-worker deadline.
    pub fn abort(&self) {
        self.aborted.store(true, Ordering::Release);
    }

    /// Has the epoch been frozen?
    pub fn is_aborted(&self) -> bool {
        self.aborted.load(Ordering::Acquire)
    }

    /// Mark one task complete (call exactly once per task returned by
    /// [`acquire`](Self::acquire), whether it succeeded or was
    /// convicted).
    pub fn complete(&self) {
        self.remaining.fetch_sub(1, Ordering::AcqRel);
    }

    /// Acquire the next task for `worker`: pop the local deque, else
    /// scan the other deques for a steal, else wait until either a
    /// task appears or the epoch quiesces. Returns `None` only at
    /// quiescence or abort. Steal attempts and wait time are charged
    /// to `stats`.
    pub fn acquire(&self, worker: usize, stats: &mut StealStats) -> Option<T> {
        let mut waited: Option<std::time::Instant> = None;
        let acquired = loop {
            if self.is_aborted() {
                break None;
            }
            if let Some(t) = self.deques.get(worker).and_then(StealDeque::pop) {
                break Some(t);
            }
            if self.remaining() == 0 {
                break None;
            }
            // Scan victims starting just past ourselves so thieves
            // spread out instead of all mobbing deque 0.
            let n = self.deques.len();
            let stolen = (1..n)
                .map(|d| (worker + d) % n)
                .find_map(|v| self.deques[v].steal());
            if let Some(t) = stolen {
                stats.steals += 1;
                break Some(t);
            }
            // Nothing stealable but tasks are still in flight (their
            // owners may yet push children, or we are in the
            // quiescence tail). Count the failed scan, charge the wait.
            stats.failed_steals += 1;
            waited.get_or_insert_with(std::time::Instant::now);
            std::thread::yield_now();
        };
        if let Some(t0) = waited {
            stats.idle_ns += t0.elapsed().as_nanos() as u64;
        }
        acquired
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn owner_is_lifo_thief_is_fifo() {
        let d = StealDeque::seeded([1, 2, 3]);
        assert_eq!(d.len(), 3);
        assert_eq!(d.steal(), Some(1), "thief takes the oldest");
        assert_eq!(d.pop(), Some(3), "owner takes the newest");
        d.push(9);
        assert_eq!(d.pop(), Some(9));
        assert_eq!(d.pop(), Some(2));
        assert_eq!(d.pop(), None);
        assert_eq!(d.steal(), None);
        assert!(d.is_empty());
    }

    #[test]
    fn acquire_drains_own_deque_before_stealing() {
        let epoch = EpochTasks::new(vec![vec![10, 11], vec![20]]);
        let mut s = StealStats::default();
        assert_eq!(epoch.acquire(0, &mut s), Some(11));
        epoch.complete();
        assert_eq!(epoch.acquire(0, &mut s), Some(10));
        epoch.complete();
        assert_eq!(s.steals, 0);
        // own deque dry: steal from worker 1
        assert_eq!(epoch.acquire(0, &mut s), Some(20));
        epoch.complete();
        assert_eq!(s.steals, 1);
        assert_eq!(epoch.remaining(), 0);
        assert_eq!(epoch.acquire(0, &mut s), None);
    }

    #[test]
    fn abort_freezes_acquisition() {
        let epoch = EpochTasks::new(vec![vec![1, 2, 3]]);
        epoch.abort();
        let mut s = StealStats::default();
        assert_eq!(epoch.acquire(0, &mut s), None);
        assert!(epoch.is_aborted());
    }

    #[test]
    fn concurrent_workers_complete_every_task_once() {
        // 4 threads over skewed queues: every task observed exactly once.
        let total = 200usize;
        let queues = vec![(0..total).collect::<Vec<_>>(), vec![], vec![], vec![]];
        let epoch = Arc::new(EpochTasks::new(queues));
        let seen = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for w in 0..4 {
            let epoch = Arc::clone(&epoch);
            let seen = Arc::clone(&seen);
            handles.push(std::thread::spawn(move || {
                let mut stats = StealStats::default();
                while let Some(t) = epoch.acquire(w, &mut stats) {
                    seen.lock().unwrap().push(t);
                    epoch.complete();
                    stats.tasks += 1;
                }
                stats
            }));
        }
        let stats: Vec<StealStats> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let mut seen = Arc::try_unwrap(seen).unwrap().into_inner().unwrap();
        seen.sort_unstable();
        assert_eq!(seen, (0..total).collect::<Vec<_>>());
        assert_eq!(stats.iter().map(|s| s.tasks).sum::<u64>(), total as u64);
        // workers 1..3 started empty: every task they ran was stolen
        for s in &stats[1..] {
            assert_eq!(s.steals, s.tasks);
        }
    }
}
