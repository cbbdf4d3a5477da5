//! # gsb-par — the work-stealing parallel runtime
//!
//! The SC'05 Clique Enumerator parallelizes by exploiting that "the
//! generation of (k+1)-cliques from a k-clique sub-list is independent of
//! any other k-clique sub-lists". The paper's runtime shape (§2.3):
//!
//! 1. a **task scheduler** divides all k-clique sub-lists among worker
//!    threads and signals them to start;
//! 2. workers expand their local sub-lists **without communication**;
//! 3. at a per-level barrier the scheduler collects results, makes a
//!    **load-balancing decision** (transfer work from heavy to light
//!    threads when the spread exceeds a threshold derived from the total
//!    load), and starts the next level;
//! 4. on shared memory, "transferring" a task passes an address, not data.
//!
//! This crate keeps steps 1, 2 and 4 and replaces the centralized
//! decision of step 3 with work stealing (Das et al., *Shared-Memory
//! Parallel Maximal Clique Enumeration*):
//!
//! * [`pool::WorkerPool`] — persistent worker threads running one
//!   [`run_epoch`](pool::WorkerPool::run_epoch) per level: a
//!   *steal-scope epoch* (per-worker seed deques, idle workers steal,
//!   the epoch ends at quiescence — where the per-level hooks attach),
//!   with per-task panic conviction and stuck-task detection;
//! * [`steal`] — the std-only Chase–Lev-style deque discipline
//!   (owner-LIFO / thief-FIFO) plus per-worker [`StealStats`] counters;
//! * [`balance`] — the LPT initial partition and the paper's
//!   centralized transfer policy, as pure, testable functions (Fig. 8
//!   replays the policy without threads);
//! * [`stats`] — per-worker/per-level timing records with one unified
//!   moved-work model (Fig. 8's mean ± stddev and the steal-balance
//!   table come straight from these);
//! * [`rows`] — [`packed_upper`], the scoped-thread helper that fills
//!   the packed upper triangle of the all-pairs correlation, Kendall
//!   and alignment stages in place;
//! * [`vsim`] — a deterministic **virtual-processor scheduler simulator**
//!   that replays measured per-task costs onto P ∈ [1, 256] virtual CPUs
//!   with a per-level synchronization cost. This substitutes for the
//!   paper's 256-processor SGI Altix (see DESIGN.md §2): speedup *shape*
//!   is a function of the task-cost distribution and scheduling
//!   discipline, both of which the simulator takes from real
//!   measurements.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod balance;
pub mod pool;
pub mod rows;
pub mod stats;
pub mod steal;
pub mod vsim;

pub use balance::{partition_greedy, rebalance, BalancePolicy};
pub use pool::{EpochOut, Heartbeat, PoisonedTask, RoundError, WorkerFailure, WorkerPool};
pub use rows::packed_upper;
pub use stats::{LevelStats, RunStats};
pub use steal::{EpochTasks, StealDeque, StealStats};
pub use vsim::{SimConfig, SimResult, VirtualScheduler};
