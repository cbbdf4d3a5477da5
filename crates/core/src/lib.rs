//! # gsb-core — the SC'05 memory-intensive clique framework
//!
//! This crate is the paper's primary contribution, implemented in full:
//!
//! * [`enumerator`] — the sequential **Clique Enumerator** (§2.3):
//!   levelwise maximal-clique enumeration in non-decreasing size order,
//!   sub-lists sharing a (k−1)-prefix + one common-neighbor bitmap, the
//!   one-AND + any-bit maximality test — and the one in-core level loop
//!   every run drives, plus the out-of-core loop;
//! * [`parallel`] — the multithreaded Clique Enumerator: each level a
//!   work-stealing epoch over a persistent worker pool;
//! * [`kose`] — the **Kose RAM** baseline (Table 1's comparator): stores
//!   all k-cliques and decides maximality by subset containment checks;
//! * [`bk`] — **Base BK** and **Improved BK** (§2.2), the classic
//!   Bron–Kerbosch enumerators used as correctness references;
//! * [`rooted`] — pivoted Bron–Kerbosch per root vertex on
//!   neighbourhood-local bit rows, emitting the Clique Enumerator's
//!   canonical order without a global sort: the search behind every
//!   index build and `gsb update`'s per-edit sub-problem;
//! * [`kclique`] — the **k-clique enumerator** (§2.2): all (maximal and
//!   non-maximal) cliques of exactly size k in canonical order, with
//!   degree-(k−1) preprocessing and the size boundary condition — the
//!   seed for runs starting at `init_k`;
//! * [`maxclique`] — exact maximum clique (branch & bound with greedy
//!   coloring bound) for the upper bound of §2.1 (the FPT
//!   vertex-cover route lives in `gsb-fpt`);
//! * [`paraclique`] — paraclique extraction ("cliques, paracliques and
//!   other forms of densely-connected subgraphs", §1);
//! * [`analysis`] — downstream clique analysis: vertex participation
//!   (the paper's "most highly connected vertex" / Lin7c finding),
//!   clique overlap graphs, and paraclique decomposition;
//! * [`memory`] — per-level memory accounting using the paper's own
//!   formula (the data behind Fig. 9);
//! * [`store`] — out-of-core level storage, the configuration the
//!   paper's predecessor ran in (§1): a budgeted [`store::LevelStore`]
//!   with disk spill, so the in-core-vs-out-of-core comparison is
//!   measurable on one kernel; plus the checkpoint codec and the one
//!   durable atomic file write; [`backend`] names the bitmap
//!   representation a run uses;
//! * [`wahclique`] — maximal clique enumeration operating on
//!   WAH-compressed bitmaps end to end (§4's compression direction);
//! * [`pipeline`] — the end-to-end driver: bounds → seed → enumerate,
//!   with checkpoints, a memory budget and telemetry as hooks of the
//!   one level loop.
//!
//! ## Ordering contract
//!
//! Both enumerators emit every maximal clique of size `s` before any of
//! size `s + 1` — the property that lets a genome-scale run be bounded
//! to an interesting size range and its progress tracked (§2).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod backend;
pub mod bk;
pub mod checkpoint;
pub mod enumerator;
pub mod failpoint;
pub mod kclique;
pub mod kose;
pub mod maxclique;
pub mod memory;
pub mod neighborhood;
pub mod order;
pub mod paraclique;
pub mod parallel;
pub mod pipeline;
pub mod quarantine;
pub mod rooted;
pub mod sink;
pub mod store;
pub mod sublist;
pub mod supervise;
pub mod wahclique;

pub use backend::BackendChoice;
pub use checkpoint::{
    latest_checkpoint, CheckpointConfig, CheckpointManager, CheckpointPolicy, CheckpointWrite,
    RunMeta, RunProgress,
};
pub use enumerator::{CliqueEnumerator, EnumConfig, EnumStats, LevelReport};
pub use kose::{kose_ram, kose_ram_with, KoseSearch};
pub use maxclique::{maximum_clique, maximum_clique_size};
pub use neighborhood::{common_neighborhood_cliques, maximal_cliques_induced};
pub use parallel::{ParallelConfig, ParallelEnumerator, ParallelStats};
pub use pipeline::{CliquePipeline, PipelineError, PipelineReport};
pub use quarantine::QuarantineEntry;
pub use sink::{CliqueSink, CollectSink, CountSink, FnSink, HistogramSink, TeeSink, WriterSink};
pub use store::{SpillConfig, StoreError};
pub use sublist::{Level, SubList};
pub use supervise::{RetryPolicy, ShutdownToken};

/// Vertex index type: 32 bits, matching the paper's per-vertex-index
/// cost `c` in the space analysis (§2.3).
pub type Vertex = u32;

/// A clique as a sorted (ascending) vertex list.
pub type Clique = Vec<Vertex>;
