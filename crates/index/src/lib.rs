//! # gsb-index — the persistent clique index and query service
//!
//! The enumerated cliques are the *input* to downstream biology
//! (co-expression modules, QTL candidates), yet a [`CliqueSink`] run is
//! write-only: without this crate a genome-scale job must be re-run to
//! answer a single "which cliques contain gene v?" question. This crate
//! closes that gap with three layers:
//!
//! * [`writer`] — [`build()`], the one graph → index path, runs
//!   `gsb_core::rooted` into an [`IndexWriter`], the [`CliqueSink`]
//!   writing a sorted clique store of CRC32-framed blocks (length-
//!   prefixed, delta-encoded vertex ids), per-vertex postings lists,
//!   and a size-range directory, all written atomically with the swept-tmp
//!   conventions of `gsb_core::checkpoint`.
//! * [`reader`] — [`CliqueIndex`], the read-only query engine:
//!   `cliques-containing(v)`, `cliques-of-size(k..=m)` counted from the
//!   size runs less their tombstones ([`Matches`]), `max-clique`, and
//!   `overlap(v, w)` by merging two ascending postings lists, behind an
//!   LRU cache of decoded blocks that list answers copy their cliques
//!   from into one flat buffer.
//! * [`format`](mod@format) — the byte layout, encoded and checked in
//!   one place: the writer, [`update()`], the reader and [`scrub()`]
//!   share its block encoder, block read, chain walk and decoders.
//! * [`server`] — `gsb serve`: a std-only threaded TCP/HTTP server
//!   answering JSON queries, with per-endpoint latency histograms from
//!   `gsb_telemetry`, graceful SIGINT/SIGTERM drain via
//!   [`gsb_core::ShutdownToken`], and a per-connection deadline.
//!   [`router`] (`gsb router`) fronts replicated shards of it. Both
//!   run on one crate-private HTTP core (accept, admission queue,
//!   workers, header reader, drain, the HTTP metric families) and
//!   speak one crate-private query API (routes, endpoint list, answer
//!   bodies and the rule that merges shard answers), so a healthy
//!   routed answer is byte-identical to one server's.
//!
//! ## Why the size order matters
//!
//! [`build()`] emits cliques in canonical (size, lex) order, so the
//! sequential clique ids assigned at write time are *already sorted by
//! size*: the size directory is a handful of `(size, first_id, count)`
//! rows and every size-range query is a contiguous id range. The
//! paper's ordering contract becomes the index's file layout.
//!
//! [`CliqueSink`]: gsb_core::CliqueSink

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod api;
pub mod compact;
pub mod format;
mod http;
pub mod reader;
pub mod router;
pub mod scrub;
pub mod server;
pub mod shard;
pub mod snapshot;
pub mod update;
pub mod writer;

pub use api::endpoint_paths;
pub use compact::{compact, CompactOutcome};
pub use format::{DeltaGeneration, IndexDirectory, IndexMeta};
pub use http::Running;
pub use reader::{CliqueIndex, IndexStats, IoStats, Matches};
pub use router::{Router, RouterConfig, RouterReport, ShardSpec, Topology};
pub use scrub::{scrub, ScrubFinding, ScrubReport};
pub use server::{ServeConfig, ServeReport, Server};
pub use shard::{split_index, ShardSummary};
pub use snapshot::read_graph_checked;
pub use update::{update, EditScript, UpdateOutcome};
pub use writer::{build, BuildOptions, IndexWriter, WriteSummary};
