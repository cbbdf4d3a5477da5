//! # gsb-telemetry — the run-observability spine
//!
//! The paper's headline design choice — enumerating maximal cliques in
//! *non-decreasing size order* — exists so that "a run can be bounded
//! and its progress tracked" (§2). This crate is the tracking half: a
//! std-only event layer every other crate reports into, exported
//! three ways (machine-readable JSON lines, a live stderr progress
//! line, and the `gsb report` renderer).
//!
//! * [`recorder`] — [`AtomicRecorder`]: named counters, gauges, and
//!   histograms backed by atomics (lock-free on the hot path once a
//!   handle is held).
//! * [`json`] — a minimal hand-rolled JSON writer/parser (the offline
//!   build environment stubs external crates, and the record schema is
//!   flat enough not to need one).
//! * [`record`] — [`LevelRecord`]: one consistent
//!   snapshot per level barrier, the unit of the JSON-lines run report,
//!   and [`RunSummary`], the final record.
//! * [`runlog`] — [`RunTelemetry`]: the shared
//!   handle a run threads through the pipeline; owns the JSONL writer,
//!   the cumulative counters, and the live progress line with its
//!   level-growth ETA.
//! * [`report`] — parse a run report back (tolerating a truncated last
//!   line — the file of a crashed run) and render the Fig. 8-style
//!   per-level imbalance table.
//! * [`promtext`] — Prometheus text-format exposition
//!   ([`promtext::PromWriter`]) for the serving tier's live `/metrics`
//!   endpoint.
//! * [`trace`] — request-scoped tracing: seeded
//!   [`trace::TraceIdGen`] trace ids and the per-stage
//!   [`trace::SpanRecorder`].
//! * [`access`] — the JSONL access-log schema
//!   ([`access::AccessRecord`]) shared by the server (writer) and
//!   `gsb tail` (reader), plus the size-capped
//!   [`access::RotatingWriter`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod access;
pub mod json;
pub mod promtext;
pub mod record;
pub mod recorder;
pub mod report;
pub mod runlog;
pub mod trace;

pub use access::{AccessRecord, RotatingWriter};
pub use promtext::{PromKind, PromWriter};
pub use record::{LevelRecord, RecordError, RunSummary};
pub use recorder::{percentile, AtomicRecorder, Counter, Gauge, Histogram};
pub use report::{parse_report, render_report, ParsedReport};
pub use runlog::{RunTelemetry, TelemetryConfig};
pub use trace::{SpanRecorder, TraceIdGen};
