//! The run-report schema: one [`LevelRecord`] per level barrier, one
//! [`RunSummary`] at the end.
//!
//! Records serialise to single JSON lines (`{"type":"level",...}` /
//! `{"type":"summary",...}`). Parsing ignores unknown keys so old
//! reports stay readable as the schema grows, mirroring how
//! `checkpoint::RunMeta` treats its key=value file.

use crate::json::{parse, JsonValue, ObjectWriter};

/// One consistent telemetry snapshot taken at a level barrier of the
/// level-synchronous enumeration (the checkpoint cut).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LevelRecord {
    /// Record sequence number within the run (0-based, monotone).
    pub seq: u64,
    /// Clique size this level produced candidates for (paper §2.3).
    pub k: u64,
    /// Sub-lists (shared-prefix groups) in the level that was expanded.
    pub sublists: u64,
    /// Candidate (k+1)-cliques produced by this level's expansion.
    pub candidates: u64,
    /// Maximal cliques emitted at this barrier.
    pub maximal_level: u64,
    /// Cumulative maximal cliques emitted so far, including any
    /// progress restored from a checkpoint on resume.
    pub maximal_total: u64,
    /// Wall time this level took, nanoseconds.
    pub level_ns: u64,
    /// Cumulative wall time since run start (including resumed time).
    pub wall_ns: u64,
    /// Bitmap AND operations performed (one per sub-list × tail vertex).
    pub and_ops: u64,
    /// Any-bit maximality tests performed (one per candidate pair).
    pub maximality_tests: u64,
    /// Per-worker busy nanoseconds for this level (empty = sequential).
    pub busy_ns: Vec<u64>,
    /// Per-worker work units (bitmap words touched) for this level.
    pub units: Vec<u64>,
    /// Per-worker task (sub-list) counts for this level.
    pub tasks: Vec<u64>,
    /// Sub-lists that moved between workers at this level: successful
    /// steals in a live run, balancer transfers in Fig. 8's replay —
    /// the unified moved-work count.
    pub transfers: u64,
    /// Per-worker successful steals this level (empty in a balancer
    /// replay).
    pub steals: Vec<u64>,
    /// Per-worker nanoseconds spent waiting for stealable work (the
    /// epoch quiescence tail; empty in a balancer replay).
    pub idle_ns: Vec<u64>,
    /// Victim scans that found nothing stealable while work was still
    /// in flight.
    pub failed_steals: u64,
    /// Memory-watchdog projection for the next level, bytes.
    pub projected_bytes: u64,
    /// Formula-accounted size of the level (paper §3), bytes.
    pub formula_bytes: u64,
    /// Measured heap size of the level, bytes.
    pub heap_bytes: u64,
    /// Checkpoint write latency at this barrier, ns (0 = no checkpoint).
    pub ckpt_ns: u64,
    /// Checkpoint bytes written at this barrier (0 = no checkpoint).
    pub ckpt_bytes: u64,
    /// Worker panics retried while producing this level.
    pub retries: u64,
    /// Whether the run had degraded to out-of-core mode by this level.
    pub degraded: bool,
}

/// Final record of a run: totals the per-level records roll up to.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunSummary {
    /// Number of level barriers crossed.
    pub levels: u64,
    /// Total maximal cliques emitted.
    pub maximal_total: u64,
    /// Total wall time, nanoseconds.
    pub wall_ns: u64,
    /// Level size at which the run degraded to out-of-core, if any.
    pub degraded_at: Option<u64>,
    /// Checkpoints written.
    pub checkpoints: u64,
    /// Worker panics retried across the run.
    pub retries: u64,
    /// Sub-lists skipped into the quarantine sidecar (degraded-exact
    /// runs; 0 = every sub-list was enumerated).
    pub quarantined: u64,
    /// Transient-I/O retry attempts performed across the run.
    pub io_retries: u64,
    /// Maximum clique size found (0 = none).
    pub max_clique: u64,
}

/// Error turning a JSON line into a record.
#[derive(Clone, Debug, PartialEq)]
pub enum RecordError {
    /// The line is not valid JSON (truncated lines land here).
    Json(String),
    /// The line parsed but is not a known record type.
    UnknownType(String),
    /// The line parsed but a required field is missing or mistyped.
    Schema(&'static str),
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordError::Json(e) => write!(f, "invalid record line: {e}"),
            RecordError::UnknownType(t) => write!(f, "unknown record type {t:?}"),
            RecordError::Schema(field) => write!(f, "record missing field {field:?}"),
        }
    }
}

impl std::error::Error for RecordError {}

/// A line of the run report, as parsed.
#[derive(Clone, Debug, PartialEq)]
pub enum ReportLine {
    /// A per-level record.
    Level(LevelRecord),
    /// The final summary record.
    Summary(RunSummary),
}

impl LevelRecord {
    /// Serialise to one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut w = ObjectWriter::new();
        w.str_field("type", "level")
            .u64_field("seq", self.seq)
            .u64_field("k", self.k)
            .u64_field("sublists", self.sublists)
            .u64_field("candidates", self.candidates)
            .u64_field("maximal_level", self.maximal_level)
            .u64_field("maximal_total", self.maximal_total)
            .u64_field("level_ns", self.level_ns)
            .u64_field("wall_ns", self.wall_ns)
            .u64_field("and_ops", self.and_ops)
            .u64_field("maximality_tests", self.maximality_tests)
            .u64_slice_field("busy_ns", &self.busy_ns)
            .u64_slice_field("units", &self.units)
            .u64_slice_field("tasks", &self.tasks)
            .u64_field("transfers", self.transfers)
            .u64_slice_field("steals", &self.steals)
            .u64_slice_field("idle_ns", &self.idle_ns)
            .u64_field("failed_steals", self.failed_steals)
            .u64_field("projected_bytes", self.projected_bytes)
            .u64_field("formula_bytes", self.formula_bytes)
            .u64_field("heap_bytes", self.heap_bytes)
            .u64_field("ckpt_ns", self.ckpt_ns)
            .u64_field("ckpt_bytes", self.ckpt_bytes)
            .u64_field("retries", self.retries)
            .bool_field("degraded", self.degraded);
        w.finish()
    }

    fn from_value(v: &JsonValue) -> Result<LevelRecord, RecordError> {
        // `k` is the only field whose absence makes a record useless;
        // everything else defaults to zero so the schema can grow.
        let k = v
            .get("k")
            .and_then(JsonValue::as_u64)
            .ok_or(RecordError::Schema("k"))?;
        Ok(LevelRecord {
            seq: v.u64_or_zero("seq"),
            k,
            sublists: v.u64_or_zero("sublists"),
            candidates: v.u64_or_zero("candidates"),
            maximal_level: v.u64_or_zero("maximal_level"),
            maximal_total: v.u64_or_zero("maximal_total"),
            level_ns: v.u64_or_zero("level_ns"),
            wall_ns: v.u64_or_zero("wall_ns"),
            and_ops: v.u64_or_zero("and_ops"),
            maximality_tests: v.u64_or_zero("maximality_tests"),
            busy_ns: v.u64_array("busy_ns"),
            units: v.u64_array("units"),
            tasks: v.u64_array("tasks"),
            transfers: v.u64_or_zero("transfers"),
            steals: v.u64_array("steals"),
            idle_ns: v.u64_array("idle_ns"),
            failed_steals: v.u64_or_zero("failed_steals"),
            projected_bytes: v.u64_or_zero("projected_bytes"),
            formula_bytes: v.u64_or_zero("formula_bytes"),
            heap_bytes: v.u64_or_zero("heap_bytes"),
            ckpt_ns: v.u64_or_zero("ckpt_ns"),
            ckpt_bytes: v.u64_or_zero("ckpt_bytes"),
            retries: v.u64_or_zero("retries"),
            degraded: v
                .get("degraded")
                .and_then(JsonValue::as_bool)
                .unwrap_or(false),
        })
    }
}

impl RunSummary {
    /// Serialise to one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut w = ObjectWriter::new();
        w.str_field("type", "summary")
            .u64_field("levels", self.levels)
            .u64_field("maximal_total", self.maximal_total)
            .u64_field("wall_ns", self.wall_ns);
        if let Some(d) = self.degraded_at {
            w.u64_field("degraded_at", d);
        }
        w.u64_field("checkpoints", self.checkpoints)
            .u64_field("retries", self.retries)
            .u64_field("quarantined", self.quarantined)
            .u64_field("io_retries", self.io_retries)
            .u64_field("max_clique", self.max_clique);
        w.finish()
    }

    fn from_value(v: &JsonValue) -> RunSummary {
        RunSummary {
            levels: v.u64_or_zero("levels"),
            maximal_total: v.u64_or_zero("maximal_total"),
            wall_ns: v.u64_or_zero("wall_ns"),
            degraded_at: v.get("degraded_at").and_then(JsonValue::as_u64),
            checkpoints: v.u64_or_zero("checkpoints"),
            retries: v.u64_or_zero("retries"),
            quarantined: v.u64_or_zero("quarantined"),
            io_retries: v.u64_or_zero("io_retries"),
            max_clique: v.u64_or_zero("max_clique"),
        }
    }
}

/// Parse one line of a run report.
pub fn parse_line(line: &str) -> Result<ReportLine, RecordError> {
    let v = parse(line.trim()).map_err(|e| RecordError::Json(e.to_string()))?;
    match v.get("type").and_then(JsonValue::as_str) {
        Some("level") => LevelRecord::from_value(&v).map(ReportLine::Level),
        Some("summary") => Ok(ReportLine::Summary(RunSummary::from_value(&v))),
        Some(other) => Err(RecordError::UnknownType(other.to_string())),
        None => Err(RecordError::Schema("type")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LevelRecord {
        LevelRecord {
            seq: 2,
            k: 4,
            sublists: 17,
            candidates: 120,
            maximal_level: 3,
            maximal_total: 45,
            level_ns: 1_000_000,
            wall_ns: 5_000_000,
            and_ops: 900,
            maximality_tests: 880,
            busy_ns: vec![400_000, 380_000, 420_000],
            units: vec![100, 90, 110],
            tasks: vec![6, 5, 6],
            transfers: 2,
            steals: vec![0, 2, 1],
            idle_ns: vec![10_000, 0, 5_000],
            failed_steals: 3,
            projected_bytes: 1 << 20,
            formula_bytes: 1 << 19,
            heap_bytes: 1 << 19,
            ckpt_ns: 30_000,
            ckpt_bytes: 4096,
            retries: 0,
            degraded: false,
        }
    }

    #[test]
    fn level_record_round_trips() {
        let rec = sample();
        let line = rec.to_json();
        match parse_line(&line).unwrap() {
            ReportLine::Level(back) => assert_eq!(back, rec),
            other => panic!("expected level, got {other:?}"),
        }
    }

    #[test]
    fn summary_round_trips_with_and_without_degradation() {
        for degraded_at in [None, Some(7)] {
            let s = RunSummary {
                levels: 9,
                maximal_total: 123,
                wall_ns: 42,
                degraded_at,
                checkpoints: 3,
                retries: 1,
                quarantined: 2,
                io_retries: 5,
                max_clique: 11,
            };
            match parse_line(&s.to_json()).unwrap() {
                ReportLine::Summary(back) => assert_eq!(back, s),
                other => panic!("expected summary, got {other:?}"),
            }
        }
    }

    #[test]
    fn unknown_keys_are_ignored() {
        let line = r#"{"type":"level","k":3,"future_field":[1,2,3]}"#;
        match parse_line(line).unwrap() {
            ReportLine::Level(rec) => {
                assert_eq!(rec.k, 3);
                assert_eq!(rec.sublists, 0);
            }
            other => panic!("expected level, got {other:?}"),
        }
    }

    #[test]
    fn truncated_line_is_a_json_error() {
        let full = sample().to_json();
        let cut = &full[..full.len() / 2];
        assert!(matches!(parse_line(cut), Err(RecordError::Json(_))));
    }

    #[test]
    fn missing_type_and_unknown_type_are_rejected() {
        assert_eq!(parse_line(r#"{"k":3}"#), Err(RecordError::Schema("type")));
        assert!(matches!(
            parse_line(r#"{"type":"zebra"}"#),
            Err(RecordError::UnknownType(_))
        ));
    }
}
