//! [`RunTelemetry`]: the handle one enumeration run threads through
//! the pipeline.
//!
//! It owns the JSON-lines writer (flushed once per level barrier —
//! the checkpoint cut is the natural flush point), the cumulative
//! counters, and the optional live stderr progress line with its
//! level-growth ETA. The handle is shared behind an `Arc` and safe to
//! poke from barrier code; the per-worker hot loops never touch it —
//! they report through plain integers aggregated at the barrier.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::record::{LevelRecord, RunSummary};
use crate::recorder::AtomicRecorder;

/// Where a run's telemetry goes.
#[derive(Clone, Debug, Default)]
pub struct TelemetryConfig {
    /// Write one JSON record per level barrier to this file.
    pub metrics_out: Option<PathBuf>,
    /// Emit a live progress line on stderr at each barrier.
    pub progress: bool,
}

impl TelemetryConfig {
    /// True when neither export is requested.
    pub fn is_off(&self) -> bool {
        self.metrics_out.is_none() && !self.progress
    }
}

struct Eta {
    prev_candidates: u64,
    prev_level_ns: u64,
}

/// Per-run telemetry state. Create once, share via `Arc`, feed a
/// [`LevelRecord`] skeleton at every barrier with
/// [`on_level`](RunTelemetry::on_level), close with
/// [`finish`](RunTelemetry::finish).
pub struct RunTelemetry {
    config: TelemetryConfig,
    recorder: AtomicRecorder,
    writer: Mutex<Option<BufWriter<File>>>,
    eta: Mutex<Eta>,
    start: Instant,
    seq: AtomicU64,
    /// Cumulative maximal cliques, seeded by [`seed_prior`](Self::seed_prior) on resume.
    maximal_total: AtomicU64,
    /// Wall nanoseconds accumulated before this process started (resume).
    prior_wall_ns: AtomicU64,
    levels_done: AtomicU64,
    checkpoints: AtomicU64,
    retries_total: AtomicU64,
    quarantined_total: AtomicU64,
    io_retries_total: AtomicU64,
    /// Checkpoint latency/bytes parked by the barrier for the next record.
    pending_ckpt_ns: AtomicU64,
    pending_ckpt_bytes: AtomicU64,
}

impl std::fmt::Debug for RunTelemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunTelemetry")
            .field("config", &self.config)
            .field("levels_done", &self.levels_done.load(Ordering::Relaxed))
            .field("maximal_total", &self.maximal_total.load(Ordering::Relaxed))
            .finish()
    }
}

impl RunTelemetry {
    /// Open the metrics file (if configured) and start the run clock.
    pub fn new(config: TelemetryConfig) -> io::Result<RunTelemetry> {
        let writer = match &config.metrics_out {
            Some(path) => Some(BufWriter::new(File::create(path)?)),
            None => None,
        };
        Ok(RunTelemetry {
            config,
            recorder: AtomicRecorder::new(),
            writer: Mutex::new(writer),
            eta: Mutex::new(Eta {
                prev_candidates: 0,
                prev_level_ns: 0,
            }),
            start: Instant::now(),
            seq: AtomicU64::new(0),
            maximal_total: AtomicU64::new(0),
            prior_wall_ns: AtomicU64::new(0),
            levels_done: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            retries_total: AtomicU64::new(0),
            quarantined_total: AtomicU64::new(0),
            io_retries_total: AtomicU64::new(0),
            pending_ckpt_ns: AtomicU64::new(0),
            pending_ckpt_bytes: AtomicU64::new(0),
        })
    }

    /// The named-instrument registry for ad-hoc counters outside the
    /// per-level schema (spill events, watchdog trips, …).
    pub fn recorder(&self) -> &AtomicRecorder {
        &self.recorder
    }

    /// Restore cumulative counters from checkpoint metadata so a
    /// resumed run reports totals, not deltas.
    pub fn seed_prior(&self, cliques_emitted: u64, levels_done: u64, wall_ns: u64) {
        self.maximal_total.store(cliques_emitted, Ordering::Relaxed);
        self.levels_done.store(levels_done, Ordering::Relaxed);
        self.prior_wall_ns.store(wall_ns, Ordering::Relaxed);
    }

    /// Count freshly emitted maximal cliques. The run's sink wrapper
    /// calls this for every emission — seeds, level expansions, and the
    /// degraded out-of-core tail alike — so the cumulative total is
    /// exact no matter which path produced a clique.
    pub fn add_cliques(&self, n: u64) {
        self.maximal_total.fetch_add(n, Ordering::Relaxed);
    }

    /// Cumulative maximal cliques emitted (including resumed progress).
    pub fn cliques_emitted(&self) -> u64 {
        self.maximal_total.load(Ordering::Relaxed)
    }

    /// Level barriers crossed (including resumed progress).
    pub fn levels_completed(&self) -> u64 {
        self.levels_done.load(Ordering::Relaxed)
    }

    /// Wall nanoseconds so far (including resumed time).
    pub fn wall_ns(&self) -> u64 {
        self.prior_wall_ns.load(Ordering::Relaxed) + self.start.elapsed().as_nanos() as u64
    }

    /// Park a checkpoint write's cost; the next [`on_level`](Self::on_level)
    /// folds it into that barrier's record.
    pub fn note_checkpoint(&self, ns: u64, bytes: u64) {
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
        self.pending_ckpt_ns.store(ns, Ordering::Relaxed);
        self.pending_ckpt_bytes.store(bytes, Ordering::Relaxed);
        self.recorder.observe("checkpoint_write_ns", ns);
        self.recorder.add("checkpoint_bytes", bytes);
    }

    /// Record a worker panic that was retried.
    pub fn note_retry(&self) {
        self.retries_total.fetch_add(1, Ordering::Relaxed);
        self.recorder.add("worker_retries", 1);
    }

    /// Record a spill-to-disk event of `bytes`.
    pub fn note_spill(&self, bytes: u64) {
        self.recorder.add("spill_events", 1);
        self.recorder.add("spill_bytes", bytes);
    }

    /// Record sub-lists skipped into the quarantine sidecar
    /// (degraded-exact mode: the output is missing exactly their
    /// descendants, and the sidecar says which).
    pub fn note_quarantine(&self, n: u64) {
        self.quarantined_total.fetch_add(n, Ordering::Relaxed);
        self.recorder.add("quarantined_sublists", n);
    }

    /// Record transient-I/O retry attempts performed during the run.
    pub fn note_io_retries(&self, n: u64) {
        self.io_retries_total.fetch_add(n, Ordering::Relaxed);
        self.recorder.add("io_retries", n);
    }

    /// Take a level barrier: completes `record`'s cumulative fields,
    /// writes the JSON line (flushed — the barrier is the durability
    /// cut), and repaints the progress line. The caller fills the
    /// per-level fields (`k`, `sublists`, `candidates`,
    /// `maximal_level`, `level_ns`, per-worker vectors, memory,
    /// `transfers`, `retries`, `degraded`) and has already counted the
    /// level's emissions via [`add_cliques`](Self::add_cliques); `seq`,
    /// totals, `wall_ns`, and pending checkpoint costs are filled here.
    pub fn on_level(&self, mut record: LevelRecord) -> io::Result<LevelRecord> {
        record.seq = self.seq.fetch_add(1, Ordering::Relaxed);
        record.maximal_total = self.maximal_total.load(Ordering::Relaxed);
        self.levels_done.fetch_add(1, Ordering::Relaxed);
        record.wall_ns = self.wall_ns();
        record.ckpt_ns = self.pending_ckpt_ns.swap(0, Ordering::Relaxed);
        record.ckpt_bytes = self.pending_ckpt_bytes.swap(0, Ordering::Relaxed);
        self.retries_total
            .fetch_add(record.retries, Ordering::Relaxed);

        self.recorder.add("sublists", record.sublists);
        self.recorder.add("candidates", record.candidates);
        self.recorder.add("and_ops", record.and_ops);
        self.recorder
            .add("maximality_tests", record.maximality_tests);
        self.recorder.observe("level_ns", record.level_ns);

        if let Some(w) = self.writer.lock().unwrap().as_mut() {
            w.write_all(record.to_json().as_bytes())?;
            w.write_all(b"\n")?;
            w.flush()?;
        }
        if self.config.progress {
            let eta = self.eta_text(&record);
            eprintln!(
                "[gsb] level k={} sublists={} candidates={} cliques={} elapsed={:.1}s eta~{}",
                record.k,
                record.sublists,
                record.candidates,
                record.maximal_total,
                record.wall_ns as f64 / 1e9,
                eta,
            );
        }
        Ok(record)
    }

    /// ETA from the level-growth trend: if candidate counts are
    /// decaying by ratio r per level, remaining work is roughly the
    /// geometric tail `level_ns * r / (1 - r)`. When the level is
    /// still growing (r >= 1) the trend gives no bound.
    fn eta_text(&self, record: &LevelRecord) -> String {
        let mut eta = self.eta.lock().unwrap();
        let text = if eta.prev_candidates > 0 && record.candidates > 0 && eta.prev_level_ns > 0 {
            let r = record.candidates as f64 / eta.prev_candidates as f64;
            if r < 1.0 {
                let remaining_ns = record.level_ns.max(eta.prev_level_ns) as f64 * r / (1.0 - r);
                format!("{:.1}s", remaining_ns / 1e9)
            } else {
                "?".to_string()
            }
        } else if record.candidates == 0 {
            "0s".to_string()
        } else {
            "?".to_string()
        };
        eta.prev_candidates = record.candidates;
        eta.prev_level_ns = record.level_ns;
        text
    }

    /// Write the summary record (filling cumulative fields from run
    /// state) and flush/close the metrics file.
    pub fn finish(&self, mut summary: RunSummary) -> io::Result<RunSummary> {
        summary.levels = self.levels_done.load(Ordering::Relaxed);
        summary.maximal_total = self.maximal_total.load(Ordering::Relaxed);
        summary.wall_ns = self.wall_ns();
        summary.checkpoints = self.checkpoints.load(Ordering::Relaxed);
        summary.retries = self.retries_total.load(Ordering::Relaxed);
        summary.quarantined = self.quarantined_total.load(Ordering::Relaxed);
        summary.io_retries = self.io_retries_total.load(Ordering::Relaxed);
        let mut guard = self.writer.lock().unwrap();
        if let Some(w) = guard.as_mut() {
            w.write_all(summary.to_json().as_bytes())?;
            w.write_all(b"\n")?;
            w.flush()?;
        }
        *guard = None;
        if self.config.progress {
            eprintln!(
                "[gsb] done: {} maximal cliques over {} levels in {:.1}s",
                summary.maximal_total,
                summary.levels,
                summary.wall_ns as f64 / 1e9,
            );
        }
        Ok(summary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{parse_line, ReportLine};

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "gsb-telemetry-test-{}-{}",
            std::process::id(),
            name
        ));
        p
    }

    #[test]
    fn writes_one_line_per_level_plus_summary() {
        let path = temp_path("lines.jsonl");
        let t = RunTelemetry::new(TelemetryConfig {
            metrics_out: Some(path.clone()),
            progress: false,
        })
        .unwrap();
        for k in 3..6 {
            let rec = LevelRecord {
                k,
                sublists: 10 * k,
                candidates: 100 / k,
                maximal_level: 2,
                level_ns: 1000,
                ..LevelRecord::default()
            };
            t.add_cliques(rec.maximal_level);
            let out = t.on_level(rec).unwrap();
            assert_eq!(out.seq, k - 3);
            assert_eq!(out.maximal_total, 2 * (k - 2));
        }
        let summary = t.finish(RunSummary::default()).unwrap();
        assert_eq!(summary.levels, 3);
        assert_eq!(summary.maximal_total, 6);

        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        for line in &lines[..3] {
            assert!(matches!(parse_line(line).unwrap(), ReportLine::Level(_)));
        }
        assert!(matches!(
            parse_line(lines[3]).unwrap(),
            ReportLine::Summary(_)
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn seed_prior_makes_totals_cumulative() {
        let t = RunTelemetry::new(TelemetryConfig::default()).unwrap();
        t.seed_prior(40, 5, 1_000_000_000);
        t.add_cliques(2);
        let out = t
            .on_level(LevelRecord {
                k: 6,
                maximal_level: 2,
                ..LevelRecord::default()
            })
            .unwrap();
        assert_eq!(out.maximal_total, 42);
        assert_eq!(t.levels_completed(), 6);
        assert!(t.wall_ns() >= 1_000_000_000);
    }

    #[test]
    fn checkpoint_cost_lands_on_next_record_only() {
        let t = RunTelemetry::new(TelemetryConfig::default()).unwrap();
        t.note_checkpoint(5000, 4096);
        let first = t
            .on_level(LevelRecord {
                k: 3,
                ..LevelRecord::default()
            })
            .unwrap();
        assert_eq!((first.ckpt_ns, first.ckpt_bytes), (5000, 4096));
        let second = t
            .on_level(LevelRecord {
                k: 4,
                ..LevelRecord::default()
            })
            .unwrap();
        assert_eq!((second.ckpt_ns, second.ckpt_bytes), (0, 0));
        let summary = t.finish(RunSummary::default()).unwrap();
        assert_eq!(summary.checkpoints, 1);
    }

    #[test]
    fn eta_decays_with_shrinking_levels() {
        let t = RunTelemetry::new(TelemetryConfig::default()).unwrap();
        let r1 = LevelRecord {
            k: 3,
            candidates: 100,
            level_ns: 1_000,
            ..Default::default()
        };
        assert_eq!(t.eta_text(&r1), "?"); // no prior level yet
        let r2 = LevelRecord {
            k: 4,
            candidates: 50,
            level_ns: 1_000,
            ..Default::default()
        };
        // r = 0.5 → remaining ≈ 1000 * 0.5 / 0.5 = 1000 ns
        assert_eq!(t.eta_text(&r2), "0.0s");
        let r3 = LevelRecord {
            k: 5,
            candidates: 80,
            level_ns: 1_000,
            ..Default::default()
        };
        assert_eq!(t.eta_text(&r3), "?"); // growing again: no bound
        let r4 = LevelRecord {
            k: 6,
            candidates: 0,
            level_ns: 1_000,
            ..Default::default()
        };
        assert_eq!(t.eta_text(&r4), "0s"); // nothing left
    }
}
