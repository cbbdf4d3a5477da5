//! `gsb cliques` — levelwise maximal-clique enumeration. Every run is a
//! [`CliquePipeline`]: the flags configure its backend, threads,
//! checkpoints, memory budget and telemetry, and pick the sink.

use super::{load, render_cliques};
use crate::args::Args;
use crate::CliError;
use gsb_core::checkpoint::{CheckpointConfig, RunMeta};
use gsb_core::sink::{CollectSink, CountSink};
use gsb_core::{BackendChoice, CliquePipeline, EnumStats, PipelineReport, WriterSink};
use gsb_telemetry::{RunTelemetry, TelemetryConfig};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// `gsb cliques`
pub fn cliques(argv: &[String]) -> Result<String, CliError> {
    let a = Args::parse(
        argv,
        &[
            "min",
            "max",
            "threads",
            "out",
            "backend",
            "checkpoint-dir",
            "checkpoint-secs",
            "memory-budget",
            "disk-budget",
            "worker-deadline-secs",
            "metrics-out",
        ],
        &["count-only", "progress"],
        1,
    )?;
    let graph_path = a.required_positional(0, "FILE")?;
    let min_k: usize = a.flag_or("min", 3)?;
    let max_k: Option<usize> = a.flag_opt("max")?;
    let threads: usize = a.flag_or("threads", 1)?;
    let count_only = a.switch("count-only");
    let out_path = a.flag("out");
    let backend = match a.flag("backend") {
        Some(name) => name.parse::<BackendChoice>().map_err(CliError::Usage)?,
        None => BackendChoice::Dense,
    };
    let checkpoint_dir = a.flag("checkpoint-dir");
    let checkpoint_secs: Option<u64> = a.flag_opt("checkpoint-secs")?;
    let memory_budget: Option<usize> = a.flag_opt("memory-budget")?;
    let disk_budget: Option<u64> = a.flag_opt("disk-budget")?;
    let worker_deadline_secs: Option<u64> = a.flag_opt("worker-deadline-secs")?;
    let telemetry_config = TelemetryConfig {
        metrics_out: a.flag("metrics-out").map(PathBuf::from),
        progress: a.switch("progress"),
    };
    if checkpoint_dir.is_none() {
        if checkpoint_secs.is_some() {
            return Err(CliError::Usage(
                "--checkpoint-secs requires --checkpoint-dir".into(),
            ));
        }
        if disk_budget.is_some() {
            return Err(CliError::Usage(
                "--disk-budget requires --checkpoint-dir (it caps checkpoint bytes)".into(),
            ));
        }
    }
    if out_path.is_some() && count_only {
        return Err(CliError::Usage("--out and --count-only conflict".into()));
    }
    let g = Arc::new(load(graph_path)?);

    let mut pipe = CliquePipeline::new()
        .min_size(min_k)
        .threads(threads)
        .backend(backend)
        .skip_exact_bound();
    if let Some(mx) = max_k {
        pipe = pipe.max_size(mx);
    }
    if let Some(budget) = memory_budget {
        pipe = pipe.memory_budget(budget);
    }
    if let Some(secs) = worker_deadline_secs {
        pipe = pipe.worker_deadline(std::time::Duration::from_secs(secs.max(1)));
    }
    if !telemetry_config.is_off() {
        pipe = pipe.telemetry(Arc::new(RunTelemetry::new(telemetry_config)?));
    }
    if let Some(dir) = checkpoint_dir {
        // Resume needs a durable output file to reconcile against:
        // in-memory results would vanish with the crash being guarded
        // against.
        let Some(out_path) = out_path else {
            return Err(CliError::Usage(
                "--checkpoint-dir requires --out FILE (resume appends to it)".into(),
            ));
        };
        let mut ckpt = match checkpoint_secs {
            Some(secs) => CheckpointConfig::every_secs(dir, secs),
            None => CheckpointConfig::every_level(dir),
        };
        if let Some(bytes) = disk_budget {
            ckpt = ckpt.disk_budget(bytes);
        }
        std::fs::create_dir_all(dir)?;
        RunMeta {
            graph: graph_path.to_string(),
            min_k,
            max_k,
            threads,
            out: Some(out_path.to_string()),
            backend,
        }
        .save(Path::new(dir))?;
        // Supervised mode: checkpointed runs react to SIGINT/SIGTERM
        // at barriers (the binary installs the handlers) and isolate
        // poison sub-lists into the quarantine sidecar instead of
        // aborting the whole run.
        pipe = pipe
            .checkpoint(ckpt)
            .shutdown(gsb_core::ShutdownToken::global())
            .quarantine(Path::new(dir).join("quarantine.jsonl"));
    }

    // The sink: a streamed file, a count, or the collected cliques.
    let (mut out, report) = if let Some(out_path) = out_path {
        let mut sink = WriterSink::new(std::fs::File::create(out_path)?);
        let report = pipe.try_run(&g, &mut sink)?;
        let written = sink.finish()?;
        let out = format!("wrote {written} maximal cliques to {out_path}\n");
        (out, report)
    } else {
        let mut collect = CollectSink::default();
        let mut count = CountSink::default();
        let report = if count_only {
            pipe.try_run(&g, &mut count)?
        } else {
            pipe.try_run(&g, &mut collect)?
        };
        (render_cliques(&collect, &count, count_only), report)
    };
    if let Some(dir) = checkpoint_dir {
        let _ = writeln!(
            out,
            "checkpointed {} level(s) in {dir} (cleaned up on completion)",
            report.checkpoints.len()
        );
    }
    append_degradation_note(&mut out, &report);
    if let Some(dir) = checkpoint_dir {
        append_quarantine_note(&mut out, &report, dir);
    }
    Ok(out)
}

pub(super) fn append_degradation_note(out: &mut String, report: &PipelineReport) {
    if let Some(k) = report.degraded_at {
        let bytes = report
            .degraded_stats
            .as_ref()
            .map_or(0, EnumStats::total_bytes_read);
        let _ = writeln!(
            out,
            "memory budget reached at level {k}: finished out of core ({bytes} bytes read back)"
        );
    }
}

/// Quarantined work is never silently dropped: say how much was
/// skipped and where the record of it lives.
pub(super) fn append_quarantine_note(out: &mut String, report: &PipelineReport, dir: &str) {
    let quarantined = report.parallel_stats.as_ref().map_or(0, |s| s.quarantined);
    if quarantined > 0 {
        let _ = writeln!(
            out,
            "warning: {quarantined} sub-list(s) quarantined to {dir}/quarantine.jsonl — \
             output is exact except descendants of those prefixes"
        );
    }
}
