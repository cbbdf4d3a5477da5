//! `gsb cliques` — levelwise maximal-clique enumeration, with the
//! `--backend` bitmap-representation switch and the fault-tolerant
//! pipeline path (checkpointing, memory budget, telemetry).

use super::{load, render_cliques};
use crate::args::Args;
use crate::CliError;
use gsb_core::checkpoint::{CheckpointConfig, RunMeta};
use gsb_core::sink::{CollectSink, CountSink};
use gsb_core::store::SpillConfig;
use gsb_core::{
    BackendChoice, CliqueEnumerator, CliquePipeline, EnumConfig, EnumStats, ParallelConfig,
    ParallelEnumerator, PipelineReport, WriterSink,
};
use gsb_graph::BitGraph;
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
            "spill-budget",
            "order",
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
    let path = a.required_positional(0, "FILE")?;
    let g = load(path)?;
    let config = EnumConfig {
        min_k: a.flag_or("min", 3)?,
        max_k: a.flag_opt("max")?,
        record_costs: false,
    };
    let threads: usize = a.flag_or("threads", 1)?;
    let spill_budget: Option<usize> = a.flag_opt("spill-budget")?;
    let count_only = a.switch("count-only");
    let backend = match a.flag("backend") {
        Some(name) => name.parse::<BackendChoice>().map_err(CliError::Usage)?,
        None => BackendChoice::Dense,
    };

    // Pipeline path: a non-dense backend, checkpointing, and/or a
    // memory budget route through CliquePipeline instead of the raw
    // enumerators.
    let checkpoint_dir = a.flag("checkpoint-dir").map(str::to_string);
    let checkpoint_secs: Option<u64> = a.flag_opt("checkpoint-secs")?;
    let memory_budget: Option<usize> = a.flag_opt("memory-budget")?;
    let disk_budget: Option<u64> = a.flag_opt("disk-budget")?;
    let worker_deadline_secs: Option<u64> = a.flag_opt("worker-deadline-secs")?;
    if disk_budget.is_some() && checkpoint_dir.is_none() {
        return Err(CliError::Usage(
            "--disk-budget requires --checkpoint-dir (it caps checkpoint bytes)".into(),
        ));
    }
    let telemetry_config = TelemetryConfig {
        metrics_out: a.flag("metrics-out").map(PathBuf::from),
        progress: a.switch("progress"),
    };
    if backend != BackendChoice::Dense
        || checkpoint_dir.is_some()
        || memory_budget.is_some()
        || worker_deadline_secs.is_some()
        || !telemetry_config.is_off()
    {
        if a.flag("order").is_some() || spill_budget.is_some() {
            return Err(CliError::Usage(
                "--backend/--checkpoint-dir/--memory-budget/--metrics-out/--progress conflict \
                 with --order and --spill-budget"
                    .into(),
            ));
        }
        return cliques_pipeline(
            &a,
            path,
            &g,
            config,
            backend,
            threads,
            count_only,
            checkpoint_dir.as_deref(),
            checkpoint_secs,
            memory_budget,
            disk_budget,
            worker_deadline_secs,
            telemetry_config,
        );
    }
    if checkpoint_secs.is_some() {
        return Err(CliError::Usage(
            "--checkpoint-secs requires --checkpoint-dir".into(),
        ));
    }

    // Optional vertex reordering (sequential path only).
    if let Some(order_name) = a.flag("order") {
        if threads != 1 || spill_budget.is_some() {
            return Err(CliError::Usage(
                "--order applies to the plain sequential run (no --threads/--spill-budget)".into(),
            ));
        }
        let ordering = match order_name {
            "natural" => gsb_core::order::Ordering::Natural,
            "degeneracy" => gsb_core::order::Ordering::Degeneracy,
            "degree" => gsb_core::order::Ordering::DegreeDescending,
            other => {
                return Err(CliError::Usage(format!(
                    "unknown --order {other:?} (natural | degeneracy | degree)"
                )))
            }
        };
        let mut collect = CollectSink::default();
        gsb_core::order::enumerate_ordered(&g, ordering, config, &mut collect);
        let count = CountSink {
            count: collect.cliques.len(),
        };
        if count_only {
            collect.cliques.clear();
        }
        return Ok(render_cliques(&collect, &count, count_only));
    }

    // Optional streaming output to a file.
    if let Some(out_path) = a.flag("out") {
        if count_only {
            return Err(CliError::Usage("--out and --count-only conflict".into()));
        }
        let file = std::fs::File::create(out_path)?;
        let mut sink = gsb_core::WriterSink::new(file);
        if threads == 1 {
            CliqueEnumerator::new(config).enumerate(&g, &mut sink);
        } else {
            let enumerator = ParallelEnumerator::new(ParallelConfig {
                threads,
                enum_config: config,
                ..Default::default()
            });
            let garc = Arc::new(g);
            enumerator.enumerate(&garc, &mut sink);
        }
        let written = sink.finish()?;
        return Ok(format!("wrote {written} maximal cliques to {out_path}\n"));
    }

    let mut collect = CollectSink::default();
    let mut count = CountSink::default();
    if let Some(budget) = spill_budget {
        if threads != 1 {
            return Err(CliError::Usage(
                "--spill-budget requires --threads 1 (the out-of-core store is sequential)".into(),
            ));
        }
        let spill = SpillConfig::in_temp(budget);
        let enumerator = CliqueEnumerator::new(config);
        let stats = if count_only {
            enumerator.enumerate_spilled(&g, &mut count, &spill)?
        } else {
            enumerator.enumerate_spilled(&g, &mut collect, &spill)?
        };
        let mut out = render_cliques(&collect, &count, count_only);
        let _ = writeln!(
            out,
            "out-of-core: {} bytes read back across {} levels",
            stats.total_bytes_read(),
            stats.levels.len()
        );
        return Ok(out);
    }
    if threads == 1 {
        let enumerator = CliqueEnumerator::new(config);
        if count_only {
            enumerator.enumerate(&g, &mut count);
        } else {
            enumerator.enumerate(&g, &mut collect);
        }
    } else {
        let enumerator = ParallelEnumerator::new(ParallelConfig {
            threads,
            enum_config: config,
            ..Default::default()
        });
        let garc = Arc::new(g);
        if count_only {
            enumerator.enumerate(&garc, &mut count);
        } else {
            enumerator.enumerate(&garc, &mut collect);
        }
    }
    Ok(render_cliques(&collect, &count, count_only))
}

/// The pipeline `gsb cliques` variant: a selectable bitmap backend,
/// checkpointing, and/or a memory budget through [`CliquePipeline`].
#[allow(clippy::too_many_arguments)]
fn cliques_pipeline(
    a: &Args,
    graph_path: &str,
    g: &BitGraph,
    config: EnumConfig,
    backend: BackendChoice,
    threads: usize,
    count_only: bool,
    checkpoint_dir: Option<&str>,
    checkpoint_secs: Option<u64>,
    memory_budget: Option<usize>,
    disk_budget: Option<u64>,
    worker_deadline_secs: Option<u64>,
    telemetry_config: TelemetryConfig,
) -> Result<String, CliError> {
    let mut pipe = CliquePipeline::new()
        .min_size(config.min_k)
        .threads(threads)
        .backend(backend)
        .skip_exact_bound();
    if let Some(mx) = config.max_k {
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
        let Some(out_path) = a.flag("out") else {
            return Err(CliError::Usage(
                "--checkpoint-dir requires --out FILE (resume appends to it)".into(),
            ));
        };
        if count_only {
            return Err(CliError::Usage(
                "--checkpoint-dir conflicts with --count-only".into(),
            ));
        }
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
            min_k: config.min_k,
            max_k: config.max_k,
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
        let file = std::fs::File::create(out_path)?;
        let mut sink = WriterSink::new(file);
        let report = pipe.try_run(g, &mut sink)?;
        let written = sink.finish()?;
        let mut out = format!("wrote {written} maximal cliques to {out_path}\n");
        let _ = writeln!(
            out,
            "checkpointed {} level(s) in {dir} (cleaned up on completion)",
            report.checkpoints.len()
        );
        append_degradation_note(&mut out, &report);
        append_quarantine_note(&mut out, &report, dir);
        return Ok(out);
    }

    // No checkpointing: any sink works.
    if let Some(out_path) = a.flag("out") {
        if count_only {
            return Err(CliError::Usage("--out and --count-only conflict".into()));
        }
        let file = std::fs::File::create(out_path)?;
        let mut sink = WriterSink::new(file);
        let report = pipe.try_run(g, &mut sink)?;
        let written = sink.finish()?;
        let mut out = format!("wrote {written} maximal cliques to {out_path}\n");
        append_degradation_note(&mut out, &report);
        return Ok(out);
    }
    let mut collect = CollectSink::default();
    let mut count = CountSink::default();
    let report = if count_only {
        pipe.try_run(g, &mut count)?
    } else {
        pipe.try_run(g, &mut collect)?
    };
    let mut out = render_cliques(&collect, &count, count_only);
    append_degradation_note(&mut out, &report);
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
