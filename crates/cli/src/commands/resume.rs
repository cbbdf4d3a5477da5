//! `gsb resume` — continue a checkpointed `cliques` run after a crash.

use super::cliques::append_degradation_note;
use super::load;
use crate::args::Args;
use crate::CliError;
use gsb_bitset::{BitSet, WahBitSet};
use gsb_core::checkpoint::{
    latest_checkpoint, load_stop_cause, CheckpointConfig, RunMeta, RunProgress,
};
use gsb_core::store;
use gsb_core::{BackendChoice, CliquePipeline, ShutdownToken, StoreError, WriterSink};
use gsb_telemetry::{RunTelemetry, TelemetryConfig};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// `gsb resume` — continue a checkpointed `cliques` run after a crash.
pub fn resume(argv: &[String]) -> Result<String, CliError> {
    let a = Args::parse(
        argv,
        &["threads", "worker-deadline-secs", "metrics-out"],
        &["progress"],
        1,
    )?;
    let dir = a.required_positional(0, "CHECKPOINT_DIR")?;
    // Read the stop cause before the pipeline touches the directory
    // (resuming rewrites run.meta state on the next interruption).
    let stop_cause = load_stop_cause(Path::new(dir));
    let meta = RunMeta::load(Path::new(dir)).map_err(|e| match e {
        StoreError::Io(e) if e.kind() == std::io::ErrorKind::NotFound => {
            CliError::Runtime(format!(
                "no run.meta in {dir} — nothing to resume (directory never checkpointed, \
                 or the run completed and cleaned up)"
            ))
        }
        e => CliError::Store(e),
    })?;
    let g = Arc::new(load(&meta.graph)?);
    // Probe with the representation the run was checkpointed in; a
    // dense probe of a WAH checkpoint would be a backend mismatch.
    let k_ckpt = match meta.backend {
        BackendChoice::Dense => latest_checkpoint::<BitSet>(Path::new(dir), g.n())?.map(|(k, _)| k),
        BackendChoice::Wah => {
            latest_checkpoint::<WahBitSet>(Path::new(dir), g.n())?.map(|(k, _)| k)
        }
    };
    let Some(k_ckpt) = k_ckpt else {
        return Err(CliError::Runtime(format!(
            "no usable checkpoint in {dir} (the run may have completed)"
        )));
    };
    let out_path = meta.out.clone().ok_or_else(|| {
        CliError::Runtime("run.meta records no output file; cannot reconcile".into())
    })?;
    // Reconcile the output file with the checkpoint cut: the resumed
    // run re-emits every clique of size > k_ckpt, so keep only
    // well-formed lines at or below it (this also drops a line torn by
    // the crash mid-write).
    let kept = truncate_output(&out_path, k_ckpt)?;
    let file = std::fs::OpenOptions::new().append(true).open(&out_path)?;
    let mut sink = WriterSink::new(file);
    let threads = a
        .flag_opt::<usize>("threads")?
        .unwrap_or(meta.threads)
        .max(1);
    let mut pipe = CliquePipeline::new()
        .min_size(meta.min_k.max(1))
        .threads(threads)
        .backend(meta.backend)
        .skip_exact_bound()
        .checkpoint(CheckpointConfig::every_level(dir))
        .shutdown(ShutdownToken::global())
        .quarantine(Path::new(dir).join("quarantine.jsonl"));
    if let Some(mx) = meta.max_k {
        pipe = pipe.max_size(mx);
    }
    if let Some(secs) = a.flag_opt::<u64>("worker-deadline-secs")? {
        pipe = pipe.worker_deadline(std::time::Duration::from_secs(secs.max(1)));
    }
    // Cumulative telemetry persisted at the last checkpoint barrier:
    // report how far the interrupted run had gotten, and let the
    // pipeline seed its counters from it so exported totals continue.
    let prior = RunProgress::load(Path::new(dir)).ok();
    let telemetry_config = TelemetryConfig {
        metrics_out: a.flag("metrics-out").map(PathBuf::from),
        progress: a.switch("progress"),
    };
    if !telemetry_config.is_off() {
        pipe = pipe.telemetry(Arc::new(RunTelemetry::new(telemetry_config)?));
    }
    let report = pipe.resume(&g, &mut sink)?;
    let appended = sink.finish()?;
    let mut out = String::new();
    match stop_cause {
        Some(cause) => {
            let _ = writeln!(out, "previous run stopped: {cause}");
        }
        None => {
            let _ = writeln!(
                out,
                "previous run stopped: crash or hard kill (no stop cause on record)"
            );
        }
    }
    if let Some(p) = prior {
        let _ = writeln!(
            out,
            "prior progress: {} cliques across {} level(s) in {:.1}s before the interruption",
            p.cliques_emitted,
            p.levels_done,
            p.wall_ms as f64 / 1e3
        );
    }
    let _ = writeln!(
        out,
        "resumed {} from its level-{k_ckpt} checkpoint: kept {kept} cliques (size <= {k_ckpt}), \
         appended {appended} more to {out_path}",
        meta.graph
    );
    append_degradation_note(&mut out, &report);
    Ok(out)
}

/// Keep only well-formed `size\tv1 v2 ...` lines with `size <= max_k`;
/// replace the file atomically and durably, so a power loss cannot
/// leave an empty output beside a valid checkpoint. Returns how many
/// lines were kept.
fn truncate_output(path: &str, max_k: usize) -> Result<usize, CliError> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        // The crash may have happened before the file was created.
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(CliError::Io(e)),
    };
    let mut kept = String::with_capacity(text.len());
    let mut kept_lines = 0usize;
    for line in text.lines() {
        let Some((size, rest)) = line.split_once('\t') else {
            continue;
        };
        let Ok(k) = size.parse::<usize>() else {
            continue;
        };
        if k > max_k || rest.split_whitespace().count() != k {
            continue;
        }
        kept.push_str(line);
        kept.push('\n');
        kept_lines += 1;
    }
    let path = Path::new(path);
    store::write_atomic(path, |w| w.write_all(kept.as_bytes()))?;
    if let Some(dir) = path.parent() {
        store::sync_dir(dir);
    }
    Ok(kept_lines)
}
