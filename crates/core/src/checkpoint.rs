//! Crash-safe automated checkpointing at level barriers.
//!
//! The levelwise algorithm has a natural consistent cut: when level
//! `k` is fully built, every maximal clique of size `< k` has already
//! been emitted and the level alone determines the rest of the run.
//! Persisting `L_k` at (some) barriers turns a multi-day genome-scale
//! enumeration into a resumable one — a crash costs at most the work
//! since the newest checkpoint, not the whole run.
//!
//! [`CheckpointManager`] owns the directory, applies a
//! [`CheckpointPolicy`] (every level, every N seconds of wall clock, or
//! off), prunes old files, and exposes [`latest_checkpoint`] for the
//! resume path, which walks checkpoints newest-first and falls back
//! past corrupt ones. [`RunMeta`] records the run parameters next to
//! the checkpoints so `gsb resume` can re-derive the original
//! invocation.

use crate::backend::BackendChoice;
use crate::store::{self, StoreError};
use crate::sublist::Level;
use crate::supervise::RetryPolicy;
use gsb_bitset::NeighborSet;
use std::fmt;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The cost of one checkpoint write, for telemetry export.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckpointWrite {
    /// Wall time of the write (encode + fsync + rename), ns.
    pub ns: u64,
    /// Bytes written (header + framed records).
    pub bytes: u64,
}

/// When to persist a level checkpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckpointPolicy {
    /// Never checkpoint (the manager still writes on [`CheckpointManager::force`]).
    Off,
    /// Checkpoint at every level barrier — cheapest recovery, most I/O.
    EveryLevel,
    /// Checkpoint at the first barrier after this much wall-clock time
    /// has elapsed since the previous checkpoint.
    Every(Duration),
}

/// Where and how often to checkpoint.
#[derive(Clone, Debug)]
pub struct CheckpointConfig {
    /// Directory holding `ckpt-k*.lvl` files and `run.meta`.
    pub dir: PathBuf,
    /// Cadence policy.
    pub policy: CheckpointPolicy,
    /// How many newest checkpoints to keep (older ones are pruned).
    /// Keeping more than one lets resume fall back when the newest
    /// file is corrupt. Clamped to at least 1.
    pub keep: usize,
    /// Retry policy for transient checkpoint-write failures.
    pub retry: RetryPolicy,
    /// Total bytes of checkpoint files to keep on disk (`None` =
    /// unbounded). When the budget is exceeded — or a write hits
    /// `ENOSPC` — the manager prunes old checkpoints down to the
    /// newest one before giving up, trading recovery depth for the
    /// ability to keep running.
    pub disk_budget: Option<u64>,
}

impl CheckpointConfig {
    /// Checkpoint at every level barrier into `dir`, keeping two files.
    pub fn every_level(dir: impl Into<PathBuf>) -> Self {
        CheckpointConfig {
            dir: dir.into(),
            policy: CheckpointPolicy::EveryLevel,
            keep: 2,
            retry: RetryPolicy::default(),
            disk_budget: None,
        }
    }

    /// Checkpoint at the first barrier after each `secs` seconds.
    pub fn every_secs(dir: impl Into<PathBuf>, secs: u64) -> Self {
        CheckpointConfig {
            dir: dir.into(),
            policy: CheckpointPolicy::Every(Duration::from_secs(secs)),
            keep: 2,
            retry: RetryPolicy::default(),
            disk_budget: None,
        }
    }

    /// Cap the total bytes of checkpoint files kept on disk.
    pub fn disk_budget(mut self, bytes: u64) -> Self {
        self.disk_budget = Some(bytes);
        self
    }
}

fn checkpoint_path(dir: &Path, k: usize) -> PathBuf {
    dir.join(format!("ckpt-k{k:05}.lvl"))
}

/// Parse `ckpt-k00007.lvl` → `7`.
fn parse_checkpoint_name(name: &str) -> Option<usize> {
    let rest = name.strip_prefix("ckpt-k")?.strip_suffix(".lvl")?;
    rest.parse().ok()
}

/// Drives checkpoint writes during an enumeration run.
pub struct CheckpointManager {
    config: CheckpointConfig,
    last_write: Instant,
    written: Vec<usize>,
    written_bytes: Vec<u64>,
}

impl CheckpointManager {
    /// Create the checkpoint directory and a manager over it. Orphaned
    /// `*.tmp` files from a previous crash mid-write are swept here:
    /// every durable file in the directory is written tmp-then-rename,
    /// so a surviving `.tmp` is garbage by definition.
    pub fn new(config: CheckpointConfig) -> Result<Self, StoreError> {
        std::fs::create_dir_all(&config.dir)?;
        store::sweep_tmp_files(&config.dir);
        Ok(CheckpointManager {
            config,
            last_write: Instant::now(),
            written: Vec::new(),
            written_bytes: Vec::new(),
        })
    }

    /// The directory this manager writes into.
    pub fn dir(&self) -> &Path {
        &self.config.dir
    }

    /// Levels checkpointed so far (ascending).
    pub fn written(&self) -> &[usize] {
        &self.written
    }

    /// Called at each level barrier with the freshly built level.
    /// Writes a checkpoint when the policy says so; returns the write's
    /// cost when one was written, `None` when the policy skipped it.
    pub fn observe_level<S: NeighborSet>(
        &mut self,
        level: &Level<S>,
    ) -> Result<Option<CheckpointWrite>, StoreError> {
        let due = match self.config.policy {
            CheckpointPolicy::Off => false,
            CheckpointPolicy::EveryLevel => true,
            CheckpointPolicy::Every(interval) => self.last_write.elapsed() >= interval,
        };
        if !due {
            return Ok(None);
        }
        self.force(level).map(Some)
    }

    /// Write a checkpoint for `level` regardless of policy, then prune
    /// to the `keep` newest files. Returns the write's latency and
    /// size for the telemetry layer.
    ///
    /// Transient I/O failures are retried per the config's
    /// [`RetryPolicy`]; a disk-full failure (`ENOSPC`) prunes every
    /// checkpoint but the newest and retries once more before
    /// surfacing the error.
    pub fn force<S: NeighborSet>(
        &mut self,
        level: &Level<S>,
    ) -> Result<CheckpointWrite, StoreError> {
        let start = Instant::now();
        self.enforce_disk_budget();
        let path = checkpoint_path(&self.config.dir, level.k);
        let retry = self.config.retry;
        let attempt = || -> Result<u64, StoreError> {
            crate::failpoint::inject("checkpoint.write")?;
            store::write_level(&path, level)
        };
        let bytes = match retry.run_store(attempt) {
            Ok(bytes) => bytes,
            Err(e) if store_is_disk_full(&e) && self.written.len() > 1 => {
                // Trade recovery depth for survival: free everything
                // but the newest checkpoint, then try once more.
                while self.written.len() > 1 {
                    self.remove_oldest();
                }
                retry.run_store(attempt)?
            }
            Err(e) => return Err(e),
        };
        let write = CheckpointWrite {
            ns: start.elapsed().as_nanos() as u64,
            bytes,
        };
        self.last_write = Instant::now();
        if self.written.last() == Some(&level.k) {
            *self.written_bytes.last_mut().expect("aligned with written") = bytes;
        } else {
            self.written.push(level.k);
            self.written_bytes.push(bytes);
        }
        self.prune();
        self.enforce_disk_budget();
        Ok(write)
    }

    fn prune(&mut self) {
        let keep = self.config.keep.max(1);
        while self.written.len() > keep {
            self.remove_oldest();
        }
    }

    /// While the checkpoint files this manager wrote exceed the disk
    /// budget, drop the oldest — but never the newest, which is the
    /// resume point.
    fn enforce_disk_budget(&mut self) {
        let Some(budget) = self.config.disk_budget else {
            return;
        };
        while self.written.len() > 1 && self.written_bytes.iter().sum::<u64>() > budget {
            self.remove_oldest();
        }
    }

    fn remove_oldest(&mut self) {
        let k = self.written.remove(0);
        self.written_bytes.remove(0);
        let _ = std::fs::remove_file(checkpoint_path(&self.config.dir, k));
    }

    /// The run completed: checkpoints are no longer needed. Best-effort
    /// removal of every `ckpt-k*.lvl` and `run.meta` in the directory
    /// (not only the ones this manager wrote), so a later `resume` on
    /// the same directory reports "nothing to resume" instead of
    /// silently redoing finished work.
    pub fn finish(self) {
        let Ok(entries) = std::fs::read_dir(&self.config.dir) else {
            return;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if parse_checkpoint_name(&name).is_some()
                || name == RUN_META_FILE
                || name == PROGRESS_FILE
            {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }
}

fn store_is_disk_full(e: &StoreError) -> bool {
    matches!(e, StoreError::Io(io) if crate::supervise::is_disk_full(io))
}

/// Find the newest usable checkpoint in `dir` for a graph with
/// `graph_n` vertices.
///
/// Scans `ckpt-k*.lvl` files k-descending. A corrupt file (torn,
/// checksum failure, bad magic) is skipped and the next-older one is
/// tried — that is why the manager keeps more than one. A checkpoint
/// that parses but was taken over a *different graph* is a hard
/// [`StoreError::GraphMismatch`]: falling back would silently enumerate
/// the wrong problem, and one written under a different bitmap
/// representation is [`StoreError::BackendMismatch`]: `gsb resume`
/// re-derives the original backend from [`RunMeta`] before calling
/// this. Returns `Ok(None)` when the directory holds no checkpoint
/// files at all, and the last decode error when every candidate is
/// corrupt.
pub fn latest_checkpoint<S: NeighborSet>(
    dir: &Path,
    graph_n: usize,
) -> Result<Option<(usize, Level<S>)>, StoreError> {
    let mut ks: Vec<usize> = std::fs::read_dir(dir)?
        .flatten()
        .filter_map(|e| parse_checkpoint_name(&e.file_name().to_string_lossy()))
        .collect();
    ks.sort_unstable();
    let mut last_err = None;
    for k in ks.into_iter().rev() {
        match store::read_level_meta::<S>(&checkpoint_path(dir, k)) {
            Ok((level, n_bits)) => {
                if n_bits != 0 && n_bits != graph_n {
                    return Err(StoreError::GraphMismatch {
                        checkpoint_bits: n_bits,
                        graph_bits: graph_n,
                    });
                }
                return Ok(Some((k, level)));
            }
            Err(e @ StoreError::GraphMismatch { .. }) => return Err(e),
            Err(e @ StoreError::BackendMismatch { .. }) => return Err(e),
            Err(e) => last_err = Some(e),
        }
    }
    match last_err {
        Some(e) => Err(e),
        None => Ok(None),
    }
}

const RUN_META_FILE: &str = "run.meta";

/// Why a supervised run stopped before completing, recorded into
/// `run.meta` so `gsb resume` can tell the operator what happened.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopCause {
    /// Graceful shutdown on this signal (2 = SIGINT, 15 = SIGTERM).
    Signal(i32),
    /// A parallel level failed after its retry (and quarantine probing,
    /// when enabled); the run aborted with a final checkpoint.
    WorkerFailure,
}

impl fmt::Display for StopCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StopCause::Signal(2) => write!(f, "interrupted by SIGINT"),
            StopCause::Signal(15) => write!(f, "terminated by SIGTERM"),
            StopCause::Signal(sig) => write!(f, "stopped by signal {sig}"),
            StopCause::WorkerFailure => write!(f, "aborted on persistent worker failure"),
        }
    }
}

/// Record why the run stopped as a `stopped=` line in `run.meta`,
/// preserving every other line (durable atomic write, replacing any
/// previous stop cause). Creates the file when none exists — stop
/// causes are useful even for runs checkpointing without CLI metadata.
pub fn record_stop_cause(dir: &Path, cause: StopCause) -> Result<(), StoreError> {
    let path = dir.join(RUN_META_FILE);
    let mut text = std::fs::read_to_string(&path)
        .unwrap_or_default()
        .lines()
        .filter(|l| !l.starts_with("stopped="))
        .fold(String::new(), |mut acc, l| {
            acc.push_str(l);
            acc.push('\n');
            acc
        });
    match cause {
        StopCause::Signal(sig) => text.push_str(&format!("stopped=signal:{sig}\n")),
        StopCause::WorkerFailure => text.push_str("stopped=worker-failure\n"),
    }
    store::write_atomic(&path, |w| w.write_all(text.as_bytes()))?;
    store::sync_dir(dir);
    Ok(())
}

/// Read the recorded stop cause, if any. `None` means the previous run
/// either completed (files cleaned up) or died without reaching a
/// barrier — for an existing checkpoint directory that distinction is
/// "crash or hard kill".
pub fn load_stop_cause(dir: &Path) -> Option<StopCause> {
    let text = std::fs::read_to_string(dir.join(RUN_META_FILE)).ok()?;
    let value = text.lines().find_map(|l| l.strip_prefix("stopped="))?;
    if value == "worker-failure" {
        return Some(StopCause::WorkerFailure);
    }
    value
        .strip_prefix("signal:")?
        .parse()
        .ok()
        .map(StopCause::Signal)
}

/// Parameters of a checkpointed run, persisted as `run.meta` next to
/// the checkpoints so `gsb resume <dir>` needs no other arguments.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunMeta {
    /// Path of the input graph file.
    pub graph: String,
    /// Minimum clique size reported.
    pub min_k: usize,
    /// Maximum clique size reported (`None` = unbounded).
    pub max_k: Option<usize>,
    /// Worker threads (0 = sequential).
    pub threads: usize,
    /// Output file path (`None` = stdout; resume requires a file).
    pub out: Option<String>,
    /// Bitmap representation the run enumerated with. A `run.meta`
    /// written by an older build has no `backend=` line and loads as
    /// [`BackendChoice::Dense`] — exactly what those builds ran. Any
    /// other value loads as [`StoreError::UnknownBackend`].
    pub backend: BackendChoice,
}

impl RunMeta {
    /// Persist atomically as simple `key=value` lines.
    pub fn save(&self, dir: &Path) -> Result<(), StoreError> {
        let mut text = String::new();
        text.push_str(&format!("graph={}\n", self.graph));
        text.push_str(&format!("min_k={}\n", self.min_k));
        if let Some(max_k) = self.max_k {
            text.push_str(&format!("max_k={max_k}\n"));
        }
        text.push_str(&format!("threads={}\n", self.threads));
        if let Some(out) = &self.out {
            text.push_str(&format!("out={out}\n"));
        }
        text.push_str(&format!("backend={}\n", self.backend));
        save_meta(dir, RUN_META_FILE, &text)
    }

    /// Load `run.meta` from `dir`. Unknown keys are ignored so older
    /// builds can read files written by newer ones, and newer builds
    /// read keys older ones wrote and no longer use (a `scheduler=`
    /// line resumes on the one parallel runtime, whose output is
    /// identical).
    pub fn load(dir: &Path) -> Result<Self, StoreError> {
        let text = std::fs::read_to_string(dir.join(RUN_META_FILE))?;
        let mut meta = RunMeta::default();
        for line in text.lines() {
            let Some((key, value)) = line.split_once('=') else {
                continue;
            };
            match key {
                "graph" => meta.graph = value.to_string(),
                "min_k" => meta.min_k = value.parse().unwrap_or(0),
                "max_k" => meta.max_k = value.parse().ok(),
                "threads" => meta.threads = value.parse().unwrap_or(0),
                "out" => meta.out = Some(value.to_string()),
                "backend" => {
                    meta.backend = value.parse().map_err(|_| StoreError::UnknownBackend {
                        name: value.to_string(),
                    })?
                }
                _ => {}
            }
        }
        Ok(meta)
    }
}

const PROGRESS_FILE: &str = "progress.meta";

/// Persist a `key=value` metadata file durably: one atomic write,
/// retried on transient errors, then one directory sync.
fn save_meta(dir: &Path, name: &str, text: &str) -> Result<(), StoreError> {
    let path = dir.join(name);
    RetryPolicy::default().run_store(|| {
        crate::failpoint::inject("checkpoint.meta")?;
        store::write_atomic(&path, |w| w.write_all(text.as_bytes()))?;
        Ok(())
    })?;
    store::sync_dir(dir);
    Ok(())
}

/// Cumulative run telemetry persisted as `progress.meta` next to the
/// checkpoints at every checkpoint barrier, so `gsb resume` can report
/// how far the interrupted run had gotten and the resumed run's
/// telemetry totals continue from there instead of restarting at zero.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunProgress {
    /// Maximal cliques emitted up to (and including) the checkpointed
    /// level barrier.
    pub cliques_emitted: u64,
    /// Level barriers completed.
    pub levels_done: u64,
    /// Wall-clock time spent so far, milliseconds.
    pub wall_ms: u64,
}

impl RunProgress {
    /// Persist atomically as simple `key=value` lines.
    pub fn save(&self, dir: &Path) -> Result<(), StoreError> {
        let text = format!(
            "cliques_emitted={}\nlevels_done={}\nwall_ms={}\n",
            self.cliques_emitted, self.levels_done, self.wall_ms
        );
        save_meta(dir, PROGRESS_FILE, &text)
    }

    /// Load `progress.meta` from `dir`. Unknown keys are ignored so
    /// older builds can read files written by newer ones.
    pub fn load(dir: &Path) -> Result<Self, StoreError> {
        let text = std::fs::read_to_string(dir.join(PROGRESS_FILE))?;
        let mut progress = RunProgress::default();
        for line in text.lines() {
            let Some((key, value)) = line.split_once('=') else {
                continue;
            };
            match key {
                "cliques_emitted" => progress.cliques_emitted = value.parse().unwrap_or(0),
                "levels_done" => progress.levels_done = value.parse().unwrap_or(0),
                "wall_ms" => progress.wall_ms = value.parse().unwrap_or(0),
                _ => {}
            }
        }
        Ok(progress)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sublist::SubList;
    use gsb_bitset::BitSet;
    use gsb_graph::BitGraph;

    fn temp_ckpt_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gsb-ckpt-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn level_for(g: &BitGraph, k: usize) -> Level {
        let sublists = (0..3)
            .map(|i| SubList {
                prefix: vec![i],
                cn: g.common_neighbors(&[i as usize]),
                tails: vec![i + 1],
            })
            .collect();
        Level { k, sublists }
    }

    #[test]
    fn every_level_policy_writes_and_prunes() {
        let dir = temp_ckpt_dir("prune");
        let g = BitGraph::complete(10);
        let mut mgr = CheckpointManager::new(CheckpointConfig::every_level(&dir)).unwrap();
        for k in 2..6 {
            let write = mgr.observe_level(&level_for(&g, k)).unwrap();
            assert!(write.expect("every-level policy writes").bytes > 0);
        }
        // keep=2: only k=4 and k=5 remain
        assert_eq!(mgr.written(), &[4, 5]);
        assert!(!checkpoint_path(&dir, 2).exists());
        assert!(!checkpoint_path(&dir, 3).exists());
        assert!(checkpoint_path(&dir, 4).exists());
        assert!(checkpoint_path(&dir, 5).exists());
        let (k, level) = latest_checkpoint::<BitSet>(&dir, 10)
            .unwrap()
            .expect("has checkpoint");
        assert_eq!(k, 5);
        assert_eq!(level.sublists.len(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn off_policy_never_writes_but_force_does() {
        let dir = temp_ckpt_dir("off");
        let g = BitGraph::complete(10);
        let mut config = CheckpointConfig::every_level(&dir);
        config.policy = CheckpointPolicy::Off;
        let mut mgr = CheckpointManager::new(config).unwrap();
        assert!(mgr.observe_level(&level_for(&g, 2)).unwrap().is_none());
        assert!(latest_checkpoint::<BitSet>(&dir, 10).unwrap().is_none());
        mgr.force(&level_for(&g, 2)).unwrap();
        assert!(latest_checkpoint::<BitSet>(&dir, 10).unwrap().is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_newest_falls_back_to_older() {
        let dir = temp_ckpt_dir("fallback");
        let g = BitGraph::complete(10);
        let mut mgr = CheckpointManager::new(CheckpointConfig::every_level(&dir)).unwrap();
        mgr.observe_level(&level_for(&g, 3)).unwrap();
        mgr.observe_level(&level_for(&g, 4)).unwrap();
        // corrupt the newest one
        let newest = checkpoint_path(&dir, 4);
        let mut raw = std::fs::read(&newest).unwrap();
        let mid = raw.len() / 2;
        raw[mid] ^= 0x04;
        std::fs::write(&newest, &raw).unwrap();
        let (k, _) = latest_checkpoint::<BitSet>(&dir, 10)
            .unwrap()
            .expect("fallback");
        assert_eq!(k, 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn all_corrupt_is_an_error_not_a_panic() {
        let dir = temp_ckpt_dir("allbad");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(checkpoint_path(&dir, 2), b"garbage").unwrap();
        assert!(latest_checkpoint::<BitSet>(&dir, 10).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn graph_mismatch_is_a_hard_error() {
        let dir = temp_ckpt_dir("mismatch");
        let g = BitGraph::complete(10);
        let mut mgr = CheckpointManager::new(CheckpointConfig::every_level(&dir)).unwrap();
        mgr.observe_level(&level_for(&g, 3)).unwrap();
        let err = latest_checkpoint::<BitSet>(&dir, 99).unwrap_err();
        assert!(matches!(err, StoreError::GraphMismatch { .. }));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn finish_removes_checkpoints_and_meta() {
        let dir = temp_ckpt_dir("finish");
        let g = BitGraph::complete(10);
        let mut mgr = CheckpointManager::new(CheckpointConfig::every_level(&dir)).unwrap();
        mgr.observe_level(&level_for(&g, 3)).unwrap();
        RunMeta {
            graph: "g.graph".into(),
            min_k: 3,
            max_k: None,
            threads: 0,
            out: Some("out.txt".into()),
            backend: BackendChoice::Dense,
        }
        .save(&dir)
        .unwrap();
        RunProgress {
            cliques_emitted: 7,
            levels_done: 2,
            wall_ms: 13,
        }
        .save(&dir)
        .unwrap();
        mgr.finish();
        assert!(latest_checkpoint::<BitSet>(&dir, 10).unwrap().is_none());
        assert!(RunMeta::load(&dir).is_err());
        assert!(RunProgress::load(&dir).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn run_progress_roundtrip_and_unknown_keys() {
        let dir = temp_ckpt_dir("progress");
        std::fs::create_dir_all(&dir).unwrap();
        let progress = RunProgress {
            cliques_emitted: 12345,
            levels_done: 9,
            wall_ms: 60_001,
        };
        progress.save(&dir).unwrap();
        assert_eq!(RunProgress::load(&dir).unwrap(), progress);
        // forward compatibility: unknown keys are skipped
        let path = dir.join(PROGRESS_FILE);
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("future_field=42\n");
        std::fs::write(&path, text).unwrap();
        assert_eq!(RunProgress::load(&dir).unwrap(), progress);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn run_meta_roundtrip() {
        let dir = temp_ckpt_dir("meta");
        std::fs::create_dir_all(&dir).unwrap();
        let meta = RunMeta {
            graph: "data/y2h.graph".into(),
            min_k: 4,
            max_k: Some(12),
            threads: 8,
            out: Some("cliques.tsv".into()),
            backend: BackendChoice::Wah,
        };
        meta.save(&dir).unwrap();
        assert_eq!(RunMeta::load(&dir).unwrap(), meta);
        // a meta written by an older build has no backend line → dense,
        // and may carry a scheduler line, which is ignored.
        let path = dir.join(RUN_META_FILE);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("backend=wah\n"));
        let old_text = text.replace("backend=wah\n", "") + "scheduler=barrier\n";
        std::fs::write(&path, old_text).unwrap();
        let old = RunMeta::load(&dir).unwrap();
        assert_eq!(
            old,
            RunMeta {
                backend: BackendChoice::Dense,
                ..meta
            }
        );
        // a backend this build does not have is a typed error naming it
        std::fs::write(&path, text.replace("backend=wah", "backend=hybrid")).unwrap();
        let err = RunMeta::load(&dir).unwrap_err();
        assert!(
            matches!(&err, StoreError::UnknownBackend { name } if name == "hybrid"),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn timed_policy_respects_interval() {
        let dir = temp_ckpt_dir("timed");
        let g = BitGraph::complete(10);
        let config = CheckpointConfig::every_secs(&dir, 3600);
        let mut mgr = CheckpointManager::new(config).unwrap();
        // interval far in the future: no write at the barrier
        assert!(mgr.observe_level(&level_for(&g, 2)).unwrap().is_none());
        // zero interval: always due
        let mut config = CheckpointConfig::every_secs(&dir, 0);
        config.keep = 1;
        let mut mgr = CheckpointManager::new(config).unwrap();
        assert!(mgr.observe_level(&level_for(&g, 2)).unwrap().is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
