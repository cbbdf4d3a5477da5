//! Fault-tolerance integration tests: corrupted checkpoints must fail
//! with typed errors (never a panic), the memory watchdog must degrade
//! without changing the answer, and — with the `failpoints` feature —
//! injected crashes at every site must leave the runtime resumable.
//!
//! Run the gated half with:
//! `cargo test -p gsb-core --test resilience --features failpoints`

mod util;

use gsb_core::sink::CollectSink;
use gsb_core::store::{read_level, write_level};
use gsb_core::{CliqueEnumerator, CliquePipeline, EnumStats, Vertex};
use gsb_graph::generators::{gnp, planted, Module};
use gsb_graph::BitGraph;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use util::TempDirGuard;

/// Failpoints are process-global; the harness runs tests on parallel
/// threads, so every failpoint test — and every other test that drives
/// the pipeline's barriers, which are failpoint sites — takes this lock.
fn serialize() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn workload() -> Arc<BitGraph> {
    Arc::new(planted(
        30,
        0.1,
        &[Module::clique(7), Module::clique(5)],
        11,
    ))
}

/// The sequential run's emission order: the byte-identity reference.
fn plain_ordered(g: &Arc<BitGraph>) -> Vec<Vec<Vertex>> {
    let mut sink = CollectSink::default();
    CliquePipeline::new().min_size(3).run(g, &mut sink);
    sink.cliques
}

fn plain_sorted(g: &Arc<BitGraph>) -> Vec<Vec<Vertex>> {
    let mut v = plain_ordered(g);
    v.sort();
    v
}

/// A real (small) checkpoint file to mutilate.
fn checkpoint_bytes(dir: &TempDirGuard) -> Vec<u8> {
    let g = planted(16, 0.15, &[Module::clique(5)], 3);
    let seq = CliqueEnumerator::default();
    let mut sink = CollectSink::default();
    let mut stats = EnumStats::default();
    let level = seq.init_level(&g, &mut sink, &mut stats);
    assert!(!level.sublists.is_empty());
    let path = dir.file("pristine.lvl");
    write_level(&path, &level).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let restored = read_level::<gsb_bitset::BitSet>(&path).unwrap();
    assert_eq!(restored.k, level.k);
    assert_eq!(restored.n_sublists(), level.n_sublists());
    bytes
}

#[test]
fn truncation_at_every_byte_offset_is_a_typed_error() {
    let dir = TempDirGuard::new("res-trunc");
    let full = checkpoint_bytes(&dir);
    let path = dir.file("truncated.lvl");
    // Every proper prefix — a crash mid-write can tear the file
    // anywhere — must produce Err, never a panic and never a
    // partially-believed level.
    for len in 0..full.len() {
        std::fs::write(&path, &full[..len]).unwrap();
        assert!(
            read_level::<gsb_bitset::BitSet>(&path).is_err(),
            "truncation at byte {len}/{} was accepted",
            full.len()
        );
    }
}

#[test]
fn single_bit_corruption_is_always_detected() {
    let dir = TempDirGuard::new("res-bitflip");
    let full = checkpoint_bytes(&dir);
    let path = dir.file("flipped.lvl");
    for byte in 0..full.len() {
        for bit in 0..8 {
            let mut bad = full.clone();
            bad[byte] ^= 1 << bit;
            std::fs::write(&path, &bad).unwrap();
            assert!(
                read_level::<gsb_bitset::BitSet>(&path).is_err(),
                "flip of bit {bit} in byte {byte} went undetected"
            );
        }
    }
}

#[test]
fn degraded_runs_match_in_core_runs_at_any_thread_count() {
    let _serial = serialize();
    // 64 bytes degrades at the first barrier. The dense graph's levels
    // grow, so 150 kB degrades at k = 4, after two parallel levels, and
    // about 1,700 maximal cliques come from the out-of-core tail. Either way
    // the level handed to the tail must be in the sequential order for
    // the emission to match.
    let growing = Arc::new(gnp(60, 0.5, 5));
    for (g, budget) in [(workload(), 64), (growing, 150_000)] {
        let expect = plain_ordered(&g);
        let expect_sorted = plain_sorted(&g);
        for threads in [1usize, 4] {
            let case = format!("n={} budget={budget} threads={threads}", g.n());
            let mut sink = CollectSink::default();
            let report = CliquePipeline::new()
                .min_size(3)
                .threads(threads)
                .memory_budget(budget)
                .try_run(&g, &mut sink)
                .expect("degraded run");
            assert!(report.degraded_at.is_some(), "{case}: never degraded");
            let mut got = sink.cliques.clone();
            got.sort();
            assert_eq!(got, expect_sorted, "{case}: cliques");
            assert_eq!(sink.cliques, expect, "{case}: emission order");
        }
    }
}

#[test]
fn orphaned_tmp_files_are_swept_at_manager_startup() {
    use gsb_core::checkpoint::{CheckpointConfig, CheckpointManager};
    let dir = TempDirGuard::new("res-sweep");
    // Every durable file in a checkpoint directory is written
    // tmp-then-rename, so any surviving `.tmp` is a torn write from a
    // crash and must be swept when the next manager opens the dir.
    std::fs::write(dir.file("ckpt-k00003.lvl.tmp"), b"torn").unwrap();
    std::fs::write(dir.file("run.meta.tmp"), b"torn").unwrap();
    std::fs::write(dir.file("ckpt-k00002.lvl"), b"durable").unwrap();
    let _mgr = CheckpointManager::new(CheckpointConfig::every_level(dir.path())).unwrap();
    assert!(!dir.file("ckpt-k00003.lvl.tmp").exists(), "orphan kept");
    assert!(!dir.file("run.meta.tmp").exists(), "orphan kept");
    assert!(
        dir.file("ckpt-k00002.lvl").exists(),
        "sweep must not touch durable files"
    );
}

#[test]
fn disk_budget_prunes_old_checkpoints_but_keeps_the_newest() {
    use gsb_core::checkpoint::{latest_checkpoint, CheckpointConfig, CheckpointManager};
    let dir = TempDirGuard::new("res-diskbudget");
    let g = workload();
    let seq = CliqueEnumerator::default();
    let mut sink = CollectSink::default();
    let mut stats = EnumStats::default();
    let mut level = seq.init_level(&g, &mut sink, &mut stats);
    // A 1-byte budget can never fit even one checkpoint: the manager
    // must degrade to keeping exactly the newest (the resume point),
    // never zero.
    let mut mgr =
        CheckpointManager::new(CheckpointConfig::every_level(dir.path()).disk_budget(1)).unwrap();
    let mut forced = Vec::new();
    while !level.is_empty() && forced.len() < 8 {
        mgr.force(&level).unwrap();
        forced.push(level.k);
        assert_eq!(
            mgr.written(),
            &[level.k],
            "budget must prune every checkpoint but the newest"
        );
        let lvl_files = std::fs::read_dir(dir.path())
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().ends_with(".lvl"))
            .count();
        assert_eq!(lvl_files, 1, "stale checkpoint files survived pruning");
        let (next, _) = seq.step(&g, level, &mut sink);
        level = next;
    }
    assert!(forced.len() >= 3, "workload too shallow: {forced:?}");
    // The survivor is the newest checkpoint and still loads.
    let (k, _) = latest_checkpoint::<gsb_bitset::BitSet>(dir.path(), g.n())
        .unwrap()
        .expect("the newest checkpoint must survive the budget");
    assert_eq!(Some(&k), forced.last());
}

#[cfg(feature = "failpoints")]
mod failpoints {
    use super::*;
    use gsb_core::checkpoint::{latest_checkpoint, CheckpointConfig};
    use gsb_core::failpoint::{FailAction, FailGuard};
    use gsb_core::sink::CliqueSink;
    use gsb_core::store::SpillConfig;
    use gsb_core::PipelineError;
    use std::panic::AssertUnwindSafe;
    use std::sync::{Arc, Mutex};
    use std::time::Duration;

    /// A sink whose collected cliques survive an unwinding panic — the
    /// in-process stand-in for the output a killed run left on disk.
    #[derive(Clone)]
    struct SharedSink(Arc<Mutex<Vec<Vec<Vertex>>>>);

    impl CliqueSink for SharedSink {
        fn maximal(&mut self, clique: &[Vertex]) {
            self.0
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push(clique.to_vec());
        }
    }

    #[test]
    fn spill_write_failure_is_a_typed_error() {
        let _serial = serialize();
        let dir = TempDirGuard::new("fp-spill");
        let _fp = FailGuard::new("spill.write", FailAction::error_always());
        let g = workload();
        let spill = SpillConfig {
            budget_bytes: 0, // force every level through the spill path
            dir: dir.path().to_path_buf(),
        };
        let err = CliqueEnumerator::default()
            .enumerate_spilled(&g, &mut CollectSink::default(), &spill)
            .unwrap_err();
        assert!(err.to_string().contains("failpoint"), "{err}");
    }

    #[test]
    fn checkpoint_write_failure_aborts_with_store_error() {
        let _serial = serialize();
        let dir = TempDirGuard::new("fp-ckpt-write");
        let _fp = FailGuard::new("checkpoint.write", FailAction::error_always());
        let g = workload();
        let err = CliquePipeline::new()
            .min_size(3)
            .checkpoint(CheckpointConfig::every_level(dir.path()))
            .try_run(&g, &mut CollectSink::default())
            .unwrap_err();
        assert!(matches!(err, PipelineError::Store(_)), "{err}");
    }

    #[test]
    fn memory_budget_probe_failure_aborts() {
        let _serial = serialize();
        let _fp = FailGuard::new("memory.budget", FailAction::error_always());
        let g = workload();
        let err = CliquePipeline::new()
            .min_size(3)
            .memory_budget(usize::MAX)
            .try_run(&g, &mut CollectSink::default())
            .unwrap_err();
        assert!(matches!(err, PipelineError::Store(_)), "{err}");
    }

    /// The acceptance scenario: kill the run at each successive level
    /// barrier (panic fires *after* the checkpoint is on disk), resume
    /// from the surviving files, and require the union of pre-crash and
    /// post-resume output to equal an uninterrupted run — at every
    /// single barrier.
    #[test]
    fn crash_at_every_barrier_resumes_to_identical_output() {
        let _serial = serialize();
        let g = workload();
        let expect = plain_sorted(&g);
        for (crashes, barrier) in (0..32).enumerate() {
            let dir = TempDirGuard::new("fp-barrier");
            let store = Arc::new(Mutex::new(Vec::new()));
            let mut sink = SharedSink(store.clone());
            let pipe = CliquePipeline::new()
                .min_size(3)
                .checkpoint(CheckpointConfig::every_level(dir.path()));
            let crashed = {
                let _fp = FailGuard::new("pipeline.barrier", FailAction::panic_after(barrier));
                std::panic::catch_unwind(AssertUnwindSafe(|| pipe.try_run(&g, &mut sink))).is_err()
            };
            if !crashed {
                // The run outlived the armed barrier index: every
                // barrier has now been crash-tested.
                assert!(crashes >= 2, "workload too shallow: {crashes} barriers");
                let mut got = store
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .clone();
                got.sort();
                assert_eq!(got, expect, "uncrashed control run diverged");
                return;
            }
            let (k, _) = latest_checkpoint::<gsb_bitset::BitSet>(dir.path(), g.n())
                .expect("checkpoint dir readable")
                .expect("crash left no checkpoint");
            let mut post = CollectSink::default();
            let report = pipe.resume(&g, &mut post).expect("resume");
            assert_eq!(report.resumed_from, Some(k));
            assert!(post.cliques.iter().all(|c| c.len() > k));
            let pre = store
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .clone();
            let mut combined: Vec<Vec<Vertex>> = pre
                .into_iter()
                .filter(|c| c.len() <= k)
                .chain(post.cliques)
                .collect();
            combined.sort();
            assert_eq!(combined, expect, "barrier {barrier} (checkpoint level {k})");
        }
        panic!("run never completed: more than 32 barriers?");
    }

    /// A stall that lands once: the worker misses its deadline, the
    /// epoch is discarded and re-run from the level snapshot, and the
    /// retry succeeds — nothing is quarantined and the output is exact.
    #[test]
    fn one_shot_stall_past_the_deadline_retries_the_level() {
        let _serial = serialize();
        let dir = TempDirGuard::new("fp-stall-once");
        let g = workload();
        let expect = plain_sorted(&g);
        let victim = richest_sublist(&g, &CliqueEnumerator::default());
        let mut sink = CollectSink::default();
        let report = {
            let _fp = FailGuard::tagged(
                "parallel.sublist",
                &prefix_tag(&victim),
                FailAction::Delay {
                    skip: 0,
                    times: 1,
                    ms: 1_000,
                },
            );
            CliquePipeline::new()
                .min_size(3)
                .threads(4)
                .checkpoint(CheckpointConfig::every_level(dir.path()))
                .worker_deadline(Duration::from_millis(150))
                .try_run(&g, &mut sink)
                .expect("a transient stall must not fail the run")
        };
        let stats = report.parallel_stats.expect("parallel run");
        // The victim sits in the level whose sub-lists have its prefix
        // length plus one vertex per clique.
        let k = victim.prefix.len() + 1;
        assert_eq!(stats.retried_levels, vec![k]);
        assert_eq!(stats.quarantined, 0);
        let mut got = sink.cliques;
        got.sort();
        assert_eq!(got, expect);
    }

    /// A stall that never clears, with no quarantine sidecar: the
    /// level's retry misses the deadline again, so the run fails with a
    /// typed deadline failure — after writing a final checkpoint of the
    /// failed level, so it is resumable once the fault is gone.
    #[test]
    fn persistent_stall_without_a_sidecar_fails_and_leaves_a_checkpoint() {
        let _serial = serialize();
        let dir = TempDirGuard::new("fp-stall-always");
        let g = workload();
        let victim = richest_sublist(&g, &CliqueEnumerator::default());
        let err = {
            let _fp = FailGuard::tagged(
                "parallel.sublist",
                &prefix_tag(&victim),
                FailAction::Delay {
                    skip: 0,
                    times: u32::MAX,
                    ms: 2_000,
                },
            );
            CliquePipeline::new()
                .min_size(3)
                .threads(4)
                .checkpoint(CheckpointConfig::every_level(dir.path()))
                .worker_deadline(Duration::from_millis(150))
                .try_run(&g, &mut CollectSink::default())
                .unwrap_err()
        };
        let PipelineError::Workers { k, error } = err else {
            panic!("expected Workers error, got: {err}");
        };
        assert_eq!(k, victim.prefix.len() + 1);
        assert!(
            error.failures.iter().any(|f| f.deadline),
            "the failure must be the missed deadline: {error}"
        );
        let (k_ckpt, _) = latest_checkpoint::<gsb_bitset::BitSet>(dir.path(), g.n())
            .expect("checkpoint dir readable")
            .expect("no final checkpoint after the stall");
        assert_eq!(k_ckpt, k);
    }

    #[test]
    fn worker_panic_under_steal_is_retried_per_task() {
        let _serial = serialize();
        let dir = TempDirGuard::new("fp-worker-once-steal");
        let g = workload();
        let expect = plain_sorted(&g);
        let _fp = FailGuard::new("parallel.worker", FailAction::panic_once());
        let mut sink = CollectSink::default();
        let report = CliquePipeline::new()
            .min_size(3)
            .threads(4)
            .checkpoint(CheckpointConfig::every_level(dir.path()))
            .try_run(&g, &mut sink)
            .expect("transient worker panic must not fail the run");
        let stats = report.parallel_stats.expect("parallel run");
        // The poisoned task is retried inline instead of replaying the
        // whole level: the task counter moves, the level counter stays
        // empty.
        assert!(
            stats.retried_tasks > 0,
            "panic was injected but no task was retried"
        );
        assert!(
            stats.retried_levels.is_empty(),
            "a single transient panic must not cost a level replay"
        );
        let mut got = sink.cliques;
        got.sort();
        assert_eq!(got, expect);
    }

    #[test]
    fn persistent_worker_panic_fails_but_leaves_a_checkpoint() {
        let _serial = serialize();
        let dir = TempDirGuard::new("fp-worker-always");
        let g = workload();
        let _fp = FailGuard::new("parallel.worker", FailAction::panic_always());
        let err = CliquePipeline::new()
            .min_size(3)
            .threads(4)
            .checkpoint(CheckpointConfig::every_level(dir.path()))
            .try_run(&g, &mut CollectSink::default())
            .unwrap_err();
        let PipelineError::Workers { k, error } = err else {
            panic!("expected Workers error, got: {err}");
        };
        assert!(!error.failures.is_empty());
        // The abort wrote a final checkpoint of the failed level: the
        // run is resumable once the fault is gone.
        let (k_ckpt, _) = latest_checkpoint::<gsb_bitset::BitSet>(dir.path(), g.n())
            .expect("checkpoint dir readable")
            .expect("no final checkpoint after worker abort");
        assert_eq!(k_ckpt, k);
    }

    /// Every fallible write site: one transient error must be absorbed
    /// by the backoff retry with the output unchanged; a persistent
    /// error must exhaust the retry budget and surface as a typed
    /// storage error — never a panic, never silent corruption.
    #[test]
    fn every_write_site_retries_transient_errors_and_types_persistent_ones() {
        let _serial = serialize();
        let g = workload();
        let expect = plain_sorted(&g);
        let run = |site: &str| -> Result<Vec<Vec<Vertex>>, PipelineError> {
            let dir = TempDirGuard::new("fp-io-site");
            let mut sink = CollectSink::default();
            if site == "spill.write" {
                let spill = SpillConfig {
                    budget_bytes: 0, // force every level through the spill path
                    dir: dir.path().to_path_buf(),
                };
                CliqueEnumerator::default()
                    .enumerate_spilled(&g, &mut sink, &spill)
                    .map_err(PipelineError::Store)?;
            } else {
                CliquePipeline::new()
                    .min_size(3)
                    .checkpoint(CheckpointConfig::every_level(dir.path()))
                    .try_run(&g, &mut sink)?;
            }
            let mut got = sink.cliques;
            got.sort();
            Ok(got)
        };
        for site in ["spill.write", "checkpoint.write", "checkpoint.meta"] {
            let retries_before = gsb_core::supervise::io_retries();
            let got = {
                let _fp = FailGuard::new(site, FailAction::error_once());
                run(site).unwrap_or_else(|e| panic!("{site}: transient error not retried: {e}"))
            };
            assert_eq!(got, expect, "{site}: output changed after a retried error");
            assert!(
                gsb_core::supervise::io_retries() > retries_before,
                "{site}: the retry counter never moved"
            );
            let err = {
                let _fp = FailGuard::new(site, FailAction::error_always());
                run(site).expect_err("a persistent write failure cannot succeed")
            };
            assert!(matches!(err, PipelineError::Store(_)), "{site}: {err}");
            assert!(err.to_string().contains("failpoint"), "{site}: {err}");
        }
    }

    /// The sub-list whose solo re-enumeration contributes the most
    /// maximal cliques — a victim that provably owns descendants.
    fn richest_sublist(
        g: &BitGraph,
        seq: &CliqueEnumerator,
    ) -> gsb_core::SubList<gsb_bitset::BitSet> {
        let mut stats = EnumStats::default();
        let init = seq.init_level(g, &mut CollectSink::default(), &mut stats);
        init.sublists
            .iter()
            .max_by_key(|sl| {
                let mut sink = CollectSink::default();
                seq.enumerate_from_level(
                    g,
                    gsb_core::Level {
                        k: init.k,
                        sublists: vec![(*sl).clone()],
                    },
                    &mut sink,
                );
                sink.cliques.len()
            })
            .expect("workload has sub-lists")
            .clone()
    }

    fn prefix_tag(sl: &gsb_core::SubList<gsb_bitset::BitSet>) -> String {
        sl.prefix
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("-")
    }

    /// A first level wide enough that a 4-thread run cuts it into runs
    /// of several sub-lists each (`workload`'s level has fewer
    /// sub-lists than runs, so each of its runs is one sub-list). The
    /// richest sub-list's run here holds sub-lists before and after it
    /// that own maximal cliques.
    fn wide_workload() -> Arc<BitGraph> {
        Arc::new(planted(
            1000,
            0.012,
            &[Module::clique(7), Module::clique(5)],
            11,
        ))
    }

    /// The poisoning tests' graphs and victims. On `workload` every
    /// 4-thread steal run is a single sub-list; on `wide_workload` the
    /// victim is lighter than a run's share of its level, so its run
    /// holds healthy sub-lists whose output must survive the
    /// conviction.
    fn victim_cases() -> [(Arc<BitGraph>, gsb_core::SubList<gsb_bitset::BitSet>); 2] {
        let seq = CliqueEnumerator::default();
        let wide = wide_workload();
        let victim = richest_sublist(&wide, &seq);
        let level = seq.init_level(
            &wide,
            &mut CollectSink::default(),
            &mut EnumStats::default(),
        );
        let cost: u64 = level.sublists.iter().map(gsb_core::SubList::cost).sum();
        let runs = 4 * gsb_core::parallel::RUNS_PER_WORKER as u64;
        assert!(
            victim.cost() * runs < cost,
            "the wide victim is heavy enough to be a run alone"
        );
        let small = workload();
        let small_victim = richest_sublist(&small, &seq);
        [(small, small_victim), (wide, victim)]
    }

    /// The full quarantine round-trip: a deterministically poisoned
    /// sub-list is skipped (the run completes), logged to the sidecar,
    /// surfaced in the stats, and re-enumerating exactly the recorded
    /// prefix recovers precisely the missing cliques.
    #[test]
    fn quarantined_sublist_is_skipped_logged_and_recoverable() {
        let _serial = serialize();
        let seq = CliqueEnumerator::default();
        for (g, victim) in victim_cases() {
            let n = g.n();
            let dir = TempDirGuard::new("fp-quarantine");
            let expect = plain_sorted(&g);
            let tag = prefix_tag(&victim);
            let qpath = dir.file("quarantine.jsonl");
            let mut sink = CollectSink::default();
            let report = {
                let _fp = FailGuard::tagged("parallel.sublist", &tag, FailAction::panic_always());
                CliquePipeline::new()
                    .min_size(3)
                    .threads(4)
                    .checkpoint(CheckpointConfig::every_level(dir.path()))
                    .quarantine(qpath.clone())
                    .try_run(&g, &mut sink)
                    .expect("quarantine mode must complete despite the poison sub-list")
            };
            let stats = report.parallel_stats.expect("parallel run");
            assert_eq!(
                stats.quarantined, 1,
                "n={n}: exactly the victim is quarantined"
            );
            let entries = gsb_core::quarantine::load_entries(&qpath).unwrap();
            assert_eq!(entries.len(), 1);
            assert_eq!(entries[0].prefix, victim.prefix);
            assert!(
                entries[0].reason.contains("failpoint"),
                "reason must carry the panic message: {:?}",
                entries[0].reason
            );
            let mut got = sink.cliques;
            got.sort();
            assert_ne!(
                got, expect,
                "n={n}: the victim owned descendants; some must be missing"
            );
            // Degraded-exact: everything emitted is a real maximal clique.
            assert!(
                got.iter().all(|c| expect.binary_search(c).is_ok()),
                "n={n}: quarantine run emitted a clique the clean run does not have"
            );
            // Re-enumerate exactly the recorded work unit; no dedup
            // below, so the recovery must also not double-emit anything.
            let mut recovered = CollectSink::default();
            seq.enumerate_from_level(
                &g,
                gsb_core::Level {
                    k: entries[0].k as usize,
                    sublists: entries
                        .iter()
                        .map(|e| e.to_sublist::<gsb_bitset::BitSet>(&g))
                        .collect(),
                },
                &mut recovered,
            );
            assert!(!recovered.cliques.is_empty());
            got.extend(recovered.cliques);
            got.sort();
            assert_eq!(
                got, expect,
                "n={n}: re-enumerating the quarantined prefix must recover exactly the loss"
            );
        }
    }

    /// A worker that stops making progress (here: wedged by an
    /// injected stall far beyond the deadline) is detected via missed
    /// heartbeats. The level's retry stalls again, the failure names
    /// the sub-list, that sub-list alone is quarantined, and the run
    /// completes.
    #[test]
    fn stuck_worker_misses_its_deadline_and_is_quarantined() {
        let _serial = serialize();
        let seq = CliqueEnumerator::default();
        for (g, victim) in victim_cases() {
            let n = g.n();
            let dir = TempDirGuard::new("fp-deadline");
            let expect = plain_sorted(&g);
            let tag = prefix_tag(&victim);
            let qpath = dir.file("quarantine.jsonl");
            let mut sink = CollectSink::default();
            let report = {
                let _fp = FailGuard::tagged(
                    "parallel.sublist",
                    &tag,
                    FailAction::Delay {
                        skip: 0,
                        times: u32::MAX,
                        ms: 2_000,
                    },
                );
                CliquePipeline::new()
                    .min_size(3)
                    .threads(4)
                    .checkpoint(CheckpointConfig::every_level(dir.path()))
                    .quarantine(qpath.clone())
                    .worker_deadline(Duration::from_millis(150))
                    .try_run(&g, &mut sink)
                    .expect("a wedged sub-list must be quarantined, not hang the run")
            };
            let stats = report.parallel_stats.expect("parallel run");
            assert_eq!(stats.quarantined, 1, "n={n}");
            let entries = gsb_core::quarantine::load_entries(&qpath).unwrap();
            assert_eq!(entries.len(), 1);
            assert_eq!(
                entries[0].prefix, victim.prefix,
                "n={n}: wrong sub-list named"
            );
            assert!(
                entries[0].reason.contains("deadline"),
                "reason must name the missed deadline: {:?}",
                entries[0].reason
            );
            // Degraded-exact, and the loss is recoverable as usual.
            let mut got = sink.cliques;
            let mut recovered = CollectSink::default();
            seq.enumerate_from_level(
                &g,
                gsb_core::Level {
                    k: entries[0].k as usize,
                    sublists: vec![entries[0].to_sublist::<gsb_bitset::BitSet>(&g)],
                },
                &mut recovered,
            );
            got.extend(recovered.cliques);
            got.sort();
            assert_eq!(got, expect, "n={n}");
        }
    }

    /// Graceful shutdown: a requested signal halts the run at the next
    /// barrier with `PipelineError::Interrupted`, a forced checkpoint,
    /// and the stop cause on record — and resuming completes the run
    /// to byte-identical output, on both drivers.
    #[test]
    fn shutdown_request_halts_with_checkpoint_and_resumes_identically() {
        let _serial = serialize();
        use gsb_core::checkpoint::{load_stop_cause, StopCause};
        use gsb_core::ShutdownToken;
        let g = workload();
        let expect = plain_sorted(&g);
        for threads in [1usize, 4] {
            let dir = TempDirGuard::new("fp-shutdown");
            let token = ShutdownToken::new();
            token.request(2); // SIGINT, before the first barrier
            let mut pre = CollectSink::default();
            let err = CliquePipeline::new()
                .min_size(3)
                .threads(threads)
                .checkpoint(CheckpointConfig::every_level(dir.path()))
                .shutdown(token)
                .try_run(&g, &mut pre)
                .expect_err("a requested shutdown must interrupt the run");
            assert!(
                matches!(err, PipelineError::Interrupted { signal: 2 }),
                "threads={threads}: {err}"
            );
            assert_eq!(
                load_stop_cause(dir.path()),
                Some(StopCause::Signal(2)),
                "threads={threads}: stop cause not on record"
            );
            // The halt forced a final checkpoint: the dir is
            // immediately resume-ready.
            let (k, _) = latest_checkpoint::<gsb_bitset::BitSet>(dir.path(), g.n())
                .expect("checkpoint dir readable")
                .expect("graceful shutdown must leave a checkpoint");
            let mut post = CollectSink::default();
            let report = CliquePipeline::new()
                .min_size(3)
                .threads(threads)
                .checkpoint(CheckpointConfig::every_level(dir.path()))
                .resume(&g, &mut post)
                .expect("resume after graceful shutdown");
            assert_eq!(report.resumed_from, Some(k));
            let mut combined: Vec<Vec<Vertex>> = pre
                .cliques
                .into_iter()
                .filter(|c| c.len() <= k)
                .chain(post.cliques)
                .collect();
            combined.sort();
            assert_eq!(combined, expect, "threads={threads}");
        }
    }
}
