//! Deterministic chaos harness: sweep hundreds of seeded fault
//! schedules ([`gsb_core::failpoint::chaos_schedule`]) over a
//! checkpointed enumeration and require every single one to converge
//! to output identical to a fault-free run.
//!
//! Each schedule arms a randomized mix of panics, injected I/O errors,
//! and stalls across every production failpoint site. The harness
//! plays the operator: run, and whenever the run dies (unwound panic
//! or a typed error), reconcile the collected output against the
//! newest checkpoint exactly the way `gsb resume` reconciles its
//! output file, then resume — or restart from scratch when the crash
//! predates the first checkpoint. Schedules bound every action's
//! repeat count, so the loop always converges.
//!
//! Run with:
//! `cargo test -p gsb-core --test chaos --features failpoints`

#![cfg(feature = "failpoints")]

mod util;

use gsb_core::checkpoint::{latest_checkpoint, CheckpointConfig};
use gsb_core::failpoint::{self, chaos_schedule};
use gsb_core::sink::{CliqueSink, CollectSink};
use gsb_core::{CliquePipeline, Vertex};
use gsb_graph::generators::{planted, Module};
use gsb_graph::BitGraph;
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Mutex};
use util::TempDirGuard;

/// How many seeded schedules the sweep covers (the acceptance floor is
/// 200; a few extra cost little).
const SCHEDULES: u64 = 224;

/// Attempt ceiling per schedule: every failed attempt consumes at
/// least one armed hit, and a schedule arms at most 6 sites x 2 hits,
/// so a convergent run needs at most 13 attempts. Hitting this bound
/// means the runtime looped without making progress.
const MAX_ATTEMPTS: u32 = 20;

fn workload() -> Arc<BitGraph> {
    // Slightly bigger than the resilience-suite workload: more levels
    // means more barriers, checkpoints, and epochs for a schedule to
    // bite on, while a ~50-vertex graph keeps 200+ sweeps fast.
    Arc::new(planted(
        48,
        0.12,
        &[Module::clique(8), Module::clique(6)],
        11,
    ))
}

fn plain_sorted(g: &Arc<BitGraph>) -> Vec<Vec<Vertex>> {
    let mut sink = CollectSink::default();
    CliquePipeline::new().min_size(3).run(g, &mut sink);
    let mut v = sink.cliques;
    v.sort();
    v
}

/// A sink whose collected cliques survive an unwinding panic — the
/// in-process stand-in for the durable output file a killed run
/// leaves behind.
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

/// Drive one seeded schedule to completion; returns how many attempts
/// died before the run converged.
fn run_schedule(seed: u64, g: &Arc<BitGraph>, expect: &[Vec<Vertex>]) -> u32 {
    failpoint::reset_all();
    let schedule = chaos_schedule(seed);
    for &(site, action) in &schedule {
        failpoint::configure(site, action);
    }
    let dir = TempDirGuard::new("chaos");
    // Alternate drivers so the sweep covers both the sequential and
    // the supervised parallel paths.
    let threads = if seed.is_multiple_of(2) { 1 } else { 4 };
    // An unreachable memory budget keeps the budget probe (and its
    // failpoint site) on the hot path without ever degrading.
    let pipe = CliquePipeline::new()
        .min_size(3)
        .threads(threads)
        .skip_exact_bound()
        .memory_budget(usize::MAX)
        .checkpoint(CheckpointConfig::every_level(dir.path()));
    // The model of the durable output file `gsb resume` reconciles.
    let mut output: Vec<Vec<Vertex>> = Vec::new();
    let mut resume = false;
    let mut failures = 0u32;
    for _attempt in 0..MAX_ATTEMPTS {
        let store = Arc::new(Mutex::new(Vec::new()));
        let mut sink = SharedSink(store.clone());
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            if resume {
                pipe.resume(g, &mut sink)
            } else {
                pipe.try_run(g, &mut sink)
            }
        }));
        let collected: Vec<Vec<Vertex>> = std::mem::take(
            &mut *store
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        match result {
            Ok(Ok(_report)) => {
                output.extend(collected);
                output.sort();
                assert_eq!(
                    output, expect,
                    "seed {seed} (schedule {schedule:?}, threads {threads}) \
                     diverged after {failures} failure(s)"
                );
                failpoint::reset_all();
                return failures;
            }
            Ok(Err(_)) | Err(_) => {
                failures += 1;
                // Reconcile exactly like the CLI: everything at or
                // below the checkpoint cut is durable, everything
                // above it will be re-emitted by the resumed run.
                match latest_checkpoint::<gsb_bitset::BitSet>(dir.path(), g.n()) {
                    Ok(Some((k, _))) => {
                        output.extend(collected);
                        output.retain(|c| c.len() <= k);
                        resume = true;
                    }
                    // Died before the first checkpoint (or every
                    // candidate is unusable): nothing durable exists,
                    // start over from scratch.
                    Ok(None) | Err(_) => {
                        output.clear();
                        resume = false;
                    }
                }
            }
        }
    }
    panic!(
        "seed {seed}: no convergence after {MAX_ATTEMPTS} attempts \
         (schedule {schedule:?}, threads {threads})"
    );
}

/// The tentpole acceptance sweep: 200+ seeded fault schedules, every
/// one converging to byte-identical output. A single test function
/// (failpoints are process-global) in its own binary, so it cannot
/// race the resilience suite.
#[test]
fn every_seeded_fault_schedule_converges_to_identical_output() {
    let g = workload();
    let expect = plain_sorted(&g);
    assert!(expect.len() > 20, "workload too trivial to stress");
    let mut total_failures = 0u32;
    let mut disturbed_seeds = 0u32;
    for seed in 0..SCHEDULES {
        let failures = run_schedule(seed, &g, &expect);
        total_failures += failures;
        if failures > 0 {
            disturbed_seeds += 1;
        }
    }
    // The sweep must actually exercise the recovery machinery, not
    // vacuously pass because no armed site ever fired.
    assert!(
        u64::from(disturbed_seeds) >= SCHEDULES / 8,
        "only {disturbed_seeds}/{SCHEDULES} schedules caused a failure \
         ({total_failures} total) — the harness is not biting"
    );
}
