//! Ablation A2: scheduling disciplines for the parallel run.
//!
//! Times the real work-stealing runtime on 4 threads, then compares
//! disciplines as virtual-processor makespans over the same measured
//! costs on 16 processors: the paper's LPT planner, a static
//! round-robin partition, and online work stealing. The virtual runs
//! isolate the policy from host-core contention.

use gsb_bench::timer::bench;
use gsb_core::sink::CountSink;
use gsb_core::{CliqueEnumerator, EnumConfig, ParallelConfig, ParallelEnumerator};
use gsb_graph::generators::{planted, Module};
use gsb_par::vsim::{SimConfig, Strategy, VirtualScheduler};
use std::sync::Arc;

fn main() {
    // Skewed module sizes: exactly the load shape that needs balancing.
    let g = Arc::new(planted(
        350,
        0.01,
        &[
            Module::clique(14),
            Module::clique(8),
            Module::clique(6),
            Module::clique(5),
        ],
        11,
    ));
    let enumerator = ParallelEnumerator::new(ParallelConfig {
        threads: 4,
        ..Default::default()
    });
    bench("balance_real_4threads/work_stealing", || {
        let mut sink = CountSink::default();
        enumerator.enumerate(&g, &mut sink);
        sink.count
    });

    // Virtual comparison: identical measured costs, different policies.
    let mut sink = CountSink::default();
    let stats = CliqueEnumerator::new(EnumConfig {
        record_costs: true,
        ..Default::default()
    })
    .enumerate(&g, &mut sink);
    let costs = stats.costs_ns().expect("recorded");
    for (name, strategy) in [
        ("lpt", Strategy::Lpt),
        ("static", Strategy::Static),
        ("steal", Strategy::Steal),
    ] {
        let vs = VirtualScheduler::new(
            costs.clone(),
            SimConfig {
                strategy,
                ..SimConfig::default()
            },
        );
        bench(&format!("balance_virtual_16procs/{name}"), || {
            vs.run(16).total_ns
        });
    }
}
