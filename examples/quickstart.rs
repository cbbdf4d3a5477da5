//! Quickstart: enumerate all maximal cliques of a small graph in
//! non-decreasing size order, with bounds.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use gsb::core::{CliquePipeline, CollectSink};
use gsb::graph::generators::{planted, Module};
use std::sync::Arc;

fn main() {
    // A sparse 60-vertex background with two planted modules, the kind
    // of structure a thresholded gene-correlation graph exhibits.
    let g = Arc::new(planted(
        60,
        0.03,
        &[Module::clique(8), Module::clique(6)],
        42,
    ));
    println!("graph: {} vertices, {} edges", g.n(), g.m());

    // Stage 1+2+3 of the SC'05 pipeline: bound the clique sizes, seed
    // at the lower bound, enumerate maximal cliques levelwise.
    let mut sink = CollectSink::default();
    let report = CliquePipeline::new()
        .min_size(4) // the paper's Init_K
        .run(&g, &mut sink);

    println!(
        "upper bound {:?}, exact maximum clique {:?}",
        report.upper_bound, report.maximum_clique
    );
    println!("maximal cliques of size >= 4, non-decreasing:");
    for clique in &sink.cliques {
        println!("  size {:2}: {:?}", clique.len(), clique);
    }

    let stats = report.enum_stats.expect("sequential run");
    println!(
        "levels: {}, peak candidate memory (paper formula): {} bytes",
        stats.levels.len(),
        stats.peak_formula_bytes()
    );
}
