//! End-to-end: synthetic microarray → normalize → Spearman → threshold
//! → clique enumeration must recover the planted co-regulated modules.
//! This is the paper's whole §3 pipeline as one assertion.

use gsb::core::paraclique::paraclique;
use gsb::core::{CliquePipeline, CollectSink};
use gsb::expr::normalize::{quantile_normalize, zscore_rows};
use gsb::expr::synth::SynthModule;
use gsb::expr::threshold::graph_at_density;
use gsb::expr::{spearman_matrix, SynthConfig};
use std::collections::BTreeSet;
use std::sync::Arc;

#[test]
fn planted_modules_come_back_as_cliques() {
    let cfg = SynthConfig {
        genes: 200,
        conditions: 50,
        modules: vec![
            SynthModule {
                size: 10,
                strength: 0.97,
            },
            SynthModule {
                size: 7,
                strength: 0.95,
            },
        ],
        noise: 1.0,
        seed: 99,
    };
    let (mut matrix, truth) = cfg.generate();
    quantile_normalize(&mut matrix);
    zscore_rows(&mut matrix);
    let corr = spearman_matrix(&matrix);
    let (graph, tau) = graph_at_density(&corr, 0.006);
    let graph = Arc::new(graph);
    assert!(tau > 0.3, "threshold suspiciously low: {tau}");

    let mut sink = CollectSink::default();
    let report = CliquePipeline::new().min_size(6).run(&graph, &mut sink);
    assert!(report.maximum_clique.unwrap() >= 10);

    // The strongest planted module must be contained in some reported
    // clique (possibly grown by correlated noise).
    for module in &truth {
        let want: BTreeSet<u32> = module.iter().map(|&g| g as u32).collect();
        if want.len() < 6 {
            continue;
        }
        let hit = sink.cliques.iter().any(|c| {
            let have: BTreeSet<u32> = c.iter().copied().collect();
            want.intersection(&have).count() >= want.len() - 1
        });
        assert!(hit, "module {module:?} not recovered");
    }
}

#[test]
fn paraclique_recovers_eroded_module_pipeline() {
    // Weaker coherence erodes edges; the paraclique glom wins them back.
    let cfg = SynthConfig {
        genes: 150,
        conditions: 60,
        modules: vec![SynthModule {
            size: 12,
            strength: 0.9,
        }],
        noise: 1.0,
        seed: 7,
    };
    let (mut matrix, truth) = cfg.generate();
    zscore_rows(&mut matrix);
    let corr = spearman_matrix(&matrix);
    let (graph, _) = graph_at_density(&corr, 0.008);
    let graph = Arc::new(graph);

    let mut sink = CollectSink::default();
    CliquePipeline::new().min_size(5).run(&graph, &mut sink);
    let top = sink.cliques.last().expect("some clique found").clone();
    let pc = paraclique(&graph, &top, 0.8);
    assert!(pc.len() >= top.len());

    let want: BTreeSet<u32> = truth[0].iter().map(|&g| g as u32).collect();
    let have: BTreeSet<u32> = pc.iter().copied().collect();
    let recovered = want.intersection(&have).count();
    assert!(
        recovered * 2 >= want.len(),
        "paraclique recovered only {recovered}/{} module genes",
        want.len()
    );
}

#[test]
fn pipeline_report_bounds_are_consistent() {
    let cfg = SynthConfig {
        genes: 120,
        conditions: 40,
        modules: vec![SynthModule {
            size: 8,
            strength: 0.95,
        }],
        noise: 1.0,
        seed: 3,
    };
    let (mut matrix, _) = cfg.generate();
    zscore_rows(&mut matrix);
    let corr = spearman_matrix(&matrix);
    let (graph, _) = graph_at_density(&corr, 0.01);
    let graph = Arc::new(graph);
    let mut sink = CollectSink::default();
    let report = CliquePipeline::new().min_size(3).run(&graph, &mut sink);
    let omega = report.maximum_clique.unwrap();
    assert!(report.upper_bound.is_some_and(|bound| omega <= bound));
    let biggest = sink.cliques.iter().map(Vec::len).max().unwrap_or(0);
    assert_eq!(biggest, omega);
}
