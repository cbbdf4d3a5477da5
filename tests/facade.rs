//! Smoke tests of the facade crate: every re-exported subsystem is
//! reachable through `gsb::` and the prelude compiles as documented.

use gsb::prelude::*;

#[test]
fn prelude_covers_the_main_pipeline() {
    // graph -> cliques
    let g = std::sync::Arc::new(BitGraph::from_edges(
        5,
        [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)],
    ));
    let mut sink = CollectSink::default();
    CliquePipeline::new().min_size(3).run(&g, &mut sink);
    assert_eq!(sink.cliques, vec![vec![0, 1, 2]]);

    // expression -> correlation
    let m = ExpressionMatrix::from_rows(2, 4, vec![1., 2., 3., 4., 2., 4., 6., 8.]);
    let corr = pearson_matrix(&m);
    assert!((corr.get(0, 1) - 1.0).abs() < 1e-12);

    // alignment
    let al = global_align(b"ACGT", b"ACGT", &Scoring::default());
    assert_eq!(al.identity(), 1.0);

    // motif discovery: with d = 0 a motif is an exact 7-mer occurring
    // in >= q sequences, so both sequences must contain GATTACA
    // verbatim (the old second sequence TTGATTACTT has only the
    // windows TTGATTA/TGATTAC/GATTACT/ATTACTT — none is GATTACA).
    let seqs = vec![b"AAGATTACAA".to_vec(), b"TTGATTACATT".to_vec()];
    let found = find_motifs(&seqs, &MotifParams { l: 7, d: 0, q: 2 });
    assert!(found.iter().any(|m| m.consensus == b"GATTACA".to_vec()));

    // pathway alignment
    let pw = align_pathways(
        &["a", "b"],
        &["a", "b"],
        |x, y| if x == y { 1.0 } else { -1.0 },
        -1.0,
    );
    assert_eq!(pw.matches().len(), 2);

    // bit-level substrate
    let bits = BitSet::from_ones(10, [1, 3]);
    assert_eq!(bits.count_ones(), 2);
}

#[test]
fn subsystem_modules_are_reachable() {
    assert_eq!(
        gsb::fpt::minimum_vertex_cover(&gsb::graph::BitGraph::new(3)).len(),
        0
    );
    let net = gsb::pathways::models::core_carbon();
    assert_eq!(net.n_reactions(), 12);
    let vs = gsb::par::VirtualScheduler::new(vec![vec![100; 4]], gsb::par::SimConfig::default());
    assert_eq!(vs.run(1).total_ns, 400);
    let msa = gsb::align::progressive_msa(&[b"AC".to_vec()], &gsb::align::Scoring::default());
    assert_eq!(msa.width(), 2);
}
