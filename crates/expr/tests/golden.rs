//! The §3 outputs pinned bit for bit: the threshold `graph_at_density`
//! picks and the edge list it writes, over both correlation kernels on
//! fixed seeded matrices. The digests were recorded before the kernels
//! were rewritten; a kernel or threshold change that moves one ρ bit at
//! the cut, or one edge, fails here.

use gsb_expr::normalize::zscore_rows;
use gsb_expr::threshold::graph_at_density;
use gsb_expr::{pearson_matrix, spearman_matrix, CorrelationMatrix, ExpressionMatrix};
use gsb_expr::{SynthConfig, SynthModule};

/// FNV-1a over the edge-list bytes: a stable digest with no dependency.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `(edges, tau bits, edge-list digest)` of `graph_at_density`.
fn outputs(corr: &CorrelationMatrix, density: f64) -> (usize, u64, u64) {
    let (g, tau) = graph_at_density(corr, density);
    let mut bytes = Vec::new();
    gsb_graph::io::write_edge_list(&g, &mut bytes).expect("write to a Vec");
    (g.m(), tau.to_bits(), fnv1a(&bytes))
}

/// `modules` planted modules of sizes 8 + k % 8, strength 0.9, noise 1.0.
fn synth(genes: usize, conditions: usize, modules: usize, seed: u64) -> ExpressionMatrix {
    SynthConfig {
        genes,
        conditions,
        modules: (0..modules)
            .map(|k| SynthModule {
                size: 8 + k % 8,
                strength: 0.9,
            })
            .collect(),
        noise: 1.0,
        seed,
    }
    .generate()
    .0
}

#[test]
fn forty_conditions_z_scored_as_perfbench_does() {
    let mut m = synth(800, 40, 20, 5);
    zscore_rows(&mut m);
    assert_eq!(
        outputs(&spearman_matrix(&m), 0.01),
        (3202, 0x3fdb_72fb_de92_3411, 0x4e5f_aecf_b9da_27f0),
        "spearman"
    );
    assert_eq!(
        outputs(&pearson_matrix(&m), 0.01),
        (3196, 0x3fdb_3d44_a0e0_5ded, 0x28ea_6372_ea09_af25),
        "pearson"
    );
}

/// Seven conditions make Spearman's ρ coarse, so many pairs tie at the
/// cut and every one of them must pass.
#[test]
fn seven_conditions_tie_at_the_cut() {
    let m = synth(500, 7, 12, 11);
    assert_eq!(
        outputs(&spearman_matrix(&m), 0.05),
        (8474, 0x3fe7_ffff_ffff_ffff, 0x4f81_7db2_6f2d_248a),
        "spearman"
    );
    assert_eq!(
        outputs(&pearson_matrix(&m), 0.05),
        (6237, 0x3fe8_5632_7b6e_0cf3, 0x649f_9d4f_7c99_6bec),
        "pearson"
    );
}

/// The paper's brain set at its own n: 12,422 genes × 40 conditions at
/// 0.2 % density. Minutes in a debug build, a few seconds in release:
/// `cargo test --release -p gsb-expr -- --ignored`.
#[test]
#[ignore = "paper scale; run in release with --ignored"]
fn paper_scale_brain_set() {
    let mut m = synth(12_422, 40, 50, 7);
    zscore_rows(&mut m);
    assert_eq!(
        outputs(&spearman_matrix(&m), 0.002),
        (154_570, 0x3fde_b0f1_4d85_3c3b, 0xdb73_dc2f_a1dc_f1e6)
    );
}
