//! Correlation-to-graph filtering.
//!
//! The final pipeline stage: connect gene pairs whose |correlation|
//! clears a threshold. The paper chose thresholds yielding edge
//! densities of 0.008 %, 0.2 %, and 0.3 %; [`threshold_for_density`]
//! inverts that choice — given a target density, find the cutoff.
//!
//! Both passes read the packed matrix in place. The cut is the k-th
//! largest |ρ|, found without sorting or copying the matrix: one pass
//! counts every |ρ| into 2¹⁶ buckets, `⌊|ρ|·2¹⁶⌋` (capped at the last).
//! Multiplying by a power of two is exact, so the bucket never
//! decreases as |ρ| grows, and walking the counts down from the top
//! finds the one bucket that holds the k-th largest. A second pass
//! collects that bucket's values and selects inside it on their bit
//! patterns, which order as the values do because |ρ| ≥ 0. The result
//! is the value a full sort would put at position k; the extra memory
//! is the counts and that one bucket's values.

use crate::correlation::CorrelationMatrix;
use gsb_graph::BitGraph;

/// Buckets of the |ρ| histogram that locates the density cut.
const BUCKETS: usize = 1 << 16;

/// Graph with an edge wherever `|r| >= tau`: one scan of the packed
/// matrix, row by row.
pub fn graph_from_correlation(corr: &CorrelationMatrix, tau: f64) -> BitGraph {
    let n = corr.n();
    let mut g = BitGraph::new(n);
    let mut rest = corr.values();
    for i in 0..n {
        let (row, tail) = rest.split_at(n - 1 - i);
        rest = tail;
        for (j, r) in (i + 1..).zip(row) {
            if r.abs() >= tau {
                g.add_edge(i, j);
            }
        }
    }
    g
}

/// The threshold that keeps `keep = ⌊target × pairs⌋` pairs: the |r| of
/// the keep-th strongest pair. Every pair tied with it at that |r|
/// passes too, so the graph can hold more than `keep` edges. A `keep`
/// of 0 yields a threshold just above the strongest pair (never
/// `f64::INFINITY`), a `keep` of every pair yields 0.0, and a matrix
/// with no pairs yields 1.0. Panics on a NaN correlation when the cut
/// must rank the values.
pub fn threshold_for_density(corr: &CorrelationMatrix, target: f64) -> f64 {
    assert!((0.0..=1.0).contains(&target), "density must be in [0,1]");
    let vals = corr.values();
    if vals.is_empty() {
        return 1.0;
    }
    let keep = (target * vals.len() as f64).floor() as usize;
    if keep == 0 {
        // nothing may pass: go just above the maximum
        let max = vals.iter().map(|r| r.abs()).fold(0.0f64, f64::max);
        return (max + f64::EPSILON).min(1.0 + f64::EPSILON);
    }
    if keep >= vals.len() {
        return 0.0;
    }
    kth_largest_magnitude(vals, keep)
}

/// The `k`-th largest |v| (1-based, `0 < k < vals.len()`), by the
/// histogram and in-bucket select of the module docs.
fn kth_largest_magnitude(vals: &[f64], k: usize) -> f64 {
    let bucket = |a: f64| ((a * BUCKETS as f64) as usize).min(BUCKETS - 1);
    let mut counts = vec![0usize; BUCKETS];
    for v in vals {
        let a = v.abs();
        assert!(!a.is_nan(), "NaN correlation");
        counts[bucket(a)] += 1;
    }
    let (mut b, mut above) = (BUCKETS - 1, 0);
    while above + counts[b] < k {
        above += counts[b];
        b -= 1;
    }
    let mut inside: Vec<u64> = vals
        .iter()
        .map(|v| v.abs())
        .filter(|&a| bucket(a) == b)
        .map(f64::to_bits)
        .collect();
    let (_, kth, _) = inside.select_nth_unstable_by(k - above - 1, |x, y| y.cmp(x));
    f64::from_bits(*kth)
}

/// Convenience: threshold for a density target, then build the graph.
pub fn graph_at_density(corr: &CorrelationMatrix, target: f64) -> (BitGraph, f64) {
    let tau = threshold_for_density(corr, target);
    (graph_from_correlation(corr, tau), tau)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::correlation::pearson_matrix;
    use crate::matrix::ExpressionMatrix;
    use crate::synth::{SynthConfig, SynthModule};

    fn small_corr() -> CorrelationMatrix {
        // 4 genes: 0,1 perfectly correlated; 2 anti-correlated with 0;
        // 3 noise-ish
        let m = ExpressionMatrix::from_rows(
            4,
            4,
            vec![
                1., 2., 3., 4., //
                2., 4., 6., 8., //
                4., 3., 2., 1., //
                1., 9., 2., 8.,
            ],
        );
        pearson_matrix(&m)
    }

    #[test]
    fn threshold_filters_edges() {
        let c = small_corr();
        let g = graph_from_correlation(&c, 0.999);
        // |r|=1 pairs: (0,1), (0,2), (1,2) — anti-correlation counts
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(0, 2));
        assert!(g.has_edge(1, 2));
        assert_eq!(g.m(), 3);
    }

    #[test]
    fn density_targeting() {
        let c = small_corr();
        let (g, tau) = graph_at_density(&c, 0.5);
        // 6 pairs, target 0.5 → 3 edges
        assert_eq!(g.m(), 3);
        assert!(tau > 0.9);
        let (g_all, tau0) = graph_at_density(&c, 1.0);
        assert_eq!(g_all.m(), 6);
        assert_eq!(tau0, 0.0);
        let (g_none, _) = graph_at_density(&c, 0.0);
        assert_eq!(g_none.m(), 0);
    }

    /// The cut as the former implementation took it: clone every |r|,
    /// sort descending, take position `keep`.
    fn by_sort(corr: &CorrelationMatrix, target: f64) -> f64 {
        let mut vals: Vec<f64> = corr.values().iter().map(|r| r.abs()).collect();
        if vals.is_empty() {
            return 1.0;
        }
        let keep = (target * vals.len() as f64).floor() as usize;
        if keep == 0 {
            let max = vals.iter().cloned().fold(0.0f64, f64::max);
            return (max + f64::EPSILON).min(1.0 + f64::EPSILON);
        }
        if keep >= vals.len() {
            return 0.0;
        }
        vals.sort_by(|a, b| b.partial_cmp(a).expect("NaN correlation"));
        vals[keep - 1]
    }

    #[test]
    fn histogram_select_equals_a_full_sort() {
        gsb_rng::sweep(24, |rng| {
            let genes = rng.below(40);
            // Three conditions leave Spearman a handful of values, so
            // ties at the cut are the rule; forty leave them rare.
            let c = [3, 5, 40][rng.below(3)];
            let data = (0..genes * c)
                .map(|_| match c {
                    3 => rng.below(3) as f64,
                    _ => rng.unit(),
                })
                .collect();
            let m = ExpressionMatrix::from_rows(genes, c, data);
            let corr = if rng.chance(0.5) {
                crate::correlation::spearman_matrix(&m)
            } else {
                pearson_matrix(&m)
            };
            let pairs = corr.pairs() as f64;
            let edge = |k: f64| (k / pairs.max(1.0)).min(1.0);
            for target in [0.0, edge(1.0), edge(2.0), 0.01, 0.3, 0.5, 1.0, rng.unit()] {
                let tau = threshold_for_density(&corr, target);
                assert_eq!(
                    tau.to_bits(),
                    by_sort(&corr, target).to_bits(),
                    "{genes} genes × {c}, target {target}"
                );
                let keep = (target * pairs).floor() as usize;
                let edges = graph_from_correlation(&corr, tau).m();
                let at_least = corr.values().iter().filter(|r| r.abs() >= tau).count();
                assert_eq!(edges, at_least);
                assert!(
                    edges >= keep.min(corr.pairs()),
                    "{edges} edges < keep {keep}"
                );
            }
        });
    }

    #[test]
    #[should_panic(expected = "NaN correlation")]
    fn a_nan_correlation_cannot_be_ranked() {
        let mut data = vec![1., 2., 3., 4., 2., 4., 6., 8., 4., 3., 2., 1.];
        data[5] = f64::NAN;
        let corr = pearson_matrix(&ExpressionMatrix::from_rows(3, 4, data));
        threshold_for_density(&corr, 0.5);
    }

    #[test]
    fn planted_module_becomes_clique() {
        // The end-to-end property the whole pipeline exists for: a
        // strongly co-regulated module thresholds into a clique.
        let cfg = SynthConfig {
            genes: 60,
            conditions: 40,
            modules: vec![SynthModule {
                size: 8,
                strength: 0.98,
            }],
            noise: 1.0,
            seed: 42,
        };
        let (m, memberships) = cfg.generate();
        let corr = pearson_matrix(&m);
        let g = graph_from_correlation(&corr, 0.7);
        let module = &memberships[0];
        for (a, &u) in module.iter().enumerate() {
            for &v in &module[a + 1..] {
                assert!(
                    g.has_edge(u, v),
                    "module pair ({u},{v}) lost: r={}",
                    corr.get(u, v)
                );
            }
        }
    }
}
