//! Correlation-to-graph filtering.
//!
//! The final pipeline stage: connect gene pairs whose |correlation|
//! clears a threshold. The paper chose thresholds yielding edge
//! densities of 0.008 %, 0.2 %, and 0.3 %; [`threshold_for_density`]
//! inverts that choice — given a target density, find the cutoff.
//!
//! Both passes read the packed matrix in place. The cut is the k-th
//! largest |ρ|, found without sorting or copying the matrix: one pass
//! counts every |ρ| into 2¹⁶ buckets, `⌊|ρ|·2¹⁶⌋` (capped at the last),
//! keeping each bucket's smallest and largest bit pattern. Multiplying
//! by a power of two is exact, so the bucket never decreases as |ρ|
//! grows, and walking the counts down from the top finds the one bucket
//! that holds the k-th largest. Bit patterns order as the values do
//! because |ρ| ≥ 0, so when that bucket's smallest and largest pattern
//! agree, that is the cut; on tied data it usually is. Otherwise one
//! more pass counts the bucket's patterns into 2¹⁶ sub-buckets by their
//! offset from its smallest, each pass narrowing the span 2¹⁶-fold until
//! one pattern is left. The result is the value a full sort would put at
//! position k; the extra memory is the three 2¹⁶-entry arrays, whatever
//! the matrix holds.

use crate::correlation::CorrelationMatrix;
use gsb_graph::BitGraph;

/// Buckets of the |ρ| histogram that locates the density cut, and of
/// each narrowing pass.
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

/// The `k`-th largest |v| (1-based, `0 < k <= vals.len()`), by the
/// histogram and narrowing passes of the module docs.
fn kth_largest_magnitude(vals: &[f64], k: usize) -> f64 {
    let mut hist = Histogram::new();
    for v in vals {
        let a = v.abs();
        assert!(!a.is_nan(), "NaN correlation");
        hist.add(
            ((a * BUCKETS as f64) as usize).min(BUCKETS - 1),
            a.to_bits(),
        );
    }
    let mut k = k;
    loop {
        let (b, above) = hist.locate(k);
        let (lo, hi) = (hist.low[b], hist.high[b]);
        if lo == hi {
            return f64::from_bits(lo);
        }
        k -= above;
        // Offsets below 2^width, cut to their top 16 bits.
        let width = u64::BITS - (hi - lo).leading_zeros();
        let shift = width.saturating_sub(BUCKETS.trailing_zeros());
        hist.clear();
        for v in vals {
            let bits = v.abs().to_bits();
            if (lo..=hi).contains(&bits) {
                hist.add(((bits - lo) >> shift) as usize, bits);
            }
        }
    }
}

/// A count per bucket, with the smallest and largest bit pattern each
/// bucket received.
struct Histogram {
    count: Vec<usize>,
    low: Vec<u64>,
    high: Vec<u64>,
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            count: vec![0; BUCKETS],
            low: vec![u64::MAX; BUCKETS],
            high: vec![0; BUCKETS],
        }
    }

    fn clear(&mut self) {
        self.count.fill(0);
        self.low.fill(u64::MAX);
        self.high.fill(0);
    }

    fn add(&mut self, bucket: usize, bits: u64) {
        self.count[bucket] += 1;
        self.low[bucket] = self.low[bucket].min(bits);
        self.high[bucket] = self.high[bucket].max(bits);
    }

    /// The bucket holding the `k`-th largest pattern counted, and how
    /// many patterns the buckets above it hold.
    fn locate(&self, k: usize) -> (usize, usize) {
        let (mut b, mut above) = (BUCKETS - 1, 0);
        while above + self.count[b] < k {
            above += self.count[b];
            b -= 1;
        }
        (b, above)
    }
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
        // 2,000 genes × 3 integer-valued conditions: at density 0.05 the
        // cut is |ρ| = 1, shared by 288,249 of the 1,999,000 pairs.
        let mut rng = gsb_rng::SplitMix64::new(5);
        let data = (0..2_000 * 3).map(|_| rng.below(3) as f64).collect();
        let corr =
            crate::correlation::spearman_matrix(&ExpressionMatrix::from_rows(2_000, 3, data));
        for target in [0.05, 0.3] {
            assert_eq!(
                threshold_for_density(&corr, target).to_bits(),
                by_sort(&corr, target).to_bits(),
                "2,000 × 3, target {target}"
            );
        }
    }

    #[test]
    fn narrowing_passes_select_inside_a_crowded_bucket() {
        // Thousands of distinct values inside one 2⁻¹⁶-wide bucket, with
        // ties, and spans from one pattern to the bucket's full width:
        // the narrowing passes must find what a sort finds.
        gsb_rng::sweep(20, |rng| {
            let base = rng.unit();
            let spread = [1e-15, 1e-12, 1e-8, 1.0 / BUCKETS as f64][rng.below(4)];
            let distinct = 1 + rng.below(3_000);
            let vals: Vec<f64> = (0..1 + rng.below(6_000))
                .map(|_| {
                    let v = base + spread * rng.below(distinct) as f64 / distinct as f64;
                    if rng.chance(0.5) {
                        -v
                    } else {
                        v
                    }
                })
                .collect();
            let mut sorted: Vec<f64> = vals.iter().map(|v| v.abs()).collect();
            sorted.sort_by(|a, b| b.total_cmp(a));
            for k in [1, vals.len() / 3, vals.len() / 2, vals.len()] {
                let k = k.max(1);
                assert_eq!(
                    kth_largest_magnitude(&vals, k).to_bits(),
                    sorted[k - 1].to_bits(),
                    "k = {k} of {}",
                    vals.len()
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
