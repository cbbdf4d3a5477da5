//! Kendall rank correlation (τ-b) and missing-data-aware Pearson.
//!
//! Spearman is the paper's "pairwise rank coefficient"; Kendall's τ-b
//! is the other standard rank coefficient microarray pipelines reach
//! for when outliers dominate, and real array data has missing probes —
//! handled here by pairwise-complete filtering.

use crate::correlation::{pearson, CorrelationMatrix};
use crate::matrix::ExpressionMatrix;

/// Kendall τ-b of two equal-length profiles (tie-corrected). Returns
/// 0.0 when either profile is constant.
pub fn kendall(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "profile length mismatch");
    let n = x.len();
    if n < 2 {
        return 0.0;
    }
    let (mut concordant, mut discordant) = (0i64, 0i64);
    let (mut ties_x, mut ties_y) = (0i64, 0i64);
    for i in 0..n {
        for j in i + 1..n {
            let dx = x[i] - x[j];
            let dy = y[i] - y[j];
            let tx = dx == 0.0;
            let ty = dy == 0.0;
            match (tx, ty) {
                (true, true) => {}
                (true, false) => ties_x += 1,
                (false, true) => ties_y += 1,
                (false, false) => {
                    if dx * dy > 0.0 {
                        concordant += 1;
                    } else {
                        discordant += 1;
                    }
                }
            }
        }
    }
    let n0 = concordant + discordant;
    let denom = (((n0 + ties_x) as f64) * ((n0 + ties_y) as f64)).sqrt();
    if denom == 0.0 {
        0.0
    } else {
        ((concordant - discordant) as f64 / denom).clamp(-1.0, 1.0)
    }
}

/// All-pairs Kendall τ-b, written in place (parallel over row ranges).
pub fn kendall_matrix(m: &ExpressionMatrix) -> CorrelationMatrix {
    CorrelationMatrix::packed(m.genes(), |i, row| {
        for (j, out) in (i + 1..).zip(row) {
            *out = kendall(m.row(i), m.row(j));
        }
    })
}

/// Pearson correlation over pairwise-complete observations: positions
/// where either profile is NaN are dropped. Returns 0.0 when fewer
/// than 3 complete pairs remain (too little data to correlate).
pub fn pearson_complete(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "profile length mismatch");
    let (mut xs, mut ys) = (Vec::new(), Vec::new());
    for (&a, &b) in x.iter().zip(y) {
        if !a.is_nan() && !b.is_nan() {
            xs.push(a);
            ys.push(b);
        }
    }
    if xs.len() < 3 {
        return 0.0;
    }
    pearson(&xs, &ys)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_orders() {
        let x = [1.0, 2.0, 3.0, 4.0];
        assert!((kendall(&x, &[10., 20., 30., 40.]) - 1.0).abs() < 1e-12);
        assert!((kendall(&x, &[40., 30., 20., 10.]) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn known_value() {
        // classic example: one discordant pair among six
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [1.0, 2.0, 4.0, 3.0];
        // C=5, D=1, tau = 4/6
        assert!((kendall(&x, &y) - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn ties_corrected() {
        let x = [1.0, 1.0, 2.0, 3.0];
        let y = [1.0, 2.0, 3.0, 4.0];
        let t = kendall(&x, &y);
        assert!(t > 0.0 && t < 1.0, "tau {t}");
        // constant profile -> 0
        assert_eq!(kendall(&[5.0; 4], &y), 0.0);
        assert_eq!(kendall(&[], &[]), 0.0);
    }

    #[test]
    fn monotone_invariance() {
        // tau depends only on orderings
        let x = [0.1, 0.5, 0.9, 1.7, 2.0];
        let y = [3.0, 1.0, 4.0, 1.5, 9.0];
        let fx: Vec<f64> = x.iter().map(|v: &f64| v.exp()).collect();
        assert!((kendall(&x, &y) - kendall(&fx, &y)).abs() < 1e-12);
    }

    #[test]
    fn matrix_matches_pairwise() {
        gsb_rng::sweep(16, |rng| {
            let (genes, c) = (rng.below(24), rng.below(12));
            // small integers, so both profiles tie
            let data = (0..genes * c).map(|_| rng.below(4) as f64).collect();
            let m = ExpressionMatrix::from_rows(genes, c, data);
            let t = kendall_matrix(&m);
            assert_eq!(t.pairs(), genes * genes.saturating_sub(1) / 2);
            for (i, j, r) in t.iter_pairs() {
                assert_eq!(r.to_bits(), kendall(m.row(i), m.row(j)).to_bits());
                assert_eq!(t.get(j, i), r);
            }
        });
    }

    #[test]
    fn pearson_complete_ignores_nan() {
        let x = [1.0, 2.0, f64::NAN, 4.0, 5.0];
        let y = [2.0, 4.0, 100.0, 8.0, 10.0];
        assert!((pearson_complete(&x, &y) - 1.0).abs() < 1e-12);
        // too few complete pairs
        let short = [1.0, f64::NAN, f64::NAN, f64::NAN, f64::NAN];
        assert_eq!(pearson_complete(&short, &y), 0.0);
    }
}
