//! All-pairs gene correlation, Pearson and Spearman.
//!
//! The O(n²·c) pairwise pass is the pipeline's embarrassingly parallel
//! stage. Each kernel does its per-gene work once and then one dot
//! product per pair, written in place into a packed upper triangle on
//! scoped threads ([`gsb_par::packed_upper`]): for the paper's
//! 12,422-gene dataset that triangle is ~617 MB of f64, the "very large
//! correlation matrices" of §4, and nothing else of that size is
//! allocated.
//!
//! Every ρ has the bits of the per-pair [`pearson`] / [`spearman`]:
//!
//! - Pearson centres each profile and takes its norm once; a pair then
//!   sums dx·dy in `pearson`'s order, from the same deviations.
//! - Spearman stores each gene's ranks doubled and centred,
//!   X = 2·rank − (c + 1), as small integers. `pearson` on average
//!   ranks computes the mean (c + 1)/2, every deviation, product and sum
//!   exactly, so its three sums are exactly ¼ of the integer ΣXY, ΣX²
//!   and ΣY². Scaling by a power of two passes unchanged through sqrt,
//!   multiply and divide, so ρ = ΣXY / (√ΣX² · √ΣY²) rounds to the same
//!   bits. The integer dot product is exact in any order while it fits
//!   i32: by Cauchy–Schwarz every partial sum is at most
//!   √(ΣX² · ΣY²) ≤ (c³ − c)/3, which holds up to c = 1,860. Past that
//!   the ranks go through the Pearson kernel, which is `pearson`'s own
//!   arithmetic.

use crate::matrix::ExpressionMatrix;
use crate::rank::average_ranks;
use gsb_par::packed_upper;

/// Symmetric gene–gene correlation matrix, packed upper triangle
/// (diagonal implicit at 1.0).
#[derive(Clone, Debug)]
pub struct CorrelationMatrix {
    n: usize,
    /// Entry for pair (i, j), i < j, at `i*n - i*(i+1)/2 + (j - i - 1)`.
    upper: Vec<f64>,
}

impl CorrelationMatrix {
    /// The matrix over `n` genes, filled in place on scoped threads:
    /// `row(i, out)` writes pair `(i, i + 1 + d)` to `out[d]`.
    pub(crate) fn packed(n: usize, row: impl Fn(usize, &mut [f64]) + Sync) -> Self {
        CorrelationMatrix {
            n,
            upper: packed_upper(n, row),
        }
    }

    /// Number of genes.
    pub fn n(&self) -> usize {
        self.n
    }

    #[inline]
    fn idx(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < j && j < self.n);
        i * self.n - i * (i + 1) / 2 + (j - i - 1)
    }

    /// Correlation of genes `i` and `j` (1.0 on the diagonal).
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        use std::cmp::Ordering;
        match i.cmp(&j) {
            Ordering::Equal => 1.0,
            Ordering::Less => self.upper[self.idx(i, j)],
            Ordering::Greater => self.upper[self.idx(j, i)],
        }
    }

    /// Iterate `(i, j, r)` over all pairs `i < j`.
    pub fn iter_pairs(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.n)
            .flat_map(move |i| (i + 1..self.n).map(move |j| (i, j, self.upper[self.idx(i, j)])))
    }

    /// Number of stored pairs.
    pub fn pairs(&self) -> usize {
        self.upper.len()
    }

    /// The packed values, row by row: pairs `(0, 1..n)`, then
    /// `(1, 2..n)`, and so on.
    pub(crate) fn values(&self) -> &[f64] {
        &self.upper
    }
}

/// Pearson correlation of two equal-length profiles; 0.0 when either
/// profile has zero variance.
pub fn pearson(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "profile length mismatch");
    let n = x.len();
    if n == 0 {
        return 0.0;
    }
    let nf = n as f64;
    let mx = x.iter().sum::<f64>() / nf;
    let my = y.iter().sum::<f64>() / nf;
    let (mut sxy, mut sxx, mut syy) = (0.0, 0.0, 0.0);
    for (a, b) in x.iter().zip(y) {
        let (dx, dy) = (a - mx, b - my);
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx == 0.0 || syy == 0.0 {
        0.0
    } else {
        (sxy / (sxx.sqrt() * syy.sqrt())).clamp(-1.0, 1.0)
    }
}

/// Spearman rank correlation of two profiles.
pub fn spearman(x: &[f64], y: &[f64]) -> f64 {
    pearson(&average_ranks(x), &average_ranks(y))
}

/// ρ from a pair's cross sum and the two genes' norms (the roots of
/// their sums of squares), as [`pearson`] finishes: 0.0 when either
/// gene has zero variance.
#[inline]
fn finish(sxy: f64, norm_x: f64, norm_y: f64) -> f64 {
    if norm_x == 0.0 || norm_y == 0.0 {
        0.0
    } else {
        (sxy / (norm_x * norm_y)).clamp(-1.0, 1.0)
    }
}

/// Pearson over `c`-long profiles: each is centred and normed once, then
/// every pair sums dx·dy in [`pearson`]'s order.
fn centred<P: AsRef<[f64]>>(c: usize, profiles: impl Iterator<Item = P>) -> CorrelationMatrix {
    let (mut dev, mut norm) = (Vec::new(), Vec::new());
    for p in profiles {
        let p = p.as_ref();
        let mean = p.iter().sum::<f64>() / c as f64;
        let start = dev.len();
        dev.extend(p.iter().map(|x| x - mean));
        norm.push(dev[start..].iter().fold(0.0, |s, d| s + d * d).sqrt());
    }
    CorrelationMatrix::packed(norm.len(), |i, row| {
        let x = &dev[i * c..(i + 1) * c];
        for (j, out) in (i + 1..).zip(row) {
            let y = &dev[j * c..(j + 1) * c];
            let sxy = x.iter().zip(y).fold(0.0, |s, (a, b)| s + a * b);
            *out = finish(sxy, norm[i], norm[j]);
        }
    })
}

/// All-pairs Pearson correlation.
pub fn pearson_matrix(m: &ExpressionMatrix) -> CorrelationMatrix {
    centred(m.conditions(), (0..m.genes()).map(|g| m.row(g)))
}

/// The most conditions whose doubled, centred ranks keep every partial
/// dot product inside i32: (c³ − c)/3 ≤ `i32::MAX`.
const NARROW_MAX: usize = 1860;

/// All-pairs Spearman correlation (the paper's "pairwise rank
/// coefficient"): rank every profile once, then one exact integer dot
/// product per pair (see the module docs for why the bits match
/// [`spearman`]).
pub fn spearman_matrix(m: &ExpressionMatrix) -> CorrelationMatrix {
    let (n, c) = (m.genes(), m.conditions());
    let ranked = (0..n).map(|g| average_ranks(m.row(g)));
    if c > NARROW_MAX {
        return centred(c, ranked);
    }
    // X = 2·rank − (c + 1): an integer, |X| ≤ c − 1 and ΣX = 0. Each
    // gene's row is padded with zeros to whole chunks of eight lanes,
    // which add nothing to any sum.
    let (shift, width) = (c as i16 + 1, c.div_ceil(LANES));
    let mut ranks = vec![[0i16; LANES]; n * width];
    let mut norm = Vec::with_capacity(n);
    for (g, r) in ranked.enumerate() {
        let row = ranks[g * width..(g + 1) * width].as_flattened_mut();
        for (x, r) in row.iter_mut().zip(r) {
            *x = (2.0 * r) as i16 - shift;
        }
        let sxx: i64 = row.iter().map(|&x| i64::from(x).pow(2)).sum();
        norm.push((sxx as f64).sqrt());
    }
    CorrelationMatrix::packed(n, |i, row| {
        let x = &ranks[i * width..(i + 1) * width];
        for (j, out) in (i + 1..).zip(row) {
            let sxy = dot(x, &ranks[j * width..(j + 1) * width]);
            *out = finish(f64::from(sxy), norm[i], norm[j]);
        }
    })
}

/// Ranks per chunk. A row is padded with zeros to whole chunks, and the
/// sum of one chunk's eight i16 products vectorizes on baseline x86-64
/// (one multiply-add of i16 pairs into i32 lanes, then a horizontal
/// add).
const LANES: usize = 8;

/// Σ x·y over two padded rows of doubled, centred ranks, chunk by chunk.
/// Exact for rows of at most `NARROW_MAX` ranks, whatever the order of
/// the additions.
#[inline]
fn dot(x: &[[i16; LANES]], y: &[[i16; LANES]]) -> i32 {
    x.iter()
        .zip(y)
        .map(|(a, b)| {
            a.iter()
                .zip(b)
                .map(|(&a, &b)| i32::from(a) * i32::from(b))
                .sum::<i32>()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pearson_known_values() {
        assert!((pearson(&[1., 2., 3.], &[2., 4., 6.]) - 1.0).abs() < 1e-12);
        assert!((pearson(&[1., 2., 3.], &[6., 4., 2.]) + 1.0).abs() < 1e-12);
        assert_eq!(pearson(&[1., 1., 1.], &[2., 4., 6.]), 0.0);
        assert_eq!(pearson(&[], &[]), 0.0);
    }

    #[test]
    fn spearman_monotone_is_one() {
        // any monotone transform correlates at exactly 1 by ranks
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [1.0, 8.0, 27.0, 64.0, 125.0];
        assert!((spearman(&x, &y) - 1.0).abs() < 1e-12);
        assert!((pearson(&x, &y) - 1.0).abs() > 1e-3); // pearson is not 1
    }

    #[test]
    fn matrix_symmetry_and_diagonal() {
        let m =
            ExpressionMatrix::from_rows(3, 4, vec![1., 2., 3., 4., 4., 3., 2., 1., 1., 3., 2., 4.]);
        let c = pearson_matrix(&m);
        assert_eq!(c.get(0, 0), 1.0);
        assert_eq!(c.get(0, 1), c.get(1, 0));
        assert!((c.get(0, 1) + 1.0).abs() < 1e-12);
        assert_eq!(c.pairs(), 3);
        assert_eq!(c.iter_pairs().count(), 3);
    }

    #[test]
    fn packed_index_covers_triangle() {
        let m = ExpressionMatrix::from_rows(5, 3, (0..15).map(|x| (x as f64).sin()).collect());
        let c = pearson_matrix(&m);
        let mut seen = std::collections::BTreeSet::new();
        for (i, j, _) in c.iter_pairs() {
            assert!(i < j);
            seen.insert((i, j));
        }
        assert_eq!(seen.len(), 10);
    }

    /// Rows of small integers (ties), constant rows and continuous
    /// rows, with a NaN cell in some.
    fn awkward(rng: &mut gsb_rng::SplitMix64, genes: usize, c: usize) -> ExpressionMatrix {
        let mut m = ExpressionMatrix::zeros(genes, c);
        for g in 0..genes {
            let kind = rng.below(4);
            for k in 0..c {
                let v = match kind {
                    0 => rng.below(5) as f64,
                    1 => 3.5,
                    _ => rng.unit() * 2.0 - 1.0,
                };
                m.set(g, k, v);
            }
            if c > 0 && rng.chance(0.2) {
                m.set(g, rng.below(c), f64::NAN);
            }
        }
        m
    }

    #[test]
    fn kernels_match_the_per_pair_functions_bit_for_bit() {
        gsb_rng::sweep(8, |rng| {
            for c in [0, 1, 2, 3, 8, 40, 65, NARROW_MAX + 1] {
                let genes = if c > NARROW_MAX { 6 } else { 24 };
                let m = awkward(rng, genes, c);
                let (s, p) = (spearman_matrix(&m), pearson_matrix(&m));
                assert_eq!((s.n(), s.pairs()), (genes, genes * (genes - 1) / 2));
                for (i, j, r) in s.iter_pairs() {
                    let want = spearman(m.row(i), m.row(j));
                    assert_eq!(r.to_bits(), want.to_bits(), "spearman c={c} ({i},{j})");
                }
                for (i, j, r) in p.iter_pairs() {
                    let want = pearson(m.row(i), m.row(j));
                    assert_eq!(r.to_bits(), want.to_bits(), "pearson c={c} ({i},{j})");
                }
            }
        });
    }

    #[test]
    fn rank_dot_products_stay_exact_at_the_widest_narrow_rows() {
        // Two reversed rows of NARROW_MAX distinct values: ΣXY is
        // −(c³ − c)/3, the most negative an i32 sum here can reach.
        let c = NARROW_MAX;
        let up: Vec<f64> = (0..c).map(|k| k as f64).collect();
        let down: Vec<f64> = up.iter().rev().copied().collect();
        let m = ExpressionMatrix::from_rows(2, c, [up.clone(), down].concat());
        assert_eq!(spearman_matrix(&m).get(0, 1), -1.0);
        let x: Vec<i16> = up.iter().map(|&v| 2 * v as i16 + 1 - c as i16).collect();
        let pad = |v: Vec<i16>| {
            let mut row = vec![[0; LANES]; c.div_ceil(LANES)];
            row.as_flattened_mut()[..c].copy_from_slice(&v);
            row
        };
        let (x, y) = (pad(x.clone()), pad(x.into_iter().rev().collect()));
        let extreme = (c * c * c - c) / 3;
        assert_eq!(i64::from(dot(&x, &y)), -(extreme as i64));
        assert_eq!(dot(&x, &x) as usize, extreme);
    }
}
