//! Pairwise distance matrices — the all-pairs stage ClustalXP
//! parallelizes (it is embarrassingly parallel, like the correlation
//! matrix in `gsb-expr`; scoped threads here, a cluster there).

use crate::pairwise::global_align;
use crate::score::Scoring;
use gsb_par::packed_upper;

/// Symmetric distance matrix, full storage (small k: one row per
/// sequence).
#[derive(Clone, Debug)]
pub struct DistanceMatrix {
    n: usize,
    data: Vec<f64>,
}

impl DistanceMatrix {
    /// Number of sequences.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Distance between sequences `i` and `j`.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.n + j]
    }

    fn set(&mut self, i: usize, j: usize, d: f64) {
        self.data[i * self.n + j] = d;
        self.data[j * self.n + i] = d;
    }
}

/// Alignment-identity distance: `1 − identity(global alignment)`.
/// Parallel over row ranges of the packed upper triangle.
pub fn distance_matrix(seqs: &[Vec<u8>], scoring: &Scoring) -> DistanceMatrix {
    let n = seqs.len();
    let packed = packed_upper(n, |i, row| {
        for (j, out) in (i + 1..).zip(row) {
            *out = 1.0 - global_align(&seqs[i], &seqs[j], scoring).identity();
        }
    });
    let mut m = DistanceMatrix {
        n,
        data: vec![0.0; n * n],
    };
    let pairs = (0..n).flat_map(|i| (i + 1..n).map(move |j| (i, j)));
    for ((i, j), d) in pairs.zip(packed) {
        m.set(i, j, d);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_sequences_distance_zero() {
        let seqs = vec![b"ACGT".to_vec(), b"ACGT".to_vec(), b"TTTT".to_vec()];
        let m = distance_matrix(&seqs, &Scoring::default());
        assert_eq!(m.get(0, 1), 0.0);
        assert!(m.get(0, 2) > 0.5);
        assert_eq!(m.get(2, 0), m.get(0, 2)); // symmetric
        assert_eq!(m.get(1, 1), 0.0); // diagonal
    }

    #[test]
    fn closer_sequences_are_closer() {
        let seqs = vec![
            b"ACGTACGT".to_vec(),
            b"ACGTACGA".to_vec(), // 1 substitution
            b"TGCATGCA".to_vec(), // unrelated
        ];
        let m = distance_matrix(&seqs, &Scoring::default());
        assert!(m.get(0, 1) < m.get(0, 2));
    }
}
