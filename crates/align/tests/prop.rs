//! Property tests for the alignment kernels. Each property is a seeded
//! sweep over 256 cases.

use gsb_align::distance::distance_matrix;
use gsb_align::pairwise::{global_align, local_align, GAP};
use gsb_align::progressive::progressive_msa;
use gsb_align::score::Scoring;
use gsb_rng::{sweep, SplitMix64};

const CASES: u64 = 256;

/// A DNA string of length `0..24`.
fn dna(rng: &mut SplitMix64) -> Vec<u8> {
    (0..rng.below(24))
        .map(|_| [b'A', b'C', b'G', b'T'][rng.below(4)])
        .collect()
}

#[test]
fn global_rows_reconstruct_inputs() {
    sweep(CASES, |rng| {
        let (a, b) = (dna(rng), dna(rng));
        let al = global_align(&a, &b, &Scoring::default());
        assert_eq!(al.a.len(), al.b.len());
        let ra: Vec<u8> = al.a.iter().copied().filter(|&c| c != GAP).collect();
        let rb: Vec<u8> = al.b.iter().copied().filter(|&c| c != GAP).collect();
        assert_eq!(ra, a);
        assert_eq!(rb, b);
        // no column is gap-gap
        assert!(al.a.iter().zip(&al.b).all(|(&x, &y)| x != GAP || y != GAP));
    });
}

#[test]
fn global_score_matches_columns() {
    sweep(CASES, |rng| {
        let (a, b) = (dna(rng), dna(rng));
        let s = Scoring::default();
        let al = global_align(&a, &b, &s);
        let recomputed: i32 =
            al.a.iter()
                .zip(&al.b)
                .map(|(&x, &y)| {
                    if x == GAP || y == GAP {
                        s.gap
                    } else {
                        s.pair(x, y)
                    }
                })
                .sum();
        assert_eq!(al.score, recomputed);
    });
}

#[test]
fn global_score_symmetric() {
    sweep(CASES, |rng| {
        let (a, b) = (dna(rng), dna(rng));
        let s = Scoring::default();
        assert_eq!(
            global_align(&a, &b, &s).score,
            global_align(&b, &a, &s).score
        );
    });
}

#[test]
fn self_alignment_is_perfect() {
    sweep(CASES, |rng| {
        let a = dna(rng);
        let s = Scoring::default();
        let al = global_align(&a, &a, &s);
        assert_eq!(al.score, a.len() as i32 * s.match_score);
        assert_eq!(al.identity(), 1.0);
    });
}

#[test]
fn local_dominates_and_is_nonnegative() {
    sweep(CASES, |rng| {
        let (a, b) = (dna(rng), dna(rng));
        let s = Scoring::default();
        let local = local_align(&a, &b, &s);
        assert!(local.score >= 0);
        assert!(local.score >= global_align(&a, &b, &s).score);
    });
}

#[test]
fn msa_preserves_sequences() {
    sweep(CASES, |rng| {
        let seqs: Vec<Vec<u8>> = (0..1 + rng.below(4)).map(|_| dna(rng)).collect();
        let msa = progressive_msa(&seqs, &Scoring::default());
        let w = msa.width();
        for row in &msa.rows {
            assert_eq!(row.len(), w);
        }
        for (i, original) in seqs.iter().enumerate() {
            assert_eq!(&msa.ungapped(i), original);
        }
    });
}

#[test]
fn distance_matrix_matches_each_pair() {
    sweep(32, |rng| {
        let seqs: Vec<Vec<u8>> = (0..rng.below(12)).map(|_| dna(rng)).collect();
        let s = Scoring::default();
        let m = distance_matrix(&seqs, &s);
        assert_eq!(m.n(), seqs.len());
        for (i, a) in seqs.iter().enumerate() {
            assert_eq!(m.get(i, i), 0.0);
            for (j, b) in seqs.iter().enumerate().skip(i + 1) {
                let d = 1.0 - global_align(a, b, &s).identity();
                assert_eq!(m.get(i, j).to_bits(), d.to_bits(), "({i},{j})");
                assert_eq!(m.get(j, i).to_bits(), d.to_bits(), "({j},{i})");
            }
        }
    });
}
