//! # gsb-bitset — bit-string substrate for genome-scale graph analysis
//!
//! The SC'05 framework ("Genome-Scale Computational Approaches to
//! Memory-Intensive Applications in Systems Biology", Zhang et al.)
//! rests on one data-representation idea: the *common neighbors* of a
//! clique in an `n`-vertex graph are a length-`n` bit string, so that
//!
//! * `CN(C ∪ {v}) = CN(C) AND N(v)` is one vectorized AND, and
//! * "is clique `C` maximal?" is one *any-bit-set* test on `CN(C)`.
//!
//! This crate provides that substrate:
//!
//! * [`BitSet`] — a fixed-universe bit string over `u64` words with the
//!   bulk kernels the enumeration kernels need (`and_into`,
//!   [`BitSet::intersects`], [`BitSet::count_and`], word-level access);
//! * [`WahBitSet`] — a Word-Aligned-Hybrid compressed bitmap with
//!   `AND`/`OR` performed directly on the compressed form (the paper's
//!   §4 "work in this direction is underway");
//! * [`SliceCounter`] — a bit-sliced counter for *at-least-k-of-n*
//!   Boolean graph queries over stacks of bitmaps (paper §1, cleaning
//!   protein-interaction replicates).
//!
//! All operations preserve the invariant that bits at positions
//! `>= len()` are zero, so word-level equality, hashing, and population
//! counts are exact.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitset;
mod counter;
mod neighbor;
mod wah;

pub use bitset::{BitSet, Ones};
pub use counter::SliceCounter;
pub use neighbor::{NeighborSet, KIND_DENSE, KIND_WAH};
pub use wah::WahBitSet;

/// Number of bits per storage word.
pub const WORD_BITS: usize = 64;

/// Number of `u64` words needed to hold `nbits` bits.
#[inline]
pub const fn words_for(nbits: usize) -> usize {
    nbits.div_ceil(WORD_BITS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_for_boundaries() {
        assert_eq!(words_for(0), 0);
        assert_eq!(words_for(1), 1);
        assert_eq!(words_for(64), 1);
        assert_eq!(words_for(65), 2);
        assert_eq!(words_for(128), 2);
        assert_eq!(words_for(129), 3);
    }
}
