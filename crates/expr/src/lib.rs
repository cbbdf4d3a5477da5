//! # gsb-expr — microarray expression substrate
//!
//! The SC'05 evaluation graphs "were generated from raw microarray data
//! after normalization, pairwise rank coefficient calculation, and
//! filtering using threshold" (§3). This crate implements that pipeline
//! end to end, plus a synthetic data generator standing in for the
//! proprietary Affymetrix U74Av2 mouse-brain and myogenic-differentiation
//! datasets (see DESIGN.md §2 for the substitution argument):
//!
//! 1. [`synth`] — expression matrices with planted co-regulated gene
//!    modules (shared latent factors + per-gene noise);
//! 2. [`normalize`] — per-gene z-scoring and cross-array quantile
//!    normalization;
//! 3. [`correlation`] — all-pairs Pearson and Spearman (rank)
//!    correlation, written in place into one packed upper triangle on
//!    scoped threads (embarrassingly parallel); each gene is ranked or
//!    centred once, so a pair costs one dot product, exact in integers
//!    for Spearman, and every ρ keeps the bits of the per-pair functions;
//! 4. [`threshold`] — correlation → graph filtering, including picking
//!    the threshold that hits a target edge density (how the paper's
//!    0.008 %–0.3 % graphs were made) by a |ρ| histogram and a select
//!    inside one bucket, without copying or sorting the matrix;
//! 5. [`kendall`](mod@kendall) / [`filter`] / [`significance`] — the pipeline extras
//!    real array data needs: Kendall τ-b, pairwise-complete Pearson,
//!    variance filtering, missing-value imputation, and Fisher-z
//!    p-value / Bonferroni threshold selection.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod correlation;
pub mod filter;
pub mod kendall;
pub mod matrix;
pub mod normalize;
pub mod rank;
pub mod significance;
pub mod synth;
pub mod threshold;

pub use correlation::{pearson_matrix, spearman_matrix, CorrelationMatrix};
pub use kendall::{kendall, kendall_matrix, pearson_complete};
pub use matrix::ExpressionMatrix;
pub use synth::{SynthConfig, SynthModule};
