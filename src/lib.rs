//! # gsb — genome-scale memory-intensive graph analysis for systems biology
//!
//! A from-scratch Rust implementation of the framework described in
//! Zhang, Abu-Khzam, Baldwin, Chesler, Langston & Samatova,
//! *Genome-Scale Computational Approaches to Memory-Intensive
//! Applications in Systems Biology* (SC|05). This facade crate
//! re-exports the workspace's crates and hosts the runnable examples
//! and cross-crate integration tests.
//!
//! ## Quick start
//!
//! ```
//! use gsb::core::{CliquePipeline, CollectSink};
//! use gsb::graph::BitGraph;
//! use std::sync::Arc;
//!
//! // A graph with one obvious module: K4 on {0,1,2,3} plus a pendant.
//! let g = Arc::new(BitGraph::from_edges(5, [
//!     (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4),
//! ]));
//! let mut sink = CollectSink::default();
//! let report = CliquePipeline::new().min_size(3).run(&g, &mut sink);
//! assert_eq!(report.maximum_clique, Some(4));
//! assert_eq!(sink.cliques, vec![vec![0, 1, 2, 3]]);
//! ```
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`bitset`] | `gsb-bitset` | bit strings, WAH compression, bit-sliced counters |
//! | [`graph`] | `gsb-graph` | bitmap-adjacency graphs, generators, Boolean graph ops |
//! | [`par`] | `gsb-par` | level-synchronous pool, load balancer, scaling simulator |
//! | [`expr`] | `gsb-expr` | microarray pipeline: synthesize → normalize → correlate → threshold |
//! | [`core`] | `gsb-core` | Clique Enumerator (seq + parallel), Kose RAM, BK, max clique, paraclique |
//! | [`fpt`] | `gsb-fpt` | vertex cover, maximum clique via VC, feedback vertex set |
//! | [`pathways`] | `gsb-pathways` | stoichiometric networks, enzyme subsets, extreme pathways |
//! | [`align`] | `gsb-align` | pairwise & progressive MSA, guide trees, pathway alignment |
//! | [`motif`] | `gsb-motif` | clique-based (l, d) cis-regulatory motif discovery |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use gsb_align as align;
pub use gsb_bitset as bitset;
pub use gsb_core as core;
pub use gsb_expr as expr;
pub use gsb_fpt as fpt;
pub use gsb_graph as graph;
pub use gsb_motif as motif;
pub use gsb_par as par;
pub use gsb_pathways as pathways;

/// The most commonly used items in one import.
pub mod prelude {
    pub use gsb_align::{align_pathways, global_align, progressive_msa, Scoring};
    pub use gsb_bitset::BitSet;
    pub use gsb_core::{
        CliqueEnumerator, CliquePipeline, CliqueSink, CollectSink, CountSink, EnumConfig,
        HistogramSink, ParallelConfig, ParallelEnumerator,
    };
    pub use gsb_expr::{pearson_matrix, spearman_matrix, ExpressionMatrix, SynthConfig};
    pub use gsb_graph::BitGraph;
    pub use gsb_motif::{find_motifs, MotifParams};
}
