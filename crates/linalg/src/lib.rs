//! # sparsela — sparse linear-algebra substrate
//!
//! Minimal, dependency-free numerical kernels shared by every ranking method
//! in the AttRank reproduction:
//!
//! * [`vector`] — dense `f64` score vectors with L1/L∞ norms, normalization
//!   and ranking helpers,
//! * [`csr`] — compressed sparse row matrices over `u32` indices,
//! * [`stochastic`] — the column-stochastic citation operator `S` used by
//!   PageRank-family methods (pull-based SpMV with dangling-mass handling),
//! * [`power`] — a generic power-method engine with convergence logging,
//! * [`push`] — a residual-driven (Gauss–Southwell) solver for the damped
//!   fixed-point family, localizing incremental re-solves to the perturbed
//!   neighborhood,
//! * [`fit`] — least-squares exponential fitting (used to derive the recency
//!   decay factor `w` from the citation-age distribution, paper §4.2),
//! * [`ranks`] — rank assignment (ordinal and tie-averaged) used by rank
//!   correlation metrics, plus the top-k selection family (full,
//!   candidate-list, predicate-scan, bitmask and block-pruned variants)
//!   the serving layer's queries run on, the per-block maxima the pruned
//!   variant skips by, and the k-way run merge the sharded
//!   scatter-gather read path gathers pages with,
//! * [`mask`] — dense id bitsets with set algebra, the currency of
//!   composed query predicates,
//! * [`cone`] — the score sources the selection kernels read: a dense
//!   slice, or a [`Cone`] — `x = y + g·u` with `y` block-sparse over a
//!   shared kernel `u`, the form a cached personalized solve is kept in.
//!
//! All kernels are deterministic and allocation-conscious: hot loops reuse
//! caller-provided buffers (see [`vector::KernelWorkspace`]) so grid
//! searches over thousands of parameter settings do not thrash the
//! allocator, and row sweeps run in parallel over a degree-balanced
//! partition ([`parallel`]) with bit-identical results at every thread
//! count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cone;
pub mod csr;
pub mod fit;
pub mod mask;
pub mod parallel;
pub mod power;
pub mod push;
pub mod ranks;
pub mod stochastic;
pub mod vector;

pub use cone::{Cone, Scores};
pub use csr::{check_nnz, Csr, CsrError, CsrView, WeightedCsr, MAX_NNZ};
pub use fit::{fit_exponential, ExpFit};
pub use mask::IdMask;
pub use power::{PowerEngine, PowerOptions, PowerOutcome};
pub use push::{LanesOutcome, PushConfig};
pub use ranks::{
    average_ranks, cmp_score_desc, merge_k_sorted, merge_k_sorted_into, ordinal_ranks,
    sort_indices_desc, top_k_filtered, top_k_filtered_into, top_k_indices, top_k_indices_into,
    top_k_masked, top_k_masked_into, top_k_pruned_into, top_k_where, top_k_where_into, BlockMaxima,
    BlockWalk, Frontier, HeadCuts, MergeScratch, Segment, BLOCK_LEN, HEAD_LEN, POSTING_BLOCK_LEN,
};
pub use stochastic::CitationOperator;
pub use vector::{KernelWorkspace, ScoreVec};
