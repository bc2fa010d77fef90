//! # attrank — ranking papers by their short-term scientific impact
//!
//! Reference implementation of **AttRank** (Kanellos, Vergoulis, Sacharidis,
//! Dalamagas, Vassiliou — ICDE 2021 / arXiv:2006.00951).
//!
//! AttRank scores every paper in a citation network by simulating a
//! researcher who, after reading a paper, picks the next one to read:
//!
//! * with probability `α`, from the current paper's reference list
//!   (PageRank-style impact flow through the stochastic matrix `S`),
//! * with probability `β`, proportionally to the paper's **attention** —
//!   its share of all citations made in the last `y` years (Eq. 2), a
//!   time-restricted preferential-attachment signal,
//! * with probability `γ`, proportionally to the paper's **recency** —
//!   `T(p) ∝ e^{w·age}` (Eq. 3).
//!
//! The fixed point of `AR = α·S·AR + β·A + γ·T` (Eq. 4) exists and is
//! unique whenever `α+β+γ = 1` (Theorem 1: the implicit jump matrix is
//! stochastic, irreducible and aperiodic because `T > 0` everywhere); this
//! crate enforces the parameter simplex at construction and reuses the
//! workspace power-method engine for the iteration.
//!
//! ```
//! use attrank::{AttRank, AttRankParams};
//! use citegraph::{NetworkBuilder, Ranker};
//!
//! let mut b = NetworkBuilder::new();
//! let old = b.add_paper(2015);
//! let hot = b.add_paper(2018);
//! let reader1 = b.add_paper(2019);
//! let reader2 = b.add_paper(2020);
//! b.add_citation(reader1, hot).unwrap();
//! b.add_citation(reader2, hot).unwrap();
//! b.add_citation(reader1, old).unwrap();
//! let net = b.build().unwrap();
//!
//! // α=0.2, β=0.5 (γ = 0.3 implied), attention window 2y, decay w=-0.16
//! let params = AttRankParams::new(0.2, 0.5, 2, -0.16).unwrap();
//! let scores = AttRank::new(params).rank(&net);
//! assert!(scores[hot as usize] > scores[old as usize]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attention;
pub mod incremental;
pub mod model;
pub mod params;
pub mod recency;

pub use attention::attention_vector;
pub use incremental::{CarriedPersonalization, IncrementalAttRank, PUSH_STATE_SCALARS};
pub use model::{jump_components, AttRank, AttRankDiagnostics};
pub use params::{AttRankParams, ParamError};
pub use recency::{fit_decay_from_network, recency_vector};
