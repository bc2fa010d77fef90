//! # attrank-repro — workspace facade
//!
//! Re-exports the workspace crates under one roof so the runnable examples
//! and integration tests read like downstream user code:
//!
//! * [`attrank`] — the AttRank method (the paper's contribution),
//! * [`citegraph`] — the citation-network substrate,
//! * [`citegen`] — synthetic dataset generation,
//! * [`baselines`] — competitor ranking methods,
//! * [`graphstore`] — the binary snapshot store and delta WAL behind
//!   crash-safe, warm-restart serving,
//! * [`rankengine`] — the config-driven method registry and the
//!   epoch-snapshot serving engine,
//! * [`rankeval`] — metrics, tuning and experiment pipelines,
//! * [`sparsela`] — the numerical kernels underneath.

pub use attrank;
pub use baselines;
pub use citegen;
pub use citegraph;
pub use graphstore;
pub use rankengine;
pub use rankeval;
pub use sparsela;

/// Everything a typical user needs in scope.
pub mod prelude {
    pub use attrank::{AttRank, AttRankParams};
    pub use baselines::{CiteRank, Ecm, FutureRank, PageRank, Ram, Wsdm};
    pub use citegen::{generate, DatasetProfile};
    pub use citegraph::{ratio_split, CitationNetwork, GraphDelta, NetworkBuilder, Ranker};
    pub use graphstore::{DeltaWal, Store, StoreBuilder};
    pub use rankengine::{MethodSpec, RankingEngine, RerankPolicy};
    pub use rankeval::{ground_truth_sti, Metric};
}
