//! # citegraph — citation-network substrate
//!
//! The temporal paper graph every ranking method in this workspace runs on.
//!
//! A [`CitationNetwork`] is an immutable, time-sorted collection of papers
//! (`u32` ids, publication years) with reference/citation adjacency in CSR
//! form, optional author and venue metadata, and the temporal views the
//! AttRank paper's evaluation protocol needs:
//!
//! * **snapshots** — `C(t)` as a prefix of the time-sorted paper list
//!   ([`CitationNetwork::prefix`]); the paper keeps the matrix shape fixed
//!   and only the *content* (edges from papers published by `t`) changes
//!   (§2), which prefixing reproduces exactly because references always
//!   point backwards in time,
//! * **windows** — `C[t_N−y : t_N]`, citations *made* during the last `y`
//!   years, the raw material of AttRank's attention vector (§3),
//! * **splits** — the current/future division by *test ratio* (§4.1),
//! * **statistics** — citation-age distributions (Fig. 1a), per-paper yearly
//!   citation curves (Fig. 1b), recent-popularity queries (Table 1).
//!
//! Construction goes through [`builder::NetworkBuilder`], which validates
//! temporal consistency (no citations into the future) and canonicalizes
//! paper order. Plain-text TSV persistence lives in [`io`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod delta;
pub mod index;
pub mod io;
pub mod metadata;
pub mod network;
pub mod personalize;
pub mod pushrank;
pub mod rank;
pub mod shard;
pub mod split;
pub mod stats;
pub mod window;

pub use builder::{BuildError, NetworkBuilder};
pub use delta::{DeltaError, GraphDelta};
pub use index::{band, band_span};
pub use metadata::{AuthorId, AuthorTable, VenueId, VenueTable};
pub use network::{CitationNetwork, PaperId, PartsError, Year};
pub use personalize::{
    dense_personalized, personalize, repersonalize, PersonalizedScores, SeedError,
    SeedPersonalization, WarmStart,
};
pub use pushrank::{
    kernel_scale, push_delta, seed_delta, uniform_kernel, update_uniform_kernel, PushRankConfig,
};
pub use rank::{DeltaStrategy, Ranker};
pub use shard::{ShardPlan, ShardPlanError, ShardSpec};
pub use split::{ratio_split, RatioSplit};
