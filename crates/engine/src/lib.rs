//! # rankengine — config-driven method registry + epoch-snapshot serving
//!
//! The serving layer of the AttRank reproduction, sitting on top of the
//! method crates:
//!
//! * [`spec`] — [`MethodSpec`], the textual configuration grammar
//!   (`attrank:alpha=0.2,beta=0.4,y=3,w=-0.16`, `pagerank:d=0.85`, …) with
//!   parse/display round-tripping and validated parameters,
//! * [`registry`] — constructs any of the workspace's ranking methods from
//!   a spec, so experiment drivers, examples and the engine share one
//!   method list instead of hand-building five,
//! * [`engine`] — [`RankingEngine`], which owns the citation network and
//!   publishes scores as immutable, `Arc`-swapped [`EpochSnapshot`]s:
//!   unlimited concurrent readers serve `top_k` (partial select) and rank
//!   lookups while batched [`citegraph::GraphDelta`]s fold in under a
//!   configurable [`RerankPolicy`], with push re-ranks for AttRank,
//! * [`query`] — [`QueryEngine`], the filtered/faceted/paginated read
//!   workload: a compact [`Query`] grammar (venue, author, OR-of-facet
//!   lists, year range, offset-free cursors), a cost-based planner
//!   compiling predicates to banded posting lists, id ranges, or
//!   [`sparsela::IdMask`] algebra, snapshot-pinned pagination with
//!   typed stale-cursor errors, and a two-method compare mode,
//! * [`sharded`] — [`ShardedEngine`], the same serving surface over a
//!   year-band-partitioned corpus: one engine per contiguous id band,
//!   parallel per-shard re-rank, tail-routed O(tail-shard) ingest, and a
//!   scatter-gather read path that prunes non-overlapping shards and
//!   k-way-merges per-shard runs under the global score order.
//!
//! The two engines are two facades over one private serving core of
//! methods × partitions: a [`QueryEngine`] is the core with one partition
//! per method, a [`ShardedEngine`] the core with one method over its
//! shards, plus its shard plan (band starts, boundary edges, tail routing,
//! per-shard files). With the core they share one serve path, one planner
//! and plan cache, one admission ladder, one scratch pool, one cursor
//! codec, one query error ([`QueryError`]), one [`Comparison`] and one
//! metrics bundle, registered as `attrank_*` (latency by driver, children
//! by method) or `attrank_sharded_*` (latency by shape, children by shard)
//! through `enable_metrics` / `render_metrics`; the types are private.
//!
//! ```
//! use citegraph::{GraphDelta, NetworkBuilder};
//! use rankengine::{RankingEngine, RerankPolicy};
//!
//! let mut b = NetworkBuilder::new();
//! let old = b.add_paper(2015);
//! let hot = b.add_paper(2019);
//! let reader = b.add_paper(2020);
//! b.add_citation(reader, hot).unwrap();
//! b.add_citation(reader, old).unwrap();
//! let net = b.build().unwrap();
//!
//! let engine = RankingEngine::from_config(
//!     net,
//!     "attrank:alpha=0.2,beta=0.5,y=2,w=-0.16",
//!     RerankPolicy::EveryBatch,
//! )
//! .unwrap();
//! assert_eq!(engine.snapshot().epoch(), 0);
//!
//! // A new paper citing the hot one arrives; the engine re-ranks and
//! // atomically publishes epoch 1.
//! let mut delta = GraphDelta::new();
//! let id = delta.add_paper(2021) + 3;
//! delta.add_citation(id as u32, hot);
//! engine.ingest(&delta).unwrap();
//! assert_eq!(engine.snapshot().epoch(), 1);
//! assert_eq!(engine.top_k(1), vec![hot]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod engine;
mod metrics;
pub mod personalization;
pub mod query;
pub mod registry;
pub mod sharded;
pub mod spec;

pub use admission::{
    AdmissionController, AdmissionPolicy, AdmissionStats, AdmissionTicket, CostedQuery, Overload,
};
pub use engine::{
    ColdStart, EngineError, EpochSnapshot, IngestReport, PushStateRestore, RankingEngine,
    RerankPolicy, RerankStrategy, WarmupReport,
};
pub use personalization::{CacheConfig, CacheOutcome, CacheStats, PersonalizationCache};
pub use query::{
    CompareRow, Comparison, CostModel, Cursor, Hit, Page, PageBuf, PlanCache, PlanCacheStats,
    PlanCandidate, Query, QueryDriver, QueryEngine, QueryError, QueryPlan, QueryScratch,
};
pub use registry::{build, default_comparison_specs, known_methods, parse_and_build, BoxedRanker};
pub use sharded::{
    ShardCursor, ShardSnapshots, ShardedColdStart, ShardedEngine, ShardedIngestReport, ShardedPage,
};
pub use spec::{EnsembleRule, MethodSpec, SpecError};
