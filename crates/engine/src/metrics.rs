//! Serving-path metric families over an [`obsv::MetricsRegistry`].
//!
//! Two bundles share one registry without name collisions: a flat
//! [`ServingMetrics`] for a [`QueryEngine`](crate::QueryEngine) (families
//! prefixed `attrank_`) and a [`ShardedServingMetrics`] for a
//! [`ShardedEngine`](crate::ShardedEngine) (prefixed `attrank_sharded_` /
//! `attrank_shard_`), so `repro metrics` can render both stacks in one
//! exposition.
//!
//! The hot path records through pre-resolved handles — a histogram
//! observation per query, counter bumps on planner/cursor/admission
//! events. Everything sampled from live state (cache occupancy, epoch
//! lag, replay depth, admission stats) is refreshed at *render* time by
//! the owning engine's `render_metrics`, which keeps those subsystems
//! free of metrics plumbing: counters refresh through
//! [`obsv::Counter::record_total`] (a `fetch_max`, so the exposed series
//! stay monotone) and gauges through [`obsv::Gauge::set`].

use std::sync::Arc;

use obsv::{
    Counter, CounterVec, Gauge, GaugeVec, Histogram, HistogramVec, MetricsRegistry,
    LATENCY_BOUNDS_NS,
};

use graphstore::WalObservers;
use sparsela::BlockWalk;

use crate::admission::AdmissionStats;
use crate::personalization::CacheStats;
use crate::query::{PlanCacheStats, QueryDriver};

/// Label values of the `driver` axis, in [`driver_index`] order.
pub const DRIVER_LABELS: [&str; 5] = [
    "unfiltered",
    "id_range",
    "venue_bands",
    "author_bands",
    "mask_algebra",
];

/// The `driver` label index of a plan's driver.
pub fn driver_index(driver: &QueryDriver) -> usize {
    match driver {
        QueryDriver::Unfiltered => 0,
        QueryDriver::IdRange { .. } => 1,
        QueryDriver::VenueBands { .. } => 2,
        QueryDriver::AuthorBands { .. } => 3,
        QueryDriver::MaskAlgebra { .. } => 4,
    }
}

/// The `driver` label value of a plan's driver.
pub fn driver_label(driver: &QueryDriver) -> &'static str {
    DRIVER_LABELS[driver_index(driver)]
}

/// Label values of the cache `outcome` axis (order matches
/// [`CacheStats`] field order: hits, warm repushes, cold pushes,
/// fallbacks).
pub const CACHE_OUTCOME_LABELS: [&str; 4] = ["hit", "warm_repush", "cold_push", "cold_fallback"];

/// Label values of the admission `decision` axis.
pub const ADMISSION_LABELS: [&str; 4] = ["admitted", "k_clamped", "scan_fallback", "shed"];

/// Label values of the cursor-error `kind` axis.
pub const CURSOR_ERROR_LABELS: [&str; 2] = ["stale", "mismatch"];

/// Label values of the plan-cache `outcome` axis (order matches
/// [`PlanCacheStats`] field order: hits, misses, stale drops,
/// capacity evictions).
pub const PLAN_CACHE_LABELS: [&str; 4] = ["hit", "miss", "stale", "evict"];

/// Label values of the successor-network `outcome` axis: a publish
/// either built its successor network or adopted the one a sibling
/// method's engine had just built from the same parent and batch.
pub const SUCCESSOR_LABELS: [&str; 2] = ["built", "shared"];

/// Label values of the block-walk `outcome` axis: blocks of a
/// range-driven selection whose ids were read, and blocks the block
/// maxima let it skip. `skipped / (scanned + skipped)` is what the
/// summaries save; a `scanned` share near 1 is a walk that prunes nothing.
pub const SELECT_BLOCK_LABELS: [&str; 2] = ["scanned", "skipped"];

/// Adds one selection's block counts to a [`SELECT_BLOCK_LABELS`] family.
/// Selections that walked no range (posting-list and mask drivers) touch
/// no counter.
pub(crate) fn record_blocks(blocks: &CounterVec, walk: &BlockWalk) {
    if walk.blocks_in_range > 0 {
        blocks.at(0).add(walk.blocks_scanned as u64);
        blocks
            .at(1)
            .add((walk.blocks_in_range - walk.blocks_scanned) as u64);
    }
}

/// Label values of the sharded query `shape` axis.
pub const SHAPE_LABELS: [&str; 4] = ["unfiltered", "year_range", "faceted", "seeded"];

/// Index into [`SHAPE_LABELS`]: shape of a sharded query.
pub const SHAPE_UNFILTERED: usize = 0;
/// Index into [`SHAPE_LABELS`]: year-bounded, facet-free.
pub const SHAPE_YEAR_RANGE: usize = 1;
/// Index into [`SHAPE_LABELS`]: carries venue or author facets.
pub const SHAPE_FACETED: usize = 2;
/// Index into [`SHAPE_LABELS`]: seeded (personalized).
pub const SHAPE_SEEDED: usize = 3;

/// Per-method live instruments handed to a
/// [`RankingEngine`](crate::RankingEngine): publish/apply/solve latency,
/// successor-network reuse, push work gauges, push fallbacks, and the
/// WAL's append/fsync observers. The handles alias
/// children of the registering [`ServingMetrics`], so the engine records
/// directly into the rendered families.
#[derive(Debug, Clone)]
pub struct EngineInstruments {
    /// Whole-publish latency (apply + solve + snapshot build + swap).
    pub publish_seconds: Arc<Histogram>,
    /// Obtaining the successor network: the copy-and-merge
    /// `with_delta`, or the check that adopts a sibling's. Not observed by
    /// a publish with nothing staged.
    pub apply_seconds: Arc<Histogram>,
    /// Publishes that built their successor network.
    pub successor_built: Arc<Counter>,
    /// Publishes that adopted a sibling engine's successor network.
    pub successor_shared: Arc<Counter>,
    /// The ranking solve alone (`rank_full` / `rank_delta`).
    pub solve_seconds: Arc<Histogram>,
    /// Pushes spent by the last incremental publish (0 on full solves).
    pub push_pushes: Arc<Gauge>,
    /// Edge traversals spent by the last incremental publish. A traversed
    /// edge is counted once whatever the push's lane count (AttRank
    /// carries three systems through one traversal), so the gauge stays
    /// comparable with [`Self::push_edge_budget`].
    pub push_edge_work: Arc<Gauge>,
    /// The push budget the last publish ran under
    /// ([`citegraph::PushRankConfig::max_edge_work`] of the published
    /// network under the default config).
    pub push_edge_budget: Arc<Gauge>,
    /// Publishes that had a staged delta and still ran a full solve: the
    /// push declined (oversized delta, exhausted budget, state not yet
    /// built — the first delta after a start) or the method has no push
    /// at all, in which case every delta publish counts.
    pub push_fallbacks: Arc<Counter>,
    /// WAL append/fsync latency observers, attached to the engine's log.
    pub wal: WalObservers,
}

/// The flat serving stack's metric families, registered as one bundle.
#[derive(Debug)]
pub struct ServingMetrics {
    methods: Vec<String>,
    /// Per-query latency by plan driver (`attrank_query_seconds`).
    pub query_seconds: HistogramVec,
    /// Planner decisions by chosen driver
    /// (`attrank_planner_decisions_total`).
    pub planner_decisions: CounterVec,
    /// Cursor validation failures by kind
    /// (`attrank_cursor_errors_total`).
    pub cursor_errors: CounterVec,
    /// Blocks read and skipped by range-driven selections
    /// (`attrank_select_blocks_total`).
    pub select_blocks: CounterVec,
    /// Plan-cache outcomes (`attrank_plan_cache_events_total`),
    /// refreshed at render.
    pub plan_cache_events: CounterVec,
    /// Live cached plans (`attrank_plan_cache_entries`).
    pub plan_cache_entries: Arc<Gauge>,
    /// Personalization cache outcomes
    /// (`attrank_cache_outcomes_total`), refreshed at render.
    pub cache_outcomes: CounterVec,
    /// Live cached vectors (`attrank_cache_entries`).
    pub cache_entries: Arc<Gauge>,
    /// Cache byte occupancy (`attrank_cache_bytes`).
    pub cache_bytes: Arc<Gauge>,
    /// Admission decisions (`attrank_admission_decisions_total`),
    /// refreshed at render from the controller's stats.
    pub admission_decisions: CounterVec,
    /// Reserved in-flight estimated cost
    /// (`attrank_admission_inflight_cost_ns`).
    pub admission_inflight: Arc<Gauge>,
    /// Published epoch per method (`attrank_epoch`).
    pub epoch: GaugeVec,
    /// Staged-but-unpublished batches per method
    /// (`attrank_staged_batches`).
    pub staged_batches: GaugeVec,
    /// Staged citation edges per method (`attrank_staged_edges`).
    pub staged_edges: GaugeVec,
    /// WAL batches still queued for replay per method
    /// (`attrank_wal_replay_depth`).
    pub wal_replay_depth: GaugeVec,
    publish_seconds: HistogramVec,
    apply_seconds: HistogramVec,
    successor_networks: CounterVec,
    solve_seconds: HistogramVec,
    push_pushes: GaugeVec,
    push_edge_work: GaugeVec,
    push_edge_budget: GaugeVec,
    push_fallbacks: CounterVec,
    wal_append_seconds: Arc<Histogram>,
    wal_fsync_seconds: Arc<Histogram>,
}

impl ServingMetrics {
    /// Registers every flat-stack family on `registry`, one per-method
    /// child per entry of `methods`.
    ///
    /// # Panics
    /// Panics if any family name is already registered (two flat bundles
    /// cannot share one registry).
    pub fn register(registry: &MetricsRegistry, methods: &[&str]) -> Arc<Self> {
        Arc::new(Self {
            methods: methods.iter().map(|m| m.to_string()).collect(),
            query_seconds: registry.histogram_vec(
                "attrank_query_seconds",
                "Per-query serving latency by plan driver",
                "driver",
                &DRIVER_LABELS,
                &LATENCY_BOUNDS_NS,
            ),
            planner_decisions: registry.counter_vec(
                "attrank_planner_decisions_total",
                "Planner decisions by chosen driver",
                "driver",
                &DRIVER_LABELS,
            ),
            cursor_errors: registry.counter_vec(
                "attrank_cursor_errors_total",
                "Cursor validation failures by kind",
                "kind",
                &CURSOR_ERROR_LABELS,
            ),
            select_blocks: registry.counter_vec(
                "attrank_select_blocks_total",
                "Score blocks of range-driven selections, read vs skipped by block maxima",
                "outcome",
                &SELECT_BLOCK_LABELS,
            ),
            plan_cache_events: registry.counter_vec(
                "attrank_plan_cache_events_total",
                "Plan-cache outcomes",
                "outcome",
                &PLAN_CACHE_LABELS,
            ),
            plan_cache_entries: registry.gauge("attrank_plan_cache_entries", "Cached query plans"),
            cache_outcomes: registry.counter_vec(
                "attrank_cache_outcomes_total",
                "Personalization cache outcomes",
                "outcome",
                &CACHE_OUTCOME_LABELS,
            ),
            cache_entries: registry.gauge("attrank_cache_entries", "Cached personalized vectors"),
            cache_bytes: registry.gauge(
                "attrank_cache_bytes",
                "Byte occupancy of the personalization cache",
            ),
            admission_decisions: registry.counter_vec(
                "attrank_admission_decisions_total",
                "Admission-control decisions",
                "decision",
                &ADMISSION_LABELS,
            ),
            admission_inflight: registry.gauge(
                "attrank_admission_inflight_cost_ns",
                "Reserved in-flight estimated query cost in nanoseconds",
            ),
            epoch: registry.gauge_vec(
                "attrank_epoch",
                "Published ranking epoch",
                "method",
                methods,
            ),
            staged_batches: registry.gauge_vec(
                "attrank_staged_batches",
                "Ingested batches staged but not yet published",
                "method",
                methods,
            ),
            staged_edges: registry.gauge_vec(
                "attrank_staged_edges",
                "Citation edges staged since the last publish",
                "method",
                methods,
            ),
            wal_replay_depth: registry.gauge_vec(
                "attrank_wal_replay_depth",
                "WAL batches recovered but not yet replayed (cold start)",
                "method",
                methods,
            ),
            publish_seconds: registry.histogram_vec(
                "attrank_publish_seconds",
                "Whole-publish latency (apply + solve + snapshot swap)",
                "method",
                methods,
                &LATENCY_BOUNDS_NS,
            ),
            apply_seconds: registry.histogram_vec(
                "attrank_apply_seconds",
                "Successor-network latency inside publish (built or shared)",
                "method",
                methods,
                &LATENCY_BOUNDS_NS,
            ),
            successor_networks: registry.counter_vec(
                "attrank_successor_networks_total",
                "Publishes by how the successor network was obtained",
                "outcome",
                &SUCCESSOR_LABELS,
            ),
            solve_seconds: registry.histogram_vec(
                "attrank_solve_seconds",
                "Ranking solve latency inside publish",
                "method",
                methods,
                &LATENCY_BOUNDS_NS,
            ),
            push_pushes: registry.gauge_vec(
                "attrank_push_pushes",
                "Pushes spent by the last incremental publish",
                "method",
                methods,
            ),
            push_edge_work: registry.gauge_vec(
                "attrank_push_edge_work",
                "Edge traversals spent by the last incremental publish (once per edge, not per lane)",
                "method",
                methods,
            ),
            push_edge_budget: registry.gauge_vec(
                "attrank_push_edge_budget",
                "Edge-traversal budget the last publish ran under",
                "method",
                methods,
            ),
            push_fallbacks: registry.counter_vec(
                "attrank_push_fallbacks_total",
                "Publishes with a staged delta that ran a full solve",
                "method",
                methods,
            ),
            wal_append_seconds: registry.histogram(
                "attrank_wal_append_seconds",
                "WAL append latency (serialize + write + fsync)",
                &LATENCY_BOUNDS_NS,
            ),
            wal_fsync_seconds: registry.histogram(
                "attrank_wal_fsync_seconds",
                "WAL fsync latency inside append",
                &LATENCY_BOUNDS_NS,
            ),
        })
    }

    /// The registered method labels, in child order.
    pub fn methods(&self) -> &[String] {
        &self.methods
    }

    /// The live instruments for the method at child index `idx` —
    /// what a [`RankingEngine`](crate::RankingEngine) records into. The
    /// WAL histograms and the successor-network counter are engine-wide
    /// (every method records into the same children).
    pub fn instruments(&self, idx: usize) -> Arc<EngineInstruments> {
        Arc::new(EngineInstruments {
            publish_seconds: self.publish_seconds.share(idx),
            apply_seconds: self.apply_seconds.share(idx),
            successor_built: self.successor_networks.share(0),
            successor_shared: self.successor_networks.share(1),
            solve_seconds: self.solve_seconds.share(idx),
            push_pushes: self.push_pushes.share(idx),
            push_edge_work: self.push_edge_work.share(idx),
            push_edge_budget: self.push_edge_budget.share(idx),
            push_fallbacks: self.push_fallbacks.share(idx),
            wal: WalObservers {
                append: Arc::clone(&self.wal_append_seconds),
                fsync: Arc::clone(&self.wal_fsync_seconds),
            },
        })
    }

    /// Refreshes the cache families from a [`CacheStats`] snapshot.
    pub fn record_cache(&self, stats: &CacheStats) {
        let totals = [
            stats.hits,
            stats.warm_repushes,
            stats.cold_pushes,
            stats.fallbacks,
        ];
        for (i, total) in totals.into_iter().enumerate() {
            self.cache_outcomes.at(i).record_total(total);
        }
        self.cache_entries.set(stats.entries as i64);
        self.cache_bytes.set(stats.bytes as i64);
    }

    /// Refreshes the admission families from an [`AdmissionStats`]
    /// snapshot.
    pub fn record_admission(&self, stats: &AdmissionStats) {
        let totals = [
            stats.admitted,
            stats.k_clamped,
            stats.scan_fallbacks,
            stats.shed,
        ];
        for (i, total) in totals.into_iter().enumerate() {
            self.admission_decisions.at(i).record_total(total);
        }
        self.admission_inflight.set(stats.inflight_ns as i64);
    }

    /// Refreshes the plan-cache families from a [`PlanCacheStats`]
    /// snapshot.
    pub fn record_plan_cache(&self, stats: &PlanCacheStats) {
        let totals = [stats.hits, stats.misses, stats.stale, stats.evictions];
        for (i, total) in totals.into_iter().enumerate() {
            self.plan_cache_events.at(i).record_total(total);
        }
        self.plan_cache_entries.set(stats.entries as i64);
    }
}

/// The sharded stack's metric families; family names are disjoint from
/// [`ServingMetrics`] so both bundles fit one registry.
#[derive(Debug)]
pub struct ShardedServingMetrics {
    /// Per-query latency by query shape
    /// (`attrank_sharded_query_seconds`).
    pub query_seconds: HistogramVec,
    /// Blocks read and skipped by range-driven selections, summed over
    /// the shards a query scanned (`attrank_sharded_select_blocks_total`).
    pub select_blocks: CounterVec,
    /// Personalization cache outcomes across shard solves
    /// (`attrank_sharded_cache_outcomes_total`), refreshed at render.
    pub cache_outcomes: CounterVec,
    /// Live cached shard vectors (`attrank_sharded_cache_entries`).
    pub cache_entries: Arc<Gauge>,
    /// Shard-cache byte occupancy (`attrank_sharded_cache_bytes`).
    pub cache_bytes: Arc<Gauge>,
    /// Admission decisions (`attrank_sharded_admission_decisions_total`).
    pub admission_decisions: CounterVec,
    /// Reserved in-flight estimated cost
    /// (`attrank_sharded_admission_inflight_cost_ns`).
    pub admission_inflight: Arc<Gauge>,
    /// Teleport-absorbed boundary edges per shard
    /// (`attrank_shard_boundary_edges`), refreshed at render.
    pub boundary_edges: GaugeVec,
}

impl ShardedServingMetrics {
    /// Registers every sharded-stack family on `registry`, with one
    /// `shard` child per partition.
    pub fn register(registry: &MetricsRegistry, n_shards: usize) -> Arc<Self> {
        let shard_labels: Vec<String> = (0..n_shards).map(|s| s.to_string()).collect();
        let shard_refs: Vec<&str> = shard_labels.iter().map(|s| s.as_str()).collect();
        Arc::new(Self {
            query_seconds: registry.histogram_vec(
                "attrank_sharded_query_seconds",
                "Sharded per-query serving latency by query shape",
                "shape",
                &SHAPE_LABELS,
                &LATENCY_BOUNDS_NS,
            ),
            select_blocks: registry.counter_vec(
                "attrank_sharded_select_blocks_total",
                "Score blocks of sharded range-driven selections, read vs skipped by block maxima",
                "outcome",
                &SELECT_BLOCK_LABELS,
            ),
            cache_outcomes: registry.counter_vec(
                "attrank_sharded_cache_outcomes_total",
                "Personalization cache outcomes across shard solves",
                "outcome",
                &CACHE_OUTCOME_LABELS,
            ),
            cache_entries: registry.gauge(
                "attrank_sharded_cache_entries",
                "Cached personalized shard vectors",
            ),
            cache_bytes: registry.gauge(
                "attrank_sharded_cache_bytes",
                "Byte occupancy of the sharded personalization cache",
            ),
            admission_decisions: registry.counter_vec(
                "attrank_sharded_admission_decisions_total",
                "Sharded admission-control decisions",
                "decision",
                &ADMISSION_LABELS,
            ),
            admission_inflight: registry.gauge(
                "attrank_sharded_admission_inflight_cost_ns",
                "Reserved in-flight estimated sharded query cost in nanoseconds",
            ),
            boundary_edges: registry.gauge_vec(
                "attrank_shard_boundary_edges",
                "Cross-shard citation edges absorbed into the teleport",
                "shard",
                &shard_refs,
            ),
        })
    }

    /// Refreshes the cache families from a [`CacheStats`] snapshot.
    pub fn record_cache(&self, stats: &CacheStats) {
        let totals = [
            stats.hits,
            stats.warm_repushes,
            stats.cold_pushes,
            stats.fallbacks,
        ];
        for (i, total) in totals.into_iter().enumerate() {
            self.cache_outcomes.at(i).record_total(total);
        }
        self.cache_entries.set(stats.entries as i64);
        self.cache_bytes.set(stats.bytes as i64);
    }

    /// Refreshes the admission families from an [`AdmissionStats`]
    /// snapshot.
    pub fn record_admission(&self, stats: &AdmissionStats) {
        let totals = [
            stats.admitted,
            stats.k_clamped,
            stats.scan_fallbacks,
            stats.shed,
        ];
        for (i, total) in totals.into_iter().enumerate() {
            self.admission_decisions.at(i).record_total(total);
        }
        self.admission_inflight.set(stats.inflight_ns as i64);
    }

    /// Refreshes the per-shard boundary-edge gauges.
    pub fn record_boundary_edges(&self, by_shard: &[usize]) {
        for (s, &n) in by_shard.iter().enumerate() {
            if s < self.boundary_edges.len() {
                self.boundary_edges.at(s).set(n as i64);
            }
        }
    }
}
