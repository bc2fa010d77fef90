//! Serving-path metric families over an [`obsv::MetricsRegistry`].
//!
//! Both serving stacks register one set of read families
//! ([`ReadFamilies`]: per-query latency, block walks, the personalization
//! cache, admission) under their own prefix and latency axis — `attrank_*`
//! by plan `driver` for a [`QueryEngine`](crate::QueryEngine),
//! `attrank_sharded_*` by query `shape` for a
//! [`ShardedEngine`](crate::ShardedEngine) — so the two fit one registry
//! and `repro metrics` renders both stacks in one exposition. Around
//! them the flat [`ServingMetrics`] adds the planner, cursor, plan-cache
//! and per-method write-path families, the [`ShardedServingMetrics`] the
//! per-shard boundary-edge gauges. Each bundle owns the registry it
//! renders through.
//!
//! The hot path records through pre-resolved handles — a histogram
//! observation per query, counter bumps on planner/cursor events.
//! Everything sampled from live state (cache occupancy, epoch lag, replay
//! depth, admission stats) is refreshed at *render* time from what the
//! owning engine hands the bundle's `render`, which keeps those subsystems
//! free of metrics plumbing: counters refresh through
//! [`obsv::Counter::record_total`] (a `fetch_max`, so the exposed series
//! stay monotone) and gauges through [`obsv::Gauge::set`].

use std::sync::Arc;
use std::time::Duration;

use obsv::{
    Counter, CounterVec, Gauge, GaugeVec, Histogram, HistogramVec, MetricsRegistry,
    LATENCY_BOUNDS_NS,
};

use graphstore::WalObservers;
use sparsela::BlockWalk;

use crate::admission::AdmissionStats;
use crate::engine::RankingEngine;
use crate::personalization::CacheStats;
use crate::query::{PlanCacheStats, Query, QueryDriver, QueryError, QueryPlan};

/// The `driver` label index of a flat query's one partition plan (none:
/// its year window misses the corpus, an empty id range).
fn flat_driver(plans: &[(usize, QueryPlan)]) -> usize {
    plans.first().map_or(1, |(_, plan)| plan.driver.index())
}

/// Label values of the sharded query `shape` axis.
const SHAPE_LABELS: [&str; 4] = ["unfiltered", "year_range", "faceted", "seeded"];

/// The `shape` label index of a sharded query.
fn shape_index(q: &Query) -> usize {
    if !q.seeds.is_empty() {
        3
    } else if !q.venues.is_empty() || !q.authors.is_empty() {
        2
    } else if q.year_min.is_some() || q.year_max.is_some() {
        1
    } else {
        0
    }
}

/// Label values of the cache `outcome` axis (order matches
/// [`CacheStats`] field order: hits, warm repushes, cold pushes,
/// fallbacks).
const CACHE_OUTCOME_LABELS: [&str; 4] = ["hit", "warm_repush", "cold_push", "cold_fallback"];

/// Label values of the admission `decision` axis.
const ADMISSION_LABELS: [&str; 4] = ["admitted", "k_clamped", "scan_fallback", "shed"];

/// Label values of the cursor-error `kind` axis.
const CURSOR_ERROR_LABELS: [&str; 2] = ["stale", "mismatch"];

/// Label values of the plan-cache `outcome` axis (order matches
/// [`PlanCacheStats`] field order: hits, misses, stale drops,
/// capacity evictions).
const PLAN_CACHE_LABELS: [&str; 4] = ["hit", "miss", "stale", "evict"];

/// Label values of the successor-network `outcome` axis: a publish
/// either built its successor network or adopted the one a sibling
/// method's engine had just built from the same parent and batch.
const SUCCESSOR_LABELS: [&str; 2] = ["built", "shared"];

/// Label values of the block-walk `outcome` axis: blocks of a
/// range-driven selection whose ids were read, and blocks the block
/// maxima let it skip. `skipped / (scanned + skipped)` is what the
/// summaries save; a `scanned` share near 1 is a walk that prunes nothing.
const SELECT_BLOCK_LABELS: [&str; 2] = ["scanned", "skipped"];

/// Refreshes a counter family from cumulative totals, in label order.
fn record_totals<const N: usize>(family: &CounterVec, totals: [u64; N]) {
    for (i, total) in totals.into_iter().enumerate() {
        family.at(i).record_total(total);
    }
}

/// Per-method live instruments handed to a [`RankingEngine`]:
/// publish/apply/solve latency, successor-network reuse, push work
/// gauges, push fallbacks, and the WAL's append/fsync observers. The
/// handles alias children of the registering [`ServingMetrics`], so the
/// engine records directly into the rendered families.
#[derive(Debug, Clone)]
pub(crate) struct EngineInstruments {
    /// Whole-publish latency (apply + solve + snapshot build + swap).
    pub(crate) publish_seconds: Arc<Histogram>,
    /// Obtaining the successor network: the copy-and-merge
    /// `with_delta`, or the check that adopts a sibling's. Not observed by
    /// a publish with nothing staged.
    pub(crate) apply_seconds: Arc<Histogram>,
    /// Publishes that built their successor network.
    pub(crate) successor_built: Arc<Counter>,
    /// Publishes that adopted a sibling engine's successor network.
    pub(crate) successor_shared: Arc<Counter>,
    /// The ranking solve alone (`rank_full` / `rank_delta`).
    pub(crate) solve_seconds: Arc<Histogram>,
    /// Pushes spent by the last incremental publish (0 on full solves).
    pub(crate) push_pushes: Arc<Gauge>,
    /// Edge traversals spent by the last incremental publish. A traversed
    /// edge is counted once whatever the push's lane count (AttRank
    /// carries three systems through one traversal), so the gauge stays
    /// comparable with [`Self::push_edge_budget`].
    pub(crate) push_edge_work: Arc<Gauge>,
    /// The push budget the last publish ran under
    /// ([`citegraph::PushRankConfig::max_edge_work`] of the published
    /// network under the default config).
    pub(crate) push_edge_budget: Arc<Gauge>,
    /// Publishes that had a staged delta and still ran a full solve: the
    /// push declined (oversized delta, exhausted budget, state not yet
    /// built — the first delta after a start) or the method has no push
    /// at all, in which case every delta publish counts.
    pub(crate) push_fallbacks: Arc<Counter>,
    /// WAL append/fsync latency observers, attached to the engine's log.
    pub(crate) wal: WalObservers,
}

/// The read families both stacks register — one struct, one HELP
/// wording, two prefixes: `<prefix>_query_seconds` (latency along the
/// stack's axis) and `<prefix>_select_blocks_total` (blocks a selection
/// read or skipped, summed over the shards it scanned) record per query;
/// the cache (`outcomes_total`, `entries`, `bytes`) and admission
/// (`decisions_total`, `inflight_cost_ns`) families refresh at render.
#[derive(Debug)]
pub(crate) struct ReadFamilies {
    query_seconds: HistogramVec,
    select_blocks: CounterVec,
    cache_outcomes: CounterVec,
    cache_entries: Arc<Gauge>,
    cache_bytes: Arc<Gauge>,
    admission_decisions: CounterVec,
    admission_inflight: Arc<Gauge>,
}

impl ReadFamilies {
    /// Registers the seven read families as `<prefix>_…`, with query
    /// latency split along `axis` into `labels`.
    fn register(registry: &MetricsRegistry, prefix: &str, axis: &str, labels: &[&str]) -> Self {
        Self {
            query_seconds: registry.histogram_vec(
                &format!("{prefix}_query_seconds"),
                &format!("Per-query serving latency by {axis}"),
                axis,
                labels,
                &LATENCY_BOUNDS_NS,
            ),
            select_blocks: registry.counter_vec(
                &format!("{prefix}_select_blocks_total"),
                "Score blocks of block walks (id ranges, venue bands), read vs skipped by block maxima",
                "outcome",
                &SELECT_BLOCK_LABELS,
            ),
            cache_outcomes: registry.counter_vec(
                &format!("{prefix}_cache_outcomes_total"),
                "Personalization cache outcomes",
                "outcome",
                &CACHE_OUTCOME_LABELS,
            ),
            cache_entries: registry.gauge(
                &format!("{prefix}_cache_entries"),
                "Cached personalized vectors",
            ),
            cache_bytes: registry.gauge(
                &format!("{prefix}_cache_bytes"),
                "Byte occupancy of the personalization cache",
            ),
            admission_decisions: registry.counter_vec(
                &format!("{prefix}_admission_decisions_total"),
                "Admission-control decisions",
                "decision",
                &ADMISSION_LABELS,
            ),
            admission_inflight: registry.gauge(
                &format!("{prefix}_admission_inflight_cost_ns"),
                "Reserved in-flight estimated query cost in nanoseconds",
            ),
        }
    }

    /// Records one served query: its latency under axis label `label`
    /// and its selection's block counts. Id-range and venue-band walks
    /// count blocks; selections that walked none (author bands, masks)
    /// touch no block counter.
    pub(crate) fn observe(&self, label: usize, elapsed: Duration, walk: &BlockWalk) {
        self.query_seconds.at(label).observe(elapsed);
        if walk.blocks_in_range > 0 {
            let skipped = walk.blocks_in_range - walk.blocks_scanned;
            self.select_blocks.at(0).add(walk.blocks_scanned as u64);
            self.select_blocks.at(1).add(skipped as u64);
        }
    }

    /// Refreshes the cache and admission families from their live stats.
    fn refresh(&self, c: &CacheStats, admission: Option<AdmissionStats>) {
        let totals = [c.hits, c.warm_repushes, c.cold_pushes, c.fallbacks];
        record_totals(&self.cache_outcomes, totals);
        self.cache_entries.set(c.entries as i64);
        self.cache_bytes.set(c.bytes as i64);
        if let Some(a) = admission {
            let totals = [a.admitted, a.k_clamped, a.scan_fallbacks, a.shed];
            record_totals(&self.admission_decisions, totals);
            self.admission_inflight.set(a.inflight_ns as i64);
        }
    }
}

/// The bundle the one serve path records into: a flat engine's (latency
/// by executed driver, planner decisions, cursor errors) or a sharded
/// engine's (latency by query shape).
#[derive(Clone, Copy)]
pub(crate) enum ReadObserver<'a> {
    ByDriver(&'a ServingMetrics),
    ByShape(&'a ShardedServingMetrics),
}

impl ReadObserver<'_> {
    pub(crate) fn cursor_error(self, err: &QueryError) {
        if let Self::ByDriver(m) = self {
            let kind = match err {
                QueryError::StaleCursor { .. } => 0,
                _ => 1,
            };
            m.cursor_errors.at(kind).inc();
        }
    }

    pub(crate) fn planned(self, plans: &[(usize, QueryPlan)]) {
        if let Self::ByDriver(m) = self {
            m.planner_decisions.at(flat_driver(plans)).inc();
        }
    }

    pub(crate) fn served(
        self,
        q: &Query,
        plans: &[(usize, QueryPlan)],
        elapsed: Duration,
        walk: &BlockWalk,
    ) {
        match self {
            Self::ByDriver(m) => m.read.observe(flat_driver(plans), elapsed, walk),
            Self::ByShape(m) => m.read.observe(shape_index(q), elapsed, walk),
        }
    }
}

/// The flat serving stack's metric families and the registry they render
/// through.
#[derive(Debug)]
pub(crate) struct ServingMetrics {
    registry: Arc<MetricsRegistry>,
    /// The `attrank_*` read families, latency by plan `driver`.
    read: ReadFamilies,
    /// `attrank_planner_decisions_total`, by chosen driver.
    planner_decisions: CounterVec,
    /// `attrank_cursor_errors_total`, by kind.
    cursor_errors: CounterVec,
    plan_cache_events: CounterVec,
    plan_cache_entries: Arc<Gauge>,
    epoch: GaugeVec,
    staged_batches: GaugeVec,
    staged_edges: GaugeVec,
    wal_replay_depth: GaugeVec,
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
    pub(crate) fn register(registry: Arc<MetricsRegistry>, methods: &[&str]) -> Self {
        let r = &*registry;
        let per_method_gauge = |name: &str, help: &str| r.gauge_vec(name, help, "method", methods);
        let per_method_latency = |name: &str, help: &str| {
            r.histogram_vec(name, help, "method", methods, &LATENCY_BOUNDS_NS)
        };
        Self {
            read: ReadFamilies::register(r, "attrank", "driver", &QueryDriver::NAMES),
            planner_decisions: r.counter_vec(
                "attrank_planner_decisions_total",
                "Planner decisions by chosen driver",
                "driver",
                &QueryDriver::NAMES,
            ),
            cursor_errors: r.counter_vec(
                "attrank_cursor_errors_total",
                "Cursor validation failures by kind",
                "kind",
                &CURSOR_ERROR_LABELS,
            ),
            plan_cache_events: r.counter_vec(
                "attrank_plan_cache_events_total",
                "Plan-cache outcomes",
                "outcome",
                &PLAN_CACHE_LABELS,
            ),
            plan_cache_entries: r.gauge("attrank_plan_cache_entries", "Cached query plans"),
            epoch: per_method_gauge("attrank_epoch", "Published ranking epoch"),
            staged_batches: per_method_gauge(
                "attrank_staged_batches",
                "Ingested batches staged but not yet published",
            ),
            staged_edges: per_method_gauge(
                "attrank_staged_edges",
                "Citation edges staged since the last publish",
            ),
            wal_replay_depth: per_method_gauge(
                "attrank_wal_replay_depth",
                "WAL batches recovered but not yet replayed (cold start)",
            ),
            publish_seconds: per_method_latency(
                "attrank_publish_seconds",
                "Whole-publish latency (apply + solve + snapshot swap)",
            ),
            apply_seconds: per_method_latency(
                "attrank_apply_seconds",
                "Successor-network latency inside publish (built or shared)",
            ),
            successor_networks: r.counter_vec(
                "attrank_successor_networks_total",
                "Publishes by how the successor network was obtained",
                "outcome",
                &SUCCESSOR_LABELS,
            ),
            solve_seconds: per_method_latency(
                "attrank_solve_seconds",
                "Ranking solve latency inside publish",
            ),
            push_pushes: per_method_gauge(
                "attrank_push_pushes",
                "Pushes spent by the last incremental publish",
            ),
            push_edge_work: per_method_gauge(
                "attrank_push_edge_work",
                "Edge traversals spent by the last incremental publish (once per edge, not per lane)",
            ),
            push_edge_budget: per_method_gauge(
                "attrank_push_edge_budget",
                "Edge-traversal budget the last publish ran under",
            ),
            push_fallbacks: r.counter_vec(
                "attrank_push_fallbacks_total",
                "Publishes with a staged delta that ran a full solve",
                "method",
                methods,
            ),
            wal_append_seconds: r.histogram(
                "attrank_wal_append_seconds",
                "WAL append latency (serialize + write + fsync)",
                &LATENCY_BOUNDS_NS,
            ),
            wal_fsync_seconds: r.histogram(
                "attrank_wal_fsync_seconds",
                "WAL fsync latency inside append",
                &LATENCY_BOUNDS_NS,
            ),
            registry,
        }
    }

    /// The live instruments for the method at child index `idx` —
    /// what a [`RankingEngine`] records into. The WAL histograms and the
    /// successor-network counter are engine-wide (every method records
    /// into the same children).
    pub(crate) fn instruments(&self, idx: usize) -> Arc<EngineInstruments> {
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

    /// Refreshes every sampled family — the read families, the plan
    /// cache, each method's epoch/staged/replay gauges (`engines` in
    /// registration order) — and renders the whole registry.
    pub(crate) fn render<'a>(
        &self,
        engines: impl Iterator<Item = &'a RankingEngine>,
        cache: &CacheStats,
        plans: &PlanCacheStats,
        admission: Option<AdmissionStats>,
    ) -> String {
        self.read.refresh(cache, admission);
        let p = plans;
        record_totals(
            &self.plan_cache_events,
            [p.hits, p.misses, p.stale, p.evictions],
        );
        self.plan_cache_entries.set(p.entries as i64);
        for (idx, engine) in engines.enumerate() {
            let (staged_edges, staged_batches) = engine.pending();
            let epoch = engine.snapshot().epoch();
            self.epoch.at(idx).set(epoch.min(i64::MAX as u64) as i64);
            self.staged_batches.at(idx).set(staged_batches as i64);
            self.staged_edges.at(idx).set(staged_edges as i64);
            self.wal_replay_depth
                .at(idx)
                .set(engine.replay_backlog() as i64);
        }
        self.registry.render()
    }
}

/// The sharded stack's metric families — the read families under the
/// `attrank_sharded` prefix plus per-shard boundary edges — and the
/// registry they render through.
#[derive(Debug)]
pub(crate) struct ShardedServingMetrics {
    registry: Arc<MetricsRegistry>,
    /// The `attrank_sharded_*` read families, latency by query `shape`.
    read: ReadFamilies,
    /// Teleport-absorbed boundary edges per shard
    /// (`attrank_shard_boundary_edges`), refreshed at render.
    boundary_edges: GaugeVec,
}

impl ShardedServingMetrics {
    /// Registers every sharded-stack family on `registry`, with one
    /// `shard` child per partition.
    ///
    /// # Panics
    /// Panics if any family name is already registered.
    pub(crate) fn register(registry: Arc<MetricsRegistry>, n_shards: usize) -> Self {
        let shard_labels: Vec<String> = (0..n_shards).map(|s| s.to_string()).collect();
        let shard_refs: Vec<&str> = shard_labels.iter().map(|s| s.as_str()).collect();
        Self {
            read: ReadFamilies::register(&registry, "attrank_sharded", "shape", &SHAPE_LABELS),
            boundary_edges: registry.gauge_vec(
                "attrank_shard_boundary_edges",
                "Cross-shard citation edges absorbed into the teleport",
                "shard",
                &shard_refs,
            ),
            registry,
        }
    }

    /// Refreshes the read families and the per-shard boundary-edge
    /// gauges, then renders the whole registry.
    pub(crate) fn render(
        &self,
        cache: &CacheStats,
        admission: Option<AdmissionStats>,
        boundary_edges: &[usize],
    ) -> String {
        self.read.refresh(cache, admission);
        for (s, &n) in boundary_edges.iter().enumerate() {
            self.boundary_edges.at(s).set(n as i64);
        }
        self.registry.render()
    }
}
