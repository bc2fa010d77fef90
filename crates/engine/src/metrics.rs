//! Serving-path metric families over an [`obsv::MetricsRegistry`].
//!
//! Both serving stacks register one bundle, [`ServingMetrics`], under
//! their own [`Layout`]: `attrank_*` with query latency by plan `driver`
//! and one write-path child per method for a
//! [`QueryEngine`](crate::QueryEngine), `attrank_sharded_*` with latency
//! by query `shape` and one child per shard for a
//! [`ShardedEngine`](crate::ShardedEngine), which also gets the
//! per-shard boundary-edge gauges (`attrank_shard_boundary_edges`). The
//! family names are disjoint, so both stacks fit one registry and
//! `repro metrics` renders them in one exposition. Each bundle owns the
//! registry it renders through.
//!
//! The hot path records per-query counts — planner decisions, latency,
//! selection blocks and heads — into the serving scratch's own
//! [`ScratchTally`], bumped by plain loads and stores (one writer per
//! scratch) and folded into the families by a registry collector at every
//! render; latency is timed on one query in [`TIMED_EVERY`] per scratch
//! and shape. Rarer events (cursor errors) bump their counters directly.
//! Everything sampled from live state (cache occupancy, epoch lag, replay
//! depth, admission stats) is refreshed at *render* time from what the
//! owning engine hands the bundle's `render`, which keeps those subsystems
//! free of metrics plumbing: counters refresh through
//! [`obsv::Counter::record_total`] (a `fetch_max`, so the exposed series
//! stay monotone) and gauges through [`obsv::Gauge::set`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

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

/// The `driver` label index of a query's first partition plan (none: its
/// year window misses every partition, an empty id range).
fn first_driver(plans: &[(usize, QueryPlan)]) -> usize {
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
/// [`CacheStats`] field order: hits, carries, cold pushes; a carry keeps
/// the label of the warm re-push it replaced).
const CACHE_OUTCOME_LABELS: [&str; 3] = ["hit", "warm_repush", "cold_push"];

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

/// Label values of the head `outcome` axis: selections served as slices
/// of ordered heads (which read no block, so `select_blocks_total` counts
/// all their blocks `skipped`), and heads built by the walk of their
/// suffix on first use (which `select_blocks_total` does not count).
const SELECT_HEAD_LABELS: [&str; 2] = ["slice", "build"];

/// Label values of the push-state restore `outcome` axis, in
/// [`PushStateRestore`](crate::PushStateRestore) order: a cold start
/// restored the persisted push state, found none, or found one failing its
/// checksum.
const PUSH_STATE_LABELS: [&str; 3] = ["restored", "absent", "corrupt"];

/// Refreshes a counter family from cumulative totals, in label order.
fn record_totals(family: &CounterVec, totals: impl IntoIterator<Item = u64>) {
    for (i, total) in totals.into_iter().enumerate() {
        family.at(i).record_total(total);
    }
}

/// Queries of one shape a scratch serves per timed one. Two clock reads
/// cost ~90 ns on the reference container, a quarter of a head-slice
/// venue page (~350 ns); one query in 16 pays them, ~6 ns a query.
pub(crate) const TIMED_EVERY: u32 = 16;

/// Bins of a [`LATENCY_BOUNDS_NS`] histogram, `+Inf` last.
const LATENCY_BINS: usize = LATENCY_BOUNDS_NS.len() + 1;

/// Adds `n` to a count only its tally's scratch writes: a load and a
/// store (~1 ns), not a read-modify-write (~8 ns). A scratch serves one
/// query at a time, and passes between threads only through a lock or a
/// `&mut`, so no two writes race.
fn bump(count: &AtomicU64, n: u64) {
    count.store(count.load(Ordering::Relaxed) + n, Ordering::Relaxed);
}

/// The per-query counts one scratch has added up on one stack: planner
/// decisions by driver, latency bins and sum by the layout's label,
/// selection blocks scanned / skipped and head slices / builds.
#[derive(Debug)]
struct QueryTally {
    planner: Box<[AtomicU64]>,
    /// Per label: its [`LATENCY_BINS`] bins, then its sum in ns.
    latency: Box<[AtomicU64]>,
    blocks: [AtomicU64; 2],
    heads: [AtomicU64; 2],
}

impl QueryTally {
    fn new(labels: usize) -> Self {
        let zeros = |n: usize| (0..n).map(|_| AtomicU64::new(0)).collect();
        Self {
            planner: zeros(QueryDriver::NAMES.len()),
            latency: zeros(labels * (LATENCY_BINS + 1)),
            blocks: Default::default(),
            heads: Default::default(),
        }
    }

    /// Every count, in field order.
    fn counts(&self) -> impl Iterator<Item = &AtomicU64> {
        self.planner
            .iter()
            .chain(self.latency.iter())
            .chain(&self.blocks)
            .chain(&self.heads)
    }
}

/// One stack's tallies: slot 0 holds what the scratches dropped so far
/// left, every other slot one live scratch's.
#[derive(Debug)]
struct Tallies {
    labels: usize,
    slots: Mutex<Vec<Arc<QueryTally>>>,
}

impl Tallies {
    fn slots(&self) -> std::sync::MutexGuard<'_, Vec<Arc<QueryTally>>> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Every slot's counts summed, in [`QueryTally`] field order.
    fn totals(&self) -> Vec<u64> {
        let slots = self.slots();
        let mut totals = vec![0; slots[0].counts().count()];
        for tally in slots.iter() {
            for (total, count) in totals.iter_mut().zip(tally.counts()) {
                *total += count.load(Ordering::Relaxed);
            }
        }
        totals
    }
}

/// A scratch's tally on one stack ([`ServingMetrics::begin`] joins it on
/// the scratch's first query there), and what it needs to time one query
/// in [`TIMED_EVERY`] per shape: an untimed query is counted at the last
/// timed latency of its label on this scratch, or of its shape before its
/// label has one. Dropped with its scratch, it leaves its counts to the
/// stack.
#[derive(Debug)]
pub(crate) struct ScratchTally {
    tallies: Arc<Tallies>,
    tally: Arc<QueryTally>,
    /// Queries begun per shape.
    begun: [u32; SHAPE_LABELS.len()],
    /// The last timed `(bin, ns)` per label, then per shape.
    held: Box<[Option<(usize, u64)>]>,
}

impl Drop for ScratchTally {
    fn drop(&mut self) {
        let mut slots = self.tallies.slots();
        if let Some(at) = slots.iter().position(|t| Arc::ptr_eq(t, &self.tally)) {
            let gone = slots.swap_remove(at);
            for (total, count) in slots[0].counts().zip(gone.counts()) {
                bump(total, count.load(Ordering::Relaxed));
            }
        }
    }
}

/// How a served query's latency is known: timed from an instant, or held
/// — the `(bin, ns)` of its shape's last timed query on the scratch.
#[derive(Debug, Clone, Copy)]
pub(crate) enum QueryClock {
    Timed(Instant),
    Held(usize, u64),
}

/// Which stack a [`ServingMetrics`] bundle serves — its family prefix,
/// the axis its query latency splits along, and the axis of its
/// per-partition children.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Layout {
    /// `attrank_*`: latency by the executed plan's `driver`, one child
    /// per `method`.
    Flat,
    /// `attrank_sharded_*`: latency by query `shape`, one child per
    /// `shard`, plus `attrank_shard_boundary_edges`.
    Sharded,
}

/// Per-partition live instruments handed to a [`RankingEngine`]:
/// publish/apply/solve/freeze latency, successor-network reuse, push work
/// gauges, push fallbacks, and the WAL's append/fsync observers. The
/// handles alias children of the registering [`ServingMetrics`], so the
/// engine records directly into the rendered families.
#[derive(Debug, Clone)]
pub(crate) struct EngineInstruments {
    /// Whole-publish latency (apply + solve + freeze + swap).
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
    /// Freezing the solved scores into the published snapshot: the block
    /// summaries (and the venue cuts, when the network has not found or
    /// carried them). Not observed by a publish whose solve was rejected.
    pub(crate) freeze_seconds: Arc<Histogram>,
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
    /// push declined (exhausted budget, state not yet built — the first
    /// AttRank delta after a start) or the method has no push at all, in
    /// which case every delta publish counts.
    pub(crate) push_fallbacks: Arc<Counter>,
    /// WAL append/fsync latency observers, attached to the engine's log.
    pub(crate) wal: WalObservers,
}

/// One serving stack's metric families and the registry they render
/// through. Per query: `<prefix>_query_seconds` (latency along the
/// layout's axis), `_select_blocks_total` (blocks a selection read or
/// skipped, summed over the partitions it read), `_select_heads_total`
/// (partition selections served as head slices, heads built), planner
/// decisions (one
/// per partition plan) and cursor errors. At render: the personalization
/// cache, admission, the plan cache, each partition engine's
/// epoch/staged/replay gauges and its cold start's push-state restore.
/// Per partition engine, recorded by the
/// engine itself ([`Self::instruments`]): the write-path families.
#[derive(Debug)]
pub(crate) struct ServingMetrics {
    registry: Arc<MetricsRegistry>,
    layout: Layout,
    query_seconds: HistogramVec,
    select_blocks: CounterVec,
    select_heads: CounterVec,
    cache_outcomes: CounterVec,
    cache_entries: Arc<Gauge>,
    cache_bytes: Arc<Gauge>,
    admission_decisions: CounterVec,
    admission_inflight: Arc<Gauge>,
    planner_decisions: CounterVec,
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
    freeze_seconds: HistogramVec,
    push_pushes: GaugeVec,
    push_edge_work: GaugeVec,
    push_edge_budget: GaugeVec,
    push_fallbacks: CounterVec,
    push_state_restores: CounterVec,
    wal_append_seconds: Arc<Histogram>,
    wal_fsync_seconds: Arc<Histogram>,
    /// The scratches' per-query counts, folded into `query_seconds`,
    /// `planner_decisions`, `select_blocks` and `select_heads` at every
    /// render of the registry.
    tallies: Arc<Tallies>,
    /// Teleport-absorbed boundary edges per shard
    /// (`attrank_shard_boundary_edges`; sharded layout only).
    boundary_edges: Option<GaugeVec>,
}

/// Folds a stack's tallies into the families they count for, every
/// render of its registry.
fn collect_tallies(
    tallies: Arc<Tallies>,
    planner_decisions: CounterVec,
    query_seconds: HistogramVec,
    select_blocks: CounterVec,
    select_heads: CounterVec,
) -> impl Fn() + Send + Sync + 'static {
    move || {
        let totals = tallies.totals();
        let (planner, rest) = totals.split_at(QueryDriver::NAMES.len());
        let (latency, rest) = rest.split_at(tallies.labels * (LATENCY_BINS + 1));
        record_totals(&planner_decisions, planner.iter().copied());
        for (label, counts) in latency.chunks(LATENCY_BINS + 1).enumerate() {
            let (bins, sum) = counts.split_at(LATENCY_BINS);
            query_seconds.at(label).record_totals(bins, sum[0]);
        }
        record_totals(&select_blocks, rest[..2].iter().copied());
        record_totals(&select_heads, rest[2..].iter().copied());
    }
}

impl ServingMetrics {
    /// Registers every family of `layout` on `registry`, one write-path
    /// child per entry of `children` (the partition engines, in order),
    /// and the collector that folds the scratches' tallies into the
    /// per-query families at every render.
    ///
    /// # Panics
    /// Panics if any family name is already registered (two bundles of
    /// one layout cannot share one registry).
    pub(crate) fn register(
        registry: Arc<MetricsRegistry>,
        layout: Layout,
        children: &[&str],
    ) -> Self {
        let r = &*registry;
        // Family prefix, child axis, latency axis and its labels.
        let (prefix, child, axis, labels): (_, _, _, &[&str]) = match layout {
            Layout::Flat => ("attrank", "method", "driver", &QueryDriver::NAMES),
            Layout::Sharded => ("attrank_sharded", "shard", "shape", &SHAPE_LABELS),
        };
        let name = |family: &str| format!("{prefix}_{family}");
        let per_child_gauge =
            |family: &str, help: &str| r.gauge_vec(&name(family), help, child, children);
        let per_child_latency = |family: &str, help: &str| {
            r.histogram_vec(&name(family), help, child, children, &LATENCY_BOUNDS_NS)
        };
        let metrics = Self {
            query_seconds: r.histogram_vec(
                &name("query_seconds"),
                &format!("Per-query serving latency by {axis}"),
                axis,
                labels,
                &LATENCY_BOUNDS_NS,
            ),
            select_blocks: r.counter_vec(
                &name("select_blocks_total"),
                "Score blocks of block walks (id ranges, venue bands), read vs skipped by block maxima",
                "outcome",
                &SELECT_BLOCK_LABELS,
            ),
            select_heads: r.counter_vec(
                &name("select_heads_total"),
                "Selections served as slices of ordered heads, and heads built on first use",
                "outcome",
                &SELECT_HEAD_LABELS,
            ),
            cache_outcomes: r.counter_vec(
                &name("cache_outcomes_total"),
                "Personalization cache outcomes",
                "outcome",
                &CACHE_OUTCOME_LABELS,
            ),
            cache_entries: r.gauge(&name("cache_entries"), "Cached personalized vectors"),
            cache_bytes: r.gauge(
                &name("cache_bytes"),
                "Byte occupancy of the personalization cache",
            ),
            admission_decisions: r.counter_vec(
                &name("admission_decisions_total"),
                "Admission-control decisions",
                "decision",
                &ADMISSION_LABELS,
            ),
            admission_inflight: r.gauge(
                &name("admission_inflight_cost_ns"),
                "Reserved in-flight estimated query cost in nanoseconds",
            ),
            planner_decisions: r.counter_vec(
                &name("planner_decisions_total"),
                "Planner decisions by chosen driver",
                "driver",
                &QueryDriver::NAMES,
            ),
            cursor_errors: r.counter_vec(
                &name("cursor_errors_total"),
                "Cursor validation failures by kind",
                "kind",
                &CURSOR_ERROR_LABELS,
            ),
            plan_cache_events: r.counter_vec(
                &name("plan_cache_events_total"),
                "Plan-cache outcomes",
                "outcome",
                &PLAN_CACHE_LABELS,
            ),
            plan_cache_entries: r.gauge(&name("plan_cache_entries"), "Cached query plans"),
            epoch: per_child_gauge("epoch", "Published ranking epoch"),
            staged_batches: per_child_gauge(
                "staged_batches",
                "Ingested batches staged but not yet published",
            ),
            staged_edges: per_child_gauge(
                "staged_edges",
                "Citation edges staged since the last publish",
            ),
            wal_replay_depth: per_child_gauge(
                "wal_replay_depth",
                "WAL batches recovered but not yet replayed (cold start)",
            ),
            publish_seconds: per_child_latency(
                "publish_seconds",
                "Whole-publish latency (apply + solve + freeze + snapshot swap)",
            ),
            apply_seconds: per_child_latency(
                "apply_seconds",
                "Successor-network latency inside publish (built or shared)",
            ),
            successor_networks: r.counter_vec(
                &name("successor_networks_total"),
                "Publishes by how the successor network was obtained",
                "outcome",
                &SUCCESSOR_LABELS,
            ),
            solve_seconds: per_child_latency(
                "solve_seconds",
                "Ranking solve latency inside publish",
            ),
            freeze_seconds: per_child_latency(
                "freeze_seconds",
                "Snapshot freeze latency inside publish (block summaries, venue cuts)",
            ),
            push_pushes: per_child_gauge(
                "push_pushes",
                "Pushes spent by the last incremental publish",
            ),
            push_edge_work: per_child_gauge(
                "push_edge_work",
                "Edge traversals spent by the last incremental publish (once per edge, not per lane)",
            ),
            push_edge_budget: per_child_gauge(
                "push_edge_budget",
                "Edge-traversal budget the last publish ran under",
            ),
            push_fallbacks: r.counter_vec(
                &name("push_fallbacks_total"),
                "Publishes with a staged delta that ran a full solve",
                child,
                children,
            ),
            push_state_restores: r.counter_vec(
                &name("push_state_restore_total"),
                "Cold starts by what their warmup made of the persisted push state",
                "outcome",
                &PUSH_STATE_LABELS,
            ),
            wal_append_seconds: r.histogram(
                &name("wal_append_seconds"),
                "WAL append latency (serialize + write + fsync)",
                &LATENCY_BOUNDS_NS,
            ),
            wal_fsync_seconds: r.histogram(
                &name("wal_fsync_seconds"),
                "WAL fsync latency inside append",
                &LATENCY_BOUNDS_NS,
            ),
            tallies: Arc::new(Tallies {
                labels: labels.len(),
                slots: Mutex::new(vec![Arc::new(QueryTally::new(labels.len()))]),
            }),
            boundary_edges: (layout == Layout::Sharded).then(|| {
                r.gauge_vec(
                    "attrank_shard_boundary_edges",
                    "Cross-shard citation edges absorbed into the teleport",
                    "shard",
                    children,
                )
            }),
            layout,
            registry: Arc::clone(&registry),
        };
        registry.add_collector(collect_tallies(
            Arc::clone(&metrics.tallies),
            metrics.planner_decisions.clone(),
            metrics.query_seconds.clone(),
            metrics.select_blocks.clone(),
            metrics.select_heads.clone(),
        ));
        metrics
    }

    /// The live instruments for the partition engine at child index
    /// `idx` — what a [`RankingEngine`] records into. The WAL histograms
    /// and the successor-network counter are stack-wide (every child
    /// records into the same series).
    pub(crate) fn instruments(&self, idx: usize) -> Arc<EngineInstruments> {
        Arc::new(EngineInstruments {
            publish_seconds: self.publish_seconds.share(idx),
            apply_seconds: self.apply_seconds.share(idx),
            successor_built: self.successor_networks.share(0),
            successor_shared: self.successor_networks.share(1),
            solve_seconds: self.solve_seconds.share(idx),
            freeze_seconds: self.freeze_seconds.share(idx),
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

    /// Counts a cursor the serve path rejected, by kind.
    pub(crate) fn cursor_error(&self, err: &QueryError) {
        let kind = match err {
            QueryError::StaleCursor { .. } => 0,
            _ => 1,
        };
        self.cursor_errors.at(kind).inc();
    }

    /// The scratch's tally on this stack, joined now if the scratch has
    /// none here yet (its tally on another stack, if any, is left there).
    fn tally<'s>(&self, slot: &'s mut Option<ScratchTally>) -> &'s mut ScratchTally {
        match slot {
            Some(t) if Arc::ptr_eq(&t.tallies, &self.tallies) => {}
            _ => {
                let tally = Arc::new(QueryTally::new(self.tallies.labels));
                self.tallies.slots().push(Arc::clone(&tally));
                *slot = Some(ScratchTally {
                    tallies: Arc::clone(&self.tallies),
                    tally,
                    begun: [0; SHAPE_LABELS.len()],
                    held: vec![None; self.tallies.labels + SHAPE_LABELS.len()].into(),
                });
            }
        }
        slot.as_mut().expect("joined above")
    }

    /// Starts one query on the scratch whose tally is `slot`: reads the
    /// clock for the first query of its shape on the scratch and every
    /// [`TIMED_EVERY`]th after, and holds its shape's last timed latency
    /// for the others.
    pub(crate) fn begin(&self, slot: &mut Option<ScratchTally>, q: &Query) -> QueryClock {
        let t = self.tally(slot);
        let shape = shape_index(q);
        let begun = t.begun[shape];
        t.begun[shape] = begun.wrapping_add(1);
        match t.held[self.tallies.labels + shape] {
            Some((bin, ns)) if !begun.is_multiple_of(TIMED_EVERY) => QueryClock::Held(bin, ns),
            _ => QueryClock::Timed(Instant::now()),
        }
    }

    /// Counts the planner's decisions: one per partition plan, or one
    /// `id_range` (an empty one) when no partition can match.
    pub(crate) fn planned(&self, slot: &mut Option<ScratchTally>, plans: &[(usize, QueryPlan)]) {
        let planner = &self.tally(slot).tally.planner;
        if plans.is_empty() {
            bump(&planner[first_driver(plans)], 1);
        }
        for (_, plan) in plans {
            bump(&planner[plan.driver.index()], 1);
        }
    }

    /// Records one served query: its latency under the layout's axis —
    /// the executed plan's driver, or the query's shape — timed or held
    /// as [`Self::begin`] decided, and its selection's block and head
    /// counts. Id-range and venue-band selections count blocks;
    /// selections that walked none (author bands, masks) touch no block
    /// counter.
    pub(crate) fn served(
        &self,
        slot: &mut Option<ScratchTally>,
        q: &Query,
        plans: &[(usize, QueryPlan)],
        clock: QueryClock,
        walk: &BlockWalk,
    ) {
        let labels = self.tallies.labels;
        let t = self.tally(slot);
        let shape = shape_index(q);
        let label = match self.layout {
            Layout::Flat => first_driver(plans),
            Layout::Sharded => shape,
        };
        let (bin, ns) = match clock {
            QueryClock::Timed(at) => {
                let ns = u64::try_from(at.elapsed().as_nanos()).unwrap_or(u64::MAX);
                let timed = (LATENCY_BOUNDS_NS.partition_point(|&b| b < ns), ns);
                t.held[label] = Some(timed);
                t.held[labels + shape] = Some(timed);
                timed
            }
            QueryClock::Held(bin, ns) => t.held[label].unwrap_or((bin, ns)),
        };
        let tally = &t.tally;
        let latency = &tally.latency[label * (LATENCY_BINS + 1)..][..LATENCY_BINS + 1];
        bump(&latency[bin], 1);
        bump(&latency[LATENCY_BINS], ns);
        if walk.blocks_in_range > 0 {
            let skipped = walk.blocks_in_range - walk.blocks_scanned;
            bump(&tally.blocks[0], walk.blocks_scanned as u64);
            bump(&tally.blocks[1], skipped as u64);
        }
        bump(&tally.heads[0], walk.head_slices as u64);
        bump(&tally.heads[1], walk.heads_built as u64);
    }

    /// Refreshes every sampled family — the personalization cache,
    /// admission, the plan cache, each partition engine's
    /// epoch/staged/replay gauges (`engines` in child order), the
    /// push-state restores their cold starts counted and, on the
    /// sharded layout, the per-shard `boundary_edges` — and renders the
    /// whole registry.
    pub(crate) fn render<'a>(
        &self,
        engines: impl Iterator<Item = &'a RankingEngine>,
        cache: &CacheStats,
        plans: &PlanCacheStats,
        admission: Option<AdmissionStats>,
        boundary_edges: &[usize],
    ) -> String {
        let c = cache;
        let totals = [c.hits, c.warm_repushes, c.cold_pushes];
        record_totals(&self.cache_outcomes, totals);
        self.cache_entries.set(c.entries as i64);
        self.cache_bytes.set(c.bytes as i64);
        if let Some(a) = admission {
            let totals = [a.admitted, a.k_clamped, a.scan_fallbacks, a.shed];
            record_totals(&self.admission_decisions, totals);
            self.admission_inflight.set(a.inflight_ns as i64);
        }
        let p = plans;
        record_totals(
            &self.plan_cache_events,
            [p.hits, p.misses, p.stale, p.evictions],
        );
        self.plan_cache_entries.set(p.entries as i64);
        let mut restores = [0u64; PUSH_STATE_LABELS.len()];
        for (idx, engine) in engines.enumerate() {
            if let Some(outcome) = engine.push_state_restore() {
                restores[outcome as usize] += 1;
            }
            let (staged_edges, staged_batches) = engine.pending();
            let epoch = engine.snapshot().epoch();
            self.epoch.at(idx).set(epoch.min(i64::MAX as u64) as i64);
            self.staged_batches.at(idx).set(staged_batches as i64);
            self.staged_edges.at(idx).set(staged_edges as i64);
            self.wal_replay_depth
                .at(idx)
                .set(engine.replay_backlog() as i64);
        }
        record_totals(&self.push_state_restores, restores);
        if let Some(gauges) = &self.boundary_edges {
            for (s, &n) in boundary_edges.iter().enumerate() {
                gauges.at(s).set(n as i64);
            }
        }
        self.registry.render()
    }
}
