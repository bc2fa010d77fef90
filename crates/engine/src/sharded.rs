//! Sharded multi-graph serving: year-band partitions, parallel shard
//! re-rank, pruned scatter-gather top-k.
//!
//! A [`ShardedEngine`] serves one ranking method over a corpus split by a
//! [`citegraph::ShardPlan`] into contiguous id bands (the id space is
//! time-sorted, so id bands *are* year bands). Each band runs its own
//! [`RankingEngine`] — own network, own epoch snapshots, own
//! `KernelWorkspace`-equipped writer — which buys three things:
//!
//! * **parallel re-rank** — [`ShardedEngine::rerank_all`] solves every
//!   shard concurrently under `std::thread::scope`, one writer (and one
//!   workspace) per shard,
//! * **O(tail) ingest** — new papers always land in the newest year band,
//!   so [`ShardedEngine::ingest`] routes each [`GraphDelta`] to the tail
//!   shard and a publish re-solves only the tail's subgraph, not the
//!   whole corpus,
//! * **pruned reads** — a year-filtered query skips every shard whose
//!   year span cannot intersect the filter, then scatter-gathers
//!   per-shard top-k runs through [`sparsela::merge_k_sorted`].
//!
//! # Score composition across shards
//!
//! Cross-shard citations are **teleport-absorbed** at partition time (see
//! [`citegraph::shard`]): a citing paper's probability mass redistributes
//! over its intra-shard references, and papers left with none become
//! dangling (their mass teleports). Each shard's scores are therefore the
//! stationary distribution of its *own* subgraph (summing to 1 per
//! shard), and the composed ranking is the per-shard runs merged under
//! the workspace-wide `cmp_score_desc` total order. This trades exact
//! global scores for shard-local solves — the documented, tested
//! exception being the 1-shard plan, which drops no edges and is
//! **bit-identical** to the unsharded engine (proptest-pinned in this
//! crate's test suite). Edges dropped at partition or ingest time are
//! counted ([`ShardedEngine::boundary_edges`]), never silently lost.
//!
//! # One core, two facades
//!
//! A [`ShardedEngine`] is the crate's private serving core with one
//! method over the shards (a [`QueryEngine`](crate::QueryEngine) is the
//! same core with one partition per method), plus what only a shard plan
//! has: the band starts and the boundary-edge counts, the routing of
//! [`ShardedEngine::ingest`] into the tail's local ids, the per-shard
//! files ([`ShardedEngine::attach_wals`],
//! [`ShardedEngine::persist_epochs`], [`ShardedEngine::open_from_store`])
//! and the [`ShardSnapshots`] / [`ShardedPage`] types. Every read, batch,
//! compare, admission and metrics entry point forwards to the core.
//!
//! Every read hands the one serve path a pinned [`ShardSnapshots`] set,
//! one partition per shard, with the set's
//! [`ShardSnapshots::epoch_key`] as its generation. It prunes every shard
//! whose year span misses the filter (or, under `seed=`, that holds no
//! seed), plans each survivor through the engine's plan cache, prices the
//! query at the sum of those plans (the admission ladder has every rung),
//! selects at most `k` local ids per shard, and k-way-merges the
//! `(score · scale, start + local id)` runs. Pagination uses the flat
//! engine's [`Cursor`] and `c…` token ([`ShardCursor`] is an alias), bound
//! to the epoch key and carrying the `(score, global id)` frontier of the
//! last hit — in the grammar's `cursor=` or as the explicit argument;
//! successive pages off one pinned set tile the merged total order with
//! no overlaps or gaps, and a cursor minted against a different epoch set
//! fails with [`QueryError::StaleCursor`]. Queries fail with
//! [`QueryError`], builds, ingests and storage with [`EngineError`].

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use obsv::MetricsRegistry;

use citegraph::{CitationNetwork, GraphDelta, PaperId, ShardPlan};
use graphstore::{fnv1a64, fnv1a64_with, ShardManifest, Store};

use crate::admission::{AdmissionPolicy, AdmissionStats};
use crate::engine::{
    ColdStart, EngineError, EpochSnapshot, IngestReport, RankingEngine, RerankPolicy, WarmupReport,
};
use crate::metrics::Layout;
use crate::query::{par_map, Comparison, Core, Cursor, Hit, Method, Page, Pin, Query, QueryError};

/// A pinned, immutable set of per-shard epoch snapshots — the sharded
/// analogue of holding one `Arc<EpochSnapshot>`. Hold it to paginate
/// consistently while writers keep publishing tail epochs.
#[derive(Debug, Clone)]
pub struct ShardSnapshots {
    /// Shared with the engine: pinning a set copies no boundaries.
    starts: Arc<[PaperId]>,
    snaps: Vec<Arc<EpochSnapshot>>,
}

impl ShardSnapshots {
    /// Number of shards in the set.
    pub fn n_shards(&self) -> usize {
        self.snaps.len()
    }

    /// Total papers across all shards.
    pub fn n_papers(&self) -> usize {
        self.snaps.iter().map(|s| s.n_papers()).sum()
    }

    /// The pinned snapshot of shard `s`.
    pub fn snapshot(&self, s: usize) -> &Arc<EpochSnapshot> {
        &self.snaps[s]
    }

    /// First global id of shard `s`.
    pub fn start(&self, s: usize) -> PaperId {
        self.starts[s]
    }

    /// `(shard, local id)` for a global id covered by this set.
    ///
    /// # Panics
    /// When `id` is at or past the set's total paper count.
    pub fn locate(&self, id: PaperId) -> (usize, PaperId) {
        assert!(
            (id as usize) < self.n_papers(),
            "global id {id} out of range"
        );
        let s = self.starts.partition_point(|&b| b <= id) - 1;
        (s, id - self.starts[s])
    }

    /// Identity of this epoch set: an order-sensitive hash of every
    /// shard's epoch number. Two sets with any shard at a different
    /// epoch get different keys, which is what makes cursor staleness
    /// detectable without carrying S epoch numbers per cursor — the key
    /// is what a sharded [`Cursor`] holds as its
    /// [`epoch`](Cursor::epoch).
    pub fn epoch_key(&self) -> u64 {
        let mut key = fnv1a64(b"shard-epochs");
        for snap in &self.snaps {
            key = fnv1a64_with(key, &snap.epoch().to_le_bytes());
        }
        key
    }
}

impl Pin for ShardSnapshots {
    type Part = Arc<EpochSnapshot>;

    fn parts(&self) -> &[Arc<EpochSnapshot>] {
        &self.snaps
    }

    fn starts(&self) -> &[PaperId] {
        &self.starts
    }

    fn generation(&self) -> u64 {
        self.epoch_key()
    }
}

/// Resume token for sharded pagination: the flat engine's [`Cursor`] —
/// same struct, same `c…` token, same decoder — holding the pinned set's
/// [`ShardSnapshots::epoch_key`] where a flat cursor holds its epoch.
/// The frontier is the `(score, global id)` of the last hit; which shard
/// served it is [`ShardSnapshots::locate`] of that id.
pub type ShardCursor = Cursor;

/// One page of a sharded scatter-gather query.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedPage {
    /// The serving method's canonical config string.
    pub method: String,
    /// Epoch-set key of the pinned snapshots the page came from.
    pub epoch_key: u64,
    /// The hits, best first under `cmp_score_desc` over global ids.
    pub items: Vec<Hit>,
    /// Candidates matching the filters at and after the cursor frontier,
    /// summed over the scanned shards.
    pub matched: usize,
    /// Cursor for the next page; `None` when this page exhausts the
    /// result set (or `k` was 0).
    pub next: Option<ShardCursor>,
    /// Shards actually scanned after year-span pruning.
    pub shards_scanned: usize,
    /// Shards in the plan.
    pub shards_total: usize,
}

/// What one routed ingest did.
#[derive(Debug, Clone, Copy)]
pub struct ShardedIngestReport {
    /// The shard the batch was routed to (always the tail).
    pub shard: usize,
    /// Cross-shard citations absorbed (dropped + counted) by the router
    /// in this batch.
    pub boundary_edges: usize,
    /// The tail engine's ingest report.
    pub report: IngestReport,
}

impl ShardedPage {
    fn from_page(page: Page, shards_scanned: usize, shards_total: usize) -> Self {
        Self {
            method: page.method,
            epoch_key: page.epoch,
            items: page.items,
            matched: page.matched,
            next: page.next,
            shards_scanned,
            shards_total,
        }
    }
}

/// One ranking method served over a sharded corpus: per-shard
/// [`RankingEngine`]s behind one routed write path and one
/// scatter-gather read path. See the module docs for the score
/// composition model.
pub struct ShardedEngine {
    /// The serving core: one method, partition `s` = shard `s`.
    core: Core,
    /// Cross-shard citations absorbed so far, per shard: partition-time
    /// drops land on the shard that lost the edge, routed-ingest drops
    /// on the tail that absorbed them.
    boundary_edges: Vec<AtomicUsize>,
}

impl ShardedEngine {
    /// Partitions `net` by `plan` and builds one engine per shard — in
    /// parallel, one OS thread per shard, each owning its subgraph
    /// extraction and initial solve.
    pub fn from_plan(
        net: &CitationNetwork,
        plan: &ShardPlan,
        config: &str,
        policy: RerankPolicy,
    ) -> Result<Self, EngineError> {
        let n_shards = plan.n_shards();
        let built = par_map(n_shards, |s| {
            let (subnet, dropped) = plan.extract(net, s);
            let engine = RankingEngine::from_config(subnet, config, policy)?;
            Ok::<_, EngineError>((Arc::new(engine), dropped))
        });
        let (shards, dropped) = built
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .unzip();
        Ok(Self::over(
            shards,
            plan.boundaries()[..n_shards].into(),
            dropped,
        ))
    }

    /// The engine over built shard engines, with `dropped` boundary edges
    /// already absorbed per shard — what [`Self::from_plan`] and
    /// [`Self::open_from_store`] end in.
    fn over(shards: Vec<Arc<RankingEngine>>, starts: Arc<[PaperId]>, dropped: Vec<usize>) -> Self {
        let method = Method::new(shards[0].method().to_string(), shards);
        Self {
            core: Core::new(vec![method], starts),
            boundary_edges: dropped.into_iter().map(AtomicUsize::new).collect(),
        }
    }

    /// The served method's canonical config string.
    pub fn method(&self) -> &str {
        self.core.method(0)
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.core.starts().len()
    }

    /// First global id of each shard (the plan's boundaries, minus the
    /// open tail end).
    pub fn starts(&self) -> &[PaperId] {
        self.core.starts()
    }

    /// The per-shard engines, in id order (read access for tests and
    /// drivers; writes should go through [`Self::ingest`]).
    pub fn shard_engines(&self) -> &[Arc<RankingEngine>] {
        self.core.parts(0)
    }

    /// Cross-shard citations absorbed so far: partition-time drops plus
    /// every boundary edge dropped by routed ingests.
    pub fn boundary_edges(&self) -> usize {
        self.boundary_edges_by_shard().iter().sum()
    }

    /// [`Self::boundary_edges`] broken down per shard, in id order:
    /// partition-time drops land on the shard that lost the edge,
    /// routed-ingest drops on the absorbing tail.
    pub fn boundary_edges_by_shard(&self) -> Vec<usize> {
        self.boundary_edges
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Registers the sharded-stack metric families on `registry`: the
    /// flat [`QueryEngine`](crate::QueryEngine)'s families under the
    /// `attrank_sharded` prefix — query latency by query `shape`, the
    /// write-path families with one `shard` child per shard — plus the
    /// per-shard boundary-edge gauges (`attrank_shard_boundary_edges`).
    /// Both stacks can share one registry and render in a single
    /// exposition.
    ///
    /// # Panics
    /// Panics if the sharded-stack family names are already registered
    /// on `registry`.
    pub fn enable_metrics_on(&mut self, registry: Arc<MetricsRegistry>) {
        self.core.enable_metrics_on(registry, Layout::Sharded)
    }

    /// [`Self::enable_metrics_on`] over a fresh registry; returns the
    /// registry so the caller can render it.
    pub fn enable_metrics(&mut self) -> Arc<MetricsRegistry> {
        self.core.enable_metrics(Layout::Sharded)
    }

    /// Installs (or replaces) the admission policy guarding the
    /// scatter-gather read path.
    ///
    /// A query is priced at the sum of its surviving shards' plan costs
    /// — the flat engine's prices — and runs the same ladder with every
    /// rung: a residual scan over the scan ceiling re-plans every shard
    /// onto its cheapest indexed shape, then `k` is clamped, then the
    /// query sheds.
    pub fn set_admission(&mut self, policy: AdmissionPolicy) {
        self.core.set_admission(policy)
    }

    /// Counters of the admission controller, if one is installed.
    pub fn admission_stats(&self) -> Option<AdmissionStats> {
        self.core.admission_stats()
    }

    /// Refreshes every sampled sharded family (cache occupancy,
    /// admission and plan-cache counters, per-shard epoch/staged/replay
    /// and boundary-edge gauges) and renders the registry's Prometheus
    /// exposition text. `None` until metrics are enabled. Renders
    /// *everything* on the registry — including a flat stack registered
    /// on the same one.
    pub fn render_metrics(&self) -> Option<String> {
        self.core.render_metrics(&self.boundary_edges_by_shard())
    }

    /// Routes a **global-id** delta to the tail shard.
    ///
    /// New papers always belong to the newest year band, so they append
    /// to the tail subgraph (global id `g` ↔ tail-local `g − tail_start`,
    /// consistent for existing and new papers alike). Citations survive
    /// only when both endpoints live in the tail; any edge touching a
    /// frozen shard — a citation *of* an old paper, or a bibliography
    /// correction *from* one — is absorbed under the boundary-edge model
    /// (dropped and counted, exactly like partition-time cross-shard
    /// edges). The tail engine validates the translated batch, so a
    /// rejected delta changes nothing.
    pub fn ingest(&self, delta: &GraphDelta) -> Result<ShardedIngestReport, EngineError> {
        let tail = self.n_shards() - 1;
        let tail_start = self.core.starts()[tail];
        let mut local = GraphDelta::new();
        local.papers = delta.papers.clone();
        // Venue/author metadata rides along unchanged — facet ids are
        // global, only paper ids translate, so the tail's posting lists
        // stay fresh on the same publish that adds the papers.
        local.authors = delta.authors.clone();
        local.venues = delta.venues.clone();
        let mut absorbed = 0usize;
        for &(citing, cited) in &delta.citations {
            if citing >= tail_start && cited >= tail_start {
                local.add_citation(citing - tail_start, cited - tail_start);
            } else {
                absorbed += 1;
            }
        }
        let report = self.core.ingest(tail, &local)?.remove(0);
        self.boundary_edges[tail].fetch_add(absorbed, Ordering::Relaxed);
        Ok(ShardedIngestReport {
            shard: tail,
            boundary_edges: absorbed,
            report,
        })
    }

    /// Re-ranks and publishes every shard **in parallel** (one scoped
    /// thread per shard; each engine's writer owns its own kernel
    /// workspace). Returns the published epoch per shard, in id order.
    pub fn rerank_all(&self) -> Vec<u64> {
        self.core.rerank()
    }

    /// Pins the current epoch of every shard as one consistent read set.
    pub fn snapshots(&self) -> ShardSnapshots {
        ShardSnapshots {
            starts: Arc::clone(self.core.starts()),
            snaps: self.core.pin(0),
        }
    }

    /// Executes `q` against a freshly pinned snapshot set. Convenience
    /// for [`Self::query_at`] — paginating callers should pin
    /// [`Self::snapshots`] once and pass it explicitly.
    pub fn query(
        &self,
        q: &Query,
        cursor: Option<&ShardCursor>,
    ) -> Result<ShardedPage, QueryError> {
        self.query_at(&self.snapshots(), q, cursor)
    }

    /// Scatter-gather execution of `q` against a pinned epoch set (see
    /// the module docs). A shard whose year span misses the filter is
    /// skipped without touching its arrays (the page reports
    /// `shards_scanned` / `shards_total`); facet ids are validated against
    /// the set as a whole, so tail-grown facet ids serve.
    ///
    /// Seeded queries (`seed=`) rank by per-shard personalized solves:
    /// seeds route to their owning bands, each seeded shard's scores are
    /// scaled by its share of the seed mass, shards holding no seeds
    /// prune (their personalized mass is identically zero under the
    /// teleport-absorbed boundary model), and repeat seed sets serve from
    /// the engine-wide cache.
    ///
    /// `q.method` / `q.vs` are ignored (this engine serves one method;
    /// compare mode is [`Self::compare`]). The page resumes after
    /// `cursor` — or, when that is `None`, after the grammar's own
    /// `cursor=` ([`Query::cursor`]); giving both is fine when they
    /// agree and a [`QueryError::CursorMismatch`] when they do not.
    pub fn query_at(
        &self,
        snaps: &ShardSnapshots,
        q: &Query,
        cursor: Option<&ShardCursor>,
    ) -> Result<ShardedPage, QueryError> {
        self.core
            .page(0, snaps, q, cursor)
            .map(|(page, read)| ShardedPage::from_page(page, read, snaps.n_shards()))
    }

    /// Executes a batch of `(query, cursor)` members against a freshly
    /// pinned snapshot set. Convenience for [`Self::query_batch_at`].
    pub fn query_batch(
        &self,
        batch: &[(Query, Option<ShardCursor>)],
    ) -> Vec<Result<ShardedPage, QueryError>> {
        self.query_batch_at(&self.snapshots(), batch)
    }

    /// Executes every `(query, cursor)` member, in submission order,
    /// against one pinned epoch set, returning pages bit-identical to
    /// calling [`Self::query_at`] member-by-member against the same set
    /// (same pages, same cursors, same typed errors).
    ///
    /// What the batch amortizes: one pooled scratch (candidate pools,
    /// per-shard run buffers, merge heap) serves every member, and a
    /// member equal to an earlier served member is answered from that
    /// member's page without touching the shards (`serve_batch` in the
    /// query module — the flat engine's batch executor too).
    pub fn query_batch_at(
        &self,
        snaps: &ShardSnapshots,
        batch: &[(Query, Option<ShardCursor>)],
    ) -> Vec<Result<ShardedPage, QueryError>> {
        self.core.batch(
            batch,
            |_| Ok((0, snaps)),
            |page, read| ShardedPage::from_page(page, read, snaps.n_shards()),
        )
    }

    /// Compare mode over the sharded surface: the primary page under
    /// this engine's method (filters, pagination, `seed=` all apply),
    /// each hit joined with its score and **composed global rank** under
    /// both engines — the sharded serving of `vs=` queries (the driver
    /// resolves `q.vs` to `other`). Both engines must share the same
    /// shard starts, else their global ids name different papers
    /// ([`QueryError::PlanMismatch`]). The [`Comparison`]'s
    /// `epoch_a` / `epoch_b` are the two pinned sets' epoch keys.
    ///
    /// Ranks are 1-based places in the cross-shard `cmp_score_desc`
    /// merge of each engine's pinned snapshots, from the flat engine's
    /// join with one partition per shard: a row costs one binary search
    /// per shard over its snapshot's cached rank order. A hit
    /// past the secondary engine's coverage — its tail has not ingested
    /// that paper yet — joins as `None`, mirroring the flat engine.
    /// Under `seed=` the page's *scores* are personalized while both
    /// rank columns stay global.
    pub fn compare(
        &self,
        other: &ShardedEngine,
        q: &Query,
        cursor: Option<&ShardCursor>,
    ) -> Result<Comparison, QueryError> {
        self.core.compare(
            (0, &self.snapshots()),
            &other.core,
            (0, &other.snapshots()),
            q,
            cursor,
        )
    }

    /// Global top-`k` (unfiltered scatter-gather over all shards). Goes
    /// through admission like any query: an installed policy can clamp
    /// `k` or shed it with [`QueryError::Overloaded`].
    pub fn top_k(&self, k: usize) -> Result<Vec<PaperId>, QueryError> {
        let q = Query {
            k,
            ..Query::default()
        };
        self.query(&q, None)
            .map(|page| page.items.iter().map(|h| h.id).collect())
    }

    /// Path of shard `s`'s snapshot store under `stem`
    /// (`<stem>.shard<s>.store`).
    pub fn shard_store_path(stem: &Path, s: usize) -> PathBuf {
        let mut os = stem.as_os_str().to_os_string();
        os.push(format!(".shard{s}.store"));
        PathBuf::from(os)
    }

    /// Path of shard `s`'s WAL under `stem` (`<stem>.shard<s>.wal`).
    pub fn shard_wal_path(stem: &Path, s: usize) -> PathBuf {
        let mut os = stem.as_os_str().to_os_string();
        os.push(format!(".shard{s}.wal"));
        PathBuf::from(os)
    }

    /// Attaches one durability WAL per shard (`<stem>.shard<s>.wal`).
    /// Returns the recovered record count per shard.
    pub fn attach_wals<P: AsRef<Path>>(&self, stem: P) -> Result<Vec<usize>, EngineError> {
        let stem = stem.as_ref();
        self.shard_engines()
            .iter()
            .enumerate()
            .map(|(s, e)| e.attach_wal(Self::shard_wal_path(stem, s)))
            .collect()
    }

    /// Persists every shard's network + published epoch to
    /// `<stem>.shard<s>.store`, each snapshot branded with the full
    /// [`ShardManifest`] — so a cold start that opens *any one* shard
    /// file learns the whole plan. Each shard's write is individually
    /// atomic (temp file + rename), so a crash mid-way leaves every
    /// shard either at its old snapshot or its new one, never torn.
    /// Returns the persisted epoch per shard.
    pub fn persist_epochs<P: AsRef<Path>>(&self, stem: P) -> Result<Vec<u64>, EngineError> {
        let stem = stem.as_ref();
        let shards = self.shard_engines();
        let tail = shards.len() - 1;
        let mut boundaries = self.starts().to_vec();
        boundaries.push(self.starts()[tail] + shards[tail].snapshot().n_papers() as PaperId);
        let mut epochs = Vec::with_capacity(shards.len());
        for (s, e) in shards.iter().enumerate() {
            let manifest = ShardManifest {
                shard: s as u32,
                boundaries: boundaries.clone(),
            };
            epochs.push(e.persist_epoch_with(Self::shard_store_path(stem, s), |b| {
                b.shard_manifest(&manifest)
            })?);
        }
        Ok(epochs)
    }

    /// Cold-starts a sharded engine from `<stem>.shard<s>.store` files
    /// (and, when `with_wal`, their `<stem>.shard<s>.wal` logs).
    ///
    /// Shard 0's manifest supplies the plan — shard count and id
    /// boundaries — then **all shards open in parallel** (one scoped
    /// thread each). Every shard publishes its persisted epoch before
    /// its WAL replay begins, so the returned engine serves its first
    /// `top_k` from all shards' persisted epochs immediately; call
    /// [`ShardedColdStart::wait`] before writing.
    pub fn open_from_store<P: AsRef<Path>>(
        stem: P,
        with_wal: bool,
        policy: RerankPolicy,
    ) -> Result<ShardedColdStart, EngineError> {
        let stem = stem.as_ref();
        let first = Store::open(Self::shard_store_path(stem, 0))?;
        let manifest = first.shard_manifest().ok_or_else(|| {
            EngineError::Restore("shard 0 snapshot carries no shard manifest".into())
        })?;
        let n_shards = manifest.n_shards();
        // Shard 0's file is already read and checksummed: its thread takes
        // it over instead of opening it again.
        let first = Mutex::new(Some(first));
        let opened = par_map(n_shards, |s| {
            let reused = (s == 0).then(|| first.lock().ok()?.take()).flatten();
            let store = match reused {
                Some(store) => store,
                None => Store::open(Self::shard_store_path(stem, s))?,
            };
            let wal = with_wal.then(|| Self::shard_wal_path(stem, s));
            RankingEngine::open_store(store, wal, policy)
        });
        let colds = opened.into_iter().collect::<Result<Vec<_>, _>>()?;
        let shards: Vec<Arc<RankingEngine>> = colds.iter().map(|c| c.engine()).collect();
        let method = shards[0].method();
        if let Some(odd) = shards.iter().find(|e| e.method() != method) {
            return Err(EngineError::Restore(format!(
                "shard snapshots disagree on the method: {} vs {}",
                method,
                odd.method()
            )));
        }
        let starts = manifest.boundaries[..n_shards].into();
        Ok(ShardedColdStart {
            engine: Self::over(shards, starts, vec![0; n_shards]),
            shards: colds,
        })
    }
}

/// A sharded engine restored from disk, with each shard's background
/// WAL-replay warmup still in flight. The engine serves reads (from the
/// persisted epochs) immediately; [`Self::wait`] joins every warmup.
pub struct ShardedColdStart {
    engine: ShardedEngine,
    shards: Vec<ColdStart>,
}

impl ShardedColdStart {
    /// The restored engine (readable immediately).
    pub fn engine(&self) -> &ShardedEngine {
        &self.engine
    }

    /// Blocks until every shard's warmup finishes; returns the engine
    /// and the per-shard warmup reports, in id order.
    pub fn wait(self) -> (ShardedEngine, Vec<WarmupReport>) {
        let reports = self.shards.into_iter().map(|c| c.wait().1).collect();
        (self.engine, reports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{
        overlaps, price_partition, CostModel, QueryEngine, QueryScratch, SCRATCH_POOL_CAP,
    };
    use citegraph::{dense_personalized, NetworkBuilder, SeedPersonalization, ShardSpec, Year};
    use sparsela::{cmp_score_desc, KernelWorkspace};
    use std::thread;

    /// 12 papers over 2000–2011 with venues and authors (same shape as
    /// the query-layer fixture): venue `id % 3` (2 → none), authors
    /// `[id % 2]` plus author 2 on multiples of 4, and a citation fan-in
    /// that gives distinct cc mass to early papers.
    fn corpus() -> CitationNetwork {
        corpus_with(true)
    }

    /// [`corpus`], or — `metadata = false` — the same papers and
    /// citations carved before any venue/author metadata existed.
    fn corpus_with(metadata: bool) -> CitationNetwork {
        corpus_citing(metadata, |i, j| (i + j) % 3 != 0)
    }

    /// The twelve papers of [`corpus`], paper `i` citing each earlier `j`
    /// where `cites(i, j)`.
    fn corpus_citing(metadata: bool, cites: impl Fn(u32, u32) -> bool) -> CitationNetwork {
        let mut b = NetworkBuilder::new();
        for i in 0..12u32 {
            let mut authors = vec![i % 2];
            if i % 4 == 0 {
                authors.push(2);
            }
            let venue = match i % 3 {
                0 => Some(0),
                1 => Some(1),
                _ => None,
            };
            if metadata {
                b.add_paper_with_metadata(2000 + i as Year, authors, venue);
            } else {
                b.add_paper(2000 + i as Year);
            }
        }
        for i in 1..12u32 {
            for j in 0..i {
                if cites(i, j) {
                    b.add_citation(i, j).unwrap();
                }
            }
        }
        b.build().unwrap()
    }

    fn sharded(n: usize) -> ShardedEngine {
        sharded_with(n, "cc")
    }

    fn sharded_with(n: usize, config: &str) -> ShardedEngine {
        let net = corpus();
        let plan = ShardSpec::Fixed(n).plan(&net).unwrap();
        ShardedEngine::from_plan(&net, &plan, config, RerankPolicy::EveryBatch).unwrap()
    }

    /// Brute-force seeded reference: the documented composition model —
    /// a dense personalized solve per seeded shard, scaled by that
    /// shard's share of the seed mass, unseeded shards absent.
    fn seeded_reference(eng: &ShardedEngine, seeds: &[PaperId], alpha: f64) -> Vec<(f64, PaperId)> {
        let snaps = eng.snapshots();
        let mut locals: Vec<Vec<PaperId>> = vec![Vec::new(); snaps.n_shards()];
        for &g in seeds {
            let (s, l) = snaps.locate(g);
            locals[s].push(l);
        }
        let mut all = Vec::new();
        let mut ws = KernelWorkspace::new();
        for (s, ids) in locals.iter().enumerate() {
            if ids.is_empty() {
                continue;
            }
            let snap = snaps.snapshot(s);
            let seed = SeedPersonalization::uniform(ids, snap.n_papers()).unwrap();
            let dense = dense_personalized(snap.network(), &seed, alpha, &mut ws);
            let scale = ids.len() as f64 / seeds.len() as f64;
            for (l, &sc) in dense.as_slice().iter().enumerate() {
                all.push((sc * scale, snaps.start(s) + l as PaperId));
            }
        }
        all.sort_by(|&(xs, xi), &(ys, yi)| cmp_score_desc(xs, xi, ys, yi));
        all
    }

    /// Brute-force reference over a pinned set: every (score, global id)
    /// pair from every shard, filtered, sorted by `cmp_score_desc`.
    fn reference(snaps: &ShardSnapshots, q: &Query) -> Vec<(f64, PaperId)> {
        let mut all = Vec::new();
        for s in 0..snaps.n_shards() {
            let snap = snaps.snapshot(s);
            let net = snap.network();
            let scores = snap.scores().as_slice();
            for local in 0..net.n_papers() as u32 {
                let gid = snaps.start(s) + local;
                let year = net.year(local);
                let keep = q.year_min.is_none_or(|lo| year >= lo)
                    && q.year_max.is_none_or(|hi| year <= hi)
                    && (q.venues.is_empty()
                        || net
                            .venues()
                            .and_then(|t| t.venue_of(local))
                            .is_some_and(|v| q.venues.contains(&v)))
                    && (q.authors.is_empty()
                        || net.authors().is_some_and(|t| {
                            t.authors_of(local).iter().any(|a| q.authors.contains(a))
                        }));
                if keep {
                    all.push((scores[local as usize], gid));
                }
            }
        }
        all.sort_by(|&(xs, xi), &(ys, yi)| cmp_score_desc(xs, xi, ys, yi));
        all
    }

    fn ids(page: &ShardedPage) -> Vec<PaperId> {
        page.items.iter().map(|h| h.id).collect()
    }

    #[test]
    fn scatter_gather_matches_reference_across_shard_counts() {
        for n_shards in [1, 2, 3, 4] {
            let eng = sharded(n_shards);
            let snaps = eng.snapshots();
            for s in [
                "k=12",
                "k=5",
                "k=4,venue=0",
                "k=4,venue=1",
                "k=4,author=2",
                "k=6,year=2003..2008",
                "k=6,year=2005..",
                "k=3,year=..2004,venue=0",
                "k=12,author=1,year=2002..2009",
            ] {
                let q: Query = s.parse().unwrap();
                let page = eng.query_at(&snaps, &q, None).unwrap();
                let want = reference(&snaps, &q);
                let want_ids: Vec<PaperId> = want.iter().take(q.k).map(|&(_, id)| id).collect();
                assert_eq!(ids(&page), want_ids, "{n_shards} shards, {s}");
                assert_eq!(page.matched, want.len(), "{n_shards} shards, {s}");
                // Hit metadata resolves through the owning shard.
                for hit in &page.items {
                    let (sh, local) = snaps.locate(hit.id);
                    let net = snaps.snapshot(sh).network();
                    assert_eq!(hit.year, net.year(local));
                    assert_eq!(hit.score, snaps.snapshot(sh).score(local).unwrap());
                }
            }
        }
    }

    #[test]
    fn year_filter_prunes_non_overlapping_shards() {
        let eng = sharded(4); // 3 papers per shard: years 2000-02|03-05|06-08|09-11
        let q: Query = "k=3,year=2003..2005".parse().unwrap();
        let page = eng.query(&q, None).unwrap();
        assert_eq!(page.shards_total, 4);
        assert_eq!(page.shards_scanned, 1, "only the 2003-2005 band survives");
        assert_eq!(
            ids(&page),
            reference(&eng.snapshots(), &q)[..3]
                .iter()
                .map(|&(_, id)| id)
                .collect::<Vec<_>>()
        );

        let q: Query = "k=12,year=2006..".parse().unwrap();
        let page = eng.query(&q, None).unwrap();
        assert_eq!(page.shards_scanned, 2, "two tail bands overlap 2006..");

        let q: Query = "k=12".parse().unwrap();
        let page = eng.query(&q, None).unwrap();
        assert_eq!(page.shards_scanned, 4, "unfiltered scans everything");
    }

    #[test]
    fn pages_tile_the_merged_total_order() {
        for n_shards in [2, 3] {
            for filter in ["", ",venue=0", ",year=2002..2010", ",author=0"] {
                let eng = sharded(n_shards);
                let snaps = eng.snapshots();
                let full: Query = format!("k=12{filter}").parse().unwrap();
                let want: Vec<PaperId> =
                    reference(&snaps, &full).iter().map(|&(_, id)| id).collect();
                let q: Query = format!("k=2{filter}").parse().unwrap();
                let mut got = Vec::new();
                let mut cursor: Option<ShardCursor> = None;
                let mut remaining = want.len();
                loop {
                    let page = eng.query_at(&snaps, &q, cursor.as_ref()).unwrap();
                    assert_eq!(
                        page.matched, remaining,
                        "{n_shards} shards{filter}: matched tracks the tail"
                    );
                    // `cursor=` in the grammar (token → parse →
                    // `Query::cursor`) is the same page as the argument.
                    let text = Query {
                        cursor,
                        ..q.clone()
                    }
                    .to_string();
                    let in_grammar: Query = text.parse().unwrap();
                    assert_eq!(in_grammar.cursor, cursor, "{text}");
                    assert_eq!(eng.query_at(&snaps, &in_grammar, None).unwrap(), page);
                    got.extend(ids(&page));
                    remaining -= page.items.len();
                    match page.next {
                        Some(c) => cursor = Some(c),
                        None => break,
                    }
                }
                assert_eq!(got, want, "{n_shards} shards{filter}");
            }
        }
    }

    #[test]
    fn cursor_token_round_trips_and_is_scoped() {
        let eng = sharded(3);
        let snaps = eng.snapshots();
        let q: Query = "k=2,venue=0".parse().unwrap();
        let page = eng.query_at(&snaps, &q, None).unwrap();
        let cursor = page.next.expect("more than 2 venue-0 papers");

        // Token round-trip: the flat engine's `c…` token, bound to the
        // pinned set's epoch key.
        let token = cursor.to_string();
        assert!(token.starts_with('c'), "{token}");
        assert_eq!(token.parse::<ShardCursor>().unwrap(), cursor);
        assert_eq!(cursor.epoch(), snaps.epoch_key());
        assert!("znot-a-cursor".parse::<ShardCursor>().is_err());

        // Different filters → CursorMismatch.
        let other: Query = "k=2,venue=1".parse().unwrap();
        assert!(matches!(
            eng.query_at(&snaps, &other, Some(&cursor)),
            Err(QueryError::CursorMismatch)
        ));

        // The argument and the grammar's `cursor=` both given: fine when
        // they agree, typed when they do not (single query and batch).
        let page2 = eng.query_at(&snaps, &q, Some(&cursor)).unwrap();
        let earlier = eng.query_at(&snaps, &Query { k: 1, ..q.clone() }, None);
        let earlier = earlier.unwrap().next.expect("more than 1 venue-0 paper");
        let own = Query {
            cursor: Some(cursor),
            ..q.clone()
        };
        assert_eq!(eng.query_at(&snaps, &own, Some(&cursor)).unwrap(), page2);
        let batch = [(own.clone(), Some(earlier)), (own, None)];
        let pages = eng.query_batch_at(&snaps, &batch);
        assert!(matches!(pages[0], Err(QueryError::CursorMismatch)));
        assert_eq!(pages[1].as_ref().unwrap(), &page2);

        // A tail publish moves the epoch set → StaleCursor against the
        // engine's *current* set, while the pinned set keeps serving.
        let mut delta = GraphDelta::new();
        delta.add_paper(2012);
        delta.add_citation(12, 11);
        eng.ingest(&delta).unwrap();
        assert!(matches!(
            eng.query(&q, Some(&cursor)),
            Err(QueryError::StaleCursor { .. })
        ));
        let page2 = eng.query_at(&snaps, &q, Some(&cursor)).unwrap();
        assert!(!page2.items.is_empty());
    }

    #[test]
    fn k0_is_a_count_across_shards() {
        let eng = sharded(3);
        let snaps = eng.snapshots();
        for filter in ["", ",venue=0", ",year=2003..2007", ",author=2"] {
            let q: Query = format!("k=0{filter}").parse().unwrap();
            let page = eng.query_at(&snaps, &q, None).unwrap();
            assert!(page.items.is_empty());
            assert!(page.next.is_none());
            assert_eq!(page.matched, reference(&snaps, &q).len(), "{filter}");
        }
    }

    #[test]
    fn ingest_routes_to_tail_and_absorbs_boundary_edges() {
        let eng = sharded(3);
        let at_build = eng.boundary_edges();
        assert!(at_build > 0, "the fixture has cross-shard citations");
        let before: Vec<u64> = eng
            .shard_engines()
            .iter()
            .map(|e| e.snapshot().epoch())
            .collect();

        // Paper 12 (global) cites 11 (tail-local) and 0 (cross-shard).
        let mut delta = GraphDelta::new();
        delta.add_paper(2012);
        delta.add_citation(12, 11);
        delta.add_citation(12, 0);
        let report = eng.ingest(&delta).unwrap();
        assert_eq!(report.shard, 2, "routed to the tail shard");
        assert_eq!(report.boundary_edges, 1, "the edge into shard 0 absorbed");
        assert!(report.report.published, "EveryBatch publishes the tail");
        assert_eq!(eng.boundary_edges(), at_build + 1);

        let after: Vec<u64> = eng
            .shard_engines()
            .iter()
            .map(|e| e.snapshot().epoch())
            .collect();
        assert_eq!(after[0], before[0], "frozen shard untouched");
        assert_eq!(after[1], before[1], "frozen shard untouched");
        assert_eq!(after[2], before[2] + 1, "tail published one epoch");

        // The new paper serves under its global id.
        let page = eng
            .query(&"k=1,year=2012..".parse().unwrap(), None)
            .unwrap();
        assert_eq!(ids(&page), vec![12]);
        assert_eq!(page.shards_scanned, 1);

        // A delta rejected by the tail changes nothing (year regression).
        let mut bad = GraphDelta::new();
        bad.add_paper(1990);
        assert!(matches!(eng.ingest(&bad), Err(EngineError::Delta(_))));
        assert_eq!(eng.boundary_edges(), at_build + 1);
    }

    #[test]
    fn or_of_facets_matches_reference_across_shards() {
        for n_shards in [1, 2, 3] {
            let eng = sharded(n_shards);
            let snaps = eng.snapshots();
            for s in [
                "k=12,venue=0|1",
                "k=12,author=0|2",
                "k=12,author=1|2,year=2002..2009",
                "k=12,venue=0|1,author=2",
                "k=4,author=0|0",
            ] {
                let q: Query = s.parse().unwrap();
                let page = eng.query_at(&snaps, &q, None).unwrap();
                let want = reference(&snaps, &q);
                let want_ids: Vec<PaperId> = want.iter().take(q.k).map(|&(_, id)| id).collect();
                assert_eq!(ids(&page), want_ids, "{n_shards} shards, {s}");
                assert_eq!(page.matched, want.len(), "{n_shards} shards, {s}");
            }
        }
    }

    #[test]
    fn widened_or_filter_rejects_a_narrower_cursor() {
        // Satellite regression: a cursor minted under `venue=0` must not
        // resume a `venue=0|1` result set (the fingerprint covers the
        // whole OR list, not just the first facet).
        let eng = sharded(2);
        let snaps = eng.snapshots();
        let page = eng
            .query_at(&snaps, &"k=2,venue=0".parse().unwrap(), None)
            .unwrap();
        let cursor = page.next.expect("more than 2 venue-0 papers");
        let widened: Query = "k=2,venue=0|1".parse().unwrap();
        assert!(matches!(
            eng.query_at(&snaps, &widened, Some(&cursor)),
            Err(QueryError::CursorMismatch)
        ));
    }

    #[test]
    fn facet_query_sees_metadata_bearing_tail_ingest_immediately() {
        // The sharded half of the staleness fix: metadata in a routed
        // delta must reach the tail shard's posting lists on the same
        // publish, and new facet ids (beyond every frozen shard's table)
        // must validate against the grown tail and serve.
        let eng = sharded(3);
        let mut delta = GraphDelta::new();
        delta.add_paper_with_metadata(2012, vec![2, 7], Some(0));
        delta.add_paper_with_metadata(2013, vec![1], Some(5));
        delta.add_citation(12, 11);
        eng.ingest(&delta).unwrap();

        // Existing venue 0 gains global paper 12 (tail-local 4).
        let page = eng.query(&"k=12,venue=0".parse().unwrap(), None).unwrap();
        assert!(ids(&page).contains(&12), "new paper joins its venue");
        // Brand-new facet ids exist only in the tail's grown tables;
        // frozen shards contribute empty, not errors.
        let page = eng.query(&"k=5,venue=5".parse().unwrap(), None).unwrap();
        assert_eq!(ids(&page), vec![13]);
        let page = eng.query(&"k=5,author=7".parse().unwrap(), None).unwrap();
        assert_eq!(ids(&page), vec![12]);
        // In-range facet ids with no papers anywhere are empty pages.
        let page = eng.query(&"k=5,venue=3".parse().unwrap(), None).unwrap();
        assert!(ids(&page).is_empty());
        assert_eq!(page.matched, 0);
        // Ids past even the grown space stay typed errors.
        assert!(matches!(
            eng.query(&"k=5,venue=99".parse().unwrap(), None),
            Err(QueryError::UnknownVenue { id: 99, .. })
        ));
        // The OR path crosses frozen and tail shards in one query.
        let page = eng.query(&"k=14,venue=0|5".parse().unwrap(), None).unwrap();
        assert!(ids(&page).contains(&12) && ids(&page).contains(&13));
        let snaps = eng.snapshots();
        let want = reference(&snaps, &"k=14,venue=0|5".parse().unwrap());
        assert_eq!(page.matched, want.len());
    }

    #[test]
    fn rerank_all_publishes_every_shard_in_parallel() {
        let net = corpus();
        let plan = ShardSpec::Fixed(3).plan(&net).unwrap();
        let eng = ShardedEngine::from_plan(&net, &plan, "cc", RerankPolicy::Manual).unwrap();
        let before = eng.snapshots().epoch_key();
        let epochs = eng.rerank_all();
        assert_eq!(epochs.len(), 3);
        assert!(epochs.iter().all(|&e| e >= 1));
        assert_ne!(eng.snapshots().epoch_key(), before);
    }

    #[test]
    fn seeded_sharded_matches_flat_on_one_shard() {
        // The 1-shard plan drops no edges, so seed= must serve exactly
        // the flat engine's personalized ranking — bitwise.
        let eng = sharded_with(1, "pagerank");
        let flat =
            QueryEngine::from_configs(corpus(), &["pagerank"], RerankPolicy::EveryBatch).unwrap();
        let q: Query = "k=12,seed=3|7".parse().unwrap();
        let page = eng.query(&q, None).unwrap();
        let flat_page = flat.query(&q).unwrap();
        assert_eq!(
            ids(&page),
            flat_page.items.iter().map(|h| h.id).collect::<Vec<_>>()
        );
        for (a, b) in page.items.iter().zip(&flat_page.items) {
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
        assert_eq!(page.matched, flat_page.matched);
    }

    #[test]
    fn a_shard_cursor_resumes_under_every_spelling_of_its_facet_set() {
        let eng = sharded(3);
        let snaps = eng.snapshots();
        let resume = |s: &str, cursor: Option<ShardCursor>| {
            eng.query_at(&snaps, &s.parse().unwrap(), cursor.as_ref())
        };
        let doubled = resume("k=2,venue=0|0", None).unwrap().next;
        let single = resume("k=2,venue=0", None).unwrap().next;
        assert!(doubled.is_some());
        assert_eq!(
            resume("k=2,venue=0", doubled).unwrap(),
            resume("k=2,venue=0", single).unwrap()
        );
        assert!(matches!(
            resume("k=2,venue=0|1", doubled),
            Err(QueryError::CursorMismatch)
        ));
    }

    #[test]
    fn a_sharded_comparison_carries_the_pinned_sets_epoch_keys() {
        let a = sharded(3);
        let b = sharded_with(3, "pagerank");
        let mut delta = GraphDelta::new();
        delta.add_paper(2012);
        delta.add_citation(12, 11);
        a.ingest(&delta).unwrap();
        let cmp = a
            .compare(&b, &"k=2,venue=0".parse().unwrap(), None)
            .unwrap();
        assert_eq!(cmp.epoch_a, a.snapshots().epoch_key());
        assert_eq!(cmp.epoch_b, b.snapshots().epoch_key());
        assert_eq!(cmp.page.epoch, cmp.epoch_a);
        assert_eq!(cmp.page.next.unwrap().epoch(), cmp.epoch_a);
        assert_eq!(
            (cmp.method_a.as_str(), cmp.method_b.as_str()),
            ("cc", "pagerank:d=0.5")
        );
    }

    #[test]
    fn seed_routing_prunes_unseeded_bands() {
        let eng = sharded_with(4, "pagerank"); // 3 papers per band
                                               // All seeds in band 0: every other band holds zero seed mass and
                                               // prunes like a disjoint year filter.
        let page = eng.query(&"k=12,seed=0|2".parse().unwrap(), None).unwrap();
        assert_eq!(page.shards_total, 4);
        assert_eq!(page.shards_scanned, 1, "only the seeded band is read");
        assert_eq!(page.matched, 3, "only band 0's papers are candidates");
        assert!(ids(&page).iter().all(|&id| id < 3));
        // Seeds spanning two bands scan exactly those two.
        let page = eng.query(&"k=12,seed=1|10".parse().unwrap(), None).unwrap();
        assert_eq!(page.shards_scanned, 2);
        assert_eq!(page.matched, 6);
        // A repeat of either seed set costs no solve: the cache — the
        // one place a solve is remembered — serves it, and counts it.
        let solves = |eng: &ShardedEngine| {
            let stats = eng.core.read.cache.stats();
            stats.cold_pushes + stats.warm_repushes
        };
        let (solves_before, hits_before) = (solves(&eng), eng.core.read.cache.stats().hits);
        eng.query(&"k=12,seed=0|2".parse().unwrap(), None).unwrap();
        assert!(
            eng.core.read.cache.stats().hits > hits_before,
            "served from the cache"
        );
        assert_eq!(solves(&eng), solves_before);
    }

    #[test]
    fn pooled_scratch_is_bounded_in_count() {
        let eng = sharded_with(2, "pagerank");
        let seeded = |seed: u32| -> Query { format!("k=3,seed={seed}").parse().unwrap() };
        // One warm scratch serves sequential queries; the pool never
        // grows past its cap however many readers overlap.
        for seed in 0..3 {
            eng.query(&seeded(seed), None).unwrap();
        }
        let pool = &eng.core.read.scratches;
        assert_eq!(pool.warm.lock().unwrap().len(), 1);
        let all_inside = std::sync::Barrier::new(2 * SCRATCH_POOL_CAP);
        thread::scope(|scope| {
            for _ in 0..2 * SCRATCH_POOL_CAP {
                scope.spawn(|| pool.with(|_| all_inside.wait()));
            }
        });
        assert_eq!(pool.warm.lock().unwrap().len(), SCRATCH_POOL_CAP);
    }

    #[test]
    fn repeated_query_hits_the_plan_cache_until_a_tail_publish() {
        let eng = sharded(3);
        let q: Query = "k=3,venue=0".parse().unwrap();
        let first = eng.query(&q, None).unwrap();
        assert_eq!(eng.query(&q, None).unwrap(), first);
        let s = eng.core.read.plans.stats();
        assert_eq!((s.hits, s.misses, s.stale, s.entries), (1, 1, 0, 1));

        // A tail publish moves the epoch key: the entry is stale, dropped
        // and re-planned against the new tail, and the page sees the new
        // paper.
        let mut delta = GraphDelta::new();
        delta.add_paper_with_metadata(2012, vec![0], Some(0));
        delta.add_citation(12, 11);
        eng.ingest(&delta).unwrap();
        let after = eng.query(&q, None).unwrap();
        let s = eng.core.read.plans.stats();
        assert_eq!((s.hits, s.misses, s.stale, s.entries), (1, 1, 1, 1));
        assert_eq!(after.matched, first.matched + 1);
        assert_eq!(after.items, eng.query(&q, None).unwrap().items);
        assert_eq!(eng.core.read.plans.stats().hits, 2);
    }

    #[test]
    fn poisoned_serve_locks_recover() {
        let eng = sharded(3);
        let q: Query = "k=4,venue=0|1".parse().unwrap();
        let page = eng.query(&q, None).unwrap();
        // Poison both locks on the serve path from panicking threads.
        thread::scope(|scope| {
            let pool = scope.spawn(|| {
                let _held = eng.core.read.scratches.warm.lock();
                panic!("poisoning the scratch pool");
            });
            let plans = scope.spawn(|| {
                let _held = eng.core.read.plans.inner.lock();
                panic!("poisoning the plan cache");
            });
            assert!(pool.join().is_err() && plans.join().is_err());
        });
        assert!(eng.core.read.scratches.warm.is_poisoned());
        assert!(eng.core.read.plans.inner.is_poisoned());
        assert_eq!(eng.query(&q, None).unwrap(), page);
        // The plan cache dropped its entries and cleared the poison.
        assert!(!eng.core.read.plans.inner.is_poisoned());
        assert_eq!(eng.core.read.plans.stats().entries, 1);
        assert_eq!(eng.query(&q, None).unwrap(), page);
    }

    #[test]
    fn seeded_multi_shard_composes_scaled_per_band_solves() {
        // Two bands whose graphs differ — [`corpus`]'s bands are one graph
        // up to an id shift: papers 7.. cite paper 6 and, across the
        // boundary, what [`corpus`] has them cite.
        let net = corpus_citing(true, |i, j| {
            if i > 6 && j >= 6 {
                j == 6
            } else {
                (i + j) % 3 != 0
            }
        });
        let plan = ShardSpec::Fixed(2).plan(&net).unwrap();
        let eng =
            ShardedEngine::from_plan(&net, &plan, "pagerank", RerankPolicy::EveryBatch).unwrap();
        let seeds = [1u32, 7, 8];
        let want = seeded_reference(&eng, &seeds, 0.5);
        let q: Query = "k=12,seed=1|7|8".parse().unwrap();
        let page = eng.query(&q, None).unwrap();
        let want_ids: Vec<PaperId> = want.iter().map(|&(_, id)| id).collect();
        assert_eq!(ids(&page), want_ids);
        for (hit, &(score, id)) in page.items.iter().zip(&want) {
            assert_eq!(hit.id, id);
            assert!(
                (hit.score - score).abs() < 1e-9,
                "paper {id}: served {} vs scaled dense {score}",
                hit.score
            );
        }
        // Facets and year filters compose with the personalized scores,
        // and seeded pages tile the composed order.
        for filter in ["", ",venue=0", ",year=2002..2010", ",author=0"] {
            let full: Query = format!("k=12,seed=1|7|8{filter}").parse().unwrap();
            let snaps = eng.snapshots();
            let full_page = eng.query_at(&snaps, &full, None).unwrap();
            let mut got = Vec::new();
            let mut cursor: Option<ShardCursor> = None;
            let q: Query = format!("k=2,seed=1|7|8{filter}").parse().unwrap();
            loop {
                let page = eng.query_at(&snaps, &q, cursor.as_ref()).unwrap();
                got.extend(ids(&page));
                match page.next {
                    Some(c) => cursor = Some(c),
                    None => break,
                }
            }
            assert_eq!(got, ids(&full_page), "seeded pages tile {filter:?}");
        }
    }

    #[test]
    fn seeded_cursors_and_errors_are_typed() {
        let eng = sharded_with(2, "pagerank");
        let snaps = eng.snapshots();
        let page = eng
            .query_at(&snaps, &"k=2,seed=1|7".parse().unwrap(), None)
            .unwrap();
        let cursor = page.next.expect("12 candidates at k=2");
        // Different seed set → CursorMismatch; reordered same set resumes.
        assert!(matches!(
            eng.query_at(&snaps, &"k=2,seed=1".parse().unwrap(), Some(&cursor)),
            Err(QueryError::CursorMismatch)
        ));
        assert!(eng
            .query_at(&snaps, &"k=2,seed=7|1".parse().unwrap(), Some(&cursor))
            .is_ok());
        // An unseeded query cannot resume a seeded cursor.
        assert!(matches!(
            eng.query_at(&snaps, &"k=2".parse().unwrap(), Some(&cursor)),
            Err(QueryError::CursorMismatch)
        ));
        // A method with no damping factor rejects seed= with the typed
        // serve-time error; out-of-range seeds name the offending id.
        let cc = sharded(2);
        assert!(matches!(
            cc.query(&"k=2,seed=1".parse().unwrap(), None),
            Err(QueryError::SeedUnsupported { ref method }) if method == "cc"
        ));
        assert!(matches!(
            eng.query(&"k=2,seed=99".parse().unwrap(), None),
            Err(QueryError::BadValue { ref key, ref value })
                if key == "seed" && value.starts_with("99")
        ));
    }

    #[test]
    fn compare_on_one_shard_matches_the_flat_engine() {
        let a = sharded_with(1, "cc");
        let b = sharded_with(1, "pagerank");
        let flat =
            QueryEngine::from_configs(corpus(), &["cc", "pagerank"], RerankPolicy::EveryBatch)
                .unwrap();
        for s in ["k=5", "k=4,venue=0", "k=12,author=1,year=2002..2009"] {
            let q: Query = format!("{s},vs=pagerank").parse().unwrap();
            let cmp = a.compare(&b, &q, None).unwrap();
            let flat_cmp = flat.compare(&q).unwrap();
            assert_eq!(cmp.rows, flat_cmp.rows, "{s}");
            assert_eq!(cmp.page.matched, flat_cmp.page.matched, "{s}");
        }
    }

    #[test]
    fn compare_joins_composed_ranks_across_shards() {
        let a = sharded(3);
        let b = sharded_with(3, "pagerank");
        let q: Query = "k=12".parse().unwrap();
        let cmp = a.compare(&b, &q, None).unwrap();
        assert_eq!(cmp.method_a, "cc");
        assert_eq!(cmp.rows.len(), 12);
        // The unfiltered page IS the primary composed order.
        let ranks_a: Vec<usize> = cmp.rows.iter().map(|r| r.rank_a).collect();
        assert_eq!(ranks_a, (1..=12).collect::<Vec<_>>());
        // rank_b is each hit's 1-based position in b's composed top-k.
        let order_b = b.top_k(12).unwrap();
        for row in &cmp.rows {
            let pos = order_b.iter().position(|&id| id == row.id).unwrap();
            assert_eq!(row.rank_b, Some(pos + 1), "paper {}", row.id);
            let (s, local) = b.snapshots().locate(row.id);
            assert_eq!(row.score_b, b.snapshots().snapshot(s).score(local));
        }
        // Mismatched plans cannot join.
        assert!(matches!(
            a.compare(&sharded_with(2, "pagerank"), &q, None),
            Err(QueryError::PlanMismatch)
        ));
        // A hit past b's coverage (a's tail ingested a paper b has not
        // seen) joins as None, mirroring the flat engine.
        let mut delta = GraphDelta::new();
        delta.add_paper(2012);
        delta.add_citation(12, 11);
        a.ingest(&delta).unwrap();
        let cmp = a.compare(&b, &"k=13".parse().unwrap(), None).unwrap();
        let tail_row = cmp.rows.iter().find(|r| r.id == 12).unwrap();
        assert_eq!(tail_row.score_b, None);
        assert_eq!(tail_row.rank_b, None);
    }

    #[test]
    fn single_shard_plan_matches_unsharded_engine_bitwise() {
        let net = corpus();
        let plan = ShardSpec::Fixed(1).plan(&net).unwrap();
        let eng = ShardedEngine::from_plan(&net, &plan, "cc", RerankPolicy::EveryBatch).unwrap();
        let flat = RankingEngine::from_config(corpus(), "cc", RerankPolicy::EveryBatch).unwrap();
        let sharded_scores = eng.shard_engines()[0].snapshot();
        let flat_scores = flat.snapshot();
        for (a, b) in sharded_scores
            .scores()
            .as_slice()
            .iter()
            .zip(flat_scores.scores().as_slice())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(eng.top_k(12).unwrap(), flat.top_k(12));
    }

    #[test]
    fn top_k_sheds_typed_under_admission() {
        let net = citegen::generate(&citegen::DatasetProfile::dblp().scaled(2_000), 7);
        let plan = ShardSpec::Fixed(4).plan(&net).unwrap();
        let mut eng =
            ShardedEngine::from_plan(&net, &plan, "cc", RerankPolicy::EveryBatch).unwrap();
        assert_eq!(eng.top_k(3).unwrap().len(), 3);
        // The convenience entry point does not bypass backpressure: under
        // a ceiling no plan fits, it sheds with the typed error.
        eng.set_admission(AdmissionPolicy {
            max_query_cost_ns: 100.0,
            degraded_k: 1,
            ..AdmissionPolicy::default()
        });
        assert!(matches!(eng.top_k(3), Err(QueryError::Overloaded { .. })));
        assert_eq!(eng.admission_stats().unwrap().shed, 1);
    }

    /// A model under which one execution shape always prices cheapest
    /// for a faceted query, whatever the shard: everything else costs
    /// `1e9` per unit. (The mask shape shares the per-candidate constant
    /// with the band shapes, so "always" needs a negative sweep price.)
    fn forcing(shape: &str) -> CostModel {
        let (free, dear) = (0.0, 1e9);
        let [scan, band, insert, sweep] = match shape {
            "id_range" => [free, dear, free, dear],
            "bands" => [dear, free, dear, dear],
            "mask_algebra" => [dear, dear, free, -dear],
            other => panic!("no such shape {other}"),
        };
        CostModel {
            scan_per_id: scan,
            band_per_candidate: band,
            dedup_per_candidate: band,
            mask_insert: insert,
            mask_per_word: sweep,
        }
    }

    #[test]
    fn shards_plan_by_cost_model_and_every_driver_serves_the_reference() {
        // The flat planner's price over one shard must tolerate what only
        // a shard sees — a facet id past its local table, no local table
        // at all — and whichever driver the model picks, the merged page
        // is the reference. `with_tables = false` carves the shards
        // before metadata exists, so only the tail (after the
        // metadata-bearing ingest) has facet tables.
        let filters = [
            "venue=0|1",
            "author=0|2",
            "author=1|2,year=2002..2009",
            "venue=0|1,author=2",
            "venue=5",
            "author=7",
            "venue=0|5,year=2006..",
            "year=2003..2005",
            "",
        ];
        for (with_tables, n_shards, shape) in [true, false]
            .into_iter()
            .flat_map(|t| [1, 3, 5].map(|n| (t, n)))
            .flat_map(|(t, n)| ["id_range", "bands", "mask_algebra"].map(|s| (t, n, s)))
        {
            let net = corpus_with(with_tables);
            let plan = ShardSpec::Fixed(n_shards).plan(&net).unwrap();
            let mut eng =
                ShardedEngine::from_plan(&net, &plan, "cc", RerankPolicy::EveryBatch).unwrap();
            eng.core.read.cost = forcing(shape);
            // Venue 5 and author 7 exist only in the tail's grown tables.
            let mut delta = GraphDelta::new();
            delta.add_paper_with_metadata(2012, vec![2, 7], Some(0));
            delta.add_paper_with_metadata(2013, vec![1], Some(5));
            delta.add_citation(12, 11);
            eng.ingest(&delta).unwrap();
            let snaps = eng.snapshots();

            let mut chosen = std::collections::BTreeSet::new();
            for filter in filters {
                let case = format!("tables={with_tables}, {n_shards} shards, {shape}: {filter:?}");
                let q: Query = format!("k=3,{filter}").parse().unwrap();
                let want: Vec<PaperId> = reference(&snaps, &q).iter().map(|&(_, id)| id).collect();
                // Two pages off one pinned set, then the k = 0 count.
                let p1 = eng.query_at(&snaps, &q, None).unwrap();
                assert_eq!(ids(&p1), want[..want.len().min(3)], "{case}");
                assert_eq!(p1.matched, want.len(), "{case}");
                assert_eq!(p1.next.is_some(), want.len() > 3, "{case}");
                if let Some(c) = p1.next {
                    let p2 = eng.query_at(&snaps, &q, Some(&c)).unwrap();
                    assert_eq!(ids(&p2), want[3..want.len().min(6)], "{case} page 2");
                    assert_eq!(p2.matched, want.len() - 3, "{case} page 2");
                }
                let p0 = eng.query_at(&snaps, &Query { k: 0, ..q.clone() }, None);
                assert_eq!(p0.unwrap().matched, want.len(), "{case} k=0");
                if filter == "year=2003..2005" {
                    assert_eq!(p1.shards_scanned < p1.shards_total, n_shards > 1, "{case}");
                }

                // The drivers behind those pages: what the engine planned
                // for each shard the year prune left.
                let mut part = QueryScratch::new();
                part.set_facets(&q);
                for snap in snaps.snaps.iter().filter(|s| overlaps(s, &q)) {
                    let plan = price_partition(
                        snap.network(),
                        &q,
                        &part,
                        false,
                        &eng.core.read.cost,
                        false,
                    );
                    if !plan.table.iter().any(|c| c.driver == "unfiltered") {
                        chosen.insert(plan.table.iter().find(|c| c.chosen).unwrap().driver);
                    }
                }
            }
            let want: &[&str] = match shape {
                "bands" => &["author_bands", "id_range", "venue_bands"],
                other => &[other],
            };
            assert_eq!(
                chosen.into_iter().collect::<Vec<_>>(),
                want,
                "tables={with_tables}, {n_shards} shards, {shape}"
            );
        }
    }

    #[test]
    fn flat_and_sharded_tokens_never_resume_on_the_other_engine() {
        // One struct, one token format — so what keeps a flat engine's
        // token off a sharded engine (and back) is the generation it is
        // bound to: an epoch there, an epoch-set key here. Same corpus,
        // same method label, same filter: the fingerprints agree, the
        // generations cannot.
        let sharded = sharded(1);
        let flat = QueryEngine::from_configs(corpus(), &["cc"], RerankPolicy::EveryBatch).unwrap();
        for s in ["k=2", "k=2,venue=0", "k=2,year=2002..2010"] {
            let q: Query = s.parse().unwrap();
            let from_flat = flat.query(&q).unwrap().next.expect("a page 2");
            let from_sharded = sharded.query(&q, None).unwrap().next.expect("a page 2");
            assert_ne!(from_flat.to_string(), from_sharded.to_string());
            // In the grammar or as the argument, typed and pageless.
            let in_grammar: Query = format!("{s},cursor={from_flat}").parse().unwrap();
            for res in [
                sharded.query(&in_grammar, None),
                sharded.query(&q, Some(&from_flat)),
            ] {
                assert!(
                    matches!(
                        res,
                        Err(QueryError::StaleCursor { .. } | QueryError::CursorMismatch)
                    ),
                    "{s}: flat token on the sharded engine: {res:?}"
                );
            }
            let in_grammar: Query = format!("{s},cursor={from_sharded}").parse().unwrap();
            let res = flat.query(&in_grammar);
            assert!(
                matches!(
                    res,
                    Err(QueryError::StaleCursor { .. } | QueryError::CursorMismatch)
                ),
                "{s}: sharded token on the flat engine: {res:?}"
            );
        }
    }
}
