//! The serving engine: epoch-snapshot score publication over a growing
//! citation network.
//!
//! A [`RankingEngine`] owns the authoritative [`CitationNetwork`] (its
//! reference adjacency and in-degrees; no serving path builds the citers
//! transpose), a
//! [`KernelWorkspace`] buffer pool for allocation-free re-ranks, and the
//! configured ranking method. Scores are published as immutable
//! [`EpochSnapshot`]s behind an `Arc` swap — each frozen together with
//! the per-block maxima of its scores (one extra `O(n)` pass per publish,
//! ~0.1 ms per 200k papers) and room for one head per year of its network
//! and per venue and year (the first ids in rank order of the papers —
//! of the venue's papers — from that year on, each one walk of those
//! maxima, run by the first page that reads it), which is what lets a
//! shallow unfiltered, cursor, `year=Y..` or `venue=V,year=Y..` page of
//! the epoch be a slice of heads and every other one skip the blocks that
//! cannot reach it. Readers grab the current `Arc`
//! (one `RwLock` read + one refcount bump, never blocked by a running
//! re-rank) and answer `top_k` / `rank_of` queries against a frozen epoch,
//! while the single writer folds [`GraphDelta`] batches in and publishes
//! the next epoch atomically when the [`RerankPolicy`] fires. A rank
//! lookup is a binary search over the epoch's head, or past it over the
//! epoch's order, sorted on first use.
//!
//! When the configured method is AttRank, re-ranks run through
//! [`IncrementalAttRank`]: a publish pushes residuals from the previous
//! epoch's solution over the part of the network the batch perturbed, and
//! a full solve is one push pass over the citations in descending id
//! order — the incremental path the paper's monitoring use-case (§1)
//! calls for. PageRank takes the same path as one system: its scores are
//! the uniform kernel scaled by `1−α`, built by one push pass
//! ([`citegraph::uniform_kernel`]) and pushed across each publish
//! ([`citegraph::update_uniform_kernel`]) from the previous epoch's
//! kernel. Every other method re-ranks from scratch.
//!
//! The snapshot owns its kernel: each epoch holds the uniform kernel of
//! its network at its method's damping factor ([`EpochSnapshot::kernel`]),
//! the one vector every seeded solve over it resolves against. AttRank's
//! is the kernel its solve resolved (shared, not copied; every AttRank
//! solve, epoch 0's included, leaves one), PageRank's is its scores over
//! `1−α` — the vector the next publish pushes from, so a restart replays
//! it bit for bit from the persisted scores — and a restored AttRank
//! epoch's is resolved from the persisted push state by the warmup. Any
//! other epoch builds its kernel on the first read.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock};
use std::thread;
use std::time::Instant;

use attrank::{AttRankParams, IncrementalAttRank};
use citegraph::{
    uniform_kernel, update_uniform_kernel, CitationNetwork, DeltaError, DeltaStrategy, GraphDelta,
    PaperId, PushRankConfig, Year,
};
use graphstore::{DeltaWal, PushState, Store, StoreBuilder, StoreError};
use sparsela::{
    cmp_score_desc, top_k_pruned_into, BlockMaxima, KernelWorkspace, ScoreVec, Scores, Segment,
};

use crate::metrics::EngineInstruments;
use crate::registry::{self, BoxedRanker};
use crate::spec::{MethodSpec, SpecError};

/// How the scores of an epoch were computed (recorded in the snapshot's
/// metadata so operators can observe whether the incremental path is
/// actually engaging).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RerankStrategy {
    /// The initial rank at engine construction (epoch 0).
    Initial,
    /// A full solve over the epoch's network.
    Full,
    /// A residual-push update localized to the published delta.
    Push {
        /// Residual pushes executed (nodes pushed, whatever the number of
        /// systems the push carried).
        pushes: u64,
        /// Edge traversals spent (compare with `iterations × E` for a
        /// full solve). A traversed edge is counted once whatever the
        /// push's lane count.
        edge_work: u64,
    },
    /// Scores restored verbatim from a persisted snapshot store at
    /// engine start — no solve has run in this process yet.
    Restored,
}

impl From<DeltaStrategy> for RerankStrategy {
    fn from(s: DeltaStrategy) -> Self {
        match s {
            DeltaStrategy::Full => RerankStrategy::Full,
            DeltaStrategy::Push { pushes, edge_work } => RerankStrategy::Push { pushes, edge_work },
        }
    }
}

/// Unified engine error: delta validation, persistence, and restore
/// failures.
#[derive(Debug)]
pub enum EngineError {
    /// A delta batch failed validation (the engine state is untouched).
    Delta(DeltaError),
    /// The snapshot store or WAL failed (I/O, corruption, format).
    Store(StoreError),
    /// A persisted method spec failed to parse or validate.
    Spec(SpecError),
    /// The store/engine state cannot support the requested restore or
    /// persist (e.g. a snapshot with no score epoch).
    Restore(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Delta(e) => write!(f, "delta rejected: {e}"),
            EngineError::Store(e) => write!(f, "store failure: {e}"),
            EngineError::Spec(e) => write!(f, "method spec: {e}"),
            EngineError::Restore(m) => write!(f, "restore: {m}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<DeltaError> for EngineError {
    fn from(e: DeltaError) -> Self {
        EngineError::Delta(e)
    }
}

impl From<StoreError> for EngineError {
    fn from(e: StoreError) -> Self {
        EngineError::Store(e)
    }
}

impl From<SpecError> for EngineError {
    fn from(e: SpecError) -> Self {
        EngineError::Spec(e)
    }
}

/// When the engine re-ranks and publishes a fresh epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RerankPolicy {
    /// Publish after every ingested batch.
    EveryBatch,
    /// Publish once at least this many new edges are pending.
    EveryNEdges(usize),
    /// Staleness bound: publish once this many batches have been ingested
    /// since the last epoch, regardless of their size.
    MaxStaleBatches(usize),
    /// Never publish automatically; the owner calls
    /// [`RankingEngine::rerank`].
    Manual,
}

impl RerankPolicy {
    fn should_publish(&self, pending_edges: usize, pending_batches: usize) -> bool {
        match *self {
            RerankPolicy::EveryBatch => pending_batches > 0,
            RerankPolicy::EveryNEdges(n) => pending_edges >= n.max(1),
            RerankPolicy::MaxStaleBatches(b) => pending_batches >= b.max(1),
            RerankPolicy::Manual => false,
        }
    }
}

/// How an epoch's network state relates to its predecessor's: the parent
/// snapshot's epoch/network plus the exact [`GraphDelta`] folded in to
/// produce this one.
///
/// Recorded so per-epoch derived state (the personalization cache's
/// vectors; the snapshot owns its kernel) can be *carried* across a
/// publish instead of rebuilt: a cached vector tagged with `parent_epoch`
/// whose cone `delta` rewired nowhere is valid over this epoch's kernel
/// as it stands. An empty-staged publish records an empty delta over the
/// same network, which carries every such vector.
#[derive(Debug, Clone)]
pub(crate) struct EpochLineage {
    /// Epoch of the snapshot whose network `delta` was applied to.
    pub(crate) parent_epoch: u64,
    /// The parent network state (an `Arc` share, not a copy).
    pub(crate) parent_net: Arc<CitationNetwork>,
    /// The batch folded in by this publish.
    pub(crate) delta: Arc<GraphDelta>,
}

/// The block-maxima summaries of one ranking vector, built in the one
/// pass that freezes it (an epoch's scores, a cached personalized solve)
/// against the network it ranks, and kept beside the scores they were
/// built from — [`EpochSnapshot`] and `CachedRanking` own both — so
/// neither the maxima nor a head built later can describe another vector.
#[derive(Debug)]
pub(crate) struct BlockSummaries {
    /// Over the id space, with one head (the first [`sparsela::HEAD_LEN`]
    /// ids in order) per year cut of the network — the suffix from each
    /// year's first paper — each built on the first page that reads it:
    /// what unfiltered, cursor and year-window pages read — a slice of
    /// the head of the window's first year when it holds the page, a walk
    /// of the blocks otherwise.
    pub(crate) ids: BlockMaxima,
    /// Over the network's venue posting lists, blocks aligned to each
    /// venue's start (no lists without venue metadata), with one head per
    /// (venue, year cut) — the suffix of the venue's list from the
    /// position where each year starts in it, found once per network
    /// ([`CitationNetwork::venue_year_cuts`]) — each built on the first
    /// page that reads it: what venue pages read — slices of their bands'
    /// heads when those hold the page, a walk of the blocks otherwise (and
    /// always under an author residual).
    pub(crate) venues: BlockMaxima,
}

impl BlockSummaries {
    /// Both summaries of `scores` — a dense slice or a cone — which rank
    /// `net`'s papers.
    pub(crate) fn new<S: Scores + ?Sized>(scores: &S, net: &CitationNetwork) -> Self {
        let (offsets, postings) = net.venues().map_or((&[0][..], &[][..]), |t| t.postings());
        Self {
            ids: BlockMaxima::with_cuts(scores, &net.year_starts()),
            venues: BlockMaxima::over_postings(scores, offsets, postings, net.venue_year_cuts()),
        }
    }

    /// Heap bytes held now: head cells once laid out, heads once built.
    pub(crate) fn bytes(&self) -> usize {
        self.ids.bytes() + self.venues.bytes()
    }
}

/// A frozen ranking vector with the block summaries built when it was
/// frozen — an epoch's dense scores, or a cached personalized solve in
/// cone form ([`sparsela::Cone`]). What the query layer's selection arms
/// read, seeded or not.
pub(crate) struct Ranking<'a, S: ?Sized = [f64]> {
    /// The scores, indexed by (partition-local) paper id.
    pub(crate) scores: &'a S,
    /// Their block maxima over ids and over venue postings.
    pub(crate) blocks: &'a BlockSummaries,
}

impl<S: ?Sized> Clone for Ranking<'_, S> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<S: ?Sized> Copy for Ranking<'_, S> {}

/// One immutable published ranking state.
///
/// Snapshots are shared via `Arc`; everything here is read-only after
/// construction (the lazily built rank order is a `OnceLock`), so
/// any number of threads can query one snapshot concurrently.
///
/// A snapshot pins the *network state* its scores were computed on (an
/// `Arc` share with the writer, not a copy): scores, years, venue and
/// author metadata all come from the same frozen epoch, which is what
/// makes the query layer's filtered top-k and cursor pagination
/// snapshot-consistent — a reader holding this `Arc` is immune to
/// concurrent publishes.
#[derive(Debug)]
pub struct EpochSnapshot {
    epoch: u64,
    strategy: RerankStrategy,
    net: Arc<CitationNetwork>,
    scores: ScoreVec,
    /// Per-block maxima of `scores` over ids and over venue postings,
    /// built with the snapshot (one `O(n)` pass each per publish), and
    /// their per-year and per-(venue, year) heads, built on first use: a
    /// shallow unfiltered, cursor, `year=Y..` or venue page of this epoch
    /// is a slice of heads, and every other one skips the blocks that
    /// cannot reach it.
    blocks: BlockSummaries,
    /// Every paper id in `cmp_score_desc` order, built on the first rank
    /// lookup past the head (a reader whose lookups all land in the head
    /// never pays for it).
    order: OnceLock<Vec<u32>>,
    /// Provenance of this epoch's network state relative to its parent
    /// (`None` for epoch 0, restored epochs, and publishes after a
    /// rejected solve).
    lineage: Option<EpochLineage>,
    /// The damping factor of the method these scores rank by, if it has
    /// one: the `α` of the kernel below.
    damping: Option<f64>,
    /// The uniform kernel of `net` at `damping` (see [`Self::kernel`]):
    /// set at freeze from the publish's solve, by the warmup from a
    /// restored push state, or on the first read.
    kernel: OnceLock<Arc<ScoreVec>>,
}

impl EpochSnapshot {
    /// Monotonically increasing epoch number (0 = the initial rank).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Papers covered by this epoch.
    pub fn n_papers(&self) -> usize {
        self.net.n_papers()
    }

    /// Citations in the network state this epoch was ranked on.
    pub fn n_citations(&self) -> usize {
        self.net.n_citations()
    }

    /// Year of the newest paper in this epoch's network state.
    pub fn current_year(&self) -> Option<Year> {
        self.net.current_year()
    }

    /// The exact network state these scores were computed on. Holding the
    /// snapshot keeps it alive; predicates resolved against it (venue
    /// posting lists, author incidence, year ranges) can never disagree
    /// with the score vector.
    pub fn network(&self) -> &Arc<CitationNetwork> {
        &self.net
    }

    /// How this epoch's scores were computed: the initial rank, a full
    /// solve, or a delta-localized residual push (with its work counters).
    pub fn strategy(&self) -> RerankStrategy {
        self.strategy
    }

    /// The full score vector, indexed by paper id.
    pub fn scores(&self) -> &ScoreVec {
        &self.scores
    }

    /// Score of one paper, `None` for an out-of-range id.
    pub fn score(&self, p: PaperId) -> Option<f64> {
        self.scores.as_slice().get(p as usize).copied()
    }

    /// The score vector with its block summaries.
    pub(crate) fn ranking(&self) -> Ranking<'_> {
        Ranking {
            scores: self.scores.as_slice(),
            blocks: &self.blocks,
        }
    }

    /// Ids of the `k` highest-scoring papers in decreasing order, via
    /// block-pruned partial selection — no full sort, and no read of a
    /// block whose maximum cannot reach the top `k`.
    pub fn top_k(&self, k: usize) -> Vec<PaperId> {
        let mut out = Vec::new();
        let all = [Segment::range(0..self.scores.len() as PaperId)];
        let ids = &self.blocks.ids;
        top_k_pruned_into(self.scores.as_slice(), ids, all, k, None, None, &mut out);
        out
    }

    /// 1-based rank of paper `p` (1 = best), `None` for an out-of-range id.
    ///
    /// A paper in the head is one binary search over it; past the head,
    /// the rank order is sorted once per snapshot on first use, and every
    /// lookup after that is one binary search over it.
    pub fn rank_of(&self, p: PaperId) -> Option<usize> {
        let score = self.score(p)?;
        Some(1 + self.ahead_of(score, p, 0))
    }

    /// How many papers of this snapshot rank strictly ahead of `(score,
    /// id)` under `cmp_score_desc` when local id `l` is global id
    /// `start + l` — the one rank primitive: summed over a ranking's
    /// partitions it is a global rank, as a page is a merge of theirs.
    ///
    /// When `(score, id)` sorts no later than the last paper of the whole
    /// vector's head (the head at cut 0, built on the first lookup if no
    /// page has built it), every paper ahead of it is in the head, and the
    /// answer is a search of the head alone; otherwise it is a search of
    /// the whole order.
    pub(crate) fn ahead_of(&self, score: f64, id: PaperId, start: PaperId) -> usize {
        let scores = self.scores.as_slice();
        let ahead = |&l: &u32| {
            cmp_score_desc(scores[l as usize], start + l, score, id) == std::cmp::Ordering::Less
        };
        let head = self.blocks.ids.head(scores, 0);
        if head.last().is_some_and(|last| !ahead(last)) {
            return head.partition_point(ahead);
        }
        let order = self
            .order
            .get_or_init(|| sparsela::sort_indices_desc(scores));
        order.partition_point(ahead)
    }

    /// The uniform kernel `u = (I − α·S)⁻¹·(1/n)·1` of this epoch's
    /// network at `alpha`, which every seeded solve over the epoch
    /// resolves its dangling mass against. At the method's damping factor
    /// it is the epoch's one kernel — the one its publish solved, or one
    /// cold push pass on the first call, kept. At any other `alpha` it is
    /// built cold and not kept.
    pub fn kernel(&self, alpha: f64) -> Arc<ScoreVec> {
        let net = &self.net;
        let cold = || Arc::new(uniform_kernel(net, alpha, &mut KernelWorkspace::new()));
        if self.damping.map(f64::to_bits) != Some(alpha.to_bits()) {
            return cold();
        }
        Arc::clone(self.kernel.get_or_init(cold))
    }

    /// Provenance of this epoch relative to its parent, when known.
    pub(crate) fn lineage(&self) -> Option<&EpochLineage> {
        self.lineage.as_ref()
    }

    /// This epoch's network, if it is `parent` with exactly `delta`
    /// applied — what a sibling engine publishing the same batch over the
    /// same parent would otherwise build again. The parent is compared by
    /// `Arc` identity (the lineage keeps it alive, so the address cannot
    /// have been reused) and the delta by value.
    fn successor_of(
        &self,
        parent: &Arc<CitationNetwork>,
        delta: &GraphDelta,
    ) -> Option<Arc<CitationNetwork>> {
        let lineage = self.lineage.as_ref()?;
        (Arc::ptr_eq(&lineage.parent_net, parent) && *lineage.delta == *delta)
            .then(|| self.net.clone())
    }
}

/// Outcome of one [`RankingEngine::ingest`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestReport {
    /// Epoch visible to readers after this ingest.
    pub epoch: u64,
    /// Whether this ingest triggered a re-rank + publish.
    pub published: bool,
    /// Edges ingested but not yet reflected in the published epoch.
    pub pending_edges: usize,
    /// Batches ingested but not yet reflected in the published epoch.
    pub pending_batches: usize,
}

/// The configured method, with one delta path each: AttRank runs through
/// the push-capable incremental solver; PageRank is the uniform kernel
/// scaled (Eq. 1's fixed point is `(1−α)·u`), one push pass from zero and
/// pushed across each delta; every other method re-ranks from scratch.
enum EngineRanker {
    Incremental(Box<IncrementalAttRank>),
    /// PageRank with damping `α`.
    Kernel(f64),
    /// Any other method, with its damping factor if it has one (CiteRank).
    Batch(BoxedRanker, Option<f64>),
}

impl EngineRanker {
    fn rank_full(&mut self, net: &CitationNetwork, workspace: &mut KernelWorkspace) -> ScoreVec {
        match self {
            EngineRanker::Incremental(inc) => inc.update(net).scores,
            EngineRanker::Kernel(alpha) => {
                let mut scores = uniform_kernel(net, *alpha, workspace);
                scores.scale(1.0 - *alpha);
                scores
            }
            EngineRanker::Batch(r, _) => r.rank_into(net, workspace),
        }
    }

    /// Re-rank across a delta, reporting which strategy ran. `previous`
    /// is the last successfully published snapshot, whose kernel the
    /// kernel arm unresolves into a pooled lane and pushes (the
    /// incremental solver carries its own lanes). A declined push runs the
    /// full re-rank.
    fn rank_delta(
        &mut self,
        old: &CitationNetwork,
        delta: &GraphDelta,
        new: &CitationNetwork,
        previous: Option<&EpochSnapshot>,
        workspace: &mut KernelWorkspace,
    ) -> (ScoreVec, RerankStrategy) {
        match self {
            EngineRanker::Incremental(inc) => {
                let (diag, strategy) = inc.update_delta(old, delta, new);
                (diag.scores, strategy.into())
            }
            EngineRanker::Kernel(alpha) => {
                let alpha = *alpha;
                let cfg = PushRankConfig::default();
                let pushed = previous.and_then(|prev| {
                    let kernel = prev.kernel(alpha);
                    update_uniform_kernel(old, delta, new, &kernel, alpha, &cfg, workspace)
                });
                let Some((mut scores, out)) = pushed else {
                    return (self.rank_full(new, workspace), RerankStrategy::Full);
                };
                scores.scale(1.0 - alpha);
                let (pushes, edge_work) = (out.pushes, out.edge_work);
                (scores, RerankStrategy::Push { pushes, edge_work })
            }
            EngineRanker::Batch(r, _) => (r.rank_into(new, workspace), RerankStrategy::Full),
        }
    }

    /// The configured method's damping factor, if it has one: the `α` of
    /// each snapshot's kernel.
    fn damping(&self) -> Option<f64> {
        match self {
            EngineRanker::Incremental(inc) => Some(inc.params().alpha()),
            EngineRanker::Kernel(alpha) => Some(*alpha),
            EngineRanker::Batch(_, damping) => *damping,
        }
    }

    /// The uniform kernel of the solve that just produced `scores`, for
    /// the snapshot that publishes them: the one AttRank's resolve wrote
    /// (an `Arc` share), PageRank's `scores / (1−α)` — the same vector
    /// from the live scores and from the persisted ones — and `None` for
    /// every other method.
    fn solved_kernel(&self, scores: &ScoreVec) -> Option<Arc<ScoreVec>> {
        match self {
            EngineRanker::Incremental(inc) => inc.kernel().cloned(),
            EngineRanker::Kernel(alpha) => {
                let inv = 1.0 / (1.0 - alpha);
                let kernel: Vec<f64> = scores.iter().map(|&p| p * inv).collect();
                Some(Arc::new(kernel.into()))
            }
            EngineRanker::Batch(..) => None,
        }
    }

    /// The incremental scorer's push state, if it has one.
    fn push_state(&self) -> Option<([&[f64]; 3], [f64; attrank::PUSH_STATE_SCALARS])> {
        match self {
            EngineRanker::Incremental(inc) => inc.push_state(),
            _ => None,
        }
    }
}

struct WriterState {
    /// The authoritative network, shared (not copied) into every
    /// published [`EpochSnapshot`]; a publish swaps in a freshly built
    /// successor `Arc`.
    net: Arc<CitationNetwork>,
    ranker: EngineRanker,
    /// The epoch the ranker's push state was solved or restored for: the
    /// one a persist may write it with.
    push_epoch: Option<u64>,
    workspace: KernelWorkspace,
    /// Validated-but-unapplied additions. Ingests merge into this staged
    /// delta in O(batch); the successor network — an O(V + E) copy of the
    /// references, the in-degrees and the metadata plus an O(batch log
    /// batch) merge into the reference rows (no citers transpose), see
    /// [`CitationNetwork::with_delta`] — is built once per publish, not
    /// once per batch, and not at all when a sibling engine over the same
    /// parent network has already built it.
    staged: GraphDelta,
    pending_batches: usize,
    next_epoch: u64,
    /// The last successfully published snapshot (an `Arc` share, not a
    /// score copy): its kernel is the one PageRank's push seeds from.
    /// Cleared when a solve is rejected (stale scores must not seed a
    /// push against a newer network).
    previous: Option<Arc<EpochSnapshot>>,
    /// Durability log: when attached, every accepted ingest is appended
    /// (and fsynced) *before* it is staged.
    wal: Option<DeltaWal>,
    /// Sequence number of the next ingested batch. The invariant behind
    /// snapshot/WAL coordination: the staged (unpublished) batches are
    /// exactly the WAL records with `seq ∈ [next_seq − pending_batches,
    /// next_seq)`, so a persisted snapshot's watermark is
    /// `next_seq − pending_batches`.
    next_seq: u64,
    /// `true` while [`RankingEngine::open_from_store`]'s background
    /// warmup is still replaying WAL batches. New ingests are rejected
    /// until it clears: delta ids are assigned by staging order, so a
    /// fresh batch interleaved into the replay would silently shift the
    /// id space the remaining replayed batches resolve against.
    restoring: bool,
}

/// Concurrent ranking server over one citation network.
///
/// All methods take `&self`: wrap the engine in an `Arc` and share it
/// freely. Reads (`snapshot`, `top_k`, `rank_of`) are wait-free with
/// respect to re-ranking — a running solve holds the writer mutex, not the
/// snapshot lock. Writes (`ingest`, `rerank`) serialize on the writer
/// mutex.
pub struct RankingEngine {
    method: String,
    policy: RerankPolicy,
    writer: Mutex<WriterState>,
    published: RwLock<Arc<EpochSnapshot>>,
    /// Live metric instruments, set at most once ([`Self::instrument`]).
    /// Unset, every recording site is one branch on a cold `OnceLock`.
    instruments: OnceLock<Arc<EngineInstruments>>,
    /// WAL batches recovered at [`Self::open_from_store`] but not yet
    /// replayed by the warmup thread — the cold-start staleness gauge.
    replay_backlog: AtomicUsize,
    /// What the cold start's warmup made of the persisted push state;
    /// unset for an engine not opened from a store, or until the warmup
    /// has restored it.
    push_state: OnceLock<PushStateRestore>,
}

impl RankingEngine {
    /// Builds an engine from a validated spec, performs the initial rank,
    /// and publishes epoch 0.
    ///
    /// `net` is an owned network or an `Arc` share of one: engines built
    /// over clones of one `Arc` hold a single copy of the corpus between
    /// them — networks are immutable, a publish swaps in a successor
    /// `Arc`.
    pub fn new(
        net: impl Into<Arc<CitationNetwork>>,
        spec: &MethodSpec,
        policy: RerankPolicy,
    ) -> Result<Self, SpecError> {
        let net = net.into();
        let mut ranker = Self::make_ranker(spec)?;
        let mut workspace = KernelWorkspace::new();
        let scores = ranker.rank_full(&net, &mut workspace);
        let snapshot = Self::freeze(0, &net, scores, RerankStrategy::Initial, None, &ranker);
        let previous = Some(snapshot.clone());
        Ok(Self {
            method: spec.to_string(),
            policy,
            writer: Mutex::new(WriterState {
                net,
                ranker,
                push_epoch: Some(0),
                workspace,
                staged: GraphDelta::new(),
                pending_batches: 0,
                next_epoch: 1,
                previous,
                wal: None,
                next_seq: 0,
                restoring: false,
            }),
            published: RwLock::new(snapshot),
            instruments: OnceLock::new(),
            replay_backlog: AtomicUsize::new(0),
            push_state: OnceLock::new(),
        })
    }

    /// Builds the configured ranker from a validated spec.
    fn make_ranker(spec: &MethodSpec) -> Result<EngineRanker, SpecError> {
        spec.validate()?;
        Ok(match *spec {
            // AttRank gets the incremental push solver; the params were
            // just validated so the unwrap cannot fire.
            MethodSpec::AttRank { alpha, beta, y, w } => EngineRanker::Incremental(Box::new(
                IncrementalAttRank::new(AttRankParams::new(alpha, beta, y, w)?),
            )),
            MethodSpec::PageRank { d } => EngineRanker::Kernel(d),
            _ => EngineRanker::Batch(registry::build(spec)?, spec.damping()),
        })
    }

    /// [`Self::new`] from a config string, e.g.
    /// `"attrank:alpha=0.2,beta=0.4,y=3,w=-0.16"`.
    pub fn from_config(
        net: impl Into<Arc<CitationNetwork>>,
        config: &str,
        policy: RerankPolicy,
    ) -> Result<Self, SpecError> {
        Self::new(net, &config.parse::<MethodSpec>()?, policy)
    }

    /// The canonical config string of the configured method.
    pub fn method(&self) -> &str {
        &self.method
    }

    /// The configured re-rank policy.
    pub fn policy(&self) -> RerankPolicy {
        self.policy
    }

    /// The currently published epoch. The returned `Arc` is a consistent,
    /// immutable view — hold it as long as needed; later publishes do not
    /// mutate it.
    pub fn snapshot(&self) -> Arc<EpochSnapshot> {
        // The lock guards one `Arc` store, which a panic cannot leave
        // half done: a poisoned lock still holds a whole snapshot.
        self.published
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Top-`k` paper ids of the current epoch (partial select, no full
    /// sort). Convenience for `self.snapshot().top_k(k)`.
    pub fn top_k(&self, k: usize) -> Vec<PaperId> {
        self.snapshot().top_k(k)
    }

    /// 1-based rank of `p` in the current epoch.
    pub fn rank_of(&self, p: PaperId) -> Option<usize> {
        self.snapshot().rank_of(p)
    }

    /// Stages a batch of new papers/citations for the authoritative
    /// network, re-ranking and publishing a new epoch if the policy fires.
    ///
    /// Validation runs immediately (`O(batch)`, against the network plus
    /// everything already staged), but the successor network is built only
    /// when a publish actually happens — a deferred-publish policy fed many
    /// small batches pays one corpus copy per epoch, not one per batch.
    ///
    /// With a WAL attached ([`Self::attach_wal`] /
    /// [`Self::open_from_store`]), the validated batch is appended to the
    /// log — fsynced — *before* it is staged, so an acknowledged ingest
    /// survives a crash and is replayed on the next
    /// [`Self::open_from_store`].
    ///
    /// # Errors
    /// Returns the delta validation error (or the WAL append failure);
    /// the engine state is untouched on failure.
    pub fn ingest(&self, delta: &GraphDelta) -> Result<IngestReport, EngineError> {
        self.ingest_after(delta, None)
    }

    /// [`Self::ingest`] for a fan-out caller: `sibling` is the epoch
    /// another engine just published off the same batch. If this publish
    /// applies the same delta to the same parent network, it adopts the
    /// sibling's successor instead of building an identical one; a member
    /// whose lineage diverged misses and builds its own.
    pub(crate) fn ingest_after(
        &self,
        delta: &GraphDelta,
        sibling: Option<&EpochSnapshot>,
    ) -> Result<IngestReport, EngineError> {
        let mut state = self.writer.lock().expect("writer lock poisoned");
        if state.restoring {
            return Err(EngineError::Restore(
                "warm-restart replay in progress; wait on ColdStart before ingesting".into(),
            ));
        }
        state.net.validate_delta(&state.staged, delta)?;
        let seq = state.next_seq;
        if let Some(wal) = state.wal.as_mut() {
            wal.append(seq, delta)?;
        }
        state.next_seq += 1;
        Ok(self.stage_locked(&mut state, delta, sibling))
    }

    /// Validates `delta` against the authoritative network plus
    /// everything already staged — exactly the check [`Self::ingest`]
    /// runs — **without** staging, logging, or consuming a sequence
    /// number. Lets a fan-out caller ([`crate::QueryEngine::ingest`])
    /// pre-flight a batch on every member engine before committing it to
    /// any, so one member's rejection cannot leave the members diverged.
    pub fn check_delta(&self, delta: &GraphDelta) -> Result<(), EngineError> {
        let state = self.writer.lock().expect("writer lock poisoned");
        if state.restoring {
            return Err(EngineError::Restore(
                "warm-restart replay in progress; wait on ColdStart before ingesting".into(),
            ));
        }
        state.net.validate_delta(&state.staged, delta)?;
        Ok(())
    }

    /// The replay variant of [`Self::ingest`]: the batch came *from* the
    /// WAL, so it is not re-appended and `next_seq` (already advanced by
    /// recovery) stays put.
    fn ingest_replayed(&self, delta: &GraphDelta) -> Result<IngestReport, EngineError> {
        let mut state = self.writer.lock().expect("writer lock poisoned");
        state.net.validate_delta(&state.staged, delta)?;
        Ok(self.stage_locked(&mut state, delta, None))
    }

    /// Stages a validated batch and publishes if the policy fires.
    fn stage_locked(
        &self,
        state: &mut WriterState,
        delta: &GraphDelta,
        sibling: Option<&EpochSnapshot>,
    ) -> IngestReport {
        state.staged.merge(delta);
        state.pending_batches += 1;
        let mut published = false;
        if self
            .policy
            .should_publish(state.staged.n_citations(), state.pending_batches)
        {
            published = self.publish_locked(state, sibling);
        }
        IngestReport {
            epoch: state.next_epoch - 1,
            published,
            pending_edges: state.staged.n_citations(),
            pending_batches: state.pending_batches,
        }
    }

    /// Forces a re-rank (folding in any staged ingests) and publishes the
    /// new epoch. Returns the published epoch number.
    pub fn rerank(&self) -> u64 {
        self.rerank_after(None)
    }

    /// [`Self::rerank`] with a sibling's fresh epoch to adopt the
    /// successor network from (see [`Self::ingest_after`]).
    pub(crate) fn rerank_after(&self, sibling: Option<&EpochSnapshot>) -> u64 {
        let mut state = self.writer.lock().expect("writer lock poisoned");
        let _ = self.publish_locked(&mut state, sibling);
        state.next_epoch - 1
    }

    /// `(pending_edges, pending_batches)` not yet reflected in the
    /// published epoch.
    pub fn pending(&self) -> (usize, usize) {
        let state = self.writer.lock().expect("writer lock poisoned");
        (state.staged.n_citations(), state.pending_batches)
    }

    /// Attaches live metric instruments (publish/solve latency, push
    /// work gauges, WAL observers). Effective once per engine: the first
    /// call wins, later calls are ignored — recording sites resolve
    /// their handles through a `OnceLock`, so a swap after the first
    /// publish could silently split a series across registries.
    ///
    /// An already-attached WAL picks up the append/fsync observers here;
    /// a WAL attached later ([`Self::attach_wal`]) picks them up there.
    pub(crate) fn instrument(&self, instruments: Arc<EngineInstruments>) {
        let _ = self.instruments.set(instruments);
        if let Some(ins) = self.instruments.get() {
            let mut state = self.writer.lock().expect("writer lock poisoned");
            if let Some(wal) = state.wal.as_mut() {
                wal.set_observers(ins.wal.clone());
            }
        }
    }

    /// WAL batches recovered at [`Self::open_from_store`] but not yet
    /// replayed — drains to 0 as the background warmup catches up, and
    /// stays 0 on engines that never cold-started.
    pub fn replay_backlog(&self) -> usize {
        self.replay_backlog.load(Ordering::Relaxed)
    }

    /// What the cold start's warmup made of the persisted push state —
    /// `None` for an engine not opened from a store, or while its warmup
    /// has not got that far.
    pub(crate) fn push_state_restore(&self) -> Option<PushStateRestore> {
        self.push_state.get().copied()
    }

    /// Attaches a durability WAL at `path` (creating it if absent, and
    /// recovering/truncating a torn tail). From here on every accepted
    /// [`Self::ingest`] is fsynced to the log before it is staged.
    ///
    /// The engine's batch sequence counter fast-forwards past any
    /// records already in the log, so attach → ingest → crash →
    /// [`Self::open_from_store`] replays each batch exactly once.
    /// Returns the number of records already in the log (batches a
    /// previous process wrote; they are *not* applied here — restoring
    /// state from disk is [`Self::open_from_store`]'s job).
    pub fn attach_wal<P: AsRef<Path>>(&self, path: P) -> Result<usize, EngineError> {
        let (mut wal, recovery) = DeltaWal::open(path)?;
        if let Some(ins) = self.instruments.get() {
            wal.set_observers(ins.wal.clone());
        }
        let mut state = self.writer.lock().expect("writer lock poisoned");
        // The watermark arithmetic assumes the staged batches are exactly
        // the logged records [next_seq − pending_batches, next_seq);
        // batches staged before the log existed would break it — a later
        // persist would record a watermark covering never-logged batches.
        if state.pending_batches > 0 {
            return Err(EngineError::Restore(format!(
                "{} staged batch(es) predate the WAL; rerank() to publish them before attaching",
                state.pending_batches
            )));
        }
        state.next_seq = state.next_seq.max(recovery.next_seq());
        state.wal = Some(wal);
        Ok(recovery.records.len())
    }

    /// Persists the current network and published epoch to a snapshot
    /// store at `path` (atomic temp-file + rename write; see
    /// `graphstore`), with AttRank's push state when the scorer holds the
    /// one that epoch was solved with. Returns the persisted epoch number.
    ///
    /// The snapshot records the WAL watermark of the first *staged*
    /// (unpublished) batch, so [`Self::open_from_store`] replays exactly
    /// the log records the snapshot does not already contain — a crash
    /// at any point between a persist and a WAL truncation is safe.
    ///
    /// # Errors
    /// [`EngineError::Restore`] when the last solve was rejected
    /// (non-finite scores): the published epoch would not match the
    /// current network. Call [`Self::rerank`] first.
    pub fn persist_epoch<P: AsRef<Path>>(&self, path: P) -> Result<u64, EngineError> {
        self.persist_epoch_with(path, |b| b)
    }

    /// [`Self::persist_epoch`] with a hook that can stage extra sections
    /// on the [`StoreBuilder`] before the atomic write — how a sharded
    /// serving layer brands each shard's snapshot with its
    /// [`graphstore::ShardManifest`] without this engine knowing about
    /// plans.
    pub fn persist_epoch_with<P, F>(&self, path: P, extra: F) -> Result<u64, EngineError>
    where
        P: AsRef<Path>,
        F: FnOnce(StoreBuilder) -> StoreBuilder,
    {
        let mut state = self.writer.lock().expect("writer lock poisoned");
        // Mid-replay the network holds only a prefix of the log, yet
        // next_seq is already fast-forwarded past all of it: persisting
        // now would record a too-high watermark and (with nothing
        // staged) truncate acknowledged, un-replayed batches away.
        if state.restoring {
            return Err(EngineError::Restore(
                "warm-restart replay in progress; wait on ColdStart before persisting".into(),
            ));
        }
        let snap = state.previous.clone().ok_or_else(|| {
            EngineError::Restore(
                "no published epoch consistent with the current network \
                 (the last solve was rejected); rerank before persisting"
                    .into(),
            )
        })?;
        let watermark = state.next_seq - state.pending_batches as u64;
        let scores = snap.scores().as_slice();
        let mut builder =
            StoreBuilder::new()
                .network(&state.net)
                .epoch(&self.method, snap.epoch(), scores);
        // The push state rides along whenever it is the epoch's own, so a
        // restart resumes pushing (see `open_from_store`).
        let own = state.push_epoch == Some(snap.epoch());
        if let Some((lanes, scalars)) = state.ranker.push_state().filter(|_| own) {
            let persisted = PushState {
                lanes,
                scalars: &scalars,
            };
            builder = builder.push_state(snap.epoch(), persisted);
        }
        extra(builder.wal_watermark(watermark)).write_to(path)?;
        // With nothing staged, every WAL record is now folded into the
        // snapshot — truncate the log so it does not grow without bound
        // (this is the online compaction; the crash window between the
        // two writes is covered by the watermark). A staged remainder
        // keeps the log: its records are the snapshot's replay set.
        if state.pending_batches == 0 {
            if let Some(wal) = state.wal.as_mut() {
                wal.truncate()?;
            }
        }
        Ok(snap.epoch())
    }

    /// Cold-starts an engine from a persisted snapshot (and optional
    /// WAL): the stored epoch is published **immediately** — readers get
    /// `top_k` answers after one file read, no solve — while a background
    /// warmup thread restores AttRank's push state from the snapshot
    /// (verifying its checksum there, off the first page's path) and
    /// replays the un-compacted WAL batches through the configured
    /// method's delta path, as live publishes. With the push state
    /// restored every replayed batch is a push; without it
    /// ([`PushStateRestore`]) the first one runs the full solve that
    /// rebuilds it. No solve runs when
    /// there is nothing to replay: the restored epoch is the persisted
    /// fixed point of the persisted network.
    ///
    /// The WAL (when given) is attached for durable ingests going
    /// forward. Reads are safe immediately; hold off on *writes*
    /// ([`Self::ingest`] / [`Self::rerank`]) until [`ColdStart::wait`]
    /// returns, so replayed batches keep their original order.
    pub fn open_from_store<P: AsRef<Path>, Q: AsRef<Path>>(
        store_path: P,
        wal_path: Option<Q>,
        policy: RerankPolicy,
    ) -> Result<ColdStart, EngineError> {
        Self::open_store(Store::open(store_path)?, wal_path, policy)
    }

    /// [`Self::open_from_store`] over an already opened snapshot — how a
    /// sharded cold start that read shard 0's file for its manifest hands
    /// that file over instead of reading it twice.
    pub(crate) fn open_store<Q: AsRef<Path>>(
        store: Store,
        wal_path: Option<Q>,
        policy: RerankPolicy,
    ) -> Result<ColdStart, EngineError> {
        let (engine, epoch, replay) = Self::restore_epoch(&store, wal_path, policy)?;
        let worker = engine.clone();
        let warmup = thread::spawn(move || worker.warm_up(store, epoch, &replay));
        Ok(ColdStart { engine, warmup })
    }

    /// The engine serving `store`'s epoch, that epoch, and the WAL batches
    /// the warmup must replay.
    fn restore_epoch<Q: AsRef<Path>>(
        store: &Store,
        wal_path: Option<Q>,
        policy: RerankPolicy,
    ) -> Result<(Arc<Self>, u64, Vec<GraphDelta>), EngineError> {
        let epochs = store.epochs();
        let restored = epochs.first().ok_or_else(|| {
            EngineError::Restore(
                "snapshot holds no score epoch (write one with persist_epoch)".into(),
            )
        })?;
        let spec: MethodSpec = restored.spec.parse()?;
        let (epoch, scores) = (restored.epoch, restored.scores.to_vec().into());
        let watermark = store.wal_watermark().unwrap_or(0);
        let net = Arc::new(store.to_network()?);
        let ranker = Self::make_ranker(&spec)?;
        let (wal, recovery) = wal_path.map(DeltaWal::open).transpose()?.unzip();
        let next_seq = recovery
            .as_ref()
            .map_or(watermark, |r| r.next_seq().max(watermark));
        // Only records past the snapshot's watermark are missing from the
        // restored network.
        let replay: Vec<GraphDelta> = recovery
            .into_iter()
            .flat_map(|r| r.records)
            .filter(|r| r.seq >= watermark)
            .map(|r| r.delta)
            .collect();
        let snapshot = Self::freeze(epoch, &net, scores, RerankStrategy::Restored, None, &ranker);
        let engine = Arc::new(Self {
            method: spec.to_string(),
            policy,
            writer: Mutex::new(WriterState {
                net,
                ranker,
                push_epoch: None,
                workspace: KernelWorkspace::new(),
                staged: GraphDelta::new(),
                pending_batches: 0,
                next_epoch: epoch + 1,
                previous: Some(snapshot.clone()),
                wal,
                next_seq,
                // Cleared by the warmup thread once replay is done; until
                // then new ingests are rejected so replayed batches keep
                // their original id assignment.
                restoring: true,
            }),
            published: RwLock::new(snapshot),
            instruments: OnceLock::new(),
            replay_backlog: AtomicUsize::new(replay.len()),
            push_state: OnceLock::new(),
        });
        Ok((engine, epoch, replay))
    }

    /// The cold start's background warmup: restores the push state
    /// `store` holds for the restored `epoch`, then replays `replay`.
    fn warm_up(&self, store: Store, epoch: u64, replay: &[GraphDelta]) -> WarmupReport {
        let push_state = self.restore_push_state(&store, epoch);
        let _ = self.push_state.set(push_state);
        drop(store);
        let mut replayed = 0usize;
        let mut rejected = 0usize;
        for delta in replay {
            match self.ingest_replayed(delta) {
                Ok(_) => replayed += 1,
                Err(_) => rejected += 1,
            }
            self.replay_backlog.fetch_sub(1, Ordering::Relaxed);
        }
        self.writer.lock().expect("writer lock poisoned").restoring = false;
        if self.pending() != (0, 0) {
            // Deferred-publish policies: fold the replayed batches in.
            self.rerank();
        }
        WarmupReport {
            replayed,
            rejected,
            final_epoch: self.snapshot().epoch(),
            push_state,
        }
    }

    /// Seeds the incremental scorer with the push state `store` holds for
    /// the restored `epoch`, when that verifies, before any batch replays.
    /// The kernel the scorer resolves from it becomes the restored epoch's
    /// kernel too, unless a seeded read has already built one; the push
    /// state is the epoch's either way.
    fn restore_push_state(&self, store: &Store, epoch: u64) -> PushStateRestore {
        let mut guard = self.writer.lock().expect("writer lock poisoned");
        let state = &mut *guard;
        let (EngineRanker::Incremental(inc), Some(snap)) = (&mut state.ranker, &state.previous)
        else {
            return PushStateRestore::Absent;
        };
        let verified = store.push_state(epoch);
        let persisted = verified.as_ref().ok().copied().flatten();
        let restored = inc.restore(&state.net, persisted.map(|s| (s.lanes, s.scalars)));
        state.push_epoch = restored.then_some(epoch);
        if let Some(kernel) = inc.kernel() {
            let _ = snap.kernel.set(Arc::clone(kernel));
        }
        match verified {
            Err(_) => PushStateRestore::Corrupt,
            Ok(_) if restored => PushStateRestore::Restored,
            Ok(_) => PushStateRestore::Absent,
        }
    }

    /// Folds staged deltas into the network (adopting `sibling`'s
    /// successor when it is the same parent plus the same delta), re-ranks
    /// (push when the delta qualifies, full solve otherwise), and swaps in
    /// the new epoch. Returns `false` when the solve produced non-finite
    /// scores and the previous epoch was kept.
    fn publish_locked(&self, state: &mut WriterState, sibling: Option<&EpochSnapshot>) -> bool {
        let publish_started = Instant::now();
        state.pending_batches = 0;
        // Lineage capture: the pre-publish network and the batch folded
        // in, so derived per-epoch state (personalization vectors) can be
        // carried across this publish.
        let parent_epoch = state.previous.as_ref().map(|p| p.epoch());
        let parent_net = state.net.clone();
        let solve_started;
        let (scores, strategy, delta) = if state.staged.is_empty() {
            solve_started = Instant::now();
            (
                state.ranker.rank_full(&state.net, &mut state.workspace),
                RerankStrategy::Full,
                Arc::new(GraphDelta::new()),
            )
        } else {
            let staged = std::mem::replace(&mut state.staged, GraphDelta::new());
            let (next, shared) = match sibling.and_then(|s| s.successor_of(&state.net, &staged)) {
                Some(next) => (next, true),
                None => (
                    Arc::new(
                        state
                            .net
                            .with_delta(&staged)
                            .expect("staged deltas were validated at ingest"),
                    ),
                    false,
                ),
            };
            solve_started = Instant::now();
            if let Some(ins) = self.instruments.get() {
                ins.apply_seconds
                    .observe(solve_started.duration_since(publish_started));
                let outcome = if shared {
                    &ins.successor_shared
                } else {
                    &ins.successor_built
                };
                outcome.inc();
            }
            let (scores, strategy) = state.ranker.rank_delta(
                &state.net,
                &staged,
                &next,
                state.previous.as_deref(),
                &mut state.workspace,
            );
            state.net = next;
            if let (RerankStrategy::Full, Some(ins)) = (strategy, self.instruments.get()) {
                ins.push_fallbacks.inc();
            }
            (scores, strategy, Arc::new(staged))
        };
        if let Some(ins) = self.instruments.get() {
            ins.solve_seconds.observe(solve_started.elapsed());
        }
        // A non-convergent solve (NaN/∞ scores) must not clobber the last
        // good epoch: readers keep serving the stale-but-sane snapshot.
        // (The ranking comparators are NaN-total, so even a published
        // non-finite vector could not panic a reader — this guard is about
        // not serving garbage, mirroring the eval layer's skip semantics.)
        if !scores.all_finite() {
            // The stale scores no longer match the (advanced) network and
            // must not seed a future push.
            state.previous = None;
            if let Some(ins) = self.instruments.get() {
                ins.publish_seconds.observe(publish_started.elapsed());
            }
            return false;
        }
        let epoch = state.next_epoch;
        state.next_epoch += 1;
        let lineage = parent_epoch.map(|parent_epoch| EpochLineage {
            parent_epoch,
            parent_net,
            delta,
        });
        let freeze_started = Instant::now();
        let snapshot = Self::freeze(epoch, &state.net, scores, strategy, lineage, &state.ranker);
        if let Some(ins) = self.instruments.get() {
            ins.freeze_seconds.observe(freeze_started.elapsed());
        }
        state.previous = Some(snapshot.clone());
        state.push_epoch = Some(epoch);
        *self
            .published
            .write()
            .unwrap_or_else(PoisonError::into_inner) = snapshot;
        if let Some(ins) = self.instruments.get() {
            ins.publish_seconds.observe(publish_started.elapsed());
            let (pushes, edge_work) = match strategy {
                RerankStrategy::Push { pushes, edge_work } => (pushes, edge_work),
                _ => (0, 0),
            };
            ins.push_pushes.set(pushes.min(i64::MAX as u64) as i64);
            ins.push_edge_work
                .set(edge_work.min(i64::MAX as u64) as i64);
            let budget = PushRankConfig::default()
                .max_edge_work(state.net.n_citations(), state.net.n_papers());
            ins.push_edge_budget.set(budget.min(i64::MAX as u64) as i64);
        }
        true
    }

    /// The one place a snapshot is frozen — initial rank, publish and
    /// restore alike — so the scores' summaries can never be stale, and
    /// the kernel `ranker` just solved, if any, is the snapshot's.
    fn freeze(
        epoch: u64,
        net: &Arc<CitationNetwork>,
        scores: ScoreVec,
        strategy: RerankStrategy,
        lineage: Option<EpochLineage>,
        ranker: &EngineRanker,
    ) -> Arc<EpochSnapshot> {
        let kernel = ranker.solved_kernel(&scores);
        Arc::new(EpochSnapshot {
            epoch,
            strategy,
            net: net.clone(),
            blocks: BlockSummaries::new(scores.as_slice(), net),
            scores,
            order: OnceLock::new(),
            lineage,
            damping: ranker.damping(),
            kernel: kernel.map_or_else(OnceLock::new, OnceLock::from),
        })
    }
}

/// What the background warmup of [`RankingEngine::open_from_store`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarmupReport {
    /// WAL batches replayed as delta publishes.
    pub replayed: usize,
    /// WAL batches the validator rejected (a corrupt-but-checksummed log
    /// or a snapshot/WAL mismatch; the engine keeps serving either way).
    pub rejected: usize,
    /// Epoch visible to readers after warmup.
    pub final_epoch: u64,
    /// Whether the replay started from the persisted push state.
    pub push_state: PushStateRestore,
}

/// What a cold start made of the push state persisted with its epoch
/// ([`WarmupReport::push_state`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushStateRestore {
    /// Restored: every replayed batch (and the first live one) can push.
    Restored,
    /// The snapshot holds none for its epoch — written before the section
    /// existed or by a build that persisted the retired resolved form, or
    /// by a method without one. The first batch runs the full solve that
    /// rebuilds it.
    Absent,
    /// The section failed its checksum and was not used; the engine
    /// proceeds as for [`Self::Absent`].
    Corrupt,
}

/// A warm-restarting engine: the restored epoch serves reads
/// immediately, while a background thread restores the push state and
/// replays the WAL.
pub struct ColdStart {
    engine: Arc<RankingEngine>,
    warmup: thread::JoinHandle<WarmupReport>,
}

impl ColdStart {
    /// The engine, serving the restored epoch (readable immediately).
    pub fn engine(&self) -> Arc<RankingEngine> {
        self.engine.clone()
    }

    /// Blocks until the background warmup finishes, returning the engine
    /// and what the warmup did.
    pub fn wait(self) -> (Arc<RankingEngine>, WarmupReport) {
        let report = self.warmup.join().expect("warmup thread panicked");
        (self.engine, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use citegraph::NetworkBuilder;
    use sparsela::HEAD_LEN;

    fn base_net() -> CitationNetwork {
        let mut b = NetworkBuilder::new();
        let ids: Vec<_> = (2000..2010).map(|y| b.add_paper(y)).collect();
        for (i, &citing) in ids.iter().enumerate().skip(1) {
            b.add_citation(citing, ids[i - 1]).unwrap();
            if i >= 3 {
                b.add_citation(citing, ids[0]).unwrap();
            }
        }
        b.build().unwrap()
    }

    fn growth_delta(base_n: usize, year: Year) -> GraphDelta {
        let mut d = GraphDelta::new();
        let offset = d.add_paper(year);
        let new_id = (base_n + offset) as PaperId;
        d.add_citation(new_id, 0);
        d.add_citation(new_id, (base_n - 1) as PaperId);
        d
    }

    #[test]
    fn initial_epoch_is_published() {
        let engine =
            RankingEngine::from_config(base_net(), "cc", RerankPolicy::EveryBatch).unwrap();
        let snap = engine.snapshot();
        assert_eq!(snap.epoch(), 0);
        assert_eq!(snap.n_papers(), 10);
        assert_eq!(snap.scores().len(), 10);
        assert_eq!(engine.method(), "cc");
        assert_eq!(engine.pending(), (0, 0));
    }

    #[test]
    fn top_k_and_rank_of_agree_with_scores() {
        let engine =
            RankingEngine::from_config(base_net(), "cc", RerankPolicy::EveryBatch).unwrap();
        let snap = engine.snapshot();
        let full: Vec<PaperId> = snap.top_k(snap.n_papers());
        assert_eq!(full, sparsela::sort_indices_desc(snap.scores().as_slice()));
        for (pos, &p) in full.iter().enumerate() {
            assert_eq!(snap.rank_of(p), Some(pos + 1));
        }
        assert_eq!(snap.rank_of(99), None);
        assert_eq!(snap.score(99), None);
        assert_eq!(engine.top_k(3), full[..3].to_vec());
        assert_eq!(engine.rank_of(full[0]), Some(1));
    }

    #[test]
    fn a_rank_in_or_past_the_head_is_its_sort_position() {
        // Tie runs, `-inf`s and NaNs; then mostly NaN, so the head holds
        // NaNs too. The last 1,000 papers are past the head.
        let n = HEAD_LEN + 1_000;
        let mut b = NetworkBuilder::new();
        for _ in 0..n {
            b.add_paper(2000);
        }
        let net = Arc::new(b.build().unwrap());
        let cc = RankingEngine::make_ranker(&MethodSpec::CitationCount).unwrap();
        let patterns: [fn(usize) -> f64; 2] = [
            |i| match i % 11 {
                0 => f64::NAN,
                1 => f64::NEG_INFINITY,
                _ => ((i * 7919) % 97) as f64 / 4.0,
            },
            |i| match i % 20 {
                0 => (i % 3) as f64,
                _ => f64::NAN,
            },
        ];
        for pattern in patterns {
            let scores: Vec<f64> = (0..n).map(pattern).collect();
            let full = sparsela::sort_indices_desc(&scores);
            let vector = ScoreVec::from_vec(scores);
            let snap = RankingEngine::freeze(0, &net, vector, RerankStrategy::Initial, None, &cc);
            assert_eq!(snap.blocks.ids.heads_built(), 0, "a freeze builds no head");
            assert_eq!(
                snap.blocks.ids.head(snap.scores.as_slice(), 0),
                &full[..HEAD_LEN]
            );
            for (pos, &p) in full[..HEAD_LEN].iter().enumerate() {
                assert_eq!(snap.rank_of(p), Some(pos + 1), "head paper {p}");
                let score = snap.score(p).unwrap();
                assert_eq!(snap.ahead_of(score, 5_000 + p, 5_000), pos, "as a shard");
            }
            assert!(
                snap.order.get().is_none(),
                "a rank in the head sorted the order"
            );
            for (pos, &p) in full.iter().enumerate().skip(HEAD_LEN) {
                assert_eq!(snap.rank_of(p), Some(pos + 1), "paper {p} past the head");
            }
        }
    }

    #[test]
    fn racing_readers_build_a_year_head_once() {
        let net = citegen::generate(&citegen::DatasetProfile::dblp().scaled(3_000), 11);
        let year = net.current_year().unwrap();
        let n = net.n_papers();
        let qe = crate::QueryEngine::from_configs(net, &["cc"], RerankPolicy::EveryBatch).unwrap();
        let mut delta = GraphDelta::new();
        for j in 0..20 {
            let id = (n + delta.add_paper(year)) as PaperId;
            delta.add_citation(id, (j * 131 % n) as PaperId);
        }
        qe.ingest(&delta).unwrap();
        let snap = qe.snapshot(Some("cc")).unwrap();
        assert_eq!(snap.epoch(), 1);
        assert_eq!(snap.blocks.ids.heads_built(), 0, "a publish builds no head");
        let q: crate::Query = format!("k=25,year={}..", year - 1).parse().unwrap();
        let start = std::sync::Barrier::new(8);
        let pages: Vec<crate::Page> = thread::scope(|s| {
            let racers: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        qe.query_at(&snap, &q).unwrap()
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        assert_eq!(snap.blocks.ids.heads_built(), 1, "the head is built once");
        let bits = |p: &crate::Page| -> Vec<(PaperId, u64)> {
            p.items.iter().map(|h| (h.id, h.score.to_bits())).collect()
        };
        for page in &pages[1..] {
            assert_eq!(bits(page), bits(&pages[0]));
            assert_eq!(
                (page.matched, &page.next),
                (pages[0].matched, &pages[0].next)
            );
        }
        let scores = snap.scores.as_slice();
        let from = snap
            .network()
            .id_range_for_years(Some(year - 1), None)
            .start;
        let want: Vec<PaperId> = sparsela::sort_indices_desc(scores)
            .into_iter()
            .filter(|&id| id >= from)
            .collect();
        let got: Vec<PaperId> = pages[0].items.iter().map(|h| h.id).collect();
        assert_eq!(got, want[..25]);
        assert_eq!(pages[0].matched, want.len());
    }

    #[test]
    fn racing_readers_build_a_venue_head_once() {
        let net = citegen::generate(&citegen::DatasetProfile::dblp().scaled(3_000), 11);
        let table = net.venues().unwrap();
        let venue = (0..table.n_venues() as u32)
            .max_by_key(|&v| table.n_papers_at(v))
            .unwrap();
        let year = net.current_year().unwrap() - 6;
        let qe = crate::QueryEngine::from_configs(net, &["cc"], RerankPolicy::Manual).unwrap();
        let snap = qe.snapshot(Some("cc")).unwrap();
        assert_eq!(
            snap.blocks.venues.heads_built(),
            0,
            "a freeze builds no head"
        );
        let q: crate::Query = format!("k=10,year={year}..,venue={venue}").parse().unwrap();
        let start = std::sync::Barrier::new(8);
        let pages: Vec<crate::Page> = thread::scope(|s| {
            let racers: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        qe.query_at(&snap, &q).unwrap()
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        assert_eq!(
            snap.blocks.venues.heads_built(),
            1,
            "the head is built once"
        );
        let bits = |p: &crate::Page| -> Vec<(PaperId, u64)> {
            p.items.iter().map(|h| (h.id, h.score.to_bits())).collect()
        };
        for page in &pages[1..] {
            assert_eq!(bits(page), bits(&pages[0]));
            assert_eq!(
                (page.matched, &page.next),
                (pages[0].matched, &pages[0].next)
            );
        }
        let net = snap.network();
        let want: Vec<PaperId> = sparsela::sort_indices_desc(snap.scores.as_slice())
            .into_iter()
            .filter(|&id| net.year(id) >= year && net.venues().unwrap().venue_of(id) == Some(venue))
            .collect();
        let got: Vec<PaperId> = pages[0].items.iter().map(|h| h.id).collect();
        assert_eq!(got, want[..10]);
        assert_eq!(pages[0].matched, want.len());
    }

    #[test]
    fn a_poisoned_snapshot_lock_still_serves_and_publishes() {
        let engine =
            RankingEngine::from_config(base_net(), "cc", RerankPolicy::EveryBatch).unwrap();
        let engine = Arc::new(engine);
        let want = engine.top_k(3);
        let holder = Arc::clone(&engine);
        let died = thread::spawn(move || {
            let _guard = holder.published.write().unwrap();
            panic!("a thread panics holding the snapshot lock");
        })
        .join();
        assert!(died.is_err());
        assert!(engine.published.is_poisoned());
        assert_eq!(engine.top_k(3), want);
        assert_eq!(engine.rank_of(want[0]), Some(1));
        // The publish swap takes the poisoned lock too.
        assert!(engine.ingest(&growth_delta(10, 2011)).unwrap().published);
        assert_eq!(engine.snapshot().epoch(), 1);
        assert_eq!(engine.snapshot().score(0), Some(9.0));
    }

    #[test]
    fn every_batch_policy_publishes_each_ingest() {
        let engine =
            RankingEngine::from_config(base_net(), "cc", RerankPolicy::EveryBatch).unwrap();
        let report = engine.ingest(&growth_delta(10, 2011)).unwrap();
        assert!(report.published);
        assert_eq!(report.epoch, 1);
        assert_eq!(report.pending_edges, 0);
        let snap = engine.snapshot();
        assert_eq!(snap.epoch(), 1);
        assert_eq!(snap.n_papers(), 11);
        // Paper 0 had 8 citations (the chain's paper 1 plus papers 3..=9);
        // the ingested paper adds a ninth.
        assert_eq!(snap.score(0).unwrap(), 9.0);
    }

    #[test]
    fn every_n_edges_policy_batches_until_threshold() {
        let engine =
            RankingEngine::from_config(base_net(), "cc", RerankPolicy::EveryNEdges(4)).unwrap();
        let r1 = engine.ingest(&growth_delta(10, 2011)).unwrap(); // 2 edges
        assert!(!r1.published);
        assert_eq!(r1.pending_edges, 2);
        assert_eq!(engine.snapshot().epoch(), 0);
        assert_eq!(engine.snapshot().n_papers(), 10, "stale but consistent");
        let r2 = engine.ingest(&growth_delta(11, 2012)).unwrap(); // 4 edges
        assert!(r2.published);
        assert_eq!(engine.snapshot().epoch(), 1);
        assert_eq!(engine.snapshot().n_papers(), 12);
        assert_eq!(engine.pending(), (0, 0));
    }

    #[test]
    fn staleness_bound_policy_publishes_after_n_batches() {
        let engine = RankingEngine::from_config(
            base_net(),
            "ram:gamma=0.6",
            RerankPolicy::MaxStaleBatches(2),
        )
        .unwrap();
        // An edges-only correction batch: tiny, but staleness still counts.
        let mut d = GraphDelta::new();
        d.add_citation(9, 5);
        assert!(!engine.ingest(&d).unwrap().published);
        let mut d2 = GraphDelta::new();
        d2.add_citation(8, 2);
        let r = engine.ingest(&d2).unwrap();
        assert!(r.published);
        assert_eq!(engine.snapshot().epoch(), 1);
    }

    #[test]
    fn manual_policy_only_publishes_on_rerank() {
        let engine = RankingEngine::from_config(base_net(), "cc", RerankPolicy::Manual).unwrap();
        for year in [2011, 2012, 2013] {
            // Each un-published ingest grows the authoritative network by
            // one paper; the next delta's ids must account for that.
            let base = 10 + engine.pending().1;
            assert!(!engine.ingest(&growth_delta(base, year)).unwrap().published);
        }
        assert_eq!(engine.snapshot().epoch(), 0);
        assert_eq!(engine.pending().1, 3);
        let epoch = engine.rerank();
        assert_eq!(epoch, 1);
        assert_eq!(engine.snapshot().n_papers(), 13);
        assert_eq!(engine.pending(), (0, 0));
    }

    #[test]
    fn failed_ingest_leaves_engine_intact() {
        let engine =
            RankingEngine::from_config(base_net(), "cc", RerankPolicy::EveryBatch).unwrap();
        let mut bad = GraphDelta::new();
        bad.add_paper(1990); // year regression
        assert!(engine.ingest(&bad).is_err());
        assert_eq!(engine.snapshot().epoch(), 0);
        assert_eq!(engine.pending(), (0, 0));
        // Engine still works afterwards.
        assert!(engine.ingest(&growth_delta(10, 2011)).unwrap().published);
    }

    #[test]
    fn invalid_config_is_rejected() {
        assert!(matches!(
            RankingEngine::from_config(base_net(), "ram:gamma=7", RerankPolicy::EveryBatch),
            Err(SpecError::InvalidParam { .. })
        ));
        assert!(matches!(
            RankingEngine::from_config(base_net(), "nope", RerankPolicy::EveryBatch),
            Err(SpecError::UnknownMethod { .. })
        ));
    }

    #[test]
    fn pagerank_kernel_push_leaves_previous_alone_and_a_nan_declines() {
        // A 200-paper chain over 20 years; every tenth paper also cites 0.
        let mut b = NetworkBuilder::new();
        for i in 0..200u32 {
            b.add_paper(1990 + i as i32 / 10);
            if i > 0 {
                b.add_citation(i, i - 1).unwrap();
            }
            if i % 10 == 9 {
                b.add_citation(i, 0).unwrap();
            }
        }
        let net = b.build().unwrap();
        let mut d = GraphDelta::new();
        let p = (net.n_papers() + d.add_paper(2010)) as PaperId;
        d.add_citation(p, 0);
        d.add_citation(p, 150);
        let new = net.with_delta(&d).unwrap();
        let mut ranker = RankingEngine::make_ranker(&MethodSpec::PageRank { d: 0.5 }).unwrap();
        let mut ws = KernelWorkspace::new();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let net = Arc::new(net);
        let freeze = |scores: ScoreVec, ranker: &EngineRanker| {
            RankingEngine::freeze(0, &net, scores, RerankStrategy::Initial, None, ranker)
        };

        // The snapshot's kernel is its scores over `1−α`, frozen with it.
        let prev = freeze(ranker.rank_full(&net, &mut ws), &ranker);
        let kernel = prev.kernel.get().expect("frozen with its kernel").clone();
        assert_eq!(
            bits(&kernel),
            bits(&prev.scores().iter().map(|&p| p * 2.0).collect::<Vec<_>>())
        );
        assert!(Arc::ptr_eq(&prev.kernel(0.5), &kernel));
        let (pushed, strategy) = ranker.rank_delta(&net, &d, &new, Some(&prev), &mut ws);
        assert!(matches!(strategy, RerankStrategy::Push { .. }));
        assert_eq!(
            bits(&prev.kernel(0.5)),
            bits(&kernel),
            "a push unresolves a copy"
        );
        let full = ranker.rank_full(&new, &mut ws);
        for i in 0..new.n_papers() {
            assert!((pushed[i] - full[i]).abs() < 1e-9, "paper {i}");
        }

        // A NaN kernel fails the push's input checks: the decline runs the
        // full re-rank.
        let mut nan = prev.scores().clone();
        nan[3] = f64::NAN;
        let nan = freeze(nan, &ranker);
        let (declined, strategy) = ranker.rank_delta(&net, &d, &new, Some(&nan), &mut ws);
        assert_eq!(strategy, RerankStrategy::Full);
        assert_eq!(bits(&declined), bits(&full));
    }

    #[test]
    fn strategy_metadata_is_recorded() {
        let engine =
            RankingEngine::from_config(base_net(), "cc", RerankPolicy::EveryBatch).unwrap();
        assert_eq!(engine.snapshot().strategy(), RerankStrategy::Initial);
        engine.ingest(&growth_delta(10, 2011)).unwrap();
        // CC has no push path: a delta publish records a full solve.
        assert_eq!(engine.snapshot().strategy(), RerankStrategy::Full);
        // A manual rerank with nothing staged is a full solve too.
        let engine = RankingEngine::from_config(base_net(), "cc", RerankPolicy::Manual).unwrap();
        engine.rerank();
        assert_eq!(engine.snapshot().strategy(), RerankStrategy::Full);
    }

    #[test]
    fn an_attrank_epoch_zero_holds_its_kernel_and_its_first_publish_pushes() {
        let engine =
            RankingEngine::from_config(base_net(), "attrank", RerankPolicy::EveryBatch).unwrap();
        let snap = engine.snapshot();
        assert_eq!(snap.strategy(), RerankStrategy::Initial);
        let kernel = snap
            .kernel
            .get()
            .expect("frozen with the kernel its solve resolved");
        assert_eq!(kernel.len(), snap.n_papers());
        engine.ingest(&growth_delta(10, 2011)).unwrap();
        let next = engine.snapshot();
        assert!(
            matches!(next.strategy(), RerankStrategy::Push { .. }),
            "{:?}",
            next.strategy()
        );
        assert!(next.kernel.get().is_some());
    }

    #[test]
    fn a_seeded_read_before_the_restore_leaves_the_push_state_persistable() {
        let dir = std::env::temp_dir().join(format!(
            "rankengine_restore_after_read-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let (first, second) = (dir.join("first.store"), dir.join("second.store"));
        let engine =
            RankingEngine::from_config(base_net(), "attrank", RerankPolicy::EveryBatch).unwrap();
        engine.ingest(&growth_delta(10, 2011)).unwrap();
        engine.persist_epoch(&first).unwrap();

        // The restored epoch's kernel slot is filled by a seeded read
        // before the warmup restores the push state.
        let store = Store::open(&first).unwrap();
        let (restored, epoch, replay) =
            RankingEngine::restore_epoch(&store, None::<&Path>, RerankPolicy::EveryBatch).unwrap();
        let snap = restored.snapshot();
        let alpha = snap.damping.expect("AttRank has a damping factor");
        let built = snap.kernel(alpha);
        let report = restored.warm_up(store, epoch, &replay);
        assert_eq!(report.push_state, PushStateRestore::Restored);
        assert!(
            Arc::ptr_eq(&snap.kernel(alpha), &built),
            "the read's kernel stays"
        );

        // The push state is still the epoch's, so it is persisted again.
        restored.persist_epoch(&second).unwrap();
        let (_, report) =
            RankingEngine::open_from_store(&second, None::<&Path>, RerankPolicy::EveryBatch)
                .unwrap()
                .wait();
        assert_eq!(report.push_state, PushStateRestore::Restored);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ingest_is_rejected_while_restoring() {
        let engine =
            RankingEngine::from_config(base_net(), "cc", RerankPolicy::EveryBatch).unwrap();
        engine
            .writer
            .lock()
            .expect("writer lock poisoned")
            .restoring = true;
        // Writes are gated until the warmup clears the flag…
        assert!(matches!(
            engine.ingest(&growth_delta(10, 2011)),
            Err(EngineError::Restore(_))
        ));
        // …as is persisting (the watermark would cover un-replayed
        // batches and truncate them out of the WAL)…
        let path = std::env::temp_dir().join(format!(
            "rankengine_restore_gate-{}.store",
            std::process::id()
        ));
        assert!(matches!(
            engine.persist_epoch(&path),
            Err(EngineError::Restore(_))
        ));
        // …but reads keep serving the restored epoch.
        assert_eq!(engine.snapshot().epoch(), 0);
        engine
            .writer
            .lock()
            .expect("writer lock poisoned")
            .restoring = false;
        assert!(engine.ingest(&growth_delta(10, 2011)).unwrap().published);
    }

    #[test]
    fn snapshots_are_immutable_across_publishes() {
        let engine =
            RankingEngine::from_config(base_net(), "cc", RerankPolicy::EveryBatch).unwrap();
        let old = engine.snapshot();
        let old_top = old.top_k(3);
        engine.ingest(&growth_delta(10, 2011)).unwrap();
        // The retained Arc still answers from its frozen epoch.
        assert_eq!(old.epoch(), 0);
        assert_eq!(old.n_papers(), 10);
        assert_eq!(old.top_k(3), old_top);
        assert_eq!(engine.snapshot().epoch(), 1);
    }
}
