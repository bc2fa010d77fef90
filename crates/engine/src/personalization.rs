//! [`PersonalizationCache`] — epoch-keyed LRU of completed personalized
//! score vectors.
//!
//! Personalized ranking is a per-request solve ([`citegraph::personalize()`]),
//! and the read pattern that motivates it (a user's "related papers" panel,
//! refreshed on every page view) re-asks the same seed set against the
//! same epoch many times. The cache turns that workload into three tiers:
//!
//! * **hit** — the entry was solved on exactly the requested epoch: serve
//!   the `Arc`'d vector with zero solve work — and, to the engines, the
//!   block maxima built when the entry was inserted, so a seeded page is
//!   block-pruned like an unseeded one instead of re-scanning the vector
//!   it just got for free;
//! * **warm re-push** — the entry was solved on the epoch's *parent*
//!   (recorded in the snapshot's lineage): every entry keeps its
//!   *unresolved* form (pure-citation part + dangling mass,
//!   [`citegraph::WarmStart`]), which is invariant under pure growth, so
//!   [`citegraph::repersonalize`] revalidates it with a push over the
//!   delta-rewired columns plus one kernel AXPY — an epoch publish
//!   *invalidates lazily*; stale entries are warm starts, not discards;
//! * **cold** — no usable entry: one push pass from zero over the seeds'
//!   reference cone ([`citegraph::personalize()`]: no work budget, no
//!   fallback — on a citation DAG each cone paper is pushed once), then
//!   cache.
//!
//! The dangling rank-1 part of every solve resolves against a **uniform
//! kernel** sub-cache keyed like the entries, by partition label and `α`:
//! a kernel belongs to the partition whose graph it was solved on, so one
//! shard's kernel never resolves another's vectors. Each is cold-built
//! once per (label, α, epoch) and warm-updated by
//! [`citegraph::update_uniform_kernel`] only from the lineage's parent
//! epoch — so the only dense work in steady state is one kernel AXPY per
//! solve.
//!
//! Concurrency follows the engine's snapshot discipline: completed
//! vectors are immutable behind `Arc`s, the interior mutex guards only
//! map bookkeeping (never a solve), and every entry is tagged with the
//! epoch it was solved on — a reader holding a pinned [`EpochSnapshot`]
//! can never be served scores from a different epoch.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use citegraph::{
    personalize, repersonalize, uniform_kernel, update_uniform_kernel, CitationNetwork, PaperId,
    PushRankConfig, SeedPersonalization, WarmStart,
};
use sparsela::{KernelWorkspace, ScoreVec};

use crate::engine::{BlockSummaries, EpochSnapshot, Ranking};

/// Capacity and memory bounds for a [`PersonalizationCache`]. Every solve
/// runs under [`PushRankConfig::default`]: its `epsilon` for every push,
/// its budget for warm re-pushes and kernel updates (a cold solve has
/// none).
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// Maximum number of cached personalization vectors (LRU-evicted).
    pub capacity: usize,
    /// Memory bound over the cached vectors, in bytes. Each entry holds
    /// the resolved scores, their block-maxima summaries (1/64 of the
    /// scores over ids, 1/32 over venue postings, in 8 KiB steps; their
    /// head cells in 8 KiB steps; every head at its full length, built or
    /// not) and the unresolved warm-start form; all are counted. Uniform
    /// kernels (one per partition label and `α`) are not.
    pub max_bytes: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            capacity: 1024,
            max_bytes: 256 << 20,
        }
    }
}

/// How a [`PersonalizationCache::scores`] request was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Entry solved on exactly this epoch: zero solve work.
    Hit,
    /// Entry from the parent epoch revalidated by an `O(affected)` push
    /// across the published delta.
    WarmRepush,
    /// No usable entry; one push pass from a zero start.
    ColdPush,
}

/// Cache observability counters (monotonic since construction) plus the
/// current occupancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests served with zero solve work.
    pub hits: u64,
    /// Requests served by a warm re-push of a parent-epoch entry.
    pub warm_repushes: u64,
    /// Requests served by a cold push solve.
    pub cold_pushes: u64,
    /// Requests a cold solve could not serve by push. Always 0: a cold
    /// solve is one unbudgeted pass and has no fallback. Kept for readers
    /// that sum every outcome.
    pub fallbacks: u64,
    /// Vectors currently cached.
    pub entries: usize,
    /// Bytes currently held by cached vectors.
    pub bytes: usize,
}

/// Canonical cache key: method label + canonicalized seed distribution.
/// (The epoch is *not* in the key — it tags the entry, so a stale entry
/// stays findable as a warm start for its successor epoch.)
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    method: String,
    seeds: Vec<PaperId>,
    /// Normalized weights as IEEE bit patterns (canonical per
    /// [`SeedPersonalization`], so equal distributions hash equally).
    weight_bits: Vec<u64>,
}

impl CacheKey {
    fn new(method: &str, seed: &SeedPersonalization) -> Self {
        Self {
            method: method.to_string(),
            seeds: seed.seeds().to_vec(),
            weight_bits: seed.weights().iter().map(|w| w.to_bits()).collect(),
        }
    }
}

/// A cached personalized vector with the block summaries (over ids and
/// over the epoch's venue postings, with room for a head per year cut of
/// each list) built when it was solved, kept beside the scores they
/// describe: what [`PersonalizationCache::ranking`] hands the query layer,
/// so a shallow seeded page — a `year=Y..` or venue one included — is a
/// slice of heads like an unseeded one, and every other seeded page
/// prunes like an unseeded one.
#[derive(Debug, Clone)]
pub(crate) struct CachedRanking {
    pub(crate) scores: Arc<ScoreVec>,
    blocks: Arc<BlockSummaries>,
}

impl CachedRanking {
    /// `scores`, solved on `net`, with its summaries.
    fn new(scores: ScoreVec, net: &CitationNetwork) -> Self {
        Self {
            blocks: Arc::new(BlockSummaries::new(scores.as_slice(), net)),
            scores: Arc::new(scores),
        }
    }

    /// The borrowed form the selection block reads.
    pub(crate) fn view(&self) -> Ranking<'_> {
        Ranking {
            scores: self.scores.as_slice(),
            blocks: &self.blocks,
        }
    }
}

struct CacheEntry {
    /// Epoch the vector was solved on (must match the serving snapshot,
    /// directly or through one lineage hop).
    epoch: u64,
    ranking: CachedRanking,
    /// Warm-start form (unresolved pure-citation part).
    raw: Arc<ScoreVec>,
    /// `dᵀy` of [`Self::raw`].
    dangling_mass: f64,
    last_used: u64,
}

impl CacheEntry {
    fn bytes(&self) -> usize {
        (self.ranking.scores.len() + self.raw.len()) * std::mem::size_of::<f64>()
            + self.ranking.blocks.bytes()
    }
}

struct KernelEntry {
    epoch: u64,
    kernel: Arc<ScoreVec>,
}

#[derive(Default)]
pub(crate) struct CacheInner {
    entries: HashMap<CacheKey, CacheEntry>,
    /// Uniform kernels keyed by partition label and `α` bit pattern; one
    /// (latest-epoch) kernel per partition and damping factor.
    kernels: HashMap<(String, u64), KernelEntry>,
    tick: u64,
    bytes: usize,
}

/// Epoch-keyed LRU cache of completed personalized score vectors. See the
/// module docs for the serving tiers and concurrency discipline.
pub struct PersonalizationCache {
    config: CacheConfig,
    pub(crate) inner: Mutex<CacheInner>,
    hits: AtomicU64,
    warm_repushes: AtomicU64,
    cold_pushes: AtomicU64,
}

impl PersonalizationCache {
    /// An empty cache with the given bounds.
    pub fn new(config: CacheConfig) -> Self {
        Self {
            config: CacheConfig {
                capacity: config.capacity.max(1),
                ..config
            },
            inner: Mutex::new(CacheInner::default()),
            hits: AtomicU64::new(0),
            warm_repushes: AtomicU64::new(0),
            cold_pushes: AtomicU64::new(0),
        }
    }

    /// The configured bounds.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// The bookkeeping; a lock poisoned by a panic mid-update is recovered
    /// by dropping every vector and kernel (each is one solve away), so
    /// the byte count restarts at zero with them.
    fn lock(&self) -> MutexGuard<'_, CacheInner> {
        self.inner.lock().unwrap_or_else(|poisoned| {
            let mut inner = poisoned.into_inner();
            inner.entries.clear();
            inner.kernels.clear();
            inner.bytes = 0;
            self.inner.clear_poison();
            inner
        })
    }

    /// Current counters and occupancy.
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            warm_repushes: self.warm_repushes.load(Ordering::Relaxed),
            cold_pushes: self.cold_pushes.load(Ordering::Relaxed),
            fallbacks: 0,
            entries: inner.entries.len(),
            bytes: inner.bytes,
        }
    }

    /// The personalized score vector of `seed` under `method` on exactly
    /// the epoch `snap` pins, plus how it was obtained.
    ///
    /// `alpha` must be the damping factor of the method (`[0, 1)`,
    /// resolved by the caller from the parsed spec). The returned vector
    /// always has `snap.n_papers()` entries and was solved on
    /// `snap.network()` — entries can never leak across epochs because a
    /// cached vector is served only when its recorded epoch matches, or
    /// after a push across the exact lineage delta connecting parent to
    /// `snap`.
    pub fn scores(
        &self,
        method: &str,
        snap: &EpochSnapshot,
        seed: &SeedPersonalization,
        alpha: f64,
    ) -> (Arc<ScoreVec>, CacheOutcome) {
        let (ranking, outcome) = self.ranking(method, snap, seed, alpha);
        (ranking.scores, outcome)
    }

    /// [`Self::scores`] with the entry's block-maxima summary — the form
    /// the engines serve seeded pages from.
    pub(crate) fn ranking(
        &self,
        method: &str,
        snap: &EpochSnapshot,
        seed: &SeedPersonalization,
        alpha: f64,
    ) -> (CachedRanking, CacheOutcome) {
        let key = CacheKey::new(method, seed);
        // Fast path under the lock: exact-epoch hit, or a warm-start
        // candidate to re-push outside the lock.
        let warm_start: Option<(Arc<ScoreVec>, f64)> = {
            let mut inner = self.lock();
            inner.tick += 1;
            let tick = inner.tick;
            match inner.entries.get_mut(&key) {
                Some(e) if e.epoch == snap.epoch() && e.ranking.scores.len() == snap.n_papers() => {
                    e.last_used = tick;
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return (e.ranking.clone(), CacheOutcome::Hit);
                }
                Some(e) => snap
                    .lineage()
                    .filter(|lin| {
                        e.epoch == lin.parent_epoch && e.raw.len() == lin.parent_net.n_papers()
                    })
                    .map(|_| (e.raw.clone(), e.dangling_mass)),
                None => None,
            }
        };

        let mut ws = KernelWorkspace::new();
        let kernel = self.kernel(method, snap, alpha, &mut ws);

        if let Some((raw, dangling_mass)) = warm_start {
            let lin = snap.lineage().expect("warm start implies lineage");
            if let Some(solved) = repersonalize(
                &lin.parent_net,
                &lin.delta,
                snap.network(),
                WarmStart {
                    raw: &raw,
                    dangling_mass,
                },
                seed,
                alpha,
                Some(kernel.as_slice()),
                &PushRankConfig::default(),
                &mut ws,
            ) {
                let ranking = CachedRanking::new(solved.scores, snap.network());
                self.insert(
                    key,
                    snap.epoch(),
                    ranking.clone(),
                    solved.raw,
                    solved.dangling_mass,
                );
                self.warm_repushes.fetch_add(1, Ordering::Relaxed);
                return (ranking, CacheOutcome::WarmRepush);
            }
        }

        let solved = personalize(
            snap.network(),
            seed,
            alpha,
            Some(kernel.as_slice()),
            &PushRankConfig::default(),
            &mut ws,
        );
        self.cold_pushes.fetch_add(1, Ordering::Relaxed);
        let ranking = CachedRanking::new(solved.scores, snap.network());
        self.insert(
            key,
            snap.epoch(),
            ranking.clone(),
            solved.raw,
            solved.dangling_mass,
        );
        (ranking, CacheOutcome::ColdPush)
    }

    /// The uniform kernel `u = (I − α·S)⁻¹·(1/n)·1` for `snap`'s network,
    /// the partition `method` labels: served from the sub-cache,
    /// warm-updated from the lineage's parent epoch when that is what the
    /// sub-cache holds, cold-built otherwise.
    fn kernel(
        &self,
        method: &str,
        snap: &EpochSnapshot,
        alpha: f64,
        ws: &mut KernelWorkspace,
    ) -> Arc<ScoreVec> {
        let key = (method.to_string(), alpha.to_bits());
        let parent: Option<Arc<ScoreVec>> = {
            let inner = self.lock();
            match inner.kernels.get(&key) {
                Some(e) if e.epoch == snap.epoch() && e.kernel.len() == snap.n_papers() => {
                    return e.kernel.clone();
                }
                Some(e) => snap
                    .lineage()
                    .filter(|lin| {
                        e.epoch == lin.parent_epoch && e.kernel.len() == lin.parent_net.n_papers()
                    })
                    .map(|_| e.kernel.clone()),
                None => None,
            }
        };
        let updated = parent.and_then(|prev| {
            let lin = snap.lineage()?;
            update_uniform_kernel(
                &lin.parent_net,
                &lin.delta,
                snap.network(),
                &prev,
                alpha,
                &PushRankConfig::default(),
                ws,
            )
            .map(|(k, _)| k)
        });
        let kernel = Arc::new(match updated {
            Some(k) => k,
            None => uniform_kernel(snap.network(), alpha, ws),
        });
        let mut inner = self.lock();
        // A racing builder may have stored a kernel meanwhile; last write
        // wins — both are correct for this epoch.
        inner.kernels.insert(
            key,
            KernelEntry {
                epoch: snap.epoch(),
                kernel: kernel.clone(),
            },
        );
        kernel
    }

    /// Stores a completed vector (with its summary and its warm-start
    /// form) and evicts least-recently-used
    /// entries past the capacity/memory bounds.
    fn insert(
        &self,
        key: CacheKey,
        epoch: u64,
        ranking: CachedRanking,
        raw: ScoreVec,
        dangling_mass: f64,
    ) {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let entry = CacheEntry {
            epoch,
            ranking,
            raw: Arc::new(raw),
            dangling_mass,
            last_used: tick,
        };
        let bytes = entry.bytes();
        if let Some(old) = inner.entries.insert(key, entry) {
            inner.bytes -= old.bytes();
        }
        inner.bytes += bytes;
        while inner.entries.len() > self.config.capacity
            || (inner.bytes > self.config.max_bytes && inner.entries.len() > 1)
        {
            let Some(victim) = inner
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            if let Some(evicted) = inner.entries.remove(&victim) {
                inner.bytes -= evicted.bytes();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{RankingEngine, RerankPolicy};
    use citegraph::{dense_personalized, GraphDelta, NetworkBuilder};

    fn base_net() -> citegraph::CitationNetwork {
        let mut b = NetworkBuilder::new();
        let ids: Vec<_> = (2000..2012).map(|y| b.add_paper(y)).collect();
        for (i, &citing) in ids.iter().enumerate().skip(1) {
            b.add_citation(citing, ids[i - 1]).unwrap();
            if i >= 3 {
                b.add_citation(citing, ids[0]).unwrap();
            }
        }
        b.build().unwrap()
    }

    fn engine() -> RankingEngine {
        RankingEngine::from_config(base_net(), "pagerank:d=0.5", RerankPolicy::EveryBatch).unwrap()
    }

    fn seed(ids: &[PaperId], n: usize) -> SeedPersonalization {
        SeedPersonalization::uniform(ids, n).unwrap()
    }

    #[test]
    fn cold_then_hit_shares_the_vector() {
        let engine = engine();
        let cache = PersonalizationCache::new(CacheConfig::default());
        let snap = engine.snapshot();
        let s = seed(&[11], snap.n_papers());
        let (a, o1) = cache.scores("pagerank:d=0.5", &snap, &s, 0.5);
        assert_eq!(o1, CacheOutcome::ColdPush);
        let (b, o2) = cache.scores("pagerank:d=0.5", &snap, &s, 0.5);
        assert_eq!(o2, CacheOutcome::Hit);
        assert!(Arc::ptr_eq(&a, &b), "a hit serves the cached Arc");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.cold_pushes), (1, 1));
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn publish_turns_entries_into_warm_starts() {
        let engine = engine();
        let cache = PersonalizationCache::new(CacheConfig::default());
        let alpha = 0.5;
        let old = engine.snapshot();
        let s = seed(&[5, 9], old.n_papers());
        let (_, o) = cache.scores(engine.method(), &old, &s, alpha);
        assert_eq!(o, CacheOutcome::ColdPush);

        let mut d = GraphDelta::new();
        let p = (old.n_papers() + d.add_paper(2012)) as PaperId;
        d.add_citation(p, 9);
        d.add_citation(p, 0);
        engine.ingest(&d).unwrap();
        let new = engine.snapshot();
        assert_eq!(new.epoch(), 1);

        let (warm, o) = cache.scores(engine.method(), &new, &s, alpha);
        assert_eq!(o, CacheOutcome::WarmRepush);
        let mut ws = KernelWorkspace::new();
        let dense = dense_personalized(new.network(), &s, alpha, &mut ws);
        for i in 0..new.n_papers() {
            assert!(
                (warm[i] - dense[i]).abs() < 1e-9,
                "paper {i}: warm {} vs dense {}",
                warm[i],
                dense[i]
            );
        }
        // The revalidated entry now hits on the new epoch.
        let (_, o) = cache.scores(engine.method(), &new, &s, alpha);
        assert_eq!(o, CacheOutcome::Hit);
    }

    #[test]
    fn pinned_old_epoch_never_sees_new_scores() {
        let engine = engine();
        let cache = PersonalizationCache::new(CacheConfig::default());
        let alpha = 0.5;
        let old = engine.snapshot();
        let s = seed(&[9], old.n_papers());
        let (before, _) = cache.scores(engine.method(), &old, &s, alpha);

        let mut d = GraphDelta::new();
        let p = (old.n_papers() + d.add_paper(2012)) as PaperId;
        d.add_citation(p, 9);
        engine.ingest(&d).unwrap();
        let new = engine.snapshot();
        let (after, _) = cache.scores(engine.method(), &new, &s, alpha);
        assert_eq!(after.len(), new.n_papers());

        // A reader still pinning the old epoch gets a vector of the old
        // epoch's length and values, not the re-pushed one.
        let (pinned, _) = cache.scores(engine.method(), &old, &s, alpha);
        assert_eq!(pinned.len(), old.n_papers());
        for i in 0..old.n_papers() {
            assert_eq!(pinned[i], before[i]);
        }
    }

    #[test]
    fn lru_eviction_respects_capacity_and_bytes() {
        let engine = engine();
        let cache = PersonalizationCache::new(CacheConfig {
            capacity: 2,
            ..CacheConfig::default()
        });
        let snap = engine.snapshot();
        let n = snap.n_papers();
        let (s1, s2, s3) = (seed(&[1], n), seed(&[2], n), seed(&[3], n));
        cache.scores("m", &snap, &s1, 0.5);
        cache.scores("m", &snap, &s2, 0.5);
        // Touch s1 so s2 is the LRU victim.
        assert_eq!(cache.scores("m", &snap, &s1, 0.5).1, CacheOutcome::Hit);
        cache.scores("m", &snap, &s3, 0.5);
        assert_eq!(cache.stats().entries, 2);
        assert_eq!(cache.scores("m", &snap, &s1, 0.5).1, CacheOutcome::Hit);
        assert_eq!(
            cache.scores("m", &snap, &s2, 0.5).1,
            CacheOutcome::ColdPush,
            "s2 was evicted"
        );

        // Byte bound: one 12-paper entry is 192 bytes of vectors (resolved
        // plus warm-start form), one 8 KiB step of block maxima over ids,
        // three words of list offsets (two for the id space, one for the
        // venue summary of a corpus without venues), one 8 KiB step of
        // head cells for the 12 year cuts (the venue summary has no list,
        // so no cell), and each cut's head — the whole suffix, built or
        // not; a bound one byte short of two entries holds exactly one.
        let cell = std::mem::size_of::<std::sync::OnceLock<Box<[u32]>>>();
        let entry = 192 + 8192 + 3 * 8 + 8192 / cell * cell + (1..=12).sum::<usize>() * 4;
        let tight = PersonalizationCache::new(CacheConfig {
            capacity: 10,
            max_bytes: 2 * entry - 1,
        });
        tight.scores("m", &snap, &s1, 0.5);
        tight.scores("m", &snap, &s2, 0.5);
        let stats = tight.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.bytes, entry);
    }

    #[test]
    fn method_label_partitions_the_key_space() {
        let engine = engine();
        let cache = PersonalizationCache::new(CacheConfig::default());
        let snap = engine.snapshot();
        let s = seed(&[4], snap.n_papers());
        cache.scores("pagerank:d=0.5", &snap, &s, 0.5);
        // Same seed set under a different method label must not hit.
        let (_, o) = cache.scores("citerank:alpha=0.31,tau=1.6", &snap, &s, 0.31);
        assert_eq!(o, CacheOutcome::ColdPush);
    }
}
