//! [`PersonalizationCache`] — epoch-keyed LRU of completed personalized
//! solves, each kept in cone form.
//!
//! Personalized ranking is a per-request solve ([`citegraph::personalize()`]),
//! and the read pattern that motivates it (a user's "related papers" panel,
//! refreshed on every page view) re-asks the same seed set against the
//! same epoch many times. The cache turns that workload into three tiers:
//!
//! * **hit** — the entry was solved on exactly the requested epoch: serve
//!   it with zero solve work — and, to the engines, with the block maxima
//!   built when the entry was inserted, so a seeded page is block-pruned
//!   (or sliced from a head) like an unseeded one;
//! * **carry** — the entry is of the epoch's *parent* (recorded in the
//!   snapshot's lineage), and the published delta rewired no column of its
//!   cone: no delta citation comes from an old paper holding `y`, which is
//!   always so when a publish only appends papers. Such a publish changes
//!   neither `y` nor `g` (appended papers hold no `y`, the seed teleport
//!   never renormalizes, and the `1/n` dangling redistribution lives in the
//!   kernel), so the entry becomes the same `y` and `g` over the new
//!   epoch's kernel, grown by empty blocks ([`sparsela::Cone::over`]), its
//!   summaries rebuilt by reading the cone: no push and no dense vector.
//!   It is the re-push [`citegraph::repersonalize`] makes with nothing to
//!   push, `y` bit for bit (the re-push rounds `g` through `dᵀy = g/α`;
//!   the carry keeps it). An epoch publish *invalidates lazily*: stale
//!   entries are carried, not discarded;
//! * **cold** — no usable entry, or one whose cone the delta rewired: one
//!   push pass from zero over the seeds' reference cone
//!   ([`citegraph::personalize()`]: no work budget, no fallback — on a
//!   citation DAG each cone paper is pushed once), then cache.
//!
//! **Cone form.** Every solve is `x = y + g·u`: `y`, the seeds' push, is
//! zero outside their reference cone (a three-seed set's cone is about a
//! fifth of a 200k corpus), and `u` is the partition's **uniform kernel**,
//! which the snapshot owns ([`EpochSnapshot::kernel`]). An entry
//! therefore stores `y` block-sparse ([`sparsela::Cone`]: a mask and an
//! offset per 64-id block, and the values whose bits are not zero), the
//! scalar `g`, an `Arc` of its epoch's kernel and its block summaries — no
//! dense vector. Every read of a score computes `y_i + g·u_i`, the
//! expression the solve's own resolution evaluates, so pages, block maxima
//! and heads are bit-identical to a dense copy's. A cold solve builds its
//! summaries from the dense `x` it wrote before dropping it; a carry
//! builds them from the cone.
//!
//! The snapshot owns its kernel: each partition's epoch holds the one
//! kernel of its own graph at its method's damping factor — the one its
//! publish solved, or one cold push pass on the first seeded read — so
//! one shard's kernel never resolves another's vectors, the cache keeps
//! no kernel of its own, and a seeded miss does no kernel work beyond
//! that first read. The key holds `α`, so a solve is never served, or
//! carried, at another damping factor. An entry keeps its own epoch's
//! kernel alive until it is carried or evicted.
//!
//! Concurrency follows the engine's snapshot discipline: completed
//! solves are immutable behind `Arc`s (their heads and the dense copy
//! [`PersonalizationCache::scores`] hands out are built once, on first
//! use), the interior mutex guards only map bookkeeping (never a solve),
//! and every entry is tagged with the epoch it was solved on — a reader
//! holding a pinned [`EpochSnapshot`] can never be served scores from a
//! different epoch.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use citegraph::{
    personalize, CitationNetwork, GraphDelta, PaperId, PersonalizedScores, PushRankConfig,
    SeedPersonalization,
};
use sparsela::{Cone, KernelWorkspace, ScoreVec};

use crate::engine::{BlockSummaries, EpochSnapshot, Ranking};

/// Capacity and memory bounds for a [`PersonalizationCache`]. Every cold
/// solve runs under [`PushRankConfig::default`]'s `epsilon`; a carry
/// solves nothing.
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// Maximum number of cached personalization vectors (LRU-evicted).
    pub capacity: usize,
    /// Memory bound over the cached entries, in bytes. Each entry counts
    /// its sparse part (a `u64` mask and a `u32` offset per 64 ids, eight
    /// bytes per stored value), its block-maxima summaries (1/64 of the
    /// scores over ids, 1/32 over venue postings, in 8 KiB steps), its
    /// head cells once a page has laid them out (in 8 KiB steps), each
    /// head once it is built, and the dense copy once
    /// [`PersonalizationCache::scores`] has built it. Pages build heads
    /// after an entry is inserted, so every entry's count is re-read
    /// whenever the cache is sized — at each insert, before evicting, and
    /// on each [`PersonalizationCache::stats`] — not on a hit, which stays
    /// one probe and one `Arc` clone. The uniform kernels entries share
    /// are not counted: the snapshot owns its kernel.
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
    /// Entry of exactly this epoch, served as it is.
    Hit,
    /// Entry from the parent epoch, whose cone the published delta did not
    /// rewire, carried onto this epoch's kernel: the same `y` and `g`, its
    /// summaries rebuilt from the cone, zero solve work. (The name is the
    /// re-push it replaces, which would push nothing.)
    WarmRepush,
    /// No usable entry, or one whose cone the delta rewired; one push pass
    /// from a zero start.
    ColdPush,
}

/// Cache observability counters (monotonic since construction) plus the
/// current occupancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests served by an entry of exactly their epoch.
    pub hits: u64,
    /// Requests served by carrying a parent-epoch entry onto the epoch's
    /// kernel ([`CacheOutcome::WarmRepush`]).
    pub warm_repushes: u64,
    /// Requests served by a cold push solve.
    pub cold_pushes: u64,
    /// Requests a cold solve could not serve by push. Always 0: a cold
    /// solve is one unbudgeted pass and has no fallback. Kept for readers
    /// that sum every outcome.
    pub fallbacks: u64,
    /// Vectors currently cached.
    pub entries: usize,
    /// Bytes currently held by cached entries, each re-read for this
    /// call (see [`CacheConfig::max_bytes`]).
    pub bytes: usize,
}

/// Canonical cache key: method label, damping factor and canonicalized
/// seed distribution. (The epoch is *not* in the key — it tags the entry,
/// so a stale entry stays findable for its successor epoch to carry.)
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    method: String,
    /// `α` as its IEEE bit pattern: a solve at one damping factor never
    /// serves, or is carried onto the kernel of, another.
    alpha_bits: u64,
    seeds: Vec<PaperId>,
    /// Normalized weights as IEEE bit patterns (canonical per
    /// [`SeedPersonalization`], so equal distributions hash equally).
    weight_bits: Vec<u64>,
}

impl CacheKey {
    fn new(method: &str, seed: &SeedPersonalization, alpha: f64) -> Self {
        Self {
            method: method.to_string(),
            alpha_bits: alpha.to_bits(),
            seeds: seed.seeds().to_vec(),
            weight_bits: seed.weights().iter().map(|w| w.to_bits()).collect(),
        }
    }
}

/// One completed solve in cone form (see the module docs).
#[derive(Debug)]
struct Solved {
    /// `x = y + g·u` over the epoch's kernel.
    cone: Cone,
    /// Block summaries of `x` over ids and over the epoch's venue
    /// postings, with room for a head per year cut of each list.
    blocks: BlockSummaries,
    /// The dense `x`, built by the first [`PersonalizationCache::scores`]
    /// call; no serve path reads it.
    dense: OnceLock<Arc<ScoreVec>>,
}

/// A cached personalized solve with the block summaries built when it was
/// solved: what [`PersonalizationCache::ranking`] hands the query layer,
/// so a shallow seeded page — a `year=Y..` or venue one included — is a
/// slice of heads like an unseeded one, and every other seeded page
/// prunes like an unseeded one. Cloning shares it.
#[derive(Debug, Clone)]
pub struct CachedRanking(Arc<Solved>);

impl CachedRanking {
    /// The solve in cone form: `y`, `g` and the kernel it reads.
    pub fn cone(&self) -> &Cone {
        &self.0.cone
    }

    /// `solved`, solved on `net` against `kernel`, in cone form with the
    /// summaries of its dense `x`; its dense vectors are dropped here.
    fn new(solved: PersonalizedScores, kernel: Arc<ScoreVec>, net: &CitationNetwork) -> Self {
        Self(Arc::new(Solved {
            blocks: BlockSummaries::new(solved.scores.as_slice(), net),
            cone: Cone::new(solved.raw.as_slice(), solved.g, kernel),
            dense: OnceLock::new(),
        }))
    }

    /// Whether `delta` rewires a column of this ranking's cone: one of its
    /// citations comes from an old paper holding `y`.
    fn rewired_by(&self, delta: &GraphDelta) -> bool {
        let n = self.len();
        delta
            .citations
            .iter()
            .any(|&(citing, _)| (citing as usize) < n && self.0.cone.y(citing as usize) != 0.0)
    }

    /// This ranking carried onto `net`, which grew from its own network by
    /// a delta that rewired none of its cone: the same `y` and `g` over
    /// `net`'s `kernel`, summarized by reading the cone.
    fn carry(&self, kernel: Arc<ScoreVec>, net: &CitationNetwork) -> Self {
        let cone = self.0.cone.over(kernel);
        Self(Arc::new(Solved {
            blocks: BlockSummaries::new(&cone, net),
            cone,
            dense: OnceLock::new(),
        }))
    }

    /// The borrowed form the selection block reads.
    pub(crate) fn view(&self) -> Ranking<'_, Cone> {
        Ranking {
            scores: &self.0.cone,
            blocks: &self.0.blocks,
        }
    }

    /// Papers ranked.
    fn len(&self) -> usize {
        sparsela::Scores::len(&self.0.cone)
    }

    /// The dense scores, built on the first call.
    fn dense(&self) -> Arc<ScoreVec> {
        let dense = self
            .0
            .dense
            .get_or_init(|| Arc::new(self.0.cone.to_dense()));
        Arc::clone(dense)
    }

    /// Heap bytes held now (the kernel is shared, and not counted).
    fn bytes(&self) -> usize {
        let dense = self.0.dense.get().map_or(0, |d| d.len());
        self.0.cone.bytes() + self.0.blocks.bytes() + dense * std::mem::size_of::<f64>()
    }
}

struct CacheEntry {
    /// Epoch the vector was solved on (must match the serving snapshot,
    /// directly or through one lineage hop).
    epoch: u64,
    /// Papers it ranks: a probe checks it without reading the solve.
    papers: usize,
    ranking: CachedRanking,
    /// What [`CachedRanking::bytes`] read when the cache was last sized.
    bytes: usize,
    last_used: u64,
}

#[derive(Default)]
pub(crate) struct CacheInner {
    entries: HashMap<CacheKey, CacheEntry>,
    tick: u64,
    bytes: usize,
}

impl CacheInner {
    /// Re-reads every entry's bytes (pages may have built heads since
    /// the last count) into the total.
    fn recount(&mut self) {
        self.bytes = 0;
        for e in self.entries.values_mut() {
            e.bytes = e.ranking.bytes();
            self.bytes += e.bytes;
        }
    }

    /// Evicts least-recently-used entries past the bounds; the last entry
    /// stays whatever its size.
    fn evict(&mut self, config: &CacheConfig) {
        while self.entries.len() > config.capacity
            || (self.bytes > config.max_bytes && self.entries.len() > 1)
        {
            let Some(victim) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            if let Some(evicted) = self.entries.remove(&victim) {
                self.bytes -= evicted.bytes;
            }
        }
    }
}

/// Epoch-keyed LRU cache of completed personalized solves. See the
/// module docs for the serving tiers, the cone form and the concurrency
/// discipline.
pub struct PersonalizationCache {
    config: CacheConfig,
    pub(crate) inner: Mutex<CacheInner>,
    /// Requests served, per [`CacheOutcome`], in its order.
    served: [AtomicU64; 3],
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
            served: Default::default(),
        }
    }

    /// The configured bounds.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// The bookkeeping; a lock poisoned by a panic mid-update is recovered
    /// by dropping every vector (each is one solve away), so the byte
    /// count restarts at zero with them.
    fn lock(&self) -> MutexGuard<'_, CacheInner> {
        self.inner.lock().unwrap_or_else(|poisoned| {
            let mut inner = poisoned.into_inner();
            inner.entries.clear();
            inner.bytes = 0;
            self.inner.clear_poison();
            inner
        })
    }

    /// Current counters and occupancy.
    pub fn stats(&self) -> CacheStats {
        let mut inner = self.lock();
        inner.recount();
        CacheStats {
            hits: self.served[CacheOutcome::Hit as usize].load(Ordering::Relaxed),
            warm_repushes: self.served[CacheOutcome::WarmRepush as usize].load(Ordering::Relaxed),
            cold_pushes: self.served[CacheOutcome::ColdPush as usize].load(Ordering::Relaxed),
            fallbacks: 0,
            entries: inner.entries.len(),
            bytes: inner.bytes,
        }
    }

    /// The personalized score vector of `seed` under `method` on exactly
    /// the epoch `snap` pins, plus how it was obtained.
    ///
    /// `alpha` must be the damping factor of the method (`[0, 1)`,
    /// resolved by the caller from the parsed spec): the solve resolves
    /// against [`EpochSnapshot::kernel`], the epoch's own kernel at that
    /// `α` and a cold one, not kept, at any other. The returned vector
    /// always has `snap.n_papers()` entries and ranks `snap.network()` —
    /// entries can never leak across epochs because a cached vector is
    /// served only when its recorded epoch matches, or carried across the
    /// exact lineage delta connecting parent to `snap` when that delta
    /// rewired none of its cone.
    ///
    /// An entry is kept in cone form; the dense vector is built by the
    /// first call that asks for it, kept with the entry and counted in
    /// its bytes from then on. No serve path calls this.
    pub fn scores(
        &self,
        method: &str,
        snap: &EpochSnapshot,
        seed: &SeedPersonalization,
        alpha: f64,
    ) -> (Arc<ScoreVec>, CacheOutcome) {
        let (ranking, outcome) = self.ranking(method, snap, seed, alpha);
        let dense = ranking.dense();
        let mut inner = self.lock();
        inner.recount();
        inner.evict(&self.config);
        (dense, outcome)
    }

    /// The solve of [`Self::scores`] in cone form with its block-maxima
    /// summaries — the form the engines serve seeded pages from.
    pub fn ranking(
        &self,
        method: &str,
        snap: &EpochSnapshot,
        seed: &SeedPersonalization,
        alpha: f64,
    ) -> (CachedRanking, CacheOutcome) {
        let key = CacheKey::new(method, seed, alpha);
        // Fast path under the lock: exact-epoch hit, or a parent-epoch
        // entry to carry outside the lock. A hit reads no byte of the
        // solve; its bytes are re-read when the cache is next sized.
        let parent = {
            let mut inner = self.lock();
            inner.tick += 1;
            let tick = inner.tick;
            match inner.entries.get_mut(&key) {
                Some(e) if e.epoch == snap.epoch() && e.papers == snap.n_papers() => {
                    e.last_used = tick;
                    self.served[CacheOutcome::Hit as usize].fetch_add(1, Ordering::Relaxed);
                    return (e.ranking.clone(), CacheOutcome::Hit);
                }
                Some(e) => snap
                    .lineage()
                    .filter(|lin| {
                        e.epoch == lin.parent_epoch && e.papers == lin.parent_net.n_papers()
                    })
                    .map(|lin| (e.ranking.clone(), &lin.delta)),
                None => None,
            }
        };

        let kernel = snap.kernel(alpha);
        let (ranking, outcome) = match parent {
            Some((parent, delta)) if !parent.rewired_by(delta) => (
                parent.carry(kernel, snap.network()),
                CacheOutcome::WarmRepush,
            ),
            _ => {
                let solved = personalize(
                    snap.network(),
                    seed,
                    alpha,
                    Some(kernel.as_slice()),
                    &PushRankConfig::default(),
                    &mut KernelWorkspace::new(),
                );
                let ranking = CachedRanking::new(solved, kernel, snap.network());
                (ranking, CacheOutcome::ColdPush)
            }
        };
        self.served[outcome as usize].fetch_add(1, Ordering::Relaxed);
        self.insert(key, snap.epoch(), ranking.clone());
        (ranking, outcome)
    }

    /// Stores a completed solve and evicts least-recently-used entries
    /// past the capacity/memory bounds.
    fn insert(&self, key: CacheKey, epoch: u64, ranking: CachedRanking) {
        let mut inner = self.lock();
        inner.tick += 1;
        let entry = CacheEntry {
            epoch,
            papers: ranking.len(),
            bytes: 0,
            ranking,
            last_used: inner.tick,
        };
        inner.entries.insert(key, entry);
        inner.recount();
        inner.evict(&self.config);
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
        assert_eq!(
            o,
            CacheOutcome::WarmRepush,
            "a tail publish carries the entry"
        );
        let (carried, o) = cache.ranking(engine.method(), &new, &s, alpha);
        assert_eq!(o, CacheOutcome::Hit);
        assert!(
            Arc::ptr_eq(carried.view().scores.kernel(), &new.kernel(alpha)),
            "the carried entry reads the new snapshot's kernel"
        );
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
        // epoch's length and values, not the carried one.
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

        // Byte bound: a 12-paper entry is its cone — one block's mask and
        // offset, and the `y` of each paper in the seed's reference cone
        // (seed 1 cites 0: two; seed 2 cites 1: three) — one 8 KiB step
        // of block maxima over ids, three words of list offsets (two for
        // the id space, one for the venue summary of a corpus without
        // venues) and, once `scores` has built it, the dense vector. No
        // page has read a head, so no head cell or head is counted. A
        // bound one byte short of two entries holds exactly one.
        let entry = |cone: usize| 16 + cone * 8 + 8192 + 3 * 8 + 12 * 8;
        let tight = PersonalizationCache::new(CacheConfig {
            capacity: 10,
            max_bytes: entry(2) + entry(3) - 1,
        });
        tight.scores("m", &snap, &s1, 0.5);
        assert_eq!(tight.stats().bytes, entry(2));
        tight.scores("m", &snap, &s2, 0.5);
        let stats = tight.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.bytes, entry(3));
    }

    #[test]
    fn heads_built_since_an_insert_count_when_the_cache_is_sized() {
        let engine = engine();
        let snap = engine.snapshot();
        let n = snap.n_papers();
        let (s1, s2) = (seed(&[11], n), seed(&[10], n));
        let cache = PersonalizationCache::new(CacheConfig::default());
        let (ranking, _) = cache.ranking("m", &snap, &s1, 0.5);
        let solved = cache.stats().bytes;
        assert_eq!(solved, ranking.bytes(), "no head, no dense copy yet");
        assert_eq!(ranking.view().blocks.ids.heads_built(), 0);

        // A page reads the whole vector's head: the cells are laid out
        // (the cells that fit one 8 KiB step) and one head of all 12 ids
        // is built; the next count sees them.
        let cell = std::mem::size_of::<std::sync::OnceLock<Box<[u32]>>>();
        let heads = 8192 / cell * cell + 12 * 4;
        let view = ranking.view();
        assert_eq!(view.blocks.ids.head(view.scores, 0).len(), 12);
        assert_eq!(view.blocks.ids.heads_built(), 1);
        assert_eq!(cache.stats().bytes, solved + heads);

        // The dense copy `scores` hands out is counted as soon as it is
        // built, and matches the cone bit for bit.
        let (dense, _) = cache.scores("m", &snap, &s1, 0.5);
        assert_eq!(cache.stats().bytes, solved + heads + 12 * 8);
        let cone = ranking.view().scores;
        for (i, x) in dense.iter().enumerate() {
            assert_eq!(x.to_bits(), sparsela::Scores::at(cone, i).to_bits());
        }

        // An insert re-reads every entry before it evicts: a bound that
        // holds two headless entries holds one once the first has a head.
        let tight = PersonalizationCache::new(CacheConfig {
            capacity: 10,
            max_bytes: 2 * solved + heads / 2,
        });
        let (first, _) = tight.ranking("m", &snap, &s1, 0.5);
        let view = first.view();
        view.blocks.ids.head(view.scores, 0);
        tight.ranking("m", &snap, &s2, 0.5);
        assert_eq!(tight.stats().entries, 1, "the headed entry was evicted");
        assert_eq!(tight.ranking("m", &snap, &s2, 0.5).1, CacheOutcome::Hit);
    }

    #[test]
    fn a_three_seed_entry_at_200k_papers_is_a_fraction_of_its_dense_layout() {
        // The corpus the end-to-end benchmark serves, and three seeds drawn
        // from its newer half as its seeded requests draw them. A `cc`
        // epoch is enough: the cache reads only the snapshot's network.
        let net = citegen::generate(&citegen::DatasetProfile::dblp().scaled(200_000), 7);
        let n = net.n_papers();
        let engine = RankingEngine::from_config(net, "cc", RerankPolicy::Manual).unwrap();
        let snap = engine.snapshot();
        let cache = PersonalizationCache::new(CacheConfig::default());
        let s = seed(
            &[
                (n - 500) as PaperId,
                (n - 30_000) as PaperId,
                (n / 2) as PaperId,
            ],
            n,
        );
        let (ranking, _) = cache.ranking("pagerank", &snap, &s, 0.5);
        // A page reads the whole vector's head, as a seeded `k=10` does.
        let view = ranking.view();
        assert_eq!(
            view.blocks.ids.head(view.scores, 0).len(),
            sparsela::HEAD_LEN
        );
        cache.ranking("pagerank", &snap, &s, 0.5);
        let entry = cache.stats().bytes;
        assert_eq!(entry, ranking.bytes());

        // The dense layout kept `x` and `y` over every paper beside the
        // same summaries (and counted every head cell and head besides,
        // built or not; those are left out here, so the bound is tighter).
        let summaries = BlockSummaries::new(&vec![0.0; n], snap.network()).bytes();
        let dense = 2 * n * std::mem::size_of::<f64>() + summaries;
        let cone = ranking.view().scores;
        assert!(
            cone.stored() > n / 20,
            "a three-seed cone is a sizeable share of the corpus: {} of {n}",
            cone.stored()
        );
        assert!(
            entry * 4 <= dense,
            "{entry} bytes in cone form against {dense} dense ({} stored)",
            cone.stored()
        );
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

    #[test]
    fn damping_factor_partitions_the_key_space() {
        let engine = engine();
        let cache = PersonalizationCache::new(CacheConfig::default());
        let snap = engine.snapshot();
        let s = seed(&[9], snap.n_papers());
        cache.scores("m", &snap, &s, 0.5);
        // The same label and seeds at another α is another solve.
        let (x, o) = cache.scores("m", &snap, &s, 0.3);
        assert_eq!(o, CacheOutcome::ColdPush);
        let dense = dense_personalized(snap.network(), &s, 0.3, &mut KernelWorkspace::new());
        for i in 0..snap.n_papers() {
            assert!((x[i] - dense[i]).abs() < 1e-9, "paper {i}");
        }
        assert_eq!(cache.scores("m", &snap, &s, 0.5).1, CacheOutcome::Hit);
        assert_eq!(cache.stats().entries, 2);
    }
}
