//! Personalized serving under concurrent publishes: readers pin an epoch
//! snapshot and serve `seed=` queries from it while the writer folds in
//! 60 tail deltas. Every page must be consistent with the *pinned*
//! snapshot — scores match the dense reference on that snapshot's graph,
//! no paper from a newer epoch leaks into an older page, and the
//! personalization cache never mixes vectors across epochs.
//!
//! The snapshot owns its kernel: the uniform kernel every seeded solve
//! resolves against belongs to one partition's graph at one epoch. Two
//! more tests serve seeded pages from two shards of equal length, and
//! after a rewiring publish that keeps the length, and pin them to the
//! dense reference too. The last three pin the cold kernel — built on
//! the first seeded read of an epoch whose publish solved none (CiteRank,
//! flat and over 2 shards), or at a damping other than the snapshot's.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use citegen::{generate, publish_delta, DatasetProfile};
use citegraph::{
    dense_personalized, CitationNetwork, GraphDelta, NetworkBuilder, PaperId, SeedPersonalization,
    ShardSpec,
};
use rankengine::{
    CacheConfig, EpochSnapshot, Hit, PersonalizationCache, Query, QueryEngine, RankingEngine,
    RerankPolicy, ShardedEngine,
};
use sparsela::KernelWorkspace;

const ALPHA: f64 = 0.5;
const PUBLISHES: usize = 60;

#[test]
fn seeded_reads_pin_their_epoch_under_concurrent_publishes() {
    let net = generate(&DatasetProfile::dblp().scaled(800), 31);
    let base_papers = net.n_papers();
    // Seeds well inside the base corpus: valid at every epoch, so the
    // same query exercises old and new snapshots alike.
    let seeds: Vec<PaperId> = vec![
        7,
        (base_papers / 2) as PaperId,
        (base_papers - 3) as PaperId,
    ];
    let seed_key = seeds
        .iter()
        .map(|s| s.to_string())
        .collect::<Vec<_>>()
        .join("|");

    let engine = Arc::new(
        QueryEngine::from_configs(net.clone(), &["pagerank:d=0.5"], RerankPolicy::EveryBatch)
            .unwrap(),
    );
    let done = AtomicBool::new(false);

    std::thread::scope(|scope| {
        for _ in 0..4 {
            let engine = Arc::clone(&engine);
            let seeds = seeds.clone();
            let seed_key = seed_key.clone();
            let done = &done;
            scope.spawn(move || {
                let q: Query = format!("k=8,seed={seed_key}").parse().unwrap();
                let mut ws = KernelWorkspace::new();
                let mut last_epoch = 0u64;
                let mut reads = 0usize;
                while !done.load(Ordering::Acquire) || reads < 20 {
                    // Pin one snapshot; the writer may publish while we
                    // serve from it.
                    let snap = engine.snapshot(None).unwrap();
                    assert!(snap.epoch() >= last_epoch, "epoch went backwards");
                    last_epoch = snap.epoch();

                    let page = engine.query_at(&snap, &q).unwrap();

                    // The page is the pinned epoch's, not a newer one.
                    assert_eq!(page.epoch, snap.epoch(), "page served off-epoch");
                    assert_eq!(
                        page.matched,
                        snap.n_papers(),
                        "unfiltered seeded query must see exactly the pinned corpus"
                    );
                    assert!(
                        page.items.iter().all(|h| (h.id as usize) < snap.n_papers()),
                        "paper from a newer epoch leaked into a pinned page"
                    );

                    // Scores are the pinned graph's personalization: the
                    // dense reference on snap's own network, within 1e-9.
                    let seed = SeedPersonalization::uniform(&seeds, snap.n_papers()).unwrap();
                    let want = dense_personalized(snap.network(), &seed, ALPHA, &mut ws);
                    for h in &page.items {
                        let d = (h.score - want[h.id as usize]).abs();
                        assert!(
                            d < 1e-9,
                            "epoch {}: paper {} served {} vs dense {}",
                            snap.epoch(),
                            h.id,
                            h.score,
                            want[h.id as usize]
                        );
                    }
                    for w in page.items.windows(2) {
                        assert!(w[0].score >= w[1].score, "page not score-ordered");
                    }
                    reads += 1;
                }
            });
        }

        // Writer: 60 tail publishes, each a few new papers citing into
        // the existing corpus — stale cache entries are carried.
        let mut current = net.clone();
        for i in 0..PUBLISHES {
            let delta = publish_delta(&current, 9, 3, 1000 + i as u64);
            current = current.with_delta(&delta).unwrap();
            engine.ingest(&delta).unwrap();
        }
        done.store(true, Ordering::Release);
    });

    let snap = engine.snapshot(None).unwrap();
    assert_eq!(snap.epoch(), PUBLISHES as u64);
    assert!(snap.n_papers() > base_papers);

    // The cache did real work across epochs: hits plus warm/cold solves,
    // and never more entries than distinct epochs touched.
    let stats = engine.personalization_stats();
    assert!(stats.hits + stats.warm_repushes + stats.cold_pushes > 0);
    assert!(stats.cold_pushes >= 1, "first epoch must cold-push");
}

/// The largest gap between served scores and the dense personalized
/// reference of `seeds` (local ids) on `snap`, whose ids start at `start`.
fn max_error(snap: &EpochSnapshot, seeds: &[PaperId], start: PaperId, items: &[Hit]) -> f64 {
    max_error_at(ALPHA, snap, seeds, start, items)
}

/// [`max_error`] at damping `alpha`.
fn max_error_at(
    alpha: f64,
    snap: &EpochSnapshot,
    seeds: &[PaperId],
    start: PaperId,
    items: &[Hit],
) -> f64 {
    let seed = SeedPersonalization::uniform(seeds, snap.n_papers()).unwrap();
    let want = dense_personalized(snap.network(), &seed, alpha, &mut KernelWorkspace::new());
    items
        .iter()
        .map(|h| (h.score - want[(h.id - start) as usize]).abs())
        .fold(0.0, f64::max)
}

#[test]
fn each_shard_resolves_against_its_own_kernel() {
    // Two bands of six papers whose graphs differ: a chain, then a star
    // into paper 6. Both sit at epoch 0 with the same length, so only the
    // partition label tells their kernels apart.
    let mut b = NetworkBuilder::new();
    for i in 0..12 {
        b.add_paper(2000 + i);
    }
    for i in 1..6 {
        b.add_citation(i, i - 1).unwrap();
    }
    for i in 7..12 {
        b.add_citation(i, 6).unwrap();
    }
    let net = b.build().unwrap();
    let plan = ShardSpec::Fixed(2).plan(&net).unwrap();
    let eng =
        ShardedEngine::from_plan(&net, &plan, "pagerank:d=0.5", RerankPolicy::EveryBatch).unwrap();
    let snaps = eng.snapshots();
    for seed in [3, 10] {
        let q: Query = format!("k=12,seed={seed}").parse().unwrap();
        let page = eng.query_at(&snaps, &q, None).unwrap();
        assert_eq!(page.items.len(), 6, "seed {seed}: its band only");
        let (s, local) = snaps.locate(seed);
        let err = max_error(snaps.snapshot(s), &[local], snaps.start(s), &page.items);
        assert!(
            err < 1e-9,
            "seed {seed} (band {s}) served {err:e} off dense"
        );
    }
}

/// A publish of `count` new citations among `net`'s existing papers, each
/// from a paper to an older one it does not cite yet.
fn citations_only(net: &CitationNetwork, count: usize) -> GraphDelta {
    let mut delta = GraphDelta::new();
    let n = net.n_papers() as PaperId;
    for citing in (n / 2..n).rev().step_by(7) {
        let cited = (0..citing)
            .rev()
            .step_by(13)
            .find(|&c| net.year(c) <= net.year(citing) && !net.references(citing).contains(&c));
        if let Some(cited) = cited {
            delta.add_citation(citing, cited);
            if delta.n_citations() == count {
                break;
            }
        }
    }
    assert_eq!(delta.n_citations(), count);
    delta
}

#[test]
fn each_epoch_resolves_against_its_own_kernel() {
    let net = generate(&DatasetProfile::dblp().scaled(400), 31);
    let n = net.n_papers();
    let engine =
        QueryEngine::from_configs(net.clone(), &["pagerank:d=0.5"], RerankPolicy::EveryBatch)
            .unwrap();
    let q: Query = format!("k={n},seed=7|{}", n - 3).parse().unwrap();
    engine.query(&q).unwrap();

    // Epoch 1 rewires old columns and keeps the length; epoch 2 appends a
    // paper. Epoch 0's kernel has epoch 1's length but not its graph.
    let rewire = citations_only(&net, 20);
    let epoch1 = net.with_delta(&rewire).unwrap();
    engine.ingest(&rewire).unwrap();
    let mut tail = GraphDelta::new();
    let p = (n + tail.add_paper(epoch1.current_year().unwrap())) as PaperId;
    tail.add_citation(p, (n - 1) as PaperId);
    engine.ingest(&tail).unwrap();

    let snap = engine.snapshot(None).unwrap();
    assert_eq!(snap.epoch(), 2);
    let seeds = [11, (n / 2) as PaperId];
    let q: Query = format!("k={},seed=11|{}", n + 1, n / 2).parse().unwrap();
    let page = engine.query_at(&snap, &q).unwrap();
    assert_eq!(page.items.len(), n + 1);
    let err = max_error(&snap, &seeds, 0, &page.items);
    assert!(
        err < 1e-9,
        "a new seed set at epoch 2 served {err:e} off dense"
    );
}

const CITERANK: &str = "citerank:alpha=0.31,tau=1.6";
const CITERANK_ALPHA: f64 = 0.31;

/// `net` after two tail publishes.
fn two_publishes(net: &CitationNetwork) -> [GraphDelta; 2] {
    let first = publish_delta(net, 9, 3, 71);
    let second = publish_delta(&net.with_delta(&first).unwrap(), 9, 3, 72);
    [first, second]
}

#[test]
fn a_citerank_seeded_page_builds_its_kernel_cold() {
    let net = generate(&DatasetProfile::dblp().scaled(400), 37);
    let n = net.n_papers();
    let engine =
        QueryEngine::from_configs(net.clone(), &[CITERANK], RerankPolicy::EveryBatch).unwrap();
    let seeds = [7, (n / 2) as PaperId, (n - 3) as PaperId];
    let q: Query = format!("k={},seed=7|{}|{}", n + 18, n / 2, n - 3)
        .parse()
        .unwrap();
    // Served at every epoch: each page after a publish is a carry onto
    // that epoch's cold kernel.
    for delta in two_publishes(&net) {
        engine.query(&q).unwrap();
        engine.ingest(&delta).unwrap();
    }
    let snap = engine.snapshot(None).unwrap();
    assert_eq!(snap.epoch(), 2);
    let page = engine.query_at(&snap, &q).unwrap();
    assert_eq!(page.items.len(), snap.n_papers());
    let err = max_error_at(CITERANK_ALPHA, &snap, &seeds, 0, &page.items);
    assert!(err < 1e-9, "citerank seeded page served {err:e} off dense");
    // The cold kernel is the epoch's from then on.
    assert!(Arc::ptr_eq(
        &snap.kernel(CITERANK_ALPHA),
        &snap.kernel(CITERANK_ALPHA)
    ));
}

#[test]
fn a_sharded_citerank_seeded_page_builds_its_kernel_cold() {
    let net = generate(&DatasetProfile::dblp().scaled(400), 37);
    let plan = ShardSpec::Fixed(2).plan(&net).unwrap();
    let eng = ShardedEngine::from_plan(&net, &plan, CITERANK, RerankPolicy::EveryBatch).unwrap();
    // One seed in each band, served at every epoch.
    let n = net.n_papers();
    let seeds = [7, (n - 3) as PaperId];
    let q: Query = format!("k={},seed=7|{}", n + 18, n - 3).parse().unwrap();
    for delta in two_publishes(&net) {
        eng.query(&q, None).unwrap();
        eng.ingest(&delta).unwrap();
    }
    let snaps = eng.snapshots();
    let page = eng.query_at(&snaps, &q, None).unwrap();
    assert_eq!(page.items.len(), snaps.n_papers());
    for s in 0..snaps.n_shards() {
        let snap = snaps.snapshot(s);
        let start = snaps.start(s);
        let end = start + snap.n_papers() as PaperId;
        let local: Vec<PaperId> = seeds
            .iter()
            .filter(|&&g| (start..end).contains(&g))
            .map(|&g| g - start)
            .collect();
        assert_eq!(local.len(), 1, "band {s} holds one seed");
        // Each band's share of the seed mass (one seed of two) scales its
        // scores.
        let items: Vec<Hit> = page
            .items
            .iter()
            .filter(|h| (start..end).contains(&h.id))
            .map(|h| Hit {
                score: h.score * 2.0,
                ..*h
            })
            .collect();
        let err = max_error_at(CITERANK_ALPHA, snap, &local, start, &items);
        assert!(err < 1e-9, "band {s} served {err:e} off dense");
    }
}

#[test]
fn a_solve_at_another_damping_builds_a_kernel_it_does_not_keep() {
    let net = generate(&DatasetProfile::dblp().scaled(400), 41);
    let engine =
        RankingEngine::from_config(net, "pagerank:d=0.85", RerankPolicy::EveryBatch).unwrap();
    let snap = engine.snapshot();
    let n = snap.n_papers();
    let cache = PersonalizationCache::new(CacheConfig::default());
    let seeds = [3, (n / 3) as PaperId, (n - 1) as PaperId];
    let seed = SeedPersonalization::uniform(&seeds, n).unwrap();
    let (scores, _) = cache.scores(engine.method(), &snap, &seed, ALPHA);
    let want = dense_personalized(snap.network(), &seed, ALPHA, &mut KernelWorkspace::new());
    let err = scores
        .iter()
        .zip(want.iter())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    assert!(
        err < 1e-9,
        "a solve at α = {ALPHA} served {err:e} off dense"
    );
    // Only the snapshot's own damping factor is kept.
    assert!(!Arc::ptr_eq(&snap.kernel(ALPHA), &snap.kernel(ALPHA)));
    assert!(Arc::ptr_eq(&snap.kernel(0.85), &snap.kernel(0.85)));
}
