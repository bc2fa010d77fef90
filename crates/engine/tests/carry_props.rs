//! A cached seeded ranking crosses a publish as its cone over the new
//! kernel: the carry is the re-push `repersonalize` makes with nothing to
//! push, and an entry whose cone the delta rewired is solved cold.
//!
//! Random networks (dangling papers included) and random deltas in four
//! shapes:
//!
//! * an empty delta (a `rerank`);
//! * appended papers citing papers in and out of the seeds' cone;
//! * that, plus old papers outside the cone gaining references;
//! * that, plus a cone paper gaining references — a formerly dangling one
//!   when there is one and the case asks for it.
//!
//! For each, flat and in the tail of 4 shards: the request after the
//! publish is a carry exactly when no delta citation comes from an old
//! paper holding `y`, and a cold solve otherwise; a carried entry holds
//! `repersonalize`'s `y` bit for bit and the parent's own `g` over the new
//! snapshot's kernel `Arc`, a cold one is `personalize` on the new network
//! bit for bit; every page reads those scores bit for bit; and every entry
//! is ≤ 1e-9 of `dense_personalized` on the new network.

use std::sync::Arc;

use citegraph::{
    dense_personalized, personalize, repersonalize, CitationNetwork, GraphDelta, NetworkBuilder,
    PaperId, PushRankConfig, SeedPersonalization, ShardSpec,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rankengine::personalization::CachedRanking;
use rankengine::{
    CacheConfig, CacheOutcome, EpochSnapshot, Hit, PersonalizationCache, Query, QueryEngine,
    RerankPolicy, ShardedEngine,
};
use sparsela::{cmp_score_desc, Cone, KernelWorkspace, Scores};

/// Damping factors drawn, as spec text: `0.5` round-trips `g` through
/// `g/α` exactly, the others do not always.
const ALPHAS: [&str; 3] = ["0.5", "0.85", "0.3"];

/// `n` papers over eight years, ids in year order; each pair of `edges`
/// (mod `n`) is a citation from the higher id to the lower one.
fn network(n: usize, edges: &[(usize, usize)]) -> CitationNetwork {
    let mut b = NetworkBuilder::new();
    let ids: Vec<PaperId> = (0..n)
        .map(|i| b.add_paper(2000 + (i * 8 / n) as i32))
        .collect();
    for &(a, c) in edges {
        let (a, c) = (a % n, c % n);
        if a != c {
            b.add_citation(ids[a.max(c)], ids[a.min(c)]).unwrap();
        }
    }
    b.build().unwrap()
}

/// The delta shapes of the module docs, in global ids, touching only
/// papers at or past `lo` (the tail shard's first id). `held` says
/// whether an old paper holds `y`.
#[allow(clippy::too_many_arguments)] // one case's draws
fn delta(
    net: &CitationNetwork,
    lo: usize,
    shape: u32,
    appended: usize,
    new_edges: &[(usize, usize)],
    old_edges: &[(usize, usize)],
    prefer_dangling: bool,
    held: impl Fn(usize) -> bool,
) -> Option<GraphDelta> {
    let n = net.n_papers();
    let mut d = GraphDelta::new();
    if shape == 0 {
        return Some(d);
    }
    let year = net.current_year().unwrap();
    for _ in 0..appended {
        d.add_paper(year);
    }
    for &(p, t) in new_edges {
        let citing = n + p % appended;
        d.add_citation(citing as PaperId, (lo + t % (citing - lo)) as PaperId);
    }
    // A reference `j` does not hold yet, to a paper of the tail below it.
    let new_reference = |j: usize, t: usize| {
        let refs = net.references(j as PaperId);
        (lo..j)
            .cycle()
            .skip(t % (j - lo).max(1))
            .take(j - lo)
            .find(|i| !refs.contains(&(*i as PaperId)))
    };
    if shape >= 2 {
        for &(j, t) in old_edges {
            let j = lo + j % (n - lo);
            if let Some(i) = (!held(j)).then(|| new_reference(j, t)).flatten() {
                d.add_citation(j as PaperId, i as PaperId);
            }
        }
    }
    if shape == 3 {
        let cone: Vec<usize> = (lo + 1..n).filter(|&j| held(j)).collect();
        let dangling = cone
            .iter()
            .copied()
            .filter(|&j| net.references(j as PaperId).is_empty());
        let (j, i) = dangling
            .filter(|_| prefer_dangling)
            .chain(cone.iter().rev().copied())
            .find_map(|j| Some((j, new_reference(j, old_edges.len())?)))?;
        d.add_citation(j as PaperId, i as PaperId);
    }
    Some(d)
}

/// `delta` with every citation moved down by `start`: the tail shard's
/// local batch.
fn local(delta: &GraphDelta, start: PaperId) -> GraphDelta {
    let mut d = delta.clone();
    for (citing, cited) in &mut d.citations {
        *citing -= start;
        *cited -= start;
    }
    d
}

fn query(seeds: &[PaperId], k: usize) -> Query {
    let seeds: Vec<String> = seeds.iter().map(|s| s.to_string()).collect();
    format!("k={k},seed={}", seeds.join("|")).parse().unwrap()
}

fn bits(items: &[Hit]) -> Vec<(u64, PaperId)> {
    items.iter().map(|h| (h.score.to_bits(), h.id)).collect()
}

/// Every `(score bits, start + id)` of `x`, in page order.
fn order(x: &[f64], start: PaperId) -> Vec<(u64, PaperId)> {
    let mut ids: Vec<PaperId> = (0..x.len() as PaperId).collect();
    ids.sort_by(|&a, &b| cmp_score_desc(x[a as usize], a, x[b as usize], b));
    ids.iter()
        .map(|&i| (x[i as usize].to_bits(), start + i))
        .collect()
}

/// Checks the request after the publish `old` → `new` (by `delta`, in the
/// partition's ids) against the re-push and the cold solve, given the
/// entry `before` the cache held for `old`. Returns the outcome and the
/// scores the entry reads.
fn check_entry(
    cache: &PersonalizationCache,
    (old, new): (&EpochSnapshot, &EpochSnapshot),
    delta: &GraphDelta,
    seed: &SeedPersonalization,
    alpha: f64,
    before: &CachedRanking,
) -> Result<(CacheOutcome, Vec<f64>), TestCaseError> {
    let cfg = PushRankConfig::default();
    let mut ws = KernelWorkspace::new();
    let k0 = old.kernel(alpha);
    let cold = personalize(
        old.network(),
        seed,
        alpha,
        Some(k0.as_slice()),
        &cfg,
        &mut ws,
    );
    let n_old = old.n_papers();
    for i in 0..n_old {
        prop_assert_eq!(before.cone().y(i).to_bits(), cold.raw[i].to_bits());
    }
    prop_assert_eq!(before.cone().g().to_bits(), cold.g.to_bits());
    let rewired = delta
        .citations
        .iter()
        .any(|&(c, _)| (c as usize) < n_old && cold.raw[c as usize] != 0.0);

    let (entry, outcome) = cache.ranking("m", new, seed, alpha);
    let (cone, k1, n) = (entry.cone(), new.kernel(alpha), new.n_papers());
    prop_assert!(
        Arc::ptr_eq(cone.kernel(), &k1),
        "the entry reads the snapshot's kernel"
    );
    let x: Vec<f64> = (0..n).map(|i| cone.at(i)).collect();
    if rewired {
        prop_assert_eq!(outcome, CacheOutcome::ColdPush);
        let want = personalize(
            new.network(),
            seed,
            alpha,
            Some(k1.as_slice()),
            &cfg,
            &mut ws,
        );
        for (i, (x, want)) in x.iter().zip(want.scores.iter()).enumerate() {
            prop_assert_eq!(x.to_bits(), want.to_bits(), "cold, id {}", i);
        }
    } else {
        prop_assert_eq!(outcome, CacheOutcome::WarmRepush);
        let start = cold.warm_start().unwrap();
        let rep = repersonalize(
            old.network(),
            delta,
            new.network(),
            start,
            seed,
            alpha,
            Some(k1.as_slice()),
            &cfg,
            &mut ws,
        )
        .expect("a re-push with nothing rewired in the cone");
        // The carry keeps the parent's `g`; the re-push carries it through
        // `dᵀy = g/α` and back, which rounds at some `α`.
        prop_assert_eq!(cone.g().to_bits(), cold.g.to_bits());
        prop_assert_eq!(rep.g.to_bits(), (alpha * (cold.g / alpha)).to_bits());
        let want = Cone::new(&rep.raw, cold.g, Arc::clone(&k1));
        prop_assert_eq!((cone.stored(), cone.bytes()), (want.stored(), want.bytes()));
        for (i, x) in x.iter().enumerate() {
            prop_assert_eq!(cone.y(i).to_bits(), rep.raw[i].to_bits(), "y at {}", i);
            prop_assert_eq!(x.to_bits(), want.at(i).to_bits(), "id {}", i);
            if rep.g.to_bits() == cold.g.to_bits() {
                prop_assert_eq!(x.to_bits(), rep.scores[i].to_bits(), "id {}", i);
            }
        }
    }
    let dense = dense_personalized(new.network(), seed, alpha, &mut ws);
    for i in 0..n {
        prop_assert!(
            (x[i] - dense[i]).abs() <= 1e-9,
            "id {}: {} vs {}",
            i,
            x[i],
            dense[i]
        );
    }
    Ok((outcome, x))
}

/// Which shapes must carry: all but a rewired cone.
fn expected(shape: u32) -> CacheOutcome {
    if shape == 3 {
        CacheOutcome::ColdPush
    } else {
        CacheOutcome::WarmRepush
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn a_publish_carries_every_entry_whose_cone_it_did_not_rewire(
        n in 40usize..120,
        edges in proptest::collection::vec((0usize..1000, 0usize..1000), 20..200),
        seed_picks in proptest::collection::vec(0usize..1000, 1..4),
        alpha_pick in 0usize..ALPHAS.len(),
        shape in 0u32..4,
        appended in 1usize..4,
        new_edges in proptest::collection::vec((0usize..1000, 0usize..1000), 1..8),
        old_edges in proptest::collection::vec((0usize..1000, 0usize..1000), 1..6),
        prefer_dangling in 0u32..2,
    ) {
        let net = network(n, &edges);
        let method = format!("pagerank:d={}", ALPHAS[alpha_pick]);
        let alpha: f64 = ALPHAS[alpha_pick].parse().unwrap();
        let sharded = ShardedEngine::from_plan(
            &net,
            &ShardSpec::Fixed(4).plan(&net).unwrap(),
            &method,
            RerankPolicy::EveryBatch,
        )
        .unwrap();
        let snaps = sharded.snapshots();
        let tail = snaps.n_shards() - 1;
        let start = snaps.start(tail);
        let lo = start as usize;
        let mut seeds: Vec<PaperId> =
            seed_picks.iter().map(|&p| (lo + p % (n - lo)) as PaperId).collect();
        seeds.sort_unstable();
        seeds.dedup();

        // Which old papers hold `y`, from the flat solve.
        let flat_seed = SeedPersonalization::uniform(&seeds, n).unwrap();
        let held = personalize(
            &net,
            &flat_seed,
            alpha,
            None,
            &PushRankConfig::default(),
            &mut KernelWorkspace::new(),
        )
        .raw;
        let held = |j: usize| held[j] != 0.0;
        let d = delta(&net, lo, shape, appended, &new_edges, &old_edges, prefer_dangling == 1, held);
        prop_assume!(d.is_some(), "no cone paper can gain a reference");
        let d = d.unwrap();
        let n_new = n + d.n_papers();

        // Flat: the engine's own cache serves pages, a cache of the test's
        // hands out the entry.
        let qe = QueryEngine::from_configs(net.clone(), &[method.as_str()], RerankPolicy::EveryBatch)
            .unwrap();
        let all = query(&seeds, n_new + 64);
        qe.query(&all).unwrap();
        let cache = PersonalizationCache::new(CacheConfig::default());
        let old = qe.snapshot(None).unwrap();
        let (before, o) = cache.ranking("m", &old, &flat_seed, alpha);
        prop_assert_eq!(o, CacheOutcome::ColdPush);
        if d.is_empty() {
            qe.rerank();
        } else {
            qe.ingest(&d).unwrap();
        }
        let new = qe.snapshot(None).unwrap();
        prop_assert_eq!(new.n_papers(), n_new);
        let (outcome, x) = check_entry(&cache, (&old, &new), &d, &flat_seed, alpha, &before)?;
        prop_assert_eq!(outcome, expected(shape));
        let stats = qe.personalization_stats();
        let served = qe.query(&all).unwrap();
        let after = qe.personalization_stats();
        prop_assert_eq!(
            (after.warm_repushes - stats.warm_repushes, after.cold_pushes - stats.cold_pushes),
            if outcome == CacheOutcome::WarmRepush { (1, 0) } else { (0, 1) }
        );
        let want = order(&x, 0);
        prop_assert_eq!(bits(&served.items), want.clone());
        let mut short = query(&seeds, 3);
        let first = qe.query(&short).unwrap();
        prop_assert_eq!(bits(&first.items), want[..3].to_vec());
        short.cursor = first.next;
        prop_assert_eq!(bits(&qe.query(&short).unwrap().items), want[3..6].to_vec());

        // The tail of 4 shards: every seed and every citation of the
        // delta lies in it.
        let tail_seed = SeedPersonalization::uniform(
            &seeds.iter().map(|s| s - start).collect::<Vec<_>>(),
            n - lo,
        )
        .unwrap();
        let cache = PersonalizationCache::new(CacheConfig::default());
        let old = Arc::clone(snaps.snapshot(tail));
        sharded.query_at(&snaps, &all, None).unwrap();
        let (before, _) = cache.ranking("m", &old, &tail_seed, alpha);
        if d.is_empty() {
            sharded.rerank_all();
        } else {
            sharded.ingest(&d).unwrap();
        }
        let snaps = sharded.snapshots();
        let new = snaps.snapshot(tail);
        prop_assert_eq!(new.n_papers(), n_new - lo);
        let (outcome, x) =
            check_entry(&cache, (&old, new), &local(&d, start), &tail_seed, alpha, &before)?;
        prop_assert_eq!(outcome, expected(shape));
        let served = sharded.query_at(&snaps, &all, None).unwrap();
        prop_assert_eq!(bits(&served.items), order(&x, start));
    }
}
