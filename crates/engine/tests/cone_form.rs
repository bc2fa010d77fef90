//! Seeded pages served from cone-form cache entries.
//!
//! The personalization cache keeps each seeded solve as `x = y + g·u`:
//! `y` block-sparse over the seeds' reference cone, `u` the uniform
//! kernel the partition's snapshot owns. These tests pin that nothing a reader sees
//! depends on the form:
//!
//! * every plan driver (unfiltered, cursor page 2, year window, venue
//!   bands, author bands, mask, compare) serves, flat and on four shards,
//!   the page a full sort of a dense copy of the same `x` gives — ids,
//!   score bits and match counts;
//! * a warm re-push from the compressed warm start equals one from the
//!   dense warm start bit for bit, across a publish that grows the cone.

use citegen::{generate, DatasetProfile};
use citegraph::{
    personalize, repersonalize, CitationNetwork, GraphDelta, PaperId, PushRankConfig,
    SeedPersonalization, ShardSpec,
};
use rankengine::{
    CacheConfig, Hit, PersonalizationCache, Query, QueryDriver, QueryEngine, RerankPolicy,
    ShardedEngine,
};
use sparsela::{cmp_score_desc, KernelWorkspace, ScoreVec};

const METHOD: &str = "pagerank:d=0.5";
const ALPHA: f64 = 0.5;

fn corpus() -> CitationNetwork {
    generate(&DatasetProfile::dblp().scaled(3000), 5)
}

/// Whether paper `id` of `net` passes `q`'s year window and facets.
fn matches(net: &CitationNetwork, q: &Query, id: PaperId) -> bool {
    let year = net.year(id);
    q.year_min.is_none_or(|lo| year >= lo)
        && q.year_max.is_none_or(|hi| year <= hi)
        && (q.venues.is_empty()
            || net
                .venues()
                .and_then(|t| t.venue_of(id))
                .is_some_and(|v| q.venues.contains(&v)))
        && (q.authors.is_empty()
            || net
                .authors()
                .is_some_and(|t| t.authors_of(id).iter().any(|a| q.authors.contains(a))))
}

/// One partition of a seeded ranking: its network, its global start and
/// the dense `x` of its seeds scaled by their share.
struct Part<'a> {
    net: &'a CitationNetwork,
    start: PaperId,
    dense: ScoreVec,
    share: f64,
}

/// Every matching `(score bits, global id)` of `parts`, in page order.
fn reference(parts: &[Part<'_>], q: &Query) -> Vec<(u64, PaperId)> {
    let mut pool: Vec<(f64, PaperId)> = parts
        .iter()
        .flat_map(|p| {
            (0..p.net.n_papers() as PaperId)
                .filter(|&l| matches(p.net, q, l))
                .map(|l| (p.dense[l as usize] * p.share, p.start + l))
        })
        .collect();
    pool.sort_by(|&(x, a), &(y, b)| cmp_score_desc(x, a, y, b));
    pool.iter().map(|&(x, id)| (x.to_bits(), id)).collect()
}

fn bits(items: &[Hit]) -> Vec<(u64, PaperId)> {
    items.iter().map(|h| (h.score.to_bits(), h.id)).collect()
}

/// Seeds spread over the corpus: three in its last quarter, one near its
/// middle, so four shards split them unevenly.
fn seeds(n: usize) -> Vec<PaperId> {
    vec![
        (n / 2) as PaperId,
        (n - 400) as PaperId,
        (n - 90) as PaperId,
        (n - 7) as PaperId,
    ]
}

/// Up to `m` distinct authors (smallest ids first) of the `3m` newest
/// papers, as an OR list.
fn recent_authors(net: &CitationNetwork, m: usize) -> String {
    let table = net.authors().unwrap();
    let n = net.n_papers() as PaperId;
    let mut authors: Vec<u32> = (1..=3 * m as PaperId)
        .flat_map(|back| table.authors_of(n - back).to_vec())
        .collect();
    authors.sort_unstable();
    authors.dedup();
    authors.truncate(m);
    let authors: Vec<String> = authors.iter().map(u32::to_string).collect();
    authors.join("|")
}

/// The queries, one or more per driver, with the seed set appended.
fn queries(net: &CitationNetwork, seeds: &[PaperId]) -> Vec<(Query, &'static str)> {
    let author = recent_authors(net, 1);
    let (first, last) = (net.first_year().unwrap(), net.current_year().unwrap());
    let mid = (first + last) / 2;
    let seed = seeds
        .iter()
        .map(|s| s.to_string())
        .collect::<Vec<_>>()
        .join("|");
    [
        ("k=10".to_string(), "unfiltered"),
        ("k=40".to_string(), "unfiltered"),
        (format!("k=10,year={mid}..{}", mid + 2), "id_range"),
        (format!("k=10,year={mid}.."), "id_range"),
        // An id range under an author residual.
        (
            format!("k=5,author={}", recent_authors(net, 40)),
            "id_range",
        ),
        ("k=10,venue=0|1".to_string(), "venue_bands"),
        (format!("k=10,venue=2,year={mid}.."), "venue_bands"),
        (format!("k=3,author={author}"), "author_bands"),
        (
            format!("k=5,author={}", recent_authors(net, 5)),
            "mask_algebra",
        ),
    ]
    .into_iter()
    .map(|(q, driver)| (format!("{q},seed={seed}").parse().unwrap(), driver))
    .collect()
}

fn driver_name(d: &QueryDriver) -> &'static str {
    match d {
        QueryDriver::Unfiltered => "unfiltered",
        QueryDriver::IdRange { .. } => "id_range",
        QueryDriver::VenueBands { .. } => "venue_bands",
        QueryDriver::AuthorBands { .. } => "author_bands",
        QueryDriver::MaskAlgebra { .. } => "mask_algebra",
    }
}

#[test]
fn flat_seeded_pages_equal_pages_over_a_dense_copy() {
    let net = corpus();
    let seeds = seeds(net.n_papers());
    let qe = QueryEngine::from_configs(net.clone(), &[METHOD, "cc"], RerankPolicy::Manual).unwrap();
    let snap = qe.snapshot(None).unwrap();
    let seed = SeedPersonalization::uniform(&seeds, net.n_papers()).unwrap();
    // An independent cache solves the same seeds on the same epoch: the
    // same bits, handed out dense.
    let dense = PersonalizationCache::new(CacheConfig::default())
        .scores("dense copy", &snap, &seed, ALPHA)
        .0;
    let parts = [Part {
        net: &net,
        start: 0,
        dense: ScoreVec::from_vec(dense.to_vec()),
        share: 1.0,
    }];
    for (q, driver) in queries(&net, &seeds) {
        assert_eq!(driver_name(&qe.explain(&q).unwrap().driver), driver, "{q}");
        let want = reference(&parts, &q);
        // Page 1, then page 2 behind its cursor.
        let page = qe.query_at(&snap, &q).unwrap();
        assert_eq!(bits(&page.items), want[..q.k.min(want.len())], "{q}");
        assert_eq!(page.matched, want.len(), "{q}");
        let mut next = q.clone();
        next.cursor = page.next;
        assert!(next.cursor.is_some(), "{q} has a second page");
        let page2 = qe.query_at(&snap, &next).unwrap();
        let rest = &want[q.k..];
        assert_eq!(
            bits(&page2.items),
            rest[..q.k.min(rest.len())],
            "{q}, page 2"
        );
        assert_eq!(page2.matched, rest.len(), "{q}, page 2");
        // Compare mode serves the same seeded page.
        let mut vs = q.clone();
        vs.vs = Some("cc".into());
        let cmp = qe.compare(&vs).unwrap();
        assert_eq!(bits(&cmp.page.items), bits(&page.items), "{q}, compare");
    }
    let stats = qe.personalization_stats();
    assert_eq!(stats.cold_pushes, 1, "one solve served every page");
}

#[test]
fn sharded_seeded_pages_equal_pages_over_a_dense_copy() {
    let net = corpus();
    let n = net.n_papers();
    let seeds = seeds(n);
    let plan = ShardSpec::Fixed(4).plan(&net).unwrap();
    let sharded = ShardedEngine::from_plan(&net, &plan, METHOD, RerankPolicy::Manual).unwrap();
    let cc = ShardedEngine::from_plan(&net, &plan, "cc", RerankPolicy::Manual).unwrap();
    let snaps = sharded.snapshots();
    assert_eq!(snaps.n_shards(), 4);

    // Each shard's seeds in its local ids, solved by an independent cache
    // under a label of its own (a kernel belongs to one partition).
    let dense = PersonalizationCache::new(CacheConfig::default());
    let mut parts = Vec::new();
    let mut seeded_shards = 0;
    for s in 0..snaps.n_shards() {
        let snap = snaps.snapshot(s);
        let start = snaps.start(s);
        let local: Vec<PaperId> = seeds
            .iter()
            .filter(|&&g| g >= start && ((g - start) as usize) < snap.n_papers())
            .map(|&g| g - start)
            .collect();
        if local.is_empty() {
            continue;
        }
        seeded_shards += 1;
        let seed = SeedPersonalization::uniform(&local, snap.n_papers()).unwrap();
        let x = dense.scores(&format!("shard {s}"), snap, &seed, ALPHA).0;
        parts.push((
            snap.network().clone(),
            start,
            ScoreVec::from_vec(x.to_vec()),
            local.len() as f64 / seeds.len() as f64,
        ));
    }
    assert!(
        seeded_shards >= 2,
        "the seeds span shards, at shares below one"
    );
    let parts: Vec<Part<'_>> = parts
        .iter()
        .map(|(net, start, dense, share)| Part {
            net,
            start: *start,
            dense: dense.clone(),
            share: *share,
        })
        .collect();
    let global = {
        // Facet ids are global; the reference filters each shard's
        // papers by its own network, whose tables carry the same ids.
        queries(&net, &seeds)
    };
    for (q, _) in global {
        let want = reference(&parts, &q);
        let page = sharded.query_at(&snaps, &q, None).unwrap();
        assert_eq!(bits(&page.items), want[..q.k.min(want.len())], "{q}");
        assert_eq!(page.matched, want.len(), "{q}");
        let rest = &want[q.k.min(want.len())..];
        assert_eq!(page.next.is_some(), !rest.is_empty(), "{q}");
        if let Some(cursor) = page.next {
            let page2 = sharded.query_at(&snaps, &q, Some(&cursor)).unwrap();
            assert_eq!(
                bits(&page2.items),
                rest[..q.k.min(rest.len())],
                "{q}, page 2"
            );
            assert_eq!(page2.matched, rest.len(), "{q}, page 2");
        }
        let cmp = sharded.compare(&cc, &q, None).unwrap();
        assert_eq!(bits(&cmp.page.items), bits(&page.items), "{q}, compare");
    }
}

#[test]
fn a_warm_repush_from_the_cone_equals_one_from_the_dense_warm_start() {
    let net = corpus();
    let n = net.n_papers();
    let seeds = seeds(n);
    let qe = QueryEngine::from_configs(net.clone(), &[METHOD], RerankPolicy::EveryBatch).unwrap();
    let seed_text = seeds
        .iter()
        .map(|s| s.to_string())
        .collect::<Vec<_>>()
        .join("|");
    let all: Query = format!("k={},seed={seed_text}", n + 64).parse().unwrap();
    qe.query(&all).unwrap();

    // The dense path the cache replaces: a cold solve on epoch 0 against
    // the epoch's kernel, kept dense.
    let seed = SeedPersonalization::uniform(&seeds, n).unwrap();
    let cfg = PushRankConfig::default();
    let mut ws = KernelWorkspace::new();
    let k0 = qe.snapshot(None).unwrap().kernel(ALPHA);
    let cold = personalize(&net, &seed, ALPHA, Some(k0.as_slice()), &cfg, &mut ws);
    let cone = |raw: &ScoreVec| raw.iter().filter(|y| y.to_bits() != 0).count();

    // A publish that grows the cone: the middle seed, an old paper, now
    // also cites every paper of its year and before that it did not reach,
    // and a new paper cites two old ones.
    let s = seeds[0];
    let outside: Vec<PaperId> = (0..s)
        .filter(|&p| cold.raw[p as usize].to_bits() == 0 && net.year(p) <= net.year(s))
        .take(25)
        .collect();
    assert!(!outside.is_empty());
    let mut delta = GraphDelta::new();
    for &p in &outside {
        delta.add_citation(s, p);
    }
    let fresh = n as PaperId + delta.add_paper(net.current_year().unwrap()) as PaperId;
    delta.add_citation(fresh, 3);
    delta.add_citation(fresh, s);
    qe.ingest(&delta).unwrap();
    let new = net.with_delta(&delta).unwrap();

    let before = qe.personalization_stats().warm_repushes;
    let mut all = all;
    all.k = new.n_papers();
    let page = qe.query(&all).unwrap();
    assert_eq!(
        qe.personalization_stats().warm_repushes,
        before + 1,
        "the entry was re-pushed from its cone"
    );

    // The same re-push from the dense warm start, against the kernel the
    // new epoch owns.
    let k1 = qe.snapshot(None).unwrap().kernel(ALPHA);
    let start = cold.warm_start().unwrap();
    let warm = repersonalize(
        &net,
        &delta,
        &new,
        start,
        &seed,
        ALPHA,
        Some(k1.as_slice()),
        &cfg,
        &mut ws,
    )
    .expect("a re-push of a small delta");
    assert!(
        cone(&warm.raw) > cone(&cold.raw) + outside.len() / 2,
        "the publish grew the cone: {} → {}",
        cone(&cold.raw),
        cone(&warm.raw)
    );
    let parts = [Part {
        net: &new,
        start: 0,
        dense: warm.scores,
        share: 1.0,
    }];
    let want = reference(&parts, &all);
    assert_eq!(page.items.len(), new.n_papers());
    assert_eq!(bits(&page.items), want, "every score, bit for bit");
}
