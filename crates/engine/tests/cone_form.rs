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
//! * across a publish that rewires the cone, the entry is solved cold on
//!   the new epoch, bit for bit as `personalize` against its kernel;
//! * across a tail publish, the entry is carried onto the new epoch's
//!   kernel, bit for bit as `repersonalize` from the dense warm start.

use citegen::{generate, DatasetProfile};
use citegraph::{
    personalize, repersonalize, CitationNetwork, GraphDelta, PaperId, PersonalizedScores,
    PushRankConfig, SeedPersonalization, ShardSpec,
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

/// One publish of a delta under a cached seeded ranking: the corpus before
/// and after it, the cold solve the cache held for epoch 0, the delta, the
/// kernel the new epoch owns, the carries and cold solves the page after
/// the publish cost, and that page of every paper.
struct Publish {
    net: CitationNetwork,
    new: CitationNetwork,
    seed: SeedPersonalization,
    cold: PersonalizedScores,
    delta: GraphDelta,
    kernel: std::sync::Arc<ScoreVec>,
    outcome: (u64, u64),
    page: Vec<(u64, PaperId)>,
    all: Query,
}

/// Serves a seeded page of every paper on epoch 0, publishes the delta
/// `delta` builds from the corpus and the cached solve, and serves it again.
fn publish(delta: impl FnOnce(&CitationNetwork, &PersonalizedScores) -> GraphDelta) -> Publish {
    let net = corpus();
    let n = net.n_papers();
    let seeds = seeds(n);
    let qe = QueryEngine::from_configs(net.clone(), &[METHOD], RerankPolicy::EveryBatch).unwrap();
    let seed_text = seeds
        .iter()
        .map(|s| s.to_string())
        .collect::<Vec<_>>()
        .join("|");
    let mut all: Query = format!("k={},seed={seed_text}", n + 64).parse().unwrap();
    qe.query(&all).unwrap();

    // The solve the cache holds for epoch 0, kept dense.
    let seed = SeedPersonalization::uniform(&seeds, n).unwrap();
    let k0 = qe.snapshot(None).unwrap().kernel(ALPHA);
    let cold = personalize(
        &net,
        &seed,
        ALPHA,
        Some(k0.as_slice()),
        &PushRankConfig::default(),
        &mut KernelWorkspace::new(),
    );
    let delta = delta(&net, &cold);
    qe.ingest(&delta).unwrap();
    let new = net.with_delta(&delta).unwrap();

    let before = qe.personalization_stats();
    all.k = new.n_papers();
    let page = bits(&qe.query(&all).unwrap().items);
    let after = qe.personalization_stats();
    Publish {
        kernel: qe.snapshot(None).unwrap().kernel(ALPHA),
        outcome: (
            after.warm_repushes - before.warm_repushes,
            after.cold_pushes - before.cold_pushes,
        ),
        net,
        new,
        seed,
        cold,
        delta,
        page,
        all,
    }
}

/// Ids whose `y` is stored.
fn cone(raw: &ScoreVec) -> usize {
    raw.iter().filter(|y| y.to_bits() != 0).count()
}

#[test]
fn a_rewired_cone_solves_cold_bit_for_bit() {
    // The middle seed, an old paper, now also cites every paper of its
    // year and before that it did not reach, and a new paper cites two old
    // ones.
    let mut outside = Vec::new();
    let p = publish(|net, cold| {
        let s = seeds(net.n_papers())[0];
        outside = (0..s)
            .filter(|&q| cold.raw[q as usize].to_bits() == 0 && net.year(q) <= net.year(s))
            .take(25)
            .collect();
        assert!(!outside.is_empty());
        let mut delta = GraphDelta::new();
        for &q in &outside {
            delta.add_citation(s, q);
        }
        let fresh =
            net.n_papers() as PaperId + delta.add_paper(net.current_year().unwrap()) as PaperId;
        delta.add_citation(fresh, 3);
        delta.add_citation(fresh, s);
        delta
    });
    assert_eq!(p.outcome, (0, 1), "a rewired cone is solved cold");

    // The cold solve on the new network against the kernel its epoch owns.
    let solved = personalize(
        &p.new,
        &p.seed,
        ALPHA,
        Some(p.kernel.as_slice()),
        &PushRankConfig::default(),
        &mut KernelWorkspace::new(),
    );
    assert!(
        cone(&solved.raw) > cone(&p.cold.raw) + outside.len() / 2,
        "the publish grew the cone: {} → {}",
        cone(&p.cold.raw),
        cone(&solved.raw)
    );
    let parts = [Part {
        net: &p.new,
        start: 0,
        dense: solved.scores,
        share: 1.0,
    }];
    assert_eq!(p.page.len(), p.new.n_papers());
    assert_eq!(
        p.page,
        reference(&parts, &p.all),
        "every score, bit for bit"
    );
}

#[test]
fn a_tail_publish_carries_the_cone_bit_for_bit_as_repersonalize() {
    // Two new papers: one cites a seed and an old paper of the cone, the
    // other cites papers outside it.
    let p = publish(|net, cold| {
        let n = net.n_papers() as PaperId;
        let s = seeds(net.n_papers())[0];
        let outside = (0..n)
            .find(|&q| cold.raw[q as usize].to_bits() == 0)
            .unwrap();
        let year = net.current_year().unwrap();
        let mut delta = GraphDelta::new();
        let (a, b) = (
            n + delta.add_paper(year) as PaperId,
            n + delta.add_paper(year) as PaperId,
        );
        delta.add_citation(a, s);
        delta.add_citation(a, 3);
        delta.add_citation(b, outside);
        delta.add_citation(b, a);
        delta
    });
    assert_eq!(p.outcome, (1, 0), "a tail publish carries the entry");

    // The re-push from the dense warm start, against the same kernel.
    let warm = repersonalize(
        &p.net,
        &p.delta,
        &p.new,
        p.cold.warm_start().unwrap(),
        &p.seed,
        ALPHA,
        Some(p.kernel.as_slice()),
        &PushRankConfig::default(),
        &mut KernelWorkspace::new(),
    )
    .expect("a re-push of a tail delta");
    assert_eq!(cone(&warm.raw), cone(&p.cold.raw), "nothing was pushed");
    let parts = [Part {
        net: &p.new,
        start: 0,
        dense: warm.scores,
        share: 1.0,
    }];
    assert_eq!(p.page.len(), p.new.n_papers());
    assert_eq!(
        p.page,
        reference(&parts, &p.all),
        "every score, bit for bit"
    );
}
