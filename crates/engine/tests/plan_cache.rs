//! Plan-cache semantics through the public serving surface: hits skip
//! re-planning, a publish that advances the epoch invalidates lazily (a
//! stale entry is detected, counted, and never serves its old plan),
//! and the LRU bound evicts — all observable via
//! [`QueryEngine::plan_cache_stats`].

use citegraph::{CitationNetwork, GraphDelta, NetworkBuilder, Year};
use rankengine::{Query, QueryEngine, QueryError, RerankPolicy};

/// 12 papers with venue `i % 3` (2 → none) and authors `[i % 2]`, plus
/// a backward citation fan — the query-layer fixture shape.
fn corpus() -> CitationNetwork {
    let mut b = NetworkBuilder::new();
    for i in 0..12u32 {
        let venue = match i % 3 {
            0 => Some(0),
            1 => Some(1),
            _ => None,
        };
        b.add_paper_with_metadata(2000 + i as Year, vec![i % 2], venue);
    }
    for i in 1..12u32 {
        for j in 0..i {
            if (i + j) % 3 != 0 {
                b.add_citation(i, j).unwrap();
            }
        }
    }
    b.build().unwrap()
}

fn engine() -> QueryEngine {
    QueryEngine::from_configs(corpus(), &["cc"], RerankPolicy::EveryBatch).unwrap()
}

#[test]
fn repeat_queries_hit_without_replanning() {
    let qe = engine();
    let q: Query = "k=2,venue=0".parse().unwrap();

    let first = qe.query(&q).unwrap();
    let s = qe.plan_cache_stats();
    assert_eq!((s.hits, s.misses, s.stale, s.evictions), (0, 1, 0, 0));
    assert_eq!(s.entries, 1);

    // Same filters again: a hit, and the identical page.
    assert_eq!(qe.query(&q).unwrap(), first);
    let s = qe.plan_cache_stats();
    assert_eq!((s.hits, s.misses), (1, 1));

    // The fingerprint excludes k: a different page size shares the plan.
    let wider: Query = "k=5,venue=0".parse().unwrap();
    qe.query(&wider).unwrap();
    let s = qe.plan_cache_stats();
    assert_eq!((s.hits, s.misses), (2, 1));
    assert_eq!(s.entries, 1);

    // A different filter shape is its own entry.
    qe.query(&"k=2,author=1".parse().unwrap()).unwrap();
    let s = qe.plan_cache_stats();
    assert_eq!((s.hits, s.misses), (2, 2));
    assert_eq!(s.entries, 2);
}

#[test]
fn publish_invalidates_lazily_and_never_serves_the_stale_plan() {
    let qe = engine();
    let q: Query = "k=2,venue=0".parse().unwrap();
    let before = qe.query(&q).unwrap();

    // Publish: a new paper citing into the corpus advances the epoch.
    let mut delta = GraphDelta::new();
    delta.add_paper(2012);
    delta.add_citation(12, 0);
    qe.ingest(&delta).unwrap();

    // The cached entry is for the old epoch: detected as stale (typed,
    // counted), re-planned against the new index generation, and the
    // page reflects the post-publish corpus — never the old plan's view.
    // `hits + misses + stale` is the total lookup count: a stale
    // detection is its own outcome, not a second miss.
    let after = qe.query(&q).unwrap();
    let s = qe.plan_cache_stats();
    assert_eq!((s.hits, s.misses, s.stale), (0, 1, 1));
    assert_eq!(s.entries, 1, "the stale entry was replaced, not kept");
    assert_eq!(after.epoch, before.epoch + 1);
    let count: Query = "k=0".parse().unwrap();
    assert_eq!(qe.query(&count).unwrap().matched, 13);

    // A cursor minted before the publish is the *cursor's* staleness,
    // not the plan's: the typed error survives the re-plan.
    let mut resumed = q.clone();
    resumed.cursor = Some(before.next.expect("first page has a continuation"));
    match qe.query(&resumed) {
        Err(QueryError::StaleCursor { .. }) => {}
        other => panic!("expected StaleCursor, got {other:?}"),
    }
}

#[test]
fn lru_eviction_is_counted_and_capacity_bounded() {
    let mut qe = engine();
    qe.set_plan_cache_capacity(1);
    let a: Query = "k=2,venue=0".parse().unwrap();
    let b: Query = "k=2,venue=1".parse().unwrap();

    qe.query(&a).unwrap(); // miss, fills the only slot
    qe.query(&b).unwrap(); // miss, evicts a
    qe.query(&a).unwrap(); // miss again (was evicted), evicts b
    let s = qe.plan_cache_stats();
    assert_eq!((s.hits, s.misses, s.evictions), (0, 3, 2));
    assert_eq!(s.entries, 1);

    // Raising the capacity starts a fresh cache: both shapes coexist.
    qe.set_plan_cache_capacity(8);
    qe.query(&a).unwrap();
    qe.query(&b).unwrap();
    qe.query(&a).unwrap();
    let s = qe.plan_cache_stats();
    assert_eq!((s.hits, s.misses, s.evictions), (1, 2, 0));
    assert_eq!(s.entries, 2);
}

#[test]
fn plan_cache_counters_render_in_the_exposition() {
    let mut qe = QueryEngine::from_configs(corpus(), &["cc"], RerankPolicy::EveryBatch).unwrap();
    qe.enable_metrics();
    let q: Query = "k=2,venue=0".parse().unwrap();
    qe.query(&q).unwrap();
    qe.query(&q).unwrap();
    let text = qe.render_metrics().expect("metrics enabled");
    assert!(
        text.contains("attrank_plan_cache_events_total{outcome=\"hit\"} 1"),
        "missing hit counter in:\n{text}"
    );
    assert!(
        text.contains("attrank_plan_cache_events_total{outcome=\"miss\"} 1"),
        "missing miss counter in:\n{text}"
    );
    assert!(
        text.contains("attrank_plan_cache_entries 1"),
        "missing entries gauge in:\n{text}"
    );
}

#[test]
fn pricing_ranges_by_blocks_changes_no_driver() {
    // A residual-free range is priced by blocks since the block walk
    // serves it; every residual-bearing price is as it was. Neither may
    // move a plan: the driver of every shape this suite and the
    // pagination suite serve, on their corpora, as planned before the
    // re-pricing (and the re-priced rows only ever got cheaper).
    let small = engine();
    let paged = {
        let net = citegen::generate(&citegen::DatasetProfile::dblp().scaled(3_000), 11);
        QueryEngine::from_configs(net, &["cc"], RerankPolicy::EveryBatch).unwrap()
    };
    let cases: [(&QueryEngine, &str, &str); 14] = [
        (&small, "k=2,venue=0", "venue_bands"),
        (&small, "k=5,venue=0", "venue_bands"),
        (&small, "k=2,venue=1", "venue_bands"),
        (&small, "k=2,author=1", "author_bands"),
        (&small, "k=0", "unfiltered"),
        (&small, "k=2,year=2003..2008", "id_range"),
        (&paged, "k=97", "unfiltered"),
        (&paged, "k=1", "unfiltered"),
        (&paged, "k=7,venue=0", "venue_bands"),
        (&paged, "k=11,venue=1", "venue_bands"),
        (&paged, "k=10,year=1990..", "id_range"),
        (&paged, "k=10,venue=0,year=1990..", "venue_bands"),
        (&paged, "k=10,author=3|5|8,venue=0|1|2", "author_bands"),
        (&paged, "k=10,author=3,year=..2005", "author_bands"),
    ];
    for (qe, shape, driver) in cases {
        let q: Query = shape.parse().unwrap();
        let plan = qe.explain(&q).unwrap();
        let chosen = plan.table.iter().find(|c| c.chosen).unwrap();
        assert_eq!(chosen.driver, driver, "{shape}");
        // Resumed behind a cursor the shape keeps its driver too (an
        // unfiltered resume is a scan of everything).
        let Some(cursor) = qe.query(&q).unwrap().next else {
            continue;
        };
        let resumed = Query {
            cursor: Some(cursor),
            ..q
        };
        let plan = qe.explain(&resumed).unwrap();
        let chosen = plan.table.iter().find(|c| c.chosen).unwrap();
        let resumed_driver = if driver == "unfiltered" {
            "id_range"
        } else {
            driver
        };
        assert_eq!(chosen.driver, resumed_driver, "{shape}, resumed");
        if resumed.venues.is_empty() && resumed.authors.is_empty() {
            let plain = plan.candidates as f64 * qe.cost_model().scan_per_id;
            assert!(
                chosen.cost_ns <= plain,
                "{shape}: {} > {plain}",
                chosen.cost_ns
            );
        }
    }
}
