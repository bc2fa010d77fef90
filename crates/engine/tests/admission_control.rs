//! Admission control on the serving path: the degradation ladder
//! (clamp before shed) priced off the planner's own estimates, and
//! shedding under genuine concurrent overload while the write path
//! keeps publishing.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use citegen::{generate, DatasetProfile};
use citegraph::{GraphDelta, ShardSpec};
use rankengine::admission::PAGE_ITEM_NS;
use rankengine::{AdmissionPolicy, Query, QueryEngine, QueryError, RerankPolicy, ShardedEngine};

/// A broad year-range query: every paper from the corpus midpoint on.
fn broad_query(net: &citegraph::CitationNetwork, k: usize) -> Query {
    let mid = net.years()[net.n_papers() / 2];
    format!("k={k},year={mid}..").parse().unwrap()
}

#[test]
fn ladder_clamps_then_sheds_at_planner_prices() {
    let net = generate(&DatasetProfile::dblp().scaled(3_000), 11);
    let mut qe = QueryEngine::from_configs(net.clone(), &["cc"], RerankPolicy::Manual).unwrap();
    qe.enable_metrics();
    let broad = broad_query(&net, 200);
    let base = qe.explain(&broad).unwrap().cost_ns;

    // Ceiling admits the degraded shape (k=10) but not the full one:
    // the query is served, clamped, and counted as such.
    qe.set_admission(AdmissionPolicy {
        max_query_cost_ns: base + 10.0 * PAGE_ITEM_NS + 1.0,
        degraded_k: 10,
        ..AdmissionPolicy::default()
    });
    let page = qe.query(&broad).unwrap();
    assert!(
        page.items.len() <= 10,
        "expected the page clamped to 10 items, got {}",
        page.items.len()
    );
    let stats = qe.admission_stats().unwrap();
    assert_eq!((stats.admitted, stats.k_clamped, stats.shed), (1, 1, 0));
    assert_eq!(stats.inflight_ns, 0, "ticket released after the page");

    // Ceiling below even the degraded shape: typed rejection carrying
    // the price and the ceiling it broke.
    qe.set_admission(AdmissionPolicy {
        max_query_cost_ns: base * 0.5,
        degraded_k: 10,
        ..AdmissionPolicy::default()
    });
    match qe.query(&broad) {
        Err(QueryError::Overloaded {
            cost_ns, limit_ns, ..
        }) => {
            assert!(cost_ns > limit_ns, "{cost_ns} should exceed {limit_ns}");
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    let stats = qe.admission_stats().unwrap();
    assert_eq!((stats.admitted, stats.shed), (0, 1));
}

#[test]
fn compare_is_planned_priced_and_observed_like_any_query() {
    let net = generate(&DatasetProfile::dblp().scaled(3_000), 17);
    let mut qe = QueryEngine::from_configs(net, &["attrank", "cc"], RerankPolicy::Manual).unwrap();
    qe.enable_metrics();
    let q: Query = "vs=cc,k=100".parse().unwrap();
    // A family's total over its label sets, off the rendered exposition.
    let total = |qe: &QueryEngine, name: &str| -> f64 {
        let text = qe.render_metrics().unwrap();
        let samples = obsv::validate::parse_samples(&text);
        samples
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.value)
            .sum()
    };

    // One compare is one observed query and one planner decision...
    let cmp = qe.compare(&q).unwrap();
    assert_eq!(cmp.rows.len(), 100);
    assert_eq!(total(&qe, "attrank_query_seconds_count"), 1.0);
    assert_eq!(total(&qe, "attrank_planner_decisions_total"), 1.0);
    // ...planned through the cache: the repeat is a hit.
    let before = qe.plan_cache_stats();
    assert_eq!((before.hits, before.misses), (0, 1));
    assert_eq!(qe.compare(&q).unwrap(), cmp);
    assert_eq!(qe.plan_cache_stats().hits, 1);
    assert_eq!(total(&qe, "attrank_query_seconds_count"), 2.0);

    // A ceiling below the price of the unfiltered page, with a degraded
    // `k` that does not rescue it: the compare sheds like the query would.
    qe.set_admission(AdmissionPolicy {
        max_query_cost_ns: qe.explain(&q).unwrap().cost_ns * 0.5,
        degraded_k: 100,
        ..AdmissionPolicy::default()
    });
    assert!(matches!(qe.compare(&q), Err(QueryError::Overloaded { .. })));
    assert!(matches!(qe.query(&q), Err(QueryError::Overloaded { .. })));
    let stats = qe.admission_stats().unwrap();
    assert_eq!((stats.admitted, stats.shed), (0, 2));
}

#[test]
fn sharded_scan_over_the_scan_ceiling_falls_back_to_the_index() {
    let net = generate(&DatasetProfile::dblp().scaled(3_000), 11);
    let plan = ShardSpec::Fixed(4).plan(&net).unwrap();
    let build = || ShardedEngine::from_plan(&net, &plan, "cc", RerankPolicy::Manual).unwrap();
    let (open, mut guarded) = (build(), build());

    // Every venue over the tail shard's last two years: dense enough that
    // an id-range scan with a venue residual is the tail's cheapest plan.
    let tail = guarded.shard_engines().last().unwrap().snapshot();
    let tail_net = tail.network();
    let venues: Vec<String> = (0..tail_net.venues().unwrap().n_venues())
        .map(|v| v.to_string())
        .collect();
    let from = tail_net.current_year().unwrap() - 1;
    let q: Query = format!("k=10,year={from}..,venue={}", venues.join("|"))
        .parse()
        .unwrap();
    // The tail's plan, as a flat engine over the tail's network prices it.
    let tail_only = QueryEngine::from_configs(Arc::clone(tail_net), &["cc"], RerankPolicy::Manual);
    let priced = tail_only.unwrap().explain(&q).unwrap();
    assert!(priced.is_residual_scan(), "{priced:?}");
    let indexed = priced.indexed_alternative_ns().unwrap();

    // The scan ceiling sits below the scan; the query ceiling admits the
    // indexed plan. The scan is steered onto the index, nothing is shed,
    // and the page is the unguarded engine's.
    guarded.set_admission(AdmissionPolicy {
        max_scan_cost_ns: priced.cost_ns * 0.5,
        max_query_cost_ns: indexed + q.k as f64 * PAGE_ITEM_NS + 1.0,
        ..AdmissionPolicy::default()
    });
    let want = open.query(&q, None).unwrap();
    assert_eq!(want.shards_scanned, 1, "only the tail overlaps the window");
    assert!(!want.items.is_empty());
    assert_eq!(guarded.query(&q, None).unwrap(), want);
    let stats = guarded.admission_stats().unwrap();
    assert_eq!(
        (
            stats.admitted,
            stats.scan_fallbacks,
            stats.k_clamped,
            stats.shed
        ),
        (1, 1, 0, 0)
    );
}

#[test]
fn concurrent_overload_sheds_while_publishes_stay_bounded() {
    let net = generate(&DatasetProfile::dblp().scaled(3_000), 13);
    let mut qe = QueryEngine::from_configs(net.clone(), &["cc"], RerankPolicy::EveryBatch).unwrap();
    qe.enable_metrics();
    let broad = broad_query(&net, 200);
    let base = qe.explain(&broad).unwrap().cost_ns;
    let total = base + 200.0 * PAGE_ITEM_NS;

    // The in-flight ceiling fits exactly one broad query, and
    // `degraded_k == k` leaves no clamp-retry: any overlapping second
    // query must shed. No per-query ceiling — a thread alone admits.
    qe.set_admission(AdmissionPolicy {
        max_inflight_cost_ns: total + 1.0,
        degraded_k: 200,
        ..AdmissionPolicy::default()
    });

    let n0 = net.n_papers() as u32;
    let served = AtomicUsize::new(0);
    let shed = AtomicUsize::new(0);
    let mut publish_worst = Duration::ZERO;
    const THREADS: usize = 4;
    const ROUNDS: usize = 50;
    const PER_ROUND: usize = 300;

    for round in 0..ROUNDS {
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for _ in 0..PER_ROUND {
                        match qe.query(&broad) {
                            Ok(page) => {
                                assert!(page.items.len() <= broad.k);
                                served.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(QueryError::Overloaded { .. }) => {
                                shed.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(other) => panic!("unexpected error: {other:?}"),
                        }
                    }
                });
            }
            // The writer keeps ingesting and publishing under reader
            // pressure; shedding must not starve it.
            let mut delta = GraphDelta::new();
            delta.add_paper(2021);
            // One paper per round, so the new paper's global id is
            // `n0 + round`; it cites a varying old paper.
            delta.add_citation(n0 + round as u32, (round as u32 * 37) % n0);
            let at = Instant::now();
            qe.ingest(&delta).unwrap();
            publish_worst = publish_worst.max(at.elapsed());
        });
        if shed.load(Ordering::Relaxed) > 0 {
            break;
        }
    }

    let served = served.load(Ordering::Relaxed);
    let shed = shed.load(Ordering::Relaxed);
    assert!(served > 0, "admitted queries should still be served");
    assert!(
        shed > 0,
        "4 threads against a one-query in-flight ceiling never overlapped \
         ({served} served over {ROUNDS} rounds)"
    );
    let stats = qe.admission_stats().unwrap();
    assert_eq!(stats.admitted as usize, served);
    assert_eq!(stats.shed as usize, shed);
    assert_eq!(stats.inflight_ns, 0, "all tickets released after join");
    assert!(
        publish_worst < Duration::from_secs(5),
        "publish stalled under reader pressure: {publish_worst:?}"
    );
}
