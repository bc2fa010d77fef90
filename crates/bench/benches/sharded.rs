//! Sharded-serving benchmarks: year-band shard pruning, faceted queries
//! against the flat engine's best plan, and tail-routed ingest.
//!
//! Six entries at 200k papers (DBLP profile), 8 fixed id bands:
//!
//! * `year_filtered_8shard_200k` — k = 10 over a year window opening in
//!   the newest band: the scatter-gather path prunes every shard whose
//!   year span ends before the window, so only the tail band is scanned;
//! * `year_filtered_unsharded_200k` — the flat engine's best plan for
//!   the same query. The time-sorted id space gives it a contiguous
//!   id-range driver, so this is expected to be *on par* with the
//!   sharded path — the honest row showing pruning rediscovers, not
//!   beats, the temporal index for pure year predicates;
//! * `year_filtered_scan_200k` — the unsharded reference scan: every
//!   score visited, year checked per candidate. What the same top-k
//!   costs on a layout without the time-sorted id index; forms the
//!   gated `pruned_speedup` ratio (floor 3x, `repro bench-check`);
//! * `venue_year_8shard_200k` / `venue_year_unsharded_200k` — busiest
//!   venue within the same year window. Posting lists are physically
//!   partitioned by the plan, so the sharded path walks only the
//!   surviving band's posting window while the flat engine walks
//!   whichever *full-corpus* id set is smaller — the query shape where
//!   sharding beats the real engine, not just the strawman;
//! * `tail_ingest_8shard_200k` / `full_ingest_unsharded_200k` — one new
//!   paper citing the newest, published every batch. The sharded engine
//!   rebuilds + re-ranks only the tail band; the flat engine pays the
//!   whole corpus. Forms the gated `tail_ingest_speedup` ratio (floor
//!   4x). The ratio fell from 18.5x to ~12x when `with_delta` became a
//!   copy-and-merge: its numerator, the whole-corpus publish, is what
//!   that change sped up most (52.7 ms -> 2.3 ms; the tail publish went
//!   2.85 ms -> 0.19 ms). A cheaper whole-corpus publish is the point, so
//!   the floor stays at 4x and this bench is not to be reshaped to win the
//!   ratio back.
//!
//! Both gated ratios divide two measurements from the same run, so they
//! hold across machines (this container has a 1-CPU quota; the wins are
//! work-avoidance, not parallelism).

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use citegen::{generate, DatasetProfile};
use citegraph::{CitationNetwork, GraphDelta, PaperId, ShardSpec, VenueId};
use rankengine::{Query, QueryEngine, RerankPolicy, ShardedEngine};
use sparsela::top_k_where;

const SCALE: usize = 200_000;
const N_SHARDS: usize = 8;
const K: usize = 10;

/// The most-populated venue — selective, but with far more than k matches.
fn busiest_venue(net: &CitationNetwork) -> VenueId {
    let venues = net.venues().expect("DBLP profile has venues");
    (0..venues.n_venues() as VenueId)
        .max_by_key(|&v| venues.n_papers_at(v))
        .expect("at least one venue")
}

fn bench_sharded(c: &mut Criterion) {
    let net = generate(&DatasetProfile::dblp().scaled(SCALE), 7);
    let venue = busiest_venue(&net);
    let plan = ShardSpec::Fixed(N_SHARDS)
        .plan(&net)
        .expect("non-empty corpus");

    // Year window over the newest ~n/32 papers, opened strictly inside
    // the tail band when its span allows, so every earlier shard's span
    // ends before the window and the prune leaves exactly one shard.
    let (tail_first, tail_last) = plan.year_span(plan.tail());
    let newest = net.years()[SCALE - SCALE / 32];
    let lo = if tail_last > tail_first {
        newest.max(tail_first + 1)
    } else {
        tail_first
    };

    let sharded =
        ShardedEngine::from_plan(&net, &plan, "cc", RerankPolicy::EveryBatch).expect("cc shards");
    let flat = QueryEngine::from_configs(net.clone(), &["cc"], RerankPolicy::EveryBatch)
        .expect("cc engine builds");
    let flat_snap = flat.snapshot(None).expect("default method");

    let year_q: Query = format!("k={K},year={lo}..").parse().unwrap();
    let venue_q: Query = format!("k={K},venue={venue},year={lo}..").parse().unwrap();

    // Sanity: the window must match papers and actually prune shards,
    // otherwise the recorded ratios measure nothing.
    let page = sharded.query(&year_q, None).expect("year query serves");
    assert!(!page.items.is_empty(), "year window matched no papers");
    assert!(
        page.shards_scanned < N_SHARDS / 2,
        "year window failed to prune: scanned {} of {}",
        page.shards_scanned,
        page.shards_total
    );
    println!(
        "sharded year query: scanned {} of {} shards, {} matches, {} boundary edges absorbed",
        page.shards_scanned,
        page.shards_total,
        page.matched,
        sharded.boundary_edges()
    );

    let mut group = c.benchmark_group("sharded");

    group.bench_function("year_filtered_8shard_200k", |b| {
        b.iter(|| black_box(sharded.query(black_box(&year_q), None).unwrap()))
    });

    group.bench_function("year_filtered_unsharded_200k", |b| {
        b.iter(|| black_box(flat.query_at(&flat_snap, black_box(&year_q)).unwrap()))
    });

    let years = flat_snap.network().years().to_vec();
    group.bench_function("year_filtered_scan_200k", |b| {
        b.iter(|| {
            let scores = flat_snap.scores().as_slice();
            black_box(top_k_where(scores, 0..SCALE as u32, K, |id| {
                years[id as usize] >= lo
            }))
        })
    });

    group.bench_function("venue_year_8shard_200k", |b| {
        b.iter(|| black_box(sharded.query(black_box(&venue_q), None).unwrap()))
    });

    group.bench_function("venue_year_unsharded_200k", |b| {
        b.iter(|| black_box(flat.query_at(&flat_snap, black_box(&venue_q)).unwrap()))
    });

    // Ingest: one new paper citing the newest one, published every batch.
    let current_year = net.current_year().expect("non-empty corpus");
    let mut tail_next = SCALE as PaperId;
    group.bench_function("tail_ingest_8shard_200k", |b| {
        b.iter(|| {
            let mut d = GraphDelta::new();
            d.add_paper(current_year);
            d.add_citation(tail_next, tail_next - 1);
            tail_next += 1;
            black_box(sharded.ingest(&d).expect("tail ingest"))
        })
    });

    let flat_eng = flat.engine(None).expect("default method");
    let mut flat_next = SCALE as PaperId;
    group.bench_function("full_ingest_unsharded_200k", |b| {
        b.iter(|| {
            let mut d = GraphDelta::new();
            d.add_paper(current_year);
            d.add_citation(flat_next, flat_next - 1);
            flat_next += 1;
            black_box(flat_eng.ingest(&d).expect("flat ingest"))
        })
    });

    group.finish();
}

criterion_group!(benches, bench_sharded);
criterion_main!(benches);
