//! Shard-aware pagination under concurrent tail publishes.
//!
//! The sharded read contract: a reader holding one pinned
//! `ShardSnapshots` set walks `ShardCursor` pages while a writer routes
//! delta batches to the tail shard (each publishing a new tail epoch).
//! The concatenated pages must tile the pinned set's merged total order
//! exactly — no overlaps, no gaps, no items from newer tail epochs — and
//! a cursor minted on the pinned set must fail against the engine's
//! *current* set with a typed `StaleCursor`, never a silent re-anchor.

use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;
use std::time::Duration;

use citegen::{generate, DatasetProfile};
use citegraph::{GraphDelta, PaperId, ShardSpec};
use rankengine::{Query, QueryError, RerankPolicy, ShardCursor, ShardSnapshots, ShardedEngine};
use sparsela::cmp_score_desc;

const SCALE: usize = 3_000;
const N_SHARDS: usize = 6;
const WRITER_BATCHES: usize = 60;

/// Merged reference order over the pinned set: every shard's
/// (score, global id) pairs pooled, filtered like `q`, and sorted under
/// the one total order every page must tile.
fn reference(snaps: &ShardSnapshots, q: &Query) -> Vec<PaperId> {
    let mut pool: Vec<(f64, PaperId)> = Vec::new();
    for s in 0..snaps.n_shards() {
        let snap = snaps.snapshot(s);
        let net = snap.network();
        let scores = snap.scores().as_slice();
        for local in 0..net.n_papers() as u32 {
            let keep = (q.venues.is_empty()
                || net
                    .venues()
                    .unwrap()
                    .venue_of(local)
                    .is_some_and(|v| q.venues.contains(&v)))
                && q.year_min.is_none_or(|lo| net.year(local) >= lo)
                && q.year_max.is_none_or(|hi| net.year(local) <= hi);
            if keep {
                pool.push((scores[local as usize], snaps.start(s) + local));
            }
        }
    }
    pool.sort_by(|&(xs, xi), &(ys, yi)| cmp_score_desc(xs, xi, ys, yi));
    pool.into_iter().map(|(_, id)| id).collect()
}

#[test]
fn pinned_shard_pagination_is_immune_to_tail_publishes() {
    let net = generate(&DatasetProfile::dblp().scaled(SCALE), 11);
    let current_year = net.current_year().unwrap();
    let plan = ShardSpec::Fixed(N_SHARDS).plan(&net).unwrap();
    let eng = ShardedEngine::from_plan(&net, &plan, "cc", RerankPolicy::EveryBatch).unwrap();

    // Pin the epoch set *before* the writer starts.
    let pinned = eng.snapshots();
    let pinned_key = pinned.epoch_key();

    let max_published = AtomicU64::new(0);
    let (unfiltered_pages, venue_pages, year_pages) = thread::scope(|s| {
        // Writer: one global-id delta per batch, routed to the tail,
        // each publishing a new tail epoch.
        let writer = s.spawn(|| {
            for i in 0..WRITER_BATCHES {
                let mut delta = GraphDelta::new();
                let offset = delta.add_paper(current_year + 1);
                let new_id = (SCALE + i + offset) as PaperId;
                delta.add_citation(new_id, (SCALE - 1 - i % 50) as PaperId);
                delta.add_citation(new_id, 0); // cross-shard: absorbed
                let report = eng.ingest(&delta).expect("valid growth delta");
                assert_eq!(report.shard, N_SHARDS - 1, "always the tail");
                assert_eq!(report.boundary_edges, 1);
                assert!(report.report.published, "EveryBatch publishes");
                max_published.fetch_max(report.report.epoch, Ordering::Relaxed);
                thread::sleep(Duration::from_micros(200));
            }
        });

        // Reader: three cursor walks off the pinned set while the tail
        // churns epochs underneath.
        let reader = s.spawn(|| {
            let walk = |filter: &str, k: usize| {
                let q: Query = format!("k={k}{filter}").parse().unwrap();
                let mut cursor: Option<ShardCursor> = None;
                let mut got: Vec<PaperId> = Vec::new();
                loop {
                    let page = eng
                        .query_at(&pinned, &q, cursor.as_ref())
                        .expect("pinned set serves");
                    assert_eq!(page.epoch_key, pinned_key, "pages never leave the set");
                    assert!(page.items.len() <= k);
                    got.extend(page.items.iter().map(|h| h.id));
                    thread::sleep(Duration::from_micros(500));
                    match page.next {
                        Some(c) => cursor = Some(c),
                        None => return got,
                    }
                }
            };
            let unfiltered = walk("", 97);
            let venue = walk(",venue=0", 7);
            let year = walk(",year=1975..1995", 13);
            (unfiltered, venue, year)
        });

        writer.join().expect("writer");
        reader.join().expect("reader")
    });

    // The writer really did churn epochs while the reader walked.
    assert_eq!(max_published.load(Ordering::Relaxed), WRITER_BATCHES as u64);
    assert_ne!(eng.snapshots().epoch_key(), pinned_key);
    assert_eq!(eng.snapshots().n_papers(), SCALE + WRITER_BATCHES);

    // Every walk tiles the pinned set's merged total order exactly.
    assert_eq!(
        unfiltered_pages,
        reference(&pinned, &"k=1".parse().unwrap()),
        "unfiltered pages == merged order of the pinned set"
    );
    assert_eq!(
        venue_pages,
        reference(&pinned, &"k=1,venue=0".parse().unwrap()),
        "venue pages == filtered merged order"
    );
    assert_eq!(
        year_pages,
        reference(&pinned, &"k=1,year=1975..1995".parse().unwrap()),
        "year pages == filtered merged order (with pruned shards)"
    );
    assert!(!venue_pages.is_empty() && !year_pages.is_empty());

    // A pinned-set cursor is *typed*-stale against the advanced set.
    let first = eng
        .query_at(&pinned, &"k=7,venue=0".parse().unwrap(), None)
        .unwrap();
    let stale = first.next.expect("more than one page");
    match eng.query(&"k=7,venue=0".parse().unwrap(), Some(&stale)) {
        Err(QueryError::StaleCursor {
            cursor_epoch: cursor_key,
            current_epoch: current_key,
        }) => {
            assert_eq!(cursor_key, pinned_key);
            assert_eq!(current_key, eng.snapshots().epoch_key());
        }
        other => panic!("expected StaleCursor, got {other:?}"),
    }
}
