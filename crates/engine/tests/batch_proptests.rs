//! Batched serving's exactness contract, proptest-pinned.
//!
//! `query_batch` exists to amortize cost, never to change answers: every
//! member's page — hits, scores, match counts, minted cursors — and
//! every member's *typed error* must be exactly what sequential
//! execution against the same pinned snapshot returns. These properties
//! drive randomized query mixes (unfiltered, faceted, composed,
//! seeded, malformed) through the flat and sharded batch paths and
//! compare member-by-member, including cursor continuations, plus a
//! live-publisher test pinning the one-epoch-per-batch guarantee.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use citegraph::{CitationNetwork, GraphDelta, NetworkBuilder, ShardSpec, Year};
use rankengine::{Query, QueryEngine, RerankPolicy, ShardCursor, ShardedEngine};

/// Deterministic corpus with venue/author metadata: venue `i % 4`
/// (3 → none), authors `[i % 3]` plus author 3 on multiples of 5, and a
/// dense backward citation fan giving distinct score mass per paper.
fn corpus(n: u32) -> CitationNetwork {
    let mut b = NetworkBuilder::new();
    for i in 0..n {
        let mut authors = vec![i % 3];
        if i % 5 == 0 {
            authors.push(3);
        }
        let venue = match i % 4 {
            3 => None,
            v => Some(v),
        };
        b.add_paper_with_metadata(1995 + (i / 2) as Year, authors, venue);
    }
    for i in 1..n {
        for j in 0..i {
            if (i + j) % 3 != 0 {
                b.add_citation(i, j).unwrap();
            }
        }
    }
    b.build().unwrap()
}

/// One random workload member, picked by a variant index (the offline
/// proptest shim has no `prop_oneof!`). Deliberately wider than the
/// valid space: out-of-range facet ids and unknown methods must come
/// back as the same typed errors batched as sequential.
fn query_strategy(n: u32) -> impl Strategy<Value = Query> {
    (
        (0usize..7, 0usize..8, 0u32..6),
        (0u32..5, 1995i32..2015, 0i32..8),
        (0..n + 3, 0..n + 3),
    )
        .prop_map(|((variant, k, v), (a, lo, span), (s1, s2))| {
            let k = k.max(1); // only the venue shape exercises k=0
            let s = match variant {
                0 => format!("k={k}"),
                1 => format!("k={},venue={v}", k - 1),
                2 => format!("k={k},author={a}"),
                3 => format!("k={k},author={},year={lo}..{}", a.min(3), lo + span),
                4 => format!("k={k},venue={},author={}", v.min(3), a.min(3)),
                5 if s1 == s2 => format!("method=pagerank,k={k},seed={s1}"),
                5 => {
                    let (lo_s, hi_s) = (s1.min(s2), s1.max(s2));
                    format!("method=pagerank,k={k},seed={lo_s}|{hi_s}")
                }
                _ => "method=nope,k=3".to_string(),
            };
            s.parse::<Query>()
                .expect("strategy emits parseable grammar")
        })
}

/// Like [`query_strategy`] but without `method=` members: the sharded
/// engine serves one config ("cc"), so its seeded shape exercises the
/// typed no-damping error instead.
fn sharded_query_strategy(n: u32) -> impl Strategy<Value = Query> {
    (
        (0usize..5, 0usize..8, 0u32..6),
        (0u32..5, 1995i32..2015, 0i32..8),
        0..n,
    )
        .prop_map(|((variant, k, v), (a, lo, span), s)| {
            let k = k.max(1);
            let q = match variant {
                0 => format!("k={k}"),
                1 => format!("k={},venue={v}", k - 1),
                2 => format!("k={k},author={a}"),
                3 => format!("k={k},author={},year={lo}..{}", a.min(3), lo + span),
                _ => format!("k={k},seed={s}"),
            };
            q.parse::<Query>()
                .expect("strategy emits parseable grammar")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Flat engine: `query_batch_at` ≡ member-wise `query_at` — same
    /// pages, same cursors, same typed errors — including the cursor
    /// continuations the first round mints.
    #[test]
    fn flat_batch_equals_sequential(
        queries in proptest::collection::vec(query_strategy(30), 1..20),
    ) {
        let qe = QueryEngine::from_configs(
            corpus(30),
            &["cc", "pagerank"],
            RerankPolicy::EveryBatch,
        )
        .unwrap();
        let snap = qe.snapshot(None).unwrap();

        let batch = qe.query_batch_at(&snap, &queries);
        prop_assert_eq!(batch.len(), queries.len());
        let mut continuations = Vec::new();
        for (q, got) in queries.iter().zip(&batch) {
            let want = qe.query_at(&snap, q);
            prop_assert_eq!(got, &want, "query {}", q);
            if let Ok(page) = got {
                if let Some(cursor) = page.next {
                    let mut next = q.clone();
                    next.cursor = Some(cursor);
                    continuations.push(next);
                }
            }
        }

        // Second pages resume identically through the batch path too.
        let batch2 = qe.query_batch_at(&snap, &continuations);
        for (q, got) in continuations.iter().zip(&batch2) {
            let want = qe.query_at(&snap, q);
            prop_assert_eq!(got, &want, "continuation {}", q);
        }
    }

    /// Sharded engine: `query_batch_at` ≡ member-wise `query_at` across
    /// shard counts, including shard-cursor continuations. Pages and
    /// errors compare by debug rendering.
    #[test]
    fn sharded_batch_equals_sequential(
        queries in proptest::collection::vec(sharded_query_strategy(30), 1..16),
        n_shards in 1usize..5,
    ) {
        let net = corpus(30);
        let plan = ShardSpec::Fixed(n_shards).plan(&net).unwrap();
        let eng = ShardedEngine::from_plan(&net, &plan, "cc", RerankPolicy::EveryBatch).unwrap();
        let snaps = eng.snapshots();

        let batch: Vec<(Query, Option<ShardCursor>)> =
            queries.iter().map(|q| (q.clone(), None)).collect();
        let got = eng.query_batch_at(&snaps, &batch);
        prop_assert_eq!(got.len(), batch.len());
        let mut continuations: Vec<(Query, Option<ShardCursor>)> = Vec::new();
        for ((q, cursor), g) in batch.iter().zip(&got) {
            let want = eng.query_at(&snaps, q, cursor.as_ref());
            prop_assert_eq!(format!("{g:?}"), format!("{want:?}"), "query {}", q);
            if let Ok(page) = g {
                if let Some(c) = page.next {
                    continuations.push((q.clone(), Some(c)));
                }
            }
        }

        let got2 = eng.query_batch_at(&snaps, &continuations);
        for ((q, cursor), g) in continuations.iter().zip(&got2) {
            let want = eng.query_at(&snaps, q, cursor.as_ref());
            prop_assert_eq!(format!("{g:?}"), format!("{want:?}"), "continuation {}", q);
        }
    }
}

/// A batch pins its snapshot before the first member runs: under a
/// publisher hammering ingest+re-rank, every page in the batch reports
/// the pinned epoch and matches sequential execution against that same
/// snapshot — no member ever straddles a publish.
#[test]
fn batch_pins_one_epoch_under_concurrent_publishes() {
    let qe =
        Arc::new(QueryEngine::from_configs(corpus(40), &["cc"], RerankPolicy::EveryBatch).unwrap());
    let queries: Vec<Query> = ["k=4", "k=4,venue=0", "k=4,author=1,year=2000..", "k=0"]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect();

    let stop = Arc::new(AtomicBool::new(false));
    let publisher = {
        let qe = Arc::clone(&qe);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut n = qe.snapshot(None).unwrap().n_papers() as u32;
            while !stop.load(Ordering::Relaxed) {
                let mut d = GraphDelta::new();
                d.add_paper(2030);
                d.add_citation(n, n % 40);
                qe.ingest(&d).unwrap();
                n += 1;
            }
        })
    };

    for _ in 0..50 {
        let snap = qe.snapshot(None).unwrap();
        let batch = qe.query_batch_at(&snap, &queries);
        for (q, got) in queries.iter().zip(&batch) {
            let page = got.as_ref().expect("workload members serve");
            assert_eq!(page.epoch, snap.epoch(), "member left the pinned epoch");
            assert_eq!(got, &qe.query_at(&snap, q));
        }
    }
    stop.store(true, Ordering::Relaxed);
    publisher.join().unwrap();
}
