//! The sharded engine's exactness contract, proptest-pinned.
//!
//! A 1-shard plan partitions nothing: no cross-shard edge exists, so the
//! single "shard" subgraph **is** the corpus and the sharded engine must
//! be indistinguishable from the unsharded one — scores bit-identical,
//! query pages identical (ids, scores, match counts), and cursor walks
//! tiling the same total order. Multi-shard plans must still merge their
//! per-shard runs into the exact `cmp_score_desc` order of the pooled
//! (score, global id) pairs.

use proptest::prelude::*;

use citegraph::{CitationNetwork, NetworkBuilder, ShardSpec, Year};
use rankengine::{
    Cursor, Query, QueryEngine, RankingEngine, RerankPolicy, ShardedEngine, ShardedPage,
};
use sparsela::cmp_score_desc;

/// A valid temporal network with venue + author metadata: years sorted
/// before insertion, edges pointing backwards, venue `i % 4` (3 = none),
/// authors `[i % 3]`.
fn network_strategy() -> impl Strategy<Value = CitationNetwork> {
    (2usize..40).prop_flat_map(|n| {
        let years = proptest::collection::vec(1990i32..2020, n).prop_map(|mut y| {
            y.sort_unstable();
            y
        });
        let edges = proptest::collection::vec((1u32..n as u32, 0u32..n as u32), 0..n * 3);
        (years, edges).prop_map(move |(years, edges)| {
            let mut b = NetworkBuilder::new();
            for (i, &y) in years.iter().enumerate() {
                let venue = match i % 4 {
                    3 => None,
                    v => Some(v as u32),
                };
                b.add_paper_with_metadata(y, vec![(i % 3) as u32], venue);
            }
            for &(citing, cited) in &edges {
                if cited < citing {
                    b.add_citation(citing, cited).unwrap();
                }
            }
            b.build().unwrap()
        })
    })
}

fn page_ids(page: &ShardedPage) -> Vec<(u64, u32)> {
    page.items
        .iter()
        .map(|h| (h.score.to_bits(), h.id))
        .collect()
}

/// A cursor's frontier — the `(score bits, last id)` fields of its token.
/// The generation field differs between the engines by design.
fn frontier(c: Option<Cursor>) -> Option<(String, String)> {
    let token = c?.to_string();
    let fields: Vec<&str> = token.split('-').collect();
    Some((fields[1].to_string(), fields[2].to_string()))
}

proptest! {
    /// 1-shard plan ≡ unsharded engine: scores bit-identical, pages
    /// identical — seeded or not, counted at `k = 0` or paged — and
    /// cursor walks tile the same sequence from the same frontiers.
    #[test]
    fn one_shard_plan_is_bit_identical_to_unsharded(
        net in network_strategy(),
        k in 1usize..6,
        lo in 1990i32..2020,
        span in 0i32..10,
    ) {
        let plan = ShardSpec::Fixed(1).plan(&net).unwrap();
        let sharded =
            ShardedEngine::from_plan(&net, &plan, "pagerank", RerankPolicy::EveryBatch).unwrap();
        let flat = QueryEngine::from_configs(net.clone(), &["pagerank"], RerankPolicy::EveryBatch)
            .unwrap();

        // Scores: bit-identical (no edge was dropped).
        let s_snap = sharded.shard_engines()[0].snapshot();
        let f_snap = flat.snapshot(None).unwrap();
        prop_assert_eq!(s_snap.n_papers(), f_snap.n_papers());
        for (a, b) in s_snap
            .scores()
            .as_slice()
            .iter()
            .zip(f_snap.scores().as_slice())
        {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }

        // Pages: identical hits and match counts for a spread of filters,
        // and full cursor walks tile the same sequence.
        let n = net.n_papers() as u32;
        let s1 = lo as u32 % n;
        let s2 = (s1 + 1 + span as u32) % n;
        let seeds = if s1 == s2 { s1.to_string() } else { format!("{s1}|{s2}") };
        let filters = [
            String::new(),
            ",venue=0".to_string(),
            ",author=1".to_string(),
            format!(",year={lo}..{}", lo + span),
            format!(",seed={seeds}"),
            format!(",seed={seeds},venue=0"),
            format!(",seed={seeds},year={lo}.."),
        ];
        for filter in &filters {
            // A k = 0 page is a count: no hits, no cursor.
            let count: Query = format!("k=0{filter}").parse().unwrap();
            let sp = sharded.query(&count, None).unwrap();
            let fp = flat.query_at(&f_snap, &count).unwrap();
            prop_assert!(sp.items.is_empty() && fp.items.is_empty(), "filter {:?}", filter);
            prop_assert_eq!(sp.matched, fp.matched, "filter {:?}, k=0", filter);
            prop_assert!(sp.next.is_none() && fp.next.is_none(), "filter {:?}", filter);

            let q: Query = format!("k={k}{filter}").parse().unwrap();
            let snaps = sharded.snapshots();
            let mut cursor = None;
            let mut flat_q = q.clone();
            loop {
                let sp = sharded.query_at(&snaps, &q, cursor.as_ref()).unwrap();
                let fp = flat.query_at(&f_snap, &flat_q).unwrap();
                prop_assert_eq!(page_ids(&sp), fp.items.iter()
                    .map(|h| (h.score.to_bits(), h.id)).collect::<Vec<_>>(),
                    "filter {:?}", filter);
                prop_assert_eq!(sp.matched, fp.matched, "filter {:?}", filter);
                prop_assert_eq!(frontier(sp.next), frontier(fp.next), "filter {:?}", filter);
                match (sp.next, fp.next) {
                    (Some(sc), Some(fc)) => {
                        cursor = Some(sc);
                        flat_q.cursor = Some(fc);
                    }
                    _ => break,
                }
            }
        }
    }

    /// Any shard count: the merged page equals the pooled per-shard
    /// (score, global id) pairs under the one total order.
    #[test]
    fn multi_shard_merge_is_the_pooled_total_order(
        net in network_strategy(),
        n_shards in 1usize..6,
        k in 1usize..8,
    ) {
        let plan = ShardSpec::Fixed(n_shards).plan(&net).unwrap();
        let sharded =
            ShardedEngine::from_plan(&net, &plan, "cc", RerankPolicy::EveryBatch).unwrap();
        let snaps = sharded.snapshots();
        let mut pool: Vec<(f64, u32)> = Vec::new();
        for s in 0..snaps.n_shards() {
            let snap = snaps.snapshot(s);
            for (local, &score) in snap.scores().as_slice().iter().enumerate() {
                pool.push((score, snaps.start(s) + local as u32));
            }
        }
        pool.sort_by(|&(xs, xi), &(ys, yi)| cmp_score_desc(xs, xi, ys, yi));

        let q: Query = format!("k={k}").parse().unwrap();
        let page = sharded.query_at(&snaps, &q, None).unwrap();
        let want: Vec<(u64, u32)> = pool
            .iter()
            .take(k)
            .map(|&(s, i)| (s.to_bits(), i))
            .collect();
        prop_assert_eq!(page_ids(&page), want);
        prop_assert_eq!(page.matched, pool.len());
    }
}

#[test]
fn one_shard_engine_reranks_identically_after_growth() {
    // Bit-identity holds across the write path too: same deltas, same
    // publishes, same scores.
    let mut b = NetworkBuilder::new();
    for i in 0..10u32 {
        b.add_paper_with_metadata(2000 + i as Year, vec![i % 2], Some(i % 3));
    }
    for i in 1..10u32 {
        b.add_citation(i, i - 1).unwrap();
    }
    let net = b.build().unwrap();
    let plan = ShardSpec::Fixed(1).plan(&net).unwrap();
    let sharded = ShardedEngine::from_plan(&net, &plan, "cc", RerankPolicy::EveryBatch).unwrap();
    let flat = RankingEngine::from_config(net, "cc", RerankPolicy::EveryBatch).unwrap();

    for round in 0..3u32 {
        let mut delta = citegraph::GraphDelta::new();
        delta.add_paper(2010 + round as Year);
        delta.add_citation(10 + round, round);
        sharded.ingest(&delta).unwrap();
        flat.ingest(&delta).unwrap();
    }
    let a = sharded.shard_engines()[0].snapshot();
    let b = flat.snapshot();
    assert_eq!(a.epoch(), b.epoch());
    for (x, y) in a.scores().as_slice().iter().zip(b.scores().as_slice()) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
}
