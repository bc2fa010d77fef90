//! A score vector's block-maxima summaries — over ids and over venue
//! postings — are built where the vector is frozen —
//! `RankingEngine::freeze_with` for an epoch, the personalization cache's
//! solve for a seeded one — so they can never describe another vector.
//! Pinned here for every way a vector comes to be served: the initial
//! rank, a push publish, a full-solve publish, an epoch restored from a
//! store, a cache entry served on a later epoch, and a sharded
//! tail partition re-frozen by a tail publish. In each, the block-pruned
//! pages (unfiltered, year windows, one venue and an OR of two, each
//! resumed behind cursors) and the shallow pages the summaries' heads
//! serve (pages 1 and 2, unfiltered, of a year window and of every
//! `year=Y..` suffix, each also of one venue and of an OR of two) must
//! equal a fresh full sort.

use std::path::PathBuf;

use citegen::{generate, DatasetProfile};
use citegraph::ShardSpec;
use citegraph::{CitationNetwork, GraphDelta, PaperId, VenueId};
use rankengine::{
    EpochSnapshot, Hit, Query, QueryDriver, QueryEngine, RankingEngine, RerankPolicy,
    RerankStrategy, ShardedEngine,
};
use sparsela::{cmp_score_desc, sort_indices_desc, HEAD_LEN};

const SCALE: usize = 3_000;

/// A corpus whose busiest venue has several heads' worth of papers (~960;
/// at `SCALE` it has 40), so a page deeper than a head is walked and the
/// walk still has blocks to skip.
const VENUE_SCALE: usize = 100_000;

fn temp_store(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("rankengine_block_summary_tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}.store", std::process::id()))
}

/// Every page of `filter` off one pinned snapshot, `k` hits at a time.
/// Each page's `matched` must count exactly what is still to come.
fn walk(qe: &QueryEngine, snap: &EpochSnapshot, filter: &str, k: usize, total: usize) -> Vec<Hit> {
    let mut q: Query = format!("k={k},{filter}").parse().unwrap();
    let mut hits: Vec<Hit> = Vec::new();
    loop {
        let page = qe.query_at(snap, &q).unwrap();
        assert_eq!(
            page.matched,
            total - hits.len(),
            "{filter} after {}",
            hits.len()
        );
        hits.extend(&page.items);
        match page.next {
            Some(cursor) => q.cursor = Some(cursor),
            None => return hits,
        }
    }
}

/// The pages a head serves — pages 1 and 2 at `k` = 10, 25 and 100 —
/// of `filter` on `snap`, against `want`, its full order.
fn assert_head_pages(qe: &QueryEngine, snap: &EpochSnapshot, filter: &str, want: &[PaperId]) {
    let ids = |page: &rankengine::Page| page.items.iter().map(|h| h.id).collect::<Vec<_>>();
    for k in [10, 25, 100] {
        let mut q: Query = format!("k={k},{filter}").parse().unwrap();
        let first = qe.query_at(snap, &q).unwrap();
        assert_eq!(ids(&first), want[..k.min(want.len())], "k={k},{filter}");
        assert_eq!(first.matched, want.len(), "k={k},{filter}");
        if first.next.is_none() {
            continue;
        }
        q.cursor = first.next;
        let second = qe.query_at(snap, &q).unwrap();
        let rest = &want[k..];
        assert_eq!(
            ids(&second),
            rest[..k.min(rest.len())],
            "k={k},{filter} page 2"
        );
        assert_eq!(second.matched, rest.len(), "k={k},{filter} page 2");
    }
}

/// The two venues with the most papers, busiest first.
fn busiest_venues(net: &CitationNetwork) -> (VenueId, VenueId) {
    let table = net.venues().expect("the DBLP profile has venues");
    let mut venues: Vec<VenueId> = (0..table.n_venues() as VenueId).collect();
    venues.sort_by_key(|&v| std::cmp::Reverse(table.n_papers_at(v)));
    (venues[0], venues[1])
}

/// The pages of a method's epoch `snap` against a fresh full sort of its
/// scores: everything, and two year windows that start and end mid-block,
/// each over every paper, one venue, and an OR of two venues.
fn assert_pages_are_the_full_sort(
    qe: &QueryEngine,
    snap: &EpochSnapshot,
    method: &str,
    case: &str,
) {
    let net = snap.network();
    let full = sort_indices_desc(snap.scores().as_slice());
    let years = net.years();
    let (early, late) = (years[SCALE / 3], years[2 * SCALE / 3]);
    let (a, b) = busiest_venues(net);
    let venue = |id: PaperId| net.venues().unwrap().venue_of(id);
    for (window, lo, hi) in [
        (String::new(), None, None),
        (format!("year={late}.."), Some(late), None),
        (format!("year={early}..{late}"), Some(early), Some(late)),
    ] {
        for (facet, venues) in [
            (String::new(), vec![]),
            (format!("venue={a},"), vec![a]),
            (format!("venue={a}|{b},"), vec![a, b]),
        ] {
            let want: Vec<PaperId> = full
                .iter()
                .copied()
                .filter(|&id| {
                    lo.is_none_or(|y| net.year(id) >= y)
                        && hi.is_none_or(|y| net.year(id) <= y)
                        && (venues.is_empty() || venue(id).is_some_and(|v| venues.contains(&v)))
                })
                .collect();
            let filter = format!("method={method},{facet}{window}");
            let filter = filter.trim_end_matches(',');
            if !venues.is_empty() {
                let plan = qe.explain(&filter.parse().unwrap()).unwrap();
                assert!(
                    matches!(plan.driver, QueryDriver::VenueBands { .. }),
                    "{filter}: {plan:?}"
                );
            }
            let got = walk(qe, snap, filter, 97, want.len());
            let got: Vec<PaperId> = got.iter().map(|h| h.id).collect();
            assert_eq!(got, want, "{case}: {filter}");
            assert_head_pages(qe, snap, filter, &want);
            // A first page small enough that the walk prunes.
            let first = qe
                .query_at(snap, &format!("k=5,{filter}").parse().unwrap())
                .unwrap();
            let first: Vec<PaperId> = first.items.iter().map(|h| h.id).collect();
            assert_eq!(first, want[..5.min(want.len())], "{case}: {filter}");
        }
    }
    for venues in [vec![], vec![a], vec![a, b]] {
        assert_year_pages(qe, snap, &format!("method={method}"), &venues, &full);
    }
    for k in [0, 1, 10, 100, SCALE + 100] {
        assert_eq!(
            snap.top_k(k),
            full[..k.min(full.len())],
            "{case}: top_k({k})"
        );
    }
}

/// Every `year=Y..` page a year cut's heads serve — pages 1 and 2 at `k`
/// = 10, 25 and 100 — for every year of `snap`'s network, of `filter`
/// (a method, seeds) at `venues` (any venue when empty) on `snap`, against
/// `ranking`, its full order.
fn assert_year_pages(
    qe: &QueryEngine,
    snap: &EpochSnapshot,
    filter: &str,
    venues: &[VenueId],
    ranking: &[PaperId],
) {
    let net = snap.network();
    let at = |id: PaperId| {
        venues.is_empty()
            || net
                .venues()
                .unwrap()
                .venue_of(id)
                .is_some_and(|v| venues.contains(&v))
    };
    let ids: Vec<String> = venues.iter().map(|v| v.to_string()).collect();
    let facet = match ids.is_empty() {
        true => String::new(),
        false => format!(",venue={}", ids.join("|")),
    };
    for start in net.year_starts() {
        let year = net.year(start);
        let want: Vec<PaperId> = ranking
            .iter()
            .copied()
            .filter(|&id| id >= start && at(id))
            .collect();
        assert_head_pages(qe, snap, &format!("{filter}{facet},year={year}.."), &want);
    }
}

/// A batch of new papers citing into the corpus.
fn growth(n_papers: usize, year: i32, batch: usize) -> GraphDelta {
    let mut delta = GraphDelta::new();
    for j in 0..batch {
        let id = (n_papers + delta.add_paper(year)) as PaperId;
        delta.add_citation(id, (j * 7 % n_papers) as PaperId);
        delta.add_citation(id, (j * 131 % n_papers) as PaperId);
    }
    delta
}

#[test]
fn a_summary_is_never_stale() {
    let net = generate(&DatasetProfile::dblp().scaled(SCALE), 11);
    let year = net.current_year().unwrap();
    let qe = QueryEngine::from_configs(
        net,
        &["attrank", "cc", "pagerank"],
        RerankPolicy::EveryBatch,
    )
    .unwrap();
    for method in ["attrank", "cc"] {
        let snap = qe.snapshot(Some(method)).unwrap();
        assert_pages_are_the_full_sort(&qe, &snap, method, "initial rank");
    }

    // A seeded solve cached on epoch 0, for the later epoch below.
    let seeded = "method=pagerank,seed=5|17|1200";
    let snap = qe.snapshot(Some("pagerank")).unwrap();
    let cold = walk(&qe, &snap, seeded, 97, snap.n_papers());
    assert_eq!(qe.personalization_stats().cold_pushes, 1);

    // Two delta publishes: the first builds attrank's push state behind a
    // full solve, the second is a push. cc has no push — every delta
    // publish of it is a full solve.
    for round in 0..2 {
        qe.ingest(&growth(SCALE + 20 * round, year + 1, 20))
            .unwrap();
    }
    let attrank = qe.snapshot(Some("attrank")).unwrap();
    assert!(matches!(attrank.strategy(), RerankStrategy::Push { .. }));
    assert_pages_are_the_full_sort(&qe, &attrank, "attrank", "push publish");
    let cc = qe.snapshot(Some("cc")).unwrap();
    assert_eq!(cc.strategy(), RerankStrategy::Full);
    assert_pages_are_the_full_sort(&qe, &cc, "cc", "full-solve publish");

    // The seeded vector served on the last epoch: its pages are in
    // order, complete, and not the old epoch's.
    let snap = qe.snapshot(Some("pagerank")).unwrap();
    let stale = qe.personalization_stats();
    let warm = walk(&qe, &snap, seeded, 97, snap.n_papers());
    let stats = qe.personalization_stats();
    assert_eq!(
        (stats.warm_repushes + stats.cold_pushes) - (stale.warm_repushes + stale.cold_pushes),
        1,
        "one solve for the new epoch, then hits"
    );
    assert_eq!(warm.len(), SCALE + 40);
    assert!(warm.len() > cold.len());
    for pair in warm.windows(2) {
        assert_eq!(
            cmp_score_desc(pair[0].score, pair[0].id, pair[1].score, pair[1].id),
            std::cmp::Ordering::Less,
            "seeded pages out of order at {:?}",
            pair
        );
    }
    let mut seen: Vec<PaperId> = warm.iter().map(|h| h.id).collect();
    seen.sort_unstable();
    assert!(seen.iter().copied().eq(0..(SCALE + 40) as PaperId));
    let net = snap.network();
    let late = net.years()[2 * SCALE / 3];
    // Its shallow pages are slices of its head: the ranking above, and
    // the ranking above cut to a year window.
    let warm_ids: Vec<PaperId> = warm.iter().map(|h| h.id).collect();
    assert_head_pages(&qe, &snap, seeded, &warm_ids);
    let recent: Vec<PaperId> = warm
        .iter()
        .filter(|h| h.year >= late)
        .map(|h| h.id)
        .collect();
    assert_head_pages(&qe, &snap, &format!("{seeded},year={late}.."), &recent);
    let (a, b) = busiest_venues(net);
    for venues in [vec![], vec![a], vec![a, b]] {
        assert_year_pages(&qe, &snap, seeded, &venues, &warm_ids);
    }
    // Seeded venue pages off the same re-pushed entry read its venue
    // summary: the ranking above, cut to the venues and a year window.
    for venues in [vec![a], vec![a, b]] {
        let want: Vec<PaperId> = warm
            .iter()
            .filter(|h| h.year >= late && h.venue.is_some_and(|v| venues.contains(&v)))
            .map(|h| h.id)
            .collect();
        let list: Vec<String> = venues.iter().map(|v| v.to_string()).collect();
        let filter = format!("{seeded},venue={},year={late}..", list.join("|"));
        let got = walk(&qe, &snap, &filter, 7, want.len());
        let got: Vec<PaperId> = got.iter().map(|h| h.id).collect();
        assert_eq!(got, want, "warm re-push: {filter}");
    }
    assert_eq!(
        qe.personalization_stats().warm_repushes,
        stats.warm_repushes
    );

    // An epoch restored from a store: frozen by the same function.
    let path = temp_store("restored");
    let engine = qe.engine(Some("attrank")).unwrap();
    engine.persist_epoch(&path).unwrap();
    let cold_start =
        RankingEngine::open_from_store(&path, None::<&PathBuf>, RerankPolicy::Manual).unwrap();
    let restored = cold_start.engine().snapshot();
    assert_eq!(restored.strategy(), RerankStrategy::Restored);
    assert_pages_are_the_full_sort(&qe, &restored, "attrank", "restored epoch");
    cold_start.wait();
    let _ = std::fs::remove_file(&path);

    // A sharded tail partition, re-frozen by a tail publish: its own
    // top-k, and the shallow global pages it takes part in.
    let net = generate(&DatasetProfile::dblp().scaled(SCALE), 11);
    let plan = ShardSpec::Fixed(4).plan(&net).unwrap();
    let eng = ShardedEngine::from_plan(&net, &plan, "attrank", RerankPolicy::EveryBatch).unwrap();
    let report = eng.ingest(&growth(SCALE, year + 1, 20)).unwrap();
    assert_eq!(report.shard, 3, "growth lands on the tail");
    let snaps = eng.snapshots();
    let tail = snaps.snapshot(3);
    let full = sort_indices_desc(tail.scores().as_slice());
    for k in [1, 10, 100, full.len() + 1] {
        assert_eq!(tail.top_k(k), full[..k.min(full.len())], "tail top_k({k})");
    }
    let years: Vec<_> = net.year_starts().iter().map(|&id| net.year(id)).collect();
    let windows = std::iter::once(None).chain(years.into_iter().chain([year + 1]).map(Some));
    let (a, b) = busiest_venues(&net);
    for (lo, venues) in windows.flat_map(|lo| [vec![], vec![a], vec![a, b]].map(|v| (lo, v))) {
        let ids: Vec<String> = venues.iter().map(|v| v.to_string()).collect();
        let mut filter = lo.map_or(String::new(), |y| format!("year={y}.."));
        if !ids.is_empty() {
            filter = format!("venue={},{filter}", ids.join("|"));
        }
        let filter = filter.trim_end_matches(',');
        let mut pool: Vec<(f64, PaperId)> = Vec::new();
        for s in 0..snaps.n_shards() {
            let (snap, start) = (snaps.snapshot(s), snaps.start(s));
            let (scores, net) = (snap.scores().as_slice(), snap.network());
            let at = |l: PaperId| {
                net.venues()
                    .unwrap()
                    .venue_of(l)
                    .is_some_and(|v| venues.contains(&v))
            };
            pool.extend(
                (0..snap.n_papers() as PaperId)
                    .filter(|&l| lo.is_none_or(|y| net.year(l) >= y))
                    .filter(|&l| venues.is_empty() || at(l))
                    .map(|l| (scores[l as usize], start + l)),
            );
        }
        pool.sort_by(|&(xs, xi), &(ys, yi)| cmp_score_desc(xs, xi, ys, yi));
        let want: Vec<PaperId> = pool.into_iter().map(|(_, id)| id).collect();
        for k in [10, 25, 100] {
            let q: Query = format!("k={k},{filter}")
                .trim_end_matches(',')
                .parse()
                .unwrap();
            let first = eng.query_at(&snaps, &q, None).unwrap();
            let second = first
                .next
                .as_ref()
                .map(|cursor| eng.query_at(&snaps, &q, Some(cursor)).unwrap());
            for (page, at) in std::iter::once((first, 0)).chain(second.map(|p| (p, k))) {
                let got: Vec<PaperId> = page.items.iter().map(|h| h.id).collect();
                let rest = &want[at.min(want.len())..];
                assert_eq!(
                    got,
                    rest[..k.min(rest.len())],
                    "sharded k={k},{filter} from {at}"
                );
                assert_eq!(page.matched, rest.len(), "sharded k={k},{filter}");
            }
        }
    }
}

#[test]
fn a_head_served_page_skips_every_block() {
    let net = generate(&DatasetProfile::dblp().scaled(SCALE), 11);
    let mut qe = QueryEngine::from_configs(net, &["attrank"], RerankPolicy::Manual).unwrap();
    let registry = qe.enable_metrics();
    let blocks = |outcome: &str| -> u64 {
        let series = format!("attrank_select_blocks_total{{outcome=\"{outcome}\"}} ");
        let text = registry.render();
        let line = text.lines().find_map(|l| l.strip_prefix(series.as_str()));
        line.map_or(0, |v| v.parse().unwrap())
    };
    let n_blocks = SCALE.div_ceil(sparsela::BLOCK_LEN) as u64;
    let mut q: Query = "k=10".parse().unwrap();
    // Page 1, then page 2 behind its cursor: both slices of the head.
    for page in 1..=2 {
        let (scanned, skipped) = (blocks("scanned"), blocks("skipped"));
        let served = qe.query(&q).unwrap();
        assert_eq!(served.items.len(), 10);
        assert_eq!(blocks("scanned"), scanned, "page {page} read a block");
        assert_eq!(blocks("skipped"), skipped + n_blocks, "page {page}");
        q.cursor = served.next;
    }
}

#[test]
fn a_year_page_skips_every_block() {
    let net = generate(&DatasetProfile::dblp().scaled(SCALE), 11);
    let year = net.current_year().unwrap();
    let range = net.id_range_for_years(Some(year), None);
    let mut qe = QueryEngine::from_configs(net, &["attrank"], RerankPolicy::Manual).unwrap();
    let registry = qe.enable_metrics();
    let blocks = |outcome: &str| -> u64 {
        let series = format!("attrank_select_blocks_total{{outcome=\"{outcome}\"}} ");
        let text = registry.render();
        let line = text.lines().find_map(|l| l.strip_prefix(series.as_str()));
        line.map_or(0, |v| v.parse().unwrap())
    };
    let block = sparsela::BLOCK_LEN as u32;
    let n_blocks = (range.end.div_ceil(block) - range.start / block) as u64;
    let mut q: Query = format!("k=10,year={year}..").parse().unwrap();
    // Page 1, then page 2 behind its cursor: both slices of the head of
    // the current year's cut, which the first page builds uncounted.
    for page in 1..=2 {
        let (scanned, skipped) = (blocks("scanned"), blocks("skipped"));
        let served = qe.query(&q).unwrap();
        assert_eq!(served.items.len(), 10);
        assert_eq!(blocks("scanned"), scanned, "page {page} read a block");
        assert_eq!(blocks("skipped"), skipped + n_blocks, "page {page}");
        q.cursor = served.next;
    }
}

#[test]
fn a_venue_page_counts_the_blocks_it_skips() {
    let net = generate(&DatasetProfile::dblp().scaled(VENUE_SCALE), 11);
    let (a, _) = busiest_venues(&net);
    let band = net.venues().unwrap().papers_at(a).len();
    assert!(band > 3 * HEAD_LEN, "the busiest venue has {band} papers");
    let mut qe = QueryEngine::from_configs(net, &["attrank"], RerankPolicy::Manual).unwrap();
    let registry = qe.enable_metrics();
    let blocks = |outcome: &str| -> u64 {
        let series = format!("attrank_select_blocks_total{{outcome=\"{outcome}\"}} ");
        let text = registry.render();
        let line = text.lines().find_map(|l| l.strip_prefix(series.as_str()));
        line.map_or(0, |v| v.parse().unwrap())
    };
    let (scanned, skipped) = (blocks("scanned"), blocks("skipped"));
    let q: Query = format!("k=1,venue={a}").parse().unwrap();
    let plan = qe.explain(&q).unwrap();
    assert!(
        matches!(plan.driver, QueryDriver::VenueBands { .. }),
        "{plan:?}"
    );
    qe.query(&q).unwrap();
    // A slice of the venue's head: every block skipped, none read.
    let n_blocks = band.div_ceil(sparsela::POSTING_BLOCK_LEN) as u64;
    assert_eq!(blocks("scanned"), scanned);
    assert_eq!(blocks("skipped"), skipped + n_blocks);
    // A page deeper than a head is walked: it read at least one block and
    // skipped at least one.
    let deep: Query = format!("k={},venue={a}", HEAD_LEN + 1).parse().unwrap();
    let (scanned, skipped) = (blocks("scanned"), blocks("skipped"));
    qe.query(&deep).unwrap();
    assert!(blocks("scanned") > scanned);
    assert!(blocks("skipped") > skipped);
}

#[test]
fn a_venue_year_page_skips_every_block() {
    let net = generate(&DatasetProfile::dblp().scaled(VENUE_SCALE), 11);
    let year = net.current_year().unwrap() - 3;
    let (a, b) = busiest_venues(&net);
    let range = net.id_range_for_years(Some(year), None);
    let band = |v: VenueId| citegraph::band_span(net.venues().unwrap().papers_at(v), &range);
    let blocks_of = |span: std::ops::Range<usize>| {
        let block = sparsela::POSTING_BLOCK_LEN;
        (span.end.div_ceil(block) - span.start / block) as u64
    };
    let (one, two) = (blocks_of(band(a)), blocks_of(band(a)) + blocks_of(band(b)));
    let mut qe = QueryEngine::from_configs(net, &["attrank"], RerankPolicy::Manual).unwrap();
    let registry = qe.enable_metrics();
    let counter = |series: &str| -> u64 {
        let text = registry.render();
        let line = text.lines().find_map(|l| l.strip_prefix(series));
        line.map_or(0, |v| v.trim().parse().unwrap())
    };
    let blocks = |outcome: &str| {
        counter(&format!(
            "attrank_select_blocks_total{{outcome=\"{outcome}\"}}"
        ))
    };
    let heads = |outcome: &str| {
        counter(&format!(
            "attrank_select_heads_total{{outcome=\"{outcome}\"}}"
        ))
    };
    // Pages 1 and 2 of one venue, then of an OR of two, since a year:
    // slices of the heads of the venues' cuts at that year, which the
    // first page of each builds, counted as builds and not as blocks.
    for (venues, n_blocks, builds) in [(format!("{a}"), one, 1), (format!("{a}|{b}"), two, 1)] {
        let mut q: Query = format!("k=10,year={year}..,venue={venues}")
            .parse()
            .unwrap();
        for page in 1..=2 {
            let (scanned, skipped) = (blocks("scanned"), blocks("skipped"));
            let (slices, built) = (heads("slice"), heads("build"));
            let served = qe.query(&q).unwrap();
            assert_eq!(served.items.len(), 10);
            assert_eq!(
                blocks("scanned"),
                scanned,
                "{venues} page {page} read a block"
            );
            assert_eq!(
                blocks("skipped"),
                skipped + n_blocks,
                "{venues} page {page}"
            );
            assert_eq!(heads("slice"), slices + 1, "{venues} page {page}");
            let fresh = if page == 1 { builds } else { 0 };
            assert_eq!(heads("build"), built + fresh, "{venues} page {page}");
            q.cursor = served.next;
        }
    }
}
