//! Integration tests for the serving engine: epoch consistency under
//! concurrent readers, and incremental re-ranks matching from-scratch
//! solves on the updated graph.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use attrank::{AttRank, AttRankParams};
use citegen::{generate, DatasetProfile};
use citegraph::{CitationNetwork, GraphDelta, PaperId, Ranker};
use rankengine::{RankingEngine, RerankPolicy, RerankStrategy};

/// Splits `full` at `start`: the base network is `full.prefix(start)`, and
/// the remaining papers arrive as per-paper deltas carrying every edge
/// incident to a new paper (including same-year forward references from
/// old papers, which `prefix` drops).
fn replay_deltas(full: &CitationNetwork, start: usize) -> (CitationNetwork, Vec<GraphDelta>) {
    let base = full.prefix(start);
    let mut deltas = Vec::new();
    for p in start..full.n_papers() {
        let p = p as PaperId;
        let mut d = GraphDelta::new();
        d.add_paper(full.year(p));
        for &cited in full.references(p) {
            d.add_citation(p, cited);
        }
        // Same-year papers published earlier may cite p.
        for &citing in full.citations(p) {
            if (citing as usize) < p as usize {
                d.add_citation(citing, p);
            }
        }
        deltas.push(d);
    }
    (base, deltas)
}

#[test]
fn incremental_ingest_matches_from_scratch_rerank() {
    let full = generate(&DatasetProfile::hepth().scaled(900), 17);
    let (base, deltas) = replay_deltas(&full, 700);

    let config = "attrank:alpha=0.4,beta=0.3,y=3,w=-0.2";
    let engine = RankingEngine::from_config(base, config, RerankPolicy::EveryNEdges(50)).unwrap();
    for d in &deltas {
        engine.ingest(d).unwrap();
    }
    // Flush whatever the edge-count policy left pending.
    engine.rerank();

    let snap = engine.snapshot();
    assert_eq!(snap.n_papers(), full.n_papers());
    assert_eq!(snap.n_citations(), full.n_citations());

    let params = AttRankParams::new(0.4, 0.3, 3, -0.2).unwrap();
    let scratch = AttRank::new(params).rank(&full);
    for p in 0..full.n_papers() {
        assert!(
            (snap.scores()[p] - scratch[p]).abs() < 1e-9,
            "paper {p}: engine {} vs scratch {}",
            snap.scores()[p],
            scratch[p]
        );
    }
}

#[test]
fn attrank_delta_publishes_take_the_push_path() {
    // Small per-paper deltas on a few-thousand-paper graph sit well under
    // the push gates: after the first publish (which runs full while the
    // component split is built), every epoch must be push-computed — and
    // the final scores must still match a from-scratch solve.
    let full = generate(&DatasetProfile::dblp().scaled(4000), 41);
    let (base, deltas) = replay_deltas(&full, 3960);
    let config = "attrank:alpha=0.5,beta=0.3,y=3,w=-0.16";
    let engine = RankingEngine::from_config(base, config, RerankPolicy::EveryBatch).unwrap();
    assert_eq!(engine.snapshot().strategy(), RerankStrategy::Initial);

    let mut pushed = 0usize;
    let mut total_edge_work = 0u64;
    for d in &deltas {
        assert!(engine.ingest(d).unwrap().published);
        if let RerankStrategy::Push { pushes, edge_work } = engine.snapshot().strategy() {
            assert!(pushes > 0 || edge_work == 0);
            total_edge_work += edge_work;
            pushed += 1;
        }
    }
    assert!(
        pushed >= deltas.len() - 1,
        "only {pushed}/{} delta publishes pushed",
        deltas.len()
    );
    // O(affected): a push publish must cost a small fraction of a full
    // solve (α = 0.5 needs ~30 sweeps of E+n each; on this small graph
    // the three push stages average under 2 sweeps combined).
    let sweep = (full.n_citations() + full.n_papers()) as u64;
    assert!(
        total_edge_work < deltas.len() as u64 * 5 * sweep,
        "push publishes averaged {} edge traversals (sweep = {sweep})",
        total_edge_work / deltas.len() as u64
    );

    let params = AttRankParams::new(0.5, 0.3, 3, -0.16).unwrap();
    let scratch = AttRank::new(params).rank(&full);
    let snap = engine.snapshot();
    for p in 0..full.n_papers() {
        assert!(
            (snap.scores()[p] - scratch[p]).abs() < 1e-9,
            "paper {p}: engine {} vs scratch {}",
            snap.scores()[p],
            scratch[p]
        );
    }
}

#[test]
fn a_pinned_pagerank_snapshot_keeps_its_bits_across_an_ingest() {
    // The push re-rank grows and rewrites its lane in place, so it must
    // run on a copy of the published scores, never on what a reader holds.
    let full = generate(&DatasetProfile::dblp().scaled(3000), 43);
    let (base, deltas) = replay_deltas(&full, 2990);
    let engine =
        RankingEngine::from_config(base, "pagerank:d=0.5", RerankPolicy::EveryBatch).unwrap();
    let bits = |s: &[f64]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for d in &deltas {
        let pinned = engine.snapshot();
        let before = bits(pinned.scores());
        assert!(engine.ingest(d).unwrap().published);
        let after = engine.snapshot();
        assert!(matches!(after.strategy(), RerankStrategy::Push { .. }));
        assert!(after.epoch() > pinned.epoch());
        assert_eq!(bits(pinned.scores()), before, "epoch {}", pinned.epoch());
    }
}

#[test]
fn pagerank_delta_publishes_push_without_split_build() {
    // PageRank's push is stateless (self-similar dangling resolution), so
    // even the *first* delta publish can push.
    let full = generate(&DatasetProfile::dblp().scaled(3000), 43);
    let (base, deltas) = replay_deltas(&full, 2980);
    let engine =
        RankingEngine::from_config(base, "pagerank:d=0.5", RerankPolicy::EveryBatch).unwrap();
    let mut pushed = 0usize;
    for d in &deltas {
        assert!(engine.ingest(d).unwrap().published);
        if matches!(engine.snapshot().strategy(), RerankStrategy::Push { .. }) {
            pushed += 1;
        }
    }
    assert_eq!(pushed, deltas.len(), "every PageRank publish should push");

    let scratch = rankengine::parse_and_build("pagerank:d=0.5")
        .unwrap()
        .rank(&full);
    let snap = engine.snapshot();
    for p in 0..full.n_papers() {
        assert!(
            (snap.scores()[p] - scratch[p]).abs() < 1e-9,
            "paper {p}: engine {} vs scratch {}",
            snap.scores()[p],
            scratch[p]
        );
    }
}

#[test]
fn batch_method_ingest_matches_from_scratch_too() {
    // The cold-path (non-AttRank) re-rank must also track the updated
    // graph exactly.
    let full = generate(&DatasetProfile::dblp().scaled(500), 23);
    let (base, deltas) = replay_deltas(&full, 420);
    let engine =
        RankingEngine::from_config(base, "ram:gamma=0.4", RerankPolicy::EveryBatch).unwrap();
    for d in &deltas {
        engine.ingest(d).unwrap();
    }
    let snap = engine.snapshot();
    let scratch = rankengine::parse_and_build("ram:gamma=0.4")
        .unwrap()
        .rank(&full);
    assert_eq!(snap.scores().as_slice(), scratch.as_slice());
}

#[test]
fn concurrent_readers_always_observe_a_consistent_epoch() {
    let full = generate(&DatasetProfile::hepth().scaled(600), 31);
    let (base, deltas) = replay_deltas(&full, 400);
    let base_papers = base.n_papers();

    let engine = Arc::new(
        RankingEngine::from_config(
            base,
            "attrank:alpha=0.3,beta=0.4,y=2,w=-0.16",
            RerankPolicy::EveryBatch,
        )
        .unwrap(),
    );
    let done = AtomicBool::new(false);

    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                let mut last_epoch = 0u64;
                let mut reads = 0usize;
                while !done.load(Ordering::Acquire) || reads < 50 {
                    let snap = engine.snapshot();

                    // Epochs only move forward.
                    assert!(
                        snap.epoch() >= last_epoch,
                        "epoch went backwards: {} after {last_epoch}",
                        snap.epoch()
                    );
                    last_epoch = snap.epoch();

                    // A snapshot is internally consistent: its score vector
                    // matches its advertised shape, and the paper count is
                    // exactly the base plus one paper per published epoch
                    // (EveryBatch publishes each single-paper delta).
                    assert_eq!(snap.scores().len(), snap.n_papers());
                    assert_eq!(snap.n_papers(), base_papers + snap.epoch() as usize);

                    // Queries against one snapshot are frozen: repeated
                    // calls agree with each other and with the raw scores,
                    // even if the writer publishes in between.
                    let top = snap.top_k(5);
                    assert_eq!(top, snap.top_k(5));
                    assert!(!top.is_empty());
                    assert_eq!(snap.rank_of(top[0]), Some(1));
                    let s0 = snap.score(top[0]).unwrap();
                    assert!(top.iter().all(|&p| snap.score(p).unwrap() <= s0));

                    reads += 1;
                }
            });
        }

        // Writer: fold in one delta per publish while readers hammer away.
        for d in &deltas {
            let report = engine.ingest(d).unwrap();
            assert!(report.published);
        }
        done.store(true, Ordering::Release);
    });

    assert_eq!(engine.snapshot().epoch(), deltas.len() as u64);
    assert_eq!(engine.snapshot().n_papers(), full.n_papers());
}

#[test]
fn retained_snapshot_survives_later_epochs_unchanged() {
    let full = generate(&DatasetProfile::hepth().scaled(300), 5);
    let (base, deltas) = replay_deltas(&full, 250);
    let engine = RankingEngine::from_config(base, "cc", RerankPolicy::EveryBatch).unwrap();

    let epoch0 = engine.snapshot();
    let frozen_top = epoch0.top_k(10);
    let frozen_scores = epoch0.scores().clone();
    for d in &deltas {
        engine.ingest(d).unwrap();
    }
    assert_eq!(epoch0.epoch(), 0);
    assert_eq!(epoch0.top_k(10), frozen_top);
    assert_eq!(epoch0.scores(), &frozen_scores);
    assert!(engine.snapshot().epoch() > 0);
}
