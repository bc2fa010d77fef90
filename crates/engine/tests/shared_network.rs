//! One network per corpus: the member engines of a [`QueryEngine`] share
//! a single `Arc<CitationNetwork>` at construction and across publishes —
//! the first member to publish a batch builds the successor, the others
//! adopt it — while a member whose lineage diverged keeps building (and
//! serving) its own.

use std::sync::Arc;

use citegen::{generate, publish_delta, DatasetProfile};
use citegraph::{CitationNetwork, GraphDelta, PaperId};
use rankengine::{QueryEngine, RankingEngine, RerankPolicy};

const METHODS: [&str; 3] = ["attrank", "cc", "pagerank"];

fn stack(policy: RerankPolicy) -> (CitationNetwork, QueryEngine) {
    let net = generate(&DatasetProfile::dblp().scaled(1_500), 7);
    let qe = QueryEngine::from_configs(net.clone(), &METHODS, policy).unwrap();
    (net, qe)
}

fn network_of(qe: &QueryEngine, method: &str) -> Arc<CitationNetwork> {
    qe.snapshot(Some(method)).unwrap().network().clone()
}

fn assert_all_share(qe: &QueryEngine) {
    let first = network_of(qe, METHODS[0]);
    for method in &METHODS[1..] {
        assert!(
            Arc::ptr_eq(&first, &network_of(qe, method)),
            "{method} serves a private copy of the network"
        );
    }
}

/// Every member's published scores are within 1e-9 of a from-scratch
/// solve of the same method over the network it serves.
fn assert_scores_match_scratch(qe: &QueryEngine) {
    for method in METHODS {
        let snap = qe.snapshot(Some(method)).unwrap();
        let scratch =
            RankingEngine::from_config((**snap.network()).clone(), method, RerankPolicy::Manual)
                .unwrap()
                .snapshot();
        assert_eq!(snap.scores().len(), scratch.scores().len());
        for (p, (a, b)) in snap
            .scores()
            .iter()
            .zip(scratch.scores().iter())
            .enumerate()
        {
            assert!((a - b).abs() <= 1e-9, "{method} paper {p}: {a} vs {b}");
        }
    }
}

#[test]
fn members_share_the_network_across_every_batch_publishes() {
    let (net, qe) = stack(RerankPolicy::EveryBatch);
    assert_all_share(&qe);
    let mut expected = net;
    for seed in 0..3 {
        let delta = publish_delta(&expected, 40, 4, seed);
        for report in qe.ingest(&delta).unwrap() {
            assert!(report.published);
        }
        expected = expected.with_delta(&delta).unwrap();
        assert_all_share(&qe);
        let shared = network_of(&qe, "attrank");
        assert_eq!(shared.refs_csr(), expected.refs_csr());
        assert_eq!(shared.citers_csr(), expected.citers_csr());
        assert_scores_match_scratch(&qe);
    }
}

#[test]
fn members_share_the_network_across_deferred_publishes() {
    let (net, qe) = stack(RerankPolicy::EveryNEdges(100));
    let mut expected = net;
    let mut published = 0;
    for seed in 0..6 {
        let delta = publish_delta(&expected, 40, 4, seed);
        let reports = qe.ingest(&delta).unwrap();
        expected = expected.with_delta(&delta).unwrap();
        // Members stage the same batches, so they publish together.
        assert!(reports.iter().all(|r| r.published == reports[0].published));
        assert_all_share(&qe);
        if reports[0].published {
            published += 1;
            assert_eq!(network_of(&qe, "cc").refs_csr(), expected.refs_csr());
            assert_scores_match_scratch(&qe);
        }
    }
    assert_eq!(published, 2, "6 batches of 40 edges cross 100 edges twice");
    // A manual rerank with nothing staged keeps the shared network.
    qe.rerank();
    assert_all_share(&qe);
}

#[test]
fn a_diverged_member_builds_its_own_successor() {
    let (net, qe) = stack(RerankPolicy::EveryBatch);
    let n = net.n_papers() as PaperId;
    let year = net.current_year().unwrap();

    // Diverge "cc" by one paper, ingested directly.
    let mut grow = GraphDelta::new();
    grow.add_paper(year);
    qe.engine(Some("cc")).unwrap().ingest(&grow).unwrap();
    assert!(!Arc::ptr_eq(
        &network_of(&qe, "attrank"),
        &network_of(&qe, "cc")
    ));

    // A batch valid on both lineages: paper `n` is new on the others and
    // the directly ingested paper on "cc", where the edge is a correction.
    for round in 0..2 {
        let mut delta = GraphDelta::new();
        delta.add_paper(year);
        delta.add_citation(n, round);
        qe.ingest(&delta).unwrap();

        let (attrank, cc) = (network_of(&qe, "attrank"), network_of(&qe, "cc"));
        assert!(!Arc::ptr_eq(&attrank, &cc), "shared across lineages");
        assert_eq!(cc.n_papers(), attrank.n_papers() + 1);
        assert_eq!(cc.references(n), attrank.references(n));
        assert_eq!(network_of(&qe, "pagerank").refs_csr(), attrank.refs_csr());
        assert_scores_match_scratch(&qe);
    }
}
