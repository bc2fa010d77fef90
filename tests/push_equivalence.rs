//! Push-vs-scratch equivalence under randomized `GraphDelta` batches.
//!
//! The incremental residual-push re-ranking path must be indistinguishable
//! (within 1e-9 per paper) from solving the updated network from scratch —
//! for AttRank (through the stateful component-split scorer) and for the
//! serving engine's PageRank (the uniform kernel scaled by `1−α`, pushed
//! across every publish) against the power iteration of
//! [`baselines::PageRank`], across deltas mixing new papers, new
//! citations from new papers, dangling new papers, bibliography
//! corrections between existing papers, and attention-window shifts. No
//! delta is too large to push. The forced-fallback path (zero push
//! budget) must degrade to the same answer via the full solve.

use attrank::{AttRank, AttRankParams, IncrementalAttRank};
use baselines::PageRank;
use citegen::{generate, DatasetProfile};
use citegraph::{CitationNetwork, DeltaStrategy, GraphDelta, PushRankConfig, Ranker};
use proptest::prelude::*;
use rankengine::{RankingEngine, RerankPolicy, RerankStrategy};

/// A randomized, always-valid delta against `net`: `n_new` papers in the
/// current year (so ids stay time-sorted), each citing a few distinct
/// existing papers, plus a few old→old bibliography corrections (citing
/// id strictly greater than cited id, which guarantees the time order).
fn random_delta(net: &CitationNetwork, n_new: usize, extra_edges: usize, seed: u64) -> GraphDelta {
    let n0 = net.n_papers() as u64;
    let year = net.current_year().expect("non-empty network");
    let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15).max(1);
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let mut d = GraphDelta::new();
    for _ in 0..n_new {
        let id = (n0 as usize + d.add_paper(year)) as u32;
        let refs = 1 + (next() % 4) as usize;
        let mut cited = std::collections::BTreeSet::new();
        while cited.len() < refs {
            cited.insert((next() % n0) as u32);
        }
        for c in cited {
            d.add_citation(id, c);
        }
    }
    for _ in 0..extra_edges {
        let citing = 1 + (next() % (n0 - 1)) as u32;
        let cited = (next() % citing as u64) as u32;
        d.add_citation(citing, cited);
    }
    d
}

/// The engine's `pagerank` scores against the power iteration on the
/// same network, ≤ 1e-9 per paper.
fn assert_pagerank_close(engine: &RankingEngine, damping: f64) -> Result<(), TestCaseError> {
    let snap = engine.snapshot();
    let scratch = PageRank::new(damping).rank(snap.network());
    for p in 0..snap.n_papers() {
        prop_assert!(
            (snap.scores()[p] - scratch[p]).abs() <= 1e-9,
            "epoch {} paper {}: engine {} vs scratch {}",
            snap.epoch(),
            p,
            snap.scores()[p],
            scratch[p]
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn attrank_push_matches_scratch(
        seed in 0u64..1_000_000,
        scale in 250usize..600,
        n_new in 0usize..4,
        extra in 1usize..6,
        alpha_pct in 1u32..8,
    ) {
        let alpha = alpha_pct as f64 * 0.1;
        let params = AttRankParams::new(alpha, 0.3, 3, -0.16).unwrap();
        let net = generate(&DatasetProfile::hepth().scaled(scale), seed);

        let mut inc = IncrementalAttRank::new(params);
        inc.update(&net);
        // The first delta publish pushes from the state `update` kept…
        let prime = random_delta(&net, 1, 1, seed ^ 0xabcd);
        let mid = net.with_delta(&prime).unwrap();
        let (_, s0) = inc.update_delta(&net, &prime, &mid);
        prop_assert!(matches!(s0, DeltaStrategy::Push { .. }), "{:?}", s0);

        // …then the randomized batch must push and agree with scratch.
        let delta = random_delta(&mid, n_new, extra, seed ^ 0x1234);
        let new = mid.with_delta(&delta).unwrap();
        let (diag, strategy) = inc.update_delta(&mid, &delta, &new);
        prop_assert!(
            matches!(strategy, DeltaStrategy::Push { .. }),
            "expected push, got {:?}", strategy
        );
        let scratch = AttRank::new(params).rank(&new);
        for p in 0..new.n_papers() {
            prop_assert!(
                (diag.scores[p] - scratch[p]).abs() < 1e-9,
                "paper {}: push {} vs scratch {}", p, diag.scores[p], scratch[p]
            );
        }
    }

    #[test]
    fn attrank_forced_fallback_matches_scratch(
        seed in 0u64..1_000_000,
        scale in 200usize..450,
        n_new in 0usize..3,
        extra in 1usize..5,
    ) {
        let params = AttRankParams::new(0.4, 0.3, 3, -0.16).unwrap();
        let net = generate(&DatasetProfile::hepth().scaled(scale), seed);
        let mut inc = IncrementalAttRank::new(params);
        inc.set_push_config(PushRankConfig::forced_fallback());
        inc.update(&net);
        let delta = random_delta(&net, n_new, extra, seed ^ 0x77);
        let new = net.with_delta(&delta).unwrap();
        let (diag, strategy) = inc.update_delta(&net, &delta, &new);
        prop_assert_eq!(strategy, DeltaStrategy::Full);
        let scratch = AttRank::new(params).rank(&new);
        for p in 0..new.n_papers() {
            prop_assert!(
                (diag.scores[p] - scratch[p]).abs() < 1e-9,
                "paper {} diverged on the fallback path", p
            );
        }
    }

    #[test]
    fn pagerank_engine_epochs_match_scratch(
        seed in 0u64..1_000_000,
        scale in 300usize..700,
        d_idx in 0usize..3,
        batches in proptest::collection::vec((0usize..3, 0usize..3, 1usize..4), 1..5),
    ) {
        let damping = [0.0, 0.5, 0.85][d_idx];
        let net = generate(&DatasetProfile::dblp().scaled(scale), seed);
        let spec = format!("pagerank:d={damping}");
        let engine = RankingEngine::from_config(net, spec.as_str(), RerankPolicy::EveryBatch)
            .unwrap();
        assert_pagerank_close(&engine, damping)?;
        for (i, &(n_new, n_dangling, extra)) in batches.iter().enumerate() {
            let snap = engine.snapshot();
            let net = snap.network();
            let mut delta = random_delta(net, n_new, extra, seed ^ ((i as u64 + 1) * 0x5555));
            // New papers that cite nothing: the dangling mass moves.
            let year = net.current_year().unwrap();
            for _ in 0..n_dangling {
                delta.add_paper(year);
            }
            engine.ingest(&delta).unwrap();
            let strategy = engine.snapshot().strategy();
            prop_assert!(
                matches!(strategy, RerankStrategy::Push { .. }),
                "publish {} ran {:?}", i, strategy
            );
            assert_pagerank_close(&engine, damping)?;
        }
    }
}

/// The engine's PageRank pushes even its *first* delta publish under the
/// default config: the kernel is its own push state, so the full re-rank
/// of epoch 0 leaves one.
#[test]
fn pagerank_small_delta_takes_push_path() {
    let net = generate(&DatasetProfile::dblp().scaled(2500), 7);
    let delta = random_delta(&net, 1, 2, 99);
    let engine =
        RankingEngine::from_config(net, "pagerank:d=0.5", RerankPolicy::EveryBatch).unwrap();
    engine.ingest(&delta).unwrap();
    let strategy = engine.snapshot().strategy();
    assert!(
        matches!(strategy, RerankStrategy::Push { .. }),
        "expected the push path, got {strategy:?}"
    );
}
