//! The scorer's one full solve — a 3-lane push from zero, resolved in
//! closed form — against the paper's power iteration, on small random
//! networks that include same-year citations to a higher id. Those are
//! cycles inside one year: the builder accepts them, the generated corpora
//! never contain them, and they are the one input on which the push's
//! descending-id cursor needs more than one pass. Covered for AttRank,
//! NO-ATT (`β = 0`) and `β = 0, w = 0` (PageRank) at
//! `α ∈ {0, 0.2, 0.5, 0.85}`:
//!
//! * `update` is within 1e-10 (L1) of `AttRank` power iteration at
//!   `ε = 1e-14`;
//! * `uniform_kernel` is within `1e-10/(1−α)` of the kernel built by power
//!   iteration;
//! * a forced-fallback `update_delta` is within 1e-10 of a scratch power
//!   solve and keeps the push state its full solve leaves.

use attrank::{AttRank, AttRankParams, IncrementalAttRank};
use citegraph::{
    uniform_kernel, CitationNetwork, DeltaStrategy, GraphDelta, NetworkBuilder, PaperId,
    PushRankConfig,
};
use proptest::prelude::*;
use sparsela::{KernelWorkspace, PowerEngine, PowerOptions, ScoreVec};

const ALPHAS: [f64; 4] = [0.0, 0.2, 0.5, 0.85];

/// Power iteration's stopping point for the references.
fn tight() -> PowerOptions {
    PowerOptions {
        epsilon: 1e-14,
        max_iterations: 100_000,
        record_errors: false,
    }
}

/// Papers in 2000..2003 (few years, so most pairs share one) and every
/// edge the builder accepts: `a` cites `b` when `b` is no later than `a`,
/// same-year citations to a higher id included.
fn network() -> impl Strategy<Value = (Vec<i32>, Vec<(u32, u32)>)> {
    (2..=24usize).prop_flat_map(|n| {
        proptest::collection::vec(2000i32..2003, n..=n).prop_flat_map(move |mut years| {
            years.sort_unstable();
            let sorted = years.clone();
            let edges = proptest::collection::vec((0..n as u32, 0..n as u32), 0..n * 3).prop_map(
                move |raw| {
                    raw.into_iter()
                        .filter(|&(a, b)| a != b && sorted[b as usize] <= sorted[a as usize])
                        .collect::<Vec<_>>()
                },
            );
            (Just(years), edges)
        })
    })
}

fn build(years: &[i32], edges: &[(u32, u32)]) -> CitationNetwork {
    let mut b = NetworkBuilder::new();
    for &y in years {
        b.add_paper(y);
    }
    for &(citing, cited) in edges {
        b.add_citation(citing, cited).unwrap();
    }
    b.build().unwrap()
}

/// Two new papers in the current year — the second cites the first, a
/// same-year citation to a higher id comes from an old paper of that year
/// when one exists — plus a citation from each new paper to `to`.
fn delta(net: &CitationNetwork, to: u32) -> GraphDelta {
    let n = net.n_papers() as PaperId;
    let year = net.current_year().unwrap();
    let mut d = GraphDelta::new();
    let (a, b) = (
        n + d.add_paper(year) as PaperId,
        n + d.add_paper(year) as PaperId,
    );
    d.add_citation(b, a);
    d.add_citation(a, to % n);
    d.add_citation(b, to % n);
    if let Some(old) = (0..n).rev().find(|&p| net.years()[p as usize] == year) {
        d.add_citation(old, a);
    }
    d
}

/// AttRank, NO-ATT and PageRank at `alpha`.
fn variants(alpha: f64, y: u32, w: f64) -> [AttRankParams; 3] {
    [
        AttRankParams::new(alpha, (1.0 - alpha) * 0.6, y, w).unwrap(),
        AttRankParams::no_att(alpha, y, w).unwrap(),
        AttRankParams::new(alpha, 0.0, y, 0.0).unwrap(),
    ]
}

fn l1(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(a, b)| (a - b).abs()).sum()
}

fn power_kernel(net: &CitationNetwork, alpha: f64) -> ScoreVec {
    let op = net.stochastic_operator();
    let b = 1.0 / net.n_papers() as f64;
    let out = PowerEngine::new(tight()).run(ScoreVec::uniform(net.n_papers()), |cur, next| {
        op.apply_damped_uniform(alpha, cur.as_slice(), b, next.as_mut_slice())
    });
    assert!(out.converged);
    out.scores
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn one_pass_solve_matches_power_iteration(
        (years, edges) in network(),
        y in 1u32..4,
        w in -0.5f64..0.0,
        to in 0u32..1000,
    ) {
        let net = build(&years, &edges);
        let next = delta(&net, to);
        let new = net.with_delta(&next).unwrap();
        for alpha in ALPHAS {
            let kernel = uniform_kernel(&net, alpha, &mut KernelWorkspace::new());
            let reference = power_kernel(&net, alpha);
            let err = l1(&kernel, &reference);
            prop_assert!(err <= 1e-10 / (1.0 - alpha), "α {alpha}: kernel off by {err:e}");

            for params in variants(alpha, y, w) {
                let power = AttRank::with_options(params, tight());
                let mut inc = IncrementalAttRank::new(params);
                let solved = inc.update(&net);
                prop_assert!(solved.converged);
                prop_assert!(solved.iterations >= net.n_papers(), "every paper is pushed");
                prop_assert!(inc.push_state().is_some(), "update keeps its push state");
                let want = power.rank_with_diagnostics(&net);
                prop_assert!(want.converged);
                let err = l1(&solved.scores, &want.scores);
                prop_assert!(err <= 1e-10, "{params:?}: update off by {err:e}");

                inc.set_push_config(PushRankConfig::forced_fallback());
                let (full, strategy) = inc.update_delta(&net, &next, &new);
                prop_assert_eq!(strategy, DeltaStrategy::Full);
                prop_assert!(inc.push_state().is_some(), "the full path keeps its push state");
                let want = power.rank_with_diagnostics(&new);
                let err = l1(&full.scores, &want.scores);
                prop_assert!(err <= 1e-10, "{params:?}: fallback off by {err:e}");
            }
        }
    }
}
