//! Property tests pinning the seed-personalized push solver to the dense
//! power-iteration reference.
//!
//! Over random temporally-valid graphs the push path must stay within
//! `1e-9` of [`citegraph::dense_personalized`] — for uniform and weighted
//! seed sets, whatever the push budget says (a cold solve is one
//! unbudgeted pass), and for [`citegraph::repersonalize`] warm re-pushes
//! across random tail deltas. On a generated corpus the cold pass pushes
//! each paper of the seeds' reference cone at most once.

use citegen::{generate, DatasetProfile};
use citegraph::{
    dense_personalized, personalize, repersonalize, uniform_kernel, CitationNetwork, GraphDelta,
    NetworkBuilder, PushRankConfig, SeedPersonalization,
};
use proptest::prelude::*;
use sparsela::KernelWorkspace;

/// Strategy: a random temporally-valid citation network (same shape as
/// `proptests.rs` — years from a small range, citations never forward in
/// time).
fn network_strategy(max_papers: usize) -> impl Strategy<Value = (Vec<i32>, Vec<(u32, u32)>)> {
    (2..=max_papers).prop_flat_map(|n| {
        let years = proptest::collection::vec(1990i32..2020, n..=n);
        years.prop_flat_map(move |years| {
            let pair = (0..n as u32, 0..n as u32);
            let years2 = years.clone();
            let edges = proptest::collection::vec(pair, 0..n * 3).prop_map(move |raw| {
                raw.into_iter()
                    .filter(|&(a, b)| a != b && years2[b as usize] <= years2[a as usize])
                    .collect::<Vec<_>>()
            });
            (Just(years), edges)
        })
    })
}

fn build(years: &[i32], edges: &[(u32, u32)]) -> citegraph::CitationNetwork {
    let mut b = NetworkBuilder::new();
    for &y in years {
        b.add_paper(y);
    }
    for &(citing, cited) in edges {
        b.add_citation(citing, cited).unwrap();
    }
    b.build().unwrap()
}

/// Folds raw picks into a non-empty sorted-unique seed set inside `0..n`.
fn seed_set(picks: &[usize], n: usize) -> Vec<u32> {
    let mut ids: Vec<u32> = picks.iter().map(|&p| (p % n) as u32).collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn push_matches_dense_on_random_seed_sets(
        (years, edges) in network_strategy(50),
        picks in proptest::collection::vec(0..1000usize, 1..5),
        alpha in 0.15f64..0.85,
    ) {
        let net = build(&years, &edges);
        let seeds = seed_set(&picks, net.n_papers());
        let seed = SeedPersonalization::uniform(&seeds, net.n_papers()).unwrap();
        let mut ws = KernelWorkspace::new();
        let kernel = uniform_kernel(&net, alpha, &mut ws);
        let cfg = PushRankConfig::default();
        let got = personalize(&net, &seed, alpha, Some(kernel.as_slice()), &cfg, &mut ws);
        let want = dense_personalized(&net, &seed, alpha, &mut ws);
        for i in 0..net.n_papers() {
            prop_assert!(
                (got.scores[i] - want[i]).abs() < 1e-9,
                "paper {i}: push {} vs dense {}",
                got.scores[i], want[i]
            );
        }
    }

    #[test]
    fn weighted_seeds_match_dense(
        (years, edges) in network_strategy(40),
        raw in proptest::collection::vec((0..1000usize, 0.1f64..10.0), 1..5),
        alpha in 0.2f64..0.8,
    ) {
        let net = build(&years, &edges);
        let n = net.n_papers();
        // Dedup by id (weighted() rejects duplicates), keep first weight.
        let mut seeds: Vec<u32> = Vec::new();
        let mut weights: Vec<f64> = Vec::new();
        for &(p, w) in &raw {
            let id = (p % n) as u32;
            if !seeds.contains(&id) {
                seeds.push(id);
                weights.push(w);
            }
        }
        let seed = SeedPersonalization::weighted(&seeds, &weights, n).unwrap();
        let mut ws = KernelWorkspace::new();
        let kernel = uniform_kernel(&net, alpha, &mut ws);
        let got = personalize(
            &net, &seed, alpha, Some(kernel.as_slice()), &PushRankConfig::default(), &mut ws,
        );
        let want = dense_personalized(&net, &seed, alpha, &mut ws);
        for i in 0..n {
            prop_assert!((got.scores[i] - want[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn a_cold_solve_ignores_the_push_budget(
        (years, edges) in network_strategy(40),
        picks in proptest::collection::vec(0..1000usize, 1..4),
        alpha in 0.2f64..0.8,
    ) {
        let net = build(&years, &edges);
        let seeds = seed_set(&picks, net.n_papers());
        let seed = SeedPersonalization::uniform(&seeds, net.n_papers()).unwrap();
        let mut ws = KernelWorkspace::new();
        let kernel = uniform_kernel(&net, alpha, &mut ws);
        // A zero work budget bounds warm pushes only: the cold pass runs
        // to the same bits as under the default config.
        let cfg = PushRankConfig { budget_sweeps: 0.0, ..PushRankConfig::default() };
        let got = personalize(&net, &seed, alpha, Some(kernel.as_slice()), &cfg, &mut ws);
        let default = personalize(
            &net, &seed, alpha, Some(kernel.as_slice()), &PushRankConfig::default(), &mut ws,
        );
        prop_assert!(got.warm_start().is_some(), "a cold solve keeps its warm form");
        let want = dense_personalized(&net, &seed, alpha, &mut ws);
        for i in 0..net.n_papers() {
            prop_assert_eq!(got.scores[i].to_bits(), default.scores[i].to_bits());
            prop_assert!((got.scores[i] - want[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn warm_repush_matches_dense_after_tail_delta(
        (years, edges) in network_strategy(40),
        picks in proptest::collection::vec(0..1000usize, 1..4),
        targets in proptest::collection::vec(0..1000usize, 1..10),
        alpha in 0.2f64..0.8,
    ) {
        let net = build(&years, &edges);
        let n = net.n_papers();
        let seeds = seed_set(&picks, n);
        let seed = SeedPersonalization::uniform(&seeds, n).unwrap();
        let mut ws = KernelWorkspace::new();
        let cfg = PushRankConfig::default();
        let kernel = uniform_kernel(&net, alpha, &mut ws);
        let cold = personalize(&net, &seed, alpha, Some(kernel.as_slice()), &cfg, &mut ws);

        // Two new tail papers, each citing a few distinct existing papers.
        let top_year = net.current_year().unwrap();
        let mut delta = GraphDelta::new();
        for (i, chunk) in targets.chunks(3).enumerate().take(2) {
            delta.add_paper(top_year);
            let mut cited: Vec<u32> = chunk.iter().map(|&t| (t % n) as u32).collect();
            cited.sort_unstable();
            cited.dedup();
            for c in cited {
                delta.add_citation((n + i) as u32, c);
            }
        }
        let new = net.with_delta(&delta).unwrap();
        let kernel_new = uniform_kernel(&new, alpha, &mut ws);
        let start = cold.warm_start();
        prop_assume!(start.is_some(), "kernel-resolved solve keeps warm form");
        let warm = repersonalize(
            &net, &delta, &new, start.unwrap(), &seed, alpha,
            Some(kernel_new.as_slice()), &cfg, &mut ws,
        );
        // No size gate: a tail delta of any size re-pushes (it seeds no
        // residual at all).
        prop_assert!(warm.is_some(), "repersonalize declined a tail delta");
        let ps = warm.unwrap();
        let want = dense_personalized(&new, &seed, alpha, &mut ws);
        for i in 0..new.n_papers() {
            prop_assert!(
                (ps.scores[i] - want[i]).abs() < 1e-9,
                "paper {i}: warm {} vs dense {}", ps.scores[i], want[i]
            );
        }
    }
}

/// Papers reachable from `seeds` along references, seeds included.
fn reference_cone(net: &CitationNetwork, seeds: &[u32]) -> Vec<u32> {
    let mut seen = vec![false; net.n_papers()];
    let mut stack = seeds.to_vec();
    let mut cone = Vec::new();
    while let Some(p) = stack.pop() {
        if !std::mem::replace(&mut seen[p as usize], true) {
            cone.push(p);
            stack.extend_from_slice(net.references(p));
        }
    }
    cone
}

#[test]
fn a_cold_personalized_solve_pushes_each_cone_paper_once() {
    // Generated corpora cite only earlier ids, so the descending cursor
    // settles each cone paper's inflow before pushing it: one pass.
    let net = generate(&DatasetProfile::dblp().scaled(3000), 31);
    let (n, e) = (net.n_papers(), net.n_citations());
    let mut ws = KernelWorkspace::new();
    for alpha in [0.2, 0.5, 0.85] {
        let kernel = uniform_kernel(&net, alpha, &mut ws);
        for seeds in [vec![n as u32 - 1], vec![17, n as u32 / 2, n as u32 - 5]] {
            let seed = SeedPersonalization::uniform(&seeds, n).unwrap();
            let cone = reference_cone(&net, &seeds);
            let got = personalize(
                &net,
                &seed,
                alpha,
                Some(kernel.as_slice()),
                &PushRankConfig::default(),
                &mut ws,
            );
            // The outcome's edge work includes the n-entry resolution.
            let push_work = got.outcome.edge_work - n as u64;
            let cone_work: u64 = cone
                .iter()
                .map(|&p| net.references(p).len().max(1) as u64)
                .sum();
            assert!(got.outcome.converged, "α = {alpha}, seeds {seeds:?}");
            assert!(
                got.outcome.pushes <= cone.len() as u64,
                "α = {alpha}, seeds {seeds:?}: {} pushes over a {}-paper cone",
                got.outcome.pushes,
                cone.len()
            );
            assert!(push_work <= cone_work, "α = {alpha}, seeds {seeds:?}");
            assert!(got.outcome.pushes <= n as u64 && push_work <= (e + n) as u64);
        }
    }
}
