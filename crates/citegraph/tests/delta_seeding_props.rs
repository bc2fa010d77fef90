//! Property tests of the one delta seeding ([`citegraph::seed_delta`] /
//! [`citegraph::push_delta`]) on AttRank-shaped unresolved lanes: the
//! uniform kernel (`b̂ = 1`), attention (`b̂` = the window count) and
//! recency (`b̂ = e^{w·(y₀ − year)}`), each at its mass on the old network.
//!
//! Over random temporally valid networks and random deltas — appended
//! papers citing old papers and each other, old papers gaining
//! references (formerly dangling ones too), same-year citations to higher
//! ids, and batches that advance the current year and so roll the
//! attention window over — the seed is supported only on the appended
//! papers, the papers whose window count changed (attention lane only)
//! and the rewired columns' old and new references; and after the push
//! every lane, its dangling scalar and its resolved fixed point are within
//! 1e-9 of a cold solve on the new network, for `K = 3` and for each lane
//! alone (`K = 1`).

use std::collections::BTreeSet;

use citegraph::{
    kernel_scale, push_delta, seed_delta, window, CitationNetwork, GraphDelta, NetworkBuilder,
    PaperId, PushRankConfig,
};
use proptest::collection::vec;
use proptest::prelude::*;
use sparsela::{push, PushConfig, ScoreVec};

const WINDOW_YEARS: u32 = 2;
const W: f64 = -0.3;

/// A time-sorted network of `years.len()` papers whose edges are the
/// temporally valid ones among `raw` (same-year edges either way).
fn base_network(years: &[i32], raw: &[(u32, u32)]) -> CitationNetwork {
    let mut sorted = years.to_vec();
    sorted.sort_unstable();
    let mut b = NetworkBuilder::new();
    for &y in &sorted {
        b.add_paper(y);
    }
    let n = sorted.len() as u32;
    for &(citing, cited) in raw {
        let (citing, cited) = (citing % n, cited % n);
        if citing != cited && sorted[cited as usize] <= sorted[citing as usize] {
            b.add_citation(citing, cited).unwrap();
        }
    }
    b.build().unwrap()
}

/// A random valid delta onto `net`: `bumps` appends one paper per entry,
/// each `bump` years after the previous (a bump past the current year
/// rolls the window over). Edge kinds: an appended paper citing any paper
/// (0), an old paper gaining a reference (1), a formerly dangling old
/// paper gaining one (2).
fn stage(net: &CitationNetwork, bumps: &[i32], edges: &[(u32, u32, u8)]) -> GraphDelta {
    let mut delta = GraphDelta::new();
    let n_old = net.n_papers();
    let mut years = net.years().to_vec();
    let mut year = net.current_year().unwrap();
    for &bump in bumps {
        year += bump;
        delta.add_paper(year);
        years.push(year);
    }
    let n_total = years.len();
    let dangling: Vec<usize> = (0..n_old)
        .filter(|&p| net.reference_count(p as PaperId) == 0)
        .collect();
    for &(a, b, kind) in edges {
        let (a, b) = (a as usize, b as usize);
        let citing = match kind {
            0 if n_total > n_old => n_old + a % (n_total - n_old),
            1 => a % n_old,
            2 if !dangling.is_empty() => dangling[a % dangling.len()],
            _ => continue,
        };
        let cited = b % n_total;
        if citing != cited && years[cited] <= years[citing] {
            delta.add_citation(citing as PaperId, cited as PaperId);
        }
    }
    delta
}

/// The three personalizations `b̂` on `net`, against the reference year
/// `year0`, one row per paper.
fn b_hat(net: &CitationNetwork, year0: i32) -> Vec<[f64; 3]> {
    let counts = window::recent_citation_counts(net, WINDOW_YEARS);
    let years = net.years();
    (0..net.n_papers())
        .map(|p| {
            let rec = (W * f64::from(year0 - years[p])).exp();
            [1.0, f64::from(counts[p]), rec]
        })
        .collect()
}

/// The three lanes of `b̂ / mass` on `net`, cold: `(y, g)`.
fn cold(
    net: &CitationNetwork,
    b: &[[f64; 3]],
    mass: [f64; 3],
    alpha: f64,
) -> ([ScoreVec; 3], [f64; 3]) {
    let n = net.n_papers();
    let mut r: Vec<f64> = b
        .iter()
        .flat_map(|row| [0, 1, 2].map(|k| row[k] / mass[k]))
        .collect();
    let mut y = [(); 3].map(|_| ScoreVec::zeros(n));
    let cfg = PushConfig {
        alpha,
        epsilon: 1e-14,
        max_edge_work: u64::MAX,
    };
    let out = push::solve_lanes(
        net.refs_csr(),
        &cfg,
        y.each_mut().map(|y| y.as_mut_slice()),
        &mut r,
        [0.0; 3],
    );
    (y, out.deferred)
}

/// Lane `k` resolved against the kernel lane: `y_k + g_k·u`.
fn resolved(y: &[ScoreVec; 3], g: [f64; 3], k: usize, n: usize, mass0: f64) -> Vec<f64> {
    let c = kernel_scale(n, mass0, g[0]).expect("a sane kernel lane");
    (0..n).map(|i| y[k][i] + g[k] * c * y[0][i]).collect()
}

fn max_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn the_seed_is_the_batch_and_every_lane_matches_a_cold_solve(
        years in vec(2000..2006, 12..40),
        raw_edges in vec((0u32..1000, 0u32..1000), 10..120),
        bumps in vec(0i32..2, 0..4),
        edges in vec((0u32..1000, 0u32..1000, 0u8..3), 0..12),
        alpha_pct in 0u32..9,
    ) {
        let alpha = f64::from(alpha_pct) * 0.1;
        let old = base_network(&years, &raw_edges);
        let delta = stage(&old, &bumps, &edges);
        let new = old.with_delta(&delta).unwrap();
        let (n_old, n_new) = (old.n_papers(), new.n_papers());
        let year0 = old.current_year().unwrap();

        // Each lane at its mass on the old network (1 for an empty window).
        let (b_old, b_new) = (b_hat(&old, year0), b_hat(&new, year0));
        let mass = [0, 1, 2].map(|k| {
            let m: f64 = b_old.iter().map(|row| row[k]).sum();
            if m > 0.0 { m } else { 1.0 }
        });
        let (y_old, g_old) = cold(&old, &b_old, mass, alpha);
        // Δb̂ on every row it moved: appended papers and changed counts.
        let db: Vec<(PaperId, [f64; 3])> = (0..n_new)
            .filter_map(|p| {
                let before = b_old.get(p).copied().unwrap_or([0.0; 3]);
                let d: [f64; 3] = [0, 1, 2].map(|k| (b_new[p][k] - before[k]) / mass[k]);
                d.iter().any(|&d| d != 0.0).then_some((p as PaperId, d))
            })
            .collect();
        prop_assert!(db.iter().all(|&(p, d)| p as usize >= n_old || (d[0] == 0.0 && d[2] == 0.0)));

        // The seed's support, lane by lane.
        let rewired: BTreeSet<PaperId> = delta
            .citations
            .iter()
            .map(|&(citing, _)| citing)
            .filter(|&c| (c as usize) < n_old)
            .collect();
        let mut columns: BTreeSet<usize> = (n_old..n_new).collect();
        for &j in &rewired {
            columns.extend(old.references(j).iter().map(|&i| i as usize));
            columns.extend(new.references(j).iter().map(|&i| i as usize));
        }
        let counted: BTreeSet<usize> = db.iter().map(|&(p, _)| p as usize).collect();
        let mut y = y_old.clone();
        let mut g = g_old;
        let mut r = Vec::new();
        let seeded = seed_delta(&old, &delta, &new, &mut y.each_mut(), &mut g, &db, alpha, &mut r);
        prop_assert!(seeded.is_some());
        for (at, &v) in r.iter().enumerate() {
            let (i, k) = (at / 3, at % 3);
            let allowed = columns.contains(&i) || (k == 1 && counted.contains(&i));
            prop_assert!(v == 0.0 || allowed, "lane {} seeded at paper {}", k, i);
        }

        let (y_cold, g_cold) = cold(&new, &b_new, mass, alpha);
        let cfg = PushRankConfig { budget_sweeps: 1e6, ..PushRankConfig::default() };
        // K = 3: one traversal for the three lanes.
        let mut y3 = y_old.clone();
        let mut g3 = g_old;
        let out = push_delta(&old, &delta, &new, y3.each_mut(), &mut g3, &db, alpha, &cfg, &mut Vec::new());
        prop_assert!(out.is_some_and(|o| o.converged));
        // K = 1: each lane alone, against the same kernel lane.
        let mut y1 = y_old.clone();
        let mut g1 = g_old;
        for k in 0..3 {
            let db_k: Vec<(PaperId, [f64; 1])> = db.iter().map(|&(p, d)| (p, [d[k]])).collect();
            let mut gk = [g1[k]];
            let out = push_delta(&old, &delta, &new, [&mut y1[k]], &mut gk, &db_k, alpha, &cfg, &mut Vec::new());
            prop_assert!(out.is_some());
            g1[k] = gk[0];
        }
        for (what, y, g) in [("K = 3", &y3, g3), ("K = 1", &y1, g1)] {
            for k in 0..3 {
                let dy = max_diff(y[k].as_slice(), y_cold[k].as_slice());
                prop_assert!(dy <= 1e-9, "{} lane {}: y off by {:e}", what, k, dy);
                prop_assert!((g[k] - g_cold[k]).abs() <= 1e-9, "{} lane {}: g", what, k);
                let dx = max_diff(
                    &resolved(y, g, k, n_new, mass[0]),
                    &resolved(&y_cold, g_cold, k, n_new, mass[0]),
                );
                prop_assert!(dx <= 1e-9, "{} lane {}: resolved off by {:e}", what, k, dx);
            }
        }
    }
}
