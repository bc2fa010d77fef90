//! Property-based tests for the sparsela kernels.

use proptest::prelude::*;
use sparsela::{
    average_ranks, fit_exponential, ordinal_ranks, push, sort_indices_desc, top_k_filtered,
    top_k_indices, top_k_masked, top_k_where, CitationOperator, Csr, IdMask, PowerEngine,
    PowerOptions, PushConfig, ScoreVec, WeightedCsr,
};

/// Strategy: a random edge list on `n` nodes.
fn edges_strategy(max_n: u32) -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2..=max_n).prop_flat_map(|n| {
        let edge = (0..n, 0..n).prop_filter("no self-loop", |(a, b)| a != b);
        proptest::collection::vec(edge, 0..(n as usize * 4)).prop_map(move |es| (n as usize, es))
    })
}

/// Dense reference solve of `x = α·S·x + b` (dangling columns uniform).
fn dense_fixed_point(refs: &Csr, alpha: f64, b: &[f64]) -> Vec<f64> {
    let op = CitationOperator::from_references(refs);
    let engine = PowerEngine::new(PowerOptions {
        epsilon: 1e-15,
        max_iterations: 3000,
        record_errors: false,
    });
    let outcome = engine.run(ScoreVec::zeros(refs.nrows()), |cur, next| {
        op.apply_damped(alpha, cur.as_slice(), b, next.as_mut_slice());
    });
    outcome.scores.as_slice().to_vec()
}

fn l1_gap(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(a, b)| (a - b).abs()).sum()
}

proptest! {
    #[test]
    fn push_lanes_match_single_runs_and_dense_reference(
        (n, edges) in edges_strategy(30),
        alpha in 0.05f64..0.85,
        salt in 0u64..1000,
    ) {
        // Arbitrary edges: dangling rows, forward edges and cycles all
        // occur, so the descending cursor needs more than one pass.
        let refs = Csr::from_edges(n, n, &edges);
        let cfg = PushConfig { alpha, epsilon: 1e-10, max_edge_work: u64::MAX };
        let bound = 2.0 * cfg.epsilon / (1.0 - alpha);
        // Each run's deferred mass is short of its limit by at most
        // α/(1−α) of the residual (≤ ε/2) it left unpushed.
        let deferred_bound = cfg.epsilon * (alpha / (1.0 - alpha)).max(1.0);
        // Three seeds of mixed sign and support: uniform, signed dense,
        // and one-in-three sparse.
        let seeds: [Vec<f64>; 3] = [
            vec![1.0 / n as f64; n],
            (0..n as u64).map(|i| ((i * 37 + salt) % 19) as f64 / 19.0 - 0.4).collect(),
            (0..n as u64).map(|i| if (i + salt) % 3 == 0 { 0.25 } else { 0.0 }).collect(),
        ];
        let kernel = dense_fixed_point(&refs, alpha, &seeds[0]);

        let mut x3 = [vec![0.0; n], vec![0.0; n], vec![0.0; n]];
        let mut r3: Vec<f64> = (0..n * 3).map(|at| seeds[at % 3][at / 3]).collect();
        let out3 = push::solve_lanes(
            &refs,
            &cfg,
            x3.each_mut().map(Vec::as_mut_slice),
            &mut r3,
            [0.0; 3],
        );
        prop_assert!(out3.converged);

        for k in 0..3 {
            let mut x1 = vec![0.0; n];
            let mut r1 = seeds[k].clone();
            let out1 = push::solve_lanes(&refs, &cfg, [&mut x1], &mut r1, [0.0]);
            prop_assert!(out1.converged);
            prop_assert!(out3.residual_l1[k] <= cfg.epsilon);
            prop_assert!(
                (out3.deferred[k] - out1.deferred[0]).abs() <= deferred_bound,
                "lane {}: deferred {} vs {}", k, out3.deferred[k], out1.deferred[0]
            );
            let resolved = |x: &[f64], g: f64| -> Vec<f64> {
                x.iter().zip(&kernel).map(|(x, u)| x + g * u).collect()
            };
            let reference = dense_fixed_point(&refs, alpha, &seeds[k]);
            let lanes = resolved(&x3[k], out3.deferred[k]);
            let single = resolved(&x1, out1.deferred[0]);
            prop_assert!(l1_gap(&lanes, &reference) <= bound, "lane {} vs dense", k);
            prop_assert!(l1_gap(&single, &reference) <= bound, "single {} vs dense", k);
            prop_assert!(l1_gap(&lanes, &single) <= bound, "lane {} vs single", k);
        }
    }

    #[test]
    fn push_idle_lane_is_bit_identical(
        (n, edges) in edges_strategy(30),
        alpha in 0.05f64..0.85,
        held in 0.0f64..1.0,
    ) {
        // A lane seeded all-zero rides along every push of the live lane
        // and comes back exactly as it went in.
        let refs = Csr::from_edges(n, n, &edges);
        let cfg = PushConfig { alpha, epsilon: 1e-10, max_edge_work: u64::MAX };
        let idle: Vec<f64> = (0..n).map(|i| held + i as f64).collect();
        let mut x = [vec![0.0; n], idle.clone()];
        let mut r: Vec<f64> = (0..n * 2)
            .map(|at| if at % 2 == 0 { 1.0 / n as f64 } else { 0.0 })
            .collect();
        let out = push::solve_lanes(
            &refs,
            &cfg,
            x.each_mut().map(Vec::as_mut_slice),
            &mut r,
            [0.0, held],
        );
        prop_assert!(out.converged && out.pushes > 0);
        prop_assert!(x[1].iter().zip(&idle).all(|(a, b)| a.to_bits() == b.to_bits()));
        prop_assert_eq!(out.deferred[1].to_bits(), held.to_bits());
        prop_assert_eq!(out.residual_l1[1], 0.0);
    }

    #[test]
    fn csr_transpose_is_involution((n, edges) in edges_strategy(40)) {
        let m = Csr::from_edges(n, n, &edges);
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn csr_contains_matches_edge_list((n, edges) in edges_strategy(30)) {
        let m = Csr::from_edges(n, n, &edges);
        for &(r, c) in &edges {
            prop_assert!(m.contains(r, c));
        }
        prop_assert!(m.nnz() <= edges.len());
    }

    #[test]
    fn csr_degree_sum_equals_nnz((n, edges) in edges_strategy(40)) {
        let m = Csr::from_edges(n, n, &edges);
        let total: usize = (0..n as u32).map(|r| m.degree(r)).sum();
        prop_assert_eq!(total, m.nnz());
    }

    #[test]
    fn stochastic_operator_preserves_mass((n, edges) in edges_strategy(30)) {
        let refs = Csr::from_edges(n, n, &edges);
        let op = CitationOperator::from_references(&refs);
        let x = ScoreVec::uniform(n);
        let mut y = ScoreVec::zeros(n);
        op.apply(x.as_slice(), y.as_mut_slice());
        prop_assert!((y.sum() - 1.0).abs() < 1e-10);
        prop_assert!(y.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn pagerank_style_iteration_converges_and_sums_to_one(
        (n, edges) in edges_strategy(25),
        alpha in 0.0f64..0.95,
    ) {
        let refs = Csr::from_edges(n, n, &edges);
        let op = CitationOperator::from_references(&refs);
        let engine = PowerEngine::new(PowerOptions { epsilon: 1e-10, max_iterations: 2000, record_errors: false });
        let outcome = engine.run(ScoreVec::uniform(n), |cur, next| {
            op.apply(cur.as_slice(), next.as_mut_slice());
            for v in next.iter_mut() {
                *v = alpha * *v + (1.0 - alpha) / n as f64;
            }
        });
        prop_assert!(outcome.converged, "α={alpha} must converge");
        prop_assert!((outcome.scores.sum() - 1.0).abs() < 1e-8);
        prop_assert!(outcome.scores.iter().all(|&v| v > 0.0));
    }

    #[test]
    fn ordinal_ranks_are_permutation_of_1_to_n(scores in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
        let mut ranks = ordinal_ranks(&scores);
        ranks.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (i, r) in ranks.iter().enumerate() {
            prop_assert_eq!(*r, (i + 1) as f64);
        }
    }

    #[test]
    fn average_ranks_sum_is_n_n_plus_1_over_2(scores in proptest::collection::vec(-100i32..100, 1..200)) {
        let scores: Vec<f64> = scores.into_iter().map(f64::from).collect();
        let n = scores.len() as f64;
        let sum: f64 = average_ranks(&scores).iter().sum();
        prop_assert!((sum - n * (n + 1.0) / 2.0).abs() < 1e-9);
    }

    #[test]
    fn average_ranks_respect_order(scores in proptest::collection::vec(-100i32..100, 2..100)) {
        let scores: Vec<f64> = scores.into_iter().map(f64::from).collect();
        let ranks = average_ranks(&scores);
        for i in 0..scores.len() {
            for j in 0..scores.len() {
                if scores[i] > scores[j] {
                    prop_assert!(ranks[i] < ranks[j]);
                } else if scores[i] == scores[j] {
                    prop_assert_eq!(ranks[i], ranks[j]);
                }
            }
        }
    }

    #[test]
    fn sort_indices_desc_is_sorted(scores in proptest::collection::vec(-1e6f64..1e6, 0..200)) {
        let idx = sort_indices_desc(&scores);
        prop_assert_eq!(idx.len(), scores.len());
        for w in idx.windows(2) {
            prop_assert!(scores[w[0] as usize] >= scores[w[1] as usize]);
        }
    }

    #[test]
    fn exponential_fit_recovers_rate(a in 0.1f64..10.0, w in -2.0f64..-0.01, n in 4usize..30) {
        let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| a * (w * x).exp()).collect();
        let fit = fit_exponential(&xs, &ys).unwrap();
        prop_assert!((fit.rate - w).abs() < 1e-6);
        prop_assert!((fit.amplitude - a).abs() / a < 1e-6);
    }

    #[test]
    fn l1_distance_triangle_inequality(
        a in proptest::collection::vec(-100.0f64..100.0, 1..60),
    ) {
        let n = a.len();
        let b: Vec<f64> = a.iter().map(|x| x * 0.5 + 1.0).collect();
        let c: Vec<f64> = a.iter().map(|x| -x).collect();
        let (va, vb, vc) = (
            ScoreVec::from_vec(a),
            ScoreVec::from_vec(b),
            ScoreVec::from_vec(c),
        );
        let _ = n;
        prop_assert!(va.l1_distance(&vc) <= va.l1_distance(&vb) + vb.l1_distance(&vc) + 1e-9);
        prop_assert!((va.l1_distance(&vb) - vb.l1_distance(&va)).abs() < 1e-12);
    }

    #[test]
    fn normalize_l1_produces_probability_vector(
        raw in proptest::collection::vec(0.0f64..1e6, 1..100),
    ) {
        prop_assume!(raw.iter().sum::<f64>() > 0.0);
        let mut v = ScoreVec::from_vec(raw);
        v.normalize_l1();
        prop_assert!((v.sum() - 1.0).abs() < 1e-9);
        prop_assert!(v.iter().all(|&x| x >= 0.0));
    }

    // --- parallel kernels: thread-count independence ---------------------
    //
    // Per-row accumulation stays sequential under the degree-balanced row
    // partition, so every kernel must be BIT-identical (`==` on f64, not
    // within a tolerance) for every thread count, including counts far
    // above the row count.

    #[test]
    fn apply_is_bit_identical_across_thread_counts((n, edges) in edges_strategy(60)) {
        let refs = Csr::from_edges(n, n, &edges);
        let op = CitationOperator::from_references(&refs);
        let x: Vec<f64> = (0..n).map(|i| 1.0 / (i + 1) as f64).collect();
        let mut serial = vec![0.0; n];
        op.apply_with_threads(1, &x, &mut serial);
        for threads in [2usize, 3, 4, 8, 64] {
            let mut parallel = vec![f64::NAN; n];
            op.apply_with_threads(threads, &x, &mut parallel);
            prop_assert_eq!(&serial, &parallel, "threads={}", threads);
        }
    }

    #[test]
    fn apply_leaky_is_bit_identical_across_thread_counts((n, edges) in edges_strategy(60)) {
        let refs = Csr::from_edges(n, n, &edges);
        let op = CitationOperator::from_references(&refs);
        let x: Vec<f64> = (0..n).map(|i| ((i * 37) % 11) as f64 * 0.1).collect();
        let mut serial = vec![0.0; n];
        op.apply_leaky_with_threads(1, &x, &mut serial);
        for threads in [2usize, 4, 16] {
            let mut parallel = vec![f64::NAN; n];
            op.apply_leaky_with_threads(threads, &x, &mut parallel);
            prop_assert_eq!(&serial, &parallel, "threads={}", threads);
        }
    }

    #[test]
    fn apply_damped_is_bit_identical_across_thread_counts(
        (n, edges) in edges_strategy(50),
        alpha in 0.0f64..1.0,
    ) {
        let refs = Csr::from_edges(n, n, &edges);
        let op = CitationOperator::from_references(&refs);
        let x: Vec<f64> = (0..n).map(|i| 1.0 / (i + 2) as f64).collect();
        let jump: Vec<f64> = (0..n).map(|i| ((i * 13) % 7) as f64 * 0.01).collect();
        let mut serial = vec![0.0; n];
        op.apply_damped_with_threads(1, alpha, &x, &jump, &mut serial);
        for threads in [2usize, 3, 8] {
            let mut parallel = vec![f64::NAN; n];
            op.apply_damped_with_threads(threads, alpha, &x, &jump, &mut parallel);
            prop_assert_eq!(&serial, &parallel, "threads={}", threads);
        }
    }

    #[test]
    fn apply_damped_fusion_matches_two_pass_reference(
        (n, edges) in edges_strategy(40),
        alpha in 0.0f64..1.0,
    ) {
        // The fused sweep must compute exactly α·(S·x) + jump with the same
        // per-row operation order as apply followed by the dense rescale.
        let refs = Csr::from_edges(n, n, &edges);
        let op = CitationOperator::from_references(&refs);
        let x: Vec<f64> = (0..n).map(|i| ((i % 5) + 1) as f64 * 0.05).collect();
        let jump: Vec<f64> = (0..n).map(|i| ((i % 3) as f64) * 0.2).collect();
        let mut two_pass = vec![0.0; n];
        op.apply_with_threads(1, &x, &mut two_pass);
        for (i, v) in two_pass.iter_mut().enumerate() {
            *v = alpha * *v + jump[i];
        }
        let mut fused = vec![0.0; n];
        op.apply_damped_with_threads(1, alpha, &x, &jump, &mut fused);
        prop_assert_eq!(&two_pass, &fused);
    }

    #[test]
    fn weighted_mul_is_bit_identical_across_thread_counts((n, edges) in edges_strategy(50)) {
        let triples: Vec<(u32, u32, f64)> = edges
            .iter()
            .map(|&(r, c)| (r, c, 1.0 / (1.0 + (r + c) as f64)))
            .collect();
        let m = WeightedCsr::from_triples(n, n, &triples);
        let x: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let mut serial = vec![0.0; n];
        m.mul_vec_into_with_threads(1, &x, &mut serial);
        for threads in [2usize, 4, 32] {
            let mut parallel = vec![f64::NAN; n];
            m.mul_vec_into_with_threads(threads, &x, &mut parallel);
            prop_assert_eq!(&serial, &parallel, "threads={}", threads);
        }
    }

    #[test]
    fn apply_damped_uniform_is_bit_identical_across_thread_counts(
        (n, edges) in edges_strategy(50),
        alpha in 0.0f64..1.0,
    ) {
        let refs = Csr::from_edges(n, n, &edges);
        let op = CitationOperator::from_references(&refs);
        let x: Vec<f64> = (0..n).map(|i| 1.0 / (i + 3) as f64).collect();
        let teleport = (1.0 - alpha) / n as f64;
        let mut serial = vec![0.0; n];
        op.apply_damped_uniform_with_threads(1, alpha, &x, teleport, &mut serial);
        for threads in [2usize, 4, 16] {
            let mut parallel = vec![f64::NAN; n];
            op.apply_damped_uniform_with_threads(threads, alpha, &x, teleport, &mut parallel);
            prop_assert_eq!(&serial, &parallel, "threads={}", threads);
        }
    }

    #[test]
    fn apply_damped_leaky_is_bit_identical_across_thread_counts(
        (n, edges) in edges_strategy(50),
        alpha in 0.0f64..1.0,
    ) {
        let refs = Csr::from_edges(n, n, &edges);
        let op = CitationOperator::from_references(&refs);
        let x: Vec<f64> = (0..n).map(|i| ((i * 7) % 5) as f64 * 0.1).collect();
        let rho: Vec<f64> = (0..n).map(|i| ((i * 11) % 3) as f64 * 0.3).collect();
        let mut serial = vec![0.0; n];
        op.apply_damped_leaky_with_threads(1, alpha, &x, &rho, &mut serial);
        for threads in [2usize, 4, 16] {
            let mut parallel = vec![f64::NAN; n];
            op.apply_damped_leaky_with_threads(threads, alpha, &x, &rho, &mut parallel);
            prop_assert_eq!(&serial, &parallel, "threads={}", threads);
        }
    }

    #[test]
    fn weighted_mul_damped_is_bit_identical_across_thread_counts(
        (n, edges) in edges_strategy(50),
        alpha in 0.0f64..1.0,
    ) {
        let triples: Vec<(u32, u32, f64)> = edges
            .iter()
            .map(|&(r, c)| (r, c, 0.5 + ((r * 3 + c) % 7) as f64 * 0.1))
            .collect();
        let m = WeightedCsr::from_triples(n, n, &triples);
        let x: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let seed: Vec<f64> = (0..n).map(|i| ((i % 9) as f64) * 0.25).collect();
        let mut serial = vec![0.0; n];
        m.mul_vec_damped_into_with_threads(1, alpha, &x, &seed, &mut serial);
        for threads in [2usize, 4, 32] {
            let mut parallel = vec![f64::NAN; n];
            m.mul_vec_damped_into_with_threads(threads, alpha, &x, &seed, &mut parallel);
            prop_assert_eq!(&serial, &parallel, "threads={}", threads);
        }
    }

    #[test]
    fn top_k_equals_full_sort_then_truncate(
        raw in proptest::collection::vec(-8i32..8, 0..120),
        k in 0usize..140,
        shape in 0u8..5,
    ) {
        // Small integer grid → plenty of exact ties, the case where a
        // sloppy partial select would diverge from the full sort. The
        // other shapes are the streaming threshold's edge cases: NaN
        // scores (rank last, by id), every score equal (no id after the
        // first k ever beats the threshold), strictly ascending in id
        // (every id does) and strictly descending (none does).
        let scores: Vec<f64> = raw
            .iter()
            .enumerate()
            .map(|(i, &v)| match shape {
                0 => v as f64 / 4.0,
                1 if v % 3 == 0 => f64::NAN,
                1 => v as f64 / 4.0,
                2 => 0.25,
                3 => i as f64,
                _ => -(i as f64),
            })
            .collect();
        let n = scores.len();
        let full = sort_indices_desc(&scores);
        for k in [k, 0, 1, n.saturating_sub(1), n, n + 1] {
            prop_assert_eq!(top_k_indices(&scores, k), &full[..k.min(n)], "k={}", k);
        }
    }

    #[test]
    fn top_k_filtered_equals_sort_filter_truncate(
        raw in proptest::collection::vec(-8i32..8, 1..120),
        picks in proptest::collection::vec(0u8..2, 1..120),
        k in 0usize..140,
    ) {
        // The acceptance pin for the query layer: a filtered selection is
        // exactly the full descending sort, filtered, truncated — ties and
        // all. Small integer grid → plenty of exact ties.
        let n = raw.len().min(picks.len());
        let scores: Vec<f64> = raw[..n].iter().map(|&v| v as f64 / 4.0).collect();
        let picks: Vec<bool> = picks.iter().map(|&p| p == 1).collect();
        let candidates: Vec<u32> =
            (0..n as u32).filter(|&i| picks[i as usize]).collect();
        let mut expected: Vec<u32> = sort_indices_desc(&scores)
            .into_iter()
            .filter(|i| candidates.contains(i))
            .collect();
        expected.truncate(k);
        prop_assert_eq!(top_k_filtered(&scores, &candidates, k), expected.clone());
        // All three kernel variants agree on the same selection.
        prop_assert_eq!(
            top_k_where(&scores, 0..n as u32, k, |i| picks[i as usize]),
            expected.clone()
        );
        let mask = IdMask::from_ids(n, candidates.iter().copied());
        prop_assert_eq!(top_k_masked(&scores, &mask, k), expected);
    }

    #[test]
    fn top_k_where_range_equals_sort_filter_truncate(
        raw in proptest::collection::vec(-6i32..6, 1..100),
        bounds in (0u32..110, 0u32..110),
        k in 0usize..30,
    ) {
        let scores: Vec<f64> = raw.iter().map(|&v| v as f64).collect();
        let (a, b) = bounds;
        let (lo, hi) = (a.min(b), a.max(b));
        let mut expected: Vec<u32> = sort_indices_desc(&scores)
            .into_iter()
            .filter(|&i| i >= lo && i < hi)
            .collect();
        expected.truncate(k);
        prop_assert_eq!(top_k_where(&scores, lo..hi, k, |_| true), expected);
    }

    #[test]
    fn top_k_pruned_equals_sort_range_frontier_truncate(
        raw in proptest::collection::vec(-8i32..8, 0..120),
        bounds in (0u32..130, 0u32..130),
        k in 0usize..140,
        shape in 0u8..6,
        block_len in 2usize..9,
        at in 0usize..120,
        tweak in 0u8..4,
        scale in 0usize..3,
        base in 0u32..1000,
        residual in 0u8..3,
    ) {
        use sparsela::{cmp_score_desc, top_k_pruned_into, BlockMaxima, Frontier, Segment};
        let scale = [1.0, 0.25, 1.0 / 3.0][scale];
        // The shapes of `top_k_equals_full_sort_then_truncate` plus a
        // mostly-NaN one (whole blocks without a number, pages that must
        // reach into the NaNs), under a summary with a tiny block so
        // ranges start and end mid-block and `k` straddles the block
        // count at these sizes.
        let scores: Vec<f64> = raw
            .iter()
            .enumerate()
            .map(|(i, &v)| match shape {
                0 => v as f64 / 4.0,
                1 if v % 3 == 0 => f64::NAN,
                1 => v as f64 / 4.0,
                2 => 0.25,
                3 => i as f64,
                4 => -(i as f64),
                _ if v % 4 == 0 => v as f64 / 4.0,
                _ => f64::NAN,
            })
            .collect();
        let n = scores.len();
        let maxima = BlockMaxima::with_block_len(&scores, block_len, 0, &[]);
        let (lo, hi) = (bounds.0.min(bounds.1), bounds.0.max(bounds.1));
        // A frontier sits on an item of the vector (so, under shapes 0–2,
        // inside a tie run; under shape 1 possibly on a NaN), nudged to a
        // neighbouring id or score so it also falls between items.
        let frontier = (n > 0 && tweak < 3).then(|| {
            let on = at % n;
            let (score, id) = match tweak {
                0 => (scores[on] * scale, base + on as u32),
                1 => (scores[on] * scale, base + (on as u32).saturating_sub(1)),
                _ => (scores[on] * scale + 0.125, base + on as u32),
            };
            Frontier { score, id, scale, base }
        });
        // A residual — a facet test on an id range — drops every second
        // or third id; 0 is none.
        let passes = |id: u32| residual == 0 || !id.is_multiple_of(residual as u32 + 1);
        let eligible: Vec<u32> = sort_indices_desc(&scores)
            .into_iter()
            .filter(|&i| i >= lo && i < hi && passes(i))
            .filter(|&i| frontier.is_none_or(|f| {
                cmp_score_desc(scores[i as usize] * scale, base + i, f.score, f.id)
                    == std::cmp::Ordering::Greater
            }))
            .collect();
        let mut out = vec![7u32; 3];
        for k in [k, 0, 1, n.saturating_sub(1), n, n + 1] {
            let range = [Segment::range(lo..hi)];
            let mut pred = passes;
            let pred: Option<&mut dyn FnMut(u32) -> bool> = (residual > 0).then_some(&mut pred as _);
            let walk = top_k_pruned_into(&scores, &maxima, range, k, frontier.as_ref(), pred, &mut out);
            prop_assert_eq!(&out, &eligible[..k.min(eligible.len())], "k={}", k);
            prop_assert_eq!(walk.matched, eligible.len(), "k={}", k);
            prop_assert!(walk.blocks_scanned <= walk.blocks_in_range);
        }
    }

    #[test]
    fn top_k_head_slice_equals_walk_and_sort(
        raw in proptest::collection::vec(-8i32..8, 0..120),
        head_len in 0usize..123,
        bounds in (0u32..130, 0u32..130),
        k in 0usize..121,
        shape in 0u8..5,
        block_len in 2usize..9,
        at in 0usize..120,
        tweak in 0u8..5,
        scale in 0usize..4,
        base in 0u32..1000,
        residual in 1u32..4,
    ) {
        use sparsela::{cmp_score_desc, top_k_pruned_into, BlockMaxima, Frontier, Segment};
        let scale = [1.0, 0.25, 1.0 / 3.0, 0.75][scale];
        // Ties, NaNs and `-inf`s; scores that climb with id, so the head
        // is the last ids; one long tie run; and neighbouring floats,
        // which a scale of 0.75 rounds onto each other, so scaled scores
        // tie where raw ones differ and the frontier's order is not the
        // head's.
        let scores: Vec<f64> = raw
            .iter()
            .enumerate()
            .map(|(i, &v)| match shape {
                0 => (v / 2) as f64,
                1 if v == -8 => f64::NAN,
                1 if v == 7 => f64::NEG_INFINITY,
                1 => (v / 3) as f64 / 4.0,
                2 => (i / 3) as f64,
                3 => 0.25,
                _ if v == -8 => f64::NAN,
                _ => f64::from_bits(1.5f64.to_bits() + (v & 3) as u64),
            })
            .collect();
        let n = scores.len();
        // Heads of every length up to past the vector; 0 is none.
        let head_len = head_len.min(n + 2);
        let headed = BlockMaxima::with_block_len(&scores, block_len, head_len, &[]);
        let walked = BlockMaxima::with_block_len(&scores, block_len, 0, &[]);
        prop_assert_eq!(headed.head(&scores, 0), &sort_indices_desc(&scores)[..head_len.min(n)]);
        let (lo, hi) = (bounds.0.min(bounds.1), bounds.0.max(bounds.1));
        // A frontier on an item (inside a tie run, on a NaN or `-inf`),
        // beside it, between items, or with a NaN score.
        let frontier = (n > 0 && tweak < 4).then(|| {
            let on = at % n;
            let (score, id) = match tweak {
                0 => (scores[on] * scale, base + on as u32),
                1 => (scores[on] * scale, base + (on as u32).saturating_sub(1)),
                2 => (scores[on] * scale + 0.125, base + on as u32),
                _ => (f64::NAN, base + on as u32),
            };
            Frontier { score, id, scale, base }
        });
        let eligible: Vec<u32> = sort_indices_desc(&scores)
            .into_iter()
            .filter(|&i| i >= lo && i < hi)
            .filter(|&i| frontier.is_none_or(|f| {
                cmp_score_desc(scores[i as usize] * scale, base + i, f.score, f.id)
                    == std::cmp::Ordering::Greater
            }))
            .collect();
        let (mut out, mut reference) = (vec![7u32; 3], vec![9u32; 2]);
        for k in [k.min(n), 0, 1, n / 2, n] {
            let range = [Segment::range(lo..hi)];
            let f = frontier.as_ref();
            let walk = top_k_pruned_into(&scores, &headed, range, k, f, None, &mut out);
            let parent = top_k_pruned_into(&scores, &walked, range, k, f, None, &mut reference);
            prop_assert_eq!(&out, &reference, "k={}", k);
            prop_assert_eq!(&out, &eligible[..k.min(eligible.len())], "k={}", k);
            prop_assert_eq!(walk.matched, parent.matched, "k={}", k);
            prop_assert_eq!(walk.matched, eligible.len(), "k={}", k);
            prop_assert_eq!(walk.blocks_in_range, parent.blocks_in_range, "k={}", k);
            prop_assert!(walk.blocks_scanned <= parent.blocks_scanned, "k={}", k);

            // A residual, or the range cut in two segments: the head is
            // ignored, and the walk is the head-less one block for block.
            let mid = lo + (hi - lo) / 2;
            let halves = [Segment::range(lo..mid), Segment::range(mid..hi)];
            let walk = top_k_pruned_into(&scores, &headed, halves, k, f, None, &mut out);
            let parent = top_k_pruned_into(&scores, &walked, halves, k, f, None, &mut reference);
            prop_assert_eq!((&out, walk), (&reference, parent), "halves k={}", k);
            prop_assert_eq!(&out, &eligible[..k.min(eligible.len())], "halves k={}", k);
            let mut pred = |id: u32| !id.is_multiple_of(residual + 1);
            let walk = top_k_pruned_into(&scores, &headed, range, k, f, Some(&mut pred), &mut out);
            let mut pred = |id: u32| !id.is_multiple_of(residual + 1);
            let parent =
                top_k_pruned_into(&scores, &walked, range, k, f, Some(&mut pred), &mut reference);
            prop_assert_eq!((&out, walk), (&reference, parent), "residual k={}", k);
        }
    }

    #[test]
    fn top_k_cut_heads_equal_walk_and_sort(
        raw in proptest::collection::vec(-8i32..8, 0..110),
        cuts in proptest::collection::vec(0u32..115, 0..7),
        head_len in 1usize..40,
        start in 0u8..3,
        pick in 0usize..8,
        len in 0u32..120,
        shape in 0u8..4,
        block_len in 2usize..9,
        at in 0usize..110,
        tweak in 0u8..5,
        scale in 0usize..3,
    ) {
        use sparsela::{cmp_score_desc, top_k_pruned_into, BlockMaxima, Frontier, Segment};
        let scale = [1.0, 0.25, 0.75][scale];
        // Ties, NaNs and `-inf`s; scores that fall with id, so every cut's
        // head differs from the whole vector's; scores that climb.
        let scores: Vec<f64> = raw
            .iter()
            .enumerate()
            .map(|(i, &v)| match shape {
                0 => (v / 2) as f64,
                1 if v == -8 => f64::NAN,
                1 if v == 7 => f64::NEG_INFINITY,
                1 => (v / 3) as f64 / 4.0,
                2 => -((i / 3) as f64),
                _ => (i / 2) as f64,
            })
            .collect();
        let n = scores.len();
        let cut = BlockMaxima::with_block_len(&scores, block_len, head_len, &cuts);
        let walked = BlockMaxima::with_block_len(&scores, block_len, 0, &[]);
        // A range starting on a cut, between two, or before the first
        // one past 0.
        let mut kept: Vec<u32> = cuts.iter().copied().filter(|&c| (c as usize) < n).collect();
        kept.sort_unstable();
        let on = kept.get(pick % kept.len().max(1)).copied().unwrap_or(0);
        let lo = match start {
            0 => on,
            1 => on + (pick as u32 % 5),
            _ => on.saturating_sub(1 + pick as u32 % 3),
        };
        let hi = lo.saturating_add(len);
        let frontier = (n > 0 && tweak < 4).then(|| {
            let on = at % n;
            let (score, id) = match tweak {
                0 => (scores[on] * scale, on as u32),
                1 => (scores[on] * scale, (on as u32).saturating_sub(1)),
                2 => (scores[on] * scale + 0.125, on as u32),
                _ => (f64::NAN, on as u32),
            };
            Frontier { score, id, scale, base: 0 }
        });
        let eligible: Vec<u32> = sort_indices_desc(&scores)
            .into_iter()
            .filter(|&i| i >= lo && i < hi)
            .filter(|&i| frontier.is_none_or(|f| {
                cmp_score_desc(scores[i as usize] * scale, i, f.score, f.id)
                    == std::cmp::Ordering::Greater
            }))
            .collect();
        let (mut out, mut reference) = (vec![7u32; 3], vec![9u32; 2]);
        for k in 0..=n {
            let range = [Segment::range(lo..hi)];
            let f = frontier.as_ref();
            let walk = top_k_pruned_into(&scores, &cut, range, k, f, None, &mut out);
            let parent = top_k_pruned_into(&scores, &walked, range, k, f, None, &mut reference);
            prop_assert_eq!(&out, &reference, "k={} {}..{}", k, lo, hi);
            prop_assert_eq!(&out, &eligible[..k.min(eligible.len())], "k={}", k);
            prop_assert_eq!(walk.matched, parent.matched, "k={}", k);
            prop_assert_eq!(walk.matched, eligible.len(), "k={}", k);
            prop_assert_eq!(walk.blocks_in_range, parent.blocks_in_range, "k={}", k);
        }
        // Each head built is its suffix's first ids.
        for &c in kept.iter().chain([&0]) {
            let suffix: Vec<u32> = sort_indices_desc(&scores).into_iter().filter(|&i| i >= c).collect();
            prop_assert_eq!(cut.head(&scores, c), &suffix[..head_len.min(suffix.len())]);
        }
    }

    #[test]
    fn top_k_band_heads_equal_walk_and_sort(
        raw in proptest::collection::vec((-8i32..8, 0u8..5), 0..110),
        n_lists in 1usize..5,
        pick in 0u8..16,
        cuts in proptest::collection::vec(0u32..115, 0..7),
        head_len in 1usize..40,
        start in 0u8..3,
        at_cut in 0usize..8,
        len in 0u32..100,
        shape in 0u8..4,
        block_len in 1usize..6,
        at in 0usize..110,
        tweak in 0u8..5,
        scale in 0usize..3,
        base in 0u32..1000,
        residual in 1u32..4,
    ) {
        use sparsela::{cmp_score_desc, top_k_pruned_into, BlockMaxima, Frontier, HeadCuts, Segment};
        let scale = [1.0, 0.25, 0.75][scale];
        // Ties, NaNs and `-inf`s; scores that fall with id, so a later
        // cut's head differs from its list's whole head; scores that
        // climb. Each id on at most one of `n_lists` posting lists (owner
        // ≥ `n_lists`: on none), so the lists are disjoint and ascending,
        // like a venue table's.
        let scores: Vec<f64> = raw
            .iter()
            .enumerate()
            .map(|(i, &(v, _))| match shape {
                0 => (v / 2) as f64,
                1 if v == -8 => f64::NAN,
                1 if v == 7 => f64::NEG_INFINITY,
                1 => (v / 3) as f64 / 4.0,
                2 => -((i / 3) as f64),
                _ => (i / 2) as f64,
            })
            .collect();
        let n = scores.len();
        let mut offsets = vec![0usize];
        let mut postings: Vec<u32> = Vec::new();
        for list in 0..n_lists {
            let on = raw.iter().enumerate().filter(|(_, &(_, o))| o as usize == list);
            postings.extend(on.map(|(id, _)| id as u32));
            offsets.push(postings.len());
        }
        // Each list is cut where each of 0–6 ids starts in it.
        let lists = offsets.windows(2).map(|w| &postings[w[0]..w[1]]);
        let at_cuts = HeadCuts::new(lists.map(|list| {
            (list.len(), cuts.iter().map(|&c| list.partition_point(|&id| id < c)))
        }));
        let headed = BlockMaxima::over_postings_with_block_len(
            &scores, &offsets, &postings, block_len, head_len, &at_cuts,
        );
        let walked = BlockMaxima::over_postings_with_block_len(
            &scores, &offsets, &postings, block_len, 0, &HeadCuts::default(),
        );
        // The OR of 1–4 lists, each cut to the id window `lo..hi` — a
        // venue's year suffix or year range — starting on a cut, between
        // two, or before one, and running to the lists' end or not.
        let mut kept: Vec<u32> = cuts.clone();
        kept.push(0);
        kept.sort_unstable();
        let on = kept[at_cut % kept.len()];
        let lo = match start {
            0 => on,
            1 => on + (at_cut as u32 % 5),
            _ => on.saturating_sub(1 + at_cut as u32 % 3),
        };
        // From 80 on, to the end.
        let hi = if len < 80 { lo.saturating_add(len) } else { u32::MAX };
        let mut picked: Vec<usize> = (0..n_lists).filter(|&l| pick >> l & 1 == 1).collect();
        if picked.is_empty() {
            picked.push(at_cut % n_lists);
        }
        let bands = picked.iter().map(|&l| {
            let list = &postings[offsets[l]..offsets[l + 1]];
            let cut = list.partition_point(|&id| id < lo)..list.partition_point(|&id| id < hi);
            Segment::band(l, list, cut)
        });
        // A frontier on an item (inside a tie run, on a NaN or `-inf`),
        // beside it, between items, or with a NaN score.
        let frontier = (n > 0 && tweak < 4).then(|| {
            let on = at % n;
            let (score, id) = match tweak {
                0 => (scores[on] * scale, base + on as u32),
                1 => (scores[on] * scale, base + (on as u32).saturating_sub(1)),
                2 => (scores[on] * scale + 0.125, base + on as u32),
                _ => (f64::NAN, base + on as u32),
            };
            Frontier { score, id, scale, base }
        });
        let sorted = sort_indices_desc(&scores);
        let in_bands = |i: u32| {
            i >= lo && i < hi && picked.contains(&(raw[i as usize].1 as usize))
        };
        let after = |i: u32| frontier.is_none_or(|f| {
            cmp_score_desc(scores[i as usize] * scale, base + i, f.score, f.id)
                == std::cmp::Ordering::Greater
        });
        let eligible: Vec<u32> = sorted.iter().copied().filter(|&i| in_bands(i) && after(i)).collect();
        let (mut out, mut reference) = (vec![7u32; 3], vec![9u32; 2]);
        for k in 0..=n {
            let f = frontier.as_ref();
            let walk = top_k_pruned_into(&scores, &headed, bands.clone(), k, f, None, &mut out);
            let parent = top_k_pruned_into(&scores, &walked, bands.clone(), k, f, None, &mut reference);
            prop_assert_eq!(&out, &reference, "k={} {}..{}", k, lo, hi);
            prop_assert_eq!(&out, &eligible[..k.min(eligible.len())], "k={}", k);
            prop_assert_eq!(walk.matched, parent.matched, "k={}", k);
            prop_assert_eq!(walk.matched, eligible.len(), "k={}", k);
            prop_assert_eq!(walk.blocks_in_range, parent.blocks_in_range, "k={}", k);
            prop_assert!(walk.blocks_scanned <= parent.blocks_scanned, "k={}", k);
            prop_assert!(walk.head_slices == 0 || walk.blocks_scanned == 0, "k={}", k);
        }
        // Under an author-like residual the heads are ignored: the walk is
        // the head-less one, block for block.
        let passes = |id: u32| !id.is_multiple_of(residual + 1);
        for k in [0, 1, n / 2, n] {
            let f = frontier.as_ref();
            let mut pred = passes;
            let walk = top_k_pruned_into(&scores, &headed, bands.clone(), k, f, Some(&mut pred), &mut out);
            let mut pred = passes;
            let parent =
                top_k_pruned_into(&scores, &walked, bands.clone(), k, f, Some(&mut pred), &mut reference);
            prop_assert_eq!((&out, walk), (&reference, parent), "residual k={}", k);
            let want: Vec<u32> = eligible.iter().copied().filter(|&i| passes(i)).take(k).collect();
            prop_assert_eq!(&out, &want, "residual k={}", k);
        }
    }

    #[test]
    fn top_k_pruned_bands_equal_sort_lists_range_frontier_truncate(
        raw in proptest::collection::vec((-6i32..6, 0u8..5), 0..110),
        n_lists in 1usize..5,
        pick in 0u8..16,
        bounds in (0u32..120, 0u32..120),
        k in 0usize..120,
        block_len in 1usize..6,
        at in 0usize..110,
        tweak in 0u8..4,
        scale in 0usize..3,
        base in 0u32..1000,
        residual in 0u8..3,
    ) {
        use sparsela::{cmp_score_desc, top_k_pruned_into, BlockMaxima, Frontier, HeadCuts, Segment};
        let scale = [1.0, 0.25, 1.0 / 3.0][scale];
        // Scores in ties of two, with NaNs and `-inf`s; each id on at most
        // one of `n_lists` posting lists (owner ≥ `n_lists`: on none), so
        // the lists are disjoint and ascending, like a venue table's.
        let scores: Vec<f64> = raw
            .iter()
            .map(|&(v, _)| match v {
                -6 => f64::NAN,
                5 => f64::NEG_INFINITY,
                v => (v / 2) as f64,
            })
            .collect();
        let n = scores.len();
        let mut offsets = vec![0usize];
        let mut postings: Vec<u32> = Vec::new();
        for list in 0..n_lists {
            let on = raw.iter().enumerate().filter(|(_, &(_, o))| o as usize == list);
            postings.extend(on.map(|(id, _)| id as u32));
            offsets.push(postings.len());
        }
        let maxima = BlockMaxima::over_postings_with_block_len(&scores, &offsets, &postings, block_len, 0, &HeadCuts::default());
        // The OR of the picked lists, each cut to the id range `lo..hi` —
        // a year window — so bands start and end mid-block.
        let (lo, hi) = (bounds.0.min(bounds.1), bounds.0.max(bounds.1));
        let picked: Vec<usize> = (0..n_lists).filter(|&l| pick >> l & 1 == 1).collect();
        let segments = picked.iter().map(|&l| {
            let list = &postings[offsets[l]..offsets[l + 1]];
            let cut = list.partition_point(|&id| id < lo)..list.partition_point(|&id| id < hi);
            Segment::band(l, list, cut)
        });
        let frontier = (n > 0 && tweak < 3).then(|| {
            let on = at % n;
            let (score, id) = match tweak {
                0 => (scores[on] * scale, base + on as u32),
                1 => (scores[on] * scale, base + (on as u32).saturating_sub(1)),
                _ => (scores[on] * scale + 0.125, base + on as u32),
            };
            Frontier { score, id, scale, base }
        });
        let passes = |id: u32| residual == 0 || !id.is_multiple_of(residual as u32 + 1);
        let eligible: Vec<u32> = sort_indices_desc(&scores)
            .into_iter()
            .filter(|&i| i >= lo && i < hi && passes(i))
            .filter(|&i| picked.contains(&(raw[i as usize].1 as usize)))
            .filter(|&i| frontier.is_none_or(|f| {
                cmp_score_desc(scores[i as usize] * scale, base + i, f.score, f.id)
                    == std::cmp::Ordering::Greater
            }))
            .collect();
        let mut out = vec![7u32; 3];
        for k in [k.min(n), 0, 1, n.saturating_sub(1), n] {
            let mut pred = passes;
            let pred: Option<&mut dyn FnMut(u32) -> bool> = (residual > 0).then_some(&mut pred as _);
            let walk = top_k_pruned_into(
                &scores, &maxima, segments.clone(), k, frontier.as_ref(), pred, &mut out,
            );
            prop_assert_eq!(&out, &eligible[..k.min(eligible.len())], "k={}", k);
            prop_assert_eq!(walk.matched, eligible.len(), "k={}", k);
            prop_assert!(walk.blocks_scanned <= walk.blocks_in_range);
        }
    }

    #[test]
    fn score_vec_top_k_matches_partial_select(
        raw in proptest::collection::vec(-100i32..100, 1..80),
        k in 1usize..20,
    ) {
        let scores: Vec<f64> = raw.iter().map(|&v| v as f64).collect();
        let v = ScoreVec::from_vec(scores.clone());
        prop_assert_eq!(v.top_k(k), top_k_indices(&scores, k));
    }

    #[test]
    fn merge_k_sorted_equals_concat_full_sort(
        raw_runs in proptest::collection::vec(
            proptest::collection::vec((-4i32..4, 0u32..64), 0..40),
            0..8,
        ),
        k in 0usize..50,
    ) {
        use sparsela::{cmp_score_desc, merge_k_sorted};
        // Quantized scores force heavy cross-run ties; a score of -4
        // stands in for NaN so the totality branch is exercised too.
        let runs: Vec<Vec<(f64, u32)>> = raw_runs
            .iter()
            .map(|run| {
                let mut r: Vec<(f64, u32)> = run
                    .iter()
                    .map(|&(s, id)| (if s == -4 { f64::NAN } else { s as f64 }, id))
                    .collect();
                r.sort_by(|a, b| cmp_score_desc(a.0, a.1, b.0, b.1));
                r
            })
            .collect();
        let refs: Vec<&[(f64, u32)]> = runs.iter().map(|r| r.as_slice()).collect();
        let mut expected: Vec<(f64, u32)> = runs.iter().flatten().copied().collect();
        expected.sort_by(|a, b| cmp_score_desc(a.0, a.1, b.0, b.1));
        expected.truncate(k);
        let got = merge_k_sorted(&refs, k);
        prop_assert_eq!(got.len(), expected.len());
        for (g, w) in got.iter().zip(&expected) {
            prop_assert_eq!(g.1, w.1);
            prop_assert!(g.0 == w.0 || (g.0.is_nan() && w.0.is_nan()));
        }
    }

    // --- IdMask intersection vs a naive Vec<bool> model ------------------
    //
    // Lengths are drawn around word boundaries (0, 63, 64, 65, 127, 128,
    // 129, ...) on purpose: the word-wise AND loop and the last word are
    // exactly the places a off-by-one in `len % 64` would hide.

    #[test]
    fn mask_algebra_matches_bool_model(
        word_bias in 0usize..4,
        tail in 0usize..66,
        seed_a in proptest::collection::vec(0u8..2, 0..260),
        seed_b in proptest::collection::vec(0u8..2, 0..260),
    ) {
        let len = word_bias * 64 + tail;
        let model = |bits: &[u8]| -> Vec<bool> {
            (0..len).map(|i| bits.get(i).copied().unwrap_or(0) == 1).collect()
        };
        let (ma, mb) = (model(&seed_a), model(&seed_b));
        let mask_of = |m: &[bool]| {
            IdMask::from_ids(len, m.iter().enumerate().filter(|(_, &b)| b).map(|(i, _)| i as u32))
        };
        let (mut and, b) = (mask_of(&ma), mask_of(&mb));
        and.intersect_with(&b);
        let want: Vec<u32> = (0..len).filter(|&i| ma[i] && mb[i]).map(|i| i as u32).collect();
        prop_assert_eq!(and.ones().collect::<Vec<_>>(), want.clone());
        prop_assert_eq!(and.count_ones(), want.len());
    }

    #[test]
    fn probability_mass_is_conserved_under_threading(
        (n, edges) in edges_strategy(50),
        threads in 1usize..9,
    ) {
        let refs = Csr::from_edges(n, n, &edges);
        let op = CitationOperator::from_references(&refs);
        let mut x = vec![0.0; n];
        for (i, v) in x.iter_mut().enumerate() {
            *v = ((i * 31) % 17) as f64 + 1.0;
        }
        let total: f64 = x.iter().sum();
        for v in x.iter_mut() {
            *v /= total;
        }
        let mut y = vec![0.0; n];
        op.apply_with_threads(threads, &x, &mut y);
        let sum: f64 = y.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-10, "threads={} sum={}", threads, sum);
        prop_assert!(y.iter().all(|&v| v >= 0.0));
    }
}
