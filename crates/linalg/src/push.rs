//! Residual-driven ("push") solver for damped stochastic fixed points.
//!
//! Every PageRank-family method in this workspace solves a system of the
//! form `x = α·S·x + b` where `S` is the column-stochastic citation
//! operator and `b` a personalization vector. The power method pays a full
//! `O(E)` sweep per iteration even when the system barely changed; the
//! Gauss–Southwell / residual-push scheme implemented here instead
//! maintains the invariant
//!
//! ```text
//! x* = x + (I − α·S)⁻¹ · r
//! ```
//!
//! (`x*` the true fixed point, `x` the current estimate, `r` the residual)
//! and repeatedly *pushes* residual mass: pick a node `u` with
//! `|r[u]| > θ`, move `r[u]` into `x[u]`, and propagate `α·r[u]·S[:,u]`
//! back into the residual. Each push touches only `u`'s column — for a
//! citation network, the papers `u` cites — so total work scales with the
//! size of the perturbation, not with `E · iterations`. Because `S` is a
//! contraction in L1 (`α < 1`), every push removes at least `(1−α)·|r[u]|`
//! of residual mass, which yields both termination and the stopping
//! guarantee: once `‖r‖₁ ≤ ε`, the estimate satisfies
//! `‖x − x*‖₁ ≤ ε / (1−α)` — the same error ballpark a power iteration
//! stopped at L1 step-difference `ε` achieves.
//!
//! ## Dangling columns and the deferred uniform mass
//!
//! A dangling paper's column of `S` is uniform (`1/n` in every row), so a
//! naive push there would touch all `n` nodes — and worse, re-activate
//! every node above the push threshold, degenerating the run into dense
//! sweeps. The solver therefore never pushes that mass: it accumulates
//! all uniform-direction residual into one scalar `g` and returns it
//! ([`LanesOutcome::deferred`]). The caller resolves it *analytically* against a
//! maintained solution `u` of the uniform system `u = α·S·u + (1/n)·1`
//! (the "uniform kernel"): the exact missing contribution is `g·u`, one
//! dense AXPY, with no residual re-densification at all — or, when the
//! system *is* the uniform one, in closed form, `x / (1 − g)`. This is
//! what keeps a push O(affected) on graphs where a sizable fraction of
//! papers cite nothing.
//!
//! ## Lanes: K right-hand sides, one traversal
//!
//! Systems that differ only in `b` share the matrix, and after a graph
//! delta they share almost the whole perturbed cone as well. The loop is
//! therefore written once, generic over a lane count `K`
//! ([`solve_lanes`]): the residuals are lane-interleaved (`r[i·K + k]`,
//! one cache line per visited node for all systems), a node is pushed when
//! *any* of its lanes exceeds the threshold and then every lane is pushed
//! (a push is exact for any amount, so a sub-threshold lane loses
//! nothing), and deferred dangling mass and the final `‖r‖₁` are kept per
//! lane. Each traversed edge is walked — and counted — once for all
//! lanes. A single system is the same loop at `K = 1`.
//!
//! ## One pass on a citation DAG
//!
//! Nodes are pushed in descending id order, and citations point to lower
//! ids, so a node's whole inflow has landed before it is pushed: a cold
//! solve (`x = 0`, `r = b`) settles each node reachable from `b`'s support
//! once, at most `E + n` edge work — which is why the cold solves above
//! this layer (the scorer's full solve, the uniform kernel, a seed set's
//! personalization) pass no work budget. Only a citation to a higher id
//! (same-year, or a cycle) costs another pass.
//!
//! The caller supplies the *column view* of `S`: a [`Csr`] whose row `u`
//! lists the rows receiving mass `1/degree(u)` when `u` pushes (for the
//! citation operator that is the *reference* adjacency — walking
//! out-edges). Seeding the residual for a graph delta lives one layer up,
//! in `citegraph`, which knows both network states.

use crate::csr::Csr;

/// Options controlling a residual-push run.
#[derive(Debug, Clone, Copy)]
pub struct PushConfig {
    /// Damping factor `α` of the system `x = α·S·x + b`. Must lie in
    /// `[0, 1)`.
    pub alpha: f64,
    /// Target L1 residual bound: the run succeeds once
    /// `‖r‖₁ + |deferred dangling mass| ≤ epsilon`, guaranteeing
    /// `‖x − x*‖₁ ≤ epsilon / (1−α)`.
    pub epsilon: f64,
    /// Hard cap on edge traversals (each push costs `max(degree, 1)`). When
    /// exceeded the solver returns with `converged = false` and the caller
    /// falls back to a full solve — the worst case never regresses past
    /// `max_edge_work` of wasted work. A cold solve passes `u64::MAX`.
    pub max_edge_work: u64,
}

/// Diagnostics of a `K`-lane run ([`solve_lanes`]). The lanes share one
/// traversal, so convergence, the push count and the edge work are single
/// figures; the residual bound and the deferred mass are per lane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LanesOutcome<const K: usize> {
    /// Whether *every* lane's residual dropped below `epsilon` within the
    /// work budget (the budget is shared, so exhausting it fails all
    /// lanes at once).
    pub converged: bool,
    /// Nodes pushed; a push moves every lane's residual at that node.
    pub pushes: u64,
    /// Edge traversals. A traversed edge is counted once whatever `K`, so
    /// the figure stays comparable with [`PushConfig::max_edge_work`].
    pub edge_work: u64,
    /// Final `‖r‖₁` of each lane (deferred mass excluded).
    pub residual_l1: [f64; K],
    /// Uniform-direction residual mass accumulated by each lane, on top
    /// of its `initial_deferred` seed.
    pub deferred: [f64; K],
}

/// The push loop, over `K` systems `x_k = α·S·x_k + b_k` on the same
/// matrix at once (see the module docs, "Lanes"); one system is `K = 1`.
/// `x[k]` is lane `k`'s estimate; `r` holds all residuals
/// lane-interleaved, `r[i·K + k]` = lane `k` at node `i`. Processes the
/// residual until every entry of every lane is below the threshold
/// (success: `Σ|r_k| ≤ ε/2 ≤ ε` per lane) or the shared budget runs out.
///
/// `columns` is the column view of `S` (row `u` = rows with
/// `S[i,u] = 1/degree(u)`; degree-0 rows are dangling columns spreading
/// `1/n`). The caller seeds each lane so that the push invariant
/// `x* = x + (I − α·S)⁻¹·r` holds — `x = 0, r = b` for a cold solve, or
/// `x` = the previous fixed point and `r` = the perturbation residual
/// for an incremental update. `r` is consumed (left near zero on
/// success).
///
/// Uniform-direction mass is never pushed: it accumulates per lane into
/// [`LanesOutcome::deferred`] (on top of `initial_deferred`) and is not
/// counted against convergence. The caller resolves it: the missing
/// contribution is `g·u` with `u` the solution of `u = α·S·u + (1/n)·1`
/// on the same matrix, or — when `x` is a multiple `u = f·x*` of that
/// kernel — the closed form `x / (1 − g·f)`.
///
/// # Panics
/// Panics unless `0 ≤ α < 1`, `epsilon > 0`, `columns` is square, every
/// `x[k]` matches its dimension `n`, and `r.len() == n·K`.
#[allow(clippy::needless_range_loop)] // `k` indexes the lane of several arrays at once
pub fn solve_lanes<const K: usize>(
    columns: &Csr,
    cfg: &PushConfig,
    x: [&mut [f64]; K],
    r: &mut [f64],
    initial_deferred: [f64; K],
) -> LanesOutcome<K> {
    let n = columns.nrows();
    assert_eq!(n, columns.ncols(), "push: column view must be square");
    for lane in &x {
        assert_eq!(lane.len(), n, "push: x length mismatch");
    }
    assert_eq!(r.len(), n * K, "push: r length mismatch");
    assert!(
        (0.0..1.0).contains(&cfg.alpha),
        "push: alpha {} outside [0, 1)",
        cfg.alpha
    );
    assert!(cfg.epsilon > 0.0, "push: epsilon must be positive");

    let mut outcome = LanesOutcome {
        converged: true,
        pushes: 0,
        edge_work: 0,
        residual_l1: [0.0; K],
        deferred: initial_deferred,
    };
    if n == 0 || K == 0 {
        return outcome;
    }

    let alpha = cfg.alpha;
    // Entries at or below θ are left in place; with θ = ε/(2n) their total
    // is at most ε/2 ≤ ε per lane once the queue drains.
    let theta = cfg.epsilon / (2.0 * n as f64);
    // A node is live while any of its lanes is above θ; pushing it then
    // moves every lane (exact for any amount, so a sub-threshold lane
    // riding along loses nothing).
    let live = |lanes: &[f64]| lanes.iter().any(|v| v.abs() > theta);

    // Highest node id first. In a citation network the column view's rows
    // are reference lists, which point (almost) strictly backwards in
    // time — i.e. towards *smaller* ids. Processing in descending id
    // order therefore settles all of a node's upstream inflow before the
    // node itself is pushed, so each affected node is pushed O(1) times
    // instead of once per residual-decay round (~log(m₀/ε) times with a
    // FIFO). The order is realized as descending *cursor scans* directly
    // over the residual vector — the scan itself is the work list, so the
    // inner loop is a bare gather-accumulate with no queue or bitmap
    // bookkeeping. Residual landing *above* the running cursor (possible
    // only through same-year forward edges or cycles) triggers another
    // pass; correctness never depends on the order.
    let mut hi: i64 = r.chunks_exact(K).rposition(live).map_or(-1, |i| i as i64);

    'passes: while hi >= 0 {
        let mut cursor = hi;
        hi = -1;
        while cursor >= 0 {
            let u = cursor as usize;
            cursor -= 1;
            let at = u * K;
            if !live(&r[at..at + K]) {
                continue;
            }
            let mut rho = [0.0f64; K];
            for k in 0..K {
                rho[k] = r[at + k];
                r[at + k] = 0.0;
                x[k][u] += rho[k];
            }
            let row = columns.row(u as u32);
            outcome.pushes += 1;
            outcome.edge_work += row.len().max(1) as u64;
            if row.is_empty() {
                // Dangling column: its uniform spread is deferred.
                for k in 0..K {
                    outcome.deferred[k] += alpha * rho[k];
                }
            } else {
                let spread = rho.map(|rho| alpha * rho / row.len() as f64);
                for &i in row {
                    let at = i as usize * K;
                    // The one per-edge, per-lane loop. A `while`, not a
                    // range `for`: optimized builds compile both to the
                    // same code, but the unoptimized builds the tier-1
                    // timing pins run under pay a call per `Range::next`.
                    let mut k = 0;
                    while k < K {
                        r[at + k] += spread[k];
                        k += 1;
                    }
                    if i as i64 > cursor && live(&r[at..at + K]) {
                        hi = hi.max(i as i64);
                    }
                }
            }
            if outcome.edge_work > cfg.max_edge_work {
                outcome.converged = false;
                break 'passes;
            }
        }
    }
    for lanes in r.chunks_exact(K) {
        for k in 0..K {
            outcome.residual_l1[k] += lanes[k].abs();
        }
    }
    if outcome.converged {
        outcome.converged = outcome.residual_l1.iter().all(|&l1| l1 <= cfg.epsilon);
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dense reference solve of `x = α·S·x + b` with the full stochastic
    /// operator (dangling columns uniform).
    fn dense_solve(refs: &Csr, alpha: f64, b: &[f64]) -> Vec<f64> {
        let n = refs.nrows();
        let mut x = vec![0.0; n];
        for _ in 0..20_000 {
            let mut y = b.to_vec();
            for j in 0..n as u32 {
                let row = refs.row(j);
                if row.is_empty() {
                    for yi in y.iter_mut() {
                        *yi += alpha * x[j as usize] / n as f64;
                    }
                } else {
                    let w = alpha * x[j as usize] / row.len() as f64;
                    for &i in row {
                        y[i as usize] += w;
                    }
                }
            }
            let diff: f64 = y.iter().zip(&x).map(|(a, c)| (a - c).abs()).sum();
            x = y;
            if diff < 1e-15 {
                break;
            }
        }
        x
    }

    fn sample_refs() -> Csr {
        // 6 papers; paper 0 dangling, heavy-tailed in-degree on 0.
        Csr::from_edges(
            6,
            6,
            &[
                (1, 0),
                (2, 0),
                (2, 1),
                (3, 0),
                (3, 2),
                (4, 1),
                (5, 4),
                (5, 0),
            ],
        )
    }

    fn cfg(alpha: f64) -> PushConfig {
        PushConfig {
            alpha,
            epsilon: 1e-12,
            max_edge_work: u64::MAX,
        }
    }

    /// `x + g·u`, the deferred mass `g` resolved against the kernel `u`.
    fn resolve(x: &mut [f64], g: f64, u: &[f64]) {
        for (xi, ui) in x.iter_mut().zip(u) {
            *xi += g * ui;
        }
    }

    #[test]
    fn cold_start_matches_dense_reference() {
        let refs = sample_refs();
        let n = refs.nrows();
        let alpha = 0.5;
        let u = dense_solve(&refs, alpha, &vec![1.0 / n as f64; n]);
        let b: Vec<f64> = (0..n).map(|i| 0.1 + 0.05 * i as f64).collect();
        let mut x = vec![0.0; n];
        let mut r = b.clone();
        let out = solve_lanes(&refs, &cfg(alpha), [&mut x], &mut r, [0.0]);
        assert!(out.converged);
        assert!(out.residual_l1[0] <= 1e-12);
        resolve(&mut x, out.deferred[0], &u);
        let reference = dense_solve(&refs, alpha, &b);
        for i in 0..n {
            assert!(
                (x[i] - reference[i]).abs() < 1e-10,
                "component {i}: push {} vs dense {}",
                x[i],
                reference[i]
            );
        }
    }

    #[test]
    fn incremental_update_from_perturbed_personalization() {
        let refs = sample_refs();
        let n = refs.nrows();
        let alpha = 0.4;
        let u = dense_solve(&refs, alpha, &vec![1.0 / n as f64; n]);
        let b0: Vec<f64> = vec![1.0 / n as f64; n];
        let mut x = vec![0.0; n];
        let mut r = b0.clone();
        let out = solve_lanes(&refs, &cfg(alpha), [&mut x], &mut r, [0.0]);
        assert!(out.converged);
        resolve(&mut x, out.deferred[0], &u);

        // Perturb b and seed the residual with the difference only.
        let mut b1 = b0.clone();
        b1[2] += 0.3;
        b1[5] -= 0.05;
        let mut r: Vec<f64> = b1.iter().zip(&b0).map(|(a, c)| a - c).collect();
        let out = solve_lanes(&refs, &cfg(alpha), [&mut x], &mut r, [0.0]);
        assert!(out.converged);
        resolve(&mut x, out.deferred[0], &u);
        let reference = dense_solve(&refs, alpha, &b1);
        for i in 0..n {
            assert!((x[i] - reference[i]).abs() < 1e-10, "component {i}");
        }
    }

    #[test]
    fn deferring_with_kernel_resolution_matches_dense() {
        let refs = sample_refs();
        let n = refs.nrows();
        let alpha = 0.6;
        // Uniform kernel u = (I − αS)⁻¹ (1/n)·1 via the dense reference.
        let u = dense_solve(&refs, alpha, &vec![1.0 / n as f64; n]);
        let b: Vec<f64> = (0..n).map(|i| 0.05 + 0.02 * i as f64).collect();
        let mut x = vec![0.0; n];
        let mut r = b.clone();
        let out = solve_lanes(&refs, &cfg(alpha), [&mut x], &mut r, [0.0]);
        assert!(out.converged);
        assert!(out.residual_l1[0] <= 1e-12);
        // Dangling node 0 is heavily cited, so mass must have deferred.
        assert!(out.deferred[0] > 0.0);
        resolve(&mut x, out.deferred[0], &u);
        let reference = dense_solve(&refs, alpha, &b);
        for i in 0..n {
            assert!(
                (x[i] - reference[i]).abs() < 1e-9,
                "component {i}: deferred-resolved {} vs dense {}",
                x[i],
                reference[i]
            );
        }
    }

    #[test]
    fn self_similar_resolution_solves_uniform_system() {
        // When b itself is the uniform vector, x* = n·(1/n)-kernel and the
        // deferred mass resolves in closed form: x* = x / (1 − deferred).
        let refs = sample_refs();
        let n = refs.nrows();
        let alpha = 0.5;
        let b = vec![1.0 / n as f64; n];
        let mut x = vec![0.0; n];
        let mut r = b.clone();
        let out = solve_lanes(&refs, &cfg(alpha), [&mut x], &mut r, [0.0]);
        assert!(out.converged);
        let scale = 1.0 / (1.0 - out.deferred[0]);
        let reference = dense_solve(&refs, alpha, &b);
        for i in 0..n {
            assert!((x[i] * scale - reference[i]).abs() < 1e-9, "component {i}");
        }
    }

    #[test]
    fn zero_budget_reports_fallback() {
        let refs = sample_refs();
        let mut x = vec![0.0; 6];
        let mut r = vec![0.5; 6];
        let out = solve_lanes(
            &refs,
            &PushConfig {
                alpha: 0.5,
                epsilon: 1e-12,
                max_edge_work: 0,
            },
            [&mut x],
            &mut r,
            [0.0],
        );
        assert!(!out.converged);
        assert!(out.residual_l1[0] > 1e-12);
    }

    #[test]
    fn zero_residual_is_immediate_noop() {
        let refs = sample_refs();
        let mut x = vec![0.25; 6];
        let before = x.clone();
        let mut r = vec![0.0; 6];
        let out = solve_lanes(&refs, &cfg(0.5), [&mut x], &mut r, [0.0]);
        assert!(out.converged);
        assert_eq!(out.pushes, 0);
        assert_eq!(x, before);
    }

    #[test]
    fn alpha_zero_copies_residual_once() {
        let refs = sample_refs();
        let mut x = vec![0.0; 6];
        let mut r = vec![0.1, 0.2, 0.0, 0.0, 0.3, 0.0];
        let out = solve_lanes(&refs, &cfg(0.0), [&mut x], &mut r, [0.0]);
        assert!(out.converged);
        assert_eq!(x, vec![0.1, 0.2, 0.0, 0.0, 0.3, 0.0]);
        assert_eq!(out.pushes, 3);
    }

    #[test]
    fn empty_system_converges_trivially() {
        let refs = Csr::empty(0, 0);
        let out = solve_lanes(&refs, &cfg(0.5), [&mut []], &mut [], [0.0]);
        assert!(out.converged);
        assert_eq!(out.edge_work, 0);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn alpha_one_panics() {
        let refs = Csr::empty(2, 2);
        let _ = solve_lanes(
            &refs,
            &PushConfig {
                alpha: 1.0,
                epsilon: 1e-9,
                max_edge_work: 10,
            },
            [&mut [0.0; 2]],
            &mut [0.0; 2],
            [0.0],
        );
    }

    /// 7 papers with everything the descending cursor does not settle in
    /// one pass: two cycles (0→3→1→0, 2→5→4→2), forward edges (0→3, 2→5,
    /// 5→6) and a cited dangling paper (6).
    fn cyclic_refs() -> Csr {
        Csr::from_edges(
            7,
            7,
            &[
                (0, 3),
                (3, 1),
                (1, 0),
                (2, 5),
                (5, 4),
                (4, 2),
                (5, 6),
                (3, 2),
            ],
        )
    }

    /// Three right-hand sides of mixed sign and support.
    fn three_seeds(n: usize) -> [Vec<f64>; 3] {
        [
            vec![1.0 / n as f64; n],
            (0..n).map(|i| 0.3 - 0.11 * i as f64).collect(),
            (0..n).map(|i| if i % 3 == 1 { 0.4 } else { 0.0 }).collect(),
        ]
    }

    fn interleave<const K: usize>(seeds: &[Vec<f64>; K]) -> Vec<f64> {
        let n = seeds[0].len();
        (0..n * K).map(|at| seeds[at % K][at / K]).collect()
    }

    #[test]
    fn three_lanes_match_three_single_runs_and_the_dense_reference() {
        for refs in [sample_refs(), cyclic_refs()] {
            let n = refs.nrows();
            let alpha = 0.6;
            let cfg = cfg(alpha);
            let bound = 2.0 * cfg.epsilon / (1.0 - alpha);
            // Each run's deferred mass is short of its limit by at most
            // α/(1−α) of the residual (≤ ε/2) it left unpushed.
            let deferred_bound = cfg.epsilon * (alpha / (1.0 - alpha)).max(1.0);
            let kernel = dense_solve(&refs, alpha, &vec![1.0 / n as f64; n]);
            let seeds = three_seeds(n);

            let mut x3 = [vec![0.0; n], vec![0.0; n], vec![0.0; n]];
            let mut r3 = interleave(&seeds);
            let out3 = solve_lanes(
                &refs,
                &cfg,
                x3.each_mut().map(Vec::as_mut_slice),
                &mut r3,
                [0.0; 3],
            );
            assert!(out3.converged);

            for k in 0..3 {
                let mut x1 = vec![0.0; n];
                let mut r1 = seeds[k].clone();
                let out1 = solve_lanes(&refs, &cfg, [&mut x1], &mut r1, [0.0]);
                assert!(out1.converged);
                assert!(out3.residual_l1[k] <= cfg.epsilon);
                assert!(
                    (out3.deferred[k] - out1.deferred[0]).abs() <= deferred_bound,
                    "lane {k}: deferred {} vs {}",
                    out3.deferred[k],
                    out1.deferred[0]
                );
                let reference = dense_solve(&refs, alpha, &seeds[k]);
                let resolved = |x: &[f64], g: f64| -> Vec<f64> {
                    x.iter().zip(&kernel).map(|(x, u)| x + g * u).collect()
                };
                let l1 = |a: &[f64], b: &[f64]| -> f64 {
                    a.iter().zip(b).map(|(a, b)| (a - b).abs()).sum()
                };
                let lanes = resolved(&x3[k], out3.deferred[k]);
                let single = resolved(&x1, out1.deferred[0]);
                assert!(l1(&lanes, &reference) <= bound, "lane {k} vs dense");
                assert!(l1(&single, &reference) <= bound, "single {k} vs dense");
                assert!(l1(&lanes, &single) <= bound, "lane {k} vs single");
            }
        }
    }

    #[test]
    fn an_all_zero_lane_rides_along_untouched() {
        let refs = cyclic_refs();
        let n = refs.nrows();
        let seeds = three_seeds(n);
        let idle: Vec<f64> = (0..n).map(|i| 0.125 * (i + 1) as f64).collect();
        let mut x = [vec![0.0; n], idle.clone(), vec![0.0; n]];
        let mut r = interleave(&[seeds[1].clone(), vec![0.0; n], seeds[2].clone()]);
        let out = solve_lanes(
            &refs,
            &cfg(0.7),
            x.each_mut().map(Vec::as_mut_slice),
            &mut r,
            [0.0, 0.375, 0.0],
        );
        assert!(out.converged && out.pushes > 0);
        let bits = |v: &[f64]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&x[1]), bits(&idle));
        assert_eq!(out.deferred[1].to_bits(), 0.375f64.to_bits());
        assert_eq!(out.residual_l1[1], 0.0);
        assert!(out.deferred[0] != 0.0, "the live lanes did defer mass");
    }

    #[test]
    fn exhausted_budget_fails_every_lane_at_once() {
        let refs = sample_refs();
        let n = refs.nrows();
        let mut x = [vec![0.0; n], vec![0.0; n], vec![0.0; n]];
        // Only lane 0 carries residual; the shared budget still fails the
        // run as a whole.
        let mut r = interleave(&[vec![0.5; n], vec![0.0; n], vec![0.0; n]]);
        let out = solve_lanes(
            &refs,
            &PushConfig {
                alpha: 0.5,
                epsilon: 1e-12,
                max_edge_work: 0,
            },
            x.each_mut().map(Vec::as_mut_slice),
            &mut r,
            [0.0; 3],
        );
        assert!(!out.converged);
        assert_eq!(out.pushes, 1, "the budget is checked once per push");
        assert!(out.residual_l1[0] > 1e-12);
    }

    #[test]
    fn an_edge_is_counted_once_whatever_the_lane_count() {
        // The same seed in one lane or in all three walks the same nodes.
        let refs = sample_refs();
        let n = refs.nrows();
        let b = three_seeds(n)[0].clone();
        let mut x1 = vec![0.0; n];
        let single = solve_lanes(&refs, &cfg(0.5), [&mut x1], &mut b.clone(), [0.0]);
        let mut x3 = [vec![0.0; n], vec![0.0; n], vec![0.0; n]];
        let lanes = solve_lanes(
            &refs,
            &cfg(0.5),
            x3.each_mut().map(Vec::as_mut_slice),
            &mut interleave(&[b.clone(), b.clone(), b]),
            [0.0; 3],
        );
        assert_eq!(lanes.edge_work, single.edge_work);
        assert_eq!(lanes.pushes, single.pushes);
        for lane in &x3 {
            assert_eq!(lane, &x1);
        }
    }

    #[test]
    fn work_scales_with_perturbation_not_graph() {
        // A long chain: perturbing the tail node must not touch the head.
        let n = 2_000u32;
        let edges: Vec<(u32, u32)> = (1..n).map(|i| (i, i - 1)).collect();
        let refs = Csr::from_edges(n as usize, n as usize, &edges);
        let mut x = vec![0.0; n as usize];
        let mut r = vec![0.0; n as usize];
        // Converged state for b = uniform is not needed; seed a residual at
        // one node of a *zero* system (b = 0 everywhere except the seed).
        r[(n - 1) as usize] = 1.0;
        let out = solve_lanes(
            &refs,
            &PushConfig {
                alpha: 0.5,
                epsilon: 1e-6,
                max_edge_work: u64::MAX,
            },
            [&mut x],
            &mut r,
            [0.0],
        );
        assert!(out.converged);
        // α^k decays below ε/(2n) after ~log₂(2n/ε) ≈ 32 hops; the other
        // ~1968 chain nodes are never visited.
        assert!(
            out.edge_work < 200,
            "push walked {} edges on a localized perturbation",
            out.edge_work
        );
    }
}
