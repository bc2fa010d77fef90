//! Push-based incremental re-ranking across a [`GraphDelta`].
//!
//! Every damped fixed point in this workspace (`x = α·S·x + b` — AttRank,
//! PageRank, and structurally CiteRank/FutureRank/ECM) can be *updated*
//! instead of re-solved when the network changes by a delta: the previous
//! fixed point stays a near-solution of the new system, and the exact gap
//! is captured by a residual that is **sparse in magnitude** — large only
//! where reference lists or personalization mass actually moved.
//!
//! The entry points here seed that residual in `O(n + |delta-adjacent
//! edges|)` cheap vector work (no SpMV) and hand it to [`sparsela::push`],
//! which localizes the remaining work to the perturbed neighborhood. The
//! derivation, writing `S = N + (1/n)·1·dᵀ`
//! (non-dangling columns plus the uniform dangling rank-1 part) and using
//! that the old state satisfied `b₀ + α·S₀·x₀ − x₀ ≈ 0`:
//!
//! ```text
//! r[i] = (b₁ − b₀)[i]                                  (personalization)
//!      + α·Σ_{j ∈ changed} x₀[j]·(N₁[:,j] − N₀[:,j])   (rewired columns)
//!      + α·(D₁/n₁ − D₀/n₀)                             (dangling shift, old rows)
//! r[i] = b₁[i] + α·(N₁·x̃)[i] + α·D₁/n₁                (new rows, x̃[i] = 0)
//! ```
//!
//! where `D` is the score mass held by dangling papers and `changed` is
//! the set of existing papers whose reference lists the delta touched.
//! Because deltas only *add* papers and edges, `changed` is exactly the
//! distinct old citing ids in the batch.
//!
//! ## Scale-invariant seeding
//!
//! Normalized personalization vectors shift *everywhere* when the network
//! grows — `A` and `T` are probability vectors, so adding papers rescales
//! every old entry — and a naive `b₁ − b₀` seed is therefore dense with
//! entries far above the push threshold, degenerating the push into a
//! slow power iteration. But the fixed point is linear in `b`: warm-
//! starting from `c·x₀` instead of `x₀` turns the personalization term of
//! the residual into `b₁ − c·b₀`, which vanishes identically wherever the
//! shift was the pure rescaling `b₁ = c·b₀`. The seeding below fits `c`
//! as a robust median of entry ratios (exact for uniform teleports and
//! for recency vectors, whose age shift `e^{w·Δt}` is one global factor),
//! leaving a residual that is sparse again: only genuinely perturbed
//! entries survive.
//!
//! ## One traversal for K systems
//!
//! Systems on the same operator that differ only in `b` — AttRank's
//! attention and recency components and the uniform kernel they resolve
//! against — are perturbed by a delta over almost the same cone, so they
//! are seeded and pushed together: [`try_push_lanes`] takes `K`
//! [`PushLane`]s — each a fixed point to update in place — makes **one**
//! fused seeding pass (scaled warm starts, personalization residuals and
//! dangling sums of every lane, then the rewired columns once for all
//! lanes) and **one** run of [`sparsela::push::solve_lanes`]. A
//! [`Personalization`] is a dense slice or a uniform constant, so
//! `(1/n)·1` teleports are never materialized. It is the only seeding
//! entry: one system is `K = 1` — [`update_uniform_kernel`] — run on a
//! pooled copy of the caller's vector, never on the vector itself.
//!
//! Every push here defers its dangling mass (see [`sparsela::push`]). The
//! caller resolves it: against the uniform kernel `u` (`x + g·u`), or, for
//! the kernel itself, in closed form (`x / (1 − g)`). The kernel is one
//! cold push from zero ([`uniform_kernel`]), as is a seed-set solve
//! ([`crate::personalize()`]). PageRank is the kernel scaled, Eq. 1's
//! fixed point being `(1−α)·u`, so the serving engine ranks it with these
//! two functions and no seeding of its own.
//!
//! ## No size gate
//!
//! A push is tried whatever the size of the delta. Citations point back
//! in time and the push runs in descending id order, so on a citation DAG
//! it settles each paper of the perturbed cone once: its cost is bounded
//! by one pass over the successor network (`E + n` edge work), the same
//! bound as the one-pass full solve a size gate would fall back to. A
//! push declines only on inconsistent inputs or when it exhausts its work
//! budget (a few full passes, shared by all lanes of a run, spent only
//! when same-year citations to higher ids cycle residual back above the
//! cursor); the caller then runs its full solve.

use sparsela::{push, KernelWorkspace, LanesOutcome, PushConfig, ScoreVec};

use crate::delta::GraphDelta;
use crate::network::CitationNetwork;

/// Tuning knobs for a push run across a delta.
#[derive(Debug, Clone, Copy)]
pub struct PushRankConfig {
    /// Target L1 residual bound (mirrors the power method's `ε = 10⁻¹²`).
    pub epsilon: f64,
    /// Push work budget in full-SpMV equivalents (`budget × (E + n)` edge
    /// traversals). Exceeding it aborts the push and signals fallback.
    /// It bounds pushes across a delta only: a cold solve from zero
    /// ([`uniform_kernel`], [`crate::personalize()`]) is one unbudgeted
    /// pass.
    pub budget_sweeps: f64,
}

impl Default for PushRankConfig {
    fn default() -> Self {
        Self {
            epsilon: 1e-12,
            // A push on a citation DAG is at most one pass (a 1% publish
            // measures ~0.8 sweeps for its one K-lane stage: a traversed
            // edge is counted once whatever the lane count), so 4 sweeps
            // are headroom. A full solve is one pass, about one sweep, so
            // a push that exhausts the cap has spent up to four full
            // solves' work before its caller falls back.
            budget_sweeps: 4.0,
        }
    }
}

impl PushRankConfig {
    /// A config whose work budget is zero — every attempt falls back.
    /// Used to exercise the fallback path deterministically in tests.
    pub fn forced_fallback() -> Self {
        Self {
            budget_sweeps: 0.0,
            ..Self::default()
        }
    }

    /// The absolute edge-traversal budget this config grants a push run
    /// over a graph of `n_citations` edges and `n_papers` nodes:
    /// `budget_sweeps × (E + n)`. The single source of truth for the
    /// budget — push solvers and observability gauges both read it here.
    pub fn max_edge_work(&self, n_citations: usize, n_papers: usize) -> u64 {
        (self.budget_sweeps * (n_citations + n_papers) as f64) as u64
    }
}

/// A personalization vector `b` as the push seeding reads it: a dense
/// slice, or one constant in every entry — the uniform teleports of
/// PageRank and of the uniform kernel, which are then never materialized.
#[derive(Debug, Clone, Copy)]
pub enum Personalization<'a> {
    /// One entry per paper.
    Dense(&'a [f64]),
    /// Every entry equals this constant.
    Uniform(f64),
}

impl Personalization<'_> {
    fn at(self, i: usize) -> f64 {
        match self {
            Personalization::Dense(b) => b[i],
            Personalization::Uniform(c) => c,
        }
    }

    fn covers(self, n: usize) -> bool {
        match self {
            Personalization::Dense(b) => b.len() == n,
            Personalization::Uniform(_) => true,
        }
    }
}

/// One system `x = α·S·x + b` carried across a delta, updated in place.
#[derive(Debug)]
pub struct PushLane<'a> {
    /// In: the fixed point on `old` (`old.n_papers()` entries). Out, when
    /// the push succeeds: the estimate on `new`. When it declines after
    /// its input checks passed, the vector is left part-way (grown,
    /// rescaled, partially pushed) and is only good as a warm start.
    pub x: &'a mut ScoreVec,
    /// Personalization of the old state (`old.n_papers()` entries).
    pub b_old: Personalization<'a>,
    /// Personalization of the new state (`new.n_papers()` entries).
    pub b_new: Personalization<'a>,
}

/// Fits the global rescaling factor `c` with `b_new ≈ c·b_old` as the
/// median of sampled entry ratios over the first `n` entries (robust: any
/// sparse set of genuinely perturbed entries cannot move the median as
/// long as most sampled entries carry the pure rescaling). Returns 1.0
/// when no informative entries exist.
fn fit_scale(b_old: Personalization<'_>, b_new: Personalization<'_>, n: usize) -> f64 {
    const SAMPLES: usize = 129;
    let stride = (n / SAMPLES).max(1);
    let mut ratios: Vec<f64> = (0..n)
        .step_by(stride)
        .filter(|&i| b_old.at(i) != 0.0 && b_new.at(i).is_finite())
        .map(|i| b_new.at(i) / b_old.at(i))
        .filter(|r| r.is_finite() && *r > 0.0)
        .collect();
    if ratios.is_empty() {
        return 1.0;
    }
    let mid = ratios.len() / 2;
    *ratios.select_nth_unstable_by(mid, |a, b| a.total_cmp(b)).1
}

/// Seeds `K` lanes for a push across `delta` in one fused pass over the
/// old rows: the scale-invariant warm start `x_k ← c_k·x_k` (zero-padded
/// for the new papers), the personalization residual `b_new − c_k·b_old`,
/// and the dangling score sums behind the denominator shift — then the
/// rewired columns, walked once for all lanes. Every entry of the
/// lane-interleaved `r` is assigned.
///
/// The dangling-denominator shift decomposes into one scalar `kappa`
/// uniform over *all* rows plus a sparse correction on the (few) new rows.
/// The uniform part is returned, per lane, as the deferred mass `kappa·n₁`
/// the push starts from. Returns `None` when a fixed point is not finite.
fn seed_lanes<const K: usize>(
    old: &CitationNetwork,
    delta: &GraphDelta,
    new: &CitationNetwork,
    lanes: &mut [PushLane<'_>; K],
    alpha: f64,
    r: &mut [f64],
) -> Option<[f64; K]> {
    let n_old = old.n_papers();
    let n_new = new.n_papers();
    // Scale-invariant warm start: begin from `c·x₀` so the ubiquitous
    // renormalization component of the personalization shift cancels out
    // of the seed (see the module docs) and only genuinely perturbed
    // entries carry residual.
    let scale = lanes
        .each_ref()
        .map(|lane| fit_scale(lane.b_old, lane.b_new, n_old));
    let b_old = lanes.each_ref().map(|lane| lane.b_old);
    let b_new = lanes.each_ref().map(|lane| lane.b_new);
    let x = lanes.each_mut().map(|lane| {
        lane.x.resize(n_new);
        lane.x.as_mut_slice()
    });

    // Dangling score mass before/after the delta (only old papers carry
    // score; a paper can gain references but never lose them).
    let mut d_old = [0.0f64; K];
    let mut d_new = [0.0f64; K];
    let mut finite = true;
    for (i, ri) in r[..n_old * K].chunks_exact_mut(K).enumerate() {
        let was_dangling = old.reference_count(i as u32) == 0;
        let still_dangling = was_dangling && new.reference_count(i as u32) == 0;
        for k in 0..K {
            let xi = scale[k] * x[k][i];
            finite &= xi.is_finite();
            x[k][i] = xi;
            ri[k] = b_new[k].at(i) - scale[k] * b_old[k].at(i);
            if was_dangling {
                d_old[k] += xi;
            }
            if still_dangling {
                d_new[k] += xi;
            }
        }
    }
    if !finite {
        return None;
    }

    let mut initial_deferred = [0.0f64; K];
    for k in 0..K {
        let kappa = alpha * (d_new[k] / n_new as f64 - d_old[k] / n_old as f64);
        let new_row_extra = alpha * d_old[k] / n_old as f64;
        initial_deferred[k] = kappa * n_new as f64;
        // New rows hold no score; the residual seeds them with their full
        // score mass.
        for i in n_old..n_new {
            r[i * K + k] = b_new[k].at(i) + new_row_extra;
        }
    }

    // Rewired columns: distinct old papers whose reference lists the
    // delta extended (new papers hold no score and contribute nothing).
    let mut changed: Vec<u32> = delta
        .citations
        .iter()
        .map(|&(citing, _)| citing)
        .filter(|&c| (c as usize) < n_old)
        .collect();
    changed.sort_unstable();
    changed.dedup();
    let mut spread = |row: &[u32], w: [f64; K]| {
        for &i in row {
            for (ri, w) in r[i as usize * K..][..K].iter_mut().zip(w) {
                *ri += w;
            }
        }
    };
    for &j in &changed {
        let xj: [f64; K] = std::array::from_fn(|k| x[k][j as usize]);
        if xj.iter().all(|&xj| xj == 0.0) {
            continue;
        }
        // A column that was dangling (no old row) is already handled by
        // the dangling shift above.
        let (before, after) = (old.references(j), new.references(j));
        if !before.is_empty() {
            spread(before, xj.map(|xj| -(alpha * xj / before.len() as f64)));
        }
        if !after.is_empty() {
            spread(after, xj.map(|xj| alpha * xj / after.len() as f64));
        }
    }
    Some(initial_deferred)
}

/// Attempts a push-based re-rank of `K` systems `x_k = α·S·x_k + b_k`
/// across a delta in **one** traversal of the perturbed cone: one fused
/// seeding pass, one [`push::solve_lanes`] run, each lane's vector
/// updated in place.
///
/// `old` is the network every `lanes[k].x` was solved on and `new` must
/// be `old.with_delta(delta)`. `residual` is the caller's
/// lane-interleaved scratch (resized here to `new.n_papers()·K`; keep it
/// across publishes, and out of an `n`-sized [`KernelWorkspace`] pool,
/// whose every buffer it would drift to its own size). Each `lane.x` is
/// grown and rewritten in place, so a caller whose vector is published
/// (read by a live snapshot) hands over a copy.
///
/// Dangling mass is always deferred: on success the lanes hold
/// *unresolved* estimates and [`LanesOutcome::deferred`] each lane's
/// uniform-direction mass `g_k`; lane `k`'s fixed point is
/// `x_k + g_k·u` with `u` the uniform kernel of `new` (which may itself
/// be one of the lanes, resolved in closed form). Returns `None` when the
/// inputs are inconsistent (no lane is touched then) or the push did not
/// converge in budget — the caller then runs its full solve. There is no
/// gate on the delta's size (see the module docs).
///
/// Accuracy: the result deviates from the true new fixed point by at most
/// `ε/(1−α)` plus the (same-scale) residual the old solve left behind
/// (errors of chained push publishes accumulate *additively*, ~`ε/(1−α)`
/// per publish — serving deployments bound the drift by letting their
/// rerank policy force an occasional full solve).
pub fn try_push_lanes<const K: usize>(
    old: &CitationNetwork,
    delta: &GraphDelta,
    new: &CitationNetwork,
    mut lanes: [PushLane<'_>; K],
    alpha: f64,
    cfg: &PushRankConfig,
    residual: &mut Vec<f64>,
) -> Option<LanesOutcome<K>> {
    let n_old = old.n_papers();
    let n_new = new.n_papers();
    residual.resize(n_new * K, 0.0);
    if n_old == 0
        || !(0.0..1.0).contains(&alpha)
        || n_new != n_old + delta.n_papers()
        || lanes.iter().any(|lane| {
            lane.x.len() != n_old || !lane.b_old.covers(n_old) || !lane.b_new.covers(n_new)
        })
    {
        return None;
    }
    let initial_deferred = seed_lanes(old, delta, new, &mut lanes, alpha, residual)?;
    let push_cfg = PushConfig {
        alpha,
        epsilon: cfg.epsilon,
        max_edge_work: cfg.max_edge_work(new.n_citations(), n_new),
    };
    let outcome = push::solve_lanes(
        new.refs_csr(),
        &push_cfg,
        lanes.map(|lane| lane.x.as_mut_slice()),
        residual,
        initial_deferred,
    );
    outcome.converged.then_some(outcome)
}

/// Cold-builds the uniform kernel `u = (I − α·S)⁻¹·(1/n)·1` for `net`:
/// one push from a zero estimate with the residual `(1/n)·1`, at the
/// default push ε and no work budget — a single pass in descending id
/// order when no paper cites a same-year paper with a higher id — with
/// the deferred dangling mass resolved in closed form (the kernel is
/// self-similar: `u = x / (1 − g)`). The incremental path then maintains
/// it by push via [`update_uniform_kernel`].
///
/// # Panics
/// Panics unless `0 ≤ α < 1`.
pub fn uniform_kernel(
    net: &CitationNetwork,
    alpha: f64,
    workspace: &mut KernelWorkspace,
) -> ScoreVec {
    let n = net.n_papers();
    let mut x = workspace.take_zeros(n);
    let mut r = workspace.take_uniform(n);
    let cfg = PushConfig {
        alpha,
        epsilon: PushRankConfig::default().epsilon,
        max_edge_work: u64::MAX,
    };
    let outcome = push::solve_lanes(net.refs_csr(), &cfg, [&mut x], &mut r, [0.0]);
    workspace.recycle(r);
    x.scale(1.0 / (1.0 - outcome.deferred[0]));
    x
}

/// Push-updates the uniform kernel across a delta: one
/// [`try_push_lanes`] lane on a pooled copy of `previous` (its
/// personalization `(1/n)·1` rescales *exactly* by `n₀/n₁`, so the seed
/// is always sparse), resolved in closed form, `x / (1 − g)`, because the
/// kernel is self-similar. The edge work counts that `n`-entry sweep.
/// Returns `None` on fallback — rebuild with [`uniform_kernel`].
pub fn update_uniform_kernel(
    old: &CitationNetwork,
    delta: &GraphDelta,
    new: &CitationNetwork,
    previous: &ScoreVec,
    alpha: f64,
    cfg: &PushRankConfig,
    workspace: &mut KernelWorkspace,
) -> Option<(ScoreVec, LanesOutcome<1>)> {
    let mut x = workspace.take_copy(previous);
    let mut r = workspace.take_zeros(new.n_papers()).into_vec();
    let lane = PushLane {
        x: &mut x,
        b_old: Personalization::Uniform(1.0 / old.n_papers() as f64),
        b_new: Personalization::Uniform(1.0 / new.n_papers() as f64),
    };
    let pushed = try_push_lanes(old, delta, new, [lane], alpha, cfg, &mut r);
    workspace.recycle(r.into());
    // The closed form needs (1 − g) safely positive; a delta perturbation
    // keeps g tiny, so failing this means an inconsistent state — decline.
    let Some(mut outcome) = pushed.filter(|o| 1.0 - o.deferred[0] > 0.5) else {
        workspace.recycle(x);
        return None;
    };
    x.scale(1.0 / (1.0 - outcome.deferred[0]));
    outcome.edge_work += new.n_papers() as u64;
    Some((x, outcome))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetworkBuilder;
    use crate::network::PaperId;

    fn base() -> CitationNetwork {
        let mut b = NetworkBuilder::new();
        let ids: Vec<_> = (1990..2000).map(|y| b.add_paper(y)).collect();
        for (i, &citing) in ids.iter().enumerate().skip(1) {
            b.add_citation(citing, ids[i - 1]).unwrap();
            if i >= 4 {
                b.add_citation(citing, ids[0]).unwrap();
            }
        }
        b.build().unwrap()
    }

    /// Full PageRank-style solve on `net` with personalization `b`: the
    /// plain Jacobi sweep, run until it stops moving.
    fn full_solve(net: &CitationNetwork, alpha: f64, b: &[f64]) -> ScoreVec {
        let op = net.stochastic_operator();
        let mut x = ScoreVec::uniform(net.n_papers());
        let mut next = ScoreVec::zeros(net.n_papers());
        for _ in 0..1000 {
            op.apply_damped(alpha, x.as_slice(), b, next.as_mut_slice());
            std::mem::swap(&mut x, &mut next);
            if x.l1_distance(&next) <= 1e-15 {
                return x;
            }
        }
        panic!("the reference sweep did not converge");
    }

    fn uniform_b(n: usize, alpha: f64) -> Vec<f64> {
        vec![(1.0 - alpha) / n as f64; n]
    }

    /// One dense-personalization lane pushed across `d` from a copy of
    /// `prev`, its deferred mass resolved against `new`'s kernel.
    #[allow(clippy::too_many_arguments)]
    fn push_one(
        old: &CitationNetwork,
        d: &GraphDelta,
        new: &CitationNetwork,
        prev: &ScoreVec,
        b0: &[f64],
        b1: &[f64],
        alpha: f64,
        cfg: &PushRankConfig,
    ) -> Option<(ScoreVec, LanesOutcome<1>)> {
        let mut x = prev.clone();
        let lane = PushLane {
            x: &mut x,
            b_old: Personalization::Dense(b0),
            b_new: Personalization::Dense(b1),
        };
        let out = try_push_lanes(old, d, new, [lane], alpha, cfg, &mut Vec::new())?;
        x.axpy(
            out.deferred[0],
            &uniform_kernel(new, alpha, &mut KernelWorkspace::new()),
        );
        Some((x, out))
    }

    #[test]
    fn push_rerank_matches_scratch_solve() {
        let old = base();
        let alpha = 0.5;
        let b0 = uniform_b(old.n_papers(), alpha);
        let prev = full_solve(&old, alpha, &b0);

        let mut d = GraphDelta::new();
        let p = (old.n_papers() + d.add_paper(2001)) as PaperId;
        d.add_citation(p, 0);
        d.add_citation(p, 9);
        d.add_citation(9, 3); // bibliography correction on an old paper
        let new = old.with_delta(&d).unwrap();
        let b1 = uniform_b(new.n_papers(), alpha);

        let cfg = PushRankConfig::default();
        let (pushed, stats) = push_one(&old, &d, &new, &prev, &b0, &b1, alpha, &cfg)
            .expect("push should run on a small delta");
        assert!(stats.pushes > 0);
        let scratch = full_solve(&new, alpha, &b1);
        for i in 0..new.n_papers() {
            assert!(
                (pushed[i] - scratch[i]).abs() < 1e-9,
                "paper {i}: push {} vs scratch {}",
                pushed[i],
                scratch[i]
            );
        }
    }

    #[test]
    fn zero_budget_declines() {
        let old = base();
        let alpha = 0.5;
        let b0 = uniform_b(old.n_papers(), alpha);
        let prev = full_solve(&old, alpha, &b0);
        let mut d = GraphDelta::new();
        d.add_citation(9, 2);
        let new = old.with_delta(&d).unwrap();
        let b1 = uniform_b(new.n_papers(), alpha);
        let cfg = PushRankConfig::forced_fallback();
        assert!(push_one(&old, &d, &new, &prev, &b0, &b1, alpha, &cfg).is_none());
    }

    #[test]
    fn mismatched_previous_declines() {
        let old = base();
        let alpha = 0.5;
        let b0 = uniform_b(old.n_papers(), alpha);
        let mut d = GraphDelta::new();
        d.add_citation(9, 2);
        let new = old.with_delta(&d).unwrap();
        let b1 = uniform_b(new.n_papers(), alpha);
        let cfg = PushRankConfig::default();
        let short = ScoreVec::uniform(3);
        assert!(push_one(&old, &d, &new, &short, &b0, &b1, alpha, &cfg).is_none());
        let mut nan = ScoreVec::uniform(old.n_papers());
        nan[0] = f64::NAN;
        assert!(push_one(&old, &d, &new, &nan, &b0, &b1, alpha, &cfg).is_none());
    }

    #[test]
    fn dangling_shift_is_exact() {
        // Paper 0 is dangling in `base` (its uniform column spreads 1/n).
        // Growing the network changes that denominator to 1/(n+1) — the
        // rank-1 dangling correction the seeding must account for.
        let old = base();
        let alpha = 0.3;
        let b0 = uniform_b(old.n_papers(), alpha);
        let prev = full_solve(&old, alpha, &b0);
        let mut d = GraphDelta::new();
        let p = (old.n_papers() + d.add_paper(2002)) as PaperId;
        d.add_citation(p, 0);
        let new = old.with_delta(&d).unwrap();
        let b1 = uniform_b(new.n_papers(), alpha);
        let cfg = PushRankConfig::default();
        let (pushed, _) = push_one(&old, &d, &new, &prev, &b0, &b1, alpha, &cfg).unwrap();
        let scratch = full_solve(&new, alpha, &b1);
        for i in 0..new.n_papers() {
            assert!((pushed[i] - scratch[i]).abs() < 1e-9, "paper {i}");
        }
    }

    #[test]
    fn kernel_update_matches_a_cold_build_and_leaves_previous_alone() {
        let old = base();
        let alpha = 0.5;
        let mut ws = KernelWorkspace::new();
        let prev = uniform_kernel(&old, alpha, &mut ws);
        let bits = |v: &ScoreVec| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let before = bits(&prev);
        let mut d = GraphDelta::new();
        let p = (old.n_papers() + d.add_paper(2001)) as PaperId;
        d.add_citation(p, 0);
        d.add_citation(9, 3);
        let new = old.with_delta(&d).unwrap();

        let cfg = PushRankConfig::default();
        let (pushed, out) = update_uniform_kernel(&old, &d, &new, &prev, alpha, &cfg, &mut ws)
            .expect("a small delta pushes");
        assert!(out.pushes > 0);
        assert_eq!(bits(&prev), before, "a push leaves `previous` alone");
        let cold = uniform_kernel(&new, alpha, &mut ws);
        for i in 0..new.n_papers() {
            assert!((pushed[i] - cold[i]).abs() < 1e-9, "paper {i}");
        }

        // A declined push (here: no budget, after the input checks pass)
        // seeds and rewrites its lane; the lane is a copy.
        let cfg = PushRankConfig::forced_fallback();
        assert!(update_uniform_kernel(&old, &d, &new, &prev, alpha, &cfg, &mut ws).is_none());
        assert_eq!(
            bits(&prev),
            before,
            "a declined push leaves `previous` alone"
        );
    }
}
