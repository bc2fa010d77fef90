//! Push-based incremental re-ranking across a [`GraphDelta`].
//!
//! Every damped fixed point in this workspace (`x = α·S·x + b` — AttRank,
//! PageRank, and structurally CiteRank/FutureRank/ECM) can be *updated*
//! instead of re-solved when the network changes by a delta. Write
//! `S = N + (1/n)·1·dᵀ`: `N` holds the non-dangling citation columns and
//! `d` marks the dangling papers, whose uniform columns are the one place
//! `n` enters the operator.
//!
//! ## The unresolved form
//!
//! A system is kept **unresolved**, as its pure-citation part
//!
//! ```text
//! y = (I − α·N)⁻¹·b̂      and the scalar      g = α·dᵀy
//! ```
//!
//! where `b̂` is a per-paper personalization that never changes once
//! written — 1 for the uniform kernel, a window count for AttRank's
//! attention, `e^{−w·(year − y₀)}` for its recency, a seed's teleport.
//! The normalizers (`1/n`, `1/Σ counts`, `1/Σ recency`) stay out of the
//! lane: the served vector is the lane times one scalar, so growth that
//! only renormalizes a personalization rewrites no entry of it. Two
//! closed forms turn lanes into fixed points of `S` (the fixed point is
//! linear in its personalization — Jeh & Widom, "Scaling Personalized Web
//! Search", WWW 2003):
//!
//! ```text
//! u = v / (n − α·dᵀv)       the uniform kernel, v = (I − α·N)⁻¹·1
//! x = y + g·u               the fixed point for b̂, against that kernel
//! ```
//!
//! and back, `v = u·n / (1 + α·dᵀu)`. A lane whose `b̂` is divided by its
//! mass `M` at the last full solve (so the push ε keeps its meaning)
//! resolves the kernel as `u = y / (n/M − g)` ([`kernel_scale`]).
//!
//! ## One seeding
//!
//! Across a delta, `N` changes only in the columns of old papers whose
//! reference lists grew, and `b̂` only on appended papers and on old papers
//! whose personalization the batch changed (a window count). Starting from
//! the old lanes, zero-extended over the appended papers, the residual of
//! the new system is therefore **exactly**
//!
//! ```text
//! r = Δb̂ + α·Σ_{j rewired} y[j]·(N₁[:,j] − N₀[:,j])
//! ```
//!
//! and a formerly dangling column leaves `dᵀy` as its mass starts to
//! flow. [`seed_delta`] writes that seed (its one dense step is zeroing
//! the residual) and [`push_delta`] hands it to [`sparsela::push`] for
//! `K` lanes in one traversal (one system is `K = 1`). It is the only delta seeding:
//! the incremental AttRank scorer pushes its three lanes (kernel,
//! attention, recency) with it, [`update_uniform_kernel`] unresolves a
//! kernel and pushes one lane, and [`crate::repersonalize`] pushes a seed
//! set's lane with `Δb̂ = 0`.
//!
//! Every push here defers its dangling mass (see [`sparsela::push`]); the
//! deferred scalar *is* the lane's `g`, carried from push to push. The
//! kernel is one cold push from zero ([`uniform_kernel`]), as is a
//! seed-set solve ([`crate::personalize()`]). PageRank is the kernel
//! scaled, Eq. 1's fixed point being `(1−α)·u`, so the serving engine
//! ranks it with these two functions and no seeding of its own.
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
use crate::network::{CitationNetwork, PaperId};

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

/// Seeds `K` unresolved lanes for a push across `delta` (see the module
/// docs): grows each lane `y_k` with zero rows for the appended papers,
/// writes the lane-interleaved residual `r[i·K + k]` (resized to
/// `new.n_papers()·K`, or left empty when there is nothing to seed) as
/// the personalization change `db` — a sparse list of `(paper, Δb̂)` rows,
/// repeats adding up — plus the rewired columns of the old citing papers
/// in `delta`, and moves the mass of each formerly dangling rewired
/// column out of `g_k = α·dᵀy_k`.
///
/// `old` is the network the lanes were solved on and `new` must be
/// `old.with_delta(delta)`. Returns the reference-list entries walked, or
/// `None` — touching nothing — when the inputs are inconsistent.
#[allow(clippy::too_many_arguments)] // the transition, the lanes and their scalars
pub fn seed_delta<const K: usize>(
    old: &CitationNetwork,
    delta: &GraphDelta,
    new: &CitationNetwork,
    lanes: &mut [&mut ScoreVec; K],
    g: &mut [f64; K],
    db: &[(PaperId, [f64; K])],
    alpha: f64,
    r: &mut Vec<f64>,
) -> Option<u64> {
    let (n_old, n_new) = (old.n_papers(), new.n_papers());
    if !(0.0..1.0).contains(&alpha)
        || n_new != n_old + delta.n_papers()
        || lanes.iter().any(|y| y.len() != n_old)
        || g.iter().any(|g| !g.is_finite())
        || db.iter().any(|&(i, _)| i as usize >= n_new)
    {
        return None;
    }
    // Rewired columns: distinct old papers whose reference lists the
    // delta extended and that hold `y`. Appended papers hold none and seed
    // nothing.
    let mut changed: Vec<PaperId> = delta
        .citations
        .iter()
        .map(|&(citing, _)| citing)
        .filter(|&c| (c as usize) < n_old && lanes.iter().any(|y| y[c as usize] != 0.0))
        .collect();
    changed.sort_unstable();
    changed.dedup();
    for y in lanes.iter_mut() {
        y.resize(n_new);
    }
    r.clear();
    if db.is_empty() && changed.is_empty() {
        return Some(0);
    }
    r.resize(n_new * K, 0.0);
    for &(i, db) in db {
        for (ri, db) in r[i as usize * K..][..K].iter_mut().zip(db) {
            *ri += db;
        }
    }
    let mut work = 0u64;
    for j in changed {
        let yj: [f64; K] = std::array::from_fn(|k| lanes[k][j as usize]);
        let (before, after) = (old.references(j), new.references(j));
        if before.is_empty() {
            // `j` was dangling: its mass sat in `dᵀy`; now it flows.
            for k in 0..K {
                g[k] -= alpha * yj[k];
            }
        }
        for (row, sign) in [(before, -1.0), (after, 1.0)] {
            if row.is_empty() {
                continue;
            }
            let w = yj.map(|yj| sign * alpha * yj / row.len() as f64);
            for &i in row {
                for (ri, w) in r[i as usize * K..][..K].iter_mut().zip(w) {
                    *ri += w;
                }
            }
        }
        work += (before.len() + after.len()) as u64;
    }
    Some(work)
}

/// Pushes `K` unresolved lanes across a delta in **one** traversal of the
/// perturbed cone: [`seed_delta`], then one [`push::solve_lanes`] run that
/// updates each lane in place and carries its `g_k` (the push's deferred
/// mass) on. Nothing is resolved here: the caller reads lane `k` as
/// `y_k + g_k·u` against the new kernel, times its own scalar.
///
/// `residual` is the caller's lane-interleaved scratch (keep it across
/// publishes, and out of an `n`-sized [`KernelWorkspace`] pool, whose
/// every buffer it would drift to its own size). Returns `None` when the
/// inputs are inconsistent (no lane is touched then) or the push did not
/// converge in budget (the lanes are then part-way, only good as a warm
/// start) — the caller then runs its full solve. The edge work counts the
/// seed's reference-list walk; with nothing to seed (a pure tail publish
/// under an unchanged personalization) no push runs and no residual is
/// written.
///
/// Accuracy: each lane deviates from its true new value by at most
/// `ε/(1−α)` plus the (same-scale) residual the previous solve left
/// behind (errors of chained push publishes accumulate *additively*,
/// ~`ε/(1−α)` per publish — serving deployments bound the drift by
/// letting their rerank policy force an occasional full solve).
#[allow(clippy::too_many_arguments)] // the transition, the lanes and their scalars
pub fn push_delta<const K: usize>(
    old: &CitationNetwork,
    delta: &GraphDelta,
    new: &CitationNetwork,
    mut lanes: [&mut ScoreVec; K],
    g: &mut [f64; K],
    db: &[(PaperId, [f64; K])],
    alpha: f64,
    cfg: &PushRankConfig,
    residual: &mut Vec<f64>,
) -> Option<LanesOutcome<K>> {
    let seed_work = seed_delta(old, delta, new, &mut lanes, g, db, alpha, residual)?;
    let mut outcome = LanesOutcome {
        converged: true,
        pushes: 0,
        edge_work: 0,
        residual_l1: [0.0; K],
        deferred: *g,
    };
    if !residual.is_empty() {
        let push_cfg = PushConfig {
            alpha,
            epsilon: cfg.epsilon,
            max_edge_work: cfg.max_edge_work(new.n_citations(), new.n_papers()),
        };
        outcome = push::solve_lanes(
            new.refs_csr(),
            &push_cfg,
            lanes.map(|y| y.as_mut_slice()),
            residual,
            *g,
        );
    }
    outcome.edge_work += seed_work;
    *g = outcome.deferred;
    outcome.converged.then_some(outcome)
}

/// The factor `c` with `u = c·y` turning a kernel lane into the uniform
/// kernel of an `n`-paper network: `1 / (n/mass − g)`, where the lane's
/// personalization is `1/mass` per paper and `g = α·dᵀy`. `None` unless
/// positive and finite — in exact arithmetic `n/mass − g ≥ (1−α)·n/mass`,
/// so failing this means an inconsistent state.
pub fn kernel_scale(n: usize, mass: f64, g: f64) -> Option<f64> {
    let c = 1.0 / (n as f64 / mass - g);
    (c.is_finite() && c > 0.0).then_some(c)
}

/// Cold-builds the uniform kernel `u = (I − α·S)⁻¹·(1/n)·1` for `net`:
/// one push from a zero estimate with the residual `(1/n)·1` — the kernel
/// lane at mass `n` — at the default push ε and no work budget — a single
/// pass in descending id order when no paper cites a same-year paper with
/// a higher id — resolved in closed form, `u = y / (1 − g)`
/// ([`kernel_scale`] at mass `n`). The incremental path then maintains it by push via
/// [`update_uniform_kernel`].
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

/// Push-updates the uniform kernel across a delta as one unresolved lane:
/// `previous` (the kernel of `old`) is unresolved with one scaling,
/// `y = u / (1 + α·dᵀu)` — the kernel lane at mass `n₀`, so
/// `g = α·dᵀy` — into a pooled buffer (`previous` is never written), each
/// appended paper seeds `1/n₀`, one [`push_delta`] lane runs, and the
/// lane resolves against the new size ([`kernel_scale`]). The edge work
/// counts the `n`-entry resolve. Returns `None` on fallback (a non-finite
/// or mis-sized `previous`, or an exhausted budget) — rebuild with
/// [`uniform_kernel`].
pub fn update_uniform_kernel(
    old: &CitationNetwork,
    delta: &GraphDelta,
    new: &CitationNetwork,
    previous: &ScoreVec,
    alpha: f64,
    cfg: &PushRankConfig,
    workspace: &mut KernelWorkspace,
) -> Option<(ScoreVec, LanesOutcome<1>)> {
    let n_old = old.n_papers();
    if n_old == 0 || previous.len() != n_old || !previous.all_finite() {
        return None;
    }
    let dangling: f64 = (0..n_old)
        .filter(|&i| old.reference_count(i as PaperId) == 0)
        .map(|i| previous[i])
        .sum();
    let unresolve = 1.0 / (1.0 + alpha * dangling);
    let mut y = workspace.take_zeros(n_old);
    for (yi, &ui) in y.iter_mut().zip(previous.iter()) {
        *yi = ui * unresolve;
    }
    let mut g = [alpha * dangling * unresolve];
    let mass = n_old as f64;
    let db: Vec<(PaperId, [f64; 1])> = (n_old..new.n_papers())
        .map(|i| (i as PaperId, [1.0 / mass]))
        .collect();
    let mut r = workspace.take_zeros(0).into_vec();
    let pushed = push_delta(old, delta, new, [&mut y], &mut g, &db, alpha, cfg, &mut r);
    workspace.recycle(r.into());
    let resolved = pushed.zip(kernel_scale(new.n_papers(), mass, g[0]));
    let Some((mut outcome, c)) = resolved else {
        workspace.recycle(y);
        return None;
    };
    y.scale(c);
    outcome.edge_work += new.n_papers() as u64;
    Some((y, outcome))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetworkBuilder;

    /// Ten papers, one a year; paper 5 is dangling, 0 too.
    fn base() -> CitationNetwork {
        let mut b = NetworkBuilder::new();
        let ids: Vec<_> = (1990..2000).map(|y| b.add_paper(y)).collect();
        for (i, &citing) in ids.iter().enumerate().skip(1) {
            if i == 5 {
                continue;
            }
            b.add_citation(citing, ids[i - 1]).unwrap();
            if i >= 4 {
                b.add_citation(citing, ids[0]).unwrap();
            }
        }
        b.build().unwrap()
    }

    /// Full solve on `net` with personalization `b`: the plain Jacobi
    /// sweep, run until it stops moving.
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

    /// A fixed per-paper personalization: never rewritten as papers are
    /// appended.
    fn b_hat(n: usize) -> Vec<f64> {
        (0..n).map(|i| 1.0 + (i % 3) as f64).collect()
    }

    /// The unresolved lane of `b_hat` on `net`, cold: `(y, g)`.
    fn cold_lane(net: &CitationNetwork, alpha: f64) -> (ScoreVec, f64) {
        let mut y = ScoreVec::zeros(net.n_papers());
        let mut r = b_hat(net.n_papers());
        let cfg = PushConfig {
            alpha,
            epsilon: 1e-13,
            max_edge_work: u64::MAX,
        };
        let out = push::solve_lanes(net.refs_csr(), &cfg, [y.as_mut_slice()], &mut r, [0.0]);
        (y, out.deferred[0])
    }

    /// `b_hat`'s lane on `old` pushed across `d`, resolved on `new`.
    fn push_one(
        old: &CitationNetwork,
        d: &GraphDelta,
        new: &CitationNetwork,
        alpha: f64,
        cfg: &PushRankConfig,
    ) -> Option<(ScoreVec, LanesOutcome<1>)> {
        let (mut y, g) = cold_lane(old, alpha);
        let b1 = b_hat(new.n_papers());
        let db: Vec<(PaperId, [f64; 1])> = (old.n_papers()..new.n_papers())
            .map(|i| (i as PaperId, [b1[i]]))
            .collect();
        let mut g = [g];
        let out = push_delta(
            old,
            d,
            new,
            [&mut y],
            &mut g,
            &db,
            alpha,
            cfg,
            &mut Vec::new(),
        )?;
        y.axpy(
            g[0],
            &uniform_kernel(new, alpha, &mut KernelWorkspace::new()),
        );
        Some((y, out))
    }

    fn assert_matches_scratch(new: &CitationNetwork, alpha: f64, got: &ScoreVec) {
        let scratch = full_solve(new, alpha, &b_hat(new.n_papers()));
        for i in 0..new.n_papers() {
            assert!(
                (got[i] - scratch[i]).abs() < 1e-9,
                "paper {i}: push {} vs scratch {}",
                got[i],
                scratch[i]
            );
        }
    }

    #[test]
    fn push_rerank_matches_scratch_solve() {
        let old = base();
        let alpha = 0.5;
        let mut d = GraphDelta::new();
        let p = (old.n_papers() + d.add_paper(2001)) as PaperId;
        d.add_citation(p, 0);
        d.add_citation(p, 9);
        d.add_citation(9, 3); // bibliography correction on an old paper
        let new = old.with_delta(&d).unwrap();
        let (pushed, stats) = push_one(&old, &d, &new, alpha, &PushRankConfig::default())
            .expect("push should run on a small delta");
        assert!(stats.pushes > 0);
        assert_matches_scratch(&new, alpha, &pushed);
    }

    #[test]
    fn dangling_shift_is_exact() {
        // Paper 0 is dangling in `base` (its uniform column spreads 1/n).
        // Growing the network changes that denominator to 1/(n+1): the
        // lane does not see it, the resolve against the new kernel does.
        let old = base();
        let alpha = 0.3;
        let mut d = GraphDelta::new();
        let p = (old.n_papers() + d.add_paper(2002)) as PaperId;
        d.add_citation(p, 0);
        let new = old.with_delta(&d).unwrap();
        let (pushed, _) = push_one(&old, &d, &new, alpha, &PushRankConfig::default()).unwrap();
        assert_matches_scratch(&new, alpha, &pushed);
    }

    #[test]
    fn a_formerly_dangling_column_moves_its_mass() {
        // Paper 5 cited nothing; the delta gives it two references, and a
        // new paper cites it.
        let old = base();
        let alpha = 0.3;
        assert_eq!(old.reference_count(5), 0);
        let mut d = GraphDelta::new();
        d.add_citation(5, 2);
        d.add_citation(5, 4);
        let p = (old.n_papers() + d.add_paper(2002)) as PaperId;
        d.add_citation(p, 5);
        let new = old.with_delta(&d).unwrap();
        let (pushed, _) = push_one(&old, &d, &new, alpha, &PushRankConfig::default()).unwrap();
        assert_matches_scratch(&new, alpha, &pushed);
    }

    #[test]
    fn the_seed_is_the_batch_and_its_rewired_columns() {
        let old = base();
        let alpha = 0.5;
        let (y0, g0) = cold_lane(&old, alpha);
        let mut d = GraphDelta::new();
        let p = (old.n_papers() + d.add_paper(2001)) as PaperId;
        d.add_citation(p, 9);
        d.add_citation(8, 1);
        let new = old.with_delta(&d).unwrap();
        let mut y = y0.clone();
        let (mut g, mut r) = ([g0], Vec::new());
        let db = [(p, [7.0])];
        let work = seed_delta(&old, &d, &new, &mut [&mut y], &mut g, &db, alpha, &mut r);
        assert_eq!(work, Some(5), "paper 8's old and new reference lists");
        assert_eq!(g, [g0], "no dangling column was rewired");
        assert_eq!(&y.as_slice()[..old.n_papers()], y0.as_slice());
        let support: Vec<usize> = (0..r.len()).filter(|&i| r[i] != 0.0).collect();
        // Paper 8 cited 7 and 0, and now cites 1 too; the appended paper
        // carries its Δb̂.
        assert_eq!(support, [0, 1, 7, p as usize]);
        assert_eq!(r[p as usize], 7.0);
    }

    #[test]
    fn zero_budget_declines() {
        let old = base();
        let mut d = GraphDelta::new();
        d.add_citation(9, 2);
        let new = old.with_delta(&d).unwrap();
        let cfg = PushRankConfig::forced_fallback();
        assert!(push_one(&old, &d, &new, 0.5, &cfg).is_none());
    }

    #[test]
    fn mismatched_previous_declines() {
        let old = base();
        let mut d = GraphDelta::new();
        d.add_citation(9, 2);
        let new = old.with_delta(&d).unwrap();
        let cfg = PushRankConfig::default();
        let mut short = ScoreVec::uniform(3);
        let mut g = [0.0];
        let out = push_delta(
            &old,
            &d,
            &new,
            [&mut short],
            &mut g,
            &[],
            0.5,
            &cfg,
            &mut Vec::new(),
        );
        assert!(out.is_none());
        assert_eq!(short.len(), 3);
        let mut y = ScoreVec::uniform(old.n_papers());
        let mut g = [f64::NAN];
        let out = push_delta(
            &old,
            &d,
            &new,
            [&mut y],
            &mut g,
            &[],
            0.5,
            &cfg,
            &mut Vec::new(),
        );
        assert!(out.is_none());
        assert_eq!(y.len(), old.n_papers());
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
        d.add_citation(5, 1);
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
        // works on a copy.
        let cfg = PushRankConfig::forced_fallback();
        assert!(update_uniform_kernel(&old, &d, &new, &prev, alpha, &cfg, &mut ws).is_none());
        assert_eq!(
            bits(&prev),
            before,
            "a declined push leaves `previous` alone"
        );
        let mut nan = prev.clone();
        nan[3] = f64::NAN;
        assert!(update_uniform_kernel(&old, &d, &new, &nan, alpha, &cfg, &mut ws).is_none());
    }
}
