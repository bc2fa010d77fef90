//! Incremental AttRank for growing networks.
//!
//! A production deployment re-ranks the corpus as new papers arrive (the
//! paper's §1 motivates exactly this monitoring use-case).
//! [`IncrementalAttRank`] solves Eq. 4 as three systems on the same
//! operator, each kept **unresolved** (see [`citegraph::pushrank`]): a
//! lane `y_k = (I − α·N)⁻¹·b̂_k` over the non-dangling citation columns
//! `N`, with its dangling mass as one scalar `g_k = α·dᵀy_k`. The lanes'
//! personalizations are per paper and never rewritten:
//!
//! * the uniform kernel's, `1`;
//! * attention's, the paper's citation count inside the window;
//! * recency's, `e^{−w·(year − y₀)}` against a fixed reference year `y₀`
//!   (Eq. 3's normalizer cancels `t_N`, so only the scalar moves).
//!
//! Each is divided by its mass `M_k` at the last full solve, so the push
//! ε keeps its meaning, and each lane's drift since then is one scalar
//! `s_k`: `M_kernel/n`, `β·M_att/Σ counts`, `γ·M_rec/Σ recency`. One
//! resolution sweep writes the kernel and the served scores:
//!
//! ```text
//! u     = y_kernel / (n/M_kernel − g_kernel)
//! total = s_att·(y_att + g_att·u) + s_rec·(y_rec + g_rec·u)
//! ```
//!
//! The lanes are never resolved in place: the kernel is an output of the
//! sweep, a fresh vector a serving layer shares with the snapshot it
//! publishes ([`IncrementalAttRank::kernel`]) and nothing writes again.
//!
//! ## The full solve is one pass
//!
//! Citations point back in time and ids are time-sorted, so the citation
//! part of `I − α·S` is triangular wherever no paper cites a same-year
//! paper with a higher id. The push's descending-id cursor therefore
//! settles all of a paper's inflow before it pushes the paper: from zero
//! lanes and the residual `b̂_k/M_k`, each paper is pushed once and the
//! solve is one pass over the edges — the triangular solve Langville &
//! Meyer reach by reordering ("A Reordering for the PageRank Problem",
//! SIAM J. Sci. Comput. 27(6), 2006); for a citation graph the order is
//! free. A same-year citation to a higher id (legal input: a cycle inside
//! one year) lands residual above the cursor and costs another pass over
//! what it reaches, never accuracy. The run stops at the scorer's push ε
//! with no work budget.
//!
//! ## Delta updates at push cost
//!
//! [`IncrementalAttRank::update_delta`] carries the window counts across
//! the delta (recounting only when a year rollover moves the window) and
//! hands the lanes to [`citegraph::push_delta`], the one delta seeding:
//! its seed is exactly the personalization change — the appended papers'
//! entries and the counts the batch changed — plus the rewired columns,
//! pushed in **one** 3-lane traversal. Any delta is pushed, whatever its
//! size: on a citation DAG the push settles each paper of the perturbed
//! cone once, so its cost is bounded by one pass over the successor
//! network, the full solve's own cost. Only an exhausted work budget
//! ([`PushRankConfig::budget_sweeps`]) or a state that does not belong to
//! the old network sends a publish to the full solve.
//!
//! The push state is what a full solve leaves behind, so it costs nothing
//! to build: [`IncrementalAttRank::update`] and the full path of
//! `update_delta` both keep it, so the first publish after either
//! pushes. A restart does not solve: [`IncrementalAttRank::push_state`]
//! is the three lanes (24 B per paper) and the scalars their resolve
//! needs ([`PUSH_STATE_SCALARS`]), and [`IncrementalAttRank::restore`]
//! recounts the window and resolves the kernel from them, bit for bit what
//! the live scorer carried, so the first publish after a restore pushes.

use std::sync::Arc;

use citegraph::{
    kernel_scale, push_delta, CitationNetwork, DeltaStrategy, GraphDelta, PaperId, PushRankConfig,
    Year,
};
use sparsela::{push, KernelWorkspace, LanesOutcome, PushConfig, ScoreVec};

use crate::attention::WindowCounts;
use crate::model::AttRankDiagnostics;
use crate::params::AttRankParams;
use crate::recency::{recency_mass, recency_weight};

/// Lane order: the uniform kernel, then the attention and recency
/// components it resolves.
const KERNEL: usize = 0;
const ATT: usize = 1;
const REC: usize = 2;

/// The scalars of a persisted push state ([`IncrementalAttRank::push_state`]),
/// in order: each lane's `g_k`, each lane's mass `M_k`, and the recency
/// reference year `y₀`.
pub const PUSH_STATE_SCALARS: usize = 7;

/// The unresolved lanes of the last scored snapshot and what their
/// resolve reads.
#[derive(Debug, Clone)]
struct Lanes {
    /// `y_k = (I − α·N)⁻¹·b̂_k/M_k`, in lane order.
    y: [ScoreVec; 3],
    /// `g_k = α·dᵀy_k`, the mass each lane's pushes deferred.
    g: [f64; 3],
    /// `M_k`: each personalization's mass at the last full solve (1 for
    /// an empty attention window).
    mass: [f64; 3],
    /// The recency reference year `y₀`: `t_N` at the last full solve.
    year0: Year,
    /// `s_k` at the last resolve: `M_kernel/n`, `β·M_att/Σ counts`,
    /// `γ·M_rec/Σ recency`.
    scale: [f64; 3],
    /// The attention window's citation counts.
    window: WindowCounts,
    /// The uniform kernel the last resolve wrote, shared with whoever
    /// holds [`IncrementalAttRank::kernel`].
    kernel: Arc<ScoreVec>,
}

impl Lanes {
    /// Sets each lane's scale on `net` and returns the kernel factor
    /// `1/(n/M_kernel − g_kernel)`; `None` when that is not positive.
    fn rescale(&mut self, net: &CitationNetwork, params: &AttRankParams) -> Option<f64> {
        let n = net.n_papers();
        let c = kernel_scale(n, self.mass[KERNEL], self.g[KERNEL])?;
        let counted = self.window.total();
        self.scale = [
            self.mass[KERNEL] / n as f64,
            if counted == 0 {
                0.0
            } else {
                params.beta() * self.mass[ATT] / counted as f64
            },
            params.gamma() * self.mass[REC] / recency_mass(net.years(), params.decay_w, self.year0),
        ];
        Some(c)
    }

    /// The resolution sweep every solve ends in: writes a fresh kernel
    /// (`u = c·y_kernel`) and the served scores, and leaves the lanes as
    /// they are.
    fn resolve(
        &mut self,
        net: &CitationNetwork,
        params: &AttRankParams,
        workspace: &mut KernelWorkspace,
    ) -> Option<ScoreVec> {
        let c = self.rescale(net, params)?;
        let [_, s_att, s_rec] = self.scale;
        let [_, g_att, g_rec] = self.g;
        let [y_u, y_att, y_rec] = &self.y;
        let n = net.n_papers();
        let mut kernel = workspace.take_zeros(n);
        let mut total = workspace.take_zeros(n);
        for ((((u, t), &yu), &ya), &yr) in kernel
            .iter_mut()
            .zip(total.iter_mut())
            .zip(y_u.iter())
            .zip(y_att.iter())
            .zip(y_rec.iter())
        {
            *u = c * yu;
            *t = s_att * (ya + g_att * *u) + s_rec * (yr + g_rec * *u);
        }
        self.set_kernel(kernel, workspace);
        Some(total)
    }

    /// Replaces the shared kernel; the old one is pooled unless a reader
    /// still holds it.
    fn set_kernel(&mut self, kernel: ScoreVec, workspace: &mut KernelWorkspace) {
        let old = std::mem::replace(&mut self.kernel, Arc::new(kernel));
        if let Some(old) = Arc::into_inner(old) {
            workspace.recycle(old);
        }
    }
}

/// What a test may read of the personalization carried across deltas
/// ([`IncrementalAttRank::carried_personalization`]). Lane `k` (kernel,
/// attention, recency) stands for the personalization
/// `scales[k] / masses[k] · b̂_k`, `b̂` being 1, the window count and
/// `e^{−w·(year − year0)}`.
#[derive(Debug, Clone, Copy)]
pub struct CarriedPersonalization<'a> {
    /// Citations received inside the attention window, per paper.
    pub window_counts: &'a [u32],
    /// The recency lane's reference year `y₀`.
    pub year0: Year,
    /// Each lane's personalization mass at the last full solve.
    pub masses: [f64; 3],
    /// Each lane's scale at the last resolve.
    pub scales: [f64; 3],
}

/// AttRank re-scored across network snapshots: every full solve is one
/// 3-lane push pass, and a delta publish pushes only the perturbed cone
/// (see the module docs).
///
/// Diagnostics count *pushes* as `iterations` (a one-pass full solve
/// pushes each paper once) and report the residual L1 left behind, summed
/// over the three systems, as `final_error`.
///
/// The solves require `α < 1` (they panic otherwise, as
/// [`sparsela::push::solve_lanes`] does).
#[derive(Debug, Clone)]
pub struct IncrementalAttRank {
    params: AttRankParams,
    /// Push knobs for [`Self::update_delta`]: the work budget, and the `ε`
    /// of every solve, full or pushed.
    push_config: PushRankConfig,
    /// Push state of the last scored snapshot, present after any solve on
    /// a non-empty network or a [`Self::restore`].
    lanes: Option<Lanes>,
    /// Scratch buffers reused across updates (a daily re-scoring loop
    /// allocates nothing after the first solve).
    workspace: KernelWorkspace,
    /// The 3-lane push's interleaved residual (`3n` entries). Held apart
    /// from `workspace`, whose pool hands any buffer to any taker and
    /// would drift every `n`-sized vector to this capacity.
    lane_residual: Vec<f64>,
}

impl IncrementalAttRank {
    /// Creates an incremental scorer with the default push configuration.
    pub fn new(params: AttRankParams) -> Self {
        Self {
            params,
            push_config: PushRankConfig::default(),
            lanes: None,
            workspace: KernelWorkspace::new(),
            lane_residual: Vec::new(),
        }
    }

    /// Overrides the push knobs used by [`Self::update_delta`] (e.g.
    /// [`PushRankConfig::forced_fallback`] to pin the fallback path in
    /// tests).
    pub fn set_push_config(&mut self, config: PushRankConfig) {
        self.push_config = config;
    }

    /// The configured parameters.
    pub fn params(&self) -> &AttRankParams {
        &self.params
    }

    /// The personalization state [`Self::update_delta`] carries from one
    /// snapshot to the next; `None` while no push state is cached.
    pub fn carried_personalization(&self) -> Option<CarriedPersonalization<'_>> {
        self.lanes.as_ref().map(|lanes| CarriedPersonalization {
            window_counts: lanes.window.counts(),
            year0: lanes.year0,
            masses: lanes.mass,
            scales: lanes.scale,
        })
    }

    /// The uniform kernel of the last scored snapshot at the scorer's
    /// `α`, as the shared `Arc` its resolve wrote — or `None` while no
    /// push state is cached.
    pub fn kernel(&self) -> Option<&Arc<ScoreVec>> {
        self.lanes.as_ref().map(|lanes| &lanes.kernel)
    }

    /// The push state of the last scored snapshot — its unresolved kernel,
    /// attention and recency lanes, in that order, and the
    /// [`PUSH_STATE_SCALARS`] scalars their resolve needs — or `None`
    /// while none is cached. With the network it is everything
    /// [`Self::restore`] needs.
    pub fn push_state(&self) -> Option<([&[f64]; 3], [f64; PUSH_STATE_SCALARS])> {
        self.lanes.as_ref().map(|lanes| {
            let [g0, g1, g2] = lanes.g;
            let [m0, m1, m2] = lanes.mass;
            (
                lanes.y.each_ref().map(|y| y.as_slice()),
                [g0, g1, g2, m0, m1, m2, f64::from(lanes.year0)],
            )
        })
    }

    /// Resumes from a persisted epoch of `net`: a [`Self::push_state`]
    /// whose lanes all have `net`'s length and whose scalars are sane
    /// becomes the push state — the window recounted, the kernel resolved
    /// from its lane — so the next [`Self::update_delta`] can push.
    /// Returns whether it was restored.
    pub fn restore(&mut self, net: &CitationNetwork, state: Option<([&[f64]; 3], &[f64])>) -> bool {
        self.drop_lanes();
        let n = net.n_papers();
        let Some((y, scalars)) = state.filter(|(y, _)| n > 0 && y.iter().all(|y| y.len() == n))
        else {
            return false;
        };
        let Ok([g0, g1, g2, m0, m1, m2, year0]) = <[f64; PUSH_STATE_SCALARS]>::try_from(scalars)
        else {
            return false;
        };
        let (g, mass) = ([g0, g1, g2], [m0, m1, m2]);
        if g.iter().any(|g| !g.is_finite())
            || mass.iter().any(|m| !(m.is_finite() && *m > 0.0))
            || f64::from(year0 as Year) != year0
        {
            return false;
        }
        let mut lanes = Lanes {
            y: y.map(|y| self.workspace.take_copy(y)),
            g,
            mass,
            year0: year0 as Year,
            scale: [0.0; 3],
            window: WindowCounts::count(net, self.params.attention_years),
            kernel: Arc::new(ScoreVec::zeros(0)),
        };
        let Some(c) = lanes.rescale(net, &self.params) else {
            return false;
        };
        let mut kernel = self.workspace.take_zeros(n);
        for (u, &yu) in kernel.iter_mut().zip(lanes.y[KERNEL].iter()) {
            *u = c * yu;
        }
        lanes.kernel = Arc::new(kernel);
        self.lanes = Some(lanes);
        true
    }

    /// Drops the push state (the next [`Self::update_delta`] runs the
    /// full solve).
    pub fn reset(&mut self) {
        self.drop_lanes();
    }

    /// Invalidates the push state, recycling its buffers (a kernel a
    /// snapshot still shares stays with the snapshot).
    fn drop_lanes(&mut self) {
        if let Some(lanes) = self.lanes.take() {
            for y in lanes.y {
                self.workspace.recycle(y);
            }
            if let Some(kernel) = Arc::into_inner(lanes.kernel) {
                self.workspace.recycle(kernel);
            }
        }
    }

    /// Scores `net` by the full solve and keeps the push state it leaves,
    /// so the next [`Self::update_delta`] from `net` pushes. `net` need
    /// not be related to the previously scored snapshot. The residual
    /// scratch is freed, not pooled: a scorer that only runs `update`
    /// keeps the lanes alone.
    pub fn update(&mut self, net: &CitationNetwork) -> AttRankDiagnostics {
        let diag = self.solve_full(net);
        self.lane_residual = Vec::new();
        diag
    }

    /// Scores `new = old.with_delta(delta)` by a residual push localized
    /// to the delta's neighborhood, or by the full solve when the push
    /// declines (its work budget runs out — see [`PushRankConfig`]).
    ///
    /// `old` must be the network the previous [`Self::update`] /
    /// [`Self::update_delta`] call scored; when it is not (cold scorer,
    /// shape mismatch) the full path runs. The full path keeps the push
    /// state its solve leaves, so the publish *after* a fallback pushes
    /// again.
    pub fn update_delta(
        &mut self,
        old: &CitationNetwork,
        delta: &GraphDelta,
        new: &CitationNetwork,
    ) -> (AttRankDiagnostics, DeltaStrategy) {
        if let Some(pushed) = self.try_push_delta(old, delta, new) {
            return pushed;
        }
        (self.solve_full(new), DeltaStrategy::Full)
    }

    /// The push attempt: carries the window counts across the delta,
    /// collecting the personalization change, pushes the three lanes in
    /// one [`push_delta`] and resolves them in one sweep. Returns `None`
    /// when the push declines — the lanes may then be part-way, and the
    /// full solve replaces them.
    fn try_push_delta(
        &mut self,
        old: &CitationNetwork,
        delta: &GraphDelta,
        new: &CitationNetwork,
    ) -> Option<(AttRankDiagnostics, DeltaStrategy)> {
        let (n_old, n_new) = (old.n_papers(), new.n_papers());
        let lanes = self.lanes.as_mut()?;
        if lanes.y[KERNEL].len() != n_old {
            return None;
        }
        let inv = lanes.mass.map(|m| 1.0 / m);
        let (w, year0) = (self.params.decay_w, lanes.year0);
        // Δb̂: the appended papers' kernel and recency entries, then every
        // window count the batch changed.
        let mut db: Vec<(PaperId, [f64; 3])> = (n_old..n_new)
            .map(|p| {
                let rec = recency_weight(w, year0, new.years()[p]) * inv[REC];
                (p as PaperId, [inv[KERNEL], 0.0, rec])
            })
            .collect();
        lanes
            .window
            .advance(old, delta, new, self.params.attention_years, |p, dc| {
                db.push((p, [0.0, dc * inv[ATT], 0.0]))
            });
        let out = push_delta(
            old,
            delta,
            new,
            lanes.y.each_mut(),
            &mut lanes.g,
            &db,
            self.params.alpha(),
            &self.push_config,
            &mut self.lane_residual,
        )?;
        let scores = lanes.resolve(new, &self.params, &mut self.workspace)?;
        let strategy = DeltaStrategy::Push {
            pushes: out.pushes,
            edge_work: out.edge_work + n_new as u64,
        };
        Some((diagnostics(scores, &out), strategy))
    }

    /// The one full solve: the three lanes pushed from zero with the
    /// residual `b̂_k/M_k`, at the push ε with no work budget, then
    /// [`Lanes::resolve`]. Replaces the push state with the one it solved.
    fn solve_full(&mut self, net: &CitationNetwork) -> AttRankDiagnostics {
        let n = net.n_papers();
        self.drop_lanes();
        let year0 = net.current_year().unwrap_or_default();
        let w = self.params.decay_w;
        let window = WindowCounts::count(net, self.params.attention_years);
        let mass = [
            n as f64,
            window.total().max(1) as f64,
            recency_mass(net.years(), w, year0),
        ];
        let inv = mass.map(|m| 1.0 / m);
        self.lane_residual.clear();
        self.lane_residual.reserve(3 * n);
        let mut counts = window.counts().iter();
        for run in net.years().chunk_by(|a, b| a == b) {
            let rec = recency_weight(w, year0, run[0]) * inv[REC];
            for &c in counts.by_ref().take(run.len()) {
                self.lane_residual
                    .extend([inv[KERNEL], f64::from(c) * inv[ATT], rec]);
            }
        }
        let mut y = [(); 3].map(|_| self.workspace.take_zeros(n));
        let cfg = PushConfig {
            alpha: self.params.alpha(),
            epsilon: self.push_config.epsilon,
            max_edge_work: u64::MAX,
        };
        let out = push::solve_lanes(
            net.refs_csr(),
            &cfg,
            y.each_mut().map(|y| y.as_mut_slice()),
            &mut self.lane_residual,
            [0.0; 3],
        );
        let mut lanes = Lanes {
            y,
            g: out.deferred,
            mass,
            year0,
            scale: [0.0; 3],
            window,
            kernel: Arc::new(ScoreVec::zeros(0)),
        };
        // `n/M_kernel − g` is `1 − g ≥ 1 − α` on a non-empty network; a
        // NaN vector (which no publish accepts) stands in for the
        // impossible failure. An empty network keeps no push state.
        let scores = lanes
            .resolve(net, &self.params, &mut self.workspace)
            .unwrap_or_else(|| ScoreVec::from_vec(vec![f64::NAN; n]));
        self.lanes = (n > 0).then_some(lanes);
        diagnostics(scores, &out)
    }
}

/// The diagnostics of a solve that served `scores`.
fn diagnostics(scores: ScoreVec, out: &LanesOutcome<3>) -> AttRankDiagnostics {
    AttRankDiagnostics {
        scores,
        iterations: out.pushes as usize,
        converged: out.converged,
        final_error: out.residual_l1.iter().sum(),
        error_log: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::AttRank;
    use citegen::{generate, DatasetProfile};
    use citegraph::Ranker;

    fn params() -> AttRankParams {
        AttRankParams::new(0.5, 0.3, 3, -0.16).unwrap()
    }

    #[test]
    fn cold_start_matches_batch_solver() {
        let net = generate(&DatasetProfile::hepth().scaled(800), 3);
        let mut inc = IncrementalAttRank::new(params());
        let d = inc.update(&net);
        let batch = AttRank::new(params()).rank(&net);
        assert!(d.converged);
        for i in 0..net.n_papers() {
            assert!((d.scores[i] - batch[i]).abs() < 1e-10, "paper {i}");
        }
        assert!(inc.push_state().is_some(), "update keeps its push state");
    }

    #[test]
    fn a_full_solve_pushes_each_paper_once() {
        // Generated corpora cite only earlier ids, so the descending
        // cursor settles every paper's inflow before pushing it.
        for alpha in [0.2, 0.5, 0.85] {
            let net = generate(&DatasetProfile::dblp().scaled(3000), 31);
            let p = AttRankParams::new(alpha, (1.0 - alpha) / 2.0, 3, -0.16).unwrap();
            let d = IncrementalAttRank::new(p).update(&net);
            assert_eq!(d.iterations, net.n_papers(), "α = {alpha}");
            assert!(d.converged && d.final_error <= 1e-12);
        }
    }

    #[test]
    fn warm_start_converges_to_same_fixed_point() {
        let net = generate(&DatasetProfile::hepth().scaled(1200), 5);
        let early = net.prefix(900);
        let mut inc = IncrementalAttRank::new(params());
        inc.update(&early);
        let warm = inc.update(&net);
        let cold = AttRank::new(params()).rank(&net);
        assert!(warm.converged);
        for i in 0..net.n_papers() {
            assert!(
                (warm.scores[i] - cold[i]).abs() < 1e-9,
                "paper {i}: warm {} vs cold {}",
                warm.scores[i],
                cold[i]
            );
        }
    }

    #[test]
    fn shrinking_input_falls_back_to_cold_start() {
        let net = generate(&DatasetProfile::hepth().scaled(600), 11);
        let mut inc = IncrementalAttRank::new(params());
        inc.update(&net);
        let smaller = net.prefix(300);
        let d = inc.update(&smaller);
        assert!(d.converged);
        let batch = AttRank::new(params()).rank(&smaller);
        for i in 0..smaller.n_papers() {
            assert!((d.scores[i] - batch[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn reset_clears_state() {
        let net = generate(&DatasetProfile::hepth().scaled(400), 13);
        let delta = small_delta(&net);
        let mid = net.with_delta(&delta).unwrap();
        let mut inc = IncrementalAttRank::new(params());
        // A delta publish keeps the push state its full solve leaves.
        inc.update_delta(&net, &delta, &mid);
        assert!(inc.push_state().is_some());
        inc.reset();
        assert!(inc.push_state().is_none());
        assert!(inc.carried_personalization().is_none());
        let delta = small_delta(&mid);
        let new = mid.with_delta(&delta).unwrap();
        let (_, strategy) = inc.update_delta(&mid, &delta, &new);
        assert_eq!(strategy, DeltaStrategy::Full, "a reset scorer re-solves");
    }

    #[test]
    fn alpha_zero_closed_form_still_works_incrementally() {
        let net = generate(&DatasetProfile::hepth().scaled(400), 15);
        let p = AttRankParams::new(0.0, 0.5, 2, -0.3).unwrap();
        let mut inc = IncrementalAttRank::new(p);
        let d = inc.update(&net);
        let batch = AttRank::new(p).rank(&net);
        for i in 0..net.n_papers() {
            assert!((d.scores[i] - batch[i]).abs() < 1e-15);
        }
    }

    #[test]
    fn empty_network_handled() {
        let net = citegraph::NetworkBuilder::new().build().unwrap();
        let mut inc = IncrementalAttRank::new(params());
        let d = inc.update(&net);
        assert!(d.converged);
    }

    fn small_delta(net: &CitationNetwork) -> GraphDelta {
        let year = net.current_year().unwrap() + 1;
        let mut d = GraphDelta::new();
        let p = (net.n_papers() + d.add_paper(year)) as u32;
        d.add_citation(p, 0);
        d.add_citation(p, (net.n_papers() / 2) as u32);
        d
    }

    #[test]
    fn update_delta_push_matches_scratch() {
        let net = generate(&DatasetProfile::hepth().scaled(1000), 17);
        let mut inc = IncrementalAttRank::new(params());
        inc.update(&net);
        // `update` keeps its push state, so the first delta publish
        // pushes, and so does the next.
        let d0 = small_delta(&net);
        let mid = net.with_delta(&d0).unwrap();
        let (_, s0) = inc.update_delta(&net, &d0, &mid);
        assert!(
            matches!(s0, DeltaStrategy::Push { .. }),
            "the push state of update: {s0:?}"
        );

        let delta = small_delta(&mid);
        let new = mid.with_delta(&delta).unwrap();
        let (diag, strategy) = inc.update_delta(&mid, &delta, &new);
        assert!(
            matches!(strategy, DeltaStrategy::Push { .. }),
            "a two-edge delta must take the push path, got {strategy:?}"
        );
        assert!(diag.converged);
        let scratch = AttRank::new(params()).rank(&new);
        for i in 0..new.n_papers() {
            assert!(
                (diag.scores[i] - scratch[i]).abs() < 1e-9,
                "paper {i}: push {} vs scratch {}",
                diag.scores[i],
                scratch[i]
            );
        }
    }

    #[test]
    fn oversized_delta_pushes_and_matches_scratch() {
        let net = generate(&DatasetProfile::hepth().scaled(800), 37);
        let mut inc = IncrementalAttRank::new(params());
        // The first delta publish runs the full solve that builds the
        // push state.
        let d0 = small_delta(&net);
        let mid = net.with_delta(&d0).unwrap();
        inc.update_delta(&net, &d0, &mid);

        // New papers carrying 10 % of E + n in citations, plus rewired
        // bibliographies of old papers.
        let size = mid.n_citations() + mid.n_papers();
        let mut delta = citegen::publish_delta(&mid, size / 10, 5, 41);
        for j in (mid.n_papers() / 2..mid.n_papers()).step_by(97) {
            let j = j as u32;
            if !mid.references(j).contains(&0) {
                delta.add_citation(j, 0);
            }
        }
        assert!(delta.n_papers() + delta.n_citations() > size / 10);
        let new = mid.with_delta(&delta).unwrap();
        let (diag, strategy) = inc.update_delta(&mid, &delta, &new);
        assert!(
            matches!(strategy, DeltaStrategy::Push { .. }),
            "a 10 % delta pushes, got {strategy:?}"
        );
        let scratch = AttRank::new(params()).rank(&new);
        for i in 0..new.n_papers() {
            assert!(
                (diag.scores[i] - scratch[i]).abs() < 1e-9,
                "paper {i}: push {} vs scratch {}",
                diag.scores[i],
                scratch[i]
            );
        }
    }

    #[test]
    fn update_delta_forced_fallback_matches_scratch() {
        let net = generate(&DatasetProfile::hepth().scaled(600), 19);
        let delta = small_delta(&net);
        let new = net.with_delta(&delta).unwrap();

        let mut inc = IncrementalAttRank::new(params());
        inc.set_push_config(PushRankConfig::forced_fallback());
        inc.update(&net);
        let (diag, strategy) = inc.update_delta(&net, &delta, &new);
        assert_eq!(strategy, DeltaStrategy::Full);
        assert!(
            inc.push_state().is_some(),
            "the full path keeps its push state"
        );
        let scratch = AttRank::new(params()).rank(&new);
        for i in 0..new.n_papers() {
            assert!((diag.scores[i] - scratch[i]).abs() < 1e-9, "paper {i}");
        }
    }

    #[test]
    fn update_delta_cold_scorer_runs_full() {
        let net = generate(&DatasetProfile::hepth().scaled(400), 23);
        let delta = small_delta(&net);
        let new = net.with_delta(&delta).unwrap();
        let mut inc = IncrementalAttRank::new(params());
        // No prior update: nothing to seed a push from.
        let (diag, strategy) = inc.update_delta(&net, &delta, &new);
        assert_eq!(strategy, DeltaStrategy::Full);
        assert!(diag.converged);
        // And the *next* delta can push, because state is now cached.
        let delta2 = small_delta(&new);
        let newer = new.with_delta(&delta2).unwrap();
        let (_, strategy2) = inc.update_delta(&new, &delta2, &newer);
        assert!(matches!(strategy2, DeltaStrategy::Push { .. }));
    }

    #[test]
    fn chained_delta_updates_stay_accurate() {
        // Consecutive push publishes must not drift: compare the final
        // state against a cold scratch solve.
        let mut net = generate(&DatasetProfile::hepth().scaled(800), 29);
        let mut inc = IncrementalAttRank::new(params());
        inc.update(&net);
        let mut push_count = 0;
        for _ in 0..6 {
            let delta = small_delta(&net);
            let new = net.with_delta(&delta).unwrap();
            let (_, strategy) = inc.update_delta(&net, &delta, &new);
            if matches!(strategy, DeltaStrategy::Push { .. }) {
                push_count += 1;
            }
            net = new;
        }
        assert_eq!(push_count, 6, "only {push_count}/6 updates pushed");
        let (diag, _) = {
            // Re-rank the unchanged network through the incremental path.
            let empty = GraphDelta::new();
            let same = net.with_delta(&empty).unwrap();
            inc.update_delta(&net, &empty, &same)
        };
        let scratch = AttRank::new(params()).rank(&net);
        for i in 0..net.n_papers() {
            assert!(
                (diag.scores[i] - scratch[i]).abs() < 1e-9,
                "paper {i} drifted after chained pushes"
            );
        }
    }
}
