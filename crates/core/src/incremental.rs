//! Incremental AttRank for growing networks.
//!
//! A production deployment re-ranks the corpus as new papers arrive (the
//! paper's §1 motivates exactly this monitoring use-case).
//! [`IncrementalAttRank`] solves Eq. 4 as three systems on the same
//! operator: the attention-component fixed point (`x = α·S·x + β·A`), the
//! recency-component one (`x = α·S·x + γ·T`) — the served total is their
//! sum — and the operator's *uniform kernel* `u = (I − α·S)⁻¹·(1/n)·1`,
//! against which both resolve the dangling mass their pushes defer. All
//! three are solved by one residual push ([`sparsela::push::solve_lanes`]:
//! one traversal, the three residuals interleaved) followed by one
//! resolution sweep, and every solve — full or across a delta — is that.
//!
//! ## The full solve is one pass
//!
//! Citations point back in time and ids are time-sorted, so the citation
//! part of `I − α·S` is triangular wherever no paper cites a same-year
//! paper with a higher id. The push's descending-id cursor therefore
//! settles all of a paper's inflow before it pushes the paper: from a zero
//! estimate and the residual `[1/n, β·A, γ·T]`, each paper is pushed once
//! and the solve is one pass over the edges — the triangular solve
//! Langville & Meyer reach by reordering ("A Reordering for the PageRank
//! Problem", SIAM J. Sci. Comput. 27(6), 2006); for a citation graph the
//! order is free. A same-year citation to a higher id (legal input: a
//! cycle inside one year) lands residual above the cursor and costs
//! another pass over what it reaches, never accuracy. The run stops at the
//! scorer's push ε with no work budget. A dangling paper's uniform column
//! is never walked: each lane defers that mass to one scalar `g`, and the
//! sweep resolves it in closed form — the kernel is self-similar,
//! `u = x_u / (1 − g_u)`, and each component is `x + g·u`.
//!
//! ## Delta updates at push cost
//!
//! [`IncrementalAttRank::update_delta`] pushes residuals seeded only where
//! the [`GraphDelta`] actually perturbed the system (see
//! [`citegraph::pushrank`]). Making those seeds sparse is why the state is
//! split per component: AttRank's personalization `β·A + γ·T` is two
//! probability vectors that rescale by *different* global factors as the
//! network grows. The three systems share the matrix and, after a delta,
//! almost the whole perturbed cone, so a publish is **one** 3-lane push
//! ([`citegraph::try_push_lanes`]: one fused seeding pass and one
//! traversal, the three vectors updated in place) followed by the same
//! resolution sweep as the full solve. Any delta is pushed, whatever its
//! size: on a citation DAG the push settles each paper of the perturbed
//! cone once, so its cost is bounded by one pass over the successor
//! network, the full solve's own cost. Only an exhausted work budget
//! ([`PushRankConfig::budget_sweeps`]) or a state that does not belong to
//! the old network sends a publish to the full solve.
//!
//! The personalization is carried across the delta too rather than
//! rebuilt from the corpus: the attention window's integer citation
//! counts are updated from the batch (and recounted only when a year
//! rollover moves the window), so `β·A` is one scaling pass over them,
//! and `γ·T` costs one `exp` per distinct year.
//!
//! The push state is what a full solve leaves behind, so it costs nothing
//! to build: the full path of `update_delta` keeps it, and the publish
//! after a fallback pushes again. [`IncrementalAttRank::update`] drops it,
//! so a scorer that never publishes a delta holds none. A restart does
//! not solve: [`IncrementalAttRank::push_state`] is the split's three
//! solved vectors (24 B per paper), and [`IncrementalAttRank::restore`]
//! rebuilds the rest from the network — the window counts by one recount,
//! `β·A` / `γ·T` from them, bit for bit what the live scorer carried — so
//! the first publish after a restore pushes.
//!
//! The kernel lane is shared, not copied: [`IncrementalAttRank::kernel`]
//! hands out the `Arc` the last solve resolved, which a serving layer
//! keeps beside the scores it published, and the next push copies it on
//! write into a pooled buffer before updating it in place.

use std::sync::Arc;

use citegraph::{
    try_push_lanes, CitationNetwork, DeltaStrategy, GraphDelta, Personalization, PushLane,
    PushRankConfig,
};
use sparsela::{push, KernelWorkspace, LanesOutcome, PushConfig, ScoreVec};

use crate::attention::WindowCounts;
use crate::model::{components_from_counts, AttRankDiagnostics};
use crate::params::AttRankParams;

/// Lane order of the 3-lane push: the uniform kernel, then the attention
/// and recency components it resolves.
const KERNEL: usize = 0;
const ATT: usize = 1;
const REC: usize = 2;

/// The per-snapshot state the push path updates in place: everything here
/// belongs to the same network state as [`IncrementalAttRank::previous`].
#[derive(Debug, Clone)]
struct PushSplit {
    /// Attention-component fixed point (`x = α·S·x + β·A`).
    att: ScoreVec,
    /// Recency-component fixed point (`x = α·S·x + γ·T`); `att + rec` is
    /// the served total.
    rec: ScoreVec,
    /// Personalization components `β·A` and `γ·T` — the `b₀`s the push
    /// seeding diffs against.
    b_att: ScoreVec,
    b_rec: ScoreVec,
    /// Uniform kernel `u = (I − α·S)⁻¹·(1/n)·1`, shared with whoever
    /// holds [`IncrementalAttRank::kernel`]; a solve updates it through
    /// [`unshare`].
    kernel: Arc<ScoreVec>,
    /// The attention window's citation counts behind `b_att`.
    window: WindowCounts,
}

impl PushSplit {
    /// The resolution sweep every solve ends in: the kernel in closed form
    /// (`u = x_u / (1 − g_u)`), each component against the fresh kernel
    /// (`x + g·u`), and the served sum of the components — written twice,
    /// one copy returned and one kept in `previous`.
    fn resolve(
        &mut self,
        out: &LanesOutcome<3>,
        previous: &mut Option<ScoreVec>,
        workspace: &mut KernelWorkspace,
    ) -> AttRankDiagnostics {
        let n = self.kernel.len();
        let inv = 1.0 / (1.0 - out.deferred[KERNEL]);
        let (g_att, g_rec) = (out.deferred[ATT], out.deferred[REC]);
        let mut total = workspace.take_zeros(n);
        let mut kept = workspace.take_zeros(n);
        for ((((u, a), r), t), k) in unshare(&mut self.kernel, workspace)
            .iter_mut()
            .zip(self.att.iter_mut())
            .zip(self.rec.iter_mut())
            .zip(total.iter_mut())
            .zip(kept.iter_mut())
        {
            *u *= inv;
            *a += g_att * *u;
            *r += g_rec * *u;
            *t = *a + *r;
            *k = *t;
        }
        if let Some(stale) = previous.replace(kept) {
            workspace.recycle(stale);
        }
        AttRankDiagnostics {
            scores: total,
            iterations: out.pushes as usize,
            converged: out.converged,
            final_error: out.residual_l1.iter().sum(),
            error_log: Vec::new(),
        }
    }
}

/// `kernel`, owned: when a reader still shares it, it is first copied
/// into a pooled buffer (copy on write), and the reader keeps the old one.
fn unshare<'a>(kernel: &'a mut Arc<ScoreVec>, workspace: &mut KernelWorkspace) -> &'a mut ScoreVec {
    if Arc::get_mut(kernel).is_none() {
        *kernel = Arc::new(workspace.take_copy(kernel));
    }
    Arc::get_mut(kernel).expect("a fresh Arc is unshared")
}

/// What a test may read of the personalization carried across deltas
/// ([`IncrementalAttRank::carried_personalization`]).
#[derive(Debug, Clone, Copy)]
pub struct CarriedPersonalization<'a> {
    /// Citations received inside the attention window, per paper.
    pub window_counts: &'a [u32],
    /// `β·A` of the last scored snapshot.
    pub b_att: &'a ScoreVec,
    /// `γ·T` of the last scored snapshot.
    pub b_rec: &'a ScoreVec,
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
    /// Fixed point of the previously scored snapshot.
    previous: Option<ScoreVec>,
    /// Push state of the same snapshot, present after a full solve or a
    /// push by [`Self::update_delta`], or a [`Self::restore`].
    split: Option<PushSplit>,
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
            previous: None,
            split: None,
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
        self.split.as_ref().map(|split| CarriedPersonalization {
            window_counts: split.window.counts(),
            b_att: &split.b_att,
            b_rec: &split.b_rec,
        })
    }

    /// The fixed point of the last scored snapshot — what a caller checks
    /// [`Self::push_state`] against before persisting it.
    pub fn fixed_point(&self) -> Option<&ScoreVec> {
        self.previous.as_ref()
    }

    /// The uniform kernel of the last scored snapshot at the scorer's
    /// `α` — lane 0 of [`Self::push_state`] as a shared `Arc`, not a copy
    /// — or `None` while no split is cached.
    pub fn kernel(&self) -> Option<&Arc<ScoreVec>> {
        self.split.as_ref().map(|s| &s.kernel)
    }

    /// The push state of the last scored snapshot — its attention
    /// component, recency component and uniform kernel, in that order —
    /// or `None` while no split is cached. With the network and
    /// [`Self::fixed_point`] it is everything [`Self::restore`] needs.
    pub fn push_state(&self) -> Option<[&[f64]; 3]> {
        self.split
            .as_ref()
            .map(|s| [s.att.as_slice(), s.rec.as_slice(), s.kernel.as_slice()])
    }

    /// Resumes from a persisted epoch of `net`: `scores` become the fixed
    /// point of the last scored snapshot, and a [`Self::push_state`] whose
    /// three vectors all have `net`'s length rebuilds the component split —
    /// the window counts recounted, `β·A` / `γ·T` computed from them — so
    /// the next [`Self::update_delta`] can push. Returns whether the split
    /// was restored.
    pub fn restore(
        &mut self,
        net: &CitationNetwork,
        scores: &[f64],
        state: Option<[&[f64]; 3]>,
    ) -> bool {
        let n = net.n_papers();
        self.drop_split();
        let kept = self.workspace.take_copy(scores);
        if let Some(stale) = self.previous.replace(kept) {
            self.workspace.recycle(stale);
        }
        let Some(state) =
            state.filter(|lanes| scores.len() == n && lanes.iter().all(|lane| lane.len() == n))
        else {
            return false;
        };
        let window = WindowCounts::count(net, self.params.attention_years);
        let (b_att, b_rec) =
            components_from_counts(net, &self.params, window.counts(), &mut self.workspace);
        let [att, rec, kernel] = state.map(|lane| self.workspace.take_copy(lane));
        self.split = Some(PushSplit {
            att,
            rec,
            b_att,
            b_rec,
            kernel: Arc::new(kernel),
            window,
        });
        true
    }

    /// Drops the cached fixed point and push state (the next
    /// [`Self::update_delta`] runs the full solve).
    pub fn reset(&mut self) {
        self.previous = None;
        self.drop_split();
    }

    /// Invalidates the per-component push state (recycling its buffers).
    fn drop_split(&mut self) {
        if let Some(split) = self.split.take() {
            for v in [split.att, split.rec, split.b_att, split.b_rec] {
                self.workspace.recycle(v);
            }
            // A kernel a snapshot still shares stays with the snapshot.
            if let Some(kernel) = Arc::into_inner(split.kernel) {
                self.workspace.recycle(kernel);
            }
        }
    }

    /// Scores `net` by the full solve and drops the push state it leaves,
    /// so a scorer that only ever runs `update` holds none. `net` need not
    /// be related to the previously scored snapshot.
    pub fn update(&mut self, net: &CitationNetwork) -> AttRankDiagnostics {
        let diag = self.solve_full(net);
        // Freed, not pooled: a scorer that only runs `update` keeps no
        // push buffers.
        self.split = None;
        self.lane_residual = Vec::new();
        diag
    }

    /// Scores `new = old.with_delta(delta)` by a residual push localized
    /// to the delta's neighborhood, or by the full solve when the push
    /// declines (its work budget runs out — see [`PushRankConfig`]).
    ///
    /// `old` must be the network the previous [`Self::update`] /
    /// [`Self::update_delta`] call scored; when it is not (cold scorer,
    /// shape mismatch, non-finite cache) the full path runs. The full path
    /// keeps the push state its solve leaves, so the publish *after* a
    /// fallback pushes again.
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

    /// The push attempt: carries the personalization across the delta,
    /// then updates the uniform kernel and both components in place in one
    /// 3-lane push and resolves them in one sweep. Returns `None` when the
    /// push declines — the split may then be part-way, and the full solve
    /// replaces it.
    fn try_push_delta(
        &mut self,
        old: &CitationNetwork,
        delta: &GraphDelta,
        new: &CitationNetwork,
    ) -> Option<(AttRankDiagnostics, DeltaStrategy)> {
        let alpha = self.params.alpha();
        let (n_old, n_new) = (old.n_papers(), new.n_papers());
        let split = self.split.as_mut()?;
        if alpha == 0.0 || n_old == 0 || split.att.len() != n_old {
            return None;
        }

        split
            .window
            .advance(old, delta, new, self.params.attention_years);
        let (b_att1, b_rec1) = components_from_counts(
            new,
            &self.params,
            split.window.counts(),
            &mut self.workspace,
        );
        let lanes = [
            PushLane {
                x: unshare(&mut split.kernel, &mut self.workspace),
                b_old: Personalization::Uniform(1.0 / n_old as f64),
                b_new: Personalization::Uniform(1.0 / n_new as f64),
            },
            PushLane {
                x: &mut split.att,
                b_old: Personalization::Dense(&split.b_att),
                b_new: Personalization::Dense(&b_att1),
            },
            PushLane {
                x: &mut split.rec,
                b_old: Personalization::Dense(&split.b_rec),
                b_new: Personalization::Dense(&b_rec1),
            },
        ];
        let pushed = try_push_lanes(
            old,
            delta,
            new,
            lanes,
            alpha,
            &self.push_config,
            &mut self.lane_residual,
        );
        // The new personalization replaces the old one whatever the push
        // said (a declined push leaves the split to the full path anyway).
        self.workspace
            .recycle(std::mem::replace(&mut split.b_att, b_att1));
        self.workspace
            .recycle(std::mem::replace(&mut split.b_rec, b_rec1));
        // The kernel is its own resolution (`u = x_u / (1 − g_u)`), which
        // needs the denominator safely positive; a delta perturbation
        // keeps `g_u` tiny, so failing this means an inconsistent state.
        let out = pushed.filter(|out| 1.0 - out.deferred[KERNEL] > 0.5)?;
        let diag = split.resolve(&out, &mut self.previous, &mut self.workspace);
        let strategy = DeltaStrategy::Push {
            pushes: out.pushes,
            edge_work: out.edge_work + n_new as u64,
        };
        Some((diag, strategy))
    }

    /// The one full solve: the three lanes pushed from a zero estimate
    /// with the residual `[1/n, β·A, γ·T]`, at the push ε with no work
    /// budget, then [`PushSplit::resolve`]. Replaces the push state with
    /// the one it solved.
    fn solve_full(&mut self, net: &CitationNetwork) -> AttRankDiagnostics {
        let n = net.n_papers();
        self.drop_split();
        let window = WindowCounts::count(net, self.params.attention_years);
        let (b_att, b_rec) =
            components_from_counts(net, &self.params, window.counts(), &mut self.workspace);
        let uniform = 1.0 / n as f64;
        self.lane_residual.clear();
        self.lane_residual.extend(
            b_att
                .iter()
                .zip(b_rec.iter())
                .flat_map(|(&a, &r)| [uniform, a, r]),
        );
        let [mut kernel, mut att, mut rec] = [(); 3].map(|_| self.workspace.take_zeros(n));
        let cfg = PushConfig {
            alpha: self.params.alpha(),
            epsilon: self.push_config.epsilon,
            max_edge_work: u64::MAX,
        };
        let out = push::solve_lanes(
            net.refs_csr(),
            &cfg,
            [
                kernel.as_mut_slice(),
                att.as_mut_slice(),
                rec.as_mut_slice(),
            ],
            &mut self.lane_residual,
            [0.0; 3],
        );
        let mut split = PushSplit {
            att,
            rec,
            b_att,
            b_rec,
            kernel: Arc::new(kernel),
            window,
        };
        let diag = split.resolve(&out, &mut self.previous, &mut self.workspace);
        self.split = Some(split);
        diag
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
        assert!(inc.push_state().is_none(), "update keeps no push state");
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
        // `update` keeps no push state, so the first delta publish runs
        // the full solve; the next one pushes.
        let d0 = small_delta(&net);
        let mid = net.with_delta(&d0).unwrap();
        let (_, s0) = inc.update_delta(&net, &d0, &mid);
        assert_eq!(s0, DeltaStrategy::Full, "no push state after update");

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
        // state against a cold scratch solve. (The first delta publish
        // follows an `update` and runs full.)
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
        assert!(push_count >= 5, "only {push_count}/6 updates pushed");
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
