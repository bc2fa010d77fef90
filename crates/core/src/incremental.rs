//! Incremental AttRank for growing networks.
//!
//! A production deployment re-ranks the corpus as new papers arrive (the
//! paper's §1 motivates exactly this monitoring use-case). Recomputing the
//! fixed point from scratch wastes the fact that consecutive states of the
//! network are nearly identical: the dominant eigenvector moves little when
//! a day's worth of papers lands.
//!
//! [`IncrementalAttRank`] keeps the previous fixed point and *warm-starts*
//! the power iteration from it, padding new papers with the uniform mass
//! they would receive in a cold start and re-normalizing. Because the
//! AttRank operator is a contraction with factor `α` (the attention and
//! recency terms are constant within one solve), the iteration count drops
//! roughly by `log(ε/d)/log(α)` where `d` is the L1 drift between the old
//! and new fixed points — typically a 2–4× saving at daily/yearly update
//! cadence (measured in `benches/ablation.rs`).
//!
//! ## Delta updates at push cost
//!
//! [`IncrementalAttRank::update_delta`] goes further: instead of any full
//! sweep it *pushes* residuals seeded only where the [`GraphDelta`]
//! actually perturbed the system (see [`citegraph::pushrank`]). Making
//! those seeds sparse requires per-component state, because AttRank's
//! personalization `β·A + γ·T` is two probability vectors that rescale by
//! *different* global factors as the network grows: the scorer therefore
//! maintains the attention-component fixed point (`x = α·S·x + β·A`) and
//! the recency-component one (`x = α·S·x + γ·T`) — the served total is
//! their sum — plus the operator's *uniform kernel*
//! `u = (I − α·S)⁻¹·(1/n)·1` used to resolve deferred dangling mass
//! analytically. The three systems share the matrix and, after a delta,
//! almost the whole perturbed cone, so a publish is **one** 3-lane push
//! ([`citegraph::try_push_lanes`]: one fused seeding pass and one
//! traversal, the three vectors updated in place) followed by one
//! resolution sweep.
//!
//! The personalization is carried across the delta too rather than
//! rebuilt from the corpus: the attention window's integer citation
//! counts are updated from the batch (and recounted only when a year
//! rollover moves the window), so `β·A` is one scaling pass over them,
//! and `γ·T` costs one `exp` per distinct year.
//!
//! The component split is (re)built after every full solve at the cost of
//! two extra power runs — paid once per fallback, then amortized across
//! every push-updated publish that follows. A restart does not pay them:
//! [`IncrementalAttRank::push_state`] is the split's three solved vectors
//! (24 B per paper), and [`IncrementalAttRank::restore`] rebuilds the rest
//! from the network — the window counts by one recount, `β·A` / `γ·T` from
//! them, bit for bit what the live scorer carried — so the first publish
//! after a restore pushes.

use citegraph::{
    try_push_lanes, uniform_kernel, CitationNetwork, DeltaStrategy, GraphDelta, Personalization,
    PushLane, PushRankConfig,
};
use sparsela::{KernelWorkspace, PowerEngine, PowerOptions, ScoreVec};

use crate::attention::WindowCounts;
use crate::model::{components_from_counts, jump_vector, AttRankDiagnostics};
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
    /// Uniform kernel `u = (I − α·S)⁻¹·(1/n)·1`.
    kernel: ScoreVec,
    /// The attention window's citation counts behind `b_att`.
    window: WindowCounts,
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

/// AttRank with warm-started re-scoring across network snapshots.
#[derive(Debug, Clone)]
pub struct IncrementalAttRank {
    params: AttRankParams,
    options: PowerOptions,
    /// Push-vs-full decision knobs for [`Self::update_delta`].
    push_config: PushRankConfig,
    /// Fixed point of the previously scored snapshot.
    previous: Option<ScoreVec>,
    /// Push state of the same snapshot, present after a delta update.
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
    /// Creates an incremental scorer with default convergence options.
    pub fn new(params: AttRankParams) -> Self {
        Self::with_options(params, PowerOptions::default())
    }

    /// Overrides the power-method options.
    pub fn with_options(params: AttRankParams, options: PowerOptions) -> Self {
        Self {
            params,
            options,
            push_config: PushRankConfig::default(),
            previous: None,
            split: None,
            workspace: KernelWorkspace::new(),
            lane_residual: Vec::new(),
        }
    }

    /// Overrides the push-vs-full decision knobs used by
    /// [`Self::update_delta`] (e.g. [`PushRankConfig::forced_fallback`] to
    /// pin the fallback path in tests).
    pub fn set_push_config(&mut self, config: PushRankConfig) {
        self.push_config = config;
    }

    /// The configured parameters.
    pub fn params(&self) -> &AttRankParams {
        &self.params
    }

    /// `true` once at least one snapshot has been scored.
    pub fn is_warm(&self) -> bool {
        self.previous.is_some()
    }

    /// The personalization state [`Self::update_delta`] carries from one
    /// snapshot to the next; `None` until a delta update has built it.
    pub fn carried_personalization(&self) -> Option<CarriedPersonalization<'_>> {
        self.split.as_ref().map(|split| CarriedPersonalization {
            window_counts: split.window.counts(),
            b_att: &split.b_att,
            b_rec: &split.b_rec,
        })
    }

    /// The fixed point of the last scored snapshot — what the next full
    /// solve warm-starts from.
    pub fn fixed_point(&self) -> Option<&ScoreVec> {
        self.previous.as_ref()
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
    /// point the next solve warm-starts from, and a [`Self::push_state`]
    /// whose three vectors all have `net`'s length rebuilds the component
    /// split — the window counts recounted, `β·A` / `γ·T` computed from
    /// them — so the next [`Self::update_delta`] can push. Returns whether
    /// the split was restored.
    pub fn restore(
        &mut self,
        net: &CitationNetwork,
        scores: &[f64],
        state: Option<[&[f64]; 3]>,
    ) -> bool {
        let n = net.n_papers();
        self.drop_split();
        let mut kept = self.workspace.take_zeros(scores.len());
        kept.as_mut_slice().copy_from_slice(scores);
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
        let [att, rec, kernel] = state.map(|lane| {
            let mut v = self.workspace.take_zeros(n);
            v.as_mut_slice().copy_from_slice(lane);
            v
        });
        self.split = Some(PushSplit {
            att,
            rec,
            b_att,
            b_rec,
            kernel,
            window,
        });
        true
    }

    /// Drops the cached fixed point (next update is a cold start).
    pub fn reset(&mut self) {
        self.previous = None;
        self.drop_split();
    }

    /// Invalidates the per-component push state (recycling its buffers).
    fn drop_split(&mut self) {
        if let Some(split) = self.split.take() {
            for v in [split.att, split.rec, split.b_att, split.b_rec, split.kernel] {
                self.workspace.recycle(v);
            }
        }
    }

    /// Scores the given snapshot, warm-starting from the previous one.
    ///
    /// The snapshot must contain at least as many papers as the previous
    /// one and papers must keep their ids (which [`CitationNetwork`]
    /// guarantees for growing prefixes of the same corpus: ids are
    /// time-ordered). Shrinking inputs trigger a cold start rather than an
    /// error — the caller may legitimately switch corpora.
    pub fn update(&mut self, net: &CitationNetwork) -> AttRankDiagnostics {
        // A full snapshot update invalidates the per-component push state
        // (it is rebuilt by the next `update_delta`).
        self.drop_split();
        let jump = jump_vector(net, &self.params, &mut self.workspace);
        self.solve_with_jump(net, jump)
    }

    /// Scores `new = old.with_delta(delta)`, choosing between a residual
    /// push localized to the delta's neighborhood and the warm-started
    /// full solve (the push falls back automatically when the delta is too
    /// large or its work budget runs out — see [`PushRankConfig`]).
    ///
    /// `old` must be the network the previous [`Self::update`] /
    /// [`Self::update_delta`] call scored; when it is not (cold scorer,
    /// shape mismatch, non-finite cache) the full path runs. A full run
    /// here also (re)builds the component split the push path needs, at
    /// the cost of two extra power solves — so the publish *after* a
    /// fallback can push again.
    ///
    /// For the push path the returned diagnostics report `iterations` as
    /// the number of *pushes* and `final_error` as the residual L1 bound
    /// (summed over the three systems).
    pub fn update_delta(
        &mut self,
        old: &CitationNetwork,
        delta: &GraphDelta,
        new: &CitationNetwork,
    ) -> (AttRankDiagnostics, DeltaStrategy) {
        if let Some(pushed) = self.try_push_delta(old, delta, new) {
            return pushed;
        }

        // Full path: warm-started combined solve, then rebuild the
        // component split for the next delta — but only when this delta
        // was push-sized in the first place. A stream of oversized deltas
        // (gate-rejected) re-ranks at plain warm-solve cost instead of
        // paying two extra solves per publish for push state it never
        // uses; the split invalidates either way (its vectors belong to
        // the pre-delta network) and is rebuilt on the next small delta.
        let rebuild = self.params.alpha() > 0.0
            && new.n_papers() > 0
            && self.push_config.gates_delta(old, delta);
        let window = WindowCounts::count(new, self.params.attention_years);
        let (b_att, b_rec) =
            components_from_counts(new, &self.params, window.counts(), &mut self.workspace);
        let mut jump = self.workspace.take_zeros(new.n_papers());
        jump.axpy(1.0, &b_att);
        jump.axpy(1.0, &b_rec);
        let diag = self.solve_with_jump(new, jump);
        if rebuild && diag.converged {
            self.rebuild_split(new, b_att, b_rec, window);
        } else {
            self.drop_split();
            self.workspace.recycle(b_att);
            self.workspace.recycle(b_rec);
        }
        (diag, DeltaStrategy::Full)
    }

    /// The push attempt: carries the personalization across the delta,
    /// then updates the uniform kernel and both components in place in one
    /// 3-lane push and resolves them in one sweep. Returns `None` when the
    /// push declines — the split may then be part-way, and the full path
    /// replaces (or drops) it.
    fn try_push_delta(
        &mut self,
        old: &CitationNetwork,
        delta: &GraphDelta,
        new: &CitationNetwork,
    ) -> Option<(AttRankDiagnostics, DeltaStrategy)> {
        let alpha = self.params.alpha();
        let (n_old, n_new) = (old.n_papers(), new.n_papers());
        let split = self.split.as_mut()?;
        if alpha == 0.0
            || n_old == 0
            || split.att.len() != n_old
            || !self.push_config.gates_delta(old, delta)
        {
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
                x: &mut split.kernel,
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

        // One resolution sweep: the kernel in closed form, each component
        // against the fresh kernel, and the served sum of the components
        // (twice — one copy is returned, one kept for the next warm start).
        let inv = 1.0 / (1.0 - out.deferred[KERNEL]);
        let (g_att, g_rec) = (out.deferred[ATT], out.deferred[REC]);
        let mut total = self.workspace.take_zeros(n_new);
        let mut kept = self.workspace.take_zeros(n_new);
        for ((((u, a), r), t), k) in split
            .kernel
            .iter_mut()
            .zip(split.att.iter_mut())
            .zip(split.rec.iter_mut())
            .zip(total.iter_mut())
            .zip(kept.iter_mut())
        {
            *u *= inv;
            *a += g_att * *u;
            *r += g_rec * *u;
            *t = *a + *r;
            *k = *t;
        }
        if let Some(stale) = self.previous.replace(kept) {
            self.workspace.recycle(stale);
        }
        let diag = AttRankDiagnostics {
            scores: total,
            iterations: out.pushes as usize,
            converged: true,
            final_error: out.residual_l1.iter().sum(),
            error_log: Vec::new(),
        };
        let strategy = DeltaStrategy::Push {
            pushes: out.pushes,
            edge_work: out.edge_work + n_new as u64,
        };
        Some((diag, strategy))
    }

    /// (Re)builds the per-component push state after a full solve on
    /// `net`: one power solve for the attention component (warm-started
    /// from its previous value when shapes allow) and one for the uniform
    /// kernel; the recency component is what remains of the served total.
    /// Consumes the personalization components and the window counts they
    /// were built from into the cache.
    fn rebuild_split(
        &mut self,
        net: &CitationNetwork,
        b_att: ScoreVec,
        b_rec: ScoreVec,
        window: WindowCounts,
    ) {
        let n = net.n_papers();
        let alpha = self.params.alpha();
        let op = net.stochastic_operator();
        let engine = PowerEngine::new(self.options);

        let mut initial = self.workspace.take_zeros(n);
        if let Some(prev_att) = self.split.as_ref().map(|split| &split.att) {
            if prev_att.len() <= n {
                initial.as_mut_slice()[..prev_att.len()].copy_from_slice(prev_att.as_slice());
            }
        }
        let att = engine
            .run_with(&mut self.workspace, initial, |cur, next| {
                op.apply_damped(alpha, cur.as_slice(), b_att.as_slice(), next.as_mut_slice());
            })
            .scores;
        let kernel = uniform_kernel(net, alpha, &mut self.workspace);
        let mut rec = self.workspace.take_zeros(n);
        let total = self.previous.as_ref().expect("a full solve just cached it");
        for ((r, &t), &a) in rec.iter_mut().zip(total.iter()).zip(att.iter()) {
            *r = t - a;
        }

        self.drop_split();
        self.split = Some(PushSplit {
            att,
            rec,
            b_att,
            b_rec,
            kernel,
            window,
        });
    }

    /// Warm-started power solve against a precomputed personalization
    /// vector; caches the fixed point for the next warm start.
    fn solve_with_jump(&mut self, net: &CitationNetwork, jump: ScoreVec) -> AttRankDiagnostics {
        let n = net.n_papers();
        let alpha = self.params.alpha();

        if n == 0 {
            self.previous = Some(ScoreVec::zeros(0));
            self.workspace.recycle(jump);
            return AttRankDiagnostics {
                scores: ScoreVec::zeros(0),
                iterations: 0,
                converged: true,
                final_error: 0.0,
                error_log: Vec::new(),
            };
        }

        if alpha == 0.0 {
            // Closed form — nothing to warm-start; the solution *is* the
            // personalization.
            self.previous = Some(jump.clone());
            return AttRankDiagnostics {
                scores: jump,
                iterations: 1,
                converged: true,
                final_error: 0.0,
                error_log: Vec::new(),
            };
        }

        let initial = match &self.previous {
            Some(prev) if prev.len() <= n && !prev.is_empty() => {
                // Carry over old scores; new papers start with the uniform
                // share a cold start would give them, then re-normalize so
                // the iterate is a probability vector again.
                let mut init = self.workspace.take_zeros(n);
                init.as_mut_slice()[..prev.len()].copy_from_slice(prev.as_slice());
                let fresh = 1.0 / n as f64;
                for v in init.as_mut_slice()[prev.len()..].iter_mut() {
                    *v = fresh;
                }
                init.normalize_l1();
                init
            }
            _ => ScoreVec::uniform(n),
        };

        let op = net.stochastic_operator();
        let engine = PowerEngine::new(self.options);
        // Fused Eq. 4 sweep; warm-started from the previous fixed point.
        let outcome = engine.run_with(&mut self.workspace, initial, |cur, next| {
            op.apply_damped(alpha, cur.as_slice(), jump.as_slice(), next.as_mut_slice());
        });
        self.workspace.recycle(jump);
        // Keep the fixed point for the next warm start via a pooled copy
        // (cloning here would re-allocate in the very loop the workspace
        // exists to keep allocation-free).
        let mut kept = self.workspace.take_zeros(n);
        kept.as_mut_slice()
            .copy_from_slice(outcome.scores.as_slice());
        if let Some(prev) = self.previous.replace(kept) {
            self.workspace.recycle(prev);
        }
        outcome.into()
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
        assert!(inc.is_warm());
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
    fn warm_start_saves_iterations() {
        let net = generate(&DatasetProfile::dblp().scaled(2000), 7);
        let early = net.prefix(1900); // small growth step
        let mut inc = IncrementalAttRank::new(params());
        inc.update(&early);
        let warm = inc.update(&net);
        let mut cold = IncrementalAttRank::new(params());
        let cold_run = cold.update(&net);
        assert!(
            warm.iterations < cold_run.iterations,
            "warm {} vs cold {}",
            warm.iterations,
            cold_run.iterations
        );
    }

    #[test]
    fn identical_snapshot_converges_immediately() {
        let net = generate(&DatasetProfile::hepth().scaled(600), 9);
        let mut inc = IncrementalAttRank::new(params());
        inc.update(&net);
        let again = inc.update(&net);
        assert!(
            again.iterations <= 2,
            "re-scoring an unchanged network took {} iterations",
            again.iterations
        );
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
        let mut inc = IncrementalAttRank::new(params());
        inc.update(&net);
        assert!(inc.is_warm());
        inc.reset();
        assert!(!inc.is_warm());
    }

    #[test]
    fn alpha_zero_closed_form_still_works_incrementally() {
        let net = generate(&DatasetProfile::hepth().scaled(400), 15);
        let p = AttRankParams::new(0.0, 0.5, 2, -0.3).unwrap();
        let mut inc = IncrementalAttRank::new(p);
        let d = inc.update(&net);
        assert_eq!(d.iterations, 1);
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
        assert!(inc.is_warm());
    }

    /// Push gates opened up for fixtures whose delta is a large fraction
    /// of the (small) graph.
    fn permissive_push() -> PushRankConfig {
        PushRankConfig {
            budget_sweeps: 1e6,
            max_delta_fraction: 1.0,
            ..PushRankConfig::default()
        }
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
        inc.set_push_config(permissive_push());
        inc.update(&net);
        // First delta publish runs the full path while the component
        // split is built; the next one pushes.
        let d0 = small_delta(&net);
        let mid = net.with_delta(&d0).unwrap();
        let (_, s0) = inc.update_delta(&net, &d0, &mid);
        assert_eq!(s0, DeltaStrategy::Full, "split build publishes full");

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
    fn update_delta_forced_fallback_matches_scratch() {
        let net = generate(&DatasetProfile::hepth().scaled(600), 19);
        let delta = small_delta(&net);
        let new = net.with_delta(&delta).unwrap();

        let mut inc = IncrementalAttRank::new(params());
        inc.set_push_config(PushRankConfig::forced_fallback());
        inc.update(&net);
        let (diag, strategy) = inc.update_delta(&net, &delta, &new);
        assert_eq!(strategy, DeltaStrategy::Full);
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
        inc.set_push_config(permissive_push());
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
        // state against a cold scratch solve. (The first delta publish is
        // the split build and runs full.)
        let mut net = generate(&DatasetProfile::hepth().scaled(800), 29);
        let mut inc = IncrementalAttRank::new(params());
        inc.set_push_config(permissive_push());
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
