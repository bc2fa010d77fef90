//! The AttRank fixed-point model (paper Eq. 4 and Theorem 1).

use citegraph::{window, CitationNetwork, Ranker};
use sparsela::{KernelWorkspace, PowerEngine, PowerOptions, PowerOutcome, ScoreVec};

use crate::attention::{attention_vector, scaled_attention_into};
use crate::params::AttRankParams;
use crate::recency::{recency_into, recency_vector};

/// Builds AttRank's personalization vector `β·A + γ·T` (the fixed part of
/// Eq. 4) for the current state of `net`, drawing the buffer from
/// `workspace`.
pub(crate) fn jump_vector(
    net: &CitationNetwork,
    params: &AttRankParams,
    workspace: &mut KernelWorkspace,
) -> ScoreVec {
    let attention = attention_vector(net, params.attention_years);
    let recency = recency_vector(net, params.decay_w);
    let mut jump = workspace.take_zeros(net.n_papers());
    jump.axpy(params.beta(), &attention);
    jump.axpy(params.gamma(), &recency);
    jump
}

/// The two personalization components `β·A` and `γ·T` separately, as
/// a full solve on `net` would build them — the reference the incremental
/// scorer's carried lanes are checked against.
pub fn jump_components(
    net: &CitationNetwork,
    params: &AttRankParams,
    workspace: &mut KernelWorkspace,
) -> (ScoreVec, ScoreVec) {
    let n = net.n_papers();
    let counts = window::recent_citation_counts(net, params.attention_years);
    let mut attention = workspace.take_zeros(n);
    scaled_attention_into(&counts, params.beta(), &mut attention);
    let mut recency = workspace.take_zeros(n);
    recency_into(net, params.decay_w, &mut recency);
    recency.scale(params.gamma());
    (attention, recency)
}

/// The AttRank ranking method.
///
/// Computes the fixed point of
///
/// ```text
/// AR(p_i) = α · Σ_j S[i,j]·AR(p_j) + β·A(p_i) + γ·T(p_i)
/// ```
///
/// via power iteration. Theorem 1 guarantees convergence: the recurrence is
/// a power method on the stochastic matrix
/// `R[i,j] = α·S[i,j] + β·A(p_i) + γ·T(p_i)`, which is irreducible and
/// aperiodic because `T > 0` links every paper to every other.
///
/// The special cases the paper studies are plain parameter choices:
/// `β = 0` is NO-ATT, `β = 1` is ATT-ONLY (closed-form: `AR = A`, a single
/// "iteration"), and `β = 0, w = 0` recovers PageRank.
#[derive(Debug, Clone)]
pub struct AttRank {
    params: AttRankParams,
    options: PowerOptions,
}

/// Convergence diagnostics from a scoring run (feeds the §4.4 experiment).
#[derive(Debug, Clone)]
pub struct AttRankDiagnostics {
    /// Final scores.
    pub scores: ScoreVec,
    /// Iterations executed.
    pub iterations: usize,
    /// Whether the L1 error dropped below the configured epsilon.
    pub converged: bool,
    /// Final L1 error.
    pub final_error: f64,
    /// Per-iteration L1 errors (when error recording is enabled).
    pub error_log: Vec<f64>,
}

impl From<PowerOutcome> for AttRankDiagnostics {
    fn from(o: PowerOutcome) -> Self {
        Self {
            scores: o.scores,
            iterations: o.iterations,
            converged: o.converged,
            final_error: o.final_error,
            error_log: o.error_log,
        }
    }
}

impl AttRank {
    /// Creates the method with the paper's convergence defaults
    /// (`ε = 10⁻¹²`).
    pub fn new(params: AttRankParams) -> Self {
        Self {
            params,
            options: PowerOptions::default(),
        }
    }

    /// Overrides the power-method options (epsilon, iteration cap, error
    /// recording).
    pub fn with_options(params: AttRankParams, options: PowerOptions) -> Self {
        Self { params, options }
    }

    /// The configured parameters.
    pub fn params(&self) -> &AttRankParams {
        &self.params
    }

    /// Scores `net` and returns full convergence diagnostics.
    pub fn rank_with_diagnostics(&self, net: &CitationNetwork) -> AttRankDiagnostics {
        self.rank_with_diagnostics_in(net, &mut KernelWorkspace::new())
    }

    /// [`Self::rank_with_diagnostics`] drawing every scratch vector from
    /// `workspace` — the entry point grid searches use so repeated solves
    /// stop allocating.
    pub fn rank_with_diagnostics_in(
        &self,
        net: &CitationNetwork,
        workspace: &mut KernelWorkspace,
    ) -> AttRankDiagnostics {
        let n = net.n_papers();
        if n == 0 {
            return AttRankDiagnostics {
                scores: ScoreVec::zeros(0),
                iterations: 0,
                converged: true,
                final_error: 0.0,
                error_log: Vec::new(),
            };
        }
        let alpha = self.params.alpha();

        // The personalization β·A + γ·T is fixed across iterations.
        let jump = jump_vector(net, &self.params, workspace);

        if alpha == 0.0 {
            // Closed form: AR = β·A + γ·T in a single "iteration" (§4.4:
            // "the limit case α = 0 requiring a single iteration").
            return AttRankDiagnostics {
                scores: jump,
                iterations: 1,
                converged: true,
                final_error: 0.0,
                error_log: Vec::new(),
            };
        }

        let op = net.stochastic_operator();
        let engine = PowerEngine::new(self.options);
        let initial = workspace.take_uniform(n);
        // Eq. 4 as one fused sweep: next = α·S·cur + (β·A + γ·T).
        let outcome = engine.run_with(workspace, initial, |cur, next| {
            op.apply_damped(alpha, cur.as_slice(), jump.as_slice(), next.as_mut_slice());
        });
        workspace.recycle(jump);
        outcome.into()
    }
}

impl Ranker for AttRank {
    fn name(&self) -> &str {
        if self.params.is_att_only() {
            "ATT-ONLY"
        } else if self.params.is_no_att() {
            "NO-ATT"
        } else {
            "AR"
        }
    }

    fn rank(&self, net: &CitationNetwork) -> ScoreVec {
        self.rank_with_diagnostics(net).scores
    }

    fn rank_into(&self, net: &CitationNetwork, workspace: &mut KernelWorkspace) -> ScoreVec {
        self.rank_with_diagnostics_in(net, workspace).scores
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use citegraph::NetworkBuilder;

    /// Hot-vs-stale fixture: `old` has 3 ancient citations, `hot` has 2
    /// recent ones.
    fn hot_vs_stale() -> (CitationNetwork, u32, u32) {
        let mut b = NetworkBuilder::new();
        let old = b.add_paper(1990);
        for y in [1991, 1992, 1993] {
            let p = b.add_paper(y);
            b.add_citation(p, old).unwrap();
        }
        let hot = b.add_paper(2017);
        let r1 = b.add_paper(2019);
        let r2 = b.add_paper(2020);
        b.add_citation(r1, hot).unwrap();
        b.add_citation(r2, hot).unwrap();
        (b.build().unwrap(), old, hot)
    }

    fn params(alpha: f64, beta: f64) -> AttRankParams {
        AttRankParams::new(alpha, beta, 3, -0.16).unwrap()
    }

    #[test]
    fn scores_form_probability_vector() {
        let (net, _, _) = hot_vs_stale();
        let d = AttRank::new(params(0.3, 0.4)).rank_with_diagnostics(&net);
        assert!(d.converged);
        assert!((d.scores.sum() - 1.0).abs() < 1e-9);
        assert!(d.scores.iter().all(|&s| s > 0.0), "T>0 ⇒ all scores > 0");
    }

    #[test]
    fn attention_promotes_recently_cited_paper() {
        let (net, old, hot) = hot_vs_stale();
        let scores = AttRank::new(params(0.2, 0.5)).rank(&net);
        assert!(scores[hot as usize] > scores[old as usize]);
    }

    #[test]
    fn no_att_with_zero_decay_recovers_pagerank() {
        let (net, _, _) = hot_vs_stale();
        let ar = AttRank::new(AttRankParams::pagerank(0.5).unwrap()).rank(&net);
        // Reference PageRank computed directly.
        let n = net.n_papers();
        let op = net.stochastic_operator();
        let engine = PowerEngine::new(PowerOptions::default());
        let pr = engine.run(ScoreVec::uniform(n), |cur, next| {
            op.apply(cur.as_slice(), next.as_mut_slice());
            for v in next.iter_mut() {
                *v = 0.5 * *v + 0.5 / n as f64;
            }
        });
        for i in 0..n {
            assert!(
                (ar[i] - pr.scores[i]).abs() < 1e-10,
                "component {i}: {} vs {}",
                ar[i],
                pr.scores[i]
            );
        }
    }

    #[test]
    fn att_only_equals_attention_vector() {
        let (net, _, _) = hot_vs_stale();
        let d = AttRank::new(AttRankParams::att_only(3).unwrap()).rank_with_diagnostics(&net);
        assert_eq!(d.iterations, 1, "α=0 is a single iteration");
        let a = attention_vector(&net, 3);
        for i in 0..net.n_papers() {
            assert!((d.scores[i] - a[i]).abs() < 1e-15);
        }
    }

    #[test]
    fn alpha_zero_closed_form_matches_iterated_solution() {
        // Sanity-check the α=0 shortcut against running the full fixed
        // point with a tiny α.
        let (net, _, _) = hot_vs_stale();
        let closed = AttRank::new(params(0.0, 0.4)).rank(&net);
        let almost = AttRank::new(AttRankParams::new(1e-9, 0.4, 3, -0.16).unwrap()).rank(&net);
        for i in 0..net.n_papers() {
            assert!((closed[i] - almost[i]).abs() < 1e-6);
        }
    }

    #[test]
    fn converges_within_paper_iteration_budget() {
        // §4.4: < 30 iterations at α = 0.5, ε = 1e-12 on real datasets;
        // a small dense fixture should be far under that.
        let (net, _, _) = hot_vs_stale();
        let d = AttRank::new(params(0.5, 0.3)).rank_with_diagnostics(&net);
        assert!(d.converged);
        assert!(d.iterations < 60, "iterations = {}", d.iterations);
    }

    #[test]
    fn smaller_alpha_converges_faster() {
        let (net, _, _) = hot_vs_stale();
        let fast = AttRank::new(params(0.1, 0.4)).rank_with_diagnostics(&net);
        let slow = AttRank::new(params(0.5, 0.4)).rank_with_diagnostics(&net);
        assert!(
            fast.iterations <= slow.iterations,
            "α=0.1 took {} vs α=0.5 {}",
            fast.iterations,
            slow.iterations
        );
    }

    #[test]
    fn error_log_recorded_when_requested() {
        let (net, _, _) = hot_vs_stale();
        let method = AttRank::with_options(
            params(0.4, 0.3),
            PowerOptions {
                epsilon: 1e-12,
                max_iterations: 500,
                record_errors: true,
            },
        );
        let d = method.rank_with_diagnostics(&net);
        assert_eq!(d.error_log.len(), d.iterations);
        assert!(d.error_log.last().unwrap() <= &1e-12);
    }

    #[test]
    fn empty_network_trivially_converges() {
        let net = NetworkBuilder::new().build().unwrap();
        let d = AttRank::new(params(0.3, 0.3)).rank_with_diagnostics(&net);
        assert!(d.converged);
        assert!(d.scores.is_empty());
    }

    #[test]
    fn ranker_names_reflect_ablations() {
        assert_eq!(AttRank::new(params(0.3, 0.4)).name(), "AR");
        assert_eq!(
            AttRank::new(AttRankParams::no_att(0.3, 1, -0.1).unwrap()).name(),
            "NO-ATT"
        );
        assert_eq!(
            AttRank::new(AttRankParams::att_only(2).unwrap()).name(),
            "ATT-ONLY"
        );
    }

    #[test]
    fn deterministic_scoring() {
        let (net, _, _) = hot_vs_stale();
        let a = AttRank::new(params(0.3, 0.4)).rank(&net);
        let b = AttRank::new(params(0.3, 0.4)).rank(&net);
        assert_eq!(a, b);
    }
}
