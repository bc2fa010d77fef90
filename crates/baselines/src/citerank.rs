//! CiteRank (Walker, Xie, Yan, Maslov — J. Stat. Mech. 2007).
//!
//! CiteRank models "traffic" towards papers from researchers who *start*
//! reading at a recent paper and then follow references. The starting
//! distribution decays exponentially with paper age,
//! `ρ_i ∝ e^{−age_i / τ_dir}`, and traffic accumulates along citation
//! chains damped by the follow probability `α`:
//!
//! ```text
//! T = ρ + α·W·ρ + α²·W²·ρ + …   ⇔   T = ρ + α·W·T
//! ```
//!
//! where `W[i,j] = 1/k_j` if `j` cites `i` (dangling mass leaks, per the
//! original definition — researchers simply stop). The geometric series
//! converges for any `α ∈ (0,1)` because `‖αW‖₁ ≤ α < 1`.

use citegraph::{CitationNetwork, Ranker};
use sparsela::{KernelWorkspace, PowerEngine, PowerOptions, PowerOutcome, ScoreVec};

/// CiteRank with follow probability `alpha` and aging factor `tau_dir`.
#[derive(Debug, Clone, Copy)]
pub struct CiteRank {
    /// Probability of following a reference from the current paper.
    pub alpha: f64,
    /// Characteristic decay time (years) of the starting distribution;
    /// the original work tunes it in `(0, ∞)` and finds optima between 1
    /// and 8 years depending on the corpus.
    pub tau_dir: f64,
    /// Power-method options.
    pub options: PowerOptions,
}

impl CiteRank {
    /// Creates CiteRank.
    ///
    /// # Panics
    /// Panics unless `0 < alpha < 1` and `tau_dir > 0`.
    pub fn new(alpha: f64, tau_dir: f64) -> Self {
        assert!(alpha > 0.0 && alpha < 1.0, "alpha {alpha} outside (0,1)");
        assert!(tau_dir > 0.0, "tau_dir {tau_dir} must be positive");
        Self {
            alpha,
            tau_dir,
            options: PowerOptions::default(),
        }
    }

    /// The normalized starting distribution `ρ`.
    pub fn start_distribution(&self, net: &CitationNetwork) -> ScoreVec {
        let n = net.n_papers();
        let Some(t_n) = net.current_year() else {
            return ScoreVec::zeros(0);
        };
        let mut rho = ScoreVec::zeros(n);
        for p in 0..n {
            let age = (t_n - net.years()[p]) as f64;
            rho[p] = (-age / self.tau_dir).exp();
        }
        rho.normalize_l1();
        rho
    }

    /// Scores with convergence diagnostics.
    pub fn rank_with_diagnostics(&self, net: &CitationNetwork) -> PowerOutcome {
        self.rank_with_diagnostics_in(net, &mut KernelWorkspace::new())
    }

    /// [`Self::rank_with_diagnostics`] drawing scratch from `workspace`.
    pub fn rank_with_diagnostics_in(
        &self,
        net: &CitationNetwork,
        workspace: &mut KernelWorkspace,
    ) -> PowerOutcome {
        let n = net.n_papers();
        if n == 0 {
            return PowerEngine::new(self.options).run(ScoreVec::zeros(0), |_, _| {});
        }
        let rho = self.start_distribution(net);
        let op = net.stochastic_operator();
        let alpha = self.alpha;
        let initial = workspace.take_copy(rho.as_slice());
        // T ← ρ + α·W·T with leaky dangling handling (original model),
        // fused into one sweep. The closure borrows `ρ` so it can be
        // recycled after the solve.
        let rho_ref = &rho;
        let outcome = PowerEngine::new(self.options).run_with(workspace, initial, |cur, next| {
            op.apply_damped_leaky(
                alpha,
                cur.as_slice(),
                rho_ref.as_slice(),
                next.as_mut_slice(),
            );
        });
        workspace.recycle(rho);
        outcome
    }
}

impl Ranker for CiteRank {
    fn name(&self) -> &str {
        "CR"
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

    fn two_generations() -> CitationNetwork {
        // Old classic (1990) heavily cited long ago; recent paper (2019)
        // cited once by the newest paper.
        let mut b = NetworkBuilder::new();
        let classic = b.add_paper(1990);
        for y in [1991, 1992, 1993, 1994] {
            let p = b.add_paper(y);
            b.add_citation(p, classic).unwrap();
        }
        let recent = b.add_paper(2019);
        let newest = b.add_paper(2020);
        b.add_citation(newest, recent).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn converges_and_is_finite() {
        let net = two_generations();
        let out = CiteRank::new(0.5, 2.0).rank_with_diagnostics(&net);
        assert!(out.converged);
        assert!(out.scores.all_finite());
    }

    #[test]
    fn short_tau_favors_recent_papers() {
        let net = two_generations();
        let s = CiteRank::new(0.3, 1.0).rank(&net);
        // With τ=1 the start mass concentrates on 2019/2020 papers, so the
        // recent paper out-ranks the long-cold classic.
        assert!(s[5] > s[0], "recent {} must beat classic {}", s[5], s[0]);
    }

    #[test]
    fn long_tau_approaches_age_blindness() {
        let net = two_generations();
        let s = CiteRank::new(0.5, 1e6).rank(&net);
        // With τ→∞, ρ is uniform and the classic's 4 citations dominate.
        assert!(s[0] > s[5]);
    }

    #[test]
    fn start_distribution_is_probability() {
        let net = two_generations();
        let rho = CiteRank::new(0.5, 2.6).start_distribution(&net);
        assert!((rho.sum() - 1.0).abs() < 1e-12);
        // Newest paper gets the largest start mass.
        assert_eq!(rho.top_k(1), vec![6]);
    }

    #[test]
    fn traffic_exceeds_start_mass_for_cited_papers() {
        let net = two_generations();
        let cr = CiteRank::new(0.5, 2.0);
        let rho = cr.start_distribution(&net);
        let t = cr.rank(&net);
        // Cited papers accumulate traffic on top of their own start mass.
        assert!(t[0] > rho[0]);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn invalid_alpha_panics() {
        let _ = CiteRank::new(1.0, 2.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn invalid_tau_panics() {
        let _ = CiteRank::new(0.5, 0.0);
    }

    #[test]
    fn empty_network() {
        let net = NetworkBuilder::new().build().unwrap();
        assert!(CiteRank::new(0.5, 1.0).rank(&net).is_empty());
    }
}
