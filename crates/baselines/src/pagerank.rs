//! Plain PageRank (Page et al. 1999) on the citation network.
//!
//! The paper's Eq. 1: `PR = α·S·PR + (1−α)·(1/|P|)`. Included both as a
//! baseline and as the reference implementation the AttRank special case
//! (`β = 0, w = 0`) is tested against. Citation-analysis work commonly uses
//! `α = 0.5` (Chen et al. 2007), the default here.
//!
//! This is the reproduction's power iteration. Eq. 1's fixed point is
//! `(1−α)·u`, `u` the uniform kernel `(I − α·S)⁻¹·(1/n)·1`, and the
//! serving engine ranks `pagerank` that way: one push pass
//! ([`citegraph::uniform_kernel`]) and push updates across deltas
//! ([`citegraph::update_uniform_kernel`]), pinned within 1e-9 of this
//! solve.

use citegraph::{CitationNetwork, Ranker};
use sparsela::{KernelWorkspace, PowerEngine, PowerOptions, ScoreVec};

/// PageRank with damping `alpha`.
#[derive(Debug, Clone, Copy)]
pub struct PageRank {
    /// Probability of following a reference (damping factor).
    pub alpha: f64,
    /// Power-method options.
    pub options: PowerOptions,
}

impl PageRank {
    /// Creates PageRank with the citation-analysis default `α = 0.5`.
    pub fn default_citation() -> Self {
        Self::new(0.5)
    }

    /// Creates PageRank with the given damping factor.
    ///
    /// # Panics
    /// Panics unless `0 ≤ alpha < 1`.
    pub fn new(alpha: f64) -> Self {
        assert!((0.0..1.0).contains(&alpha), "alpha {alpha} outside [0,1)");
        Self {
            alpha,
            options: PowerOptions::default(),
        }
    }

    /// Scores with convergence diagnostics.
    pub fn rank_with_diagnostics(&self, net: &CitationNetwork) -> sparsela::PowerOutcome {
        self.rank_with_diagnostics_in(net, &mut KernelWorkspace::new())
    }

    /// [`Self::rank_with_diagnostics`] drawing scratch from `workspace`.
    pub fn rank_with_diagnostics_in(
        &self,
        net: &CitationNetwork,
        workspace: &mut KernelWorkspace,
    ) -> sparsela::PowerOutcome {
        let n = net.n_papers();
        if n == 0 {
            return PowerEngine::new(self.options).run(ScoreVec::zeros(0), |_, _| {});
        }
        let op = net.stochastic_operator();
        let alpha = self.alpha;
        let teleport = (1.0 - alpha) / n as f64;
        let initial = workspace.take_uniform(n);
        // Eq. 1 as one fused sweep: next = α·S·cur + (1−α)/n.
        PowerEngine::new(self.options).run_with(workspace, initial, move |cur, next| {
            op.apply_damped_uniform(alpha, cur.as_slice(), teleport, next.as_mut_slice());
        })
    }
}

impl Ranker for PageRank {
    fn name(&self) -> &str {
        "PR"
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

    fn triangle_with_sink() -> CitationNetwork {
        // 1→0, 2→{0,1}, 3→{2}: paper 0 should rank highest.
        let mut b = NetworkBuilder::new();
        for y in [2000, 2001, 2002, 2003] {
            b.add_paper(y);
        }
        for (c, d) in [(1, 0), (2, 0), (2, 1), (3, 2)] {
            b.add_citation(c, d).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn sums_to_one_and_converges() {
        let net = triangle_with_sink();
        let out = PageRank::new(0.85).rank_with_diagnostics(&net);
        assert!(out.converged);
        assert!((out.scores.sum() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn most_cited_paper_wins_here() {
        let net = triangle_with_sink();
        let s = PageRank::default_citation().rank(&net);
        assert_eq!(s.top_k(1), vec![0]);
    }

    #[test]
    fn alpha_zero_is_uniform() {
        let net = triangle_with_sink();
        let s = PageRank::new(0.0).rank(&net);
        for &v in s.iter() {
            assert!((v - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn invalid_alpha_panics() {
        let _ = PageRank::new(1.0);
    }

    #[test]
    fn empty_network() {
        let net = NetworkBuilder::new().build().unwrap();
        assert!(PageRank::new(0.5).rank(&net).is_empty());
    }
}
