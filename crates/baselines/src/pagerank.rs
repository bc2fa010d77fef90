//! Plain PageRank (Page et al. 1999) on the citation network.
//!
//! The paper's Eq. 1: `PR = α·S·PR + (1−α)·(1/|P|)`. Included both as a
//! baseline and as the reference implementation the AttRank special case
//! (`β = 0, w = 0`) is tested against. Citation-analysis work commonly uses
//! `α = 0.5` (Chen et al. 2007), the default here.

use citegraph::{
    try_push_lanes, CitationNetwork, DeltaRank, DeltaStrategy, GraphDelta, Personalization,
    PushLane, PushRankConfig, Ranker,
};
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

    /// Residual-push delta update against the uniform teleport
    /// personalization, on a pooled copy of `previous`; falls back to the
    /// full solve when the push is not worthwhile.
    fn rank_delta(
        &self,
        old: &CitationNetwork,
        delta: &GraphDelta,
        new: &CitationNetwork,
        previous: &ScoreVec,
        workspace: &mut KernelWorkspace,
    ) -> DeltaRank {
        let alpha = self.alpha;
        if alpha > 0.0 && old.n_papers() > 0 {
            let mut x = workspace.take_zeros(previous.len());
            x.copy_from_slice(previous);
            let mut r = workspace.take_zeros(new.n_papers()).into_vec();
            let lane = PushLane {
                x: &mut x,
                b_old: Personalization::Uniform((1.0 - alpha) / old.n_papers() as f64),
                b_new: Personalization::Uniform((1.0 - alpha) / new.n_papers() as f64),
            };
            let cfg = PushRankConfig::default();
            let pushed = try_push_lanes(old, delta, new, [lane], alpha, &cfg, &mut r);
            workspace.recycle(r.into());
            // PageRank is proportional to the uniform kernel itself
            // (`x* = (1−α)·u`), so deferred dangling mass resolves in
            // closed form, `x / (1 − g/(1−α))`, which needs the
            // denominator safely positive — no kernel cache needed.
            let denom = |g: f64| 1.0 - g * (1.0 / (1.0 - alpha));
            match pushed.filter(|o| denom(o.deferred[0]) > 0.5) {
                Some(outcome) => {
                    x.scale(1.0 / denom(outcome.deferred[0]));
                    return DeltaRank {
                        scores: x,
                        strategy: DeltaStrategy::Push {
                            pushes: outcome.pushes,
                            edge_work: outcome.edge_work + new.n_papers() as u64,
                        },
                    };
                }
                None => workspace.recycle(x),
            }
        }
        DeltaRank {
            scores: self.rank_into(new, workspace),
            strategy: DeltaStrategy::Full,
        }
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
    fn rank_delta_leaves_previous_alone() {
        // A 200-paper chain over 20 years; every tenth paper also cites 0.
        let mut b = NetworkBuilder::new();
        for i in 0..200u32 {
            b.add_paper(1990 + i as i32 / 10);
            if i > 0 {
                b.add_citation(i, i - 1).unwrap();
            }
            if i % 10 == 9 {
                b.add_citation(i, 0).unwrap();
            }
        }
        let net = b.build().unwrap();
        let mut d = GraphDelta::new();
        let p = (net.n_papers() + d.add_paper(2010)) as u32;
        d.add_citation(p, 0);
        d.add_citation(p, 150);
        let new = net.with_delta(&d).unwrap();
        let pr = PageRank::default_citation();
        let mut ws = KernelWorkspace::new();
        let bits = |v: &ScoreVec| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

        let prev = pr.rank(&net);
        let before = bits(&prev);
        let pushed = pr.rank_delta(&net, &d, &new, &prev, &mut ws);
        assert!(matches!(pushed.strategy, DeltaStrategy::Push { .. }));
        assert_eq!(bits(&prev), before, "a push leaves `previous` alone");
        let full = pr.rank(&new);
        for i in 0..new.n_papers() {
            assert!((pushed.scores[i] - full[i]).abs() < 1e-9, "paper {i}");
        }

        // A NaN passes the gates and fails the seeding, which has already
        // rescaled its lane: the lane is a copy.
        let mut nan = prev.clone();
        nan[3] = f64::NAN;
        let before = bits(&nan);
        let declined = pr.rank_delta(&net, &d, &new, &nan, &mut ws);
        assert_eq!(declined.strategy, DeltaStrategy::Full);
        assert_eq!(
            bits(&nan),
            before,
            "a declined push leaves `previous` alone"
        );
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
