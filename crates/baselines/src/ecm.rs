//! Effective Contagion Matrix (Ghosh, Kuo, Hsu, Lin, Lerman — ICDMW 2011).
//!
//! ECM generalizes RAM from direct citations to *citation chains*: a
//! length-`k` chain ending at paper `i` contributes `α^{k−1}` times the
//! product of its age-weighted edges. With the age-weighted adjacency
//! `M[i,j] = γ^{t_N − t_j}` (for `j` citing `i`), the score vector is
//!
//! ```text
//! s = Σ_{k≥1} α^{k−1} · Mᵏ · 1   ⇔   s = M·1 + α·M·s
//! ```
//!
//! — Katz centrality seeded by the weighted in-degree. The series
//! converges iff `α · ρ(M) < 1`; the paper's tuning grid (Table 4) keeps
//! `α ≤ 0.5` and notes that non-convergent ranges were excluded. The
//! implementation caps iterations and reports divergence through
//! [`sparsela::PowerOutcome::converged`] so the tuner can skip such
//! settings the same way.

use citegraph::{CitationNetwork, Ranker};
use sparsela::{KernelWorkspace, PowerEngine, PowerOptions, PowerOutcome, ScoreVec, WeightedCsr};

/// ECM with chain damping `alpha` and age retention `gamma`.
#[derive(Debug, Clone, Copy)]
pub struct Ecm {
    /// Damping applied per extra chain hop, in `(0, 1)`.
    pub alpha: f64,
    /// Base of the exponential citation-age discount, in `(0, 1)`.
    pub gamma: f64,
    /// Iteration options (epsilon reused as the fixed-point tolerance).
    pub options: PowerOptions,
}

impl Ecm {
    /// Creates ECM.
    ///
    /// # Panics
    /// Panics unless both parameters lie in `(0, 1)`.
    pub fn new(alpha: f64, gamma: f64) -> Self {
        assert!(alpha > 0.0 && alpha < 1.0, "alpha {alpha} outside (0,1)");
        assert!(gamma > 0.0 && gamma < 1.0, "gamma {gamma} outside (0,1)");
        Self {
            alpha,
            gamma,
            options: PowerOptions {
                // Katz iterations on weighted counts converge linearly at
                // rate α·ρ(M); 500 iterations is ample for the grid range.
                max_iterations: 500,
                ..PowerOptions::default()
            },
        }
    }

    /// Builds the age-weighted adjacency `M[i,j] = γ^{t_N−t_j}` for `j`
    /// citing `i` (rows = cited papers, so `M·1` is the weighted in-degree
    /// and `M·s` propagates along chains).
    pub fn weighted_matrix(&self, net: &CitationNetwork) -> WeightedCsr {
        let n = net.n_papers();
        let t_n = net.current_year().unwrap_or(0);
        let mut triples = Vec::with_capacity(net.n_citations());
        for citing in 0..n as u32 {
            let w = self.gamma.powi(t_n - net.year(citing));
            for &cited in net.references(citing) {
                triples.push((cited, citing, w));
            }
        }
        WeightedCsr::from_triples(n, n, &triples)
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
        let m = self.weighted_matrix(net);
        let mut ones = workspace.take_zeros(n);
        ones.fill(1.0);
        let mut seed = workspace.take_zeros(n);
        m.mul_vec_into(ones.as_slice(), seed.as_mut_slice());
        workspace.recycle(ones);
        let alpha = self.alpha;
        let initial = workspace.take_copy(seed.as_slice());
        // s ← seed + α·M·s, fused into one sweep. The closure borrows
        // `seed` so it can be recycled after the solve.
        let seed_ref = &seed;
        let outcome = PowerEngine::new(self.options).run_with(workspace, initial, |cur, next| {
            m.mul_vec_damped_into(
                alpha,
                cur.as_slice(),
                seed_ref.as_slice(),
                next.as_mut_slice(),
            );
        });
        workspace.recycle(seed);
        outcome
    }
}

impl Ranker for Ecm {
    fn name(&self) -> &str {
        "ECM"
    }

    /// Returns NaN scores when the series failed to converge within the
    /// iteration cap, so grid searches skip the setting — mirroring the
    /// paper's exclusion of non-convergent parameter ranges (Table 4,
    /// footnote 7). Use [`rank_with_diagnostics`] for the raw iterate.
    ///
    /// [`rank_with_diagnostics`]: Self::rank_with_diagnostics
    fn rank(&self, net: &CitationNetwork) -> ScoreVec {
        let out = self.rank_with_diagnostics(net);
        if out.converged {
            out.scores
        } else {
            ScoreVec::from_vec(vec![f64::NAN; net.n_papers()])
        }
    }

    fn rank_into(&self, net: &CitationNetwork, workspace: &mut KernelWorkspace) -> ScoreVec {
        let out = self.rank_with_diagnostics_in(net, workspace);
        if out.converged {
            out.scores
        } else {
            workspace.recycle(out.scores);
            let mut nan = workspace.take_zeros(net.n_papers());
            nan.fill(f64::NAN);
            nan
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use citegraph::NetworkBuilder;

    /// Chain 3→2→1→0 with one paper per year 2000..=2003.
    fn chain() -> CitationNetwork {
        let mut b = NetworkBuilder::new();
        let ids: Vec<_> = (2000..2004).map(|y| b.add_paper(y)).collect();
        for w in ids.windows(2) {
            b.add_citation(w[1], w[0]).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn converges_on_dag() {
        let net = chain();
        let out = Ecm::new(0.3, 0.5).rank_with_diagnostics(&net);
        assert!(out.converged);
        assert!(out.scores.all_finite());
    }

    #[test]
    fn matches_series_expansion_on_chain() {
        // On the 4-chain, scores have a closed form:
        // M[i,i+1] = γ^{t_N - t_{i+1}}; t_N = 2003.
        let net = chain();
        let (alpha, gamma): (f64, f64) = (0.2, 0.5);
        let s = Ecm::new(alpha, gamma).rank(&net);
        let w = |citing_year: i32| gamma.powi(2003 - citing_year);
        // s3 = 0 (never cited).
        assert_eq!(s[3], 0.0);
        // s2 = w(2003)
        assert!((s[2] - w(2003)).abs() < 1e-12);
        // s1 = w(2002) + α·w(2002)·w(2003)
        let s1 = w(2002) + alpha * w(2002) * w(2003);
        assert!((s[1] - s1).abs() < 1e-12);
        // s0 = w(2001) + α·w(2001)·w(2002) + α²·w(2001)·w(2002)·w(2003)
        let s0 = w(2001) + alpha * w(2001) * w(2002) + alpha * alpha * w(2001) * w(2002) * w(2003);
        assert!((s[0] - s0).abs() < 1e-12);
    }

    #[test]
    fn chains_add_value_over_ram() {
        // ECM ≥ RAM seed everywhere; strictly greater where chains exist.
        let net = chain();
        let ecm = Ecm::new(0.3, 0.5);
        let seed = {
            let m = ecm.weighted_matrix(&net);
            let mut s = vec![0.0; 4];
            m.mul_vec_into(&[1.0; 4], &mut s);
            s
        };
        let s = ecm.rank(&net);
        for i in 0..4 {
            assert!(s[i] >= seed[i] - 1e-15);
        }
        assert!(s[0] > seed[0], "paper 0 heads a chain of length 3");
    }

    #[test]
    fn dag_guarantees_termination_even_at_high_alpha() {
        // On an acyclic graph the series is finite (chains have bounded
        // length), so even α close to 1 converges.
        let net = chain();
        let out = Ecm::new(0.95, 0.9).rank_with_diagnostics(&net);
        assert!(out.converged);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn invalid_params_panic() {
        let _ = Ecm::new(0.0, 0.5);
    }

    #[test]
    fn empty_network() {
        let net = NetworkBuilder::new().build().unwrap();
        assert!(Ecm::new(0.1, 0.3).rank(&net).is_empty());
    }
}
