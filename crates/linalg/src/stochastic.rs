//! The column-stochastic citation operator `S` (paper §2).
//!
//! For a citation matrix `C` (where `C[i,j] = 1` iff paper `j` cites paper
//! `i`) the paper defines the stochastic matrix `S` used by PageRank and
//! AttRank as:
//!
//! * `S[i,j] = 1/k_j` if `j` cites `i` (where `k_j` is `j`'s reference
//!   count),
//! * `S[i,j] = 0` if `j` cites other papers but not `i`,
//! * `S[i,j] = 1/|P|` if `j` is *dangling* (cites no paper at all).
//!
//! [`CitationOperator`] materializes the action `y = S·x` without building
//! `S` explicitly: scores are *pulled* along in-citation adjacency with the
//! citing paper's out-degree reciprocal, and the total mass held by dangling
//! papers is redistributed uniformly. This keeps the operator `O(V + E)` per
//! application and `S` exactly column-stochastic, so `Σ y = Σ x` for
//! probability vectors (a property the tests pin down).
//!
//! Applications run in parallel over a degree-balanced row partition (see
//! [`crate::parallel`]); per-row accumulation stays sequential, so scores
//! are bit-identical for every thread count. The fused entry points
//! ([`CitationOperator::apply_damped`] and friends) fold the damped
//! fixed-point update `y = α·S·x + jump` into the same sweep, removing the
//! second full pass over `y` that every PageRank-family step used to pay.

use crate::csr::Csr;
use crate::parallel;

/// Matrix-free application of the column-stochastic citation matrix `S`.
#[derive(Debug, Clone)]
pub struct CitationOperator {
    /// Row `i` lists the papers citing `i` ("in-citations").
    citers: Csr,
    /// `1 / out_degree` per paper; `0.0` for dangling papers (their
    /// contribution is handled by the dangling-mass path instead).
    inv_out_degree: Vec<f64>,
    /// Papers with zero references.
    dangling: Vec<u32>,
}

impl CitationOperator {
    /// Builds the operator from the *reference* adjacency (row `j` lists the
    /// papers that `j` cites).
    pub fn from_references(references: &Csr) -> Self {
        let n = references.nrows();
        assert_eq!(n, references.ncols(), "citation matrix must be square");
        let mut inv_out_degree = vec![0.0; n];
        let mut dangling = Vec::new();
        for j in 0..n as u32 {
            let d = references.degree(j);
            if d == 0 {
                dangling.push(j);
            } else {
                inv_out_degree[j as usize] = 1.0 / d as f64;
            }
        }
        Self {
            citers: references.transpose(),
            inv_out_degree,
            dangling,
        }
    }

    /// Builds the operator directly from the in-citation adjacency (row `i`
    /// lists papers citing `i`) plus the out-degree of every paper.
    ///
    /// This avoids a transpose when the caller already stores in-citations.
    pub fn from_citers(citers: Csr, out_degrees: &[usize]) -> Self {
        let n = citers.nrows();
        assert_eq!(n, citers.ncols(), "citation matrix must be square");
        assert_eq!(n, out_degrees.len(), "out-degree vector length mismatch");
        let mut inv_out_degree = vec![0.0; n];
        let mut dangling = Vec::new();
        for (j, &d) in out_degrees.iter().enumerate() {
            if d == 0 {
                dangling.push(j as u32);
            } else {
                inv_out_degree[j] = 1.0 / d as f64;
            }
        }
        Self {
            citers,
            inv_out_degree,
            dangling,
        }
    }

    /// Number of papers.
    pub fn n(&self) -> usize {
        self.citers.nrows()
    }

    /// Number of dangling papers (zero references).
    pub fn dangling_count(&self) -> usize {
        self.dangling.len()
    }

    /// Applies `y = S · x`.
    ///
    /// # Panics
    /// Panics if `x` or `y` length differs from [`Self::n`].
    pub fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.apply_with_threads(self.auto_threads(), x, y);
    }

    /// [`Self::apply`] with an explicit thread count (results are
    /// bit-identical for every count).
    pub fn apply_with_threads(&self, threads: usize, x: &[f64], y: &mut [f64]) {
        let n = self.n();
        assert_eq!(x.len(), n, "apply: x length mismatch");
        assert_eq!(y.len(), n, "apply: y length mismatch");
        if n == 0 {
            return;
        }
        // Mass held by dangling papers spreads uniformly (S[:,j] = 1/n).
        let base = self.dangling_base(x);
        self.pull_rows(threads, y, move |acc| base + acc, x);
    }

    /// Applies `y = S · x` but drops the dangling-mass redistribution.
    ///
    /// CiteRank (Walker et al. 2007) defines its propagation on the raw
    /// `1/k_j` matrix where dangling mass simply leaks; this entry point
    /// supports that variant.
    pub fn apply_leaky(&self, x: &[f64], y: &mut [f64]) {
        self.apply_leaky_with_threads(self.auto_threads(), x, y);
    }

    /// [`Self::apply_leaky`] with an explicit thread count.
    pub fn apply_leaky_with_threads(&self, threads: usize, x: &[f64], y: &mut [f64]) {
        let n = self.n();
        assert_eq!(x.len(), n, "apply_leaky: x length mismatch");
        assert_eq!(y.len(), n, "apply_leaky: y length mismatch");
        self.pull_rows(threads, y, |acc| acc, x);
    }

    /// Fused damped step `y = α·(S·x) + jump` — one sweep instead of an
    /// apply followed by a dense rescale. This is the inner loop of AttRank
    /// (Eq. 4: `jump = β·A + γ·T`) and of PageRank when `jump` is constant
    /// (see [`Self::apply_damped_uniform`]).
    ///
    /// # Panics
    /// Panics if `x`, `jump` or `y` length differs from [`Self::n`].
    pub fn apply_damped(&self, alpha: f64, x: &[f64], jump: &[f64], y: &mut [f64]) {
        self.apply_damped_with_threads(self.auto_threads(), alpha, x, jump, y);
    }

    /// [`Self::apply_damped`] with an explicit thread count.
    pub fn apply_damped_with_threads(
        &self,
        threads: usize,
        alpha: f64,
        x: &[f64],
        jump: &[f64],
        y: &mut [f64],
    ) {
        let n = self.n();
        assert_eq!(x.len(), n, "apply_damped: x length mismatch");
        assert_eq!(jump.len(), n, "apply_damped: jump length mismatch");
        assert_eq!(y.len(), n, "apply_damped: y length mismatch");
        if n == 0 {
            return;
        }
        let base = self.dangling_base(x);
        self.pull_rows_indexed(
            threads,
            y,
            move |i, acc, jump| alpha * (base + acc) + jump[i],
            x,
            jump,
        );
    }

    /// Fused damped step with a uniform jump: `y = α·(S·x) + teleport`
    /// (plain PageRank, Eq. 1).
    pub fn apply_damped_uniform(&self, alpha: f64, x: &[f64], teleport: f64, y: &mut [f64]) {
        self.apply_damped_uniform_with_threads(self.auto_threads(), alpha, x, teleport, y);
    }

    /// [`Self::apply_damped_uniform`] with an explicit thread count.
    pub fn apply_damped_uniform_with_threads(
        &self,
        threads: usize,
        alpha: f64,
        x: &[f64],
        teleport: f64,
        y: &mut [f64],
    ) {
        let n = self.n();
        assert_eq!(x.len(), n, "apply_damped_uniform: x length mismatch");
        assert_eq!(y.len(), n, "apply_damped_uniform: y length mismatch");
        if n == 0 {
            return;
        }
        let base = self.dangling_base(x);
        self.pull_rows(threads, y, move |acc| alpha * (base + acc) + teleport, x);
    }

    /// Fused leaky damped step `y = jump + α·(W·x)` where `W` drops the
    /// dangling mass (the CiteRank recurrence `T ← ρ + α·W·T`).
    ///
    /// # Panics
    /// Panics if `x`, `jump` or `y` length differs from [`Self::n`].
    pub fn apply_damped_leaky(&self, alpha: f64, x: &[f64], jump: &[f64], y: &mut [f64]) {
        self.apply_damped_leaky_with_threads(self.auto_threads(), alpha, x, jump, y);
    }

    /// [`Self::apply_damped_leaky`] with an explicit thread count.
    pub fn apply_damped_leaky_with_threads(
        &self,
        threads: usize,
        alpha: f64,
        x: &[f64],
        jump: &[f64],
        y: &mut [f64],
    ) {
        let n = self.n();
        assert_eq!(x.len(), n, "apply_damped_leaky: x length mismatch");
        assert_eq!(jump.len(), n, "apply_damped_leaky: jump length mismatch");
        assert_eq!(y.len(), n, "apply_damped_leaky: y length mismatch");
        self.pull_rows_indexed(
            threads,
            y,
            move |i, acc, jump| jump[i] + alpha * acc,
            x,
            jump,
        );
    }

    /// Auto thread count for this operator's work size.
    #[inline]
    fn auto_threads(&self) -> usize {
        parallel::auto_threads(self.citers.nnz() + self.n())
    }

    /// Mass held by dangling papers, spread uniformly per paper.
    #[inline]
    fn dangling_base(&self, x: &[f64]) -> f64 {
        let dangling_mass: f64 = self.dangling.iter().map(|&j| x[j as usize]).sum();
        dangling_mass / self.n() as f64
    }

    /// Shared pull loop: `y[i] = finish(Σ_j x[j]/k_j)` over row `i`'s citers.
    #[inline]
    fn pull_rows<F>(&self, threads: usize, y: &mut [f64], finish: F, x: &[f64])
    where
        F: Fn(f64) -> f64 + Sync,
    {
        let citers = &self.citers;
        let inv = &self.inv_out_degree;
        parallel::for_each_row_chunk(citers.indptr(), threads, y, |rows, chunk| {
            for (i, yi) in rows.clone().zip(chunk.iter_mut()) {
                let mut acc = 0.0;
                for &j in citers.row(i as u32) {
                    acc += x[j as usize] * inv[j as usize];
                }
                *yi = finish(acc);
            }
        });
    }

    /// Pull loop variant passing the row index and jump vector through.
    #[inline]
    fn pull_rows_indexed<F>(
        &self,
        threads: usize,
        y: &mut [f64],
        finish: F,
        x: &[f64],
        jump: &[f64],
    ) where
        F: Fn(usize, f64, &[f64]) -> f64 + Sync,
    {
        let citers = &self.citers;
        let inv = &self.inv_out_degree;
        parallel::for_each_row_chunk(citers.indptr(), threads, y, |rows, chunk| {
            for (i, yi) in rows.clone().zip(chunk.iter_mut()) {
                let mut acc = 0.0;
                for &j in citers.row(i as u32) {
                    acc += x[j as usize] * inv[j as usize];
                }
                *yi = finish(i, acc, jump);
            }
        });
    }

    /// The in-citation adjacency backing this operator.
    pub fn citers(&self) -> &Csr {
        &self.citers
    }

    /// Heap bytes held: the in-citation adjacency, the reciprocal
    /// out-degrees and the dangling list.
    pub fn heap_bytes(&self) -> usize {
        self.citers.heap_bytes()
            + self.inv_out_degree.capacity() * std::mem::size_of::<f64>()
            + self.dangling.capacity() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::ScoreVec;

    /// 3-paper chain: 1 cites 0, 2 cites {0,1}; paper 0 is dangling.
    fn chain() -> CitationOperator {
        let refs = Csr::from_edges(3, 3, &[(1, 0), (2, 0), (2, 1)]);
        CitationOperator::from_references(&refs)
    }

    #[test]
    fn apply_matches_hand_computation() {
        let op = chain();
        let x = [1.0 / 3.0; 3];
        let mut y = [0.0; 3];
        op.apply(&x, &mut y);
        // Dangling mass = x[0] = 1/3 → base = 1/9 per paper.
        // y[0] = base + x[1]/1 + x[2]/2 = 1/9 + 1/3 + 1/6
        // y[1] = base + x[2]/2       = 1/9 + 1/6
        // y[2] = base                = 1/9
        assert!((y[0] - (1.0 / 9.0 + 1.0 / 3.0 + 1.0 / 6.0)).abs() < 1e-15);
        assert!((y[1] - (1.0 / 9.0 + 1.0 / 6.0)).abs() < 1e-15);
        assert!((y[2] - 1.0 / 9.0).abs() < 1e-15);
    }

    #[test]
    fn apply_preserves_probability_mass() {
        let op = chain();
        let x = [0.2, 0.3, 0.5];
        let mut y = [0.0; 3];
        op.apply(&x, &mut y);
        let sum: f64 = y.iter().sum();
        assert!((sum - 1.0).abs() < 1e-14, "S must be column-stochastic");
    }

    #[test]
    fn apply_leaky_drops_dangling_mass() {
        let op = chain();
        let x = [0.2, 0.3, 0.5];
        let mut y = [0.0; 3];
        op.apply_leaky(&x, &mut y);
        let sum: f64 = y.iter().sum();
        // The 0.2 on dangling paper 0 leaks away.
        assert!((sum - 0.8).abs() < 1e-14);
    }

    #[test]
    fn dangling_count() {
        let op = chain();
        assert_eq!(op.dangling_count(), 1);
        assert_eq!(op.n(), 3);
    }

    #[test]
    fn all_dangling_spreads_uniformly() {
        let refs = Csr::empty(4, 4);
        let op = CitationOperator::from_references(&refs);
        let x = [0.25; 4];
        let mut y = [0.0; 4];
        op.apply(&x, &mut y);
        for &v in &y {
            assert!((v - 0.25).abs() < 1e-15);
        }
    }

    #[test]
    fn from_citers_equivalent_to_from_references() {
        let refs = Csr::from_edges(3, 3, &[(1, 0), (2, 0), (2, 1)]);
        let a = CitationOperator::from_references(&refs);
        let b = CitationOperator::from_citers(refs.transpose(), &refs.degrees());
        let x = [0.1, 0.5, 0.4];
        let (mut ya, mut yb) = ([0.0; 3], [0.0; 3]);
        a.apply(&x, &mut ya);
        b.apply(&x, &mut yb);
        assert_eq!(ya, yb);
    }

    #[test]
    fn empty_operator_is_noop() {
        let op = CitationOperator::from_references(&Csr::empty(0, 0));
        let x: [f64; 0] = [];
        let mut y: [f64; 0] = [];
        op.apply(&x, &mut y);
    }

    #[test]
    fn repeated_application_converges_to_stationary_like_vector() {
        // Power-iterating S alone (no teleport) on a strongly-mixed small
        // graph: mass must remain 1 every step.
        let refs = Csr::from_edges(4, 4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)]);
        let op = CitationOperator::from_references(&refs);
        let mut x = ScoreVec::uniform(4);
        let mut y = ScoreVec::zeros(4);
        for _ in 0..50 {
            op.apply(&x, y.as_mut_slice());
            std::mem::swap(&mut x, &mut y);
            assert!((x.sum() - 1.0).abs() < 1e-12);
        }
    }
}
