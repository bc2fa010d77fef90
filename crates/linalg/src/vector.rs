//! Dense `f64` score vectors.
//!
//! [`ScoreVec`] is the currency of every ranking method in this workspace: a
//! length-`n` dense vector indexed by paper id. It deliberately exposes the
//! handful of operations the ranking literature needs (L1 normalization,
//! norms, uniform fill, axpy-style accumulation) instead of a general BLAS
//! facade.

use std::ops::{Deref, DerefMut, Index, IndexMut};

/// A dense vector of per-item scores.
///
/// Wraps a `Vec<f64>` and guarantees nothing about its contents beyond
/// length; normalization is explicit because different methods require
/// different invariants (PageRank-family vectors are probability vectors,
/// RAM/ECM scores are unnormalized accumulations).
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreVec {
    data: Vec<f64>,
}

impl ScoreVec {
    /// Creates a zero-filled vector of length `n`.
    pub fn zeros(n: usize) -> Self {
        Self { data: vec![0.0; n] }
    }

    /// Creates a vector of length `n` with every entry `1/n`.
    ///
    /// Returns an empty vector when `n == 0` (no panic), which propagates
    /// harmlessly through the power method.
    pub fn uniform(n: usize) -> Self {
        if n == 0 {
            return Self { data: Vec::new() };
        }
        Self {
            data: vec![1.0 / n as f64; n],
        }
    }

    /// Builds a vector from raw data.
    pub fn from_vec(data: Vec<f64>) -> Self {
        Self { data }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the vector has no entries.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the underlying slice.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the vector and returns the underlying storage.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f64 {
        // Kahan summation: grid searches compare vectors whose entries span
        // ~12 orders of magnitude, and naive summation loses enough precision
        // to perturb L1 normalization on million-entry vectors.
        let mut sum = 0.0f64;
        let mut c = 0.0f64;
        for &x in &self.data {
            let y = x - c;
            let t = sum + y;
            c = (t - sum) - y;
            sum = t;
        }
        sum
    }

    /// L1 distance to another vector of the same length.
    ///
    /// This is the convergence error used throughout the paper
    /// (`ε ≤ 10⁻¹²`, §4.3).
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn l1_distance(&self, other: &Self) -> f64 {
        assert_eq!(
            self.len(),
            other.len(),
            "l1_distance: length mismatch {} vs {}",
            self.len(),
            other.len()
        );
        let mut sum = 0.0f64;
        let mut c = 0.0f64;
        for (&a, &b) in self.data.iter().zip(&other.data) {
            let y = (a - b).abs() - c;
            let t = sum + y;
            c = (t - sum) - y;
            sum = t;
        }
        sum
    }

    /// Scales the vector so its entries sum to 1.
    ///
    /// No-op for an all-zero (or empty) vector: there is no meaningful
    /// probability vector to produce, and callers (e.g. attention on an
    /// empty citation window) rely on the all-zero vector passing through.
    pub fn normalize_l1(&mut self) {
        let s = self.sum();
        if s != 0.0 {
            let inv = 1.0 / s;
            for x in &mut self.data {
                *x *= inv;
            }
        }
    }

    /// Fills every entry with `value`.
    pub fn fill(&mut self, value: f64) {
        self.data.fill(value);
    }

    /// Grows to `n` entries, the new ones zero (or truncates to `n`).
    pub fn resize(&mut self, n: usize) {
        self.data.resize(n, 0.0);
    }

    /// `self ← self + alpha * other`.
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn axpy(&mut self, alpha: f64, other: &Self) {
        assert_eq!(self.len(), other.len(), "axpy: length mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// `self ← alpha * self`.
    pub fn scale(&mut self, alpha: f64) {
        for x in &mut self.data {
            *x *= alpha;
        }
    }

    /// Dot product with another vector of the same length.
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn dot(&self, other: &Self) -> f64 {
        assert_eq!(self.len(), other.len(), "dot: length mismatch");
        self.data.iter().zip(&other.data).map(|(a, b)| a * b).sum()
    }

    /// `true` iff every entry is finite (no NaN/±∞).
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Indices of the `k` largest entries, in decreasing score order.
    ///
    /// Ties break by smaller index first so results are deterministic.
    /// Partial-selects (expected `O(n + k log k)`) instead of sorting all
    /// `n` entries — `top_k(10)` on a million-paper score vector does not
    /// pay for a million-element sort.
    pub fn top_k(&self, k: usize) -> Vec<u32> {
        crate::ranks::top_k_indices(&self.data, k)
    }
}

/// A reusable pool of dense score buffers.
///
/// Grid searches evaluate hundreds of parameter settings per dataset, and
/// every power-method solve used to allocate (at least) an initial vector,
/// a swap buffer and a jump vector. A `KernelWorkspace` keeps returned
/// buffers and hands them back on the next [`Self::take_zeros`], so a
/// worker thread's whole grid share runs on a handful of allocations.
///
/// The pool is deliberately dumb: buffers are plain `Vec<f64>` recycled
/// regardless of length (they are resized on reuse), and the pool is
/// bounded so a one-off giant solve cannot pin memory forever.
#[derive(Debug, Default)]
pub struct KernelWorkspace {
    pool: Vec<Vec<f64>>,
}

/// Cloning a workspace yields an empty one: pooled scratch is an
/// optimization, not state, and cloned owners should not share or copy it.
impl Clone for KernelWorkspace {
    fn clone(&self) -> Self {
        KernelWorkspace::new()
    }
}

/// Buffers retained per workspace; beyond this, [`KernelWorkspace::recycle`]
/// drops instead of pooling.
const WORKSPACE_POOL_CAP: usize = 16;

impl KernelWorkspace {
    /// Creates an empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Hands out a zero-filled vector of length `n`, reusing a pooled
    /// buffer when one is available.
    pub fn take_zeros(&mut self, n: usize) -> ScoreVec {
        match self.pool.pop() {
            Some(mut buf) => {
                buf.clear();
                buf.resize(n, 0.0);
                ScoreVec { data: buf }
            }
            None => ScoreVec::zeros(n),
        }
    }

    /// Hands out a copy of `src`, reusing a pooled buffer when one is
    /// available (one pass: the buffer is not zero-filled first).
    pub fn take_copy(&mut self, src: &[f64]) -> ScoreVec {
        let mut buf = self.pool.pop().unwrap_or_default();
        buf.clear();
        buf.extend_from_slice(src);
        ScoreVec { data: buf }
    }

    /// Hands out a vector of length `n` filled with `1/n` (empty for
    /// `n == 0`, mirroring [`ScoreVec::uniform`]).
    pub fn take_uniform(&mut self, n: usize) -> ScoreVec {
        let mut v = self.take_zeros(n);
        if n > 0 {
            v.fill(1.0 / n as f64);
        }
        v
    }

    /// Returns a buffer to the pool for reuse.
    pub fn recycle(&mut self, v: ScoreVec) {
        if self.pool.len() < WORKSPACE_POOL_CAP && v.data.capacity() > 0 {
            self.pool.push(v.data);
        }
    }

    /// Number of buffers currently pooled.
    pub fn pooled(&self) -> usize {
        self.pool.len()
    }
}

impl Deref for ScoreVec {
    type Target = [f64];
    fn deref(&self) -> &[f64] {
        &self.data
    }
}

impl DerefMut for ScoreVec {
    fn deref_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }
}

impl Index<usize> for ScoreVec {
    type Output = f64;
    fn index(&self, i: usize) -> &f64 {
        &self.data[i]
    }
}

impl IndexMut<usize> for ScoreVec {
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.data[i]
    }
}

impl From<Vec<f64>> for ScoreVec {
    fn from(data: Vec<f64>) -> Self {
        Self { data }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_uniform() {
        let z = ScoreVec::zeros(4);
        assert_eq!(z.as_slice(), &[0.0; 4]);
        let u = ScoreVec::uniform(4);
        assert_eq!(u.as_slice(), &[0.25; 4]);
        assert!((u.sum() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn uniform_empty_is_empty() {
        let u = ScoreVec::uniform(0);
        assert!(u.is_empty());
        assert_eq!(u.sum(), 0.0);
    }

    #[test]
    fn l1_distance_basic() {
        let a = ScoreVec::from_vec(vec![1.0, 0.0, 2.0]);
        let b = ScoreVec::from_vec(vec![0.0, 1.0, 2.0]);
        assert!((a.l1_distance(&b) - 2.0).abs() < 1e-15);
        assert_eq!(a.l1_distance(&a), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn l1_distance_len_mismatch_panics() {
        let a = ScoreVec::zeros(2);
        let b = ScoreVec::zeros(3);
        let _ = a.l1_distance(&b);
    }

    #[test]
    fn normalize_l1_makes_probability_vector() {
        let mut v = ScoreVec::from_vec(vec![2.0, 3.0, 5.0]);
        v.normalize_l1();
        assert!((v.sum() - 1.0).abs() < 1e-15);
        assert!((v[0] - 0.2).abs() < 1e-15);
    }

    #[test]
    fn normalize_l1_zero_vector_noop() {
        let mut v = ScoreVec::zeros(3);
        v.normalize_l1();
        assert_eq!(v.as_slice(), &[0.0; 3]);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = ScoreVec::from_vec(vec![1.0, 2.0]);
        let b = ScoreVec::from_vec(vec![10.0, 20.0]);
        a.axpy(0.5, &b);
        assert_eq!(a.as_slice(), &[6.0, 12.0]);
        a.scale(2.0);
        assert_eq!(a.as_slice(), &[12.0, 24.0]);
    }

    #[test]
    fn dot_product() {
        let a = ScoreVec::from_vec(vec![1.0, 2.0, 3.0]);
        let b = ScoreVec::from_vec(vec![4.0, 5.0, 6.0]);
        assert!((a.dot(&b) - 32.0).abs() < 1e-12);
    }

    #[test]
    fn top_k_orders_desc_ties_by_index() {
        let v = ScoreVec::from_vec(vec![0.5, 0.9, 0.5, 1.0]);
        assert_eq!(v.top_k(3), vec![3, 1, 0]);
        assert_eq!(v.top_k(10).len(), 4); // k larger than n is clamped
    }

    #[test]
    fn all_finite_detects_nan() {
        let mut v = ScoreVec::zeros(2);
        assert!(v.all_finite());
        v[1] = f64::NAN;
        assert!(!v.all_finite());
    }

    #[test]
    fn workspace_reuses_buffers() {
        let mut ws = KernelWorkspace::new();
        let a = ws.take_zeros(8);
        assert_eq!(a.as_slice(), &[0.0; 8]);
        ws.recycle(a);
        assert_eq!(ws.pooled(), 1);
        let mut b = ws.take_uniform(4);
        assert_eq!(ws.pooled(), 0, "pooled buffer was reused");
        assert!((b.sum() - 1.0).abs() < 1e-15);
        b[0] = 7.0;
        ws.recycle(b);
        // A recycled dirty buffer comes back zeroed.
        let c = ws.take_zeros(6);
        assert_eq!(c.as_slice(), &[0.0; 6]);
    }

    #[test]
    fn workspace_pool_is_bounded() {
        let mut ws = KernelWorkspace::new();
        for _ in 0..100 {
            let v = ScoreVec::zeros(4);
            ws.recycle(v);
        }
        assert!(ws.pooled() <= 16);
    }

    #[test]
    fn kahan_sum_is_accurate() {
        // 1.0 followed by many tiny values that naive summation drops.
        let mut data = vec![1.0];
        data.extend(std::iter::repeat_n(1e-16, 10_000));
        let v = ScoreVec::from_vec(data);
        let expected = 1.0 + 1e-16 * 10_000.0;
        assert!((v.sum() - expected).abs() < 1e-18);
        // Signs are kept, not folded into a norm.
        assert_eq!(ScoreVec::from_vec(vec![1.0, -2.0, 3.0]).sum(), 2.0);
    }
}
