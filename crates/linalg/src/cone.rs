//! Score sources: what the selection kernels of [`crate::ranks`] read a
//! score from, and the one compressed vector they read besides a slice.
//!
//! Every top-k kernel asks a vector two things — its length and the score
//! of one id — so each is generic over [`Scores`]. A dense slice answers
//! with an index. A [`Cone`] answers from the form a personalized solve
//! takes before it is resolved: `x = y + g·u`, where `y` is the push of
//! the seeds, zero outside their reference cone, `g` a scalar and `u` a
//! kernel shared by every solve over the same graph (the uniform kernel
//! of `citegraph::uniform_kernel`). A cone stores `y` block-sparse over
//! 64-id blocks — one `u64` mask and one `u32` offset per block into the
//! values whose bits are not zero, side by side — keeps `u` behind an
//! `Arc`, and computes `y_i + g·u_i` on every read: the same expression,
//! in the same order, as the dense resolution, so each score it returns
//! is the dense one bit for bit (`-0.0` and NaN in `y` are kept; only `+0.0` is left
//! out, and reads back as `0.0 + g·u_i`, as the dense sum does).
//!
//! Jeh & Widom split personalized vectors the same way, into partial
//! vectors over a shared skeleton ("Scaling Personalized Web Search",
//! WWW 2003). Here the skeleton is one vector, so the split is exact.

use std::sync::Arc;

use crate::vector::ScoreVec;

/// A vector of scores the selection kernels read by id.
///
/// Implemented for dense slices (and the `Vec`s and arrays that hold
/// them) and for [`Cone`]. A kernel generic over it is monomorphized per source, so
/// a slice pays nothing for the abstraction.
pub trait Scores {
    /// How many scores there are.
    fn len(&self) -> usize;

    /// Whether there is no score.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The score of id `i`.
    ///
    /// # Panics
    /// When `i` is not below [`Self::len`].
    fn at(&self, i: usize) -> f64;
}

impl Scores for [f64] {
    #[inline]
    fn len(&self) -> usize {
        <[f64]>::len(self)
    }

    #[inline]
    fn at(&self, i: usize) -> f64 {
        self[i]
    }
}

impl Scores for Vec<f64> {
    #[inline]
    fn len(&self) -> usize {
        Vec::len(self)
    }

    #[inline]
    fn at(&self, i: usize) -> f64 {
        self[i]
    }
}

impl<const N: usize> Scores for [f64; N] {
    #[inline]
    fn len(&self) -> usize {
        N
    }

    #[inline]
    fn at(&self, i: usize) -> f64 {
        self[i]
    }
}

/// Ids per block of a [`Cone`]'s sparse part: one `u64` mask each.
const CONE_BLOCK: usize = 64;

/// One 64-id block of a [`Cone`]'s sparse part: which of its ids are
/// stored, and where their values start. Kept together (16 bytes with
/// padding, against 12 in two arrays), a read costs one cache miss for
/// both instead of two.
#[derive(Debug, Clone, Copy)]
struct ConeBlock {
    mask: u64,
    offset: u32,
}

/// A score vector held as `x = y + g·u`: `y` block-sparse, `g` a scalar,
/// `u` a shared dense kernel. See the module docs.
#[derive(Debug, Clone)]
pub struct Cone {
    /// Per 64-id block, the ids of the block whose `y` is stored and
    /// where their values start in [`Self::values`]: one read finds both.
    blocks: Vec<ConeBlock>,
    /// The stored `y` values, by id.
    values: Vec<f64>,
    g: f64,
    kernel: Arc<ScoreVec>,
}

impl Cone {
    /// The cone of dense `y` (kept where its bits are not zero) at scale
    /// `g` over `kernel`.
    ///
    /// # Panics
    /// When `y` and `kernel` differ in length, or `y` has `2^32` or more
    /// ids outside `+0.0`.
    pub fn new(y: &[f64], g: f64, kernel: Arc<ScoreVec>) -> Self {
        assert_eq!(
            y.len(),
            kernel.len(),
            "a cone's sparse part and its kernel cover the same ids"
        );
        let stored = |v: &f64| v.to_bits() != 0;
        let mut at = 0u32;
        let blocks: Vec<ConeBlock> = y
            .chunks(CONE_BLOCK)
            .map(|block| {
                let mask = block
                    .iter()
                    .enumerate()
                    .filter(|(_, v)| stored(v))
                    .fold(0u64, |mask, (bit, _)| mask | 1 << bit);
                let offset = at;
                at = at
                    .checked_add(mask.count_ones())
                    .expect("a cone stores fewer than 2^32 values");
                ConeBlock { mask, offset }
            })
            .collect();
        let mut values = Vec::with_capacity(at as usize);
        values.extend(y.iter().copied().filter(stored));
        Self {
            blocks,
            values,
            g,
            kernel,
        }
    }

    /// The same `y` and `g` over `kernel`, which may be longer: the ids
    /// past this cone's end hold no `y` (empty blocks). What a cached
    /// solve becomes when its graph grows by papers that do not reach its
    /// cone, and only the kernel changes.
    ///
    /// # Panics
    /// When `kernel` is shorter than this cone.
    pub fn over(&self, kernel: Arc<ScoreVec>) -> Self {
        assert!(
            kernel.len() >= self.len(),
            "a cone moves onto a kernel at least as long as its own"
        );
        let (n_blocks, offset) = (kernel.len().div_ceil(CONE_BLOCK), self.values.len() as u32);
        let mut blocks = Vec::with_capacity(n_blocks);
        blocks.extend_from_slice(&self.blocks);
        blocks.resize(n_blocks, ConeBlock { mask: 0, offset });
        Self {
            blocks,
            values: self.values.clone(),
            g: self.g,
            kernel,
        }
    }

    /// The sparse part's value at id `i`: `+0.0` outside the stored ids.
    ///
    /// # Panics
    /// When `i` lies past the cone's last 64-id block.
    #[inline]
    pub fn y(&self, i: usize) -> f64 {
        let ConeBlock { mask, offset } = self.blocks[i / CONE_BLOCK];
        let bit = i % CONE_BLOCK;
        if mask >> bit & 1 == 0 {
            return 0.0;
        }
        let below = (mask & ((1u64 << bit) - 1)).count_ones();
        self.values[offset as usize + below as usize]
    }

    /// Ids whose `y` is stored (not `+0.0`).
    pub fn stored(&self) -> usize {
        self.values.len()
    }

    /// The kernel's scale `g`.
    pub fn g(&self) -> f64 {
        self.g
    }

    /// The kernel `u`.
    pub fn kernel(&self) -> &Arc<ScoreVec> {
        &self.kernel
    }

    /// Every score, dense.
    pub fn to_dense(&self) -> ScoreVec {
        ScoreVec::from_vec((0..self.len()).map(|i| self.at(i)).collect())
    }

    /// Heap bytes of the sparse part: blocks and values. The kernel is
    /// shared, and counted by whoever owns it.
    pub fn bytes(&self) -> usize {
        self.blocks.capacity() * std::mem::size_of::<ConeBlock>()
            + self.values.capacity() * std::mem::size_of::<f64>()
    }
}

impl Scores for Cone {
    #[inline]
    fn len(&self) -> usize {
        self.kernel.len()
    }

    /// `y_i + g·u_i`, the dense resolution's expression.
    #[inline]
    fn at(&self, i: usize) -> f64 {
        self.y(i) + self.g * self.kernel.as_slice()[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel(n: usize) -> Arc<ScoreVec> {
        Arc::new(ScoreVec::from_vec(
            (0..n).map(|i| 1.0 / (i + 3) as f64).collect(),
        ))
    }

    #[test]
    fn reads_the_dense_resolution_and_stores_only_nonzero_bits() {
        let n = 150;
        let mut y = vec![0.0; n];
        y[0] = 0.25;
        y[63] = -0.0;
        y[64] = 1e-300;
        y[149] = 3.5;
        let u = kernel(n);
        let cone = Cone::new(&y, 0.125, Arc::clone(&u));
        assert_eq!(cone.stored(), 4, "+0.0 is left out, -0.0 kept");
        assert_eq!(cone.len(), n);
        for i in 0..n {
            assert_eq!(
                cone.at(i).to_bits(),
                (y[i] + 0.125 * u[i]).to_bits(),
                "id {i}"
            );
            assert_eq!(cone.y(i).to_bits(), y[i].to_bits(), "id {i}");
        }
        assert_eq!(
            cone.bytes(),
            3 * 16 + 4 * 8,
            "three blocks' masks and offsets, four values"
        );
        let dense = cone.to_dense();
        assert!((0..n).all(|i| dense[i].to_bits() == cone.at(i).to_bits()));
    }

    #[test]
    #[should_panic(expected = "at least as long")]
    fn a_shorter_kernel_is_refused() {
        Cone::new(&[0.0; 3], 1.0, kernel(3)).over(kernel(2));
    }

    #[test]
    #[should_panic(expected = "same ids")]
    fn a_kernel_of_another_length_is_refused() {
        Cone::new(&[0.0; 3], 1.0, kernel(4));
    }
}
