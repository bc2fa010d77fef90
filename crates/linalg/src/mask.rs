//! Dense id bitmasks.
//!
//! [`IdMask`] is a fixed-width bitset over the dense `u32` id space the
//! rest of the workspace uses for papers. The query layer materializes
//! one from a posting list when a predicate must be tested per candidate
//! (an O(1) `contains` beats a per-candidate binary search once the list
//! is consulted more than a handful of times), and set algebra
//! (`intersect_with`) composes several predicates into one mask that the
//! masked selection kernel ([`crate::ranks::top_k_masked`]) consumes
//! directly.

/// A fixed-length bitset over dense `u32` ids.
///
/// Storage is `len/64` words; iteration over set bits skips empty words,
/// so walking a sparse mask costs `O(len/64 + ones)`, not `O(len)` bit
/// tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdMask {
    words: Vec<u64>,
    len: usize,
}

impl Default for IdMask {
    /// An empty mask covering no ids — [`IdMask::reset`] gives it an id
    /// space.
    fn default() -> Self {
        Self::new(0)
    }
}

impl IdMask {
    /// An all-clear mask covering ids `0..len`.
    pub fn new(len: usize) -> Self {
        Self {
            words: vec![0u64; len.div_ceil(64)],
            len,
        }
    }

    /// A mask covering ids `0..len` with the given ids set (duplicates are
    /// harmless).
    ///
    /// # Panics
    /// Panics if an id is `>= len`.
    pub fn from_ids<I: IntoIterator<Item = u32>>(len: usize, ids: I) -> Self {
        let mut mask = Self::new(len);
        for id in ids {
            mask.insert(id);
        }
        mask
    }

    /// Clears every bit and re-covers ids `0..len`, reusing the word
    /// storage.
    ///
    /// Growing past the largest `len` seen reallocates once; after that a
    /// reused mask performs zero heap allocations — the reuse contract
    /// the query layer's scratch relies on.
    pub fn reset(&mut self, len: usize) {
        let words = len.div_ceil(64);
        self.words.clear();
        self.words.resize(words, 0);
        self.len = len;
    }

    /// Number of ids covered (set or not).
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the mask covers no ids at all.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets `id`.
    ///
    /// # Panics
    /// Panics if `id >= len()`.
    pub fn insert(&mut self, id: u32) {
        let id = id as usize;
        assert!(id < self.len, "id {id} out of mask range {}", self.len);
        self.words[id / 64] |= 1u64 << (id % 64);
    }

    /// Whether `id` is set (`false` for ids past `len()`, so membership
    /// tests against a shorter mask never panic).
    pub fn contains(&self, id: u32) -> bool {
        let id = id as usize;
        id < self.len && self.words[id / 64] & (1u64 << (id % 64)) != 0
    }

    /// Number of set ids.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Intersects in place with `other`.
    ///
    /// # Panics
    /// Panics if the masks cover different id spaces.
    pub fn intersect_with(&mut self, other: &IdMask) {
        assert_eq!(
            self.len, other.len,
            "mask length mismatch: {} vs {}",
            self.len, other.len
        );
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w &= o;
        }
    }

    /// Iterates the set ids in ascending order, skipping empty words.
    pub fn ones(&self) -> Ones<'_> {
        Ones {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }
}

/// Ascending iterator over the set bits of an [`IdMask`].
#[derive(Debug)]
pub struct Ones<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for Ones<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        while self.current == 0 {
            self.word_idx += 1;
            self.current = *self.words.get(self.word_idx)?;
        }
        let bit = self.current.trailing_zeros();
        self.current &= self.current - 1; // clear lowest set bit
        Some((self.word_idx * 64) as u32 + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_count() {
        let mut m = IdMask::new(130);
        assert_eq!(m.count_ones(), 0);
        for id in [0, 63, 64, 129] {
            m.insert(id);
        }
        assert_eq!(m.count_ones(), 4);
        assert!(m.contains(0) && m.contains(63) && m.contains(64) && m.contains(129));
        assert!(!m.contains(1) && !m.contains(128));
        // Out-of-range membership is false, not a panic.
        assert!(!m.contains(500));
    }

    #[test]
    #[should_panic(expected = "out of mask range")]
    fn insert_out_of_range_panics() {
        IdMask::new(10).insert(10);
    }

    #[test]
    fn ones_iterates_ascending_across_words() {
        let ids = [3u32, 64, 65, 127, 128, 191];
        let m = IdMask::from_ids(200, ids.iter().copied());
        assert_eq!(m.ones().collect::<Vec<_>>(), ids);
    }

    #[test]
    fn intersect() {
        let mut a = IdMask::from_ids(100, [1u32, 5, 70, 99]);
        let b = IdMask::from_ids(100, [5u32, 70, 80]);
        a.intersect_with(&b);
        assert_eq!(a.ones().collect::<Vec<_>>(), vec![5, 70]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn intersect_length_mismatch_panics() {
        IdMask::new(10).intersect_with(&IdMask::new(11));
    }

    #[test]
    fn reset_reuses_storage_and_clears() {
        let mut m = IdMask::from_ids(200, [3u32, 64, 199]);
        m.reset(130);
        assert_eq!(m.len(), 130);
        assert_eq!(m.count_ones(), 0);
        assert!(!m.contains(3) && !m.contains(64));
        m.insert(129);
        assert_eq!(m.ones().collect::<Vec<_>>(), vec![129]);
        // Shrinking then re-growing within the warmed word storage must
        // not reallocate.
        let cap = {
            m.reset(200);
            m.words.capacity()
        };
        m.reset(64);
        m.reset(200);
        assert_eq!(m.words.capacity(), cap);
        assert_eq!(m, IdMask::new(200));
    }

    #[test]
    fn empty_and_zero_length() {
        let m = IdMask::new(0);
        assert!(m.is_empty());
        assert_eq!(m.ones().count(), 0);
        assert!(!m.contains(0));
    }
}
