//! Compressed sparse row (CSR) matrices over `u32` indices.
//!
//! The citation network stores two CSR structures (out-references and
//! in-citations). CSR keeps each row's column indices contiguous, which is
//! the access pattern of every kernel here: "for each paper, iterate its
//! references" or "for each paper, iterate its citers".
//!
//! Values are optional: the plain adjacency case (`C[i,j] ∈ {0,1}`) stores
//! indices only, while age-weighted variants (RAM/ECM, paper §4.3) attach an
//! `f64` weight per edge via [`WeightedCsr`].

/// Maximum number of stored entries a [`Csr`] can hold: row pointers are
/// `u32`, so `nnz` must fit one.
pub const MAX_NNZ: usize = u32::MAX as usize;

/// Error returned when raw CSR arrays fail validation (see
/// [`Csr::from_store_parts`]) or an edge count exceeds [`MAX_NNZ`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrError {
    message: String,
}

impl CsrError {
    fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for CsrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid CSR: {}", self.message)
    }
}

impl std::error::Error for CsrError {}

/// Checks that `nnz` stored entries fit the `u32` row-pointer range.
///
/// [`Csr::from_edges`] / [`WeightedCsr::from_triples`] assert this guard
/// (a graph that large cannot be represented and the panic names the
/// limit) and [`Csr::merged_with`] returns its error; it is exposed so the
/// overflow path is unit-testable without materializing a 4-billion-edge
/// input.
pub fn check_nnz(nnz: usize) -> Result<(), CsrError> {
    if nnz > MAX_NNZ {
        Err(CsrError::new(format!(
            "{nnz} entries exceed the u32 row-pointer range ({MAX_NNZ})"
        )))
    } else {
        Ok(())
    }
}

/// An immutable CSR adjacency structure (pattern only, implicit weight 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    /// Row pointer array, length `nrows + 1`. Stored as `u32` (with a
    /// build-time guard on `nnz`) so every row sweep reads half the index
    /// bandwidth a `usize` pointer array would cost — SpMV here is
    /// bandwidth-bound, not compute-bound.
    indptr: Vec<u32>,
    /// Column indices, length `nnz`, sorted within each row.
    indices: Vec<u32>,
    /// Number of columns (square matrices in this workspace, but kept
    /// separate for bipartite author/venue incidence matrices).
    ncols: usize,
}

impl Csr {
    /// Builds a CSR matrix from an unsorted edge list `(row, col)`.
    ///
    /// Duplicate edges are collapsed; self-loops are kept (callers that
    /// forbid them filter beforehand). Runs in `O(V + E)`: a single-pass
    /// counting-sort scatter groups edges by row, then each (short) row is
    /// sorted and deduplicated in place.
    ///
    /// # Panics
    /// Panics if `edges.len()` exceeds `u32::MAX` (row pointers are `u32`).
    pub fn from_edges(nrows: usize, ncols: usize, edges: &[(u32, u32)]) -> Self {
        if let Err(e) = check_nnz(edges.len()) {
            panic!("Csr::from_edges: {e}");
        }
        // Counting sort into a single buffer: count per row, prefix-sum into
        // `indptr`, scatter using `indptr` itself as the write cursor (after
        // the scatter, `indptr[r]` holds the *end* of row `r`).
        let mut indptr = vec![0u32; nrows + 1];
        for &(r, _) in edges {
            indptr[r as usize + 1] += 1;
        }
        let mut acc = 0u32;
        for p in indptr.iter_mut() {
            acc += *p;
            *p = acc;
        }
        let mut indices = vec![0u32; edges.len()];
        for &(r, c) in edges {
            debug_assert!((c as usize) < ncols, "column index out of bounds");
            let pos = &mut indptr[r as usize];
            indices[*pos as usize] = c;
            *pos += 1;
        }
        // Sort each row in place and compact out duplicates with a forward
        // write cursor (`write ≤` every read position, so the copy is safe),
        // rebuilding `indptr` to its conventional meaning as we go.
        let mut write = 0usize;
        let mut row_start = 0usize;
        for row_ptr in indptr[..nrows].iter_mut() {
            let row_end = *row_ptr as usize;
            indices[row_start..row_end].sort_unstable();
            let compact_start = write;
            let mut prev = None;
            for k in row_start..row_end {
                let c = indices[k];
                if prev != Some(c) {
                    indices[write] = c;
                    write += 1;
                    prev = Some(c);
                }
            }
            row_start = row_end;
            *row_ptr = compact_start as u32;
        }
        indptr[nrows] = write as u32;
        indices.truncate(write);
        Self {
            indptr,
            indices,
            ncols,
        }
    }

    /// An empty matrix with the given shape.
    pub fn empty(nrows: usize, ncols: usize) -> Self {
        Self {
            indptr: vec![0; nrows + 1],
            indices: Vec::new(),
            ncols,
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.indptr.len() - 1
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// The column indices of row `r` (sorted ascending).
    pub fn row(&self, r: u32) -> &[u32] {
        let r = r as usize;
        &self.indices[self.indptr[r] as usize..self.indptr[r + 1] as usize]
    }

    /// Out-degree of row `r`.
    pub fn degree(&self, r: u32) -> usize {
        let r = r as usize;
        (self.indptr[r + 1] - self.indptr[r]) as usize
    }

    /// `true` iff entry `(r, c)` is stored. `O(log degree(r))`.
    pub fn contains(&self, r: u32, c: u32) -> bool {
        self.row(r).binary_search(&c).is_ok()
    }

    /// Transposes the matrix (rows become columns). `O(V + E)`.
    pub fn transpose(&self) -> Csr {
        let mut counts = vec![0u32; self.ncols];
        for &c in &self.indices {
            counts[c as usize] += 1;
        }
        let mut indptr = Vec::with_capacity(self.ncols + 1);
        indptr.push(0u32);
        let mut acc = 0u32;
        for &c in &counts {
            acc += c;
            indptr.push(acc);
        }
        let mut indices = vec![0u32; self.nnz()];
        let mut cursor = indptr[..self.ncols].to_vec();
        for r in 0..self.nrows() as u32 {
            for &c in self.row(r) {
                indices[cursor[c as usize] as usize] = r;
                cursor[c as usize] += 1;
            }
        }
        // Rows of the transpose are already sorted because we scanned source
        // rows in ascending order.
        Csr {
            indptr,
            indices,
            ncols: self.nrows(),
        }
    }

    /// The matrix grown to `nrows × ncols` with `extra` entries added:
    /// each row is the set union of the existing row and the `extra`
    /// entries of that row, so an entry that is already stored changes
    /// nothing, and `m.merged_with(r, c, e).transpose()` equals
    /// `m.transpose().merged_with(c, r, flipped e)`.
    ///
    /// `extra` must be strictly increasing in `(row, col)` order — sorted
    /// and deduplicated by the caller. Untouched row spans are copied
    /// wholesale (one `extend_from_slice` and a shifted `indptr` span per
    /// gap between touched rows) and only touched rows are merged, so the
    /// cost is an `O(V + E)` copy plus `O(batch · log degree)` of merging —
    /// no per-edge scatter and no re-sort of rows that did not change. The
    /// result is identical to [`Self::from_edges`] over the combined edge
    /// list.
    ///
    /// # Errors
    /// Rejects a shrinking shape, an `extra` that is not strictly
    /// increasing, an entry outside `nrows × ncols`, and a total entry
    /// count past [`MAX_NNZ`].
    pub fn merged_with(
        &self,
        nrows: usize,
        ncols: usize,
        extra: &[(u32, u32)],
    ) -> Result<Csr, CsrError> {
        let n_old = self.nrows();
        if nrows < n_old || ncols < self.ncols {
            return Err(CsrError::new(format!(
                "cannot shrink {n_old}x{} to {nrows}x{ncols}",
                self.ncols
            )));
        }
        if extra.windows(2).any(|w| w[0] >= w[1]) {
            return Err(CsrError::new(
                "extra entries are not strictly increasing in (row, col) order",
            ));
        }
        if let Some(&(r, c)) = extra
            .iter()
            .find(|&&(r, c)| r as usize >= nrows || c as usize >= ncols)
        {
            return Err(CsrError::new(format!(
                "extra entry ({r}, {c}) is outside {nrows}x{ncols}"
            )));
        }
        check_nnz(self.nnz() + extra.len())?;

        let mut indptr: Vec<u32> = Vec::with_capacity(nrows + 1);
        let mut indices: Vec<u32> = Vec::with_capacity(self.nnz() + extra.len());
        // Emits rows `indptr.len()..to` unchanged: old rows as one span
        // whose row pointers shift by what was inserted before them, rows
        // past the old shape as empty.
        let copy_rows_until = |to: usize, indptr: &mut Vec<u32>, indices: &mut Vec<u32>| {
            let (from, old_to) = (indptr.len(), to.min(n_old));
            if from < old_to {
                let (s, e) = (self.indptr[from] as usize, self.indptr[old_to] as usize);
                let shift = (indices.len() - s) as u32;
                indptr.extend(self.indptr[from..old_to].iter().map(|&p| p + shift));
                indices.extend_from_slice(&self.indices[s..e]);
            }
            indptr.resize(to, indices.len() as u32);
        };
        let mut rest = extra;
        while let Some(&(r, _)) = rest.first() {
            let (touched, tail) = rest.split_at(rest.partition_point(|e| e.0 == r));
            rest = tail;
            copy_rows_until(r as usize, &mut indptr, &mut indices);
            indptr.push(indices.len() as u32);
            let mut old: &[u32] = if (r as usize) < n_old {
                self.row(r)
            } else {
                &[]
            };
            for &(_, c) in touched {
                let (below, from_c) = old.split_at(old.partition_point(|&o| o < c));
                indices.extend_from_slice(below);
                indices.push(c);
                old = from_c.strip_prefix(&[c]).unwrap_or(from_c);
            }
            indices.extend_from_slice(old);
        }
        copy_rows_until(nrows, &mut indptr, &mut indices);
        indptr.push(indices.len() as u32);
        Ok(Csr {
            indptr,
            indices,
            ncols,
        })
    }

    /// Heap bytes held by the two arrays.
    pub fn heap_bytes(&self) -> usize {
        (self.indptr.capacity() + self.indices.capacity()) * std::mem::size_of::<u32>()
    }

    /// Returns the out-degree of every row as a dense vector.
    pub fn degrees(&self) -> Vec<usize> {
        (0..self.nrows())
            .map(|r| (self.indptr[r + 1] - self.indptr[r]) as usize)
            .collect()
    }

    /// The row-pointer array (length `nrows + 1`), the work profile the
    /// degree-balanced parallel partition is computed from.
    pub fn indptr(&self) -> &[u32] {
        &self.indptr
    }

    /// The flat column-index array (length `nnz`, rows concatenated). With
    /// [`Self::indptr`] this is the exact on-disk representation the
    /// snapshot store persists — serialization is two memcpys, no
    /// per-element encoding.
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// Rebuilds a matrix from raw `indptr`/`indices` arrays (the inverse of
    /// [`Self::indptr`] + [`Self::indices`], used by the snapshot store's
    /// load path).
    ///
    /// Validation enforces every invariant the accessors rely on —
    /// `indptr` non-empty, monotone, ending at `indices.len()`; each row's
    /// columns strictly increasing (sorted, deduplicated) and `< ncols` —
    /// so a corrupted or hand-built input cannot produce a structure whose
    /// methods panic or return garbage later.
    pub fn from_store_parts(
        indptr: Vec<u32>,
        indices: Vec<u32>,
        ncols: usize,
    ) -> Result<Self, CsrError> {
        validate_parts(&indptr, &indices, ncols)?;
        Ok(Self {
            indptr,
            indices,
            ncols,
        })
    }
}

/// Shared validation for [`Csr::from_store_parts`] / [`CsrView::new`].
fn validate_parts(indptr: &[u32], indices: &[u32], ncols: usize) -> Result<(), CsrError> {
    let Some(&last) = indptr.last() else {
        return Err(CsrError::new("indptr is empty (need nrows + 1 entries)"));
    };
    if indptr[0] != 0 {
        return Err(CsrError::new("indptr does not start at 0"));
    }
    if indptr.windows(2).any(|w| w[0] > w[1]) {
        return Err(CsrError::new("indptr is not monotonically non-decreasing"));
    }
    if last as usize != indices.len() {
        return Err(CsrError::new(format!(
            "indptr ends at {last} but indices has {} entries",
            indices.len()
        )));
    }
    for r in 0..indptr.len() - 1 {
        let row = &indices[indptr[r] as usize..indptr[r + 1] as usize];
        if row.windows(2).any(|w| w[0] >= w[1]) {
            return Err(CsrError::new(format!(
                "row {r} columns are not strictly increasing"
            )));
        }
        if row.last().is_some_and(|&c| c as usize >= ncols) {
            return Err(CsrError::new(format!(
                "row {r} has a column index >= ncols {ncols}"
            )));
        }
    }
    Ok(())
}

/// A borrowed CSR adjacency view over externally owned arrays.
///
/// This is the zero-copy load path of the snapshot store: the `indptr` /
/// `indices` slices point straight into a loaded file buffer, so a reader
/// can traverse rows without materializing an owned [`Csr`] first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CsrView<'a> {
    indptr: &'a [u32],
    indices: &'a [u32],
    ncols: usize,
}

impl<'a> CsrView<'a> {
    /// Builds a view over raw arrays, applying the same validation as
    /// [`Csr::from_store_parts`].
    pub fn new(indptr: &'a [u32], indices: &'a [u32], ncols: usize) -> Result<Self, CsrError> {
        validate_parts(indptr, indices, ncols)?;
        Ok(Self {
            indptr,
            indices,
            ncols,
        })
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.indptr.len() - 1
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// The column indices of row `r` (sorted ascending).
    pub fn row(&self, r: u32) -> &'a [u32] {
        let r = r as usize;
        &self.indices[self.indptr[r] as usize..self.indptr[r + 1] as usize]
    }

    /// Out-degree of row `r`.
    pub fn degree(&self, r: u32) -> usize {
        let r = r as usize;
        (self.indptr[r + 1] - self.indptr[r]) as usize
    }
}

/// A CSR matrix with an `f64` weight per stored entry.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedCsr {
    indptr: Vec<u32>,
    indices: Vec<u32>,
    values: Vec<f64>,
    ncols: usize,
}

impl WeightedCsr {
    /// Builds a weighted CSR matrix from `(row, col, weight)` triples.
    /// Duplicate `(row, col)` pairs accumulate their weights (entries of
    /// equal `(row, col)` sum in sorted-run order).
    ///
    /// # Panics
    /// Panics if `triples.len()` exceeds `u32::MAX` (row pointers are
    /// `u32`).
    pub fn from_triples(nrows: usize, ncols: usize, triples: &[(u32, u32, f64)]) -> Self {
        if let Err(e) = check_nnz(triples.len()) {
            panic!("WeightedCsr::from_triples: {e}");
        }
        // Counting sort into one flat scratch buffer (no per-row `Vec`s):
        // count per row, prefix-sum, scatter with `indptr` as the cursor —
        // after the scatter `indptr[r]` holds the end of row `r`.
        let mut indptr = vec![0u32; nrows + 1];
        for &(r, _, _) in triples {
            indptr[r as usize + 1] += 1;
        }
        let mut acc = 0u32;
        for p in indptr.iter_mut() {
            acc += *p;
            *p = acc;
        }
        let mut scratch: Vec<(u32, f64)> = vec![(0, 0.0); triples.len()];
        for &(r, c, w) in triples {
            debug_assert!((c as usize) < ncols, "column index out of bounds");
            let pos = &mut indptr[r as usize];
            scratch[*pos as usize] = (c, w);
            *pos += 1;
        }
        // Sort each row by column, accumulate duplicate runs, and rebuild
        // `indptr` to its conventional meaning.
        let mut indices = Vec::with_capacity(triples.len());
        let mut values = Vec::with_capacity(triples.len());
        let mut row_start = 0usize;
        for row_ptr in indptr[..nrows].iter_mut() {
            let row_end = *row_ptr as usize;
            let row = &mut scratch[row_start..row_end];
            row.sort_unstable_by_key(|&(c, _)| c);
            *row_ptr = indices.len() as u32;
            let mut run: Option<(u32, f64)> = None;
            for &(c, w) in row.iter() {
                match &mut run {
                    Some((rc, rw)) if *rc == c => *rw += w,
                    _ => {
                        if let Some((rc, rw)) = run.take() {
                            indices.push(rc);
                            values.push(rw);
                        }
                        run = Some((c, w));
                    }
                }
            }
            if let Some((rc, rw)) = run {
                indices.push(rc);
                values.push(rw);
            }
            row_start = row_end;
        }
        indptr[nrows] = indices.len() as u32;
        Self {
            indptr,
            indices,
            values,
            ncols,
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.indptr.len() - 1
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// The `(column, weight)` pairs of row `r`.
    pub fn row(&self, r: u32) -> impl Iterator<Item = (u32, f64)> + '_ {
        let r = r as usize;
        let (s, e) = (self.indptr[r] as usize, self.indptr[r + 1] as usize);
        self.indices[s..e]
            .iter()
            .copied()
            .zip(self.values[s..e].iter().copied())
    }

    /// Dense `y = M · x` (matrix times column vector), parallel over a
    /// degree-balanced row partition; results are bit-identical for every
    /// thread count.
    ///
    /// # Panics
    /// Panics if `x.len() != ncols` or `y.len() != nrows`.
    pub fn mul_vec_into(&self, x: &[f64], y: &mut [f64]) {
        self.mul_vec_into_with_threads(
            crate::parallel::auto_threads(self.nnz() + self.nrows()),
            x,
            y,
        );
    }

    /// [`Self::mul_vec_into`] with an explicit thread count.
    pub fn mul_vec_into_with_threads(&self, threads: usize, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "mul_vec_into: x length mismatch");
        assert_eq!(y.len(), self.nrows(), "mul_vec_into: y length mismatch");
        self.row_sweep(threads, x, y, |_, acc, _| acc, &[]);
    }

    /// Fused Katz-style step `y = seed + α·(M·x)` in one sweep (the ECM
    /// recurrence `s ← M·1 + α·M·s`).
    ///
    /// # Panics
    /// Panics if `x.len() != ncols`, or `seed`/`y` length differs from
    /// `nrows`.
    pub fn mul_vec_damped_into(&self, alpha: f64, x: &[f64], seed: &[f64], y: &mut [f64]) {
        self.mul_vec_damped_into_with_threads(
            crate::parallel::auto_threads(self.nnz() + self.nrows()),
            alpha,
            x,
            seed,
            y,
        );
    }

    /// [`Self::mul_vec_damped_into`] with an explicit thread count.
    pub fn mul_vec_damped_into_with_threads(
        &self,
        threads: usize,
        alpha: f64,
        x: &[f64],
        seed: &[f64],
        y: &mut [f64],
    ) {
        assert_eq!(
            x.len(),
            self.ncols,
            "mul_vec_damped_into: x length mismatch"
        );
        assert_eq!(
            seed.len(),
            self.nrows(),
            "mul_vec_damped_into: seed length mismatch"
        );
        assert_eq!(
            y.len(),
            self.nrows(),
            "mul_vec_damped_into: y length mismatch"
        );
        self.row_sweep(
            threads,
            x,
            y,
            move |r, acc, seed| seed[r] + alpha * acc,
            seed,
        );
    }

    /// Shared parallel row sweep: `y[r] = finish(r, Σ_k v[k]·x[col[k]], aux)`.
    #[inline]
    fn row_sweep<F>(&self, threads: usize, x: &[f64], y: &mut [f64], finish: F, aux: &[f64])
    where
        F: Fn(usize, f64, &[f64]) -> f64 + Sync,
    {
        let (indptr, indices, values) = (&self.indptr, &self.indices, &self.values);
        crate::parallel::for_each_row_chunk(indptr, threads, y, |rows, chunk| {
            for (r, out) in rows.clone().zip(chunk.iter_mut()) {
                let (s, e) = (indptr[r] as usize, indptr[r + 1] as usize);
                let mut acc = 0.0;
                for k in s..e {
                    acc += values[k] * x[indices[k] as usize];
                }
                *out = finish(r, acc, aux);
            }
        });
    }

    /// The row-pointer array (length `nrows + 1`).
    pub fn indptr(&self) -> &[u32] {
        &self.indptr
    }

    /// Sum of all weights in the matrix.
    pub fn total(&self) -> f64 {
        self.values.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        // 4x4: 0→{1,2}, 1→{2}, 2→{}, 3→{0,1,2}
        Csr::from_edges(4, 4, &[(0, 2), (0, 1), (1, 2), (3, 0), (3, 2), (3, 1)])
    }

    #[test]
    fn from_edges_sorts_rows() {
        let m = sample();
        assert_eq!(m.row(0), &[1, 2]);
        assert_eq!(m.row(1), &[2]);
        assert_eq!(m.row(2), &[] as &[u32]);
        assert_eq!(m.row(3), &[0, 1, 2]);
        assert_eq!(m.nnz(), 6);
        assert_eq!(m.nrows(), 4);
        assert_eq!(m.ncols(), 4);
    }

    #[test]
    fn from_edges_dedups() {
        let m = Csr::from_edges(2, 2, &[(0, 1), (0, 1), (0, 1)]);
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.row(0), &[1]);
    }

    #[test]
    fn degree_and_contains() {
        let m = sample();
        assert_eq!(m.degree(3), 3);
        assert_eq!(m.degree(2), 0);
        assert!(m.contains(0, 2));
        assert!(!m.contains(2, 0));
    }

    #[test]
    fn transpose_roundtrip() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.nrows(), 4);
        assert_eq!(t.row(2), &[0, 1, 3]); // papers citing 2
        let back = t.transpose();
        assert_eq!(back, m);
    }

    #[test]
    fn transpose_preserves_nnz() {
        let m = sample();
        assert_eq!(m.transpose().nnz(), m.nnz());
    }

    #[test]
    fn empty_matrix() {
        let m = Csr::empty(3, 5);
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.ncols(), 5);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.degrees(), vec![0, 0, 0]);
    }

    #[test]
    fn rectangular_shape() {
        let m = Csr::from_edges(2, 5, &[(0, 4), (1, 0)]);
        assert_eq!(m.ncols(), 5);
        let t = m.transpose();
        assert_eq!(t.nrows(), 5);
        assert_eq!(t.ncols(), 2);
        assert_eq!(t.row(4), &[0]);
    }

    #[test]
    fn weighted_accumulates_duplicates() {
        let m = WeightedCsr::from_triples(2, 2, &[(0, 1, 0.5), (0, 1, 0.25), (1, 0, 1.0)]);
        assert_eq!(m.nnz(), 2);
        let row0: Vec<_> = m.row(0).collect();
        assert_eq!(row0, vec![(1, 0.75)]);
        assert!((m.total() - 1.75).abs() < 1e-15);
    }

    #[test]
    fn weighted_mul_vec() {
        // M = [[0, 2], [3, 0]], x = [1, 10] → y = [20, 3]
        let m = WeightedCsr::from_triples(2, 2, &[(0, 1, 2.0), (1, 0, 3.0)]);
        let mut y = vec![0.0; 2];
        m.mul_vec_into(&[1.0, 10.0], &mut y);
        assert_eq!(y, vec![20.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "x length mismatch")]
    fn weighted_mul_vec_shape_panics() {
        let m = WeightedCsr::from_triples(2, 2, &[]);
        let mut y = vec![0.0; 2];
        m.mul_vec_into(&[1.0], &mut y);
    }

    #[test]
    fn nnz_guard_rejects_past_u32_max() {
        assert!(check_nnz(0).is_ok());
        assert!(check_nnz(MAX_NNZ).is_ok());
        let err = check_nnz(MAX_NNZ + 1).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("u32 row-pointer range"), "{msg}");
        assert!(msg.contains(&MAX_NNZ.to_string()), "{msg}");
    }

    /// `from_edges` over the old entries plus `extra` — what `merged_with`
    /// must reproduce.
    fn rebuilt(m: &Csr, nrows: usize, ncols: usize, extra: &[(u32, u32)]) -> Csr {
        let mut edges: Vec<_> = (0..m.nrows() as u32)
            .flat_map(|r| m.row(r).iter().map(move |&c| (r, c)))
            .collect();
        edges.extend_from_slice(extra);
        Csr::from_edges(nrows, ncols, &edges)
    }

    #[test]
    fn merged_with_nothing_is_the_same_matrix_at_the_grown_shape() {
        let m = sample();
        assert_eq!(m.merged_with(4, 4, &[]).unwrap(), m);
        let grown = m.merged_with(6, 7, &[]).unwrap();
        assert_eq!(grown, rebuilt(&m, 6, 7, &[]));
        assert_eq!((grown.nrows(), grown.ncols(), grown.nnz()), (6, 7, 6));
        assert_eq!(grown.row(3), m.row(3));
        assert_eq!(grown.row(5), &[] as &[u32]);
        // Growing an empty matrix works too.
        assert_eq!(
            Csr::empty(0, 0).merged_with(2, 2, &[(1, 0)]).unwrap(),
            Csr::from_edges(2, 2, &[(1, 0)])
        );
    }

    #[test]
    fn merged_with_touches_boundary_rows() {
        let m = sample(); // n_old = 4
        for extra in [
            vec![(0, 0), (0, 3)], // first row, both ends
            vec![(3, 3), (3, 5)], // last old row
            vec![(4, 0), (4, 4)], // first new row
            vec![(6, 1)],         // last new row, gap before
            vec![(0, 3), (2, 1), (3, 3), (4, 2), (6, 0), (6, 6)],
            vec![(0, 1), (0, 2), (1, 2), (3, 1)], // all already stored
            vec![(0, 0), (0, 1), (0, 5), (3, 2), (3, 6)], // mixed
        ] {
            let merged = m.merged_with(7, 7, &extra).unwrap();
            assert_eq!(merged, rebuilt(&m, 7, 7, &extra), "extra {extra:?}");
            // The same union applied to the transpose stays the transpose.
            let mut flipped: Vec<_> = extra.iter().map(|&(r, c)| (c, r)).collect();
            flipped.sort_unstable();
            assert_eq!(
                m.transpose().merged_with(7, 7, &flipped).unwrap(),
                merged.transpose(),
                "extra {extra:?}"
            );
        }
    }

    #[test]
    fn merged_with_rejects_bad_input() {
        let m = sample();
        let msg = |r: Result<Csr, CsrError>| r.unwrap_err().to_string();
        assert!(msg(m.merged_with(3, 4, &[])).contains("shrink"));
        assert!(msg(m.merged_with(4, 3, &[])).contains("shrink"));
        assert!(msg(m.merged_with(5, 5, &[(5, 0)])).contains("outside"));
        assert!(msg(m.merged_with(5, 5, &[(0, 5)])).contains("outside"));
        // Unsorted rows, unsorted columns and duplicates are all rejected.
        for extra in [[(2, 0), (1, 0)], [(1, 3), (1, 0)], [(1, 0), (1, 0)]] {
            assert!(msg(m.merged_with(5, 5, &extra)).contains("strictly increasing"));
        }
    }

    #[test]
    fn store_parts_roundtrip() {
        let m = sample();
        let back =
            Csr::from_store_parts(m.indptr().to_vec(), m.indices().to_vec(), m.ncols()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn store_parts_validation_rejects_corruption() {
        // Empty indptr.
        assert!(Csr::from_store_parts(vec![], vec![], 2).is_err());
        // Does not start at zero.
        assert!(Csr::from_store_parts(vec![1, 1], vec![0], 2).is_err());
        // Non-monotone indptr.
        assert!(Csr::from_store_parts(vec![0, 2, 1], vec![0, 1], 2).is_err());
        // Length mismatch with indices.
        assert!(Csr::from_store_parts(vec![0, 2], vec![0], 2).is_err());
        // Unsorted row.
        assert!(Csr::from_store_parts(vec![0, 2], vec![1, 0], 2).is_err());
        // Duplicate column within a row.
        assert!(Csr::from_store_parts(vec![0, 2], vec![1, 1], 2).is_err());
        // Column out of bounds.
        assert!(Csr::from_store_parts(vec![0, 1], vec![5], 2).is_err());
    }

    #[test]
    fn view_matches_owned() {
        let m = sample();
        let v = CsrView::new(m.indptr(), m.indices(), m.ncols()).unwrap();
        assert_eq!(v.nrows(), m.nrows());
        assert_eq!(v.ncols(), m.ncols());
        assert_eq!(v.nnz(), m.nnz());
        for r in 0..m.nrows() as u32 {
            assert_eq!(v.row(r), m.row(r));
            assert_eq!(v.degree(r), m.degree(r));
        }
    }
}
