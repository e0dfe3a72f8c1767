//! Compressed sparse row binary matrices.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::MatrixError;
use crate::setops::intersect_count;
use crate::signature::{hash_indices, RowSignature};
use crate::traits::RowMatrix;
use crate::Result;

/// A binary matrix in compressed sparse row (CSR) form.
///
/// Stores only the column indices of set bits: `indices[indptr[i]..indptr[i+1]]`
/// are the (strictly increasing) set columns of row `i`. The paper notes
/// that sparse storage is the practical representation at real-org scale —
/// the case-study RUAM is ~50,000 × 90,000 with density around 10⁻⁴, i.e.
/// half a gigabyte dense but only a few megabytes sparse.
///
/// Column indices are `u32`; RBAC datasets with more than 4 × 10⁹ users or
/// permissions are out of scope.
///
/// # Examples
///
/// ```
/// use rolediet_matrix::{CsrMatrix, RowMatrix};
///
/// let m = CsrMatrix::from_rows_of_indices(2, 5, &[vec![1, 3], vec![3]]).unwrap();
/// assert_eq!(m.row_dot(0, 1), 1);
/// assert_eq!(m.row_hamming(0, 1), 1);
/// ```
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<u32>,
}

impl CsrMatrix {
    /// Creates an empty (all-zero) `rows × cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CsrMatrix {
            rows,
            cols,
            indptr: vec![0; rows + 1],
            indices: Vec::new(),
        }
    }

    /// Builds a CSR matrix from per-row column-index lists.
    ///
    /// Rows are sorted and deduplicated internally, so input order does not
    /// matter.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::DimensionMismatch`] if `row_indices.len() !=
    /// rows` or [`MatrixError::IndexOutOfBounds`] if a column is `>= cols`.
    pub fn from_rows_of_indices(
        rows: usize,
        cols: usize,
        row_indices: &[Vec<usize>],
    ) -> Result<Self> {
        if row_indices.len() != rows {
            return Err(MatrixError::DimensionMismatch {
                expected: rows,
                actual: row_indices.len(),
                what: "row count",
            });
        }
        let mut indptr = Vec::with_capacity(rows + 1);
        indptr.push(0usize);
        let mut indices: Vec<u32> = Vec::new();
        let mut scratch: Vec<usize> = Vec::new();
        for cols_of_row in row_indices {
            scratch.clear();
            scratch.extend_from_slice(cols_of_row);
            scratch.sort_unstable();
            scratch.dedup();
            for &c in &scratch {
                if c >= cols {
                    return Err(MatrixError::IndexOutOfBounds {
                        index: c,
                        bound: cols,
                        axis: "column",
                    });
                }
                indices.push(c as u32);
            }
            indptr.push(indices.len());
        }
        Ok(CsrMatrix {
            rows,
            cols,
            indptr,
            indices,
        })
    }

    /// Builds a CSR matrix from raw CSR arrays.
    ///
    /// # Errors
    ///
    /// Returns an error if `indptr` is malformed (wrong length, not
    /// monotone, or not ending at `indices.len()`), if any column is out of
    /// range, or if a row's indices are not strictly increasing.
    pub fn from_raw(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
    ) -> Result<Self> {
        if indptr.len() != rows + 1 {
            return Err(MatrixError::DimensionMismatch {
                expected: rows + 1,
                actual: indptr.len(),
                what: "indptr length",
            });
        }
        if indptr[0] != 0 || *indptr.last().expect("len >= 1") != indices.len() {
            return Err(MatrixError::DimensionMismatch {
                expected: indices.len(),
                actual: *indptr.last().expect("len >= 1"),
                what: "indptr terminal value",
            });
        }
        for r in 0..rows {
            if indptr[r] > indptr[r + 1] {
                return Err(MatrixError::UnsortedIndices { row: r });
            }
            let row = &indices[indptr[r]..indptr[r + 1]];
            for pair in row.windows(2) {
                if pair[0] >= pair[1] {
                    return Err(MatrixError::UnsortedIndices { row: r });
                }
            }
            if let Some(&last) = row.last() {
                if last as usize >= cols {
                    return Err(MatrixError::IndexOutOfBounds {
                        index: last as usize,
                        bound: cols,
                        axis: "column",
                    });
                }
            }
        }
        Ok(CsrMatrix {
            rows,
            cols,
            indptr,
            indices,
        })
    }

    /// Builds a CSR matrix with the two-pass parallel kernel, from a
    /// function yielding each row's column indices in strictly
    /// increasing order.
    ///
    /// Pass one counts every row's columns and an exclusive prefix sum
    /// turns the counts into `indptr`; pass two writes each worker's
    /// rows directly into disjoint slices of the single `indices`
    /// allocation ([`par_fill_by_offsets`](crate::parallel::par_fill_by_offsets)).
    /// Unlike [`from_rows_of_indices`](Self::from_rows_of_indices) there
    /// is no per-row `Vec`, no sort and no re-copy — the kernel the
    /// graph projections use at real-org scale. Output is bit-identical
    /// for every thread count because both passes split by row range
    /// and workers write non-overlapping slices.
    ///
    /// `row_of` is called twice per row (once per pass) and must yield
    /// the same sequence both times; sources like `BTreeSet` iterators
    /// satisfy the ordering contract for free. The iterator must be
    /// [`ExactSizeIterator`] so the count pass reads each row's width in
    /// O(1) instead of walking it — the fill pass verifies the claimed
    /// lengths element by element.
    ///
    /// # Panics
    ///
    /// Panics if a row yields an out-of-bounds or non-increasing column,
    /// or yields different sequences in the two passes. Worker panics
    /// are re-raised verbatim, so the message is identical for every
    /// thread count.
    pub fn from_row_iter_two_pass<F, I>(rows: usize, cols: usize, threads: usize, row_of: F) -> Self
    where
        F: Fn(usize) -> I + Sync,
        I: IntoIterator<Item = u32>,
        I::IntoIter: ExactSizeIterator,
    {
        let counts: Vec<usize> = crate::parallel::par_map_rows(rows, threads, |range| {
            range.map(|i| row_of(i).into_iter().len()).collect()
        });
        let mut indptr = Vec::with_capacity(rows + 1);
        indptr.push(0usize);
        for &c in &counts {
            indptr.push(indptr.last().expect("nonempty") + c);
        }
        let nnz = *indptr.last().expect("nonempty");
        let mut indices = vec![0u32; nnz];
        crate::parallel::par_fill_by_offsets(&mut indices, &indptr, threads, |range, slice| {
            let base = indptr[range.start];
            for i in range {
                let hi = indptr[i + 1] - base;
                let mut k = indptr[i] - base;
                let mut prev: Option<u32> = None;
                for c in row_of(i) {
                    assert!(
                        (c as usize) < cols,
                        "column index {c} out of bounds in row {i}"
                    );
                    assert!(
                        prev.is_none() || prev < Some(c),
                        "columns of row {i} must be strictly increasing"
                    );
                    assert!(k < hi, "row {i} yielded more columns than it counted");
                    slice[k] = c;
                    prev = Some(c);
                    k += 1;
                }
                assert_eq!(k, hi, "row {i} yielded fewer columns than it counted");
            }
        });
        let m = CsrMatrix {
            rows,
            cols,
            indptr,
            indices,
        };
        m.debug_assert_invariants();
        m
    }

    /// Builds a CSR matrix on `threads` workers from a function that
    /// appends each row's columns to a buffer, in any order and with
    /// repeats.
    ///
    /// For a row that is a union of sorted lists — a user's effective
    /// permissions over its roles — this builds each row once: each
    /// worker appends a row into one reused buffer, sorts and
    /// deduplicates it, and copies it onto the worker's share of
    /// `indices`. There is no per-row allocation, and the transient
    /// memory is the workers' shares, O(nnz) in all. The shares join in
    /// range order, so the output is bit-identical for every thread
    /// count.
    ///
    /// # Panics
    ///
    /// Panics if a row yields a column `>= cols`. Worker panics are
    /// re-raised verbatim, so the message is identical for every thread
    /// count.
    pub fn from_appended_rows<F>(rows: usize, cols: usize, threads: usize, append_row: F) -> Self
    where
        F: Fn(usize, &mut Vec<u32>) + Sync,
    {
        let mut shares: Vec<(Vec<usize>, Vec<u32>)> =
            crate::parallel::par_map_ranges(rows, threads, |range| {
                let mut widths = Vec::with_capacity(range.len());
                let mut indices: Vec<u32> = Vec::new();
                let mut row: Vec<u32> = Vec::new();
                for i in range {
                    row.clear();
                    append_row(i, &mut row);
                    row.sort_unstable();
                    row.dedup();
                    if let Some(&c) = row.last() {
                        assert!(
                            (c as usize) < cols,
                            "column index {c} out of bounds in row {i}"
                        );
                    }
                    widths.push(row.len());
                    indices.extend_from_slice(&row);
                }
                (widths, indices)
            });
        let mut indptr = Vec::with_capacity(rows + 1);
        let mut nnz = 0usize;
        indptr.push(nnz);
        for (widths, _) in &shares {
            for &w in widths {
                nnz += w;
                indptr.push(nnz);
            }
        }
        let mut indices = match shares.as_mut_slice() {
            [(_, only)] => std::mem::take(only),
            _ => {
                let mut joined = Vec::with_capacity(nnz);
                for (_, share) in shares {
                    joined.extend(share);
                }
                joined
            }
        };
        // A lone share grew by doubling; return its slack.
        indices.shrink_to_fit();
        let m = CsrMatrix {
            rows,
            cols,
            indptr,
            indices,
        };
        m.debug_assert_invariants();
        m
    }

    /// Debug-build check of the CSR invariants — a free-in-release
    /// wrapper over [`validate`](Self::validate).
    ///
    /// Compiled to nothing in release builds. The construction kernels
    /// call this on their results; tests call it directly on matrices
    /// from every build path.
    ///
    /// # Panics
    ///
    /// In debug builds, panics with the [`validate`](Self::validate)
    /// message if any invariant is broken.
    pub(crate) fn debug_assert_invariants(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        if let Err(msg) = self.validate() {
            panic!("CSR invariant violated: {msg}");
        }
    }

    /// Raw CSR arrays, for the structural validator.
    pub(crate) fn raw_parts(&self) -> (&[usize], &[u32]) {
        (&self.indptr, &self.indices)
    }

    /// Number of rows.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn n_cols(&self) -> usize {
        self.cols
    }

    /// The sorted column indices of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n_rows()`.
    #[inline]
    pub fn row(&self, i: usize) -> &[u32] {
        assert!(i < self.rows, "row index {i} out of bounds");
        &self.indices[self.indptr[i]..self.indptr[i + 1]]
    }

    /// Returns the bit at (`row`, `col`) via binary search.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    pub fn get(&self, row: usize, col: usize) -> bool {
        assert!(col < self.cols, "column index {col} out of bounds");
        self.row(row).binary_search(&(col as u32)).is_ok()
    }

    /// Transposes the matrix. For RUAM the transpose is the user→roles
    /// *inverted index* that drives the co-occurrence algorithm.
    pub fn transpose(&self) -> CsrMatrix {
        let mut counts = vec![0usize; self.cols];
        for &j in &self.indices {
            counts[j as usize] += 1;
        }
        let mut indptr = Vec::with_capacity(self.cols + 1);
        let mut nnz = 0usize;
        indptr.push(nnz);
        for c in &counts {
            nnz += c;
            indptr.push(nnz);
        }
        let mut cursor = indptr[..self.cols].to_vec();
        let mut indices = vec![0u32; self.indices.len()];
        for i in 0..self.rows {
            for &j in self.row(i) {
                let j = j as usize;
                indices[cursor[j]] = i as u32;
                cursor[j] += 1;
            }
        }
        CsrMatrix {
            rows: self.cols,
            cols: self.rows,
            indptr,
            indices,
        }
    }

    /// Transposes on `threads` worker threads via
    /// [`parallel`](crate::parallel). Output is byte-identical to
    /// [`transpose`](Self::transpose) for every thread count.
    ///
    /// Three phases: (1) each worker counting-sorts its row range into a
    /// local column-grouped copy — the same scatter the sequential
    /// transpose runs, restricted to a chunk of rows; (2) the global
    /// `indptr` is prefix-summed from the per-worker counts; (3) workers
    /// stitch disjoint column ranges of the output, copying each column's
    /// segments in worker order — ascending rows, exactly the sequential
    /// order.
    pub fn transpose_with(&self, threads: usize) -> CsrMatrix {
        if threads.max(1) == 1 || self.indices.is_empty() {
            return self.transpose();
        }
        let locals: Vec<(Vec<usize>, Vec<u32>)> =
            crate::parallel::par_map_ranges(self.rows, threads, |range| {
                let mut counts = vec![0usize; self.cols];
                for i in range.clone() {
                    for &j in self.row(i) {
                        counts[j as usize] += 1;
                    }
                }
                let mut local_indptr = Vec::with_capacity(self.cols + 1);
                local_indptr.push(0usize);
                for &c in &counts {
                    local_indptr.push(local_indptr.last().expect("nonempty") + c);
                }
                let mut cursor = local_indptr[..self.cols].to_vec();
                let mut local = vec![0u32; *local_indptr.last().expect("nonempty")];
                for i in range {
                    for &j in self.row(i) {
                        let j = j as usize;
                        local[cursor[j]] = i as u32;
                        cursor[j] += 1;
                    }
                }
                (local_indptr, local)
            });
        let mut indptr = Vec::with_capacity(self.cols + 1);
        indptr.push(0usize);
        for c in 0..self.cols {
            let col_total: usize = locals.iter().map(|(p, _)| p[c + 1] - p[c]).sum();
            indptr.push(indptr.last().expect("nonempty") + col_total);
        }
        let indices = crate::parallel::par_map_rows(self.cols, threads, |col_range| {
            let mut out = Vec::with_capacity(indptr[col_range.end] - indptr[col_range.start]);
            for c in col_range {
                for (local_indptr, local) in &locals {
                    out.extend_from_slice(&local[local_indptr[c]..local_indptr[c + 1]]);
                }
            }
            out
        });
        let t = CsrMatrix {
            rows: self.cols,
            cols: self.rows,
            indptr,
            indices,
        };
        t.debug_assert_invariants();
        t
    }

    /// Memory footprint of the payload in bytes.
    pub fn payload_bytes(&self) -> usize {
        self.indices.len() * std::mem::size_of::<u32>()
            + self.indptr.len() * std::mem::size_of::<usize>()
    }
}

impl fmt::Debug for CsrMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CsrMatrix({}x{}, nnz={})",
            self.rows,
            self.cols,
            self.indices.len()
        )
    }
}

impl RowMatrix for CsrMatrix {
    fn rows(&self) -> usize {
        self.rows
    }

    fn cols(&self) -> usize {
        self.cols
    }

    fn row_norm(&self, i: usize) -> usize {
        assert!(i < self.rows, "row index {i} out of bounds");
        self.indptr[i + 1] - self.indptr[i]
    }

    fn row_hamming(&self, i: usize, j: usize) -> usize {
        self.row_norm(i) + self.row_norm(j) - 2 * self.row_dot(i, j)
    }

    fn row_dot(&self, i: usize, j: usize) -> usize {
        intersect_count(self.row(i), self.row(j))
    }

    fn rows_equal(&self, i: usize, j: usize) -> bool {
        self.row(i) == self.row(j)
    }

    fn row_indices(&self, i: usize) -> Vec<usize> {
        self.row(i).iter().map(|&c| c as usize).collect()
    }

    fn row_signature(&self, i: usize) -> RowSignature {
        hash_indices(self.row(i))
    }

    fn col_sums(&self) -> Vec<usize> {
        let mut sums = vec![0usize; self.cols];
        for &j in &self.indices {
            sums[j as usize] += 1;
        }
        sums
    }

    fn col_sums_with(&self, threads: usize) -> Vec<usize> {
        if threads.max(1) == 1 {
            return self.col_sums();
        }
        // Specialized over the default: workers scan the contiguous index
        // slice of their row range instead of allocating per-row vectors.
        let partials = crate::parallel::par_map_ranges(self.rows, threads, |range| {
            let mut sums = vec![0usize; self.cols];
            for &j in &self.indices[self.indptr[range.start]..self.indptr[range.end]] {
                sums[j as usize] += 1;
            }
            sums
        });
        let mut sums = vec![0usize; self.cols];
        for partial in partials {
            for (s, p) in sums.iter_mut().zip(partial) {
                *s += p;
            }
        }
        sums
    }

    fn nnz(&self) -> usize {
        self.indices.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        CsrMatrix::from_rows_of_indices(4, 6, &[vec![0, 2, 4], vec![5], vec![4, 2, 0], vec![]])
            .unwrap()
    }

    #[test]
    fn construction_sorts_and_dedups() {
        let m = CsrMatrix::from_rows_of_indices(1, 5, &[vec![3, 1, 3, 0]]).unwrap();
        assert_eq!(m.row(0), &[0, 1, 3]);
        assert_eq!(m.nnz(), 3);
    }

    #[test]
    fn construction_validates_bounds_and_shape() {
        assert!(CsrMatrix::from_rows_of_indices(2, 3, &[vec![0]]).is_err());
        assert!(CsrMatrix::from_rows_of_indices(1, 3, &[vec![3]]).is_err());
    }

    #[test]
    fn from_raw_validation() {
        assert!(CsrMatrix::from_raw(2, 4, vec![0, 1, 2], vec![1, 3]).is_ok());
        // wrong indptr length
        assert!(CsrMatrix::from_raw(2, 4, vec![0, 2], vec![1, 3]).is_err());
        // non-monotone indptr
        assert!(CsrMatrix::from_raw(2, 4, vec![0, 2, 1], vec![1, 3]).is_err());
        // terminal mismatch
        assert!(CsrMatrix::from_raw(2, 4, vec![0, 1, 1], vec![1, 3]).is_err());
        // unsorted row
        assert!(CsrMatrix::from_raw(1, 4, vec![0, 2], vec![3, 1]).is_err());
        // duplicate within row
        assert!(CsrMatrix::from_raw(1, 4, vec![0, 2], vec![1, 1]).is_err());
        // column out of range
        assert!(CsrMatrix::from_raw(1, 4, vec![0, 1], vec![4]).is_err());
    }

    #[test]
    fn get_and_row_access() {
        let m = sample();
        assert!(m.get(0, 2));
        assert!(!m.get(0, 1));
        assert!(!m.get(3, 0));
        assert_eq!(m.row(2), &[0, 2, 4]);
    }

    #[test]
    fn norms_hamming_dot() {
        let m = sample();
        assert_eq!(m.row_norm(0), 3);
        assert_eq!(m.row_norm(3), 0);
        assert_eq!(m.row_hamming(0, 2), 0);
        assert_eq!(m.row_hamming(0, 1), 4);
        assert_eq!(m.row_dot(0, 2), 3);
        assert_eq!(m.row_dot(0, 1), 0);
        assert!(m.rows_equal(0, 2));
        assert!(!m.rows_equal(0, 3));
    }

    #[test]
    fn transpose_matches_cellwise_transpose() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.n_rows(), 6);
        assert_eq!(t.n_cols(), 4);
        for r in 0..m.n_rows() {
            for c in 0..m.n_cols() {
                assert_eq!(m.get(r, c), t.get(c, r), "cell ({r}, {c})");
            }
        }
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn transpose_row_is_inverted_index() {
        let m = sample();
        let t = m.transpose();
        // Column 4 of m is set in rows 0 and 2.
        assert_eq!(t.row(4), &[0, 2]);
        // Column 1 of m is empty.
        assert!(t.row(1).is_empty());
    }

    #[test]
    fn parallel_transpose_is_byte_identical() {
        let samples = [
            sample(),
            CsrMatrix::zeros(7, 5),
            CsrMatrix::zeros(0, 0),
            CsrMatrix::from_rows_of_indices(
                6,
                4,
                &[
                    vec![3],
                    vec![0, 1, 2, 3],
                    vec![],
                    vec![2],
                    vec![0, 3],
                    vec![1],
                ],
            )
            .unwrap(),
        ];
        for m in &samples {
            let seq = m.transpose();
            for threads in [1, 2, 3, 4, 8, 50] {
                let par = m.transpose_with(threads);
                assert_eq!(par.indptr, seq.indptr, "{m:?} threads={threads}");
                assert_eq!(par.indices, seq.indices, "{m:?} threads={threads}");
                assert_eq!(par.rows, seq.rows);
                assert_eq!(par.cols, seq.cols);
            }
        }
    }

    #[test]
    fn parallel_col_sums_match_sequential() {
        let m = sample();
        for threads in [1, 2, 3, 8] {
            assert_eq!(m.col_sums_with(threads), m.col_sums());
        }
        assert_eq!(CsrMatrix::zeros(0, 3).col_sums_with(4), vec![0, 0, 0]);
    }

    #[test]
    fn two_pass_build_matches_from_rows_of_indices() {
        let row_sets: Vec<Vec<Vec<u32>>> = vec![
            vec![vec![0, 2, 4], vec![5], vec![0, 2, 4], vec![]],
            vec![],
            vec![vec![], vec![], vec![]],
            vec![vec![0, 1, 2, 3, 4, 5]],
        ];
        for rows in &row_sets {
            let as_usize: Vec<Vec<usize>> = rows
                .iter()
                .map(|r| r.iter().map(|&c| c as usize).collect())
                .collect();
            let reference = CsrMatrix::from_rows_of_indices(rows.len(), 6, &as_usize).unwrap();
            for threads in [1, 2, 3, 4, 8, 50] {
                let m = CsrMatrix::from_row_iter_two_pass(rows.len(), 6, threads, |i| {
                    rows[i].iter().copied()
                });
                assert_eq!(m, reference, "rows={rows:?} threads={threads}");
                m.debug_assert_invariants();
            }
        }
    }

    #[test]
    #[should_panic(expected = "column index 6 out of bounds in row 1")]
    fn two_pass_build_rejects_out_of_bounds_columns() {
        let rows = [vec![0u32], vec![6]];
        CsrMatrix::from_row_iter_two_pass(2, 6, 1, |i| rows[i].iter().copied());
    }

    #[test]
    #[should_panic(expected = "columns of row 0 must be strictly increasing")]
    fn two_pass_build_rejects_unsorted_rows() {
        let rows = [vec![3u32, 1]];
        CsrMatrix::from_row_iter_two_pass(1, 6, 1, |i| rows[i].iter().copied());
    }

    #[test]
    #[should_panic(expected = "columns of row 0 must be strictly increasing")]
    fn two_pass_build_panic_parity_across_threads() {
        // The substrate re-raises worker panics verbatim, so the parallel
        // path fails with exactly the sequential message.
        let rows = [vec![3u32, 1], vec![0], vec![1], vec![2], vec![3], vec![4]];
        CsrMatrix::from_row_iter_two_pass(6, 6, 4, |i| rows[i].iter().copied());
    }

    #[test]
    #[should_panic(expected = "yielded fewer columns than it counted")]
    fn two_pass_build_rejects_unstable_row_functions() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // A row function that shrinks between the count and fill passes.
        let calls = AtomicUsize::new(0);
        CsrMatrix::from_row_iter_two_pass(1, 6, 1, |_| {
            if calls.fetch_add(1, Ordering::SeqCst) == 0 {
                vec![0u32, 1]
            } else {
                vec![0u32]
            }
        });
    }

    #[test]
    fn appended_rows_build_matches_from_rows_of_indices() {
        // Rows arrive unsorted and with repeats, as unions of lists do.
        let rows: Vec<Vec<usize>> = vec![
            vec![4, 0, 2, 0],
            vec![5],
            vec![],
            vec![2, 2, 4, 0],
            vec![5, 3, 1, 0, 2, 4],
        ];
        let reference = CsrMatrix::from_rows_of_indices(rows.len(), 6, &rows).unwrap();
        for threads in [1, 2, 3, 4, 8, 50] {
            let m = CsrMatrix::from_appended_rows(rows.len(), 6, threads, |i, row| {
                row.extend(rows[i].iter().map(|&c| c as u32));
            });
            assert_eq!(m, reference, "threads={threads}");
        }
        let empty = CsrMatrix::from_appended_rows(0, 6, 4, |_, _| {});
        assert_eq!(empty, CsrMatrix::zeros(0, 6));
    }

    #[test]
    #[should_panic(expected = "column index 6 out of bounds in row 1")]
    fn appended_rows_build_rejects_out_of_bounds_columns() {
        CsrMatrix::from_appended_rows(2, 6, 2, |i, row| row.push(6 * i as u32));
    }

    #[test]
    fn zeros_and_payload() {
        let m = CsrMatrix::zeros(3, 100);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.row_norm(2), 0);
        assert!(m.payload_bytes() >= 4 * std::mem::size_of::<usize>());
    }

    #[test]
    fn debug_and_serde() {
        let m = sample();
        assert_eq!(format!("{m:?}"), "CsrMatrix(4x6, nnz=7)");
        let json = serde_json::to_string(&m).unwrap();
        let back: CsrMatrix = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }
}
