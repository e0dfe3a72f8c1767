//! The [`RowMatrix`] abstraction over binary row matrices.

use crate::signature::RowSignature;

/// A read-only binary matrix viewed as a collection of rows.
///
/// Every detector in `rolediet-core` is generic over `RowMatrix`. The
/// workspace's one row store is the sparse [`CsrMatrix`](crate::CsrMatrix)
/// (at real-org scale a dense RUAM would need 50,000 × 90,000 bits ≈
/// 560 MB but holds only a few hundred thousand ones);
/// [`RowSubsetView`](crate::RowSubsetView) presents a row subset of any
/// `RowMatrix` as one.
///
/// Row indices correspond to roles; column indices to users (RUAM) or
/// permissions (RPAM).
pub trait RowMatrix {
    /// Number of rows (roles).
    fn rows(&self) -> usize;

    /// Number of columns (users or permissions).
    fn cols(&self) -> usize;

    /// Number of set bits in row `i` — the norm `|Rⁱ|`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows()`.
    fn row_norm(&self, i: usize) -> usize;

    /// Hamming distance between rows `i` and `j`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    fn row_hamming(&self, i: usize, j: usize) -> usize;

    /// Co-occurrence count `gⁱʲ`: number of columns set in both rows.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    fn row_dot(&self, i: usize, j: usize) -> usize;

    /// Returns `true` if rows `i` and `j` are identical.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    fn rows_equal(&self, i: usize, j: usize) -> bool {
        self.row_hamming(i, j) == 0
    }

    /// Column indices set in row `i`, in increasing order.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows()`.
    fn row_indices(&self, i: usize) -> Vec<usize>;

    /// A collision-resistant content signature of row `i`: the
    /// [`hash_indices`](crate::hash_indices) key over its ascending column
    /// indices, so equal rows have equal signatures whatever `cols()` is.
    /// See [`RowSignature`] for the collision discussion.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows()`.
    fn row_signature(&self, i: usize) -> RowSignature;

    /// Sum of every column: `col_sums()[j]` counts the roles containing
    /// column `j`. Used by the linear-time detectors (standalone nodes).
    fn col_sums(&self) -> Vec<usize>;

    /// [`col_sums`](Self::col_sums) with the row scan split over
    /// `threads` workers via [`parallel`](crate::parallel): each worker
    /// accumulates partial sums over its row range and the partials are
    /// added in range order. Identical output for every thread count.
    fn col_sums_with(&self, threads: usize) -> Vec<usize>
    where
        Self: Sync,
    {
        if threads.max(1) == 1 {
            return self.col_sums();
        }
        let partials = crate::parallel::par_map_ranges(self.rows(), threads, |range| {
            let mut sums = vec![0usize; self.cols()];
            for i in range {
                for j in self.row_indices(i) {
                    sums[j] += 1;
                }
            }
            sums
        });
        let mut sums = vec![0usize; self.cols()];
        for partial in partials {
            for (s, p) in sums.iter_mut().zip(partial) {
                *s += p;
            }
        }
        sums
    }

    /// Sum of every row; `row_sums()[i] == row_norm(i)`.
    fn row_sums(&self) -> Vec<usize> {
        (0..self.rows()).map(|i| self.row_norm(i)).collect()
    }

    /// [`row_sums`](Self::row_sums) with the rows split over `threads`
    /// workers. Identical output for every thread count.
    fn row_sums_with(&self, threads: usize) -> Vec<usize>
    where
        Self: Sync,
    {
        crate::parallel::par_map_rows(self.rows(), threads, |range| {
            range.map(|i| self.row_norm(i)).collect()
        })
    }

    /// Total number of set bits (assignments) in the matrix.
    fn nnz(&self) -> usize {
        self.row_sums().iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::RowSubsetView;
    use crate::sparse::CsrMatrix;

    fn assert_matrix_behaviour<M: RowMatrix + Sync>(m: &M) {
        assert_eq!(m.rows(), 4);
        assert_eq!(m.cols(), 5);
        assert_eq!(m.row_norm(0), 3);
        assert_eq!(m.row_norm(3), 0);
        assert_eq!(m.row_hamming(0, 2), 0);
        assert!(m.rows_equal(0, 2));
        assert!(!m.rows_equal(0, 1));
        assert_eq!(m.row_dot(0, 2), 3);
        assert_eq!(m.row_dot(0, 1), 0);
        assert_eq!(m.row_indices(0), vec![0, 2, 4]);
        assert_eq!(m.col_sums(), vec![2, 1, 2, 0, 2]);
        assert_eq!(m.row_sums(), vec![3, 1, 3, 0]);
        for threads in [1, 2, 3, 8] {
            assert_eq!(m.col_sums_with(threads), m.col_sums());
            assert_eq!(m.row_sums_with(threads), m.row_sums());
        }
        assert_eq!(m.nnz(), 7);
        assert_eq!(m.row_signature(0), m.row_signature(2));
        assert_ne!(m.row_signature(0), m.row_signature(1));
    }

    #[test]
    fn csr_and_row_view_agree_with_trait_contract() {
        // The view reorders a wider base, so it runs the trait's default
        // methods that `CsrMatrix` overrides.
        let base = CsrMatrix::from_rows_of_indices(
            5,
            5,
            &[vec![], vec![1], vec![0, 2, 4], vec![3], vec![0, 2, 4]],
        )
        .unwrap();
        let view = RowSubsetView::new(&base, &[2, 1, 4, 0]);
        let sparse =
            CsrMatrix::from_rows_of_indices(4, 5, &[vec![0, 2, 4], vec![1], vec![0, 2, 4], vec![]])
                .unwrap();
        assert_matrix_behaviour(&sparse);
        assert_matrix_behaviour(&view);
    }
}
