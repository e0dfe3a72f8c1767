//! Co-occurrence products over sparse assignment matrices.
//!
//! The custom algorithm of the paper is built on the co-occurrence matrix
//! `C = A·Aᵀ` where `A` is RUAM (or RPAM): `C[i][j] = gⁱʲ` counts the users
//! shared by roles `i` and `j`, and `C[i][i] = |Rⁱ|` is the role norm.
//! Materializing `C` densely is quadratic in roles, so [`for_each_cooccurring_pair`]
//! streams only the *non-zero off-diagonal* entries by walking the inverted
//! index (the transpose of `A`): for every column, every pair of rows
//! sharing it is accumulated once. Memory stays `O(rows)`.

use crate::sparse::CsrMatrix;
use crate::traits::RowMatrix;

/// Streams every pair of rows `(i, j)` with `i < j` that share at least one
/// column, together with the co-occurrence count `gⁱʲ`.
///
/// `transpose` must be `matrix.transpose()`; it is taken as a parameter so
/// callers that make several passes (e.g. the T4 and T5 detectors) can
/// reuse it.
///
/// The visit order is ascending `i`, then ascending `j`.
///
/// # Panics
///
/// Panics if `transpose` dimensions do not match `matrix` transposed.
///
/// # Examples
///
/// ```
/// use rolediet_matrix::{CsrMatrix, ops};
///
/// let m = CsrMatrix::from_rows_of_indices(3, 2, &[vec![0, 1], vec![1], vec![]]).unwrap();
/// let t = m.transpose();
/// let mut pairs = Vec::new();
/// ops::for_each_cooccurring_pair(&m, &t, |i, j, g| pairs.push((i, j, g)));
/// assert_eq!(pairs, vec![(0, 1, 1)]);
/// ```
pub fn for_each_cooccurring_pair<F>(matrix: &CsrMatrix, transpose: &CsrMatrix, mut visit: F)
where
    F: FnMut(usize, usize, usize),
{
    assert_transpose_shape(matrix, transpose);
    let rows = matrix.n_rows();
    // Per-row accumulator with a touched-list so clearing is O(#touched),
    // not O(rows), between outer iterations.
    let mut acc: Vec<usize> = vec![0; rows];
    let mut touched: Vec<usize> = Vec::new();
    for i in 0..rows {
        for &col in matrix.row(i) {
            for &j in transpose.row(col as usize) {
                let j = j as usize;
                if j <= i {
                    continue;
                }
                if acc[j] == 0 {
                    touched.push(j);
                }
                acc[j] += 1;
            }
        }
        touched.sort_unstable();
        for &j in &touched {
            visit(i, j, acc[j]);
            acc[j] = 0;
        }
        touched.clear();
    }
}

/// Validates that `transpose` has the dimensions of `matrix` transposed.
///
/// Shared by the co-occurrence walk and the T5 detectors so all of them
/// reject a mismatched transpose with an identical panic. Public so
/// downstream parallel callers can validate on the caller thread before
/// any worker spawns (a zero-row matrix spawns no workers at all).
pub fn assert_transpose_shape(matrix: &CsrMatrix, transpose: &CsrMatrix) {
    assert_eq!(
        matrix.n_rows(),
        transpose.n_cols(),
        "transpose shape mismatch"
    );
    assert_eq!(
        matrix.n_cols(),
        transpose.n_rows(),
        "transpose shape mismatch"
    );
}

/// Builds the full dense co-occurrence matrix `C` with `C[i][i] = |Rⁱ|`,
/// exactly as printed in Section III-C of the paper.
///
/// Quadratic in rows — intended for inspection, tests and small examples,
/// not for production-scale matrices.
#[allow(clippy::needless_range_loop)] // i/j are matrix coordinates on both sides
pub fn gram_matrix<M: RowMatrix>(matrix: &M) -> Vec<Vec<usize>> {
    let n = matrix.rows();
    let mut c = vec![vec![0usize; n]; n];
    for i in 0..n {
        c[i][i] = matrix.row_norm(i);
        for j in (i + 1)..n {
            let g = matrix.row_dot(i, j);
            c[i][j] = g;
            c[j][i] = g;
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The RUAM of Figure 1 of the paper:
    /// R01={U01}, R02={U02,U03}, R03={}, R04={U02,U03}, R05={U04}.
    fn paper_ruam() -> CsrMatrix {
        CsrMatrix::from_rows_of_indices(5, 4, &[vec![0], vec![1, 2], vec![], vec![1, 2], vec![3]])
            .unwrap()
    }

    #[test]
    fn gram_matches_paper_example() {
        // Section III-C prints exactly this co-occurrence matrix.
        let expected = vec![
            vec![1, 0, 0, 0, 0],
            vec![0, 2, 0, 2, 0],
            vec![0, 0, 0, 0, 0],
            vec![0, 2, 0, 2, 0],
            vec![0, 0, 0, 0, 1],
        ];
        assert_eq!(gram_matrix(&paper_ruam()), expected);
    }

    #[test]
    fn streaming_pairs_match_gram_off_diagonal() {
        let m = paper_ruam();
        let t = m.transpose();
        let mut pairs = Vec::new();
        for_each_cooccurring_pair(&m, &t, |i, j, g| pairs.push((i, j, g)));
        assert_eq!(pairs, vec![(1, 3, 2)]);
    }

    #[test]
    fn pair_counts_equal_row_dot_on_random_like_input() {
        let rows = vec![
            vec![0, 1, 2],
            vec![1, 2, 3],
            vec![0, 3],
            vec![4],
            vec![0, 1, 2, 3, 4],
        ];
        let m = CsrMatrix::from_rows_of_indices(5, 5, &rows).unwrap();
        let t = m.transpose();
        let mut seen = std::collections::HashMap::new();
        for_each_cooccurring_pair(&m, &t, |i, j, g| {
            assert!(i < j);
            assert!(seen.insert((i, j), g).is_none(), "pair visited twice");
        });
        for i in 0..5 {
            for j in (i + 1)..5 {
                let g = m.row_dot(i, j);
                assert_eq!(seen.get(&(i, j)).copied().unwrap_or(0), g, "pair ({i},{j})");
            }
        }
    }

    #[test]
    fn empty_matrix_streams_nothing() {
        let m = CsrMatrix::zeros(4, 3);
        let t = m.transpose();
        let mut n = 0;
        for_each_cooccurring_pair(&m, &t, |_, _, _| n += 1);
        assert_eq!(n, 0);
    }

    #[test]
    #[should_panic(expected = "transpose shape mismatch")]
    fn wrong_transpose_panics() {
        let m = CsrMatrix::zeros(4, 3);
        let not_t = CsrMatrix::zeros(4, 3);
        for_each_cooccurring_pair(&m, &not_t, |_, _, _| {});
    }

    #[test]
    fn visit_order_is_sorted() {
        let rows = vec![vec![0], vec![0], vec![0], vec![0]];
        let m = CsrMatrix::from_rows_of_indices(4, 1, &rows).unwrap();
        let t = m.transpose();
        let mut pairs = Vec::new();
        for_each_cooccurring_pair(&m, &t, |i, j, g| pairs.push((i, j, g)));
        assert_eq!(
            pairs,
            vec![
                (0, 1, 1),
                (0, 2, 1),
                (0, 3, 1),
                (1, 2, 1),
                (1, 3, 1),
                (2, 3, 1)
            ]
        );
        // Columns shared in an order that makes the accumulator touch a
        // higher j before a lower one: the walk still emits ascending j.
        let rows = vec![vec![0, 1], vec![1], vec![0], vec![0, 1], vec![1, 0]];
        let m = CsrMatrix::from_rows_of_indices(5, 2, &rows).unwrap();
        let t = m.transpose();
        let mut pairs = Vec::new();
        for_each_cooccurring_pair(&m, &t, |i, j, g| pairs.push((i, j, g)));
        let mut sorted = pairs.clone();
        sorted.sort_unstable();
        assert_eq!(pairs, sorted);
    }
}
