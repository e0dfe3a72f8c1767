//! Dense bit matrices with zero-copy row views.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::bitvec::{tail_mask, words_for, BitVec, BITS};
use crate::error::MatrixError;
use crate::signature::{hash_words, RowSignature};
use crate::traits::RowMatrix;
use crate::Result;

/// A dense binary matrix stored row-major as packed `u64` words.
///
/// Each row occupies `ceil(cols / 64)` words; the trailing bits of the last
/// word of every row are kept zero (same invariant as [`BitVec`]), so rows
/// can be compared word-by-word.
///
/// This is the representation used for the paper's synthetic experiments
/// (Figures 2 and 3): a 10,000 × 10,000 RUAM costs ~12.5 MB and a full
/// pairwise Hamming scan stays cache-friendly.
///
/// # Examples
///
/// ```
/// use rolediet_matrix::{BitMatrix, RowMatrix};
///
/// let mut m = BitMatrix::zeros(2, 3);
/// m.set(0, 1, true);
/// m.set(1, 1, true);
/// assert_eq!(m.row_hamming(0, 1), 0);
/// m.set(1, 2, true);
/// assert_eq!(m.row_hamming(0, 1), 1);
/// ```
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BitMatrix {
    rows: usize,
    cols: usize,
    words_per_row: usize,
    data: Vec<u64>,
}

impl BitMatrix {
    /// Creates an all-zero `rows × cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let words_per_row = words_for(cols);
        BitMatrix {
            rows,
            cols,
            words_per_row,
            data: vec![0; rows * words_per_row],
        }
    }

    /// Builds a matrix from per-row column-index lists.
    ///
    /// Indices may be unsorted and may repeat.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::DimensionMismatch`] if `row_indices.len() !=
    /// rows`, or [`MatrixError::IndexOutOfBounds`] if any column index is
    /// `>= cols`.
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
        let mut m = BitMatrix::zeros(rows, cols);
        for (i, cols_of_row) in row_indices.iter().enumerate() {
            for &j in cols_of_row {
                m.try_set(i, j, true)?;
            }
        }
        Ok(m)
    }

    /// Builds a matrix whose rows are copies of the given bit vectors.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::DimensionMismatch`] if any row length differs
    /// from `cols`.
    pub fn from_bitvec_rows(cols: usize, rows: &[BitVec]) -> Result<Self> {
        let mut m = BitMatrix::zeros(rows.len(), cols);
        for (i, r) in rows.iter().enumerate() {
            if r.len() != cols {
                return Err(MatrixError::DimensionMismatch {
                    expected: cols,
                    actual: r.len(),
                    what: "row length",
                });
            }
            let start = i * m.words_per_row;
            m.data[start..start + m.words_per_row].copy_from_slice(r.as_words());
        }
        Ok(m)
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

    /// Returns the bit at (`row`, `col`).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> bool {
        assert!(row < self.rows, "row index {row} out of bounds");
        assert!(col < self.cols, "column index {col} out of bounds");
        let w = row * self.words_per_row + col / BITS;
        self.data[w] & (1u64 << (col % BITS)) != 0
    }

    /// Sets the bit at (`row`, `col`).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: bool) {
        assert!(row < self.rows, "row index {row} out of bounds");
        assert!(col < self.cols, "column index {col} out of bounds");
        let w = row * self.words_per_row + col / BITS;
        let bit = 1u64 << (col % BITS);
        if value {
            self.data[w] |= bit;
        } else {
            self.data[w] &= !bit;
        }
    }

    /// Fallible variant of [`set`](BitMatrix::set).
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::IndexOutOfBounds`] for a bad row or column.
    pub fn try_set(&mut self, row: usize, col: usize, value: bool) -> Result<()> {
        if row >= self.rows {
            return Err(MatrixError::IndexOutOfBounds {
                index: row,
                bound: self.rows,
                axis: "row",
            });
        }
        if col >= self.cols {
            return Err(MatrixError::IndexOutOfBounds {
                index: col,
                bound: self.cols,
                axis: "column",
            });
        }
        self.set(row, col, value);
        Ok(())
    }

    /// Zero-copy view of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n_rows()`.
    #[inline]
    pub fn row(&self, i: usize) -> RowRef<'_> {
        assert!(i < self.rows, "row index {i} out of bounds");
        let start = i * self.words_per_row;
        RowRef {
            words: &self.data[start..start + self.words_per_row],
            cols: self.cols,
        }
    }

    /// Iterates over all rows as [`RowRef`] views.
    pub fn iter_rows(&self) -> impl Iterator<Item = RowRef<'_>> + '_ {
        (0..self.rows).map(move |i| self.row(i))
    }

    /// Overwrites row `i` with the contents of `row`.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::IndexOutOfBounds`] for a bad row index or
    /// [`MatrixError::DimensionMismatch`] if `row.len() != n_cols()`.
    pub fn set_row(&mut self, i: usize, row: &BitVec) -> Result<()> {
        if i >= self.rows {
            return Err(MatrixError::IndexOutOfBounds {
                index: i,
                bound: self.rows,
                axis: "row",
            });
        }
        if row.len() != self.cols {
            return Err(MatrixError::DimensionMismatch {
                expected: self.cols,
                actual: row.len(),
                what: "row length",
            });
        }
        let start = i * self.words_per_row;
        self.data[start..start + self.words_per_row].copy_from_slice(row.as_words());
        Ok(())
    }

    /// Transposes the matrix (rows become columns).
    ///
    /// For RUAM this yields the user→roles incidence — the *inverted index*
    /// the co-occurrence algorithm walks.
    pub fn transpose(&self) -> BitMatrix {
        let mut t = BitMatrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            let row = self.row(i);
            for j in row.iter_ones() {
                t.set(j, i, true);
            }
        }
        t
    }

    /// Memory footprint of the payload in bytes (excluding struct overhead).
    pub fn payload_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<u64>()
    }
}

impl fmt::Debug for BitMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "BitMatrix({}x{}, nnz={})",
            self.rows,
            self.cols,
            self.nnz()
        )
    }
}

impl RowMatrix for BitMatrix {
    fn rows(&self) -> usize {
        self.rows
    }

    fn cols(&self) -> usize {
        self.cols
    }

    fn row_norm(&self, i: usize) -> usize {
        self.row(i).count_ones()
    }

    fn row_hamming(&self, i: usize, j: usize) -> usize {
        self.row(i).hamming(self.row(j))
    }

    fn row_dot(&self, i: usize, j: usize) -> usize {
        self.row(i).dot(self.row(j))
    }

    fn rows_equal(&self, i: usize, j: usize) -> bool {
        self.row(i).words == self.row(j).words
    }

    fn row_indices(&self, i: usize) -> Vec<usize> {
        self.row(i).iter_ones().collect()
    }

    fn row_bitvec(&self, i: usize) -> BitVec {
        self.row(i).to_bitvec()
    }

    fn row_signature(&self, i: usize) -> RowSignature {
        // The `hash_indices` key, streamed from the row's ones.
        hash_words(self.row(i).iter_ones().map(|c| c as u64))
    }

    fn col_sums(&self) -> Vec<usize> {
        let mut sums = vec![0usize; self.cols];
        for i in 0..self.rows {
            for j in self.row(i).iter_ones() {
                sums[j] += 1;
            }
        }
        sums
    }
}

/// A borrowed view of one [`BitMatrix`] row.
///
/// Provides the same read-only operations as [`BitVec`] without copying.
#[derive(Clone, Copy)]
pub struct RowRef<'a> {
    words: &'a [u64],
    cols: usize,
}

impl<'a> RowRef<'a> {
    /// Number of bits in the row (the matrix column count).
    #[inline]
    pub fn len(&self) -> usize {
        self.cols
    }

    /// Returns `true` if the row has zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.cols == 0
    }

    /// Returns the bit at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    #[inline]
    pub fn get(&self, index: usize) -> bool {
        assert!(index < self.cols, "bit index {index} out of bounds");
        self.words[index / BITS] & (1u64 << (index % BITS)) != 0
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Hamming distance to another row of the same width.
    ///
    /// # Panics
    ///
    /// Panics if the rows have different widths (rows of one matrix never
    /// do).
    pub fn hamming(&self, other: RowRef<'_>) -> usize {
        assert_eq!(self.cols, other.cols, "row width mismatch");
        self.words
            .iter()
            .zip(other.words)
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum()
    }

    /// Co-occurrence count (`AND` popcount) with another row.
    ///
    /// # Panics
    ///
    /// Panics if the rows have different widths.
    pub fn dot(&self, other: RowRef<'_>) -> usize {
        assert_eq!(self.cols, other.cols, "row width mismatch");
        self.words
            .iter()
            .zip(other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// Iterates over set-bit indices in increasing order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + 'a {
        let words = self.words;
        words.iter().enumerate().flat_map(|(wi, &w)| {
            std::iter::successors(if w == 0 { None } else { Some(w) }, |&cur| {
                let next = cur & (cur - 1);
                if next == 0 {
                    None
                } else {
                    Some(next)
                }
            })
            .map(move |cur| wi * BITS + cur.trailing_zeros() as usize)
        })
    }

    /// Copies the row into an owned [`BitVec`].
    pub fn to_bitvec(&self) -> BitVec {
        debug_assert!(
            self.words
                .last()
                .is_none_or(|&w| w & !tail_mask(self.cols) == 0),
            "tail invariant violated"
        );
        BitVec::from_words(self.cols, self.words.to_vec())
            .expect("matrix rows always satisfy the BitVec invariants")
    }

    /// The underlying words (tail bits zero).
    pub fn as_words(&self) -> &'a [u64] {
        self.words
    }
}

impl fmt::Debug for RowRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RowRef(len={}, ones={})", self.cols, self.count_ones())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_payload() {
        let m = BitMatrix::zeros(3, 130);
        assert_eq!(m.n_rows(), 3);
        assert_eq!(m.n_cols(), 130);
        assert_eq!(m.payload_bytes(), 3 * 3 * 8);
        assert_eq!(m.nnz(), 0);
    }

    #[test]
    fn set_get_and_row_views() {
        let mut m = BitMatrix::zeros(2, 70);
        m.set(0, 0, true);
        m.set(0, 69, true);
        m.set(1, 69, true);
        assert!(m.get(0, 0));
        assert!(!m.get(1, 0));
        assert_eq!(m.row(0).count_ones(), 2);
        assert_eq!(m.row(0).hamming(m.row(1)), 1);
        assert_eq!(m.row(0).dot(m.row(1)), 1);
        assert_eq!(m.row(0).iter_ones().collect::<Vec<_>>(), vec![0, 69]);
        m.set(0, 0, false);
        assert!(!m.get(0, 0));
    }

    #[test]
    fn try_set_bounds() {
        let mut m = BitMatrix::zeros(2, 3);
        assert!(m.try_set(2, 0, true).is_err());
        assert!(m.try_set(0, 3, true).is_err());
        assert!(m.try_set(1, 2, true).is_ok());
    }

    #[test]
    fn from_rows_of_indices_validates() {
        assert!(BitMatrix::from_rows_of_indices(2, 3, &[vec![0]]).is_err());
        assert!(BitMatrix::from_rows_of_indices(1, 3, &[vec![3]]).is_err());
        let m = BitMatrix::from_rows_of_indices(2, 3, &[vec![2, 0], vec![]]).unwrap();
        assert_eq!(m.row_indices(0), vec![0, 2]);
        assert_eq!(m.row_norm(1), 0);
    }

    #[test]
    fn from_bitvec_rows_roundtrip() {
        let rows = vec![
            BitVec::from_indices(100, &[0, 64]).unwrap(),
            BitVec::from_indices(100, &[99]).unwrap(),
        ];
        let m = BitMatrix::from_bitvec_rows(100, &rows).unwrap();
        assert_eq!(m.row_bitvec(0), rows[0]);
        assert_eq!(m.row_bitvec(1), rows[1]);
        let bad = vec![BitVec::new(5)];
        assert!(BitMatrix::from_bitvec_rows(100, &bad).is_err());
    }

    #[test]
    fn set_row_replaces_contents() {
        let mut m = BitMatrix::zeros(2, 10);
        m.set(0, 1, true);
        let r = BitVec::from_indices(10, &[7, 8]).unwrap();
        m.set_row(0, &r).unwrap();
        assert_eq!(m.row_indices(0), vec![7, 8]);
        assert!(m.set_row(5, &r).is_err());
        assert!(m.set_row(0, &BitVec::new(3)).is_err());
    }

    #[test]
    fn transpose_is_involution() {
        let m = BitMatrix::from_rows_of_indices(3, 5, &[vec![0, 4], vec![1], vec![0, 2]]).unwrap();
        let t = m.transpose();
        assert_eq!(t.n_rows(), 5);
        assert_eq!(t.n_cols(), 3);
        assert!(t.get(4, 0));
        assert!(t.get(0, 2));
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn col_sums_match_transpose_row_sums() {
        let m = BitMatrix::from_rows_of_indices(3, 4, &[vec![0, 1], vec![1, 2], vec![1]]).unwrap();
        assert_eq!(m.col_sums(), m.transpose().row_sums());
        assert_eq!(m.col_sums(), vec![1, 3, 1, 0]);
    }

    #[test]
    fn rows_equal_uses_word_compare() {
        let m =
            BitMatrix::from_rows_of_indices(3, 200, &[vec![0, 150], vec![0, 150], vec![0, 151]])
                .unwrap();
        assert!(m.rows_equal(0, 1));
        assert!(!m.rows_equal(0, 2));
        assert_eq!(m.row_signature(0), m.row_signature(1));
    }

    #[test]
    fn iter_rows_covers_all() {
        let m = BitMatrix::from_rows_of_indices(3, 4, &[vec![0], vec![1], vec![2, 3]]).unwrap();
        let norms: Vec<usize> = m.iter_rows().map(|r| r.count_ones()).collect();
        assert_eq!(norms, vec![1, 1, 2]);
    }

    #[test]
    fn debug_output() {
        let m = BitMatrix::from_rows_of_indices(2, 2, &[vec![0], vec![]]).unwrap();
        assert_eq!(format!("{m:?}"), "BitMatrix(2x2, nnz=1)");
    }

    #[test]
    fn serde_roundtrip() {
        let m = BitMatrix::from_rows_of_indices(2, 70, &[vec![0, 69], vec![5]]).unwrap();
        let json = serde_json::to_string(&m).unwrap();
        let back: BitMatrix = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn row_out_of_bounds_panics() {
        BitMatrix::zeros(1, 1).row(1);
    }
}
