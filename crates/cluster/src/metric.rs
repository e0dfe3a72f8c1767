//! The [`PointSet`] abstraction and its point sets: binary rows under
//! Hamming distance, scalar and packed.

use rolediet_matrix::{PackedRows, RowMatrix};

/// A finite set of points with pairwise integer distances.
///
/// Both clustering baselines (DBSCAN and the HNSW group finder) only ever
/// need distances *between points of the dataset* — in the paper each role
/// row is indexed and then queried against the same index — so the
/// abstraction is deliberately index-based. Hamming distance is the one
/// metric the workspace uses, so a distance is a count of columns; it
/// fits `u32` because column ids do.
pub trait PointSet {
    /// Number of points.
    fn len(&self) -> usize;

    /// Returns `true` if the set is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Distance between points `i` and `j`. Must be symmetric with
    /// `distance(i, i) == 0`.
    ///
    /// # Panics
    ///
    /// Implementations panic if an index is out of range.
    fn distance(&self, i: usize, j: usize) -> u32;
}

/// Adapter exposing the rows of an assignment matrix as a [`PointSet`]
/// under Hamming distance: the scalar oracle every packed kernel is
/// pinned against.
///
/// The paper uses Hamming for DBSCAN and Manhattan for HNSW; on binary
/// data the two coincide (|a−b| per coordinate is 0 or 1), which the
/// `manhattan_equals_hamming_on_binary_data` test pins down.
///
/// # Examples
///
/// ```
/// use rolediet_cluster::metric::{BinaryRows, PointSet};
/// use rolediet_matrix::CsrMatrix;
///
/// let m = CsrMatrix::from_rows_of_indices(2, 4, &[vec![0, 1], vec![1, 2]]).unwrap();
/// let pts = BinaryRows::new(&m);
/// assert_eq!(pts.distance(0, 1), 2);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct BinaryRows<'a, M> {
    matrix: &'a M,
}

impl<'a, M: RowMatrix> BinaryRows<'a, M> {
    /// Wraps a matrix.
    pub fn new(matrix: &'a M) -> Self {
        BinaryRows { matrix }
    }

    /// The wrapped matrix.
    pub fn matrix(&self) -> &'a M {
        self.matrix
    }
}

impl<M: RowMatrix> PointSet for BinaryRows<'_, M> {
    fn len(&self) -> usize {
        self.matrix.rows()
    }

    fn distance(&self, i: usize, j: usize) -> u32 {
        // At most the row width, and column ids are u32.
        self.matrix.row_hamming(i, j) as u32
    }
}

/// Owned [`PointSet`] over the packed Hamming engine: every distance call
/// runs the PR 7 word-lane/merge-walk kernels
/// ([`PackedRows::hamming`]) instead of scalar `row_hamming`, so HNSW
/// construction rides the same engine as the exact sharded plane.
///
/// Hamming is the one metric the packed kernels compute, and the only
/// one the approximate strategies use (Manhattan ≡ Hamming on binary
/// data).
///
/// # Examples
///
/// ```
/// use rolediet_cluster::metric::{PackedPointSet, PointSet};
/// use rolediet_matrix::CsrMatrix;
///
/// let m = CsrMatrix::from_rows_of_indices(2, 4, &[vec![0, 1], vec![1, 2]]).unwrap();
/// let pts = PackedPointSet::from_matrix(&m, 1);
/// assert_eq!(pts.distance(0, 1), 2);
/// ```
#[derive(Debug, Clone)]
pub struct PackedPointSet {
    rows: PackedRows,
}

impl PackedPointSet {
    /// Packs the rows of `matrix` into the engine's density-adaptive
    /// representation using `threads` workers.
    pub fn from_matrix<M: RowMatrix + Sync + ?Sized>(matrix: &M, threads: usize) -> Self {
        PackedPointSet {
            rows: PackedRows::from_matrix(matrix, threads),
        }
    }

    /// The underlying packed engine.
    pub fn rows(&self) -> &PackedRows {
        &self.rows
    }

    /// Number of set columns in row `i` (used by the pipeline's
    /// empty-row filter).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn row_norm(&self, i: usize) -> usize {
        self.rows.row_norm(i)
    }
}

impl PointSet for PackedPointSet {
    fn len(&self) -> usize {
        self.rows.rows()
    }

    fn distance(&self, i: usize, j: usize) -> u32 {
        // At most the row width, and column ids are u32.
        self.rows.hamming(i, j) as u32
    }
}

/// Geometric point sets for the clustering tests, as binary rows.
#[cfg(test)]
pub(crate) mod fixtures {
    use super::PackedPointSet;
    use rolediet_matrix::CsrMatrix;

    /// Thermometer code of integer points: each axis gets a block of
    /// columns as wide as its largest coordinate, and a point sets the
    /// first `x` columns of the block of an axis where its coordinate is
    /// `x`. The Hamming distance of two rows is then the Manhattan
    /// distance of their points; on a line (`D = 1`) point `i` is the
    /// row with columns `0..i`, and Hamming(i, j) = |i − j|.
    pub(crate) fn thermometer<const D: usize>(points: &[[usize; D]]) -> PackedPointSet {
        let widths: Vec<usize> = (0..D)
            .map(|a| points.iter().map(|p| p[a]).max().unwrap_or(0))
            .collect();
        let rows: Vec<Vec<usize>> = points
            .iter()
            .map(|p| {
                let mut offset = 0;
                let mut row = Vec::new();
                for (a, &w) in widths.iter().enumerate() {
                    row.extend(offset..offset + p[a]);
                    offset += w;
                }
                row
            })
            .collect();
        let cols = widths.iter().sum::<usize>().max(1);
        let m = CsrMatrix::from_rows_of_indices(points.len(), cols, &rows).unwrap();
        PackedPointSet::from_matrix(&m, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rolediet_matrix::CsrMatrix;

    fn m() -> CsrMatrix {
        CsrMatrix::from_rows_of_indices(4, 6, &[vec![0, 1, 2], vec![1, 2, 3], vec![], vec![]])
            .unwrap()
    }

    #[test]
    fn hamming_distances() {
        let m = m();
        let p = BinaryRows::new(&m);
        assert_eq!(p.len(), 4);
        assert_eq!(p.distance(0, 1), 2);
        assert_eq!(p.distance(0, 0), 0);
        assert_eq!(p.distance(2, 3), 0);
        assert_eq!(p.distance(0, 1), p.distance(1, 0));
    }

    #[test]
    fn manhattan_equals_hamming_on_binary_data() {
        // The reason the paper can use HNSW with Manhattan distance for a
        // Hamming problem: per coordinate |a-b| ∈ {0, 1}.
        let m = m();
        let h = BinaryRows::new(&m);
        for i in 0..4 {
            for j in 0..4 {
                let manhattan: u32 = (0..6)
                    .map(|c| u32::from(m.get(i, c)).abs_diff(u32::from(m.get(j, c))))
                    .sum();
                assert_eq!(manhattan, h.distance(i, j));
            }
        }
    }

    #[test]
    fn packed_point_set_matches_binary_rows() {
        let m = m();
        let scalar = BinaryRows::new(&m);
        let packed = PackedPointSet::from_matrix(&m, 2);
        assert_eq!(packed.len(), scalar.len());
        for i in 0..4 {
            assert_eq!(packed.row_norm(i), m.row_norm(i));
            for j in 0..4 {
                assert_eq!(packed.distance(i, j), scalar.distance(i, j), "i={i} j={j}");
            }
        }
        assert_eq!(packed.rows().rows(), 4);
    }

    #[test]
    fn thermometer_rows_measure_manhattan_distance() {
        let pts = fixtures::thermometer(&[[0, 0], [3, 1], [1, 4]]);
        assert_eq!(pts.distance(0, 1), 4);
        assert_eq!(pts.distance(0, 2), 5);
        assert_eq!(pts.distance(1, 2), 5);
        let line = fixtures::thermometer(&[[0], [1], [2], [3], [4]]);
        assert_eq!(line.distance(1, 4), 3);
        assert_eq!(line.distance(4, 4), 0);
    }
}
