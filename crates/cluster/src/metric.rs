//! The [`PointSet`] abstraction and its point sets: binary rows under
//! Hamming distance (scalar and packed) and dense Euclidean points.

use rolediet_matrix::{PackedRows, RowMatrix};

/// A finite set of points with pairwise distances.
///
/// Both clustering baselines (DBSCAN and the HNSW group finder) only ever
/// need distances *between points of the dataset* — in the paper each role
/// row is indexed and then queried against the same index — so the
/// abstraction is deliberately index-based.
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
    fn distance(&self, i: usize, j: usize) -> f64;
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
/// assert_eq!(pts.distance(0, 1), 2.0);
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

    fn distance(&self, i: usize, j: usize) -> f64 {
        self.matrix.row_hamming(i, j) as f64
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
/// assert_eq!(pts.distance(0, 1), 2.0);
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

    fn distance(&self, i: usize, j: usize) -> f64 {
        self.rows.hamming(i, j) as f64
    }
}

/// Dense real-valued points with Euclidean distance — used to test the
/// clustering algorithms on the classic geometric cases they were designed
/// for, independent of the RBAC encoding.
#[derive(Debug, Clone, Default)]
pub struct VecPoints {
    points: Vec<Vec<f64>>,
}

impl VecPoints {
    /// Wraps a list of equally-sized coordinate vectors.
    ///
    /// # Panics
    ///
    /// Panics if the vectors do not all have the same dimension.
    pub fn new(points: Vec<Vec<f64>>) -> Self {
        if let Some(first) = points.first() {
            assert!(
                points.iter().all(|p| p.len() == first.len()),
                "all points must share one dimension"
            );
        }
        VecPoints { points }
    }

    /// The coordinates of point `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn point(&self, i: usize) -> &[f64] {
        &self.points[i]
    }
}

impl PointSet for VecPoints {
    fn len(&self) -> usize {
        self.points.len()
    }

    fn distance(&self, i: usize, j: usize) -> f64 {
        self.points[i]
            .iter()
            .zip(&self.points[j])
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
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
        assert_eq!(p.distance(0, 1), 2.0);
        assert_eq!(p.distance(0, 0), 0.0);
        assert_eq!(p.distance(2, 3), 0.0);
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
                let manhattan: f64 = (0..6)
                    .map(|c| {
                        let a = m.get(i, c) as u8 as f64;
                        let b = m.get(j, c) as u8 as f64;
                        (a - b).abs()
                    })
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
    fn vec_points_euclidean() {
        let p = VecPoints::new(vec![vec![0.0, 0.0], vec![3.0, 4.0]]);
        assert_eq!(p.distance(0, 1), 5.0);
        assert_eq!(p.point(1), &[3.0, 4.0]);
        assert!(!p.is_empty());
    }

    #[test]
    #[should_panic(expected = "share one dimension")]
    fn vec_points_dimension_checked() {
        VecPoints::new(vec![vec![0.0], vec![1.0, 2.0]]);
    }
}
