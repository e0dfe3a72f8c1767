//! Brute-force neighbour queries, and the range queries' engine-backed
//! fast paths.
//!
//! The generic scans over [`PointSet`] are the exact oracles: DBSCAN's
//! region queries, [`knn`] for HNSW recall and [`all_pairs_within`] for
//! MinHash coverage. The one query the pipeline runs at scale — all `n`
//! range queries over binary rows under Hamming distance, the metric of
//! the paper's T4/T5 detectors — has two fast paths riding the
//! [`PackedRows`] bounded-distance engine (norm-band pruning +
//! early-exit kernels): [`all_range_queries_packed`] and, under a memory
//! budget, [`all_range_queries_sharded`]. Both are pinned bit-identical
//! to the scalar [`all_range_queries_with`].

use rolediet_matrix::PackedRows;

use crate::metric::PointSet;

/// Ordering for `(index, distance)` candidates: by distance then index.
/// `total_cmp` gives NaN-free inputs the same order as `partial_cmp`
/// while staying total (no panic paths) on adversarial metrics.
fn by_distance_then_index(a: &(usize, f64), b: &(usize, f64)) -> std::cmp::Ordering {
    a.1.total_cmp(&b.1).then(a.0.cmp(&b.0))
}

/// Integer Hamming bound equivalent to a float `eps`: Hamming distances
/// are integers, so `d as f64 <= eps` iff `d <= floor(eps)`. `None` when
/// `eps` is negative or NaN — no distance (not even the self-distance 0)
/// qualifies.
fn hamming_bound(eps: f64) -> Option<usize> {
    if eps >= 0.0 {
        Some(eps as usize)
    } else {
        None
    }
}

/// All points within distance `eps` of point `i` (inclusive), including
/// `i` itself, ascending by index.
///
/// # Panics
///
/// Panics if `i` is out of range.
pub fn range_query<P: PointSet>(points: &P, i: usize, eps: f64) -> Vec<usize> {
    (0..points.len())
        .filter(|&j| points.distance(i, j) <= eps)
        .collect()
}

/// All `n` range queries at once, computed on `threads` workers via the
/// shared [`parallel`](rolediet_matrix::parallel) substrate and joined
/// in range order (deterministic for every thread count).
///
/// Row `p` is exactly [`range_query`]`(points, p, eps)`: ascending,
/// duplicate-free, and including `p` itself — so consumers (the DBSCAN
/// grouping kernel) never need a per-row dedup pass.
pub fn all_range_queries_with<P: PointSet + Sync>(
    points: &P,
    eps: f64,
    threads: usize,
) -> Vec<Vec<usize>> {
    rolediet_matrix::parallel::par_map_rows(points.len(), threads, |range| {
        range.map(|p| range_query(points, p, eps)).collect()
    })
}

/// [`all_range_queries_with`] for binary rows under Hamming distance,
/// riding the [`PackedRows`] bounded-distance engine: the float `eps` is
/// converted to its exact integer bound and every query row walks only
/// its norm band with early-exit kernels.
///
/// Output is bit-identical to the scalar scan over
/// [`BinaryRows`](crate::metric::BinaryRows) at every thread count
/// (pinned in tests); the scalar path survives as the test oracle.
pub fn all_range_queries_packed(rows: &PackedRows, eps: f64, threads: usize) -> Vec<Vec<usize>> {
    match hamming_bound(eps) {
        Some(bound) => rows.range_queries_within(bound, threads),
        None => vec![Vec::new(); rows.rows()],
    }
}

/// [`all_range_queries_packed`] under an explicit memory budget: the
/// matrix is split into norm-contiguous shard blocks by
/// [`PackedShards`](rolediet_matrix::PackedShards) and streamed as
/// shard×shard tile passes, so only two shard blocks (plus the output)
/// are resident at a time.
///
/// Output is bit-identical to [`all_range_queries_packed`] over
/// `PackedRows::from_matrix(matrix, ..)` — and hence to the scalar
/// oracle — at every thread count *and* every budget (pinned in tests).
/// `memory_budget_bytes == 0` means unbounded: one shard, delegating
/// byte-for-byte to the flat engine.
pub fn all_range_queries_sharded<M: rolediet_matrix::RowMatrix + Sync + ?Sized>(
    matrix: &M,
    eps: f64,
    memory_budget_bytes: usize,
    threads: usize,
) -> Vec<Vec<usize>> {
    match hamming_bound(eps) {
        Some(bound) => rolediet_matrix::PackedShards::new(matrix, memory_budget_bytes, threads)
            .range_queries_within(bound),
        None => vec![Vec::new(); matrix.rows()],
    }
}

/// The `k` nearest neighbours of point `i` (excluding `i`), sorted by
/// distance then index. Returns fewer than `k` when the set is small.
///
/// # Panics
///
/// Panics if `i` is out of range.
pub fn knn<P: PointSet>(points: &P, i: usize, k: usize) -> Vec<(usize, f64)> {
    let mut all: Vec<(usize, f64)> = (0..points.len())
        .filter(|&j| j != i)
        .map(|j| (j, points.distance(i, j)))
        .collect();
    if k == 0 {
        return Vec::new();
    }
    // Select the k smallest before sorting: O(n + k log k) instead of
    // sorting all n distances. The comparator is a total order over
    // unique (distance, index) keys, so the kept prefix — and the final
    // sort — match the full-sort output exactly (tie-break pinned by
    // `knn_ties_break_by_index`).
    if all.len() > k {
        all.select_nth_unstable_by(k, by_distance_then_index);
        all.truncate(k);
    }
    all.sort_unstable_by(by_distance_then_index);
    all
}

/// Every unordered pair `(i, j)`, `i < j`, within distance `eps` —
/// the exact ground-truth pair set for a similarity threshold.
pub fn all_pairs_within<P: PointSet>(points: &P, eps: f64) -> Vec<(usize, usize)> {
    let n = points.len();
    let mut out = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            if points.distance(i, j) <= eps {
                out.push((i, j));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::VecPoints;

    fn line() -> VecPoints {
        VecPoints::new(vec![vec![0.0], vec![1.0], vec![2.0], vec![10.0]])
    }

    #[test]
    fn range_query_includes_self() {
        let p = line();
        assert_eq!(range_query(&p, 0, 1.0), vec![0, 1]);
        assert_eq!(range_query(&p, 1, 1.0), vec![0, 1, 2]);
        assert_eq!(range_query(&p, 3, 0.5), vec![3]);
    }

    #[test]
    fn all_range_queries_match_per_point_queries() {
        let p = line();
        let expected: Vec<Vec<usize>> = (0..4).map(|i| range_query(&p, i, 1.0)).collect();
        for threads in [1usize, 2, 4, 8] {
            assert_eq!(
                all_range_queries_with(&p, 1.0, threads),
                expected,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn knn_sorted_by_distance() {
        let p = line();
        let nn = knn(&p, 0, 2);
        assert_eq!(nn, vec![(1, 1.0), (2, 2.0)]);
        let nn = knn(&p, 0, 10);
        assert_eq!(nn.len(), 3, "never returns self or phantom points");
    }

    #[test]
    fn knn_ties_break_by_index() {
        let p = VecPoints::new(vec![vec![0.0], vec![1.0], vec![-1.0]]);
        let nn = knn(&p, 0, 2);
        assert_eq!(nn, vec![(1, 1.0), (2, 1.0)]);
    }

    #[test]
    fn all_pairs_within_eps() {
        let p = line();
        assert_eq!(all_pairs_within(&p, 1.0), vec![(0, 1), (1, 2)]);
        assert_eq!(all_pairs_within(&p, 2.0), vec![(0, 1), (0, 2), (1, 2)]);
        assert!(all_pairs_within(&p, 0.5).is_empty());
    }

    /// A random binary matrix with an empty row and a duplicate pair,
    /// plus its scalar point-set view and both engine representations.
    fn binary_fixture() -> (rolediet_matrix::CsrMatrix, Vec<PackedRows>) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        let mut rows: Vec<Vec<usize>> = (0..60)
            .map(|_| (0..90).filter(|_| rng.gen_bool(0.15)).collect())
            .collect();
        rows.push(Vec::new());
        rows.push(rows[0].clone());
        let m = rolediet_matrix::CsrMatrix::from_rows_of_indices(62, 90, &rows).unwrap();
        let packed = vec![
            PackedRows::packed_from_matrix(&m, 3),
            PackedRows::sparse_from_matrix(&m, 3),
        ];
        (m, packed)
    }

    #[test]
    fn packed_range_queries_match_scalar_oracle() {
        use crate::metric::BinaryRows;
        let (m, reprs) = binary_fixture();
        let points = BinaryRows::new(&m);
        for eps in [-1.0, 0.0, 1e-9, 1.0 + 1e-9, 3.0 + 1e-9, 7.5] {
            let expected = all_range_queries_with(&points, eps, 1);
            for rows in &reprs {
                for threads in [1usize, 2, 4, 8] {
                    assert_eq!(
                        all_range_queries_packed(rows, eps, threads),
                        expected,
                        "eps={eps} threads={threads} packed={}",
                        rows.is_packed()
                    );
                }
            }
        }
    }

    #[test]
    fn sharded_range_queries_match_scalar_oracle_under_tiny_budgets() {
        use crate::metric::BinaryRows;
        let (m, _) = binary_fixture();
        let points = BinaryRows::new(&m);
        for eps in [-1.0, 0.0, 1.0 + 1e-9, 3.0 + 1e-9] {
            let expected = all_range_queries_with(&points, eps, 1);
            // Budget 1 forces one-row shards; 2 KiB a handful; 0 means a
            // single shard delegating to the flat engine.
            for budget in [1usize, 2048, 0] {
                for threads in [1usize, 2, 4, 8] {
                    assert_eq!(
                        all_range_queries_sharded(&m, eps, budget, threads),
                        expected,
                        "eps={eps} budget={budget} threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn packed_range_queries_handle_empty_input() {
        let empty = PackedRows::from_matrix(&rolediet_matrix::CsrMatrix::zeros(0, 4), 1);
        assert!(all_range_queries_packed(&empty, 1.0, 2).is_empty());
    }
}
