//! Brute-force neighbour queries: the exact oracles over any
//! [`PointSet`].
//!
//! DBSCAN's region queries ([`range_query`], batched as
//! [`all_range_queries_with`]), [`knn`] for HNSW recall and
//! [`all_pairs_within`] for MinHash coverage. The pipeline's exact
//! strategy never calls them: it walks the packed distance plane once
//! per side (`rolediet_matrix::PackedRows::for_each_pair_in`), and its
//! neighbour lists are pinned equal to [`all_range_queries_with`] over
//! [`BinaryRows`](crate::metric::BinaryRows).

use crate::metric::PointSet;

/// Ordering for `(index, distance)` candidates: by distance then index.
/// `total_cmp` gives NaN-free inputs the same order as `partial_cmp`
/// while staying total (no panic paths) on adversarial metrics.
fn by_distance_then_index(a: &(usize, f64), b: &(usize, f64)) -> std::cmp::Ordering {
    a.1.total_cmp(&b.1).then(a.0.cmp(&b.0))
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
/// duplicate-free, and including `p` itself.
pub fn all_range_queries_with<P: PointSet + Sync>(
    points: &P,
    eps: f64,
    threads: usize,
) -> Vec<Vec<usize>> {
    rolediet_matrix::parallel::par_map_rows(points.len(), threads, |range| {
        range.map(|p| range_query(points, p, eps)).collect()
    })
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
}
