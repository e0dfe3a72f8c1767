//! DBSCAN — Density-Based Spatial Clustering of Applications with Noise.
//!
//! A from-scratch implementation of Ester et al. (KDD 1996), matching the
//! semantics of the scikit-learn implementation the paper benchmarks as
//! its *exact clustering* baseline: points with at least `min_pts`
//! neighbours within `eps` (neighbourhoods include the point itself) are
//! *core points*; clusters are grown from core points by breadth-first
//! expansion; non-core points reachable from a core point join its cluster
//! as border points; everything else is noise (label −1).
//!
//! For the role-grouping problem the paper fixes `min_pts = 2` (a group of
//! two akin roles already matters) and sets `eps = 0` to find *identical*
//! roles or `eps = t` to find roles within Hamming distance `t`. (The
//! paper adds a small ε for float comparisons; Hamming distances are
//! integers here, so `eps` is one too.) With `min_pts = 2` and a
//! symmetric distance both ends of every eps-edge are core points, so
//! the clusters are exactly the connected components of the eps-graph.
//! The pipeline's exact strategy relies on that: it unions the distance
//! plane's `d = 0` pairs in one walk and never runs this expansion,
//! which stays as the scalar oracle its groups are pinned against (and
//! the path for `min_pts > 2`, where border points exist).

use serde::{Deserialize, Serialize};

use crate::metric::PointSet;
use crate::neighbors::range_query;

/// Label assigned to noise points.
pub const NOISE: i64 = -1;

/// DBSCAN hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DbscanParams {
    /// Maximum distance between two samples for one to be considered in
    /// the neighbourhood of the other (inclusive).
    pub eps: u32,
    /// Number of samples in a neighbourhood (including the point itself)
    /// for a point to be a core point.
    pub min_pts: usize,
}

impl DbscanParams {
    /// Parameters for finding *identical* rows: `eps = 0`,
    /// `min_pts = 2`.
    pub fn exact_duplicates() -> Self {
        DbscanParams { eps: 0, min_pts: 2 }
    }

    /// Parameters for finding rows within Hamming distance `threshold`:
    /// `eps = threshold`, `min_pts = 2`. A threshold past `u32::MAX`
    /// saturates, which admits the same pairs: no distance exceeds it.
    pub fn similar(threshold: usize) -> Self {
        DbscanParams {
            eps: u32::try_from(threshold).unwrap_or(u32::MAX),
            min_pts: 2,
        }
    }
}

impl Default for DbscanParams {
    fn default() -> Self {
        DbscanParams::exact_duplicates()
    }
}

/// Cluster assignment produced by [`Dbscan::fit`].
///
/// Mirrors scikit-learn's `fit_predict` output: `labels()[i]` is the
/// cluster id of point `i`, or [`NOISE`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusterLabels {
    labels: Vec<i64>,
    n_clusters: usize,
}

impl ClusterLabels {
    /// Per-point labels (cluster id or [`NOISE`]).
    pub fn labels(&self) -> &[i64] {
        &self.labels
    }

    /// Number of clusters found.
    pub fn n_clusters(&self) -> usize {
        self.n_clusters
    }

    /// Number of noise points.
    pub fn n_noise(&self) -> usize {
        self.labels.iter().filter(|&&l| l == NOISE).count()
    }

    /// Clusters as sorted member lists, ordered by cluster id (which is
    /// also the order of their first-discovered member — deterministic).
    pub fn clusters(&self) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); self.n_clusters];
        for (i, &l) in self.labels.iter().enumerate() {
            if l >= 0 {
                out[l as usize].push(i);
            }
        }
        out
    }
}

/// The DBSCAN algorithm. See the [module docs](self) for semantics.
///
/// # Examples
///
/// ```
/// use rolediet_cluster::dbscan::{Dbscan, DbscanParams};
/// use rolediet_cluster::metric::BinaryRows;
/// use rolediet_matrix::CsrMatrix;
///
/// // Points 0, 1, 2 and 90 on a line, thermometer-coded: a row sets the
/// // first x columns, so rows lie as far apart as their points.
/// let rows: Vec<Vec<usize>> = [0, 1, 2, 90].iter().map(|&x| (0..x).collect()).collect();
/// let m = CsrMatrix::from_rows_of_indices(4, 90, &rows).unwrap();
/// let pts = BinaryRows::new(&m);
/// // A dense blob (0, 1, 2) and noise (90).
/// let labels = Dbscan::new(DbscanParams { eps: 1, min_pts: 2 }).fit(&pts);
/// assert_eq!(labels.n_clusters(), 1);
/// assert_eq!(labels.n_noise(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Dbscan {
    params: DbscanParams,
}

impl Dbscan {
    /// Creates a DBSCAN instance with the given parameters.
    pub fn new(params: DbscanParams) -> Self {
        Dbscan { params }
    }

    /// The configured parameters.
    pub fn params(&self) -> DbscanParams {
        self.params
    }

    /// Runs the clustering over `points`: the scalar oracle (see the
    /// [module docs](self)).
    ///
    /// Deterministic: points are seeded in index order, so cluster ids are
    /// stable across runs.
    pub fn fit<P: PointSet>(&self, points: &P) -> ClusterLabels {
        self.expand(points.len(), |p| range_query(points, p, self.params.eps))
    }

    /// Sequential DBSCAN expansion over pre-computed neighbour lists
    /// (`neighborhoods[p]` must be `range_query(points, p, eps)`).
    ///
    /// This is the general-`min_pts` path; it borrows the cached lists
    /// instead of re-running the region queries.
    pub fn fit_cached(&self, neighborhoods: &[Vec<usize>]) -> ClusterLabels {
        self.expand(neighborhoods.len(), |p| neighborhoods[p].as_slice())
    }

    /// Core DBSCAN expansion over a region-query oracle. Generic over the
    /// oracle's return type so cached callers can lend `&[usize]` rows
    /// without cloning while lazy callers keep returning owned `Vec`s.
    fn expand<R, F>(&self, n: usize, mut region: F) -> ClusterLabels
    where
        R: std::borrow::Borrow<[usize]>,
        F: FnMut(usize) -> R,
    {
        const UNVISITED: i64 = -2;
        let mut labels = vec![UNVISITED; n];
        let mut cluster: i64 = 0;
        let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        for p in 0..n {
            if labels[p] != UNVISITED {
                continue;
            }
            let neigh = region(p);
            let neigh = neigh.borrow();
            if neigh.len() < self.params.min_pts {
                labels[p] = NOISE;
                continue;
            }
            // p is a core point: start a new cluster and expand.
            labels[p] = cluster;
            queue.clear();
            for &q in neigh {
                if q != p {
                    queue.push_back(q);
                }
            }
            while let Some(q) = queue.pop_front() {
                if labels[q] == NOISE {
                    labels[q] = cluster; // border point
                    continue;
                }
                if labels[q] != UNVISITED {
                    continue;
                }
                labels[q] = cluster;
                let q_neigh = region(q);
                let q_neigh = q_neigh.borrow();
                if q_neigh.len() >= self.params.min_pts {
                    for &r in q_neigh {
                        if labels[r] == UNVISITED || labels[r] == NOISE {
                            queue.push_back(r);
                        }
                    }
                }
            }
            cluster += 1;
        }
        ClusterLabels {
            labels,
            n_clusters: cluster as usize,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::fixtures::thermometer;
    use crate::metric::BinaryRows;
    use rolediet_matrix::CsrMatrix;

    #[test]
    fn two_blobs_and_noise() {
        // The plane points (0, 0), (0.1, 0), (0, 0.1), (5, 5), (5.1, 5)
        // and (100, 100) scaled by 10, under Manhattan distance: eps 2
        // links the same pairs Euclidean eps 0.2 links.
        let pts = thermometer(&[[0, 0], [1, 0], [0, 1], [50, 50], [51, 50], [1000, 1000]]);
        let labels = Dbscan::new(DbscanParams { eps: 2, min_pts: 2 }).fit(&pts);
        assert_eq!(labels.n_clusters(), 2);
        assert_eq!(labels.n_noise(), 1);
        assert_eq!(labels.clusters(), vec![vec![0, 1, 2], vec![3, 4]]);
        assert_eq!(labels.labels()[5], NOISE);
    }

    #[test]
    fn chain_connectivity_through_core_points() {
        // 0-1-2-3 each 1 apart: with eps=1, every interior point is core
        // (3 neighbours incl. self), endpoints border → one cluster.
        let pts = thermometer(&[[0], [1], [2], [3]]);
        let labels = Dbscan::new(DbscanParams { eps: 1, min_pts: 3 }).fit(&pts);
        assert_eq!(labels.n_clusters(), 1);
        assert_eq!(labels.clusters(), vec![vec![0, 1, 2, 3]]);
    }

    #[test]
    fn border_points_join_their_core_cluster() {
        // min_pts=3, eps=1 on the line 0,1,2,3.5 (scaled by 2: eps=2 on
        // 0,2,4,7): only point 1 is core ({0,1,2}); 0 and 2 are border
        // points of its cluster; 3.5 is noise. Point 0 is visited first
        // and provisionally marked noise, then rescued as a border point
        // — the classic DBSCAN subtlety.
        let pts = thermometer(&[[0], [2], [4], [7]]);
        let labels = Dbscan::new(DbscanParams { eps: 2, min_pts: 3 }).fit(&pts);
        assert_eq!(labels.n_clusters(), 1);
        assert_eq!(labels.clusters(), vec![vec![0, 1, 2]]);
        assert_eq!(labels.labels()[3], NOISE);
    }

    #[test]
    fn all_noise_when_eps_too_small() {
        // The line 0, 1, 2 at eps 0.1, scaled by 10.
        let pts = thermometer(&[[0], [10], [20]]);
        let labels = Dbscan::new(DbscanParams { eps: 1, min_pts: 2 }).fit(&pts);
        assert_eq!(labels.n_clusters(), 0);
        assert_eq!(labels.n_noise(), 3);
        assert!(labels.clusters().is_empty());
    }

    #[test]
    fn exact_duplicates_on_binary_rows() {
        // Paper usage: eps≈0, min_pts=2 finds identical role rows.
        let ruam = CsrMatrix::from_rows_of_indices(
            5,
            4,
            &[vec![0], vec![1, 2], vec![3], vec![1, 2], vec![0]],
        )
        .unwrap();
        let points = BinaryRows::new(&ruam);
        let labels = Dbscan::new(DbscanParams::exact_duplicates()).fit(&points);
        assert_eq!(labels.clusters(), vec![vec![0, 4], vec![1, 3]]);
        assert_eq!(labels.labels()[2], NOISE);
    }

    #[test]
    fn similar_threshold_on_binary_rows() {
        // Rows 0 and 1 differ in exactly one position; row 2 in three.
        let ruam =
            CsrMatrix::from_rows_of_indices(3, 6, &[vec![0, 1, 2], vec![0, 1, 2, 3], vec![4, 5]])
                .unwrap();
        let points = BinaryRows::new(&ruam);
        let labels = Dbscan::new(DbscanParams::similar(1)).fit(&points);
        assert_eq!(labels.clusters(), vec![vec![0, 1]]);
    }

    #[test]
    fn transitive_chaining_of_similarity_is_dbscan_semantics() {
        // Rows: {}, {0}, {0,1} — each adjacent pair at Hamming 1, the ends
        // at Hamming 2. With min_pts=2 every point is core → one chained
        // cluster. This is exactly why "similar" groups need admin review:
        // group diameter can exceed the threshold.
        let ruam = CsrMatrix::from_rows_of_indices(3, 4, &[vec![], vec![0], vec![0, 1]]).unwrap();
        let points = BinaryRows::new(&ruam);
        let labels = Dbscan::new(DbscanParams::similar(1)).fit(&points);
        assert_eq!(labels.clusters(), vec![vec![0, 1, 2]]);
    }

    #[test]
    fn fit_cached_matches_fit() {
        // The line 0, 1, 2, 3.5, 9 at eps 1, scaled by 2.
        let pts = thermometer(&[[0], [2], [4], [7], [18]]);
        for params in [
            DbscanParams { eps: 2, min_pts: 3 },
            DbscanParams::similar(2),
        ] {
            let dbscan = Dbscan::new(params);
            let neigh = crate::neighbors::all_range_queries_with(&pts, params.eps, 4);
            assert_eq!(dbscan.fit_cached(&neigh), dbscan.fit(&pts), "{params:?}");
        }
    }

    #[test]
    fn empty_input() {
        let pts = thermometer::<1>(&[]);
        let labels = Dbscan::default().fit(&pts);
        assert_eq!(labels.n_clusters(), 0);
        assert!(labels.labels().is_empty());
    }

    #[test]
    fn params_constructors() {
        let p = DbscanParams::exact_duplicates();
        assert_eq!(p.eps, 0);
        assert_eq!(p.min_pts, 2);
        let s = DbscanParams::similar(3);
        assert_eq!(s.eps, 3);
        assert_eq!(DbscanParams::similar(usize::MAX).eps, u32::MAX);
    }
}
