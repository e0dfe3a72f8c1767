//! Shared pieces of the `repro` paper-reproduction harness.
//!
//! `repro` times the three strategies of Section III-C on identical
//! generated inputs; this library holds its method wrappers, timing
//! helpers and series formatting. See DESIGN.md §8 for the experiment
//! index and EXPERIMENTS.md for recorded results.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod chart;

use std::time::{Duration, Instant};

use rolediet_core::{Parallelism, SimilarityConfig, Strategy};
use rolediet_matrix::CsrMatrix;
use rolediet_synth::{generate_matrix, MatrixGenConfig};

/// The three methods of the paper, in presentation order.
pub fn paper_strategies() -> Vec<Strategy> {
    vec![
        Strategy::ExactDbscan,
        Strategy::hnsw_default(),
        Strategy::Custom,
    ]
}

/// Times one "find roles sharing the same users" run (the Figure 2/3
/// task) of `strategy` over `matrix` under `parallelism` (the repro
/// `--threads` flag). Returns (elapsed, groups found).
pub fn time_same_groups_with(
    matrix: &CsrMatrix,
    strategy: &Strategy,
    parallelism: Parallelism,
) -> (Duration, usize) {
    let start = Instant::now();
    let groups = rolediet_core::strategy::find_same_groups(matrix, strategy, parallelism);
    (start.elapsed(), groups.len())
}

/// Times one "find roles sharing similar users" run of `strategy`
/// under `parallelism`. Returns (elapsed, pairs found).
pub fn time_similar_pairs_with(
    matrix: &CsrMatrix,
    transpose: &CsrMatrix,
    strategy: &Strategy,
    threshold: usize,
    parallelism: Parallelism,
) -> (Duration, usize) {
    let cfg = SimilarityConfig {
        threshold,
        ..SimilarityConfig::default()
    };
    let start = Instant::now();
    let pairs =
        rolediet_core::strategy::find_similar_pairs(matrix, transpose, strategy, &cfg, parallelism);
    (start.elapsed(), pairs.len())
}

/// Mean and (population) standard deviation of a duration sample.
pub fn mean_std(samples: &[Duration]) -> (f64, f64) {
    let secs: Vec<f64> = samples.iter().map(Duration::as_secs_f64).collect();
    let mean = secs.iter().sum::<f64>() / secs.len() as f64;
    let var = secs.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / secs.len() as f64;
    (mean, var.sqrt())
}

/// Expected number of users assigned per role in sweep matrices.
///
/// Held constant across sweep points: a role's fan-out is a property of
/// the organization, not of how many user columns the matrix happens to
/// have. This is also what makes the Figure-2 curves nearly flat in the
/// number of users, as the paper reports.
pub const SWEEP_ONES_PER_ROW: f64 = 50.0;

/// Generates the paper's synthetic matrix for a sweep point, seeded by
/// the point itself so every method sees the same data.
pub fn sweep_matrix(roles: usize, users: usize, run: usize) -> CsrMatrix {
    sweep_matrix_with(roles, users, run, 0)
}

/// [`sweep_matrix`] with `perturbed` members per planted cluster flipped
/// by one bit — the input for the T5 (`--similar`) sweeps, which need
/// planted Hamming-1 pairs to find.
pub fn sweep_matrix_with(roles: usize, users: usize, run: usize, perturbed: usize) -> CsrMatrix {
    let seed = (roles as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(users as u64)
        .wrapping_add((run as u64) << 32);
    let density = (SWEEP_ONES_PER_ROW / users as f64).min(1.0);
    generate_matrix(MatrixGenConfig {
        density,
        perturbed_per_cluster: perturbed,
        ..MatrixGenConfig::paper(roles, users, seed)
    })
    .sparse()
}

/// One measured point of a sweep series.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The swept variable's value (number of users or roles).
    pub x: usize,
    /// Mean runtime in seconds over the repetitions.
    pub mean_secs: f64,
    /// Standard deviation in seconds.
    pub std_secs: f64,
    /// Findings count (sanity: all methods should roughly agree).
    pub found: usize,
}

/// Renders a sweep series as an aligned table, one row per point.
pub fn format_series(method: &str, points: &[SweepPoint]) -> String {
    let mut out = String::new();
    for p in points {
        out.push_str(&format!(
            "{method:<14} x={:<6} mean={:>10.4}s std={:>8.4}s found={}\n",
            p.x, p.mean_secs, p.std_secs, p.found
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategies_ordered_as_in_paper() {
        let s = paper_strategies();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].name(), "exact-dbscan");
        assert_eq!(s[1].name(), "approx-hnsw");
        assert_eq!(s[2].name(), "custom");
    }

    #[test]
    fn timing_wrappers_work() {
        let m = sweep_matrix(100, 60, 0);
        let t = m.transpose();
        let seq = Parallelism::Sequential;
        for s in paper_strategies() {
            let (d, groups) = time_same_groups_with(&m, &s, seq);
            assert!(d > Duration::ZERO);
            if s.is_exact() {
                assert!(groups > 0, "planted clusters must be found by {}", s.name());
            }
            let (d, _) = time_similar_pairs_with(&m, &t, &s, 1, seq);
            assert!(d > Duration::ZERO);
        }
    }

    #[test]
    fn parallel_timing_wrappers_match_sequential_counts() {
        let m = sweep_matrix(100, 60, 0);
        let t = m.transpose();
        let s = Strategy::Custom;
        let seq = Parallelism::Sequential;
        let (_, seq_groups) = time_same_groups_with(&m, &s, seq);
        let (_, seq_pairs) = time_similar_pairs_with(&m, &t, &s, 1, seq);
        for threads in [2, 4] {
            let p = Parallelism::Threads(threads);
            assert_eq!(time_same_groups_with(&m, &s, p).1, seq_groups);
            assert_eq!(time_similar_pairs_with(&m, &t, &s, 1, p).1, seq_pairs);
        }
    }

    #[test]
    fn same_sweep_point_is_reproducible() {
        let a = sweep_matrix(50, 400, 1);
        let b = sweep_matrix(50, 400, 1);
        assert_eq!(a, b);
        let c = sweep_matrix(50, 400, 2);
        assert_ne!(a, c);
    }

    #[test]
    fn sweep_row_norms_stay_constant_across_user_counts() {
        use rolediet_matrix::RowMatrix;
        for users in [500usize, 2_000, 8_000] {
            let m = sweep_matrix(200, users, 0);
            let mean = m.nnz() as f64 / 200.0;
            assert!(
                (mean - SWEEP_ONES_PER_ROW).abs() < 8.0,
                "users={users}: mean row norm {mean}"
            );
        }
    }

    #[test]
    fn mean_std_math() {
        let samples = vec![Duration::from_secs(1), Duration::from_secs(3)];
        let (m, s) = mean_std(&samples);
        assert!((m - 2.0).abs() < 1e-12);
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn format_series_lines() {
        let pts = vec![SweepPoint {
            x: 1000,
            mean_secs: 0.5,
            std_secs: 0.01,
            found: 25,
        }];
        let s = format_series("custom", &pts);
        assert!(s.contains("custom"));
        assert!(s.contains("x=1000"));
    }
}
