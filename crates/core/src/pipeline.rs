//! The end-to-end detection pipeline (Figure 1 of the paper).
//!
//! Step 1 — represent the tripartite graph as its two assignment
//! matrices; Step 2/3 — extract RUAM and RPAM; then run the linear-time
//! detectors (T1–T3) off row/column sums, and on each side build the
//! configured strategy's engine once and ask it for T4 and T5. Every
//! stage is timed.

use std::time::{Duration, Instant};

use rolediet_matrix::CsrMatrix;
use rolediet_model::TripartiteGraph;

use crate::config::DetectionConfig;
use crate::detector::detect_degrees_with;
use crate::report::Report;
use crate::strategy::SideEngine;

/// The detection framework: runs all detectors over a graph or a pair of
/// assignment matrices.
///
/// # Examples
///
/// ```
/// use rolediet_core::{DetectionConfig, Pipeline, Strategy};
/// use rolediet_model::TripartiteGraph;
///
/// let graph = TripartiteGraph::figure1_example();
/// let report = Pipeline::new(DetectionConfig::with_strategy(Strategy::ExactDbscan))
///     .run(&graph);
/// assert_eq!(report.userless_roles, vec![2]); // R03
/// ```
#[derive(Debug, Clone, Default)]
pub struct Pipeline {
    config: DetectionConfig,
}

impl Pipeline {
    /// Creates a pipeline with the given configuration.
    pub fn new(config: DetectionConfig) -> Self {
        Pipeline { config }
    }

    /// The pipeline's configuration.
    pub fn config(&self) -> &DetectionConfig {
        &self.config
    }

    /// Builds an [`IncrementalPipeline`](crate::incremental::IncrementalPipeline)
    /// seeded from `graph` under this pipeline's configuration, so batch
    /// and incremental detection share one [`DetectionConfig`].
    pub fn incremental(&self, graph: &TripartiteGraph) -> crate::incremental::IncrementalPipeline {
        crate::incremental::IncrementalPipeline::new(graph, self.config)
    }

    /// Runs all detectors over a tripartite graph.
    ///
    /// RUAM and RPAM are extracted with the two-pass parallel CSR build
    /// ([`CsrMatrix::from_row_iter_two_pass`]) on the configured number
    /// of workers.
    pub fn run(&self, graph: &TripartiteGraph) -> Report {
        let threads = self.config.parallelism.threads();
        let ((ruam, rpam), matrix_build) = timed(|| {
            (
                graph.ruam_sparse_with(threads),
                graph.rpam_sparse_with(threads),
            )
        });
        let mut report = self.run_on_matrices(&ruam, &rpam);
        report.timings.matrix_build = matrix_build;
        report
    }

    /// Runs all detectors over pre-built RUAM and RPAM matrices (rows =
    /// roles; RUAM columns = users, RPAM columns = permissions).
    ///
    /// # Panics
    ///
    /// Panics if the matrices disagree on the number of roles.
    pub fn run_on_matrices(&self, ruam: &CsrMatrix, rpam: &CsrMatrix) -> Report {
        let cfg = &self.config;
        let mut report = Report {
            config: *cfg,
            ..Report::default()
        };

        let (degrees, took) = timed(|| detect_degrees_with(ruam, rpam, cfg.parallelism.threads()));
        report.timings.degree_detectors = took;
        report.standalone_users = degrees.standalone_users;
        report.standalone_permissions = degrees.standalone_permissions;
        report.standalone_roles = degrees.standalone_roles;
        report.userless_roles = degrees.userless_roles;
        report.permless_roles = degrees.permless_roles;
        report.single_user_roles = degrees.single_user_roles;
        report.single_permission_roles = degrees.single_permission_roles;

        // One engine per side, built once and asked both T4 and T5. A
        // distance strategy finds and splits its verified pairs while it
        // builds, so its T4/T5 stages time only handing them out.
        let timings = &mut report.timings;
        let sides = [
            (
                ruam,
                &mut report.same_user_groups,
                &mut timings.same_users,
                &mut report.similar_user_pairs,
                &mut timings.similar_users,
            ),
            (
                rpam,
                &mut report.same_permission_groups,
                &mut timings.same_permissions,
                &mut report.similar_permission_pairs,
                &mut timings.similar_permissions,
            ),
        ];
        for (matrix, groups, same_time, pairs, similar_time) in sides {
            let (engine, took) = timed(|| SideEngine::build(matrix, cfg));
            timings.engine_build += took;
            timings.distance_shards = timings.distance_shards.max(engine.shard_count());
            (*groups, *same_time) = timed(|| engine.same_groups(cfg.include_empty_duplicates));
            if !cfg.skip_similarity {
                (*pairs, *similar_time) = timed(|| engine.similar_pairs(&cfg.similarity));
            }
        }
        report
    }
}

/// Runs `f` and returns its result with the wall-clock time it took —
/// the pipeline's one clock read; the durations land only in
/// `Report::timings`.
fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Strategy;
    use crate::report::SimilarPair;

    #[test]
    fn figure1_full_report() {
        let graph = TripartiteGraph::figure1_example();
        let report = Pipeline::new(DetectionConfig::default()).run(&graph);
        // T1: P01 standalone (index 0); no standalone users/roles.
        assert_eq!(report.standalone_permissions, vec![0]);
        assert!(report.standalone_users.is_empty());
        assert!(report.standalone_roles.is_empty());
        // T2: R03 (index 2) userless; R02 (index 1) permless.
        assert_eq!(report.userless_roles, vec![2]);
        assert_eq!(report.permless_roles, vec![1]);
        // T3: R01 and R05 single-user; R03 single-permission.
        assert_eq!(report.single_user_roles, vec![0, 4]);
        assert_eq!(report.single_permission_roles, vec![2]);
        // T4: {R02, R04} same users; {R04, R05} same permissions.
        assert_eq!(report.same_user_groups, vec![vec![1, 3]]);
        assert_eq!(report.same_permission_groups, vec![vec![3, 4]]);
        // Consolidating both groups saves 2 of 5 roles.
        assert_eq!(
            report.reducible_roles(crate::Side::User)
                + report.reducible_roles(crate::Side::Permission),
            2
        );
    }

    #[test]
    fn all_strategies_agree_on_figure1() {
        let graph = TripartiteGraph::figure1_example();
        let baseline = Pipeline::new(DetectionConfig::default()).run(&graph);
        for strategy in [
            Strategy::ExactDbscan,
            Strategy::hnsw_default(),
            Strategy::minhash_default(),
        ] {
            let report = Pipeline::new(DetectionConfig::with_strategy(strategy)).run(&graph);
            assert_eq!(report.same_user_groups, baseline.same_user_groups);
            assert_eq!(
                report.same_permission_groups,
                baseline.same_permission_groups
            );
            // Degree findings are strategy-independent.
            assert_eq!(report.single_user_roles, baseline.single_user_roles);
        }
    }

    #[test]
    fn skip_similarity_flag() {
        let graph = TripartiteGraph::figure1_example();
        let cfg = DetectionConfig {
            skip_similarity: true,
            ..DetectionConfig::default()
        };
        let report = Pipeline::new(cfg).run(&graph);
        assert!(report.similar_user_pairs.is_empty());
        assert!(report.similar_permission_pairs.is_empty());
        assert_eq!(report.timings.similar_users, std::time::Duration::ZERO);
    }

    #[test]
    fn similar_pairs_on_crafted_graph() {
        // Two roles sharing 3 users, one differing in a 4th.
        let mut g = TripartiteGraph::with_counts(4, 2, 1);
        for u in 0..3 {
            g.assign_user(rolediet_model::RoleId(0), rolediet_model::UserId(u))
                .unwrap();
            g.assign_user(rolediet_model::RoleId(1), rolediet_model::UserId(u))
                .unwrap();
        }
        g.assign_user(rolediet_model::RoleId(1), rolediet_model::UserId(3))
            .unwrap();
        let report = Pipeline::new(DetectionConfig::default()).run(&g);
        assert_eq!(report.similar_user_pairs, vec![SimilarPair::new(0, 1, 1)]);
        assert!(report.same_user_groups.is_empty());
    }

    #[test]
    fn empty_rows_excluded_from_duplicates_by_default() {
        // Two userless roles and two permless roles: T2 findings, not T4
        // groups — unless include_empty_duplicates is set.
        let mut g = TripartiteGraph::with_counts(2, 4, 2);
        for r in [0u32, 1] {
            g.assign_user(rolediet_model::RoleId(r), rolediet_model::UserId(0))
                .unwrap();
            g.assign_user(rolediet_model::RoleId(r), rolediet_model::UserId(1))
                .unwrap();
        }
        for r in [2u32, 3] {
            g.grant_permission(rolediet_model::RoleId(r), rolediet_model::PermissionId(0))
                .unwrap();
        }
        for strategy in [
            Strategy::Custom,
            Strategy::ExactDbscan,
            Strategy::hnsw_default(),
            Strategy::minhash_default(),
        ] {
            let name = strategy.name();
            let report = Pipeline::new(DetectionConfig::with_strategy(strategy)).run(&g);
            assert_eq!(report.userless_roles, vec![2, 3], "{name}");
            assert_eq!(report.permless_roles, vec![0, 1], "{name}");
            // Roles 0,1 share users {0,1}; roles 2,3 share permission {0} —
            // those are real duplicate groups. The empty sides are not.
            assert_eq!(report.same_user_groups, vec![vec![0, 1]], "{name}");
            assert_eq!(report.same_permission_groups, vec![vec![2, 3]], "{name}");

            let cfg = DetectionConfig {
                include_empty_duplicates: true,
                ..DetectionConfig::with_strategy(strategy)
            };
            let report = Pipeline::new(cfg).run(&g);
            let both = vec![vec![0, 1], vec![2, 3]];
            assert_eq!(report.same_user_groups, both, "{name}");
            assert_eq!(report.same_permission_groups, both, "{name}");
        }
    }

    #[test]
    fn empty_graph_produces_empty_report() {
        let report = Pipeline::new(DetectionConfig::default()).run(&TripartiteGraph::new());
        assert_eq!(report.total_findings(), 0);
    }

    #[test]
    fn timings_are_recorded() {
        let graph = TripartiteGraph::figure1_example();
        let report = Pipeline::new(DetectionConfig::default()).run(&graph);
        // total() includes all stages; it must be at least matrix_build.
        assert!(report.timings.total() >= report.timings.matrix_build);
    }

    #[test]
    fn engine_stage_timings_are_recorded() {
        use crate::config::Parallelism;
        let graph = TripartiteGraph::figure1_example();
        let cfg = DetectionConfig {
            parallelism: Parallelism::Threads(4),
            ..DetectionConfig::default()
        };
        let report = Pipeline::new(cfg).run(&graph);
        assert_eq!(report.timings.distance_shards, 0, "custom builds no plane");

        // The exact-DBSCAN strategy pays the distance plane on the
        // packed engine.
        let cfg = DetectionConfig {
            parallelism: Parallelism::Threads(4),
            ..DetectionConfig::with_strategy(Strategy::ExactDbscan)
        };
        let report = Pipeline::new(cfg).run(&graph);
        assert_eq!(
            report.timings.distance_shards, 1,
            "no memory budget → one block over the whole matrix"
        );
    }

    #[test]
    fn memory_budget_shards_the_distance_plane_without_changing_results() {
        use crate::config::{Parallelism, SimilarityConfig};
        let graph = TripartiteGraph::figure1_example();
        let base_cfg = DetectionConfig {
            similarity: SimilarityConfig {
                include_disjoint: true,
                ..SimilarityConfig::default()
            },
            ..DetectionConfig::with_strategy(Strategy::ExactDbscan)
        };
        let baseline = Pipeline::new(base_cfg).run(&graph);
        assert_eq!(baseline.timings.distance_shards, 1);
        // A 1-byte budget forces one-row shards; results must not move.
        for budget in [1usize, 10_000] {
            for threads in [1, 2, 4] {
                let cfg = DetectionConfig {
                    memory_budget_bytes: budget,
                    parallelism: Parallelism::Threads(threads),
                    ..base_cfg
                };
                let mut report = Pipeline::new(cfg).run(&graph);
                if budget == 1 {
                    assert!(
                        report.timings.distance_shards > 1,
                        "tiny budget must force multiple shards, got {}",
                        report.timings.distance_shards
                    );
                }
                report.timings = baseline.timings;
                report.config = baseline.config;
                assert_eq!(report, baseline, "budget={budget} threads={threads}");
            }
        }
        // Strategies that never build the engine report zero shards.
        let custom = Pipeline::new(DetectionConfig::default()).run(&graph);
        assert_eq!(custom.timings.distance_shards, 0);
    }

    #[test]
    fn reports_are_identical_across_thread_counts() {
        use crate::config::{Parallelism, SimilarityConfig};
        let graph = TripartiteGraph::figure1_example();
        let base_cfg = DetectionConfig {
            similarity: SimilarityConfig {
                include_disjoint: true,
                ..SimilarityConfig::default()
            },
            ..DetectionConfig::default()
        };
        let baseline = Pipeline::new(base_cfg).run(&graph);
        for threads in [2, 4, 8] {
            let cfg = DetectionConfig {
                parallelism: Parallelism::Threads(threads),
                ..base_cfg
            };
            let mut report = Pipeline::new(cfg).run(&graph);
            // Timings and config legitimately differ between runs.
            report.timings = baseline.timings;
            report.config = baseline.config;
            assert_eq!(report, baseline, "threads={threads}");
        }
    }
}
