//! Property tests for the detection core: the custom algorithm against
//! brute force, suggestion-engine safety, and report coherence.

use proptest::collection::vec;
use proptest::prelude::*;

use rolediet_cluster::dbscan::{Dbscan, DbscanParams};
use rolediet_cluster::metric::BinaryRows;
use rolediet_cluster::neighbors::all_range_queries_with;
use rolediet_core::config::{DetectionConfig, Parallelism, SimilarityConfig};
use rolediet_core::cooccur::{
    disjoint_supplement_naive, same_groups, same_groups_via_indicator, similar_pairs,
    similar_pairs_parallel,
};
use rolediet_core::detector::{detect_degrees, detect_degrees_with};
use rolediet_core::incremental::{IncrementalPipeline, ReportDelta};
use rolediet_core::pipeline::Pipeline;
use rolediet_core::report::{SimilarPair, StageTimings};
use rolediet_core::strategy::DbscanEngine;
use rolediet_core::suggest::{merge_delta, redundant_roles, subset_pairs};
use rolediet_core::validate::validate_report_against_graph;
use rolediet_matrix::ops::for_each_cooccurring_pair;
use rolediet_matrix::{CsrMatrix, RowMatrix};
use rolediet_model::{EdgeDelta, PermissionId, RoleId, TripartiteGraph, UserId};
use rolediet_synth::churn::{ChurnConfig, ChurnSimulator, ChurnWeights};

fn matrix_inputs() -> impl Strategy<Value = (usize, usize, Vec<Vec<usize>>)> {
    (2usize..24, 2usize..16).prop_flat_map(|(rows, cols)| {
        vec(vec(0..cols, 0..=5), rows).prop_map(move |data| (rows, cols, data))
    })
}

/// A random (RUAM, RPAM) pair over the same roles, with one empty row
/// and one duplicate of row 0 appended to each side so the parallel
/// determinism tests always cover empty and duplicate rows.
fn matrix_pair_inputs() -> impl Strategy<Value = (CsrMatrix, CsrMatrix)> {
    (2usize..16, 2usize..12, 2usize..12).prop_flat_map(|(rows, ucols, pcols)| {
        (
            vec(vec(0..ucols, 0..=5), rows),
            vec(vec(0..pcols, 0..=5), rows),
        )
            .prop_map(move |(mut ud, mut pd)| {
                for data in [&mut ud, &mut pd] {
                    data.push(Vec::new());
                    data.push(data[0].clone());
                }
                (
                    CsrMatrix::from_rows_of_indices(rows + 2, ucols, &ud).unwrap(),
                    CsrMatrix::from_rows_of_indices(rows + 2, pcols, &pd).unwrap(),
                )
            })
    })
}

fn graph_inputs() -> impl Strategy<Value = TripartiteGraph> {
    (2usize..8, 2usize..10, 2usize..8).prop_flat_map(|(users, roles, perms)| {
        let ue = vec((0..roles, 0..users), 0..roles * 3);
        let pe = vec((0..roles, 0..perms), 0..roles * 3);
        (ue, pe).prop_map(move |(ue, pe)| {
            let mut g = TripartiteGraph::with_counts(users, roles, perms);
            for (r, u) in ue {
                g.assign_user(RoleId::from_index(r), UserId::from_index(u))
                    .unwrap();
            }
            for (r, p) in pe {
                g.grant_permission(RoleId::from_index(r), PermissionId::from_index(p))
                    .unwrap();
            }
            g
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn signature_and_indicator_oracles_agree((rows, cols, data) in matrix_inputs()) {
        let m = CsrMatrix::from_rows_of_indices(rows, cols, &data).unwrap();
        prop_assert_eq!(
            same_groups(&m),
            same_groups_via_indicator(&m, &m.transpose())
        );
    }

    /// The prefix probe against the paper's formulation: the T5 pairs at
    /// 1 and 4 threads equal the co-occurrence walk filtered to
    /// `1 ≤ d ≤ t`, plus the naive disjoint supplement when it is on, in
    /// the finalize order. Every reported distance is the true one.
    #[test]
    fn similar_pairs_match_the_cooccurrence_walk(
        (rows, cols, mut data) in matrix_inputs(),
        threshold in prop_oneof![1usize..5, Just(usize::MAX)],
        include_disjoint in proptest::bool::ANY,
    ) {
        // An empty row and a duplicate of row 0, as in
        // `matrix_pair_inputs`.
        data.push(Vec::new());
        data.push(data[0].clone());
        let rows = rows + 2;
        let m = CsrMatrix::from_rows_of_indices(rows, cols, &data).unwrap();
        let tr = m.transpose();
        let cfg = SimilarityConfig {
            threshold,
            include_disjoint,
            ..SimilarityConfig::default()
        };
        let norms = m.row_sums();
        let mut expected = Vec::new();
        for_each_cooccurring_pair(&m, &tr, |i, j, g| {
            let d = norms[i] + norms[j] - 2 * g;
            if d >= 1 && d <= threshold {
                expected.push(SimilarPair::new(i, j, d));
            }
        });
        if include_disjoint {
            expected.extend(disjoint_supplement_naive(&m, threshold));
        }
        expected.sort_unstable_by_key(|p| (p.distance, p.a, p.b));
        let pairs = similar_pairs(&m, &tr, &cfg);
        prop_assert_eq!(&pairs, &expected);
        prop_assert_eq!(&similar_pairs_parallel(&m, &tr, &cfg, 4), &expected);
        // Reported distances are exact and within range.
        for p in &pairs {
            prop_assert_eq!(m.row_hamming(p.a, p.b), p.distance);
            prop_assert!(p.distance >= 1 && p.distance <= threshold);
            prop_assert!(p.a < p.b);
        }
        // With disjoint pairs included the result is complete.
        if include_disjoint {
            let mut complete = 0usize;
            for i in 0..rows {
                for j in (i + 1)..rows {
                    let d = m.row_hamming(i, j);
                    if d >= 1 && d <= threshold {
                        complete += 1;
                    }
                }
            }
            prop_assert_eq!(pairs.len(), complete);
        }
    }

    #[test]
    fn subset_pairs_match_brute_force((rows, cols, data) in matrix_inputs()) {
        let m = CsrMatrix::from_rows_of_indices(rows, cols, &data).unwrap();
        let got = subset_pairs(&m, &m.transpose());
        let mut expected = Vec::new();
        for i in 0..rows {
            for j in 0..rows {
                if i == j || m.row_norm(i) == 0 {
                    continue;
                }
                let g = m.row_dot(i, j);
                if g == m.row_norm(i) && m.row_norm(j) > m.row_norm(i) {
                    expected.push(rolediet_core::suggest::SubsetPair { sub: i, sup: j });
                }
            }
        }
        expected.sort_unstable();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn redundant_role_deletion_is_always_safe(graph in graph_inputs()) {
        let candidates: Vec<RoleId> =
            (0..graph.n_roles()).map(RoleId::from_index).collect();
        let redundant = redundant_roles(&graph, &candidates);
        // Delete all reported-redundant roles at once (the greedy chain
        // guarantees this is collectively safe).
        let drop: std::collections::HashSet<usize> =
            redundant.iter().map(|r| r.role.index()).collect();
        let mut next = 0usize;
        let map: Vec<Option<usize>> = (0..graph.n_roles())
            .map(|r| {
                if drop.contains(&r) {
                    None
                } else {
                    let t = next;
                    next += 1;
                    Some(t)
                }
            })
            .collect();
        let g2 = graph.rebuild_with_role_map(&map, next).unwrap();
        for u in 0..graph.n_users() {
            let uid = UserId::from_index(u);
            prop_assert_eq!(
                graph.effective_permissions(uid),
                g2.effective_permissions(uid),
                "user {} lost access after redundant-role deletion", u
            );
        }
    }

    #[test]
    fn merge_delta_predicts_apply_exactly(graph in graph_inputs(), a_raw in 0usize..10, b_raw in 0usize..10) {
        let n = graph.n_roles();
        let (a, b) = (a_raw % n, b_raw % n);
        prop_assume!(a != b);
        let delta = merge_delta(&graph, RoleId::from_index(a), RoleId::from_index(b));
        // Apply the merge and compare real gains against the prediction.
        let mut next = 0usize;
        let map: Vec<Option<usize>> = (0..n)
            .map(|r| {
                if r == b {
                    None
                } else {
                    let t = next;
                    next += 1;
                    Some(t)
                }
            })
            .collect();
        // b folds into a.
        let mut map = map;
        map[b] = map[a];
        let merged = graph.rebuild_with_role_map(&map, next).unwrap();
        let mut real_gains = Vec::new();
        for u in 0..graph.n_users() {
            let uid = UserId::from_index(u);
            let before = graph.effective_permissions(uid);
            let after = merged.effective_permissions(uid);
            prop_assert!(after.is_superset(&before), "merges never revoke");
            let gains: Vec<PermissionId> = after.difference(&before).copied().collect();
            if !gains.is_empty() {
                real_gains.push((uid, gains));
            }
        }
        prop_assert_eq!(real_gains, delta.user_gains);
    }

    #[test]
    fn pipeline_reports_identical_across_thread_counts(
        (ruam, rpam) in matrix_pair_inputs(),
        include_disjoint in proptest::bool::ANY,
    ) {
        let base_cfg = DetectionConfig {
            similarity: SimilarityConfig {
                include_disjoint,
                ..SimilarityConfig::default()
            },
            ..DetectionConfig::default()
        };
        let baseline = Pipeline::new(base_cfg).run_on_matrices(&ruam, &rpam);
        for threads in [2usize, 4, 8] {
            let cfg = DetectionConfig {
                parallelism: Parallelism::Threads(threads),
                ..base_cfg
            };
            let mut report = Pipeline::new(cfg).run_on_matrices(&ruam, &rpam);
            // Timings and config legitimately differ between runs; every
            // other field must match the sequential baseline exactly.
            report.timings = baseline.timings;
            report.config = baseline.config;
            prop_assert_eq!(&report, &baseline, "threads={}", threads);
        }
    }

    #[test]
    fn dbscan_pipeline_reports_identical_across_thread_counts(graph in graph_inputs()) {
        // Whole-Report bit-identity through `Pipeline::run` under the
        // exact-DBSCAN strategy, whose T4/T5 grouping now runs on the
        // parallel connected-components kernel (min_pts = 2 fast path).
        let base_cfg =
            DetectionConfig::with_strategy(rolediet_core::config::Strategy::ExactDbscan);
        let baseline = Pipeline::new(base_cfg).run(&graph);
        for threads in [1usize, 2, 4, 8] {
            let cfg = DetectionConfig {
                parallelism: Parallelism::Threads(threads),
                ..base_cfg
            };
            let mut report = Pipeline::new(cfg).run(&graph);
            report.timings = baseline.timings;
            report.config = baseline.config;
            prop_assert_eq!(&report, &baseline, "threads={}", threads);
        }
    }

    /// The exact strategy against the paper's formulation: its T4
    /// groups are the clusters of the scalar DBSCAN expansion at
    /// `eps = 0`, its T5 pairs are every pair at `1 ≤ d ≤ t` (disjoint
    /// ones included), at 1 and 4 threads, resident and one shard per
    /// row. The engine's neighbour lists are the scalar region queries.
    #[test]
    fn exact_strategy_matches_dbscan_fit_and_brute_force(
        (rows, cols, mut data) in matrix_inputs(),
        threshold in 1usize..4,
    ) {
        data.extend([Vec::new(), Vec::new(), data[0].clone()]);
        let rows = rows + 3;
        let m = CsrMatrix::from_rows_of_indices(rows, cols, &data).unwrap();
        let points = BinaryRows::new(&m);
        let clusters = Dbscan::new(DbscanParams::exact_duplicates()).fit(&points).clusters();
        let mut brute = Vec::new();
        for i in 0..rows {
            for j in (i + 1)..rows {
                let d = m.row_hamming(i, j);
                if (1..=threshold).contains(&d) {
                    brute.push(SimilarPair::new(i, j, d));
                }
            }
        }
        brute.sort_unstable_by_key(|p| (p.distance, p.a, p.b));
        let duplicate_lists =
            all_range_queries_with(&points, DbscanParams::exact_duplicates().eps, 1);
        let similar_lists =
            all_range_queries_with(&points, DbscanParams::similar(threshold).eps, 1);
        for threads in [1usize, 4] {
            for budget in [0usize, 1] {
                let cfg = DetectionConfig {
                    similarity: SimilarityConfig {
                        threshold,
                        ..SimilarityConfig::default()
                    },
                    include_empty_duplicates: true,
                    parallelism: Parallelism::Threads(threads),
                    memory_budget_bytes: budget,
                    ..DetectionConfig::with_strategy(rolediet_core::config::Strategy::ExactDbscan)
                };
                let report = Pipeline::new(cfg).run_on_matrices(&m, &m);
                let at = format!("threads={threads} budget={budget}");
                prop_assert_eq!(&report.same_user_groups, &clusters, "{}", at);
                prop_assert_eq!(&report.similar_user_pairs, &brute, "{}", at);
                let engine = DbscanEngine::build_with_budget(&m, budget, threads);
                prop_assert_eq!(
                    &engine.duplicate_neighborhoods(threads),
                    &duplicate_lists,
                    "{}", at
                );
                prop_assert_eq!(
                    &engine.similar_neighborhoods(threshold, threads),
                    &similar_lists,
                    "{}", at
                );
            }
        }
    }

    /// Whole-`Report` bit-identity through `Pipeline::run_on_matrices`
    /// under `ApproxHnsw`: the batched two-phase HNSW build is a pure
    /// function of (points, params), so every (batch, threads) pairing
    /// must reproduce the sequential-insert oracle (`hnsw_batch = 0`)
    /// exactly — including on the appended empty and duplicate rows.
    #[test]
    fn hnsw_pipeline_reports_identical_across_batch_and_threads(
        (ruam, rpam) in matrix_pair_inputs(),
    ) {
        let base_cfg = DetectionConfig {
            hnsw_batch: 0,
            ..DetectionConfig::with_strategy(rolediet_core::config::Strategy::hnsw_default())
        };
        let baseline = Pipeline::new(base_cfg).run_on_matrices(&ruam, &rpam);
        for batch in [1usize, 7, 64] {
            for threads in [1usize, 2, 4, 8] {
                let cfg = DetectionConfig {
                    hnsw_batch: batch,
                    parallelism: Parallelism::Threads(threads),
                    ..base_cfg
                };
                let mut report = Pipeline::new(cfg).run_on_matrices(&ruam, &rpam);
                report.timings = baseline.timings;
                report.config = baseline.config;
                prop_assert_eq!(&report, &baseline, "batch={} threads={}", batch, threads);
            }
        }
    }

    #[test]
    fn graph_pipeline_reports_identical_across_thread_counts(graph in graph_inputs()) {
        // The graph entry point additionally exercises the two-pass
        // parallel matrix build that `run_on_matrices` never sees.
        let base_cfg = DetectionConfig {
            similarity: SimilarityConfig {
                include_disjoint: true,
                ..SimilarityConfig::default()
            },
            ..DetectionConfig::default()
        };
        let baseline = Pipeline::new(base_cfg).run(&graph);
        for threads in [2usize, 4, 8] {
            let cfg = DetectionConfig {
                parallelism: Parallelism::Threads(threads),
                ..base_cfg
            };
            let mut report = Pipeline::new(cfg).run(&graph);
            report.timings = baseline.timings;
            report.config = baseline.config;
            prop_assert_eq!(&report, &baseline, "threads={}", threads);
        }
    }

    #[test]
    fn bucketed_disjoint_supplement_matches_naive(
        (ruam, _) in matrix_pair_inputs(),
        threshold in 1usize..5,
    ) {
        // The appended empty and duplicate rows make the supplement's
        // degenerate cases (norm-0 buckets, identical supports) routine.
        let mut expected = rolediet_core::cooccur::disjoint_supplement_naive(&ruam, threshold);
        expected.sort_unstable();
        for threads in [1usize, 2, 4, 8] {
            let mut got =
                rolediet_core::cooccur::disjoint_supplement(&ruam, threshold, threads);
            got.sort_unstable();
            prop_assert_eq!(&got, &expected, "threads={}", threads);
        }
    }

    #[test]
    fn parallel_degree_detection_matches_sequential((ruam, rpam) in matrix_pair_inputs()) {
        let seq = detect_degrees(&ruam, &rpam);
        for threads in [2usize, 4, 8] {
            prop_assert_eq!(
                detect_degrees_with(&ruam, &rpam, threads),
                seq.clone(),
                "threads={}", threads
            );
            prop_assert_eq!(ruam.row_sums_with(threads), ruam.row_sums());
            prop_assert_eq!(ruam.col_sums_with(threads), ruam.col_sums());
            prop_assert_eq!(rpam.row_sums_with(threads), rpam.row_sums());
            prop_assert_eq!(rpam.col_sums_with(threads), rpam.col_sums());
        }
    }

    #[test]
    fn report_counts_are_internally_consistent(graph in graph_inputs()) {
        let report = Pipeline::new(DetectionConfig::default()).run(&graph);
        // Standalone roles never double-reported as T2.
        for r in &report.standalone_roles {
            prop_assert!(!report.userless_roles.contains(r));
            prop_assert!(!report.permless_roles.contains(r));
        }
        // Duplicate groups never contain empty rows under the default
        // config and are disjoint within a side.
        let ruam = graph.ruam_sparse();
        let rpam = graph.rpam_sparse();
        for (groups, m) in [
            (&report.same_user_groups, &ruam),
            (&report.same_permission_groups, &rpam),
        ] {
            let mut seen = std::collections::HashSet::new();
            for g in groups.iter() {
                prop_assert!(g.len() >= 2);
                for &r in g {
                    prop_assert!(m.row_norm(r) > 0);
                    prop_assert!(seen.insert(r), "role {} in two groups", r);
                }
            }
        }
        // Similar pairs exclude identical rows.
        for p in &report.similar_user_pairs {
            prop_assert!(ruam.row_hamming(p.a, p.b) >= 1);
        }
    }

    #[test]
    fn reports_pass_both_validators_under_every_strategy(graph in graph_inputs()) {
        use rolediet_core::config::Strategy;
        for strategy in [
            Strategy::Custom,
            Strategy::ExactDbscan,
            Strategy::hnsw_default(),
            Strategy::minhash_default(),
        ] {
            let cfg = DetectionConfig::with_strategy(strategy);
            let report = Pipeline::new(cfg).run(&graph);
            prop_assert_eq!(
                report.validate(graph.n_users(), graph.n_roles(), graph.n_permissions()),
                Ok(()),
                "structural, strategy={}", strategy.name()
            );
            prop_assert_eq!(
                validate_report_against_graph(&report, &graph),
                Ok(()),
                "against graph, strategy={}", strategy.name()
            );
        }
    }

    /// The tentpole invariant: an [`IncrementalPipeline`] fed a recorded
    /// churn stream stays bit-identical to `Pipeline::run` on the
    /// materialized graph — after every applied batch, at every tested
    /// thread count, with and without disjoint pairs, under default and
    /// clone-heavy churn. Thresholds above 1 give the T5 probe prefixes
    /// longer than two columns, and rows of norm `≤ t` that probe every
    /// column.
    #[test]
    fn incremental_pipeline_matches_batch_oracle(
        seed in 0u64..1_000_000,
        batches in vec(10usize..40, 2..5),
        include_disjoint in proptest::bool::ANY,
        clone_heavy in proptest::bool::ANY,
        threshold in 1usize..5,
    ) {
        // Clone-heavy churn makes T4 groups form and dissolve.
        let weights = if clone_heavy {
            ChurnWeights {
                clone_role: 12.0,
                drift_role: 0.5,
                ..ChurnWeights::default()
            }
        } else {
            ChurnWeights::default()
        };
        let sim_cfg = ChurnConfig {
            initial_users: 40,
            initial_roles: 12,
            initial_permissions: 50,
            seed,
            weights,
        };
        let mut sim = ChurnSimulator::new(sim_cfg);
        let config = DetectionConfig {
            similarity: SimilarityConfig {
                threshold,
                include_disjoint,
                ..SimilarityConfig::default()
            },
            ..DetectionConfig::default()
        };
        let mut inc = IncrementalPipeline::new(sim.graph(), config);
        sim.drain_deltas(); // seeding deltas predate the snapshot
        for (i, steps) in batches.iter().enumerate() {
            sim.run(*steps);
            inc.apply_all(&sim.drain_deltas()).unwrap();
            prop_assert_eq!(inc.graph(), sim.graph());
            let got = inc.report();
            for threads in [1usize, 2, 4, 8] {
                let cfg = DetectionConfig {
                    parallelism: Parallelism::Threads(threads),
                    ..config
                };
                let mut want = Pipeline::new(cfg).run(sim.graph());
                want.timings = StageTimings::default();
                want.config = got.config;
                prop_assert_eq!(&got, &want, "batch {} threads {}", i, threads);
            }
        }
    }

    /// Replaying the identical delta stream twice converges to the
    /// identical engine state (full `PartialEq`, not just equal reports),
    /// and `EdgeDelta::replay` reproduces the simulator's graph.
    #[test]
    fn incremental_pipeline_replay_is_deterministic(
        seed in 0u64..1_000_000,
        steps in 20usize..120,
    ) {
        let sim_cfg = ChurnConfig {
            initial_users: 30,
            initial_roles: 10,
            initial_permissions: 40,
            seed,
            ..ChurnConfig::default()
        };
        let mut sim = ChurnSimulator::new(sim_cfg);
        let initial = sim.graph().clone();
        sim.run(steps);
        let stream = sim.drain_deltas();

        let mut replayed = initial.clone();
        rolediet_model::EdgeDelta::replay(&mut replayed, &stream).unwrap();
        prop_assert_eq!(&replayed, sim.graph());

        let config = DetectionConfig::default();
        let mut a = IncrementalPipeline::new(&initial, config);
        let mut b = IncrementalPipeline::new(&initial, config);
        a.apply_all(&stream).unwrap();
        b.apply_all(&stream).unwrap();
        prop_assert_eq!(a, b);
    }

    /// `apply_batch` builds its delta from what the batch touched; the
    /// oracle diffs whole reports. A twin pipeline fed the same batches
    /// through `apply_all` supplies the reports before and after each
    /// batch, and its state must equal the batch-fed one throughout —
    /// including after a batch that fails part-way on an unknown role id.
    /// Every edge flip that lands on a third position is repeated at
    /// once, so batches hold no-ops, and `max_pairs` binds in about half
    /// the cases.
    #[test]
    fn apply_batch_delta_matches_report_diff(
        seed in 0u64..1_000_000,
        batches in vec(5usize..30, 2..5),
        (clone_heavy, include_disjoint, include_empty, skip_similarity) in (
            proptest::bool::ANY,
            proptest::bool::ANY,
            proptest::bool::ANY,
            proptest::bool::ANY,
        ),
        threshold in 1usize..=2,
        max_pairs in prop_oneof![Just(usize::MAX), 2usize..=6],
        failing in 0usize..4,
    ) {
        let weights = if clone_heavy {
            ChurnWeights {
                clone_role: 12.0,
                drift_role: 0.5,
                ..ChurnWeights::default()
            }
        } else {
            ChurnWeights::default()
        };
        let mut sim = ChurnSimulator::new(ChurnConfig {
            initial_users: 30,
            initial_roles: 12,
            initial_permissions: 40,
            seed,
            weights,
        });
        let config = DetectionConfig {
            similarity: SimilarityConfig {
                threshold,
                include_disjoint,
                max_pairs,
            },
            include_empty_duplicates: include_empty,
            skip_similarity,
            ..DetectionConfig::default()
        };
        let mut inc = IncrementalPipeline::new(sim.graph(), config);
        let mut twin = inc.clone();
        sim.drain_deltas(); // seeding deltas predate the snapshot
        // The failing batch is never the last, so a later one checks the
        // recovery.
        let failing = failing % (batches.len() - 1);
        let mut carried = Vec::new();
        for (i, steps) in batches.iter().enumerate() {
            sim.run(*steps);
            let mut stream: Vec<EdgeDelta> = std::mem::take(&mut carried);
            for (k, d) in sim.drain_deltas().into_iter().enumerate() {
                stream.push(d);
                let flip = !matches!(
                    d,
                    EdgeDelta::AddUser | EdgeDelta::AddRole | EdgeDelta::AddPermission
                );
                if flip && k % 3 == 0 {
                    stream.push(d);
                }
            }
            let before = twin.report();
            if i == failing {
                // The half after the unknown role is never applied; it
                // opens the next batch instead.
                let unknown = EdgeDelta::Assign {
                    role: u32::MAX,
                    user: 0,
                };
                carried = stream.split_off(stream.len() / 2);
                stream.push(unknown);
                prop_assert!(inc.apply_batch(&stream).is_err(), "batch {}", i);
                prop_assert!(twin.apply_all(&stream).is_err(), "batch {}", i);
                prop_assert_eq!(&inc, &twin, "batch {}", i);
                continue;
            }
            let delta = inc.apply_batch(&stream).unwrap();
            twin.apply_all(&stream).unwrap();
            let after = twin.report();
            prop_assert_eq!(&delta, &ReportDelta::between(&before, &after), "batch {}", i);
            prop_assert_eq!(&inc.report(), &after, "batch {}", i);
            prop_assert_eq!(&inc, &twin, "batch {}", i);
        }
        prop_assert_eq!(inc.graph(), sim.graph());
    }
}

/// Recall floor on the figure-3 workload: the approximate HNSW path may
/// miss pairs by design, but on the paper's synthetic generator it must
/// recover the bulk of the planted duplicate and Hamming-1 structure,
/// and everything it does report must be exact (precision 1).
#[test]
fn hnsw_recall_on_figure3_workload_clears_the_floor() {
    use rolediet_cluster::recall::{groups_to_pairs, pair_stats};
    use rolediet_core::config::Strategy;
    use rolediet_synth::{generate_matrix, MatrixGenConfig};

    let gen = generate_matrix(MatrixGenConfig {
        perturbed_per_cluster: 2,
        ..MatrixGenConfig::paper(600, 240, 17)
    });
    let ruam = gen.sparse();
    let rpam = generate_matrix(MatrixGenConfig::paper(600, 200, 18)).sparse();

    let cfg = DetectionConfig::with_strategy(Strategy::hnsw_default());
    let report = Pipeline::new(cfg).run_on_matrices(&ruam, &rpam);

    let dup_truth = groups_to_pairs(&gen.truth.exact_duplicate_groups);
    let dup_stats = pair_stats(&dup_truth, &groups_to_pairs(&report.same_user_groups));
    assert!(
        dup_stats.recall >= 0.8,
        "figure-3 duplicate recall {} below floor",
        dup_stats.recall
    );
    assert_eq!(
        dup_stats.false_positives, 0,
        "reported a non-duplicate pair"
    );

    let found_similar: Vec<(usize, usize)> = report
        .similar_user_pairs
        .iter()
        .map(|p| (p.a, p.b))
        .collect();
    let sim_stats = pair_stats(&gen.truth.planted_similar_pairs, &found_similar);
    assert!(
        sim_stats.recall >= 0.8,
        "figure-3 similar-pair recall {} below floor",
        sim_stats.recall
    );
}

/// FNV-1a over an HNSW index's structure: its size, then per node the
/// level and every link list, then the entry point.
fn hnsw_digest(index: &rolediet_cluster::hnsw::Hnsw) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: usize| {
        for b in (x as u64).to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    eat(index.len());
    for (layers, &level) in index.links().iter().zip(index.levels()) {
        eat(level);
        eat(layers.len());
        for list in layers {
            eat(list.len());
            list.iter().for_each(|&nb| eat(nb as usize));
        }
    }
    eat(index.entry().map_or(usize::MAX, |e| e));
    h
}

/// Pins the sequential HNSW build over the packed rows the approximate
/// strategy indexes: the figure-3 generator with a perturbed member per
/// cluster plus an empty and a duplicate row, and both sides of a small
/// ing-like org. Which links each insert selects and each full list
/// keeps is a pure function of the points, so a faster build must leave
/// every digest as it is.
#[test]
fn hnsw_index_is_pinned() {
    use rolediet_cluster::hnsw::{Hnsw, HnswParams};
    use rolediet_cluster::metric::PackedPointSet;
    use rolediet_synth::{generate_matrix, MatrixGenConfig};

    let gen = generate_matrix(MatrixGenConfig {
        perturbed_per_cluster: 1,
        ..MatrixGenConfig::paper(600, 120, 41)
    });
    let m = gen.sparse();
    let mut rows: Vec<Vec<usize>> = (0..m.n_rows())
        .map(|i| m.row(i).iter().map(|&c| c as usize).collect())
        .collect();
    rows.push(Vec::new());
    rows.push(rows[0].clone());
    let paper = CsrMatrix::from_rows_of_indices(rows.len(), m.n_cols(), &rows).unwrap();
    let org = rolediet_synth::profiles::generate_ing_like(0.01, 7);
    let cases = [
        ("paper", paper, 0x8609_78df_6bef_9766u64),
        (
            "ing-like ruam",
            org.graph.ruam_sparse(),
            0xf49e_19b8_b7db_211a,
        ),
        (
            "ing-like rpam",
            org.graph.rpam_sparse(),
            0x64ad_04f6_8e3e_be9d,
        ),
    ];
    for (name, matrix, expected) in cases {
        let points = PackedPointSet::from_matrix(&matrix, 1);
        let index = Hnsw::build(&points, HnswParams::default());
        let got = hnsw_digest(&index);
        assert_eq!(got, expected, "{name}: digest {got:#x}");
    }
}

/// Pins how many distance calls the sequential HNSW build makes on the
/// inputs of `hnsw_index_is_pinned`, counted through a wrapping
/// `PointSet`. The count is a pure function of the points, like the
/// index, so it is perf evidence that does not jitter: a backlink to a
/// full list replays the list's kept record, and before that replay the
/// build made 1,040,411 / 644,712 / 998,258 calls.
#[test]
fn hnsw_build_distance_calls_are_pinned() {
    use rolediet_cluster::hnsw::{Hnsw, HnswParams};
    use rolediet_cluster::metric::{PackedPointSet, PointSet};
    use rolediet_synth::{generate_matrix, MatrixGenConfig};
    use std::cell::Cell;

    struct Counting {
        points: PackedPointSet,
        calls: Cell<u64>,
    }
    impl PointSet for Counting {
        fn len(&self) -> usize {
            self.points.len()
        }
        fn distance(&self, i: usize, j: usize) -> u32 {
            self.calls.set(self.calls.get() + 1);
            self.points.distance(i, j)
        }
    }

    let gen = generate_matrix(MatrixGenConfig {
        perturbed_per_cluster: 1,
        ..MatrixGenConfig::paper(600, 120, 41)
    });
    let m = gen.sparse();
    let mut rows: Vec<Vec<usize>> = (0..m.n_rows())
        .map(|i| m.row(i).iter().map(|&c| c as usize).collect())
        .collect();
    rows.push(Vec::new());
    rows.push(rows[0].clone());
    let paper = CsrMatrix::from_rows_of_indices(rows.len(), m.n_cols(), &rows).unwrap();
    let org = rolediet_synth::profiles::generate_ing_like(0.01, 7);
    let cases = [
        ("paper", paper, 416_907u64),
        ("ing-like ruam", org.graph.ruam_sparse(), 88_467),
        ("ing-like rpam", org.graph.rpam_sparse(), 234_583),
    ];
    for (name, matrix, expected) in cases {
        let points = Counting {
            points: PackedPointSet::from_matrix(&matrix, 1),
            calls: Cell::new(0),
        };
        Hnsw::build(&points, HnswParams::default());
        let got = points.calls.get();
        assert_eq!(got, expected, "{name}: {got} distance calls");
    }
}
