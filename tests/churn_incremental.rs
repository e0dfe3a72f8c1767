//! Churn × batch: the events' ground truth surfaces in the batch
//! pipeline's reports on a live, churning organization. (Incremental vs
//! batch under churn is pinned by the `incremental_pipeline_*` proptests
//! in `rolediet-core`.)

use rolediet::core::{DetectionConfig, Pipeline};
use rolediet::synth::churn::{ChurnConfig, ChurnSimulator, ChurnWeights};

#[test]
fn departed_users_and_decommissioned_assets_are_detected() {
    let mut sim = ChurnSimulator::new(ChurnConfig {
        seed: 3,
        ..ChurnConfig::default()
    });
    sim.run(1_500);
    let report = Pipeline::new(DetectionConfig {
        skip_similarity: true,
        ..DetectionConfig::default()
    })
    .run(sim.graph());
    // Every departed user that is still role-less must be in the report
    // (and the report cannot contain a user that has roles).
    let standalone: std::collections::HashSet<usize> =
        report.standalone_users.iter().copied().collect();
    for &u in sim.departed_users() {
        let has_roles = sim.graph().roles_of_user(u).next().is_some();
        assert_eq!(
            !has_roles,
            standalone.contains(&u.index()),
            "user {u} misclassified"
        );
    }
    // Same for decommissioned permissions.
    let standalone: std::collections::HashSet<usize> =
        report.standalone_permissions.iter().copied().collect();
    for &p in sim.decommissioned_permissions() {
        let granted = sim.graph().roles_of_permission(p).next().is_some();
        assert_eq!(
            !granted,
            standalone.contains(&p.index()),
            "perm {p} misclassified"
        );
    }
}

#[test]
fn clone_heavy_churn_produces_detectable_duplicates() {
    let mut sim = ChurnSimulator::new(ChurnConfig {
        seed: 14,
        weights: ChurnWeights {
            clone_role: 12.0,
            drift_role: 0.5,
            ..ChurnWeights::default()
        },
        ..ChurnConfig::default()
    });
    sim.run(600);
    let report = Pipeline::new(DetectionConfig {
        skip_similarity: true,
        ..DetectionConfig::default()
    })
    .run(sim.graph());
    assert!(
        !sim.clone_events().is_empty()
            && (!report.same_user_groups.is_empty() || !report.same_permission_groups.is_empty()),
        "clone-heavy churn must surface T4 findings"
    );
}
