//! Detection results: findings per inefficiency type, with timings.

use std::fmt;
use std::time::Duration;

use serde::{Deserialize, Serialize};

use crate::config::DetectionConfig;
use crate::taxonomy::{InefficiencyKind, Side};

/// A pair of roles whose user or permission sets differ in `distance`
/// positions (a T5 finding).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SimilarPair {
    /// Lower role index of the pair.
    pub a: usize,
    /// Higher role index of the pair.
    pub b: usize,
    /// Hamming distance between the two incidence rows (`1..=t`).
    pub distance: usize,
}

impl SimilarPair {
    /// Creates a pair, normalizing the order so `a < b`.
    ///
    /// # Panics
    ///
    /// Panics if `a == b`.
    pub fn new(a: usize, b: usize, distance: usize) -> Self {
        assert_ne!(a, b, "a similar pair needs two distinct roles");
        if a < b {
            SimilarPair { a, b, distance }
        } else {
            SimilarPair {
                a: b,
                b: a,
                distance,
            }
        }
    }
}

/// Wall-clock time spent in each pipeline stage.
///
/// Every distance strategy finds and splits each side's verified pairs
/// while it builds its engine: the exact walk of the distance plane, the
/// one HNSW probe and the MinHash verification all count as
/// `engine_build`, and the T4/T5 stages time only handing out the split.
/// The custom strategy builds no engine, so its T4/T5 stages time the
/// whole detector.
///
/// Report JSON written by earlier versions may also carry a `threads`
/// object of per-stage worker counts and the two per-engine durations
/// that `engine_build` replaced; loading ignores them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageTimings {
    /// Building RUAM/RPAM from the graph.
    pub matrix_build: Duration,
    /// Linear-time detectors (T1–T3).
    pub degree_detectors: Duration,
    /// T4 on the user side.
    pub same_users: Duration,
    /// T4 on the permission side.
    pub same_permissions: Duration,
    /// T5 on the user side.
    pub similar_users: Duration,
    /// T5 on the permission side.
    pub similar_permissions: Duration,
    /// Building the strategy's engine on both sides, with the pairs it
    /// finds: the packed distance plane and its one walk for exact
    /// DBSCAN, the index and its one k-NN probe for HNSW, the sketch and
    /// its verified band candidates for MinHash (near zero for the
    /// custom strategy, which builds none).
    #[serde(default)]
    pub engine_build: Duration,
    /// Number of norm-contiguous shard blocks the packed engine walked
    /// the distance plane over (the larger of the two matrix sides).
    /// `1` means one block over the whole matrix (no memory budget, or a
    /// budget large enough for a single shard); `0` means the engine did
    /// not run (every strategy but exact-DBSCAN).
    #[serde(default)]
    pub distance_shards: usize,
}

impl StageTimings {
    /// Total time across all stages.
    pub fn total(&self) -> Duration {
        self.matrix_build
            + self.degree_detectors
            + self.same_users
            + self.same_permissions
            + self.similar_users
            + self.similar_permissions
            + self.engine_build
    }
}

/// The full result of a detection run.
///
/// Role/user/permission identifiers are dense indices (the same indices
/// used by the graph's ids and the matrices' rows/columns). Group lists
/// are sorted by first member; members are ascending.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Report {
    /// T1 — users with no role.
    pub standalone_users: Vec<usize>,
    /// T1 — permissions granted by no role.
    pub standalone_permissions: Vec<usize>,
    /// T1 — roles with neither users nor permissions.
    pub standalone_roles: Vec<usize>,
    /// T2 — roles with permissions but no users.
    pub userless_roles: Vec<usize>,
    /// T2 — roles with users but no permissions.
    pub permless_roles: Vec<usize>,
    /// T3 — roles with exactly one user.
    pub single_user_roles: Vec<usize>,
    /// T3 — roles with exactly one permission.
    pub single_permission_roles: Vec<usize>,
    /// T4 — groups of roles with identical user sets.
    pub same_user_groups: Vec<Vec<usize>>,
    /// T4 — groups of roles with identical permission sets.
    pub same_permission_groups: Vec<Vec<usize>>,
    /// T5 — role pairs with similar (within threshold) user sets.
    pub similar_user_pairs: Vec<SimilarPair>,
    /// T5 — role pairs with similar permission sets.
    pub similar_permission_pairs: Vec<SimilarPair>,
    /// Per-stage wall-clock timings.
    pub timings: StageTimings,
    /// The configuration that produced this report.
    pub config: DetectionConfig,
}

impl Report {
    /// Total number of findings across all types (groups and pairs count
    /// as one finding each).
    pub fn total_findings(&self) -> usize {
        self.standalone_users.len()
            + self.standalone_permissions.len()
            + self.standalone_roles.len()
            + self.userless_roles.len()
            + self.permless_roles.len()
            + self.single_user_roles.len()
            + self.single_permission_roles.len()
            + self.same_user_groups.len()
            + self.same_permission_groups.len()
            + self.similar_user_pairs.len()
            + self.similar_permission_pairs.len()
    }

    /// Number of roles that could be removed by consolidating the T4
    /// groups on `side`: every group of `k` identical roles can shrink to
    /// one, saving `k − 1` (the paper's "about 10% of all roles" figure is
    /// this quantity summed over both sides).
    pub fn reducible_roles(&self, side: Side) -> usize {
        let groups = match side {
            Side::User => &self.same_user_groups,
            Side::Permission => &self.same_permission_groups,
        };
        groups.iter().map(|g| g.len().saturating_sub(1)).sum()
    }

    /// Roles involved in T4 groups on `side` (the paper's "8,000 roles
    /// sharing the same users" counts roles, not groups).
    pub fn roles_in_same_groups(&self, side: Side) -> usize {
        let groups = match side {
            Side::User => &self.same_user_groups,
            Side::Permission => &self.same_permission_groups,
        };
        groups.iter().map(Vec::len).sum()
    }

    /// Roles involved in at least one T5 pair on `side`.
    pub fn roles_in_similar_pairs(&self, side: Side) -> usize {
        let pairs = match side {
            Side::User => &self.similar_user_pairs,
            Side::Permission => &self.similar_permission_pairs,
        };
        let mut roles: Vec<usize> = pairs.iter().flat_map(|p| [p.a, p.b]).collect();
        roles.sort_unstable();
        roles.dedup();
        roles.len()
    }

    /// Finding counts keyed by taxonomy kind, in taxonomy order — the
    /// bridge between the report's typed fields and the
    /// [`InefficiencyKind`] enumeration (T4 counts roles in groups, T5
    /// counts roles in pairs, matching the paper's presentation).
    pub fn findings_by_kind(&self) -> Vec<(InefficiencyKind, usize)> {
        use rolediet_model::EntityKind;
        use InefficiencyKind::*;
        vec![
            (
                StandaloneNode(EntityKind::User),
                self.standalone_users.len(),
            ),
            (
                StandaloneNode(EntityKind::Role),
                self.standalone_roles.len(),
            ),
            (
                StandaloneNode(EntityKind::Permission),
                self.standalone_permissions.len(),
            ),
            (DisconnectedRole(Side::User), self.userless_roles.len()),
            (
                DisconnectedRole(Side::Permission),
                self.permless_roles.len(),
            ),
            (SingleLinkRole(Side::User), self.single_user_roles.len()),
            (
                SingleLinkRole(Side::Permission),
                self.single_permission_roles.len(),
            ),
            (
                DuplicateRoles(Side::User),
                self.roles_in_same_groups(Side::User),
            ),
            (
                DuplicateRoles(Side::Permission),
                self.roles_in_same_groups(Side::Permission),
            ),
            (
                SimilarRoles(Side::User),
                self.roles_in_similar_pairs(Side::User),
            ),
            (
                SimilarRoles(Side::Permission),
                self.roles_in_similar_pairs(Side::Permission),
            ),
        ]
    }

    /// Renders the report as an aligned plain-text summary table (the
    /// Section IV-B presentation).
    pub fn summary_table(&self) -> String {
        let rows: Vec<(String, usize)> = vec![
            ("T1 standalone users".into(), self.standalone_users.len()),
            (
                "T1 standalone permissions".into(),
                self.standalone_permissions.len(),
            ),
            ("T1 standalone roles".into(), self.standalone_roles.len()),
            ("T2 roles without users".into(), self.userless_roles.len()),
            (
                "T2 roles without permissions".into(),
                self.permless_roles.len(),
            ),
            ("T3 single-user roles".into(), self.single_user_roles.len()),
            (
                "T3 single-permission roles".into(),
                self.single_permission_roles.len(),
            ),
            (
                "T4 roles sharing the same users".into(),
                self.roles_in_same_groups(Side::User),
            ),
            (
                "T4 roles sharing the same permissions".into(),
                self.roles_in_same_groups(Side::Permission),
            ),
            (
                "T5 roles with similar users".into(),
                self.roles_in_similar_pairs(Side::User),
            ),
            (
                "T5 roles with similar permissions".into(),
                self.roles_in_similar_pairs(Side::Permission),
            ),
        ];
        let width = rows.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        let mut out = String::new();
        for (name, count) in rows {
            out.push_str(&format!("{name:<width$}  {count:>10}\n"));
        }
        out.push_str(&format!(
            "{:<width$}  {:>10}\n",
            "reducible roles (T4 consolidation)",
            self.reducible_roles(Side::User) + self.reducible_roles(Side::Permission),
            width = width
        ));
        out
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.summary_table())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn similar_pair_normalizes_order() {
        let p = SimilarPair::new(5, 2, 1);
        assert_eq!((p.a, p.b, p.distance), (2, 5, 1));
    }

    #[test]
    #[should_panic(expected = "two distinct roles")]
    fn similar_pair_rejects_self_pair() {
        SimilarPair::new(3, 3, 0);
    }

    #[test]
    fn counting_helpers() {
        let report = Report {
            same_user_groups: vec![vec![0, 1, 2], vec![5, 6]],
            same_permission_groups: vec![vec![3, 4]],
            similar_user_pairs: vec![SimilarPair::new(7, 8, 1), SimilarPair::new(8, 9, 1)],
            ..Report::default()
        };
        assert_eq!(report.roles_in_same_groups(Side::User), 5);
        assert_eq!(report.roles_in_same_groups(Side::Permission), 2);
        assert_eq!(report.reducible_roles(Side::User), 3);
        assert_eq!(report.reducible_roles(Side::Permission), 1);
        assert_eq!(report.roles_in_similar_pairs(Side::User), 3);
        assert_eq!(report.roles_in_similar_pairs(Side::Permission), 0);
        assert_eq!(report.total_findings(), 5);
    }

    #[test]
    fn findings_by_kind_covers_the_whole_taxonomy() {
        let report = Report {
            standalone_users: vec![1],
            same_user_groups: vec![vec![0, 1, 2]],
            similar_permission_pairs: vec![SimilarPair::new(3, 4, 1)],
            ..Report::default()
        };
        let by_kind = report.findings_by_kind();
        assert_eq!(by_kind.len(), InefficiencyKind::all().len());
        let kinds: Vec<InefficiencyKind> = by_kind.iter().map(|&(k, _)| k).collect();
        assert_eq!(kinds, InefficiencyKind::all(), "taxonomy order");
        let count = |label: &str| {
            by_kind
                .iter()
                .find(|(k, _)| k.label() == label)
                .map(|&(_, c)| c)
                .unwrap()
        };
        assert_eq!(count("T1-user"), 1);
        assert_eq!(count("T4-user"), 3, "roles, not groups");
        assert_eq!(count("T5-permission"), 2, "roles, not pairs");
        assert_eq!(count("T2-user"), 0);
    }

    #[test]
    fn summary_table_contains_all_rows() {
        let report = Report::default();
        let table = report.summary_table();
        assert!(table.contains("T1 standalone users"));
        assert!(table.contains("T5 roles with similar permissions"));
        assert!(table.contains("reducible roles"));
        assert_eq!(table.lines().count(), 12);
    }

    #[test]
    fn timings_total() {
        let t = StageTimings {
            matrix_build: Duration::from_millis(1),
            degree_detectors: Duration::from_millis(2),
            same_users: Duration::from_millis(3),
            same_permissions: Duration::from_millis(4),
            similar_users: Duration::from_millis(5),
            similar_permissions: Duration::from_millis(6),
            engine_build: Duration::from_millis(7),
            distance_shards: 1,
        };
        assert_eq!(t.total(), Duration::from_millis(28));
    }

    #[test]
    fn reports_carrying_stage_thread_counts_still_load() {
        // Every report written before the per-stage thread counts were
        // dropped carries them as `timings.threads`; every report written
        // before `engine_build` carries two per-engine durations instead.
        let report = Report {
            standalone_users: vec![1, 2],
            similar_user_pairs: vec![SimilarPair::new(0, 9, 1)],
            ..Report::default()
        };
        let json = serde_json::to_string(&report).unwrap();
        let threads = r#""threads":{"matrix_build":4,"degree_detectors":4,"same_users":4,"same_permissions":4,"transpose":4,"similar_users":4,"similar_permissions":4,"disjoint_supplement":0,"minhash":0,"cluster_expand":0,"distance_precompute":0,"group_extract":4,"hnsw_build":0}"#;
        let engines = r#""distance_precompute":{"secs":0,"nanos":7000000},"hnsw_build":{"secs":0,"nanos":8000000}"#;
        let legacy = json
            .replacen(r#""engine_build":{"secs":0,"nanos":0},"#, "", 1)
            .replacen(
                r#""timings":{"#,
                &format!(r#""timings":{{{threads},{engines},"#),
                1,
            );
        assert!(
            legacy.contains(threads) && legacy.contains(engines),
            "fixture must splice in: {json}"
        );
        assert!(
            !legacy.contains("engine_build"),
            "fixture must drop: {json}"
        );
        let back: Report = serde_json::from_str(&legacy).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn serde_roundtrip() {
        let report = Report {
            standalone_users: vec![1, 2],
            similar_user_pairs: vec![SimilarPair::new(0, 9, 1)],
            ..Report::default()
        };
        let json = serde_json::to_string(&report).unwrap();
        let back: Report = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
    }
}
