//! Finding-level review workflow.
//!
//! The paper is emphatic that findings "must not be fixed automatically
//! as they may correspond to legitimate corner cases. Therefore, the
//! administrator must carefully consider and approve every instance."
//! This module operationalizes that sentence:
//!
//! * every consolidation-relevant finding (T4 group, standalone role)
//!   gets a stable [`FindingKey`] fingerprint;
//! * an [`AuditLog`] stores per-finding [`Decision`]s that persist across
//!   detection runs (a re-detected finding keeps its earlier decision —
//!   crucial for the periodic model, where the same duplicate group shows
//!   up every run until someone acts);
//! * [`AuditLog::approved_plan`] builds a [`MergePlan`] from **approved
//!   findings only** — the bridge from review to action.
//!
//! Fingerprints are content hashes of the finding's kind and member ids,
//! so they are stable as long as the dataset keeps its ids stable between
//! runs (true for any export pipeline that interns names in a fixed
//! order; for id-unstable pipelines, fingerprint over names by mapping
//! members through the interner first).

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::consolidate::MergePlan;
use crate::report::Report;
use crate::taxonomy::Side;

/// Stable fingerprint of one finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FindingKey(pub u128);

/// Fingerprints a group-type finding from its kind label and members.
pub fn fingerprint(kind_label: &str, members: &[usize]) -> FindingKey {
    // Hash the label bytes and the member ids through the same 128-bit
    // FNV pair used for row signatures.
    let mut words: Vec<u64> = kind_label.bytes().map(u64::from).collect();
    words.push(u64::MAX); // separator
    words.extend(members.iter().map(|&m| m as u64));
    FindingKey(rolediet_matrix::hash_words(words).0)
}

/// An administrator's decision on one finding.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Decision {
    /// Not yet reviewed.
    Pending,
    /// Approved for consolidation.
    Approved,
    /// Rejected — a legitimate corner case; keep and stop re-asking.
    Rejected {
        /// Why (e.g. "CEO-only role, intentionally single-user").
        reason: String,
    },
}

/// One reviewable finding surfaced from a report.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReviewItem {
    /// The finding's fingerprint.
    pub key: FindingKey,
    /// Taxonomy label (`"T4-user"`, `"T4-permission"`, `"T1-role"`).
    pub kind: String,
    /// Role ids involved.
    pub members: Vec<usize>,
    /// Current decision.
    pub decision: Decision,
}

/// Persistent record of decisions across runs.
///
/// # Examples
///
/// ```
/// use rolediet_core::audit::AuditLog;
/// use rolediet_core::{DetectionConfig, Pipeline};
/// use rolediet_model::TripartiteGraph;
///
/// let graph = TripartiteGraph::figure1_example();
/// let report = Pipeline::new(DetectionConfig::default()).run(&graph);
/// let mut log = AuditLog::new();
/// let items = log.review(&report);
/// assert_eq!(items.len(), 2); // two T4 groups
/// log.approve(items[0].key);
/// let plan = log.approved_plan(&report, graph.n_roles());
/// assert_eq!(plan.roles_removed(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AuditLog {
    // Keyed by fingerprint in a BTreeMap so a serialized log is
    // byte-stable across runs, like every other artifact.
    decisions: BTreeMap<FindingKey, Decision>,
}

impl AuditLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded decisions (approved + rejected).
    pub fn len(&self) -> usize {
        self.decisions.len()
    }

    /// Returns `true` if no decision has been recorded.
    pub fn is_empty(&self) -> bool {
        self.decisions.is_empty()
    }

    /// Enumerates the report's consolidation-relevant findings with their
    /// current decision (T4 groups on both sides, then standalone roles),
    /// in report order. Previously decided findings keep their decision;
    /// new ones are [`Decision::Pending`].
    pub fn review(&mut self, report: &Report) -> Vec<ReviewItem> {
        let mut items = Vec::new();
        let sides = [
            (&report.same_user_groups, "T4-user"),
            (&report.same_permission_groups, "T4-permission"),
        ];
        for (groups, kind) in sides {
            for g in groups.iter() {
                items.push(self.item(kind, g.clone()));
            }
        }
        for &r in &report.standalone_roles {
            items.push(self.item("T1-role", vec![r]));
        }
        items
    }

    fn item(&self, kind: &str, members: Vec<usize>) -> ReviewItem {
        let key = fingerprint(kind, &members);
        ReviewItem {
            key,
            kind: kind.to_owned(),
            decision: self
                .decisions
                .get(&key)
                .cloned()
                .unwrap_or(Decision::Pending),
            members,
        }
    }

    /// Marks a finding approved.
    pub fn approve(&mut self, key: FindingKey) {
        self.decisions.insert(key, Decision::Approved);
    }

    /// Marks a finding rejected with a reason.
    pub fn reject(&mut self, key: FindingKey, reason: &str) {
        self.decisions.insert(
            key,
            Decision::Rejected {
                reason: reason.to_owned(),
            },
        );
    }

    /// The recorded decision for a key, if any.
    pub fn decision(&self, key: FindingKey) -> Option<&Decision> {
        self.decisions.get(&key)
    }

    /// Builds a merge plan containing **only approved** findings of
    /// `report`: approved T4 groups become merges (same overlap rules as
    /// [`MergePlan::from_report`]), approved standalone roles are
    /// dropped. Pending and rejected findings are untouched.
    pub fn approved_plan(&self, report: &Report, n_roles: usize) -> MergePlan {
        let approved = |kind: &str, members: &[usize]| {
            matches!(
                self.decisions.get(&fingerprint(kind, members)),
                Some(Decision::Approved)
            )
        };
        // Filter the report down to approved findings, then reuse the
        // standard planner (which handles overlap claiming).
        let filtered = Report {
            same_user_groups: report
                .same_user_groups
                .iter()
                .filter(|g| approved("T4-user", g))
                .cloned()
                .collect(),
            same_permission_groups: report
                .same_permission_groups
                .iter()
                .filter(|g| approved("T4-permission", g))
                .cloned()
                .collect(),
            standalone_roles: report
                .standalone_roles
                .iter()
                .copied()
                .filter(|&r| approved("T1-role", &[r]))
                .collect(),
            ..Report::default()
        };
        MergePlan::from_report(&filtered, n_roles, true)
    }

    /// Drops decisions whose findings no longer appear in `report`
    /// (resolved by consolidation or by the data changing underneath).
    /// Returns the number pruned.
    pub fn prune_stale(&mut self, report: &Report) -> usize {
        let mut live: std::collections::BTreeSet<FindingKey> = std::collections::BTreeSet::new();
        for g in &report.same_user_groups {
            live.insert(fingerprint("T4-user", g));
        }
        for g in &report.same_permission_groups {
            live.insert(fingerprint("T4-permission", g));
        }
        for &r in &report.standalone_roles {
            live.insert(fingerprint("T1-role", &[r]));
        }
        let before = self.decisions.len();
        self.decisions.retain(|k, _| live.contains(k));
        before - self.decisions.len()
    }

    /// Counts per decision state over a report's findings:
    /// `(pending, approved, rejected)`.
    pub fn tally(&mut self, report: &Report) -> (usize, usize, usize) {
        let items = self.review(report);
        let mut t = (0, 0, 0);
        for i in items {
            match i.decision {
                Decision::Pending => t.0 += 1,
                Decision::Approved => t.1 += 1,
                Decision::Rejected { .. } => t.2 += 1,
            }
        }
        t
    }
}

/// The side a T4 kind label refers to, if it is one.
pub fn side_of_kind(kind: &str) -> Option<Side> {
    match kind {
        "T4-user" => Some(Side::User),
        "T4-permission" => Some(Side::Permission),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DetectionConfig;
    use crate::consolidate::verify_preserves_access;
    use crate::pipeline::Pipeline;
    use rolediet_model::TripartiteGraph;

    fn figure1() -> (TripartiteGraph, Report) {
        let g = TripartiteGraph::figure1_example();
        let r = Pipeline::new(DetectionConfig::default()).run(&g);
        (g, r)
    }

    #[test]
    fn fingerprints_are_stable_and_distinct() {
        let a = fingerprint("T4-user", &[1, 3]);
        assert_eq!(a, fingerprint("T4-user", &[1, 3]));
        assert_ne!(a, fingerprint("T4-permission", &[1, 3]));
        assert_ne!(a, fingerprint("T4-user", &[1, 4]));
        assert_ne!(a, fingerprint("T4-user", &[1]));
        // Label/member boundary cannot be confused.
        assert_ne!(fingerprint("T4", &[1]), fingerprint("T", &[4, 1]));
    }

    #[test]
    fn review_lists_findings_with_pending_default() {
        let (_, report) = figure1();
        let mut log = AuditLog::new();
        let items = log.review(&report);
        assert_eq!(items.len(), 2);
        assert!(items.iter().all(|i| i.decision == Decision::Pending));
        assert_eq!(items[0].kind, "T4-user");
        assert_eq!(items[0].members, vec![1, 3]);
        assert_eq!(items[1].kind, "T4-permission");
        assert_eq!(items[1].members, vec![3, 4]);
    }

    #[test]
    fn decisions_persist_across_runs() {
        let (graph, report) = figure1();
        let mut log = AuditLog::new();
        let items = log.review(&report);
        log.reject(items[0].key, "user set is the board of directors");
        // A fresh detection run on the same data…
        let report2 = Pipeline::new(DetectionConfig::default()).run(&graph);
        let items2 = log.review(&report2);
        assert!(matches!(items2[0].decision, Decision::Rejected { .. }));
        assert_eq!(items2[1].decision, Decision::Pending);
        // Serde round trip (the on-disk lifecycle).
        let json = serde_json::to_string(&log).unwrap();
        let mut back: AuditLog = serde_json::from_str(&json).unwrap();
        assert_eq!(back.review(&report2), items2);
    }

    #[test]
    fn approved_plan_only_touches_approved_findings() {
        let (graph, report) = figure1();
        let mut log = AuditLog::new();
        let items = log.review(&report);
        // Nothing approved → empty plan.
        let plan = log.approved_plan(&report, graph.n_roles());
        assert_eq!(plan.roles_removed(), 0);
        // Approve only the permission-side group.
        log.approve(items[1].key);
        let plan = log.approved_plan(&report, graph.n_roles());
        assert_eq!(plan.merges.len(), 1);
        assert_eq!(plan.merges[0].keep.index(), 3);
        let outcome = plan.apply(&graph);
        assert_eq!(outcome.graph.n_roles(), 4);
        assert!(verify_preserves_access(&graph, &outcome.graph).is_empty());
    }

    #[test]
    fn standalone_roles_flow_through_approval() {
        let mut g = TripartiteGraph::with_counts(1, 2, 1);
        g.assign_user(rolediet_model::RoleId(0), rolediet_model::UserId(0))
            .unwrap();
        g.grant_permission(rolediet_model::RoleId(0), rolediet_model::PermissionId(0))
            .unwrap();
        let report = Pipeline::new(DetectionConfig::default()).run(&g);
        assert_eq!(report.standalone_roles, vec![1]);
        let mut log = AuditLog::new();
        let items = log.review(&report);
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].kind, "T1-role");
        log.approve(items[0].key);
        let plan = log.approved_plan(&report, g.n_roles());
        assert_eq!(plan.drop_standalone.len(), 1);
        assert_eq!(plan.apply(&g).graph.n_roles(), 1);
    }

    #[test]
    fn prune_and_tally() {
        let (graph, report) = figure1();
        let mut log = AuditLog::new();
        let items = log.review(&report);
        log.approve(items[0].key);
        log.reject(items[1].key, "distinct owners");
        assert_eq!(log.tally(&report), (0, 1, 1));
        // Apply the approved merge; re-detect; the approved finding is
        // gone and gets pruned, the rejected one survives.
        let plan = log.approved_plan(&report, graph.n_roles());
        let cleaned = plan.apply(&graph).graph;
        let report2 = Pipeline::new(DetectionConfig::default()).run(&cleaned);
        let pruned = log.prune_stale(&report2);
        // Note: role indices shifted after the merge, so BOTH old keys
        // are stale against the new report — fingerprints are only stable
        // while ids are. This is the documented contract; the test pins
        // it so the caveat stays true.
        assert_eq!(pruned, 2);
        assert!(log.is_empty());
    }
}
