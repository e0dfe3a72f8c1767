//! Output checks. Every timed operation's output passes through one of
//! these; an operation that returns an error or fails its check counts as
//! failed.

use std::collections::{BTreeSet, HashMap};

use rolediet_core::incremental::FindingDelta;
use rolediet_core::{DetectionConfig, IncrementalPipeline, Report, ReportDelta, SimilarPair};
use rolediet_model::TripartiteGraph;

/// The exact reference report of `graph` under `config`: the incremental
/// pipeline's maintained state, built from scratch. It is an
/// implementation independent of the batch pipeline (index-list
/// signatures and per-row norm-band probes instead of the batch hash and
/// the co-occurrence stream), so agreement between the two is evidence,
/// not a tautology. It reads the similarity settings, not the strategy.
pub fn reference(graph: &TripartiteGraph, config: DetectionConfig) -> Report {
    IncrementalPipeline::new(graph, config).report()
}

/// Whether two reports hold the same findings (timings and config are not
/// findings).
pub fn findings_eq(a: &Report, b: &Report) -> bool {
    degree_findings_eq(a, b)
        && a.same_user_groups == b.same_user_groups
        && a.same_permission_groups == b.same_permission_groups
        && a.similar_user_pairs == b.similar_user_pairs
        && a.similar_permission_pairs == b.similar_permission_pairs
}

fn degree_findings_eq(a: &Report, b: &Report) -> bool {
    a.standalone_users == b.standalone_users
        && a.standalone_permissions == b.standalone_permissions
        && a.standalone_roles == b.standalone_roles
        && a.userless_roles == b.userless_roles
        && a.permless_roles == b.permless_roles
        && a.single_user_roles == b.single_user_roles
        && a.single_permission_roles == b.single_permission_roles
}

/// A custom-strategy detect passes when it equals the exact reference and
/// its claims hold against the graph.
pub fn check_custom(report: &Report, reference: &Report, graph: &TripartiteGraph) -> bool {
    findings_eq(report, reference)
        && rolediet_core::validate::validate_report_against_graph(report, graph).is_ok()
}

/// An approximate detect passes when it fabricates nothing: T1–T3 are
/// strategy-independent and must be equal, every T4 group must lie inside
/// one reference group of its side (a missed member is a recall loss, not
/// an error), and every T5 pair must be a reference pair.
pub fn check_approx(report: &Report, reference: &Report) -> bool {
    degree_findings_eq(report, reference)
        && groups_within(&report.same_user_groups, &reference.same_user_groups)
        && groups_within(
            &report.same_permission_groups,
            &reference.same_permission_groups,
        )
        && pairs_within(&report.similar_user_pairs, &reference.similar_user_pairs)
        && pairs_within(
            &report.similar_permission_pairs,
            &reference.similar_permission_pairs,
        )
}

fn groups_within(groups: &[Vec<usize>], reference: &[Vec<usize>]) -> bool {
    let group_of: HashMap<usize, usize> = reference
        .iter()
        .enumerate()
        .flat_map(|(g, members)| members.iter().map(move |&r| (r, g)))
        .collect();
    groups.iter().all(|g| {
        let home = group_of.get(&g[0]);
        home.is_some() && g.iter().all(|r| group_of.get(r) == home)
    })
}

fn pairs_within(pairs: &[SimilarPair], reference: &[SimilarPair]) -> bool {
    let known: BTreeSet<&SimilarPair> = reference.iter().collect();
    pairs.iter().all(|p| known.contains(p))
}

/// Recall of an approximate report against the exact reference: the
/// reference's T4 member roles and T5 pairs the approximate report also
/// holds, as `(found, total)` over both sides.
pub fn recall(report: &Report, reference: &Report) -> (usize, usize) {
    let mut found = 0;
    let mut total = 0;
    for (got, want) in [
        (&report.same_user_groups, &reference.same_user_groups),
        (
            &report.same_permission_groups,
            &reference.same_permission_groups,
        ),
    ] {
        let got: BTreeSet<usize> = got.iter().flatten().copied().collect();
        for &r in want.iter().flatten() {
            found += usize::from(got.contains(&r));
            total += 1;
        }
    }
    for (got, want) in [
        (&report.similar_user_pairs, &reference.similar_user_pairs),
        (
            &report.similar_permission_pairs,
            &reference.similar_permission_pairs,
        ),
    ] {
        let got: BTreeSet<(usize, usize)> = got.iter().map(|p| (p.a, p.b)).collect();
        for p in want {
            found += usize::from(got.contains(&(p.a, p.b)));
            total += 1;
        }
    }
    (found, total)
}

/// Applies one refresh's finding delta to `report`, keeping every list in
/// the pipeline's canonical order. Folding every delta of a stream into
/// the report taken before it must give the report of the final graph.
pub fn apply_delta(report: &mut Report, delta: &ReportDelta) {
    patch(&mut report.standalone_users, &delta.standalone_users);
    patch(
        &mut report.standalone_permissions,
        &delta.standalone_permissions,
    );
    patch(&mut report.standalone_roles, &delta.standalone_roles);
    patch(&mut report.userless_roles, &delta.userless_roles);
    patch(&mut report.permless_roles, &delta.permless_roles);
    patch(&mut report.single_user_roles, &delta.single_user_roles);
    patch(
        &mut report.single_permission_roles,
        &delta.single_permission_roles,
    );
    // Groups are disjoint, so ordering them as vectors orders them by
    // first member.
    patch(&mut report.same_user_groups, &delta.same_user_groups);
    patch(
        &mut report.same_permission_groups,
        &delta.same_permission_groups,
    );
    for (pairs, d) in [
        (&mut report.similar_user_pairs, &delta.similar_user_pairs),
        (
            &mut report.similar_permission_pairs,
            &delta.similar_permission_pairs,
        ),
    ] {
        patch(pairs, d);
        pairs.sort_unstable_by_key(|p| (p.distance, p.a, p.b));
    }
}

fn patch<T: Ord + Clone>(list: &mut Vec<T>, delta: &FindingDelta<T>) {
    let removed: BTreeSet<&T> = delta.removed.iter().collect();
    list.retain(|x| !removed.contains(x));
    list.extend(delta.added.iter().cloned());
    list.sort_unstable();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Kind;
    use rolediet_core::Pipeline;

    fn org() -> TripartiteGraph {
        rolediet_synth::generate_org(rolediet_synth::profiles::ing_like(0.01, 3)).graph
    }

    #[test]
    fn a_dropped_group_or_an_added_pair_fails_the_exact_checks() {
        let graph = org();
        let reference = reference(&graph, DetectionConfig::default());
        let report = Pipeline::new(DetectionConfig::default()).run(&graph);
        assert!(check_custom(&report, &reference, &graph));
        assert!(findings_eq(&report, &reference));
        assert!(!report.same_user_groups.is_empty());

        let mut dropped = report.clone();
        dropped.same_user_groups.pop();
        assert!(!check_custom(&dropped, &reference, &graph));
        assert!(!findings_eq(&dropped, &reference));

        let mut added = report.clone();
        added
            .similar_permission_pairs
            .push(SimilarPair::new(0, 1, 1));
        assert!(!check_custom(&added, &reference, &graph));
        assert!(!findings_eq(&added, &reference));
        assert!(!check_approx(&added, &reference));
    }

    #[test]
    fn the_approx_check_accepts_misses_and_rejects_inventions() {
        let graph = org();
        let reference = reference(&graph, DetectionConfig::default());
        let mut partial = reference.clone();
        partial.similar_user_pairs.truncate(1);
        partial.same_user_groups.pop();
        assert!(check_approx(&partial, &reference));
        let (found, total) = recall(&partial, &reference);
        assert!(found < total);

        let mut merged = reference.clone();
        let second = merged.same_permission_groups.remove(1);
        merged.same_permission_groups[0].extend(second);
        assert!(!check_approx(&merged, &reference));
    }

    /// The known defect, pinned. Exact-dbscan and approx-hnsw do not read
    /// `include_disjoint = false`, so under the default configuration they
    /// report disjoint pairs the reference leaves out and fail their
    /// checks. Under `Kind::config` (the flag on) they pass, which is why
    /// the benchmark runs them so. Once the first two asserts fail, the
    /// strategies honour the flag: run them under the default
    /// configuration and drop this test.
    #[test]
    fn exact_and_approx_pass_their_checks_only_with_include_disjoint_on() {
        let graph = org();
        let run = |kind: Kind, disjoint: bool| {
            let mut cfg = kind.config();
            cfg.similarity.include_disjoint = disjoint;
            Pipeline::new(cfg).run(&graph)
        };
        let (exact, approx) = (run(Kind::Exact, false), run(Kind::Approx, false));
        // The flag changes nothing they report, and under the default the
        // checks fail both.
        assert!(findings_eq(&exact, &run(Kind::Exact, true)));
        assert!(findings_eq(&approx, &run(Kind::Approx, true)));
        let off = reference(&graph, DetectionConfig::default());
        assert!(!findings_eq(&exact, &off));
        assert!(!check_approx(&approx, &off));

        let on = reference(&graph, Kind::Exact.config());
        assert!(on.similar_user_pairs.len() > off.similar_user_pairs.len());
        assert!(findings_eq(&exact, &on));
        assert!(check_approx(&approx, &on));
    }

    #[test]
    fn folding_refresh_deltas_reproduces_the_final_report() {
        let graph = org();
        let mut inc = IncrementalPipeline::new(&graph, DetectionConfig::default());
        let mut sim =
            rolediet_synth::churn::ChurnSimulator::from_graph(graph.clone(), Default::default(), 5);
        sim.run(300);
        let mut folded = inc.report();
        for batch in sim.deltas().chunks(50) {
            let delta = inc.apply_batch(batch).unwrap();
            apply_delta(&mut folded, &delta);
        }
        let rerun = Pipeline::new(DetectionConfig::default()).run(inc.graph());
        assert!(findings_eq(&folded, &rerun));
        folded.same_permission_groups.pop();
        assert!(!findings_eq(&folded, &rerun));
    }
}
