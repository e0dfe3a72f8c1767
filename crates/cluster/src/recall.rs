//! Precision/recall of approximate results against exact ground truth.
//!
//! The paper accepts the approximate method's missed entries because the
//! cleanup "can be run periodically, enabling the results to converge
//! gradually"; this module quantifies how much is missed per run
//! (experiment `abl-recall` in DESIGN.md).

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};

/// Confusion counts and derived rates for a set of reported pairs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PairStats {
    /// Pairs reported and true.
    pub true_positives: usize,
    /// Pairs reported but not true.
    pub false_positives: usize,
    /// True pairs not reported.
    pub false_negatives: usize,
    /// `tp / (tp + fp)`; 1.0 when nothing was reported.
    pub precision: f64,
    /// `tp / (tp + fn)`; 1.0 when there was nothing to find.
    pub recall: f64,
}

fn normalize(pairs: &[(usize, usize)]) -> BTreeSet<(usize, usize)> {
    pairs
        .iter()
        .map(|&(a, b)| if a <= b { (a, b) } else { (b, a) })
        .collect()
}

/// Compares `found` pairs against `truth` pairs (order within a pair is
/// irrelevant; duplicates are ignored).
pub fn pair_stats(truth: &[(usize, usize)], found: &[(usize, usize)]) -> PairStats {
    let truth = normalize(truth);
    let found = normalize(found);
    let tp = truth.intersection(&found).count();
    let fp = found.len() - tp;
    let fn_ = truth.len() - tp;
    PairStats {
        true_positives: tp,
        false_positives: fp,
        false_negatives: fn_,
        precision: if found.is_empty() {
            1.0
        } else {
            tp as f64 / found.len() as f64
        },
        recall: if truth.is_empty() {
            1.0
        } else {
            tp as f64 / truth.len() as f64
        },
    }
}

/// Converts groups (each a list of members) into their implied member
/// pairs, for comparing group-producing methods pairwise.
pub fn groups_to_pairs(groups: &[Vec<usize>]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for g in groups {
        for (x, &i) in g.iter().enumerate() {
            for &j in &g[x + 1..] {
                out.push(if i <= j { (i, j) } else { (j, i) });
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_match() {
        let t = vec![(0, 1), (2, 3)];
        let s = pair_stats(&t, &[(1, 0), (2, 3)]);
        assert_eq!(s.true_positives, 2);
        assert_eq!(s.false_positives, 0);
        assert_eq!(s.false_negatives, 0);
        assert_eq!(s.precision, 1.0);
        assert_eq!(s.recall, 1.0);
    }

    #[test]
    fn partial_match() {
        let t = vec![(0, 1), (2, 3), (4, 5)];
        let s = pair_stats(&t, &[(0, 1), (9, 10)]);
        assert_eq!(s.true_positives, 1);
        assert_eq!(s.false_positives, 1);
        assert_eq!(s.false_negatives, 2);
        assert!((s.precision - 0.5).abs() < 1e-12);
        assert!((s.recall - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_edge_cases() {
        let s = pair_stats(&[], &[]);
        assert_eq!(s.precision, 1.0);
        assert_eq!(s.recall, 1.0);
        let s = pair_stats(&[(0, 1)], &[]);
        assert_eq!(s.recall, 0.0);
        assert_eq!(s.precision, 1.0);
        let s = pair_stats(&[], &[(0, 1)]);
        assert_eq!(s.precision, 0.0);
        assert_eq!(s.recall, 1.0);
    }

    #[test]
    fn groups_to_pairs_expands_and_dedups() {
        let groups = vec![vec![3, 1, 2], vec![5, 6], vec![7]];
        assert_eq!(
            groups_to_pairs(&groups),
            vec![(1, 2), (1, 3), (2, 3), (5, 6)]
        );
        assert!(groups_to_pairs(&[]).is_empty());
    }
}
