//! Linear-time detectors for inefficiency types T1–T3 (Section III-B).
//!
//! All three cheap types fall out of the row and column sums of RUAM and
//! RPAM, computed in one pass each:
//!
//! * **standalone users/permissions** — zero column sums in RUAM/RPAM;
//! * **standalone roles** — zero row sum in *both* matrices;
//! * **roles without users / without permissions** — zero row sum in one
//!   matrix, non-zero in the other;
//! * **single-link roles** — row sum exactly 1.

use serde::{Deserialize, Serialize};

use rolediet_matrix::RowMatrix;

/// Findings of the linear-time detectors, as dense indices.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DegreeFindings {
    /// Users (RUAM columns) in no role.
    pub standalone_users: Vec<usize>,
    /// Permissions (RPAM columns) in no role.
    pub standalone_permissions: Vec<usize>,
    /// Roles with zero users *and* zero permissions.
    pub standalone_roles: Vec<usize>,
    /// Roles with zero users but at least one permission.
    pub userless_roles: Vec<usize>,
    /// Roles with zero permissions but at least one user.
    pub permless_roles: Vec<usize>,
    /// Roles with exactly one user.
    pub single_user_roles: Vec<usize>,
    /// Roles with exactly one permission.
    pub single_permission_roles: Vec<usize>,
}

/// Runs the T1–T3 detectors over the two assignment matrices.
///
/// # Panics
///
/// Panics if the matrices disagree on the number of roles (rows).
///
/// # Examples
///
/// ```
/// use rolediet_core::detector::detect_degrees;
/// use rolediet_model::TripartiteGraph;
///
/// let g = TripartiteGraph::figure1_example();
/// let f = detect_degrees(&g.ruam_sparse(), &g.rpam_sparse());
/// assert_eq!(f.standalone_permissions, vec![0]); // P01
/// assert_eq!(f.userless_roles, vec![2]);         // R03
/// assert_eq!(f.permless_roles, vec![1]);         // R02
/// assert_eq!(f.single_user_roles, vec![0, 4]);   // R01, R05
/// ```
pub fn detect_degrees<R: RowMatrix + Sync, P: RowMatrix + Sync>(
    ruam: &R,
    rpam: &P,
) -> DegreeFindings {
    detect_degrees_with(ruam, rpam, 1)
}

/// [`detect_degrees`] with the row/column-sum passes split over `threads`
/// workers (via [`rolediet_matrix::parallel`]). Findings are identical to
/// the sequential run for every thread count.
///
/// # Panics
///
/// Panics if the matrices disagree on the number of roles (rows).
pub fn detect_degrees_with<R: RowMatrix + Sync, P: RowMatrix + Sync>(
    ruam: &R,
    rpam: &P,
    threads: usize,
) -> DegreeFindings {
    assert_eq!(
        ruam.rows(),
        rpam.rows(),
        "RUAM and RPAM must describe the same roles"
    );
    let mut f = DegreeFindings {
        standalone_users: zero_positions(&ruam.col_sums_with(threads)),
        standalone_permissions: zero_positions(&rpam.col_sums_with(threads)),
        ..DegreeFindings::default()
    };
    let user_sums = ruam.row_sums_with(threads);
    let perm_sums = rpam.row_sums_with(threads);
    for (r, (&us, &ps)) in user_sums.iter().zip(&perm_sums).enumerate() {
        match (us, ps) {
            (0, 0) => f.standalone_roles.push(r),
            (0, _) => f.userless_roles.push(r),
            (_, 0) => f.permless_roles.push(r),
            _ => {}
        }
        if us == 1 {
            f.single_user_roles.push(r);
        }
        if ps == 1 {
            f.single_permission_roles.push(r);
        }
    }
    f
}

fn zero_positions(sums: &[usize]) -> Vec<usize> {
    sums.iter()
        .enumerate()
        .filter(|&(_, &s)| s == 0)
        .map(|(i, _)| i)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rolediet_matrix::CsrMatrix;
    use rolediet_model::TripartiteGraph;

    #[test]
    fn figure1_findings_match_paper_narrative() {
        let g = TripartiteGraph::figure1_example();
        let f = detect_degrees(&g.ruam_sparse(), &g.rpam_sparse());
        // "The P01 permission is an example of such a node."
        assert_eq!(f.standalone_permissions, vec![0]);
        assert!(f.standalone_users.is_empty());
        assert!(f.standalone_roles.is_empty());
        // "role R02 is not connected to any permission node, and role R03
        //  is not linked to any user node."
        assert_eq!(f.userless_roles, vec![2]);
        assert_eq!(f.permless_roles, vec![1]);
        // "the R01 and R05 roles have a single user assigned."
        assert_eq!(f.single_user_roles, vec![0, 4]);
        // R03 has a single permission (P04).
        assert_eq!(f.single_permission_roles, vec![2]);
    }

    #[test]
    fn graph_projections_and_row_lists_agree() {
        // Figure 1's RUAM and RPAM written out row by row.
        let ruam = CsrMatrix::from_rows_of_indices(
            5,
            4,
            &[vec![0], vec![1, 2], vec![], vec![1, 2], vec![3]],
        )
        .unwrap();
        let rpam = CsrMatrix::from_rows_of_indices(
            5,
            6,
            &[vec![1, 2], vec![], vec![3], vec![4, 5], vec![4, 5]],
        )
        .unwrap();
        let g = TripartiteGraph::figure1_example();
        assert_eq!(
            detect_degrees(&ruam, &rpam),
            detect_degrees(&g.ruam_sparse(), &g.rpam_sparse())
        );
    }

    #[test]
    fn standalone_role_needs_both_sides_empty() {
        // Role 0: fully standalone. Role 1: userless. Role 2: permless.
        let ruam = CsrMatrix::from_rows_of_indices(3, 2, &[vec![], vec![], vec![0]]).unwrap();
        let rpam = CsrMatrix::from_rows_of_indices(3, 2, &[vec![], vec![1], vec![]]).unwrap();
        let f = detect_degrees(&ruam, &rpam);
        assert_eq!(f.standalone_roles, vec![0]);
        assert_eq!(f.userless_roles, vec![1]);
        assert_eq!(f.permless_roles, vec![2]);
        // Standalone roles are not double-reported as userless/permless.
        assert!(!f.userless_roles.contains(&0));
        assert!(!f.permless_roles.contains(&0));
    }

    #[test]
    fn single_link_can_overlap_with_t2() {
        // A role with 1 user and 0 permissions is both T3-user and
        // T2-permission (the taxonomy types are not exclusive).
        let ruam = CsrMatrix::from_rows_of_indices(1, 2, &[vec![0]]).unwrap();
        let rpam = CsrMatrix::from_rows_of_indices(1, 2, &[vec![]]).unwrap();
        let f = detect_degrees(&ruam, &rpam);
        assert_eq!(f.single_user_roles, vec![0]);
        assert_eq!(f.permless_roles, vec![0]);
    }

    #[test]
    fn parallel_degrees_match_sequential() {
        let g = TripartiteGraph::figure1_example();
        let seq = detect_degrees(&g.ruam_sparse(), &g.rpam_sparse());
        for threads in [1, 2, 3, 8] {
            assert_eq!(
                detect_degrees_with(&g.ruam_sparse(), &g.rpam_sparse(), threads),
                seq,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn empty_matrices() {
        let ruam = CsrMatrix::zeros(0, 0);
        let rpam = CsrMatrix::zeros(0, 0);
        let f = detect_degrees(&ruam, &rpam);
        assert_eq!(f, DegreeFindings::default());
    }

    #[test]
    #[should_panic(expected = "same roles")]
    fn mismatched_role_counts_panic() {
        let ruam = CsrMatrix::zeros(2, 1);
        let rpam = CsrMatrix::zeros(3, 1);
        detect_degrees(&ruam, &rpam);
    }
}
