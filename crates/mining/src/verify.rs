//! Exact-cover verification for mined role sets.
//!
//! The checker is sparse end-to-end: assignments are inverted into
//! per-user role lists with a counting sort, and each user's granted set
//! is the sorted merge of their roles' permission lists, compared
//! against the UPAM row with one intersection count. Peak memory is
//! O(assignments + max per-user grant) — no dense `users × width`
//! matrix, so the oracle runs at the same realorg scale as the lazy
//! cover engine it certifies.

use std::error::Error;
use std::fmt;

use rolediet_matrix::{setops, CsrMatrix, RowMatrix};

use crate::greedy::MinedRole;

/// Why a mined role set fails to reproduce the UPAM.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CoverError {
    /// A role grants a user a permission the UPAM does not contain.
    OverGrant {
        /// Offending user index.
        user: usize,
        /// Number of extra permissions granted.
        extra: usize,
    },
    /// A user ends up with fewer permissions than the UPAM row.
    UnderGrant {
        /// Offending user index.
        user: usize,
        /// Number of missing permissions.
        missing: usize,
    },
    /// A role references an out-of-range user or permission.
    OutOfRange {
        /// Index of the offending mined role.
        role: usize,
    },
}

impl fmt::Display for CoverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoverError::OverGrant { user, extra } => {
                write!(f, "user {user} would gain {extra} extra permission(s)")
            }
            CoverError::UnderGrant { user, missing } => {
                write!(f, "user {user} would lose {missing} permission(s)")
            }
            CoverError::OutOfRange { role } => {
                write!(f, "mined role {role} references an out-of-range index")
            }
        }
    }
}

impl Error for CoverError {}

/// Checks that assigning `roles` reproduces `upam` exactly: every user's
/// union of assigned role permissions equals their UPAM row.
///
/// # Errors
///
/// Returns the first [`CoverError`] found (lowest user index; over-grants
/// reported before under-grants for the same user).
pub fn verify_exact_cover(upam: &CsrMatrix, roles: &[MinedRole]) -> Result<(), CoverError> {
    let (n_users, n_perms) = (upam.rows(), upam.cols());
    // Range checks plus the per-user assignment counts in one pass. A
    // permission is a CSR column index, so it must also fit u32.
    let mut counts = vec![0usize; n_users + 1];
    for (ri, role) in roles.iter().enumerate() {
        if role.users.iter().any(|&u| u >= n_users)
            || role
                .permissions
                .iter()
                .any(|&p| p >= n_perms || u32::try_from(p).is_err())
        {
            return Err(CoverError::OutOfRange { role: ri });
        }
        for &u in &role.users {
            counts[u + 1] += 1;
        }
    }
    // Counting sort: user → ids of the roles assigned to them.
    for u in 0..n_users {
        counts[u + 1] += counts[u];
    }
    let mut assigned = vec![0usize; counts[n_users]];
    let mut cursor = counts.clone();
    for (ri, role) in roles.iter().enumerate() {
        for &u in &role.users {
            assigned[cursor[u]] = ri;
            cursor[u] += 1;
        }
    }
    // Per user: the union of assigned role permissions must equal the
    // UPAM row. One reusable scratch vector; over-grants are reported
    // before under-grants for the same user, lowest user first.
    let mut granted: Vec<u32> = Vec::new();
    for (u, span) in counts.windows(2).enumerate() {
        granted.clear();
        for &ri in &assigned[span[0]..span[1]] {
            let permissions = roles[ri].permissions.iter();
            granted.extend(permissions.filter_map(|&p| u32::try_from(p).ok()));
        }
        granted.sort_unstable();
        granted.dedup();
        let want = upam.row(u);
        let shared = setops::intersect_count(&granted, want);
        if granted.len() > shared {
            return Err(CoverError::OverGrant {
                user: u,
                extra: granted.len() - shared,
            });
        }
        if want.len() > shared {
            return Err(CoverError::UnderGrant {
                user: u,
                missing: want.len() - shared,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn upam(rows: &[Vec<usize>], cols: usize) -> CsrMatrix {
        CsrMatrix::from_rows_of_indices(rows.len(), cols, rows).unwrap()
    }

    #[test]
    fn exact_cover_passes() {
        let m = upam(&[vec![0, 1], vec![1]], 2);
        let roles = vec![
            MinedRole {
                permissions: vec![0],
                users: vec![0],
            },
            MinedRole {
                permissions: vec![1],
                users: vec![0, 1],
            },
        ];
        verify_exact_cover(&m, &roles).unwrap();
    }

    #[test]
    fn over_grant_detected() {
        let m = upam(&[vec![0]], 2);
        let roles = vec![MinedRole {
            permissions: vec![0, 1],
            users: vec![0],
        }];
        assert_eq!(
            verify_exact_cover(&m, &roles),
            Err(CoverError::OverGrant { user: 0, extra: 1 })
        );
    }

    #[test]
    fn under_grant_detected() {
        let m = upam(&[vec![0, 1]], 2);
        let roles = vec![MinedRole {
            permissions: vec![0],
            users: vec![0],
        }];
        assert_eq!(
            verify_exact_cover(&m, &roles),
            Err(CoverError::UnderGrant {
                user: 0,
                missing: 1
            })
        );
    }

    #[test]
    fn out_of_range_detected() {
        let m = upam(&[vec![0]], 2);
        let bad_user = vec![MinedRole {
            permissions: vec![0],
            users: vec![5],
        }];
        assert_eq!(
            verify_exact_cover(&m, &bad_user),
            Err(CoverError::OutOfRange { role: 0 })
        );
        let bad_perm = vec![MinedRole {
            permissions: vec![9],
            users: vec![0],
        }];
        assert_eq!(
            verify_exact_cover(&m, &bad_perm),
            Err(CoverError::OutOfRange { role: 0 })
        );
    }

    #[test]
    fn permissions_past_u32_are_out_of_range() {
        // A width past u32::MAX admits the index, but no CSR row can hold
        // it; it must not alias permission 0.
        let wide = CsrMatrix::zeros(1, usize::MAX);
        let roles = vec![MinedRole {
            permissions: vec![1 << 32],
            users: vec![0],
        }];
        assert_eq!(
            verify_exact_cover(&wide, &roles),
            Err(CoverError::OutOfRange { role: 0 })
        );
    }

    #[test]
    fn empty_roles_cover_empty_upam_only() {
        let empty = upam(&[vec![], vec![]], 2);
        verify_exact_cover(&empty, &[]).unwrap();
        let nonempty = upam(&[vec![0]], 2);
        assert!(verify_exact_cover(&nonempty, &[]).is_err());
    }

    #[test]
    fn error_messages() {
        assert_eq!(
            CoverError::OverGrant { user: 3, extra: 2 }.to_string(),
            "user 3 would gain 2 extra permission(s)"
        );
        assert_eq!(
            CoverError::OutOfRange { role: 1 }.to_string(),
            "mined role 1 references an out-of-range index"
        );
    }
}
