//! Property tests for the tripartite graph against a naive reference
//! model (plain edge sets), plus rebuild and I/O invariants.

use std::collections::BTreeSet;

use proptest::collection::vec;
use proptest::prelude::*;

use rolediet_matrix::RowMatrix;
use rolediet_model::io::csv::{read_edges, write_edges, EdgeKind};
use rolediet_model::{PermissionId, RbacDataset, RoleId, TripartiteGraph, UserId};

/// A graph mutation in the reference model's terms.
#[derive(Debug, Clone)]
enum Op {
    AssignUser(usize, usize),
    RevokeUser(usize, usize),
    GrantPerm(usize, usize),
    RevokePerm(usize, usize),
}

fn ops_strategy(roles: usize, users: usize, perms: usize) -> impl Strategy<Value = Vec<Op>> {
    vec(
        prop_oneof![
            (0..roles, 0..users).prop_map(|(r, u)| Op::AssignUser(r, u)),
            (0..roles, 0..users).prop_map(|(r, u)| Op::RevokeUser(r, u)),
            (0..roles, 0..perms).prop_map(|(r, p)| Op::GrantPerm(r, p)),
            (0..roles, 0..perms).prop_map(|(r, p)| Op::RevokePerm(r, p)),
        ],
        0..60,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn graph_matches_reference_edge_sets(ops in ops_strategy(6, 8, 7)) {
        let (roles, users, perms) = (6usize, 8usize, 7usize);
        let mut g = TripartiteGraph::with_counts(users, roles, perms);
        let mut ref_user_edges: BTreeSet<(usize, usize)> = BTreeSet::new();
        let mut ref_perm_edges: BTreeSet<(usize, usize)> = BTreeSet::new();
        for op in &ops {
            match *op {
                Op::AssignUser(r, u) => {
                    let added = g
                        .assign_user(RoleId::from_index(r), UserId::from_index(u))
                        .unwrap();
                    prop_assert_eq!(added, ref_user_edges.insert((r, u)));
                }
                Op::RevokeUser(r, u) => {
                    let removed = g
                        .revoke_user(RoleId::from_index(r), UserId::from_index(u))
                        .unwrap();
                    prop_assert_eq!(removed, ref_user_edges.remove(&(r, u)));
                }
                Op::GrantPerm(r, p) => {
                    let added = g
                        .grant_permission(RoleId::from_index(r), PermissionId::from_index(p))
                        .unwrap();
                    prop_assert_eq!(added, ref_perm_edges.insert((r, p)));
                }
                Op::RevokePerm(r, p) => {
                    let removed = g
                        .revoke_permission(RoleId::from_index(r), PermissionId::from_index(p))
                        .unwrap();
                    prop_assert_eq!(removed, ref_perm_edges.remove(&(r, p)));
                }
            }
        }
        // Internal consistency after an arbitrary mutation sequence.
        g.validate().unwrap();
        prop_assert_eq!(g.n_user_assignments(), ref_user_edges.len());
        prop_assert_eq!(g.n_permission_grants(), ref_perm_edges.len());
        // Forward and reverse views agree with the reference.
        for r in 0..roles {
            let rid = RoleId::from_index(r);
            let have: BTreeSet<usize> = g.users_of(rid).map(|u| u.index()).collect();
            let want: BTreeSet<usize> = ref_user_edges
                .iter()
                .filter(|&&(rr, _)| rr == r)
                .map(|&(_, u)| u)
                .collect();
            prop_assert_eq!(have, want);
        }
        for u in 0..users {
            let uid = UserId::from_index(u);
            let have: BTreeSet<usize> = g.roles_of_user(uid).map(|r| r.index()).collect();
            let want: BTreeSet<usize> = ref_user_edges
                .iter()
                .filter(|&&(_, uu)| uu == u)
                .map(|&(r, _)| r)
                .collect();
            prop_assert_eq!(have, want);
        }
        // Matrix projections agree with the reference too.
        let ruam = g.ruam_sparse();
        prop_assert_eq!(ruam.nnz(), ref_user_edges.len());
        for &(r, u) in &ref_user_edges {
            prop_assert!(ruam.get(r, u));
        }
        // Effective permissions = union over the user's roles.
        for u in 0..users {
            let uid = UserId::from_index(u);
            let mut want: BTreeSet<PermissionId> = BTreeSet::new();
            for &(r, uu) in &ref_user_edges {
                if uu == u {
                    for &(rr, p) in &ref_perm_edges {
                        if rr == r {
                            want.insert(PermissionId::from_index(p));
                        }
                    }
                }
            }
            prop_assert_eq!(g.effective_permissions(uid), want);
        }
    }

    #[test]
    fn upam_rows_are_effective_permissions(ops in ops_strategy(6, 8, 7)) {
        // Up to 60 edits over 6 roles and 7 permissions give most users
        // several roles with overlapping permissions: the rows whose
        // projection must merge repeats.
        let (roles, users, perms) = (6usize, 8usize, 7usize);
        let mut g = TripartiteGraph::with_counts(users, roles, perms);
        for op in &ops {
            match *op {
                Op::AssignUser(r, u) => g.assign_user(RoleId::from_index(r), UserId::from_index(u)),
                Op::RevokeUser(r, u) => g.revoke_user(RoleId::from_index(r), UserId::from_index(u)),
                Op::GrantPerm(r, p) => {
                    g.grant_permission(RoleId::from_index(r), PermissionId::from_index(p))
                }
                Op::RevokePerm(r, p) => {
                    g.revoke_permission(RoleId::from_index(r), PermissionId::from_index(p))
                }
            }
            .unwrap();
        }
        for threads in [1, 2, 4, 8] {
            let upam = g.upam_sparse_with(threads);
            prop_assert_eq!((upam.n_rows(), upam.n_cols()), (users, perms));
            for u in 0..users {
                let want: Vec<u32> = g
                    .effective_permissions(UserId::from_index(u))
                    .into_iter()
                    .map(|p| p.index() as u32)
                    .collect();
                prop_assert_eq!(upam.row(u), want.as_slice(), "user {} at {} threads", u, threads);
            }
        }
    }

    #[test]
    fn rebuild_identity_map_is_identity(ops in ops_strategy(5, 6, 6)) {
        let mut g = TripartiteGraph::with_counts(6, 5, 6);
        for op in &ops {
            match *op {
                Op::AssignUser(r, u) => {
                    g.assign_user(RoleId::from_index(r), UserId::from_index(u)).unwrap();
                }
                Op::GrantPerm(r, p) => {
                    g.grant_permission(RoleId::from_index(r), PermissionId::from_index(p))
                        .unwrap();
                }
                _ => {}
            }
        }
        let map: Vec<Option<usize>> = (0..g.n_roles()).map(Some).collect();
        let g2 = g.rebuild_with_role_map(&map, g.n_roles()).unwrap();
        prop_assert_eq!(g2, g);
    }

    #[test]
    fn csv_roundtrip_preserves_edges(ops in ops_strategy(5, 6, 6)) {
        let mut ds = RbacDataset::new();
        for op in &ops {
            match *op {
                Op::AssignUser(r, u) => {
                    ds.assign_user_by_name(&format!("r{r}"), &format!("u{u}"));
                }
                Op::GrantPerm(r, p) => {
                    ds.grant_permission_by_name(&format!("r{r}"), &format!("p{p}"));
                }
                _ => {}
            }
        }
        let mut users_csv = Vec::new();
        write_edges(&mut users_csv, &ds, EdgeKind::UserAssignments).unwrap();
        let mut perms_csv = Vec::new();
        write_edges(&mut perms_csv, &ds, EdgeKind::PermissionGrants).unwrap();
        let mut back = RbacDataset::new();
        read_edges(users_csv.as_slice(), &mut back, EdgeKind::UserAssignments).unwrap();
        read_edges(perms_csv.as_slice(), &mut back, EdgeKind::PermissionGrants).unwrap();
        // Compare edge sets by name (ids may be permuted by read order).
        let edges_by_name = |d: &RbacDataset| {
            let mut out = BTreeSet::new();
            for r in 0..d.graph().n_roles() {
                let rid = RoleId::from_index(r);
                for u in d.graph().users_of(rid) {
                    out.insert((
                        d.role_name(rid).to_owned(),
                        d.user_name(u).to_owned(),
                    ));
                }
            }
            out
        };
        prop_assert_eq!(edges_by_name(&ds), edges_by_name(&back));
    }
}
