//! Property tests for the tripartite graph against a naive reference
//! model (one `BTreeSet` per role and side), plus rebuild and I/O
//! invariants.

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

/// An edit of a growing graph: a node addition or an edge flip.
#[derive(Debug, Clone)]
enum Edit {
    AddUser,
    AddRole,
    AddPermission,
    Flip(Op),
}

/// `len` edits whose flips name roles, users and permissions below the
/// given id bounds. A range past the initial node count lets a flip
/// name a node that does not exist yet (the graph must refuse it) or one
/// an earlier addition made. Of 20 draws, 9 assign a user, 2 revoke one,
/// 4 grant a permission, 2 revoke one and one each adds a node.
fn edits_strategy(
    roles: usize,
    users: usize,
    perms: usize,
    len: std::ops::Range<usize>,
) -> impl Strategy<Value = Vec<Edit>> {
    vec(
        (0u8..20, 0..roles, 0..users, 0..perms).prop_map(|(kind, r, u, p)| match kind {
            0 => Edit::AddUser,
            1 => Edit::AddRole,
            2 => Edit::AddPermission,
            3..=11 => Edit::Flip(Op::AssignUser(r, u)),
            12..=13 => Edit::Flip(Op::RevokeUser(r, u)),
            14..=17 => Edit::Flip(Op::GrantPerm(r, p)),
            _ => Edit::Flip(Op::RevokePerm(r, p)),
        }),
        len,
    )
}

/// The reference model: node counts and one `BTreeSet` per role and side.
#[derive(Debug, Clone)]
struct Model {
    users: usize,
    perms: usize,
    role_users: Vec<BTreeSet<usize>>,
    role_perms: Vec<BTreeSet<usize>>,
}

impl Model {
    fn new(users: usize, roles: usize, perms: usize) -> Model {
        Model {
            users,
            perms,
            role_users: vec![BTreeSet::new(); roles],
            role_perms: vec![BTreeSet::new(); roles],
        }
    }

    /// Applies `edit`: the flip's outcome, or `None` for an unknown id.
    fn apply(&mut self, edit: &Edit) -> Option<bool> {
        let roles = self.role_users.len();
        match *edit {
            Edit::AddUser => self.users += 1,
            Edit::AddRole => {
                self.role_users.push(BTreeSet::new());
                self.role_perms.push(BTreeSet::new());
            }
            Edit::AddPermission => self.perms += 1,
            Edit::Flip(Op::AssignUser(r, u)) if r < roles && u < self.users => {
                return Some(self.role_users[r].insert(u));
            }
            Edit::Flip(Op::RevokeUser(r, u)) if r < roles && u < self.users => {
                return Some(self.role_users[r].remove(&u));
            }
            Edit::Flip(Op::GrantPerm(r, p)) if r < roles && p < self.perms => {
                return Some(self.role_perms[r].insert(p));
            }
            Edit::Flip(Op::RevokePerm(r, p)) if r < roles && p < self.perms => {
                return Some(self.role_perms[r].remove(&p));
            }
            Edit::Flip(_) => return None,
        }
        Some(true)
    }

    /// The roles of each of `n` columns of `side`, ascending.
    fn reverse(side: &[BTreeSet<usize>], n: usize) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); n];
        for (r, cols) in side.iter().enumerate() {
            for &c in cols {
                out[c].push(r);
            }
        }
        out
    }
}

/// Applies `edit` to the graph, as `(changed or unknown id)`.
fn apply_edit(g: &mut TripartiteGraph, edit: &Edit) -> Option<bool> {
    let result = match *edit {
        Edit::AddUser => {
            g.add_user();
            return Some(true);
        }
        Edit::AddRole => {
            g.add_role();
            return Some(true);
        }
        Edit::AddPermission => {
            g.add_permission();
            return Some(true);
        }
        Edit::Flip(Op::AssignUser(r, u)) => {
            g.assign_user(RoleId::from_index(r), UserId::from_index(u))
        }
        Edit::Flip(Op::RevokeUser(r, u)) => {
            g.revoke_user(RoleId::from_index(r), UserId::from_index(u))
        }
        Edit::Flip(Op::GrantPerm(r, p)) => {
            g.grant_permission(RoleId::from_index(r), PermissionId::from_index(p))
        }
        Edit::Flip(Op::RevokePerm(r, p)) => {
            g.revoke_permission(RoleId::from_index(r), PermissionId::from_index(p))
        }
    };
    result.ok()
}

/// `ids` as indices, after checking that they ascend strictly.
fn ascending(ids: impl Iterator<Item = usize>) -> Vec<usize> {
    let ids: Vec<usize> = ids.collect();
    prop_assert!(
        ids.windows(2).all(|w| w[0] < w[1]),
        "{:?} does not ascend strictly",
        ids
    );
    ids
}

/// Checks every view of `g` against `model`: node and edge counts, each
/// adjacency iterator (which must ascend strictly) in both directions,
/// degrees, membership, both projections and effective permissions.
fn assert_matches_model(g: &TripartiteGraph, model: &Model) {
    g.validate().unwrap();
    let roles = model.role_users.len();
    prop_assert_eq!(
        (g.n_users(), g.n_roles(), g.n_permissions()),
        (model.users, roles, model.perms)
    );
    let assignments: usize = model.role_users.iter().map(BTreeSet::len).sum();
    let grants: usize = model.role_perms.iter().map(BTreeSet::len).sum();
    prop_assert_eq!(g.n_user_assignments(), assignments);
    prop_assert_eq!(g.n_permission_grants(), grants);
    let (ruam, rpam) = (g.ruam_sparse(), g.rpam_sparse());
    prop_assert_eq!((ruam.nnz(), rpam.nnz()), (assignments, grants));
    for r in 0..roles {
        let rid = RoleId::from_index(r);
        let users: Vec<usize> = model.role_users[r].iter().copied().collect();
        let perms: Vec<usize> = model.role_perms[r].iter().copied().collect();
        prop_assert_eq!(&ascending(g.users_of(rid).map(UserId::index)), &users);
        prop_assert_eq!(
            &ascending(g.permissions_of(rid).map(PermissionId::index)),
            &perms
        );
        prop_assert_eq!(
            (g.user_degree(rid), g.permission_degree(rid)),
            (users.len(), perms.len())
        );
        for u in 0..model.users {
            prop_assert_eq!(
                g.has_user(rid, UserId::from_index(u)),
                model.role_users[r].contains(&u)
            );
        }
        for p in 0..model.perms {
            let pid = PermissionId::from_index(p);
            prop_assert_eq!(g.has_permission(rid, pid), model.role_perms[r].contains(&p));
        }
        let as_u32 = |ids: &[usize]| ids.iter().map(|&i| i as u32).collect::<Vec<u32>>();
        prop_assert_eq!(ruam.row(r), as_u32(&users).as_slice());
        prop_assert_eq!(rpam.row(r), as_u32(&perms).as_slice());
    }
    let user_roles = Model::reverse(&model.role_users, model.users);
    let perm_roles = Model::reverse(&model.role_perms, model.perms);
    for (u, want) in user_roles.iter().enumerate() {
        let uid = UserId::from_index(u);
        prop_assert_eq!(&ascending(g.roles_of_user(uid).map(RoleId::index)), want);
        let effective: BTreeSet<PermissionId> = want
            .iter()
            .flat_map(|&r| {
                model.role_perms[r]
                    .iter()
                    .map(|&p| PermissionId::from_index(p))
            })
            .collect();
        prop_assert_eq!(g.effective_permissions(uid), effective);
    }
    for (p, want) in perm_roles.iter().enumerate() {
        let pid = PermissionId::from_index(p);
        prop_assert_eq!(
            &ascending(g.roles_of_permission(pid).map(RoleId::index)),
            want
        );
    }
}

/// Applies `edits` to a graph and the model from the same initial node
/// counts, checking each outcome.
fn apply_edits(
    users: usize,
    roles: usize,
    perms: usize,
    edits: &[Edit],
) -> (TripartiteGraph, Model) {
    let mut g = TripartiteGraph::with_counts(users, roles, perms);
    let mut model = Model::new(users, roles, perms);
    for edit in edits {
        prop_assert_eq!(apply_edit(&mut g, edit), model.apply(edit), "{:?}", edit);
    }
    (g, model)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn graph_matches_reference_edge_sets(edits in edits_strategy(8, 10, 9, 0..80)) {
        // 6 roles, 8 users and 7 permissions to start; flips name ids up
        // to two past each count.
        let (g, model) = apply_edits(8, 6, 7, &edits);
        assert_matches_model(&g, &model);
    }

    #[test]
    fn rebuild_merges_match_the_model_edge_union(
        edits in edits_strategy(6, 8, 7, 0..60),
        (n_new, targets) in (1usize..=4).prop_flat_map(|k| (Just(k), vec(0..=k, 8))),
    ) {
        let (g, model) = apply_edits(8, 6, 7, &edits);
        // Target k means "drop the role"; several roles share the others.
        let map: Vec<Option<usize>> = targets[..g.n_roles().min(8)]
            .iter()
            .map(|&t| (t < n_new).then_some(t))
            .chain(std::iter::repeat(None))
            .take(g.n_roles())
            .collect();
        let merged = g.rebuild_with_role_map(&map, n_new).unwrap();
        let mut want = Model::new(model.users, n_new, model.perms);
        for (old, target) in map.iter().enumerate() {
            if let Some(new) = *target {
                want.role_users[new].extend(model.role_users[old].iter().copied());
                want.role_perms[new].extend(model.role_perms[old].iter().copied());
            }
        }
        assert_matches_model(&merged, &want);
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

proptest! {
    // A few thousand flips per case; 24 cases keep the debug run short.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn long_lists_match_reference_edge_sets(edits in edits_strategy(1, 502, 352, 2_000..2_400)) {
        // Every flip names role 0, over 500 users: its user list holds
        // about 370 ids by the end, so late flips move a list longer
        // than any in the paper-sized orgs (355 at most).
        let (g, model) = apply_edits(500, 1, 350, &edits);
        assert_matches_model(&g, &model);
        prop_assert!(g.user_degree(RoleId(0)) > 300, "{}", g.user_degree(RoleId(0)));
    }
}
