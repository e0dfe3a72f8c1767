//! The tripartite user–role–permission graph.

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};

use rolediet_matrix::CsrMatrix;

use crate::error::ModelError;
use crate::id::{EntityKind, PermissionId, RoleId, UserId};
use crate::Result;

/// The tripartite RBAC graph of Figure 1 of the paper.
///
/// Nodes are dense ids per class; edges exist only user↔role and
/// role↔permission. Both edge directions are indexed, so degree queries
/// (`users_of`, `roles_of_user`, …) are O(1) to start and iteration is in
/// ascending id order (deterministic output everywhere).
///
/// Each node keeps its neighbours as one strictly ascending `u32` list.
/// Membership is a binary search, and an edge flip inserts or removes by
/// binary search, an O(degree) move of the list's tail. Iteration and the
/// matrix projections read the lists as slices. A deserialized graph is
/// [validated](Self::validate) before it is returned, so no unsorted,
/// repeated, out-of-range or one-sided list gets in.
///
/// The graph is the *source of truth*; the detectors consume its two matrix
/// projections:
///
/// * [`ruam_sparse`](Self::ruam_sparse) — Role-User Assignment Matrix,
///   roles × users;
/// * [`rpam_sparse`](Self::rpam_sparse) — Role-Permission Assignment
///   Matrix, roles × permissions.
///
/// # Examples
///
/// ```
/// use rolediet_model::TripartiteGraph;
///
/// let mut g = TripartiteGraph::new();
/// let u = g.add_user();
/// let r = g.add_role();
/// let p = g.add_permission();
/// g.assign_user(r, u)?;
/// g.grant_permission(r, p)?;
/// assert!(g.effective_permissions(u).contains(&p));
/// # Ok::<(), rolediet_model::ModelError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
#[serde(try_from = "AdjacencyLists")]
pub struct TripartiteGraph {
    role_users: Vec<Vec<u32>>,
    role_perms: Vec<Vec<u32>>,
    user_roles: Vec<Vec<u32>>,
    perm_roles: Vec<Vec<u32>>,
}

/// The four adjacency lists of a [`TripartiteGraph`] as they
/// deserialize, before [`TripartiteGraph::validate`] accepts them.
#[derive(Deserialize)]
pub(crate) struct AdjacencyLists {
    role_users: Vec<Vec<u32>>,
    role_perms: Vec<Vec<u32>>,
    user_roles: Vec<Vec<u32>>,
    perm_roles: Vec<Vec<u32>>,
}

impl TryFrom<AdjacencyLists> for TripartiteGraph {
    type Error = ModelError;

    fn try_from(lists: AdjacencyLists) -> Result<Self> {
        let g = TripartiteGraph {
            role_users: lists.role_users,
            role_perms: lists.role_perms,
            user_roles: lists.user_roles,
            perm_roles: lists.perm_roles,
        };
        g.validate()?;
        Ok(g)
    }
}

/// `count` nodes of `kind` as a `u32` id bound, or
/// [`ModelError::TooMany`] past the `u32` id space.
fn id_bound(kind: EntityKind, count: usize) -> Result<u32> {
    u32::try_from(count).map_err(|_| ModelError::TooMany { kind, count })
}

/// Checks that `id` names one of `count` nodes of `kind`.
fn check_id(kind: EntityKind, id: u32, count: usize) -> Result<()> {
    if (id as usize) < count {
        return Ok(());
    }
    Err(ModelError::UnknownId {
        kind,
        id,
        bound: id_bound(kind, count)?,
    })
}

/// Inserts `x` into the strictly ascending `list`; `false` if present.
fn insert_sorted(list: &mut Vec<u32>, x: u32) -> bool {
    match list.binary_search(&x) {
        Ok(_) => false,
        Err(at) => {
            list.insert(at, x);
            true
        }
    }
}

/// Removes `x` from the strictly ascending `list`; `false` if absent.
fn remove_sorted(list: &mut Vec<u32>, x: u32) -> bool {
    match list.binary_search(&x) {
        Ok(at) => {
            list.remove(at);
            true
        }
        Err(_) => false,
    }
}

/// The reverse index of `forward` (lists of ids below `n`): list `c`
/// holds every `r` whose list names `c`. Rows are read in ascending
/// order, so every reverse list comes out strictly ascending.
fn reverse_lists(forward: &[Vec<u32>], n: usize) -> Vec<Vec<u32>> {
    let mut degrees = vec![0usize; n];
    for &c in forward.iter().flatten() {
        degrees[c as usize] += 1;
    }
    let mut reverse: Vec<Vec<u32>> = degrees.into_iter().map(Vec::with_capacity).collect();
    for (r, list) in (0u32..).zip(forward) {
        for &c in list {
            reverse[c as usize].push(r);
        }
    }
    reverse
}

/// Checks one direction of an edge family: every list of `lists` (the
/// lists of the `kind` nodes) names only nodes of `neighbor` below
/// `back.len()`, and each of those names it back. Every list must
/// already be known to ascend strictly, as `back`'s are searched.
fn check_listed_back(
    lists: &[Vec<u32>],
    kind: EntityKind,
    back: &[Vec<u32>],
    neighbor: EntityKind,
) -> Result<()> {
    for (id, list) in (0u32..).zip(lists) {
        for &n in list {
            check_id(neighbor, n, back.len())?;
            if back[n as usize].binary_search(&id).is_err() {
                return Err(ModelError::AsymmetricEdge {
                    kind,
                    id,
                    neighbor,
                    neighbor_id: n,
                });
            }
        }
    }
    Ok(())
}

impl TripartiteGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a graph with `users`, `roles` and `permissions` unconnected
    /// nodes pre-allocated (ids `0..n` per class).
    pub fn with_counts(users: usize, roles: usize, permissions: usize) -> Self {
        TripartiteGraph {
            role_users: vec![Vec::new(); roles],
            role_perms: vec![Vec::new(); roles],
            user_roles: vec![Vec::new(); users],
            perm_roles: vec![Vec::new(); permissions],
        }
    }

    /// Adds a user node, returning its id.
    pub fn add_user(&mut self) -> UserId {
        self.user_roles.push(Vec::new());
        UserId::from_index(self.user_roles.len() - 1)
    }

    /// Adds a role node, returning its id.
    pub fn add_role(&mut self) -> RoleId {
        self.role_users.push(Vec::new());
        self.role_perms.push(Vec::new());
        RoleId::from_index(self.role_users.len() - 1)
    }

    /// Adds a permission node, returning its id.
    pub fn add_permission(&mut self) -> PermissionId {
        self.perm_roles.push(Vec::new());
        PermissionId::from_index(self.perm_roles.len() - 1)
    }

    /// Number of user nodes.
    pub fn n_users(&self) -> usize {
        self.user_roles.len()
    }

    /// Number of role nodes.
    pub fn n_roles(&self) -> usize {
        self.role_users.len()
    }

    /// Number of permission nodes.
    pub fn n_permissions(&self) -> usize {
        self.perm_roles.len()
    }

    /// Number of user–role edges.
    pub fn n_user_assignments(&self) -> usize {
        self.role_users.iter().map(Vec::len).sum()
    }

    /// Number of role–permission edges.
    pub fn n_permission_grants(&self) -> usize {
        self.role_perms.iter().map(Vec::len).sum()
    }

    /// Adds a user–role edge. Returns `true` if the edge was new.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownId`] if either node does not exist.
    pub fn assign_user(&mut self, role: RoleId, user: UserId) -> Result<bool> {
        check_id(EntityKind::Role, role.0, self.n_roles())?;
        check_id(EntityKind::User, user.0, self.n_users())?;
        let added = insert_sorted(&mut self.role_users[role.index()], user.0);
        insert_sorted(&mut self.user_roles[user.index()], role.0);
        Ok(added)
    }

    /// Adds a role–permission edge. Returns `true` if the edge was new.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownId`] if either node does not exist.
    pub fn grant_permission(&mut self, role: RoleId, permission: PermissionId) -> Result<bool> {
        check_id(EntityKind::Role, role.0, self.n_roles())?;
        check_id(EntityKind::Permission, permission.0, self.n_permissions())?;
        let added = insert_sorted(&mut self.role_perms[role.index()], permission.0);
        insert_sorted(&mut self.perm_roles[permission.index()], role.0);
        Ok(added)
    }

    /// Removes a user–role edge. Returns `true` if the edge existed.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownId`] if either node does not exist.
    pub fn revoke_user(&mut self, role: RoleId, user: UserId) -> Result<bool> {
        check_id(EntityKind::Role, role.0, self.n_roles())?;
        check_id(EntityKind::User, user.0, self.n_users())?;
        let removed = remove_sorted(&mut self.role_users[role.index()], user.0);
        remove_sorted(&mut self.user_roles[user.index()], role.0);
        Ok(removed)
    }

    /// Removes a role–permission edge. Returns `true` if the edge existed.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownId`] if either node does not exist.
    pub fn revoke_permission(&mut self, role: RoleId, permission: PermissionId) -> Result<bool> {
        check_id(EntityKind::Role, role.0, self.n_roles())?;
        check_id(EntityKind::Permission, permission.0, self.n_permissions())?;
        let removed = remove_sorted(&mut self.role_perms[role.index()], permission.0);
        remove_sorted(&mut self.perm_roles[permission.index()], role.0);
        Ok(removed)
    }

    /// Returns `true` if `user` is assigned `role`.
    ///
    /// # Panics
    ///
    /// Panics if `role` is out of range.
    pub fn has_user(&self, role: RoleId, user: UserId) -> bool {
        self.role_users[role.index()].binary_search(&user.0).is_ok()
    }

    /// Returns `true` if `role` grants `permission`.
    ///
    /// # Panics
    ///
    /// Panics if `role` is out of range.
    pub fn has_permission(&self, role: RoleId, permission: PermissionId) -> bool {
        self.role_perms[role.index()]
            .binary_search(&permission.0)
            .is_ok()
    }

    /// Users assigned to `role`, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `role` is out of range.
    pub fn users_of(&self, role: RoleId) -> impl Iterator<Item = UserId> + '_ {
        self.role_users[role.index()].iter().map(|&u| UserId(u))
    }

    /// Permissions granted by `role`, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `role` is out of range.
    pub fn permissions_of(&self, role: RoleId) -> impl Iterator<Item = PermissionId> + '_ {
        self.role_perms[role.index()]
            .iter()
            .map(|&p| PermissionId(p))
    }

    /// Roles assigned to `user`, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `user` is out of range.
    pub fn roles_of_user(&self, user: UserId) -> impl Iterator<Item = RoleId> + '_ {
        self.user_roles[user.index()].iter().map(|&r| RoleId(r))
    }

    /// Roles granting `permission`, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `permission` is out of range.
    pub fn roles_of_permission(
        &self,
        permission: PermissionId,
    ) -> impl Iterator<Item = RoleId> + '_ {
        self.perm_roles[permission.index()]
            .iter()
            .map(|&r| RoleId(r))
    }

    /// Number of users of `role` (its RUAM row norm).
    ///
    /// # Panics
    ///
    /// Panics if `role` is out of range.
    pub fn user_degree(&self, role: RoleId) -> usize {
        self.role_users[role.index()].len()
    }

    /// Number of permissions of `role` (its RPAM row norm).
    ///
    /// # Panics
    ///
    /// Panics if `role` is out of range.
    pub fn permission_degree(&self, role: RoleId) -> usize {
        self.role_perms[role.index()].len()
    }

    /// The set of permissions `user` can exercise through any role —
    /// the semantics consolidation must preserve.
    ///
    /// # Panics
    ///
    /// Panics if `user` is out of range.
    pub fn effective_permissions(&self, user: UserId) -> BTreeSet<PermissionId> {
        let mut out = BTreeSet::new();
        for &r in &self.user_roles[user.index()] {
            for &p in &self.role_perms[r as usize] {
                out.insert(PermissionId(p));
            }
        }
        out
    }

    /// Projects the graph onto the Role-User Assignment Matrix (sparse).
    pub fn ruam_sparse(&self) -> CsrMatrix {
        self.ruam_sparse_with(1)
    }

    /// [`ruam_sparse`](Self::ruam_sparse) built by the two-pass parallel
    /// CSR kernel ([`CsrMatrix::from_row_iter_two_pass`]) on `threads`
    /// workers. Each role's list already holds its users strictly
    /// ascending, so the rows stream straight into the matrix with no
    /// per-row `Vec`, no sort and no dedup; output is bit-identical for
    /// every thread count.
    pub fn ruam_sparse_with(&self, threads: usize) -> CsrMatrix {
        CsrMatrix::from_row_iter_two_pass(self.n_roles(), self.n_users(), threads, |r| {
            self.role_users[r].iter().copied()
        })
    }

    /// Projects the graph onto the Role-Permission Assignment Matrix (sparse).
    pub fn rpam_sparse(&self) -> CsrMatrix {
        self.rpam_sparse_with(1)
    }

    /// [`rpam_sparse`](Self::rpam_sparse) built by the two-pass parallel
    /// CSR kernel on `threads` workers; see
    /// [`ruam_sparse_with`](Self::ruam_sparse_with).
    pub fn rpam_sparse_with(&self, threads: usize) -> CsrMatrix {
        CsrMatrix::from_row_iter_two_pass(self.n_roles(), self.n_permissions(), threads, |r| {
            self.role_perms[r].iter().copied()
        })
    }

    /// Projects the graph onto the *effective* User-Permission Assignment
    /// Matrix (users × permissions, sparse): cell `(u, p)` is set when
    /// user `u` can exercise permission `p` through at least one role.
    ///
    /// This is the matrix RBAC ultimately *means*; consolidation must
    /// keep it bit-identical, and the dual detectors (users with
    /// identical effective access) run on it.
    pub fn upam_sparse(&self) -> CsrMatrix {
        self.upam_sparse_with(1)
    }

    /// [`upam_sparse`](Self::upam_sparse) built on `threads` workers by
    /// [`CsrMatrix::from_appended_rows`]. Each user's row is built once:
    /// its roles' permission lists are appended to a per-worker buffer,
    /// which is sorted and deduplicated. Besides the matrix itself, the
    /// transient memory is one row buffer per worker plus the workers'
    /// shares of the indices, which the join copies once when
    /// `threads > 1`; output is bit-identical for every thread count and
    /// equals [`effective_permissions`](Self::effective_permissions) row
    /// by row.
    pub fn upam_sparse_with(&self, threads: usize) -> CsrMatrix {
        CsrMatrix::from_appended_rows(self.n_users(), self.n_permissions(), threads, |u, row| {
            for &r in &self.user_roles[u] {
                row.extend_from_slice(&self.role_perms[r as usize]);
            }
        })
    }

    /// Rebuilds the graph with roles remapped through `role_map`.
    ///
    /// `role_map[i] = Some(k)` moves old role `i` (with all its edges) onto
    /// new role `k`; several old roles mapping to the same `k` are *merged*
    /// (edge union). `None` drops the role and its edges. Users and
    /// permissions keep their ids. This is the primitive the consolidation
    /// planner uses to apply a merge plan.
    ///
    /// Each new role's lists are the concatenation of its old roles'
    /// lists, sorted and deduplicated once; the reverse lists are then
    /// filled in ascending role order, so they need no sort.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::WidthMismatch`] if `role_map.len()` differs
    /// from [`n_roles`](Self::n_roles), [`ModelError::TooMany`] if
    /// `n_new_roles` or a target index does not fit a `u32` role id, and
    /// [`ModelError::UnknownId`] if a target index is `>= n_new_roles`.
    pub fn rebuild_with_role_map(
        &self,
        role_map: &[Option<usize>],
        n_new_roles: usize,
    ) -> Result<TripartiteGraph> {
        if role_map.len() != self.n_roles() {
            return Err(ModelError::WidthMismatch {
                kind: EntityKind::Role,
                expected: self.n_roles(),
                found: role_map.len(),
            });
        }
        let bound = id_bound(EntityKind::Role, n_new_roles)?;
        let mut role_users = vec![Vec::new(); n_new_roles];
        let mut role_perms = vec![Vec::new(); n_new_roles];
        for (old, target) in role_map.iter().enumerate() {
            let Some(new) = *target else { continue };
            let id = u32::try_from(new).map_err(|_| ModelError::TooMany {
                kind: EntityKind::Role,
                count: new.saturating_add(1),
            })?;
            if id >= bound {
                return Err(ModelError::UnknownId {
                    kind: EntityKind::Role,
                    id,
                    bound,
                });
            }
            role_users[new].extend_from_slice(&self.role_users[old]);
            role_perms[new].extend_from_slice(&self.role_perms[old]);
        }
        for list in role_users.iter_mut().chain(role_perms.iter_mut()) {
            list.sort_unstable();
            list.dedup();
        }
        Ok(TripartiteGraph {
            user_roles: reverse_lists(&role_users, self.n_users()),
            perm_roles: reverse_lists(&role_perms, self.n_permissions()),
            role_users,
            role_perms,
        })
    }

    /// Verifies internal consistency: every adjacency list ascends
    /// strictly, names only ids in range, and is mirrored by the reverse
    /// index.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::TooMany`] if a node class outgrows the `u32`
    /// id space, [`ModelError::UnsortedAdjacency`] for the first list that
    /// does not ascend strictly, [`ModelError::UnknownId`] for an id out
    /// of range, and [`ModelError::AsymmetricEdge`] for an edge only one
    /// of its endpoints lists.
    pub fn validate(&self) -> Result<()> {
        use EntityKind::{Permission, Role, User};
        id_bound(User, self.n_users())?;
        id_bound(Role, self.n_roles())?;
        id_bound(Permission, self.n_permissions())?;
        let families = [
            (&self.role_users, Role, &self.user_roles, User),
            (&self.role_perms, Role, &self.perm_roles, Permission),
            (&self.user_roles, User, &self.role_users, Role),
            (&self.perm_roles, Permission, &self.role_perms, Role),
        ];
        for &(lists, kind, _, neighbor) in &families {
            let unsorted = (0u32..)
                .zip(lists)
                .find(|(_, list)| list.windows(2).any(|w| w[0] >= w[1]));
            if let Some((id, _)) = unsorted {
                return Err(ModelError::UnsortedAdjacency { kind, id, neighbor });
            }
        }
        for (lists, kind, back, neighbor) in families {
            check_listed_back(lists, kind, back, neighbor)?;
        }
        Ok(())
    }

    /// Builds the worked example of Figure 1 of the paper: users U01–U04,
    /// roles R01–R05, permissions P01–P06 (0-indexed here), with
    ///
    /// * R01 = {U01}, R02 = {U02, U03}, R03 = {}, R04 = {U02, U03},
    ///   R05 = {U04} on the user side;
    /// * R01 = {P02, P03}, R02 = {}, R03 = {P04}, R04 = {P05, P06},
    ///   R05 = {P05, P06} on the permission side;
    /// * P01 is standalone.
    ///
    /// Used throughout tests and examples to pin expected findings.
    pub fn figure1_example() -> TripartiteGraph {
        let ru: [&[u32]; 5] = [&[0], &[1, 2], &[], &[1, 2], &[3]];
        let rp: [&[u32]; 5] = [&[1, 2], &[], &[3], &[4, 5], &[4, 5]];
        let role_users: Vec<Vec<u32>> = ru.iter().map(|users| users.to_vec()).collect();
        let role_perms: Vec<Vec<u32>> = rp.iter().map(|perms| perms.to_vec()).collect();
        TripartiteGraph {
            user_roles: reverse_lists(&role_users, 4),
            perm_roles: reverse_lists(&role_perms, 6),
            role_users,
            role_perms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rolediet_matrix::RowMatrix;

    #[test]
    fn add_nodes_and_edges() {
        let mut g = TripartiteGraph::new();
        let u0 = g.add_user();
        let u1 = g.add_user();
        let r = g.add_role();
        let p = g.add_permission();
        assert_eq!((g.n_users(), g.n_roles(), g.n_permissions()), (2, 1, 1));
        assert!(g.assign_user(r, u0).unwrap());
        assert!(!g.assign_user(r, u0).unwrap(), "duplicate edge not new");
        assert!(g.assign_user(r, u1).unwrap());
        assert!(g.grant_permission(r, p).unwrap());
        assert_eq!(g.n_user_assignments(), 2);
        assert_eq!(g.n_permission_grants(), 1);
        assert!(g.has_user(r, u0));
        assert!(g.has_permission(r, p));
        assert_eq!(g.user_degree(r), 2);
        assert_eq!(g.permission_degree(r), 1);
        g.validate().unwrap();
    }

    #[test]
    fn unknown_ids_are_rejected() {
        let mut g = TripartiteGraph::with_counts(1, 1, 1);
        assert!(g.assign_user(RoleId(1), UserId(0)).is_err());
        assert!(g.assign_user(RoleId(0), UserId(9)).is_err());
        assert!(g.grant_permission(RoleId(0), PermissionId(1)).is_err());
        assert!(g.revoke_user(RoleId(3), UserId(0)).is_err());
        assert!(g.revoke_permission(RoleId(0), PermissionId(7)).is_err());
    }

    #[test]
    fn revoke_updates_both_directions() {
        let mut g = TripartiteGraph::with_counts(1, 1, 1);
        g.assign_user(RoleId(0), UserId(0)).unwrap();
        assert!(g.revoke_user(RoleId(0), UserId(0)).unwrap());
        assert!(!g.revoke_user(RoleId(0), UserId(0)).unwrap());
        assert_eq!(g.roles_of_user(UserId(0)).count(), 0);
        g.grant_permission(RoleId(0), PermissionId(0)).unwrap();
        assert!(g.revoke_permission(RoleId(0), PermissionId(0)).unwrap());
        assert_eq!(g.roles_of_permission(PermissionId(0)).count(), 0);
        g.validate().unwrap();
    }

    #[test]
    fn figure1_shape() {
        let g = TripartiteGraph::figure1_example();
        assert_eq!((g.n_users(), g.n_roles(), g.n_permissions()), (4, 5, 6));
        // R03 has no users; R02 has no permissions; P01 (index 0) standalone.
        assert_eq!(g.user_degree(RoleId(2)), 0);
        assert_eq!(g.permission_degree(RoleId(1)), 0);
        assert_eq!(g.roles_of_permission(PermissionId(0)).count(), 0);
        // R02 and R04 share users; R04 and R05 share permissions.
        let ru: Vec<_> = g.users_of(RoleId(1)).collect();
        assert_eq!(ru, g.users_of(RoleId(3)).collect::<Vec<_>>());
        let rp: Vec<_> = g.permissions_of(RoleId(3)).collect();
        assert_eq!(rp, g.permissions_of(RoleId(4)).collect::<Vec<_>>());
        g.validate().unwrap();
    }

    #[test]
    fn matrix_projections_agree() {
        let g = TripartiteGraph::figure1_example();
        let rs = g.ruam_sparse();
        assert_eq!((rs.rows(), rs.cols()), (5, 4));
        assert_eq!(rs.row(1), &[1, 2]);
        assert_eq!(rs.row(1), rs.row(3));
        let ps = g.rpam_sparse();
        assert_eq!((ps.rows(), ps.cols()), (5, 6));
        // Column sums of RPAM: P01 standalone → first column sum 0.
        assert_eq!(ps.col_sums()[0], 0);
        assert_eq!(ps.row(3), ps.row(4));
    }

    #[test]
    fn sparse_projections_identical_across_thread_counts() {
        let graphs = [
            TripartiteGraph::figure1_example(),
            TripartiteGraph::new(),
            TripartiteGraph::with_counts(3, 4, 2),
        ];
        for g in &graphs {
            let (ruam, rpam, upam) = (g.ruam_sparse(), g.rpam_sparse(), g.upam_sparse());
            for threads in [1, 2, 4, 8] {
                assert_eq!(g.ruam_sparse_with(threads), ruam, "threads={threads}");
                assert_eq!(g.rpam_sparse_with(threads), rpam, "threads={threads}");
                assert_eq!(g.upam_sparse_with(threads), upam, "threads={threads}");
            }
        }
    }

    #[test]
    fn upam_matches_effective_permissions() {
        let g = TripartiteGraph::figure1_example();
        let upam = g.upam_sparse();
        assert_eq!(upam.rows(), 4);
        assert_eq!(upam.cols(), 6);
        for u in 0..4 {
            let expected: Vec<usize> = g
                .effective_permissions(UserId::from_index(u))
                .into_iter()
                .map(|p| p.index())
                .collect();
            assert_eq!(upam.row_indices(u), expected, "user {u}");
        }
        // U02 and U03 (indices 1, 2) have identical effective access
        // (both via R02+R04) — identical UPAM rows.
        assert!(upam.rows_equal(1, 2));
        assert!(!upam.rows_equal(0, 1));
    }

    #[test]
    fn effective_permissions_union_over_roles() {
        let g = TripartiteGraph::figure1_example();
        // U02 (index 1) has roles R02 (no perms) and R04 ({P05, P06}).
        let perms = g.effective_permissions(UserId(1));
        assert_eq!(
            perms.into_iter().collect::<Vec<_>>(),
            vec![PermissionId(4), PermissionId(5)]
        );
        // U01 (index 0) has only R01 → {P02, P03}.
        let perms = g.effective_permissions(UserId(0));
        assert_eq!(
            perms.into_iter().collect::<Vec<_>>(),
            vec![PermissionId(1), PermissionId(2)]
        );
    }

    #[test]
    fn rebuild_with_role_map_merges_edges() {
        let g = TripartiteGraph::figure1_example();
        // Merge R04 and R05 (indices 3, 4) into new role 3; keep 0..3 as-is.
        let map = vec![Some(0), Some(1), Some(2), Some(3), Some(3)];
        let g2 = g.rebuild_with_role_map(&map, 4).unwrap();
        assert_eq!(g2.n_roles(), 4);
        g2.validate().unwrap();
        // New role 3 has users of both (U02, U03 from R04 and U04 from R05)
        let users: Vec<_> = g2.users_of(RoleId(3)).collect();
        assert_eq!(users, vec![UserId(1), UserId(2), UserId(3)]);
        // and the shared permission set {P05, P06}.
        let perms: Vec<_> = g2.permissions_of(RoleId(3)).collect();
        assert_eq!(perms, vec![PermissionId(4), PermissionId(5)]);
        // Users and permissions keep their ids.
        assert_eq!(g2.n_users(), 4);
        assert_eq!(g2.n_permissions(), 6);
    }

    #[test]
    fn rebuild_with_role_map_drops_roles() {
        let g = TripartiteGraph::figure1_example();
        let map = vec![None, Some(0), None, Some(1), None];
        let g2 = g.rebuild_with_role_map(&map, 2).unwrap();
        assert_eq!(g2.n_roles(), 2);
        assert_eq!(
            g2.users_of(RoleId(0)).collect::<Vec<_>>(),
            vec![UserId(1), UserId(2)]
        );
        g2.validate().unwrap();
    }

    #[test]
    fn rebuild_with_role_map_validates() {
        let g = TripartiteGraph::figure1_example();
        assert!(matches!(
            g.rebuild_with_role_map(&[Some(0)], 1),
            Err(ModelError::WidthMismatch {
                kind: EntityKind::Role,
                expected: 5,
                found: 1,
            })
        ));
        let bad = vec![Some(5), None, None, None, None];
        assert!(matches!(
            g.rebuild_with_role_map(&bad, 2),
            Err(ModelError::UnknownId {
                kind: EntityKind::Role,
                id: 5,
                bound: 2,
            })
        ));
    }

    /// Role counts and targets past the `u32` id space are typed errors,
    /// returned before anything is allocated, not ids that alias.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn rebuild_with_role_map_rejects_ids_past_u32() {
        let g = TripartiteGraph::figure1_example();
        let past = u32::MAX as usize + 1;
        let map = vec![Some(0); 5];
        assert!(matches!(
            g.rebuild_with_role_map(&map, past),
            Err(ModelError::TooMany {
                kind: EntityKind::Role,
                count,
            }) if count == past
        ));
        let map = vec![Some(past), None, None, None, None];
        assert!(matches!(
            g.rebuild_with_role_map(&map, 1),
            Err(ModelError::TooMany {
                kind: EntityKind::Role,
                count,
            }) if count == past + 1
        ));
    }

    #[test]
    fn validate_names_the_broken_list() {
        let mut g = TripartiteGraph::figure1_example();
        g.role_users[1] = vec![2, 1];
        assert!(matches!(
            g.validate(),
            Err(ModelError::UnsortedAdjacency {
                kind: EntityKind::Role,
                id: 1,
                neighbor: EntityKind::User,
            })
        ));
        let mut g = TripartiteGraph::figure1_example();
        g.perm_roles[5] = vec![3, 3, 4];
        assert!(matches!(
            g.validate(),
            Err(ModelError::UnsortedAdjacency {
                kind: EntityKind::Permission,
                id: 5,
                neighbor: EntityKind::Role,
            })
        ));
        // P01 lists R01, which does not grant it.
        let mut g = TripartiteGraph::figure1_example();
        g.perm_roles[0] = vec![0];
        assert!(matches!(
            g.validate(),
            Err(ModelError::AsymmetricEdge {
                kind: EntityKind::Permission,
                id: 0,
                neighbor: EntityKind::Role,
                neighbor_id: 0,
            })
        ));
        let mut g = TripartiteGraph::figure1_example();
        g.user_roles[3] = vec![4, 7];
        assert!(matches!(
            g.validate(),
            Err(ModelError::UnknownId {
                kind: EntityKind::Role,
                id: 7,
                bound: 5,
            })
        ));
    }

    #[test]
    fn serde_roundtrip() {
        let g = TripartiteGraph::figure1_example();
        let json = serde_json::to_string(&g).unwrap();
        let back: TripartiteGraph = serde_json::from_str(&json).unwrap();
        assert_eq!(g, back);
    }

    /// Each list serializes as its ascending id array, the layout of
    /// existing graph dumps, and a list out of order is refused.
    #[test]
    fn serde_keeps_the_id_array_layout_and_refuses_unsorted_lists() {
        let json = serde_json::to_string(&TripartiteGraph::figure1_example()).unwrap();
        let want = concat!(
            r#"{"role_users":[[0],[1,2],[],[1,2],[3]],"#,
            r#""role_perms":[[1,2],[],[3],[4,5],[4,5]],"#,
            r#""user_roles":[[0],[1,3],[1,3],[4]],"#,
            r#""perm_roles":[[],[0],[0],[2],[3,4],[3,4]]}"#
        );
        assert_eq!(json, want);
        let unsorted = want.replacen("[3,4]", "[4,3]", 1);
        let err = serde_json::from_str::<TripartiteGraph>(&unsorted).unwrap_err();
        let want_err = "the role list of permission 4 does not ascend strictly";
        assert!(err.to_string().contains(want_err), "{err}");
    }
}
