//! Named RBAC datasets: graph + interners + entity metadata.

use serde::{Deserialize, Serialize};

use crate::error::ModelError;
use crate::graph::{AdjacencyLists, TripartiteGraph};
use crate::id::{EntityKind, PermissionId, RoleId, UserId};
use crate::interner::Interner;
use crate::Result;

/// Optional descriptive metadata attached to a role.
///
/// Real exports carry ownership information that auditors need when they
/// review a finding ("these two roles are identical — who owns them?").
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoleMeta {
    /// Organizational unit the role belongs to, if known.
    pub department: Option<String>,
    /// Free-text description.
    pub description: Option<String>,
    /// Accountable owner, if known.
    pub owner: Option<String>,
}

/// An RBAC dataset: the tripartite graph plus name interners and metadata.
///
/// This is the type the CLI, the I/O formats and the examples operate on.
/// All mutation goes through named or id-based methods that keep the graph
/// and the interners consistent.
///
/// # Examples
///
/// ```
/// use rolediet_model::RbacDataset;
///
/// let mut ds = RbacDataset::new();
/// let r = ds.role("helpdesk");
/// let u = ds.user("jdoe");
/// ds.assign_user(r, u);
/// assert_eq!(ds.role_name(r), "helpdesk");
/// assert_eq!(ds.find_role("helpdesk"), Some(r));
/// ```
///
/// A deserialized dataset is checked before it is returned: its graph
/// must [validate](TripartiteGraph::validate), and each name table and
/// the role metadata must hold one entry per node.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
#[serde(try_from = "DatasetFields")]
pub struct RbacDataset {
    graph: TripartiteGraph,
    users: Interner,
    roles: Interner,
    permissions: Interner,
    role_meta: Vec<RoleMeta>,
}

/// The fields of an [`RbacDataset`] as they deserialize, before the
/// graph and the tables are checked against each other.
#[derive(Deserialize)]
pub(crate) struct DatasetFields {
    graph: AdjacencyLists,
    users: Interner,
    roles: Interner,
    permissions: Interner,
    role_meta: Vec<RoleMeta>,
}

impl TryFrom<DatasetFields> for RbacDataset {
    type Error = ModelError;

    fn try_from(fields: DatasetFields) -> Result<Self> {
        let graph = TripartiteGraph::try_from(fields.graph)?;
        let tables = [
            (EntityKind::User, graph.n_users(), fields.users.len()),
            (EntityKind::Role, graph.n_roles(), fields.roles.len()),
            (EntityKind::Role, graph.n_roles(), fields.role_meta.len()),
            (
                EntityKind::Permission,
                graph.n_permissions(),
                fields.permissions.len(),
            ),
        ];
        for (kind, nodes, entries) in tables {
            if nodes != entries {
                return Err(ModelError::TableMismatch {
                    kind,
                    nodes,
                    entries,
                });
            }
        }
        Ok(RbacDataset {
            graph,
            users: fields.users,
            roles: fields.roles,
            permissions: fields.permissions,
            role_meta: fields.role_meta,
        })
    }
}

impl RbacDataset {
    /// Creates an empty dataset.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wraps an existing graph, synthesizing names (`U0…`, `R0…`, `P0…`).
    pub fn from_graph(graph: TripartiteGraph) -> Self {
        let users = (0..graph.n_users()).map(|i| format!("U{i}")).collect();
        let roles = (0..graph.n_roles()).map(|i| format!("R{i}")).collect();
        let permissions = (0..graph.n_permissions())
            .map(|i| format!("P{i}"))
            .collect();
        let role_meta = vec![RoleMeta::default(); graph.n_roles()];
        RbacDataset {
            graph,
            users,
            roles,
            permissions,
            role_meta,
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &TripartiteGraph {
        &self.graph
    }

    /// Interns (or finds) a user by name.
    pub fn user(&mut self, name: &str) -> UserId {
        let id = self.users.intern(name);
        while self.graph.n_users() <= id as usize {
            self.graph.add_user();
        }
        UserId(id)
    }

    /// Interns (or finds) a role by name.
    pub fn role(&mut self, name: &str) -> RoleId {
        let id = self.roles.intern(name);
        while self.graph.n_roles() <= id as usize {
            self.graph.add_role();
            self.role_meta.push(RoleMeta::default());
        }
        RoleId(id)
    }

    /// Interns (or finds) a permission by name.
    pub fn permission(&mut self, name: &str) -> PermissionId {
        let id = self.permissions.intern(name);
        while self.graph.n_permissions() <= id as usize {
            self.graph.add_permission();
        }
        PermissionId(id)
    }

    /// Looks up a user by name without creating it.
    pub fn find_user(&self, name: &str) -> Option<UserId> {
        self.users.lookup(name).map(UserId)
    }

    /// Looks up a role by name without creating it.
    pub fn find_role(&self, name: &str) -> Option<RoleId> {
        self.roles.lookup(name).map(RoleId)
    }

    /// Looks up a permission by name without creating it.
    pub fn find_permission(&self, name: &str) -> Option<PermissionId> {
        self.permissions.lookup(name).map(PermissionId)
    }

    /// Name of `user`.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn user_name(&self, user: UserId) -> &str {
        self.users.resolve(user.0).expect("user id out of range")
    }

    /// Name of `role`.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn role_name(&self, role: RoleId) -> &str {
        self.roles.resolve(role.0).expect("role id out of range")
    }

    /// Name of `permission`.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn permission_name(&self, permission: PermissionId) -> &str {
        self.permissions
            .resolve(permission.0)
            .expect("permission id out of range")
    }

    /// Metadata of `role`.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn role_meta(&self, role: RoleId) -> &RoleMeta {
        &self.role_meta[role.index()]
    }

    /// Mutable metadata of `role`.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn role_meta_mut(&mut self, role: RoleId) -> &mut RoleMeta {
        &mut self.role_meta[role.index()]
    }

    /// Adds a user–role edge (ids must exist).
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range — ids obtained from this
    /// dataset's own constructors are always valid.
    pub fn assign_user(&mut self, role: RoleId, user: UserId) -> bool {
        self.graph
            .assign_user(role, user)
            .expect("ids minted by this dataset are valid")
    }

    /// Adds a role–permission edge (ids must exist).
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn grant_permission(&mut self, role: RoleId, permission: PermissionId) -> bool {
        self.graph
            .grant_permission(role, permission)
            .expect("ids minted by this dataset are valid")
    }

    /// Adds an edge by names, interning as needed.
    pub fn assign_user_by_name(&mut self, role: &str, user: &str) -> bool {
        let r = self.role(role);
        let u = self.user(user);
        self.assign_user(r, u)
    }

    /// Adds a grant by names, interning as needed.
    pub fn grant_permission_by_name(&mut self, role: &str, permission: &str) -> bool {
        let r = self.role(role);
        let p = self.permission(permission);
        self.grant_permission(r, p)
    }

    /// Applies a role remap (see
    /// [`TripartiteGraph::rebuild_with_role_map`]), carrying names and
    /// metadata of the *representative* (first surviving) old role for each
    /// new role.
    ///
    /// # Errors
    ///
    /// Propagates errors from the graph rebuild.
    pub fn rebuild_with_role_map(
        &self,
        role_map: &[Option<usize>],
        n_new_roles: usize,
    ) -> Result<RbacDataset> {
        let graph = self.graph.rebuild_with_role_map(role_map, n_new_roles)?;
        let mut names: Vec<Option<String>> = vec![None; n_new_roles];
        let mut meta: Vec<RoleMeta> = vec![RoleMeta::default(); n_new_roles];
        for (old, target) in role_map.iter().enumerate() {
            if let Some(new) = *target {
                if names[new].is_none() {
                    names[new] = Some(
                        self.roles
                            .resolve(old as u32)
                            .expect("old role exists")
                            .to_owned(),
                    );
                    meta[new] = self.role_meta[old].clone();
                }
            }
        }
        let roles: Interner = names
            .into_iter()
            .enumerate()
            .map(|(i, n)| n.unwrap_or_else(|| format!("merged-role-{i}")))
            .collect();
        if roles.len() != n_new_roles {
            return Err(ModelError::UnknownName {
                kind: EntityKind::Role,
                name: "duplicate surviving role name after merge".into(),
            });
        }
        Ok(RbacDataset {
            graph,
            users: self.users.clone(),
            roles,
            permissions: self.permissions.clone(),
            role_meta: meta,
        })
    }

    /// The Figure 1 dataset of the paper with its original labels
    /// (`U01…U04`, `R01…R05`, `P01…P06`).
    pub fn figure1_example() -> RbacDataset {
        let graph = TripartiteGraph::figure1_example();
        let users = (1..=4).map(|i| format!("U{i:02}")).collect();
        let roles = (1..=5).map(|i| format!("R{i:02}")).collect();
        let permissions = (1..=6).map(|i| format!("P{i:02}")).collect();
        RbacDataset {
            role_meta: vec![RoleMeta::default(); graph.n_roles()],
            graph,
            users,
            roles,
            permissions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_construction_keeps_graph_in_sync() {
        let mut ds = RbacDataset::new();
        let r = ds.role("admin");
        let u = ds.user("alice");
        let p = ds.permission("db:write");
        assert!(ds.assign_user(r, u));
        assert!(ds.grant_permission(r, p));
        assert_eq!(ds.graph().n_users(), 1);
        assert_eq!(ds.graph().n_roles(), 1);
        assert_eq!(ds.graph().n_permissions(), 1);
        assert_eq!(ds.user_name(u), "alice");
        assert_eq!(ds.permission_name(p), "db:write");
        assert_eq!(ds.find_user("alice"), Some(u));
        assert_eq!(ds.find_user("nobody"), None);
        ds.graph().validate().unwrap();
    }

    #[test]
    fn by_name_edges_intern_on_demand() {
        let mut ds = RbacDataset::new();
        assert!(ds.assign_user_by_name("ops", "carol"));
        assert!(!ds.assign_user_by_name("ops", "carol"));
        assert!(ds.grant_permission_by_name("ops", "deploy"));
        assert_eq!(ds.graph().n_user_assignments(), 1);
        assert_eq!(ds.graph().n_permission_grants(), 1);
    }

    #[test]
    fn role_meta_roundtrip() {
        let mut ds = RbacDataset::new();
        let r = ds.role("fin-clerk");
        ds.role_meta_mut(r).department = Some("finance".into());
        assert_eq!(ds.role_meta(r).department.as_deref(), Some("finance"));
    }

    #[test]
    fn from_graph_synthesizes_names() {
        let ds = RbacDataset::from_graph(TripartiteGraph::figure1_example());
        assert_eq!(ds.role_name(RoleId(0)), "R0");
        assert_eq!(ds.user_name(UserId(3)), "U3");
        assert_eq!(ds.permission_name(PermissionId(5)), "P5");
    }

    #[test]
    fn figure1_labels() {
        let ds = RbacDataset::figure1_example();
        assert_eq!(ds.role_name(RoleId(0)), "R01");
        assert_eq!(ds.permission_name(PermissionId(0)), "P01");
        assert_eq!(ds.find_role("R04"), Some(RoleId(3)));
    }

    #[test]
    fn rebuild_keeps_representative_names() {
        let ds = RbacDataset::figure1_example();
        // Merge R04+R05 into one role; keep everything else.
        let map = vec![Some(0), Some(1), Some(2), Some(3), Some(3)];
        let merged = ds.rebuild_with_role_map(&map, 4).unwrap();
        assert_eq!(merged.role_name(RoleId(3)), "R04");
        assert_eq!(merged.graph().n_roles(), 4);
        assert_eq!(merged.user_name(UserId(0)), "U01");
    }

    #[test]
    fn serde_roundtrip() {
        let ds = RbacDataset::figure1_example();
        let json = serde_json::to_string(&ds).unwrap();
        let back: RbacDataset = serde_json::from_str(&json).unwrap();
        assert_eq!(ds, back);
    }
}
