//! Organization-scale RBAC generator with planted inefficiencies.
//!
//! The paper's Section IV-B analyzes a proprietary dataset from a large
//! organization. This generator is our substitution for it (see DESIGN.md):
//! it builds a department-structured tripartite graph and then plants each
//! of the five inefficiency types at *exact, configurable counts*, so the
//! detection pipeline can be validated against known ground truth — which
//! is strictly stronger than an unverifiable field report.
//!
//! Construction guarantees that make planted counts exact:
//!
//! * every *healthy* role has at least 2 users and 2 permissions;
//! * every base user/attached permission is swept onto a per-department
//!   *catch-all* role if it would otherwise be orphaned, so the only
//!   standalone nodes are the planted ones;
//! * catch-all roles are excluded from all duplicate/similar transforms;
//! * the similar-transform never shrinks a set below 2 elements.
//!
//! Duplicate/similar planting *copies whole edge sets between roles*, so
//! group-type ground truth is exact by construction (coincidental extra
//! duplicates among random healthy roles are possible but vanishingly rare
//! at realistic densities; detector tests therefore also compare against
//! post-hoc signature grouping).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use rolediet_model::{PermissionId, RoleId, TripartiteGraph, UserId};

/// Counts of inefficiencies to plant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct InefficiencyPlan {
    /// Users with no role at all (T1).
    pub standalone_users: usize,
    /// Permissions attached to no role (T1).
    pub standalone_permissions: usize,
    /// Roles with neither users nor permissions (T1).
    pub standalone_roles: usize,
    /// Roles linked solely to permissions (T2).
    pub userless_roles: usize,
    /// Roles linked solely to users (T2).
    pub permless_roles: usize,
    /// Roles with exactly one user (T3).
    pub single_user_roles: usize,
    /// Roles with exactly one permission (T3).
    pub single_permission_roles: usize,
    /// Role pairs given identical user sets (T4); `n` pairs → `2n` roles.
    pub same_user_role_pairs: usize,
    /// Role pairs given identical permission sets (T4).
    pub same_permission_role_pairs: usize,
    /// Role pairs at user-side Hamming distance exactly 1 (T5).
    pub similar_user_role_pairs: usize,
    /// Role pairs at permission-side Hamming distance exactly 1 (T5).
    pub similar_permission_role_pairs: usize,
}

/// Full organization generator configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OrgConfig {
    /// Number of departments.
    pub departments: usize,
    /// Base users per department.
    pub users_per_department: usize,
    /// Healthy roles per department (besides the catch-all).
    pub healthy_roles_per_department: usize,
    /// Attached permissions per department.
    pub permissions_per_department: usize,
    /// Inclusive range of users per role with a normal user side.
    pub role_user_degree: (usize, usize),
    /// Inclusive range of permissions per role with a normal permission
    /// side.
    pub role_perm_degree: (usize, usize),
    /// The inefficiencies to plant.
    pub plan: InefficiencyPlan,
    /// RNG seed.
    pub seed: u64,
}

impl Default for OrgConfig {
    fn default() -> Self {
        OrgConfig {
            departments: 4,
            users_per_department: 100,
            healthy_roles_per_department: 20,
            permissions_per_department: 120,
            role_user_degree: (2, 20),
            role_perm_degree: (2, 10),
            plan: InefficiencyPlan::default(),
            seed: 0,
        }
    }
}

/// Ground truth of a generated organization: the planted instances of
/// every inefficiency type, by id.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OrgGroundTruth {
    /// Planted T1 users.
    pub standalone_users: Vec<UserId>,
    /// Planted T1 permissions.
    pub standalone_permissions: Vec<PermissionId>,
    /// Planted T1 roles.
    pub standalone_roles: Vec<RoleId>,
    /// Planted T2 roles without users.
    pub userless_roles: Vec<RoleId>,
    /// Planted T2 roles without permissions.
    pub permless_roles: Vec<RoleId>,
    /// Planted T3 single-user roles.
    pub single_user_roles: Vec<RoleId>,
    /// Planted T3 single-permission roles.
    pub single_permission_roles: Vec<RoleId>,
    /// Planted T4 same-user pairs.
    pub same_user_pairs: Vec<(RoleId, RoleId)>,
    /// Planted T4 same-permission pairs.
    pub same_permission_pairs: Vec<(RoleId, RoleId)>,
    /// Planted T5 Hamming-1 user-side pairs.
    pub similar_user_pairs: Vec<(RoleId, RoleId)>,
    /// Planted T5 Hamming-1 permission-side pairs.
    pub similar_permission_pairs: Vec<(RoleId, RoleId)>,
}

/// A generated organization: graph + ground truth + config.
#[derive(Debug, Clone)]
pub struct GeneratedOrg {
    /// The tripartite graph.
    pub graph: TripartiteGraph,
    /// Planted ground truth.
    pub truth: OrgGroundTruth,
    /// The generating configuration.
    pub config: OrgConfig,
}

/// Samples `k` distinct values from `lo..lo + len`.
fn sample_distinct(rng: &mut StdRng, lo: usize, len: usize, k: usize) -> Vec<usize> {
    assert!(k <= len, "cannot sample {k} distinct values from {len}");
    if k * 2 >= len {
        // Partial Fisher-Yates on the full range.
        let mut all: Vec<usize> = (lo..lo + len).collect();
        for i in 0..k {
            let j = rng.gen_range(i..len);
            all.swap(i, j);
        }
        all.truncate(k);
        all
    } else {
        let mut seen = std::collections::HashSet::with_capacity(k);
        let mut out = Vec::with_capacity(k);
        while out.len() < k {
            let v = lo + rng.gen_range(0..len);
            if seen.insert(v) {
                out.push(v);
            }
        }
        out
    }
}

/// Generates an organization according to `config`.
///
/// # Panics
///
/// Panics if the configuration is inconsistent: degree ranges exceeding
/// the per-department node counts, degree minima below 2, or transform
/// pools too small for the requested pair counts (each panic message says
/// which knob to raise).
pub fn generate_org(config: OrgConfig) -> GeneratedOrg {
    build_org(config).expect("planted ids are in range by construction")
}

/// Fallible body of [`generate_org`]: edge insertions propagate
/// [`rolediet_model::ModelError`] instead of panicking mid-build, so the
/// public wrapper carries the one audited `.expect` for the whole walk.
fn build_org(config: OrgConfig) -> rolediet_model::Result<GeneratedOrg> {
    let plan = config.plan;
    check_config(&config);

    let mut rng = StdRng::seed_from_u64(config.seed);
    let n_depts = config.departments;
    let base_users = n_depts * config.users_per_department;
    let base_perms = n_depts * config.permissions_per_department;
    let healthy_total = n_depts * config.healthy_roles_per_department;

    let mut graph = TripartiteGraph::with_counts(
        base_users + plan.standalone_users,
        0,
        base_perms + plan.standalone_permissions,
    );
    let mut truth = OrgGroundTruth::default();

    let dept_of_role = |role_count: usize| role_count % n_depts;
    let user_range = |d: usize| (d * config.users_per_department, config.users_per_department);
    let perm_range = |d: usize| {
        (
            d * config.permissions_per_department,
            config.permissions_per_department,
        )
    };

    // --- catch-all and healthy roles -----------------------------------
    let mut catch_all: Vec<RoleId> = Vec::with_capacity(n_depts);
    for d in 0..n_depts {
        let r = graph.add_role();
        catch_all.push(r);
        let (ulo, ulen) = user_range(d);
        for u in sample_distinct(&mut rng, ulo, ulen, 2) {
            graph.assign_user(r, UserId::from_index(u))?;
        }
        let (plo, plen) = perm_range(d);
        for p in sample_distinct(&mut rng, plo, plen, 2) {
            graph.grant_permission(r, PermissionId::from_index(p))?;
        }
    }
    let mut healthy: Vec<RoleId> = Vec::with_capacity(healthy_total);
    for i in 0..healthy_total {
        let d = i % n_depts;
        let r = graph.add_role();
        healthy.push(r);
        attach_users(
            &mut graph,
            &mut rng,
            r,
            user_range(d),
            config.role_user_degree,
        )?;
        attach_perms(
            &mut graph,
            &mut rng,
            r,
            perm_range(d),
            config.role_perm_degree,
        )?;
    }

    // --- planted degree-type roles --------------------------------------
    for i in 0..plan.userless_roles {
        let d = dept_of_role(i);
        let r = graph.add_role();
        attach_perms(
            &mut graph,
            &mut rng,
            r,
            perm_range(d),
            config.role_perm_degree,
        )?;
        truth.userless_roles.push(r);
    }
    for i in 0..plan.permless_roles {
        let d = dept_of_role(i);
        let r = graph.add_role();
        attach_users(
            &mut graph,
            &mut rng,
            r,
            user_range(d),
            config.role_user_degree,
        )?;
        truth.permless_roles.push(r);
    }
    for i in 0..plan.single_user_roles {
        let d = dept_of_role(i);
        let r = graph.add_role();
        let (ulo, ulen) = user_range(d);
        let u = sample_distinct(&mut rng, ulo, ulen, 1)[0];
        graph.assign_user(r, UserId::from_index(u))?;
        attach_perms(
            &mut graph,
            &mut rng,
            r,
            perm_range(d),
            config.role_perm_degree,
        )?;
        truth.single_user_roles.push(r);
    }
    for i in 0..plan.single_permission_roles {
        let d = dept_of_role(i);
        let r = graph.add_role();
        attach_users(
            &mut graph,
            &mut rng,
            r,
            user_range(d),
            config.role_user_degree,
        )?;
        let (plo, plen) = perm_range(d);
        let p = sample_distinct(&mut rng, plo, plen, 1)[0];
        graph.grant_permission(r, PermissionId::from_index(p))?;
        truth.single_permission_roles.push(r);
    }
    for _ in 0..plan.standalone_roles {
        let r = graph.add_role();
        truth.standalone_roles.push(r);
    }

    // --- duplicate / similar transforms ---------------------------------
    // User-side pool: healthy + single-permission roles (their user sides
    // are "normal"); permission-side pool: healthy + single-user roles.
    let mut user_pool: Vec<RoleId> = healthy
        .iter()
        .chain(truth.single_permission_roles.iter())
        .copied()
        .collect();
    shuffle(&mut rng, &mut user_pool);
    let need_user = 2 * (plan.same_user_role_pairs + plan.similar_user_role_pairs);
    assert!(
        user_pool.len() >= need_user,
        "user-side pool too small: have {}, need {need_user} — raise \
         healthy_roles_per_department or single_permission_roles",
        user_pool.len()
    );
    let mut perm_pool: Vec<RoleId> = healthy
        .iter()
        .chain(truth.single_user_roles.iter())
        .copied()
        .collect();
    shuffle(&mut rng, &mut perm_pool);
    let need_perm = 2 * (plan.same_permission_role_pairs + plan.similar_permission_role_pairs);
    assert!(
        perm_pool.len() >= need_perm,
        "permission-side pool too small: have {}, need {need_perm} — raise \
         healthy_roles_per_department or single_user_roles",
        perm_pool.len()
    );

    // Pairs are drawn by index: the pool-size asserts above make every
    // `2 * i + 1` access in range by construction, so no panicking
    // iterator plumbing is needed.
    for i in 0..plan.same_user_role_pairs {
        let (a, b) = (user_pool[2 * i], user_pool[2 * i + 1]);
        copy_users(&mut graph, a, b)?;
        truth.same_user_pairs.push(ordered(a, b));
    }
    let uoff = 2 * plan.same_user_role_pairs;
    for i in 0..plan.similar_user_role_pairs {
        let (a, b) = (user_pool[uoff + 2 * i], user_pool[uoff + 2 * i + 1]);
        copy_users(&mut graph, a, b)?;
        perturb_user_side(&mut graph, &mut rng, b, base_users)?;
        truth.similar_user_pairs.push(ordered(a, b));
    }
    for i in 0..plan.same_permission_role_pairs {
        let (a, b) = (perm_pool[2 * i], perm_pool[2 * i + 1]);
        copy_perms(&mut graph, a, b)?;
        truth.same_permission_pairs.push(ordered(a, b));
    }
    let poff = 2 * plan.same_permission_role_pairs;
    for i in 0..plan.similar_permission_role_pairs {
        let (a, b) = (perm_pool[poff + 2 * i], perm_pool[poff + 2 * i + 1]);
        copy_perms(&mut graph, a, b)?;
        perturb_perm_side(&mut graph, &mut rng, b, base_perms)?;
        truth.similar_permission_pairs.push(ordered(a, b));
    }

    // --- orphan sweeps ---------------------------------------------------
    for u in 0..base_users {
        let uid = UserId::from_index(u);
        if graph.roles_of_user(uid).next().is_none() {
            let d = u / config.users_per_department;
            graph.assign_user(catch_all[d], uid)?;
        }
    }
    for p in 0..base_perms {
        let pid = PermissionId::from_index(p);
        if graph.roles_of_permission(pid).next().is_none() {
            let d = p / config.permissions_per_department;
            graph.grant_permission(catch_all[d], pid)?;
        }
    }

    // --- standalone nodes -------------------------------------------------
    for u in base_users..base_users + plan.standalone_users {
        truth.standalone_users.push(UserId::from_index(u));
    }
    for p in base_perms..base_perms + plan.standalone_permissions {
        truth
            .standalone_permissions
            .push(PermissionId::from_index(p));
    }

    Ok(GeneratedOrg {
        graph,
        truth,
        config,
    })
}

/// Validates an [`OrgConfig`], panicking with knob guidance on misuse.
fn check_config(config: &OrgConfig) {
    assert!(
        config.role_user_degree.0 >= 2,
        "role_user_degree.0 must be >= 2"
    );
    assert!(
        config.role_perm_degree.0 >= 2,
        "role_perm_degree.0 must be >= 2"
    );
    assert!(
        config.role_user_degree.1 + 1 < config.users_per_department,
        "users_per_department must exceed role_user_degree.1 + 1"
    );
    assert!(
        config.role_perm_degree.1 + 1 < config.permissions_per_department,
        "permissions_per_department must exceed role_perm_degree.1 + 1"
    );
    assert!(
        config.role_user_degree.0 <= config.role_user_degree.1
            && config.role_perm_degree.0 <= config.role_perm_degree.1,
        "degree ranges must be non-empty"
    );
}

fn ordered(a: RoleId, b: RoleId) -> (RoleId, RoleId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

fn shuffle<T>(rng: &mut StdRng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
}

fn attach_users(
    graph: &mut TripartiteGraph,
    rng: &mut StdRng,
    role: RoleId,
    (lo, len): (usize, usize),
    (dmin, dmax): (usize, usize),
) -> rolediet_model::Result<()> {
    let k = rng.gen_range(dmin..=dmax);
    for u in sample_distinct(rng, lo, len, k) {
        graph.assign_user(role, UserId::from_index(u))?;
    }
    Ok(())
}

fn attach_perms(
    graph: &mut TripartiteGraph,
    rng: &mut StdRng,
    role: RoleId,
    (lo, len): (usize, usize),
    (dmin, dmax): (usize, usize),
) -> rolediet_model::Result<()> {
    let k = rng.gen_range(dmin..=dmax);
    for p in sample_distinct(rng, lo, len, k) {
        graph.grant_permission(role, PermissionId::from_index(p))?;
    }
    Ok(())
}

/// Replaces `b`'s user set with a copy of `a`'s.
fn copy_users(graph: &mut TripartiteGraph, a: RoleId, b: RoleId) -> rolediet_model::Result<()> {
    let old: Vec<UserId> = graph.users_of(b).collect();
    for u in old {
        graph.revoke_user(b, u)?;
    }
    let src: Vec<UserId> = graph.users_of(a).collect();
    for u in src {
        graph.assign_user(b, u)?;
    }
    Ok(())
}

/// Replaces `b`'s permission set with a copy of `a`'s.
fn copy_perms(graph: &mut TripartiteGraph, a: RoleId, b: RoleId) -> rolediet_model::Result<()> {
    let old: Vec<PermissionId> = graph.permissions_of(b).collect();
    for p in old {
        graph.revoke_permission(b, p)?;
    }
    let src: Vec<PermissionId> = graph.permissions_of(a).collect();
    for p in src {
        graph.grant_permission(b, p)?;
    }
    Ok(())
}

/// Flips exactly one user edge of `role`: removes one user if the set has
/// more than 2 members, otherwise adds a user not currently assigned.
fn perturb_user_side(
    graph: &mut TripartiteGraph,
    rng: &mut StdRng,
    role: RoleId,
    base_users: usize,
) -> rolediet_model::Result<()> {
    let members: Vec<UserId> = graph.users_of(role).collect();
    if members.len() > 2 {
        let victim = members[rng.gen_range(0..members.len())];
        graph.revoke_user(role, victim)?;
    } else {
        loop {
            let u = UserId::from_index(rng.gen_range(0..base_users));
            if !graph.has_user(role, u) {
                graph.assign_user(role, u)?;
                break;
            }
        }
    }
    Ok(())
}

/// Flips exactly one permission edge of `role` (same policy as
/// [`perturb_user_side`]).
fn perturb_perm_side(
    graph: &mut TripartiteGraph,
    rng: &mut StdRng,
    role: RoleId,
    base_perms: usize,
) -> rolediet_model::Result<()> {
    let members: Vec<PermissionId> = graph.permissions_of(role).collect();
    if members.len() > 2 {
        let victim = members[rng.gen_range(0..members.len())];
        graph.revoke_permission(role, victim)?;
    } else {
        loop {
            let p = PermissionId::from_index(rng.gen_range(0..base_perms));
            if !graph.has_permission(role, p) {
                graph.grant_permission(role, p)?;
                break;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_plan() -> InefficiencyPlan {
        InefficiencyPlan {
            standalone_users: 5,
            standalone_permissions: 11,
            standalone_roles: 2,
            userless_roles: 7,
            permless_roles: 3,
            single_user_roles: 6,
            single_permission_roles: 8,
            same_user_role_pairs: 4,
            same_permission_role_pairs: 3,
            similar_user_role_pairs: 5,
            similar_permission_role_pairs: 2,
        }
    }

    fn generate_small(seed: u64) -> GeneratedOrg {
        generate_org(OrgConfig {
            plan: small_plan(),
            seed,
            ..OrgConfig::default()
        })
    }

    #[test]
    fn determinism() {
        let a = generate_small(9);
        let b = generate_small(9);
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.truth, b.truth);
        let c = generate_small(10);
        assert_ne!(a.graph, c.graph);
    }

    #[test]
    fn graph_is_consistent() {
        let org = generate_small(1);
        org.graph.validate().unwrap();
    }

    #[test]
    fn planted_standalone_counts_are_exact() {
        let org = generate_small(2);
        let g = &org.graph;
        // Exactly the planted users have zero roles.
        let zero_users: Vec<UserId> = (0..g.n_users())
            .map(UserId::from_index)
            .filter(|&u| g.roles_of_user(u).next().is_none())
            .collect();
        assert_eq!(zero_users, org.truth.standalone_users);
        assert_eq!(zero_users.len(), 5);
        let zero_perms: Vec<PermissionId> = (0..g.n_permissions())
            .map(PermissionId::from_index)
            .filter(|&p| g.roles_of_permission(p).next().is_none())
            .collect();
        assert_eq!(zero_perms, org.truth.standalone_permissions);
        assert_eq!(zero_perms.len(), 11);
    }

    #[test]
    fn planted_role_degree_counts_are_exact() {
        let org = generate_small(3);
        let g = &org.graph;
        let mut userless = Vec::new();
        let mut permless = Vec::new();
        let mut standalone = Vec::new();
        let mut single_user = Vec::new();
        let mut single_perm = Vec::new();
        for r in (0..g.n_roles()).map(RoleId::from_index) {
            let (du, dp) = (g.user_degree(r), g.permission_degree(r));
            match (du, dp) {
                (0, 0) => standalone.push(r),
                (0, _) => userless.push(r),
                (_, 0) => permless.push(r),
                _ => {}
            }
            if du == 1 {
                single_user.push(r);
            }
            if dp == 1 {
                single_perm.push(r);
            }
        }
        assert_eq!(standalone, org.truth.standalone_roles);
        assert_eq!(userless, org.truth.userless_roles);
        assert_eq!(permless, org.truth.permless_roles);
        assert_eq!(single_user, org.truth.single_user_roles);
        assert_eq!(single_perm, org.truth.single_permission_roles);
    }

    #[test]
    fn planted_duplicate_pairs_are_identical() {
        let org = generate_small(4);
        let g = &org.graph;
        assert_eq!(org.truth.same_user_pairs.len(), 4);
        for &(a, b) in &org.truth.same_user_pairs {
            assert_eq!(
                g.users_of(a).collect::<Vec<_>>(),
                g.users_of(b).collect::<Vec<_>>()
            );
        }
        assert_eq!(org.truth.same_permission_pairs.len(), 3);
        for &(a, b) in &org.truth.same_permission_pairs {
            assert_eq!(
                g.permissions_of(a).collect::<Vec<_>>(),
                g.permissions_of(b).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn planted_similar_pairs_are_hamming_one() {
        let org = generate_small(5);
        let ruam = org.graph.ruam_sparse();
        for &(a, b) in &org.truth.similar_user_pairs {
            assert_eq!(
                rolediet_matrix::RowMatrix::row_hamming(&ruam, a.index(), b.index()),
                1
            );
        }
        let rpam = org.graph.rpam_sparse();
        for &(a, b) in &org.truth.similar_permission_pairs {
            assert_eq!(
                rolediet_matrix::RowMatrix::row_hamming(&rpam, a.index(), b.index()),
                1
            );
        }
    }

    #[test]
    fn similar_transform_never_creates_degree_anomalies() {
        let org = generate_small(6);
        let g = &org.graph;
        for &(a, b) in &org.truth.similar_user_pairs {
            assert!(g.user_degree(a) >= 2);
            assert!(g.user_degree(b) >= 2, "perturbation must keep >= 2 users");
        }
        for &(a, b) in &org.truth.similar_permission_pairs {
            assert!(g.permission_degree(a) >= 2);
            assert!(g.permission_degree(b) >= 2);
        }
    }

    #[test]
    fn node_totals_match_config() {
        let org = generate_small(7);
        let cfg = org.config;
        assert_eq!(
            org.graph.n_users(),
            cfg.departments * cfg.users_per_department + cfg.plan.standalone_users
        );
        assert_eq!(
            org.graph.n_permissions(),
            cfg.departments * cfg.permissions_per_department + cfg.plan.standalone_permissions
        );
        let expected_roles = cfg.departments // catch-alls
            + cfg.departments * cfg.healthy_roles_per_department
            + cfg.plan.userless_roles
            + cfg.plan.permless_roles
            + cfg.plan.single_user_roles
            + cfg.plan.single_permission_roles
            + cfg.plan.standalone_roles;
        assert_eq!(org.graph.n_roles(), expected_roles);
    }

    #[test]
    #[should_panic(expected = "pool too small")]
    fn pool_exhaustion_panics_with_guidance() {
        generate_org(OrgConfig {
            departments: 1,
            healthy_roles_per_department: 2,
            plan: InefficiencyPlan {
                same_user_role_pairs: 50,
                ..InefficiencyPlan::default()
            },
            ..OrgConfig::default()
        });
    }

    #[test]
    fn empty_plan_has_no_anomalies() {
        let org = generate_org(OrgConfig {
            seed: 8,
            ..OrgConfig::default()
        });
        let g = &org.graph;
        for r in (0..g.n_roles()).map(RoleId::from_index) {
            assert!(g.user_degree(r) >= 2, "role {r} user degree");
            assert!(g.permission_degree(r) >= 2, "role {r} perm degree");
        }
        for u in (0..g.n_users()).map(UserId::from_index) {
            assert!(g.roles_of_user(u).next().is_some(), "user {u} orphaned");
        }
        for p in (0..g.n_permissions()).map(PermissionId::from_index) {
            assert!(
                g.roles_of_permission(p).next().is_some(),
                "permission {p} orphaned"
            );
        }
    }

    #[test]
    fn sample_distinct_properties() {
        let mut rng = StdRng::seed_from_u64(0);
        for (lo, len, k) in [(0, 10, 10), (5, 100, 3), (0, 50, 40)] {
            let s = sample_distinct(&mut rng, lo, len, k);
            assert_eq!(s.len(), k);
            let set: std::collections::HashSet<_> = s.iter().collect();
            assert_eq!(set.len(), k, "distinct");
            assert!(s.iter().all(|&v| v >= lo && v < lo + len));
        }
    }
}
