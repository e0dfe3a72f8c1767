//! The eager greedy cover — the bit-identity oracle for the lazy engine.
//!
//! Given the UPAM and a candidate pool, repeatedly pick the candidate
//! role that covers the most still-uncovered user–permission cells,
//! assign it to every user whose permission set contains it, and repeat
//! until every cell is covered. Because the generated candidate pool
//! always contains every distinct user row, the loop terminates with an
//! *exact* cover: mined roles grant exactly the permissions users
//! already had — never more (assignment requires containment) and never
//! less (coverage is run to completion).
//!
//! This is the standard baseline heuristic for the (NP-hard) Role
//! Minimization Problem; greedy set cover gives the classic `ln n`
//! approximation guarantee. The implementation here is deliberately the
//! seed-era one — dense per-user `BitVec` state and a full rescan of
//! every live candidate's gain each round, O(rounds × candidates × users
//! × width) — kept as the oracle the scalable engine in
//! [`cover`](crate::cover) is proptested bit-identical against.
//!
//! Note that greedy optimizes *covered cells per step*, not the final
//! role count: factoring out a large shared intersection can leave
//! per-user residues that each need their own role, occasionally
//! exceeding the trivial one-role-per-distinct-profile cover (pinned in
//! the `greedy_can_exceed_distinct_profiles` test).

use serde::{Deserialize, Serialize};

use rolediet_matrix::{BitVec, CsrMatrix, RowMatrix};
use rolediet_model::ModelError;

use crate::candidates::{generate_candidates, CandidateConfig, CandidatePool};

/// One mined role: a permission set and the users it is assigned to.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MinedRole {
    /// Permission indices granted by the role, ascending.
    pub permissions: Vec<usize>,
    /// User indices assigned the role, ascending.
    pub users: Vec<usize>,
}

/// Mining configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct MiningConfig {
    /// Candidate generation settings.
    pub candidates: CandidateConfig,
}

/// The outcome of a mining run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MiningResult {
    /// The mined roles, in selection order (best coverage first).
    pub roles: Vec<MinedRole>,
    /// Number of candidates considered.
    pub candidates_considered: usize,
    /// Total user–permission cells covered (the UPAM's nnz).
    pub cells_covered: usize,
}

impl MiningResult {
    /// Number of mined roles.
    pub fn n_roles(&self) -> usize {
        self.roles.len()
    }

    /// Total user–role assignments in the mined model.
    pub fn n_assignments(&self) -> usize {
        self.roles.iter().map(|r| r.users.len()).sum()
    }
}

/// Mines an exact cover of `upam` with the eager full-rescan loop (the
/// oracle; use [`mine_greedy_cover`](crate::mine_greedy_cover) for the
/// scalable engine — both return bit-identical results).
///
/// # Errors
///
/// [`ModelError::CoverStalled`] if the candidate pool cannot cover the
/// matrix — unreachable with a generated pool, which always contains
/// every distinct user row.
pub fn mine_eager_cover(
    upam: &CsrMatrix,
    config: &MiningConfig,
) -> Result<MiningResult, ModelError> {
    let pool = generate_candidates(upam, &config.candidates);
    mine_eager_from_pool(upam, &pool)
}

/// Mines an exact cover of `upam` from an explicit candidate pool with
/// the eager full-rescan loop.
///
/// Deterministic: ties in coverage gain break toward the
/// earlier-generated candidate (pool order: larger sets first).
///
/// # Errors
///
/// [`ModelError::CoverStalled`] if no positive-gain candidate remains
/// while cells are still uncovered, and [`ModelError::UnknownId`] if the
/// pool's permission width differs from the UPAM's (both possible only
/// for hand-built pools).
pub fn mine_eager_from_pool(
    upam: &CsrMatrix,
    pool: &CandidatePool,
) -> Result<MiningResult, ModelError> {
    crate::cover::check_width(upam, pool)?;
    let n_users = upam.rows();
    // Pool sets are `< cols` by `CandidatePool`, CSR rows by the matrix,
    // and `check_width` made the two widths equal.
    let bit_row = |ones: &[u32]| {
        let mut bv = BitVec::new(upam.cols());
        for &c in ones {
            bv.set(c as usize, true);
        }
        bv
    };
    let candidates: Vec<BitVec> = pool.sets().map(bit_row).collect();
    let user_rows: Vec<BitVec> = (0..n_users).map(|u| bit_row(upam.row(u))).collect();
    // uncovered[u] = cells of user u not yet granted by a mined role.
    let mut uncovered: Vec<BitVec> = user_rows.clone();
    let mut remaining: usize = upam.nnz();
    let mut roles = Vec::new();
    // For each candidate, precompute the users that can take it
    // (containment): assignment never over-grants.
    let eligible: Vec<Vec<usize>> = candidates
        .iter()
        .map(|cand| {
            (0..n_users)
                .filter(|&u| {
                    cand.is_subset_of(&user_rows[u])
                        .expect("candidate width matches UPAM")
                })
                .collect()
        })
        .collect();
    let mut alive: Vec<bool> = vec![true; candidates.len()];
    while remaining > 0 {
        // Pick the candidate with the largest uncovered-cell gain.
        let mut best: Option<(usize, usize)> = None; // (gain, index)
        for (ci, cand) in candidates.iter().enumerate() {
            if !alive[ci] {
                continue;
            }
            let mut gain = 0usize;
            for &u in &eligible[ci] {
                gain += cand
                    .intersection_count(&uncovered[u])
                    .expect("width matches");
            }
            if gain == 0 {
                alive[ci] = false;
                continue;
            }
            if best.is_none_or(|(bg, _)| gain > bg) {
                best = Some((gain, ci));
            }
        }
        let Some((_, ci)) = best else {
            return Err(ModelError::CoverStalled { remaining });
        };
        let cand = &candidates[ci];
        let mut assigned_users = Vec::new();
        for &u in &eligible[ci] {
            let before = uncovered[u].count_ones();
            uncovered[u].difference_with(cand).expect("width matches");
            let after = uncovered[u].count_ones();
            remaining -= before - after;
            assigned_users.push(u);
        }
        alive[ci] = false;
        roles.push(MinedRole {
            permissions: cand.to_indices(),
            users: assigned_users,
        });
    }
    Ok(MiningResult {
        roles,
        candidates_considered: pool.len(),
        cells_covered: upam.nnz(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cover::mine_greedy_cover;
    use crate::verify::verify_exact_cover;

    fn upam(rows: &[Vec<usize>], cols: usize) -> CsrMatrix {
        CsrMatrix::from_rows_of_indices(rows.len(), cols, rows).unwrap()
    }

    #[test]
    fn trivial_cases() {
        // Empty UPAM → no roles.
        let m = upam(&[vec![], vec![]], 3);
        let r = mine_eager_cover(&m, &MiningConfig::default()).unwrap();
        assert_eq!(r.n_roles(), 0);
        assert_eq!(r.cells_covered, 0);
        // One user → one role.
        let m = upam(&[vec![0, 2]], 3);
        let r = mine_eager_cover(&m, &MiningConfig::default()).unwrap();
        assert_eq!(r.n_roles(), 1);
        assert_eq!(r.roles[0].permissions, vec![0, 2]);
        assert_eq!(r.roles[0].users, vec![0]);
    }

    #[test]
    fn shared_core_is_factored_out() {
        // Users: {0,1,2}, {0,1,3}, {0,1} — greedy picks {0,1} (gain 6),
        // then the two leftovers; or the full rows first. Either way the
        // cover is exact; with the shared core the count is 3.
        let m = upam(&[vec![0, 1, 2], vec![0, 1, 3], vec![0, 1]], 4);
        let r = mine_eager_cover(&m, &MiningConfig::default()).unwrap();
        verify_exact_cover(&m, &r.roles).unwrap();
        assert!(r.n_roles() <= 3);
        assert!(r
            .roles
            .iter()
            .any(|role| role.permissions == vec![0, 1] && role.users == vec![0, 1, 2]));
    }

    #[test]
    fn duplicate_users_share_one_role() {
        let m = upam(&[vec![1, 2], vec![1, 2], vec![1, 2], vec![3]], 4);
        let r = mine_eager_cover(&m, &MiningConfig::default()).unwrap();
        verify_exact_cover(&m, &r.roles).unwrap();
        assert_eq!(r.n_roles(), 2);
        assert_eq!(r.roles[0].users, vec![0, 1, 2]);
    }

    #[test]
    fn cover_is_exact_on_figure1_upam() {
        let g = rolediet_model::TripartiteGraph::figure1_example();
        let m = g.upam_sparse();
        let r = mine_eager_cover(&m, &MiningConfig::default()).unwrap();
        verify_exact_cover(&m, &r.roles).unwrap();
        // Figure 1 has 3 distinct non-empty access profiles
        // (U01: {P02,P03}, U02=U03=U04: {P05,P06}) → 2 roles.
        assert_eq!(r.n_roles(), 2);
    }

    #[test]
    fn deterministic_and_matches_lazy_engine() {
        let g = rolediet_model::TripartiteGraph::figure1_example();
        let m = g.upam_sparse();
        let a = mine_eager_cover(&m, &MiningConfig::default()).unwrap();
        let b = mine_eager_cover(&m, &MiningConfig::default()).unwrap();
        assert_eq!(a, b);
        let lazy = mine_greedy_cover(&m, &MiningConfig::default()).unwrap();
        assert_eq!(a, lazy);
    }

    #[test]
    fn stalls_with_typed_error_on_insufficient_pool() {
        let m = upam(&[vec![0, 1]], 2);
        // A pool that can only ever cover cell 0.
        let pool = CandidatePool::from_sets(2, vec![vec![0]]).unwrap();
        let err = mine_eager_from_pool(&m, &pool).unwrap_err();
        assert!(matches!(err, ModelError::CoverStalled { remaining: 1 }));
        // An empty pool can cover nothing at all.
        let empty = CandidatePool::from_sets(2, vec![]).unwrap();
        let err = mine_eager_from_pool(&m, &empty).unwrap_err();
        assert!(matches!(err, ModelError::CoverStalled { remaining: 2 }));
    }

    #[test]
    fn mined_model_never_over_grants_on_random_input() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for trial in 0..10 {
            let rows: Vec<Vec<usize>> = (0..30)
                .map(|_| (0..20).filter(|_| rng.gen_bool(0.25)).collect())
                .collect();
            let m = upam(&rows, 20);
            let r = mine_eager_cover(&m, &MiningConfig::default()).unwrap();
            verify_exact_cover(&m, &r.roles).unwrap_or_else(|e| panic!("trial {trial}: {e}"));
            assert_eq!(r.cells_covered, m.nnz());
        }
    }

    #[test]
    fn mining_compresses_an_organization_scale_upam() {
        let org = rolediet_synth::generate_org(rolediet_synth::profiles::small_org(2));
        let m = org.graph.upam_sparse();
        let r = mine_eager_cover(&m, &MiningConfig::default()).unwrap();
        verify_exact_cover(&m, &r.roles).unwrap();
        // On organization-shaped data (users clustered by department),
        // shared cores dominate and greedy compresses well below the
        // user count. (Greedy is not *guaranteed* below the distinct-
        // profile count — see greedy_can_exceed_distinct_profiles — but
        // on this seeded dataset it lands far under it.)
        assert!(
            r.n_roles() * 2 < m.rows(),
            "{} roles for {} users",
            r.n_roles(),
            m.rows()
        );
    }
}
