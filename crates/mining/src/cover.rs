//! Lazy-greedy (CELF) role-mining cover with delta-maintained gains and
//! sparse coverage state — the organization-scale engine.
//!
//! Greedy set cover maximizes a monotone submodular function, so a
//! candidate's marginal gain can only *shrink* as roles are committed.
//! CELF (lazy greedy) exploits that: cached gains are upper bounds, so a
//! max-heap of cached gains only needs the top entry re-evaluated —
//! when the refreshed top still dominates every (upper-bounded) rival it
//! is the true argmax, and the round ends without touching the rest of
//! the pool. Two refinements make the re-evaluation itself cheap:
//!
//! * **Delta-dirtying** — a candidate's gain is
//!   `gain(cj) = Σ_{u ∈ eligible(cj)} |cj ∩ uncovered(u)|`, and
//!   committing a role changes only the `uncovered(u)` of its assigned
//!   users. The inverse of the eligibility lists, a user→candidate index
//!   with one entry per eligibility, marks dirty every live candidate of
//!   each assigned user who lost at least one cell: a superset of the
//!   candidates whose gain changed. A clean cached gain is therefore
//!   *exact*, not just an upper bound, so a clean heap top is selected
//!   with no re-evaluation at all.
//! * **Sparse state** — coverage is kept as sorted per-user index sets
//!   (`O(nnz)` total) walked with [`rolediet_matrix::setops`], never as
//!   dense `users × width` bit rows, so the engine runs at the realorg
//!   scale where the dense oracle's state alone would be gigabytes.
//!
//! Selection order is bit-identical to the eager oracle in
//! [`greedy`](crate::greedy): the heap is keyed `(gain, Reverse(pool
//! index))`, so equal exact gains resolve to the earlier-generated
//! candidate, exactly like the oracle's `>`-only best tracking. The
//! equivalence is proptested across thread counts and configurations.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rolediet_matrix::parallel::par_map_rows;
use rolediet_matrix::{setops, CsrMatrix, RowMatrix};
use rolediet_model::ModelError;

use crate::candidates::{generate_candidates_with, CandidatePool};
use crate::greedy::{MinedRole, MiningConfig, MiningResult};

/// Mines a role set that exactly covers `upam` (users × permissions)
/// with the lazy-greedy engine, sequentially.
///
/// Bit-identical to [`mine_eager_cover`](crate::mine_eager_cover) and to
/// [`mine_greedy_cover_with`] at every thread count.
///
/// # Errors
///
/// [`ModelError::CoverStalled`] if the candidate pool cannot cover the
/// matrix — unreachable here because the generated pool contains every
/// distinct user row.
///
/// # Examples
///
/// ```
/// use rolediet_matrix::CsrMatrix;
/// use rolediet_mining::{mine_greedy_cover, MiningConfig};
///
/// // Three users, two of them identical: two roles suffice.
/// let upam = CsrMatrix::from_rows_of_indices(3, 3, &[
///     vec![0, 1], vec![0, 1], vec![2],
/// ]).unwrap();
/// let result = mine_greedy_cover(&upam, &MiningConfig::default()).unwrap();
/// assert_eq!(result.n_roles(), 2);
/// ```
pub fn mine_greedy_cover(
    upam: &CsrMatrix,
    config: &MiningConfig,
) -> Result<MiningResult, ModelError> {
    mine_greedy_cover_with(upam, config, 1)
}

/// Mines a role set that exactly covers `upam` with the lazy-greedy
/// engine, fanning candidate generation and eligibility precompute out
/// on up to `threads` workers.
///
/// The result is bit-identical at every thread count (the cover loop
/// itself is sequential by nature; the parallel phases join in range
/// order).
///
/// # Errors
///
/// [`ModelError::CoverStalled`] — see [`mine_greedy_cover`].
pub fn mine_greedy_cover_with(
    upam: &CsrMatrix,
    config: &MiningConfig,
    threads: usize,
) -> Result<MiningResult, ModelError> {
    let pool = generate_candidates_with(upam, &config.candidates, threads);
    mine_lazy_from_pool(upam, &pool, threads)
}

/// Mines an exact cover of `upam` from an explicit candidate pool with
/// the lazy-greedy engine.
///
/// Peak memory is O(nnz + eligibilities): sorted-index coverage sets,
/// the per-candidate eligibility lists and their inverse, the
/// user→candidate index — no dense `users × width` allocation anywhere.
///
/// # Errors
///
/// [`ModelError::CoverStalled`] if no positive-gain candidate remains
/// while cells are still uncovered, and [`ModelError::UnknownId`] if the
/// pool's permission width differs from the UPAM's (both possible only
/// for hand-built pools).
pub fn mine_lazy_from_pool(
    upam: &CsrMatrix,
    pool: &CandidatePool,
    threads: usize,
) -> Result<MiningResult, ModelError> {
    check_width(upam, pool)?;
    let threads = threads.max(1);
    let n = pool.len();
    // Inverted UPAM: permission → users holding it, ascending.
    let users_of_perm = upam.transpose_with(threads);
    // eligible[ci] = users whose row contains the candidate (assignment
    // never over-grants). Resolved through the candidate's rarest
    // permission: only that column's users can possibly qualify.
    let mut eligible: Vec<Vec<u32>> = par_map_rows(n, threads, |range| {
        range
            .map(|ci| {
                let set = pool.get(ci);
                let mut probe: Option<(usize, u32)> = None;
                for &p in set {
                    let support = users_of_perm.row_norm(p as usize);
                    if probe.is_none_or(|best| (support, p) < best) {
                        probe = Some((support, p));
                    }
                }
                let Some((_, p)) = probe else {
                    return Vec::new();
                };
                users_of_perm
                    .row(p as usize)
                    .iter()
                    .copied()
                    .filter(|&u| setops::is_subset(set, upam.row(u as usize)))
                    .collect()
            })
            .collect()
    });
    // The inverse of `eligible`: user → candidates the user may take
    // (two-pass counting build, candidate ids ascending within each
    // user), one entry per eligibility.
    let n_users = upam.rows();
    let mut user_indptr = vec![0usize; n_users + 1];
    for users in &eligible {
        for &u in users {
            user_indptr[u as usize + 1] += 1;
        }
    }
    for u in 0..n_users {
        user_indptr[u + 1] += user_indptr[u];
    }
    let mut cands_of_user = vec![0u32; user_indptr[n_users]];
    let mut cursor = user_indptr.clone();
    for (ci, users) in eligible.iter().enumerate() {
        for &u in users {
            cands_of_user[cursor[u as usize]] = ci as u32;
            cursor[u as usize] += 1;
        }
    }
    // Sparse coverage state: still-uncovered permissions per user.
    let mut uncovered: Vec<Vec<u32>> = (0..n_users).map(|u| upam.row(u).to_vec()).collect();
    let mut remaining: usize = upam.nnz();
    // Cached gains. Initially every eligible user's whole candidate set
    // is uncovered, so the exact gain is |set| × |eligible| — no merges.
    let mut gain: Vec<u64> = (0..n)
        .map(|ci| (pool.get(ci).len() * eligible[ci].len()) as u64)
        .collect();
    let mut dirty: Vec<bool> = vec![false; n];
    let mut dead: Vec<bool> = vec![false; n];
    let mut heap: BinaryHeap<(u64, Reverse<u32>)> = BinaryHeap::with_capacity(n);
    for (ci, &g) in gain.iter().enumerate() {
        if g > 0 {
            heap.push((g, Reverse(ci as u32)));
        } else {
            dead[ci] = true;
        }
    }
    let mut roles = Vec::new();
    while remaining > 0 {
        let Some((g, Reverse(ci))) = heap.pop() else {
            return Err(ModelError::CoverStalled { remaining });
        };
        let ci = ci as usize;
        if dead[ci] || g != gain[ci] {
            continue; // dead, or a stale duplicate of a re-pushed entry
        }
        if dirty[ci] {
            // Re-evaluate: the cached value is only an upper bound.
            let set = pool.get(ci);
            let fresh: u64 = eligible[ci]
                .iter()
                .map(|&u| setops::intersect_count(set, &uncovered[u as usize]) as u64)
                .sum();
            gain[ci] = fresh;
            dirty[ci] = false;
            if fresh > 0 {
                heap.push((fresh, Reverse(ci as u32)));
            } else {
                dead[ci] = true; // gains never grow back
            }
            continue;
        }
        // Clean top: the cached gain is exact and dominates every upper
        // bound below it — this is the eager loop's argmax, ties to the
        // earlier pool index via Reverse ordering.
        dead[ci] = true;
        let set = pool.get(ci);
        let assigned = std::mem::take(&mut eligible[ci]);
        for &u in &assigned {
            let removed = setops::difference_in_place(&mut uncovered[u as usize], set);
            if removed == 0 {
                continue;
            }
            remaining -= removed;
            // Delta maintenance: a gain sums |cj ∩ uncovered(u)| over
            // cj's eligible users, so only candidates of a user who just
            // lost cells can have lost gain.
            let span = user_indptr[u as usize]..user_indptr[u as usize + 1];
            for &cj in &cands_of_user[span] {
                if !dead[cj as usize] {
                    dirty[cj as usize] = true;
                }
            }
        }
        roles.push(MinedRole {
            permissions: set.iter().map(|&p| p as usize).collect(),
            users: assigned.iter().map(|&u| u as usize).collect(),
        });
    }
    Ok(MiningResult {
        roles,
        candidates_considered: pool.len(),
        cells_covered: upam.nnz(),
    })
}

/// Rejects pools whose permission index space differs from the UPAM's.
pub(crate) fn check_width(upam: &CsrMatrix, pool: &CandidatePool) -> Result<(), ModelError> {
    if pool.cols() == upam.cols() {
        return Ok(());
    }
    Err(ModelError::UnknownId {
        kind: rolediet_model::EntityKind::Permission,
        id: pool.cols() as u32,
        bound: upam.cols() as u32,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::mine_eager_from_pool;
    use crate::verify::verify_exact_cover;

    fn upam(rows: &[Vec<usize>], cols: usize) -> CsrMatrix {
        CsrMatrix::from_rows_of_indices(rows.len(), cols, rows).unwrap()
    }

    #[test]
    fn matches_eager_on_small_shapes() {
        let shapes: &[(&[Vec<usize>], usize)] = &[
            (&[vec![], vec![]], 3),
            (&[vec![0, 2]], 3),
            (&[vec![0, 1, 2], vec![0, 1, 3], vec![0, 1]], 4),
            (&[vec![1, 2], vec![1, 2], vec![1, 2], vec![3]], 4),
            (&[vec![0, 1, 2, 7], vec![0, 1, 3, 7]], 9),
        ];
        for (rows, cols) in shapes {
            let m = upam(rows, *cols);
            let eager = mine_eager_cover_default(&m);
            for threads in [1, 2, 4, 8] {
                let lazy = mine_greedy_cover_with(&m, &MiningConfig::default(), threads).unwrap();
                assert_eq!(lazy, eager, "diverged at {threads} threads on {rows:?}");
            }
            verify_exact_cover(&m, &eager.roles).unwrap();
        }
    }

    fn mine_eager_cover_default(m: &CsrMatrix) -> MiningResult {
        crate::greedy::mine_eager_cover(m, &MiningConfig::default()).unwrap()
    }

    #[test]
    fn cap_exceeding_distinct_rows_no_longer_panic() {
        // Regression (PR 10 satellite): the seed-era generator truncated
        // the whole pool to `max_candidates`, dropping initial rows and
        // driving the greedy loop into its `unreachable!()`. Initial
        // rows are now uncappable, so a cap far below the distinct-row
        // count still mines an exact cover.
        let rows: Vec<Vec<usize>> = (0..8).map(|i| vec![i]).collect();
        let m = upam(&rows, 8);
        let cfg = MiningConfig {
            candidates: crate::CandidateConfig {
                max_candidates: 2,
                ..crate::CandidateConfig::default()
            },
        };
        let r = mine_greedy_cover(&m, &cfg).unwrap();
        verify_exact_cover(&m, &r.roles).unwrap();
        assert_eq!(r.n_roles(), 8);
    }

    #[test]
    fn stalls_with_typed_error_on_insufficient_pool() {
        let m = upam(&[vec![0, 1], vec![1]], 2);
        let pool = CandidatePool::from_sets(2, vec![vec![1]]).unwrap();
        let err = mine_lazy_from_pool(&m, &pool, 1).unwrap_err();
        assert!(matches!(err, ModelError::CoverStalled { remaining: 1 }));
    }

    #[test]
    fn lazy_equals_eager_on_explicit_pools() {
        let m = upam(&[vec![0, 1, 2], vec![0, 1], vec![2, 3]], 4);
        let pool = CandidatePool::from_sets(
            4,
            vec![vec![0, 1, 2], vec![0, 1], vec![2, 3], vec![2], vec![3]],
        )
        .unwrap();
        let eager = mine_eager_from_pool(&m, &pool).unwrap();
        let lazy = mine_lazy_from_pool(&m, &pool, 2).unwrap();
        assert_eq!(eager, lazy);
        verify_exact_cover(&m, &eager.roles).unwrap();
    }
}
