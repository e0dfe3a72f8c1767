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
//! * **Flat sparse state** — coverage is one flat copy of the UPAM's
//!   index array: each user's still-uncovered cells are packed at the
//!   front of its row span, with a live end per user (`O(nnz)` total,
//!   never dense `users × width` bit rows, so the engine runs at the
//!   realorg scale where the dense oracle's state alone would be
//!   gigabytes). Eligibility is one CSR, its inverse another, and the
//!   candidate sets sit back to back in the pool. A committed or
//!   re-evaluated candidate is marked in a column bitmap, so each
//!   intersection count and each removal is one branch-free scan of a
//!   user's live cells.
//! * **Signature prefilter** — a candidate's eligible users are the users
//!   of its rarest permission whose row contains it. Each user carries a
//!   64-bit column signature (bit `p % 64` per permission `p`), and
//!   `sig(c) & !sig(u) != 0` proves `c ⊄ row(u)`, so only the users that
//!   pass get the full subset check.
//!
//! Selection order is bit-identical to the eager oracle in
//! [`greedy`](crate::greedy): the heap is keyed `(gain, Reverse(pool
//! index))`, so equal exact gains resolve to the earlier-generated
//! candidate, exactly like the oracle's `>`-only best tracking. The
//! equivalence is proptested across thread counts and configurations.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rolediet_matrix::parallel::{par_map_ranges, par_map_rows};
use rolediet_matrix::{CsrMatrix, RowMatrix};
use rolediet_model::{EntityKind, ModelError};

use crate::candidates::{generate_candidates_with, CandidatePool, Marks};
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
/// Peak memory is O(nnz + eligibilities): a flat copy of the UPAM's
/// index array as coverage state, the eligibility CSR and its inverse
/// (the user→candidate index), one column signature per user — no dense
/// `users × width` allocation anywhere.
///
/// # Errors
///
/// [`ModelError::CoverStalled`] if no positive-gain candidate remains
/// while cells are still uncovered, [`ModelError::WidthMismatch`] if the
/// pool's permission width differs from the UPAM's (both possible only
/// for hand-built pools), and [`ModelError::TooMany`] if the pool holds
/// more candidates than `u32` ids address.
pub fn mine_lazy_from_pool(
    upam: &CsrMatrix,
    pool: &CandidatePool,
    threads: usize,
) -> Result<MiningResult, ModelError> {
    lazy_cover(upam, pool, threads, &mut CoverTally::default())
}

/// Work counts of one lazy cover.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CoverTally {
    /// Subset checks run on the users the signature prefilter let
    /// through.
    pub(crate) subset_checks: u64,
    /// Heap entries popped.
    pub(crate) pops: u64,
    /// Dirty heap tops whose gain was recomputed.
    pub(crate) reevaluations: u64,
}

/// A 64-bit column signature: bit `p % 64` for each permission `p`.
/// `signature(c) & !signature(row) != 0` proves `c ⊄ row` without a
/// merge.
fn signature(set: &[u32]) -> u64 {
    set.iter().fold(0, |sig, &p| sig | 1 << (p % 64))
}

/// [`mine_lazy_from_pool`], adding its work counts to `tally`.
pub(crate) fn lazy_cover(
    upam: &CsrMatrix,
    pool: &CandidatePool,
    threads: usize,
    tally: &mut CoverTally,
) -> Result<MiningResult, ModelError> {
    check_width(upam, pool)?;
    // Candidate ids are u32 from here on.
    let n = u32::try_from(pool.len()).map_err(|_| ModelError::TooMany {
        kind: EntityKind::Role,
        count: pool.len(),
    })?;
    let threads = threads.max(1);
    let n_users = upam.rows();
    // Inverted UPAM: permission → users holding it, ascending.
    let users_of_perm = upam.transpose_with(threads);
    let user_sig: Vec<u64> = par_map_rows(n_users, threads, |range| {
        range.map(|u| signature(upam.row(u))).collect()
    });
    // Eligibility, one CSR: the users whose row contains the candidate
    // (assignment never over-grants). Resolved through the candidate's
    // rarest permission, as only that column's users can qualify, and
    // filtered by signature before the merge.
    let shares = par_map_ranges(pool.len(), threads, |range| {
        let mut ends = Vec::with_capacity(range.len());
        let mut users: Vec<u32> = Vec::new();
        let mut checks = 0u64;
        let mut in_set = Marks::new(upam.cols());
        for ci in range {
            let set = pool.get(ci);
            let mut probe: Option<(usize, u32)> = None;
            for &p in set {
                let support = users_of_perm.row_norm(p as usize);
                if probe.is_none_or(|best| (support, p) < best) {
                    probe = Some((support, p));
                }
            }
            if let Some((_, p)) = probe {
                let sig = signature(set);
                in_set.mark(set);
                for &u in users_of_perm.row(p as usize) {
                    if sig & !user_sig[u as usize] == 0 {
                        checks += 1;
                        if in_set.count_in(upam.row(u as usize)) == set.len() {
                            users.push(u);
                        }
                    }
                }
                in_set.clear(set);
            }
            ends.push(users.len());
        }
        (ends, users, checks)
    });
    // Only the eligibility build reads the inverted UPAM (a copy of every
    // UPAM cell) and the user signatures: free them before the cover
    // allocates its own state.
    drop(users_of_perm);
    drop(user_sig);
    let mut elig_at = Vec::with_capacity(pool.len() + 1);
    elig_at.push(0usize);
    let mut elig = Vec::with_capacity(shares.iter().map(|(_, users, _)| users.len()).sum());
    for (ends, users, checks) in shares {
        let base = elig.len();
        elig_at.extend(ends.iter().map(|&end| base + end));
        elig.extend_from_slice(&users);
        tally.subset_checks += checks;
    }
    let eligible = |ci: usize| &elig[elig_at[ci]..elig_at[ci + 1]];
    // The inverse of the eligibility CSR: user → candidates the user may
    // take (two-pass counting build, candidate ids ascending within each
    // user), one entry per eligibility.
    let mut user_at = vec![0usize; n_users + 1];
    for &u in &elig {
        user_at[u as usize + 1] += 1;
    }
    for u in 0..n_users {
        user_at[u + 1] += user_at[u];
    }
    let mut cands_of_user = vec![0u32; elig.len()];
    let mut cursor = user_at.clone();
    for ci in 0..n {
        for &u in eligible(ci as usize) {
            cands_of_user[cursor[u as usize]] = ci;
            cursor[u as usize] += 1;
        }
    }
    // Coverage: a flat copy of the UPAM's index array. User `u`'s
    // still-uncovered cells are packed at the front of its row span:
    // `cells[at..end]` for `(at, end) = live[u]`.
    let mut cells: Vec<u32> = Vec::with_capacity(upam.nnz());
    let mut live: Vec<(usize, usize)> = Vec::with_capacity(n_users);
    for u in 0..n_users {
        let at = cells.len();
        cells.extend_from_slice(upam.row(u));
        live.push((at, cells.len()));
    }
    let mut remaining: usize = upam.nnz();
    // Cached gains. Initially every eligible user's whole candidate set
    // is uncovered, so the exact gain is |set| × |eligible| — no merges.
    let mut gain: Vec<u64> = (0..pool.len())
        .map(|ci| (pool.get(ci).len() * eligible(ci).len()) as u64)
        .collect();
    let mut dirty: Vec<bool> = vec![false; pool.len()];
    let mut dead: Vec<bool> = gain.iter().map(|&g| g == 0).collect();
    let mut heap: BinaryHeap<(u64, Reverse<u32>)> = (0..n)
        .filter(|&ci| gain[ci as usize] > 0)
        .map(|ci| (gain[ci as usize], Reverse(ci)))
        .collect();
    let mut in_set = Marks::new(upam.cols());
    let mut roles = Vec::new();
    while remaining > 0 {
        let Some((g, Reverse(id))) = heap.pop() else {
            return Err(ModelError::CoverStalled { remaining });
        };
        tally.pops += 1;
        let ci = id as usize;
        if dead[ci] || g != gain[ci] {
            continue; // dead, or a stale duplicate of a re-pushed entry
        }
        let set = pool.get(ci);
        let users = eligible(ci);
        if dirty[ci] {
            // Re-evaluate: the cached value is only an upper bound.
            tally.reevaluations += 1;
            in_set.mark(set);
            let fresh: u64 = users
                .iter()
                .map(|&u| {
                    let (at, end) = live[u as usize];
                    in_set.count_in(&cells[at..end]) as u64
                })
                .sum();
            in_set.clear(set);
            gain[ci] = fresh;
            dirty[ci] = false;
            if fresh > 0 {
                heap.push((fresh, Reverse(id)));
            } else {
                dead[ci] = true; // gains never grow back
            }
            continue;
        }
        // Clean top: the cached gain is exact and dominates every upper
        // bound below it — this is the eager loop's argmax, ties to the
        // earlier pool index via Reverse ordering.
        dead[ci] = true;
        in_set.mark(set);
        for &u in users {
            let u = u as usize;
            let (at, end) = live[u];
            let removed = in_set.remove_from(&mut cells[at..end]);
            if removed == 0 {
                continue;
            }
            live[u].1 -= removed;
            remaining -= removed;
            // Delta maintenance: a gain sums |cj ∩ uncovered(u)| over
            // cj's eligible users, so only candidates of a user who just
            // lost cells can have lost gain. (A dead one is never read.)
            for &cj in &cands_of_user[user_at[u]..user_at[u + 1]] {
                dirty[cj as usize] = true;
            }
        }
        in_set.clear(set);
        roles.push(MinedRole {
            permissions: set.iter().map(|&p| p as usize).collect(),
            users: users.iter().map(|&u| u as usize).collect(),
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
    Err(ModelError::WidthMismatch {
        kind: EntityKind::Permission,
        expected: upam.cols(),
        found: pool.cols(),
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
    fn width_mismatch_reports_both_widths() {
        let m = upam(&[vec![0, 1]], 2);
        let wide = (1usize << 32) + 2;
        let pool = CandidatePool::from_sets(wide, vec![vec![0, 1]]).unwrap();
        let err = mine_lazy_from_pool(&m, &pool, 1).unwrap_err();
        assert!(matches!(
            err,
            ModelError::WidthMismatch {
                kind: EntityKind::Permission,
                expected: 2,
                found,
            } if found == wide
        ));
    }

    /// Pins the mine's work on `ing_like(0.05, 7)` at one thread: each
    /// worker of the walk has its own floor, so the walk's counts depend
    /// on the thread count. The counts are pure functions of the UPAM,
    /// so a change to the walk or the cover shows here without timing
    /// noise. Before the floor-bounded walk and the signature prefilter
    /// the same mine visited 4,417 rows, ran 58,378 intersections,
    /// buffered 16,360 cores and ran 223,363 subset checks, with the same
    /// heap pops and re-evaluations.
    #[test]
    fn mine_work_counts_are_pinned() {
        use crate::candidates::{generate_counted, WalkTally};

        let org = rolediet_synth::profiles::generate_ing_like(0.05, 7);
        let upam = org.graph.upam_sparse_with(1);
        let mut walk = WalkTally::default();
        let pool = generate_counted(&upam, &crate::CandidateConfig::default(), 1, &mut walk);
        let mut cover = CoverTally::default();
        lazy_cover(&upam, &pool, 1, &mut cover).unwrap();
        let want_walk = WalkTally {
            rows: 4_226,
            intersections: 53_541,
            cores: 16_258,
        };
        let want_cover = CoverTally {
            subset_checks: 67_869,
            pops: 31_421,
            reevaluations: 26_923,
        };
        assert_eq!(walk, want_walk);
        assert_eq!(cover, want_cover);
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
