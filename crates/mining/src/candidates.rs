//! Candidate role generation (RoleMiner's `GenerateRoles` idea,
//! biclique-flavored).
//!
//! Candidates are permission sets that could become roles:
//!
//! 1. every *distinct* non-empty user permission-set (the "initial
//!    roles") — these alone already guarantee an exact cover exists, so
//!    they are **never capped**;
//! 2. *shared cores*: intersections of distinct rows that co-occur on a
//!    permission, enumerated through the inverted permission→row index
//!    the way maximal-biclique miners walk the bipartite graph. For each
//!    distinct row the probe column is its rarest permission shared with
//!    at least one other row, which bounds the pairing work by that
//!    column's support instead of the quadratic all-pairs closure the
//!    seed implementation used.
//!
//! The shared-core pool is deduplicated, restricted to proper subsets of
//! at least [`CandidateConfig::min_shared`] permissions, and capped at
//! [`CandidateConfig::max_candidates`] (largest first) — the cap keeps
//! mining polynomial, trading optimality like every practical role miner
//! does, but can no longer starve the cover of the initial rows it needs
//! to terminate.
//!
//! Enumeration fans out over [`rolediet_matrix::parallel`] and is
//! bit-identical at every thread count: workers emit per-row candidate
//! lists that are joined in row order, and the final pool order is a
//! pure function of the set contents (larger sets first, ties by
//! lexicographic index order). The derived cores are sorted once, in
//! that order, which also brings equal cores together for `dedup`; one
//! merge with the initial rows then applies the cap.

use serde::{Deserialize, Serialize};

use rolediet_matrix::parallel::par_map_rows;
use rolediet_matrix::{CsrMatrix, RowMatrix};
use rolediet_model::{EntityKind, ModelError};

/// Candidate generation configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CandidateConfig {
    /// Maximum number of *shared-core* (derived) candidates kept. The
    /// distinct user rows are exempt: they are what makes an exact cover
    /// always constructible, so capping them would break termination.
    pub max_candidates: usize,
    /// Minimum size of a derived shared-core candidate (initial rows are
    /// exempt). Values below 1 are treated as 1.
    pub min_shared: usize,
    /// Maximum co-occurring rows probed per distinct row during
    /// shared-core enumeration (the first `probe_limit` rows of the
    /// probe column, in row order — deterministic). Bounds the worst
    /// case on columns with huge support.
    pub probe_limit: usize,
}

impl Default for CandidateConfig {
    fn default() -> Self {
        CandidateConfig {
            max_candidates: 10_000,
            min_shared: 2,
            probe_limit: 128,
        }
    }
}

/// A generated candidate pool: sorted permission-index sets in the
/// canonical mining order (larger sets first, ties lexicographic).
///
/// The pool always contains every distinct non-empty user row of the
/// UPAM it was generated from ([`CandidatePool::n_initial`] of them), so
/// the greedy cover always terminates; derived shared cores follow under
/// the configured cap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidatePool {
    cols: usize,
    sets: Vec<Vec<u32>>,
    n_initial: usize,
}

impl CandidatePool {
    /// Builds a pool from hand-picked permission sets (for tests;
    /// [`generate_candidates`] is the production path).
    ///
    /// Sets are sorted, deduplicated (within and across sets), stripped
    /// of empties, and put in the canonical pool order. All sets count
    /// as derived (`n_initial` = 0): a hand-built pool carries no
    /// termination guarantee, and the cover engines surface that as
    /// [`ModelError::CoverStalled`] instead of panicking.
    ///
    /// # Errors
    ///
    /// [`ModelError::UnknownId`] if a set references a permission index
    /// `>= cols`.
    pub fn from_sets(cols: usize, sets: Vec<Vec<u32>>) -> Result<CandidatePool, ModelError> {
        let mut canon: Vec<Vec<u32>> = Vec::with_capacity(sets.len());
        for mut set in sets {
            set.sort_unstable();
            set.dedup();
            if let Some(&max) = set.last() {
                if max as usize >= cols {
                    return Err(ModelError::UnknownId {
                        kind: EntityKind::Permission,
                        id: max,
                        bound: cols as u32,
                    });
                }
                canon.push(set);
            }
        }
        canon.sort_unstable_by(pool_order);
        canon.dedup();
        Ok(CandidatePool {
            cols,
            sets: canon,
            n_initial: 0,
        })
    }

    /// Number of candidate sets in the pool.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// Permission-index width the sets are drawn from.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// How many pool members are distinct user rows (the uncappable
    /// cover-guaranteeing subset).
    pub fn n_initial(&self) -> usize {
        self.n_initial
    }

    /// All candidate sets in pool order.
    pub fn sets(&self) -> &[Vec<u32>] {
        &self.sets
    }

    /// One candidate's sorted permission indices.
    pub fn get(&self, i: usize) -> &[u32] {
        &self.sets[i]
    }
}

/// Canonical pool order: larger sets first (better greedy seeds), ties
/// by lexicographic index order. A total order on the set contents, so
/// the order is identical however the sets were produced, and equal
/// sets are adjacent in it (so `dedup` after one sort removes them).
fn pool_order(a: &impl AsRef<[u32]>, b: &impl AsRef<[u32]>) -> std::cmp::Ordering {
    let (a, b) = (a.as_ref(), b.as_ref());
    b.len().cmp(&a.len()).then_with(|| a.cmp(b))
}

/// Generates candidate permission sets from a UPAM (users ×
/// permissions), sequentially. See [`generate_candidates_with`].
///
/// # Examples
///
/// ```
/// use rolediet_matrix::CsrMatrix;
/// use rolediet_mining::{generate_candidates, CandidateConfig};
///
/// // Two users share {0,1}; a third has {0,1,2}.
/// let upam = CsrMatrix::from_rows_of_indices(3, 3, &[
///     vec![0, 1], vec![0, 1], vec![0, 1, 2],
/// ]).unwrap();
/// let pool = generate_candidates(&upam, &CandidateConfig::default());
/// // {0,1,2} and {0,1} — the shared core {0,1} is already a user row.
/// assert_eq!(pool.len(), 2);
/// assert_eq!(pool.get(0), &[0, 1, 2]);
/// assert_eq!(pool.get(1), &[0, 1]);
/// ```
pub fn generate_candidates(upam: &CsrMatrix, config: &CandidateConfig) -> CandidatePool {
    generate_candidates_with(upam, config, 1)
}

/// Generates candidate permission sets from a UPAM on up to `threads`
/// workers.
///
/// The result is bit-identical at every thread count: per-row shared
/// cores are joined in row order and the pool order is content-defined.
/// The pool always contains every distinct non-empty user row (exempt
/// from [`CandidateConfig::max_candidates`]); shared cores are
/// intersections of co-occurring distinct rows probed through the
/// inverted permission→row index.
pub fn generate_candidates_with(
    upam: &CsrMatrix,
    config: &CandidateConfig,
    threads: usize,
) -> CandidatePool {
    let cols = upam.cols();
    let threads = threads.max(1);
    // Distinct non-empty user rows, deduplicated by content.
    let mut rows: Vec<&[u32]> = (0..upam.rows())
        .map(|u| upam.row(u))
        .filter(|r| !r.is_empty())
        .collect();
    rows.sort_unstable();
    rows.dedup();
    let d = rows.len();
    // The distinct-row matrix and its inverted index (permission →
    // distinct rows that contain it).
    let distinct = CsrMatrix::from_row_iter_two_pass(d, cols, threads, |i| rows[i].iter().copied());
    let inverted = distinct.transpose_with(threads);
    let min_shared = config.min_shared.max(1);
    // Shared-core enumeration, one distinct row per work item; cores are
    // joined in row order. A row's columns are marked in a per-worker
    // membership table, so each intersection is one filtered walk of the
    // other row into a reused buffer. The row's kept cores stay sorted,
    // so a repeat is found by binary search and only new cores allocate.
    let mut derived: Vec<Vec<u32>> = par_map_rows(d, threads, |range| {
        let mut cores: Vec<Vec<u32>> = Vec::new();
        let mut core: Vec<u32> = Vec::new();
        let mut in_row = vec![false; cols];
        for i in range {
            let ri = distinct.row(i);
            // Probe column: the rarest permission of this row that at
            // least one *other* row shares (support >= 2). Rows whose
            // every permission is private share no core with anyone.
            let mut probe: Option<(usize, u32)> = None;
            for &p in ri {
                let support = inverted.row_norm(p as usize);
                if support >= 2 && probe.is_none_or(|best| (support, p) < best) {
                    probe = Some((support, p));
                }
            }
            let Some((_, p)) = probe else {
                continue;
            };
            ri.iter().for_each(|&c| in_row[c as usize] = true);
            let row_cores = cores.len();
            for &j in inverted.row(p as usize).iter().take(config.probe_limit) {
                if j as usize == i {
                    continue;
                }
                core.clear();
                let shared = distinct.row(j as usize).iter().copied();
                core.extend(shared.filter(|&c| in_row[c as usize]));
                // Proper subsets only: a core equal to the row itself
                // is already an initial candidate.
                if core.len() < min_shared || core.len() >= ri.len() {
                    continue;
                }
                if let Err(at) = cores[row_cores..].binary_search(&core) {
                    cores.insert(row_cores + at, core.clone());
                }
            }
            ri.iter().for_each(|&c| in_row[c as usize] = false);
        }
        cores
    });
    // One sort in pool order; equal cores are adjacent in it.
    derived.sort_unstable_by(pool_order);
    derived.dedup();
    // Merge the initial rows with the first `max_candidates` cores that
    // are not initial rows (initial rows win — they are uncapped), both
    // already in pool order.
    rows.sort_unstable_by(pool_order);
    let mut initial = rows.into_iter().peekable();
    let mut sets: Vec<Vec<u32>> = Vec::with_capacity(d + derived.len().min(config.max_candidates));
    let mut kept = 0usize;
    for core in derived {
        if kept == config.max_candidates {
            break;
        }
        while let Some(row) = initial.next_if(|row| pool_order(row, &core).is_lt()) {
            sets.push(row.to_vec());
        }
        if initial.peek() != Some(&core.as_slice()) {
            sets.push(core);
            kept += 1;
        }
    }
    sets.extend(initial.map(<[u32]>::to_vec));
    CandidatePool {
        cols,
        sets,
        n_initial: d,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn upam(rows: &[Vec<usize>], cols: usize) -> CsrMatrix {
        CsrMatrix::from_rows_of_indices(rows.len(), cols, rows).unwrap()
    }

    #[test]
    fn initial_roles_are_distinct_user_rows() {
        let m = upam(&[vec![0, 1], vec![0, 1], vec![2], vec![]], 3);
        let pool = generate_candidates(&m, &CandidateConfig::default());
        // {0,1} and {2}; empty row dropped; duplicates merged; the rows
        // share no permission so no cores are derived.
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.n_initial(), 2);
        assert_eq!(pool.get(0), &[0, 1]);
        assert_eq!(pool.get(1), &[2]);
    }

    #[test]
    fn shared_cores_surface_shared_subsets() {
        // Users: {0,1,2}, {0,1,3} — the shared core {0,1} is the "real
        // role" no single user exposes.
        let m = upam(&[vec![0, 1, 2], vec![0, 1, 3]], 4);
        let pool = generate_candidates(&m, &CandidateConfig::default());
        assert!(pool.sets().iter().any(|c| c == &[0, 1]));
        assert_eq!(pool.len(), 3);
        assert_eq!(pool.n_initial(), 2);
    }

    #[test]
    fn min_shared_prunes_small_cores() {
        let m = upam(&[vec![0, 1, 2], vec![0, 1, 3], vec![0, 4, 5]], 6);
        let loose = generate_candidates(
            &m,
            &CandidateConfig {
                min_shared: 1,
                ..CandidateConfig::default()
            },
        );
        // {0} is the (singleton) core shared by all three rows.
        assert!(loose.sets().iter().any(|c| c == &[0]));
        let strict = generate_candidates(&m, &CandidateConfig::default());
        assert!(strict.sets().iter().all(|c| c.len() >= 2));
    }

    #[test]
    fn cap_never_drops_initial_rows() {
        // 12 distinct rows with a cap of 5: every row must survive; only
        // derived shared cores (here {0,1} and its extensions) are capped.
        let rows: Vec<Vec<usize>> = (0..12).map(|i| vec![0, 1, i + 2]).collect();
        let m = upam(&rows, 14);
        let pool = generate_candidates(
            &m,
            &CandidateConfig {
                max_candidates: 5,
                ..CandidateConfig::default()
            },
        );
        assert_eq!(pool.n_initial(), 12);
        assert!(pool.len() >= 12);
        assert!(pool.len() <= 12 + 5);
        for row in &rows {
            let want: Vec<u32> = row.iter().map(|&p| p as u32).collect();
            assert!(pool.sets().iter().any(|c| c == &want));
        }
    }

    #[test]
    fn deterministic_and_sorted_largest_first_at_every_thread_count() {
        let m = upam(&[vec![0], vec![1, 2], vec![1, 2, 3], vec![1, 3]], 4);
        let reference = generate_candidates(&m, &CandidateConfig::default());
        for threads in [1, 2, 4, 8] {
            let pool = generate_candidates_with(&m, &CandidateConfig::default(), threads);
            assert_eq!(pool, reference, "pool diverged at {threads} threads");
        }
        for w in reference.sets().windows(2) {
            assert!(w[0].len() >= w[1].len());
        }
    }

    #[test]
    fn empty_upam_yields_no_candidates() {
        let m = upam(&[vec![], vec![]], 3);
        assert!(generate_candidates(&m, &CandidateConfig::default()).is_empty());
    }

    #[test]
    fn from_sets_canonicalizes_and_validates() {
        let pool =
            CandidatePool::from_sets(5, vec![vec![3, 1, 1], vec![], vec![4], vec![1, 3]]).unwrap();
        assert_eq!(pool.sets(), &[vec![1, 3], vec![4]]);
        assert_eq!(pool.n_initial(), 0);
        let err = CandidatePool::from_sets(3, vec![vec![0, 7]]).unwrap_err();
        assert!(matches!(
            err,
            ModelError::UnknownId {
                kind: EntityKind::Permission,
                id: 7,
                bound: 3,
            }
        ));
    }
}
