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
//!    at least one other row, and its partners are the first
//!    [`CandidateConfig::probe_limit`] rows of that column in row
//!    (lexicographic) order, which bounds the pairing work by that
//!    column's support instead of the quadratic all-pairs closure the
//!    seed implementation used.
//!
//! The pool keeps the shared cores of at least
//! [`CandidateConfig::min_shared`] permissions that are proper subsets
//! of the row they were derived from and not themselves user rows, up
//! to [`CandidateConfig::max_candidates`] of them (largest first) — the
//! cap keeps mining polynomial, trading optimality like every practical
//! role miner does, but can never starve the cover of the initial rows
//! it needs to terminate. The pool's order is a pure function of the set
//! contents (larger sets first, ties by lexicographic index order), and
//! the sets sit back to back in one flat array.
//!
//! # A walk bounded by the cap
//!
//! The cap keeps only the longest cores, so the walk visits the distinct
//! rows longest first and stops deriving what the cap would drop. Each
//! row's deduplicated cores go into one flat buffer. Each time the
//! buffer has grown by about `2 × max_candidates` cores, it is sorted in
//! pool order, stripped of duplicates and user rows, and cut to
//! `max_candidates` cores; the length of the last kept core becomes the
//! *floor*. `max_candidates` cores at least that long are then held, so
//! a shorter core can never be kept. A kept core is a proper subset of
//! both rows it comes from (a core equal to the partner *is* the
//! partner, a user row), so:
//!
//! * a row no longer than the floor ends the walk — every later row is
//!   no longer, and its cores are shorter than the floor;
//! * a partner no longer than the floor is skipped;
//! * an intersection stops as soon as the partner's unread entries can
//!   no longer lift it to the floor.
//!
//! The kept cores are finally merged with the initial rows. The floor
//! only skips work whose cores a cut would drop, so the pool is the one
//! an unbounded enumerate–sort–dedup–cap would produce.
//!
//! Enumeration fans out over [`rolediet_matrix::parallel`]: each worker
//! walks a contiguous range of the longest-first order with its own
//! buffer and floor, and the workers' kept cores are joined in range
//! order and cut once more. A per-worker floor is sound: a core among
//! the pool's first `max_candidates` is among its worker's first
//! `max_candidates` too, because the worker's cores are a subset of all
//! cores, so no worker drops it. Pools are therefore bit-identical at
//! every thread count; only the work skipped depends on it.

use std::cmp::Reverse;

use serde::{Deserialize, Serialize};

use rolediet_matrix::parallel::par_map_ranges;
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

/// Sorted permission-index sets stored back to back: set `k` is
/// `cells[offsets[k]..offsets[k + 1]]`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct FlatSets {
    offsets: Vec<usize>,
    cells: Vec<u32>,
}

impl FlatSets {
    fn with_capacity(sets: usize, cells: usize) -> FlatSets {
        let mut offsets = Vec::with_capacity(sets + 1);
        offsets.push(0);
        FlatSets {
            offsets,
            cells: Vec::with_capacity(cells),
        }
    }

    fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    fn get(&self, k: usize) -> &[u32] {
        &self.cells[self.offsets[k]..self.offsets[k + 1]]
    }

    fn iter(&self) -> impl ExactSizeIterator<Item = &[u32]> + '_ {
        self.offsets.windows(2).map(|w| &self.cells[w[0]..w[1]])
    }

    fn push(&mut self, set: &[u32]) {
        self.cells.extend_from_slice(set);
        self.offsets.push(self.cells.len());
    }
}

/// A membership bitmap over the permission columns that holds one set
/// at a time, so a merge against that set becomes a branch-free scan of
/// the other side.
pub(crate) struct Marks(Vec<u64>);

impl Marks {
    pub(crate) fn new(cols: usize) -> Marks {
        Marks(vec![0; cols.div_ceil(64)])
    }

    pub(crate) fn mark(&mut self, set: &[u32]) {
        set.iter()
            .for_each(|&c| self.0[c as usize / 64] |= 1 << (c % 64));
    }

    /// Unmarks `set` by zeroing every word it touched.
    pub(crate) fn clear(&mut self, set: &[u32]) {
        set.iter().for_each(|&c| self.0[c as usize / 64] = 0);
    }

    /// 1 if column `c` is marked, else 0.
    pub(crate) fn bit(&self, c: u32) -> usize {
        usize::from(self.0[c as usize / 64] & 1 << (c % 64) != 0)
    }

    /// How many of `cells` are marked.
    pub(crate) fn count_in(&self, cells: &[u32]) -> usize {
        cells.iter().map(|&c| self.bit(c)).sum()
    }

    /// Packs the unmarked `cells` at the front, in order; returns how
    /// many were marked.
    pub(crate) fn remove_from(&self, cells: &mut [u32]) -> usize {
        let mut kept = 0usize;
        for k in 0..cells.len() {
            let c = cells[k];
            cells[kept] = c;
            kept += 1 - self.bit(c);
        }
        cells.len() - kept
    }
}

/// A set keyed for the canonical pool order: larger sets first (better
/// greedy seeds), ties by lexicographic index order. A total order on
/// the set contents, so the order is identical however the sets were
/// produced, and equal sets are adjacent in it. The key packs the
/// length and the first two indices, on which sets of one length compare
/// like their keys, so sorting these compares the sets themselves only
/// on equal keys.
type Keyed<'a> = (u128, &'a [u32]);

fn keyed(set: &[u32]) -> Keyed<'_> {
    let len = u64::try_from(set.len()).unwrap_or(u64::MAX);
    let lead = |k: usize| set.get(k).map_or(0, |&c| u128::from(c));
    (
        u128::from(u64::MAX - len) << 64 | lead(0) << 32 | lead(1),
        set,
    )
}

/// A generated candidate pool: sorted permission-index sets in the
/// canonical mining order (larger sets first, ties lexicographic),
/// stored back to back in one flat array.
///
/// The pool always contains every distinct non-empty user row of the
/// UPAM it was generated from ([`CandidatePool::n_initial`] of them), so
/// the greedy cover always terminates; derived shared cores follow under
/// the configured cap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidatePool {
    cols: usize,
    sets: FlatSets,
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
        // A width past u32::MAX admits every u32 index.
        let bound = u32::try_from(cols).ok();
        let mut canon: Vec<Vec<u32>> = Vec::with_capacity(sets.len());
        for mut set in sets {
            set.sort_unstable();
            set.dedup();
            if let Some(&max) = set.last() {
                if let Some(bound) = bound.filter(|&bound| max >= bound) {
                    return Err(ModelError::UnknownId {
                        kind: EntityKind::Permission,
                        id: max,
                        bound,
                    });
                }
                canon.push(set);
            }
        }
        canon.sort_unstable_by(|a, b| keyed(a).cmp(&keyed(b)));
        canon.dedup();
        let mut flat = FlatSets::with_capacity(canon.len(), canon.iter().map(Vec::len).sum());
        canon.iter().for_each(|set| flat.push(set));
        Ok(CandidatePool {
            cols,
            sets: flat,
            n_initial: 0,
        })
    }

    /// Number of candidate sets in the pool.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
    pub fn sets(&self) -> impl ExactSizeIterator<Item = &[u32]> + '_ {
        self.sets.iter()
    }

    /// One candidate's sorted permission indices.
    pub fn get(&self, i: usize) -> &[u32] {
        self.sets.get(i)
    }
}

/// Work counts of one generation. They depend on the thread count (each
/// worker has its own floor), so they are compared at one thread.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WalkTally {
    /// Distinct rows the walk reached before a floor ended it.
    pub(crate) rows: u64,
    /// Partner intersections started.
    pub(crate) intersections: u64,
    /// Cores appended to the buffer, each row's deduplicated.
    pub(crate) cores: u64,
}

impl WalkTally {
    fn absorb(&mut self, other: WalkTally) {
        self.rows += other.rows;
        self.intersections += other.intersections;
        self.cores += other.cores;
    }
}

/// Derived cores held under the cap: a flat buffer, cut back to the cap
/// whenever it has grown by about twice the cap, and the floor that cut
/// sets.
struct Cores<'a> {
    buf: FlatSets,
    /// The shortest core that can still be kept: `min_shared`, raised to
    /// the length of the last kept core once `max` cores are held, and
    /// `usize::MAX` at a cap of 0.
    floor: usize,
    /// Buffer length at which the next cut runs.
    cut_at: usize,
    max: usize,
    min_shared: usize,
    /// The initial rows, keyed and in pool order; a core equal to one is
    /// dropped.
    initial: &'a [Keyed<'a>],
}

impl<'a> Cores<'a> {
    fn new(config: &CandidateConfig, initial: &'a [Keyed<'a>]) -> Cores<'a> {
        let mut cores = Cores {
            buf: FlatSets::with_capacity(0, 0),
            floor: config.min_shared.max(1),
            cut_at: config.max_candidates.saturating_mul(2),
            max: config.max_candidates,
            min_shared: config.min_shared.max(1),
            initial,
        };
        cores.raise_floor();
        cores
    }

    /// Once `max` cores are held, nothing shorter than the last of them
    /// can be kept.
    fn raise_floor(&mut self) {
        if self.buf.len() >= self.max {
            self.floor = match self.buf.len().checked_sub(1) {
                Some(last) => self.buf.get(last).len().max(self.min_shared),
                None => usize::MAX,
            };
        }
    }

    /// Sorts the buffer in pool order and keeps its first `max` cores
    /// that are neither repeats nor initial rows.
    fn cut(&mut self) {
        let buf = &self.buf;
        let mut sorted: Vec<Keyed> = buf.iter().map(keyed).collect();
        sorted.sort_unstable();
        sorted.dedup();
        let mut kept = FlatSets::with_capacity(0, 0);
        for core in sorted {
            if kept.len() == self.max {
                break;
            }
            if self.initial.binary_search(&core).is_err() {
                kept.push(core.1);
            }
        }
        self.buf = kept;
        self.cut_at = self.buf.len().saturating_add(self.max.saturating_mul(2));
        self.raise_floor();
    }
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
/// The result is bit-identical at every thread count: each worker keeps
/// the cap's worth of its own longest cores, and the pool order is
/// content-defined. The pool always contains every distinct non-empty
/// user row (exempt from [`CandidateConfig::max_candidates`]); shared
/// cores are intersections of co-occurring distinct rows probed through
/// the inverted permission→row index, derived longest row first until
/// the cap's floor ends the walk (see the [module docs](self)).
pub fn generate_candidates_with(
    upam: &CsrMatrix,
    config: &CandidateConfig,
    threads: usize,
) -> CandidatePool {
    generate_counted(upam, config, threads, &mut WalkTally::default())
}

/// [`generate_candidates_with`], adding its work counts to `tally`.
pub(crate) fn generate_counted(
    upam: &CsrMatrix,
    config: &CandidateConfig,
    threads: usize,
    tally: &mut WalkTally,
) -> CandidatePool {
    let cols = upam.cols();
    let threads = threads.max(1);
    // Distinct non-empty user rows in lexicographic order, the row order
    // of the inverted index and so of every probe window.
    let distinct = {
        let mut rows: Vec<&[u32]> = (0..upam.rows())
            .map(|u| upam.row(u))
            .filter(|r| !r.is_empty())
            .collect();
        rows.sort_unstable();
        rows.dedup();
        CsrMatrix::from_row_iter_two_pass(rows.len(), cols, threads, |i| rows[i].iter().copied())
    };
    let d = distinct.rows();
    // The inverted index: permission → distinct rows that contain it.
    let inverted = distinct.transpose_with(threads);
    // Longest first, ties in row order: the walk's order, and the pool
    // order of the initial rows.
    let mut order: Vec<usize> = (0..d).collect();
    order.sort_by_key(|&i| Reverse(distinct.row_norm(i)));
    let initial: Vec<Keyed> = order.iter().map(|&i| keyed(distinct.row(i))).collect();
    let longest = initial.first().map_or(0, |(_, row)| row.len());
    let parts = par_map_ranges(d, threads, |range| {
        let mut tally = WalkTally::default();
        let mut cores = Cores::new(config, &initial);
        let mut in_row = Marks::new(cols);
        let mut scratch = vec![0u32; longest];
        // Ids of the current row's cores, sorted by content, so a repeat
        // is found by binary search.
        let mut row_cores: Vec<usize> = Vec::new();
        for &i in &order[range] {
            let ri = distinct.row(i);
            if ri.len() <= cores.floor {
                break;
            }
            tally.rows += 1;
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
            in_row.mark(ri);
            row_cores.clear();
            for &j in inverted.row(p as usize).iter().take(config.probe_limit) {
                let j = j as usize;
                let rj = distinct.row(j);
                if j == i || rj.len() <= cores.floor {
                    continue;
                }
                tally.intersections += 1;
                // Walk `rj` filtered by membership in `ri`, stopping once
                // more than `slack` misses leave the core short of the
                // floor.
                let slack = rj.len() - cores.floor;
                let mut len = 0usize;
                let mut short = false;
                for (read, &c) in rj.iter().enumerate() {
                    scratch[len] = c;
                    len += in_row.bit(c);
                    if read + 1 - len > slack {
                        short = true;
                        break;
                    }
                }
                // Proper subsets of both rows only: a core equal to `ri`
                // or to `rj` is an initial row.
                if short || len == ri.len() || len == rj.len() {
                    continue;
                }
                let core = &scratch[..len];
                if let Err(at) = row_cores.binary_search_by(|&k| cores.buf.get(k).cmp(core)) {
                    row_cores.insert(at, cores.buf.len());
                    cores.buf.push(core);
                    tally.cores += 1;
                }
            }
            in_row.clear(ri);
            if cores.buf.len() >= cores.cut_at {
                cores.cut();
            }
        }
        cores.cut();
        (cores.buf, tally)
    });
    // The workers' kept cores, joined in range order and cut once more
    // (one worker's are already cut).
    let mut kept = Cores::new(config, &initial);
    let several = parts.len() > 1;
    for (buf, part) in parts {
        buf.iter().for_each(|core| kept.buf.push(core));
        tally.absorb(part);
    }
    if several {
        kept.cut();
    }
    // Merge the initial rows with the kept cores, both in pool order and
    // disjoint.
    let kept = kept.buf;
    let mut sets = FlatSets::with_capacity(d + kept.len(), distinct.nnz() + kept.cells.len());
    let mut rows = initial.iter().peekable();
    for core in kept.iter() {
        while let Some((_, row)) = rows.next_if(|&&row| row < keyed(core)) {
            sets.push(row);
        }
        sets.push(core);
    }
    rows.for_each(|(_, row)| sets.push(row));
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
        assert!(pool.sets().any(|c| c == [0, 1]));
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
        assert!(loose.sets().any(|c| c == [0]));
        let strict = generate_candidates(&m, &CandidateConfig::default());
        assert!(strict.sets().all(|c| c.len() >= 2));
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
        for u in 0..m.rows() {
            assert!(pool.sets().any(|c| c == m.row(u)));
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
        let sets: Vec<&[u32]> = reference.sets().collect();
        for w in sets.windows(2) {
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
        assert!(pool.sets().eq([&[1, 3][..], &[4]]));
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

    #[test]
    fn marks_count_and_remove_like_bitvec() {
        use rolediet_matrix::BitVec;
        // A deterministic family of sets over 130 columns, so words past
        // the first are exercised.
        let sets: Vec<Vec<u32>> = (0u32..8)
            .map(|k| (0u32..130).filter(|x| (x * (k + 3)) % 7 < 3).collect())
            .collect();
        let bits = |s: &[u32]| {
            let ones: Vec<usize> = s.iter().map(|&x| x as usize).collect();
            BitVec::from_indices(130, &ones).unwrap()
        };
        let mut marks = Marks::new(130);
        for a in &sets {
            marks.mark(a);
            for b in &sets {
                let (ba, bb) = (bits(a), bits(b));
                assert_eq!(marks.count_in(b), ba.intersection_count(&bb).unwrap());
                let mut live = b.clone();
                let removed = marks.remove_from(&mut live);
                let mut rest = bb.clone();
                rest.difference_with(&ba).unwrap();
                assert_eq!(removed, b.len() - rest.count_ones());
                let kept: Vec<usize> = live[..b.len() - removed]
                    .iter()
                    .map(|&x| x as usize)
                    .collect();
                assert_eq!(kept, rest.to_indices());
            }
            marks.clear(a);
            assert_eq!(marks.count_in(&(0..130).collect::<Vec<_>>()), 0);
        }
    }
}
