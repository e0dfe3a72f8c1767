//! The paper's custom co-occurrence algorithm (Section III-C, "Our
//! Algorithm").
//!
//! Let `|Rⁱ|` be the norm of role `i` (number of users assigned to it) and
//! `gⁱʲ` the number of user co-occurrences between roles `i` and `j` — the
//! off-diagonal entries of `C = A·Aᵀ` for RUAM `A`. The paper defines the
//! indicator
//!
//! ```text
//! 𝕀ⁱʲ = 1  iff  |Rⁱ| = gⁱʲ = |Rʲ|,  i ≠ j
//! ```
//!
//! and the groups of interest are the sets closed under `𝕀ⁱʲ = 1` —
//! exactly the roles with *identical* user sets (T4). Because
//! `Hamming(i,j) = |Rⁱ| + |Rʲ| − 2gⁱʲ`, the same machinery generalizes to
//! T5: roles within a user-set distance `t`.
//!
//! # Why this is fast
//!
//! Materializing `C` is quadratic, but `C` is extremely sparse: a pair of
//! roles only has `gⁱʲ > 0` if some user holds both. The paper walks the
//! inverted index (RUAM transposed) to enumerate only the non-zero
//! entries, in `O(Σ_u deg(u)²)`. That walk
//! ([`for_each_cooccurring_pair`]) is kept as the paper's formulation and
//! as the oracle; the fast paths go further:
//!
//! * **T4 signature fast path** — identical rows are found by verified
//!   content hashing in one linear pass ([`same_groups`]); the indicator
//!   evaluation ([`same_groups_via_indicator`]) is kept as an
//!   independently-implemented verification oracle and for tests.
//! * **T5 prefix probe** — if `Hamming(i, j) ≤ t` and `gⁱʲ ≥ 1`, then
//!   `|Rⁱ \ Rʲ| ≤ t`, so any `t + 1` columns of row `i` include one that
//!   row `j` holds (the prefix filter of Bayardo, Ma and Srikant, "Scaling
//!   Up All Pairs Similarity Search", WWW 2007). Each row therefore gathers
//!   only the inverted lists of its `t + 1` rarest columns, keeps the
//!   candidates in its norm band (without a branch per gathered row, then
//!   deduplicated by a bit per row) and verifies each against a bitmap of
//!   its own columns, stopping once more than `t` of the candidate's
//!   columns miss.
//!   The batch detector ([`similar_pairs_parallel`]) and the incremental
//!   pipeline share that one probe and its reusable buffers.
//! * **T5 disjoint supplement** — pairs with `gⁱʲ = 0` can still be within
//!   distance `t` when both norms are small (`|Rⁱ| + |Rʲ| ≤ t`). No
//!   inverted list holds them; an optional pass over low-norm rows adds
//!   them (see
//!   [`SimilarityConfig::include_disjoint`](crate::SimilarityConfig)).

use rolediet_matrix::ops::for_each_cooccurring_pair;
use rolediet_matrix::parallel::{par_map_reduce_ranges, par_map_rows};
use rolediet_matrix::{split_buckets, CsrMatrix, RowMatrix, SignatureIndex};

use crate::config::SimilarityConfig;
use crate::report::SimilarPair;

/// T4 — groups of roles with identical rows, via the signature fast path:
/// [`same_groups_with`] at one thread.
///
/// Exact: candidates grouped by a 128-bit content hash are re-verified
/// bit-for-bit. Groups are sorted by first member; zero-norm (empty) roles
/// form one group when there are at least two of them.
///
/// # Examples
///
/// ```
/// use rolediet_core::cooccur::same_groups;
/// use rolediet_matrix::CsrMatrix;
///
/// let ruam = CsrMatrix::from_rows_of_indices(4, 3, &[
///     vec![0, 1], vec![2], vec![0, 1], vec![2],
/// ]).unwrap();
/// assert_eq!(same_groups(&ruam), vec![vec![0, 2], vec![1, 3]]);
/// ```
pub fn same_groups<M: RowMatrix + Sync>(matrix: &M) -> Vec<Vec<usize>> {
    same_groups_with(matrix, 1)
}

/// [`same_groups`] with the signature hashing
/// ([`SignatureIndex::build_with`]) *and* the bucket splitting
/// ([`split_buckets`]) spread over `threads` workers. Signature buckets
/// partition the rows, so each worker splits its own buckets and the
/// groups, sorted by first member, are identical for every thread count
/// (pinned by tests).
pub fn same_groups_with<M: RowMatrix + Sync>(matrix: &M, threads: usize) -> Vec<Vec<usize>> {
    let candidates = SignatureIndex::build_with(matrix, threads).candidate_groups();
    split_buckets(&candidates, threads, |a, b| matrix.rows_equal(a, b))
}

/// T4 — the same groups, computed by literally evaluating the paper's
/// indicator function over the streamed co-occurrence matrix.
///
/// Used as a second, independently-implemented exact oracle (the two
/// implementations cross-check each other in tests) and to demonstrate
/// the algorithm exactly as published. Zero-norm roles never co-occur with
/// anything, but `|Rⁱ| = gⁱʲ = |Rʲ| = 0` still holds for any two of them,
/// so they are grouped explicitly.
pub fn same_groups_via_indicator(matrix: &CsrMatrix, transpose: &CsrMatrix) -> Vec<Vec<usize>> {
    let n = matrix.n_rows();
    let mut uf = rolediet_cluster::UnionFind::new(n);
    for_each_cooccurring_pair(matrix, transpose, |i, j, g| {
        if matrix.row_norm(i) == g && matrix.row_norm(j) == g {
            uf.union(i, j);
        }
    });
    // Degenerate case: all-empty rows are identical to each other.
    let mut first_empty: Option<usize> = None;
    for i in 0..n {
        if matrix.row_norm(i) == 0 {
            if let Some(f) = first_empty {
                uf.union(f, i);
            } else {
                first_empty = Some(i);
            }
        }
    }
    uf.groups_min_size(2)
}

/// T4 — the naïve all-pairs baseline the paper dismisses ("largely
/// inefficient and does not scale"): compare every pair of rows and union
/// the equal ones.
///
/// Quadratic in roles. Kept as a third independent oracle.
pub fn same_groups_naive<M: RowMatrix>(matrix: &M) -> Vec<Vec<usize>> {
    let n = matrix.rows();
    let mut uf = rolediet_cluster::UnionFind::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            if matrix.rows_equal(i, j) {
                uf.union(i, j);
            }
        }
    }
    uf.groups_min_size(2)
}

/// T5 — role pairs whose rows differ in `1..=cfg.threshold` positions.
///
/// Applies `|Rⁱ| + |Rʲ| − 2gⁱʲ ≤ t` to the pairs that share a column,
/// found by the prefix probe (see the [module docs](self)); identical
/// pairs (distance 0) are excluded — they are T4 findings. With
/// [`SimilarityConfig::include_disjoint`] the low-norm supplement is
/// added. Pairs are sorted by distance, then by `(a, b)`, and truncated
/// to `cfg.max_pairs`.
pub fn similar_pairs(
    matrix: &CsrMatrix,
    transpose: &CsrMatrix,
    cfg: &SimilarityConfig,
) -> Vec<SimilarPair> {
    similar_pairs_parallel(matrix, transpose, cfg, 1)
}

/// T5 — the same computation with the rows split over `threads` worker
/// threads via the shared [`parallel`](rolediet_matrix::parallel)
/// substrate. Every row runs the same probe over its partners `j > i`, so
/// each pair is found once, and the result is bit-identical to
/// [`similar_pairs`] for every thread count.
pub fn similar_pairs_parallel(
    matrix: &CsrMatrix,
    transpose: &CsrMatrix,
    cfg: &SimilarityConfig,
    threads: usize,
) -> Vec<SimilarPair> {
    similar_pairs_counted(matrix, transpose, cfg, threads, &mut ProbeTally::default())
}

/// [`similar_pairs_parallel`], adding the probe's work counts to `tally`.
pub(crate) fn similar_pairs_counted(
    matrix: &CsrMatrix,
    transpose: &CsrMatrix,
    cfg: &SimilarityConfig,
    threads: usize,
    tally: &mut ProbeTally,
) -> Vec<SimilarPair> {
    // Validate on the caller thread so a mismatched transpose panics
    // here, identically to the sequential path, rather than inside a
    // worker.
    rolediet_matrix::ops::assert_transpose_shape(matrix, transpose);
    let t = cfg.threshold;
    // One norms vector serves the probe's norm check and the disjoint
    // supplement.
    let norms = matrix.row_sums();
    let index = CsrIndex {
        matrix,
        transpose,
        norms: &norms,
    };
    let probed = par_map_reduce_ranges(
        matrix.n_rows(),
        threads,
        |range| {
            let mut scratch = ProbeScratch::default();
            let mut out: Vec<SimilarPair> = Vec::new();
            for i in range {
                let i = i as u32;
                probe_similar(&index, i, i + 1, t, &mut scratch, |j, d| {
                    out.push(SimilarPair::new(i as usize, j as usize, d));
                });
            }
            (out, scratch.tally)
        },
        |(pairs, counts), (part, part_counts)| {
            pairs.extend(part);
            counts.add(part_counts);
        },
    );
    let (mut pairs, counts) = probed.unwrap_or_default();
    tally.add(counts);
    if cfg.include_disjoint {
        pairs.extend(disjoint_supplement_with_norms(matrix, &norms, t, threads));
    }
    finalize_pairs(pairs, cfg.max_pairs)
}

/// The column → rows lookup the T5 probe runs over: one matrix side's
/// inverted index, with column degrees and row norms. The batch detector
/// implements it over a CSR matrix and its transpose, the incremental
/// pipeline over one side of the graph and its degree vectors.
pub(crate) trait InvertedIndex {
    /// Number of rows.
    fn n_rows(&self) -> usize;
    /// Number of columns.
    fn n_cols(&self) -> usize;
    /// Number of rows holding column `c`: exactly as many as
    /// [`rows_of`](Self::rows_of) yields.
    fn col_degree(&self, c: u32) -> usize;
    /// The rows holding column `c`.
    fn rows_of(&self, c: u32) -> impl Iterator<Item = u32>;
    /// Number of columns row `r` holds.
    fn row_norm(&self, r: u32) -> usize;
    /// Row `r`'s columns, ascending.
    fn row(&self, r: u32) -> impl Iterator<Item = u32>;
}

/// The batch [`InvertedIndex`]: a CSR matrix, its transpose and its row
/// norms.
struct CsrIndex<'a> {
    matrix: &'a CsrMatrix,
    transpose: &'a CsrMatrix,
    norms: &'a [usize],
}

impl InvertedIndex for CsrIndex<'_> {
    fn n_rows(&self) -> usize {
        self.matrix.n_rows()
    }

    fn n_cols(&self) -> usize {
        self.matrix.n_cols()
    }

    fn col_degree(&self, c: u32) -> usize {
        self.transpose.row(c as usize).len()
    }

    fn rows_of(&self, c: u32) -> impl Iterator<Item = u32> {
        self.transpose.row(c as usize).iter().copied()
    }

    fn row_norm(&self, r: u32) -> usize {
        self.norms[r as usize]
    }

    fn row(&self, r: u32) -> impl Iterator<Item = u32> {
        self.matrix.row(r as usize).iter().copied()
    }
}

/// Work counts of the T5 probe.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ProbeTally {
    /// Rows read from the prefix columns' inverted lists.
    pub(crate) gathered: u64,
    /// Distinct candidates in the norm band, verified column by column.
    pub(crate) verified: u64,
    /// Partners emitted at distance `1 ≤ d ≤ t`.
    pub(crate) emitted: u64,
}

impl ProbeTally {
    pub(crate) fn add(&mut self, other: ProbeTally) {
        self.gathered += other.gathered;
        self.verified += other.verified;
        self.emitted += other.emitted;
    }
}

/// Buffers one prober reuses across rows, and its work counts. No probe
/// reads what an earlier one left in them, so a scratch is not state: any
/// two compare equal, and a clone starts empty.
#[derive(Debug, Default)]
pub(crate) struct ProbeScratch {
    /// The probed row's columns as `(degree, column)`.
    prefix: Vec<(usize, u32)>,
    /// Gathered rows; the candidates are packed at the front.
    candidates: Vec<u32>,
    /// One bit per row, set while the row is a candidate.
    seen: Vec<u64>,
    /// One bit per column, set while the probed row holds it.
    cols: Vec<u64>,
    pub(crate) tally: ProbeTally,
}

impl PartialEq for ProbeScratch {
    fn eq(&self, _: &ProbeScratch) -> bool {
        true
    }
}

impl Clone for ProbeScratch {
    fn clone(&self) -> ProbeScratch {
        ProbeScratch::default()
    }
}

/// Grows a bitmap to hold `bits` bits (never shrinks it).
fn grow_bits(words: &mut Vec<u64>, bits: usize) {
    let need = bits.div_ceil(64);
    if words.len() < need {
        words.resize(need, 0);
    }
}

/// The T5 probe: calls `emit(j, d)`, in no particular order, for every
/// row `j ≥ from`, `j ≠ r`, that shares a column with row `r` and lies at
/// distance `1 ≤ d ≤ t` from it.
///
/// Any `t + 1` of r's columns include one that every such `j` holds (see
/// the [module docs](self)), so only the rows of r's `t + 1` rarest
/// columns (by degree, ties by column index) are candidates — all of its
/// columns when `|Rʳ| ≤ t`. They are gathered into one buffer sized by
/// those columns' degrees, each row written and kept or overwritten
/// without a branch: kept when it is in range and its norm is within `t`
/// of r's. The kept rows are deduplicated in place, again without a
/// branch, by a mark of one bit per row. Each candidate's columns are
/// then scanned against a bitmap of r's; it is rejected once more than
/// `t` of them miss, and otherwise lies at `d = |Rʳ| − |Rʲ| + 2·misses`.
pub(crate) fn probe_similar<I: InvertedIndex>(
    index: &I,
    r: u32,
    from: u32,
    t: usize,
    scratch: &mut ProbeScratch,
    mut emit: impl FnMut(u32, usize),
) {
    // No distance exceeds the column count, and the clamp keeps `t + 1`
    // from overflowing.
    let t = t.min(index.n_cols());
    let norm = index.row_norm(r);
    let ProbeScratch {
        prefix,
        candidates,
        seen,
        cols,
        tally,
    } = scratch;
    prefix.clear();
    prefix.extend(index.row(r).map(|c| (index.col_degree(c), c)));
    if prefix.len() > t + 1 {
        prefix.select_nth_unstable(t);
        prefix.truncate(t + 1);
    }
    // Gather: every row of the prefix columns is written at `passed`,
    // which advances only past a row in range and in the norm band.
    let gathered: usize = prefix.iter().map(|&(degree, _)| degree).sum();
    if candidates.len() < gathered {
        candidates.resize(gathered, 0);
    }
    let mut passed = 0usize;
    for &(_, c) in prefix.iter() {
        for j in index.rows_of(c) {
            let keep = (j >= from) & (j != r) & (index.row_norm(j).abs_diff(norm) <= t);
            candidates[passed] = j;
            passed += usize::from(keep);
        }
    }
    // Dedup the survivors in place: a row is kept while its mark is clear.
    grow_bits(seen, index.n_rows());
    let mut kept = 0usize;
    for k in 0..passed {
        let j = candidates[k];
        let (word, bit) = (j as usize / 64, j % 64);
        candidates[kept] = j;
        kept += usize::from(seen[word] >> bit & 1 == 0);
        seen[word] |= 1 << bit;
    }
    let candidates = &candidates[..kept];
    for &j in candidates {
        seen[j as usize / 64] = 0;
    }
    tally.gathered += gathered as u64;
    tally.verified += kept as u64;
    if kept == 0 {
        // Most rows of a sparse side keep no candidate: skip marking them.
        return;
    }
    // Verify against r's column bitmap.
    grow_bits(cols, index.n_cols());
    index
        .row(r)
        .for_each(|c| cols[c as usize / 64] |= 1 << (c % 64));
    for &j in candidates {
        let mut misses = 0usize;
        for c in index.row(j) {
            misses += usize::from(cols[c as usize / 64] >> (c % 64) & 1 == 0);
            if misses > t {
                break;
            }
        }
        if misses > t {
            continue;
        }
        // `|Rʲ| − misses` columns are shared, so r holds `norm − |Rʲ| +
        // misses` that j lacks.
        let d = norm + 2 * misses - index.row_norm(j);
        if (1..=t).contains(&d) {
            tally.emitted += 1;
            emit(j, d);
        }
    }
    index.row(r).for_each(|c| cols[c as usize / 64] = 0);
}

/// Pairs of rows with disjoint supports whose combined norm is within the
/// threshold (`gⁱʲ = 0`, so no inverted list pairs them: neither the
/// co-occurrence walk nor the prefix probe finds them) — the
/// norm-bucketed kernel.
///
/// Low-norm rows are bucketed by norm and only bucket pairs `(nᵃ, nᵇ)`
/// with `1 ≤ nᵃ + nᵇ ≤ t` are enumerated, so the combinations the old
/// quadratic scan wasted most of its time rejecting — empty row vs.
/// empty row, or two rows whose norms already exceed the threshold
/// together — are never visited at all. Within a surviving combination
/// the disjointness check is word-wise: each row folds its CSR column
/// words into a one-word fingerprint (bit `c mod 64`), two rows with
/// non-intersecting fingerprints are proven disjoint without touching
/// their columns, and only fingerprint collisions fall back to the exact
/// merge join. The outer loop splits over `threads` workers with
/// deterministic join order.
///
/// This remains opt-in
/// ([`SimilarityConfig::include_disjoint`](crate::SimilarityConfig)):
/// real RBAC data can contain thousands of empty roles (the paper's
/// organization had 12,000), which produce quadratically many
/// administratively useless "empty vs. nearly-empty" pairs.
pub fn disjoint_supplement(matrix: &CsrMatrix, t: usize, threads: usize) -> Vec<SimilarPair> {
    let norms = matrix.row_sums();
    disjoint_supplement_with_norms(matrix, &norms, t, threads)
}

/// [`disjoint_supplement`] against a caller-provided norms vector, so
/// the T5 path computes norms once for both passes.
fn disjoint_supplement_with_norms(
    matrix: &CsrMatrix,
    norms: &[usize],
    t: usize,
    threads: usize,
) -> Vec<SimilarPair> {
    // Two disjoint rows differ in `na + nb <= cols` positions, so a
    // larger threshold is exact at `cols` and sizes the buckets by it.
    let t = t.min(matrix.n_cols());
    // Bucket low-norm rows by norm, keeping a one-word fingerprint of
    // each row's columns next to its id.
    let mut buckets: Vec<Vec<(u32, u64)>> = vec![Vec::new(); t + 1];
    for (i, &n) in norms.iter().enumerate() {
        if n <= t {
            let fp = matrix
                .row(i)
                .iter()
                .fold(0u64, |acc, &c| acc | 1u64 << (c % 64));
            buckets[n].push((i as u32, fp));
        }
    }
    let disjoint = |i: u32, fi: u64, j: u32, fj: u64| {
        fi & fj == 0 || matrix.row_dot(i as usize, j as usize) == 0
    };
    let mut out = Vec::new();
    for na in 0..=t {
        for nb in na..=(t - na) {
            if na + nb == 0 {
                continue;
            }
            let (ba, bb) = (&buckets[na], &buckets[nb]);
            if ba.is_empty() || bb.is_empty() {
                continue;
            }
            if na == 0 {
                // Rows of norm 0 are disjoint from everything (and
                // `na < nb` here, since (0, 0) is skipped): the block is
                // dense with exactly `|ba| · |bb|` pairs, so workers
                // write disjoint slices of the output in place — no
                // per-chunk buffers, no growth, no post-merge copy. On
                // real RBAC data this block dominates the supplement
                // (thousands of empty × single-assignment roles).
                let stride = bb.len();
                let start = out.len();
                out.resize(start + ba.len() * stride, SimilarPair::new(0, 1, 0));
                let offsets: Vec<usize> = (0..=ba.len()).map(|x| x * stride).collect();
                rolediet_matrix::parallel::par_fill_by_offsets(
                    &mut out[start..],
                    &offsets,
                    threads,
                    |range, slice| {
                        let mut k = 0;
                        for x in range {
                            let (i, _) = ba[x];
                            for &(j, _) in bb.iter() {
                                slice[k] = SimilarPair::new(i as usize, j as usize, nb);
                                k += 1;
                            }
                        }
                    },
                );
                continue;
            }
            out.extend(par_map_rows(ba.len(), threads, |range| {
                let mut found = Vec::new();
                for x in range {
                    let (i, fi) = ba[x];
                    let partners = if na == nb { &bb[x + 1..] } else { &bb[..] };
                    for &(j, fj) in partners {
                        if disjoint(i, fi, j, fj) {
                            found.push(SimilarPair::new(i as usize, j as usize, na + nb));
                        }
                    }
                }
                found
            }));
        }
    }
    out
}

/// The PR 1 disjoint supplement: a quadratic scan over all low-norm rows
/// with per-pair `row_norm` recomputation. Kept verbatim as an
/// independent oracle for the bucketed kernel's tests.
pub fn disjoint_supplement_naive(matrix: &CsrMatrix, t: usize) -> Vec<SimilarPair> {
    let low: Vec<usize> = (0..matrix.n_rows())
        .filter(|&i| matrix.row_norm(i) <= t)
        .collect();
    let mut out = Vec::new();
    for (x, &i) in low.iter().enumerate() {
        for &j in &low[x + 1..] {
            let (ni, nj) = (matrix.row_norm(i), matrix.row_norm(j));
            if ni + nj >= 1 && ni + nj <= t && matrix.row_dot(i, j) == 0 {
                out.push(SimilarPair::new(i, j, ni + nj));
            }
        }
    }
    out
}

/// Sorts pairs by distance, then `(a, b)`, drops duplicates and keeps
/// the `max_pairs` closest: the one output order of every T5 path.
pub(crate) fn finalize_pairs(mut pairs: Vec<SimilarPair>, max_pairs: usize) -> Vec<SimilarPair> {
    pairs.sort_unstable_by_key(|p| (p.distance, p.a, p.b));
    pairs.dedup();
    pairs.truncate(max_pairs);
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Figure 1 RUAM (5 roles × 4 users).
    fn paper_ruam() -> CsrMatrix {
        CsrMatrix::from_rows_of_indices(5, 4, &[vec![0], vec![1, 2], vec![], vec![1, 2], vec![3]])
            .unwrap()
    }

    /// The Figure 1 RPAM (5 roles × 6 permissions).
    fn paper_rpam() -> CsrMatrix {
        CsrMatrix::from_rows_of_indices(
            5,
            6,
            &[vec![1, 2], vec![], vec![3], vec![4, 5], vec![4, 5]],
        )
        .unwrap()
    }

    #[test]
    fn paper_example_same_users() {
        // Section III-C: roles R02 and R04 (indices 1, 3) satisfy
        // |R²| = g²⁴ = |R⁴| = 2.
        let m = paper_ruam();
        assert_eq!(same_groups(&m), vec![vec![1, 3]]);
        assert_eq!(
            same_groups_via_indicator(&m, &m.transpose()),
            vec![vec![1, 3]]
        );
    }

    #[test]
    fn paper_example_same_permissions() {
        // Roles R04 and R05 (indices 3, 4) share {P05, P06}.
        let m = paper_rpam();
        assert_eq!(same_groups(&m), vec![vec![3, 4]]);
        assert_eq!(
            same_groups_via_indicator(&m, &m.transpose()),
            vec![vec![3, 4]]
        );
    }

    #[test]
    fn indicator_groups_empty_rows() {
        let m = CsrMatrix::from_rows_of_indices(4, 3, &[vec![], vec![0], vec![], vec![]]).unwrap();
        let groups = same_groups_via_indicator(&m, &m.transpose());
        assert_eq!(groups, vec![vec![0, 2, 3]]);
        assert_eq!(same_groups(&m), groups, "both oracles agree");
    }

    #[test]
    fn all_three_oracles_agree_on_random_data() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        for trial in 0..20 {
            let rows: Vec<Vec<usize>> = (0..40)
                .map(|_| (0..12).filter(|_| rng.gen_bool(0.2)).collect())
                .collect();
            let m = CsrMatrix::from_rows_of_indices(40, 12, &rows).unwrap();
            let sig = same_groups(&m);
            assert_eq!(
                sig,
                same_groups_via_indicator(&m, &m.transpose()),
                "trial {trial}"
            );
            assert_eq!(sig, same_groups_naive(&m), "trial {trial}");
        }
    }

    #[test]
    fn similar_pairs_at_threshold_one() {
        // Rows: {0,1}, {0,1,2}, {0,1}, {5} — distances:
        // (0,1)=1, (0,2)=0, (1,2)=1, (0,3)=3 …
        let m = CsrMatrix::from_rows_of_indices(
            4,
            6,
            &[vec![0, 1], vec![0, 1, 2], vec![0, 1], vec![5]],
        )
        .unwrap();
        let t = m.transpose();
        let pairs = similar_pairs(&m, &t, &SimilarityConfig::default());
        assert_eq!(
            pairs,
            vec![SimilarPair::new(0, 1, 1), SimilarPair::new(1, 2, 1)],
            "identical pair (0,2) excluded; distant pairs excluded"
        );
    }

    #[test]
    fn similar_pairs_larger_threshold() {
        let m = CsrMatrix::from_rows_of_indices(
            3,
            8,
            &[vec![0, 1, 2, 3], vec![0, 1, 2, 4], vec![0, 1]],
        )
        .unwrap();
        let t = m.transpose();
        let cfg = SimilarityConfig {
            threshold: 2,
            ..SimilarityConfig::default()
        };
        let pairs = similar_pairs(&m, &t, &cfg);
        // (0,1): d=2 ✓; (0,2): d=2 ✓; (1,2): d=2 ✓.
        assert_eq!(pairs.len(), 3);
        assert!(pairs.iter().all(|p| p.distance == 2));
    }

    #[test]
    fn disjoint_supplement_finds_gap_pairs() {
        // Rows: {} and {3}: distance 1 but g=0 — invisible to the
        // co-occurrence stream.
        let m = CsrMatrix::from_rows_of_indices(3, 5, &[vec![], vec![3], vec![0, 1, 2]]).unwrap();
        let t = m.transpose();
        let without = similar_pairs(&m, &t, &SimilarityConfig::default());
        assert!(without.is_empty(), "paper semantics: g ≥ 1 only");
        let with = similar_pairs(
            &m,
            &t,
            &SimilarityConfig {
                include_disjoint: true,
                ..SimilarityConfig::default()
            },
        );
        assert_eq!(with, vec![SimilarPair::new(0, 1, 1)]);
    }

    #[test]
    fn max_pairs_keeps_closest() {
        let m = CsrMatrix::from_rows_of_indices(
            4,
            8,
            &[vec![0, 1, 2], vec![0, 1, 2, 3], vec![0, 1], vec![0, 1, 2]],
        )
        .unwrap();
        let t = m.transpose();
        let cfg = SimilarityConfig {
            threshold: 3,
            max_pairs: 2,
            ..SimilarityConfig::default()
        };
        let pairs = similar_pairs(&m, &t, &cfg);
        assert_eq!(pairs.len(), 2);
        // distance-0 pair (0,3) excluded; the two distance-1 pairs win.
        assert!(pairs.iter().all(|p| p.distance == 1));
    }

    #[test]
    fn parallel_matches_sequential() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let rows: Vec<Vec<usize>> = (0..200)
            .map(|_| (0..30).filter(|_| rng.gen_bool(0.15)).collect())
            .collect();
        let m = CsrMatrix::from_rows_of_indices(200, 30, &rows).unwrap();
        let t = m.transpose();
        for threshold in [1, 2, 4] {
            let cfg = SimilarityConfig {
                threshold,
                include_disjoint: true,
                ..SimilarityConfig::default()
            };
            let seq = similar_pairs(&m, &t, &cfg);
            for threads in [2, 3, 8] {
                assert_eq!(
                    similar_pairs_parallel(&m, &t, &cfg, threads),
                    seq,
                    "threshold {threshold}, threads {threads}"
                );
            }
        }
    }

    #[test]
    fn bucketed_supplement_matches_naive() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(71);
        for trial in 0..10 {
            // Lots of empty and tiny rows so the supplement actually fires,
            // plus duplicate rows (identical supports are never disjoint
            // unless empty, and empty duplicates must all pair up).
            let mut rows: Vec<Vec<usize>> = (0..80)
                .map(|_| {
                    let width = rng.gen_range(0..4usize);
                    (0..30).filter(|_| rng.gen_bool(0.05)).take(width).collect()
                })
                .collect();
            rows.push(Vec::new());
            rows.push(Vec::new());
            rows.push(vec![7]);
            rows.push(vec![7]);
            let n = rows.len();
            let m = CsrMatrix::from_rows_of_indices(n, 30, &rows).unwrap();
            for t in [1, 2, 4] {
                let mut expected = disjoint_supplement_naive(&m, t);
                expected.sort();
                for threads in [1, 2, 4, 8] {
                    let mut got = disjoint_supplement(&m, t, threads);
                    got.sort();
                    assert_eq!(got, expected, "trial {trial}, t={t}, threads={threads}");
                }
            }
        }
    }

    #[test]
    fn supplement_threshold_clamps_to_the_column_count() {
        // Disjoint rows differ in at most `cols` positions, so a larger
        // threshold must give the column-sized result.
        let rows = [
            vec![],
            vec![0],
            vec![1, 2],
            vec![0, 3],
            vec![4, 5, 6, 7],
            vec![],
        ];
        let m = CsrMatrix::from_rows_of_indices(6, 8, &rows).unwrap();
        let mut expected = disjoint_supplement_naive(&m, 8);
        expected.sort();
        for threads in [1, 4] {
            let mut got = disjoint_supplement(&m, usize::MAX, threads);
            got.sort();
            assert_eq!(got, expected, "threads={threads}");
        }
        let cfg = |threshold| SimilarityConfig {
            threshold,
            include_disjoint: true,
            ..SimilarityConfig::default()
        };
        let tr = m.transpose();
        let at = |t| similar_pairs(&m, &tr, &cfg(t));
        assert_eq!(at(usize::MAX), at(8));
    }

    #[test]
    fn bucketed_supplement_degenerate_matrices() {
        // Empty matrix: no rows at all.
        let empty = CsrMatrix::zeros(0, 10);
        for threads in [1, 4] {
            assert!(disjoint_supplement(&empty, 3, threads).is_empty());
        }
        // All-empty rows: every pair qualifies at distance 0 + 0 = 0,
        // which the threshold window `1..=t` excludes — no pairs.
        let blank = CsrMatrix::zeros(5, 10);
        for threads in [1, 4] {
            assert!(disjoint_supplement(&blank, 3, threads).is_empty());
            assert_eq!(
                disjoint_supplement(&blank, 3, threads),
                disjoint_supplement_naive(&blank, 3)
            );
        }
    }

    #[test]
    #[should_panic(expected = "transpose shape mismatch")]
    fn sequential_path_rejects_wrong_transpose() {
        let m = paper_ruam();
        let not_t = CsrMatrix::zeros(5, 4);
        similar_pairs(&m, &not_t, &SimilarityConfig::default());
    }

    #[test]
    #[should_panic(expected = "transpose shape mismatch")]
    fn parallel_path_rejects_wrong_transpose_identically() {
        // Regression: the old hand-rolled parallel loop skipped the shape
        // assertions entirely. Both paths must panic with the same message.
        let m = paper_ruam();
        let not_t = CsrMatrix::zeros(5, 4);
        similar_pairs_parallel(&m, &not_t, &SimilarityConfig::default(), 4);
    }

    #[test]
    fn parallel_same_groups_match_sequential() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(44);
        let rows: Vec<Vec<usize>> = (0..120)
            .map(|_| (0..10).filter(|_| rng.gen_bool(0.2)).collect())
            .collect();
        let m = CsrMatrix::from_rows_of_indices(120, 10, &rows).unwrap();
        let seq = same_groups(&m);
        for threads in [1, 2, 3, 8] {
            assert_eq!(same_groups_with(&m, threads), seq, "threads={threads}");
        }
    }

    /// The probe's work at one thread, pinned on the paper generator (one
    /// perturbed member per planted cluster) and on both sides of a small
    /// ing-like org: rows read from the prefix columns' lists, distinct
    /// in-band candidates `j > i` verified, and pairs emitted, each pair
    /// once.
    #[test]
    fn probe_work_counts_are_pinned() {
        use rolediet_synth::{generate_matrix, MatrixGenConfig};

        let counts = |m: &CsrMatrix| {
            let mut tally = ProbeTally::default();
            let cfg = SimilarityConfig::default();
            let pairs = similar_pairs_counted(m, &m.transpose(), &cfg, 1, &mut tally);
            assert_eq!(tally.emitted, pairs.len() as u64);
            (tally.gathered, tally.verified, tally.emitted)
        };
        let paper = generate_matrix(MatrixGenConfig {
            perturbed_per_cluster: 1,
            ..MatrixGenConfig::paper(600, 120, 41)
        })
        .sparse();
        let org = rolediet_synth::profiles::generate_ing_like(0.05, 7).graph;
        let got = [
            counts(&paper),
            counts(&org.ruam_sparse()),
            counts(&org.rpam_sparse()),
        ];
        assert_eq!(
            got,
            [(29_981, 4_786, 101), (14_853, 683, 151), (7_013, 332, 127)]
        );
    }

    #[test]
    fn similar_pairs_match_brute_force() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let rows: Vec<Vec<usize>> = (0..60)
            .map(|_| (0..16).filter(|_| rng.gen_bool(0.25)).collect())
            .collect();
        let m = CsrMatrix::from_rows_of_indices(60, 16, &rows).unwrap();
        let tr = m.transpose();
        let cfg = SimilarityConfig {
            threshold: 3,
            include_disjoint: true,
            ..SimilarityConfig::default()
        };
        let fast: std::collections::BTreeSet<(usize, usize, usize)> = similar_pairs(&m, &tr, &cfg)
            .into_iter()
            .map(|p| (p.a, p.b, p.distance))
            .collect();
        let mut brute = std::collections::BTreeSet::new();
        for i in 0..60 {
            for j in (i + 1)..60 {
                let d = m.row_hamming(i, j);
                if (1..=3).contains(&d) {
                    brute.insert((i, j, d));
                }
            }
        }
        assert_eq!(fast, brute);
    }
}
