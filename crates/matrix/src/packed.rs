//! Batched bounded-distance engine for the O(n²) T4/T5 distance plane.
//!
//! Every exact duplicate/similarity detector ultimately asks the same
//! question n² times: *is the Hamming distance between rows `i` and `j`
//! at most `bound`?* — with `bound = 0` for T4 and `bound = t` for T5.
//! [`PackedRows`] answers it without ever walking a full row pair when
//! the answer is knowable sooner:
//!
//! 1. **Norm-band pruning.** `Hamming(i, j) ≥ |‖rᵢ‖ − ‖rⱼ‖|` (dropping a
//!    set bit costs one mismatch minimum), so any pair whose precomputed
//!    norms differ by more than `bound` is rejected in O(1) without
//!    touching row data. Rows are also counting-sorted into *norm
//!    buckets*, so the pair walk enumerates only candidates inside the
//!    band `[‖rᵢ‖ − bound, ‖rᵢ‖ + bound]` instead of scanning all n.
//! 2. **Early-exit kernels.** Within the band, the distance loop aborts
//!    the moment the running mismatch count exceeds `bound`: the packed
//!    representation XOR-popcounts contiguous `u64` word blocks in
//!    eight-word lanes (checked once per block — see
//!    [`xor_popcount_within`]), the sparse representation merge-walks two sorted
//!    index lists and counts mismatches as it goes.
//!
//! The representation is **density-keyed** at construction: rows pack
//! into contiguous word blocks when a dense row costs no more to scan
//! than the average sparse merge (`words ≤ max(8, 2·nnz/rows)`), and fall
//! back to an owned CSR copy for extremely sparse data — at real-org
//! scale (50 300 × 89 900, density ≈ 1e-4) packing would waste ~565 MB
//! and thousands of zero words per pair, while the sorted-merge touches
//! only the few set bits.
//!
//! The plane has one pair enumeration,
//! [`for_each_pair_in`](PackedRows::for_each_pair_in): row `i` of a row
//! range walks its band's buckets in turn and reports each `j > i`
//! within the bound, so every pair is measured once, from its smaller
//! row. Callers fold it per row range on the shared [`parallel`]
//! substrate and join the ranges in order;
//! [`pairs_within`](PackedRows::pairs_within) is that fold with a sort,
//! bit-identical at every thread count.

use crate::bitvec::words_for;
use crate::parallel;
use crate::traits::RowMatrix;

/// Row storage behind the engine: dense packed words or an owned sparse
/// index copy, chosen by density at build time.
#[derive(Debug, Clone)]
enum Repr {
    /// Rows packed into contiguous `u64` blocks of `words_per_row` words
    /// each (row `i` occupies `words[i·wpr .. (i+1)·wpr]`).
    Packed {
        /// All rows' words, row-major, tail bits zero.
        words: Vec<u64>,
        /// Words per row, `words_for(cols)`.
        words_per_row: usize,
    },
    /// Owned sparse copy: row `i`'s set columns are
    /// `indices[starts[i]..starts[i + 1]]`, ascending.
    Sparse {
        /// Per-row offsets into `indices`, `rows + 1` entries.
        starts: Vec<usize>,
        /// Column-index storage, row after row.
        indices: Vec<u32>,
    },
}

/// A batch of binary rows prepared for bounded Hamming-distance queries:
/// norms precomputed, rows counting-sorted into norm buckets, and row
/// data either packed into cache-friendly `u64` word blocks or kept as a
/// contiguous sparse index copy (density-keyed — see the
/// [module docs](self)).
///
/// Built once per matrix (in parallel, deterministically) and then
/// queried many times; the pair walk is bit-identical at every thread
/// count.
///
/// # Examples
///
/// ```
/// use rolediet_matrix::{CsrMatrix, PackedRows};
///
/// let m = CsrMatrix::from_rows_of_indices(3, 4, &[
///     vec![0, 1], vec![0, 1, 2], vec![3],
/// ]).unwrap();
/// let packed = PackedRows::from_matrix(&m, 1);
/// assert_eq!(packed.bounded_hamming(0, 1, 1), Some(1));
/// assert_eq!(packed.bounded_hamming(0, 2, 1), None); // distance 3 > 1
/// assert_eq!(packed.pairs_within(1, 2), vec![(0, 1, 1)]);
/// ```
#[derive(Debug, Clone)]
pub struct PackedRows {
    rows: usize,
    cols: usize,
    /// Per-row popcounts (norms); `cols` fits `u32` by the matrix types'
    /// construction, and norms never exceed `cols`.
    norms: Vec<u32>,
    repr: Repr,
    /// Norm-bucket offsets: rows with norm `b` are
    /// `bucket_members[bucket_indptr[b]..bucket_indptr[b + 1]]`,
    /// ascending by row index. Length `max_norm + 2`.
    bucket_indptr: Vec<usize>,
    /// Row indices counting-sorted by norm (stable, so ascending within
    /// each bucket).
    bucket_members: Vec<u32>,
}

impl PackedRows {
    /// Builds the engine from any [`RowMatrix`], choosing the packed or
    /// sparse representation by density (see the [module docs](self)).
    /// The build itself runs on `threads` workers and is deterministic.
    pub fn from_matrix<M: RowMatrix + Sync + ?Sized>(m: &M, threads: usize) -> Self {
        let rows = m.rows();
        let avg2 = (2 * m.nnz()).checked_div(rows).unwrap_or(0);
        let pack = words_for(m.cols()) <= avg2.max(8);
        if pack {
            Self::packed_from_matrix(m, threads)
        } else {
            Self::sparse_from_matrix(m, threads)
        }
    }

    /// Builds the engine with the packed (dense word-block)
    /// representation regardless of density — the forcing constructor;
    /// prefer [`from_matrix`](Self::from_matrix).
    pub fn packed_from_matrix<M: RowMatrix + Sync + ?Sized>(m: &M, threads: usize) -> Self {
        let (rows, cols) = (m.rows(), m.cols());
        let norms = Self::build_norms(m, threads);
        let words_per_row = words_for(cols);
        let mut words = vec![0u64; rows * words_per_row];
        let offsets: Vec<usize> = (0..=rows).map(|i| i * words_per_row).collect();
        parallel::par_fill_by_offsets(&mut words, &offsets, threads, |range, chunk| {
            for i in range.clone() {
                let base = (i - range.start) * words_per_row;
                for idx in m.row_indices(i) {
                    chunk[base + idx / 64] |= 1u64 << (idx % 64);
                }
            }
        });
        Self::with_repr(
            rows,
            cols,
            norms,
            Repr::Packed {
                words,
                words_per_row,
            },
        )
    }

    /// Builds the engine with the sparse (owned CSR copy)
    /// representation regardless of density — the forcing constructor;
    /// prefer [`from_matrix`](Self::from_matrix).
    pub fn sparse_from_matrix<M: RowMatrix + Sync + ?Sized>(m: &M, threads: usize) -> Self {
        let (rows, cols) = (m.rows(), m.cols());
        let norms = Self::build_norms(m, threads);
        let mut indptr = Vec::with_capacity(rows + 1);
        let mut acc = 0usize;
        indptr.push(0);
        for &nm in &norms {
            acc += nm as usize;
            indptr.push(acc);
        }
        let mut indices = vec![0u32; acc];
        parallel::par_fill_by_offsets(&mut indices, &indptr, threads, |range, chunk| {
            let mut k = 0usize;
            for i in range {
                for idx in m.row_indices(i) {
                    chunk[k] = idx as u32;
                    k += 1;
                }
            }
        });
        Self::with_repr(
            rows,
            cols,
            norms,
            Repr::Sparse {
                starts: indptr,
                indices,
            },
        )
    }

    fn build_norms<M: RowMatrix + Sync + ?Sized>(m: &M, threads: usize) -> Vec<u32> {
        parallel::par_map_rows(m.rows(), threads, |range| {
            range.map(|i| m.row_norm(i) as u32).collect()
        })
    }

    /// Finishes construction: counting-sorts rows into norm buckets
    /// (stable, so members ascend within each bucket).
    fn with_repr(rows: usize, cols: usize, norms: Vec<u32>, repr: Repr) -> Self {
        let max_norm = norms.iter().copied().max().unwrap_or(0) as usize;
        let mut bucket_indptr = vec![0usize; max_norm + 2];
        for &nm in &norms {
            bucket_indptr[nm as usize + 1] += 1;
        }
        for b in 0..=max_norm {
            bucket_indptr[b + 1] += bucket_indptr[b];
        }
        let mut cursor = bucket_indptr.clone();
        let mut bucket_members = vec![0u32; rows];
        for (i, &nm) in norms.iter().enumerate() {
            bucket_members[cursor[nm as usize]] = i as u32;
            cursor[nm as usize] += 1;
        }
        PackedRows {
            rows,
            cols,
            norms,
            repr,
            bucket_indptr,
            bucket_members,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Norm (popcount) of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows()`.
    pub fn row_norm(&self, i: usize) -> usize {
        self.norms[i] as usize
    }

    /// The largest row norm (0 for an empty batch).
    pub fn max_norm(&self) -> usize {
        self.bucket_indptr.len() - 2
    }

    /// Row indices with exactly `norm` set bits, ascending (empty when
    /// `norm` exceeds [`max_norm`](Self::max_norm)).
    pub fn rows_with_norm(&self, norm: usize) -> &[u32] {
        if norm > self.max_norm() {
            return &[];
        }
        &self.bucket_members[self.bucket_indptr[norm]..self.bucket_indptr[norm + 1]]
    }

    /// `true` when the density key chose the packed word-block
    /// representation, `false` for the sparse fallback.
    pub fn is_packed(&self) -> bool {
        matches!(self.repr, Repr::Packed { .. })
    }

    /// [`bounded_hamming`](Self::bounded_hamming) across two engines
    /// over the same column space: `Some(Hamming)` when row `i` of
    /// `self` and row `j` of `other` are within `bound`, `None`
    /// otherwise. The norm-band rejection and the early-exit kernels
    /// work exactly as in the single-engine case; mixed representations
    /// fall back to a popcount-through probe (cold — the sharded
    /// builder derives every shard's representation from one global
    /// density key, so cross-shard queries stay same-representation).
    ///
    /// # Panics
    ///
    /// Panics if the column counts differ or either index is out of
    /// range.
    pub fn bounded_hamming_cross(
        &self,
        i: usize,
        other: &PackedRows,
        j: usize,
        bound: usize,
    ) -> Option<usize> {
        assert_eq!(
            self.cols, other.cols,
            "cross-engine query over mismatched column spaces"
        );
        if (self.norms[i].abs_diff(other.norms[j])) as usize > bound {
            return None;
        }
        match (&self.repr, &other.repr) {
            (
                Repr::Packed {
                    words: wa,
                    words_per_row: ra,
                },
                Repr::Packed {
                    words: wb,
                    words_per_row: rb,
                },
            ) => xor_popcount_within(&wa[i * ra..(i + 1) * ra], &wb[j * rb..(j + 1) * rb], bound),
            (
                Repr::Sparse {
                    starts: sa,
                    indices: ia,
                    ..
                },
                Repr::Sparse {
                    starts: sb,
                    indices: ib,
                    ..
                },
            ) => sparse_within(
                &ia[sa[i]..sa[i] + self.norms[i] as usize],
                &ib[sb[j]..sb[j] + other.norms[j] as usize],
                bound,
            ),
            (
                Repr::Packed {
                    words,
                    words_per_row,
                },
                Repr::Sparse {
                    starts, indices, ..
                },
            ) => mixed_within(
                &words[i * words_per_row..(i + 1) * words_per_row],
                self.norms[i] as usize,
                &indices[starts[j]..starts[j] + other.norms[j] as usize],
                bound,
            ),
            (
                Repr::Sparse {
                    starts, indices, ..
                },
                Repr::Packed {
                    words,
                    words_per_row,
                },
            ) => mixed_within(
                &words[j * words_per_row..(j + 1) * words_per_row],
                other.norms[j] as usize,
                &indices[starts[i]..starts[i] + self.norms[i] as usize],
                bound,
            ),
        }
    }

    /// `Some(Hamming(i, j))` when the distance is at most `bound`,
    /// `None` otherwise — the engine's core kernel. Pairs outside the
    /// norm band `|‖rᵢ‖ − ‖rⱼ‖| > bound` are rejected without touching
    /// row data; inside the band the distance loop early-exits as soon
    /// as the running count exceeds `bound`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn bounded_hamming(&self, i: usize, j: usize, bound: usize) -> Option<usize> {
        if (self.norms[i].abs_diff(self.norms[j])) as usize > bound {
            return None;
        }
        self.distance_within(i, j, bound)
    }

    /// Exact `Hamming(i, j)` with no cutoff, on the unbounded fast
    /// kernels ([`xor_popcount`] / the branchless sorted merge) — no
    /// norm-band check and no per-step bound tests, which matters when
    /// the rows are short sparse lists and the bound bookkeeping would
    /// rival the merge itself. This is the adapter entry point for
    /// distance consumers that need a total metric —
    /// `cluster::PackedPointSet` routes HNSW evaluations through it.
    /// Agrees with [`bounded_hamming`](Self::bounded_hamming) at
    /// `bound = cols()` (pinned by the `hamming_is_the_unbounded_kernel`
    /// test).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn hamming(&self, i: usize, j: usize) -> usize {
        match &self.repr {
            Repr::Packed {
                words,
                words_per_row,
            } => {
                let a = &words[i * words_per_row..(i + 1) * words_per_row];
                let b = &words[j * words_per_row..(j + 1) * words_per_row];
                xor_popcount(a, b)
            }
            Repr::Sparse {
                starts, indices, ..
            } => {
                let a = &indices[starts[i]..starts[i] + self.norms[i] as usize];
                let b = &indices[starts[j]..starts[j] + self.norms[j] as usize];
                sparse_mismatches(a, b)
            }
        }
    }

    /// The bounded kernel *without* the norm-band check — only the
    /// early-exit distance loop. Same result as
    /// [`bounded_hamming`](Self::bounded_hamming); kept separate so the
    /// pair walk, which enumerates only in-band candidates, skips the
    /// redundant check.
    fn distance_within(&self, i: usize, j: usize, bound: usize) -> Option<usize> {
        match &self.repr {
            Repr::Packed {
                words,
                words_per_row,
            } => {
                let a = &words[i * words_per_row..(i + 1) * words_per_row];
                let b = &words[j * words_per_row..(j + 1) * words_per_row];
                xor_popcount_within(a, b, bound)
            }
            Repr::Sparse {
                starts, indices, ..
            } => {
                let a = &indices[starts[i]..starts[i] + self.norms[i] as usize];
                let b = &indices[starts[j]..starts[j] + self.norms[j] as usize];
                sparse_within(a, b, bound)
            }
        }
    }

    /// Visits every pair within `bound` whose first row lies in `range`:
    /// `f(i, j, d)` for each `i` in `range` and `j > i` with
    /// `d = Hamming(i, j) ≤ bound`. Row `i` walks the buckets of its norm
    /// band `[‖rᵢ‖ − bound, ‖rᵢ‖ + bound]` in ascending norm, each from
    /// its first member above `i`, so `j` ascends within a bucket but not
    /// across buckets. Every pair is visited once, from its smaller row.
    ///
    /// This is the engine's one pair enumeration: callers split `0..rows`
    /// into ranges (see [`parallel::split_ranges`]) and fold each range on
    /// its own worker, as [`pairs_within`](Self::pairs_within) does. A
    /// `bound` above the column count is clamped to it (no Hamming
    /// distance exceeds it), so even `usize::MAX` is exact.
    ///
    /// # Panics
    ///
    /// Panics if `range` reaches past `rows()`.
    pub fn for_each_pair_in(
        &self,
        range: std::ops::Range<usize>,
        bound: usize,
        mut f: impl FnMut(usize, usize, usize),
    ) {
        let bound = bound.min(self.cols);
        for i in range {
            let norm = self.norms[i] as usize;
            let hi = (norm + bound).min(self.max_norm());
            for b in norm.saturating_sub(bound)..=hi {
                let members = self.rows_with_norm(b);
                let above = members.partition_point(|&j| j as usize <= i);
                for &j in &members[above..] {
                    let j = j as usize;
                    if let Some(d) = self.distance_within(i, j, bound) {
                        f(i, j, d);
                    }
                }
            }
        }
    }

    /// Every unordered pair `(i, j)`, `i < j`, with
    /// `Hamming(i, j) ≤ bound`, plus the distance — ascending by `i`
    /// then `j` (the order of the sequential double loop). Each of
    /// `threads` workers collects its row range through
    /// [`for_each_pair_in`](Self::for_each_pair_in) and sorts it; the
    /// ranges join in order, so the output is bit-identical at every
    /// thread count. `bound` is clamped to the column count.
    pub fn pairs_within(&self, bound: usize, threads: usize) -> Vec<(usize, usize, usize)> {
        parallel::par_map_rows(self.rows, threads, |range| {
            let mut out = Vec::new();
            self.for_each_pair_in(range, bound, |i, j, d| out.push((i, j, d)));
            out.sort_unstable();
            out
        })
    }
}

/// Early-exit XOR-popcount over packed words — the live dense kernel.
///
/// Eight-word lanes at a time: each block sums eight independent
/// XOR-popcounts into a lane accumulator before the running distance is
/// checked once, giving LLVM a straight-line, bounds-check-free
/// reduction it auto-vectorizes on stable (no `unsafe`). Returns `None`
/// as soon as the running distance exceeds `bound`, `Some(distance)`
/// otherwise. Both slices must be the same length (the callers' rows
/// share one `words_per_row`).
pub fn xor_popcount_within(a: &[u64], b: &[u64], bound: usize) -> Option<usize> {
    let mut d = 0usize;
    for (ca, cb) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        let mut lanes = 0u32;
        for l in 0..8 {
            lanes += (ca[l] ^ cb[l]).count_ones();
        }
        d += lanes as usize;
        if d > bound {
            return None;
        }
    }
    let tail = a.len() - a.len() % 8;
    for (x, y) in a[tail..].iter().zip(&b[tail..]) {
        d += (x ^ y).count_ones() as usize;
    }
    if d > bound {
        None
    } else {
        Some(d)
    }
}

/// Unbounded XOR-popcount over packed words: the straight reduction
/// with no running-distance checks, so LLVM vectorizes the whole loop.
/// The exact-total counterpart of [`xor_popcount_within`].
pub fn xor_popcount(a: &[u64], b: &[u64]) -> usize {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x ^ y).count_ones() as usize)
        .sum()
}

/// Unbounded sorted-merge mismatch count over two ascending index
/// lists, via `Hamming = |a| + |b| − 2·|a ∩ b|`. The intersection walk
/// is branchless in the body (the advance-and-count updates compile to
/// flag-setting arithmetic, not compare-and-jump), which beats the
/// three-way-branching bounded merge ([`sparse_within`]) on the short
/// unpredictable lists RBAC rows produce.
fn sparse_mismatches(a: &[u32], b: &[u32]) -> usize {
    let (mut x, mut y, mut inter) = (0usize, 0usize, 0usize);
    while x < a.len() && y < b.len() {
        let (av, bv) = (a[x], b[y]);
        inter += (av == bv) as usize;
        x += (av <= bv) as usize;
        y += (av >= bv) as usize;
    }
    a.len() + b.len() - 2 * inter
}

/// Bounded Hamming distance between a packed row (`words`, popcount
/// `packed_norm`) and a sparse ascending index list, via the identity
/// `Hamming = ‖a‖ + ‖b‖ − 2·g` with the dot product `g` counted by
/// probing each sparse index in the packed words. Cold path — only
/// mixed-representation cross-engine queries reach it (the sharded
/// builder derives every shard's representation from one global density
/// key).
fn mixed_within(words: &[u64], packed_norm: usize, indices: &[u32], bound: usize) -> Option<usize> {
    let mut dot = 0usize;
    for &c in indices {
        let w = c as usize / 64;
        if w < words.len() && (words[w] >> (c % 64)) & 1 == 1 {
            dot += 1;
        }
    }
    let d = packed_norm + indices.len() - 2 * dot;
    if d > bound {
        None
    } else {
        Some(d)
    }
}

/// Early-exit sorted-merge mismatch count over two ascending index
/// lists: every index present in exactly one list is one unit of
/// distance, and the walk aborts as soon as the count exceeds `bound`.
fn sparse_within(a: &[u32], b: &[u32], bound: usize) -> Option<usize> {
    let mut d = 0usize;
    let (mut x, mut y) = (0usize, 0usize);
    while x < a.len() && y < b.len() {
        match a[x].cmp(&b[y]) {
            std::cmp::Ordering::Equal => {
                x += 1;
                y += 1;
            }
            std::cmp::Ordering::Less => {
                d += 1;
                if d > bound {
                    return None;
                }
                x += 1;
            }
            std::cmp::Ordering::Greater => {
                d += 1;
                if d > bound {
                    return None;
                }
                y += 1;
            }
        }
    }
    d += (a.len() - x) + (b.len() - y);
    if d > bound {
        None
    } else {
        Some(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::CsrMatrix;

    /// 7 rows over 70 columns (not a multiple of 64): an empty row, a
    /// duplicate pair, a full-ish row, and near-duplicates at distance 1.
    fn sample() -> CsrMatrix {
        CsrMatrix::from_rows_of_indices(
            7,
            70,
            &[
                vec![0, 1, 65],
                vec![],
                vec![0, 1, 65],
                vec![0, 1, 65, 69],
                (0..70).step_by(2).collect(),
                vec![7],
                vec![],
            ],
        )
        .unwrap()
    }

    fn both_reprs(m: &CsrMatrix) -> Vec<PackedRows> {
        vec![
            PackedRows::packed_from_matrix(m, 3),
            PackedRows::sparse_from_matrix(m, 3),
        ]
    }

    #[test]
    fn bounded_hamming_agrees_with_row_hamming() {
        let m = sample();
        for p in both_reprs(&m) {
            for i in 0..m.n_rows() {
                for j in 0..m.n_rows() {
                    let d = m.row_hamming(i, j);
                    for bound in 0..6 {
                        let got = p.bounded_hamming(i, j, bound);
                        let expected = (d <= bound).then_some(d);
                        assert_eq!(got, expected, "i={i} j={j} bound={bound}");
                    }
                }
            }
        }
    }

    #[test]
    fn norms_buckets_and_accessors() {
        let m = sample();
        for p in both_reprs(&m) {
            assert_eq!(p.rows(), 7);
            assert_eq!(p.cols(), 70);
            for i in 0..7 {
                assert_eq!(p.row_norm(i), m.row_norm(i));
            }
            assert_eq!(p.max_norm(), 35);
            assert_eq!(p.rows_with_norm(0), &[1, 6]);
            assert_eq!(p.rows_with_norm(3), &[0, 2]);
            assert_eq!(p.rows_with_norm(35), &[4]);
            assert_eq!(p.rows_with_norm(99), &[] as &[u32]);
        }
    }

    #[test]
    fn density_key_picks_packed_for_dense_and_sparse_for_wide() {
        let dense =
            CsrMatrix::from_rows_of_indices(3, 40, &[vec![0, 5], vec![1], vec![2, 3]]).unwrap();
        assert!(PackedRows::from_matrix(&dense, 1).is_packed());
        // 3 rows over 10k columns with 2 set bits each: packing would
        // cost 157 words per row for nothing.
        let wide =
            CsrMatrix::from_rows_of_indices(3, 10_000, &[vec![0, 9000], vec![17], vec![5, 6]])
                .unwrap();
        assert!(!PackedRows::from_matrix(&wide, 1).is_packed());
    }

    #[test]
    fn pairs_within_match_brute_force_in_order() {
        let m = sample();
        for bound in [0usize, 1, 3, 70] {
            let mut brute = Vec::new();
            for i in 0..m.n_rows() {
                for j in (i + 1)..m.n_rows() {
                    let d = m.row_hamming(i, j);
                    if d <= bound {
                        brute.push((i, j, d));
                    }
                }
            }
            for p in both_reprs(&m) {
                for threads in [1usize, 2, 4, 8] {
                    assert_eq!(p.pairs_within(bound, threads), brute, "bound={bound}");
                }
            }
        }
    }

    #[test]
    fn bounds_above_the_column_count_clamp_to_it() {
        let m = sample();
        for p in both_reprs(&m) {
            for threads in [1usize, 4] {
                let exact = p.pairs_within(70, threads);
                assert_eq!(exact.len(), 21, "every pair is within the width");
                assert_eq!(p.pairs_within(usize::MAX, threads), exact);
                let sharded = crate::PackedShards::new(&m, 1, threads);
                assert!(sharded.n_shards() > 1);
                assert_eq!(sharded.pairs_within(usize::MAX), exact);
            }
        }
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        let empty = CsrMatrix::zeros(0, 5);
        for p in both_reprs(&empty) {
            assert_eq!(p.rows(), 0);
            assert!(p.pairs_within(1, 4).is_empty());
        }
        // Zero columns: every row is empty and identical.
        let zero_cols = CsrMatrix::zeros(3, 0);
        for p in both_reprs(&zero_cols) {
            assert_eq!(p.bounded_hamming(0, 2, 0), Some(0));
            assert_eq!(
                p.pairs_within(0, 2),
                vec![(0, 1, 0), (0, 2, 0), (1, 2, 0)],
                "packed={}",
                p.is_packed()
            );
        }
    }

    #[test]
    fn auto_repr_matches_forced_reprs() {
        let m = sample();
        let auto = PackedRows::from_matrix(&m, 2);
        let expected = PackedRows::packed_from_matrix(&m, 1).pairs_within(2, 1);
        assert_eq!(auto.pairs_within(2, 3), expected);
    }

    #[test]
    fn hamming_is_the_unbounded_kernel() {
        let m = sample();
        for p in both_reprs(&m) {
            for i in 0..m.rows() {
                for j in 0..m.rows() {
                    assert_eq!(
                        p.hamming(i, j),
                        m.row_hamming(i, j),
                        "i={i} j={j} packed={}",
                        p.is_packed()
                    );
                }
            }
        }
        // Zero columns: all rows identical at distance 0.
        let zero_cols = CsrMatrix::zeros(3, 0);
        for p in both_reprs(&zero_cols) {
            assert_eq!(p.hamming(0, 2), 0);
        }
    }

    /// The checked-in `.cargo/config.toml` compiles x86-64 builds with
    /// `+popcnt`, so `count_ones` in the packed kernels is one
    /// instruction. Ignored by default: a `RUSTFLAGS` environment
    /// variable replaces the checked-in flags, and such a build is still
    /// correct, only slower. `scripts/verify.sh` runs it with
    /// `--ignored`, so a lost or overridden config fails the gate there.
    #[cfg(target_arch = "x86_64")]
    #[test]
    #[ignore = "checks the build flags, not the code; run with --ignored"]
    fn builds_use_hardware_popcount() {
        if !cfg!(target_feature = "popcnt") {
            panic!(
                "built without +popcnt: is .cargo/config.toml missing or overridden by RUSTFLAGS?"
            );
        }
    }

    #[test]
    #[should_panic]
    fn bounded_hamming_rejects_out_of_range() {
        let m = sample();
        PackedRows::from_matrix(&m, 1).bounded_hamming(0, 99, 1);
    }

    /// The 8-lane kernel and the scalar distance agree on every pair and
    /// bound — including widths that exercise the 8-word blocks and the
    /// scalar tail.
    #[test]
    fn lane_kernels_agree_with_scalar_distance() {
        for cols in [1usize, 63, 64, 130, 257, 512, 700] {
            let m = CsrMatrix::from_rows_of_indices(
                4,
                cols,
                &[
                    (0..cols).step_by(3).collect(),
                    (0..cols).step_by(3).map(|c| c.min(cols - 1)).collect(),
                    vec![],
                    (0..cols).step_by(7).collect(),
                ],
            )
            .unwrap();
            let p = PackedRows::packed_from_matrix(&m, 2);
            let Repr::Packed {
                words,
                words_per_row: w,
            } = &p.repr
            else {
                panic!("forced packed repr expected");
            };
            for i in 0..4 {
                for j in 0..4 {
                    let a = &words[i * w..(i + 1) * w];
                    let b = &words[j * w..(j + 1) * w];
                    let d = m.row_hamming(i, j);
                    for bound in [0usize, 1, 2, d.saturating_sub(1), d, d + 1, cols] {
                        let expected = (d <= bound).then_some(d);
                        assert_eq!(xor_popcount_within(a, b, bound), expected);
                    }
                }
            }
        }
    }

    /// Cross-engine bounded queries agree with the scalar distance for
    /// every representation pairing, including the mixed fallback.
    #[test]
    fn bounded_hamming_cross_agrees_for_all_repr_pairs() {
        let m = sample();
        let reprs = both_reprs(&m);
        for a in &reprs {
            for b in &reprs {
                for i in 0..m.n_rows() {
                    for j in 0..m.n_rows() {
                        let d = m.row_hamming(i, j);
                        for bound in [0usize, 1, 3, 40, 100] {
                            assert_eq!(
                                a.bounded_hamming_cross(i, b, j, bound),
                                (d <= bound).then_some(d),
                                "i={i} j={j} bound={bound} a_packed={} b_packed={}",
                                a.is_packed(),
                                b.is_packed()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "mismatched column spaces")]
    fn bounded_hamming_cross_rejects_width_mismatch() {
        let a = PackedRows::from_matrix(&sample(), 1);
        let narrow = CsrMatrix::from_rows_of_indices(2, 8, &[vec![0], vec![1]]).unwrap();
        let b = PackedRows::from_matrix(&narrow, 1);
        a.bounded_hamming_cross(0, &b, 0, 3);
    }
}
