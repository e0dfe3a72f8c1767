//! T4's one duplicate-row path: a row key and a bucket splitter.
//!
//! The exact-duplicate fast path of the custom algorithm groups identical
//! rows by a content hash — the Rust analogue of the pandas `groupby` trick
//! used in the paper's notebook. The row key ([`hash_indices`]) is 128 bits
//! built from two independent 64-bit FNV-1a streams over the row's
//! ascending column indices, so it costs `O(nnz)` per row whatever the
//! matrix width, and the batch pipeline, the generators and the
//! incremental engine all key a row alike. Accidental collisions are
//! negligible; nevertheless [`split_buckets`] re-checks every bucket
//! bit-for-bit, making the result *exact* regardless of hash quality (the
//! paper stresses that the custom algorithm is fully deterministic and
//! misses nothing).

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

/// A 128-bit content signature of a matrix row.
///
/// Equal rows always produce equal signatures. Distinct rows produce equal
/// signatures only on a 2⁻¹²⁸-scale hash collision, and all consumers in
/// this workspace verify candidate groups before reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RowSignature(pub u128);

const FNV_OFFSET_A: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME_A: u64 = 0x0000_0100_0000_01b3;
// Second stream: different offset basis (split of SHA-256 initial values) to
// decorrelate the two 64-bit halves.
const FNV_OFFSET_B: u64 = 0x6a09_e667_bb67_ae85;
const FNV_PRIME_B: u64 = 0x0000_0100_0000_01b3;

/// Hashes a stream of `u64` words into a [`RowSignature`].
///
/// The FNV pair behind every row key (see [`hash_indices`]); exposed for
/// callers that fingerprint their own word streams.
pub fn hash_words(words: impl IntoIterator<Item = u64>) -> RowSignature {
    let mut a = FNV_OFFSET_A;
    let mut b = FNV_OFFSET_B;
    for w in words {
        for byte in w.to_le_bytes() {
            a = (a ^ u64::from(byte)).wrapping_mul(FNV_PRIME_A);
            b = (b ^ u64::from(byte).rotate_left(3)).wrapping_mul(FNV_PRIME_B);
        }
    }
    RowSignature((u128::from(a) << 64) | u128::from(b))
}

/// The T4 row key: [`hash_words`] over a row's strictly increasing
/// column indices, one `u64` word per index, streamed without allocating.
///
/// The cost is `O(nnz)`, and the key does not depend on the row width, so
/// widening the column space (a new user or permission) re-keys no row.
pub fn hash_indices(indices: &[u32]) -> RowSignature {
    hash_words(indices.iter().map(|&c| u64::from(c)))
}

/// Splits signature buckets into exact duplicate groups.
///
/// Each bucket (members ascending) is broken into its bit-for-bit-equal
/// classes under `rows_equal`; classes of at least two rows are returned,
/// members ascending, groups sorted by first member. A (vanishingly
/// unlikely) hash collision therefore splits into the correct sub-groups
/// instead of producing a wrong merge. The buckets are split over
/// `threads` workers via [`parallel`](crate::parallel); buckets are
/// disjoint, so the sorted output is identical for every thread count.
pub fn split_buckets<F>(buckets: &[Vec<usize>], threads: usize, rows_equal: F) -> Vec<Vec<usize>>
where
    F: Fn(usize, usize) -> bool + Sync,
{
    let mut groups = crate::parallel::par_map_rows(buckets.len(), threads, |range| {
        let mut out = Vec::new();
        for bucket in &buckets[range] {
            let mut remaining = bucket.clone();
            while remaining.len() >= 2 {
                let pivot = remaining[0];
                let (same, rest): (Vec<usize>, Vec<usize>) = remaining
                    .into_iter()
                    .partition(|&r| r == pivot || rows_equal(pivot, r));
                if same.len() >= 2 {
                    out.push(same);
                }
                remaining = rest;
            }
        }
        out
    });
    groups.sort_unstable_by_key(|g| g[0]);
    groups
}

/// Groups row indices by signature.
///
/// # Examples
///
/// ```
/// use rolediet_matrix::{CsrMatrix, RowMatrix, SignatureIndex};
///
/// let m = CsrMatrix::from_rows_of_indices(4, 3, &[
///     vec![0], vec![1, 2], vec![0], vec![1, 2],
/// ]).unwrap();
/// let idx = SignatureIndex::build(&m);
/// let groups = idx.groups_verified(&m);
/// assert_eq!(groups, vec![vec![0, 2], vec![1, 3]]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SignatureIndex {
    buckets: BTreeMap<RowSignature, Vec<usize>>,
}

impl SignatureIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the index over all rows of a matrix:
    /// [`build_with`](Self::build_with) at one thread.
    pub fn build<M: crate::RowMatrix + Sync>(matrix: &M) -> Self {
        Self::build_with(matrix, 1)
    }

    /// Builds the index with the row hashing — the expensive part — split
    /// over `threads` workers via [`parallel`](crate::parallel).
    /// Signatures are inserted sequentially in row order afterwards, so
    /// bucket member order (and therefore every derived group list) is
    /// identical for every thread count.
    pub fn build_with<M: crate::RowMatrix + Sync>(matrix: &M, threads: usize) -> Self {
        let signatures = crate::parallel::par_map_rows(matrix.rows(), threads, |range| {
            range.map(|i| matrix.row_signature(i)).collect()
        });
        let mut idx = SignatureIndex::new();
        for (i, sig) in signatures.into_iter().enumerate() {
            idx.insert(sig, i);
        }
        idx
    }

    /// Inserts one `(signature, row)` pair.
    pub fn insert(&mut self, sig: RowSignature, row: usize) {
        self.buckets.entry(sig).or_default().push(row);
    }

    /// Number of distinct signatures.
    pub fn distinct(&self) -> usize {
        self.buckets.len()
    }

    /// Candidate duplicate groups (≥ 2 members, sorted by first member).
    ///
    /// Groups are *candidates*: members share a signature but have not been
    /// compared bit-for-bit. Use [`groups_verified`] for exact results.
    ///
    /// [`groups_verified`]: SignatureIndex::groups_verified
    pub fn candidate_groups(&self) -> Vec<Vec<usize>> {
        let mut groups: Vec<Vec<usize>> = self
            .buckets
            .values()
            .filter(|v| v.len() >= 2)
            .map(|v| {
                let mut v = v.clone();
                v.sort_unstable();
                v
            })
            .collect();
        groups.sort_unstable_by_key(|g| g[0]);
        groups
    }

    /// Exact duplicate groups: the candidates run through
    /// [`split_buckets`] against the matrix at one thread.
    pub fn groups_verified<M: crate::RowMatrix + Sync>(&self, matrix: &M) -> Vec<Vec<usize>> {
        split_buckets(&self.candidate_groups(), 1, |a, b| matrix.rows_equal(a, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::CsrMatrix;
    use crate::RowMatrix;

    #[test]
    fn hash_words_distinguishes_rows() {
        assert_ne!(hash_words([1]), hash_words([2]));
        assert_ne!(hash_words([1, 0]), hash_words([0, 1]));
        assert_eq!(hash_words([7, 9]), hash_words([7, 9]));
    }

    #[test]
    fn row_key_does_not_depend_on_width() {
        let row = vec![vec![0usize, 65, 69]];
        let key = hash_indices(&[0, 65, 69]);
        for cols in [70, 350_100] {
            let m = CsrMatrix::from_rows_of_indices(1, cols, &row).unwrap();
            assert_eq!(m.row_signature(0), key, "cols={cols}");
        }
    }

    #[test]
    fn groups_verified_finds_all_duplicate_groups() {
        let m = CsrMatrix::from_rows_of_indices(
            6,
            4,
            &[vec![0], vec![1], vec![0], vec![2, 3], vec![1], vec![0]],
        )
        .unwrap();
        let groups = SignatureIndex::build(&m).groups_verified(&m);
        assert_eq!(groups, vec![vec![0, 2, 5], vec![1, 4]]);
    }

    #[test]
    fn collision_is_split_by_verification() {
        // Force a collision by inserting two different rows under one sig.
        let m =
            CsrMatrix::from_rows_of_indices(4, 4, &[vec![0], vec![1], vec![0], vec![1]]).unwrap();
        let mut idx = SignatureIndex::new();
        let fake = RowSignature(42);
        for i in 0..4 {
            idx.insert(fake, i);
        }
        assert_eq!(idx.candidate_groups(), vec![vec![0, 1, 2, 3]]);
        let groups = idx.groups_verified(&m);
        assert_eq!(groups, vec![vec![0, 2], vec![1, 3]]);
    }

    #[test]
    fn parallel_build_groups_identically() {
        let m = CsrMatrix::from_rows_of_indices(
            7,
            4,
            &[
                vec![0],
                vec![1],
                vec![0],
                vec![2, 3],
                vec![1],
                vec![0],
                vec![],
            ],
        )
        .unwrap();
        let seq = SignatureIndex::build(&m);
        let groups = seq.groups_verified(&m);
        for threads in [1, 2, 3, 8] {
            let par = SignatureIndex::build_with(&m, threads);
            assert_eq!(par.distinct(), seq.distinct(), "threads={threads}");
            assert_eq!(par.candidate_groups(), seq.candidate_groups());
            let split = split_buckets(&par.candidate_groups(), threads, |a, b| m.rows_equal(a, b));
            assert_eq!(split, groups, "threads={threads}");
        }
    }

    #[test]
    fn no_groups_when_all_rows_unique() {
        let m = CsrMatrix::from_rows_of_indices(3, 4, &[vec![0], vec![1], vec![2]]).unwrap();
        let idx = SignatureIndex::build(&m);
        assert_eq!(idx.distinct(), 3);
        assert!(idx.groups_verified(&m).is_empty());
    }

    #[test]
    fn empty_matrix() {
        let m = CsrMatrix::zeros(0, 0);
        let idx = SignatureIndex::build(&m);
        assert_eq!(idx.distinct(), 0);
        assert!(idx.groups_verified(&m).is_empty());
    }
}
