//! Sorted-index set operations.
//!
//! The sparse kernels keep row contents as strictly increasing `u32`
//! index slices (the CSR convention of [`CsrMatrix`](crate::CsrMatrix)).
//! These helpers are the set algebra over that representation: two-pointer
//! merges that never materialize a dense bit row, so callers' memory
//! stays proportional to the indices actually present (O(nnz)) instead
//! of the enclosing width. [`CsrMatrix`](crate::CsrMatrix)'s `row_dot`
//! and `row_hamming` are [`intersect_count`], and so is the mining
//! verifier's per-user grant check. (The mining cover marks one set in a
//! column bitmap and scans the other instead of merging.)
//!
//! All inputs must be sorted ascending and duplicate-free; the operations
//! are pure and allocation-free.

/// Size of the intersection of two sorted, duplicate-free slices.
///
/// # Examples
///
/// ```
/// use rolediet_matrix::setops::intersect_count;
///
/// assert_eq!(intersect_count(&[1, 3, 5, 9], &[2, 3, 4, 5]), 2);
/// assert_eq!(intersect_count(&[], &[1, 2]), 0);
/// ```
pub fn intersect_count(a: &[u32], b: &[u32]) -> usize {
    let (mut i, mut j, mut n) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// Whether sorted, duplicate-free `a` is a subset of sorted,
/// duplicate-free `b`.
///
/// # Examples
///
/// ```
/// use rolediet_matrix::setops::is_subset;
///
/// assert!(is_subset(&[1, 5], &[0, 1, 4, 5]));
/// assert!(!is_subset(&[1, 6], &[0, 1, 4, 5]));
/// assert!(is_subset(&[], &[3]));
/// ```
pub fn is_subset(a: &[u32], b: &[u32]) -> bool {
    if a.len() > b.len() {
        return false;
    }
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() {
        // Each unmatched element of `a` must still fit in b's tail.
        if b.len() - j < a.len() - i {
            return false;
        }
        match b[j].cmp(&a[i]) {
            std::cmp::Ordering::Less => j += 1,
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Greater => return false,
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intersect_count_cases() {
        let cases: &[(&[u32], &[u32], usize)] = &[
            (&[], &[], 0),
            (&[1], &[], 0),
            (&[1, 2, 3], &[], 0),
            (&[1, 2, 3], &[2, 3, 4], 2),
            (&[1, 5], &[2, 6], 0),
            (&[0, 10, 20], &[5, 10, 15, 20, 25], 2),
            (&[7], &[7], 1),
        ];
        for &(a, b, expected) in cases {
            assert_eq!(intersect_count(a, b), expected, "{a:?} ∩ {b:?}");
            assert_eq!(intersect_count(b, a), expected);
        }
    }

    #[test]
    fn subset_cases() {
        assert!(is_subset(&[], &[]));
        assert!(is_subset(&[], &[1]));
        assert!(is_subset(&[1, 2, 3], &[1, 2, 3]));
        assert!(is_subset(&[2], &[1, 2, 3]));
        assert!(!is_subset(&[0], &[1, 2, 3]));
        assert!(!is_subset(&[1, 4], &[1, 2, 3]));
        assert!(!is_subset(&[1, 2, 3, 4], &[1, 2, 3]));
    }

    #[test]
    fn agrees_with_bitvec_oracle() {
        use crate::BitVec;
        // Cross-check the sorted-slice walks against the dense BitVec
        // algebra on a deterministic family of index sets.
        let sets: Vec<Vec<u32>> = (0u32..8)
            .map(|k| (0u32..32).filter(|x| (x * (k + 3)) % 7 < 3).collect())
            .collect();
        for a in &sets {
            for b in &sets {
                let ba =
                    BitVec::from_indices(32, &a.iter().map(|&x| x as usize).collect::<Vec<_>>())
                        .unwrap();
                let bb =
                    BitVec::from_indices(32, &b.iter().map(|&x| x as usize).collect::<Vec<_>>())
                        .unwrap();
                assert_eq!(intersect_count(a, b), ba.intersection_count(&bb).unwrap());
                assert_eq!(is_subset(a, b), ba.is_subset_of(&bb).unwrap());
            }
        }
    }
}
