//! Fixed-length packed bit vectors.

use std::fmt;

use crate::error::MatrixError;
use crate::Result;

/// Number of bits stored per storage word.
pub(crate) const BITS: usize = u64::BITS as usize;

/// Number of `u64` words needed to store `len` bits.
#[inline]
pub(crate) fn words_for(len: usize) -> usize {
    len.div_ceil(BITS)
}

/// A fixed-length bit vector packed into `u64` words.
///
/// `BitVec` holds one matrix row as bits: bit `j` is set when the role is
/// assigned to user/permission `j`. It is the word-at-a-time oracle the
/// sparse row kernels are checked against, and the per-user state of the
/// eager mining cover. All bulk operations work a word at a time, so
/// Hamming distance between two 10,000-bit rows costs ~157 `xor` +
/// `popcount` pairs.
///
/// # Invariant
///
/// Bits at positions `>= len` (the tail of the final word) are always
/// zero. Every mutating method maintains this, which makes `Eq` safe to
/// derive over the raw words.
///
/// # Examples
///
/// ```
/// use rolediet_matrix::BitVec;
///
/// let a = BitVec::from_indices(8, &[0, 3, 7]).unwrap();
/// let b = BitVec::from_indices(8, &[0, 3]).unwrap();
/// assert_eq!(a.count_ones(), 3);
/// assert_eq!(a.hamming(&b).unwrap(), 1);
/// assert_eq!(a.iter_ones().collect::<Vec<_>>(), vec![0, 3, 7]);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct BitVec {
    len: usize,
    blocks: Vec<u64>,
}

impl BitVec {
    /// Creates an all-zero bit vector of `len` bits.
    ///
    /// # Examples
    ///
    /// ```
    /// let v = rolediet_matrix::BitVec::new(100);
    /// assert_eq!(v.count_ones(), 0);
    /// ```
    pub fn new(len: usize) -> Self {
        BitVec {
            len,
            blocks: vec![0; words_for(len)],
        }
    }

    /// Creates a bit vector with the given positions set.
    ///
    /// Indices may be unsorted and may repeat; repeats are idempotent.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::IndexOutOfBounds`] if any index is `>= len`.
    pub fn from_indices(len: usize, indices: &[usize]) -> Result<Self> {
        let mut v = BitVec::new(len);
        for &i in indices {
            if i >= len {
                return Err(MatrixError::IndexOutOfBounds {
                    index: i,
                    bound: len,
                    axis: "bit",
                });
            }
            v.set(i, true);
        }
        Ok(v)
    }

    /// Sets the bit at `index` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not below the vector's length.
    #[inline]
    pub fn set(&mut self, index: usize, value: bool) {
        assert!(index < self.len, "bit index {index} out of bounds");
        let (w, b) = (index / BITS, index % BITS);
        if value {
            self.blocks[w] |= 1u64 << b;
        } else {
            self.blocks[w] &= !(1u64 << b);
        }
    }

    /// Number of set bits (the row *norm* `|Rⁱ|` in the paper).
    pub fn count_ones(&self) -> usize {
        self.blocks.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Hamming distance to `other`: the number of positions where the two
    /// vectors differ. This is the similarity measure of inefficiency type
    /// T5 ("roles sharing a similar set of users/permissions").
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::DimensionMismatch`] if lengths differ.
    pub fn hamming(&self, other: &BitVec) -> Result<usize> {
        self.check_len(other)?;
        Ok(self
            .blocks
            .iter()
            .zip(&other.blocks)
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum())
    }

    /// Number of positions set in both vectors (the co-occurrence count
    /// `gⁱʲ` in the paper).
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::DimensionMismatch`] if lengths differ.
    pub fn intersection_count(&self, other: &BitVec) -> Result<usize> {
        self.check_len(other)?;
        Ok(self
            .blocks
            .iter()
            .zip(&other.blocks)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum())
    }

    /// In-place set difference (`self &= !other`).
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::DimensionMismatch`] if lengths differ.
    pub fn difference_with(&mut self, other: &BitVec) -> Result<()> {
        self.check_len(other)?;
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a &= !*b;
        }
        Ok(())
    }

    /// Returns `true` if every bit of `self` is also set in `other`.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::DimensionMismatch`] if lengths differ.
    pub fn is_subset_of(&self, other: &BitVec) -> Result<bool> {
        self.check_len(other)?;
        Ok(self
            .blocks
            .iter()
            .zip(&other.blocks)
            .all(|(a, b)| a & !b == 0))
    }

    /// Iterates over the indices of set bits in increasing order.
    pub fn iter_ones(&self) -> Ones<'_> {
        Ones {
            blocks: &self.blocks,
            word_index: 0,
            current: self.blocks.first().copied().unwrap_or(0),
        }
    }

    /// Collects the indices of set bits into a vector.
    pub fn to_indices(&self) -> Vec<usize> {
        self.iter_ones().collect()
    }

    #[inline]
    fn check_len(&self, other: &BitVec) -> Result<()> {
        if self.len != other.len {
            return Err(MatrixError::DimensionMismatch {
                expected: self.len,
                actual: other.len,
                what: "bit length",
            });
        }
        Ok(())
    }
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec(len={}, ones=[", self.len)?;
        for (n, i) in self.iter_ones().enumerate() {
            if n > 0 {
                write!(f, ", ")?;
            }
            if n == 16 {
                write!(f, "…")?;
                break;
            }
            write!(f, "{i}")?;
        }
        write!(f, "])")
    }
}

/// Iterator over the indices of set bits of a [`BitVec`], produced by
/// [`BitVec::iter_ones`].
#[derive(Debug, Clone)]
pub struct Ones<'a> {
    blocks: &'a [u64],
    word_index: usize,
    current: u64,
}

impl Iterator for Ones<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1; // clear lowest set bit
                return Some(self.word_index * BITS + bit);
            }
            self.word_index += 1;
            if self.word_index >= self.blocks.len() {
                return None;
            }
            self.current = self.blocks[self.word_index];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_roundtrip_across_word_boundaries() {
        let mut v = BitVec::new(200);
        let idx = [0, 1, 63, 64, 65, 127, 128, 199];
        for i in idx {
            v.set(i, true);
        }
        assert_eq!(v.count_ones(), 8);
        assert_eq!(v.to_indices(), idx);
        v.set(64, false);
        assert_eq!(v.count_ones(), 7);
        assert!(!v.to_indices().contains(&64));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn set_out_of_bounds_panics() {
        BitVec::new(10).set(10, true);
    }

    #[test]
    fn from_indices_idempotent_on_repeats() {
        let v = BitVec::from_indices(10, &[3, 3, 3, 7]).unwrap();
        assert_eq!(v.count_ones(), 2);
        assert_eq!(v.to_indices(), vec![3, 7]);
    }

    #[test]
    fn from_indices_rejects_out_of_range() {
        assert_eq!(
            BitVec::from_indices(4, &[1, 4]).unwrap_err(),
            MatrixError::IndexOutOfBounds {
                index: 4,
                bound: 4,
                axis: "bit"
            }
        );
    }

    #[test]
    fn hamming_examples() {
        let a = BitVec::from_indices(100, &[1, 50, 99]).unwrap();
        let b = BitVec::from_indices(100, &[1, 51, 99]).unwrap();
        assert_eq!(a.hamming(&a).unwrap(), 0);
        assert_eq!(a.hamming(&b).unwrap(), 2);
        assert_eq!(a.hamming(&BitVec::new(100)).unwrap(), 3);
    }

    #[test]
    fn hamming_rejects_length_mismatch() {
        let a = BitVec::new(10);
        let b = BitVec::new(11);
        assert!(matches!(
            a.hamming(&b),
            Err(MatrixError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn set_algebra() {
        let a = BitVec::from_indices(70, &[0, 10, 65]).unwrap();
        let b = BitVec::from_indices(70, &[10, 20, 65]).unwrap();
        assert_eq!(a.intersection_count(&b).unwrap(), 2);
        let mut d = a.clone();
        d.difference_with(&b).unwrap();
        assert_eq!(d.to_indices(), vec![0]);
        assert!(d.is_subset_of(&a).unwrap());
        assert!(!a.is_subset_of(&b).unwrap());
    }

    #[test]
    fn iter_ones_crosses_words() {
        let idx = vec![0, 63, 64, 100, 127, 128];
        let v = BitVec::from_indices(129, &idx).unwrap();
        assert_eq!(v.to_indices(), idx);
    }

    #[test]
    fn iter_ones_empty_and_zero_length() {
        assert_eq!(BitVec::new(0).to_indices(), Vec::<usize>::new());
        assert_eq!(BitVec::new(64).to_indices(), Vec::<usize>::new());
    }

    #[test]
    fn eq_compares_content() {
        let a = BitVec::from_indices(100, &[5, 50]).unwrap();
        let mut b = BitVec::new(100);
        b.set(50, true);
        b.set(5, true);
        assert_eq!(a, b);
        b.set(5, false);
        assert_ne!(a, b);
    }

    #[test]
    fn debug_is_nonempty_and_truncates() {
        let v = BitVec::from_indices(100, &(0..40).collect::<Vec<_>>()).unwrap();
        let s = format!("{v:?}");
        assert!(s.contains("len=100"));
        assert!(s.contains('…'));
        let empty = BitVec::new(0);
        assert!(!format!("{empty:?}").is_empty());
    }
}
