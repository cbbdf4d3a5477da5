//! Fixed-universe bit string over `u64` words.

use crate::{words_for, WORD_BITS};
use std::fmt;

/// A fixed-length bit string ("bitmap memory index" in the paper's terms).
///
/// ```
/// use gsb_bitset::BitSet;
/// let a = BitSet::from_ones(128, [1, 64, 100]);
/// let b = BitSet::from_ones(128, [64, 100, 127]);
/// assert_eq!(a.and(&b).to_vec(), vec![64, 100]);
/// assert!(a.intersects(&b));          // one early-exit pass
/// assert_eq!(a.count_and(&b), 2);     // popcount without materializing
/// ```
///
/// The universe size is fixed at construction; all binary operations
/// require equal universe sizes and panic otherwise (mixing universes is
/// a logic error in the enumeration kernels, never a recoverable
/// condition).
///
/// Invariant: bits at positions `>= self.len()` are always zero.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitSet {
    nbits: usize,
    words: Vec<u64>,
}

impl BitSet {
    /// An empty bit string over a universe of `nbits` positions.
    pub fn new(nbits: usize) -> Self {
        BitSet {
            nbits,
            words: vec![0; words_for(nbits)],
        }
    }

    /// A bit string with every position set.
    pub fn full(nbits: usize) -> Self {
        let mut s = Self::new(nbits);
        s.set_all();
        s
    }

    /// Build from an iterator of positions. Panics if any position is out
    /// of range.
    pub fn from_ones<I: IntoIterator<Item = usize>>(nbits: usize, ones: I) -> Self {
        let mut s = Self::new(nbits);
        for i in ones {
            s.insert(i);
        }
        s
    }

    /// Reconstruct from raw words. Trailing bits beyond `nbits` must be
    /// zero; panics otherwise.
    pub fn from_words(nbits: usize, words: Vec<u64>) -> Self {
        assert_eq!(words.len(), words_for(nbits), "word count mismatch");
        let s = BitSet { nbits, words };
        assert!(s.trailing_clear(), "nonzero bits beyond universe");
        s
    }

    /// Universe size in bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.nbits
    }

    /// True when the universe itself is empty (`len() == 0`).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nbits == 0
    }

    /// Raw word storage.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Heap bytes used by the word storage (for memory accounting).
    #[inline]
    pub fn heap_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
    }

    #[inline]
    fn tail_mask(&self) -> u64 {
        let r = self.nbits % WORD_BITS;
        if r == 0 {
            u64::MAX
        } else {
            (1u64 << r) - 1
        }
    }

    fn trailing_clear(&self) -> bool {
        match self.words.last() {
            Some(&w) => w & !self.tail_mask() == 0,
            None => true,
        }
    }

    /// Set the bit at `i`. Returns whether it was previously clear.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(i < self.nbits, "bit {i} out of range {}", self.nbits);
        let (w, b) = (i / WORD_BITS, i % WORD_BITS);
        let mask = 1u64 << b;
        let was = self.words[w] & mask != 0;
        self.words[w] |= mask;
        !was
    }

    /// Clear the bit at `i`. Returns whether it was previously set.
    #[inline]
    pub fn remove(&mut self, i: usize) -> bool {
        assert!(i < self.nbits, "bit {i} out of range {}", self.nbits);
        let (w, b) = (i / WORD_BITS, i % WORD_BITS);
        let mask = 1u64 << b;
        let was = self.words[w] & mask != 0;
        self.words[w] &= !mask;
        was
    }

    /// Test the bit at `i`.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        debug_assert!(i < self.nbits, "bit {i} out of range {}", self.nbits);
        self.words[i / WORD_BITS] & (1u64 << (i % WORD_BITS)) != 0
    }

    /// Set every bit in the universe.
    pub fn set_all(&mut self) {
        self.words.fill(u64::MAX);
        if let Some(last) = self.words.last_mut() {
            *last &= {
                let r = self.nbits % WORD_BITS;
                if r == 0 {
                    u64::MAX
                } else {
                    (1u64 << r) - 1
                }
            };
        }
    }

    /// Clear every bit.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Number of set bits.
    #[inline]
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when no bit is set — the paper's maximality test
    /// (`BitOneExists(..) = FALSE`).
    #[inline]
    pub fn none(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// True when at least one bit is set (`BitOneExists`).
    #[inline]
    pub fn any(&self) -> bool {
        !self.none()
    }

    /// Position of the lowest set bit, if any.
    pub fn first_one(&self) -> Option<usize> {
        for (wi, &w) in self.words.iter().enumerate() {
            if w != 0 {
                return Some(wi * WORD_BITS + w.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Position of the highest set bit, if any.
    pub fn last_one(&self) -> Option<usize> {
        for (wi, &w) in self.words.iter().enumerate().rev() {
            if w != 0 {
                return Some(wi * WORD_BITS + (WORD_BITS - 1 - w.leading_zeros() as usize));
            }
        }
        None
    }

    /// Position of the lowest set bit at index `>= from`, if any.
    pub fn next_one(&self, from: usize) -> Option<usize> {
        if from >= self.nbits {
            return None;
        }
        let (mut wi, b) = (from / WORD_BITS, from % WORD_BITS);
        let mut w = self.words[wi] & (u64::MAX << b);
        loop {
            if w != 0 {
                return Some(wi * WORD_BITS + w.trailing_zeros() as usize);
            }
            wi += 1;
            if wi == self.words.len() {
                return None;
            }
            w = self.words[wi];
        }
    }

    /// Iterate over set-bit positions in increasing order.
    pub fn iter_ones(&self) -> Ones<'_> {
        Ones {
            words: &self.words,
            wi: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Collect set positions into a vector.
    pub fn to_vec(&self) -> Vec<usize> {
        self.iter_ones().collect()
    }

    #[inline]
    fn check_len(&self, other: &Self) {
        assert_eq!(
            self.nbits, other.nbits,
            "universe mismatch: {} vs {}",
            self.nbits, other.nbits
        );
    }

    /// In-place intersection: `self &= other`.
    #[inline]
    pub fn and_assign(&mut self, other: &Self) {
        self.check_len(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= *b;
        }
    }

    /// In-place union: `self |= other`.
    #[inline]
    pub fn or_assign(&mut self, other: &Self) {
        self.check_len(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= *b;
        }
    }

    /// In-place symmetric difference: `self ^= other`.
    #[inline]
    pub fn xor_assign(&mut self, other: &Self) {
        self.check_len(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a ^= *b;
        }
    }

    /// In-place difference: `self &= !other`.
    #[inline]
    pub fn and_not_assign(&mut self, other: &Self) {
        self.check_len(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !*b;
        }
    }

    /// In-place complement within the universe.
    pub fn not_assign(&mut self) {
        let mask = self.tail_mask();
        let last = self.words.len().wrapping_sub(1);
        for (i, w) in self.words.iter_mut().enumerate() {
            *w = !*w;
            if i == last {
                *w &= mask;
            }
        }
    }

    /// `self & other` into a freshly allocated set.
    pub fn and(&self, other: &Self) -> Self {
        let mut out = self.clone();
        out.and_assign(other);
        out
    }

    /// `self | other` into a freshly allocated set.
    pub fn or(&self, other: &Self) -> Self {
        let mut out = self.clone();
        out.or_assign(other);
        out
    }

    /// `self & !other` into a freshly allocated set.
    pub fn and_not(&self, other: &Self) -> Self {
        let mut out = self.clone();
        out.and_not_assign(other);
        out
    }

    /// Write `a & b` into `out` without allocating. All three must share
    /// a universe.
    pub fn and_into(a: &Self, b: &Self, out: &mut Self) {
        a.check_len(b);
        a.check_len(out);
        for ((o, x), y) in out.words.iter_mut().zip(&a.words).zip(&b.words) {
            *o = *x & *y;
        }
    }

    /// Does `self & other` contain any set bit? Early-exits on the first
    /// nonzero word; this is the hot inner test of the Clique Enumerator.
    #[inline]
    pub fn intersects(&self, other: &Self) -> bool {
        self.check_len(other);
        self.words
            .iter()
            .zip(&other.words)
            .any(|(&a, &b)| a & b != 0)
    }

    /// Population count of `self & other` without materializing it.
    #[inline]
    pub fn count_and(&self, other: &Self) -> usize {
        self.check_len(other);
        self.words
            .iter()
            .zip(&other.words)
            .map(|(&a, &b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// Is `self` a subset of `other`?
    pub fn is_subset(&self, other: &Self) -> bool {
        self.check_len(other);
        self.words
            .iter()
            .zip(&other.words)
            .all(|(&a, &b)| a & !b == 0)
    }

    /// Is `self` disjoint from `other`?
    pub fn is_disjoint(&self, other: &Self) -> bool {
        !self.intersects(other)
    }

    /// Lowest set bit of `self & other` at index `>= from`, if any.
    /// Avoids materializing the intersection when only the next common
    /// element is needed.
    pub fn next_common(&self, other: &Self, from: usize) -> Option<usize> {
        self.check_len(other);
        if from >= self.nbits {
            return None;
        }
        let (mut wi, b) = (from / WORD_BITS, from % WORD_BITS);
        let mut w = (self.words[wi] & other.words[wi]) & (u64::MAX << b);
        loop {
            if w != 0 {
                return Some(wi * WORD_BITS + w.trailing_zeros() as usize);
            }
            wi += 1;
            if wi == self.words.len() {
                return None;
            }
            w = self.words[wi] & other.words[wi];
        }
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter_ones()).finish()
    }
}

impl FromIterator<usize> for BitSet {
    /// Builds a set sized to the largest element plus one.
    fn from_iter<T: IntoIterator<Item = usize>>(iter: T) -> Self {
        let items: Vec<usize> = iter.into_iter().collect();
        let nbits = items.iter().max().map_or(0, |m| m + 1);
        BitSet::from_ones(nbits, items)
    }
}

/// Iterator over set-bit positions of a [`BitSet`], ascending.
pub struct Ones<'a> {
    words: &'a [u64],
    wi: usize,
    current: u64,
}

impl Iterator for Ones<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.wi += 1;
            if self.wi >= self.words.len() {
                return None;
            }
            self.current = self.words[self.wi];
        }
        let b = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(self.wi * WORD_BITS + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = BitSet::new(100);
        assert!(!s.contains(5));
        assert!(s.insert(5));
        assert!(!s.insert(5));
        assert!(s.contains(5));
        assert!(s.remove(5));
        assert!(!s.remove(5));
        assert!(!s.contains(5));
    }

    #[test]
    fn boundary_bits() {
        for n in [1usize, 63, 64, 65, 127, 128, 129] {
            let mut s = BitSet::new(n);
            s.insert(0);
            s.insert(n - 1);
            assert!(s.contains(0));
            assert!(s.contains(n - 1));
            assert_eq!(s.count_ones(), if n == 1 { 1 } else { 2 });
        }
    }

    #[test]
    #[should_panic]
    fn out_of_range_panics() {
        let mut s = BitSet::new(64);
        s.insert(64);
    }

    #[test]
    fn set_all_respects_universe() {
        let mut s = BitSet::new(70);
        s.set_all();
        assert_eq!(s.count_ones(), 70);
        s.not_assign();
        assert_eq!(s.count_ones(), 0);
    }

    #[test]
    fn not_assign_complements() {
        let mut s = BitSet::from_ones(10, [0, 3, 9]);
        s.not_assign();
        assert_eq!(s.to_vec(), vec![1, 2, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn and_or_xor() {
        let a = BitSet::from_ones(130, [0, 1, 64, 100, 129]);
        let b = BitSet::from_ones(130, [1, 64, 65, 129]);
        assert_eq!(a.and(&b).to_vec(), vec![1, 64, 129]);
        assert_eq!(a.or(&b).to_vec(), vec![0, 1, 64, 65, 100, 129]);
        let mut x = a.clone();
        x.xor_assign(&b);
        assert_eq!(x.to_vec(), vec![0, 65, 100]);
        assert_eq!(a.and_not(&b).to_vec(), vec![0, 100]);
    }

    #[test]
    fn intersects_and_count_and() {
        let a = BitSet::from_ones(200, [0, 150]);
        let b = BitSet::from_ones(200, [150, 199]);
        let c = BitSet::from_ones(200, [1, 2]);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        assert_eq!(a.count_and(&b), 1);
        assert_eq!(a.count_and(&c), 0);
    }

    #[test]
    fn subset_and_disjoint() {
        let a = BitSet::from_ones(64, [1, 2]);
        let b = BitSet::from_ones(64, [1, 2, 3]);
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        assert!(a.is_subset(&a));
        let c = BitSet::from_ones(64, [4]);
        assert!(a.is_disjoint(&c));
        assert!(!a.is_disjoint(&b));
    }

    #[test]
    fn first_last_next_one() {
        let s = BitSet::from_ones(300, [5, 70, 299]);
        assert_eq!(s.first_one(), Some(5));
        assert_eq!(s.last_one(), Some(299));
        assert_eq!(s.next_one(0), Some(5));
        assert_eq!(s.next_one(5), Some(5));
        assert_eq!(s.next_one(6), Some(70));
        assert_eq!(s.next_one(71), Some(299));
        assert_eq!(s.next_one(300), None);
        assert_eq!(BitSet::new(10).first_one(), None);
        assert_eq!(BitSet::new(10).last_one(), None);
    }

    #[test]
    fn next_common_matches_and() {
        let a = BitSet::from_ones(150, [3, 64, 100, 149]);
        let b = BitSet::from_ones(150, [64, 100, 110]);
        assert_eq!(a.next_common(&b, 0), Some(64));
        assert_eq!(a.next_common(&b, 65), Some(100));
        assert_eq!(a.next_common(&b, 101), None);
    }

    #[test]
    fn iter_ones_order() {
        let v = vec![0, 63, 64, 65, 128, 191];
        let s = BitSet::from_ones(192, v.clone());
        assert_eq!(s.to_vec(), v);
    }

    #[test]
    fn and_into_no_alloc() {
        let a = BitSet::from_ones(100, [1, 50, 99]);
        let b = BitSet::from_ones(100, [50, 99]);
        let mut out = BitSet::new(100);
        BitSet::and_into(&a, &b, &mut out);
        assert_eq!(out.to_vec(), vec![50, 99]);
    }

    #[test]
    fn from_words_roundtrip() {
        let s = BitSet::from_ones(100, [0, 64, 99]);
        let t = BitSet::from_words(100, s.words().to_vec());
        assert_eq!(s, t);
    }

    #[test]
    #[should_panic]
    fn from_words_rejects_trailing_garbage() {
        BitSet::from_words(10, vec![u64::MAX]);
    }

    #[test]
    fn from_iter_sizes_universe() {
        let s: BitSet = [3usize, 7, 2].into_iter().collect();
        assert_eq!(s.len(), 8);
        assert_eq!(s.to_vec(), vec![2, 3, 7]);
    }

    #[test]
    fn empty_universe() {
        let s = BitSet::new(0);
        assert!(s.none());
        assert_eq!(s.count_ones(), 0);
        assert_eq!(s.iter_ones().count(), 0);
    }

    #[test]
    fn figure2_worked_example() {
        // Paper Figure 2: K4 on {a,b,c,d}. Bit i of a vertex's row is its
        // adjacency to vertex i. CN(a,b) = N(a) & N(b) etc.; the 4-clique
        // has empty common neighborhood (maximal), the 3-cliques do not.
        let n = 4;
        let nb = |v: usize| {
            let mut s = BitSet::full(n);
            s.remove(v);
            s
        };
        let cn_ab = nb(0).and(&nb(1));
        assert_eq!(cn_ab.to_vec(), vec![2, 3]); // "0011" over {c,d}
        let cn_abc = cn_ab.and(&nb(2));
        assert_eq!(cn_abc.to_vec(), vec![3]); // non-maximal
        assert!(cn_abc.any());
        let cn_abcd = cn_abc.and(&nb(3));
        assert!(cn_abcd.none()); // maximal
    }
}
