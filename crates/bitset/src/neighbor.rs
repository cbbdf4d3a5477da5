//! The [`NeighborSet`] trait: the bitmap operations the levelwise
//! clique kernel actually uses, abstracted over representation.
//!
//! The SC'05 Clique Enumerator touches its common-neighbor bitmaps
//! through a tiny surface — `AND` into a scratch buffer, any-bit
//! intersection tests, population counts, and (de)serialization for the
//! out-of-core and checkpoint codecs. Everything else about the
//! enumeration (sub-list bookkeeping, level barriers, parallel
//! distribution) is representation-agnostic, so the kernel is generic
//! over this trait and is instantiated with:
//!
//! * [`BitSet`] — dense words; fastest per operation, `n/64` words per
//!   set regardless of density;
//! * [`WahBitSet`] — WAH-compressed; operations run on the compressed
//!   words, so sparse sets cost memory *and time* proportional to their
//!   run structure instead of the universe.

use crate::{BitSet, WahBitSet};

/// Backend identifier for [`BitSet`] (see [`NeighborSet::KIND`]).
pub const KIND_DENSE: u8 = 0;
/// Backend identifier for [`WahBitSet`]. Kind 2 belonged to a retired
/// per-set adaptive representation and is never reused, so a checkpoint
/// tagged with it can only fail to load.
pub const KIND_WAH: u8 = 1;

/// A fixed-universe bit string supporting exactly the operations the
/// levelwise enumeration kernel needs.
///
/// Implementations must agree bit-for-bit with [`BitSet`] on every
/// operation; the representation only changes the cost model. The
/// serialization methods define each representation's on-disk payload
/// (record framing and checksums live in the store layer above).
pub trait NeighborSet: Clone + std::fmt::Debug + PartialEq + Send + Sync + 'static {
    /// Stable one-byte representation tag, persisted in checkpoint
    /// headers so a resume cannot silently decode with the wrong
    /// backend.
    const KIND: u8;

    /// Human-readable backend name (CLI `--backend` values).
    const KIND_NAME: &'static str;

    /// Build from a dense bitset.
    fn from_bitset(bits: &BitSet) -> Self;

    /// Decompress/copy into a dense bitset.
    fn to_bitset(&self) -> BitSet;

    /// The empty set over a `nbits` universe.
    fn empty(nbits: usize) -> Self;

    /// Universe size in bits.
    fn nbits(&self) -> usize;

    /// `out = a & b`, reusing `out`'s storage. The kernel's one hot
    /// operation: called once per candidate vertex per sub-list.
    fn and_into(a: &Self, b: &Self, out: &mut Self);

    /// Does `self & other` have any set bit? (The paper's one-AND
    /// maximality test.)
    fn intersects(&self, other: &Self) -> bool;

    /// Any bit set?
    fn any(&self) -> bool;

    /// Lowest set bit, if any.
    fn first_one(&self) -> Option<usize>;

    /// Population count.
    fn count_ones(&self) -> usize;

    /// Membership test.
    fn contains(&self, i: usize) -> bool;

    /// Heap bytes held by this set (memory-watchdog accounting).
    fn heap_bytes(&self) -> usize;

    /// `Some(bytes)` when every set over a `nbits` universe serializes
    /// to the same fixed width (dense words) — the record codecs then
    /// omit the length prefix, keeping the dense formats byte-identical
    /// to their pre-trait layout. `None` for variable-width encodings.
    fn serialized_len(nbits: usize) -> Option<usize>;

    /// Append this set's serialized payload.
    fn serialize_into(&self, out: &mut Vec<u8>);

    /// Rebuild from a serialized payload for a `nbits` universe;
    /// `None` on malformed bytes.
    fn deserialize(nbits: usize, bytes: &[u8]) -> Option<Self>;
}

impl NeighborSet for BitSet {
    const KIND: u8 = KIND_DENSE;
    const KIND_NAME: &'static str = "dense";

    fn from_bitset(bits: &BitSet) -> Self {
        bits.clone()
    }

    fn to_bitset(&self) -> BitSet {
        self.clone()
    }

    fn empty(nbits: usize) -> Self {
        BitSet::new(nbits)
    }

    fn nbits(&self) -> usize {
        self.len()
    }

    fn and_into(a: &Self, b: &Self, out: &mut Self) {
        BitSet::and_into(a, b, out);
    }

    fn intersects(&self, other: &Self) -> bool {
        BitSet::intersects(self, other)
    }

    fn any(&self) -> bool {
        BitSet::any(self)
    }

    fn first_one(&self) -> Option<usize> {
        BitSet::first_one(self)
    }

    fn count_ones(&self) -> usize {
        BitSet::count_ones(self)
    }

    fn contains(&self, i: usize) -> bool {
        BitSet::contains(self, i)
    }

    fn heap_bytes(&self) -> usize {
        BitSet::heap_bytes(self)
    }

    fn serialized_len(nbits: usize) -> Option<usize> {
        Some(crate::words_for(nbits) * 8)
    }

    fn serialize_into(&self, out: &mut Vec<u8>) {
        out.reserve(self.words().len() * 8);
        for w in self.words() {
            out.extend_from_slice(&w.to_le_bytes());
        }
    }

    fn deserialize(nbits: usize, bytes: &[u8]) -> Option<Self> {
        if bytes.len() != crate::words_for(nbits) * 8 {
            return None;
        }
        let words: Vec<u64> = bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .collect();
        // from_words panics on trailing garbage; validate first.
        let tail_bits = nbits % 64;
        if tail_bits != 0 {
            if let Some(&last) = words.last() {
                if last >> tail_bits != 0 {
                    return None;
                }
            }
        }
        Some(BitSet::from_words(nbits, words))
    }
}

impl NeighborSet for WahBitSet {
    const KIND: u8 = KIND_WAH;
    const KIND_NAME: &'static str = "wah";

    fn from_bitset(bits: &BitSet) -> Self {
        WahBitSet::from_bitset(bits)
    }

    fn to_bitset(&self) -> BitSet {
        WahBitSet::to_bitset(self)
    }

    fn empty(nbits: usize) -> Self {
        WahBitSet::zero(nbits)
    }

    fn nbits(&self) -> usize {
        self.len()
    }

    fn and_into(a: &Self, b: &Self, out: &mut Self) {
        WahBitSet::and_into(a, b, out);
    }

    fn intersects(&self, other: &Self) -> bool {
        WahBitSet::intersects(self, other)
    }

    fn any(&self) -> bool {
        WahBitSet::any(self)
    }

    fn first_one(&self) -> Option<usize> {
        WahBitSet::first_one(self)
    }

    fn count_ones(&self) -> usize {
        WahBitSet::count_ones(self)
    }

    fn contains(&self, i: usize) -> bool {
        WahBitSet::contains(self, i)
    }

    fn heap_bytes(&self) -> usize {
        WahBitSet::heap_bytes(self)
    }

    fn serialized_len(_nbits: usize) -> Option<usize> {
        None
    }

    fn serialize_into(&self, out: &mut Vec<u8>) {
        WahBitSet::serialize_into(self, out);
    }

    fn deserialize(nbits: usize, bytes: &[u8]) -> Option<Self> {
        WahBitSet::deserialize(nbits, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_sets(n: usize) -> Vec<BitSet> {
        vec![
            BitSet::new(n),
            BitSet::full(n),
            BitSet::from_ones(n, [0usize, n / 2, n - 1]),
            BitSet::from_ones(n, (0..n).step_by(3)),
            BitSet::from_ones(n, (n / 4)..(n / 2)),
        ]
    }

    fn exercise<S: NeighborSet>(n: usize) {
        for a in sample_sets(n) {
            let sa = S::from_bitset(&a);
            assert_eq!(sa.to_bitset(), a);
            assert_eq!(sa.nbits(), n);
            assert_eq!(sa.count_ones(), a.count_ones());
            assert_eq!(sa.any(), a.any());
            assert_eq!(sa.first_one(), a.first_one());
            for i in [0usize, n / 2, n - 1] {
                assert_eq!(sa.contains(i), a.contains(i));
            }
            // serialization roundtrip
            let mut bytes = Vec::new();
            sa.serialize_into(&mut bytes);
            if let Some(fixed) = S::serialized_len(n) {
                assert_eq!(bytes.len(), fixed);
            }
            let back = S::deserialize(n, &bytes).expect("roundtrip");
            assert_eq!(back.to_bitset(), a);
            for b in sample_sets(n) {
                let sb = S::from_bitset(&b);
                assert_eq!(sa.intersects(&sb), a.intersects(&b));
                let mut out = S::empty(n);
                S::and_into(&sa, &sb, &mut out);
                assert_eq!(out.to_bitset(), a.and(&b), "and n={n}");
                // and reuse the scratch immediately
                S::and_into(&sb, &sa, &mut out);
                assert_eq!(out.to_bitset(), a.and(&b));
            }
        }
    }

    #[test]
    fn dense_conforms() {
        exercise::<BitSet>(130);
        exercise::<BitSet>(64);
    }

    #[test]
    fn wah_conforms() {
        exercise::<WahBitSet>(130);
        exercise::<WahBitSet>(64);
    }
}
