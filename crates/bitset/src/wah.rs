//! Word-Aligned Hybrid (WAH) compressed bitmaps.
//!
//! The paper's conclusion notes that "the sparcity of the bitmap memory
//! index can potentially provide high compression rate and allow for
//! bitwise operations to be performed on the compressed data. The work
//! in this direction is underway." This module is that direction, done:
//! a 64-bit WAH encoding whose `AND`/`OR` operate directly on the
//! compressed words without decompressing either operand.
//!
//! Encoding: each code word is one `u64`.
//!
//! * MSB = 0 → *literal*: the low 63 bits are one group of 63 bitmap bits.
//! * MSB = 1 → *fill*: bit 62 is the fill value, the low 62 bits count
//!   how many consecutive 63-bit groups consist entirely of that value.

use crate::BitSet;

const GROUP_BITS: usize = 63;
const LITERAL_MASK: u64 = (1u64 << GROUP_BITS) - 1;
const FILL_FLAG: u64 = 1u64 << 63;
const FILL_VALUE: u64 = 1u64 << 62;
const MAX_FILL: u64 = (1u64 << 62) - 1;

/// A WAH-compressed bitmap over a fixed universe.
///
/// ```
/// use gsb_bitset::{BitSet, WahBitSet};
/// let sparse = BitSet::from_ones(100_000, [5, 99_000]);
/// let wah = WahBitSet::from_bitset(&sparse);
/// assert!(wah.compression_ratio() > 100.0);
/// let other = WahBitSet::from_bitset(&BitSet::from_ones(100_000, [99_000]));
/// assert!(wah.intersects(&other));            // on compressed words
/// assert_eq!(wah.and(&other).count_ones(), 1);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WahBitSet {
    nbits: usize,
    code: Vec<u64>,
}

/// One run of identical 63-bit groups produced by the cursor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Group {
    Fill(bool),
    Literal(u64),
}

impl WahBitSet {
    /// Compress a plain bitset.
    pub fn from_bitset(bits: &BitSet) -> Self {
        let nbits = bits.len();
        let ngroups = nbits.div_ceil(GROUP_BITS);
        let mut b = Builder::new(nbits);
        for g in 0..ngroups {
            b.push_group(extract_group(bits, g), 1);
        }
        b.finish()
    }

    /// An all-zero compressed bitmap.
    pub fn zero(nbits: usize) -> Self {
        let ngroups = nbits.div_ceil(GROUP_BITS);
        let mut b = Builder::new(nbits);
        if ngroups > 0 {
            b.push_fill(false, ngroups as u64);
        }
        b.finish()
    }

    /// Universe size in bits.
    pub fn len(&self) -> usize {
        self.nbits
    }

    /// True when the universe is empty.
    pub fn is_empty(&self) -> bool {
        self.nbits == 0
    }

    /// Number of code words in the compressed representation.
    pub fn code_words(&self) -> usize {
        self.code.len()
    }

    /// Heap bytes used by the compressed form.
    pub fn heap_bytes(&self) -> usize {
        self.code.capacity() * std::mem::size_of::<u64>()
    }

    /// Compression ratio versus the plain representation (plain words /
    /// code words). Greater than 1.0 means the compression won.
    pub fn compression_ratio(&self) -> f64 {
        if self.code.is_empty() {
            return 1.0;
        }
        crate::words_for(self.nbits) as f64 / self.code.len() as f64
    }

    /// Decompress into a plain bitset.
    pub fn to_bitset(&self) -> BitSet {
        let mut out = BitSet::new(self.nbits);
        let mut pos = 0usize; // group index
        for (count, g) in self.runs() {
            match g {
                Group::Fill(false) => pos += count as usize,
                Group::Fill(true) => {
                    for gi in pos..pos + count as usize {
                        set_group(&mut out, gi, LITERAL_MASK);
                    }
                    pos += count as usize;
                }
                Group::Literal(w) => {
                    set_group(&mut out, pos, w);
                    pos += 1;
                }
            }
        }
        out
    }

    /// Population count, computed on the compressed form.
    pub fn count_ones(&self) -> usize {
        let ngroups = self.nbits.div_ceil(GROUP_BITS);
        let mut pos = 0usize;
        let mut total = 0usize;
        for (count, g) in self.runs() {
            match g {
                Group::Fill(false) => pos += count as usize,
                Group::Fill(true) => {
                    for gi in pos..pos + count as usize {
                        total += group_width(self.nbits, gi, ngroups);
                    }
                    pos += count as usize;
                }
                Group::Literal(w) => {
                    total += w.count_ones() as usize;
                    pos += 1;
                }
            }
        }
        total
    }

    /// Any bit set? Early-exits at the first one-fill or nonzero literal.
    pub fn any(&self) -> bool {
        self.runs().any(|(_, g)| match g {
            Group::Fill(v) => v,
            Group::Literal(w) => w != 0,
        })
    }

    /// Bitwise AND on the compressed forms.
    pub fn and(&self, other: &Self) -> Self {
        self.merge(other, |a, b| a & b, |fa, fb| fa && fb)
    }

    /// Bitwise OR on the compressed forms.
    pub fn or(&self, other: &Self) -> Self {
        self.merge(other, |a, b| a | b, |fa, fb| fa || fb)
    }

    /// Bitwise difference `self & !other` on the compressed forms.
    pub fn and_not(&self, other: &Self) -> Self {
        self.merge(other, |a, b| a & !b, |fa, fb| fa && !fb)
    }

    /// Complement within the universe, on the compressed form. Fill
    /// runs flip wholesale; only the final (possibly partial) group is
    /// rewritten bit-exactly.
    pub fn not(&self) -> Self {
        let ngroups = self.nbits.div_ceil(GROUP_BITS);
        let last_mask = if self.nbits.is_multiple_of(GROUP_BITS) {
            LITERAL_MASK
        } else {
            (1u64 << (self.nbits % GROUP_BITS)) - 1
        };
        let mut b = Builder::new(self.nbits);
        let mut pos = 0usize; // group index
        for (count, g) in self.runs() {
            let count = count as usize;
            let covers_last = pos + count == ngroups && ngroups > 0;
            let whole = if covers_last { count - 1 } else { count };
            match g {
                Group::Fill(v) => {
                    if whole > 0 {
                        b.push_fill(!v, whole as u64);
                    }
                    if covers_last {
                        let w = if v { 0 } else { LITERAL_MASK };
                        b.push_group(w & last_mask, 1);
                    }
                }
                Group::Literal(w) => {
                    let flipped = !w & LITERAL_MASK;
                    if covers_last {
                        b.push_group(flipped & last_mask, 1);
                    } else {
                        b.push_group(flipped, 1);
                    }
                }
            }
            pos += count;
        }
        b.finish()
    }

    /// A compressed bitmap with exactly one bit set.
    pub fn singleton(nbits: usize, i: usize) -> Self {
        assert!(i < nbits, "bit {i} out of range {nbits}");
        let ngroups = nbits.div_ceil(GROUP_BITS);
        let (gi, off) = (i / GROUP_BITS, i % GROUP_BITS);
        let mut b = Builder::new(nbits);
        b.push_fill(false, gi as u64);
        b.push_group(1u64 << off, 1);
        b.push_fill(false, (ngroups - gi - 1) as u64);
        b.finish()
    }

    /// Position of the lowest set bit, decoded from the compressed form.
    pub fn first_one(&self) -> Option<usize> {
        let mut pos = 0usize;
        for (count, g) in self.runs() {
            match g {
                Group::Fill(false) => pos += count as usize,
                Group::Fill(true) => return Some(pos * GROUP_BITS),
                Group::Literal(w) => {
                    if w != 0 {
                        return Some(pos * GROUP_BITS + w.trailing_zeros() as usize);
                    }
                    pos += 1;
                }
            }
        }
        None
    }

    /// Iterate set-bit positions, ascending, without decompressing to a
    /// plain bitmap.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        WahOnes {
            cursor: RunCursor::new(&self.code),
            run: None,
            group_pos: 0,
            within: 0,
        }
    }

    /// Does `self & other` have any set bit? Runs on compressed forms
    /// without allocating the result.
    pub fn intersects(&self, other: &Self) -> bool {
        assert_eq!(self.nbits, other.nbits, "universe mismatch");
        let mut xa = RunCursor::new(&self.code);
        let mut xb = RunCursor::new(&other.code);
        let (mut ra, mut rb) = (xa.next(), xb.next());
        loop {
            let ((ca, ga), (cb, gb)) = match (ra, rb) {
                (Some(a), Some(b)) => (a, b),
                _ => return false,
            };
            let step = ca.min(cb);
            let hit = match (ga, gb) {
                (Group::Fill(false), _) | (_, Group::Fill(false)) => false,
                (Group::Fill(true), Group::Fill(true)) => true,
                (Group::Fill(true), Group::Literal(w)) | (Group::Literal(w), Group::Fill(true)) => {
                    w != 0
                }
                (Group::Literal(a), Group::Literal(b)) => a & b != 0,
            };
            if hit {
                return true;
            }
            ra = advance(ra, step, &mut xa);
            rb = advance(rb, step, &mut xb);
        }
    }

    /// Compressed AND written into `out`, reusing `out`'s code
    /// allocation. The hot-loop form of [`and`](Self::and): the
    /// enumeration kernel calls this once per candidate expansion, so
    /// the output buffer must not reallocate on every call.
    pub fn and_into(a: &Self, b: &Self, out: &mut Self) {
        let mut code = std::mem::take(&mut out.code);
        code.clear();
        let mut builder = Builder {
            nbits: a.nbits,
            code,
        };
        merge_into(a, b, &mut builder, |x, y| x & y, |fa, fb| fa && fb);
        out.nbits = a.nbits;
        out.code = builder.code;
    }

    /// Membership test, decoded from the compressed form.
    pub fn contains(&self, i: usize) -> bool {
        if i >= self.nbits {
            return false;
        }
        let (target, off) = (i / GROUP_BITS, i % GROUP_BITS);
        let mut pos = 0usize;
        for (count, g) in self.runs() {
            match g {
                Group::Fill(v) => {
                    if target < pos + count as usize {
                        return v;
                    }
                    pos += count as usize;
                }
                Group::Literal(w) => {
                    if target == pos {
                        return w & (1u64 << off) != 0;
                    }
                    pos += 1;
                }
            }
        }
        false
    }

    /// Set bit `i` in place by group surgery: a literal group flips one
    /// bit; a fill run splits into fill/literal/fill. The result may be
    /// non-canonical (e.g. a literal equal to a fill word) — every
    /// operation tolerates that, but structural equality (`==`) between
    /// logically equal sets built along different paths is not
    /// guaranteed.
    pub fn set_bit(&mut self, i: usize) {
        self.write_bit(i, true);
    }

    /// Clear bit `i` in place (see [`set_bit`](Self::set_bit) for the
    /// encoding caveats).
    pub fn clear_bit(&mut self, i: usize) {
        self.write_bit(i, false);
    }

    fn write_bit(&mut self, i: usize, value: bool) {
        assert!(i < self.nbits, "bit {i} out of range {}", self.nbits);
        let (target, off) = (i / GROUP_BITS, i % GROUP_BITS);
        let mut pos = 0usize;
        for idx in 0..self.code.len() {
            let w = self.code[idx];
            if w & FILL_FLAG != 0 {
                let count = (w & MAX_FILL) as usize;
                let fill = w & FILL_VALUE != 0;
                if target < pos + count {
                    if fill == value {
                        return; // already the requested value
                    }
                    let pre = (target - pos) as u64;
                    let post = count as u64 - pre - 1;
                    let fill_word = FILL_FLAG | if fill { FILL_VALUE } else { 0 };
                    let base = if fill { LITERAL_MASK } else { 0 };
                    let lit = (base ^ (1u64 << off)) & LITERAL_MASK;
                    let mut repl = Vec::with_capacity(3);
                    if pre > 0 {
                        repl.push(fill_word | pre);
                    }
                    repl.push(lit);
                    if post > 0 {
                        repl.push(fill_word | post);
                    }
                    self.code.splice(idx..idx + 1, repl);
                    return;
                }
                pos += count;
            } else {
                if target == pos {
                    if value {
                        self.code[idx] |= 1u64 << off;
                    } else {
                        self.code[idx] &= !(1u64 << off);
                    }
                    return;
                }
                pos += 1;
            }
        }
        unreachable!("group {target} not covered by encoding");
    }

    /// Append the code words as little-endian bytes (the record codecs'
    /// on-disk form; framing and checksums live at the record layer).
    pub fn serialize_into(&self, out: &mut Vec<u8>) {
        out.reserve(self.code.len() * 8);
        for w in &self.code {
            out.extend_from_slice(&w.to_le_bytes());
        }
    }

    /// Rebuild from little-endian code bytes for a `nbits` universe.
    /// Returns `None` when the bytes are not a whole number of words or
    /// the decoded groups do not cover the universe exactly.
    pub fn deserialize(nbits: usize, bytes: &[u8]) -> Option<Self> {
        if !bytes.len().is_multiple_of(8) {
            return None;
        }
        let code: Vec<u64> = bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .collect();
        let mut groups = 0u64;
        for w in &code {
            groups += if w & FILL_FLAG != 0 { w & MAX_FILL } else { 1 };
        }
        if groups != nbits.div_ceil(GROUP_BITS) as u64 {
            return None;
        }
        Some(WahBitSet { nbits, code })
    }

    fn merge(
        &self,
        other: &Self,
        lit_op: impl Fn(u64, u64) -> u64,
        fill_op: impl Fn(bool, bool) -> bool,
    ) -> Self {
        let mut out = Builder::new(self.nbits);
        merge_into(self, other, &mut out, lit_op, fill_op);
        out.finish()
    }

    fn runs(&self) -> RunCursor<'_> {
        RunCursor::new(&self.code)
    }
}

/// The shared pair-walk behind every binary operation: decode both
/// operands run-by-run, apply the op over the overlap, append to `out`.
fn merge_into(
    a: &WahBitSet,
    b: &WahBitSet,
    out: &mut Builder,
    lit_op: impl Fn(u64, u64) -> u64,
    fill_op: impl Fn(bool, bool) -> bool,
) {
    assert_eq!(a.nbits, b.nbits, "universe mismatch");
    let mut xa = RunCursor::new(&a.code);
    let mut xb = RunCursor::new(&b.code);
    let (mut ra, mut rb) = (xa.next(), xb.next());
    loop {
        let ((ca, ga), (cb, gb)) = match (ra, rb) {
            (Some(a), Some(b)) => (a, b),
            (None, None) => break,
            _ => unreachable!("equal universes decode to equal group counts"),
        };
        let step = ca.min(cb);
        match (ga, gb) {
            (Group::Fill(fa), Group::Fill(fb)) => out.push_fill(fill_op(fa, fb), step),
            (Group::Fill(f), Group::Literal(w)) => {
                let fw = if f { LITERAL_MASK } else { 0 };
                out.push_group(lit_op(fw, w) & LITERAL_MASK, step);
            }
            (Group::Literal(w), Group::Fill(f)) => {
                let fw = if f { LITERAL_MASK } else { 0 };
                out.push_group(lit_op(w, fw) & LITERAL_MASK, step);
            }
            (Group::Literal(a), Group::Literal(b)) => {
                out.push_group(lit_op(a, b) & LITERAL_MASK, step)
            }
        }
        ra = advance(ra, step, &mut xa);
        rb = advance(rb, step, &mut xb);
    }
}

fn advance(
    run: Option<(u64, Group)>,
    step: u64,
    cursor: &mut RunCursor<'_>,
) -> Option<(u64, Group)> {
    let (c, g) = run?;
    debug_assert!(step <= c);
    if step == c {
        cursor.next()
    } else {
        Some((c - step, g))
    }
}

/// Bits in group `gi` (the final group of a non-multiple universe is
/// narrower).
fn group_width(nbits: usize, gi: usize, ngroups: usize) -> usize {
    if gi + 1 == ngroups && !nbits.is_multiple_of(GROUP_BITS) {
        nbits % GROUP_BITS
    } else {
        GROUP_BITS
    }
}

/// Extract 63-bit group `g` from a plain bitset (bits beyond the universe
/// read as zero).
fn extract_group(bits: &BitSet, g: usize) -> u64 {
    let start = g * GROUP_BITS;
    let words = bits.words();
    let (wi, off) = (start / 64, start % 64);
    let lo = words.get(wi).copied().unwrap_or(0) >> off;
    let hi = if off == 0 {
        0
    } else {
        words.get(wi + 1).copied().unwrap_or(0) << (64 - off)
    };
    (lo | hi) & LITERAL_MASK
}

/// Write 63-bit group `g` into a plain bitset, clipped to the universe.
fn set_group(bits: &mut BitSet, g: usize, value: u64) {
    let start = g * GROUP_BITS;
    let end = (start + GROUP_BITS).min(bits.len());
    let mut v = value;
    for i in start..end {
        if v == 0 {
            break;
        }
        if v & 1 != 0 {
            bits.insert(i);
        }
        v >>= 1;
    }
}

/// Streaming set-bit iterator over the compressed form.
struct WahOnes<'a> {
    cursor: RunCursor<'a>,
    run: Option<(u64, Group)>,
    /// Group index of the current run's start.
    group_pos: usize,
    /// Bits already consumed within the current run (for fills: groups
    /// × 63 + bit; for literals: bit shifts applied).
    within: u64,
}

impl Iterator for WahOnes<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            let (count, g) = match self.run {
                Some(r) => r,
                None => {
                    let r = self.cursor.next()?;
                    self.run = Some(r);
                    self.within = 0;
                    r
                }
            };
            match g {
                Group::Fill(false) => {
                    self.group_pos += count as usize;
                    self.run = None;
                }
                Group::Fill(true) => {
                    let total = count * GROUP_BITS as u64;
                    if self.within < total {
                        let bit = self.group_pos * GROUP_BITS + self.within as usize;
                        self.within += 1;
                        return Some(bit);
                    }
                    self.group_pos += count as usize;
                    self.run = None;
                }
                Group::Literal(w) => {
                    let rest = w >> self.within;
                    if rest != 0 {
                        let tz = rest.trailing_zeros() as u64;
                        let bit = self.group_pos * GROUP_BITS + (self.within + tz) as usize;
                        self.within += tz + 1;
                        return Some(bit);
                    }
                    self.group_pos += 1;
                    self.run = None;
                }
            }
        }
    }
}

/// Streaming decoder producing `(group_count, Group)` runs.
struct RunCursor<'a> {
    code: &'a [u64],
    i: usize,
}

impl<'a> RunCursor<'a> {
    fn new(code: &'a [u64]) -> Self {
        RunCursor { code, i: 0 }
    }
}

impl Iterator for RunCursor<'_> {
    type Item = (u64, Group);

    fn next(&mut self) -> Option<Self::Item> {
        let w = *self.code.get(self.i)?;
        self.i += 1;
        if w & FILL_FLAG != 0 {
            Some((w & MAX_FILL, Group::Fill(w & FILL_VALUE != 0)))
        } else {
            Some((1, Group::Literal(w)))
        }
    }
}

/// Appends groups, coalescing adjacent identical fills.
struct Builder {
    nbits: usize,
    code: Vec<u64>,
}

impl Builder {
    fn new(nbits: usize) -> Self {
        Builder {
            nbits,
            code: Vec::new(),
        }
    }

    fn push_group(&mut self, w: u64, count: u64) {
        debug_assert_eq!(w & !LITERAL_MASK, 0);
        if w == 0 {
            self.push_fill(false, count);
        } else if w == LITERAL_MASK {
            self.push_fill(true, count);
        } else {
            for _ in 0..count {
                self.code.push(w);
            }
        }
    }

    fn push_fill(&mut self, value: bool, mut count: u64) {
        if count == 0 {
            return;
        }
        if let Some(last) = self.code.last_mut() {
            if *last & FILL_FLAG != 0 && (*last & FILL_VALUE != 0) == value {
                let have = *last & MAX_FILL;
                let add = count.min(MAX_FILL - have);
                *last += add;
                count -= add;
            }
        }
        while count > 0 {
            let chunk = count.min(MAX_FILL);
            self.code
                .push(FILL_FLAG | if value { FILL_VALUE } else { 0 } | chunk);
            count -= chunk;
        }
    }

    fn finish(mut self) -> WahBitSet {
        self.code.shrink_to_fit();
        WahBitSet {
            nbits: self.nbits,
            code: self.code,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(nbits: usize, ones: &[usize]) {
        let plain = BitSet::from_ones(nbits, ones.iter().copied());
        let wah = WahBitSet::from_bitset(&plain);
        assert_eq!(wah.to_bitset(), plain, "roundtrip n={nbits} ones={ones:?}");
        assert_eq!(wah.count_ones(), plain.count_ones());
        assert_eq!(wah.any(), plain.any());
    }

    #[test]
    fn roundtrips() {
        roundtrip(0, &[]);
        roundtrip(1, &[0]);
        roundtrip(63, &[0, 62]);
        roundtrip(64, &[63]);
        roundtrip(126, &[0, 62, 63, 125]);
        roundtrip(1000, &[0, 500, 999]);
        roundtrip(1000, &[]);
        let all: Vec<usize> = (0..500).collect();
        roundtrip(500, &all);
    }

    #[test]
    fn sparse_compresses() {
        let plain = BitSet::from_ones(100_000, [5usize, 99_000]);
        let wah = WahBitSet::from_bitset(&plain);
        assert!(wah.code_words() < 10, "got {}", wah.code_words());
        assert!(wah.compression_ratio() > 100.0);
    }

    #[test]
    fn dense_fill_compresses() {
        let plain = BitSet::full(100_000);
        let wah = WahBitSet::from_bitset(&plain);
        assert!(wah.code_words() <= 2, "got {}", wah.code_words());
        assert_eq!(wah.count_ones(), 100_000);
    }

    #[test]
    fn and_or_match_plain() {
        let a = BitSet::from_ones(400, [0, 1, 63, 64, 65, 200, 399]);
        let b = BitSet::from_ones(400, [1, 64, 200, 300]);
        let wa = WahBitSet::from_bitset(&a);
        let wb = WahBitSet::from_bitset(&b);
        assert_eq!(wa.and(&wb).to_bitset(), a.and(&b));
        assert_eq!(wa.or(&wb).to_bitset(), a.or(&b));
    }

    #[test]
    fn intersects_matches_plain() {
        let a = BitSet::from_ones(1000, [999]);
        let b = BitSet::from_ones(1000, [999]);
        let c = BitSet::from_ones(1000, [0]);
        let (wa, wb, wc) = (
            WahBitSet::from_bitset(&a),
            WahBitSet::from_bitset(&b),
            WahBitSet::from_bitset(&c),
        );
        assert!(wa.intersects(&wb));
        assert!(!wa.intersects(&wc));
        assert!(!WahBitSet::zero(1000).intersects(&wa));
    }

    #[test]
    fn zero_constructor() {
        let z = WahBitSet::zero(500);
        assert!(!z.any());
        assert_eq!(z.count_ones(), 0);
        assert_eq!(z.to_bitset(), BitSet::new(500));
    }

    #[test]
    fn not_matches_plain() {
        for (n, ones) in [
            (10usize, vec![0usize, 9]),
            (63, vec![]),
            (64, vec![63]),
            (126, vec![0, 62, 63, 125]),
            (200, (0..200).collect::<Vec<_>>()),
            (1000, vec![500]),
        ] {
            let plain = BitSet::from_ones(n, ones.iter().copied());
            let wah = WahBitSet::from_bitset(&plain);
            let mut expect = plain.clone();
            expect.not_assign();
            assert_eq!(wah.not().to_bitset(), expect, "n={n}");
            // double complement is identity
            assert_eq!(wah.not().not(), WahBitSet::from_bitset(&plain), "n={n}");
        }
    }

    #[test]
    fn and_not_matches_plain() {
        let a = BitSet::from_ones(300, [0, 100, 200, 299]);
        let b = BitSet::from_ones(300, [100, 299]);
        let (wa, wb) = (WahBitSet::from_bitset(&a), WahBitSet::from_bitset(&b));
        assert_eq!(wa.and_not(&wb).to_bitset(), a.and_not(&b));
    }

    #[test]
    fn singleton_and_first_one() {
        for n in [1usize, 63, 64, 100, 500] {
            for &i in &[0usize, n / 2, n - 1] {
                let s = WahBitSet::singleton(n, i);
                assert_eq!(s.count_ones(), 1, "n={n} i={i}");
                assert_eq!(s.first_one(), Some(i));
                assert_eq!(s.to_bitset().to_vec(), vec![i]);
            }
        }
        assert_eq!(WahBitSet::zero(50).first_one(), None);
    }

    #[test]
    fn iter_ones_matches_plain() {
        for (n, ones) in [
            (100usize, vec![0usize, 1, 62, 63, 64, 99]),
            (700, vec![5, 300, 301, 699]),
            (63, vec![]),
            (630, (0..630).collect::<Vec<_>>()), // full fills
        ] {
            let plain = BitSet::from_ones(n, ones.iter().copied());
            let wah = WahBitSet::from_bitset(&plain);
            let got: Vec<usize> = wah.iter_ones().collect();
            assert_eq!(got, plain.to_vec(), "n={n}");
        }
    }

    #[test]
    fn and_with_full_is_identity() {
        let a = BitSet::from_ones(300, [0, 100, 299]);
        let wa = WahBitSet::from_bitset(&a);
        let wf = WahBitSet::from_bitset(&BitSet::full(300));
        assert_eq!(wa.and(&wf).to_bitset(), a);
    }

    #[test]
    fn and_into_matches_and_and_reuses_buffer() {
        let a = BitSet::from_ones(500, [0, 63, 64, 200, 499]);
        let b = BitSet::from_ones(500, [63, 200, 300]);
        let (wa, wb) = (WahBitSet::from_bitset(&a), WahBitSet::from_bitset(&b));
        let mut out = WahBitSet::zero(500);
        for _ in 0..3 {
            WahBitSet::and_into(&wa, &wb, &mut out);
            assert_eq!(out.to_bitset(), a.and(&b));
        }
        // buffer works across differing operands too
        WahBitSet::and_into(&wb, &wb, &mut out);
        assert_eq!(out.to_bitset(), b);
    }

    #[test]
    fn set_and_clear_bit_match_plain() {
        for n in [1usize, 63, 64, 126, 500] {
            let mut plain = BitSet::new(n);
            let mut wah = WahBitSet::zero(n);
            let probes: Vec<usize> = [0, 1, 62, 63, 64, n / 2, n - 1]
                .into_iter()
                .filter(|&i| i < n)
                .collect();
            for &i in &probes {
                plain.insert(i);
                wah.set_bit(i);
                assert_eq!(wah.to_bitset(), plain, "set {i} n={n}");
                assert!(wah.contains(i));
            }
            // idempotent sets, then clears
            for &i in &probes {
                wah.set_bit(i);
                assert_eq!(wah.to_bitset(), plain, "re-set {i} n={n}");
            }
            for &i in &probes {
                plain.remove(i);
                wah.clear_bit(i);
                assert_eq!(wah.to_bitset(), plain, "clear {i} n={n}");
                assert!(!wah.contains(i));
            }
            assert!(!wah.any());
        }
    }

    #[test]
    fn set_bit_splits_one_fills() {
        let mut wah = WahBitSet::from_bitset(&BitSet::full(630));
        wah.clear_bit(315);
        let mut expect = BitSet::full(630);
        expect.remove(315);
        assert_eq!(wah.to_bitset(), expect);
        assert_eq!(wah.count_ones(), 629);
        wah.set_bit(315);
        assert_eq!(wah.to_bitset(), BitSet::full(630));
    }

    #[test]
    fn mutated_encodings_interoperate_with_ops() {
        // set_bit/clear_bit may leave non-canonical literals; every
        // operation must still read them correctly.
        let mut a = WahBitSet::zero(200);
        a.set_bit(5);
        a.set_bit(150);
        a.clear_bit(5);
        let b = WahBitSet::singleton(200, 150);
        assert!(a.intersects(&b));
        assert_eq!(a.and(&b).count_ones(), 1);
        assert_eq!(a.first_one(), Some(150));
        assert_eq!(a.iter_ones().collect::<Vec<_>>(), vec![150]);
    }

    #[test]
    fn contains_matches_plain() {
        let plain = BitSet::from_ones(400, [0, 62, 63, 64, 126, 399]);
        let wah = WahBitSet::from_bitset(&plain);
        for i in 0..400 {
            assert_eq!(wah.contains(i), plain.contains(i), "bit {i}");
        }
        assert!(!wah.contains(400));
    }

    #[test]
    fn serialize_roundtrips() {
        for (n, ones) in [
            (0usize, vec![]),
            (100, vec![5usize, 99]),
            (1000, (0..1000).step_by(7).collect::<Vec<_>>()),
        ] {
            let wah = WahBitSet::from_bitset(&BitSet::from_ones(n, ones.iter().copied()));
            let mut bytes = Vec::new();
            wah.serialize_into(&mut bytes);
            let back = WahBitSet::deserialize(n, &bytes).expect("roundtrip");
            assert_eq!(back, wah, "n={n}");
        }
        // torn / wrong-universe bytes are rejected
        let wah = WahBitSet::from_bitset(&BitSet::from_ones(100, [5usize]));
        let mut bytes = Vec::new();
        wah.serialize_into(&mut bytes);
        assert!(WahBitSet::deserialize(100, &bytes[..bytes.len() - 3]).is_none());
        assert!(WahBitSet::deserialize(5000, &bytes).is_none());
    }
}
