#![warn(missing_docs)]

//! Bit-true, arbitrary-width two's-complement bit vectors.
//!
//! The DAC 1999 methodology requires every generated tool — the XSIM
//! instruction-level simulator, the assembler/disassembler, and the HGEN
//! hardware model — to be *bit-true by construction*. This crate provides
//! the value type all of them share: a [`BitVector`] of explicit width
//! whose arithmetic wraps at that width exactly as a hardware register
//! would.
//!
//! Values of 64 bits or fewer are stored inline (no heap allocation), so
//! simulator state updates for typical 16/32/64-bit architectures are
//! allocation-free. Wider values are little-endian 64-bit words, and
//! every operation works a word at a time and allocates at most once
//! per result.
//!
//! # Examples
//!
//! ```
//! use bitv::BitVector;
//!
//! let a = BitVector::from_u64(0xFF, 8);
//! let b = BitVector::from_u64(1, 8);
//! let sum = a.wrapping_add(&b);
//! assert!(sum.is_zero()); // 8-bit wrap-around
//!
//! let word = BitVector::from_u64(0b1010_1100, 8);
//! assert_eq!(word.slice(5, 2).to_u64_lossy(), 0b1011);
//! ```

mod ops;
mod parse;

use std::cmp::Ordering;
use std::fmt;

/// Number of bits in one storage word.
const WORD_BITS: u32 = 64;

/// A fixed-width, bit-true value.
///
/// All arithmetic is two's-complement and wraps at the declared width.
/// Bits above the width are always zero (a maintained invariant), so
/// equality and hashing are well-defined on the raw representation.
///
/// Two `BitVector`s are equal only if both width and value match —
/// `0u8` and `0u16` are *different* values, just as an 8-bit and a
/// 16-bit register differ in hardware.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitVector {
    width: u32,
    repr: Repr,
}

#[derive(Clone, PartialEq, Eq, Hash)]
enum Repr {
    /// Width <= 64: single inline word.
    Inline(u64),
    /// Width > 64: little-endian (least-significant word first) words.
    Heap(Box<[u64]>),
}

impl BitVector {
    /// Creates a zero value of the given width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    #[must_use]
    pub fn zero(width: u32) -> Self {
        assert!(width > 0, "bit vector width must be non-zero");
        if width <= WORD_BITS {
            Self { width, repr: Repr::Inline(0) }
        } else {
            let words = Self::word_count(width);
            Self { width, repr: Repr::Heap(vec![0u64; words].into_boxed_slice()) }
        }
    }

    /// Creates a value with every bit set (the unsigned maximum).
    #[must_use]
    pub fn all_ones(width: u32) -> Self {
        Self::zero(width).not()
    }

    /// Creates a one-bit value from a boolean.
    #[must_use]
    pub fn from_bool(b: bool) -> Self {
        Self::from_u64(u64::from(b), 1)
    }

    /// Creates a value from the low `width` bits of `v`.
    ///
    /// Bits of `v` above `width` are discarded.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    #[must_use]
    pub fn from_u64(v: u64, width: u32) -> Self {
        let mut bv = Self::zero(width);
        bv.store_word(0, v);
        bv.normalize();
        bv
    }

    /// Creates a value from `v`, sign-extended/truncated to `width` bits.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    #[must_use]
    pub fn from_i64(v: i64, width: u32) -> Self {
        let mut bv = Self::zero(width);
        let fill = if v < 0 { u64::MAX } else { 0 };
        bv.store_word(0, v as u64);
        for i in 1..Self::word_count(width) {
            bv.store_word(i, fill);
        }
        bv.normalize();
        bv
    }

    /// Creates a value from little-endian 64-bit words.
    ///
    /// Extra words are ignored; missing words are zero.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    #[must_use]
    pub fn from_words(words: &[u64], width: u32) -> Self {
        let mut bv = Self::zero(width);
        for (i, &w) in words.iter().enumerate().take(Self::word_count(width)) {
            bv.store_word(i, w);
        }
        bv.normalize();
        bv
    }

    /// The width in bits. Always non-zero.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Whether every bit is zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        match &self.repr {
            Repr::Inline(w) => *w == 0,
            Repr::Heap(ws) => ws.iter().all(|&w| w == 0),
        }
    }

    /// The value of bit `i` (bit 0 is the least significant).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.width()`.
    #[must_use]
    pub fn bit(&self, i: u32) -> bool {
        assert!(i < self.width, "bit index {i} out of range for width {}", self.width);
        (self.load_word((i / WORD_BITS) as usize) >> (i % WORD_BITS)) & 1 == 1
    }

    /// Returns a copy with bit `i` set to `v`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.width()`.
    #[must_use]
    pub fn with_bit(&self, i: u32, v: bool) -> Self {
        assert!(i < self.width, "bit index {i} out of range for width {}", self.width);
        let mut out = self.clone();
        let wi = (i / WORD_BITS) as usize;
        let mask = 1u64 << (i % WORD_BITS);
        let w = out.load_word(wi);
        out.store_word(wi, if v { w | mask } else { w & !mask });
        out
    }

    /// The most significant (sign) bit.
    #[must_use]
    pub fn sign_bit(&self) -> bool {
        self.bit(self.width - 1)
    }

    /// The value as little-endian 64-bit words (least-significant word
    /// first), `width().div_ceil(64)` of them. Bits above the width
    /// read as zero.
    #[must_use]
    pub fn words(&self) -> &[u64] {
        match &self.repr {
            Repr::Inline(w) => std::slice::from_ref(w),
            Repr::Heap(ws) => ws,
        }
    }

    /// The low 64 bits of the value, discarding anything above.
    #[must_use]
    pub fn to_u64_lossy(&self) -> u64 {
        self.load_word(0)
    }

    /// The value as `u64`, or `None` if it does not fit.
    #[must_use]
    pub fn to_u64(&self) -> Option<u64> {
        match &self.repr {
            Repr::Inline(w) => Some(*w),
            Repr::Heap(ws) => {
                if ws[1..].iter().all(|&w| w == 0) {
                    Some(ws[0])
                } else {
                    None
                }
            }
        }
    }

    /// The value interpreted as a signed two's-complement integer,
    /// or `None` if it does not fit in `i64`.
    #[must_use]
    pub fn to_i64(&self) -> Option<i64> {
        if self.width <= WORD_BITS {
            return Some(self.sext(WORD_BITS).load_word(0) as i64);
        }
        // Fits in i64 iff sign-extending the low word gives the value back.
        let low = self.load_word(0) as i64;
        (Self::from_i64(low, self.width) == *self).then_some(low)
    }

    /// Number of one bits.
    #[must_use]
    pub fn count_ones(&self) -> u32 {
        match &self.repr {
            Repr::Inline(w) => w.count_ones(),
            Repr::Heap(ws) => ws.iter().map(|w| w.count_ones()).sum(),
        }
    }

    /// Bits `hi..=lo` as a new value of width `hi - lo + 1`.
    ///
    /// # Panics
    ///
    /// Panics if `hi < lo` or `hi >= self.width()`.
    #[must_use]
    pub fn slice(&self, hi: u32, lo: u32) -> Self {
        assert!(hi >= lo, "slice high bit {hi} below low bit {lo}");
        assert!(hi < self.width, "slice high bit {hi} out of range for width {}", self.width);
        let mut out = Self::zero(hi - lo + 1);
        for (i, d) in out.words_mut().iter_mut().enumerate() {
            *d = window(self.words(), lo + i as u32 * WORD_BITS);
        }
        out.normalize();
        out
    }

    /// Returns a copy with bits `hi..=lo` replaced by `src` (whose width
    /// must equal `hi - lo + 1`).
    ///
    /// # Panics
    ///
    /// Panics if the range is invalid or `src.width() != hi - lo + 1`.
    #[must_use]
    pub fn with_slice(&self, hi: u32, lo: u32, src: &Self) -> Self {
        assert!(hi >= lo && hi < self.width, "invalid slice range {hi}:{lo}");
        assert_eq!(src.width(), hi - lo + 1, "slice source width mismatch");
        let mut out = self.clone();
        deposit_all(out.words_mut(), lo, src);
        out
    }

    /// Concatenates `self` (high part) with `low` (low part).
    #[must_use]
    pub fn concat(&self, low: &Self) -> Self {
        let mut out = low.zext(self.width + low.width);
        deposit_all(out.words_mut(), low.width, self);
        out
    }

    /// Zero-extends (or truncates) to `width` bits.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    #[must_use]
    pub fn zext(&self, width: u32) -> Self {
        if width <= self.width {
            return self.trunc(width);
        }
        let mut out = Self::zero(width);
        for i in 0..Self::word_count(self.width) {
            out.store_word(i, self.load_word(i));
        }
        out.normalize();
        out
    }

    /// Sign-extends (or truncates) to `width` bits.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    #[must_use]
    pub fn sext(&self, width: u32) -> Self {
        if width <= self.width {
            return self.trunc(width);
        }
        let mut out = self.zext(width);
        if self.sign_bit() {
            set_ones(out.words_mut(), self.width, width);
        }
        out
    }

    /// Truncates to the low `width` bits.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or `width > self.width()`.
    #[must_use]
    pub fn trunc(&self, width: u32) -> Self {
        assert!(width > 0 && width <= self.width, "invalid truncation width {width}");
        let mut out = Self::zero(width);
        for i in 0..Self::word_count(width) {
            out.store_word(i, self.load_word(i));
        }
        out.normalize();
        out
    }

    /// Unsigned comparison against another value of any width.
    #[must_use]
    pub fn cmp_unsigned(&self, other: &Self) -> Ordering {
        let n = Self::word_count(self.width).max(Self::word_count(other.width));
        for i in (0..n).rev() {
            let a = self.load_word_or_zero(i);
            let b = other.load_word_or_zero(i);
            match a.cmp(&b) {
                Ordering::Equal => continue,
                o => return o,
            }
        }
        Ordering::Equal
    }

    /// Signed comparison against another value of the *same* width.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    #[must_use]
    pub fn cmp_signed(&self, other: &Self) -> Ordering {
        assert_eq!(self.width, other.width, "signed comparison requires equal widths");
        match (self.sign_bit(), other.sign_bit()) {
            (true, false) => Ordering::Less,
            (false, true) => Ordering::Greater,
            _ => self.cmp_unsigned(other),
        }
    }

    // ---- internal representation helpers ----

    fn word_count(width: u32) -> usize {
        width.div_ceil(WORD_BITS) as usize
    }

    fn load_word(&self, i: usize) -> u64 {
        match &self.repr {
            Repr::Inline(w) => {
                debug_assert_eq!(i, 0);
                *w
            }
            Repr::Heap(ws) => ws[i],
        }
    }

    fn words_mut(&mut self) -> &mut [u64] {
        match &mut self.repr {
            Repr::Inline(w) => std::slice::from_mut(w),
            Repr::Heap(ws) => ws,
        }
    }

    fn load_word_or_zero(&self, i: usize) -> u64 {
        if i < Self::word_count(self.width) {
            self.load_word(i)
        } else {
            0
        }
    }

    fn store_word(&mut self, i: usize, v: u64) {
        match &mut self.repr {
            Repr::Inline(w) => {
                debug_assert_eq!(i, 0);
                *w = v;
            }
            Repr::Heap(ws) => ws[i] = v,
        }
    }

    /// Clears bits above the width (maintains the representation invariant).
    fn normalize(&mut self) {
        let rem = self.width % WORD_BITS;
        if rem != 0 {
            let last = Self::word_count(self.width) - 1;
            let mask = (1u64 << rem) - 1;
            let w = self.load_word(last);
            self.store_word(last, w & mask);
        }
    }

    pub(crate) fn map_words2(&self, other: &Self, f: impl Fn(u64, u64) -> u64) -> Self {
        debug_assert_eq!(self.width, other.width);
        let mut out = Self::zero(self.width);
        for i in 0..Self::word_count(self.width) {
            out.store_word(i, f(self.load_word(i), other.load_word(i)));
        }
        out.normalize();
        out
    }

    pub(crate) fn set_word(&mut self, i: usize, v: u64) {
        self.store_word(i, v);
    }

    pub(crate) fn renormalize(&mut self) {
        self.normalize();
    }

    pub(crate) fn get_word(&self, i: usize) -> u64 {
        self.load_word(i)
    }

    pub(crate) fn n_words(&self) -> usize {
        Self::word_count(self.width)
    }
}

/// Bits `[pos, pos + 64)` of the little-endian `words`; bits past the
/// last word read as zero.
fn window(words: &[u64], pos: u32) -> u64 {
    let (wi, off) = ((pos / WORD_BITS) as usize, pos % WORD_BITS);
    let low = words.get(wi).map_or(0, |w| w >> off);
    if off == 0 {
        return low;
    }
    low | words.get(wi + 1).map_or(0, |w| w << (WORD_BITS - off))
}

/// Overwrites bits `[pos, pos + n)` of `words` with the low `n` bits of
/// `v`, for `n` in `1..=64`.
fn deposit(words: &mut [u64], pos: u32, n: u32, v: u64) {
    let mask = u64::MAX >> (WORD_BITS - n);
    let v = v & mask;
    let (wi, off) = ((pos / WORD_BITS) as usize, pos % WORD_BITS);
    words[wi] = (words[wi] & !(mask << off)) | (v << off);
    if off + n > WORD_BITS {
        // The part that did not fit in `words[wi]`.
        let placed = WORD_BITS - off;
        words[wi + 1] = (words[wi + 1] & !(mask >> placed)) | (v >> placed);
    }
}

/// Overwrites bits `[pos, pos + src.width())` of `words` with `src`.
fn deposit_all(words: &mut [u64], pos: u32, src: &BitVector) {
    for (i, &w) in src.words().iter().enumerate() {
        let lo = i as u32 * WORD_BITS;
        deposit(words, pos + lo, (src.width - lo).min(WORD_BITS), w);
    }
}

/// Sets bits `[lo, hi)` of `words` to one.
fn set_ones(words: &mut [u64], lo: u32, hi: u32) {
    let mut pos = lo;
    while pos < hi {
        let n = (hi - pos).min(WORD_BITS - pos % WORD_BITS);
        deposit(words, pos, n, u64::MAX);
        pos += n;
    }
}

impl PartialOrd for BitVector {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BitVector {
    /// Orders by unsigned value, then by width.
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_unsigned(other).then(self.width.cmp(&other.width))
    }
}

impl fmt::Debug for BitVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVector({}'h{:x})", self.width, self)
    }
}

impl fmt::Display for BitVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}'h{:x}", self.width, self)
    }
}

impl fmt::LowerHex for BitVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let digits = (self.width as usize).div_ceil(4);
        let mut s = String::with_capacity(digits);
        for d in (0..digits).rev() {
            let lo = (d * 4) as u32;
            let hi = (lo + 3).min(self.width - 1);
            let nib = if lo < self.width { self.slice(hi, lo).to_u64_lossy() } else { 0 };
            s.push(char::from_digit(nib as u32, 16).expect("nibble in range"));
        }
        f.write_str(&s)
    }
}

impl fmt::UpperHex for BitVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let lower = format!("{self:x}");
        f.write_str(&lower.to_uppercase())
    }
}

impl fmt::Binary for BitVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::with_capacity(self.width as usize);
        for i in (0..self.width).rev() {
            s.push(if self.bit(i) { '1' } else { '0' });
        }
        f.write_str(&s)
    }
}

impl From<bool> for BitVector {
    fn from(b: bool) -> Self {
        Self::from_bool(b)
    }
}

pub use parse::ParseBitVectorError;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_width() {
        let z = BitVector::zero(12);
        assert_eq!(z.width(), 12);
        assert!(z.is_zero());
        assert_eq!(z.to_u64(), Some(0));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_width_panics() {
        let _ = BitVector::zero(0);
    }

    #[test]
    fn from_u64_truncates() {
        let v = BitVector::from_u64(0x1FF, 8);
        assert_eq!(v.to_u64(), Some(0xFF));
    }

    #[test]
    fn from_i64_negative_sign_extends() {
        let v = BitVector::from_i64(-1, 100);
        assert_eq!(v.count_ones(), 100);
        assert_eq!(v.to_i64(), Some(-1));
    }

    #[test]
    fn bit_access() {
        let v = BitVector::from_u64(0b1010, 4);
        assert!(!v.bit(0));
        assert!(v.bit(1));
        assert!(!v.bit(2));
        assert!(v.bit(3));
        assert!(v.sign_bit());
    }

    #[test]
    fn with_bit_roundtrip() {
        let v = BitVector::zero(70).with_bit(69, true);
        assert!(v.bit(69));
        assert!(!v.with_bit(69, false).bit(69));
    }

    #[test]
    fn slice_basic() {
        let v = BitVector::from_u64(0xABCD, 16);
        assert_eq!(v.slice(15, 12).to_u64_lossy(), 0xA);
        assert_eq!(v.slice(11, 8).to_u64_lossy(), 0xB);
        assert_eq!(v.slice(7, 0).to_u64_lossy(), 0xCD);
        assert_eq!(v.slice(0, 0).width(), 1);
    }

    #[test]
    fn slice_across_word_boundary() {
        let v = BitVector::from_words(&[u64::MAX, 0b1], 70);
        let s = v.slice(68, 60);
        assert_eq!(s.width(), 9);
        assert_eq!(s.to_u64_lossy(), 0b0_0001_1111);
    }

    #[test]
    fn with_slice_replaces() {
        let v = BitVector::zero(16).with_slice(11, 4, &BitVector::from_u64(0xFF, 8));
        assert_eq!(v.to_u64_lossy(), 0x0FF0);
    }

    #[test]
    fn concat_orders_high_low() {
        let hi = BitVector::from_u64(0xA, 4);
        let lo = BitVector::from_u64(0x5, 4);
        assert_eq!(hi.concat(&lo).to_u64_lossy(), 0xA5);
    }

    #[test]
    fn zext_sext() {
        let v = BitVector::from_u64(0x80, 8);
        assert_eq!(v.zext(16).to_u64_lossy(), 0x0080);
        assert_eq!(v.sext(16).to_u64_lossy(), 0xFF80);
        assert_eq!(v.sext(8), v);
    }

    #[test]
    fn trunc_drops_high_bits() {
        let v = BitVector::from_u64(0xABCD, 16).trunc(8);
        assert_eq!(v.to_u64_lossy(), 0xCD);
    }

    #[test]
    fn to_i64_wide() {
        let v = BitVector::from_i64(-5, 128);
        assert_eq!(v.to_i64(), Some(-5));
        let big = BitVector::all_ones(128).with_bit(127, false);
        assert_eq!(big.to_i64(), None);
    }

    #[test]
    fn comparisons() {
        let a = BitVector::from_u64(5, 8);
        let b = BitVector::from_u64(250, 8);
        assert_eq!(a.cmp_unsigned(&b), Ordering::Less);
        // 250 as signed 8-bit is -6.
        assert_eq!(b.cmp_signed(&a), Ordering::Less);
        assert_eq!(a.cmp_signed(&a), Ordering::Equal);
    }

    #[test]
    fn cross_width_unsigned_compare() {
        let small = BitVector::from_u64(7, 4);
        let wide = BitVector::from_u64(7, 90);
        assert_eq!(small.cmp_unsigned(&wide), Ordering::Equal);
        assert!(small != wide, "equal value but different widths are distinct");
    }

    #[test]
    fn display_formats() {
        let v = BitVector::from_u64(0x2A, 8);
        assert_eq!(format!("{v}"), "8'h2a");
        assert_eq!(format!("{v:x}"), "2a");
        assert_eq!(format!("{v:X}"), "2A");
        assert_eq!(format!("{v:b}"), "00101010");
    }

    #[test]
    fn display_wide_value() {
        let v = BitVector::all_ones(68);
        assert_eq!(format!("{v:x}"), "fffffffffffffffff");
    }

    #[test]
    fn all_ones_count() {
        assert_eq!(BitVector::all_ones(65).count_ones(), 65);
    }

    #[test]
    fn from_bool_conversion() {
        let t: BitVector = true.into();
        assert_eq!(t, BitVector::from_u64(1, 1));
    }

    // ---- the word-at-a-time operations against a one-bool-per-bit model ----

    /// Widths at and around the 64-bit word boundaries.
    const WORD_EDGES: [u32; 7] = [63, 64, 65, 127, 128, 129, 192];

    fn model(v: &BitVector) -> Vec<bool> {
        (0..v.width()).map(|i| v.bit(i)).collect()
    }

    fn from_model(bits: &[bool]) -> BitVector {
        let mut v = BitVector::zero(bits.len() as u32);
        for (i, &b) in bits.iter().enumerate() {
            v = v.with_bit(i as u32, b);
        }
        v
    }

    /// Deterministic values of width `w`: a mixed pattern, one with the
    /// sign bit set, all ones, and a lone sign bit.
    fn samples(w: u32) -> Vec<BitVector> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(w));
        let words: Vec<u64> = (0..4)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        let mixed = BitVector::from_words(&words, w);
        vec![
            mixed.with_bit(w - 1, false),
            mixed.with_bit(w - 1, true),
            BitVector::all_ones(w),
            BitVector::zero(w).with_bit(w - 1, true),
        ]
    }

    fn shift_amounts(w: u32) -> Vec<u32> {
        vec![0, 1, 31, 63, 64, 65, 127, 128, w - 1, w, w + 7]
    }

    #[test]
    fn shifts_match_the_bit_model_across_word_edges() {
        for w in WORD_EDGES {
            for v in samples(w) {
                let m = model(&v);
                let sign = m[w as usize - 1];
                for amt in shift_amounts(w) {
                    let a = amt as usize;
                    let n = w as usize;
                    let shl: Vec<bool> = (0..n).map(|i| i >= a && m[i - a]).collect();
                    let lshr: Vec<bool> = (0..n).map(|i| i + a < n && m[i + a]).collect();
                    let ashr: Vec<bool> =
                        (0..n).map(|i| if i + a < n { m[i + a] } else { sign }).collect();
                    assert_eq!(model(&v.shl(amt)), shl, "{v:?} << {amt}");
                    assert_eq!(model(&v.lshr(amt)), lshr, "{v:?} >> {amt}");
                    assert_eq!(model(&v.ashr(amt)), ashr, "{v:?} >>> {amt}");
                }
            }
        }
    }

    #[test]
    fn slices_match_the_bit_model_across_word_edges() {
        for w in WORD_EDGES {
            for v in samples(w) {
                let m = model(&v);
                for lo in [0, 1, 62, 63, 64, 65, w / 2, w - 1] {
                    for hi in [lo, lo + 1, lo + 63, lo + 64, lo + 65, w - 1] {
                        if hi < lo || hi >= w {
                            continue;
                        }
                        let (l, h) = (lo as usize, hi as usize);
                        assert_eq!(model(&v.slice(hi, lo)), m[l..=h], "{v:?}[{hi}:{lo}]");
                        let src = samples(hi - lo + 1).swap_remove(1);
                        let mut want = m.clone();
                        want[l..=h].copy_from_slice(&model(&src));
                        assert_eq!(
                            model(&v.with_slice(hi, lo, &src)),
                            want,
                            "[{hi}:{lo}] = {src:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn concat_and_extensions_match_the_bit_model_across_word_edges() {
        for w in WORD_EDGES {
            for v in samples(w) {
                let m = model(&v);
                for low_w in [1, 3, 63, 64, 65, 128] {
                    let low = samples(low_w).swap_remove(0);
                    let mut want = model(&low);
                    want.extend(&m);
                    assert_eq!(model(&v.concat(&low)), want, "{v:?} ++ {low:?}");
                }
                for to in [w - 1, w, w + 1, w + 63, w + 64, 200] {
                    let n = to as usize;
                    let sign = m[w as usize - 1];
                    let fill = |ext: bool| -> Vec<bool> {
                        (0..n).map(|i| if i < m.len() { m[i] } else { ext }).collect()
                    };
                    assert_eq!(model(&v.zext(to)), fill(false), "zext {v:?} to {to}");
                    assert_eq!(model(&v.sext(to)), fill(sign), "sext {v:?} to {to}");
                    if to <= w {
                        assert_eq!(model(&v.trunc(to)), m[..n], "trunc {v:?} to {to}");
                    }
                }
                assert_eq!(from_model(&m), v);
            }
        }
    }

    #[test]
    fn to_i64_of_wide_values() {
        for w in [65, 128, 192] {
            assert_eq!(BitVector::from_i64(i64::MIN, w).to_i64(), Some(i64::MIN));
            assert_eq!(BitVector::from_i64(i64::MAX, w).to_i64(), Some(i64::MAX));
            assert_eq!(BitVector::from_u64(1 << 63, w).to_i64(), None);
            assert_eq!(BitVector::from_i64(-1, w).with_bit(64, false).to_i64(), None);
        }
    }
}
