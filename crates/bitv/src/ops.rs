//! Arithmetic, bitwise, and shift operations on [`BitVector`].
//!
//! All operations are *wrapping* at the declared width (hardware
//! semantics). Binary operations require operands of equal width and
//! panic otherwise — width adaptation is an explicit decision the RTL
//! layer makes with `zext`/`sext`/`trunc`.

use crate::{set_ones, window, BitVector, WORD_BITS};

impl BitVector {
    /// Wrapping addition.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    #[must_use]
    pub fn wrapping_add(&self, rhs: &Self) -> Self {
        self.assert_same_width(rhs, "add");
        let mut out = Self::zero(self.width);
        let mut carry = 0u64;
        for i in 0..self.n_words() {
            let (s1, c1) = self.get_word(i).overflowing_add(rhs.get_word(i));
            let (s2, c2) = s1.overflowing_add(carry);
            out.set_word(i, s2);
            carry = u64::from(c1) + u64::from(c2);
        }
        out.renormalize();
        out
    }

    /// Wrapping subtraction (`self - rhs`).
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    #[must_use]
    pub fn wrapping_sub(&self, rhs: &Self) -> Self {
        self.assert_same_width(rhs, "sub");
        self.wrapping_add(&rhs.wrapping_neg())
    }

    /// Two's-complement negation.
    #[must_use]
    pub fn wrapping_neg(&self) -> Self {
        let one = Self::from_u64(1, self.width);
        self.not().wrapping_add(&one)
    }

    /// Wrapping multiplication (low `width` bits of the product).
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    #[must_use]
    pub fn wrapping_mul(&self, rhs: &Self) -> Self {
        self.assert_same_width(rhs, "mul");
        let n = self.n_words();
        let mut acc = vec![0u64; n];
        for i in 0..n {
            let a = self.get_word(i) as u128;
            if a == 0 {
                continue;
            }
            let mut carry: u128 = 0;
            for j in 0..(n - i) {
                let b = rhs.get_word(j) as u128;
                let cur = acc[i + j] as u128 + a * b + carry;
                acc[i + j] = cur as u64;
                carry = cur >> 64;
            }
        }
        Self::from_words(&acc, self.width)
    }

    /// Unsigned division. Division by zero yields all ones (the common
    /// hardware convention, matching e.g. RISC-V).
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    #[must_use]
    pub fn unsigned_div(&self, rhs: &Self) -> Self {
        self.assert_same_width(rhs, "udiv");
        self.udivrem(rhs).0
    }

    /// Unsigned remainder. Remainder by zero yields the dividend.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    #[must_use]
    pub fn unsigned_rem(&self, rhs: &Self) -> Self {
        self.assert_same_width(rhs, "urem");
        self.udivrem(rhs).1
    }

    /// Signed division (truncated, like Rust's `/`). `MIN / -1` wraps to
    /// `MIN`; division by zero yields all ones.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    #[must_use]
    pub fn signed_div(&self, rhs: &Self) -> Self {
        self.assert_same_width(rhs, "sdiv");
        if rhs.is_zero() {
            return Self::all_ones(self.width);
        }
        let neg_lhs = self.sign_bit();
        let neg_rhs = rhs.sign_bit();
        let a = if neg_lhs { self.wrapping_neg() } else { self.clone() };
        let b = if neg_rhs { rhs.wrapping_neg() } else { rhs.clone() };
        let q = a.udivrem(&b).0;
        if neg_lhs != neg_rhs {
            q.wrapping_neg()
        } else {
            q
        }
    }

    /// Signed remainder (sign follows the dividend). Remainder by zero
    /// yields the dividend.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    #[must_use]
    pub fn signed_rem(&self, rhs: &Self) -> Self {
        self.assert_same_width(rhs, "srem");
        if rhs.is_zero() {
            return self.clone();
        }
        let neg_lhs = self.sign_bit();
        let a = if neg_lhs { self.wrapping_neg() } else { self.clone() };
        let b = if rhs.sign_bit() { rhs.wrapping_neg() } else { rhs.clone() };
        let r = a.udivrem(&b).1;
        if neg_lhs {
            r.wrapping_neg()
        } else {
            r
        }
    }

    /// Schoolbook bit-serial unsigned divide returning `(quotient, remainder)`.
    fn udivrem(&self, rhs: &Self) -> (Self, Self) {
        if rhs.is_zero() {
            return (Self::all_ones(self.width), self.clone());
        }
        // Fast path: both fit in u64.
        if let (Some(a), Some(b)) = (self.to_u64(), rhs.to_u64()) {
            return (Self::from_u64(a / b, self.width), Self::from_u64(a % b, self.width));
        }
        let mut quot = Self::zero(self.width);
        let mut rem = Self::zero(self.width);
        for i in (0..self.width).rev() {
            rem = rem.shl(1).with_bit(0, self.bit(i));
            if rem.cmp_unsigned(rhs).is_ge() {
                rem = rem.wrapping_sub(rhs);
                quot = quot.with_bit(i, true);
            }
        }
        (quot, rem)
    }

    /// Bitwise AND.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    #[must_use]
    pub fn and(&self, rhs: &Self) -> Self {
        self.assert_same_width(rhs, "and");
        self.map_words2(rhs, |a, b| a & b)
    }

    /// Bitwise OR.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    #[must_use]
    pub fn or(&self, rhs: &Self) -> Self {
        self.assert_same_width(rhs, "or");
        self.map_words2(rhs, |a, b| a | b)
    }

    /// Bitwise XOR.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    #[must_use]
    pub fn xor(&self, rhs: &Self) -> Self {
        self.assert_same_width(rhs, "xor");
        self.map_words2(rhs, |a, b| a ^ b)
    }

    /// Bitwise NOT.
    #[must_use]
    pub fn not(&self) -> Self {
        let mut out = Self::zero(self.width);
        for (d, &w) in out.words_mut().iter_mut().zip(self.words()) {
            *d = !w;
        }
        out.renormalize();
        out
    }

    /// Logical shift left. Shifts `>= width` yield zero.
    #[must_use]
    pub fn shl(&self, amount: u32) -> Self {
        if amount >= self.width {
            return Self::zero(self.width);
        }
        let mut out = Self::zero(self.width);
        let (skip, off) = ((amount / WORD_BITS) as usize, amount % WORD_BITS);
        let src = self.words();
        for (i, d) in out.words_mut().iter_mut().enumerate().skip(skip) {
            *d = src[i - skip] << off;
            if off != 0 && i > skip {
                *d |= src[i - skip - 1] >> (WORD_BITS - off);
            }
        }
        out.renormalize();
        out
    }

    /// Logical shift right. Shifts `>= width` yield zero.
    #[must_use]
    pub fn lshr(&self, amount: u32) -> Self {
        if amount >= self.width {
            return Self::zero(self.width);
        }
        let mut out = Self::zero(self.width);
        for (i, d) in out.words_mut().iter_mut().enumerate() {
            *d = window(self.words(), amount + i as u32 * WORD_BITS);
        }
        out
    }

    /// Arithmetic shift right (sign-filling). Shifts `>= width` yield
    /// all-zeros or all-ones depending on the sign bit.
    #[must_use]
    pub fn ashr(&self, amount: u32) -> Self {
        let sign = self.sign_bit();
        if amount >= self.width {
            return if sign { Self::all_ones(self.width) } else { Self::zero(self.width) };
        }
        let mut out = self.lshr(amount);
        if sign {
            set_ones(out.words_mut(), self.width - amount, self.width);
        }
        out
    }

    fn assert_same_width(&self, rhs: &Self, op: &str) {
        assert_eq!(
            self.width, rhs.width,
            "bit-vector {op}: width mismatch ({} vs {})",
            self.width, rhs.width
        );
    }
}

#[cfg(test)]
mod tests {
    use crate::BitVector;

    fn bv(v: u64, w: u32) -> BitVector {
        BitVector::from_u64(v, w)
    }

    #[test]
    fn add_wraps() {
        assert_eq!(bv(0xFF, 8).wrapping_add(&bv(2, 8)), bv(1, 8));
    }

    #[test]
    fn add_carries_across_words() {
        let a = BitVector::from_words(&[u64::MAX, 0], 128);
        let one = bv(1, 128).zext(128);
        let sum = a.wrapping_add(&one);
        assert_eq!(sum, BitVector::from_words(&[0, 1], 128));
    }

    #[test]
    fn sub_and_neg() {
        assert_eq!(bv(3, 8).wrapping_sub(&bv(5, 8)), bv(254, 8));
        assert_eq!(bv(1, 8).wrapping_neg(), bv(0xFF, 8));
        assert_eq!(BitVector::zero(8).wrapping_neg(), BitVector::zero(8));
    }

    #[test]
    fn mul_wraps_at_width() {
        assert_eq!(bv(16, 8).wrapping_mul(&bv(16, 8)), bv(0, 8));
        assert_eq!(bv(7, 16).wrapping_mul(&bv(6, 16)), bv(42, 16));
    }

    #[test]
    fn mul_wide() {
        let a = BitVector::from_u64(u64::MAX, 128).zext(128);
        let b = bv(2, 128);
        let p = a.wrapping_mul(&b);
        assert_eq!(p, BitVector::from_words(&[u64::MAX - 1, 1], 128));
    }

    #[test]
    fn div_rem_unsigned() {
        assert_eq!(bv(42, 8).unsigned_div(&bv(5, 8)), bv(8, 8));
        assert_eq!(bv(42, 8).unsigned_rem(&bv(5, 8)), bv(2, 8));
    }

    #[test]
    fn div_by_zero_convention() {
        assert_eq!(bv(42, 8).unsigned_div(&bv(0, 8)), BitVector::all_ones(8));
        assert_eq!(bv(42, 8).unsigned_rem(&bv(0, 8)), bv(42, 8));
        assert_eq!(bv(42, 8).signed_div(&bv(0, 8)), BitVector::all_ones(8));
        assert_eq!(bv(42, 8).signed_rem(&bv(0, 8)), bv(42, 8));
    }

    #[test]
    fn div_rem_wide() {
        let a = BitVector::from_words(&[0, 5], 128); // 5 << 64
        let b = bv(5, 128);
        assert_eq!(a.unsigned_div(&b), BitVector::from_words(&[0, 1], 128));
        assert!(a.unsigned_rem(&b).is_zero());
    }

    #[test]
    fn signed_div_signs() {
        let m5 = BitVector::from_i64(-5, 8);
        let p2 = bv(2, 8);
        assert_eq!(m5.signed_div(&p2), BitVector::from_i64(-2, 8));
        assert_eq!(m5.signed_rem(&p2), BitVector::from_i64(-1, 8));
        let m2 = BitVector::from_i64(-2, 8);
        assert_eq!(bv(5, 8).signed_div(&m2), BitVector::from_i64(-2, 8));
        assert_eq!(bv(5, 8).signed_rem(&m2), bv(1, 8));
    }

    #[test]
    fn signed_div_min_by_minus_one_wraps() {
        let min = BitVector::from_i64(i64::from(i8::MIN), 8);
        let m1 = BitVector::from_i64(-1, 8);
        assert_eq!(min.signed_div(&m1), min);
    }

    #[test]
    fn bitwise_ops() {
        assert_eq!(bv(0b1100, 4).and(&bv(0b1010, 4)), bv(0b1000, 4));
        assert_eq!(bv(0b1100, 4).or(&bv(0b1010, 4)), bv(0b1110, 4));
        assert_eq!(bv(0b1100, 4).xor(&bv(0b1010, 4)), bv(0b0110, 4));
        assert_eq!(bv(0b1100, 4).not(), bv(0b0011, 4));
    }

    #[test]
    fn shifts() {
        assert_eq!(bv(0b0011, 4).shl(2), bv(0b1100, 4));
        assert_eq!(bv(0b1100, 4).lshr(2), bv(0b0011, 4));
        assert_eq!(bv(0b1000, 4).ashr(2), bv(0b1110, 4));
        assert_eq!(bv(0b0100, 4).ashr(2), bv(0b0001, 4));
    }

    #[test]
    fn shift_out_of_range() {
        assert!(bv(0b1111, 4).shl(4).is_zero());
        assert!(bv(0b1111, 4).lshr(100).is_zero());
        assert_eq!(bv(0b1000, 4).ashr(100), BitVector::all_ones(4));
        assert!(bv(0b0111, 4).ashr(100).is_zero());
    }

    #[test]
    fn shift_across_words() {
        let v = bv(1, 130).shl(129);
        assert!(v.bit(129));
        assert_eq!(v.count_ones(), 1);
        assert_eq!(v.lshr(129), bv(1, 130));
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn mixed_width_add_panics() {
        let _ = bv(1, 8).wrapping_add(&bv(1, 16));
    }
}
