//! Property-based tests: `BitVector` arithmetic must agree with
//! native `u128` arithmetic masked to the width, for every operation
//! and width; shifts, slices, concatenation and width changes must
//! agree with a one-`bool`-per-bit model at widths up to 200 bits,
//! where values span up to four 64-bit words.
#![allow(clippy::manual_checked_ops)] // div-by-zero branch mirrors the documented convention

use bitv::BitVector;
use proptest::prelude::*;

fn mask(w: u32) -> u128 {
    if w >= 128 {
        u128::MAX
    } else {
        (1u128 << w) - 1
    }
}

prop_compose! {
    /// A width in 1..=100 and two values fitting it.
    fn wav()(w in 1u32..=100)(
        w in Just(w),
        a in 0u128..=u128::MAX,
        b in 0u128..=u128::MAX,
    ) -> (u32, u128, u128) {
        (w, a & mask(w), b & mask(w))
    }
}

fn bv(v: u128, w: u32) -> BitVector {
    BitVector::from_words(&[v as u64, (v >> 64) as u64], w)
}

fn back(v: &BitVector) -> u128 {
    let lo = u128::from(v.slice(63.min(v.width() - 1), 0).to_u64_lossy());
    if v.width() > 64 {
        lo | (u128::from(v.slice(v.width() - 1, 64).to_u64_lossy()) << 64)
    } else {
        lo
    }
}

proptest! {
    #[test]
    fn add_matches_u128((w, a, b) in wav()) {
        let got = back(&bv(a, w).wrapping_add(&bv(b, w)));
        prop_assert_eq!(got, a.wrapping_add(b) & mask(w));
    }

    #[test]
    fn sub_matches_u128((w, a, b) in wav()) {
        let got = back(&bv(a, w).wrapping_sub(&bv(b, w)));
        prop_assert_eq!(got, a.wrapping_sub(b) & mask(w));
    }

    #[test]
    fn mul_matches_u128((w, a, b) in wav()) {
        let got = back(&bv(a, w).wrapping_mul(&bv(b, w)));
        prop_assert_eq!(got, a.wrapping_mul(b) & mask(w));
    }

    #[test]
    fn divrem_matches_u128((w, a, b) in wav()) {
        let q = back(&bv(a, w).unsigned_div(&bv(b, w)));
        let r = back(&bv(a, w).unsigned_rem(&bv(b, w)));
        if b == 0 {
            prop_assert_eq!(q, mask(w));
            prop_assert_eq!(r, a);
        } else {
            prop_assert_eq!(q, a / b);
            prop_assert_eq!(r, a % b);
        }
    }

    #[test]
    fn bitwise_matches_u128((w, a, b) in wav()) {
        prop_assert_eq!(back(&bv(a, w).and(&bv(b, w))), a & b);
        prop_assert_eq!(back(&bv(a, w).or(&bv(b, w))), a | b);
        prop_assert_eq!(back(&bv(a, w).xor(&bv(b, w))), a ^ b);
        prop_assert_eq!(back(&bv(a, w).not()), !a & mask(w));
    }

    #[test]
    fn shifts_match_u128((w, a, _b) in wav(), amt in 0u32..130) {
        let shl = back(&bv(a, w).shl(amt));
        let expect = if amt >= w { 0 } else { (a << amt) & mask(w) };
        prop_assert_eq!(shl, expect);
        let shr = back(&bv(a, w).lshr(amt));
        let expect = if amt >= w { 0 } else { a >> amt };
        prop_assert_eq!(shr, expect);
    }

    #[test]
    fn ashr_fills_with_sign((w, a, _b) in wav(), amt in 0u32..130) {
        let v = bv(a, w);
        let got = back(&v.ashr(amt));
        let sign = (a >> (w - 1)) & 1 == 1;
        let expect = if amt >= w {
            if sign { mask(w) } else { 0 }
        } else {
            let logical = a >> amt;
            if sign {
                logical | (mask(w) & !(mask(w) >> amt))
            } else {
                logical
            }
        };
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn neg_is_additive_inverse((w, a, _b) in wav()) {
        let v = bv(a, w);
        prop_assert!(v.wrapping_add(&v.wrapping_neg()).is_zero());
    }

    #[test]
    fn slice_concat_roundtrip((w, a, _b) in wav(), cut in 1u32..100) {
        prop_assume!(w >= 2);
        let cut = cut % (w - 1) + 1; // 1..w
        let v = bv(a, w);
        let hi = v.slice(w - 1, cut);
        let lo = v.slice(cut - 1, 0);
        prop_assert_eq!(hi.concat(&lo), v);
    }

    #[test]
    fn zext_then_trunc_is_identity((w, a, _b) in wav(), extra in 1u32..40) {
        let v = bv(a, w);
        prop_assert_eq!(v.zext(w + extra).trunc(w), v.clone());
        // And sign extension preserves two's-complement value.
        let sv = v.sext(w + extra);
        prop_assert_eq!(sv.trunc(w), v);
    }

    #[test]
    fn compare_matches_u128((w, a, b) in wav()) {
        prop_assert_eq!(bv(a, w).cmp_unsigned(&bv(b, w)), a.cmp(&b));
        // Signed comparison via sign-extended i128 reference.
        let sx = |x: u128| -> i128 {
            if (x >> (w - 1)) & 1 == 1 { (x | !mask(w)) as i128 } else { x as i128 }
        };
        prop_assert_eq!(bv(a, w).cmp_signed(&bv(b, w)), sx(a).cmp(&sx(b)));
    }

    #[test]
    fn signed_div_matches_i128((w, a, b) in wav()) {
        prop_assume!(b != 0);
        let sx = |x: u128| -> i128 {
            if (x >> (w - 1)) & 1 == 1 { (x | !mask(w)) as i128 } else { x as i128 }
        };
        let q = back(&bv(a, w).signed_div(&bv(b, w)));
        let r = back(&bv(a, w).signed_rem(&bv(b, w)));
        prop_assert_eq!(q, sx(a).wrapping_div(sx(b)) as u128 & mask(w));
        prop_assert_eq!(r, sx(a).wrapping_rem(sx(b)) as u128 & mask(w));
    }

    #[test]
    fn display_parse_roundtrip((w, a, _b) in wav()) {
        let v = bv(a, w);
        let parsed: BitVector = v.to_string().parse().expect("display output parses");
        prop_assert_eq!(parsed, v);
    }
}

/// A width in 1..=200 and a bit pattern of that width, least
/// significant bit first.
fn bits_strategy() -> impl Strategy<Value = Vec<bool>> {
    proptest::collection::vec(any::<bool>(), 1usize..=200)
}

fn from_bits(bits: &[bool]) -> BitVector {
    let mut words = vec![0u64; bits.len().div_ceil(64)];
    for (i, &b) in bits.iter().enumerate() {
        words[i / 64] |= u64::from(b) << (i % 64);
    }
    BitVector::from_words(&words, bits.len() as u32)
}

fn to_bits(v: &BitVector) -> Vec<bool> {
    (0..v.width()).map(|i| v.bit(i)).collect()
}

proptest! {
    #[test]
    fn wide_shifts_match_the_bit_model(m in bits_strategy(), amt in 0u32..220) {
        let v = from_bits(&m);
        let (n, a) = (m.len(), amt as usize);
        let sign = m[n - 1];
        let shl: Vec<bool> = (0..n).map(|i| i >= a && m[i - a]).collect();
        let lshr: Vec<bool> = (0..n).map(|i| i + a < n && m[i + a]).collect();
        let ashr: Vec<bool> = (0..n).map(|i| if i + a < n { m[i + a] } else { sign }).collect();
        prop_assert_eq!(to_bits(&v.shl(amt)), shl);
        prop_assert_eq!(to_bits(&v.lshr(amt)), lshr);
        prop_assert_eq!(to_bits(&v.ashr(amt)), ashr);
    }

    #[test]
    fn wide_slices_match_the_bit_model(
        m in bits_strategy(),
        x in any::<u32>(),
        y in any::<u32>(),
        src in proptest::collection::vec(any::<bool>(), 200),
    ) {
        let n = m.len() as u32;
        let (lo, hi) = { let (a, b) = (x % n, y % n); (a.min(b), a.max(b)) };
        let (l, h) = (lo as usize, hi as usize);
        let v = from_bits(&m);
        prop_assert_eq!(to_bits(&v.slice(hi, lo)), m[l..=h].to_vec());
        let patch = &src[..=h - l];
        let mut want = m.clone();
        want[l..=h].copy_from_slice(patch);
        prop_assert_eq!(to_bits(&v.with_slice(hi, lo, &from_bits(patch))), want);
    }

    #[test]
    fn wide_concat_matches_the_bit_model(hi in bits_strategy(), lo in bits_strategy()) {
        let mut want = lo.clone();
        want.extend(&hi);
        prop_assert_eq!(to_bits(&from_bits(&hi).concat(&from_bits(&lo))), want);
    }

    #[test]
    fn wide_width_changes_match_the_bit_model(m in bits_strategy(), to in 1u32..=200) {
        let v = from_bits(&m);
        let n = to as usize;
        let sign = m[m.len() - 1];
        let fill = |ext: bool| -> Vec<bool> {
            (0..n).map(|i| if i < m.len() { m[i] } else { ext }).collect()
        };
        prop_assert_eq!(to_bits(&v.zext(to)), fill(false));
        prop_assert_eq!(to_bits(&v.sext(to)), fill(sign));
        if n <= m.len() {
            prop_assert_eq!(to_bits(&v.trunc(to)), m[..n].to_vec());
        }
    }
}
