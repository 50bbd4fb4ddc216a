//! Operation signatures (Figure 3 of the paper).
//!
//! A signature is an image of the instruction word with one symbol per
//! bit: a *don't-care* (the operation's assembly function does not set
//! the bit), a constant `0`/`1`, or a *parameter symbol* — the bit is a
//! function of (one bit of) a single parameter's encoded value.
//!
//! The paper's **Axiom 1** — every parameter symbol is a function of a
//! single parameter only — holds by construction here because the ISDL
//! dialect restricts bitfield right-hand sides to
//! `const | param | param[h:l]`. It makes the assembly function
//! symbolically reversible: the disassembler (Figure 4) matches the
//! constant part of each signature against the instruction word and
//! reads parameter values straight out of the parameter-symbol bits,
//! and the HGEN decode logic (§4.2) turns the constant part into a
//! two-level decode equation.
//!
//! Each signature also keeps its constant part as 64-bit mask and value
//! words and its parameter symbols as a list, so matching a word is a
//! word compare and encoding or decoding visits only the parameter
//! bits. [`SignatureTable`] builds the signatures of a whole machine
//! once, for the assembler, the disassembler and HGEN's decoder alike.

use crate::error::{ErrorKind, IsdlError, Pos};
use crate::model::{BitAssign, BitRhs, FieldId, Machine, NtId, OpRef};
use bitv::BitVector;
use std::fmt;

/// One bit of a signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SigBit {
    /// The assembly function does not set this bit.
    DontCare,
    /// The bit is the given constant.
    Const(bool),
    /// The bit equals bit `bit` of parameter `param`'s encoded value.
    Param {
        /// Parameter index within the operation.
        param: usize,
        /// Bit of that parameter's encoded value.
        bit: u32,
    },
}

/// The signature of one operation or non-terminal option.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signature {
    width: u32,
    /// The symbols 64 bits at a time, least-significant word first.
    words: Vec<SigWord>,
    /// Every parameter symbol, by ascending bit position.
    param_bits: Vec<ParamBit>,
}

/// 64 bits of a signature as masks. Bits in neither `consts` nor
/// `params` are don't-cares.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct SigWord {
    /// A 1 at every constant bit.
    consts: u64,
    /// The constants' values, zero elsewhere.
    values: u64,
    /// A 1 at every parameter-symbol bit.
    params: u64,
}

/// A parameter symbol: instruction bit `pos` holds bit `bit` of
/// parameter `param`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ParamBit {
    pos: u32,
    param: usize,
    bit: u32,
}

/// Bit `i % 64` of `word`.
fn has_bit(word: u64, i: u32) -> bool {
    (word >> (i % 64)) & 1 == 1
}

/// Bit `i` of the little-endian `words`.
fn word_bit(words: &[u64], i: u32) -> bool {
    has_bit(words[(i / 64) as usize], i)
}

impl Signature {
    /// Builds the signature of an encoding over `width` bits.
    ///
    /// # Errors
    ///
    /// Returns an error if an assignment is out of range, two
    /// assignments overlap, or a constant's width does not match its
    /// bit range.
    pub fn from_encoding(assigns: &[BitAssign], width: u32) -> Result<Self, IsdlError> {
        let mut words = vec![SigWord::default(); (width as usize).div_ceil(64)];
        let param_count = assigns
            .iter()
            .filter(|a| matches!(a.rhs, BitRhs::Param { .. }))
            .map(|a| a.hi.saturating_sub(a.lo) as usize + 1)
            .sum();
        let mut param_bits = Vec::with_capacity(param_count);
        for a in assigns {
            if a.hi < a.lo || a.hi >= width {
                return Err(IsdlError::new(
                    ErrorKind::Encoding,
                    Pos::unknown(),
                    format!("bitfield range {}:{} out of range for width {width}", a.hi, a.lo),
                ));
            }
            let span = a.hi - a.lo + 1;
            for off in 0..span {
                let pos = a.lo + off;
                let (word, mask) = (&mut words[(pos / 64) as usize], 1u64 << (pos % 64));
                if (word.consts | word.params) & mask != 0 {
                    return Err(IsdlError::new(
                        ErrorKind::Encoding,
                        Pos::unknown(),
                        format!("instruction bit {pos} assigned twice"),
                    ));
                }
                match &a.rhs {
                    BitRhs::Const(c) => {
                        if c.width() != span {
                            return Err(IsdlError::new(
                                ErrorKind::Width,
                                Pos::unknown(),
                                format!(
                                    "constant width {} does not match bit range {}:{}",
                                    c.width(),
                                    a.hi,
                                    a.lo
                                ),
                            ));
                        }
                        word.consts |= mask;
                        if c.bit(off) {
                            word.values |= mask;
                        }
                    }
                    BitRhs::Param { index, hi, lo } => {
                        if hi < lo || hi - lo + 1 != span {
                            return Err(IsdlError::new(
                                ErrorKind::Width,
                                Pos::unknown(),
                                format!(
                                    "parameter slice {hi}:{lo} does not match bit range {}:{}",
                                    a.hi, a.lo
                                ),
                            ));
                        }
                        word.params |= mask;
                        param_bits.push(ParamBit { pos, param: *index, bit: lo + off });
                    }
                }
            }
        }
        param_bits.sort_unstable_by_key(|pb| pb.pos);
        Ok(Self { width, words, param_bits })
    }

    /// The signature width in bits.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// The symbol at bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn bit(&self, i: u32) -> SigBit {
        assert!(i < self.width, "signature bit {i} out of range for width {}", self.width);
        let word = self.words[(i / 64) as usize];
        if has_bit(word.consts, i) {
            SigBit::Const(has_bit(word.values, i))
        } else if has_bit(word.params, i) {
            let pb = self.param_bits[self.param_bits.partition_point(|pb| pb.pos < i)];
            SigBit::Param { param: pb.param, bit: pb.bit }
        } else {
            SigBit::DontCare
        }
    }

    /// Iterates over `(bit_index, symbol)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u32, SigBit)> + '_ {
        let mut params = self.param_bits.iter();
        (0..self.width).map(move |i| {
            let word = self.words[(i / 64) as usize];
            let sym = if has_bit(word.consts, i) {
                SigBit::Const(has_bit(word.values, i))
            } else if has_bit(word.params, i) {
                let pb = params.next().expect("one entry per parameter bit");
                SigBit::Param { param: pb.param, bit: pb.bit }
            } else {
                SigBit::DontCare
            };
            (i, sym)
        })
    }

    /// The constant part as `(mask, value)`: `mask` has a 1 wherever
    /// the signature has a constant, and `value` holds those constants.
    #[must_use]
    pub fn const_mask_value(&self) -> (BitVector, BitVector) {
        let w = self.width();
        let mask: Vec<u64> = self.words.iter().map(|s| s.consts).collect();
        let value: Vec<u64> = self.words.iter().map(|s| s.values).collect();
        (BitVector::from_words(&mask, w), BitVector::from_words(&value, w))
    }

    /// Whether `word` matches the constant part of this signature.
    /// Only the low `self.width()` bits of `word` are examined; `word`
    /// must be at least as wide.
    ///
    /// # Panics
    ///
    /// Panics if `word` is narrower than the signature.
    #[must_use]
    pub fn matches(&self, word: &BitVector) -> bool {
        assert!(word.width() >= self.width(), "word narrower than signature");
        self.words.iter().zip(word.words()).all(|(s, &w)| w & s.consts == s.values)
    }

    /// Reverses the encoding of parameter `param`: reads its value
    /// (of `enc_width` bits) out of the parameter-symbol bits of `word`.
    /// Parameter bits never placed in the word read as zero.
    ///
    /// # Panics
    ///
    /// Panics if `word` is narrower than the signature.
    #[must_use]
    pub fn extract_param(&self, word: &BitVector, param: usize, enc_width: u32) -> BitVector {
        assert!(word.width() >= self.width(), "word narrower than signature");
        let n = (enc_width as usize).div_ceil(64);
        // Parameters up to 256 bits wide are gathered without allocating.
        let (mut small, mut large) = ([0u64; 4], Vec::new());
        let out = if n <= small.len() {
            &mut small[..n]
        } else {
            large.resize(n, 0);
            &mut large[..]
        };
        for pb in &self.param_bits {
            if pb.param == param && pb.bit < enc_width && word_bit(word.words(), pb.pos) {
                out[(pb.bit / 64) as usize] |= 1 << (pb.bit % 64);
            }
        }
        BitVector::from_words(out, enc_width)
    }

    /// Encodes: applies constants and parameter values onto `word`
    /// (which must be at least as wide as the signature).
    ///
    /// # Panics
    ///
    /// Panics if `word` is narrower than the signature or a parameter
    /// value is missing / too narrow for a referenced bit.
    #[must_use]
    pub fn apply(&self, word: &BitVector, params: &[BitVector]) -> BitVector {
        assert!(word.width() >= self.width(), "word narrower than signature");
        let mut out = word.words().to_vec();
        for (w, s) in out.iter_mut().zip(&self.words) {
            *w = (*w & !s.consts) | s.values;
        }
        for pb in &self.param_bits {
            let v = &params[pb.param];
            let set = pb.bit < v.width() && word_bit(v.words(), pb.bit);
            let (w, bit) = (&mut out[(pb.pos / 64) as usize], 1u64 << (pb.pos % 64));
            *w = if set { *w | bit } else { *w & !bit };
        }
        BitVector::from_words(&out, word.width())
    }

    /// Whether two signatures are *distinguishable*: some bit is a
    /// constant in both and the constants differ. The disassembler's
    /// unique-match guarantee (and the field-level decodability check)
    /// relies on every same-field pair being distinguishable.
    #[must_use]
    pub fn distinguishable_from(&self, other: &Self) -> bool {
        let mut pairs = self.words.iter().zip(&other.words);
        pairs.any(|(a, b)| a.consts & b.consts & (a.values ^ b.values) != 0)
    }

    /// The set of bit positions this signature assigns (constant or
    /// parameter), as a mask.
    #[must_use]
    pub fn assigned_mask(&self) -> BitVector {
        let m: Vec<u64> = self.words.iter().map(|s| s.consts | s.params).collect();
        BitVector::from_words(&m, self.width())
    }

    /// The decode-equation literals (§4.2): `(bit, polarity)` pairs —
    /// the two-level AND that recognises this operation. `polarity`
    /// true means the plain bit, false the complemented bit.
    #[must_use]
    pub fn decode_literals(&self) -> Vec<(u32, bool)> {
        (0..self.width)
            .map(|i| (i, self.words[(i / 64) as usize]))
            .filter(|&(i, word)| has_bit(word.consts, i))
            .map(|(i, word)| (i, has_bit(word.values, i)))
            .collect()
    }
}

/// An operation or non-terminal option whose encoding yields no
/// signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodingError {
    /// The operation (`field.op`) or option (`nonterminal.option`).
    pub owner: String,
    /// Why its signature could not be derived.
    pub error: IsdlError,
}

impl fmt::Display for EncodingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.owner, self.error)
    }
}

impl std::error::Error for EncodingError {}

/// The signatures of one machine: each operation's over its own
/// `size * word_width` bits, and each non-terminal option's over the
/// non-terminal's width. The assembler, the disassembler and HGEN's
/// decoder all build their encode and decode tables from this.
#[derive(Debug, Clone)]
pub struct SignatureTable {
    /// `ops[f][o]`: operation `o` of field `f`.
    ops: Vec<Vec<Signature>>,
    /// `options[n][o]`: option `o` of non-terminal `n`.
    options: Vec<Vec<Signature>>,
}

impl SignatureTable {
    /// Derives every signature of `machine`.
    ///
    /// # Errors
    ///
    /// An [`EncodingError`] naming the first operation or option whose
    /// encoding is inconsistent; machines from [`crate::load`] have
    /// none.
    pub fn new(machine: &Machine) -> Result<Self, EncodingError> {
        let sig = |assigns: &[BitAssign], width, owner: &dyn Fn() -> String| {
            Signature::from_encoding(assigns, width)
                .map_err(|error| EncodingError { owner: owner(), error })
        };
        let ops = machine
            .fields
            .iter()
            .map(|f| {
                f.ops
                    .iter()
                    .map(|o| {
                        let width = o.costs.size * machine.word_width;
                        sig(&o.encode, width, &|| format!("{}.{}", f.name, o.name))
                    })
                    .collect()
            })
            .collect::<Result<_, _>>()?;
        let options = machine
            .nonterminals
            .iter()
            .map(|nt| {
                nt.options
                    .iter()
                    .map(|o| sig(&o.encode, nt.width, &|| format!("{}.{}", nt.name, o.name)))
                    .collect()
            })
            .collect::<Result<_, _>>()?;
        Ok(Self { ops, options })
    }

    /// The signature of an operation.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    #[must_use]
    pub fn op(&self, r: OpRef) -> &Signature {
        &self.ops[r.field.0][r.op]
    }

    /// The signatures of a field's operations, in operation order.
    ///
    /// # Panics
    ///
    /// Panics if `f` is out of range.
    #[must_use]
    pub fn field(&self, f: FieldId) -> &[Signature] {
        &self.ops[f.0]
    }

    /// The signatures of a non-terminal's options, in option order.
    ///
    /// # Panics
    ///
    /// Panics if `nt` is out of range.
    #[must_use]
    pub fn options(&self, nt: NtId) -> &[Signature] {
        &self.options[nt.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{BitAssign, BitRhs};

    fn const_assign(hi: u32, lo: u32, v: u64) -> BitAssign {
        BitAssign { hi, lo, rhs: BitRhs::Const(BitVector::from_u64(v, hi - lo + 1)) }
    }

    fn param_assign(hi: u32, lo: u32, index: usize) -> BitAssign {
        BitAssign { hi, lo, rhs: BitRhs::Param { index, hi: hi - lo, lo: 0 } }
    }

    /// The `op2` example from Figure 3: constants in the top bits,
    /// a parameter in the low byte.
    fn fig3_like() -> Signature {
        Signature::from_encoding(&[const_assign(9, 5, 0b10110), param_assign(4, 0, 0)], 10)
            .expect("valid encoding")
    }

    #[test]
    fn constants_and_params_placed() {
        let s = fig3_like();
        assert_eq!(s.bit(9), SigBit::Const(true));
        assert_eq!(s.bit(8), SigBit::Const(false));
        assert_eq!(s.bit(0), SigBit::Param { param: 0, bit: 0 });
        assert_eq!(s.bit(4), SigBit::Param { param: 0, bit: 4 });
    }

    #[test]
    fn match_and_extract() {
        let s = fig3_like();
        let word = BitVector::from_u64(0b10110_10101, 10);
        assert!(s.matches(&word));
        assert_eq!(s.extract_param(&word, 0, 5), BitVector::from_u64(0b10101, 5));
        let bad = BitVector::from_u64(0b10111_10101, 10);
        assert!(!s.matches(&bad));
    }

    #[test]
    fn apply_is_inverse_of_extract() {
        let s = fig3_like();
        let p = BitVector::from_u64(0b01101, 5);
        let word = s.apply(&BitVector::zero(10), std::slice::from_ref(&p));
        assert!(s.matches(&word));
        assert_eq!(s.extract_param(&word, 0, 5), p);
    }

    #[test]
    fn overlap_rejected() {
        let r = Signature::from_encoding(&[const_assign(3, 0, 5), const_assign(2, 1, 1)], 8);
        assert!(r.is_err());
    }

    #[test]
    fn out_of_range_rejected() {
        assert!(Signature::from_encoding(&[const_assign(8, 0, 0)], 8).is_err());
    }

    #[test]
    fn const_width_mismatch_rejected() {
        let bad = BitAssign { hi: 3, lo: 0, rhs: BitRhs::Const(BitVector::from_u64(1, 2)) };
        assert!(Signature::from_encoding(&[bad], 8).is_err());
    }

    #[test]
    fn distinguishable() {
        let a = Signature::from_encoding(&[const_assign(3, 0, 0b0001)], 4).expect("ok");
        let b = Signature::from_encoding(&[const_assign(3, 0, 0b0010)], 4).expect("ok");
        assert!(a.distinguishable_from(&b));
        let c = Signature::from_encoding(&[param_assign(3, 0, 0)], 4).expect("ok");
        assert!(!a.distinguishable_from(&c));
    }

    #[test]
    fn mask_value_and_literals() {
        let s = fig3_like();
        let (mask, value) = s.const_mask_value();
        assert_eq!(mask, BitVector::from_u64(0b11111_00000, 10));
        assert_eq!(value, BitVector::from_u64(0b10110_00000, 10));
        let lits = s.decode_literals();
        assert_eq!(lits.len(), 5);
        assert!(lits.contains(&(9, true)));
        assert!(lits.contains(&(8, false)));
    }

    #[test]
    fn assigned_mask_covers_params_too() {
        let s = fig3_like();
        assert_eq!(s.assigned_mask(), BitVector::all_ones(10));
        let partial = Signature::from_encoding(&[const_assign(9, 8, 0b01)], 10).expect("ok");
        assert_eq!(partial.assigned_mask(), BitVector::from_u64(0b11_0000_0000, 10));
    }

    #[test]
    fn wide_signature_spans_the_word_boundary() {
        // word[127:120] = 0xA5, word[70:60] = p0[10:0], word[3:0] = p1.
        let s = Signature::from_encoding(
            &[const_assign(127, 120, 0xA5), param_assign(70, 60, 0), param_assign(3, 0, 1)],
            128,
        )
        .expect("valid encoding");
        assert_eq!(s.bit(63), SigBit::Param { param: 0, bit: 3 });
        assert_eq!(s.bit(64), SigBit::Param { param: 0, bit: 4 });
        assert_eq!(s.bit(127), SigBit::Const(true));
        assert_eq!(s.bit(100), SigBit::DontCare);
        assert!(s.iter().all(|(i, b)| b == s.bit(i)), "iter agrees with bit");
        let params = [BitVector::from_u64(0x5A3, 11), BitVector::from_u64(0x9, 4)];
        let word = s.apply(&BitVector::all_ones(128), &params);
        assert!(s.matches(&word));
        assert_eq!(word.slice(127, 120).to_u64_lossy(), 0xA5);
        assert_eq!(word.slice(70, 60).to_u64_lossy(), 0x5A3);
        assert_eq!(word.slice(119, 71), BitVector::all_ones(49), "don't-cares kept");
        assert_eq!(s.extract_param(&word, 0, 11), params[0]);
        assert_eq!(s.extract_param(&word, 1, 4), params[1]);
        assert!(!s.matches(&word.with_bit(121, true)));
        let assigned = s.assigned_mask();
        assert_eq!(assigned.count_ones(), 8 + 11 + 4);
        assert_eq!(s.decode_literals().len(), 8);
    }

    #[test]
    fn param_slice_placement() {
        // word[7:4] = p[11:8] — upper nibble of a 12-bit parameter.
        let a = BitAssign { hi: 7, lo: 4, rhs: BitRhs::Param { index: 0, hi: 11, lo: 8 } };
        let s = Signature::from_encoding(&[a], 8).expect("ok");
        assert_eq!(s.bit(4), SigBit::Param { param: 0, bit: 8 });
        assert_eq!(s.bit(7), SigBit::Param { param: 0, bit: 11 });
        let p = BitVector::from_u64(0xA00, 12);
        let word = s.apply(&BitVector::zero(8), &[p]);
        assert_eq!(word.slice(7, 4).to_u64_lossy(), 0xA);
    }
}
