//! The signature-matching disassembler (Figure 4 of the paper).
//!
//! For every operation in every field (and every option of every
//! non-terminal) a [`Signature`] is precomputed. Decoding an
//! instruction then:
//!
//! 1. matches the *constant* part of each operation's signature against
//!    the instruction word — by the decodability validation this match
//!    is unique within a field;
//! 2. reverses every parameter encoding symbolically (the paper's
//!    Axiom 1 guarantees each parameter symbol depends on one parameter
//!    only);
//! 3. recurses into non-terminal parameters using the extracted return
//!    value as the sub-word to match options against.
//!
//! Decoding is total: any input either produces a [`DecodedInstr`] or a
//! [`DisasmError`] diagnostic — arbitrary binary never panics.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::error::DisasmError;
use bitv::BitVector;
use isdl::model::{FieldId, Machine, NtId, OpRef, Operation, ParamType, TokenKind};
use isdl::signature::{Signature, SignatureTable};
use std::fmt::Write as _;

/// A decoded operand value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Operand {
    /// A token operand: the raw encoded value (register index,
    /// immediate bits, or enum position).
    Token(BitVector),
    /// A non-terminal operand: which option matched and its operands.
    NonTerminal {
        /// The non-terminal.
        nt: NtId,
        /// Index of the matched option.
        option: usize,
        /// The option's decoded operands.
        args: Vec<Operand>,
    },
}

/// One decoded operation (one field's slot of an instruction).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedOp {
    /// Which operation matched.
    pub op: OpRef,
    /// Its decoded operands, in parameter order.
    pub args: Vec<Operand>,
}

/// A fully decoded VLIW instruction: one operation per field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedInstr {
    /// One entry per machine field, in field order.
    pub ops: Vec<DecodedOp>,
    /// Instruction size in words (maximum over the selected
    /// operations' `size` costs).
    pub size: u32,
}

impl DecodedInstr {
    /// The per-field selection vector (op index per field), as used by
    /// constraint checking.
    #[must_use]
    pub fn selection(&self) -> Vec<usize> {
        self.ops.iter().map(|o| o.op.op).collect()
    }
}

/// A signature-based disassembler for one machine.
///
/// Construction precomputes every operation and option signature, so
/// per-word decoding is cheap — the simulator uses this for its
/// off-line disassembly pass at load time.
#[derive(Debug)]
pub struct Disassembler<'m> {
    machine: &'m Machine,
    sigs: SignatureTable,
    max_size: u32,
}

impl<'m> Disassembler<'m> {
    /// Builds the disassembler for `machine`.
    ///
    /// # Panics
    ///
    /// Panics if the machine's encodings are internally inconsistent;
    /// machines produced by [`isdl::load`] never are. Use
    /// [`Disassembler::try_new`] when the machine comes from an
    /// untrusted generator.
    #[must_use]
    pub fn new(machine: &'m Machine) -> Self {
        match Self::try_new(machine) {
            Ok(d) => d,
            Err(e) => panic!("{e}"),
        }
    }

    /// Builds the disassembler for `machine`, reporting inconsistent
    /// encodings as a diagnostic instead of panicking.
    ///
    /// # Errors
    ///
    /// [`DisasmError::InconsistentEncoding`] naming the operation or
    /// option whose signature could not be derived.
    pub fn try_new(machine: &'m Machine) -> Result<Self, DisasmError> {
        let sigs = SignatureTable::new(machine)
            .map_err(|e| DisasmError::InconsistentEncoding { context: e.to_string() })?;
        Ok(Self { machine, sigs, max_size: machine.max_op_size() })
    }

    /// The machine this disassembler was generated from.
    #[must_use]
    pub fn machine(&self) -> &'m Machine {
        self.machine
    }

    /// Maximum instruction size in words; callers should supply this
    /// many words to [`Self::decode`] when available.
    #[must_use]
    pub fn max_size(&self) -> u32 {
        self.max_size
    }

    /// The precomputed signature of an operation.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    #[must_use]
    pub fn signature(&self, r: OpRef) -> &Signature {
        self.sigs.op(r)
    }

    /// Decodes one instruction starting at `words[0]`. `addr` is used
    /// only for error reporting. Fewer than [`Self::max_size`] words may
    /// be supplied near the end of memory; missing words read as zero.
    ///
    /// # Errors
    ///
    /// [`DisasmError::IllegalInstruction`] if some field has no
    /// matching operation, [`DisasmError::Truncated`] if the matched
    /// instruction needs more words than remain.
    pub fn decode(&self, words: &[BitVector], addr: u64) -> Result<DecodedInstr, DisasmError> {
        let w = self.machine.word_width;
        let wide_width = self.max_size * w;
        // Build the wide instruction image: word k occupies bits
        // [k*w + w - 1 : k*w].
        let mut wide = BitVector::zero(wide_width);
        for (k, word) in words.iter().take(self.max_size as usize).enumerate() {
            let k = k as u32;
            wide = wide.with_slice(k * w + w - 1, k * w, &word.trunc(w));
        }
        let mut ops = Vec::with_capacity(self.machine.fields.len());
        let mut size = 1;
        for (fi, field) in self.machine.fields.iter().enumerate() {
            let sigs = self.sigs.field(FieldId(fi));
            let Some(oi) = sigs.iter().position(|sig| sig.matches(&wide)) else {
                return Err(DisasmError::IllegalInstruction { field: field.name.clone(), addr });
            };
            let op = &field.ops[oi];
            size = size.max(op.costs.size);
            let args = self.decode_args(op, &sigs[oi], &wide, addr)?;
            ops.push(DecodedOp { op: OpRef { field: FieldId(fi), op: oi }, args });
        }
        if size as usize > words.len() {
            return Err(DisasmError::Truncated { addr });
        }
        Ok(DecodedInstr { ops, size })
    }

    fn decode_args(
        &self,
        op: &Operation,
        sig: &Signature,
        word: &BitVector,
        addr: u64,
    ) -> Result<Vec<Operand>, DisasmError> {
        let mut args = Vec::with_capacity(op.params.len());
        for (pi, p) in op.params.iter().enumerate() {
            let enc_w = self.machine.param_encoding_width(p.ty);
            let raw = sig.extract_param(word, pi, enc_w);
            args.push(match p.ty {
                ParamType::Token(_) => Operand::Token(raw),
                ParamType::NonTerminal(n) => self.decode_nt(n, &raw, addr)?,
            });
        }
        Ok(args)
    }

    fn decode_nt(&self, nt_id: NtId, sub: &BitVector, addr: u64) -> Result<Operand, DisasmError> {
        let nt = &self.machine.nonterminals[nt_id.0];
        for (oi, sig) in self.sigs.options(nt_id).iter().enumerate() {
            if sig.matches(sub) {
                let option = &nt.options[oi];
                let args = self.decode_args(option, sig, sub, addr)?;
                return Ok(Operand::NonTerminal { nt: nt_id, option: oi, args });
            }
        }
        // A validated machine's options cover all generated encodings,
        // but arbitrary binary (or a buggy generator) may still miss.
        // Formerly this fell back to a raw token operand, which blew up
        // later inside RTL execution; surface it at decode time instead.
        Err(DisasmError::UndecodableOperand { nt: nt.name.clone(), addr })
    }

    /// Formats a decoded instruction back into assembly text, using the
    /// token definitions for operand spellings.
    #[must_use]
    pub fn format_instr(&self, instr: &DecodedInstr) -> String {
        let mut parts = Vec::new();
        for d in &instr.ops {
            let field = &self.machine.fields[d.op.field.0];
            // Skip trailing pure-nop slots for readability, but always
            // print at least one op.
            if Some(d.op.op) == field.nop && instr.ops.len() > 1 {
                continue;
            }
            parts.push(self.format_op(d));
        }
        if parts.is_empty() {
            // Every field was its nop: print the first field's nop.
            parts.push(self.format_op(&instr.ops[0]));
        }
        parts.join(" | ")
    }

    fn format_op(&self, d: &DecodedOp) -> String {
        let op = self.machine.op(d.op);
        let mut s = op.name.clone();
        for (i, (param, arg)) in op.params.iter().zip(&d.args).enumerate() {
            s.push_str(if i == 0 { " " } else { ", " });
            self.format_operand(param.ty, arg, &mut s);
        }
        s
    }

    fn format_operand(&self, ty: ParamType, arg: &Operand, out: &mut String) {
        match (ty, arg) {
            (ParamType::Token(t), Operand::Token(v)) => {
                let tok = &self.machine.tokens[t.0];
                match &tok.kind {
                    TokenKind::Register { prefix, .. } => {
                        let _ = write!(out, "{prefix}{}", v.to_u64_lossy());
                    }
                    TokenKind::Immediate { signed } => {
                        if *signed {
                            let _ = write!(out, "{}", v.to_i64().unwrap_or_default());
                        } else {
                            let _ = write!(out, "{}", v.to_u64_lossy());
                        }
                    }
                    TokenKind::Enum { names } => {
                        let idx = v.to_u64_lossy() as usize;
                        match names.get(idx) {
                            Some(n) => out.push_str(n),
                            None => {
                                let _ = write!(out, "<enum {idx}>");
                            }
                        }
                    }
                }
            }
            (ParamType::NonTerminal(n), Operand::NonTerminal { option, args, .. }) => {
                let nt = &self.machine.nonterminals[n.0];
                let opt = &nt.options[*option];
                out.push_str(&opt.name);
                out.push('(');
                for (i, (p, a)) in opt.params.iter().zip(args).enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    self.format_operand(p.ty, a, out);
                }
                out.push(')');
            }
            // Mismatched shapes only arise from undecodable raw bits.
            (_, Operand::Token(v)) => {
                let _ = write!(out, "<raw {v}>");
            }
            (_, Operand::NonTerminal { .. }) => out.push_str("<bad operand>"),
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use isdl::samples::TOY;

    fn decode_one(machine: &Machine, word: u64) -> DecodedInstr {
        let d = Disassembler::new(machine);
        d.decode(&[BitVector::from_u64(word, machine.word_width)], 0).expect("decodes")
    }

    #[test]
    fn decode_add_with_nt() {
        let m = isdl::load(TOY).expect("loads");
        // add R2, R1, reg(R3): op 00001, d=2, a=1, s=0b0011; MOVE nop.
        let word = (0b00001u64 << 27) | (2 << 24) | (1 << 21) | (0b0011 << 17);
        let i = decode_one(&m, word);
        let add = &i.ops[0];
        assert_eq!(m.op_name(add.op), "ALU.add");
        assert_eq!(add.args[0], Operand::Token(BitVector::from_u64(2, 3)));
        match &add.args[2] {
            Operand::NonTerminal { option, args, .. } => {
                assert_eq!(*option, 0); // reg
                assert_eq!(args[0], Operand::Token(BitVector::from_u64(3, 3)));
            }
            other => panic!("expected non-terminal operand, got {other:?}"),
        }
        assert_eq!(m.op_name(i.ops[1].op), "MOVE.nop");
    }

    #[test]
    fn decode_indirect_option() {
        let m = isdl::load(TOY).expect("loads");
        // sub R0, R1, ind(R2): op 00010, s = 0b1010.
        let word = (0b00010u64 << 27) | (1 << 21) | (0b1010 << 17);
        let i = decode_one(&m, word);
        match &i.ops[0].args[2] {
            Operand::NonTerminal { option, .. } => assert_eq!(*option, 1),
            other => panic!("expected non-terminal, got {other:?}"),
        }
    }

    #[test]
    fn illegal_instruction() {
        let m = isdl::load(TOY).expect("loads");
        let d = Disassembler::new(&m);
        // ALU opcode 11111 is undefined.
        let word = BitVector::from_u64(0b11111u64 << 27, 32);
        let e = d.decode(&[word], 4).expect_err("illegal");
        assert!(
            matches!(e, DisasmError::IllegalInstruction { ref field, addr: 4 } if field == "ALU")
        );
    }

    #[test]
    fn format_round_trip_text() {
        let m = isdl::load(TOY).expect("loads");
        let d = Disassembler::new(&m);
        let word = (0b00101u64 << 27) | (4 << 24) | (0x2A << 16); // li R4, 42
        let i = d.decode(&[BitVector::from_u64(word, 32)], 0).expect("decodes");
        assert_eq!(d.format_instr(&i), "li R4, 42");
    }

    #[test]
    fn format_parallel_ops() {
        let m = isdl::load(TOY).expect("loads");
        let d = Disassembler::new(&m);
        // add R2, R1, reg(R3) | mv R4, R5
        let word = (0b00001u64 << 27)
            | (2 << 24)
            | (1 << 21)
            | (0b0011 << 17)
            | (0b001 << 13)
            | (4 << 10)
            | (5 << 7);
        let i = d.decode(&[BitVector::from_u64(word, 32)], 0).expect("decodes");
        assert_eq!(d.format_instr(&i), "add R2, R1, reg(R3) | mv R4, R5");
    }

    #[test]
    fn all_nops_formats_one() {
        let m = isdl::load(TOY).expect("loads");
        let d = Disassembler::new(&m);
        let i = d.decode(&[BitVector::zero(32)], 0).expect("decodes");
        assert_eq!(d.format_instr(&i), "nop");
    }
}
