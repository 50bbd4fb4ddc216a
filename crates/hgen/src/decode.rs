//! Decode-logic generation (§4.2 of the paper).
//!
//! The disassembler and the hardware decoder implement the same
//! function — reversing the assembly function — so both come from the
//! operation signatures. For each operation a *decode line* is the
//! two-level AND of the signature's constant literals (e.g.
//! `I9 & I8 & ~I6 & ~I5` for Figure 3's `op2`); parameter values are
//! recovered by wiring the parameter-symbol bits straight out of the
//! instruction word.
//!
//! A *naive* alternative (whole-word equality comparators per
//! operation, masking parameter bits) is provided for the decode
//! ablation bench; it is functionally identical but costs a masked
//! comparator per operation instead of a few literals.

use isdl::model::{Machine, NtId, OpRef, Operation, ParamType};
use isdl::signature::{SigBit, Signature, SignatureTable};
use vlog::ast::{VBinOp, VExpr, VUnOp};

/// How decode lines are implemented.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DecodeStyle {
    /// Two-level literal AND from the signature constants (the paper's
    /// scheme — "an efficient two-level implementation").
    #[default]
    TwoLevel,
    /// Masked whole-word comparator per operation (ablation baseline).
    NaiveComparator,
}

/// Precomputed signatures for a machine.
#[derive(Debug)]
pub struct DecodePlan<'m> {
    machine: &'m Machine,
    sigs: SignatureTable,
    /// Width of the widest encoding (`max_size * word_width`).
    pub wide_width: u32,
}

/// A path from an instruction word down to a token parameter:
/// the operation parameter index, then nested non-terminal argument
/// indices.
pub type ParamPath = Vec<usize>;

impl<'m> DecodePlan<'m> {
    /// Builds signatures for every operation and non-terminal option.
    ///
    /// # Panics
    ///
    /// Panics on an invalid machine; machines from [`isdl::load`] are
    /// always valid.
    #[must_use]
    pub fn new(machine: &'m Machine) -> Self {
        Self {
            machine,
            sigs: SignatureTable::new(machine).expect("validated machine"),
            wide_width: machine.max_op_size() * machine.word_width,
        }
    }

    /// The decode-line expression for an operation, over the wide
    /// instruction net `instr_net`.
    #[must_use]
    pub fn decode_line(&self, r: OpRef, instr_net: &str, style: DecodeStyle) -> VExpr {
        let sig = self.sigs.op(r);
        match style {
            DecodeStyle::TwoLevel => literal_and(sig, instr_net, 0),
            DecodeStyle::NaiveComparator => masked_compare(sig, instr_net),
        }
    }

    /// The decode-line expression for a non-terminal option, given the
    /// word-bit positions of the non-terminal's value within the
    /// instruction (from the parent operation's signature).
    #[must_use]
    pub fn nt_option_line(
        &self,
        nt: NtId,
        option: usize,
        instr_net: &str,
        nt_bit_positions: &[Option<u32>],
        style: DecodeStyle,
    ) -> VExpr {
        let sig = &self.sigs.options(nt)[option];
        match style {
            DecodeStyle::TwoLevel => {
                let mut terms = Vec::new();
                for (bit, symbol) in sig.iter() {
                    if let SigBit::Const(c) = symbol {
                        let term = match nt_bit_positions.get(bit as usize).copied().flatten() {
                            Some(word_bit) => {
                                let lit = VExpr::Slice(instr_net.to_owned(), word_bit, word_bit);
                                if c {
                                    lit
                                } else {
                                    VExpr::unary(VUnOp::Not, lit)
                                }
                            }
                            // A constant bit the parent never placed in
                            // the word can never match a 1; an expected
                            // 0 is trivially true against the implicit
                            // zero fill.
                            None => VExpr::const_u64(u64::from(!c), 1),
                        };
                        terms.push(term);
                    }
                }
                and_tree(terms)
            }
            DecodeStyle::NaiveComparator => {
                // Reconstruct the NT value wire, then compare masked.
                let value = compose_bits(instr_net, nt_bit_positions);
                let (mask, want) = sig.const_mask_value();
                VExpr::binary(
                    VBinOp::Eq,
                    VExpr::binary(VBinOp::And, value, VExpr::Const(mask)),
                    VExpr::Const(want),
                )
            }
        }
    }

    /// Word-bit positions of parameter `param` of operation `r`:
    /// element `k` is the instruction bit holding parameter-value bit
    /// `k`, or `None` if never encoded (reads as zero).
    #[must_use]
    pub fn param_positions(&self, r: OpRef, param: usize) -> Vec<Option<u32>> {
        let op = self.machine.op(r);
        let enc_w = self.machine.param_encoding_width(op.params[param].ty);
        positions_in(self.sigs.op(r), param, enc_w)
    }

    /// Word-bit positions of a nested token parameter reached through
    /// `path` (op param index, then option arg indices with the given
    /// option choices at each level).
    ///
    /// `options` gives the chosen option index at each non-terminal
    /// level along the path.
    #[must_use]
    pub fn leaf_positions(&self, r: OpRef, path: &[usize], options: &[usize]) -> Vec<Option<u32>> {
        let op = self.machine.op(r);
        let mut positions = self.param_positions(r, path[0]);
        let mut ty = op.params[path[0]].ty;
        for (level, &arg) in path[1..].iter().enumerate() {
            let ParamType::NonTerminal(nt) = ty else {
                unreachable!("path descends only through non-terminals")
            };
            let option = options[level];
            let sig = &self.sigs.options(nt)[option];
            let opt = &self.machine.nonterminals[nt.0].options[option];
            let enc_w = self.machine.param_encoding_width(opt.params[arg].ty);
            let inner = positions_in(sig, arg, enc_w);
            // Compose: inner maps arg-bit -> NT-value bit; positions
            // maps NT-value bit -> word bit.
            positions = inner
                .iter()
                .map(|p| p.and_then(|b| positions.get(b as usize).copied().flatten()))
                .collect();
            ty = opt.params[arg].ty;
        }
        positions
    }

    /// An expression reconstructing a parameter value from the
    /// instruction word.
    #[must_use]
    pub fn param_value_expr(&self, instr_net: &str, positions: &[Option<u32>]) -> VExpr {
        compose_bits(instr_net, positions)
    }

    /// The machine behind this plan.
    #[must_use]
    pub fn machine(&self) -> &'m Machine {
        self.machine
    }

    /// Iterates the operations of a non-terminal with the positions of
    /// their nested parameters — convenience for datapath emission.
    #[must_use]
    pub fn nt(&self, id: NtId) -> &isdl::model::NonTerminal {
        &self.machine.nonterminals[id.0]
    }

    /// The operation behind a reference.
    #[must_use]
    pub fn op(&self, r: OpRef) -> &Operation {
        self.machine.op(r)
    }
}

/// Positions of each bit of `param`'s value inside the signature.
fn positions_in(sig: &Signature, param: usize, enc_w: u32) -> Vec<Option<u32>> {
    let mut out = vec![None; enc_w as usize];
    for (i, b) in sig.iter() {
        if let SigBit::Param { param: p, bit } = b {
            if p == param && (bit as usize) < out.len() {
                out[bit as usize] = Some(i);
            }
        }
    }
    out
}

/// Builds `{instr[b_{n-1}], ..., instr[b_0]}` (missing bits become 0).
fn compose_bits(instr_net: &str, positions: &[Option<u32>]) -> VExpr {
    // Group consecutive word bits into slices for compact Verilog.
    let mut parts: Vec<VExpr> = Vec::new(); // most significant first
    let mut i = positions.len();
    while i > 0 {
        i -= 1;
        match positions[i] {
            Some(start_bit) => {
                // Extend downward while bits are consecutive.
                let hi_bit = start_bit;
                let mut lo_bit = start_bit;
                while i > 0 {
                    match positions[i - 1] {
                        Some(b) if b + 1 == lo_bit => {
                            lo_bit = b;
                            i -= 1;
                        }
                        _ => break,
                    }
                }
                parts.push(VExpr::Slice(instr_net.to_owned(), hi_bit, lo_bit));
            }
            None => {
                let mut zeros = 1;
                while i > 0 && positions[i - 1].is_none() {
                    zeros += 1;
                    i -= 1;
                }
                parts.push(VExpr::const_u64(0, zeros));
            }
        }
    }
    if parts.len() == 1 {
        parts.pop().expect("one part")
    } else {
        VExpr::Concat(parts)
    }
}

/// AND of the signature's constant literals over `instr_net`
/// (bits shifted by `bit_offset`).
fn literal_and(sig: &Signature, instr_net: &str, bit_offset: u32) -> VExpr {
    let terms: Vec<VExpr> = sig
        .decode_literals()
        .into_iter()
        .map(|(bit, polarity)| {
            let b = bit + bit_offset;
            let lit = VExpr::Slice(instr_net.to_owned(), b, b);
            if polarity {
                lit
            } else {
                VExpr::unary(VUnOp::Not, lit)
            }
        })
        .collect();
    and_tree(terms)
}

/// Masked equality comparator over the whole signature width.
fn masked_compare(sig: &Signature, instr_net: &str) -> VExpr {
    let (mask, want) = sig.const_mask_value();
    let w = sig.width();
    let word = VExpr::Slice(instr_net.to_owned(), w - 1, 0);
    VExpr::binary(
        VBinOp::Eq,
        VExpr::binary(VBinOp::And, word, VExpr::Const(mask)),
        VExpr::Const(want),
    )
}

fn and_tree(mut terms: Vec<VExpr>) -> VExpr {
    match terms.len() {
        0 => VExpr::const_u64(1, 1),
        1 => terms.pop().expect("one term"),
        _ => {
            let mut acc = terms.remove(0);
            for t in terms {
                acc = VExpr::binary(VBinOp::And, acc, t);
            }
            acc
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isdl::model::FieldId;
    use isdl::samples::TOY;

    #[test]
    fn decode_line_two_level() {
        let m = isdl::load(TOY).expect("loads");
        let plan = DecodePlan::new(&m);
        let add = m.op_by_name("ALU", "add").expect("add");
        let line = plan.decode_line(add, "instr", DecodeStyle::TwoLevel);
        // add's opcode is 0b00001 in bits 31:27 — 5 literals.
        let text = expr_text(&line);
        assert!(text.contains("instr[27]"), "{text}");
        assert!(text.contains("~(instr[31])"), "{text}");
    }

    #[test]
    fn decode_line_naive() {
        let m = isdl::load(TOY).expect("loads");
        let plan = DecodePlan::new(&m);
        let add = m.op_by_name("ALU", "add").expect("add");
        let line = plan.decode_line(add, "instr", DecodeStyle::NaiveComparator);
        assert!(matches!(line, VExpr::Binary(VBinOp::Eq, _, _)));
    }

    #[test]
    fn param_positions_contiguous() {
        let m = isdl::load(TOY).expect("loads");
        let plan = DecodePlan::new(&m);
        let li = m.op_by_name("ALU", "li").expect("li");
        // li d, v: v occupies word bits 23:16.
        let pos = plan.param_positions(li, 1);
        assert_eq!(pos.len(), 8);
        assert_eq!(pos[0], Some(16));
        assert_eq!(pos[7], Some(23));
        let e = plan.param_value_expr("instr", &pos);
        assert_eq!(expr_text(&e), "instr[23:16]");
    }

    #[test]
    fn leaf_positions_through_nt() {
        let m = isdl::load(TOY).expect("loads");
        let plan = DecodePlan::new(&m);
        let add = m.op_by_name("ALU", "add").expect("add");
        // add's third param is the SRC non-terminal at word bits 20:17;
        // option reg(r) places r at val[2:0] -> word bits 19:17.
        let pos = plan.leaf_positions(add, &[2, 0], &[0]);
        assert_eq!(pos, vec![Some(17), Some(18), Some(19)]);
    }

    #[test]
    fn nt_option_line_checks_mode_bit() {
        let m = isdl::load(TOY).expect("loads");
        let plan = DecodePlan::new(&m);
        let add = m.op_by_name("ALU", "add").expect("add");
        let nt_pos = plan.param_positions(add, 2); // val bits -> word 20:17
        let nt = match m.op(add).params[2].ty {
            ParamType::NonTerminal(n) => n,
            ParamType::Token(_) => panic!("SRC is a non-terminal"),
        };
        // Option 0 (reg) requires val[3] == 0, i.e. ~instr[20].
        let line = plan.nt_option_line(nt, 0, "instr", &nt_pos, DecodeStyle::TwoLevel);
        assert_eq!(expr_text(&line), "~(instr[20])");
        // Option 1 (ind) requires instr[20].
        let line = plan.nt_option_line(nt, 1, "instr", &nt_pos, DecodeStyle::TwoLevel);
        assert_eq!(expr_text(&line), "instr[20]");
        let _ = ParamPath::new();
    }

    #[test]
    fn compose_bits_with_gaps() {
        let pos = vec![Some(3), None, Some(10), Some(11)];
        let e = compose_bits("w", &pos);
        assert_eq!(expr_text(&e), "{w[11:10], 1'h0, w[3]}");
    }

    /// Renders an expression through a dummy module for assertions.
    fn expr_text(e: &VExpr) -> String {
        use vlog::ast::{LValue, VModule};
        let mut m = VModule::new("t");
        m.add_wire("instr", 64);
        m.add_wire("w", 64);
        m.add_wire("y", 64);
        m.assign(LValue::net("y"), e.clone());
        let text = m.to_verilog();
        let line = text.lines().find(|l| l.contains("assign y =")).expect("assign emitted");
        line.trim().trim_start_matches("assign y = ").trim_end_matches(';').to_owned()
    }

    #[test]
    fn wide_width_covers_multiword() {
        let m = isdl::load(TOY).expect("loads");
        let plan = DecodePlan::new(&m);
        assert_eq!(plan.wide_width, 32);
        let _ = FieldId(0);
    }
}
