//! The retargetable assembler.
//!
//! Two passes: the first parses lines, resolves operation names and
//! sizes, and lays out addresses (so labels get values); the second
//! binds operands, checks the ISDL constraints on every instruction,
//! and encodes through the operation signatures.

use crate::error::AsmError;
use bitv::BitVector;
use isdl::model::{FieldId, Machine, NtId, OpRef, Operation, ParamType, TokenKind};
use isdl::signature::SignatureTable;
use std::collections::HashMap;

/// An assembled program image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// The instruction-memory image, one instruction-word-width value
    /// per address, starting at address 0. Unwritten locations are zero.
    pub words: Vec<BitVector>,
    /// Data-memory initialisation: `(address, value)` pairs emitted by
    /// `.word` directives after a `.data` section switch. The loader
    /// sizes each value to the data-memory width.
    pub data: Vec<(u64, i64)>,
    /// Label values (word addresses in their section).
    pub labels: HashMap<String, u64>,
    /// Code-section labels only, sorted by address — each opens a
    /// profiling region that extends to the next label. Data labels
    /// are excluded because their addresses alias the code address
    /// space (`labels` flattens both sections into one map).
    pub code_labels: Vec<(u64, String)>,
    /// `(address, source text)` pairs for listings and debugging.
    pub listing: Vec<(u64, String)>,
    /// Entry address (the `start` label if defined, else 0).
    pub entry: u64,
}

/// A retargetable assembler for one machine.
#[derive(Debug)]
pub struct Assembler<'m> {
    machine: &'m Machine,
    sigs: SignatureTable,
}

/// A parsed operand.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Arg {
    /// An integer literal (possibly negative).
    Int(i64),
    /// A bare symbol: register name, enum spelling, or label.
    Sym(String),
    /// `name(args…)` — a non-terminal option.
    Call(String, Vec<Arg>),
}

/// Per-field operation slots of one parsed instruction.
type InstrSlots = Vec<(OpRef, Vec<Arg>)>;

/// One line item after pass 1.
#[derive(Debug)]
enum Item {
    Instr {
        addr: u64,
        line: u32,
        text: String,
        /// One `(op, args)` per machine field, in field order.
        slots: Vec<(OpRef, Vec<Arg>)>,
        size: u32,
    },
    Word {
        addr: u64,
        line: u32,
        value: BitVector,
    },
}

impl<'m> Assembler<'m> {
    /// Creates an assembler for `machine`.
    ///
    /// # Panics
    ///
    /// Panics if the machine's encodings are inconsistent; machines
    /// from [`isdl::load`] never are.
    #[must_use]
    pub fn new(machine: &'m Machine) -> Self {
        Self { machine, sigs: SignatureTable::new(machine).expect("validated machine") }
    }

    /// Assembles source text into a [`Program`].
    ///
    /// # Errors
    ///
    /// Returns an [`AsmError`] with the offending line for unknown
    /// operations, malformed or out-of-range operands, undefined
    /// labels, constraint violations, and overlapping code.
    pub fn assemble(&self, src: &str) -> Result<Program, AsmError> {
        // ---- pass 1: parse, resolve ops, lay out addresses ----
        let mut items = Vec::new();
        let mut data: Vec<(u64, i64)> = Vec::new();
        let mut labels: HashMap<String, u64> = HashMap::new();
        let mut code_labels: Vec<(u64, String)> = Vec::new();
        let mut text_pc: u64 = 0;
        let mut data_pc: u64 = 0;
        let mut in_data = false;
        for (lineno, raw) in src.lines().enumerate() {
            let line = lineno as u32 + 1;
            let mut text = strip_comment(raw).trim();
            // Labels (possibly several).
            while let Some((label, rest)) = split_label(text) {
                let here = if in_data { data_pc } else { text_pc };
                if labels.insert(label.to_owned(), here).is_some() {
                    return Err(AsmError::new(line, format!("label `{label}` defined twice")));
                }
                if !in_data {
                    code_labels.push((here, label.to_owned()));
                }
                text = rest.trim();
            }
            if text.is_empty() {
                continue;
            }
            if text == ".data" {
                in_data = true;
                continue;
            }
            if text == ".text" {
                in_data = false;
                continue;
            }
            if let Some(rest) = text.strip_prefix(".org") {
                let a = parse_int(rest.trim())
                    .ok_or_else(|| AsmError::new(line, "bad .org operand"))?
                    as u64;
                if in_data {
                    data_pc = a;
                } else {
                    text_pc = a;
                }
                continue;
            }
            if let Some(rest) = text.strip_prefix(".word") {
                let v = parse_int(rest.trim())
                    .ok_or_else(|| AsmError::new(line, "bad .word operand"))?;
                if in_data {
                    data.push((data_pc, v));
                    data_pc += 1;
                } else {
                    items.push(Item::Word {
                        addr: text_pc,
                        line,
                        value: BitVector::from_i64(v, self.machine.word_width),
                    });
                    text_pc += 1;
                }
                continue;
            }
            if in_data {
                return Err(AsmError::new(
                    line,
                    "instructions are not allowed in the .data section",
                ));
            }
            let (slots, size) = self.parse_instr(text, line)?;
            items.push(Item::Instr { addr: text_pc, line, text: text.to_owned(), slots, size });
            text_pc += u64::from(size);
        }

        // ---- pass 2: bind operands and encode ----
        let mut image: HashMap<u64, (BitVector, u32)> = HashMap::new();
        let mut listing = Vec::new();
        let w = self.machine.word_width;
        for item in &items {
            match item {
                Item::Word { addr, line, value } => {
                    if image.insert(*addr, (value.clone(), *line)).is_some() {
                        return Err(AsmError::new(
                            *line,
                            format!("address {addr:#x} written twice"),
                        ));
                    }
                }
                Item::Instr { addr, line, text, slots, size } => {
                    let selection: Vec<usize> = slots.iter().map(|(r, _)| r.op).collect();
                    if let Some(ci) = self.machine.check_constraints(&selection) {
                        return Err(AsmError::new(
                            *line,
                            format!(
                                "instruction violates constraint #{ci}: {}",
                                slots
                                    .iter()
                                    .map(|(r, _)| self.machine.op_name(*r))
                                    .collect::<Vec<_>>()
                                    .join(" | ")
                            ),
                        ));
                    }
                    let mut wide = BitVector::zero(size * w);
                    for (r, args) in slots {
                        let op = self.machine.op(*r);
                        let params = self.bind_args(op, args, &labels, *line)?;
                        // The signature spans the op's own size, the low
                        // bits of the instruction; `apply` leaves the rest.
                        wide = self.sigs.op(*r).apply(&wide, &params);
                    }
                    for k in 0..*size {
                        let word = wide.slice(k * w + w - 1, k * w);
                        let a = addr + u64::from(k);
                        if image.insert(a, (word, *line)).is_some() {
                            return Err(AsmError::new(
                                *line,
                                format!("address {a:#x} written twice"),
                            ));
                        }
                    }
                    listing.push((*addr, text.clone()));
                }
            }
        }

        let len = image.keys().max().map_or(0, |m| m + 1);
        let mut words = vec![BitVector::zero(w); len as usize];
        for (a, (v, _)) in image {
            words[a as usize] = v;
        }
        let entry = labels.get("start").copied().unwrap_or(0);
        // `.org` can lay regions out of source order; sort (stably, so
        // two labels on one address keep their source order).
        code_labels.sort_by_key(|(a, _)| *a);
        Ok(Program { words, data, labels, code_labels, listing, entry })
    }

    /// Parses one instruction line into per-field slots, inserting nop
    /// defaults for omitted fields.
    fn parse_instr(&self, text: &str, line: u32) -> Result<(InstrSlots, u32), AsmError> {
        let mut slots: Vec<Option<(OpRef, Vec<Arg>)>> = vec![None; self.machine.fields.len()];
        for part in split_top(text, '|') {
            let part = part.trim();
            if part.is_empty() {
                return Err(AsmError::new(line, "empty operation slot"));
            }
            let (head, rest) =
                part.split_once(char::is_whitespace).map_or((part, ""), |(h, r)| (h, r));
            let r = self.resolve_op(head, line)?;
            let args = parse_args(rest, line)?;
            let slot = &mut slots[r.field.0];
            if slot.is_some() {
                return Err(AsmError::new(
                    line,
                    format!(
                        "two operations given for field `{}`",
                        self.machine.fields[r.field.0].name
                    ),
                ));
            }
            *slot = Some((r, args));
        }
        let mut out = Vec::with_capacity(slots.len());
        let mut size = 1;
        for (fi, slot) in slots.into_iter().enumerate() {
            let (r, args) = match slot {
                Some(s) => s,
                None => {
                    let field = &self.machine.fields[fi];
                    let nop = field.nop.ok_or_else(|| {
                        AsmError::new(
                            line,
                            format!("field `{}` has no operation and no `nop` default", field.name),
                        )
                    })?;
                    (OpRef { field: FieldId(fi), op: nop }, Vec::new())
                }
            };
            size = size.max(self.machine.op(r).costs.size);
            out.push((r, args));
        }
        Ok((out, size))
    }

    /// Resolves `name` or `FIELD.name` to an operation.
    fn resolve_op(&self, head: &str, line: u32) -> Result<OpRef, AsmError> {
        if let Some((field, op)) = head.split_once('.') {
            return self
                .machine
                .op_by_name(field, op)
                .ok_or_else(|| AsmError::new(line, format!("unknown operation `{head}`")));
        }
        // An unqualified name picks the *first* field defining it —
        // VLIWs commonly repeat mnemonics across issue slots (both
        // SPAM ALUs define `add`); the second slot is reached with the
        // qualified `FIELD.op` form.
        for (fi, f) in self.machine.fields.iter().enumerate() {
            if let Some(oi) = f.ops.iter().position(|o| o.name == head) {
                return Ok(OpRef { field: FieldId(fi), op: oi });
            }
        }
        Err(AsmError::new(line, format!("unknown operation `{head}`")))
    }

    /// Binds parsed args to an operation's parameters, producing the
    /// encoded value of each parameter.
    fn bind_args(
        &self,
        op: &Operation,
        args: &[Arg],
        labels: &HashMap<String, u64>,
        line: u32,
    ) -> Result<Vec<BitVector>, AsmError> {
        if args.len() != op.params.len() {
            return Err(AsmError::new(
                line,
                format!(
                    "operation `{}` takes {} operand(s), {} given",
                    op.name,
                    op.params.len(),
                    args.len()
                ),
            ));
        }
        op.params.iter().zip(args).map(|(p, a)| self.bind_one(p.ty, a, labels, line)).collect()
    }

    fn bind_one(
        &self,
        ty: ParamType,
        arg: &Arg,
        labels: &HashMap<String, u64>,
        line: u32,
    ) -> Result<BitVector, AsmError> {
        match ty {
            ParamType::Token(t) => {
                let tok = &self.machine.tokens[t.0];
                match (&tok.kind, arg) {
                    (TokenKind::Register { prefix, count }, Arg::Sym(s)) => {
                        let idx = s
                            .strip_prefix(prefix.as_str())
                            .and_then(|d| d.parse::<u64>().ok())
                            .filter(|&i| i < *count)
                            .ok_or_else(|| {
                                AsmError::new(
                                    line,
                                    format!("`{s}` is not a valid {prefix}-register"),
                                )
                            })?;
                        Ok(BitVector::from_u64(idx, tok.width))
                    }
                    (TokenKind::Enum { names }, Arg::Sym(s)) => {
                        let idx = names.iter().position(|n| n == s).ok_or_else(|| {
                            AsmError::new(
                                line,
                                format!("`{s}` is not one of: {}", names.join(", ")),
                            )
                        })?;
                        Ok(BitVector::from_u64(idx as u64, tok.width))
                    }
                    (TokenKind::Immediate { signed }, Arg::Int(v)) => {
                        self.fit_imm(*v, tok.width, *signed, line)
                    }
                    (TokenKind::Immediate { signed }, Arg::Sym(s)) => {
                        let v = labels
                            .get(s)
                            .copied()
                            .ok_or_else(|| AsmError::new(line, format!("undefined label `{s}`")))?;
                        self.fit_imm(v as i64, tok.width, *signed, line)
                    }
                    (_, a) => Err(AsmError::new(
                        line,
                        format!("operand {a:?} does not fit token `{}`", tok.name),
                    )),
                }
            }
            ParamType::NonTerminal(n) => {
                let Arg::Call(name, sub) = arg else {
                    return Err(AsmError::new(
                        line,
                        format!(
                            "operand for non-terminal `{}` must be written option(args…)",
                            self.machine.nonterminals[n.0].name
                        ),
                    ));
                };
                self.bind_nt(n, name, sub, labels, line)
            }
        }
    }

    fn bind_nt(
        &self,
        n: NtId,
        option_name: &str,
        args: &[Arg],
        labels: &HashMap<String, u64>,
        line: u32,
    ) -> Result<BitVector, AsmError> {
        let nt = &self.machine.nonterminals[n.0];
        let oi = nt.options.iter().position(|o| o.name == option_name).ok_or_else(|| {
            AsmError::new(line, format!("non-terminal `{}` has no option `{option_name}`", nt.name))
        })?;
        let option = &nt.options[oi];
        let params = self.bind_args(option, args, labels, line)?;
        let sig = &self.sigs.options(n)[oi];
        Ok(sig.apply(&BitVector::zero(nt.width), &params))
    }

    fn fit_imm(&self, v: i64, width: u32, signed: bool, line: u32) -> Result<BitVector, AsmError> {
        let ok = if signed {
            let half = 1i128 << (width - 1);
            (i128::from(v) >= -half) && (i128::from(v) < half)
        } else {
            v >= 0 && (width >= 64 || (v as u64) < (1u64 << width))
        };
        if !ok {
            return Err(AsmError::new(
                line,
                format!(
                    "immediate {v} does not fit a {width}-bit {} field",
                    if signed { "signed" } else { "unsigned" }
                ),
            ));
        }
        Ok(BitVector::from_i64(v, width))
    }
}

/// Removes `;`, `//` and `#` comments (not inside strings — the
/// dialect has none).
fn strip_comment(line: &str) -> &str {
    let mut end = line.len();
    for (i, c) in line.char_indices() {
        if c == ';' || c == '#' {
            end = i;
            break;
        }
        if c == '/' && line[i + 1..].starts_with('/') {
            end = i;
            break;
        }
    }
    &line[..end]
}

/// If the line starts with `label:`, returns `(label, rest)`.
fn split_label(text: &str) -> Option<(&str, &str)> {
    let colon = text.find(':')?;
    let (head, rest) = text.split_at(colon);
    let head = head.trim();
    if !head.is_empty()
        && head.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
        && head.chars().next().is_some_and(|c| !c.is_ascii_digit())
    {
        Some((head, &rest[1..]))
    } else {
        None
    }
}

/// Splits at top-level occurrences of `sep` (not inside parentheses).
fn split_top(text: &str, sep: char) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (i, c) in text.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => depth = depth.saturating_sub(1),
            c if c == sep && depth == 0 => {
                out.push(&text[start..i]);
                start = i + c.len_utf8();
            }
            _ => {}
        }
    }
    out.push(&text[start..]);
    out
}

fn parse_args(rest: &str, line: u32) -> Result<Vec<Arg>, AsmError> {
    let rest = rest.trim();
    if rest.is_empty() {
        return Ok(Vec::new());
    }
    split_top(rest, ',').into_iter().map(|a| parse_arg(a.trim(), line)).collect()
}

fn parse_arg(text: &str, line: u32) -> Result<Arg, AsmError> {
    if text.is_empty() {
        return Err(AsmError::new(line, "empty operand"));
    }
    if let Some(v) = parse_int(text) {
        return Ok(Arg::Int(v));
    }
    if let Some(open) = text.find('(') {
        if text.ends_with(')') {
            let name = text[..open].trim();
            let inner = &text[open + 1..text.len() - 1];
            let args = parse_args(inner, line)?;
            return Ok(Arg::Call(name.to_owned(), args));
        }
        return Err(AsmError::new(line, format!("unbalanced parentheses in `{text}`")));
    }
    if text.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
        return Ok(Arg::Sym(text.to_owned()));
    }
    Err(AsmError::new(line, format!("cannot parse operand `{text}`")))
}

fn parse_int(text: &str) -> Option<i64> {
    let (neg, t) = match text.strip_prefix('-') {
        Some(t) => (true, t),
        None => (false, text),
    };
    let v = if let Some(h) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        i64::from_str_radix(h, 16).ok()?
    } else if let Some(b) = t.strip_prefix("0b").or_else(|| t.strip_prefix("0B")) {
        i64::from_str_radix(b, 2).ok()?
    } else if t.chars().all(|c| c.is_ascii_digit()) && !t.is_empty() {
        t.parse().ok()?
    } else {
        return None;
    };
    Some(if neg { -v } else { v })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Disassembler;
    use isdl::samples::{ACC16, TOY};

    fn toy() -> Machine {
        isdl::load(TOY).expect("toy loads")
    }

    #[test]
    fn assemble_single_op() {
        let m = toy();
        let p = Assembler::new(&m).assemble("li R4, 42").expect("assembles");
        assert_eq!(p.words.len(), 1);
        let expect = (0b00101u64 << 27) | (4 << 24) | (42 << 16);
        assert_eq!(p.words[0].to_u64_lossy(), expect);
    }

    #[test]
    fn assemble_parallel_ops() {
        let m = toy();
        let p = Assembler::new(&m).assemble("add R2, R1, reg(R3) | mv R4, R5").expect("assembles");
        let expect = (0b00001u64 << 27)
            | (2 << 24)
            | (1 << 21)
            | (0b0011 << 17)
            | (0b001 << 13)
            | (4 << 10)
            | (5 << 7);
        assert_eq!(p.words[0].to_u64_lossy(), expect);
    }

    #[test]
    fn labels_resolve_forward_and_back() {
        let m = toy();
        let src = "start: li R1, 0\nloop: add R1, R1, reg(R1)\n jz done\n jmp loop\ndone: nop\n";
        let p = Assembler::new(&m).assemble(src).expect("assembles");
        assert_eq!(p.labels["start"], 0);
        assert_eq!(p.labels["loop"], 1);
        assert_eq!(p.labels["done"], 4);
        assert_eq!(p.entry, 0);
        // jz done at address 2 encodes target 4.
        assert_eq!(p.words[2].slice(25, 16).to_u64_lossy(), 4);
    }

    #[test]
    fn org_and_word_directives() {
        let m = toy();
        let p = Assembler::new(&m).assemble(".org 4\n.word 0xDEAD\nnop\n").expect("assembles");
        assert_eq!(p.words.len(), 6);
        assert_eq!(p.words[4].to_u64_lossy(), 0xDEAD);
        assert!(p.words[0].is_zero());
    }

    #[test]
    fn constraint_violation_rejected() {
        let m = toy();
        let e = Assembler::new(&m)
            .assemble("mac R1, R2 | mvacc R3")
            .expect_err("constraint should fire");
        assert!(e.msg.contains("constraint"));
    }

    #[test]
    fn operand_errors() {
        let m = toy();
        let asm = Assembler::new(&m);
        assert!(asm.assemble("li R9, 1").is_err()); // no R9
        assert!(asm.assemble("li R1, 256").is_err()); // imm8 overflow
        assert!(asm.assemble("li R1").is_err()); // arity
        assert!(asm.assemble("add R1, R2, R3").is_err()); // NT needs option syntax
        assert!(asm.assemble("add R1, R2, bogus(R3)").is_err()); // unknown option
        assert!(asm.assemble("frobnicate R1").is_err()); // unknown op
        assert!(asm.assemble("jmp nowhere").is_err()); // undefined label
    }

    #[test]
    fn duplicate_label_rejected() {
        let m = toy();
        let e = Assembler::new(&m).assemble("a: nop\na: nop").expect_err("dup label");
        assert!(e.msg.contains("defined twice"));
    }

    #[test]
    fn two_ops_same_field_rejected() {
        let m = toy();
        let e = Assembler::new(&m).assemble("li R1, 1 | li R2, 2").expect_err("two ALU ops");
        assert!(e.msg.contains("field"));
    }

    #[test]
    fn comments_and_blank_lines() {
        let m = toy();
        let p = Assembler::new(&m)
            .assemble("; full line\n   # hash\nnop // trailing\n\n")
            .expect("assembles");
        assert_eq!(p.words.len(), 1);
    }

    #[test]
    fn round_trip_through_disassembler() {
        let m = toy();
        let src = "li R4, 42\nadd R2, R1, reg(R3) | mv R4, R5\nsub R0, R1, ind(R2)\nmac R6, R7\n";
        let p = Assembler::new(&m).assemble(src).expect("assembles");
        let d = Disassembler::new(&m);
        let mut texts = Vec::new();
        for (addr, w) in p.words.iter().enumerate() {
            let i = d.decode(std::slice::from_ref(w), addr as u64).expect("decodes");
            texts.push(d.format_instr(&i));
        }
        assert_eq!(
            texts,
            vec![
                "li R4, 42",
                "add R2, R1, reg(R3) | mv R4, R5",
                "sub R0, R1, ind(R2)",
                "mac R6, R7",
            ]
        );
    }

    #[test]
    fn acc16_program_assembles() {
        let m = isdl::load(ACC16).expect("loads");
        let src = "start: ldi 10\nloop: subm one\n jnz loop\n halt\n.data\n.org 60\none: .word 1\n";
        let p = Assembler::new(&m).assemble(src).expect("assembles");
        assert_eq!(p.labels["one"], 60);
        assert_eq!(p.data, vec![(60, 1)]);
    }

    #[test]
    fn code_labels_exclude_data_and_sort_by_address() {
        let m = isdl::load(ACC16).expect("loads");
        // `tail` is laid out *before* `start` in source via `.org`;
        // `one` is a data label and must not appear.
        let src = "\
.org 4
tail: halt
.org 0
start: ldi 10
loop: subm one
 jnz loop
 jmp tail
.data
.org 60
one: .word 1
";
        let p = Assembler::new(&m).assemble(src).expect("assembles");
        assert_eq!(
            p.code_labels,
            vec![(0, "start".to_owned()), (1, "loop".to_owned()), (4, "tail".to_owned())]
        );
    }

    #[test]
    fn negative_immediates() {
        let m = isdl::load(
            r#"machine "m" { format { word 16; } }
               storage { register A 8; }
               tokens { token S8 imm(8, signed); }
               field F {
                   op addi(v: S8) { encode { word[15:12] = 0b0001; word[7:0] = v; } action { A <- A + v; } }
                   op nop() { encode { word[15:12] = 0; } }
               }"#,
        )
        .expect("loads");
        let p = Assembler::new(&m).assemble("addi -3").expect("assembles");
        assert_eq!(p.words[0].slice(7, 0).to_u64_lossy(), 0xFD);
        assert!(Assembler::new(&m).assemble("addi -200").is_err());
        assert!(Assembler::new(&m).assemble("addi 127").is_ok());
        assert!(Assembler::new(&m).assemble("addi 128").is_err());
    }
}

impl Program {
    /// Renders the instruction image in Verilog `$readmemh` format
    /// (one hex word per line, `@` address markers where gaps occur).
    #[must_use]
    pub fn to_hex(&self) -> String {
        let mut out = String::new();
        for w in &self.words {
            out.push_str(&format!("{w:x}\n"));
        }
        out
    }

    /// Parses a `$readmemh`-style image back into words of the given
    /// width. Supports `@addr` markers and `//` comments.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first malformed line.
    pub fn words_from_hex(text: &str, width: u32) -> Result<Vec<bitv::BitVector>, String> {
        let mut words: Vec<bitv::BitVector> = Vec::new();
        let mut addr = 0usize;
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split("//").next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if let Some(a) = line.strip_prefix('@') {
                addr = usize::from_str_radix(a.trim(), 16)
                    .map_err(|e| format!("line {}: bad @address: {e}", lineno + 1))?;
                continue;
            }
            let v: bitv::BitVector = format!("{width}'h{line}")
                .parse()
                .map_err(|e| format!("line {}: {e}", lineno + 1))?;
            if words.len() <= addr {
                words.resize(addr + 1, bitv::BitVector::zero(width));
            }
            words[addr] = v;
            addr += 1;
        }
        Ok(words)
    }
}

#[cfg(test)]
mod hex_tests {
    use super::*;
    use isdl::samples::ACC16;

    #[test]
    fn hex_round_trip() {
        let m = isdl::load(ACC16).expect("loads");
        let p = Assembler::new(&m).assemble("ldi 7\naddm 1\nsta 0\nhalt\n").expect("assembles");
        let hex = p.to_hex();
        let words = Program::words_from_hex(&hex, m.word_width).expect("parses");
        assert_eq!(words, p.words);
    }

    #[test]
    fn hex_with_address_markers_and_comments() {
        let words = Program::words_from_hex("// header\n@2\nbeef\ncafe\n", 16).expect("parses");
        assert_eq!(words.len(), 4);
        assert!(words[0].is_zero());
        assert_eq!(words[2].to_u64_lossy(), 0xbeef);
        assert_eq!(words[3].to_u64_lossy(), 0xcafe);
        assert!(Program::words_from_hex("@zz\n", 16).is_err());
        assert!(Program::words_from_hex("xyz\n", 16).is_err());
    }
}
