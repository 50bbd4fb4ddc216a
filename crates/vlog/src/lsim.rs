//! Compiled levelized simulation of an elaborated netlist.
//!
//! Where [`crate::sim::NetlistSim`] re-discovers the evaluation order
//! every cycle with an event worklist, [`LevelizedSim`] compiles it
//! once (the GSIM approach): the [`crate::level`] pass topologically
//! orders the combinational nodes, and each clock edge becomes one
//! ordered register sweep followed by straight-line re-evaluation of
//! only the *dirty* partitions — no event queue, no convergence
//! budget, no per-node change test.
//!
//! Compilation turns each partition, and the clocked block, into one
//! flat register program: a slice of 8-byte μ-ops over a reused file
//! of 256 `u64` registers, in which `?:` and `if` are forward jumps. A
//! sweep is one loop over such a slice. Nets live in a flat dense
//! arena of words (one per net of 64 bits or fewer, `width / 64`
//! rounded up for wider nets), memories in one word vector each.
//!
//! The lane is picked per value. Every value of 64 bits or fewer —
//! including any slice of at most 64 bits of a wider net, read from one
//! or two of its words — is computed with 2-state word operations whose
//! masking reproduces [`bitv::BitVector`] semantics exactly. A value
//! wider than 64 bits, or one computed from such values, becomes a
//! single μ-op that evaluates a `BitVector` expression tree; on SPAM
//! only the 128-bit instruction fetch does. `levelized.wide_fallbacks`
//! in `vlog-stats/1` counts the nodes and statements that need one.
//!
//! The 4-state unknowns a commercial simulator would propagate
//! collapse to 2-state zero-initialised values — the same X-init
//! choice the event-driven simulator makes, so the two backends are
//! bit-identical from reset onward.

use crate::ast::{LValue, VBinOp, VExpr, VModule, VStmt, VUnOp};
use crate::level::Levelized;
use crate::netlist::{CombNode, Netlist};
use crate::vcd::Vcd;
use crate::VlogError;
use bitv::BitVector;
use std::io::Write;
use std::ops::Range;
use std::sync::Arc;

/// Counters describing the compiled structure and the work a run
/// actually performed; exported as the `levelized` block of
/// `vlog-stats/1`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelStats {
    /// Logic depth of the combinational cone (number of levels).
    pub levels: u32,
    /// Number of independent combinational partitions.
    pub partitions: u64,
    /// Combinational nodes plus clocked statements that evaluate some
    /// value on the `BitVector` lane (one wider than 64 bits, or one
    /// computed from such values).
    pub wide_fallbacks: u64,
    /// Combinational node evaluations performed.
    pub node_evals: u64,
    /// Partitions evaluated at clock edges (their inputs changed).
    pub partitions_evaluated: u64,
    /// Partitions skipped at clock edges (quiescent).
    pub partitions_skipped: u64,
}

impl LevelStats {
    /// Fraction of per-edge partition visits that were skipped.
    #[must_use]
    pub fn skip_rate(&self) -> f64 {
        let total = self.partitions_evaluated + self.partitions_skipped;
        if total == 0 {
            0.0
        } else {
            self.partitions_skipped as f64 / total as f64
        }
    }
}

/// Where a net's value lives in the arena.
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// Index of its word in the narrow arena (width <= 64).
    Narrow(usize),
    /// Index of its first word in the wide arena (width > 64); the
    /// value fills `width.div_ceil(64)` words, least significant first.
    Wide(usize),
}

/// The simulator state: net words and memory cells.
#[derive(Debug, Clone)]
struct Arena {
    narrow: Vec<u64>,
    wide: Vec<u64>,
    /// Each memory's cells, `Code::mem_words` words per cell.
    mems: Vec<Vec<u64>>,
}

/// A write target: bits `hi..=lo` of net `net`.
#[derive(Debug, Clone, Copy)]
struct Sink {
    net: usize,
    hi: u32,
    lo: u32,
}

/// Register index. The file has 256 registers, so indexing it with a
/// `u8` needs no bounds check.
type Reg = u8;

/// Registers in the file.
const REGS: usize = 256;

/// One μ-op of a register program. `slot`, `word` and `mem` index the
/// arena, `idx`, `expr` and `sink` the program's side tables, and jump
/// targets are offsets into the op's own program. Values in registers
/// are always masked to their width.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// `r[dst] = consts[idx]`.
    Const { dst: Reg, idx: u32 },
    /// `r[dst]` = narrow net word `slot`.
    Net { dst: Reg, slot: u32 },
    /// `r[dst]` = `w` bits of narrow net word `slot` from bit `lo`.
    Slice { dst: Reg, lo: u8, w: u8, slot: u32 },
    /// `r[dst]` = `w` bits of the wide arena from bit `lo` of word
    /// `word`: one word, or two when the slice straddles them.
    WideSlice { dst: Reg, lo: u8, w: u8, word: u32 },
    /// `r[dst]` = cell `r[addr] % depth` of memory `mem` (narrow cells).
    MemRead { dst: Reg, addr: Reg, mem: u32 },
    /// `r[r] = op r[r]` on a `w`-bit operand.
    Un { op: VUnOp, w: u8, r: Reg },
    /// `r[dst] = r[a] op r[b]` on `w`-bit operands.
    Bin { op: VBinOp, w: u8, dst: Reg, a: Reg, b: Reg },
    /// `r[dst] = r[dst] << lo_w | r[lo]` (concatenation).
    Cat { dst: Reg, lo: Reg, lo_w: u8 },
    /// Sign-extends `r[r]` from `from` to `to` bits.
    Sext { r: Reg, from: u8, to: u8 },
    /// Keeps the low `w` bits of `r[r]` (truncation).
    Mask { r: Reg, w: u8 },
    /// Jumps to `to` if `r[cond]` is zero.
    JmpIfZero { cond: Reg, to: u32 },
    /// Jumps to `to`.
    Jmp { to: u32 },
    /// Evaluates `wides[expr]` on the `BitVector` lane. Its [`WideTo`]
    /// says where the value goes; `reg` is the destination register
    /// or the register holding the memory address.
    Wide { reg: Reg, expr: u32 },
    /// Narrow net word `slot` = `r[src]` (a whole-net combinational write).
    Set { src: Reg, slot: u32 },
    /// `w` bits of narrow net word `slot` from bit `lo` = `r[src]`.
    SetBits { src: Reg, lo: u8, w: u8, slot: u32 },
    /// `w` bits of the wide arena from bit `lo` of word `word` = `r[src]`.
    SetWideBits { src: Reg, lo: u8, w: u8, word: u32 },
    /// Stages `r[src]` for `sinks[sink]` (a clocked write).
    Stage { src: Reg, sink: u32 },
    /// Stages `r[src]` for cell `r[addr] % depth` of memory `mem`.
    StageMem { addr: Reg, src: Reg, mem: u32 },
}

// The sweep streams through these; keep them at one word each.
const _: () = assert!(std::mem::size_of::<Op>() == 8);

/// A `BitVector`-lane μ-op: its expression and where the value goes.
#[derive(Debug)]
struct WideOp {
    expr: WExpr,
    to: WideTo,
}

/// Where a [`WideOp`]'s value goes.
#[derive(Debug, Clone, Copy)]
enum WideTo {
    /// Its low 64 bits into the op's register.
    Reg,
    /// Written into `sinks[i]` at once (a combinational node).
    Net(usize),
    /// Staged for `sinks[i]` (a clocked statement).
    Stage(usize),
    /// Staged for cell `r[reg] % depth` of memory `i`.
    StageMem(usize),
}

/// A staged non-blocking update, computed against pre-edge values.
#[derive(Debug)]
enum Update {
    Net { sink: usize, val: u64 },
    Mem { mem: usize, index: usize, val: u64 },
    WideNet { sink: usize, val: BitVector },
    WideMem { mem: usize, index: usize, val: BitVector },
}

/// The compiled, immutable part of a simulator, shared by its clones.
#[derive(Debug)]
struct Code {
    netlist: Netlist,
    lev: Levelized,
    slots: Vec<Slot>,
    /// Words per cell of each memory.
    mem_words: Vec<usize>,
    /// Every register program, back to back.
    ops: Vec<Op>,
    /// `parts[p]` = the range of `ops` holding partition `p`'s program.
    parts: Vec<Range<usize>>,
    /// The range of `ops` holding the clocked block's program.
    ff: Range<usize>,
    consts: Vec<u64>,
    wides: Vec<WideOp>,
    sinks: Vec<Sink>,
}

/// Mask selecting the low `w` bits, `1 <= w <= 64`.
fn mask(w: u32) -> u64 {
    u64::MAX >> (64 - w)
}

/// Sign-extends the low `w` bits of `v` to an `i64`.
fn sx(v: u64, w: u32) -> i64 {
    let s = 64 - w;
    ((v << s) as i64) >> s
}

/// Reads `w` (<= 64) bits of `words` from bit `lo` of word `i`.
fn extract(words: &[u64], i: usize, lo: u32, w: u32) -> u64 {
    let mut v = words[i] >> lo;
    if lo + w > 64 {
        v |= words[i + 1] << (64 - lo);
    }
    v & mask(w)
}

/// Writes the low `w` (<= 64) bits of `v` into `words` from bit `lo`
/// of word `i`; returns whether any bit changed.
fn deposit(words: &mut [u64], i: usize, lo: u32, w: u32, v: u64) -> bool {
    let m = mask(w);
    let v = v & m;
    let old = words[i];
    words[i] = (old & !(m << lo)) | (v << lo);
    let mut changed = words[i] != old;
    if lo + w > 64 {
        let old = words[i + 1];
        words[i + 1] = (old & !mask(lo + w - 64)) | (v >> (64 - lo));
        changed |= words[i + 1] != old;
    }
    changed
}

fn un(op: VUnOp, w: u32, v: u64) -> u64 {
    match op {
        VUnOp::Not => !v & mask(w),
        VUnOp::Neg => v.wrapping_neg() & mask(w),
        VUnOp::RedOr => u64::from(v != 0),
        VUnOp::LNot => u64::from(v == 0),
    }
}

fn bin(op: VBinOp, w: u32, x: u64, y: u64) -> u64 {
    let m = mask(w);
    match op {
        VBinOp::Add => x.wrapping_add(y) & m,
        VBinOp::Sub => x.wrapping_sub(y) & m,
        VBinOp::Mul => x.wrapping_mul(y) & m,
        VBinOp::Div => x.checked_div(y).unwrap_or(m),
        VBinOp::Mod => x.checked_rem(y).unwrap_or(x),
        VBinOp::SDiv => {
            if y == 0 {
                m
            } else {
                (sx(x, w).wrapping_div(sx(y, w)) as u64) & m
            }
        }
        VBinOp::SRem => {
            if y == 0 {
                x
            } else {
                (sx(x, w).wrapping_rem(sx(y, w)) as u64) & m
            }
        }
        VBinOp::And => x & y,
        VBinOp::Or => x | y,
        VBinOp::Xor => x ^ y,
        VBinOp::Shl => {
            if y >= u64::from(w) {
                0
            } else {
                (x << y) & m
            }
        }
        VBinOp::Shr => {
            if y >= u64::from(w) {
                0
            } else {
                x >> y
            }
        }
        VBinOp::AShr => {
            if y >= u64::from(w) {
                if (x >> (w - 1)) & 1 == 1 {
                    m
                } else {
                    0
                }
            } else {
                (sx(x, w) >> y) as u64 & m
            }
        }
        VBinOp::Eq => u64::from(x == y),
        VBinOp::Ne => u64::from(x != y),
        VBinOp::Lt => u64::from(x < y),
        VBinOp::Le => u64::from(x <= y),
        VBinOp::SLt => u64::from(sx(x, w) < sx(y, w)),
        VBinOp::SLe => u64::from(sx(x, w) <= sx(y, w)),
    }
}

/// Runs one register program: the one μ-op loop behind every sweep.
/// Combinational writes land in `ar` at once; clocked writes are
/// staged in `updates`.
fn run(
    code: &Code,
    prog: &[Op],
    ar: &mut Arena,
    regs: &mut [u64; REGS],
    updates: &mut Vec<Update>,
) {
    let r = usize::from;
    let mut pc = 0;
    while let Some(&op) = prog.get(pc) {
        pc += 1;
        match op {
            Op::Const { dst, idx } => regs[r(dst)] = code.consts[idx as usize],
            Op::Net { dst, slot } => regs[r(dst)] = ar.narrow[slot as usize],
            Op::Slice { dst, lo, w, slot } => {
                regs[r(dst)] = (ar.narrow[slot as usize] >> lo) & mask(w.into());
            }
            Op::WideSlice { dst, lo, w, word } => {
                regs[r(dst)] = extract(&ar.wide, word as usize, lo.into(), w.into());
            }
            Op::MemRead { dst, addr, mem } => {
                let cells = &ar.mems[mem as usize];
                regs[r(dst)] = cells[(regs[r(addr)] % cells.len() as u64) as usize];
            }
            Op::Un { op, w, r: a } => regs[r(a)] = un(op, w.into(), regs[r(a)]),
            Op::Bin { op, w, dst, a, b } => {
                regs[r(dst)] = bin(op, w.into(), regs[r(a)], regs[r(b)]);
            }
            Op::Cat { dst, lo, lo_w } => {
                regs[r(dst)] = (regs[r(dst)] << lo_w) | regs[r(lo)];
            }
            Op::Sext { r: a, from, to } => {
                let v = regs[r(a)];
                if (v >> (from - 1)) & 1 == 1 {
                    regs[r(a)] = v | (mask(to.into()) & !mask(from.into()));
                }
            }
            Op::Mask { r: a, w } => regs[r(a)] &= mask(w.into()),
            Op::JmpIfZero { cond, to } => {
                if regs[r(cond)] == 0 {
                    pc = to as usize;
                }
            }
            Op::Jmp { to } => pc = to as usize,
            Op::Wide { reg, expr } => {
                let wide = &code.wides[expr as usize];
                let val = wide.expr.eval(code, ar);
                match wide.to {
                    WideTo::Reg => regs[r(reg)] = val.to_u64_lossy(),
                    WideTo::Net(sink) => {
                        code.write(ar, code.sinks[sink], val.words());
                    }
                    WideTo::Stage(sink) => updates.push(Update::WideNet { sink, val }),
                    WideTo::StageMem(mem) => {
                        let index = code.cell(mem, regs[r(reg)]);
                        updates.push(Update::WideMem { mem, index, val });
                    }
                }
            }
            Op::Set { src, slot } => ar.narrow[slot as usize] = regs[r(src)],
            Op::SetBits { src, lo, w, slot } => {
                deposit(&mut ar.narrow, slot as usize, lo.into(), w.into(), regs[r(src)]);
            }
            Op::SetWideBits { src, lo, w, word } => {
                deposit(&mut ar.wide, word as usize, lo.into(), w.into(), regs[r(src)]);
            }
            Op::Stage { src, sink } => {
                updates.push(Update::Net { sink: sink as usize, val: regs[r(src)] });
            }
            Op::StageMem { addr, src, mem } => {
                let mem = mem as usize;
                let index = code.cell(mem, regs[r(addr)]);
                updates.push(Update::Mem { mem, index, val: regs[r(src)] });
            }
        }
    }
}

impl Code {
    /// Reconstructs the full value of net `i`.
    fn net_value(&self, ar: &Arena, i: usize) -> BitVector {
        let w = self.netlist.nets[i].width;
        match self.slots[i] {
            Slot::Narrow(s) => BitVector::from_u64(ar.narrow[s], w),
            Slot::Wide(s) => BitVector::from_words(&ar.wide[s..s + w.div_ceil(64) as usize], w),
        }
    }

    /// Reconstructs cell `index` of memory `mem`.
    fn mem_value(&self, ar: &Arena, mem: usize, index: usize) -> BitVector {
        let k = self.mem_words[mem];
        BitVector::from_words(&ar.mems[mem][index * k..][..k], self.netlist.mems[mem].width)
    }

    /// The cell an address selects: addresses wrap at the depth.
    fn cell(&self, mem: usize, addr: u64) -> usize {
        (addr % self.netlist.mems[mem].depth) as usize
    }

    /// Writes `words` (least significant first, at least
    /// `s.hi - s.lo + 1` bits of them) into bits `s.hi..=s.lo` of
    /// `s.net`; returns whether the stored value changed.
    fn write(&self, ar: &mut Arena, s: Sink, words: &[u64]) -> bool {
        let (arena, base) = match self.slots[s.net] {
            Slot::Narrow(i) => (&mut ar.narrow, i),
            Slot::Wide(i) => (&mut ar.wide, i),
        };
        let mut changed = false;
        let mut lo = s.lo;
        for &word in words {
            if lo > s.hi {
                break;
            }
            let w = (s.hi - lo + 1).min(64);
            changed |= deposit(arena, base + (lo / 64) as usize, lo % 64, w, word);
            lo += w;
        }
        changed
    }

    /// Stores `words` (a full cell) into cell `index` of memory `mem`;
    /// returns whether it changed.
    fn store(&self, ar: &mut Arena, mem: usize, index: usize, words: &[u64]) -> bool {
        let k = self.mem_words[mem];
        let cell = &mut ar.mems[mem][index * k..][..k];
        let changed = cell != words;
        cell.copy_from_slice(words);
        changed
    }
}

/// An expression on the `BitVector` lane: the same shape as [`VExpr`]
/// but with names resolved to indices. Evaluation mirrors
/// [`crate::netlist::eval_expr`] operation for operation.
#[derive(Debug, Clone)]
enum WExpr {
    Const(BitVector),
    Net(usize),
    Slice { net: usize, hi: u32, lo: u32 },
    MemRead { mem: usize, addr: Box<WExpr> },
    Un { op: VUnOp, a: Box<WExpr> },
    Bin { op: VBinOp, a: Box<WExpr>, b: Box<WExpr> },
    Cond { c: Box<WExpr>, t: Box<WExpr>, f: Box<WExpr> },
    Concat(Vec<WExpr>),
    Zext { a: Box<WExpr>, add: u32 },
    Sext { a: Box<WExpr>, to: u32 },
    Trunc { a: Box<WExpr>, w: u32 },
}

impl WExpr {
    fn eval(&self, code: &Code, ar: &Arena) -> BitVector {
        match self {
            Self::Const(c) => c.clone(),
            Self::Net(i) => code.net_value(ar, *i),
            Self::Slice { net, hi, lo } => code.net_value(ar, *net).slice(*hi, *lo),
            Self::MemRead { mem, addr } => {
                let index = code.cell(*mem, addr.eval(code, ar).to_u64_lossy());
                code.mem_value(ar, *mem, index)
            }
            Self::Un { op, a } => {
                let v = a.eval(code, ar);
                match op {
                    VUnOp::Not => v.not(),
                    VUnOp::Neg => v.wrapping_neg(),
                    VUnOp::RedOr => BitVector::from_bool(!v.is_zero()),
                    VUnOp::LNot => BitVector::from_bool(v.is_zero()),
                }
            }
            Self::Bin { op, a, b } => {
                let x = a.eval(code, ar);
                let y = b.eval(code, ar);
                let amount =
                    || u32::try_from(y.to_u64_lossy().min(u64::from(u32::MAX))).expect("clamped");
                match op {
                    VBinOp::Add => x.wrapping_add(&y),
                    VBinOp::Sub => x.wrapping_sub(&y),
                    VBinOp::Mul => x.wrapping_mul(&y),
                    VBinOp::Div => x.unsigned_div(&y),
                    VBinOp::Mod => x.unsigned_rem(&y),
                    VBinOp::SDiv => x.signed_div(&y),
                    VBinOp::SRem => x.signed_rem(&y),
                    VBinOp::And => x.and(&y),
                    VBinOp::Or => x.or(&y),
                    VBinOp::Xor => x.xor(&y),
                    VBinOp::Shl => x.shl(amount()),
                    VBinOp::Shr => x.lshr(amount()),
                    VBinOp::AShr => x.ashr(amount()),
                    VBinOp::Eq => BitVector::from_bool(x == y),
                    VBinOp::Ne => BitVector::from_bool(x != y),
                    VBinOp::Lt => BitVector::from_bool(x.cmp_unsigned(&y).is_lt()),
                    VBinOp::Le => BitVector::from_bool(x.cmp_unsigned(&y).is_le()),
                    VBinOp::SLt => BitVector::from_bool(x.cmp_signed(&y).is_lt()),
                    VBinOp::SLe => BitVector::from_bool(x.cmp_signed(&y).is_le()),
                }
            }
            Self::Cond { c, t, f } => {
                if c.eval(code, ar).is_zero() {
                    f.eval(code, ar)
                } else {
                    t.eval(code, ar)
                }
            }
            Self::Concat(parts) => {
                let mut it = parts.iter();
                let mut acc = it.next().expect("non-empty concat").eval(code, ar);
                for p in it {
                    acc = acc.concat(&p.eval(code, ar));
                }
                acc
            }
            Self::Zext { a, add } => {
                let v = a.eval(code, ar);
                let total = v.width() + add;
                v.zext(total)
            }
            Self::Sext { a, to } => a.eval(code, ar).sext(*to),
            Self::Trunc { a, w } => a.eval(code, ar).trunc(*w),
        }
    }
}

/// A compiled levelized simulator over an elaborated netlist.
///
/// Exposes the same `peek`/`poke`/`clock`/VCD surface as
/// [`crate::sim::NetlistSim`] and is bit-identical to it on every
/// accepted design; see [`crate::AnySim`] for backend-agnostic use.
/// Cloning is cheap: the compiled program is shared, only the state
/// is copied.
pub struct LevelizedSim {
    code: Arc<Code>,
    arena: Arena,
    regs: [u64; REGS],
    /// The edge's staged updates; empty between edges, kept for its
    /// capacity.
    updates: Vec<Update>,
    dirty: Vec<bool>,
    cycles: u64,
    stats: LevelStats,
    vcd: Option<Vcd>,
}

impl std::fmt::Debug for LevelizedSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LevelizedSim")
            .field("nets", &self.code.netlist.nets.len())
            .field("levels", &self.stats.levels)
            .field("partitions", &self.stats.partitions)
            .field("cycles", &self.cycles)
            .finish_non_exhaustive()
    }
}

impl Clone for LevelizedSim {
    /// Clones the simulator state and shares the compiled program; an
    /// attached VCD sink is not cloned (the copy starts without
    /// waveform dumping).
    fn clone(&self) -> Self {
        Self {
            code: Arc::clone(&self.code),
            arena: self.arena.clone(),
            regs: [0; REGS],
            updates: Vec::new(),
            dirty: self.dirty.clone(),
            cycles: self.cycles,
            stats: self.stats,
            vcd: None,
        }
    }
}

impl LevelizedSim {
    /// Elaborates `module`, levelizes it, compiles the evaluation
    /// program, and settles the initial (all-zero) state.
    ///
    /// # Errors
    ///
    /// Propagates elaboration errors; additionally rejects
    /// combinational loops (with a diagnostic naming the nets on the
    /// cycle) and nets driven by both a continuous assignment and the
    /// clocked block.
    pub fn elaborate(module: &VModule) -> Result<Self, VlogError> {
        Self::from_netlist(Netlist::elaborate(module)?)
    }

    /// Builds the simulator from an already-elaborated netlist.
    ///
    /// # Errors
    ///
    /// Same conditions as [`LevelizedSim::elaborate`], minus
    /// elaboration itself.
    pub fn from_netlist(netlist: Netlist) -> Result<Self, VlogError> {
        let lev = Levelized::build(&netlist)?;

        let mut slots = Vec::with_capacity(netlist.nets.len());
        let (mut narrow, mut wide) = (0, 0);
        for n in &netlist.nets {
            if n.width <= 64 {
                slots.push(Slot::Narrow(narrow));
                narrow += 1;
            } else {
                slots.push(Slot::Wide(wide));
                wide += n.width.div_ceil(64) as usize;
            }
        }
        let mem_words: Vec<usize> =
            netlist.mems.iter().map(|m| m.width.div_ceil(64) as usize).collect();
        let arena = Arena {
            narrow: vec![0; narrow],
            wide: vec![0; wide],
            mems: netlist
                .mems
                .iter()
                .zip(&mem_words)
                .map(|(m, k)| vec![0; m.depth as usize * k])
                .collect(),
        };

        let mut c = Compiler {
            netlist: &netlist,
            slots: &slots,
            ops: Vec::new(),
            consts: Vec::new(),
            wides: Vec::new(),
            sinks: Vec::new(),
            base: 0,
            deep: false,
            wide_fallbacks: 0,
        };
        let mut parts = Vec::with_capacity(lev.partitions.len());
        for p in &lev.partitions {
            c.base = c.ops.len();
            for &i in &p.nodes {
                c.node(&netlist.comb[i])?;
            }
            parts.push(c.base..c.ops.len());
        }
        c.base = c.ops.len();
        c.stmts(&netlist.ff)?;
        let ff = c.base..c.ops.len();
        let Compiler { ops, consts, wides, sinks, wide_fallbacks, .. } = c;

        let dirty = vec![true; lev.partitions.len()];
        let stats = LevelStats {
            levels: lev.depth,
            partitions: lev.partitions.len() as u64,
            wide_fallbacks,
            ..LevelStats::default()
        };
        let code = Code { netlist, lev, slots, mem_words, ops, parts, ff, consts, wides, sinks };
        let mut sim = Self {
            code: Arc::new(code),
            arena,
            regs: [0; REGS],
            updates: Vec::new(),
            dirty,
            cycles: 0,
            stats,
            vcd: None,
        };
        sim.eval_dirty(false);
        Ok(sim)
    }

    /// The elaborated netlist.
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        &self.code.netlist
    }

    /// The levelization this simulator was compiled from.
    #[must_use]
    pub fn levelized(&self) -> &Levelized {
        &self.code.lev
    }

    /// Structure and work counters.
    #[must_use]
    pub fn stats(&self) -> LevelStats {
        self.stats
    }

    /// Total rising edges applied.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Total combinational node evaluations — comparable to
    /// [`crate::sim::NetlistSim::events`].
    #[must_use]
    pub fn node_evals(&self) -> u64 {
        self.stats.node_evals
    }

    /// Current value of a net.
    ///
    /// # Errors
    ///
    /// Returns a [`VlogError`] if the net does not exist.
    pub fn peek(&self, name: &str) -> Result<BitVector, VlogError> {
        let id = self
            .code
            .netlist
            .net_id(name)
            .ok_or_else(|| VlogError::new(format!("net `{name}` does not exist")))?;
        Ok(self.code.net_value(&self.arena, id.0))
    }

    /// Current value of one memory cell; the address wraps at the
    /// depth.
    ///
    /// # Errors
    ///
    /// Returns a [`VlogError`] if the memory does not exist.
    pub fn peek_memory(&self, name: &str, addr: u64) -> Result<BitVector, VlogError> {
        let id = self
            .code
            .netlist
            .mem_id(name)
            .ok_or_else(|| VlogError::new(format!("memory `{name}` does not exist")))?;
        Ok(self.code.mem_value(&self.arena, id.0, self.code.cell(id.0, addr)))
    }

    /// Forces a net value (module inputs, or registers for test setup)
    /// and re-evaluates the partitions reading it.
    ///
    /// # Errors
    ///
    /// Returns a [`VlogError`] if the net does not exist, the width
    /// differs, or the net has a continuous driver (whose re-evaluation
    /// would immediately overwrite the poked value — poke registers
    /// and inputs instead; the event-driven backend shares the same
    /// restriction in spirit but does not enforce it).
    pub fn poke(&mut self, name: &str, value: BitVector) -> Result<(), VlogError> {
        let code = &*self.code;
        let id = code
            .netlist
            .net_id(name)
            .ok_or_else(|| VlogError::new(format!("net `{name}` does not exist")))?;
        let w = code.netlist.nets[id.0].width;
        if value.width() != w {
            return Err(VlogError::new(format!(
                "poke of `{name}`: value is {} bits, net is {w}",
                value.width()
            )));
        }
        if code.lev.comb_driven[id.0] {
            return Err(VlogError::new(format!(
                "cannot poke `{name}`: it has a continuous driver (levelized backend)"
            )));
        }
        let sink = Sink { net: id.0, hi: w - 1, lo: 0 };
        if code.write(&mut self.arena, sink, value.words()) {
            for &p in &code.lev.net_feeds[id.0] {
                self.dirty[p] = true;
            }
            self.eval_dirty(false);
        }
        Ok(())
    }

    /// Writes one memory cell directly (test setup) and re-evaluates
    /// the partitions reading the memory: a one-cell
    /// [`LevelizedSim::poke_memory_cells`].
    ///
    /// # Errors
    ///
    /// Returns a [`VlogError`] if the memory does not exist or the
    /// width differs.
    pub fn poke_memory(
        &mut self,
        name: &str,
        addr: u64,
        value: BitVector,
    ) -> Result<(), VlogError> {
        self.poke_memory_cells(name, &[(addr, value)])
    }

    /// Writes many cells of one memory (program loading), each
    /// `(address, value)` in order with addresses wrapping at the
    /// depth, then re-evaluates the partitions reading the memory
    /// once.
    ///
    /// # Errors
    ///
    /// Returns a [`VlogError`], and writes nothing, if the memory does
    /// not exist or a value's width differs from the cells'.
    pub fn poke_memory_cells(
        &mut self,
        name: &str,
        cells: &[(u64, BitVector)],
    ) -> Result<(), VlogError> {
        let code = &*self.code;
        let id = code
            .netlist
            .mem_id(name)
            .ok_or_else(|| VlogError::new(format!("memory `{name}` does not exist")))?;
        let width = code.netlist.mems[id.0].width;
        if let Some((_, v)) = cells.iter().find(|(_, v)| v.width() != width) {
            return Err(VlogError::new(format!(
                "poke of `{name}`: value is {} bits, cells are {width}",
                v.width()
            )));
        }
        let mut changed = false;
        for (addr, value) in cells {
            changed |= code.store(&mut self.arena, id.0, code.cell(id.0, *addr), value.words());
        }
        if changed {
            for &p in &code.lev.mem_feeds[id.0] {
                self.dirty[p] = true;
            }
            self.eval_dirty(false);
        }
        Ok(())
    }

    /// Applies `n` rising clock edges.
    ///
    /// # Errors
    ///
    /// Never fails — loops were rejected at compile time — but keeps
    /// the [`crate::sim::NetlistSim::clock`] signature so the two
    /// backends are drop-in interchangeable.
    pub fn clock(&mut self, n: u64) -> Result<(), VlogError> {
        let (ev0, sk0) = (self.stats.partitions_evaluated, self.stats.partitions_skipped);
        for _ in 0..n {
            self.edge();
        }
        // One summary event per clock() call, never per edge — the
        // inner loop stays free of even the gate check.
        obs::log::event_with(obs::Level::Debug, "vlog.lsim", "clock", || {
            obs::Json::obj()
                .with("edges", n)
                .with("cycles", self.cycles)
                .with("partitions_evaluated", self.stats.partitions_evaluated - ev0)
                .with("partitions_skipped", self.stats.partitions_skipped - sk0)
        });
        Ok(())
    }

    /// Starts dumping a value-change dump of every scalar net to
    /// `sink` — the same format, identifiers, and change records as
    /// the event-driven backend, byte for byte.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink.
    pub fn start_vcd(&mut self, sink: Box<dyn Write + Send + Sync>) -> std::io::Result<()> {
        let code = &*self.code;
        let values: Vec<BitVector> =
            (0..code.netlist.nets.len()).map(|i| code.net_value(&self.arena, i)).collect();
        self.vcd = Some(Vcd::start(sink, &code.netlist.nets, values)?);
        Ok(())
    }

    /// Stops VCD dumping and returns the sink.
    pub fn stop_vcd(&mut self) -> Option<Box<dyn Write + Send + Sync>> {
        self.vcd.take().map(Vcd::into_sink)
    }

    /// One rising clock edge: the ordered register sweep, dirty
    /// marking, and straight-line re-evaluation of dirty partitions.
    fn edge(&mut self) {
        let code = &*self.code;
        run(code, &code.ops[code.ff.clone()], &mut self.arena, &mut self.regs, &mut self.updates);
        for u in self.updates.drain(..) {
            let (changed, feeds) = match u {
                Update::Net { sink, val } => {
                    let s = code.sinks[sink];
                    (code.write(&mut self.arena, s, &[val]), &code.lev.net_feeds[s.net])
                }
                Update::WideNet { sink, val } => {
                    let s = code.sinks[sink];
                    (code.write(&mut self.arena, s, val.words()), &code.lev.net_feeds[s.net])
                }
                Update::Mem { mem, index, val } => {
                    (code.store(&mut self.arena, mem, index, &[val]), &code.lev.mem_feeds[mem])
                }
                Update::WideMem { mem, index, val } => {
                    (code.store(&mut self.arena, mem, index, val.words()), &code.lev.mem_feeds[mem])
                }
            };
            if changed {
                for &p in feeds {
                    self.dirty[p] = true;
                }
            }
        }
        self.cycles += 1;
        self.eval_dirty(true);
        if let Some(vcd) = &mut self.vcd {
            let (code, arena) = (&*self.code, &self.arena);
            vcd.dump_changes(self.cycles, |i| code.net_value(arena, i));
        }
    }

    /// Runs the program of every dirty partition in topological order
    /// and clears its bit. `at_edge` controls whether the skip counters
    /// advance (pokes settle too, but only edges measure quiescence).
    fn eval_dirty(&mut self, at_edge: bool) {
        let code = &*self.code;
        for (p, dirty) in self.dirty.iter_mut().enumerate() {
            if !*dirty {
                if at_edge {
                    self.stats.partitions_skipped += 1;
                }
                continue;
            }
            *dirty = false;
            if at_edge {
                self.stats.partitions_evaluated += 1;
            }
            let prog = &code.ops[code.parts[p].clone()];
            run(code, prog, &mut self.arena, &mut self.regs, &mut self.updates);
            self.stats.node_evals += code.lev.partitions[p].nodes.len() as u64;
        }
    }
}

/// Compiles validated nodes and statements into register programs.
struct Compiler<'a> {
    netlist: &'a Netlist,
    slots: &'a [Slot],
    ops: Vec<Op>,
    consts: Vec<u64>,
    wides: Vec<WideOp>,
    sinks: Vec<Sink>,
    /// Where the program being compiled starts in `ops`; its jump
    /// targets are relative to it.
    base: usize,
    /// Set when an expression needs more registers than the file has.
    deep: bool,
    wide_fallbacks: u64,
}

/// A width, lane offset or bit position that fits a μ-op's byte field.
fn byte(v: u32) -> u8 {
    u8::try_from(v).expect("at most 64")
}

/// An arena or table index as a μ-op's 32-bit field.
fn index(i: usize) -> u32 {
    u32::try_from(i).expect("fewer than 2^32 entries")
}

impl Compiler<'_> {
    /// One combinational node: its value, then the write of its target
    /// bits.
    fn node(&mut self, node: &CombNode) -> Result<(), VlogError> {
        let wides = self.wides.len();
        let (net, hi, lo) = (node.target.0, node.hi, node.lo);
        let w = hi - lo + 1;
        if w > 64 {
            let expr = self.wide(&node.expr)?;
            let sink = self.sink(net, hi, lo);
            self.wide_op(expr, 0, WideTo::Net(sink));
        } else {
            self.value(&node.expr, 0)?;
            let op = match self.slots[net] {
                Slot::Narrow(s) if w == self.netlist.nets[net].width => {
                    Op::Set { src: 0, slot: index(s) }
                }
                Slot::Narrow(s) => Op::SetBits { src: 0, lo: byte(lo), w: byte(w), slot: index(s) },
                Slot::Wide(s) => Op::SetWideBits {
                    src: 0,
                    lo: byte(lo % 64),
                    w: byte(w),
                    word: index(s + (lo / 64) as usize),
                },
            };
            self.ops.push(op);
        }
        if self.wides.len() > wides {
            self.wide_fallbacks += 1;
        }
        Ok(())
    }

    fn stmts(&mut self, stmts: &[VStmt]) -> Result<(), VlogError> {
        stmts.iter().try_for_each(|st| self.stmt(st))
    }

    /// One clocked statement: a staged write, or an `if` as a forward
    /// jump over its `then` body (and a jump over its `else` body).
    fn stmt(&mut self, st: &VStmt) -> Result<(), VlogError> {
        let wides = self.wides.len();
        match st {
            VStmt::NonBlocking { lhs, rhs } => match lhs {
                LValue::Net(_) | LValue::Slice(..) => {
                    let net = self.net(lhs.name())?;
                    let (hi, lo) = match lhs {
                        LValue::Slice(_, hi, lo) => (*hi, *lo),
                        _ => (self.netlist.nets[net].width - 1, 0),
                    };
                    let sink = self.sink(net, hi, lo);
                    if hi - lo + 1 > 64 {
                        let expr = self.wide(rhs)?;
                        self.wide_op(expr, 0, WideTo::Stage(sink));
                    } else {
                        self.value(rhs, 0)?;
                        self.ops.push(Op::Stage { src: 0, sink: index(sink) });
                    }
                }
                LValue::Index(m, addr) => {
                    let mem = self.mem(m)?;
                    self.word(addr, 0)?;
                    if self.netlist.mems[mem].width > 64 {
                        let expr = self.wide(rhs)?;
                        self.wide_op(expr, 0, WideTo::StageMem(mem));
                    } else {
                        self.value(rhs, 1)?;
                        self.ops.push(Op::StageMem { addr: 0, src: 1, mem: index(mem) });
                    }
                }
            },
            VStmt::If { cond, then_body, else_body } => {
                if self.width(cond)? > 64 {
                    let expr = WExpr::Un { op: VUnOp::RedOr, a: Box::new(self.wide(cond)?) };
                    self.wide_op(expr, 0, WideTo::Reg);
                } else {
                    self.value(cond, 0)?;
                }
                if self.wides.len() > wides {
                    self.wide_fallbacks += 1;
                }
                let skip_then = self.jump(Op::JmpIfZero { cond: 0, to: 0 });
                self.stmts(then_body)?;
                if else_body.is_empty() {
                    self.land(skip_then);
                } else {
                    let skip_else = self.jump(Op::Jmp { to: 0 });
                    self.land(skip_then);
                    self.stmts(else_body)?;
                    self.land(skip_else);
                }
                return Ok(());
            }
        }
        if self.wides.len() > wides {
            self.wide_fallbacks += 1;
        }
        Ok(())
    }

    /// Emits code leaving the low 64 bits of `e` in `r[dst]` (an
    /// address: wider values keep only those bits, as in
    /// [`crate::netlist::eval_expr`]).
    fn word(&mut self, e: &VExpr, dst: Reg) -> Result<(), VlogError> {
        if self.width(e)? > 64 {
            let expr = self.wide(e)?;
            self.wide_op(expr, dst, WideTo::Reg);
            Ok(())
        } else {
            self.value(e, dst)
        }
    }

    /// Emits code leaving `e`'s value (at most 64 bits) in `r[dst]`,
    /// using only registers from `dst` up. A tree that needs more
    /// registers than the file has runs on the `BitVector` lane.
    fn value(&mut self, e: &VExpr, dst: Reg) -> Result<(), VlogError> {
        let mark = (self.ops.len(), self.consts.len(), self.wides.len());
        self.lower(e, dst)?;
        if self.deep {
            self.deep = false;
            self.ops.truncate(mark.0);
            self.consts.truncate(mark.1);
            self.wides.truncate(mark.2);
            let expr = self.wide(e)?;
            self.wide_op(expr, dst, WideTo::Reg);
        }
        Ok(())
    }

    fn lower(&mut self, e: &VExpr, dst: Reg) -> Result<(), VlogError> {
        // Operands wider than 64 bits put the whole subtree on the
        // `BitVector` lane.
        let wide_operand = match e {
            VExpr::Index(_, a) | VExpr::Unary(_, a) | VExpr::Trunc(a, _) => self.width(a)? > 64,
            VExpr::Binary(_, a, b) => self.width(a)? > 64 || self.width(b)? > 64,
            VExpr::Cond(c, _, _) => self.width(c)? > 64,
            _ => false,
        };
        if wide_operand {
            let expr = self.wide(e)?;
            self.wide_op(expr, dst, WideTo::Reg);
            return Ok(());
        }
        match e {
            VExpr::Const(c) => {
                let idx = index(self.consts.len());
                self.consts.push(c.to_u64_lossy());
                self.ops.push(Op::Const { dst, idx });
            }
            VExpr::Net(n) => {
                let Slot::Narrow(s) = self.slots[self.net(n)?] else {
                    unreachable!("a net of at most 64 bits is narrow")
                };
                self.ops.push(Op::Net { dst, slot: index(s) });
            }
            VExpr::Slice(n, hi, lo) => {
                let w = byte(hi - lo + 1);
                self.ops.push(match self.slots[self.net(n)?] {
                    Slot::Narrow(s) => Op::Slice { dst, lo: byte(*lo), w, slot: index(s) },
                    Slot::Wide(s) => Op::WideSlice {
                        dst,
                        lo: byte(lo % 64),
                        w,
                        word: index(s + (lo / 64) as usize),
                    },
                });
            }
            VExpr::Index(m, a) => {
                let mem = self.mem(m)?;
                self.lower(a, dst)?;
                self.ops.push(Op::MemRead { dst, addr: dst, mem: index(mem) });
            }
            VExpr::Unary(op, a) => {
                let w = byte(self.width(a)?);
                self.lower(a, dst)?;
                self.ops.push(Op::Un { op: *op, w, r: dst });
            }
            VExpr::Binary(op, a, b) => {
                let w = byte(self.width(a)?);
                let rb = self.above(dst);
                self.lower(a, dst)?;
                self.lower(b, rb)?;
                self.ops.push(Op::Bin { op: *op, w, dst, a: dst, b: rb });
            }
            VExpr::Cond(c, t, f) => {
                self.lower(c, dst)?;
                let to_f = self.jump(Op::JmpIfZero { cond: dst, to: 0 });
                self.lower(t, dst)?;
                let to_end = self.jump(Op::Jmp { to: 0 });
                self.land(to_f);
                self.lower(f, dst)?;
                self.land(to_end);
            }
            VExpr::Concat(parts) => {
                let (first, rest) = parts.split_first().expect("non-empty concat");
                let lo = self.above(dst);
                self.lower(first, dst)?;
                for p in rest {
                    let lo_w = byte(self.width(p)?);
                    self.lower(p, lo)?;
                    self.ops.push(Op::Cat { dst, lo, lo_w });
                }
            }
            // Zero-extension does not change the stored word.
            VExpr::Zext(a, _) => self.lower(a, dst)?,
            VExpr::Sext(a, from, to) => {
                self.lower(a, dst)?;
                self.ops.push(Op::Sext { r: dst, from: byte(*from), to: byte(*to) });
            }
            VExpr::Trunc(a, w) => {
                self.lower(a, dst)?;
                self.ops.push(Op::Mask { r: dst, w: byte(*w) });
            }
        }
        Ok(())
    }

    /// The register after `r`; flags the tree as too deep at the top
    /// of the file.
    fn above(&mut self, r: Reg) -> Reg {
        r.checked_add(1).unwrap_or_else(|| {
            self.deep = true;
            r
        })
    }

    /// Emits a jump whose target [`Compiler::land`] fills in.
    fn jump(&mut self, op: Op) -> usize {
        self.ops.push(op);
        self.ops.len() - 1
    }

    /// Points the jump at `at` to the next op to be emitted.
    fn land(&mut self, at: usize) {
        let here = index(self.ops.len() - self.base);
        match &mut self.ops[at] {
            Op::JmpIfZero { to, .. } | Op::Jmp { to } => *to = here,
            _ => unreachable!("only jumps are landed"),
        }
    }

    fn wide_op(&mut self, expr: WExpr, reg: Reg, to: WideTo) {
        let i = index(self.wides.len());
        self.wides.push(WideOp { expr, to });
        self.ops.push(Op::Wide { reg, expr: i });
    }

    fn sink(&mut self, net: usize, hi: u32, lo: u32) -> usize {
        self.sinks.push(Sink { net, hi, lo });
        self.sinks.len() - 1
    }

    fn wide(&self, e: &VExpr) -> Result<WExpr, VlogError> {
        Ok(match e {
            VExpr::Net(n) => WExpr::Net(self.net(n)?),
            VExpr::Const(c) => WExpr::Const(c.clone()),
            VExpr::Index(m, a) => {
                WExpr::MemRead { mem: self.mem(m)?, addr: Box::new(self.wide(a)?) }
            }
            VExpr::Slice(n, hi, lo) => WExpr::Slice { net: self.net(n)?, hi: *hi, lo: *lo },
            VExpr::Unary(op, a) => WExpr::Un { op: *op, a: Box::new(self.wide(a)?) },
            VExpr::Binary(op, a, b) => {
                WExpr::Bin { op: *op, a: Box::new(self.wide(a)?), b: Box::new(self.wide(b)?) }
            }
            VExpr::Cond(c, t, f) => WExpr::Cond {
                c: Box::new(self.wide(c)?),
                t: Box::new(self.wide(t)?),
                f: Box::new(self.wide(f)?),
            },
            VExpr::Concat(parts) => {
                WExpr::Concat(parts.iter().map(|p| self.wide(p)).collect::<Result<Vec<_>, _>>()?)
            }
            VExpr::Zext(a, add) => WExpr::Zext { a: Box::new(self.wide(a)?), add: *add },
            VExpr::Sext(a, _, to) => WExpr::Sext { a: Box::new(self.wide(a)?), to: *to },
            VExpr::Trunc(a, w) => WExpr::Trunc { a: Box::new(self.wide(a)?), w: *w },
        })
    }

    fn width(&self, e: &VExpr) -> Result<u32, VlogError> {
        self.netlist.expr_width(e)
    }

    fn net(&self, name: &str) -> Result<usize, VlogError> {
        self.netlist
            .net_id(name)
            .map(|id| id.0)
            .ok_or_else(|| VlogError::new(format!("net `{name}` is not declared")))
    }

    fn mem(&self, name: &str) -> Result<usize, VlogError> {
        self.netlist
            .mem_id(name)
            .map(|id| id.0)
            .ok_or_else(|| VlogError::new(format!("memory `{name}` is not declared")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{VBinOp, VExpr, VModule, VStmt, VUnOp};
    use crate::sim::NetlistSim;

    fn counter(width: u32) -> VModule {
        let mut m = VModule::new("counter");
        m.add_reg("count", width);
        m.add_output("out", width);
        m.assign(LValue::net("out"), VExpr::net("count"));
        m.always_ff(vec![VStmt::NonBlocking {
            lhs: LValue::net("count"),
            rhs: VExpr::binary(VBinOp::Add, VExpr::net("count"), VExpr::const_u64(1, width)),
        }]);
        m
    }

    #[test]
    fn counter_counts_and_wraps() {
        let mut sim = LevelizedSim::elaborate(&counter(3)).expect("elaborates");
        sim.clock(5).expect("clocks");
        assert_eq!(sim.peek("count").expect("net").to_u64_lossy(), 5);
        assert_eq!(sim.peek("out").expect("net").to_u64_lossy(), 5);
        sim.clock(5).expect("clocks");
        assert_eq!(sim.peek("count").expect("net").to_u64_lossy(), 2, "3-bit wrap");
        assert_eq!(sim.cycles(), 10);
        assert!(sim.node_evals() > 0);
    }

    #[test]
    fn wide_counter_takes_bitvector_lane() {
        let mut sim = LevelizedSim::elaborate(&counter(96)).expect("elaborates");
        sim.clock(3).expect("clocks");
        assert_eq!(sim.peek("out").expect("net").to_u64_lossy(), 3);
        assert_eq!(sim.peek("out").expect("net").width(), 96);
        // The 96-bit copy node and the 96-bit increment.
        assert_eq!(sim.stats().wide_fallbacks, 2);
    }

    #[test]
    fn poke_of_driven_net_is_a_typed_error() {
        let mut m = VModule::new("m");
        m.add_input("a", 4);
        m.add_wire("x", 4);
        m.assign(LValue::net("x"), VExpr::unary(VUnOp::Not, VExpr::net("a")));
        let mut sim = LevelizedSim::elaborate(&m).expect("elaborates");
        let err = sim.poke("x", BitVector::from_u64(1, 4)).expect_err("driven");
        assert!(err.message().contains("continuous driver"), "{}", err.message());
    }

    #[test]
    fn quiescent_partition_is_skipped() {
        // Two cones: one fed by a running counter, one by a register
        // that never changes. The static cone must be skipped at every
        // edge after the first.
        let mut m = counter(4);
        m.add_reg("frozen", 4);
        m.add_wire("static_inv", 4);
        m.assign(LValue::net("static_inv"), VExpr::unary(VUnOp::Not, VExpr::net("frozen")));
        let mut sim = LevelizedSim::elaborate(&m).expect("elaborates");
        sim.clock(10).expect("clocks");
        let s = sim.stats();
        assert_eq!(s.partitions, 2);
        assert_eq!(s.partitions_skipped, 10, "static cone skipped every edge");
        assert!(s.skip_rate() > 0.0);
        assert_eq!(sim.peek("static_inv").expect("net").to_u64_lossy(), 0xF);
    }

    #[test]
    fn unknown_names_are_typed_errors() {
        let sim = LevelizedSim::elaborate(&counter(4)).expect("elaborates");
        assert!(sim.peek("ghost").is_err());
        assert!(sim.peek_memory("ghost", 0).is_err());
        let mut sim = sim;
        assert!(sim.poke("ghost", BitVector::from_u64(0, 4)).is_err());
        assert!(sim.poke_memory("ghost", 0, BitVector::from_u64(0, 4)).is_err());
    }

    #[test]
    fn memory_write_and_read() {
        let mut m = VModule::new("m");
        m.add_memory("ram", 8, 16);
        m.add_input("we", 1);
        m.add_input("waddr", 4);
        m.add_input("wdata", 8);
        m.add_input("raddr", 4);
        m.add_wire("q", 8);
        m.assign(LValue::net("q"), VExpr::Index("ram".into(), Box::new(VExpr::net("raddr"))));
        m.always_ff(vec![VStmt::If {
            cond: VExpr::net("we"),
            then_body: vec![VStmt::NonBlocking {
                lhs: LValue::Index("ram".into(), VExpr::net("waddr")),
                rhs: VExpr::net("wdata"),
            }],
            else_body: vec![],
        }]);
        let mut sim = LevelizedSim::elaborate(&m).expect("elaborates");
        sim.poke("we", BitVector::from_u64(1, 1)).expect("pokes");
        sim.poke("waddr", BitVector::from_u64(5, 4)).expect("pokes");
        sim.poke("wdata", BitVector::from_u64(0xAB, 8)).expect("pokes");
        sim.clock(1).expect("clocks");
        assert_eq!(sim.peek_memory("ram", 5).expect("mem").to_u64_lossy(), 0xAB);
        sim.poke("raddr", BitVector::from_u64(5, 4)).expect("pokes");
        assert_eq!(sim.peek("q").expect("net").to_u64_lossy(), 0xAB);
    }

    #[test]
    fn nonblocking_reads_old_values() {
        let mut m = VModule::new("m");
        m.add_reg("a", 4);
        m.add_reg("b", 4);
        m.always_ff(vec![
            VStmt::NonBlocking { lhs: LValue::net("a"), rhs: VExpr::net("b") },
            VStmt::NonBlocking { lhs: LValue::net("b"), rhs: VExpr::net("a") },
        ]);
        let mut sim = LevelizedSim::elaborate(&m).expect("elaborates");
        sim.poke("a", BitVector::from_u64(1, 4)).expect("pokes");
        sim.poke("b", BitVector::from_u64(2, 4)).expect("pokes");
        sim.clock(1).expect("clocks");
        assert_eq!(sim.peek("a").expect("net").to_u64_lossy(), 2);
        assert_eq!(sim.peek("b").expect("net").to_u64_lossy(), 1);
    }

    #[test]
    fn combinational_loop_rejected_at_compile_time() {
        let mut m = VModule::new("m");
        m.add_wire("p", 1);
        m.add_wire("q", 1);
        m.assign(LValue::net("p"), VExpr::unary(VUnOp::Not, VExpr::net("q")));
        m.assign(LValue::net("q"), VExpr::net("p"));
        let err = LevelizedSim::elaborate(&m).expect_err("ring oscillator");
        assert!(err.message().contains("combinational loop"), "{}", err.message());
    }

    /// A value of `width` bits with no repeating pattern across words.
    fn pattern(width: u32) -> BitVector {
        BitVector::from_words(
            &[0x0123_4567_89ab_cdef, 0xf0e1_d2c3_b4a5_9687, 0x5a5a_c3c3_0ff0_9669],
            width,
        )
    }

    #[test]
    fn wide_net_slices_take_the_u64_lane() {
        for width in [128u32, 192] {
            let mut m = VModule::new("slices");
            m.add_input("src", width);
            let mut slices = Vec::new();
            let mut ff = Vec::new();
            for lo in [0u32, 1, 60, 63, 64, 65, 120] {
                for w in [1u32, 4, 8, 63, 64] {
                    if lo + w > width {
                        continue;
                    }
                    let (hi, name) = (lo + w - 1, format!("s{lo}_{w}"));
                    m.add_wire(name.clone(), w);
                    m.assign(LValue::net(name.clone()), VExpr::Slice("src".into(), hi, lo));
                    m.add_reg(format!("r{lo}_{w}"), w);
                    ff.push(VStmt::NonBlocking {
                        lhs: LValue::net(format!("r{lo}_{w}")),
                        rhs: VExpr::Slice("src".into(), hi, lo),
                    });
                    slices.push((name, hi, lo));
                }
            }
            m.always_ff(ff);
            let value = pattern(width);
            let mut lsim = LevelizedSim::elaborate(&m).expect("elaborates");
            let mut esim = NetlistSim::elaborate(&m).expect("elaborates");
            assert_eq!(lsim.stats().wide_fallbacks, 0, "every slice is narrow");
            lsim.poke("src", value.clone()).expect("pokes");
            esim.poke("src", value.clone()).expect("pokes");
            lsim.clock(1).expect("clocks");
            esim.clock(1).expect("clocks");
            for (name, hi, lo) in &slices {
                let want = value.slice(*hi, *lo);
                let reg = format!("r{}", &name[1..]);
                for net in [name, &reg] {
                    let got = lsim.peek(net).expect("net");
                    assert_eq!(got, want, "{width}-bit src[{hi}:{lo}] via {net}");
                    assert_eq!(
                        &got,
                        esim.peek(net).expect("net"),
                        "{net} against the event backend"
                    );
                }
            }
        }
    }

    #[test]
    fn narrow_writes_into_a_wide_net_straddle_words() {
        let mut m = VModule::new("m");
        m.add_input("a", 8);
        m.add_input("b", 64);
        m.add_wire("w", 128);
        m.assign(LValue::Slice("w".into(), 67, 60), VExpr::net("a"));
        m.assign(LValue::Slice("w".into(), 127, 68), VExpr::Trunc(Box::new(VExpr::net("b")), 60));
        m.assign(LValue::Slice("w".into(), 59, 0), VExpr::Trunc(Box::new(VExpr::net("b")), 60));
        m.add_reg("r", 192);
        m.always_ff(vec![VStmt::NonBlocking {
            lhs: LValue::Slice("r".into(), 131, 68),
            rhs: VExpr::net("b"),
        }]);
        let mut lsim = LevelizedSim::elaborate(&m).expect("elaborates");
        let mut esim = NetlistSim::elaborate(&m).expect("elaborates");
        assert_eq!(lsim.stats().wide_fallbacks, 0);
        for (a, b) in [(0xA5u64, u64::MAX), (0x3C, 0x0123_4567_89ab_cdef)] {
            let (a, b) = (BitVector::from_u64(a, 8), BitVector::from_u64(b, 64));
            lsim.poke("a", a.clone()).expect("pokes");
            lsim.poke("b", b.clone()).expect("pokes");
            esim.poke("a", a).expect("pokes");
            esim.poke("b", b).expect("pokes");
            lsim.clock(1).expect("clocks");
            esim.clock(1).expect("clocks");
            for net in ["w", "r"] {
                assert_eq!(&lsim.peek(net).expect("net"), esim.peek(net).expect("net"), "{net}");
            }
        }
    }

    #[test]
    fn bitvector_lane_ops_match_the_event_backend() {
        // Every way a value reaches the `BitVector` lane: a 96-bit node,
        // a 96-bit address of a narrow memory (read and written), an
        // `if` on a 96-bit condition, a 96-bit memory cell written from
        // the clocked block, and a tree too deep for the register file.
        let mut m = VModule::new("m");
        m.add_input("a", 96);
        m.add_input("k", 8);
        m.add_memory("ram", 96, 4);
        m.add_memory("rom", 8, 4);
        m.add_wire("q", 96);
        m.add_wire("lo", 8);
        m.add_wire("deep", 8);
        m.add_reg("sum", 8);
        m.assign(
            LValue::net("q"),
            VExpr::Index("ram".into(), Box::new(VExpr::Slice("k".into(), 1, 0))),
        );
        m.assign(LValue::net("lo"), VExpr::Index("rom".into(), Box::new(VExpr::net("a"))));
        let mut deep = VExpr::net("k");
        for _ in 0..300 {
            deep = VExpr::binary(VBinOp::Add, VExpr::net("k"), deep);
        }
        m.assign(LValue::net("deep"), deep);
        m.always_ff(vec![
            VStmt::If {
                cond: VExpr::net("a"),
                then_body: vec![VStmt::NonBlocking {
                    lhs: LValue::Index("ram".into(), VExpr::Slice("k".into(), 1, 0)),
                    rhs: VExpr::net("a"),
                }],
                else_body: vec![],
            },
            VStmt::NonBlocking {
                lhs: LValue::Index("rom".into(), VExpr::net("a")),
                rhs: VExpr::net("k"),
            },
            VStmt::NonBlocking {
                lhs: LValue::net("sum"),
                rhs: VExpr::binary(VBinOp::Add, VExpr::net("sum"), VExpr::net("lo")),
            },
        ]);
        let mut lsim = LevelizedSim::elaborate(&m).expect("elaborates");
        let mut esim = NetlistSim::elaborate(&m).expect("elaborates");
        assert_eq!(lsim.stats().wide_fallbacks, 6, "nodes q, lo, deep; the if, ram and rom writes");
        for (i, k) in [3u64, 0x81, 0xfe, 7].into_iter().enumerate() {
            let a = pattern(96).shl(i as u32 * 40);
            for (name, v) in [("a", a), ("k", BitVector::from_u64(k, 8))] {
                lsim.poke(name, v.clone()).expect("pokes");
                esim.poke(name, v).expect("pokes");
            }
            assert_eq!(lsim.peek("deep").expect("net").to_u64_lossy(), (301 * k) & 0xff);
            lsim.clock(2).expect("clocks");
            esim.clock(2).expect("clocks");
            for n in &lsim.netlist().nets {
                assert_eq!(&lsim.peek(&n.name).expect("net"), esim.peek(&n.name).expect("net"));
            }
            for (mem, cell) in [("ram", 0), ("ram", 3), ("rom", 0), ("rom", 2)] {
                let want = esim.peek_memory(mem, cell).expect("cell");
                assert_eq!(&lsim.peek_memory(mem, cell).expect("cell"), want, "{mem}[{cell}]");
            }
        }
    }

    const BIN_OPS: [VBinOp; 19] = [
        VBinOp::Add,
        VBinOp::Sub,
        VBinOp::Mul,
        VBinOp::Div,
        VBinOp::Mod,
        VBinOp::SDiv,
        VBinOp::SRem,
        VBinOp::And,
        VBinOp::Or,
        VBinOp::Xor,
        VBinOp::Shl,
        VBinOp::Shr,
        VBinOp::AShr,
        VBinOp::Eq,
        VBinOp::Ne,
        VBinOp::Lt,
        VBinOp::Le,
        VBinOp::SLt,
        VBinOp::SLe,
    ];

    /// One expression per μ-op over `w`-bit inputs `a` and `b`, 1-bit
    /// `c`, and a 4-cell `w`-bit memory addressed by 2-bit `addr`.
    fn op_exprs(w: u32) -> Vec<VExpr> {
        let (a, b, c) = (VExpr::net("a"), VExpr::net("b"), VExpr::net("c"));
        let trunc = |e: &VExpr, to: u32| VExpr::Trunc(Box::new(e.clone()), to);
        let mut out: Vec<VExpr> =
            BIN_OPS.iter().map(|&op| VExpr::binary(op, a.clone(), b.clone())).collect();
        for op in [VUnOp::Not, VUnOp::Neg, VUnOp::RedOr, VUnOp::LNot] {
            out.push(VExpr::unary(op, a.clone()));
        }
        out.push(VExpr::Index("mem".into(), Box::new(VExpr::net("addr"))));
        out.push(trunc(&a, 1));
        out.push(trunc(&b, w));
        if w > 1 {
            out.push(trunc(&a, w / 2));
            out.push(VExpr::Sext(Box::new(trunc(&b, w - 1)), w - 1, w));
        }
        if w < 64 {
            out.push(VExpr::Concat(vec![c.clone(), a.clone()]));
            out.push(VExpr::Sext(Box::new(a.clone()), w, 64));
            out.push(VExpr::Zext(Box::new(b.clone()), 64 - w));
        } else {
            out.push(VExpr::Concat(vec![c.clone(), trunc(&a, 63)]));
            out.push(VExpr::Sext(Box::new(trunc(&a, 1)), 1, 64));
        }
        if 2 * w < 64 {
            out.push(VExpr::Concat(vec![a.clone(), c.clone(), b.clone()]));
        }
        out.push(VExpr::cond(
            c.clone(),
            VExpr::cond(VExpr::unary(VUnOp::RedOr, a.clone()), a.clone(), b.clone()),
            VExpr::cond(
                VExpr::binary(VBinOp::Lt, a.clone(), b.clone()),
                b.clone(),
                VExpr::unary(VUnOp::Not, a.clone()),
            ),
        ));
        out
    }

    #[test]
    fn every_micro_op_matches_eval_expr() {
        for w in [1u32, 8, 63, 64] {
            let mut m = VModule::new("ops");
            m.add_input("a", w);
            m.add_input("b", w);
            m.add_input("c", 1);
            m.add_input("addr", 2);
            m.add_memory("mem", w, 4);
            let inputs = Netlist::elaborate(&m).expect("elaborates");
            let exprs = op_exprs(w);
            for (i, e) in exprs.iter().enumerate() {
                let name = format!("y{i}");
                m.add_wire(name.clone(), inputs.expr_width(e).expect("valid expression"));
                m.assign(LValue::net(name), e.clone());
            }
            let mut sim = LevelizedSim::elaborate(&m).expect("elaborates");
            assert_eq!(sim.stats().wide_fallbacks, 0, "{w}-bit ops all run as μ-ops");
            let top = 1u64 << (w - 1);
            let values: Vec<u64> = [
                0,
                1,
                2,
                7,
                63,
                64,
                top,
                top | 1,
                u64::MAX,
                0x5555_5555_5555_5555,
                0xdead_beef_cafe_f00d,
            ]
            .iter()
            .map(|v| v & mask(w))
            .collect();
            let cells: Vec<(u64, BitVector)> =
                (0..4).map(|i| (i, BitVector::from_u64(values[i as usize + 6], w))).collect();
            sim.poke_memory_cells("mem", &cells).expect("pokes");
            for (k, &x) in values.iter().enumerate() {
                for &y in &values {
                    sim.poke("a", BitVector::from_u64(x, w)).expect("pokes");
                    sim.poke("b", BitVector::from_u64(y, w)).expect("pokes");
                    sim.poke("c", BitVector::from_u64(y & 1, 1)).expect("pokes");
                    sim.poke("addr", BitVector::from_u64(k as u64, 2)).expect("pokes");
                    let nl = sim.netlist();
                    let nets: Vec<BitVector> =
                        nl.nets.iter().map(|n| sim.peek(&n.name).expect("net")).collect();
                    let mems: Vec<Vec<BitVector>> =
                        vec![(0..4).map(|i| sim.peek_memory("mem", i).expect("cell")).collect()];
                    for (i, e) in exprs.iter().enumerate() {
                        let want = crate::netlist::eval_expr(e, nl, &nets, &mems);
                        let got = sim.peek(&format!("y{i}")).expect("net");
                        assert_eq!(got, want, "w={w} a={x:#x} b={y:#x}: {e:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn batched_memory_write_matches_single_cell_pokes() {
        let mut m = VModule::new("m");
        m.add_memory("rom", 96, 8);
        m.add_input("addr", 3);
        m.add_wire("q", 96);
        m.add_wire("lo", 8);
        m.assign(LValue::net("q"), VExpr::Index("rom".into(), Box::new(VExpr::net("addr"))));
        m.assign(LValue::net("lo"), VExpr::Slice("q".into(), 67, 60));
        let cells: Vec<(u64, BitVector)> =
            (0..10).map(|a| (a, pattern(96).shl(a as u32 * 5))).collect();
        let mut batched = LevelizedSim::elaborate(&m).expect("elaborates");
        let mut single = batched.clone();
        batched.poke_memory_cells("rom", &cells).expect("pokes");
        for (a, v) in &cells {
            single.poke_memory("rom", *a, v.clone()).expect("pokes");
        }
        for a in 0..8 {
            assert_eq!(batched.peek_memory("rom", a), single.peek_memory("rom", a));
        }
        for net in ["q", "lo"] {
            assert_eq!(batched.peek(net), single.peek(net));
        }
        assert!(batched.node_evals() < single.node_evals(), "one settle, not ten");
        let bad = [(0, pattern(96)), (1, BitVector::from_u64(1, 8))];
        assert!(batched.poke_memory_cells("rom", &bad).is_err());
        assert_eq!(batched.peek_memory("rom", 0), single.peek_memory("rom", 0), "nothing written");
    }

    #[test]
    fn clones_share_the_program_and_copy_the_state() {
        let mut sim = LevelizedSim::elaborate(&counter(8)).expect("elaborates");
        sim.clock(3).expect("clocks");
        let mut copy = sim.clone();
        assert!(Arc::ptr_eq(&sim.code, &copy.code));
        copy.clock(2).expect("clocks");
        assert_eq!(sim.peek("count").expect("net").to_u64_lossy(), 3);
        assert_eq!(copy.peek("count").expect("net").to_u64_lossy(), 5);
    }
}
