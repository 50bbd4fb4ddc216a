//! The compiled processing core.
//!
//! GENSIM emits the processing core as C source compiled into the
//! simulator binary (§3.3.3). The Rust analogue: RTL is compiled once
//! per (operation, non-terminal-option choice) into a flat register
//! bytecode over `u64` lanes, then executed by a tight loop — no tree
//! walking, no `BitVector` allocation on the hot path.
//!
//! Each compiled `Write` carries its operation's `latency`, so a
//! [`Program`] is self-contained: [`run`] needs only the runtime
//! parameters and the cycle-start state. The translated tier
//! ([`crate::translate`]) fuses and folds these programs per
//! instruction and runs the result on the same [`run`].
//!
//! Operations whose RTL involves values wider than 64 bits fall back to
//! the tree-walking executor ([`crate::exec`]) transparently. The
//! differential tests check both lanes against the generated hardware,
//! on a corpus that uses every construct this compiler lowers.

use crate::exec::{self, Binding, Frame, StagedWrite};
use crate::state::State;
use bitv::BitVector;
use isdl::model::{Machine, OpRef};
use isdl::opt::{OptStats, Pipeline};
use isdl::rtl::{BinOp, ExtKind, RExpr, RExprKind, RLvalue, RStmt, StorageId, UnOp};
use std::collections::HashMap;
use std::rc::Rc;

/// Cache of compiled operation phases, plus the per-(operation, phase)
/// optimized RTL they are compiled from. Optimization is independent of
/// the non-terminal option path (parameters are opaque to the
/// middle-end), so optimized statements are cached at (op, phase)
/// granularity and shared by every option-path compilation.
#[derive(Debug, Default)]
pub(crate) struct Cache {
    map: HashMap<Key, Rc<Compiled>>,
    opt: HashMap<(OpRef, Phase), Rc<Vec<RStmt>>>,
}

#[derive(Debug, PartialEq, Eq, Hash, Clone)]
struct Key {
    op: OpRef,
    phase: Phase,
    /// Non-terminal option choices, flattened in traversal order.
    options: Vec<usize>,
}

#[derive(Debug, PartialEq, Eq, Hash, Clone, Copy)]
pub(crate) enum Phase {
    Action,
    SideEffects,
}

/// A parameter slot tree mirroring the bindings, mapping token leaves
/// to flattened runtime slots.
#[derive(Debug, Clone)]
enum PSlot {
    Token(u16),
    Nt { nt: usize, option: usize, args: Vec<PSlot> },
}

#[derive(Debug)]
pub(crate) enum Compiled {
    /// Flat bytecode over u64 lanes.
    Code(Program),
    /// RTL too wide for u64 lanes — interpret the tree instead. The
    /// carried statements are the *optimized* RTL, so the fallback
    /// path benefits from the middle-end too.
    Wide(Rc<Vec<RStmt>>),
}

#[derive(Debug)]
pub(crate) struct Program {
    pub(crate) code: Vec<BOp>,
    pub(crate) n_regs: usize,
}

pub(crate) type Reg = u16;

#[derive(Debug, Clone)]
pub(crate) enum BOp {
    Const {
        dst: Reg,
        val: u64,
    },
    ReadParam {
        dst: Reg,
        slot: u16,
    },
    ReadSt {
        dst: Reg,
        sid: StorageId,
    },
    ReadIdx {
        dst: Reg,
        sid: StorageId,
        idx: Reg,
        depth: u64,
    },
    /// `ReadIdx` whose index folded to a constant (pre-wrapped).
    ReadFix {
        dst: Reg,
        sid: StorageId,
        idx: u64,
    },
    Bin {
        op: BinOp,
        w: u32,
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    /// `Bin` whose right operand folded to a constant.
    BinImm {
        op: BinOp,
        w: u32,
        dst: Reg,
        a: Reg,
        imm: u64,
    },
    Un {
        op: UnOp,
        w: u32,
        dst: Reg,
        a: Reg,
    },
    Slice {
        dst: Reg,
        src: Reg,
        hi: u32,
        lo: u32,
    },
    Sext {
        dst: Reg,
        src: Reg,
        from_w: u32,
        to_w: u32,
    },
    /// Zext and trunc are pure masks on u64 lanes.
    Mask {
        dst: Reg,
        src: Reg,
        w: u32,
    },
    /// `dst = (a << b_width) | b` — lowered concat.
    Cat {
        dst: Reg,
        a: Reg,
        b: Reg,
        b_width: u32,
    },
    JmpIfZero {
        cond: Reg,
        target: usize,
    },
    Jmp {
        target: usize,
    },
    /// Stages `src[hi:lo]` into the cell, visible `latency` cycles
    /// after issue (the writing operation's `timing.latency`).
    Write {
        sid: StorageId,
        idx: Option<Reg>,
        depth: u64,
        hi: u32,
        lo: u32,
        src: Reg,
        latency: u32,
    },
    /// `Write` whose index folded to a constant (pre-wrapped).
    WriteFix {
        sid: StorageId,
        idx: u64,
        hi: u32,
        lo: u32,
        src: Reg,
        latency: u32,
    },
}

impl Cache {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Looks up (or computes) the optimized RTL for one phase of
    /// `op_ref`. Middle-end statistics accumulate into `stats` on the
    /// first (and only) optimization of each phase.
    fn optimized(
        &mut self,
        machine: &Machine,
        op_ref: OpRef,
        phase: Phase,
        pipeline: &Pipeline,
        stats: &mut OptStats,
    ) -> Rc<Vec<RStmt>> {
        if let Some(s) = self.opt.get(&(op_ref, phase)) {
            return Rc::clone(s);
        }
        let op = machine.op(op_ref);
        let raw = match phase {
            Phase::Action => &op.action,
            Phase::SideEffects => &op.side_effects,
        };
        let stmts = if pipeline.is_identity() {
            // Skip the pipeline entirely so an empty schedule
            // (`--opt=0`) is a true baseline (stats stay zero).
            Rc::new(raw.clone())
        } else {
            Rc::new(pipeline.run(raw, stats))
        };
        self.opt.insert((op_ref, phase), Rc::clone(&stmts));
        stmts
    }

    /// Looks up (or compiles) the given phase of `op_ref` for the
    /// non-terminal option choices of `bindings`. The result is cached
    /// and shared, so per-instruction preparation is one hash lookup.
    pub(crate) fn prepare(
        &mut self,
        machine: &Machine,
        op_ref: OpRef,
        phase: Phase,
        bindings: &[Binding],
        pipeline: &Pipeline,
        stats: &mut OptStats,
    ) -> Rc<Compiled> {
        let key = Key { op: op_ref, phase, options: option_path(bindings) };
        if let Some(c) = self.map.get(&key) {
            return Rc::clone(c);
        }
        let stmts = self.optimized(machine, op_ref, phase, pipeline, stats);
        let latency = machine.op(op_ref).timing.latency;
        let c = Rc::new(compile(machine, &stmts, bindings, latency));
        self.map.insert(key, Rc::clone(&c));
        c
    }
}

/// Executes a prepared phase against cycle-start `state`. `regs` is
/// caller-owned scratch reused across invocations (sized on demand).
/// The tree-walking fallback for wide RTL runs the optimized statements
/// carried by [`Compiled::Wide`] with `op`/`bindings` and can surface
/// its [`exec::ExecError`] diagnostics; the compiled path is infallible
/// by construction.
#[allow(clippy::too_many_arguments)]
pub(crate) fn exec_compiled(
    compiled: &Compiled,
    machine: &Machine,
    op: &isdl::model::Operation,
    bindings: &[Binding],
    params: &[u64],
    state: &State,
    out: &mut Vec<StagedWrite>,
    regs: &mut Vec<u64>,
) -> Result<(), exec::ExecError> {
    match compiled {
        Compiled::Wide(stmts) => {
            let frame = Frame { op, bindings };
            exec::exec_stmts(machine, stmts, frame, state, op.timing.latency, out)
        }
        Compiled::Code(p) => {
            run(p, params, state, out, regs);
            Ok(())
        }
    }
}

/// Flattened non-terminal option choices (the compile key).
fn option_path(bindings: &[Binding]) -> Vec<usize> {
    let mut out = Vec::new();
    fn go(b: &Binding, out: &mut Vec<usize>) {
        if let Binding::Nt { option, args, .. } = b {
            out.push(*option);
            for a in args {
                go(a, out);
            }
        }
    }
    for b in bindings {
        go(b, &mut out);
    }
    out
}

/// Token leaf values of a binding tree in traversal order, as u64 —
/// the runtime parameters of a prepared plan.
pub(crate) fn flatten_params(bindings: &[Binding]) -> Vec<u64> {
    let mut out = Vec::new();
    fn go(b: &Binding, out: &mut Vec<u64>) {
        match b {
            Binding::Token(v) => out.push(v.to_u64_lossy()),
            Binding::Nt { args, .. } => {
                for a in args {
                    go(a, out);
                }
            }
        }
    }
    for b in bindings {
        go(b, &mut out);
    }
    out
}

fn build_slots(bindings: &[Binding], next: &mut u16) -> Vec<PSlot> {
    bindings
        .iter()
        .map(|b| match b {
            Binding::Token(_) => {
                let s = PSlot::Token(*next);
                *next += 1;
                s
            }
            Binding::Nt { nt, option, args } => {
                PSlot::Nt { nt: *nt, option: *option, args: build_slots(args, next) }
            }
        })
        .collect()
}

// ---------- compilation ----------

struct Compiler<'m> {
    machine: &'m Machine,
    /// The compiled operation's `timing.latency`, stamped on each write.
    latency: u32,
    code: Vec<BOp>,
    next_reg: Reg,
    /// Registers holding optimizer `Let` temporaries.
    tmps: HashMap<usize, Reg>,
}

struct WideRtl;

fn compile(
    machine: &Machine,
    stmts: &Rc<Vec<RStmt>>,
    bindings: &[Binding],
    latency: u32,
) -> Compiled {
    let mut next = 0u16;
    let slots = build_slots(bindings, &mut next);
    let mut c = Compiler { machine, latency, code: Vec::new(), next_reg: 0, tmps: HashMap::new() };
    match c.compile_stmts(stmts, &slots) {
        Ok(()) => Compiled::Code(Program { code: c.code, n_regs: c.next_reg as usize }),
        Err(WideRtl) => Compiled::Wide(Rc::clone(stmts)),
    }
}

impl Compiler<'_> {
    fn fresh(&mut self) -> Reg {
        let r = self.next_reg;
        self.next_reg += 1;
        r
    }

    fn compile_stmts(&mut self, stmts: &[RStmt], slots: &[PSlot]) -> Result<(), WideRtl> {
        for s in stmts {
            self.compile_stmt(s, slots)?;
        }
        Ok(())
    }

    fn compile_stmt(&mut self, s: &RStmt, slots: &[PSlot]) -> Result<(), WideRtl> {
        match s {
            RStmt::Assign { lv, rhs } => {
                let src = self.compile_expr(rhs, slots)?;
                let (sid, idx, hi, lo) = self.compile_lvalue(lv, slots)?;
                let depth = self.machine.storage(sid).cells();
                let latency = self.latency;
                self.code.push(BOp::Write { sid, idx, depth, hi, lo, src, latency });
                Ok(())
            }
            RStmt::If { cond, then_body, else_body } => {
                let c = self.compile_expr(cond, slots)?;
                let jz_at = self.code.len();
                self.code.push(BOp::JmpIfZero { cond: c, target: usize::MAX });
                self.compile_stmts(then_body, slots)?;
                if else_body.is_empty() {
                    let end = self.code.len();
                    self.patch(jz_at, end);
                } else {
                    let jmp_at = self.code.len();
                    self.code.push(BOp::Jmp { target: usize::MAX });
                    let else_start = self.code.len();
                    self.patch(jz_at, else_start);
                    self.compile_stmts(else_body, slots)?;
                    let end = self.code.len();
                    self.patch(jmp_at, end);
                }
                Ok(())
            }
            RStmt::Let { tmp, rhs } => {
                let r = self.compile_expr(rhs, slots)?;
                self.tmps.insert(*tmp, r);
                Ok(())
            }
        }
    }

    fn patch(&mut self, at: usize, target: usize) {
        match &mut self.code[at] {
            BOp::JmpIfZero { target: t, .. } | BOp::Jmp { target: t } => *t = target,
            _ => unreachable!("patched instruction is a jump"),
        }
    }

    fn compile_lvalue(
        &mut self,
        lv: &RLvalue,
        slots: &[PSlot],
    ) -> Result<(StorageId, Option<Reg>, u32, u32), WideRtl> {
        match lv {
            RLvalue::Storage(id) => {
                let w = self.machine.storage(*id).width;
                if w > 64 {
                    return Err(WideRtl);
                }
                Ok((*id, None, w - 1, 0))
            }
            RLvalue::StorageIndexed(id, idx) => {
                let w = self.machine.storage(*id).width;
                if w > 64 {
                    return Err(WideRtl);
                }
                let r = self.compile_expr(idx, slots)?;
                Ok((*id, Some(r), w - 1, 0))
            }
            RLvalue::Slice { base, hi, lo } => {
                let (sid, idx, _bhi, blo) = self.compile_lvalue(base, slots)?;
                Ok((sid, idx, blo + hi, blo + lo))
            }
            RLvalue::Param(p) => {
                let PSlot::Nt { nt, option, args } = &slots[*p] else {
                    unreachable!("sema guarantees destination params are non-terminals")
                };
                // `machine` is a shared reference independent of the
                // `&mut self` borrow, so the option outlives the call.
                let machine = self.machine;
                let opt = &machine.nonterminals[*nt].options[*option];
                let inner =
                    opt.value_lvalue.as_ref().expect("sema checked the option is assignable");
                let args = args.clone();
                self.compile_lvalue(inner, &args)
            }
        }
    }

    fn compile_expr(&mut self, e: &RExpr, slots: &[PSlot]) -> Result<Reg, WideRtl> {
        if e.width > 64 {
            return Err(WideRtl);
        }
        match &e.kind {
            RExprKind::Lit(v) => {
                let dst = self.fresh();
                let val = v.to_u64().ok_or(WideRtl)?;
                self.code.push(BOp::Const { dst, val });
                Ok(dst)
            }
            RExprKind::Storage(id) => {
                if self.machine.storage(*id).width > 64 {
                    return Err(WideRtl);
                }
                let dst = self.fresh();
                self.code.push(BOp::ReadSt { dst, sid: *id });
                Ok(dst)
            }
            RExprKind::StorageIndexed(id, idx) => {
                if self.machine.storage(*id).width > 64 {
                    return Err(WideRtl);
                }
                let r = self.compile_expr(idx, slots)?;
                let dst = self.fresh();
                let depth = self.machine.storage(*id).cells();
                self.code.push(BOp::ReadIdx { dst, sid: *id, idx: r, depth });
                Ok(dst)
            }
            RExprKind::Param(p) => match &slots[*p] {
                PSlot::Token(slot) => {
                    let dst = self.fresh();
                    self.code.push(BOp::ReadParam { dst, slot: *slot });
                    Ok(dst)
                }
                PSlot::Nt { nt, option, args } => {
                    let machine = self.machine;
                    let opt = &machine.nonterminals[*nt].options[*option];
                    let value = opt.value.as_ref().expect("sema checked value exists");
                    let args = args.clone();
                    self.compile_expr(value, &args)
                }
            },
            RExprKind::Slice(inner, hi, lo) => {
                let src = self.compile_expr(inner, slots)?;
                let dst = self.fresh();
                self.code.push(BOp::Slice { dst, src, hi: *hi, lo: *lo });
                Ok(dst)
            }
            RExprKind::Unary(u, inner) => {
                let a = self.compile_expr(inner, slots)?;
                let dst = self.fresh();
                let w = match u {
                    UnOp::LNot => inner.width,
                    _ => e.width,
                };
                self.code.push(BOp::Un { op: *u, w, dst, a });
                Ok(dst)
            }
            RExprKind::Binary(b, x, y) => {
                let a = self.compile_expr(x, slots)?;
                let bb = self.compile_expr(y, slots)?;
                let dst = self.fresh();
                // Comparisons need the operand width, not the 1-bit
                // result width. Signed div/rem likewise: sign extension
                // must come from the operand's declared ISDL width — a
                // node whose annotated width differs from its operands'
                // would otherwise sign-extend from the wrong bit and
                // corrupt negative quotients.
                let w = match b {
                    BinOp::Eq
                    | BinOp::Ne
                    | BinOp::Ult
                    | BinOp::Ule
                    | BinOp::Slt
                    | BinOp::Sle
                    | BinOp::SDiv
                    | BinOp::SRem => x.width,
                    _ => e.width,
                };
                self.code.push(BOp::Bin { op: *b, w, dst, a, b: bb });
                Ok(dst)
            }
            RExprKind::Cond(c, t, f) => {
                // Lower to control flow so only one arm evaluates
                // (matching the tree-walking executor exactly).
                let cr = self.compile_expr(c, slots)?;
                let dst = self.fresh();
                let jz_at = self.code.len();
                self.code.push(BOp::JmpIfZero { cond: cr, target: usize::MAX });
                let tv = self.compile_expr(t, slots)?;
                self.code.push(BOp::Mask { dst, src: tv, w: e.width });
                let jmp_at = self.code.len();
                self.code.push(BOp::Jmp { target: usize::MAX });
                let else_start = self.code.len();
                self.patch(jz_at, else_start);
                let fv = self.compile_expr(f, slots)?;
                self.code.push(BOp::Mask { dst, src: fv, w: e.width });
                let end = self.code.len();
                self.patch(jmp_at, end);
                Ok(dst)
            }
            RExprKind::Ext(kind, inner) => {
                let src = self.compile_expr(inner, slots)?;
                let dst = self.fresh();
                match kind {
                    ExtKind::Sext => {
                        self.code.push(BOp::Sext { dst, src, from_w: inner.width, to_w: e.width })
                    }
                    ExtKind::Zext | ExtKind::Trunc => {
                        self.code.push(BOp::Mask { dst, src, w: e.width.min(inner.width) })
                    }
                }
                Ok(dst)
            }
            RExprKind::Concat(parts) => {
                let mut it = parts.iter();
                let first = it.next().expect("concat is non-empty");
                let mut acc = self.compile_expr(first, slots)?;
                for p in it {
                    let b = self.compile_expr(p, slots)?;
                    let dst = self.fresh();
                    self.code.push(BOp::Cat { dst, a: acc, b, b_width: p.width });
                    acc = dst;
                }
                Ok(acc)
            }
            RExprKind::Tmp(t) => {
                // The optimizer emits the `Let` before every use, so
                // the register is already populated.
                Ok(*self.tmps.get(t).expect("optimizer binds temporaries before use"))
            }
        }
    }
}

// ---------- execution ----------

#[inline]
pub(crate) fn mask(w: u32) -> u64 {
    if w >= 64 {
        u64::MAX
    } else {
        (1u64 << w) - 1
    }
}

#[inline]
pub(crate) fn sext64(v: u64, w: u32) -> i64 {
    if w >= 64 {
        v as i64
    } else {
        ((v << (64 - w)) as i64) >> (64 - w)
    }
}

/// Runs `p` against cycle-start `state` with runtime parameters
/// `params` (empty for a fused trace, whose parameters are constants),
/// staging its writes into `out`. The one μ-op loop of both dispatch
/// tiers.
// Inlined into each tier's call site: called out of line, `xsim_fir`
// ran about 2% slower (8 alternating 4 s runs, 2-vCPU host).
#[inline]
pub(crate) fn run(
    p: &Program,
    params: &[u64],
    state: &State,
    out: &mut Vec<StagedWrite>,
    regs: &mut Vec<u64>,
) {
    regs.clear();
    regs.resize(p.n_regs, 0);
    let mut pc = 0usize;
    while pc < p.code.len() {
        match &p.code[pc] {
            BOp::Const { dst, val } => regs[*dst as usize] = *val,
            BOp::ReadParam { dst, slot } => regs[*dst as usize] = params[*slot as usize],
            BOp::ReadSt { dst, sid } => {
                regs[*dst as usize] = state.read_u64(*sid, 0);
            }
            BOp::ReadIdx { dst, sid, idx, depth } => {
                let i = regs[*idx as usize] % *depth;
                regs[*dst as usize] = state.read_u64(*sid, i);
            }
            BOp::ReadFix { dst, sid, idx } => regs[*dst as usize] = state.read_u64(*sid, *idx),
            BOp::Bin { op, w, dst, a, b } => {
                regs[*dst as usize] = bin_u64(*op, *w, regs[*a as usize], regs[*b as usize]);
            }
            BOp::BinImm { op, w, dst, a, imm } => {
                regs[*dst as usize] = bin_u64(*op, *w, regs[*a as usize], *imm);
            }
            BOp::Un { op, w, dst, a } => {
                regs[*dst as usize] = un_u64(*op, *w, regs[*a as usize]);
            }
            BOp::Slice { dst, src, hi, lo } => {
                regs[*dst as usize] = (regs[*src as usize] >> lo) & mask(hi - lo + 1);
            }
            BOp::Sext { dst, src, from_w, to_w } => {
                regs[*dst as usize] = (sext64(regs[*src as usize], *from_w) as u64) & mask(*to_w);
            }
            BOp::Mask { dst, src, w } => {
                regs[*dst as usize] = regs[*src as usize] & mask(*w);
            }
            BOp::Cat { dst, a, b, b_width } => {
                regs[*dst as usize] = (regs[*a as usize] << b_width) | regs[*b as usize];
            }
            BOp::JmpIfZero { cond, target } => {
                if regs[*cond as usize] == 0 {
                    pc = *target;
                    continue;
                }
            }
            BOp::Jmp { target } => {
                pc = *target;
                continue;
            }
            BOp::Write { sid, idx, depth, hi, lo, src, latency } => {
                let i = match idx {
                    Some(r) => regs[*r as usize] % *depth,
                    None => 0,
                };
                push_write(out, *sid, i, *hi, *lo, regs[*src as usize], *latency);
            }
            BOp::WriteFix { sid, idx, hi, lo, src, latency } => {
                push_write(out, *sid, *idx, *hi, *lo, regs[*src as usize], *latency);
            }
        }
        pc += 1;
    }
}

#[inline]
fn push_write(
    out: &mut Vec<StagedWrite>,
    storage: StorageId,
    index: u64,
    hi: u32,
    lo: u32,
    raw: u64,
    latency: u32,
) {
    let w = hi - lo + 1;
    let value = BitVector::from_u64(raw & mask(w), w);
    out.push(StagedWrite { storage, index, hi, lo, value, latency });
}

#[inline]
pub(crate) fn un_u64(op: UnOp, w: u32, v: u64) -> u64 {
    match op {
        UnOp::Neg => v.wrapping_neg() & mask(w),
        UnOp::Not => !v & mask(w),
        UnOp::LNot => u64::from(v == 0),
    }
}

// The division arms implement the hardware div-by-zero convention
// (quotient all-ones, remainder = dividend), not an error path, so
// `checked_div` would obscure intent.
#[allow(clippy::manual_checked_ops)]
pub(crate) fn bin_u64(op: BinOp, w: u32, a: u64, b: u64) -> u64 {
    let m = mask(w);
    match op {
        BinOp::Add => a.wrapping_add(b) & m,
        BinOp::Sub => a.wrapping_sub(b) & m,
        BinOp::Mul => a.wrapping_mul(b) & m,
        BinOp::UDiv => {
            if b == 0 {
                m
            } else {
                (a / b) & m
            }
        }
        BinOp::URem => {
            if b == 0 {
                a
            } else {
                (a % b) & m
            }
        }
        BinOp::SDiv => {
            if b == 0 {
                m
            } else {
                let (x, y) = (sext64(a, w), sext64(b, w));
                (x.wrapping_div(y) as u64) & m
            }
        }
        BinOp::SRem => {
            if b == 0 {
                a
            } else {
                let (x, y) = (sext64(a, w), sext64(b, w));
                (x.wrapping_rem(y) as u64) & m
            }
        }
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => {
            if b >= u64::from(w) {
                0
            } else {
                (a << b) & m
            }
        }
        BinOp::Lshr => {
            if b >= u64::from(w) {
                0
            } else {
                a >> b
            }
        }
        BinOp::Ashr => {
            if b >= u64::from(w) {
                if sext64(a, w) < 0 {
                    m
                } else {
                    0
                }
            } else {
                (sext64(a, w) >> b) as u64 & m
            }
        }
        BinOp::Eq => u64::from(a == b),
        BinOp::Ne => u64::from(a != b),
        BinOp::Ult => u64::from(a < b),
        BinOp::Ule => u64::from(a <= b),
        BinOp::Slt => u64::from(sext64(a, w) < sext64(b, w)),
        BinOp::Sle => u64::from(sext64(a, w) <= sext64(b, w)),
        BinOp::LAnd => u64::from(a != 0 && b != 0),
        BinOp::LOr => u64::from(a != 0 || b != 0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_and_sext_helpers() {
        assert_eq!(mask(8), 0xFF);
        assert_eq!(mask(64), u64::MAX);
        assert_eq!(sext64(0x80, 8), -128);
        assert_eq!(sext64(0x7F, 8), 127);
    }

    #[test]
    fn bin_u64_matches_bitvector_semantics() {
        use isdl::rtl::BinOp::*;
        for w in [1u32, 5, 8, 16, 31, 32, 63, 64] {
            // Operands must fit the lane width, as they do in real
            // execution (every producer masks its result).
            // `(mask >> 1) + 1` is the signed minimum (MIN), so the
            // MIN / -1 overflow convention of SDiv/SRem is covered.
            let samples: Vec<u64> = vec![
                0,
                1 & mask(w),
                2 & mask(w),
                3 & mask(w),
                mask(w),
                mask(w) >> 1,
                (mask(w) >> 1) + 1,
                0xAB & mask(w),
            ];
            for &a in &samples {
                for &b in &samples {
                    for op in [
                        Add, Sub, Mul, UDiv, URem, SDiv, SRem, And, Or, Xor, Eq, Ne, Ult, Ule, Slt,
                        Sle, LAnd, LOr,
                    ] {
                        let x = BitVector::from_u64(a, w);
                        let y = BitVector::from_u64(b, w);
                        let expect = isdl::opt::eval_binop(op, &x, &y).to_u64_lossy();
                        let got = bin_u64(op, w, a, b);
                        assert_eq!(got, expect, "op {op:?} w {w} a {a:#x} b {b:#x}");
                    }
                    // Shifts use b as an amount.
                    for op in [Shl, Lshr, Ashr] {
                        let x = BitVector::from_u64(a, w);
                        let y = BitVector::from_u64(b, w);
                        let expect = isdl::opt::eval_binop(op, &x, &y).to_u64_lossy();
                        let got = bin_u64(op, w, a, b & mask(w));
                        assert_eq!(got, expect, "op {op:?} w {w} a {a:#x} b {b:#x}");
                    }
                }
            }
        }
    }

    #[test]
    fn un_u64_matches_bitvector_semantics() {
        use isdl::rtl::UnOp::*;
        for w in 1u32..=64 {
            let samples = [0, 1, 2 & mask(w), mask(w), mask(w) >> 1, (mask(w) >> 1) + 1];
            for v in samples {
                for op in [Neg, Not, LNot] {
                    let expect = isdl::opt::eval_unop(op, &BitVector::from_u64(v, w));
                    let got = un_u64(op, w, v);
                    assert_eq!(got, expect.to_u64_lossy(), "op {op:?} w {w} v {v:#x}");
                }
            }
        }
    }
}
