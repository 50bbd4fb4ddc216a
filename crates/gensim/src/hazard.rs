//! Static stall computation (§3.3.3).
//!
//! ISDL has no explicit pipeline model, so XSIM derives stall cycles
//! from the *static* instruction stream: a producer with latency *L*
//! whose result a nearby consumer reads too early charges the consumer
//! the missing cycles, clamped to the producer's declared `Stall` cost;
//! the `Usage` parameter similarly serialises back-to-back uses of one
//! field (functional unit).
//!
//! Gaps are measured in no-stall cycles along the layout order — the
//! same approximation the paper's static scheme implies (branches are
//! not followed).
//!
//! Since the profiler landed, the pass also *attributes* each stall:
//! the returned [`StallCause`] names the storage (or functional unit)
//! the consumer waited on and the address of the producing instruction,
//! which the `xsim-profile/1` report surfaces per stalled PC.

use crate::exec::Binding;
use crate::sched::{DecodedEntry, StallCause};
use isdl::model::{Machine, Operation, StorageKind};
use isdl::rtl::{RExpr, RExprKind, RLvalue, RStmt, StorageId};

/// A state cell touched by an operation: a specific cell when the index
/// is statically known, or the whole storage otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Cell {
    pub(crate) storage: StorageId,
    /// `None` = dynamic index: conflicts with every cell.
    pub(crate) index: Option<u64>,
}

impl Cell {
    fn conflicts(&self, other: &Cell) -> bool {
        self.storage == other.storage
            && match (self.index, other.index) {
                (Some(a), Some(b)) => a == b,
                _ => true,
            }
    }
}

#[derive(Debug, Clone)]
struct Producer {
    cell: Cell,
    /// Cycle position (no-stall) just after the producing instruction.
    pos: u64,
    latency: u32,
    clamp: u32,
    /// Address of the producing instruction (for attribution).
    addr: u64,
}

#[derive(Debug, Default)]
pub(crate) struct Access {
    pub(crate) reads: Vec<Cell>,
    pub(crate) writes: Vec<Cell>,
}

/// Computes the static stall for every decoded instruction. Returns
/// `(address, stall, cause)` triples for instructions that need one;
/// the cause names the storage or unit waited on and the producer PC
/// that charged the worst (binding) stall.
pub(crate) fn compute_static_stalls(
    machine: &Machine,
    decoded: &[Option<DecodedEntry>],
) -> Vec<(u64, u32, StallCause)> {
    let mut out = Vec::new();
    let mut producers: Vec<Producer> = Vec::new();
    // Per field: (position after last non-nop use, usage, clamp, addr).
    let mut field_use: Vec<Option<(u64, u32, u32, u64)>> = vec![None; machine.fields.len()];
    let mut pos: u64 = 0;

    let entries = decoded.iter().enumerate().filter_map(|(a, e)| e.as_ref().map(|e| (a as u64, e)));
    for (addr, entry) in entries {
        // Worst (binding) stall so far, with its cause. Ties keep the
        // first cause found so attribution is deterministic.
        let mut worst: Option<(u32, StallCause)> = None;
        // Gather this instruction's accesses across all fields.
        let mut access = Access::default();
        for (d, b) in entry.instr.ops.iter().zip(&entry.bindings) {
            collect_op_access(machine, machine.op(d.op), b, &mut access);
        }
        // Data hazards.
        for r in &access.reads {
            for p in &producers {
                if p.cell.conflicts(r) {
                    let ready = p.pos - 1 + u64::from(p.latency); // visible from this cycle
                    if ready > pos {
                        let need = u32::try_from(ready - pos).unwrap_or(u32::MAX);
                        let charged = need.min(p.clamp);
                        if worst.map_or(charged > 0, |(w, _)| charged > w) {
                            worst = Some((
                                charged,
                                StallCause::Data { storage: p.cell.storage, producer_pc: p.addr },
                            ));
                        }
                    }
                }
            }
        }
        // Structural (usage) hazards.
        for (fi, d) in entry.instr.ops.iter().enumerate() {
            let op = machine.op(d.op);
            if Some(d.op.op) == machine.fields[fi].nop {
                continue;
            }
            if let Some((last_pos, usage, clamp, last_addr)) = field_use[fi] {
                let free = last_pos - 1 + u64::from(usage);
                if free > pos {
                    let need = u32::try_from(free - pos).unwrap_or(u32::MAX);
                    let charged = need.min(clamp);
                    if worst.map_or(charged > 0, |(w, _)| charged > w) {
                        worst = Some((
                            charged,
                            StallCause::Usage { field: fi, producer_pc: last_addr },
                        ));
                    }
                }
            }
            field_use[fi] = Some((pos + 1, op.timing.usage, op.costs.stall, addr));
        }
        if let Some((stall, cause)) = worst {
            out.push((addr, stall, cause));
        }
        // Record this instruction's writes as producers.
        let write_pos = pos + 1;
        for (d, _) in entry.instr.ops.iter().zip(&entry.bindings) {
            let op = machine.op(d.op);
            if op.timing.latency > 1 {
                for w in &access.writes {
                    // Only writes performed by ops with latency > 1
                    // matter; attribute conservatively per op.
                    producers.push(Producer {
                        cell: *w,
                        pos: write_pos,
                        latency: op.timing.latency,
                        clamp: op.costs.stall,
                        addr,
                    });
                }
                break;
            }
        }
        pos += u64::from(entry.cycle_cost);
        // Old producers whose results are long visible can be dropped.
        producers.retain(|p| p.pos - 1 + u64::from(p.latency) > pos);
    }
    out
}

/// Collects the cells an operation reads and writes, inlining
/// non-terminal option values per the decoded bindings.
pub(crate) fn collect_op_access(
    machine: &Machine,
    op: &Operation,
    bindings: &[Binding],
    out: &mut Access,
) {
    for s in op.action.iter().chain(&op.side_effects) {
        collect_stmt(machine, s, op, bindings, out);
    }
}

#[allow(clippy::only_used_in_recursion)]
fn collect_stmt(
    machine: &Machine,
    s: &RStmt,
    op: &Operation,
    bindings: &[Binding],
    out: &mut Access,
) {
    match s {
        RStmt::Assign { lv, rhs } => {
            collect_expr_reads(machine, rhs, op, bindings, out);
            collect_lvalue(machine, lv, op, bindings, out);
        }
        RStmt::If { cond, then_body, else_body } => {
            collect_expr_reads(machine, cond, op, bindings, out);
            for s in then_body.iter().chain(else_body) {
                collect_stmt(machine, s, op, bindings, out);
            }
        }
        RStmt::Let { rhs, .. } => {
            collect_expr_reads(machine, rhs, op, bindings, out);
        }
    }
}

/// Collects every storage an operation's action or side effects may
/// write, *unfiltered* — unlike the hazard scan above this includes the
/// program counter and instruction memory, because the translation
/// layer needs to know whether an instruction can redirect control or
/// self-modify (both end a basic block). Conservative by construction:
/// writes under an `If` count whether or not the branch is taken.
pub(crate) fn collect_raw_writes(
    machine: &Machine,
    op: &Operation,
    bindings: &[Binding],
    out: &mut Vec<StorageId>,
) {
    fn lvalue(machine: &Machine, lv: &RLvalue, bindings: &[Binding], out: &mut Vec<StorageId>) {
        match lv {
            RLvalue::Storage(id) | RLvalue::StorageIndexed(id, _) => out.push(*id),
            RLvalue::Slice { base, .. } => lvalue(machine, base, bindings, out),
            RLvalue::Param(p) => {
                if let Binding::Nt { nt, option, args } = &bindings[*p] {
                    let opt = &machine.nonterminals[*nt].options[*option];
                    if let Some(inner) = &opt.value_lvalue {
                        lvalue(machine, inner, args, out);
                    }
                }
            }
        }
    }
    fn stmt(machine: &Machine, s: &RStmt, bindings: &[Binding], out: &mut Vec<StorageId>) {
        match s {
            RStmt::Assign { lv, .. } => lvalue(machine, lv, bindings, out),
            RStmt::If { then_body, else_body, .. } => {
                for s in then_body.iter().chain(else_body) {
                    stmt(machine, s, bindings, out);
                }
            }
            RStmt::Let { .. } => {}
        }
    }
    for s in op.action.iter().chain(&op.side_effects) {
        stmt(machine, s, bindings, out);
    }
}

fn hazard_relevant(machine: &Machine, id: StorageId) -> bool {
    !matches!(
        machine.storage(id).kind,
        StorageKind::ProgramCounter | StorageKind::InstructionMemory
    )
}

fn collect_lvalue(
    machine: &Machine,
    lv: &RLvalue,
    op: &Operation,
    bindings: &[Binding],
    out: &mut Access,
) {
    match lv {
        RLvalue::Storage(id) => {
            if hazard_relevant(machine, *id) {
                out.writes.push(Cell { storage: *id, index: Some(0) });
            }
        }
        RLvalue::StorageIndexed(id, idx) => {
            collect_expr_reads(machine, idx, op, bindings, out);
            if hazard_relevant(machine, *id) {
                let index = const_eval(idx, bindings).map(|v| v % machine.storage(*id).cells());
                out.writes.push(Cell { storage: *id, index });
            }
        }
        RLvalue::Slice { base, .. } => collect_lvalue(machine, base, op, bindings, out),
        RLvalue::Param(p) => {
            if let Binding::Nt { nt, option, args } = &bindings[*p] {
                let opt = &machine.nonterminals[*nt].options[*option];
                if let Some(inner) = &opt.value_lvalue {
                    collect_lvalue(machine, inner, opt, args, out);
                }
            }
        }
    }
}

#[allow(clippy::only_used_in_recursion)]
fn collect_expr_reads(
    machine: &Machine,
    e: &RExpr,
    op: &Operation,
    bindings: &[Binding],
    out: &mut Access,
) {
    match &e.kind {
        RExprKind::Storage(id) => {
            if hazard_relevant(machine, *id) {
                out.reads.push(Cell { storage: *id, index: Some(0) });
            }
        }
        RExprKind::StorageIndexed(id, idx) => {
            collect_expr_reads(machine, idx, op, bindings, out);
            if hazard_relevant(machine, *id) {
                let index = const_eval(idx, bindings).map(|v| v % machine.storage(*id).cells());
                out.reads.push(Cell { storage: *id, index });
            }
        }
        RExprKind::Param(p) => {
            if let Binding::Nt { nt, option, args } = &bindings[*p] {
                let opt = &machine.nonterminals[*nt].options[*option];
                if let Some(value) = &opt.value {
                    collect_expr_reads(machine, value, opt, args, out);
                }
            }
        }
        _ => {
            for c in e.children() {
                collect_expr_reads(machine, c, op, bindings, out);
            }
        }
    }
}

/// Evaluates an index expression if it depends only on literals and
/// token parameters (which are constants of the decoded instruction).
fn const_eval(e: &RExpr, bindings: &[Binding]) -> Option<u64> {
    use bitv::BitVector;
    fn go(e: &RExpr, bindings: &[Binding]) -> Option<BitVector> {
        match &e.kind {
            RExprKind::Lit(v) => Some(v.clone()),
            RExprKind::Param(p) => match &bindings[*p] {
                Binding::Token(v) => Some(v.clone()),
                Binding::Nt { .. } => None,
            },
            RExprKind::Slice(inner, hi, lo) => Some(go(inner, bindings)?.slice(*hi, *lo)),
            RExprKind::Ext(kind, inner) => {
                let v = go(inner, bindings)?;
                Some(match kind {
                    isdl::rtl::ExtKind::Zext => v.zext(e.width),
                    isdl::rtl::ExtKind::Sext => v.sext(e.width),
                    isdl::rtl::ExtKind::Trunc => v.trunc(e.width),
                })
            }
            RExprKind::Binary(op, a, b) => {
                let x = go(a, bindings)?;
                let y = go(b, bindings)?;
                Some(isdl::opt::eval_binop(*op, &x, &y))
            }
            _ => None,
        }
    }
    go(e, bindings).map(|v| v.to_u64_lossy())
}
