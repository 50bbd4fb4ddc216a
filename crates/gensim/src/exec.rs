//! The tree-walking RTL executor: direct interpretation of the resolved
//! RTL against simulator state.
//!
//! XSIM's processing core is the bytecode compiler (`crate::bytecode`,
//! the Rust analogue of GENSIM emitting C); it runs this executor only
//! for RTL too wide for its u64 lanes. The differential tests check
//! both lanes against the generated hardware.
//!
//! Execution of one operation produces a list of [`StagedWrite`]s; the
//! scheduler merges the per-phase lists, implements the
//! read-before-write discipline and the latency-delayed commit.
//!
//! Execution is *fallible*: a malformed frame (an operand whose shape
//! does not match its parameter, a missing binding, an option without
//! the clause a context requires) surfaces as an [`ExecError`]
//! diagnostic instead of aborting the process — the scheduler turns it
//! into a stop reason, and the exploration layer into a skipped
//! candidate.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use bitv::BitVector;
use isdl::model::{Machine, Operation};
use isdl::rtl::{RExpr, RExprKind, RLvalue, RStmt, StorageId};
use xasm::Operand;

/// A runtime fault while executing RTL: the frame handed to the
/// executor does not fit the operation. Sema-validated machines and
/// disassembler-produced bindings never trigger these; hand-built
/// frames (or a buggy generator) produce a diagnostic instead of an
/// abort.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// Parameter `param` of `op` has no binding in the frame.
    MissingBinding {
        /// Operation name.
        op: String,
        /// Parameter index.
        param: usize,
    },
    /// The binding for `param` of `op` has the wrong shape (a token
    /// where a non-terminal was required, or vice versa).
    OperandShape {
        /// Operation name.
        op: String,
        /// Parameter index.
        param: usize,
    },
    /// A non-terminal option used as an assignment destination has no
    /// assignable `value` l-value.
    NotAssignable {
        /// Option name.
        option: String,
    },
    /// A non-terminal option read as a value has no `value` clause.
    NoValue {
        /// Option name.
        option: String,
    },
    /// A concatenation with no parts.
    EmptyConcat,
    /// An optimizer temporary referenced before its `Let` bound it.
    /// Well-formed optimizer output never triggers this; it guards
    /// hand-built statement lists.
    UnboundTmp {
        /// Temporary index.
        tmp: usize,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::MissingBinding { op, param } => {
                write!(f, "operation `{op}` has no binding for parameter #{param}")
            }
            Self::OperandShape { op, param } => {
                write!(f, "operand #{param} of `{op}` does not match the parameter shape")
            }
            Self::NotAssignable { option } => {
                write!(f, "non-terminal option `{option}` is not assignable")
            }
            Self::NoValue { option } => {
                write!(f, "non-terminal option `{option}` has no value clause")
            }
            Self::EmptyConcat => write!(f, "empty concatenation"),
            Self::UnboundTmp { tmp } => {
                write!(f, "temporary t{tmp} referenced before it was bound")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// A runtime operand binding for one parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Binding {
    /// Token parameter: the decoded value.
    Token(BitVector),
    /// Non-terminal parameter: which option was decoded and its own
    /// bindings.
    Nt {
        /// Index of the option within the non-terminal.
        option: usize,
        /// The option's operation definition (borrowed from the machine).
        /// Stored by index to keep the binding `'static`-free: the
        /// non-terminal id.
        nt: usize,
        /// Bindings for the option's parameters.
        args: Vec<Binding>,
    },
}

/// Converts a decoded operand (from the disassembler) into a binding.
#[must_use]
pub fn binding_from_operand(op: &Operand) -> Binding {
    match op {
        Operand::Token(v) => Binding::Token(v.clone()),
        Operand::NonTerminal { nt, option, args } => Binding::Nt {
            option: *option,
            nt: nt.0,
            args: args.iter().map(binding_from_operand).collect(),
        },
    }
}

/// A write staged by RTL execution, not yet visible to reads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StagedWrite {
    /// Target storage.
    pub storage: StorageId,
    /// Cell index (0 for non-addressed storage).
    pub index: u64,
    /// High bit written (inclusive).
    pub hi: u32,
    /// Low bit written (inclusive).
    pub lo: u32,
    /// The bits.
    pub value: BitVector,
    /// Cycles until visible (from the operation's `latency`).
    pub latency: u32,
}

/// Read access to state during a phase.
pub trait StateView {
    /// Reads a whole cell.
    fn read_cell(&self, storage: StorageId, index: u64) -> BitVector;
}

impl StateView for crate::state::State {
    fn read_cell(&self, storage: StorageId, index: u64) -> BitVector {
        self.read(storage, index).clone()
    }
}

/// An execution frame: one operation plus its operand bindings.
#[derive(Debug, Clone, Copy)]
pub struct Frame<'a> {
    /// The operation being executed (an op of a field, or a
    /// non-terminal option during recursion).
    pub op: &'a Operation,
    /// One binding per parameter.
    pub bindings: &'a [Binding],
}

/// Executes a statement list, appending staged writes to `out`.
///
/// Reads go through `view`; writes do not become visible within the
/// same phase (read-before-write).
///
/// # Errors
/// Returns an [`ExecError`] when a binding does not fit the operation
/// (out of `out` may hold a prefix of the staged writes; callers
/// discard it on error).
pub fn exec_stmts<V: StateView>(
    machine: &Machine,
    stmts: &[RStmt],
    frame: Frame<'_>,
    view: &V,
    latency: u32,
    out: &mut Vec<StagedWrite>,
) -> Result<(), ExecError> {
    // Environment for optimizer-introduced `Let` temporaries; empty
    // (and never allocated) for unoptimized RTL.
    let mut temps: Vec<Option<BitVector>> = Vec::new();
    for s in stmts {
        exec_stmt(machine, s, frame, view, latency, out, &mut temps)?;
    }
    Ok(())
}

fn exec_stmt<V: StateView>(
    machine: &Machine,
    s: &RStmt,
    frame: Frame<'_>,
    view: &V,
    latency: u32,
    out: &mut Vec<StagedWrite>,
    temps: &mut Vec<Option<BitVector>>,
) -> Result<(), ExecError> {
    match s {
        RStmt::Assign { lv, rhs } => {
            let value = eval_with(machine, rhs, frame, view, temps)?;
            let (storage, index, hi, lo) = resolve_lvalue(machine, lv, frame, view, temps)?;
            debug_assert_eq!(value.width(), hi - lo + 1, "sema guarantees assignment widths");
            out.push(StagedWrite { storage, index, hi, lo, value, latency });
        }
        RStmt::If { cond, then_body, else_body } => {
            let c = eval_with(machine, cond, frame, view, temps)?;
            let body = if c.is_zero() { else_body } else { then_body };
            for s in body {
                exec_stmt(machine, s, frame, view, latency, out, temps)?;
            }
        }
        RStmt::Let { tmp, rhs } => {
            let v = eval_with(machine, rhs, frame, view, temps)?;
            if temps.len() <= *tmp {
                temps.resize(*tmp + 1, None);
            }
            temps[*tmp] = Some(v);
        }
    }
    Ok(())
}

fn frame_binding<'a>(frame: Frame<'a>, p: usize) -> Result<&'a Binding, ExecError> {
    frame
        .bindings
        .get(p)
        .ok_or_else(|| ExecError::MissingBinding { op: frame.op.name.clone(), param: p })
}

/// Resolves an l-value to `(storage, cell index, hi, lo)`.
fn resolve_lvalue<V: StateView>(
    machine: &Machine,
    lv: &RLvalue,
    frame: Frame<'_>,
    view: &V,
    temps: &[Option<BitVector>],
) -> Result<(StorageId, u64, u32, u32), ExecError> {
    match lv {
        RLvalue::Storage(id) => {
            let w = machine.storage(*id).width;
            Ok((*id, 0, w - 1, 0))
        }
        RLvalue::StorageIndexed(id, idx) => {
            let i = eval_with(machine, idx, frame, view, temps)?.to_u64_lossy();
            let w = machine.storage(*id).width;
            Ok((*id, i, w - 1, 0))
        }
        RLvalue::Slice { base, hi, lo } => {
            let (id, idx, _bhi, blo) = resolve_lvalue(machine, base, frame, view, temps)?;
            Ok((id, idx, blo + hi, blo + lo))
        }
        RLvalue::Param(p) => {
            let Binding::Nt { option, nt, args } = frame_binding(frame, *p)? else {
                return Err(ExecError::OperandShape { op: frame.op.name.clone(), param: *p });
            };
            let opt = &machine.nonterminals[*nt].options[*option];
            let inner = opt
                .value_lvalue
                .as_ref()
                .ok_or_else(|| ExecError::NotAssignable { option: opt.name.clone() })?;
            let sub = Frame { op: opt, bindings: args };
            resolve_lvalue(machine, inner, sub, view, temps)
        }
    }
}

/// Evaluates an expression to a bit-true value, with an environment for
/// optimizer temporaries. A missing or misshapen parameter binding, an
/// option without a required `value` clause, or a `Tmp` reference
/// outside any bound `Let` is an [`ExecError`].
fn eval_with<V: StateView>(
    machine: &Machine,
    e: &RExpr,
    frame: Frame<'_>,
    view: &V,
    temps: &[Option<BitVector>],
) -> Result<BitVector, ExecError> {
    Ok(match &e.kind {
        RExprKind::Lit(v) => v.clone(),
        RExprKind::Storage(id) => view.read_cell(*id, 0),
        RExprKind::StorageIndexed(id, idx) => {
            let i = eval_with(machine, idx, frame, view, temps)?.to_u64_lossy();
            view.read_cell(*id, i)
        }
        RExprKind::Param(p) => match frame_binding(frame, *p)? {
            Binding::Token(v) => v.clone(),
            Binding::Nt { option, nt, args } => {
                let opt = &machine.nonterminals[*nt].options[*option];
                let value = opt
                    .value
                    .as_ref()
                    .ok_or_else(|| ExecError::NoValue { option: opt.name.clone() })?;
                let sub = Frame { op: opt, bindings: args };
                // Option value expressions are never optimized, so
                // temporaries cannot leak across the frame switch.
                eval_with(machine, value, sub, view, temps)?
            }
        },
        RExprKind::Slice(inner, hi, lo) => {
            eval_with(machine, inner, frame, view, temps)?.slice(*hi, *lo)
        }
        RExprKind::Unary(op, inner) => {
            isdl::opt::eval_unop(*op, &eval_with(machine, inner, frame, view, temps)?)
        }
        RExprKind::Binary(op, a, b) => {
            let x = eval_with(machine, a, frame, view, temps)?;
            let y = eval_with(machine, b, frame, view, temps)?;
            isdl::opt::eval_binop(*op, &x, &y)
        }
        RExprKind::Cond(c, t, f) => {
            if eval_with(machine, c, frame, view, temps)?.is_zero() {
                eval_with(machine, f, frame, view, temps)?
            } else {
                eval_with(machine, t, frame, view, temps)?
            }
        }
        RExprKind::Ext(kind, inner) => {
            isdl::opt::eval_ext(*kind, &eval_with(machine, inner, frame, view, temps)?, e.width)
        }
        RExprKind::Concat(parts) => {
            let mut it = parts.iter();
            let first = it.next().ok_or(ExecError::EmptyConcat)?;
            let mut acc = eval_with(machine, first, frame, view, temps)?;
            for p in it {
                acc = acc.concat(&eval_with(machine, p, frame, view, temps)?);
            }
            acc
        }
        RExprKind::Tmp(t) => match temps.get(*t).and_then(Option::as_ref) {
            Some(v) => v.clone(),
            None => return Err(ExecError::UnboundTmp { tmp: *t }),
        },
    })
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::state::State;
    use isdl::samples::TOY;
    use xasm::Disassembler;

    struct Setup {
        machine: Machine,
        state: State,
    }

    fn setup() -> Setup {
        let machine = isdl::load(TOY).expect("loads");
        let state = State::new(&machine);
        Setup { machine, state }
    }

    /// Decodes a word and executes field `fi`'s action.
    fn run_action(s: &mut Setup, word: u64, fi: usize) -> Vec<StagedWrite> {
        let d = Disassembler::new(&s.machine);
        let instr = d.decode(&[BitVector::from_u64(word, 32)], 0).expect("decodes");
        let dop = &instr.ops[fi];
        let op = s.machine.op(dop.op);
        let bindings: Vec<Binding> = dop.args.iter().map(binding_from_operand).collect();
        let frame = Frame { op, bindings: &bindings };
        let mut out = Vec::new();
        exec_stmts(&s.machine, &op.action, frame, &s.state, op.timing.latency, &mut out)
            .expect("executes");
        out
    }

    #[test]
    fn add_reads_and_stages() {
        let mut s = setup();
        let rf = s.machine.storage_by_name("RF").expect("RF").0;
        s.state.poke(rf, 1, BitVector::from_u64(10, 16));
        s.state.poke(rf, 3, BitVector::from_u64(32, 16));
        // add R2, R1, reg(R3)
        let word = (0b00001u64 << 27) | (2 << 24) | (1 << 21) | (0b0011 << 17);
        let writes = run_action(&mut s, word, 0);
        assert_eq!(writes.len(), 1);
        assert_eq!(writes[0].storage, rf);
        assert_eq!(writes[0].index, 2);
        assert_eq!(writes[0].value.to_u64_lossy(), 42);
        assert_eq!(writes[0].latency, 1);
        // Nothing visible yet.
        assert!(s.state.read(rf, 2).is_zero());
    }

    #[test]
    fn indirect_source_reads_memory() {
        let mut s = setup();
        let rf = s.machine.storage_by_name("RF").expect("RF").0;
        let dm = s.machine.storage_by_name("DM").expect("DM").0;
        s.state.poke(rf, 2, BitVector::from_u64(0x30, 16));
        s.state.poke(dm, 0x30, BitVector::from_u64(99, 16));
        // add R0, R0, ind(R2): RF[0] = RF[0] + DM[RF[2] mod 256]
        let word = (0b00001u64 << 27) | (0b1010 << 17);
        let writes = run_action(&mut s, word, 0);
        assert_eq!(writes[0].value.to_u64_lossy(), 99);
    }

    #[test]
    fn conditional_branch_taken_and_not() {
        let mut s = setup();
        let pc = s.machine.pc.expect("pc");
        let acc = s.machine.storage_by_name("ACC").expect("ACC").0;
        // jz 7 with ACC == 0: takes branch.
        let word = (0b01001u64 << 27) | (7 << 16);
        let writes = run_action(&mut s, word, 0);
        assert_eq!(writes.len(), 1);
        assert_eq!(writes[0].storage, pc);
        assert_eq!(writes[0].value.to_u64_lossy(), 7);
        // With ACC != 0: no write.
        s.state.poke(acc, 0, BitVector::from_u64(1, 16));
        let writes = run_action(&mut s, word, 0);
        assert!(writes.is_empty());
    }

    #[test]
    fn mac_has_latency_two() {
        let mut s = setup();
        let rf = s.machine.storage_by_name("RF").expect("RF").0;
        s.state.poke(rf, 6, BitVector::from_u64(6, 16));
        s.state.poke(rf, 7, BitVector::from_u64(7, 16));
        let word = (0b01010u64 << 27) | (6 << 24) | (7 << 21);
        let writes = run_action(&mut s, word, 0);
        assert_eq!(writes[0].value.to_u64_lossy(), 42);
        assert_eq!(writes[0].latency, 2);
    }

    #[test]
    fn side_effects_recompute_from_cycle_start_state() {
        let mut s = setup();
        let rf = s.machine.storage_by_name("RF").expect("RF").0;
        s.state.poke(rf, 1, BitVector::from_u64(5, 16));
        // sub R2, R1, reg(R1): result 0, so the side effect sets Z by
        // recomputing the subtraction against cycle-start state.
        let word = (0b00010u64 << 27) | (2 << 24) | (1 << 21) | (0b0001 << 17);
        let d = Disassembler::new(&s.machine);
        let instr = d.decode(&[BitVector::from_u64(word, 32)], 0).expect("decodes");
        let dop = &instr.ops[0];
        let op = s.machine.op(dop.op);
        let bindings: Vec<Binding> = dop.args.iter().map(binding_from_operand).collect();
        let frame = Frame { op, bindings: &bindings };
        let mut se_writes = Vec::new();
        exec_stmts(&s.machine, &op.side_effects, frame, &s.state, 1, &mut se_writes)
            .expect("executes");
        let z = s.machine.storage_by_name("Z").expect("Z").0;
        assert_eq!(se_writes.len(), 1);
        assert_eq!(se_writes[0].storage, z);
        assert_eq!(se_writes[0].value.to_u64_lossy(), 1);
    }

    #[test]
    fn malformed_frame_is_a_diagnostic_not_a_panic() {
        let s = setup();
        let d = Disassembler::new(&s.machine);
        let word = (0b00001u64 << 27) | (2 << 24) | (1 << 21) | (0b0011 << 17);
        let instr = d.decode(&[BitVector::from_u64(word, 32)], 0).expect("decodes");
        let op = s.machine.op(instr.ops[0].op);
        // An empty frame: the first parameter reference must surface as
        // a diagnostic, not an index panic.
        let frame = Frame { op, bindings: &[] };
        let mut out = Vec::new();
        let err = exec_stmts(&s.machine, &op.action, frame, &s.state, 1, &mut out)
            .expect_err("missing bindings");
        assert!(matches!(err, ExecError::MissingBinding { .. }), "got {err}");
        assert!(err.to_string().contains("no binding"));
    }

    #[test]
    fn binop_semantics() {
        use isdl::opt::eval_binop;
        use isdl::rtl::BinOp;
        let a = BitVector::from_u64(0xF0, 8);
        let b = BitVector::from_u64(0x11, 8);
        assert_eq!(eval_binop(BinOp::Add, &a, &b).to_u64_lossy(), 0x01);
        assert_eq!(eval_binop(BinOp::Ult, &b, &a).to_u64_lossy(), 1);
        assert_eq!(eval_binop(BinOp::Slt, &a, &b).to_u64_lossy(), 1); // 0xF0 is negative
        assert_eq!(eval_binop(BinOp::Shl, &b, &BitVector::from_u64(200, 8)).to_u64_lossy(), 0);
        assert_eq!(eval_binop(BinOp::LAnd, &a, &BitVector::zero(8)).to_u64_lossy(), 0);
        assert_eq!(eval_binop(BinOp::LOr, &a, &BitVector::zero(8)).to_u64_lossy(), 1);
    }
}
