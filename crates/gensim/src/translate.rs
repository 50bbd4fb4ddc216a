//! The translated basic-block tier (the step past §3.3.3's compiled
//! processing core, in the direction of PAPERS.md's specialized /
//! translated simulation).
//!
//! The bytecode interpreter re-dispatches per instruction: fetch the
//! decoded entry, walk its plans, read parameter slots, re-resolve
//! per-write latencies. All of that is loop-invariant for a given
//! instruction memory image, so the translator hoists it: each basic
//! block (straight-line run of instructions ending at a control-flow,
//! halting, or self-modifying operation) is turned once into a trace of
//! [`BlockInstr`]s keyed by its start PC. Per instruction, the plans of
//! every field slot are *fused* into a single flat μ-op program with
//! parameters baked in as constants and per-write latencies baked into
//! the write μ-ops — then constant-folded and dead-code-eliminated,
//! which is sound because a jump-free fused trace is single-assignment.
//!
//! Correctness contract: a fused trace stages exactly the writes (same
//! order, same values, same latencies) the interpreter would, and reads
//! the same cycle-start state — so the translated core is bit-identical
//! to the interpreter by construction, which `tests/
//! translate_differential.rs` pins across the sample corpus.
//!
//! Cache coherence: the scheduler invalidates blocks *precisely* on
//! stores into instruction memory — a committed write to imem cell `i`
//! kills every block whose decode window `[start, end + max_size - 1)`
//! covers `i` (an instruction may span up to `max_size` words).

use crate::bytecode::{bin_u64, mask, sext64, BOp, Compiled, Reg};
use crate::exec::StagedWrite;
use crate::sched::DecodedEntry;
use crate::state::State;
use bitv::BitVector;
use isdl::rtl::{BinOp, StorageId, UnOp};
use std::collections::HashMap;
use std::rc::Rc;

/// One μ-op of a fused trace: the bytecode ops minus `ReadParam`
/// (parameters are decode-time constants, baked in at translation),
/// plus immediate/constant-index forms the folder produces and writes
/// carrying their own latency.
#[derive(Debug, Clone)]
pub(crate) enum TOp {
    Const {
        dst: Reg,
        val: u64,
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
    Mask {
        dst: Reg,
        src: Reg,
        w: u32,
    },
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

/// The fused μ-op trace of one instruction: every field slot's action
/// program, then every slot's side-effect program, concatenated in the
/// interpreter's write order.
#[derive(Debug)]
pub(crate) struct Fused {
    pub(crate) code: Vec<TOp>,
    pub(crate) n_regs: usize,
}

/// One instruction of a translated block. `fused` is `None` when the
/// instruction could not be fused (wide RTL plans) — the scheduler then
/// falls back to the interpreter for that instruction only.
#[derive(Debug)]
pub(crate) struct BlockInstr {
    pub(crate) pc: u64,
    pub(crate) entry: Rc<DecodedEntry>,
    pub(crate) fused: Option<Fused>,
}

/// A translated basic block: the straight-line instructions from
/// `start` (inclusive) to `end` (exclusive, in imem words).
#[derive(Debug)]
pub(crate) struct Block {
    pub(crate) start: u64,
    pub(crate) end: u64,
    pub(crate) instrs: Vec<BlockInstr>,
}

/// The block cache plus the translation counters surfaced by
/// [`crate::TranslateStats`].
#[derive(Debug, Default)]
pub(crate) struct BlockCache {
    map: HashMap<u64, Rc<Block>>,
    /// Bumped whenever any block is dropped or the cache is cleared:
    /// the dispatch loop snapshots it at block fetch and only re-checks
    /// block liveness via `contains` when the snapshot goes stale.
    pub(crate) generation: u64,
    pub(crate) blocks_translated: u64,
    pub(crate) invalidations: u64,
    pub(crate) fused_ops_removed: u64,
}

impl BlockCache {
    pub(crate) fn get(&self, start: u64) -> Option<Rc<Block>> {
        self.map.get(&start).map(Rc::clone)
    }

    pub(crate) fn contains(&self, start: u64) -> bool {
        self.map.contains_key(&start)
    }

    pub(crate) fn insert(&mut self, block: Rc<Block>) {
        self.blocks_translated += 1;
        obs::log::event_with(obs::Level::Debug, "gensim.translate", "block", || {
            obs::Json::obj()
                .with("start", block.start)
                .with("end", block.end)
                .with("instrs", block.instrs.len())
        });
        self.map.insert(block.start, block);
    }

    /// Drops every block whose decode window covers a committed write
    /// to imem cell `index`. Instructions read up to `max_size` words
    /// from their start address, so a block decoding `[start, end)` is
    /// affected by any write in `[start, end + max_size - 1)`.
    pub(crate) fn invalidate_write(&mut self, index: u64, max_size: u64) {
        let before = self.map.len();
        self.map.retain(|_, b| !(b.start <= index && index < b.end + (max_size - 1)));
        let dropped = (before - self.map.len()) as u64;
        self.invalidations += dropped;
        if dropped > 0 {
            self.generation += 1;
            obs::log::event_with(obs::Level::Debug, "gensim.translate", "invalidate", || {
                obs::Json::obj().with("imem_index", index).with("blocks_dropped", dropped)
            });
        }
    }

    /// Drops all blocks (program reload); counters keep accumulating.
    pub(crate) fn clear(&mut self) {
        self.map.clear();
        self.generation += 1;
    }
}

/// Public translation statistics (see `xsim-stats/1`'s `translate`
/// block in docs/OBSERVABILITY.md).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TranslateStats {
    /// Whether the translated tier is engaged for the current options
    /// (translation on, no breakpoints, addressable PC).
    pub enabled: bool,
    /// Basic blocks translated (including re-translations after
    /// invalidation).
    pub blocks: u64,
    /// Blocks dropped by precise invalidation on imem stores.
    pub invalidations: u64,
    /// Instructions retired through fused block dispatch.
    pub block_instructions: u64,
    /// Instructions retired through the interpreter (wide-RTL
    /// fallbacks inside blocks, or runs with translation inactive).
    pub interp_instructions: u64,
    /// μ-ops eliminated from fused traces by constant folding and dead
    /// code elimination.
    pub fused_ops_removed: u64,
}

/// Fuses one decoded instruction's plans into a single μ-op trace:
/// action programs of every slot, then side-effect programs, registers
/// and jump targets rebased, `ReadParam` lowered to constants, and
/// per-plan write latency baked into each write. Returns `None` (the
/// interpreter fallback) if any plan is wide RTL or the combined
/// register file would overflow the `u16` register space.
pub(crate) fn fuse_entry(entry: &DecodedEntry, removed: &mut u64) -> Option<Fused> {
    let mut code: Vec<TOp> = Vec::new();
    let mut n_regs: u32 = 0;
    for (i, compiled) in entry.phases() {
        let Compiled::Code(p) = compiled else { return None };
        if n_regs + p.n_regs as u32 > u32::from(Reg::MAX) + 1 {
            return None;
        }
        let plan = &entry.plans[i];
        let code_base = code.len();
        for op in &p.code {
            code.push(lower(op, &plan.params, plan.latency, n_regs, code_base));
        }
        n_regs += p.n_regs as u32;
    }
    optimize(&mut code, n_regs as usize, removed);
    Some(Fused { code, n_regs: n_regs as usize })
}

#[inline]
fn off(r: Reg, base: u32) -> Reg {
    (u32::from(r) + base) as Reg
}

/// Rebases one bytecode op into the fused trace: registers shifted by
/// `base`, jump targets by `code_base`, parameters materialized from
/// `params`, writes stamped with `latency`.
fn lower(op: &BOp, params: &[u64], latency: u32, base: u32, code_base: usize) -> TOp {
    match op {
        BOp::Const { dst, val } => TOp::Const { dst: off(*dst, base), val: *val },
        BOp::ReadParam { dst, slot } => {
            TOp::Const { dst: off(*dst, base), val: params[*slot as usize] }
        }
        BOp::ReadSt { dst, sid } => TOp::ReadSt { dst: off(*dst, base), sid: *sid },
        BOp::ReadIdx { dst, sid, idx, depth } => {
            TOp::ReadIdx { dst: off(*dst, base), sid: *sid, idx: off(*idx, base), depth: *depth }
        }
        BOp::Bin { op, w, dst, a, b } => {
            TOp::Bin { op: *op, w: *w, dst: off(*dst, base), a: off(*a, base), b: off(*b, base) }
        }
        BOp::Un { op, w, dst, a } => {
            TOp::Un { op: *op, w: *w, dst: off(*dst, base), a: off(*a, base) }
        }
        BOp::Slice { dst, src, hi, lo } => {
            TOp::Slice { dst: off(*dst, base), src: off(*src, base), hi: *hi, lo: *lo }
        }
        BOp::Sext { dst, src, from_w, to_w } => {
            TOp::Sext { dst: off(*dst, base), src: off(*src, base), from_w: *from_w, to_w: *to_w }
        }
        BOp::Mask { dst, src, w } => {
            TOp::Mask { dst: off(*dst, base), src: off(*src, base), w: *w }
        }
        BOp::Cat { dst, a, b, b_width } => {
            TOp::Cat { dst: off(*dst, base), a: off(*a, base), b: off(*b, base), b_width: *b_width }
        }
        BOp::JmpIfZero { cond, target } => {
            TOp::JmpIfZero { cond: off(*cond, base), target: target + code_base }
        }
        BOp::Jmp { target } => TOp::Jmp { target: target + code_base },
        BOp::Write { sid, idx, depth, hi, lo, src } => TOp::Write {
            sid: *sid,
            idx: idx.map(|r| off(r, base)),
            depth: *depth,
            hi: *hi,
            lo: *lo,
            src: off(*src, base),
            latency,
        },
    }
}

#[inline]
fn un_u64(op: UnOp, w: u32, v: u64) -> u64 {
    match op {
        UnOp::Neg => v.wrapping_neg() & mask(w),
        UnOp::Not => !v & mask(w),
        UnOp::LNot => u64::from(v == 0),
    }
}

/// Constant folding + dead code elimination over a jump-free fused
/// trace. With control flow present the pass is skipped: only the
/// straight-line case is single-assignment, which both passes rely on.
/// Every fold mirrors [`run_fused`]'s arithmetic exactly (shared
/// helpers), so optimized and unoptimized traces stage identical
/// writes.
fn optimize(code: &mut Vec<TOp>, n_regs: usize, removed: &mut u64) {
    if code.iter().any(|op| matches!(op, TOp::Jmp { .. } | TOp::JmpIfZero { .. })) {
        return;
    }
    let before = code.len();

    // Forward constant propagation.
    let mut konst: Vec<Option<u64>> = vec![None; n_regs];
    for slot in code.iter_mut() {
        let rewritten: Option<TOp> = match &*slot {
            TOp::Const { dst, val } => {
                konst[*dst as usize] = Some(*val);
                None
            }
            TOp::ReadSt { dst, .. } | TOp::ReadFix { dst, .. } => {
                konst[*dst as usize] = None;
                None
            }
            TOp::ReadIdx { dst, sid, idx, depth } => {
                konst[*dst as usize] = None;
                konst[*idx as usize].map(|v| TOp::ReadFix { dst: *dst, sid: *sid, idx: v % *depth })
            }
            TOp::Bin { op, w, dst, a, b } => match (konst[*a as usize], konst[*b as usize]) {
                (Some(x), Some(y)) => {
                    let v = bin_u64(*op, *w, x, y);
                    konst[*dst as usize] = Some(v);
                    Some(TOp::Const { dst: *dst, val: v })
                }
                (None, Some(y)) => {
                    konst[*dst as usize] = None;
                    Some(TOp::BinImm { op: *op, w: *w, dst: *dst, a: *a, imm: y })
                }
                _ => {
                    konst[*dst as usize] = None;
                    None
                }
            },
            TOp::BinImm { dst, .. } => {
                konst[*dst as usize] = None;
                None
            }
            TOp::Un { op, w, dst, a } => match konst[*a as usize] {
                Some(v) => {
                    let r = un_u64(*op, *w, v);
                    konst[*dst as usize] = Some(r);
                    Some(TOp::Const { dst: *dst, val: r })
                }
                None => {
                    konst[*dst as usize] = None;
                    None
                }
            },
            TOp::Slice { dst, src, hi, lo } => match konst[*src as usize] {
                Some(v) => {
                    let r = (v >> lo) & mask(hi - lo + 1);
                    konst[*dst as usize] = Some(r);
                    Some(TOp::Const { dst: *dst, val: r })
                }
                None => {
                    konst[*dst as usize] = None;
                    None
                }
            },
            TOp::Sext { dst, src, from_w, to_w } => match konst[*src as usize] {
                Some(v) => {
                    let r = (sext64(v, *from_w) as u64) & mask(*to_w);
                    konst[*dst as usize] = Some(r);
                    Some(TOp::Const { dst: *dst, val: r })
                }
                None => {
                    konst[*dst as usize] = None;
                    None
                }
            },
            TOp::Mask { dst, src, w } => match konst[*src as usize] {
                Some(v) => {
                    let r = v & mask(*w);
                    konst[*dst as usize] = Some(r);
                    Some(TOp::Const { dst: *dst, val: r })
                }
                None => {
                    konst[*dst as usize] = None;
                    None
                }
            },
            TOp::Cat { dst, a, b, b_width } => match (konst[*a as usize], konst[*b as usize]) {
                (Some(x), Some(y)) => {
                    let r = (x << b_width) | y;
                    konst[*dst as usize] = Some(r);
                    Some(TOp::Const { dst: *dst, val: r })
                }
                _ => {
                    konst[*dst as usize] = None;
                    None
                }
            },
            TOp::Write { sid, idx: Some(r), depth, hi, lo, src, latency } => konst[*r as usize]
                .map(|v| TOp::WriteFix {
                    sid: *sid,
                    idx: v % *depth,
                    hi: *hi,
                    lo: *lo,
                    src: *src,
                    latency: *latency,
                }),
            TOp::Write { .. } | TOp::WriteFix { .. } => None,
            TOp::Jmp { .. } | TOp::JmpIfZero { .. } => unreachable!("jump-free trace"),
        };
        if let Some(op) = rewritten {
            *slot = op;
        }
    }

    // Backward dead code elimination: writes are the only side effects.
    let mut live = vec![false; n_regs];
    let mut keep = vec![true; code.len()];
    for (i, op) in code.iter().enumerate().rev() {
        match op {
            TOp::Write { idx, src, .. } => {
                if let Some(r) = idx {
                    live[*r as usize] = true;
                }
                live[*src as usize] = true;
            }
            TOp::WriteFix { src, .. } => live[*src as usize] = true,
            TOp::Const { dst, .. } | TOp::ReadSt { dst, .. } | TOp::ReadFix { dst, .. } => {
                keep[i] = live[*dst as usize];
            }
            TOp::ReadIdx { dst, idx, .. } => {
                keep[i] = live[*dst as usize];
                if keep[i] {
                    live[*idx as usize] = true;
                }
            }
            TOp::Bin { dst, a, b, .. } | TOp::Cat { dst, a, b, .. } => {
                keep[i] = live[*dst as usize];
                if keep[i] {
                    live[*a as usize] = true;
                    live[*b as usize] = true;
                }
            }
            TOp::BinImm { dst, a, .. } | TOp::Un { dst, a, .. } => {
                keep[i] = live[*dst as usize];
                if keep[i] {
                    live[*a as usize] = true;
                }
            }
            TOp::Slice { dst, src, .. }
            | TOp::Sext { dst, src, .. }
            | TOp::Mask { dst, src, .. } => {
                keep[i] = live[*dst as usize];
                if keep[i] {
                    live[*src as usize] = true;
                }
            }
            TOp::Jmp { .. } | TOp::JmpIfZero { .. } => unreachable!("jump-free trace"),
        }
    }
    let mut it = keep.iter();
    code.retain(|_| *it.next().expect("keep mask parallels code"));
    *removed += (before - code.len()) as u64;
}

/// Executes one fused trace against cycle-start state, staging writes
/// into `out`. Mirrors the bytecode runner exactly (same helpers, same
/// wrap/mask discipline); the per-write latency comes from the μ-op.
pub(crate) fn run_fused(f: &Fused, state: &State, out: &mut Vec<StagedWrite>, regs: &mut Vec<u64>) {
    regs.clear();
    regs.resize(f.n_regs, 0);
    let code = &f.code;
    let mut pc = 0usize;
    while pc < code.len() {
        match &code[pc] {
            TOp::Const { dst, val } => regs[*dst as usize] = *val,
            TOp::ReadSt { dst, sid } => regs[*dst as usize] = state.read_u64(*sid, 0),
            TOp::ReadIdx { dst, sid, idx, depth } => {
                let i = regs[*idx as usize] % *depth;
                regs[*dst as usize] = state.read_u64(*sid, i);
            }
            TOp::ReadFix { dst, sid, idx } => regs[*dst as usize] = state.read_u64(*sid, *idx),
            TOp::Bin { op, w, dst, a, b } => {
                regs[*dst as usize] = bin_u64(*op, *w, regs[*a as usize], regs[*b as usize]);
            }
            TOp::BinImm { op, w, dst, a, imm } => {
                regs[*dst as usize] = bin_u64(*op, *w, regs[*a as usize], *imm);
            }
            TOp::Un { op, w, dst, a } => {
                regs[*dst as usize] = un_u64(*op, *w, regs[*a as usize]);
            }
            TOp::Slice { dst, src, hi, lo } => {
                regs[*dst as usize] = (regs[*src as usize] >> lo) & mask(hi - lo + 1);
            }
            TOp::Sext { dst, src, from_w, to_w } => {
                regs[*dst as usize] = (sext64(regs[*src as usize], *from_w) as u64) & mask(*to_w);
            }
            TOp::Mask { dst, src, w } => regs[*dst as usize] = regs[*src as usize] & mask(*w),
            TOp::Cat { dst, a, b, b_width } => {
                regs[*dst as usize] = (regs[*a as usize] << b_width) | regs[*b as usize];
            }
            TOp::JmpIfZero { cond, target } => {
                if regs[*cond as usize] == 0 {
                    pc = *target;
                    continue;
                }
            }
            TOp::Jmp { target } => {
                pc = *target;
                continue;
            }
            TOp::Write { sid, idx, depth, hi, lo, src, latency } => {
                let i = match idx {
                    Some(r) => regs[*r as usize] % *depth,
                    None => 0,
                };
                push_write(out, *sid, i, *hi, *lo, regs[*src as usize], *latency);
            }
            TOp::WriteFix { sid, idx, hi, lo, src, latency } => {
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
