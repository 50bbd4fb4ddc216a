//! The translated basic-block tier (the step past §3.3.3's compiled
//! processing core, in the direction of PAPERS.md's specialized /
//! translated simulation).
//!
//! The bytecode interpreter re-dispatches per instruction: fetch the
//! decoded entry, walk its plans, and read parameter slots. All of
//! that is loop-invariant for a given instruction memory image, so the
//! translator hoists it: each basic block (straight-line run of
//! instructions ending at a control-flow, halting, or self-modifying
//! operation) is turned once into a trace of [`BlockInstr`]s keyed by
//! its start PC. Per instruction, the bytecode programs of every field
//! slot are *fused* into one [`Program`] with parameters baked in as
//! constants (each write already carries its latency, stamped by the
//! bytecode compiler), then constant-folded and dead-code-eliminated,
//! which is sound because a jump-free fused trace is single-assignment.
//! The scheduler runs it on the interpreter's own runner,
//! [`crate::bytecode::run`], with no parameters.
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

use crate::bytecode::{bin_u64, mask, sext64, un_u64, BOp, Compiled, Program, Reg};
use crate::sched::DecodedEntry;
use std::collections::HashMap;
use std::rc::Rc;

/// One instruction of a translated block. `fused` is `None` when the
/// instruction could not be fused (wide RTL plans) — the scheduler then
/// falls back to the interpreter for that instruction only.
#[derive(Debug)]
pub(crate) struct BlockInstr {
    pub(crate) pc: u64,
    pub(crate) entry: Rc<DecodedEntry>,
    pub(crate) fused: Option<Program>,
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

/// Fuses one decoded instruction's plans into a single bytecode
/// program: action programs of every slot, then side-effect programs,
/// registers and jump targets rebased, `ReadParam` lowered to
/// constants. Returns `None` (the interpreter fallback) if any plan is
/// wide RTL or the combined register file would overflow the `u16`
/// register space.
pub(crate) fn fuse_entry(entry: &DecodedEntry, removed: &mut u64) -> Option<Program> {
    let mut code: Vec<BOp> = Vec::new();
    let mut n_regs: u32 = 0;
    for (i, compiled) in entry.phases() {
        let Compiled::Code(p) = compiled else { return None };
        if n_regs + p.n_regs as u32 > u32::from(Reg::MAX) + 1 {
            return None;
        }
        let params = &entry.plans[i].params;
        let code_base = code.len();
        code.extend(p.code.iter().map(|op| rebase(op, params, n_regs, code_base)));
        n_regs += p.n_regs as u32;
    }
    optimize(&mut code, n_regs as usize, removed);
    Some(Program { code, n_regs: n_regs as usize })
}

#[inline]
fn off(r: Reg, base: u32) -> Reg {
    (u32::from(r) + base) as Reg
}

/// Rebases one compiled op into the fused trace: registers shifted by
/// `base`, jump targets by `code_base`, parameters materialized from
/// `params`.
fn rebase(op: &BOp, params: &[u64], base: u32, code_base: usize) -> BOp {
    let shift = |r: &mut Reg| *r = off(*r, base);
    let mut op = op.clone();
    match &mut op {
        BOp::ReadParam { dst, slot } => {
            return BOp::Const { dst: off(*dst, base), val: params[*slot as usize] };
        }
        BOp::Const { dst, .. } | BOp::ReadSt { dst, .. } => shift(dst),
        BOp::ReadIdx { dst, idx, .. } => {
            shift(dst);
            shift(idx);
        }
        BOp::Bin { dst, a, b, .. } | BOp::Cat { dst, a, b, .. } => {
            shift(dst);
            shift(a);
            shift(b);
        }
        BOp::Un { dst, a: src, .. }
        | BOp::Slice { dst, src, .. }
        | BOp::Sext { dst, src, .. }
        | BOp::Mask { dst, src, .. } => {
            shift(dst);
            shift(src);
        }
        BOp::JmpIfZero { cond, target } => {
            shift(cond);
            *target += code_base;
        }
        BOp::Jmp { target } => *target += code_base,
        BOp::Write { idx, src, .. } => {
            if let Some(idx) = idx {
                shift(idx);
            }
            shift(src);
        }
        BOp::ReadFix { .. } | BOp::BinImm { .. } | BOp::WriteFix { .. } => {
            unreachable!("only the folder produces folded forms")
        }
    }
    op
}

/// Constant folding + dead code elimination over a jump-free fused
/// trace. With control flow present the pass is skipped: only the
/// straight-line case is single-assignment, which both passes rely on.
/// Every fold uses the arithmetic helpers of [`crate::bytecode::run`],
/// so optimized and unoptimized traces stage identical writes.
fn optimize(code: &mut Vec<BOp>, n_regs: usize, removed: &mut u64) {
    if code.iter().any(|op| matches!(op, BOp::Jmp { .. } | BOp::JmpIfZero { .. })) {
        return;
    }
    let before = code.len();

    // Forward constant propagation.
    let mut konst: Vec<Option<u64>> = vec![None; n_regs];
    for slot in code.iter_mut() {
        let rewritten: Option<BOp> = match &*slot {
            BOp::Const { dst, val } => {
                konst[*dst as usize] = Some(*val);
                None
            }
            BOp::ReadSt { dst, .. } | BOp::ReadFix { dst, .. } => {
                konst[*dst as usize] = None;
                None
            }
            BOp::ReadIdx { dst, sid, idx, depth } => {
                konst[*dst as usize] = None;
                konst[*idx as usize].map(|v| BOp::ReadFix { dst: *dst, sid: *sid, idx: v % *depth })
            }
            BOp::Bin { op, w, dst, a, b } => match (konst[*a as usize], konst[*b as usize]) {
                (Some(x), Some(y)) => {
                    let v = bin_u64(*op, *w, x, y);
                    konst[*dst as usize] = Some(v);
                    Some(BOp::Const { dst: *dst, val: v })
                }
                (None, Some(y)) => {
                    konst[*dst as usize] = None;
                    Some(BOp::BinImm { op: *op, w: *w, dst: *dst, a: *a, imm: y })
                }
                _ => {
                    konst[*dst as usize] = None;
                    None
                }
            },
            BOp::BinImm { dst, .. } => {
                konst[*dst as usize] = None;
                None
            }
            BOp::Un { op, w, dst, a } => match konst[*a as usize] {
                Some(v) => {
                    let r = un_u64(*op, *w, v);
                    konst[*dst as usize] = Some(r);
                    Some(BOp::Const { dst: *dst, val: r })
                }
                None => {
                    konst[*dst as usize] = None;
                    None
                }
            },
            BOp::Slice { dst, src, hi, lo } => match konst[*src as usize] {
                Some(v) => {
                    let r = (v >> lo) & mask(hi - lo + 1);
                    konst[*dst as usize] = Some(r);
                    Some(BOp::Const { dst: *dst, val: r })
                }
                None => {
                    konst[*dst as usize] = None;
                    None
                }
            },
            BOp::Sext { dst, src, from_w, to_w } => match konst[*src as usize] {
                Some(v) => {
                    let r = (sext64(v, *from_w) as u64) & mask(*to_w);
                    konst[*dst as usize] = Some(r);
                    Some(BOp::Const { dst: *dst, val: r })
                }
                None => {
                    konst[*dst as usize] = None;
                    None
                }
            },
            BOp::Mask { dst, src, w } => match konst[*src as usize] {
                Some(v) => {
                    let r = v & mask(*w);
                    konst[*dst as usize] = Some(r);
                    Some(BOp::Const { dst: *dst, val: r })
                }
                None => {
                    konst[*dst as usize] = None;
                    None
                }
            },
            BOp::Cat { dst, a, b, b_width } => match (konst[*a as usize], konst[*b as usize]) {
                (Some(x), Some(y)) => {
                    let r = (x << b_width) | y;
                    konst[*dst as usize] = Some(r);
                    Some(BOp::Const { dst: *dst, val: r })
                }
                _ => {
                    konst[*dst as usize] = None;
                    None
                }
            },
            BOp::Write { sid, idx: Some(r), depth, hi, lo, src, latency } => konst[*r as usize]
                .map(|v| BOp::WriteFix {
                    sid: *sid,
                    idx: v % *depth,
                    hi: *hi,
                    lo: *lo,
                    src: *src,
                    latency: *latency,
                }),
            BOp::Write { .. } | BOp::WriteFix { .. } => None,
            BOp::ReadParam { .. } | BOp::Jmp { .. } | BOp::JmpIfZero { .. } => {
                unreachable!("fused traces here are parameter-free and jump-free")
            }
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
            BOp::Write { idx, src, .. } => {
                if let Some(r) = idx {
                    live[*r as usize] = true;
                }
                live[*src as usize] = true;
            }
            BOp::WriteFix { src, .. } => live[*src as usize] = true,
            BOp::Const { dst, .. } | BOp::ReadSt { dst, .. } | BOp::ReadFix { dst, .. } => {
                keep[i] = live[*dst as usize];
            }
            BOp::ReadIdx { dst, idx, .. } => {
                keep[i] = live[*dst as usize];
                if keep[i] {
                    live[*idx as usize] = true;
                }
            }
            BOp::Bin { dst, a, b, .. } | BOp::Cat { dst, a, b, .. } => {
                keep[i] = live[*dst as usize];
                if keep[i] {
                    live[*a as usize] = true;
                    live[*b as usize] = true;
                }
            }
            BOp::BinImm { dst, a, .. } | BOp::Un { dst, a, .. } => {
                keep[i] = live[*dst as usize];
                if keep[i] {
                    live[*a as usize] = true;
                }
            }
            BOp::Slice { dst, src, .. }
            | BOp::Sext { dst, src, .. }
            | BOp::Mask { dst, src, .. } => {
                keep[i] = live[*dst as usize];
                if keep[i] {
                    live[*src as usize] = true;
                }
            }
            BOp::ReadParam { .. } | BOp::Jmp { .. } | BOp::JmpIfZero { .. } => {
                unreachable!("fused traces here are parameter-free and jump-free")
            }
        }
    }
    let mut it = keep.iter();
    code.retain(|_| *it.next().expect("keep mask parallels code"));
    *removed += (before - code.len()) as u64;
}
