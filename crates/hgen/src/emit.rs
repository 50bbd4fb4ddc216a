//! Assembly of the synthesizable hardware model.
//!
//! Puts together everything HGEN derives from the description:
//!
//! * storage elements → registers and memories,
//! * instruction fetch (multi-word capable) and the generated decode
//!   lines (§4.2),
//! * the shared datapath — one functional unit per clique of the
//!   sharing plan, with guard-selected input muxes,
//! * write-back: register next-value muxes, clique-shared memory write
//!   ports, and latency pipelines for operations whose results arrive
//!   late,
//! * a storage-level scoreboard interlock that freezes the PC while an
//!   in-flight result is pending. It is coarser than the simulator's
//!   statically derived stalls, so the hardware can take more cycles
//!   than XSIM counts: it stalls an operation that writes a storage
//!   with a pending result, not only one that reads it, and it holds
//!   off for the storage's worst latency over all operations, not the
//!   issuing operation's own,
//! * next-PC logic honouring branch writes and multi-word sizes.
//!
//! The generated module is self-contained: clock in, `pc_out` out; the
//! test bench drives memories directly through the netlist simulator.

use crate::datapath::{
    max_latency, storage_reads_with_nts, storage_writes_with_nts, Datapath, DpNode, WriteReq,
};
use crate::decode::{DecodePlan, DecodeStyle};
use crate::share::{plan as share_plan, ShareClass, ShareNode, ShareOptions, SharePlan};
use isdl::model::{Machine, OpRef};
use isdl::rtl::StorageId;
use isdl::sema::ceil_log2;
use vlog::ast::{LValue, VBinOp, VExpr, VModule, VStmt, VUnOp};

/// Everything the emitter produces besides the module itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EmitStats {
    /// Shareable datapath nodes extracted.
    pub nodes: usize,
    /// Functional units instantiated after sharing.
    pub units: usize,
    /// Units saved by sharing (nodes − units).
    pub units_saved: usize,
    /// RTL middle-end counters from the pre-lowering optimization.
    pub opt: isdl::opt::OptStats,
}

/// Emits the hardware model of `machine`.
///
/// # Panics
///
/// Panics only on invalid machines; [`isdl::load`] output is always
/// valid.
#[must_use]
pub fn emit(
    machine: &Machine,
    decode_style: DecodeStyle,
    share_opts: ShareOptions,
    pipeline: isdl::opt::Pipeline,
) -> (VModule, EmitStats) {
    let plan = DecodePlan::new(machine);
    let mut m = VModule::new(sanitize(&machine.name));

    // ---- storage ----
    let pc_id = machine.pc.expect("hardware generation needs a program counter");
    let imem_id = machine.imem.expect("hardware generation needs instruction memory");
    for s in &machine.storages {
        if s.kind.is_addressed() {
            m.add_memory(&s.name, s.width, s.cells());
        } else {
            m.add_reg(&s.name, s.width);
        }
    }
    let pc_name = machine.storage(pc_id).name.clone();
    let pc_w = machine.storage(pc_id).width;
    m.add_output("pc_out", pc_w);
    m.assign(LValue::net("pc_out"), VExpr::net(pc_name.clone()));

    // ---- fetch ----
    let wide = plan.wide_width;
    let imem_name = machine.storage(imem_id).name.clone();
    m.add_wire("instr", wide);
    let words = machine.max_op_size();
    let mut fetch_parts = Vec::new(); // most significant first
    for k in (0..words).rev() {
        let addr = if k == 0 {
            VExpr::net(pc_name.clone())
        } else {
            VExpr::binary(
                VBinOp::Add,
                VExpr::net(pc_name.clone()),
                VExpr::const_u64(u64::from(k), pc_w),
            )
        };
        fetch_parts.push(VExpr::Index(imem_name.clone(), Box::new(addr)));
    }
    let fetch = if fetch_parts.len() == 1 {
        fetch_parts.pop().expect("one word")
    } else {
        VExpr::Concat(fetch_parts)
    };
    m.assign(LValue::net("instr"), fetch);

    // ---- decode lines ----
    let dec_name = |r: OpRef| format!("dec_f{}_o{}", r.field.0, r.op);
    for (r, _) in machine.all_ops() {
        let name = dec_name(r);
        m.add_wire(&name, 1);
        let line = plan.decode_line(r, "instr", decode_style);
        m.assign(LValue::net(name), line);
    }

    // ---- datapath lowering ----
    let builder =
        crate::datapath::DatapathBuilder::new(&plan, "instr", decode_style).with_pipeline(pipeline);
    let dp = builder.build(&|r| dec_name(r));
    for (name, width, expr) in &dp.aux {
        m.add_wire(name, *width);
        m.assign(LValue::net(name.clone()), expr.clone());
    }

    // ---- scoreboard interlock ----
    let lat_max = max_latency(machine);
    let mut stall_terms: Vec<VExpr> = Vec::new();
    let mut busy_updates: Vec<VStmt> = Vec::new();
    if lat_max > 1 {
        // Which storages receive late results, and from which ops.
        let mut late: Vec<(StorageId, Vec<OpRef>, u32)> = Vec::new();
        for (r, op) in machine.all_ops() {
            if op.timing.latency > 1 {
                for sid in storage_writes_with_nts(machine, op) {
                    match late.iter_mut().find(|(s, _, _)| *s == sid) {
                        Some((_, ops, l)) => {
                            ops.push(r);
                            *l = (*l).max(op.timing.latency);
                        }
                        None => late.push((sid, vec![r], op.timing.latency)),
                    }
                }
            }
        }
        for (sid, writers, lat) in &late {
            let sname = &machine.storage(*sid).name;
            let ctr_w = ceil_log2(u64::from(*lat));
            let busy = format!("busy_{sname}");
            m.add_reg(&busy, ctr_w);
            // Ops touching this storage (reads or direct writes).
            let mut touch_terms: Vec<VExpr> = Vec::new();
            for (r, op) in machine.all_ops() {
                let touches = storage_reads_with_nts(machine, op).contains(sid)
                    || storage_writes_with_nts(machine, op).contains(sid);
                if touches {
                    touch_terms.push(VExpr::net(dec_name(r)));
                }
            }
            let touching = or_tree(touch_terms);
            let busy_nz = VExpr::unary(VUnOp::RedOr, VExpr::net(busy.clone()));
            stall_terms.push(VExpr::binary(VBinOp::And, touching, busy_nz));
            // Issue condition: a late writer decoded and not stalled.
            let issue = or_tree(writers.iter().map(|r| VExpr::net(dec_name(*r))).collect());
            let issue =
                VExpr::binary(VBinOp::And, issue, VExpr::unary(VUnOp::Not, VExpr::net("stall")));
            let dec = VExpr::cond(
                VExpr::unary(VUnOp::RedOr, VExpr::net(busy.clone())),
                VExpr::binary(VBinOp::Sub, VExpr::net(busy.clone()), VExpr::const_u64(1, ctr_w)),
                VExpr::const_u64(0, ctr_w),
            );
            busy_updates.push(VStmt::NonBlocking {
                lhs: LValue::net(busy.clone()),
                rhs: VExpr::cond(issue, VExpr::const_u64(u64::from(lat - 1), ctr_w), dec),
            });
        }
    }
    m.add_wire("stall", 1);
    m.assign(LValue::net("stall"), or_tree(stall_terms));

    // ---- functional units ----
    let share_nodes: Vec<ShareNode> = dp.nodes.iter().map(|n| n.share.clone()).collect();
    let splan: SharePlan = share_plan(machine, &share_nodes, share_opts);
    let stats = EmitStats {
        nodes: dp.nodes.len(),
        units: splan.unit_count(),
        units_saved: splan.units_saved(),
        opt: dp.opt_stats.clone(),
    };
    let mut emitter = UnitEmitter { m: &mut m, machine, aux: 0 };
    for (u, group) in splan.groups.iter().enumerate() {
        emitter.emit_unit(u, group, &dp.nodes);
    }

    // ---- write-back ----
    let mut ff: Vec<VStmt> = Vec::new();
    let mut wb = WritebackEmitter { m: &mut m, machine, dly: 0 };
    wb.emit_writeback(&dp, pc_id, &mut ff, share_opts);

    // ---- PC update ----
    let pc_writes: Vec<&WriteReq> = dp.writes.iter().filter(|w| w.sid == pc_id).collect();
    let pc_en = or_tree(pc_writes.iter().map(|w| w.guard.clone()).collect());
    let mut pc_val = VExpr::net(pc_name.clone());
    for w in &pc_writes {
        pc_val = VExpr::cond(w.guard.clone(), w.value.clone(), pc_val);
    }
    // Instruction size: decode-dependent for multi-word machines.
    let mut size_expr = VExpr::const_u64(1, pc_w);
    if words > 1 {
        for (r, op) in machine.all_ops() {
            if op.costs.size > 1 {
                size_expr = VExpr::cond(
                    VExpr::net(dec_name(r)),
                    VExpr::const_u64(u64::from(op.costs.size), pc_w),
                    size_expr,
                );
            }
        }
    }
    let seq_pc = VExpr::binary(VBinOp::Add, VExpr::net(pc_name.clone()), size_expr);
    let next_pc = VExpr::cond(
        VExpr::net("stall"),
        VExpr::net(pc_name.clone()),
        VExpr::cond(pc_en, pc_val, seq_pc),
    );
    ff.push(VStmt::NonBlocking { lhs: LValue::net(pc_name), rhs: next_pc });
    ff.extend(busy_updates);
    m.always_ff(ff);

    obs::log::event_with(obs::Level::Debug, "hgen.emit", "module", || {
        obs::Json::obj()
            .with("machine", machine.name.as_str())
            .with("nodes", stats.nodes)
            .with("units", stats.units)
            .with("units_saved", stats.units_saved)
    });
    (m, stats)
}

fn sanitize(name: &str) -> String {
    let s: String =
        name.chars().map(|c| if c.is_ascii_alphanumeric() || c == '_' { c } else { '_' }).collect();
    if s.is_empty() {
        "machine".to_owned()
    } else {
        s
    }
}

fn or_tree(terms: Vec<VExpr>) -> VExpr {
    let mut it = terms.into_iter();
    match it.next() {
        None => VExpr::const_u64(0, 1),
        Some(first) => it.fold(first, |acc, t| VExpr::binary(VBinOp::Or, acc, t)),
    }
}

struct UnitEmitter<'a, 'm> {
    m: &'a mut VModule,
    machine: &'m Machine,
    aux: usize,
}

impl UnitEmitter<'_, '_> {
    fn emit_unit(&mut self, u: usize, group: &[usize], nodes: &[DpNode]) {
        if group.len() == 1 {
            let i = group[0];
            let n = &nodes[i];
            let wire = DpNode::wire(i);
            self.m.add_wire(&wire, n.out_width);
            let expr = self.node_expr(n, n.a.clone(), n.b.clone());
            self.m.assign(LValue::net(wire), expr);
            return;
        }
        // Muxed inputs, one operator, fan the result out to members.
        let first = &nodes[group[0]];
        let in_w = first.a_width;
        let a_name = format!("u{u}_a");
        self.m.add_wire(&a_name, in_w);
        let mut a_mux = nodes[*group.last().expect("non-empty")].a.clone();
        for &i in group.iter().rev().skip(1) {
            a_mux = VExpr::cond(nodes[i].guard.clone(), nodes[i].a.clone(), a_mux);
        }
        self.m.assign(LValue::net(a_name.clone()), a_mux);
        let b_name = if first.b.is_some() {
            let name = format!("u{u}_b");
            self.m.add_wire(&name, in_w);
            let mut b_mux =
                nodes[*group.last().expect("non-empty")].b.clone().expect("class-consistent group");
            for &i in group.iter().rev().skip(1) {
                b_mux = VExpr::cond(
                    nodes[i].guard.clone(),
                    nodes[i].b.clone().expect("class-consistent group"),
                    b_mux,
                );
            }
            self.m.assign(LValue::net(name.clone()), b_mux);
            Some(name)
        } else {
            None
        };
        let y_name = format!("u{u}_y");
        self.m.add_wire(&y_name, first.out_width);
        let y = match first.share.class {
            ShareClass::AddSub => {
                // Mode selects subtraction when any subtract member is
                // active.
                let sub_guards: Vec<VExpr> = group
                    .iter()
                    .filter(|&&i| nodes[i].op == VBinOp::Sub)
                    .map(|&i| nodes[i].guard.clone())
                    .collect();
                let a = VExpr::net(a_name);
                let b = VExpr::net(b_name.expect("adders are binary"));
                if sub_guards.is_empty() {
                    VExpr::binary(VBinOp::Add, a, b)
                } else if sub_guards.len() == group.len() {
                    VExpr::binary(VBinOp::Sub, a, b)
                } else {
                    VExpr::cond(
                        or_tree(sub_guards),
                        VExpr::binary(VBinOp::Sub, a.clone(), b.clone()),
                        VExpr::binary(VBinOp::Add, a, b),
                    )
                }
            }
            ShareClass::Bin(op) => {
                VExpr::binary(op, VExpr::net(a_name), VExpr::net(b_name.expect("binary unit")))
            }
            ShareClass::MemRead(sid) => {
                let mem = self.machine.storage(sid).name.clone();
                VExpr::Index(mem, Box::new(VExpr::net(a_name)))
            }
            ShareClass::MemWrite(_) => unreachable!("write ports are emitted by write-back"),
        };
        self.m.assign(LValue::net(y_name.clone()), y);
        for &i in group {
            let wire = DpNode::wire(i);
            self.m.add_wire(&wire, nodes[i].out_width);
            self.m.assign(LValue::net(wire), VExpr::net(y_name.clone()));
        }
        self.aux += 1;
    }

    fn node_expr(&self, n: &DpNode, a: VExpr, b: Option<VExpr>) -> VExpr {
        match n.share.class {
            ShareClass::MemRead(sid) => {
                let mem = self.machine.storage(sid).name.clone();
                VExpr::Index(mem, Box::new(a))
            }
            _ => VExpr::binary(n.op, a, b.expect("binary node")),
        }
    }
}

struct WritebackEmitter<'a, 'm> {
    m: &'a mut VModule,
    machine: &'m Machine,
    dly: usize,
}

impl WritebackEmitter<'_, '_> {
    /// Emits all non-PC write-back logic into `ff`.
    fn emit_writeback(
        &mut self,
        dp: &Datapath,
        pc_id: StorageId,
        ff: &mut Vec<VStmt>,
        share_opts: ShareOptions,
    ) {
        // Delayed writes become pipelined requests; direct ones pass
        // through. Process per storage.
        let mut per_storage: Vec<(StorageId, Vec<WriteReq>)> = Vec::new();
        for w in &dp.writes {
            if w.sid == pc_id {
                continue; // PC handled by next-PC logic
            }
            let w = if w.latency > 1 { self.pipeline(w, ff) } else { w.clone() };
            match per_storage.iter_mut().find(|(s, _)| *s == w.sid) {
                Some((_, v)) => v.push(w),
                None => per_storage.push((w.sid, vec![w])),
            }
        }
        for (sid, mut reqs) in per_storage {
            // Delayed write-backs first (lower priority), then program
            // order.
            reqs.sort_by_key(|w| w.order);
            let st = self.machine.storage(sid);
            if st.kind.is_addressed() {
                self.emit_mem_ports(sid, &reqs, ff, share_opts);
            } else {
                self.emit_reg_writeback(sid, &reqs, ff);
            }
        }
    }

    /// Routes a late write through `latency - 1` register stages;
    /// returns the request as seen at the pipe's output.
    fn pipeline(&mut self, w: &WriteReq, ff: &mut Vec<VStmt>) -> WriteReq {
        let stages = w.latency - 1;
        let j = self.dly;
        self.dly += 1;
        let vw = w.hi - w.lo + 1;
        let mut g_prev = VExpr::binary(
            VBinOp::And,
            w.guard.clone(),
            VExpr::unary(VUnOp::Not, VExpr::net("stall")),
        );
        let mut v_prev = w.value.clone();
        let mut a_prev = w.addr.clone();
        for s in 1..=stages {
            let g_name = format!("dly{j}_g{s}");
            let v_name = format!("dly{j}_v{s}");
            self.m.add_reg(&g_name, 1);
            self.m.add_reg(&v_name, vw);
            ff.push(VStmt::NonBlocking { lhs: LValue::net(g_name.clone()), rhs: g_prev });
            ff.push(VStmt::NonBlocking { lhs: LValue::net(v_name.clone()), rhs: v_prev });
            g_prev = VExpr::net(g_name);
            v_prev = VExpr::net(v_name);
            if let Some(a) = a_prev {
                let a_name = format!("dly{j}_a{s}");
                let aw = ceil_log2(self.machine.storage(w.sid).cells());
                self.m.add_reg(&a_name, aw);
                ff.push(VStmt::NonBlocking { lhs: LValue::net(a_name.clone()), rhs: a });
                a_prev = Some(VExpr::net(a_name));
            }
        }
        WriteReq {
            sid: w.sid,
            addr: a_prev,
            hi: w.hi,
            lo: w.lo,
            value: v_prev,
            guard: g_prev,
            // In-flight results complete even while stalled; the guard
            // already went through the pipe, so latency is now 1 and
            // the write is unconditional on stall.
            latency: 0,
            order: 0, // delayed writes lose conflicts to direct ones
            owner: w.owner.clone(),
        }
    }

    fn emit_reg_writeback(&mut self, sid: StorageId, reqs: &[WriteReq], ff: &mut Vec<VStmt>) {
        let st = self.machine.storage(sid);
        let name = st.name.clone();
        let w = st.width;
        let mut next = VExpr::net(name.clone());
        for r in reqs {
            let full = self.full_width_value(&name, None, w, r);
            let guard = self.effective_guard(r);
            next = VExpr::cond(guard, full, next);
        }
        ff.push(VStmt::NonBlocking { lhs: LValue::net(name), rhs: next });
    }

    fn emit_mem_ports(
        &mut self,
        sid: StorageId,
        reqs: &[WriteReq],
        ff: &mut Vec<VStmt>,
        share_opts: ShareOptions,
    ) {
        let st = self.machine.storage(sid);
        let aw = ceil_log2(st.cells());
        // Group requests into ports by mutual exclusivity.
        let nodes: Vec<ShareNode> = reqs
            .iter()
            .map(|r| ShareNode {
                class: ShareClass::MemWrite(sid),
                width: st.width,
                owner: r.owner.clone(),
            })
            .collect();
        let splan = share_plan(self.machine, &nodes, share_opts);
        for (p, group) in splan.groups.iter().enumerate() {
            let en_name = format!("wp_{}_{}_en", st.name, p);
            let addr_name = format!("wp_{}_{}_addr", st.name, p);
            let data_name = format!("wp_{}_{}_data", st.name, p);
            self.m.add_wire(&en_name, 1);
            self.m.add_wire(&addr_name, aw);
            self.m.add_wire(&data_name, st.width);
            let members: Vec<&WriteReq> = group.iter().map(|&i| &reqs[i]).collect();
            let en = or_tree(members.iter().map(|r| self.effective_guard(r)).collect());
            self.m.assign(LValue::net(en_name.clone()), en);
            let last = members.last().expect("non-empty port group");
            let mut addr_mux = last.addr.clone().expect("memory writes are addressed");
            let mut data_mux = self.full_width_value(&st.name, last.addr.clone(), st.width, last);
            for r in members.iter().rev().skip(1) {
                let g = self.effective_guard(r);
                addr_mux = VExpr::cond(g.clone(), r.addr.clone().expect("addressed"), addr_mux);
                data_mux = VExpr::cond(
                    g,
                    self.full_width_value(&st.name, r.addr.clone(), st.width, r),
                    data_mux,
                );
            }
            self.m.assign(LValue::net(addr_name.clone()), addr_mux);
            self.m.assign(LValue::net(data_name.clone()), data_mux);
            ff.push(VStmt::If {
                cond: VExpr::net(en_name),
                then_body: vec![VStmt::NonBlocking {
                    lhs: LValue::Index(st.name.clone(), VExpr::net(addr_name)),
                    rhs: VExpr::net(data_name),
                }],
                else_body: vec![],
            });
        }
    }

    /// Direct (latency-1) writes are gated by `!stall`; pipelined ones
    /// already were at pipe entry.
    fn effective_guard(&self, r: &WriteReq) -> VExpr {
        if r.latency == 0 {
            r.guard.clone()
        } else {
            VExpr::binary(
                VBinOp::And,
                r.guard.clone(),
                VExpr::unary(VUnOp::Not, VExpr::net("stall")),
            )
        }
    }

    /// Expands a partial (bit-slice) write into a full-width value via
    /// read-modify-write on the old contents.
    fn full_width_value(
        &mut self,
        target: &str,
        addr: Option<VExpr>,
        width: u32,
        r: &WriteReq,
    ) -> VExpr {
        if r.lo == 0 && r.hi == width - 1 {
            return r.value.clone();
        }
        // Old value: register name, or a materialised memory read.
        let old_net = match addr {
            None => target.to_owned(),
            Some(a) => {
                let name = format!("rmw_{}_{}", target, self.dly);
                self.dly += 1;
                self.m.add_wire(&name, width);
                self.m.assign(
                    LValue::net(name.clone()),
                    VExpr::Index(target.to_owned(), Box::new(a)),
                );
                name
            }
        };
        let mut parts = Vec::new();
        if r.hi < width - 1 {
            parts.push(VExpr::Slice(old_net.clone(), width - 1, r.hi + 1));
        }
        parts.push(r.value.clone());
        if r.lo > 0 {
            parts.push(VExpr::Slice(old_net, r.lo - 1, 0));
        }
        if parts.len() == 1 {
            parts.pop().expect("one part")
        } else {
            VExpr::Concat(parts)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isdl::samples::{ACC16, TOY};
    use vlog::netlist::Netlist;

    #[test]
    fn toy_module_elaborates() {
        let m = isdl::load(TOY).expect("loads");
        let (module, stats) = emit(
            &m,
            DecodeStyle::TwoLevel,
            ShareOptions::default(),
            isdl::opt::Pipeline::for_level(isdl::opt::OptLevel::default()),
        );
        assert!(stats.nodes > 0);
        assert!(stats.units <= stats.nodes);
        let nl = Netlist::elaborate(&module);
        assert!(nl.is_ok(), "elaboration failed: {:?}", nl.err());
    }

    #[test]
    fn acc16_module_elaborates() {
        let m = isdl::load(ACC16).expect("loads");
        let (module, _) = emit(
            &m,
            DecodeStyle::TwoLevel,
            ShareOptions::default(),
            isdl::opt::Pipeline::for_level(isdl::opt::OptLevel::default()),
        );
        let nl = Netlist::elaborate(&module);
        assert!(nl.is_ok(), "elaboration failed: {:?}", nl.err());
        let text = module.to_verilog();
        assert!(text.contains("module acc16"));
        assert!(text.contains("always @(posedge clk)"));
    }

    #[test]
    fn sharing_reduces_units() {
        let m = isdl::load(TOY).expect("loads");
        let (_, with) = emit(
            &m,
            DecodeStyle::TwoLevel,
            ShareOptions::default(),
            isdl::opt::Pipeline::for_level(isdl::opt::OptLevel::default()),
        );
        let (_, without) = emit(
            &m,
            DecodeStyle::TwoLevel,
            ShareOptions { enabled: false, ..ShareOptions::default() },
            isdl::opt::Pipeline::for_level(isdl::opt::OptLevel::default()),
        );
        assert!(with.units < without.units, "{} !< {}", with.units, without.units);
        assert_eq!(without.units_saved, 0);
    }
}
