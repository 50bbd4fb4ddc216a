//! Event-driven simulation of an elaborated netlist.
//!
//! This is the suite's stand-in for Cadence Verilog-XL: a two-phase
//! clocked, event-driven simulator. Within a cycle, combinational
//! nodes are re-evaluated from a worklist seeded by changed nets
//! (fan-out driven, like any event-driven HDL simulator); at each
//! rising clock edge the non-blocking updates of the `always` block are
//! computed against settled values and applied atomically.
//!
//! The per-cycle cost is proportional to the number of *events*
//! (node re-evaluations), which is what makes simulating a hardware
//! model orders of magnitude slower than an instruction-level
//! simulator — the effect Table 1 of the paper quantifies.

use crate::ast::{LValue, VModule, VStmt};
use crate::netlist::{eval_expr, MemId, NetId, Netlist};
use crate::vcd::Vcd;
use crate::VlogError;
use bitv::BitVector;
use std::collections::VecDeque;
use std::io::Write;

/// An event-driven simulator over an elaborated netlist.
pub struct NetlistSim {
    netlist: Netlist,
    values: Vec<BitVector>,
    mems: Vec<Vec<BitVector>>,
    /// Total combinational node evaluations performed.
    events: u64,
    /// Total rising clock edges applied.
    cycles: u64,
    vcd: Option<Vcd>,
}

impl std::fmt::Debug for NetlistSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetlistSim")
            .field("nets", &self.netlist.nets.len())
            .field("cycles", &self.cycles)
            .field("events", &self.events)
            .finish_non_exhaustive()
    }
}

impl Clone for NetlistSim {
    /// Clones the simulator state; an attached VCD sink is not cloned
    /// (the copy starts without waveform dumping).
    fn clone(&self) -> Self {
        Self {
            netlist: self.netlist.clone(),
            values: self.values.clone(),
            mems: self.mems.clone(),
            events: self.events,
            cycles: self.cycles,
            vcd: None,
        }
    }
}

impl NetlistSim {
    /// Elaborates `module` and initialises all state to zero.
    ///
    /// # Errors
    ///
    /// Propagates elaboration errors; also fails if the initial
    /// combinational settle does not converge (a combinational loop).
    pub fn elaborate(module: &VModule) -> Result<Self, VlogError> {
        let netlist = Netlist::elaborate(module)?;
        let values = netlist.nets.iter().map(|n| BitVector::zero(n.width)).collect();
        let mems =
            netlist.mems.iter().map(|m| vec![BitVector::zero(m.width); m.depth as usize]).collect();
        let mut sim = Self { netlist, values, mems, events: 0, cycles: 0, vcd: None };
        sim.settle_all()?;
        Ok(sim)
    }

    /// The elaborated netlist.
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Current value of a net.
    ///
    /// # Errors
    ///
    /// Returns a [`VlogError`] if the net does not exist.
    pub fn peek(&self, name: &str) -> Result<&BitVector, VlogError> {
        let id = self
            .netlist
            .net_id(name)
            .ok_or_else(|| VlogError::new(format!("net `{name}` does not exist")))?;
        Ok(&self.values[id.0])
    }

    /// Current value of one memory cell; the address wraps at the
    /// depth.
    ///
    /// # Errors
    ///
    /// Returns a [`VlogError`] if the memory does not exist.
    pub fn peek_memory(&self, name: &str, addr: u64) -> Result<&BitVector, VlogError> {
        let id = self
            .netlist
            .mem_id(name)
            .ok_or_else(|| VlogError::new(format!("memory `{name}` does not exist")))?;
        let depth = self.netlist.mems[id.0].depth;
        Ok(&self.mems[id.0][(addr % depth) as usize])
    }

    /// Forces a net value (module inputs, or registers for test setup)
    /// and propagates through the combinational logic.
    ///
    /// # Errors
    ///
    /// Returns a [`VlogError`] if the net does not exist or the width
    /// differs; also fails on a non-converging combinational loop.
    pub fn poke(&mut self, name: &str, value: BitVector) -> Result<(), VlogError> {
        let id = self
            .netlist
            .net_id(name)
            .ok_or_else(|| VlogError::new(format!("net `{name}` does not exist")))?;
        let w = self.netlist.nets[id.0].width;
        if value.width() != w {
            return Err(VlogError::new(format!(
                "poke of `{name}`: value is {} bits, net is {w}",
                value.width()
            )));
        }
        if self.values[id.0] != value {
            self.values[id.0] = value;
            self.settle_from(&[id], &[])?;
        }
        Ok(())
    }

    /// Writes one memory cell directly (test setup) and propagates to
    /// combinational readers: a one-cell
    /// [`NetlistSim::poke_memory_cells`].
    ///
    /// # Errors
    ///
    /// Returns a [`VlogError`] if the memory does not exist or the
    /// width differs; also fails on a non-converging combinational
    /// loop.
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
    /// depth, then propagates to combinational readers once.
    ///
    /// # Errors
    ///
    /// Returns a [`VlogError`], and writes nothing, if the memory does
    /// not exist or a value's width differs from the cells'; also fails
    /// on a non-converging combinational loop.
    pub fn poke_memory_cells(
        &mut self,
        name: &str,
        cells: &[(u64, BitVector)],
    ) -> Result<(), VlogError> {
        let id = self
            .netlist
            .mem_id(name)
            .ok_or_else(|| VlogError::new(format!("memory `{name}` does not exist")))?;
        let (width, depth) = (self.netlist.mems[id.0].width, self.netlist.mems[id.0].depth);
        if let Some((_, v)) = cells.iter().find(|(_, v)| v.width() != width) {
            return Err(VlogError::new(format!(
                "poke of `{name}`: value is {} bits, cells are {width}",
                v.width()
            )));
        }
        let mut changed = false;
        for (addr, value) in cells {
            let cell = &mut self.mems[id.0][(addr % depth) as usize];
            if cell != value {
                cell.clone_from(value);
                changed = true;
            }
        }
        if changed {
            self.settle_from(&[], &[id])?;
        }
        Ok(())
    }

    /// Applies `n` rising clock edges.
    ///
    /// # Errors
    ///
    /// Fails on a non-converging combinational loop.
    pub fn clock(&mut self, n: u64) -> Result<(), VlogError> {
        for _ in 0..n {
            self.edge()?;
        }
        Ok(())
    }

    /// Total combinational evaluations performed so far — the event
    /// count that dominates simulation cost.
    #[must_use]
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Total rising edges applied.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Starts dumping a value-change dump (VCD) of every scalar net to
    /// `sink`. The header and initial values are written immediately;
    /// each subsequent clock edge appends the nets that changed.
    /// Memories are not traced (VCD has no array construct).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink.
    pub fn start_vcd(&mut self, sink: Box<dyn Write + Send + Sync>) -> std::io::Result<()> {
        self.vcd = Some(Vcd::start(sink, &self.netlist.nets, self.values.clone())?);
        Ok(())
    }

    /// Stops VCD dumping and returns the sink.
    pub fn stop_vcd(&mut self) -> Option<Box<dyn Write + Send + Sync>> {
        self.vcd.take().map(Vcd::into_sink)
    }

    fn dump_vcd_changes(&mut self) {
        if let Some(vcd) = &mut self.vcd {
            let values = &self.values;
            vcd.dump_changes(self.cycles, |i| values[i].clone());
        }
    }

    fn edge(&mut self) -> Result<(), VlogError> {
        // Compute all non-blocking updates against settled values.
        let mut net_updates: Vec<(NetId, u32, u32, BitVector)> = Vec::new();
        let mut mem_updates: Vec<(MemId, u64, BitVector)> = Vec::new();
        let stmts = self.netlist.ff.clone();
        self.exec_stmts(&stmts, &mut net_updates, &mut mem_updates);

        // Apply atomically (last assignment to a cell wins — Verilog
        // non-blocking semantics).
        let mut changed_nets = Vec::new();
        let mut changed_mems = Vec::new();
        for (id, hi, lo, v) in net_updates {
            let old = &self.values[id.0];
            let new = if lo == 0 && hi == old.width() - 1 { v } else { old.with_slice(hi, lo, &v) };
            if self.values[id.0] != new {
                self.values[id.0] = new;
                changed_nets.push(id);
            }
        }
        for (id, addr, v) in mem_updates {
            let depth = self.netlist.mems[id.0].depth;
            let i = (addr % depth) as usize;
            if self.mems[id.0][i] != v {
                self.mems[id.0][i] = v;
                changed_mems.push(id);
            }
        }
        self.cycles += 1;
        self.settle_from(&changed_nets, &changed_mems)?;
        self.dump_vcd_changes();
        Ok(())
    }

    fn exec_stmts(
        &self,
        stmts: &[VStmt],
        net_updates: &mut Vec<(NetId, u32, u32, BitVector)>,
        mem_updates: &mut Vec<(MemId, u64, BitVector)>,
    ) {
        for st in stmts {
            match st {
                VStmt::NonBlocking { lhs, rhs } => {
                    let v = eval_expr(rhs, &self.netlist, &self.values, &self.mems);
                    match lhs {
                        LValue::Net(n) => {
                            let id = self.netlist.net_id(n).expect("validated");
                            let w = self.netlist.nets[id.0].width;
                            net_updates.push((id, w - 1, 0, v));
                        }
                        LValue::Slice(n, hi, lo) => {
                            let id = self.netlist.net_id(n).expect("validated");
                            net_updates.push((id, *hi, *lo, v));
                        }
                        LValue::Index(m, a) => {
                            let id = self.netlist.mem_id(m).expect("validated");
                            let addr = eval_expr(a, &self.netlist, &self.values, &self.mems)
                                .to_u64_lossy();
                            mem_updates.push((id, addr, v));
                        }
                    }
                }
                VStmt::If { cond, then_body, else_body } => {
                    let c = eval_expr(cond, &self.netlist, &self.values, &self.mems);
                    let body = if c.is_zero() { else_body } else { then_body };
                    self.exec_stmts(body, net_updates, mem_updates);
                }
            }
        }
    }

    fn settle_all(&mut self) -> Result<(), VlogError> {
        let all: Vec<usize> = (0..self.netlist.comb.len()).collect();
        self.run_worklist(all.into())
    }

    fn settle_from(&mut self, nets: &[NetId], mems: &[MemId]) -> Result<(), VlogError> {
        let mut work: VecDeque<usize> = VecDeque::new();
        for n in nets {
            work.extend(&self.netlist.fanout[n.0]);
        }
        for m in mems {
            work.extend(&self.netlist.mem_fanout[m.0]);
        }
        self.run_worklist(work)
    }

    fn run_worklist(&mut self, mut work: VecDeque<usize>) -> Result<(), VlogError> {
        // Convergence budget: generous multiple of design size.
        let budget = 64 * (self.netlist.comb.len() as u64 + 4) * (work.len() as u64 + 4);
        let mut spent = 0u64;
        let mut queued: Vec<bool> = vec![false; self.netlist.comb.len()];
        for &i in &work {
            queued[i] = true;
        }
        while let Some(i) = work.pop_front() {
            queued[i] = false;
            spent += 1;
            self.events += 1;
            if spent > budget {
                return Err(VlogError::new(
                    "combinational logic did not converge (combinational loop?)",
                ));
            }
            let node = &self.netlist.comb[i];
            let v = eval_expr(&node.expr, &self.netlist, &self.values, &self.mems);
            let old = &self.values[node.target.0];
            let new = if node.lo == 0 && node.hi == old.width() - 1 {
                v
            } else {
                old.with_slice(node.hi, node.lo, &v)
            };
            if *old != new {
                self.values[node.target.0] = new;
                for &j in &self.netlist.fanout[node.target.0] {
                    if !queued[j] {
                        queued[j] = true;
                        work.push_back(j);
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::*;

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
        let mut sim = NetlistSim::elaborate(&counter(3)).expect("elaborates");
        sim.clock(5).expect("clocks");
        assert_eq!(sim.peek("count").expect("net").to_u64_lossy(), 5);
        assert_eq!(sim.peek("out").expect("net").to_u64_lossy(), 5);
        sim.clock(5).expect("clocks");
        assert_eq!(sim.peek("count").expect("net").to_u64_lossy(), 2, "3-bit wrap");
        assert_eq!(sim.cycles(), 10);
        assert!(sim.events() > 0);
    }

    #[test]
    fn poke_input_propagates() {
        let mut m = VModule::new("m");
        m.add_input("a", 8);
        m.add_input("b", 8);
        m.add_wire("sum", 8);
        m.assign(LValue::net("sum"), VExpr::binary(VBinOp::Add, VExpr::net("a"), VExpr::net("b")));
        let mut sim = NetlistSim::elaborate(&m).expect("elaborates");
        sim.poke("a", BitVector::from_u64(30, 8)).expect("pokes");
        sim.poke("b", BitVector::from_u64(12, 8)).expect("pokes");
        assert_eq!(sim.peek("sum").expect("net").to_u64_lossy(), 42);
    }

    #[test]
    fn chained_combinational_propagation() {
        let mut m = VModule::new("m");
        m.add_input("a", 4);
        m.add_wire("x", 4);
        m.add_wire("y", 4);
        m.add_wire("z", 4);
        m.assign(
            LValue::net("x"),
            VExpr::binary(VBinOp::Add, VExpr::net("a"), VExpr::const_u64(1, 4)),
        );
        m.assign(
            LValue::net("y"),
            VExpr::binary(VBinOp::Shl, VExpr::net("x"), VExpr::const_u64(1, 4)),
        );
        m.assign(LValue::net("z"), VExpr::unary(VUnOp::Not, VExpr::net("y")));
        let mut sim = NetlistSim::elaborate(&m).expect("elaborates");
        sim.poke("a", BitVector::from_u64(2, 4)).expect("pokes");
        assert_eq!(sim.peek("z").expect("net").to_u64_lossy(), 0b1001);
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
        let mut sim = NetlistSim::elaborate(&m).expect("elaborates");
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
        // Classic swap: a <= b; b <= a; must exchange, not duplicate.
        let mut m = VModule::new("m");
        m.add_reg("a", 4);
        m.add_reg("b", 4);
        m.always_ff(vec![
            VStmt::NonBlocking { lhs: LValue::net("a"), rhs: VExpr::net("b") },
            VStmt::NonBlocking { lhs: LValue::net("b"), rhs: VExpr::net("a") },
        ]);
        let mut sim = NetlistSim::elaborate(&m).expect("elaborates");
        sim.poke("a", BitVector::from_u64(1, 4)).expect("pokes");
        sim.poke("b", BitVector::from_u64(2, 4)).expect("pokes");
        sim.clock(1).expect("clocks");
        assert_eq!(sim.peek("a").expect("net").to_u64_lossy(), 2);
        assert_eq!(sim.peek("b").expect("net").to_u64_lossy(), 1);
    }

    #[test]
    fn combinational_loop_detected() {
        let mut m = VModule::new("m");
        m.add_wire("p", 1);
        m.add_wire("q", 1);
        m.assign(LValue::net("p"), VExpr::unary(VUnOp::Not, VExpr::net("q")));
        m.assign(LValue::net("q"), VExpr::net("p"));
        assert!(NetlistSim::elaborate(&m).is_err(), "ring oscillator never settles");
    }

    #[test]
    fn poke_memory_updates_readers() {
        let mut m = VModule::new("m");
        m.add_memory("rom", 8, 4);
        m.add_wire("q", 8);
        m.assign(LValue::net("q"), VExpr::Index("rom".into(), Box::new(VExpr::const_u64(1, 2))));
        let mut sim = NetlistSim::elaborate(&m).expect("elaborates");
        sim.poke_memory("rom", 1, BitVector::from_u64(7, 8)).expect("pokes");
        assert_eq!(sim.peek("q").expect("net").to_u64_lossy(), 7);
    }
}

#[cfg(test)]
mod vcd_tests {
    use super::*;
    use crate::ast::*;
    use std::sync::{Arc, Mutex};

    #[derive(Clone, Default)]
    struct SharedSink(Arc<Mutex<Vec<u8>>>);
    impl Write for SharedSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().expect("sink").extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn vcd_captures_counter_waveform() {
        let mut m = VModule::new("c");
        m.add_reg("count", 2);
        m.always_ff(vec![VStmt::NonBlocking {
            lhs: LValue::net("count"),
            rhs: VExpr::binary(VBinOp::Add, VExpr::net("count"), VExpr::const_u64(1, 2)),
        }]);
        let mut sim = NetlistSim::elaborate(&m).expect("elaborates");
        let sink = SharedSink::default();
        sim.start_vcd(Box::new(sink.clone())).expect("starts");
        sim.clock(3).expect("clocks");
        let text = String::from_utf8(sink.0.lock().expect("sink").clone()).expect("utf8");
        assert!(text.contains("$timescale 1ns $end"));
        assert!(text.contains("$var wire 2"));
        assert!(text.contains("count $end"));
        assert!(text.contains("$enddefinitions $end"));
        // Three edges -> three change records after the initial dump.
        assert!(text.contains("#1\nb01"), "{text}");
        assert!(text.contains("#2\nb10"), "{text}");
        assert!(text.contains("#3\nb11"), "{text}");
        assert!(sim.stop_vcd().is_some());
        sim.clock(1).expect("clocks without vcd");
    }

    #[test]
    fn clone_drops_vcd_sink() {
        let mut m = VModule::new("c");
        m.add_reg("r", 1);
        let mut sim = NetlistSim::elaborate(&m).expect("elaborates");
        sim.start_vcd(Box::new(SharedSink::default())).expect("starts");
        let copy = sim.clone();
        assert_eq!(copy.cycles(), 0);
    }
}
