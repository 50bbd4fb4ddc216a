#![deny(missing_docs)]
#![forbid(unsafe_code)]

//! Synthesizable-Verilog substrate: AST, emitter, netlist elaboration,
//! event-driven and compiled levelized simulation, and a technology
//! cost model.
//!
//! The paper evaluates HGEN output by simulating the generated Verilog
//! with Cadence Verilog-XL (Table 1) and synthesizing it with Synopsys
//! against the LSI 10K library (Table 2). Both tools are proprietary,
//! so this crate provides the closest open substitutes:
//!
//! * [`ast`] / the emitter — a single-module synthesizable subset
//!   (wires, regs, memories, continuous assigns, one clocked `always`
//!   block) sufficient for HGEN's output, printable as Verilog text
//!   (whose line count is the "Lines of Verilog" column of Table 2);
//! * [`netlist`] — elaboration into a word-level netlist with fan-out
//!   tracking;
//! * [`sim`] — an event-driven two-phase clocked simulator over the
//!   netlist (the Verilog-XL stand-in: it pays per-net event cost each
//!   cycle, which is exactly why the ILS beats it in Table 1);
//! * [`level`] / [`lsim`] — the compiled levelized backend (the GSIM
//!   approach): topological ordering, flat register programs of 2-state
//!   word μ-ops over a flat arena, and partition skipping, bit-identical
//!   to [`sim`] but fast enough to cross-check every exploration round;
//! * [`tech`] — an LSI-10K-flavoured library mapping each word-level
//!   operator to gate-equivalent area ("grid cells") and delay (ns),
//!   plus static timing over the netlist (the Synopsys stand-in).
//!
//! The two simulation backends share one surface; pick one through
//! [`AnySim`] (or directly) and the rest of the testbench code is
//! identical. See `docs/SIMULATORS.md` for the decision table.
//!
//! # Examples
//!
//! Build a 2-bit counter, print it, and simulate 3 clocks on each
//! backend:
//!
//! ```
//! use vlog::ast::*;
//! use vlog::{AnySim, SimBackend};
//!
//! let mut m = VModule::new("counter");
//! m.add_reg("count", 2);
//! m.add_output("out", 2);
//! m.assign(LValue::net("out"), VExpr::net("count"));
//! m.always_ff(vec![VStmt::NonBlocking {
//!     lhs: LValue::net("count"),
//!     rhs: VExpr::binary(VBinOp::Add, VExpr::net("count"), VExpr::const_u64(1, 2)),
//! }]);
//!
//! let text = m.to_verilog();
//! assert!(text.contains("module counter"));
//!
//! for backend in [SimBackend::Event, SimBackend::Levelized] {
//!     let mut sim = AnySim::elaborate(&m, backend)?;
//!     sim.clock(3)?;
//!     assert_eq!(sim.peek("count")?.to_u64_lossy(), 3);
//! }
//! # Ok::<(), vlog::VlogError>(())
//! ```

pub mod ast;
pub mod level;
pub mod lsim;
pub mod netlist;
pub mod sim;
pub mod tech;
mod vcd;

use bitv::BitVector;
use std::error::Error;
use std::fmt;
use std::io::Write;

/// Error elaborating or simulating a module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VlogError {
    msg: String,
}

impl VlogError {
    pub(crate) fn new(msg: impl Into<String>) -> Self {
        Self { msg: msg.into() }
    }

    /// The detail message.
    #[must_use]
    pub fn message(&self) -> &str {
        &self.msg
    }
}

impl fmt::Display for VlogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "verilog error: {}", self.msg)
    }
}

impl Error for VlogError {}

/// Which netlist simulation backend to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SimBackend {
    /// The event-driven two-phase simulator ([`sim::NetlistSim`]):
    /// accepts every elaborable design, pays a worklist per cycle.
    #[default]
    Event,
    /// The compiled levelized simulator ([`lsim::LevelizedSim`]):
    /// straight-line 2-state sweeps, rejects combinational loops at
    /// compile time.
    Levelized,
}

impl SimBackend {
    /// Parses a backend name as used by the `--netlist-sim` CLI flags.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "event" => Some(Self::Event),
            "levelized" => Some(Self::Levelized),
            _ => None,
        }
    }

    /// The CLI/report name (`event` or `levelized`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Event => "event",
            Self::Levelized => "levelized",
        }
    }
}

impl fmt::Display for SimBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A netlist simulator of either backend behind one surface.
///
/// Both variants are bit-identical on every design the levelized
/// compiler accepts; the differential suite keeps them that way.
#[derive(Debug, Clone)]
pub enum AnySim {
    /// The event-driven backend.
    Event(Box<sim::NetlistSim>),
    /// The compiled levelized backend.
    Levelized(Box<lsim::LevelizedSim>),
}

impl AnySim {
    /// Elaborates `module` with the chosen backend.
    ///
    /// # Errors
    ///
    /// Propagates elaboration/levelization errors.
    pub fn elaborate(module: &ast::VModule, backend: SimBackend) -> Result<Self, VlogError> {
        Ok(match backend {
            SimBackend::Event => Self::Event(Box::new(sim::NetlistSim::elaborate(module)?)),
            SimBackend::Levelized => {
                Self::Levelized(Box::new(lsim::LevelizedSim::elaborate(module)?))
            }
        })
    }

    /// Which backend this is.
    #[must_use]
    pub fn backend(&self) -> SimBackend {
        match self {
            Self::Event(_) => SimBackend::Event,
            Self::Levelized(_) => SimBackend::Levelized,
        }
    }

    /// The elaborated netlist.
    #[must_use]
    pub fn netlist(&self) -> &netlist::Netlist {
        match self {
            Self::Event(s) => s.netlist(),
            Self::Levelized(s) => s.netlist(),
        }
    }

    /// Current value of a net (owned — the levelized arena does not
    /// store narrow nets as `BitVector`s).
    ///
    /// # Errors
    ///
    /// Returns a [`VlogError`] if the net does not exist.
    pub fn peek(&self, name: &str) -> Result<BitVector, VlogError> {
        match self {
            Self::Event(s) => s.peek(name).cloned(),
            Self::Levelized(s) => s.peek(name),
        }
    }

    /// Current value of one memory cell; the address wraps at the
    /// depth.
    ///
    /// # Errors
    ///
    /// Returns a [`VlogError`] if the memory does not exist.
    pub fn peek_memory(&self, name: &str, addr: u64) -> Result<BitVector, VlogError> {
        match self {
            Self::Event(s) => s.peek_memory(name, addr).cloned(),
            Self::Levelized(s) => s.peek_memory(name, addr),
        }
    }

    /// Forces a net value and propagates.
    ///
    /// # Errors
    ///
    /// See [`sim::NetlistSim::poke`] and [`lsim::LevelizedSim::poke`].
    pub fn poke(&mut self, name: &str, value: BitVector) -> Result<(), VlogError> {
        match self {
            Self::Event(s) => s.poke(name, value),
            Self::Levelized(s) => s.poke(name, value),
        }
    }

    /// Writes one memory cell directly and propagates: a one-cell
    /// [`AnySim::poke_memory_cells`].
    ///
    /// # Errors
    ///
    /// See [`AnySim::poke_memory_cells`].
    pub fn poke_memory(
        &mut self,
        name: &str,
        addr: u64,
        value: BitVector,
    ) -> Result<(), VlogError> {
        self.poke_memory_cells(name, &[(addr, value)])
    }

    /// Writes many cells of one memory, each `(address, value)` in
    /// order with addresses wrapping at the depth, then propagates
    /// once: how a program is loaded.
    ///
    /// # Errors
    ///
    /// See [`sim::NetlistSim::poke_memory_cells`] and
    /// [`lsim::LevelizedSim::poke_memory_cells`].
    pub fn poke_memory_cells(
        &mut self,
        name: &str,
        cells: &[(u64, BitVector)],
    ) -> Result<(), VlogError> {
        match self {
            Self::Event(s) => s.poke_memory_cells(name, cells),
            Self::Levelized(s) => s.poke_memory_cells(name, cells),
        }
    }

    /// Applies `n` rising clock edges.
    ///
    /// # Errors
    ///
    /// Fails on a non-converging combinational loop (event backend
    /// only; the levelized backend rejected loops at compile time).
    pub fn clock(&mut self, n: u64) -> Result<(), VlogError> {
        match self {
            Self::Event(s) => s.clock(n),
            Self::Levelized(s) => s.clock(n),
        }
    }

    /// Total rising edges applied.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        match self {
            Self::Event(s) => s.cycles(),
            Self::Levelized(s) => s.cycles(),
        }
    }

    /// Total combinational node evaluations performed (events).
    #[must_use]
    pub fn events(&self) -> u64 {
        match self {
            Self::Event(s) => s.events(),
            Self::Levelized(s) => s.node_evals(),
        }
    }

    /// Starts dumping a VCD waveform; byte-identical between backends
    /// for the same stimulus.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink.
    pub fn start_vcd(&mut self, sink: Box<dyn Write + Send + Sync>) -> std::io::Result<()> {
        match self {
            Self::Event(s) => s.start_vcd(sink),
            Self::Levelized(s) => s.start_vcd(sink),
        }
    }

    /// Stops VCD dumping and returns the sink.
    pub fn stop_vcd(&mut self) -> Option<Box<dyn Write + Send + Sync>> {
        match self {
            Self::Event(s) => s.stop_vcd(),
            Self::Levelized(s) => s.stop_vcd(),
        }
    }
}

/// Builds the `vlog-stats/1` report for a simulator: design shape,
/// work performed, and — for the levelized backend — the structure
/// and quiescence counters documented in `docs/OBSERVABILITY.md`.
#[must_use]
pub fn stats_json(sim: &AnySim) -> obs::Json {
    let nl = sim.netlist();
    let cycles = sim.cycles();
    let events = sim.events();
    let per_clock = if cycles == 0 { 0.0 } else { events as f64 / cycles as f64 };
    let mut j = obs::Json::obj()
        .with("schema", "vlog-stats/1")
        .with("backend", sim.backend().name())
        .with("nets", nl.nets.len())
        .with("mems", nl.mems.len())
        .with("comb_nodes", nl.comb.len())
        .with("cycles", cycles)
        .with("events", events)
        .with("evals_per_clock", per_clock);
    if let AnySim::Levelized(s) = sim {
        let st = s.stats();
        j.insert(
            "levelized",
            obs::Json::obj()
                .with("levels", u64::from(st.levels))
                .with("partitions", st.partitions)
                .with("wide_fallbacks", st.wide_fallbacks)
                .with("partitions_evaluated", st.partitions_evaluated)
                .with("partitions_skipped", st.partitions_skipped)
                .with("skip_rate", st.skip_rate()),
        );
    }
    j
}

#[cfg(test)]
mod stats_tests {
    use super::*;
    use crate::ast::{LValue, VBinOp, VExpr, VModule, VStmt};

    fn counter() -> VModule {
        let mut m = VModule::new("c");
        m.add_reg("count", 4);
        m.always_ff(vec![VStmt::NonBlocking {
            lhs: LValue::net("count"),
            rhs: VExpr::binary(VBinOp::Add, VExpr::net("count"), VExpr::const_u64(1, 4)),
        }]);
        m
    }

    #[test]
    fn stats_json_has_schema_and_levelized_block() {
        let m = counter();
        let mut sim = AnySim::elaborate(&m, SimBackend::Levelized).expect("elaborates");
        sim.clock(5).expect("clocks");
        let j = stats_json(&sim);
        assert_eq!(j.get_str("schema"), Some("vlog-stats/1"));
        assert_eq!(j.get_str("backend"), Some("levelized"));
        assert_eq!(j.get_u64("cycles"), Some(5));
        let lv = j.get("levelized").expect("levelized block");
        assert!(lv.get_u64("partitions").is_some());
        assert_eq!(lv.get_u64("wide_fallbacks"), Some(0), "a 4-bit counter runs on the u64 lane");
        assert!(lv.get_f64("skip_rate").is_some());

        let round_trip = obs::Json::parse(&j.to_pretty()).expect("parses");
        assert_eq!(round_trip.get_str("schema"), Some("vlog-stats/1"));
    }

    #[test]
    fn event_backend_has_no_levelized_block() {
        let m = counter();
        let mut sim = AnySim::elaborate(&m, SimBackend::Event).expect("elaborates");
        sim.clock(2).expect("clocks");
        let j = stats_json(&sim);
        assert_eq!(j.get_str("backend"), Some("event"));
        assert!(j.get("levelized").is_none());
    }

    #[test]
    fn backend_parse_round_trips() {
        for b in [SimBackend::Event, SimBackend::Levelized] {
            assert_eq!(SimBackend::parse(b.name()), Some(b));
        }
        assert_eq!(SimBackend::parse("tree"), None);
    }
}
