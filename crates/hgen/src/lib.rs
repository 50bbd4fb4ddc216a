#![warn(missing_docs)]

//! HGEN: hardware synthesis from ISDL descriptions (§4 of the paper).
//!
//! Given a validated [`isdl::Machine`], HGEN produces a synthesizable
//! Verilog model of an implementation of the instruction set:
//!
//! * **decode logic** generated from the same operation signatures the
//!   disassembler uses — two-level literal ANDs per operation (§4.2);
//! * a **datapath** built from the operations' RTL, with non-terminal
//!   addressing modes expanded into decode-selected muxes;
//! * **resource sharing** by the paper's clique method (Figure 5):
//!   operator instances and memory ports that provably never operate
//!   simultaneously — same field, same non-terminal, or proven apart
//!   by the constraints / `archinfo` hints — collapse into one
//!   functional unit with guarded input muxes;
//! * **structural inference from costs and timing**: operations with
//!   latency *L* > 1 get *L−1* write-back pipeline stages plus a
//!   scoreboard interlock, mirroring the pipeline the paper infers
//!   from `Cycle`/`Stall`/`Latency`.
//!
//! The generated model is *itself a simulator* (the paper's §4.2
//! footnote): elaborate it with [`vlog::sim::NetlistSim`] and clock it
//! to execute programs — that is exactly how Table 1's
//! "synthesizable Verilog" row is produced, and how the test suite
//! proves the hardware bit-matches the XSIM instruction-level
//! simulator.
//!
//! # Examples
//!
//! ```
//! use hgen::{synthesize, HgenOptions};
//!
//! let machine = isdl::load(isdl::samples::ACC16)?;
//! let result = synthesize(&machine, HgenOptions::default())?;
//! assert!(result.verilog.contains("module acc16"));
//! println!(
//!     "cycle {:.1} ns, {} grid cells, {} lines of Verilog",
//!     result.report.cycle_ns, result.report.area_cells as u64, result.lines_of_verilog,
//! );
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod datapath;
pub mod decode;
pub mod emit;
pub mod share;
pub mod synth;
pub mod testbench;

pub use decode::DecodeStyle;
pub use emit::EmitStats;
pub use share::ShareOptions;
pub use synth::{load_program, synthesize, HgenOptions, HgenResult};
pub use testbench::{emit_testbench, TestbenchOptions};
