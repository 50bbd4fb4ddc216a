#![warn(missing_docs)]

//! GENSIM: generates cycle-accurate, bit-true instruction-level
//! simulators (XSIM) from ISDL machine descriptions.
//!
//! This crate is the Rust reproduction of the paper's §3. Where the
//! original GENSIM emits C source that is compiled and linked against a
//! common library, [`Xsim::generate`] builds the same six components
//! (Figure 2) in memory:
//!
//! 1. **User interface & file I/O** — the batch command interpreter in
//!    [`cli`] plus the programmatic API on [`Xsim`];
//! 2. **Scheduler** — instruction sequencing, breakpoints, execution
//!    traces, attached statistics ([`sched`]);
//! 3. **State monitors** — watch hooks on any part of the state
//!    ([`state::Monitor`]);
//! 4. **State** — data structures mirroring the declared storages
//!    ([`state::State`]);
//! 5. **Disassembler** — the signature-matching decoder, run off-line
//!    over the whole program at load time (`xasm::Disassembler`);
//! 6. **Processing core** — operation RTL compiled to bytecode (the
//!    analogue of the generated C), with translated basic blocks on
//!    top ([`XsimOptions::translate`]); RTL wider than 64 bits runs on
//!    the tree-walking executor in [`exec`].
//!
//! Simulators are cycle-accurate (costs, latency-delayed write-back,
//! statically derived stalls) and bit-true ([`bitv::BitVector`]
//! arithmetic throughout) *by construction*.
//!
//! # Examples
//!
//! ```
//! use gensim::{StopReason, Xsim};
//! use xasm::Assembler;
//!
//! let machine = isdl::load(isdl::samples::ACC16)?;
//! let program = Assembler::new(&machine).assemble(
//!     "ldi 7\n addm ten\n sta 0\n halt\n.data\n.org 20\nten: .word 10\n",
//! )?;
//! let mut sim = Xsim::generate(&machine)?;
//! sim.load_program(&program);
//! assert_eq!(sim.run(1_000), StopReason::Halted);
//! let dm = machine.storage_by_name("DM").expect("DM").0;
//! assert_eq!(sim.state().read(dm, 0).to_u64_lossy(), 17);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod bytecode;
pub mod cli;
pub mod exec;
mod hazard;
pub mod report;
pub mod sched;
pub mod state;
mod translate;

pub use report::{
    profile_json, publish_opt_counters, publish_translate_counters, stats_json, trace_json,
    PROFILE_SCHEMA, STATS_SCHEMA, TRACE_SCHEMA,
};
pub use sched::{
    EventTrace, GensimError, Profile, ProfileRow, StallCause, Stats, StopReason, TraceEvent,
    TraceWrite, Xsim, XsimOptions,
};
pub use state::{Monitor, MonitorEvent, State};
pub use translate::TranslateStats;
