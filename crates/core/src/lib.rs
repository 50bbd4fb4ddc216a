#![warn(missing_docs)]

//! Architecture exploration by iterative improvement — the complete
//! Figure 1 loop of the paper.
//!
//! This crate ties the generated tools together into the methodology
//! the paper proposes:
//!
//! 1. an application (a [`compiler::Kernel`]) is compiled for the
//!    candidate by the small retargetable code generator
//!    ([`compiler`]), which matches abstract operations to the
//!    candidate's ISDL operations by semantic fingerprinting;
//! 2. the program runs on the GENSIM-generated XSIM simulator for
//!    cycle counts and utilization statistics;
//! 3. the HGEN-generated hardware model supplies the cycle length,
//!    die size, and power ([`eval`]);
//! 4. the explorer ([`explore`]) derives improvement mutations from
//!    the measurements — removing unused operations and fields, adding
//!    constraints that unlock resource sharing — and iterates until no
//!    candidate improves the objective.
//!
//! A run can stream an `archex-journal/2` checkpoint journal
//! ([`journal`]) and resume from any prefix of it. Every evaluation
//! metric is deterministic, so a run's journal is byte-identical at
//! every thread count.
//!
//! # Examples
//!
//! ```
//! use archex::explore::Explorer;
//! use archex::workloads;
//!
//! let start = isdl::load(isdl::samples::TOY)?;
//! let kernels = vec![workloads::dot_product(2)];
//! let explorer = Explorer { max_steps: 2, ..Explorer::default() };
//! let trace = explorer.run(&start, &kernels)?;
//! assert!(!trace.steps.is_empty());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod compiler;
pub mod eval;
pub mod explore;
pub mod fault;
pub mod journal;
pub mod watchdog;
pub mod workloads;

pub use compiler::{compile, AOp, Capabilities, CompileError, Compiled, Kernel, VReg};
pub use eval::{
    check_netlist, evaluate, evaluate_contained, evaluate_with, BudgetKind, EvalError, EvalOptions,
    Evaluation, Metrics, NetlistCheck, SimBudget, Stage,
};
pub use explore::{
    apply_mutation, chrome_trace, EvalCache, ExploreObs, Explorer, FrontierRound, Mutation,
    Objective, Progress, ProgressSink, RetryPolicy, SpanRec, Step, Strategy, Trace, EXPLORE_SCHEMA,
    PROGRESS_SCHEMA,
};
pub use fault::{FaultKind, FaultPlan};
pub use journal::{compact, JournalError, SyncFile, JOURNAL_SCHEMA};
pub use watchdog::Deadline;
