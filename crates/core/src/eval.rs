//! Candidate evaluation: one pass around the Figure 1 loop.
//!
//! A candidate architecture is evaluated by (1) compiling the workload
//! with the retargetable code generator, (2) running it on the
//! generated XSIM simulator for the cycle count and utilization
//! statistics, and (3) synthesizing the hardware model for the cycle
//! length and physical costs. Runtime = cycles × cycle length; die
//! size and power come from the technology report — exactly the
//! "Evaluation Statistics & Measurements" box of the paper's Figure 1.

use crate::compiler::{compile, CompileError, Kernel};
use crate::fault::FaultPlan;
use crate::watchdog::Deadline;
use gensim::{Stats, StopReason, Xsim};
use hgen::{synthesize, HgenOptions};
use isdl::model::{NtId, OpRef};
use isdl::Machine;
use std::cell::Cell;
use std::collections::HashMap;
use std::fmt;
use std::panic::AssertUnwindSafe;
use std::sync::Once;
use xasm::Assembler;

/// A stage of the evaluation pipeline (the boxes of the paper's
/// Figure 1 loop) — used to attribute panics and to address
/// fault-injection points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Retargetable code generation.
    Compile,
    /// Assembling the generated source.
    Assemble,
    /// Simulator generation (GENSIM).
    Gensim,
    /// Running the kernel on XSIM.
    Simulate,
    /// Hardware synthesis (HGEN).
    Synthesize,
}

impl Stage {
    /// All stages, in pipeline order.
    pub const ALL: [Stage; 5] =
        [Stage::Compile, Stage::Assemble, Stage::Gensim, Stage::Simulate, Stage::Synthesize];

    /// The stable lower-case name (used in journals and messages).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Compile => "compile",
            Self::Assemble => "assemble",
            Self::Gensim => "gensim",
            Self::Simulate => "simulate",
            Self::Synthesize => "synthesize",
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Which simulation budget ran out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BudgetKind {
    /// The cycle budget.
    Cycles,
    /// The retired-instruction fuel budget.
    Instructions,
}

/// Per-kernel simulation budgets: a candidate whose simulator spins
/// (a low-IPC machine, a miscompiled loop) is cut off and reported as
/// [`EvalError::BudgetExhausted`] instead of hanging the exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimBudget {
    /// Maximum cycles per kernel run.
    pub max_cycles: u64,
    /// Maximum retired instructions per kernel run (fuel).
    pub max_instructions: u64,
}

impl Default for SimBudget {
    fn default() -> Self {
        Self { max_cycles: 10_000_000, max_instructions: u64::MAX }
    }
}

/// Everything that parameterizes one evaluation besides the machine
/// and the kernels: synthesis options, budgets, fault injection,
/// profiling, the netlist cross-check, and an optional armed
/// wall-clock [`Deadline`]. Bundled so the evaluation entry points
/// keep a fixed shape as supervision knobs accrete.
#[derive(Debug, Clone, Default)]
pub struct EvalOptions<'a> {
    /// Hardware synthesis options.
    pub hgen: HgenOptions,
    /// Per-kernel simulation budgets.
    pub budget: SimBudget,
    /// Deterministic fault injection (tests only; `None` in
    /// production).
    pub fault: Option<&'a FaultPlan>,
    /// Run each kernel's simulator with cycle attribution enabled.
    pub profile: bool,
    /// Post-synthesis netlist cross-check.
    pub netlist: NetlistCheck,
    /// An armed wall-clock deadline. Checked cooperatively on entry to
    /// every stage and on the simulator fuel path; expiry surfaces as
    /// the transient [`EvalError::DeadlineExceeded`].
    pub deadline: Option<Deadline>,
}

/// Optional post-synthesis netlist cross-check: re-run every kernel on
/// the HGEN-generated netlist and require bit-identical architectural
/// state against the ILS ([`check_netlist`]) — the hw_equivalence
/// invariant, applied to every candidate an exploration evaluates
/// instead of only the fixed test corpus. Off by default because it
/// multiplies evaluation cost by the hardware/ILS cycle ratio; see
/// `docs/SIMULATORS.md` for which backend to pick when turning it on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum NetlistCheck {
    /// No cross-check (the production default).
    #[default]
    Off,
    /// Cross-check with the given netlist backend; a mismatch fails
    /// the candidate with [`EvalError::NetlistMismatch`].
    Run(vlog::SimBackend),
}

/// The ILS-versus-netlist check: loads `program` into `hw`, an
/// elaborated netlist of `machine`'s generated hardware, clocks it, and
/// compares every storage but the program counter and the instruction
/// memory, cell by cell, against `xsim`, the ILS after running the same
/// program to its halt. Data the program does not carry in its `.data`
/// image (a seeded data memory, say) is poked into both models before
/// the call.
///
/// The netlist gets `4 × cycles + 16` rising clock edges, `cycles`
/// being the ILS's count. The margin is for the hardware's extra stall
/// cycles: its scoreboard stalls writers as well as readers and loads
/// each storage's worst latency, so the generated hardware needs up to
/// 1.6× XSIM's count on SPAM's compiled kernels (`dot_product(6)`: 30
/// cycles in XSIM, 48 in hardware). Running past the end
/// is harmless only if the end is state-neutral: the generated hardware
/// ignores `halt`, so programs end in a self-loop (`end: jmp end`).
/// After a `halt` the netlist would run on through the zero (`nop`)
/// words of its instruction memory and, when that memory is no deeper
/// than the budget, wrap back into the program.
///
/// # Errors
///
/// The first differing cell, in declaration order, as
/// `"{storage}[{cell}]: ILS {value}, netlist ({backend}) {value}"`, or
/// the netlist's own error (a memory or net the program needs is
/// missing, a combinational loop does not converge).
pub fn check_netlist(
    machine: &Machine,
    hw: &mut vlog::AnySim,
    program: &xasm::Program,
    xsim: &Xsim<'_>,
) -> Result<(), String> {
    hgen::load_program(machine, hw, program).map_err(|e| e.to_string())?;
    hw.clock(4 * xsim.stats().cycles + 16).map_err(|e| e.to_string())?;
    let backend = hw.backend();
    for (i, s) in machine.storages.iter().enumerate() {
        use isdl::model::StorageKind::{InstructionMemory, ProgramCounter};
        if matches!(s.kind, ProgramCounter | InstructionMemory) {
            continue;
        }
        for a in 0..s.cells() {
            let soft = xsim.state().read(isdl::rtl::StorageId(i), a);
            let peeked =
                if s.kind.is_addressed() { hw.peek_memory(&s.name, a) } else { hw.peek(&s.name) };
            let hard = peeked.map_err(|e| e.to_string())?;
            if *soft != hard {
                return Err(format!("{}[{a}]: ILS {soft}, netlist ({backend}) {hard}", s.name));
            }
        }
    }
    Ok(())
}

/// The merged measurements for one candidate. Every field is
/// determined by the machine and the workload, so evaluations of one
/// candidate compare equal with `==` (HGEN's wall-clock time belongs to
/// Table 2, not here).
#[derive(Debug, Clone, PartialEq)]
pub struct Metrics {
    /// Total cycles over all kernels (including stalls).
    pub cycles: u64,
    /// Instructions executed.
    pub instructions: u64,
    /// Stall cycles included in `cycles`.
    pub stall_cycles: u64,
    /// Achievable cycle length from the hardware model, ns.
    pub cycle_ns: f64,
    /// Workload runtime: `cycles × cycle_ns`, in µs.
    pub runtime_us: f64,
    /// Die size estimate, grid cells.
    pub area_cells: f64,
    /// Dynamic power estimate at the achievable frequency, mW.
    pub power_mw: f64,
    /// Lines of generated Verilog.
    pub lines_of_verilog: usize,
}

impl Metrics {
    /// The metrics as a JSON object (field names match the struct;
    /// used inside the `archex-explore/1` schema).
    #[must_use]
    pub fn to_json(&self) -> obs::Json {
        obs::Json::obj()
            .with("cycles", self.cycles)
            .with("instructions", self.instructions)
            .with("stall_cycles", self.stall_cycles)
            .with("cycle_ns", self.cycle_ns)
            .with("runtime_us", self.runtime_us)
            .with("area_cells", self.area_cells)
            .with("power_mw", self.power_mw)
            .with("lines_of_verilog", self.lines_of_verilog)
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cycles ({} stalls) x {:.1} ns = {:.2} us | {} cells | {:.1} mW",
            self.cycles,
            self.stall_cycles,
            self.cycle_ns,
            self.runtime_us,
            self.area_cells as u64,
            self.power_mw
        )
    }
}

/// One kernel's measured run.
#[derive(Debug, Clone)]
pub struct KernelRun {
    /// Kernel name.
    pub name: String,
    /// Cycle/instruction/stall counters and field utilization.
    pub stats: Stats,
    /// Per-operation execution counts.
    pub op_counts: HashMap<OpRef, u64>,
    /// Static occurrence count of each non-terminal option in the
    /// compiled program (feeds the remove-unused-addressing-mode
    /// mutation).
    pub nt_option_counts: HashMap<(NtId, usize), u64>,
}

/// A full evaluation: metrics plus the raw per-kernel outputs.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// The merged measurements.
    pub metrics: Metrics,
    /// Per-kernel simulator statistics (utilization feeds mutations).
    pub kernel_stats: Vec<KernelRun>,
    /// Compact per-kernel cycle-attribution summary (top regions by
    /// cycles, top stalled PCs with causes), or `Json::Null` when the
    /// evaluation ran unprofiled. Excluded from every `semantic_eq`.
    pub profile: obs::Json,
    /// Per-kernel `vlog-stats/1` blocks from the netlist cross-check,
    /// or `Json::Null` when the check was [`NetlistCheck::Off`].
    /// Observational, like `profile`.
    pub netlist_stats: obs::Json,
}

/// Why a candidate failed evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// The workload does not compile for this candidate.
    Compile(String, CompileError),
    /// Generated assembly failed to assemble (an internal error).
    Assemble(String),
    /// The simulation stopped abnormally (illegal instruction, PC out
    /// of range, execution fault).
    SimulationDiverged(String),
    /// Simulator generation failed (missing PC / instruction memory /
    /// inconsistent encodings).
    Gensim(String),
    /// Hardware synthesis failed.
    Synthesis(String),
    /// A stage of the toolchain panicked; the panic was contained and
    /// the candidate skipped. *Transient*: never cached, because a
    /// panic may be environmental (e.g. a debug assertion tripped by a
    /// build-mode difference) rather than a property of the machine.
    ToolchainPanic {
        /// The pipeline stage that panicked.
        stage: Stage,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// A kernel run exhausted its [`SimBudget`]. *Transient*: a bigger
    /// budget might pass, so the outcome is not cached.
    BudgetExhausted {
        /// The kernel that ran out.
        kernel: String,
        /// Which budget ran out.
        kind: BudgetKind,
    },
    /// The generated netlist disagreed with the ILS on final
    /// architectural state during a [`NetlistCheck`] run — a generator
    /// bug, the worst kind of silent wrong answer.
    NetlistMismatch {
        /// The kernel whose final state diverged.
        kernel: String,
        /// Which storage/cell differed (or why the netlist failed to
        /// elaborate or run).
        message: String,
    },
    /// The evaluation's wall-clock [`Deadline`] expired. *Transient*:
    /// elapsed wall-clock time is a property of this attempt (machine
    /// load, scheduling), not of the candidate, so the outcome is
    /// never cached or journaled — a retry or a later run with a
    /// larger deadline re-evaluates the candidate.
    DeadlineExceeded {
        /// The stage that observed the expiry.
        stage: Stage,
        /// Wall-clock milliseconds elapsed when the expiry was
        /// observed.
        elapsed_ms: u64,
    },
    /// An error replayed from a journal, preserved as its rendered
    /// message (the structured form is not serialized).
    Journaled(String),
}

impl EvalError {
    /// Whether this failure is *transient* — possibly an artifact of
    /// the run (budget too small, environmental panic) rather than a
    /// property of the candidate machine. Transient errors are never
    /// persisted in the [`crate::EvalCache`] or a journal, so a later
    /// run (or a retry with a bigger budget) re-evaluates the
    /// candidate.
    #[must_use]
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            Self::ToolchainPanic { .. }
                | Self::BudgetExhausted { .. }
                | Self::DeadlineExceeded { .. }
        )
    }

    /// The stable per-variant key used by `Trace::error_histogram`
    /// (and the `archex-explore/1` / `bench/1` schemas).
    #[must_use]
    pub fn kind_name(&self) -> &'static str {
        match self {
            Self::Compile(..) => "compile",
            Self::Assemble(_) => "assemble",
            Self::SimulationDiverged(_) => "simulation_diverged",
            Self::Gensim(_) => "gensim",
            Self::Synthesis(_) => "synthesis",
            Self::ToolchainPanic { .. } => "toolchain_panic",
            Self::BudgetExhausted { .. } => "budget_exhausted",
            Self::NetlistMismatch { .. } => "netlist_mismatch",
            Self::DeadlineExceeded { .. } => "deadline_exceeded",
            Self::Journaled(_) => "journaled",
        }
    }
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Compile(k, e) => write!(f, "kernel `{k}` does not compile: {e}"),
            Self::Assemble(e) => write!(f, "assembly failed: {e}"),
            Self::SimulationDiverged(k) => write!(f, "kernel `{k}` did not halt"),
            Self::Gensim(e) => write!(f, "simulator generation failed: {e}"),
            Self::Synthesis(e) => write!(f, "hardware synthesis failed: {e}"),
            Self::ToolchainPanic { stage, message } => {
                write!(f, "toolchain panicked during {stage}: {message}")
            }
            Self::BudgetExhausted { kernel, kind: BudgetKind::Cycles } => {
                write!(f, "kernel `{kernel}` exhausted its cycle budget")
            }
            Self::BudgetExhausted { kernel, kind: BudgetKind::Instructions } => {
                write!(f, "kernel `{kernel}` exhausted its instruction fuel")
            }
            Self::NetlistMismatch { kernel, message } => {
                write!(f, "netlist cross-check failed on kernel `{kernel}`: {message}")
            }
            Self::DeadlineExceeded { stage, elapsed_ms } => {
                write!(f, "wall-clock deadline exceeded during {stage} after {elapsed_ms} ms")
            }
            Self::Journaled(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for EvalError {}

thread_local! {
    /// The pipeline stage the current thread is executing, for panic
    /// attribution.
    static CURRENT_STAGE: Cell<Option<Stage>> = const { Cell::new(None) };
    /// Whether panics on this thread are being contained (suppresses
    /// the default hook's stderr backtrace spam).
    static CONTAINED: Cell<bool> = const { Cell::new(false) };
    /// The flight-dump reference taken by the contained panic hook
    /// while it still had the panic location, handed back to
    /// [`evaluate_contained`] for the diagnostic log event. It is
    /// deliberately *not* embedded in the error message: those messages
    /// feed `Trace::first_error` and the journal, which must stay
    /// byte-identical across thread counts, while dump paths and tails
    /// are scheduling-dependent.
    static PANIC_CAPTURE: Cell<Option<String>> = const { Cell::new(None) };
}

/// Chains a panic hook that stays silent while a panic is being
/// contained on the panicking thread, and defers to the previous hook
/// otherwise. Installed once per process. While containing, the hook
/// is the one place that still sees the panic *location*, so it
/// records the site on the flight ring and takes a dump whose tail
/// names the stage that was executing.
fn install_contained_panic_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if CONTAINED.with(Cell::get) {
                let stage = CURRENT_STAGE.with(Cell::get).map_or("?", Stage::name);
                let location = info.location().map_or_else(String::new, ToString::to_string);
                obs::flight::note(
                    "eval.panic",
                    stage,
                    obs::Json::obj().with("location", location.as_str()),
                );
                PANIC_CAPTURE.with(|c| c.set(Some(obs::flight::capture("toolchain_panic"))));
            } else {
                prev(info);
            }
        }));
    });
}

/// Marks entry into `stage` (for panic attribution and the flight
/// recorder), enforces the wall-clock deadline, and triggers a
/// matching injected fault, if any.
fn enter_stage(stage: Stage, opts: &EvalOptions<'_>, kernel: &str) -> Result<(), EvalError> {
    CURRENT_STAGE.with(|c| c.set(Some(stage)));
    obs::flight::note("eval.stage", stage.name(), obs::Json::obj().with("kernel", kernel));
    if let Some(d) = &opts.deadline {
        if d.expired() {
            // The dump is the diagnostic here — `DeadlineExceeded`
            // carries no message, but the file (when a dump dir is
            // configured) shows what every worker was doing when the
            // clock ran out.
            let _ = obs::flight::capture("deadline_exceeded");
            return Err(EvalError::DeadlineExceeded { stage, elapsed_ms: d.elapsed_ms() });
        }
    }
    match opts.fault {
        Some(f) if f.stage == stage => f.trigger(kernel),
        _ => Ok(()),
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Evaluates `machine` on the given kernels with the default
/// [`SimBudget`] and no fault injection.
///
/// # Errors
///
/// See [`EvalError`]; exploration treats any error as "candidate
/// infeasible".
pub fn evaluate(
    machine: &Machine,
    kernels: &[Kernel],
    hgen_options: HgenOptions,
) -> Result<Evaluation, EvalError> {
    evaluate_with(machine, kernels, &EvalOptions { hgen: hgen_options, ..EvalOptions::default() })
}

/// Evaluates `machine` with panic containment: any panic inside the
/// compile→assemble→simulate→synthesize pipeline is caught and
/// reported as [`EvalError::ToolchainPanic`] naming the stage, so a
/// single broken candidate cannot take down an exploration run.
///
/// # Errors
///
/// See [`EvalError`].
pub fn evaluate_contained(
    machine: &Machine,
    kernels: &[Kernel],
    opts: &EvalOptions<'_>,
) -> Result<Evaluation, EvalError> {
    install_contained_panic_hook();
    CONTAINED.with(|c| c.set(true));
    let outcome =
        std::panic::catch_unwind(AssertUnwindSafe(|| evaluate_with(machine, kernels, opts)));
    CONTAINED.with(|c| c.set(false));
    let stage = CURRENT_STAGE.with(Cell::take);
    match outcome {
        Ok(r) => r,
        Err(payload) => {
            let stage = stage.unwrap_or(Stage::Compile);
            let message = panic_message(payload.as_ref());
            if let Some(note) = PANIC_CAPTURE.with(Cell::take) {
                obs::log::event_with(obs::Level::Warn, "eval.panic", "contained", || {
                    obs::Json::obj()
                        .with("stage", stage.name())
                        .with("message", message.as_str())
                        .with("flight", note.as_str())
                });
            }
            Err(EvalError::ToolchainPanic { stage, message })
        }
    }
}

/// Evaluates `machine` on the given kernels under explicit
/// [`EvalOptions`]: budgets, fault injection, profiling, the netlist
/// cross-check, and an optional wall-clock deadline. Panics are *not*
/// contained here — use [`evaluate_contained`] for that. When
/// `opts.profile` is set each kernel's simulator runs with cycle
/// attribution enabled and the returned [`Evaluation::profile`]
/// carries the compact summary. When `opts.netlist` is
/// [`NetlistCheck::Run`] each kernel is replayed on the generated
/// netlist after synthesis and the final architectural state must
/// match the ILS bit-for-bit.
///
/// # Errors
///
/// See [`EvalError`]; exploration treats any error as "candidate
/// infeasible".
#[allow(clippy::too_many_lines)]
pub fn evaluate_with(
    machine: &Machine,
    kernels: &[Kernel],
    opts: &EvalOptions<'_>,
) -> Result<Evaluation, EvalError> {
    let (hgen_options, budget, profile, netlist) =
        (opts.hgen, opts.budget, opts.profile, opts.netlist);
    let assembler = Assembler::new(machine);
    let mut total = Stats::default();
    let mut kernel_stats = Vec::new();
    let mut kernel_profiles = Vec::new();
    let mut check_runs: Vec<(xasm::Program, Xsim<'_>)> = Vec::new();
    for kernel in kernels {
        enter_stage(Stage::Compile, opts, &kernel.name)?;
        let compiled =
            compile(machine, kernel).map_err(|e| EvalError::Compile(kernel.name.clone(), e))?;
        enter_stage(Stage::Assemble, opts, &kernel.name)?;
        let program =
            assembler.assemble(&compiled.asm).map_err(|e| EvalError::Assemble(e.to_string()))?;
        enter_stage(Stage::Gensim, opts, &kernel.name)?;
        let mut sim = Xsim::generate(machine).map_err(|e| EvalError::Gensim(e.to_string()))?;
        sim.load_program(&program);
        if profile {
            sim.enable_profile();
        }
        if let Some(d) = &opts.deadline {
            sim.set_cancel(d.flag());
        }
        enter_stage(Stage::Simulate, opts, &kernel.name)?;
        match sim.run_fuel(budget.max_cycles, budget.max_instructions) {
            StopReason::Halted => {}
            StopReason::CycleLimit => {
                return Err(EvalError::BudgetExhausted {
                    kernel: kernel.name.clone(),
                    kind: BudgetKind::Cycles,
                });
            }
            StopReason::FuelExhausted => {
                return Err(EvalError::BudgetExhausted {
                    kernel: kernel.name.clone(),
                    kind: BudgetKind::Instructions,
                });
            }
            StopReason::Cancelled => {
                let _ = obs::flight::capture("deadline_exceeded");
                return Err(EvalError::DeadlineExceeded {
                    stage: Stage::Simulate,
                    elapsed_ms: opts.deadline.as_ref().map_or(0, Deadline::elapsed_ms),
                });
            }
            _ => return Err(EvalError::SimulationDiverged(kernel.name.clone())),
        }
        let stats = sim.stats().clone();
        total.cycles += stats.cycles;
        total.instructions += stats.instructions;
        total.stall_cycles += stats.stall_cycles;
        if total.field_busy.len() < stats.field_busy.len() {
            total.field_busy.resize(stats.field_busy.len(), 0);
        }
        for (i, &b) in stats.field_busy.iter().enumerate() {
            total.field_busy[i] += b;
        }
        if profile {
            kernel_profiles.push((kernel.name.clone(), gensim::profile_json(&sim)));
        }
        kernel_stats.push(KernelRun {
            name: kernel.name.clone(),
            op_counts: sim.op_counts(),
            nt_option_counts: sim.nt_option_counts().clone(),
            stats,
        });
        if netlist != NetlistCheck::Off {
            check_runs.push((program, sim));
        }
    }

    enter_stage(Stage::Synthesize, opts, kernels.first().map_or("", |k| k.name.as_str()))?;
    let hw = synthesize(machine, hgen_options).map_err(|e| EvalError::Synthesis(e.to_string()))?;
    let mut netlist_stats = obs::Json::Null;
    if let NetlistCheck::Run(backend) = netlist {
        let mut per_kernel = Vec::new();
        if let Some(first) = kernels.first() {
            // One elaboration per candidate; each kernel checks a copy
            // taken before loading, which shares the compiled program.
            let elaborated =
                hw.simulator(backend).map_err(|e| netlist_mismatch(&first.name, e.to_string()))?;
            for ((program, xsim), kernel) in check_runs.iter().zip(kernels) {
                let mut sim = elaborated.clone();
                check_netlist(machine, &mut sim, program, xsim)
                    .map_err(|message| netlist_mismatch(&kernel.name, message))?;
                per_kernel.push(vlog::stats_json(&sim).with("kernel", kernel.name.as_str()));
            }
        }
        netlist_stats = obs::Json::obj()
            .with("backend", backend.name())
            .with("kernels", obs::Json::Arr(per_kernel));
    }
    let runtime_us = total.cycles as f64 * hw.report.cycle_ns / 1_000.0;
    Ok(Evaluation {
        metrics: Metrics {
            cycles: total.cycles,
            instructions: total.instructions,
            stall_cycles: total.stall_cycles,
            cycle_ns: hw.report.cycle_ns,
            runtime_us,
            area_cells: hw.report.area_cells,
            power_mw: hw.report.power_mw,
            lines_of_verilog: hw.lines_of_verilog,
        },
        kernel_stats,
        profile: if profile { profile_summary(&kernel_profiles) } else { obs::Json::Null },
        netlist_stats,
    })
}

/// The failed netlist check of `kernel`, logged with a flight dump.
fn netlist_mismatch(kernel: &str, message: String) -> EvalError {
    // A generator bug is exactly what the recorder exists for — take a
    // dump and reference it on the log stream. The error message itself
    // stays free of dump paths/tails: mismatch outcomes are cached and
    // journaled, and those bytes must not depend on scheduling.
    let note = obs::flight::capture("netlist_mismatch");
    obs::log::event_with(obs::Level::Error, "eval.netlist", "mismatch", || {
        obs::Json::obj()
            .with("kernel", kernel)
            .with("message", message.as_str())
            .with("flight", note.as_str())
    });
    EvalError::NetlistMismatch { kernel: kernel.to_owned(), message }
}

/// Compresses full `xsim-profile/1` documents into the per-candidate
/// summary an exploration step carries: per kernel, the top 3 regions
/// by cycles and the top 3 stalled PCs (with their causes). Ordering
/// is deterministic — ties keep address order.
fn profile_summary(kernel_profiles: &[(String, obs::Json)]) -> obs::Json {
    use obs::Json;
    let kernels: Vec<Json> = kernel_profiles
        .iter()
        .map(|(name, full)| {
            let mut regions: Vec<&Json> =
                full.get("regions").and_then(Json::as_arr).unwrap_or(&[]).iter().collect();
            regions.sort_by_key(|r| std::cmp::Reverse(r.get_u64("cycles")));
            let top_regions: Vec<Json> = regions
                .into_iter()
                .take(3)
                .map(|r| {
                    Json::obj()
                        .with("name", r.get_str("name").unwrap_or(""))
                        .with("cycles", r.get_u64("cycles").unwrap_or(0))
                        .with("stall_cycles", r.get_u64("stall_cycles").unwrap_or(0))
                })
                .collect();
            let mut stalled: Vec<&Json> = full
                .get("pcs")
                .and_then(Json::as_arr)
                .unwrap_or(&[])
                .iter()
                .filter(|p| p.get_u64("stall_cycles").unwrap_or(0) > 0)
                .collect();
            stalled.sort_by_key(|p| std::cmp::Reverse(p.get_u64("stall_cycles")));
            let top_stall_pcs: Vec<Json> = stalled
                .into_iter()
                .take(3)
                .map(|p| {
                    Json::obj()
                        .with("pc", p.get_u64("pc").unwrap_or(0))
                        .with("stall_cycles", p.get_u64("stall_cycles").unwrap_or(0))
                        .with("stall_cause", p.get("stall_cause").cloned().unwrap_or(Json::Null))
                })
                .collect();
            Json::obj()
                .with("kernel", name.as_str())
                .with("top_regions", Json::Arr(top_regions))
                .with("top_stall_pcs", Json::Arr(top_stall_pcs))
        })
        .collect();
    Json::obj().with("kernels", Json::Arr(kernels))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    #[test]
    fn evaluates_toy_on_dot_product() {
        let m = isdl::load(isdl::samples::TOY).expect("loads");
        let kernels = vec![workloads::dot_product(4)];
        let ev = evaluate(&m, &kernels, HgenOptions::default()).expect("evaluates");
        assert!(ev.metrics.cycles > 10);
        assert!(ev.metrics.cycle_ns > 0.0);
        assert!(ev.metrics.runtime_us > 0.0);
        assert!(ev.metrics.area_cells > 0.0);
        assert_eq!(ev.kernel_stats.len(), 1);
    }

    #[test]
    fn infeasible_candidate_reports_compile_error() {
        // acc16 has no register file, so the workload cannot compile.
        let m = isdl::load(isdl::samples::ACC16).expect("loads");
        let e = evaluate(&m, &[workloads::dot_product(2)], HgenOptions::default())
            .expect_err("should fail");
        assert!(matches!(e, EvalError::Compile(_, _)));
    }

    #[test]
    fn starved_budgets_report_which_limit_tripped() {
        let m = isdl::load(isdl::samples::TOY).expect("loads");
        let kernels = vec![workloads::dot_product(4)];
        let hgen = HgenOptions::default();
        let starved = SimBudget { max_instructions: 3, ..SimBudget::default() };
        let opts = EvalOptions { hgen, budget: starved, ..EvalOptions::default() };
        let e = evaluate_with(&m, &kernels, &opts).expect_err("fuel starved");
        assert!(
            matches!(&e, EvalError::BudgetExhausted { kind: BudgetKind::Instructions, .. }),
            "got {e}"
        );
        assert!(e.is_transient());
        let starved = SimBudget { max_cycles: 3, ..SimBudget::default() };
        let opts = EvalOptions { hgen, budget: starved, ..EvalOptions::default() };
        let e = evaluate_with(&m, &kernels, &opts).expect_err("cycle starved");
        assert!(
            matches!(&e, EvalError::BudgetExhausted { kind: BudgetKind::Cycles, .. }),
            "got {e}"
        );
        // A generous budget changes nothing about the result.
        let ev = evaluate_with(&m, &kernels, &EvalOptions { hgen, ..EvalOptions::default() })
            .expect("default budget is ample");
        assert!(ev.metrics.cycles > 10);
    }

    #[test]
    fn netlist_check_passes_and_carries_vlog_stats() {
        let m = isdl::load(isdl::samples::TOY).expect("loads");
        let kernels = vec![workloads::dot_product(3), workloads::fir(2, 4)];
        let hgen = HgenOptions::default();
        let plain = evaluate_with(&m, &kernels, &EvalOptions { hgen, ..EvalOptions::default() })
            .expect("evaluates");
        for backend in [vlog::SimBackend::Event, vlog::SimBackend::Levelized] {
            let checked = evaluate_with(
                &m,
                &kernels,
                &EvalOptions {
                    hgen,
                    netlist: NetlistCheck::Run(backend),
                    ..EvalOptions::default()
                },
            )
            .expect("cross-check agrees");
            assert_eq!(plain.metrics, checked.metrics, "check is observational");
            assert_eq!(checked.netlist_stats.get_str("backend"), Some(backend.name()));
            let ks = checked
                .netlist_stats
                .get("kernels")
                .and_then(obs::Json::as_arr)
                .expect("per-kernel stats");
            assert_eq!(ks.len(), 2);
            assert_eq!(ks[0].get_str("schema"), Some("vlog-stats/1"));
            assert!(ks[0].get_u64("cycles").unwrap_or(0) > 0);
            // One elaboration serves every kernel; each block reads as
            // a fresh elaboration per kernel would.
            let hw = synthesize(&m, hgen).expect("synthesizes");
            for (block, kernel) in ks.iter().zip(&kernels) {
                let asm = compile(&m, kernel).expect("compiles").asm;
                let program = Assembler::new(&m).assemble(&asm).expect("assembles");
                let mut xsim = Xsim::generate(&m).expect("generates");
                xsim.load_program(&program);
                assert_eq!(xsim.run(1_000_000), StopReason::Halted);
                let mut fresh = hw.simulator(backend).expect("elaborates");
                check_netlist(&m, &mut fresh, &program, &xsim).expect("agrees");
                let want = vlog::stats_json(&fresh).with("kernel", kernel.name.as_str());
                assert_eq!(block.to_pretty(), want.to_pretty(), "{}", kernel.name);
            }
        }
        assert_eq!(plain.netlist_stats, obs::Json::Null);
    }

    #[test]
    fn profiled_evaluation_carries_a_summary_and_changes_nothing_else() {
        let m = isdl::load(isdl::samples::TOY).expect("loads");
        let kernels = vec![workloads::fir(3, 6)];
        let hgen = HgenOptions::default();
        let plain = evaluate_with(&m, &kernels, &EvalOptions { hgen, ..EvalOptions::default() })
            .expect("evaluates");
        let profiled = evaluate_with(
            &m,
            &kernels,
            &EvalOptions { hgen, profile: true, ..EvalOptions::default() },
        )
        .expect("evaluates profiled");
        assert_eq!(plain.metrics, profiled.metrics, "profiling is observational");
        assert_eq!(plain.profile, obs::Json::Null);
        let ks = profiled.profile.get("kernels").and_then(obs::Json::as_arr).expect("kernels");
        assert_eq!(ks.len(), 1);
        assert_eq!(ks[0].get_str("kernel"), Some("fir3x6"));
        let regions = ks[0].get("top_regions").and_then(obs::Json::as_arr).expect("regions");
        assert!(!regions.is_empty());
        let total: u64 = regions.iter().filter_map(|r| r.get_u64("cycles")).sum();
        assert!(total > 0, "top regions attribute real cycles");
    }
}
