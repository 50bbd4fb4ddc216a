//! The XSIM scheduler: sequences instructions, manages breakpoints,
//! dumps execution traces, and accounts cycles (§3.2 item 2).
//!
//! # Cycle model
//!
//! For each executed instruction at cycle *T*:
//!
//! 1. the statically computed stall for its address is charged
//!    (*T += stall*) — ISDL has no explicit pipeline, so stalls are
//!    derived from the static instruction stream (§3.3.3);
//! 2. staged writes whose latency has expired are committed;
//! 3. the *action* RTL of every selected operation executes against
//!    the committed state (reads see cycle-start state);
//! 4. the *side-effect* RTL executes in the same cycle, also against
//!    cycle-start state (descriptions recompute any value they need,
//!    which keeps the simulator bit-identical to the generated
//!    hardware); the paper's "side effects take place after actions"
//!    is honoured in the *write* order — a side-effect write to a cell
//!    an action also wrote wins;
//! 5. all writes are staged with visibility *T + latency*;
//! 6. *T* advances by the instruction's cycle cost (the maximum over
//!    the selected operations);
//! 7. the PC advances by the instruction size unless some operation
//!    wrote it.
//!
//! # Halting
//!
//! Execution stops on: an operation named `halt`; a taken branch to the
//! instruction's own address (the `end: jmp end` idiom); the PC leaving
//! instruction memory; an illegal instruction; a breakpoint; or the
//! caller's cycle budget.

use crate::bytecode::{self, Compiled, Phase};
use crate::exec::{binding_from_operand, Binding, StagedWrite};
use crate::hazard;
use crate::state::State;
use crate::translate::{Block, BlockCache, BlockInstr, TranslateStats};
use bitv::BitVector;
use isdl::model::{Machine, NtId, OpRef};
use isdl::rtl::StorageId;
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::rc::Rc;
use xasm::{DecodedInstr, Disassembler, Operand, Program};

/// Options controlling simulator generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XsimOptions {
    /// RTL middle-end level ([`isdl::opt`]); the bytecode compiler runs
    /// operation RTL through the shared optimizer before lowering it.
    /// Results are bit-identical at every level; `OptLevel::None` is
    /// the differential baseline.
    pub opt: isdl::opt::OptLevel,
    /// Explicit middle-end pass schedule (`--opt-passes=fold,dead,...`)
    /// overriding the canonical schedule `opt` selects. `None` — the
    /// default — runs the level's schedule.
    pub passes: Option<isdl::opt::PassList>,
    /// Enable the translated basic-block tier: straight-line μ-op
    /// traces keyed by PC, fused once at translation time and
    /// dispatched directly (the specialized/translated simulation step
    /// past the paper's per-instruction compiled core). Only engages
    /// with no breakpoints set and a PC wide enough to address all of
    /// instruction memory; results are bit-identical to the
    /// per-instruction bytecode interpreter it replaces.
    pub translate: bool,
}

impl Default for XsimOptions {
    fn default() -> Self {
        Self { opt: isdl::opt::OptLevel::default(), passes: None, translate: true }
    }
}

impl XsimOptions {
    /// The middle-end pipeline these options select: the explicit pass
    /// schedule when one is given, otherwise the canonical schedule
    /// for the level.
    #[must_use]
    pub fn pipeline(&self) -> isdl::opt::Pipeline {
        match self.passes {
            Some(list) => isdl::opt::Pipeline::with_passes(self.opt, list),
            None => isdl::opt::Pipeline::for_level(self.opt),
        }
    }
}

/// Why a run stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StopReason {
    /// An operation named `halt` executed, or a branch jumped to its
    /// own instruction.
    Halted,
    /// The PC reached a breakpoint.
    Breakpoint(u64),
    /// The cycle budget was exhausted.
    CycleLimit,
    /// The retired-instruction fuel budget was exhausted.
    FuelExhausted,
    /// No operation signature matched the fetched word(s).
    IllegalInstruction(u64),
    /// The PC left instruction memory.
    PcOutOfRange(u64),
    /// RTL execution faulted at `addr` (malformed operand bindings —
    /// see [`crate::exec::ExecError`]). The instruction's writes are
    /// discarded; nothing commits.
    ExecFault {
        /// Address of the faulting instruction.
        addr: u64,
        /// The rendered [`crate::exec::ExecError`] diagnostic.
        message: String,
    },
    /// A cooperative cancellation flag ([`Xsim::set_cancel`]) was
    /// raised — typically by a wall-clock deadline watchdog. The run
    /// stops on an instruction boundary; nothing half-commits, and the
    /// run can be resumed like any other fuel stop.
    Cancelled,
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Halted => write!(f, "halted"),
            Self::Breakpoint(a) => write!(f, "breakpoint at {a:#x}"),
            Self::CycleLimit => write!(f, "cycle limit reached"),
            Self::FuelExhausted => write!(f, "instruction fuel exhausted"),
            Self::IllegalInstruction(a) => write!(f, "illegal instruction at {a:#x}"),
            Self::PcOutOfRange(a) => write!(f, "PC out of range at {a:#x}"),
            Self::ExecFault { addr, message } => {
                write!(f, "execution fault at {addr:#x}: {message}")
            }
            Self::Cancelled => write!(f, "cancelled"),
        }
    }
}

/// Error generating a simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GensimError {
    /// The machine declares no program counter.
    MissingPc,
    /// The machine declares no instruction memory.
    MissingImem,
    /// The decoder could not be built from the machine's encodings
    /// (inconsistent signature widths — see `xasm::DisasmError`).
    Decoder(String),
}

impl fmt::Display for GensimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::MissingPc => write!(f, "machine has no program-counter storage"),
            Self::MissingImem => write!(f, "machine has no instruction memory"),
            Self::Decoder(m) => write!(f, "cannot build decoder: {m}"),
        }
    }
}

impl std::error::Error for GensimError {}

/// Execution statistics and utilization measurements.
///
/// Per-operation execution counts live on [`Xsim::op_counts`] (they
/// are kept in flat arrays on the simulator's hot path).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Stats {
    /// Total cycles, including stalls.
    pub cycles: u64,
    /// Instructions executed.
    pub instructions: u64,
    /// Stall cycles included in `cycles`.
    pub stall_cycles: u64,
    /// Per field: instructions in which the field executed a non-nop.
    pub field_busy: Vec<u64>,
}

impl Stats {
    /// Fraction of instructions in which field `f` did useful work.
    #[must_use]
    pub fn field_utilization(&self, f: usize) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.field_busy.get(f).copied().unwrap_or(0) as f64 / self.instructions as f64
        }
    }

    /// Instructions retired per cycle (0 when nothing ran). Stall
    /// cycles are included in the denominator, so IPC degrades exactly
    /// as hazards accumulate.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }
}

/// One architectural write captured by the event trace (committed to
/// state `latency` cycles after the event's cycle).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceWrite {
    /// Target storage.
    pub storage: StorageId,
    /// Cell index (0 for non-addressed storage).
    pub index: u64,
    /// The staged value, bit-true at the storage's width.
    pub value: BitVector,
}

/// One executed instruction captured by the event trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Cycle at which the instruction executed (stalls already
    /// charged).
    pub cycle: u64,
    /// Its address.
    pub pc: u64,
    /// The operation selected in each field, in field order.
    pub ops: Vec<OpRef>,
    /// Register/memory writes staged by the instruction, in commit
    /// order (action writes, then side-effect writes).
    pub writes: Vec<TraceWrite>,
}

/// A bounded ring buffer of [`TraceEvent`]s (§3.2's execution traces,
/// upgraded from bare addresses to full retire records).
///
/// When full, the oldest event is evicted and counted in
/// [`EventTrace::dropped`] — a long run keeps the *tail* of the
/// execution, which is where crashes and divergences live. Recording
/// costs nothing when disabled: the simulator holds `Option<EventTrace>`
/// and the hot loop checks one discriminant.
#[derive(Debug, Clone, Default)]
pub struct EventTrace {
    capacity: usize,
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

impl EventTrace {
    /// An empty trace bounded at `capacity` events (min 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self { capacity, events: VecDeque::with_capacity(capacity), dropped: 0 }
    }

    /// Maximum retained events.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events evicted because the buffer was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Number of retained events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    fn push(&mut self, e: TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(e);
    }
}

/// Why the static stall pass charged an instruction stall cycles: the
/// binding (worst) hazard, attributed to the storage or functional unit
/// the consumer waited on and to the producing instruction's address.
///
/// Ties between equal stalls keep the first cause found (data hazards
/// before usage hazards, program order within each), so attribution is
/// deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallCause {
    /// The instruction read a cell whose producing write (latency > 1)
    /// was not yet visible.
    Data {
        /// The storage the consumer waited on.
        storage: StorageId,
        /// Address of the producing instruction.
        producer_pc: u64,
    },
    /// The instruction needed a functional unit (field) still occupied
    /// by an earlier operation's `usage` window.
    Usage {
        /// Index of the occupied field in `machine.fields`.
        field: usize,
        /// Address of the occupying instruction.
        producer_pc: u64,
    },
}

/// Per-PC cycle attribution: how often the instruction at one address
/// issued and how many cycles (split into stall and execute) it was
/// charged. All counters are derived from the same simulated quantities
/// [`Stats`] accumulates, so summing rows reproduces the machine-wide
/// totals exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProfileRow {
    /// Times the instruction at this address issued.
    pub issues: u64,
    /// Total cycles charged here (stall + execute).
    pub cycles: u64,
    /// Stall cycles included in `cycles`.
    pub stall_cycles: u64,
}

/// The cycle-attribution profile: one [`ProfileRow`] per instruction
/// address, recorded by [`Xsim::step`] when profiling is enabled via
/// [`Xsim::enable_profile`].
///
/// Recording is a handful of integer adds behind one `Option`
/// discriminant check — when profiling is off the hot loop pays one
/// branch and reads no clocks (the PR 2 overhead contract).
#[derive(Debug, Clone, Default)]
pub struct Profile {
    rows: Vec<ProfileRow>,
}

impl Profile {
    fn new(depth: usize) -> Self {
        Self { rows: vec![ProfileRow::default(); depth] }
    }

    /// The per-address rows, indexed by instruction address.
    #[must_use]
    pub fn rows(&self) -> &[ProfileRow] {
        &self.rows
    }

    fn record(&mut self, pc: u64, stall: u32, cycle_cost: u32) {
        if let Some(r) = self.rows.get_mut(pc as usize) {
            r.issues += 1;
            r.cycles += u64::from(stall) + u64::from(cycle_cost);
            r.stall_cycles += u64::from(stall);
        }
    }

    /// A faulting instruction charges its stall (already added to
    /// [`Stats`]) but neither issues nor costs execute cycles.
    fn record_stall_only(&mut self, pc: u64, stall: u32) {
        if let Some(r) = self.rows.get_mut(pc as usize) {
            r.cycles += u64::from(stall);
            r.stall_cycles += u64::from(stall);
        }
    }
}

/// A prepared execution plan for one field slot of an instruction:
/// compiled phases plus the flattened token operands.
#[derive(Debug)]
pub(crate) struct Plan {
    pub(crate) action: Rc<Compiled>,
    /// `None` when the operation has no side effects.
    pub(crate) side_effects: Option<Rc<Compiled>>,
    pub(crate) params: Vec<u64>,
}

/// Adds one to `counts[(nt, option)]` for the non-terminal option `arg`
/// selects, and for every option nested inside it.
fn count_nt_options(arg: &Operand, counts: &mut HashMap<(NtId, usize), u64>) {
    if let Operand::NonTerminal { nt, option, args } = arg {
        *counts.entry((*nt, *option)).or_insert(0) += 1;
        for a in args {
            count_nt_options(a, counts);
        }
    }
}

/// One pre-decoded instruction, ready to execute.
#[derive(Debug)]
pub(crate) struct DecodedEntry {
    pub instr: DecodedInstr,
    pub bindings: Vec<Vec<Binding>>,
    /// Compiled execution plans, parallel to `instr.ops`.
    pub(crate) plans: Vec<Plan>,
    pub cycle_cost: u32,
    pub stall: u32,
    /// Why the static pass charged `stall` (None when `stall == 0`).
    pub stall_cause: Option<StallCause>,
    /// Whether any selected operation is named `halt`.
    pub halts: bool,
}

impl DecodedEntry {
    /// Every compiled phase with the index of its field slot, in the
    /// order the instruction stages its writes: each slot's action,
    /// then each slot's side effects.
    pub(crate) fn phases(&self) -> impl Iterator<Item = (usize, &Compiled)> {
        let actions = self.plans.iter().map(|p| Some(&*p.action));
        let side_effects = self.plans.iter().map(|p| p.side_effects.as_deref());
        actions.enumerate().chain(side_effects.enumerate()).filter_map(|(i, c)| Some((i, c?)))
    }
}

/// A generated cycle-accurate, bit-true instruction-level simulator.
///
/// Created by [`Xsim::generate`] from a validated machine — the Rust
/// analogue of GENSIM emitting, compiling, and linking the C simulator
/// sources.
pub struct Xsim<'m> {
    machine: &'m Machine,
    disasm: Disassembler<'m>,
    options: XsimOptions,
    /// The middle-end schedule the bytecode compiler feeds RTL through,
    /// resolved once from the options at generation time.
    pipeline: isdl::opt::Pipeline,
    state: State,
    pc_id: StorageId,
    imem_id: StorageId,
    decoded: Vec<Option<Rc<DecodedEntry>>>,
    /// Static occurrences of each non-terminal option `(nt, option)` in
    /// the instructions the off-line pass decoded at load time.
    nt_options: HashMap<(NtId, usize), u64>,
    bytecode: crate::bytecode::Cache,
    /// Translated basic-block cache (the fused dispatch tier).
    blocks: BlockCache,
    /// Scratch for precise invalidation: the imem cell indices written
    /// by the commits of the current call.
    imem_dirty: Vec<u64>,
    /// Instructions retired through fused block dispatch (the rest
    /// went through the interpreter).
    block_instructions: u64,
    /// Reused scratch buffers for the hot execute loop: bytecode
    /// registers, and one instruction's staged writes.
    scratch_regs: Vec<u64>,
    write_buf: Vec<StagedWrite>,
    /// Flat per-(field, op) execution counters; folded into
    /// `stats.op_counts` lazily by [`Xsim::stats`].
    op_counts: Vec<Vec<u64>>,
    stats: Stats,
    /// Middle-end counters accumulated over every phase optimized for
    /// this simulator.
    opt_stats: isdl::opt::OptStats,
    /// Prepared plans whose RTL exceeded the u64 bytecode lanes and
    /// fell back to tree interpretation.
    wide_fallbacks: u64,
    breakpoints: HashSet<u64>,
    events: Option<EventTrace>,
    /// Streaming event sink (never drops); fed alongside the ring.
    event_sink: Option<Box<dyn obs::TraceSink>>,
    /// Per-PC cycle attribution, when enabled.
    profile: Option<Box<Profile>>,
    /// Code-section labels of the loaded program, sorted by address —
    /// the region table the profile report aggregates over.
    regions: Vec<(u64, String)>,
    /// Cooperative cancellation flag, checked on every fuel-path
    /// iteration (interpreter steps and translated block heads). Set
    /// by an external watchdog; `None` costs one branch per check.
    cancel: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
    halted: bool,
}

impl fmt::Debug for Xsim<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Xsim")
            .field("machine", &self.machine.name)
            .field("options", &self.options)
            .field("cycles", &self.stats.cycles)
            .finish_non_exhaustive()
    }
}

impl<'m> Xsim<'m> {
    /// Generates a simulator for `machine` with default options.
    ///
    /// # Errors
    ///
    /// [`GensimError::MissingPc`] / [`GensimError::MissingImem`] if the
    /// description lacks the storages simulation needs.
    pub fn generate(machine: &'m Machine) -> Result<Self, GensimError> {
        Self::generate_with(machine, XsimOptions::default())
    }

    /// Generates a simulator with explicit [`XsimOptions`].
    ///
    /// # Errors
    ///
    /// Same as [`Xsim::generate`].
    pub fn generate_with(machine: &'m Machine, options: XsimOptions) -> Result<Self, GensimError> {
        let pc_id = machine.pc.ok_or(GensimError::MissingPc)?;
        let imem_id = machine.imem.ok_or(GensimError::MissingImem)?;
        let depth = machine.storage(imem_id).cells() as usize;
        let disasm =
            Disassembler::try_new(machine).map_err(|e| GensimError::Decoder(e.to_string()))?;
        Ok(Self {
            machine,
            disasm,
            pipeline: options.pipeline(),
            options,
            state: State::new(machine),
            pc_id,
            imem_id,
            decoded: vec![None; depth],
            nt_options: HashMap::new(),
            bytecode: crate::bytecode::Cache::new(),
            blocks: BlockCache::default(),
            imem_dirty: Vec::new(),
            block_instructions: 0,
            scratch_regs: Vec::new(),
            write_buf: Vec::new(),
            op_counts: machine.fields.iter().map(|f| vec![0; f.ops.len()]).collect(),
            stats: Stats { field_busy: vec![0; machine.fields.len()], ..Stats::default() },
            opt_stats: isdl::opt::OptStats::default(),
            wide_fallbacks: 0,
            breakpoints: HashSet::new(),
            events: None,
            event_sink: None,
            profile: None,
            regions: Vec::new(),
            cancel: None,
            halted: false,
        })
    }

    /// Installs a cooperative cancellation flag. When some other
    /// thread (a deadline watchdog, a signal handler) stores `true`,
    /// the next fuel-path check returns [`StopReason::Cancelled`] on a
    /// clean instruction boundary. Pass the same flag to many
    /// simulators to cancel them together.
    pub fn set_cancel(&mut self, flag: std::sync::Arc<std::sync::atomic::AtomicBool>) {
        self.cancel = Some(flag);
    }

    /// True when the installed cancellation flag (if any) is raised.
    #[inline]
    fn cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(|c| c.load(std::sync::atomic::Ordering::Relaxed))
    }

    /// The options this simulator was generated with.
    #[must_use]
    pub fn options(&self) -> &XsimOptions {
        &self.options
    }

    /// The machine this simulator was generated from.
    #[must_use]
    pub fn machine(&self) -> &'m Machine {
        self.machine
    }

    /// Read access to the architectural state.
    #[must_use]
    pub fn state(&self) -> &State {
        &self.state
    }

    /// Mutable access to the architectural state (for test setup and
    /// the interactive `set` command).
    pub fn state_mut(&mut self) -> &mut State {
        &mut self.state
    }

    /// Execution statistics so far.
    #[must_use]
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// RTL middle-end counters accumulated so far (one entry per
    /// optimized operation phase; see [`isdl::opt::OptStats`]).
    #[must_use]
    pub fn opt_stats(&self) -> &isdl::opt::OptStats {
        &self.opt_stats
    }

    /// The resolved middle-end pipeline this simulator feeds RTL
    /// through (level plus printable schedule).
    #[must_use]
    pub fn pipeline(&self) -> &isdl::opt::Pipeline {
        &self.pipeline
    }

    /// Number of prepared bytecode plans that fell back to tree
    /// interpretation because a value exceeded 64 bits. Width
    /// narrowing exists to drive this to zero.
    #[must_use]
    pub fn wide_fallbacks(&self) -> u64 {
        self.wide_fallbacks
    }

    /// Translation-tier statistics: whether the translated dispatch is
    /// engaged for the current options, the block-cache counters, and
    /// the dispatch mix (fused vs interpreted retires).
    #[must_use]
    pub fn translate_stats(&self) -> TranslateStats {
        TranslateStats {
            enabled: self.translation_active(),
            blocks: self.blocks.blocks_translated,
            invalidations: self.blocks.invalidations,
            block_instructions: self.block_instructions,
            interp_instructions: self.stats.instructions - self.block_instructions,
            fused_ops_removed: self.blocks.fused_ops_removed,
        }
    }

    /// Whether [`Xsim::run_fuel`] will dispatch through translated
    /// blocks. Translation needs no breakpoints (blocks retire several
    /// instructions per dispatch) and a PC that can address every imem
    /// word (a truncating PC falls back to the interpreter's per-step
    /// wrap semantics).
    fn translation_active(&self) -> bool {
        if !self.options.translate || !self.breakpoints.is_empty() {
            return false;
        }
        let pc_w = self.machine.storage(self.pc_id).width;
        let depth = self.state.depth(self.imem_id);
        pc_w >= 64 || depth <= (1u64 << pc_w)
    }

    /// Execution count per operation — the utilization statistics the
    /// exploration loop feeds on.
    #[must_use]
    pub fn op_counts(&self) -> HashMap<OpRef, u64> {
        let mut out = HashMap::new();
        for (fi, field) in self.op_counts.iter().enumerate() {
            for (oi, &n) in field.iter().enumerate() {
                if n > 0 {
                    out.insert(OpRef { field: isdl::model::FieldId(fi), op: oi }, n);
                }
            }
        }
        out
    }

    /// The current program counter.
    #[must_use]
    pub fn pc(&self) -> u64 {
        self.state.read(self.pc_id, 0).to_u64_lossy()
    }

    /// Sets the program counter.
    pub fn set_pc(&mut self, pc: u64) {
        let w = self.machine.storage(self.pc_id).width;
        self.state.poke(self.pc_id, 0, BitVector::from_u64(pc, w));
    }

    /// Adds a breakpoint at a word address. Returns whether it was new.
    pub fn add_breakpoint(&mut self, addr: u64) -> bool {
        self.breakpoints.insert(addr)
    }

    /// Removes a breakpoint. Returns whether it existed.
    pub fn remove_breakpoint(&mut self, addr: u64) -> bool {
        self.breakpoints.remove(&addr)
    }

    /// Starts recording a bounded event trace: every executed
    /// instruction's cycle, pc, selected operations, and staged
    /// register/memory writes, in a ring buffer of `capacity` events
    /// (oldest evicted first). Replaces any previous event trace.
    pub fn enable_event_trace(&mut self, capacity: usize) {
        self.events = Some(EventTrace::new(capacity));
    }

    /// The event trace recorded so far, if enabled.
    #[must_use]
    pub fn event_trace(&self) -> Option<&EventTrace> {
        self.events.as_ref()
    }

    /// Streams every executed instruction's retire record (the same
    /// JSON object `xsim-trace/1` carries per event) to `sink` as it
    /// happens. Unlike the bounded ring, a streaming sink never drops
    /// events. Replaces any previous sink; coexists with the ring.
    pub fn set_event_sink(&mut self, sink: Box<dyn obs::TraceSink>) {
        self.event_sink = Some(sink);
    }

    /// Stops streaming and returns the sink (flush it before use).
    pub fn take_event_sink(&mut self) -> Option<Box<dyn obs::TraceSink>> {
        self.event_sink.take()
    }

    /// Starts recording the per-PC cycle-attribution profile (issue
    /// counts, cycles, stall cycles per instruction address). Replaces
    /// any previous profile. Disabled profiling costs the hot loop one
    /// branch and zero clock reads.
    pub fn enable_profile(&mut self) {
        let depth = self.state.depth(self.imem_id) as usize;
        self.profile = Some(Box::new(Profile::new(depth)));
    }

    /// The profile recorded so far, if enabled.
    #[must_use]
    pub fn profile(&self) -> Option<&Profile> {
        self.profile.as_deref()
    }

    /// Code-section labels of the loaded program (address-sorted) —
    /// the region boundaries the profile report aggregates over.
    pub(crate) fn regions(&self) -> &[(u64, String)] {
        &self.regions
    }

    /// The decoded entry cached for `addr`, if any.
    pub(crate) fn decoded_entry(&self, addr: u64) -> Option<&Rc<DecodedEntry>> {
        self.decoded.get(addr as usize)?.as_ref()
    }

    /// How often each non-terminal option `(nt, option)` occurs in the
    /// loaded program: the static count over the instructions the
    /// off-line pass decoded at load time, walking sequentially from
    /// address 0. Instructions decoded later, at run time, do not
    /// change it.
    #[must_use]
    pub fn nt_option_counts(&self) -> &HashMap<(NtId, usize), u64> {
        &self.nt_options
    }

    /// Flat per-(field, op) execution counts, indexed `[field][op]` —
    /// the raw table behind [`Xsim::op_counts`], used by the stats
    /// report.
    pub(crate) fn op_count_table(&self) -> &[Vec<u64>] {
        &self.op_counts
    }

    /// Loads an assembled program: writes its words into instruction
    /// memory and its `.data` image into data memory, runs the off-line
    /// disassembly pass, computes static stalls, and sets the PC to the
    /// program entry.
    pub fn load_program(&mut self, program: &Program) {
        self.load_words(&program.words);
        if let Some((dm, st)) = self
            .machine
            .storages
            .iter()
            .enumerate()
            .find(|(_, s)| s.kind == isdl::model::StorageKind::DataMemory)
        {
            let width = st.width;
            for &(addr, v) in &program.data {
                self.state.poke(StorageId(dm), addr, BitVector::from_i64(v, width));
            }
        }
        self.regions = program.code_labels.clone();
        self.set_pc(program.entry);
    }

    /// Loads raw instruction words starting at address 0.
    pub fn load_words(&mut self, words: &[BitVector]) {
        self.regions.clear();
        let w = self.machine.word_width;
        let depth = self.state.depth(self.imem_id);
        for (a, word) in words.iter().enumerate().take(depth as usize) {
            self.state.poke(self.imem_id, a as u64, word.trunc(w).zext(w));
        }
        self.decoded = vec![None; depth as usize];
        self.blocks.clear();
        self.decode_program(words.len() as u64);
        self.set_pc(0);
        self.halted = false;
    }

    /// Decodes every address reachable by sequential layout, then
    /// computes static stalls (illegal words — e.g. data — stay
    /// undecoded and are skipped for stall purposes).
    ///
    /// Entries are built unshared, annotated with their stall and its
    /// cause, and only then wrapped in `Rc` — there is no aliased
    /// mutation and no panicking `Rc::get_mut` path.
    fn decode_program(&mut self, len: u64) {
        let mut plain: Vec<Option<DecodedEntry>> = Vec::with_capacity(self.decoded.len());
        plain.resize_with(self.decoded.len(), || None);
        let mut addr = 0u64;
        while addr < len {
            match self.decode_instr(addr) {
                Some(instr) => {
                    let entry = self.build_entry(instr);
                    let size = u64::from(entry.instr.size);
                    plain[addr as usize] = Some(entry);
                    addr += size;
                }
                None => {
                    addr += 1;
                }
            }
        }
        for (addr, stall, cause) in hazard::compute_static_stalls(self.machine, &plain) {
            if let Some(e) = plain[addr as usize].as_mut() {
                e.stall = stall;
                e.stall_cause = Some(cause);
            }
        }
        self.nt_options.clear();
        for e in plain.iter().flatten() {
            for arg in e.instr.ops.iter().flat_map(|op| &op.args) {
                count_nt_options(arg, &mut self.nt_options);
            }
        }
        for (i, e) in plain.into_iter().enumerate() {
            if let Some(e) = e {
                self.decoded[i] = Some(Rc::new(e));
            }
        }
    }

    /// Decodes the raw instruction at `addr` (no execution plans).
    pub(crate) fn decode_instr(&self, addr: u64) -> Option<DecodedInstr> {
        let depth = self.state.depth(self.imem_id);
        if addr >= depth {
            return None;
        }
        let max = u64::from(self.disasm.max_size());
        let mut words = Vec::with_capacity(max as usize);
        for k in 0..max {
            if addr + k < depth {
                words.push(self.state.read(self.imem_id, addr + k).clone());
            }
        }
        self.disasm.decode(&words, addr).ok()
    }

    fn build_entry(&mut self, instr: DecodedInstr) -> DecodedEntry {
        let bindings: Vec<Vec<Binding>> =
            instr.ops.iter().map(|d| d.args.iter().map(binding_from_operand).collect()).collect();
        let cycle_cost =
            instr.ops.iter().map(|d| self.machine.op(d.op).costs.cycle).max().unwrap_or(1);
        let halts = instr.ops.iter().any(|d| self.machine.op(d.op).name == "halt");
        let mut plans = Vec::with_capacity(instr.ops.len());
        for (d, b) in instr.ops.iter().zip(&bindings) {
            let op = self.machine.op(d.op);
            let action = self.bytecode.prepare(
                self.machine,
                d.op,
                Phase::Action,
                b,
                &self.pipeline,
                &mut self.opt_stats,
            );
            let side_effects = if op.side_effects.is_empty() {
                None
            } else {
                Some(self.bytecode.prepare(
                    self.machine,
                    d.op,
                    Phase::SideEffects,
                    b,
                    &self.pipeline,
                    &mut self.opt_stats,
                ))
            };
            self.wide_fallbacks += u64::from(matches!(*action, Compiled::Wide(_)));
            self.wide_fallbacks +=
                u64::from(matches!(side_effects.as_deref(), Some(Compiled::Wide(_))));
            plans.push(Plan { action, side_effects, params: bytecode::flatten_params(b) });
        }
        DecodedEntry { instr, bindings, plans, cycle_cost, stall: 0, stall_cause: None, halts }
    }

    /// Runs until a stop condition, executing at most `max_cycles`
    /// additional cycles (no instruction fuel limit).
    pub fn run(&mut self, max_cycles: u64) -> StopReason {
        self.run_fuel(max_cycles, u64::MAX)
    }

    /// Runs until a stop condition, executing at most `max_cycles`
    /// additional cycles and retiring at most `max_instructions`
    /// additional instructions — the *fuel budget* that keeps a
    /// looping kernel from spinning forever (a low-IPC machine can
    /// burn a large cycle budget very slowly; fuel bounds work done,
    /// not time charged).
    pub fn run_fuel(&mut self, max_cycles: u64, max_instructions: u64) -> StopReason {
        let budget_end = self.stats.cycles.saturating_add(max_cycles);
        let fuel_end = self.stats.instructions.saturating_add(max_instructions);
        if self.translation_active() {
            return self.run_translated(budget_end, fuel_end);
        }
        let mut first = true;
        loop {
            if self.halted {
                return StopReason::Halted;
            }
            if self.stats.cycles >= budget_end {
                return StopReason::CycleLimit;
            }
            if self.stats.instructions >= fuel_end {
                return StopReason::FuelExhausted;
            }
            if self.cancelled() {
                return StopReason::Cancelled;
            }
            if !self.breakpoints.is_empty() {
                let pc = self.pc();
                if !first && self.breakpoints.contains(&pc) {
                    return StopReason::Breakpoint(pc);
                }
            }
            first = false;
            if let Some(stop) = self.step() {
                return stop;
            }
        }
    }

    /// Commits writes due at `cycle`. A committed write that landed in
    /// instruction memory *precisely* invalidates the decoded entries
    /// and translated blocks whose fetch window covers the written
    /// cell — an instruction may read up to `max_size` words, so a
    /// store to cell `i` affects decodes starting anywhere in
    /// `[i - (max_size - 1), i]`.
    fn commit_and_invalidate(&mut self, cycle: u64) {
        if !self.state.has_due(cycle) {
            return;
        }
        let mut dirty = std::mem::take(&mut self.imem_dirty);
        dirty.clear();
        self.state.commit_due_collecting(cycle, self.imem_id, &mut dirty);
        if !dirty.is_empty() {
            let max = u64::from(self.disasm.max_size());
            for &i in &dirty {
                let lo = i.saturating_sub(max - 1) as usize;
                for e in &mut self.decoded[lo..=(i as usize)] {
                    *e = None;
                }
                self.blocks.invalidate_write(i, max);
            }
        }
        self.imem_dirty = dirty;
    }

    /// The decoded entry at `pc`: the off-line pass's, or — on a miss
    /// (an address the sequential pass skipped, or one a code store
    /// invalidated) — decoded now and cached.
    fn fetch_entry(&mut self, pc: u64) -> Result<Rc<DecodedEntry>, StopReason> {
        if let Some(e) = &self.decoded[pc as usize] {
            return Ok(Rc::clone(e));
        }
        let instr = self.decode_instr(pc).ok_or(StopReason::IllegalInstruction(pc))?;
        let e = Rc::new(self.build_entry(instr));
        self.decoded[pc as usize] = Some(Rc::clone(&e));
        Ok(e)
    }

    /// Executes one instruction. Returns a stop reason if execution
    /// cannot continue.
    #[allow(clippy::missing_panics_doc)]
    pub fn step(&mut self) -> Option<StopReason> {
        if self.halted {
            return Some(StopReason::Halted);
        }
        let pc = self.pc();
        let depth = self.state.depth(self.imem_id);
        if pc >= depth {
            return Some(StopReason::PcOutOfRange(pc));
        }

        // A store into instruction memory that became due at the end
        // of the previous cycle must be visible to *this* fetch.
        self.commit_and_invalidate(self.stats.cycles);

        let entry = match self.fetch_entry(pc) {
            Ok(e) => e,
            Err(stop) => return Some(stop),
        };
        self.exec_entry(pc, &entry)
    }

    /// Executes one fetched instruction through the interpreter: stall
    /// charge, due-write commit, both RTL phases, then
    /// [`Xsim::retire`].
    fn exec_entry(&mut self, pc: u64, entry: &Rc<DecodedEntry>) -> Option<StopReason> {
        let t = self.stall_and_commit(entry);

        // 3-5. Execute both phases and stage writes. An ExecError in
        // either phase discards the instruction's writes and surfaces
        // as a stop reason — nothing half-commits.
        let mut writes = std::mem::take(&mut self.write_buf);
        writes.clear();
        for (i, compiled) in entry.phases() {
            if let Err(e) = bytecode::exec_compiled(
                compiled,
                self.machine,
                self.machine.op(entry.instr.ops[i].op),
                &entry.bindings[i],
                &entry.plans[i].params,
                &self.state,
                &mut writes,
                &mut self.scratch_regs,
            ) {
                self.write_buf = writes;
                // The stall was already charged to Stats above; mirror
                // it so per-PC sums stay exact even on the fault path.
                if let Some(p) = &mut self.profile {
                    p.record_stall_only(pc, entry.stall);
                }
                return Some(StopReason::ExecFault { addr: pc, message: e.to_string() });
            }
        }
        self.retire(pc, entry, t, writes)
    }

    /// Steps 1-2 of the cycle model, shared by both dispatch tiers:
    /// charges the instruction's static stall and commits the writes
    /// due by then. Returns the cycle the instruction executes in.
    fn stall_and_commit(&mut self, entry: &DecodedEntry) -> u64 {
        self.stats.cycles += u64::from(entry.stall);
        self.stats.stall_cycles += u64::from(entry.stall);
        let t = self.stats.cycles;
        self.commit_and_invalidate(t);
        t
    }

    /// The shared tail of both dispatch tiers: stages the
    /// instruction's `writes` (executed at cycle `t`), records its trace
    /// event, does the bookkeeping, advances time, and updates the PC.
    /// `writes` goes back into the reused buffer.
    fn retire(
        &mut self,
        pc: u64,
        entry: &DecodedEntry,
        t: u64,
        mut writes: Vec<StagedWrite>,
    ) -> Option<StopReason> {
        let mut pc_written = false;
        let tracing = self.events.is_some() || self.event_sink.is_some();
        let mut traced_writes = Vec::new();
        for w in writes.drain(..) {
            if w.storage == self.pc_id {
                pc_written = true;
            }
            if tracing {
                traced_writes.push(TraceWrite {
                    storage: w.storage,
                    index: w.index,
                    value: w.value.clone(),
                });
            }
            self.state.stage_write(
                w.storage,
                w.index,
                w.hi,
                w.lo,
                w.value,
                t + u64::from(w.latency),
            );
        }
        self.write_buf = writes;
        if tracing {
            let event = TraceEvent {
                cycle: t,
                pc,
                ops: entry.instr.ops.iter().map(|d| d.op).collect(),
                writes: traced_writes,
            };
            if let Some(sink) = &mut self.event_sink {
                sink.record(crate::report::event_json(self.machine, &event));
            }
            if let Some(events) = &mut self.events {
                events.push(event);
            }
        }

        // Bookkeeping (flat counters; folded into Stats lazily).
        for (fi, d) in entry.instr.ops.iter().enumerate() {
            self.op_counts[fi][d.op.op] += 1;
            if Some(d.op.op) != self.machine.fields[fi].nop {
                self.stats.field_busy[fi] += 1;
            }
        }
        self.stats.instructions += 1;
        if let Some(p) = &mut self.profile {
            p.record(pc, entry.stall, entry.cycle_cost);
        }

        // 6. Advance time.
        self.stats.cycles += u64::from(entry.cycle_cost);

        // 7. Advance or redirect the PC.
        if pc_written {
            // Make the branch visible now so `pc()` is coherent; its
            // visibility cycle has been charged via the cycle cost. A
            // branch write never lands in imem, but another write
            // committing at the same cycle may — invalidate precisely.
            self.commit_and_invalidate(self.stats.cycles);
            if self.pc() == pc {
                // `end: jmp end` idiom. Hardware would keep spinning
                // here while in-flight (latency > 1) results land, so
                // retire everything still pending.
                self.commit_and_invalidate(u64::MAX);
                self.halted = true;
                return Some(StopReason::Halted);
            }
        } else {
            self.set_pc(pc + u64::from(entry.instr.size));
        }

        if entry.halts {
            self.commit_and_invalidate(u64::MAX);
            self.halted = true;
            return Some(StopReason::Halted);
        }
        None
    }

    /// Translates the basic block starting at `start`: walks the
    /// sequential instruction stream, fusing each instruction's plans,
    /// until a control-flow redirect, a potential self-modifying
    /// store, a halt, an undecodable word, or the block length cap.
    /// Returns `None` when even the first word fails to decode.
    fn translate_block(&mut self, start: u64) -> Option<Rc<Block>> {
        /// Straight-line trace cap: long enough to swallow unrolled
        /// kernels, short enough to bound mid-block budget overshoot.
        const MAX_BLOCK_INSTRS: usize = 64;
        let depth = self.state.depth(self.imem_id);
        let mut instrs: Vec<BlockInstr> = Vec::new();
        let mut raw_writes: Vec<StorageId> = Vec::new();
        let mut addr = start;
        let mut end = start;
        while addr < depth && instrs.len() < MAX_BLOCK_INSTRS {
            let Ok(entry) = self.fetch_entry(addr) else { break };
            raw_writes.clear();
            for (d, b) in entry.instr.ops.iter().zip(&entry.bindings) {
                hazard::collect_raw_writes(self.machine, self.machine.op(d.op), b, &mut raw_writes);
            }
            // Anything that can redirect control or rewrite code ends
            // the block (conservatively: writes under `If` count).
            let terminator = entry.halts
                || raw_writes.contains(&self.pc_id)
                || raw_writes.contains(&self.imem_id);
            let fused = crate::translate::fuse_entry(&entry, &mut self.blocks.fused_ops_removed);
            end = addr + u64::from(entry.instr.size);
            instrs.push(BlockInstr { pc: addr, entry, fused });
            addr = end;
            if terminator {
                break;
            }
        }
        if instrs.is_empty() {
            return None;
        }
        let block = Rc::new(Block { start, end, instrs });
        self.blocks.insert(Rc::clone(&block));
        Some(block)
    }

    /// The translated dispatch loop: fetches (translating on miss) the
    /// block at the current PC and retires its instructions back to
    /// back, re-checking budgets, due commits, and block validity
    /// between instructions so semantics match the interpreter
    /// bit-for-bit.
    fn run_translated(&mut self, budget_end: u64, fuel_end: u64) -> StopReason {
        let depth = self.state.depth(self.imem_id);
        'dispatch: loop {
            if self.halted {
                return StopReason::Halted;
            }
            if self.stats.cycles >= budget_end {
                return StopReason::CycleLimit;
            }
            if self.stats.instructions >= fuel_end {
                return StopReason::FuelExhausted;
            }
            if self.cancelled() {
                return StopReason::Cancelled;
            }
            let pc = self.pc();
            if pc >= depth {
                return StopReason::PcOutOfRange(pc);
            }
            // Same pre-fetch visibility rule as the interpreter.
            self.commit_and_invalidate(self.stats.cycles);
            let block = match self.blocks.get(pc) {
                Some(b) => b,
                None => match self.translate_block(pc) {
                    Some(b) => b,
                    None => return StopReason::IllegalInstruction(pc),
                },
            };
            let mut generation = self.blocks.generation;
            for (i, bi) in block.instrs.iter().enumerate() {
                if i > 0 {
                    // The dispatch preamble ran for the block head
                    // only; later instructions re-check it here.
                    if self.stats.cycles >= budget_end || self.stats.instructions >= fuel_end {
                        continue 'dispatch;
                    }
                    self.commit_and_invalidate(self.stats.cycles);
                    // `contains` is only worth asking when some block
                    // was dropped since the last check (generation
                    // moved).
                    if self.blocks.generation != generation {
                        if !self.blocks.contains(block.start) {
                            // A latent store invalidated this very
                            // block mid-flight: re-dispatch so the next
                            // fetch sees the rewritten code.
                            continue 'dispatch;
                        }
                        generation = self.blocks.generation;
                    }
                }
                if let Some(stop) = self.exec_block_instr(bi) {
                    return stop;
                }
            }
        }
    }

    /// Retires one block instruction through the fused trace, or the
    /// interpreter when the instruction could not be fused (wide RTL).
    fn exec_block_instr(&mut self, bi: &BlockInstr) -> Option<StopReason> {
        match &bi.fused {
            Some(f) => self.exec_fused(bi.pc, &bi.entry, f),
            None => {
                let entry = Rc::clone(&bi.entry);
                self.exec_entry(bi.pc, &entry)
            }
        }
    }

    /// The fused fast path of [`Xsim::exec_entry`]: one folded
    /// bytecode program, run with no runtime parameters, replaces plan
    /// iteration and parameter reads. Stall charging and retirement are
    /// the interpreter's.
    fn exec_fused(
        &mut self,
        pc: u64,
        entry: &Rc<DecodedEntry>,
        fused: &bytecode::Program,
    ) -> Option<StopReason> {
        let t = self.stall_and_commit(entry);
        let mut writes = std::mem::take(&mut self.write_buf);
        writes.clear();
        bytecode::run(fused, &[], &self.state, &mut writes, &mut self.scratch_regs);
        self.block_instructions += 1;
        self.retire(pc, entry, t, writes)
    }

    /// Clears the halted flag and jumps to `pc`, keeping the decoded
    /// program, state, and statistics — the cheap way to re-enter a
    /// program after a halt (used by benchmarking loops).
    pub fn restart_at(&mut self, pc: u64) {
        self.halted = false;
        self.state.clear_pending();
        self.set_pc(pc);
    }

    /// Resets state, statistics, and the halted flag; keeps the loaded
    /// program (instruction memory as the last run left it, and its
    /// decode cache), breakpoints, and monitors.
    pub fn reset(&mut self) {
        let program: Vec<BitVector> = (0..self.state.depth(self.imem_id))
            .map(|a| self.state.read(self.imem_id, a).clone())
            .collect();
        self.state.reset();
        for (a, word) in program.into_iter().enumerate() {
            self.state.poke(self.imem_id, a as u64, word);
        }
        // Blocks re-translate from the kept decode cache; translation
        // counters restart with the stats they feed.
        self.blocks = BlockCache::default();
        self.block_instructions = 0;
        self.stats = Stats { field_busy: vec![0; self.machine.fields.len()], ..Stats::default() };
        for f in &mut self.op_counts {
            f.iter_mut().for_each(|n| *n = 0);
        }
        if let Some(events) = &mut self.events {
            *events = EventTrace::new(events.capacity());
        }
        if let Some(p) = &mut self.profile {
            **p = Profile::new(p.rows.len());
        }
        self.halted = false;
    }

    /// Formats the instruction at `addr` as assembly text, if it
    /// decodes.
    #[must_use]
    pub fn disassemble_at(&self, addr: u64) -> Option<String> {
        let i = self.decode_instr(addr)?;
        Some(self.disasm.format_instr(&i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xasm::Assembler;

    fn acc16() -> Machine {
        isdl::load(isdl::samples::ACC16).expect("loads")
    }

    fn toy() -> Machine {
        isdl::load(isdl::samples::TOY).expect("loads")
    }

    fn run_acc16(src: &str, opts: XsimOptions) -> (Machine, Stats, Vec<u64>) {
        let m = acc16();
        let p = Assembler::new(&m).assemble(src).expect("assembles");
        let mut sim = Xsim::generate_with(&m, opts).expect("generates");
        sim.load_program(&p);
        let stop = sim.run(100_000);
        assert_eq!(stop, StopReason::Halted, "program should halt");
        let dm = m.storage_by_name("DM").expect("DM").0;
        let dump: Vec<u64> =
            (0..sim.state().depth(dm)).map(|i| sim.state().read_u64(dm, i)).collect();
        let stats = sim.stats().clone();
        (m, stats, dump)
    }

    const SUM_LOOP: &str = "\
start: ldi 10
       sta 1          ; counter = 10
loop:  lda 0
       addm 1         ; acc = sum + counter
       sta 0
       lda 1
       subm one
       sta 1
       jnz loop
       halt
.data
.org 60
one:   .word 1
";

    #[test]
    fn loop_program_computes_sum() {
        let (_, stats, dump) = run_acc16(SUM_LOOP, XsimOptions::default());
        assert_eq!(dump[0], 55, "sum of 10..1");
        assert_eq!(dump[1], 0, "counter exhausted");
        assert!(stats.instructions > 50);
        assert_eq!(stats.cycles, stats.instructions, "acc16 has no stalls");
    }

    #[test]
    fn toy_vliw_parallel_execution() {
        let m = toy();
        // li loads 5 into R1; next instruction does an ALU add and a
        // parallel move of the OLD R2 (0) into R4.
        let src = "li R1, 5\nli R2, 7\nadd R3, R1, reg(R2) | mv R4, R2\nToyEnd: jmp ToyEnd\n";
        let p = Assembler::new(&m).assemble(src).expect("assembles");
        let mut sim = Xsim::generate(&m).expect("generates");
        sim.load_program(&p);
        assert_eq!(sim.run(1000), StopReason::Halted, "self-jump halts");
        let rf = m.storage_by_name("RF").expect("RF").0;
        assert_eq!(sim.state().read_u64(rf, 3), 12);
        assert_eq!(sim.state().read_u64(rf, 4), 7);
        assert_eq!(sim.stats().field_busy[1], 1, "MOVE field busy once");
    }

    #[test]
    fn load_use_stall_is_charged() {
        let m = toy();
        // ld has latency 2 / stall 1: using the result immediately costs
        // one stall cycle.
        let with_hazard = "ld R1, 0\nadd R2, R1, reg(R1)\nE: jmp E\n";
        let without = "ld R1, 0\nnop\nadd R2, R1, reg(R1)\nE: jmp E\n";
        let run = |src: &str| {
            let p = Assembler::new(&m).assemble(src).expect("assembles");
            let mut sim = Xsim::generate(&m).expect("generates");
            let dm = m.storage_by_name("DM").expect("DM").0;
            sim.load_program(&p);
            sim.state_mut().poke(dm, 0, bitv::BitVector::from_u64(21, 16));
            assert_eq!(sim.run(1000), StopReason::Halted);
            let rf = m.storage_by_name("RF").expect("RF").0;
            (sim.stats().clone(), sim.state().read_u64(rf, 2))
        };
        let (s1, r2_hazard) = run(with_hazard);
        let (s2, r2_clean) = run(without);
        assert_eq!(r2_hazard, 42, "stall makes the loaded value visible");
        assert_eq!(r2_clean, 42);
        assert_eq!(s1.stall_cycles, 1, "one load-use stall");
        assert_eq!(s2.stall_cycles, 0, "nop fills the delay slot");
    }

    #[test]
    fn late_result_is_visible_latency_cycles_after_issue() {
        // `slow` declares no stall, so nothing hides its latency: the
        // copies at distance 1 and 2 read the old R1, the one at
        // distance 3 the new value.
        let m = isdl::load(
            r#"
            machine "late" { format { word 16; } }
            storage { imem IM 16 x 32; pc PC 5; regfile RF 16 x 4; }
            tokens { token REG reg("R", 4); }
            field F {
                op slow(d: REG, v: REG) {
                    encode { word[15:12] = 0b0001; word[11:10] = d; word[9:8] = v; }
                    action { RF[d] <- zext(v, 16); }
                    cost { cycle 1; stall 0; }
                    timing { latency 3; }
                }
                op mv(d: REG, s: REG) {
                    encode { word[15:12] = 0b0010; word[11:10] = d; word[9:8] = s; }
                    action { RF[d] <- RF[s]; }
                }
                op halt() { encode { word[15:12] = 0b1111; } }
                op nop() { encode { word[15:12] = 0b0000; } }
            }
            "#,
        )
        .expect("loads");
        // (`slow d, s` loads the numeric index of register `s`.)
        let src = "slow R1, R3\nmv R0, R1\nmv R2, R1\nmv R3, R1\nhalt\n";
        let p = Assembler::new(&m).assemble(src).expect("assembles");
        let rf = m.storage_by_name("RF").expect("RF").0;
        for translate in [false, true] {
            let options = XsimOptions { translate, ..XsimOptions::default() };
            let mut sim = Xsim::generate_with(&m, options).expect("generates");
            sim.load_program(&p);
            sim.state_mut().poke(rf, 1, BitVector::from_u64(7, 16));
            assert_eq!(sim.run(100), StopReason::Halted);
            let copies = [0, 2, 3].map(|r| sim.state().read_u64(rf, r));
            assert_eq!(copies, [7, 7, 3], "translate={translate}");
            assert_eq!(sim.stats().stall_cycles, 0, "translate={translate}");
            let fused = sim.translate_stats().block_instructions;
            assert_eq!(fused, if translate { 5 } else { 0 }, "translate={translate}");
        }
    }

    #[test]
    fn mac_accumulates_with_latency() {
        let m = toy();
        let src = "\
li R1, 3
li R2, 4
clracc
mac R1, R2
mac R1, R2
nop
mvacc R5
E: jmp E
";
        let p = Assembler::new(&m).assemble(src).expect("assembles");
        let mut sim = Xsim::generate(&m).expect("generates");
        sim.load_program(&p);
        assert_eq!(sim.run(1000), StopReason::Halted);
        let rf = m.storage_by_name("RF").expect("RF").0;
        assert_eq!(sim.state().read_u64(rf, 5), 24, "two MACs of 3*4");
        assert!(sim.stats().stall_cycles >= 1, "back-to-back MAC stalls");
    }

    #[test]
    fn nt_destination_store() {
        let m = isdl::load(
            r#"
            machine "m" { format { word 8; } }
            storage { imem IM 8 x 32; pc PC 5; register A 8; regfile RF 8 x 4; dmem DM 8 x 16; }
            tokens { token REG reg("R", 4); }
            nonterminals {
                nonterminal DST width 3 {
                    option reg(r: REG) { encode { val[2] = 0; val[1:0] = r; } value { RF[r] } }
                    option mem(r: REG) { encode { val[2] = 1; val[1:0] = r; } value { DM[trunc(RF[r], 4)] } }
                }
            }
            field F {
                op st(d: DST) { encode { word[7:4] = 0b1000; word[2:0] = d; } action { d <- A; } }
                op seta() { encode { word[7:4] = 0b0001; } action { A <- 8'd99; } }
                op halt() { encode { word[7:4] = 0b1111; } }
                op nop() { encode { word[7:4] = 0b0000; } }
            }
            "#,
        )
        .expect("loads");
        let p =
            Assembler::new(&m).assemble("seta\nst reg(R2)\nst mem(R0)\nhalt\n").expect("assembles");
        for translate in [false, true] {
            let options = XsimOptions { translate, ..XsimOptions::default() };
            let mut sim = Xsim::generate_with(&m, options).expect("generates");
            sim.load_program(&p);
            assert_eq!(sim.run(100), StopReason::Halted);
            let rf = m.storage_by_name("RF").expect("RF").0;
            let dm = m.storage_by_name("DM").expect("DM").0;
            assert_eq!(sim.state().read_u64(rf, 2), 99, "translate={translate}");
            assert_eq!(sim.state().read_u64(dm, 0), 99, "translate={translate}");
        }
    }

    #[test]
    fn trace_records_addresses() {
        let m = acc16();
        let p = Assembler::new(&m).assemble("ldi 1\nldi 2\nhalt\n").expect("assembles");
        let mut sim = Xsim::generate(&m).expect("generates");
        sim.load_program(&p);
        sim.enable_event_trace(16);
        assert_eq!(sim.run(100), StopReason::Halted);
        let pcs: Vec<u64> = sim.event_trace().expect("enabled").events().map(|e| e.pc).collect();
        assert_eq!(pcs, [0, 1, 2]);
    }

    #[test]
    fn breakpoint_stops_and_resumes() {
        let m = acc16();
        let p = Assembler::new(&m).assemble("ldi 1\nldi 2\nldi 3\nhalt\n").expect("assembles");
        let mut sim = Xsim::generate(&m).expect("generates");
        sim.load_program(&p);
        sim.add_breakpoint(1);
        assert_eq!(sim.run(100), StopReason::Breakpoint(1));
        assert_eq!(sim.pc(), 1);
        assert_eq!(sim.run(100), StopReason::Halted, "resume past breakpoint");
    }

    #[test]
    fn cycle_limit() {
        let m = acc16();
        let p =
            Assembler::new(&m).assemble("loop: jmp loop2\nloop2: jmp loop\n").expect("assembles");
        let mut sim = Xsim::generate(&m).expect("generates");
        sim.load_program(&p);
        assert_eq!(sim.run(50), StopReason::CycleLimit);
        assert!(sim.stats().cycles >= 50);
    }

    #[test]
    fn fuel_budget_stops_a_looping_kernel() {
        let m = acc16();
        let p =
            Assembler::new(&m).assemble("loop: jmp loop2\nloop2: jmp loop\n").expect("assembles");
        let mut sim = Xsim::generate(&m).expect("generates");
        sim.load_program(&p);
        assert_eq!(sim.run_fuel(u64::MAX, 25), StopReason::FuelExhausted);
        assert_eq!(sim.stats().instructions, 25, "fuel bounds retired instructions exactly");
        // Refuelling resumes where the run stopped.
        assert_eq!(sim.run_fuel(u64::MAX, 5), StopReason::FuelExhausted);
        assert_eq!(sim.stats().instructions, 30);
    }

    #[test]
    fn illegal_instruction_stops() {
        let m = acc16();
        // 0b1001 is an undefined opcode in acc16.
        let mut sim = Xsim::generate(&m).expect("generates");
        sim.load_words(&[bitv::BitVector::from_u64(0b1001 << 12, 16)]);
        assert_eq!(sim.run(10), StopReason::IllegalInstruction(0));
    }

    #[test]
    fn pc_wraps_when_it_cannot_leave_imem() {
        // acc16 has an 8-bit PC over a 256-word imem: the PC wraps and
        // execution re-enters address 0 — architecturally accurate.
        let m = acc16();
        let p = Assembler::new(&m).assemble("ldi 1\n").expect("assembles");
        let mut sim = Xsim::generate(&m).expect("generates");
        sim.load_program(&p);
        assert_eq!(sim.run(1000), StopReason::CycleLimit);
        assert!(sim.pc() < 256);
    }

    #[test]
    fn pc_out_of_range_stops() {
        // A PC wider than instruction memory can walk off the end.
        let m = isdl::load(
            r#"machine "m" { format { word 8; } }
               storage { imem IM 8 x 16; pc PC 8; register A 8; }
               field F {
                   op inc() { encode { word[7:4] = 0b0001; } action { A <- A + 8'd1; } }
                   op nop() { encode { word[7:4] = 0b0000; } }
               }"#,
        )
        .expect("loads");
        let p = Assembler::new(&m).assemble("inc\n").expect("assembles");
        let mut sim = Xsim::generate(&m).expect("generates");
        sim.load_program(&p);
        assert_eq!(sim.run(1000), StopReason::PcOutOfRange(16));
    }

    #[test]
    fn reset_preserves_program() {
        let m = acc16();
        let p = Assembler::new(&m).assemble("ldi 5\nhalt\n").expect("assembles");
        let mut sim = Xsim::generate(&m).expect("generates");
        sim.load_program(&p);
        assert_eq!(sim.run(100), StopReason::Halted);
        sim.reset();
        assert_eq!(sim.stats().cycles, 0);
        let acc = m.storage_by_name("ACC").expect("ACC").0;
        assert_eq!(sim.state().read_u64(acc, 0), 0, "reset clears data state");
        // Instruction memory, the decode cache and the disassembler
        // still describe the loaded program, and it runs again.
        let im = m.imem.expect("IM");
        assert_eq!(sim.state().read(im, 0), &p.words[0], "IM[0] keeps `ldi 5`");
        assert_eq!(sim.disassemble_at(0).as_deref(), Some("ldi 5"));
        assert_eq!(sim.run(100), StopReason::Halted);
        assert_eq!(sim.state().read_u64(acc, 0), 5);
        assert_eq!(sim.stats().cycles, 2);
    }

    #[test]
    fn missing_pc_reported() {
        let m = isdl::load(
            r#"machine "m" { format { word 8; } }
               storage { imem IM 8 x 8; }
               field F { op nop() { encode { word[0] = 1; } } }"#,
        )
        .expect("loads");
        assert_eq!(Xsim::generate(&m).err(), Some(GensimError::MissingPc));
    }
}

#[cfg(test)]
mod usage_tests {
    use super::*;
    use xasm::Assembler;

    /// A machine whose `div` occupies its unit for 3 cycles
    /// (`usage 3`), exposing the structural-hazard path of the static
    /// stall analysis.
    const USAGE_MACHINE: &str = r#"
        machine "usage" { format { word 16; } }
        storage { imem IM 16 x 32; pc PC 5; regfile RF 16 x 4; }
        tokens { token REG reg("R", 4); }
        field F {
            op div(d: REG, a: REG, b: REG) {
                encode { word[15:12] = 0b0001; word[11:10] = d; word[9:8] = a; word[7:6] = b; }
                action { RF[d] <- RF[a] / RF[b]; }
                cost { cycle 1; stall 2; }
                timing { latency 1; usage 3; }
            }
            op li(d: REG, v: REG) {
                encode { word[15:12] = 0b0010; word[11:10] = d; word[9:8] = v; }
                action { RF[d] <- zext(v, 16); }
            }
            op nop() { encode { word[15:12] = 0b0000; } }
        }
        // Halt lives in its own field so it never competes for F's
        // functional unit (usage hazards are per field).
        field CTRL {
            op halt() { encode { word[5:4] = 0b01; } }
            op nop() { encode { word[5:4] = 0b00; } }
        }
    "#;

    #[test]
    fn usage_serialises_back_to_back_unit_uses() {
        let m = isdl::load(USAGE_MACHINE).expect("loads");
        let run = |src: &str| {
            let p = Assembler::new(&m).assemble(src).expect("assembles");
            let mut sim = Xsim::generate(&m).expect("generates");
            sim.load_program(&p);
            assert_eq!(sim.run(1_000), StopReason::Halted);
            sim.stats().clone()
        };
        // Back-to-back divides on a usage-3 unit: the second stalls
        // (clamped by the declared stall cost of 2).
        // (`li d, s` loads the numeric index of register `s`.)
        let busy = run("li R1, R3\nli R2, R1\ndiv R3, R1, R2\ndiv R0, R1, R2\nhalt\n");
        assert_eq!(busy.stall_cycles, 2, "usage hazard charged");
        // A nop between them reduces the stall by one cycle.
        let spaced = run("li R1, R3\nli R2, R1\ndiv R3, R1, R2\nnop\ndiv R0, R1, R2\nhalt\n");
        assert_eq!(spaced.stall_cycles, 1);
        // Two intervening instructions clear the hazard entirely.
        let clear = run("li R1, R3\nli R2, R1\ndiv R3, R1, R2\nnop\nnop\ndiv R0, R1, R2\nhalt\n");
        assert_eq!(clear.stall_cycles, 0);
    }
}
