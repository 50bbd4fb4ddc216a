//! The traced run: per-layer numbers from spans recorded around calls
//! into each crate's public functions.
//!
//! For every `eval_sweep_netlist` candidate the run replays
//! `archex::evaluate_with`'s stage order through the public calls, then
//! times the real `evaluate_with` on the same candidate as the parent
//! span. The replay is a copy of that function's stage order, so it
//! drifts if the function changes; `archex.trace.unattributed_ratio`
//! (1 − replayed stages ÷ `evaluate_with`) shows the drift. Table 1's
//! simulator rows and Table 2 are replayed the same way, with real
//! nesting, and one cold beam exploration supplies the search counters.
//!
//! The traced run is the same for every workload: per-layer numbers
//! describe the code, and the README maps each one to the end-to-end
//! metric and workload it should move.

use crate::inputs;
use crate::sim::{load_netlist, ESIM_CHUNK, LSIM_CHUNK, XSIM_CHUNK};
use crate::stats::{median, percentile};
use crate::{explore, sweep, Checks, Metric, Outcome};
use archex::{apply_mutation, compile, EvalCache, Kernel, SimBudget};
use bench::BenchEntry;
use gensim::{StopReason, Xsim};
use hgen::HgenOptions;
use isdl::model::NtId;
use isdl::Machine;
use obs::Json;
use std::collections::HashMap;
use std::time::{Duration, Instant};
use vlog::{AnySim, SimBackend};
use xasm::{Assembler, Disassembler, Operand, Program};

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    /// Unique id (from 1).
    id: u64,
    /// The causing span's id, 0 for none.
    parent: u64,
    /// The part of the run the span belongs to (`sweep`, `table1.xsim`, …).
    section: &'static str,
    /// Layer-qualified call name, e.g. `hgen.emit`.
    name: &'static str,
    /// Candidate or table-row id shared by the spans of one unit of work.
    candidate: u64,
    /// Start, µs from the beginning of the run.
    start_us: f64,
    /// Duration, µs.
    dur_us: f64,
    /// Work done inside the span (cycles simulated, words assembled), 0
    /// where it has none.
    work: f64,
}

/// Spans kept in memory until the run ends.
struct Tracer {
    epoch: Instant,
    section: &'static str,
    spans: Vec<Span>,
    next_id: u64,
}

impl Tracer {
    fn new() -> Self {
        Self { epoch: Instant::now(), section: "", spans: Vec::new(), next_id: 1 }
    }

    fn new_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Records span `id`, begun at `t0` and ending now.
    fn close(
        &mut self,
        id: u64,
        parent: u64,
        name: &'static str,
        candidate: u64,
        t0: Instant,
        work: f64,
    ) {
        let end = Instant::now();
        self.spans.push(Span {
            id,
            parent,
            section: self.section,
            name,
            candidate,
            start_us: t0.duration_since(self.epoch).as_secs_f64() * 1e6,
            dur_us: end.duration_since(t0).as_secs_f64() * 1e6,
            work,
        });
    }

    /// Times `f` as a leaf span.
    fn time<T>(
        &mut self,
        parent: u64,
        name: &'static str,
        candidate: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        self.time_work(parent, name, candidate, || (f(), 0.0))
    }

    /// Times `f`, which also reports the work it did.
    fn time_work<T>(
        &mut self,
        parent: u64,
        name: &'static str,
        candidate: u64,
        f: impl FnOnce() -> (T, f64),
    ) -> T {
        let id = self.new_id();
        let t0 = Instant::now();
        let (out, work) = f();
        self.close(id, parent, name, candidate, t0, work);
        out
    }

    fn select<'a>(
        &'a self,
        section: &'a str,
        name: &'a str,
    ) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.section == section && s.name == name)
    }

    /// Median duration of `name` spans in `section`, µs.
    fn p50_us(&self, section: &str, name: &str) -> f64 {
        percentile(&self.select(section, name).map(|s| s.dur_us).collect::<Vec<_>>(), 50.0)
    }

    /// Total time of `name` spans in `section` per unit of their work, ns.
    fn ns_per_work(&self, section: &str, name: &str) -> f64 {
        let (us, work) =
            self.select(section, name).fold((0.0, 0.0), |(t, w), s| (t + s.dur_us, w + s.work));
        if work == 0.0 {
            0.0
        } else {
            us * 1e3 / work
        }
    }
}

/// What one candidate's replay ended with, in `evaluate_with`'s terms.
#[derive(Debug, PartialEq, Eq)]
enum Replayed {
    Ok,
    Compile,
    Stopped(StopReason),
    Other,
}

/// `evaluate_with`'s non-terminal option count, decoded the same way.
fn count_nt_options(machine: &Machine, program: &Program) -> HashMap<(NtId, usize), u64> {
    fn count(arg: &Operand, out: &mut HashMap<(NtId, usize), u64>) {
        if let Operand::NonTerminal { nt, option, args } = arg {
            *out.entry((*nt, *option)).or_insert(0) += 1;
            for a in args {
                count(a, out);
            }
        }
    }
    let mut out = HashMap::new();
    let Ok(d) = Disassembler::try_new(machine) else { return out };
    let mut addr = 0usize;
    while addr < program.words.len() {
        let end = (addr + d.max_size() as usize).min(program.words.len());
        let Ok(instr) = d.decode(&program.words[addr..end], addr as u64) else {
            addr += 1;
            continue;
        };
        for op in &instr.ops {
            for arg in &op.args {
                count(arg, &mut out);
            }
        }
        addr += instr.size as usize;
    }
    out
}

/// HGEN's `synthesize`, replayed phase by phase under one
/// `hgen.synthesize` span. Returns the module, the emitter's statistics,
/// the technology report, and the lines of Verilog.
fn replay_synthesize(
    tr: &mut Tracer,
    parent: u64,
    cand: u64,
    machine: &Machine,
) -> (vlog::ast::VModule, hgen::EmitStats, Result<vlog::tech::TechReport, vlog::VlogError>, usize) {
    let opts = HgenOptions::default();
    let id = tr.new_id();
    let t0 = Instant::now();
    let (module, stats) = tr.time(id, "hgen.emit", cand, || {
        hgen::emit::emit(machine, opts.decode, opts.share, opts.pipeline())
    });
    let verilog = tr.time(id, "hgen.to_verilog", cand, || module.to_verilog());
    let report = tr.time(id, "vlog.tech_analyze", cand, || vlog::tech::analyze(&module));
    let lines = verilog.lines().count();
    tr.close(id, parent, "hgen.synthesize", cand, t0, 0.0);
    (module, stats, report, lines)
}

/// Replays `evaluate_with(machine, kernels, sweep::options())` stage by
/// stage, each stage a child of span `parent`.
fn replay_evaluation(
    tr: &mut Tracer,
    parent: u64,
    cand: u64,
    machine: &Machine,
    kernels: &[Kernel],
) -> Replayed {
    let budget = SimBudget::default();
    let assembler = tr.time(parent, "xasm.assembler_new", cand, || Assembler::new(machine));
    let mut checked: Vec<(Program, Xsim<'_>)> = Vec::new();
    for (i, kernel) in kernels.iter().enumerate() {
        let Ok(compiled) = tr.time(parent, "archex.compile", cand, || compile(machine, kernel))
        else {
            return Replayed::Compile;
        };
        let assembled = tr.time_work(parent, "xasm.assemble", cand, || {
            let p = assembler.assemble(&compiled.asm);
            let words = p.as_ref().map_or(0, |p| p.words.len());
            (p, words as f64)
        });
        let Ok(program) = assembled else { return Replayed::Other };
        let Ok(mut xsim) = tr.time(parent, "gensim.generate", cand, || Xsim::generate(machine))
        else {
            return Replayed::Other;
        };
        tr.time(parent, "gensim.load_program", cand, || xsim.load_program(&program));
        let stop = tr.time_work(parent, "gensim.run", cand, || {
            let stop = xsim.run_fuel(budget.max_cycles, budget.max_instructions);
            (stop, xsim.stats().cycles as f64)
        });
        if stop != StopReason::Halted {
            return Replayed::Stopped(stop);
        }
        tr.time(parent, "gensim.stats", cand, || {
            let stats = (xsim.stats().clone(), xsim.op_counts());
            let opt = (i == 0).then(|| gensim::stats_json(&xsim).get("opt").cloned());
            std::hint::black_box((stats, opt));
        });
        std::hint::black_box(
            tr.time(parent, "xasm.disasm", cand, || count_nt_options(machine, &program)),
        );
        checked.push((program, xsim));
    }
    let (module, _, report, _) = replay_synthesize(tr, parent, cand, machine);
    if report.is_err() {
        return Replayed::Other;
    }
    for (program, xsim) in &checked {
        let cycles = 4 * xsim.stats().cycles + 16;
        let Ok(elaborated) = tr.time(parent, "vlog.elaborate_levelized", cand, || {
            AnySim::elaborate(&module, SimBackend::Levelized)
        }) else {
            return Replayed::Other;
        };
        let mut netlist = elaborated;
        let loaded = tr.time(parent, "vlog.load_program", cand, || {
            load_netlist(machine, &mut netlist, program)
        });
        let clocked = tr.time_work(parent, "vlog.clock_levelized", cand, || {
            (netlist.clock(cycles), cycles as f64)
        });
        if loaded.is_err() || clocked.is_err() {
            return Replayed::Other;
        }
        if !tr.time(parent, "vlog.compare", cand, || netlist_matches(machine, &netlist, xsim)) {
            return Replayed::Other;
        }
    }
    Replayed::Ok
}

/// The cross-check's comparison: every data-carrying storage cell of
/// the netlist equals the ILS's, then the `vlog-stats/1` report.
fn netlist_matches(machine: &Machine, sim: &AnySim, xsim: &Xsim<'_>) -> bool {
    use isdl::model::StorageKind::{InstructionMemory, ProgramCounter};
    let same = machine.storages.iter().enumerate().all(|(i, s)| {
        matches!(s.kind, ProgramCounter | InstructionMemory)
            || (0..s.cells()).all(|a| {
                let soft = xsim.state().read(isdl::rtl::StorageId(i), a);
                let hard = if s.kind.is_addressed() {
                    sim.peek_memory(&s.name, a)
                } else {
                    sim.peek(&s.name)
                };
                hard.is_ok_and(|h| *soft == h)
            })
    });
    std::hint::black_box(vlog::stats_json(sim));
    same
}

/// Replays the sweep until `budget` has elapsed (at least one pass).
/// Returns the per-candidate replay wall times and untraced
/// `evaluate_with` times, ms, and the compile-error count.
fn trace_sweep(
    tr: &mut Tracer,
    seed: u64,
    budget: Duration,
    checks: &mut Checks,
) -> (Vec<f64>, Vec<f64>, usize) {
    tr.section = "sweep";
    let start = inputs::spam();
    let kernels = inputs::kernels(seed);
    for edit in inputs::single_edits(&start) {
        std::hint::black_box(
            tr.time(0, "archex.apply_mutation", 0, || apply_mutation(&start, &edit)),
        );
    }
    let candidates = inputs::single_edit_neighbours(&start, seed);
    let opts = sweep::options();
    let (mut replay_ms, mut eval_ms, mut compile_errors) = (Vec::new(), Vec::new(), 0);
    let mut cand = 0;
    crate::for_duration(budget, || {
        for c in &candidates {
            cand += 1;
            std::hint::black_box(
                tr.time(0, "archex.cache_key", cand, || EvalCache::key(&c.machine)),
            );
            let parent = tr.new_id();
            let t0 = Instant::now();
            let replayed = replay_evaluation(tr, parent, cand, &c.machine, &kernels);
            replay_ms.push(crate::stats::ms_since(t0));
            let t0 = Instant::now();
            let real = sweep::evaluate(c, &kernels, &opts);
            tr.close(parent, 0, "archex.evaluate_with", cand, t0, 0.0);
            eval_ms.push(crate::stats::ms_since(t0));
            compile_errors += usize::from(replayed == Replayed::Compile);
            let agrees = match &real {
                Some(Ok(_)) => replayed == Replayed::Ok,
                Some(Err(archex::EvalError::Compile(..))) => replayed == Replayed::Compile,
                Some(Err(archex::EvalError::BudgetExhausted { .. })) => {
                    replayed == Replayed::Stopped(StopReason::CycleLimit)
                }
                _ => false,
            };
            checks.op(agrees, || {
                format!(
                    "{}: replay ended {replayed:?}, evaluate_with {:?}",
                    c.edit,
                    real.map(|r| r.map(|_| ()))
                )
            });
        }
    });
    (replay_ms, eval_ms, compile_errors)
}

/// Per-layer numbers from the Table 1 and Table 2 replays that the sweep
/// does not give.
struct TableCounts {
    nodes_in: f64,
    blocks: f64,
    skip_ratio: f64,
    lines: f64,
    units_saved: f64,
}

/// Replays Table 1 (one row per simulator tier, each from ISDL text to a
/// timed chunk) and Table 2 (SPAM synthesis with its decode-plan and
/// datapath phases probed separately, then SPAM2).
fn trace_tables(tr: &mut Tracer, seed: u64, checks: &mut Checks) -> TableCounts {
    let fir = inputs::fir(seed);
    let load = |tr: &mut Tracer, row: u64, src: &str| {
        let desc = tr.time(row, "isdl.parse", row, || isdl::parse(src)).expect("the sample parses");
        tr.time(row, "isdl.analyze", row, || isdl::analyze(&desc)).expect("the sample analyzes")
    };
    let assemble = |tr: &mut Tracer, row: u64, machine: &Machine| {
        let compiled =
            tr.time(row, "archex.compile", row, || compile(machine, &fir)).expect("FIR compiles");
        let assembler = tr.time(row, "xasm.assembler_new", row, || Assembler::new(machine));
        tr.time(row, "xasm.assemble", row, || assembler.assemble(&compiled.asm))
            .expect("FIR assembles")
    };

    tr.section = "table1.xsim";
    let row = tr.new_id();
    let t0 = Instant::now();
    let machine = load(tr, row, isdl::samples::SPAM);
    let program = assemble(tr, row, &machine);
    let mut xsim =
        tr.time(row, "gensim.generate", row, || Xsim::generate(&machine)).expect("SPAM generates");
    tr.time(row, "gensim.load_program", row, || xsim.load_program(&program));
    let done = tr.time_work(row, "gensim.run", row, || {
        let done = bench::run_cycles(&mut xsim, &program, XSIM_CHUNK);
        (done, done as f64)
    });
    tr.close(row, 0, "table1.xsim", row, t0, 0.0);
    checks.op(done >= XSIM_CHUNK, || format!("XSIM ran {done} of {XSIM_CHUNK} cycles"));
    let blocks = xsim.translate_stats().blocks as f64;

    let mut skip_ratio = 0.0;
    for (section, backend, chunk, elaborate, clock) in [
        (
            "table1.levelized",
            SimBackend::Levelized,
            LSIM_CHUNK,
            "vlog.elaborate_levelized",
            "vlog.clock_levelized",
        ),
        ("table1.event", SimBackend::Event, ESIM_CHUNK, "vlog.elaborate_event", "vlog.clock_event"),
    ] {
        tr.section = section;
        let row = tr.new_id();
        let t0 = Instant::now();
        let machine = load(tr, row, isdl::samples::SPAM);
        let program = assemble(tr, row, &machine);
        let (module, _, report, _) = replay_synthesize(tr, row, row, &machine);
        let mut netlist = tr
            .time(row, elaborate, row, || AnySim::elaborate(&module, backend))
            .expect("SPAM elaborates");
        let loaded = tr
            .time(row, "vlog.load_program", row, || load_netlist(&machine, &mut netlist, &program));
        let clocked = tr.time_work(row, clock, row, || (netlist.clock(chunk), chunk as f64));
        tr.close(row, 0, section, row, t0, 0.0);
        checks.op(report.is_ok() && loaded.is_ok() && clocked.is_ok(), || {
            format!("{section} replay failed")
        });
        if let Some(rate) =
            vlog::stats_json(&netlist).get("levelized").and_then(|l| l.get_f64("skip_rate"))
        {
            skip_ratio = rate;
        }
    }

    tr.section = "table2";
    let spam = inputs::spam();
    let (mut lines, mut units_saved, mut nodes_in) = (0.0, 0.0, 0.0);
    for _ in 0..TABLE2_REPS {
        let row = tr.new_id();
        let t0 = Instant::now();
        let plan = tr.time(row, "hgen.decode_plan", row, || hgen::decode::DecodePlan::new(&spam));
        let pipeline = HgenOptions::default().pipeline();
        std::hint::black_box(tr.time(row, "hgen.datapath", row, || {
            hgen::datapath::DatapathBuilder::new(&plan, "instr", HgenOptions::default().decode)
                .with_pipeline(pipeline)
                .build(&|r| format!("dec_f{}_o{}", r.field.0, r.op))
        }));
        let (_, stats, report, n) = replay_synthesize(tr, row, row, &spam);
        tr.close(row, 0, "table2.spam", row, t0, 0.0);
        checks.op(report.is_ok(), || "SPAM synthesis failed".to_owned());
        (lines, units_saved, nodes_in) =
            (n as f64, stats.units_saved as f64, stats.opt.nodes_before as f64);
    }
    let spam2 = isdl::load(isdl::samples::SPAM2).expect("the SPAM2 sample loads");
    let row = tr.new_id();
    let t0 = Instant::now();
    let (_, _, report, _) = replay_synthesize(tr, row, row, &spam2);
    tr.close(row, 0, "table2.spam2", row, t0, 0.0);
    checks.op(report.is_ok(), || "SPAM2 synthesis failed".to_owned());
    TableCounts { nodes_in, blocks, skip_ratio, lines, units_saved }
}

/// Table 2 repetitions in the traced run.
const TABLE2_REPS: usize = 20;

/// ISDL front-end repetitions in the traced run.
const ISDL_REPS: usize = 20;

/// The per-layer metrics of the traced run, with their units.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("hgen.synthesize.us_p50", "us"),
    ("hgen.emit.us_p50", "us"),
    ("hgen.to_verilog.us_p50", "us"),
    ("hgen.decode_plan.us_p50", "us"),
    ("hgen.datapath.us_p50", "us"),
    ("hgen.lines_of_verilog", "count"),
    ("hgen.units_saved", "count"),
    ("xasm.assembler_new.us_p50", "us"),
    ("xasm.assemble.us_p50", "us"),
    ("xasm.assemble.ns_per_word", "ns"),
    ("xasm.disasm.us_p50", "us"),
    ("gensim.generate.us_p50", "us"),
    ("gensim.load_program.us_p50", "us"),
    ("gensim.run.ns_per_cycle", "ns"),
    ("gensim.translate.blocks", "count"),
    ("vlog.tech_analyze.us_p50", "us"),
    ("vlog.elaborate_levelized.us_p50", "us"),
    ("vlog.clock_levelized.ns_per_cycle", "ns"),
    ("vlog.lsim.skip_ratio", "ratio"),
    ("vlog.elaborate_event.us_p50", "us"),
    ("vlog.clock_event.ns_per_cycle", "ns"),
    ("archex.cache_key.us_p50", "us"),
    ("archex.cache_key.bytes", "bytes"),
    ("archex.compile.us_p50", "us"),
    ("archex.compile.error_ratio", "ratio"),
    ("archex.apply_mutation.us_p50", "us"),
    ("archex.evaluate_with.us_p50", "us"),
    ("archex.explore.dedup_ratio", "ratio"),
    ("archex.explore.hit_ratio", "ratio"),
    ("archex.explore.worker_imbalance", "ratio"),
    ("archex.trace.unattributed_ratio", "ratio"),
    ("archex.trace.overhead_ratio", "ratio"),
    ("isdl.parse.us", "us"),
    ("isdl.analyze.us", "us"),
    ("isdl.opt.nodes_in", "count"),
];

/// Everything the traced run produces.
pub struct TraceRun {
    /// The per-layer metrics and the run's checks.
    pub outcome: Outcome,
    /// The spans as a Chrome trace-event document.
    pub chrome: Json,
    /// Per span name: count, self-time p50 (µs), and share of the parent.
    pub rows: Vec<BenchEntry>,
}

/// The traced run on inputs from `seed`; the sweep replay repeats until
/// `budget` has elapsed.
#[must_use]
pub fn run(seed: u64, budget: Duration) -> TraceRun {
    let mut tr = Tracer::new();
    let mut checks = Checks::default();

    tr.section = "isdl";
    for rep in 0..ISDL_REPS as u64 {
        let desc = tr.time(0, "isdl.parse", rep, || isdl::parse(isdl::samples::SPAM));
        let analyzed = desc.map(|d| tr.time(0, "isdl.analyze", rep, || isdl::analyze(&d)));
        checks.op(matches!(analyzed, Ok(Ok(_))), || "SPAM does not load".to_owned());
    }
    let (replay_ms, eval_ms, compile_errors) = trace_sweep(&mut tr, seed, budget, &mut checks);
    let tables = trace_tables(&mut tr, seed, &mut checks);

    tr.section = "explore";
    let start = inputs::spam();
    let kernels = inputs::kernels(seed);
    let beam = tr
        .time(0, "archex.explore", 0, || explore::explorer(explore::BEAM, 2).run(&start, &kernels));
    checks.op(beam.is_ok(), || "the beam exploration failed".to_owned());
    let (dedup, hit, imbalance) = beam.map_or((0.0, 0.0, 0.0), |t| {
        let proposed: usize = t.obs.rounds.iter().map(|r| r.proposed).sum();
        let unique: usize = t.obs.rounds.iter().map(|r| r.unique).sum();
        let evals: Vec<f64> = t.obs.thread_evals.iter().map(|&n| n as f64).collect();
        let mean = evals.iter().sum::<f64>() / evals.len().max(1) as f64;
        let max = evals.iter().copied().fold(0.0, f64::max);
        (
            unique as f64 / proposed.max(1) as f64,
            t.cache_hits as f64 / t.candidates_evaluated().max(1) as f64,
            if mean > 0.0 { max / mean } else { 0.0 },
        )
    });

    let evaluate_parents: Vec<&Span> = tr.select("sweep", "archex.evaluate_with").collect();
    let parent_ids: std::collections::HashSet<u64> =
        evaluate_parents.iter().map(|s| s.id).collect();
    let evaluate_us: f64 = evaluate_parents.iter().map(|s| s.dur_us).sum();
    let replayed_us: f64 =
        tr.spans.iter().filter(|s| parent_ids.contains(&s.parent)).map(|s| s.dur_us).sum();
    let values = [
        tr.p50_us("sweep", "hgen.synthesize"),
        tr.p50_us("sweep", "hgen.emit"),
        tr.p50_us("sweep", "hgen.to_verilog"),
        tr.p50_us("table2", "hgen.decode_plan"),
        tr.p50_us("table2", "hgen.datapath"),
        tables.lines,
        tables.units_saved,
        tr.p50_us("sweep", "xasm.assembler_new"),
        tr.p50_us("sweep", "xasm.assemble"),
        tr.ns_per_work("sweep", "xasm.assemble"),
        tr.p50_us("sweep", "xasm.disasm"),
        tr.p50_us("sweep", "gensim.generate"),
        tr.p50_us("sweep", "gensim.load_program"),
        tr.ns_per_work("table1.xsim", "gensim.run"),
        tables.blocks,
        tr.p50_us("sweep", "vlog.tech_analyze"),
        tr.p50_us("sweep", "vlog.elaborate_levelized"),
        tr.ns_per_work("table1.levelized", "vlog.clock_levelized"),
        tables.skip_ratio,
        tr.p50_us("table1.event", "vlog.elaborate_event"),
        tr.ns_per_work("table1.event", "vlog.clock_event"),
        tr.p50_us("sweep", "archex.cache_key"),
        isdl::printer::print(&start).len() as f64,
        tr.p50_us("sweep", "archex.compile"),
        compile_errors as f64 / replay_ms.len().max(1) as f64,
        tr.p50_us("sweep", "archex.apply_mutation"),
        tr.p50_us("sweep", "archex.evaluate_with"),
        dedup,
        hit,
        imbalance,
        1.0 - replayed_us / evaluate_us.max(1e-9),
        median(&replay_ms) / median(&eval_ms).max(1e-9) - 1.0,
        tr.p50_us("isdl", "isdl.parse"),
        tr.p50_us("isdl", "isdl.analyze"),
        tables.nodes_in,
    ];
    let metrics = PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect();
    TraceRun {
        chrome: chrome_trace(&tr.spans),
        rows: layer_rows(&tr.spans),
        outcome: Outcome { metrics, checks },
    }
}

/// The spans as Chrome trace events; each span's args carry its id, its
/// parent's id, and its candidate or table-row id.
fn chrome_trace(spans: &[Span]) -> Json {
    let mut ct = obs::ChromeTrace::new();
    for s in spans {
        let args = Json::obj()
            .with("span_id", s.id)
            .with("parent_id", s.parent)
            .with("candidate", s.candidate);
        ct.complete(s.name, s.section, 1, s.start_us as u64, s.dur_us.round() as u64, args);
    }
    ct.to_json()
}

/// Per span name: how many, the median self time (duration minus the
/// children's), and the share of the parents' total time.
fn layer_rows(spans: &[Span]) -> Vec<BenchEntry> {
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut child_us: HashMap<u64, f64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_us.entry(s.parent).or_default() += s.dur_us;
    }
    let mut names: Vec<(&str, &str)> = spans.iter().map(|s| (s.section, s.name)).collect();
    names.sort_unstable();
    names.dedup();
    let mut rows = Vec::new();
    for (section, name) in names {
        let group: Vec<&Span> =
            spans.iter().filter(|s| s.section == section && s.name == name).collect();
        let self_us: Vec<f64> =
            group.iter().map(|s| s.dur_us - child_us.get(&s.id).copied().unwrap_or(0.0)).collect();
        let mut parents: Vec<u64> = group.iter().map(|s| s.parent).filter(|&p| p != 0).collect();
        parents.sort_unstable();
        parents.dedup();
        let parent_us: f64 = parents.iter().filter_map(|p| by_id.get(p)).map(|p| p.dur_us).sum();
        let own_us: f64 = group.iter().filter(|s| s.parent != 0).map(|s| s.dur_us).sum();
        let key = format!("{section}/{name}");
        rows.push(BenchEntry {
            name: format!("{key}.count"),
            value: group.len() as f64,
            unit: "count",
        });
        rows.push(BenchEntry {
            name: format!("{key}.self_us_p50"),
            value: percentile(&self_us, 50.0),
            unit: "us",
        });
        if parent_us > 0.0 {
            rows.push(BenchEntry {
                name: format!("{key}.share_of_parent"),
                value: own_us / parent_us,
                unit: "ratio",
            });
        }
    }
    rows
}
