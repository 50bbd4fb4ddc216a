//! `isdlc` — the command-line driver for the ISDL tool chain.
//!
//! ```text
//! isdlc check   <machine.isdl>                      validate and summarize
//! isdlc print   <machine.isdl>                      pretty-print the resolved description
//! isdlc opt     <machine.isdl> [--opt=N] [--opt-passes=LIST] [--dump-rtl=before|after|both]
//!                                                   run the RTL middle-end and report its
//!                                                   schedule and per-pass work; --dump-rtl
//!                                                   prints canonical RTL per (op, phase)
//! isdlc sample  <toy|acc16|widemul|spam|spam2>      print an embedded sample description
//! isdlc asm     <machine.isdl> <prog.asm>           assemble; hex words to stdout
//! isdlc disasm  <machine.isdl> <prog.asm>           assemble then disassemble (listing)
//! isdlc run     <machine.isdl> <prog.asm> [cycles] [--fuel=N] [--opt=N] [--profile[=PATH]]
//!                                                   simulate; prints stats + final state;
//!                                                   --profile adds a cycle-attribution summary
//!                                                   (=PATH writes the full xsim-profile/1 report)
//! isdlc batch   <machine.isdl> <prog.asm> <script>  run a simulator batch script
//! isdlc explore <machine.isdl> [--steps=N] [--beam=N] [--threads=N] [--chrome-trace=PATH]
//!               [--netlist-sim=event|levelized]  cross-check every evaluation on the netlist
//!               [--journal=PATH] [--deadline-ms=N] [--max-attempts=N] [--trace-out=PATH]
//!               [--progress[=MS]] [--progress-out=PATH] [--metrics-out=PATH]
//!                                                   run the Figure 1 exploration loop on the
//!                                                   built-in DSP workload; --chrome-trace writes
//!                                                   the round/eval timeline for chrome://tracing.
//!                                                   --journal checkpoints every round to PATH
//!                                                   (fsynced; an existing journal is resumed)
//!                                                   and directs flight-recorder dumps to
//!                                                   PATH.flight/; SIGINT/SIGTERM finish the
//!                                                   in-flight round, leave a resumable journal,
//!                                                   and exit 75. --progress prints a live
//!                                                   heartbeat one-liner to stderr every MS
//!                                                   milliseconds (default: every round);
//!                                                   --progress-out streams `archex-progress/1`
//!                                                   JSON Lines; --metrics-out atomically
//!                                                   rewrites a Prometheus textfile per beat.
//!                                                   --fault=STAGE:NTH (robustness testing)
//!                                                   arms a contained panic at the NTH fresh
//!                                                   evaluation inside STAGE
//!                                                   (compile|assemble|gensim|simulate|synthesize)
//!
//! Every command also accepts `--log[=LEVEL[,TARGET=LEVEL...]]` (structured
//! `xsim-log/1` events, default level info) and `--log-out=PATH` (default
//! stderr).
//! isdlc journal compact <in> <out>                  collapse a journal to header + snapshot
//! isdlc verilog <machine.isdl> [--no-share] [--naive-decode] [--opt=N|--no-opt]
//! isdlc report  <machine.isdl> [--no-share] [--naive-decode] [--opt=N|--no-opt]
//! isdlc wave    <machine.isdl> <prog.asm> [cycles] [--netlist-sim=event|levelized]
//!                                                   VCD waveform of the HW model to stdout
//! isdlc hex     <machine.isdl> <prog.asm>           $readmemh program image to stdout
//! isdlc tb      <machine.isdl> [cycles]             Verilog test bench to stdout
//! ```

use gensim::{cli, Xsim};
use hgen::{synthesize, DecodeStyle, HgenOptions, ShareOptions};
use std::io::Write as _;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use xasm::Assembler;

/// Exit code of a run interrupted by SIGINT/SIGTERM: the in-flight
/// round was finished, the journal checkpoint is clean and resumable.
/// (75 = EX_TEMPFAIL: "try again".)
const EXIT_INTERRUPTED: u8 = 75;

/// The shutdown flag shared between the signal handler and the
/// explorer. Created *before* the handlers are installed, so the
/// handler body is a plain atomic store — the only thing that is
/// async-signal-safe.
static SHUTDOWN: OnceLock<Arc<AtomicBool>> = OnceLock::new();

extern "C" fn on_shutdown_signal(_sig: i32) {
    if let Some(flag) = SHUTDOWN.get() {
        flag.store(true, Ordering::Relaxed);
    }
}

/// Installs SIGINT/SIGTERM handlers that request a cooperative
/// shutdown, returning the flag the explorer polls at round
/// boundaries.
fn install_shutdown_handlers() -> Arc<AtomicBool> {
    let flag = SHUTDOWN.get_or_init(|| Arc::new(AtomicBool::new(false))).clone();
    #[cfg(unix)]
    {
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        // SIGINT = 2, SIGTERM = 15 on every unix this builds for.
        unsafe {
            signal(2, on_shutdown_signal);
            signal(15, on_shutdown_signal);
        }
    }
    flag
}

fn shutdown_requested() -> bool {
    SHUTDOWN.get().is_some_and(|f| f.load(Ordering::Relaxed))
}

/// Journal sink for `explore --journal=PATH`: writes to `PATH.tmp`,
/// fsyncs on every flush (each journal event is a durable checkpoint),
/// and atomically renames over `PATH` at the *first* flush — which the
/// explorer issues only once the full resume checkpoint is written. A
/// kill at any byte offset therefore leaves either the previous
/// journal or a strictly more informed replacement, never less.
struct PersistFile {
    file: std::fs::File,
    tmp: std::path::PathBuf,
    path: std::path::PathBuf,
    renamed: bool,
}

impl std::io::Write for PersistFile {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.file.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.file.sync_all()?;
        if !self.renamed {
            std::fs::rename(&self.tmp, &self.path)?;
            self.renamed = true;
        }
        Ok(())
    }
}

/// Writes `content` to `path` durably: temp file, fsync, atomic rename.
fn write_atomic(path: &str, content: &str) -> Result<(), String> {
    let tmp = format!("{path}.tmp");
    let fail = |e: std::io::Error| format!("cannot write {path}: {e}");
    let mut f = std::fs::File::create(&tmp).map_err(fail)?;
    f.write_all(content.as_bytes()).map_err(fail)?;
    f.sync_all().map_err(fail)?;
    drop(f);
    std::fs::rename(&tmp, path).map_err(fail)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) if shutdown_requested() => ExitCode::from(EXIT_INTERRUPTED),
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("isdlc: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(cmd) = args.first() else {
        return Err(usage());
    };
    let flags: Vec<&str> =
        args.iter().skip(1).filter(|a| a.starts_with("--")).map(String::as_str).collect();
    let pos: Vec<&String> = args.iter().skip(1).filter(|a| !a.starts_with("--")).collect();

    let log_spec = flags
        .iter()
        .find_map(|f| f.strip_prefix("--log=").map(str::to_owned))
        .or_else(|| flags.contains(&"--log").then(|| "info".to_owned()));
    if let Some(spec) = &log_spec {
        let filter = obs::LogFilter::parse(spec).map_err(|e| format!("--log: {e}"))?;
        let sink: Box<dyn std::io::Write + Send> =
            match flags.iter().find_map(|f| f.strip_prefix("--log-out=")) {
                None => Box::new(std::io::stderr()),
                Some("-") => Box::new(std::io::stdout()),
                Some(p) => Box::new(
                    std::fs::File::create(p).map_err(|e| format!("cannot create {p}: {e}"))?,
                ),
            };
        obs::log::init(filter, sink);
    }
    let outcome = dispatch(cmd, &flags, &pos);
    obs::log::shutdown();
    outcome
}

fn dispatch(cmd: &str, flags: &[&str], pos: &[&String]) -> Result<(), String> {
    let load = |i: usize| -> Result<isdl::Machine, String> {
        let path = pos.get(i).ok_or_else(usage)?;
        let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        isdl::load(&src).map_err(|e| format!("{path}: {e}"))
    };
    let read_file = |i: usize| -> Result<String, String> {
        let path = pos.get(i).ok_or_else(usage)?;
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
    };
    let opt_level = || -> Result<isdl::opt::OptLevel, String> {
        if flags.contains(&"--no-opt") {
            return Ok(isdl::opt::OptLevel::None);
        }
        flags.iter().find_map(|f| f.strip_prefix("--opt=")).map_or(
            Ok(isdl::opt::OptLevel::default()),
            |v| {
                isdl::opt::OptLevel::parse(v)
                    .ok_or_else(|| format!("unknown opt level `{v}` (0|1|2|3)"))
            },
        )
    };
    let opt_passes = || -> Result<Option<isdl::opt::PassList>, String> {
        flags.iter().find_map(|f| f.strip_prefix("--opt-passes=")).map_or(Ok(None), |v| {
            isdl::opt::PassList::parse(v).map(Some).ok_or_else(|| {
                format!(
                    "bad pass list `{v}` (comma-separated subset of \
                     fold,prop,strength,fwd,dead,cse,share)"
                )
            })
        })
    };
    let pipeline = || -> Result<isdl::opt::Pipeline, String> {
        let level = opt_level()?;
        Ok(match opt_passes()? {
            Some(list) => isdl::opt::Pipeline::with_passes(level, list),
            None => isdl::opt::Pipeline::for_level(level),
        })
    };
    let hgen_options = || -> Result<HgenOptions, String> {
        Ok(HgenOptions {
            decode: if flags.contains(&"--naive-decode") {
                DecodeStyle::NaiveComparator
            } else {
                DecodeStyle::TwoLevel
            },
            share: if flags.contains(&"--no-share") {
                ShareOptions { enabled: false, ..ShareOptions::default() }
            } else {
                ShareOptions::default()
            },
            opt: opt_level()?,
            passes: opt_passes()?,
        })
    };

    let netlist_sim = || -> Result<vlog::SimBackend, String> {
        flags.iter().find_map(|f| f.strip_prefix("--netlist-sim=")).map_or(
            Ok(vlog::SimBackend::default()),
            |v| {
                vlog::SimBackend::parse(v)
                    .ok_or_else(|| format!("unknown netlist backend `{v}` (event|levelized)"))
            },
        )
    };

    match cmd {
        "check" => {
            let m = load(0)?;
            println!("machine `{}`: word {} bits", m.name, m.word_width);
            println!(
                "  {} storages, {} tokens, {} non-terminals",
                m.storages.len(),
                m.tokens.len(),
                m.nonterminals.len()
            );
            for f in &m.fields {
                println!("  field {}: {} operations", f.name, f.ops.len());
            }
            println!("  {} constraints, {} share hints", m.constraints.len(), m.share_hints.len());
            let lints = isdl::lint::lint(&m);
            for l in &lints {
                println!("  warning: {l}");
            }
            if lints.is_empty() {
                println!("  no lints");
            }
            Ok(())
        }
        "print" => {
            let m = load(0)?;
            print!("{}", isdl::printer::print(&m));
            Ok(())
        }
        "opt" => {
            // Run the middle-end over every operation and show its
            // work: the schedule, per-pass eliminations, and (with
            // --dump-rtl) the canonical-printed RTL per (op, phase).
            let m = load(0)?;
            let pl = pipeline()?;
            let mut stats = isdl::opt::OptStats::default();
            for f in &m.fields {
                for op in &f.ops {
                    for phase in [&op.action, &op.side_effects] {
                        if !phase.is_empty() {
                            let _ = pl.run(phase, &mut stats);
                        }
                    }
                }
            }
            println!("machine `{}`: opt level {}", m.name, pl.level());
            println!("  schedule         {pl}");
            println!(
                "  nodes            {} -> {} ({} eliminated)",
                stats.nodes_before,
                stats.nodes_after,
                stats.nodes_eliminated()
            );
            for p in &stats.passes {
                println!(
                    "  pass {:<12} {:>3} runs  {:>5} -> {:<5} nodes  {:>4} rewrites",
                    p.name, p.runs, p.nodes_in, p.nodes_out, p.rewrites
                );
            }
            if let Some(v) = flags.iter().find_map(|f| f.strip_prefix("--dump-rtl=")) {
                let mode = isdl::opt::DumpMode::parse(v)
                    .ok_or_else(|| format!("unknown dump mode `{v}` (before|after|both)"))?;
                print!("{}", isdl::opt::dump_rtl(&m, &pl, mode));
            }
            Ok(())
        }
        "sample" => {
            let name = pos.first().ok_or_else(usage)?;
            let src = match name.as_str() {
                "toy" => isdl::samples::TOY,
                "acc16" => isdl::samples::ACC16,
                "spam" => isdl::samples::SPAM,
                "spam2" => isdl::samples::SPAM2,
                "widemul" => isdl::samples::WIDEMUL,
                other => {
                    return Err(format!("unknown sample `{other}` (toy|acc16|widemul|spam|spam2)"))
                }
            };
            print!("{src}");
            Ok(())
        }
        "asm" => {
            let m = load(0)?;
            let src = read_file(1)?;
            let p = Assembler::new(&m).assemble(&src).map_err(|e| e.to_string())?;
            for (a, w) in p.words.iter().enumerate() {
                println!("{a:04x}: {w:x}");
            }
            Ok(())
        }
        "disasm" => {
            let m = load(0)?;
            let src = read_file(1)?;
            let p = Assembler::new(&m).assemble(&src).map_err(|e| e.to_string())?;
            let d = xasm::Disassembler::new(&m);
            let mut a = 0u64;
            while (a as usize) < p.words.len() {
                let window =
                    &p.words[a as usize..(a as usize + d.max_size() as usize).min(p.words.len())];
                match d.decode(window, a) {
                    Ok(i) => {
                        println!("{a:04x}: {}", d.format_instr(&i));
                        a += u64::from(i.size);
                    }
                    Err(_) => {
                        println!("{a:04x}: .word 0x{:x}", p.words[a as usize]);
                        a += 1;
                    }
                }
            }
            Ok(())
        }
        "run" => {
            let m = load(0)?;
            let src = read_file(1)?;
            let cycles: u64 = pos.get(2).map_or(Ok(1_000_000), |c| {
                c.parse().map_err(|_| format!("bad cycle budget `{c}`"))
            })?;
            let fuel: u64 =
                flags.iter().find_map(|f| f.strip_prefix("--fuel=")).map_or(Ok(u64::MAX), |v| {
                    v.parse().map_err(|_| format!("bad instruction budget `{v}`"))
                })?;
            let p = Assembler::new(&m).assemble(&src).map_err(|e| e.to_string())?;
            let options = gensim::XsimOptions {
                opt: opt_level()?,
                passes: opt_passes()?,
                ..Default::default()
            };
            let mut sim = Xsim::generate_with(&m, options).map_err(|e| e.to_string())?;
            sim.load_program(&p);
            let profiling = flags.iter().any(|f| *f == "--profile" || f.starts_with("--profile="));
            if profiling {
                sim.enable_profile();
            }
            let stop = sim.run_fuel(cycles, fuel);
            let stats = sim.stats();
            println!(
                "stopped: {stop} after {} instructions, {} cycles ({} stalls)",
                stats.instructions, stats.cycles, stats.stall_cycles
            );
            for (fi, f) in m.fields.iter().enumerate() {
                println!(
                    "  field {}: {:.1}% utilized",
                    f.name,
                    100.0 * stats.field_utilization(fi)
                );
            }
            for (si, s) in m.storages.iter().enumerate() {
                use isdl::model::StorageKind::*;
                if matches!(s.kind, InstructionMemory) {
                    continue;
                }
                if s.kind.is_addressed() {
                    // Print only non-zero cells to keep output readable.
                    let nz: Vec<String> = (0..s.cells())
                        .filter_map(|a| {
                            let v = sim.state().read(isdl::rtl::StorageId(si), a);
                            (!v.is_zero()).then(|| format!("[{a}]={v:x}"))
                        })
                        .collect();
                    if !nz.is_empty() {
                        println!("  {}: {}", s.name, nz.join(" "));
                    }
                } else {
                    let v = sim.state().read(isdl::rtl::StorageId(si), 0);
                    println!("  {} = {v}", s.name);
                }
            }
            if profiling {
                let report = gensim::profile_json(&sim);
                if let Some(path) = flags.iter().find_map(|f| f.strip_prefix("--profile=")) {
                    std::fs::write(path, report.to_pretty())
                        .map_err(|e| format!("cannot write {path}: {e}"))?;
                }
                print_profile_summary(&report);
            }
            Ok(())
        }
        "batch" => {
            let m = load(0)?;
            let src = read_file(1)?;
            let script = read_file(2)?;
            let p = Assembler::new(&m).assemble(&src).map_err(|e| e.to_string())?;
            let mut sim = Xsim::generate(&m).map_err(|e| e.to_string())?;
            sim.load_program(&p);
            print!("{}", cli::run_batch(&mut sim, &script));
            Ok(())
        }
        "wave" => {
            let m = load(0)?;
            let src = read_file(1)?;
            let cycles: u64 = pos
                .get(2)
                .map_or(Ok(64), |c| c.parse().map_err(|_| format!("bad cycle budget `{c}`")))?;
            let p = Assembler::new(&m).assemble(&src).map_err(|e| e.to_string())?;
            let r = synthesize(&m, hgen_options()?).map_err(|e| e.to_string())?;
            let mut sim = r.simulator(netlist_sim()?).map_err(|e| e.to_string())?;
            hgen::load_program(&m, &mut sim, &p).map_err(|e| e.to_string())?;
            sim.start_vcd(Box::new(std::io::stdout())).map_err(|e| e.to_string())?;
            sim.clock(cycles).map_err(|e| e.to_string())?;
            Ok(())
        }
        "hex" => {
            let m = load(0)?;
            let src = read_file(1)?;
            let p = Assembler::new(&m).assemble(&src).map_err(|e| e.to_string())?;
            print!("{}", p.to_hex());
            Ok(())
        }
        "tb" => {
            let m = load(0)?;
            let cycles: u64 = pos
                .get(1)
                .map_or(Ok(1_000), |c| c.parse().map_err(|_| format!("bad cycle budget `{c}`")))?;
            let name: String = m
                .name
                .chars()
                .map(|c| if c.is_ascii_alphanumeric() || c == '_' { c } else { '_' })
                .collect();
            let tb = hgen::emit_testbench(
                &m,
                &name,
                &hgen::TestbenchOptions { cycles, ..hgen::TestbenchOptions::default() },
            );
            print!("{tb}");
            Ok(())
        }
        "explore" => {
            let m = load(0)?;
            let num = |prefix: &str, default: usize| -> Result<usize, String> {
                flags.iter().find_map(|f| f.strip_prefix(prefix)).map_or(Ok(default), |v| {
                    v.parse().map_err(|_| format!("bad value `{v}` for {prefix}N"))
                })
            };
            let steps = num("--steps=", 6)?;
            let beam = num("--beam=", 0)?;
            let threads = num("--threads=", 0)?;
            let deadline_ms = num("--deadline-ms=", 0)? as u64;
            let max_attempts = num("--max-attempts=", 1)?;
            let shutdown = install_shutdown_handlers();
            let progress_ms = flags
                .iter()
                .find_map(|f| f.strip_prefix("--progress="))
                .map(|v| v.parse::<u64>().map_err(|_| format!("bad interval `{v}`")))
                .transpose()?
                .or_else(|| flags.contains(&"--progress").then_some(0));
            let fault_plan = flags
                .iter()
                .find_map(|f| f.strip_prefix("--fault="))
                .map(|v| -> Result<archex::FaultPlan, String> {
                    let (stage, nth) =
                        v.split_once(':').ok_or_else(|| format!("bad fault `{v}` (STAGE:NTH)"))?;
                    let stage = match stage {
                        "compile" => archex::Stage::Compile,
                        "assemble" => archex::Stage::Assemble,
                        "gensim" => archex::Stage::Gensim,
                        "simulate" => archex::Stage::Simulate,
                        "synthesize" => archex::Stage::Synthesize,
                        other => {
                            return Err(format!(
                            "unknown stage `{other}` (compile|assemble|gensim|simulate|synthesize)"
                        ))
                        }
                    };
                    let nth = nth.parse().map_err(|_| format!("bad fault index `{nth}`"))?;
                    Ok(archex::FaultPlan::panic_at(stage, nth))
                })
                .transpose()?;
            let progress_out = flags.iter().find_map(|f| f.strip_prefix("--progress-out="));
            let metrics_out = flags.iter().find_map(|f| f.strip_prefix("--metrics-out="));
            let progress =
                if progress_ms.is_some() || progress_out.is_some() || metrics_out.is_some() {
                    let jsonl: Option<archex::ProgressSink> = match progress_out {
                        None => None,
                        Some(p) => Some(std::sync::Arc::new(std::sync::Mutex::new(
                            std::fs::File::create(p)
                                .map_err(|e| format!("cannot create {p}: {e}"))?,
                        ))),
                    };
                    let human: Option<archex::ProgressSink> =
                        progress_ms.is_some().then(|| -> archex::ProgressSink {
                            std::sync::Arc::new(std::sync::Mutex::new(std::io::stderr()))
                        });
                    Some(archex::Progress {
                        interval_ms: progress_ms.unwrap_or(0),
                        jsonl,
                        human,
                        metrics_out: metrics_out.map(std::path::PathBuf::from),
                    })
                } else {
                    None
                };
            let explorer = archex::Explorer {
                max_steps: steps,
                strategy: if beam > 1 {
                    archex::Strategy::Beam { width: beam }
                } else {
                    archex::Strategy::Greedy
                },
                threads,
                retry: archex::RetryPolicy { max_attempts: max_attempts.max(1) },
                deadline_ms,
                shutdown: Some(shutdown),
                netlist_check: match flags.iter().find(|f| f.starts_with("--netlist-sim=")) {
                    Some(_) => archex::NetlistCheck::Run(netlist_sim()?),
                    None => archex::NetlistCheck::Off,
                },
                progress,
                fault_plan,
                ..archex::Explorer::default()
            };
            let kernels =
                vec![archex::workloads::dot_product(4), archex::workloads::vector_update(3)];
            let trace = if let Some(path) = flags.iter().find_map(|f| f.strip_prefix("--journal="))
            {
                // Post-mortem dumps (contained panics, deadline expiry,
                // journal corruption) land next to the journal they
                // belong to.
                obs::flight::set_dump_dir(Some(std::path::PathBuf::from(format!("{path}.flight"))));
                let previous = match std::fs::read_to_string(path) {
                    Ok(text) => text,
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
                    Err(e) => return Err(format!("cannot read {path}: {e}")),
                };
                let tmp = format!("{path}.tmp");
                let file =
                    std::fs::File::create(&tmp).map_err(|e| format!("cannot create {tmp}: {e}"))?;
                let mut sink =
                    PersistFile { file, tmp: tmp.into(), path: path.into(), renamed: false };
                explorer
                    .resume_or_start_journaled(
                        &m,
                        &kernels,
                        &archex::EvalCache::new(),
                        &previous,
                        &mut sink,
                    )
                    .map_err(|e| e.to_string())?
            } else {
                explorer.run(&m, &kernels).map_err(|e| e.to_string())?
            };
            println!(
                "explored `{}`: {} candidates ({} fresh, {} cached, {} skipped)",
                m.name,
                trace.candidates_evaluated(),
                trace.evaluated,
                trace.cache_hits,
                trace.skipped_errors,
            );
            if trace.retried > 0 {
                println!(
                    "  {} transient failures retried ({} attempts for {} evaluations)",
                    trace.retried, trace.attempts, trace.evaluated
                );
            }
            for (kind, n) in &trace.error_histogram {
                println!("  errors[{kind}]: {n}");
            }
            for s in &trace.steps {
                println!(
                    "  {:<28} score {:>8.4}  runtime {:>9.2} us  area {:>8.0} cells",
                    s.action, s.score, s.metrics.runtime_us, s.metrics.area_cells
                );
            }
            if let Some(path) = flags.iter().find_map(|f| f.strip_prefix("--chrome-trace=")) {
                let doc = archex::chrome_trace(&trace);
                std::fs::write(path, doc.to_pretty())
                    .map_err(|e| format!("cannot write {path}: {e}"))?;
                println!("chrome trace written to {path} (open in chrome://tracing or Perfetto)");
            }
            if let Some(path) = flags.iter().find_map(|f| f.strip_prefix("--trace-out=")) {
                write_atomic(path, &trace.to_json().to_pretty())?;
            }
            if shutdown_requested() {
                let hint = if flags.iter().any(|f| f.starts_with("--journal=")) {
                    "; the journal checkpoint is clean — rerun to resume"
                } else {
                    ""
                };
                eprintln!(
                    "isdlc: interrupted after {} of {steps} rounds{hint}",
                    trace.steps.len().saturating_sub(1)
                );
            }
            Ok(())
        }
        "journal" => {
            let action = pos.first().ok_or_else(usage)?;
            if action.as_str() != "compact" {
                return Err(format!("unknown journal action `{action}` (compact)"));
            }
            let input = pos.get(1).ok_or_else(usage)?;
            let output = pos.get(2).ok_or_else(usage)?;
            let text =
                std::fs::read_to_string(input).map_err(|e| format!("cannot read {input}: {e}"))?;
            let compacted = archex::compact(&text).map_err(|e| e.to_string())?;
            write_atomic(output, &compacted)?;
            println!(
                "compacted {input} ({} lines) to {output} ({} lines)",
                text.lines().count(),
                compacted.lines().count()
            );
            Ok(())
        }
        "verilog" => {
            let m = load(0)?;
            let r = synthesize(&m, hgen_options()?).map_err(|e| e.to_string())?;
            print!("{}", r.verilog);
            Ok(())
        }
        "report" => {
            let m = load(0)?;
            let r = synthesize(&m, hgen_options()?).map_err(|e| e.to_string())?;
            println!("machine `{}`:", m.name);
            println!("  cycle length     {:.1} ns", r.report.cycle_ns);
            println!("  critical path    {:.1} ns", r.report.critical_path_ns);
            println!("  die size         {} grid cells", r.report.area_cells as u64);
            for (k, v) in {
                let mut v: Vec<_> = r.report.area_breakdown.iter().collect();
                v.sort_by(|a, b| a.0.cmp(b.0));
                v
            } {
                println!("    {k:<14} {} cells", *v as u64);
            }
            println!(
                "  state            {} ff bits + {} memory bits",
                r.report.ff_bits, r.report.mem_bits
            );
            println!("  power            {:.1} mW at fmax", r.report.power_mw);
            println!("  verilog          {} lines", r.lines_of_verilog);
            println!(
                "  datapath         {} nodes -> {} units ({} saved by sharing)",
                r.stats.nodes, r.stats.units, r.stats.units_saved
            );
            println!(
                "  middle-end       {} RTL nodes -> {} ({} CSE hits, opt level {})",
                r.stats.opt.nodes_before,
                r.stats.opt.nodes_after,
                r.stats.opt.cse_hits,
                hgen_options()?.opt
            );
            println!("    schedule       {}", hgen_options()?.pipeline());
            for p in &r.stats.opt.passes {
                println!(
                    "    pass {:<10} {:>3} runs  {:>5} -> {:<5} nodes  {:>4} rewrites",
                    p.name, p.runs, p.nodes_in, p.nodes_out, p.rewrites
                );
            }
            println!("  synthesis time   {:.3} s", r.synthesis_time_s);
            Ok(())
        }
        _ => Err(usage()),
    }
}

/// Renders the gprof-style tail of `isdlc run --profile`: cycles by
/// region, then the hottest stalling PCs with their attributed cause.
fn print_profile_summary(report: &obs::Json) {
    use obs::Json;
    let total = report.get_f64("cycles").unwrap_or(0.0).max(1.0);
    let mut regions: Vec<&Json> = report
        .get("regions")
        .and_then(Json::as_arr)
        .map(|a| a.iter().collect())
        .unwrap_or_default();
    regions.sort_by_key(|r| std::cmp::Reverse(r.get_u64("cycles").unwrap_or(0)));
    println!("profile (cycles by region):");
    for r in &regions {
        let cycles = r.get_u64("cycles").unwrap_or(0);
        println!(
            "  {:<16} {:>8} cycles ({:>5.1}%)  {:>6} stalls  {:>6} issues",
            r.get_str("name").unwrap_or("?"),
            cycles,
            100.0 * cycles as f64 / total,
            r.get_u64("stall_cycles").unwrap_or(0),
            r.get_u64("issues").unwrap_or(0),
        );
    }
    let mut pcs: Vec<&Json> =
        report.get("pcs").and_then(Json::as_arr).map(|a| a.iter().collect()).unwrap_or_default();
    pcs.retain(|p| p.get_u64("stall_cycles").unwrap_or(0) > 0);
    pcs.sort_by_key(|p| std::cmp::Reverse(p.get_u64("stall_cycles").unwrap_or(0)));
    if !pcs.is_empty() {
        println!("hottest stalls:");
    }
    for p in pcs.iter().take(5) {
        let cause = p.get("stall_cause");
        let kind = cause.and_then(|c| c.get_str("kind")).unwrap_or("?");
        let storage = cause.and_then(|c| c.get_str("storage")).unwrap_or("?");
        let producer = cause.and_then(|c| c.get_u64("producer_pc")).unwrap_or(0);
        println!(
            "  pc {:>4}: {:>6} stall cycles ({kind} hazard on {storage}, producer pc {producer})",
            p.get_u64("pc").unwrap_or(0),
            p.get_u64("stall_cycles").unwrap_or(0),
        );
    }
}

fn usage() -> String {
    "usage: isdlc <check|print|opt|sample|asm|disasm|run|batch|explore|journal|verilog|report|\
     wave|hex|tb> <machine.isdl> [args] [--no-share] [--naive-decode] [--fuel=N] [--opt=0|1|2|3] \
     [--opt-passes=fold,prop,...] [--dump-rtl=before|after|both] \
     [--no-opt] [--profile[=PATH]] [--steps=N] [--beam=N] [--threads=N] [--chrome-trace=PATH] \
     [--netlist-sim=event|levelized] [--journal=PATH] [--deadline-ms=N] [--max-attempts=N] \
     [--trace-out=PATH] [--progress[=MS]] [--progress-out=PATH] [--metrics-out=PATH] \
     [--fault=STAGE:NTH] [--log[=LEVEL[,TARGET=LEVEL...]]] [--log-out=PATH]"
        .to_owned()
}
