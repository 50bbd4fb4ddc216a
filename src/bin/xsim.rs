//! `xsim` — standalone simulator driver with machine-readable reports.
//!
//! Loads an ISDL machine description, generates its XSIM simulator,
//! assembles and runs a program, and emits the versioned JSON reports
//! documented in `docs/OBSERVABILITY.md`. The simulator decodes the
//! program once, off-line, at load (§3.3.2) and executes compiled
//! bytecode, dispatched through translated basic blocks unless
//! `--no-translate` asks for one instruction at a time:
//!
//! ```text
//! xsim <machine.isdl> <prog.asm> [options]
//!   --cycles N            cycle budget (default 1000000)
//!   --max-cycles N        alias for --cycles
//!   --fuel N              instruction budget (default unlimited); a
//!                         looping program stops with `fuel exhausted`
//!   --deadline-ms N       wall-clock deadline for the run; when it
//!                         expires the simulator stops cooperatively on
//!                         an instruction boundary with `cancelled`
//!   --stats <path|->      write the `xsim-stats/1` JSON report
//!   --trace <path|->      write the `xsim-trace/1` JSON event trace
//!   --trace-capacity N    event ring-buffer capacity (default 4096)
//!   --trace-stream <path|->  stream events as JSON Lines while running
//!                         (lossless: no ring, nothing is ever dropped)
//!   --profile <path|->    enable the cycle profiler and write the
//!                         `xsim-profile/1` report
//!   --chrome-trace <path|->  write the CLI phase timings
//!                         (load/assemble/generate/run) as a Chrome
//!                         trace-event document
//!   --opt 0|1|2|3         RTL middle-end level (default 2 = aggressive;
//!                         3 = full: adds propagation, strength
//!                         reduction, load forwarding, decode sharing);
//!                         0 disables it — the differential baseline
//!   --opt-passes LIST     explicit comma-separated pass schedule
//!                         (fold,prop,strength,fwd,dead,cse,share)
//!                         overriding the level's canonical schedule
//!   --dump-rtl before|after|both
//!                         print each operation's per-phase RTL in the
//!                         canonical printed form to stderr (or stdout
//!                         when no JSON report targets it)
//!   --translate           dispatch through translated basic blocks
//!                         (default; bit-identical to the interpreter)
//!   --no-translate        force per-instruction interpretation — the
//!                         translation-tier ablation baseline
//!   --netlist-sim event|levelized
//!                         after the run halts, replay the program on
//!                         the HGEN-generated netlist with the chosen
//!                         backend and require bit-identical final
//!                         state; adds a `netlist` block (the
//!                         `vlog-stats/1` schema) to the stats report
//!   --log[=SPEC]          enable the structured event log; SPEC is
//!                         `LEVEL[,TARGET=LEVEL...]` (default `info`),
//!                         e.g. `--log=info,gensim.translate=trace`.
//!                         Events stream as `xsim-log/1` JSON Lines
//!                         and a `log` block {events, dropped} is
//!                         added to the stats report
//!   --log-out <path|->    log destination (default stderr)
//! ```
//!
//! `-` writes a report to stdout (the human-readable summary then moves
//! to stderr so the JSON stream stays parseable). On top of the library
//! schema, the CLI adds a `stop` key (the stop reason) and a
//! `timing_us` object with per-phase wall times to the stats report.

use gensim::{profile_json, stats_json, trace_json, Xsim, XsimOptions};
use obs::{ChromeTrace, Json, Registry, StreamSink};
use std::process::ExitCode;
use std::time::Instant;
use xasm::Assembler;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("xsim: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let mut pos: Vec<&str> = Vec::new();
    let mut cycles: u64 = 1_000_000;
    let mut fuel: u64 = u64::MAX;
    let mut deadline_ms: u64 = 0;
    let mut stats_out: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut trace_stream: Option<String> = None;
    let mut profile_out: Option<String> = None;
    let mut chrome_out: Option<String> = None;
    let mut trace_capacity: usize = 4096;
    let mut netlist_check: Option<vlog::SimBackend> = None;
    let mut dump_rtl: Option<isdl::opt::DumpMode> = None;
    let mut log_spec: Option<String> = None;
    let mut log_out: Option<String> = None;
    let mut options = XsimOptions::default();

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--cycles" | "--max-cycles" => {
                let v = value(&mut it, a)?;
                cycles = v.parse().map_err(|_| format!("bad cycle budget `{v}`"))?;
            }
            "--fuel" => {
                let v = value(&mut it, "--fuel")?;
                fuel = v.parse().map_err(|_| format!("bad instruction budget `{v}`"))?;
            }
            "--deadline-ms" => {
                let v = value(&mut it, "--deadline-ms")?;
                deadline_ms = v.parse().map_err(|_| format!("bad deadline `{v}`"))?;
            }
            "--stats" => stats_out = Some(value(&mut it, "--stats")?.to_owned()),
            "--trace" => trace_out = Some(value(&mut it, "--trace")?.to_owned()),
            "--trace-stream" => trace_stream = Some(value(&mut it, "--trace-stream")?.to_owned()),
            "--profile" => profile_out = Some(value(&mut it, "--profile")?.to_owned()),
            "--chrome-trace" => chrome_out = Some(value(&mut it, "--chrome-trace")?.to_owned()),
            "--trace-capacity" => {
                let v = value(&mut it, "--trace-capacity")?;
                trace_capacity = v.parse().map_err(|_| format!("bad capacity `{v}`"))?;
            }
            "--netlist-sim" => {
                let v = value(&mut it, "--netlist-sim")?;
                netlist_check =
                    Some(vlog::SimBackend::parse(v).ok_or_else(|| {
                        format!("unknown netlist backend `{v}` (event|levelized)")
                    })?);
            }
            "--translate" => options.translate = true,
            "--no-translate" => options.translate = false,
            "--opt" => {
                let v = value(&mut it, "--opt")?;
                options.opt = isdl::opt::OptLevel::parse(v)
                    .ok_or_else(|| format!("unknown opt level `{v}` (0|1|2|3)"))?;
            }
            "--opt-passes" => {
                let v = value(&mut it, "--opt-passes")?;
                options.passes = Some(isdl::opt::PassList::parse(v).ok_or_else(|| {
                    format!(
                        "bad pass list `{v}` (comma-separated subset of \
                         fold,prop,strength,fwd,dead,cse,share)"
                    )
                })?);
            }
            "--dump-rtl" => {
                let v = value(&mut it, "--dump-rtl")?;
                dump_rtl = Some(
                    isdl::opt::DumpMode::parse(v)
                        .ok_or_else(|| format!("unknown dump mode `{v}` (before|after|both)"))?,
                );
            }
            "--log" => log_spec = Some("info".to_owned()),
            "--log-out" => log_out = Some(value(&mut it, "--log-out")?.to_owned()),
            f if f.starts_with("--log=") => log_spec = Some(f["--log=".len()..].to_owned()),
            f if f.starts_with("--") => return Err(format!("unknown flag `{f}`\n{}", usage())),
            p => pos.push(p),
        }
    }
    let [machine_path, prog_path] = pos[..] else {
        return Err(usage());
    };

    if let Some(spec) = &log_spec {
        let filter = obs::LogFilter::parse(spec).map_err(|e| format!("--log: {e}"))?;
        let sink: Box<dyn std::io::Write + Send> = match log_out.as_deref() {
            None => Box::new(std::io::stderr()),
            Some("-") => Box::new(std::io::stdout()),
            Some(p) => {
                Box::new(std::fs::File::create(p).map_err(|e| format!("cannot create {p}: {e}"))?)
            }
        };
        obs::log::init(filter, sink);
    }

    // Phase timers, recorded through the metrics registry so the CLI
    // exercises the same instrumentation path as the library users.
    // The wall-clock offsets feed the Chrome trace export.
    let registry = Registry::new();
    let t_load = registry.histogram("load_us");
    let t_assemble = registry.histogram("assemble_us");
    let t_generate = registry.histogram("generate_us");
    let t_run = registry.histogram("run_us");
    let epoch = Instant::now();
    let mut phases: Vec<(&str, u64, u64)> = Vec::new();
    let us = |t: Instant| u64::try_from(t.duration_since(epoch).as_micros()).unwrap_or(u64::MAX);

    let machine = {
        let _span = t_load.span();
        let p0 = us(Instant::now());
        let src = std::fs::read_to_string(machine_path)
            .map_err(|e| format!("cannot read {machine_path}: {e}"))?;
        let machine = isdl::load(&src).map_err(|e| format!("{machine_path}: {e}"))?;
        phases.push(("load", p0, us(Instant::now()) - p0));
        machine
    };
    if let Some(mode) = dump_rtl {
        let dump = isdl::opt::dump_rtl(&machine, &options.pipeline(), mode);
        // Keep stdout clean for piped JSON reports.
        let json_on_stdout = [&stats_out, &trace_out, &trace_stream, &profile_out, &chrome_out]
            .iter()
            .any(|o| o.as_deref() == Some("-"));
        if json_on_stdout {
            eprint!("{dump}");
        } else {
            print!("{dump}");
        }
    }
    let program = {
        let _span = t_assemble.span();
        let p0 = us(Instant::now());
        let src = std::fs::read_to_string(prog_path)
            .map_err(|e| format!("cannot read {prog_path}: {e}"))?;
        let program =
            Assembler::new(&machine).assemble(&src).map_err(|e| format!("{prog_path}: {e}"))?;
        phases.push(("assemble", p0, us(Instant::now()) - p0));
        program
    };
    let mut sim = {
        let _span = t_generate.span();
        let p0 = us(Instant::now());
        let mut sim = Xsim::generate_with(&machine, options).map_err(|e| e.to_string())?;
        sim.load_program(&program);
        phases.push(("generate", p0, us(Instant::now()) - p0));
        sim
    };
    if trace_out.is_some() {
        sim.enable_event_trace(trace_capacity);
    }
    if let Some(path) = &trace_stream {
        let out: Box<dyn std::io::Write + Send> = if path == "-" {
            Box::new(std::io::stdout())
        } else {
            Box::new(std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?)
        };
        sim.set_event_sink(Box::new(StreamSink::new(out)));
    }
    if profile_out.is_some() {
        sim.enable_profile();
    }
    // The deadline is armed as late as possible: it bounds the *run*,
    // not loading or simulator generation.
    let deadline = (deadline_ms > 0)
        .then(|| archex::Deadline::arm(std::time::Duration::from_millis(deadline_ms)));
    if let Some(d) = &deadline {
        sim.set_cancel(d.flag());
    }
    let stop = {
        let _span = t_run.span();
        let p0 = us(Instant::now());
        let stop = sim.run_fuel(cycles, fuel);
        phases.push(("run", p0, us(Instant::now()) - p0));
        stop
    };
    if let Some(mut sink) = sim.take_event_sink() {
        sink.flush();
    }

    for &(name, _, dur) in &phases {
        obs::log::event_with(obs::Level::Info, "xsim.phase", name, || Json::obj().with("us", dur));
    }
    gensim::publish_opt_counters(&sim, &registry);
    gensim::publish_translate_counters(&sim, &registry);
    let netlist_block = match netlist_check {
        Some(backend) => Some(netlist_cross_check(&machine, &program, &sim, backend)?),
        None => None,
    };
    if let Some(path) = &stats_out {
        let mut stats = stats_json(&sim);
        stats.insert("stop", stop.to_string());
        if let Some(block) = &netlist_block {
            stats.insert("netlist", block.clone());
        }
        let timing = Json::obj()
            .with("load", t_load.summary().sum)
            .with("assemble", t_assemble.summary().sum)
            .with("generate", t_generate.summary().sum)
            .with("run", t_run.summary().sum);
        stats.insert("timing_us", timing);
        if log_spec.is_some() {
            // Flush first so the dispatcher's counters are final.
            obs::log::flush();
            let (events, dropped) = obs::log::stats();
            stats.insert("log", Json::obj().with("events", events).with("dropped", dropped));
        }
        write_report(path, &stats)?;
    }
    if let Some(path) = &trace_out {
        write_report(path, &trace_json(&sim))?;
    }
    if let Some(path) = &profile_out {
        write_report(path, &profile_json(&sim))?;
    }
    if let Some(path) = &chrome_out {
        let mut ct = ChromeTrace::new();
        for &(name, start, dur) in &phases {
            ct.complete(name, "xsim", 0, start, dur, Json::Null);
        }
        write_report(path, &ct.to_json())?;
    }

    // Keep stdout clean for piped JSON.
    let json_on_stdout = [&stats_out, &trace_out, &trace_stream, &profile_out, &chrome_out]
        .iter()
        .any(|o| o.as_deref() == Some("-"));
    let stats = sim.stats();
    let summary = format!(
        "stopped: {stop} after {} instructions, {} cycles ({} stalls), ipc {:.3}",
        stats.instructions,
        stats.cycles,
        stats.stall_cycles,
        stats.ipc()
    );
    if json_on_stdout {
        eprintln!("{summary}");
    } else {
        println!("{summary}");
    }
    if let Some(block) = &netlist_block {
        let verdict = format!(
            "netlist ({}) agrees after {} hardware cycles",
            block.get_str("backend").unwrap_or("?"),
            block.get_u64("cycles").unwrap_or(0),
        );
        if json_on_stdout {
            eprintln!("{verdict}");
        } else {
            println!("{verdict}");
        }
    }
    obs::log::shutdown();
    Ok(())
}

/// Synthesizes the machine, elaborates its netlist with the chosen
/// backend and runs [`archex::check_netlist`] on it. Returns the netlist
/// `vlog-stats/1` block.
fn netlist_cross_check(
    machine: &isdl::Machine,
    program: &xasm::Program,
    xsim: &Xsim<'_>,
    backend: vlog::SimBackend,
) -> Result<Json, String> {
    let hw = hgen::synthesize(machine, hgen::HgenOptions::default())
        .map_err(|e| format!("netlist check: synthesis failed: {e}"))?;
    let mut sim = hw.simulator(backend).map_err(|e| format!("netlist check: {e}"))?;
    archex::check_netlist(machine, &mut sim, program, xsim)
        .map_err(|e| format!("netlist check: {e}"))?;
    Ok(vlog::stats_json(&sim))
}

fn value<'a>(it: &mut std::slice::Iter<'a, String>, flag: &str) -> Result<&'a str, String> {
    it.next().map(String::as_str).ok_or_else(|| format!("{flag} needs a value"))
}

fn write_report(path: &str, json: &Json) -> Result<(), String> {
    let text = json.to_pretty();
    if path == "-" {
        print!("{text}");
        Ok(())
    } else {
        std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))
    }
}

fn usage() -> String {
    "usage: xsim <machine.isdl> <prog.asm> [--cycles N] [--fuel N] [--deadline-ms N] \
     [--stats <path|->] \
     [--trace <path|->] [--trace-capacity N] [--trace-stream <path|->] [--profile <path|->] \
     [--chrome-trace <path|->] [--opt 0|1|2|3] \
     [--opt-passes fold,prop,...] [--dump-rtl before|after|both] \
     [--translate|--no-translate] [--netlist-sim event|levelized] \
     [--log[=LEVEL[,TARGET=LEVEL...]]] [--log-out <path|->]"
        .to_owned()
}
