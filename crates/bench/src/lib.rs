#![deny(missing_docs)]
#![deny(clippy::unwrap_used)]

//! Shared workloads and renderers for the paper's evaluation (see
//! `DESIGN.md` §3 and `EXPERIMENTS.md` for the paper-vs-measured
//! record).
//!
//! The `table1`/`table2` binaries in the umbrella crate, the
//! `experiments_doc` test that checks `EXPERIMENTS.md`, and the layered
//! benchmark under `perfbench/` all build on these helpers, so every
//! experiment runs the exact same workload.

pub mod report;

pub use report::{bench_json, BenchEntry, BENCH_SCHEMA};

use archex::{compile, workloads, Explorer, Kernel, Strategy, Trace};
use gensim::{StopReason, Xsim, XsimOptions};
use hgen::{synthesize, HgenOptions, HgenResult};
use isdl::Machine;
use vlog::{AnySim, SimBackend};
use xasm::{Assembler, Program};

/// The workload used by Table 1 and the simulator ablations: an FIR
/// filter on SPAM, looped forever (so any cycle budget can be
/// measured).
#[must_use]
pub fn spam_machine() -> Machine {
    isdl::load(isdl::samples::SPAM).expect("SPAM fixture loads")
}

/// The SPAM2 machine of Table 2's second row.
#[must_use]
pub fn spam2_machine() -> Machine {
    isdl::load(isdl::samples::SPAM2).expect("SPAM2 fixture loads")
}

/// Compiles the benchmark FIR kernel for `machine` and assembles it.
///
/// # Panics
///
/// Panics if the kernel does not compile — the fixtures always do.
#[must_use]
pub fn fir_program(machine: &Machine) -> Program {
    let kernel: Kernel = workloads::fir(4, 12);
    let compiled = compile(machine, &kernel).expect("kernel compiles for fixture");
    Assembler::new(machine).assemble(&compiled.asm).expect("generated assembly is valid")
}

/// A ready-to-run XSIM instance with the FIR program loaded.
///
/// # Panics
///
/// Panics if simulator generation fails (fixtures always succeed).
#[must_use]
pub fn xsim_with_fir(machine: &Machine, options: XsimOptions) -> Xsim<'_> {
    let program = fir_program(machine);
    let mut sim = Xsim::generate_with(machine, options).expect("generates");
    sim.load_program(&program);
    sim
}

/// Runs `sim` for exactly `cycles` cycles, restarting the program
/// whenever it halts (the kernel is finite; speed measurement needs an
/// endless supply of work).
pub fn run_cycles(sim: &mut Xsim<'_>, program: &Program, cycles: u64) -> u64 {
    let start = sim.stats().cycles;
    while sim.stats().cycles - start < cycles {
        match sim.run(cycles - (sim.stats().cycles - start)) {
            StopReason::Halted => {
                // Re-enter the program without resetting counters or
                // re-running the off-line decode pass.
                sim.restart_at(program.entry);
            }
            StopReason::CycleLimit => break,
            other => panic!("unexpected stop while benchmarking: {other}"),
        }
    }
    sim.stats().cycles - start
}

/// An elaborated netlist simulator of the chosen backend with the FIR
/// program loaded — the netlist rows of Table 1.
///
/// # Panics
///
/// Panics if synthesis or elaboration fails.
#[must_use]
pub fn netlist_with_fir(machine: &Machine, backend: SimBackend) -> (HgenResult, AnySim) {
    let program = fir_program(machine);
    let hw = synthesize(machine, HgenOptions::default()).expect("synthesizes");
    let mut sim = hw.simulator(backend).expect("elaborates");
    hgen::load_program(machine, &mut sim, &program).expect("the program loads");
    (hw, sim)
}

/// The DSP workload every exploration benchmark and ablation runs:
/// dot product plus vector update, sized to finish quickly.
#[must_use]
pub fn explore_kernels() -> Vec<Kernel> {
    vec![workloads::dot_product(4), workloads::vector_update(3)]
}

/// Runs the Figure 1 exploration loop on `machine` with the shared
/// benchmark workload, using `threads` frontier workers (`0` = one per
/// core). The trace is identical at every thread count — the engine
/// reduces results serially in proposal order — so thread count is
/// purely a wall-clock knob here.
///
/// # Panics
///
/// Panics if the starting machine does not evaluate (fixtures always
/// do).
#[must_use]
pub fn run_exploration(machine: &Machine, strategy: Strategy, threads: usize) -> Trace {
    let explorer = Explorer { max_steps: 6, strategy, threads, ..Explorer::default() };
    explorer.run(machine, &explore_kernels()).expect("fixture machines evaluate")
}

/// Measures simulation speed in cycles per second.
#[must_use]
pub fn cycles_per_second(cycles: u64, elapsed: std::time::Duration) -> f64 {
    cycles as f64 / elapsed.as_secs_f64().max(1e-12)
}

/// One row of Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Model name.
    pub model: &'static str,
    /// Measured speed, cycles per second.
    pub speed: f64,
    /// Speedup relative to the slowest row.
    pub speedup: f64,
}

/// Measures Table 1: XSIM vs the synthesizable-Verilog model (both
/// netlist backends), all executing the FIR program on SPAM. Speedups
/// are relative to the slowest row, the event-driven netlist — the
/// Verilog-XL stand-in the paper measured.
#[must_use]
pub fn measure_table1(xsim_cycles: u64, hw_cycles: u64) -> Vec<Table1Row> {
    let machine = spam_machine();
    let program = fir_program(&machine);

    let mut sim = xsim_with_fir(&machine, XsimOptions::default());
    let t0 = std::time::Instant::now();
    let done = run_cycles(&mut sim, &program, xsim_cycles);
    let ils_speed = cycles_per_second(done, t0.elapsed());

    let (_, mut hw) = netlist_with_fir(&machine, SimBackend::Event);
    let t0 = std::time::Instant::now();
    hw.clock(hw_cycles).expect("clocks");
    let hw_speed = cycles_per_second(hw_cycles, t0.elapsed());

    let (_, mut lev) = netlist_with_fir(&machine, SimBackend::Levelized);
    let t0 = std::time::Instant::now();
    lev.clock(hw_cycles).expect("clocks");
    let lev_speed = cycles_per_second(hw_cycles, t0.elapsed());

    vec![
        Table1Row {
            model: "XSIM (ILS) Simulator",
            speed: ils_speed,
            speedup: ils_speed / hw_speed,
        },
        Table1Row { model: "Levelized Netlist", speed: lev_speed, speedup: lev_speed / hw_speed },
        Table1Row { model: "Synthesizable Verilog", speed: hw_speed, speedup: 1.0 },
    ]
}

/// One row of Table 2.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// Processor name.
    pub processor: String,
    /// Achievable cycle length, ns.
    pub cycle_ns: f64,
    /// Lines of generated Verilog.
    pub lines_of_verilog: usize,
    /// Die size estimate, grid cells.
    pub die_size_cells: f64,
    /// Synthesis wall-clock time, seconds.
    pub synthesis_time_s: f64,
}

/// Measures Table 2: HGEN synthesis statistics for SPAM and SPAM2.
#[must_use]
pub fn measure_table2() -> Vec<Table2Row> {
    [spam_machine(), spam2_machine()]
        .iter()
        .map(|m| {
            let r = synthesize(m, HgenOptions::default()).expect("synthesizes");
            Table2Row {
                processor: m.name.to_uppercase(),
                cycle_ns: r.report.cycle_ns,
                lines_of_verilog: r.lines_of_verilog,
                die_size_cells: r.report.area_cells,
                synthesis_time_s: r.synthesis_time_s,
            }
        })
        .collect()
}

/// Renders Table 1 in the paper's layout.
#[must_use]
pub fn format_table1(rows: &[Table1Row]) -> String {
    let mut s =
        String::from("Table 1: Simulation Speeds for XSIM vs Hardware Model (SPAM, FIR kernel)\n");
    s.push_str(&format!("{:<24} {:>20} {:>9}\n", "Model", "Speed (cycles/sec)", "Speedup"));
    for r in rows {
        s.push_str(&format!("{:<24} {:>20.0} {:>9.1}\n", r.model, r.speed, r.speedup));
    }
    s
}

/// Renders Table 2 in the paper's layout.
#[must_use]
pub fn format_table2(rows: &[Table2Row]) -> String {
    let mut s = String::from("Table 2: Hardware Synthesis Statistics\n");
    s.push_str(&format!(
        "{:<10} {:>10} {:>10} {:>22} {:>19}\n",
        "Processor", "Cycle(ns)", "Lines of", "Die Size(grid cells)", "Synthesis time(s)"
    ));
    s.push_str(&format!("{:<10} {:>10} {:>10} {:>22} {:>19}\n", "", "", "Verilog", "", ""));
    for r in rows {
        s.push_str(&format!(
            "{:<10} {:>10.1} {:>10} {:>22.0} {:>19.3}\n",
            r.processor, r.cycle_ns, r.lines_of_verilog, r.die_size_cells, r.synthesis_time_s
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_shape_holds() {
        // Tiny budgets keep the test fast; the *shape* — the ILS is
        // substantially faster than the netlist model — must hold even
        // at small scale.
        let rows = measure_table1(20_000, 400);
        assert_eq!(rows.len(), 3);
        assert!(
            rows[0].speedup > 5.0,
            "ILS should be much faster than event-driven netlist simulation, got {:.1}x",
            rows[0].speedup
        );
        assert!(
            rows[1].speedup > 1.0,
            "the levelized backend should beat the event-driven one, got {:.1}x",
            rows[1].speedup
        );
        let rendered = format_table1(&rows);
        assert!(rendered.contains("XSIM"));
        assert!(rendered.contains("Levelized"));
    }

    #[test]
    fn table2_shape_holds() {
        let rows = measure_table2();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].processor, "SPAM");
        assert!(rows[0].die_size_cells > rows[1].die_size_cells, "SPAM bigger than SPAM2");
        assert!(rows[0].lines_of_verilog > rows[1].lines_of_verilog);
        let rendered = format_table2(&rows);
        assert!(rendered.contains("SPAM2"));
    }

    #[test]
    fn exploration_helper_improves_toy() {
        let start = isdl::load(isdl::samples::TOY).expect("loads");
        let trace = run_exploration(&start, Strategy::Greedy, 1);
        assert!(trace.steps.len() > 1, "found at least one improvement");
        assert!(trace.evaluated > 0);
        let parallel = run_exploration(&start, Strategy::Greedy, 4);
        assert!(trace.semantic_eq(&parallel), "thread count cannot change the result");
    }

    #[test]
    fn run_cycles_restarts_program() {
        let m = spam_machine();
        let program = fir_program(&m);
        let mut sim = xsim_with_fir(&m, XsimOptions::default());
        let done = run_cycles(&mut sim, &program, 5_000);
        assert!(done >= 5_000, "kept running across restarts: {done}");
    }
}
