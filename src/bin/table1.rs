//! Regenerates Table 1 of the paper: simulation speed of the
//! GENSIM-generated XSIM instruction-level simulator versus simulating
//! the HGEN-generated synthesizable Verilog model, both executing the
//! same FIR program on SPAM.
//!
//! It then prints the XSIM configuration table behind EXPERIMENTS.md's
//! Ablations D (translated tier) and F (RTL middle-end levels): the
//! speed of each configuration on the SPAM FIR and on dense TOY and
//! WIDEMUL programs. Each row changes one option against the default
//! translated tier.
//!
//! ```sh
//! cargo run --release --bin table1
//! ```

use bench::{cycles_per_second, fir_program, run_cycles, spam_machine};
use gensim::{Xsim, XsimOptions};
use isdl::opt::OptLevel;
use isdl::Machine;
use std::time::{Duration, Instant};
use xasm::{Assembler, Program};

/// Cycles per `run_cycles` call in the configuration table.
const CHUNK: u64 = 20_000;
/// Timed samples per configuration table cell; the cell is their median.
const SAMPLES: usize = 5;
/// Minimum timed span of one sample.
const SAMPLE_TIME: Duration = Duration::from_millis(100);

/// Straight-line TOY code in which every instruction does ALU or MAC
/// work in both fields, looping back forever: the case where the
/// processing core's cost dominates scheduling overhead (Ablation D).
fn dense_toy_program(machine: &Machine) -> Program {
    let mut src = String::from("start: clracc\n");
    for i in 0..200u32 {
        let (d, a, b) = (i % 8, (i + 1) % 8, (i + 3) % 8);
        let line = match i % 5 {
            0 => format!("add R{d}, R{a}, reg(R{b}) | mv R{b}, R{a}\n"),
            1 => format!("sub R{d}, R{a}, ind(R{b}) | mv R{a}, R{d}\n"),
            2 => format!("xor R{d}, R{a}, reg(R{b}) | mv R{b}, R{d}\n"),
            3 => format!("mac R{a}, R{b}\n"),
            _ => format!("li R{d}, {} | mv R{a}, R{b}\n", i % 256),
        };
        src.push_str(&line);
    }
    src.push_str("jmp start\n");
    Assembler::new(machine).assemble(&src).expect("the dense TOY program assembles")
}

/// WIDEMUL code in which every instruction does arithmetic the
/// middle-end can narrow, fold, share, strength-reduce or forward
/// (Ablation F). `wdiv`, `wrem` and `dsum` stay on the wide fallback
/// lane until opt3. It fills the 64-word instruction memory, and the
/// 6-bit PC wraps from the last word to the first, so it loops forever.
fn dense_widemul_program(machine: &Machine) -> Program {
    let mut src = String::new();
    for i in 0..64u32 {
        let line = match i % 8 {
            0 => format!("lia {}\n", i % 256),
            1 => format!("lib {}\n", (i * 7) % 256),
            2 => "wmul\n".to_owned(),
            3 => "sqs\n".to_owned(),
            4 => "wdiv\n".to_owned(),
            5 => "wrem\n".to_owned(),
            6 => format!("dsum {}\n", i % 16),
            _ => "redund\n".to_owned(),
        };
        src.push_str(&line);
    }
    Assembler::new(machine).assemble(&src).expect("the dense WIDEMUL program assembles")
}

/// Simulated cycles per second of one sample: `run_cycles` chunks until
/// [`SAMPLE_TIME`] has passed.
fn sample(sim: &mut Xsim<'_>, program: &Program) -> f64 {
    let t0 = Instant::now();
    let mut done = 0;
    while t0.elapsed() < SAMPLE_TIME {
        done += run_cycles(sim, program, CHUNK);
    }
    cycles_per_second(done, t0.elapsed())
}

/// The XSIM configurations of Ablations D and F: the interpreted
/// bytecode core, and the translated tier at every middle-end level.
fn configurations() -> [(&'static str, XsimOptions); 5] {
    let interpreted = XsimOptions { translate: false, ..XsimOptions::default() };
    let translated = |opt| XsimOptions { opt, ..XsimOptions::default() };
    [
        ("interpreted: bytecode core (D)", interpreted),
        ("translated: opt0 (F)", translated(OptLevel::None)),
        ("translated: opt1 (F)", translated(OptLevel::Basic)),
        ("translated: opt2, the default (D, F)", translated(OptLevel::Aggressive)),
        ("translated: opt3 (F)", translated(OptLevel::Full)),
    ]
}

/// The configuration table's workloads: the SPAM FIR, dense TOY and
/// dense WIDEMUL, each with its machine.
fn workloads() -> [(Machine, Program); 3] {
    let spam = spam_machine();
    let toy = isdl::load(isdl::samples::TOY).expect("TOY loads");
    let widemul = isdl::load(isdl::samples::WIDEMUL).expect("WIDEMUL loads");
    let (fir, dense_toy, dense_widemul) =
        (fir_program(&spam), dense_toy_program(&toy), dense_widemul_program(&widemul));
    [(spam, fir), (toy, dense_toy), (widemul, dense_widemul)]
}

/// The configuration table: one row per XSIM configuration, one column
/// per workload, in M cycles/sec. Each cell is the median of
/// [`SAMPLES`] samples taken after one untimed chunk. The samples are
/// taken round-robin over all cells, so a slow spell of a shared host
/// lands on every cell alike.
fn configuration_table() -> String {
    let workloads = workloads();
    let configs = configurations();
    let mut cells: Vec<(Xsim<'_>, &Program, Vec<f64>)> = configs
        .iter()
        .flat_map(|&(_, options)| {
            workloads.iter().map(move |(machine, program)| {
                let mut sim = Xsim::generate_with(machine, options).expect("the sample generates");
                sim.load_program(program);
                run_cycles(&mut sim, program, CHUNK);
                (sim, program, Vec::with_capacity(SAMPLES))
            })
        })
        .collect();
    for _ in 0..SAMPLES {
        for (sim, program, rates) in &mut cells {
            rates.push(sample(sim, program));
        }
    }

    let mut s = String::from("XSIM configurations (M cycles/sec)\n");
    s.push_str(&format!(
        "{:<52} {:>9} {:>10} {:>14}\n",
        "configuration", "SPAM FIR", "dense TOY", "dense WIDEMUL"
    ));
    let medians: Vec<f64> = cells
        .into_iter()
        .map(|(_, _, mut rates)| {
            rates.sort_by(f64::total_cmp);
            rates[SAMPLES / 2] / 1e6
        })
        .collect();
    for ((name, _), row) in configs.iter().zip(medians.chunks(workloads.len())) {
        s.push_str(&format!("{name:<52} {:>9.2} {:>10.2} {:>14.2}\n", row[0], row[1], row[2]));
    }
    s
}

fn main() {
    let rows = bench::measure_table1(4_000_000, 60_000);
    print!("{}", bench::format_table1(&rows));
    println!();
    println!("paper (Sun Ultra 30/300, Cadence Verilog-XL): 69,102 vs 879 cycles/sec, 78.6x;");
    println!(
        "shape check: the ILS wins by {:.0}x here — same order of magnitude, same conclusion.",
        rows[0].speedup
    );
    println!();
    print!("{}", configuration_table());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_configuration_runs_every_workload() {
        let workloads = workloads();
        for (name, options) in configurations() {
            for (machine, program) in &workloads {
                let mut sim = Xsim::generate_with(machine, options).expect("the sample generates");
                sim.load_program(program);
                // `run_cycles` panics on any stop but a halt or the limit;
                // the budget spans more than one pass of every program.
                let done = run_cycles(&mut sim, program, 1_000);
                assert!(done >= 1_000, "{name} on {}: ran {done} cycles", machine.name);
            }
        }
    }
}
