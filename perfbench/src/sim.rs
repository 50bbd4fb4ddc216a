//! The paper's tables: simulator speed on SPAM FIR (Table 1, one
//! workload per tier) and HGEN synthesis (Table 2).
//!
//! These workloads bypass everything exploration-specific (the cache,
//! the search, mutation), and exploration bypasses most of what they
//! time, so an optimisation aimed at one side should leave the other
//! unchanged.

use crate::inputs;
use crate::stats::ms_since;
use crate::{measure, pins, Checks, Outcome, Samples};
use archex::{compile, Kernel};
use bitv::BitVector;
use gensim::{StopReason, Xsim};
use hgen::{synthesize, HgenOptions};
use isdl::Machine;
use std::time::{Duration, Instant};
use vlog::{AnySim, SimBackend};
use xasm::{Assembler, Program};

/// Cycles per timed XSIM chunk (about 0.1 s).
pub const XSIM_CHUNK: u64 = 2_000_000;
/// Cycles per timed levelized-netlist chunk.
pub const LSIM_CHUNK: u64 = 50_000;
/// Cycles per timed event-netlist chunk.
pub const ESIM_CHUNK: u64 = 5_000;

/// Compiles and assembles `kernel` for `machine`.
///
/// # Panics
///
/// If the kernel does not compile or assemble: SPAM runs every kernel
/// the workloads generate.
#[must_use]
pub fn assembled(machine: &Machine, kernel: &Kernel) -> Program {
    let compiled = compile(machine, kernel).expect("the kernel compiles for SPAM");
    Assembler::new(machine).assemble(&compiled.asm).expect("generated assembly assembles")
}

/// Data-memory words `base..base + n` of an XSIM run.
fn xsim_dm(sim: &Xsim<'_>, base: u64, n: usize) -> Vec<u64> {
    let (dm, _) = inputs::data_memory(sim.machine()).expect("SPAM has a data memory");
    (base..base + n as u64).map(|a| sim.state().read_u64(dm, a)).collect()
}

/// Runs a program from reset until it halts; `None` if it does not.
fn run_to_halt<'m>(machine: &'m Machine, program: &Program) -> Option<Xsim<'m>> {
    let mut sim = Xsim::generate(machine).ok()?;
    sim.load_program(program);
    (sim.run(10_000_000) == StopReason::Halted).then_some(sim)
}

/// `xsim_fir`: Table 1's XSIM row. The FIR program runs on the default
/// (translated) tier in chunks of [`XSIM_CHUNK`] cycles, restarting
/// whenever it halts. Throughput is simulated cycles per second; latency
/// is one chunk.
#[must_use]
pub fn xsim_fir(seed: u64, budget: Duration) -> Outcome {
    let fir = inputs::fir(seed);
    let mut checks = Checks::default();
    let mut samples = Samples::default();
    let setup = || {
        // The simulator borrows its machine for as long as it lives; each
        // set-up repetition leaks one small machine to give it that.
        let machine: &'static Machine = Box::leak(Box::new(inputs::spam()));
        let program = assembled(machine, &fir);
        let mut sim = Xsim::generate(machine).expect("SPAM generates");
        sim.load_program(&program);
        bench::run_cycles(&mut sim, &program, XSIM_CHUNK);
        (machine, program, sim)
    };
    let ((machine, program, sim), setup_s) = measure(budget, setup, |(_, program, sim)| {
        let t0 = Instant::now();
        let done = bench::run_cycles(sim, program, XSIM_CHUNK);
        let ms = ms_since(t0);
        samples.latency_ms.push(ms);
        samples.rate(done as f64, ms);
        // A chunk ends at an instruction boundary, so it may overshoot.
        checks.op(done >= XSIM_CHUNK, || format!("chunk ran {done} cycles"));
    });

    let (base, expected) = inputs::fir_expected(&fir);
    checks.op(xsim_dm(&sim, base, expected.len()) == expected, || {
        "looped FIR outputs are wrong".to_owned()
    });
    match run_to_halt(machine, &program) {
        Some(once) => {
            checks.op(xsim_dm(&once, base, expected.len()) == expected, || {
                "FIR outputs are wrong".to_owned()
            });
            if seed == 0 {
                checks.pinned("xsim_fir.fir_cycles", &once.stats().cycles.to_string());
            }
        }
        None => checks.op(false, || "the FIR program did not halt".to_owned()),
    }
    let dot = inputs::dot(seed);
    let (addr, product) = inputs::dot_expected(&dot);
    let dot_ok = run_to_halt(machine, &assembled(machine, &dot))
        .is_some_and(|s| xsim_dm(&s, addr, 1) == [product]);
    checks.op(dot_ok, || "the dot product differs from its reference".to_owned());
    Outcome { metrics: samples.end_to_end(setup_s), checks }
}

/// Pokes `program` into an elaborated netlist of `machine`'s hardware:
/// the instruction words and the data-memory image, as the exploration's
/// netlist cross-check does.
///
/// # Errors
///
/// A memory the netlist does not have.
pub fn load_netlist(
    machine: &Machine,
    sim: &mut AnySim,
    program: &Program,
) -> Result<(), vlog::VlogError> {
    let imem = &machine.storage(machine.imem.expect("validated machines have an imem")).name;
    let w = machine.word_width;
    for (a, word) in program.words.iter().enumerate() {
        sim.poke_memory(imem, a as u64, word.trunc(w).zext(w))?;
    }
    if let Some((_, dm)) = inputs::data_memory(machine) {
        for &(addr, v) in &program.data {
            sim.poke_memory(&dm.name, addr, BitVector::from_i64(v, dm.width))?;
        }
    }
    Ok(())
}

/// `lsim_fir` and `esim_fir`: Table 1's netlist rows. The HGEN netlist
/// of SPAM is clocked in fixed chunks after the FIR program is loaded
/// (as `bench::measure_table1` does: the program finishes early and the
/// rest is its final self-loop). Throughput is simulated cycles per
/// second; latency is one chunk.
#[must_use]
pub fn netlist_fir(seed: u64, budget: Duration, backend: SimBackend) -> Outcome {
    let fir = inputs::fir(seed);
    let chunk = match backend {
        SimBackend::Levelized => LSIM_CHUNK,
        SimBackend::Event => ESIM_CHUNK,
    };
    let mut checks = Checks::default();
    let mut samples = Samples::default();
    let setup = || {
        let machine = inputs::spam();
        let program = assembled(&machine, &fir);
        let hw = synthesize(&machine, HgenOptions::default()).expect("SPAM synthesizes");
        let mut sim = hw.simulator(backend).expect("SPAM elaborates");
        load_netlist(&machine, &mut sim, &program).expect("the program loads");
        sim.clock(chunk).expect("the netlist clocks");
        (machine, sim)
    };
    let ((machine, sim), setup_s) = measure(budget, setup, |(_, sim)| {
        let t0 = Instant::now();
        let clocked = sim.clock(chunk);
        let ms = ms_since(t0);
        samples.latency_ms.push(ms);
        samples.rate(chunk as f64, ms);
        checks.op(clocked.is_ok(), || format!("clocking failed: {clocked:?}"));
    });
    let (base, expected) = inputs::fir_expected(&fir);
    let dm = &inputs::data_memory(&machine).expect("SPAM has a data memory").1.name;
    let got: Vec<Option<u64>> = (0..expected.len() as u64)
        .map(|i| sim.peek_memory(dm, base + i).ok().map(|v| v.to_u64_lossy()))
        .collect();
    checks.op(got.iter().zip(&expected).all(|(g, e)| *g == Some(*e)), || {
        format!("netlist FIR outputs {got:?}, expected {expected:?}")
    });
    Outcome { metrics: samples.end_to_end(setup_s), checks }
}

/// `synth_spam`: Table 2. `hgen::synthesize(SPAM)` back to back, each
/// result checked against the pinned row; the SPAM2 row is checked once
/// afterwards. Throughput is syntheses per second; latency is one call.
/// The inputs do not depend on the seed, so the pins apply to every
/// seed.
#[must_use]
pub fn synth_spam(_seed: u64, budget: Duration) -> Outcome {
    let mut checks = Checks::default();
    let mut samples = Samples::default();
    let setup = || {
        let spam = inputs::spam();
        let spam2 = isdl::load(isdl::samples::SPAM2).expect("the SPAM2 sample loads");
        let _ = synthesize(&spam, HgenOptions::default());
        (spam, spam2)
    };
    let ((_, spam2), setup_s) = measure(budget, setup, |(spam, _)| {
        let t0 = Instant::now();
        let r = synthesize(spam, HgenOptions::default());
        let ms = ms_since(t0);
        samples.latency_ms.push(ms);
        samples.rate(1.0, ms);
        match r {
            Ok(r) => checks.pinned("table2/SPAM", &pins::table2_row(&r)),
            Err(e) => checks.op(false, || format!("SPAM synthesis failed: {e}")),
        }
    });
    match synthesize(&spam2, HgenOptions::default()) {
        Ok(r) => checks.pinned("table2/SPAM2", &pins::table2_row(&r)),
        Err(e) => checks.op(false, || format!("SPAM2 synthesis failed: {e}")),
    }
    Outcome { metrics: samples.end_to_end(setup_s), checks }
}

/// Seed-0 digests of the simulator and synthesis workloads, for
/// `benchmark pins`.
#[must_use]
pub fn pin_entries() -> Vec<(String, String)> {
    let machine = inputs::spam();
    let fir = assembled(&machine, &inputs::fir(0));
    let cycles = run_to_halt(&machine, &fir).map_or(0, |s| s.stats().cycles);
    let mut out = vec![("xsim_fir.fir_cycles".to_owned(), cycles.to_string())];
    let spam2 = isdl::load(isdl::samples::SPAM2).expect("the SPAM2 sample loads");
    for (name, m) in [("SPAM", &machine), ("SPAM2", &spam2)] {
        let row = synthesize(m, HgenOptions::default())
            .map_or_else(|e| e.to_string(), |r| pins::table2_row(&r));
        out.push((format!("table2/{name}"), row));
    }
    out
}
