//! Differential tests for the RTL middle-end ([`isdl::opt`]).
//!
//! The optimizer's contract is semantic invisibility: at every
//! `OptLevel`, in the simulator and in the generated hardware, programs
//! must produce bit-identical architectural state. These tests pin that
//! contract for the simulator across the shared corpus, and pin the
//! acceptance-level wins — WIDEMUL's 128-bit multiply narrowing onto
//! the u64 bytecode lane, and nonzero eliminations in `xsim-stats/1`.
//! `tests/netlist_differential.rs` checks the hardware generated at
//! every level against the simulator over the same corpus.

mod corpus;

use bitv::BitVector;
use corpus::{corpus, full_state, LEVELS, WIDEMUL_DIV_PROG, WIDEMUL_PROG};
use gensim::{StopReason, Xsim, XsimOptions};
use isdl::opt::OptLevel;
use isdl::Machine;
use xasm::{Assembler, Program};

fn run_at(
    machine: &Machine,
    program: &Program,
    opt: OptLevel,
) -> (StopReason, u64, Vec<BitVector>) {
    let options = XsimOptions { opt, ..XsimOptions::default() };
    let mut sim = Xsim::generate_with(machine, options).expect("generates");
    sim.load_program(program);
    let stop = sim.run(1_000_000);
    (stop, sim.stats().cycles, full_state(machine, &sim))
}

#[test]
fn every_sample_machine_is_bit_identical_across_opt_levels() {
    for (name, machine, asm) in corpus() {
        let program = Assembler::new(&machine).assemble(&asm).expect("assembles");
        let baseline = run_at(&machine, &program, OptLevel::None);
        assert_eq!(baseline.0, StopReason::Halted, "{name}: corpus program must halt");
        for opt in LEVELS {
            assert_eq!(run_at(&machine, &program, opt), baseline, "{name} diverges at opt={opt}");
        }
    }
}

/// The construct program's results, worked out by hand from the RTL
/// semantics: the `max` takes its else arm (F = 3), the comparisons are
/// signed at the 16-bit operand width, and the concat and the
/// destination slice land on their exact bits. A corpus edit that
/// stops a construct from mattering fails here.
#[test]
fn constructs_program_computes_the_documented_values() {
    let machine = isdl::load(corpus::CONSTRUCTS).expect("loads");
    let program = Assembler::new(&machine).assemble(corpus::CONSTRUCTS_PROG).expect("assembles");
    let mut sim = Xsim::generate(&machine).expect("generates");
    sim.load_program(&program);
    assert_eq!(sim.run(1_000), StopReason::Halted);
    let rf = machine.storage_by_name("RF").expect("RF").0;
    let f = machine.storage_by_name("F").expect("F").0;
    let regs: Vec<u64> = (0..8).map(|r| sim.state().read_u64(rf, r)).collect();
    assert_eq!(regs, [0xfcff, 0xfc0f, 0xffff, 0x0fc4, 0, 1, 3, 0xfffc]);
    assert_eq!(sim.state().read_u64(f, 0), 3, "the else arm ran");
}

#[test]
fn widemul_narrowing_moves_wide_ops_onto_the_u64_lane() {
    let machine = isdl::load(isdl::samples::WIDEMUL).expect("loads");
    let program = Assembler::new(&machine).assemble(WIDEMUL_PROG).expect("assembles");
    let run = |opt: OptLevel| {
        let mut sim = Xsim::generate_with(&machine, XsimOptions { opt, ..XsimOptions::default() })
            .expect("generates");
        sim.load_program(&program);
        assert_eq!(sim.run(1_000), StopReason::Halted);
        sim
    };
    let raw = run(OptLevel::None);
    let opt = run(OptLevel::default());
    assert!(raw.wide_fallbacks() > 0, "unoptimized wmul exceeds the u64 bytecode lanes");
    assert_eq!(opt.wide_fallbacks(), 0, "narrowing must reclaim every wide plan");
    assert!(opt.opt_stats().narrowed > 0, "stats must record the narrowing");
    assert_eq!(full_state(&machine, &raw), full_state(&machine, &opt));
    // trunc(zext(A,128) * zext(B,128), 16) twice from 255×255, then
    // sqs and redund — fixed by the ISA, independent of opt level.
    let a = machine.storage_by_name("A").expect("A").0;
    assert_eq!(opt.state().read_u64(a, 0), 0xf004);
}

/// Level 3's acceptance gate: the wide divides that defeat narrowing
/// at level 2 are strength-reduced into shifts/masks at level 3 and
/// retire onto the u64 bytecode lane, bit-identically.
#[test]
fn widemul_level3_retires_the_wide_divides_at_runtime() {
    let machine = isdl::load(isdl::samples::WIDEMUL).expect("loads");
    let program = Assembler::new(&machine).assemble(WIDEMUL_DIV_PROG).expect("assembles");
    let run = |opt: OptLevel| {
        let mut sim = Xsim::generate_with(&machine, XsimOptions { opt, ..XsimOptions::default() })
            .expect("generates");
        sim.load_program(&program);
        assert_eq!(sim.run(1_000), StopReason::Halted);
        sim
    };
    let aggressive = run(OptLevel::Aggressive);
    let full = run(OptLevel::Full);
    assert!(
        aggressive.wide_fallbacks() > 0,
        "wide divides must defeat narrowing at level 2 (the ablation baseline)"
    );
    assert_eq!(full.wide_fallbacks(), 0, "strength reduction must reclaim every wide divide");
    assert!(full.opt_stats().strength_reduced >= 2, "both divides strength-reduce");
    assert!(full.opt_stats().loads_forwarded > 0, "dsum's repeated load forwards");
    assert_eq!(full_state(&machine, &aggressive), full_state(&machine, &full));
}

/// The per-pass stats in `xsim-stats/1` must exactly partition the
/// pipeline totals: signed per-pass node deltas telescope to
/// `nodes_before - nodes_after`, and the printed schedule matches the
/// passes array.
#[test]
fn stats_json_per_pass_rows_partition_the_totals() {
    let machine = isdl::load(isdl::samples::WIDEMUL).expect("loads");
    let program = Assembler::new(&machine).assemble(WIDEMUL_PROG).expect("assembles");
    for opt in LEVELS {
        let mut sim = Xsim::generate_with(&machine, XsimOptions { opt, ..XsimOptions::default() })
            .expect("generates");
        sim.load_program(&program);
        sim.run(1_000);
        let j = gensim::stats_json(&sim);
        let o = j.get("opt").expect("opt block");
        let schedule = o.get_str("schedule").expect("schedule");
        let passes = o.get("passes").and_then(obs::Json::as_arr).expect("passes array");
        let names: Vec<&str> =
            passes.iter().map(|p| p.get_str("name").expect("pass name")).collect();
        if names.is_empty() {
            assert_eq!(schedule, "(none)", "level {opt}: empty schedule prints (none)");
        } else {
            assert_eq!(schedule, names.join(","), "level {opt}: schedule matches pass order");
        }
        let delta: i64 = passes
            .iter()
            .map(|p| {
                let nodes_in = p.get_u64("nodes_in").expect("nodes_in") as i64;
                let nodes_out = p.get_u64("nodes_out").expect("nodes_out") as i64;
                nodes_in - nodes_out
            })
            .sum();
        let before = o.get_u64("nodes_before").expect("nodes_before") as i64;
        let after = o.get_u64("nodes_after").expect("nodes_after") as i64;
        assert_eq!(delta, before - after, "level {opt}: per-pass deltas partition the total");
    }
}

#[test]
fn stats_json_reports_the_opt_block() {
    let machine = isdl::load(isdl::samples::WIDEMUL).expect("loads");
    let program = Assembler::new(&machine).assemble(WIDEMUL_PROG).expect("assembles");
    let run = |opt: OptLevel| {
        let mut sim = Xsim::generate_with(&machine, XsimOptions { opt, ..XsimOptions::default() })
            .expect("generates");
        sim.load_program(&program);
        sim.run(1_000);
        gensim::stats_json(&sim)
    };

    let j = run(OptLevel::default());
    assert_eq!(j.get_str("schema"), Some("xsim-stats/1"), "opt block rides the existing schema");
    let o = j.get("opt").expect("stats carry an opt block");
    assert_eq!(o.get_str("level"), Some("2"));
    let before = o.get_u64("nodes_before").expect("nodes_before");
    let after = o.get_u64("nodes_after").expect("nodes_after");
    let eliminated = o.get_u64("nodes_eliminated").expect("nodes_eliminated");
    assert_eq!(eliminated, before - after);
    assert!(eliminated > 0, "a sample machine must report nonzero eliminations");
    assert!(o.get_u64("cse_hits").expect("cse_hits") > 0);
    assert!(o.get_u64("narrowed").expect("narrowed") > 0);
    assert_eq!(o.get_u64("wide_fallbacks"), Some(0));

    // Level 0 is a true baseline: the block is present, all zeros.
    let j0 = run(OptLevel::None);
    let o0 = j0.get("opt").expect("opt block present at level 0");
    assert_eq!(o0.get_str("level"), Some("0"));
    for key in ["nodes_before", "nodes_after", "nodes_eliminated", "folded", "cse_hits", "narrowed"]
    {
        assert_eq!(o0.get_u64(key), Some(0), "level 0 must not touch `{key}`");
    }
    assert!(j0.get("opt").expect("opt").get_u64("wide_fallbacks").expect("wide") > 0);
}
