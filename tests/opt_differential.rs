//! Differential tests for the RTL middle-end ([`isdl::opt`]).
//!
//! The optimizer's contract is semantic invisibility: at every
//! `OptLevel`, on both simulator cores, and in the generated hardware,
//! programs must produce bit-identical architectural state. These
//! tests pin that contract across every sample machine, and pin the
//! acceptance-level wins — WIDEMUL's 128-bit multiply narrowing onto
//! the u64 bytecode lane, and nonzero eliminations in `xsim-stats/1`.

use bitv::BitVector;
use gensim::{CoreKind, StopReason, Xsim, XsimOptions};
use hgen::HgenOptions;
use isdl::opt::OptLevel;
use isdl::Machine;
use xasm::{Assembler, Program};

const LEVELS: [OptLevel; 4] =
    [OptLevel::None, OptLevel::Basic, OptLevel::Aggressive, OptLevel::Full];

/// Exercises every operation class of the WIDEMUL sample, including
/// the wide multiply twice (so truncation wrap-around matters) and a
/// store so memory state is covered. A trailing `nop` sled (memory
/// reads as zero) keeps extra hardware clocks state-neutral.
const WIDEMUL_PROG: &str = "\
    lia 255
    lib 255
    wmul
    wmul
    sqs
    redund
    sta 3
    halt
";

/// Exercises the wide divide/remainder ops that stay on the wide
/// fallback lane until level 3's strength reduction, plus the repeated
/// indexed load that load forwarding collapses. Level 3's acceptance
/// gate: bit-identical to level 0 with zero wide fallbacks.
const WIDEMUL_DIV_PROG: &str = "\
    lia 240
    lib 77
    wdiv
    wrem
    sta 5
    dsum 5
    wdiv
    sta 6
    halt
";

const ACC16_SUM: &str = "\
start: ldi 10
       sta 1
loop:  lda 0
       addm 1
       sta 0
       lda 1
       subm one
       sta 1
       jnz loop
       lda 0
end:   jmp end
.data
.org 60
one:   .word 1
";

const TOY_MIXED: &str = "\
start: li R1, 5
       li R2, 7
       li R3, 30
       add R4, R1, reg(R2) | mv R5, R1
       st 30, R4
       sub R6, R4, ind(R3)
       xor R7, R6, reg(R4)
       clracc
       mac R1, R2
       mac R6, R7
       nop
       mvacc R0
end:   jmp end
";

/// Every sample machine paired with a program that halts (or
/// self-loops) under XSIM. The SPAM programs come from the paper's
/// compiled workloads, so the corpus includes compiler-shaped code.
fn corpus() -> Vec<(&'static str, Machine, String)> {
    let spam = isdl::load(isdl::samples::SPAM).expect("spam loads");
    let spam_asm = archex::compile(&spam, &archex::workloads::fir(3, 8)).expect("compiles").asm;
    let spam2 = isdl::load(isdl::samples::SPAM2).expect("spam2 loads");
    let spam2_asm =
        archex::compile(&spam2, &archex::workloads::vector_update(4)).expect("compiles").asm;
    vec![
        ("toy", isdl::load(isdl::samples::TOY).expect("loads"), TOY_MIXED.to_owned()),
        ("acc16", isdl::load(isdl::samples::ACC16).expect("loads"), ACC16_SUM.to_owned()),
        ("widemul", isdl::load(isdl::samples::WIDEMUL).expect("loads"), WIDEMUL_PROG.to_owned()),
        (
            "widemul-div",
            isdl::load(isdl::samples::WIDEMUL).expect("loads"),
            WIDEMUL_DIV_PROG.to_owned(),
        ),
        ("spam", spam, spam_asm),
        ("spam2", spam2, spam2_asm),
    ]
}

/// Reads every cell of every storage (program counter included) so a
/// divergence anywhere in architectural state fails the comparison.
fn full_state(machine: &Machine, sim: &Xsim<'_>) -> Vec<BitVector> {
    let mut out = Vec::new();
    for (i, s) in machine.storages.iter().enumerate() {
        for a in 0..s.cells() {
            out.push(sim.state().read(isdl::rtl::StorageId(i), a).clone());
        }
    }
    out
}

fn run_at(
    machine: &Machine,
    program: &Program,
    opt: OptLevel,
    core: CoreKind,
) -> (StopReason, u64, Vec<BitVector>) {
    let options = XsimOptions { core, opt, ..XsimOptions::default() };
    let mut sim = Xsim::generate_with(machine, options).expect("generates");
    sim.load_program(program);
    let stop = sim.run(1_000_000);
    (stop, sim.stats().cycles, full_state(machine, &sim))
}

#[test]
fn every_sample_machine_is_bit_identical_across_opt_levels_and_cores() {
    for (name, machine, asm) in corpus() {
        let program = Assembler::new(&machine).assemble(&asm).expect("assembles");
        let baseline = run_at(&machine, &program, OptLevel::None, CoreKind::Bytecode);
        assert_eq!(baseline.0, StopReason::Halted, "{name}: corpus program must halt");
        for opt in LEVELS {
            for core in [CoreKind::Bytecode, CoreKind::Tree] {
                let got = run_at(&machine, &program, opt, core);
                assert_eq!(got, baseline, "{name} diverges at opt={opt} core={core:?}");
            }
        }
    }
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

/// HGEN netlists at every opt level must agree with the (independently
/// checked) instruction-level simulator — and therefore with each
/// other. Mirrors `tests/hw_equivalence.rs`.
fn check_hardware(machine: &Machine, asm: &str, options: HgenOptions) {
    let program = Assembler::new(machine).assemble(asm).expect("assembles");
    let mut xsim = Xsim::generate(machine).expect("generates");
    xsim.load_program(&program);
    assert_eq!(xsim.run(1_000_000), StopReason::Halted);

    let result = hgen::synthesize(machine, options).expect("synthesizes");
    let mut hw = result.simulator(vlog::SimBackend::Event).expect("elaborates");
    hgen::load_program(machine, &mut hw, &program).expect("loads");
    hw.clock(4 * xsim.stats().cycles + 16).expect("clocks");

    for (i, s) in machine.storages.iter().enumerate() {
        use isdl::model::StorageKind::{InstructionMemory, ProgramCounter};
        if matches!(s.kind, ProgramCounter | InstructionMemory) {
            continue;
        }
        for a in 0..s.cells() {
            let soft = xsim.state().read(isdl::rtl::StorageId(i), a);
            let hard = if s.kind.is_addressed() {
                hw.peek_memory(&s.name, a).expect("mem")
            } else {
                hw.peek(&s.name).expect("net")
            };
            assert_eq!(*soft, hard, "{}[{a}] differs at opt={}", s.name, options.opt);
        }
    }
}

#[test]
fn hgen_netlists_agree_across_opt_levels() {
    for (name, src, asm) in [
        ("acc16", isdl::samples::ACC16, ACC16_SUM),
        ("widemul", isdl::samples::WIDEMUL, WIDEMUL_PROG),
        ("toy", isdl::samples::TOY, TOY_MIXED),
        ("widemul-div", isdl::samples::WIDEMUL, WIDEMUL_DIV_PROG),
    ] {
        let machine = isdl::load(src).expect("loads");
        for opt in LEVELS {
            eprintln!("hgen differential: {name} at opt={opt}");
            check_hardware(&machine, asm, HgenOptions { opt, ..HgenOptions::default() });
        }
    }
}
