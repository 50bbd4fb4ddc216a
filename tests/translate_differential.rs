//! Differential tests for the translated basic-block tier.
//!
//! The translation layer's contract mirrors the middle-end's: semantic
//! invisibility. Dispatching through fused basic blocks must produce
//! bit-identical architectural state, event traces, and cycle
//! profiles at every opt level, on every program of the
//! shared corpus, and across exploration thread counts. These tests
//! pin that contract, the self-modifying-store visibility rule (a
//! staged write into instruction memory applied at end-of-cycle is
//! observed by the next fetch and precisely invalidates covering
//! blocks), and the translation statistics surfaced through
//! `xsim-stats/1`.

mod corpus;

use bitv::BitVector;
use corpus::{corpus, full_state, ACC16_SUM, LEVELS};
use gensim::{StopReason, Xsim, XsimOptions};
use isdl::opt::OptLevel;
use isdl::Machine;
use xasm::{Assembler, Program};

fn run_at(
    machine: &Machine,
    program: &Program,
    opt: OptLevel,
    translate: bool,
) -> (StopReason, u64, u64, Vec<BitVector>) {
    let options = XsimOptions { opt, translate, ..XsimOptions::default() };
    let mut sim = Xsim::generate_with(machine, options).expect("generates");
    sim.load_program(program);
    let stop = sim.run(1_000_000);
    (stop, sim.stats().cycles, sim.stats().stall_cycles, full_state(machine, &sim))
}

#[test]
fn translated_dispatch_is_bit_identical_across_samples_and_opt_levels() {
    for (name, machine, asm) in corpus() {
        let program = Assembler::new(&machine).assemble(&asm).expect("assembles");
        let baseline = run_at(&machine, &program, OptLevel::None, false);
        assert_eq!(baseline.0, StopReason::Halted, "{name}: corpus program must halt");
        for opt in LEVELS {
            for translate in [false, true] {
                let got = run_at(&machine, &program, opt, translate);
                assert_eq!(got, baseline, "{name} diverges at opt={opt} translate={translate}");
            }
        }
    }
}

/// Beyond final state: the full `xsim-trace/1` event trace (cycles,
/// pcs, staged writes of every retired instruction) and the
/// `xsim-profile/1` report must be byte-identical between dispatch
/// tiers.
#[test]
fn traces_and_profiles_are_identical_between_tiers() {
    for (name, machine, asm) in corpus() {
        let program = Assembler::new(&machine).assemble(&asm).expect("assembles");
        let observe = |translate: bool| {
            let options = XsimOptions { translate, ..XsimOptions::default() };
            let mut sim = Xsim::generate_with(&machine, options).expect("generates");
            sim.load_program(&program);
            sim.enable_event_trace(16_384);
            sim.enable_profile();
            let stop = sim.run(1_000_000);
            assert_eq!(stop, StopReason::Halted, "{name} halts");
            let dropped = sim.event_trace().expect("enabled").dropped();
            assert_eq!(dropped, 0, "{name}: the trace holds every retired instruction");
            (
                gensim::trace_json(&sim).to_string(),
                gensim::profile_json(&sim).to_string(),
                sim.stats().clone(),
            )
        };
        let (trace_i, profile_i, stats_i) = observe(false);
        let (trace_t, profile_t, stats_t) = observe(true);
        assert_eq!(trace_i, trace_t, "{name}: event traces diverge");
        assert_eq!(profile_i, profile_t, "{name}: profiles diverge");
        assert_eq!(stats_i, stats_t, "{name}: stats diverge");
    }
}

/// Fuel budgets land on the same instruction boundary in both tiers,
/// even when the boundary falls mid-block.
#[test]
fn fuel_boundaries_agree_mid_block() {
    let machine = isdl::load(isdl::samples::ACC16).expect("loads");
    let program = Assembler::new(&machine).assemble(ACC16_SUM).expect("assembles");
    let mut interp =
        Xsim::generate_with(&machine, XsimOptions { translate: false, ..XsimOptions::default() })
            .expect("generates");
    let mut translated = Xsim::generate(&machine).expect("generates");
    interp.load_program(&program);
    translated.load_program(&program);
    loop {
        let a = interp.run_fuel(1_000_000, 7);
        let b = translated.run_fuel(1_000_000, 7);
        assert_eq!(a, b, "stop reasons agree at every fuel boundary");
        assert_eq!(interp.stats(), translated.stats());
        assert_eq!(full_state(&machine, &interp), full_state(&machine, &translated));
        if a == StopReason::Halted {
            break;
        }
    }
}

/// A self-modifying machine: `sti`/`sti3` store the encoding of `inc`
/// (0x2000) into instruction memory, with latency 1 and 3
/// respectively, so a staged code store lands right before the next
/// fetch or in the middle of an already-translated block.
const SMC_MACHINE: &str = r#"
    machine "smc" { format { word 16; } }
    storage { imem IM 16 x 32; pc PC 5; register A 16; dmem DM 16 x 32; }
    tokens { token U8 imm(8, unsigned); token U5 imm(5, unsigned); }
    field F {
        op ldi(v: U8)  { encode { word[15:12] = 0b0001; word[7:0] = v; } action { A <- zext(v, 16); } }
        op inc()       { encode { word[15:12] = 0b0010; } action { A <- A + 16'd1; } }
        op dbl()       { encode { word[15:12] = 0b0011; } action { A <- A + A; } }
        op sti(a: U5)  { encode { word[15:12] = 0b0100; word[4:0] = a; } action { IM[a] <- 16'h2000; } }
        op sti3(a: U5) { encode { word[15:12] = 0b0101; word[4:0] = a; } action { IM[a] <- 16'h2000; } timing { latency 3; usage 1; } }
        op sta(a: U5)  { encode { word[15:12] = 0b0110; word[4:0] = a; } action { DM[a] <- A; } }
        op halt()      { encode { word[15:12] = 0b1111; } }
        op nop()       { encode { word[15:12] = 0b0000; } }
    }
"#;

fn run_smc<'m>(machine: &'m Machine, asm: &str, translate: bool) -> Xsim<'m> {
    let program = Assembler::new(machine).assemble(asm).expect("assembles");
    let options = XsimOptions { translate, ..XsimOptions::default() };
    let mut sim = Xsim::generate_with(machine, options).expect("generates");
    sim.load_program(&program);
    assert_eq!(sim.run(1_000), StopReason::Halted, "smc program halts");
    sim
}

/// The visibility rule: a store into instruction memory applied at
/// end-of-cycle is observed by the *next* fetch. `sti 2` rewrites the
/// following instruction (`dbl`, which would double A to 20) into
/// `inc` — both tiers must execute the new code and read 11.
#[test]
fn code_store_is_visible_to_the_next_fetch() {
    let machine = isdl::load(SMC_MACHINE).expect("loads");
    let asm = "ldi 10\nsti 2\ndbl\nsta 0\nhalt\n";
    let dm = machine.storage_by_name("DM").expect("DM").0;
    for translate in [false, true] {
        let sim = run_smc(&machine, asm, translate);
        assert_eq!(
            sim.state().read_u64(dm, 0),
            11,
            "translate={translate}: next fetch must see the rewritten instruction"
        );
    }
}

/// A latency-3 code store lands while the translated block containing
/// its target is executing: the block must be invalidated mid-flight
/// and the rewritten tail re-translated.
#[test]
fn latent_code_store_invalidates_a_block_mid_flight() {
    let machine = isdl::load(SMC_MACHINE).expect("loads");
    // `sti3 5` (visible at cycle 4) rewrites the `dbl` at address 5,
    // which sits mid-block behind the nop sled.
    let asm = "ldi 10\nsti3 5\nnop\nnop\nnop\ndbl\nsta 0\nhalt\n";
    let dm = machine.storage_by_name("DM").expect("DM").0;
    let mut dumps = Vec::new();
    for translate in [false, true] {
        let sim = run_smc(&machine, asm, translate);
        assert_eq!(sim.state().read_u64(dm, 0), 11, "translate={translate}");
        dumps.push((sim.stats().clone(), full_state(&machine, &sim)));
        if translate {
            let t = sim.translate_stats();
            assert!(t.enabled, "translation engages on the smc machine");
            assert!(t.invalidations >= 1, "the covering block was dropped: {t:?}");
            assert!(t.blocks >= 3, "head block, stale block, re-translated tail: {t:?}");
        }
    }
    assert_eq!(dumps[0], dumps[1], "both tiers agree on state and stats");
}

/// Translation statistics: blocks and fused retires on a real SPAM
/// workload, the fused-μop optimizer doing work on acc16, and a clean
/// zero report when the tier is disabled.
#[test]
fn translation_stats_report_the_dispatch_mix() {
    let spam = isdl::load(isdl::samples::SPAM).expect("loads");
    let asm = archex::compile(&spam, &archex::workloads::fir(3, 8)).expect("compiles").asm;
    let program = Assembler::new(&spam).assemble(&asm).expect("assembles");

    let mut sim = Xsim::generate(&spam).expect("generates");
    sim.load_program(&program);
    assert_eq!(sim.run(1_000_000), StopReason::Halted);
    let t = sim.translate_stats();
    assert!(t.enabled, "translation is on by default");
    assert!(t.blocks > 0, "the FIR kernel translated into blocks: {t:?}");
    assert!(t.block_instructions > 0, "instructions retired through fused dispatch: {t:?}");
    assert_eq!(
        t.block_instructions + t.interp_instructions,
        sim.stats().instructions,
        "dispatch mix partitions the retire count: {t:?}"
    );

    // The stats report carries the same numbers.
    let json = gensim::stats_json(&sim);
    let tj = json.get("translate").expect("stats carry a translate block");
    assert_eq!(tj.get_u64("blocks"), Some(t.blocks));
    assert_eq!(tj.get_u64("invalidations"), Some(t.invalidations));
    assert_eq!(tj.get_u64("block_instructions"), Some(t.block_instructions));
    assert_eq!(tj.get_u64("interp_instructions"), Some(t.interp_instructions));
    assert_eq!(tj.get_u64("fused_ops_removed"), Some(t.fused_ops_removed));

    // Fusion's constant folding + DCE removes μ-ops on acc16 (ldi's
    // zext of an immediate folds at translation time).
    let acc16 = isdl::load(isdl::samples::ACC16).expect("loads");
    let p = Assembler::new(&acc16).assemble("ldi 7\nsta 0\nhalt\n").expect("assembles");
    let mut sim = Xsim::generate(&acc16).expect("generates");
    sim.load_program(&p);
    assert_eq!(sim.run(100), StopReason::Halted);
    assert!(sim.translate_stats().fused_ops_removed > 0, "{:?}", sim.translate_stats());

    // Disabled tier: zero blocks, everything interpreted.
    let opts = XsimOptions { translate: false, ..XsimOptions::default() };
    let mut sim = Xsim::generate_with(&spam, opts).expect("generates");
    sim.load_program(&program);
    assert_eq!(sim.run(1_000_000), StopReason::Halted);
    let t = sim.translate_stats();
    assert!(!t.enabled);
    assert_eq!(t.blocks, 0);
    assert_eq!(t.block_instructions, 0);
    assert_eq!(t.interp_instructions, sim.stats().instructions);
}

/// Exploration evaluates candidates with translation on (the default
/// simulator); the result must not depend on the evaluation thread
/// count.
#[test]
fn exploration_results_are_thread_count_invariant_with_translation() {
    let start = isdl::load(isdl::samples::TOY).expect("loads");
    let serial = bench::run_exploration(&start, archex::Strategy::Greedy, 1);
    let parallel = bench::run_exploration(&start, archex::Strategy::Greedy, 4);
    assert!(serial.semantic_eq(&parallel), "thread count cannot change the explored result");
}
