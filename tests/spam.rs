//! End-to-end tests on SPAM — the paper's 4-way VLIW evaluation
//! target — and its reduced sibling SPAM2.

use archex::{compile, workloads};
use gensim::{StopReason, Xsim};
use hgen::{synthesize, HgenOptions};
use isdl::samples::{SPAM, SPAM2};
use vlog::SimBackend;
use xasm::Assembler;

#[test]
fn spam_vliw_instruction_packs_seven_fields() {
    let m = isdl::load(SPAM).expect("loads");
    let asm = "\
start: li R1, 10 | ALU1.li R2, 20
       add R3, R1, reg(R2) | ALU1.sub R4, R2, reg(R1) | mac R1, R2 | ld R5, 100 | mv R8, R1 | MOV1.mv R6, R1 | MOV2.mv R7, R2
end:   jmp end
";
    let p = Assembler::new(&m).assemble(asm).expect("assembles");
    let mut sim = Xsim::generate(&m).expect("generates");
    let dm = m.storage_by_name("DM").expect("DM").0;
    sim.load_program(&p);
    sim.state_mut().poke(dm, 100, bitv::BitVector::from_u64(777, 32));
    assert_eq!(sim.run(1_000), StopReason::Halted);
    let rf = m.storage_by_name("RF").expect("RF").0;
    assert_eq!(sim.state().read_u64(rf, 3), 30, "ALU0 add");
    assert_eq!(sim.state().read_u64(rf, 4), 10, "ALU1 sub");
    assert_eq!(sim.state().read_u64(rf, 5), 777, "parallel load");
    assert_eq!(sim.state().read_u64(rf, 8), 10, "move 0");
    assert_eq!(sim.state().read_u64(rf, 6), 10, "move 1");
    assert_eq!(sim.state().read_u64(rf, 7), 20, "move 2");
    let acc = m.storage_by_name("ACC").expect("ACC").0;
    assert_eq!(sim.state().read_u64(acc, 0), 200, "MAC in the same instruction");
    // Every field did useful work in instruction 2.
    let busy: Vec<u64> = sim.stats().field_busy.clone();
    assert!(busy.iter().all(|&b| b >= 1), "all 7 fields busy at least once: {busy:?}");
}

#[test]
fn spam_shift_constraint_enforced_by_assembler() {
    let m = isdl::load(SPAM).expect("loads");
    let asm = Assembler::new(&m);
    let e = asm
        .assemble("shl R1, R2, reg(R3) | ALU1.shr R4, R5, reg(R6)\n")
        .expect_err("one shared shifter");
    assert!(e.msg.contains("constraint"), "{e}");
    // A shift paired with a non-shift ALU1 op is fine.
    assert!(asm.assemble("shl R1, R2, reg(R3) | ALU1.add R4, R5, reg(R6)\n").is_ok());
}

#[test]
fn spam_runs_compiled_fir_with_mul_stalls() {
    let m = isdl::load(SPAM).expect("loads");
    let kernel = workloads::fir(3, 8);
    let compiled = compile(&m, &kernel).expect("compiles");
    let p = Assembler::new(&m).assemble(&compiled.asm).expect("assembles");
    let mut sim = Xsim::generate(&m).expect("generates");
    sim.load_program(&p);
    assert_eq!(sim.run(1_000_000), StopReason::Halted);
    assert!(sim.stats().stall_cycles > 0, "MAC latency 3 forces stalls");
    // Reference FIR.
    let dm = m.storage_by_name("DM").expect("DM").0;
    let coeff: Vec<u64> = (0..3).map(|i| 1 + i).collect();
    let input: Vec<u64> = (0..8).map(|i| (i * 3 + 1) % 17).collect();
    for o in 0..6usize {
        let expect: u64 = (0..3).map(|t| coeff[t] * input[o + 2 - t]).sum();
        assert_eq!(sim.state().read_u64(dm, (11 + o) as u64), expect, "output {o}");
    }
}

#[test]
fn spam2_runs_compiled_vector_update() {
    let m = isdl::load(SPAM2).expect("loads");
    let kernel = workloads::vector_update(4);
    let compiled = compile(&m, &kernel).expect("compiles");
    let p = Assembler::new(&m).assemble(&compiled.asm).expect("assembles");
    let mut sim = Xsim::generate(&m).expect("generates");
    sim.load_program(&p);
    assert_eq!(sim.run(1_000_000), StopReason::Halted);
    let dm = m.storage_by_name("DM").expect("DM").0;
    for i in 0..4u64 {
        let expect = (10 + i) + (5 + 2 * i) - 4;
        assert_eq!(sim.state().read_u64(dm, 8 + i), expect, "element {i}");
    }
}

#[test]
fn spam_hardware_model_matches_ils() {
    let m = isdl::load(SPAM).expect("loads");
    let asm = "\
start: li R1, 6 | ALU1.li R2, 7
       clracc
       mac R1, R2
       mac R1, R2
       mvacc R3
       st 50, R3
       add R4, R1, ind(R1) | MOV1.mv R5, R2
       st 51, R4
end:   jmp end
";
    let p = Assembler::new(&m).assemble(asm).expect("assembles");
    // `ind(R1)` reads DM[6], seeded in both models.
    let seed = bitv::BitVector::from_u64(1000, 32);
    let mut xsim = Xsim::generate(&m).expect("generates");
    xsim.load_program(&p);
    xsim.state_mut().poke(m.storage_by_name("DM").expect("DM").0, 6, seed.clone());
    assert_eq!(xsim.run(10_000), StopReason::Halted);

    let hw = synthesize(&m, HgenOptions::default()).expect("synthesizes");
    for backend in [SimBackend::Event, SimBackend::Levelized] {
        let mut hsim = hw.simulator(backend).expect("elaborates");
        hsim.poke_memory("DM", 6, seed.clone()).expect("pokes");
        archex::check_netlist(&m, &mut hsim, &p, &xsim).unwrap_or_else(|e| panic!("{e}"));
    }
}

#[test]
fn spam_synthesis_is_larger_and_slower_than_spam2() {
    // The Table 2 relationship: the 4-way SPAM dominates the reduced
    // SPAM2 in every physical dimension.
    let spam = isdl::load(SPAM).expect("loads");
    let spam2 = isdl::load(SPAM2).expect("loads");
    let r1 = synthesize(&spam, HgenOptions::default()).expect("synthesizes");
    let r2 = synthesize(&spam2, HgenOptions::default()).expect("synthesizes");
    assert!(r1.report.area_cells > r2.report.area_cells);
    assert!(r1.lines_of_verilog > r2.lines_of_verilog);
    assert!(r1.report.cycle_ns >= r2.report.cycle_ns);
}

#[test]
fn hand_packed_vliw_beats_sequential_code() {
    // Paper §6.2: "a human programmer decides to optimize the output of
    // the retargetable compiler by hand" — pack independent operations
    // into SPAM's parallel fields and measure the cycle win.
    let m = isdl::load(SPAM).expect("loads");
    let run = |src: &str| {
        let p = Assembler::new(&m).assemble(src).expect("assembles");
        let mut sim = Xsim::generate(&m).expect("generates");
        sim.load_program(&p);
        assert_eq!(sim.run(10_000), StopReason::Halted);
        let dm = m.storage_by_name("DM").expect("DM").0;
        (sim.stats().cycles, sim.state().read_u64(dm, 20), sim.state().read_u64(dm, 21))
    };

    // Sequential: one operation per instruction (compiler style).
    let sequential = "\
start: li R0, 3
       li R1, 4
       li R2, 5
       li R3, 6
       add R4, R0, reg(R1)
       add R5, R2, reg(R3)
       st 20, R4
       st 21, R5
end:   jmp end
";
    // Hand-packed: both ALUs work in parallel.
    let packed = "\
start: li R0, 3 | ALU1.li R1, 4
       li R2, 5 | ALU1.li R3, 6
       add R4, R0, reg(R1) | ALU1.add R5, R2, reg(R3)
       st 20, R4
       st 21, R5
end:   jmp end
";
    let (seq_cycles, a, b) = run(sequential);
    let (packed_cycles, pa, pb) = run(packed);
    assert_eq!((a, b), (7, 11), "sequential result");
    assert_eq!((pa, pb), (7, 11), "packed result matches");
    assert!(
        packed_cycles < seq_cycles,
        "VLIW packing must save cycles: {packed_cycles} !< {seq_cycles}"
    );
}

#[test]
fn spam_runs_matmul() {
    let m = isdl::load(SPAM).expect("loads");
    let kernel = workloads::matmul(3);
    let compiled = compile(&m, &kernel).expect("compiles");
    let p = Assembler::new(&m).assemble(&compiled.asm).expect("assembles");
    let mut sim = Xsim::generate(&m).expect("generates");
    sim.load_program(&p);
    assert_eq!(sim.run(1_000_000), StopReason::Halted);
    let dm = m.storage_by_name("DM").expect("DM").0;
    for (i, &e) in workloads::matmul_expected(3).iter().enumerate() {
        assert_eq!(sim.state().read_u64(dm, 18 + i as u64), e, "C[{i}]");
    }
}
