//! End-to-end coverage of multi-word instructions (`Size` cost > 1,
//! §2.1.3 part 5c) and the remaining storage classes (stack, control
//! register, memory-mapped I/O) across the whole tool chain:
//! assembler, simulator, and hardware model.

use bitv::BitVector;
use gensim::{StopReason, Xsim};
use hgen::{synthesize, HgenOptions};
use vlog::SimBackend;
use xasm::Assembler;

/// A 16-bit machine with a two-word load-immediate, a hardware stack
/// with call/return, a control register, and memory-mapped I/O.
const WIDE: &str = r#"
machine "wide" { format { word 16; } }

storage {
    imem IM 16 x 64;
    dmem DM 16 x 32;
    regfile RF 16 x 4;
    register SP 3;
    creg MODE 2;
    mmio OUT 16 x 4;
    stack STK 16 x 8;
    pc PC 6;
}

tokens {
    token REG reg("R", 4);
    token IMM16 imm(16, unsigned);
    token T6 imm(6, unsigned);
    token M2 imm(2, unsigned);
}

field MAIN {
    // Two-word operation: opcode in word 0, immediate is word 1.
    op limm(d: REG, v: IMM16) {
        encode { word[15:12] = 0b0001; word[11:10] = d; word[31:16] = v; }
        action { RF[d] <- v; }
        cost { size 2; }
    }
    op add(d: REG, a: REG, b: REG) {
        encode { word[15:12] = 0b0010; word[11:10] = d; word[9:8] = a; word[7:6] = b; }
        action { RF[d] <- RF[a] + RF[b]; }
    }
    op call(t: T6) {
        encode { word[15:12] = 0b0011; word[5:0] = t; }
        action {
            STK[zext(SP, 3)] <- zext(PC, 16) + 16'd1;
            SP <- SP + 3'd1;
            PC <- t;
        }
        cost { cycle 1; stall 1; }
    }
    op ret() {
        encode { word[15:12] = 0b0100; }
        action {
            SP <- SP - 3'd1;
            PC <- trunc(STK[zext(SP, 3) - 3'd1], 6);
        }
        cost { cycle 1; stall 1; }
    }
    op setmode(m: M2) {
        encode { word[15:12] = 0b0101; word[1:0] = m; }
        action { MODE <- m; }
    }
    op emit(a: M2, s: REG) {
        encode { word[15:12] = 0b0110; word[11:10] = s; word[1:0] = a; }
        action { OUT[a] <- RF[s]; }
    }
    op jmp(t: T6) {
        encode { word[15:12] = 0b0111; word[5:0] = t; }
        action { PC <- t; }
        cost { cycle 1; stall 1; }
    }
    op halt() { encode { word[15:12] = 0b1111; } }
    op nop() { encode { word[15:12] = 0b0000; } }
}
"#;

const PROGRAM: &str = "\
start: limm R0, 51966       ; 0xCAFE — two words
       limm R1, 4660        ; 0x1234
       add R2, R0, R1
       setmode 2
       call sub1
       emit 1, R3
end:   jmp end              ; hardware-friendly halt (self-loop)
sub1:  add R3, R2, R2
       ret
";

#[test]
fn multiword_stack_creg_mmio_simulate() {
    let m = isdl::load(WIDE).expect("loads");
    assert_eq!(m.max_op_size(), 2);
    let p = Assembler::new(&m).assemble(PROGRAM).expect("assembles");
    // limm is two words: the listing addresses reflect sizes.
    assert_eq!(p.labels["start"], 0);
    assert_eq!(p.labels["sub1"], 9);
    assert_eq!(p.labels["end"], 8);

    let mut sim = Xsim::generate(&m).expect("generates");
    sim.load_program(&p);
    assert_eq!(sim.run(1_000), StopReason::Halted);

    let rf = m.storage_by_name("RF").expect("RF").0;
    assert_eq!(sim.state().read_u64(rf, 0), 51966);
    assert_eq!(sim.state().read_u64(rf, 1), 4660);
    assert_eq!(sim.state().read_u64(rf, 2), (51966 + 4660) & 0xFFFF);
    assert_eq!(sim.state().read_u64(rf, 3), (2 * (51966 + 4660)) & 0xFFFF);
    let mode = m.storage_by_name("MODE").expect("MODE").0;
    assert_eq!(sim.state().read_u64(mode, 0), 2);
    let out = m.storage_by_name("OUT").expect("OUT").0;
    assert_eq!(sim.state().read_u64(out, 1), (2 * (51966 + 4660)) & 0xFFFF);
    let sp = m.storage_by_name("SP").expect("SP").0;
    assert_eq!(sim.state().read_u64(sp, 0), 0, "stack balanced after return");
}

#[test]
fn multiword_disassembles_back_to_text() {
    let m = isdl::load(WIDE).expect("loads");
    let p = Assembler::new(&m).assemble(PROGRAM).expect("assembles");
    let d = xasm::Disassembler::new(&m);
    let i = d.decode(&p.words[0..2], 0).expect("decodes");
    assert_eq!(i.size, 2);
    assert_eq!(d.format_instr(&i), "limm R0, 51966");
}

#[test]
fn multiword_hardware_model_matches_ils() {
    let m = isdl::load(WIDE).expect("loads");
    let p = Assembler::new(&m).assemble(PROGRAM).expect("assembles");
    let mut xsim = Xsim::generate(&m).expect("generates");
    xsim.load_program(&p);
    assert_eq!(xsim.run(1_000), StopReason::Halted);

    let hw = synthesize(&m, HgenOptions::default()).expect("synthesizes");
    for backend in [SimBackend::Event, SimBackend::Levelized] {
        let mut hsim = hw.simulator(backend).expect("elaborates");
        archex::check_netlist(&m, &mut hsim, &p, &xsim).unwrap_or_else(|e| panic!("{e}"));
    }
}

#[test]
fn wide_immediates_round_trip_all_bits() {
    let m = isdl::load(WIDE).expect("loads");
    let asm = Assembler::new(&m);
    for v in [0u64, 1, 0x8000, 0xFFFF, 0xA5A5] {
        let p = asm.assemble(&format!("limm R3, {v}\nhalt\n")).expect("assembles");
        let mut sim = Xsim::generate(&m).expect("generates");
        sim.load_program(&p);
        assert_eq!(sim.run(100), StopReason::Halted);
        let rf = m.storage_by_name("RF").expect("RF").0;
        assert_eq!(sim.state().read_u64(rf, 3), v);
        assert_eq!(p.words[1], BitVector::from_u64(v, 16), "immediate is the second word");
    }
}
