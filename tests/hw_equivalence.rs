//! The strongest correctness check in the suite: the HGEN-generated
//! synthesizable model and the GENSIM-generated instruction-level
//! simulator must agree bit-for-bit on the architectural state after
//! executing the same program — "the synthesizable Verilog model is
//! itself a simulator" (paper §4.2).

use gensim::{StopReason, Xsim};
use hgen::{synthesize, DecodeStyle, HgenOptions, ShareOptions};
use isdl::Machine;
use vlog::SimBackend;
use xasm::{Assembler, Program};

/// Runs `program` on XSIM until it halts; returns the simulator.
fn run_xsim<'m>(machine: &'m Machine, program: &Program) -> Xsim<'m> {
    let mut sim = Xsim::generate(machine).expect("generates");
    sim.load_program(program);
    assert_eq!(sim.run(1_000_000), StopReason::Halted, "program must halt");
    sim
}

/// Checks `asm` against the hardware generated with `options` on both
/// netlist backends with [`archex::check_netlist`]. Programs end with a
/// self-loop so extra hardware clocks are state-neutral.
fn check_program(machine_src: &str, asm: &str, options: HgenOptions) {
    let machine = isdl::load(machine_src).expect("machine loads");
    let program = Assembler::new(&machine).assemble(asm).expect("assembles");
    let xsim = run_xsim(&machine, &program);
    let result = synthesize(&machine, options).expect("synthesizes");
    for backend in [SimBackend::Event, SimBackend::Levelized] {
        let mut hw = result.simulator(backend).expect("elaborates");
        archex::check_netlist(&machine, &mut hw, &program, &xsim).unwrap_or_else(|e| panic!("{e}"));
    }
}

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

#[test]
fn acc16_sum_loop_matches_hardware() {
    check_program(isdl::samples::ACC16, ACC16_SUM, HgenOptions::default());
}

#[test]
fn acc16_matches_with_sharing_disabled() {
    check_program(
        isdl::samples::ACC16,
        ACC16_SUM,
        HgenOptions {
            share: ShareOptions { enabled: false, ..ShareOptions::default() },
            ..HgenOptions::default()
        },
    );
}

#[test]
fn acc16_matches_with_naive_decode() {
    check_program(
        isdl::samples::ACC16,
        ACC16_SUM,
        HgenOptions { decode: DecodeStyle::NaiveComparator, ..HgenOptions::default() },
    );
}

const TOY_VLIW: &str = "\
start: li R1, 5
       li R2, 7
       li R3, 30
       add R4, R1, reg(R2) | mv R5, R1
       st 30, R4
       sub R6, R4, ind(R3)
       xor R7, R6, reg(R4)
       and R0, R7, reg(R7)
end:   jmp end
";

#[test]
fn toy_vliw_with_addressing_modes_matches_hardware() {
    check_program(isdl::samples::TOY, TOY_VLIW, HgenOptions::default());
}

const TOY_MAC: &str = "\
start: li R1, 3
       li R2, 4
       clracc
       mac R1, R2
       mac R1, R2
       nop
       mvacc R5
       st 10, R5
end:   jmp end
";

#[test]
fn toy_mac_latency_and_interlock_match_hardware() {
    // mac has latency 2: XSIM charges static stalls, the hardware's
    // scoreboard freezes the PC — the architectural result agrees.
    check_program(isdl::samples::TOY, TOY_MAC, HgenOptions::default());
}

#[test]
fn toy_conditional_branch_matches_hardware() {
    let src = "\
start: li R1, 1
       clracc
       jz taken
       li R2, 99
taken: li R3, 42
       st 5, R3
end:   jmp end
";
    check_program(isdl::samples::TOY, src, HgenOptions::default());
}

#[test]
fn hardware_cycle_count_matches_ils_when_hazard_free() {
    let machine = isdl::load(isdl::samples::ACC16).expect("loads");
    let program = Assembler::new(&machine)
        .assemble("ldi 1\nshl1\nshl1\nshl1\nend: jmp end\n")
        .expect("assembles");
    let xsim = run_xsim(&machine, &program);
    let result = synthesize(&machine, HgenOptions::default()).expect("synthesizes");
    for backend in [SimBackend::Event, SimBackend::Levelized] {
        let mut hw = result.simulator(backend).expect("elaborates");
        hgen::load_program(&machine, &mut hw, &program).expect("loads");
        // Clock exactly the ILS cycle count: state must already agree
        // (cycle-accuracy, not just eventual equivalence).
        hw.clock(xsim.stats().cycles).expect("clocks");
        assert_eq!(hw.peek("ACC").expect("net").to_u64_lossy(), 8, "{backend}");
        assert_eq!(
            hw.peek("ACC").expect("net"),
            *xsim.state().read(machine.storage_by_name("ACC").expect("ACC").0, 0),
            "{backend}"
        );
    }
}
