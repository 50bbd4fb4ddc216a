//! Property-based differential test between the two generated models:
//! for random straight-line programs, the XSIM instruction-level
//! simulator and the HGEN hardware model, on both netlist backends,
//! must agree on the final architectural state
//! ([`archex::check_netlist`]) — random-program evidence for "the
//! synthesizable Verilog model is itself a simulator" (§4.2).
//!
//! Programs are straight-line (single trailing self-loop) so the
//! simulator's static hazard analysis and the hardware's dynamic
//! scoreboard see the same instruction order.

use bitv::BitVector;
use gensim::{StopReason, Xsim};
use hgen::{synthesize, HgenOptions};
use proptest::prelude::*;
use std::sync::OnceLock;
use vlog::{AnySim, SimBackend};
use xasm::Assembler;

fn machine() -> &'static isdl::Machine {
    static M: OnceLock<isdl::Machine> = OnceLock::new();
    M.get_or_init(|| isdl::load(isdl::samples::TOY).expect("loads"))
}

/// The hardware netlist, elaborated once per backend and cloned per
/// case.
fn hardware() -> &'static [AnySim; 2] {
    static H: OnceLock<[AnySim; 2]> = OnceLock::new();
    H.get_or_init(|| {
        let hw = synthesize(machine(), HgenOptions::default()).expect("synthesizes");
        [SimBackend::Event, SimBackend::Levelized]
            .map(|backend| hw.simulator(backend).expect("elaborates"))
    })
}

fn line(op: u8, d: u8, a: u8, b: u8, imm: u8, mode: bool) -> String {
    let (d, a, b) = (d % 8, a % 8, b % 8);
    let src = if mode { format!("ind(R{b})") } else { format!("reg(R{b})") };
    match op % 11 {
        0 => format!("add R{d}, R{a}, {src}"),
        1 => format!("sub R{d}, R{a}, {src}"),
        2 => format!("and R{d}, R{a}, {src}"),
        3 => format!("xor R{d}, R{a}, {src}"),
        4 => format!("li R{d}, {imm}"),
        5 => format!("st {imm}, R{a}"),
        6 => format!("ld R{d}, {imm}"),
        7 => format!("mac R{a}, R{b}"),
        8 => format!("clracc | mv R{d}, R{a}"),
        9 => format!("mvacc R{d} | ALU.nop"),
        _ => format!("add R{d}, R{a}, {src} | mv R{b}, R{a}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_programs_match_hardware(
        ops in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>(), any::<bool>()),
            1..20,
        ),
        seed_mem in proptest::collection::vec(any::<u16>(), 8),
    ) {
        let m = machine();
        let mut src = String::new();
        for (op, d, a, b, imm, mode) in &ops {
            src.push_str(&line(*op, *d, *a, *b, *imm, *mode));
            src.push('\n');
        }
        src.push_str("__stop: jmp __stop\n");
        let program = Assembler::new(m).assemble(&src).expect("assembles");

        // ILS run.
        let mut xsim = Xsim::generate(m).expect("generates");
        xsim.load_program(&program);
        let dm = m.storage_by_name("DM").expect("DM").0;
        let seed: Vec<BitVector> =
            seed_mem.iter().map(|&v| BitVector::from_u64(u64::from(v), 16)).collect();
        for (i, v) in seed.iter().enumerate() {
            xsim.state_mut().poke(dm, i as u64, v.clone());
        }
        prop_assert_eq!(xsim.run(100_000), StopReason::Halted);

        // Every data-carrying storage must agree bit-for-bit on each
        // backend, the data memory seeded alike.
        for pristine in hardware() {
            let mut hw = pristine.clone();
            for (i, v) in seed.iter().enumerate() {
                hw.poke_memory("DM", i as u64, v.clone()).expect("pokes");
            }
            let verdict = archex::check_netlist(m, &mut hw, &program, &xsim);
            prop_assert_eq!(verdict, Ok(()), "for:\n{}", src);
        }
    }
}
