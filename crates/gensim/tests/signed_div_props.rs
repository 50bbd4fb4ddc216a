//! Regression property test for signed division and remainder at
//! arbitrary operand widths.
//!
//! The bytecode core's fast u64 lane once sign-extended `/s` and `%s`
//! operands from 64 bits instead of from the operand's ISDL width,
//! so e.g. an 8-bit `0x80 /s 0xFF` (−128 / −1) divided the *unsigned*
//! values. This suite pins the fix: for random widths 1..=64 and
//! random operands — always augmented with the MIN/−1 overflow pair
//! and division by zero — the bytecode interpreter and the translated
//! basic-block tier must both match the shared
//! [`isdl::opt::eval_binop`] reference bit-for-bit.

use bitv::BitVector;
use gensim::{StopReason, Xsim, XsimOptions};
use isdl::rtl::BinOp;
use proptest::prelude::*;
use xasm::Assembler;

/// A minimal machine with `w`-bit registers and one instruction that
/// computes both the signed quotient and the signed remainder.
fn machine_at_width(w: u32) -> isdl::Machine {
    let src = format!(
        r#"
        machine "sd" {{ format {{ word 16; }} }}
        storage {{ imem IM 16 x 16; pc PC 4; register A {w}; register B {w}; register Q {w}; register R {w}; }}
        field F {{
            op sdiv() {{ encode {{ word[15:12] = 0b0001; }} action {{ Q <- A /s B; R <- A %s B; }} }}
            op halt() {{ encode {{ word[15:12] = 0b1111; }} }}
            op nop()  {{ encode {{ word[15:12] = 0b0000; }} }}
        }}
        "#
    );
    isdl::load(&src).expect("width-parameterized machine loads")
}

fn mask(w: u32) -> u64 {
    if w >= 64 {
        u64::MAX
    } else {
        (1u64 << w) - 1
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn signed_div_rem_match_the_reference_at_every_width(
        w in 1u32..=64,
        ra in any::<u64>(),
        rb in any::<u64>(),
    ) {
        let machine = machine_at_width(w);
        let program = Assembler::new(&machine).assemble("sdiv\nhalt\n").expect("assembles");
        let m = mask(w);
        let min = (m >> 1) + 1; // sign bit alone: the most negative value
        let pairs = [
            (ra & m, rb & m),   // the random draw
            (min, m),           // MIN /s -1: the overflow pair
            (ra & m, 0),        // division by zero
            (min, 1),
            (m, min),           // -1 /s MIN
        ];
        let (a_id, b_id, q_id, r_id) = (
            machine.storage_by_name("A").expect("A").0,
            machine.storage_by_name("B").expect("B").0,
            machine.storage_by_name("Q").expect("Q").0,
            machine.storage_by_name("R").expect("R").0,
        );
        for (a, b) in pairs {
            let av = BitVector::from_u64(a, w);
            let bv = BitVector::from_u64(b, w);
            let want_q = isdl::opt::eval_binop(BinOp::SDiv, &av, &bv);
            let want_r = isdl::opt::eval_binop(BinOp::SRem, &av, &bv);
            for translate in [false, true] {
                let options = XsimOptions { translate, ..XsimOptions::default() };
                let mut sim = Xsim::generate_with(&machine, options).expect("generates");
                sim.load_program(&program);
                sim.state_mut().poke(a_id, 0, av.clone());
                sim.state_mut().poke(b_id, 0, bv.clone());
                prop_assert_eq!(sim.run(100), StopReason::Halted);
                prop_assert_eq!(
                    sim.state().read(q_id, 0),
                    &want_q,
                    "quotient w={} a={:#x} b={:#x} translate={}",
                    w, a, b, translate
                );
                prop_assert_eq!(
                    sim.state().read(r_id, 0),
                    &want_r,
                    "remainder w={} a={:#x} b={:#x} translate={}",
                    w, a, b, translate
                );
            }
        }
    }
}
