//! Property-based differential test for the RTL middle-end
//! ([`isdl::opt`]): for random programs, every opt level on both
//! dispatch tiers (interpreted and translated) must produce the same
//! architectural state as the unoptimized interpreted baseline. Random-program evidence for the
//! middle-end's semantic-invisibility contract, complementing the
//! fixed corpus in `tests/opt_differential.rs`.
//!
//! Two machines are covered: TOY (VLIW, hazards, addressing-mode
//! non-terminals) and WIDEMUL (wide arithmetic that exercises the
//! narrowing pass on every `wmul`, strength reduction on every
//! `wdiv`/`wrem`, and load forwarding on every `dsum`).
//!
//! Beyond the full-pipeline sweep, every pass is also run in
//! *isolation* (a single-pass `--opt-passes` schedule) against the
//! same baseline, and the level-3 pipeline is checked for
//! run-to-run determinism.

use bitv::BitVector;
use gensim::{StopReason, Xsim, XsimOptions};
use isdl::opt::{OptLevel, PassKind, PassList, Pipeline};
use proptest::prelude::*;
use std::sync::OnceLock;
use xasm::Assembler;

fn toy() -> &'static isdl::Machine {
    static M: OnceLock<isdl::Machine> = OnceLock::new();
    M.get_or_init(|| isdl::load(isdl::samples::TOY).expect("loads"))
}

fn widemul() -> &'static isdl::Machine {
    static M: OnceLock<isdl::Machine> = OnceLock::new();
    M.get_or_init(|| isdl::load(isdl::samples::WIDEMUL).expect("loads"))
}

fn toy_line(op: u8, d: u8, a: u8, b: u8, imm: u8, mode: bool) -> String {
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

fn widemul_line(op: u8, imm: u8) -> String {
    match op % 11 {
        0 => format!("lia {imm}"),
        1 => format!("lib {imm}"),
        2 => "wmul".to_owned(),
        3 => "sqs".to_owned(),
        4 => "redund".to_owned(),
        5 => format!("sta {}", imm % 16),
        6 => format!("lda {}", imm % 16),
        7 => "wdiv".to_owned(),
        8 => "wrem".to_owned(),
        9 => format!("dsum {}", imm % 16),
        _ => "nop".to_owned(),
    }
}

/// Reads every cell of every storage, program counter included.
fn full_state(machine: &isdl::Machine, sim: &Xsim<'_>) -> Vec<BitVector> {
    let mut out = Vec::new();
    for (i, s) in machine.storages.iter().enumerate() {
        for a in 0..s.cells() {
            out.push(sim.state().read(isdl::rtl::StorageId(i), a).clone());
        }
    }
    out
}

fn check_all_configs(machine: &isdl::Machine, src: &str, seed_mem: &[u16]) -> Result<(), String> {
    let program = Assembler::new(machine).assemble(src).map_err(|e| format!("assembles: {e}"))?;
    let dm = machine.storage_by_name("DM").expect("DM").0;
    let run = |opt: OptLevel, translate: bool| {
        let options = XsimOptions { opt, translate, ..XsimOptions::default() };
        let mut sim = Xsim::generate_with(machine, options).expect("generates");
        sim.load_program(&program);
        for (i, &v) in seed_mem.iter().enumerate() {
            sim.state_mut().poke(dm, i as u64, BitVector::from_u64(u64::from(v), 16));
        }
        let stop = sim.run(100_000);
        (stop, sim.stats().cycles, full_state(machine, &sim))
    };
    let baseline = run(OptLevel::None, false);
    if baseline.0 != StopReason::Halted {
        return Err(format!("baseline did not halt: {:?}", baseline.0));
    }
    for opt in [OptLevel::None, OptLevel::Basic, OptLevel::Aggressive, OptLevel::Full] {
        for translate in [false, true] {
            let got = run(opt, translate);
            if got != baseline {
                return Err(format!("opt={opt} translate={translate} diverges for:\n{src}"));
            }
        }
    }
    Ok(())
}

/// Runs every pass as a one-entry schedule (the `--opt-passes`
/// mechanism) and requires bit-identical state against the
/// unoptimized baseline: each pass must be semantics-preserving on
/// its own, not only in its scheduled position.
fn check_isolated_passes(
    machine: &isdl::Machine,
    src: &str,
    seed_mem: &[u16],
) -> Result<(), String> {
    let program = Assembler::new(machine).assemble(src).map_err(|e| format!("assembles: {e}"))?;
    let dm = machine.storage_by_name("DM").expect("DM").0;
    let run = |passes: Option<PassList>| {
        let opt = if passes.is_some() { OptLevel::Full } else { OptLevel::None };
        let options = XsimOptions { opt, passes, ..XsimOptions::default() };
        let mut sim = Xsim::generate_with(machine, options).expect("generates");
        sim.load_program(&program);
        for (i, &v) in seed_mem.iter().enumerate() {
            sim.state_mut().poke(dm, i as u64, BitVector::from_u64(u64::from(v), 16));
        }
        let stop = sim.run(100_000);
        (stop, sim.stats().cycles, full_state(machine, &sim))
    };
    let baseline = run(None);
    if baseline.0 != StopReason::Halted {
        return Err(format!("baseline did not halt: {:?}", baseline.0));
    }
    for pass in PassKind::ALL {
        let list = PassList::from_slice(&[pass]).expect("one pass fits");
        let got = run(Some(list));
        if got != baseline {
            return Err(format!("isolated pass `{pass}` diverges for:\n{src}"));
        }
    }
    Ok(())
}

/// The level-3 pipeline must be a pure function of its input: two
/// runs over the same RTL produce identical statements and identical
/// per-pass statistics.
fn check_pipeline_determinism(machine: &isdl::Machine) -> Result<(), String> {
    let pipeline = Pipeline::for_level(OptLevel::Full);
    for field in &machine.fields {
        for op in &field.ops {
            for phase in [&op.action, &op.side_effects] {
                let mut s1 = isdl::opt::OptStats::default();
                let mut s2 = isdl::opt::OptStats::default();
                let o1 = pipeline.run(phase, &mut s1);
                let o2 = pipeline.run(phase, &mut s2);
                if o1 != o2 {
                    return Err(format!("{}: nondeterministic output", op.name));
                }
                if format!("{s1:?}") != format!("{s2:?}") {
                    return Err(format!("{}: nondeterministic stats", op.name));
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_toy_programs_are_opt_invariant(
        ops in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>(), any::<bool>()),
            1..24,
        ),
        seed_mem in proptest::collection::vec(any::<u16>(), 8),
    ) {
        let mut src = String::new();
        for (op, d, a, b, imm, mode) in &ops {
            src.push_str(&toy_line(*op, *d, *a, *b, *imm, *mode));
            src.push('\n');
        }
        src.push_str("__stop: jmp __stop\n");
        check_all_configs(toy(), &src, &seed_mem).map_err(TestCaseError::fail)?;
    }

    #[test]
    fn random_widemul_programs_are_opt_invariant(
        ops in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..24),
        seed_mem in proptest::collection::vec(any::<u16>(), 8),
    ) {
        let mut src = String::new();
        for (op, imm) in &ops {
            src.push_str(&widemul_line(*op, *imm));
            src.push('\n');
        }
        src.push_str("halt\n");
        check_all_configs(widemul(), &src, &seed_mem).map_err(TestCaseError::fail)?;
    }

    #[test]
    fn random_widemul_programs_survive_each_pass_in_isolation(
        ops in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..16),
        seed_mem in proptest::collection::vec(any::<u16>(), 8),
    ) {
        let mut src = String::new();
        for (op, imm) in &ops {
            src.push_str(&widemul_line(*op, *imm));
            src.push('\n');
        }
        src.push_str("halt\n");
        check_isolated_passes(widemul(), &src, &seed_mem).map_err(TestCaseError::fail)?;
    }
}

#[test]
fn level3_pipeline_is_deterministic_on_every_sample_machine() {
    for src in [
        isdl::samples::TOY,
        isdl::samples::ACC16,
        isdl::samples::WIDEMUL,
        isdl::samples::SPAM,
        isdl::samples::SPAM2,
    ] {
        let machine = isdl::load(src).expect("loads");
        check_pipeline_determinism(&machine).expect("deterministic");
    }
}
