//! Byte-identity gate for the generated tools. The values below were
//! recorded from the code before the word-at-a-time `bitv` operations,
//! the table-driven signatures and the allocation-light sharing pass
//! replaced the bit-at-a-time code; those rewrites change speed only, so
//! every hash must stay the same:
//!
//! - the FNV-1a hash of HGEN's Verilog for every sample machine, under
//!   the options Table 2 and Ablations A–B use and at opt levels 0–3;
//! - the hash of the assembled words, and of the instructions the
//!   disassembler decodes from them, for every `workloads` kernel that
//!   compiles on each sample.
//!
//! A change meant to alter the generated Verilog or the encodings — the
//! hardware cycle-count fix of ROADMAP item 1, say — re-records these
//! values: the failing test prints the table to paste in.
//!
//! The last test checks that the non-terminal option counts exploration
//! reads from XSIM's load-time decode equal an independent
//! disassembler walk over the same programs.

use archex::{compile, workloads, Kernel};
use hgen::{synthesize, DecodeStyle, HgenOptions, ShareOptions};
use isdl::model::NtId;
use isdl::opt::OptLevel;
use isdl::samples::{ACC16, SPAM, SPAM2, TOY, WIDEMUL};
use isdl::Machine;
use std::collections::HashMap;
use std::fmt::Write as _;
use xasm::{Assembler, DecodedInstr, Disassembler, Operand, Program};

const SAMPLES: [(&str, &str); 5] =
    [("toy", TOY), ("acc16", ACC16), ("widemul", WIDEMUL), ("spam", SPAM), ("spam2", SPAM2)];

/// `hgen::synthesize(machine, options).verilog` hashes, one line per
/// sample and option set.
const VERILOG: &str = "\
toy default bfed4ec3a58d13ab
toy no-sharing 0ab488b23da22a58
toy rules-only bfed4ec3a58d13ab
toy no-constraints bfed4ec3a58d13ab
toy no-hints bfed4ec3a58d13ab
toy naive-decode 91fceb5ba4cc1439
toy opt0 bfed4ec3a58d13ab
toy opt1 bfed4ec3a58d13ab
toy opt2 bfed4ec3a58d13ab
toy opt3 03a5af72157e41db
acc16 default 096ec2fe4b7a32d8
acc16 no-sharing 53a86720633da281
acc16 rules-only 096ec2fe4b7a32d8
acc16 no-constraints 096ec2fe4b7a32d8
acc16 no-hints 096ec2fe4b7a32d8
acc16 naive-decode e2c899450579a84f
acc16 opt0 096ec2fe4b7a32d8
acc16 opt1 096ec2fe4b7a32d8
acc16 opt2 096ec2fe4b7a32d8
acc16 opt3 d49a25525aee42a8
widemul default 58b551e55ba773f2
widemul no-sharing 19d27fb84240bf9e
widemul rules-only 58b551e55ba773f2
widemul no-constraints 58b551e55ba773f2
widemul no-hints 58b551e55ba773f2
widemul naive-decode 6ab6bc85cd5e0d3d
widemul opt0 b70d241877eb43cb
widemul opt1 2ef47312840f2e89
widemul opt2 58b551e55ba773f2
widemul opt3 d26ce3e4e56662ac
spam default 89da773c43552749
spam no-sharing 17757e595b6fe62e
spam rules-only b7d8f49b6cc16eda
spam no-constraints 9937ffafdf90a3fc
spam no-hints 89da773c43552749
spam naive-decode f972d29d2d0abe32
spam opt0 89da773c43552749
spam opt1 89da773c43552749
spam opt2 89da773c43552749
spam opt3 13e728a57344e66c
spam2 default ac580c3471030d8d
spam2 no-sharing fbe6de82afc4c00c
spam2 rules-only ac580c3471030d8d
spam2 no-constraints ac580c3471030d8d
spam2 no-hints ac580c3471030d8d
spam2 naive-decode 5a365df8c8262884
spam2 opt0 ac580c3471030d8d
spam2 opt1 ac580c3471030d8d
spam2 opt2 ac580c3471030d8d
spam2 opt3 1ec2235f7fb92405
";

/// Assembled-word and decoded-instruction hashes, one line per sample
/// and compiling kernel.
const PROGRAMS: &str = "\
toy dot6 22 40b281d52bd59cdd 6a9fdc7e2290af5f
toy fir3x10 97 07ea2fd0bad28b93 7e644549ae7c7846
toy vecupd5 27 6f7238579b5ddb0b 8956c8b7682479af
toy matmul3 109 02b8598b16cbd01a 420304ca8b2433b3
spam dot6 22 a71a34166ca3cc75 26300ee83a91a942
spam fir3x10 97 1e997a1e55247d16 043f2d2366c461fe
spam vecupd5 27 9dea99f310f0bae5 63b12853b3584e6c
spam matmul3 109 5848951b9d3fa508 f26499442ac6f9c0
spam2 vecupd5 27 785313ace154f654 258586e8dc1e7b5c
";

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

fn machine(src: &str) -> Machine {
    isdl::load(src).expect("sample loads")
}

/// The option sets of Table 2 (the default), Ablation A (sharing
/// settings), Ablation B (decode styles) and the four opt levels.
fn option_sets() -> Vec<(&'static str, HgenOptions)> {
    let d = HgenOptions::default();
    let share = |enabled, use_constraints, use_hints| HgenOptions {
        share: ShareOptions { enabled, use_constraints, use_hints },
        ..d
    };
    vec![
        ("default", d),
        ("no-sharing", share(false, false, false)),
        ("rules-only", share(true, false, false)),
        ("no-constraints", share(true, false, true)),
        ("no-hints", share(true, true, false)),
        ("naive-decode", HgenOptions { decode: DecodeStyle::NaiveComparator, ..d }),
        ("opt0", HgenOptions { opt: OptLevel::None, ..d }),
        ("opt1", HgenOptions { opt: OptLevel::Basic, ..d }),
        ("opt2", HgenOptions { opt: OptLevel::Aggressive, ..d }),
        ("opt3", HgenOptions { opt: OptLevel::Full, ..d }),
    ]
}

fn kernels() -> Vec<Kernel> {
    vec![
        workloads::dot_product(6),
        workloads::fir(3, 10),
        workloads::vector_update(5),
        workloads::matmul(3),
    ]
}

/// Every `(sample, kernel, program)` whose kernel compiles.
fn programs() -> Vec<(&'static str, Machine, Kernel, Program)> {
    let mut out = Vec::new();
    for (name, src) in SAMPLES {
        let m = machine(src);
        for kernel in kernels() {
            let Ok(compiled) = compile(&m, &kernel) else { continue };
            let program = Assembler::new(&m).assemble(&compiled.asm).expect("assembles");
            out.push((name, m.clone(), kernel, program));
        }
    }
    out
}

/// The instructions at the addresses a sequential walk from 0 reaches,
/// as the exploration loop's counting pass decodes them.
fn decode_walk(m: &Machine, program: &Program) -> Vec<(u64, DecodedInstr)> {
    let d = Disassembler::new(m);
    let mut out = Vec::new();
    let mut addr = 0;
    while addr < program.words.len() {
        let end = (addr + d.max_size() as usize).min(program.words.len());
        match d.decode(&program.words[addr..end], addr as u64) {
            Ok(instr) => {
                let size = instr.size as usize;
                out.push((addr as u64, instr));
                addr += size;
            }
            Err(_) => addr += 1,
        }
    }
    out
}

fn assert_table(name: &str, want: &str, got: &str) {
    assert!(
        want == got,
        "{name} differs from the recorded values; if intended, paste in:\n\n{got}"
    );
}

#[test]
fn verilog_is_byte_identical_for_every_sample_and_option_set() {
    let mut got = String::new();
    for (name, src) in SAMPLES {
        let m = machine(src);
        for (label, options) in option_sets() {
            let r = synthesize(&m, options).expect("sample synthesizes");
            writeln!(got, "{name} {label} {:016x}", fnv1a(r.verilog.as_bytes())).expect("write");
        }
    }
    assert_table("VERILOG", VERILOG, &got);
}

#[test]
fn assembled_and_decoded_programs_are_byte_identical() {
    let mut got = String::new();
    for (name, m, kernel, program) in programs() {
        let words: String = program.words.iter().map(|w| format!("{w} ")).collect();
        let decoded = format!("{:?}", decode_walk(&m, &program));
        writeln!(
            got,
            "{name} {} {} {:016x} {:016x}",
            kernel.name,
            program.words.len(),
            fnv1a(words.as_bytes()),
            fnv1a(decoded.as_bytes())
        )
        .expect("write");
    }
    assert_table("PROGRAMS", PROGRAMS, &got);
}

fn count_operand(arg: &Operand, out: &mut HashMap<(NtId, usize), u64>) {
    if let Operand::NonTerminal { nt, option, args } = arg {
        *out.entry((*nt, *option)).or_insert(0) += 1;
        for a in args {
            count_operand(a, out);
        }
    }
}

#[test]
fn xsim_nt_option_counts_match_a_disassembler_walk() {
    let mut with_options = 0;
    for (name, m, kernel, program) in programs() {
        let mut want = HashMap::new();
        for (_, instr) in decode_walk(&m, &program) {
            for op in &instr.ops {
                for arg in &op.args {
                    count_operand(arg, &mut want);
                }
            }
        }
        let mut sim = gensim::Xsim::generate(&m).expect("generates");
        sim.load_program(&program);
        assert_eq!(sim.nt_option_counts(), &want, "{name} {}", kernel.name);
        with_options += usize::from(!want.is_empty());
    }
    assert!(with_options > 0, "some sample program uses a non-terminal option");
}
