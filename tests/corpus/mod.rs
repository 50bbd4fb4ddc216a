//! The differential corpus shared by `netlist_differential.rs`,
//! `opt_differential.rs` and `translate_differential.rs`: every sample
//! machine paired with programs that halt (or self-loop) under XSIM,
//! compiler-shaped SPAM kernels, and [`CONSTRUCTS`], a machine whose
//! program uses every construct the bytecode compiler lowers.

use bitv::BitVector;
use gensim::Xsim;
use isdl::opt::OptLevel;
use isdl::Machine;

pub const LEVELS: [OptLevel; 4] =
    [OptLevel::None, OptLevel::Basic, OptLevel::Aggressive, OptLevel::Full];

/// Exercises the WIDEMUL operations the middle-end narrows, shares and
/// deletes, including the wide multiply twice (so truncation
/// wrap-around matters) and a store so memory state is covered. At the
/// default level every plan fits the u64 bytecode lane. The hardware
/// ignores `halt`; the trailing `nop` sled (memory reads as zero) keeps
/// extra hardware clocks state-neutral, as in every WIDEMUL program.
pub const WIDEMUL_PROG: &str = "\
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
pub const WIDEMUL_DIV_PROG: &str = "\
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

/// Every WIDEMUL operation class in one run, so wide and narrowed plans
/// share a block.
pub const WIDEMUL_MIXED: &str = "\
    lia 255
    lib 255
    wmul
    wmul
    sqs
    redund
    sta 3
    wdiv
    wrem
    dsum 3
    wdiv
    halt
";

pub const ACC16_SUM: &str = "\
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

pub const TOY_MIXED: &str = "\
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

/// One operation per RTL construct the bytecode compiler lowers:
/// `sext`, `<s`, `<=s`, `if … else`, `?:`, `concat`, a destination
/// slice with a nonzero low bit, `>>>` and `/s`. Programs end in a
/// self-loop, which halts XSIM and keeps the hardware spinning in place
/// however long the netlist check clocks it.
pub const CONSTRUCTS: &str = r#"
machine "constructs" { format { word 16; } }
storage { imem IM 16 x 32; regfile RF 16 x 8; register F 16; pc PC 5; }
tokens { token REG reg("R", 8); token S8 imm(8, signed); token T5 imm(5, unsigned); }
field MAIN {
    op li(d: REG, v: S8) {
        encode { word[15:12] = 0b0001; word[11:9] = d; word[7:0] = v; }
        action { RF[d] <- sext(v, 16); }
    }
    op slt(d: REG, a: REG, b: REG) {
        encode { word[15:12] = 0b0010; word[11:9] = d; word[8:6] = a; word[5:3] = b; }
        action { RF[d] <- zext(RF[a] <s RF[b], 16); }
    }
    op sle(d: REG, a: REG, b: REG) {
        encode { word[15:12] = 0b0011; word[11:9] = d; word[8:6] = a; word[5:3] = b; }
        action { RF[d] <- zext(RF[a] <=s RF[b], 16); }
    }
    // The else arm writes F, which the then arm leaves alone.
    op max(d: REG, a: REG, b: REG) {
        encode { word[15:12] = 0b0100; word[11:9] = d; word[8:6] = a; word[5:3] = b; }
        action { if (RF[a] <s RF[b]) { RF[d] <- RF[b]; } else { RF[d] <- RF[a]; F <- RF[a]; } }
    }
    op min(d: REG, a: REG, b: REG) {
        encode { word[15:12] = 0b0101; word[11:9] = d; word[8:6] = a; word[5:3] = b; }
        action { RF[d] <- (RF[a] <s RF[b]) ? RF[a] : RF[b]; }
    }
    op cat(d: REG, a: REG, b: REG) {
        encode { word[15:12] = 0b0110; word[11:9] = d; word[8:6] = a; word[5:3] = b; }
        action { RF[d] <- concat(RF[a][7:0], RF[b][15:8]); }
    }
    op ins(d: REG, a: REG) {
        encode { word[15:12] = 0b0111; word[11:9] = d; word[8:6] = a; }
        action { RF[d][11:4] <- RF[a][7:0]; }
    }
    op sra(d: REG, a: REG, b: REG) {
        encode { word[15:12] = 0b1000; word[11:9] = d; word[8:6] = a; word[5:3] = b; }
        action { RF[d] <- RF[a] >>> RF[b]; }
    }
    op sdiv(d: REG, a: REG, b: REG) {
        encode { word[15:12] = 0b1001; word[11:9] = d; word[8:6] = a; word[5:3] = b; }
        action { RF[d] <- RF[a] /s RF[b]; }
    }
    op jmp(t: T5) { encode { word[15:12] = 0b1111; word[4:0] = t; } action { PC <- t; } }
    op nop() { encode { word[15:12] = 0b0000; } }
}
"#;

/// Straight-line code over [`CONSTRUCTS`] in which every construct's
/// result differs from what a plausible wrong lowering computes: a
/// zero-extending `sext`, a comparison of unsigned values or of the low
/// bit alone, a skipped else arm, a concat or slice off by one bit, a
/// logical shift, an unsigned divide.
pub const CONSTRUCTS_PROG: &str = "\
    li R1, -4
    li R2, 3
    li R3, 100
    slt R4, R2, R1
    sle R5, R1, R2
    max R6, R2, R1
    min R7, R1, R3
    cat R0, R1, R7
    ins R3, R1
    sle R4, R2, R1
    slt R5, R1, R2
    sra R2, R1, R2
    sdiv R1, R3, R1
end: jmp end
";

/// Every corpus machine paired with its programs.
pub fn corpus() -> Vec<(&'static str, Machine, String)> {
    let spam = isdl::load(isdl::samples::SPAM).expect("spam loads");
    let spam_asm = archex::compile(&spam, &archex::workloads::fir(3, 8)).expect("compiles").asm;
    let spam2 = isdl::load(isdl::samples::SPAM2).expect("spam2 loads");
    let spam2_asm =
        archex::compile(&spam2, &archex::workloads::vector_update(4)).expect("compiles").asm;
    let widemul = || isdl::load(isdl::samples::WIDEMUL).expect("loads");
    vec![
        ("toy", isdl::load(isdl::samples::TOY).expect("loads"), TOY_MIXED.to_owned()),
        ("acc16", isdl::load(isdl::samples::ACC16).expect("loads"), ACC16_SUM.to_owned()),
        ("widemul", widemul(), WIDEMUL_PROG.to_owned()),
        ("widemul-div", widemul(), WIDEMUL_DIV_PROG.to_owned()),
        ("widemul-mixed", widemul(), WIDEMUL_MIXED.to_owned()),
        ("spam", spam, spam_asm),
        ("spam2", spam2, spam2_asm),
        ("constructs", isdl::load(CONSTRUCTS).expect("loads"), CONSTRUCTS_PROG.to_owned()),
    ]
}

/// Reads every cell of every storage (program counter included) so a
/// divergence anywhere in architectural state fails the comparison.
#[allow(dead_code)] // the netlist differential compares against hardware instead
pub fn full_state(machine: &Machine, sim: &Xsim<'_>) -> Vec<BitVector> {
    let mut out = Vec::new();
    for (i, s) in machine.storages.iter().enumerate() {
        for a in 0..s.cells() {
            out.push(sim.state().read(isdl::rtl::StorageId(i), a).clone());
        }
    }
    out
}
