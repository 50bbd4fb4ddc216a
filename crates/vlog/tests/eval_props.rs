//! Property-based test: evaluating a random expression tree through
//! the elaborated netlist must match direct `BitVector` computation —
//! the netlist simulator and the bit-true reference semantics may
//! never drift apart.

use bitv::BitVector;
use proptest::prelude::*;
use vlog::ast::{LValue, VBinOp, VExpr, VModule, VUnOp};
use vlog::sim::NetlistSim;

/// A recipe for one 8-bit expression node over two 8-bit inputs `a`
/// and `b` and a 128-bit input `c`.
#[derive(Debug, Clone)]
enum Node {
    A,
    B,
    Const(u8),
    Bin(VBinOp, Box<Node>, Box<Node>),
    Un(VUnOp, Box<Node>),
    Cond(Box<Node>, Box<Node>, Box<Node>),
    /// A comparison, zero-extended to 8 bits.
    Cmp(VBinOp, Box<Node>, Box<Node>),
    /// `|` or `!` reduction, zero-extended to 8 bits.
    Red(VUnOp, Box<Node>),
    /// Bits `k + 7..=k` of the 16-bit `{x, y}`.
    Cat(u64, Box<Node>, Box<Node>),
    /// Bits `k + 7..=k` of `x` sign-extended to 16 bits.
    Sext(u64, Box<Node>),
    /// The low nibble of `x`, zero-extended back to 8 bits.
    Nibble(Box<Node>),
    /// `c[lo + 7:lo]`, straddling a word boundary for `lo` in 57..=63.
    Slice8(u32),
    /// Bits `k + 7..=k` of the 64-bit slice `c[lo + 63:lo]`.
    Slice64(u32, u64),
}

fn node_strategy() -> impl Strategy<Value = Node> {
    let leaf = prop_oneof![
        Just(Node::A),
        Just(Node::B),
        any::<u8>().prop_map(Node::Const),
        (0u32..=120).prop_map(Node::Slice8),
        (0u32..=64, 0u64..=56).prop_map(|(lo, k)| Node::Slice64(lo, k)),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        let bin_ops = prop_oneof![
            Just(VBinOp::Add),
            Just(VBinOp::Sub),
            Just(VBinOp::Mul),
            Just(VBinOp::Div),
            Just(VBinOp::Mod),
            Just(VBinOp::SDiv),
            Just(VBinOp::SRem),
            Just(VBinOp::And),
            Just(VBinOp::Or),
            Just(VBinOp::Xor),
            Just(VBinOp::Shl),
            Just(VBinOp::Shr),
            Just(VBinOp::AShr),
        ];
        let un_ops = prop_oneof![Just(VUnOp::Not), Just(VUnOp::Neg)];
        let cmp_ops = prop_oneof![
            Just(VBinOp::Eq),
            Just(VBinOp::Ne),
            Just(VBinOp::Lt),
            Just(VBinOp::Le),
            Just(VBinOp::SLt),
            Just(VBinOp::SLe),
        ];
        let red_ops = prop_oneof![Just(VUnOp::RedOr), Just(VUnOp::LNot)];
        prop_oneof![
            (cmp_ops, inner.clone(), inner.clone()).prop_map(|(op, a, b)| Node::Cmp(
                op,
                Box::new(a),
                Box::new(b)
            )),
            (red_ops, inner.clone()).prop_map(|(op, a)| Node::Red(op, Box::new(a))),
            (0u64..=8, inner.clone(), inner.clone()).prop_map(|(k, a, b)| Node::Cat(
                k,
                Box::new(a),
                Box::new(b)
            )),
            (0u64..=8, inner.clone()).prop_map(|(k, a)| Node::Sext(k, Box::new(a))),
            inner.clone().prop_map(|a| Node::Nibble(Box::new(a))),
            (bin_ops, inner.clone(), inner.clone()).prop_map(|(op, a, b)| Node::Bin(
                op,
                Box::new(a),
                Box::new(b)
            )),
            (un_ops, inner.clone()).prop_map(|(op, a)| Node::Un(op, Box::new(a))),
            (inner.clone(), inner.clone(), inner).prop_map(|(c, t, f)| Node::Cond(
                Box::new(c),
                Box::new(t),
                Box::new(f)
            )),
        ]
    })
}

fn to_vexpr(n: &Node) -> VExpr {
    match n {
        Node::A => VExpr::net("a"),
        Node::B => VExpr::net("b"),
        Node::Const(c) => VExpr::const_u64(u64::from(*c), 8),
        Node::Bin(op, x, y) => VExpr::binary(*op, to_vexpr(x), to_vexpr(y)),
        Node::Un(op, x) => VExpr::unary(*op, to_vexpr(x)),
        Node::Cond(c, t, f) => {
            VExpr::cond(VExpr::unary(VUnOp::RedOr, to_vexpr(c)), to_vexpr(t), to_vexpr(f))
        }
        Node::Cmp(op, x, y) => zext8(VExpr::binary(*op, to_vexpr(x), to_vexpr(y))),
        Node::Red(op, x) => zext8(VExpr::unary(*op, to_vexpr(x))),
        Node::Cat(k, x, y) => bits8(VExpr::Concat(vec![to_vexpr(x), to_vexpr(y)]), *k, 16),
        Node::Sext(k, x) => bits8(VExpr::Sext(Box::new(to_vexpr(x)), 8, 16), *k, 16),
        Node::Nibble(x) => VExpr::Zext(Box::new(VExpr::Trunc(Box::new(to_vexpr(x)), 4)), 4),
        Node::Slice8(lo) => VExpr::Slice("c".into(), lo + 7, *lo),
        Node::Slice64(lo, k) => bits8(VExpr::Slice("c".into(), lo + 63, *lo), *k, 64),
    }
}

/// A 1-bit expression zero-extended to 8 bits.
fn zext8(e: VExpr) -> VExpr {
    VExpr::Zext(Box::new(e), 7)
}

/// Bits `k + 7..=k` of the `w`-bit expression `e`.
fn bits8(e: VExpr, k: u64, w: u32) -> VExpr {
    VExpr::Trunc(Box::new(VExpr::binary(VBinOp::Shr, e, VExpr::const_u64(k, w))), 8)
}

/// Direct reference evaluation with `BitVector` semantics.
fn reference(n: &Node, a: &BitVector, b: &BitVector, c: &BitVector) -> BitVector {
    let reference = |n: &Node| reference(n, a, b, c);
    let bits8 = |v: BitVector, k: u64| v.lshr(u32::try_from(k).expect("small")).trunc(8);
    match n {
        Node::A => a.clone(),
        Node::B => b.clone(),
        Node::Const(c) => BitVector::from_u64(u64::from(*c), 8),
        Node::Bin(op, x, y) => {
            let l = reference(x);
            let r = reference(y);
            let amount =
                || u32::try_from(r.to_u64_lossy().min(u64::from(u32::MAX))).expect("clamped");
            match op {
                VBinOp::Add => l.wrapping_add(&r),
                VBinOp::Sub => l.wrapping_sub(&r),
                VBinOp::Mul => l.wrapping_mul(&r),
                VBinOp::Div => l.unsigned_div(&r),
                VBinOp::Mod => l.unsigned_rem(&r),
                VBinOp::SDiv => l.signed_div(&r),
                VBinOp::SRem => l.signed_rem(&r),
                VBinOp::And => l.and(&r),
                VBinOp::Or => l.or(&r),
                VBinOp::Xor => l.xor(&r),
                VBinOp::Shl => l.shl(amount()),
                VBinOp::Shr => l.lshr(amount()),
                VBinOp::AShr => l.ashr(amount()),
                _ => unreachable!("strategy emits arithmetic ops only"),
            }
        }
        Node::Un(op, x) => {
            let v = reference(x);
            match op {
                VUnOp::Not => v.not(),
                VUnOp::Neg => v.wrapping_neg(),
                _ => unreachable!("strategy emits ~ and - only"),
            }
        }
        Node::Cond(p, t, f) => {
            if reference(p).is_zero() {
                reference(f)
            } else {
                reference(t)
            }
        }
        Node::Cmp(op, x, y) => {
            let (l, r) = (reference(x), reference(y));
            let bit = match op {
                VBinOp::Eq => l == r,
                VBinOp::Ne => l != r,
                VBinOp::Lt => l.cmp_unsigned(&r).is_lt(),
                VBinOp::Le => l.cmp_unsigned(&r).is_le(),
                VBinOp::SLt => l.cmp_signed(&r).is_lt(),
                VBinOp::SLe => l.cmp_signed(&r).is_le(),
                _ => unreachable!("strategy emits comparisons only"),
            };
            BitVector::from_bool(bit).zext(8)
        }
        Node::Red(op, x) => {
            let zero = reference(x).is_zero();
            BitVector::from_bool(if *op == VUnOp::LNot { zero } else { !zero }).zext(8)
        }
        Node::Cat(k, x, y) => bits8(reference(x).concat(&reference(y)), *k),
        Node::Sext(k, x) => bits8(reference(x).sext(16), *k),
        Node::Nibble(x) => reference(x).trunc(4).zext(8),
        Node::Slice8(lo) => c.slice(lo + 7, *lo),
        Node::Slice64(lo, k) => bits8(c.slice(lo + 63, *lo), *k),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn netlist_evaluation_matches_bitvector_reference(
        n in node_strategy(),
        a in any::<u8>(),
        b in any::<u8>(),
        c in (any::<u64>(), any::<u64>()),
    ) {
        let mut m = VModule::new("m");
        m.add_input("a", 8);
        m.add_input("b", 8);
        m.add_input("c", 128);
        m.add_wire("y", 8);
        m.assign(LValue::net("y"), to_vexpr(&n));
        let mut sim = NetlistSim::elaborate(&m).expect("random trees elaborate");
        let av = BitVector::from_u64(u64::from(a), 8);
        let bv = BitVector::from_u64(u64::from(b), 8);
        let cv = BitVector::from_words(&[c.0, c.1], 128);
        sim.poke("a", av.clone()).expect("pokes");
        sim.poke("b", bv.clone()).expect("pokes");
        sim.poke("c", cv.clone()).expect("pokes");
        let expect = reference(&n, &av, &bv, &cv);
        prop_assert_eq!(sim.peek("y").expect("net"), &expect, "tree: {:?}", n);

        // The levelized backend compiles the same tree into a register
        // program (every value here is at most 64 bits wide, so no
        // `BitVector`-lane op) and must agree exactly.
        let mut lsim = vlog::lsim::LevelizedSim::elaborate(&m).expect("random trees compile");
        prop_assert_eq!(lsim.stats().wide_fallbacks, 0, "tree: {:?}", n);
        lsim.poke("a", av.clone()).expect("pokes");
        lsim.poke("b", bv.clone()).expect("pokes");
        lsim.poke("c", cv).expect("pokes");
        prop_assert_eq!(lsim.peek("y").expect("net"), expect, "levelized tree: {:?}", n);
    }
}
