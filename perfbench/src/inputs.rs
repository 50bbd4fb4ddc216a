//! Workload inputs generated from the `--seed` argument.
//!
//! Seed 0 is exactly the `explore_dsp` example's kernel set. Any other
//! seed keeps the kernel sizes and draws every kernel's data values from
//! a fixed LCG, and shuffles the sweep order. Sizes stay fixed because
//! they set the amount of work: drawing them per seed (FIR 3–4 taps × 8–12
//! samples, dot 5–7, vector update 4–6) moved exploration throughput by
//! 21% between seeds, which would hide any regression smaller than that.
//! Data values change what every kernel computes and every check
//! compares, at the same cost. The program under test only ever sees the
//! generated kernels and machines.

use archex::{apply_mutation, workloads, Kernel, Mutation};
use isdl::model::{FieldId, NtId, OpRef, StorageKind};
use isdl::Machine;

/// Dot-product length.
pub const DOT: u64 = 6;
/// FIR taps.
pub const TAPS: u64 = 3;
/// FIR input samples.
pub const SAMPLES: u64 = 10;
/// Vector-update length.
pub const VECUPD: u64 = 5;

/// Knuth's MMIX linear congruential generator, started from a
/// SplitMix64-scrambled seed so that neighbouring seeds give unrelated
/// streams. Tiny, fixed, and the same on every platform.
pub struct Lcg(u64);

impl Lcg {
    /// A generator whose stream is a pure function of `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        Self(z ^ (z >> 31))
    }

    fn next(&mut self) -> u64 {
        self.0 =
            self.0.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 33
    }

    /// A value in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = usize::try_from(self.range(0, i as u64)).expect("index fits");
            items.swap(i, j);
        }
    }
}

/// `kernel` with its data values drawn from stream `stream` of `seed`
/// (unchanged on seed 0).
fn seeded(mut kernel: Kernel, seed: u64, stream: u64) -> Kernel {
    if seed != 0 {
        let mut lcg = Lcg::new(seed.wrapping_mul(8).wrapping_add(stream));
        for (_, v) in &mut kernel.data {
            *v = i64::try_from(lcg.range(1, 20)).expect("small value");
        }
    }
    kernel
}

/// The dot-product kernel of `seed`.
#[must_use]
pub fn dot(seed: u64) -> Kernel {
    seeded(workloads::dot_product(DOT), seed, 0)
}

/// The FIR kernel of `seed` (the Table 1 program).
#[must_use]
pub fn fir(seed: u64) -> Kernel {
    seeded(workloads::fir(TAPS, SAMPLES), seed, 1)
}

/// The exploration kernel set of `seed`: dot product, FIR, vector update.
#[must_use]
pub fn kernels(seed: u64) -> Vec<Kernel> {
    vec![dot(seed), fir(seed), seeded(workloads::vector_update(VECUPD), seed, 2)]
}

/// The initial value of data address `addr` in `kernel`.
fn word(kernel: &Kernel, addr: u64) -> u64 {
    let v = kernel.data.iter().find(|(a, _)| *a == addr).map_or(0, |&(_, v)| v);
    u64::try_from(v).expect("kernel data is positive")
}

/// The result of a [`dot`] kernel, computed independently of the
/// toolchain, and its data address.
#[must_use]
pub fn dot_expected(kernel: &Kernel) -> (u64, u64) {
    (2 * DOT, (0..DOT).map(|i| word(kernel, i) * word(kernel, DOT + i)).sum())
}

/// The outputs of a [`fir`] kernel, computed independently of the
/// toolchain, and the data address of the first one.
#[must_use]
pub fn fir_expected(kernel: &Kernel) -> (u64, Vec<u64>) {
    let outputs = SAMPLES - (TAPS - 1);
    let values = (0..outputs)
        .map(|o| (0..TAPS).map(|t| word(kernel, t) * word(kernel, TAPS + o + TAPS - 1 - t)).sum())
        .collect();
    (TAPS + SAMPLES, values)
}

/// The SPAM machine every workload starts from.
#[must_use]
pub fn spam() -> Machine {
    isdl::load(isdl::samples::SPAM).expect("the SPAM sample loads")
}

/// One single-edit neighbour of the starting machine.
pub struct Candidate {
    /// The edit, as `Mutation`'s display form.
    pub edit: String,
    /// The edited machine.
    pub machine: Machine,
}

/// Every structurally possible `RemoveOp`, `RemoveField` and
/// `RemoveNtOption` edit of `start`, in machine order for seed 0 and
/// shuffled by the seed otherwise.
#[must_use]
pub fn single_edit_neighbours(start: &Machine, seed: u64) -> Vec<Candidate> {
    let mut out: Vec<Candidate> = single_edits(start)
        .iter()
        .filter_map(|m| {
            apply_mutation(start, m).map(|machine| Candidate { edit: m.to_string(), machine })
        })
        .collect();
    if seed != 0 {
        Lcg::new(seed).shuffle(&mut out);
    }
    out
}

/// The single edits [`single_edit_neighbours`] applies, in machine order.
#[must_use]
pub fn single_edits(start: &Machine) -> Vec<Mutation> {
    let mut edits = Vec::new();
    for (f, field) in start.fields.iter().enumerate() {
        for op in 0..field.ops.len() {
            edits.push(Mutation::RemoveOp(OpRef { field: FieldId(f), op }));
        }
        edits.push(Mutation::RemoveField(FieldId(f)));
    }
    for (n, nt) in start.nonterminals.iter().enumerate() {
        for option in 0..nt.options.len() {
            edits.push(Mutation::RemoveNtOption(NtId(n), option));
        }
    }
    edits
}

/// The data memory of `machine`, if it has one.
#[must_use]
pub fn data_memory(machine: &Machine) -> Option<(isdl::rtl::StorageId, &isdl::model::Storage)> {
    machine
        .storages
        .iter()
        .enumerate()
        .find(|(_, s)| s.kind == StorageKind::DataMemory)
        .map(|(i, s)| (isdl::rtl::StorageId(i), s))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_is_explore_dsp_and_other_seeds_only_change_data() {
        let stock = [workloads::dot_product(6), workloads::fir(3, 10), workloads::vector_update(5)];
        for (a, b) in kernels(0).iter().zip(&stock) {
            assert_eq!((&a.name, &a.data), (&b.name, &b.data));
        }
        assert_eq!(dot_expected(&dot(0)).1, workloads::dot_product_expected(DOT));
        for seed in 1..50 {
            for (a, b) in kernels(seed).iter().zip(&stock) {
                assert_eq!(
                    (&a.name, a.ops.len(), a.data.len()),
                    (&b.name, b.ops.len(), b.data.len())
                );
            }
            assert_eq!(kernels(seed)[1].data, fir(seed).data, "same seed, same inputs");
        }
        assert_ne!(kernels(1)[0].data, kernels(2)[0].data, "seeds differ");
    }

    #[test]
    fn sweep_order_is_a_seeded_permutation() {
        let m = spam();
        let base = single_edit_neighbours(&m, 0);
        let shuffled = single_edit_neighbours(&m, 7);
        let mut a: Vec<_> = base.iter().map(|c| c.edit.clone()).collect();
        let mut b: Vec<_> = shuffled.iter().map(|c| c.edit.clone()).collect();
        assert_ne!(a, b, "seed 7 reorders the sweep");
        a.sort();
        b.sort();
        assert_eq!(a, b, "but keeps the same candidates");
    }
}
