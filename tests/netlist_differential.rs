//! Differential over the netlist simulation tiers: for every program
//! of the shared corpus and every middle-end opt level, the event-driven
//! netlist simulator and the compiled levelized netlist simulator must
//! each agree bit-for-bit with the ILS (XSIM) on final architectural
//! state, and so with each other. This is the standing gate that keeps
//! the levelized backend honest — it collapses 4-state event-driven
//! evaluation into 2-state straight-line sweeps, and any shortcut that
//! changes semantics fails here, on compiler-shaped code, not just on
//! hand-written counters. The hardware is generated independently of
//! XSIM's bytecode compiler, so the same gate checks that compiler on
//! every RTL construct it lowers (the corpus's `constructs` machine).

mod corpus;

use bitv::BitVector;
use corpus::{corpus, LEVELS};
use gensim::{StopReason, Xsim};
use hgen::{synthesize, HgenOptions};
use isdl::Machine;
use vlog::{AnySim, SimBackend};
use xasm::{Assembler, Program};

const BACKENDS: [SimBackend; 2] = [SimBackend::Event, SimBackend::Levelized];

/// Runs `program` on XSIM until it halts; returns the simulator.
fn run_xsim<'m>(machine: &'m Machine, program: &Program) -> Xsim<'m> {
    let mut sim = Xsim::generate(machine).expect("generates");
    sim.load_program(program);
    assert_eq!(sim.run(1_000_000), StopReason::Halted, "corpus program must halt");
    sim
}

/// The tentpole gate: the ILS and each netlist backend agree on every
/// storage cell, for every corpus machine, at every HGEN opt level.
#[test]
fn netlist_backends_match_the_ils_across_samples_and_opt_levels() {
    for (name, machine, asm) in corpus() {
        let program = Assembler::new(&machine).assemble(&asm).expect("assembles");
        let xsim = run_xsim(&machine, &program);
        for opt in LEVELS {
            let result =
                synthesize(&machine, HgenOptions { opt, ..HgenOptions::default() }).expect("synth");
            for backend in BACKENDS {
                let mut hw = result.simulator(backend).expect("elaborates");
                if let Err(e) = archex::check_netlist(&machine, &mut hw, &program, &xsim) {
                    panic!("{name} at opt={opt}: {e}");
                }
            }
        }
    }
}

/// The check's failure path: a data-memory cell, then a plain register,
/// changed in the ILS state after the run fails the check on both
/// backends with a message naming that cell and both values.
#[test]
fn a_changed_ils_cell_fails_the_check_naming_the_cell() {
    let (_, machine, asm) = corpus().into_iter().find(|(n, ..)| *n == "toy").expect("toy");
    let program = Assembler::new(&machine).assemble(&asm).expect("assembles");
    let mut xsim = run_xsim(&machine, &program);
    let result = synthesize(&machine, HgenOptions::default()).expect("synthesizes");
    for backend in BACKENDS {
        let hw = result.simulator(backend).expect("elaborates");
        archex::check_netlist(&machine, &mut hw.clone(), &program, &xsim).expect("agrees");
        // TOY_MIXED stores its first sum at DM[30] and ends with a MAC
        // result in ACC.
        for (storage, cell) in [("DM", 30), ("ACC", 0)] {
            let (id, s) = machine.storage_by_name(storage).expect("storage");
            let good = xsim.state().read(id, cell).clone();
            let bad = BitVector::from_u64(good.to_u64_lossy() ^ 1, s.width);
            xsim.state_mut().poke(id, cell, bad.clone());
            let err = archex::check_netlist(&machine, &mut hw.clone(), &program, &xsim)
                .expect_err("a changed cell fails the check");
            assert_eq!(err, format!("{storage}[{cell}]: ILS {bad}, netlist ({backend}) {good}"));
            xsim.state_mut().poke(id, cell, good);
        }
    }
}

/// Beyond final state: both backends driven by the same stimulus must
/// produce byte-identical VCD waveforms — they share one writer, and
/// every intermediate net value matches cycle by cycle.
#[test]
fn vcd_waveforms_are_byte_identical_between_backends() {
    use std::sync::{Arc, Mutex};

    #[derive(Clone, Default)]
    struct SharedSink(Arc<Mutex<Vec<u8>>>);
    impl std::io::Write for SharedSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().expect("sink lock").extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    for (name, machine, asm) in corpus() {
        let program = Assembler::new(&machine).assemble(&asm).expect("assembles");
        let dump = |backend: SimBackend| {
            let result = synthesize(&machine, HgenOptions::default()).expect("synthesizes");
            let mut sim = result.simulator(backend).expect("elaborates");
            hgen::load_program(&machine, &mut sim, &program).expect("loads");
            let sink = SharedSink::default();
            sim.start_vcd(Box::new(sink.clone())).expect("vcd starts");
            sim.clock(200).expect("clocks");
            sim.stop_vcd();
            let bytes = sink.0.lock().expect("sink lock").clone();
            bytes
        };
        let event = dump(SimBackend::Event);
        let lev = dump(SimBackend::Levelized);
        assert!(!event.is_empty(), "{name}: VCD captured something");
        assert_eq!(event, lev, "{name}: waveforms diverge between backends");
    }
}

/// The quiescence machinery does real work on real machines: once a
/// SPAM kernel has halted in its self-loop, most partitions stop
/// changing and the skip counters show it.
#[test]
fn levelized_stats_show_partition_skipping_on_spam() {
    let machine = isdl::load(isdl::samples::SPAM).expect("loads");
    let asm = archex::compile(&machine, &archex::workloads::fir(3, 8)).expect("compiles").asm;
    let program = Assembler::new(&machine).assemble(&asm).expect("assembles");
    let xsim = run_xsim(&machine, &program);
    let result = synthesize(&machine, HgenOptions::default()).expect("synthesizes");
    let mut sim = result.simulator(SimBackend::Levelized).expect("elaborates");
    archex::check_netlist(&machine, &mut sim, &program, &xsim).expect("agrees with the ILS");
    assert!(sim.cycles() > xsim.stats().cycles, "the check clocks past the ILS count");
    let AnySim::Levelized(ref lsim) = sim else {
        panic!("levelized backend requested");
    };
    let st = lsim.stats();
    assert!(st.levels > 1, "a real datapath has depth: {st:?}");
    assert!(st.partitions > 1, "independent cones partition: {st:?}");
    assert!(st.partitions_skipped > 0, "quiescent partitions are skipped: {st:?}");
    assert!(st.skip_rate() > 0.0 && st.skip_rate() < 1.0, "skip rate is a rate: {st:?}");
    let json = vlog::stats_json(&sim);
    assert_eq!(json.get_str("schema"), Some("vlog-stats/1"));
    let round_trip = obs::Json::parse(&json.to_pretty()).expect("stats parse back");
    assert_eq!(round_trip.get_u64("cycles"), Some(sim.cycles()));
}

/// Every net and every memory cell of `sim`, in declaration order.
fn netlist_state(sim: &AnySim) -> Vec<BitVector> {
    let nl = sim.netlist().clone();
    let nets = nl.nets.iter().map(|n| sim.peek(&n.name).expect("net"));
    let cells = nl.mems.iter().flat_map(|m| (0..m.depth).map(|a| sim.peek_memory(&m.name, a)));
    nets.chain(cells.map(|c| c.expect("cell"))).collect()
}

/// `hgen::load_program` writes each memory in one batch and settles
/// once; writing the same cells one `poke_memory` at a time must leave
/// every net and every memory cell equal, on both backends, before the
/// first edge and after clocking.
#[test]
fn batched_program_load_matches_per_cell_pokes_on_both_backends() {
    for (name, machine, asm) in corpus() {
        let program = Assembler::new(&machine).assemble(&asm).expect("assembles");
        let result = synthesize(&machine, HgenOptions::default()).expect("synthesizes");
        let imem = &machine.storage(machine.imem.expect("imem")).name;
        let dm = machine.storages.iter().find(|s| s.kind == isdl::model::StorageKind::DataMemory);
        for backend in BACKENDS {
            let mut batched = result.simulator(backend).expect("elaborates");
            let mut single = batched.clone();
            hgen::load_program(&machine, &mut batched, &program).expect("loads");
            let w = machine.word_width;
            for (a, word) in program.words.iter().enumerate() {
                single.poke_memory(imem, a as u64, word.trunc(w).zext(w)).expect("pokes");
            }
            for &(addr, v) in dm.map_or(&[][..], |_| &program.data) {
                let dm = dm.expect("data memory");
                single
                    .poke_memory(&dm.name, addr, BitVector::from_i64(v, dm.width))
                    .expect("pokes");
            }
            assert!(batched.events() <= single.events(), "{name} ({backend}): one settle");
            assert_eq!(netlist_state(&batched), netlist_state(&single), "{name} ({backend})");
            batched.clock(40).expect("clocks");
            single.clock(40).expect("clocks");
            assert_eq!(netlist_state(&batched), netlist_state(&single), "{name} ({backend})");
        }
    }
}

/// `levelized.wide_fallbacks` counts the combinational nodes and clocked
/// statements that still evaluate a value wider than 64 bits. Slices of
/// SPAM's 128-bit instruction word run on the u64 lane, so only the
/// fetch `instr = IM[PC]` remains. WIDEMUL keeps its two 128-bit
/// divide/modulo nodes and the two clocked statements that truncate
/// their results to 16 bits (a truncation's operand is a 128-bit value).
#[test]
fn wide_fallbacks_count_what_still_runs_wide() {
    for (sample, want) in [(isdl::samples::SPAM, 1), (isdl::samples::WIDEMUL, 4)] {
        let machine = isdl::load(sample).expect("loads");
        let result = synthesize(&machine, HgenOptions::default()).expect("synthesizes");
        let sim = result.simulator(SimBackend::Levelized).expect("elaborates");
        let stats = vlog::stats_json(&sim);
        let levelized = stats.get("levelized").expect("levelized block");
        assert_eq!(levelized.get_u64("wide_fallbacks"), Some(want), "{}", machine.name);
    }
}
