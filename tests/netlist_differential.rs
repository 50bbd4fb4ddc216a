//! Three-way differential over the netlist simulation tiers: for every
//! program of the shared corpus and every middle-end opt level, the ILS
//! (XSIM), the event-driven netlist simulator, and the compiled
//! levelized netlist simulator must agree bit-for-bit on final
//! architectural state. This is the standing gate that keeps the
//! levelized backend honest — it collapses 4-state event-driven
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

/// Runs `program` on XSIM until it halts; returns the simulator.
fn run_xsim<'m>(machine: &'m Machine, program: &Program) -> Xsim<'m> {
    let mut sim = Xsim::generate(machine).expect("generates");
    sim.load_program(program);
    assert_eq!(sim.run(1_000_000), StopReason::Halted, "corpus program must halt");
    sim
}

/// Elaborates the HGEN netlist with `backend`, loads the program and
/// data image, and clocks it past quiescence.
fn run_netlist(
    machine: &Machine,
    program: &Program,
    options: HgenOptions,
    backend: SimBackend,
    edges: u64,
) -> AnySim {
    let result = synthesize(machine, options).expect("synthesizes");
    let mut sim = result.simulator(backend).expect("elaborates");
    hgen::load_program(machine, &mut sim, program).expect("loads");
    sim.clock(edges).expect("clocks");
    sim
}

/// Every data-carrying storage of `machine`, read from a netlist
/// simulator, in declaration order.
fn netlist_state(machine: &Machine, sim: &AnySim) -> Vec<(String, u64, BitVector)> {
    let mut out = Vec::new();
    for s in &machine.storages {
        use isdl::model::StorageKind::{InstructionMemory, ProgramCounter};
        if matches!(s.kind, ProgramCounter | InstructionMemory) {
            continue;
        }
        for a in 0..s.cells() {
            let v = if s.kind.is_addressed() {
                sim.peek_memory(&s.name, a).expect("mem")
            } else {
                sim.peek(&s.name).expect("net")
            };
            out.push((s.name.clone(), a, v));
        }
    }
    out
}

/// The tentpole gate: ILS, event netlist, and levelized netlist agree
/// on every storage cell, for every corpus machine, at every HGEN opt
/// level.
#[test]
fn netlist_backends_match_the_ils_across_samples_and_opt_levels() {
    for (name, machine, asm) in corpus() {
        let program = Assembler::new(&machine).assemble(&asm).expect("assembles");
        let xsim = run_xsim(&machine, &program);
        let edges = 4 * xsim.stats().cycles + 16;
        for opt in LEVELS {
            let options = HgenOptions { opt, ..HgenOptions::default() };
            let event = run_netlist(&machine, &program, options, SimBackend::Event, edges);
            let lev = run_netlist(&machine, &program, options, SimBackend::Levelized, edges);
            let ev_state = netlist_state(&machine, &event);
            let lv_state = netlist_state(&machine, &lev);
            assert_eq!(ev_state, lv_state, "{name}: backends diverge at opt={opt}");
            for (i, s) in machine.storages.iter().enumerate() {
                use isdl::model::StorageKind::{InstructionMemory, ProgramCounter};
                if matches!(s.kind, ProgramCounter | InstructionMemory) {
                    continue;
                }
                for a in 0..s.cells() {
                    let soft = xsim.state().read(isdl::rtl::StorageId(i), a);
                    let hard = if s.kind.is_addressed() {
                        lev.peek_memory(&s.name, a).expect("mem")
                    } else {
                        lev.peek(&s.name).expect("net")
                    };
                    assert_eq!(
                        *soft, hard,
                        "{name}: {}[{a}] differs from the ILS at opt={opt}",
                        s.name
                    );
                }
            }
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
    let edges = 4 * xsim.stats().cycles + 16;
    let sim = run_netlist(&machine, &program, HgenOptions::default(), SimBackend::Levelized, edges);
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
    assert_eq!(round_trip.get_u64("cycles"), Some(edges));
}
