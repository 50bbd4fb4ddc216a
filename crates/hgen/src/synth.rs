//! The HGEN driver: ISDL in, synthesizable Verilog + synthesis report
//! out (the Table 2 flow).

use crate::decode::DecodeStyle;
use crate::emit::{emit, EmitStats};
use crate::share::ShareOptions;
use isdl::model::{Machine, StorageKind};
use std::time::Instant;
use vlog::ast::VModule;
use vlog::tech::{self, TechReport};
use vlog::VlogError;

/// HGEN configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HgenOptions {
    /// Decode implementation style.
    pub decode: DecodeStyle,
    /// Resource-sharing configuration.
    pub share: ShareOptions,
    /// RTL middle-end level applied before lowering ([`isdl::opt`]).
    /// The generated netlist stays functionally equivalent at every
    /// level; `OptLevel::None` is the differential baseline.
    pub opt: isdl::opt::OptLevel,
    /// Explicit middle-end pass schedule overriding the canonical
    /// schedule `opt` selects; `None` (the default) runs the level's
    /// schedule.
    pub passes: Option<isdl::opt::PassList>,
}

impl HgenOptions {
    /// The middle-end pipeline these options select.
    #[must_use]
    pub fn pipeline(&self) -> isdl::opt::Pipeline {
        match self.passes {
            Some(list) => isdl::opt::Pipeline::with_passes(self.opt, list),
            None => isdl::opt::Pipeline::for_level(self.opt),
        }
    }
}

/// The result of synthesizing one machine.
#[derive(Debug, Clone)]
pub struct HgenResult {
    /// The generated synthesizable module.
    pub module: VModule,
    /// The emitted Verilog text.
    pub verilog: String,
    /// Lines of Verilog (a Table 2 column).
    pub lines_of_verilog: usize,
    /// Technology analysis: die size, cycle length, power.
    pub report: TechReport,
    /// Datapath statistics from the sharing pass.
    pub stats: EmitStats,
    /// Wall-clock synthesis time in seconds (a Table 2 column).
    pub synthesis_time_s: f64,
}

impl HgenResult {
    /// Elaborates the generated module into a netlist simulator of the
    /// chosen backend (see `docs/SIMULATORS.md` for the trade-off).
    ///
    /// # Errors
    ///
    /// Propagates elaboration/levelization errors; HGEN output is
    /// loop-free by construction, so both backends accept it.
    pub fn simulator(&self, backend: vlog::SimBackend) -> Result<vlog::AnySim, VlogError> {
        vlog::AnySim::elaborate(&self.module, backend)
    }
}

/// Loads an assembled program into a netlist simulator of `machine`'s
/// generated hardware, as `Xsim::load_program` does for the ILS: the
/// instruction words, sized to `machine.word_width`, into the
/// instruction memory, and the `.data` image, sized to the data
/// memory's width, into the data memory. Each memory is written in one
/// batch and settles once.
///
/// # Errors
///
/// The netlist lacks a memory the program needs.
///
/// # Panics
///
/// If the machine has no instruction memory, which [`synthesize`]
/// rejects too.
pub fn load_program(
    machine: &Machine,
    sim: &mut vlog::AnySim,
    program: &xasm::Program,
) -> Result<(), VlogError> {
    let imem = &machine.storage(machine.imem.expect("synthesizable machines have an imem")).name;
    let w = machine.word_width;
    let words: Vec<_> = program
        .words
        .iter()
        .enumerate()
        .map(|(a, word)| (a as u64, word.trunc(w).zext(w)))
        .collect();
    sim.poke_memory_cells(imem, &words)?;
    if let Some(dm) = machine.storages.iter().find(|s| s.kind == StorageKind::DataMemory) {
        let data: Vec<_> = program
            .data
            .iter()
            .map(|&(addr, v)| (addr, bitv::BitVector::from_i64(v, dm.width)))
            .collect();
        sim.poke_memory_cells(&dm.name, &data)?;
    }
    Ok(())
}

/// Runs the full HGEN flow: datapath construction, resource sharing,
/// Verilog emission, and technology analysis.
///
/// # Errors
///
/// Returns a [`VlogError`] if the generated module fails elaboration
/// or timing (which would indicate a generator bug for validated
/// machines).
///
/// # Panics
///
/// Panics if the machine has no program counter or instruction memory.
pub fn synthesize(machine: &Machine, options: HgenOptions) -> Result<HgenResult, VlogError> {
    let start = Instant::now();
    let (module, stats) = emit(machine, options.decode, options.share, options.pipeline());
    let verilog = module.to_verilog();
    let report = tech::analyze(&module)?;
    let synthesis_time_s = start.elapsed().as_secs_f64();
    Ok(HgenResult {
        lines_of_verilog: verilog.lines().count(),
        module,
        verilog,
        report,
        stats,
        synthesis_time_s,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use isdl::samples::{ACC16, TOY};

    #[test]
    fn toy_synthesizes_with_report() {
        let m = isdl::load(TOY).expect("loads");
        let r = synthesize(&m, HgenOptions::default()).expect("synthesizes");
        assert!(r.lines_of_verilog > 40, "non-trivial Verilog output");
        assert!(r.report.area_cells > 0.0);
        assert!(r.report.cycle_ns > 0.0);
        assert!(r.synthesis_time_s >= 0.0);
        assert!(r.verilog.contains("module toy"));
    }

    #[test]
    fn simulator_helper_serves_both_backends() {
        let m = isdl::load(TOY).expect("loads");
        let r = synthesize(&m, HgenOptions::default()).expect("synthesizes");
        for backend in [vlog::SimBackend::Event, vlog::SimBackend::Levelized] {
            let mut sim = r.simulator(backend).expect("elaborates");
            sim.clock(8).expect("clocks");
            assert_eq!(sim.cycles(), 8);
            assert_eq!(sim.backend(), backend);
        }
    }

    #[test]
    fn sharing_shrinks_area() {
        let m = isdl::load(TOY).expect("loads");
        let shared = synthesize(&m, HgenOptions::default()).expect("synthesizes");
        let unshared = synthesize(
            &m,
            HgenOptions {
                share: ShareOptions { enabled: false, ..ShareOptions::default() },
                ..HgenOptions::default()
            },
        )
        .expect("synthesizes");
        assert!(
            shared.report.area_cells < unshared.report.area_cells,
            "sharing must reduce area: {} vs {}",
            shared.report.area_cells,
            unshared.report.area_cells
        );
    }

    #[test]
    fn bigger_machine_costs_more() {
        let toy = isdl::load(TOY).expect("loads");
        let acc = isdl::load(ACC16).expect("loads");
        let rt = synthesize(&toy, HgenOptions::default()).expect("synthesizes");
        let ra = synthesize(&acc, HgenOptions::default()).expect("synthesizes");
        // toy is a 2-way VLIW with a multiplier; acc16 a small
        // accumulator machine. Compare combinational logic, because
        // total area is dominated by the memories.
        assert!(
            rt.report.area_breakdown["combinational"] > ra.report.area_breakdown["combinational"],
            "VLIW datapath outweighs the accumulator machine"
        );
        assert!(rt.lines_of_verilog > ra.lines_of_verilog);
    }

    #[test]
    fn naive_decode_costs_more_area() {
        let m = isdl::load(TOY).expect("loads");
        let two_level = synthesize(&m, HgenOptions::default()).expect("synthesizes");
        let naive = synthesize(
            &m,
            HgenOptions { decode: DecodeStyle::NaiveComparator, ..HgenOptions::default() },
        )
        .expect("synthesizes");
        assert!(
            naive.report.area_cells > two_level.report.area_cells,
            "comparator decode should cost more: {} vs {}",
            naive.report.area_cells,
            two_level.report.area_cells
        );
    }
}
