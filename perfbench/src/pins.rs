//! Seed-0 output digests pinned in `pins.json`, and the digest forms
//! the checks compare.
//!
//! A digest is a short line of text, so a mismatch prints what changed.
//! Regenerate the file with `benchmark pins > perfbench/pins.json` when
//! a change is meant to alter the search result or the measurements.

use archex::{EvalError, Evaluation, Metrics, Trace};
use isdl::Machine;
use obs::Json;
use std::sync::OnceLock;

/// The pinned digest for `key`, if any.
#[must_use]
pub fn get(key: &str) -> Option<String> {
    static PINS: OnceLock<Json> = OnceLock::new();
    PINS.get_or_init(|| Json::parse(include_str!("../pins.json")).expect("pins.json parses"))
        .get_str(key)
        .map(str::to_owned)
}

/// 64-bit FNV-1a: a content hash that is fixed across toolchains and
/// independent of the suite's own cache-key design.
#[must_use]
pub fn fnv1a(text: &str) -> u64 {
    text.bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// The digest of a machine: the hash of its canonical ISDL text.
#[must_use]
pub fn machine(m: &Machine) -> String {
    format!("{:016x}", fnv1a(&isdl::printer::print(m)))
}

/// The deterministic content of an exploration result.
#[must_use]
pub fn exploration(t: &Trace) -> String {
    let score = t.steps.last().map_or(0, |s| s.score.to_bits());
    format!(
        "machine={} steps={} evaluated={} cache_hits={} score={score:016x}",
        machine(&t.machine),
        t.steps.len(),
        t.evaluated,
        t.cache_hits,
    )
}

/// Every deterministic field of [`Metrics`] (wall-clock synthesis time
/// excluded).
#[must_use]
pub fn metrics(m: &Metrics) -> String {
    format!(
        "cycles={} instructions={} stalls={} cycle_ns={} area={} power={} lines={}",
        m.cycles,
        m.instructions,
        m.stall_cycles,
        m.cycle_ns,
        m.area_cells,
        m.power_mw,
        m.lines_of_verilog
    )
}

/// An evaluation outcome: its kind, plus the metrics when it succeeded.
#[must_use]
pub fn outcome(r: &Result<Evaluation, EvalError>) -> String {
    match r {
        Ok(ev) => format!("ok {}", metrics(&ev.metrics)),
        Err(e) => e.kind_name().to_owned(),
    }
}

/// A Table 2 row without its wall-clock column.
#[must_use]
pub fn table2_row(r: &hgen::HgenResult) -> String {
    format!(
        "cycle_ns={} lines={} area={} power={}",
        r.report.cycle_ns, r.lines_of_verilog, r.report.area_cells, r.report.power_mw
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a("a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn pins_file_parses_and_holds_strings() {
        assert!(get("xsim_fir.fir_cycles").is_some());
    }
}
