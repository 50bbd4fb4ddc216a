//! `benchmark compare OLD NEW`: per workload and end-to-end metric,
//! improved, unchanged, regressed or unresolved against the bounds in
//! `BENCHMARK.json`.
//!
//! Result files are `bench/1` documents whose entries are named
//! `<workload>.<metric>`; an entry name that repeats is one sample per
//! run. A metric is *unresolved* when the run-to-run spread (interquartile
//! range over median) of either side is wider than its bound and the new
//! runs do not all beat the old ones; a spread that wide can hide a
//! regression as easily as fake a gain.

use crate::stats::{median, quartiles, relative_spread};
use obs::Json;
use std::collections::BTreeMap;
use std::fmt;

/// One end-to-end metric's declaration in `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Whether a higher value is better.
    pub higher_is_better: bool,
    /// Share of the old median by which the metric may worsen.
    pub bound: f64,
}

/// The metrics `BENCHMARK.json` declares.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// The end-to-end metrics, with their bounds.
    pub end_to_end: Vec<Declared>,
    /// The per-layer metrics, as `(name, unit)`.
    pub per_layer: Vec<(String, String)>,
}

/// Reads the metric declarations of `BENCHMARK.json`.
///
/// # Errors
///
/// Malformed JSON or a metric without the expected keys.
pub fn read_spec(text: &str) -> Result<Spec, String> {
    let spec = Json::parse(text)?;
    let list =
        |key: &str| spec.get(key).and_then(Json::as_arr).ok_or(format!("`{key}` is missing"));
    let end_to_end = list("end_to_end")?
        .iter()
        .map(|m| {
            Ok(Declared {
                name: m.get_str("name").ok_or("end-to-end metric without a name")?.to_owned(),
                unit: m.get_str("unit").ok_or("end-to-end metric without a unit")?.to_owned(),
                higher_is_better: m.get_str("better") == Some("higher"),
                bound: m.get_f64("bound").ok_or("end-to-end metric without a bound")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let per_layer = list("per_layer")?
        .iter()
        .map(|m| match (m.get_str("name"), m.get_str("unit")) {
            (Some(n), Some(u)) => Ok((n.to_owned(), u.to_owned())),
            _ => Err("per-layer metric without a name or unit".to_owned()),
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Spec { end_to_end, per_layer })
}

/// Samples per entry name of a `bench/1` document, in file order.
///
/// # Errors
///
/// Malformed JSON, another schema, or an entry without a numeric value.
pub fn read_results(text: &str) -> Result<BTreeMap<String, Vec<f64>>, String> {
    let doc = Json::parse(text)?;
    if doc.get_str("schema") != Some(bench::BENCH_SCHEMA) {
        return Err(format!("not a `{}` document", bench::BENCH_SCHEMA));
    }
    let mut out: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for e in doc.get("entries").and_then(Json::as_arr).ok_or("`entries` is missing")? {
        let (Some(name), Some(value)) = (e.get_str("name"), e.get_f64("value")) else {
            return Err(format!("malformed entry {e}"));
        };
        out.entry(name.to_owned()).or_default().push(value);
    }
    Ok(out)
}

/// The comparison's finding for one workload and metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better beyond the bound, in at least nine tenths of run pairs, by
    /// more than the old runs' own interquartile range.
    Improved,
    /// Within the bound.
    Unchanged,
    /// Worse than the bound allows (or missing, or operations failed).
    Regressed,
    /// The spread is wider than the bound and the new runs do not all win.
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::Improved => "improved",
            Self::Unchanged => "unchanged",
            Self::Regressed => "regressed",
            Self::Unresolved => "unresolved",
        })
    }
}

/// One line of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// `<workload>.<metric>`.
    pub name: String,
    /// Old median.
    pub old: f64,
    /// New median.
    pub new: f64,
    /// Relative change of the median, positive when worse.
    pub worse_by: f64,
    /// The wider of the two sides' relative spreads.
    pub spread: f64,
    /// The bound applied.
    pub bound: f64,
    /// The finding.
    pub verdict: Verdict,
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<44} {:>14.6} {:>14.6} {:>+8.2}% worse  spread {:>6.2}%  bound {:>5.1}%  {}",
            self.name,
            self.old,
            self.new,
            self.worse_by * 100.0,
            self.spread * 100.0,
            self.bound * 100.0,
            self.verdict
        )
    }
}

/// The verdict for one metric from its old and new samples.
#[must_use]
pub fn judge(old: &[f64], new: &[f64], higher_is_better: bool, bound: f64) -> Row {
    let (mo, mn) = (median(old), median(new));
    let sign = if higher_is_better { -1.0 } else { 1.0 };
    let worse_by = if mo == 0.0 { 0.0 } else { sign * (mn - mo) / mo.abs() };
    let spread = relative_spread(old).max(relative_spread(new));
    let better = |n: f64, o: f64| if higher_is_better { n > o } else { n < o };
    let all_win = new.iter().all(|&n| old.iter().all(|&o| better(n, o)));
    let pairs = old.len().min(new.len());
    let wins = old.iter().zip(new).filter(|(&o, &n)| better(n, o)).count();
    let (q1, q3) = quartiles(old);
    let verdict = if new.is_empty() {
        Verdict::Regressed
    } else if spread > bound && !all_win {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else if -worse_by > bound && wins * 10 >= pairs * 9 && (mn - mo).abs() > q3 - q1 {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    Row { name: String::new(), old: mo, new: mn, worse_by, spread, bound, verdict }
}

/// Compares every workload present in `new` on every declared metric,
/// plus its `failed_ratio`, which has an absolute bound of 0.
#[must_use]
pub fn compare(
    spec: &[Declared],
    old: &BTreeMap<String, Vec<f64>>,
    new: &BTreeMap<String, Vec<f64>>,
) -> Vec<Row> {
    let mut workloads: Vec<&str> =
        new.keys().filter_map(|k| k.split_once('.').map(|(w, _)| w)).collect();
    workloads.dedup();
    let mut rows = Vec::new();
    for w in workloads {
        for d in spec {
            let name = format!("{w}.{}", d.name);
            let Some(o) = old.get(&name) else { continue };
            let n = new.get(&name).map_or(&[][..], Vec::as_slice);
            rows.push(Row { name, ..judge(o, n, d.higher_is_better, d.bound) });
        }
        let name = format!("{w}.failed_ratio");
        if let Some(n) = new.get(&name) {
            let worst = n.iter().copied().fold(0.0, f64::max);
            let verdict = if worst > 0.0 { Verdict::Regressed } else { Verdict::Unchanged };
            let o = old.get(&name).map_or(0.0, |o| median(o));
            rows.push(Row {
                name,
                old: o,
                new: worst,
                worse_by: worst,
                spread: 0.0,
                bound: 0.0,
                verdict,
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> Vec<Declared> {
        vec![
            Declared {
                name: "throughput_per_s".into(),
                unit: "1/s".into(),
                higher_is_better: true,
                bound: 0.05,
            },
            Declared {
                name: "latency_ms_p25".into(),
                unit: "ms".into(),
                higher_is_better: false,
                bound: 0.05,
            },
        ]
    }

    fn results(throughput: &[f64], latency: &[f64], failed: f64) -> BTreeMap<String, Vec<f64>> {
        let mut m = BTreeMap::new();
        m.insert("w.throughput_per_s".to_owned(), throughput.to_vec());
        m.insert("w.latency_ms_p25".to_owned(), latency.to_vec());
        m.insert("w.failed_ratio".to_owned(), vec![failed; latency.len()]);
        m
    }

    fn verdicts(rows: &[Row]) -> Vec<(String, Verdict)> {
        rows.iter().map(|r| (r.name.clone(), r.verdict)).collect()
    }

    #[test]
    fn identical_results_are_unchanged() {
        let a = results(&[100.0, 101.0, 99.0], &[10.0, 10.1, 9.9], 0.0);
        let rows = compare(&spec(), &a, &a);
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.verdict == Verdict::Unchanged), "{rows:?}");
    }

    #[test]
    fn a_twenty_percent_regression_is_flagged_in_either_direction() {
        let old = results(&[100.0, 101.0, 99.0], &[10.0, 10.1, 9.9], 0.0);
        let new = results(&[80.0, 80.8, 79.2], &[12.0, 12.1, 11.9], 0.0);
        let rows = compare(&spec(), &old, &new);
        assert_eq!(
            verdicts(&rows),
            vec![
                ("w.throughput_per_s".to_owned(), Verdict::Regressed),
                ("w.latency_ms_p25".to_owned(), Verdict::Regressed),
                ("w.failed_ratio".to_owned(), Verdict::Unchanged),
            ]
        );
        assert!((rows[0].worse_by - 0.2).abs() < 1e-9);
    }

    #[test]
    fn a_consistent_gain_is_improved() {
        let old = results(&[100.0, 101.0, 99.0], &[10.0, 10.1, 9.9], 0.0);
        let new = results(&[120.0, 121.0, 119.0], &[8.0, 8.1, 7.9], 0.0);
        assert!(compare(&spec(), &old, &new)[..2].iter().all(|r| r.verdict == Verdict::Improved));
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_every_run_wins() {
        let old = results(&[100.0, 130.0, 70.0, 100.0], &[10.0; 4], 0.0);
        let new = results(&[100.0, 101.0, 99.0, 100.0], &[10.0; 4], 0.0);
        assert_eq!(compare(&spec(), &old, &new)[0].verdict, Verdict::Unresolved);
        let winning = results(&[160.0, 161.0, 159.0, 160.0], &[10.0; 4], 0.0);
        assert_eq!(compare(&spec(), &old, &winning)[0].verdict, Verdict::Improved);
    }

    #[test]
    fn any_failed_operation_or_missing_metric_regresses() {
        let old = results(&[100.0], &[10.0], 0.0);
        let failed = results(&[100.0], &[10.0], 0.01);
        assert_eq!(compare(&spec(), &old, &failed)[2].verdict, Verdict::Regressed);
        let mut missing = results(&[100.0], &[10.0], 0.0);
        missing.remove("w.latency_ms_p25");
        assert_eq!(compare(&spec(), &old, &missing)[1].verdict, Verdict::Regressed);
    }

    #[test]
    fn reads_bench_1_documents_and_the_spec() {
        let doc = bench::bench_json(&[
            bench::BenchEntry { name: "w.latency_ms_p25".into(), value: 1.5, unit: "ms" },
            bench::BenchEntry { name: "w.latency_ms_p25".into(), value: 2.5, unit: "ms" },
        ]);
        assert_eq!(read_results(&doc).expect("parses")["w.latency_ms_p25"], vec![1.5, 2.5]);
        let spec = read_spec(include_str!("../../BENCHMARK.json")).expect("spec parses");
        assert!(spec.end_to_end.iter().any(|d| d.name == "setup_s" && !d.higher_is_better));
        assert!(!spec.per_layer.is_empty());
    }
}
