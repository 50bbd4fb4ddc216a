#![deny(missing_docs)]

//! A layered benchmark of the Figure 1 loop: candidate evaluation,
//! exploration, and the paper's Tables 1–2.
//!
//! Every number is host time, taken from outside around calls into each
//! crate's public functions. See `README.md` for the workloads, the
//! metrics, and the layer → metric → workload map.

pub mod compare;
pub mod explore;
mod inputs;
pub mod layers;
mod pins;
pub mod sim;
pub mod stats;
pub mod sweep;

use obs::Json;
use std::time::{Duration, Instant};

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit, as declared in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The end-to-end metrics every workload reports, with their units. The
/// meaning of "operation" and "work item" is per workload (README).
pub const END_TO_END: [(&str, &str); 4] = [
    ("throughput_per_s", "1/s"),
    ("latency_ms_p25", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The workloads, in the order `run` executes them.
pub const WORKLOADS: [&str; 7] = [
    "explore_greedy",
    "explore_beam_warm",
    "eval_sweep_netlist",
    "xsim_fir",
    "lsim_fir",
    "esim_fir",
    "synth_spam",
];

/// Operation accounting: every attempted operation, and a message for
/// each one that panicked, returned an outcome other than the expected
/// one, or failed a check.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations attempted.
    pub attempted: u64,
    /// One message per failed operation.
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts one operation, failed unless `ok`.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Counts one operation that must reproduce `expected` exactly.
    pub fn expect_eq(&mut self, what: &str, got: &str, expected: &str) {
        self.op(got == expected, || format!("{what}: got `{got}`, expected `{expected}`"));
    }

    /// Counts one operation whose output must equal the pin `key`.
    pub fn pinned(&mut self, key: &str, got: &str) {
        match pins::get(key) {
            Some(expected) => self.expect_eq(key, got, &expected),
            None => self.op(false, || format!("{key}: no pin (got `{got}`)")),
        }
    }

    /// Counts one operation whose output must be reproducible: equal to
    /// the pin `key` on seed 0, and to the first repeat's output (kept in
    /// `first`) on other seeds.
    pub fn reproduced(&mut self, seed: u64, key: &str, got: &str, first: &mut Option<String>) {
        if seed == 0 {
            self.pinned(key, got);
        } else {
            let expected = first.get_or_insert_with(|| got.to_owned()).clone();
            self.expect_eq(key, got, &expected);
        }
    }
}

/// What one run of a workload produced.
#[derive(Debug)]
pub struct Outcome {
    /// The reported metrics.
    pub metrics: Vec<Metric>,
    /// Operation accounting.
    pub checks: Checks,
}

impl Outcome {
    /// The result line a single run ends with: `correct`, `attempted`, `failed` and
    /// the metrics as `{name: {value, unit}}`.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut metrics = Json::obj();
        for m in &self.metrics {
            metrics.insert(m.name, Json::obj().with("value", m.value).with("unit", m.unit));
        }
        Json::obj()
            .with("correct", self.checks.failures.is_empty())
            .with("attempted", self.checks.attempted.max(1))
            .with("failed", self.checks.failures.len())
            .with("metrics", metrics)
    }
}

/// Timed samples of one workload's measured phase.
///
/// Both timings are quartiles on the fast side: the lower quartile of
/// operation latency and the upper quartile of repeat throughput. On a
/// host whose cores are shared with other tenants, interference only
/// ever adds time and comes in episodes of seconds; a median moves when
/// an episode covers half of a run, the fast quartile only when it
/// covers three quarters.
#[derive(Debug, Default)]
pub(crate) struct Samples {
    /// Per-operation latency, ms.
    pub latency_ms: Vec<f64>,
    /// Work items per second (candidates, cycles, syntheses), one sample
    /// per repeat of the workload's unit of work.
    pub rates: Vec<f64>,
}

impl Samples {
    /// Records one repeat that did `work` items in `ms` milliseconds.
    pub fn rate(&mut self, work: f64, ms: f64) {
        self.rates.push(work / (ms / 1e3).max(1e-12));
    }

    /// The end-to-end metrics from these samples, the median set-up
    /// time, and this process's peak RSS.
    #[must_use]
    pub fn end_to_end(&self, setup_s: f64) -> Vec<Metric> {
        let values = [
            stats::percentile(&self.rates, 75.0),
            stats::percentile(&self.latency_ms, 25.0),
            setup_s,
            stats::peak_rss_mb(),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric { name, value, unit })
            .collect()
    }
}

/// How many times each workload sets up; `setup_s` is the median.
pub(crate) const SETUP_REPS: usize = 9;

/// Sets up with `setup`, then repeats `op` on the result until `budget`
/// has elapsed (at least once). Returns the set-up result and the median
/// set-up time in seconds.
///
/// The set-up runs [`SETUP_REPS`] times: once before the timed phase,
/// then between operations, spread evenly over it (those results are
/// dropped). Host slowdowns last seconds, so set-ups run back to back
/// would all land in the same one.
pub(crate) fn measure<T>(
    budget: Duration,
    mut setup: impl FnMut() -> T,
    mut op: impl FnMut(&mut T),
) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut timed_setup = |times: &mut Vec<f64>| {
        let t0 = Instant::now();
        let out = setup();
        times.push(t0.elapsed().as_secs_f64());
        out
    };
    let mut state = timed_setup(&mut times);
    let start = Instant::now();
    loop {
        op(&mut state);
        let elapsed = start.elapsed();
        let due = if elapsed >= budget {
            SETUP_REPS
        } else {
            1 + ((SETUP_REPS - 1) as f64 * elapsed.as_secs_f64() / budget.as_secs_f64()) as usize
        };
        while times.len() < due {
            drop(timed_setup(&mut times));
        }
        if elapsed >= budget {
            return (state, stats::median(&times));
        }
    }
}

/// Repeats `op` until `budget` has elapsed, at least once.
pub(crate) fn for_duration(budget: Duration, mut op: impl FnMut()) {
    let t0 = Instant::now();
    loop {
        op();
        if t0.elapsed() >= budget {
            break;
        }
    }
}

/// Runs workload `name` on inputs from `seed`, measuring for `seconds`.
///
/// # Errors
///
/// An unknown workload name.
pub fn run_workload(name: &str, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let budget = Duration::from_secs_f64(seconds.max(0.0));
    Ok(match name {
        "explore_greedy" => explore::greedy(seed, budget),
        "explore_beam_warm" => explore::beam_warm(seed, budget),
        "eval_sweep_netlist" => sweep::run(seed, budget),
        "xsim_fir" => sim::xsim_fir(seed, budget),
        "lsim_fir" => sim::netlist_fir(seed, budget, vlog::SimBackend::Levelized),
        "esim_fir" => sim::netlist_fir(seed, budget, vlog::SimBackend::Event),
        "synth_spam" => sim::synth_spam(seed, budget),
        other => {
            return Err(format!("unknown workload `{other}` (known: {})", WORKLOADS.join(", ")))
        }
    })
}
