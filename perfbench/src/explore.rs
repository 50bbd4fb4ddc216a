//! The exploration workloads: the paper's loop as users run it.
//!
//! Runs use `instrument: false`. `Explorer::default()` instruments,
//! which also turns on per-candidate XSIM profiling — a different, slower
//! program than the one users run for throughput.

use crate::inputs;
use crate::stats::ms_since;
use crate::{measure, pins, Checks, Outcome, Samples};
use archex::{EvalCache, Explorer, Kernel, Strategy, Trace};
use isdl::Machine;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Warm re-runs after each cold beam run.
pub const WARM_RERUNS: usize = 20;

/// The beam strategy of `explore_beam_warm`.
pub const BEAM: Strategy = Strategy::Beam { width: 3 };

/// The explorer every workload runs: `explore_dsp`'s step limit,
/// uninstrumented.
#[must_use]
pub fn explorer(strategy: Strategy, threads: usize) -> Explorer {
    Explorer { max_steps: 12, strategy, threads, instrument: false, ..Explorer::default() }
}

struct Setup {
    start: Machine,
    kernels: Vec<Kernel>,
}

/// Loads SPAM, builds the seeded kernels, and evaluates the start
/// machine once so lazy process state is in place before timing.
fn setup(seed: u64) -> Setup {
    let start = inputs::spam();
    let kernels = inputs::kernels(seed);
    let _ = archex::evaluate(&start, &kernels, hgen::HgenOptions::default());
    Setup { start, kernels }
}

/// Runs one exploration with any panic turned into an error message.
fn explore(explorer: &Explorer, s: &Setup, cache: &EvalCache) -> Result<Trace, String> {
    match catch_unwind(AssertUnwindSafe(|| explorer.run_cached(&s.start, &s.kernels, cache))) {
        Ok(Ok(trace)) => Ok(trace),
        Ok(Err(e)) => Err(format!("start machine failed: {e}")),
        Err(_) => Err("exploration panicked".to_owned()),
    }
}

/// `explore_greedy`: cold greedy runs at one thread, each with a fresh
/// cache. Throughput is fresh evaluations per second; latency is one
/// whole run.
#[must_use]
pub fn greedy(seed: u64, budget: Duration) -> Outcome {
    let explorer = explorer(Strategy::Greedy, 1);
    let mut checks = Checks::default();
    let mut samples = Samples::default();
    let mut first = None;
    let (_, setup_s) = measure(
        budget,
        || setup(seed),
        |s| {
            let t0 = Instant::now();
            let run = explore(&explorer, s, &EvalCache::new());
            let ms = ms_since(t0);
            match run {
                Ok(trace) => {
                    samples.latency_ms.push(ms);
                    samples.rate(trace.evaluated as f64, ms);
                    checks.reproduced(
                        seed,
                        "explore_greedy",
                        &pins::exploration(&trace),
                        &mut first,
                    );
                }
                Err(e) => checks.op(false, || e),
            }
        },
    );
    Outcome { metrics: samples.end_to_end(setup_s), checks }
}

/// `explore_beam_warm`: repetitions of one cold beam run at two threads
/// followed by [`WARM_RERUNS`] re-runs on the filled cache. Throughput
/// is fresh evaluations per second of the cold runs; latency is one warm
/// re-run. After the timed phase, one single-thread beam run must match
/// the two-thread result.
#[must_use]
pub fn beam_warm(seed: u64, budget: Duration) -> Outcome {
    let parallel = explorer(BEAM, 2);
    let mut checks = Checks::default();
    let mut samples = Samples::default();
    let mut first = None;
    let mut reference: Option<Trace> = None;
    let (s, setup_s) = measure(
        budget,
        || setup(seed),
        |s| {
            let cache = EvalCache::new();
            let t0 = Instant::now();
            let cold = explore(&parallel, s, &cache);
            let ms = ms_since(t0);
            let cold = match cold {
                Ok(trace) => trace,
                Err(e) => return checks.op(false, || e),
            };
            samples.rate(cold.evaluated as f64, ms);
            checks.reproduced(seed, "explore_beam_warm", &pins::exploration(&cold), &mut first);
            for _ in 0..WARM_RERUNS {
                let t0 = Instant::now();
                let warm = explore(&parallel, s, &cache);
                samples.latency_ms.push(ms_since(t0));
                match warm {
                    Ok(warm) => checks.op(reproduces_from_cache(&warm, &cold), || {
                        format!(
                            "warm re-run diverged: {} vs cold {}",
                            pins::exploration(&warm),
                            pins::exploration(&cold)
                        )
                    }),
                    Err(e) => checks.op(false, || e),
                }
            }
            reference.get_or_insert(cold);
        },
    );
    if let Some(cold) = reference {
        let serial = explore(&explorer(BEAM, 1), &s, &EvalCache::new());
        checks.op(serial.as_ref().is_ok_and(|t| t.semantic_eq(&cold)), || {
            "a one-thread beam run differs from the two-thread run".to_owned()
        });
    }
    Outcome { metrics: samples.end_to_end(setup_s), checks }
}

/// A warm re-run must take the cold run's steps to the cold run's
/// machine without a single fresh evaluation.
fn reproduces_from_cache(warm: &Trace, cold: &Trace) -> bool {
    warm.evaluated == 0
        && warm.machine == cold.machine
        && warm.steps.len() == cold.steps.len()
        && warm.steps.iter().zip(&cold.steps).all(|(a, b)| a.semantic_eq(b))
}

/// Seed-0 digests of both exploration workloads, for `benchmark pins`.
#[must_use]
pub fn pin_entries() -> Vec<(String, String)> {
    let s = setup(0);
    [("explore_greedy", explorer(Strategy::Greedy, 1)), ("explore_beam_warm", explorer(BEAM, 2))]
        .into_iter()
        .map(|(key, e)| {
            let digest =
                explore(&e, &s, &EvalCache::new()).map_or_else(|e| e, |t| pins::exploration(&t));
            (key.to_owned(), digest)
        })
        .collect()
}
