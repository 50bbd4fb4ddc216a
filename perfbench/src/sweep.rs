//! `eval_sweep_netlist`: every single-edit neighbour of SPAM, evaluated
//! one at a time with the levelized netlist cross-check.
//!
//! The sweep covers the infeasible early exits (candidates the kernels
//! do not compile for) and one candidate that spins until its cycle
//! budget runs out, which takes about a third of every pass.

use crate::inputs::{self, Candidate};
use crate::stats::ms_since;
use crate::{measure, pins, Checks, Outcome, Samples};
use archex::{evaluate_with, EvalError, EvalOptions, Evaluation, Kernel, NetlistCheck};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// The evaluation options of the sweep: defaults plus the levelized
/// netlist cross-check.
#[must_use]
pub fn options() -> EvalOptions<'static> {
    EvalOptions {
        netlist: NetlistCheck::Run(vlog::SimBackend::Levelized),
        ..EvalOptions::default()
    }
}

/// The sweep's inputs.
pub struct Setup {
    /// The neighbours, in seeded order.
    pub candidates: Vec<Candidate>,
    /// The seeded kernels.
    pub kernels: Vec<Kernel>,
}

/// Builds the neighbours and kernels, and evaluates SPAM once so lazy
/// process state is in place before timing.
#[must_use]
pub fn setup(seed: u64) -> Setup {
    let start = inputs::spam();
    let kernels = inputs::kernels(seed);
    let candidates = inputs::single_edit_neighbours(&start, seed);
    let _ = evaluate_with(&start, &kernels, &options());
    Setup { candidates, kernels }
}

/// One evaluation; `None` if it panicked.
#[must_use]
pub fn evaluate(
    c: &Candidate,
    kernels: &[Kernel],
    opts: &EvalOptions<'_>,
) -> Option<Result<Evaluation, EvalError>> {
    catch_unwind(AssertUnwindSafe(|| evaluate_with(&c.machine, kernels, opts))).ok()
}

/// Outcomes a single edit may legitimately have: success, a kernel that
/// no longer compiles, or a cycle budget burnt by a machine that can no
/// longer leave its loop.
fn expected_kind(r: &Result<Evaluation, EvalError>) -> bool {
    matches!(r, Ok(_) | Err(EvalError::Compile(..) | EvalError::BudgetExhausted { .. }))
}

/// Runs whole passes over the neighbours until `budget` has elapsed.
/// Throughput is evaluations per second; latency is one
/// `evaluate_with` call.
#[must_use]
pub fn run(seed: u64, budget: Duration) -> Outcome {
    let opts = options();
    let mut checks = Checks::default();
    let mut samples = Samples::default();
    let mut first_pass: Vec<Option<String>> = Vec::new();
    let (_, setup_s) = measure(
        budget,
        || setup(seed),
        |s| {
            first_pass.resize(s.candidates.len(), None);
            let mut pass_ms = 0.0;
            for (c, first) in s.candidates.iter().zip(&mut first_pass) {
                let t0 = Instant::now();
                let outcome = evaluate(c, &s.kernels, &opts);
                let ms = ms_since(t0);
                samples.latency_ms.push(ms);
                pass_ms += ms;
                let key = format!("eval_sweep_netlist/{}", c.edit);
                match outcome {
                    None => checks.op(false, || format!("{key}: panicked")),
                    Some(r) if !expected_kind(&r) => {
                        checks.op(false, || {
                            format!("{key}: unexpected outcome {}", pins::outcome(&r))
                        });
                    }
                    Some(r) => checks.reproduced(seed, &key, &pins::outcome(&r), first),
                }
            }
            samples.rate(s.candidates.len() as f64, pass_ms);
        },
    );
    Outcome { metrics: samples.end_to_end(setup_s), checks }
}

/// Seed-0 outcome digest of every neighbour, for `benchmark pins`.
#[must_use]
pub fn pin_entries() -> Vec<(String, String)> {
    let s = setup(0);
    let opts = options();
    s.candidates
        .iter()
        .map(|c| {
            let digest = evaluate(c, &s.kernels, &opts)
                .map_or_else(|| "panic".to_owned(), |r| pins::outcome(&r));
            (format!("eval_sweep_netlist/{}", c.edit), digest)
        })
        .collect()
}
