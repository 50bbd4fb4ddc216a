//! Smoke test of the benchmark binary at the smallest scale
//! (`--seconds 0`: one repeat of each workload's unit of work).

use perfbench::compare::read_spec;
use perfbench::WORKLOADS;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const SPEC: &str = include_str!("../../BENCHMARK.json");

fn benchmark(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("the benchmark binary starts")
}

/// A working directory of this test's own.
fn workdir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("benchmark_smoke-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("working dir");
    dir
}

/// The result line of a single run, checked for correctness.
fn result(out: &Output) -> obs::Json {
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "exit {}: {}", out.status, String::from_utf8_lossy(&out.stderr));
    let r = obs::Json::parse(stdout.lines().last().expect("a result line"))
        .expect("the result is JSON");
    assert_eq!(
        r.get("correct"),
        Some(&obs::Json::Bool(true)),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(r.get_u64("failed"), Some(0));
    assert!(r.get_u64("attempted").is_some_and(|n| n >= 1));
    r
}

/// The `(name, unit)` pairs of a result's metrics.
fn metrics(r: &obs::Json) -> Vec<(String, String)> {
    let Some(obs::Json::Obj(members)) = r.get("metrics") else { panic!("no metrics object") };
    members
        .iter()
        .map(|(name, m)| {
            assert!(m.get_f64("value").is_some_and(f64::is_finite), "{name} has no value");
            (name.clone(), m.get_str("unit").expect("a unit").to_owned())
        })
        .collect()
}

fn valid_name(n: &str) -> bool {
    !n.is_empty()
        && n.len() <= 64
        && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn every_workload_emits_exactly_the_declared_metrics_and_passes_its_checks() {
    let spec = read_spec(SPEC).expect("BENCHMARK.json parses");
    assert!(spec.end_to_end.len() <= 16 && spec.per_layer.len() <= 128);
    let declared: Vec<(String, String)> =
        spec.end_to_end.iter().map(|d| (d.name.clone(), d.unit.clone())).collect();
    assert!(declared.iter().chain(&spec.per_layer).all(|(n, _)| valid_name(n)));
    let dir = workdir("workloads");
    for w in WORKLOADS {
        let r = result(&benchmark(
            &dir,
            &["--workload", w, "--seed", "0", "--seconds", "0", "--trace", "0"],
        ));
        assert_eq!(metrics(&r), declared, "{w}");
    }
}

#[test]
fn the_traced_run_emits_every_layer_metric_and_row() {
    let per_layer = read_spec(SPEC).expect("BENCHMARK.json parses").per_layer;
    let dir = workdir("trace");
    let args =
        ["--workload", "eval_sweep_netlist", "--seed", "0", "--seconds", "0", "--trace", "1"];
    let r = result(&benchmark(&dir, &args));
    assert_eq!(metrics(&r), per_layer);
    let unattributed = r.get("metrics").and_then(|m| m.get("archex.trace.unattributed_ratio"));
    let unattributed = unattributed.and_then(|m| m.get_f64("value")).expect("unattributed ratio");
    assert!(unattributed.abs() <= 0.10, "the replay misses {unattributed} of evaluate_with");

    let rows =
        std::fs::read_to_string(dir.join(".bench_out/layers-seed0.json")).expect("layer rows");
    let rows = perfbench::compare::read_results(&rows).expect("rows are bench/1");
    for layer in [
        "sweep/hgen.emit",
        "sweep/gensim.run",
        "sweep/vlog.clock_levelized",
        "table2/hgen.datapath",
    ] {
        for column in ["count", "self_us_p50", "share_of_parent"] {
            assert!(rows.contains_key(&format!("{layer}.{column}")), "no {column} row for {layer}");
        }
    }
    let chrome =
        std::fs::read_to_string(dir.join(".bench_out/trace-seed0.json")).expect("Chrome trace");
    let chrome = obs::Json::parse(&chrome).expect("the trace is JSON");
    let events = chrome.get("traceEvents").and_then(obs::Json::as_arr).expect("events");
    assert!(events.iter().all(|e| e.get("args").and_then(|a| a.get_u64("span_id")).is_some()));
}

/// Synthetic results: five runs per declared metric, each worse than
/// `base` by `worse(bound)` (a share of the old value).
fn synthetic(dir: &Path, file: &str, worse: impl Fn(f64) -> f64) {
    let end_to_end = read_spec(SPEC).expect("BENCHMARK.json parses").end_to_end;
    let (end_to_end, worse) = (&end_to_end, &worse);
    let entries: Vec<bench::BenchEntry> = (0..5)
        .flat_map(|run| {
            end_to_end.iter().map(move |d| {
                let base = 100.0 + f64::from(run) * 0.1;
                let w = worse(d.bound);
                let value = if d.higher_is_better { base * (1.0 - w) } else { base * (1.0 + w) };
                bench::BenchEntry { name: format!("synth_spam.{}", d.name), value, unit: "1/s" }
            })
        })
        .collect();
    std::fs::write(dir.join(file), bench::bench_json(&entries)).expect("results");
}

#[test]
fn compare_flags_a_regression_past_the_bound_and_passes_identical_files() {
    let dir = workdir("compare");
    std::fs::write(dir.join("BENCHMARK.json"), SPEC).expect("spec");
    let metrics = read_spec(SPEC).expect("BENCHMARK.json parses").end_to_end.len();
    synthetic(&dir, "old.json", |_| 0.0);
    synthetic(&dir, "within.json", |bound| bound / 2.0);
    synthetic(&dir, "worse.json", |bound| bound + 0.05);

    for same in ["old.json", "within.json"] {
        let out = benchmark(&dir, &["compare", "old.json", same]);
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{text}");
        assert_eq!(text.lines().filter(|l| l.ends_with("unchanged")).count(), metrics, "{text}");
    }
    let worse = benchmark(&dir, &["compare", "old.json", "worse.json"]);
    let text = String::from_utf8_lossy(&worse.stdout);
    assert!(!worse.status.success());
    assert_eq!(text.lines().filter(|l| l.ends_with("regressed")).count(), metrics, "{text}");
}

#[test]
fn bad_arguments_are_refused_without_a_result() {
    let dir = workdir("usage");
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "synth_spam", "--trace", "2"],
        &["--seed", "x"],
        &["--workload", "synth_spam", "--seconds", "inf"],
    ] {
        let out = benchmark(&dir, args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty());
    }
}
