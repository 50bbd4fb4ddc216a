//! The benchmark's command line; see `README.md`.

use perfbench::compare::{self, Verdict};
use perfbench::{layers, run_workload, stats, Metric, Outcome, END_TO_END, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage:
  benchmark --workload W [--seed N] [--seconds S] [--trace 0|1]
      one run in this process; the last line of stdout is the result JSON
  benchmark run [--workload W] [--seed N] [--seconds S] [--runs R] [--out FILE]
      R runs of each workload (default all), each in its own child process;
      writes a bench/1 file (default .bench_out/run.json)
  benchmark trace [--seed N] [--seconds S] [--out DIR]
      the traced run: per-layer metrics, layer rows, and a Chrome trace
      (default DIR .bench_out)
  benchmark compare OLD NEW
      improved/unchanged/regressed/unresolved per workload and metric,
      against the bounds in ./BENCHMARK.json
  benchmark pins
      prints the seed-0 output digests (the content of perfbench/pins.json)";

/// Parsed `--key value` options.
struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
    out: Option<PathBuf>,
    positional: Vec<String>,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: None,
        seed: 0,
        seconds: 12.0,
        trace: false,
        runs: 1,
        out: None,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("`{a}` needs a value"));
        let bad = |v: &str| format!("bad value `{v}` for `{a}`");
        match a.as_str() {
            "--workload" => o.workload = Some(value()?.clone()),
            "--seed" => o.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => {
                o.seconds = value().and_then(|v| {
                    v.parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                        .ok_or_else(|| bad(v))
                })?;
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                };
            }
            "--runs" => {
                o.runs =
                    value().and_then(|v| v.parse().ok().filter(|&r| r > 0).ok_or_else(|| bad(v)))?
            }
            "--out" => o.out = Some(PathBuf::from(value()?)),
            flag if flag.starts_with("--") => return Err(format!("unknown option `{flag}`")),
            _ => o.positional.push(a.clone()),
        }
    }
    if let Some(w) = &o.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload `{w}` (known: {})", WORKLOADS.join(", ")));
        }
    }
    Ok(o)
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
}

fn report_failures(outcome: &Outcome) {
    for f in &outcome.checks.failures {
        eprintln!("check failed: {f}");
    }
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The traced run; writes the Chrome trace and layer rows under `dir`.
fn traced(o: &Opts, dir: &Path) -> Result<Outcome, String> {
    let run = layers::run(o.seed, std::time::Duration::from_secs_f64(o.seconds));
    let mut rows = run.rows;
    rows.extend(run.outcome.metrics.iter().map(|m| bench::BenchEntry {
        name: m.name.to_owned(),
        value: m.value,
        unit: m.unit,
    }));
    write_file(&dir.join(format!("trace-seed{}.json", o.seed)), &run.chrome.to_pretty())?;
    write_file(&dir.join(format!("layers-seed{}.json", o.seed)), &bench::bench_json(&rows))?;
    for r in &rows {
        eprintln!("{} {} {}", r.name, r.value, r.unit);
    }
    Ok(run.outcome)
}

/// One run in this process, ending with the result line.
fn single(o: &Opts) -> Result<ExitCode, String> {
    let workload = o.workload.as_deref().ok_or("`--workload` is required")?;
    let outcome = if o.trace {
        traced(o, Path::new(".bench_out"))?
    } else {
        run_workload(workload, o.seed, o.seconds)?
    };
    report_failures(&outcome);
    print_metrics(&outcome.metrics);
    println!("{}", outcome.to_json());
    Ok(ExitCode::SUCCESS)
}

/// `benchmark run`: each run of each workload in its own child process,
/// so process-global state (the log and flight recorders, the allocator,
/// peak RSS) cannot leak from one workload into the next.
fn run_children(o: &Opts) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let workloads: Vec<&str> = o.workload.as_deref().map_or(WORKLOADS.to_vec(), |w| vec![w]);
    let mut entries = Vec::new();
    let mut ok = true;
    for w in workloads {
        let mut samples: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        for _ in 0..o.runs {
            let out = Command::new(&exe)
                .args([
                    "--workload",
                    w,
                    "--seed",
                    &o.seed.to_string(),
                    "--seconds",
                    &o.seconds.to_string(),
                ])
                .args(["--trace", "0"])
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot start a child: {e}"))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let result = stdout
                .lines()
                .last()
                .and_then(|l| obs::Json::parse(l).ok())
                .filter(|_| out.status.success());
            let Some(result) = result else {
                eprintln!("{w}: the child failed ({})", out.status);
                ok = false;
                continue;
            };
            ok &= result.get("correct") == Some(&obs::Json::Bool(true));
            let (attempted, failed) = (
                result.get_f64("attempted").unwrap_or(1.0),
                result.get_f64("failed").unwrap_or(0.0),
            );
            entries.push(bench::BenchEntry {
                name: format!("{w}.failed_ratio"),
                value: failed / attempted,
                unit: "ratio",
            });
            for (i, &(name, unit)) in END_TO_END.iter().enumerate() {
                let value = result
                    .get("metrics")
                    .and_then(|m| m.get(name))
                    .and_then(|m| m.get_f64("value"));
                let value = value.ok_or(format!("{w}: the result has no `{name}`"))?;
                samples[i].push(value);
                entries.push(bench::BenchEntry { name: format!("{w}.{name}"), value, unit });
            }
        }
        for (&(name, unit), s) in END_TO_END.iter().zip(&samples) {
            println!("{w}.{name} {} {unit}", stats::median(s));
        }
    }
    let out = o.out.clone().unwrap_or_else(|| PathBuf::from(".bench_out/run.json"));
    write_file(&out, &bench::bench_json(&entries))?;
    eprintln!("wrote {}", out.display());
    Ok(if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn compare_files(o: &Opts) -> Result<ExitCode, String> {
    let [old, new] = o.positional.as_slice() else {
        return Err("compare needs OLD and NEW".to_owned());
    };
    let read = |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    let spec = compare::read_spec(&read(Path::new("BENCHMARK.json"))?)?;
    let rows = compare::compare(
        &spec.end_to_end,
        &compare::read_results(&read(Path::new(old))?)?,
        &compare::read_results(&read(Path::new(new))?)?,
    );
    for r in &rows {
        println!("{r}");
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} improved, {} unchanged, {} regressed, {} unresolved",
        count(Verdict::Improved),
        count(Verdict::Unchanged),
        count(Verdict::Regressed),
        count(Verdict::Unresolved)
    );
    Ok(if count(Verdict::Regressed) > 0 { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

fn pins() -> ExitCode {
    let mut doc = obs::Json::obj();
    for (k, v) in [
        perfbench::explore::pin_entries(),
        perfbench::sweep::pin_entries(),
        perfbench::sim::pin_entries(),
    ]
    .concat()
    {
        doc.insert(&k, v);
    }
    println!("{}", doc.to_pretty());
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(c @ ("run" | "trace" | "compare" | "pins")) => (c, &args[1..]),
        _ => ("single", &args[..]),
    };
    let result = parse(rest).and_then(|o| match command {
        "run" => run_children(&o),
        "trace" => {
            let outcome = traced(&o, o.out.as_deref().unwrap_or(Path::new(".bench_out")))?;
            report_failures(&outcome);
            print_metrics(&outcome.metrics);
            Ok(if outcome.checks.failures.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        "compare" => compare_files(&o),
        "pins" => Ok(pins()),
        _ => single(&o),
    });
    result.unwrap_or_else(|e| {
        eprintln!("benchmark: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}
