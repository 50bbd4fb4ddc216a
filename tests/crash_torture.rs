//! Process-level crash torture for the supervised exploration runtime:
//! real `isdlc explore --journal` children are SIGKILLed at seeded
//! byte offsets of journal growth, resumed, and the final trace is
//! required to be semantically identical to an uninterrupted run's.
//! The always-on smoke gate exercises a handful of kill points; the
//! full seeded sweep (both thread counts, kill chains, SIGINT
//! graceful-shutdown) runs under `--features slow-props`.

use obs::Json;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

const STEPS: usize = 6;

fn isdlc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_isdlc"))
}

/// A per-test scratch directory with the toy machine written out.
fn scratch(name: &str) -> (PathBuf, String) {
    let dir = std::env::temp_dir().join("crash-torture").join(name);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let machine = dir.join("toy.isdl");
    std::fs::write(&machine, isdl::samples::TOY).expect("write machine");
    (dir.clone(), machine.to_str().expect("utf8 path").to_owned())
}

fn explore_args(machine: &str, threads: usize, journal: &Path, trace: &Path) -> Vec<String> {
    vec![
        "explore".to_owned(),
        machine.to_owned(),
        format!("--steps={STEPS}"),
        format!("--threads={threads}"),
        format!("--journal={}", journal.display()),
        format!("--trace-out={}", trace.display()),
    ]
}

/// The semantic identity of a trace report: counters and accepted
/// steps, excluding wall-clock observability. Two runs with this form
/// equal found the same result by the same path.
fn canonical(trace_path: &Path) -> String {
    let text = std::fs::read_to_string(trace_path).expect("trace report exists");
    let j = Json::parse(&text).expect("trace report parses");
    let steps: Vec<String> = j
        .get("steps")
        .and_then(Json::as_arr)
        .expect("steps array")
        .iter()
        .map(|s| {
            format!(
                "{} @ {:.9} {}",
                s.get_str("action").expect("action"),
                s.get_f64("score").expect("score"),
                s.get("metrics").expect("metrics"),
            )
        })
        .collect();
    format!(
        "evaluated={} cache_hits={} skipped={} attempts={} retried={}\n{}",
        j.get_u64("evaluated").expect("evaluated"),
        j.get_u64("cache_hits").expect("cache_hits"),
        j.get_u64("skipped_errors").expect("skipped_errors"),
        j.get_u64("attempts").expect("attempts"),
        j.get_u64("retried").expect("retried"),
        steps.join("\n"),
    )
}

/// Runs an uninterrupted journaled exploration, returning its
/// canonical trace and the journal's byte length.
fn baseline(dir: &Path, machine: &str, threads: usize) -> (String, u64) {
    let journal = dir.join("baseline.jsonl");
    let trace = dir.join("baseline.json");
    let _ = std::fs::remove_file(&journal);
    let out = isdlc()
        .args(explore_args(machine, threads, &journal, &trace))
        .output()
        .expect("isdlc runs");
    assert!(out.status.success(), "baseline run failed: {}", String::from_utf8_lossy(&out.stderr));
    let len = std::fs::metadata(&journal).expect("journal written").len();
    (canonical(&trace), len)
}

/// Spawns a journaled exploration and SIGKILLs it once the journal
/// file reaches `kill_at` bytes. Returns true when the kill landed
/// (false: the child finished first — the journal is complete).
fn run_and_kill(machine: &str, threads: usize, journal: &Path, trace: &Path, kill_at: u64) -> bool {
    let mut child = isdlc()
        .args(explore_args(machine, threads, journal, trace))
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("isdlc spawns");
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let grown = std::fs::metadata(journal).map(|m| m.len() >= kill_at).unwrap_or(false);
        if grown {
            child.kill().expect("SIGKILL delivered");
            child.wait().expect("child reaped");
            return true;
        }
        if let Some(status) = child.try_wait().expect("child polled") {
            assert!(status.success(), "child failed before the kill point");
            return false;
        }
        assert!(Instant::now() < deadline, "child never reached {kill_at} journal bytes");
        std::thread::sleep(Duration::from_micros(300));
    }
}

/// Resumes the journal to completion and asserts the final trace is
/// semantically identical to `expected`.
fn resume_and_check(machine: &str, threads: usize, journal: &Path, expected: &str, label: &str) {
    let trace = journal.with_extension("resumed.json");
    let out =
        isdlc().args(explore_args(machine, threads, journal, &trace)).output().expect("isdlc runs");
    assert!(
        out.status.success(),
        "{label}: resume failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let resumed = canonical(&trace);
    assert_eq!(resumed, expected, "{label}: resumed trace diverged from the uninterrupted run");
}

/// One torture point: kill at a byte offset, then resume.
fn torture_point(dir: &Path, machine: &str, threads: usize, kill_at: u64, expected: &str) {
    let label = format!("threads={threads} kill_at={kill_at}");
    let journal = dir.join(format!("kill_{threads}_{kill_at}.jsonl"));
    let trace = journal.with_extension("json");
    let _ = std::fs::remove_file(&journal);
    run_and_kill(machine, threads, &journal, &trace, kill_at);
    resume_and_check(machine, threads, &journal, expected, &label);
}

/// A deterministic LCG over byte offsets in `[1, len)`.
fn seeded_offsets(seed: u64, len: u64, n: usize) -> Vec<u64> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            1 + (state >> 11) % len.max(2)
        })
        .collect()
}

#[test]
fn crash_torture_smoke() {
    let (dir, machine) = scratch("smoke");
    let (expected, len) = baseline(&dir, &machine, 2);
    // Three seeded points across the journal: early (mid-init), middle,
    // and late (inside the final rounds).
    for kill_at in seeded_offsets(0xC0FFEE, len, 3) {
        torture_point(&dir, &machine, 2, kill_at, &expected);
    }
}

/// A contained toolchain panic under `--journal` writes its
/// `flight-dump/1` file next to the journal, the dump names the
/// panicking stage, and — because dumps land via write-then-rename —
/// every dump visible after a SIGKILL is complete and parseable. The
/// journal itself stays resumable.
#[test]
fn flight_dump_names_the_stage_and_survives_sigkill() {
    let (dir, machine) = scratch("flight");
    let journal = dir.join("j.jsonl");
    let trace = dir.join("t.json");
    let flight_dir = dir.join("j.jsonl.flight");
    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_dir_all(&flight_dir);
    let mut args = explore_args(&machine, 2, &journal, &trace);
    // Panic at the third fresh evaluation inside the simulator stage;
    // one retry succeeds, so the run itself completes.
    args.push("--fault=simulate:2".to_owned());
    args.push("--max-attempts=2".to_owned());

    // Spawn and SIGKILL as soon as the dump file exists — the crash
    // window where a torn dump would be visible if writes weren't
    // atomic.
    let dump_in = |d: &Path| -> Vec<PathBuf> {
        std::fs::read_dir(d)
            .map(|rd| {
                rd.filter_map(|e| {
                    let p = e.expect("entry").path();
                    let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
                    (name.starts_with("flight-") && name.ends_with(".json")).then_some(p)
                })
                .collect()
            })
            .unwrap_or_default()
    };
    let mut child = isdlc()
        .args(&args)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("isdlc spawns");
    let deadline = Instant::now() + Duration::from_secs(120);
    let killed = loop {
        if !dump_in(&flight_dir).is_empty() {
            child.kill().expect("SIGKILL delivered");
            child.wait().expect("child reaped");
            break true;
        }
        if let Some(status) = child.try_wait().expect("child polled") {
            assert!(status.success(), "faulted child failed outright");
            break false;
        }
        assert!(Instant::now() < deadline, "no flight dump ever appeared");
        std::thread::sleep(Duration::from_micros(200));
    };

    // Whatever is visible now — post-kill or post-exit — must be a
    // complete, well-formed flight-dump/1 naming the armed stage.
    let dumps = dump_in(&flight_dir);
    assert!(!dumps.is_empty(), "the contained panic left a dump");
    for p in &dumps {
        let doc = Json::parse(&std::fs::read_to_string(p).expect("dump readable"))
            .expect("dump parses after SIGKILL");
        assert_eq!(doc.get_str("schema"), Some("flight-dump/1"), "{}", p.display());
        assert_eq!(doc.get_str("reason"), Some("toolchain_panic"));
        let events = doc.get("events").and_then(Json::as_arr).expect("events");
        // Other workers keep recording while the panicking one dumps;
        // its own last event is the one that names the stage.
        let shard = doc.get_u64("shard").expect("capturing shard recorded");
        let last = events
            .iter()
            .rev()
            .find(|e| e.get_u64("shard") == Some(shard))
            .expect("the capturing thread's tail event");
        assert_eq!(last.get_str("target"), Some("eval.panic"));
        assert_eq!(last.get_str("msg"), Some("simulate"), "tail names the panicking stage");
    }

    // The journal the kill interrupted resumes to a successful finish.
    if killed {
        let out = isdlc().args(&args).output().expect("isdlc resumes");
        assert!(
            out.status.success(),
            "resume after mid-dump SIGKILL failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let resumed = Json::parse(&std::fs::read_to_string(&trace).expect("trace written"))
            .expect("resumed trace parses");
        assert_eq!(resumed.get_str("schema"), Some("archex-explore/1"));
        assert!(
            resumed.get("steps").and_then(Json::as_arr).is_some_and(|s| !s.is_empty()),
            "resumed run produced a real trace"
        );
    }
}

#[test]
fn corrupted_journal_is_rejected_with_its_line_number() {
    let (dir, machine) = scratch("corrupt");
    let journal = dir.join("j.jsonl");
    let trace = dir.join("t.json");
    let _ = std::fs::remove_file(&journal);
    let out =
        isdlc().args(explore_args(&machine, 2, &journal, &trace)).output().expect("isdlc runs");
    assert!(out.status.success());

    // Flip one byte in the interior of line 2.
    let text = std::fs::read_to_string(&journal).expect("journal exists");
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    assert!(lines.len() >= 3);
    let pos = lines[1].find("\"event\"").expect("event key");
    lines[1].replace_range(pos + 1..pos + 2, "E");
    std::fs::write(&journal, lines.join("\n")).expect("rewrite journal");

    let out =
        isdlc().args(explore_args(&machine, 2, &journal, &trace)).output().expect("isdlc runs");
    assert!(!out.status.success(), "a corrupt journal must never be resumed or replaced");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("journal line 2 is corrupt"),
        "diagnostic names the corrupt line: {stderr}"
    );
    // The corrupt journal was left untouched for forensics.
    assert_eq!(
        std::fs::read_to_string(&journal).expect("journal still there"),
        lines.join("\n"),
        "rejection must not rewrite the journal"
    );
}

/// The full seeded sweep: both supported thread counts, a dozen kill
/// points each, and kill *chains* (the resumed process is itself
/// killed before its own resume).
#[cfg(feature = "slow-props")]
#[test]
fn crash_torture_full_sweep() {
    for threads in [1usize, 4] {
        let (dir, machine) = scratch(&format!("sweep{threads}"));
        let (expected, len) = baseline(&dir, &machine, threads);
        for kill_at in seeded_offsets(0xDEADBEEF ^ threads as u64, len, 12) {
            torture_point(&dir, &machine, threads, kill_at, &expected);
        }
        // Kill chains: the first process dies at one offset, its
        // resumer dies at a later one, and only the third run finishes.
        for (i, pair) in seeded_offsets(0xFEED ^ threads as u64, len / 2, 6).chunks(2).enumerate() {
            let journal = dir.join(format!("chain_{threads}_{i}.jsonl"));
            let trace = journal.with_extension("json");
            let _ = std::fs::remove_file(&journal);
            let (a, b) = (pair[0].min(pair[1]), pair[0].max(pair[1]));
            run_and_kill(&machine, threads, &journal, &trace, a);
            run_and_kill(&machine, threads, &journal, &trace, b.max(a + 1));
            resume_and_check(
                &machine,
                threads,
                &journal,
                &expected,
                &format!("chain threads={threads} kills at {a} then {b}"),
            );
        }
    }
}

/// SIGINT lands as a cooperative shutdown: the child finishes its
/// in-flight round, leaves a clean resumable journal, and exits with
/// the distinct "interrupted" code 75; resuming completes the run.
#[cfg(feature = "slow-props")]
#[test]
fn sigint_shuts_down_gracefully_with_exit_75() {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    let (dir, machine) = scratch("sigint");
    let (expected, _) = baseline(&dir, &machine, 1);
    // The interrupt races run completion; retry until it lands mid-run.
    for attempt in 0..20 {
        let journal = dir.join(format!("sigint_{attempt}.jsonl"));
        let trace = journal.with_extension("json");
        let _ = std::fs::remove_file(&journal);
        let mut child = isdlc()
            .args(explore_args(&machine, 1, &journal, &trace))
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("isdlc spawns");
        // Wait for the journal to appear (the run is mid-flight), then
        // interrupt.
        let deadline = Instant::now() + Duration::from_secs(120);
        while !journal.exists() && child.try_wait().expect("poll").is_none() {
            assert!(Instant::now() < deadline, "journal never appeared");
            std::thread::sleep(Duration::from_micros(200));
        }
        unsafe {
            kill(child.id() as i32, 2); // SIGINT
        }
        let status = child.wait().expect("child reaped");
        match status.code() {
            Some(75) => {
                resume_and_check(&machine, 1, &journal, &expected, "post-SIGINT resume");
                return;
            }
            // The run won the race and completed; try again.
            Some(0) => continue,
            other => panic!("unexpected exit status {other:?} after SIGINT"),
        }
    }
    panic!("SIGINT never landed mid-run in 20 attempts");
}
