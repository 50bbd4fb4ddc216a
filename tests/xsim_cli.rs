//! End-to-end tests for the `xsim` binary: run a fixture program and
//! validate the emitted `xsim-stats/1` / `xsim-trace/1` JSON against
//! the invariants documented in `docs/OBSERVABILITY.md`.

use obs::Json;
use std::io::Write as _;
use std::process::Command;

fn xsim(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_xsim")).args(args).output().expect("xsim runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

/// Writes `contents` to `name` inside a scratch directory private to
/// `test` and this process, so concurrently running tests never rewrite
/// a file another test's child process is reading.
fn write_temp(test: &str, name: &str, contents: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("xsim-cli-{test}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).expect("create temp file");
    f.write_all(contents.as_bytes()).expect("write temp file");
    path
}

const PROG: &str = "ldi 7\naddm ten\nsta 0\nhalt\n.data\n.org 20\nten: .word 10\n";

fn fixture_paths(test: &str) -> (String, String) {
    let machine = write_temp(test, "acc16.isdl", isdl::samples::ACC16);
    let prog = write_temp(test, "prog.asm", PROG);
    (machine.to_str().expect("utf8 path").to_owned(), prog.to_str().expect("utf8 path").to_owned())
}

#[test]
fn stats_report_matches_documented_invariants() {
    let (machine, prog) = fixture_paths("stats_report_matches_documented_invariants");
    let (stdout, stderr, ok) = xsim(&[&machine, &prog, "--stats", "-"]);
    assert!(ok, "stderr: {stderr}");
    let json = Json::parse(&stdout).expect("stdout is pure JSON");
    assert_eq!(json.get_str("schema"), Some(gensim::STATS_SCHEMA));
    assert_eq!(json.get_str("machine"), Some("acc16"));
    assert_eq!(json.get_str("stop"), Some("halted"));

    let cycles = json.get_u64("cycles").expect("cycles");
    let instructions = json.get_u64("instructions").expect("instructions");
    let ipc = json.get_f64("ipc").expect("ipc");
    assert_eq!(cycles, 4);
    assert!((ipc - instructions as f64 / cycles as f64).abs() < 1e-12);

    // Per-field retire counts sum to instructions retired.
    for field in json.get("fields").and_then(|f| f.as_arr()).expect("fields") {
        let retired: u64 = field
            .get("ops")
            .and_then(|o| o.as_arr())
            .expect("ops")
            .iter()
            .map(|o| o.get_u64("retired").expect("retired"))
            .sum();
        assert_eq!(retired, instructions);
    }

    // The CLI's phase timers ride along.
    let timing = json.get("timing_us").expect("timing_us");
    for phase in ["load", "assemble", "generate", "run"] {
        assert!(timing.get_f64(phase).is_some(), "timing_us.{phase} present");
    }

    // The human summary moved to stderr to keep stdout parseable.
    assert!(stderr.contains("stopped: halted"), "stderr: {stderr}");
}

#[test]
fn trace_report_is_written_to_file() {
    let (machine, prog) = fixture_paths("trace_report_is_written_to_file");
    let out = write_temp("trace_report_is_written_to_file", "trace_out.json", "");
    let out_path = out.to_str().expect("utf8 path");
    let (stdout, stderr, ok) =
        xsim(&[&machine, &prog, "--trace", out_path, "--trace-capacity", "2"]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("stopped: halted"), "summary on stdout: {stdout}");

    let text = std::fs::read_to_string(out).expect("trace file written");
    let json = Json::parse(&text).expect("trace parses");
    assert_eq!(json.get_str("schema"), Some(gensim::TRACE_SCHEMA));
    assert_eq!(json.get_u64("capacity"), Some(2));
    assert_eq!(json.get_u64("dropped"), Some(2), "4 events through a 2-deep ring");
    let events = json.get("events").and_then(|e| e.as_arr()).expect("events");
    assert_eq!(events.len(), 2);
    assert_eq!(
        events[1].get("ops").and_then(|o| o.as_arr()).expect("ops")[0].as_str(),
        Some("halt"),
        "the tail of the run survives"
    );
}

#[test]
fn ring_eviction_keeps_the_exact_tail_and_round_trips() {
    // 12 instructions retire (ldi, ten addms, halt) through a 4-deep
    // ring: exactly the last four events survive, the `dropped` counter
    // accounts for every evicted one, and the same run through the
    // streaming sink loses nothing.
    let machine = write_temp(
        "ring_eviction_keeps_the_exact_tail_and_round_trips",
        "acc16.isdl",
        isdl::samples::ACC16,
    );
    let machine = machine.to_str().expect("utf8 path");
    let mut src = String::from("ldi 0\n");
    for _ in 0..10 {
        src.push_str("addm ten\n");
    }
    src.push_str("halt\n.data\n.org 20\nten: .word 10\n");
    let prog = write_temp("ring_eviction_keeps_the_exact_tail_and_round_trips", "long.asm", &src);
    let prog = prog.to_str().expect("utf8 path");

    let (stdout, stderr, ok) = xsim(&[machine, prog, "--trace", "-", "--trace-capacity", "4"]);
    assert!(ok, "stderr: {stderr}");
    let json = Json::parse(&stdout).expect("trace parses");
    assert_eq!(json.get_str("schema"), Some(gensim::TRACE_SCHEMA));
    assert_eq!(json.get_u64("capacity"), Some(4));
    assert_eq!(json.get_u64("dropped"), Some(8), "12 events through a 4-deep ring");
    let events = json.get("events").and_then(Json::as_arr).expect("events");
    let pcs: Vec<u64> = events.iter().map(|e| e.get_u64("pc").expect("pc")).collect();
    assert_eq!(pcs, vec![8, 9, 10, 11], "exactly the tail of the run survives");
    let cycles: Vec<u64> = events.iter().map(|e| e.get_u64("cycle").expect("cycle")).collect();
    assert_eq!(cycles, vec![8, 9, 10, 11], "event order is preserved across eviction");

    // The rendered report is a fixed point of the RFC 8259 parser.
    let rendered = json.to_pretty();
    let reparsed = Json::parse(&rendered).expect("report round-trips");
    assert_eq!(reparsed.to_pretty(), rendered);

    // The streaming sink is lossless: one JSON line per event, no ring.
    let (stdout, stderr, ok) = xsim(&[machine, prog, "--trace-stream", "-"]);
    assert!(ok, "stderr: {stderr}");
    let lines: Vec<&str> = stdout.lines().filter(|l| !l.is_empty()).collect();
    assert_eq!(lines.len(), 12, "every retired instruction is streamed");
    for (i, line) in lines.iter().enumerate() {
        let ev = Json::parse(line).expect("stream line parses");
        assert_eq!(ev.get_u64("cycle"), Some(i as u64));
    }
}

#[test]
fn fuel_budget_terminates_a_looping_program() {
    // A program that never halts must still terminate under a fuel
    // budget, reporting exactly how far it got.
    let machine =
        write_temp("fuel_budget_terminates_a_looping_program", "acc16.isdl", isdl::samples::ACC16);
    let machine = machine.to_str().expect("utf8 path");
    // A single self-jump is the `end: jmp end` halt idiom; two jumps
    // ping-ponging is a genuine infinite loop.
    let prog = write_temp(
        "fuel_budget_terminates_a_looping_program",
        "spin.asm",
        "spin: jmp spin2\nspin2: jmp spin\n",
    );
    let prog = prog.to_str().expect("utf8 path");

    let (stdout, stderr, ok) = xsim(&[machine, prog, "--fuel", "25", "--stats", "-"]);
    assert!(ok, "stderr: {stderr}");
    let json = Json::parse(&stdout).expect("stats parse");
    assert_eq!(json.get_str("stop"), Some("instruction fuel exhausted"));
    assert_eq!(json.get_u64("instructions"), Some(25), "exactly the budgeted instructions ran");

    // `--max-cycles` is an alias for `--cycles` and bounds time charged
    // rather than work done.
    let (stdout, stderr, ok) = xsim(&[machine, prog, "--max-cycles", "10", "--stats", "-"]);
    assert!(ok, "stderr: {stderr}");
    let json = Json::parse(&stdout).expect("stats parse");
    assert_eq!(json.get_str("stop"), Some("cycle limit reached"));
}

#[test]
fn bad_usage_fails_cleanly() {
    let (_, stderr, ok) = xsim(&[]);
    assert!(!ok);
    assert!(stderr.contains("usage:"), "{stderr}");
    let (machine, prog) = fixture_paths("bad_usage_fails_cleanly");
    let (_, stderr, ok) = xsim(&[&machine, &prog, "--frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown flag"), "{stderr}");
}

/// The translated tier and the interpreter charge the same cycles,
/// static stalls included, on a program with hazards: SPAM's FIR.
#[test]
fn translation_does_not_change_the_stats_of_a_program_with_hazards() {
    let run = |extra: &[&str]| {
        let mut args = vec!["fixtures/spam.isdl", "fixtures/fir3x8_spam.asm", "--stats", "-"];
        args.extend_from_slice(extra);
        let (stdout, stderr, ok) = xsim(&args);
        assert!(ok, "stderr: {stderr}");
        let mut json = Json::parse(&stdout).expect("parses");
        assert_eq!(json.get_u64("cycles"), Some(103));
        assert_eq!(json.get_u64("stall_cycles"), Some(30));
        assert_eq!(json.get_u64("instructions"), Some(73));
        // Timing differs run to run, and the translate block reports
        // the dispatch mode itself; compare the architectural counters.
        json.insert("timing_us", Json::Null);
        json.insert("translate", Json::Null);
        json.to_string()
    };
    assert_eq!(run(&[]), run(&["--no-translate"]), "dispatch tier cannot change the counters");
}

/// `--netlist-sim` replays the halted program, `.data` image included,
/// on the HGEN netlist and reports the backend it used.
fn netlist_check_agrees(test: &str, backend: &str) {
    let (machine, prog) = fixture_paths(test);
    let (stdout, stderr, ok) = xsim(&[&machine, &prog, "--netlist-sim", backend, "--stats", "-"]);
    assert!(ok, "stderr: {stderr}");
    let json = Json::parse(&stdout).expect("stdout is pure JSON");
    let netlist = json.get("netlist").expect("netlist block");
    assert_eq!(netlist.get_str("backend"), Some(backend));
    assert!(stderr.contains(&format!("netlist ({backend}) agrees after")), "stderr: {stderr}");
}

#[test]
fn netlist_check_agrees_on_the_event_backend() {
    netlist_check_agrees("netlist_check_agrees_on_the_event_backend", "event");
}

#[test]
fn netlist_check_agrees_on_the_levelized_backend() {
    netlist_check_agrees("netlist_check_agrees_on_the_levelized_backend", "levelized");
}
