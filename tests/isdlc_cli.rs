//! Smoke tests for the `isdlc` command-line driver, run against the
//! built binary.

use std::io::Write as _;
use std::process::Command;

fn isdlc(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_isdlc")).args(args).output().expect("isdlc runs");
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
    let dir = std::env::temp_dir().join(format!("isdlc-cli-{test}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).expect("create temp file");
    f.write_all(contents.as_bytes()).expect("write temp file");
    path
}

#[test]
fn check_summarizes_spam() {
    let (stdout, _, ok) = isdlc(&["check", "fixtures/spam.isdl"]);
    assert!(ok);
    assert!(stdout.contains("machine `spam`: word 128 bits"));
    assert!(stdout.contains("field MOV2"));
    assert!(stdout.contains("10 constraints"));
}

#[test]
fn print_round_trips_through_check() {
    let (printed, _, ok) = isdlc(&["print", "fixtures/spam2.isdl"]);
    assert!(ok);
    let path = write_temp("print_round_trips_through_check", "printed_spam2.isdl", &printed);
    let (stdout, _, ok) = isdlc(&["check", path.to_str().expect("utf8 path")]);
    assert!(ok, "printed description loads");
    assert!(stdout.contains("machine `spam2`"));
}

#[test]
fn asm_run_and_disasm() {
    let asm = write_temp(
        "asm_run_and_disasm",
        "sum.asm",
        "start: ldi 2\n addm ten\n sta 0\n halt\n.data\nten: .word 40\n",
    );
    let machine = write_temp("asm_run_and_disasm", "acc16.isdl", isdl::samples::ACC16);
    let m = machine.to_str().expect("utf8 path");
    let a = asm.to_str().expect("utf8 path");

    let (stdout, _, ok) = isdlc(&["asm", m, a]);
    assert!(ok);
    assert!(stdout.lines().count() >= 4, "hex dump:\n{stdout}");

    let (stdout, _, ok) = isdlc(&["disasm", m, a]);
    assert!(ok);
    assert!(stdout.contains("ldi 2"), "{stdout}");
    assert!(stdout.contains("halt"), "{stdout}");

    let (stdout, _, ok) = isdlc(&["run", m, a]);
    assert!(ok);
    assert!(stdout.contains("stopped: halted"), "{stdout}");
    assert!(stdout.contains("ACC = 16'h002a"), "{stdout}");
    assert!(stdout.contains("DM: [0]=002a"), "{stdout}");
}

#[test]
fn batch_script_executes() {
    let asm = write_temp("batch_script_executes", "b.asm", "ldi 5\nhalt\n");
    let script = write_temp("batch_script_executes", "b.script", "step 1\nx ACC\nrun\n");
    let machine = write_temp("batch_script_executes", "acc16b.isdl", isdl::samples::ACC16);
    let (stdout, _, ok) = isdlc(&[
        "batch",
        machine.to_str().expect("utf8"),
        asm.to_str().expect("utf8"),
        script.to_str().expect("utf8"),
    ]);
    assert!(ok);
    assert!(stdout.contains("pc = 0x1"), "{stdout}");
    assert!(stdout.contains("stopped: halted"), "{stdout}");
}

#[test]
fn verilog_and_report() {
    let (stdout, _, ok) = isdlc(&["verilog", "fixtures/spam2.isdl"]);
    assert!(ok);
    assert!(stdout.contains("module spam2"));
    assert!(stdout.contains("endmodule"));

    let (stdout, _, ok) = isdlc(&["report", "fixtures/spam2.isdl"]);
    assert!(ok);
    assert!(stdout.contains("cycle length"));
    assert!(stdout.contains("grid cells"));
    assert!(stdout.contains("saved by sharing"));

    let (no_share, _, ok) = isdlc(&["report", "fixtures/spam2.isdl", "--no-share"]);
    assert!(ok);
    assert!(no_share.contains("(0 saved by sharing)"), "{no_share}");
}

#[test]
fn errors_are_reported() {
    let (_, stderr, ok) = isdlc(&["check", "fixtures/does_not_exist.isdl"]);
    assert!(!ok);
    assert!(stderr.contains("cannot read"));

    let bad = write_temp("errors_are_reported", "bad.isdl", "machine \"x\" {");
    let (_, stderr, ok) = isdlc(&["check", bad.to_str().expect("utf8")]);
    assert!(!ok);
    assert!(stderr.contains("syntax error") || stderr.contains("error"), "{stderr}");

    let (_, stderr, ok) = isdlc(&["bogus"]);
    assert!(!ok);
    assert!(stderr.contains("usage"));
}

#[test]
fn wave_emits_vcd() {
    let asm = write_temp("wave_emits_vcd", "w.asm", "ldi 3\nshl1\nend: jmp end\n");
    let machine = write_temp("wave_emits_vcd", "acc16w.isdl", isdl::samples::ACC16);
    let (stdout, _, ok) =
        isdlc(&["wave", machine.to_str().expect("utf8"), asm.to_str().expect("utf8"), "8"]);
    assert!(ok);
    assert!(stdout.contains("$timescale 1ns $end"), "{stdout}");
    assert!(stdout.contains("$var wire 16"), "{stdout}");
    assert!(stdout.contains("ACC $end"), "{stdout}");
    assert!(stdout.contains("#1"), "value changes recorded: {stdout}");
}

/// The last value a VCD records for the signal named `name`.
fn last_vcd_value(vcd: &str, name: &str) -> Option<u64> {
    let id = vcd.lines().find_map(|l| {
        let f: Vec<&str> = l.split_whitespace().collect();
        (f.len() == 6 && f[0] == "$var" && f[4] == name).then(|| f[3])
    })?;
    vcd.lines()
        .rev()
        .filter_map(|l| l.strip_prefix('b')?.split_once(' '))
        .find(|&(_, sig)| sig == id)
        .and_then(|(bits, _)| u64::from_str_radix(bits, 2).ok())
}

#[test]
fn wave_loads_the_data_image() {
    let test = "wave_loads_the_data_image";
    let asm =
        write_temp(test, "d.asm", "ldi 7\naddm ten\nsta 0\nhalt\n.data\n.org 20\nten: .word 10\n");
    let machine = write_temp(test, "acc16.isdl", isdl::samples::ACC16);
    let (m, a) = (machine.to_str().expect("utf8"), asm.to_str().expect("utf8"));

    let (run, _, ok) = isdlc(&["run", m, a]);
    assert!(ok);
    assert!(run.contains("ACC = 16'h0011"), "{run}");
    let (vcd, stderr, ok) = isdlc(&["wave", m, a, "12"]);
    assert!(ok, "{stderr}");
    // 7 + the `.data` word 10: the waveform agrees with `isdlc run`.
    assert_eq!(last_vcd_value(&vcd, "ACC"), Some(0x11), "{vcd}");
}

#[test]
fn hex_and_tb_produce_usable_artifacts() {
    let asm = write_temp("hex_and_tb_produce_usable_artifacts", "h.asm", "ldi 9\nhalt\n");
    let machine =
        write_temp("hex_and_tb_produce_usable_artifacts", "acc16h.isdl", isdl::samples::ACC16);
    let m = machine.to_str().expect("utf8");

    let (hex, _, ok) = isdlc(&["hex", m, asm.to_str().expect("utf8")]);
    assert!(ok);
    let words = xasm::Program::words_from_hex(&hex, 16).expect("hex parses back");
    assert_eq!(words.len(), 2);

    let (tb, _, ok) = isdlc(&["tb", m, "256"]);
    assert!(ok);
    assert!(tb.contains("module acc16_tb;"), "{tb}");
    assert!(tb.contains("repeat (256)"), "{tb}");
}
