//! Command-line / batch interface to an XSIM simulator (§3.1).
//!
//! The original XSIM offers both a Tcl/Tk GUI and a command-line
//! interface with full batch-file support; the GUI is presentation
//! only, so this reproduction provides the command interpreter. Each
//! line is one command; output is written to any `std::fmt::Write`.
//!
//! | command | effect |
//! |---------|--------|
//! | `step [n]` | execute `n` (default 1) instructions |
//! | `run [cycles] [fuel]` | run until a stop condition (default budget 1M cycles; `fuel` caps retired instructions, default unlimited) |
//! | `break <addr>` / `unbreak <addr>` | manage breakpoints |
//! | `x <storage>[idx]` | examine state |
//! | `set <storage>[idx] <value>` | modify state |
//! | `monitor <storage>[idx] [-- <command>]` | watch part of the state; the optional command runs whenever the monitor fires (the paper's "attached commands") |
//! | `events` | print and drain monitor events |
//! | `pc` | print the program counter |
//! | `disasm <addr>` | disassemble one instruction |
//! | `stats` | print cycle/instruction/stall counters |
//! | `stats-json` | print the `xsim-stats/1` JSON report (see `docs/OBSERVABILITY.md`) |
//! | `echo <text>` | print `text` (batch-file niceties) |
//! | `reset` | reset state and statistics; the loaded program stays in instruction memory |

use crate::sched::Xsim;
use crate::state::Monitor;
use bitv::BitVector;
use std::fmt::Write;

/// Executes one command against `sim`, appending output to `out`.
///
/// Returns `false` for empty/comment lines and unknown commands (which
/// also emit an error message), `true` when a command ran.
pub fn run_command(sim: &mut Xsim<'_>, line: &str, out: &mut String) -> bool {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') || line.starts_with(';') {
        return false;
    }
    let mut it = line.split_whitespace();
    let cmd = it.next().unwrap_or_default();
    let args: Vec<&str> = it.collect();
    match cmd {
        "step" => {
            let n: u64 = args.first().and_then(|a| a.parse().ok()).unwrap_or(1);
            for _ in 0..n {
                if let Some(stop) = sim.step() {
                    let _ = writeln!(out, "stopped: {stop}");
                    break;
                }
            }
            let _ = writeln!(out, "pc = {:#x}", sim.pc());
            true
        }
        "run" => {
            let budget: u64 = args.first().and_then(|a| a.parse().ok()).unwrap_or(1_000_000);
            let fuel: u64 = args.get(1).and_then(|a| a.parse().ok()).unwrap_or(u64::MAX);
            let stop = sim.run_fuel(budget, fuel);
            let _ = writeln!(out, "stopped: {stop} (cycle {})", sim.stats().cycles);
            dispatch_attached_commands(sim, out);
            true
        }
        "break" | "unbreak" => {
            let Some(addr) = args.first().and_then(|a| parse_num(a)) else {
                let _ = writeln!(out, "error: {cmd} needs an address");
                return true;
            };
            if cmd == "break" {
                sim.add_breakpoint(addr);
                let _ = writeln!(out, "breakpoint at {addr:#x}");
            } else {
                sim.remove_breakpoint(addr);
                let _ = writeln!(out, "breakpoint removed at {addr:#x}");
            }
            true
        }
        "x" => match args.first().and_then(|a| parse_place(sim, a)) {
            Some((sid, idx)) => {
                let v = sim.state().read(sid, idx).clone();
                let _ = writeln!(out, "{} = {v}", args[0]);
                true
            }
            None => {
                let _ = writeln!(out, "error: cannot parse place");
                true
            }
        },
        "set" => {
            let (Some(place), Some(val)) = (args.first(), args.get(1)) else {
                let _ = writeln!(out, "error: set <place> <value>");
                return true;
            };
            let Some((sid, idx)) = parse_place(sim, place) else {
                let _ = writeln!(out, "error: cannot parse place");
                return true;
            };
            let Some(v) = parse_num(val) else {
                let _ = writeln!(out, "error: cannot parse value");
                return true;
            };
            let w = sim.state().width(sid);
            sim.state_mut().poke(sid, idx, BitVector::from_u64(v, w));
            let _ = writeln!(out, "{place} = {v:#x}");
            true
        }
        "monitor" => {
            let Some(arg) = args.first() else {
                let _ = writeln!(out, "error: monitor <place> [-- <command>]");
                return true;
            };
            // `NAME` watches the whole storage; `NAME[i]` one cell.
            let (sid, idx) = match parse_place(sim, arg) {
                Some(p) => p,
                None => {
                    let _ = writeln!(out, "error: cannot parse place");
                    return true;
                }
            };
            let index = if arg.contains('[') { Some(idx) } else { None };
            // Everything after `--` is the attached command.
            let command = args
                .iter()
                .position(|&a| a == "--")
                .map(|i| args[i + 1..].join(" "))
                .filter(|c| !c.is_empty());
            let has_command = command.is_some();
            sim.state_mut().add_monitor(Monitor {
                storage: sid,
                index,
                only_changes: true,
                command,
            });
            if has_command {
                let _ = writeln!(out, "monitoring {arg} (with attached command)");
            } else {
                let _ = writeln!(out, "monitoring {arg}");
            }
            true
        }
        "events" => {
            for e in sim.state_mut().take_events() {
                let name = &sim.machine().storages[e.storage.0].name;
                let _ =
                    writeln!(out, "cycle {}: {name}[{}] {} -> {}", e.cycle, e.index, e.old, e.new);
            }
            true
        }
        "pc" => {
            let _ = writeln!(out, "pc = {:#x}", sim.pc());
            true
        }
        "disasm" => {
            let addr = args.first().and_then(|a| parse_num(a)).unwrap_or_else(|| sim.pc());
            match sim.disassemble_at(addr) {
                Some(text) => {
                    let _ = writeln!(out, "{addr:#x}: {text}");
                }
                None => {
                    let _ = writeln!(out, "{addr:#x}: <illegal>");
                }
            }
            true
        }
        "stats" => {
            let s = sim.stats();
            let _ = writeln!(
                out,
                "cycles {} instructions {} stalls {}",
                s.cycles, s.instructions, s.stall_cycles
            );
            for (fi, field) in sim.machine().fields.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "field {} utilization {:.1}%",
                    field.name,
                    100.0 * s.field_utilization(fi)
                );
            }
            true
        }
        "stats-json" => {
            let _ = write!(out, "{}", crate::report::stats_json(sim).to_pretty());
            true
        }
        "echo" => {
            let _ = writeln!(out, "{}", args.join(" "));
            true
        }
        "reset" => {
            sim.reset();
            let _ = writeln!(out, "reset");
            true
        }
        other => {
            let _ = writeln!(out, "error: unknown command `{other}`");
            false
        }
    }
}

/// Dispatches the attached command of every monitor that fired since
/// the last drain — the paper's §3.2: the scheduler hands attached
/// commands "back to the user interface for processing".
fn dispatch_attached_commands(sim: &mut Xsim<'_>, out: &mut String) {
    let events = sim.state_mut().take_events();
    let mut commands = Vec::new();
    for e in &events {
        let monitor = &sim.state().monitors()[e.monitor];
        let name = &sim.machine().storages[e.storage.0].name;
        let _ = writeln!(out, "cycle {}: {name}[{}] {} -> {}", e.cycle, e.index, e.old, e.new);
        if let Some(c) = &monitor.command {
            commands.push(c.clone());
        }
    }
    for c in commands {
        let _ = writeln!(out, "(attached) {c}");
        run_command(sim, &c, out);
    }
}

/// Runs a batch script (one command per line); returns the transcript.
pub fn run_batch(sim: &mut Xsim<'_>, script: &str) -> String {
    let mut out = String::new();
    for line in script.lines() {
        run_command(sim, line, &mut out);
    }
    out
}

fn parse_num(s: &str) -> Option<u64> {
    if let Some(h) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(h, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// Parses `NAME` or `NAME[idx]` into a storage id and index.
fn parse_place(sim: &Xsim<'_>, s: &str) -> Option<(isdl::rtl::StorageId, u64)> {
    let (name, idx) = match s.split_once('[') {
        Some((n, rest)) => {
            let idx = parse_num(rest.strip_suffix(']')?)?;
            (n, idx)
        }
        None => (s, 0),
    };
    let (sid, _) = sim.machine().storage_by_name(name)?;
    Some((sid, idx))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Xsim;
    use xasm::Assembler;

    fn sim_with(src: &str) -> (isdl::Machine, String) {
        let machine = isdl::load(isdl::samples::ACC16).expect("loads");
        (machine, src.to_owned())
    }

    #[test]
    fn batch_session() {
        let (machine, asm) =
            sim_with("ldi 7\naddm ten\nsta 0\nhalt\n.data\n.org 20\nten: .word 10\n");
        let program = Assembler::new(&machine).assemble(&asm).expect("assembles");
        let mut sim = Xsim::generate(&machine).expect("generates");
        sim.load_program(&program);
        let script = "\
# comment lines are ignored
echo hello
monitor ACC
step 2
events
x ACC
run
x DM[0]
stats
pc
";
        let out = run_batch(&mut sim, script);
        assert!(out.contains("hello"));
        // After two steps the `addm` result is still in the write-back
        // queue (latency 1): ACC shows the value `ldi` committed.
        assert!(out.contains("ACC = 16'h0007"), "transcript: {out}");
        assert!(out.contains("DM[0] = 16'h0011"), "transcript: {out}");
        assert!(out.contains("stopped: halted"), "transcript: {out}");
        assert!(out.contains(": ACC[0]"), "monitor event visible: {out}");
        assert!(out.contains("utilization"), "transcript: {out}");
    }

    #[test]
    fn breakpoints_via_cli() {
        let (machine, asm) = sim_with("ldi 1\nldi 2\nldi 3\nhalt\n");
        let program = Assembler::new(&machine).assemble(&asm).expect("assembles");
        let mut sim = Xsim::generate(&machine).expect("generates");
        sim.load_program(&program);
        let out = run_batch(&mut sim, "break 2\nrun\npc\n");
        assert!(out.contains("breakpoint at 0x2"));
        assert!(out.contains("stopped: breakpoint at 0x2"), "transcript: {out}");
    }

    #[test]
    fn set_and_examine() {
        let (machine, asm) = sim_with("halt\n");
        let program = Assembler::new(&machine).assemble(&asm).expect("assembles");
        let mut sim = Xsim::generate(&machine).expect("generates");
        sim.load_program(&program);
        let out = run_batch(&mut sim, "set DM[5] 0x2A\nx DM[5]\ndisasm 0\n");
        assert!(out.contains("DM[5] = 16'h002a"), "transcript: {out}");
        assert!(out.contains("0x0: halt"), "transcript: {out}");
    }

    #[test]
    fn attached_commands_dispatch_after_run() {
        let (machine, asm) = sim_with("ldi 7\nsta 3\nhalt\n");
        let program = Assembler::new(&machine).assemble(&asm).expect("assembles");
        let mut sim = Xsim::generate(&machine).expect("generates");
        sim.load_program(&program);
        // When DM[3] changes, automatically examine ACC and the cell.
        let out = run_batch(&mut sim, "monitor DM[3] -- x DM[3]\nrun\n");
        assert!(out.contains("(with attached command)"), "{out}");
        assert!(out.contains("DM[3] 16'h0000 -> 16'h0007"), "{out}");
        assert!(out.contains("(attached) x DM[3]"), "{out}");
        assert!(out.contains("DM[3] = 16'h0007"), "{out}");
    }

    #[test]
    fn unknown_command_reports() {
        let (machine, asm) = sim_with("halt\n");
        let program = Assembler::new(&machine).assemble(&asm).expect("assembles");
        let mut sim = Xsim::generate(&machine).expect("generates");
        sim.load_program(&program);
        let mut out = String::new();
        assert!(!run_command(&mut sim, "frobnicate", &mut out));
        assert!(out.contains("unknown command"));
    }
}
