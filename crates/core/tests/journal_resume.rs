//! Journaled checkpoint/resume: a run at any beam width streams an
//! `archex-journal/2` line per completed round; killing the run after
//! any prefix of those lines and resuming from the journal must
//! reproduce the uninterrupted run's trace exactly (`semantic_eq`),
//! including every counter.

use archex::{workloads, EvalCache, Explorer, JournalError, Strategy, JOURNAL_SCHEMA};

fn toy() -> isdl::Machine {
    isdl::load(isdl::samples::TOY).expect("TOY fixture loads")
}

fn explorer() -> Explorer {
    Explorer { max_steps: 6, threads: 2, ..Explorer::default() }
}

/// The strategies every resume property must hold for.
const STRATEGIES: [Strategy; 2] = [Strategy::Greedy, Strategy::Beam { width: 3 }];

/// Runs journaled and returns (trace, journal text).
fn journaled_run(e: &Explorer) -> (archex::Trace, String) {
    let kernels = vec![workloads::dot_product(3)];
    let mut sink = Vec::new();
    let trace = e
        .run_journaled(&toy(), &kernels, &EvalCache::new(), &mut sink)
        .expect("journaled run completes");
    (trace, String::from_utf8(sink).expect("journal is UTF-8"))
}

#[test]
fn journaled_run_matches_plain_run_and_emits_schema() {
    let kernels = vec![workloads::dot_product(3)];
    for (strategy, name, width) in
        [(Strategy::Greedy, "greedy", None), (STRATEGIES[1], "beam", Some(3))]
    {
        let e = Explorer { strategy, ..explorer() };
        let plain = e.run(&toy(), &kernels).expect("plain run");
        let (trace, journal) = journaled_run(&e);
        assert!(plain.semantic_eq(&trace), "{name}: journaling changed the search");

        let lines: Vec<&str> = journal.lines().collect();
        assert!(lines.len() >= 3, "header, init, and done at minimum");
        let envelope = obs::Json::parse(lines[0]).expect("header line parses");
        assert_eq!(envelope.get_u64("seq"), Some(0), "lines are numbered from 0");
        assert_eq!(envelope.get_str("crc").map(str::len), Some(8), "8-hex CRC trailer");
        let header = envelope.get("data").expect("envelope carries the event");
        assert_eq!(header.get_str("schema"), Some(JOURNAL_SCHEMA));
        assert_eq!(header.get_str("strategy"), Some(name));
        // Greedy headers keep the keys they always had; beam headers
        // add their width.
        assert_eq!(header.get_u64("width"), width, "{name}: header width");
        let last = obs::Json::parse(lines[lines.len() - 1]).expect("last line parses");
        assert_eq!(
            last.get("data").and_then(|d| d.get_str("event")),
            Some("done"),
            "completed run ends with `done`"
        );
        // Every line is valid single-line JSON (the kill-atomicity
        // unit) with a consecutive sequence number. Accepted rounds
        // list runners-up only when the beam holds more than one
        // machine: never for greedy.
        let mut runners_up = Vec::new();
        for (i, l) in lines.iter().enumerate() {
            let envelope = obs::Json::parse(l).expect("every journal line parses on its own");
            assert_eq!(envelope.get_u64("seq"), Some(i as u64), "line {i} sequence");
            let accepted = envelope.get("data").and_then(|d| d.get("accepted"));
            if let Some(beam) = accepted.and_then(|a| a.get("beam")) {
                runners_up.push(beam.as_arr().expect("`beam` is a list").len() as u64);
            }
        }
        match width {
            None => assert!(runners_up.is_empty(), "greedy rounds list no runners-up"),
            Some(w) => {
                assert!(!runners_up.is_empty(), "a width-{w} beam carries runners-up");
                assert!(runners_up.iter().all(|n| (1..w).contains(n)), "{runners_up:?}");
            }
        }
    }
}

#[test]
fn resume_after_kill_reproduces_the_uninterrupted_trace() {
    for strategy in STRATEGIES {
        let e = Explorer { strategy, ..explorer() };
        let kernels = vec![workloads::dot_product(3)];
        let (full, journal) = journaled_run(&e);
        let lines: Vec<&str> = journal.lines().collect();

        // Kill after every possible prefix that contains at least the
        // header and the init event.
        for k in 2..=lines.len() {
            let partial = lines[..k].join("\n");
            let resumed = e
                .resume(&toy(), &kernels, &EvalCache::new(), &partial)
                .unwrap_or_else(|err| panic!("{strategy:?}: resume from {k} lines failed: {err}"));
            assert!(
                full.semantic_eq(&resumed),
                "{strategy:?}: resume from {k}/{} journal lines diverges:\n  full    {:?} (evaluated {}, hits {})\n  resumed {:?} (evaluated {}, hits {})",
                lines.len(),
                full.steps.iter().map(|s| &s.action).collect::<Vec<_>>(),
                full.evaluated,
                full.cache_hits,
                resumed.steps.iter().map(|s| &s.action).collect::<Vec<_>>(),
                resumed.evaluated,
                resumed.cache_hits,
            );
        }
    }
}

#[test]
fn resume_tolerates_a_torn_final_line() {
    for strategy in STRATEGIES {
        let e = Explorer { strategy, ..explorer() };
        let kernels = vec![workloads::dot_product(3)];
        let (full, journal) = journaled_run(&e);
        let lines: Vec<&str> = journal.lines().collect();
        assert!(lines.len() > 3, "{strategy:?}: need a round line to tear");

        // A kill mid-write leaves a truncated final line; the parser
        // must discard it wholesale and resume from the previous event.
        let torn_line = &lines[3][..lines[3].len() / 2];
        let torn = [&lines[..3].join("\n"), "\n", torn_line].concat();
        let resumed = e
            .resume(&toy(), &kernels, &EvalCache::new(), &torn)
            .expect("torn journal still resumes");
        assert!(full.semantic_eq(&resumed), "{strategy:?}: torn final line perturbed the trace");
    }
}

#[test]
fn resume_rejects_a_mismatched_journal() {
    let e = explorer();
    let kernels = vec![workloads::dot_product(3)];
    let (_, journal) = journaled_run(&e);

    // Different explorer configuration.
    let other = Explorer { max_steps: 9, ..explorer() };
    let err = other.resume(&toy(), &kernels, &EvalCache::new(), &journal).expect_err("mismatch");
    assert!(matches!(err, JournalError::Mismatch(_)), "got {err}");

    // Different starting machine.
    let acc16 = isdl::load(isdl::samples::ACC16).expect("loads");
    let err = e.resume(&acc16, &kernels, &EvalCache::new(), &journal).expect_err("mismatch");
    assert!(matches!(err, JournalError::Mismatch(_)), "got {err}");

    // Corrupt interior line: an error, not silent truncation.
    let mut lines: Vec<String> = journal.lines().map(str::to_owned).collect();
    lines[1] = "{not json".to_owned();
    let err = e
        .resume(&toy(), &kernels, &EvalCache::new(), &lines.join("\n"))
        .expect_err("corrupt interior line");
    assert!(matches!(err, JournalError::Parse { line: 2, .. }), "got {err}");

    // Empty journal.
    let err = e.resume(&toy(), &kernels, &EvalCache::new(), "").expect_err("empty journal");
    assert!(matches!(err, JournalError::Mismatch(_)), "got {err}");

    // A beam journal resumed at a different width.
    let (_, beam3) = journaled_run(&Explorer { strategy: Strategy::Beam { width: 3 }, ..e });
    let beam2 = Explorer { strategy: Strategy::Beam { width: 2 }, ..explorer() };
    let err = beam2.resume(&toy(), &kernels, &EvalCache::new(), &beam3).expect_err("mismatch");
    assert!(matches!(err, JournalError::Mismatch(_)), "got {err}");
}

#[test]
fn shutdown_before_the_first_round_leaves_a_resumable_journal() {
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    let kernels = vec![workloads::dot_product(3)];
    for strategy in STRATEGIES {
        let e = Explorer { strategy, ..explorer() };
        let (full, _) = journaled_run(&e);
        let armed = Explorer { shutdown: Some(Arc::new(AtomicBool::new(true))), ..e.clone() };
        let (stopped, journal) = journaled_run(&armed);

        // The run stops at the first round boundary: only the initial
        // evaluation happened.
        assert_eq!(stopped.steps.len(), 1, "{strategy:?}: no round ran");
        assert!(stopped.obs.rounds.is_empty(), "{strategy:?}: no round ran");
        assert_eq!(stopped.evaluated, 1, "{strategy:?}: only the start was evaluated");
        let events: Vec<String> = journal
            .lines()
            .map(|l| {
                let envelope = obs::Json::parse(l).expect("journal line parses");
                envelope.get("data").and_then(|d| d.get_str("event")).unwrap_or("header").to_owned()
            })
            .collect();
        assert_eq!(events, ["header", "init"], "{strategy:?}: no `done` after a shutdown");

        let resumed =
            e.resume(&toy(), &kernels, &EvalCache::new(), &journal).expect("journal resumes");
        assert!(full.semantic_eq(&resumed), "{strategy:?}: resume after shutdown diverges");
    }
}
