//! Journal format gates: the checked-in `archex-journal/2` recording
//! must still resume from every prefix to the fresh run's trace, a
//! run's journal must be byte-identical across runs and thread counts,
//! every corruption must be rejected with a line-numbered
//! [`JournalError`], and [`archex::journal::compact`] must produce a
//! journal that resumes to the same final trace.

use archex::{compact, workloads, EvalCache, Explorer, JournalError, Strategy};

/// The explorer configuration the `toy_v2.jsonl` fixture was written
/// with (TOY machine, `dot_product(3)`, 6 steps, 2 threads). It holds
/// what [`journaled_run`] of this explorer wrote when evaluation
/// records still carried an `opt` block (the RTL middle-end's stats),
/// which the current writer no longer emits; replaying it proves that
/// journals carrying that block still resume.
fn fixture_explorer() -> Explorer {
    Explorer { max_steps: 6, threads: 2, ..Explorer::default() }
}

fn toy() -> isdl::Machine {
    isdl::load(isdl::samples::TOY).expect("TOY fixture loads")
}

fn recorded_journal() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/toy_v2.jsonl");
    std::fs::read_to_string(path).expect("recorded journal is checked in")
}

/// Runs the fixture's exploration journaled with the current writer,
/// returning (trace, `/2` journal text).
fn journaled_run(e: &Explorer) -> (archex::Trace, String) {
    let kernels = vec![workloads::dot_product(3)];
    let mut sink = Vec::new();
    let trace = e
        .run_journaled(&toy(), &kernels, &EvalCache::new(), &mut sink)
        .expect("journaled run completes");
    (trace, String::from_utf8(sink).expect("journal is UTF-8"))
}

#[test]
fn recorded_journal_resumes_from_every_prefix() {
    let e = fixture_explorer();
    let kernels = vec![workloads::dot_product(3)];
    let fresh = e.run(&toy(), &kernels).expect("fresh run");
    let journal = recorded_journal();

    // The complete recording replays without re-evaluating anything.
    let resumed =
        e.resume(&toy(), &kernels, &EvalCache::new(), &journal).expect("recording resumes");
    assert!(
        fresh.semantic_eq(&resumed),
        "the recording no longer replays the run it recorded:\n  fresh   {:?}\n  resumed {:?}",
        fresh.steps.iter().map(|s| &s.action).collect::<Vec<_>>(),
        resumed.steps.iter().map(|s| &s.action).collect::<Vec<_>>(),
    );

    // Every kill prefix of the recording resumes to the same trace.
    let lines: Vec<&str> = journal.lines().collect();
    for k in 2..=lines.len() {
        let partial = lines[..k].join("\n");
        let resumed = e
            .resume(&toy(), &kernels, &EvalCache::new(), &partial)
            .unwrap_or_else(|err| panic!("resume from {k} lines failed: {err}"));
        assert!(fresh.semantic_eq(&resumed), "resume from {k} lines diverges");
    }

    // Its compaction resumes to the same trace too.
    let compacted = compact(&journal).expect("recording compacts");
    let resumed = e
        .resume(&toy(), &kernels, &EvalCache::new(), &compacted)
        .expect("compacted recording resumes");
    assert!(fresh.semantic_eq(&resumed), "compacted recording diverged on resume");
}

#[test]
fn journals_are_byte_identical_across_thread_counts() {
    for strategy in [Strategy::Greedy, Strategy::Beam { width: 3 }] {
        let journal =
            |threads| journaled_run(&Explorer { strategy, threads, ..fixture_explorer() }).1;
        let (one, four) = (journal(1), journal(4));
        let first_diff = one.lines().zip(four.lines()).position(|(a, b)| a != b);
        assert!(one == four, "{strategy:?}: threads 1 and 4 differ from line index {first_diff:?}");
    }
}

#[test]
fn a_bare_v1_header_is_rejected_at_line_one() {
    // The header of an `archex-journal/1` recording: a bare event
    // line, no integrity envelope.
    let v1 = concat!(
        r#"{"schema": "archex-journal/1", "machine": "toy", "strategy": "greedy", "#,
        r#""max_steps": 6, "objective": {"runtime": 1, "area": 1, "power": 0.25}, "#,
        r#""start": "2388a918584736a8"}"#,
    );
    let e = fixture_explorer();
    let kernels = vec![workloads::dot_product(3)];
    let err = e.resume(&toy(), &kernels, &EvalCache::new(), v1).expect_err("resume rejects it");
    assert!(matches!(err, JournalError::Corrupt { line: 1, .. }), "resume: got {err}");
    let mut sink = Vec::new();
    let err = e
        .resume_or_start_journaled(&toy(), &kernels, &EvalCache::new(), v1, &mut sink)
        .expect_err("no fresh run starts over it");
    assert!(matches!(err, JournalError::Corrupt { line: 1, .. }), "resume_or_start: got {err}");
    assert!(sink.is_empty(), "nothing was journaled");
}

#[test]
fn corruption_anywhere_is_rejected_with_the_line_number() {
    let e = fixture_explorer();
    let kernels = vec![workloads::dot_product(3)];
    let (_, journal) = journaled_run(&e);
    let lines: Vec<&str> = journal.lines().collect();
    assert!(lines.len() >= 4, "need interior lines to corrupt");
    let resume = |journal: &str| e.resume(&toy(), &kernels, &EvalCache::new(), journal);

    // Flipped CRC byte: the stated CRC no longer matches the content.
    let mut corrupt: Vec<String> = lines.iter().map(|l| (*l).to_owned()).collect();
    let crc_pos = corrupt[2].rfind("\"crc\": \"").expect("crc trailer") + "\"crc\": \"".len();
    let old = corrupt[2].as_bytes()[crc_pos];
    corrupt[2].replace_range(crc_pos..=crc_pos, if old == b'0' { "1" } else { "0" });
    let err = resume(&corrupt.join("\n")).expect_err("flipped CRC byte rejected");
    assert!(matches!(err, JournalError::Corrupt { line: 3, .. }), "flipped CRC byte: got {err}");

    // Flipped data byte (interior, not the final line): CRC mismatch.
    let mut corrupt: Vec<String> = lines.iter().map(|l| (*l).to_owned()).collect();
    let pos = corrupt[1].find("\"event\"").expect("event key");
    corrupt[1].replace_range(pos + 1..pos + 2, "E");
    let err = resume(&corrupt.join("\n")).expect_err("flipped data byte rejected");
    assert!(matches!(err, JournalError::Corrupt { line: 2, .. }), "flipped data byte: got {err}");

    // Truncated mid-file line: unparseable JSON that is *not* the
    // final line must never be skipped as a torn write.
    let mut corrupt: Vec<String> = lines.iter().map(|l| (*l).to_owned()).collect();
    let half = corrupt[2].len() / 2;
    corrupt[2].truncate(half);
    let err = resume(&corrupt.join("\n")).expect_err("truncated interior line rejected");
    assert!(
        matches!(err, JournalError::Parse { line: 3, .. }),
        "truncated interior line: got {err}"
    );

    // Duplicated line: its CRC is valid but the sequence breaks.
    let mut corrupt: Vec<String> = lines.iter().map(|l| (*l).to_owned()).collect();
    corrupt.insert(2, corrupt[1].clone());
    let err = resume(&corrupt.join("\n")).expect_err("duplicated seq rejected");
    assert!(matches!(err, JournalError::Corrupt { line: 3, .. }), "duplicated seq: got {err}");

    // A torn *final* line stays tolerated — that is the one corruption
    // an append-only kill can legitimately produce.
    let mut torn: Vec<String> = lines.iter().map(|l| (*l).to_owned()).collect();
    let last = torn.len() - 1;
    let half = torn[last].len() / 2;
    torn[last].truncate(half);
    resume(&torn.join("\n")).expect("torn final line still resumes");
}

#[test]
fn compact_resumes_to_the_same_final_trace() {
    let kernels = vec![workloads::dot_product(3)];
    for strategy in [Strategy::Greedy, Strategy::Beam { width: 3 }] {
        let e = Explorer { strategy, ..fixture_explorer() };
        let (full, journal) = journaled_run(&e);

        // Compacting the complete journal: two lines, same final trace.
        let compacted = compact(&journal).expect("journal compacts");
        assert_eq!(compacted.lines().count(), 2, "{strategy:?}: header + snapshot");
        assert!(compacted.len() < journal.len(), "{strategy:?}: compaction shrank the journal");
        let resumed = e
            .resume(&toy(), &kernels, &EvalCache::new(), &compacted)
            .expect("compacted journal resumes");
        assert!(full.semantic_eq(&resumed), "{strategy:?}: compaction changed the trace");

        // Compacting a kill prefix: the resumed run continues from the
        // snapshot and still converges to the uninterrupted trace.
        let lines: Vec<&str> = journal.lines().collect();
        let prefix = lines[..3].join("\n");
        let compacted = compact(&prefix).expect("prefix compacts");
        let resumed = e
            .resume(&toy(), &kernels, &EvalCache::new(), &compacted)
            .expect("compacted prefix resumes");
        assert!(full.semantic_eq(&resumed), "{strategy:?}: compacted prefix diverged on resume");

        // Corrupt journals are never compacted.
        let mut corrupt: Vec<String> = lines.iter().map(|l| (*l).to_owned()).collect();
        corrupt.insert(2, corrupt[1].clone());
        let err = compact(&corrupt.join("\n")).expect_err("corrupt journal rejected");
        assert!(matches!(err, JournalError::Corrupt { line: 3, .. }), "{strategy:?}: got {err}");
    }
}
