//! Every deterministic number in `EXPERIMENTS.md` comes from code: each
//! table below is rendered from the code it describes and must appear in
//! the doc verbatim, so a change that moves a number cannot land with the
//! doc still quoting the old one. When a block is missing, the failure
//! prints the block to paste in. (Timing numbers are not deterministic;
//! the doc cites each one's source instead.)

use archex::{workloads, Explorer, Strategy};
use hgen::{synthesize, DecodeStyle, HgenOptions, ShareOptions};

/// A Markdown table: a header row, a separator row (right-aligning the
/// columns `right` marks), and one line per row.
fn table(header: &[&str], right: &[bool], rows: &[Vec<String>]) -> String {
    let line = |cells: Vec<&str>| format!("| {} |\n", cells.join(" | "));
    let mut s = line(header.to_vec());
    s.push_str(&line(right.iter().map(|&r| if r { "---:" } else { "---" }).collect()));
    for row in rows {
        s.push_str(&line(row.iter().map(String::as_str).collect()));
    }
    s
}

/// `x` rounded to an integer, with thousands separators: `645,743`.
fn thousands(x: f64) -> String {
    let digits = format!("{x:.0}");
    let mut out = String::new();
    for (i, c) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i) % 3 == 0 {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// Fails, printing every missing block, unless each `(name, block)`
/// appears verbatim in `EXPERIMENTS.md`.
fn assert_documented(blocks: &[(&str, String)]) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/EXPERIMENTS.md");
    let doc = std::fs::read_to_string(path).expect("EXPERIMENTS.md is readable");
    let missing: Vec<String> = blocks
        .iter()
        .filter(|(_, block)| !doc.contains(block.as_str()))
        .map(|(name, block)| {
            format!("EXPERIMENTS.md: {name} differs from the code; paste in:\n\n{block}")
        })
        .collect();
    assert!(missing.is_empty(), "\n{}", missing.join("\n"));
}

/// Table 2 without its timing column: cycle length, lines of Verilog and
/// die size of SPAM and SPAM2 under the default HGEN options.
fn table2() -> String {
    let rows: Vec<Vec<String>> = bench::measure_table2()
        .into_iter()
        .map(|r| {
            vec![
                r.processor,
                format!("{:.1}", r.cycle_ns),
                r.lines_of_verilog.to_string(),
                thousands(r.die_size_cells),
            ]
        })
        .collect();
    table(
        &["Processor", "cycle (ns)", "lines of Verilog", "die size (grid cells)"],
        &[false, true, true, true],
        &rows,
    )
}

/// Ablation A: die size and shared units per resource-sharing setting.
fn ablation_a() -> String {
    let configs = [
        ("no sharing", ShareOptions { enabled: false, use_constraints: false, use_hints: false }),
        (
            "rules 1–4 only",
            ShareOptions { enabled: true, use_constraints: false, use_hints: false },
        ),
        (
            "rules + constraints + hints",
            ShareOptions { enabled: true, use_constraints: true, use_hints: true },
        ),
    ];
    let rows: Vec<Vec<String>> = configs
        .into_iter()
        .map(|(name, share)| {
            let options = HgenOptions { share, ..HgenOptions::default() };
            let spam = synthesize(&bench::spam_machine(), options).expect("SPAM synthesizes");
            let spam2 = synthesize(&bench::spam2_machine(), options).expect("SPAM2 synthesizes");
            vec![
                name.to_owned(),
                thousands(spam.report.area_cells),
                thousands(spam2.report.area_cells),
                spam.stats.units.to_string(),
                spam.stats.units_saved.to_string(),
            ]
        })
        .collect();
    table(
        &["configuration", "SPAM die (cells)", "SPAM2 die (cells)", "SPAM units", "saved"],
        &[false, true, true, true, true],
        &rows,
    )
}

/// Ablation B: SPAM's die size and cycle length per decode style.
fn ablation_b() -> String {
    let styles = [
        ("two-level (signature literals)", DecodeStyle::TwoLevel),
        ("naive masked comparators", DecodeStyle::NaiveComparator),
    ];
    let rows: Vec<Vec<String>> = styles
        .into_iter()
        .map(|(name, decode)| {
            let r = synthesize(
                &bench::spam_machine(),
                HgenOptions { decode, ..HgenOptions::default() },
            )
            .expect("SPAM synthesizes");
            vec![
                name.to_owned(),
                thousands(r.report.area_cells),
                format!("{:.1}", r.report.cycle_ns),
            ]
        })
        .collect();
    table(&["style", "SPAM die (cells)", "cycle (ns)"], &[false, true, true], &rows)
}

/// Ablation E: greedy against beam search on TOY, over the shared
/// exploration workload. Candidates count cache hits, as in Figure 1.
fn ablation_e() -> String {
    let start = isdl::load(isdl::samples::TOY).expect("TOY loads");
    let strategies = [
        ("greedy iterative improvement (the paper's loop)", Strategy::Greedy),
        ("beam search, width 3", Strategy::Beam { width: 3 }),
    ];
    let rows: Vec<Vec<String>> = strategies
        .into_iter()
        .map(|(name, strategy)| {
            let trace = bench::run_exploration(&start, strategy, 1);
            let last = trace.steps.last().expect("the start is a step");
            vec![
                name.to_owned(),
                format!("{:.3}", last.score),
                format!("{:.2}", last.metrics.runtime_us),
                trace.candidates_evaluated().to_string(),
            ]
        })
        .collect();
    table(
        &["strategy", "final objective", "runtime (µs)", "candidates evaluated"],
        &[false, true, true, true],
        &rows,
    )
}

#[test]
fn table2_and_ablations_a_b_e_match_the_code() {
    assert_documented(&[
        ("Table 2", table2()),
        ("Ablation A", ablation_a()),
        ("Ablation B", ablation_b()),
        ("Ablation E", ablation_e()),
    ]);
}

/// Figure 1 as one table row: the exploration `examples/explore_dsp.rs`
/// runs, summarized.
#[test]
fn figure1_matches_the_code() {
    let start = isdl::load(isdl::samples::SPAM).expect("SPAM loads");
    let kernels =
        vec![workloads::dot_product(6), workloads::fir(3, 10), workloads::vector_update(5)];
    let trace = Explorer { max_steps: 12, ..Explorer::default() }
        .run(&start, &kernels)
        .expect("SPAM evaluates");
    let ops = |m: &isdl::Machine| m.fields.iter().map(|f| f.ops.len()).sum::<usize>();
    let (first, last) = (&trace.steps[0], trace.steps.last().expect("the start is a step"));
    let percent = |end: f64, begin: f64| format!("{:.1}%", 100.0 * end / begin);
    let row = vec![
        (trace.steps.len() - 1).to_string(),
        trace.candidates_evaluated().to_string(),
        format!("{} → {}", ops(&start), ops(&trace.machine)),
        format!("{} → {}", start.fields.len(), trace.machine.fields.len()),
        percent(last.metrics.runtime_us, first.metrics.runtime_us),
        percent(last.metrics.area_cells, first.metrics.area_cells),
    ];
    let figure1 = table(
        &["accepted steps", "candidates", "ops", "fields", "runtime", "die size"],
        &[true, true, false, false, true, true],
        &[row],
    );
    assert_documented(&[("Figure 1", figure1)]);
}
