#!/usr/bin/env bash
# Full offline verification: format, lint, build, test. No network
# access is required at any step — proptest and criterion resolve to
# the vendored shims under vendor/ (see DESIGN.md).
#
# Usage:
#   scripts/verify.sh          # tier-1: fmt + clippy + build + tests
#   scripts/verify.sh --slow   # additionally run the property suites
#   scripts/verify.sh --doc    # only the rustdoc pass (warnings fatal)
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

if [[ "${1:-}" == "--doc" ]]; then
    RUSTDOCFLAGS="-D warnings" run cargo doc --no-deps --workspace
    echo "verify: OK"
    exit 0
fi

run cargo fmt --check
run cargo clippy --workspace --all-targets -- -D warnings
run cargo build --release
run cargo test -q
# Robustness gates (see docs/ROBUSTNESS.md): fault containment,
# deterministic retry/deadline supervision, and journaled
# checkpoint/resume (including the recorded journal fixture, journals
# byte-identical across thread counts, and the corruption matrix) must
# stay deterministic. All suites run inside `cargo test -q` above too;
# naming them here keeps the gates explicit and the failure output
# focused.
run cargo test -q -p archex
# obs unit tests share the process-wide log dispatcher and flight
# recorder; they serialize on one crate-level guard and must pass at
# any --test-threads.
run cargo test -q -p obs
# Crash-torture smoke (see docs/ROBUSTNESS.md): real `isdlc explore
# --journal` children are SIGKILLed at seeded byte offsets and
# resumed; the final trace must match the uninterrupted run's. The
# full seeded sweep (kill chains, SIGINT graceful shutdown) runs under
# --slow.
run cargo test -q --test crash_torture
# RTL middle-end gate: optimized and unoptimized execution must stay
# bit-identical on every sample machine, for both simulator cores and
# the generated hardware, at every pipeline level INCLUDING the
# level-3 pass-manager schedule (fold,prop,strength,fwd,dead,cse,
# share), whose per-pass stats must partition the pipeline totals
# exactly (see DESIGN.md §4a). Also inside `cargo test -q` above;
# named here so an optimizer regression fails loudly.
run cargo test -q --test opt_differential
# Translation-tier gate (see DESIGN.md §4b): dispatching through
# translated basic blocks must be bit-identical to the interpreter —
# state, traces, profiles, cycle counts — including under
# self-modifying code, on every sample machine and opt level.
run cargo test -q --test translate_differential
# Netlist backend gate (see docs/SIMULATORS.md): the event-driven and
# compiled levelized netlist simulators must agree bit-for-bit with the
# ILS on every sample machine and HGEN opt level, and their VCD
# waveforms must be byte-identical.
run cargo test -q --test netlist_differential
# Profiler gate (see docs/OBSERVABILITY.md, `xsim-profile/1`): the
# per-pc and per-region tables must partition the machine-wide cycle
# counters exactly, every stall must name its cause, and enabling the
# profiler must be purely observational.
run cargo test -q --test profile_invariants
# Observability gate (see docs/OBSERVABILITY.md): the flight
# recorder's crash path must leave a parseable flight-dump/1 naming
# the panicking stage, referenced from the structured log but never
# from journaled error messages; heartbeats must stay pure telemetry
# (a run with --progress produces the same trace as one without, at
# every thread count). Both suites run inside `cargo test -q` above;
# named here so a telemetry regression fails loudly.
run cargo test -q -p archex --test flight_dump
run cargo test -q -p archex --test explore_parallel
# Documentation gate: every ```json example in docs/OBSERVABILITY.md
# must round-trip through the obs::Json RFC 8259 parser.
run cargo test -q --test doc_schemas

if [[ "${1:-}" == "--slow" ]]; then
    # required-features gating means a plain `cargo test` never sees
    # these targets; enable them per package (a workspace-wide
    # `--features` flag does not reach member crates).
    for p in bitv gensim xasm vlog isdl-suite; do
        run cargo test -q -p "$p" --features slow-props
    done
    run cargo bench --no-run -q -p bench --features slow-bench
fi

echo "verify: OK"
