#!/usr/bin/env bash
# Full offline verification: format, lint, build, test. No network
# access is required at any step — proptest resolves to the vendored
# shim under vendor/ (see DESIGN.md).
#
# Usage:
#   scripts/verify.sh          # tier-1: fmt + clippy + build + tests,
#                              # and a type check of perfbench
#   scripts/verify.sh --slow   # additionally the property suites (linted
#                              # and run) and the perfbench tests
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
# perfbench is a workspace of its own that compiles against the suite's
# public API; checking it here makes an API change that breaks the
# benchmark fail tier-1. --locked fails if a crate change would rewrite
# perfbench/Cargo.lock.
run cargo check --offline --locked --manifest-path perfbench/Cargo.toml
# `default-members` makes this run every workspace crate's tests: the
# robustness, differential, observability and documentation gates
# (docs/ROBUSTNESS.md, docs/SIMULATORS.md) all run here.
run cargo test -q

if [[ "${1:-}" == "--slow" ]]; then
    # required-features gating means a plain `cargo clippy` or
    # `cargo test` never sees these targets; enable them per package (a
    # workspace-wide `--features` flag does not reach member crates).
    for p in bitv xasm vlog isdl-suite; do
        run cargo clippy -q -p "$p" --features slow-props --all-targets -- -D warnings
        run cargo test -q -p "$p" --features slow-props
    done
    # perfbench's tests run every benchmark workload once.
    run cargo test --offline --locked --manifest-path perfbench/Cargo.toml
fi

echo "verify: OK"
