#!/usr/bin/env bash
# CI gate: release build, the tier-1 suite, lint and rustdoc with warnings
# denied, the paper tables against RESULTS.txt, the benchmark's self-checks
# and the one host-time floor; then the non-test line count, ungated.
# Every committed MATRIX_* and BENCH_* artifact is pinned by `cargo test`
# (BENCH_simperf.json's host-time floor aside); this script runs no `sim*`
# sweep of its own.
# Run from anywhere; the script cd's to the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

# `step NAME` closes the running step with its wall time and opens NAME
# (`step ""` only closes), so every run shows the tier-1 suite against
# its 50 s warm budget and how long the RESULTS.txt compare took.
step_name=""
step_t0=0
step() {
    local now=${EPOCHREALTIME/./}
    if [[ -n $step_name ]]; then
        local us=$((now - step_t0))
        printf '    %d.%d s: %s\n' $((us / 1000000)) $((us % 1000000 / 100000)) "$step_name"
    fi
    step_name=$1
    step_t0=$now
    if [[ -n $step_name ]]; then
        echo "==> $step_name"
    fi
}

step "cargo build --release"
cargo build --release

# --no-fail-fast: every test binary runs even after one fails, so one
# broken pin cannot hide the others.
step "cargo test -q --no-fail-fast"
cargo test -q --no-fail-fast

step "cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Private items too: only then does rustdoc resolve the intra-doc links in
# private docs, which are the ones a deleted function leaves stale.
step "cargo doc --document-private-items, warnings denied"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --document-private-items

# Refresh after an intentional change with
#   K23_BENCH_SCALE=10 cargo run --release -q -p bench --bin all > RESULTS.txt
step "paper tables at scale 10 (bench --bin all) vs RESULTS.txt"
K23_BENCH_SCALE=10 target/release/all | cmp - RESULTS.txt

step "perfbench self-tests (the benchmark still builds against the crates' public API)"
cargo test --manifest-path perfbench/Cargo.toml

# One short run at standard sizes; the result line reads "correct": true only
# if the workload's checks pass and its sim_digest equals the recorded value,
# so a host-time fast path that changes any simulated output fails here.
perfbench_correct() {
    local line
    line=$(cargo run --release -q --manifest-path perfbench/Cargo.toml -- "$@" --seconds 1 | tail -n 1)
    if ! grep -q '^{"correct": true,' <<<"$line"; then
        echo "perfbench $*: result not correct: $line" >&2
        exit 1
    fi
}

step "perfbench epoll-10k + observed-server + paper-tables (simulated output vs recorded sim_digest)"
perfbench_correct --workload epoll-10k
perfbench_correct --workload observed-server --seed 1
perfbench_correct --workload paper-tables

# Host time is not a simulated output, so no test can pin it. The gate
# checks the engines' determinism and that block inst/s stays above half
# of the committed BENCH_simperf.json. Refresh after an intentional
# change with
#   cargo run --release -q -p bench --bin simperf -- --json BENCH_simperf.json
# keeping the committed `block` row at or above the one it replaces, so
# the floor never falls (the gate reads only `determinism` and `block`).
step "simperf gate (engine determinism + throughput floor vs BENCH_simperf.json)"
cargo run --release -q -p bench --bin simperf -- --gate BENCH_simperf.json

# Informational, no gate: the non-test line count that ROADMAP aim 2 tracks,
# per crate and in total (scripts/loc.sh alone lists every file too).
step "non-test Rust lines (scripts/loc.sh)"
scripts/loc.sh | sed '1,/^$/d'

step ""
echo "==> ci.sh: all green"
