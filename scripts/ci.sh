#!/usr/bin/env bash
# Tier-1 gate: release build, full test suite, lint and rustdoc with warnings
# denied.
# Run from anywhere; the script cd's to the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Private items too: only then does rustdoc resolve the intra-doc links in
# private docs, which are the ones a deleted function leaves stale.
echo "==> cargo doc --document-private-items, warnings denied"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --document-private-items

echo "==> simtrace smoke (coreutil under K23, self-checked trace)"
cargo run --release -q -p bench --bin simtrace -- \
    --interposer k23 --selfcheck \
    --trace-out target/SIMTRACE_smoke.json \
    --summary-out target/SIMTRACE_smoke.txt

# Re-runs the first failing cell a sweep printed (`  <bin> --replay <spec>
# '<plan>'`); the replay must fail again.
replay_first_failure() {
    local bin=$1 spec plan out
    read -r spec plan < <(grep -m1 -- "$bin --replay" "$2" | sed -E "s/^ *$bin --replay ([^ ]+) '(.*)'$/\1 \2/")
    out=$(cargo run --release -q -p bench --bin "$bin" -- --replay "$spec" "$plan")
    if ! grep -q '^  verdict:  FAILED$' <<<"$out"; then
        echo "$bin --replay $spec '$plan' did not fail again:" >&2
        echo "$out" >&2
        exit 1
    fi
}

echo "==> simfault smoke (fault matrix, byte-determinism check, first failing cell replays)"
cargo run --release -q -p bench --bin simfault > target/SIMFAULT_smoke_a.txt
cargo run --release -q -p bench --bin simfault > target/SIMFAULT_smoke_b.txt
cmp target/SIMFAULT_smoke_a.txt target/SIMFAULT_smoke_b.txt
replay_first_failure simfault target/SIMFAULT_smoke_a.txt

echo "==> simstack smoke (composed-stack matrix + propagation, byte-determinism check, pinned to MATRIX_simstack.txt, first failing cell replays)"
cargo run --release -q -p bench --bin simstack > target/SIMSTACK_smoke_a.txt
cargo run --release -q -p bench --bin simstack > target/SIMSTACK_smoke_b.txt
cmp target/SIMSTACK_smoke_a.txt target/SIMSTACK_smoke_b.txt
cmp target/SIMSTACK_smoke_a.txt MATRIX_simstack.txt
replay_first_failure simstack target/SIMSTACK_smoke_a.txt

echo "==> simaudit smoke (coverage matrix + JSON export, byte-determinism check, pinned to MATRIX_simaudit.txt on every engine, K23 coreutil cell replays)"
cargo run --release -q -p bench --bin simaudit -- --json target/SIMAUDIT_smoke_a.json > target/SIMAUDIT_smoke_a.txt
cargo run --release -q -p bench --bin simaudit -- --json target/SIMAUDIT_smoke_b.json > target/SIMAUDIT_smoke_b.txt
cmp target/SIMAUDIT_smoke_a.txt target/SIMAUDIT_smoke_b.txt
cmp target/SIMAUDIT_smoke_a.json target/SIMAUDIT_smoke_b.json
cmp target/SIMAUDIT_smoke_a.txt MATRIX_simaudit.txt
for engine in stepwise trace; do
    cargo run --release -q -p bench --bin simaudit -- --engine "$engine" > "target/SIMAUDIT_$engine.txt"
    cmp "target/SIMAUDIT_$engine.txt" MATRIX_simaudit.txt
done
cargo run --release -q -p bench --bin simaudit -- --replay k23 coreutil > target/SIMAUDIT_replay.txt
grep -q 'coverage 100.0%' target/SIMAUDIT_replay.txt

echo "==> diagnostics reject an unknown flag"
for bin in simaudit simfault simperf simprof simrecord simscale simstack simtrace; do
    if "target/release/$bin" --no-such-flag 2>/dev/null; then
        echo "$bin accepted an unknown flag" >&2
        exit 1
    fi
done

echo "==> simscale smoke (connection-scale matrix, byte-determinism across thread counts)"
cargo run --release -q -p bench --bin simscale -- --smoke --threads 1 --json target/SIMSCALE_smoke_a.json > target/SIMSCALE_smoke_a.txt
cargo run --release -q -p bench --bin simscale -- --smoke --threads 4 --json target/SIMSCALE_smoke_b.json > target/SIMSCALE_smoke_b.txt
cmp target/SIMSCALE_smoke_a.txt target/SIMSCALE_smoke_b.txt
cmp target/SIMSCALE_smoke_a.json target/SIMSCALE_smoke_b.json

echo "==> simprof smoke (profiler determinism across runs and engines)"
cargo run --release -q -p bench --bin simprof -- --smoke

echo "==> simrecord smoke (record on trace, replay on stepwise, bisection, navigation)"
cargo run --release -q -p bench --bin simrecord -- --smoke

echo "==> perfbench self-tests (the benchmark still builds against the crates' public API)"
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

echo "==> perfbench epoll-10k + observed-server + paper-tables (simulated output vs recorded sim_digest)"
perfbench_correct --workload epoll-10k
perfbench_correct --workload observed-server --seed 1
perfbench_correct --workload paper-tables

echo "==> bench gate (profiler counts vs BENCH_simprof.json, engine throughput + determinism vs BENCH_simperf.json)"
scripts/bench_gate.sh

echo "==> ci.sh: all green"
