#!/usr/bin/env bash
# Bench regression gates against the committed baselines.
#
# 1. Profiler gate: re-measure every (workload, interposer) row with
#    simprof and compare its instruction, sample and syscall counts
#    against BENCH_simprof.json exactly — all three are architectural.
#    Fails (non-zero exit) on any difference or any dropped obs event.
#    Extra flags are passed to the simprof gate only, e.g.
#    `scripts/bench_gate.sh --engine stepwise`.
# 2. Engine-throughput gate: re-run simperf and check against
#    BENCH_simperf.json that (a) the three engines' instruction streams
#    are still byte-identical (determinism), (b) the snapshot run drops
#    no obs events, and (c) block/trace inst/s have not fallen below
#    baseline × (1 − 0.5), a constant in simperf (wall-clock throughput
#    on shared CI is noisy; only slowdowns fail).
#
# 3. Coverage gate: re-run the simaudit sweep and require every
#    (mechanism, workload) cell's coverage to stay at or above the
#    committed MATRIX_simaudit.txt floor.
#
# 4. Scale gate: check the committed BENCH_scale.json still satisfies
#    the scaling criterion (epoll server >= 5x the polling variant at
#    the top connection count under K23) and re-run the epoll/K23 floor
#    cell, which must reproduce the committed requests and cycles
#    exactly.
#
# Refresh the baselines after an intentional change with:
#   cargo run --release -q -p bench --bin simprof
#   cargo run --release -q -p bench --bin simperf -- --json BENCH_simperf.json
#     (this drops the file's frozen `before`/`speedup` record of the
#     deleted pre-fast-path engine; the gate reads only `determinism`,
#     `block` and `after`)
#   cargo run --release -q -p bench --bin simaudit -- --out MATRIX_simaudit.txt
#   cargo run --release -p bench --bin simscale -- --json BENCH_scale.json
set -euo pipefail
cd "$(dirname "$0")/.."
cargo run --release -q -p bench --bin simprof -- --gate BENCH_simprof.json "$@"
cargo run --release -q -p bench --bin simperf -- --gate BENCH_simperf.json
cargo run --release -q -p bench --bin simaudit -- --gate MATRIX_simaudit.txt
cargo run --release -q -p bench --bin simscale -- --gate BENCH_scale.json
