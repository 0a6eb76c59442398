#!/usr/bin/env bash
# Bench regression gates against the committed baselines.
#
# 1. Profiler gate: re-measure every (workload, interposer) row with
#    simprof and compare instruction/sample counts against
#    BENCH_simprof.json. Fails (non-zero exit) when any row drifts beyond
#    the tolerance band (default 10%; override with SIMPROF_TOL or extra
#    flags, e.g. `scripts/bench_gate.sh --tol 0.05` — flags are passed to
#    the simprof gate only).
# 2. Engine-throughput gate: re-run simperf and check against
#    BENCH_simperf.json that (a) the three engines' instruction streams
#    are still byte-identical (determinism), (b) the snapshot run drops
#    no obs events, and (c) block/trace inst/s have not fallen below
#    baseline × (1 − tol) (SIMPERF_TOL, default 0.5 — wall-clock
#    throughput on shared CI is noisy; only slowdowns fail).
#
# 3. Coverage gate: re-run the simaudit sweep and require every
#    (mechanism, workload) cell's coverage to stay at or above the
#    committed MATRIX_simaudit.txt floor.
#
# 4. Scale gate: check the committed BENCH_scale.json still satisfies
#    the scaling criterion (epoll server >= 5x the polling variant at
#    the top connection count under K23) and re-measure the epoll/K23
#    floor cell against the committed throughput.
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
