//! The `sim*` diagnostics under tier-1: their committed outputs, their
//! command lines and the simscale matrix's determinism.
//!
//! Most tests run a real debug binary (`CARGO_BIN_EXE_<bin>`), so the
//! binaries' argument parsing and output paths are checked too. Each test
//! writes only under its own directory in `CARGO_TARGET_TMPDIR`. The
//! library-level pins of the MATRIX_* files live in `tests/tests/`.

use bench::scale::{
    collect_offline_log_scale, full_matrix_cells, full_params, matrix_json, render_matrix,
    run_cell, run_matrix_cells, ScaleCell, ScaleParams, Variant,
};
use bench::Config;
use k23_tests::assert_pinned;
use sim_record::{Rec, Recording};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// The eight diagnostics binaries and their debug builds.
const DIAGNOSTICS: [(&str, &str); 8] = [
    ("simaudit", env!("CARGO_BIN_EXE_simaudit")),
    ("simfault", env!("CARGO_BIN_EXE_simfault")),
    ("simperf", env!("CARGO_BIN_EXE_simperf")),
    ("simprof", env!("CARGO_BIN_EXE_simprof")),
    ("simrecord", env!("CARGO_BIN_EXE_simrecord")),
    ("simscale", env!("CARGO_BIN_EXE_simscale")),
    ("simstack", env!("CARGO_BIN_EXE_simstack")),
    ("simtrace", env!("CARGO_BIN_EXE_simtrace")),
];

/// An empty directory that only test `name` writes to.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("diagnostics")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

/// Runs diagnostics binary `bin` with `args` in `dir`, so relative output
/// paths land there.
fn run(bin: &str, dir: &Path, args: &[&str]) -> Output {
    let (_, exe) = DIAGNOSTICS
        .iter()
        .find(|(name, _)| *name == bin)
        .expect("a diagnostics binary");
    Command::new(exe)
        .args(args)
        .current_dir(dir)
        .output()
        .unwrap_or_else(|e| panic!("{bin}: {e}"))
}

/// Runs `bin args` in `dir`, requires success and returns stdout.
fn run_ok(bin: &str, dir: &Path, args: &[&str]) -> String {
    let out = run(bin, dir, args);
    assert!(
        out.status.success(),
        "{bin} {args:?} failed ({}): {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("UTF-8 stdout")
}

/// The default simprof sweep writes `BENCH_simprof.json` byte for byte:
/// every row's sample, instruction and syscall counts, and zero dropped
/// obs events.
#[test]
fn simprof_reproduces_the_committed_baseline() {
    let dir = scratch("simprof");
    run_ok(
        "simprof",
        &dir,
        &["--json", "simprof.json", "--out-prefix", "SIMPROF"],
    );
    assert_pinned(
        &std::fs::read_to_string(dir.join("simprof.json")).expect("simprof wrote its JSON"),
        include_str!("../../../BENCH_simprof.json"),
        "BENCH_simprof.json",
        "cargo run --release -p bench --bin simprof",
    );
}

/// `simaudit --replay` prints the K23 coreutil cell's full ledger, at
/// 100.0% coverage.
#[test]
fn simaudit_replays_the_k23_coreutil_cell_at_full_coverage() {
    let dir = scratch("simaudit");
    let out = run_ok("simaudit", &dir, &["--replay", "k23", "coreutil"]);
    assert!(
        out.lines()
            .any(|l| l.starts_with("totals:") && l.contains("coverage 100.0%")),
        "{out}"
    );
}

/// The first replay line that `simfault` and `simstack` print under their
/// committed matrices re-runs its cell, and the cell fails again.
#[test]
fn first_failing_cells_replay_as_failed() {
    let matrices = [
        ("simfault", include_str!("../../../MATRIX_simfault.txt")),
        ("simstack", include_str!("../../../MATRIX_simstack.txt")),
    ];
    for (bin, matrix) in matrices {
        let dir = scratch(bin);
        let prefix = format!("{bin} --replay ");
        let line = matrix
            .lines()
            .find_map(|l| l.trim_start().strip_prefix(&prefix))
            .unwrap_or_else(|| panic!("MATRIX_{bin}.txt prints no replay line"));
        let (spec, plan) = line.split_once(' ').expect("replay line: <spec> '<plan>'");
        let plan = plan.trim_matches('\'');
        let out = run_ok(bin, &dir, &["--replay", spec, plan]);
        assert!(
            out.lines().any(|l| l == "  verdict:  FAILED"),
            "{bin} --replay {spec} '{plan}' did not fail again:\n{out}"
        );
    }
}

/// nginx-sim recorded under the canned fault plan on the trace engine
/// replays on the stepwise oracle: every record verified, obs stream
/// byte-identical. The log is long and holds asynchrony records, not only
/// syscall results and exits. Navigating the two-process recording to
/// half its retired instructions reaches the same state on the stepwise
/// and block engines.
#[test]
fn simrecord_replays_a_faulted_nginx_recording_on_the_stepwise_engine() {
    let dir = scratch("simrecord");
    let recorded = run_ok(
        "simrecord",
        &dir,
        &[
            "--record",
            "--workload",
            "nginx",
            "--engine",
            "trace",
            "--fault",
            "--out",
            "nginx.srec",
        ],
    );
    let log = std::fs::read(dir.join("nginx.srec")).expect("recording written");
    let recording = Recording::decode(&log).expect("recording decodes");
    assert!(
        recording.recs.len() >= 100,
        "{} records",
        recording.recs.len()
    );
    assert!(
        recording
            .recs
            .iter()
            .any(|r| !matches!(r, Rec::Syscall { .. } | Rec::Exit { .. })),
        "the fault plan produced no asynchrony records"
    );
    let out = run_ok(
        "simrecord",
        &dir,
        &["--replay", "nginx.srec", "--engine", "stepwise"],
    );
    assert!(out.starts_with("replay: ok"), "{out}");

    let retired: u64 = recorded
        .split(" retired instructions")
        .next()
        .and_then(|head| head.rsplit(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no retired count in {recorded:?}"));
    let seek = (retired / 2).to_string();
    let navigate = |engine| {
        run_ok(
            "simrecord",
            &dir,
            &[
                "--navigate",
                "nginx.srec",
                "--seek",
                &seek,
                "--engine",
                engine,
            ],
        )
    };
    let stepwise = navigate("stepwise");
    assert!(
        stepwise.starts_with(&format!("navigate: nginx at retired instruction {seek}\n")),
        "{stepwise}"
    );
    assert_eq!(
        stepwise.lines().filter(|l| l.starts_with("  pid ")).count(),
        2,
        "{stepwise}"
    );
    assert_eq!(navigate("block"), stepwise);
}

/// simtrace's Chrome trace of a coreutil under K23 parses and holds
/// syscall spans.
#[test]
fn simtrace_writes_a_trace_with_syscall_spans() {
    let dir = scratch("simtrace");
    run_ok(
        "simtrace",
        &dir,
        &[
            "--interposer",
            "k23",
            "--trace-out",
            "trace.json",
            "--summary-out",
            "summary.txt",
        ],
    );
    let trace = std::fs::read(dir.join("trace.json")).expect("trace written");
    let json = sjson::parse(&trace).expect("trace parses");
    let events = json
        .get("traceEvents")
        .and_then(|t| t.as_array())
        .expect("traceEvents array");
    let spans = events
        .iter()
        .filter(|e| {
            e.get("ph").and_then(|p| p.as_str()) == Some("B")
                && e.get("cat").and_then(|c| c.as_str()) == Some("syscall")
        })
        .count();
    assert!(spans > 0, "the trace holds no syscall spans");
}

/// Every diagnostic rejects an unknown flag with exit status 1 and a
/// message naming itself.
#[test]
fn every_diagnostic_rejects_an_unknown_flag() {
    let dir = scratch("unknown-flag");
    for (bin, _) in DIAGNOSTICS {
        let out = run(bin, &dir, &["--no-such-flag"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{bin}: {stderr}");
        assert!(stderr.starts_with(&format!("{bin}: ")), "{bin}: {stderr}");
    }
}

/// A microbench count of 0 would loop 2⁶⁴ times: `simrecord --seed 0` and
/// `simtrace --micro 0` exit 1 instead, naming the count.
#[test]
fn zero_microbench_counts_exit_1() {
    let dir = scratch("zero-micro");
    let cells: [(&str, &[&str]); 2] = [
        (
            "simrecord",
            &["--record", "--workload", "micro", "--seed", "0"],
        ),
        ("simtrace", &["--micro", "0"]),
    ];
    for (bin, args) in cells {
        let out = run(bin, &dir, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{bin}: {stderr}");
        assert!(
            stderr.starts_with(&format!("{bin}: ")) && stderr.contains("count 0"),
            "{bin}: {stderr}"
        );
    }
}

/// A small simscale matrix (native, K23 and SUD at 16 and 64 connections,
/// 64 requests) renders identical text and JSON at one and at four host
/// threads: the cross-kernel merge never depends on host timing.
#[test]
fn scale_matrix_is_identical_for_one_and_four_threads() {
    let conns = [16, 64];
    let mut cells = full_matrix_cells(&conns);
    cells.retain(|c| matches!(c.config, Config::Native | Config::K23Default | Config::Sud));
    let params = ScaleParams {
        requests: 64,
        ..full_params(10)
    };
    let one = run_matrix_cells(&conns, &cells, &params, 1);
    let four = run_matrix_cells(&conns, &cells, &params, 4);
    assert_eq!(render_matrix(&one), render_matrix(&four));
    assert_eq!(
        matrix_json(&one).to_string_pretty(),
        matrix_json(&four).to_string_pretty()
    );
}

/// The committed `BENCH_scale.json` meets the scaling criterion (under
/// K23, the epoll server's throughput is at least 5x the polling
/// variant's at the top connection count), and a fresh epoll/K23 cell at
/// the smallest committed connection count reproduces the committed
/// cell's requests and cycles exactly: both are simulated counts.
#[test]
fn committed_scale_baseline_meets_its_criterion_and_floor_cell() {
    let regen = "regenerate it with \
                 `cargo run --release -p bench --bin simscale -- --json BENCH_scale.json`";
    let baseline = sjson::parse(include_bytes!("../../../BENCH_scale.json"))
        .unwrap_or_else(|e| panic!("BENCH_scale.json: {e:?}; {regen}"));
    let field = |v: &sjson::Value, key: &str| {
        v.get(key)
            .and_then(|x| x.as_u64())
            .unwrap_or_else(|| panic!("BENCH_scale.json: no {key}; {regen}"))
    };
    let cells = baseline
        .get("cells")
        .and_then(|c| c.as_array())
        .unwrap_or_else(|| panic!("BENCH_scale.json: no cells; {regen}"));
    let k23_cell = |variant: &str, conns: u64| {
        cells
            .iter()
            .find(|c| {
                c.get("variant").and_then(|v| v.as_str()) == Some(variant)
                    && c.get("config").and_then(|v| v.as_str()) == Some(Config::K23Default.label())
                    && c.get("conns").and_then(|v| v.as_u64()) == Some(conns)
            })
            .unwrap_or_else(|| {
                panic!("BENCH_scale.json: no {variant} K23 cell at c={conns}; {regen}")
            })
    };
    let max_conns = field(&baseline, "max_conns");
    let throughput = |variant: &str| {
        k23_cell(variant, max_conns)
            .get("throughput_per_gcycle")
            .and_then(|v| v.as_f64())
            .unwrap_or_else(|| panic!("BENCH_scale.json: no {variant} throughput; {regen}"))
    };
    let (epoll, poll) = (throughput("epoll"), throughput("poll"));
    assert!(
        epoll >= 5.0 * poll,
        "BENCH_scale.json: epoll {epoll:.1} < 5x poll {poll:.1} at c={max_conns}; {regen}"
    );

    let p = baseline
        .get("params")
        .unwrap_or_else(|| panic!("BENCH_scale.json: no params; {regen}"));
    let params = ScaleParams {
        requests: field(p, "requests") as u32,
        active: field(p, "active") as u32,
        resp64: field(p, "resp64") as u8,
        server_work: field(p, "server_work") as u8,
        workers: field(p, "workers") as u8,
    };
    let min_conns = baseline
        .get("conn_counts")
        .and_then(|v| v.as_array())
        .and_then(|a| a.iter().filter_map(|v| v.as_u64()).min())
        .unwrap_or_else(|| panic!("BENCH_scale.json: no conn_counts; {regen}"));
    let floor = k23_cell("epoll", min_conns);
    let cell = ScaleCell {
        variant: Variant::Epoll,
        conns: min_conns as u32,
        config: Config::K23Default,
    };
    let logs = BTreeMap::from([(
        Variant::Epoll.label(),
        collect_offline_log_scale(Variant::Epoll, &params),
    )]);
    let fresh = run_cell(&cell, &params, &logs);
    assert!(
        (fresh.requests, fresh.cycles) == (field(floor, "requests"), field(floor, "cycles")),
        "BENCH_scale.json: the epoll K23 cell at c={min_conns} committed {} requests in {} \
         cycles, a fresh run gives {} in {}; {regen}",
        field(floor, "requests"),
        field(floor, "cycles"),
        fresh.requests,
        fresh.cycles
    );
}
