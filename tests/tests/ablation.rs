//! Ablations.
//!
//! 1. zpoline's disassembly strategy (DESIGN.md §4.3's trade-off): the
//!    byte-pattern scan over-approximates (more corruption, no misses);
//!    the linear sweep both misses and fabricates.
//! 2. The engine-mode matrix (DESIGN.md §10): stepwise × block × trace
//!    produce instruction-for-instruction identical streams — plain, under
//!    a fault plan, and with the profiler enabled — and, with no session
//!    configured, the same retired-instruction clock, while throughput is
//!    monotonically non-decreasing across the three.

use std::time::Instant;

use bench::micro::{build_micro_app, MICRO_APP, MICRO_CFG};
use interpose::{Interposer, Native};
use pitfalls::fault::{plan_for, run_probe, run_probe_on, Scenario};
use sim_fault::{FaultKind, FaultPlan, SyscallFault};
use sim_kernel::{nr, EngineConfig, RunExit, TraceEntry};
use sim_loader::boot_kernel;
use zpoline::{ScanStrategy, Zpoline};

fn zp(scan: ScanStrategy) -> Zpoline {
    let mut z = Zpoline::default_variant();
    z.scan = scan;
    z
}

/// Both strategies interpose a clean stress loop correctly; the byte scan
/// rewrites at least as many sites as the sweep.
#[test]
fn byte_scan_is_superset_on_clean_code() {
    let mut counts = Vec::new();
    for scan in [ScanStrategy::LinearSweep, ScanStrategy::ByteScan] {
        let mut k = boot_kernel();
        apps::install_world(&mut k.vfs);
        let z = zp(scan);
        z.install(&mut k);
        let pid = z.spawn(&mut k, "/usr/bin/pwd-sim", &[], &[]).unwrap();
        k.run(1_000_000_000_000);
        let p = k.process(pid).unwrap();
        assert_eq!(p.exit_status, Some(0), "{scan:?}");
        counts.push(z.stats().rewritten.len());
    }
    assert!(counts[1] >= counts[0], "bytescan {} < sweep {}", counts[1], counts[0]);
}

/// On an image with embedded data, the byte scan corrupts it (it rewrites
/// every 0f 05 match) — the maximal-P3a end of the trade-off.
#[test]
fn byte_scan_corrupts_embedded_data() {
    let mut k = boot_kernel();
    pitfalls::install_pocs(&mut k.vfs);
    let z = zp(ScanStrategy::ByteScan);
    z.install(&mut k);
    let pid = z.spawn(&mut k, "/usr/bin/p3a-poc", &[], &[]).unwrap();
    k.run(1_000_000_000_000);
    let p = k.process(pid).unwrap();
    assert_eq!(p.exit_status, Some(7), "embedded data must be corrupted");
}

// ===== Engine-mode matrix: stepwise × block × trace =====

/// The three engine configurations, oracle first.
fn engines() -> [(&'static str, EngineConfig); 3] {
    [
        ("stepwise", EngineConfig::stepwise()),
        ("block", EngineConfig::new()),
        ("trace", EngineConfig::traced()),
    ]
}

/// One stress-guest run: the recorded instruction stream (when asked
/// for), final clock, exit status, retired-instruction clock, and host
/// wall-clock seconds.
type MicroRun = (Vec<TraceEntry>, u64, Option<i64>, u64, f64);

/// Runs the syscall-500 stress guest under `cfg`.
fn run_micro(cfg: EngineConfig, iters: u64, record: bool) -> MicroRun {
    let mut k = boot_kernel();
    build_micro_app().install(&mut k.vfs);
    k.vfs
        .write_file(MICRO_CFG, &iters.to_le_bytes())
        .expect("cfg");
    let ip = Native;
    ip.install(&mut k);
    let pid = ip.spawn(&mut k, MICRO_APP, &[], &[]).expect("spawn");
    k.configure(cfg);
    if record {
        k.start_exec_trace();
    }
    let t0 = Instant::now();
    let exit = k.run(u64::MAX / 4);
    let dt = t0.elapsed().as_secs_f64();
    assert_eq!(exit, RunExit::AllExited);
    let status = k.process(pid).expect("proc").exit_status;
    let stream = if record {
        k.take_exec_trace()
    } else {
        Vec::new()
    };
    (stream, k.clock, status, k.retired(), dt)
}

/// Asserts two engines' instruction streams are bit-identical.
fn assert_streams_equal(name: &str, got: &[TraceEntry], oracle: &[TraceEntry]) {
    assert_eq!(
        got.len(),
        oracle.len(),
        "{name}: stream length {} vs oracle {}",
        got.len(),
        oracle.len()
    );
    for (i, (g, o)) in got.iter().zip(oracle.iter()).enumerate() {
        assert_eq!(g, o, "{name}: stream diverges at step {i}");
    }
}

/// Plain run: every engine's instruction stream, final clock, and exit
/// status match the stepwise oracle bit-for-bit, and with no session
/// configured the retired-instruction clock — credited by the stepwise,
/// block and hot slice loops alike — counts every recorded step.
#[test]
fn engine_matrix_streams_identical() {
    let mut oracle: Option<(Vec<TraceEntry>, u64, Option<i64>)> = None;
    for (name, cfg) in engines() {
        let (stream, clock, status, retired, _) = run_micro(cfg, 5_000, true);
        assert!(stream.len() > 20_000, "{name}: stream too short");
        assert_eq!(
            retired,
            stream.len() as u64,
            "{name}: retired clock drifts from the stream"
        );
        match &oracle {
            None => oracle = Some((stream, clock, status)),
            Some((ref_stream, ref_clock, ref_status)) => {
                assert_streams_equal(name, &stream, ref_stream);
                assert_eq!(clock, *ref_clock, "{name}: clock diverges");
                assert_eq!(status, *ref_status, "{name}: status diverges");
            }
        }
    }
}

/// Same matrix under a syscall fault plan: errno injections land at the
/// identical occurrence under every engine (the plan's occurrence counters
/// advance through the trace engine's direct-path syscall entry too).
#[test]
fn engine_matrix_streams_identical_under_fault_plan() {
    let mut plan = FaultPlan::zero(11);
    plan.syscall_faults = vec![
        SyscallFault {
            nr: nr::SYS_NONEXISTENT,
            occurrence: 7,
            kind: FaultKind::Eintr,
        },
        SyscallFault {
            nr: nr::SYS_NONEXISTENT,
            occurrence: 2_500,
            kind: FaultKind::Eagain,
        },
    ];
    let mut oracle: Option<(Vec<TraceEntry>, u64, Option<i64>)> = None;
    for (name, cfg) in engines() {
        let (stream, clock, status, _, _) = run_micro(cfg.fault(plan.clone()), 5_000, true);
        match &oracle {
            None => oracle = Some((stream, clock, status)),
            Some((ref_stream, ref_clock, ref_status)) => {
                assert_streams_equal(name, &stream, ref_stream);
                assert_eq!(clock, *ref_clock, "{name}: clock diverges");
                assert_eq!(status, *ref_status, "{name}: status diverges");
            }
        }
    }
}

/// The fault-resilience probe under a combined plan (errno + signals +
/// scheduler perturbation) through zpoline's rewritten trampolines: all
/// three engines agree on the guest-visible outcome and final clock.
#[test]
fn engine_matrix_agrees_on_fault_probe() {
    let baseline = run_probe("native", None);
    let mut plan = plan_for(Scenario::Errno, 7, &baseline);
    plan.signal_window = plan_for(Scenario::Signal, 7, &baseline).signal_window;
    plan.sched = plan_for(Scenario::Sched, 7, &baseline).sched;
    let mut oracle: Option<(Option<i64>, Vec<u8>, u64)> = None;
    for (name, cfg) in engines() {
        let run = run_probe_on("zpoline", Some(&plan), cfg);
        match &oracle {
            None => oracle = Some((run.exit, run.output, run.clock)),
            Some((ref_exit, ref_out, ref_clock)) => {
                assert_eq!(run.exit, *ref_exit, "{name}: exit diverges");
                assert_eq!(&run.output, ref_out, "{name}: output diverges");
                assert_eq!(run.clock, *ref_clock, "{name}: clock diverges");
            }
        }
    }
}

/// Same matrix with the sampling profiler enabled: sample boundaries cap
/// block budgets mid-trace, and the streams still match the oracle.
#[test]
fn engine_matrix_streams_identical_with_profiler() {
    let mut oracle: Option<(Vec<TraceEntry>, u64, Option<i64>)> = None;
    for (name, cfg) in engines() {
        let (stream, clock, status, _, _) = run_micro(cfg.profile(64), 5_000, true);
        match &oracle {
            None => oracle = Some((stream, clock, status)),
            Some((ref_stream, ref_clock, ref_status)) => {
                assert_streams_equal(name, &stream, ref_stream);
                assert_eq!(clock, *ref_clock, "{name}: clock diverges");
                assert_eq!(status, *ref_status, "{name}: status diverges");
            }
        }
    }
}

/// Throughput is monotonically non-decreasing across the ablation:
/// stepwise ≤ block ≤ trace in simulated instructions per host second
/// (best-of-3 to damp scheduler noise; the observed gaps are multiples,
/// so the ordering is robust). These runs take the hot loop's fastest
/// shape — no session, no exec trace — and every engine's
/// retired-instruction clock must still agree.
#[test]
fn engine_matrix_throughput_ordering_monotonic() {
    let iters = 20_000;
    let mut rates = Vec::new();
    let mut retired = Vec::new();
    for (name, cfg) in engines() {
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let (_, _, status, r, dt) = run_micro(cfg.clone(), iters, false);
            assert_eq!(status, Some(0), "{name}: bad exit");
            retired.push(r);
            best = best.min(dt);
        }
        rates.push((name, 1.0 / best));
    }
    assert!(
        retired.windows(2).all(|w| w[0] == w[1]),
        "retired clocks diverge across runs and engines: {retired:?}"
    );
    for pair in rates.windows(2) {
        let ((slow, a), (fast, b)) = (pair[0], pair[1]);
        assert!(
            b >= a,
            "inst/s ordering violated: {fast} ({b:.1}/s rel) < {slow} ({a:.1}/s rel)"
        );
    }
}
