//! Ablations.
//!
//! 1. zpoline's disassembly strategy (DESIGN.md §4.3's trade-off): the
//!    byte-pattern scan over-approximates (more corruption, no misses);
//!    the linear sweep both misses and fabricates.
//! 2. The engine-mode matrix (DESIGN.md §10): stepwise × block produce
//!    instruction-for-instruction identical streams — plain, under a
//!    fault plan, and with the profiler enabled — and, with no session
//!    configured, the same retired-instruction clock, while the block
//!    engine's throughput is at least the stepwise oracle's.

use std::rc::Rc;
use std::time::Instant;

use bench::micro::{install_micro, MICRO_APP};
use interpose::{Interposer, Native};
use k23_tests::RwxLoader;
use pitfalls::fault::{plan_for, run_probe, run_probe_on, Scenario};
use sim_fault::{FaultKind, FaultPlan, SyscallFault};
use sim_isa::{Asm, Reg};
use sim_kernel::{nr, EngineConfig, Kernel, Pid, RunExit, TraceEntry};
use sim_loader::boot_kernel;
use sim_obs::ObsConfig;
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

// ===== Engine-mode matrix: stepwise × block =====

/// The two engine configurations, oracle first.
fn engines() -> [(&'static str, EngineConfig); 2] {
    [
        ("stepwise", EngineConfig::stepwise()),
        ("block", EngineConfig::new()),
    ]
}

/// A guest the engine matrix runs.
#[derive(Clone, Copy, Debug)]
enum Guest {
    /// The Table 5 syscall-500 stress loop, for `n` iterations.
    Micro(u64),
    /// sqlite-sim's work loop (`sub rcx, 1; jnz`) for `n` iterations,
    /// then `exit_group(0)`: no syscall inside the loop, so its trace
    /// wraps in place at the `jnz`.
    CountDown(u64),
    /// A self-looping trace that ends in a trivial syscall and rewrites
    /// its own code once: see [`self_patching_loop`].
    SelfPatch,
}

/// Iterations [`self_patching_loop`] runs before its patch, so its trace
/// forms (`sim_cpu::trace::HOT_THRESHOLD` is 16) well before it.
const PATCH_AT: u64 = 100;

/// A loop whose trace runs `entry` → `call prep` → `getpid` → back to
/// `entry`, adding `mov rax, 1`'s immediate into r14 each iteration.
/// Each `call` pushes 0x100 bytes below the last push, walking down from
/// the pages above the code, and the push of iteration [`PATCH_AT`]
/// lands exactly on that immediate. A push is not an invalidating store
/// (on either engine the old decode stands until the next serialization
/// point), so the rewrite becomes visible at the `getpid`, which the
/// block engine serves inside trace replay: its serialize flushes, which
/// must stop the trace from wrapping in place, so the remaining
/// iterations add the pushed return address instead. The loop is eight
/// steps long, so every 64-step slice starts at `entry`. Returns the
/// code and the exit status that proves the new bytes ran.
fn self_patching_loop() -> (Vec<u8>, i64) {
    const BASE: u64 = 0x1000; // where `RwxLoader` maps the code
    const ENTRY: usize = 0xf00; // near the top of the code page
    const PREP: usize = ENTRY - 12; // `mov rax, imm64; syscall`
    let iterations = PATCH_AT + 6;
    let mut a = Asm::new();
    a.mov_imm(Reg::Rbx, iterations);
    a.mov_imm(Reg::R14, 0);
    // The push of iteration PATCH_AT writes [entry + 2, entry + 10).
    a.lea_label(Reg::Rsp, "entry");
    a.add_imm(Reg::Rsp, (2 + (PATCH_AT + 1) * 0x100) as i32);
    a.jmp("entry");
    // Later pushes walk down into this sled, never into live code.
    let pad = PREP - a.here();
    a.nops(pad);
    a.label("prep");
    a.mov_imm(Reg::Rax, nr::SYS_GETPID);
    a.syscall(); // returns to `entry`
    a.label("entry");
    a.mov_imm(Reg::Rax, 1);
    a.add_reg(Reg::R14, Reg::Rax);
    a.sub_imm(Reg::Rbx, 1);
    a.jz("done");
    a.sub_imm(Reg::Rsp, 0xf8);
    a.call("prep");
    a.label("done");
    a.mov_reg(Reg::Rdi, Reg::R14);
    a.and_imm(Reg::Rdi, 0x7f);
    a.mov_imm(Reg::Rax, nr::SYS_EXIT_GROUP);
    a.syscall();
    let prog = a.finish_program();
    assert_eq!(prog.sym("entry"), ENTRY as u64);
    // Iterations 0..=PATCH_AT read the original immediate; the remaining
    // ones read the pushed return address, `done`.
    let pushed = BASE + prog.sym("done");
    let sum = (PATCH_AT + 1) + (iterations - PATCH_AT - 1) * pushed;
    (prog.bytes, (sum & 0x7f) as i64)
}

/// A booted kernel with `guest` spawned.
fn boot_guest(guest: Guest) -> (Kernel, Pid) {
    let raw = |code: Vec<u8>| {
        let mut k = Kernel::new();
        k.set_loader(Rc::new(RwxLoader(code)));
        let pid = k.spawn("/bin/loop", &[], &[], None).expect("spawn");
        (k, pid)
    };
    match guest {
        Guest::Micro(iters) => {
            let mut k = boot_kernel();
            install_micro(&mut k.vfs, iters).expect("microbench installs");
            let ip = Native;
            ip.install(&mut k);
            let pid = ip.spawn(&mut k, MICRO_APP, &[], &[]).expect("spawn");
            (k, pid)
        }
        Guest::CountDown(n) => {
            let mut a = Asm::new();
            a.mov_imm(Reg::Rcx, n);
            a.label("loop");
            a.sub_imm(Reg::Rcx, 1);
            a.jnz("loop");
            a.mov_imm(Reg::Rdi, 0);
            a.mov_imm(Reg::Rax, nr::SYS_EXIT_GROUP);
            a.syscall();
            raw(a.finish())
        }
        Guest::SelfPatch => raw(self_patching_loop().0),
    }
}

/// One guest run: the recorded instruction stream (when asked for),
/// final clock, exit status, retired-instruction clock, and host
/// wall-clock seconds.
type MicroRun = (Vec<TraceEntry>, u64, Option<i64>, u64, f64);

/// Runs `guest` under `cfg`.
fn run_guest(cfg: EngineConfig, guest: Guest, record: bool) -> MicroRun {
    let (mut k, pid) = boot_guest(guest);
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

/// Runs the syscall-500 stress guest under `cfg`.
fn run_micro(cfg: EngineConfig, iters: u64, record: bool) -> MicroRun {
    run_guest(cfg, Guest::Micro(iters), record)
}

/// Runs `guest` on the block engine with sim-obs counting, and returns
/// the hottest trace's `enters` (dispatches plus in-place wraps) and the
/// dispatcher's trace entries (cold entries plus links).
fn enters_and_dispatches(guest: Guest) -> (u64, u64) {
    sim_obs::enable(ObsConfig::default());
    let (mut k, pid) = boot_guest(guest);
    k.configure(EngineConfig::new());
    let exit = k.run(u64::MAX / 4);
    let rec = sim_obs::disable().expect("recorder");
    assert_eq!(exit, RunExit::AllExited);
    let tid = k.process(pid).expect("proc").threads[0].tid;
    let stats = k.cpu_mut(pid, tid).expect("cpu").trace_stats();
    let hottest = stats.first().expect("the loop formed a trace");
    (
        hottest.enters,
        rec.counters.trace_entries + rec.counters.trace_links,
    )
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
/// block and hot slice loops alike — counts every recorded step. Three
/// guests: the syscall stress loop, sqlite-sim's `sub rcx, 1; jnz` loop
/// (whose trace must wrap in place rather than return to the dispatcher
/// every iteration), and a self-looping trace that rewrites its own code
/// (whose flush must stop the wrap, so the new bytes run).
#[test]
fn engine_matrix_streams_identical() {
    for guest in [
        Guest::Micro(5_000),
        Guest::CountDown(20_000),
        Guest::SelfPatch,
    ] {
        let mut oracle: Option<(Vec<TraceEntry>, u64, Option<i64>)> = None;
        for (name, cfg) in engines() {
            let (stream, clock, status, retired, _) = run_guest(cfg, guest, true);
            assert!(stream.len() > 500, "{guest:?} {name}: stream too short");
            assert_eq!(
                retired,
                stream.len() as u64,
                "{guest:?} {name}: retired clock drifts from the stream"
            );
            match &oracle {
                None => oracle = Some((stream, clock, status)),
                Some((ref_stream, ref_clock, ref_status)) => {
                    assert_streams_equal(name, &stream, ref_stream);
                    assert_eq!(clock, *ref_clock, "{guest:?} {name}: clock diverges");
                    assert_eq!(status, *ref_status, "{guest:?} {name}: status diverges");
                }
            }
        }
        match guest {
            Guest::CountDown(n) => {
                let (enters, dispatches) = enters_and_dispatches(guest);
                assert!(
                    enters > n * 9 / 10,
                    "the loop's trace entered only {enters} times"
                );
                assert!(
                    enters > 16 * dispatches,
                    "{enters} trace enters for {dispatches} dispatcher entries: no wrap in place"
                );
            }
            Guest::SelfPatch => {
                let patched = Some(self_patching_loop().1);
                assert_eq!(
                    oracle.expect("ran").2,
                    patched,
                    "the patched bytes never ran"
                );
            }
            Guest::Micro(_) => {}
        }
    }
}

/// Same matrix under a syscall fault plan: errno injections land at the
/// identical occurrence under every engine (the plan's occurrence counters
/// advance through the block engine's direct-path syscall entry too).
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
/// both engines agree on the guest-visible outcome and final clock.
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
/// stepwise ≤ block in simulated instructions per host second (best-of-3
/// to damp scheduler noise; the observed gap is a multiple, so the
/// ordering is robust). These runs take the hot loop's fastest shape —
/// no session, no exec trace — and both engines' retired-instruction
/// clocks must still agree.
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
