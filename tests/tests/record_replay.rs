//! Record/replay (DESIGN.md §11).
//!
//! 1. The full engine matrix: a run recorded on any engine replays with
//!    byte-identical logs and sim-obs event streams on any other engine
//!    (9 record×replay pairs, with and without a fault plan).
//! 2. Divergence location: the live verifier pins an artificially
//!    perturbed log to the exact record index and retired-instruction
//!    coordinate.
//! 3. Time-travel navigation: a verify replay stopped at a
//!    retired-instruction target reaches the identical state on every
//!    engine, the state of a recording run stopped there.

use std::rc::Rc;

use bench::micro::{install_micro, MICRO_APP};
use interpose::{Interposer, Native};
use sim_fault::{FaultKind, FaultPlan, SyscallFault};
use sim_kernel::{nr, EngineConfig, Kernel, RunExit};
use sim_loader::boot_kernel;
use sim_record::{obs_lines, Rec};

/// The two engine configurations, oracle first.
fn engines() -> [(&'static str, EngineConfig); 2] {
    [
        ("stepwise", EngineConfig::stepwise()),
        ("block", EngineConfig::new()),
    ]
}

/// The errno-injection plan used by the fault-plan matrix leg.
fn plan() -> FaultPlan {
    let mut plan = FaultPlan::zero(11);
    plan.syscall_faults = vec![
        SyscallFault {
            nr: nr::SYS_NONEXISTENT,
            occurrence: 7,
            kind: FaultKind::Eintr,
        },
        SyscallFault {
            nr: nr::SYS_NONEXISTENT,
            occurrence: 900,
            kind: FaultKind::Eagain,
        },
    ];
    plan
}

/// Boots the syscall-500 stress guest, ready to configure and run.
fn boot_micro(iters: u64) -> Kernel {
    let mut k = boot_kernel();
    install_micro(&mut k.vfs, iters).expect("microbench installs");
    let ip = Native;
    ip.install(&mut k);
    ip.spawn(&mut k, MICRO_APP, &[], &[]).expect("spawn");
    k
}

/// Records the micro workload under `cfg` with obs enabled; returns the
/// captured log, the canonicalized obs stream, and the final clock.
fn record_micro(cfg: EngineConfig, iters: u64) -> (Vec<Rec>, Vec<String>, u64) {
    sim_obs::enable(sim_obs::ObsConfig::default());
    let mut k = boot_micro(iters);
    k.configure(cfg.record());
    let exit = k.run(u64::MAX / 4);
    assert_eq!(exit, RunExit::AllExited);
    let log = k.take_recording();
    let rec = sim_obs::disable().expect("recorder");
    (log, obs_lines(&rec), k.clock)
}

/// Verify-replays `log` under `cfg`; returns the divergence (if any),
/// the number of log records consumed, the obs stream, and the clock.
fn verify_micro(
    cfg: EngineConfig,
    iters: u64,
    log: Rc<Vec<Rec>>,
) -> (Option<sim_record::Divergence>, usize, Vec<String>, u64) {
    sim_obs::enable(sim_obs::ObsConfig::default());
    let mut k = boot_micro(iters);
    k.configure(cfg.replay_verify(log));
    let exit = k.run(u64::MAX / 4);
    let div = k.record_divergence().cloned();
    let cursor = k.record_cursor();
    let rec = sim_obs::disable().expect("recorder");
    if div.is_none() {
        assert_eq!(exit, RunExit::AllExited);
    } else {
        assert_eq!(exit, RunExit::Stop);
    }
    (div, cursor, obs_lines(&rec), k.clock)
}

/// Runs the 2×2 record×replay matrix for one optional fault plan.
fn run_matrix(fault: Option<FaultPlan>) {
    let iters = 2_000;
    let with = |cfg: EngineConfig| match &fault {
        Some(p) => cfg.fault(p.clone()),
        None => cfg,
    };
    let mut recordings = Vec::new();
    for (name, cfg) in engines() {
        let (log, obs, clock) = record_micro(with(cfg), iters);
        assert!(
            log.len() > 100,
            "{name}: log too short ({} recs)",
            log.len()
        );
        if fault.is_some() {
            assert!(
                log.iter().any(|r| !matches!(r, Rec::Syscall { .. })),
                "{name}: fault plan left no asynchrony records"
            );
        }
        recordings.push((name, Rc::new(log), obs, clock));
    }
    // Engine-invariance of the log itself: every engine captured the
    // byte-identical record stream.
    for (name, log, obs, clock) in &recordings[1..] {
        assert_eq!(
            **log, *recordings[0].1,
            "{name}: log differs from stepwise"
        );
        assert_eq!(*obs, recordings[0].2, "{name}: obs differs from stepwise");
        assert_eq!(*clock, recordings[0].3, "{name}: clock differs");
    }
    // All 4 record-on-A / replay-on-B pairs: no divergence, the full log
    // consumed, and a byte-identical obs event stream.
    for (rec_name, log, obs, clock) in &recordings {
        for (rep_name, cfg) in engines() {
            let (div, cursor, rep_obs, rep_clock) =
                verify_micro(with(cfg), iters, Rc::clone(log));
            assert!(
                div.is_none(),
                "record {rec_name} → replay {rep_name}: diverged: {div:?}"
            );
            assert_eq!(
                cursor,
                log.len(),
                "record {rec_name} → replay {rep_name}: log not fully consumed"
            );
            assert_eq!(
                rep_obs, *obs,
                "record {rec_name} → replay {rep_name}: obs stream differs"
            );
            assert_eq!(
                rep_clock, *clock,
                "record {rec_name} → replay {rep_name}: clock differs"
            );
        }
    }
}

#[test]
fn record_replay_matrix_plain() {
    run_matrix(None);
}

#[test]
fn record_replay_matrix_under_fault_plan() {
    run_matrix(Some(plan()));
}

/// A perturbed log is pinned to the exact divergence coordinate: the
/// live verifier halts at the perturbed index with the record's retired
/// count.
#[test]
fn perturbed_log_bisects_to_exact_index() {
    let iters = 2_000;
    let (log, _, _) = record_micro(EngineConfig::new(), iters);
    // Perturb a mid-log syscall record's return value.
    let idx = log
        .iter()
        .enumerate()
        .filter(|(_, r)| matches!(r, Rec::Syscall { .. }))
        .map(|(i, _)| i)
        .nth(log.len() / 2)
        .unwrap_or(log.len() / 2);
    let mut bad = log.clone();
    let expect_retired = bad[idx].retired();
    if let Rec::Syscall { ret, .. } = &mut bad[idx] {
        *ret = ret.wrapping_add(1);
    } else {
        panic!("picked a non-syscall record");
    }
    let (div, cursor, _, _) = verify_micro(EngineConfig::stepwise(), iters, Rc::new(bad));
    let div = div.expect("verifier missed the perturbation");
    assert_eq!(div.index, idx, "verifier index");
    assert_eq!(div.retired, expect_retired, "verifier retired coordinate");
    assert_eq!(cursor, idx, "verifier cursor");
}

/// Architectural register state of `(pid, tid)` for comparison.
fn cpu_state(k: &mut Kernel) -> (u64, Vec<u64>, u64) {
    let pid = k.pids()[0];
    let tid = k
        .process(pid)
        .expect("proc")
        .threads
        .first()
        .expect("thread")
        .tid;
    let cpu = k.cpu_mut(pid, tid).expect("cpu");
    (cpu.rip, cpu.regs.to_vec(), k.clock)
}

/// Time travel by re-execution: verify replays of a micro recording
/// stopped at a target no record is keyed by (mid-loop, off any syscall
/// boundary) stop exactly there on both engines, stay stopped, and
/// reach the RIP, registers and clock of a recording run stopped at the
/// same target, whose log so far is the replayed prefix.
#[test]
fn navigation_seek_stops_at_the_target_on_every_engine() {
    let iters = 2_000;
    let (log, _, _) = record_micro(EngineConfig::new(), iters);
    let target = log[log.len() / 2].retired() + 1;
    assert!(
        log.iter().all(|r| r.retired() != target),
        "target is a record boundary"
    );
    let seek = |cfg: EngineConfig| {
        let mut k = boot_micro(iters);
        k.configure(cfg);
        k.stop_at_retired(target);
        for _ in 0..2 {
            assert_eq!(k.run(u64::MAX / 4), RunExit::Stop);
            assert_eq!(k.retired(), target);
        }
        let div = k.record_divergence();
        assert!(div.is_none(), "{div:?}");
        (cpu_state(&mut k), k)
    };
    let (recorded, mut k) = seek(EngineConfig::new().record());
    let prefix = k.take_recording();
    let log = Rc::new(log);
    for (name, cfg) in engines() {
        let (sought, k) = seek(cfg.replay_verify(Rc::clone(&log)));
        assert_eq!(sought.0, recorded.0, "{name}: rip differs after seek");
        assert_eq!(sought.1, recorded.1, "{name}: registers differ after seek");
        assert_eq!(sought.2, recorded.2, "{name}: clock differs after seek");
        assert_eq!(k.record_cursor(), prefix.len(), "{name}: records verified");
    }
    assert_eq!(prefix[..], log[..prefix.len()], "recorded prefix");
}
