//! Record/replay (DESIGN.md §11).
//!
//! 1. The full engine matrix: a run recorded on any engine replays with
//!    byte-identical logs and sim-obs event streams on any other engine
//!    (9 record×replay pairs, with and without a fault plan).
//! 2. Divergence bisection: an artificially perturbed log is pinned to
//!    the exact record index and retired-instruction coordinate, both by
//!    the live verifier and by the offline prefix-digest bisection.
//! 3. Time-travel navigation: seeking to a retired-instruction target
//!    from a restored checkpoint reproduces the architectural state of a
//!    replay from the start.

use std::rc::Rc;

use bench::micro::{build_micro_app, MICRO_APP, MICRO_CFG};
use interpose::{Interposer, Native};
use sim_fault::{FaultKind, FaultPlan, SyscallFault};
use sim_kernel::{nr, EngineConfig, Kernel, RunExit};
use sim_loader::boot_kernel;
use sim_record::{first_divergence, obs_lines, Rec};

/// The three engine configurations, oracle first.
fn engines() -> [(&'static str, EngineConfig); 3] {
    [
        ("stepwise", EngineConfig::stepwise()),
        ("block", EngineConfig::new()),
        ("trace", EngineConfig::traced()),
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
    build_micro_app().install(&mut k.vfs);
    k.vfs
        .write_file(MICRO_CFG, &iters.to_le_bytes())
        .expect("cfg");
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

/// Runs the 3×3 record×replay matrix for one optional fault plan.
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
    // All 9 record-on-A / replay-on-B pairs: no divergence, the full log
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
/// count, and the offline prefix-digest bisection lands on the same
/// index in O(log n) probes.
#[test]
fn perturbed_log_bisects_to_exact_index() {
    let iters = 2_000;
    let (log, _, _) = record_micro(EngineConfig::traced(), iters);
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
    // Offline bisection between the pristine and perturbed logs.
    let div = first_divergence(&log, &bad).expect("bisection found nothing");
    assert_eq!(div.index, idx, "bisection index");
    assert_eq!(div.retired, expect_retired, "bisection retired coordinate");
    assert!(div.probes <= 16, "bisection probes: {}", div.probes);
    // Live verification against the perturbed log halts at the same
    // record with the same retired-instruction coordinate.
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

/// Time travel: a navigation-grade recording's checkpoint chain seeds a
/// seek that reproduces the register file, RIP, clock, and retired count
/// of an inject replay from the start.
#[test]
fn navigation_seek_matches_replay_from_start() {
    let iters = 2_000;
    // Navigation-grade record (block engine): checkpoints + page writes.
    let (log, ckpts, total) = {
        let mut k = boot_micro(iters);
        k.configure(EngineConfig::new().record_with_checkpoints(2_000));
        let exit = k.run(u64::MAX / 4);
        assert_eq!(exit, RunExit::AllExited);
        assert!(k.record_chain_ok(), "single-process run must keep the chain");
        (
            Rc::new(k.take_recording()),
            k.take_checkpoints(),
            k.retired(),
        )
    };
    assert!(
        ckpts.len() >= 2,
        "expected ≥ 2 checkpoints over {total} retired instructions"
    );
    // Seek past the second checkpoint, not on a checkpoint boundary.
    let target = ckpts[1].retired + 123;
    assert!(target < total);
    // Reference: inject replay from the start (stepwise engine).
    let reference = {
        let mut k = boot_micro(iters);
        k.configure(EngineConfig::stepwise().replay_inject(Rc::clone(&log)));
        let exit = k.run_to_retired(target, u64::MAX / 4);
        assert_eq!(exit, RunExit::Stop);
        assert_eq!(k.retired(), target);
        cpu_state(&mut k)
    };
    // Seek: restore the nearest checkpoint at or below the target, then
    // inject-replay the remainder (block engine — cross-engine on top).
    let sought = {
        let mut k = boot_micro(iters);
        k.configure(EngineConfig::new().replay_inject(Rc::clone(&log)));
        let at = ckpts
            .iter()
            .rposition(|c| c.retired <= target)
            .expect("no checkpoint below target");
        k.restore_to_checkpoint(&ckpts, at).expect("restore");
        assert_eq!(k.retired(), ckpts[at].retired);
        let exit = k.run_to_retired(target, u64::MAX / 4);
        assert_eq!(exit, RunExit::Stop);
        assert_eq!(k.retired(), target);
        cpu_state(&mut k)
    };
    assert_eq!(sought.0, reference.0, "rip differs after seek");
    assert_eq!(sought.1, reference.1, "registers differ after seek");
    assert_eq!(sought.2, reference.2, "clock differs after seek");
}
