//! Determinism regression: the block engine (run-until-event blocks plus
//! superblock promotion) must be instruction-for-instruction identical to
//! the retained per-step oracle (`EngineConfig::stepwise()`) — same rips,
//! same cycle stamps, same events, same scheduler interleaving — even for
//! a multi-core self-modifying-code guest that exercises every P5 icache
//! hazard the simulator models and every trace-unlink path (SMC stores
//! on trace pages, serialization points mid-replay, torn cross-core
//! writes).

use std::rc::Rc;

use k23_tests::{smc_guest, RwxLoader};
use sim_kernel::{EngineConfig, Kernel, RunExit, TraceEntry};
use sim_loader::boot_kernel;

fn engine_cfg(stepwise: bool) -> EngineConfig {
    if stepwise {
        EngineConfig::stepwise()
    } else {
        EngineConfig::new()
    }
}

/// Run the SMC guest under one engine, returning the full execution trace,
/// final clock, and exit status.
fn run_smc_on(cfg: EngineConfig) -> (Vec<TraceEntry>, u64, Option<i64>) {
    let (code, imm_addr) = smc_guest();
    let mut k = Kernel::new();
    k.configure(cfg);
    k.set_loader(Rc::new(RwxLoader(code)));
    let pid = k.spawn("/bin/smc", &[], &[], None).expect("spawn");
    // A deferred (torn) write to the same immediate exercises the
    // flush-due-writes path of both engines too.
    k.defer_write_u8(pid, imm_addr, 7, 40_000);
    k.start_exec_trace();
    let exit = k.run(1_000_000_000);
    assert_eq!(exit, RunExit::AllExited);
    let status = k.process(pid).expect("proc").exit_status;
    (k.take_exec_trace(), k.clock, status)
}

/// Compares one engine's SMC run against the stepwise oracle's.
fn assert_smc_matches_oracle(cfg: EngineConfig) {
    let (fast_trace, fast_clock, fast_status) = run_smc_on(cfg);
    let (ref_trace, ref_clock, ref_status) = run_smc_on(engine_cfg(true));
    // The guest must actually have run a nontrivial interleaving.
    assert!(ref_trace.len() > 5_000, "trace too short: {}", ref_trace.len());
    assert_eq!(fast_trace.len(), ref_trace.len());
    for (i, (f, r)) in fast_trace.iter().zip(ref_trace.iter()).enumerate() {
        assert_eq!(f, r, "trace diverges at step {i}: fast={f:?} ref={r:?}");
    }
    assert_eq!(fast_clock, ref_clock);
    assert_eq!(fast_status, ref_status);
    // The hazard must actually manifest: if no patch were ever observed the
    // accumulator would be 300 × 1 and the status 300 & 0x7f = 44.
    assert_ne!(fast_status, Some(44), "guest never observed a code patch");
}

/// The block engine's instruction-level trace (rip, cycle stamp, event,
/// thread) is bit-identical to the per-step oracle's on the SMC guest:
/// superblocks formed over self-modifying code are unlinked and
/// side-exited such that the stream matches the oracle's.
#[test]
fn block_engine_trace_matches_stepwise_oracle() {
    assert_smc_matches_oracle(engine_cfg(false));
}

/// A real application through the full loader stack behaves identically
/// under both engines: same output, same exit, same final clock.
#[test]
fn engines_agree_on_real_application() {
    let run = |cfg: EngineConfig| {
        let mut k = boot_kernel();
        k.configure(cfg);
        apps::install_world(&mut k.vfs);
        let pid = k
            .spawn("/usr/bin/ls-sim", &["/usr/bin/ls-sim".to_string()], &[], None)
            .expect("spawn");
        k.run(1_000_000_000_000);
        let p = k.process(pid).expect("proc");
        (p.output_string(), p.exit_status, k.clock, p.stats.syscalls)
    };
    let oracle = run(engine_cfg(true));
    assert_eq!(run(engine_cfg(false)), oracle, "block engine diverges");
}
