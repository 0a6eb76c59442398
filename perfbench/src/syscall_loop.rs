//! `syscall-loop`: the Table 5 stress guest (`mov rax, 500; syscall`)
//! under K23-default after its offline phase, on the trace engine, with
//! every kernel session off — the interposed hot path (rewritten site →
//! trampoline → handler → kernel fast path).

use crate::clock::CpuTimer;
use crate::span::{self, Span, Tracer};
use crate::{fnv1a, fold, obs_counts, Ctx, Rep};
use bench::micro::{build_micro_app, MICRO_APP, MICRO_CFG};
use bench::Config;
use k23::OfflineSession;
use sim_kernel::{EngineConfig, Kernel, Pid, RunExit};
use sim_loader::{boot_kernel, boot_kernel_from};
use sim_obs::ObsConfig;
use std::collections::BTreeMap;
use std::time::Instant;

/// Iterations of the offline phase's representative run (as Table 5's).
const OFFLINE_ITERATIONS: u64 = 64;

/// The measured process's counts as a function of the iteration count n:
/// n + 83 syscalls (the loop plus start-up and the config read), no
/// SIGSYS fallback, and 535 n + 3974 retired instructions. The guest
/// image and K23 fix them, whatever the ASLR slide.
const EXTRA_SYSCALLS: u64 = 83;
const SIGSYS: u64 = 0;
const RETIRED_PER_ITERATION: u64 = 535;
const RETIRED_FIXED: u64 = 3_974;

/// Kernel-RNG draws made before spawn: the seed's only effect, a
/// different ASLR slide for the measured process.
fn aslr_draws(seed: u64) -> u64 {
    sim_fault::Rng::new(seed).below(1024)
}

/// Totals over one process's threads.
fn proc_totals(k: &Kernel, pid: Pid) -> (u64, u64, u64, u64, u64) {
    let p = k.process(pid).expect("measured process exists");
    let retired = p.threads.iter().map(|t| t.cpu.retired).sum();
    (
        retired,
        p.stats.syscalls,
        p.stats.sigsys_count,
        p.stats.signals,
        p.stats.vdso_calls,
    )
}

/// The stress guest's world and a kernel booted from it, with the
/// offline phase done and the interposer installed and spawned.
fn setup(ctx: &Ctx, tr: &mut Tracer, rep: &mut Rep) -> (Kernel, Pid, usize) {
    let t = CpuTimer::start();
    let open = tr.enter("setup", "syscall-loop");
    let world = tr.span("loader.world", "micro", || {
        let mut w = boot_kernel();
        build_micro_app().install(&mut w.vfs);
        w.vfs
    });
    let mut k = tr.span("loader.boot", "micro", || boot_kernel_from(&world));
    k.configure(EngineConfig::traced());
    let sites = tr.span("k23.offline", MICRO_APP, || {
        k.vfs
            .write_file(MICRO_CFG, &OFFLINE_ITERATIONS.to_le_bytes())
            .expect("offline cfg");
        let session = OfflineSession::new(&mut k, MICRO_APP);
        let (_pid, exit) = session
            .run_once(&mut k, &[], &[], 10_000_000_000)
            .expect("offline run");
        assert_eq!(exit, RunExit::AllExited, "offline phase completed");
        session.finish(&mut k).len()
    });
    k.vfs
        .write_file(MICRO_CFG, &ctx.sizes.loop_iterations.to_le_bytes())
        .expect("cfg");
    for _ in 0..aslr_draws(ctx.seed) {
        k.next_random();
    }
    let ip = Config::K23Default.make();
    tr.span("interpose.install", "install k23", || ip.install(&mut k));
    let pid = tr
        .span("interpose.install", "spawn microbench", || {
            ip.spawn(&mut k, MICRO_APP, &[], &[])
        })
        .expect("spawn microbench");
    tr.exit(open);
    rep.setup_s.push(t.secs());
    (k, pid, sites)
}

/// One repetition: set up, run the loop to completion, check the counts.
pub fn rep(ctx: &mut Ctx, tr: &mut Tracer) -> Rep {
    let mut rep = Rep {
        ops: 1,
        ..Rep::default()
    };
    let n = ctx.sizes.loop_iterations;
    let (mut k, pid, sites) = setup(ctx, tr, &mut rep);
    let t = CpuTimer::start();
    let exit = tr.span("kernel.run", "loop", || k.run(n * 2_000 + 2_000_000_000));
    rep.sim_s = t.secs();

    let (retired, syscalls, sigsys, signals, vdso) = proc_totals(&k, pid);
    let p = k.process(pid).expect("measured process exists");
    let status = p.exit_status;
    rep.check(exit == RunExit::AllExited, || {
        format!("run ended {exit:?}, not AllExited")
    });
    rep.check(status == Some(0), || format!("guest exited {status:?}"));
    rep.check(syscalls == n + EXTRA_SYSCALLS, || {
        format!("{syscalls} syscalls, expected {}", n + EXTRA_SYSCALLS)
    });
    rep.check(sigsys == SIGSYS, || {
        format!("{sigsys} SIGSYS, expected {SIGSYS}")
    });
    let want = RETIRED_PER_ITERATION * n + RETIRED_FIXED;
    rep.check(retired == want, || {
        format!("{retired} retired instructions, expected {want}")
    });
    let tid = p.threads[0].tid;
    let mut trace_forms = 0u64;
    let mut trace_entries = 0u64;
    let mut side_exits = 0u64;
    for t in &p.threads {
        for s in t.cpu.trace_stats() {
            trace_forms += 1;
            trace_entries += s.enters;
            side_exits += s.side_exits;
        }
    }
    let mut d = fold(
        0,
        &[
            retired,
            syscalls,
            sigsys,
            signals,
            vdso,
            k.clock,
            k.cycles_of(pid, tid),
        ],
    );
    d = fold(d, &[status.map_or(u64::MAX, |s| s as u64), sites as u64]);
    rep.digest = fnv1a(d, &p.output);
    rep.retired = retired;
    rep.syscalls = syscalls;
    rep.counts = BTreeMap::from([
        ("k23.offline_sites", sites as f64),
        ("interpose.sigsys", sigsys as f64),
        ("kernel.syscalls", syscalls as f64),
        ("kernel.signals", signals as f64),
        ("kernel.sim_cycles", k.clock as f64),
        ("cpu.retired", retired as f64),
        ("cpu.trace_forms", trace_forms as f64),
        ("cpu.trace_entries", trace_entries as f64),
        (
            "cpu.trace_side_exit_ratio",
            if trace_entries > 0 {
                side_exits as f64 / trace_entries as f64
            } else {
                0.0
            },
        ),
    ]);
    rep
}

/// Obs-only counters: one more repetition with sim-obs on. Enabling it
/// turns off the kernel's single-process hot loop, so this pass supplies
/// counts and the obs overhead ratio but no layer times.
pub fn extras(ctx: &mut Ctx, traced: &Rep, spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut scratch = Rep::default();
    let mut off = Tracer::new(false);
    let (mut k, pid, _) = setup(ctx, &mut off, &mut scratch);
    sim_obs::enable(ObsConfig {
        ring_capacity: 1 << 12,
        micro_events: false,
        audit_events: false,
    });
    let t = Instant::now();
    let exit = k.run(ctx.sizes.loop_iterations * 2_000 + 2_000_000_000);
    let obs_run_s = t.elapsed().as_secs_f64();
    let rec = sim_obs::disable().expect("recorder active");
    assert_eq!(exit, RunExit::AllExited, "obs pass completed");
    let (retired, ..) = proc_totals(&k, pid);
    assert_eq!(
        retired, traced.retired,
        "sim-obs must not change the guest's work"
    );
    let mut m = obs_counts(&rec);
    m.insert(
        "obs.overhead_ratio",
        obs_run_s / span::total(spans, "kernel.run"),
    );
    m
}
