//! simprof integration: the sampling profiler is deterministic (folded
//! stacks and the stage table are byte-identical across consecutive runs
//! and across the block/stepwise engines, DESIGN.md §9) and invisible
//! (enabling it never changes the guest's clock stream).
//!
//! Like `observability.rs`, these tests mutate the thread-local `sim-obs`
//! state, which is safe under the multi-threaded harness because each
//! test drives its own simulated machine on its own host thread.

use apps::MacroSpec;
use interpose::Interposer;
use sim_kernel::{EngineConfig, RunExit};
use sim_loader::boot_kernel;
use sim_obs::ObsConfig;

const APP: &str = "/usr/bin/ls-sim";
const BUDGET: u64 = u64::MAX / 4;
const PERIOD: u64 = 64;

fn make(name: &str) -> (Box<dyn Interposer>, bool) {
    pitfalls::register_all();
    let ip = interpose::by_name_spec(name).expect("known interposer");
    (ip, k23::needs_offline(name))
}

fn engine_cfg(stepwise: bool, profile: bool) -> EngineConfig {
    let cfg = if stepwise {
        EngineConfig::stepwise()
    } else {
        EngineConfig::new()
    };
    if profile {
        cfg.profile(PERIOD)
    } else {
        cfg
    }
}

/// `(folded stacks, stage table, sample count)` when observed.
type Profile = Option<(String, String, u64)>;

/// Runs the coreutil under one mechanism/engine; returns the profile (if
/// observing) and the online-phase clock.
fn run_coreutil(name: &str, stepwise: bool, profile: bool, observe: bool) -> (Profile, u64) {
    let (ip, needs_offline) = make(name);
    let mut k = boot_kernel();
    apps::install_world(&mut k.vfs);
    let argv = vec![APP.to_string()];
    if needs_offline {
        bench::cli::collect_log(&mut k, APP, |k, ip| {
            bench::cli::run_to_exit(k, ip, APP, &argv, BUDGET)
        })
        .expect("offline phase");
    }
    k.configure(engine_cfg(stepwise, profile));
    if observe {
        sim_obs::enable(ObsConfig {
            micro_events: false,
            ..ObsConfig::default()
        });
    }
    ip.install(&mut k);
    let pid = ip.spawn(&mut k, APP, &argv, &[]).expect("spawn");
    let t0 = k.clock;
    let exit = k.run(BUDGET);
    let rec = sim_obs::disable();
    assert_eq!(exit, RunExit::AllExited);
    assert_eq!(k.process(pid).and_then(|p| p.exit_status), Some(0));
    let out = rec.map(|r| (r.folded_stacks(), r.stage_table(), r.samples.len() as u64));
    (out, k.clock - t0)
}

/// Runs the smallest Table 6 server spec under one mechanism/engine,
/// profiled and observed. K23's offline log is transplanted, as the
/// bench harness does (logs are collected once per application, §5.1).
fn run_server(
    name: &str,
    stepwise: bool,
    spec: &MacroSpec,
    offline_log: &Option<(String, Vec<u8>)>,
) -> (String, String, u64) {
    let (ip, needs_offline) = make(name);
    let mut k = boot_kernel();
    apps::install_world(&mut k.vfs);
    if needs_offline {
        let log = offline_log.as_ref().expect("offline log collected");
        bench::cli::install_log(&mut k, Some(log));
    }
    k.configure(engine_cfg(stepwise, true));
    sim_obs::enable(ObsConfig {
        micro_events: false,
        ..ObsConfig::default()
    });
    let res = apps::run_macro(&mut k, ip.as_ref(), spec, BUDGET);
    let rec = sim_obs::disable().expect("recorder");
    res.unwrap_or_else(|e| panic!("{} under {name}: {e:?}", spec.name));
    (
        rec.folded_stacks(),
        rec.stage_table(),
        rec.samples.len() as u64,
    )
}

/// Satellite (d), coreutil half: double-run and cross-engine byte
/// equality of the folded stacks and stage table under K23 and ptrace.
#[test]
fn coreutil_profiles_identical_across_runs_and_engines() {
    for name in ["k23", "ptrace"] {
        let (a, _) = run_coreutil(name, false, true, true);
        let (b, _) = run_coreutil(name, false, true, true);
        let (c, _) = run_coreutil(name, true, true, true);
        let (a, b, c) = (a.expect("profile"), b.expect("profile"), c.expect("profile"));
        assert!(a.2 > 0, "{name}: no samples captured");
        assert_eq!(a, b, "{name}: consecutive block-engine runs differ");
        assert_eq!(a, c, "{name}: block and stepwise profiles differ");
    }
}

/// Satellite (d), server half: same byte-identity contract on a
/// client/server macro workload.
#[test]
fn server_profiles_identical_across_runs_and_engines() {
    let spec = apps::table6_specs(200).remove(0);
    for name in ["k23", "ptrace"] {
        let offline = if k23::needs_offline(name) {
            Some(bench::macros_::collect_offline_log(&spec))
        } else {
            None
        };
        let a = run_server(name, false, &spec, &offline);
        let b = run_server(name, false, &spec, &offline);
        let c = run_server(name, true, &spec, &offline);
        assert!(a.2 > 0, "{name}: no samples captured");
        assert_eq!(a, b, "{name}: consecutive block-engine runs differ");
        assert_eq!(a, c, "{name}: block and stepwise profiles differ");
    }
}

/// Sampling is architectural and read-only: configuring the profiler —
/// with or without an active recorder — leaves the guest's clock stream
/// untouched, under both engines. (The block engine's budgets are capped
/// at sample boundaries, so this also pins that block splitting never
/// changes charged cycles.)
#[test]
fn sampling_is_invisible_to_the_guest() {
    for stepwise in [false, true] {
        let (_, plain) = run_coreutil("zpoline", stepwise, false, false);
        let (_, prof_only) = run_coreutil("zpoline", stepwise, true, false);
        let (out, prof_obs) = run_coreutil("zpoline", stepwise, true, true);
        assert_eq!(plain, prof_only, "profiler session alone changed the clock");
        assert_eq!(plain, prof_obs, "sampling + recording changed the clock");
        assert!(out.expect("profile").2 > 0, "samples captured");
    }
}
