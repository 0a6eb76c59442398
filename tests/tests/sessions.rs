//! All four kernel sessions at once: a fault plan, the sampling profiler,
//! a recording and a coverage audit, live together on the fault probe
//! under zpoline. The plan mixes errno, signal and permission-flip
//! boundaries, so fault, sample and record stops interleave on the
//! kernel's one retired-instruction clock.
//!
//! 1. Across the stepwise, block and trace engines, the record log, the
//!    profiler sample stream, the audit ledger and `Kernel::retired` are
//!    identical.
//! 2. On each engine, the profile, record and audit sessions are
//!    invisible: clock, exit status and process statistics equal a run
//!    with the fault plan alone.

use interpose::Interposer;
use pitfalls::fault::{build_fault_probe, plan_for, run_probe, ProbeRun, Scenario, PROBE_PATH};
use proptest::prelude::*;
use sim_fault::FaultPlan;
use sim_kernel::{AuditLedger, EngineConfig, ProcStats};
use sim_loader::boot_kernel;
use sim_obs::{ObsConfig, ProfSample};
use sim_record::Rec;

/// The mechanism under test: it survives the signal scenario, so every
/// run reaches the probe's clean exit.
const MECH: &str = "zpoline";
const BUDGET: u64 = 500_000_000_000;
/// Profiler period, prime so samples drift against the plan's strides.
const PERIOD: u64 = 97;

/// What one probe run exposes. The session fields stay empty for a run
/// with the fault plan alone.
struct Run {
    clock: u64,
    exit: Option<i64>,
    stats: Option<ProcStats>,
    retired: u64,
    recs: Vec<Rec>,
    samples: Vec<ProfSample>,
    frames: Vec<String>,
    ledger: Option<AuditLedger>,
}

/// Errno, signal and permission-flip boundaries from the fault matrix's
/// generators, with the flips aimed at the probe's pages under `MECH`.
fn plan(seed: u64, baseline: &ProbeRun) -> FaultPlan {
    let mut plan = plan_for(Scenario::Errno, seed, baseline);
    plan.signal_window = plan_for(Scenario::Signal, seed, baseline).signal_window;
    plan.perm_flips = plan_for(Scenario::PermFlip, seed, baseline).perm_flips;
    plan
}

/// Runs the probe under `MECH` on `base` with `plan`, plus the profile,
/// record and audit sessions (and the obs recorder the samples land in)
/// when `sessions` is set.
fn run(base: EngineConfig, plan: &FaultPlan, sessions: bool) -> Run {
    pitfalls::register_all();
    let mut k = boot_kernel();
    build_fault_probe().install(&mut k.vfs);
    let ip: Box<dyn Interposer> = interpose::by_name_spec(MECH).expect("registered");
    let mut cfg = base.fault(plan.clone());
    if sessions {
        cfg = cfg.profile(PERIOD).record().audit(ip.coverage());
        sim_obs::clear_region_paths();
        sim_obs::clear_span_ranges();
        sim_obs::enable(ObsConfig::default());
    }
    k.configure(cfg);
    ip.install(&mut k);
    let pid = ip
        .spawn(&mut k, PROBE_PATH, &[PROBE_PATH.to_string()], &[])
        .expect("spawn");
    k.run(BUDGET);
    let (samples, frames) = sim_obs::disable()
        .map(|r| (r.samples, r.frame_names))
        .unwrap_or_default();
    let p = k.process(pid);
    Run {
        clock: k.clock,
        exit: p.and_then(|p| p.exit_status),
        stats: p.map(|p| p.stats.clone()),
        retired: k.retired(),
        recs: k.take_recording(),
        samples,
        frames,
        ledger: k.audit_ledger(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn four_sessions_agree_across_engines_and_stay_invisible(seed in any::<u64>()) {
        let plan = plan(seed, &run_probe(MECH, None));
        let mut oracle: Option<Run> = None;
        for (name, base) in [
            ("stepwise", EngineConfig::stepwise()),
            ("block", EngineConfig::new()),
            ("trace", EngineConfig::traced()),
        ] {
            let alone = run(base.clone(), &plan, false);
            let all = run(base, &plan, true);
            prop_assert_eq!(all.exit, Some(0), "{name}: probe did not exit cleanly");
            prop_assert_eq!(all.clock, alone.clock, "{name}: sessions moved the clock");
            prop_assert_eq!(all.exit, alone.exit, "{name}: sessions changed the exit");
            prop_assert!(all.stats == alone.stats, "{name}: sessions changed ProcStats");
            prop_assert_eq!(all.retired, alone.retired, "{name}: sessions moved the retired clock");
            match &oracle {
                None => {
                    // The run must exercise every session, or agreement
                    // would hold vacuously.
                    let has = |f: fn(&Rec) -> bool| all.recs.iter().any(f);
                    prop_assert!(has(|r| matches!(r, Rec::Signal { delivered: true, .. })), "no signal delivered");
                    prop_assert!(has(|r| matches!(r, Rec::Flip { restore: false, .. })), "no permission flip");
                    prop_assert!(has(|r| matches!(r, Rec::Syscall { .. })), "no syscall recorded");
                    prop_assert!(!all.samples.is_empty(), "no profiler sample");
                    prop_assert!(all.ledger.as_ref().is_some_and(|l| l.totals().total() > 0), "empty audit ledger");
                    oracle = Some(all);
                }
                Some(o) => {
                    prop_assert!(all.recs == o.recs, "{name}: record log diverges from stepwise");
                    prop_assert!(
                        all.samples == o.samples && all.frames == o.frames,
                        "{name}: profiler samples diverge from stepwise"
                    );
                    prop_assert!(all.ledger == o.ledger, "{name}: audit ledger diverges from stepwise");
                    prop_assert_eq!(all.retired, o.retired, "{name}: retired clock diverges from stepwise");
                    prop_assert_eq!(all.clock, o.clock, "{name}: clock diverges from stepwise");
                }
            }
        }
    }
}
