//! sim-fault integration: the same seeded [`FaultPlan`] is architectural —
//! both engines observe every injection at the identical instruction and
//! emit byte-identical event streams; a zero-fault plan is invisible to the
//! guest; and the fault-resilience matrix verdicts are pinned, as is its
//! rendering, the committed `MATRIX_simfault.txt`.

use k23_tests::assert_pinned;
use pitfalls::fault::{
    build_fault_probe, full_fault_matrix, plan_for, render_fault_matrix, run_probe, run_probe_on,
    Scenario, MECHANISMS, PROBE_PATH,
};
use proptest::prelude::*;
use sim_fault::FaultPlan;
use sim_kernel::EngineConfig;
use sim_obs::ObsConfig;

/// A plan combining every injection family, derived from the per-scenario
/// generators so it stays in step with the matrix.
fn combined_plan(seed: u64) -> FaultPlan {
    let baseline = run_probe("native", None);
    let mut plan = plan_for(Scenario::Errno, seed, &baseline);
    plan.signal_window = plan_for(Scenario::Signal, seed, &baseline).signal_window;
    plan.sched = plan_for(Scenario::Sched, seed, &baseline).sched;
    plan.perm_flips = plan_for(Scenario::PermFlip, seed, &baseline).perm_flips;
    plan
}

/// Runs the probe under `mech` with the plan, traced; returns the
/// architectural event stream plus the guest-visible outcome.
fn traced(mech: &str, plan: &FaultPlan, stepwise: bool) -> (String, Option<i64>, Vec<u8>, u64) {
    let base = if stepwise {
        EngineConfig::stepwise()
    } else {
        EngineConfig::new()
    };
    sim_obs::enable(ObsConfig::default());
    let run = run_probe_on(mech, Some(plan), base);
    let rec = sim_obs::disable().expect("recorder");
    (rec.chrome_trace_json(), run.exit, run.output, run.clock)
}

/// Same seed, same plan ⇒ byte-identical observability event streams under
/// the block engine and the stepwise oracle, for a plan that exercises
/// every injection family at once.
#[test]
fn same_seed_plan_streams_identical_across_engines() {
    let plan = combined_plan(7);
    for mech in ["zpoline", "sud"] {
        let (fast_json, fast_exit, fast_out, fast_clock) = traced(mech, &plan, false);
        let (ref_json, ref_exit, ref_out, ref_clock) = traced(mech, &plan, true);
        assert_eq!(fast_exit, ref_exit, "{mech}: exits diverge");
        assert_eq!(fast_out, ref_out, "{mech}: outputs diverge");
        assert_eq!(fast_clock, ref_clock, "{mech}: clocks diverge");
        assert_eq!(fast_json, ref_json, "{mech}: event streams diverge");
        assert!(
            fast_json.contains("fault-"),
            "{mech}: no injection event recorded — the plan never fired"
        );
    }
}

/// The same cell replayed from its encoded plan reproduces the identical
/// outcome — the one-command replay contract of `simfault`.
#[test]
fn encoded_plan_replays_identically() {
    let plan = combined_plan(7);
    let decoded = FaultPlan::decode(&plan.encode()).expect("round-trips");
    let a = run_probe("lazypoline", Some(&plan));
    let b = run_probe("lazypoline", Some(&decoded));
    assert_eq!(a, b);
}

proptest! {
    /// A zero-fault plan (any seed) is invisible: exit status, output, and
    /// final clock all match the no-plan run, under every mechanism.
    #[test]
    fn zero_fault_plan_is_guest_invisible(seed in any::<u64>(), mech_idx in 0usize..MECHANISMS.len()) {
        let mech = MECHANISMS[mech_idx];
        let plain = run_probe(mech, None);
        let zero = run_probe(mech, Some(&FaultPlan::zero(seed)));
        prop_assert_eq!(plain, zero);
    }
}

/// The fault-resilience matrix verdicts at the default seed, pinned.
///
/// The signal row is the load-bearing one: an asynchronous signal whose
/// handler issues `rt_sigreturn` is fatal under pure-SIGSYS interposition
/// (the emulated sigreturn pops the *interposer's* frame, not the
/// application's), while ptrace and binary rewriting forward it natively.
/// lazypoline dies on the first not-yet-rewritten handler site and K23's
/// offline phase never observes handler-only sites, so both inherit the
/// SUD fallback hazard. The same sweep renders exactly the committed
/// `MATRIX_simfault.txt`, the default `simfault` output.
#[test]
fn fault_matrix_verdicts_are_pinned() {
    let expected = |mech: &str, scenario: Scenario| match scenario {
        Scenario::Errno | Scenario::Sched | Scenario::PermFlip => true,
        Scenario::Signal => matches!(mech, "ptrace" | "zpoline"),
    };
    let cells = full_fault_matrix(7);
    for cell in &cells {
        assert_eq!(cell.baseline_exit, Some(0), "{}: baseline must be clean", cell.spec);
        assert_eq!(
            cell.survived,
            expected(cell.spec, cell.scenario),
            "{} × {:?} flipped (replay: simfault --replay {} '{}')",
            cell.spec,
            cell.scenario,
            cell.spec,
            cell.plan.encode()
        );
    }
    assert_pinned(
        &render_fault_matrix(7, &cells),
        include_str!("../../MATRIX_simfault.txt"),
        "MATRIX_simfault.txt",
        "cargo run --release -p bench --bin simfault > MATRIX_simfault.txt",
    );
}

/// The probe image itself stays well-formed: entry symbol present and the
/// data objects land on the expected page.
#[test]
fn probe_image_exposes_symbols() {
    let img = build_fault_probe();
    assert_eq!(img.name, PROBE_PATH);
    assert!(img.symbols.contains_key("main"));
    assert!(img.symbols.contains_key("msg"));
    assert!(img.symbols.contains_key("sig_count"));
}
