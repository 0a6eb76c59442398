//! Interposer-stack integration: a single passthrough layer is
//! observationally invisible (byte-identical event streams and outcomes
//! across engines), the composed fault matrix verdicts are pinned — with
//! the nested-sigreturn failure demonstrably composition-only — and the
//! per-layer fork/execve propagation counts are exact; the default sweep
//! renders the committed `MATRIX_simstack.txt`.

use k23_tests::assert_pinned;
use pitfalls::fault::{plan_for, run_probe, run_probe_on, ProbeRun, Scenario};
use pitfalls::stack::{
    full_stack_matrix, probe_propagation, render_propagation, render_stack_matrix, StackCell,
};
use proptest::prelude::*;
use sim_fault::FaultPlan;
use sim_kernel::EngineConfig;
use sim_obs::ObsConfig;
use std::sync::OnceLock;

/// Runs the fault probe under `spec`, traced, on the chosen engine.
fn traced(spec: &str, plan: Option<&FaultPlan>, cfg: EngineConfig) -> (String, ProbeRun) {
    sim_obs::enable(ObsConfig::default());
    let run = run_probe_on(spec, plan, cfg);
    let rec = sim_obs::disable().expect("recorder");
    (rec.chrome_trace_json(), run)
}

proptest! {
    /// A stack of exactly one `passthrough` layer (zero overhead, no
    /// span) is byte-identical to the bare mechanism — same obs event
    /// stream, exit, output, and final clock — on the stepwise oracle
    /// and the block engine, with and without an injected fault plan.
    #[test]
    fn passthrough_stack_is_invisible(seed in any::<u64>(), mech_idx in 0usize..2, faulted in any::<bool>()) {
        let mech = ["zpoline", "sud"][mech_idx];
        let spec = format!("{mech}+passthrough");
        let plan = if faulted {
            let baseline = run_probe(mech, None);
            Some(plan_for(Scenario::Errno, seed, &baseline))
        } else {
            None
        };
        for cfg in [EngineConfig::stepwise(), EngineConfig::new()] {
            let (bare_json, bare_run) = traced(mech, plan.as_ref(), cfg.clone());
            let (stack_json, stack_run) = traced(&spec, plan.as_ref(), cfg);
            prop_assert_eq!(&bare_run, &stack_run, "{}: outcomes diverge", mech);
            prop_assert_eq!(&bare_json, &stack_json, "{}: event streams diverge", mech);
        }
    }
}

/// The composed matrix verdicts at the default seed are pinned: the
/// signal scenario kills exactly the naive-recorder stacks plus the
/// stacks whose *base* already dies under it, and only the recorder
/// failures are composition-only.
#[test]
fn stack_matrix_verdicts_are_pinned() {
    for c in default_sweep() {
        let expect_fail = c.scenario == Scenario::Signal
            && matches!(
                c.spec,
                "zpoline+recorder" | "ptrace+recorder" | "k23+tracer" | "sud+sandbox"
            );
        assert_eq!(
            c.survived, !expect_fail,
            "{} × {:?}: got survived={}",
            c.spec, c.scenario, c.survived
        );
        // The recorder deaths are composition-only (bare zpoline and
        // bare ptrace survive the same signal plan); the k23/sud deaths
        // are inherited from the base mechanism.
        assert_eq!(
            c.composition_only(),
            matches!(c.spec, "zpoline+recorder" | "ptrace+recorder")
                && c.scenario == Scenario::Signal,
            "{} × {:?}: composition_only miscomputed",
            c.spec,
            c.scenario
        );
    }
}

/// The composed matrix at the default seed, swept once per test process
/// and shared by the verdict pin and the byte pin.
fn default_sweep() -> &'static [StackCell] {
    static CELLS: OnceLock<Vec<StackCell>> = OnceLock::new();
    CELLS.get_or_init(|| full_stack_matrix(7))
}

/// The default `simstack` sweep (matrix, blank line, propagation report)
/// renders exactly the committed `MATRIX_simstack.txt`; a byte pin also
/// holds the sweep to the `simstack` double-run determinism contract.
#[test]
fn default_sweep_matches_the_committed_matrix() {
    let fresh = format!(
        "{}\n{}",
        render_stack_matrix(7, default_sweep()),
        render_propagation()
    );
    assert_pinned(
        &fresh,
        include_str!("../../MATRIX_simstack.txt"),
        "MATRIX_simstack.txt",
        "cargo run --release -p bench --bin simstack > MATRIX_simstack.txt",
    );
}

/// The nested-sigreturn hazard cell replays identically on the block
/// engine and the stepwise oracle — including the deterministic SIGSEGV
/// death (exit 139).
#[test]
fn hazard_cell_is_identical_across_engines() {
    let baseline = run_probe("zpoline+recorder", None);
    let plan = plan_for(Scenario::Signal, 7, &baseline);
    let block = run_probe_on("zpoline+recorder", Some(&plan), EngineConfig::new());
    let stepwise = run_probe_on("zpoline+recorder", Some(&plan), EngineConfig::stepwise());
    assert_eq!(block, stepwise);
    assert_eq!(block.exit, Some(139), "modeled hazard is a SIGSEGV kill");
    // The same plan through the safe recorder survives on all engines.
    let safe_base = run_probe("zpoline+tracer+recorder-safe", None);
    let safe_plan = plan_for(Scenario::Signal, 7, &safe_base);
    let safe = run_probe("zpoline+tracer+recorder-safe", Some(&safe_plan));
    assert_eq!(safe.exit, safe_base.exit);
    assert_eq!(safe.output, safe_base.output);
}

/// Per-layer fork/execve propagation, measured on the P1a parent/victim
/// pair: a tracer follows a K23-covered victim across the env-clearing
/// exec (all 10 marker syscalls chained), a recorder stops at the exec
/// boundary (its one victim-pid entry is the pre-exec `execve` itself),
/// and under zpoline the base loses its handler library so the whole
/// chain goes inert in the victim.
#[test]
fn propagation_counts_are_exact() {
    let cases = [
        ("k23+tracer", 3, 10, 0),
        ("k23+tracer+recorder", 3, 10, 1),
        ("zpoline+tracer", 3, 0, 0),
        ("zpoline+recorder", 0, 0, 1),
    ];
    for (spec, parent_traced, victim_traced, victim_recorded) in cases {
        let p = probe_propagation(spec);
        assert_eq!(
            (p.parent_traced, p.victim_traced, p.victim_recorded),
            (parent_traced, victim_traced, victim_recorded),
            "{spec}: propagation counts drifted"
        );
    }
}

/// Layers with spans enabled attribute their wrapper time: a traced run
/// under `sud+tracer` carries `stack/tracer` span events; the bare
/// mechanism's stream has none.
#[test]
fn stack_layers_emit_spans() {
    let (stack_json, _) = traced("sud+tracer", None, EngineConfig::new());
    assert!(
        stack_json.contains("stack/tracer"),
        "composed run should emit per-layer spans"
    );
    let (bare_json, _) = traced("sud", None, EngineConfig::new());
    assert!(!bare_json.contains("stack/"));
}

/// The audit ledger's per-layer accounting mirrors the propagation
/// probes exactly: under `k23+tracer+recorder` the P1a victim keeps the
/// tracer (exec propagation on) but sheds the recorder (exec propagation
/// off), so after its single pre-exec chained syscall the victim's
/// `layer_hits` accrue to the tracer alone — while the parent, which
/// never exec'd, chains through both layers. The exec event itself lands
/// in the ledger's `note_exec` path: K23 re-attaches, so the victim
/// shows no `P1a-exec` bypasses despite the env-cleared image.
#[test]
fn audit_ledger_tracks_per_layer_propagation_masks() {
    use interpose::{Interposer, InterposerStack};
    use sim_kernel::Signature;

    pitfalls::register_all();
    let stack = InterposerStack::from_spec("k23+tracer+recorder").expect("composed spec");
    let mut k = sim_loader::boot_kernel();
    pitfalls::install_pocs(&mut k.vfs);
    let session = k23::OfflineSession::new(&mut k, "/usr/bin/p1a-parent");
    let _ = session.run_once(
        &mut k,
        &["/usr/bin/p1a-parent".to_string()],
        &[],
        u64::MAX / 4,
    );
    session.finish(&mut k);
    k.configure(EngineConfig::new().audit(stack.coverage()));
    stack.install(&mut k);
    let parent = stack
        .spawn(
            &mut k,
            "/usr/bin/p1a-parent",
            &["/usr/bin/p1a-parent".to_string()],
            &[],
        )
        .expect("spawn p1a-parent");
    k.run(u64::MAX / 4);
    let ledger = k.audit_ledger().expect("audit configured");
    // The offline phase ran an unaudited parent/victim pair before the
    // session was configured; pick the victim the ledger actually saw.
    let victim = k
        .pids()
        .into_iter()
        .find(|pid| {
            ledger.per_proc.contains_key(pid)
                && k.process(*pid)
                    .is_some_and(|p| p.exe == "/usr/bin/p1-victim")
        })
        .expect("audited exec'd victim present");

    let pa = &ledger.per_proc[&parent];
    assert!(pa.chained > 0, "parent syscalls chain through the stack");
    assert_eq!(pa.layer_hits["tracer"], pa.chained);
    assert_eq!(pa.layer_hits["recorder"], pa.chained);

    let va = &ledger.per_proc[&victim];
    assert!(
        va.layer_hits["tracer"] >= 10,
        "tracer follows the exec (saw {})",
        va.layer_hits["tracer"]
    );
    assert_eq!(
        va.layer_hits["tracer"], va.chained,
        "the tracer participates in every chained victim syscall"
    );
    assert_eq!(
        va.layer_hits["recorder"], 1,
        "the recorder sees only the victim's single pre-exec chained \
         syscall; the exec mask strips it afterwards"
    );
    assert_eq!(
        va.bypassed_by(Signature::ExecGap),
        0,
        "the K23 base follows the exec, so no P1a shadow"
    );
    assert_eq!(va.coverage_permille(), 1000);
}

/// `interposed_count` must not double-count syscalls when two entries of
/// the symbol list resolve to the same forwarding site (two layers — or
/// aliases — sharing one symbol).
#[test]
fn interposed_count_dedupes_shared_sites() {
    pitfalls::register_all();
    let mut k = sim_loader::boot_kernel();
    pitfalls::fault::build_fault_probe().install(&mut k.vfs);
    let ip = interpose::by_name_spec("sud").expect("registered");
    ip.install(&mut k);
    let pid = ip
        .spawn(
            &mut k,
            pitfalls::fault::PROBE_PATH,
            &[pitfalls::fault::PROBE_PATH.to_string()],
            &[],
        )
        .expect("spawns");
    k.run(u64::MAX / 4);
    let syms = ip.forward_symbols();
    let once = interpose::count_at_symbols(&k, pid, &syms);
    assert!(once > 0, "probe syscalls are interposed under SUD");
    let mut doubled = syms.clone();
    doubled.extend(syms.iter().cloned());
    assert_eq!(once, interpose::count_at_symbols(&k, pid, &doubled));
    assert_eq!(once, ip.interposed_count(&k, pid));
}
