//! Audit-ledger integration: the kernel's coverage ledger classifies the
//! known shadows with the right pitfall signatures (exec gaps → P1a, SUD
//! disarm → P1b, vDSO reads attributed only to mechanisms that leave the
//! vDSO in place), is byte-identical across both engines, renders
//! the committed `MATRIX_simaudit.txt` on each of them, and stays entirely
//! absent when no audit session is configured.

use bench::audit::{
    full_audit_matrix, matrix_json, render_audit_matrix, run_cell, server_spec, AuditRow, COREUTIL,
};
use k23_tests::assert_pinned;
use pitfalls::{signature_pitfall, Pitfall};
use sim_kernel::{EngineConfig, RunExit, Signature};
use sim_loader::boot_kernel;
use std::sync::OnceLock;

/// The hostile workload's execve gap classifies as `P1a-exec` for a
/// preload mechanism (the env-cleared victim sheds `libzpoline.so`),
/// while K23's kernel-side rewriting follows the exec: zero exec-gap
/// bypasses and full coverage.
#[test]
fn exec_gap_classifies_as_p1a_for_preload_but_not_k23() {
    let zp = run_cell("zpoline", "hostile", EngineConfig::new())
        .unwrap()
        .totals();
    assert!(
        zp.bypassed_by(Signature::ExecGap) > 0,
        "zpoline's env-cleared victim must surface as an exec gap"
    );
    assert_eq!(signature_pitfall(Signature::ExecGap), Some(Pitfall::P1a));

    let k23 = run_cell("k23", "hostile", EngineConfig::new())
        .unwrap()
        .totals();
    assert_eq!(
        k23.bypassed_by(Signature::ExecGap),
        0,
        "K23 must follow the exec"
    );
    assert_eq!(
        k23.coverage_permille(),
        1000,
        "K23 covers the full hostile workload, got {}",
        k23.coverage_permille()
    );
}

/// The P1b PoC's `prctl(PR_SYS_DISPATCH_OFF)` surfaces as the
/// `P1b-sudoff` signature on a bare SUD run — syscalls issued after the
/// disarm retire without the mechanism seeing them.
#[test]
fn sud_disarm_classifies_as_p1b() {
    let sud = run_cell("sud", "hostile", EngineConfig::new())
        .unwrap()
        .totals();
    assert!(
        sud.bypassed_by(Signature::SudOff) > 0,
        "post-disarm syscalls must classify as SudOff"
    );
    assert_eq!(signature_pitfall(Signature::SudOff), Some(Pitfall::P1b));
    assert_eq!(Signature::SudOff.code(), "P1b-sudoff");
}

/// vDSO reads are attributed as shadows only for mechanisms that leave
/// the vDSO mapped: zpoline misses the P2b PoC's `clock_gettime`, while
/// ptrace (spawns with the vDSO disabled) and K23 (claims vDSO coverage)
/// show none.
#[test]
fn vdso_shadow_attribution_respects_mechanism_claims() {
    let zp = run_cell("zpoline", "hostile", EngineConfig::new())
        .unwrap()
        .totals();
    assert_eq!(
        zp.bypassed_by(Signature::Vdso),
        1,
        "exactly the PoC's one vDSO clock read"
    );
    for covered in ["ptrace", "k23"] {
        let t = run_cell(covered, "hostile", EngineConfig::new())
            .unwrap()
            .totals();
        assert_eq!(
            t.bypassed_by(Signature::Vdso),
            0,
            "{covered} must not attribute vDSO shadows"
        );
    }
}

/// The full ledger — per-process maps, bypass sites and all — is
/// identical across the block and stepwise engines: the audit
/// only consumes architectural state, so the engine choice is invisible
/// to it (the property that makes the committed matrix meaningful).
#[test]
fn ledger_is_identical_across_engines() {
    let block = run_cell("sud", "coreutil", EngineConfig::new()).unwrap();
    let stepwise = run_cell("sud", "coreutil", EngineConfig::stepwise()).unwrap();
    assert_eq!(block, stepwise, "block vs stepwise ledgers diverge");
    assert!(
        block.totals().total() > 0,
        "the compared ledgers must not be vacuously empty"
    );
}

/// The block-engine sweep, run once per test process and shared by the
/// two engine pins.
fn block_sweep() -> &'static [AuditRow] {
    static ROWS: OnceLock<Vec<AuditRow>> = OnceLock::new();
    ROWS.get_or_init(|| full_audit_matrix(&EngineConfig::new()).unwrap())
}

/// Requires an engine's sweep to render exactly the committed
/// `MATRIX_simaudit.txt` and to export (`simaudit --json`) the same JSON
/// as the block engine's sweep.
fn assert_sweep_pinned(rows: &[AuditRow]) {
    let server = server_spec().name;
    assert_pinned(
        &render_audit_matrix(rows, &server),
        include_str!("../../MATRIX_simaudit.txt"),
        "MATRIX_simaudit.txt",
        "cargo run --release -p bench --bin simaudit -- --out MATRIX_simaudit.txt",
    );
    assert!(
        matrix_json(rows, &server).to_string_pretty()
            == matrix_json(block_sweep(), &server).to_string_pretty(),
        "the --json export differs from the block engine's"
    );
}

#[test]
fn block_sweep_matches_the_committed_matrix() {
    assert_sweep_pinned(block_sweep());
}

#[test]
fn stepwise_sweep_matches_the_committed_matrix() {
    assert_sweep_pinned(&full_audit_matrix(&EngineConfig::stepwise()).unwrap());
}

/// A kernel with no audit session configured exposes no ledger — the
/// audit is strictly opt-in, matching the zero-overhead-off contract the
/// `simperf` gate enforces.
#[test]
fn no_session_means_no_ledger() {
    let mut k = boot_kernel();
    apps::install_world(&mut k.vfs);
    let pid = k
        .spawn(COREUTIL, &[COREUTIL.to_string()], &[], None)
        .expect("spawn");
    let exit = k.run(u64::MAX / 4);
    assert_eq!(exit, RunExit::AllExited);
    assert_eq!(k.process(pid).and_then(|p| p.exit_status), Some(0));
    assert!(k.audit_ledger().is_none(), "no audit was configured");
}

/// Mechanism claims anchor the scale: an empty claim (native execution)
/// audits every syscall as `uncovered` at 0.0% coverage, while K23's
/// full claim audits the same coreutil at 100.0%.
#[test]
fn coverage_extremes_match_claims() {
    let native = run_cell("native", "coreutil", EngineConfig::new())
        .unwrap()
        .totals();
    assert_eq!(native.coverage_permille(), 0);
    assert_eq!(native.bypassed_by(Signature::Uncovered), native.total());

    let k23 = run_cell("k23", "coreutil", EngineConfig::new())
        .unwrap()
        .totals();
    assert_eq!(k23.coverage_permille(), 1000);
    assert_eq!(k23.bypassed_total(), 0);
}
