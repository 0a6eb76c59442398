//! The `simaudit` sweep: quantified interposition coverage per mechanism.
//!
//! Where Table 3 answers "does the mechanism *defend* against pitfall X?"
//! with a PoC verdict, this sweep answers "how many syscalls did the
//! mechanism actually see?" with the kernel-side audit ledger
//! (`sim_kernel::audit`): every registry mechanism — plus a set of
//! composed stacks — runs a coreutil, a client/server workload, and the
//! epoll server under scale load (readiness-based dispatch) with
//! an [`sim_kernel::AuditSession`] correlating the dispatch choke point
//! against the mechanism's declared [`sim_kernel::AuditSpec`]. The
//! result is one row per (mechanism, workload) cell: coverage in
//! permille, interposed-via-path / via-control / double counts, and
//! bypass counts broken down by pitfall signature.
//!
//! Everything here is byte-deterministic: identical across consecutive
//! runs and across the stepwise/block/trace engines (the ledger only
//! consumes architectural state), so `MATRIX_simaudit.txt` is committed
//! and tier-1 requires the sweep on every engine to reproduce it.

use crate::cli;
use apps::MacroSpec;
use interpose::Interposer;
use sim_kernel::{AuditLedger, EngineConfig, Kernel, ProcAudit, RunExit, Signature};
use sim_loader::boot_kernel_from;
use std::collections::BTreeSet;

/// Cycle budget per audited run (matches the macro harness).
pub const BUDGET: u64 = 40_000_000_000_000;

/// The audited coreutil workload.
pub const COREUTIL: &str = "/usr/bin/ls-sim";

/// Fixed request-count divisor for the audited server workload. The
/// committed matrix must not follow `K23_BENCH_SCALE`, so this is a
/// constant rather than [`crate::scale`](mod@crate::scale).
pub const SERVER_SCALE: u64 = 200;

/// Composed stacks audited beyond the bare registry mechanisms
/// (observation layers on preload, SUD, and hybrid bases).
pub const AUDIT_STACKS: [&str; 4] = [
    "zpoline+tracer",
    "zpoline+recorder",
    "ptrace+recorder",
    "k23+tracer",
];

/// The audited workloads, in report order.
pub const WORKLOADS: [&str; 4] = ["coreutil", "server", "epollsrv", "hostile"];

/// One (mechanism, workload) cell of the coverage matrix.
#[derive(Debug, Clone)]
pub struct AuditRow {
    /// Mechanism spec (registry name or composed `base+layer` spec).
    pub spec: String,
    /// Workload label, one of [`WORKLOADS`].
    pub workload: &'static str,
    /// All processes folded into one accounting row.
    pub totals: ProcAudit,
    /// Number of audited processes.
    pub procs: usize,
}

/// Every audited mechanism spec, in report order: the full registry
/// (canonical order) followed by the composed stacks.
pub fn audit_specs() -> Vec<String> {
    pitfalls::register_all();
    let mut out: Vec<String> = interpose::names().iter().map(|n| n.to_string()).collect();
    out.extend(AUDIT_STACKS.iter().map(|s| s.to_string()));
    out
}

/// The audited server workload (smallest Table 6 row at the fixed scale).
pub fn server_spec() -> MacroSpec {
    apps::table6_specs(SERVER_SCALE).remove(0)
}

/// Fixed shape of the audited epoll-server workload. Small but real:
/// the server parks in `epoll_wait` between bursts, so the cell
/// exercises coverage attribution across blocked-wakeup dispatch — a
/// path the polling servers never take.
fn epollsrv_params() -> crate::scale::ScaleParams {
    crate::scale::ScaleParams {
        requests: 64,
        active: 16,
        resp64: 2,
        server_work: 2,
        workers: 1,
    }
}

/// The audited epoll-server workload (readiness-multiplexed dispatch).
pub fn epollsrv_spec() -> MacroSpec {
    let p = epollsrv_params();
    apps::scale_spec(true, p.workers, 64, p.active, p.requests, p.resp64, p.server_work, false)
}

/// Runs the coreutil under `spec` with auditing on; returns the ledger.
///
/// # Errors
///
/// An unknown spec, or an offline phase or coreutil run that fails.
pub fn run_coreutil_audit(spec: &str, cfg: EngineConfig) -> Result<AuditLedger, String> {
    let ip = cli::mechanism(spec)?;
    let mut k = boot_kernel_from(cli::world());
    let run = |k: &mut Kernel, ip: &dyn Interposer| {
        cli::run_to_exit(k, ip, COREUTIL, &[COREUTIL.to_string()], BUDGET)
    };
    if k23::needs_offline(spec) {
        // The offline phase is methodology, not the measured run: it
        // executes before the audit session is configured.
        cli::collect_log(&mut k, COREUTIL, run)?;
    }
    k.configure(cfg.audit(ip.coverage()));
    run(&mut k, ip.as_ref())?;
    Ok(k.audit_ledger().expect("audit configured"))
}

/// The hostile workload's PoC binaries, in run order: the P1a
/// env-clearing exec pair, the P1b `prctl` selector rewrite, and the P2b
/// vDSO clock read.
pub const HOSTILE_POCS: [&str; 3] = [
    "/usr/bin/p1a-parent",
    "/usr/bin/p1b-poc",
    "/usr/bin/p2b-poc",
];

/// Runs the hostile workload under `spec` with auditing on: the three
/// PoCs execute sequentially in one audited kernel, so the cell's bypass
/// column shows exactly which attacks shadow the mechanism (`P1a-exec`,
/// `P1b-selector`, `vdso`). The audited runs' exit statuses are not
/// checked — a defended P1b PoC dies with SIGABRT by design; under
/// libLogger, in the offline phase, every PoC exits 0.
///
/// # Errors
///
/// An unknown spec, an offline phase that fails, or a PoC that fails to
/// spawn or runs out of budget.
pub fn run_hostile_audit(spec: &str, cfg: EngineConfig) -> Result<AuditLedger, String> {
    let ip = cli::mechanism(spec)?;
    let mut k = boot_kernel_from(cli::world());
    pitfalls::install_pocs(&mut k.vfs);
    if k23::needs_offline(spec) {
        for app in HOSTILE_POCS {
            cli::collect_log(&mut k, app, |k, ip| {
                cli::run_to_exit(k, ip, app, &[app.to_string()], BUDGET)
            })?;
        }
    }
    k.configure(cfg.audit(ip.coverage()));
    ip.install(&mut k);
    for app in HOSTILE_POCS {
        ip.spawn(&mut k, app, &[app.to_string()], &[])
            .map_err(|e| format!("spawn {app}: {e}"))?;
        if k.run(BUDGET) == RunExit::Budget {
            return Err(format!("{app} ran out of budget"));
        }
    }
    Ok(k.audit_ledger().expect("audit configured"))
}

/// Runs the server workload under `spec` with auditing on; K23 bases get
/// `log` transplanted (collected once, as the bench harness does).
///
/// # Errors
///
/// An unknown spec, or a server run that fails.
pub fn run_server_audit(
    spec: &str,
    cfg: EngineConfig,
    mspec: &MacroSpec,
    log: Option<&(String, Vec<u8>)>,
) -> Result<AuditLedger, String> {
    let ip = cli::mechanism(spec)?;
    let mut k = boot_kernel_from(cli::world());
    cli::install_log(&mut k, log);
    k.configure(cfg.audit(ip.coverage()));
    apps::run_macro(&mut k, ip.as_ref(), mspec, BUDGET).map_err(|e| format!("{e:?}"))?;
    // The clients run natively by methodology (§6.2) — only the server's
    // process tree is audited against the mechanism's claim, otherwise
    // every server row would carry the harness's uninterposed clients as
    // phantom shadows.
    Ok(server_ledger(&k, mspec.server))
}

/// Runs the epoll-server scale workload under `spec` with auditing on.
/// Same methodology as [`run_server_audit`]: the load generator runs
/// natively, so the ledger is filtered to the server's process tree —
/// the row isolates how well the mechanism covers readiness-based
/// dispatch (`epoll_wait` parks and blocked wakeups included).
///
/// # Errors
///
/// An unknown spec, or a server run that fails.
pub fn run_epollsrv_audit(
    spec: &str,
    cfg: EngineConfig,
    log: Option<&(String, Vec<u8>)>,
) -> Result<AuditLedger, String> {
    let ip = cli::mechanism(spec)?;
    let mut k = boot_kernel_from(cli::world());
    cli::install_log(&mut k, log);
    k.configure(cfg.audit(ip.coverage()));
    let mspec = epollsrv_spec();
    apps::run_scale(&mut k, ip.as_ref(), &mspec, BUDGET).map_err(|e| format!("{e:?}"))?;
    Ok(server_ledger(&k, mspec.server))
}

/// The epoll variant's offline site log for the audited workload shape.
pub fn collect_epollsrv_offline() -> (String, Vec<u8>) {
    crate::scale::collect_offline_log_scale(crate::scale::Variant::Epoll, &epollsrv_params())
}

/// The ledger restricted to the server's process subtree: every process
/// running the server binary plus all their descendants (forked workers).
fn server_ledger(k: &Kernel, server: &str) -> AuditLedger {
    let mut tree: BTreeSet<sim_kernel::Pid> = k
        .pids()
        .into_iter()
        .filter(|p| k.process(*p).is_some_and(|pr| pr.exe == server))
        .collect();
    loop {
        let add: Vec<sim_kernel::Pid> = k
            .pids()
            .into_iter()
            .filter(|p| !tree.contains(p))
            .filter(|p| k.process(*p).is_some_and(|pr| tree.contains(&pr.ppid)))
            .collect();
        if add.is_empty() {
            break;
        }
        tree.extend(add);
    }
    let mut ledger = k.audit_ledger().expect("audit configured");
    ledger.per_proc.retain(|pid, _| tree.contains(pid));
    ledger
}

/// The server workloads' offline logs, each collected on first use and
/// shared by every K23 cell of a sweep.
#[derive(Default)]
struct OfflineLogs {
    server: Option<(String, Vec<u8>)>,
    epollsrv: Option<(String, Vec<u8>)>,
}

/// Runs one cell, taking K23 server logs from `logs`.
fn audit_cell(
    spec: &str,
    workload: &str,
    cfg: EngineConfig,
    logs: &mut OfflineLogs,
) -> Result<AuditLedger, String> {
    let offline = k23::needs_offline(spec);
    match workload {
        "coreutil" => run_coreutil_audit(spec, cfg),
        "hostile" => run_hostile_audit(spec, cfg),
        "server" => {
            let mspec = server_spec();
            let log = offline.then(|| {
                &*logs
                    .server
                    .get_or_insert_with(|| crate::macros_::collect_offline_log(&mspec))
            });
            run_server_audit(spec, cfg, &mspec, log)
        }
        "epollsrv" => {
            let log = offline.then(|| &*logs.epollsrv.get_or_insert_with(collect_epollsrv_offline));
            run_epollsrv_audit(spec, cfg, log)
        }
        other => Err(format!(
            "unknown workload {other:?} (coreutil|server|epollsrv|hostile)"
        )),
    }
    .map_err(|e| format!("{spec} / {workload}: {e}"))
}

/// Runs one (mechanism, workload) cell; `workload` is one of
/// [`WORKLOADS`].
///
/// # Errors
///
/// An unknown spec or workload, or a run that fails; the message names
/// both.
pub fn run_cell(spec: &str, workload: &str, cfg: EngineConfig) -> Result<AuditLedger, String> {
    audit_cell(spec, workload, cfg, &mut OfflineLogs::default())
}

/// The full coverage matrix: every audited spec across every workload,
/// under engine configuration `cfg`.
///
/// # Errors
///
/// The first cell that fails, as [`run_cell`] reports it.
pub fn full_audit_matrix(cfg: &EngineConfig) -> Result<Vec<AuditRow>, String> {
    let mut logs = OfflineLogs::default();
    let mut rows = Vec::new();
    for spec in audit_specs() {
        for workload in WORKLOADS {
            let l = audit_cell(&spec, workload, cfg.clone(), &mut logs)?;
            rows.push(AuditRow {
                spec: spec.clone(),
                workload,
                totals: l.totals(),
                procs: l.per_proc.len(),
            });
        }
    }
    Ok(rows)
}

fn fmt_permille(p: u64) -> String {
    format!("{}.{}%", p / 10, p % 10)
}

fn sig_cells(t: &ProcAudit) -> String {
    let parts: Vec<String> = Signature::ALL
        .iter()
        .filter_map(|s| {
            let n = t.bypassed_by(*s);
            (n > 0).then(|| format!("{}={n}", s.code()))
        })
        .collect();
    if parts.is_empty() {
        "-".to_string()
    } else {
        parts.join(" ")
    }
}

/// Renders the committed coverage matrix (byte-deterministic).
pub fn render_audit_matrix(rows: &[AuditRow], server_name: &str) -> String {
    let mut out = String::new();
    out.push_str("simaudit: interposition coverage ledger (kernel dispatch ground truth vs mechanism claims)\n");
    out.push_str(&format!(
        "workloads: coreutil={COREUTIL}; server={server_name} (scale {SERVER_SCALE}, server process tree only);\n\
         \x20          epollsrv=epollsrv-sim under scale load (readiness dispatch, server tree only);\n\
         \x20          hostile=P1a env-clearing exec + P1b prctl rewrite + P2b vDSO read\n"
    ));
    out.push_str(
        "replay one cell: cargo run --release -p bench --bin simaudit -- --replay <mechanism> <coreutil|server|epollsrv|hostile>\n\n",
    );
    out.push_str(&format!(
        "{:<18} {:<8} {:>8} {:>8} {:>6} {:>7} {:>6} {:>6}  {}\n",
        "mechanism", "workload", "syscalls", "coverage", "path", "control", "double", "bypass", "signatures"
    ));
    for r in rows {
        let t = &r.totals;
        out.push_str(&format!(
            "{:<18} {:<8} {:>8} {:>8} {:>6} {:>7} {:>6} {:>6}  {}\n",
            r.spec,
            r.workload,
            t.total(),
            fmt_permille(t.coverage_permille()),
            t.interposed_path,
            t.interposed_control,
            t.double,
            t.bypassed_total(),
            sig_cells(t),
        ));
    }
    // Legend: every signature that appears anywhere in the matrix.
    let mut seen: Vec<Signature> = Vec::new();
    for s in Signature::ALL {
        if rows.iter().any(|r| r.totals.bypassed_by(s) > 0) {
            seen.push(s);
        }
    }
    if !seen.is_empty() {
        out.push_str("\nsignatures:\n");
        for s in seen {
            out.push_str(&format!(
                "  {:<13} {}\n",
                s.code(),
                pitfalls::signature_describe(s)
            ));
        }
    }
    out
}

/// Renders one cell's full ledger for `--replay`: the audited claim,
/// per-process rows, composed-layer participation, and every bypass site
/// with its pitfall signature.
pub fn render_cell(spec: &str, workload: &str, ledger: &AuditLedger) -> String {
    let mut out = String::new();
    let s = &ledger.spec;
    out.push_str(&format!("cell: {spec} / {workload}\n"));
    out.push_str(&format!(
        "claim: handler_regions={:?} via_tracer={} via_sigsys={} covers_vdso={}\n",
        s.handler_regions, s.via_tracer, s.via_sigsys, s.covers_vdso
    ));
    let t = ledger.totals();
    out.push_str(&format!(
        "totals: {} syscalls, coverage {}, path={} control={} double={} bypass={}\n",
        t.total(),
        fmt_permille(t.coverage_permille()),
        t.interposed_path,
        t.interposed_control,
        t.double,
        t.bypassed_total(),
    ));
    out.push_str("\nper-process:\n");
    for (pid, p) in &ledger.per_proc {
        out.push_str(&format!(
            "  pid {pid}: {} syscalls, coverage {}, path={} control={} double={} bypass={} [{}]\n",
            p.total(),
            fmt_permille(p.coverage_permille()),
            p.interposed_path,
            p.interposed_control,
            p.double,
            p.bypassed_total(),
            sig_cells(p),
        ));
        if p.chained > 0 {
            out.push_str(&format!("    chained: {}\n", p.chained));
            for (layer, n) in &p.layer_hits {
                out.push_str(&format!("    layer {layer}: {n}\n"));
            }
        }
    }
    let mut shadows = false;
    for (pid, p) in &ledger.per_proc {
        let mut by_sig: std::collections::BTreeMap<Signature, Vec<(u64, u64)>> =
            std::collections::BTreeMap::new();
        for ((sig, site), n) in &p.bypass_sites {
            by_sig.entry(*sig).or_default().push((*site, *n));
        }
        for (sig, sites) in by_sig {
            if !shadows {
                out.push_str("\nbypass sites:\n");
                shadows = true;
            }
            let total: u64 = sites.iter().map(|(_, n)| n).sum();
            let shown: Vec<String> = sites
                .iter()
                .take(6)
                .map(|(s, n)| {
                    if *n > 1 {
                        format!("{s:#x}x{n}")
                    } else {
                        format!("{s:#x}")
                    }
                })
                .collect();
            let more = sites.len().saturating_sub(6);
            let more = if more > 0 {
                format!(" (+{more} more)")
            } else {
                String::new()
            };
            out.push_str(&format!(
                "  pid {pid} {}: {total} calls at {} sites: {}{more}\n      {}\n",
                sig.code(),
                sites.len(),
                shown.join(" "),
                pitfalls::signature_describe(sig)
            ));
        }
    }
    out
}

/// JSON export of the matrix (stable key order via `sjson`'s `BTreeMap`).
pub fn matrix_json(rows: &[AuditRow], server_name: &str) -> sjson::Value {
    let rows_json: Vec<sjson::Value> = rows
        .iter()
        .map(|r| {
            let t = &r.totals;
            let bypassed: Vec<(&str, sjson::Value)> = Signature::ALL
                .iter()
                .filter_map(|s| {
                    let n = t.bypassed_by(*s);
                    (n > 0).then(|| (s.code(), sjson::Value::UInt(n)))
                })
                .collect();
            sjson::Value::object(vec![
                ("mechanism", sjson::Value::Str(r.spec.clone())),
                ("workload", sjson::Value::Str(r.workload.to_string())),
                ("procs", sjson::Value::UInt(r.procs as u64)),
                ("syscalls", sjson::Value::UInt(t.total())),
                ("coverage_permille", sjson::Value::UInt(t.coverage_permille())),
                ("interposed_path", sjson::Value::UInt(t.interposed_path)),
                ("interposed_control", sjson::Value::UInt(t.interposed_control)),
                ("double", sjson::Value::UInt(t.double)),
                ("bypassed", sjson::Value::object(bypassed)),
            ])
        })
        .collect();
    sjson::Value::object(vec![
        ("coreutil", sjson::Value::Str(COREUTIL.to_string())),
        ("server", sjson::Value::Str(server_name.to_string())),
        ("scale", sjson::Value::UInt(SERVER_SCALE)),
        ("rows", sjson::Value::Array(rows_json)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn audit_spec_list_covers_registry_and_stacks() {
        let specs = audit_specs();
        for name in ["native", "ptrace", "sud", "sud-armed", "zpoline", "k23"] {
            assert!(specs.iter().any(|s| s == name), "missing {name}");
        }
        for stack in AUDIT_STACKS {
            assert!(specs.iter().any(|s| s == stack), "missing {stack}");
        }
    }
}
