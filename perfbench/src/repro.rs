//! One-command reproduction of a known defect the benchmark's sizing ran
//! into (README, "Known defect"): with an injected EINTR on nginx-sim's
//! read occurrence 1, 2, 3, 4, 10 or 50, nginx-sim under K23 keeps calling
//! `write` after wrk-sim has exited 0, so `apps::run_macro` runs out of
//! cycle budget. Occurrence 0 completes.

use bench::macros_::collect_offline_log;
use bench::Config;
use sim_fault::{FaultKind, FaultPlan, SyscallFault};
use sim_kernel::{nr, EngineConfig, Pid};
use sim_loader::boot_kernel;

/// Per-`Kernel::run` cycle budget: a healthy run needs a small fraction.
const BUDGET: u64 = 3_000_000_000;

/// Runs the smallest Table 6 nginx row under K23-default with EINTR on
/// nginx-sim's read occurrence `occurrence`; returns a one-line verdict.
pub fn nginx_eintr(occurrence: u64) -> String {
    let spec = apps::table6_specs(50).remove(0);
    let (path, bytes) = collect_offline_log(&spec);
    let mut k = boot_kernel();
    apps::install_world(&mut k.vfs);
    k.vfs.mkdir_p(k23::LOG_DIR).expect("log dir creatable");
    k.vfs.write_file(&path, &bytes).expect("log install");
    k.vfs.set_immutable(k23::LOG_DIR, true).expect("seal");
    let plan = FaultPlan {
        syscall_faults: vec![SyscallFault {
            nr: nr::SYS_READ,
            occurrence,
            kind: FaultKind::Eintr,
        }],
        ..FaultPlan::zero(1)
    };
    k.configure(EngineConfig::new().fault(plan.clone()));
    let ip = Config::K23Default.make();
    let res = apps::run_macro(&mut k, ip.as_ref(), &spec, BUDGET);
    let of = |exe: &str| -> Vec<Pid> {
        k.pids()
            .into_iter()
            .filter(|p| k.process(*p).is_some_and(|pr| pr.exe == exe))
            .collect()
    };
    let writes: u64 = of(spec.server)
        .iter()
        .map(|p| {
            k.process(*p)
                .map_or(0, |pr| pr.stats.syscall_count_of(nr::SYS_WRITE))
        })
        .sum();
    let clients: Vec<Option<i64>> = of(spec.client)
        .iter()
        .map(|p| k.process(*p).and_then(|pr| pr.exit_status))
        .collect();
    format!(
        "{} under K23-default, plan '{}': run_macro -> {}; server writes {writes}; client exits {clients:?}; clock {}",
        spec.name,
        plan.encode(),
        match res {
            Ok(r) => format!("ok ({} requests)", r.requests),
            Err(e) => format!("{e:?}"),
        },
        k.clock
    )
}
