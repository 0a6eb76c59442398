//! The `sim*` diagnostics' shared command line and cell set-up.
//!
//! Every diagnostics binary reads its flags through [`Args`] and reports a
//! failure through [`exit`]. It builds its kernels from the pieces here:
//! the engine table, the mechanism registry, the one guest world, the K23
//! offline phase ([`collect_log`]) and its log transplant
//! ([`install_log`]). Output files go through [`write()`].

use interpose::Interposer;
use k23::{OfflineSession, SiteLog};
use sim_kernel::{EngineConfig, Kernel, RunExit, Vfs};
use sim_loader::boot_kernel;
use std::fmt::Debug;
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::OnceLock;

/// A command line, consumed flag by flag.
pub struct Args(std::vec::IntoIter<String>);

impl Args {
    /// The process's arguments, without the program name.
    pub fn from_env() -> Args {
        Args::new(std::env::args().skip(1))
    }

    fn new(args: impl IntoIterator<Item = String>) -> Args {
        Args(args.into_iter().collect::<Vec<_>>().into_iter())
    }

    /// The next flag, or `None` once the command line is consumed.
    pub fn flag(&mut self) -> Option<String> {
        self.0.next()
    }

    /// The argument following `flag`.
    pub fn value(&mut self, flag: &str) -> Result<String, String> {
        self.0.next().ok_or_else(|| format!("{flag} needs a value"))
    }

    /// The argument following `flag`, parsed as a `T`.
    pub fn parse<T: FromStr>(&mut self, flag: &str) -> Result<T, String> {
        let v = self.value(flag)?;
        v.parse().map_err(|_| format!("bad {flag} value {v:?}"))
    }
}

/// A binary's exit code: `Ok` passes its code through; `Err` prints
/// `bin: error` and fails.
pub fn exit(bin: &str, res: Result<ExitCode, String>) -> ExitCode {
    res.unwrap_or_else(|e| {
        eprintln!("{bin}: {e}");
        ExitCode::FAILURE
    })
}

/// The execution engine named `block`, `stepwise` or `trace`.
pub fn engine(name: &str) -> Result<EngineConfig, String> {
    match name {
        "block" => Ok(EngineConfig::new()),
        "stepwise" => Ok(EngineConfig::stepwise()),
        "trace" => Ok(EngineConfig::traced()),
        other => Err(format!("unknown engine {other:?} (block|stepwise|trace)")),
    }
}

/// The interposer a registry spec names: a bare mechanism (`k23`) or a
/// composed stack (`k23+tracer+recorder`).
pub fn mechanism(spec: &str) -> Result<Box<dyn Interposer>, String> {
    pitfalls::register_all();
    interpose::by_name_spec(spec).map_err(|e| format!("spec {spec:?}: {e}"))
}

/// The guest world (libc plus every `apps` image), assembled once per
/// process; diagnostics kernels boot from clones of it
/// (`sim_loader::boot_kernel_from`). `Vfs` is plain data, so worker
/// threads share the template by reference.
pub fn world() -> &'static Vfs {
    static WORLD: OnceLock<Vfs> = OnceLock::new();
    WORLD.get_or_init(|| {
        let mut k = boot_kernel();
        apps::install_world(&mut k.vfs);
        k.vfs
    })
}

/// Transplants a K23 offline log `(path, bytes)` into `k`'s log directory
/// and seals it: the paper collects a log once per application and reuses
/// it (§5.1). `None`, for a mechanism without an offline phase, leaves
/// the VFS untouched.
pub fn install_log(k: &mut Kernel, log: Option<&(String, Vec<u8>)>) {
    if let Some((path, bytes)) = log {
        k.vfs.mkdir_p(k23::LOG_DIR).expect("log dir creatable");
        k.vfs.write_file(path, bytes).expect("log install");
        k.vfs.set_immutable(k23::LOG_DIR, true).expect("seal");
    }
}

/// Collects `app`'s K23 offline log on `k`, the counterpart of
/// [`install_log`]: `drive` runs the workload under libLogger with the
/// driver its measured run uses ([`apps::run_macro`], [`apps::run_scale`],
/// [`apps::run_sqlite`], or [`run_to_exit`] for a coreutil). The log is
/// left sealed in `k`'s VFS and returned; [`k23::SiteLog::file`] gives it
/// in the form [`install_log`] takes.
///
/// # Errors
///
/// The drive's error, naming `app`.
pub fn collect_log<T, E: Debug>(
    k: &mut Kernel,
    app: &str,
    drive: impl FnOnce(&mut Kernel, &dyn Interposer) -> Result<T, E>,
) -> Result<SiteLog, String> {
    let session = OfflineSession::new(k, app);
    drive(k, &session).map_err(|e| format!("offline phase of {app}: {e:?}"))?;
    Ok(session.finish(k))
}

/// Runs `app` once under `ip` until every process exits, and requires a
/// zero exit status: the coreutil workload, offline and measured.
///
/// # Errors
///
/// A spawn failure, a run that does not end in exit, or a non-zero status.
pub fn run_to_exit(
    k: &mut Kernel,
    ip: &dyn Interposer,
    app: &str,
    argv: &[String],
    budget: u64,
) -> Result<(), String> {
    ip.install(k);
    let pid = ip
        .spawn(k, app, argv, &[])
        .map_err(|e| format!("spawn {app}: {e}"))?;
    let exit = k.run(budget);
    let status = k.process(pid).and_then(|p| p.exit_status);
    if exit != RunExit::AllExited || status != Some(0) {
        return Err(format!("{app} ended {exit:?} with status {status:?}"));
    }
    Ok(())
}

/// Writes an output file.
pub fn write(path: &str, contents: impl AsRef<[u8]>) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("write {path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_kernel::Engine;
    use sim_loader::boot_kernel_from;

    fn args(list: &[&str]) -> Args {
        Args::new(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn args_read_flags_values_and_parsed_values() {
        let mut a = args(&["--engine", "trace", "--period", "64", "--compare"]);
        assert_eq!(a.flag().as_deref(), Some("--engine"));
        assert_eq!(a.value("--engine").as_deref(), Ok("trace"));
        assert_eq!(a.flag().as_deref(), Some("--period"));
        assert_eq!(a.parse::<u64>("--period"), Ok(64));
        assert_eq!(a.flag().as_deref(), Some("--compare"));
        assert_eq!(a.flag(), None);
    }

    #[test]
    fn args_reject_a_missing_or_unparsable_value() {
        let mut a = args(&["--json"]);
        a.flag();
        assert_eq!(a.value("--json"), Err("--json needs a value".to_string()));
        let mut a = args(&["--seed", "seven"]);
        a.flag();
        let err = a.parse::<u64>("--seed").unwrap_err();
        assert!(err.contains("--seed") && err.contains("seven"), "{err}");
    }

    #[test]
    fn engine_names_map_to_their_engines() {
        assert_eq!(engine("block").unwrap().engine, Engine::Block);
        assert_eq!(engine("stepwise").unwrap().engine, Engine::Stepwise);
        assert_eq!(engine("trace").unwrap().engine, Engine::Trace);
        assert!(engine("turbo").unwrap_err().contains("turbo"));
    }

    #[test]
    fn install_log_seals_the_transplanted_log() {
        let log = (k23::SiteLog::path_for("/usr/bin/ls-sim"), b"sites".to_vec());
        let mut k = boot_kernel_from(world());
        install_log(&mut k, Some(&log));
        assert_eq!(k.vfs.read_file(&log.0).ok(), Some(&b"sites"[..]));
        let later = format!("{}/late.log", k23::LOG_DIR);
        assert!(
            k.vfs.write_file(&later, b"x").is_err(),
            "log dir must be sealed"
        );

        let mut k = boot_kernel_from(world());
        install_log(&mut k, None);
        assert!(!k.vfs.exists(k23::LOG_DIR), "no log, no log dir");
    }
}
