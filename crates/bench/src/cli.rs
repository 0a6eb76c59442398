//! The `sim*` diagnostics' shared command line and cell set-up.
//!
//! Every diagnostics binary reads its flags through [`Args`] and reports a
//! failure through [`exit`]. It builds its kernels from the pieces here:
//! the engine table, the mechanism registry, the one guest world, the K23
//! offline phase and its log transplant. Gates read and write their
//! baselines through [`read_json`], [`write()`] and [`gate_verdict`].

use interpose::Interposer;
use k23::OfflineSession;
use sim_kernel::{EngineConfig, Kernel, RunExit, Vfs};
use sim_loader::boot_kernel;
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

/// Whether a spec needs the K23 offline phase: a composed stack needs it
/// when its base does.
pub fn needs_offline(spec: &str) -> bool {
    spec.split('+').next().unwrap_or(spec).starts_with("k23")
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

/// Runs `app` to completion once under the K23 offline phase on `k`,
/// leaving its site log sealed in `k`'s VFS.
pub fn offline_once(k: &mut Kernel, app: &str, argv: &[String], budget: u64) -> Result<(), String> {
    let session = OfflineSession::new(k, app);
    let (_pid, exit) = session
        .run_once(k, argv, &[], budget)
        .map_err(|e| format!("offline phase of {app} failed: {e}"))?;
    if exit != RunExit::AllExited {
        return Err(format!("offline phase of {app} did not finish: {exit:?}"));
    }
    session.finish(k);
    Ok(())
}

/// Reads a committed JSON baseline.
pub fn read_json(path: &str) -> Result<sjson::Value, String> {
    let data = std::fs::read(path).map_err(|e| format!("read {path}: {e}"))?;
    sjson::parse(&data).map_err(|e| format!("{path}: bad JSON: {e}"))
}

/// Writes an output file.
pub fn write(path: &str, contents: impl AsRef<[u8]>) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("write {path}: {e}"))
}

/// A gate's verdict: every violation prints as `bin: REGRESSION …` and
/// the gate fails; with none it prints `gate: ok (ok)` and passes.
pub fn gate_verdict(bin: &str, violations: &[String], ok: &str) -> ExitCode {
    if violations.is_empty() {
        println!("gate: ok ({ok})");
        return ExitCode::SUCCESS;
    }
    for v in violations {
        eprintln!("{bin}: REGRESSION {v}");
    }
    ExitCode::FAILURE
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
        let mut a = args(&["--engine", "trace", "--period", "64", "--smoke"]);
        assert_eq!(a.flag().as_deref(), Some("--engine"));
        assert_eq!(a.value("--engine").as_deref(), Ok("trace"));
        assert_eq!(a.flag().as_deref(), Some("--period"));
        assert_eq!(a.parse::<u64>("--period"), Ok(64));
        assert_eq!(a.flag().as_deref(), Some("--smoke"));
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
    fn offline_phase_follows_the_base_of_a_composed_spec() {
        assert!(needs_offline("k23-ultra+"));
        assert!(needs_offline("k23+tracer"));
        assert!(!needs_offline("zpoline+recorder"));
        assert!(!needs_offline("native"));
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
