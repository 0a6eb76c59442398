//! K23's offline phase (paper §5.1, Figure 2).
//!
//! `libLogger` — an SUD-based interposition library — is preloaded into the
//! target, which runs in a controlled environment with representative
//! inputs. Every trapped syscall's *(region, offset)* pair is recorded,
//! restricted to expected executable, non-writable regions (so dynamically
//! generated code can never contribute entries). Repeating runs with
//! different inputs unions the logs. When the session finishes, the log is
//! written and the log directory is made immutable for the program's
//! lifetime (§5.3).

use crate::log::{SiteEntry, SiteLog, LOG_DIR};
use crate::ptracer::PreloadGuard;
use interpose::handler_asm::{emit_sigsys_handler, emit_sud_ctor, SigsysHandlerOpts, SudCtorOpts};
use interpose::{env_with_preload, Interposer};
use sim_kernel::{nr, Kernel, Pid, RunExit, TraceOpts};
use sim_loader::{ImageBuilder, SimElf};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

/// Install path of the offline logger library.
pub const LOGGER_LIB: &str = "/usr/lib/liblogger.so";

/// Builds the `libLogger` guest library: an SUD interposer whose handler
/// logs the trapping site (via a hostcall) before emulating the call.
pub fn build_logger_lib() -> SimElf {
    let mut b = ImageBuilder::new(LOGGER_LIB);
    b.isolated();
    b.init("logger_ctor");
    b.asm.label("__lib_start");
    b.hostcall_fn("__host_k23_log_site");
    emit_sigsys_handler(
        &mut b,
        &SigsysHandlerOpts {
            selector_label: "__logger_selector".into(),
            handler_label: "logger_sigsys_handler".into(),
            pre_call: Some("__host_k23_log_site".into()),
            no_selector_toggle: false,
            forward_label: "__logger_forward".into(),
        },
    );
    b.hostcall_fn("__host_k23_logger_init");
    emit_sud_ctor(
        &mut b,
        &SudCtorOpts {
            ctor_label: "logger_ctor".into(),
            handler_label: "logger_sigsys_handler".into(),
            selector_label: "__logger_selector".into(),
            allowlist: Some(("__lib_start".into(), 0x10_0000)),
            initial_selector: nr::SYSCALL_DISPATCH_FILTER_BLOCK,
            init_hostcall: Some("__host_k23_logger_init".into()),
        },
    );
    b.data_object("__logger_selector", &[nr::SYSCALL_DISPATCH_FILTER_ALLOW]);
    b.finish()
}

/// Whether a registry spec needs K23's offline phase first: its base is a
/// K23 variant. A composed stack (`k23-ultra+tracer`) needs it when its
/// base does.
pub fn needs_offline(spec: &str) -> bool {
    spec.split('+').next().unwrap_or(spec).starts_with("k23")
}

/// An offline-phase session: run the target (possibly several times with
/// different inputs), then persist the unioned log.
///
/// The session is an [`Interposer`] (libLogger), so any workload driver
/// that takes one runs the offline phase as it runs a measured run. It is
/// not registered: it is methodology, not a mechanism under evaluation.
#[derive(Debug)]
pub struct OfflineSession {
    app: String,
    sites: Rc<RefCell<BTreeSet<SiteEntry>>>,
}

impl OfflineSession {
    /// Prepares a session for `app` and installs it on `k`.
    pub fn new(k: &mut Kernel, app: &str) -> OfflineSession {
        let session = OfflineSession {
            app: app.to_string(),
            sites: Rc::default(),
        };
        session.install(k);
        session
    }

    /// Runs the target once under libLogger with the given inputs.
    ///
    /// # Errors
    ///
    /// Returns `-errno` if the image cannot be loaded.
    pub fn run_once(
        &self,
        k: &mut Kernel,
        argv: &[String],
        env: &[String],
        budget: u64,
    ) -> Result<(Pid, RunExit), i64> {
        let pid = self.spawn(k, &self.app, argv, env)?;
        let exit = k.run(budget);
        Ok((pid, exit))
    }

    /// Unique sites observed so far.
    pub fn site_count(&self) -> usize {
        self.sites.borrow().len()
    }

    /// Persists the log and seals the log directory (immutable), returning
    /// the log.
    pub fn finish(self, k: &mut Kernel) -> SiteLog {
        let mut log = SiteLog::new(&self.app);
        log.entries = self.sites.borrow().clone();
        k.vfs.mkdir_p(LOG_DIR).expect("log dir creatable");
        let _ = k.vfs.set_immutable(LOG_DIR, false);
        log.save(&mut k.vfs).expect("log dir writable before sealing");
        k.vfs
            .set_immutable(LOG_DIR, true)
            .expect("log dir exists");
        log
    }
}

impl Interposer for OfflineSession {
    fn name(&self) -> &'static str {
        "liblogger"
    }

    /// Installs libLogger and registers its two hostcalls: the site sink
    /// and the init hook.
    fn install(&self, k: &mut Kernel) {
        build_logger_lib().install(&mut k.vfs);
        let sink = self.sites.clone();
        k.register_hostcall("__host_k23_log_site", move |k, pid, tid| {
            let Some(cpu) = k.cpu_mut(pid, tid) else {
                return;
            };
            let addr = cpu.get(sim_isa::Reg::Rdi); // si_call_addr
            let Some(p) = k.process(pid) else {
                return;
            };
            let Some(m) = p.space.mapping_at(addr) else {
                return;
            };
            // Only expected executable, non-writable regions are recorded —
            // never writable or anonymous memory, so JIT/dynamic code can't
            // poison the log (§5.1).
            let expected = m.perms.executable()
                && !m.perms.writable()
                && m.name.starts_with('/')
                && m.name != LOGGER_LIB;
            if expected {
                sink.borrow_mut().insert(SiteEntry {
                    region: m.name.clone(),
                    offset: addr - m.start,
                });
            }
        });
        k.register_hostcall("__host_k23_logger_init", |k, pid, _tid| {
            k.mark_interposer_live(pid);
        });
    }

    /// Spawns `path` under libLogger. The injector guard keeps libLogger
    /// preloaded across `execve` even if the workload clears the
    /// environment.
    fn spawn(
        &self,
        k: &mut Kernel,
        path: &str,
        argv: &[String],
        env: &[String],
    ) -> Result<Pid, i64> {
        let env = env_with_preload(env, LOGGER_LIB);
        let guard = Rc::new(RefCell::new(PreloadGuard {
            lib: LOGGER_LIB.to_string(),
        }));
        k.spawn(
            path,
            argv,
            &env,
            Some((
                guard,
                TraceOpts {
                    trace_syscalls: true,
                    trace_exec: true,
                    trace_fork: true,
                    disable_vdso: false,
                },
            )),
        )
    }
}
