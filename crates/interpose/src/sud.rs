//! The SUD-only baseline interposer (the paper's "SUD" and
//! "SUD-no-interposition" rows).
//!
//! A preloaded library arms Syscall User Dispatch in its constructor; every
//! subsequent syscall outside the handler raises SIGSYS and is emulated in
//! the handler by re-issuing it with the selector set to ALLOW. This is
//! exhaustive *after* library load, fully expressive, and — as Table 5
//! shows — brutally slow for syscall-heavy workloads (~15× native).

use crate::handler_asm::{emit_sigsys_handler, emit_sud_ctor, SigsysHandlerOpts, SudCtorOpts};
use crate::{env_with_preload, Interposer};
use sim_kernel::{nr, Kernel, Pid};
use sim_loader::ImageBuilder;

/// Library install path.
pub const SUD_LIB: &str = "/usr/lib/libsud-interpose.so";

/// Whether the selector actually dispatches syscalls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SudMode {
    /// Selector = BLOCK: every syscall is interposed via SIGSYS.
    Interpose,
    /// Selector = ALLOW: SUD armed but inert — isolates the kernel's
    /// SUD slow-path cost ("SUD-no-interposition").
    Armed,
}

/// The SUD baseline interposer.
#[derive(Debug, Clone, Copy)]
pub struct SudInterposer {
    /// Dispatch mode.
    pub mode: SudMode,
}

impl SudInterposer {
    /// An interposing instance.
    pub fn new() -> SudInterposer {
        SudInterposer {
            mode: SudMode::Interpose,
        }
    }

    /// An armed-but-inert instance.
    pub fn armed_only() -> SudInterposer {
        SudInterposer {
            mode: SudMode::Armed,
        }
    }

    /// Builds the guest library.
    fn build_lib(&self) -> sim_loader::SimElf {
        let mut b = ImageBuilder::new(SUD_LIB);
        b.isolated();
        b.init("sud_ctor");
        // Offset-0 label so the SUD allowlist can cover this library: the
        // handler's own syscalls — in particular its `rt_sigreturn` — must
        // bypass dispatch, or the return from the handler would recursively
        // trigger SUD (paper §2.1).
        b.asm.label("__lib_start");
        emit_sigsys_handler(
            &mut b,
            &SigsysHandlerOpts {
                selector_label: "__sud_selector".into(),
                handler_label: "sud_sigsys_handler".into(),
                pre_call: None,
                no_selector_toggle: false,
                forward_label: String::new(),
            },
        );
        b.hostcall_fn("__host_sud_mark_live");
        emit_sud_ctor(
            &mut b,
            &SudCtorOpts {
                ctor_label: "sud_ctor".into(),
                handler_label: "sud_sigsys_handler".into(),
                selector_label: "__sud_selector".into(),
                allowlist: Some(("__lib_start".into(), 0x10_0000)),
                initial_selector: match self.mode {
                    SudMode::Interpose => nr::SYSCALL_DISPATCH_FILTER_BLOCK,
                    SudMode::Armed => nr::SYSCALL_DISPATCH_FILTER_ALLOW,
                },
                init_hostcall: Some("__host_sud_mark_live".into()),
            },
        );
        b.data_object("__sud_selector", &[nr::SYSCALL_DISPATCH_FILTER_ALLOW]);
        b.finish()
    }
}

impl Default for SudInterposer {
    fn default() -> Self {
        SudInterposer::new()
    }
}

impl Interposer for SudInterposer {
    fn name(&self) -> &'static str {
        match self.mode {
            SudMode::Interpose => "sud",
            SudMode::Armed => "sud-armed",
        }
    }

    fn label(&self) -> String {
        match self.mode {
            SudMode::Interpose => "SUD".to_string(),
            SudMode::Armed => "SUD-no-interposition".to_string(),
        }
    }

    fn install(&self, k: &mut Kernel) {
        self.build_lib().install(&mut k.vfs);
        sim_obs::register_region_path(SUD_LIB, &self.label());
        let label = self.label();
        k.register_hostcall("__host_sud_mark_live", move |k, pid, _tid| {
            k.mark_interposer_live(pid);
            crate::register_handler_span(k, pid, SUD_LIB, &label);
        });
    }

    fn spawn(
        &self,
        k: &mut Kernel,
        path: &str,
        argv: &[String],
        env: &[String],
    ) -> Result<Pid, i64> {
        let env = env_with_preload(env, SUD_LIB);
        k.spawn(path, argv, &env, None)
    }

    fn forward_symbols(&self) -> Vec<String> {
        vec!["libsud-interpose.so:__interpose_forward".to_string()]
    }

    fn coverage(&self) -> sim_kernel::AuditSpec {
        match self.mode {
            SudMode::Interpose => sim_kernel::AuditSpec {
                mechanism: self.name().to_string(),
                handler_regions: vec!["libsud-interpose.so".to_string()],
                via_sigsys: true,
                ..sim_kernel::AuditSpec::default()
            },
            // SUD-no-interposition arms the dispatcher but installs no
            // handler: it claims nothing, so every syscall audits as
            // uncovered (the paper's pure-overhead row).
            SudMode::Armed => sim_kernel::AuditSpec::none(self.name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_isa::Reg;
    use sim_loader::{boot_kernel, LIBC_PATH};

    fn stress_app(n: u64) -> sim_loader::SimElf {
        let mut b = ImageBuilder::new("/usr/bin/stress");
        b.entry("main");
        b.needs(LIBC_PATH);
        b.asm.label("main");
        b.asm.mov_imm(Reg::Rcx, n);
        b.asm.label("loop");
        b.asm.push(Reg::Rcx);
        b.asm.mov_imm(Reg::Rax, nr::SYS_NONEXISTENT);
        b.asm.syscall();
        b.asm.pop(Reg::Rcx);
        b.asm.sub_imm(Reg::Rcx, 1);
        b.asm.jnz("loop");
        b.asm.mov_imm(Reg::Rax, 0);
        b.asm.ret();
        b.finish()
    }

    #[test]
    fn sud_interposes_app_syscalls() {
        let mut k = boot_kernel();
        let ip = SudInterposer::new();
        ip.install(&mut k);
        stress_app(10).install(&mut k.vfs);
        let pid = ip.spawn(&mut k, "/usr/bin/stress", &[], &[]).unwrap();
        let exit = k.run(2_000_000_000);
        assert_eq!(exit, sim_kernel::RunExit::AllExited, "run completed");
        let p = k.process(pid).unwrap();
        assert_eq!(p.exit_status, Some(0));
        // All 10 stress syscalls trapped via SIGSYS and were re-issued from
        // the handler library.
        assert!(p.stats.sigsys_count >= 10, "sigsys: {}", p.stats.sigsys_count);
        assert!(
            ip.interposed_count(&k, pid) >= 10,
            "interposed: {:?}",
            p.stats.syscalls_via
        );
    }

    #[test]
    fn armed_mode_never_traps() {
        let mut k = boot_kernel();
        let ip = SudInterposer::armed_only();
        ip.install(&mut k);
        stress_app(10).install(&mut k.vfs);
        let pid = ip.spawn(&mut k, "/usr/bin/stress", &[], &[]).unwrap();
        k.run(2_000_000_000);
        let p = k.process(pid).unwrap();
        assert_eq!(p.exit_status, Some(0));
        assert_eq!(p.stats.sigsys_count, 0);
        assert_eq!(ip.interposed_count(&k, pid), 0);
    }

    #[test]
    fn sud_is_dramatically_slower_than_native() {
        // The shape of Table 5's SUD row: interposing costs ~10-20x.
        let run = |ip: &dyn Interposer| -> (u64, u64) {
            let mut k = boot_kernel();
            ip.install(&mut k);
            stress_app(200).install(&mut k.vfs);
            let pid = ip.spawn(&mut k, "/usr/bin/stress", &[], &[]).unwrap();
            // Cycles consumed once the app's own loop starts: measure whole
            // run; startup dominates neither at n=200 for the ratio check
            // below (we compare slopes instead).
            let start = k.clock;
            k.run(5_000_000_000);
            let p = k.process(pid).unwrap();
            assert_eq!(p.exit_status, Some(0), "{}", ip.label());
            (k.clock - start, p.stats.sigsys_count)
        };
        let (native, _) = run(&crate::Native);
        let (sud, sigsys) = run(&SudInterposer::new());
        assert!(sigsys >= 200);
        let ratio = sud as f64 / native as f64;
        assert!(ratio > 5.0, "expected heavy SUD penalty, got {ratio:.2}x");
    }
}
