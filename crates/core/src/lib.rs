//! # k23 — pitfall-resilient system call interposition
//!
//! The reproduction of the paper's primary contribution: **K23**, a
//! plug-and-play interposer combining an *offline phase* (an SUD-based
//! logger identifying legitimate `syscall`/`sysenter` sites under
//! representative inputs) with an *online phase* (a startup `ptracer` for
//! exhaustive coverage from the first instruction, a single selective
//! zpoline-style rewrite of the pre-validated sites, and an SUD fallback
//! for everything else).
//!
//! How each pitfall is addressed (Table 3):
//!
//! | Pitfall | Mechanism |
//! |---|---|
//! | P1a interposition bypass via env | the ptracer rewrites `execve` environments to force `LD_PRELOAD` |
//! | P1b SUD disable via `prctl` | both handler paths intercept `prctl` and abort the process |
//! | P2a overlooked sites | SUD fallback interposes anything unrewritten |
//! | P2b startup + vDSO calls | ptracer from instruction zero; vDSO disabled at exec |
//! | P3a/P3b misidentification | rewriting limited to offline-validated sites, re-verified byte-for-byte at init; never rewrites at runtime |
//! | P4a NULL-execution | `-ultra` validates callers against a hash set of known sites |
//! | P4b bitmap memory | the hash set is bounded by the offline log (KiBs, not TiBs) |
//! | P5 runtime rewriting races | one rewriting step, before app threads exist; atomic writes; permissions saved/restored |
//!
//! ## Quickstart
//!
//! ```
//! use k23::{K23, Variant, OfflineSession};
//! use interpose::Interposer;
//!
//! // Boot a simulated machine and install a tiny guest app.
//! let mut kernel = sim_loader::boot_kernel();
//! let mut app = sim_loader::ImageBuilder::new("/usr/bin/demo");
//! app.entry("main").needs(sim_loader::LIBC_PATH);
//! app.asm.label("main");
//! app.asm.mov_imm(sim_isa::Reg::Rax, 0);
//! app.asm.ret();
//! app.finish().install(&mut kernel.vfs);
//!
//! // Offline phase: log the app's syscall sites.
//! let session = OfflineSession::new(&mut kernel, "/usr/bin/demo");
//! session.run_once(&mut kernel, &[], &[], 1_000_000_000).unwrap();
//! let log = session.finish(&mut kernel);
//!
//! // Online phase: run under K23.
//! let k23 = K23::new(Variant::Ultra);
//! k23.install(&mut kernel);
//! let pid = k23.spawn(&mut kernel, "/usr/bin/demo", &[], &[]).unwrap();
//! kernel.run(10_000_000_000);
//! assert_eq!(kernel.process(pid).unwrap().exit_status, Some(0));
//! assert_eq!(k23.stats().rewritten.len(), log.len());
//! ```

pub mod libk23;
pub mod log;
pub mod offline;
pub mod online;
pub mod ptracer;

pub use libk23::{build_libk23, GOLDEN, K23_LIB, TABLE_BITS};
pub use log::{SiteEntry, SiteLog, LOG_DIR};
pub use offline::{build_logger_lib, needs_offline, OfflineSession, LOGGER_LIB};
pub use online::{register, K23Stats, K23};
pub use ptracer::{force_preload_in_execve, K23Ptracer, PreloadGuard, PtracerState};

/// K23's feature variants (paper Table 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// No NULL-execution check, no stack switch — the high-performance
    /// configuration.
    Default,
    /// Adds the NULL-execution check (hash-set caller validation).
    Ultra,
    /// Adds the NULL-execution check *and* the dedicated-stack switch — the
    /// security/debugging configuration.
    UltraPlus,
}

impl Variant {
    /// All variants, in Table 4 order.
    pub const ALL: [Variant; 3] = [Variant::Default, Variant::Ultra, Variant::UltraPlus];

    /// Whether the NULL-execution check is enabled.
    pub fn null_check(self) -> bool {
        !matches!(self, Variant::Default)
    }

    /// Whether the dedicated-stack switch is enabled.
    pub fn stack_switch(self) -> bool {
        matches!(self, Variant::UltraPlus)
    }

    /// The paper's configuration label.
    pub fn label(self) -> &'static str {
        match self {
            Variant::Default => "K23-default",
            Variant::Ultra => "K23-ultra",
            Variant::UltraPlus => "K23-ultra+",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use interpose::Interposer;
    use sim_isa::Reg;
    use sim_kernel::nr;
    use sim_loader::{boot_kernel, ImageBuilder, SimElf, LIBC_PATH};

    fn stress_app(n: u64) -> SimElf {
        let mut b = ImageBuilder::new("/usr/bin/stress");
        b.entry("main");
        b.needs(LIBC_PATH);
        b.asm.label("main");
        b.asm.mov_imm(Reg::Rcx, n);
        b.asm.label("loop");
        b.asm.push(Reg::Rcx);
        b.asm.mov_imm(Reg::Rax, nr::SYS_NONEXISTENT);
        b.asm.label("stress_site");
        b.asm.syscall();
        b.asm.pop(Reg::Rcx);
        b.asm.sub_imm(Reg::Rcx, 1);
        b.asm.jnz("loop");
        b.asm.mov_imm(Reg::Rax, 0);
        b.asm.ret();
        b.finish()
    }

    /// Runs the offline phase for `stress`, returning the kernel (with the
    /// sealed log) for online use.
    fn offline_then_kernel(n: u64) -> sim_kernel::Kernel {
        let mut k = boot_kernel();
        stress_app(n).install(&mut k.vfs);
        let session = OfflineSession::new(&mut k, "/usr/bin/stress");
        let (_pid, exit) = session.run_once(&mut k, &[], &[], 50_000_000_000).unwrap();
        assert_eq!(exit, sim_kernel::RunExit::AllExited);
        assert!(session.site_count() > 0);
        session.finish(&mut k);
        k
    }

    #[test]
    fn offline_phase_follows_the_base_of_a_composed_spec() {
        assert!(needs_offline("k23-ultra+"));
        assert!(needs_offline("k23+tracer"));
        assert!(needs_offline("k23-ultra+tracer"));
        assert!(!needs_offline("zpoline+recorder"));
        assert!(!needs_offline("native"));
    }

    #[test]
    fn offline_phase_logs_stable_sites() {
        let mut k = boot_kernel();
        stress_app(10).install(&mut k.vfs);
        let session = OfflineSession::new(&mut k, "/usr/bin/stress");
        session.run_once(&mut k, &[], &[], 50_000_000_000).unwrap();
        let log = session.finish(&mut k);
        // The loop site (app image) and a couple of stub/libc sites.
        assert!(
            log.entries
                .iter()
                .any(|e| e.region == "/usr/bin/stress"),
            "log: {:?}",
            log.entries
        );
        // Log dir is sealed.
        assert!(k
            .vfs
            .write_file("/k23/logs/evil.log", b"x")
            .is_err());
        // Entries are (region, offset) — no absolute addresses.
        for e in &log.entries {
            assert!(e.offset < 0x10_0000, "offset looks absolute: {e:?}");
        }
    }

    #[test]
    fn online_rewrites_logged_sites_and_interposes_everything() {
        for variant in Variant::ALL {
            let mut k = offline_then_kernel(20);
            let k23 = K23::new(variant);
            k23.install(&mut k);
            let pid = k23.spawn(&mut k, "/usr/bin/stress", &[], &[]).unwrap();
            let exit = k.run(100_000_000_000);
            assert_eq!(exit, sim_kernel::RunExit::AllExited, "{variant:?}");
            let p = k.process(pid).unwrap();
            assert_eq!(p.exit_status, Some(0), "{variant:?}: {}", p.output_string());
            // The single rewriting step hit the offline-logged sites.
            assert!(!k23.stats().rewritten.is_empty(), "{variant:?}");
            // Every executed syscall was interposed: by the ptracer during
            // startup, by the trampoline fast path, or by the SUD fallback.
            assert_eq!(
                k23.interposed_count(&k, pid),
                p.stats.syscalls,
                "{variant:?}: via {:?}",
                p.stats.syscalls_via
            );
            // And the ptracer really detached after the handoff.
            assert!(!k.is_traced(pid), "{variant:?}");
            assert_eq!(k23.handoffs(), 1, "{variant:?}");
        }
    }

    #[test]
    fn fast_path_dominates_after_rewrite() {
        let mut k = offline_then_kernel(200);
        let k23 = K23::new(Variant::Default);
        k23.install(&mut k);
        let pid = k23.spawn(&mut k, "/usr/bin/stress", &[], &[]).unwrap();
        k.run(100_000_000_000);
        let p = k.process(pid).unwrap();
        assert_eq!(p.exit_status, Some(0));
        let fast = p.stats.syscalls_at_site(p.symbols["libk23.so:__k23_forward"]);
        // All 200 loop syscalls took the rewritten fast path, not SIGSYS.
        assert!(fast >= 200, "fast={fast} via={:?}", p.stats.syscalls_via);
        assert!(
            p.stats.sigsys_count < 20,
            "fallback should be rare: {}",
            p.stats.sigsys_count
        );
    }

    #[test]
    fn unlogged_sites_fall_back_to_sud() {
        // Run offline on the plain stress app, but execute online with an
        // *additional* code path (argv-dependent) whose site was never
        // logged: it must still be interposed (via SIGSYS), addressing P2a.
        let mut b = ImageBuilder::new("/usr/bin/twopath");
        b.entry("main");
        b.needs(LIBC_PATH);
        b.asm.label("main");
        // if argc > 1 use the "cold" site
        b.asm.cmp_imm(Reg::Rdi, 1);
        b.asm.jcc(sim_isa::Cond::G, "cold");
        b.asm.mov_imm(Reg::Rax, nr::SYS_NONEXISTENT);
        b.asm.label("hot_site");
        b.asm.syscall();
        b.asm.mov_imm(Reg::Rax, 0);
        b.asm.ret();
        b.asm.label("cold");
        b.asm.mov_imm(Reg::Rax, nr::SYS_NONEXISTENT);
        b.asm.label("cold_site");
        b.asm.syscall();
        b.asm.mov_imm(Reg::Rax, 0);
        b.asm.ret();

        let mut k = boot_kernel();
        b.finish().install(&mut k.vfs);
        let session = OfflineSession::new(&mut k, "/usr/bin/twopath");
        // Offline run with argc == 1: only the hot path is exercised.
        session
            .run_once(&mut k, &["twopath".into()], &[], 50_000_000_000)
            .unwrap();
        session.finish(&mut k);

        let k23 = K23::new(Variant::Ultra);
        k23.install(&mut k);
        // Online run takes the cold path.
        let pid = k23
            .spawn(
                &mut k,
                "/usr/bin/twopath",
                &["twopath".into(), "-x".into()],
                &[],
            )
            .unwrap();
        k.run(100_000_000_000);
        let p = k.process(pid).unwrap();
        assert_eq!(p.exit_status, Some(0));
        // The cold site itself was never rewritten…
        let cold = p.symbols["twopath:cold_site"];
        assert!(!k23.stats().rewritten.contains(&cold));
        // …and never executed natively: zero syscalls from that address;
        // it trapped into the SUD fallback instead.
        assert_eq!(p.stats.syscalls_at_site(cold), 0);
        let sud = p.stats.syscalls_at_site(p.symbols["libk23.so:__k23_sud_forward"]);
        assert!(sud >= 1, "via: {:?}", p.stats.syscalls_via);
    }

    #[test]
    fn prctl_disable_attempt_aborts() {
        // P1b defense: the Listing 2 attack kills the process instead of
        // silently disabling interposition.
        let mut b = ImageBuilder::new("/usr/bin/bypass");
        b.entry("main");
        b.needs(LIBC_PATH);
        b.asm.label("main");
        b.asm.mov_imm(Reg::Rdi, nr::PR_SET_SYSCALL_USER_DISPATCH);
        b.asm.mov_imm(Reg::Rsi, nr::PR_SYS_DISPATCH_OFF);
        b.asm.mov_imm(Reg::Rdx, 0);
        b.asm.mov_imm(Reg::R10, 0);
        b.asm.mov_imm(Reg::R8, 0);
        b.asm.mov_imm(Reg::Rax, nr::SYS_PRCTL);
        b.asm.syscall();
        b.asm.mov_imm(Reg::Rax, 0);
        b.asm.ret();

        let mut k = boot_kernel();
        b.finish().install(&mut k.vfs);
        let k23 = K23::new(Variant::Default);
        k23.install(&mut k);
        let pid = k23.spawn(&mut k, "/usr/bin/bypass", &[], &[]).unwrap();
        k.run(100_000_000_000);
        let p = k.process(pid).unwrap();
        assert_eq!(p.exit_status, Some(134), "must abort, not bypass");
        assert!(k23.stats().prctl_blocks >= 1);
    }

    #[test]
    fn ultra_aborts_stray_trampoline_entry() {
        // P4a defense: a NULL function-pointer call aborts under -ultra.
        let mut b = ImageBuilder::new("/usr/bin/nullcall");
        b.entry("main");
        b.needs(LIBC_PATH);
        b.asm.label("main");
        b.asm.mov_imm(Reg::Rax, 0);
        b.asm.call_reg(Reg::Rax);
        b.asm.mov_imm(Reg::Rax, 0);
        b.asm.ret();

        let mut k = boot_kernel();
        b.finish().install(&mut k.vfs);
        let k23 = K23::new(Variant::Ultra);
        k23.install(&mut k);
        let pid = k23.spawn(&mut k, "/usr/bin/nullcall", &[], &[]).unwrap();
        k.run(100_000_000_000);
        let p = k.process(pid).unwrap();
        assert_eq!(p.exit_status, Some(134));
        // The P4b contrast: KiBs of hash set, not TiBs of bitmap.
        assert!(k23.stats().table_bytes <= 64 * 1024);
    }

    #[test]
    fn startup_syscalls_are_interposed_and_handed_off() {
        // P2b: the ptracer sees every startup syscall, and the count is
        // delivered into libK23's guest state via the fake syscall.
        let mut k = offline_then_kernel(5);
        let k23 = K23::new(Variant::Default);
        k23.install(&mut k);
        let pid = k23.spawn(&mut k, "/usr/bin/stress", &[], &[]).unwrap();
        k.run(100_000_000_000);
        let p = k.process(pid).unwrap();
        assert_eq!(p.exit_status, Some(0));
        // The stress app links only libc, so its startup footprint is
        // smaller than ls-class binaries (which exceed 100, see the apps
        // crate); it is still substantial.
        assert!(
            k23.startup_syscalls() > 50,
            "ptracer saw {} startup syscalls",
            k23.startup_syscalls()
        );
        // The handed-off count is visible in libK23's state area.
        let state_addr = p.symbols["libk23.so:__k23_state"];
        let mut buf = [0u8; 8];
        let p = k.process_mut(pid).unwrap();
        p.space.read_raw(state_addr, &mut buf).unwrap();
        let handed = u64::from_le_bytes(buf);
        assert!(handed > 50, "handoff value {handed}");
    }

    #[test]
    fn reused_instance_starts_each_kernel_from_zeroed_state() {
        // Runs the stress app under `k23` on a fresh kernel and returns the
        // startup count the ptracer handed to libK23's state word.
        let run = |k23: &K23| {
            let mut k = offline_then_kernel(5);
            k23.install(&mut k);
            let pid = k23.spawn(&mut k, "/usr/bin/stress", &[], &[]).unwrap();
            k.run(100_000_000_000);
            let p = k.process_mut(pid).unwrap();
            assert_eq!(p.exit_status, Some(0));
            let state_addr = p.symbols["libk23.so:__k23_state"];
            let mut buf = [0u8; 8];
            p.space.read_raw(state_addr, &mut buf).unwrap();
            u64::from_le_bytes(buf)
        };
        let fresh = K23::new(Variant::Default);
        let want = (run(&fresh), fresh.startup_syscalls(), fresh.handoffs());
        assert!(want.0 > 0 && want.0 == want.1, "{want:?}");
        let reused = K23::new(Variant::Default);
        run(&reused);
        let got = (run(&reused), reused.startup_syscalls(), reused.handoffs());
        assert_eq!(got, want, "(handoff word, startup_syscalls, handoffs)");
    }

    #[test]
    fn guest_write_into_the_sealed_log_fails_with_eperm() {
        // §5.3 hardening: once the offline phase seals the log directory,
        // an application that opens its log for writing cannot change it.
        let mut k = offline_then_kernel(5);
        let log = SiteLog::path_for("/usr/bin/stress");
        let sealed = k.vfs.read_file(&log).unwrap().to_vec();
        let mut b = ImageBuilder::new("/usr/bin/tamper");
        b.entry("main");
        b.needs(LIBC_PATH);
        b.asm.label("main");
        b.asm.mov_imm(Reg::Rdi, (-100i64) as u64); // AT_FDCWD
        b.asm.lea_label(Reg::Rsi, "log");
        b.asm.mov_imm(Reg::Rdx, 1); // O_WRONLY
        b.call_import("openat");
        b.asm.mov_reg(Reg::Rdi, Reg::Rax);
        b.asm.lea_label(Reg::Rsi, "junk");
        b.asm.mov_imm(Reg::Rdx, 4);
        b.call_import("write");
        b.asm.ret(); // exit status = write's return value
        b.data_object("log", format!("{log}\0").as_bytes());
        b.data_object("junk", b"junk");
        b.finish().install(&mut k.vfs);
        let pid = k.spawn("/usr/bin/tamper", &[], &[], None).unwrap();
        k.run(100_000_000_000);
        assert_eq!(k.process(pid).unwrap().exit_status, Some(-nr::EPERM));
        assert_eq!(k.vfs.read_file(&log).unwrap(), &sealed[..]);
    }

    #[test]
    fn execve_with_cleared_env_still_interposed() {
        // P1a: the child execs with an EMPTY environment (Listing 1); K23's
        // guards force LD_PRELOAD back and re-attach the ptracer, so the
        // new image is fully interposed.
        let mut child = ImageBuilder::new("/usr/bin/childapp");
        child.entry("main");
        child.needs(LIBC_PATH);
        child.asm.label("main");
        child.asm.mov_imm(Reg::Rcx, 5);
        child.asm.label("loop");
        child.asm.push(Reg::Rcx);
        child.asm.mov_imm(Reg::Rax, nr::SYS_NONEXISTENT);
        child.asm.label("child_site");
        child.asm.syscall();
        child.asm.pop(Reg::Rcx);
        child.asm.sub_imm(Reg::Rcx, 1);
        child.asm.jnz("loop");
        child.asm.mov_imm(Reg::Rax, 0);
        child.asm.ret();

        let mut parent = ImageBuilder::new("/usr/bin/parentapp");
        parent.entry("main");
        parent.needs(LIBC_PATH);
        parent.asm.label("main");
        // execve("/usr/bin/childapp", NULL, NULL) — environment cleared.
        parent.asm.lea_label(Reg::Rdi, "path");
        parent.asm.mov_imm(Reg::Rsi, 0);
        parent.asm.mov_imm(Reg::Rdx, 0);
        parent.asm.mov_imm(Reg::Rax, nr::SYS_EXECVE);
        parent.asm.syscall();
        parent.asm.mov_imm(Reg::Rax, 1); // unreachable on success
        parent.asm.ret();
        parent.data_object("path", b"/usr/bin/childapp\0");

        let mut k = boot_kernel();
        child.finish().install(&mut k.vfs);
        parent.finish().install(&mut k.vfs);
        let k23 = K23::new(Variant::Default);
        k23.install(&mut k);
        let pid = k23.spawn(&mut k, "/usr/bin/parentapp", &[], &[]).unwrap();
        k.run(100_000_000_000);
        let p = k.process(pid).unwrap();
        assert_eq!(p.exit_status, Some(0), "out: {}", p.output_string());
        assert_eq!(p.exe, "/usr/bin/childapp");
        assert!(k23.stats().execve_reattach >= 1);
        // The new image's syscalls were all interposed (the child_site
        // never executed natively — it SUD-trapped or was startup-traced).
        let site = p.symbols["childapp:child_site"];
        assert_eq!(p.stats.syscalls_at_site(site), 0);
    }
}
