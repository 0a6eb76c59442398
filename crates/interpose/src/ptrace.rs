//! The ptrace-only baseline interposer.
//!
//! Exhaustive from the first instruction and fully expressive, but every
//! syscall costs two stops × two context switches — the "prohibitive
//! performance overhead" of §2.1. K23 reuses this mechanism *only* during
//! startup, where it is the sole option that sees everything.

use crate::Interposer;
use sim_kernel::{Kernel, Pid, Stop, TraceOpts, Tracer, TracerAction};
use std::cell::RefCell;
use std::rc::Rc;

/// The empty-hook tracer used as the ptrace interposition baseline.
#[derive(Debug, Default)]
pub struct EmptyHookTracer {
    /// Syscall-enter stops seen (== syscalls interposed).
    pub interposed: u64,
}

impl Tracer for EmptyHookTracer {
    fn on_stop(&mut self, _k: &mut Kernel, _pid: Pid, _tid: u64, stop: &Stop) -> TracerAction {
        if let Stop::SyscallEnter { .. } = stop {
            self.interposed += 1;
            sim_obs::count(|c| c.ptrace_hooks += 1);
        }
        TracerAction::Continue
    }
}

/// ptrace-based interposition of every syscall, from process start.
#[derive(Debug, Clone, Default)]
pub struct PtraceInterposer {
    state: Rc<RefCell<EmptyHookTracer>>,
}

impl PtraceInterposer {
    /// A fresh instance.
    pub fn new() -> PtraceInterposer {
        PtraceInterposer::default()
    }
}

impl Interposer for PtraceInterposer {
    fn name(&self) -> &'static str {
        "ptrace"
    }

    fn install(&self, _k: &mut Kernel) {}

    fn spawn(
        &self,
        k: &mut Kernel,
        path: &str,
        argv: &[String],
        env: &[String],
    ) -> Result<Pid, i64> {
        let pid = k.spawn(
            path,
            argv,
            env,
            Some((
                self.state.clone(),
                TraceOpts {
                    trace_syscalls: true,
                    trace_exec: true,
                    trace_fork: true,
                    disable_vdso: true,
                },
            )),
        )?;
        // ptrace interposes from the very first instruction — live at spawn.
        k.mark_interposer_live(pid);
        Ok(pid)
    }

    fn interposed_count(&self, _k: &Kernel, _pid: Pid) -> u64 {
        self.state.borrow().interposed
    }

    fn coverage(&self) -> sim_kernel::AuditSpec {
        sim_kernel::AuditSpec {
            mechanism: self.name().to_string(),
            via_tracer: true,
            // Spawned with `disable_vdso`, so would-be vDSO calls fall
            // through to real syscalls the tracer stops on.
            covers_vdso: true,
            ..sim_kernel::AuditSpec::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_isa::Reg;
    use sim_loader::{boot_kernel, ImageBuilder, LIBC_PATH};

    #[test]
    fn ptrace_sees_startup_syscalls() {
        let mut k = boot_kernel();
        let mut b = ImageBuilder::new("/usr/bin/tiny");
        b.entry("main");
        b.needs(LIBC_PATH);
        b.asm.label("main");
        b.asm.mov_imm(Reg::Rax, 0);
        b.asm.ret();
        b.finish().install(&mut k.vfs);
        let ip = PtraceInterposer::new();
        ip.install(&mut k);
        let pid = ip.spawn(&mut k, "/usr/bin/tiny", &[], &[]).unwrap();
        k.run(5_000_000_000);
        let p = k.process(pid).unwrap();
        assert_eq!(p.exit_status, Some(0));
        // Every executed syscall was interposed — including every startup
        // syscall that LD_PRELOAD-based mechanisms miss (P2b).
        assert_eq!(ip.interposed_count(&k, pid), p.stats.syscalls);
        assert!(p.stats.syscalls > 50);
    }

    #[test]
    fn ptrace_overhead_is_prohibitive() {
        let stress = |with_tracer: bool| {
            let mut k = boot_kernel();
            let mut b = ImageBuilder::new("/usr/bin/st");
            b.entry("main");
            b.needs(LIBC_PATH);
            b.asm.label("main");
            b.asm.mov_imm(Reg::Rcx, 100);
            b.asm.label("loop");
            b.asm.push(Reg::Rcx);
            b.asm.mov_imm(Reg::Rax, 500);
            b.asm.syscall();
            b.asm.pop(Reg::Rcx);
            b.asm.sub_imm(Reg::Rcx, 1);
            b.asm.jnz("loop");
            b.asm.mov_imm(Reg::Rax, 0);
            b.asm.ret();
            b.finish().install(&mut k.vfs);
            let pid = if with_tracer {
                let ip = PtraceInterposer::new();
                ip.spawn(&mut k, "/usr/bin/st", &[], &[]).unwrap()
            } else {
                k.spawn("/usr/bin/st", &[], &[], None).unwrap()
            };
            k.run(10_000_000_000);
            assert_eq!(k.process(pid).unwrap().exit_status, Some(0));
            k.clock
        };
        let native = stress(false);
        let traced = stress(true);
        let ratio = traced as f64 / native as f64;
        assert!(ratio > 10.0, "ptrace should be far slower; got {ratio:.1}x");
    }
}
