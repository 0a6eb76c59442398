//! The K23 interposer: online-phase wiring (paper §5.2, Figure 4).

use crate::libk23::{build_libk23, k23_init};
use crate::ptracer::{force_preload_in_execve, K23Ptracer, PtracerState};
use crate::{Variant, K23_LIB};
use interpose::{env_with_preload, Interposer};
use sim_isa::Reg;
use sim_kernel::signal::{uc_reg, FRAME_SIZE};
use sim_kernel::{nr, Kernel, Pid, TraceOpts};
use std::cell::RefCell;
use std::rc::Rc;

/// Host-observable state of a K23 instance.
#[derive(Debug, Default, Clone)]
pub struct K23Stats {
    /// Sites rewritten during the single rewriting step.
    pub rewritten: Vec<u64>,
    /// Guest bytes used by the hash set (0 for `-default`) — contrast with
    /// zpoline's 16 TiB bitmap reservation (P4b).
    pub table_bytes: u64,
    /// Hostile `prctl` attempts blocked (P1b).
    pub prctl_blocks: u64,
    /// `execve` calls intercepted for re-attachment (P1a).
    pub execve_reattach: u64,
}

/// The K23 interposer (all variants).
#[derive(Debug, Clone)]
pub struct K23 {
    /// The feature variant (Table 4).
    pub variant: Variant,
    stats: Rc<RefCell<K23Stats>>,
    ptracer_state: Rc<RefCell<PtracerState>>,
}

impl K23 {
    /// A K23 instance of the given variant.
    pub fn new(variant: Variant) -> K23 {
        K23 {
            variant,
            stats: Rc::default(),
            ptracer_state: Rc::default(),
        }
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> K23Stats {
        self.stats.borrow().clone()
    }

    /// Syscalls the startup ptracer interposed before detaching (P2b
    /// coverage).
    pub fn startup_syscalls(&self) -> u64 {
        self.ptracer_state.borrow().startup_syscalls
    }

    /// Number of state handoffs performed via fake syscalls.
    pub fn handoffs(&self) -> u64 {
        self.ptracer_state.borrow().handoffs
    }

    fn trace_opts() -> TraceOpts {
        TraceOpts {
            trace_syscalls: true,
            trace_exec: true,
            trace_fork: true,
            // Force vDSO users onto real syscall instructions (§5.2).
            disable_vdso: true,
        }
    }
}

/// Registers all three K23 variants in the [`interpose::registry`].
pub fn register() {
    interpose::register("k23", || Box::new(K23::new(crate::Variant::Default)));
    interpose::register("k23-ultra", || Box::new(K23::new(crate::Variant::Ultra)));
    interpose::register("k23-ultra+", || Box::new(K23::new(crate::Variant::UltraPlus)));
}

impl Interposer for K23 {
    fn name(&self) -> &'static str {
        match self.variant {
            crate::Variant::Default => "k23",
            crate::Variant::Ultra => "k23-ultra",
            crate::Variant::UltraPlus => "k23-ultra+",
        }
    }

    fn label(&self) -> String {
        self.variant.label().to_string()
    }

    /// Each kernel starts from zeroed statistics and ptracer state, so
    /// counts and the startup handoff word never carry over from a kernel
    /// the instance was installed into before.
    fn install(&self, k: &mut Kernel) {
        *self.stats.borrow_mut() = K23Stats::default();
        *self.ptracer_state.borrow_mut() = PtracerState::default();
        build_libk23(self.variant).install(&mut k.vfs);
        sim_obs::register_region_path(K23_LIB, &self.label());

        let variant = self.variant;
        let stats = self.stats.clone();
        k.register_hostcall("__host_k23_init", move |k, pid, _tid| {
            k23_init(k, pid, variant, &stats);
            interpose::register_handler_span(k, pid, K23_LIB, variant.label());
        });

        // Fast-path prctl guard: abort on any attempt to reconfigure SUD
        // from application code (P1b).
        let stats = self.stats.clone();
        k.register_hostcall("__host_k23_prctl_guard", move |k, pid, tid| {
            let hostile = k
                .cpu_mut(pid, tid)
                .map(|c| c.get(Reg::Rdi) == nr::PR_SET_SYSCALL_USER_DISPATCH)
                .unwrap_or(false);
            if hostile {
                stats.borrow_mut().prctl_blocks += 1;
                k.kill_process(pid, 134);
            }
        });

        // Fast-path execve guard: force LD_PRELOAD and re-attach the
        // ptracer so the whole online phase repeats in the new image
        // (P1a + §5.3).
        let stats = self.stats.clone();
        let pstate = self.ptracer_state.clone();
        k.register_hostcall("__host_k23_execve_reattach", move |k, pid, tid| {
            stats.borrow_mut().execve_reattach += 1;
            let envp = k
                .cpu_mut(pid, tid)
                .map(|c| c.get(Reg::Rdx))
                .unwrap_or_default();
            force_preload_in_execve(k, pid, tid, envp, K23_LIB);
            let tracer = Rc::new(RefCell::new(K23Ptracer::with_state(pstate.clone())));
            k.attach_tracer(pid, tracer, K23::trace_opts());
        });

        // Fallback-path guard: same defenses, reading the trapped call's
        // registers from the signal frame.
        let stats = self.stats.clone();
        let pstate = self.ptracer_state.clone();
        k.register_hostcall("__host_k23_sud_guard", move |k, pid, tid| {
            let (call_nr, frame) = {
                let Some(cpu) = k.cpu_mut(pid, tid) else {
                    return;
                };
                let call_nr = cpu.get(Reg::Rsi); // pre_call: rsi = trapped nr
                let Some(p) = k.process(pid) else { return };
                let Some(t) = p.thread(tid) else { return };
                let Some(&frame) = t.sig_frames.last() else {
                    return;
                };
                (call_nr, frame)
            };
            let saved_reg = |k: &mut Kernel, r: Reg| -> u64 {
                let p = k.process_mut(pid).expect("proc");
                let mut b = [0u8; 8];
                let _ = p.space.read_raw(frame + uc_reg(r), &mut b);
                u64::from_le_bytes(b)
            };
            let _ = FRAME_SIZE;
            match call_nr {
                nr::SYS_PRCTL
                    if saved_reg(k, Reg::Rdi) == nr::PR_SET_SYSCALL_USER_DISPATCH => {
                        stats.borrow_mut().prctl_blocks += 1;
                        k.kill_process(pid, 134);
                    }
                nr::SYS_EXECVE => {
                    stats.borrow_mut().execve_reattach += 1;
                    let envp = saved_reg(k, Reg::Rdx);
                    // The fallback handler re-issues the syscall from the
                    // *saved* registers, so the fix goes into the frame.
                    if let Some(new_envp) =
                        crate::ptracer::build_fixed_envp(k, pid, tid, envp, K23_LIB)
                    {
                        let p = k.process_mut(pid).expect("proc");
                        let _ = p
                            .space
                            .write_raw(frame + uc_reg(Reg::Rdx), &new_envp.to_le_bytes());
                    }
                    let tracer = Rc::new(RefCell::new(K23Ptracer::with_state(pstate.clone())));
                    k.attach_tracer(pid, tracer, K23::trace_opts());
                }
                _ => {}
            }
        });
    }

    fn spawn(
        &self,
        k: &mut Kernel,
        path: &str,
        argv: &[String],
        env: &[String],
    ) -> Result<Pid, i64> {
        let env = env_with_preload(env, K23_LIB);
        let tracer = Rc::new(RefCell::new(K23Ptracer::with_state(
            self.ptracer_state.clone(),
        )));
        k.spawn(path, argv, &env, Some((tracer, K23::trace_opts())))
    }

    fn forward_symbols(&self) -> Vec<String> {
        vec![
            "libk23.so:__k23_forward".to_string(),
            "libk23.so:__k23_sud_forward".to_string(),
            // The fake control syscalls are interposer-internal: 600 is
            // absorbed by the ptracer; 601 executes once as the detach
            // signal. Both sites belong to the mechanism itself, as does
            // the fallback handler's rt_sigreturn.
            "libk23.so:__k23_fake1".to_string(),
            "libk23.so:__k23_fake2".to_string(),
            "libk23.so:__k23_sud_forward_sigreturn".to_string(),
            // ultra+ only (absent symbols are skipped when counting).
            "libk23.so:__k23_forward_noswitch".to_string(),
        ]
    }

    /// Only the sites that re-issue *application* syscalls: the fake
    /// control syscalls (600/601) and the fallback handler's internal
    /// rt_sigreturn belong to the mechanism and must not enter a
    /// composed stack's chain.
    fn chain_symbols(&self) -> Vec<String> {
        vec![
            "libk23.so:__k23_forward".to_string(),
            "libk23.so:__k23_sud_forward".to_string(),
            "libk23.so:__k23_forward_noswitch".to_string(),
        ]
    }

    /// K23's interposed count also includes the syscalls its startup
    /// ptracer covered — the component other interposers simply lack.
    fn interposed_count(&self, k: &Kernel, pid: Pid) -> u64 {
        interpose::count_at_symbols(k, pid, &self.forward_symbols())
            + self.ptracer_state.borrow().startup_syscalls
    }

    fn coverage(&self) -> sim_kernel::AuditSpec {
        // All three channels at once: the startup ptracer (which also
        // disables the vDSO and follows fork/exec), the SUD fallback
        // handler, and the handler library's selective-rewrite re-issues.
        // This is why K23 tops the coverage table (paper Table 3).
        sim_kernel::AuditSpec {
            mechanism: self.name().to_string(),
            handler_regions: vec!["libk23.so".to_string()],
            via_tracer: true,
            via_sigsys: true,
            covers_vdso: true,
        }
    }
}
