//! # lazypoline — faithful reproduction of the SUD + on-the-fly rewriting
//! interposer
//!
//! Jacobs et al.'s lazypoline (DSN'24), as analyzed by the K23 paper: no
//! static disassembly at all. SUD traps the *first* execution of each
//! `syscall`/`sysenter`; the SIGSYS handler emulates the call and rewrites
//! the trapping instruction to `callq *%rax`, so subsequent executions take
//! the zpoline-style trampoline fast path.
//!
//! The design and implementation flaws the paper documents (§4) are
//! **reproduced on purpose** — they are what Table 3 measures:
//!
//! * **P1b** — SUD can be disarmed by anyone calling
//!   `prctl(PR_SET_SYSCALL_USER_DISPATCH, OFF, ...)`; nothing guards it.
//! * **P3b** — the rewriter trusts `si_call_addr` blindly: if a hijacked
//!   control flow executes data (or a partial instruction) that happens to
//!   encode `0f 05`, that memory is rewritten — corrupting it.
//! * **P4a** — no NULL-execution check at the trampoline: stray jumps to
//!   page 0 silently run the handler instead of faulting.
//! * **P5** — the two-byte rewrite is **not atomic** (modeled as the second
//!   byte landing [`Lazypoline::torn_window`] cycles after the first), no
//!   instruction-stream serialization is broadcast to other cores, and page
//!   permissions are neither saved before nor faithfully restored after the
//!   rewrite (the page is left `r-x` regardless of what it was).

use interpose::handler_asm::{emit_sigsys_handler, emit_sud_ctor, SigsysHandlerOpts, SudCtorOpts};
use interpose::{env_with_preload, Interposer};
use sim_isa::Reg;
use sim_kernel::{nr, Kernel, Pid};
use sim_loader::{ImageBuilder, SimElf};
use sim_mem::{Perms, PAGE_SIZE};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

/// Install path of the lazypoline guest library.
pub const LAZYPOLINE_LIB: &str = "/usr/lib/liblazypoline.so";

/// Host-side state of one lazypoline instance.
#[derive(Debug, Default)]
struct LpState {
    /// Sites rewritten so far, per process (the library's bookkeeping lives
    /// in per-process memory; forked children re-discover their own copies).
    rewritten: BTreeSet<(sim_kernel::Pid, u64)>,
    /// Total rewrites performed.
    rewrite_count: u64,
}

/// The lazypoline interposer.
#[derive(Debug, Clone)]
pub struct Lazypoline {
    /// Cycles between the first and second byte of a rewrite becoming
    /// visible — the torn-write window (P5). The default models a drained
    /// store buffer; PoCs widen it to expose the race deterministically.
    pub torn_window: u64,
    state: Rc<RefCell<LpState>>,
}

impl Lazypoline {
    /// A lazypoline with the default (narrow) torn-write window.
    pub fn new() -> Lazypoline {
        Lazypoline {
            torn_window: 40,
            state: Rc::default(),
        }
    }

    /// A lazypoline whose rewrite visibility window is stretched, making the
    /// P5 race reliably observable under the deterministic scheduler.
    pub fn with_torn_window(window: u64) -> Lazypoline {
        Lazypoline {
            torn_window: window,
            ..Lazypoline::new()
        }
    }

    /// Number of on-the-fly rewrites performed so far.
    pub fn rewrite_count(&self) -> u64 {
        self.state.borrow().rewrite_count
    }

    fn build_lib(&self) -> SimElf {
        let mut b = ImageBuilder::new(LAZYPOLINE_LIB);
        b.isolated();
        b.init("lp_ctor");
        b.asm.label("__lib_start");

        // Fast path: rewritten sites call here through the trampoline.
        b.asm.label("lazypoline_handler");
        b.asm.lea_label(Reg::R11, "__lp_selector");
        b.asm.xor_reg(Reg::Rcx, Reg::Rcx);
        b.asm.store_byte(Reg::R11, 0, Reg::Rcx);
        for r in [Reg::Rdi, Reg::Rsi, Reg::Rdx, Reg::R10, Reg::R8, Reg::R9] {
            b.asm.push(r);
        }
        b.asm.label("lp_hook"); // the empty interposition function
        for r in [Reg::R9, Reg::R8, Reg::R10, Reg::Rdx, Reg::Rsi, Reg::Rdi] {
            b.asm.pop(r);
        }
        // Restart the forward on EINTR, spilling the number to the
        // per-thread application stack (rcx/r11 are kernel-clobbered at
        // syscall exit). clone bypasses the spill: its child resumes on a
        // fresh stack that must see the pre-handler layout.
        b.asm.cmp_imm(Reg::Rax, nr::SYS_CLONE as i32);
        b.asm.jz("__lp_forward_raw");
        b.asm.push(Reg::Rax);
        b.asm.label("__lp_forward");
        b.asm.syscall();
        b.asm.mov_imm(Reg::R11, nr::err(nr::EINTR));
        b.asm.cmp_reg(Reg::Rax, Reg::R11);
        b.asm.jnz("__lp_forward_done");
        b.asm.load(Reg::Rax, Reg::Rsp, 0);
        b.asm.jmp("__lp_forward");
        b.asm.label("__lp_forward_done");
        b.asm.add_imm(Reg::Rsp, 8);
        b.asm.label("__lp_restore_selector");
        b.asm.lea_label(Reg::R11, "__lp_selector");
        b.asm.mov_imm(Reg::Rcx, nr::SYSCALL_DISPATCH_FILTER_BLOCK as u64);
        b.asm.store_byte(Reg::R11, 0, Reg::Rcx);
        b.asm.ret();
        b.asm.label("__lp_forward_raw");
        b.asm.syscall();
        b.asm.jmp("__lp_restore_selector");

        // Rewrite thunk invoked from the SIGSYS handler with
        // rdi = si_call_addr, rsi = syscall nr.
        b.hostcall_fn("__host_lazypoline_rewrite");

        // Slow path: first execution of a site traps here via SUD.
        emit_sigsys_handler(
            &mut b,
            &SigsysHandlerOpts {
                selector_label: "__lp_selector".into(),
                handler_label: "lp_sigsys_handler".into(),
                pre_call: Some("__host_lazypoline_rewrite".into()),
                no_selector_toggle: false,
                forward_label: "__lp_sud_forward".into(),
            },
        );

        b.hostcall_fn("__host_lazypoline_init");
        emit_sud_ctor(
            &mut b,
            &SudCtorOpts {
                ctor_label: "lp_ctor".into(),
                handler_label: "lp_sigsys_handler".into(),
                selector_label: "__lp_selector".into(),
                allowlist: Some(("__lib_start".into(), 0x10_0000)),
                initial_selector: nr::SYSCALL_DISPATCH_FILTER_BLOCK,
                init_hostcall: Some("__host_lazypoline_init".into()),
            },
        );
        b.data_object("__lp_selector", &[nr::SYSCALL_DISPATCH_FILTER_ALLOW]);
        b.finish()
    }
}

impl Default for Lazypoline {
    fn default() -> Self {
        Lazypoline::new()
    }
}

/// Registers lazypoline in the [`interpose::registry`].
pub fn register() {
    interpose::register("lazypoline", || Box::new(Lazypoline::new()));
}

impl Interposer for Lazypoline {
    fn name(&self) -> &'static str {
        "lazypoline"
    }

    fn install(&self, k: &mut Kernel) {
        self.build_lib().install(&mut k.vfs);
        sim_obs::register_region_path(LAZYPOLINE_LIB, &self.label());
        let state = self.state.clone();
        k.register_hostcall("__host_lazypoline_init", move |k, pid, _tid| {
            let _ = &state;
            let handler =
                k.process(pid).expect("proc").symbols["liblazypoline.so:lazypoline_handler"];
            zpoline::install_trampoline(k, pid, handler, "[lazypoline-trampoline]");
            // P4a: *no* NULL-execution check is installed.
            k.mark_interposer_live(pid);
            interpose::register_handler_span(k, pid, LAZYPOLINE_LIB, "lazypoline");
        });
        let state2 = self.state.clone();
        let window = self.torn_window;
        k.register_hostcall("__host_lazypoline_rewrite", move |k, pid, tid| {
            let site = k
                .cpu_mut(pid, tid)
                .map(|c| c.get(Reg::Rdi))
                .unwrap_or_default();
            let mut st = state2.borrow_mut();
            if !st.rewritten.insert((pid, site)) {
                return; // already rewritten (another thread beat us)
            }
            st.rewrite_count += 1;
            drop(st);
            flawed_rewrite(k, pid, site, window);
        });
    }

    fn spawn(
        &self,
        k: &mut Kernel,
        path: &str,
        argv: &[String],
        env: &[String],
    ) -> Result<Pid, i64> {
        *self.state.borrow_mut() = LpState::default();
        let env = env_with_preload(env, LAZYPOLINE_LIB);
        k.spawn(path, argv, &env, None)
    }

    fn forward_symbols(&self) -> Vec<String> {
        vec![
            "liblazypoline.so:__lp_forward".to_string(),
            "liblazypoline.so:__lp_sud_forward".to_string(),
        ]
    }

    fn coverage(&self) -> sim_kernel::AuditSpec {
        // Hybrid: unrewritten sites trap through SUD's SIGSYS, rewritten
        // ones call straight into the handler library. The vDSO is left
        // alone (and SUD never sees its calls), so it stays a shadow.
        sim_kernel::AuditSpec {
            mechanism: self.name().to_string(),
            handler_regions: vec!["liblazypoline.so".to_string()],
            via_sigsys: true,
            ..sim_kernel::AuditSpec::default()
        }
    }
}

/// lazypoline's rewrite, with the paper's P5 flaws intact:
///
/// 1. no validation of the target (P3b — the caller trusts `si_call_addr`);
/// 2. the two bytes are written non-atomically: `0xff` lands now, `0xd0`
///    lands `window` cycles later;
/// 3. no cross-core instruction-stream serialization is requested;
/// 4. the page is made writable for the patch and left `r-x` afterwards —
///    the original permissions are never saved (breaks `rwx` JIT pages and
///    execute-only mappings).
fn flawed_rewrite(k: &mut Kernel, pid: Pid, site: u64, window: u64) {
    let page = site & !(PAGE_SIZE - 1);
    {
        let p = k.process_mut(pid).expect("proc");
        // Make writable without saving what it was…
        if p.space.protect(page, PAGE_SIZE, Perms::RWX).is_err() {
            return;
        }
        // …write the first byte now…
        let _ = p.space.write_raw(site, &[sim_isa::CALL_RAX_BYTES[0]]);
    }
    // …the second becomes visible only after the window (torn state until
    // then)…
    k.defer_write_u8(pid, site + 1, sim_isa::CALL_RAX_BYTES[1], window);
    // …and "restore" to the assumed r-x.
    let p = k.process_mut(pid).expect("proc");
    let _ = p.space.protect(page, PAGE_SIZE, Perms::RX);
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_loader::{boot_kernel, LIBC_PATH};

    fn stress_app(n: u64) -> SimElf {
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
    fn first_call_traps_then_fast_path() {
        let mut k = boot_kernel();
        let lp = Lazypoline::new();
        lp.install(&mut k);
        stress_app(50).install(&mut k.vfs);
        let pid = lp.spawn(&mut k, "/usr/bin/stress", &[], &[]).unwrap();
        let exit = k.run(10_000_000_000);
        assert_eq!(exit, sim_kernel::RunExit::AllExited);
        let p = k.process(pid).unwrap();
        assert_eq!(p.exit_status, Some(0), "output: {}", p.output_string());
        // The loop site trapped once (plus a handful of app/libc sites) and
        // was rewritten; the remaining 49 iterations took the fast path.
        assert!(p.stats.sigsys_count < 20, "sigsys {}", p.stats.sigsys_count);
        assert!(lp.rewrite_count() >= 1);
        assert!(
            lp.interposed_count(&k, pid) >= 50,
            "interposed {}",
            lp.interposed_count(&k, pid)
        );
    }

    #[test]
    fn rewriting_discovers_only_executed_sites() {
        // Unlike zpoline there is no scan: sites never executed are never
        // rewritten.
        let mut k = boot_kernel();
        let lp = Lazypoline::new();
        lp.install(&mut k);
        stress_app(5).install(&mut k.vfs);
        let pid = lp.spawn(&mut k, "/usr/bin/stress", &[], &[]).unwrap();
        k.run(10_000_000_000);
        let p = k.process(pid).unwrap();
        assert_eq!(p.exit_status, Some(0));
        // Far fewer rewrites than zpoline's full-image scan would produce
        // (libc-sim alone has 40+ wrapper sites).
        assert!(lp.rewrite_count() < 15, "rewrites {}", lp.rewrite_count());
    }

    #[test]
    fn p1b_prctl_disables_interposition_silently() {
        // The P1b PoC shape: the app turns SUD off; subsequent syscalls are
        // NOT interposed and nothing aborts.
        let mut b = ImageBuilder::new("/usr/bin/bypass");
        b.entry("main");
        b.needs(LIBC_PATH);
        b.asm.label("main");
        // prctl(PR_SET_SYSCALL_USER_DISPATCH, OFF, 0, 0, 0) — issued raw.
        b.asm.mov_imm(Reg::Rdi, nr::PR_SET_SYSCALL_USER_DISPATCH);
        b.asm.mov_imm(Reg::Rsi, nr::PR_SYS_DISPATCH_OFF);
        b.asm.mov_imm(Reg::Rdx, 0);
        b.asm.mov_imm(Reg::R10, 0);
        b.asm.mov_imm(Reg::R8, 0);
        b.asm.mov_imm(Reg::Rax, nr::SYS_PRCTL);
        b.asm.syscall();
        // 10 now-uninterposed syscalls from a fresh site.
        b.asm.mov_imm(Reg::Rcx, 10);
        b.asm.label("loop");
        b.asm.push(Reg::Rcx);
        b.asm.mov_imm(Reg::Rax, nr::SYS_NONEXISTENT);
        b.asm.label("bypass_site");
        b.asm.syscall();
        b.asm.pop(Reg::Rcx);
        b.asm.sub_imm(Reg::Rcx, 1);
        b.asm.jnz("loop");
        b.asm.mov_imm(Reg::Rax, 0);
        b.asm.ret();

        let mut k = boot_kernel();
        let lp = Lazypoline::new();
        lp.install(&mut k);
        b.finish().install(&mut k.vfs);
        let pid = lp.spawn(&mut k, "/usr/bin/bypass", &[], &[]).unwrap();
        k.run(10_000_000_000);
        let p = k.process(pid).unwrap();
        // Process lived, and the bypass site's syscalls ran directly from
        // the app image — never via the handler.
        assert_eq!(p.exit_status, Some(0));
        let site = p.symbols["bypass:bypass_site"];
        assert_eq!(p.stats.syscalls_at_site(site), 10);
    }

    #[test]
    fn p5_torn_write_crashes_concurrent_thread() {
        // Two threads; the child hammers a syscall site in a tight loop:
        // its first execution triggers the (non-atomic) rewrite. With a
        // stretched visibility window the next fetch sees `ff 05` — a torn,
        // invalid encoding — and the process dies.
        let mut b = ImageBuilder::new("/usr/bin/mt");
        b.entry("main");
        b.needs(LIBC_PATH);
        b.asm.label("main");
        // Allocate a stack for the child: mmap(0, 64k, RW).
        b.asm.mov_imm(Reg::Rdi, 0);
        b.asm.mov_imm(Reg::Rsi, 0x10000);
        b.asm.mov_imm(Reg::Rdx, 3);
        b.asm.mov_imm(Reg::R10, 0);
        b.asm.mov_imm(Reg::Rax, nr::SYS_MMAP);
        b.asm.syscall();
        b.asm.mov_reg(Reg::Rsi, Reg::Rax);
        b.asm.add_imm(Reg::Rsi, 0xfff0);
        // clone(0, child_stack)
        b.asm.mov_imm(Reg::Rdi, 0);
        b.asm.mov_imm(Reg::Rax, nr::SYS_CLONE);
        b.asm.syscall();
        b.asm.test_reg(Reg::Rax, Reg::Rax);
        b.asm.jz("child");
        // Parent: spin long enough for the child to die, then exit.
        b.asm.mov_imm(Reg::Rcx, 5000);
        b.asm.label("spin");
        b.asm.sub_imm(Reg::Rcx, 1);
        b.asm.jnz("spin");
        b.asm.mov_imm(Reg::Rax, 0);
        b.asm.ret();
        // Child: hammer the shared syscall site forever.
        b.asm.label("child");
        b.asm.label("hammer");
        b.asm.mov_imm(Reg::Rax, nr::SYS_NONEXISTENT);
        b.asm.label("shared_site");
        b.asm.syscall();
        b.asm.jmp("hammer");

        let mut k = boot_kernel();
        let lp = Lazypoline::with_torn_window(200_000);
        lp.install(&mut k);
        b.finish().install(&mut k.vfs);
        let pid = lp.spawn(&mut k, "/usr/bin/mt", &[], &[]).unwrap();
        k.run(50_000_000_000);
        let p = k.process(pid).unwrap();
        // The torn instruction killed the process (fatal signal exit).
        assert!(
            p.exit_status.map(|s| s >= 128).unwrap_or(false),
            "expected a crash from the torn rewrite, got {:?}",
            p.exit_status
        );
    }

    #[test]
    fn p5_permissions_not_restored() {
        // An RWX JIT page containing a syscall: after lazypoline's rewrite
        // the page silently becomes r-x, so the JIT's next code write faults.
        let mut b = ImageBuilder::new("/usr/bin/jitw");
        b.entry("main");
        b.needs(LIBC_PATH);
        b.asm.label("main");
        // mmap(0, 4096, RWX)
        b.asm.mov_imm(Reg::Rdi, 0);
        b.asm.mov_imm(Reg::Rsi, 4096);
        b.asm.mov_imm(Reg::Rdx, 7);
        b.asm.mov_imm(Reg::R10, 0);
        b.asm.mov_imm(Reg::Rax, nr::SYS_MMAP);
        b.asm.syscall();
        b.asm.mov_reg(Reg::Rbx, Reg::Rax);
        // Write `mov rax,500; syscall; ret` from immediates, call it.
        let blob: [u8; 16] = {
            let mut v = sim_isa::Inst::MovImm(Reg::Rax, nr::SYS_NONEXISTENT).encode();
            v.extend_from_slice(&sim_isa::SYSCALL_BYTES);
            v.push(0xc3);
            v.resize(16, 0x90);
            v.try_into().unwrap()
        };
        b.asm
            .mov_imm(Reg::Rdx, u64::from_le_bytes(blob[..8].try_into().unwrap()));
        b.asm.store(Reg::Rbx, 0, Reg::Rdx);
        b.asm
            .mov_imm(Reg::Rdx, u64::from_le_bytes(blob[8..].try_into().unwrap()));
        b.asm.store(Reg::Rbx, 8, Reg::Rdx);
        b.asm.call_reg(Reg::Rbx);
        // JIT "recompiles": writing the page again must still work (RWX)…
        b.asm.store(Reg::Rbx, 0, Reg::Rdx);
        b.asm.mov_imm(Reg::Rax, 0);
        b.asm.ret();

        let mut k = boot_kernel();
        let lp = Lazypoline::new();
        lp.install(&mut k);
        b.finish().install(&mut k.vfs);
        let pid = lp.spawn(&mut k, "/usr/bin/jitw", &[], &[]).unwrap();
        k.run(10_000_000_000);
        let p = k.process(pid).unwrap();
        // …but lazypoline left it r-x: the recompile write faults and the
        // process dies with SIGSEGV.
        assert_eq!(p.exit_status, Some(128 + nr::SIGSEGV as i64));
    }
}
