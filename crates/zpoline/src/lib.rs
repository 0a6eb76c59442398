//! # zpoline — faithful reproduction of the load-time rewriting interposer
//!
//! Yasukata et al.'s zpoline (USENIX ATC'23), as analyzed by the K23 paper:
//!
//! * at library-constructor time it **statically disassembles** every
//!   executable region present in the process and rewrites each two-byte
//!   `syscall`/`sysenter` it believes it found into `callq *%rax`;
//! * a trampoline mapped at virtual address 0 (a nop sled indexed by the
//!   syscall number in `rax`) funnels rewritten sites into the handler;
//! * the trampoline page is made execute-only with a protection key, so
//!   NULL *reads/writes* still fault;
//! * the `-ultra` variant additionally validates, at handler entry, that the
//!   caller is a known rewritten site — using a **bitmap spanning the whole
//!   virtual address space** (pitfall P4b: 16 TiB of reserved virtual memory
//!   per process);
//! * page permissions are properly saved and restored around the one-time
//!   rewrite (zpoline is *not* affected by P5).
//!
//! Its documented flaws are reproduced, not patched: static disassembly
//! misidentifies sites (P3a) and misses sites (P2a); code loaded or
//! generated after the constructor is never rewritten (P2a); startup and
//! vDSO calls escape entirely (P2b); `LD_PRELOAD` is the sole injection
//! vector (P1a).

use interpose::{env_with_preload, Interposer};
use sim_isa::{disasm, Reg};
use sim_kernel::{nr, Kernel, Pid};
use sim_loader::{ImageBuilder, SimElf};
use sim_mem::{Perms, PAGE_SIZE};
use std::cell::RefCell;
use std::rc::Rc;

/// Install path of the zpoline guest library.
pub const ZPOLINE_LIB: &str = "/usr/lib/libzpoline.so";
/// Base of the full-address-space bitmap mapping (`-ultra` only).
pub const BITMAP_BASE: u64 = 0x0800_0000_0000;
/// Reserved bitmap size: 2^47 addresses / 8 = 16 TiB.
pub const BITMAP_LEN: u64 = 1 << 44;
/// Nop-sled length: the trampoline body starts here, above every syscall
/// number that can appear in `rax`.
pub const SLED_LEN: u64 = 1024;

/// How the constructor locates `syscall` instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanStrategy {
    /// objdump-style linear sweep (the upstream behavior): desynchronizes on
    /// embedded data → both misses (P2a) and misidentifications (P3a).
    LinearSweep,
    /// Raw `0f 05`/`0f 34` byte scan: never misses a true site but rewrites
    /// every partial instruction and data match (maximal P3a).
    ByteScan,
}

/// Host-side statistics of one zpoline instance.
#[derive(Debug, Default, Clone)]
pub struct ZpolineStats {
    /// Addresses rewritten at constructor time.
    pub rewritten: Vec<u64>,
    /// Executable regions scanned.
    pub regions_scanned: usize,
    /// Virtual bytes reserved for the bitmap (0 for `-default`).
    pub bitmap_reserved: u64,
    /// Bytes of bitmap actually materialized.
    pub bitmap_resident: u64,
}

/// The zpoline interposer.
#[derive(Debug, Clone)]
pub struct Zpoline {
    /// Enable the NULL-execution check (the `-ultra` variant).
    pub null_check: bool,
    /// Disassembly strategy for the rewrite scan.
    pub scan: ScanStrategy,
    stats: Rc<RefCell<ZpolineStats>>,
}

impl Zpoline {
    /// `zpoline-default`: no NULL-execution check.
    pub fn default_variant() -> Zpoline {
        Zpoline {
            null_check: false,
            scan: ScanStrategy::LinearSweep,
            stats: Rc::default(),
        }
    }

    /// `zpoline-ultra`: with the bitmap NULL-execution check.
    pub fn ultra() -> Zpoline {
        Zpoline {
            null_check: true,
            scan: ScanStrategy::LinearSweep,
            stats: Rc::default(),
        }
    }

    /// Statistics recorded at constructor time.
    pub fn stats(&self) -> ZpolineStats {
        self.stats.borrow().clone()
    }

    /// Builds the guest library image.
    fn build_lib(&self) -> SimElf {
        let mut b = ImageBuilder::new(ZPOLINE_LIB);
        b.isolated();
        b.init("__host_zpoline_init");
        b.asm.label("__lib_start");

        // Handler: entered from the trampoline; the rewritten call pushed
        // the return address (site + 2) on the stack; rax holds the syscall
        // number; rcx/r11 are dead (the kernel would clobber them anyway).
        b.asm.label("zpoline_handler");
        if self.null_check {
            // NULL-execution check: the caller must be a known rewritten
            // site. The bitmap is keyed by *return address* (site + 2), so
            // the check is a single load + `bt`, as upstream.
            b.asm.load(Reg::R11, Reg::Rsp, 0);
            b.asm.mov_imm(Reg::Rcx, BITMAP_BASE);
            b.asm.bt_mem(Reg::Rcx, Reg::R11);
            b.asm.jcc(sim_isa::Cond::Ae, "__zp_abort");
        }
        // Save the registers a C hook could clobber, marshal its arguments
        // (syscall number + stack pointer), run the (empty) hook, restore,
        // forward.
        for r in [Reg::Rdi, Reg::Rsi, Reg::Rdx, Reg::R10, Reg::R8, Reg::R9] {
            b.asm.push(r);
        }
        b.asm.mov_reg(Reg::Rcx, Reg::Rax);
        b.asm.mov_reg(Reg::R11, Reg::Rsp);
        b.asm.label("zpoline_hook"); // extension point: the empty hook
        for r in [Reg::R9, Reg::R8, Reg::R10, Reg::Rdx, Reg::Rsi, Reg::Rdi] {
            b.asm.pop(r);
        }
        // Restart the forwarded call while it returns EINTR — the
        // interruption targeted the handler, not the application. The
        // number is spilled to the per-thread application stack (rcx/r11
        // are kernel-clobbered at syscall exit, so no register survives).
        // clone bypasses the spill: its child resumes on a fresh stack
        // that must see exactly the pre-handler layout.
        b.asm.cmp_imm(Reg::Rax, nr::SYS_CLONE as i32);
        b.asm.jz("__zp_forward_raw");
        b.asm.push(Reg::Rax);
        b.asm.label("__zp_forward");
        b.asm.syscall();
        b.asm.mov_imm(Reg::R11, nr::err(nr::EINTR));
        b.asm.cmp_reg(Reg::Rax, Reg::R11);
        b.asm.jnz("__zp_forward_done");
        b.asm.load(Reg::Rax, Reg::Rsp, 0);
        b.asm.jmp("__zp_forward");
        b.asm.label("__zp_forward_done");
        b.asm.add_imm(Reg::Rsp, 8);
        b.asm.ret();
        b.asm.label("__zp_forward_raw");
        b.asm.syscall();
        b.asm.ret();

        // Abort path: unknown caller executed the trampoline.
        b.asm.label("__zp_abort");
        b.asm.mov_imm(Reg::Rdi, 134); // 128 + SIGABRT
        b.asm.mov_imm(Reg::Rax, nr::SYS_EXIT_GROUP);
        b.asm.syscall();

        b.hostcall_fn("__host_zpoline_init");
        b.finish()
    }
}

/// Performs the one-time trampoline installation inside the guest `pid`.
///
/// Factored out so lazypoline and K23 can reuse it.
pub fn install_trampoline(k: &mut Kernel, pid: Pid, handler_addr: u64, region_name: &str) {
    let p = k.process_mut(pid).expect("live process");
    p.space
        .map(0, PAGE_SIZE, Perms::RX, region_name)
        .expect("page 0 free");
    let mut tramp = vec![0x90u8; SLED_LEN as usize];
    sim_isa::Inst::MovImm(Reg::R11, handler_addr).encode_into(&mut tramp);
    sim_isa::Inst::JmpReg(Reg::R11).encode_into(&mut tramp);
    p.space.write_raw(0, &tramp).expect("trampoline write");
    // XOM via PKU: reads/writes to page 0 still fault; execution does not
    // (paper §4.4).
    let key = p.next_pkey;
    p.next_pkey += 1;
    p.space.set_pkey(0, PAGE_SIZE, key).expect("pkey");
    for t in &mut p.threads {
        t.cpu.pkru.set_access_disable(key, true);
    }
    // Single choke point for every trampoline user (zpoline, lazypoline,
    // K23): attribute sampled time on the page-0 sled to the mechanism's
    // trampoline stage on the critical-path table.
    if sim_obs::enabled() {
        let stage = region_name.trim_matches(['[', ']']);
        sim_obs::register_span_range(pid, 0, PAGE_SIZE, stage);
    }
}

/// Rewrites one two-byte syscall site to `callq *%rax`, saving and restoring
/// page permissions (the proper dance zpoline performs; lazypoline's flawed
/// version lives in the `lazypoline` crate).
pub fn rewrite_site_properly(k: &mut Kernel, pid: Pid, site: u64) {
    let p = k.process_mut(pid).expect("live process");
    let saved = p.space.page_perms(site).unwrap_or(Perms::RX);
    p.space
        .protect(site & !(PAGE_SIZE - 1), PAGE_SIZE, Perms::RW)
        .expect("mprotect for rewrite");
    p.space
        .write_raw(site, &sim_isa::CALL_RAX_BYTES)
        .expect("rewrite");
    p.space
        .protect(site & !(PAGE_SIZE - 1), PAGE_SIZE, saved)
        .expect("mprotect restore");
}

/// Registers both zpoline variants in the [`interpose::registry`].
pub fn register() {
    interpose::register("zpoline", || Box::new(Zpoline::default_variant()));
    interpose::register("zpoline-ultra", || Box::new(Zpoline::ultra()));
}

impl Interposer for Zpoline {
    fn name(&self) -> &'static str {
        if self.null_check {
            "zpoline-ultra"
        } else {
            "zpoline"
        }
    }

    fn label(&self) -> String {
        if self.null_check {
            "zpoline-ultra".to_string()
        } else {
            "zpoline-default".to_string()
        }
    }

    fn install(&self, k: &mut Kernel) {
        self.build_lib().install(&mut k.vfs);
        sim_obs::register_region_path(ZPOLINE_LIB, &self.label());
        let stats = self.stats.clone();
        let null_check = self.null_check;
        let scan = self.scan;
        k.register_hostcall("__host_zpoline_init", move |k, pid, _tid| {
            zpoline_init(k, pid, null_check, scan, &stats);
        });
    }

    fn spawn(
        &self,
        k: &mut Kernel,
        path: &str,
        argv: &[String],
        env: &[String],
    ) -> Result<Pid, i64> {
        *self.stats.borrow_mut() = ZpolineStats::default();
        let env = env_with_preload(env, ZPOLINE_LIB);
        k.spawn(path, argv, &env, None)
    }

    fn forward_symbols(&self) -> Vec<String> {
        vec!["libzpoline.so:__zp_forward".to_string()]
    }

    fn coverage(&self) -> sim_kernel::AuditSpec {
        // Binary rewriting redirects every rewritten site into the
        // handler; the only channel is the handler's own forwarding
        // re-issue. No SIGSYS, no tracer, and the vDSO stays mapped —
        // its calls are a genuine shadow.
        sim_kernel::AuditSpec {
            mechanism: self.name().to_string(),
            handler_regions: vec!["libzpoline.so".to_string()],
            ..sim_kernel::AuditSpec::default()
        }
    }
}

fn zpoline_init(
    k: &mut Kernel,
    pid: Pid,
    null_check: bool,
    scan: ScanStrategy,
    stats: &Rc<RefCell<ZpolineStats>>,
) {
    let handler = k.process(pid).expect("proc").symbols["libzpoline.so:zpoline_handler"];
    install_trampoline(k, pid, handler, "[zpoline-trampoline]");

    if null_check {
        let p = k.process_mut(pid).expect("proc");
        p.space
            .map(BITMAP_BASE, BITMAP_LEN, Perms::RW, "[zpoline-bitmap]")
            .expect("bitmap reservation");
    }

    // Scan every executable region present at load time — except our own
    // library, the trampoline, and the vDSO (not rewritable in a real
    // process either).
    let targets: Vec<(u64, u64)> = {
        let p = k.process(pid).expect("proc");
        p.space
            .mappings()
            .iter()
            .filter(|m| {
                m.perms.executable()
                    && m.name != ZPOLINE_LIB
                    && m.name != "[zpoline-trampoline]"
                    && m.name != "[vdso]"
            })
            .map(|m| (m.start, m.end))
            .collect()
    };
    let mut sites = Vec::new();
    for (start, end) in &targets {
        let mut bytes = vec![0u8; (*end - *start) as usize];
        let p = k.process_mut(pid).expect("proc");
        if p.space.read_raw(*start, &mut bytes).is_err() {
            continue;
        }
        let found = match scan {
            ScanStrategy::LinearSweep => disasm::sweep_syscall_sites(&bytes, *start),
            ScanStrategy::ByteScan => disasm::scan_syscall_bytes(&bytes, *start),
        };
        sites.extend(found.into_iter().map(|(a, _)| a));
    }

    for &site in &sites {
        rewrite_site_properly(k, pid, site);
        if null_check {
            // Commit the site's bit in the guest bitmap, keyed by the
            // return address the rewritten call pushes (site + 2).
            let ra = site + 2;
            let p = k.process_mut(pid).expect("proc");
            let byte_addr = BITMAP_BASE + ra / 8;
            let mut b = [0u8; 1];
            let _ = p.space.read_raw(byte_addr, &mut b);
            b[0] |= 1 << (ra % 8);
            let _ = p.space.write_raw(byte_addr, &b);
        }
    }

    let p = k.process_mut(pid).expect("proc");
    let mut s = stats.borrow_mut();
    s.regions_scanned = targets.len();
    s.rewritten = sites;
    if null_check {
        s.bitmap_reserved = BITMAP_LEN;
        s.bitmap_resident = p.space.resident_bytes_in(BITMAP_BASE, BITMAP_BASE + BITMAP_LEN);
    }
    k.mark_interposer_live(pid);
    let label = if null_check { "zpoline-ultra" } else { "zpoline-default" };
    interpose::register_handler_span(k, pid, ZPOLINE_LIB, label);
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
    fn rewrites_and_interposes() {
        let mut k = boot_kernel();
        let zp = Zpoline::default_variant();
        zp.install(&mut k);
        stress_app(25).install(&mut k.vfs);
        let pid = zp.spawn(&mut k, "/usr/bin/stress", &[], &[]).unwrap();
        let exit = k.run(5_000_000_000);
        assert_eq!(exit, sim_kernel::RunExit::AllExited);
        let p = k.process(pid).unwrap();
        assert_eq!(p.exit_status, Some(0), "output: {}", p.output_string());
        // The stress site + libc wrappers were rewritten.
        assert!(zp.stats().rewritten.len() > 10);
        // All 25 loop syscalls flowed through the trampoline into the
        // handler's forwarding site.
        assert!(
            zp.interposed_count(&k, pid) >= 25,
            "interposed {}",
            zp.interposed_count(&k, pid)
        );
        assert_eq!(p.stats.sigsys_count, 0); // no SUD involved
    }

    #[test]
    fn ultra_null_check_aborts_stray_trampoline_entry() {
        // A NULL function pointer call: call *%rax with rax = 0.
        let mut b = ImageBuilder::new("/usr/bin/nullcall");
        b.entry("main");
        b.needs(LIBC_PATH);
        b.asm.label("main");
        b.asm.mov_imm(Reg::Rax, 0);
        b.asm.call_reg(Reg::Rax);
        b.asm.mov_imm(Reg::Rax, 0);
        b.asm.ret();

        let mut k = boot_kernel();
        let zp = Zpoline::ultra();
        zp.install(&mut k);
        b.finish().install(&mut k.vfs);
        let pid = zp.spawn(&mut k, "/usr/bin/nullcall", &[], &[]).unwrap();
        k.run(5_000_000_000);
        let p = k.process(pid).unwrap();
        // The check caught it: abort (exit 134), not silent execution.
        assert_eq!(p.exit_status, Some(134));
        assert!(zp.stats().bitmap_reserved == BITMAP_LEN);
        // Bitmap committed far less than it reserved.
        assert!(zp.stats().bitmap_resident < 1 << 20);
    }

    #[test]
    fn default_variant_executes_null_call_silently() {
        // P4a shape: without the check, the NULL call "succeeds" — the
        // bogus syscall (rax = 0 → read) executes and control returns.
        let mut b = ImageBuilder::new("/usr/bin/nullcall");
        b.entry("main");
        b.needs(LIBC_PATH);
        b.asm.label("main");
        b.asm.mov_imm(Reg::Rax, 0);
        b.asm.call_reg(Reg::Rax);
        b.asm.mov_imm(Reg::Rax, 0);
        b.asm.ret();

        let mut k = boot_kernel();
        let zp = Zpoline::default_variant();
        zp.install(&mut k);
        b.finish().install(&mut k.vfs);
        let pid = zp.spawn(&mut k, "/usr/bin/nullcall", &[], &[]).unwrap();
        k.run(5_000_000_000);
        let p = k.process(pid).unwrap();
        assert_eq!(p.exit_status, Some(0), "silently survived the NULL call");
    }

    #[test]
    fn misses_code_mapped_after_init() {
        // P2a: the app mmaps fresh executable code containing a syscall and
        // calls it; zpoline never rewrites it, so the call is NOT interposed.
        let mut b = ImageBuilder::new("/usr/bin/jit");
        b.entry("main");
        b.needs(LIBC_PATH);
        b.asm.label("main");
        // mmap(0, 4096, RWX, 0)
        b.asm.mov_imm(Reg::Rdi, 0);
        b.asm.mov_imm(Reg::Rsi, 4096);
        b.asm.mov_imm(Reg::Rdx, 7);
        b.asm.mov_imm(Reg::R10, 0);
        b.asm.mov_imm(Reg::Rax, nr::SYS_MMAP);
        b.asm.syscall();
        b.asm.mov_reg(Reg::Rbx, Reg::Rax);
        // Synthesize `mov rax, 500; syscall; ret` in the fresh mapping from
        // immediates. (A static template in the binary would itself be
        // rewritten by zpoline's load-time scan -- a genuine hazard for JITs
        // that copy code templates.)
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
        // Call it.
        b.asm.call_reg(Reg::Rbx);
        b.asm.mov_imm(Reg::Rax, 0);
        b.asm.ret();

        let mut k = boot_kernel();
        let zp = Zpoline::default_variant();
        zp.install(&mut k);
        b.finish().install(&mut k.vfs);
        let pid = zp.spawn(&mut k, "/usr/bin/jit", &[], &[]).unwrap();
        k.run(5_000_000_000);
        let p = k.process(pid).unwrap();
        assert_eq!(p.exit_status, Some(0));
        // The JIT-issued syscall executed from the anonymous mapping —
        // uninterposed.
        assert!(p.stats.syscalls_via_region("[anon]") >= 1);
    }
}
