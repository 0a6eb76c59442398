//! Shared fixtures for the integration tests in `tests/tests/` and
//! `crates/bench/tests/`.
//!
//! The multi-core self-modifying-code (SMC) guest lives here so both the
//! engine-determinism suite and the observability suite can drive the
//! same worst-case workload, and so does [`assert_pinned`], the byte
//! comparison every pin of a committed artifact makes.

use std::collections::BTreeMap;

use sim_isa::{Asm, Reg};
use sim_kernel::{nr, ExecLoader, ExecOpts, LoadedImage, Vfs};
use sim_mem::AddressSpace;

/// Loader stub mapping raw code **RWX** so the guest can patch itself.
pub struct RwxLoader(pub Vec<u8>);

impl ExecLoader for RwxLoader {
    fn load(
        &self,
        _vfs: &mut Vfs,
        _path: &str,
        _argv: &[String],
        _env: &[String],
        _opts: &ExecOpts,
    ) -> Result<LoadedImage, i64> {
        let mut space = AddressSpace::new();
        space
            .map(0x1000, 0x10000, sim_mem::Perms::RWX, "/bin/smc")
            .map_err(|_| -nr::ENOMEM)?;
        space.write_raw(0x1000, &self.0).map_err(|_| -nr::ENOMEM)?;
        space
            .map(0x8_0000, 0x10000, sim_mem::Perms::RW, "[stack]")
            .map_err(|_| -nr::ENOMEM)?;
        Ok(LoadedImage {
            space,
            entry: 0x1000,
            rsp: 0x9_0000 - 64,
            hostcall_sites: Vec::new(),
            symbols: BTreeMap::new(),
            lib_bases: BTreeMap::new(),
            vdso_base: 0,
        })
    }
}

/// Two-thread self-modifying guest, parameterized for property tests.
///
/// Thread A calls `target` (which returns a constant) `iters` times,
/// accumulating the returned values, and enters the kernel once per
/// iteration — the serialization point at which another core's code patch
/// becomes architecturally visible. Thread B spins `spin1` iterations,
/// rewrites the constant's immediate byte underfoot (store → own-core
/// exact-overlap invalidation, cross-core staleness until A serializes),
/// spins `spin2` more, and rewrites it once more. The final accumulator
/// value — and therefore the exit status — depends on exactly which
/// iterations observe which patch.
///
/// Returns `(code, imm_addr)` where `imm_addr` is the guest address of the
/// patchable immediate byte (MovImm encodes as `48 b8 imm64`, so +2).
pub fn smc_guest_param(iters: u64, spin1: u64, spin2: u64) -> (Vec<u8>, u64) {
    let mut a = Asm::new();
    // Spawn thread B: fresh stack at 0x8_8000 with its entry seeded on it.
    a.mov_imm(Reg::Rsi, 0x8_8000);
    a.lea_label(Reg::Rcx, "thread_b");
    a.store(Reg::Rsi, 0, Reg::Rcx);
    a.mov_imm(Reg::Rax, nr::SYS_CLONE);
    a.syscall();
    a.test_reg(Reg::Rax, Reg::Rax);
    a.jz("thread_b");
    // Thread A: accumulate `iters` calls through the patchable target.
    a.mov_imm(Reg::R14, 0);
    a.mov_imm(Reg::R13, iters);
    a.label("iter");
    a.call("target");
    a.add_reg(Reg::R14, Reg::Rax);
    a.mov_imm(Reg::Rax, nr::SYS_GETPID);
    a.syscall();
    a.sub_imm(Reg::R13, 1);
    a.jnz("iter");
    a.mov_reg(Reg::Rdi, Reg::R14);
    a.and_imm(Reg::Rdi, 0x7f);
    a.mov_imm(Reg::Rax, nr::SYS_EXIT_GROUP);
    a.syscall();
    // The patch target: returns a constant thread B rewrites underfoot.
    a.label("target");
    a.mov_imm(Reg::Rax, 1);
    a.ret();
    // Thread B: spin, patch the immediate to 2, spin, patch to 3, park.
    a.label("thread_b");
    a.mov_imm(Reg::Rcx, spin1);
    a.label("spin1");
    a.sub_imm(Reg::Rcx, 1);
    a.jnz("spin1");
    a.lea_label(Reg::R11, "target");
    a.mov_imm(Reg::Rdx, 2);
    a.store_byte(Reg::R11, 2, Reg::Rdx);
    a.mov_imm(Reg::Rcx, spin2);
    a.label("spin2");
    a.sub_imm(Reg::Rcx, 1);
    a.jnz("spin2");
    a.mov_imm(Reg::Rdx, 3);
    a.store_byte(Reg::R11, 2, Reg::Rdx);
    a.label("park");
    a.jmp("park");
    let prog = a.finish_program();
    let imm_addr = 0x1000 + prog.sym("target") + 2;
    (prog.bytes, imm_addr)
}

/// The canonical SMC guest used by the determinism regression.
pub fn smc_guest() -> (Vec<u8>, u64) {
    smc_guest_param(300, 2_000, 4_000)
}

/// Panics unless a fresh run's output `fresh` equals `committed`, the
/// bytes of the committed artifact `file`. The message names the first
/// differing line and `regen`, the command that regenerates the file.
pub fn assert_pinned(fresh: &str, committed: &str, file: &str, regen: &str) {
    if fresh == committed {
        return;
    }
    let line = fresh
        .lines()
        .zip(committed.lines())
        .position(|(f, c)| f != c)
        .unwrap_or_else(|| fresh.lines().count().min(committed.lines().count()));
    panic!(
        "{file} differs from a fresh run at line {}:\n  committed: {:?}\n  fresh:     {:?}\n\
         regenerate it with `{regen}`",
        line + 1,
        committed.lines().nth(line),
        fresh.lines().nth(line),
    );
}
