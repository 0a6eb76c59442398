//! Guest input must never panic the host. Every syscall `nr::syscall_name`
//! names below 600 (less `exit` and `exit_group`) is issued once from a
//! bare guest, with arguments drawn from edge values, on the stepwise
//! oracle and the block engine: neither may panic, and both must end the
//! same. The named cases pin what such draws found, each answered with
//! the errno Linux returns.

use sim_fault::Rng;
use sim_isa::{Asm, Reg};
use sim_kernel::{nr, EngineConfig, Kernel, RunExit};
use std::rc::Rc;

/// The bare guest's stack mapping; its code is mapped at 0x1000.
const STACK: u64 = 0x8_0000;
const STACK_END: u64 = 0x9_0000;

/// Cycles each guest may run; enough for a few `execve` loops.
const BUDGET: u64 = 200_000;

/// Maps the guest's code at 0x1000 and a zeroed stack, whatever path is
/// exec'd.
struct RawLoader(Vec<u8>);

impl sim_kernel::ExecLoader for RawLoader {
    fn load(
        &self,
        _vfs: &mut sim_kernel::Vfs,
        _path: &str,
        _argv: &[String],
        _env: &[String],
        _opts: &sim_kernel::ExecOpts,
    ) -> Result<sim_kernel::LoadedImage, i64> {
        let mut space = sim_mem::AddressSpace::new();
        space
            .map(0x1000, 0x10000, sim_mem::Perms::RX, "/bin/raw")
            .unwrap();
        space.write_raw(0x1000, &self.0).unwrap();
        space
            .map(STACK, STACK_END - STACK, sim_mem::Perms::RW, "[stack]")
            .unwrap();
        Ok(sim_kernel::LoadedImage {
            space,
            entry: 0x1000,
            rsp: STACK_END - 64,
            hostcall_sites: Vec::new(),
            symbols: Default::default(),
            lib_bases: Default::default(),
            vdso_base: 0,
        })
    }
}

/// Emits `nr_(args…)` with the arguments in ABI registers.
fn emit_call(a: &mut Asm, nr_: u64, args: [u64; 6]) {
    for (r, v) in [Reg::Rdi, Reg::Rsi, Reg::Rdx, Reg::R10, Reg::R8, Reg::R9]
        .into_iter()
        .zip(args)
    {
        a.mov_imm(r, v);
    }
    a.mov_imm(Reg::Rax, nr_);
    a.syscall();
}

/// How a run ended: `(RunExit, clock, retired)` and the exit status.
type End = (RunExit, u64, u64, Option<i64>);

/// Runs the guest `emit` writes, followed by `exit_group(rax)`, under
/// `cfg`.
fn run(cfg: EngineConfig, emit: &dyn Fn(&mut Asm)) -> End {
    let mut a = Asm::new();
    emit(&mut a);
    a.mov_reg(Reg::Rdi, Reg::Rax);
    a.mov_imm(Reg::Rax, nr::SYS_EXIT_GROUP);
    a.syscall();
    let mut k = Kernel::new();
    k.set_loader(Rc::new(RawLoader(a.finish())));
    let pid = k.spawn("/bin/raw", &[], &[], None).expect("spawn");
    k.configure(cfg);
    let exit = k.run(BUDGET);
    let status = k.process(pid).and_then(|p| p.exit_status);
    (exit, k.clock, k.retired(), status)
}

/// The exit status of the guest `emit` writes (the last call's return
/// value), equal on both engines.
fn status_on_both(emit: &dyn Fn(&mut Asm)) -> Option<i64> {
    let oracle = run(EngineConfig::stepwise(), emit);
    assert_eq!(run(EngineConfig::new(), emit), oracle);
    oracle.3
}

#[test]
fn single_syscalls_with_hostile_arguments_end_alike_on_both_engines() {
    const POOL: [u64; 10] = [
        0,
        1,
        3,
        0x1000,
        STACK,
        STACK_END - 8,
        0xffff_ffff,
        1 << 63,
        u64::MAX - 10,
        u64::MAX,
    ];
    const DRAWS: usize = 64;
    let nrs: Vec<u64> = (0..600)
        .filter(|&n| nr::syscall_name(n) != "unknown")
        .filter(|&n| n != nr::SYS_EXIT && n != nr::SYS_EXIT_GROUP)
        .collect();
    assert_eq!(nrs.len(), 59);
    let mut rng = Rng::new(0x5eed);
    for &nr_ in &nrs {
        for _ in 0..DRAWS {
            let args: [u64; 6] =
                std::array::from_fn(|_| POOL[rng.below(POOL.len() as u64) as usize]);
            let emit = move |a: &mut Asm| emit_call(a, nr_, args);
            let run_on = |cfg: EngineConfig| {
                std::panic::catch_unwind(move || run(cfg, &emit))
                    .unwrap_or_else(|_| panic!("host panic: {}{args:#x?}", nr::syscall_name(nr_)))
            };
            assert_eq!(
                run_on(EngineConfig::new()),
                run_on(EngineConfig::stepwise()),
                "{}{args:#x?}",
                nr::syscall_name(nr_)
            );
        }
    }
}

/// A length that cannot be rounded up to a page, and one that fits no
/// free range below the top of the address space (a first mapping above
/// the search start makes the search compare against it).
#[test]
fn mmap_longer_than_the_address_space_fails_with_enomem() {
    let enomem = Some(-nr::ENOMEM);
    for len in [u64::MAX, u64::MAX - 4094, 0xffff_ffff_ffff_f000] {
        let status = status_on_both(&|a: &mut Asm| {
            emit_call(a, nr::SYS_MMAP, [0, 0x1000, 3, 0x22, 0, 0]);
            emit_call(a, nr::SYS_MMAP, [0, len, 3, 0x22, 0, 0]);
        });
        assert_eq!(status, enomem, "len {len:#x}");
    }
}

/// A range that ends in the top page, which no mapping can cover.
#[test]
fn mprotect_into_the_top_page_fails_with_enomem() {
    let top = u64::MAX - 0xfff;
    for (nr_, addr, len) in [
        (nr::SYS_MPROTECT, top, 16),
        (nr::SYS_PKEY_MPROTECT, top, 16),
    ] {
        let status = status_on_both(&|a: &mut Asm| emit_call(a, nr_, [addr, len, 1, 1, 0, 0]));
        assert_eq!(
            status,
            Some(-nr::ENOMEM),
            "{} {addr:#x}",
            nr::syscall_name(nr_)
        );
    }
}

/// Malformed ranges: a start off a page boundary, and an empty `mmap`.
/// Linux answers each with `-EINVAL` before it looks at any mapping, so
/// an unaligned `munmap` or `mprotect` acts on nothing, not on the page
/// that holds its start.
#[test]
fn malformed_memory_ranges_fail_with_einval() {
    const FIXED: u64 = 0x32;
    for (nr_, args) in [
        (nr::SYS_MMAP, [0, 0, 3, 0x22, 0, 0]),
        (nr::SYS_MMAP, [0x7000_0000_0001, 0x1000, 3, FIXED, 0, 0]),
        (nr::SYS_MPROTECT, [STACK + 1, 1, 1, 0, 0, 0]),
        (nr::SYS_MPROTECT, [u64::MAX - 10, 3, 1, 1, 0, 0]),
        (nr::SYS_PKEY_MPROTECT, [STACK + 1, 1, 1, 1, 0, 0]),
        (nr::SYS_MUNMAP, [STACK + 3, 0x1000, 0, 0, 0, 0]),
        (nr::SYS_MUNMAP, [u64::MAX - 10, 0x1000, 0, 0, 0, 0]),
        (nr::SYS_MUNMAP, [STACK, 0, 0, 0, 0, 0]),
    ] {
        let status = status_on_both(&|a: &mut Asm| emit_call(a, nr_, args));
        assert_eq!(
            status,
            Some(-nr::EINVAL),
            "{}{args:#x?}",
            nr::syscall_name(nr_)
        );
    }
    // The stack page the unaligned calls named is still mapped and
    // writable: a store to it and an exit with the stored byte succeed.
    let status = status_on_both(&|a: &mut Asm| {
        emit_call(a, nr::SYS_MPROTECT, [STACK + 1, 1, 1, 0, 0, 0]);
        emit_call(a, nr::SYS_MUNMAP, [STACK + 3, 0x1000, 0, 0, 0, 0]);
        a.mov_imm(Reg::R11, STACK);
        a.mov_imm(Reg::Rcx, 42);
        a.store_byte(Reg::R11, 0, Reg::Rcx);
        a.load_byte(Reg::Rax, Reg::R11, 0);
    });
    assert_eq!(status, Some(42));
}

/// A stat buffer whose fields lie past the top of the address space.
#[test]
fn fstatat_with_a_stat_buffer_at_the_top_fails_with_efault() {
    let status = status_on_both(&|a: &mut Asm| {
        a.mov_imm(Reg::R11, STACK);
        a.mov_imm(Reg::Rcx, u64::from(b'/'));
        a.store_byte(Reg::R11, 0, Reg::Rcx);
        emit_call(
            a,
            nr::SYS_NEWFSTATAT,
            [(-100i64) as u64, STACK, u64::MAX - 10, 0, 0, 0],
        );
    });
    assert_eq!(status, Some(-nr::EFAULT));
}
