//! The standard guest libraries: `libc-sim` (syscall wrappers, one `syscall`
//! instruction per wrapper — exactly the structure the paper's Figure 3 logs
//! show for glibc) and the filler dependency libraries that give coreutils
//! a realistic startup footprint.

use crate::image::{ImageBuilder, SimElf};
use sim_isa::Reg;
use sim_kernel::{nr, Vfs};
use std::sync::OnceLock;

/// Install path of the simulated libc.
pub const LIBC_PATH: &str = "/usr/lib/libc-sim.so.6";

/// Filler dependencies (loaded by coreutils-style binaries for startup
/// realism; they export nothing).
pub const FILLER_LIBS: [&str; 3] = [
    "/usr/lib/libselinux-sim.so.1",
    "/usr/lib/libcap-sim.so.2",
    "/usr/lib/libpcre-sim.so.3",
];

/// The syscall wrappers libc-sim exports. Each wrapper is
/// `mov rax, NR; syscall; ret` — one unique `syscall` instruction per
/// function, at a stable offset within the library.
pub const LIBC_WRAPPERS: [(&str, u64); 49] = [
    ("read", nr::SYS_READ),
    ("write", nr::SYS_WRITE),
    ("open", nr::SYS_OPEN),
    ("openat", nr::SYS_OPENAT),
    ("close", nr::SYS_CLOSE),
    ("lseek", nr::SYS_LSEEK),
    ("mmap", nr::SYS_MMAP),
    ("mprotect", nr::SYS_MPROTECT),
    ("munmap", nr::SYS_MUNMAP),
    ("rt_sigaction", nr::SYS_RT_SIGACTION),
    ("rt_sigprocmask", nr::SYS_RT_SIGPROCMASK),
    ("ioctl", nr::SYS_IOCTL),
    ("access", nr::SYS_ACCESS),
    ("pipe", nr::SYS_PIPE),
    ("sched_yield", nr::SYS_SCHED_YIELD),
    ("madvise", nr::SYS_MADVISE),
    ("dup", nr::SYS_DUP),
    ("nanosleep", nr::SYS_NANOSLEEP),
    ("getpid", nr::SYS_GETPID),
    ("socket", nr::SYS_SOCKET),
    ("connect", nr::SYS_CONNECT),
    ("accept", nr::SYS_ACCEPT),
    ("bind", nr::SYS_BIND),
    ("listen", nr::SYS_LISTEN),
    ("fork", nr::SYS_FORK),
    ("execve", nr::SYS_EXECVE),
    ("wait4", nr::SYS_WAIT4),
    ("uname", nr::SYS_UNAME),
    ("fsync", nr::SYS_FSYNC),
    ("getcwd", nr::SYS_GETCWD),
    ("mkdir", nr::SYS_MKDIR),
    ("unlink", nr::SYS_UNLINK),
    ("gettimeofday", nr::SYS_GETTIMEOFDAY),
    ("getuid", nr::SYS_GETUID),
    ("prctl", nr::SYS_PRCTL),
    ("gettid", nr::SYS_GETTID),
    ("futex", nr::SYS_FUTEX),
    ("getdents64", nr::SYS_GETDENTS64),
    ("clock_gettime", nr::SYS_CLOCK_GETTIME),
    ("newfstatat", nr::SYS_NEWFSTATAT),
    ("utimensat", nr::SYS_UTIMENSAT),
    ("getrandom", nr::SYS_GETRANDOM),
    ("clone", nr::SYS_CLONE),
    ("exit_group", nr::SYS_EXIT_GROUP),
    ("fcntl", nr::SYS_FCNTL),
    ("epoll_create1", nr::SYS_EPOLL_CREATE1),
    ("epoll_ctl", nr::SYS_EPOLL_CTL),
    ("epoll_wait", nr::SYS_EPOLL_WAIT),
    ("eventfd2", nr::SYS_EVENTFD2),
];

/// Builds libc-sim.
///
/// Besides the wrappers, it has a constructor issuing the startup syscalls
/// glibc makes (`getrandom` for the stack guard, `brk`), and exports `exit`
/// (no return).
pub fn build_libc() -> SimElf {
    let mut b = ImageBuilder::new(LIBC_PATH);
    b.init("__libc_init");

    for (name, num) in LIBC_WRAPPERS {
        b.asm.label(name);
        b.asm.mov_imm(Reg::Rax, num);
        b.asm.syscall();
        b.asm.ret();
    }

    // exit(status): never returns.
    b.asm.label("exit");
    b.asm.mov_imm(Reg::Rax, nr::SYS_EXIT);
    b.asm.syscall();
    b.asm.label("__spin");
    b.asm.jmp("__spin");

    // Constructor: stack-guard randomness + a brk probe.
    b.asm.label("__libc_init");
    b.asm.lea_label(Reg::Rdi, "__stack_guard");
    b.asm.mov_imm(Reg::Rsi, 8);
    b.asm.mov_imm(Reg::Rax, nr::SYS_GETRANDOM);
    b.asm.syscall();
    b.asm.mov_imm(Reg::Rdi, 0);
    b.asm.mov_imm(Reg::Rax, nr::SYS_BRK);
    b.asm.syscall();
    b.asm.ret();

    b.data_object("__stack_guard", &[0u8; 8]);
    b.finish()
}

/// Builds one empty filler library.
pub fn build_filler(path: &str) -> SimElf {
    let mut b = ImageBuilder::new(path);
    // A single exported no-op plus a bit of bulk so the mapping is real.
    b.asm.label("__noop");
    b.asm.ret();
    b.asm.nops(256);
    b.finish()
}

/// Installs libc-sim and the filler libraries into a VFS. The images are
/// built and serialized once per process; every VFS shares those bytes
/// until it writes them ([`Vfs::overlay`]).
///
/// # Panics
///
/// Panics if the VFS rejects a library's path (an immutable target).
pub fn install_standard_libs(vfs: &mut Vfs) {
    static LIBS: OnceLock<Vfs> = OnceLock::new();
    let libs = LIBS.get_or_init(|| {
        let mut libs = Vfs::new();
        build_libc().install(&mut libs);
        for p in FILLER_LIBS {
            build_filler(p).install(&mut libs);
        }
        libs
    });
    vfs.overlay(libs)
        .unwrap_or_else(|e| panic!("installing the standard libraries failed: {e}"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_isa::{decode, Inst};

    #[test]
    fn every_wrapper_has_exactly_one_syscall_site() {
        let libc = build_libc();
        for (name, num) in LIBC_WRAPPERS {
            let off = libc.symbols[name] as usize;
            let (mov, len) = decode(&libc.bytes[off..]).expect("mov");
            assert_eq!(mov, Inst::MovImm(Reg::Rax, num), "{name}");
            let (sys, _) = decode(&libc.bytes[off + len..]).expect("syscall");
            assert_eq!(sys, Inst::Syscall, "{name}");
        }
    }

    #[test]
    fn wrapper_offsets_are_distinct() {
        let libc = build_libc();
        let mut offs: Vec<u64> = LIBC_WRAPPERS
            .iter()
            .map(|(n, _)| libc.symbols[*n])
            .collect();
        offs.sort_unstable();
        offs.dedup();
        assert_eq!(offs.len(), LIBC_WRAPPERS.len());
    }

    #[test]
    fn fillers_build() {
        for p in FILLER_LIBS {
            let f = build_filler(p);
            assert_eq!(f.name, p);
            assert!(f.bytes.len() >= 256);
        }
    }
}
