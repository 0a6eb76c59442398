//! Syscall numbers (the Linux x86-64 table subset we implement) and errno
//! values. Numbers match the real ABI so that guest code, logs, and tests
//! read like real strace output.

#![allow(missing_docs)]

pub const SYS_READ: u64 = 0;
pub const SYS_WRITE: u64 = 1;
pub const SYS_OPEN: u64 = 2;
pub const SYS_CLOSE: u64 = 3;
pub const SYS_LSEEK: u64 = 8;
pub const SYS_MMAP: u64 = 9;
pub const SYS_MPROTECT: u64 = 10;
pub const SYS_MUNMAP: u64 = 11;
pub const SYS_BRK: u64 = 12;
pub const SYS_RT_SIGACTION: u64 = 13;
pub const SYS_RT_SIGPROCMASK: u64 = 14;
pub const SYS_RT_SIGRETURN: u64 = 15;
pub const SYS_IOCTL: u64 = 16;
pub const SYS_ACCESS: u64 = 21;
pub const SYS_PIPE: u64 = 22;
pub const SYS_SCHED_YIELD: u64 = 24;
pub const SYS_MADVISE: u64 = 28;
pub const SYS_DUP: u64 = 32;
pub const SYS_NANOSLEEP: u64 = 35;
pub const SYS_GETPID: u64 = 39;
pub const SYS_SOCKET: u64 = 41;
pub const SYS_CONNECT: u64 = 42;
pub const SYS_ACCEPT: u64 = 43;
pub const SYS_BIND: u64 = 49;
pub const SYS_LISTEN: u64 = 50;
pub const SYS_CLONE: u64 = 56;
pub const SYS_FORK: u64 = 57;
pub const SYS_EXECVE: u64 = 59;
pub const SYS_EXIT: u64 = 60;
pub const SYS_WAIT4: u64 = 61;
pub const SYS_UNAME: u64 = 63;
pub const SYS_FCNTL: u64 = 72;
pub const SYS_FSYNC: u64 = 74;
pub const SYS_GETCWD: u64 = 79;
pub const SYS_MKDIR: u64 = 83;
pub const SYS_UNLINK: u64 = 87;
pub const SYS_GETTIMEOFDAY: u64 = 96;
pub const SYS_GETUID: u64 = 102;
pub const SYS_PRCTL: u64 = 157;
pub const SYS_ARCH_PRCTL: u64 = 158;
pub const SYS_GETTID: u64 = 186;
pub const SYS_TIME: u64 = 201;
pub const SYS_FUTEX: u64 = 202;
pub const SYS_GETDENTS64: u64 = 217;
pub const SYS_SET_TID_ADDRESS: u64 = 218;
pub const SYS_CLOCK_GETTIME: u64 = 228;
pub const SYS_EXIT_GROUP: u64 = 231;
pub const SYS_EPOLL_WAIT: u64 = 232;
pub const SYS_EPOLL_CTL: u64 = 233;
pub const SYS_OPENAT: u64 = 257;
pub const SYS_NEWFSTATAT: u64 = 262;
pub const SYS_UTIMENSAT: u64 = 280;
pub const SYS_EVENTFD2: u64 = 290;
pub const SYS_EPOLL_CREATE1: u64 = 291;
pub const SYS_PROCESS_VM_READV: u64 = 310;
pub const SYS_PROCESS_VM_WRITEV: u64 = 311;
pub const SYS_GETRANDOM: u64 = 318;
pub const SYS_PKEY_MPROTECT: u64 = 329;
pub const SYS_PKEY_ALLOC: u64 = 330;
pub const SYS_PKEY_FREE: u64 = 331;

/// The nonexistent syscall number used by the paper's Table 5 microbenchmark.
pub const SYS_NONEXISTENT: u64 = 500;
/// K23's first *fake* syscall: state handoff request (paper §5.3).
pub const SYS_K23_HANDOFF: u64 = 600;
/// K23's second *fake* syscall: ptracer detach request (paper §5.3).
pub const SYS_K23_DETACH: u64 = 601;

// epoll event bits (match the Linux ABI so guest code reads like real epoll)
pub const EPOLLIN: u64 = 0x001;
pub const EPOLLOUT: u64 = 0x004;
pub const EPOLLERR: u64 = 0x008;
pub const EPOLLHUP: u64 = 0x010;
pub const EPOLLONESHOT: u64 = 1 << 30;
pub const EPOLLET: u64 = 1 << 31;

// epoll_ctl operations
pub const EPOLL_CTL_ADD: u64 = 1;
pub const EPOLL_CTL_DEL: u64 = 2;
pub const EPOLL_CTL_MOD: u64 = 3;

// fcntl commands + file status flags (the O_NONBLOCK subset we implement)
pub const F_GETFL: u64 = 3;
pub const F_SETFL: u64 = 4;
pub const O_NONBLOCK: u64 = 0x800;

// prctl operations
pub const PR_SET_SYSCALL_USER_DISPATCH: u64 = 59;
pub const PR_SYS_DISPATCH_OFF: u64 = 0;
pub const PR_SYS_DISPATCH_ON: u64 = 1;

// SUD selector states (byte values in guest memory)
pub const SYSCALL_DISPATCH_FILTER_ALLOW: u8 = 0;
pub const SYSCALL_DISPATCH_FILTER_BLOCK: u8 = 1;

// signals
pub const SIGSEGV: u64 = 11;
pub const SIGSYS: u64 = 31;
pub const SIGTRAP: u64 = 5;
pub const SIGCHLD: u64 = 17;
pub const SIGKILL: u64 = 9;
pub const SIGABRT: u64 = 6;
pub const SIGUSR1: u64 = 10;

/// Flag OR-ed into `rt_sigaction`'s signal-number argument (simplified
/// ABI): while the registered handler runs, further asynchronous signals
/// are deferred until `rt_sigreturn` — the stand-in for an all-signals
/// `sa_mask`. Interposer SIGSYS handlers register with this to survive
/// adversarial signal storms (nested-delivery hardening).
pub const SIGACT_MASK_ALL: u64 = 0x100;

// errno (returned as -errno)
pub const EPERM: i64 = 1;
pub const ENOENT: i64 = 2;
pub const ESRCH: i64 = 3;
pub const EINTR: i64 = 4;
/// Exec format error: the file exists but is not a loadable image.
pub const ENOEXEC: i64 = 8;
pub const EBADF: i64 = 9;
pub const ECHILD: i64 = 10;
pub const EAGAIN: i64 = 11;
pub const ENOMEM: i64 = 12;
pub const EACCES: i64 = 13;
pub const EFAULT: i64 = 14;
pub const EEXIST: i64 = 17;
pub const ENOTDIR: i64 = 20;
pub const EISDIR: i64 = 21;
pub const EINVAL: i64 = 22;
pub const EFBIG: i64 = 27;
pub const ENOSYS: i64 = 38;
pub const ECONNREFUSED: i64 = 111;
pub const EADDRINUSE: i64 = 98;

/// Encodes `-errno` as the u64 syscall return value.
pub const fn err(e: i64) -> u64 {
    (-e) as u64
}

/// True if a raw return value is in the error range (like libc's check).
pub const fn is_err(v: u64) -> bool {
    v > u64::MAX - 4096
}

/// Human-readable syscall name (for strace-style traces).
pub fn syscall_name(nr: u64) -> &'static str {
    match nr {
        SYS_READ => "read",
        SYS_WRITE => "write",
        SYS_OPEN => "open",
        SYS_CLOSE => "close",
        SYS_LSEEK => "lseek",
        SYS_MMAP => "mmap",
        SYS_MPROTECT => "mprotect",
        SYS_MUNMAP => "munmap",
        SYS_BRK => "brk",
        SYS_RT_SIGACTION => "rt_sigaction",
        SYS_RT_SIGPROCMASK => "rt_sigprocmask",
        SYS_RT_SIGRETURN => "rt_sigreturn",
        SYS_IOCTL => "ioctl",
        SYS_ACCESS => "access",
        SYS_PIPE => "pipe",
        SYS_SCHED_YIELD => "sched_yield",
        SYS_MADVISE => "madvise",
        SYS_DUP => "dup",
        SYS_NANOSLEEP => "nanosleep",
        SYS_GETPID => "getpid",
        SYS_SOCKET => "socket",
        SYS_CONNECT => "connect",
        SYS_ACCEPT => "accept",
        SYS_BIND => "bind",
        SYS_LISTEN => "listen",
        SYS_CLONE => "clone",
        SYS_FORK => "fork",
        SYS_EXECVE => "execve",
        SYS_EXIT => "exit",
        SYS_WAIT4 => "wait4",
        SYS_UNAME => "uname",
        SYS_FCNTL => "fcntl",
        SYS_FSYNC => "fsync",
        SYS_GETCWD => "getcwd",
        SYS_MKDIR => "mkdir",
        SYS_UNLINK => "unlink",
        SYS_GETTIMEOFDAY => "gettimeofday",
        SYS_GETUID => "getuid",
        SYS_PRCTL => "prctl",
        SYS_ARCH_PRCTL => "arch_prctl",
        SYS_GETTID => "gettid",
        SYS_TIME => "time",
        SYS_FUTEX => "futex",
        SYS_GETDENTS64 => "getdents64",
        SYS_SET_TID_ADDRESS => "set_tid_address",
        SYS_CLOCK_GETTIME => "clock_gettime",
        SYS_EXIT_GROUP => "exit_group",
        SYS_EPOLL_WAIT => "epoll_wait",
        SYS_EPOLL_CTL => "epoll_ctl",
        SYS_EVENTFD2 => "eventfd2",
        SYS_EPOLL_CREATE1 => "epoll_create1",
        SYS_OPENAT => "openat",
        SYS_NEWFSTATAT => "newfstatat",
        SYS_UTIMENSAT => "utimensat",
        SYS_PROCESS_VM_READV => "process_vm_readv",
        SYS_PROCESS_VM_WRITEV => "process_vm_writev",
        SYS_GETRANDOM => "getrandom",
        SYS_PKEY_MPROTECT => "pkey_mprotect",
        SYS_PKEY_ALLOC => "pkey_alloc",
        SYS_PKEY_FREE => "pkey_free",
        SYS_NONEXISTENT => "syscall_500",
        SYS_K23_HANDOFF => "k23_handoff",
        SYS_K23_DETACH => "k23_detach",
        _ => "unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn err_encoding() {
        assert_eq!(err(ENOSYS), (-38i64) as u64);
        assert!(is_err(err(ENOSYS)));
        assert!(is_err(err(EPERM)));
        assert!(!is_err(0));
        assert!(!is_err(12345));
    }

    #[test]
    fn names() {
        assert_eq!(syscall_name(SYS_EXECVE), "execve");
        assert_eq!(syscall_name(9999), "unknown");
    }
}
