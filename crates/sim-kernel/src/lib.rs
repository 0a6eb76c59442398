//! # sim-kernel — a miniature Linux-like kernel
//!
//! The substrate every interposer in this reproduction runs on. It provides
//! the Linux interfaces the paper's analysis revolves around:
//!
//! * a syscall table with real x86-64 numbers ([`nr`]), including the
//!   nonexistent syscall 500 used by the Table 5 microbenchmark and K23's
//!   fake handoff syscalls (600/601);
//! * **Syscall User Dispatch** (per-thread selector byte + allowlisted
//!   range + SIGSYS delivery), including the global kernel-entry slow path
//!   once SUD is armed — the effect behind the paper's
//!   "SUD-no-interposition" row;
//! * **ptrace** as host-implemented [`ptrace_if::Tracer`]s with
//!   per-stop context-switch costs and per-request syscall costs;
//! * signals with guest-visible, modifiable contexts ([`signal`]);
//! * fork / execve (with environments and `LD_PRELOAD` semantics via the
//!   pluggable [`kernel::ExecLoader`]), threads, futexes, pipes, loopback
//!   sockets, an in-memory VFS with immutable files, `/proc/$PID/maps`,
//!   PKU syscalls, and a deterministic scheduler with cycle accounting.
//!
//! Guest code calls host logic through *hostcall sites* (`int3` at a
//! registered address) — how interposer libraries bridge to their host-side
//! runtime.

pub mod audit;
pub mod config;
pub mod kernel;
pub mod net;
pub mod nr;
pub mod process;
pub mod ptrace_if;
pub mod record;
pub mod signal;
pub mod stack;
mod sys;
pub mod vfs;

pub use audit::{AuditLedger, AuditSession, AuditSpec, AuditTag, ProcAudit, Signature};
pub use config::{Engine, EngineConfig};
pub use record::RecordSpec;
pub use kernel::{ExecLoader, ExecOpts, HostcallFn, Kernel, LoadedImage, RunExit, TraceEntry};
// Re-exported so callers assemble an `EngineConfig` from this crate alone.
pub use sim_fault::FaultPlan;
pub use net::{Channel, End, Net};
pub use process::{Epoll, EpollEntry, FdEntry, Pid, ProcStats, Process, SeccompAction, SeccompFilter, SigAction, Sud, Thread, ThreadState, Tid, Wait};
pub use ptrace_if::{CountingTracer, Stop, TraceOpts, Tracer, TracerAction};
pub use signal::SigInfo;
pub use vfs::Vfs;
