//! Kernel-side record/replay sessions and checkpoints (DESIGN.md §11).
//!
//! The portable log format, codec, and bisection live in `sim-record`;
//! this module owns the live state threaded through the kernel's
//! fault-plan choke points: the `RecordSession` that captures (or
//! verifies, or injects) [`Rec`]s at retired-instruction boundaries, and
//! the in-memory [`Checkpoint`] chain that seeds time-travel navigation.
//!
//! Three modes share one session type:
//!
//! * **Record** — every syscall result, injected fault/signal/permission
//!   flip, scheduler decision, and process exit is appended to the log,
//!   keyed by the kernel's retired-instruction clock (the one the fault
//!   and profiler sessions are positioned on, so the keys are
//!   engine-invariant). With a checkpoint period set, the session also
//!   snapshots registers + dirty pages every N retired instructions.
//! * **Verify** — the run re-executes in full (any engine; the fault plan
//!   from the log header must be re-installed) and every record the run
//!   produces is compared against the log in order. The first mismatch is
//!   stashed as a [`sim_record::Divergence`] and the run halts with
//!   [`crate::RunExit::Stop`].
//! * **Inject** — navigation-grade replay: non-process-local syscalls are
//!   short-circuited with their recorded results (return value, kernel
//!   residency cycles, page writes) and recorded signals/flips are
//!   re-applied at their retired-instruction boundaries, so a run can be
//!   resumed from a restored checkpoint without any VFS/net state.

use crate::process::{Pid, SeccompFilter, SigAction, Thread, Tid};
use sim_record::{Divergence, Rec};
use std::collections::BTreeMap;
use std::rc::Rc;

/// Record/replay request, carried by [`crate::EngineConfig`].
#[derive(Debug, Clone)]
pub enum RecordSpec {
    /// Capture a log. `checkpoint_period` > 0 additionally takes periodic
    /// checkpoints (and per-syscall page-write snapshots), making the
    /// recording navigation-grade.
    Record { checkpoint_period: u64 },
    /// Re-execute and compare every produced record against `log`,
    /// halting at the first mismatch.
    Verify { log: Rc<Vec<Rec>> },
    /// Short-circuit non-process-local syscalls and re-apply recorded
    /// asynchrony from `log` (time-travel navigation).
    Inject { log: Rc<Vec<Rec>> },
}

/// An asynchronous boundary action extracted from a log for inject-mode
/// replay.
#[derive(Debug, Clone, Copy)]
pub(crate) enum BoundaryAction {
    Signal { signo: u64, delivered: bool },
    /// Set `page`'s protection to `perms` — flips and their restores both
    /// reduce to this (the log stores the resulting protection, not the
    /// pre-flip history).
    Flip { page: u64, perms: u8 },
}

/// One periodic navigation checkpoint: everything needed to reconstruct
/// the (single) process at a retired-instruction boundary by applying the
/// checkpoint chain onto a freshly booted kernel. Deltas are dirty pages
/// since the previous checkpoint; the deterministic boot state is the
/// implicit baseline.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Retired-instruction coordinate of the boundary.
    pub retired: u64,
    /// Global clock at the boundary.
    pub clock: u64,
    /// Log cursor: number of records emitted before the boundary.
    pub cursor: usize,
    /// The (single) process the chain tracks.
    pub pid: Pid,
    pub(crate) threads: Vec<Thread>,
    pub(crate) sigactions: BTreeMap<u64, SigAction>,
    pub(crate) seccomp: Option<SeccompFilter>,
    pub(crate) interposer_live: bool,
    pub(crate) pages: Vec<PageSnap>,
}

/// A snapshotted dirty page: contents + protection attributes at
/// checkpoint time.
#[derive(Debug, Clone)]
pub(crate) struct PageSnap {
    pub base: u64,
    pub perms: u8,
    pub pkey: u8,
    pub data: Vec<u8>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RecordModeKind {
    Record,
    Verify,
    Inject,
}

/// Live kernel state for one [`RecordSpec`].
pub(crate) struct RecordSession {
    pub mode: RecordModeKind,
    /// `run_to_retired` target; the engines cap budgets to stop exactly
    /// here and [`crate::Kernel::run`] returns [`crate::RunExit::Stop`].
    pub stop_at: Option<u64>,
    /// Set when the target was reached or a divergence was found.
    pub stopped: bool,
    /// Record mode: the captured log.
    pub recs: Vec<Rec>,
    /// Verify/inject mode: the expected log.
    pub log: Rc<Vec<Rec>>,
    /// Next log index to verify (verify) or consume (inject: syscall
    /// records only).
    pub cursor: usize,
    /// First mismatch found by verify mode.
    pub divergence: Option<Divergence>,
    /// Record mode: checkpoint spacing (0 = off) and next boundary.
    pub ckpt_period: u64,
    pub next_ckpt: Option<u64>,
    pub checkpoints: Vec<Checkpoint>,
    /// Record mode: page bases written since the previous checkpoint
    /// (drained from the space's dirty tracking at every syscall so
    /// per-syscall write snapshots and checkpoint deltas don't race over
    /// one counter).
    pub pending_pages: Vec<u64>,
    /// True while the checkpoint chain soundly reconstructs the run
    /// (single process, no exec surprises). Cleared permanently on
    /// fork/exec/multi-process; navigation then replays from the start.
    pub chain_ok: bool,
    /// Clock right after the kernel-entry charge of the in-flight syscall
    /// per thread: recorded `cycles` = completion clock − this.
    pub entry_clock: BTreeMap<(Pid, Tid), u64>,
    /// Scheduler rounds with a real decision (more than one runnable).
    pub sched_rounds: u64,
    /// Inject mode: asynchronous boundary actions in log order.
    pub boundaries: Vec<(u64, BoundaryAction)>,
    /// Next boundary action to apply.
    pub bcursor: usize,
}

impl RecordSession {
    pub fn new(spec: RecordSpec) -> RecordSession {
        let (mode, log, ckpt_period) = match spec {
            RecordSpec::Record { checkpoint_period } => {
                (RecordModeKind::Record, Rc::new(Vec::new()), checkpoint_period)
            }
            RecordSpec::Verify { log } => (RecordModeKind::Verify, log, 0),
            RecordSpec::Inject { log } => (RecordModeKind::Inject, log, 0),
        };
        let boundaries = if mode == RecordModeKind::Inject {
            log.iter()
                .filter_map(|r| match *r {
                    Rec::Signal {
                        retired,
                        signo,
                        delivered,
                    } => Some((retired, BoundaryAction::Signal { signo, delivered })),
                    Rec::Flip {
                        retired,
                        page,
                        perms,
                        restore: _,
                    } => Some((retired, BoundaryAction::Flip { page, perms })),
                    _ => None,
                })
                .collect()
        } else {
            Vec::new()
        };
        RecordSession {
            mode,
            stop_at: None,
            stopped: false,
            recs: Vec::new(),
            log,
            cursor: 0,
            divergence: None,
            ckpt_period,
            next_ckpt: (ckpt_period > 0).then_some(ckpt_period),
            checkpoints: Vec::new(),
            pending_pages: Vec::new(),
            chain_ok: true,
            entry_clock: BTreeMap::new(),
            sched_rounds: 0,
            boundaries,
            bcursor: 0,
        }
    }

    /// The nearest retired-instruction boundary the engines must stop at:
    /// the seek target, the next checkpoint, or the next pending
    /// inject-mode asynchrony.
    pub fn next_stop(&self) -> Option<u64> {
        let boundary = self.boundaries.get(self.bcursor).map(|b| b.0);
        [self.stop_at, self.next_ckpt, boundary]
            .into_iter()
            .flatten()
            .min()
    }

    /// Records (record mode) or verifies (verify mode) one produced
    /// record. Inject mode ignores it: injected effects are consumed via
    /// the cursor directly.
    ///
    /// Verification compares modulo `Rec::Syscall::writes`: page-write
    /// snapshots exist only in navigation-grade recordings (verify never
    /// captures them — they are derived state, fully determined by the
    /// architectural fields that *are* compared), so a nav-grade log
    /// verifies cleanly against a plain re-execution.
    pub fn emit(&mut self, rec: Rec) {
        fn matches_mod_writes(a: &Rec, b: &Rec) -> bool {
            match (a, b) {
                (
                    Rec::Syscall {
                        retired: r1,
                        nr: n1,
                        site: s1,
                        ret: t1,
                        cycles: c1,
                        writes: _,
                    },
                    Rec::Syscall {
                        retired: r2,
                        nr: n2,
                        site: s2,
                        ret: t2,
                        cycles: c2,
                        writes: _,
                    },
                ) => r1 == r2 && n1 == n2 && s1 == s2 && t1 == t2 && c1 == c2,
                _ => a == b,
            }
        }
        match self.mode {
            RecordModeKind::Record => self.recs.push(rec),
            RecordModeKind::Verify => {
                let expected = self.log.get(self.cursor).cloned();
                if !expected.as_ref().is_some_and(|e| matches_mod_writes(e, &rec)) {
                    self.divergence = Some(Divergence {
                        index: self.cursor,
                        retired: rec.retired(),
                        expected,
                        got: Some(rec),
                        probes: 0,
                    });
                    self.stopped = true;
                } else {
                    self.cursor += 1;
                }
            }
            RecordModeKind::Inject => {}
        }
    }

    /// Inject mode: consumes the next syscall record from the log
    /// (skipping interleaved asynchrony records, which are applied via
    /// the boundary cursor).
    pub fn take_syscall(&mut self) -> Option<Rec> {
        while let Some(r) = self.log.get(self.cursor) {
            self.cursor += 1;
            if matches!(r, Rec::Syscall { .. }) {
                return Some(r.clone());
            }
        }
        None
    }
}

/// Syscalls whose effects are entirely process-local (registers, address
/// space, signal dispositions, thread/SUD/seccomp state) or derived from
/// restored state (the clock): inject-mode replay re-executes these for
/// real, because short-circuiting could not reproduce control-flow or
/// mapping effects (`sigreturn`, `mmap`) and does not need to — they are
/// deterministic given the restored process. Everything else (VFS, net,
/// fd-table, kernel RNG) is short-circuited from the log.
pub(crate) fn inject_passthrough(nr_: u64) -> bool {
    use crate::nr::*;
    matches!(
        nr_,
        SYS_MMAP
            | SYS_MPROTECT
            | SYS_MUNMAP
            | SYS_BRK
            | SYS_MADVISE
            | SYS_RT_SIGACTION
            | SYS_RT_SIGPROCMASK
            | SYS_RT_SIGRETURN
            | SYS_PRCTL
            | SYS_ARCH_PRCTL
            | SYS_SET_TID_ADDRESS
            | SYS_CLONE
            | SYS_FORK
            | SYS_EXECVE
            | SYS_EXIT
            | SYS_EXIT_GROUP
            | SYS_FUTEX
            | SYS_SCHED_YIELD
            | SYS_NANOSLEEP
            | SYS_GETTIMEOFDAY
            | SYS_TIME
            | SYS_CLOCK_GETTIME
            | SYS_UNAME
            | SYS_GETCWD
            | SYS_GETPID
            | SYS_GETTID
            | SYS_GETUID
            | SYS_PKEY_MPROTECT
            | SYS_PKEY_ALLOC
            | SYS_PKEY_FREE
            | SYS_NONEXISTENT
            | SYS_K23_HANDOFF
            | SYS_K23_DETACH
    )
}
