//! Kernel-side record/replay sessions (DESIGN.md §11).
//!
//! The portable log format and codec live in `sim-record`; this module
//! owns the live state threaded through the kernel's fault-plan choke
//! points: the `RecordSession` that captures or verifies [`Rec`]s at
//! retired-instruction boundaries.
//!
//! Two modes share one session type:
//!
//! * **Record** — every syscall result, injected fault/signal/permission
//!   flip, scheduler decision, and process exit is appended to the log,
//!   keyed by the kernel's retired-instruction clock (the one the fault
//!   and profiler sessions are positioned on, so the keys are
//!   engine-invariant).
//! * **Verify** — the run re-executes in full (any engine; the fault plan
//!   from the log header must be re-installed) and every record the run
//!   produces is compared against the log in order. The first mismatch is
//!   stashed as a [`sim_record::Divergence`] and the run halts with
//!   [`crate::RunExit::Stop`].
//!
//! Either mode can carry a stop target
//! ([`crate::Kernel::stop_at_retired`]): the run halts exactly at that
//! retired instruction. A verify replay with a stop target is time-travel
//! navigation — the simulator is deterministic, so re-executing from boot
//! reproduces the machine at any instruction.

use crate::process::{Pid, Tid};
use sim_record::{Divergence, Rec};
use std::collections::BTreeMap;
use std::rc::Rc;

/// Record/replay request, carried by [`crate::EngineConfig`].
#[derive(Debug, Clone)]
pub enum RecordSpec {
    /// Capture a log.
    Record,
    /// Re-execute and compare every produced record against `log`,
    /// halting at the first mismatch.
    Verify { log: Rc<Vec<Rec>> },
}

/// Live kernel state for one [`RecordSpec`].
pub(crate) struct RecordSession {
    /// True when verifying against `log`; false when recording.
    pub verify: bool,
    /// Stop target ([`crate::Kernel::stop_at_retired`]); the engines cap
    /// budgets to stop exactly here and [`crate::Kernel::run`] returns
    /// [`crate::RunExit::Stop`].
    pub stop_at: Option<u64>,
    /// Set when the target was reached or a divergence was found; every
    /// later `run` returns `Stop` at once.
    pub stopped: bool,
    /// Record mode: the captured log.
    pub recs: Vec<Rec>,
    /// Verify mode: the expected log.
    pub log: Rc<Vec<Rec>>,
    /// Verify mode: next log index to compare.
    pub cursor: usize,
    /// First mismatch found by verify mode.
    pub divergence: Option<Divergence>,
    /// Clock right after the kernel-entry charge of the in-flight syscall
    /// per thread: recorded `cycles` = completion clock − this.
    pub entry_clock: BTreeMap<(Pid, Tid), u64>,
    /// Scheduler rounds with a real decision (more than one runnable).
    pub sched_rounds: u64,
}

impl RecordSession {
    pub fn new(spec: RecordSpec) -> RecordSession {
        let (verify, log) = match spec {
            RecordSpec::Record => (false, Rc::new(Vec::new())),
            RecordSpec::Verify { log } => (true, log),
        };
        RecordSession {
            verify,
            stop_at: None,
            stopped: false,
            recs: Vec::new(),
            log,
            cursor: 0,
            divergence: None,
            entry_clock: BTreeMap::new(),
            sched_rounds: 0,
        }
    }

    /// Records (record mode) or verifies (verify mode) one produced
    /// record.
    pub fn emit(&mut self, rec: Rec) {
        if !self.verify {
            self.recs.push(rec);
            return;
        }
        let expected = self.log.get(self.cursor);
        if expected == Some(&rec) {
            self.cursor += 1;
        } else {
            self.divergence = Some(Divergence {
                index: self.cursor,
                retired: rec.retired(),
                expected: expected.cloned(),
                got: Some(rec),
            });
            self.stopped = true;
        }
    }
}
