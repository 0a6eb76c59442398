//! Typed engine configuration and the kernel-side fault-injection session.
//!
//! [`EngineConfig`] is one builder applied through
//! [`crate::Kernel::configure`]: the scheduler engine plus the fault,
//! profile, record and audit sessions. `FaultSession` is the kernel's
//! live state for one [`FaultPlan`]: architectural counters (syscall
//! occurrences, scheduling rounds) plus pending permission restorations —
//! all of which advance identically under every engine. Every session is
//! positioned on the kernel's one retired-instruction clock
//! ([`crate::Kernel::retired`]).

use crate::process::Pid;
use crate::record::RecordSpec;
use sim_fault::FaultPlan;
use sim_mem::Perms;
use sim_record::Rec;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Which scheduler engine executes guest code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The fast path ([`sim_cpu::Cpu::run_block`]): run-until-event
    /// blocks whose hot code is promoted into linked superblocks replayed
    /// without per-instruction fetches (see `sim_cpu::trace`).
    #[default]
    Block,
    /// The original per-step loop with the flush-everything icache,
    /// retained as the determinism oracle.
    Stepwise,
}

/// One typed configuration: the engine plus the four sessions.
///
/// ```
/// use sim_kernel::{Engine, EngineConfig};
///
/// let fast = EngineConfig::new();
/// assert_eq!(fast.engine, Engine::Block);
/// let oracle = EngineConfig::stepwise().profile(64).record();
/// assert_eq!(oracle.engine, Engine::Stepwise);
/// assert_eq!(oracle.profile, Some(64));
/// assert!(oracle.fault.is_none() && oracle.audit.is_none());
/// ```
#[derive(Debug, Clone, Default)]
pub struct EngineConfig {
    /// Scheduler engine.
    pub engine: Engine,
    /// Fault-injection plan, if any.
    pub fault: Option<FaultPlan>,
    /// Profiler sample period in retired instructions, if sampling.
    pub profile: Option<u64>,
    /// Record/replay mode, if any (see [`crate::record`]).
    pub record: Option<RecordSpec>,
    /// Coverage-audit expectation, if auditing (see [`crate::audit`]).
    pub audit: Option<crate::audit::AuditSpec>,
}

impl EngineConfig {
    /// The default fast configuration: block engine, no sessions.
    pub fn new() -> EngineConfig {
        EngineConfig::default()
    }

    /// An alias of [`EngineConfig::new`]. The block engine replays
    /// traces itself, so there is no separate trace engine any more; this
    /// name stays only because the host-time benchmark's syscall-loop
    /// workload calls it, and goes with that benchmark's next change.
    pub fn traced() -> EngineConfig {
        EngineConfig::new()
    }

    /// The oracle configuration the determinism tests compare against:
    /// the stepwise engine (which flushes the whole icache at every
    /// serialization point, as the original engine did).
    pub fn stepwise() -> EngineConfig {
        EngineConfig {
            engine: Engine::Stepwise,
            ..EngineConfig::default()
        }
    }

    /// Selects the scheduler engine.
    pub fn engine(mut self, engine: Engine) -> EngineConfig {
        self.engine = engine;
        self
    }

    /// Installs a fault-injection plan.
    pub fn fault(mut self, plan: FaultPlan) -> EngineConfig {
        self.fault = Some(plan);
        self
    }

    /// Enables the deterministic sampling profiler: one sample every
    /// `period` retired instructions (clamped to ≥ 1). Samples land at
    /// identical architectural boundaries under both engines.
    pub fn profile(mut self, period: u64) -> EngineConfig {
        self.profile = Some(period.max(1));
        self
    }

    /// Enables recording: syscall results, injected faults/signals,
    /// scheduler decisions, and exits are captured into a log keyed by
    /// retired-instruction counts.
    pub fn record(mut self) -> EngineConfig {
        self.record = Some(RecordSpec::Record);
        self
    }

    /// Enables the interposition coverage ledger, auditing every retired
    /// syscall against `spec` (a mechanism's expected-coverage
    /// declaration, `interpose::Interposer::coverage`). Auditing closes
    /// the hot slice loop so every syscall reaches the dispatch choke
    /// point; with no session configured the hot loop is untouched.
    pub fn audit(mut self, spec: crate::audit::AuditSpec) -> EngineConfig {
        self.audit = Some(spec);
        self
    }

    /// Enables verifying replay: re-execute in full and compare every
    /// produced record against `log`, halting at the first mismatch.
    /// With a [`crate::Kernel::stop_at_retired`] target it is time-travel
    /// navigation.
    pub fn replay_verify(mut self, log: Rc<Vec<Rec>>) -> EngineConfig {
        self.record = Some(RecordSpec::Verify { log });
        self
    }
}

/// Kernel-side state for applying one [`FaultPlan`].
pub(crate) struct FaultSession {
    /// The plan being applied.
    pub plan: FaultPlan,
    /// Plan boundaries strictly below this have fired. Injection retires
    /// no instructions, so without the cursor a boundary would re-fire
    /// forever at the same retired count.
    pub fired_until: u64,
    /// Per-syscall-nr executed-occurrence counters (counted only after
    /// `interposer_live`, never for in-kernel restarts).
    pub occurrences: BTreeMap<u64, u64>,
    /// Pending permission restorations:
    /// `(due boundary, pid, page base, saved perms)`.
    pub restores: Vec<(u64, Pid, u64, Perms)>,
    /// Scheduling round counter (drives [`FaultPlan::sched_rotation`]).
    pub round: u64,
}

/// Kernel-side state for the sampling profiler: its next sample boundary
/// on the kernel's retired-instruction clock, which caps block budgets so
/// samples land at identical architectural instructions under every
/// engine.
pub(crate) struct ProfSession {
    /// Sample period in retired instructions (≥ 1).
    pub period: u64,
    /// Next sample boundary (strictly greater than the last one taken).
    pub next: u64,
}

impl ProfSession {
    pub fn new(period: u64) -> ProfSession {
        let period = period.max(1);
        ProfSession {
            period,
            next: period,
        }
    }
}

impl FaultSession {
    pub fn new(plan: FaultPlan) -> FaultSession {
        FaultSession {
            plan,
            fired_until: 0,
            occurrences: BTreeMap::new(),
            restores: Vec::new(),
            round: 0,
        }
    }

    /// The next boundary (plan event or scheduled restore) the engines
    /// must stop at, given the `retired` clock, skipping plan boundaries
    /// that already fired.
    pub fn next_stop(&self, retired: u64) -> Option<u64> {
        let plan_next = self.plan.next_boundary(retired.max(self.fired_until));
        let restore_next = self.restores.iter().map(|r| r.0).min();
        plan_next.into_iter().chain(restore_next).min()
    }
}
