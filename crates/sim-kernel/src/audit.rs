//! sim-audit: the kernel-side interposition coverage ledger.
//!
//! The simulator's dispatch choke point sees every syscall that actually
//! enters the kernel — the ground truth no interposer has. An
//! [`AuditSession`] correlates that stream with what the configured
//! mechanism *claims* to cover (its [`AuditSpec`], declared per mechanism
//! via `interpose::Interposer::coverage`) and tags each architectural
//! syscall exactly once, at first entry:
//!
//! - **interposed-via-path** — issued from one of the mechanism's handler
//!   regions (the forwarded re-issue of an application call);
//! - **interposed-via-control** — intercepted by a control transfer the
//!   mechanism owns (a SUD SIGSYS delivery, a ptrace syscall-enter stop);
//! - **double-interposed** — observed by two channels at once (e.g. a
//!   handler-region syscall under an attached tracer, or a handler site
//!   outside the SUD allowlist trapping recursively);
//! - **bypassed** — the kernel saw it, the mechanism did not. Each bypass
//!   is classified into a pitfall [`Signature`].
//!
//! The ledger is purely architectural: every input (issuing region,
//! `interposer_live`, SUD thread state, the selector byte, tracer
//! attachment, stack masks) advances identically under the stepwise and
//! block engines, so coverage tables are byte-deterministic
//! across engines and runs. When no session is configured the fast
//! syscall paths stay enabled and nothing changes — auditing off is
//! zero-overhead (see the invisibility proptests in `tests/audit.rs`).
//!
//! vDSO calls never enter the kernel at all; they are folded into the
//! ledger at report time ([`crate::Kernel::audit_ledger`]) from the
//! per-process `vdso_calls` counter, as [`Signature::Vdso`] bypasses,
//! unless the mechanism disables the vDSO ([`AuditSpec::covers_vdso`]).

use crate::process::Pid;
use std::collections::{BTreeMap, BTreeSet};

/// What coverage a mechanism claims — the auditor's expectation, declared
/// once per mechanism. An empty spec (the default) expects no
/// interposition at all: every syscall audits as
/// [`Signature::Uncovered`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AuditSpec {
    /// Display label for reports (the mechanism's registry spec).
    pub mechanism: String,
    /// Basenames of the handler libraries whose issued syscalls count as
    /// interposed-via-path (e.g. `"libzpoline.so"`).
    pub handler_regions: Vec<String>,
    /// A ptrace syscall-enter stop counts as interposition (ptrace-based
    /// mechanisms, including K23's startup phase).
    pub via_tracer: bool,
    /// A SUD SIGSYS delivery counts as interposition (SUD-based
    /// mechanisms).
    pub via_sigsys: bool,
    /// The mechanism redirects vDSO users onto real syscall instructions
    /// (ptrace/K23 spawn with `disable_vdso`), so vDSO calls are not a
    /// shadow.
    pub covers_vdso: bool,
}

impl AuditSpec {
    /// A spec expecting no interposition (native,
    /// SUD-no-interposition): coverage audits as 0%.
    pub fn none(mechanism: &str) -> AuditSpec {
        AuditSpec {
            mechanism: mechanism.to_string(),
            ..AuditSpec::default()
        }
    }

    /// Whether the mechanism claims any coverage at all.
    pub fn expects_any(&self) -> bool {
        self.via_tracer || self.via_sigsys || !self.handler_regions.is_empty()
    }

    fn in_handler(&self, region: &str) -> bool {
        let base = region.rsplit('/').next().unwrap_or(region);
        self.handler_regions.iter().any(|r| r == base)
    }
}

/// Why a bypassed syscall escaped the mechanism — the pitfall taxonomy
/// shared with the PoC matrix (`pitfalls::matrix`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Signature {
    /// Pre-init window: the interposer never went live in this process
    /// (ld.so startup syscalls under LD_PRELOAD mechanisms) — P2b.
    PreInit,
    /// Post-exec gap: the interposer was live, then `execve` replaced the
    /// image and it never came back (env-clearing exec) — P1a.
    ExecGap,
    /// SUD armed but the selector byte reads ALLOW at a non-allowlist
    /// site: application code rewrote the selector — P1b.
    SelectorRewrite,
    /// SUD-based mechanism, but this thread's SUD is disarmed —
    /// application code issued `prctl(PR_SET_SYSCALL_USER_DISPATCH, OFF)`
    /// (Listing 2) — P1b.
    SudOff,
    /// Child of a covered process born outside the mechanism's
    /// propagation (fork/clone without tracer follow or layer masks).
    ForkGap,
    /// Live interposer, but the issuing site is outside every
    /// instrumented region (dynamically generated code) — P2a.
    Blind,
    /// vDSO call: serviced in userspace, never entered the kernel, and
    /// the mechanism does not redirect the vDSO.
    Vdso,
    /// The mechanism claims no coverage (native baseline,
    /// SUD-no-interposition).
    Uncovered,
}

impl Signature {
    /// All signatures, in report-column order.
    pub const ALL: [Signature; 8] = [
        Signature::PreInit,
        Signature::ExecGap,
        Signature::SelectorRewrite,
        Signature::SudOff,
        Signature::ForkGap,
        Signature::Blind,
        Signature::Vdso,
        Signature::Uncovered,
    ];

    /// Short column code, pitfall-first (stable: committed matrices and
    /// the bench gate key on these strings).
    pub fn code(&self) -> &'static str {
        match self {
            Signature::PreInit => "P2b-preinit",
            Signature::ExecGap => "P1a-exec",
            Signature::SelectorRewrite => "P1b-selector",
            Signature::SudOff => "P1b-sudoff",
            Signature::ForkGap => "fork-gap",
            Signature::Blind => "P2a-blind",
            Signature::Vdso => "vdso",
            Signature::Uncovered => "uncovered",
        }
    }
}

impl std::fmt::Display for Signature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.code())
    }
}

/// How one syscall was (or wasn't) interposed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditTag {
    /// Issued from a declared handler region.
    Path,
    /// Intercepted by a control transfer (SIGSYS or ptrace stop).
    Control,
    /// Observed by two interposition channels at once.
    Double,
    /// The kernel saw it; the mechanism did not.
    Bypassed(Signature),
}

/// The distilled per-syscall inputs the classifier consumes. All fields
/// are architectural state at kernel entry.
#[derive(Debug, Clone, Copy)]
pub struct SyscallView<'a> {
    /// Mapped-region name containing the syscall site.
    pub region: &'a str,
    /// A tracer with `trace_syscalls` is attached to the process.
    pub traced: bool,
    /// The process's interposer marked itself live.
    pub live: bool,
    /// This thread has SUD armed.
    pub sud_armed: bool,
    /// The site falls inside the SUD allowlist range.
    pub in_allowlist: bool,
    /// SUD will deliver SIGSYS for this entry (armed, outside the
    /// allowlist, selector reads BLOCK).
    pub will_sigsys: bool,
    /// The selector byte reads ALLOW.
    pub selector_allow: bool,
}

/// Per-process coverage accounting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProcAudit {
    /// Syscalls interposed via a handler region.
    pub interposed_path: u64,
    /// Syscalls interposed via a control transfer.
    pub interposed_control: u64,
    /// Syscalls observed by two channels at once.
    pub double: u64,
    /// Bypassed syscalls, by pitfall signature.
    pub bypassed: BTreeMap<Signature, u64>,
    /// Bypass detail for replay: `(signature, site) -> count`.
    pub bypass_sites: BTreeMap<(Signature, u64), u64>,
    /// Syscalls routed through the composed-stack chain.
    pub chained: u64,
    /// Per-layer chain participation (layer name -> syscalls the layer's
    /// hook ran for). A layer stripped from the process's mask by a
    /// fork/exec propagation flag stays behind `chained`.
    pub layer_hits: BTreeMap<String, u64>,
}

impl ProcAudit {
    /// Total bypassed syscalls across signatures.
    pub fn bypassed_total(&self) -> u64 {
        self.bypassed.values().sum()
    }

    /// Bypasses carrying one signature.
    pub fn bypassed_by(&self, sig: Signature) -> u64 {
        self.bypassed.get(&sig).copied().unwrap_or(0)
    }

    /// All audited syscalls (covered + bypassed).
    pub fn total(&self) -> u64 {
        self.interposed_path + self.interposed_control + self.double + self.bypassed_total()
    }

    /// Covered syscalls (path + control + double).
    pub fn covered(&self) -> u64 {
        self.interposed_path + self.interposed_control + self.double
    }

    /// Coverage in tenths of a percent (integer, so reports stay
    /// byte-deterministic without float formatting concerns). 1000 =
    /// 100.0%.
    pub fn coverage_permille(&self) -> u64 {
        (self.covered() * 1000).checked_div(self.total()).unwrap_or(0)
    }

    fn fold(&mut self, other: &ProcAudit) {
        self.interposed_path += other.interposed_path;
        self.interposed_control += other.interposed_control;
        self.double += other.double;
        for (sig, n) in &other.bypassed {
            *self.bypassed.entry(*sig).or_insert(0) += n;
        }
        for (k, n) in &other.bypass_sites {
            *self.bypass_sites.entry(*k).or_insert(0) += n;
        }
        self.chained += other.chained;
        for (l, n) in &other.layer_hits {
            *self.layer_hits.entry(l.clone()).or_insert(0) += n;
        }
    }
}

/// The coverage ledger: per-process accounting plus the spec it was
/// audited against.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AuditLedger {
    /// The expectation the run was audited against.
    pub spec: AuditSpec,
    /// Per-process coverage rows.
    pub per_proc: BTreeMap<Pid, ProcAudit>,
}

impl AuditLedger {
    /// All processes folded into one row.
    pub fn totals(&self) -> ProcAudit {
        let mut t = ProcAudit::default();
        for p in self.per_proc.values() {
            t.fold(p);
        }
        t
    }
}

/// Live kernel-side audit state for one configured run.
#[derive(Debug, Clone, Default)]
pub struct AuditSession {
    /// The running ledger (vDSO rows are folded in at report time).
    pub ledger: AuditLedger,
    /// Processes whose interposer was live and then lost to an `execve`
    /// (cleared again if the mechanism re-marks itself live, as K23's
    /// re-attach does).
    exec_gap: BTreeSet<Pid>,
    /// Children born uncovered from a covered parent.
    fork_gap: BTreeSet<Pid>,
}

impl AuditSession {
    /// A session auditing against `spec`.
    pub fn new(spec: AuditSpec) -> AuditSession {
        AuditSession {
            ledger: AuditLedger {
                spec,
                per_proc: BTreeMap::new(),
            },
            exec_gap: BTreeSet::new(),
            fork_gap: BTreeSet::new(),
        }
    }

    /// Classifies one architectural syscall and records it. Returns the
    /// tag for observability counters.
    pub fn classify(&mut self, pid: Pid, site: u64, view: &SyscallView<'_>) -> AuditTag {
        let spec = &self.ledger.spec;
        let tag = if !spec.expects_any() {
            AuditTag::Bypassed(Signature::Uncovered)
        } else {
            let in_handler = spec.in_handler(view.region);
            let traced = spec.via_tracer && view.traced;
            let sigsys = spec.via_sigsys && view.will_sigsys;
            let channels = [in_handler, traced, sigsys].iter().filter(|&&c| c).count();
            if channels >= 2 {
                AuditTag::Double
            } else if in_handler {
                AuditTag::Path
            } else if traced || sigsys {
                AuditTag::Control
            } else {
                AuditTag::Bypassed(self.bypass_signature(pid, view))
            }
        };
        let p = self.ledger.per_proc.entry(pid).or_default();
        match tag {
            AuditTag::Path => p.interposed_path += 1,
            AuditTag::Control => p.interposed_control += 1,
            AuditTag::Double => p.double += 1,
            AuditTag::Bypassed(sig) => {
                *p.bypassed.entry(sig).or_insert(0) += 1;
                *p.bypass_sites.entry((sig, site)).or_insert(0) += 1;
            }
        }
        tag
    }

    /// Why did the mechanism miss this one? Ordered most-specific first.
    fn bypass_signature(&self, pid: Pid, view: &SyscallView<'_>) -> Signature {
        let spec = &self.ledger.spec;
        if spec.via_sigsys && view.live {
            // The mechanism interposes through SUD and believes itself
            // installed — the gap is in the SUD state itself.
            if !view.sud_armed {
                return Signature::SudOff;
            }
            if !view.in_allowlist && view.selector_allow {
                return Signature::SelectorRewrite;
            }
        }
        if !view.live {
            if self.exec_gap.contains(&pid) {
                return Signature::ExecGap;
            }
            if self.fork_gap.contains(&pid) {
                return Signature::ForkGap;
            }
            return Signature::PreInit;
        }
        Signature::Blind
    }

    /// `execve` hook: the process was covered and the new image cleared
    /// that. Until the mechanism re-marks itself live, its bypasses
    /// classify as P1a.
    pub fn note_exec(&mut self, pid: Pid, was_live: bool) {
        if was_live {
            self.exec_gap.insert(pid);
        }
        self.fork_gap.remove(&pid);
    }

    /// Fork hook: a child born outside the mechanism's propagation while
    /// the parent was covered.
    pub fn note_fork(&mut self, child: Pid, parent_covered: bool, child_covered: bool) {
        if parent_covered && !child_covered {
            self.fork_gap.insert(child);
        }
    }

    /// Liveness hook: the mechanism (re-)installed itself in `pid`; any
    /// exec/fork gap is closed.
    pub fn note_live(&mut self, pid: Pid) {
        self.exec_gap.remove(&pid);
        self.fork_gap.remove(&pid);
    }

    /// Chain hook: one syscall ran through the composed stack for `pid`
    /// with `layers` active.
    pub fn note_chain(&mut self, pid: Pid, layers: &[String]) {
        let p = self.ledger.per_proc.entry(pid).or_default();
        p.chained += 1;
        for l in layers {
            *p.layer_hits.entry(l.clone()).or_insert(0) += 1;
        }
    }

    /// Folds `n` vDSO calls for `pid` into the ledger (report-time;
    /// vDSO calls never reach the dispatch choke point).
    pub fn fold_vdso(ledger: &mut AuditLedger, pid: Pid, n: u64) {
        if n == 0 || ledger.spec.covers_vdso {
            return;
        }
        let p = ledger.per_proc.entry(pid).or_default();
        *p.bypassed.entry(Signature::Vdso).or_insert(0) += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn preload_spec() -> AuditSpec {
        AuditSpec {
            mechanism: "zpoline".into(),
            handler_regions: vec!["libzpoline.so".into()],
            ..AuditSpec::default()
        }
    }

    fn view<'a>(region: &'a str, live: bool) -> SyscallView<'a> {
        SyscallView {
            region,
            traced: false,
            live,
            sud_armed: false,
            in_allowlist: false,
            will_sigsys: false,
            selector_allow: false,
        }
    }

    #[test]
    fn preinit_exec_and_fork_gaps_classify_distinctly() {
        let mut s = AuditSession::new(preload_spec());
        assert_eq!(
            s.classify(1, 0x1000, &view("/usr/lib/ld-sim.so", false)),
            AuditTag::Bypassed(Signature::PreInit)
        );
        assert_eq!(
            s.classify(1, 0x2000, &view("/usr/lib/libzpoline.so", true)),
            AuditTag::Path
        );
        s.note_exec(1, true);
        assert_eq!(
            s.classify(1, 0x3000, &view("/usr/bin/victim", false)),
            AuditTag::Bypassed(Signature::ExecGap)
        );
        // Re-marking live (K23 re-attach) closes the gap.
        s.note_live(1);
        assert_eq!(
            s.classify(1, 0x3000, &view("/usr/bin/victim", false)),
            AuditTag::Bypassed(Signature::PreInit)
        );
        s.note_fork(2, true, false);
        assert_eq!(
            s.classify(2, 0x4000, &view("/usr/bin/child", false)),
            AuditTag::Bypassed(Signature::ForkGap)
        );
        // A child born covered is never flagged.
        s.note_fork(3, true, true);
        assert_eq!(
            s.classify(3, 0x5000, &view("/usr/bin/child", false)),
            AuditTag::Bypassed(Signature::PreInit)
        );
    }

    #[test]
    fn sud_selector_rewrite_and_disarm_classify_as_p1b_and_sudoff() {
        let spec = AuditSpec {
            mechanism: "sud".into(),
            handler_regions: vec!["libsud-interpose.so".into()],
            via_sigsys: true,
            ..AuditSpec::default()
        };
        let mut s = AuditSession::new(spec);
        // Selector rewritten to ALLOW at an app site: P1b.
        let mut v = view("/usr/bin/p1b-poc", true);
        v.sud_armed = true;
        v.selector_allow = true;
        assert_eq!(
            s.classify(1, 0x1000, &v),
            AuditTag::Bypassed(Signature::SelectorRewrite)
        );
        // SUD disarmed entirely: the disarmed-window signature.
        let v = view("/usr/bin/p1b-poc", true);
        assert_eq!(s.classify(1, 0x1000, &v), AuditTag::Bypassed(Signature::SudOff));
        // Armed and trapping: control-transfer interposition.
        let mut v = view("/usr/bin/app", true);
        v.sud_armed = true;
        v.will_sigsys = true;
        assert_eq!(s.classify(1, 0x1000, &v), AuditTag::Control);
    }

    #[test]
    fn double_interposition_needs_two_channels() {
        let spec = AuditSpec {
            mechanism: "k23".into(),
            handler_regions: vec!["libk23.so".into()],
            via_tracer: true,
            via_sigsys: true,
            covers_vdso: true,
        };
        let mut s = AuditSession::new(spec);
        let mut v = view("/usr/lib/libk23.so", true);
        v.traced = true;
        assert_eq!(s.classify(1, 0x1000, &v), AuditTag::Double);
        v.traced = false;
        assert_eq!(s.classify(1, 0x1000, &v), AuditTag::Path);
        let t = s.ledger.totals();
        assert_eq!((t.double, t.interposed_path, t.total()), (1, 1, 2));
        assert_eq!(t.coverage_permille(), 1000);
    }

    #[test]
    fn empty_spec_audits_everything_uncovered() {
        let mut s = AuditSession::new(AuditSpec::none("native"));
        let v = view("/usr/bin/app", true);
        assert_eq!(s.classify(1, 0x1000, &v), AuditTag::Bypassed(Signature::Uncovered));
        assert_eq!(s.ledger.totals().coverage_permille(), 0);
    }

    #[test]
    fn vdso_folds_unless_covered() {
        let mut l = AuditLedger {
            spec: preload_spec(),
            ..AuditLedger::default()
        };
        AuditSession::fold_vdso(&mut l, 1, 5);
        assert_eq!(l.totals().bypassed_by(Signature::Vdso), 5);
        let mut covered = AuditLedger {
            spec: AuditSpec {
                covers_vdso: true,
                ..preload_spec()
            },
            ..AuditLedger::default()
        };
        AuditSession::fold_vdso(&mut covered, 1, 5);
        assert_eq!(covered.totals().total(), 0);
    }

    #[test]
    fn blind_sites_classify_as_p2a_when_live() {
        let mut s = AuditSession::new(preload_spec());
        assert_eq!(
            s.classify(1, 0x9000, &view("[anon]", true)),
            AuditTag::Bypassed(Signature::Blind)
        );
    }
}
