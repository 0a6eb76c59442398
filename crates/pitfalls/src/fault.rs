//! The fault-resilience matrix: every interposition mechanism versus every
//! deterministic fault scenario from [`sim_fault`].
//!
//! Each cell runs the same probe workload twice through the mechanism's
//! [`interpose::Interposer`] — once clean, once under a seeded
//! [`FaultPlan`] — and declares survival iff exit status and captured
//! output are byte-identical. Because the simulator is deterministic, a
//! failing cell is replayed exactly from its printed `seed + plan`
//! encoding alone.

use interpose::Interposer;
use k23::OfflineSession;
use sim_fault::{FaultKind, FaultPlan, PermFlip, Rng, SchedPlan, SignalWindow, SyscallFault};
use sim_isa::Reg;
use sim_kernel::{nr, EngineConfig};
use sim_loader::{boot_kernel, ImageBuilder, SimElf};

/// Guest path of the fault probe.
pub const PROBE_PATH: &str = "/usr/bin/fault-probe";

/// The mechanisms under evaluation, by canonical registry name.
pub const MECHANISMS: [&str; 5] = ["sud", "ptrace", "zpoline", "lazypoline", "k23"];

const BUDGET: u64 = 500_000_000_000;
const ROUNDS: u64 = 24;
const MSG: &[u8] = b"tick\n";

/// One fault-injection scenario (a family of plans, parameterized by seed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// errno faults on the probe's syscalls: `EINTR`, `EAGAIN`, and short
    /// transfers at seeded occurrences.
    Errno,
    /// Asynchronous `SIGUSR1` delivered at seeded instruction boundaries
    /// across the whole run — including inside trampolines and handlers.
    Signal,
    /// Adversarial scheduling: rotated run queues plus jittered slice
    /// caps. Must be invisible to a single-threaded guest.
    Sched,
    /// Transient page-permission flips on the probe's code/data pages
    /// (and the zero page), each restored after a fixed duration.
    PermFlip,
}

impl Scenario {
    /// All scenarios, in table row order.
    pub const ALL: [Scenario; 4] = [
        Scenario::Errno,
        Scenario::Signal,
        Scenario::Sched,
        Scenario::PermFlip,
    ];

    /// Display name.
    pub fn label(self) -> &'static str {
        match self {
            Scenario::Errno => "errno",
            Scenario::Signal => "signal",
            Scenario::Sched => "sched",
            Scenario::PermFlip => "permflip",
        }
    }
}

/// Builds the probe: a guest that registers a `SIGUSR1` counter handler,
/// then loops issuing a marker syscall (result ignored) and a robust
/// `write` that retries `EINTR`/`EAGAIN` and continues short transfers —
/// the contract POSIX asks of well-written applications, and exactly what
/// an interposer must preserve under injected faults.
pub fn build_fault_probe() -> SimElf {
    let mut b = ImageBuilder::new(PROBE_PATH);
    b.entry("main");
    b.needs(sim_loader::LIBC_PATH);
    b.asm.label("main");
    // rt_sigaction(SIGUSR1, sig_count)
    b.asm.mov_imm(Reg::Rdi, nr::SIGUSR1);
    b.asm.lea_label(Reg::Rsi, "sig_count");
    b.asm.mov_imm(Reg::Rax, nr::SYS_RT_SIGACTION);
    b.asm.syscall();
    b.asm.mov_imm(Reg::R12, ROUNDS);
    b.asm.label("round");
    // Marker syscall: unknown nr, every return value (ENOSYS or an
    // injected errno) is acceptable.
    b.asm.mov_imm(Reg::Rax, 500);
    b.asm.syscall();
    // Robust write of MSG to stdout: r13 = cursor, r14 = remaining.
    b.asm.lea_label(Reg::R13, "msg");
    b.asm.mov_imm(Reg::R14, MSG.len() as u64);
    b.asm.label("wr");
    b.asm.mov_imm(Reg::Rdi, 1);
    b.asm.mov_reg(Reg::Rsi, Reg::R13);
    b.asm.mov_reg(Reg::Rdx, Reg::R14);
    b.asm.mov_imm(Reg::Rax, nr::SYS_WRITE);
    b.asm.syscall();
    b.asm.mov_imm(Reg::R11, nr::err(nr::EINTR) as u64);
    b.asm.cmp_reg(Reg::Rax, Reg::R11);
    b.asm.jz("wr");
    b.asm.mov_imm(Reg::R11, nr::err(nr::EAGAIN) as u64);
    b.asm.cmp_reg(Reg::Rax, Reg::R11);
    b.asm.jz("wr");
    // Short transfer: advance the cursor and keep going.
    b.asm.add_reg(Reg::R13, Reg::Rax);
    b.asm.sub_reg(Reg::R14, Reg::Rax);
    b.asm.cmp_imm(Reg::R14, 0);
    b.asm.jnz("wr");
    b.asm.sub_imm(Reg::R12, 1);
    b.asm.cmp_imm(Reg::R12, 0);
    b.asm.jnz("round");
    b.asm.mov_imm(Reg::Rax, 0);
    b.asm.ret();
    // SIGUSR1 handler: count the delivery in guest data (never printed, so
    // output stays comparable to the zero-fault baseline), then sigreturn.
    b.asm.label("sig_count");
    b.asm.lea_label(Reg::Rax, "counter");
    b.asm.load(Reg::Rcx, Reg::Rax, 0);
    b.asm.add_imm(Reg::Rcx, 1);
    b.asm.store(Reg::Rax, 0, Reg::Rcx);
    b.asm.mov_imm(Reg::Rax, nr::SYS_RT_SIGRETURN);
    b.asm.syscall();
    b.data_object("msg", MSG);
    b.data_object("counter", &[0u8; 8]);
    b.finish()
}

/// One probe execution's observable result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeRun {
    /// Exit status, if the guest terminated in budget.
    pub exit: Option<i64>,
    /// Captured stdout/stderr bytes.
    pub output: Vec<u8>,
    /// Guest address of the probe's `main` label.
    pub main_addr: u64,
    /// Guest address of the probe's data page (the `msg` object).
    pub data_addr: u64,
    /// Final simulated clock.
    pub clock: u64,
}

/// Runs the probe under `mech` (a canonical registry name), with an
/// optional fault plan. A spec on any K23 base ([`k23::needs_offline`])
/// gets its offline phase (run fault-free, before the plan is armed)
/// exactly as the Table 3 matrix does.
pub fn run_probe(mech: &str, plan: Option<&FaultPlan>) -> ProbeRun {
    run_probe_on(mech, plan, EngineConfig::new())
}

/// [`run_probe`] with an explicit base [`EngineConfig`] — the cross-engine
/// determinism tests drive the same plan through the block engine and the
/// stepwise oracle. The plan (if any) is installed on top of `base`.
pub fn run_probe_on(mech: &str, plan: Option<&FaultPlan>, base: EngineConfig) -> ProbeRun {
    crate::register_all();
    let ip: Box<dyn Interposer> =
        interpose::by_name_spec(mech).unwrap_or_else(|e| panic!("spec {mech:?}: {e}"));
    let mut k = boot_kernel();
    build_fault_probe().install(&mut k.vfs);
    if k23::needs_offline(mech) {
        // Offline phase always runs fault-free under the default engine, so
        // the collected site log is identical regardless of `base`.
        let session = OfflineSession::new(&mut k, PROBE_PATH);
        let _ = session.run_once(&mut k, &[PROBE_PATH.to_string()], &[], BUDGET);
        session.finish(&mut k);
    }
    let cfg = match plan {
        Some(plan) => base.fault(plan.clone()),
        None => base,
    };
    k.configure(cfg);
    ip.install(&mut k);
    let pid = ip
        .spawn(&mut k, PROBE_PATH, &[PROBE_PATH.to_string()], &[])
        .unwrap_or_else(|e| panic!("spawn {PROBE_PATH}: {e}"));
    k.run(BUDGET);
    let sym = |name: &str| {
        k.process(pid)
            .and_then(|p| p.symbols.get(name).copied())
            .unwrap_or(0)
    };
    ProbeRun {
        exit: k.process(pid).and_then(|p| p.exit_status),
        output: k.process(pid).map(|p| p.output.clone()).unwrap_or_default(),
        main_addr: sym("fault-probe:main"),
        data_addr: sym("fault-probe:msg"),
        clock: k.clock,
    }
}

/// Derives the scenario's plan from the seed (and, for permission flips,
/// the baseline run's symbol addresses — image layout is deterministic, so
/// the plan replays exactly).
pub fn plan_for(scenario: Scenario, seed: u64, baseline: &ProbeRun) -> FaultPlan {
    let mut plan = FaultPlan::zero(seed);
    let mut rng = Rng::new(seed ^ (0xfa17_0000 + scenario as u64));
    match scenario {
        Scenario::Errno => {
            let f = |nr, occurrence, kind| SyscallFault {
                nr,
                occurrence,
                kind,
            };
            plan.syscall_faults = vec![
                f(nr::SYS_WRITE, 2 + rng.below(6), FaultKind::Eintr),
                f(nr::SYS_WRITE, 9 + rng.below(6), FaultKind::Partial),
                f(nr::SYS_WRITE, 16 + rng.below(4), FaultKind::Eagain),
                f(500, 1 + rng.below(8), FaultKind::Eintr),
                f(500, 10 + rng.below(8), FaultKind::Eagain),
            ];
        }
        Scenario::Signal => {
            // Probe runs retire only a few thousand instructions, so a
            // tight stride lands deliveries inside trampolines, handlers,
            // and plain app code alike.
            plan.signal_window = Some(SignalWindow {
                signo: nr::SIGUSR1,
                start: 200 + rng.below(200),
                end: 50_000,
                stride: 150 + rng.below(150),
            });
        }
        Scenario::Sched => {
            plan.sched = Some(SchedPlan {
                rotate_period: 2 + rng.below(4),
                slice_jitter: 64 + rng.below(192),
            });
        }
        Scenario::PermFlip => {
            let page = |a: u64| a & !(sim_mem::PAGE_SIZE - 1);
            let mut flips = Vec::new();
            for (i, at) in [400u64, 900, 1_400, 1_900].iter().enumerate() {
                // Alternate code-page and data-page widenings (adding W to
                // code, X to data): never lethal by themselves, but each
                // one behaves like an mprotect IPI mid-run.
                let target = if i % 2 == 0 {
                    page(baseline.main_addr)
                } else {
                    page(baseline.data_addr)
                };
                flips.push(PermFlip {
                    at: at + rng.below(200),
                    page: target,
                    perms: 7,
                    duration: 300,
                });
            }
            // The zero page: zpoline's trampoline lives there; for every
            // other mechanism it is unmapped and the flip is a no-op.
            flips.push(PermFlip {
                at: 1_100 + rng.below(200),
                page: 0,
                perms: 7,
                duration: 250,
            });
            plan.perm_flips = flips;
        }
    }
    plan
}

/// One evaluated cell.
#[derive(Debug, Clone)]
pub struct Cell {
    /// The registry spec evaluated: a mechanism, or a composed stack.
    pub spec: &'static str,
    /// Scenario injected.
    pub scenario: Scenario,
    /// The exact plan injected (replayable).
    pub plan: FaultPlan,
    /// Whether the faulted run matched the clean baseline byte-for-byte
    /// (exit status and captured output).
    pub survived: bool,
    /// Faulted exit status.
    pub exit: Option<i64>,
    /// Baseline exit status.
    pub baseline_exit: Option<i64>,
}

/// Evaluates every scenario at `seed` under each of `specs` (registry
/// specs: bare mechanisms or composed stacks), each against one clean
/// baseline run of its spec.
pub fn sweep(specs: &[&'static str], seed: u64) -> Vec<Cell> {
    let mut cells = Vec::new();
    for &spec in specs {
        let baseline = run_probe(spec, None);
        for scenario in Scenario::ALL {
            let plan = plan_for(scenario, seed, &baseline);
            let faulted = run_probe(spec, Some(&plan));
            cells.push(Cell {
                spec,
                scenario,
                survived: faulted.exit == baseline.exit && faulted.output == baseline.output,
                exit: faulted.exit,
                baseline_exit: baseline.exit,
                plan,
            });
        }
    }
    cells
}

/// Evaluates the full matrix at `seed`: every scenario under every
/// mechanism.
pub fn full_fault_matrix(seed: u64) -> Vec<Cell> {
    sweep(&MECHANISMS, seed)
}

/// Re-runs one cell from its printed replay line: the probe under `spec`
/// (any registry spec, composed stacks included) clean and under the
/// encoded plan, rendered with the survival verdict.
///
/// # Errors
///
/// A plan that does not decode, or a spec that does not parse.
pub fn replay(spec: &str, encoded_plan: &str) -> Result<String, String> {
    let plan =
        FaultPlan::decode(encoded_plan).map_err(|e| format!("bad plan {encoded_plan:?}: {e}"))?;
    crate::register_all();
    interpose::registry::parse_spec(spec).map_err(|e| format!("bad spec {spec:?}: {e}"))?;
    let baseline = run_probe(spec, None);
    let faulted = run_probe(spec, Some(&plan));
    let survived = faulted.exit == baseline.exit && faulted.output == baseline.output;
    Ok(format!(
        "replay {spec} '{}'\n  baseline: exit {:?}, {} output bytes\n  faulted:  exit {:?}, {} output bytes\n  verdict:  {}\n",
        plan.encode(),
        baseline.exit,
        baseline.output.len(),
        faulted.exit,
        faulted.output.len(),
        if survived { "survived" } else { "FAILED" }
    ))
}

/// Renders the matrix (scenario rows × mechanism columns) followed by a
/// one-command replay line per failing cell. Byte-deterministic for a
/// given seed.
pub fn render_fault_matrix(seed: u64, cells: &[Cell]) -> String {
    let mut out = String::new();
    out.push_str(&format!("fault resilience matrix (seed {seed})\n"));
    out.push_str(&format!("{:<10}", "scenario"));
    for mech in MECHANISMS {
        out.push_str(&format!("{mech:>12}"));
    }
    out.push('\n');
    for scenario in Scenario::ALL {
        out.push_str(&format!("{:<10}", scenario.label()));
        for mech in MECHANISMS {
            let cell = cells
                .iter()
                .find(|c| c.spec == mech && c.scenario == scenario)
                .expect("cell evaluated");
            out.push_str(&format!("{:>12}", if cell.survived { "✓" } else { "✗" }));
        }
        out.push('\n');
    }
    let failing: Vec<&Cell> = cells.iter().filter(|c| !c.survived).collect();
    if !failing.is_empty() {
        out.push_str("\nreplay failing cells:\n");
        for c in failing {
            out.push_str(&format!(
                "  simfault --replay {} '{}'\n",
                c.spec,
                c.plan.encode()
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_runs_clean_natively() {
        let r = run_probe("native", None);
        assert_eq!(r.exit, Some(0));
        assert_eq!(r.output, MSG.repeat(ROUNDS as usize));
        assert_ne!(r.main_addr, 0);
        assert_ne!(r.data_addr, 0);
    }

    /// The committed matrix's failing K23 signal cell replays as FAILED
    /// from its printed line, while ptrace and zpoline survive the same
    /// plan (as their ✓ cells in that row say).
    #[test]
    fn replay_renders_the_committed_verdicts() {
        let plan = "s=7;w=10:296:50000:243";
        let k23 = replay("k23", plan).expect("replays");
        assert!(k23.starts_with(&format!("replay k23 '{plan}'\n")), "{k23}");
        assert!(k23.contains("verdict:  FAILED"), "{k23}");
        for mech in ["ptrace", "zpoline"] {
            let out = replay(mech, plan).expect("replays");
            assert!(out.contains("verdict:  survived"), "{mech}: {out}");
        }
    }

    #[test]
    fn replay_rejects_a_bad_plan_or_spec() {
        assert!(replay("k23", "not-a-plan")
            .unwrap_err()
            .contains("bad plan"));
        assert!(replay("bogus", "s=7").unwrap_err().contains("bad spec"));
        assert!(replay("k23+bogus", "s=7").unwrap_err().contains("bad spec"));
    }

    /// Every K23 base, bare or under a layer, runs its offline phase
    /// first: the probe run ends past the clock at which the offline
    /// phase alone ends.
    #[test]
    fn every_k23_base_runs_the_offline_phase() {
        let mut k = boot_kernel();
        build_fault_probe().install(&mut k.vfs);
        let session = OfflineSession::new(&mut k, PROBE_PATH);
        let _ = session.run_once(&mut k, &[PROBE_PATH.to_string()], &[], BUDGET);
        let offline_only = k.clock;
        assert!(session.site_count() > 0, "the offline phase logged no site");
        for spec in ["k23", "k23-ultra", "k23-ultra+", "k23-ultra+tracer"] {
            let clock = run_probe(spec, None).clock;
            assert!(
                clock > offline_only,
                "{spec} ended at clock {clock}, the offline phase alone at {offline_only}"
            );
        }
    }

    #[test]
    fn plans_replay_through_their_encoding() {
        let baseline = run_probe("native", None);
        for scenario in Scenario::ALL {
            let plan = plan_for(scenario, 7, &baseline);
            let round = FaultPlan::decode(&plan.encode()).expect("decodes");
            assert_eq!(round, plan, "{scenario:?} encoding is lossy");
        }
    }
}

