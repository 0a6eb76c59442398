//! Composed-stack evaluation: the fault matrix of [`crate::fault`] swept
//! over *stacked* interposers, plus fork/execve propagation probes.
//!
//! Stacking layers on a mechanism is where a second class of pitfalls
//! lives: hazards no single mechanism exhibits, created purely by the
//! composition. The canonical one is the nested-sigreturn hazard — a
//! naive record layer marshals *every* chained outcome as a return value,
//! so when the signal scenario lands a delivery whose handler ends in
//! `rt_sigreturn`, the layer's epilogue "returns" into the frame the
//! sigreturn just abandoned. `zpoline+recorder` and `ptrace+recorder` die
//! on the signal scenario even though bare `zpoline` and bare `ptrace`
//! both survive it; the composition-only column of the matrix makes that
//! visible. The propagation probes reuse the P1a parent/victim pair to
//! show per-layer fork/exec masks: a `tracer` follows a K23-covered
//! victim across `execve` while a `recorder` (exec propagation off) does
//! not, and under zpoline's env-clearing gap *no* layer survives the exec
//! because the base itself loses its handler library.

use crate::fault::{sweep, Scenario, MECHANISMS};
use crate::pocs;
use interpose::registry::parse_spec;
use interpose::{Interposer, InterposerStack};
use k23::OfflineSession;
use sim_fault::FaultPlan;
use sim_kernel::{nr, Kernel, Pid};
use sim_loader::boot_kernel;

/// The composed stacks the matrix sweeps (bare `zpoline` rides along as
/// the in-table control for its own compositions).
pub const STACKS: [&str; 7] = [
    "zpoline",
    "zpoline+tracer",
    "zpoline+recorder",
    "zpoline+tracer+recorder-safe",
    "ptrace+recorder",
    "k23+tracer",
    "sud+sandbox",
];

/// Cycle budget per propagation probe run.
const BUDGET: u64 = 500_000_000_000;

/// One evaluated (stack, scenario) cell.
#[derive(Debug, Clone)]
pub struct StackCell {
    /// The registry spec evaluated.
    pub spec: &'static str,
    /// Scenario injected.
    pub scenario: Scenario,
    /// The exact plan injected (replayable).
    pub plan: FaultPlan,
    /// Whether the faulted run matched the stack's own clean baseline
    /// byte-for-byte (exit status and captured output).
    pub survived: bool,
    /// Whether the *bare base mechanism* survives the same scenario at
    /// the same seed: `!survived && base_survived` is a composition-only
    /// hazard.
    pub base_survived: bool,
    /// Faulted exit status.
    pub exit: Option<i64>,
    /// Baseline exit status.
    pub baseline_exit: Option<i64>,
}

impl StackCell {
    /// A failure the bare base does not exhibit.
    pub fn composition_only(&self) -> bool {
        !self.survived && self.base_survived
    }
}

/// Evaluates the full composed matrix at `seed`: every scenario under
/// every stack, and, for the composition-only column, each stack's *base*
/// mechanism at the same seed. A base that is itself one of [`STACKS`]
/// takes its verdicts from that row; the others are swept once each.
pub fn full_stack_matrix(seed: u64) -> Vec<StackCell> {
    crate::register_all();
    let base_of = |spec: &str| parse_spec(spec).expect("STACKS entries parse").0;
    let other_bases: Vec<&'static str> = MECHANISMS
        .into_iter()
        .filter(|m| !STACKS.contains(m) && STACKS.iter().any(|s| base_of(s) == *m))
        .collect();
    let stacks = sweep(&STACKS, seed);
    let bases = sweep(&other_bases, seed);
    stacks
        .iter()
        .map(|c| {
            let base = base_of(c.spec);
            let base_cell = stacks
                .iter()
                .chain(&bases)
                .find(|b| b.spec == base && b.scenario == c.scenario)
                .expect("every base swept");
            StackCell {
                spec: c.spec,
                scenario: c.scenario,
                plan: c.plan.clone(),
                survived: c.survived,
                base_survived: base_cell.survived,
                exit: c.exit,
                baseline_exit: c.baseline_exit,
            }
        })
        .collect()
}

/// Renders the composed matrix (stack rows × scenario columns), the
/// composition-only callout, and a one-command replay line per failing
/// cell. Byte-deterministic for a given seed.
pub fn render_stack_matrix(seed: u64, cells: &[StackCell]) -> String {
    let mut out = String::new();
    out.push_str(&format!("composed-stack fault matrix (seed {seed})\n"));
    out.push_str(&format!("{:<30}", "stack"));
    for scenario in Scenario::ALL {
        out.push_str(&format!("{:>10}", scenario.label()));
    }
    out.push('\n');
    for spec in STACKS {
        out.push_str(&format!("{spec:<30}"));
        for scenario in Scenario::ALL {
            let cell = cells
                .iter()
                .find(|c| c.spec == spec && c.scenario == scenario)
                .expect("cell evaluated");
            let glyph = if cell.survived {
                "✓"
            } else if cell.composition_only() {
                "✗*"
            } else {
                "✗"
            };
            out.push_str(&format!("{glyph:>10}"));
        }
        out.push('\n');
    }
    let comp: Vec<&StackCell> = cells.iter().filter(|c| c.composition_only()).collect();
    if !comp.is_empty() {
        out.push_str("\n* composition-only hazard: the bare base mechanism survives this\n");
        out.push_str("  scenario at the same seed; the failure exists only in the stack.\n");
    }
    let failing: Vec<&StackCell> = cells.iter().filter(|c| !c.survived).collect();
    if !failing.is_empty() {
        out.push_str("\nreplay failing cells:\n");
        for c in failing {
            out.push_str(&format!(
                "  simstack --replay {} '{}'\n",
                c.spec,
                c.plan.encode()
            ));
        }
    }
    out
}

/// What one propagation probe observed: the P1a parent/victim pair run
/// under a composed stack, with per-layer chained-call counts split by
/// process.
#[derive(Debug, Clone)]
pub struct PropagationProbe {
    /// The spec probed.
    pub spec: &'static str,
    /// Chained entries the tracer layer saw in the parent (any nr).
    pub parent_traced: u64,
    /// Chained entries of the victim's marker syscall (nr 500) the tracer
    /// layer saw in the exec'd victim. 10 when the layer propagated
    /// across the execve; 0 when the chain went inert.
    pub victim_traced: u64,
    /// Completions the recorder layer logged in the exec'd victim.
    pub victim_recorded: u64,
}

/// Runs `/usr/bin/p1a-parent` (fork → execve of the env-cleared victim)
/// under `spec` and reports per-layer, per-process chained-call counts.
///
/// # Panics
///
/// On a spec that does not parse, carries no layers, or fails to spawn.
pub fn probe_propagation(spec: &'static str) -> PropagationProbe {
    crate::register_all();
    let stack = InterposerStack::from_spec(spec).expect("composed spec");
    let mut k = boot_kernel();
    pocs::install_pocs(&mut k.vfs);
    if k23::needs_offline(spec) {
        let session = OfflineSession::new(&mut k, "/usr/bin/p1a-parent");
        let _ = session.run_once(&mut k, &["/usr/bin/p1a-parent".to_string()], &[], BUDGET);
        session.finish(&mut k);
    }
    stack.install(&mut k);
    let parent = stack
        .spawn(
            &mut k,
            "/usr/bin/p1a-parent",
            &["/usr/bin/p1a-parent".to_string()],
            &[],
        )
        .unwrap_or_else(|e| panic!("spawn p1a-parent: {e}"));
    k.run(BUDGET);
    let victims: Vec<Pid> = k
        .pids()
        .into_iter()
        .filter(|pid| {
            k.process(*pid)
                .is_some_and(|p| p.exe == "/usr/bin/p1-victim")
        })
        .collect();
    let tracer = stack.tracer();
    let recorder = stack.recorder();
    PropagationProbe {
        spec,
        parent_traced: tracer.as_ref().map_or(0, |t| t.total(parent)),
        victim_traced: victims
            .iter()
            .map(|pid| {
                tracer
                    .as_ref()
                    .map_or(0, |t| t.count(*pid, nr::SYS_NONEXISTENT))
            })
            .sum(),
        victim_recorded: recorder
            .as_ref()
            .map_or(0, |r| {
                victims.iter().map(|pid| r.entries(*pid) as u64).sum()
            }),
    }
}

/// The propagation probes the report runs, chosen to separate the three
/// propagation outcomes: layer follows the exec (K23 re-attaches its
/// handler), layer masked out by its own exec flag (recorder), and chain
/// inert because the *base* lost its library to the env-clearing exec
/// (zpoline under P1a).
pub const PROPAGATION_SPECS: [&str; 4] = [
    "k23+tracer",
    "k23+tracer+recorder",
    "zpoline+tracer",
    "zpoline+recorder",
];

/// Renders the propagation section: one row per probe. Deterministic.
pub fn render_propagation() -> String {
    let mut out = String::new();
    out.push_str("layer propagation across fork+execve (P1a parent → env-cleared victim)\n");
    out.push_str(&format!(
        "{:<26}{:>14}{:>14}{:>16}\n",
        "stack", "parent-traced", "victim-traced", "victim-recorded"
    ));
    for spec in PROPAGATION_SPECS {
        let p = probe_propagation(spec);
        out.push_str(&format!(
            "{:<26}{:>14}{:>14}{:>16}\n",
            p.spec, p.parent_traced, p.victim_traced, p.victim_recorded
        ));
    }
    out
}

/// Boots a fresh kernel with the PoC images installed (shared by the
/// stack tests).
pub fn fresh_kernel() -> Kernel {
    let mut k = boot_kernel();
    pocs::install_pocs(&mut k.vfs);
    k
}
