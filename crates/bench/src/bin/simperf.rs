//! simperf — host wall-clock throughput of the simulator engines.
//!
//! Runs the Table 5 syscall-500 stress guest under both engines — the
//! stepwise oracle (per-step scheduler loop, `EngineConfig::stepwise()`)
//! and the block engine (run-until-event blocks, page-run memory, and
//! hot code promoted into linked superblocks with generation
//! revalidation) — reporting simulated instructions per second for each.
//! A trace diff at a smaller count first proves the two are
//! instruction-for-instruction identical, so the throughput comparison is
//! apples to apples. Results land in `BENCH_simperf.json` (override with
//! `--json PATH`), including a `sim-obs` counter snapshot (TLB hit rate,
//! icache reuse and coalescing, trace formation/link/side-exit counts) so
//! perf changes regress-check hit rates, not just throughput. The
//! snapshot run sizes the event ring to hold the full workload so
//! `dropped_events` is zero and counters are never skewed by ring
//! overflow. Timed runs keep tracing and obs disabled.
//!
//! `--gate FILE` re-measures and compares against a committed baseline:
//! determinism must hold, the snapshot ring must not drop events, and
//! block inst/s must not fall below baseline × (1 − `TOL`), a fixed 0.5 —
//! generous because wall-clock throughput on shared CI is noisy; only
//! slowdowns fail, speedups pass. Host time is not a simulated output, so
//! this is the one check of a committed artifact that `cargo test` cannot
//! make; `scripts/ci.sh` runs it against `BENCH_simperf.json` and says how
//! to refresh that file. The gate reads only the baseline's `determinism`
//! and `block` entries; the `stepwise` row is informational.

use bench::cli::{self, Args};
use bench::micro::{install_micro, MICRO_APP};
use interpose::{Interposer, Native};
use sim_kernel::{EngineConfig, Kernel, Pid, RunExit, TraceEntry};
use std::process::ExitCode;
use std::time::Instant;

/// The gate's tolerated fall in block inst/s below the baseline.
const TOL: f64 = 0.5;

/// Which engine a run uses.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// The stepwise oracle: one scheduler step per instruction.
    Stepwise,
    /// Block engine: `run_block` + superblocks + page runs + TLB.
    Block,
}

impl Mode {
    const ALL: [Mode; 2] = [Mode::Stepwise, Mode::Block];

    fn config(self) -> EngineConfig {
        match self {
            Mode::Stepwise => EngineConfig::stepwise(),
            Mode::Block => EngineConfig::new(),
        }
    }

    /// Engine label used in the JSON rows and the gate.
    fn label(self) -> &'static str {
        match self {
            Mode::Stepwise => "stepwise",
            Mode::Block => "run_block+superblocks+page-runs+tlb",
        }
    }

    /// Key of this engine's row in the JSON document (the gate reads
    /// `block`).
    fn json_key(self) -> &'static str {
        match self {
            Mode::Stepwise => "stepwise",
            Mode::Block => "block",
        }
    }
}

fn boot(n: u64) -> (Kernel, Pid) {
    let mut k = cli::fresh_world();
    install_micro(&mut k.vfs, n).expect("microbench installs");
    let ip = Native;
    ip.install(&mut k);
    let pid = ip.spawn(&mut k, MICRO_APP, &[], &[]).expect("spawn");
    (k, pid)
}

/// Runs the stress guest to completion under one engine. `trace` records
/// the instruction-level trace.
fn run(n: u64, mode: Mode, trace: bool) -> (f64, u64, Option<Vec<TraceEntry>>) {
    let (mut k, pid) = boot(n);
    k.configure(mode.config());
    if trace {
        k.start_exec_trace();
    }
    let t0 = Instant::now();
    let exit = k.run(u64::MAX / 4);
    let dt = t0.elapsed().as_secs_f64();
    assert_eq!(exit, RunExit::AllExited);
    assert_eq!(k.process(pid).and_then(|p| p.exit_status), Some(0));
    let tr = if trace { Some(k.take_exec_trace()) } else { None };
    (dt, k.clock, tr)
}

fn best_of(runs: u32, n: u64, mode: Mode) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..runs {
        let (dt, _, _) = run(n, mode, false);
        best = best.min(dt);
    }
    best
}

/// One engine's measured throughput row.
struct Row {
    mode: Mode,
    seconds: f64,
    inst_per_sec: f64,
}

/// Everything one full measurement pass produces.
struct Measured {
    n: u64,
    instructions: u64,
    diff_len: usize,
    rows: Vec<Row>,
    obs_iterations: u64,
    dropped_events: u64,
    obs: sjson::Value,
}

fn measure() -> Measured {
    let scale = bench::scale();

    // 1. Determinism proof: full trace diff at a modest count. The
    // stepwise run is the oracle; the block engine must match it entry
    // for entry (pid, tid, rip, clock, event).
    let diff_n = 2_000 / scale.clamp(1, 10);
    let (_, clock_ref, ref_tr) = run(diff_n, Mode::Stepwise, true);
    let ref_tr = ref_tr.unwrap();
    let (_, clock, tr) = run(diff_n, Mode::Block, true);
    let tr = tr.unwrap();
    assert_eq!(clock, clock_ref, "engine clocks diverge");
    assert_eq!(tr.len(), ref_tr.len(), "trace lengths diverge");
    for (i, (f, r)) in tr.iter().zip(ref_tr.iter()).enumerate() {
        assert_eq!(f, r, "block trace diverges at step {i}");
    }
    println!(
        "determinism: {} traced instructions identical across stepwise/block (clock {})",
        ref_tr.len(),
        clock_ref
    );

    // 2. Throughput: same guest, bigger count, timed without tracing.
    let n = (1_000_000 / scale).max(20_000);
    // Both engines retire the identical instruction stream (proved
    // above), so one traced run yields the retired-instruction count.
    let (_, _, count_tr) = run(n, Mode::Block, true);
    let instructions = count_tr.unwrap().len() as u64;
    println!("guest: {MICRO_APP} (syscall-500 stress), {n} iterations, {instructions} instructions");
    let rows: Vec<Row> = Mode::ALL
        .iter()
        .map(|&mode| {
            let seconds = best_of(3, n, mode);
            let inst_per_sec = instructions as f64 / seconds;
            println!("{:<38} {seconds:.3}s  {inst_per_sec:>12.0} inst/s", mode.label());
            Row { mode, seconds, inst_per_sec }
        })
        .collect();
    let ips = |m: Mode| rows.iter().find(|r| r.mode == m).unwrap().inst_per_sec;
    println!(
        "speedup over the stepwise oracle: block {:.2}x",
        ips(Mode::Block) / ips(Mode::Stepwise)
    );

    // 3. Counter snapshot from one extra block-engine run with sim-obs on
    // (tracing and obs stay off during every timed run above). The ring
    // is sized for the workload (~2 events per guest iteration) so the
    // snapshot counters are never skewed by silent event drops; the
    // snapshot caps the iteration count so the ring stays modest.
    let obs_n = n.min(100_000);
    let ring_cap = (4 * obs_n).next_power_of_two().max(1 << 16) as usize;
    sim_obs::enable(sim_obs::ObsConfig {
        ring_capacity: ring_cap,
        ..sim_obs::ObsConfig::default()
    });
    let _ = run(obs_n, Mode::Block, false);
    let rec = sim_obs::disable().expect("recorder");
    let dropped_events = rec.total_dropped();
    println!(
        "obs: tlb hit rate {:.2}%, icache reuse {:.2}%, {} traces formed, {} trace entries, {} dropped events (ring {ring_cap})",
        100.0 * rec.counters.tlb_hit_rate(),
        100.0 * rec.counters.icache_reuse_rate(),
        rec.counters.trace_forms,
        rec.counters.trace_entries,
        dropped_events
    );

    Measured {
        n,
        instructions,
        diff_len: ref_tr.len(),
        rows,
        obs_iterations: obs_n,
        dropped_events,
        obs: rec.counters_json(),
    }
}

fn write_json(path: &str, m: &Measured) -> Result<(), String> {
    let mut fields = vec![
        ("guest", sjson::Value::Str(MICRO_APP.into())),
        ("iterations", sjson::Value::UInt(m.n)),
        ("instructions", sjson::Value::UInt(m.instructions)),
        (
            "determinism",
            sjson::Value::object(vec![
                ("trace_len", sjson::Value::UInt(m.diff_len as u64)),
                ("identical", sjson::Value::Bool(true)),
            ]),
        ),
    ];
    for row in &m.rows {
        fields.push((
            row.mode.json_key(),
            sjson::Value::object(vec![
                ("engine", sjson::Value::Str(row.mode.label().into())),
                ("seconds", sjson::Value::Float(row.seconds)),
                ("inst_per_sec", sjson::Value::Float(row.inst_per_sec)),
            ]),
        ));
    }
    fields.push(("obs_iterations", sjson::Value::UInt(m.obs_iterations)));
    fields.push(("obs", m.obs.clone()));
    cli::write(path, sjson::Value::object(fields).to_string_pretty())?;
    println!("wrote {path}");
    Ok(())
}

/// Compares a fresh measurement against the committed baseline; returns
/// the list of violations (empty = gate passes). Only slowdowns beyond
/// `TOL` fail — speedups always pass.
fn gate(baseline_path: &str, m: &Measured) -> Result<Vec<String>, String> {
    let data = std::fs::read(baseline_path).map_err(|e| format!("read {baseline_path}: {e}"))?;
    let v = sjson::parse(&data).map_err(|e| format!("{baseline_path}: bad JSON: {e}"))?;
    let mut violations = Vec::new();
    // The committed baseline must itself claim determinism; the fresh
    // run already proved it (measure() asserts the trace diff).
    let base_identical = v
        .get("determinism")
        .and_then(|d| d.get("identical"))
        .and_then(|b| b.as_bool());
    if base_identical != Some(true) {
        violations.push(format!(
            "{baseline_path}: determinism.identical is not true in the committed baseline"
        ));
    }
    if m.dropped_events > 0 {
        violations.push(format!(
            "obs snapshot dropped {} events — counters are skewed; grow the ring",
            m.dropped_events
        ));
    }
    for row in &m.rows {
        // The stepwise oracle row is informational, not gated: it moves
        // with host load, and regressions there don't indicate an engine
        // problem.
        if row.mode == Mode::Stepwise {
            continue;
        }
        let Some(base_ips) = v
            .get(row.mode.json_key())
            .and_then(|r| r.get("inst_per_sec"))
            .and_then(|x| x.as_f64())
        else {
            violations.push(format!(
                "{baseline_path}: no {}.inst_per_sec in baseline",
                row.mode.json_key()
            ));
            continue;
        };
        let floor = base_ips * (1.0 - TOL);
        if row.inst_per_sec < floor {
            violations.push(format!(
                "{}: inst/s fell to {:.0} (baseline {:.0}, floor {:.0} at tol {:.0}%)",
                row.mode.label(),
                row.inst_per_sec,
                base_ips,
                floor,
                TOL * 100.0
            ));
        }
    }
    Ok(violations)
}

fn run_cli(mut args: Args) -> Result<ExitCode, String> {
    let mut json_path = "BENCH_simperf.json".to_string();
    let mut gate_path: Option<String> = None;
    while let Some(flag) = args.flag() {
        match flag.as_str() {
            "--json" => json_path = args.value("--json")?,
            "--gate" => gate_path = Some(args.value("--gate")?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let m = measure();
    let Some(baseline) = gate_path else {
        write_json(&json_path, &m)?;
        return Ok(ExitCode::SUCCESS);
    };
    let violations = gate(&baseline, &m)?;
    for v in &violations {
        eprintln!("simperf: REGRESSION {v}");
    }
    if !violations.is_empty() {
        return Ok(ExitCode::FAILURE);
    }
    println!(
        "gate: ok (block inst/s within {:.0}% of {baseline}, determinism held, 0 dropped events)",
        TOL * 100.0
    );
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    cli::exit("simperf", run_cli(Args::from_env()))
}
