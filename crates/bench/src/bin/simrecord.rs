//! simrecord — record/replay driver with divergence reports and
//! time-travel navigation (DESIGN.md §11).
//!
//! Recording captures every source of nondeterminism a run consumes —
//! syscall results, injected faults/signals/permission flips, scheduler
//! decisions, process exits — into a length-prefixed `SREC1` log keyed by
//! retired-instruction counts, alongside the canonicalized sim-obs event
//! stream of the recording run. Because retired instructions are the
//! engine-invariant coordinate system, a log recorded under either engine
//! (stepwise, block) replays byte-identically under the other.
//!
//! ```text
//! simrecord --record [--workload micro|coreutil|nginx] [--engine E]
//!           [--seed N] [--fault] [--out FILE]
//! simrecord --replay FILE [--engine E]     # verify; report the first divergence
//! simrecord --navigate FILE --seek N [--engine E]   # time travel
//! ```
//!
//! * `--replay` re-executes the header's workload on any engine and
//!   verifies every produced record against the log in order. On
//!   divergence it prints the first mismatched record (index +
//!   retired-instruction coordinate) and a post-mortem dump: per-thread
//!   RIP, symbolized guest stacks, and the tail of the replay's obs
//!   events.
//! * `--navigate` seeks to a retired-instruction index by re-executing:
//!   the same verify replay, halted exactly at instruction N
//!   (`Kernel::stop_at_retired`), then a state dump. The simulator is
//!   deterministic, so replaying from boot reproduces the machine at any
//!   instruction of any workload `--record` writes; a divergence before
//!   N is reported as `--replay` reports it.

use bench::cli::{self, Args};
use bench::micro::{install_micro, MICRO_APP};
use interpose::{Interposer, Native};
use sim_fault::{FaultKind, FaultPlan, SchedPlan, SyscallFault};
use sim_kernel::{nr, EngineConfig, Kernel, RunExit};
use sim_record::{first_obs_divergence, obs_lines, Divergence, Header, Recording};
use std::process::ExitCode;
use std::rc::Rc;

const COREUTIL: &str = "/usr/bin/ls-sim";
const BUDGET: u64 = u64::MAX / 4;

/// The canned `--fault` plan per workload: errnos only syscalls whose
/// callers must tolerate them, plus an adversarial scheduler rotation for
/// the multi-process server row (generating `Sched` records).
fn canned_plan(workload: &str) -> FaultPlan {
    let mut plan = FaultPlan::zero(11);
    match workload {
        "micro" => {
            plan.syscall_faults = vec![
                SyscallFault {
                    nr: nr::SYS_NONEXISTENT,
                    occurrence: 7,
                    kind: FaultKind::Eintr,
                },
                SyscallFault {
                    nr: nr::SYS_NONEXISTENT,
                    occurrence: 900,
                    kind: FaultKind::Eagain,
                },
            ];
        }
        _ => {
            plan.syscall_faults = vec![
                SyscallFault {
                    nr: 0, // read
                    occurrence: 3,
                    kind: FaultKind::Eintr,
                },
                SyscallFault {
                    nr: 1, // write
                    occurrence: 5,
                    kind: FaultKind::Eagain,
                },
            ];
            plan.sched = Some(SchedPlan {
                rotate_period: 3,
                slice_jitter: 0,
            });
        }
    }
    plan
}

/// Per-workload default for the `seed` knob (micro: iterations, nginx:
/// Table 6 scale divisor).
fn default_seed(workload: &str) -> u64 {
    match workload {
        "micro" => 2_000,
        "nginx" => 50,
        _ => 1,
    }
}

/// One completed workload run: the kernel (holding the record session's
/// final state), the canonicalized obs stream, and any workload-level
/// failure (tolerated by callers when a divergence or a stop explains it).
struct RunDone {
    k: Kernel,
    obs: Vec<String>,
    err: Option<String>,
}

/// Runs `workload` under `cfg` with obs capture enabled, to completion or
/// to retired instruction `seek`.
fn run_workload(
    workload: &str,
    seed: u64,
    cfg: EngineConfig,
    seek: Option<u64>,
) -> Result<RunDone, String> {
    sim_obs::enable(sim_obs::ObsConfig::default());
    let out = run_workload_inner(workload, seed, cfg, seek);
    let rec = sim_obs::disable();
    let k = out?;
    let rec = rec.ok_or_else(|| "obs recorder missing".to_string())?;
    Ok(RunDone {
        obs: obs_lines(&rec),
        err: k.1,
        k: k.0,
    })
}

fn run_workload_inner(
    workload: &str,
    seed: u64,
    cfg: EngineConfig,
    seek: Option<u64>,
) -> Result<(Kernel, Option<String>), String> {
    let mut k = cli::fresh_world();
    let configure = |k: &mut Kernel| {
        k.configure(cfg);
        if let Some(n) = seek {
            k.stop_at_retired(n);
        }
    };
    let err = match workload {
        "micro" | "coreutil" => {
            let (app, argv) = if workload == "micro" {
                install_micro(&mut k.vfs, seed)?;
                (MICRO_APP, Vec::new())
            } else {
                (COREUTIL, vec![COREUTIL.to_string()])
            };
            Native.install(&mut k);
            Native
                .spawn(&mut k, app, &argv, &[])
                .map_err(|e| format!("spawn {app}: {e}"))?;
            configure(&mut k);
            match k.run(BUDGET) {
                RunExit::AllExited | RunExit::Stop => None,
                other => Some(format!("{workload} run ended with {other:?}")),
            }
        }
        "nginx" => {
            configure(&mut k);
            let spec = apps::table6_specs(seed.max(1))
                .into_iter()
                .next()
                .ok_or_else(|| "no table6 specs".to_string())?;
            apps::run_macro(&mut k, &Native, &spec, BUDGET)
                .err()
                .map(|e| format!("{} failed: {e:?}", spec.name))
        }
        other => return Err(format!("unknown workload {other:?} (micro|coreutil|nginx)")),
    };
    Ok((k, err))
}

/// Per-process RIP and symbolized guest stack of each first thread.
fn print_threads(k: &mut Kernel) {
    for pid in k.pids() {
        let Some(tid) = k
            .process(pid)
            .and_then(|p| p.threads.first().map(|t| t.tid))
        else {
            continue;
        };
        let rip = k.cpu_mut(pid, tid).map(|c| c.rip).unwrap_or(0);
        println!("  pid {pid} tid {tid} rip {rip:#x}");
        for frame in k.symbolized_stack(pid, tid) {
            println!("    {frame}");
        }
    }
}

fn do_record(args: &Opts) -> Result<ExitCode, String> {
    let plan = args.fault.then(|| canned_plan(&args.workload));
    let mut cfg = cli::engine(&args.engine)?;
    if let Some(p) = &plan {
        cfg = cfg.fault(p.clone());
    }
    let mut run = run_workload(&args.workload, args.seed, cfg.record(), None)?;
    if let Some(e) = run.err {
        return Err(format!("recording run failed: {e}"));
    }
    let recording = Recording {
        header: Header {
            engine: args.engine.clone(),
            workload: args.workload.clone(),
            seed: args.seed,
            fault_plan: plan.map(|p| p.encode()),
            checkpoint_period: 0,
        },
        recs: run.k.take_recording(),
        obs: run.obs,
    };
    let bytes = recording.encode();
    cli::write(&args.out, &bytes)?;
    println!(
        "recorded {} on {}: {} records, {} obs events, {} retired instructions -> {} ({} bytes)",
        args.workload,
        args.engine,
        recording.recs.len(),
        recording.obs.len(),
        run.k.retired(),
        args.out,
        bytes.len()
    );
    Ok(ExitCode::SUCCESS)
}

/// Verify-replays the recording at `path` on `engine`, with the header's
/// fault plan re-installed, to completion or to retired instruction
/// `seek`.
fn verify_run(path: &str, engine: &str, seek: Option<u64>) -> Result<(Recording, RunDone), String> {
    let data = std::fs::read(path).map_err(|e| format!("read {path}: {e}"))?;
    let recording = Recording::decode(&data).map_err(|e| format!("{path}: {e}"))?;
    let h = &recording.header;
    let mut cfg = cli::engine(engine)?;
    if let Some(plan) = &h.fault_plan {
        let plan = FaultPlan::decode(plan).map_err(|e| format!("{path}: bad fault plan: {e}"))?;
        cfg = cfg.fault(plan);
    }
    let log = Rc::new(recording.recs.clone());
    let run = run_workload(&h.workload, h.seed, cfg.replay_verify(log), seek)?;
    Ok((recording, run))
}

/// Prints the divergence a verify replay halted at, with the post-mortem
/// dump: per-process RIP and guest stack, and the tail of the obs stream.
fn report_divergence(d: &Divergence, run: &mut RunDone) -> ExitCode {
    println!(
        "replay: DIVERGED at record {} (retired instruction {})",
        d.index, d.retired
    );
    println!("  expected: {:?}", d.expected);
    println!("  got:      {:?}", d.got);
    print_threads(&mut run.k);
    let tail = &run.obs[run.obs.len().saturating_sub(8)..];
    println!("  last {} obs events:", tail.len());
    for line in tail {
        println!("    {line}");
    }
    ExitCode::FAILURE
}

fn do_replay(args: &Opts) -> Result<ExitCode, String> {
    let (recording, mut run) = verify_run(&args.file, &args.engine, None)?;
    let h = &recording.header;
    if let Some(d) = run.k.record_divergence().cloned() {
        return Ok(report_divergence(&d, &mut run));
    }
    if let Some(e) = run.err {
        return Err(format!("replay run failed without diverging: {e}"));
    }
    if run.k.record_cursor() != recording.recs.len() {
        println!(
            "replay: DIVERGED — log not fully consumed ({} of {} records)",
            run.k.record_cursor(),
            recording.recs.len()
        );
        return Ok(ExitCode::FAILURE);
    }
    if let Some(idx) = first_obs_divergence(&recording.obs, &run.obs) {
        println!("replay: records match but obs stream DIVERGED at line {idx}");
        println!("  expected: {:?}", recording.obs.get(idx));
        println!("  got:      {:?}", run.obs.get(idx));
        return Ok(ExitCode::FAILURE);
    }
    println!(
        "replay: ok — {} on {} (recorded on {}), {} records verified, obs stream byte-identical ({} events)",
        h.workload,
        args.engine,
        h.engine,
        recording.recs.len(),
        run.obs.len()
    );
    Ok(ExitCode::SUCCESS)
}

/// Seeks by re-executing: a verify replay halted at `--seek`, then the
/// state dump there (or where the run ended, if it ended first).
fn do_navigate(args: &Opts) -> Result<ExitCode, String> {
    let (recording, mut run) = verify_run(&args.file, &args.engine, Some(args.seek))?;
    if let Some(d) = run.k.record_divergence().cloned() {
        return Ok(report_divergence(&d, &mut run));
    }
    let workload = &recording.header.workload;
    let retired = run.k.retired();
    if retired == args.seek {
        println!("navigate: {workload} at retired instruction {retired}");
    } else if let Some(e) = run.err {
        return Err(format!(
            "navigation run failed before instruction {}: {e}",
            args.seek
        ));
    } else {
        println!(
            "navigate: {workload} ended at retired instruction {retired}, before {}",
            args.seek
        );
    }
    println!("  retired {retired} clock {} — state:", run.k.clock);
    print_threads(&mut run.k);
    Ok(ExitCode::SUCCESS)
}

// ===== Argument parsing =====

enum Mode {
    Record,
    Replay,
    Navigate,
}

struct Opts {
    mode: Mode,
    engine: String,
    workload: String,
    seed: u64,
    fault: bool,
    out: String,
    file: String,
    seek: u64,
}

fn parse_opts(mut args: Args) -> Result<Opts, String> {
    let mut a = Opts {
        mode: Mode::Record,
        engine: "block".to_string(),
        workload: "micro".to_string(),
        seed: 0,
        fault: false,
        out: "SIMRECORD.srec".to_string(),
        file: String::new(),
        seek: 0,
    };
    let (mut mode, mut seed) = (None, None);
    while let Some(flag) = args.flag() {
        match flag.as_str() {
            "--record" => mode = Some(Mode::Record),
            "--replay" => {
                mode = Some(Mode::Replay);
                a.file = args.value("--replay")?;
            }
            "--navigate" => {
                mode = Some(Mode::Navigate);
                a.file = args.value("--navigate")?;
            }
            "--engine" => a.engine = args.value("--engine")?,
            "--workload" => a.workload = args.value("--workload")?,
            "--seed" => seed = Some(args.parse("--seed")?),
            "--fault" => a.fault = true,
            "--out" => a.out = args.value("--out")?,
            "--seek" => a.seek = args.parse("--seek")?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    a.mode = mode.ok_or("pick one of --record, --replay FILE, --navigate FILE --seek N")?;
    a.seed = seed.unwrap_or_else(|| default_seed(&a.workload));
    Ok(a)
}

fn main() -> ExitCode {
    let res = parse_opts(Args::from_env()).and_then(|opts| match opts.mode {
        Mode::Record => do_record(&opts),
        Mode::Replay => do_replay(&opts),
        Mode::Navigate => do_navigate(&opts),
    });
    cli::exit("simrecord", res)
}
