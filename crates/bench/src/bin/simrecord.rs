//! simrecord — record/replay driver with divergence bisection and
//! time-travel navigation (DESIGN.md §11).
//!
//! Recording captures every source of nondeterminism a run consumes —
//! syscall results, injected faults/signals/permission flips, scheduler
//! decisions, process exits — into a length-prefixed `SREC1` log keyed by
//! retired-instruction counts, alongside the canonicalized sim-obs event
//! stream of the recording run. Because retired instructions are the
//! engine-invariant coordinate system, a log recorded under any engine
//! (stepwise, block, trace) replays byte-identically under any other.
//!
//! ```text
//! simrecord --record [--workload micro|coreutil|nginx] [--engine E]
//!           [--seed N] [--fault] [--checkpoint-period N] [--out FILE]
//! simrecord --replay FILE [--engine E]     # verify; bisect on divergence
//! simrecord --navigate FILE --seek N [--engine E]   # time travel
//! ```
//!
//! * `--replay` re-executes the header's workload on any engine and
//!   verifies every produced record against the log in order. On
//!   divergence it prints the first mismatched record (index +
//!   retired-instruction coordinate, located by `O(log n)` prefix-digest
//!   bisection for the obs stream) and a post-mortem dump: per-thread RIP,
//!   symbolized guest stacks, and the tail of the replay's obs events.
//! * `--navigate` seeks to a retired-instruction index: it rebuilds the
//!   deterministic checkpoint chain, restores the nearest checkpoint at or
//!   below the target through sim-mem page snapshots, and inject-replays
//!   the remainder from the log (falling back to replay-from-start when
//!   the chain is broken or restoration fails).

use bench::cli::{self, Args};
use bench::micro::{build_micro_app, MICRO_APP, MICRO_CFG};
use interpose::{Interposer, Native};
use sim_fault::{FaultKind, FaultPlan, SchedPlan, SyscallFault};
use sim_kernel::{nr, EngineConfig, Kernel, RunExit};
use sim_loader::boot_kernel_from;
use sim_record::{first_obs_divergence, obs_lines, Header, Recording};
use std::process::ExitCode;
use std::rc::Rc;

const COREUTIL: &str = "/usr/bin/ls-sim";
const BUDGET: u64 = u64::MAX / 4;
const DEFAULT_CKPT_PERIOD: u64 = 4096;

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

/// Installs and spawns a single-process workload on a world kernel,
/// leaving it ready to configure and run. (nginx is driven by
/// `apps::run_macro` instead.)
fn setup_single(workload: &str, seed: u64, k: &mut Kernel) -> Result<(), String> {
    match workload {
        "micro" => {
            build_micro_app().install(&mut k.vfs);
            k.vfs
                .write_file(MICRO_CFG, &seed.to_le_bytes())
                .map_err(|e| format!("micro cfg: {e}"))?;
            let ip = Native;
            ip.install(k);
            ip.spawn(k, MICRO_APP, &[], &[])
                .map_err(|e| format!("spawn {MICRO_APP}: {e}"))?;
        }
        "coreutil" => {
            let ip = Native;
            ip.install(k);
            ip.spawn(k, COREUTIL, &[COREUTIL.to_string()], &[])
                .map_err(|e| format!("spawn {COREUTIL}: {e}"))?;
        }
        other => return Err(format!("workload {other:?} is not single-process")),
    }
    Ok(())
}

/// One completed workload run: the kernel (holding the record session's
/// final state), the canonicalized obs stream, and any workload-level
/// failure (tolerated by callers when a divergence explains it).
struct RunDone {
    k: Kernel,
    obs: Vec<String>,
    err: Option<String>,
}

/// Runs `workload` to completion under `cfg` with obs capture enabled.
fn run_workload(workload: &str, seed: u64, cfg: EngineConfig) -> Result<RunDone, String> {
    sim_obs::enable(sim_obs::ObsConfig::default());
    let out = run_workload_inner(workload, seed, cfg);
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
) -> Result<(Kernel, Option<String>), String> {
    let mut k = boot_kernel_from(cli::world());
    let err = match workload {
        "micro" | "coreutil" => {
            setup_single(workload, seed, &mut k)?;
            k.configure(cfg);
            match k.run(BUDGET) {
                RunExit::AllExited | RunExit::Stop => None,
                other => Some(format!("{workload} run ended with {other:?}")),
            }
        }
        "nginx" => {
            k.configure(cfg);
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

/// Post-mortem dump at the kernel's current state: per-process RIP +
/// symbolized guest stack, plus the tail of the obs event stream.
fn post_mortem(k: &mut Kernel, obs: &[String]) {
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
    let tail = &obs[obs.len().saturating_sub(8)..];
    println!("  last {} obs events:", tail.len());
    for line in tail {
        println!("    {line}");
    }
}

fn do_record(args: &Opts) -> Result<ExitCode, String> {
    let plan = args.fault.then(|| canned_plan(&args.workload));
    let mut cfg = cli::engine(&args.engine)?;
    if let Some(p) = &plan {
        cfg = cfg.fault(p.clone());
    }
    let cfg = if args.ckpt_period > 0 {
        cfg.record_with_checkpoints(args.ckpt_period)
    } else {
        cfg.record()
    };
    let mut run = run_workload(&args.workload, args.seed, cfg)?;
    if let Some(e) = run.err {
        return Err(format!("recording run failed: {e}"));
    }
    let recording = Recording {
        header: Header {
            engine: args.engine.clone(),
            workload: args.workload.clone(),
            seed: args.seed,
            fault_plan: plan.map(|p| p.encode()),
            checkpoint_period: args.ckpt_period,
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

/// Decodes a recording and rebuilds its engine config (fault plan
/// re-installed from the header).
fn load_recording(path: &str) -> Result<(Recording, Option<FaultPlan>), String> {
    let data = std::fs::read(path).map_err(|e| format!("read {path}: {e}"))?;
    let recording = Recording::decode(&data).map_err(|e| format!("{path}: {e}"))?;
    let plan = recording
        .header
        .fault_plan
        .as_deref()
        .map(FaultPlan::decode)
        .transpose()
        .map_err(|e| format!("{path}: bad fault plan: {e}"))?;
    Ok((recording, plan))
}

fn do_replay(args: &Opts) -> Result<ExitCode, String> {
    let (recording, plan) = load_recording(&args.file)?;
    let h = &recording.header;
    let mut cfg = cli::engine(&args.engine)?;
    if let Some(p) = &plan {
        cfg = cfg.fault(p.clone());
    }
    let log = Rc::new(recording.recs.clone());
    let mut run = run_workload(&h.workload, h.seed, cfg.replay_verify(Rc::clone(&log)))?;
    if let Some(d) = run.k.record_divergence().cloned() {
        println!(
            "replay: DIVERGED at record {} (retired instruction {})",
            d.index, d.retired
        );
        println!("  expected: {:?}", d.expected);
        println!("  got:      {:?}", d.got);
        post_mortem(&mut run.k, &run.obs);
        return Ok(ExitCode::FAILURE);
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
    if let Some((idx, probes)) = first_obs_divergence(&recording.obs, &run.obs) {
        println!(
            "replay: records match but obs stream DIVERGED at line {idx} ({probes} probes)"
        );
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

/// Architectural state dump target for navigation.
fn dump_state(k: &mut Kernel) {
    println!("  retired {} clock {} — state:", k.retired(), k.clock);
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

fn do_navigate(args: &Opts) -> Result<ExitCode, String> {
    let (recording, plan) = load_recording(&args.file)?;
    let h = recording.header.clone();
    if h.workload == "nginx" {
        return Err(
            "navigation requires a single-process workload (checkpoint chains break on fork)"
                .into(),
        );
    }
    // Rebuild the deterministic checkpoint chain (recordings don't carry
    // page snapshots for every checkpoint; the chain is re-derivable
    // because the recording run itself is deterministic).
    let period = if h.checkpoint_period > 0 {
        h.checkpoint_period
    } else {
        DEFAULT_CKPT_PERIOD
    };
    let mut cfg = cli::engine(&h.engine)?;
    if let Some(p) = &plan {
        cfg = cfg.fault(p.clone());
    }
    let mut chain_run = run_workload(&h.workload, h.seed, cfg.record_with_checkpoints(period))?;
    if let Some(e) = chain_run.err {
        return Err(format!("chain rebuild failed: {e}"));
    }
    let ckpts = chain_run.k.take_checkpoints();
    let chain_ok = chain_run.k.record_chain_ok();
    let total = chain_run.k.retired();
    let target = args.seek.min(total);

    // Seek: inject-mode replay, seeded from the nearest checkpoint.
    let log = Rc::new(recording.recs);
    let mut k = boot_kernel_from(cli::world());
    setup_single(&h.workload, h.seed, &mut k)?;
    let mut cfg = cli::engine(&args.engine)?;
    if let Some(p) = &plan {
        cfg = cfg.fault(p.clone());
    }
    k.configure(cfg.replay_inject(Rc::clone(&log)));
    let mut from = 0u64;
    if chain_ok {
        if let Some(at) = ckpts.iter().rposition(|c| c.retired <= target) {
            match k.restore_to_checkpoint(&ckpts, at) {
                Ok(()) => from = ckpts[at].retired,
                Err(e) => eprintln!(
                    "simrecord: checkpoint restore failed ({e}); replaying from the start"
                ),
            }
        }
    } else {
        eprintln!("simrecord: checkpoint chain broken; replaying from the start");
    }
    let exit = k.run_to_retired(target, BUDGET);
    println!(
        "navigate: {} to retired instruction {target} (of {total}) from checkpoint at {from} (period {period}, {} checkpoints): {exit:?}",
        h.workload,
        ckpts.len()
    );
    dump_state(&mut k);
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
    ckpt_period: u64,
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
        ckpt_period: 0,
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
            "--checkpoint-period" => a.ckpt_period = args.parse("--checkpoint-period")?,
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
