//! simprof — deterministic sampling profiler driver and bench regression
//! gate.
//!
//! Profiles a coreutil, a Table 6 server workload, and the epoll server
//! under production-traffic load (the simscale shape) under every
//! registry interposer with the sim-clock-driven sampler enabled
//! ([`sim_kernel::EngineConfig::profile`]), then writes:
//!
//! * `SIMPROF_folded.txt` — folded guest stacks (flamegraph.pl format),
//! * `SIMPROF_stages.txt` — the per-interposer per-stage critical-path
//!   cycle table fed by the round-trip spans,
//! * `SIMPROF_flame.svg` — a self-contained flamegraph of the first row,
//! * `BENCH_simprof.json` — per-row sample/instruction/syscall counts, the
//!   committed regression baseline `scripts/bench_gate.sh` compares.
//!
//! ```text
//! simprof [--engine block|stepwise|trace] [--period N (default 64)]
//!         [--scale N] [--interposer NAME]... [--json PATH] [--out-prefix P]
//!         [--gate BASELINE [--tol F]] [--smoke]
//! ```
//!
//! Under `--engine trace` the stage table is followed by a per-trace
//! occupancy table (replayed steps per trace and side-exit rate, hottest
//! trace first) drawn from the trace cache's per-entry counters.
//!
//! * `--gate BASELINE` — re-measure and compare against a committed
//!   baseline JSON; any row whose instruction or sample count drifts
//!   beyond the tolerance band (default 10%, `--tol` / `SIMPROF_TOL`)
//!   fails with a non-zero exit, as does any row whose obs ring dropped
//!   events (`dropped_events > 0` — lossy counters can't gate anything).
//! * `--smoke` — CI determinism gate: profiles the coreutil under `k23`
//!   and `ptrace` twice per engine and requires the folded stacks and
//!   stage table to be byte-identical across runs *and* across the
//!   block/stepwise engines.
//!
//! Sampling is architectural: the sampler counts retired instructions, so
//! every output here is byte-identical across consecutive runs and across
//! both engines (DESIGN.md §9).

use apps::MacroSpec;
use bench::scale::{collect_offline_log_scale, ScaleParams, Variant};
use interpose::Interposer;
use k23::OfflineSession;
use sim_kernel::{EngineConfig, RunExit, Vfs};
use sim_loader::{boot_kernel, boot_kernel_from};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::OnceLock;

/// Coreutil workload (installed by `apps::install_world`).
const COREUTIL: &str = "/usr/bin/ls-sim";
/// Cycle budget per profiled run.
const BUDGET: u64 = u64::MAX / 4;

/// The world VFS (libc + every app image), assembled exactly once per
/// process: the serial mechanism sweep boots one kernel per
/// (workload, interposer) row and re-assembling every guest image per
/// row is pure startup waste.
fn world() -> &'static Vfs {
    static WORLD: OnceLock<Vfs> = OnceLock::new();
    WORLD.get_or_init(|| {
        let mut k = boot_kernel();
        apps::install_world(&mut k.vfs);
        k.vfs
    })
}

fn make_interposer(name: &str) -> Result<(Box<dyn Interposer>, bool), String> {
    pitfalls::register_all();
    let ip = interpose::by_name_spec(name).map_err(|e| e.to_string())?;
    Ok((ip, name.starts_with("k23")))
}

fn engine_cfg(engine: &str) -> Result<EngineConfig, String> {
    match engine {
        "block" => Ok(EngineConfig::new()),
        "stepwise" => Ok(EngineConfig::stepwise()),
        "trace" => Ok(EngineConfig::traced()),
        other => Err(format!("unknown engine {other:?} (block|stepwise|trace)")),
    }
}

struct Args {
    engine: String,
    period: u64,
    scale: u64,
    interposers: Vec<String>,
    json_out: String,
    out_prefix: String,
    gate: Option<String>,
    tol: f64,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        engine: "block".to_string(),
        period: 64,
        scale: 50,
        interposers: Vec::new(),
        json_out: "BENCH_simprof.json".to_string(),
        out_prefix: "SIMPROF".to_string(),
        gate: None,
        tol: std::env::var("SIMPROF_TOL")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.10),
        smoke: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |argv: &[String], i: usize, flag: &str| -> Result<String, String> {
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--engine" => {
                a.engine = value(&argv, i, "--engine")?;
                i += 1;
            }
            "--period" => {
                let v = value(&argv, i, "--period")?;
                a.period = v.parse().map_err(|_| format!("bad --period {v}"))?;
                i += 1;
            }
            "--scale" => {
                let v = value(&argv, i, "--scale")?;
                a.scale = v.parse().map_err(|_| format!("bad --scale {v}"))?;
                i += 1;
            }
            "--interposer" => {
                a.interposers.push(value(&argv, i, "--interposer")?);
                i += 1;
            }
            "--json" => {
                a.json_out = value(&argv, i, "--json")?;
                i += 1;
            }
            "--out-prefix" => {
                a.out_prefix = value(&argv, i, "--out-prefix")?;
                i += 1;
            }
            "--gate" => {
                a.gate = Some(value(&argv, i, "--gate")?);
                i += 1;
            }
            "--tol" => {
                let v = value(&argv, i, "--tol")?;
                a.tol = v.parse().map_err(|_| format!("bad --tol {v}"))?;
                i += 1;
            }
            "--smoke" => a.smoke = true,
            other => return Err(format!("unknown flag {other}")),
        }
        i += 1;
    }
    if a.interposers.is_empty() {
        pitfalls::register_all();
        a.interposers = interpose::names().iter().map(|s| s.to_string()).collect();
    }
    Ok(a)
}

/// One profiled run's outputs and gate metrics.
struct RunOutput {
    folded: String,
    stages: String,
    traces: String,
    flame: String,
    samples: u64,
    instructions: u64,
    syscalls: u64,
    dropped: u64,
}

/// Per-trace occupancy rows (trace engine only; empty elsewhere): replayed
/// steps per trace and the side-exit rate, hottest trace first.
fn trace_table(k: &mut sim_kernel::Kernel) -> String {
    let mut rows = Vec::new();
    for pid in k.pids() {
        let tids: Vec<_> = k
            .process(pid)
            .map(|p| p.threads.iter().map(|t| t.tid).collect())
            .unwrap_or_default();
        for tid in tids {
            let stats = k.cpu_mut(pid, tid).map(|c| c.trace_stats()).unwrap_or_default();
            for st in stats {
                rows.push((pid, tid, st));
            }
        }
    }
    if rows.is_empty() {
        return String::new();
    }
    let mut s = String::new();
    // Formation / side-exit summary first: how many superblocks the
    // workload earned and how often a replay left one early. This is the
    // measurement half of the "fatter traces" open item — server event
    // loops form few, hot traces whose side-exit rate bounds how much
    // fatter they could get.
    let formed = rows.len();
    let enters: u64 = rows.iter().map(|(_, _, st)| st.enters).sum();
    let steps: u64 = rows.iter().map(|(_, _, st)| st.steps).sum();
    let side_exits: u64 = rows.iter().map(|(_, _, st)| st.side_exits).sum();
    let _ = writeln!(
        s,
        "trace formation: {formed} traces formed, {enters} enters, {steps} replayed steps, side-exit rate {:.1}%",
        100.0 * side_exits as f64 / enters.max(1) as f64
    );
    let _ = writeln!(s, "per-trace occupancy (replayed steps per trace, hottest first):");
    let _ = writeln!(
        s,
        "  {:<8} {:<14} {:>5} {:>8} {:>10} {:>11}",
        "pid/tid", "entry", "ops", "enters", "steps", "side-exit%"
    );
    for (pid, tid, st) in rows {
        let _ = writeln!(
            s,
            "  {:<8} {:<14} {:>5} {:>8} {:>10} {:>10.1}%",
            format!("{pid}/{tid}"),
            format!("{:#x}", st.entry),
            st.ops,
            st.enters,
            st.steps,
            100.0 * st.side_exits as f64 / st.enters.max(1) as f64
        );
    }
    s
}

fn finish_run(k: &mut sim_kernel::Kernel, rec: Box<sim_obs::Recorder>) -> RunOutput {
    let syscalls = k
        .pids()
        .iter()
        .filter_map(|p| k.process(*p))
        .map(|p| p.stats.syscalls)
        .sum();
    RunOutput {
        folded: rec.folded_stacks(),
        stages: rec.stage_table(),
        traces: trace_table(k),
        flame: rec.flamegraph_svg(),
        samples: rec.samples.len() as u64,
        instructions: k.retired(),
        syscalls,
        dropped: rec.total_dropped(),
    }
}

/// Profiles `COREUTIL` under one interposer.
fn profile_coreutil(name: &str, engine: &str, period: u64) -> Result<RunOutput, String> {
    let (ip, needs_offline) =
        make_interposer(name)?;
    let mut k = boot_kernel_from(world());
    let argv = vec![COREUTIL.to_string()];

    if needs_offline {
        // The offline phase runs unprofiled: the profile covers the online
        // run, matching what the paper's tables measure.
        let session = OfflineSession::new(&mut k, COREUTIL);
        let (_pid, exit) = session
            .run_once(&mut k, &argv, &[], BUDGET)
            .map_err(|e| format!("offline phase failed: {e}"))?;
        if exit != RunExit::AllExited {
            return Err(format!("offline phase did not finish: {exit:?}"));
        }
        session.finish(&mut k);
    }

    sim_obs::clear_region_paths();
    sim_obs::clear_span_ranges();
    k.configure(engine_cfg(engine)?.profile(period));
    sim_obs::enable(sim_obs::ObsConfig {
        micro_events: false,
        ..sim_obs::ObsConfig::default()
    });
    ip.install(&mut k);
    let pid = match ip.spawn(&mut k, COREUTIL, &argv, &[]) {
        Ok(pid) => pid,
        Err(e) => {
            sim_obs::disable();
            return Err(format!("spawn {COREUTIL}: {e}"));
        }
    };
    let exit = k.run(BUDGET);
    let rec = sim_obs::disable().expect("recorder was enabled");
    if exit != RunExit::AllExited {
        return Err(format!("{COREUTIL} did not finish: {exit:?}"));
    }
    let status = k.process(pid).and_then(|p| p.exit_status);
    if status != Some(0) {
        return Err(format!("{COREUTIL} exited with {status:?}"));
    }
    Ok(finish_run(&mut k, rec))
}

/// Profiles one Table 6 server spec under one interposer. K23 variants
/// reuse `offline_log`, collected once on a scratch kernel and
/// transplanted into the measurement kernel's sealed log directory —
/// the paper collects logs once per application (§5.1).
fn profile_server(
    name: &str,
    engine: &str,
    period: u64,
    spec: &MacroSpec,
    offline_log: &Option<(String, Vec<u8>)>,
) -> Result<RunOutput, String> {
    let (ip, needs_offline) =
        make_interposer(name)?;
    let mut k = boot_kernel_from(world());
    if needs_offline {
        let (path, bytes) = offline_log
            .as_ref()
            .ok_or_else(|| "offline log not collected".to_string())?;
        k.vfs.mkdir_p(k23::LOG_DIR).map_err(|e| format!("log dir: {e}"))?;
        k.vfs.write_file(path, bytes).map_err(|e| format!("log install: {e}"))?;
        k.vfs
            .set_immutable(k23::LOG_DIR, true)
            .map_err(|e| format!("log seal: {e}"))?;
    }

    sim_obs::clear_region_paths();
    sim_obs::clear_span_ranges();
    k.configure(engine_cfg(engine)?.profile(period));
    sim_obs::enable(sim_obs::ObsConfig {
        micro_events: false,
        ..sim_obs::ObsConfig::default()
    });
    let res = apps::run_macro(&mut k, ip.as_ref(), spec, BUDGET);
    let rec = sim_obs::disable().expect("recorder was enabled");
    res.map_err(|e| format!("{} under {name}: {e:?}", spec.name))?;
    Ok(finish_run(&mut k, rec))
}

/// Connections for the epollsrv profiling row: enough that readiness
/// dispatch (blocked `epoll_wait` wakeups) dominates the profile, few
/// enough that sweeping every interposer stays cheap.
const EPOLLSRV_CONNS: u32 = 128;

/// Scale-load parameters for the epollsrv profiling row.
fn epollsrv_params(scale: u64) -> ScaleParams {
    ScaleParams {
        requests: ((2_000 / scale.max(1)) as u32).max(64),
        active: 16,
        resp64: 2,
        server_work: 2,
        workers: 1,
    }
}

/// Profiles the epoll server under production-traffic load (the simscale
/// workload shape) under one interposer. Same offline-log transplant
/// discipline as [`profile_server`].
fn profile_epoll_server(
    name: &str,
    engine: &str,
    period: u64,
    params: &ScaleParams,
    offline_log: &Option<(String, Vec<u8>)>,
) -> Result<RunOutput, String> {
    let (ip, needs_offline) = make_interposer(name)?;
    let mut k = boot_kernel_from(world());
    if needs_offline {
        let (path, bytes) = offline_log
            .as_ref()
            .ok_or_else(|| "offline log not collected".to_string())?;
        k.vfs.mkdir_p(k23::LOG_DIR).map_err(|e| format!("log dir: {e}"))?;
        k.vfs.write_file(path, bytes).map_err(|e| format!("log install: {e}"))?;
        k.vfs
            .set_immutable(k23::LOG_DIR, true)
            .map_err(|e| format!("log seal: {e}"))?;
    }

    sim_obs::clear_region_paths();
    sim_obs::clear_span_ranges();
    k.configure(engine_cfg(engine)?.profile(period));
    sim_obs::enable(sim_obs::ObsConfig {
        micro_events: false,
        ..sim_obs::ObsConfig::default()
    });
    let spec = apps::scale_spec(
        true,
        params.workers,
        EPOLLSRV_CONNS,
        params.active,
        params.requests,
        params.resp64,
        params.server_work,
        false,
    );
    let res = apps::run_scale(&mut k, ip.as_ref(), &spec, BUDGET);
    let rec = sim_obs::disable().expect("recorder was enabled");
    res.map_err(|e| format!("epollsrv under {name}: {e:?}"))?;
    Ok(finish_run(&mut k, rec))
}

/// A (workload, interposer) gate row.
struct Row {
    workload: String,
    interposer: String,
    out: RunOutput,
}

fn rows_json(args: &Args, rows: &[Row]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"period\": {},", args.period);
    let _ = writeln!(s, "  \"scale\": {},", args.scale);
    let _ = writeln!(s, "  \"engine\": \"{}\",", args.engine);
    s.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"workload\": \"{}\", \"interposer\": \"{}\", \"samples\": {}, \"instructions\": {}, \"syscalls\": {}, \"dropped_events\": {}}}",
            r.workload, r.interposer, r.out.samples, r.out.instructions, r.out.syscalls, r.out.dropped
        );
        s.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

/// Compares measured rows against a committed baseline; returns the list
/// of violations (empty = gate passes).
fn gate(baseline_path: &str, rows: &[Row], tol: f64) -> Result<Vec<String>, String> {
    let data = std::fs::read(baseline_path).map_err(|e| format!("read {baseline_path}: {e}"))?;
    let v = sjson::parse(&data).map_err(|e| format!("{baseline_path}: bad JSON: {e:?}"))?;
    let base_rows = v
        .get("rows")
        .and_then(|r| r.as_array())
        .ok_or_else(|| format!("{baseline_path} has no rows array"))?;
    let mut violations = Vec::new();
    // A lossy obs ring skews every counter the gate compares: any dropped
    // event in the current run fails outright.
    for r in rows {
        if r.out.dropped > 0 {
            violations.push(format!(
                "{}/{}: obs ring dropped {} events — counters are untrustworthy; grow the ring",
                r.workload, r.interposer, r.out.dropped
            ));
        }
    }
    let field = |r: &sjson::Value, k: &str| r.get(k).and_then(|x| x.as_u64());
    let sfield = |r: &sjson::Value, k: &str| r.get(k).and_then(|x| x.as_str().map(String::from));
    for b in base_rows {
        let (Some(w), Some(ip)) = (sfield(b, "workload"), sfield(b, "interposer")) else {
            continue;
        };
        let Some(cur) = rows.iter().find(|r| r.workload == w && r.interposer == ip) else {
            violations.push(format!("{w}/{ip}: row missing from current run"));
            continue;
        };
        for (metric, base_val, cur_val) in [
            ("instructions", field(b, "instructions"), Some(cur.out.instructions)),
            ("samples", field(b, "samples"), Some(cur.out.samples)),
        ] {
            let (Some(base_val), Some(cur_val)) = (base_val, cur_val) else {
                continue;
            };
            let drift = (cur_val as f64 - base_val as f64) / (base_val as f64).max(1.0);
            if drift.abs() > tol {
                violations.push(format!(
                    "{w}/{ip}: {metric} drifted {:+.1}% (baseline {base_val}, now {cur_val}, tol {:.0}%)",
                    drift * 100.0,
                    tol * 100.0
                ));
            }
        }
    }
    Ok(violations)
}

/// CI determinism gate: byte-identical profiles across consecutive runs
/// and across engines, for the coreutil under `k23` and `ptrace`.
fn smoke(period: u64) -> Result<(), String> {
    for name in ["k23", "ptrace"] {
        let mut per_engine: Vec<(String, String)> = Vec::new();
        for engine in ["block", "stepwise"] {
            let a = profile_coreutil(name, engine, period)?;
            let b = profile_coreutil(name, engine, period)?;
            if a.folded != b.folded || a.stages != b.stages {
                return Err(format!(
                    "{name}/{engine}: consecutive runs produced different profiles"
                ));
            }
            if a.samples == 0 {
                return Err(format!("{name}/{engine}: no samples captured"));
            }
            per_engine.push((a.folded, a.stages));
        }
        if per_engine[0] != per_engine[1] {
            return Err(format!("{name}: block and stepwise profiles differ"));
        }
        println!("smoke: {name} ok (deterministic across runs and engines)");
    }
    Ok(())
}

fn run(args: &Args) -> Result<ExitCode, String> {
    if args.smoke {
        smoke(args.period)?;
        return Ok(ExitCode::SUCCESS);
    }

    let spec = apps::table6_specs(args.scale)
        .into_iter()
        .next()
        .ok_or_else(|| "no table6 specs".to_string())?;
    let scale_params = epollsrv_params(args.scale);
    let any_k23 = args.interposers.iter().any(|n| n.starts_with("k23"));
    let server_offline = if any_k23 {
        Some(bench::macros_::collect_offline_log(&spec))
    } else {
        None
    };
    let epollsrv_offline = if any_k23 {
        Some(collect_offline_log_scale(Variant::Epoll, &scale_params))
    } else {
        None
    };

    let mut rows = Vec::new();
    let mut folded_all = String::new();
    let mut stages_all = String::new();
    let mut flame = String::new();
    for name in &args.interposers {
        for workload in ["coreutil", "server", "epollsrv"] {
            let out = match workload {
                "coreutil" => profile_coreutil(name, &args.engine, args.period)?,
                "server" => profile_server(name, &args.engine, args.period, &spec, &server_offline)?,
                _ => profile_epoll_server(
                    name,
                    &args.engine,
                    args.period,
                    &scale_params,
                    &epollsrv_offline,
                )?,
            };
            let _ = writeln!(folded_all, "# {workload} under {name}");
            folded_all.push_str(&out.folded);
            let _ = writeln!(stages_all, "# {workload} under {name}");
            stages_all.push_str(&out.stages);
            if !out.traces.is_empty() {
                stages_all.push_str(&out.traces);
            }
            stages_all.push('\n');
            if flame.is_empty() {
                flame = out.flame.clone();
            }
            println!(
                "{workload:<10} {name:<14} samples {:>7}  instructions {:>12}  syscalls {:>7}",
                out.samples, out.instructions, out.syscalls
            );
            rows.push(Row {
                workload: workload.to_string(),
                interposer: name.clone(),
                out,
            });
        }
    }

    if let Some(baseline) = &args.gate {
        let violations = gate(baseline, &rows, args.tol)?;
        if !violations.is_empty() {
            for v in &violations {
                eprintln!("simprof: REGRESSION {v}");
            }
            return Ok(ExitCode::FAILURE);
        }
        println!(
            "gate: ok ({} rows within {:.0}% of {baseline})",
            rows.len(),
            args.tol * 100.0
        );
        return Ok(ExitCode::SUCCESS);
    }

    let json = rows_json(args, &rows);
    std::fs::write(&args.json_out, &json).map_err(|e| format!("write {}: {e}", args.json_out))?;
    let folded_path = format!("{}_folded.txt", args.out_prefix);
    let stages_path = format!("{}_stages.txt", args.out_prefix);
    let flame_path = format!("{}_flame.svg", args.out_prefix);
    std::fs::write(&folded_path, &folded_all).map_err(|e| format!("write {folded_path}: {e}"))?;
    std::fs::write(&stages_path, &stages_all).map_err(|e| format!("write {stages_path}: {e}"))?;
    std::fs::write(&flame_path, &flame).map_err(|e| format!("write {flame_path}: {e}"))?;
    println!("wrote {}, {folded_path}, {stages_path}, {flame_path}", args.json_out);
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simprof: {e}");
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("simprof: {e}");
            ExitCode::FAILURE
        }
    }
}
