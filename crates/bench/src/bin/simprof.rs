//! simprof — deterministic sampling profiler driver.
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
//! * `BENCH_simprof.json` — per-row sample/instruction/syscall counts and
//!   dropped obs events, committed; tier-1 runs this binary and requires
//!   the default sweep to reproduce it byte for byte.
//!
//! ```text
//! simprof [--engine block|stepwise] [--period N (default 64)]
//!         [--scale N] [--interposer NAME]... [--json PATH] [--out-prefix P]
//! ```
//!
//! Under the block engine each stage table is followed by a per-trace
//! occupancy table (replayed steps per trace and side-exit rate, hottest
//! trace first) drawn from the trace cache's per-entry counters.
//!
//! Sampling is architectural: the sampler counts retired instructions, so
//! every output here is byte-identical across consecutive runs and across
//! both engines (DESIGN.md §9). K23 rows profile the online run only:
//! each workload's offline log is collected once on a scratch kernel and
//! transplanted, so no row counts libLogger's syscalls.

use bench::cli::{self, Args};
use bench::scale::{collect_offline_log_scale, ScaleParams, Variant};
use interpose::Interposer;
use sim_kernel::Kernel;
use std::fmt::Write as _;
use std::process::ExitCode;

/// Coreutil workload (installed by `apps::install_world`).
const COREUTIL: &str = "/usr/bin/ls-sim";
/// Cycle budget per profiled run.
const BUDGET: u64 = u64::MAX / 4;

struct Opts {
    engine: String,
    period: u64,
    scale: u64,
    interposers: Vec<String>,
    json_out: String,
    out_prefix: String,
}

fn parse_opts(mut args: Args) -> Result<Opts, String> {
    let mut a = Opts {
        engine: "block".to_string(),
        period: 64,
        scale: 50,
        interposers: Vec::new(),
        json_out: "BENCH_simprof.json".to_string(),
        out_prefix: "SIMPROF".to_string(),
    };
    while let Some(flag) = args.flag() {
        match flag.as_str() {
            "--engine" => a.engine = args.value("--engine")?,
            "--period" => a.period = args.parse("--period")?,
            "--scale" => a.scale = args.parse("--scale")?,
            "--interposer" => a.interposers.push(args.value("--interposer")?),
            "--json" => a.json_out = args.value("--json")?,
            "--out-prefix" => a.out_prefix = args.value("--out-prefix")?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if a.interposers.is_empty() {
        pitfalls::register_all();
        a.interposers = interpose::names().iter().map(|s| s.to_string()).collect();
    }
    Ok(a)
}

/// One profiled run's outputs and counts.
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

/// Per-trace occupancy rows (empty on the stepwise oracle, which forms
/// no traces): replayed steps per trace and the side-exit rate, hottest
/// trace first.
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

/// Profiles one run under interposer `name`: boots a world kernel,
/// transplants `log` when `name` needs the K23 offline phase, arms the
/// sampler and sim-obs around `body`, and collects the outputs. The
/// offline phase ran unprofiled on a scratch kernel, so the profile
/// covers only the online run the paper's tables measure.
fn profile(
    name: &str,
    engine: &str,
    period: u64,
    log: Option<&(String, Vec<u8>)>,
    body: impl FnOnce(&mut Kernel, &dyn Interposer) -> Result<(), String>,
) -> Result<RunOutput, String> {
    let ip = cli::mechanism(name)?;
    let mut k = cli::fresh_world();
    if k23::needs_offline(name) {
        cli::install_log(&mut k, Some(log.ok_or("offline log not collected")?));
    }
    sim_obs::clear_region_paths();
    sim_obs::clear_span_ranges();
    k.configure(cli::engine(engine)?.profile(period));
    sim_obs::enable(sim_obs::ObsConfig {
        micro_events: false,
        ..sim_obs::ObsConfig::default()
    });
    let res = body(&mut k, ip.as_ref());
    let rec = sim_obs::disable().expect("recorder was enabled");
    res?;
    Ok(finish_run(&mut k, rec))
}

/// Runs `COREUTIL` once under `ip`, to a zero exit: the coreutil row's
/// workload, offline and profiled.
fn run_coreutil(k: &mut Kernel, ip: &dyn Interposer) -> Result<(), String> {
    cli::run_to_exit(k, ip, COREUTIL, &[COREUTIL.to_string()], BUDGET)
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

/// A (workload, interposer) row.
struct Row {
    workload: String,
    interposer: String,
    out: RunOutput,
}

fn rows_json(opts: &Opts, rows: &[Row]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"period\": {},", opts.period);
    let _ = writeln!(s, "  \"scale\": {},", opts.scale);
    let _ = writeln!(s, "  \"engine\": \"{}\",", opts.engine);
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

fn run(opts: &Opts) -> Result<ExitCode, String> {
    // The paper collects each application's log once (§5.1); every K23
    // row reuses its workload's log.
    let offline = opts.interposers.iter().any(|n| k23::needs_offline(n));
    let spec = apps::table6_specs(opts.scale)
        .into_iter()
        .next()
        .ok_or_else(|| "no table6 specs".to_string())?;
    let scale_params = epollsrv_params(opts.scale);
    let epoll_spec = apps::scale_spec(
        true,
        scale_params.workers,
        EPOLLSRV_CONNS,
        scale_params.active,
        scale_params.requests,
        scale_params.resp64,
        scale_params.server_work,
        false,
    );
    let logs = [
        offline
            .then(|| cli::collect_log(&mut cli::fresh_world(), COREUTIL, run_coreutil))
            .transpose()?
            .map(|log| log.file()),
        offline.then(|| bench::macros_::collect_offline_log(&spec)),
        offline.then(|| collect_offline_log_scale(Variant::Epoll, &scale_params)),
    ];

    let mut rows = Vec::new();
    let mut folded_all = String::new();
    let mut stages_all = String::new();
    let mut flame = String::new();
    for name in &opts.interposers {
        for (workload, log) in ["coreutil", "server", "epollsrv"].into_iter().zip(&logs) {
            let (engine, period, log) = (opts.engine.as_str(), opts.period, log.as_ref());
            let out = match workload {
                "coreutil" => profile(name, engine, period, log, run_coreutil)?,
                "server" => profile(name, engine, period, log, |k, ip| {
                    apps::run_macro(k, ip, &spec, BUDGET)
                        .map(drop)
                        .map_err(|e| format!("{} under {name}: {e:?}", spec.name))
                })?,
                _ => profile(name, engine, period, log, |k, ip| {
                    apps::run_scale(k, ip, &epoll_spec, BUDGET)
                        .map(drop)
                        .map_err(|e| format!("epollsrv under {name}: {e:?}"))
                })?,
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

    cli::write(&opts.json_out, rows_json(opts, &rows))?;
    let folded_path = format!("{}_folded.txt", opts.out_prefix);
    let stages_path = format!("{}_stages.txt", opts.out_prefix);
    let flame_path = format!("{}_flame.svg", opts.out_prefix);
    cli::write(&folded_path, &folded_all)?;
    cli::write(&stages_path, &stages_all)?;
    cli::write(&flame_path, &flame)?;
    println!(
        "wrote {}, {folded_path}, {stages_path}, {flame_path}",
        opts.json_out
    );
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    cli::exit(
        "simprof",
        parse_opts(Args::from_env()).and_then(|opts| run(&opts)),
    )
}
