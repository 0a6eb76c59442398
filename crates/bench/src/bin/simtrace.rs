//! simtrace — run a guest workload under any interposition mechanism with
//! `sim-obs` tracing enabled, and export the result as Chrome trace-event
//! JSON (loadable in Perfetto / `about:tracing`) plus a plain-text
//! summary with per-interposer syscall-latency attribution.
//!
//! ```text
//! simtrace [--interposer NAME] [--engine block|stepwise|trace]
//!          [--app PATH | --micro N]
//!          [--trace-out PATH] [--summary-out PATH]
//!          [--no-micro-events] [--selfcheck] [--compare]
//! ```
//!
//! * `--interposer` — one of `native`, `ptrace`, `sud`, `sud-armed`,
//!   `zpoline`, `zpoline-ultra`, `lazypoline`, `k23`, `k23-ultra`,
//!   `k23-ultra+` (default `k23`). K23 variants run the offline phase
//!   first, untraced, so the trace covers only the online run.
//! * `--engine` — execution engine for the traced run (default `block`).
//!   The summary's counter block always includes the trace-engine rows
//!   (formation/link/side-exit counts — zero outside `trace`).
//! * `--app` — VFS path of a coreutil installed by `apps::install_world`
//!   (default `/usr/bin/ls-sim`); `--micro N` instead runs the Table 5
//!   syscall-500 stress loop for `N` iterations.
//! * `--selfcheck` — re-parse the written trace with `sjson` and require
//!   at least one syscall span (CI smoke gate); exits non-zero on failure.
//! * `--compare` — additionally measure per-iteration microbenchmark
//!   cycles under the main mechanisms and print the overhead ordering.

use bench::cli::{self, Args};
use bench::micro::{build_micro_app, per_iteration_cycles_with, MICRO_APP, MICRO_CFG};
use sim_kernel::RunExit;
use sim_loader::boot_kernel_from;
use std::process::ExitCode;

struct Opts {
    interposer: String,
    engine: String,
    app: String,
    micro: Option<u64>,
    trace_out: String,
    summary_out: String,
    micro_events: bool,
    selfcheck: bool,
    compare: bool,
}

fn parse_opts(mut args: Args) -> Result<Opts, String> {
    let mut a = Opts {
        interposer: "k23".to_string(),
        engine: "block".to_string(),
        app: "/usr/bin/ls-sim".to_string(),
        micro: None,
        trace_out: "SIMTRACE_trace.json".to_string(),
        summary_out: "SIMTRACE_summary.txt".to_string(),
        micro_events: true,
        selfcheck: false,
        compare: false,
    };
    while let Some(flag) = args.flag() {
        match flag.as_str() {
            "--interposer" => a.interposer = args.value("--interposer")?,
            "--engine" => a.engine = args.value("--engine")?,
            "--app" => a.app = args.value("--app")?,
            "--micro" => a.micro = Some(args.parse("--micro")?),
            "--trace-out" => a.trace_out = args.value("--trace-out")?,
            "--summary-out" => a.summary_out = args.value("--summary-out")?,
            "--no-micro-events" => a.micro_events = false,
            "--selfcheck" => a.selfcheck = true,
            "--compare" => a.compare = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(a)
}

/// Runs the chosen workload traced; returns the recorder.
fn traced_run(opts: &Opts) -> Result<Box<sim_obs::Recorder>, String> {
    let ip = cli::mechanism(&opts.interposer)?;
    let mut k = boot_kernel_from(cli::world());
    let (app, argv) = match opts.micro {
        Some(n) => {
            build_micro_app().install(&mut k.vfs);
            k.vfs
                .write_file(MICRO_CFG, &n.to_le_bytes())
                .map_err(|e| format!("write micro config: {e}"))?;
            (MICRO_APP.to_string(), vec![])
        }
        None => (opts.app.clone(), vec![opts.app.clone()]),
    };

    if cli::needs_offline(&opts.interposer) {
        // Offline phase runs untraced: the trace should cover the online
        // run the paper's tables describe, not log collection.
        cli::offline_once(&mut k, &app, &argv, u64::MAX / 4)?;
    }

    // Audit the traced run against the mechanism's declared coverage so
    // the summary's counter block reports interposed/bypassed/double
    // counts per attribution path alongside the latency table.
    k.configure(cli::engine(&opts.engine)?.audit(ip.coverage()));
    sim_obs::enable(sim_obs::ObsConfig {
        micro_events: opts.micro_events,
        ..sim_obs::ObsConfig::default()
    });
    ip.install(&mut k);
    let pid = match ip.spawn(&mut k, &app, &argv, &[]) {
        Ok(pid) => pid,
        Err(e) => {
            sim_obs::disable();
            return Err(format!("spawn {app}: {e}"));
        }
    };
    let exit = k.run(u64::MAX / 4);
    let rec = sim_obs::disable().expect("recorder was enabled");
    if exit != RunExit::AllExited {
        return Err(format!("{app} did not finish: {exit:?}"));
    }
    let status = k.process(pid).and_then(|p| p.exit_status);
    if status != Some(0) {
        return Err(format!("{app} exited with {status:?}"));
    }
    Ok(rec)
}

/// `--compare`: per-iteration stress-loop cycles under each mechanism
/// (differencing cancels startup and offline costs; see `bench::micro`).
fn compare_table(n: u64) -> Result<String, String> {
    let mechanisms: &[&str] = &[
        "native",
        "k23",
        "zpoline",
        "lazypoline",
        "sud",
        "ptrace",
    ];
    let mut rows: Vec<(String, f64)> = Vec::new();
    for name in mechanisms {
        let ip = cli::mechanism(name)?;
        let cycles = if cli::needs_offline(name) {
            // The only offline-phase mechanism in the list is k23-default;
            // the bench harness collects and seals its log before timing.
            assert_eq!(*name, "k23", "only k23 needs offline here");
            bench::micro::per_iteration_cycles(bench::Config::K23Default, n)
        } else {
            per_iteration_cycles_with(ip.as_ref(), n)
        };
        rows.push((ip.label(), cycles));
    }
    let native = rows[0].1;
    let mut s = String::new();
    s.push_str("per-syscall overhead (microbenchmark, sim-cycles/iteration):\n");
    s.push_str(&format!(
        "  {:<24} {:>12} {:>10}\n",
        "mechanism", "cycles/iter", "vs native"
    ));
    for (label, cycles) in &rows {
        s.push_str(&format!(
            "  {:<24} {:>12.1} {:>9.2}x\n",
            label,
            cycles,
            cycles / native
        ));
    }
    Ok(s)
}

/// Parses the written trace back and checks it contains ≥ 1 syscall span.
fn selfcheck(trace_path: &str) -> Result<u64, String> {
    let events = cli::read_json(trace_path)?;
    let events = events
        .get("traceEvents")
        .and_then(|t| t.as_array())
        .ok_or_else(|| format!("{trace_path} has no traceEvents array"))?;
    let spans = events
        .iter()
        .filter(|e| {
            e.get("ph").and_then(|p| p.as_str()) == Some("B")
                && e.get("cat").and_then(|c| c.as_str()) == Some("syscall")
        })
        .count() as u64;
    if spans == 0 {
        return Err(format!("{trace_path} contains no syscall spans"));
    }
    Ok(spans)
}

fn run(opts: &Opts) -> Result<ExitCode, String> {
    let rec = traced_run(opts)?;
    cli::write(&opts.trace_out, rec.chrome_trace_json())?;
    let mut summary = format!(
        "workload: {} under {} ({} engine)\n{}",
        opts.micro
            .map_or(opts.app.clone(), |n| format!("{MICRO_APP} x{n}")),
        opts.interposer,
        opts.engine,
        rec.summary()
    );
    if opts.compare {
        let n = (2_000 / bench::scale().max(1)).max(200);
        summary.push_str(&compare_table(n)?);
    }
    cli::write(&opts.summary_out, &summary)?;
    print!("{summary}");
    println!("wrote {} and {}", opts.trace_out, opts.summary_out);

    if opts.selfcheck {
        let spans = selfcheck(&opts.trace_out).map_err(|e| format!("selfcheck failed: {e}"))?;
        println!("selfcheck: ok ({spans} syscall spans)");
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    cli::exit(
        "simtrace",
        parse_opts(Args::from_env()).and_then(|opts| run(&opts)),
    )
}
