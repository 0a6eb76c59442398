//! simtrace — run a guest workload under any interposition mechanism with
//! `sim-obs` tracing enabled, and export the result as Chrome trace-event
//! JSON (loadable in Perfetto / `about:tracing`) plus a plain-text
//! summary with per-interposer syscall-latency attribution.
//!
//! ```text
//! simtrace [--interposer NAME] [--engine block|stepwise]
//!          [--app PATH | --micro N]
//!          [--trace-out PATH] [--summary-out PATH]
//!          [--no-micro-events] [--compare]
//! ```
//!
//! * `--interposer` — one of `native`, `ptrace`, `sud`, `sud-armed`,
//!   `zpoline`, `zpoline-ultra`, `lazypoline`, `k23`, `k23-ultra`,
//!   `k23-ultra+` (default `k23`). K23 variants run the offline phase
//!   first, untraced, so the trace covers only the online run.
//! * `--engine` — execution engine for the traced run (default `block`).
//!   The summary's counter block always includes the trace-cache rows
//!   (formation/link/side-exit counts — zero on `stepwise`).
//! * `--app` — VFS path of a coreutil installed by `apps::install_world`
//!   (default `/usr/bin/ls-sim`); `--micro N` instead runs the Table 5
//!   syscall-500 stress loop for `N` iterations.
//! * `--compare` — additionally measure per-iteration microbenchmark
//!   cycles under the main mechanisms and print the overhead ordering.

use bench::cli::{self, Args};
use bench::micro::{install_micro, per_iteration_cycles_with, MICRO_APP};
use interpose::Interposer;
use sim_kernel::Kernel;
use std::process::ExitCode;

struct Opts {
    interposer: String,
    engine: String,
    app: String,
    micro: Option<u64>,
    trace_out: String,
    summary_out: String,
    micro_events: bool,
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
            "--compare" => a.compare = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(a)
}

/// Runs the chosen workload traced; returns the recorder.
fn traced_run(opts: &Opts) -> Result<Box<sim_obs::Recorder>, String> {
    let ip = cli::mechanism(&opts.interposer)?;
    let mut k = cli::fresh_world();
    let (app, argv) = match opts.micro {
        Some(n) => {
            install_micro(&mut k.vfs, n)?;
            (MICRO_APP.to_string(), vec![])
        }
        None => (opts.app.clone(), vec![opts.app.clone()]),
    };

    let run =
        |k: &mut Kernel, ip: &dyn Interposer| cli::run_to_exit(k, ip, &app, &argv, u64::MAX / 4);
    if k23::needs_offline(&opts.interposer) {
        // Offline phase runs untraced: the trace should cover the online
        // run the paper's tables describe, not log collection.
        cli::collect_log(&mut k, &app, run)?;
    }

    // Audit the traced run against the mechanism's declared coverage so
    // the summary's counter block reports interposed/bypassed/double
    // counts per attribution path alongside the latency table.
    k.configure(cli::engine(&opts.engine)?.audit(ip.coverage()));
    sim_obs::enable(sim_obs::ObsConfig {
        micro_events: opts.micro_events,
        ..sim_obs::ObsConfig::default()
    });
    let res = run(&mut k, ip.as_ref());
    let rec = sim_obs::disable().expect("recorder was enabled");
    res?;
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
        rows.push((ip.label(), per_iteration_cycles_with(ip.as_ref(), n)));
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
        let n = (2_000 / bench::scale()).max(200);
        summary.push_str(&compare_table(n)?);
    }
    cli::write(&opts.summary_out, &summary)?;
    print!("{summary}");
    println!("wrote {} and {}", opts.trace_out, opts.summary_out);
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    cli::exit(
        "simtrace",
        parse_opts(Args::from_env()).and_then(|opts| run(&opts)),
    )
}
