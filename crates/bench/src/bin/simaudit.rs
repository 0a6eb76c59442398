//! `simaudit` — the interposition coverage matrix.
//!
//! Sweeps every registry mechanism plus the composed stacks in
//! [`bench::audit::AUDIT_STACKS`] across the coreutil, client/server,
//! epoll-server (readiness dispatch), and hostile workloads with the
//! kernel-side audit ledger enabled, and prints one
//! byte-deterministic row per cell: coverage, interposed-via-path /
//! via-control / double-interposed counts, and bypasses broken down by
//! pitfall signature (`P2b-preinit`, `P1a-exec`, ...). CI checks
//! determinism by diffing two invocations.
//!
//! ```text
//! simaudit                       # full sweep (block engine)
//! simaudit --engine stepwise     # sweep under another engine (the
//!                                # output must be byte-identical)
//! simaudit --json PATH           # also write the matrix as JSON
//! simaudit --out PATH            # also write the matrix text (use to
//!                                # refresh MATRIX_simaudit.txt)
//! simaudit --replay <mech> <coreutil|server|epollsrv|hostile>   # one cell, full ledger
//! simaudit --gate MATRIX_simaudit.txt          # coverage floor check
//! ```

use bench::audit::{
    full_audit_matrix, matrix_json, parse_matrix_rows, render_audit_matrix, render_cell, run_cell,
    server_spec,
};
use bench::cli::{self, Args};
use sim_kernel::EngineConfig;
use std::process::ExitCode;

fn sweep(engine: &str, json_out: Option<&str>, text_out: Option<&str>) -> Result<String, String> {
    let rows = full_audit_matrix(&cli::engine(engine)?)?;
    let server = server_spec().name;
    let text = render_audit_matrix(&rows, &server);
    if let Some(path) = json_out {
        cli::write(path, matrix_json(&rows, &server).to_string_pretty())?;
    }
    if let Some(path) = text_out {
        cli::write(path, &text)?;
    }
    Ok(text)
}

/// Re-runs the sweep and fails if any cell's coverage fell below the
/// committed baseline (new cells pass; a removed cell fails).
fn gate(baseline_path: &str) -> Result<ExitCode, String> {
    let baseline =
        std::fs::read_to_string(baseline_path).map_err(|e| format!("read {baseline_path}: {e}"))?;
    let want = parse_matrix_rows(&baseline);
    if want.is_empty() {
        return Err(format!("{baseline_path} contains no matrix rows"));
    }
    let fresh = parse_matrix_rows(&sweep("block", None, None)?);
    let mut violations = Vec::new();
    for (mech, workload, floor) in &want {
        match fresh
            .iter()
            .find(|(m, w, _)| m == mech && w == workload)
            .map(|(_, _, p)| *p)
        {
            None => violations.push(format!("{mech}/{workload}: cell missing from fresh sweep")),
            Some(p) if p < *floor => violations.push(format!(
                "{mech}/{workload}: coverage {}.{}% fell below committed {}.{}%",
                p / 10,
                p % 10,
                floor / 10,
                floor % 10
            )),
            Some(_) => {}
        }
    }
    let ok = format!(
        "{} cells at or above the coverage floor of {baseline_path}",
        want.len()
    );
    Ok(cli::gate_verdict("simaudit", &violations, &ok))
}

fn run(mut args: Args) -> Result<ExitCode, String> {
    let mut engine = "block".to_string();
    let (mut json_out, mut text_out) = (None, None);
    while let Some(flag) = args.flag() {
        match flag.as_str() {
            "--engine" => engine = args.value("--engine")?,
            "--json" => json_out = Some(args.value("--json")?),
            "--out" => text_out = Some(args.value("--out")?),
            "--replay" => {
                let spec = args.value("--replay")?;
                let workload = args.value("--replay")?;
                let ledger = run_cell(&spec, &workload, EngineConfig::new())?;
                print!("{}", render_cell(&spec, &workload, &ledger));
                return Ok(ExitCode::SUCCESS);
            }
            "--gate" => return gate(&args.value("--gate")?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    print!(
        "{}",
        sweep(&engine, json_out.as_deref(), text_out.as_deref())?
    );
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    cli::exit("simaudit", run(Args::from_env()))
}
