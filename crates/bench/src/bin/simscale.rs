//! `simscale` — the connection-scale matrix (Table 6 at production
//! traffic shapes).
//!
//! Sweeps epollsrv-sim (readiness multiplexing) and pollsrv-sim
//! (busy-poll strawman) over 10^2–10^4 concurrent connections under
//! native + every Table 6 interposer, on parallel host threads. All
//! output is byte-identical for any `--threads` value and across
//! repeated runs — CI compares two invocations at thread counts 1 and 4.
//!
//! ```text
//! simscale                       # full matrix, text table on stdout
//! simscale --smoke               # tiny matrix for CI determinism checks
//! simscale --threads N           # host worker threads (default 4)
//! simscale --json PATH           # also write the matrix as JSON
//! simscale --out PATH            # also write the text table
//! simscale --gate BENCH_scale.json   # criterion + exact floor-cell check
//! ```
//!
//! Refresh the committed baseline with:
//! `cargo run --release -p bench --bin simscale -- --json BENCH_scale.json`

use bench::cli::{self, Args};
use bench::scale::{
    full_matrix_cells, full_params, gate, matrix_json, render_matrix, run_matrix_cells,
};
use bench::Config;
use std::process::ExitCode;

fn run(mut args: Args) -> Result<ExitCode, String> {
    let mut smoke = false;
    let mut threads = 4usize;
    let (mut json_out, mut text_out) = (None, None);
    while let Some(flag) = args.flag() {
        match flag.as_str() {
            "--smoke" => smoke = true,
            "--threads" => threads = args.parse("--threads")?,
            "--json" => json_out = Some(args.value("--json")?),
            "--out" => text_out = Some(args.value("--out")?),
            "--gate" => {
                println!("{}", gate(&cli::read_json(&args.value("--gate")?)?)?);
                return Ok(ExitCode::SUCCESS);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let mut params = full_params(bench::scale());
    let conns: &[u32] = if smoke {
        &[16, 64]
    } else {
        &[100, 1000, 10_000]
    };
    let mut cells = full_matrix_cells(conns);
    if smoke {
        params.requests = 64;
        cells.retain(|c| matches!(c.config, Config::Native | Config::K23Default | Config::Sud));
    }
    let matrix = run_matrix_cells(conns, &cells, &params, threads);
    let text = render_matrix(&matrix);
    if let Some(path) = json_out {
        cli::write(&path, matrix_json(&matrix).to_string_pretty())?;
    }
    if let Some(path) = text_out {
        cli::write(&path, &text)?;
    }
    print!("{text}");
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    cli::exit("simscale", run(Args::from_env()))
}
