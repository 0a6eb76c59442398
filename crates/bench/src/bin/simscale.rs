//! `simscale` — the connection-scale matrix (Table 6 at production
//! traffic shapes).
//!
//! Sweeps epollsrv-sim (readiness multiplexing) and pollsrv-sim
//! (busy-poll strawman) over 10^2–10^4 concurrent connections under
//! native + every Table 6 interposer, on parallel host threads. All
//! output is byte-identical for any `--threads` value and across
//! repeated runs; tier-1 checks that on a small matrix at thread counts 1
//! and 4, and checks the committed `BENCH_scale.json`'s criterion and
//! floor cell.
//!
//! ```text
//! simscale                       # full matrix, text table on stdout
//! simscale --threads N           # host worker threads (default 4)
//! simscale --json PATH           # also write the matrix as JSON
//! simscale --out PATH            # also write the text table
//! ```
//!
//! Refresh the committed baseline with:
//! `cargo run --release -p bench --bin simscale -- --json BENCH_scale.json`

use bench::cli::{self, Args};
use bench::scale::{full_matrix_cells, full_params, matrix_json, render_matrix, run_matrix_cells};
use std::process::ExitCode;

fn run(mut args: Args) -> Result<ExitCode, String> {
    let mut threads = 4usize;
    let (mut json_out, mut text_out) = (None, None);
    while let Some(flag) = args.flag() {
        match flag.as_str() {
            "--threads" => threads = args.parse("--threads")?,
            "--json" => json_out = Some(args.value("--json")?),
            "--out" => text_out = Some(args.value("--out")?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let conns = [100, 1000, 10_000];
    let matrix = run_matrix_cells(
        &conns,
        &full_matrix_cells(&conns),
        &full_params(bench::scale()),
        threads,
    );
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
