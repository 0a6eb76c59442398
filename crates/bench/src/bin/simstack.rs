//! `simstack` — the composed-stack fault sweep and propagation report.
//!
//! Runs every composed interposer stack in [`pitfalls::stack::STACKS`]
//! against every [`pitfalls::fault`] scenario and prints a
//! byte-deterministic verdict table; failing cells print a one-command
//! replay line carrying the exact seed + plan, and composition-only
//! hazards (the stack fails where its bare base survives) are flagged.
//! The sweep ends with the fork/execve propagation report: the P1a
//! parent/victim pair run under tracer/recorder stacks on K23 and
//! zpoline bases. CI checks determinism by diffing two invocations and
//! pins the default sweep to `MATRIX_simstack.txt`.
//!
//! ```text
//! simstack                   # full matrix + propagation, default seed
//! simstack --seed 23         # full matrix at seed 23
//! simstack --replay <spec> '<plan>'   # re-run one cell from its encoding
//! ```

use bench::cli::{self, Args};
use pitfalls::fault::replay;
use pitfalls::stack::{full_stack_matrix, render_propagation, render_stack_matrix};
use std::process::ExitCode;

const DEFAULT_SEED: u64 = 7;

fn run(mut args: Args) -> Result<ExitCode, String> {
    let mut seed = DEFAULT_SEED;
    while let Some(flag) = args.flag() {
        match flag.as_str() {
            "--seed" => seed = args.parse("--seed")?,
            "--replay" => {
                let spec = args.value("--replay")?;
                print!("{}", replay(&spec, &args.value("--replay")?)?);
                return Ok(ExitCode::SUCCESS);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    print!("{}", render_stack_matrix(seed, &full_stack_matrix(seed)));
    println!();
    print!("{}", render_propagation());
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    cli::exit("simstack", run(Args::from_env()))
}
