//! `simfault` — the deterministic fault & adversarial-schedule sweep.
//!
//! Runs every interposition mechanism against every [`pitfalls::fault`]
//! scenario and prints a byte-deterministic verdict table; failing cells
//! print a one-command replay line carrying the exact seed + plan. CI
//! checks determinism by diffing two invocations.
//!
//! ```text
//! simfault                   # full matrix at the default seed
//! simfault --seed 23         # full matrix at seed 23
//! simfault --replay <mech> '<plan>'   # re-run one cell from its encoding
//! ```

use bench::cli::{self, Args};
use pitfalls::fault::{full_fault_matrix, render_fault_matrix, replay};
use std::process::ExitCode;

const DEFAULT_SEED: u64 = 7;

fn run(mut args: Args) -> Result<ExitCode, String> {
    let mut seed = DEFAULT_SEED;
    while let Some(flag) = args.flag() {
        match flag.as_str() {
            "--seed" => seed = args.parse("--seed")?,
            "--replay" => {
                let mech = args.value("--replay")?;
                print!("{}", replay(&mech, &args.value("--replay")?)?);
                return Ok(ExitCode::SUCCESS);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    print!("{}", render_fault_matrix(seed, &full_fault_matrix(seed)));
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    cli::exit("simfault", run(Args::from_env()))
}
