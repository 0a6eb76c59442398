//! perfbench command line.
//!
//! ```text
//! perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//! perfbench --repro nginx-eintr <occurrence> # known-defect reproduction
//! ```
//!
//! A run prints its report, writes manifest + report + spans to
//! `perfbench/out/`, and ends with one JSON result line.

use perfbench::{run, Sizes, Workload};
use std::path::Path;

const USAGE: &str =
    "usage: perfbench --workload <syscall-loop|epoll-10k|observed-server|paper-tables|all> \
[--seed N] [--seconds S] [--trace 0|1]\n       \
perfbench --repro nginx-eintr <occurrence>";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn value<'a>(args: &'a [String], i: usize, flag: &str) -> Result<&'a str, String> {
    args.get(i + 1)
        .map(String::as_str)
        .ok_or_else(|| format!("{flag} needs a value"))
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workloads: Vec::new(),
        seed: perfbench::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--workload" => {
                let v = value(args, i, flag)?;
                a.workloads = match v {
                    "all" => Workload::ALL.to_vec(),
                    _ => vec![Workload::parse(v).ok_or_else(|| format!("unknown workload {v:?}"))?],
                };
            }
            "--seed" => {
                a.seed = value(args, i, flag)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value(args, i, flag)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds.is_finite() && a.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                a.trace = match value(args, i, flag)? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
        i += 2;
    }
    if a.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(a)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--repro") {
        match (
            args.get(1).map(String::as_str),
            args.get(2).and_then(|s| s.parse().ok()),
        ) {
            (Some("nginx-eintr"), Some(occ)) => {
                println!("{}", perfbench::repro::nginx_eintr(occ))
            }
            _ => fail("--repro nginx-eintr <occurrence>"),
        }
        return;
    }
    let a = parse(&args).unwrap_or_else(|e| fail(&e));
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    for w in &a.workloads {
        let outcome = run(*w, a.seed, a.seconds, a.trace, Sizes::standard());
        for line in &outcome.report {
            println!("{line}");
        }
        let file = out_dir.join(format!(
            "{}-seed{}-trace{}.json",
            w.name(),
            a.seed,
            u8::from(a.trace)
        ));
        let written = std::fs::create_dir_all(&out_dir)
            .and_then(|()| std::fs::write(&file, outcome.file_json(*w)));
        match written {
            Ok(()) => println!("spans and manifest: {}", file.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", file.display()),
        }
        println!("{}", outcome.result_json());
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("perfbench: {msg}\n{USAGE}");
    std::process::exit(2);
}
