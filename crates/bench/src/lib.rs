//! # bench — regenerating every table and figure of the paper
//!
//! Binaries (`cargo run -p bench --release --bin <name>`):
//!
//! | bin | reproduces |
//! |---|---|
//! | `table2` | unique offline-logged syscall sites per application |
//! | `table3` | the pitfall matrix |
//! | `table5` | microbenchmark overheads vs native |
//! | `table6` | macrobenchmark relative throughput |
//! | `fig1`   | instruction misidentification demo |
//! | `fig2`   | offline-phase walkthrough |
//! | `fig3`   | the `ls` offline log |
//! | `fig4`   | online-phase walkthrough |
//! | `all`    | everything above, in order |
//!
//! Diagnostics binaries (`simtrace`, `simperf`, `simprof`, `simfault`,
//! `simstack`, `simrecord`, `simaudit`, `simscale`) live alongside, all
//! built on [`cli`]: one argument parser, engine table, guest world, and
//! offline-log collection and transplant. `simaudit` regenerates the
//! committed `MATRIX_simaudit.txt` coverage ledger.
//!
//! Scale with `K23_BENCH_SCALE` (default 10; 1 = full size, larger = faster;
//! a value that is not an integer from 1 to 2,000,000 is an error).

pub mod audit;
pub mod cli;
pub mod config;
pub mod figures;
pub mod macros_;
pub mod micro;
pub mod scale;
pub mod table2;

pub use config::Config;

/// The scale divisor `K23_BENCH_SCALE`, 10 when unset.
///
/// Any other value that is not an integer from 1 to
/// [`micro::TABLE5_ITERATIONS`] (the largest divisor that still leaves
/// Table 5 one iteration) ends the process with exit status 1 and a
/// message naming the variable and the value, so a typo never publishes
/// tables at the default scale.
pub fn scale() -> u64 {
    let value = std::env::var_os("K23_BENCH_SCALE").map(|v| v.to_string_lossy().into_owned());
    parse_scale(value.as_deref()).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1)
    })
}

fn parse_scale(value: Option<&str>) -> Result<u64, String> {
    let Some(v) = value else { return Ok(10) };
    v.parse()
        .ok()
        .filter(|s| (1..=micro::TABLE5_ITERATIONS).contains(s))
        .ok_or_else(|| {
            format!(
                "K23_BENCH_SCALE={v:?} is not an integer from 1 to {}",
                micro::TABLE5_ITERATIONS
            )
        })
}

/// Formats a ratio like the paper's Table 5 ("1.2788x").
pub fn fmt_ratio(r: f64) -> String {
    format!("{r:.4}x")
}

/// Formats a relative-throughput percentage like Table 6 ("98.62").
pub fn fmt_rel(r: f64) -> String {
    format!("{:.2}", r * 100.0)
}

#[cfg(test)]
mod tests {
    use super::parse_scale;

    #[test]
    fn scale_is_ten_when_unset_and_rejects_anything_but_a_positive_integer() {
        assert_eq!(parse_scale(None), Ok(10));
        assert_eq!(parse_scale(Some("1")), Ok(1));
        assert_eq!(parse_scale(Some("100")), Ok(100));
        assert_eq!(parse_scale(Some("2000000")), Ok(2_000_000));
        for bad in ["1O", "0", "-5", "", " 10", "2.5", "2000001"] {
            let err = parse_scale(Some(bad)).unwrap_err();
            assert!(
                err.contains("K23_BENCH_SCALE") && err.contains(&format!("{bad:?}")),
                "{err}"
            );
        }
    }
}
