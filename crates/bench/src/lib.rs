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
//! built on [`cli`]: one argument parser, engine table, guest world and
//! offline-log transplant. `simaudit` regenerates the committed
//! `MATRIX_simaudit.txt` coverage ledger.
//!
//! Scale with `K23_BENCH_SCALE` (default 10; 1 = full size, larger = faster).

pub mod audit;
pub mod cli;
pub mod config;
pub mod figures;
pub mod macros_;
pub mod micro;
pub mod scale;
pub mod table2;

pub use config::Config;

/// Reads the scale divisor from `K23_BENCH_SCALE` (default 10).
pub fn scale() -> u64 {
    std::env::var("K23_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|s| *s > 0)
        .unwrap_or(10)
}

/// Formats a ratio like the paper's Table 5 ("1.2788x").
pub fn fmt_ratio(r: f64) -> String {
    format!("{r:.4}x")
}

/// Formats a relative-throughput percentage like Table 6 ("98.62").
pub fn fmt_rel(r: f64) -> String {
    format!("{:.2}", r * 100.0)
}
