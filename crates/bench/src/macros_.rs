//! The Table 6 macrobenchmarks: nginx/lighttpd/redis throughput relative to
//! native, plus the sqlite completion-time row.

use crate::cli::{self, fresh_world};
use crate::Config;
use apps::{run_macro, run_sqlite, sqlite_cfg, MacroSpec};
use k23::SiteLog;

const BUDGET: u64 = 40_000_000_000_000;

/// The K23 site log of a server spec, collected on a scratch kernel under
/// the spec's own client load.
pub(crate) fn server_log(spec: &MacroSpec) -> SiteLog {
    cli::collect_log(&mut fresh_world(), spec.server, |k, ip| {
        run_macro(k, ip, spec, BUDGET)
    })
    .unwrap_or_else(|e| panic!("{e}"))
}

/// The K23 site log of the sqlite completion workload.
pub(crate) fn sqlite_log(cfg: &[u8]) -> SiteLog {
    cli::collect_log(&mut fresh_world(), "/usr/bin/sqlite-sim", |k, ip| {
        run_sqlite(k, ip, cfg, BUDGET)
    })
    .unwrap_or_else(|e| panic!("{e}"))
}

/// Runs the offline phase for a server spec on a scratch kernel and returns
/// the serialized log file (path, bytes) for transplanting into measurement
/// kernels — the paper collects logs once and reuses them (§5.1).
pub fn collect_offline_log(spec: &MacroSpec) -> (String, Vec<u8>) {
    server_log(spec).file()
}

/// Offline log for the sqlite completion workload.
pub fn collect_offline_log_sqlite(cfg: &[u8]) -> (String, Vec<u8>) {
    sqlite_log(cfg).file()
}

/// Throughput of `spec` under `config` (requests per Gcycle).
pub fn macro_throughput(spec: &MacroSpec, config: Config, log: &Option<(String, Vec<u8>)>) -> f64 {
    let mut k = fresh_world();
    cli::install_log(&mut k, log.as_ref());
    let ip = config.make();
    let res = run_macro(&mut k, ip.as_ref(), spec, BUDGET)
        .unwrap_or_else(|e| panic!("{} under {}: {e:?}", spec.name, config.label()));
    res.throughput()
}

/// sqlite completion cycles under `config`.
pub fn sqlite_cycles(cfg: &[u8], config: Config, log: &Option<(String, Vec<u8>)>) -> u64 {
    let mut k = fresh_world();
    cli::install_log(&mut k, log.as_ref());
    let ip = config.make();
    run_sqlite(&mut k, ip.as_ref(), cfg, BUDGET)
        .unwrap_or_else(|e| panic!("sqlite under {}: {e:?}", config.label()))
}

/// One Table 6 row: native absolute + relative per configuration.
#[derive(Debug, Clone)]
pub struct MacroRow {
    /// Row label.
    pub name: String,
    /// Native throughput (requests per Gcycle; sqlite: Gcycles runtime).
    pub native: f64,
    /// (config label, relative-to-native fraction).
    pub rel: Vec<(&'static str, f64)>,
}

/// Runs the full Table 6.
pub fn run_table6(scale: u64) -> Vec<MacroRow> {
    let mut rows = Vec::new();
    for spec in apps::table6_specs(scale) {
        let offline = Some(collect_offline_log(&spec));
        let native = macro_throughput(&spec, Config::Native, &None);
        let rel = Config::TABLE6
            .iter()
            .map(|c| {
                let log = if c.needs_offline() { &offline } else { &None };
                (c.label(), macro_throughput(&spec, *c, log) / native)
            })
            .collect();
        rows.push(MacroRow {
            name: spec.name.clone(),
            native,
            rel,
        });
    }
    // sqlite: relative runtime = native_time / interposed_time (paper's
    // formula).
    let cfg = sqlite_cfg(scale);
    let offline = Some(collect_offline_log_sqlite(&cfg));
    let native_cycles = sqlite_cycles(&cfg, Config::Native, &None);
    let rel = Config::TABLE6
        .iter()
        .map(|c| {
            let log = if c.needs_offline() { &offline } else { &None };
            (
                c.label(),
                native_cycles as f64 / sqlite_cycles(&cfg, *c, log) as f64,
            )
        })
        .collect();
    rows.push(MacroRow {
        name: "sqlite (speedtest1, size 800)".to_string(),
        native: native_cycles as f64 / 1e9,
        rel,
    });
    rows
}

/// The paper's Table 6 relative percentages, for side-by-side output.
/// Order: zpoline-default, zpoline-ultra, lazypoline, K23-default,
/// K23-ultra, K23-ultra+, SUD.
pub const PAPER_TABLE6: [(&str, [f64; 7]); 11] = [
    ("nginx (1 worker, 0 KB)", [99.05, 98.40, 97.85, 97.94, 97.29, 96.70, 51.29]),
    ("nginx (1 worker, 4 KB)", [96.73, 96.14, 96.04, 96.24, 95.89, 95.76, 45.95]),
    ("nginx (10 workers, 0 KB)", [99.62, 99.34, 98.79, 99.52, 98.39, 97.83, 53.93]),
    ("nginx (10 workers, 4 KB)", [98.83, 98.76, 98.14, 98.59, 98.12, 98.23, 53.97]),
    ("lighttpd (1 worker, 0 KB)", [98.76, 99.48, 98.23, 99.15, 97.89, 97.50, 61.25]),
    ("lighttpd (1 worker, 4 KB)", [99.28, 98.37, 97.93, 98.56, 98.01, 97.62, 61.62]),
    ("lighttpd (10 workers, 0 KB)", [98.77, 98.60, 98.18, 98.16, 98.36, 97.69, 59.83]),
    ("lighttpd (10 workers, 4 KB)", [99.17, 98.98, 98.67, 99.01, 98.65, 98.62, 65.06]),
    ("redis (1 I/O thread)", [100.00, 99.93, 99.98, 100.21, 100.17, 99.90, 96.15]),
    ("redis (6 I/O threads)", [99.94, 99.80, 99.80, 99.97, 99.97, 99.95, 35.75]),
    ("sqlite (speedtest1, size 800)", [98.12, 97.80, 97.31, 97.56, 97.13, 97.20, 55.90]),
];

/// Renders Table 6 (measured, with the paper's value in parentheses).
pub fn render_table6(rows: &[MacroRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{:<32}{:>10}", "Application (workload)", "native"));
    for c in Config::TABLE6 {
        out.push_str(&format!("{:>24}", c.label()));
    }
    out.push('\n');
    let mut geo: Vec<f64> = vec![0.0; Config::TABLE6.len()];
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!("{:<32}{:>10.2}", r.name, r.native));
        for (j, (_, rel)) in r.rel.iter().enumerate() {
            geo[j] += rel.ln();
            let paper = PAPER_TABLE6
                .get(i)
                .map(|(_, vals)| vals[j])
                .unwrap_or(f64::NAN);
            out.push_str(&format!(
                "{:>24}",
                format!("{} ({paper:.2})", crate::fmt_rel(*rel))
            ));
        }
        out.push('\n');
    }
    out.push_str(&format!("{:<32}{:>10}", "geomean", ""));
    let n = rows.len() as f64;
    for (j, g) in geo.iter().enumerate() {
        let paper_geo: f64 = {
            let s: f64 = PAPER_TABLE6.iter().map(|(_, v)| (v[j] / 100.0).ln()).sum();
            (s / PAPER_TABLE6.len() as f64).exp() * 100.0
        };
        out.push_str(&format!(
            "{:>24}",
            format!("{} ({paper_geo:.2})", crate::fmt_rel((g / n).exp()))
        ));
    }
    out.push('\n');
    out
}
