//! Table 2: unique `syscall`/`sysenter` sites the offline phase logs per
//! application.

use crate::cli::{self, fresh_world};
use crate::macros_::{server_log, sqlite_log};
use apps::MacroSpec;

/// One Table 2 row.
#[derive(Debug, Clone)]
pub struct SiteRow {
    /// Application name.
    pub app: String,
    /// Measured unique sites.
    pub measured: usize,
    /// The paper's count.
    pub paper: usize,
}

const BUDGET: u64 = 40_000_000_000_000;

/// Offline-phase site count for a run-to-completion binary.
pub fn sites_for_simple(app: &str) -> usize {
    cli::collect_log(&mut fresh_world(), app, |k, ip| {
        cli::run_to_exit(k, ip, app, &[app.to_string()], BUDGET)
    })
    .unwrap_or_else(|e| panic!("{e}"))
    .len()
}

/// Offline-phase site count for a server spec (driven by its clients).
pub fn sites_for_server(spec: &MacroSpec) -> usize {
    server_log(spec).len()
}

/// Offline site count for sqlite.
pub fn sites_for_sqlite(scale: u64) -> usize {
    sqlite_log(&apps::sqlite_cfg(scale)).len()
}

/// Runs the whole Table 2.
pub fn run_table2(scale: u64) -> Vec<SiteRow> {
    let mut rows = Vec::new();
    for (app, paper) in apps::EXPECTED_SITES {
        rows.push(SiteRow {
            app: app.rsplit('/').next().unwrap_or(app).to_string(),
            measured: sites_for_simple(app),
            paper,
        });
    }
    rows.push(SiteRow {
        app: "sqlite-sim".into(),
        measured: sites_for_sqlite(scale),
        paper: 20,
    });
    let specs = apps::table6_specs(scale.max(20));
    for (idx, name, paper) in [(2usize, "nginx-sim", 43), (6, "lighttpd-sim", 44), (9, "redis-sim", 92)] {
        rows.push(SiteRow {
            app: name.to_string(),
            measured: sites_for_server(&specs[idx]),
            paper,
        });
    }
    rows
}

/// Renders Table 2.
pub fn render_table2(rows: &[SiteRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{:<14}{:>12}{:>10}\n", "Application", "#sites", "paper"));
    for r in rows {
        out.push_str(&format!("{:<14}{:>12}{:>10}\n", r.app, r.measured, r.paper));
    }
    out
}
