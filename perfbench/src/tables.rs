//! `paper-tables`: the `bench --bin all` pipeline at a fixed scale divisor
//! — Figures 1–4 and Tables 2, 3, 5 and 6 — through the same public entry
//! points. The traced repetition calls the per-cell functions those entry
//! points are made of instead, so every cell gets a span; both must
//! render the same text.

use crate::clock::CpuTimer;
use crate::span::{self, Span, Tracer};
use crate::{fnv1a, quantile, Ctx, Rep, Sizes};
use bench::macros_::{
    collect_offline_log, collect_offline_log_sqlite, macro_throughput, render_table6, run_table6,
    sqlite_cycles, MacroRow, PAPER_TABLE6,
};
use bench::micro::{per_iteration_cycles, render_table5, run_table5, MicroRow};
use bench::table2::{
    render_table2, run_table2, sites_for_server, sites_for_simple, sites_for_sqlite, SiteRow,
};
use bench::{figures, Config};
use pitfalls::{full_matrix, render_matrix, Pitfall, Subject, Verdict};
use sim_loader::boot_kernel;
use std::collections::BTreeMap;

/// Set-ups timed per repetition for `setup_s`.
const SETUP_PROBES: usize = 5;

/// The paper's Table 3 (zpoline, lazypoline, K23 per pitfall).
const PAPER_TABLE3: [(&str, [&str; 3]); 9] = [
    ("P1a", ["✗", "✗", "✓"]),
    ("P1b", ["✓", "✗", "✓"]),
    ("P2a", ["✗", "✓", "✓"]),
    ("P2b", ["✗", "✗", "✓"]),
    ("P3a", ["✗", "✓", "✓"]),
    ("P3b", ["✓", "✗", "✓"]),
    ("P4a", ["✓", "✗", "✓"]),
    ("P4b", ["✗", "✓", "✓"]),
    ("P5", ["✓", "✗", "✓"]),
];

/// Table 2's server rows as `bench::table2::run_table2` builds them:
/// (index into `table6_specs`, label, paper count).
const TABLE2_SERVERS: [(usize, &str, usize); 3] = [
    (2, "nginx-sim", 43),
    (6, "lighttpd-sim", 44),
    (9, "redis-sim", 92),
];

/// Rendered output recorded at the standard scale.
const REFERENCE: &str = include_str!("../ref/paper-tables-scale100.txt");

type Matrix = Vec<(Subject, Vec<(Pitfall, Verdict)>)>;

/// Every table's rows.
struct Parts {
    figs: [String; 4],
    t2: Vec<SiteRow>,
    t3: Matrix,
    t5: Vec<MicroRow>,
    t6: Vec<MacroRow>,
}

fn micro_iterations(scale: u64) -> u64 {
    2_000_000 / scale.max(1)
}

/// Table cells a repetition computes (one per per-cell public call).
pub fn cells(s: &Sizes) -> u64 {
    let t2 = apps::EXPECTED_SITES.len() + 1 + TABLE2_SERVERS.len();
    let t5 = 1 + Config::TABLE5.len();
    let t6 = (apps::table6_specs(s.tables_scale).len() + 1) * (2 + Config::TABLE6.len());
    (4 + t2 + 1 + t5 + t6) as u64
}

/// The pipeline through its whole-table entry points.
fn pipeline(scale: u64) -> Parts {
    Parts {
        figs: [
            figures::fig1(),
            figures::fig2(),
            figures::fig3(),
            figures::fig4(),
        ],
        t2: run_table2(scale),
        t3: full_matrix(),
        t5: run_table5(micro_iterations(scale)),
        t6: run_table6(scale),
    }
}

/// A span per table cell, around the layer call inside it.
fn cell<R>(tr: &mut Tracer, layer: &'static str, label: &str, f: impl FnOnce() -> R) -> R {
    let open = tr.enter("tables.cell", label);
    let r = tr.span(layer, label, f);
    tr.exit(open);
    r
}

/// The pipeline cell by cell, as the entry points compose it.
fn pipeline_cells(scale: u64, tr: &mut Tracer) -> Parts {
    let figs = [
        cell(tr, "tables.figure", "fig1", figures::fig1),
        cell(tr, "tables.figure", "fig2", figures::fig2),
        cell(tr, "tables.figure", "fig3", figures::fig3),
        cell(tr, "tables.figure", "fig4", figures::fig4),
    ];
    let mut t2: Vec<SiteRow> = apps::EXPECTED_SITES
        .iter()
        .map(|(app, paper)| SiteRow {
            app: app.rsplit('/').next().unwrap_or(app).to_string(),
            measured: cell(tr, "k23.offline", &format!("t2 {app}"), || {
                sites_for_simple(app)
            }),
            paper: *paper,
        })
        .collect();
    t2.push(SiteRow {
        app: "sqlite-sim".into(),
        measured: cell(tr, "k23.offline", "t2 sqlite-sim", || {
            sites_for_sqlite(scale)
        }),
        paper: 20,
    });
    let specs = apps::table6_specs(scale.max(20));
    for (idx, name, paper) in TABLE2_SERVERS {
        t2.push(SiteRow {
            app: name.to_string(),
            measured: cell(tr, "k23.offline", &format!("t2 {name}"), || {
                sites_for_server(&specs[idx])
            }),
            paper,
        });
    }
    let t3 = cell(tr, "tables.pitfalls", "t3", full_matrix);
    let n = micro_iterations(scale);
    let native = cell(tr, "tables.micro", "t5 native", || {
        per_iteration_cycles(Config::Native, n)
    });
    let t5 = Config::TABLE5
        .iter()
        .map(|c| MicroRow {
            label: c.label(),
            overhead: cell(tr, "tables.micro", &format!("t5 {}", c.label()), || {
                per_iteration_cycles(*c, n)
            }) / native,
            paper: c.paper_table5().expect("table5 config"),
        })
        .collect();
    let mut t6 = Vec::new();
    for spec in apps::table6_specs(scale) {
        let offline = Some(cell(
            tr,
            "k23.offline",
            &format!("t6 offline {}", spec.name),
            || collect_offline_log(&spec),
        ));
        let label = |c: Config| format!("t6 {} {}", spec.name, c.label());
        let native = cell(tr, "tables.macro", &label(Config::Native), || {
            macro_throughput(&spec, Config::Native, &None)
        });
        let rel = Config::TABLE6
            .iter()
            .map(|c| {
                let log = if c.needs_offline() { &offline } else { &None };
                (
                    c.label(),
                    cell(tr, "tables.macro", &label(*c), || {
                        macro_throughput(&spec, *c, log)
                    }) / native,
                )
            })
            .collect();
        t6.push(MacroRow {
            name: spec.name.clone(),
            native,
            rel,
        });
    }
    let cfg = apps::sqlite_cfg(scale);
    let offline = Some(cell(tr, "k23.offline", "t6 offline sqlite", || {
        collect_offline_log_sqlite(&cfg)
    }));
    let native = cell(tr, "tables.sqlite", "t6 sqlite native", || {
        sqlite_cycles(&cfg, Config::Native, &None)
    });
    let rel = Config::TABLE6
        .iter()
        .map(|c| {
            let log = if c.needs_offline() { &offline } else { &None };
            let cycles = cell(
                tr,
                "tables.sqlite",
                &format!("t6 sqlite {}", c.label()),
                || sqlite_cycles(&cfg, *c, log),
            );
            (c.label(), native as f64 / cycles as f64)
        })
        .collect();
    t6.push(MacroRow {
        name: "sqlite (speedtest1, size 800)".to_string(),
        native: native as f64 / 1e9,
        rel,
    });
    Parts {
        figs,
        t2,
        t3,
        t5,
        t6,
    }
}

/// The text `bench --bin all` prints for these parts.
fn render(p: &Parts, scale: u64) -> String {
    let mut out = String::new();
    for f in &p.figs {
        out.push_str(&format!("{f}\n\n"));
    }
    out.push_str("Table 2 — unique syscall/sysenter sites logged offline\n\n");
    out.push_str(&format!("{}\n\n", render_table2(&p.t2)));
    out.push_str("Table 3 — interposers vs pitfalls\n\n");
    out.push_str(&format!("{}\n\n", render_matrix(&p.t3)));
    out.push_str(&format!(
        "Table 5 — microbenchmark overhead (x{})\n\n",
        micro_iterations(scale)
    ));
    out.push_str(&format!("{}\n\n", render_table5(&p.t5)));
    out.push_str("Table 6 — macrobenchmarks\n\n");
    out.push_str(&render_table6(&p.t6));
    out
}

/// Mean |measured − paper| in percentage points over the Table 5 and
/// Table 6 cells.
fn paper_err_pp(p: &Parts) -> f64 {
    let mut errs: Vec<f64> =
        p.t5.iter()
            .map(|r| (r.overhead - r.paper).abs() * 100.0)
            .collect();
    for (row, (_, paper)) in p.t6.iter().zip(PAPER_TABLE6.iter()) {
        for ((_, rel), want) in row.rel.iter().zip(paper.iter()) {
            errs.push((rel * 100.0 - want).abs());
        }
    }
    errs.iter().sum::<f64>() / errs.len().max(1) as f64
}

/// One timed set-up as a table cell performs it (`bench::macros_`'s
/// world: `boot_kernel` + `apps::install_world`, then a K23 install on
/// that kernel). The pipeline's own set-up runs inside the library's
/// table functions, out of the benchmark's reach, so `setup_s` on this
/// workload is this proxy; its spans are `setup.probe`, not the loader's
/// or interposer's.
fn setup_probe(tr: &mut Tracer) -> f64 {
    let t = CpuTimer::start();
    tr.span("setup.probe", "paper-tables cell", || {
        let mut k = boot_kernel();
        apps::install_world(&mut k.vfs);
        Config::K23Default.make().install(&mut k);
    });
    t.secs()
}

/// One repetition: set-up probes, the whole pipeline, its checks. The
/// probes are the benchmark's own work, so [`crate::run`] leaves them out
/// of the repetition's `wall_s`.
pub fn rep(ctx: &mut Ctx, tr: &mut Tracer) -> Rep {
    let scale = ctx.sizes.tables_scale;
    let mut rep = Rep {
        ops: cells(&ctx.sizes),
        ..Rep::default()
    };
    rep.setup_s = (0..SETUP_PROBES).map(|_| setup_probe(tr)).collect();
    let parts = if tr.enabled() {
        pipeline_cells(scale, tr)
    } else {
        pipeline(scale)
    };
    let text = render(&parts, scale);
    for r in &parts.t2 {
        rep.check(r.measured == r.paper, || {
            format!("Table 2 {}: {} sites, paper {}", r.app, r.measured, r.paper)
        });
    }
    let subjects: Vec<&str> = parts.t3.iter().map(|(s, _)| s.label()).collect();
    rep.check(subjects == ["zpoline", "lazypoline", "K23"], || {
        format!("Table 3 columns {subjects:?}")
    });
    for (i, (pitfall, want)) in PAPER_TABLE3.iter().enumerate() {
        let got: Vec<&str> = parts
            .t3
            .iter()
            .map(|(_, cells)| cells.get(i).map_or("?", |c| c.1.glyph()))
            .collect();
        let label = parts
            .t3
            .first()
            .and_then(|(_, c)| c.get(i))
            .map(|c| c.0.label());
        rep.check(label == Some(*pitfall) && got == *want, || {
            format!("Table 3 {pitfall}: {got:?}, paper {want:?}")
        });
    }
    if ctx.sizes == Sizes::standard() {
        rep.check(text == REFERENCE, || {
            "rendered tables differ from the recorded reference".into()
        });
    }
    rep.paper_err_pp = Some(paper_err_pp(&parts));
    rep.digest = fnv1a(0, text.as_bytes());
    let sites: usize = parts.t2.iter().map(|r| r.measured).sum();
    rep.counts.insert("k23.offline_sites", sites as f64);
    rep
}

/// Per-cell metrics of the traced repetition.
pub fn extras(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let cells: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "tables.cell")
        .map(Span::secs)
        .collect();
    BTreeMap::from([
        ("tables.cells", cells.len() as f64),
        ("tables.cell_s.p50", quantile(&cells, 0.5)),
        ("tables.cell_s.p90", quantile(&cells, 0.9)),
        ("tables.sqlite_s", span::total(spans, "tables.sqlite")),
        ("tables.pitfalls_s", span::total(spans, "tables.pitfalls")),
    ])
}
