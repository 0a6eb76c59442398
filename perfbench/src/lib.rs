//! # perfbench — host-time benchmark of the K23 simulator
//!
//! Four workloads (see `README.md` for why each exists):
//!
//! | workload | what it drives |
//! |---|---|
//! | `syscall-loop` | the Table 5 stress guest under K23-default on the trace engine |
//! | `epoll-10k` | one simscale cell: epollsrv-sim with 10^4 open connections |
//! | `observed-server` | epollsrv-sim at 64 connections with fault, profiler, record and audit sessions plus a `k23+tracer+recorder` stack |
//! | `paper-tables` | the `bench --bin all` pipeline at a fixed scale divisor |
//!
//! A run repeats one workload for a fixed host time and reports medians
//! ([`run`]) of host CPU times scaled to a reference host speed
//! ([`clock`]). Untraced runs produce the end-to-end metrics; a traced run
//! records spans around every public call into a layer ([`span`]) and
//! reports per-layer metrics. Every repetition checks the simulator's
//! outputs and folds them into a `sim_digest`.

pub mod clock;
pub mod heap;
pub mod repro;
pub mod server;
pub mod span;
pub mod syscall_loop;
pub mod tables;

use clock::CpuTimer;
use span::Tracer;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Seed the recorded digests were taken with.
pub const DEFAULT_SEED: u64 = 1;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SyscallLoop,
    Epoll10k,
    ObservedServer,
    PaperTables,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SyscallLoop,
        Workload::Epoll10k,
        Workload::ObservedServer,
        Workload::PaperTables,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SyscallLoop => "syscall-loop",
            Workload::Epoll10k => "epoll-10k",
            Workload::ObservedServer => "observed-server",
            Workload::PaperTables => "paper-tables",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Simulation engine the workload runs on (run manifest).
    pub fn engine(self) -> &'static str {
        match self {
            Workload::SyscallLoop => "trace",
            Workload::PaperTables => "block (library defaults)",
            _ => "block",
        }
    }
}

/// Workload sizes. [`Sizes::standard`] is what the benchmark measures;
/// [`Sizes::tiny`] keeps the smoke test quick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// syscall-loop: iterations of `mov rax, 500; syscall`.
    pub loop_iterations: u64,
    /// epoll-10k: open connections, active window, requests.
    pub epoll_conns: u32,
    pub epoll_active: u32,
    pub epoll_requests: u32,
    /// observed-server: open connections, active window, requests.
    pub observed_conns: u32,
    pub observed_active: u32,
    pub observed_requests: u32,
    /// paper-tables: scale divisor (`K23_BENCH_SCALE` equivalent).
    pub tables_scale: u64,
}

impl Sizes {
    pub const fn standard() -> Sizes {
        Sizes {
            loop_iterations: 500_000,
            epoll_conns: 10_000,
            epoll_active: 64,
            epoll_requests: 500,
            observed_conns: 64,
            observed_active: 16,
            observed_requests: 4_000,
            tables_scale: 100,
        }
    }

    pub const fn tiny() -> Sizes {
        Sizes {
            loop_iterations: 2_000,
            epoll_conns: 200,
            epoll_active: 16,
            epoll_requests: 32,
            observed_conns: 16,
            observed_active: 4,
            observed_requests: 48,
            tables_scale: 1000,
        }
    }

    fn describe(&self, w: Workload) -> String {
        match w {
            Workload::SyscallLoop => format!("iterations={}", self.loop_iterations),
            Workload::Epoll10k => format!(
                "conns={} active={} requests={}",
                self.epoll_conns, self.epoll_active, self.epoll_requests
            ),
            Workload::ObservedServer => format!(
                "conns={} active={} requests={}",
                self.observed_conns, self.observed_active, self.observed_requests
            ),
            Workload::PaperTables => format!("scale={}", self.tables_scale),
        }
    }
}

/// `sim_digest` of one repetition at [`Sizes::standard`]. Only the
/// observed server's simulated outputs depend on the seed (its fault
/// plan); the ASLR slide leaves every syscall-loop output unchanged. A
/// simulator change that only makes the host faster must leave these
/// identical.
pub fn recorded_digest(w: Workload, seed: u64) -> Option<u64> {
    match w {
        Workload::SyscallLoop => Some(0x21dd_a475_7838_0660),
        Workload::Epoll10k => Some(0xf4b8_fe85_742c_2828),
        Workload::ObservedServer if seed == DEFAULT_SEED => Some(0x7a5b_228c_308c_b2d0),
        Workload::ObservedServer => None,
        Workload::PaperTables => Some(0x89ea_08ee_0b18_a1ad),
    }
}

/// End-to-end metrics on the result line of an untraced run (every
/// workload reports each of them).
pub const END_TO_END: [(&str, &str); 3] = [
    ("norm_cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_heap_mb", "MB"),
];

/// Per-layer metrics on the result line of a traced run: the host times
/// every workload in `BENCHMARK.json` measures, and counts. A count a
/// workload does not produce (or, on paper-tables, cannot read from the
/// library's table functions) reads 0.
pub const PER_LAYER: [(&str, &str); 25] = [
    ("k23.offline_s", "s"),
    ("k23.offline_sites", "count"),
    ("interpose.sigsys", "count"),
    ("interpose.fallback_ratio", "ratio"),
    ("kernel.syscalls", "count"),
    ("kernel.signals", "count"),
    ("kernel.sim_cycles", "cycles"),
    ("kernel.ctx_switches", "count"),
    ("cpu.retired", "count"),
    ("cpu.icache_decodes", "count"),
    ("cpu.icache_reuse_rate", "ratio"),
    ("mem.tlb_hit_rate", "ratio"),
    ("mem.tlb_fills", "count"),
    ("obs.events", "count"),
    ("obs.dropped", "count"),
    ("fault.injected", "count"),
    ("fault.retry_syscalls", "count"),
    ("record.recs", "count"),
    ("record.bytes", "bytes"),
    ("audit.coverage_permille", "permille"),
    ("audit.bypassed", "count"),
    ("stack.hits.tracer", "count"),
    ("stack.hits.recorder", "count"),
    ("tables.cells", "count"),
    ("tracing.overhead_ratio", "ratio"),
];

/// Per-layer metrics that some workload in `BENCHMARK.json` does not
/// measure: host times paper-tables cannot take from inside the library's
/// table functions, and the trace-engine counts only syscall-loop has.
/// They are printed in the traced report (`n/a` where not measured) and
/// kept off the result line, where a value that reads 0 on every run of a
/// workload would pass for a measurement.
pub const PER_LAYER_REPORTED: [(&str, &str); 22] = [
    ("loader.world_s", "s"),
    ("loader.boot_s", "s"),
    ("interpose.install_s", "s"),
    ("kernel.run_s", "s"),
    ("cpu.ns_per_inst", "ns"),
    ("kernel.connect_s", "s"),
    ("kernel.load_s", "s"),
    ("kernel.load_us_per_req", "us"),
    ("cpu.trace_forms", "count"),
    ("cpu.trace_entries", "count"),
    ("cpu.trace_side_exit_ratio", "ratio"),
    ("obs.drain_s", "s"),
    ("obs.overhead_ratio", "ratio"),
    ("record.encode_s", "s"),
    ("audit.ledger_s", "s"),
    ("sessions.overhead_s", "s"),
    ("scale.offline_s", "s"),
    ("scale.cell_s", "s"),
    ("tables.cell_s.p50", "s"),
    ("tables.cell_s.p90", "s"),
    ("tables.sqlite_s", "s"),
    ("tables.pitfalls_s", "s"),
];

/// Everything one repetition of a workload measured and checked.
#[derive(Debug, Default, Clone)]
pub struct Rep {
    /// Host CPU seconds for the whole repetition: set-up, simulation,
    /// checks (paper-tables: without its set-up probes).
    pub cpu_s: f64,
    /// Wall seconds for the whole repetition, set-up probes included.
    pub wall_s: f64,
    /// Whether the repetition's host times count toward the end-to-end
    /// metrics (not the heap-counting or the traced repetition).
    pub timed: bool,
    /// Host CPU seconds of each set-up the repetition performed.
    pub setup_s: Vec<f64>,
    /// [`clock::host_speed`] across the repetition (timed repetitions
    /// only): the geometric mean of the speeds measured just before and
    /// just after it. Scaled times are CPU times times this.
    pub host_speed: f64,
    /// Host CPU seconds of the measured simulation (0 for paper-tables).
    pub sim_s: f64,
    /// Σ `Cpu::retired` over the measured guest threads.
    pub retired: u64,
    /// Σ `ProcStats::syscalls` over the measured guest processes.
    pub syscalls: u64,
    /// Digest over every simulated output of the repetition.
    pub digest: u64,
    /// Guest-kernel runs (table cells in paper-tables) attempted/failed.
    pub ops: u64,
    pub ops_failed: u64,
    /// Failed checks, one line each.
    pub failures: Vec<String>,
    /// Mean |measured − paper| over Tables 5 and 6 (paper-tables only).
    pub paper_err_pp: Option<f64>,
    /// Per-layer counts read from public state after the run.
    pub counts: BTreeMap<&'static str, f64>,
    /// Events dropped by any sim-obs ring the workload itself enables.
    pub obs_dropped: u64,
    /// Peak heap growth during the repetition, MB (heap repetition only).
    pub peak_heap_mb: Option<f64>,
    /// Peak resident memory during the repetition, MB.
    pub peak_rss_mb: f64,
}

impl Rep {
    /// Records a failed check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }
}

/// Per-workload state shared by the repetitions of one run.
#[derive(Debug)]
pub struct Ctx {
    pub seed: u64,
    pub sizes: Sizes,
    /// observed-server: the fault-free run's response stream and syscalls.
    pub reference: Option<server::Reference>,
    /// epoll-10k: the last repetition's cell outcome, for the `run_cell` comparison.
    pub cell: Option<server::CellView>,
}

/// The outcome of one benchmark run: the result line plus the report.
#[derive(Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in result-line order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable report lines (printed before the result line).
    pub report: Vec<String>,
    /// Run manifest: host, build, workload and simulator facts.
    pub manifest: Vec<(&'static str, String)>,
    /// Spans of the traced repetition (empty when untraced).
    pub spans: Vec<span::Span>,
    pub sim_digest: u64,
}

impl Outcome {
    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                    json_num(*v)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Manifest, report and spans as one JSON document.
    pub fn file_json(&self, workload: Workload) -> String {
        let manifest: Vec<String> = self
            .manifest
            .iter()
            .map(|(k, v)| format!("\"{k}\": \"{}\"", json_escape(v)))
            .collect();
        let spans: Vec<String> = self
            .spans
            .iter()
            .zip(span::self_times(&self.spans))
            .map(|(s, self_s)| {
                format!(
                    "{{\"id\": {}, \"parent\": {}, \"run\": {}, \"name\": \"{}\", \"label\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_s\": {}}}",
                    s.id,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.run,
                    s.name,
                    json_escape(&s.label),
                    s.start_ns,
                    s.end_ns,
                    json_num(self_s)
                )
            })
            .collect();
        let report: Vec<String> = self
            .report
            .iter()
            .map(|l| format!("\"{}\"", json_escape(l)))
            .collect();
        format!(
            "{{\"workload\": \"{}\", \"manifest\": {{{}}}, \"result\": {}, \"report\": [{}], \"spans\": [{}]}}\n",
            workload.name(),
            manifest.join(", "),
            self.result_json(),
            report.join(", "),
            spans.join(",\n")
        )
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// FNV-1a, the digest the repository's harnesses use.
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    let mut h = if h == 0 { 0xcbf2_9ce4_8422_2325 } else { h };
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Folds a list of integers into a digest.
pub fn fold(h: u64, vals: &[u64]) -> u64 {
    vals.iter().fold(h, |h, v| fnv1a(h, &v.to_le_bytes()))
}

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile of `v` (0 when empty).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    let mut s: Vec<f64> = v.iter().copied().filter(|x| x.is_finite()).collect();
    if s.is_empty() {
        return 0.0;
    }
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// "median m (n=…, pQ q)": the median plus the highest percentile that
/// has at least ten samples beyond it, when there is one.
fn summary(v: &[f64], unit: &str) -> String {
    let n = v.len();
    let mut s = format!("{:.6} {unit} (median of n={n}", median(v));
    if n > 10 {
        let q = ((n - 10) * 100 / n) as f64 / 100.0;
        s.push_str(&format!(", p{:.0} {:.6}", q * 100.0, quantile(v, q)));
    }
    let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    s.push_str(&format!(", min {lo:.6}, max {hi:.6})"));
    s
}

/// Resets the process's peak-RSS mark (`VmHWM`) to its current RSS, so the
/// next [`peak_rss_mb`] reads the peak of what ran since.
fn reset_peak_rss() {
    // Best effort: without the reset the reading covers the whole process.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Counter-derived per-layer metrics of a recorder.
pub fn obs_counts(rec: &sim_obs::Recorder) -> BTreeMap<&'static str, f64> {
    let c = &rec.counters;
    let ratio = |a: u64, b: u64| if b > 0 { a as f64 / b as f64 } else { 0.0 };
    let fetches = c.icache_fresh_hits + c.icache_revalidations + c.icache_decodes;
    BTreeMap::from([
        ("kernel.ctx_switches", c.ctx_switches as f64),
        ("cpu.icache_decodes", c.icache_decodes as f64),
        (
            "cpu.icache_reuse_rate",
            ratio(c.icache_fresh_hits + c.icache_revalidations, fetches),
        ),
        (
            "mem.tlb_hit_rate",
            ratio(c.tlb_hits, c.tlb_hits + c.tlb_fills),
        ),
        ("mem.tlb_fills", c.tlb_fills as f64),
        (
            "obs.events",
            rec.rings.values().map(|r| r.events.len() as f64).sum(),
        ),
        (
            "obs.dropped",
            rec.rings.values().map(|r| r.dropped as f64).sum(),
        ),
    ])
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|kb| kb.parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// One repetition of `w`. `Timing::Heap` counts the heap and takes no
/// end-to-end host times; `Timing::Timed` runs with counting off.
fn rep_once(w: Workload, ctx: &mut Ctx, tr: &mut Tracer, timing: Timing) -> Rep {
    reset_peak_rss();
    if timing == Timing::Heap {
        heap::start();
    }
    let t = Instant::now();
    let cpu = CpuTimer::start();
    let res = catch_unwind(AssertUnwindSafe(|| match w {
        Workload::SyscallLoop => syscall_loop::rep(ctx, tr),
        Workload::Epoll10k => server::epoll_rep(ctx, tr),
        Workload::ObservedServer => server::observed_rep(ctx, tr),
        Workload::PaperTables => tables::rep(ctx, tr),
    }));
    let mut rep = res.unwrap_or_else(|panic| {
        // A panicking repetition may leave tracing state behind.
        let _ = sim_obs::disable();
        tr.close_all();
        let ops = match w {
            Workload::PaperTables => tables::cells(&ctx.sizes),
            _ => 1,
        };
        Rep {
            ops,
            ops_failed: ops,
            failures: vec![format!("panicked: {}", panic_text(&panic))],
            ..Rep::default()
        }
    });
    rep.wall_s = t.elapsed().as_secs_f64();
    rep.cpu_s = cpu.secs();
    if w == Workload::PaperTables {
        // The set-up probes are the benchmark's own work, not the pipeline's.
        rep.cpu_s -= rep.setup_s.iter().sum::<f64>();
    }
    if timing == Timing::Heap {
        rep.peak_heap_mb = Some(heap::stop());
    }
    rep.timed = timing == Timing::Timed;
    rep.peak_rss_mb = peak_rss_mb();
    if !rep.failures.is_empty() {
        rep.ops_failed = rep.ops_failed.max(1);
    }
    rep
}

/// A timed repetition with the host's speed measured around it. `before`
/// holds the speed measured just before and is left holding the one
/// measured just after, for the next repetition.
fn timed_rep(w: Workload, ctx: &mut Ctx, tr: &mut Tracer, before: &mut f64) -> Rep {
    let mut rep = rep_once(w, ctx, tr, Timing::Timed);
    let after = clock::host_speed();
    rep.host_speed = (*before * after).sqrt();
    *before = after;
    rep
}

fn panic_text(p: &Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic".into())
}

/// Fewest timed repetitions a run makes, whatever its time budget.
const MIN_REPS: usize = 2;

/// How a repetition's measurements are used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Timing {
    /// Host times count toward the end-to-end metrics.
    Timed,
    /// Untimed: counts the heap (`peak_heap_mb`).
    Heap,
    /// Untimed: records spans.
    Traced,
}

/// Runs `w` for about `seconds` of host time — one untimed repetition
/// that counts the heap, then at least [`MIN_REPS`] timed ones — and
/// reports medians; with `trace`, runs one untraced and one traced
/// repetition plus the workload's extra passes and reports per-layer
/// metrics instead.
pub fn run(w: Workload, seed: u64, seconds: f64, trace: bool, sizes: Sizes) -> Outcome {
    let mut ctx = Ctx {
        seed,
        sizes,
        reference: None,
        cell: None,
    };
    let mut out = Outcome::default();
    let mut reps: Vec<Rep> = Vec::new();
    let mut reference_ops = 0;
    if w == Workload::ObservedServer {
        reference_ops = 1;
        // The fault-free response stream every repetition is checked against.
        let r = catch_unwind(AssertUnwindSafe(|| server::reference(&ctx)));
        let _ = sim_obs::disable();
        match r {
            Ok(r) => ctx.reference = Some(r),
            Err(p) => {
                reference_ops = 0;
                reps.push(Rep {
                    ops: 1,
                    ops_failed: 1,
                    failures: vec![format!("reference run panicked: {}", panic_text(&p))],
                    ..Rep::default()
                });
            }
        }
    }
    let mut off = Tracer::new(false);
    if trace {
        let mut speed = clock::host_speed();
        reps.push(timed_rep(w, &mut ctx, &mut off, &mut speed));
        let mut tr = Tracer::new(true);
        tr.set_run(1);
        let mut traced = rep_once(w, &mut ctx, &mut tr, Timing::Traced);
        let untraced_wall = reps.last().map_or(0.0, |r| r.wall_s);
        let layers = per_layer(w, &mut ctx, &mut tr, &mut traced, untraced_wall, &mut out);
        out.spans = tr.spans().to_vec();
        traced.failures.extend(span::nesting_errors(&out.spans));
        reps.push(traced);
        for (name, unit) in PER_LAYER {
            out.metrics
                .push((name, layers.get(name).copied().unwrap_or(0.0), unit));
        }
        out.report.push(format!(
            "per-layer metrics ({}, traced repetition):",
            w.name()
        ));
        for (name, unit) in PER_LAYER.iter().chain(PER_LAYER_REPORTED.iter()) {
            match layers.get(name) {
                Some(v) => out.report.push(format!("  {name:<28} {v:>16.6} {unit}")),
                None => out
                    .report
                    .push(format!("  {name:<28} {:>16} {unit}", "n/a")),
            }
        }
        out.report
            .push("self time by span (total s, self s, count):".into());
        for (name, (tot, own, n)) in span::by_name(&out.spans) {
            out.report
                .push(format!("  {name:<28} {tot:>12.6} {own:>12.6} {n:>6}"));
        }
    } else {
        let start = Instant::now();
        reps.push(rep_once(w, &mut ctx, &mut off, Timing::Heap));
        let mut speed = clock::host_speed();
        // Wall seconds of each timed repetition plus its speed measurement.
        let mut rounds = Vec::new();
        loop {
            let t = Instant::now();
            off.set_run(reps.len() as u32);
            reps.push(timed_rep(w, &mut ctx, &mut off, &mut speed));
            rounds.push(t.elapsed().as_secs_f64());
            let projected = start.elapsed().as_secs_f64() + median(&rounds);
            if rounds.len() >= MIN_REPS && projected > seconds {
                break;
            }
        }
    }
    finish(w, &ctx, trace, &reps, reference_ops, &mut out);
    out
}

/// Per-layer metrics of the traced repetition `traced`: span times, the
/// counts it read from public state, and the workload's extra passes.
fn per_layer(
    w: Workload,
    ctx: &mut Ctx,
    tr: &mut Tracer,
    traced: &mut Rep,
    untraced_wall: f64,
    out: &mut Outcome,
) -> BTreeMap<&'static str, f64> {
    let mut m: BTreeMap<&'static str, f64> = traced.counts.clone();
    let spans = tr.spans().to_vec();
    m.insert(
        "k23.offline_s",
        span::total(&spans, "k23.offline") + span::total(&spans, "scale.offline"),
    );
    m.insert(
        "tracing.overhead_ratio",
        if untraced_wall > 0.0 {
            traced.wall_s / untraced_wall
        } else {
            0.0
        },
    );
    out.report.push(format!(
        "tracing overhead: traced repetition {:.6} s vs untraced {:.6} s",
        traced.wall_s, untraced_wall
    ));
    if w != Workload::PaperTables {
        m.insert("loader.world_s", span::total(&spans, "loader.world"));
        m.insert("loader.boot_s", span::total(&spans, "loader.boot"));
        m.insert(
            "interpose.install_s",
            span::total(&spans, "interpose.install"),
        );
        let run_s = span::total(&spans, "kernel.run");
        m.insert("kernel.run_s", run_s);
        if traced.retired > 0 {
            m.insert("cpu.ns_per_inst", run_s * 1e9 / traced.retired as f64);
        }
    }
    if matches!(w, Workload::Epoll10k | Workload::ObservedServer) {
        m.insert("obs.drain_s", span::total(&spans, "obs.drain"));
        m.insert("scale.offline_s", span::total(&spans, "scale.offline"));
    }
    if w == Workload::ObservedServer {
        m.insert("record.encode_s", span::total(&spans, "record.encode"));
        m.insert("audit.ledger_s", span::total(&spans, "audit.ledger"));
    }
    if traced.syscalls > 0 {
        m.insert(
            "interpose.fallback_ratio",
            traced.count("interpose.sigsys") / traced.syscalls as f64,
        );
    }
    if !traced.failures.is_empty() {
        return m;
    }
    let extra = catch_unwind(AssertUnwindSafe(|| match w {
        Workload::SyscallLoop => syscall_loop::extras(ctx, traced, &spans),
        Workload::Epoll10k => server::epoll_extras(ctx, tr),
        Workload::ObservedServer => server::observed_extras(ctx, traced, &spans),
        Workload::PaperTables => tables::extras(&spans),
    }));
    match extra {
        Ok(extra) => m.extend(extra),
        Err(p) => {
            let _ = sim_obs::disable();
            tr.close_all();
            traced.ops_failed += 1;
            traced
                .failures
                .push(format!("extra pass panicked: {}", panic_text(&p)));
        }
    }
    m
}

/// Folds the repetitions into the outcome; `extra_ops` counts guest runs
/// made outside them (observed-server's fault-free reference).
fn finish(w: Workload, ctx: &Ctx, trace: bool, reps: &[Rep], extra_ops: u64, out: &mut Outcome) {
    let mut failures: Vec<String> = reps.iter().flat_map(|r| r.failures.clone()).collect();
    let measured: Vec<&Rep> = reps
        .iter()
        .filter(|r| r.failures.is_empty() && r.ops > 0)
        .collect();
    let digests: Vec<u64> = measured.iter().map(|r| r.digest).collect();
    let digest = digests.first().copied().unwrap_or(0);
    if digests.iter().any(|d| *d != digest) {
        failures.push("sim_digest differs between repetitions of one seed".into());
    }
    if ctx.sizes == Sizes::standard() {
        if let Some(want) = recorded_digest(w, ctx.seed) {
            if digest != want {
                failures.push(format!(
                    "sim_digest {digest:#018x} != recorded {want:#018x}"
                ));
            }
        }
    }
    out.sim_digest = digest;
    out.attempted = reps.iter().map(|r| r.ops).sum::<u64>() + extra_ops;
    out.failed = reps.iter().map(|r| r.ops_failed).sum();
    if out.failed == 0 && !failures.is_empty() {
        out.failed = 1;
    }
    out.correct = failures.is_empty() && out.failed == 0;

    let timed: Vec<&Rep> = measured.iter().copied().filter(|r| r.timed).collect();
    let scaled: Vec<f64> = timed.iter().map(|r| r.cpu_s * r.host_speed).collect();
    let cpus: Vec<f64> = timed.iter().map(|r| r.cpu_s).collect();
    let walls: Vec<f64> = timed.iter().map(|r| r.wall_s).collect();
    let speeds: Vec<f64> = timed.iter().map(|r| r.host_speed).collect();
    let setups: Vec<f64> = timed
        .iter()
        .flat_map(|r| r.setup_s.iter().map(|s| s * r.host_speed))
        .collect();
    let mips: Vec<f64> = timed
        .iter()
        .filter(|r| r.sim_s > 0.0)
        .map(|r| r.retired as f64 / r.sim_s / 1e6)
        .collect();
    let us_per_sys: Vec<f64> = timed
        .iter()
        .filter(|r| r.syscalls > 0)
        .map(|r| r.sim_s * 1e6 / r.syscalls as f64)
        .collect();
    let heap: Vec<f64> = measured.iter().filter_map(|r| r.peak_heap_mb).collect();
    // Resident memory also depends on what earlier repetitions left in the
    // allocator; the first repetition's is one workload run in a fresh
    // process.
    let rss_each: Vec<f64> = measured.iter().map(|r| r.peak_rss_mb).collect();
    let rss = rss_each.first().copied().unwrap_or(0.0);
    let mut head = vec![format!(
        "perfbench {} seed={} trace={} ({})",
        w.name(),
        ctx.seed,
        u8::from(trace),
        ctx.sizes.describe(w)
    )];
    head.push(format!("norm_cpu_s          = {}", summary(&scaled, "s")));
    head.push(format!("setup_s             = {}", summary(&setups, "s")));
    head.push(format!("cpu_s               = {}", summary(&cpus, "s")));
    head.push(format!("wall_s              = {}", summary(&walls, "s")));
    head.push(format!("host_speed          = {}", summary(&speeds, "x")));
    if !mips.is_empty() && w != Workload::PaperTables {
        head.push(format!(
            "sim_mips            = {}",
            summary(&mips, "Minst/s")
        ));
        head.push(format!(
            "host_us_per_syscall = {}",
            summary(&us_per_sys, "us")
        ));
    }
    let err = measured.iter().find_map(|r| r.paper_err_pp);
    if let Some(e) = err {
        head.push(format!(
            "paper_err_pp        = {e:.6} pp (simulated; Tables 5 and 6)"
        ));
    }
    head.push(match heap.first() {
        Some(mb) => format!("peak_heap_mb        = {mb:.6} MB (heap repetition, untimed)"),
        None => "peak_heap_mb        = n/a (untraced runs only)".into(),
    });
    head.push(format!(
        "peak_rss_mb         = {rss:.3} MB (first repetition)"
    ));
    let each = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    head.push(format!("repetition norm_cpu_s: {}", each(&scaled)));
    head.push(format!("repetition cpu_s    : {}", each(&cpus)));
    head.push(format!("repetition wall_s   : {}", each(&walls)));
    if let Some(r) = measured.iter().find(|r| r.peak_heap_mb.is_some()) {
        head.push(format!(
            "heap repetition     : cpu_s {:.4}, wall_s {:.4} with heap counting on",
            r.cpu_s, r.wall_s
        ));
    }
    head.push(format!("ops                 = {}", out.attempted));
    head.push(format!("ops_failed          = {}", out.failed));
    head.push(format!("sim_digest          = {digest:#018x}"));
    for f in &failures {
        head.push(format!("CHECK FAILED: {f}"));
    }
    if !trace {
        let [norm, setup, peak] = END_TO_END;
        out.metrics = vec![
            (norm.0, median(&scaled), norm.1),
            (setup.0, median(&setups), setup.1),
            (peak.0, median(&heap), peak.1),
        ];
    }
    let drops: u64 = reps.iter().map(|r| r.obs_dropped).sum();
    out.manifest = vec![
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("cpu_model", cpu_model()),
        ("rustc", env!("PERFBENCH_RUSTC").to_string()),
        ("git_rev", env!("PERFBENCH_GIT_REV").to_string()),
        ("workload", w.name().to_string()),
        ("seed", ctx.seed.to_string()),
        ("sizes", ctx.sizes.describe(w)),
        ("engine", w.engine().to_string()),
        ("repetitions", reps.len().to_string()),
        ("obs_dropped", drops.to_string()),
        ("sim_digest", format!("{digest:#018x}")),
    ];
    let manifest: Vec<String> = out
        .manifest
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    head.push(format!("manifest: {}", manifest.join("; ")));
    head.append(&mut out.report);
    out.report = head;
}
