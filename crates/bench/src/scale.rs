//! The simscale matrix: Table 6 taken to production traffic shapes.
//!
//! Sweeps the two connection-scale servers (`epollsrv-sim`, the
//! readiness-multiplexed variant, and `pollsrv-sim`, the busy-polling
//! strawman) over connection counts spanning 10^2–10^4 under every
//! Table 6 interposer, measuring absolute throughput and response-latency
//! percentiles. Independent cells run as independent guest kernels on
//! parallel host threads ([`ParallelRunner`]); because every kernel is
//! self-contained and every metric is a pure function of simulated state,
//! the output is byte-identical for any host thread count — the merge of
//! the per-kernel event streams is ordered by `(sim clock, cell, seq)`,
//! never by host completion order (DESIGN.md §14).

use crate::cli::{self, world};
use crate::Config;
use apps::{run_scale, scale_spec, MacroSpec};
use k23::OfflineSession;
use sim_kernel::RunExit;
use sim_loader::boot_kernel_from;
use sim_obs::{EventKind, ObsConfig};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Mutex;

/// Cycle budget per cell.
pub const BUDGET: u64 = 40_000_000_000_000;

/// Per-CPU event-ring capacity for cell runs. Large enough to keep the
/// load generator's full stream (latency spans come from it); the busy
/// polling server's ring saturates and counts drops deterministically.
const RING_CAP: usize = 1 << 18;

/// Per-cell cap on events contributing to the cross-kernel merged
/// stream (bounds harness memory; the per-cell digest still covers every
/// recorded event).
const MERGE_SAMPLE: usize = 1 << 13;

/// Chunk length for the offline-log collection loop (the busy-polling
/// server never parks, so the offline phase is driven in fixed chunks
/// exactly like [`apps::run_scale`]).
const CHUNK: u64 = 2_000_000;

/// Server variant under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// epollsrv-sim: readiness multiplexing, O(ready) per wakeup.
    Epoll,
    /// pollsrv-sim: nonblocking busy-scan, O(connections) per pass.
    Poll,
}

impl Variant {
    /// Stable display / JSON label.
    pub fn label(self) -> &'static str {
        match self {
            Variant::Epoll => "epoll",
            Variant::Poll => "poll",
        }
    }
}

/// Workload shape shared by every cell of one matrix.
#[derive(Debug, Clone, Copy)]
pub struct ScaleParams {
    /// Requests issued per cell (the measured load phase).
    pub requests: u32,
    /// Active-window size: requests round-robin over this many of the
    /// open connections; the rest stay idle, which is what separates
    /// readiness multiplexing from busy polling.
    pub active: u32,
    /// Response size in 64-byte units.
    pub resp64: u8,
    /// Per-request server-side work knob.
    pub server_work: u8,
    /// Server worker processes (prefork).
    pub workers: u8,
}

/// One matrix cell: a (server variant, connection count, interposer)
/// triple.
#[derive(Debug, Clone, Copy)]
pub struct ScaleCell {
    pub variant: Variant,
    pub conns: u32,
    pub config: Config,
}

/// Measured result of one cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    pub variant: Variant,
    pub conns: u32,
    pub config: Config,
    /// Requests completed.
    pub requests: u64,
    /// Load-phase cycles (guest-stamped, cycle-exact).
    pub cycles: u64,
    /// Requests per Gcycle.
    pub throughput: f64,
    /// Response-latency percentiles in cycles (client read-park spans).
    pub p50: u64,
    pub p99: u64,
    pub p999: u64,
    /// Events recorded / dropped across the cell's rings.
    pub events: u64,
    pub dropped: u64,
    /// FNV-1a digest over every recorded event of this cell's kernel.
    pub digest: u64,
    /// Bounded event sample for the cross-kernel merge:
    /// `(clock, seq, event hash)`.
    sample: Vec<(u64, u64, u64)>,
}

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    let mut h = if h == 0 { 0xcbf2_9ce4_8422_2325 } else { h };
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn event_hash(ev: &sim_obs::Event) -> u64 {
    let mut h = fnv1a(0, &ev.clock.to_le_bytes());
    h = fnv1a(h, &ev.pid.to_le_bytes());
    h = fnv1a(h, &ev.tid.to_le_bytes());
    h = fnv1a(h, &ev.seq.to_le_bytes());
    fnv1a(h, format!("{:?}", ev.kind).as_bytes())
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn spec_for(cell: &ScaleCell, params: &ScaleParams) -> MacroSpec {
    scale_spec(
        cell.variant == Variant::Epoll,
        params.workers,
        cell.conns,
        params.active.min(cell.conns),
        params.requests,
        params.resp64,
        params.server_work,
        false,
    )
}

/// Offline site log for a scale-server variant, collected with the same
/// chunked drive as the measurement runs (the busy-polling server never
/// parks, so [`crate::macros_::collect_offline_log`]'s park-in-accept
/// assumption does not hold here). A small connection count suffices:
/// the log records syscall *sites*, which don't grow with load.
pub fn collect_offline_log_scale(variant: Variant, params: &ScaleParams) -> (String, Vec<u8>) {
    let cell = ScaleCell {
        variant,
        conns: 32,
        config: Config::Native,
    };
    let mut params = *params;
    params.requests = params.requests.min(64);
    let spec = spec_for(&cell, &params);
    let mut k = boot_kernel_from(world());
    apps::install_spec_config(&mut k, &spec);
    let ready = if variant == Variant::Epoll {
        "/data/epollsrv.ready"
    } else {
        "/data/pollsrv.ready"
    };
    let session = OfflineSession::new(&mut k, spec.server);
    session
        .spawn(&mut k, &[spec.server.to_string()], &[])
        .expect("offline server spawn");
    let mut spent = 0u64;
    while !k.vfs.exists(ready) {
        assert_ne!(k.run(CHUNK), RunExit::AllExited, "offline server exited early");
        spent += CHUNK;
        assert!(spent < BUDGET, "offline server never became ready");
    }
    let cpid = k
        .spawn(spec.client, &[spec.client.to_string()], &[], None)
        .expect("offline client spawn");
    loop {
        let exit = k.run(CHUNK);
        let done = k
            .process(cpid)
            .map(|p| p.exit_status.is_some())
            .unwrap_or(true);
        if done {
            break;
        }
        assert!(
            !matches!(exit, RunExit::Deadlock | RunExit::AllExited),
            "offline load wedged"
        );
        spent += CHUNK;
        assert!(spent < BUDGET, "offline load never finished");
    }
    session.finish(&mut k);
    let path = k23::SiteLog::path_for(spec.server);
    let bytes = k.vfs.read_file(&path).expect("offline log written").to_vec();
    (path, bytes)
}

/// Runs one cell on a fresh kernel and extracts its metrics. Pure with
/// respect to the host: everything returned derives from simulated state.
pub fn run_cell(
    cell: &ScaleCell,
    params: &ScaleParams,
    logs: &BTreeMap<&'static str, (String, Vec<u8>)>,
) -> CellResult {
    let spec = spec_for(cell, params);
    let mut k = boot_kernel_from(world());
    let log = cell.config.needs_offline().then(|| {
        logs.get(cell.variant.label())
            .expect("offline log collected for variant")
    });
    cli::install_log(&mut k, log);
    let ip = cell.config.make();
    sim_obs::enable(ObsConfig {
        ring_capacity: RING_CAP,
        ..ObsConfig::default()
    });
    let run = run_scale(&mut k, ip.as_ref(), &spec, BUDGET).unwrap_or_else(|e| {
        panic!(
            "{} c={} under {}: {e:?}",
            cell.variant.label(),
            cell.conns,
            cell.config.label()
        )
    });
    let rec = sim_obs::disable().expect("recorder active");
    // Response latency: the client's sockets are blocking, so each
    // response-read's own latency is the request's server turnaround.
    // Only load-phase reads count (the config read happens before t0).
    let mut lat: Vec<u64> = Vec::new();
    let mut events = 0u64;
    let mut dropped = 0u64;
    let mut digest = 0u64;
    let mut sample: Vec<(u64, u64, u64)> = Vec::new();
    for ((pid, _tid), ring) in &rec.rings {
        events += ring.events.len() as u64;
        dropped += ring.dropped;
        for ev in &ring.events {
            let h = event_hash(ev);
            digest = fnv1a(digest, &h.to_le_bytes());
            if sample.len() < MERGE_SAMPLE {
                sample.push((ev.clock, ev.seq, h));
            }
            if *pid == run.client && ev.clock >= run.t0 {
                if let EventKind::SyscallExit { name: "read", ret, latency, .. } = ev.kind {
                    if (ret as i64) > 0 {
                        lat.push(latency);
                    }
                }
            }
        }
    }
    lat.sort_unstable();
    CellResult {
        variant: cell.variant,
        conns: cell.conns,
        config: cell.config,
        requests: run.requests,
        cycles: run.t1 - run.t0,
        throughput: run.throughput(),
        p50: percentile(&lat, 0.50),
        p99: percentile(&lat, 0.99),
        p999: percentile(&lat, 0.999),
        events,
        dropped,
        digest,
        sample,
    }
}

/// Runs independent guest kernels on parallel host threads.
///
/// Each worker pulls a cell index off a shared queue, builds that cell's
/// kernel *inside its own thread* (a `Kernel` is `!Send`), runs it with a
/// thread-local recorder, and deposits the result at the cell's index.
/// Results are therefore ordered by cell index and every contained value
/// is a function of simulated state only — the matrix is byte-identical
/// for any `threads`.
#[derive(Debug, Clone, Copy)]
pub struct ParallelRunner {
    /// Host worker threads (clamped to at least 1).
    pub threads: usize,
}

impl ParallelRunner {
    /// Runs every cell; panics if any cell fails or wedges.
    pub fn run(
        &self,
        cells: &[ScaleCell],
        params: &ScaleParams,
        logs: &BTreeMap<&'static str, (String, Vec<u8>)>,
    ) -> Vec<CellResult> {
        let queue: Mutex<VecDeque<usize>> = Mutex::new((0..cells.len()).collect());
        let results: Mutex<Vec<Option<CellResult>>> = Mutex::new(vec![None; cells.len()]);
        let workers = self.threads.max(1).min(cells.len().max(1));
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let idx = match queue.lock().expect("queue").pop_front() {
                        Some(i) => i,
                        None => break,
                    };
                    let res = run_cell(&cells[idx], params, logs);
                    results.lock().expect("results")[idx] = Some(res);
                });
            }
        });
        results
            .into_inner()
            .expect("results")
            .into_iter()
            .map(|r| r.expect("every cell ran"))
            .collect()
    }
}

/// The full matrix result: per-cell rows plus the deterministic merge of
/// all per-kernel event streams.
#[derive(Debug, Clone)]
pub struct ScaleMatrix {
    pub params: ScaleParams,
    pub conn_counts: Vec<u32>,
    pub results: Vec<CellResult>,
    /// FNV-1a over the cross-kernel merged event sample, ordered by
    /// `(sim clock, cell index, seq)` — host thread timing can't reach it.
    pub merged_digest: u64,
}

/// Deterministically merges the per-cell event samples: sort by
/// `(clock, cell, seq)` and fold. The sort key is pure simulated state,
/// so any host interleaving yields the same digest.
pub fn merge_digest(results: &[CellResult]) -> u64 {
    let mut merged: Vec<(u64, usize, u64, u64)> = Vec::new();
    for (ci, r) in results.iter().enumerate() {
        for (clock, seq, h) in &r.sample {
            merged.push((*clock, ci, *seq, *h));
        }
    }
    merged.sort_unstable();
    let mut d = 0u64;
    for (clock, ci, seq, h) in merged {
        d = fnv1a(d, &clock.to_le_bytes());
        d = fnv1a(d, &(ci as u64).to_le_bytes());
        d = fnv1a(d, &seq.to_le_bytes());
        d = fnv1a(d, &h.to_le_bytes());
    }
    d
}

/// The committed matrix shape: 10^2 / 10^3 / 10^4 connections, native +
/// every Table 6 interposer, both server variants.
pub fn full_matrix_cells(conn_counts: &[u32]) -> Vec<ScaleCell> {
    let mut cells = Vec::new();
    let mut configs = vec![Config::Native];
    configs.extend(Config::TABLE6);
    for variant in [Variant::Epoll, Variant::Poll] {
        for &conns in conn_counts {
            for &config in &configs {
                cells.push(ScaleCell {
                    variant,
                    conns,
                    config,
                });
            }
        }
    }
    cells
}

/// Default full-matrix parameters, scaled by `K23_BENCH_SCALE`.
pub fn full_params(scale: u64) -> ScaleParams {
    ScaleParams {
        requests: ((4000 / scale.max(1)) as u32).max(64),
        active: 64,
        resp64: 2,
        server_work: 2,
        workers: 1,
    }
}

/// Runs a matrix over `cells` (e.g. [`full_matrix_cells`]): collects the
/// per-variant offline logs once, then fans the cells out over `threads`
/// host workers.
pub fn run_matrix_cells(
    conn_counts: &[u32],
    cells: &[ScaleCell],
    params: &ScaleParams,
    threads: usize,
) -> ScaleMatrix {
    let mut logs: BTreeMap<&'static str, (String, Vec<u8>)> = BTreeMap::new();
    for variant in [Variant::Epoll, Variant::Poll] {
        if cells
            .iter()
            .any(|c| c.variant == variant && c.config.needs_offline())
        {
            logs.insert(variant.label(), collect_offline_log_scale(variant, params));
        }
    }
    let results = ParallelRunner { threads }.run(cells, params, &logs);
    let merged_digest = merge_digest(&results);
    ScaleMatrix {
        params: *params,
        conn_counts: conn_counts.to_vec(),
        results,
        merged_digest,
    }
}

/// Epoll-over-poll throughput speedup for `config` at `conns`, if both
/// cells are present.
pub fn speedup_at(matrix: &[CellResult], config: Config, conns: u32) -> Option<f64> {
    let find = |v: Variant| {
        matrix
            .iter()
            .find(|r| r.variant == v && r.config == config && r.conns == conns)
            .map(|r| r.throughput)
    };
    match (find(Variant::Epoll), find(Variant::Poll)) {
        (Some(e), Some(p)) if p > 0.0 => Some(e / p),
        _ => None,
    }
}

/// Serializes the matrix (sorted keys, deterministic float formatting:
/// byte-identical across runs and host thread counts).
pub fn matrix_json(m: &ScaleMatrix) -> sjson::Value {
    use sjson::Value;
    let rows: Vec<Value> = m
        .results
        .iter()
        .map(|r| {
            Value::object(vec![
                ("variant", Value::Str(r.variant.label().to_string())),
                ("conns", Value::UInt(u64::from(r.conns))),
                ("config", Value::Str(r.config.label().to_string())),
                ("requests", Value::UInt(r.requests)),
                ("cycles", Value::UInt(r.cycles)),
                ("throughput_per_gcycle", Value::Float(r.throughput)),
                ("p50", Value::UInt(r.p50)),
                ("p99", Value::UInt(r.p99)),
                ("p999", Value::UInt(r.p999)),
                ("events", Value::UInt(r.events)),
                ("dropped", Value::UInt(r.dropped)),
                ("digest", Value::Str(format!("{:016x}", r.digest))),
            ])
        })
        .collect();
    let max_conns = m.conn_counts.iter().copied().max().unwrap_or(0);
    let speedups: Vec<Value> = m
        .conn_counts
        .iter()
        .filter_map(|&c| {
            speedup_at(&m.results, Config::K23Default, c).map(|s| {
                Value::object(vec![
                    ("conns", Value::UInt(u64::from(c))),
                    ("epoll_over_poll_k23", Value::Float(s)),
                ])
            })
        })
        .collect();
    Value::object(vec![
        (
            "params",
            Value::object(vec![
                ("requests", Value::UInt(u64::from(m.params.requests))),
                ("active", Value::UInt(u64::from(m.params.active))),
                ("resp64", Value::UInt(u64::from(m.params.resp64))),
                ("server_work", Value::UInt(u64::from(m.params.server_work))),
                ("workers", Value::UInt(u64::from(m.params.workers))),
            ]),
        ),
        (
            "conn_counts",
            Value::Array(
                m.conn_counts
                    .iter()
                    .map(|c| Value::UInt(u64::from(*c)))
                    .collect(),
            ),
        ),
        ("max_conns", Value::UInt(u64::from(max_conns))),
        ("cells", Value::Array(rows)),
        ("speedups", Value::Array(speedups)),
        ("merged_digest", Value::Str(format!("{:016x}", m.merged_digest))),
    ])
}

/// Renders the matrix as an aligned text table (one row per cell).
pub fn render_matrix(m: &ScaleMatrix) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<8}{:>8}{:>18}{:>12}{:>12}{:>10}{:>10}{:>10}\n",
        "server", "conns", "interposer", "thr/Gcyc", "cycles", "p50", "p99", "p999"
    ));
    for r in &m.results {
        out.push_str(&format!(
            "{:<8}{:>8}{:>18}{:>12.1}{:>12}{:>10}{:>10}{:>10}\n",
            r.variant.label(),
            r.conns,
            r.config.label(),
            r.throughput,
            r.cycles,
            r.p50,
            r.p99,
            r.p999
        ));
    }
    let max_conns = m.conn_counts.iter().copied().max().unwrap_or(0);
    for config in [Config::K23Default, Config::K23Ultra, Config::K23UltraPlus] {
        if let Some(s) = speedup_at(&m.results, config, max_conns) {
            out.push_str(&format!(
                "epoll/poll speedup at c={max_conns} under {}: {s:.1}x\n",
                config.label()
            ));
        }
    }
    out.push_str(&format!("merged event digest: {:016x}\n", m.merged_digest));
    out
}

/// Gate checks against a committed `BENCH_scale.json`:
///
/// 1. the committed matrix itself must satisfy the scaling criterion
///    (epoll >= 5x poll at the top connection count under K23), and
/// 2. a fresh epoll-under-K23 run at the smallest committed connection
///    count must reproduce the committed cell's `requests` and `cycles`
///    exactly: both are simulated counts, the same on every host.
///
/// # Errors
///
/// A human-readable description of the first failed check.
pub fn gate(baseline: &sjson::Value) -> Result<String, String> {
    let cells = baseline
        .get("cells")
        .and_then(|c| c.as_array())
        .ok_or("baseline has no cells")?;
    let max_conns = baseline
        .get("max_conns")
        .and_then(|v| v.as_u64())
        .ok_or("baseline has no max_conns")?;
    let lookup = |variant: &str, conns: u64| {
        cells.iter().find(|c| {
            c.get("variant").and_then(|v| v.as_str()) == Some(variant)
                && c.get("config").and_then(|v| v.as_str()) == Some(Config::K23Default.label())
                && c.get("conns").and_then(|v| v.as_u64()) == Some(conns)
        })
    };
    let field = |c: &sjson::Value, k: &str| c.get(k).and_then(|v| v.as_f64());
    let e = lookup("epoll", max_conns)
        .and_then(|c| field(c, "throughput_per_gcycle"))
        .ok_or("baseline missing epoll K23 cell at max conns")?;
    let p = lookup("poll", max_conns)
        .and_then(|c| field(c, "throughput_per_gcycle"))
        .ok_or("baseline missing poll K23 cell at max conns")?;
    if e < 5.0 * p {
        return Err(format!(
            "committed criterion violated: epoll {e:.1} < 5x poll {p:.1} at c={max_conns}"
        ));
    }
    // Re-measure the epoll K23 floor cell at the committed parameters.
    let params = baseline.get("params").ok_or("baseline has no params")?;
    let get = |k: &str| params.get(k).and_then(|v| v.as_u64());
    let committed = ScaleParams {
        requests: get("requests").ok_or("params.requests")? as u32,
        active: get("active").ok_or("params.active")? as u32,
        resp64: get("resp64").ok_or("params.resp64")? as u8,
        server_work: get("server_work").ok_or("params.server_work")? as u8,
        workers: get("workers").ok_or("params.workers")? as u8,
    };
    let min_conns = baseline
        .get("conn_counts")
        .and_then(|v| v.as_array())
        .and_then(|a| a.iter().filter_map(|v| v.as_u64()).min())
        .ok_or("baseline has no conn_counts")?;
    let floor = lookup("epoll", min_conns).ok_or("baseline missing epoll K23 floor cell")?;
    let count = |k: &str| floor.get(k).and_then(|v| v.as_u64());
    let (Some(requests), Some(cycles)) = (count("requests"), count("cycles")) else {
        return Err("epoll K23 floor cell has no requests/cycles".into());
    };
    let cell = ScaleCell {
        variant: Variant::Epoll,
        conns: min_conns as u32,
        config: Config::K23Default,
    };
    let mut logs = BTreeMap::new();
    logs.insert(
        Variant::Epoll.label(),
        collect_offline_log_scale(Variant::Epoll, &committed),
    );
    let fresh = run_cell(&cell, &committed, &logs);
    if (fresh.requests, fresh.cycles) != (requests, cycles) {
        return Err(format!(
            "epoll K23 floor cell at c={min_conns} drifted: {} requests in {} cycles, committed {requests} in {cycles}",
            fresh.requests, fresh.cycles
        ));
    }
    Ok(format!(
        "scale gate ok: criterion {e:.1} >= 5x {p:.1} at c={max_conns}; floor cell {requests} requests in {cycles} cycles, as committed"
    ))
}
