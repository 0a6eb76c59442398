//! The two epollsrv-sim workloads.
//!
//! * `epoll-10k` — one simscale cell: K23-default, 10^4 open connections,
//!   a 64-connection active window, one closed-loop client with one
//!   request in flight, simscale's own obs ring, block engine. Here the
//!   kernel's net/epoll/wait-wake layer does most of the work.
//! * `observed-server` — the same server at 64 connections under the
//!   `k23+tracer+recorder` stack with a seeded fault plan, the profiler,
//!   record and audit sessions and a sim-obs ring, all at once.
//!
//! Both are driven exactly as `apps::run_scale` drives them — fixed
//! 2 M-cycle `Kernel::run` chunks — so the simulated results equal the
//! library's, while the chunk at which the load generator reports
//! [`CONNECTED_MARKER`] splits host time into connect and load phases.

use crate::clock::CpuTimer;
use crate::span::{self, Span, Tracer};
use crate::{fnv1a, fold, obs_counts, Ctx, Rep, Sizes};
use apps::workloads::STATS_LOG;
use apps::{install_spec_config, install_world, scale_spec, MacroSpec, CONNECTED_MARKER, RX_LOG};
use bench::scale::{collect_offline_log_scale, run_cell, ScaleCell, ScaleParams, Variant};
use bench::Config;
use interpose::Interposer;
use sim_fault::{FaultKind, FaultPlan, Rng, SchedPlan, SyscallFault};
use sim_kernel::{nr, EngineConfig, Kernel, Pid, RunExit, Vfs};
use sim_loader::{boot_kernel, boot_kernel_from};
use sim_obs::{ObsConfig, Recorder};
use sim_record::{Header, Rec, Recording};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Cycle budget of one run (simscale's).
const BUDGET: u64 = 40_000_000_000_000;
/// `apps::run_scale`'s chunk length. Chunk boundaries shape the obs
/// event stream, so the measured runs use the library's.
const CHUNK: u64 = 2_000_000;
/// Chunk length of the split pass, fine enough that the chunk in which
/// the connect marker appears holds a small part of either phase.
const SPLIT_CHUNK: u64 = 100_000;
/// simscale's per-CPU ring capacity.
const SCALE_RING: usize = 1 << 18;
/// Profiler sampling period in retired instructions.
const PROFILE_PERIOD: u64 = 1_000;
/// Stack the observed server runs under.
const OBSERVED_STACK: &str = "k23+tracer+recorder";
/// Errno faults the plan draws per injected syscall.
const FAULTS_PER_CALL: u64 = 4;
/// Response size in 64-byte units and per-request server work (simscale's).
const RESP64: u8 = 2;
const SERVER_WORK: u8 = 2;
const READY: &str = "/data/epollsrv.ready";

fn params(active: u32, requests: u32) -> ScaleParams {
    ScaleParams {
        requests,
        active,
        resp64: RESP64,
        server_work: SERVER_WORK,
        workers: 1,
    }
}

fn spec(conns: u32, active: u32, requests: u32, record: bool) -> MacroSpec {
    scale_spec(
        true,
        1,
        conns,
        active,
        requests,
        RESP64,
        SERVER_WORK,
        record,
    )
}

fn world() -> Vfs {
    let mut w = boot_kernel();
    install_world(&mut w.vfs);
    w.vfs
}

fn install_log(k: &mut Kernel, (path, bytes): &(String, Vec<u8>)) {
    k.vfs.mkdir_p(k23::LOG_DIR).expect("log dir creatable");
    k.vfs.write_file(path, bytes).expect("log install");
    k.vfs.set_immutable(k23::LOG_DIR, true).expect("seal");
}

fn obs_on(ring_capacity: usize) {
    sim_obs::enable(ObsConfig {
        ring_capacity,
        micro_events: false,
        audit_events: false,
    });
}

/// Load-phase cycle stamps the load generator wrote (`apps::run_scale`'s
/// source for throughput).
fn load_stamps(k: &Kernel) -> Option<(u64, u64)> {
    let b = k.vfs.read_file(STATS_LOG).ok()?;
    if b.len() < 32 {
        return None;
    }
    let cycles = |b: &[u8]| {
        let sec = u64::from_le_bytes(b[..8].try_into().expect("8 bytes"));
        let nsec = u64::from_le_bytes(b[8..16].try_into().expect("8 bytes"));
        sec * 3_200_000_000 + nsec * 32 / 10
    };
    Some((cycles(&b[..16]), cycles(&b[16..32])))
}

/// Outcome of driving one server run.
struct Served {
    t0: u64,
    t1: u64,
}

/// Runs chunks until the server is ready, spawns the client and runs until
/// it reports every connection open (or exits).
fn connect_phase(
    k: &mut Kernel,
    spec: &MacroSpec,
    spid: Pid,
    step: u64,
    spent: &mut u64,
) -> Result<(Pid, Option<u64>, bool), String> {
    while !k.vfs.exists(READY) {
        match k.run(step) {
            RunExit::Budget => {}
            RunExit::Deadlock if k.vfs.exists(READY) => {}
            RunExit::Deadlock => return Err("server wedged before ready".into()),
            RunExit::AllExited => {
                return Err(format!(
                    "server exited early: {:?}",
                    k.process(spid).and_then(|p| p.exit_status)
                ))
            }
            RunExit::Stop => return Err("record session halted start-up".into()),
        }
        *spent += step;
        if *spent > BUDGET {
            return Err("cycle budget exhausted before ready".into());
        }
    }
    let cpid = k
        .spawn(spec.client, &[spec.client.to_string()], &[], None)
        .map_err(|e| format!("client spawn failed: {e}"))?;
    loop {
        let (t0, done) = chunk(k, cpid, step, spent)?;
        if t0.is_some() || done {
            return Ok((cpid, t0, done));
        }
    }
}

/// One chunk of the client phase: `(clock if the connect marker is now
/// present, client finished)`.
fn chunk(
    k: &mut Kernel,
    cpid: Pid,
    step: u64,
    spent: &mut u64,
) -> Result<(Option<u64>, bool), String> {
    let exit = k.run(step);
    let t0 = k.vfs.exists(CONNECTED_MARKER).then_some(k.clock);
    let done = k.process(cpid).is_none_or(|p| p.exit_status.is_some());
    if done {
        return Ok((t0, true));
    }
    match exit {
        RunExit::Budget => {}
        RunExit::Deadlock | RunExit::AllExited => {
            return Err(format!("system wedged with client unfinished ({exit:?})"))
        }
        RunExit::Stop => return Err("record session halted the load".into()),
    }
    *spent += step;
    if *spent > BUDGET {
        return Err("cycle budget exhausted".into());
    }
    Ok((t0, false))
}

/// Drives a spawned server and its client to completion. With `split`,
/// runs [`SPLIT_CHUNK`] chunks and spans the connect and load phases.
fn drive(
    k: &mut Kernel,
    spec: &MacroSpec,
    spid: Pid,
    tr: &mut Tracer,
    split: bool,
) -> Result<Served, String> {
    let step = if split { SPLIT_CHUNK } else { CHUNK };
    let run = tr.enter("kernel.run", &spec.name);
    let mut spent = 0u64;
    let connect = split.then(|| tr.enter("kernel.connect", ""));
    let phase = connect_phase(k, spec, spid, step, &mut spent);
    if let Some(open) = connect {
        tr.exit(open);
    }
    let load = split.then(|| tr.enter("kernel.load", ""));
    let res = phase.and_then(|(cpid, t0, mut done)| {
        while !done {
            done = chunk(k, cpid, step, &mut spent)?.1;
        }
        let t1 = k.clock;
        let status = k.process(cpid).and_then(|p| p.exit_status);
        if status != Some(0) {
            return Err(format!("client exited {status:?}"));
        }
        let (t0, t1) = load_stamps(k).unwrap_or((t0.unwrap_or(t1), t1));
        Ok(Served { t0, t1 })
    });
    if let Some(open) = load {
        tr.exit(open);
    }
    tr.exit(run);
    res
}

/// Σ over every process of the kernel: (retired, syscalls, sigsys,
/// signals, writes by `exe`).
fn totals(k: &Kernel, exe: &str) -> (u64, u64, u64, u64, u64) {
    let mut t = (0, 0, 0, 0, 0);
    for pid in k.pids() {
        let p = k.process(pid).expect("listed pid exists");
        t.0 += p.threads.iter().map(|th| th.cpu.retired).sum::<u64>();
        t.1 += p.stats.syscalls;
        t.2 += p.stats.sigsys_count;
        t.3 += p.stats.signals;
        if p.exe == exe {
            t.4 += p.stats.syscall_count_of(nr::SYS_WRITE);
        }
    }
    t
}

/// Digest of every recorded obs event, computed as `bench::scale::run_cell`
/// computes its per-cell digest.
fn event_digest(rec: &Recorder) -> u64 {
    let mut digest = 0u64;
    for ring in rec.rings.values() {
        for ev in &ring.events {
            let mut h = fnv1a(0, &ev.clock.to_le_bytes());
            h = fnv1a(h, &ev.pid.to_le_bytes());
            h = fnv1a(h, &ev.tid.to_le_bytes());
            h = fnv1a(h, &ev.seq.to_le_bytes());
            h = fnv1a(h, format!("{:?}", ev.kind).as_bytes());
            digest = fnv1a(digest, &h.to_le_bytes());
        }
    }
    digest
}

fn log_sites(log: &(String, Vec<u8>)) -> f64 {
    log.1
        .split(|b| *b == b'\n')
        .filter(|l| !l.is_empty())
        .count() as f64
}

/// Fills the counts every server run shares.
fn server_counts(rep: &mut Rep, k: &Kernel, exe: &str, log: &(String, Vec<u8>), requests: u32) {
    let (retired, syscalls, sigsys, signals, writes) = totals(k, exe);
    rep.retired = retired;
    rep.syscalls = syscalls;
    rep.check(writes >= u64::from(requests), || {
        format!("server issued {writes} writes for {requests} requests")
    });
    rep.counts.extend([
        ("k23.offline_sites", log_sites(log)),
        ("interpose.sigsys", sigsys as f64),
        ("kernel.syscalls", syscalls as f64),
        ("kernel.signals", signals as f64),
        ("kernel.sim_cycles", k.clock as f64),
        ("cpu.retired", retired as f64),
    ]);
}

/// What `epoll-10k` compares against `bench::scale::run_cell`.
#[derive(Debug, Clone, Copy)]
pub struct CellView {
    pub requests: u64,
    pub cycles: u64,
    pub event_digest: u64,
}

/// One `epoll-10k` repetition.
pub fn epoll_rep(ctx: &mut Ctx, tr: &mut Tracer) -> Rep {
    epoll_run(ctx, tr, false, true)
}

/// One `epoll-10k` run. `split` drives it in [`SPLIT_CHUNK`] chunks and
/// spans the connect and load phases; `obs` turns on simscale's obs ring
/// (off only in the obs-overhead pass).
fn epoll_run(ctx: &mut Ctx, tr: &mut Tracer, split: bool, obs: bool) -> Rep {
    let s = ctx.sizes;
    let spec = spec(s.epoll_conns, s.epoll_active, s.epoll_requests, false);
    let mut rep = Rep {
        ops: 1,
        ..Rep::default()
    };
    let t = CpuTimer::start();
    let open = tr.enter("setup", "epoll-10k");
    let world = tr.span("loader.world", "", world);
    let log = tr.span("scale.offline", "epoll", || {
        collect_offline_log_scale(Variant::Epoll, &params(s.epoll_active, s.epoll_requests))
    });
    let mut k = tr.span("loader.boot", "", || boot_kernel_from(&world));
    install_log(&mut k, &log);
    let ip = Config::K23Default.make();
    if obs {
        obs_on(SCALE_RING);
    }
    tr.span("interpose.install", "install k23", || {
        ip.install(&mut k);
        install_spec_config(&mut k, &spec);
    });
    let spid = tr.span("interpose.install", "spawn server", || {
        ip.spawn(&mut k, spec.server, &[spec.server.to_string()], &[])
    });
    tr.exit(open);
    rep.setup_s.push(t.secs());
    let t = CpuTimer::start();
    let served = match spid {
        Ok(spid) => drive(&mut k, &spec, spid, tr, split),
        Err(e) => Err(format!("server spawn failed: {e}")),
    };
    rep.sim_s = t.secs();
    let rec = obs.then(|| {
        tr.span("obs.drain", "", sim_obs::disable)
            .expect("recorder active")
    });
    let served = match served {
        Ok(s) => s,
        Err(e) => {
            rep.failures.push(e);
            return rep;
        }
    };
    server_counts(&mut rep, &k, spec.server, &log, s.epoll_requests);
    let Some(rec) = rec else {
        return rep;
    };
    let events = event_digest(&rec);
    rep.obs_dropped = rec.rings.values().map(|r| r.dropped).sum();
    rep.counts.extend(obs_counts(&rec));
    rep.digest = fold(
        events,
        &[
            spec.total_requests,
            served.t0,
            served.t1,
            rep.retired,
            rep.syscalls,
            k.clock,
        ],
    );
    if !split {
        ctx.cell = Some(CellView {
            requests: spec.total_requests,
            cycles: served.t1 - served.t0,
            event_digest: events,
        });
    }
    rep
}

/// Host time of the connect and load phases, from a split pass's spans.
fn split_metrics(spans: &[Span], requests: u32) -> [(&'static str, f64); 3] {
    let load = span::total(spans, "kernel.load");
    [
        ("kernel.connect_s", span::total(spans, "kernel.connect")),
        ("kernel.load_s", load),
        (
            "kernel.load_us_per_req",
            load * 1e6 / f64::from(requests.max(1)),
        ),
    ]
}

/// Host time in `Kernel::run` with sim-obs on ÷ with it off.
fn obs_overhead(on: &[Span], off: &[Span]) -> (&'static str, f64) {
    (
        "obs.overhead_ratio",
        span::total(on, "kernel.run") / span::total(off, "kernel.run"),
    )
}

/// `epoll-10k`'s extra passes: the cell split into connect and load
/// phases, the cell without its obs ring (for the obs overhead), and the
/// same cell through `bench::scale::run_cell`, which must reproduce the
/// traced repetition exactly.
pub fn epoll_extras(ctx: &mut Ctx, tr: &mut Tracer) -> BTreeMap<&'static str, f64> {
    let s = ctx.sizes;
    let mut split_tr = Tracer::new(true);
    let split = epoll_run(ctx, &mut split_tr, true, true);
    assert!(
        split.failures.is_empty(),
        "split pass failed: {:?}",
        split.failures
    );
    let mut off_tr = Tracer::new(true);
    let off = epoll_run(ctx, &mut off_tr, false, false);
    assert!(
        off.failures.is_empty(),
        "obs-off pass failed: {:?}",
        off.failures
    );
    let overhead = obs_overhead(tr.spans(), off_tr.spans());
    let p = params(s.epoll_active, s.epoll_requests);
    let logs = BTreeMap::from([("epoll", collect_offline_log_scale(Variant::Epoll, &p))]);
    let cell = ScaleCell {
        variant: Variant::Epoll,
        conns: s.epoll_conns,
        config: Config::K23Default,
    };
    let t = Instant::now();
    let res = tr.span("scale.cell", "epoll K23-default", || {
        run_cell(&cell, &p, &logs)
    });
    let cell_s = t.elapsed().as_secs_f64();
    let mine = ctx.cell.expect("traced repetition ran");
    assert_eq!(
        (res.requests, res.cycles, res.digest),
        (mine.requests, mine.cycles, mine.event_digest),
        "run_cell and the benchmark's chunk loop disagree"
    );
    let mut m = BTreeMap::from(split_metrics(split_tr.spans(), s.epoll_requests));
    m.extend([("scale.cell_s", cell_s), overhead]);
    m
}

/// The observed server's seeded fault plan: EINTR/EAGAIN on read, write,
/// accept and epoll_wait at seeded occurrences, plus a seeded rotation of
/// the runnable list.
pub fn fault_plan(seed: u64, s: &Sizes) -> FaultPlan {
    let mut rng = Rng::new(seed);
    let reqs = u64::from(s.observed_requests);
    let conns = u64::from(s.observed_conns);
    let mut faults = Vec::new();
    for (nr, range) in [
        (nr::SYS_READ, reqs),
        (nr::SYS_WRITE, reqs),
        (nr::SYS_ACCEPT, conns),
        (nr::SYS_EPOLL_WAIT, reqs),
    ] {
        for _ in 0..FAULTS_PER_CALL {
            let occurrence = rng.below(range);
            let kind = if rng.below(2) == 0 {
                FaultKind::Eintr
            } else {
                FaultKind::Eagain
            };
            faults.push(SyscallFault {
                nr,
                occurrence,
                kind,
            });
        }
    }
    faults.sort_by_key(|f| (f.nr, f.occurrence));
    faults.dedup_by_key(|f| (f.nr, f.occurrence));
    FaultPlan {
        syscall_faults: faults,
        sched: Some(SchedPlan {
            rotate_period: 2 + rng.below(7),
            slice_jitter: 0,
        }),
        ..FaultPlan::zero(seed)
    }
}

/// What a run's processes sent, checked against the same seed's
/// fault-free run.
#[derive(Debug, Clone, Default)]
pub struct Stream {
    /// The client's response stream. epollsrv-sim answers every request
    /// from a constant buffer, so comparing it reduces to a length check.
    pub rx: Vec<u8>,
    /// Bytes that successful `write` calls returned, over every process
    /// (from the recording). A retried fault adds no bytes, a re-sent or
    /// lost response does.
    pub written: u64,
}

/// The fault-free run of `observed-server` (same seed, stack and
/// sessions, no fault plan).
#[derive(Debug, Clone)]
pub struct Reference {
    pub stream: Stream,
    pub syscalls: u64,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Observed {
    /// Seeded faults + profiler + record + audit + obs under the stack.
    Faulted,
    /// As `Faulted` without the fault plan.
    FaultFree,
    /// As `Faulted` without sim-obs.
    NoObs,
    /// Plain K23-default: no sessions, no stack, no obs.
    Bare,
}

impl Observed {
    /// The stack and the profiler, record and audit sessions.
    fn sessions(self) -> bool {
        self != Observed::Bare
    }

    fn faults(self) -> bool {
        matches!(self, Observed::Faulted | Observed::NoObs)
    }

    fn obs(self) -> bool {
        matches!(self, Observed::Faulted | Observed::FaultFree)
    }
}

/// The server's process subtree (the clients run natively by methodology,
/// so only the server's tree is audited against the stack's claim).
fn server_tree(k: &Kernel, server: &str) -> BTreeSet<Pid> {
    let mut tree: BTreeSet<Pid> = k
        .pids()
        .into_iter()
        .filter(|p| k.process(*p).is_some_and(|pr| pr.exe == server))
        .collect();
    loop {
        let add: Vec<Pid> = k
            .pids()
            .into_iter()
            .filter(|p| {
                !tree.contains(p) && k.process(*p).is_some_and(|pr| tree.contains(&pr.ppid))
            })
            .collect();
        if add.is_empty() {
            return tree;
        }
        tree.extend(add);
    }
}

/// Chunks run after the client has exited.
const AFTER_EXIT_CHUNKS: usize = 4;

/// Runs up to [`AFTER_EXIT_CHUNKS`] more chunks once the client has exited
/// and returns the `write` calls the server's tree made in them. A server
/// that has answered everything makes none; the known nginx-sim defect
/// under K23 is one that keeps writing after its client is gone.
fn writes_after_exit(k: &mut Kernel, server: &str) -> u64 {
    let writes = |k: &Kernel| -> u64 {
        server_tree(k, server)
            .iter()
            .filter_map(|p| k.process(*p))
            .map(|p| p.stats.syscall_count_of(nr::SYS_WRITE))
            .sum()
    };
    let before = writes(k);
    for _ in 0..AFTER_EXIT_CHUNKS {
        if k.run(CHUNK) != RunExit::Budget {
            break;
        }
    }
    writes(k) - before
}

/// Bytes that successful `write` calls returned in `recs`.
fn written_bytes(recs: &[Rec]) -> u64 {
    recs.iter()
        .map(|r| match r {
            Rec::Syscall { nr, ret, .. } if *nr == nr::SYS_WRITE && (*ret as i64) >= 0 => *ret,
            _ => 0,
        })
        .sum()
}

fn observed_run(ctx: &Ctx, tr: &mut Tracer, mode: Observed, split: bool) -> (Rep, Stream) {
    let s = ctx.sizes;
    let spec = spec(
        s.observed_conns,
        s.observed_active,
        s.observed_requests,
        true,
    );
    let mut rep = Rep {
        ops: 1,
        ..Rep::default()
    };
    let t = CpuTimer::start();
    let open = tr.enter("setup", "observed-server");
    let world = tr.span("loader.world", "", world);
    let log = tr.span("scale.offline", "epoll", || {
        collect_offline_log_scale(
            Variant::Epoll,
            &params(s.observed_active, s.observed_requests),
        )
    });
    let mut k = tr.span("loader.boot", "", || boot_kernel_from(&world));
    install_log(&mut k, &log);
    pitfalls::register_all();
    let stack = if mode.sessions() {
        OBSERVED_STACK
    } else {
        "k23"
    };
    let ip: Box<dyn Interposer> = interpose::by_name_spec(stack).expect("registered stack");
    let plan = fault_plan(ctx.seed, &s);
    if mode.sessions() {
        let mut cfg = EngineConfig::new()
            .profile(PROFILE_PERIOD)
            .record()
            .audit(ip.coverage());
        if mode.faults() {
            cfg = cfg.fault(plan.clone());
        }
        k.configure(cfg);
    }
    if mode.obs() {
        obs_on(SCALE_RING);
    }
    tr.span("interpose.install", stack, || {
        ip.install(&mut k);
        install_spec_config(&mut k, &spec);
    });
    let spid = tr.span("interpose.install", "spawn server", || {
        ip.spawn(&mut k, spec.server, &[spec.server.to_string()], &[])
    });
    tr.exit(open);
    rep.setup_s.push(t.secs());
    let t = CpuTimer::start();
    let served = match spid {
        Ok(spid) => drive(&mut k, &spec, spid, tr, split),
        Err(e) => Err(format!("server spawn failed: {e}")),
    };
    rep.sim_s = t.secs();
    let late_writes = served
        .is_ok()
        .then(|| writes_after_exit(&mut k, spec.server));
    let rec = mode.obs().then(|| {
        tr.span("obs.drain", "", sim_obs::disable)
            .expect("recorder active")
    });
    if let Err(e) = served {
        rep.failures.push(e);
        return (rep, Stream::default());
    }
    let late_writes = late_writes.unwrap_or(0);
    rep.check(late_writes == 0, || {
        format!("server made {late_writes} write calls after the client exited")
    });
    server_counts(&mut rep, &k, spec.server, &log, s.observed_requests);
    let mut stream = Stream {
        rx: k
            .vfs
            .read_file(RX_LOG)
            .map(<[u8]>::to_vec)
            .unwrap_or_default(),
        written: 0,
    };
    let want = spec.total_requests as usize * usize::from(RESP64) * 64;
    rep.check(stream.rx.len() == want, || {
        format!("client received {} bytes, expected {want}", stream.rx.len())
    });
    let mut d = fnv1a(fold(0, &[rep.retired, rep.syscalls, k.clock]), &stream.rx);
    if mode.sessions() {
        let recs = k.take_recording();
        stream.written = written_bytes(&recs);
        let recording = Recording {
            header: Header {
                engine: "block".into(),
                workload: "observed-server".into(),
                seed: ctx.seed,
                fault_plan: mode.faults().then(|| plan.encode()),
                checkpoint_period: 0,
            },
            recs,
            obs: Vec::new(),
        };
        let bytes = tr.span("record.encode", "", || recording.encode());
        let mut ledger = tr
            .span("audit.ledger", "", || k.audit_ledger())
            .expect("audit configured");
        let tree = server_tree(&k, spec.server);
        ledger.per_proc.retain(|pid, _| tree.contains(pid));
        let audit = ledger.totals();
        let coverage = audit.coverage_permille();
        rep.check(coverage == 1000, || {
            format!("audit coverage of the server tree {coverage}‰, expected 1000‰")
        });
        let hit = |l: &str| audit.layer_hits.get(l).copied().unwrap_or(0) as f64;
        rep.counts.extend([
            ("record.recs", recording.recs.len() as f64),
            ("record.bytes", bytes.len() as f64),
            ("audit.coverage_permille", coverage as f64),
            ("audit.bypassed", audit.bypassed_total() as f64),
            ("stack.hits.tracer", hit("tracer")),
            ("stack.hits.recorder", hit("recorder")),
        ]);
        d = fnv1a(d, &bytes);
        d = fold(d, &[audit.total(), coverage]);
    }
    if let Some(rec) = rec {
        rep.obs_dropped = rec.rings.values().map(|r| r.dropped).sum();
        rep.counts.extend(obs_counts(&rec));
        rep.counts
            .insert("fault.injected", rec.counters.faults_errno as f64);
        d = fold(d, &[event_digest(&rec), rec.counters.faults_errno]);
    }
    rep.digest = d;
    (rep, stream)
}

/// Runs the fault-free reference once per benchmark process.
pub fn reference(ctx: &Ctx) -> Reference {
    let (rep, stream) = observed_run(ctx, &mut Tracer::new(false), Observed::FaultFree, false);
    assert!(
        rep.failures.is_empty(),
        "fault-free reference failed: {:?}",
        rep.failures
    );
    Reference {
        stream,
        syscalls: rep.syscalls,
    }
}

/// One `observed-server` repetition; what it sent must equal the
/// fault-free reference's.
pub fn observed_rep(ctx: &mut Ctx, tr: &mut Tracer) -> Rep {
    let (mut rep, stream) = observed_run(ctx, tr, Observed::Faulted, false);
    if rep.failures.is_empty() {
        match &ctx.reference {
            Some(r) => {
                rep.check(stream.rx == r.stream.rx, || {
                    "response stream differs from the fault-free run".into()
                });
                rep.check(stream.written == r.stream.written, || {
                    format!(
                        "successful writes returned {} bytes, fault-free run {}",
                        stream.written, r.stream.written
                    )
                });
            }
            None => rep.failures.push("no fault-free reference".into()),
        }
    }
    rep
}

/// `observed-server`'s extra passes: the repetition split into connect
/// and load phases, the same run without sim-obs (for the obs overhead),
/// and the same seed and spec with no sessions, stack or obs (for the
/// sessions' share of kernel time).
pub fn observed_extras(ctx: &mut Ctx, traced: &Rep, spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let reference = ctx.reference.as_ref().expect("reference ran");
    let pass = |mode: Observed, split: bool, what: &str| {
        let mut tr = Tracer::new(true);
        let (rep, _) = observed_run(ctx, &mut tr, mode, split);
        assert!(rep.failures.is_empty(), "{what} failed: {:?}", rep.failures);
        tr
    };
    let split = pass(Observed::Faulted, true, "split pass");
    let no_obs = pass(Observed::NoObs, false, "obs-off pass");
    let bare = pass(Observed::Bare, false, "bare run");
    let mut m = BTreeMap::from(split_metrics(split.spans(), ctx.sizes.observed_requests));
    m.extend([
        obs_overhead(spans, no_obs.spans()),
        (
            "fault.retry_syscalls",
            traced.syscalls as f64 - reference.syscalls as f64,
        ),
        (
            "sessions.overhead_s",
            span::total(spans, "kernel.run") - span::total(bare.spans(), "kernel.run"),
        ),
    ]);
    m
}
