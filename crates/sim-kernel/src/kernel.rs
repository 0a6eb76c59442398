//! The kernel: scheduler, trap handling, signal delivery, SUD, ptrace stops,
//! and process lifecycle. Syscall implementations live in the private
//! `sys` module.

use crate::config::{Engine, EngineConfig, FaultSession, ProfSession};
use crate::net::Net;
use crate::nr;
use crate::process::{
    Pid, Process, SeccompAction, SigAction, Source, Thread, ThreadState, Tid, Wait,
};
use crate::ptrace_if::{Stop, TraceOpts, Tracer, TracerAction};
use crate::record::RecordSession;
use crate::signal::{self, SigInfo};
use crate::vfs::Vfs;
use sim_cpu::{BlockExit, CostModel, Cpu, FastMap, HookAction, Step, StepEvent};
use sim_fault::{FaultKind, PermFlip};
use sim_record::{Divergence, Rec};
use sim_isa::Reg;
use sim_mem::{AddressSpace, Perms, PAGE_SIZE};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

/// Scheduler slice, in instructions.
const SLICE: u64 = 64;

/// The name of the mapped region containing `site`, through the
/// per-process memo: the linear mapping walk and the name allocation
/// happen once per `(site, mapping generation)`, not once per syscall.
fn region_of<'a>(
    region_cache: &'a mut FastMap<u64, (u64, String)>,
    space: &AddressSpace,
    site: u64,
) -> &'a String {
    let gen = space.generation();
    if !matches!(region_cache.get(&site), Some((g, _)) if *g == gen) {
        let name = space
            .mapping_at(site)
            .map(|m| m.name.clone())
            .unwrap_or_else(|| "?".to_string());
        region_cache.insert(site, (gen, name));
    }
    &region_cache[&site].1
}

/// Folds `count` executions of syscall `nr_` issued from `site` into the
/// process statistics. The one stats fold: [`Kernel::handle_syscall`]
/// counts each syscall here, and the hot slice loop batches runs of
/// identical trivial syscalls and flushes them before anything else can
/// observe the stats.
fn flush_syscall_stats(
    stats: &mut crate::process::ProcStats,
    region_cache: &mut FastMap<u64, (u64, String)>,
    space: &AddressSpace,
    interposer_live: bool,
    nr_: u64,
    site: u64,
    count: u64,
) {
    stats.syscalls += count;
    *stats.per_syscall.entry(nr_).or_insert(0) += count;
    let region = region_of(region_cache, space, site);
    match stats.syscalls_via.get_mut(region.as_str()) {
        Some(c) => *c += count,
        None => {
            stats.syscalls_via.insert(region.clone(), count);
        }
    }
    *stats.per_site.entry(site).or_insert(0) += count;
    if !interposer_live {
        stats.syscalls_before_interposer += count;
    }
}

/// Services a trivial syscall at `site` in place: one whose dispatch is
/// a pure return value with no kernel state touched beyond the
/// statistics (see [`crate::sys::trivial_ret`]). Applies the
/// kernel-entry serialization and the return's register effects and
/// returns the syscall number; returns `None`, with no effect, for any
/// other syscall.
#[inline]
fn serve_trivial(
    cpu: &mut Cpu,
    space: &AddressSpace,
    pid: Pid,
    tid: Tid,
    site: u64,
) -> Option<u64> {
    let nr_ = cpu.get(Reg::Rax);
    let ret = crate::sys::trivial_ret(nr_, pid, tid)?;
    // Kernel entry serializes the instruction stream (coalesced to a
    // stamp compare while nothing in the space was written).
    cpu.serialize(space);
    cpu.syscall_return(site, ret);
    Some(nr_)
}

/// A host function invocable from guest code via an `int3` hostcall site.
pub type HostcallFn = Rc<RefCell<dyn FnMut(&mut Kernel, Pid, Tid)>>;

/// Options passed to the loader at exec time.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecOpts {
    /// Map a vDSO whose fast paths are replaced by real syscalls
    /// (set when an attached tracer requested vDSO disabling, §5.2).
    pub disable_vdso: bool,
    /// Seed for address space layout randomization.
    pub aslr_seed: u64,
}

/// A fully-loaded process image produced by an [`ExecLoader`].
#[derive(Debug, Clone)]
pub struct LoadedImage {
    /// The populated address space.
    pub space: AddressSpace,
    /// Initial instruction pointer (the loader's startup stub).
    pub entry: u64,
    /// Initial stack pointer.
    pub rsp: u64,
    /// Hostcall sites: (registered handler name, guest vaddr of `int3`).
    pub hostcall_sites: Vec<(String, u64)>,
    /// Global symbols: `"region:name"` → vaddr.
    pub symbols: BTreeMap<String, u64>,
    /// Base address of each loaded region (region name → base).
    pub lib_bases: BTreeMap<String, u64>,
    /// Base of the mapped vDSO (0 if absent).
    pub vdso_base: u64,
}

/// Loads executables into address spaces. Implemented by `sim-loader`;
/// defined here so the kernel does not depend on the loader crate.
pub trait ExecLoader {
    /// Builds the image for `path` with the given arguments and environment.
    ///
    /// # Errors
    ///
    /// Returns a negative errno (e.g. `-ENOENT`) on failure.
    fn load(
        &self,
        vfs: &mut Vfs,
        path: &str,
        argv: &[String],
        env: &[String],
        opts: &ExecOpts,
    ) -> Result<LoadedImage, i64>;
}

struct TracerSlot {
    tracer: Rc<RefCell<dyn Tracer>>,
    opts: TraceOpts,
}

/// Why [`Kernel::run`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunExit {
    /// Every process exited.
    AllExited,
    /// Runnable work exists but the cycle budget was exhausted.
    Budget,
    /// No thread can make progress (all blocked with no wake source).
    Deadlock,
    /// The record/replay session halted the run: a
    /// [`Kernel::stop_at_retired`] target was reached or a verifying
    /// replay found a divergence.
    Stop,
}

/// A pending deferred byte write — models the visibility window of a
/// non-atomic multi-byte code rewrite (pitfall P5).
#[derive(Debug, Clone, Copy)]
struct DeferredWrite {
    due: u64,
    pid: Pid,
    addr: u64,
    byte: u8,
}

/// One record of the instruction-level execution trace (see
/// [`Kernel::start_exec_trace`]): which thread stepped, where, what
/// happened, and the global clock after the step was charged. Used by the
/// determinism regression tests to prove the block-based scheduler fast
/// path is cycle- and event-identical to the stepwise engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// Process that executed.
    pub pid: Pid,
    /// Thread that executed.
    pub tid: Tid,
    /// `rip` before the step.
    pub rip: u64,
    /// Global clock after the step's cycles were charged.
    pub clock: u64,
    /// The step's outcome.
    pub event: StepEvent,
}

/// The simulated kernel.
pub struct Kernel {
    /// Cycle cost model.
    pub(crate) cost: CostModel,
    /// Global cycle clock.
    pub clock: u64,
    /// The filesystem.
    pub vfs: Vfs,
    /// Loopback networking state. Crate-private: every channel, backlog
    /// and listener change must pass a wake point, which also marks the
    /// epoll members following it (see `Kernel::mark_readiness`).
    pub(crate) net: Net,
    procs: BTreeMap<Pid, Process>,
    next_pid: Pid,
    next_tid: Tid,
    tracers: HashMap<Pid, TracerSlot>,
    hostcall_impls: HashMap<String, HostcallFn>,
    hostcall_sites: HashMap<(Pid, u64), String>,
    loader: Option<Rc<dyn ExecLoader>>,
    deferred: Vec<DeferredWrite>,
    /// xorshift state behind [`Kernel::next_random`]: `getrandom` bytes
    /// and exec-time ASLR seeds, deterministic from a fixed start value.
    rng_state: u64,
    /// Cycles consumed attributed per thread (wall-clock estimation for
    /// multi-worker workloads); read through [`Kernel::cycles_of`].
    thread_cycles: sim_cpu::FastMap<(Pid, Tid), u64>,
    current: Option<(Pid, Tid)>,
    /// Clock deadline of the current [`Kernel::run`] call; the hot slice
    /// loop checks it so `RunExit::Budget` still fires at the same
    /// granularity as the scheduler loop.
    run_deadline: u64,
    /// Scheduler engine (see [`EngineConfig`]).
    engine: Engine,
    /// The retired-instruction clock every session is positioned on (see
    /// [`Kernel::retired`]).
    retired: u64,
    /// Live fault-injection session, when configured.
    fault: Option<FaultSession>,
    /// Installed interposer stack (composed interposition), when any.
    stack: Option<crate::stack::StackSession>,
    /// Live sampling-profiler session, when configured.
    prof: Option<ProfSession>,
    /// Live record/replay session, when configured.
    record: Option<RecordSession>,
    /// Live coverage-audit session, when configured.
    audit: Option<crate::audit::AuditSession>,
    /// When `Some`, every step is recorded (both scheduler modes).
    exec_trace: Option<Vec<TraceEntry>>,
}

impl Kernel {
    /// A kernel with an empty filesystem and the default cost model.
    pub fn new() -> Kernel {
        Kernel {
            cost: CostModel::DEFAULT,
            clock: 0,
            vfs: Vfs::new(),
            net: Net::default(),
            procs: BTreeMap::new(),
            next_pid: 1,
            next_tid: 1,
            tracers: HashMap::new(),
            hostcall_impls: HashMap::new(),
            hostcall_sites: HashMap::new(),
            loader: None,
            deferred: Vec::new(),
            rng_state: 0x5eed,
            thread_cycles: sim_cpu::FastMap::default(),
            current: None,
            run_deadline: u64::MAX,
            engine: Engine::Block,
            retired: 0,
            fault: None,
            stack: None,
            prof: None,
            record: None,
            audit: None,
            exec_trace: None,
        }
    }

    /// Applies a typed engine configuration: the engine plus fresh
    /// fault, profile, record and audit sessions. The retired-instruction
    /// clock restarts at zero, as do the fault plan's occurrence counters,
    /// so configuring is the replay point.
    pub fn configure(&mut self, cfg: EngineConfig) {
        self.engine = cfg.engine;
        self.retired = 0;
        self.fault = cfg.fault.map(FaultSession::new);
        self.prof = cfg.profile.map(ProfSession::new);
        self.record = cfg.record.map(RecordSession::new);
        self.audit = cfg.audit.map(crate::audit::AuditSession::new);
    }

    /// Guest instructions retired since the last [`Kernel::configure`]
    /// (block steps: a syscall, fault or `int3` step counts as one),
    /// exact under every engine. Fault boundaries, profiler samples and
    /// record keys are all positioned on this clock, so it is the
    /// engine-invariant coordinate recordings are keyed by and the
    /// workload size simprof gates on.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Starts recording an instruction-level execution trace.
    pub fn start_exec_trace(&mut self) {
        self.exec_trace = Some(Vec::new());
    }

    /// Stops tracing and returns the records collected so far.
    pub fn take_exec_trace(&mut self) -> Vec<TraceEntry> {
        self.exec_trace.take().unwrap_or_default()
    }

    /// Installs the exec loader (done once at startup by `sim-loader`).
    pub fn set_loader(&mut self, loader: Rc<dyn ExecLoader>) {
        self.loader = Some(loader);
    }

    /// Registers a named hostcall implementation. Guest images declare
    /// `__host_*` symbols; at exec, matching sites are wired to these
    /// handlers.
    pub fn register_hostcall(
        &mut self,
        name: &str,
        f: impl FnMut(&mut Kernel, Pid, Tid) + 'static,
    ) {
        self.hostcall_impls
            .insert(name.to_string(), Rc::new(RefCell::new(f)));
    }

    // ---- accessors --------------------------------------------------------

    /// The process with `pid`.
    pub fn process(&self, pid: Pid) -> Option<&Process> {
        self.procs.get(&pid)
    }

    /// The process with `pid`, mutably.
    pub fn process_mut(&mut self, pid: Pid) -> Option<&mut Process> {
        self.procs.get_mut(&pid)
    }

    /// The networking state and the process with `pid`, mutably, at once
    /// (epoll evaluates readiness while updating the process's instances).
    pub(crate) fn net_and_process_mut(&mut self, pid: Pid) -> (&Net, Option<&mut Process>) {
        (&self.net, self.procs.get_mut(&pid))
    }

    /// All live pids.
    pub fn pids(&self) -> Vec<Pid> {
        self.procs.keys().copied().collect()
    }

    /// CPU state of `(pid, tid)`, mutably (hostcall/tracer use).
    pub fn cpu_mut(&mut self, pid: Pid, tid: Tid) -> Option<&mut Cpu> {
        self.procs
            .get_mut(&pid)?
            .thread_mut(tid)
            .map(|t| &mut t.cpu)
    }

    /// Charges cycles to the global clock, attributing them to the thread
    /// currently executing (if any).
    pub fn charge(&mut self, cycles: u64) {
        self.clock += cycles;
        if sim_obs::enabled() {
            sim_obs::set_clock(self.clock);
        }
        if let Some(key) = self.current {
            *self.thread_cycles.entry(key).or_insert(0) += cycles;
        }
    }

    /// Cycles attributed to one thread so far.
    pub fn cycles_of(&self, pid: Pid, tid: Tid) -> u64 {
        self.thread_cycles.get(&(pid, tid)).copied().unwrap_or(0)
    }

    /// Deterministic pseudo-random u64 (xorshift) for getrandom/ASLR.
    pub fn next_random(&mut self) -> u64 {
        let mut x = self.rng_state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng_state = x;
        x
    }

    // ---- tracer-side (ptrace) operations ----------------------------------

    /// Attaches a tracer to `pid` (PTRACE_ATTACH / PTRACE_TRACEME).
    pub fn attach_tracer(&mut self, pid: Pid, tracer: Rc<RefCell<dyn Tracer>>, opts: TraceOpts) {
        self.tracers.insert(pid, TracerSlot { tracer, opts });
    }

    /// True if `pid` is currently traced.
    pub fn is_traced(&self, pid: Pid) -> bool {
        self.tracers.contains_key(&pid)
    }

    /// Tracer memory read (charged as one ptrace round trip).
    ///
    /// # Errors
    ///
    /// `Err(())` on unmapped addresses or dead pid (like ptrace's single
    /// `ESRCH`/`EFAULT`-or-nothing contract).
    #[allow(clippy::result_unit_err)]
    pub fn tr_read(&mut self, pid: Pid, addr: u64, len: usize) -> Result<Vec<u8>, ()> {
        self.ptrace_op("ptrace/peek", |k| {
            let p = k.procs.get_mut(&pid).ok_or(())?;
            let mut buf = vec![0u8; len];
            p.space.read_raw(addr, &mut buf).map_err(|_| ())?;
            Ok(buf)
        })
    }

    /// Tracer memory write (`process_vm_writev`-style; charged).
    ///
    /// # Errors
    ///
    /// `Err(())` on unmapped addresses or dead pid.
    #[allow(clippy::result_unit_err)]
    pub fn tr_write(&mut self, pid: Pid, addr: u64, data: &[u8]) -> Result<(), ()> {
        self.ptrace_op("ptrace/poke", |k| {
            let p = k.procs.get_mut(&pid).ok_or(())?;
            p.space.write_raw(addr, data).map_err(|_| ())
        })
    }

    /// Tracer register snapshot (PTRACE_GETREGS; charged).
    pub fn tr_getregs(&mut self, pid: Pid, tid: Tid) -> Option<Cpu> {
        self.ptrace_op("ptrace/regs", |k| {
            k.procs
                .get(&pid)
                .and_then(|p| p.thread(tid))
                .map(|t| t.cpu.clone())
        })
    }

    /// Tracer register write-back (PTRACE_SETREGS; charged).
    pub fn tr_setregs(&mut self, pid: Pid, tid: Tid, cpu: Cpu) {
        self.ptrace_op("ptrace/regs", |k| {
            if let Some(t) = k.procs.get_mut(&pid).and_then(|p| p.thread_mut(tid)) {
                t.cpu = cpu;
            }
        })
    }

    /// Tracer NUL-terminated string read (charged).
    pub fn tr_read_cstr(&mut self, pid: Pid, addr: u64) -> Option<String> {
        self.ptrace_op("ptrace/peek", |k| {
            k.procs
                .get_mut(&pid)
                .and_then(|p| p.space.read_cstr(addr).ok())
        })
    }

    /// One tracer-side ptrace operation: charged as a round trip and
    /// wrapped in the `span` stage. `op` runs inside the span, since the
    /// guest access can emit micro events (TLB fills) that belong to it.
    fn ptrace_op<T>(&mut self, span: &str, op: impl FnOnce(&mut Kernel) -> T) -> T {
        sim_obs::span_enter(self.clock, span);
        self.charge(self.cost.ptrace_op);
        let res = op(self);
        sim_obs::span_exit(self.clock);
        res
    }

    // ---- deferred writes (P5 torn-rewrite modeling) ------------------------

    /// Schedules a single guest byte write to land `delay` cycles from now —
    /// the second half of a non-atomic two-byte rewrite. Until it lands, other
    /// cores can observe (and execute) the torn intermediate state.
    pub fn defer_write_u8(&mut self, pid: Pid, addr: u64, byte: u8, delay: u64) {
        self.deferred.push(DeferredWrite {
            due: self.clock + delay,
            pid,
            addr,
            byte,
        });
    }

    fn flush_due_writes(&mut self) {
        let clock = self.clock;
        let mut rest = Vec::new();
        for w in std::mem::take(&mut self.deferred) {
            if w.due <= clock {
                if let Some(p) = self.procs.get_mut(&w.pid) {
                    let _ = p.space.write_raw(w.addr, &[w.byte]);
                }
            } else {
                rest.push(w);
            }
        }
        self.deferred = rest;
    }

    // ---- process lifecycle -------------------------------------------------

    /// Spawns a new process from `path`, optionally under a tracer attached
    /// *before* the first instruction (the only way to interpose startup
    /// syscalls — paper §5.2).
    ///
    /// # Errors
    ///
    /// Returns `-errno` if the image cannot be loaded.
    pub fn spawn(
        &mut self,
        path: &str,
        argv: &[String],
        env: &[String],
        tracer: Option<(Rc<RefCell<dyn Tracer>>, TraceOpts)>,
    ) -> Result<Pid, i64> {
        let pid = self.next_pid;
        self.next_pid += 1;
        let tid = self.next_tid;
        self.next_tid += 1;
        let proc = Process::new(pid, 0, tid);
        self.procs.insert(pid, proc);
        if let Some((t, opts)) = tracer {
            self.attach_tracer(pid, t, opts);
        }
        match self.exec_into(pid, path, argv.to_vec(), env.to_vec()) {
            Ok(()) => Ok(pid),
            Err(e) => {
                self.procs.remove(&pid);
                self.tracers.remove(&pid);
                Err(e)
            }
        }
    }

    /// Replaces the image of `pid` (the tail of `execve`).
    ///
    /// # Errors
    ///
    /// Returns `-errno` from the loader; the old image is untouched on error.
    pub fn exec_into(
        &mut self,
        pid: Pid,
        path: &str,
        argv: Vec<String>,
        env: Vec<String>,
    ) -> Result<(), i64> {
        let loader = self.loader.clone().ok_or(-nr::ENOENT)?;
        let disable_vdso = self
            .tracers
            .get(&pid)
            .map(|t| t.opts.disable_vdso)
            .unwrap_or(false);
        let aslr_seed = self.next_random();
        let opts = ExecOpts {
            disable_vdso,
            aslr_seed,
        };
        let img = loader.load(&mut self.vfs, path, &argv, &env, &opts)?;
        let exec_mask = self.stack.as_ref().map_or(0, |s| s.exec_mask());

        let (tid, was_live) = {
            let p = self.procs.get_mut(&pid).ok_or(-nr::ENOENT)?;
            let tid = p.threads[0].tid;
            let was_live = p.interposer_live;
            p.exe = path.to_string();
            p.space = img.space;
            p.threads = vec![Thread::new(tid)];
            p.threads[0].cpu.rip = img.entry;
            p.threads[0].cpu.set(Reg::Rsp, img.rsp);
            p.argv = argv;
            p.env = env;
            p.sigactions.clear();
            p.interposer_live = false;
            p.vdso_enabled = !disable_vdso;
            p.vdso_base = img.vdso_base;
            p.symbols = img.symbols;
            p.lib_bases = img.lib_bases;
            p.symcache = None;
            // Stack layers survive exec only if they opted in, and the
            // chain-site resolution is stale either way (the new image may
            // not even carry the base's handler library — the P1a
            // env-clearing gap then leaves the chain inert).
            p.stack_mask &= exec_mask;
            p.chain_sites = None;
            (tid, was_live)
        };
        if let Some(a) = self.audit.as_mut() {
            // P1a: a covered image exec'd away; bypasses now classify as
            // the post-exec gap until the mechanism re-marks itself live.
            a.note_exec(pid, was_live);
        }

        self.hostcall_sites.retain(|(p, _), _| *p != pid);
        for (name, addr) in img.hostcall_sites {
            self.hostcall_sites.insert((pid, addr), name);
        }

        // PTRACE_EVENT_EXEC
        self.tracer_stop(
            pid,
            tid,
            Stop::Exec {
                path: path.to_string(),
            },
            |o| o.trace_exec,
        );
        Ok(())
    }

    // ---- interposer stacks -----------------------------------------------

    /// Installs a composed interposer stack. At most one stack is live per
    /// kernel (it shares the single underlying mechanism slot); installing
    /// replaces any previous session. Processes opt in via
    /// [`Kernel::bind_stack`]; membership then propagates across
    /// fork/execve per the layers' propagation flags.
    pub fn install_stack(&mut self, session: crate::stack::StackSession) {
        self.stack = Some(session);
    }

    /// The installed stack session, if any.
    pub fn stack(&self) -> Option<&crate::stack::StackSession> {
        self.stack.as_ref()
    }

    /// Activates every layer of the installed stack for `pid` (called by
    /// the stack's spawn path, once the base mechanism spawned the
    /// process).
    pub fn bind_stack(&mut self, pid: Pid) {
        let mask = self.stack.as_ref().map_or(0, |s| s.full_mask());
        if let Some(p) = self.procs.get_mut(&pid) {
            p.stack_mask = mask;
        }
    }

    /// True when the chain must intercept this dispatch: a stack is
    /// installed, `pid` has active layers, and `site` passes the
    /// session's filter (resolving and caching the base's forwarding
    /// sites against the process symbol table on first use per image).
    fn chain_applies(&mut self, pid: Pid, site: u64) -> bool {
        let Some(sess) = self.stack.as_ref() else {
            return false;
        };
        if sess.layers.is_empty() {
            return false;
        }
        let filter = sess.filter.clone();
        let Some(p) = self.procs.get_mut(&pid) else {
            return false;
        };
        if p.stack_mask == 0 {
            return false;
        }
        match filter {
            crate::stack::ChainFilter::All => true,
            crate::stack::ChainFilter::Sites(syms) => {
                let key = p.symbols.len();
                if p.chain_sites.as_ref().map(|(k2, _)| *k2) != Some(key) {
                    let mut v: Vec<u64> =
                        syms.iter().filter_map(|s| p.symbols.get(s).copied()).collect();
                    v.sort_unstable();
                    v.dedup();
                    p.chain_sites = Some((key, v));
                }
                p.chain_sites
                    .as_ref()
                    .is_some_and(|(_, v)| v.binary_search(&site).is_ok())
            }
        }
    }

    /// Routes one syscall through the layer chain (see `stack.rs` for the
    /// dispatch contract) and applies whatever the chain's top produced.
    fn chain_dispatch(&mut self, mut ctx: crate::stack::SyscallCtx, injected: Option<FaultKind>, obs: bool) {
        use crate::stack::{Chain, RealOutcome, SysResult};
        let crate::stack::SyscallCtx { pid, tid, nr: nr_, site, .. } = ctx;
        let (layers, order) = {
            let sess = self.stack.as_ref().expect("chain_applies checked");
            let mask = self.procs.get(&pid).map_or(0, |p| p.stack_mask);
            let order: Vec<usize> = (0..sess.layers.len())
                .filter(|i| mask & (1u64 << i) != 0)
                .collect();
            (sess.layers.clone(), order)
        };
        if let Some(a) = self.audit.as_mut() {
            // Per-layer coverage: layers a fork/exec propagation flag
            // stripped from this process show up as `chained` minus their
            // own hit count.
            let names: Vec<String> =
                order.iter().map(|&i| layers[i].name.clone()).collect();
            a.note_chain(pid, &names);
        }
        let mut chain = Chain::new(layers, order, injected, obs);
        let fin = chain.call_next(self, &mut ctx);
        match (chain.real_outcome(), fin) {
            (Some(RealOutcome::Sigreturn), SysResult::Value(_)) => {
                // The composition hazard (nested sigreturn × chained
                // handlers): a layer marshalled "the return value" of a
                // control transfer, so its epilogue runs on the frame the
                // sigreturn below it already abandoned. On hardware the
                // stale return address faults; modeled as a deterministic
                // SIGSEGV kill.
                self.kill_process(pid, 128 + nr::SIGSEGV as i64);
            }
            (Some(RealOutcome::Ret(v)), SysResult::Value(w)) if w != v => {
                // A layer rewrote the result on the way out.
                if let Some(t) = self.procs.get_mut(&pid).and_then(|p| p.thread_mut(tid)) {
                    t.cpu.set(Reg::Rax, w);
                }
            }
            (None, SysResult::Value(w)) => {
                // Short-circuit: no layer dispatched. Skip-syscall
                // semantics, like a tracer's SkipSyscall.
                self.syscall_return(pid, tid, site, nr_, w);
            }
            (None, SysResult::Control) => {
                // Contract violation: no layer dispatched and none
                // produced a value. Fall back to the real dispatch so the
                // guest makes forward progress.
                chain.call_real(self, &mut ctx);
            }
            _ => {}
        }
    }

    /// Marks a process's interposer as live (called by interposer init paths;
    /// feeds the P2b "syscalls before interposition" metric).
    pub fn mark_interposer_live(&mut self, pid: Pid) {
        if let Some(p) = self.procs.get_mut(&pid) {
            p.interposer_live = true;
        }
        if let Some(a) = self.audit.as_mut() {
            a.note_live(pid);
        }
    }

    /// The coverage ledger with vDSO shadows folded in (vDSO calls never
    /// reach the dispatch choke point, so they are merged from each
    /// process's architectural `vdso_calls` counter at report time).
    pub fn audit_ledger(&self) -> Option<crate::audit::AuditLedger> {
        let session = self.audit.as_ref()?;
        let mut ledger = session.ledger.clone();
        for (pid, p) in &self.procs {
            crate::audit::AuditSession::fold_vdso(&mut ledger, *pid, p.stats.vdso_calls);
        }
        Some(ledger)
    }

    /// Terminates a whole process with `status`.
    pub fn kill_process(&mut self, pid: Pid, status: i64) {
        let (ppid, (chans, ports)) = {
            let Some(p) = self.procs.get_mut(&pid) else {
                return;
            };
            if p.exit_status.is_some() {
                return;
            }
            p.exit_status = Some(status);
            for t in &mut p.threads {
                t.state = ThreadState::Exited;
            }
            let refs = p.net_refs();
            p.fds.clear();
            (p.ppid, refs)
        };
        self.record_emit(Rec::Exit {
            retired: self.retired,
            pid,
            status: status as u64,
        });
        for port in ports {
            if let Some(l) = self.net.listeners.get_mut(&port) {
                l.refs = l.refs.saturating_sub(1);
                if l.refs == 0 {
                    self.net.listeners.remove(&port);
                    // Parked connectors retry and observe ECONNREFUSED.
                    self.wake_backlog(port);
                    self.wake_accept(port);
                }
            }
        }
        for (chan, end) in chans {
            self.net.drop_ref(chan, end);
            self.wake_channel(chan);
        }
        if let Some(parent) = self.procs.get_mut(&ppid) {
            parent.zombies.push((pid, status));
            parent.children.retain(|c| *c != pid);
        }
        self.wake_child_waiters(ppid);
        let tid = self
            .procs
            .get(&pid)
            .map(|p| p.threads[0].tid)
            .unwrap_or(0);
        self.tracer_stop(pid, tid, Stop::Exit { status }, |_| true);
        self.tracers.remove(&pid);
    }

    // ---- wakeups -----------------------------------------------------------

    fn wake_where(&mut self, mut pred: impl FnMut(Pid, &Wait) -> bool) {
        for (pid, p) in self.procs.iter_mut() {
            for t in &mut p.threads {
                if let ThreadState::Blocked(w) = t.state {
                    if pred(*pid, &w) {
                        t.state = ThreadState::Runnable;
                    }
                }
            }
        }
    }

    /// Marks, in every process's epoll instances, the members whose
    /// readiness follows `src`: they become candidates of the next wait,
    /// and their edge memory drops the bits the fd no longer has. Called
    /// after every change to a channel, backlog, listener or eventfd
    /// counter, so members outside the candidate sets stay quiet.
    pub(crate) fn mark_readiness(&mut self, src: Source) {
        let net = &self.net;
        for p in self.procs.values_mut() {
            let (fds, eventfds) = (&p.fds, &p.eventfds);
            for ep in p.epolls.values_mut() {
                ep.mark(src, |fd| Kernel::fd_readiness(net, fds, eventfds, fd));
            }
        }
    }

    /// Wakes threads blocked on `chan` (readers and bounded-buffer writers),
    /// plus every `epoll_wait` parker: readiness on the channel may satisfy
    /// an interest set, and parked epoll waiters deterministically recompute
    /// and re-block when it doesn't (cheap spurious wakeups instead of
    /// kernel-side waiter bookkeeping).
    pub fn wake_channel(&mut self, chan: usize) {
        self.mark_readiness(Source::chan(chan));
        self.wake_where(|_, w| {
            matches!(w,
                Wait::ChannelReadable { chan: c, .. } | Wait::ChannelWritable { chan: c, .. }
                    if *c == chan)
                || matches!(w, Wait::Epoll)
        });
    }

    /// Wakes threads blocked accepting on `port` (and epoll waiters, for
    /// listeners registered in an interest set).
    pub fn wake_accept(&mut self, port: u16) {
        self.mark_readiness(Source::port(port));
        self.wake_where(|_, w| {
            matches!(w, Wait::Accept { port: p } if *p == port) || matches!(w, Wait::Epoll)
        });
    }

    /// Wakes connectors parked on a full accept backlog for `port`. Epoll
    /// waiters stay parked, but members watching the port are marked.
    pub fn wake_backlog(&mut self, port: u16) {
        self.mark_readiness(Source::port(port));
        self.wake_where(|_, w| matches!(w, Wait::Backlog { port: p } if *p == port));
    }

    /// Wakes every thread parked in `epoll_wait` (readiness recompute).
    pub fn wake_epoll_waiters(&mut self) {
        self.wake_where(|_, w| matches!(w, Wait::Epoll));
    }

    /// Wakes readers of eventfd `id` (ids are per-process, but cross-process
    /// collisions only cause a harmless deterministic recompute) and epoll
    /// waiters.
    pub fn wake_eventfd(&mut self, id: usize) {
        self.mark_readiness(Source::eventfd(id));
        self.wake_where(|_, w| {
            matches!(w, Wait::EventFd { id: i } if *i == id) || matches!(w, Wait::Epoll)
        });
    }

    /// Wakes `wait4` blockers in process `ppid`.
    pub fn wake_child_waiters(&mut self, ppid: Pid) {
        self.wake_where(|pid, w| pid == ppid && matches!(w, Wait::Child));
    }

    /// Wakes up to `max` futex waiters in `pid` on `addr`; returns the count.
    pub fn wake_futex(&mut self, pid: Pid, addr: u64, max: u64) -> u64 {
        let mut woken = 0;
        if let Some(p) = self.procs.get_mut(&pid) {
            for t in &mut p.threads {
                if woken >= max {
                    break;
                }
                if let ThreadState::Blocked(Wait::Futex { addr: a }) = t.state {
                    if a == addr {
                        t.state = ThreadState::Runnable;
                        woken += 1;
                    }
                }
            }
        }
        woken
    }

    // ---- tracer stop plumbing ----------------------------------------------

    /// Delivers `stop` to the tracer of `pid` if its options match; returns
    /// the action (Continue when untraced). Charges two context switches —
    /// the fundamental ptrace cost (paper §2.1).
    fn tracer_stop(
        &mut self,
        pid: Pid,
        tid: Tid,
        stop: Stop,
        want: impl Fn(&TraceOpts) -> bool,
    ) -> TracerAction {
        let Some(slot) = self.tracers.get(&pid) else {
            return TracerAction::Continue;
        };
        if !want(&slot.opts) {
            return TracerAction::Continue;
        }
        let tracer = slot.tracer.clone();
        let obs = sim_obs::enabled();
        if obs {
            // Whole round-trip span: switch-out, tracer work (nesting its
            // own peek/poke/regs spans), switch back in.
            sim_obs::span_enter(self.clock, &format!("ptrace/stop-{}", stop.kind_name()));
        }
        self.charge(2 * self.cost.context_switch);
        if obs {
            sim_obs::tracer_stop(self.clock, stop.kind_name());
        }
        let action = tracer.borrow_mut().on_stop(self, pid, tid, &stop);
        if obs {
            sim_obs::span_exit(self.clock);
        }
        match action {
            TracerAction::Detach => {
                self.tracers.remove(&pid);
            }
            TracerAction::Kill => {
                self.kill_process(pid, 137);
            }
            _ => {}
        }
        action
    }

    /// Lets host code (interposer frameworks) deliver a synthetic tracer
    /// attach for a child pid (used for TRACEFORK wiring).
    fn maybe_trace_fork(&mut self, parent: Pid, child: Pid, tid: Tid) {
        let Some(slot) = self.tracers.get(&parent) else {
            return;
        };
        if !slot.opts.trace_fork {
            return;
        }
        let (tracer, opts) = (slot.tracer.clone(), slot.opts);
        self.tracers.insert(
            child,
            TracerSlot {
                tracer: tracer.clone(),
                opts,
            },
        );
        self.tracer_stop(parent, tid, Stop::Fork { child }, |o| o.trace_fork);
    }

    // ---- signal delivery ----------------------------------------------------

    /// Delivers `sig` to `(pid, tid)`: pushes a frame and redirects to the
    /// registered handler, or applies the default action (kill).
    pub fn deliver_signal(&mut self, pid: Pid, tid: Tid, info: SigInfo) {
        let cost_sig = self.cost.signal_delivery;
        let Some(p) = self.procs.get_mut(&pid) else {
            return;
        };
        // While a handler registered with SIGACT_MASK_ALL runs,
        // asynchronous signals queue until sigreturn. Synchronous faults
        // (SIGSEGV) and SUD's SIGSYS must deliver immediately: deferring
        // them would decouple them from the instruction that caused them.
        if info.signo != nr::SIGSEGV && info.signo != nr::SIGSYS {
            if let Some(t) = p.thread_mut(tid) {
                if t.frame_masked.iter().any(|m| *m) {
                    t.pending_signals.push(info);
                    return;
                }
            }
        }
        p.stats.signals += 1;
        let Some(SigAction { handler, mask_all }) = p.sigactions.get(&info.signo).copied() else {
            // Default action: terminate.
            let status = 128 + info.signo as i64;
            self.tracer_stop(pid, tid, Stop::FatalSignal { sig: info.signo }, |_| true);
            self.kill_process(pid, status);
            return;
        };
        self.charge(cost_sig);
        let p = self.procs.get_mut(&pid).expect("proc vanished");
        let Process { space, threads, .. } = p;
        let Some(t) = threads.iter_mut().find(|t| t.tid == tid) else {
            return;
        };
        // Signal delivery serializes the core (coalesced when nothing was
        // written since the last serialization point).
        t.cpu.serialize(space);
        let rsp = t.cpu.get(Reg::Rsp);
        let base = (rsp - signal::FRAME_SIZE) & !15;
        let mut frame = vec![0u8; signal::FRAME_SIZE as usize];
        frame[0..8].copy_from_slice(&t.cpu.rip.to_le_bytes());
        frame[8..16].copy_from_slice(&t.cpu.packed_flags().to_le_bytes());
        frame[16..24].copy_from_slice(&(t.cpu.pkru.0 as u64).to_le_bytes());
        for (i, v) in t.cpu.regs.iter().enumerate() {
            let at = (signal::UC_REGS as usize) + 8 * i;
            frame[at..at + 8].copy_from_slice(&v.to_le_bytes());
        }
        frame[signal::SI_SIGNO as usize..signal::SI_SIGNO as usize + 8]
            .copy_from_slice(&info.signo.to_le_bytes());
        frame[signal::SI_SYSCALL as usize..signal::SI_SYSCALL as usize + 8]
            .copy_from_slice(&info.syscall.to_le_bytes());
        frame[signal::SI_CALL_ADDR as usize..signal::SI_CALL_ADDR as usize + 8]
            .copy_from_slice(&info.call_addr.to_le_bytes());
        frame[signal::SI_FAULT_ADDR as usize..signal::SI_FAULT_ADDR as usize + 8]
            .copy_from_slice(&info.fault_addr.to_le_bytes());
        if space.write_raw(base, &frame).is_err() {
            // Unwritable stack: fatal.
            self.kill_process(pid, 128 + nr::SIGSEGV as i64);
            return;
        }
        let t = self
            .procs
            .get_mut(&pid)
            .and_then(|p| p.thread_mut(tid))
            .expect("thread vanished");
        t.sig_frames.push(base);
        t.frame_masked.push(mask_all);
        t.cpu.set(Reg::Rsp, base);
        t.cpu.set(Reg::Rdi, info.signo);
        t.cpu.set(Reg::Rsi, base + signal::SI_SIGNO);
        t.cpu.set(Reg::Rdx, base);
        t.cpu.rip = handler;
    }

    // ---- the run loop --------------------------------------------------------

    /// Runs until every process exits, no progress is possible, or
    /// `max_cycles` have elapsed.
    pub fn run(&mut self, max_cycles: u64) -> RunExit {
        let deadline = self.clock.saturating_add(max_cycles);
        self.run_deadline = deadline;
        // The runnable list is rebuilt every scheduler round (i.e. after
        // every slice-ending event, so typically once per syscall); reuse
        // one buffer across rounds to keep the round allocation-free.
        let mut runnable: Vec<(Pid, Tid)> = Vec::new();
        loop {
            if self.record_stopped() {
                return RunExit::Stop;
            }
            self.flush_due_writes();
            runnable.clear();
            for (pid, p) in &self.procs {
                for t in &p.threads {
                    if t.state == ThreadState::Runnable {
                        runnable.push((*pid, t.tid));
                    }
                }
            }
            if runnable.is_empty() {
                // Advance time to the next sleeper or deferred write.
                let next_sleep = self
                    .procs
                    .values()
                    .flat_map(|p| p.threads.iter())
                    .filter_map(|t| match t.state {
                        ThreadState::Blocked(Wait::Sleep { until }) => Some(until),
                        _ => None,
                    })
                    .min();
                let next_write = self.deferred.iter().map(|w| w.due).min();
                match (next_sleep, next_write) {
                    (None, None) => {
                        return if self.procs.values().all(|p| p.exit_status.is_some()) {
                            RunExit::AllExited
                        } else {
                            RunExit::Deadlock
                        };
                    }
                    (a, b) => {
                        let due = a.unwrap_or(u64::MAX).min(b.unwrap_or(u64::MAX));
                        self.clock = self.clock.max(due);
                        self.wake_where(|_, w| matches!(w, Wait::Sleep { until } if *until <= due));
                        continue;
                    }
                }
            }
            // Adversarial scheduler perturbation: rotate the fair runnable
            // order by a seed-derived amount on plan-chosen rounds. The
            // round number is architectural (one per rebuild), so both
            // engines rotate identically.
            let rotated = if let Some(fs) = self.fault.as_mut() {
                fs.round += 1;
                let rot = fs.plan.sched_rotation(fs.round, runnable.len());
                if rot > 0 {
                    runnable.rotate_left(rot);
                    Some((fs.round, rot as u64, runnable.len() as u64))
                } else {
                    None
                }
            } else {
                None
            };
            // A real scheduler perturbation is nondeterminism worth a log
            // record; unperturbed rounds are derived state and recording
            // them would dwarf the log (one round per syscall).
            if let Some((round, rot, n)) = rotated {
                if let Some(rs) = self.record.as_mut() {
                    rs.sched_rounds += 1;
                    rs.emit(Rec::Sched {
                        retired: self.retired,
                        round,
                        rot,
                        n,
                    });
                }
            }
            for &(pid, tid) in &runnable {
                self.run_slice(pid, tid);
                if self.record_stopped() {
                    return RunExit::Stop;
                }
                if self.clock >= deadline {
                    return RunExit::Budget;
                }
            }
        }
    }

    /// The slice budget for `tid` this round: [`SLICE`], or the fault
    /// plan's adversarial preemption cap when one is active.
    fn effective_slice(&self, tid: Tid) -> u64 {
        match &self.fault {
            Some(fs) => fs
                .plan
                .slice_cap(fs.round, tid)
                .map_or(SLICE, |cap| cap.min(SLICE)),
            None => SLICE,
        }
    }

    /// The nearest retired-instruction boundary any session must stop at:
    /// the fault plan's next event or restore, the profiler's next sample,
    /// or the record session's stop target. The engines cap every budget
    /// to it, so each boundary lands on the identical architectural
    /// instruction under every engine. `None` when no session is live.
    fn next_stop(&self) -> Option<u64> {
        let fault = self
            .fault
            .as_ref()
            .and_then(|fs| fs.next_stop(self.retired));
        let prof = self.prof.as_ref().map(|ps| ps.next);
        let record = self.record.as_ref().and_then(|rs| rs.stop_at);
        [fault, prof, record].into_iter().flatten().min()
    }

    /// Handles the session boundaries due at the current retired count.
    /// The record session's stop target comes first, so a run stopped at
    /// instruction N has not applied the injections due at N. Returns
    /// `true` when the slice must end.
    fn boundary_ends_slice(&mut self, pid: Pid, tid: Tid) -> bool {
        let at = self.retired;
        if let Some(rs) = self.record.as_mut() {
            if rs.stop_at.is_some_and(|s| s <= at) {
                rs.stopped = true;
            }
            if rs.stopped {
                return true;
            }
        }
        let fault_due = self
            .fault
            .as_ref()
            .is_some_and(|fs| fs.next_stop(at).is_some_and(|s| s <= at));
        if fault_due {
            self.apply_fault_boundary(pid, tid);
        }
        fault_due
    }

    /// Advances the retired-instruction clock by `steps` and takes a
    /// profiler sample when a sample boundary is reached. Sampling reads
    /// guest state but never writes it and charges no cycles: the
    /// profiled run's clock stream is identical to the unprofiled one.
    fn retire(&mut self, pid: Pid, tid: Tid, steps: u64) {
        self.retired += steps;
        let Some(ps) = self.prof.as_mut() else {
            return;
        };
        if ps.next > self.retired {
            return;
        }
        while ps.next <= self.retired {
            ps.next += ps.period;
        }
        if sim_obs::enabled() {
            self.take_prof_sample(pid, tid);
        }
    }

    /// Captures one profiler sample: the post-step RIP plus a
    /// conservative return-address scan of the guest stack, symbolized
    /// against the process's image maps.
    fn take_prof_sample(&mut self, pid: Pid, tid: Tid) {
        let clock = self.clock;
        let frames = self.symbolized_stack(pid, tid);
        if frames.is_empty() {
            return;
        }
        sim_obs::profile_sample(clock, &frames);
    }

    /// The symbolized guest stack of `(pid, tid)`: the current RIP plus a
    /// conservative return-address scan (values in the first
    /// `PROF_SCAN_SLOTS` stack slots that point into executable
    /// mappings), resolved through the process's symbol cache. Shared by
    /// the sampling profiler and the replay divergence reporter; reads
    /// guest state but never writes it and charges no cycles. Empty when
    /// the thread is gone.
    pub fn symbolized_stack(&mut self, pid: Pid, tid: Tid) -> Vec<String> {
        const MAX_FRAMES: usize = 16;
        let Some(p) = self.procs.get_mut(&pid) else {
            return Vec::new();
        };
        let Some((rip, rsp)) = p
            .threads
            .iter()
            .find(|t| t.tid == tid)
            .map(|t| (t.cpu.rip, t.cpu.get(Reg::Rsp)))
        else {
            return Vec::new();
        };
        let mut addrs = vec![rip];
        for i in 0..Self::PROF_SCAN_SLOTS {
            if addrs.len() >= MAX_FRAMES {
                break;
            }
            let Some(at) = rsp.checked_add(8 * i) else {
                break;
            };
            let mut b = [0u8; 8];
            if p.space.read_raw(at, &mut b).is_err() {
                break;
            }
            let v = u64::from_le_bytes(b);
            if v != 0 && p.space.mapping_at(v).is_some_and(|m| m.perms.executable()) {
                addrs.push(v);
            }
        }
        p.symbolize_frames(&addrs)
    }

    /// Stack slots scanned per sample by the return-address walker.
    const PROF_SCAN_SLOTS: u64 = 64;

    // ---- record/replay session plumbing ------------------------------------

    /// True when the record session halted the run.
    fn record_stopped(&self) -> bool {
        self.record.as_ref().is_some_and(|rs| rs.stopped)
    }

    /// Records (or verifies) one produced record.
    fn record_emit(&mut self, rec: Rec) {
        if let Some(rs) = self.record.as_mut() {
            rs.emit(rec);
        }
    }

    /// Record bookkeeping at kernel entry: stamps the clock the recorded
    /// service cycles are measured from (skipped for in-kernel restarts,
    /// which resume the original entry).
    fn record_syscall_entry(&mut self, pid: Pid, tid: Tid, restarting: bool) {
        let clock = self.clock;
        if let Some(rs) = self.record.as_mut() {
            if !restarting {
                rs.entry_clock.insert((pid, tid), clock);
            }
        }
    }

    /// Record bookkeeping at syscall completion (`Disp::Ret` /
    /// `RetThenBlock`): captures (record) or verifies (verify) the
    /// completion record. Recorded cycles are the clock delta from kernel
    /// entry — for restarted calls that includes blocked time.
    fn record_syscall_ret(&mut self, pid: Pid, tid: Tid, nr_: u64, site: u64, ret: u64) {
        let (clock, retired) = (self.clock, self.retired);
        let Some(rs) = self.record.as_mut() else {
            return;
        };
        let entry = rs.entry_clock.remove(&(pid, tid)).unwrap_or(clock);
        rs.emit(Rec::Syscall {
            retired,
            nr: nr_,
            site,
            ret,
            cycles: clock.saturating_sub(entry),
        });
    }

    /// Arms a stop target on the record session: the run halts exactly
    /// when the retired-instruction clock reaches `target`, the
    /// time-travel seek primitive. From then on every [`Kernel::run`]
    /// returns [`RunExit::Stop`], so a driver that runs the kernel several
    /// times (`apps::run_macro`) stops there too. Arm it after
    /// [`Kernel::configure`], which replaces the session; without a record
    /// or verify session it does nothing.
    pub fn stop_at_retired(&mut self, target: u64) {
        let reached = self.retired >= target;
        if let Some(rs) = self.record.as_mut() {
            rs.stop_at = Some(target);
            rs.stopped |= reached;
        }
    }

    // ---- record/replay public accessors ------------------------------------

    /// The first mismatch a verifying replay found, if any.
    pub fn record_divergence(&self) -> Option<&Divergence> {
        self.record.as_ref().and_then(|rs| rs.divergence.as_ref())
    }

    /// Number of log records a verifying replay has matched so far.
    pub fn record_cursor(&self) -> usize {
        self.record.as_ref().map_or(0, |rs| rs.cursor)
    }

    /// Drains the captured log (record mode).
    pub fn take_recording(&mut self) -> Vec<Rec> {
        self.record
            .as_mut()
            .map(|rs| std::mem::take(&mut rs.recs))
            .unwrap_or_default()
    }

    /// Applies every injection due at the current boundary: permission
    /// restorations first, then new flips, then the asynchronous signal.
    /// The slice ends after a boundary fires (both engines agree on
    /// that), and `fired_until` advances so a boundary — which retires no
    /// instructions — cannot re-fire at the same retired count.
    fn apply_fault_boundary(&mut self, pid: Pid, tid: Tid) {
        let clock = self.clock;
        let obs = sim_obs::enabled();
        let at = self.retired;
        let Some(fs) = self.fault.as_mut() else {
            return;
        };
        fs.fired_until = at + 1;
        let mut due_restores = Vec::new();
        fs.restores.retain(|r| {
            if r.0 <= at {
                due_restores.push(*r);
                false
            } else {
                true
            }
        });
        let flips: Vec<PermFlip> = fs.plan.flips_at(at).copied().collect();
        let signo = fs.plan.boundary_signal(at);

        let mut serialized = false;
        for (_, rpid, base, saved) in due_restores {
            if let Some(p) = self.procs.get_mut(&rpid) {
                let _ = p.space.protect(base, PAGE_SIZE, saved);
                serialized = true;
            }
            if obs {
                sim_obs::fault_flip(clock, base, true);
            }
            // A restore is logged as a flip to the restored protection:
            // replay does not need to know the pre-flip history.
            self.record_emit(Rec::Flip {
                retired: at,
                page: base,
                perms: saved.bits(),
                restore: true,
            });
        }
        for f in flips {
            let base = f.page & !(PAGE_SIZE - 1);
            let saved = self.procs.get_mut(&pid).and_then(|p| {
                let saved = p.space.page_perms(base)?;
                p.space
                    .protect(base, PAGE_SIZE, Perms::from_bits(f.perms))
                    .ok()?;
                Some(saved)
            });
            if let Some(saved) = saved {
                serialized = true;
                if obs {
                    sim_obs::fault_flip(clock, base, false);
                }
                self.record_emit(Rec::Flip {
                    retired: at,
                    page: base,
                    perms: Perms::from_bits(f.perms).bits(),
                    restore: false,
                });
                if let Some(fs) = self.fault.as_mut() {
                    fs.restores.push((at + f.duration.max(1), pid, base, saved));
                }
            }
        }
        if serialized {
            // A permission change behaves like an mprotect IPI: the
            // running core serializes its instruction stream. (`protect`
            // bumped the space generation, so this is never coalesced.)
            if let Some(p) = self.procs.get_mut(&pid) {
                let Process { space, threads, .. } = p;
                if let Some(t) = threads.iter_mut().find(|t| t.tid == tid) {
                    t.cpu.serialize(space);
                }
            }
        }
        if let Some(signo) = signo {
            // Only deliverable signals are injected: with no handler the
            // default action would kill the guest, turning every cell of a
            // sweep into a trivial death instead of a stress result. The
            // skip is recorded so the decision stays visible.
            let has_handler = self
                .procs
                .get(&pid)
                .is_some_and(|p| p.sigactions.contains_key(&signo));
            if obs {
                sim_obs::fault_signal(clock, signo, has_handler);
            }
            self.record_emit(Rec::Signal {
                retired: at,
                signo,
                delivered: has_handler,
            });
            if has_handler {
                self.deliver_signal(
                    pid,
                    tid,
                    SigInfo {
                        signo,
                        ..SigInfo::default()
                    },
                );
            }
        }
    }

    /// Runs `(pid, tid)` for up to one scheduler slice.
    ///
    /// Dispatches to the block-based fast engine or, when
    /// [`EngineConfig`] selected it, the original per-step loop. Both
    /// produce identical clocks, stats, and guest-visible behavior —
    /// enforced by the determinism regression tests.
    fn run_slice(&mut self, pid: Pid, tid: Tid) {
        if sim_obs::enabled() {
            if self.current != Some((pid, tid)) {
                sim_obs::context_switch(self.clock, pid, tid);
            } else {
                sim_obs::set_cpu(pid, tid);
            }
        }
        match self.engine {
            Engine::Stepwise => self.run_slice_stepwise(pid, tid),
            Engine::Block => self.run_slice_blocks(pid, tid),
        }
    }

    /// Block-based slice: [`Cpu::run_block`] executes straight-line guest
    /// code without per-instruction scheduler overhead, returning at
    /// kernel-relevant events. A slice can span several blocks when
    /// hostcalls (`int3`) occur mid-slice, since hostcalls may mutate any
    /// kernel or guest state.
    fn run_slice_blocks(&mut self, pid: Pid, tid: Tid) {
        self.current = Some((pid, tid));
        let mut remaining = self.effective_slice(tid);
        while remaining > 0 {
            if self.boundary_ends_slice(pid, tid) {
                return;
            }
            // Single-threaded hot path: alternate block execution and
            // direct-path syscall handling under one process borrow,
            // with clock/cycle/stat accounting batched and flushed at
            // exact retired-instruction boundaries. Falls out with a
            // pending block exit when anything needs the general path;
            // the loop below then handles that exit exactly as if it had
            // produced it itself.
            let hot = if self.hot_slice_ok(pid, tid) {
                let Some(block) = self.run_slice_hot(pid, tid, &mut remaining) else {
                    return; // slice (or run deadline) ended inside the hot loop
                };
                Some(block)
            } else {
                None
            };
            let budget = self.next_stop().map_or(remaining, |stop| {
                remaining.min(stop.saturating_sub(self.retired).max(1))
            });
            let clock = self.clock;
            let cost = self.cost;
            let mut trace = self.exec_trace.take();
            let block = if let Some(block) = hot {
                block
            } else {
                let Some(p) = self.procs.get_mut(&pid) else {
                    self.exec_trace = trace;
                    return;
                };
                if p.exit_status.is_some() {
                    self.exec_trace = trace;
                    return;
                }
                let Process { space, threads, .. } = p;
                let Some(t) = threads.iter_mut().find(|t| t.tid == tid) else {
                    self.exec_trace = trace;
                    return;
                };
                if t.state != ThreadState::Runnable {
                    self.exec_trace = trace;
                    return;
                }
                let mut traced_clock = clock;
                t.cpu.set_seed_flush(false);
                t.cpu
                    .run_block(space, clock, &cost, budget, |rip, step: &Step| {
                        if let Some(rec) = trace.as_mut() {
                            traced_clock += step.cycles;
                            rec.push(TraceEntry {
                                pid,
                                tid,
                                rip,
                                clock: traced_clock,
                                event: step.event,
                            });
                        }
                    })
            };
            self.exec_trace = trace;
            self.charge(block.cycles);
            remaining -= block.steps;
            self.retire(pid, tid, block.steps);
            if block.vdso_calls > 0 {
                if let Some(p) = self.procs.get_mut(&pid) {
                    p.stats.vdso_calls += block.vdso_calls;
                }
            }
            match block.event {
                StepEvent::Executed => {} // budget exhausted: slice over
                StepEvent::Syscall { site, .. } => {
                    self.handle_syscall(pid, tid, site);
                    return; // end the slice at kernel entry
                }
                StepEvent::Hlt => {
                    self.kill_process(pid, 0);
                    return;
                }
                StepEvent::Int3 => {
                    self.handle_int3(pid, tid);
                }
                StepEvent::Fault(f) => {
                    if sim_obs::enabled() && f.reason == sim_mem::FaultReason::PkuDenied {
                        sim_obs::pku_fault(self.clock, f.addr);
                    }
                    self.deliver_signal(
                        pid,
                        tid,
                        SigInfo {
                            signo: nr::SIGSEGV,
                            fault_addr: f.addr,
                            ..SigInfo::default()
                        },
                    );
                    return;
                }
            }
        }
    }

    /// True when [`Kernel::run_slice_hot`] may run: no instrumentation
    /// (obs, fault, profiler, record or audit session, interposer stack,
    /// tracers) is armed, the machine has exactly one process with
    /// exactly one runnable thread (the current one), no seccomp filter
    /// is installed, no deferred writes are queued, and the run deadline
    /// is not reached. The one place that lists what a direct path must
    /// stand down for: every other syscall takes
    /// [`Kernel::handle_syscall`]. Everything that could invalidate these
    /// conditions — arming syscalls, hostcalls, thread creation — exits
    /// the hot loop first.
    fn hot_slice_ok(&self, pid: Pid, tid: Tid) -> bool {
        !sim_obs::enabled()
            && self.fault.is_none()
            && self.stack.is_none()
            && self.prof.is_none()
            && self.record.is_none()
            && self.audit.is_none()
            && self.tracers.is_empty()
            && self.deferred.is_empty()
            && self.clock < self.run_deadline
            && self.procs.len() == 1
            && self.procs.get(&pid).is_some_and(|p| {
                p.exit_status.is_none()
                    && p.seccomp.is_none()
                    && p.threads.len() == 1
                    && p.threads[0].tid == tid
                    && p.threads[0].state == ThreadState::Runnable
            })
    }

    /// The single-threaded hot loop: alternates block execution and
    /// direct-path handling of trivial syscalls under **one** process
    /// borrow, batching clock, per-thread cycle, retired-instruction and
    /// syscall-statistic accounting in locals that are flushed at exact
    /// retired-instruction boundaries (before any state the general path
    /// could observe).
    ///
    /// Guarded by [`Kernel::hot_slice_ok`]; nothing the loop handles can
    /// invalidate those conditions, so they are checked once. Slice
    /// exhaustion and direct-path syscalls restart the slice in place —
    /// architecturally identical to unwinding into the scheduler loop,
    /// which under those conditions has no write to flush, no fault round
    /// to advance and only this thread to run.
    ///
    /// Returns `Some(block)` when a block ended with an exit the general
    /// loop must handle — that block's accounting has **not** been
    /// applied yet (the caller's normal bookkeeping applies it), though
    /// its exec-trace entries are already recorded. Returns `None` when
    /// the slice ended cleanly (run deadline reached); the caller returns
    /// to the scheduler.
    fn run_slice_hot(
        &mut self,
        pid: Pid,
        tid: Tid,
        remaining: &mut u64,
    ) -> Option<BlockExit> {
        let cost = self.cost;
        let deadline = self.run_deadline;
        let mut exec_trace = self.exec_trace.take();
        let mut clock = self.clock;
        let mut cycles_acc = 0u64;
        let mut steps_acc = 0u64;
        let mut vdso_acc = 0u64;
        // Pending syscall-statistics run: `pend` occurrences of syscall
        // `pend_nr` issued from `pend_site`, not yet folded into
        // `ProcStats`. The stress loops this path serves issue the same
        // syscall from the same site, so the fold is one memoized region
        // lookup and five counter adds per run instead of per call.
        let mut pend_nr = 0u64;
        let mut pend_site = 0u64;
        let mut pend = 0u64;
        let result;
        {
            let p = self.procs.get_mut(&pid).expect("hot_slice_ok checked");
            let Process {
                space,
                threads,
                stats,
                region_cache,
                interposer_live,
                ..
            } = p;
            let t = &mut threads[0];
            t.cpu.set_seed_flush(false);
            // Constant for the whole hot slice: only non-trivial syscalls
            // (which exit this loop) can arm SUD or set `restarting`.
            let restarting = t.restarting;
            let sud_armed = t.sud.is_some();
            result = loop {
                let budget = *remaining;
                // Shared between the step hook and the syscall hook (a
                // handled syscall's charge must show up in the clocks of
                // the trace entries that follow it), hence a Cell.
                let traced_clock = std::cell::Cell::new(clock);
                // Direct-path syscall entry, inside trace replay and at a
                // block exit alike: the trivial-syscall service with the
                // register, serialization, clock and statistics effects of
                // `handle_syscall` — so a self-looping trace handles its
                // syscall without ever leaving `run_block`.
                let mut syscall_fast =
                    |cpu: &mut Cpu, space: &mut AddressSpace, site: u64, abs: u64| {
                        if restarting || sud_armed {
                            return HookAction::Pass;
                        }
                        let Some(nr_) = serve_trivial(cpu, space, pid, tid, site) else {
                            return HookAction::Pass;
                        };
                        if pend > 0 && (pend_nr != nr_ || pend_site != site) {
                            flush_syscall_stats(
                                stats,
                                region_cache,
                                space,
                                *interposer_live,
                                pend_nr,
                                pend_site,
                                pend,
                            );
                            pend = 0;
                        }
                        pend_nr = nr_;
                        pend_site = site;
                        pend += 1;
                        let charge = cost.kernel_entry + crate::sys::service_cost(nr_, 0);
                        traced_clock.set(traced_clock.get() + charge);
                        HookAction::Handled {
                            charge,
                            stop: abs + charge >= deadline,
                        }
                    };
                // Monomorphize the replay loop on whether an exec trace
                // is being recorded: the no-trace instantiation's step
                // hook is a true no-op instead of a per-op branch.
                let block = if exec_trace.is_none() {
                    t.cpu.run_block_hooked(
                        space,
                        clock,
                        &cost,
                        budget,
                        |_, _: &Step| {},
                        &mut syscall_fast,
                    )
                } else {
                    t.cpu.run_block_hooked(
                        space,
                        clock,
                        &cost,
                        budget,
                        |rip, step: &Step| {
                            if let Some(rec) = exec_trace.as_mut() {
                                traced_clock.set(traced_clock.get() + step.cycles);
                                rec.push(TraceEntry {
                                    pid,
                                    tid,
                                    rip,
                                    clock: traced_clock.get(),
                                    event: step.event,
                                });
                            }
                        },
                        &mut syscall_fast,
                    )
                };
                // A block-exit syscall takes the same hook as one inside
                // trace replay. Hlt, Int3, Fault and syscalls the hook
                // passes go to the caller with their accounting unapplied.
                let served = match block.event {
                    StepEvent::Executed => 0,
                    StepEvent::Syscall { site, .. } => {
                        match syscall_fast(&mut t.cpu, space, site, clock + block.cycles) {
                            HookAction::Handled { charge, .. } => charge,
                            HookAction::Pass => break Some(block),
                        }
                    }
                    _ => break Some(block),
                };
                clock += block.cycles + served;
                cycles_acc += block.cycles + served;
                steps_acc += block.steps;
                vdso_acc += block.vdso_calls;
                if clock >= deadline {
                    *remaining = 0;
                    break None;
                }
                // Budget exhausted or a direct-path return: the slice is
                // over, and the scheduler round that follows is a no-op,
                // so start the next slice in place.
                *remaining = SLICE;
            };
            if pend > 0 {
                flush_syscall_stats(
                    stats,
                    region_cache,
                    space,
                    *interposer_live,
                    pend_nr,
                    pend_site,
                    pend,
                );
            }
            stats.vdso_calls += vdso_acc;
        }
        self.exec_trace = exec_trace;
        self.clock = clock;
        self.retired += steps_acc;
        if cycles_acc > 0 {
            *self.thread_cycles.entry((pid, tid)).or_insert(0) += cycles_acc;
        }
        result
    }

    /// The original per-step slice loop, retained as the determinism
    /// oracle, with the original flush-everything icache.
    fn run_slice_stepwise(&mut self, pid: Pid, tid: Tid) {
        self.current = Some((pid, tid));
        let slice = self.effective_slice(tid);
        for _ in 0..slice {
            if self.boundary_ends_slice(pid, tid) {
                return;
            }
            let clock = self.clock;
            let cost = self.cost;
            let (step, rip) = {
                let Some(p) = self.procs.get_mut(&pid) else {
                    return;
                };
                if p.exit_status.is_some() {
                    return;
                }
                let Process { space, threads, .. } = p;
                let Some(t) = threads.iter_mut().find(|t| t.tid == tid) else {
                    return;
                };
                if t.state != ThreadState::Runnable {
                    return;
                }
                let rip = t.cpu.rip;
                t.cpu.set_seed_flush(true);
                (t.cpu.step(space, clock, &cost), rip)
            };
            self.charge(step.cycles);
            if sim_obs::enabled() {
                // Post-step RIP, matching the per-step hook inside
                // `run_block` — the range-span streams are identical.
                if let Some(rip_after) = self.cpu_mut(pid, tid).map(|c| c.rip) {
                    sim_obs::span_step(self.clock, rip_after);
                }
            }
            self.retire(pid, tid, 1);
            if let Some(rec) = self.exec_trace.as_mut() {
                rec.push(TraceEntry {
                    pid,
                    tid,
                    rip,
                    clock: self.clock,
                    event: step.event,
                });
            }
            match step.event {
                StepEvent::Executed => {
                    if matches!(step.inst, Some(sim_isa::Inst::Vsyscall)) {
                        if let Some(p) = self.procs.get_mut(&pid) {
                            p.stats.vdso_calls += 1;
                        }
                    }
                }
                StepEvent::Syscall { site, .. } => {
                    self.handle_syscall(pid, tid, site);
                    return; // end the slice at kernel entry
                }
                StepEvent::Hlt => {
                    self.kill_process(pid, 0);
                    return;
                }
                StepEvent::Int3 => {
                    self.handle_int3(pid, tid);
                }
                StepEvent::Fault(f) => {
                    if sim_obs::enabled() && f.reason == sim_mem::FaultReason::PkuDenied {
                        sim_obs::pku_fault(self.clock, f.addr);
                    }
                    self.deliver_signal(
                        pid,
                        tid,
                        SigInfo {
                            signo: nr::SIGSEGV,
                            fault_addr: f.addr,
                            ..SigInfo::default()
                        },
                    );
                    return;
                }
            }
        }
    }

    fn handle_int3(&mut self, pid: Pid, tid: Tid) {
        // The int3 has retired: the site address is rip - 1.
        let site = match self.cpu_mut(pid, tid) {
            Some(cpu) => cpu.rip.wrapping_sub(1),
            None => return,
        };
        let Some(name) = self.hostcall_sites.get(&(pid, site)).cloned() else {
            // Unregistered breakpoint: fatal SIGTRAP.
            self.kill_process(pid, 128 + nr::SIGTRAP as i64);
            return;
        };
        let Some(f) = self.hostcall_impls.get(&name).cloned() else {
            self.kill_process(pid, 128 + nr::SIGTRAP as i64);
            return;
        };
        self.charge(self.cost.hostcall);
        (f.borrow_mut())(self, pid, tid);
    }

    /// Resolves the mapped-region name containing `site` through the
    /// stats path's per-process memo ([`region_of`]).
    fn site_region(&mut self, pid: Pid, site: u64) -> String {
        match self.procs.get_mut(&pid) {
            Some(p) => region_of(&mut p.region_cache, &p.space, site).clone(),
            None => "?".to_string(),
        }
    }

    /// Kernel entry for a `syscall`/`sysenter` at `site`: SUD dispatch,
    /// ptrace stops, seccomp, statistics, fault injection, and the
    /// syscall table. Every syscall the hot slice loop does not serve
    /// takes this walk, on every engine.
    fn handle_syscall(&mut self, pid: Pid, tid: Tid, site: u64) {
        let cost = self.cost;
        // Gather thread state.
        let (nr_, args, sud, selector, restarting) = {
            let Some(p) = self.procs.get_mut(&pid) else {
                return;
            };
            let Process { space, threads, .. } = p;
            let Some(t) = threads.iter_mut().find(|t| t.tid == tid) else {
                return;
            };
            let restarting = std::mem::take(&mut t.restarting);
            // Kernel entry serializes the core's instruction stream
            // (coalesced to a no-op while nothing in the space was
            // written — the common case for a tight syscall loop).
            t.cpu.serialize(space);
            let (nr_, args) = t.cpu.syscall_args();
            let sud = t.sud;
            let selector = sud.and_then(|s| {
                let mut b = [0u8; 1];
                space.read_raw(s.selector_addr, &mut b).ok().map(|_| b[0])
            });
            (nr_, args, sud, selector, restarting)
        };

        // Observability: open the syscall span (one per architectural
        // syscall — a restart resumes the span opened at first entry) and
        // observe the SUD selector byte for flip detection.
        let obs = sim_obs::enabled();
        if obs && !restarting {
            let region = self.site_region(pid, site);
            sim_obs::syscall_enter(self.clock, nr_, site, &region, nr::syscall_name(nr_));
            if let Some(sel) = selector {
                sim_obs::sud_selector(self.clock, sel);
            }
        }

        // Kernel entry cost; SUD arming puts every entry on the slow path.
        // A restarted (previously blocked) syscall resumes in-kernel: no
        // second entry, no re-dispatch, no second tracer stop.
        if !restarting {
            self.charge(cost.kernel_entry);
            if sud.is_some() {
                self.charge(cost.sud_slowpath);
            }
        }
        self.record_syscall_entry(pid, tid, restarting);

        // Coverage audit: tag each architectural syscall once, at first
        // entry (a restart resumes in-kernel — the tag stands). The SUD
        // outcome is predicted from the same state the dispatch check
        // below reads, so tagging here also covers the SIGSYS early
        // return.
        if !restarting && self.audit.is_some() {
            let region = self.site_region(pid, site);
            let traced = self
                .tracers
                .get(&pid)
                .is_some_and(|t| t.opts.trace_syscalls);
            let live = self.procs.get(&pid).is_some_and(|p| p.interposer_live);
            let in_allowlist = sud.is_some_and(|s| s.in_allowlist(site));
            let view = crate::audit::SyscallView {
                region: &region,
                traced,
                live,
                sud_armed: sud.is_some(),
                in_allowlist,
                will_sigsys: sud.is_some()
                    && !in_allowlist
                    && selector == Some(nr::SYSCALL_DISPATCH_FILTER_BLOCK),
                selector_allow: selector == Some(nr::SYSCALL_DISPATCH_FILTER_ALLOW),
            };
            let tag = self
                .audit
                .as_mut()
                .expect("checked above")
                .classify(pid, site, &view);
            if obs {
                let mark = match tag {
                    crate::audit::AuditTag::Path => sim_obs::AuditMark::Path,
                    crate::audit::AuditTag::Control => sim_obs::AuditMark::Control,
                    crate::audit::AuditTag::Double => sim_obs::AuditMark::Double,
                    crate::audit::AuditTag::Bypassed(sig) => {
                        sim_obs::AuditMark::Bypass(sig.code())
                    }
                };
                sim_obs::audit_tag(self.clock, nr_, site, &region, mark);
            }
        }

        // SUD dispatch check (before anything else, as in Linux).
        let sud_check = if restarting { None } else { sud };
        if let Some(s) = sud_check {
            if !s.in_allowlist(site) {
                match selector {
                    Some(nr::SYSCALL_DISPATCH_FILTER_BLOCK) => {
                        // Deliver SIGSYS; saved context resumes after the
                        // syscall instruction.
                        if let Some(t) = self.procs.get_mut(&pid).and_then(|p| p.thread_mut(tid)) {
                            t.cpu.rip = site + 2;
                        }
                        if let Some(p) = self.procs.get_mut(&pid) {
                            p.stats.sigsys_count += 1;
                        }
                        if obs {
                            sim_obs::sigsys(self.clock, nr_, site, nr::syscall_name(nr_));
                            sim_obs::span_enter(self.clock, "sud/sigsys-deliver");
                        }
                        self.deliver_signal(
                            pid,
                            tid,
                            SigInfo {
                                signo: nr::SIGSYS,
                                syscall: nr_,
                                call_addr: site,
                                ..SigInfo::default()
                            },
                        );
                        if obs {
                            sim_obs::span_exit(self.clock);
                        }
                        return;
                    }
                    Some(_) => {}
                    None => {
                        // Unreadable selector: Linux kills the task.
                        self.kill_process(pid, 128 + nr::SIGSYS as i64);
                        return;
                    }
                }
            }
        }

        // ptrace syscall-enter stop (not repeated for in-kernel restarts).
        // The tracer may rewrite the tracee's registers (PTRACE_SETREGS) —
        // the syscall then executes with the *modified* arguments, exactly
        // as on Linux.
        let enter_action = if restarting {
            TracerAction::Continue
        } else {
            self.tracer_stop(
            pid,
            tid,
            Stop::SyscallEnter {
                nr: nr_,
                args,
                site,
            },
            |o| o.trace_syscalls,
            )
        };
        match enter_action {
            TracerAction::Continue | TracerAction::Detach => {}
            TracerAction::Kill => return,
            TracerAction::SkipSyscall { ret } => {
                self.syscall_return(pid, tid, site, nr_, ret);
                return;
            }
        }

        // seccomp filter (installed filters survive execve, as on Linux).
        let seccomp_action = self
            .procs
            .get(&pid)
            .and_then(|p| p.seccomp.as_ref())
            .map(|f| f.action(nr_));
        match seccomp_action {
            Some(SeccompAction::Kill) => {
                self.kill_process(pid, 128 + nr::SIGSYS as i64);
                return;
            }
            Some(SeccompAction::Errno(e)) => {
                self.syscall_return(pid, tid, site, nr_, nr::err(e));
                return;
            }
            _ => {}
        }

        // Re-read registers: a tracer may have changed them at the stop.
        let Some((nr_, args)) = self
            .procs
            .get(&pid)
            .and_then(|p| p.thread(tid))
            .map(|t| t.cpu.syscall_args())
        else {
            return;
        };

        {
            let Some(p) = self.procs.get_mut(&pid) else {
                return;
            };
            let Process {
                stats,
                space,
                region_cache,
                interposer_live,
                ..
            } = p;
            flush_syscall_stats(stats, region_cache, space, *interposer_live, nr_, site, 1);
        }

        // sim-fault errno injection: decided purely by (plan, nr,
        // executed-occurrence index). Occurrences count only once the
        // interposer is live and never for in-kernel restarts, so the
        // numbering is architectural — identical under both engines.
        let injected = if self.fault.is_some() && !restarting {
            let live = self.procs.get(&pid).is_some_and(|p| p.interposer_live);
            match self.fault.as_mut() {
                Some(fs) if live => {
                    let occ = fs.occurrences.entry(nr_).or_insert(0);
                    let idx = *occ;
                    *occ += 1;
                    fs.plan.syscall_fault(nr_, idx)
                }
                _ => None,
            }
        } else {
            None
        };
        if let Some(kind) = injected {
            if obs {
                sim_obs::fault_errno(self.clock, nr_, kind.tag());
            }
        }

        // Dispatch — through the interposer chain when a composed stack
        // covers this (process, site), otherwise straight to the kernel.
        // In-kernel restarts never re-enter the chain: the layers ran at
        // first entry; the retry completes below them.
        if !restarting && self.chain_applies(pid, site) {
            let ctx = crate::stack::SyscallCtx { pid, tid, nr: nr_, args, site };
            self.chain_dispatch(ctx, injected, obs);
        } else {
            self.chain_real_dispatch(pid, tid, nr_, args, site, injected);
        }
    }

    /// Completes the syscall issued at `site` with `ret` where no exit
    /// stop comes between: the return's register effects, then the obs
    /// syscall exit.
    fn syscall_return(&mut self, pid: Pid, tid: Tid, site: u64, nr_: u64, ret: u64) {
        if let Some(t) = self.procs.get_mut(&pid).and_then(|p| p.thread_mut(tid)) {
            t.cpu.syscall_return(site, ret);
        }
        sim_obs::syscall_exit(self.clock, nr_, ret, nr::syscall_name(nr_));
    }

    /// The real kernel dispatch and its architectural effects (registers,
    /// blocking, record/trace/obs exits) — the bottom of the interposer
    /// chain, and the whole dispatch step when no chain applies. Applies
    /// `injected` exactly as the pre-chain dispatch did.
    pub(crate) fn chain_real_dispatch(
        &mut self,
        pid: Pid,
        tid: Tid,
        nr_: u64,
        args: [u64; 6],
        site: u64,
        injected: Option<FaultKind>,
    ) -> crate::stack::RealOutcome {
        let disp = match injected {
            Some(FaultKind::Eintr) => crate::sys::Disp::Ret(nr::err(nr::EINTR)),
            Some(FaultKind::Eagain) => crate::sys::Disp::Ret(nr::err(nr::EAGAIN)),
            Some(FaultKind::Enomem) => crate::sys::Disp::Ret(nr::err(nr::ENOMEM)),
            Some(FaultKind::Partial) => {
                // Cap the transfer length: the call executes with faithful
                // side effects and itself returns the short count.
                let mut capped = args;
                if capped[2] > 1 {
                    capped[2] /= 2;
                }
                self.sys_dispatch(pid, tid, nr_, capped, site)
            }
            None => self.sys_dispatch(pid, tid, nr_, args, site),
        };
        match disp {
            crate::sys::Disp::Ret(ret) => {
                if let Some(t) = self.procs.get_mut(&pid).and_then(|p| p.thread_mut(tid)) {
                    t.cpu.syscall_return(site, ret);
                }
                self.record_syscall_ret(pid, tid, nr_, site, ret);
                self.tracer_stop(pid, tid, Stop::SyscallExit { nr: nr_, ret }, |o| {
                    o.trace_syscalls
                });
                sim_obs::syscall_exit(self.clock, nr_, ret, nr::syscall_name(nr_));
                crate::stack::RealOutcome::Ret(ret)
            }
            crate::sys::Disp::RetThenBlock(ret, wait) => {
                if let Some(t) = self.procs.get_mut(&pid).and_then(|p| p.thread_mut(tid)) {
                    t.state = ThreadState::Blocked(wait);
                }
                self.record_syscall_ret(pid, tid, nr_, site, ret);
                self.syscall_return(pid, tid, site, nr_, ret);
                crate::stack::RealOutcome::Ret(ret)
            }
            crate::sys::Disp::Block(wait) => {
                // rip stays at the syscall instruction: the thread retries on
                // wake. Undo the "executed" count — it will be recounted.
                if let Some(p) = self.procs.get_mut(&pid) {
                    p.stats.syscalls -= 1;
                    *p.stats.per_syscall.entry(nr_).or_insert(1) -= 1;
                    let region = region_of(&mut p.region_cache, &p.space, site).clone();
                    *p.stats.syscalls_via.entry(region).or_insert(1) -= 1;
                    *p.stats.per_site.entry(site).or_insert(1) -= 1;
                    if p.stats.per_site.get(&site) == Some(&0) {
                        p.stats.per_site.remove(&site);
                    }
                    if !p.interposer_live {
                        p.stats.syscalls_before_interposer -= 1;
                    }
                    if let Some(t) = p.thread_mut(tid) {
                        t.state = ThreadState::Blocked(wait);
                        // On wake the syscall resumes in-kernel.
                        t.restarting = true;
                    }
                }
                crate::stack::RealOutcome::Opaque
            }
            crate::sys::Disp::NoReturn => {
                if nr_ == nr::SYS_RT_SIGRETURN {
                    crate::stack::RealOutcome::Sigreturn
                } else {
                    crate::stack::RealOutcome::Opaque
                }
            }
        }
    }

    // ---- fork/clone helpers used by sys.rs -----------------------------------

    pub(crate) fn do_fork(&mut self, pid: Pid, tid: Tid, site: u64) -> u64 {
        let child_pid = self.next_pid;
        self.next_pid += 1;
        let child_tid = self.next_tid;
        self.next_tid += 1;

        let Some(parent) = self.procs.get(&pid) else {
            return nr::err(nr::ENOENT);
        };
        let Some(t) = parent.thread(tid) else {
            return nr::err(nr::ENOENT);
        };
        let mut child = Process::new(child_pid, pid, child_tid);
        child.exe = parent.exe.clone();
        child.space = parent.space.clone();
        child.fds = parent.fds.clone();
        child.env = parent.env.clone();
        child.argv = parent.argv.clone();
        child.cwd = parent.cwd.clone();
        child.sigactions = parent.sigactions.clone();
        child.vdso_enabled = parent.vdso_enabled;
        child.vdso_base = parent.vdso_base;
        child.symbols = parent.symbols.clone();
        child.lib_bases = parent.lib_bases.clone();
        child.interposer_live = parent.interposer_live;
        child.seccomp = parent.seccomp.clone();
        // Stack-layer membership: only layers that opted into fork
        // propagation follow the child.
        let fork_mask = self.stack.as_ref().map_or(0, |s| s.fork_mask());
        child.stack_mask = parent.stack_mask & fork_mask;
        child.chain_sites = parent.chain_sites.clone();
        // Readiness state follows the fd table: epoll instances and eventfd
        // counters are duplicated (each side then mutates its own copy, the
        // same as two processes holding independent descriptions), and the
        // per-fd O_NONBLOCK set carries over.
        child.epolls = parent.epolls.clone();
        child.next_epoll = parent.next_epoll;
        child.eventfds = parent.eventfds.clone();
        child.next_eventfd = parent.next_eventfd;
        child.nonblock = parent.nonblock.clone();
        let mut ccpu = t.cpu.clone();
        ccpu.syscall_return(site, 0);
        child.threads[0].cpu = ccpu;
        child.threads[0].sud = t.sud;
        // A fork from inside a signal handler inherits the handler context:
        // the child's stack is a copy, so its live signal frames — and any
        // masking state and deferred signals — are too.
        child.threads[0].sig_frames = t.sig_frames.clone();
        child.threads[0].frame_masked = t.frame_masked.clone();
        child.threads[0].pending_signals = t.pending_signals.clone();

        // Channel and listener refcounts for duplicated descriptors.
        let (chans, ports) = child.net_refs();
        for (c, e) in chans {
            self.net.add_ref(c, e);
        }
        for port in ports {
            if let Some(l) = self.net.listeners.get_mut(&port) {
                l.refs += 1;
            }
        }

        self.procs.insert(child_pid, child);
        if let Some(p) = self.procs.get_mut(&pid) {
            p.children.push(child_pid);
        }
        // Duplicate hostcall wiring (same image).
        let copies: Vec<(u64, String)> = self
            .hostcall_sites
            .iter()
            .filter(|((p, _), _)| *p == pid)
            .map(|((_, a), n)| (*a, n.clone()))
            .collect();
        for (a, n) in copies {
            self.hostcall_sites.insert((child_pid, a), n);
        }
        self.maybe_trace_fork(pid, child_pid, tid);
        if let Some(a) = &mut self.audit {
            // Fork-propagation audit: a child born outside the mechanism's
            // reach (no inherited liveness, no tracer follow) while the
            // parent was covered is a fork-gap shadow.
            let parent_covered = self.procs.get(&pid).is_some_and(|p| p.interposer_live)
                || self
                    .tracers
                    .get(&pid)
                    .is_some_and(|t| t.opts.trace_syscalls);
            let child_covered = self
                .procs
                .get(&child_pid)
                .is_some_and(|p| p.interposer_live)
                || self
                    .tracers
                    .get(&child_pid)
                    .is_some_and(|t| t.opts.trace_syscalls);
            a.note_fork(child_pid, parent_covered, child_covered);
        }
        child_pid
    }

    pub(crate) fn do_clone_thread(&mut self, pid: Pid, tid: Tid, site: u64, stack: u64) -> u64 {
        let new_tid = self.next_tid;
        self.next_tid += 1;
        let Some(p) = self.procs.get_mut(&pid) else {
            return nr::err(nr::ENOENT);
        };
        let Some(t) = p.thread(tid) else {
            return nr::err(nr::ENOENT);
        };
        let (cpu_clone, sud, frame) = (t.cpu.clone(), t.sud, t.sig_frames.last().copied());
        let mut nt = Thread::new(new_tid);
        nt.cpu = cpu_clone;
        nt.sud = sud;
        // If the clone was forwarded from inside a signal handler (an
        // SUD-based interposer emulating the app's clone), the child must
        // start from the *saved application context*, not from the middle
        // of the handler — the fixup every real SUD interposer implements
        // for clone. We model that corrected behavior here.
        let (resume_rip, base_regs) = match frame {
            Some(f) => {
                let mut rip = [0u8; 8];
                let _ = p.space.read_raw(f + signal::UC_RIP, &mut rip);
                let mut regs = [0u64; 16];
                for (i, r) in regs.iter_mut().enumerate() {
                    let mut b = [0u8; 8];
                    let _ = p
                        .space
                        .read_raw(f + signal::UC_REGS + 8 * i as u64, &mut b);
                    *r = u64::from_le_bytes(b);
                }
                (u64::from_le_bytes(rip), Some(regs))
            }
            None => (site + 2, None),
        };
        if let Some(regs) = base_regs {
            nt.cpu.regs = regs;
        }
        nt.cpu.rip = resume_rip;
        nt.cpu.set(Reg::Rax, 0);
        nt.cpu.set(Reg::Rsp, stack);
        nt.cpu.apply_syscall_clobbers(resume_rip);
        let Some(p) = self.procs.get_mut(&pid) else {
            return nr::err(nr::ENOENT);
        };
        p.threads.push(nt);
        new_tid
    }
}

impl Default for Kernel {
    fn default() -> Self {
        Kernel::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nr;
    use sim_isa::{Asm, Reg};

    /// Minimal loader stub for kernel-level tests: maps raw code at a fixed
    /// base with a stack.
    struct RawLoader(Vec<u8>);

    impl ExecLoader for RawLoader {
        fn load(
            &self,
            _vfs: &mut Vfs,
            _path: &str,
            _argv: &[String],
            _env: &[String],
            _opts: &ExecOpts,
        ) -> Result<LoadedImage, i64> {
            let mut space = AddressSpace::new();
            space
                .map(0x1000, 0x10000, sim_mem::Perms::RX, "/bin/raw")
                .map_err(|_| -nr::ENOMEM)?;
            space.write_raw(0x1000, &self.0).map_err(|_| -nr::ENOMEM)?;
            space
                .map(0x8_0000, 0x10000, sim_mem::Perms::RW, "[stack]")
                .map_err(|_| -nr::ENOMEM)?;
            Ok(LoadedImage {
                space,
                entry: 0x1000,
                rsp: 0x9_0000 - 64,
                hostcall_sites: Vec::new(),
                symbols: BTreeMap::new(),
                lib_bases: BTreeMap::new(),
                vdso_base: 0,
            })
        }
    }

    fn kernel_with(code: Vec<u8>) -> (Kernel, Pid) {
        let mut k = Kernel::new();
        k.set_loader(Rc::new(RawLoader(code)));
        let pid = k.spawn("/bin/raw", &[], &[], None).expect("spawn");
        (k, pid)
    }

    /// A blocked syscall resumes in-kernel: exactly one kernel entry is
    /// charged even though the instruction re-executes after the wake.
    #[test]
    fn blocked_syscall_pays_single_kernel_entry() {
        // pipe(fds); read(rfd) [blocks]; parent thread writes after a sleep…
        // simpler: nanosleep-based wake isn't a retry; use a pipe via two
        // threads. Thread A reads (blocks); thread B writes one byte.
        let mut a = Asm::new();
        // pipe(&fds)
        a.mov_imm(Reg::Rdi, 0x8_0100);
        a.mov_imm(Reg::Rax, nr::SYS_PIPE);
        a.syscall();
        // spawn thread B: stack at 0x8_8000, entry seeded on its stack
        a.mov_imm(Reg::Rsi, 0x8_8000);
        a.lea_label(Reg::Rcx, "thread_b");
        a.inst(sim_isa::Inst::Store(Reg::Rsi, 0, Reg::Rcx));
        a.mov_imm(Reg::Rax, nr::SYS_CLONE);
        a.syscall();
        a.test_reg(Reg::Rax, Reg::Rax);
        a.jz("thread_b_entry");
        // thread A: read(rfd, buf, 1) — blocks until B writes.
        a.mov_imm(Reg::R11, 0x8_0100);
        a.inst(sim_isa::Inst::Load(Reg::Rdi, Reg::R11, 0));
        a.shl_imm(Reg::Rdi, 32);
        a.shr_imm(Reg::Rdi, 32);
        a.mov_imm(Reg::Rsi, 0x8_0200);
        a.mov_imm(Reg::Rdx, 1);
        a.mov_imm(Reg::Rax, nr::SYS_READ);
        a.label("read_site");
        a.syscall();
        a.mov_imm(Reg::Rdi, 0);
        a.mov_imm(Reg::Rax, nr::SYS_EXIT_GROUP);
        a.syscall();
        a.label("thread_b_entry");
        a.label("thread_b");
        // burn some time, then write one byte
        a.mov_imm(Reg::Rcx, 500);
        a.label("spin");
        a.sub_imm(Reg::Rcx, 1);
        a.jnz("spin");
        a.mov_imm(Reg::R11, 0x8_0100);
        a.inst(sim_isa::Inst::Load(Reg::Rdi, Reg::R11, 0));
        a.shr_imm(Reg::Rdi, 32);
        a.mov_imm(Reg::Rsi, 0x8_0200);
        a.mov_imm(Reg::Rdx, 1);
        a.mov_imm(Reg::Rax, nr::SYS_WRITE);
        a.syscall();
        a.label("halt");
        a.jmp("halt");
        let prog = a.finish_program();
        let read_site = 0x1000 + prog.sym("read_site");
        let (mut k, pid) = kernel_with(prog.bytes);
        let exit = k.run(10_000_000_000);
        assert_eq!(exit, RunExit::AllExited);
        let p = k.process(pid).expect("proc");
        assert_eq!(p.exit_status, Some(0));
        // The read executed exactly once in the stats even though it blocked
        // and retried.
        assert_eq!(p.stats.syscalls_at_site(read_site), 1);
    }

    /// Deferred writes land exactly at their due time.
    #[test]
    fn deferred_write_lands_on_schedule() {
        let mut a = Asm::new();
        a.label("loop");
        a.mov_imm(Reg::R11, 0x8_0300);
        a.inst(sim_isa::Inst::Load(Reg::Rax, Reg::R11, 0));
        a.cmp_imm(Reg::Rax, 0);
        a.jz("loop");
        a.mov_imm(Reg::Rdi, 7);
        a.mov_imm(Reg::Rax, nr::SYS_EXIT_GROUP);
        a.syscall();
        let (mut k, pid) = kernel_with(a.finish());
        k.defer_write_u8(pid, 0x8_0300, 1, 5_000);
        let exit = k.run(10_000_000_000);
        assert_eq!(exit, RunExit::AllExited);
        assert_eq!(k.process(pid).unwrap().exit_status, Some(7));
        assert!(k.clock >= 5_000);
    }

    /// The trivial syscalls have one set of effects whichever path serves
    /// them: the hot loop at block exits (while the loop is cold) and
    /// inside trace replay (once its trace forms), or `handle_syscall`
    /// when a profiler session closes the hot loop (without obs it
    /// samples and charges nothing) and on the stepwise oracle.
    #[test]
    fn direct_path_matches_slow_path() {
        let mut a = Asm::new();
        a.mov_imm(Reg::R12, 0);
        a.mov_imm(Reg::R13, 200);
        a.label("loop");
        for nr_ in [
            nr::SYS_GETPID,
            nr::SYS_GETTID,
            nr::SYS_GETUID,
            nr::SYS_SCHED_YIELD,
            nr::SYS_NONEXISTENT,
        ] {
            a.mov_imm(Reg::Rax, nr_);
            a.syscall();
            a.add_reg(Reg::R12, Reg::Rax);
        }
        a.sub_imm(Reg::R13, 1);
        a.jnz("loop");
        a.mov_reg(Reg::Rdi, Reg::R12);
        a.mov_imm(Reg::Rax, nr::SYS_EXIT_GROUP);
        a.syscall();
        let code = a.finish();
        let run = |cfg: EngineConfig| {
            let (mut k, pid) = kernel_with(code.clone());
            k.configure(cfg);
            assert_eq!(k.run(10_000_000_000), RunExit::AllExited);
            let p = k.process(pid).expect("proc");
            (p.exit_status, p.stats.clone(), k.clock, k.retired())
        };
        let hot = run(EngineConfig::new());
        assert_eq!(hot.1.syscalls, 1001);
        assert_eq!(run(EngineConfig::new().profile(7)), hot);
        assert_eq!(run(EngineConfig::stepwise()), hot);
    }

    /// Emits `exit_group(code)`.
    fn emit_exit(a: &mut Asm, code: u64) {
        a.mov_imm(Reg::Rdi, code);
        a.mov_imm(Reg::Rax, nr::SYS_EXIT_GROUP);
        a.syscall();
    }

    /// Emits `pipe(&0x8_0100)` and one byte written into it. Leaves the
    /// read end in `rfd`, the write end in `wfd`.
    fn emit_pipe_with_byte(a: &mut Asm, rfd: Reg, wfd: Reg) {
        a.mov_imm(Reg::Rdi, 0x8_0100);
        a.mov_imm(Reg::Rax, nr::SYS_PIPE);
        a.syscall();
        a.mov_imm(Reg::R11, 0x8_0100);
        a.inst(sim_isa::Inst::Load(rfd, Reg::R11, 0));
        a.mov_reg(wfd, rfd);
        a.shl_imm(rfd, 32);
        a.shr_imm(rfd, 32);
        a.shr_imm(wfd, 32);
        a.mov_reg(Reg::Rdi, wfd);
        a.mov_imm(Reg::Rsi, 0x8_0200);
        a.mov_imm(Reg::Rdx, 1);
        a.mov_imm(Reg::Rax, nr::SYS_WRITE);
        a.syscall();
    }

    /// `epoll_ctl(rbp, EPOLL_CTL_ADD, fd, events)`.
    fn emit_epoll_add(a: &mut Asm, fd: Reg, events: u64) {
        a.mov_reg(Reg::Rdi, Reg::Rbp);
        a.mov_imm(Reg::Rsi, nr::EPOLL_CTL_ADD);
        a.mov_reg(Reg::Rdx, fd);
        a.mov_imm(Reg::R10, events);
        a.mov_imm(Reg::Rax, nr::SYS_EPOLL_CTL);
        a.syscall();
    }

    /// Emits `pipe(&0x8_0100)`, one byte written into it, and an epoll
    /// instance watching the read end with `events`. Leaves rfd in r12,
    /// wfd in r13, epfd in rbp.
    fn emit_watched_pipe(a: &mut Asm, events: u64) {
        emit_pipe_with_byte(a, Reg::R12, Reg::R13);
        a.mov_imm(Reg::Rdi, 0);
        a.mov_imm(Reg::Rax, nr::SYS_EPOLL_CREATE1);
        a.syscall();
        a.mov_reg(Reg::Rbp, Reg::Rax);
        emit_epoll_add(a, Reg::R12, events);
    }

    /// `epoll_wait(rbp, 0x8_0400, maxevents)`; exits with `bad` unless it
    /// returned exactly `count` events.
    fn emit_wait_expect(a: &mut Asm, maxevents: u64, count: i32, bad: u64, ok: &str) {
        a.mov_reg(Reg::Rdi, Reg::Rbp);
        a.mov_imm(Reg::Rsi, 0x8_0400);
        a.mov_imm(Reg::Rdx, maxevents);
        a.mov_imm(Reg::Rax, nr::SYS_EPOLL_WAIT);
        a.syscall();
        a.cmp_imm(Reg::Rax, count);
        a.jz(ok);
        emit_exit(a, bad);
        a.label(ok);
    }

    /// `epoll_wait(rbp, 0x8_0400, 8)`; exits with `bad` unless it
    /// returned exactly one event.
    fn emit_wait_expect_one(a: &mut Asm, bad: u64, ok: &str) {
        emit_wait_expect(a, 8, 1, bad, ok);
    }

    /// Exits with `bad` unless field `word` (0 = fd, 1 = events) of the
    /// `rec`-th record the last wait wrote equals register `want`.
    fn emit_expect_record(a: &mut Asm, rec: i32, word: i32, want: Reg, bad: u64, ok: &str) {
        a.mov_imm(Reg::R11, 0x8_0400);
        a.load(Reg::Rcx, Reg::R11, rec * 16 + word * 8);
        a.cmp_reg(Reg::Rcx, want);
        a.jz(ok);
        emit_exit(a, bad);
        a.label(ok);
    }

    /// `rax = nr_(fd, arg)` (the simplified socket ABI: bind/connect take
    /// a port, listen a backlog, accept nothing).
    fn emit_fd_call(a: &mut Asm, nr_: u64, fd: Reg, arg: u64) {
        a.mov_reg(Reg::Rdi, fd);
        a.mov_imm(Reg::Rsi, arg);
        a.mov_imm(Reg::Rax, nr_);
        a.syscall();
    }

    /// `dst = socket()`.
    fn emit_socket(a: &mut Asm, dst: Reg) {
        a.mov_imm(Reg::Rax, nr::SYS_SOCKET);
        a.syscall();
        a.mov_reg(dst, Reg::Rax);
    }

    /// `dst` = a socket bound to `port` and listening.
    fn emit_listener(a: &mut Asm, dst: Reg, port: u64) {
        emit_socket(a, dst);
        emit_fd_call(a, nr::SYS_BIND, dst, port);
        emit_fd_call(a, nr::SYS_LISTEN, dst, 0);
    }

    /// Level-triggered interest re-delivers as long as the fd stays
    /// readable: two consecutive waits without draining both return the
    /// event.
    #[test]
    fn level_triggered_epoll_redelivers_until_drained() {
        let mut a = Asm::new();
        emit_watched_pipe(&mut a, nr::EPOLLIN);
        emit_wait_expect_one(&mut a, 1, "w1");
        emit_wait_expect_one(&mut a, 2, "w2");
        // The delivered record is [fd u64][events u64] with our rfd.
        a.mov_imm(Reg::R11, 0x8_0400);
        a.inst(sim_isa::Inst::Load(Reg::Rcx, Reg::R11, 0));
        a.cmp_reg(Reg::Rcx, Reg::R12);
        a.jz("fd_ok");
        a.mov_imm(Reg::Rdi, 3);
        a.mov_imm(Reg::Rax, nr::SYS_EXIT_GROUP);
        a.syscall();
        a.label("fd_ok");
        a.mov_imm(Reg::Rdi, 0);
        a.mov_imm(Reg::Rax, nr::SYS_EXIT_GROUP);
        a.syscall();
        let (mut k, pid) = kernel_with(a.finish());
        assert_eq!(k.run(10_000_000_000), RunExit::AllExited);
        assert_eq!(k.process(pid).unwrap().exit_status, Some(0));
    }

    /// Edge-triggered interest fires once per not-ready -> ready
    /// transition: a drain + rewrite with no wait in between produces a
    /// fresh edge (the edge re-arms at the drain itself), and the next
    /// wait on undrained data parks forever.
    #[test]
    fn edge_triggered_epoll_fires_once_per_edge() {
        let mut a = Asm::new();
        emit_watched_pipe(&mut a, nr::EPOLLIN | nr::EPOLLET);
        emit_wait_expect_one(&mut a, 1, "w1");
        // Drain the byte (readiness drops: the edge re-arms), write a new
        // one, and expect a second delivery.
        a.mov_reg(Reg::Rdi, Reg::R12);
        a.mov_imm(Reg::Rsi, 0x8_0200);
        a.mov_imm(Reg::Rdx, 1);
        a.mov_imm(Reg::Rax, nr::SYS_READ);
        a.syscall();
        a.mov_reg(Reg::Rdi, Reg::R13);
        a.mov_imm(Reg::Rsi, 0x8_0200);
        a.mov_imm(Reg::Rdx, 1);
        a.mov_imm(Reg::Rax, nr::SYS_WRITE);
        a.syscall();
        emit_wait_expect_one(&mut a, 2, "w2");
        // Marker: the second delivery happened.
        a.mov_imm(Reg::R14, 0x77);
        // Same edge again, no drain: this wait must park forever.
        a.mov_reg(Reg::Rdi, Reg::Rbp);
        a.mov_imm(Reg::Rsi, 0x8_0400);
        a.mov_imm(Reg::Rdx, 8);
        a.mov_imm(Reg::Rax, nr::SYS_EPOLL_WAIT);
        a.syscall();
        a.mov_imm(Reg::Rdi, 9);
        a.mov_imm(Reg::Rax, nr::SYS_EXIT_GROUP);
        a.syscall();
        let (mut k, pid) = kernel_with(a.finish());
        assert_eq!(k.run(10_000_000_000), RunExit::Deadlock);
        // Parked, not exited: the checks before the final wait passed.
        let p = k.process(pid).unwrap();
        assert_eq!(p.exit_status, None);
        // ...and it parked in the final wait, not in w2.
        assert_eq!(p.threads[0].cpu.get(Reg::R14), 0x77, "refill gave no fresh edge");
    }

    /// EPOLLONESHOT disarms after one delivery (the second wait parks on
    /// still-readable data) and EPOLL_CTL_MOD re-arms.
    #[test]
    fn epoll_oneshot_disarms_until_mod_rearms() {
        let mut a = Asm::new();
        emit_watched_pipe(&mut a, nr::EPOLLIN | nr::EPOLLONESHOT);
        emit_wait_expect_one(&mut a, 1, "w1");
        // Re-arm with MOD; level-triggered readiness redelivers.
        a.mov_reg(Reg::Rdi, Reg::Rbp);
        a.mov_imm(Reg::Rsi, nr::EPOLL_CTL_MOD);
        a.mov_reg(Reg::Rdx, Reg::R12);
        a.mov_imm(Reg::R10, nr::EPOLLIN | nr::EPOLLONESHOT);
        a.mov_imm(Reg::Rax, nr::SYS_EPOLL_CTL);
        a.syscall();
        emit_wait_expect_one(&mut a, 2, "w2");
        // Disarmed again, still readable: park forever.
        a.mov_reg(Reg::Rdi, Reg::Rbp);
        a.mov_imm(Reg::Rsi, 0x8_0400);
        a.mov_imm(Reg::Rdx, 8);
        a.mov_imm(Reg::Rax, nr::SYS_EPOLL_WAIT);
        a.syscall();
        a.mov_imm(Reg::Rdi, 9);
        a.mov_imm(Reg::Rax, nr::SYS_EXIT_GROUP);
        a.syscall();
        let (mut k, pid) = kernel_with(a.finish());
        assert_eq!(k.run(10_000_000_000), RunExit::Deadlock);
        assert_eq!(k.process(pid).unwrap().exit_status, None);
    }

    /// Closing a watched fd removes it from every interest set: a
    /// subsequent DEL reports ENOENT, ADD on a never-open fd reports
    /// EBADF, and a wait on the emptied instance parks despite the byte
    /// still sitting in the (now closed) pipe.
    #[test]
    fn epoll_on_closed_fd_is_removed_and_rejected() {
        let mut a = Asm::new();
        emit_watched_pipe(&mut a, nr::EPOLLIN);
        a.mov_reg(Reg::Rdi, Reg::R12);
        a.mov_imm(Reg::Rax, nr::SYS_CLOSE);
        a.syscall();
        // DEL on the closed fd: the close already dropped the entry AND
        // the fd, so the fd lookup itself reports EBADF.
        a.mov_reg(Reg::Rdi, Reg::Rbp);
        a.mov_imm(Reg::Rsi, nr::EPOLL_CTL_DEL);
        a.mov_reg(Reg::Rdx, Reg::R12);
        a.mov_imm(Reg::R10, 0);
        a.mov_imm(Reg::Rax, nr::SYS_EPOLL_CTL);
        a.syscall();
        a.cmp_imm(Reg::Rax, -(nr::EBADF as i32));
        a.jz("del_ok");
        a.mov_imm(Reg::Rdi, 1);
        a.mov_imm(Reg::Rax, nr::SYS_EXIT_GROUP);
        a.syscall();
        a.label("del_ok");
        // ADD on a never-open fd: EBADF.
        a.mov_reg(Reg::Rdi, Reg::Rbp);
        a.mov_imm(Reg::Rsi, nr::EPOLL_CTL_ADD);
        a.mov_imm(Reg::Rdx, 99);
        a.mov_imm(Reg::R10, nr::EPOLLIN);
        a.mov_imm(Reg::Rax, nr::SYS_EPOLL_CTL);
        a.syscall();
        a.cmp_imm(Reg::Rax, -(nr::EBADF as i32));
        a.jz("add_ok");
        a.mov_imm(Reg::Rdi, 2);
        a.mov_imm(Reg::Rax, nr::SYS_EXIT_GROUP);
        a.syscall();
        a.label("add_ok");
        // Empty interest set: the wait parks forever.
        a.mov_reg(Reg::Rdi, Reg::Rbp);
        a.mov_imm(Reg::Rsi, 0x8_0400);
        a.mov_imm(Reg::Rdx, 8);
        a.mov_imm(Reg::Rax, nr::SYS_EPOLL_WAIT);
        a.syscall();
        a.mov_imm(Reg::Rdi, 9);
        a.mov_imm(Reg::Rax, nr::SYS_EXIT_GROUP);
        a.syscall();
        let (mut k, pid) = kernel_with(a.finish());
        assert_eq!(k.run(10_000_000_000), RunExit::Deadlock);
        assert_eq!(k.process(pid).unwrap().exit_status, None);
    }

    /// Port the socket tests listen on.
    const TEST_PORT: u64 = 7070;

    /// A socket registered for `EPOLLOUT` while still unbound is quiet, so
    /// the first wait drops it from the candidate set; `connect` re-types
    /// it without waking anyone, and the next wait must still report it.
    #[test]
    fn epoll_reports_socket_connected_after_registration() {
        let mut a = Asm::new();
        emit_watched_pipe(&mut a, nr::EPOLLIN);
        emit_listener(&mut a, Reg::R14, TEST_PORT);
        emit_socket(&mut a, Reg::R15);
        emit_epoll_add(&mut a, Reg::R15, nr::EPOLLOUT);
        emit_wait_expect(&mut a, 8, 1, 1, "w1");
        emit_fd_call(&mut a, nr::SYS_CONNECT, Reg::R15, TEST_PORT);
        emit_wait_expect(&mut a, 8, 2, 2, "w2");
        emit_expect_record(&mut a, 1, 0, Reg::R15, 3, "fd_ok");
        a.mov_imm(Reg::Rbx, nr::EPOLLOUT);
        emit_expect_record(&mut a, 1, 1, Reg::Rbx, 4, "events_ok");
        emit_exit(&mut a, 0);
        let (mut k, pid) = kernel_with(a.finish());
        assert_eq!(k.run(10_000_000_000), RunExit::AllExited);
        assert_eq!(k.process(pid).unwrap().exit_status, Some(0));
    }

    /// An eventfd reports `EPOLLIN` after a write and stops after a `read`
    /// resets its counter. A `dup` of it watched edge-triggered leaves the
    /// candidate set once its edge is reported; the reset must re-arm that
    /// edge although it wakes nobody, so the next write fires it again.
    #[test]
    fn epoll_tracks_eventfd_write_and_read_reset() {
        let mut a = Asm::new();
        emit_watched_pipe(&mut a, nr::EPOLLIN);
        a.mov_imm(Reg::Rdi, 0);
        a.mov_imm(Reg::Rsi, 0);
        a.mov_imm(Reg::Rax, nr::SYS_EVENTFD2);
        a.syscall();
        a.mov_reg(Reg::R14, Reg::Rax);
        emit_epoll_add(&mut a, Reg::R14, nr::EPOLLIN);
        emit_fd_call(&mut a, nr::SYS_DUP, Reg::R14, 0);
        a.mov_reg(Reg::R15, Reg::Rax);
        emit_epoll_add(&mut a, Reg::R15, nr::EPOLLIN | nr::EPOLLET);
        emit_wait_expect(&mut a, 8, 1, 1, "w1");
        // Counter += 1: both views become readable.
        a.mov_imm(Reg::R11, 0x8_0300);
        a.mov_imm(Reg::Rcx, 1);
        a.store(Reg::R11, 0, Reg::Rcx);
        a.mov_reg(Reg::Rdi, Reg::R14);
        a.mov_imm(Reg::Rsi, 0x8_0300);
        a.mov_imm(Reg::Rdx, 8);
        a.mov_imm(Reg::Rax, nr::SYS_WRITE);
        a.syscall();
        emit_wait_expect(&mut a, 8, 3, 2, "w2");
        // Level-triggered redelivers, edge-triggered does not.
        emit_wait_expect(&mut a, 8, 2, 3, "w3");
        // Reset the counter (reads back the 1 into 0x8_0300).
        a.mov_reg(Reg::Rdi, Reg::R14);
        a.mov_imm(Reg::Rsi, 0x8_0300);
        a.mov_imm(Reg::Rdx, 8);
        a.mov_imm(Reg::Rax, nr::SYS_READ);
        a.syscall();
        emit_wait_expect(&mut a, 8, 1, 4, "w4");
        a.mov_reg(Reg::Rdi, Reg::R14);
        a.mov_imm(Reg::Rsi, 0x8_0300);
        a.mov_imm(Reg::Rdx, 8);
        a.mov_imm(Reg::Rax, nr::SYS_WRITE);
        a.syscall();
        emit_wait_expect(&mut a, 8, 3, 5, "w5");
        emit_exit(&mut a, 0);
        let (mut k, pid) = kernel_with(a.finish());
        assert_eq!(k.run(10_000_000_000), RunExit::AllExited);
        assert_eq!(k.process(pid).unwrap().exit_status, Some(0));
    }

    /// An edge-triggered listener fires again when `accept` drains its
    /// backlog and a new `connect` refills it, with no wait in between.
    #[test]
    fn edge_triggered_listener_refires_after_accept_and_refill() {
        let mut a = Asm::new();
        emit_watched_pipe(&mut a, nr::EPOLLIN);
        emit_listener(&mut a, Reg::R14, TEST_PORT);
        emit_epoll_add(&mut a, Reg::R14, nr::EPOLLIN | nr::EPOLLET);
        emit_socket(&mut a, Reg::R15);
        emit_fd_call(&mut a, nr::SYS_CONNECT, Reg::R15, TEST_PORT);
        emit_wait_expect(&mut a, 8, 2, 1, "w1");
        emit_fd_call(&mut a, nr::SYS_ACCEPT, Reg::R14, 0);
        emit_socket(&mut a, Reg::Rbx);
        emit_fd_call(&mut a, nr::SYS_CONNECT, Reg::Rbx, TEST_PORT);
        emit_wait_expect(&mut a, 8, 2, 2, "w2");
        emit_expect_record(&mut a, 1, 0, Reg::R14, 3, "fd_ok");
        emit_exit(&mut a, 0);
        let (mut k, pid) = kernel_with(a.finish());
        assert_eq!(k.run(10_000_000_000), RunExit::AllExited);
        assert_eq!(k.process(pid).unwrap().exit_status, Some(0));
    }

    /// Three ready edge-triggered pipes and `maxevents = 2`: the first wait
    /// reports the two lowest fds, and the one cut off stays pending for
    /// the next wait.
    #[test]
    fn edge_triggered_maxevents_cut_defers_the_rest() {
        let mut a = Asm::new();
        emit_watched_pipe(&mut a, nr::EPOLLIN | nr::EPOLLET);
        emit_pipe_with_byte(&mut a, Reg::R14, Reg::R15);
        emit_epoll_add(&mut a, Reg::R14, nr::EPOLLIN | nr::EPOLLET);
        emit_pipe_with_byte(&mut a, Reg::Rbx, Reg::R8);
        emit_epoll_add(&mut a, Reg::Rbx, nr::EPOLLIN | nr::EPOLLET);
        emit_wait_expect(&mut a, 2, 2, 1, "w1");
        emit_expect_record(&mut a, 0, 0, Reg::R12, 2, "first_ok");
        emit_expect_record(&mut a, 1, 0, Reg::R14, 3, "second_ok");
        emit_wait_expect(&mut a, 2, 1, 4, "w2");
        emit_expect_record(&mut a, 0, 0, Reg::Rbx, 5, "third_ok");
        emit_exit(&mut a, 0);
        let (mut k, pid) = kernel_with(a.finish());
        assert_eq!(k.run(10_000_000_000), RunExit::AllExited);
        assert_eq!(k.process(pid).unwrap().exit_status, Some(0));
    }

    /// A disarmed `EPOLLONESHOT` member leaves the candidate set at the
    /// next wait; `EPOLL_CTL_MOD` must put it back, or the re-armed member
    /// would never be evaluated again.
    #[test]
    fn epoll_mod_rearms_a_member_that_left_the_candidates() {
        let mut a = Asm::new();
        emit_watched_pipe(&mut a, nr::EPOLLIN);
        emit_pipe_with_byte(&mut a, Reg::R14, Reg::R15);
        emit_epoll_add(&mut a, Reg::R14, nr::EPOLLIN | nr::EPOLLONESHOT);
        emit_wait_expect(&mut a, 8, 2, 1, "w1");
        emit_wait_expect(&mut a, 8, 1, 2, "w2");
        a.mov_reg(Reg::Rdi, Reg::Rbp);
        a.mov_imm(Reg::Rsi, nr::EPOLL_CTL_MOD);
        a.mov_reg(Reg::Rdx, Reg::R14);
        a.mov_imm(Reg::R10, nr::EPOLLIN | nr::EPOLLONESHOT);
        a.mov_imm(Reg::Rax, nr::SYS_EPOLL_CTL);
        a.syscall();
        emit_wait_expect(&mut a, 8, 2, 3, "w3");
        emit_exit(&mut a, 0);
        let (mut k, pid) = kernel_with(a.finish());
        assert_eq!(k.run(10_000_000_000), RunExit::AllExited);
        assert_eq!(k.process(pid).unwrap().exit_status, Some(0));
    }
}
