//! Processes, threads, file descriptors, and per-thread SUD state.

use crate::nr;
use sim_cpu::Cpu;
use sim_mem::AddressSpace;
use std::collections::{BTreeMap, BTreeSet};

/// Process identifier.
pub type Pid = u64;
/// Thread identifier (global, not per-process).
pub type Tid = u64;

/// Per-thread Syscall User Dispatch configuration (the `prctl` interface,
/// paper §2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sud {
    /// Guest address of the selector byte (0 = allow, 1 = block).
    pub selector_addr: u64,
    /// Start of the allowlisted range that always bypasses dispatch.
    pub range_start: u64,
    /// Length of the allowlisted range.
    pub range_len: u64,
}

impl Sud {
    /// True if a syscall issued from `rip` bypasses dispatch regardless of
    /// the selector.
    pub fn in_allowlist(&self, rip: u64) -> bool {
        rip >= self.range_start && rip < self.range_start.saturating_add(self.range_len)
    }
}

/// A seccomp filter action for one syscall number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeccompAction {
    /// Let the syscall run.
    Allow,
    /// Fail the syscall with `-errno` without executing it.
    Errno(i64),
    /// Kill the process (SECCOMP_RET_KILL_PROCESS).
    Kill,
}

/// A minimal seccomp filter: per-number actions plus a default.
#[derive(Debug, Clone)]
pub struct SeccompFilter {
    /// Actions for specific syscall numbers.
    pub rules: std::collections::BTreeMap<u64, SeccompAction>,
    /// Action for numbers not in `rules`.
    pub default: SeccompAction,
}

impl SeccompFilter {
    /// The action for syscall `nr`.
    pub fn action(&self, nr: u64) -> SeccompAction {
        self.rules.get(&nr).copied().unwrap_or(self.default)
    }
}

/// A registered signal handler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SigAction {
    /// Guest address of the handler entry point.
    pub handler: u64,
    /// Registered with [`crate::nr::SIGACT_MASK_ALL`]: while this handler
    /// runs, further asynchronous signals queue until `rt_sigreturn`
    /// (the simplified stand-in for `sa_mask = all`). Synchronous faults
    /// (SIGSEGV, SIGSYS) still deliver immediately.
    pub mask_all: bool,
}

/// What a blocked thread is waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wait {
    /// Readable data (or EOF) on a channel end.
    ChannelReadable {
        /// Channel index in the kernel's channel table.
        chan: usize,
        /// Which end this thread reads from.
        end: crate::net::End,
    },
    /// A connection arriving on a listening port.
    Accept {
        /// The listening port.
        port: u16,
    },
    /// Any child to exit (`wait4`).
    Child,
    /// The global clock to reach a deadline (`nanosleep`).
    Sleep {
        /// Absolute cycle deadline.
        until: u64,
    },
    /// A futex wake on the given guest address.
    Futex {
        /// The futex word address.
        addr: u64,
    },
    /// Buffer space to write into a channel end (bounded buffers).
    ChannelWritable {
        /// Channel index in the kernel's channel table.
        chan: usize,
        /// Which end this thread writes from.
        end: crate::net::End,
    },
    /// Room in a listening port's accept backlog (`connect` on a full
    /// backlog parks until an `accept` drains a slot).
    Backlog {
        /// The listening port.
        port: u16,
    },
    /// Readiness on any member of an epoll interest set. Deliberately
    /// payload-free: readiness transitions wake *all* epoll waiters, which
    /// deterministically re-evaluate their instance's candidate members
    /// (see [`Epoll`]) and re-block if nothing is ready. Simulated context
    /// switches depend on this wake policy, so it stays broad even though
    /// the re-evaluation itself only touches candidates.
    Epoll,
    /// A nonzero eventfd counter (`read` on an empty eventfd).
    EventFd {
        /// Eventfd object index in the owning process.
        id: usize,
    },
}

/// Thread run state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadState {
    /// Eligible to run.
    Runnable,
    /// Waiting on [`Wait`].
    Blocked(Wait),
    /// Finished.
    Exited,
}

/// A guest thread: one CPU core's worth of state plus kernel bookkeeping.
#[derive(Debug, Clone)]
pub struct Thread {
    /// Global thread id.
    pub tid: Tid,
    /// Architectural state.
    pub cpu: Cpu,
    /// Run state.
    pub state: ThreadState,
    /// SUD configuration, if armed. Arming puts *every* kernel entry by this
    /// thread on the slow path (paper §6.2.1).
    pub sud: Option<Sud>,
    /// Stack of live signal-frame base addresses (innermost last).
    pub sig_frames: Vec<u64>,
    /// Parallel to `sig_frames`: whether each live frame's handler was
    /// registered with `SIGACT_MASK_ALL` (defers async signals).
    pub frame_masked: Vec<bool>,
    /// Asynchronous signals deferred while a masking handler runs,
    /// delivered FIFO at `rt_sigreturn`.
    pub pending_signals: Vec<crate::signal::SigInfo>,
    /// Set while the thread is re-executing a syscall it blocked in: the
    /// retry resumes *in-kernel* (no second entry cost, no re-dispatch).
    pub restarting: bool,
}

impl Thread {
    /// A fresh runnable thread.
    pub fn new(tid: Tid) -> Thread {
        Thread {
            tid,
            cpu: Cpu::new(),
            state: ThreadState::Runnable,
            sud: None,
            sig_frames: Vec::new(),
            frame_masked: Vec::new(),
            pending_signals: Vec::new(),
            restarting: false,
        }
    }
}

/// One open file description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FdEntry {
    /// Console (stdin reads EOF; stdout/stderr append to the process's
    /// captured output).
    Console,
    /// A VFS-backed file.
    File {
        /// Absolute path.
        path: String,
        /// Read/write offset.
        offset: u64,
    },
    /// A snapshot pseudo-file (e.g. `/proc/$PID/maps` captured at open).
    Snapshot {
        /// Contents frozen at open time.
        data: Vec<u8>,
        /// Read offset.
        offset: u64,
    },
    /// Read end of a pipe/socketpair channel.
    ChannelRead {
        /// Channel index.
        chan: usize,
        /// Which end.
        end: crate::net::End,
    },
    /// Write end of a channel.
    ChannelWrite {
        /// Channel index.
        chan: usize,
        /// Which end.
        end: crate::net::End,
    },
    /// A connected socket (bidirectional channel end).
    Socket {
        /// Channel index.
        chan: usize,
        /// Which end.
        end: crate::net::End,
    },
    /// An unbound/unconnected socket placeholder.
    SocketUnbound,
    /// A listening socket.
    Listener {
        /// Bound port.
        port: u16,
    },
    /// An epoll instance (readiness multiplexer).
    Epoll {
        /// Index into the owning process's `epolls` table.
        id: usize,
    },
    /// An eventfd counter object.
    EventFd {
        /// Index into the owning process's `eventfds` table.
        id: usize,
    },
}

/// One fd's membership in an epoll interest set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpollEntry {
    /// Requested event mask (`EPOLLIN`/`EPOLLOUT` plus `EPOLLET` /
    /// `EPOLLONESHOT` modifiers).
    pub events: u64,
    /// Cleared by a delivered `EPOLLONESHOT` event until re-armed via
    /// `EPOLL_CTL_MOD`.
    pub armed: bool,
    /// Edge-trigger memory: bits already reported while continuously
    /// ready. A bit leaves this set when the fd stops being ready for it,
    /// re-arming the edge.
    pub seen: u64,
}

impl EpollEntry {
    /// The per-entry rule of `epoll_wait`, given the fd's current readiness
    /// `cur`: returns `(fresh, seen)`, the events this entry would report
    /// (before the `maxevents` cut) and its edge memory with the bits that
    /// stopped being ready re-armed. A disarmed entry reports nothing and
    /// keeps its memory.
    pub(crate) fn poll(&self, cur: u64) -> (u64, u64) {
        if !self.armed {
            return (0, self.seen);
        }
        let seen = self.seen & cur;
        let wanted = cur & (self.events | nr::EPOLLHUP | nr::EPOLLERR);
        let fresh = if self.events & nr::EPOLLET != 0 {
            wanted & !seen
        } else {
            wanted
        };
        (fresh, seen)
    }
}

/// What an fd's readiness follows, packed into one word for the epoll
/// member index: the top two bits name the kind (channel, listening port,
/// eventfd counter), the rest its channel index, port or eventfd id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Source(u64);

impl Source {
    /// A channel, by index.
    pub(crate) fn chan(chan: usize) -> Source {
        Source(chan as u64)
    }

    /// A listening port.
    pub(crate) fn port(port: u16) -> Source {
        Source(1 << 62 | u64::from(port))
    }

    /// An eventfd counter, by per-process id.
    pub(crate) fn eventfd(id: usize) -> Source {
        Source(2 << 62 | id as u64)
    }

    /// The source `entry`'s readiness follows; `None` when it cannot change
    /// while the fd keeps its type (files and the console are always
    /// ready, an unbound socket never is).
    pub(crate) fn of(entry: &FdEntry) -> Option<Source> {
        match entry {
            FdEntry::ChannelRead { chan, .. }
            | FdEntry::ChannelWrite { chan, .. }
            | FdEntry::Socket { chan, .. } => Some(Source::chan(*chan)),
            FdEntry::Listener { port } => Some(Source::port(*port)),
            FdEntry::EventFd { id } => Some(Source::eventfd(*id)),
            _ => None,
        }
    }
}

/// An epoll instance: interest set keyed by member fd (BTreeMap iteration
/// order makes `epoll_wait` output deterministic and fd-ordered).
///
/// `epoll_wait` evaluates only the *candidate* members. Every other armed
/// member is *quiet*: the per-entry rule would give it no event and no
/// `seen`/armed update. A member becomes a candidate when `epoll_ctl`
/// adds or modifies it, or when the kernel marks its readiness source
/// (see `Kernel::mark_readiness`); it leaves when a wait finds it quiet.
/// Both structures live here so that fork's clone and process exit carry
/// them along with the interest set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Epoll {
    /// Member fd → registration.
    pub interest: BTreeMap<i64, EpollEntry>,
    /// Open descriptor count (dup shares the instance).
    pub refs: u32,
    /// Members the next wait must evaluate, in fd order.
    pub(crate) candidates: BTreeSet<i64>,
    /// `(source, fd)` for every member whose readiness follows a source.
    pub(crate) index: BTreeSet<(Source, i64)>,
}

impl Epoll {
    /// Registers `fd`, whose readiness follows `src`, as a candidate.
    /// Returns false, changing nothing, if it is already a member.
    pub(crate) fn add(&mut self, fd: i64, src: Option<Source>, reg: EpollEntry) -> bool {
        if self.interest.contains_key(&fd) {
            return false;
        }
        self.interest.insert(fd, reg);
        self.candidates.insert(fd);
        if let Some(src) = src {
            self.index.insert((src, fd));
        }
        true
    }

    /// Drops member `fd`, whose readiness follows `src`.
    pub(crate) fn remove(&mut self, fd: i64, src: Option<Source>) -> Option<EpollEntry> {
        let reg = self.interest.remove(&fd)?;
        self.candidates.remove(&fd);
        if let Some(src) = src {
            self.index.remove(&(src, fd));
        }
        Some(reg)
    }

    /// Indexes member `fd` under `src` once its fd gained a source: `bind`
    /// or `connect` on a registered unbound socket, which had none.
    pub(crate) fn index_member(&mut self, fd: i64, src: Source) {
        if self.interest.contains_key(&fd) {
            self.index.insert((src, fd));
        }
    }

    /// Makes every member following `src` a candidate and clears from its
    /// edge memory the bits its fd no longer has (`readiness` gives an
    /// fd's current mask): an edge re-arms at the readiness change itself,
    /// so a drain and refill between two waits still yields a fresh edge.
    pub(crate) fn mark(&mut self, src: Source, readiness: impl Fn(i64) -> u64) {
        for &(_, fd) in self.index.range((src, i64::MIN)..=(src, i64::MAX)) {
            self.candidates.insert(fd);
            if let Some(e) = self.interest.get_mut(&fd) {
                e.seen &= readiness(fd);
            }
        }
    }
}

/// Per-process statistics (observability for tests and experiments).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProcStats {
    /// Syscalls the kernel executed on behalf of this process.
    pub syscalls: u64,
    /// Executed syscalls broken down by number.
    pub per_syscall: std::collections::BTreeMap<u64, u64>,
    /// Executed syscalls broken down by the region containing the issuing
    /// `syscall` instruction. Syscalls attributed to an interposer library's
    /// region were, by construction, interposed — the measurement the
    /// pitfall matrix uses.
    pub syscalls_via: std::collections::BTreeMap<String, u64>,
    /// Executed syscalls broken down by exact issuing site address.
    pub per_site: std::collections::BTreeMap<u64, u64>,
    /// Syscalls executed before the process's interposer announced itself
    /// (see [`Process::interposer_live`]); the P2b metric.
    pub syscalls_before_interposer: u64,
    /// SIGSYS deliveries (SUD traps).
    pub sigsys_count: u64,
    /// vDSO fast-path calls (never enter the kernel).
    pub vdso_calls: u64,
    /// Signal deliveries of any kind.
    pub signals: u64,
}

impl ProcStats {
    /// Executed count of one syscall number.
    pub fn syscall_count_of(&self, nr: u64) -> u64 {
        self.per_syscall.get(&nr).copied().unwrap_or(0)
    }

    /// Executed syscalls whose issuing instruction lives in `region`.
    pub fn syscalls_via_region(&self, region: &str) -> u64 {
        self.syscalls_via.get(region).copied().unwrap_or(0)
    }

    /// Executed syscalls issued from the exact instruction at `site`.
    pub fn syscalls_at_site(&self, site: u64) -> u64 {
        self.per_site.get(&site).copied().unwrap_or(0)
    }
}

/// A guest process.
#[derive(Debug, Clone)]
pub struct Process {
    /// Process id.
    pub pid: Pid,
    /// Parent pid (0 for the initial process).
    pub ppid: Pid,
    /// Executable path (latest `execve`).
    pub exe: String,
    /// Address space (shared by all threads).
    pub space: AddressSpace,
    /// Threads (index 0 is the main thread).
    pub threads: Vec<Thread>,
    /// Open file descriptors.
    pub fds: BTreeMap<i64, FdEntry>,
    next_fd: i64,
    /// Environment (`KEY=value` strings), as passed to `execve`.
    pub env: Vec<String>,
    /// Arguments.
    pub argv: Vec<String>,
    /// Working directory.
    pub cwd: String,
    /// Registered signal handlers.
    pub sigactions: BTreeMap<u64, SigAction>,
    /// Exit status once the process has fully exited.
    pub exit_status: Option<i64>,
    /// Children that exited and have not been reaped: (pid, status).
    pub zombies: Vec<(Pid, i64)>,
    /// Live children.
    pub children: Vec<Pid>,
    /// Captured stdout/stderr bytes.
    pub output: Vec<u8>,
    /// Next protection key for `pkey_alloc`.
    pub next_pkey: u8,
    /// Statistics.
    pub stats: ProcStats,
    /// Set by interposers once their in-process component is initialized;
    /// used to measure how many syscalls escaped before that point (P2b).
    pub interposer_live: bool,
    /// Whether vDSO acceleration is enabled for this image (a tracer can
    /// disable it at exec so vDSO calls fall back to real syscalls, §5.2).
    pub vdso_enabled: bool,
    /// Base address of the mapped vDSO (0 when absent).
    pub vdso_base: u64,
    /// Symbol table of the loaded image: `"region:symbol"` → vaddr.
    pub symbols: BTreeMap<String, u64>,
    /// Base address of each loaded region, keyed by region name.
    pub lib_bases: BTreeMap<String, u64>,
    /// Installed seccomp filter, if any (checked on every dispatch; like
    /// Linux, it cannot be removed once installed).
    pub seccomp: Option<SeccompFilter>,
    /// Active-layer bitmask of the installed interposer stack: bit *i*
    /// set means layer *i* of the session interposes this process. Zero
    /// (the default) leaves the chain inert. Fork/execve filter it by the
    /// layers' propagation flags.
    pub stack_mask: u64,
    /// Cached chain-site resolution for the stack's site filter:
    /// `(symbols.len() key, sorted site addresses)`, invalidated on exec
    /// and whenever the symbol table changes size.
    pub(crate) chain_sites: Option<(usize, Vec<u64>)>,
    /// Memoized `site → containing-region name` for per-syscall accounting:
    /// `site → (space generation, region name)`. Entries are valid only
    /// while the space generation is unchanged, so mapping churn can never
    /// yield stale attribution.
    pub(crate) region_cache: sim_cpu::FastMap<u64, (u64, String)>,
    /// Lazily built address-sorted symbol table for profiler
    /// symbolization, keyed by `symbols.len()` for invalidation and
    /// explicitly cleared on exec.
    pub(crate) symcache: Option<(usize, Vec<(u64, String)>)>,
    /// Epoll instances owned by this process, keyed by the `id` inside
    /// `FdEntry::Epoll`. Slots persist after close (ids stay stable);
    /// `refs == 0` marks a dead instance.
    pub epolls: BTreeMap<usize, Epoll>,
    /// Next epoll instance id.
    pub(crate) next_epoll: usize,
    /// Eventfd counters, keyed by the `id` inside `FdEntry::EventFd`:
    /// `(counter value, open descriptor count)`.
    pub eventfds: BTreeMap<usize, (u64, u32)>,
    /// Next eventfd id.
    pub(crate) next_eventfd: usize,
    /// Fds with `O_NONBLOCK` set via `fcntl(F_SETFL)`.
    pub nonblock: std::collections::BTreeSet<i64>,
}

impl Process {
    /// A new single-threaded process shell (the loader fills the space).
    pub fn new(pid: Pid, ppid: Pid, main_tid: Tid) -> Process {
        let mut fds = BTreeMap::new();
        fds.insert(0, FdEntry::Console);
        fds.insert(1, FdEntry::Console);
        fds.insert(2, FdEntry::Console);
        Process {
            pid,
            ppid,
            exe: String::new(),
            space: AddressSpace::new(),
            threads: vec![Thread::new(main_tid)],
            fds,
            next_fd: 3,
            env: Vec::new(),
            argv: Vec::new(),
            cwd: "/".to_string(),
            sigactions: BTreeMap::new(),
            exit_status: None,
            zombies: Vec::new(),
            children: Vec::new(),
            output: Vec::new(),
            next_pkey: 1,
            stats: ProcStats::default(),
            interposer_live: false,
            vdso_enabled: true,
            vdso_base: 0,
            symbols: BTreeMap::new(),
            lib_bases: BTreeMap::new(),
            seccomp: None,
            stack_mask: 0,
            chain_sites: None,
            region_cache: sim_cpu::FastMap::default(),
            symcache: None,
            epolls: BTreeMap::new(),
            next_epoll: 0,
            eventfds: BTreeMap::new(),
            next_eventfd: 0,
            nonblock: std::collections::BTreeSet::new(),
        }
    }

    /// Allocates a fresh epoll instance with one descriptor reference.
    pub fn alloc_epoll(&mut self) -> usize {
        let id = self.next_epoll;
        self.next_epoll += 1;
        self.epolls.insert(
            id,
            Epoll {
                refs: 1,
                ..Epoll::default()
            },
        );
        id
    }

    /// Allocates a fresh eventfd with the given initial counter.
    pub fn alloc_eventfd(&mut self, initval: u64) -> usize {
        let id = self.next_eventfd;
        self.next_eventfd += 1;
        self.eventfds.insert(id, (initval, 1));
        id
    }

    /// Allocates the lowest free fd ≥ 3.
    pub fn alloc_fd(&mut self, entry: FdEntry) -> i64 {
        let fd = self.next_fd;
        self.next_fd += 1;
        self.fds.insert(fd, entry);
        fd
    }

    /// Looks up an environment variable.
    pub fn getenv(&self, key: &str) -> Option<&str> {
        let prefix = format!("{key}=");
        self.env
            .iter()
            .find(|e| e.starts_with(&prefix))
            .map(|e| &e[prefix.len()..])
    }

    /// The thread with `tid`.
    pub fn thread(&self, tid: Tid) -> Option<&Thread> {
        self.threads.iter().find(|t| t.tid == tid)
    }

    /// The thread with `tid`, mutably.
    pub fn thread_mut(&mut self, tid: Tid) -> Option<&mut Thread> {
        self.threads.iter_mut().find(|t| t.tid == tid)
    }

    /// The loopback references the fd table holds, in fd order: channel
    /// ends and listening ports (fork adds them, exit drops them).
    pub(crate) fn net_refs(&self) -> (Vec<(usize, crate::net::End)>, Vec<u16>) {
        let mut chans = Vec::new();
        let mut ports = Vec::new();
        for fd in self.fds.values() {
            match fd {
                FdEntry::ChannelRead { chan, end }
                | FdEntry::ChannelWrite { chan, end }
                | FdEntry::Socket { chan, end } => chans.push((*chan, *end)),
                FdEntry::Listener { port } => ports.push(*port),
                _ => {}
            }
        }
        (chans, ports)
    }

    /// True when every thread has exited.
    pub fn all_threads_exited(&self) -> bool {
        self.threads.iter().all(|t| t.state == ThreadState::Exited)
    }

    /// Captured output as lossy UTF-8.
    pub fn output_string(&self) -> String {
        String::from_utf8_lossy(&self.output).into_owned()
    }

    /// Symbolizes guest addresses for the profiler: the greatest symbol
    /// at or below each address *within the same mapping*, else
    /// `basename+0xoffset` of the containing mapping, else the raw
    /// address. Names omit the intra-symbol offset so folded stacks
    /// aggregate by function.
    pub(crate) fn symbolize_frames(&mut self, addrs: &[u64]) -> Vec<String> {
        let n = self.symbols.len();
        if self.symcache.as_ref().map(|(k, _)| *k) != Some(n) {
            let mut tab: Vec<(u64, String)> = self
                .symbols
                .iter()
                .map(|(name, &addr)| (addr, name.clone()))
                .collect();
            tab.sort();
            // Aliased addresses keep the alphabetically first name.
            tab.dedup_by(|a, b| a.0 == b.0);
            self.symcache = Some((n, tab));
        }
        let tab = &self.symcache.as_ref().expect("just built").1;
        addrs
            .iter()
            .map(|&addr| {
                let mapping = self.space.mapping_at(addr);
                let idx = tab.partition_point(|e| e.0 <= addr);
                if idx > 0 {
                    let (sym_addr, name) = &tab[idx - 1];
                    if mapping.is_none_or(|m| *sym_addr >= m.start) {
                        return name.clone();
                    }
                }
                match mapping {
                    Some(m) => {
                        let base = m.name.rsplit('/').next().unwrap_or(&m.name);
                        format!("{}+{:#x}", base, addr - m.start)
                    }
                    None => format!("{addr:#x}"),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fds_start_after_stdio() {
        let mut p = Process::new(1, 0, 1);
        let fd = p.alloc_fd(FdEntry::SocketUnbound);
        assert_eq!(fd, 3);
        assert_eq!(p.fds.len(), 4);
    }

    #[test]
    fn getenv_finds_exact_key() {
        let mut p = Process::new(1, 0, 1);
        p.env = vec![
            "LD_PRELOAD=/lib/libk23.so".into(),
            "PATH=/bin".into(),
            "LD_PRELOAD_EXTRA=x".into(),
        ];
        assert_eq!(p.getenv("LD_PRELOAD"), Some("/lib/libk23.so"));
        assert_eq!(p.getenv("PATH"), Some("/bin"));
        assert_eq!(p.getenv("HOME"), None);
    }

    #[test]
    fn sud_allowlist() {
        let s = Sud {
            selector_addr: 0x100,
            range_start: 0x7000,
            range_len: 0x1000,
        };
        assert!(s.in_allowlist(0x7000));
        assert!(s.in_allowlist(0x7fff));
        assert!(!s.in_allowlist(0x8000));
        assert!(!s.in_allowlist(0x6fff));
    }
}
