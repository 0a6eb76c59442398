//! A single guest CPU core.

use crate::cost::CostModel;
use crate::fasthash::FastMap;
use crate::trace::{TraceCache, TraceOp, MAX_OPS};
use sim_isa::{decode, Cond, Inst, Reg};
use sim_mem::{AddressSpace, Fault, Pkru};

/// Arithmetic flags.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Flags {
    /// Zero.
    pub zf: bool,
    /// Sign.
    pub sf: bool,
    /// Carry (unsigned overflow / borrow).
    pub cf: bool,
    /// Signed overflow.
    pub of: bool,
}

impl Flags {
    fn pack(self) -> u64 {
        (self.zf as u64) | (self.sf as u64) << 1 | (self.cf as u64) << 2 | (self.of as u64) << 3
    }

    fn unpack(v: u64) -> Flags {
        Flags {
            zf: v & 1 != 0,
            sf: v & 2 != 0,
            cf: v & 4 != 0,
            of: v & 8 != 0,
        }
    }

    fn test(self, c: Cond) -> bool {
        match c {
            Cond::E => self.zf,
            Cond::Ne => !self.zf,
            Cond::B => self.cf,
            Cond::Ae => !self.cf,
            Cond::Be => self.cf || self.zf,
            Cond::A => !self.cf && !self.zf,
            Cond::S => self.sf,
            Cond::Ns => !self.sf,
            Cond::L => self.sf != self.of,
            Cond::Ge => self.sf == self.of,
            Cond::Le => self.zf || (self.sf != self.of),
            Cond::G => !self.zf && (self.sf == self.of),
        }
    }
}

/// What a [`Cpu::step`] produced beyond plain execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepEvent {
    /// Instruction retired normally.
    Executed,
    /// A `syscall`/`sysenter` was fetched at `site`. The CPU does **not**
    /// advance `rip` or touch registers — the kernel decides (execute, SUD
    /// SIGSYS, ptrace stop, ...).
    Syscall {
        /// Address of the first opcode byte.
        site: u64,
        /// True for `sysenter` (`0f 34`).
        sysenter: bool,
    },
    /// `hlt` executed (threads normally exit via `exit` syscalls; `hlt` is a
    /// hard stop used by bare tests).
    Hlt,
    /// `int3` breakpoint.
    Int3,
    /// A fetch or data access faulted; `rip` still points at the faulting
    /// instruction.
    Fault(Fault),
}

/// The result of one step: the event, the cycles consumed, and the decoded
/// instruction (when fetch succeeded) for tracing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    /// Outcome.
    pub event: StepEvent,
    /// Cycles consumed by this step.
    pub cycles: u64,
    /// The decoded instruction, if any.
    pub inst: Option<Inst>,
}

/// What [`Cpu::run_block`] produced: the exit event plus the block's
/// aggregate accounting, which matches a per-[`Cpu::step`] loop exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockExit {
    /// The event that ended the block ([`StepEvent::Executed`] when the
    /// budget ran out).
    pub event: StepEvent,
    /// Total cycles consumed by every step in the block.
    pub cycles: u64,
    /// Steps consumed (every step counts, including the final event step —
    /// the scheduler's slice accounting unit).
    pub steps: u64,
    /// `vsyscall` instructions executed within the block.
    pub vdso_calls: u64,
    /// Decoded instruction of the final step, if fetch succeeded.
    pub inst: Option<Inst>,
}

/// One guest core: registers + flags + PKRU + a decoded-instruction cache.
#[derive(Debug, Clone)]
pub struct Cpu {
    /// General-purpose registers, indexed by [`Reg::index`].
    pub regs: [u64; 16],
    /// Instruction pointer.
    pub rip: u64,
    /// Arithmetic flags.
    pub flags: Flags,
    /// Protection-key rights register (thread-local, as on real hardware).
    pub pkru: Pkru,
    icache: FastMap<u64, ICacheEntry>,
    /// Page base → rips of cached decodes whose bytes touch that page.
    /// Store invalidation consults only the (at most three) pages a store
    /// can affect instead of scanning the whole icache. Entries may be
    /// stale (decode already evicted); they are pruned lazily.
    icache_index: FastMap<u64, Vec<u64>>,
    /// Serialization generation: bumped by [`Cpu::flush_icache`]. Cached
    /// decodes whose `fresh_gen` lags are revalidated against page content
    /// versions before reuse (identical memory decodes identically, so this
    /// is guest-invisible) instead of being unconditionally re-decoded.
    flush_gen: u64,
    /// Reproduce the original engine's flush behavior (drop everything at
    /// every serialization point) instead of generation-based revalidation.
    /// Guest-invisible either way; the stepwise oracle runs with it on, so
    /// the SMC determinism tests compare the revalidating engines against
    /// it.
    seed_flush: bool,
    /// `AddressSpace` write stamp at the last real [`Cpu::serialize`]:
    /// while it is unchanged, serialization points are coalesced away
    /// (nothing was written anywhere in the space, so every revalidation
    /// would trivially succeed). Reset by any unconditional flush.
    last_serialize_stamp: Option<(u64, u64)>,
    /// Trace cache (superblock promotion). `None` only while
    /// [`Cpu::exec_trace`] has moved it out of `self`; store invalidation
    /// then buffers into `pending_trace_unlinks` instead of unlinking
    /// directly.
    trace: Option<Box<TraceCache>>,
    /// Set mid-replay (store into the replaying trace's pages, or any
    /// icache flush) to force a side exit at the next op boundary. A
    /// spurious side exit is always safe: cold execution is
    /// architecturally identical.
    trace_replay_break: bool,
    /// Page bases of the trace currently being replayed.
    replay_pages: Vec<u64>,
    /// Pages written while the trace cache was moved out; their traces
    /// are unlinked when the cache is put back.
    pending_trace_unlinks: Vec<u64>,
    /// Retired instruction count (for debugging and run limits).
    pub retired: u64,
}

/// One cached decode, revalidatable across serialization points.
#[derive(Debug, Clone, Copy)]
struct ICacheEntry {
    inst: Inst,
    len: u8,
    /// Usable without any checks while this equals [`Cpu::flush_gen`]
    /// (no serialization since decode — staleness is *required* then).
    fresh_gen: u64,
    /// [`AddressSpace::generation`] at decode time: mapping/protection
    /// changes force a real re-decode.
    mem_gen: u64,
    /// `(page base, content version)` for each page the decode's bytes
    /// touch (at most two: decodes are ≤ 10 bytes).
    pages: [(u64, u64); 2],
    npages: u8,
}

impl Default for Cpu {
    fn default() -> Self {
        Cpu::new()
    }
}

impl Cpu {
    /// A zeroed core.
    pub fn new() -> Cpu {
        Cpu {
            regs: [0; 16],
            rip: 0,
            flags: Flags::default(),
            pkru: Pkru::ALL_ACCESS,
            icache: FastMap::default(),
            icache_index: FastMap::default(),
            flush_gen: 0,
            seed_flush: false,
            last_serialize_stamp: None,
            trace: Some(Box::new(TraceCache::new())),
            trace_replay_break: false,
            replay_pages: Vec::new(),
            pending_trace_unlinks: Vec::new(),
            retired: 0,
        }
    }

    /// Register read.
    #[inline]
    pub fn get(&self, r: Reg) -> u64 {
        self.regs[r.index()]
    }

    /// Register write.
    #[inline]
    pub fn set(&mut self, r: Reg, v: u64) {
        self.regs[r.index()] = v;
    }

    /// Flushes the decoded-instruction cache (serializing event: `cpuid`,
    /// `fence`, or any kernel entry on this core).
    ///
    /// Architecturally this makes every store — own or cross-core — visible
    /// to subsequent fetches. The fast implementation bumps a generation and
    /// revalidates entries lazily against page content versions (unchanged
    /// bytes decode identically, so reuse is exact); seed mode drops the
    /// cache wholesale like the original engine.
    pub fn flush_icache(&mut self) {
        sim_obs::icache_flush();
        // An unconditional flush must not be coalesced with a later
        // serialize call, and invalidates any trace being recorded (its
        // ops were captured under the pre-flush generation).
        self.last_serialize_stamp = None;
        if let Some(tc) = &mut self.trace {
            tc.abort_recording();
        }
        // A replay in flight must side-exit: its ops were decoded under
        // the pre-flush generation (see `exec_trace`). Harmless outside
        // replay — the flag is reset when a replay starts.
        self.trace_replay_break = true;
        if self.seed_flush {
            self.icache.clear();
            self.icache_index.clear();
        } else {
            self.flush_gen += 1;
        }
    }

    /// A serialization point against `mem` (kernel entry, `cpuid`,
    /// `fence`, signal delivery): architecturally equivalent to
    /// [`Cpu::flush_icache`], but coalesced when `mem`'s write stamp is
    /// unchanged since the last real flush. No write, mapping, protection,
    /// or pkey change anywhere in the space means every cached decode (and
    /// trace) would revalidate trivially, so skipping the generation bump
    /// is guest-invisible — and the `icache_flushes` counter then reflects
    /// true serialization points instead of one flush per kernel entry.
    #[inline]
    pub fn serialize(&mut self, mem: &AddressSpace) {
        if self.seed_flush {
            self.flush_icache();
            return;
        }
        let stamp = mem.write_stamp();
        if self.last_serialize_stamp == Some(stamp) {
            sim_obs::icache_flush_coalesced();
            return;
        }
        self.flush_icache();
        self.last_serialize_stamp = Some(stamp);
    }

    /// Selects the icache flush strategy at serialization points: `true`
    /// drops every cached decode (the original engine's behavior, which the
    /// stepwise oracle keeps), `false` revalidates lazily against page
    /// content versions. Guest-invisible either way.
    pub fn set_seed_flush(&mut self, on: bool) {
        self.seed_flush = on;
    }

    /// Number of decoded entries currently cached (observability for P5
    /// experiments).
    pub fn icache_len(&self) -> usize {
        self.icache.len()
    }

    /// Per-trace occupancy rows (empty until [`Cpu::run_block`] has
    /// formed and entered a trace) — see [`TraceCache::stats`].
    pub fn trace_stats(&self) -> Vec<crate::trace::TraceStat> {
        self.trace.as_deref().map(TraceCache::stats).unwrap_or_default()
    }

    /// Applies the x86-64 syscall-entry register clobbers: the kernel leaves
    /// the return address in `rcx` and saved flags in `r11` — which is why
    /// K23's trampoline may reuse them without saving (paper §6.2.1).
    pub fn apply_syscall_clobbers(&mut self, return_rip: u64) {
        self.set(Reg::Rcx, return_rip);
        self.set(Reg::R11, self.flags.pack());
    }

    /// Completes the syscall issued at `site` with result `ret`: resumes
    /// after the two-byte instruction with `ret` in `rax` and the entry
    /// clobbers applied.
    pub fn syscall_return(&mut self, site: u64, ret: u64) {
        self.rip = site + 2;
        self.set(Reg::Rax, ret);
        self.apply_syscall_clobbers(site + 2);
    }

    /// The syscall number (`rax`) and the six argument registers in ABI
    /// order (`rdi`, `rsi`, `rdx`, `r10`, `r8`, `r9`).
    pub fn syscall_args(&self) -> (u64, [u64; 6]) {
        (
            self.get(Reg::Rax),
            [Reg::Rdi, Reg::Rsi, Reg::Rdx, Reg::R10, Reg::R8, Reg::R9].map(|r| self.get(r)),
        )
    }

    /// Restores flags from the packed `r11` form (used by sigreturn paths).
    pub fn flags_from_packed(&mut self, v: u64) {
        self.flags = Flags::unpack(v);
    }

    /// Packs current flags (for signal frames).
    pub fn packed_flags(&self) -> u64 {
        self.flags.pack()
    }

    #[inline]
    fn page_of(addr: u64) -> u64 {
        addr & !(sim_mem::PAGE_SIZE - 1)
    }

    /// Invalidates any cached decode whose bytes overlap `[addr, addr+len)`.
    ///
    /// Decodes are at most 10 bytes, so only rips in `(addr-9 ..
    /// addr+len)` can overlap — and those live in at most a handful of
    /// pages, found through `icache_index` rather than a full-cache scan.
    /// Cross-page decodes are registered under every page they touch, so a
    /// store into either page finds them.
    fn invalidate_icache_range(&mut self, addr: u64, len: u64) {
        let end = addr.saturating_add(len);
        // Traces are registered under every page their ops' bytes touch,
        // so unlinking only needs the pages the store itself hits (an op
        // straddling in from the previous page is indexed under this one
        // too). Page-granular is coarser than the icache's byte-overlap
        // rule below, which is safe: cold execution is architecturally
        // identical, an unlink only costs re-warming.
        if let Some(tc) = &mut self.trace {
            let mut page = Self::page_of(addr);
            let last = Self::page_of(end - 1); // len >= 1 always
            loop {
                tc.unlink_page(page);
                if page == last {
                    break;
                }
                page += sim_mem::PAGE_SIZE;
            }
        } else {
            // The cache is moved out during replay (see `exec_trace`):
            // buffer the written pages for unlinking when it is put
            // back, and side-exit the replay only if the store hits the
            // replaying trace's own pages — matching the immediate
            // unlink's effect on the `valid` flag the old per-op check
            // read.
            let mut page = Self::page_of(addr);
            let last = Self::page_of(end - 1); // len >= 1 always
            loop {
                if !self.pending_trace_unlinks.contains(&page) {
                    self.pending_trace_unlinks.push(page);
                }
                if self.replay_pages.contains(&page) {
                    self.trace_replay_break = true;
                }
                if page == last {
                    break;
                }
                page += sim_mem::PAGE_SIZE;
            }
        }
        if self.icache.is_empty() {
            return;
        }
        let first = Self::page_of(addr.saturating_sub(9));
        let last = Self::page_of(end - 1); // len >= 1 always
        let Cpu {
            icache,
            icache_index,
            ..
        } = self;
        let mut removed = 0u64;
        let mut page = first;
        loop {
            if let Some(rips) = icache_index.get_mut(&page) {
                rips.retain(|&rip| match icache.get(&rip) {
                    Some(e) => {
                        if rip < end && rip.wrapping_add(e.len as u64) > addr {
                            icache.remove(&rip);
                            removed += 1;
                            false
                        } else {
                            true
                        }
                    }
                    None => false, // stale entry: decode already evicted
                });
                if rips.is_empty() {
                    icache_index.remove(&page);
                }
            }
            if page == last {
                break;
            }
            page += sim_mem::PAGE_SIZE;
        }
        if removed > 0 {
            sim_obs::icache_invalidate(addr, removed);
        }
    }

    fn fetch_decode(&mut self, mem: &mut AddressSpace) -> Result<(Inst, usize), StepEvent> {
        if let Some(e) = self.icache.get_mut(&self.rip) {
            if e.fresh_gen == self.flush_gen {
                sim_obs::icache_fresh_hit();
                return Ok((e.inst, e.len as usize));
            }
            // A serialization point passed since this decode. Reuse it only
            // if the underlying bytes provably haven't changed: same
            // mapping/protection generation and same content version on
            // every touched page. Otherwise drop it and re-decode.
            let mut valid = mem.generation() == e.mem_gen;
            for &(page, ver) in &e.pages[..e.npages as usize] {
                valid = valid && mem.page_version(page) == Some(ver);
            }
            if valid {
                e.fresh_gen = self.flush_gen;
                sim_obs::icache_revalidate(self.rip);
                return Ok((e.inst, e.len as usize));
            }
            self.icache.remove(&self.rip); // index pruned lazily
        }
        let mut buf = [0u8; 10];
        let n = match mem.fetch(self.rip, &mut buf, self.pkru) {
            Ok(n) => n,
            Err(f) => return Err(StepEvent::Fault(f)),
        };
        match decode(&buf[..n]) {
            Ok((inst, len)) => {
                // Register the decode under every page its bytes touch so
                // page-indexed invalidation finds straddling decodes, and
                // record the pages' content versions for revalidation.
                let mut entry = ICacheEntry {
                    inst,
                    len: len as u8,
                    fresh_gen: self.flush_gen,
                    mem_gen: mem.generation(),
                    pages: [(0, 0); 2],
                    npages: 0,
                };
                let mut page = Self::page_of(self.rip);
                let last = Self::page_of(self.rip.saturating_add(len as u64 - 1));
                loop {
                    entry.pages[entry.npages as usize] =
                        (page, mem.page_version(page).unwrap_or(0));
                    entry.npages += 1;
                    let rips = self.icache_index.entry(page).or_default();
                    if !rips.contains(&self.rip) {
                        rips.push(self.rip);
                    }
                    if page == last {
                        break;
                    }
                    page += sim_mem::PAGE_SIZE;
                }
                self.icache.insert(self.rip, entry);
                sim_obs::icache_decode();
                Ok((inst, len))
            }
            Err(_) => Err(StepEvent::Fault(Fault {
                addr: self.rip,
                access: sim_mem::Access::Fetch,
                reason: sim_mem::FaultReason::Protection,
            })),
        }
    }

    fn push(&mut self, mem: &mut AddressSpace, v: u64) -> Result<(), Fault> {
        let rsp = self.get(Reg::Rsp).wrapping_sub(8);
        mem.write_u64(rsp, v, self.pkru)?;
        self.set(Reg::Rsp, rsp);
        Ok(())
    }

    fn pop(&mut self, mem: &mut AddressSpace) -> Result<u64, Fault> {
        let rsp = self.get(Reg::Rsp);
        let v = mem.read_u64(rsp, self.pkru)?;
        self.set(Reg::Rsp, rsp.wrapping_add(8));
        Ok(v)
    }

    fn flags_add(&mut self, a: u64, b: u64) -> u64 {
        let (res, cf) = a.overflowing_add(b);
        let of = ((a ^ res) & (b ^ res)) >> 63 != 0;
        self.flags = Flags {
            zf: res == 0,
            sf: (res as i64) < 0,
            cf,
            of,
        };
        res
    }

    fn flags_sub(&mut self, a: u64, b: u64) -> u64 {
        let (res, cf) = a.overflowing_sub(b);
        let of = ((a ^ b) & (a ^ res)) >> 63 != 0;
        self.flags = Flags {
            zf: res == 0,
            sf: (res as i64) < 0,
            cf,
            of,
        };
        res
    }

    fn flags_logic(&mut self, res: u64) -> u64 {
        self.flags = Flags {
            zf: res == 0,
            sf: (res as i64) < 0,
            cf: false,
            of: false,
        };
        res
    }

    /// Executes one instruction.
    ///
    /// `clock` is the current global cycle counter (consumed by the
    /// `vsyscall` fast time path). Kernel-entering instructions are *not*
    /// executed — they surface as [`StepEvent::Syscall`] with state
    /// untouched, and the kernel performs the architectural effects.
    pub fn step(&mut self, mem: &mut AddressSpace, clock: u64, cost: &CostModel) -> Step {
        let (inst, len) = match self.fetch_decode(mem) {
            Ok(x) => x,
            Err(event) => {
                return Step {
                    event,
                    cycles: cost.alu,
                    inst: None,
                }
            }
        };
        self.exec(inst, len, mem, clock, cost)
    }

    /// Executes an already-decoded instruction — the post-fetch half of
    /// [`Cpu::step`]. Trace replay feeds recorded decodes straight in,
    /// skipping the fetch and icache lookup entirely; every architectural
    /// effect (including `retired` and `rip`) is identical to a full step.
    #[inline]
    fn exec(
        &mut self,
        inst: Inst,
        len: usize,
        mem: &mut AddressSpace,
        clock: u64,
        cost: &CostModel,
    ) -> Step {
        let cycles = cost.inst_cost(&inst);
        let next = self.rip.wrapping_add(len as u64);

        macro_rules! fault {
            ($f:expr) => {
                return Step {
                    event: StepEvent::Fault($f),
                    cycles,
                    inst: Some(inst),
                }
            };
        }

        match inst {
            Inst::Syscall | Inst::Sysenter => {
                return Step {
                    event: StepEvent::Syscall {
                        site: self.rip,
                        sysenter: matches!(inst, Inst::Sysenter),
                    },
                    cycles,
                    inst: Some(inst),
                };
            }
            Inst::Hlt => {
                return Step {
                    event: StepEvent::Hlt,
                    cycles,
                    inst: Some(inst),
                };
            }
            Inst::Int3 => {
                self.rip = next;
                self.retired += 1;
                return Step {
                    event: StepEvent::Int3,
                    cycles,
                    inst: Some(inst),
                };
            }
            Inst::Nop => {
                // Batch-consume nop runs (the trampoline sled): zero-cost
                // single-byte nops with no architectural effect, so skipping
                // the whole run in one step is semantically identical and
                // keeps sled traversal cheap for the host.
                let mut end = next;
                let mut buf = [0u8; 64];
                #[allow(clippy::while_let_loop)] // labeled break from the inner scan
                'scan: loop {
                    let n = match mem.fetch(end, &mut buf, self.pkru) {
                        Ok(n) => n,
                        Err(_) => break,
                    };
                    for &b in &buf[..n] {
                        if b != 0x90 {
                            break 'scan;
                        }
                        end += 1;
                        self.retired += 1;
                    }
                    if n < buf.len() {
                        break;
                    }
                }
                self.rip = end;
                self.retired += 1;
                return Step {
                    event: StepEvent::Executed,
                    cycles,
                    inst: Some(inst),
                };
            }
            Inst::Cpuid | Inst::Fence => self.serialize(mem),
            Inst::Vsyscall => self.set(Reg::Rax, clock),
            Inst::Rdpkru => self.set(Reg::Rax, self.pkru.0 as u64),
            Inst::Wrpkru => self.pkru = Pkru(self.get(Reg::Rax) as u32),
            Inst::Push(r) => {
                if let Err(f) = self.push(mem, self.get(r)) {
                    fault!(f);
                }
            }
            Inst::Pop(r) => match self.pop(mem) {
                Ok(v) => self.set(r, v),
                Err(f) => fault!(f),
            },
            Inst::MovImm(r, v) => self.set(r, v),
            Inst::MovReg(d, s) => self.set(d, self.get(s)),
            Inst::Load(d, b, off) => {
                let addr = self.get(b).wrapping_add(off as i64 as u64);
                match mem.read_u64(addr, self.pkru) {
                    Ok(v) => self.set(d, v),
                    Err(f) => fault!(f),
                }
            }
            Inst::Store(b, off, s) => {
                let addr = self.get(b).wrapping_add(off as i64 as u64);
                if let Err(f) = mem.write_u64(addr, self.get(s), self.pkru) {
                    fault!(f);
                }
                self.invalidate_icache_range(addr, 8);
            }
            Inst::LoadByte(d, b, off) => {
                let addr = self.get(b).wrapping_add(off as i64 as u64);
                match mem.read_u8(addr, self.pkru) {
                    Ok(v) => self.set(d, v as u64),
                    Err(f) => fault!(f),
                }
            }
            Inst::StoreByte(b, off, s) => {
                let addr = self.get(b).wrapping_add(off as i64 as u64);
                if let Err(f) = mem.write_u8(addr, self.get(s) as u8, self.pkru) {
                    fault!(f);
                }
                self.invalidate_icache_range(addr, 1);
            }
            Inst::Lea(d, off) => self.set(d, next.wrapping_add(off as i64 as u64)),
            Inst::AddReg(d, s) => {
                let v = self.flags_add(self.get(d), self.get(s));
                self.set(d, v);
            }
            Inst::SubReg(d, s) => {
                let v = self.flags_sub(self.get(d), self.get(s));
                self.set(d, v);
            }
            Inst::AndReg(d, s) => {
                let v = self.flags_logic(self.get(d) & self.get(s));
                self.set(d, v);
            }
            Inst::OrReg(d, s) => {
                let v = self.flags_logic(self.get(d) | self.get(s));
                self.set(d, v);
            }
            Inst::XorReg(d, s) => {
                let v = self.flags_logic(self.get(d) ^ self.get(s));
                self.set(d, v);
            }
            Inst::CmpReg(d, s) => {
                self.flags_sub(self.get(d), self.get(s));
            }
            Inst::TestReg(d, s) => {
                self.flags_logic(self.get(d) & self.get(s));
            }
            Inst::ImulReg(d, s) => {
                let v = self.get(d).wrapping_mul(self.get(s));
                self.flags_logic(v);
                self.set(d, v);
            }
            Inst::AddImm(r, i) => {
                let v = self.flags_add(self.get(r), i as i64 as u64);
                self.set(r, v);
            }
            Inst::SubImm(r, i) => {
                let v = self.flags_sub(self.get(r), i as i64 as u64);
                self.set(r, v);
            }
            Inst::AndImm(r, i) => {
                let v = self.flags_logic(self.get(r) & (i as i64 as u64));
                self.set(r, v);
            }
            Inst::OrImm(r, i) => {
                let v = self.flags_logic(self.get(r) | (i as i64 as u64));
                self.set(r, v);
            }
            Inst::XorImm(r, i) => {
                let v = self.flags_logic(self.get(r) ^ (i as i64 as u64));
                self.set(r, v);
            }
            Inst::CmpImm(r, i) => {
                self.flags_sub(self.get(r), i as i64 as u64);
            }
            Inst::ShlImm(r, i) => {
                let v = self.flags_logic(self.get(r) << (i & 63));
                self.set(r, v);
            }
            Inst::ShrImm(r, i) => {
                let v = self.flags_logic(self.get(r) >> (i & 63));
                self.set(r, v);
            }
            Inst::ShlCl(r) => {
                let c = self.get(Reg::Rcx) & 63;
                let v = self.flags_logic(self.get(r) << c);
                self.set(r, v);
            }
            Inst::ShrCl(r) => {
                let c = self.get(Reg::Rcx) & 63;
                let v = self.flags_logic(self.get(r) >> c);
                self.set(r, v);
            }
            Inst::BtMem(b, i) => {
                let idx = self.get(i);
                let addr = self.get(b).wrapping_add(idx / 8);
                match mem.read_u8(addr, self.pkru) {
                    Ok(byte) => {
                        // Only CF is affected, as on x86.
                        self.flags.cf = byte & (1 << (idx % 8)) != 0;
                    }
                    Err(f) => fault!(f),
                }
            }
            Inst::Jmp(rel) => {
                self.rip = next.wrapping_add(rel as i64 as u64);
                self.retired += 1;
                return Step {
                    event: StepEvent::Executed,
                    cycles,
                    inst: Some(inst),
                };
            }
            Inst::Call(rel) => {
                if let Err(f) = self.push(mem, next) {
                    fault!(f);
                }
                self.rip = next.wrapping_add(rel as i64 as u64);
                self.retired += 1;
                return Step {
                    event: StepEvent::Executed,
                    cycles,
                    inst: Some(inst),
                };
            }
            Inst::Jcc(c, rel) => {
                self.rip = if self.flags.test(c) {
                    next.wrapping_add(rel as i64 as u64)
                } else {
                    next
                };
                self.retired += 1;
                return Step {
                    event: StepEvent::Executed,
                    cycles,
                    inst: Some(inst),
                };
            }
            Inst::CallReg(r) => {
                let target = self.get(r);
                if let Err(f) = self.push(mem, next) {
                    fault!(f);
                }
                self.rip = target;
                self.retired += 1;
                return Step {
                    event: StepEvent::Executed,
                    cycles,
                    inst: Some(inst),
                };
            }
            Inst::JmpReg(r) => {
                self.rip = self.get(r);
                self.retired += 1;
                return Step {
                    event: StepEvent::Executed,
                    cycles,
                    inst: Some(inst),
                };
            }
            Inst::Ret => match self.pop(mem) {
                Ok(v) => {
                    self.rip = v;
                    self.retired += 1;
                    return Step {
                        event: StepEvent::Executed,
                        cycles,
                        inst: Some(inst),
                    };
                }
                Err(f) => fault!(f),
            },
        }

        self.rip = next;
        self.retired += 1;
        Step {
            event: StepEvent::Executed,
            cycles,
            inst: Some(inst),
        }
    }

    /// Runs up to `budget` steps without returning to the scheduler,
    /// stopping early at the first event that needs the kernel (syscall,
    /// fault, `hlt`, `int3`).
    ///
    /// Semantically this is exactly a [`Cpu::step`] loop: each step `i`
    /// observes the clock `clock + cycles-of-steps-0..i`, mirroring a
    /// caller that charges the global clock after every step. `on_step` is
    /// invoked after each step with the pre-step `rip` and the [`Step`]
    /// (pass a no-op closure for the fast path — it compiles away; pass a
    /// recording closure to capture an instruction-level trace).
    pub fn run_block(
        &mut self,
        mem: &mut AddressSpace,
        clock: u64,
        cost: &CostModel,
        budget: u64,
        on_step: impl FnMut(u64, &Step),
    ) -> BlockExit {
        self.run_block_hooked(mem, clock, cost, budget, on_step, |_, _, _, _| {
            HookAction::Pass
        })
    }

    /// [`Cpu::run_block`] with a direct-path syscall hook: when trace
    /// replay hits a `syscall` op, `syscall_fast(cpu, mem, site, clock)`
    /// may service it in place (returning [`HookAction::Handled`]) so
    /// the replay — and a self-looping trace — continues without a block
    /// exit and dispatcher round trip per syscall. The hook must leave
    /// the architectural state exactly as a block exit + kernel entry +
    /// re-entry would have. Only consulted from warm trace replay; cold
    /// execution surfaces every syscall as a block exit.
    ///
    /// This is the trace dispatcher: it enters validated traces at block
    /// heads, profiles cold heads, records hot ones, and otherwise steps
    /// exactly like a [`Cpu::step`] loop. Accounting (`steps`, `cycles`,
    /// per-step clock, the `on_step` hook, span streams) is identical to
    /// that loop instruction for instruction.
    pub fn run_block_hooked(
        &mut self,
        mem: &mut AddressSpace,
        clock: u64,
        cost: &CostModel,
        budget: u64,
        mut on_step: impl FnMut(u64, &Step),
        mut syscall_fast: impl FnMut(&mut Cpu, &mut AddressSpace, u64, u64) -> HookAction,
    ) -> BlockExit {
        let mut cycles = 0u64;
        let mut steps = 0u64;
        let mut vdso_calls = 0u64;
        let mut inst = None;
        let obs = sim_obs::enabled();
        let mut at_head = true;
        let mut from_trace = false;
        while steps < budget {
            if at_head {
                let mut idx = self.trace_validate(mem);
                if idx.is_some() {
                    // A recording that ran into an existing trace closes
                    // here so the two can chain. Finalizing can reset a
                    // full pool, so the index is re-resolved afterwards
                    // rather than trusted.
                    let flush_gen = self.flush_gen;
                    let rip = self.rip;
                    if let Some(tc) = self.trace.as_deref_mut() {
                        if tc.rec.is_some() {
                            tc.finalize(flush_gen);
                            idx = tc.lookup(rip);
                        }
                    }
                }
                if let Some(idx) = idx {
                    if obs {
                        if from_trace {
                            sim_obs::trace_link();
                        } else {
                            sim_obs::trace_enter();
                        }
                    }
                    match self.exec_trace(
                        idx,
                        mem,
                        clock,
                        cost,
                        budget,
                        obs,
                        &mut cycles,
                        &mut steps,
                        &mut vdso_calls,
                        &mut inst,
                        &mut on_step,
                        &mut syscall_fast,
                    ) {
                        TraceRun::Event(event) => {
                            if obs {
                                sim_obs::block_len(steps);
                            }
                            return BlockExit {
                                event,
                                cycles,
                                steps,
                                vdso_calls,
                                inst,
                            };
                        }
                        TraceRun::Done => {
                            // The terminal branch chains straight into the
                            // successor lookup — no dispatcher exit.
                            from_trace = true;
                            continue;
                        }
                        TraceRun::SideExit => {
                            from_trace = false;
                            continue;
                        }
                        TraceRun::Budget => break,
                    }
                }
                // Cold head: profile it, start recording past the
                // threshold.
                let rip = self.rip;
                let mem_gen = mem.generation();
                if let Some(tc) = self.trace.as_deref_mut() {
                    if tc.rec.is_none() && tc.bump_heat(rip) {
                        tc.start_recording(rip, mem_gen);
                    }
                }
            }
            if obs {
                sim_obs::set_clock(clock + cycles);
            }
            let rip_before = self.rip;
            let s = self.step_capture(mem, clock + cycles, cost);
            steps += 1;
            cycles += s.cycles;
            inst = s.inst;
            on_step(rip_before, &s);
            if obs {
                // Post-step clock and RIP: identical to the stepwise
                // engine's per-step hook, so range-span streams match.
                sim_obs::span_step(clock + cycles, self.rip);
            }
            match s.event {
                StepEvent::Executed => {
                    if matches!(s.inst, Some(Inst::Vsyscall)) {
                        vdso_calls += 1;
                    }
                }
                event => {
                    self.trace_finalize_recording();
                    sim_obs::block_len(steps);
                    return BlockExit {
                        event,
                        cycles,
                        steps,
                        vdso_calls,
                        inst,
                    };
                }
            }
            at_head = Self::ends_block(s.inst);
            from_trace = false;
            // Close the recording on loop closure (back at its own
            // entry), on an abort, or when it reaches an already-formed
            // trace; max-op overflow marks itself aborted in capture.
            let rip_now = self.rip;
            let flush_gen = self.flush_gen;
            if let Some(tc) = self.trace.as_deref_mut() {
                let mut close = match &tc.rec {
                    Some(rec) => rec.aborted || rip_now == rec.entry,
                    None => false,
                };
                if !close && tc.rec.is_some() && tc.lookup(rip_now).is_some() {
                    close = true;
                }
                if close {
                    tc.finalize(flush_gen);
                }
            }
        }
        self.trace_finalize_recording();
        sim_obs::block_len(steps);
        BlockExit {
            event: StepEvent::Executed,
            cycles,
            steps,
            vdso_calls,
            inst,
        }
    }

    /// True for instructions that end a basic block (control transfers);
    /// the dispatcher profiles and looks up traces only at block heads,
    /// i.e. after one of these or at `run_block` entry.
    #[inline]
    fn ends_block(inst: Option<Inst>) -> bool {
        matches!(
            inst,
            Some(
                Inst::Jmp(_)
                    | Inst::Call(_)
                    | Inst::Jcc(_, _)
                    | Inst::CallReg(_)
                    | Inst::JmpReg(_)
                    | Inst::Ret
            )
        )
    }

    /// Validates the trace entered at the current `rip`, if any: a single
    /// `fresh_gen` compare on the fast path, else one `mem_gen` compare
    /// plus a walk of the recorded page versions (restamp on success,
    /// unlink on failure). This replaces the icache's per-instruction
    /// page-version walk with a per-trace generation check.
    fn trace_validate(&mut self, mem: &mut AddressSpace) -> Option<u32> {
        let rip = self.rip;
        let flush_gen = self.flush_gen;
        let tc = self.trace.as_deref_mut()?;
        let idx = tc.lookup(rip)?;
        let t = tc.get_mut(idx);
        if t.fresh_gen == flush_gen {
            return Some(idx);
        }
        let mut valid = t.mem_gen == mem.generation();
        if valid {
            for &(page, ver) in &t.pages {
                if mem.page_version(page) != Some(ver) {
                    valid = false;
                    break;
                }
            }
        }
        if valid {
            t.fresh_gen = flush_gen;
            sim_obs::trace_revalidate();
            Some(idx)
        } else {
            tc.unlink_entry(rip);
            None
        }
    }

    /// Executes `inst` in place if it is one of trace replay's inlined
    /// fast paths, returning false (with no effect) for any other op.
    ///
    /// The inlined ops run with the same helpers, cost, and
    /// `retired`/`rip` effects as their [`Cpu::exec`] arms, with no
    /// full-match dispatch and no event analysis. Every one is
    /// non-faulting, non-serializing, and storeless (it can't set
    /// `trace_replay_break`), always retires with
    /// [`StepEvent::Executed`], and is not `Vsyscall`. Cross-engine
    /// byte-identity tests pin these arms to `exec`'s.
    #[inline(always)]
    fn exec_inline(&mut self, inst: Inst, next: u64) -> bool {
        match inst {
            Inst::MovImm(r, v) => self.set(r, v),
            Inst::MovReg(d, s) => self.set(d, self.get(s)),
            Inst::Lea(d, off) => self.set(d, next.wrapping_add(off as i64 as u64)),
            Inst::AddImm(r, im) => {
                let v = self.flags_add(self.get(r), im as i64 as u64);
                self.set(r, v);
            }
            Inst::SubImm(r, im) => {
                let v = self.flags_sub(self.get(r), im as i64 as u64);
                self.set(r, v);
            }
            Inst::CmpImm(r, im) => {
                self.flags_sub(self.get(r), im as i64 as u64);
            }
            Inst::AddReg(d, s) => {
                let v = self.flags_add(self.get(d), self.get(s));
                self.set(d, v);
            }
            Inst::SubReg(d, s) => {
                let v = self.flags_sub(self.get(d), self.get(s));
                self.set(d, v);
            }
            Inst::CmpReg(d, s) => {
                self.flags_sub(self.get(d), self.get(s));
            }
            Inst::TestReg(d, s) => {
                self.flags_logic(self.get(d) & self.get(s));
            }
            Inst::Jmp(rel) => {
                self.rip = next.wrapping_add(rel as i64 as u64);
                self.retired += 1;
                return true;
            }
            Inst::Jcc(c, rel) => {
                self.rip = if self.flags.test(c) {
                    next.wrapping_add(rel as i64 as u64)
                } else {
                    next
                };
                self.retired += 1;
                return true;
            }
            _ => return false,
        }
        self.rip = next;
        self.retired += 1;
        true
    }

    /// Replays the ops of trace `idx`. Each op is a full architectural
    /// step (via [`Cpu::exec`], or [`Cpu::exec_inline`] for the hottest
    /// ops) with the identical per-step clock, trace hook, and span
    /// stream as cold execution — only the fetch and icache lookup are
    /// elided. Stops mid-trace on the step budget, on a kernel event,
    /// when control flow diverges from the recording, or when an own-core
    /// store (or a serializing op) invalidates the trace under our feet.
    ///
    /// The trace cache is moved out of `self` for the duration of the
    /// replay so the op stream is a plain slice walk with no per-op
    /// `Option<Box<..>>` re-derefs. Invalidation raised by replayed ops
    /// is routed through `trace_replay_break` (side-exit at the next op
    /// boundary) and `pending_trace_unlinks` (applied once the cache is
    /// put back) — see [`Cpu::invalidate_icache_range`] and
    /// [`Cpu::flush_icache`]. No recording is ever in progress here: the
    /// dispatcher closes any before entering a trace.
    ///
    /// A [`Cpu::Syscall`](StepEvent::Syscall) op consults `syscall_fast`
    /// (see [`Cpu::run_block_hooked`]): a handled syscall charges its
    /// cycles into the block and replay continues in place.
    ///
    /// A terminal op that lands back on the trace's own entry with
    /// `trace_replay_break` clear wraps to op 0 without returning to the
    /// dispatcher: nothing was flushed and nothing was stored on the
    /// trace's pages, so the dispatcher's lookup and fresh-gen compare
    /// would find this same trace valid. Each wrap counts as one more
    /// `enters`; it is not a `trace_link`.
    #[allow(clippy::too_many_arguments)]
    fn exec_trace(
        &mut self,
        idx: u32,
        mem: &mut AddressSpace,
        clock: u64,
        cost: &CostModel,
        budget: u64,
        obs: bool,
        cycles: &mut u64,
        steps: &mut u64,
        vdso_calls: &mut u64,
        inst: &mut Option<Inst>,
        on_step: &mut impl FnMut(u64, &Step),
        syscall_fast: &mut impl FnMut(&mut Cpu, &mut AddressSpace, u64, u64) -> HookAction,
    ) -> TraceRun {
        let mut tc = self.trace.take().expect("exec_trace without trace cache");
        let t = tc.get(idx);
        self.replay_pages.clear();
        self.replay_pages.extend(t.pages.iter().map(|&(p, _)| p));
        self.trace_replay_break = false;
        let entry = t.entry;
        let ops = &t.ops[..];
        let mut i = 0usize;
        // Batched accounting: the loop accumulates into locals (registers)
        // and writes the caller's counters back once at exit — the exact
        // retired-instruction boundary is preserved because every break
        // path flows through the write-back below.
        let mut linst = *inst;
        let mut lsteps = *steps;
        let mut lcycles = *cycles;
        let mut lvdso = *vdso_calls;
        let steps0 = lsteps;
        let mut wraps = 0u64;
        let run = loop {
            if lsteps >= budget {
                break TraceRun::Budget;
            }
            let op = ops[i];
            if self.rip != op.rip {
                if obs {
                    sim_obs::trace_side_exit();
                }
                break TraceRun::SideExit;
            }
            if obs {
                sim_obs::set_clock(clock + lcycles);
            }
            let rip_before = self.rip;
            if self.exec_inline(op.inst, op.rip.wrapping_add(op.len as u64)) {
                let cycles = cost.inst_cost(&op.inst);
                lsteps += 1;
                lcycles += cycles;
                linst = Some(op.inst);
                on_step(
                    rip_before,
                    &Step {
                        event: StepEvent::Executed,
                        cycles,
                        inst: Some(op.inst),
                    },
                );
                if obs {
                    sim_obs::span_step(clock + lcycles, self.rip);
                }
            } else {
                let s = self.exec(op.inst, op.len as usize, mem, clock + lcycles, cost);
                lsteps += 1;
                lcycles += s.cycles;
                linst = s.inst;
                on_step(rip_before, &s);
                if obs {
                    sim_obs::span_step(clock + lcycles, self.rip);
                }
                match s.event {
                    StepEvent::Executed => {
                        if matches!(s.inst, Some(Inst::Vsyscall)) {
                            lvdso += 1;
                        }
                    }
                    StepEvent::Syscall { site, .. } => {
                        // Direct-path syscall entry inside trace execution:
                        // the kernel-provided hook may service the syscall
                        // in place (identical register, clock, and
                        // statistics effects as a block exit + re-entry
                        // would have). Its serialize may flush, which
                        // raises `trace_replay_break` like any flush.
                        match syscall_fast(&mut *self, &mut *mem, site, clock + lcycles) {
                            HookAction::Pass => break TraceRun::Event(s.event),
                            HookAction::Handled { charge, stop } => {
                                lcycles += charge;
                                if stop {
                                    // Deadline reached: end the block; the
                                    // caller's clock += cycles lands
                                    // exactly on the post-syscall boundary.
                                    break TraceRun::Budget;
                                }
                            }
                        }
                    }
                    event => break TraceRun::Event(event),
                }
            }
            i += 1;
            if i == ops.len() {
                if self.rip != entry || self.trace_replay_break {
                    break TraceRun::Done;
                }
                // Self-looping trace, nothing flushed or rewritten: loop
                // in place.
                i = 0;
                wraps += 1;
            } else if self.trace_replay_break {
                // An own-core store in this op may have rewritten upcoming
                // bytes (or a serializing op flushed the icache); fall
                // back to cold fetch, which sees the new bytes (x86
                // coherent SMC).
                if obs {
                    sim_obs::trace_side_exit();
                }
                break TraceRun::SideExit;
            }
        };
        *inst = linst;
        *steps = lsteps;
        *cycles = lcycles;
        *vdso_calls = lvdso;
        // Occupancy bookkeeping (host-side only; never observable by the
        // guest): one enter per dispatch plus one per in-place wrap, every
        // step retired inside the trace, and the exit kind.
        {
            let t = tc.get_mut(idx);
            t.enters += 1 + wraps;
            t.steps += lsteps - steps0;
            if matches!(run, TraceRun::SideExit) {
                t.side_exits += 1;
            }
        }
        self.trace = Some(tc);
        if !self.pending_trace_unlinks.is_empty() {
            let mut pages = std::mem::take(&mut self.pending_trace_unlinks);
            if let Some(tc) = self.trace.as_deref_mut() {
                for &page in &pages {
                    tc.unlink_page(page);
                }
            }
            pages.clear();
            self.pending_trace_unlinks = pages; // keep the allocation
        }
        run
    }

    /// Like [`Cpu::step`], but captures the decoded instruction (and its
    /// icache entry's decode-time page versions) into the in-progress
    /// trace recording.
    fn step_capture(&mut self, mem: &mut AddressSpace, clock: u64, cost: &CostModel) -> Step {
        let (inst, len) = match self.fetch_decode(mem) {
            Ok(x) => x,
            Err(event) => {
                return Step {
                    event,
                    cycles: cost.alu,
                    inst: None,
                }
            }
        };
        let rip = self.rip;
        if let Some(tc) = self.trace.as_deref_mut() {
            if let Some(rec) = tc.rec.as_mut() {
                if !rec.aborted {
                    // Take the staleness witness from the icache entry,
                    // never from current memory: a trace must only ever
                    // validate against the exact bytes its ops decoded
                    // from (a stale-but-fresh decode after a cross-core
                    // write would otherwise survive the next serialize).
                    match self.icache.get(&rip) {
                        Some(e) if e.mem_gen == rec.mem_gen => {
                            let mut ok = true;
                            for &(page, ver) in &e.pages[..e.npages as usize] {
                                match rec.pages.iter().position(|&(p, _)| p == page) {
                                    Some(j) => {
                                        if rec.pages[j].1 != ver {
                                            ok = false;
                                            break;
                                        }
                                    }
                                    None => rec.pages.push((page, ver)),
                                }
                            }
                            if ok && rec.ops.len() < MAX_OPS {
                                rec.ops.push(TraceOp {
                                    rip,
                                    inst,
                                    len: len as u8,
                                });
                            } else {
                                rec.aborted = true;
                            }
                        }
                        _ => rec.aborted = true,
                    }
                }
            }
        }
        self.exec(inst, len, mem, clock, cost)
    }

    /// Closes any in-progress recording at a block exit.
    fn trace_finalize_recording(&mut self) {
        let flush_gen = self.flush_gen;
        if let Some(tc) = self.trace.as_deref_mut() {
            if tc.rec.is_some() {
                tc.finalize(flush_gen);
            }
        }
    }
}

/// Disposition of a syscall hit during trace replay, returned by the
/// kernel-provided fast-path hook (see [`Cpu::run_block_hooked`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HookAction {
    /// Not a fast-path syscall: surface it as a normal block exit.
    Pass,
    /// Serviced in place: the hook already applied the architectural
    /// effects (rip, registers, serialization, statistics); `charge` is
    /// the kernel-entry + service cost to fold into the block's cycles.
    /// `stop` ends the block (the caller's run deadline was reached).
    Handled { charge: u64, stop: bool },
}

/// How one [`Cpu::exec_trace`] replay ended.
enum TraceRun {
    /// A kernel event (syscall, fault, `hlt`, `int3`) — ends the block.
    Event(StepEvent),
    /// All ops replayed; the terminal branch decides the next head.
    Done,
    /// Control flow diverged from the recording (or the trace was
    /// unlinked mid-replay); fall back to cold execution.
    SideExit,
    /// The step budget ran out mid-trace.
    Budget,
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_isa::Asm;
    use sim_mem::Perms;

    fn setup(code: &[u8]) -> (Cpu, AddressSpace) {
        let mut mem = AddressSpace::new();
        mem.map(0x1000, 0x1000, Perms::RX, "code").unwrap();
        mem.write_raw(0x1000, code).unwrap();
        mem.map(0x8000, 0x1000, Perms::RW, "[stack]").unwrap();
        let mut cpu = Cpu::new();
        cpu.rip = 0x1000;
        cpu.set(Reg::Rsp, 0x9000);
        (cpu, mem)
    }

    fn run_until_hlt(cpu: &mut Cpu, mem: &mut AddressSpace) -> u64 {
        let cost = CostModel::DEFAULT;
        let mut cycles = 0;
        for _ in 0..10_000 {
            let s = cpu.step(mem, cycles, &cost);
            cycles += s.cycles;
            match s.event {
                StepEvent::Executed => {}
                StepEvent::Hlt => return cycles,
                e => panic!("unexpected event {e:?} at rip {:#x}", cpu.rip),
            }
        }
        panic!("did not halt");
    }

    #[test]
    fn arithmetic_loop() {
        let mut a = Asm::new();
        a.mov_imm(Reg::Rax, 0);
        a.mov_imm(Reg::Rcx, 10);
        a.label("loop");
        a.add_imm(Reg::Rax, 3);
        a.sub_imm(Reg::Rcx, 1);
        a.jnz("loop");
        a.inst(Inst::Hlt);
        let (mut cpu, mut mem) = setup(&a.finish());
        run_until_hlt(&mut cpu, &mut mem);
        assert_eq!(cpu.get(Reg::Rax), 30);
        assert_eq!(cpu.get(Reg::Rcx), 0);
    }

    #[test]
    fn call_ret_stack_discipline() {
        let mut a = Asm::new();
        a.call("f");
        a.inst(Inst::Hlt);
        a.label("f");
        a.mov_imm(Reg::Rbx, 77);
        a.ret();
        let (mut cpu, mut mem) = setup(&a.finish());
        run_until_hlt(&mut cpu, &mut mem);
        assert_eq!(cpu.get(Reg::Rbx), 77);
        assert_eq!(cpu.get(Reg::Rsp), 0x9000);
    }

    #[test]
    fn syscall_event_preserves_state() {
        let mut a = Asm::new();
        a.mov_imm(Reg::Rax, 500);
        a.syscall();
        let (mut cpu, mut mem) = setup(&a.finish());
        let cost = CostModel::DEFAULT;
        cpu.step(&mut mem, 0, &cost);
        let before_rip = cpu.rip;
        let s = cpu.step(&mut mem, 0, &cost);
        assert_eq!(
            s.event,
            StepEvent::Syscall {
                site: 0x100a,
                sysenter: false
            }
        );
        // rip unchanged: kernel owns the architectural effect.
        assert_eq!(cpu.rip, before_rip);
        assert_eq!(cpu.get(Reg::Rax), 500);
    }

    #[test]
    fn signed_and_unsigned_conditions() {
        // rax = -1 (signed) compared with 1: jl taken, jb not taken
        let mut a = Asm::new();
        a.mov_imm(Reg::Rax, u64::MAX); // -1
        a.cmp_imm(Reg::Rax, 1);
        a.jl("signed_less");
        a.inst(Inst::Hlt); // not reached
        a.label("signed_less");
        a.mov_imm(Reg::Rbx, 1);
        // unsigned: -1 is huge, so jb must NOT be taken
        a.cmp_imm(Reg::Rax, 1);
        a.jcc(Cond::B, "bad");
        a.mov_imm(Reg::Rcx, 2);
        a.inst(Inst::Hlt);
        a.label("bad");
        a.mov_imm(Reg::Rcx, 99);
        a.inst(Inst::Hlt);
        let (mut cpu, mut mem) = setup(&a.finish());
        run_until_hlt(&mut cpu, &mut mem);
        assert_eq!(cpu.get(Reg::Rbx), 1);
        assert_eq!(cpu.get(Reg::Rcx), 2);
    }

    #[test]
    fn load_store_roundtrip() {
        let mut a = Asm::new();
        a.mov_imm(Reg::Rdi, 0x8000);
        a.mov_imm(Reg::Rax, 0xdead_beef);
        a.store(Reg::Rdi, 0x10, Reg::Rax);
        a.load(Reg::Rbx, Reg::Rdi, 0x10);
        a.load_byte(Reg::Rcx, Reg::Rdi, 0x10);
        a.inst(Inst::Hlt);
        let (mut cpu, mut mem) = setup(&a.finish());
        run_until_hlt(&mut cpu, &mut mem);
        assert_eq!(cpu.get(Reg::Rbx), 0xdead_beef);
        assert_eq!(cpu.get(Reg::Rcx), 0xef);
    }

    #[test]
    fn call_reg_pushes_return_address() {
        // The zpoline primitive: rax holds a small number, call *%rax lands
        // in the trampoline page; the return address (site + 2) is on the
        // stack.
        let mut a = Asm::new();
        a.mov_imm(Reg::Rax, 0x2000);
        a.call_reg(Reg::Rax);
        let code = a.finish();
        let (mut cpu, mut mem) = setup(&code);
        mem.map(0x2000, 0x1000, Perms::RX, "tramp").unwrap();
        mem.write_raw(0x2000, &[0xf4]).unwrap(); // hlt
        let cost = CostModel::DEFAULT;
        cpu.step(&mut mem, 0, &cost); // mov
        cpu.step(&mut mem, 0, &cost); // call *rax
        assert_eq!(cpu.rip, 0x2000);
        let ret = mem.read_u64(0x8ff8, Pkru::ALL_ACCESS).unwrap();
        assert_eq!(ret, 0x1000 + 12); // mov(10) + call_reg(2)
    }

    #[test]
    fn fault_on_unmapped_leaves_rip() {
        let mut a = Asm::new();
        a.mov_imm(Reg::Rdi, 0x5_0000);
        a.load(Reg::Rax, Reg::Rdi, 0);
        let (mut cpu, mut mem) = setup(&a.finish());
        let cost = CostModel::DEFAULT;
        cpu.step(&mut mem, 0, &cost);
        let rip = cpu.rip;
        let s = cpu.step(&mut mem, 0, &cost);
        match s.event {
            StepEvent::Fault(f) => {
                assert_eq!(f.addr, 0x5_0000);
                assert_eq!(cpu.rip, rip);
            }
            e => panic!("expected fault, got {e:?}"),
        }
    }

    #[test]
    fn own_writes_invalidate_own_icache() {
        // Self-modifying code on the same core takes effect immediately
        // (x86 coherent SMC): overwrite an upcoming `mov rbx, 1` with nops.
        let mut a = Asm::new();
        a.jmp("start"); // warm the icache by jumping over the target once
        a.label("target");
        a.mov_imm(Reg::Rbx, 1);
        a.inst(Inst::Hlt);
        a.label("start");
        // nop out all 10 bytes of `target`'s mov with two overlapping
        // 8-byte stores… then jump there.
        a.mov_imm(Reg::Rdi, 0); // patched below to target addr
        a.mov_imm(Reg::Rax, u64::from_le_bytes([0x90; 8]));
        a.store(Reg::Rdi, 0, Reg::Rax);
        a.store(Reg::Rdi, 2, Reg::Rax);
        a.jmp("target");
        let prog = a.finish_program();
        let target = 0x1000 + prog.sym("target");
        let mut bytes = prog.bytes.clone();
        // patch the first mov_imm rdi immediate (it is at offset start+2)
        let start = prog.sym("start") as usize;
        bytes[start + 2..start + 10].copy_from_slice(&target.to_le_bytes());

        let mut mem = AddressSpace::new();
        mem.map(0x1000, 0x1000, Perms::RWX, "code").unwrap();
        mem.write_raw(0x1000, &bytes).unwrap();
        mem.map(0x8000, 0x1000, Perms::RW, "[stack]").unwrap();
        let mut cpu = Cpu::new();
        cpu.rip = 0x1000;
        cpu.set(Reg::Rsp, 0x9000);
        let cost = CostModel::DEFAULT;
        let mut clock = 0;
        for _ in 0..100 {
            let s = cpu.step(&mut mem, clock, &cost);
            clock += s.cycles;
            match s.event {
                StepEvent::Executed => {}
                StepEvent::Hlt => break,
                e => panic!("unexpected {e:?}"),
            }
        }
        // The mov was overwritten before execution: rbx stays 0. The mov
        // *would* have run from a stale icache if self-writes didn't
        // invalidate.
        assert_eq!(cpu.get(Reg::Rbx), 0);
    }

    #[test]
    fn cross_core_icache_staleness_until_serialize() {
        // Core B caches a decode; core A (modeled as a raw memory write +
        // *no* fence on B) rewrites it. B keeps executing the stale decode
        // until it serializes — the P5 hazard.
        let mut mem = AddressSpace::new();
        mem.map(0x1000, 0x1000, Perms::RWX, "code").unwrap();
        let mut a = Asm::new();
        a.mov_imm(Reg::Rbx, 1);
        a.inst(Inst::Hlt);
        mem.write_raw(0x1000, &a.finish()).unwrap();

        let mut b = Cpu::new();
        b.rip = 0x1000;
        let cost = CostModel::DEFAULT;
        // B decodes (and caches) the mov by executing it once; rewind rip.
        b.step(&mut mem, 0, &cost);
        b.rip = 0x1000;
        assert!(b.icache_len() > 0);

        // "Core A" rewrites the mov's immediate to 2 via a raw write.
        let mut patch = Inst::MovImm(Reg::Rbx, 2).encode();
        patch.push(0xf4);
        mem.write_raw(0x1000, &patch).unwrap();

        // B still executes the stale decode…
        b.step(&mut mem, 0, &cost);
        assert_eq!(b.get(Reg::Rbx), 1, "stale icache should win");

        // …until it serializes.
        b.rip = 0x1000;
        b.flush_icache();
        b.step(&mut mem, 0, &cost);
        assert_eq!(b.get(Reg::Rbx), 2);
    }

    #[test]
    fn vsyscall_reads_clock_without_kernel() {
        let mut a = Asm::new();
        a.vsyscall();
        a.inst(Inst::Hlt);
        let (mut cpu, mut mem) = setup(&a.finish());
        let cost = CostModel::DEFAULT;
        let s = cpu.step(&mut mem, 123456, &cost);
        assert_eq!(s.event, StepEvent::Executed);
        assert_eq!(cpu.get(Reg::Rax), 123456);
    }

    #[test]
    fn wrpkru_controls_data_access() {
        let mut a = Asm::new();
        // deny key 1, then try to read a key-1 page
        a.mov_imm(Reg::Rax, 1 << 2); // AD for key 1
        a.wrpkru();
        a.mov_imm(Reg::Rdi, 0x3000);
        a.load(Reg::Rbx, Reg::Rdi, 0);
        let code = a.finish();
        let (mut cpu, mut mem) = setup(&code);
        mem.map(0x3000, 0x1000, Perms::RW, "secret").unwrap();
        mem.set_pkey(0x3000, 0x1000, 1).unwrap();
        let cost = CostModel::DEFAULT;
        cpu.step(&mut mem, 0, &cost);
        cpu.step(&mut mem, 0, &cost);
        cpu.step(&mut mem, 0, &cost);
        let s = cpu.step(&mut mem, 0, &cost);
        match s.event {
            StepEvent::Fault(f) => assert_eq!(f.reason, sim_mem::FaultReason::PkuDenied),
            e => panic!("expected PKU fault, got {e:?}"),
        }
    }

    #[test]
    fn syscall_clobbers_rcx_r11() {
        let mut cpu = Cpu::new();
        cpu.flags = Flags {
            zf: true,
            sf: false,
            cf: true,
            of: false,
        };
        cpu.apply_syscall_clobbers(0xabcd);
        assert_eq!(cpu.get(Reg::Rcx), 0xabcd);
        assert_eq!(cpu.get(Reg::R11), 0b101);
    }
}
