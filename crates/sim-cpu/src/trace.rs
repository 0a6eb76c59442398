//! Trace cache: hot blocks promoted into linked superblocks.
//!
//! Stepping costs one icache lookup per fetched instruction and one
//! dispatcher round-trip per block, which dominates tight guest loops.
//! The block engine ([`crate::Cpu::run_block`]) profiles block-entry
//! counts and, past a hotness threshold, records the executed
//! instruction sequence into a [`Trace`]: a decoded superblock replayed
//! without any fetch or icache lookup. A trace whose terminal branch
//! lands on another trace's entry chains into it directly ("linking")
//! without returning to the cold dispatcher; one whose terminal op lands
//! on its own entry loops in place.
//!
//! Staleness is governed by the same two-level scheme as the icache
//! (see `cpu.rs`):
//!
//! * While `fresh_gen == Cpu::flush_gen` (no serialization point since
//!   formation), a trace runs after a **single compare** — no page-version
//!   walk at all.
//! * After a serialization point, one `mem_gen` compare plus a walk of the
//!   trace's recorded `(page, version)` pairs either restamps the trace
//!   fresh or unlinks it. The pairs are copied from the constituent
//!   icache entries at *decode* time, never re-read at record time, so a
//!   trace can only validate against the exact bytes its ops were decoded
//!   from (a cross-core write that the icache would surface after a
//!   serialize also kills the trace).
//! * Own-core stores unlink every trace registered on a written page
//!   (page-granular, coarser than the icache's byte-overlap rule — an
//!   over-approximation is safe because cold execution is architecturally
//!   identical) and abort any in-progress recording that touches one.

use sim_isa::Inst;

use crate::fasthash::FastMap;

/// Block-entry count at which a head starts recording a trace.
pub const HOT_THRESHOLD: u32 = 16;
/// Maximum ops captured into one trace.
pub const MAX_OPS: usize = 256;
/// Trace-pool capacity; reaching it resets the pool (rare, and cold
/// execution is always correct, so a reset only costs re-warming).
pub const MAX_TRACES: usize = 4096;

/// One recorded instruction: everything replay needs, no fetch required.
#[derive(Debug, Clone, Copy)]
pub struct TraceOp {
    /// Address the op was fetched from; replay asserts control flow
    /// actually arrived here and side-exits otherwise.
    pub rip: u64,
    pub inst: Inst,
    pub len: u8,
}

/// A formed superblock.
#[derive(Debug, Clone)]
pub struct Trace {
    pub entry: u64,
    pub ops: Vec<TraceOp>,
    /// `(page base, content version)` for every page any op's bytes
    /// touch, copied from the constituent icache entries at decode time.
    pub pages: Vec<(u64, u64)>,
    /// [`sim_mem::AddressSpace::generation`] the ops were decoded under.
    pub mem_gen: u64,
    /// Usable after a single compare while this equals `Cpu::flush_gen`.
    pub fresh_gen: u64,
    /// Cleared by unlinking (store overlap or failed revalidation);
    /// dead traces stay in the pool until the next pool reset.
    pub valid: bool,
    /// Replay dispatches into this trace, plus its in-place self-loop
    /// wraps.
    pub enters: u64,
    /// Instructions retired from inside this trace across all replays.
    pub steps: u64,
    /// Replays that left through a guard or break rather than `Done`.
    pub side_exits: u64,
}

/// In-progress recording; becomes a [`Trace`] on finalize unless aborted.
#[derive(Debug, Clone)]
pub struct TraceRec {
    pub entry: u64,
    pub ops: Vec<TraceOp>,
    pub pages: Vec<(u64, u64)>,
    pub mem_gen: u64,
    /// Set by a serialization point or an overlapping store mid-recording.
    pub aborted: bool,
}

/// Per-core trace cache: heat profile, formed traces, page index, and the
/// (at most one) in-progress recording.
#[derive(Debug, Clone)]
pub struct TraceCache {
    /// Block head → entry count (the hotness profile).
    heat: FastMap<u64, u32>,
    /// Trace entry rip → pool index (only valid traces are indexed).
    by_entry: FastMap<u64, u32>,
    pool: Vec<Trace>,
    /// Page base → pool indices of traces with ops on that page; stale
    /// entries (unlinked traces) are skipped on use and pruned on reset.
    page_index: FastMap<u64, Vec<u32>>,
    pub rec: Option<TraceRec>,
    /// Monomorphic lookup hint: the last `(entry rip, pool index)` a
    /// lookup resolved. Tight loops re-enter the same trace every
    /// iteration, turning the hash lookup into two compares. Never
    /// trusted blindly — the hit test re-checks entry and validity, so
    /// unlinks and pool resets need no hint bookkeeping.
    last: (u64, u32),
}

impl TraceCache {
    pub(crate) fn new() -> TraceCache {
        TraceCache {
            heat: FastMap::default(),
            by_entry: FastMap::default(),
            pool: Vec::new(),
            page_index: FastMap::default(),
            rec: None,
            last: (u64::MAX, 0),
        }
    }

    /// Pool index of the valid trace entered at `rip`, if any.
    #[inline]
    pub fn lookup(&mut self, rip: u64) -> Option<u32> {
        let (hint_rip, hint_idx) = self.last;
        if hint_rip == rip {
            if let Some(t) = self.pool.get(hint_idx as usize) {
                if t.valid && t.entry == rip {
                    return Some(hint_idx);
                }
            }
        }
        let idx = *self.by_entry.get(&rip)?;
        if self.pool[idx as usize].valid {
            self.last = (rip, idx);
            Some(idx)
        } else {
            None
        }
    }

    #[inline]
    pub fn get(&self, idx: u32) -> &Trace {
        &self.pool[idx as usize]
    }

    #[inline]
    pub fn get_mut(&mut self, idx: u32) -> &mut Trace {
        &mut self.pool[idx as usize]
    }

    /// Bumps the heat of block head `rip`; true once it crosses the
    /// recording threshold.
    #[inline]
    pub fn bump_heat(&mut self, rip: u64) -> bool {
        let h = self.heat.entry(rip).or_insert(0);
        *h = h.saturating_add(1);
        *h >= HOT_THRESHOLD
    }

    /// Starts recording a trace entered at `rip` under mapping generation
    /// `mem_gen` (no-op if a recording is already in progress).
    pub fn start_recording(&mut self, rip: u64, mem_gen: u64) {
        if self.rec.is_some() {
            return;
        }
        self.rec = Some(TraceRec {
            entry: rip,
            ops: Vec::with_capacity(16),
            pages: Vec::with_capacity(4),
            mem_gen,
            aborted: false,
        });
    }

    /// Unlinks `rip`'s trace (failed revalidation). Clears its heat so it
    /// must re-earn promotion under the new code bytes.
    pub fn unlink_entry(&mut self, rip: u64) {
        if let Some(idx) = self.by_entry.remove(&rip) {
            self.pool[idx as usize].valid = false;
            self.heat.remove(&rip);
            sim_obs::trace_unlink(1);
        }
    }

    /// Unlinks every trace registered on `page` and aborts an in-progress
    /// recording that touches it (own-core store semantics).
    pub fn unlink_page(&mut self, page: u64) {
        if let Some(rec) = &mut self.rec {
            if rec.pages.iter().any(|&(p, _)| p == page) {
                rec.aborted = true;
            }
        }
        let Some(idxs) = self.page_index.remove(&page) else {
            return;
        };
        let mut unlinked = 0u64;
        for idx in idxs {
            let t = &mut self.pool[idx as usize];
            if t.valid {
                t.valid = false;
                self.by_entry.remove(&t.entry);
                self.heat.remove(&t.entry);
                unlinked += 1;
            }
        }
        if unlinked > 0 {
            sim_obs::trace_unlink(unlinked);
        }
    }

    /// Aborts an in-progress recording (serialization point mid-trace).
    #[inline]
    pub fn abort_recording(&mut self) {
        if let Some(rec) = &mut self.rec {
            rec.aborted = true;
        }
    }

    /// Closes the in-progress recording, forming a trace unless it was
    /// aborted or captured nothing. The head's heat is dropped (a formed
    /// trace is found by lookup first, and an unlinked one re-earns
    /// promotion from zero), and the op and page vectors are trimmed to
    /// size, since a trace lives until it is unlinked or the pool resets.
    pub fn finalize(&mut self, flush_gen: u64) {
        let Some(mut rec) = self.rec.take() else {
            return;
        };
        if rec.aborted || rec.ops.is_empty() {
            if rec.aborted {
                sim_obs::trace_abort();
            }
            return;
        }
        if self.pool.len() >= MAX_TRACES {
            self.pool.clear();
            self.by_entry = FastMap::default();
            self.page_index = FastMap::default();
            self.heat = FastMap::default();
        }
        self.heat.remove(&rec.entry);
        rec.ops.shrink_to_fit();
        rec.pages.shrink_to_fit();
        let idx = self.pool.len() as u32;
        for &(page, _) in &rec.pages {
            self.page_index.entry(page).or_default().push(idx);
        }
        self.by_entry.insert(rec.entry, idx);
        sim_obs::trace_form(rec.ops.len() as u64);
        self.pool.push(Trace {
            entry: rec.entry,
            ops: rec.ops,
            pages: rec.pages,
            mem_gen: rec.mem_gen,
            fresh_gen: flush_gen,
            valid: true,
            enters: 0,
            steps: 0,
            side_exits: 0,
        });
    }

    /// Per-trace occupancy snapshot over the current pool (dead traces
    /// included while they retain their counters): `(entry rip, op count,
    /// enters, replayed steps, side exits)`, hottest first.
    pub fn stats(&self) -> Vec<TraceStat> {
        let mut out: Vec<TraceStat> = self
            .pool
            .iter()
            .filter(|t| t.enters > 0)
            .map(|t| TraceStat {
                entry: t.entry,
                ops: t.ops.len() as u64,
                enters: t.enters,
                steps: t.steps,
                side_exits: t.side_exits,
            })
            .collect();
        out.sort_by(|a, b| b.steps.cmp(&a.steps).then(a.entry.cmp(&b.entry)));
        out
    }
}

/// One row of [`TraceCache::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStat {
    pub entry: u64,
    pub ops: u64,
    pub enters: u64,
    pub steps: u64,
    pub side_exits: u64,
}
