//! The paged guest address space.

use crate::perms::{Access, Perms, Pkru, NO_PKEY};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Page size in bytes (4 KiB, as on x86-64).
pub const PAGE_SIZE: u64 = 4096;

/// Why a guest memory access faulted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultReason {
    /// No mapping covers the address.
    Unmapped,
    /// The page permissions forbid the access.
    Protection,
    /// The page's protection key is disabled in the active PKRU.
    PkuDenied,
}

/// A guest memory fault (becomes SIGSEGV when raised during execution).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// Faulting guest virtual address.
    pub addr: u64,
    /// What kind of access faulted.
    pub access: Access,
    /// Why.
    pub reason: FaultReason,
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?} fault at {:#x} ({:?})",
            self.access, self.addr, self.reason
        )
    }
}

impl std::error::Error for Fault {}

/// Errors from mapping operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapError {
    /// Requested range overlaps an existing mapping.
    Overlap { addr: u64 },
    /// Address or length is not page-aligned / is zero.
    BadRange,
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::Overlap { addr } => write!(f, "mapping overlaps at {addr:#x}"),
            MapError::BadRange => write!(f, "unaligned or empty range"),
        }
    }
}

impl std::error::Error for MapError {}

/// A named region of the address space — one line of `/proc/$PID/maps`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mapping {
    /// First address.
    pub start: u64,
    /// One past the last address.
    pub end: u64,
    /// Permissions the region was mapped/mprotected with.
    pub perms: Perms,
    /// Region name, e.g. `/usr/lib/libc-sim.so.6` or `[stack]`.
    pub name: String,
    /// Protection key applied to the whole region.
    pub pkey: u8,
}

impl Mapping {
    /// True if `addr` falls inside the region.
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.start && addr < self.end
    }
}

/// One materialized page frame, stored in the slab ([`AddressSpace::frames`]).
#[derive(Debug, Clone)]
struct Frame {
    data: Box<[u8]>, // PAGE_SIZE bytes
    perms: Perms,
    pkey: u8,
    /// Content version: stamped from the space-wide monotonic counter on
    /// every write touching this page (and on allocation), so two observations
    /// of equal version guarantee byte-identical page contents. Lets the CPU
    /// revalidate cached decodes at serialization points instead of
    /// re-fetching and re-decoding unchanged code.
    version: u64,
}

/// Software-TLB size. Power of two; indexed by page-number low bits.
const TLB_SIZE: usize = 64;

/// One software-TLB slot: a page translation plus the page's protection
/// attributes. Valid only while `stamp` equals the space's current
/// generation — any map/unmap/protect/set_pkey bumps the generation and
/// thereby invalidates the whole TLB in O(1).
#[derive(Debug, Clone, Copy)]
struct TlbEntry {
    base: u64,
    slot: u32,
    perms: Perms,
    pkey: u8,
    stamp: u64,
}

impl Default for TlbEntry {
    fn default() -> TlbEntry {
        TlbEntry {
            base: 0,
            slot: 0,
            perms: Perms::NONE,
            pkey: NO_PKEY,
            stamp: 0, // generations start at 1, so default entries never hit
        }
    }
}

/// A lazily-materialized paged address space.
///
/// `map` records a [`Mapping`] without allocating page frames; frames are
/// created on first touch. This matches `mmap` semantics and keeps a
/// 2^44-byte zpoline bitmap reservation affordable (P4b).
///
/// # Fast path
///
/// Page frames live in a slab (`frames` + `free_frames`) and the page table
/// maps page base → slab slot. A direct-mapped software TLB caches the last
/// translations so the hot path (straight-line fetch/load/store loops)
/// skips the `BTreeMap` walk entirely. Accesses are performed in *page
/// runs* — one permission check and one `copy_from_slice` per page touched
/// rather than per byte. The byte-at-a-time `*_ref` twins of the checked
/// accessors are kept as the semantic reference: equivalence is enforced
/// by property tests.
#[derive(Debug, Clone)]
pub struct AddressSpace {
    /// Page table: page base → slab slot of the materialized frame.
    pages: BTreeMap<u64, u32>,
    /// Frame slab; slots are stable until the page is unmapped.
    frames: Vec<Frame>,
    /// Recyclable slab slots (pages that were unmapped).
    free_frames: Vec<u32>,
    /// Direct-mapped software TLB.
    tlb: [TlbEntry; TLB_SIZE],
    /// TLB generation; bumped by any operation that changes translations or
    /// protection attributes.
    tlb_gen: u64,
    /// Monotonic source for [`Frame::version`] stamps; never repeats, so a
    /// version can be compared across unmap/remap cycles.
    version_counter: u64,
    mappings: Vec<Mapping>,
    /// Written-page set for incremental snapshots (`None` = tracking off,
    /// the default; the write fast paths then pay a single branch).
    dirty: Option<BTreeSet<u64>>,
}

impl Default for AddressSpace {
    fn default() -> AddressSpace {
        AddressSpace {
            pages: BTreeMap::new(),
            frames: Vec::new(),
            free_frames: Vec::new(),
            tlb: [TlbEntry::default(); TLB_SIZE],
            // Generation 1 so default (stamp-0) TLB entries can never hit.
            tlb_gen: 1,
            version_counter: 0,
            mappings: Vec::new(),
            dirty: None,
        }
    }
}

impl AddressSpace {
    /// Creates an empty address space.
    pub fn new() -> AddressSpace {
        AddressSpace::default()
    }

    /// Bumps the TLB generation, invalidating every cached translation.
    #[inline]
    fn tlb_flush(&mut self) {
        self.tlb_gen = self.tlb_gen.wrapping_add(1).max(1);
    }

    #[inline]
    fn tlb_index(base: u64) -> usize {
        ((base / PAGE_SIZE) as usize) & (TLB_SIZE - 1)
    }

    /// Translation/protection generation: changes whenever any mapping,
    /// protection, or pkey changes. Consumers caching derived state (region
    /// names, decoded code) compare generations to detect staleness.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.tlb_gen
    }

    /// Fresh, never-repeating content-version stamp.
    #[inline]
    fn next_version(&mut self) -> u64 {
        self.version_counter += 1;
        self.version_counter
    }

    /// Enables or disables written-page tracking. Enabling clears any
    /// previously accumulated set; disabling drops it. While enabled, every
    /// write path (checked, raw, and the byte-at-a-time reference twins)
    /// and every protection/pkey change records the affected page bases for
    /// [`AddressSpace::take_dirty_pages`].
    pub fn set_dirty_tracking(&mut self, on: bool) {
        self.dirty = if on { Some(BTreeSet::new()) } else { None };
    }

    /// True while written-page tracking is enabled. A space created after
    /// tracking was configured (e.g. by `execve`) reports `false` until
    /// re-enabled — checkpointing uses this to detect that its incremental
    /// page deltas no longer cover the process.
    pub fn dirty_tracking(&self) -> bool {
        self.dirty.is_some()
    }

    /// Drains the set of page bases written (or re-protected) since the
    /// last drain, sorted ascending. Empty when tracking is off.
    pub fn take_dirty_pages(&mut self) -> Vec<u64> {
        match self.dirty.as_mut() {
            Some(d) => std::mem::take(d).into_iter().collect(),
            None => Vec::new(),
        }
    }

    #[inline]
    fn mark_dirty(&mut self, base: u64) {
        if let Some(d) = self.dirty.as_mut() {
            d.insert(base);
        }
    }

    /// Marks every page base in `[addr, addr+len)` dirty (protection and
    /// pkey changes must reach incremental snapshots too).
    fn mark_range_dirty(&mut self, addr: u64, len: u64) {
        if self.dirty.is_none() {
            return;
        }
        let start = Self::page_base(addr);
        let end = addr
            .checked_add(len)
            .map(|e| Self::page_base(e + PAGE_SIZE - 1))
            .unwrap_or(u64::MAX);
        let mut base = start;
        while base < end {
            self.mark_dirty(base);
            base += PAGE_SIZE;
        }
    }

    /// Snapshot of the materialized page at `base`: protection attributes
    /// plus a copy of its 4 KiB contents. `None` if the page was never
    /// touched (it is still implicitly zero and needs no snapshot).
    pub fn snapshot_page(&self, base: u64) -> Option<(Perms, u8, Vec<u8>)> {
        let &slot = self.pages.get(&base)?;
        let f = &self.frames[slot as usize];
        Some((f.perms, f.pkey, f.data.to_vec()))
    }

    /// Serialization stamp: `(generation, last issued content version)`.
    /// Two equal stamps guarantee that *no* write, mapping, protection, or
    /// pkey change happened in between — every write path draws a fresh
    /// version from the monotonic counter, and every translation change
    /// bumps the generation. Cores use this to coalesce serialization
    /// points: a flush between two equal stamps could not publish anything
    /// new, so revalidating cached decodes against it would trivially
    /// succeed.
    #[inline]
    pub fn write_stamp(&self) -> (u64, u64) {
        (self.tlb_gen, self.version_counter)
    }

    /// Content version of the materialized page at `base` (`None` if the
    /// page is unmapped or was never touched). Equal versions guarantee
    /// byte-identical contents — see `Frame::version`.
    #[inline]
    pub fn page_version(&mut self, base: u64) -> Option<u64> {
        let e = self.tlb[Self::tlb_index(base)];
        if e.stamp == self.tlb_gen && e.base == base {
            return Some(self.frames[e.slot as usize].version);
        }
        self.pages.get(&base).map(|&s| self.frames[s as usize].version)
    }

    fn page_base(addr: u64) -> u64 {
        addr & !(PAGE_SIZE - 1)
    }

    /// The mapping covering `addr`, if any.
    pub fn mapping_at(&self, addr: u64) -> Option<&Mapping> {
        self.mappings.iter().find(|m| m.contains(addr))
    }

    /// All mappings, sorted by start address (the `/proc/maps` view).
    pub fn mappings(&self) -> Vec<&Mapping> {
        let mut v: Vec<&Mapping> = self.mappings.iter().collect();
        v.sort_by_key(|m| m.start);
        v
    }

    /// Renders the `/proc/$PID/maps`-style listing.
    pub fn render_maps(&self) -> String {
        let mut s = String::new();
        for m in self.mappings() {
            s.push_str(&format!(
                "{:012x}-{:012x} {} {}\n",
                m.start, m.end, m.perms, m.name
            ));
        }
        s
    }

    /// Total bytes of *materialized* page frames (the P4b metric).
    pub fn resident_bytes(&self) -> u64 {
        self.pages.len() as u64 * PAGE_SIZE
    }

    /// Total bytes of *reserved* virtual address space.
    pub fn reserved_bytes(&self) -> u64 {
        self.mappings.iter().map(|m| m.end - m.start).sum()
    }

    /// Materialized bytes within `[start, end)` (the per-structure P4b
    /// memory metric).
    pub fn resident_bytes_in(&self, start: u64, end: u64) -> u64 {
        self.pages.range(start..end).count() as u64 * PAGE_SIZE
    }

    /// True if some mapping covers `addr`.
    pub fn is_mapped(&self, addr: u64) -> bool {
        self.mapping_at(addr).is_some()
    }

    /// Maps `[addr, addr+len)` with `perms`, named `name`.
    ///
    /// # Errors
    ///
    /// [`MapError::BadRange`] if `addr`/`len` are unaligned or `len == 0`;
    /// [`MapError::Overlap`] if the range intersects an existing mapping.
    pub fn map(&mut self, addr: u64, len: u64, perms: Perms, name: &str) -> Result<(), MapError> {
        if len == 0 || !addr.is_multiple_of(PAGE_SIZE) || !len.is_multiple_of(PAGE_SIZE) {
            return Err(MapError::BadRange);
        }
        let end = addr.checked_add(len).ok_or(MapError::BadRange)?;
        for m in &self.mappings {
            if addr < m.end && m.start < end {
                return Err(MapError::Overlap { addr: m.start });
            }
        }
        self.mappings.push(Mapping {
            start: addr,
            end,
            perms,
            name: name.to_string(),
            pkey: NO_PKEY,
        });
        self.tlb_flush();
        Ok(())
    }

    /// Finds a free page-aligned range of `len` bytes at or above `hint`.
    pub fn find_free(&self, hint: u64, len: u64) -> u64 {
        let len = len.div_ceil(PAGE_SIZE) * PAGE_SIZE;
        let mut cand = Self::page_base(hint.max(PAGE_SIZE));
        let mut sorted = self.mappings();
        sorted.retain(|m| m.end > cand);
        loop {
            let conflict = sorted
                .iter()
                .find(|m| cand < m.end && m.start < cand + len)
                .copied();
            match conflict {
                None => return cand,
                Some(m) => cand = m.end,
            }
        }
    }

    /// Unmaps every mapping fully contained in `[addr, addr+len)` and frees
    /// its page frames. Partial overlaps trim the mapping.
    pub fn unmap(&mut self, addr: u64, len: u64) {
        let end = addr.saturating_add(len);
        let mut keep = Vec::new();
        for mut m in std::mem::take(&mut self.mappings) {
            if m.end <= addr || m.start >= end {
                keep.push(m);
            } else if m.start >= addr && m.end <= end {
                // fully covered: drop
            } else if m.start < addr && m.end > end {
                // split
                let tail = Mapping {
                    start: end,
                    end: m.end,
                    perms: m.perms,
                    name: m.name.clone(),
                    pkey: m.pkey,
                };
                m.end = addr;
                keep.push(m);
                keep.push(tail);
            } else if m.start < addr {
                m.end = addr;
                keep.push(m);
            } else {
                m.start = end;
                keep.push(m);
            }
        }
        self.mappings = keep;
        let bases: Vec<u64> = self
            .pages
            .range(Self::page_base(addr)..end)
            .map(|(b, _)| *b)
            .collect();
        for b in bases {
            if let Some(slot) = self.pages.remove(&b) {
                self.free_frames.push(slot);
            }
        }
        self.tlb_flush();
    }

    /// Changes permissions for all pages in `[addr, addr+len)`.
    ///
    /// Pages are materialized so the change sticks; the covering mapping's
    /// display permissions are updated when fully covered.
    ///
    /// # Errors
    ///
    /// Faults with [`FaultReason::Unmapped`] if part of the range is
    /// unmapped.
    pub fn protect(&mut self, addr: u64, len: u64, perms: Perms) -> Result<(), Fault> {
        self.mark_range_dirty(addr, len);
        self.for_each_page(addr, len, |page| page.perms = perms)?;
        for m in &mut self.mappings {
            if m.start >= addr && m.end <= addr.saturating_add(len) {
                m.perms = perms;
            }
        }
        self.tlb_flush();
        Ok(())
    }

    /// Assigns protection key `pkey` to all pages in the range.
    ///
    /// # Errors
    ///
    /// Faults if part of the range is unmapped.
    pub fn set_pkey(&mut self, addr: u64, len: u64, pkey: u8) -> Result<(), Fault> {
        self.mark_range_dirty(addr, len);
        self.for_each_page(addr, len, |page| page.pkey = pkey)?;
        for m in &mut self.mappings {
            if m.start >= addr && m.end <= addr.saturating_add(len) {
                m.pkey = pkey;
            }
        }
        self.tlb_flush();
        Ok(())
    }

    /// Current permissions of the page containing `addr`.
    pub fn page_perms(&self, addr: u64) -> Option<Perms> {
        let base = Self::page_base(addr);
        if let Some(&slot) = self.pages.get(&base) {
            return Some(self.frames[slot as usize].perms);
        }
        self.mapping_at(addr).map(|m| m.perms)
    }

    fn for_each_page(
        &mut self,
        addr: u64,
        len: u64,
        mut f: impl FnMut(&mut Frame),
    ) -> Result<(), Fault> {
        let start = Self::page_base(addr);
        let end = addr
            .checked_add(len)
            .map(|e| Self::page_base(e + PAGE_SIZE - 1))
            .unwrap_or(u64::MAX);
        let mut base = start;
        while base < end {
            let slot = self.materialize_slot(base).ok_or(Fault {
                addr: base,
                access: Access::Write,
                reason: FaultReason::Unmapped,
            })?;
            f(&mut self.frames[slot as usize]);
            base += PAGE_SIZE;
        }
        Ok(())
    }

    /// Takes a frame from the free list (re-zeroed) or grows the slab.
    fn alloc_frame(&mut self, perms: Perms, pkey: u8) -> u32 {
        let version = self.next_version();
        match self.free_frames.pop() {
            Some(slot) => {
                let f = &mut self.frames[slot as usize];
                f.data.fill(0);
                f.perms = perms;
                f.pkey = pkey;
                f.version = version;
                slot
            }
            None => {
                let slot = u32::try_from(self.frames.len()).expect("frame slab overflow");
                self.frames.push(Frame {
                    data: vec![0u8; PAGE_SIZE as usize].into_boxed_slice(),
                    perms,
                    pkey,
                    version,
                });
                slot
            }
        }
    }

    /// Slab slot of the frame for `base`, materializing on first touch.
    /// Does not consult or fill the TLB (slow/reference path).
    fn materialize_slot(&mut self, base: u64) -> Option<u32> {
        if let Some(&slot) = self.pages.get(&base) {
            return Some(slot);
        }
        let m = self.mapping_at(base)?;
        let (perms, pkey) = (m.perms, m.pkey);
        let slot = self.alloc_frame(perms, pkey);
        self.pages.insert(base, slot);
        Some(slot)
    }

    /// Fast-path page lookup: TLB first, then page table, then lazy
    /// materialization. Fills the TLB on miss. Returns the slab slot plus
    /// the page's protection attributes.
    #[inline]
    fn load_page(&mut self, base: u64) -> Option<(u32, Perms, u8)> {
        let idx = Self::tlb_index(base);
        let e = self.tlb[idx];
        if e.stamp == self.tlb_gen && e.base == base {
            sim_obs::tlb_hit();
            return Some((e.slot, e.perms, e.pkey));
        }
        let slot = self.materialize_slot(base)?;
        sim_obs::tlb_fill(base);
        let f = &self.frames[slot as usize];
        let (perms, pkey) = (f.perms, f.pkey);
        self.tlb[idx] = TlbEntry {
            base,
            slot,
            perms,
            pkey,
            stamp: self.tlb_gen,
        };
        Some((slot, perms, pkey))
    }

    /// Per-page permission + PKU check (one check covers a whole page run:
    /// protection attributes are uniform within a page).
    #[inline]
    fn check_attrs(
        perms: Perms,
        pkey: u8,
        addr: u64,
        access: Access,
        pkru: Pkru,
    ) -> Result<(), Fault> {
        let ok_perms = match access {
            Access::Read => perms.readable(),
            Access::Write => perms.writable(),
            Access::Fetch => perms.executable(),
        };
        if !ok_perms {
            return Err(Fault {
                addr,
                access,
                reason: FaultReason::Protection,
            });
        }
        let ok_pku = match access {
            Access::Read => pkru.may_read(pkey),
            Access::Write => pkru.may_write(pkey),
            Access::Fetch => true,
        };
        if !ok_pku {
            return Err(Fault {
                addr,
                access,
                reason: FaultReason::PkuDenied,
            });
        }
        Ok(())
    }

    /// Checked access used by the CPU and by syscall argument copying,
    /// performed in page runs. For writes, pass the data as `write_src`
    /// (`buf` may be empty); for reads, the length is `buf.len()`.
    ///
    /// # Errors
    ///
    /// Returns the first [`Fault`] encountered; preceding bytes may have been
    /// transferred (like a partial hardware access).
    pub fn access(
        &mut self,
        addr: u64,
        buf: &mut [u8],
        access: Access,
        pkru: Pkru,
        write_src: Option<&[u8]>,
    ) -> Result<(), Fault> {
        let len = write_src.map_or(buf.len(), <[u8]>::len);
        let mut done = 0usize;
        while done < len {
            let a = addr.wrapping_add(done as u64);
            let base = Self::page_base(a);
            let off = (a - base) as usize;
            let run = (PAGE_SIZE as usize - off).min(len - done);
            sim_obs::page_run(run as u64);
            let (slot, perms, pkey) = self.load_page(base).ok_or(Fault {
                addr: a,
                access,
                reason: FaultReason::Unmapped,
            })?;
            Self::check_attrs(perms, pkey, a, access, pkru)?;
            match write_src {
                Some(src) => {
                    let v = self.next_version();
                    self.mark_dirty(base);
                    let frame = &mut self.frames[slot as usize];
                    frame.data[off..off + run].copy_from_slice(&src[done..done + run]);
                    frame.version = v;
                }
                None => {
                    let frame = &self.frames[slot as usize];
                    buf[done..done + run].copy_from_slice(&frame.data[off..off + run]);
                }
            }
            done += run;
        }
        Ok(())
    }

    /// Byte-at-a-time twin of [`AddressSpace::access`] — the original
    /// (pre-fast-path) engine, kept as the semantic reference. Property
    /// tests assert byte-for-byte and fault-for-fault equivalence.
    ///
    /// # Errors
    ///
    /// Identical to [`AddressSpace::access`].
    pub fn access_ref(
        &mut self,
        addr: u64,
        buf: &mut [u8],
        access: Access,
        pkru: Pkru,
        write_src: Option<&[u8]>,
    ) -> Result<(), Fault> {
        let len = write_src.map_or(buf.len(), <[u8]>::len);
        for i in 0..len {
            let a = addr.wrapping_add(i as u64);
            let base = Self::page_base(a);
            let off = (a - base) as usize;
            let slot = self.materialize_slot(base).ok_or(Fault {
                addr: a,
                access,
                reason: FaultReason::Unmapped,
            })? as usize;
            let (perms, pkey) = (self.frames[slot].perms, self.frames[slot].pkey);
            Self::check_attrs(perms, pkey, a, access, pkru)?;
            match write_src {
                Some(src) => {
                    let v = self.next_version();
                    self.mark_dirty(base);
                    self.frames[slot].data[off] = src[i];
                    self.frames[slot].version = v;
                }
                None => buf[i] = self.frames[slot].data[off],
            }
        }
        Ok(())
    }

    /// Checked read.
    ///
    /// # Errors
    ///
    /// Faults on unmapped/unreadable/PKU-denied pages.
    pub fn read(&mut self, addr: u64, buf: &mut [u8], pkru: Pkru) -> Result<(), Fault> {
        self.access(addr, buf, Access::Read, pkru, None)
    }

    /// Checked write.
    ///
    /// # Errors
    ///
    /// Faults on unmapped/unwritable/PKU-denied pages.
    pub fn write(&mut self, addr: u64, data: &[u8], pkru: Pkru) -> Result<(), Fault> {
        self.access(addr, &mut [], Access::Write, pkru, Some(data))
    }

    /// Byte-at-a-time reference twin of [`AddressSpace::write`] (includes
    /// the original scratch-buffer allocation, for faithful benchmarking).
    ///
    /// # Errors
    ///
    /// Identical to [`AddressSpace::write`].
    pub fn write_ref(&mut self, addr: u64, data: &[u8], pkru: Pkru) -> Result<(), Fault> {
        let mut scratch = vec![0u8; data.len()];
        self.access_ref(addr, &mut scratch, Access::Write, pkru, Some(data))
    }

    /// Byte-at-a-time reference twin of [`AddressSpace::read`].
    ///
    /// # Errors
    ///
    /// Identical to [`AddressSpace::read`].
    pub fn read_ref(&mut self, addr: u64, buf: &mut [u8], pkru: Pkru) -> Result<(), Fault> {
        self.access_ref(addr, buf, Access::Read, pkru, None)
    }

    /// Checked instruction fetch of up to `buf.len()` bytes; stops early at
    /// an unmapped/non-executable page boundary and returns how many bytes
    /// were fetched (≥ 1 on success).
    ///
    /// # Errors
    ///
    /// Faults if even the first byte cannot be fetched.
    pub fn fetch(&mut self, addr: u64, buf: &mut [u8], pkru: Pkru) -> Result<usize, Fault> {
        let len = buf.len();
        let mut done = 0usize;
        while done < len {
            let a = addr.wrapping_add(done as u64);
            let base = Self::page_base(a);
            let off = (a - base) as usize;
            let run = (PAGE_SIZE as usize - off).min(len - done);
            sim_obs::page_run(run as u64);
            let checked = self
                .load_page(base)
                .ok_or(Fault {
                    addr: a,
                    access: Access::Fetch,
                    reason: FaultReason::Unmapped,
                })
                .and_then(|(slot, perms, pkey)| {
                    Self::check_attrs(perms, pkey, a, Access::Fetch, pkru)?;
                    Ok(slot)
                });
            match checked {
                Ok(slot) => {
                    let frame = &self.frames[slot as usize];
                    buf[done..done + run].copy_from_slice(&frame.data[off..off + run]);
                    done += run;
                }
                Err(f) if done == 0 => return Err(f),
                Err(_) => return Ok(done),
            }
        }
        Ok(len)
    }

    /// Byte-at-a-time reference twin of [`AddressSpace::fetch`].
    ///
    /// # Errors
    ///
    /// Identical to [`AddressSpace::fetch`].
    pub fn fetch_ref(&mut self, addr: u64, buf: &mut [u8], pkru: Pkru) -> Result<usize, Fault> {
        #[allow(clippy::needless_range_loop)] // early-return index semantics
        for i in 0..buf.len() {
            let mut one = [0u8; 1];
            match self.access_ref(addr.wrapping_add(i as u64), &mut one, Access::Fetch, pkru, None)
            {
                Ok(()) => buf[i] = one[0],
                Err(f) => {
                    if i == 0 {
                        return Err(f);
                    }
                    return Ok(i);
                }
            }
        }
        Ok(buf.len())
    }

    /// Checked u64 read (little-endian).
    ///
    /// # Errors
    ///
    /// Faults like [`AddressSpace::read`].
    pub fn read_u64(&mut self, addr: u64, pkru: Pkru) -> Result<u64, Fault> {
        let mut b = [0u8; 8];
        self.read(addr, &mut b, pkru)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Checked u64 write (little-endian).
    ///
    /// # Errors
    ///
    /// Faults like [`AddressSpace::write`].
    pub fn write_u64(&mut self, addr: u64, v: u64, pkru: Pkru) -> Result<(), Fault> {
        self.write(addr, &v.to_le_bytes(), pkru)
    }

    /// Checked u8 read.
    ///
    /// # Errors
    ///
    /// Faults like [`AddressSpace::read`].
    pub fn read_u8(&mut self, addr: u64, pkru: Pkru) -> Result<u8, Fault> {
        let mut b = [0u8; 1];
        self.read(addr, &mut b, pkru)?;
        Ok(b[0])
    }

    /// Checked u8 write.
    ///
    /// # Errors
    ///
    /// Faults like [`AddressSpace::write`].
    pub fn write_u8(&mut self, addr: u64, v: u8, pkru: Pkru) -> Result<(), Fault> {
        self.write(addr, &[v], pkru)
    }

    /// Kernel-privileged read ignoring permissions and PKU (used by syscall
    /// argument copying, ptrace peeks, and loaders). Still faults on
    /// unmapped addresses.
    ///
    /// # Errors
    ///
    /// Faults with [`FaultReason::Unmapped`] only.
    pub fn read_raw(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), Fault> {
        self.raw_access(addr, buf, Access::Read, None)
    }

    /// Kernel-privileged write, ignoring permissions and PKU.
    ///
    /// # Errors
    ///
    /// Faults with [`FaultReason::Unmapped`] only.
    pub fn write_raw(&mut self, addr: u64, data: &[u8]) -> Result<(), Fault> {
        self.raw_access(addr, &mut [], Access::Write, Some(data))
    }

    /// Page-run unchecked access backing `read_raw`/`write_raw`.
    fn raw_access(
        &mut self,
        addr: u64,
        buf: &mut [u8],
        access: Access,
        write_src: Option<&[u8]>,
    ) -> Result<(), Fault> {
        let len = write_src.map_or(buf.len(), <[u8]>::len);
        let mut done = 0usize;
        while done < len {
            let a = addr.wrapping_add(done as u64);
            let base = Self::page_base(a);
            let off = (a - base) as usize;
            let run = (PAGE_SIZE as usize - off).min(len - done);
            sim_obs::page_run(run as u64);
            let (slot, _, _) = self.load_page(base).ok_or(Fault {
                addr: a,
                access,
                reason: FaultReason::Unmapped,
            })?;
            match write_src {
                Some(src) => {
                    let v = self.next_version();
                    self.mark_dirty(base);
                    let frame = &mut self.frames[slot as usize];
                    frame.data[off..off + run].copy_from_slice(&src[done..done + run]);
                    frame.version = v;
                }
                None => {
                    let frame = &self.frames[slot as usize];
                    buf[done..done + run].copy_from_slice(&frame.data[off..off + run]);
                }
            }
            done += run;
        }
        Ok(())
    }

    /// Kernel-privileged NUL-terminated string read (bounded at 4096 bytes).
    ///
    /// Scans page runs for the terminator rather than issuing one
    /// `read_raw` per byte.
    ///
    /// # Errors
    ///
    /// Faults on unmapped addresses; non-UTF-8 bytes are replaced.
    pub fn read_cstr(&mut self, addr: u64) -> Result<String, Fault> {
        let mut out = Vec::new();
        let mut pos = 0u64;
        'scan: while pos < 4096 {
            let a = addr + pos;
            let base = Self::page_base(a);
            let off = (a - base) as usize;
            let run = (PAGE_SIZE as usize - off).min((4096 - pos) as usize);
            let (slot, _, _) = self.load_page(base).ok_or(Fault {
                addr: a,
                access: Access::Read,
                reason: FaultReason::Unmapped,
            })?;
            let chunk = &self.frames[slot as usize].data[off..off + run];
            match chunk.iter().position(|&b| b == 0) {
                Some(n) => {
                    out.extend_from_slice(&chunk[..n]);
                    break 'scan;
                }
                None => out.extend_from_slice(chunk),
            }
            pos += run as u64;
        }
        Ok(String::from_utf8_lossy(&out).into_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space_with(addr: u64, len: u64, perms: Perms) -> AddressSpace {
        let mut s = AddressSpace::new();
        s.map(addr, len, perms, "test").unwrap();
        s
    }

    #[test]
    fn map_read_write_roundtrip() {
        let mut s = space_with(0x1000, 0x2000, Perms::RW);
        s.write(0x1ffc, &[1, 2, 3, 4, 5, 6, 7, 8], Pkru::ALL_ACCESS)
            .unwrap(); // crosses a page boundary
        let mut buf = [0u8; 8];
        s.read(0x1ffc, &mut buf, Pkru::ALL_ACCESS).unwrap();
        assert_eq!(buf, [1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn unmapped_access_faults() {
        let mut s = AddressSpace::new();
        let err = s.read_u64(0x5000, Pkru::ALL_ACCESS).unwrap_err();
        assert_eq!(err.reason, FaultReason::Unmapped);
        assert_eq!(err.addr, 0x5000);
    }

    #[test]
    fn permission_checks() {
        let mut s = space_with(0x1000, 0x1000, Perms::R);
        assert!(s.read_u8(0x1000, Pkru::ALL_ACCESS).is_ok());
        let err = s.write_u8(0x1000, 1, Pkru::ALL_ACCESS).unwrap_err();
        assert_eq!(err.reason, FaultReason::Protection);
        let mut buf = [0u8; 1];
        let err = s.fetch(0x1000, &mut buf, Pkru::ALL_ACCESS).unwrap_err();
        assert_eq!(err.reason, FaultReason::Protection);
    }

    #[test]
    fn overlap_rejected() {
        let mut s = space_with(0x1000, 0x1000, Perms::RW);
        assert_eq!(
            s.map(0x1000, 0x1000, Perms::RW, "x"),
            Err(MapError::Overlap { addr: 0x1000 })
        );
        assert_eq!(s.map(0x800, 0x1000, Perms::RW, "x"), Err(MapError::BadRange));
        assert!(s.map(0x2000, 0x1000, Perms::RW, "x").is_ok());
    }

    #[test]
    fn xom_page_executes_but_faults_on_read() {
        // The P4/P4a scenario: page 0 trampoline is execute-only via PKU.
        let mut s = space_with(0x0, 0x1000, Perms::RX);
        s.set_pkey(0x0, 0x1000, 1).unwrap();
        s.write_raw(0, &[0x90, 0x90]).unwrap(); // kernel-side install
        let mut pkru = Pkru::ALL_ACCESS;
        pkru.set_access_disable(1, true);
        // Fetch succeeds (PKU does not gate execution)…
        let mut buf = [0u8; 2];
        assert_eq!(s.fetch(0, &mut buf, pkru).unwrap(), 2);
        // …but data reads fault.
        let err = s.read_u8(0, pkru).unwrap_err();
        assert_eq!(err.reason, FaultReason::PkuDenied);
    }

    #[test]
    fn lazy_materialization_tracks_resident_bytes() {
        // Reserve 1 GiB, touch 3 pages: resident stays tiny (P4b).
        let mut s = space_with(0x100_0000, 1 << 30, Perms::RW);
        assert_eq!(s.resident_bytes(), 0);
        assert_eq!(s.reserved_bytes(), 1 << 30);
        s.write_u8(0x100_0000, 1, Pkru::ALL_ACCESS).unwrap();
        s.write_u8(0x100_0000 + (100 << 12), 1, Pkru::ALL_ACCESS).unwrap();
        s.write_u8(0x100_0000 + (9000 << 12), 1, Pkru::ALL_ACCESS).unwrap();
        assert_eq!(s.resident_bytes(), 3 * PAGE_SIZE);
    }

    #[test]
    fn protect_changes_page_perms() {
        let mut s = space_with(0x1000, 0x3000, Perms::RW);
        s.protect(0x2000, 0x1000, Perms::R).unwrap();
        assert!(s.write_u8(0x1000, 1, Pkru::ALL_ACCESS).is_ok());
        assert!(s.write_u8(0x2000, 1, Pkru::ALL_ACCESS).is_err());
        assert!(s.write_u8(0x3000, 1, Pkru::ALL_ACCESS).is_ok());
        assert_eq!(s.page_perms(0x2000), Some(Perms::R));
    }

    #[test]
    fn unmap_full_and_partial() {
        let mut s = space_with(0x1000, 0x4000, Perms::RW);
        s.write_u8(0x2000, 7, Pkru::ALL_ACCESS).unwrap();
        s.unmap(0x2000, 0x1000);
        assert!(s.read_u8(0x2000, Pkru::ALL_ACCESS).is_err());
        assert!(s.read_u8(0x1000, Pkru::ALL_ACCESS).is_ok());
        assert!(s.read_u8(0x3000, Pkru::ALL_ACCESS).is_ok());
        // The split produced two mappings.
        assert_eq!(s.mappings().len(), 2);
    }

    #[test]
    fn find_free_skips_existing() {
        let mut s = AddressSpace::new();
        s.map(0x1000, 0x1000, Perms::RW, "a").unwrap();
        s.map(0x3000, 0x1000, Perms::RW, "b").unwrap();
        let f = s.find_free(0x1000, 0x1000);
        assert_eq!(f, 0x2000);
        let f2 = s.find_free(0x1000, 0x2000);
        assert_eq!(f2, 0x4000);
    }

    #[test]
    fn render_maps_lists_regions() {
        let mut s = AddressSpace::new();
        s.map(0x1000, 0x1000, Perms::RX, "/usr/bin/ls-sim").unwrap();
        s.map(0x7000, 0x1000, Perms::RW, "[stack]").unwrap();
        let maps = s.render_maps();
        assert!(maps.contains("/usr/bin/ls-sim"));
        assert!(maps.contains("r-x"));
        assert!(maps.contains("[stack]"));
    }

    #[test]
    fn read_cstr() {
        let mut s = space_with(0x1000, 0x1000, Perms::RW);
        s.write_raw(0x1100, b"LD_PRELOAD=libk23.so\0").unwrap();
        assert_eq!(s.read_cstr(0x1100).unwrap(), "LD_PRELOAD=libk23.so");
    }

    #[test]
    fn fetch_stops_at_boundary() {
        let mut s = AddressSpace::new();
        s.map(0x1000, 0x1000, Perms::RX, "code").unwrap();
        // 10-byte fetch starting 4 bytes before the end of the mapping.
        let mut buf = [0u8; 10];
        let n = s.fetch(0x1ffc, &mut buf, Pkru::ALL_ACCESS).unwrap();
        assert_eq!(n, 4);
    }
}
