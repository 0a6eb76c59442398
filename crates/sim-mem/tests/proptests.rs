//! Property-based tests for the address space and the zpoline bitmap.

use proptest::prelude::*;
use sim_mem::{AddressSpace, Bitmap, Perms, Pkru, PAGE_SIZE};

proptest! {
    /// Bitmap agrees with a reference HashSet under arbitrary set/test mixes.
    #[test]
    fn bitmap_matches_reference(addrs in proptest::collection::vec(0u64..(1 << 47), 1..200)) {
        let mut bm = Bitmap::new();
        let mut set = std::collections::HashSet::new();
        for (i, a) in addrs.iter().enumerate() {
            if i % 3 != 2 {
                bm.set(*a);
                set.insert(*a);
            }
        }
        for a in &addrs {
            prop_assert_eq!(bm.test(*a), set.contains(a));
            prop_assert_eq!(bm.test(a ^ 1), set.contains(&(a ^ 1)));
        }
    }

    /// Writes then reads through the checked API round-trip, and resident
    /// pages never exceed the touched page count.
    #[test]
    fn write_read_roundtrip(
        offsets in proptest::collection::vec(0u64..(64 * PAGE_SIZE - 16), 1..64),
        val in any::<u64>(),
    ) {
        let mut s = AddressSpace::new();
        s.map(PAGE_SIZE, 64 * PAGE_SIZE, Perms::RW, "arena").unwrap();
        for (i, off) in offsets.iter().enumerate() {
            let addr = PAGE_SIZE + off;
            let v = val.wrapping_add(i as u64);
            s.write_u64(addr, v, Pkru::ALL_ACCESS).unwrap();
            prop_assert_eq!(s.read_u64(addr, Pkru::ALL_ACCESS).unwrap(), v);
        }
        prop_assert!(s.resident_bytes() <= (offsets.len() as u64 + 1) * 2 * PAGE_SIZE);
    }

    /// Raw (kernel) writes are visible to checked reads and vice versa.
    #[test]
    fn raw_and_checked_views_agree(addr_off in 0u64..(8 * PAGE_SIZE - 8), v in any::<u64>()) {
        let mut s = AddressSpace::new();
        s.map(0x10000, 8 * PAGE_SIZE, Perms::RW, "m").unwrap();
        let addr = 0x10000 + addr_off;
        s.write_raw(addr, &v.to_le_bytes()).unwrap();
        prop_assert_eq!(s.read_u64(addr, Pkru::ALL_ACCESS).unwrap(), v);
    }

    /// Unmapped addresses always fault, mapped ones never (for RW maps).
    #[test]
    fn mapping_boundaries_are_exact(pages in 1u64..16) {
        let mut s = AddressSpace::new();
        let base = 0x4000;
        s.map(base, pages * PAGE_SIZE, Perms::RW, "m").unwrap();
        prop_assert!(s.read_u8(base, Pkru::ALL_ACCESS).is_ok());
        prop_assert!(s.read_u8(base + pages * PAGE_SIZE - 1, Pkru::ALL_ACCESS).is_ok());
        prop_assert!(s.read_u8(base - 1, Pkru::ALL_ACCESS).is_err());
        prop_assert!(s.read_u8(base + pages * PAGE_SIZE, Pkru::ALL_ACCESS).is_err());
    }
}

/// The mapped pages of [`hostile_layout`].
const ARENA: [u64; 10] = [
    0x1000, 0x2000, 0x3000, 0x5000, 0x6000, 0x7000, 0x8000, 0x9000, 0xb000, 0xc000,
];

/// The bytes of the mapped page at `page`, read through the raw view.
fn raw_page(s: &mut AddressSpace, page: u64) -> Vec<u8> {
    let mut b = vec![0u8; PAGE_SIZE as usize];
    s.read_raw(page, &mut b).unwrap();
    b
}

/// A hostile layout for the fast-path/reference equivalence properties:
/// a patchwork of RW, RO, RX, XOM (PKU-guarded), and pkey-tagged regions
/// with unmapped holes between them, so random accesses cross page
/// boundaries, protection changes, PKU denials, and holes.
fn hostile_layout() -> AddressSpace {
    let mut s = AddressSpace::new();
    s.map(0x1000, 3 * PAGE_SIZE, Perms::RW, "rw").unwrap();
    // hole at 0x4000
    s.map(0x5000, 2 * PAGE_SIZE, Perms::R, "ro").unwrap();
    s.map(0x7000, 2 * PAGE_SIZE, Perms::RX, "code").unwrap();
    // XOM: executable but PKU-denied for data access
    s.map(0x9000, PAGE_SIZE, Perms::RX, "xom").unwrap();
    s.set_pkey(0x9000, PAGE_SIZE, 1).unwrap();
    // hole at 0xa000
    s.map(0xb000, 2 * PAGE_SIZE, Perms::RW, "keyed").unwrap();
    s.set_pkey(0xb000, 2 * PAGE_SIZE, 2).unwrap();
    // seed deterministic contents so reads see non-zero data
    for page in ARENA {
        let fill: Vec<u8> = (0..PAGE_SIZE).map(|i| (page >> 8) as u8 ^ i as u8).collect();
        s.write_raw(page, &fill).unwrap();
    }
    s
}

/// PKRU variants the equivalence properties sample: full access, key-1
/// denied (the XOM setup), key-2 write-denied, key-2 fully denied.
fn pkru_variants() -> Vec<Pkru> {
    let mut deny1 = Pkru::ALL_ACCESS;
    deny1.set_access_disable(1, true);
    let mut wd2 = Pkru::ALL_ACCESS;
    wd2.set_write_disable(2, true);
    let mut deny2 = Pkru::ALL_ACCESS;
    deny2.set_access_disable(2, true);
    vec![Pkru::ALL_ACCESS, deny1, wd2, deny2]
}

proptest! {
    /// The page-run fast path returns byte-identical data, identical
    /// faults, and leaves identical memory as the byte-at-a-time
    /// reference — for reads across every protection flavor.
    #[test]
    fn fast_read_equals_reference(
        addr in 0x0800u64..0xe000,
        len in 0usize..(3 * PAGE_SIZE as usize),
        which_pkru in 0usize..4,
    ) {
        let pkru = pkru_variants()[which_pkru];
        let mut fast = hostile_layout();
        let mut reference = fast.clone();
        let mut a = vec![0u8; len];
        let mut b = vec![0u8; len];
        let ra = fast.read(addr, &mut a, pkru);
        let rb = reference.read_ref(addr, &mut b, pkru);
        prop_assert_eq!(ra, rb);
        if ra.is_ok() {
            prop_assert_eq!(a, b);
        }
    }

    /// Fast writes land the same bytes (including partial transfers up to
    /// the faulting page) and fault identically to the reference.
    #[test]
    fn fast_write_equals_reference(
        addr in 0x0800u64..0xe000,
        len in 0usize..(3 * PAGE_SIZE as usize),
        seed in any::<u64>(),
        which_pkru in 0usize..4,
    ) {
        let pkru = pkru_variants()[which_pkru];
        let data: Vec<u8> = (0..len).map(|i| (seed.wrapping_add(i as u64) % 251) as u8).collect();
        let mut fast = hostile_layout();
        let mut reference = fast.clone();
        let ra = fast.write(addr, &data, pkru);
        let rb = reference.write_ref(addr, &data, pkru);
        prop_assert_eq!(ra, rb);
        // Partial-transfer semantics must match exactly: compare the whole
        // arena through the raw view.
        for page in ARENA {
            prop_assert_eq!(raw_page(&mut fast, page), raw_page(&mut reference, page),
                            "page {:#x} diverged", page);
        }
    }

    /// Fast fetch returns the same byte count, bytes, and faults as the
    /// reference — including early stops at non-executable boundaries and
    /// PKU-exempt execution from XOM pages.
    #[test]
    fn fast_fetch_equals_reference(
        addr in 0x0800u64..0xe000,
        len in 1usize..64,
        which_pkru in 0usize..4,
    ) {
        let pkru = pkru_variants()[which_pkru];
        let mut fast = hostile_layout();
        let mut reference = fast.clone();
        let mut a = vec![0u8; len];
        let mut b = vec![0u8; len];
        let ra = fast.fetch(addr, &mut a, pkru);
        let rb = reference.fetch_ref(addr, &mut b, pkru);
        prop_assert_eq!(ra, rb);
        if let Ok(n) = ra {
            prop_assert_eq!(&a[..n], &b[..n]);
        }
    }

    /// Equivalence holds across interleaved mixes of reads, writes,
    /// fetches and the typed `u64`/`u8` accessors on the *same* pair of
    /// spaces — exercising TLB reuse, invalidation by protect/set_pkey,
    /// and frame recycling by unmap. Typed accesses land anywhere, or in
    /// the last eight bytes of a page, so `u64`s straddle into the next
    /// page (and past its end into holes) as often as they fit in one.
    #[test]
    fn fast_mixed_ops_equal_reference(
        ops in proptest::collection::vec(
            (0u8..10, 0x0800u64..0xe000, 1usize..64, any::<u64>()), 1..40),
    ) {
        let mut fast = hostile_layout();
        let mut reference = fast.clone();
        let pkrus = pkru_variants();
        for (i, (kind, addr, len, seed)) in ops.iter().enumerate() {
            let pkru = pkrus[i % pkrus.len()];
            match kind {
                0 | 1 => {
                    let mut a = vec![0u8; *len];
                    let mut b = vec![0u8; *len];
                    prop_assert_eq!(fast.read(*addr, &mut a, pkru),
                                    reference.read_ref(*addr, &mut b, pkru));
                    prop_assert_eq!(a, b);
                }
                2 | 3 => {
                    let data: Vec<u8> =
                        (0..*len).map(|j| (seed.wrapping_add(j as u64) % 249) as u8).collect();
                    prop_assert_eq!(fast.write(*addr, &data, pkru),
                                    reference.write_ref(*addr, &data, pkru));
                }
                4 => {
                    let mut a = vec![0u8; *len];
                    let mut b = vec![0u8; *len];
                    prop_assert_eq!(fast.fetch(*addr, &mut a, pkru),
                                    reference.fetch_ref(*addr, &mut b, pkru));
                    prop_assert_eq!(a, b);
                }
                5..=8 => {
                    let at = if seed % 2 == 0 { *addr } else { (*addr | (PAGE_SIZE - 1)) - seed % 8 };
                    match kind {
                        5 => {
                            let mut b = [0u8; 8];
                            prop_assert_eq!(fast.read_u64(at, pkru),
                                            reference.read_ref(at, &mut b, pkru)
                                                .map(|()| u64::from_le_bytes(b)));
                        }
                        6 => prop_assert_eq!(fast.write_u64(at, *seed, pkru),
                                             reference.write_ref(at, &seed.to_le_bytes(), pkru)),
                        7 => {
                            let mut b = [0u8; 1];
                            prop_assert_eq!(fast.read_u8(at, pkru),
                                            reference.read_ref(at, &mut b, pkru).map(|()| b[0]));
                        }
                        _ => prop_assert_eq!(fast.write_u8(at, *seed as u8, pkru),
                                             reference.write_ref(at, &[*seed as u8], pkru)),
                    }
                    for page in ARENA {
                        prop_assert_eq!(raw_page(&mut fast, page), raw_page(&mut reference, page),
                                        "page {:#x} diverged", page);
                    }
                }
                _ => {
                    // Protection churn invalidates the TLB; both views get
                    // the same mutation.
                    let page = *addr & !(PAGE_SIZE - 1);
                    let perms = if seed % 2 == 0 { Perms::RW } else { Perms::R };
                    prop_assert_eq!(fast.protect(page, PAGE_SIZE, perms).is_ok(),
                                    reference.protect(page, PAGE_SIZE, perms).is_ok());
                }
            }
        }
    }
}

/// Nop sleds for [`nop_run_equals_a_fetch_byte_loop`]: two RX pages
/// ending at an RO page, an RX page ending at an unmapped hole, and an RX
/// page running into the PKU-keyed XOM page, itself followed by a hole.
/// Every mapped byte is a nop except at `stops`, offsets from `0x1000`
/// (a stop in a hole is dropped).
fn sled_layout(stops: &[u64]) -> AddressSpace {
    let mut s = AddressSpace::new();
    s.map(0x1000, 2 * PAGE_SIZE, Perms::RX, "sled").unwrap();
    s.map(0x3000, PAGE_SIZE, Perms::R, "ro").unwrap();
    // hole at 0x4000
    s.map(0x5000, PAGE_SIZE, Perms::RX, "sled2").unwrap();
    // hole at 0x6000
    s.map(0x7000, PAGE_SIZE, Perms::RX, "sled3").unwrap();
    s.map(0x8000, PAGE_SIZE, Perms::RX, "xom").unwrap();
    s.set_pkey(0x8000, PAGE_SIZE, 1).unwrap();
    // hole at 0x9000
    for page in [0x1000u64, 0x2000, 0x3000, 0x5000, 0x7000, 0x8000] {
        s.write_raw(page, &[0x90; PAGE_SIZE as usize]).unwrap();
    }
    for &off in stops {
        if s.is_mapped(0x1000 + off) {
            s.write_raw(0x1000 + off, &[0xc3]).unwrap();
        }
    }
    s
}

proptest! {
    /// `nop_run` is the number of leading `0x90` bytes that a byte-at-a-time
    /// fetch loop reads: runs cross from one RX page into the next, end at
    /// a non-nop byte, an RO page or an unmapped hole, and run on through
    /// the XOM page whatever the PKRU (fetch ignores PKU).
    #[test]
    fn nop_run_equals_a_fetch_byte_loop(
        addr in 0x0ff0u64..0x9010,
        stops in proptest::collection::vec(0u64..0x8000, 0..6),
        which_pkru in 0usize..4,
    ) {
        let pkru = pkru_variants()[which_pkru];
        let mut fast = sled_layout(&stops);
        let mut reference = fast.clone();
        let mut n = 0u64;
        let mut b = [0u8; 1];
        while reference.fetch_ref(addr + n, &mut b, pkru) == Ok(1) && b[0] == 0x90 {
            n += 1;
        }
        prop_assert_eq!(fast.nop_run(addr, pkru), n);
    }
}
