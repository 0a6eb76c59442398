//! Criterion benches of the simulator memory hot path: the page-run fast
//! engine vs the retained byte-at-a-time `*_ref` twins, for data access
//! and instruction fetch.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use sim_mem::{AddressSpace, Perms, Pkru, PAGE_SIZE};

fn arena() -> AddressSpace {
    let mut s = AddressSpace::new();
    s.map(0x1_0000, 64 * PAGE_SIZE, Perms::RWX, "arena").unwrap();
    let fill: Vec<u8> = (0..64 * PAGE_SIZE).map(|i| (i % 251) as u8).collect();
    s.write_raw(0x1_0000, &fill).unwrap();
    s
}

/// Page-crossing bulk reads and writes: the shape syscall argument copies
/// and guest memcpy take.
fn data_access(c: &mut Criterion) {
    let mut fast = arena();
    let mut reference = arena();
    let mut buf = vec![0u8; 4 * PAGE_SIZE as usize];
    let data = vec![0xabu8; 4 * PAGE_SIZE as usize];
    let mut g = c.benchmark_group("mem_access_16k_page_crossing");
    g.bench_function("fast", |b| {
        b.iter(|| {
            fast.write(0x1_0800, black_box(&data), Pkru::ALL_ACCESS).unwrap();
            fast.read(0x1_0800, black_box(&mut buf), Pkru::ALL_ACCESS).unwrap();
        })
    });
    g.bench_function("reference", |b| {
        b.iter(|| {
            reference.write_ref(0x1_0800, black_box(&data), Pkru::ALL_ACCESS).unwrap();
            reference.read_ref(0x1_0800, black_box(&mut buf), Pkru::ALL_ACCESS).unwrap();
        })
    });
    g.finish();
}

/// Small (decode-window-sized) fetches hopping across pages: the shape the
/// CPU front end takes after an icache flush.
fn fetch_throughput(c: &mut Criterion) {
    let mut fast = arena();
    let mut reference = arena();
    let mut window = [0u8; 10];
    let rips: Vec<u64> = (0..512u64).map(|i| 0x1_0000 + i * 37 % (63 * PAGE_SIZE)).collect();
    let mut g = c.benchmark_group("fetch_512_decode_windows");
    g.bench_function("fast", |b| {
        b.iter(|| {
            for &rip in &rips {
                fast.fetch(black_box(rip), &mut window, Pkru::ALL_ACCESS).unwrap();
            }
        })
    });
    g.bench_function("reference", |b| {
        b.iter(|| {
            for &rip in &rips {
                reference.fetch_ref(black_box(rip), &mut window, Pkru::ALL_ACCESS).unwrap();
            }
        })
    });
    g.finish();
}

criterion_group!(memory, data_access, fetch_throughput);
criterion_main!(memory);
