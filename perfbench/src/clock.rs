//! Host time: the CPU clock of the end-to-end metrics, and the reference
//! kernel that scales them to a fixed host speed.
//!
//! A workload runs on one host thread, so on an idle host its CPU time and
//! its wall time agree. On a shared host neither is steady. Wall time also
//! counts the stretches in which the CPU ran something else (another
//! process, or another guest of the hypervisor), which CPU time leaves out.
//! But CPU time itself moves too: when neighbouring guests load the
//! physical cores, the same repetition takes up to 1.9× the CPU time, in
//! states that last minutes, while its CPU time stays within 2 % of its
//! wall time.
//!
//! So the gated times are scaled to a reference speed. Around every timed
//! repetition the benchmark runs [`reference_kernel`], a fixed piece of
//! interpreter-shaped work that no change to the simulator touches, and
//! multiplies the repetition's CPU time by [`host_speed`]: the kernel's
//! CPU time on the reference host over its CPU time now. A simulator
//! change moves the scaled time exactly as it moves CPU time; a slow host
//! moves both the repetition and the kernel, and mostly cancels out.

use std::collections::{BTreeMap, HashMap};

/// Host CPU seconds this process has used, user plus system:
/// `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable timespec of the C layout.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Without a process CPU clock, wall seconds since first use.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn cpu_seconds() -> f64 {
    static START: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
    START
        .get_or_init(std::time::Instant::now)
        .elapsed()
        .as_secs_f64()
}

/// One stretch of host CPU time.
#[derive(Debug, Clone, Copy)]
pub struct CpuTimer(f64);

impl CpuTimer {
    pub fn start() -> CpuTimer {
        CpuTimer(cpu_seconds())
    }

    /// CPU seconds since [`CpuTimer::start`].
    pub fn secs(&self) -> f64 {
        cpu_seconds() - self.0
    }
}

/// CPU seconds [`reference_kernel`] takes on the reference host: the
/// 2-vCPU virtual machine of the README's measurements, at the fastest it
/// was seen to run (0.33–0.34 s). Scaled times are CPU seconds on that
/// host at that speed.
pub const REFERENCE_S: f64 = 0.33;

/// The host's speed now relative to the reference host: [`REFERENCE_S`]
/// over the CPU time [`reference_kernel`] takes now.
pub fn host_speed() -> f64 {
    let t = CpuTimer::start();
    std::hint::black_box(reference_kernel());
    REFERENCE_S / t.secs()
}

/// Fixed work shaped like the simulator's hot loops: a register machine
/// decoding a pseudo-random program, first over a 2 MB memory with a
/// hash map, then over a 32 MB memory, addressed by hash, with an ordered
/// map. Never change it: it defines the unit of the scaled times, and
/// results before and after a change would not compare.
pub fn reference_kernel() -> u64 {
    let mut seed = 7;
    let small = interpret(
        &mut seed,
        Shape {
            prog_bits: 12,
            mem_bits: 18,
            spread: 1,
            key_mask: 0x3fff,
            steps: 30_000_000,
        },
        HashMap::<u64, u64>::with_capacity(1 << 14),
    );
    let large = interpret(
        &mut seed,
        Shape {
            prog_bits: 14,
            mem_bits: 22,
            spread: 0x9e37_79b9,
            key_mask: 0xffff,
            steps: 10_000_000,
        },
        BTreeMap::new(),
    );
    small ^ large
}

/// A key-value table the register machine reads and updates.
trait Table {
    fn add(&mut self, key: u64, v: u64);
    fn get(&self, key: u64) -> Option<u64>;
    fn len(&self) -> usize;
}

impl Table for HashMap<u64, u64> {
    fn add(&mut self, key: u64, v: u64) {
        let e = self.entry(key).or_insert(0);
        *e = e.wrapping_add(v);
    }
    fn get(&self, key: u64) -> Option<u64> {
        HashMap::get(self, &key).copied()
    }
    fn len(&self) -> usize {
        HashMap::len(self)
    }
}

impl Table for BTreeMap<u64, u64> {
    fn add(&mut self, key: u64, v: u64) {
        let e = self.entry(key).or_insert(0);
        *e = e.wrapping_add(v);
    }
    fn get(&self, key: u64) -> Option<u64> {
        BTreeMap::get(self, &key).copied()
    }
    fn len(&self) -> usize {
        BTreeMap::len(self)
    }
}

fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One phase of [`reference_kernel`].
struct Shape {
    /// The program has 2^`prog_bits` instructions.
    prog_bits: u32,
    /// Memory has 2^`mem_bits` words.
    mem_bits: u32,
    /// Multiplier of the register an address is made from: 1 walks
    /// memory locally; a large odd one scatters accesses over all of it.
    spread: usize,
    /// Table keys are register values masked by this.
    key_mask: u64,
    /// Instructions executed.
    steps: u64,
}

/// Runs one phase over `table`; returns a digest of the final state.
fn interpret(seed: &mut u64, shape: Shape, mut table: impl Table) -> u64 {
    let Shape {
        prog_bits,
        mem_bits,
        spread,
        key_mask,
        steps,
    } = shape;
    let prog_mask = (1usize << prog_bits) - 1;
    let prog: Vec<u32> = (0..=prog_mask).map(|_| splitmix(seed) as u32).collect();
    let mut mem = vec![0u64; 1 << mem_bits];
    let mem_mask = mem.len() - 1;
    let mut regs = [1u64; 16];
    let mut pc = 0;
    for _ in 0..steps {
        let ins = prog[pc];
        let a = ((ins >> 3) & 15) as usize;
        let b = ((ins >> 7) & 15) as usize;
        let imm = (ins >> 11) as usize;
        let addr = ((regs[b] as usize).wrapping_mul(spread) ^ imm) & mem_mask;
        pc = (pc + 1) & prog_mask;
        match ins & 7 {
            0 => regs[a] = regs[a].wrapping_add(regs[b] ^ imm as u64),
            1 => regs[a] = mem[addr],
            2 => mem[addr] = regs[a],
            3 => table.add(regs[a] & key_mask, regs[b]),
            4 => {
                if regs[a] & 1 == 0 {
                    pc = imm & prog_mask
                }
            }
            5 => regs[a] = regs[a].rotate_left(7).wrapping_mul(0x9e37_79b9),
            6 => regs[a] = table.get(regs[b] & key_mask).unwrap_or(regs[a]),
            _ => regs[a] ^= regs[b] >> 3,
        }
    }
    regs.iter().fold(table.len() as u64, |h, r| h ^ r)
}
