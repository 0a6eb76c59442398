//! Ablations.
//!
//! 1. zpoline's disassembly strategy (DESIGN.md §4.3's trade-off): the
//!    byte-pattern scan over-approximates (more corruption, no misses);
//!    the linear sweep both misses and fabricates.
//! 2. The engine-mode matrix (DESIGN.md §10): stepwise × block produce
//!    instruction-for-instruction identical streams — plain, under a
//!    fault plan, with the profiler enabled, and on nop sleds that cross
//!    page boundaries — and, with no session configured, the same
//!    retired-instruction clock, while the block engine's throughput is
//!    at least the stepwise oracle's.

use std::rc::Rc;
use std::time::Instant;

use bench::micro::{install_micro, MICRO_APP};
use interpose::{Interposer, Native};
use k23_tests::RwxLoader;
use pitfalls::fault::{plan_for, run_probe, run_probe_on, Scenario};
use sim_cpu::StepEvent;
use sim_fault::{FaultKind, FaultPlan, SyscallFault};
use sim_isa::{Asm, Reg};
use sim_kernel::{nr, EngineConfig, Kernel, Pid, RunExit, TraceEntry};
use sim_loader::boot_kernel;
use sim_mem::{Access, Fault, FaultReason};
use sim_obs::ObsConfig;
use zpoline::{ScanStrategy, Zpoline};

fn zp(scan: ScanStrategy) -> Zpoline {
    let mut z = Zpoline::default_variant();
    z.scan = scan;
    z
}

/// Both strategies interpose a clean stress loop correctly; the byte scan
/// rewrites at least as many sites as the sweep.
#[test]
fn byte_scan_is_superset_on_clean_code() {
    let mut counts = Vec::new();
    for scan in [ScanStrategy::LinearSweep, ScanStrategy::ByteScan] {
        let mut k = boot_kernel();
        apps::install_world(&mut k.vfs);
        let z = zp(scan);
        z.install(&mut k);
        let pid = z.spawn(&mut k, "/usr/bin/pwd-sim", &[], &[]).unwrap();
        k.run(1_000_000_000_000);
        let p = k.process(pid).unwrap();
        assert_eq!(p.exit_status, Some(0), "{scan:?}");
        counts.push(z.stats().rewritten.len());
    }
    assert!(counts[1] >= counts[0], "bytescan {} < sweep {}", counts[1], counts[0]);
}

/// On an image with embedded data, the byte scan corrupts it (it rewrites
/// every 0f 05 match) — the maximal-P3a end of the trade-off.
#[test]
fn byte_scan_corrupts_embedded_data() {
    let mut k = boot_kernel();
    pitfalls::install_pocs(&mut k.vfs);
    let z = zp(ScanStrategy::ByteScan);
    z.install(&mut k);
    let pid = z.spawn(&mut k, "/usr/bin/p3a-poc", &[], &[]).unwrap();
    k.run(1_000_000_000_000);
    let p = k.process(pid).unwrap();
    assert_eq!(p.exit_status, Some(7), "embedded data must be corrupted");
}

// ===== Engine-mode matrix: stepwise × block =====

/// The two engine configurations, oracle first.
fn engines() -> [(&'static str, EngineConfig); 2] {
    [
        ("stepwise", EngineConfig::stepwise()),
        ("block", EngineConfig::new()),
    ]
}

/// A guest the engine matrix runs.
#[derive(Clone, Copy, Debug)]
enum Guest {
    /// The Table 5 syscall-500 stress loop, for `n` iterations.
    Micro(u64),
    /// sqlite-sim's work loop (`sub rcx, 1; jnz`) for `n` iterations,
    /// then `exit_group(0)`: no syscall inside the loop, so its trace
    /// wraps in place at the `jnz`.
    CountDown(u64),
    /// A self-looping trace whose terminal `call` rewrites its own code
    /// once: see [`self_patching_loop`].
    SelfPatch,
    /// A hot loop that stores into another hot loop's code from inside
    /// its own replay: see [`cross_trace_store`].
    CrossTraceStore,
    /// Calls into a nop sled at falling offsets, some of whose runs cross
    /// from one executable page into the next: see [`sled_across_pages`].
    SledAcrossPages,
    /// A nop sled that crosses a page and runs into a page mprotected
    /// non-executable: see [`sled_into_no_exec`].
    SledIntoNoExec,
    /// A function written by own stores into a page the core memoizes as
    /// code-free, then rewritten by one: see [`code_free_page_rewrite`].
    CodeFreeRewrite,
}

/// Where `RwxLoader` maps the code.
const CODE_BASE: u64 = 0x1000;

/// The page boundary both sled guests' runs cross.
const SLED_BOUNDARY: u64 = 0x2000;

/// Pads `a` with `int3`s (nothing runs there) up to offset `to`.
fn pad_to(a: &mut Asm, to: u64) {
    let pad = to as usize - a.here();
    a.bytes(&vec![0xcc; pad]);
}

/// `SLED_CALLS` calls into a 4 KiB nop sled at `sled + 64·k`, k =
/// `SLED_CALLS`..1, each returning through the `ret` at its end. Entries
/// below [`SLED_BOUNDARY`] walk a run across it. Returns the code and
/// the address of the `ret`.
fn sled_across_pages() -> (Vec<u8>, u64) {
    const SLED_CALLS: u64 = 40;
    let mut a = Asm::new();
    a.mov_imm(Reg::Rbx, SLED_CALLS);
    a.label("top");
    a.lea_label(Reg::Rax, "sled");
    a.mov_reg(Reg::Rcx, Reg::Rbx);
    a.shl_imm(Reg::Rcx, 6);
    a.add_reg(Reg::Rax, Reg::Rcx);
    a.call_reg(Reg::Rax);
    a.sub_imm(Reg::Rbx, 1);
    a.jnz("top");
    a.mov_imm(Reg::Rdi, 0);
    a.mov_imm(Reg::Rax, nr::SYS_EXIT_GROUP);
    a.syscall();
    pad_to(&mut a, SLED_BOUNDARY - CODE_BASE - 0x800);
    a.label("sled");
    a.nops(0x1000);
    a.label("ret");
    a.ret();
    let prog = a.finish_program();
    // The first call enters above the boundary, the last ones below it.
    assert!(CODE_BASE + prog.sym("sled") + 64 * SLED_CALLS > SLED_BOUNDARY);
    let ret = CODE_BASE + prog.sym("ret");
    (prog.bytes, ret)
}

/// mprotects the page after a nop sled read-write, then jumps to the
/// sled, which crosses [`SLED_BOUNDARY`] and ends where that page starts.
/// The page holds more nops and an `exit_group(0)`, none of which may
/// run: fetch faults on its first byte. Returns the code and the
/// non-executable page's address.
fn sled_into_no_exec() -> (Vec<u8>, u64) {
    const NX_PAGE: u64 = SLED_BOUNDARY + 0x1000;
    let mut a = Asm::new();
    a.mov_imm(Reg::Rdi, NX_PAGE);
    a.mov_imm(Reg::Rsi, 0x1000);
    a.mov_imm(Reg::Rdx, 3); // PROT_READ | PROT_WRITE
    a.mov_imm(Reg::Rax, nr::SYS_MPROTECT);
    a.syscall();
    a.jmp("sled");
    pad_to(&mut a, SLED_BOUNDARY - CODE_BASE - 0x400);
    a.label("sled");
    a.nops(0x1400);
    a.label("nx");
    a.nops(16);
    a.mov_imm(Reg::Rdi, 0);
    a.mov_imm(Reg::Rax, nr::SYS_EXIT_GROUP);
    a.syscall();
    let prog = a.finish_program();
    assert_eq!(CODE_BASE + prog.sym("nx"), NX_PAGE);
    (prog.bytes, NX_PAGE)
}

/// Iterations [`self_patching_loop`] runs before its patch, so its trace
/// forms (`sim_cpu::trace::HOT_THRESHOLD` is 16) well before it.
const PATCH_AT: u64 = 100;

/// A loop whose trace runs `entry` → `call entry`, adding `mov rax, 1`'s
/// immediate into r14 each iteration. Each `call` pushes 0x100 bytes
/// below the last push, walking down from the pages above the code, and
/// the push of iteration [`PATCH_AT`] lands exactly on that immediate.
/// A push invalidates the decodes it overwrites at once, on both engines,
/// and its store onto the trace's own page must stop the trace from
/// wrapping in place, so the remaining iterations add the pushed return
/// address instead. Returns the code and the exit status that proves the
/// new bytes ran.
fn self_patching_loop() -> (Vec<u8>, i64) {
    const BASE: u64 = 0x1000; // where `RwxLoader` maps the code
    const ENTRY: usize = 0xf00; // near the top of the code page
    let iterations = PATCH_AT + 6;
    let mut a = Asm::new();
    a.mov_imm(Reg::Rbx, iterations);
    a.mov_imm(Reg::R14, 0);
    // The push of iteration PATCH_AT writes [entry + 2, entry + 10).
    a.lea_label(Reg::Rsp, "entry");
    a.add_imm(Reg::Rsp, (2 + (PATCH_AT + 1) * 0x100) as i32);
    a.jmp("entry");
    // Later pushes walk down into this sled, never into live code.
    let pad = ENTRY - a.here();
    a.nops(pad);
    a.label("entry");
    a.mov_imm(Reg::Rax, 1);
    a.add_reg(Reg::R14, Reg::Rax);
    a.sub_imm(Reg::Rbx, 1);
    a.jz("done");
    a.sub_imm(Reg::Rsp, 0xf8);
    a.call("entry");
    a.label("done");
    a.mov_reg(Reg::Rdi, Reg::R14);
    a.and_imm(Reg::Rdi, 0x7f);
    a.mov_imm(Reg::Rax, nr::SYS_EXIT_GROUP);
    a.syscall();
    let prog = a.finish_program();
    assert_eq!(prog.sym("entry"), ENTRY as u64);
    // Iterations 0..=PATCH_AT read the original immediate; the remaining
    // ones read the pushed return address, `done`.
    let pushed = BASE + prog.sym("done");
    let sum = (PATCH_AT + 1) + (iterations - PATCH_AT - 1) * pushed;
    (prog.bytes, (sum & 0x7f) as i64)
}

/// Iterations of each loop per phase of [`cross_trace_store`].
const PHASE_ITERS: u64 = 40;

/// Three phases of two hot loops on two code pages, each loop entered by
/// a `jmp`, so its trace is entered on its first iteration. Loop A
/// stores `phase + 1` into the immediate of loop B's `mov rax, imm`
/// [`PHASE_ITERS`] times; loop B then adds that immediate into r14 as
/// often. A `fence` after the first phase lets B's trace form again in
/// the second: B's first-phase decodes then fail revalidation and are
/// decoded afresh, so its recording does not mix two versions of its
/// page. No serialization point follows, so in the
/// third phase nothing but A's stores, made inside A's replay, can
/// unlink B's trace before B runs it with the second phase's immediate.
/// Returns the code and the exit status that proves each phase's bytes
/// ran.
fn cross_trace_store() -> (Vec<u8>, i64) {
    const B_PAGE: u64 = CODE_BASE + 0x1000;
    let mut a = Asm::new();
    a.mov_imm(Reg::R14, 0);
    a.mov_imm(Reg::R13, 1);
    a.lea_label(Reg::Rdi, "b_loop");
    a.add_imm(Reg::Rdi, 2); // `mov rax, imm64`'s immediate
    a.label("phase");
    a.mov_imm(Reg::Rbx, PHASE_ITERS);
    a.jmp("a_loop");
    a.label("a_loop");
    a.store(Reg::Rdi, 0, Reg::R13);
    a.sub_imm(Reg::Rbx, 1);
    a.jnz("a_loop");
    a.mov_imm(Reg::Rbx, PHASE_ITERS);
    a.jmp("b_loop");
    a.label("after_b");
    a.cmp_imm(Reg::R13, 1);
    a.jnz("next");
    a.fence();
    a.label("next");
    a.add_imm(Reg::R13, 1);
    a.cmp_imm(Reg::R13, 4);
    a.jnz("phase");
    a.mov_reg(Reg::Rdi, Reg::R14);
    a.and_imm(Reg::Rdi, 0x7f);
    a.mov_imm(Reg::Rax, nr::SYS_EXIT_GROUP);
    a.syscall();
    pad_to(&mut a, B_PAGE - CODE_BASE);
    a.label("b_loop");
    a.mov_imm(Reg::Rax, 0);
    a.add_reg(Reg::R14, Reg::Rax);
    a.sub_imm(Reg::Rbx, 1);
    a.jnz("b_loop");
    a.jmp("after_b");
    let prog = a.finish_program();
    assert!(
        prog.sym("after_b") < B_PAGE - CODE_BASE,
        "loop A's code spills onto B's page"
    );
    let sum = PHASE_ITERS * (1 + 2 + 3);
    (prog.bytes, (sum & 0x7f) as i64)
}

/// Where [`code_free_page_rewrite`] writes its function: a page of the
/// RWX mapping that no code occupies and no fetch has touched.
const FRESH_PAGE: u64 = CODE_BASE + 0x3000;

/// Calls of [`code_free_page_rewrite`]'s function per phase.
const FRESH_CALLS: u64 = 100;

/// Eight-byte own stores write a function, `mov rax, 1; add r14, rax;
/// jmp r15`, into [`FRESH_PAGE`]. No decode touches the page yet, so the
/// first store leaves it memoized as code-free and the rest return
/// early. A loop calls the function [`FRESH_CALLS`] times, long enough
/// for its trace to form, with `jmp` and the return address in r15: a
/// `call` would push onto the stack page and move the memo there. One
/// own store then rewrites the `mov`'s immediate to 2, and the loop runs
/// again with no serialization point in between. The function's first
/// decode gave the page its first `icache_index` entry, which must void
/// the memo, so the store drops the stale decode and unlinks the trace
/// through the page, and the second phase adds 2 per call. Returns the
/// code and the exit status that proves the new bytes ran.
fn code_free_page_rewrite() -> (Vec<u8>, i64) {
    let mut f = Asm::new();
    f.mov_imm(Reg::Rax, 1);
    f.add_reg(Reg::R14, Reg::Rax);
    f.jmp_reg(Reg::R15);
    let mut f = f.finish();
    f.resize(f.len().next_multiple_of(8), 0xcc);
    let mut a = Asm::new();
    a.mov_imm(Reg::R14, 0);
    // Far enough into the page that every store's window stays in it.
    a.mov_imm(Reg::Rdi, FRESH_PAGE + 0x40);
    for (i, word) in f.chunks(8).enumerate() {
        a.mov_imm(
            Reg::Rcx,
            u64::from_le_bytes(word.try_into().expect("8 bytes")),
        );
        a.store(Reg::Rdi, 8 * i as i32, Reg::Rcx);
    }
    for phase in ["first", "second"] {
        if phase == "second" {
            a.mov_imm(Reg::Rcx, 2);
            a.store(Reg::Rdi, 2, Reg::Rcx); // `mov rax, imm64`'s immediate
        }
        a.mov_imm(Reg::Rbx, FRESH_CALLS);
        a.label(phase);
        a.lea_label(Reg::R15, &format!("{phase}_back"));
        a.jmp_reg(Reg::Rdi);
        a.label(&format!("{phase}_back"));
        a.sub_imm(Reg::Rbx, 1);
        a.jnz(phase);
    }
    a.mov_reg(Reg::Rdi, Reg::R14);
    a.and_imm(Reg::Rdi, 0x7f);
    a.mov_imm(Reg::Rax, nr::SYS_EXIT_GROUP);
    a.syscall();
    let code = a.finish();
    assert!(
        CODE_BASE + (code.len() as u64) < FRESH_PAGE,
        "the code reaches the fresh page"
    );
    let sum = FRESH_CALLS * (1 + 2);
    (code, (sum & 0x7f) as i64)
}

/// A booted kernel with `guest` spawned.
fn boot_guest(guest: Guest) -> (Kernel, Pid) {
    let raw = |code: Vec<u8>| {
        let mut k = Kernel::new();
        k.set_loader(Rc::new(RwxLoader(code)));
        let pid = k.spawn("/bin/loop", &[], &[], None).expect("spawn");
        (k, pid)
    };
    match guest {
        Guest::Micro(iters) => {
            let mut k = boot_kernel();
            install_micro(&mut k.vfs, iters).expect("microbench installs");
            let ip = Native;
            ip.install(&mut k);
            let pid = ip.spawn(&mut k, MICRO_APP, &[], &[]).expect("spawn");
            (k, pid)
        }
        Guest::CountDown(n) => {
            let mut a = Asm::new();
            a.mov_imm(Reg::Rcx, n);
            a.label("loop");
            a.sub_imm(Reg::Rcx, 1);
            a.jnz("loop");
            a.mov_imm(Reg::Rdi, 0);
            a.mov_imm(Reg::Rax, nr::SYS_EXIT_GROUP);
            a.syscall();
            raw(a.finish())
        }
        Guest::SelfPatch => raw(self_patching_loop().0),
        Guest::CrossTraceStore => raw(cross_trace_store().0),
        Guest::SledAcrossPages => raw(sled_across_pages().0),
        Guest::SledIntoNoExec => raw(sled_into_no_exec().0),
        Guest::CodeFreeRewrite => raw(code_free_page_rewrite().0),
    }
}

/// One guest run: the recorded instruction stream (when asked for),
/// final clock, exit status, retired-instruction clock, and host
/// wall-clock seconds.
type MicroRun = (Vec<TraceEntry>, u64, Option<i64>, u64, f64);

/// Runs `guest` under `cfg`.
fn run_guest(cfg: EngineConfig, guest: Guest, record: bool) -> MicroRun {
    let (mut k, pid) = boot_guest(guest);
    k.configure(cfg);
    if record {
        k.start_exec_trace();
    }
    let t0 = Instant::now();
    let exit = k.run(u64::MAX / 4);
    let dt = t0.elapsed().as_secs_f64();
    assert_eq!(exit, RunExit::AllExited);
    let status = k.process(pid).expect("proc").exit_status;
    let stream = if record {
        k.take_exec_trace()
    } else {
        Vec::new()
    };
    (stream, k.clock, status, k.retired(), dt)
}

/// Runs the syscall-500 stress guest under `cfg`.
fn run_micro(cfg: EngineConfig, iters: u64, record: bool) -> MicroRun {
    run_guest(cfg, Guest::Micro(iters), record)
}

/// Runs `guest` on the block engine with sim-obs counting, and returns
/// the hottest trace's `enters` (dispatches plus in-place wraps) and the
/// dispatcher's trace entries (cold entries plus links).
fn enters_and_dispatches(guest: Guest) -> (u64, u64) {
    sim_obs::enable(ObsConfig::default());
    let (mut k, pid) = boot_guest(guest);
    k.configure(EngineConfig::new());
    let exit = k.run(u64::MAX / 4);
    let rec = sim_obs::disable().expect("recorder");
    assert_eq!(exit, RunExit::AllExited);
    let tid = k.process(pid).expect("proc").threads[0].tid;
    let stats = k.cpu_mut(pid, tid).expect("cpu").trace_stats();
    let hottest = stats.first().expect("the loop formed a trace");
    (
        hottest.enters,
        rec.counters.trace_entries + rec.counters.trace_links,
    )
}

/// Asserts two engines' instruction streams are bit-identical.
fn assert_streams_equal(name: &str, got: &[TraceEntry], oracle: &[TraceEntry]) {
    assert_eq!(
        got.len(),
        oracle.len(),
        "{name}: stream length {} vs oracle {}",
        got.len(),
        oracle.len()
    );
    for (i, (g, o)) in got.iter().zip(oracle.iter()).enumerate() {
        assert_eq!(g, o, "{name}: stream diverges at step {i}");
    }
}

/// Plain run: every engine's instruction stream, final clock, and exit
/// status match the stepwise oracle bit-for-bit, and with no session
/// configured the retired-instruction clock — credited by the stepwise
/// and block loops alike — counts every recorded step. Five guests: the
/// syscall stress loop, sqlite-sim's `sub rcx, 1; jnz` loop (whose trace
/// must wrap in place rather than return to the dispatcher every
/// iteration), a self-looping trace that rewrites its own code (whose
/// store onto its own page must stop the wrap, so the new bytes run),
/// a loop whose replayed stores rewrite another loop's code (they
/// must unlink the other loop's trace, so its new bytes run), and a
/// function rewritten on a page the core had memoized as code-free
/// before the function first ran (the store must still find its decode
/// and trace, so the new bytes run). The stepwise oracle shares the
/// store invalidation, so only the exit statuses can show a fault there.
#[test]
fn engine_matrix_streams_identical() {
    for guest in [
        Guest::Micro(5_000),
        Guest::CountDown(20_000),
        Guest::SelfPatch,
        Guest::CrossTraceStore,
        Guest::CodeFreeRewrite,
    ] {
        let mut oracle: Option<(Vec<TraceEntry>, u64, Option<i64>)> = None;
        for (name, cfg) in engines() {
            let (stream, clock, status, retired, _) = run_guest(cfg, guest, true);
            assert!(stream.len() > 500, "{guest:?} {name}: stream too short");
            assert_eq!(
                retired,
                stream.len() as u64,
                "{guest:?} {name}: retired clock drifts from the stream"
            );
            match &oracle {
                None => oracle = Some((stream, clock, status)),
                Some((ref_stream, ref_clock, ref_status)) => {
                    assert_streams_equal(name, &stream, ref_stream);
                    assert_eq!(clock, *ref_clock, "{guest:?} {name}: clock diverges");
                    assert_eq!(status, *ref_status, "{guest:?} {name}: status diverges");
                }
            }
        }
        match guest {
            Guest::CountDown(n) => {
                let (enters, dispatches) = enters_and_dispatches(guest);
                assert!(
                    enters > n * 9 / 10,
                    "the loop's trace entered only {enters} times"
                );
                assert!(
                    enters > 16 * dispatches,
                    "{enters} trace enters for {dispatches} dispatcher entries: no wrap in place"
                );
            }
            Guest::SelfPatch => {
                let patched = Some(self_patching_loop().1);
                assert_eq!(
                    oracle.expect("ran").2,
                    patched,
                    "the patched bytes never ran"
                );
            }
            Guest::CrossTraceStore => {
                let patched = Some(cross_trace_store().1);
                assert_eq!(oracle.expect("ran").2, patched, "a phase's bytes never ran");
            }
            Guest::CodeFreeRewrite => {
                let patched = Some(code_free_page_rewrite().1);
                assert_eq!(
                    oracle.expect("ran").2,
                    patched,
                    "the rewritten immediate never ran"
                );
            }
            Guest::Micro(_) | Guest::SledAcrossPages | Guest::SledIntoNoExec => {}
        }
    }
}

/// Nop sleds across page boundaries: the nop arm retires a whole run in
/// one step, up to the first byte fetch cannot execute, on both engines.
/// The run exit, clock, retired count, exit status, fault and exec-trace
/// stream match the stepwise oracle; one step carries a run across
/// [`SLED_BOUNDARY`], and a run into a non-executable page stops on its
/// first byte, where the next step's fetch faults.
#[test]
fn engine_matrix_agrees_on_sled_page_crossings() {
    for guest in [Guest::SledAcrossPages, Guest::SledIntoNoExec] {
        type Outcome = (RunExit, u64, u64, Option<i64>, Option<(u64, Fault)>);
        let mut oracle: Option<(Outcome, Vec<TraceEntry>)> = None;
        for (name, cfg) in engines() {
            let (mut k, pid) = boot_guest(guest);
            k.configure(cfg);
            k.start_exec_trace();
            let exit = k.run(u64::MAX / 4);
            let stream = k.take_exec_trace();
            let fault = stream.iter().find_map(|e| match e.event {
                StepEvent::Fault(f) => Some((e.rip, f)),
                _ => None,
            });
            let status = k.process(pid).expect("proc").exit_status;
            let outcome = (exit, k.clock, k.retired(), status, fault);
            match &oracle {
                None => oracle = Some((outcome, stream)),
                Some((ref_outcome, ref_stream)) => {
                    assert_eq!(outcome, *ref_outcome, "{guest:?} {name}: outcome diverges");
                    assert_streams_equal(name, &stream, ref_stream);
                }
            }
        }
        let ((exit, _, _, status, fault), stream) = oracle.expect("ran");
        assert_eq!(exit, RunExit::AllExited, "{guest:?}");
        // The step before `to` started below the boundary: one run crossed it.
        let crossed_to = |to: u64| {
            stream
                .windows(2)
                .any(|w| w[0].rip < SLED_BOUNDARY && w[1].rip == to)
        };
        match guest {
            Guest::SledAcrossPages => {
                assert_eq!(status, Some(0));
                assert_eq!(fault, None);
                assert!(
                    crossed_to(sled_across_pages().1),
                    "no run crossed the boundary"
                );
            }
            Guest::SledIntoNoExec => {
                let nx = sled_into_no_exec().1;
                assert_eq!(status, Some(128 + nr::SIGSEGV as i64));
                let want = Fault {
                    addr: nx,
                    access: Access::Fetch,
                    reason: FaultReason::Protection,
                };
                assert_eq!(fault, Some((nx, want)));
                assert!(crossed_to(nx), "the run did not stop at the page");
            }
            other => unreachable!("{other:?} is not a sled guest"),
        }
    }
}

/// Same matrix under a syscall fault plan: errno injections land at the
/// identical occurrence under every engine (the plan's occurrence counters
/// advance through the block engine's direct-path syscall entry too).
#[test]
fn engine_matrix_streams_identical_under_fault_plan() {
    let mut plan = FaultPlan::zero(11);
    plan.syscall_faults = vec![
        SyscallFault {
            nr: nr::SYS_NONEXISTENT,
            occurrence: 7,
            kind: FaultKind::Eintr,
        },
        SyscallFault {
            nr: nr::SYS_NONEXISTENT,
            occurrence: 2_500,
            kind: FaultKind::Eagain,
        },
    ];
    let mut oracle: Option<(Vec<TraceEntry>, u64, Option<i64>)> = None;
    for (name, cfg) in engines() {
        let (stream, clock, status, _, _) = run_micro(cfg.fault(plan.clone()), 5_000, true);
        match &oracle {
            None => oracle = Some((stream, clock, status)),
            Some((ref_stream, ref_clock, ref_status)) => {
                assert_streams_equal(name, &stream, ref_stream);
                assert_eq!(clock, *ref_clock, "{name}: clock diverges");
                assert_eq!(status, *ref_status, "{name}: status diverges");
            }
        }
    }
}

/// The fault-resilience probe under a combined plan (errno + signals +
/// scheduler perturbation) through zpoline's rewritten trampolines: all
/// both engines agree on the guest-visible outcome and final clock.
#[test]
fn engine_matrix_agrees_on_fault_probe() {
    let baseline = run_probe("native", None);
    let mut plan = plan_for(Scenario::Errno, 7, &baseline);
    plan.signal_window = plan_for(Scenario::Signal, 7, &baseline).signal_window;
    plan.sched = plan_for(Scenario::Sched, 7, &baseline).sched;
    let mut oracle: Option<(Option<i64>, Vec<u8>, u64)> = None;
    for (name, cfg) in engines() {
        let run = run_probe_on("zpoline", Some(&plan), cfg);
        match &oracle {
            None => oracle = Some((run.exit, run.output, run.clock)),
            Some((ref_exit, ref_out, ref_clock)) => {
                assert_eq!(run.exit, *ref_exit, "{name}: exit diverges");
                assert_eq!(&run.output, ref_out, "{name}: output diverges");
                assert_eq!(run.clock, *ref_clock, "{name}: clock diverges");
            }
        }
    }
}

/// Same matrix with the sampling profiler enabled: sample boundaries cap
/// block budgets mid-trace, and the streams still match the oracle.
#[test]
fn engine_matrix_streams_identical_with_profiler() {
    let mut oracle: Option<(Vec<TraceEntry>, u64, Option<i64>)> = None;
    for (name, cfg) in engines() {
        let (stream, clock, status, _, _) = run_micro(cfg.profile(64), 5_000, true);
        match &oracle {
            None => oracle = Some((stream, clock, status)),
            Some((ref_stream, ref_clock, ref_status)) => {
                assert_streams_equal(name, &stream, ref_stream);
                assert_eq!(clock, *ref_clock, "{name}: clock diverges");
                assert_eq!(status, *ref_status, "{name}: status diverges");
            }
        }
    }
}

/// Throughput is monotonically non-decreasing across the ablation:
/// stepwise ≤ block in simulated instructions per host second (best-of-3
/// to damp scheduler noise; the observed gap is a multiple, so the
/// ordering is robust). These runs take the direct path's fastest shape —
/// no session, no exec trace — and both engines' retired-instruction
/// clocks must still agree.
#[test]
fn engine_matrix_throughput_ordering_monotonic() {
    let iters = 20_000;
    let mut rates = Vec::new();
    let mut retired = Vec::new();
    for (name, cfg) in engines() {
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let (_, _, status, r, dt) = run_micro(cfg.clone(), iters, false);
            assert_eq!(status, Some(0), "{name}: bad exit");
            retired.push(r);
            best = best.min(dt);
        }
        rates.push((name, 1.0 / best));
    }
    assert!(
        retired.windows(2).all(|w| w[0] == w[1]),
        "retired clocks diverge across runs and engines: {retired:?}"
    );
    for pair in rates.windows(2) {
        let ((slow, a), (fast, b)) = (pair[0], pair[1]);
        assert!(
            b >= a,
            "inst/s ordering violated: {fast} ({b:.1}/s rel) < {slow} ({a:.1}/s rel)"
        );
    }
}
