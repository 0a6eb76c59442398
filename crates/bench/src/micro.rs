//! The Table 5 microbenchmark: a stress loop invoking the nonexistent
//! syscall 500, measured per-iteration by differencing two run lengths
//! (which cancels startup, constructor, and offline-phase costs exactly).
//!
//! The paper invokes the syscall 100 M times on real hardware; the
//! simulator runs a scaled count (see `K23_BENCH_SCALE`) — per-iteration
//! cost is independent of the count by construction, so scaling does not
//! change the measured ratios. The simulator is fully deterministic, so the
//! paper's ±0.0x % measurement-noise column is identically zero here.

use crate::{cli, Config};
use interpose::Interposer;
use sim_isa::Reg;
use sim_kernel::{nr, RunExit, Vfs};
use sim_loader::{boot_kernel, ImageBuilder, SimElf, LIBC_PATH};

/// Path of the stress binary.
pub const MICRO_APP: &str = "/usr/bin/microbench";
/// Iteration-count config file.
pub const MICRO_CFG: &str = "/etc/microbench.conf";
/// Table 5's iteration count at full size (`K23_BENCH_SCALE=1`); the
/// tables run `TABLE5_ITERATIONS / scale`.
pub const TABLE5_ITERATIONS: u64 = 2_000_000;

/// Builds the stress binary: reads the iteration count from its config,
/// then loops `mov rax, 500; syscall`. The loop tests its counter after
/// the first iteration, so a count of 0 would run 2⁶⁴ iterations:
/// [`install_micro`] is the way to install it.
pub fn build_micro_app() -> SimElf {
    let mut b = ImageBuilder::new(MICRO_APP);
    b.entry("main");
    b.needs(LIBC_PATH);
    b.asm.label("main");
    // read the count (raw syscalls; constant cost, cancelled by differencing)
    b.asm.mov_imm(Reg::Rdi, (-100i64) as u64);
    b.asm.lea_label(Reg::Rsi, "cfg_path");
    b.asm.mov_imm(Reg::Rdx, 0);
    b.asm.mov_imm(Reg::Rax, nr::SYS_OPENAT);
    b.asm.syscall();
    b.asm.mov_reg(Reg::R12, Reg::Rax);
    b.asm.mov_reg(Reg::Rdi, Reg::R12);
    b.asm.lea_label(Reg::Rsi, "count");
    b.asm.mov_imm(Reg::Rdx, 8);
    b.asm.mov_imm(Reg::Rax, nr::SYS_READ);
    b.asm.syscall();
    b.asm.mov_reg(Reg::Rdi, Reg::R12);
    b.asm.mov_imm(Reg::Rax, nr::SYS_CLOSE);
    b.asm.syscall();
    b.asm.lea_label(Reg::R11, "count");
    b.asm.load(Reg::Rbx, Reg::R11, 0);
    // the measured loop (paper §6.2.1)
    b.asm.label("loop");
    b.asm.mov_imm(Reg::Rax, nr::SYS_NONEXISTENT);
    b.asm.label("stress_site");
    b.asm.syscall();
    b.asm.sub_imm(Reg::Rbx, 1);
    b.asm.jnz("loop");
    b.asm.mov_imm(Reg::Rax, 0);
    b.asm.ret();
    b.data_object("cfg_path", format!("{MICRO_CFG}\0").as_bytes());
    b.data_object("count", &[0u8; 8]);
    b.finish()
}

/// Installs the stress binary with an iteration count of `iterations`.
///
/// # Errors
///
/// A count of 0, which the loop cannot run (see [`build_micro_app`]),
/// named in the message.
pub fn install_micro(vfs: &mut Vfs, iterations: u64) -> Result<(), String> {
    if iterations == 0 {
        return Err(
            "microbench iteration count 0: the loop runs at least once, so 0 wraps to 2^64".into(),
        );
    }
    build_micro_app().install(vfs);
    vfs.write_file(MICRO_CFG, &iterations.to_le_bytes())
        .map_err(|e| format!("write {MICRO_CFG}: {e}"))
}

/// The cycles the run of `n` iterations under `ip` takes, after K23's
/// offline phase when `ip` needs one.
fn total_cycles(ip: &dyn Interposer, n: u64) -> u64 {
    let mut k = boot_kernel();
    if k23::needs_offline(ip.name()) {
        // Offline phase with a small representative run (fixed size so it
        // contributes identically to both differencing runs).
        install_micro(&mut k.vfs, 64).expect("microbench installs");
        cli::collect_log(&mut k, MICRO_APP, |k, ip| {
            cli::run_to_exit(k, ip, MICRO_APP, &[], 10_000_000_000)
        })
        .expect("offline phase completed");
    }
    install_micro(&mut k.vfs, n).expect("microbench installs");
    ip.install(&mut k);
    let pid = ip
        .spawn(&mut k, MICRO_APP, &[], &[])
        .expect("spawn microbench");
    let start = k.clock;
    let exit = k.run(u64::MAX / 4);
    assert_eq!(exit, RunExit::AllExited, "{}", ip.label());
    assert_eq!(
        k.process(pid).and_then(|p| p.exit_status),
        Some(0),
        "{} run failed",
        ip.label()
    );
    k.clock - start
}

/// Per-iteration cycles under an arbitrary interposer instance:
/// differencing two run lengths cancels startup and offline-phase costs.
pub fn per_iteration_cycles_with(ip: &dyn Interposer, n: u64) -> f64 {
    let c1 = total_cycles(ip, n);
    let c2 = total_cycles(ip, 2 * n);
    (c2 - c1) as f64 / n as f64
}

/// Per-iteration cycles for one configuration.
pub fn per_iteration_cycles(config: Config, n: u64) -> f64 {
    per_iteration_cycles_with(config.make().as_ref(), n)
}

/// One Table 5 row.
#[derive(Debug, Clone)]
pub struct MicroRow {
    /// Configuration label.
    pub label: &'static str,
    /// Measured overhead vs native.
    pub overhead: f64,
    /// The paper's value, for side-by-side output.
    pub paper: f64,
}

/// Runs the full Table 5 microbenchmark.
pub fn run_table5(n: u64) -> Vec<MicroRow> {
    let native = per_iteration_cycles(Config::Native, n);
    Config::TABLE5
        .iter()
        .map(|c| MicroRow {
            label: c.label(),
            overhead: per_iteration_cycles(*c, n) / native,
            paper: c.paper_table5().expect("table5 config"),
        })
        .collect()
}

/// Renders Table 5.
pub fn render_table5(rows: &[MicroRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<22}{:>12}{:>12}{:>8}\n",
        "Configuration", "measured", "paper", "Δ"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<22}{:>12}{:>12}{:>8}\n",
            r.label,
            crate::fmt_ratio(r.overhead),
            crate::fmt_ratio(r.paper),
            format!("{:+.3}", r.overhead - r.paper),
        ));
    }
    out.push_str("(stddev is identically 0: the simulator is deterministic)\n");
    out
}
