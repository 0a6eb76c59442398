//! Figure regeneration: textual versions of the paper's Figures 1–4.

use crate::macros_::fresh_world;
use crate::{cli, Config};
use k23::OfflineSession;
use sim_isa::{disasm, Asm, Reg};
use sim_kernel::RunExit;

/// Figure 1: an image with a true syscall, a partial syscall (opcode bytes
/// inside an immediate), and embedded data resembling a syscall — and what
/// the two static strategies make of it.
pub fn fig1() -> String {
    let mut a = Asm::new();
    a.mov_imm(Reg::Rax, 60);
    a.label("true_syscall");
    a.syscall();
    a.label("partial");
    a.mov_imm(Reg::Rbx, u64::from_le_bytes([1, 2, 0x0f, 0x05, 3, 4, 5, 6]));
    a.ret();
    a.label("data");
    a.quad(0x1122_3344_050f_c0de); // bytes: de c0 0f 05 44 33 22 11
    let prog = a.finish_program();

    let mut out = String::new();
    out.push_str("Figure 1 — misidentification of partial instructions and embedded data\n\n");
    out.push_str(&format!(
        "ground truth: one real syscall at +{}\n",
        prog.sym("true_syscall")
    ));
    out.push_str(&format!(
        "              a partial syscall inside the mov at +{} (imm bytes 0f 05 at +{})\n",
        prog.sym("partial"),
        prog.sym("partial") + 4
    ));
    out.push_str(&format!(
        "              embedded data containing 0f 05 at +{}\n\n",
        prog.sym("data") + 2
    ));

    out.push_str("byte-pattern scan finds:\n");
    for (addr, kind) in disasm::scan_syscall_bytes(&prog.bytes, 0) {
        let verdict = if addr == prog.sym("true_syscall") {
            "TRUE SITE"
        } else {
            "FALSE POSITIVE (would corrupt on rewrite)"
        };
        out.push_str(&format!("  +{addr:<6} {kind:?}  {verdict}\n"));
    }
    out.push_str("\nlinear sweep decodes:\n");
    for item in disasm::linear_sweep(&prog.bytes, 0) {
        match item.inst {
            Ok(i) => out.push_str(&format!("  +{:<6} {i}\n", item.addr)),
            Err(_) => out.push_str(&format!("  +{:<6} (bad byte — resync)\n", item.addr)),
        }
    }
    out.push_str("\nthe sweep desynchronizes inside the data and may both miss true\nsites (P2a) and fabricate false ones (P3a).\n");
    out
}

/// Figure 2: the offline phase's main steps, narrated from a real run.
pub fn fig2() -> String {
    let mut k = fresh_world();
    let session = OfflineSession::new(&mut k, "/usr/bin/pwd-sim");
    let (pid, exit) = session
        .run_once(&mut k, &[], &[], 50_000_000_000)
        .expect("offline run");
    assert_eq!(exit, RunExit::AllExited);
    let sigsys = k.process(pid).map(|p| p.stats.sigsys_count).unwrap_or(0);
    let log = session.finish(&mut k);

    let mut out = String::new();
    out.push_str("Figure 2 — K23 offline phase (live run of pwd-sim)\n\n");
    out.push_str("(1) application invokes a system call\n");
    out.push_str(&format!(
        "(2) kernel traps it (SUD) and redirects to libLogger       [{sigsys} traps]\n"
    ));
    out.push_str(&format!(
        "(3) libLogger logs the triggering instruction              [{} unique sites]\n",
        log.len()
    ));
    out.push_str("(4) libLogger forwards the call and returns its result\n\n");
    out.push_str("log entries collected:\n");
    out.push_str(&log.render());
    out
}

/// Figure 3: the offline log generated for ls.
pub fn fig3() -> String {
    let ls = "/usr/bin/ls-sim";
    let log = cli::collect_log(&mut fresh_world(), ls, |k, ip| {
        cli::run_to_exit(k, ip, ls, &[], 50_000_000_000)
    })
    .expect("offline run");
    format!(
        "Figure 3 — log file generated for ls ({} unique sites)\n\n{}",
        log.len(),
        log.render()
    )
}

/// Figure 4: the online phase's main steps, narrated from a real run.
pub fn fig4() -> String {
    let mut k = fresh_world();
    crate::micro::install_micro(&mut k.vfs, 256).expect("microbench installs");
    // Offline first.
    let app = crate::micro::MICRO_APP;
    let log = cli::collect_log(&mut k, app, |k, ip| {
        cli::run_to_exit(k, ip, app, &[], 50_000_000_000)
    })
    .expect("offline");
    // Online.
    let ip = Config::K23Ultra.make();
    ip.install(&mut k);
    let pid = ip
        .spawn(&mut k, crate::micro::MICRO_APP, &[], &[])
        .expect("spawn");
    let exit = k.run(1_000_000_000_000);
    assert_eq!(exit, RunExit::AllExited);
    let p = k.process(pid).expect("proc");
    let fast = p
        .symbols
        .get("libk23.so:__k23_forward")
        .map(|s| p.stats.syscalls_at_site(*s))
        .unwrap_or(0);
    let fallback = p
        .symbols
        .get("libk23.so:__k23_sud_forward")
        .map(|s| p.stats.syscalls_at_site(*s))
        .unwrap_or(0);
    let startup = ip.interposed_count(&k, pid) - fast - fallback
        - p.symbols
            .get("libk23.so:__k23_fake2")
            .map(|s| p.stats.syscalls_at_site(*s))
            .unwrap_or(0)
        - p.symbols
            .get("libk23.so:__k23_sud_forward_sigreturn")
            .map(|s| p.stats.syscalls_at_site(*s))
            .unwrap_or(0);

    let mut out = String::new();
    out.push_str("Figure 4 — K23 online phase (live run of the stress binary)\n\n");
    out.push_str(&format!(
        "(1-3) ptracer interposition before/during library loading   [{startup} syscalls]\n"
    ));
    out.push_str(&format!(
        "(4)   libK23 single selective rewrite of logged sites       [{} sites from a {}-entry log]\n",
        fast.min(1) * log.len() as u64,
        log.len()
    ));
    out.push_str(&format!(
        "(5-7) rewritten sites take the trampoline fast path         [{fast} calls]\n"
    ));
    out.push_str(&format!(
        "      unlogged sites take the SUD fallback                  [{fallback} calls]\n"
    ));
    out.push_str(&format!(
        "every syscall interposed: {} of {}\n",
        ip.interposed_count(&k, pid),
        p.stats.syscalls
    ));
    out
}
