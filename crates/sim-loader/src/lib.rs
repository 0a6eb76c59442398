//! # sim-loader — SimElf images and the dynamic loader
//!
//! Provides the module format ([`SimElf`], [`ImageBuilder`]), the standard
//! guest libraries ([`libc`]: one `syscall` instruction per wrapper, as in
//! glibc), and the [`Ld`] loader implementing [`sim_kernel::ExecLoader`]:
//! dependency resolution, `LD_PRELOAD`, dlmopen-style namespace isolation,
//! ASLR with stable intra-region offsets, vDSO mapping (with a tracer-
//! controlled syscall fallback), and a startup stub that issues a realistic
//! `ld.so` syscall sequence *before* any preloaded interposer initializes
//! (pitfall P2b).

pub mod image;
pub mod libc;
pub mod loader;

pub use image::{ImageBuilder, SimElf};
pub use libc::{build_libc, install_standard_libs, FILLER_LIBS, LIBC_PATH, LIBC_WRAPPERS};
pub use loader::{boot_kernel, boot_kernel_from, Ld};

#[cfg(test)]
mod tests {
    use super::*;
    use sim_isa::Reg;
    use sim_kernel::{nr, RunExit};

    /// A minimal app: writes "hi\n" to stdout via the libc wrapper, exits 0.
    fn hello_app() -> SimElf {
        let mut b = ImageBuilder::new("/usr/bin/hello");
        b.entry("main");
        b.needs(LIBC_PATH);
        b.asm.label("main");
        b.asm.mov_imm(Reg::Rdi, 1);
        b.asm.lea_label(Reg::Rsi, "msg");
        b.asm.mov_imm(Reg::Rdx, 3);
        b.call_import("write");
        b.asm.mov_imm(Reg::Rax, 0);
        b.asm.ret();
        b.data_object("msg", b"hi\n");
        b.finish()
    }

    #[test]
    fn end_to_end_hello() {
        let mut k = boot_kernel();
        hello_app().install(&mut k.vfs);
        let pid = k
            .spawn("/usr/bin/hello", &["hello".into()], &[], None)
            .expect("spawn");
        let exit = k.run(500_000_000);
        assert_eq!(exit, RunExit::AllExited);
        let p = k.process(pid).expect("proc");
        assert_eq!(p.exit_status, Some(0));
        assert_eq!(p.output_string(), "hi\n");
    }

    #[test]
    fn read_with_an_unbounded_count_returns_the_rest_of_the_file() {
        let mut k = boot_kernel();
        k.vfs.write_file("/etc/motd", b"hello\n").unwrap();
        let mut b = ImageBuilder::new("/usr/bin/slurp");
        b.entry("main");
        b.needs(LIBC_PATH);
        b.asm.label("main");
        b.asm.mov_imm(Reg::Rdi, (-100i64) as u64); // AT_FDCWD
        b.asm.lea_label(Reg::Rsi, "path");
        b.asm.mov_imm(Reg::Rdx, 0);
        b.call_import("openat");
        b.asm.mov_reg(Reg::R12, Reg::Rax);
        // Two bytes first, so the unbounded read starts past offset 0.
        for (at, count) in [("buf", 2), ("buf_rest", u64::MAX)] {
            b.asm.mov_reg(Reg::Rdi, Reg::R12);
            b.asm.lea_label(Reg::Rsi, at);
            b.asm.mov_imm(Reg::Rdx, count);
            b.call_import("read");
        }
        b.asm.ret(); // exit status = the second read's return value
        b.data_object("path", b"/etc/motd\0");
        b.data_object("buf", &[0u8; 2]);
        b.data_object("buf_rest", &[0u8; 14]);
        b.finish().install(&mut k.vfs);
        let pid = k.spawn("/usr/bin/slurp", &[], &[], None).unwrap();
        assert_eq!(k.run(500_000_000), RunExit::AllExited);
        let p = k.process_mut(pid).unwrap();
        assert_eq!(p.exit_status, Some(4));
        let mut got = [0u8; 2 + 4];
        p.space.read_raw(p.symbols["slurp:buf"], &mut got[..2]).unwrap();
        p.space.read_raw(p.symbols["slurp:buf_rest"], &mut got[2..]).unwrap();
        assert_eq!(&got, b"hello\n");
    }

    /// Builds and spawns `/usr/bin/probe`, whose `main` is `body` followed
    /// by `ret`; `body` stores each result through r13, which points at
    /// `n` zeroed quads named `rets`. Runs it to exit and returns them.
    fn run_probe(
        k: &mut sim_kernel::Kernel,
        n: usize,
        body: impl FnOnce(&mut ImageBuilder),
    ) -> Vec<u64> {
        let mut b = ImageBuilder::new("/usr/bin/probe");
        b.entry("main");
        b.needs(LIBC_PATH);
        b.asm.label("main");
        b.asm.lea_label(Reg::R13, "rets");
        body(&mut b);
        b.asm.mov_imm(Reg::Rax, 0);
        b.asm.ret();
        b.data_object("rets", &vec![0u8; 8 * n]);
        b.finish().install(&mut k.vfs);
        let pid = k.spawn("/usr/bin/probe", &[], &[], None).unwrap();
        assert_eq!(k.run(500_000_000), RunExit::AllExited);
        let p = k.process_mut(pid).unwrap();
        assert_eq!(p.exit_status, Some(0));
        let mut raw = vec![0u8; 8 * n];
        p.space.read_raw(p.symbols["probe:rets"], &mut raw).unwrap();
        raw.chunks(8)
            .map(|q| u64::from_le_bytes(q.try_into().unwrap()))
            .collect()
    }

    /// A guest chooses its file offset: `lseek` to a negative offset fails
    /// with `-EINVAL` and leaves the offset alone, and a `write` that would
    /// end past `MAX_FILE_SIZE` fails with `-EFBIG`, allocating nothing.
    #[test]
    fn seeks_below_zero_and_writes_past_the_size_limit_fail() {
        let mut k = boot_kernel();
        let big = sim_kernel::vfs::MAX_FILE_SIZE as u64;
        let rets = run_probe(&mut k, 5, |b| {
            b.asm.mov_imm(Reg::Rdi, (-100i64) as u64); // AT_FDCWD
            b.asm.lea_label(Reg::Rsi, "path");
            b.asm.mov_imm(Reg::Rdx, 0x40); // O_CREAT
            b.call_import("openat");
            b.asm.mov_reg(Reg::R12, Reg::Rax);
            // (syscall, second argument, third argument) per result slot.
            let calls: [(&str, u64, u64); 5] = [
                ("lseek", u64::MAX - 1, 0),   // SEEK_SET to 2^64 - 2
                ("write", 0, 4),              // "abcd", at offset 0
                ("lseek", (-8i64) as u64, 1), // SEEK_CUR to 4 - 8
                ("lseek", big - 2, 0),
                ("write", 0, 4), // would end at MAX_FILE_SIZE + 2
            ];
            for (slot, (call, arg, arg2)) in calls.into_iter().enumerate() {
                b.asm.mov_reg(Reg::Rdi, Reg::R12);
                if call == "write" {
                    b.asm.lea_label(Reg::Rsi, "data");
                } else {
                    b.asm.mov_imm(Reg::Rsi, arg);
                }
                b.asm.mov_imm(Reg::Rdx, arg2);
                b.call_import(call);
                b.asm.store(Reg::R13, 8 * slot as i32, Reg::Rax);
            }
            b.data_object("path", b"/tmp/seek\0");
            b.data_object("data", b"abcd");
        });
        let einval = nr::err(nr::EINVAL);
        assert_eq!(rets, [einval, 4, einval, big - 2, nr::err(nr::EFBIG)]);
        assert_eq!(k.vfs.read_file("/tmp/seek").unwrap(), b"abcd");
    }

    /// A guest chooses its buffer length: a `write` whose count runs past
    /// the buffer's mapping fails with `-EFAULT`, however large the count,
    /// and prints nothing.
    #[test]
    fn writes_with_a_count_past_the_mapping_fail_with_efault() {
        let mut k = boot_kernel();
        let rets = run_probe(&mut k, 2, |b| {
            for (slot, count) in [u64::MAX, 1 << 40].into_iter().enumerate() {
                b.asm.mov_imm(Reg::Rdi, 1);
                b.asm.lea_label(Reg::Rsi, "data");
                b.asm.mov_imm(Reg::Rdx, count);
                b.call_import("write");
                b.asm.store(Reg::R13, 8 * slot as i32, Reg::Rax);
            }
            b.data_object("data", b"never printed");
        });
        assert_eq!(rets, [nr::err(nr::EFAULT); 2]);
        let pid = k.pids()[0];
        assert_eq!(k.process(pid).unwrap().output_string(), "");
    }

    /// A guest can write any file and `execve` it, so the loader treats
    /// an image file as outside input: a missing path fails with
    /// `-ENOENT`, and a file that does not decode (garbage, a truncated
    /// image, a length prefix past the end of the file) or whose mapped
    /// length overflows fails with `-ENOEXEC`, leaving the caller running.
    #[test]
    fn exec_of_a_missing_or_malformed_image_fails_with_its_errno() {
        let mut k = boot_kernel();
        let image = {
            let mut vfs = sim_kernel::Vfs::new();
            hello_app().install(&mut vfs);
            vfs.read_file("/usr/bin/hello").unwrap().to_vec()
        };
        let mut past_end = image.clone();
        past_end[8..16].copy_from_slice(&u64::MAX.to_le_bytes()); // the name's length
        k.vfs
            .write_file("/tmp/garbage", b"#!/bin/sh\necho hi\n")
            .unwrap();
        k.vfs
            .write_file("/tmp/truncated", &image[..image.len() / 2])
            .unwrap();
        k.vfs.write_file("/tmp/past_end", &past_end).unwrap();
        let mut huge = hello_app();
        huge.name = "/tmp/huge_bss".into();
        huge.bss = u64::MAX - 100;
        huge.install(&mut k.vfs);
        let paths = ["nope", "garbage", "truncated", "past_end", "huge_bss"];
        let rets = run_probe(&mut k, paths.len(), |b| {
            for (slot, path) in paths.iter().enumerate() {
                b.asm.lea_label(Reg::Rdi, path);
                b.asm.mov_imm(Reg::Rsi, 0);
                b.asm.mov_imm(Reg::Rdx, 0);
                b.call_import("execve");
                b.asm.store(Reg::R13, 8 * slot as i32, Reg::Rax);
            }
            for path in paths {
                b.data_object(path, format!("/tmp/{path}\0").as_bytes());
            }
        });
        let noexec = nr::err(nr::ENOEXEC);
        assert_eq!(rets, [nr::err(nr::ENOENT), noexec, noexec, noexec, noexec]);
    }

    #[test]
    fn startup_issues_many_syscalls_before_interposer() {
        // The P2b measurement: a library-injection interposer cannot see any
        // of these.
        let mut k = boot_kernel();
        let mut app = ImageBuilder::new("/usr/bin/ls-ish");
        app.entry("main");
        app.needs(LIBC_PATH);
        for f in FILLER_LIBS {
            app.needs(f);
        }
        app.asm.label("main");
        app.asm.mov_imm(Reg::Rax, 0);
        app.asm.ret();
        app.finish().install(&mut k.vfs);
        let pid = k.spawn("/usr/bin/ls-ish", &[], &[], None).expect("spawn");
        k.run(500_000_000);
        let p = k.process(pid).expect("proc");
        // interposer_live was never set, so everything counted as "before".
        assert!(
            p.stats.syscalls_before_interposer > 100,
            "expected >100 startup syscalls, got {}",
            p.stats.syscalls_before_interposer
        );
    }

    #[test]
    fn aslr_slides_whole_images_keeping_offsets() {
        let mut k1 = boot_kernel();
        let mut k2 = boot_kernel();
        // Force differing ASLR seeds by advancing k2's RNG.
        for _ in 0..3 {
            k2.next_random();
        }
        hello_app().install(&mut k1.vfs);
        hello_app().install(&mut k2.vfs);
        let p1 = k1.spawn("/usr/bin/hello", &[], &[], None).unwrap();
        let p2 = k2.spawn("/usr/bin/hello", &[], &[], None).unwrap();
        let b1 = k1.process(p1).unwrap().lib_bases[LIBC_PATH];
        let b2 = k2.process(p2).unwrap().lib_bases[LIBC_PATH];
        let s1 = k1.process(p1).unwrap().symbols["libc-sim.so.6:write"];
        let s2 = k2.process(p2).unwrap().symbols["libc-sim.so.6:write"];
        // Bases differ, offsets match.
        assert_ne!(b1, b2);
        assert_eq!(s1 - b1, s2 - b2);
    }

    #[test]
    fn ld_preload_injects_and_runs_ctor() {
        let mut k = boot_kernel();
        hello_app().install(&mut k.vfs);
        // A preload library whose ctor is a hostcall.
        let mut lib = ImageBuilder::new("/lib/libprobe.so");
        lib.init("__host_probe_init");
        lib.hostcall_fn("__host_probe_init");
        lib.finish().install(&mut k.vfs);

        use std::cell::RefCell;
        use std::rc::Rc;
        let fired = Rc::new(RefCell::new(0u32));
        let f2 = fired.clone();
        k.register_hostcall("__host_probe_init", move |k, pid, _tid| {
            *f2.borrow_mut() += 1;
            k.mark_interposer_live(pid);
        });

        let pid = k
            .spawn(
                "/usr/bin/hello",
                &[],
                &["LD_PRELOAD=/lib/libprobe.so".into()],
                None,
            )
            .expect("spawn");
        let exit = k.run(500_000_000);
        assert_eq!(exit, RunExit::AllExited);
        assert_eq!(*fired.borrow(), 1);
        let p = k.process(pid).expect("proc");
        assert_eq!(p.output_string(), "hi\n");
        // Startup syscalls happened before the ctor marked the interposer
        // live, and at least the app's write happened after.
        assert!(p.stats.syscalls_before_interposer > 50);
        assert!(p.stats.syscalls > p.stats.syscalls_before_interposer);
    }

    #[test]
    fn empty_env_skips_preload() {
        // Pitfall P1a in substrate form: exec with no environment — the
        // preload library is simply not loaded.
        let mut k = boot_kernel();
        hello_app().install(&mut k.vfs);
        let mut lib = ImageBuilder::new("/lib/libprobe.so");
        lib.init("__host_probe_init");
        lib.hostcall_fn("__host_probe_init");
        lib.finish().install(&mut k.vfs);
        use std::cell::RefCell;
        use std::rc::Rc;
        let fired = Rc::new(RefCell::new(0u32));
        let f2 = fired.clone();
        k.register_hostcall("__host_probe_init", move |_k, _pid, _tid| {
            *f2.borrow_mut() += 1;
        });
        k.spawn("/usr/bin/hello", &[], &[], None).expect("spawn");
        k.run(500_000_000);
        assert_eq!(*fired.borrow(), 0);
    }

    #[test]
    fn vdso_fast_path_vs_disabled() {
        // An app that calls clock_gettime through the vDSO.
        let mk_app = || {
            let mut b = ImageBuilder::new("/usr/bin/clock");
            b.entry("main");
            b.needs(LIBC_PATH);
            b.asm.label("main");
            b.asm.mov_imm(Reg::Rdi, 0);
            b.asm.mov_imm(Reg::Rsi, 0);
            b.call_import("clock_gettime_vdso");
            b.asm.mov_imm(Reg::Rax, 0);
            b.asm.ret();
            b.finish()
        };
        // Fast path: no kernel entry for the call.
        let mut k = boot_kernel();
        mk_app().install(&mut k.vfs);
        let pid = k.spawn("/usr/bin/clock", &[], &[], None).unwrap();
        k.run(500_000_000);
        let p = k.process(pid).unwrap();
        assert_eq!(p.stats.vdso_calls, 1);
        assert_eq!(p.stats.syscall_count_of(nr::SYS_CLOCK_GETTIME), 0);

        // Disabled (tracer-style): the same import becomes a real syscall.
        let mut k = boot_kernel();
        mk_app().install(&mut k.vfs);
        use sim_kernel::{CountingTracer, TraceOpts};
        use std::cell::RefCell;
        use std::rc::Rc;
        let tracer = Rc::new(RefCell::new(CountingTracer::default()));
        let pid = k
            .spawn(
                "/usr/bin/clock",
                &[],
                &[],
                Some((
                    tracer,
                    TraceOpts {
                        disable_vdso: true,
                        ..TraceOpts::default()
                    },
                )),
            )
            .unwrap();
        k.run(500_000_000);
        let p = k.process(pid).unwrap();
        assert_eq!(p.stats.vdso_calls, 0);
        assert_eq!(p.stats.syscall_count_of(nr::SYS_CLOCK_GETTIME), 1);
    }
}
