//! The dynamic loader.
//!
//! Implements [`ExecLoader`]: resolves dependencies and `LD_PRELOAD`, places
//! modules with ASLR (whole-image slides, so *(region, offset)* pairs stay
//! valid across runs — the property K23's offline logs rely on, §5.1), maps
//! a vDSO (fast-path or syscall-fallback when a tracer disabled it, §5.2),
//! patches imports, and generates a **startup stub** that issues the same
//! kind of syscall sequence `ld.so` produces while loading libraries.
//!
//! Those stub syscalls execute *before any preloaded interposer initializes*
//! — they are the "over 100 system calls during startup" that library-
//! injection-based interposers inevitably miss (pitfall P2b, §6.1).

use crate::image::{ImageBuilder, SimElf};
use crate::libc;
use sim_isa::Reg;
use sim_kernel::nr;
use sim_kernel::{ExecLoader, ExecOpts, LoadedImage, Vfs};
use sim_mem::{AddressSpace, Perms, PAGE_SIZE};
use std::collections::{BTreeMap, BTreeSet};

/// Stack size for new images.
pub const STACK_SIZE: u64 = 256 * 1024;
/// Heap mapping size.
pub const HEAP_SIZE: u64 = 4 * 1024 * 1024;

/// How many failed locale/gconv probe opens the startup stub performs
/// (tuned so `ls`-class binaries issue >100 startup syscalls, §6.1).
const LOCALE_PROBES: usize = 40;

/// The loader. Stateless; installed once via [`sim_kernel::Kernel::set_loader`].
#[derive(Debug, Default, Clone, Copy)]
pub struct Ld;

fn basename(path: &str) -> &str {
    path.rsplit('/').next().unwrap_or(path)
}

fn collect_deps(vfs: &Vfs, img: &SimElf, out: &mut Vec<SimElf>, seen: &mut BTreeSet<String>) {
    for dep in &img.needed {
        if seen.contains(dep) {
            continue;
        }
        seen.insert(dep.clone());
        if let Some(d) = SimElf::load_from(vfs, dep) {
            collect_deps(vfs, &d, out, seen);
            out.push(d);
        }
    }
}

struct Placed {
    img: SimElf,
    base: u64,
}

fn map_module(space: &mut AddressSpace, img: &SimElf, base: u64) -> Result<(), i64> {
    let total = img.mapped_len();
    let code_len = img.data_offset.min(total);
    if code_len > 0 {
        space
            .map(base, code_len, Perms::RX, &img.name)
            .map_err(|_| -nr::ENOMEM)?;
    }
    if total > code_len {
        space
            .map(base + code_len, total - code_len, Perms::RW, &img.name)
            .map_err(|_| -nr::ENOMEM)?;
    }
    space.write_raw(base, &img.bytes).map_err(|_| -nr::ENOMEM)?;
    for &off in &img.abs_relocs {
        let mut b = [0u8; 8];
        space.read_raw(base + off, &mut b).map_err(|_| -nr::ENOMEM)?;
        let v = u64::from_le_bytes(b).wrapping_add(base);
        space
            .write_raw(base + off, &v.to_le_bytes())
            .map_err(|_| -nr::ENOMEM)?;
    }
    Ok(())
}

fn build_vdso(disable_fast_path: bool) -> SimElf {
    let mut b = ImageBuilder::new("[vdso]");
    b.asm.label("clock_gettime_vdso");
    if disable_fast_path {
        // Tracer disabled the vDSO: fall back to a real syscall so the call
        // becomes interposable (paper §5.2).
        b.asm.mov_imm(Reg::Rax, nr::SYS_CLOCK_GETTIME);
        b.asm.syscall();
        b.asm.ret();
    } else {
        // Fast path: read the clock entirely in user space; optionally store
        // it to *rsi.
        b.asm.vsyscall();
        b.asm.test_reg(Reg::Rsi, Reg::Rsi);
        b.asm.jz("skip_store");
        b.asm.store(Reg::Rsi, 0, Reg::Rax);
        b.asm.label("skip_store");
        b.asm.ret();
    }
    b.finish()
}

/// Emits the ld.so-style loading narration for one module (≈14 syscalls).
fn emit_module_load_syscalls(b: &mut ImageBuilder, path_label: &str) {
    let a = &mut b.asm;
    // openat(AT_FDCWD, path, O_RDONLY)
    a.mov_imm(Reg::Rdi, (-100i64) as u64);
    a.lea_label(Reg::Rsi, path_label);
    a.mov_imm(Reg::Rdx, 0);
    a.mov_imm(Reg::Rax, nr::SYS_OPENAT);
    a.syscall();
    a.mov_reg(Reg::R12, Reg::Rax);
    // read(fd, scratch, 64) x2 — the ELF header then the program headers
    for _ in 0..2 {
        a.mov_reg(Reg::Rdi, Reg::R12);
        a.lea_label(Reg::Rsi, "__ld_scratch");
        a.mov_imm(Reg::Rdx, 64);
        a.mov_imm(Reg::Rax, nr::SYS_READ);
        a.syscall();
    }
    // newfstatat(AT_FDCWD, path, scratch, 0)
    a.mov_imm(Reg::Rdi, (-100i64) as u64);
    a.lea_label(Reg::Rsi, path_label);
    a.lea_label(Reg::Rdx, "__ld_scratch");
    a.mov_imm(Reg::Rax, nr::SYS_NEWFSTATAT);
    a.syscall();
    // Three probing mmap/munmap pairs plus one mmap+mprotect+munmap.
    for last in [false, false, false, true] {
        a.mov_imm(Reg::Rdi, 0);
        a.mov_imm(Reg::Rsi, PAGE_SIZE);
        a.mov_imm(Reg::Rdx, 1); // PROT_READ
        a.mov_imm(Reg::R10, 0);
        a.mov_imm(Reg::Rax, nr::SYS_MMAP);
        a.syscall();
        a.mov_reg(Reg::R13, Reg::Rax);
        if last {
            a.mov_reg(Reg::Rdi, Reg::R13);
            a.mov_imm(Reg::Rsi, PAGE_SIZE);
            a.mov_imm(Reg::Rdx, 1);
            a.mov_imm(Reg::Rax, nr::SYS_MPROTECT);
            a.syscall();
        }
        a.mov_reg(Reg::Rdi, Reg::R13);
        a.mov_imm(Reg::Rsi, PAGE_SIZE);
        a.mov_imm(Reg::Rax, nr::SYS_MUNMAP);
        a.syscall();
    }
    // close(fd)
    a.mov_reg(Reg::Rdi, Reg::R12);
    a.mov_imm(Reg::Rax, nr::SYS_CLOSE);
    a.syscall();
}

fn build_stub(
    modules: &[&str],
    ctors: &[u64],
    main_entry: u64,
    argc: u64,
    argv_ptr: u64,
    envp_ptr: u64,
) -> SimElf {
    let mut b = ImageBuilder::new("/lib/ld-sim.so");
    b.entry("_stub_start");
    b.asm.label("_stub_start");

    // Early ld.so work: two brk probes, arch_prctl, the ld.so.preload check.
    for _ in 0..2 {
        b.asm.mov_imm(Reg::Rdi, 0);
        b.asm.mov_imm(Reg::Rax, nr::SYS_BRK);
        b.asm.syscall();
    }
    b.asm.mov_imm(Reg::Rax, nr::SYS_ARCH_PRCTL);
    b.asm.syscall();
    b.asm.lea_label(Reg::Rdi, "__str_preload_cfg");
    b.asm.mov_imm(Reg::Rax, nr::SYS_ACCESS);
    b.asm.syscall();

    // Per-module loading narration.
    for (i, _) in modules.iter().enumerate() {
        emit_module_load_syscalls(&mut b, &format!("__str_mod_{i}"));
    }

    // Locale / gconv probing (all ENOENT).
    for _ in 0..LOCALE_PROBES {
        b.asm.mov_imm(Reg::Rdi, (-100i64) as u64);
        b.asm.lea_label(Reg::Rsi, "__str_locale");
        b.asm.mov_imm(Reg::Rdx, 0);
        b.asm.mov_imm(Reg::Rax, nr::SYS_OPENAT);
        b.asm.syscall();
    }

    // Late ld.so/libc-startup housekeeping.
    b.asm.mov_imm(Reg::Rax, nr::SYS_SET_TID_ADDRESS);
    b.asm.syscall();
    b.asm.mov_imm(Reg::Rax, nr::SYS_RT_SIGPROCMASK);
    b.asm.syscall();

    // Constructors, in load order (deps first, then preloads — interposer
    // constructors run here, *after* all of the syscalls above).
    for &ctor in ctors {
        b.asm.mov_imm(Reg::R15, ctor);
        b.asm.call_reg(Reg::R15);
    }

    // Call main(argc, argv, envp); its return value feeds exit_group.
    b.asm.mov_imm(Reg::Rdi, argc);
    b.asm.mov_imm(Reg::Rsi, argv_ptr);
    b.asm.mov_imm(Reg::Rdx, envp_ptr);
    b.asm.mov_imm(Reg::R15, main_entry);
    b.asm.call_reg(Reg::R15);
    b.asm.mov_reg(Reg::Rdi, Reg::Rax);
    b.asm.mov_imm(Reg::Rax, nr::SYS_EXIT_GROUP);
    b.asm.syscall();

    // String and scratch data.
    b.data_object("__ld_scratch", &[0u8; 128]);
    b.data_object("__str_preload_cfg", b"/etc/ld.so.preload\0");
    b.data_object("__str_locale", b"/usr/lib/locale/locale-archive\0");
    for (i, m) in modules.iter().enumerate() {
        b.data_object(&format!("__str_mod_{i}"), format!("{m}\0").as_bytes());
    }
    b.finish()
}

impl ExecLoader for Ld {
    fn load(
        &self,
        vfs: &mut Vfs,
        path: &str,
        argv: &[String],
        env: &[String],
        opts: &ExecOpts,
    ) -> Result<LoadedImage, i64> {
        let main = SimElf::load_from(vfs, path).ok_or(-nr::ENOENT)?;
        let main_entry_sym = main.entry.clone().ok_or(-nr::EACCES)?;

        // Dependency closure (post-order: dependencies first).
        let mut seen = BTreeSet::new();
        seen.insert(path.to_string());
        let mut deps = Vec::new();
        collect_deps(vfs, &main, &mut deps, &mut seen);

        // LD_PRELOAD list (colon-separated), loaded after deps; missing
        // entries are skipped like ld.so does (with a warning on stderr).
        let preload_val = env
            .iter()
            .find(|e| e.starts_with("LD_PRELOAD="))
            .map(|e| e["LD_PRELOAD=".len()..].to_string())
            .unwrap_or_default();
        let mut preloads = Vec::new();
        for p in preload_val.split(':').filter(|s| !s.is_empty()) {
            if seen.contains(p) {
                continue;
            }
            seen.insert(p.to_string());
            if let Some(img) = SimElf::load_from(vfs, p) {
                collect_deps(vfs, &img, &mut preloads, &mut seen);
                preloads.push(img);
            }
        }

        // Placement: page-multiple slide, whole-image shifts only.
        let slide = (opts.aslr_seed % 0x400) * PAGE_SIZE;
        let mut space = AddressSpace::new();

        let mut placed: Vec<Placed> = Vec::new();
        let mut lib_cursor = 0x7f00_0000_0000 + slide;
        for img in deps.into_iter().chain(preloads) {
            let base = lib_cursor;
            lib_cursor += img.mapped_len() + 0x20_0000;
            map_module(&mut space, &img, base)?;
            placed.push(Placed { img, base });
        }
        let main_base = 0x5555_5540_0000 + slide;
        map_module(&mut space, &main, main_base)?;
        placed.push(Placed {
            img: main,
            base: main_base,
        });

        // vDSO.
        let vdso = build_vdso(opts.disable_vdso);
        let vdso_base = 0x7fff_0000_0000 + slide;
        map_module(&mut space, &vdso, vdso_base)?;
        placed.push(Placed {
            img: vdso,
            base: vdso_base,
        });

        // Heap.
        let heap_base = 0x6000_0000_0000 + slide;
        space
            .map(heap_base, HEAP_SIZE, Perms::RW, "[heap]")
            .map_err(|_| -nr::ENOMEM)?;

        // Symbol tables. Later modules override earlier ones for bare names
        // (preloads beat deps; the executable beats everything), imports
        // prefer the global namespace, falling back to the module's own.
        let mut global: BTreeMap<String, u64> = BTreeMap::new();
        let mut all_syms: BTreeMap<String, u64> = BTreeMap::new();
        let mut lib_bases: BTreeMap<String, u64> = BTreeMap::new();
        for p in &placed {
            lib_bases.insert(p.img.name.clone(), p.base);
            for (sym, off) in &p.img.symbols {
                all_syms.insert(format!("{}:{sym}", basename(&p.img.name)), p.base + off);
                if !p.img.isolated_namespace {
                    global.insert(sym.clone(), p.base + off);
                }
            }
        }

        // Patch imports.
        for p in &placed {
            for (sym, slot) in &p.img.imports {
                let own = p.img.symbols.get(sym).map(|o| p.base + o);
                let addr = global.get(sym).copied().or(own).ok_or(-nr::ENOENT)?;
                space
                    .write_raw(p.base + slot, &addr.to_le_bytes())
                    .map_err(|_| -nr::ENOMEM)?;
            }
        }

        // Stack with the SysV-style argv/env block at the top.
        let stack_top = 0x7ffd_0000_0000 + slide;
        let stack_base = stack_top - STACK_SIZE;
        space
            .map(stack_base, STACK_SIZE, Perms::RW, "[stack]")
            .map_err(|_| -nr::ENOMEM)?;
        let (rsp, argv_ptr, envp_ptr) = write_args(&mut space, stack_top, argv, env)?;

        // Constructors: all placed modules except main/vdso, in order.
        let ctors: Vec<u64> = placed
            .iter()
            .filter_map(|p| {
                p.img
                    .init
                    .as_ref()
                    .and_then(|sym| p.img.symbols.get(sym))
                    .map(|off| p.base + off)
            })
            .collect();
        let main_placed = placed
            .iter()
            .find(|p| p.img.name == path)
            .expect("main placed");
        let main_entry = main_placed.base
            + *main_placed
                .img
                .symbols
                .get(&main_entry_sym)
                .ok_or(-nr::EACCES)?;

        // The startup stub narrates loading of every non-main module.
        let stub_modules: Vec<&str> = placed
            .iter()
            .map(|p| p.img.name.as_str())
            .filter(|&name| name != path && name != "[vdso]")
            .collect();
        let stub = build_stub(
            &stub_modules,
            &ctors,
            main_entry,
            argv.len() as u64,
            argv_ptr,
            envp_ptr,
        );
        let stub_base = 0x7fee_0000_0000 + slide;
        map_module(&mut space, &stub, stub_base)?;
        let entry = stub_base + stub.symbols["_stub_start"];
        lib_bases.insert(stub.name.clone(), stub_base);
        for (sym, off) in &stub.symbols {
            all_syms.insert(format!("ld-sim.so:{sym}"), stub_base + off);
        }

        // Hostcall wiring (all modules, including isolated ones).
        let mut hostcall_sites = Vec::new();
        for p in &placed {
            for sym in &p.img.hostcall_syms {
                hostcall_sites.push((sym.clone(), p.base + p.img.symbols[sym]));
            }
        }

        // Merge bare global names into the exported symbol map too.
        for (k, v) in global {
            all_syms.entry(k).or_insert(v);
        }

        Ok(LoadedImage {
            space,
            entry,
            rsp,
            hostcall_sites,
            symbols: all_syms,
            lib_bases,
            vdso_base,
        })
    }
}

/// Writes the argv/env block below `stack_top`; returns (rsp, argv*, envp*).
fn write_args(
    space: &mut AddressSpace,
    stack_top: u64,
    argv: &[String],
    env: &[String],
) -> Result<(u64, u64, u64), i64> {
    let mut cursor = stack_top;
    let mut write_strs = |space: &mut AddressSpace, items: &[String]| -> Result<Vec<u64>, i64> {
        let mut ptrs = Vec::new();
        for s in items {
            let bytes = s.as_bytes();
            cursor -= bytes.len() as u64 + 1;
            space
                .write_raw(cursor, bytes)
                .and_then(|_| space.write_raw(cursor + bytes.len() as u64, &[0]))
                .map_err(|_| -nr::ENOMEM)?;
            ptrs.push(cursor);
        }
        Ok(ptrs)
    };
    let argv_ptrs = write_strs(space, argv)?;
    let env_ptrs = write_strs(space, env)?;
    cursor &= !7;
    // envp array (NULL-terminated), then argv array, then argc.
    cursor -= 8;
    space.write_raw(cursor, &0u64.to_le_bytes()).map_err(|_| -nr::ENOMEM)?;
    for p in env_ptrs.iter().rev() {
        cursor -= 8;
        space.write_raw(cursor, &p.to_le_bytes()).map_err(|_| -nr::ENOMEM)?;
    }
    let envp_ptr = cursor;
    cursor -= 8;
    space.write_raw(cursor, &0u64.to_le_bytes()).map_err(|_| -nr::ENOMEM)?;
    for p in argv_ptrs.iter().rev() {
        cursor -= 8;
        space.write_raw(cursor, &p.to_le_bytes()).map_err(|_| -nr::ENOMEM)?;
    }
    let argv_ptr = cursor;
    cursor -= 8;
    space
        .write_raw(cursor, &(argv.len() as u64).to_le_bytes())
        .map_err(|_| -nr::ENOMEM)?;
    let rsp = cursor & !15;
    Ok((rsp, argv_ptr, envp_ptr))
}

/// Convenience: builds a kernel with the loader installed and the standard
/// libraries present.
pub fn boot_kernel() -> sim_kernel::Kernel {
    let mut k = sim_kernel::Kernel::new();
    k.set_loader(std::rc::Rc::new(Ld));
    libc::install_standard_libs(&mut k.vfs);
    k
}

/// Builds a kernel whose VFS is a clone of `template`. The workspace boots
/// with [`boot_kernel`] plus `apps::install_world`, which share the
/// once-built images already; this stays only because the host-time
/// benchmark (`perfbench`) calls it.
pub fn boot_kernel_from(template: &sim_kernel::Vfs) -> sim_kernel::Kernel {
    let mut k = sim_kernel::Kernel::new();
    k.set_loader(std::rc::Rc::new(Ld));
    k.vfs = template.clone();
    k
}
