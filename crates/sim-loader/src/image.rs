//! The `SimElf` image format and its builder.
//!
//! A SimElf is one loadable module: a code+data byte image with symbols,
//! imports (GOT-style slots the loader patches with absolute addresses),
//! absolute relocations, declared constructor, dependencies, and hostcall
//! symbols (guest `int3` sites wired to registered host handlers at load).
//!
//! Everything before `data_offset` is mapped read+execute; the rest
//! read+write. Like real binaries, images may *embed data in executable
//! pages* (jump tables via [`ImageBuilder::jump_table`]), which is the raw
//! material of pitfall P3.

use sim_isa::{Asm, Reg};
use sim_kernel::{nr, Vfs};
use std::collections::BTreeMap;

/// Page size used for section alignment (matches `sim_mem::PAGE_SIZE`).
const PAGE: u64 = sim_mem::PAGE_SIZE;

/// A loadable module.
#[derive(Debug, Clone)]
pub struct SimElf {
    /// Install path, e.g. `/usr/lib/libc-sim.so.6`.
    pub name: String,
    /// The raw image (code then data).
    pub bytes: Vec<u8>,
    /// Byte offset where the writable data section begins (page-aligned;
    /// equals `bytes.len()` when there is no data section).
    pub data_offset: u64,
    /// Extra zero-initialized bytes mapped after `bytes` (bss).
    pub bss: u64,
    /// Symbol table: name → image offset.
    pub symbols: BTreeMap<String, u64>,
    /// Offsets of u64 slots holding image-relative values that the loader
    /// rebases by the final load address.
    pub abs_relocs: Vec<u64>,
    /// Imports: (symbol name, offset of the u64 GOT slot to patch).
    pub imports: Vec<(String, u64)>,
    /// Constructor symbol run by the startup stub after loading (in load
    /// order; preload constructors are where interposers initialize).
    pub init: Option<String>,
    /// Entry symbol (executables only).
    pub entry: Option<String>,
    /// Library dependencies (paths), loaded before this image's init runs.
    pub needed: Vec<String>,
    /// Symbols that are hostcall sites: their address is wired to the host
    /// handler registered under the same name.
    pub hostcall_syms: Vec<String>,
    /// Loaded via `dlmopen` semantics: symbols are *not* entered into the
    /// global resolution namespace (paper §5.3 — prevents recursive
    /// redirection through shared libraries).
    pub isolated_namespace: bool,
}

impl SimElf {
    /// Installs the image into the VFS at its `name` path, in the
    /// [`SimElf::encode`] format.
    ///
    /// # Panics
    ///
    /// Panics if the VFS rejects the write (immutable target).
    pub fn install(&self, vfs: &mut Vfs) {
        vfs.write_file(&self.name, &self.encode())
            .unwrap_or_else(|e| panic!("installing {} failed: {e}", self.name));
    }

    /// Loads the image installed at `path`.
    ///
    /// # Errors
    ///
    /// `-ENOENT` when `path` is not a file, `-ENOEXEC` when the file is
    /// not an image [`SimElf::decode`] accepts.
    pub fn load_from(vfs: &Vfs, path: &str) -> Result<SimElf, i64> {
        let data = vfs.read_file(path).map_err(|_| -nr::ENOENT)?;
        Self::decode(data).ok_or(-nr::ENOEXEC)
    }

    /// The installed file format: the 8-byte magic `SIMELF\0\x01`, then
    /// every field in declaration order, little-endian. Integers are
    /// u64s; strings and `bytes` are a u64 length and the raw bytes; lists
    /// and the symbol table are a u64 count and the items; `init` and
    /// `entry` are a 0/1 byte and the string when it is 1;
    /// `isolated_namespace` is a 0/1 byte.
    pub fn encode(&self) -> Vec<u8> {
        fn put_u64(out: &mut Vec<u8>, v: u64) {
            out.extend_from_slice(&v.to_le_bytes());
        }
        fn put_str(out: &mut Vec<u8>, s: &[u8]) {
            put_u64(out, s.len() as u64);
            out.extend_from_slice(s);
        }
        fn put_opt(out: &mut Vec<u8>, s: &Option<String>) {
            out.push(s.is_some() as u8);
            if let Some(s) = s {
                put_str(out, s.as_bytes());
            }
        }
        let mut out = Vec::with_capacity(self.bytes.len() + 1024);
        out.extend_from_slice(MAGIC);
        put_str(&mut out, self.name.as_bytes());
        put_str(&mut out, &self.bytes);
        put_u64(&mut out, self.data_offset);
        put_u64(&mut out, self.bss);
        put_u64(&mut out, self.symbols.len() as u64);
        for (sym, &off) in &self.symbols {
            put_str(&mut out, sym.as_bytes());
            put_u64(&mut out, off);
        }
        put_u64(&mut out, self.abs_relocs.len() as u64);
        for &off in &self.abs_relocs {
            put_u64(&mut out, off);
        }
        put_u64(&mut out, self.imports.len() as u64);
        for (sym, slot) in &self.imports {
            put_str(&mut out, sym.as_bytes());
            put_u64(&mut out, *slot);
        }
        put_opt(&mut out, &self.init);
        put_opt(&mut out, &self.entry);
        for list in [&self.needed, &self.hostcall_syms] {
            put_u64(&mut out, list.len() as u64);
            for s in list {
                put_str(&mut out, s.as_bytes());
            }
        }
        out.push(self.isolated_namespace as u8);
        out
    }

    /// Decodes the [`SimElf::encode`] format. A guest can write any file
    /// and `execve` it, so `data` is outside input: the decoder reads only
    /// inside it and allocates nothing it does not hold. `None` for a bad
    /// magic, a length or count past the end, invalid UTF-8, a duplicate
    /// symbol, a flag byte other than 0 or 1, trailing bytes, or an image
    /// the loader could not place: a mapped length past `u64::MAX`, a
    /// symbol, relocation or import slot outside it, or a hostcall symbol
    /// that is not defined.
    pub fn decode(data: &[u8]) -> Option<SimElf> {
        let mut r = Reader(data.strip_prefix(MAGIC)?);
        let name = r.str()?;
        let bytes = r.take_len()?.to_vec();
        let (data_offset, bss) = (r.u64()?, r.u64()?);
        let pairs = r.list(|r| Some((r.str()?, r.u64()?)))?;
        let defined = pairs.len();
        let symbols: BTreeMap<String, u64> = pairs.into_iter().collect();
        let img = SimElf {
            name,
            bytes,
            data_offset,
            bss,
            abs_relocs: r.list(Reader::u64)?,
            imports: r.list(|r| Some((r.str()?, r.u64()?)))?,
            init: r.opt_str()?,
            entry: r.opt_str()?,
            needed: r.list(Reader::str)?,
            hostcall_syms: r.list(Reader::str)?,
            isolated_namespace: r.flag()?,
            symbols,
        };
        let len = img.mapped_len()?;
        let slot_fits = |off: &u64| off.checked_add(8).is_some_and(|end| end <= len);
        let placeable = r.0.is_empty()
            && img.symbols.len() == defined
            && img.symbols.values().all(|&off| off <= len)
            && img.abs_relocs.iter().all(slot_fits)
            && img.imports.iter().all(|(_, slot)| slot_fits(slot))
            && img
                .hostcall_syms
                .iter()
                .all(|s| img.symbols.contains_key(s));
        placeable.then_some(img)
    }

    /// Total mapped size (code + data + bss), page-rounded; `None` when a
    /// huge `bss` takes it past `u64::MAX` ([`SimElf::decode`] rejects
    /// such an image).
    pub fn mapped_len(&self) -> Option<u64> {
        (self.bytes.len() as u64)
            .checked_add(self.bss)?
            .div_ceil(PAGE)
            .checked_mul(PAGE)
    }
}

/// First bytes of an installed image file: "SIMELF" and format 1.
const MAGIC: &[u8; 8] = b"SIMELF\x00\x01";

/// A cursor over an encoded image that reads only inside it.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take(&mut self, n: u64) -> Option<&'a [u8]> {
        let n = usize::try_from(n).ok().filter(|&n| n <= self.0.len())?;
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Some(head)
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    /// A u64 length and that many bytes.
    fn take_len(&mut self) -> Option<&'a [u8]> {
        let n = self.u64()?;
        self.take(n)
    }

    fn str(&mut self) -> Option<String> {
        String::from_utf8(self.take_len()?.to_vec()).ok()
    }

    fn flag(&mut self) -> Option<bool> {
        match self.take(1)? {
            [0] => Some(false),
            [1] => Some(true),
            _ => None,
        }
    }

    fn opt_str(&mut self) -> Option<Option<String>> {
        match self.flag()? {
            true => self.str().map(Some),
            false => Some(None),
        }
    }

    /// A u64 count and that many items. Every item reads at least eight
    /// bytes, so a count past the end fails before the list outgrows the
    /// input.
    fn list<T>(&mut self, mut item: impl FnMut(&mut Self) -> Option<T>) -> Option<Vec<T>> {
        let n = self.u64()?;
        let mut out = Vec::new();
        for _ in 0..n {
            out.push(item(self)?);
        }
        Some(out)
    }
}

/// Builds a [`SimElf`] from assembly.
///
/// The builder wraps [`Asm`] and adds the module-level concepts: imports,
/// a data section, hostcall sites, constructor/entry declarations.
pub struct ImageBuilder {
    name: String,
    /// The underlying assembler — exposed for direct instruction emission.
    pub asm: Asm,
    imports: Vec<String>,
    init: Option<String>,
    entry: Option<String>,
    needed: Vec<String>,
    hostcall_syms: Vec<String>,
    isolated_namespace: bool,
    data: Vec<(String, Vec<u8>)>,
}

impl ImageBuilder {
    /// Starts building an image to be installed at `name`.
    pub fn new(name: &str) -> ImageBuilder {
        ImageBuilder {
            name: name.to_string(),
            asm: Asm::new(),
            imports: Vec::new(),
            init: None,
            entry: None,
            needed: Vec::new(),
            hostcall_syms: Vec::new(),
            isolated_namespace: false,
            data: Vec::new(),
        }
    }

    /// Declares the constructor symbol (must be defined in the code).
    pub fn init(&mut self, sym: &str) -> &mut Self {
        self.init = Some(sym.to_string());
        self
    }

    /// Declares the entry symbol (executables).
    pub fn entry(&mut self, sym: &str) -> &mut Self {
        self.entry = Some(sym.to_string());
        self
    }

    /// Adds a library dependency by path.
    pub fn needs(&mut self, path: &str) -> &mut Self {
        self.needed.push(path.to_string());
        self
    }

    /// Marks this image for dlmopen-style namespace isolation.
    pub fn isolated(&mut self) -> &mut Self {
        self.isolated_namespace = true;
        self
    }

    /// Defines a named writable data object; returns nothing (address is
    /// reachable via `lea_label` on the same name).
    pub fn data_object(&mut self, label: &str, bytes: &[u8]) -> &mut Self {
        self.data.push((label.to_string(), bytes.to_vec()));
        self
    }

    /// Defines a hostcall function: `label: int3; ret`. At load time the
    /// `int3` address is wired to the host handler registered under `label`.
    pub fn hostcall_fn(&mut self, label: &str) -> &mut Self {
        self.asm.label(label);
        self.asm.int3();
        self.asm.ret();
        self.hostcall_syms.push(label.to_string());
        self
    }

    /// Emits a call through an import: `lea got; load; call *reg` (3
    /// instructions, like a PLT stub). Clobbers `scratch`.
    pub fn call_import_via(&mut self, sym: &str, scratch: Reg) -> &mut Self {
        let got = format!("__got_{sym}");
        if !self.imports.contains(&sym.to_string()) {
            self.imports.push(sym.to_string());
        }
        self.asm.lea_label(scratch, &got);
        self.asm.load(scratch, scratch, 0);
        self.asm.call_reg(scratch);
        self
    }

    /// [`ImageBuilder::call_import_via`] with the conventional scratch `r15`.
    pub fn call_import(&mut self, sym: &str) -> &mut Self {
        self.call_import_via(sym, Reg::R15)
    }

    /// Embeds a jump table (quads of label offsets) directly in the code
    /// stream — data in an executable page, as compilers emit (paper §4.3).
    pub fn jump_table(&mut self, label: &str, targets: &[&str]) -> &mut Self {
        self.asm.label(label);
        for t in targets {
            self.asm.quad_label(t);
        }
        self
    }

    /// Finalizes the image: appends the data section (page-aligned) with the
    /// named data objects and one GOT slot per import.
    pub fn finish(mut self) -> SimElf {
        // Pad code to a page boundary, then lay out data objects + GOT.
        let code_end = self.asm.here() as u64;
        let data_offset = code_end.div_ceil(PAGE) * PAGE;
        let pad = (data_offset - code_end) as usize;
        self.asm.bytes(&vec![0u8; pad]);
        for (label, bytes) in std::mem::take(&mut self.data) {
            self.asm.label(&label);
            self.asm.bytes(&bytes);
            // Keep u64 alignment for the next object.
            let here = self.asm.here();
            let aligned = here.div_ceil(8) * 8;
            self.asm.bytes(&vec![0u8; aligned - here]);
        }
        let mut import_slots = Vec::new();
        for sym in self.imports.clone() {
            let got = format!("__got_{sym}");
            self.asm.label(&got);
            import_slots.push((sym, self.asm.here() as u64));
            self.asm.quad(0);
        }
        let (prog, relocs) = self.asm.finish_with_relocs();
        SimElf {
            name: self.name,
            bytes: prog.bytes,
            data_offset,
            bss: 0,
            symbols: prog.symbols,
            abs_relocs: relocs.into_iter().map(|r| r as u64).collect(),
            imports: import_slots,
            init: self.init,
            entry: self.entry,
            needed: self.needed,
            hostcall_syms: self.hostcall_syms,
            isolated_namespace: self.isolated_namespace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_install_load_roundtrip() {
        let mut b = ImageBuilder::new("/usr/bin/demo");
        b.entry("_start");
        b.asm.label("_start");
        b.asm.mov_imm(Reg::Rax, 60);
        b.asm.syscall();
        let img = b.finish();

        let mut vfs = Vfs::new();
        img.install(&mut vfs);
        let back = SimElf::load_from(&vfs, "/usr/bin/demo").expect("load");
        assert_eq!(back.bytes, img.bytes);
        assert_eq!(back.entry.as_deref(), Some("_start"));
        assert_eq!(back.symbols["_start"], 0);
    }

    /// `decode` inverts `encode` field for field, and rejects every
    /// proper prefix and a trailing byte.
    #[test]
    fn encode_decode_roundtrip() {
        let mut b = ImageBuilder::new("/lib/libround.so");
        b.init("ctor").needs("/usr/lib/libc-sim.so.6").isolated();
        b.asm.label("ctor");
        b.call_import("write");
        b.asm.ret();
        b.hostcall_fn("__host_round");
        b.jump_table("table", &["ctor", "__host_round"]);
        b.data_object("state", &[7; 12]);
        let mut img = b.finish();
        img.bss = 3 * PAGE + 5;
        img.entry = Some("ctor".into());
        let data = img.encode();
        let back = SimElf::decode(&data).expect("decodes");
        assert_eq!(format!("{back:?}"), format!("{img:?}"));
        assert_eq!(back.encode(), data);
        for len in 0..data.len() {
            assert!(
                SimElf::decode(&data[..len]).is_none(),
                "prefix of {len} bytes"
            );
        }
        let mut longer = data.clone();
        longer.push(0);
        assert!(SimElf::decode(&longer).is_none());
    }

    #[test]
    fn data_section_is_page_aligned_after_code() {
        let mut b = ImageBuilder::new("/lib/x.so");
        b.asm.label("f");
        b.asm.ret();
        b.data_object("state", &[1, 2, 3, 4]);
        let img = b.finish();
        assert_eq!(img.data_offset % PAGE, 0);
        assert_eq!(img.symbols["state"], img.data_offset);
        assert_eq!(
            &img.bytes[img.symbols["state"] as usize..img.symbols["state"] as usize + 4],
            &[1, 2, 3, 4]
        );
    }

    #[test]
    fn imports_create_got_slots_in_data() {
        let mut b = ImageBuilder::new("/bin/app");
        b.entry("_start");
        b.asm.label("_start");
        b.call_import("write");
        b.asm.ret();
        let img = b.finish();
        assert_eq!(img.imports.len(), 1);
        let (sym, slot) = &img.imports[0];
        assert_eq!(sym, "write");
        assert!(*slot >= img.data_offset, "GOT lives in the data section");
        assert_eq!(img.symbols[&format!("__got_{sym}")], *slot);
    }

    #[test]
    fn jump_table_records_relocs() {
        let mut b = ImageBuilder::new("/bin/jt");
        b.asm.label("a");
        b.asm.ret();
        b.asm.label("b");
        b.asm.ret();
        b.jump_table("table", &["a", "b"]);
        let img = b.finish();
        let t = img.symbols["table"] as usize;
        assert_eq!(
            u64::from_le_bytes(img.bytes[t..t + 8].try_into().unwrap()),
            img.symbols["a"]
        );
        // Both table entries need rebasing at load.
        assert!(img.abs_relocs.contains(&(t as u64)));
        assert!(img.abs_relocs.contains(&(t as u64 + 8)));
    }

    #[test]
    fn hostcall_fn_emits_int3() {
        let mut b = ImageBuilder::new("/lib/i.so");
        b.hostcall_fn("__host_probe");
        let img = b.finish();
        let at = img.symbols["__host_probe"] as usize;
        assert_eq!(img.bytes[at], 0xcc);
        assert_eq!(img.bytes[at + 1], 0xc3);
        assert_eq!(img.hostcall_syms, vec!["__host_probe"]);
    }
}
