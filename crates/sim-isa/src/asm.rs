//! A small assembler for authoring guest code.
//!
//! [`Asm`] accumulates instructions and raw data, supports forward label
//! references for the relative branch instructions, and produces a
//! [`Program`]: a flat byte image plus a symbol table.
//!
//! ```
//! use sim_isa::{Asm, Reg};
//!
//! let mut a = Asm::new();
//! a.label("loop");
//! a.sub_imm(Reg::Rcx, 1);
//! a.jnz("loop");
//! a.ret();
//! let prog = a.finish_program();
//! assert!(prog.symbols.contains_key("loop"));
//! ```

use crate::inst::{Cond, Inst};
use crate::reg::Reg;
use std::collections::BTreeMap;

/// An assembled code image: bytes plus symbols (offsets relative to image
/// start).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Program {
    /// The raw image.
    pub bytes: Vec<u8>,
    /// Label name → offset within `bytes`.
    pub symbols: BTreeMap<String, u64>,
}

impl Program {
    /// Offset of `name`.
    ///
    /// # Panics
    ///
    /// Panics if the symbol was never defined — callers are assembling code
    /// they themselves authored, so a missing symbol is a programming error.
    pub fn sym(&self, name: &str) -> u64 {
        *self
            .symbols
            .get(name)
            .unwrap_or_else(|| panic!("undefined symbol {name:?}"))
    }
}

#[derive(Debug, Clone, Copy)]
enum FixupKind {
    /// rel32 at `at`, relative to `end_of_inst`.
    Rel32 { at: usize, end_of_inst: usize },
    /// absolute u64 at `at` (for `mov reg, $label` — resolved by the loader
    /// relative to the image base, so stored here as the raw offset).
    Abs64 { at: usize },
}

#[derive(Debug, Clone)]
struct Fixup {
    label: String,
    kind: FixupKind,
}

/// Incremental assembler with labels.
///
/// Every instruction-emitting method appends at the current position. Label
/// references may be forward; they are resolved in [`Asm::finish`].
#[derive(Debug, Default)]
pub struct Asm {
    out: Vec<u8>,
    labels: BTreeMap<String, usize>,
    fixups: Vec<Fixup>,
    /// Offsets of label-absolute fixups that the loader must relocate by the
    /// final image base (collected into [`Program`] consumers via
    /// [`Asm::abs_relocs`]).
    abs_relocs: Vec<usize>,
}

impl Asm {
    /// Creates an empty assembler.
    pub fn new() -> Asm {
        Asm::default()
    }

    /// Current offset (== number of bytes emitted so far).
    pub fn here(&self) -> usize {
        self.out.len()
    }

    /// Defines `name` at the current offset.
    ///
    /// # Panics
    ///
    /// Panics if the label was already defined.
    pub fn label(&mut self, name: &str) -> &mut Self {
        let prev = self.labels.insert(name.to_string(), self.out.len());
        assert!(prev.is_none(), "label {name:?} defined twice");
        self
    }

    /// Emits a raw instruction.
    pub fn inst(&mut self, i: Inst) -> &mut Self {
        i.encode_into(&mut self.out);
        self
    }

    /// Emits raw bytes (embedded data — the stuff of pitfall P3).
    pub fn bytes(&mut self, b: &[u8]) -> &mut Self {
        self.out.extend_from_slice(b);
        self
    }

    /// Emits a little-endian u64 (e.g. a jump-table entry).
    pub fn quad(&mut self, v: u64) -> &mut Self {
        self.out.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Emits `n` one-byte nops.
    pub fn nops(&mut self, n: usize) -> &mut Self {
        self.out.resize(self.out.len() + n, 0x90);
        self
    }

    // ---- plain instructions -------------------------------------------------

    /// `nop`
    pub fn nop(&mut self) -> &mut Self {
        self.inst(Inst::Nop)
    }
    /// `syscall`
    pub fn syscall(&mut self) -> &mut Self {
        self.inst(Inst::Syscall)
    }
    /// `sysenter`
    pub fn sysenter(&mut self) -> &mut Self {
        self.inst(Inst::Sysenter)
    }
    /// `ret`
    pub fn ret(&mut self) -> &mut Self {
        self.inst(Inst::Ret)
    }
    /// `int3`
    pub fn int3(&mut self) -> &mut Self {
        self.inst(Inst::Int3)
    }
    /// `cpuid` (serializing)
    pub fn cpuid(&mut self) -> &mut Self {
        self.inst(Inst::Cpuid)
    }
    /// instruction-stream fence
    pub fn fence(&mut self) -> &mut Self {
        self.inst(Inst::Fence)
    }
    /// vDSO fast clock read into `rax`
    pub fn vsyscall(&mut self) -> &mut Self {
        self.inst(Inst::Vsyscall)
    }
    /// read PKRU into `rax`
    pub fn rdpkru(&mut self) -> &mut Self {
        self.inst(Inst::Rdpkru)
    }
    /// write `rax` to PKRU
    pub fn wrpkru(&mut self) -> &mut Self {
        self.inst(Inst::Wrpkru)
    }
    /// `push %r`
    pub fn push(&mut self, r: Reg) -> &mut Self {
        self.inst(Inst::Push(r))
    }
    /// `pop %r`
    pub fn pop(&mut self, r: Reg) -> &mut Self {
        self.inst(Inst::Pop(r))
    }
    /// `call *%r`
    pub fn call_reg(&mut self, r: Reg) -> &mut Self {
        self.inst(Inst::CallReg(r))
    }
    /// `jmp *%r`
    pub fn jmp_reg(&mut self, r: Reg) -> &mut Self {
        self.inst(Inst::JmpReg(r))
    }
    /// `mov $imm, %r`
    pub fn mov_imm(&mut self, r: Reg, imm: u64) -> &mut Self {
        self.inst(Inst::MovImm(r, imm))
    }
    /// `mov %src, %dst`
    pub fn mov_reg(&mut self, dst: Reg, src: Reg) -> &mut Self {
        self.inst(Inst::MovReg(dst, src))
    }
    /// `mov disp(%base), %dst`
    pub fn load(&mut self, dst: Reg, base: Reg, disp: i32) -> &mut Self {
        self.inst(Inst::Load(dst, base, disp))
    }
    /// `mov %src, disp(%base)`
    pub fn store(&mut self, base: Reg, disp: i32, src: Reg) -> &mut Self {
        self.inst(Inst::Store(base, disp, src))
    }
    /// byte load, zero-extended
    pub fn load_byte(&mut self, dst: Reg, base: Reg, disp: i32) -> &mut Self {
        self.inst(Inst::LoadByte(dst, base, disp))
    }
    /// byte store
    pub fn store_byte(&mut self, base: Reg, disp: i32, src: Reg) -> &mut Self {
        self.inst(Inst::StoreByte(base, disp, src))
    }
    /// `add %src, %dst`
    pub fn add_reg(&mut self, dst: Reg, src: Reg) -> &mut Self {
        self.inst(Inst::AddReg(dst, src))
    }
    /// `sub %src, %dst`
    pub fn sub_reg(&mut self, dst: Reg, src: Reg) -> &mut Self {
        self.inst(Inst::SubReg(dst, src))
    }
    /// `xor %src, %dst`
    pub fn xor_reg(&mut self, dst: Reg, src: Reg) -> &mut Self {
        self.inst(Inst::XorReg(dst, src))
    }
    /// `cmp %src, %dst`
    pub fn cmp_reg(&mut self, dst: Reg, src: Reg) -> &mut Self {
        self.inst(Inst::CmpReg(dst, src))
    }
    /// `test %src, %dst`
    pub fn test_reg(&mut self, dst: Reg, src: Reg) -> &mut Self {
        self.inst(Inst::TestReg(dst, src))
    }
    /// `imul %src, %dst`
    pub fn imul_reg(&mut self, dst: Reg, src: Reg) -> &mut Self {
        self.inst(Inst::ImulReg(dst, src))
    }
    /// `add $imm, %r`
    pub fn add_imm(&mut self, r: Reg, imm: i32) -> &mut Self {
        self.inst(Inst::AddImm(r, imm))
    }
    /// `sub $imm, %r`
    pub fn sub_imm(&mut self, r: Reg, imm: i32) -> &mut Self {
        self.inst(Inst::SubImm(r, imm))
    }
    /// `and $imm, %r`
    pub fn and_imm(&mut self, r: Reg, imm: i32) -> &mut Self {
        self.inst(Inst::AndImm(r, imm))
    }
    /// `cmp $imm, %r`
    pub fn cmp_imm(&mut self, r: Reg, imm: i32) -> &mut Self {
        self.inst(Inst::CmpImm(r, imm))
    }
    /// `shl $imm, %r`
    pub fn shl_imm(&mut self, r: Reg, imm: u8) -> &mut Self {
        self.inst(Inst::ShlImm(r, imm))
    }
    /// `shr $imm, %r`
    pub fn shr_imm(&mut self, r: Reg, imm: u8) -> &mut Self {
        self.inst(Inst::ShrImm(r, imm))
    }
    /// `bt %idx, (%base)` — CF = bit `idx` of the bit string at `base`
    pub fn bt_mem(&mut self, base: Reg, idx: Reg) -> &mut Self {
        self.inst(Inst::BtMem(base, idx))
    }

    // ---- label-relative instructions ---------------------------------------

    fn branch(&mut self, opcode_len: usize, total_len: usize, label: &str) {
        let at = self.out.len() + opcode_len;
        let end = self.out.len() + total_len;
        self.fixups.push(Fixup {
            label: label.to_string(),
            kind: FixupKind::Rel32 {
                at,
                end_of_inst: end,
            },
        });
    }

    /// `jmp label`
    pub fn jmp(&mut self, label: &str) -> &mut Self {
        self.branch(1, 5, label);
        self.inst(Inst::Jmp(0))
    }

    /// `call label`
    pub fn call(&mut self, label: &str) -> &mut Self {
        self.branch(1, 5, label);
        self.inst(Inst::Call(0))
    }

    /// `jCC label`
    pub fn jcc(&mut self, cond: Cond, label: &str) -> &mut Self {
        self.branch(2, 6, label);
        self.inst(Inst::Jcc(cond, 0))
    }

    /// `je label`
    pub fn jz(&mut self, label: &str) -> &mut Self {
        self.jcc(Cond::E, label)
    }
    /// `jne label`
    pub fn jnz(&mut self, label: &str) -> &mut Self {
        self.jcc(Cond::Ne, label)
    }
    /// `jl label`
    pub fn jl(&mut self, label: &str) -> &mut Self {
        self.jcc(Cond::L, label)
    }
    /// `jge label`
    pub fn jge(&mut self, label: &str) -> &mut Self {
        self.jcc(Cond::Ge, label)
    }

    /// `lea label(%rip), %dst` — loads the absolute address of `label`
    /// (position-independent; works wherever the image is mapped).
    pub fn lea_label(&mut self, dst: Reg, label: &str) -> &mut Self {
        let at = self.out.len() + 3;
        let end = self.out.len() + 7;
        self.fixups.push(Fixup {
            label: label.to_string(),
            kind: FixupKind::Rel32 {
                at,
                end_of_inst: end,
            },
        });
        self.inst(Inst::Lea(dst, 0))
    }

    /// `mov $label, %dst` — loads the *image-relative offset* of `label` as a
    /// 64-bit immediate. The loader rebases these via [`Asm::abs_relocs`].
    pub fn mov_label(&mut self, dst: Reg, label: &str) -> &mut Self {
        let at = self.out.len() + 2;
        self.fixups.push(Fixup {
            label: label.to_string(),
            kind: FixupKind::Abs64 { at },
        });
        self.abs_relocs.push(at);
        self.inst(Inst::MovImm(dst, 0))
    }

    /// Emits a u64 data slot holding the offset of `label` (a jump-table
    /// entry); recorded as an absolute relocation.
    pub fn quad_label(&mut self, label: &str) -> &mut Self {
        let at = self.out.len();
        self.fixups.push(Fixup {
            label: label.to_string(),
            kind: FixupKind::Abs64 { at },
        });
        self.abs_relocs.push(at);
        self.quad(0)
    }

    /// Offsets within the image containing image-relative u64s that the
    /// loader must add the load base to.
    pub fn abs_relocs(&self) -> &[usize] {
        &self.abs_relocs
    }

    /// Resolves fixups and returns the raw bytes.
    ///
    /// # Panics
    ///
    /// Panics on undefined labels or branch displacements that do not fit in
    /// 32 bits.
    pub fn finish(mut self) -> Vec<u8> {
        self.resolve();
        self.out
    }

    /// Resolves fixups and returns bytes + symbol table + relocations.
    pub fn finish_program(mut self) -> Program {
        self.resolve();
        Program {
            bytes: self.out,
            symbols: self
                .labels
                .into_iter()
                .map(|(k, v)| (k, v as u64))
                .collect(),
        }
    }

    /// Like [`Asm::finish_program`] but also returns the absolute-relocation
    /// offsets (needed when the image is not loaded at address 0).
    pub fn finish_with_relocs(mut self) -> (Program, Vec<usize>) {
        self.resolve();
        let relocs = std::mem::take(&mut self.abs_relocs);
        (
            Program {
                bytes: self.out,
                symbols: self
                    .labels
                    .into_iter()
                    .map(|(k, v)| (k, v as u64))
                    .collect(),
            },
            relocs,
        )
    }

    fn resolve(&mut self) {
        for fixup in &self.fixups {
            let target = *self
                .labels
                .get(&fixup.label)
                .unwrap_or_else(|| panic!("undefined label {:?}", fixup.label));
            match fixup.kind {
                FixupKind::Rel32 { at, end_of_inst } => {
                    let rel = target as i64 - end_of_inst as i64;
                    let rel32 = i32::try_from(rel).expect("branch displacement overflows rel32");
                    self.out[at..at + 4].copy_from_slice(&rel32.to_le_bytes());
                }
                FixupKind::Abs64 { at } => {
                    self.out[at..at + 8].copy_from_slice(&(target as u64).to_le_bytes());
                }
            }
        }
        self.fixups.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::decode;

    #[test]
    fn forward_and_backward_branches_resolve() {
        let mut a = Asm::new();
        a.label("start");
        a.jmp("end"); // forward
        a.label("mid");
        a.nop();
        a.jmp("start"); // backward
        a.label("end");
        a.ret();
        let bytes = a.finish();

        // jmp end: at offset 0, next inst at 5, end at 11 => rel = 6
        let (inst, _) = decode(&bytes).unwrap();
        assert_eq!(inst, crate::Inst::Jmp(6));
        // jmp start: at offset 6, ends at 11, start=0 => rel = -11
        let (inst, _) = decode(&bytes[6..]).unwrap();
        assert_eq!(inst, crate::Inst::Jmp(-11));
    }

    #[test]
    fn conditional_branch_targets() {
        let mut a = Asm::new();
        a.label("loop");
        a.sub_imm(Reg::Rcx, 1); // 7 bytes
        a.jnz("loop"); // 6 bytes, rel = -(7+6) = -13
        let bytes = a.finish();
        let (inst, _) = decode(&bytes[7..]).unwrap();
        assert_eq!(inst, crate::Inst::Jcc(Cond::Ne, -13));
    }

    #[test]
    fn lea_label_is_rip_relative() {
        let mut a = Asm::new();
        a.lea_label(Reg::Rdi, "data"); // 7 bytes, next rip = 7
        a.ret();
        a.label("data");
        a.quad(42);
        let bytes = a.finish();
        let (inst, _) = decode(&bytes).unwrap();
        assert_eq!(inst, crate::Inst::Lea(Reg::Rdi, 1)); // data at 8, 8-7=1
    }

    #[test]
    fn mov_label_records_reloc() {
        let mut a = Asm::new();
        a.mov_label(Reg::Rax, "tbl");
        a.label("tbl");
        a.quad_label("tbl");
        let (prog, relocs) = a.finish_with_relocs();
        assert_eq!(relocs, vec![2, 10]);
        assert_eq!(prog.sym("tbl"), 10);
        // mov immediate holds the offset of tbl
        assert_eq!(&prog.bytes[2..10], &10u64.to_le_bytes());
    }

    #[test]
    #[should_panic(expected = "undefined label")]
    fn undefined_label_panics() {
        let mut a = Asm::new();
        a.jmp("nowhere");
        let _ = a.finish();
    }

    #[test]
    #[should_panic(expected = "defined twice")]
    fn duplicate_label_panics() {
        let mut a = Asm::new();
        a.label("x");
        a.label("x");
    }

    #[test]
    fn nops_emit_sled() {
        let mut a = Asm::new();
        a.nops(512);
        let bytes = a.finish();
        assert_eq!(bytes.len(), 512);
        assert!(bytes.iter().all(|&b| b == 0x90));
    }
}
