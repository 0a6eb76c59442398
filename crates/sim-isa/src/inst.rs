//! Instruction definitions, encoding, and decoding.
//!
//! The encoding follows x86-64 closely enough that the paper's pitfalls are
//! structural properties of this ISA too:
//!
//! * `SYSCALL` = `0f 05`, `SYSENTER` = `0f 34`, `callq *%rax` = `ff d0` — all
//!   two bytes, enabling in-place rewriting.
//! * `mov r, imm64` is ten bytes with an arbitrary 8-byte immediate, so the
//!   bytes `0f 05` can legitimately appear *inside* an instruction.
//! * A REX-style prefix (`0x48..=0x4d`, `0x41`) extends register fields, so a
//!   linear sweep that starts at the wrong byte cheerfully mis-decodes.

use crate::reg::Reg;
use std::fmt;

/// Condition codes for [`Inst::Jcc`], numbered as the low nibble of the
/// x86-64 `0f 8x` long-form conditional jump opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Cond {
    /// Below (unsigned `<`), CF=1.
    B = 0x2,
    /// Above or equal (unsigned `>=`), CF=0.
    Ae = 0x3,
    /// Equal / zero.
    E = 0x4,
    /// Not equal / not zero.
    Ne = 0x5,
    /// Below or equal (unsigned `<=`).
    Be = 0x6,
    /// Above (unsigned `>`).
    A = 0x7,
    /// Sign (negative).
    S = 0x8,
    /// Not sign.
    Ns = 0x9,
    /// Less (signed `<`).
    L = 0xc,
    /// Greater or equal (signed `>=`).
    Ge = 0xd,
    /// Less or equal (signed `<=`).
    Le = 0xe,
    /// Greater (signed `>`).
    G = 0xf,
}

impl Cond {
    /// All condition codes.
    pub const ALL: [Cond; 12] = [
        Cond::B,
        Cond::Ae,
        Cond::E,
        Cond::Ne,
        Cond::Be,
        Cond::A,
        Cond::S,
        Cond::Ns,
        Cond::L,
        Cond::Ge,
        Cond::Le,
        Cond::G,
    ];

    fn from_nibble(n: u8) -> Option<Cond> {
        Self::ALL.iter().copied().find(|c| *c as u8 == n)
    }
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Cond::B => "b",
            Cond::Ae => "ae",
            Cond::E => "e",
            Cond::Ne => "ne",
            Cond::Be => "be",
            Cond::A => "a",
            Cond::S => "s",
            Cond::Ns => "ns",
            Cond::L => "l",
            Cond::Ge => "ge",
            Cond::Le => "le",
            Cond::G => "g",
        };
        f.write_str(s)
    }
}

/// A decoded guest instruction.
///
/// Memory operands are always `[base + disp32]`; RIP-relative addressing is
/// available through [`Inst::Lea`]. All ALU operations are 64-bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Inst {
    /// `90` — one-byte no-op (the zpoline trampoline sled material).
    Nop,
    /// `0f 05` — enter the kernel; syscall number in `rax`.
    Syscall,
    /// `0f 34` — legacy syscall entry; treated identically to `Syscall`.
    Sysenter,
    /// `c3` — pop return address and jump to it.
    Ret,
    /// `f4` — halt: terminates the thread with a fault unless the kernel
    /// installed a meaning for it (used only in bare-metal style tests).
    Hlt,
    /// `cc` — breakpoint trap.
    Int3,
    /// `0f a2` — serializing instruction; flushes this core's decoded
    /// instruction cache (like a real `cpuid` fence in self-modifying code).
    Cpuid,
    /// `0f ae f0` — memory + instruction-stream fence; flushes this core's
    /// decoded instruction cache.
    Fence,
    /// `0f 01 f9` — vDSO fast path: loads the current clock into `rax`
    /// without entering the kernel (models a vDSO `clock_gettime`).
    Vsyscall,
    /// `0f 01 ee` — read the PKU rights register into `rax`.
    Rdpkru,
    /// `0f 01 ef` — write `rax` into the PKU rights register.
    Wrpkru,
    /// `(41) ff d0+r` — indirect call through a register; pushes the return
    /// address. `callq *%rax` (`ff d0`) is the zpoline rewrite target.
    CallReg(Reg),
    /// `(41) ff e0+r` — indirect jump through a register.
    JmpReg(Reg),
    /// `(41) 50+r` — push register.
    Push(Reg),
    /// `(41) 58+r` — pop register.
    Pop(Reg),
    /// `48/49 b8+r imm64` — load a 64-bit immediate. The immediate may
    /// contain any bytes, including `0f 05`.
    MovImm(Reg, u64),
    /// `rex 89 /r (mod=11)` — `dst = src`.
    MovReg(Reg, Reg),
    /// `rex 8b /r (mod=10) disp32` — `dst = *(u64*)(base + disp)`.
    Load(Reg, Reg, i32),
    /// `rex 89 /r (mod=10) disp32` — `*(u64*)(base + disp) = src`
    /// (operands: base, disp, src).
    Store(Reg, i32, Reg),
    /// `rex 8a /r (mod=10) disp32` — `dst = *(u8*)(base + disp)` zero-extended.
    LoadByte(Reg, Reg, i32),
    /// `rex 88 /r (mod=10) disp32` — `*(u8*)(base + disp) = src as u8`
    /// (operands: base, disp, src).
    StoreByte(Reg, i32, Reg),
    /// `rex 8d /r (mod=00, rm=101) disp32` — `dst = rip_of_next_inst + disp`.
    Lea(Reg, i32),
    /// `rex 01 /r` — `dst += src`.
    AddReg(Reg, Reg),
    /// `rex 29 /r` — `dst -= src`.
    SubReg(Reg, Reg),
    /// `rex 21 /r` — `dst &= src`.
    AndReg(Reg, Reg),
    /// `rex 09 /r` — `dst |= src`.
    OrReg(Reg, Reg),
    /// `rex 31 /r` — `dst ^= src`.
    XorReg(Reg, Reg),
    /// `rex 39 /r` — set flags from `dst - src`.
    CmpReg(Reg, Reg),
    /// `rex 85 /r` — set flags from `dst & src`.
    TestReg(Reg, Reg),
    /// `rex 0f af /r` — `dst *= src` (wrapping).
    ImulReg(Reg, Reg),
    /// `rex 81 /0 imm32` — `dst += sext(imm)`.
    AddImm(Reg, i32),
    /// `rex 81 /5 imm32` — `dst -= sext(imm)`.
    SubImm(Reg, i32),
    /// `rex 81 /4 imm32` — `dst &= sext(imm)`.
    AndImm(Reg, i32),
    /// `rex 81 /1 imm32` — `dst |= sext(imm)`.
    OrImm(Reg, i32),
    /// `rex 81 /6 imm32` — `dst ^= sext(imm)`.
    XorImm(Reg, i32),
    /// `rex 81 /7 imm32` — set flags from `dst - sext(imm)`.
    CmpImm(Reg, i32),
    /// `rex c1 /4 imm8` — `dst <<= imm`.
    ShlImm(Reg, u8),
    /// `rex c1 /5 imm8` — `dst >>= imm` (logical).
    ShrImm(Reg, u8),
    /// `rex d3 /4` — `dst <<= (rcx & 63)` (count in `cl`, as on x86).
    ShlCl(Reg),
    /// `rex d3 /5` — `dst >>= (rcx & 63)` (logical; count in `cl`).
    ShrCl(Reg),
    /// `rex 0f a3 /r (mod=00)` — bit test: `CF = bit idx of the byte string
    /// at [base]` (operands: base, idx). The one-instruction bitmap probe
    /// zpoline's NULL-execution check uses.
    BtMem(Reg, Reg),
    /// `e9 rel32` — relative jump (target = next rip + rel).
    Jmp(i32),
    /// `e8 rel32` — relative call; pushes return address.
    Call(i32),
    /// `0f 8x rel32` — conditional relative jump.
    Jcc(Cond, i32),
}

/// Why a byte sequence failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// First byte (or mandatory second byte) is not a known opcode.
    BadOpcode { offset: usize, byte: u8 },
    /// The buffer ends in the middle of an instruction.
    Truncated { needed: usize, have: usize },
    /// A mod/rm combination this ISA does not define.
    BadModRm { offset: usize, byte: u8 },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadOpcode { offset, byte } => {
                write!(f, "invalid opcode byte {byte:#04x} at offset {offset}")
            }
            DecodeError::Truncated { needed, have } => {
                write!(f, "truncated instruction: need {needed} bytes, have {have}")
            }
            DecodeError::BadModRm { offset, byte } => {
                write!(f, "invalid mod/rm byte {byte:#04x} at offset {offset}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

const fn modrm(mode: u8, reg: u8, rm: u8) -> u8 {
    (mode << 6) | ((reg & 7) << 3) | (rm & 7)
}

/// REX-like prefix: W always set; `r` extends the modrm `reg` field and `b`
/// extends the `rm` field, exactly like x86-64 REX.R / REX.B.
const fn rex(r: Reg, b: Reg) -> u8 {
    0x48 | (((r as u8) >> 3) << 2) | ((b as u8) >> 3)
}

impl Inst {
    /// Appends the encoding of `self` to `out`. Returns the encoded length.
    pub fn encode_into(&self, out: &mut Vec<u8>) -> usize {
        let start = out.len();
        match *self {
            Inst::Nop => out.push(0x90),
            Inst::Syscall => out.extend_from_slice(&[0x0f, 0x05]),
            Inst::Sysenter => out.extend_from_slice(&[0x0f, 0x34]),
            Inst::Ret => out.push(0xc3),
            Inst::Hlt => out.push(0xf4),
            Inst::Int3 => out.push(0xcc),
            Inst::Cpuid => out.extend_from_slice(&[0x0f, 0xa2]),
            Inst::Fence => out.extend_from_slice(&[0x0f, 0xae, 0xf0]),
            Inst::Vsyscall => out.extend_from_slice(&[0x0f, 0x01, 0xf9]),
            Inst::Rdpkru => out.extend_from_slice(&[0x0f, 0x01, 0xee]),
            Inst::Wrpkru => out.extend_from_slice(&[0x0f, 0x01, 0xef]),
            Inst::CallReg(r) => {
                if (r as u8) >= 8 {
                    out.push(0x41);
                }
                out.extend_from_slice(&[0xff, 0xd0 + ((r as u8) & 7)]);
            }
            Inst::JmpReg(r) => {
                if (r as u8) >= 8 {
                    out.push(0x41);
                }
                out.extend_from_slice(&[0xff, 0xe0 + ((r as u8) & 7)]);
            }
            Inst::Push(r) => {
                if (r as u8) >= 8 {
                    out.push(0x41);
                }
                out.push(0x50 + ((r as u8) & 7));
            }
            Inst::Pop(r) => {
                if (r as u8) >= 8 {
                    out.push(0x41);
                }
                out.push(0x58 + ((r as u8) & 7));
            }
            Inst::MovImm(r, imm) => {
                out.push(if (r as u8) >= 8 { 0x49 } else { 0x48 });
                out.push(0xb8 + ((r as u8) & 7));
                out.extend_from_slice(&imm.to_le_bytes());
            }
            Inst::MovReg(dst, src) => {
                out.extend_from_slice(&[rex(src, dst), 0x89, modrm(0b11, src as u8, dst as u8)]);
            }
            Inst::Load(dst, base, disp) => {
                out.extend_from_slice(&[rex(dst, base), 0x8b, modrm(0b10, dst as u8, base as u8)]);
                out.extend_from_slice(&disp.to_le_bytes());
            }
            Inst::Store(base, disp, src) => {
                out.extend_from_slice(&[rex(src, base), 0x89, modrm(0b10, src as u8, base as u8)]);
                out.extend_from_slice(&disp.to_le_bytes());
            }
            Inst::LoadByte(dst, base, disp) => {
                out.extend_from_slice(&[rex(dst, base), 0x8a, modrm(0b10, dst as u8, base as u8)]);
                out.extend_from_slice(&disp.to_le_bytes());
            }
            Inst::StoreByte(base, disp, src) => {
                out.extend_from_slice(&[rex(src, base), 0x88, modrm(0b10, src as u8, base as u8)]);
                out.extend_from_slice(&disp.to_le_bytes());
            }
            Inst::Lea(dst, disp) => {
                out.extend_from_slice(&[rex(dst, Reg::Rax), 0x8d, modrm(0b00, dst as u8, 0b101)]);
                out.extend_from_slice(&disp.to_le_bytes());
            }
            Inst::AddReg(dst, src) => encode_alu_reg(out, 0x01, dst, src),
            Inst::SubReg(dst, src) => encode_alu_reg(out, 0x29, dst, src),
            Inst::AndReg(dst, src) => encode_alu_reg(out, 0x21, dst, src),
            Inst::OrReg(dst, src) => encode_alu_reg(out, 0x09, dst, src),
            Inst::XorReg(dst, src) => encode_alu_reg(out, 0x31, dst, src),
            Inst::CmpReg(dst, src) => encode_alu_reg(out, 0x39, dst, src),
            Inst::TestReg(dst, src) => encode_alu_reg(out, 0x85, dst, src),
            Inst::ImulReg(dst, src) => {
                // Note the operand order: imul dst, src has dst in the reg field.
                out.extend_from_slice(&[
                    rex(dst, src),
                    0x0f,
                    0xaf,
                    modrm(0b11, dst as u8, src as u8),
                ]);
            }
            Inst::AddImm(r, imm) => encode_alu_imm(out, 0, r, imm),
            Inst::OrImm(r, imm) => encode_alu_imm(out, 1, r, imm),
            Inst::AndImm(r, imm) => encode_alu_imm(out, 4, r, imm),
            Inst::SubImm(r, imm) => encode_alu_imm(out, 5, r, imm),
            Inst::XorImm(r, imm) => encode_alu_imm(out, 6, r, imm),
            Inst::CmpImm(r, imm) => encode_alu_imm(out, 7, r, imm),
            Inst::ShlImm(r, imm) => {
                out.extend_from_slice(&[rex(Reg::Rax, r), 0xc1, modrm(0b11, 4, r as u8), imm]);
            }
            Inst::ShrImm(r, imm) => {
                out.extend_from_slice(&[rex(Reg::Rax, r), 0xc1, modrm(0b11, 5, r as u8), imm]);
            }
            Inst::ShlCl(r) => {
                out.extend_from_slice(&[rex(Reg::Rax, r), 0xd3, modrm(0b11, 4, r as u8)]);
            }
            Inst::ShrCl(r) => {
                out.extend_from_slice(&[rex(Reg::Rax, r), 0xd3, modrm(0b11, 5, r as u8)]);
            }
            Inst::BtMem(base, idx) => {
                out.extend_from_slice(&[
                    rex(idx, base),
                    0x0f,
                    0xa3,
                    modrm(0b00, idx as u8, base as u8),
                ]);
            }
            Inst::Jmp(rel) => {
                out.push(0xe9);
                out.extend_from_slice(&rel.to_le_bytes());
            }
            Inst::Call(rel) => {
                out.push(0xe8);
                out.extend_from_slice(&rel.to_le_bytes());
            }
            Inst::Jcc(cond, rel) => {
                out.extend_from_slice(&[0x0f, 0x80 + cond as u8]);
                out.extend_from_slice(&rel.to_le_bytes());
            }
        }
        out.len() - start
    }

    /// Encodes `self` into a fresh byte vector.
    pub fn encode(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(10);
        self.encode_into(&mut v);
        v
    }

    /// Encoded length in bytes.
    #[allow(clippy::len_without_is_empty)] // an instruction is never empty
    pub fn len(&self) -> usize {
        // Cheap enough to compute by encoding; instruction lengths are <= 10.
        self.encode().len()
    }
}

fn encode_alu_reg(out: &mut Vec<u8>, opcode: u8, dst: Reg, src: Reg) {
    out.extend_from_slice(&[rex(src, dst), opcode, modrm(0b11, src as u8, dst as u8)]);
}

fn encode_alu_imm(out: &mut Vec<u8>, ext: u8, r: Reg, imm: i32) {
    out.extend_from_slice(&[rex(Reg::Rax, r), 0x81, modrm(0b11, ext, r as u8)]);
    out.extend_from_slice(&imm.to_le_bytes());
}

fn need(bytes: &[u8], n: usize) -> Result<(), DecodeError> {
    if bytes.len() < n {
        Err(DecodeError::Truncated {
            needed: n,
            have: bytes.len(),
        })
    } else {
        Ok(())
    }
}

fn read_i32(bytes: &[u8], at: usize) -> Result<i32, DecodeError> {
    need(bytes, at + 4)?;
    Ok(i32::from_le_bytes([
        bytes[at],
        bytes[at + 1],
        bytes[at + 2],
        bytes[at + 3],
    ]))
}

/// Decodes one instruction from the start of `bytes`.
///
/// Returns the instruction and its encoded length.
///
/// # Errors
///
/// Returns [`DecodeError`] if the bytes do not begin a valid instruction or
/// the buffer is too short. Note that *any* byte stream position yields some
/// answer — valid or error — which is exactly why linear-sweep disassembly of
/// variable-length code is unreliable (paper §4.3).
pub fn decode(bytes: &[u8]) -> Result<(Inst, usize), DecodeError> {
    need(bytes, 1)?;
    let b0 = bytes[0];
    match b0 {
        0x90 => Ok((Inst::Nop, 1)),
        0xc3 => Ok((Inst::Ret, 1)),
        0xf4 => Ok((Inst::Hlt, 1)),
        0xcc => Ok((Inst::Int3, 1)),
        0x50..=0x57 => Ok((Inst::Push(Reg::from_index(b0 - 0x50).unwrap()), 1)),
        0x58..=0x5f => Ok((Inst::Pop(Reg::from_index(b0 - 0x58).unwrap()), 1)),
        0xe8 => Ok((Inst::Call(read_i32(bytes, 1)?), 5)),
        0xe9 => Ok((Inst::Jmp(read_i32(bytes, 1)?), 5)),
        0xff => {
            need(bytes, 2)?;
            match bytes[1] {
                b @ 0xd0..=0xd7 => Ok((Inst::CallReg(Reg::from_index(b - 0xd0).unwrap()), 2)),
                b @ 0xe0..=0xe7 => Ok((Inst::JmpReg(Reg::from_index(b - 0xe0).unwrap()), 2)),
                b => Err(DecodeError::BadModRm { offset: 1, byte: b }),
            }
        }
        0x41 => {
            need(bytes, 2)?;
            match bytes[1] {
                b @ 0x50..=0x57 => Ok((Inst::Push(Reg::from_index(8 + b - 0x50).unwrap()), 2)),
                b @ 0x58..=0x5f => Ok((Inst::Pop(Reg::from_index(8 + b - 0x58).unwrap()), 2)),
                0xff => {
                    need(bytes, 3)?;
                    match bytes[2] {
                        b @ 0xd0..=0xd7 => {
                            Ok((Inst::CallReg(Reg::from_index(8 + b - 0xd0).unwrap()), 3))
                        }
                        b @ 0xe0..=0xe7 => {
                            Ok((Inst::JmpReg(Reg::from_index(8 + b - 0xe0).unwrap()), 3))
                        }
                        b => Err(DecodeError::BadModRm { offset: 2, byte: b }),
                    }
                }
                b => Err(DecodeError::BadOpcode { offset: 1, byte: b }),
            }
        }
        0x0f => {
            need(bytes, 2)?;
            match bytes[1] {
                0x05 => Ok((Inst::Syscall, 2)),
                0x34 => Ok((Inst::Sysenter, 2)),
                0xa2 => Ok((Inst::Cpuid, 2)),
                0xae => {
                    need(bytes, 3)?;
                    if bytes[2] == 0xf0 {
                        Ok((Inst::Fence, 3))
                    } else {
                        Err(DecodeError::BadModRm {
                            offset: 2,
                            byte: bytes[2],
                        })
                    }
                }
                0x01 => {
                    need(bytes, 3)?;
                    match bytes[2] {
                        0xf9 => Ok((Inst::Vsyscall, 3)),
                        0xee => Ok((Inst::Rdpkru, 3)),
                        0xef => Ok((Inst::Wrpkru, 3)),
                        b => Err(DecodeError::BadModRm { offset: 2, byte: b }),
                    }
                }
                b @ 0x80..=0x8f => match Cond::from_nibble(b - 0x80) {
                    Some(cond) => Ok((Inst::Jcc(cond, read_i32(bytes, 2)?), 6)),
                    None => Err(DecodeError::BadOpcode { offset: 1, byte: b }),
                },
                b => Err(DecodeError::BadOpcode { offset: 1, byte: b }),
            }
        }
        0x48..=0x4f if b0 & 0x02 == 0 => decode_rex(bytes, b0),
        b => Err(DecodeError::BadOpcode { offset: 0, byte: b }),
    }
}

fn decode_rex(bytes: &[u8], prefix: u8) -> Result<(Inst, usize), DecodeError> {
    need(bytes, 2)?;
    let ext_r = (prefix >> 2) & 1; // extends modrm.reg
    let ext_b = prefix & 1; // extends modrm.rm / opcode reg
    let op = bytes[1];

    let split = |mrm: u8| -> (u8, Reg, Reg) {
        let mode = mrm >> 6;
        let r = Reg::from_index(((mrm >> 3) & 7) + 8 * ext_r).unwrap();
        let rm = Reg::from_index((mrm & 7) + 8 * ext_b).unwrap();
        (mode, r, rm)
    };

    match op {
        b @ 0xb8..=0xbf => {
            need(bytes, 10)?;
            let r = Reg::from_index((b - 0xb8) + 8 * ext_b).unwrap();
            let mut imm = [0u8; 8];
            imm.copy_from_slice(&bytes[2..10]);
            Ok((Inst::MovImm(r, u64::from_le_bytes(imm)), 10))
        }
        0x88..=0x8b => {
            need(bytes, 3)?;
            let (mode, r, rm) = split(bytes[2]);
            match (op, mode) {
                (0x89, 0b11) => Ok((Inst::MovReg(rm, r), 3)),
                (0x89, 0b10) => Ok((Inst::Store(rm, read_i32(bytes, 3)?, r), 7)),
                (0x8b, 0b10) => Ok((Inst::Load(r, rm, read_i32(bytes, 3)?), 7)),
                (0x88, 0b10) => Ok((Inst::StoreByte(rm, read_i32(bytes, 3)?, r), 7)),
                (0x8a, 0b10) => Ok((Inst::LoadByte(r, rm, read_i32(bytes, 3)?), 7)),
                _ => Err(DecodeError::BadModRm {
                    offset: 2,
                    byte: bytes[2],
                }),
            }
        }
        0x8d => {
            need(bytes, 3)?;
            let (mode, r, _) = split(bytes[2]);
            if mode == 0b00 && bytes[2] & 7 == 0b101 {
                Ok((Inst::Lea(r, read_i32(bytes, 3)?), 7))
            } else {
                Err(DecodeError::BadModRm {
                    offset: 2,
                    byte: bytes[2],
                })
            }
        }
        0x01 | 0x29 | 0x21 | 0x09 | 0x31 | 0x39 | 0x85 => {
            need(bytes, 3)?;
            let (mode, r, rm) = split(bytes[2]);
            if mode != 0b11 {
                return Err(DecodeError::BadModRm {
                    offset: 2,
                    byte: bytes[2],
                });
            }
            let inst = match op {
                0x01 => Inst::AddReg(rm, r),
                0x29 => Inst::SubReg(rm, r),
                0x21 => Inst::AndReg(rm, r),
                0x09 => Inst::OrReg(rm, r),
                0x31 => Inst::XorReg(rm, r),
                0x39 => Inst::CmpReg(rm, r),
                0x85 => Inst::TestReg(rm, r),
                _ => unreachable!(),
            };
            Ok((inst, 3))
        }
        0x0f => {
            need(bytes, 4)?;
            let (mode, r, rm) = split(bytes[3]);
            match bytes[2] {
                0xaf if mode == 0b11 => Ok((Inst::ImulReg(r, rm), 4)),
                0xa3 if mode == 0b00 => Ok((Inst::BtMem(rm, r), 4)),
                0xaf | 0xa3 => Err(DecodeError::BadModRm {
                    offset: 3,
                    byte: bytes[3],
                }),
                b => Err(DecodeError::BadOpcode { offset: 2, byte: b }),
            }
        }
        0x81 => {
            need(bytes, 3)?;
            let mrm = bytes[2];
            let mode = mrm >> 6;
            let ext = (mrm >> 3) & 7;
            let rm = Reg::from_index((mrm & 7) + 8 * ext_b).unwrap();
            if mode != 0b11 {
                return Err(DecodeError::BadModRm {
                    offset: 2,
                    byte: mrm,
                });
            }
            let imm = read_i32(bytes, 3)?;
            let inst = match ext {
                0 => Inst::AddImm(rm, imm),
                1 => Inst::OrImm(rm, imm),
                4 => Inst::AndImm(rm, imm),
                5 => Inst::SubImm(rm, imm),
                6 => Inst::XorImm(rm, imm),
                7 => Inst::CmpImm(rm, imm),
                _ => {
                    return Err(DecodeError::BadModRm {
                        offset: 2,
                        byte: mrm,
                    })
                }
            };
            Ok((inst, 7))
        }
        0xc1 => {
            need(bytes, 4)?;
            let mrm = bytes[2];
            let mode = mrm >> 6;
            let ext = (mrm >> 3) & 7;
            let rm = Reg::from_index((mrm & 7) + 8 * ext_b).unwrap();
            if mode != 0b11 {
                return Err(DecodeError::BadModRm {
                    offset: 2,
                    byte: mrm,
                });
            }
            match ext {
                4 => Ok((Inst::ShlImm(rm, bytes[3]), 4)),
                5 => Ok((Inst::ShrImm(rm, bytes[3]), 4)),
                _ => Err(DecodeError::BadModRm {
                    offset: 2,
                    byte: mrm,
                }),
            }
        }
        0xd3 => {
            need(bytes, 3)?;
            let mrm = bytes[2];
            let mode = mrm >> 6;
            let ext = (mrm >> 3) & 7;
            let rm = Reg::from_index((mrm & 7) + 8 * ext_b).unwrap();
            if mode != 0b11 {
                return Err(DecodeError::BadModRm {
                    offset: 2,
                    byte: mrm,
                });
            }
            match ext {
                4 => Ok((Inst::ShlCl(rm), 3)),
                5 => Ok((Inst::ShrCl(rm), 3)),
                _ => Err(DecodeError::BadModRm {
                    offset: 2,
                    byte: mrm,
                }),
            }
        }
        b => Err(DecodeError::BadOpcode { offset: 1, byte: b }),
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Inst::Nop => write!(f, "nop"),
            Inst::Syscall => write!(f, "syscall"),
            Inst::Sysenter => write!(f, "sysenter"),
            Inst::Ret => write!(f, "ret"),
            Inst::Hlt => write!(f, "hlt"),
            Inst::Int3 => write!(f, "int3"),
            Inst::Cpuid => write!(f, "cpuid"),
            Inst::Fence => write!(f, "fence"),
            Inst::Vsyscall => write!(f, "vsyscall"),
            Inst::Rdpkru => write!(f, "rdpkru"),
            Inst::Wrpkru => write!(f, "wrpkru"),
            Inst::CallReg(r) => write!(f, "call *%{r}"),
            Inst::JmpReg(r) => write!(f, "jmp *%{r}"),
            Inst::Push(r) => write!(f, "push %{r}"),
            Inst::Pop(r) => write!(f, "pop %{r}"),
            Inst::MovImm(r, v) => write!(f, "mov ${v:#x}, %{r}"),
            Inst::MovReg(d, s) => write!(f, "mov %{s}, %{d}"),
            Inst::Load(d, b, o) => write!(f, "mov {o}(%{b}), %{d}"),
            Inst::Store(b, o, s) => write!(f, "mov %{s}, {o}(%{b})"),
            Inst::LoadByte(d, b, o) => write!(f, "movb {o}(%{b}), %{d}"),
            Inst::StoreByte(b, o, s) => write!(f, "movb %{s}, {o}(%{b})"),
            Inst::Lea(d, o) => write!(f, "lea {o}(%rip), %{d}"),
            Inst::AddReg(d, s) => write!(f, "add %{s}, %{d}"),
            Inst::SubReg(d, s) => write!(f, "sub %{s}, %{d}"),
            Inst::AndReg(d, s) => write!(f, "and %{s}, %{d}"),
            Inst::OrReg(d, s) => write!(f, "or %{s}, %{d}"),
            Inst::XorReg(d, s) => write!(f, "xor %{s}, %{d}"),
            Inst::CmpReg(d, s) => write!(f, "cmp %{s}, %{d}"),
            Inst::TestReg(d, s) => write!(f, "test %{s}, %{d}"),
            Inst::ImulReg(d, s) => write!(f, "imul %{s}, %{d}"),
            Inst::AddImm(r, i) => write!(f, "add ${i}, %{r}"),
            Inst::SubImm(r, i) => write!(f, "sub ${i}, %{r}"),
            Inst::AndImm(r, i) => write!(f, "and ${i:#x}, %{r}"),
            Inst::OrImm(r, i) => write!(f, "or ${i:#x}, %{r}"),
            Inst::XorImm(r, i) => write!(f, "xor ${i:#x}, %{r}"),
            Inst::CmpImm(r, i) => write!(f, "cmp ${i}, %{r}"),
            Inst::ShlImm(r, i) => write!(f, "shl ${i}, %{r}"),
            Inst::ShrImm(r, i) => write!(f, "shr ${i}, %{r}"),
            Inst::ShlCl(r) => write!(f, "shl %cl, %{r}"),
            Inst::ShrCl(r) => write!(f, "shr %cl, %{r}"),
            Inst::BtMem(b, i) => write!(f, "bt %{i}, (%{b})"),
            Inst::Jmp(rel) => write!(f, "jmp .{rel:+}"),
            Inst::Call(rel) => write!(f, "call .{rel:+}"),
            Inst::Jcc(c, rel) => write!(f, "j{c} .{rel:+}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(inst: Inst) {
        let bytes = inst.encode();
        let (decoded, len) = decode(&bytes)
            .unwrap_or_else(|e| panic!("decode of {inst:?} ({bytes:02x?}) failed: {e}"));
        assert_eq!(decoded, inst, "bytes {bytes:02x?}");
        assert_eq!(len, bytes.len());
    }

    #[test]
    fn syscall_is_two_bytes_0f05() {
        assert_eq!(Inst::Syscall.encode(), vec![0x0f, 0x05]);
        assert_eq!(Inst::Sysenter.encode(), vec![0x0f, 0x34]);
    }

    #[test]
    fn call_rax_is_two_bytes_ffd0() {
        assert_eq!(Inst::CallReg(Reg::Rax).encode(), vec![0xff, 0xd0]);
        // Same length as SYSCALL: the zpoline in-place rewrite is possible.
        assert_eq!(
            Inst::CallReg(Reg::Rax).encode().len(),
            Inst::Syscall.encode().len()
        );
    }

    #[test]
    fn roundtrip_simple() {
        for inst in [
            Inst::Nop,
            Inst::Syscall,
            Inst::Sysenter,
            Inst::Ret,
            Inst::Hlt,
            Inst::Int3,
            Inst::Cpuid,
            Inst::Fence,
            Inst::Vsyscall,
            Inst::Rdpkru,
            Inst::Wrpkru,
        ] {
            roundtrip(inst);
        }
    }

    #[test]
    fn roundtrip_all_registers() {
        for r in Reg::ALL {
            roundtrip(Inst::Push(r));
            roundtrip(Inst::Pop(r));
            roundtrip(Inst::CallReg(r));
            roundtrip(Inst::JmpReg(r));
            roundtrip(Inst::MovImm(r, 0x0f05_0f05_0f05_0f05));
            roundtrip(Inst::ShlImm(r, 63));
            roundtrip(Inst::ShrImm(r, 1));
            roundtrip(Inst::AddImm(r, -1));
            roundtrip(Inst::CmpImm(r, i32::MAX));
            roundtrip(Inst::Lea(r, -4096));
            for s in [Reg::Rax, Reg::R11, Reg::R15, Reg::Rsp] {
                roundtrip(Inst::MovReg(r, s));
                roundtrip(Inst::Load(r, s, 1234));
                roundtrip(Inst::Store(s, -8, r));
                roundtrip(Inst::LoadByte(r, s, 0));
                roundtrip(Inst::StoreByte(s, 7, r));
                roundtrip(Inst::AddReg(r, s));
                roundtrip(Inst::SubReg(r, s));
                roundtrip(Inst::AndReg(r, s));
                roundtrip(Inst::OrReg(r, s));
                roundtrip(Inst::XorReg(r, s));
                roundtrip(Inst::CmpReg(r, s));
                roundtrip(Inst::TestReg(r, s));
                roundtrip(Inst::ImulReg(r, s));
            }
        }
    }

    #[test]
    fn roundtrip_shifts_and_bt() {
        for r in Reg::ALL {
            roundtrip(Inst::ShlCl(r));
            roundtrip(Inst::ShrCl(r));
            for s in [Reg::Rax, Reg::R11, Reg::Rbp] {
                roundtrip(Inst::BtMem(r, s));
            }
        }
    }

    #[test]
    fn roundtrip_branches() {
        roundtrip(Inst::Jmp(-5));
        roundtrip(Inst::Call(0x1000));
        for c in Cond::ALL {
            roundtrip(Inst::Jcc(c, -123456));
        }
    }

    #[test]
    fn movimm_can_embed_syscall_bytes() {
        // A ten-byte mov whose immediate contains the SYSCALL opcode: decoding
        // from the start sees a mov; decoding from byte 4 would see a syscall.
        let imm = u64::from_le_bytes([0xaa, 0xbb, 0x0f, 0x05, 0xcc, 0xdd, 0xee, 0x11]);
        let bytes = Inst::MovImm(Reg::Rbx, imm).encode();
        assert_eq!(&bytes[4..6], &[0x0f, 0x05]);
        let (inst, len) = decode(&bytes).unwrap();
        assert_eq!(inst, Inst::MovImm(Reg::Rbx, imm));
        assert_eq!(len, 10);
        let (inner, _) = decode(&bytes[4..]).unwrap();
        assert_eq!(inner, Inst::Syscall);
    }

    #[test]
    fn truncated_inputs_error() {
        assert!(matches!(
            decode(&[]),
            Err(DecodeError::Truncated { needed: 1, .. })
        ));
        assert!(matches!(decode(&[0x0f]), Err(DecodeError::Truncated { .. })));
        assert!(matches!(
            decode(&[0xe9, 0x01]),
            Err(DecodeError::Truncated { .. })
        ));
        assert!(matches!(
            decode(&[0x48, 0xb8, 0, 0, 0]),
            Err(DecodeError::Truncated { .. })
        ));
    }

    #[test]
    fn bad_opcodes_error() {
        assert!(matches!(
            decode(&[0x00]),
            Err(DecodeError::BadOpcode { offset: 0, .. })
        ));
        assert!(matches!(
            decode(&[0xff, 0x00]),
            Err(DecodeError::BadModRm { offset: 1, .. })
        ));
        assert!(matches!(
            decode(&[0x0f, 0x99]),
            Err(DecodeError::BadOpcode { offset: 1, .. })
        ));
    }

    #[test]
    fn display_is_nonempty() {
        for inst in [
            Inst::Syscall,
            Inst::MovImm(Reg::Rax, 500),
            Inst::Jcc(Cond::Ne, -10),
            Inst::Store(Reg::Rsp, -8, Reg::R11),
        ] {
            assert!(!inst.to_string().is_empty());
        }
    }
}
