//! Thumb (ARMv6-M) instruction encodings: the 16-bit machine-code view
//! of everything the [`Machine`](crate::Machine) executes.
//!
//! The virtual-assembly kernels call machine methods; with recording
//! enabled (see [`Machine::start_recording`]) each call also captures an
//! [`Instr`], which this module can *encode* into real Thumb halfwords,
//! *decode* back, and disassemble. That turns the cost model into a
//! code generator: the benchmark harness emits the paper's López-Dahab
//! kernel as genuine Cortex-M0+ machine code and reports its flash
//! footprint (relevant for the paper's fully-unrolled inner loops).
//!
//! Branch/literal targets are emitted with placeholder offsets (the
//! kernels drive control flow from the host, so no fix-up pass exists);
//! everything else round-trips exactly.
//!
//! [`Machine::start_recording`]: crate::Machine::start_recording

// Binary literals below group by *encoding field* (opcode | regs),
// not by equal digit counts — that is the readable form for ISA work.
#![allow(clippy::unusual_byte_groupings)]

use crate::machine::{Cond, Reg};
use std::fmt;

/// One Thumb instruction as the machine executes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Instr {
    LslsImm {
        rd: Reg,
        rm: Reg,
        imm: u32,
    },
    LsrsImm {
        rd: Reg,
        rm: Reg,
        imm: u32,
    },
    AsrsImm {
        rd: Reg,
        rm: Reg,
        imm: u32,
    },
    AddsReg {
        rd: Reg,
        rn: Reg,
        rm: Reg,
    },
    SubsReg {
        rd: Reg,
        rn: Reg,
        rm: Reg,
    },
    MovsImm {
        rd: Reg,
        imm: u8,
    },
    CmpImm {
        rn: Reg,
        imm: u8,
    },
    AddsImm8 {
        rdn: Reg,
        imm: u8,
    },
    SubsImm8 {
        rdn: Reg,
        imm: u8,
    },
    /// Data-processing register group (opcode 010000xxxx).
    Ands {
        rdn: Reg,
        rm: Reg,
    },
    Eors {
        rdn: Reg,
        rm: Reg,
    },
    LslsReg {
        rdn: Reg,
        rm: Reg,
    },
    LsrsReg {
        rdn: Reg,
        rm: Reg,
    },
    Adcs {
        rdn: Reg,
        rm: Reg,
    },
    Sbcs {
        rdn: Reg,
        rm: Reg,
    },
    Tst {
        rn: Reg,
        rm: Reg,
    },
    Rsbs {
        rd: Reg,
        rn: Reg,
    },
    CmpReg {
        rn: Reg,
        rm: Reg,
    },
    Orrs {
        rdn: Reg,
        rm: Reg,
    },
    Muls {
        rdn: Reg,
        rm: Reg,
    },
    Bics {
        rdn: Reg,
        rm: Reg,
    },
    Mvns {
        rd: Reg,
        rm: Reg,
    },
    /// `MOV rd, rm` — the hi-register-capable move.
    Mov {
        rd: Reg,
        rm: Reg,
    },
    LdrImm {
        rt: Reg,
        rn: Reg,
        imm_words: u32,
    },
    StrImm {
        rt: Reg,
        rn: Reg,
        imm_words: u32,
    },
    LdrReg {
        rt: Reg,
        rn: Reg,
        rm: Reg,
    },
    StrReg {
        rt: Reg,
        rn: Reg,
        rm: Reg,
    },
    LdrSp {
        rt: Reg,
        imm_words: u32,
    },
    StrSp {
        rt: Reg,
        imm_words: u32,
    },
    /// PC-relative literal load (how `ldr_const` reaches the pool).
    LdrLit {
        rt: Reg,
        imm_words: u32,
    },
    Uxth {
        rd: Reg,
        rm: Reg,
    },
    Push {
        reg_count: usize,
    },
    Pop {
        reg_count: usize,
    },
    BCond {
        cond: Cond,
    },
    B,
    Bl,
    Bx,
    Nop,
}

fn lo(r: Reg) -> u16 {
    let i = Reg::GENERAL
        .iter()
        .position(|&x| x == r)
        .expect("general register");
    assert!(i < 8, "lo register required in this encoding");
    i as u16
}

fn any(r: Reg) -> u16 {
    match r {
        Reg::Sp => 13,
        Reg::Lr => 14,
        _ => Reg::GENERAL
            .iter()
            .position(|&x| x == r)
            .expect("general register") as u16,
    }
}

fn cond_bits(c: Cond) -> u16 {
    match c {
        Cond::Eq => 0b0000,
        Cond::Ne => 0b0001,
        Cond::Hs => 0b0010,
        Cond::Lo => 0b0011,
        Cond::Mi => 0b0100,
        Cond::Pl => 0b0101,
        Cond::Ge => 0b1010,
        Cond::Lt => 0b1011,
        Cond::Gt => 0b1100,
        Cond::Le => 0b1101,
    }
}

fn cond_from_bits(b: u16) -> Option<Cond> {
    Some(match b {
        0b0000 => Cond::Eq,
        0b0001 => Cond::Ne,
        0b0010 => Cond::Hs,
        0b0011 => Cond::Lo,
        0b0100 => Cond::Mi,
        0b0101 => Cond::Pl,
        0b1010 => Cond::Ge,
        0b1011 => Cond::Lt,
        0b1100 => Cond::Gt,
        0b1101 => Cond::Le,
        _ => return None,
    })
}

/// The Thumb encoding of one instruction: one halfword, or two for
/// `BL`. Held inline, so encoding allocates nothing; it derefs to the
/// halfword slice and iterates by value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Halfwords {
    words: [u16; 2],
    len: usize,
}

impl Halfwords {
    fn one(hw: u16) -> Halfwords {
        Halfwords {
            words: [hw, 0],
            len: 1,
        }
    }
}

impl std::ops::Deref for Halfwords {
    type Target = [u16];

    fn deref(&self) -> &[u16] {
        &self.words[..self.len]
    }
}

impl IntoIterator for Halfwords {
    type Item = u16;
    type IntoIter = std::iter::Take<std::array::IntoIter<u16, 2>>;

    fn into_iter(self) -> Self::IntoIter {
        self.words.into_iter().take(self.len)
    }
}

impl Instr {
    /// Encodes into Thumb halfwords: one for everything except `BL`
    /// (the sole 32-bit encoding ARMv6-M has).
    pub fn encode(self) -> Halfwords {
        use Instr::*;
        let one = Halfwords::one;
        match self {
            LslsImm { rd, rm, imm } => one((imm as u16) << 6 | lo(rm) << 3 | lo(rd)),
            LsrsImm { rd, rm, imm } => {
                one(0b00001 << 11 | ((imm % 32) as u16) << 6 | lo(rm) << 3 | lo(rd))
            }
            AsrsImm { rd, rm, imm } => {
                one(0b00010 << 11 | ((imm % 32) as u16) << 6 | lo(rm) << 3 | lo(rd))
            }
            AddsReg { rd, rn, rm } => one(0b0001100 << 9 | lo(rm) << 6 | lo(rn) << 3 | lo(rd)),
            SubsReg { rd, rn, rm } => one(0b0001101 << 9 | lo(rm) << 6 | lo(rn) << 3 | lo(rd)),
            MovsImm { rd, imm } => one(0b00100 << 11 | lo(rd) << 8 | imm as u16),
            CmpImm { rn, imm } => one(0b00101 << 11 | lo(rn) << 8 | imm as u16),
            AddsImm8 { rdn, imm } => one(0b00110 << 11 | lo(rdn) << 8 | imm as u16),
            SubsImm8 { rdn, imm } => one(0b00111 << 11 | lo(rdn) << 8 | imm as u16),
            Ands { rdn, rm } => one(0b010000_0000 << 6 | lo(rm) << 3 | lo(rdn)),
            Eors { rdn, rm } => one(0b010000_0001 << 6 | lo(rm) << 3 | lo(rdn)),
            LslsReg { rdn, rm } => one(0b010000_0010 << 6 | lo(rm) << 3 | lo(rdn)),
            LsrsReg { rdn, rm } => one(0b010000_0011 << 6 | lo(rm) << 3 | lo(rdn)),
            Adcs { rdn, rm } => one(0b010000_0101 << 6 | lo(rm) << 3 | lo(rdn)),
            Sbcs { rdn, rm } => one(0b010000_0110 << 6 | lo(rm) << 3 | lo(rdn)),
            Tst { rn, rm } => one(0b010000_1000 << 6 | lo(rm) << 3 | lo(rn)),
            Rsbs { rd, rn } => one(0b010000_1001 << 6 | lo(rn) << 3 | lo(rd)),
            CmpReg { rn, rm } => one(0b010000_1010 << 6 | lo(rm) << 3 | lo(rn)),
            Orrs { rdn, rm } => one(0b010000_1100 << 6 | lo(rm) << 3 | lo(rdn)),
            Muls { rdn, rm } => one(0b010000_1101 << 6 | lo(rm) << 3 | lo(rdn)),
            Bics { rdn, rm } => one(0b010000_1110 << 6 | lo(rm) << 3 | lo(rdn)),
            Mvns { rd, rm } => one(0b010000_1111 << 6 | lo(rm) << 3 | lo(rd)),
            Mov { rd, rm } => {
                let d = any(rd);
                let m = any(rm);
                one(0b01000110 << 8 | (d >> 3) << 7 | m << 3 | (d & 7))
            }
            StrImm { rt, rn, imm_words } => {
                assert!(
                    imm_words <= 31,
                    "STR word offset {imm_words} exceeds the T1 imm5 range"
                );
                one(0b01100 << 11 | (imm_words as u16) << 6 | lo(rn) << 3 | lo(rt))
            }
            LdrImm { rt, rn, imm_words } => {
                assert!(
                    imm_words <= 31,
                    "LDR word offset {imm_words} exceeds the T1 imm5 range"
                );
                one(0b01101 << 11 | (imm_words as u16) << 6 | lo(rn) << 3 | lo(rt))
            }
            StrReg { rt, rn, rm } => one(0b0101000 << 9 | lo(rm) << 6 | lo(rn) << 3 | lo(rt)),
            LdrReg { rt, rn, rm } => one(0b0101100 << 9 | lo(rm) << 6 | lo(rn) << 3 | lo(rt)),
            StrSp { rt, imm_words } => {
                assert!(
                    imm_words <= 255,
                    "STR sp-relative word offset {imm_words} exceeds the T1 imm8 range"
                );
                one(0b10010 << 11 | lo(rt) << 8 | imm_words as u16)
            }
            LdrSp { rt, imm_words } => {
                assert!(
                    imm_words <= 255,
                    "LDR sp-relative word offset {imm_words} exceeds the T1 imm8 range"
                );
                one(0b10011 << 11 | lo(rt) << 8 | imm_words as u16)
            }
            LdrLit { rt, imm_words } => {
                assert!(
                    imm_words <= 255,
                    "literal-pool word index {imm_words} exceeds the T1 imm8 range"
                );
                one(0b01001 << 11 | lo(rt) << 8 | imm_words as u16)
            }
            Uxth { rd, rm } => one(0b1011001010 << 6 | lo(rm) << 3 | lo(rd)),
            Push { reg_count } => {
                // r0.. upward in the low-byte register list, plus LR via
                // the M bit for the ninth register (the paper's prologues
                // push up to {r4-r11, lr}, i.e. nine registers). The count
                // must survive encode→decode, which reads it back as
                // popcount(list) + M.
                assert!(
                    (1..=9).contains(&reg_count),
                    "PUSH register count {reg_count} not encodable in one T1 halfword"
                );
                let mask = (1u16 << reg_count.min(8)) - 1;
                let m_bit = u16::from(reg_count > 8) << 8;
                one(0b1011010 << 9 | m_bit | mask)
            }
            Pop { reg_count } => {
                assert!(
                    (1..=9).contains(&reg_count),
                    "POP register count {reg_count} not encodable in one T1 halfword"
                );
                let mask = (1u16 << reg_count.min(8)) - 1;
                let p_bit = u16::from(reg_count > 8) << 8;
                one(0b1011110 << 9 | p_bit | mask)
            }
            BCond { cond } => one(0b1101 << 12 | cond_bits(cond) << 8),
            B => one(0b11100 << 11),
            Bl => Halfwords {
                words: [0b11110 << 11, 0b11111 << 11],
                len: 2,
            },
            Bx => one(0b010001110 << 7 | 14 << 3), // bx lr
            Nop => one(0b1011_1111_0000_0000),
        }
    }

    /// Decodes one instruction from a halfword stream; returns the
    /// instruction and how many halfwords it consumed.
    ///
    /// Only the encodings [`Instr::encode`] produces are recognised
    /// (branch/literal offsets are read back as placeholders).
    pub fn decode(words: &[u16]) -> Option<(Instr, usize)> {
        use Instr::*;
        let hw = *words.first()?;
        let reg = |bits: u16| Reg::GENERAL[(bits & 7) as usize];
        let top5 = hw >> 11;
        let instr = match top5 {
            0b00000 => LslsImm {
                rd: reg(hw),
                rm: reg(hw >> 3),
                imm: ((hw >> 6) & 31) as u32,
            },
            0b00001 => LsrsImm {
                rd: reg(hw),
                rm: reg(hw >> 3),
                imm: ((hw >> 6) & 31) as u32,
            },
            0b00010 => AsrsImm {
                rd: reg(hw),
                rm: reg(hw >> 3),
                imm: ((hw >> 6) & 31) as u32,
            },
            0b00011 => {
                let rm = reg(hw >> 6);
                let rn = reg(hw >> 3);
                let rd = reg(hw);
                match (hw >> 9) & 3 {
                    0b00 => AddsReg { rd, rn, rm },
                    0b01 => SubsReg { rd, rn, rm },
                    0b10 => AddsReg { rd, rn, rm }, // imm3 form not emitted
                    _ => SubsReg { rd, rn, rm },
                }
            }
            0b00100 => MovsImm {
                rd: reg(hw >> 8),
                imm: (hw & 0xFF) as u8,
            },
            0b00101 => CmpImm {
                rn: reg(hw >> 8),
                imm: (hw & 0xFF) as u8,
            },
            0b00110 => AddsImm8 {
                rdn: reg(hw >> 8),
                imm: (hw & 0xFF) as u8,
            },
            0b00111 => SubsImm8 {
                rdn: reg(hw >> 8),
                imm: (hw & 0xFF) as u8,
            },
            0b01000 => {
                if hw & (1 << 10) == 0 {
                    // Data-processing register group.
                    let rm = reg(hw >> 3);
                    let rdn = reg(hw);
                    match (hw >> 6) & 0xF {
                        0b0000 => Ands { rdn, rm },
                        0b0001 => Eors { rdn, rm },
                        0b0010 => LslsReg { rdn, rm },
                        0b0011 => LsrsReg { rdn, rm },
                        0b0101 => Adcs { rdn, rm },
                        0b0110 => Sbcs { rdn, rm },
                        0b1000 => Tst { rn: rdn, rm },
                        0b1001 => Rsbs { rd: rdn, rn: rm },
                        0b1010 => CmpReg { rn: rdn, rm },
                        0b1100 => Orrs { rdn, rm },
                        0b1101 => Muls { rdn, rm },
                        0b1110 => Bics { rdn, rm },
                        0b1111 => Mvns { rd: rdn, rm },
                        _ => return None,
                    }
                } else {
                    // Special data / branch-exchange.
                    match (hw >> 8) & 3 {
                        0b10 => {
                            let d = ((hw >> 7) & 1) << 3 | (hw & 7);
                            let m = (hw >> 3) & 0xF;
                            let from_any = |v: u16| match v {
                                13 => Reg::Sp,
                                14 => Reg::Lr,
                                i => Reg::GENERAL[i as usize],
                            };
                            Mov {
                                rd: from_any(d),
                                rm: from_any(m),
                            }
                        }
                        0b11 => Bx,
                        _ => return None,
                    }
                }
            }
            0b01001 => LdrLit {
                rt: reg(hw >> 8),
                imm_words: (hw & 0xFF) as u32,
            },
            0b01010 => StrReg {
                rt: reg(hw),
                rn: reg(hw >> 3),
                rm: reg(hw >> 6),
            },
            0b01011 => LdrReg {
                rt: reg(hw),
                rn: reg(hw >> 3),
                rm: reg(hw >> 6),
            },
            0b01100 => StrImm {
                rt: reg(hw),
                rn: reg(hw >> 3),
                imm_words: ((hw >> 6) & 31) as u32,
            },
            0b01101 => LdrImm {
                rt: reg(hw),
                rn: reg(hw >> 3),
                imm_words: ((hw >> 6) & 31) as u32,
            },
            0b10010 => StrSp {
                rt: reg(hw >> 8),
                imm_words: (hw & 0xFF) as u32,
            },
            0b10011 => LdrSp {
                rt: reg(hw >> 8),
                imm_words: (hw & 0xFF) as u32,
            },
            0b10110 | 0b10111 => {
                if hw == 0b1011_1111_0000_0000 {
                    Nop
                } else if hw >> 6 == 0b1011001010 {
                    Uxth {
                        rd: reg(hw),
                        rm: reg(hw >> 3),
                    }
                } else if hw >> 9 == 0b1011010 {
                    // The M bit adds LR to the register list.
                    let m = ((hw >> 8) & 1) as usize;
                    Push {
                        reg_count: (hw & 0xFF).count_ones() as usize + m,
                    }
                } else if hw >> 9 == 0b1011110 {
                    // The P bit adds PC to the register list.
                    let p = ((hw >> 8) & 1) as usize;
                    Pop {
                        reg_count: (hw & 0xFF).count_ones() as usize + p,
                    }
                } else {
                    return None;
                }
            }
            0b11010 | 0b11011 => BCond {
                cond: cond_from_bits((hw >> 8) & 0xF)?,
            },
            0b11100 => B,
            0b11110 => {
                // 32-bit BL: needs the second halfword.
                if words.len() < 2 {
                    return None;
                }
                return Some((Bl, 2));
            }
            _ => return None,
        };
        Some((instr, 1))
    }

    /// Flash footprint in bytes.
    pub fn size_bytes(self) -> usize {
        if self == Instr::Bl {
            4
        } else {
            2
        }
    }

    /// The cost class this instruction charges (taken branches; the
    /// not-taken variant shares the encoding).
    pub fn class(self) -> crate::InstrClass {
        use crate::InstrClass as C;
        use Instr::*;
        match self {
            LdrImm { .. } | LdrReg { .. } | LdrSp { .. } | LdrLit { .. } => C::Ldr,
            StrImm { .. } | StrReg { .. } | StrSp { .. } => C::Str,
            LslsImm { .. } | LslsReg { .. } => C::Lsl,
            LsrsImm { .. } | LsrsReg { .. } | AsrsImm { .. } => C::Lsr,
            Eors { .. } => C::Eor,
            Ands { .. } | Orrs { .. } | Bics { .. } | Mvns { .. } | Tst { .. } => C::Logic,
            AddsReg { .. } | AddsImm8 { .. } | Adcs { .. } => C::Add,
            SubsReg { .. } | SubsImm8 { .. } | Sbcs { .. } | Rsbs { .. } => C::Sub,
            Muls { .. } => C::Mul,
            MovsImm { .. } | Mov { .. } | Uxth { .. } => C::Mov,
            CmpImm { .. } | CmpReg { .. } => C::Cmp,
            BCond { .. } | B | Bx => C::BranchTaken,
            Bl => C::Bl,
            Push { reg_count } | Pop { reg_count } => {
                // Reported as the per-word class; the cost helper charges
                // the base cycle separately.
                let _ = reg_count;
                C::StackWord
            }
            Nop => C::Nop,
        }
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Instr::*;
        match *self {
            LslsImm { rd, rm, imm } => write!(f, "lsls {rd}, {rm}, #{imm}"),
            LsrsImm { rd, rm, imm } => write!(f, "lsrs {rd}, {rm}, #{imm}"),
            AsrsImm { rd, rm, imm } => write!(f, "asrs {rd}, {rm}, #{imm}"),
            AddsReg { rd, rn, rm } => write!(f, "adds {rd}, {rn}, {rm}"),
            SubsReg { rd, rn, rm } => write!(f, "subs {rd}, {rn}, {rm}"),
            MovsImm { rd, imm } => write!(f, "movs {rd}, #{imm}"),
            CmpImm { rn, imm } => write!(f, "cmp {rn}, #{imm}"),
            AddsImm8 { rdn, imm } => write!(f, "adds {rdn}, #{imm}"),
            SubsImm8 { rdn, imm } => write!(f, "subs {rdn}, #{imm}"),
            Ands { rdn, rm } => write!(f, "ands {rdn}, {rm}"),
            Eors { rdn, rm } => write!(f, "eors {rdn}, {rm}"),
            LslsReg { rdn, rm } => write!(f, "lsls {rdn}, {rm}"),
            LsrsReg { rdn, rm } => write!(f, "lsrs {rdn}, {rm}"),
            Adcs { rdn, rm } => write!(f, "adcs {rdn}, {rm}"),
            Sbcs { rdn, rm } => write!(f, "sbcs {rdn}, {rm}"),
            Tst { rn, rm } => write!(f, "tst {rn}, {rm}"),
            Rsbs { rd, rn } => write!(f, "rsbs {rd}, {rn}, #0"),
            CmpReg { rn, rm } => write!(f, "cmp {rn}, {rm}"),
            Orrs { rdn, rm } => write!(f, "orrs {rdn}, {rm}"),
            Muls { rdn, rm } => write!(f, "muls {rdn}, {rm}"),
            Bics { rdn, rm } => write!(f, "bics {rdn}, {rm}"),
            Mvns { rd, rm } => write!(f, "mvns {rd}, {rm}"),
            Mov { rd, rm } => write!(f, "mov {rd}, {rm}"),
            LdrImm { rt, rn, imm_words } => write!(f, "ldr {rt}, [{rn}, #{}]", imm_words * 4),
            StrImm { rt, rn, imm_words } => write!(f, "str {rt}, [{rn}, #{}]", imm_words * 4),
            LdrReg { rt, rn, rm } => write!(f, "ldr {rt}, [{rn}, {rm}]"),
            StrReg { rt, rn, rm } => write!(f, "str {rt}, [{rn}, {rm}]"),
            LdrSp { rt, imm_words } => write!(f, "ldr {rt}, [sp, #{}]", imm_words * 4),
            StrSp { rt, imm_words } => write!(f, "str {rt}, [sp, #{}]", imm_words * 4),
            LdrLit { rt, imm_words } => write!(f, "ldr {rt}, =pool[{imm_words}]"),
            Uxth { rd, rm } => write!(f, "uxth {rd}, {rm}"),
            Push { reg_count } => write!(f, "push {{{reg_count} regs}}"),
            Pop { reg_count } => write!(f, "pop {{{reg_count} regs}}"),
            BCond { cond } => write!(f, "b{} <target>", cond_name(cond)),
            B => write!(f, "b <target>"),
            Bl => write!(f, "bl <target>"),
            Bx => write!(f, "bx lr"),
            Nop => write!(f, "nop"),
        }
    }
}

fn cond_name(c: Cond) -> &'static str {
    match c {
        Cond::Eq => "eq",
        Cond::Ne => "ne",
        Cond::Hs => "hs",
        Cond::Lo => "lo",
        Cond::Mi => "mi",
        Cond::Pl => "pl",
        Cond::Ge => "ge",
        Cond::Lt => "lt",
        Cond::Gt => "gt",
        Cond::Le => "le",
    }
}

/// Disassembles a halfword stream into an objdump-style listing
/// (offset, encoding, mnemonic), stopping at the first undecodable
/// halfword (which is reported).
pub fn disassemble(code: &[u16]) -> String {
    let mut out = String::new();
    let mut pc = 0usize;
    while pc < code.len() {
        match Instr::decode(&code[pc..]) {
            Some((instr, width)) => {
                let bytes: String = code[pc..pc + width]
                    .iter()
                    .map(|h| format!("{h:04x} "))
                    .collect();
                out += &format!("{pc:4}:  {bytes:<10} {instr}\n");
                pc += width;
            }
            None => {
                out += &format!("{pc:4}:  {:04x}       <undecodable>\n", code[pc]);
                break;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_encodings() {
        assert_eq!(
            Instr::MovsImm {
                rd: Reg::R0,
                imm: 0
            }
            .encode()[..],
            [0x2000]
        );
        assert_eq!(Instr::Nop.encode()[..], [0xBF00]);
        assert_eq!(Instr::Bx.encode()[..], [0x4770]); // bx lr
        assert_eq!(
            Instr::Eors {
                rdn: Reg::R0,
                rm: Reg::R1
            }
            .encode()[..],
            [0x4048]
        );
        assert_eq!(
            Instr::LdrImm {
                rt: Reg::R1,
                rn: Reg::R0,
                imm_words: 1
            }
            .encode()[..],
            [0x6841] // ldr r1, [r0, #4]
        );
        assert_eq!(
            Instr::Muls {
                rdn: Reg::R0,
                rm: Reg::R1
            }
            .encode()[..],
            [0x4348]
        );
    }

    #[test]
    fn roundtrip_every_16bit_form() {
        use Instr::*;
        let samples = vec![
            LslsImm {
                rd: Reg::R1,
                rm: Reg::R2,
                imm: 7,
            },
            LsrsImm {
                rd: Reg::R3,
                rm: Reg::R4,
                imm: 28,
            },
            AsrsImm {
                rd: Reg::R5,
                rm: Reg::R6,
                imm: 3,
            },
            AddsReg {
                rd: Reg::R0,
                rn: Reg::R1,
                rm: Reg::R2,
            },
            SubsReg {
                rd: Reg::R3,
                rn: Reg::R4,
                rm: Reg::R5,
            },
            MovsImm {
                rd: Reg::R7,
                imm: 200,
            },
            CmpImm {
                rn: Reg::R0,
                imm: 16,
            },
            AddsImm8 {
                rdn: Reg::R6,
                imm: 56,
            },
            SubsImm8 {
                rdn: Reg::R2,
                imm: 1,
            },
            Ands {
                rdn: Reg::R1,
                rm: Reg::R2,
            },
            Eors {
                rdn: Reg::R3,
                rm: Reg::R4,
            },
            LslsReg {
                rdn: Reg::R5,
                rm: Reg::R6,
            },
            LsrsReg {
                rdn: Reg::R7,
                rm: Reg::R0,
            },
            Adcs {
                rdn: Reg::R1,
                rm: Reg::R2,
            },
            Sbcs {
                rdn: Reg::R3,
                rm: Reg::R4,
            },
            Tst {
                rn: Reg::R5,
                rm: Reg::R6,
            },
            Rsbs {
                rd: Reg::R7,
                rn: Reg::R0,
            },
            CmpReg {
                rn: Reg::R1,
                rm: Reg::R2,
            },
            Orrs {
                rdn: Reg::R3,
                rm: Reg::R4,
            },
            Muls {
                rdn: Reg::R5,
                rm: Reg::R6,
            },
            Bics {
                rdn: Reg::R7,
                rm: Reg::R0,
            },
            Mvns {
                rd: Reg::R1,
                rm: Reg::R2,
            },
            Mov {
                rd: Reg::R8,
                rm: Reg::R7,
            },
            Mov {
                rd: Reg::R3,
                rm: Reg::R12,
            },
            LdrImm {
                rt: Reg::R0,
                rn: Reg::R1,
                imm_words: 31,
            },
            StrImm {
                rt: Reg::R2,
                rn: Reg::R3,
                imm_words: 0,
            },
            LdrReg {
                rt: Reg::R4,
                rn: Reg::R5,
                rm: Reg::R6,
            },
            StrReg {
                rt: Reg::R7,
                rn: Reg::R0,
                rm: Reg::R1,
            },
            LdrSp {
                rt: Reg::R2,
                imm_words: 15,
            },
            StrSp {
                rt: Reg::R3,
                imm_words: 8,
            },
            LdrLit {
                rt: Reg::R4,
                imm_words: 12,
            },
            Uxth {
                rd: Reg::R5,
                rm: Reg::R6,
            },
            BCond { cond: Cond::Ne },
            BCond { cond: Cond::Ge },
            B,
            Bx,
            Nop,
        ];
        for instr in samples {
            let code = instr.encode();
            let (decoded, used) = Instr::decode(&code)
                .unwrap_or_else(|| panic!("decode failed for {instr} ({:04x?})", code));
            assert_eq!(used, code.len());
            assert_eq!(decoded, instr, "roundtrip of {instr}");
        }
    }

    #[test]
    fn bl_is_32_bit() {
        let code = Instr::Bl.encode();
        assert_eq!(code.len(), 2);
        let (decoded, used) = Instr::decode(&code).expect("decodes");
        assert_eq!(decoded, Instr::Bl);
        assert_eq!(used, 2);
        assert_eq!(Instr::Bl.size_bytes(), 4);
        assert!(Instr::decode(&code[..1]).is_none(), "truncated BL rejected");
    }

    #[test]
    fn push_pop_roundtrip_register_counts() {
        // The kernels use up to stack_transfer(8); 9 is the
        // architectural maximum ({r0-r7, lr}) of the T1 encoding.
        for n in 1..=9 {
            let p = Instr::Push { reg_count: n };
            let (d, _) = Instr::decode(&p.encode()).expect("decodes");
            assert_eq!(d, p, "push {n}");
            let q = Instr::Pop { reg_count: n };
            let (d, _) = Instr::decode(&q.encode()).expect("decodes");
            assert_eq!(d, q, "pop {n}");
        }
    }

    #[test]
    #[should_panic(expected = "not encodable")]
    fn push_of_ten_registers_is_rejected() {
        let _ = Instr::Push { reg_count: 10 }.encode();
    }

    #[test]
    fn classes_match_costs() {
        use crate::InstrClass;
        assert_eq!(
            Instr::LdrSp {
                rt: Reg::R0,
                imm_words: 0
            }
            .class(),
            InstrClass::Ldr
        );
        assert_eq!(
            Instr::Adcs {
                rdn: Reg::R0,
                rm: Reg::R1
            }
            .class(),
            InstrClass::Add
        );
        assert_eq!(Instr::Bl.class(), InstrClass::Bl);
    }

    #[test]
    fn disassembly_is_readable() {
        let s = format!(
            "{}",
            Instr::LdrImm {
                rt: Reg::R5,
                rn: Reg::R4,
                imm_words: 3
            }
        );
        assert_eq!(s, "ldr r5, [r4, #12]");
        assert_eq!(
            format!(
                "{}",
                Instr::Mov {
                    rd: Reg::R9,
                    rm: Reg::R7
                }
            ),
            "mov r9, r7"
        );
    }

    #[test]
    fn disassembly_listing() {
        let code: Vec<u16> = [
            Instr::MovsImm {
                rd: Reg::R0,
                imm: 8,
            },
            Instr::LdrImm {
                rt: Reg::R1,
                rn: Reg::R0,
                imm_words: 2,
            },
            Instr::Bx,
        ]
        .iter()
        .flat_map(|i| i.encode())
        .collect();
        let listing = disassemble(&code);
        assert!(listing.contains("movs r0, #8"));
        assert!(listing.contains("ldr r1, [r0, #8]"));
        assert!(listing.contains("bx lr"));
        // Undecodable tail is reported, not panicked on.
        let mut bad = code.clone();
        bad.push(0b11111 << 11);
        assert!(disassemble(&bad).contains("<undecodable>"));
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(Instr::decode(&[0b11111 << 11]).is_none());
        assert!(Instr::decode(&[]).is_none());
    }
}
