//! The instrumented ARMv6-M abstract machine.
//!
//! A [`Machine`] has the Cortex-M0+ programmer's model: registers
//! `R0`–`R12` (plus `SP`/`LR`, modelled but rarely needed), the NZCV flags,
//! and a word-addressed RAM. Each public method corresponds to one Thumb
//! instruction; calling it executes the operation *and* charges its cycle
//! and energy cost, attributed to the current [`Category`].
//!
//! The ARMv6-M lo/hi register split is enforced: data-processing
//! instructions (`EORS`, `ADDS`, `LSLS`, …) only accept lo registers
//! (`R0`–`R7`), exactly as on real hardware, while `MOV` may touch hi
//! registers. This constraint is what limits how many accumulator words
//! the paper's "LD with fixed registers" can keep in registers and why
//! hi-register-resident words cost two extra `MOV`s per use.
//!
//! What each data instruction does is written once, in
//! `Machine::apply` over a lowered `MicroOp`: the Direct methods, the
//! executor's per-step path and its superblock interpreter
//! (`Machine::run_block`) all run it.
//!
//! [`Category`]: crate::profile::Category

use crate::cost::InstrClass;
use crate::energy::EnergyModel;
use crate::isa::Instr;
use crate::profile::{Category, CategoryTotals};
use crate::report::{ClassCounts, RunReport, Snapshot};

/// One of the Cortex-M0+ core registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)]
pub enum Reg {
    R0,
    R1,
    R2,
    R3,
    R4,
    R5,
    R6,
    R7,
    R8,
    R9,
    R10,
    R11,
    R12,
    Sp,
    Lr,
}

impl Reg {
    /// The thirteen general-purpose registers.
    pub const GENERAL: [Reg; 13] = [
        Reg::R0,
        Reg::R1,
        Reg::R2,
        Reg::R3,
        Reg::R4,
        Reg::R5,
        Reg::R6,
        Reg::R7,
        Reg::R8,
        Reg::R9,
        Reg::R10,
        Reg::R11,
        Reg::R12,
    ];

    /// The eight lo registers usable by ARMv6-M data-processing
    /// instructions.
    pub const LO: [Reg; 8] = [
        Reg::R0,
        Reg::R1,
        Reg::R2,
        Reg::R3,
        Reg::R4,
        Reg::R5,
        Reg::R6,
        Reg::R7,
    ];

    pub(crate) fn index(self) -> usize {
        match self {
            Reg::R0 => 0,
            Reg::R1 => 1,
            Reg::R2 => 2,
            Reg::R3 => 3,
            Reg::R4 => 4,
            Reg::R5 => 5,
            Reg::R6 => 6,
            Reg::R7 => 7,
            Reg::R8 => 8,
            Reg::R9 => 9,
            Reg::R10 => 10,
            Reg::R11 => 11,
            Reg::R12 => 12,
            Reg::Sp => 13,
            Reg::Lr => 14,
        }
    }

    /// Whether this is a lo register (`R0`–`R7`), addressable by ARMv6-M
    /// data-processing instructions.
    pub fn is_lo(self) -> bool {
        self.index() < 8
    }
}

impl std::fmt::Display for Reg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Reg::Sp => f.write_str("sp"),
            Reg::Lr => f.write_str("lr"),
            r => write!(f, "r{}", r.index()),
        }
    }
}

/// A word address in machine RAM.
///
/// RAM is word-addressed (the ECC kernels only ever perform aligned 32-bit
/// accesses). `Addr(3)` is the fourth word. Arithmetic on addresses stored
/// in registers uses *word units* as well, which keeps kernels readable; a
/// real implementation would scale by 4, which costs the same one shift
/// instruction the kernels already charge where relevant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Addr(pub u32);

impl Addr {
    /// Address of the word `offset` words past `self`.
    #[must_use]
    pub fn offset(self, offset: u32) -> Addr {
        Addr(self.0 + offset)
    }

    /// The raw value a base register should hold to point at this address.
    pub fn to_base_register_value(self) -> u32 {
        self.0
    }
}

/// Condition codes for conditional branches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Cond {
    /// Z set.
    Eq,
    /// Z clear.
    Ne,
    /// C set (unsigned ≥).
    Hs,
    /// C clear (unsigned <).
    Lo,
    /// N set.
    Mi,
    /// N clear.
    Pl,
    /// Signed ≥.
    Ge,
    /// Signed <.
    Lt,
    /// Signed >.
    Gt,
    /// Signed ≤.
    Le,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Flags {
    n: bool,
    z: bool,
    c: bool,
    v: bool,
}

/// One instruction captured by [`Machine::start_recording`]: the
/// decodable [`Instr`], the [`Category`] its cost was attributed to,
/// (for literal-pool loads) the constant value, which the encoding's
/// imm8 slot index cannot carry, and (for loads and stores) the RAM
/// word it touched.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecordedStep {
    /// The instruction as it would appear in the code image.
    pub instr: Instr,
    /// The effective category the charge went to (override and stack
    /// already resolved).
    pub category: Category,
    /// The pool constant for `LdrLit`; `None` for everything else.
    pub literal: Option<u32>,
    /// The effective word address of a load or store; `None` for
    /// everything else.
    pub word: Option<u32>,
}

/// An un-costed host register write ([`Machine::set_reg`] /
/// [`Machine::set_base`]) interleaved with a recording — the AAPCS-style
/// argument setup kernels perform mid-stream. Replaying a recording must
/// reapply these at the same positions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordedSetReg {
    /// Number of costed instructions retired before this write.
    pub at: usize,
    /// The register written.
    pub reg: Reg,
    /// The value written.
    pub value: u32,
}

/// A complete instruction-stream capture: every costed instruction in
/// order plus the positioned un-costed register writes. This is what
/// [`crate::backend::translate`] assembles into real Thumb-16 halfwords
/// and [`crate::fault::RecordedKernel`] re-executes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Recording {
    /// The costed instructions, in execution order.
    pub steps: Vec<RecordedStep>,
    /// Un-costed register writes, ordered by [`RecordedSetReg::at`].
    pub reg_writes: Vec<RecordedSetReg>,
}

impl Recording {
    /// Number of costed instructions captured.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether nothing costed was captured.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

/// Dense opcode of a [`MicroOp`] — one variant per architectural shape
/// [`Machine::apply`] executes, so every retired instruction dispatches
/// a single flat match.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MicroKind {
    /// `LDR rt, [base, #imm]` — `LdrImm` and `LdrSp` with the base
    /// register index pre-resolved.
    LdrOff,
    /// `STR rt, [base, #imm]` — `StrImm` and `StrSp` likewise.
    StrOff,
    /// `LDR rt, [rn, rm]`.
    LdrReg,
    /// `STR rt, [rn, rm]`.
    StrReg,
    /// Literal-pool load with the constant resolved at lowering time.
    Const,
    MovsImm,
    /// `MOV rd, rm`, hi-register capable (indices pre-resolved).
    MovAny,
    Uxth,
    Eors,
    Ands,
    Orrs,
    Bics,
    Mvns,
    Tst,
    LslsImm,
    LsrsImm,
    AsrsImm,
    LslsReg,
    LsrsReg,
    AddsReg,
    AddsImm8,
    Adcs,
    SubsReg,
    SubsImm8,
    Sbcs,
    Rsbs,
    CmpReg,
    CmpImm,
    Muls,
    Nop,
    /// `PUSH`/`POP` of `imm` registers: no architectural effect in the
    /// model, one Mov-class base cycle plus `imm` stack words.
    Stack,
    /// An unconditional `B` whose precomputed target is its own
    /// fall-through — the only shape a linearised recording assembles
    /// (see [`crate::backend::translate`]): charges a taken branch and
    /// continues straight-line.
    BranchFall,
    /// A `B<cond>` whose precomputed target is its own fall-through:
    /// charges taken or not-taken from the live flags and continues
    /// straight-line either way.
    BCondFall(Cond),
    /// Not runnable inside a superblock (control flow, invalid
    /// halfword, unresolvable pool slot, `LSLS #0`); terminates
    /// straight-line runs. The per-step executor handles the rest
    /// itself, so only a decoded `LSLS #0` — which the model, like
    /// [`Machine::lsls_imm`], rejects — reaches [`Machine::apply`].
    Blocked,
}

/// The flat, pre-resolved form of one instruction: a dense opcode,
/// register *indices* instead of [`Reg`] values, the immediate (or pool
/// constant, or stack word count) and the charged class. What each
/// opcode does to registers, flags and memory is written once, in
/// [`Machine::apply`]. Superblock tables also carry the class's cycle
/// count, baked at predecode time by [`MicroOp::priced`] so
/// [`Machine::run_block`] never touches the decode-shaped [`Instr`]
/// again; the Direct methods and the per-step executor price through
/// [`Machine::record`] instead.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MicroOp {
    kind: MicroKind,
    /// Destination / transfer register index.
    a: u8,
    /// First source / base register index.
    b: u8,
    /// Second source register index.
    c: u8,
    /// `InstrClass::index()` of the charged class.
    class_idx: u8,
    /// `InstrClass::cycles()` of the charged class (set by
    /// [`MicroOp::priced`]).
    cycles: u8,
    /// Immediate / pool constant / stack word count.
    imm: u32,
}

impl MicroOp {
    /// A position the superblock interpreter refuses to run.
    pub(crate) const BLOCKED: MicroOp = MicroOp {
        kind: MicroKind::Blocked,
        a: 0,
        b: 0,
        c: 0,
        class_idx: 0,
        cycles: 0,
        imm: 0,
    };

    /// Whether this position can run inside a superblock.
    #[inline]
    pub(crate) fn runnable(&self) -> bool {
        self.kind != MicroKind::Blocked
    }

    /// Whether this op loads or stores a RAM word.
    #[inline]
    pub(crate) fn touches_memory(&self) -> bool {
        use MicroKind as K;
        matches!(self.kind, K::LdrOff | K::StrOff | K::LdrReg | K::StrReg)
    }

    /// Whether this op stores a RAM word.
    pub(crate) fn stores(&self) -> bool {
        matches!(self.kind, MicroKind::StrOff | MicroKind::StrReg)
    }

    /// The registers [`Machine::apply`] reads for this op, as a mask
    /// with bit [`Reg::index`] per register: sources, store data, and
    /// base and offset registers of an address (`sp` for `LdrSp` and
    /// `StrSp`). Flags are not tracked. Charge-only ops (`NOP`, stack
    /// transfers, fall-through branches) read none, and so does
    /// [`MicroKind::Blocked`]: in a recording those are branches, which
    /// touch no register in the model.
    pub(crate) fn reads(&self) -> u16 {
        use MicroKind as K;
        let (a, b, c) = (1u16 << self.a, 1u16 << self.b, 1u16 << self.c);
        match self.kind {
            K::LdrOff | K::MovAny | K::Uxth | K::Mvns | K::Rsbs => b,
            K::LslsImm | K::LsrsImm | K::AsrsImm => b,
            K::StrOff => a | b,
            K::LdrReg | K::AddsReg | K::SubsReg => b | c,
            K::StrReg => a | b | c,
            K::Eors | K::Ands | K::Orrs | K::Bics | K::Tst | K::Muls => a | b,
            K::LslsReg | K::LsrsReg | K::Adcs | K::Sbcs | K::CmpReg => a | b,
            K::AddsImm8 | K::SubsImm8 | K::CmpImm => a,
            K::Const | K::MovsImm => 0,
            K::Nop | K::Stack | K::BranchFall | K::BCondFall(_) | K::Blocked => 0,
        }
    }

    /// The registers [`Machine::apply`] writes for this op, as a mask
    /// like [`MicroOp::reads`]. Every write replaces the whole register.
    pub(crate) fn writes(&self) -> u16 {
        use MicroKind as K;
        match self.kind {
            K::StrOff | K::StrReg | K::Tst | K::CmpReg | K::CmpImm => 0,
            K::Nop | K::Stack | K::BranchFall | K::BCondFall(_) | K::Blocked => 0,
            _ => 1 << self.a,
        }
    }

    /// A branch to its own fall-through: charge only. An unconditional
    /// one charges a taken branch; for a conditional one (`Some(cond)`)
    /// [`Machine::run_block`] resolves taken or not-taken from the live
    /// flags at run time.
    pub(crate) fn branch_fall(cond: Option<Cond>) -> MicroOp {
        let kind = cond.map_or(MicroKind::BranchFall, MicroKind::BCondFall);
        Self::new(kind, InstrClass::BranchTaken, 0, 0, 0, 0)
    }

    fn new(kind: MicroKind, class: InstrClass, a: usize, b: usize, c: usize, imm: u32) -> MicroOp {
        MicroOp {
            kind,
            a: a as u8,
            b: b as u8,
            c: c as u8,
            class_idx: class.index() as u8,
            cycles: 0,
            imm,
        }
    }

    /// This op with its class's cycle cost baked in from `cycle_table`,
    /// as [`Machine::run_block`] charges it.
    pub(crate) fn priced(self, cycle_table: &[u64; InstrClass::ALL.len()]) -> MicroOp {
        let cycles = cycle_table[self.class_idx as usize];
        debug_assert!(
            cycles <= u8::MAX as u64,
            "cycle cost exceeds MicroOp::cycles"
        );
        MicroOp {
            cycles: cycles as u8,
            ..self
        }
    }

    /// Lowers one instruction: registers to indices (asserting the lo
    /// registers ARMv6-M data processing requires), pool slots to
    /// constants, the cost class to its dense index. Shift immediates
    /// must already be architectural amounts (`LSRS`/`ASRS` 1..=32); the
    /// predecoder resolves the imm5 = 0 encoding to 32. Control flow,
    /// invalid pool slots (the executor raises `BadLiteral` at the same
    /// retired index) and `LSLS #0` lower to [`MicroOp::BLOCKED`].
    #[inline(always)]
    pub(crate) fn lower(instr: Instr, pool: &[u32]) -> MicroOp {
        use Instr as I;
        use MicroKind as K;
        let lo = Machine::lo;
        let new = |kind: MicroKind, a: usize, b: usize, c: usize, imm: u32| {
            Self::new(kind, instr.class(), a, b, c, imm)
        };
        match instr {
            I::LdrImm { rt, rn, imm_words } => new(K::LdrOff, lo(rt), lo(rn), 0, imm_words),
            I::StrImm { rt, rn, imm_words } => new(K::StrOff, lo(rt), lo(rn), 0, imm_words),
            I::LdrSp { rt, imm_words } => new(K::LdrOff, lo(rt), Reg::Sp.index(), 0, imm_words),
            I::StrSp { rt, imm_words } => new(K::StrOff, lo(rt), Reg::Sp.index(), 0, imm_words),
            I::LdrReg { rt, rn, rm } => new(K::LdrReg, lo(rt), lo(rn), lo(rm), 0),
            I::StrReg { rt, rn, rm } => new(K::StrReg, lo(rt), lo(rn), lo(rm), 0),
            I::LdrLit { rt, imm_words } => match pool.get(imm_words as usize) {
                Some(&value) => new(K::Const, lo(rt), 0, 0, value),
                None => Self::BLOCKED,
            },
            I::MovsImm { rd, imm } => new(K::MovsImm, lo(rd), 0, 0, imm as u32),
            I::Mov { rd, rm } => new(K::MovAny, rd.index(), rm.index(), 0, 0),
            I::Uxth { rd, rm } => new(K::Uxth, lo(rd), lo(rm), 0, 0),
            I::Eors { rdn, rm } => new(K::Eors, lo(rdn), lo(rm), 0, 0),
            I::Ands { rdn, rm } => new(K::Ands, lo(rdn), lo(rm), 0, 0),
            I::Orrs { rdn, rm } => new(K::Orrs, lo(rdn), lo(rm), 0, 0),
            I::Bics { rdn, rm } => new(K::Bics, lo(rdn), lo(rm), 0, 0),
            I::Mvns { rd, rm } => new(K::Mvns, lo(rd), lo(rm), 0, 0),
            I::Tst { rn, rm } => new(K::Tst, lo(rn), lo(rm), 0, 0),
            I::LslsImm { imm: 0, .. } => Self::BLOCKED,
            I::LslsImm { rd, rm, imm } => new(K::LslsImm, lo(rd), lo(rm), 0, imm),
            I::LsrsImm { rd, rm, imm } => new(K::LsrsImm, lo(rd), lo(rm), 0, imm),
            I::AsrsImm { rd, rm, imm } => new(K::AsrsImm, lo(rd), lo(rm), 0, imm),
            I::LslsReg { rdn, rm } => new(K::LslsReg, lo(rdn), lo(rm), 0, 0),
            I::LsrsReg { rdn, rm } => new(K::LsrsReg, lo(rdn), lo(rm), 0, 0),
            I::AddsReg { rd, rn, rm } => new(K::AddsReg, lo(rd), lo(rn), lo(rm), 0),
            I::AddsImm8 { rdn, imm } => new(K::AddsImm8, lo(rdn), 0, 0, imm as u32),
            I::Adcs { rdn, rm } => new(K::Adcs, lo(rdn), lo(rm), 0, 0),
            I::SubsReg { rd, rn, rm } => new(K::SubsReg, lo(rd), lo(rn), lo(rm), 0),
            I::SubsImm8 { rdn, imm } => new(K::SubsImm8, lo(rdn), 0, 0, imm as u32),
            I::Sbcs { rdn, rm } => new(K::Sbcs, lo(rdn), lo(rm), 0, 0),
            I::Rsbs { rd, rn } => new(K::Rsbs, lo(rd), lo(rn), 0, 0),
            I::CmpReg { rn, rm } => new(K::CmpReg, lo(rn), lo(rm), 0, 0),
            I::CmpImm { rn, imm } => new(K::CmpImm, lo(rn), 0, 0, imm as u32),
            I::Muls { rdn, rm } => new(K::Muls, lo(rdn), lo(rm), 0, 0),
            I::Nop => new(K::Nop, 0, 0, 0, 0),
            I::Push { reg_count } | I::Pop { reg_count } => {
                new(K::Stack, 0, 0, 0, reg_count as u32)
            }
            I::BCond { .. } | I::B | I::Bl | I::Bx => Self::BLOCKED,
        }
    }
}

#[cold]
#[inline(never)]
fn blocked() -> ! {
    panic!("blocked micro-op executed (LSLS #0 is not modeled)")
}

/// RAM page size, in words, of a [`StateDelta`].
const PAGE_WORDS: usize = 64;

/// A machine's run state stored against a base machine (see
/// [`Machine::delta_from`]): only the RAM pages that differ from the
/// base are kept.
#[derive(Debug, Clone)]
pub(crate) struct StateDelta {
    regs: [u32; 15],
    flags: Flags,
    /// Indices of the pages that differ from the base, ascending.
    pages: Vec<u32>,
    /// Those pages' words, concatenated in `pages` order.
    words: Vec<u32>,
    counts: ClassCounts,
    cycles: u64,
    energy_pj: f64,
    by_category: [CategoryTotals; Category::ALL.len()],
    category_override: Option<Category>,
}

/// The instrumented Cortex-M0+ model. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct Machine {
    regs: [u32; 15],
    flags: Flags,
    mem: Vec<u32>,
    brk: u32,
    counts: ClassCounts,
    cycles: u64,
    energy_pj: f64,
    model: EnergyModel,
    clock_hz: u64,
    category_stack: Vec<Category>,
    category_override: Option<Category>,
    by_category: [CategoryTotals; Category::ALL.len()],
    recording: Option<Recording>,
    trace: Option<crate::trace::Trace>,
    trace_instr: Option<Instr>,
    trace_addr: Option<u32>,
}

/// The machine is its own capture host (see
/// [`crate::fault::RecordedKernel::capture`]).
impl AsMut<Machine> for Machine {
    fn as_mut(&mut self) -> &mut Machine {
        self
    }
}

impl Machine {
    /// Creates a machine with `mem_words` words of RAM and the default
    /// Cortex-M0+ energy model.
    pub fn new(mem_words: usize) -> Self {
        Self::with_target(mem_words, crate::target::default_target())
    }

    /// Creates a machine costed for a [`crate::target::TargetSpec`]:
    /// its cycle table, its pJ/cycle table and its clock. With the
    /// default target this is [`Machine::new`].
    pub fn with_target(mem_words: usize, target: &crate::target::TargetSpec) -> Self {
        Machine {
            regs: [0; 15],
            flags: Flags::default(),
            mem: vec![0; mem_words],
            brk: 0,
            counts: ClassCounts::default(),
            cycles: 0,
            energy_pj: 0.0,
            model: EnergyModel::for_target(target),
            clock_hz: target.clock_hz(),
            category_stack: Vec::new(),
            category_override: None,
            by_category: [CategoryTotals::default(); Category::ALL.len()],
            recording: None,
            trace: None,
            trace_instr: None,
            trace_addr: None,
        }
    }

    // ------------------------------------------------------------------
    // Un-costed setup / inspection API (the "debugger view").
    // ------------------------------------------------------------------

    /// Reserves `words` words of RAM and returns their base address.
    ///
    /// # Panics
    ///
    /// Panics if the machine runs out of RAM.
    pub fn alloc(&mut self, words: usize) -> Addr {
        let base = self.brk;
        let end = base as usize + words;
        assert!(end <= self.mem.len(), "machine out of RAM");
        self.brk = end as u32;
        Addr(base)
    }

    /// Writes `data` into RAM without charging cycles (test/benchmark
    /// setup; the DMA of the simulator, so to speak).
    pub fn write_slice(&mut self, addr: Addr, data: &[u32]) {
        let base = addr.0 as usize;
        self.mem[base..base + data.len()].copy_from_slice(data);
    }

    /// Reads `len` words from RAM without charging cycles.
    pub fn read_slice(&self, addr: Addr, len: usize) -> Vec<u32> {
        let base = addr.0 as usize;
        self.mem[base..base + len].to_vec()
    }

    /// Total RAM size in words.
    pub fn ram_words(&self) -> usize {
        self.mem.len()
    }

    /// Words handed out by [`Machine::alloc`] so far (the break).
    pub fn allocated_words(&self) -> u32 {
        self.brk
    }

    /// Reads one RAM word without charging cycles, or `None` when the
    /// word address is out of range.
    pub fn peek(&self, word: u32) -> Option<u32> {
        self.mem.get(word as usize).copied()
    }

    /// Flips one bit of a RAM word — the fault-injection primitive for
    /// a memory upset. Un-costed (the glitch is not an instruction) and
    /// never panics: returns `false` when `word` is out of range.
    pub fn flip_mem_bit(&mut self, word: u32, bit: u32) -> bool {
        match self.mem.get_mut(word as usize) {
            Some(w) => {
                *w ^= 1 << (bit % 32);
                true
            }
            None => false,
        }
    }

    /// Flips one bit of register `r` — the fault-injection primitive
    /// for a register upset. Un-costed, and deliberately *not* routed
    /// through [`Machine::set_reg`] so an active recording does not
    /// capture the glitch as a legitimate positioned write.
    pub fn flip_reg_bit(&mut self, r: Reg, bit: u32) {
        self.regs[r.index()] ^= 1 << (bit % 32);
    }

    /// Current value of register `r`.
    pub fn reg(&self, r: Reg) -> u32 {
        self.regs[r.index()]
    }

    /// Sets register `r` without charging cycles (setup only). With
    /// recording active the write is captured as a positioned
    /// [`RecordedSetReg`] so a replay can reapply it.
    pub fn set_reg(&mut self, r: Reg, value: u32) {
        self.regs[r.index()] = value;
        if let Some(rec) = self.recording.as_mut() {
            rec.reg_writes.push(RecordedSetReg {
                at: rec.steps.len(),
                reg: r,
                value,
            });
        }
    }

    /// Points register `r` at `addr` without charging cycles. Kernels use
    /// this for arguments that would arrive in registers per the AAPCS
    /// calling convention.
    pub fn set_base(&mut self, r: Reg, addr: Addr) {
        self.set_reg(r, addr.to_base_register_value());
    }

    /// Total cycles executed so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Total energy consumed so far, in picojoules.
    pub fn energy_pj(&self) -> f64 {
        self.energy_pj
    }

    /// Per-class instruction counts.
    pub fn counts(&self) -> &ClassCounts {
        &self.counts
    }

    /// The energy model in use.
    pub fn model(&self) -> &EnergyModel {
        &self.model
    }

    /// The clock frequency this machine's time/power figures assume
    /// (set by the target; [`crate::CLOCK_HZ`] by default).
    pub fn clock_hz(&self) -> u64 {
        self.clock_hz
    }

    /// Captures the current counters so a later [`Machine::report_since`]
    /// can compute a delta.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            cycles: self.cycles,
            energy_pj: self.energy_pj,
            counts: self.counts.clone(),
            by_category: self.by_category.to_vec(),
        }
    }

    /// Builds a [`RunReport`] for everything executed since `snapshot`.
    pub fn report_since(&self, snapshot: &Snapshot) -> RunReport {
        RunReport::from_delta(snapshot, &self.snapshot(), self.clock_hz)
    }

    /// Builds a [`RunReport`] for the machine's whole life.
    pub fn report(&self) -> RunReport {
        let zero = Snapshot {
            cycles: 0,
            energy_pj: 0.0,
            counts: ClassCounts::default(),
            by_category: vec![CategoryTotals::default(); Category::ALL.len()],
        };
        RunReport::from_delta(&zero, &self.snapshot(), self.clock_hz)
    }

    /// Asserts that `self` and `other` agree on every piece of
    /// architectural and accounting state: registers, flags, memory,
    /// allocation break, cycles, bitwise-identical energy, per-class
    /// counts and per-category totals.
    /// [`crate::fault::RecordedKernel::assert_replays_to`] uses this to
    /// prove a machine-code replay equivalent to the virtual-assembly
    /// run.
    ///
    /// # Panics
    ///
    /// Panics (with `context` in the message) on the first divergence.
    pub fn assert_same_state(&self, other: &Machine, context: &str) {
        assert_eq!(self.regs, other.regs, "{context}: registers diverged");
        assert_eq!(self.flags, other.flags, "{context}: flags diverged");
        assert_eq!(self.brk, other.brk, "{context}: heap break diverged");
        assert_eq!(
            self.cycles, other.cycles,
            "{context}: cycle totals diverged"
        );
        assert_eq!(
            self.energy_pj.to_bits(),
            other.energy_pj.to_bits(),
            "{context}: energy diverged ({} pJ vs {} pJ)",
            self.energy_pj,
            other.energy_pj
        );
        assert_eq!(
            self.counts, other.counts,
            "{context}: instruction mix diverged"
        );
        for (i, c) in Category::ALL.iter().enumerate() {
            let a = self.by_category[i];
            let b = other.by_category[i];
            assert_eq!(a.cycles, b.cycles, "{context}: {c} cycles diverged");
            assert_eq!(
                a.energy_pj.to_bits(),
                b.energy_pj.to_bits(),
                "{context}: {c} energy diverged"
            );
        }
        assert_eq!(self.mem, other.mem, "{context}: memory diverged");
    }

    /// Everything an executor run can change on this machine, stored
    /// against `base` (a machine this one was cloned from): registers,
    /// flags, the RAM pages that differ from `base`'s, cycles, the f64
    /// energy totals, instruction counts, per-category totals and the
    /// category override.
    pub(crate) fn delta_from(&self, base: &Machine) -> StateDelta {
        debug_assert_eq!(self.mem.len(), base.mem.len(), "not a clone of base");
        let mut pages = Vec::new();
        let mut words = Vec::new();
        let chunks = self.mem.chunks(PAGE_WORDS).zip(base.mem.chunks(PAGE_WORDS));
        for (page, (mine, theirs)) in chunks.enumerate() {
            if mine != theirs {
                pages.push(page as u32);
                words.extend_from_slice(mine);
            }
        }
        StateDelta {
            regs: self.regs,
            flags: self.flags,
            pages,
            words,
            counts: self.counts.clone(),
            cycles: self.cycles,
            energy_pj: self.energy_pj,
            by_category: self.by_category,
            category_override: self.category_override,
        }
    }

    /// Puts `delta` on this machine, which must be a clone of the base
    /// the delta was taken against: afterwards it is bit for bit the
    /// machine the delta was taken from.
    pub(crate) fn restore(&mut self, delta: &StateDelta) {
        self.regs = delta.regs;
        self.flags = delta.flags;
        for (page, words) in delta.pages.iter().zip(delta.words.chunks(PAGE_WORDS)) {
            let start = *page as usize * PAGE_WORDS;
            self.mem[start..start + words.len()].copy_from_slice(words);
        }
        self.counts.clone_from(&delta.counts);
        self.cycles = delta.cycles;
        self.energy_pj = delta.energy_pj;
        self.by_category = delta.by_category;
        self.category_override = delta.category_override;
    }

    /// Whether the flags, every register in `live_regs` (a mask with
    /// bit [`Reg::index`] per register) and every RAM word `live_word`
    /// accepts equal those of the machine `delta` was taken from,
    /// `base` being the delta's base. Counters are not compared, nor
    /// are dead registers and words: a run that reads only these
    /// locations before writing the rest retires the same instructions
    /// on the same values from here on, whatever it charged so far.
    pub(crate) fn same_live_state(
        &self,
        base: &Machine,
        delta: &StateDelta,
        live_regs: u16,
        live_word: impl Fn(u32) -> bool,
    ) -> bool {
        let live_reg_changed =
            (0..self.regs.len()).any(|r| live_regs >> r & 1 != 0 && self.regs[r] != delta.regs[r]);
        if self.flags != delta.flags || live_reg_changed {
            return false;
        }
        let mut dirty = delta
            .pages
            .iter()
            .zip(delta.words.chunks(PAGE_WORDS))
            .peekable();
        let chunks = self.mem.chunks(PAGE_WORDS).zip(base.mem.chunks(PAGE_WORDS));
        for (page, (mine, theirs)) in chunks.enumerate() {
            let expected = match dirty.next_if(|(p, _)| **p as usize == page) {
                Some((_, words)) => words,
                None => theirs,
            };
            if mine != expected {
                let first = (page * PAGE_WORDS) as u32;
                let live_change = (0u32..)
                    .zip(mine.iter().zip(expected))
                    .any(|(i, (x, y))| x != y && live_word(first + i));
                if live_change {
                    return false;
                }
            }
        }
        true
    }

    // ------------------------------------------------------------------
    // Category attribution.
    // ------------------------------------------------------------------

    /// Runs `f` with all executed instructions attributed to `category`.
    ///
    /// Categories nest; the innermost wins (this matches how the paper
    /// splits the multiplication's look-up-table generation out of the
    /// multiplication total in its Table 7).
    pub fn in_category<T>(&mut self, category: Category, f: impl FnOnce(&mut Machine) -> T) -> T {
        self.category_stack.push(category);
        let out = f(self);
        self.category_stack.pop();
        out
    }

    /// Runs `f` with *every* instruction force-attributed to `category`,
    /// regardless of nested [`Machine::in_category`] scopes.
    ///
    /// The paper's Table 7 needs this: during the wTNAF point
    /// precomputation phase, field multiplications and squarings are
    /// charged to *TNAF Precomputation*, not to their own categories.
    pub fn with_category_override<T>(
        &mut self,
        category: Category,
        f: impl FnOnce(&mut Machine) -> T,
    ) -> T {
        let prev = self.category_override.replace(category);
        let out = f(self);
        self.category_override = prev;
        out
    }

    /// The currently forced category, if any.
    pub fn category_override(&self) -> Option<Category> {
        self.category_override
    }

    /// Sets or clears the forced category. Prefer
    /// [`Machine::with_category_override`]; this escape hatch exists for
    /// wrappers that own the machine and need to scope the override
    /// around a closure over themselves.
    pub fn set_category_override(&mut self, category: Option<Category>) {
        self.category_override = category;
    }

    /// Cycle/energy totals attributed to `category` so far.
    pub fn category_totals(&self, category: Category) -> CategoryTotals {
        self.by_category[category.index()]
    }

    #[inline]
    pub(crate) fn current_category(&self) -> Category {
        self.category_override
            .unwrap_or_else(|| *self.category_stack.last().unwrap_or(&Category::Support))
    }

    // ------------------------------------------------------------------
    // Cost recording.
    // ------------------------------------------------------------------

    /// Starts capturing every executed instruction as a decodable
    /// [`Instr`] (see [`crate::isa`]) together with its attributed
    /// category, literal values and interleaved un-costed register
    /// writes. Replaces any previous capture.
    pub fn start_recording(&mut self) {
        self.recording = Some(Recording::default());
    }

    /// Stops capturing and returns the captured [`Recording`].
    pub fn take_recording(&mut self) -> Recording {
        self.recording.take().unwrap_or_default()
    }

    /// Starts capturing a canonical [`crate::trace::Trace`] (instruction
    /// stream, effective memory addresses, per-instruction cycles — the
    /// power attacker's observables). Replaces any previous capture.
    /// Un-costed setup accesses ([`Machine::write_slice`],
    /// [`Machine::set_reg`], …) are not captured: they model host/DMA
    /// activity, not executed instructions.
    pub fn start_trace(&mut self) {
        self.trace = Some(crate::trace::Trace::default());
        self.trace_instr = None;
        self.trace_addr = None;
    }

    /// Stops trace capture and returns the captured trace (empty if
    /// capture was never armed).
    pub fn take_trace(&mut self) -> crate::trace::Trace {
        self.trace.take().unwrap_or_default()
    }

    #[inline]
    fn rec(&mut self, instr: Instr) {
        self.rec_with(instr, None, None);
    }

    #[inline]
    fn rec_with(&mut self, instr: Instr, literal: Option<u32>, word: Option<u32>) {
        if self.recording.is_some() {
            let category = self.current_category();
            if let Some(rec) = self.recording.as_mut() {
                rec.steps.push(RecordedStep {
                    instr,
                    category,
                    literal,
                    word,
                });
            }
        }
        if self.trace.is_some() {
            self.trace_instr = Some(instr);
            self.trace_addr = word;
        }
    }

    #[inline]
    fn record(&mut self, class: InstrClass) {
        let cycles = self.model.cycles_of(class);
        let energy = self.model.picojoules_per_instr(class);
        self.cycles += cycles;
        self.energy_pj += energy;
        self.counts.bump(class);
        let cat = self.current_category();
        let t = &mut self.by_category[cat.index()];
        t.cycles += cycles;
        t.energy_pj += energy;
        if self.trace.is_some() {
            let instr = self.trace_instr.take();
            let addr = self.trace_addr.take();
            if let Some(trace) = self.trace.as_mut() {
                trace.events.push(crate::trace::TraceEvent {
                    instr,
                    class,
                    addr,
                    cycles,
                });
            }
        }
    }

    /// Executes a lowered straight-line superblock: [`Machine::apply`]
    /// and the cost of every [`MicroOp`] in order, charged against an
    /// already-resolved category — the superblock fast path of
    /// [`crate::exec`] resolves the category once per block (nothing
    /// can change it while the control hook is dormant) and carries no
    /// trace plumbing (blocks never run while a capture is armed).
    ///
    /// The accounting adds the same `f64` values to the same
    /// accumulators in the same order as [`Machine::record`] — a
    /// conditional branch charges its taken or not-taken class, a
    /// `PUSH`/`POP` one Mov-class base cycle then one stack word at a
    /// time — so cycle, count and energy totals stay bit-identical to
    /// per-step execution; the hot totals simply live in locals for the
    /// duration of the block. On an out-of-range memory operand the
    /// prefix stays applied and charged, the faulting op retires
    /// nothing, and `Err((position, word address))` reproduces the
    /// per-step error state exactly.
    pub(crate) fn run_block(&mut self, ops: &[MicroOp], cat: Category) -> Result<(), (usize, u64)> {
        const MOV: usize = InstrClass::Mov.index();
        const STACK_WORD: usize = InstrClass::StackWord.index();
        let cat_idx = cat.index();
        let mut cycles = self.cycles;
        let mut energy = self.energy_pj;
        let mut totals = self.by_category[cat_idx];
        let mut fault: Option<(usize, u64)> = None;
        for (i, &op) in ops.iter().enumerate() {
            if let Err(addr) = self.apply(op) {
                fault = Some((i, addr));
                break;
            }
            match op.kind {
                MicroKind::BCondFall(cond) => {
                    // Taken and not-taken charge different classes;
                    // control falls through either way (the target is
                    // the next position).
                    let class = if self.cond(cond) {
                        InstrClass::BranchTaken
                    } else {
                        InstrClass::BranchNotTaken
                    };
                    let e = self.model.pj_per_instr_idx(class.index());
                    let cyc = self.model.cycles_idx(class.index());
                    cycles += cyc;
                    energy += e;
                    self.counts.bump_idx(class.index());
                    totals.cycles += cyc;
                    totals.energy_pj += e;
                }
                MicroKind::Stack => {
                    // One Mov-class base cycle plus `imm` stack words,
                    // exactly the split `stack_transfer` charges.
                    let base = self.model.pj_per_instr_idx(MOV);
                    let base_cyc = self.model.cycles_idx(MOV);
                    cycles += base_cyc;
                    energy += base;
                    self.counts.bump_idx(MOV);
                    totals.cycles += base_cyc;
                    totals.energy_pj += base;
                    let word = self.model.pj_per_instr_idx(STACK_WORD);
                    let word_cyc = self.model.cycles_idx(STACK_WORD);
                    for _ in 0..op.imm {
                        cycles += word_cyc;
                        energy += word;
                        self.counts.bump_idx(STACK_WORD);
                        totals.cycles += word_cyc;
                        totals.energy_pj += word;
                    }
                }
                _ => {
                    let e = self.model.pj_per_instr_idx(op.class_idx as usize);
                    cycles += op.cycles as u64;
                    energy += e;
                    self.counts.bump_idx(op.class_idx as usize);
                    totals.cycles += op.cycles as u64;
                    totals.energy_pj += e;
                }
            }
        }
        self.cycles = cycles;
        self.energy_pj = energy;
        self.by_category[cat_idx] = totals;
        match fault {
            Some(f) => Err(f),
            None => Ok(()),
        }
    }

    /// The one definition of every data instruction: applies `op` to
    /// registers, flags and memory, and charges nothing. Memory
    /// operands are range-checked in `u64`, so a corrupted base register
    /// can neither wrap nor index past RAM; on `Err(word address)` the
    /// machine is untouched. Charge-only ops (`NOP`, stack transfers,
    /// fall-through branches) change nothing here.
    ///
    /// [`Machine::run_block`], the executor's per-step path and every
    /// Direct method (through [`Machine::retire`]) run this.
    #[inline(always)]
    pub(crate) fn apply(&mut self, op: MicroOp) -> Result<(), u64> {
        use MicroKind as K;
        let (a, b, c) = (op.a as usize, op.b as usize, op.c as usize);
        match op.kind {
            // One arm per addressing form, so each arm's inlined `word`
            // knows which offset it adds.
            K::LdrOff => self.regs[a] = self.mem[self.word(op)?],
            K::LdrReg => self.regs[a] = self.mem[self.word(op)?],
            K::StrOff => {
                let w = self.word(op)?;
                self.mem[w] = self.regs[a];
            }
            K::StrReg => {
                let w = self.word(op)?;
                self.mem[w] = self.regs[a];
            }
            K::Const => self.regs[a] = op.imm,
            K::MovsImm => self.write_nz(a, op.imm),
            K::MovAny => self.regs[a] = self.regs[b],
            K::Uxth => self.regs[a] = self.regs[b] & 0xFFFF,
            K::Eors => self.write_nz(a, self.regs[a] ^ self.regs[b]),
            K::Ands => self.write_nz(a, self.regs[a] & self.regs[b]),
            K::Orrs => self.write_nz(a, self.regs[a] | self.regs[b]),
            K::Bics => self.write_nz(a, self.regs[a] & !self.regs[b]),
            K::Mvns => self.write_nz(a, !self.regs[b]),
            K::Tst => self.set_nz(self.regs[a] & self.regs[b]),
            K::Muls => self.write_nz(a, self.regs[a].wrapping_mul(self.regs[b])),
            K::LslsImm => {
                // 1 ≤ imm ≤ 31; carry receives the last bit shifted out.
                let x = self.regs[b];
                self.flags.c = (x >> (32 - op.imm)) & 1 != 0;
                self.write_nz(a, x << op.imm);
            }
            K::LsrsImm => {
                // 1 ≤ imm ≤ 32; 32 yields zero with carry = bit 31.
                let x = self.regs[b];
                self.flags.c = (x >> (op.imm - 1)) & 1 != 0;
                self.write_nz(a, if op.imm == 32 { 0 } else { x >> op.imm });
            }
            K::AsrsImm => {
                let x = self.regs[b] as i32;
                self.flags.c = ((x >> (op.imm - 1).min(31)) & 1) != 0;
                self.write_nz(a, (x >> op.imm.min(31)) as u32);
            }
            K::LslsReg => {
                // The amount is the low byte; 0 leaves carry alone and
                // anything past 32 clears it.
                let sh = self.regs[b] & 0xFF;
                let x = self.regs[a];
                if (1..=32).contains(&sh) {
                    self.flags.c = (x >> (32 - sh)) & 1 != 0;
                } else if sh > 32 {
                    self.flags.c = false;
                }
                self.write_nz(a, if sh >= 32 { 0 } else { x << sh });
            }
            K::LsrsReg => {
                let sh = self.regs[b] & 0xFF;
                let x = self.regs[a];
                if (1..=32).contains(&sh) {
                    self.flags.c = (x >> (sh - 1)) & 1 != 0;
                } else if sh > 32 {
                    self.flags.c = false;
                }
                self.write_nz(a, if sh >= 32 { 0 } else { x >> sh });
            }
            K::AddsReg => self.regs[a] = self.add_with_carry(self.regs[b], self.regs[c], false),
            K::AddsImm8 => self.regs[a] = self.add_with_carry(self.regs[a], op.imm, false),
            K::Adcs => self.regs[a] = self.add_with_carry(self.regs[a], self.regs[b], self.flags.c),
            K::SubsReg => self.regs[a] = self.add_with_carry(self.regs[b], !self.regs[c], true),
            K::SubsImm8 => self.regs[a] = self.add_with_carry(self.regs[a], !op.imm, true),
            K::Sbcs => {
                self.regs[a] = self.add_with_carry(self.regs[a], !self.regs[b], self.flags.c)
            }
            K::Rsbs => self.regs[a] = self.add_with_carry(!self.regs[b], 0, true),
            K::CmpReg => {
                self.add_with_carry(self.regs[a], !self.regs[b], true);
            }
            K::CmpImm => {
                self.add_with_carry(self.regs[a], !op.imm, true);
            }
            K::Nop | K::Stack | K::BranchFall | K::BCondFall(_) => {}
            K::Blocked => blocked(),
        }
        Ok(())
    }

    /// The RAM index a load/store `op` touches, or `Err` with its word
    /// address (summed in `u64`) when that lies outside RAM.
    #[inline(always)]
    fn word(&self, op: MicroOp) -> Result<usize, u64> {
        let off = match op.kind {
            MicroKind::LdrReg | MicroKind::StrReg => self.regs[op.c as usize],
            _ => op.imm,
        };
        let addr = self.regs[op.b as usize] as u64 + off as u64;
        if addr < self.mem.len() as u64 {
            Ok(addr as usize)
        } else {
            Err(addr)
        }
    }

    /// Retires one data instruction: [`Machine::apply`]s `op` and
    /// charges `instr`'s class. With a recording or trace armed it goes
    /// through [`Machine::retire_captured`] instead. The Direct methods
    /// and the executor's per-step path both end here. On `Err(word
    /// address)` nothing is applied, captured or charged.
    #[inline(always)]
    pub(crate) fn retire(
        &mut self,
        op: MicroOp,
        instr: Instr,
        literal: Option<u32>,
    ) -> Result<(), u64> {
        if self.block_capture_active() {
            return self.retire_captured(op, instr, literal);
        }
        self.apply(op)?;
        self.record(instr.class());
        Ok(())
    }

    /// [`Machine::retire`] with a capture armed: also captures `instr`
    /// (with `literal` for pool loads, and the effective word of a load
    /// or store, read before `op` can change its base register) for the
    /// recording or trace.
    fn retire_captured(
        &mut self,
        op: MicroOp,
        instr: Instr,
        literal: Option<u32>,
    ) -> Result<(), u64> {
        let word = if op.touches_memory() {
            self.word(op).ok().map(|w| w as u32)
        } else {
            None
        };
        self.apply(op)?;
        self.rec_with(instr, literal, word);
        self.record(instr.class());
        Ok(())
    }

    /// Runs one data instruction on the Direct path: lowers it (no
    /// cycle-table lookup; [`Machine::record`] prices it from the
    /// model) and retires it.
    ///
    /// # Panics
    ///
    /// Panics on a hi register where ARMv6-M requires a lo one, and on
    /// a memory operand outside RAM.
    #[inline(always)]
    fn step(&mut self, instr: Instr) {
        self.step_with(instr, None);
    }

    /// [`Machine::step`] for a literal-pool load carrying its constant.
    #[inline(always)]
    fn step_with(&mut self, instr: Instr, literal: Option<u32>) {
        let op = MicroOp::lower(instr, literal.as_slice());
        if let Err(addr) = self.retire(op, instr, literal) {
            self.out_of_ram(instr, addr);
        }
    }

    #[cold]
    #[inline(never)]
    fn out_of_ram(&self, instr: Instr, addr: u64) -> ! {
        panic!(
            "{instr}: word address {addr} is outside RAM ({} words)",
            self.mem.len()
        );
    }

    /// Whether an instruction-stream capture is armed (a recording or
    /// a trace). Superblock execution must fall back to the per-step
    /// path while this holds so every instruction is captured at its
    /// own position.
    #[inline]
    pub(crate) fn block_capture_active(&self) -> bool {
        self.recording.is_some() || self.trace.is_some()
    }

    #[inline(always)]
    fn set_nz(&mut self, value: u32) {
        self.flags.n = (value as i32) < 0;
        self.flags.z = value == 0;
    }

    /// Writes `value` to register `a` and sets N/Z from it.
    #[inline(always)]
    fn write_nz(&mut self, a: usize, value: u32) {
        self.regs[a] = value;
        self.set_nz(value);
    }

    fn lo(r: Reg) -> usize {
        assert!(
            r.is_lo(),
            "ARMv6-M data-processing instructions require lo registers, got {r}"
        );
        r.index()
    }

    // ------------------------------------------------------------------
    // Memory instructions (2 cycles each).
    // ------------------------------------------------------------------

    /// `LDR rt, [rn, #off]` — loads the word at `rn + off` (word offset).
    ///
    /// # Panics
    ///
    /// Panics if either register is a hi register or the address is out of
    /// bounds.
    pub fn ldr(&mut self, rt: Reg, rn: Reg, off_words: u32) {
        self.step(Instr::LdrImm {
            rt,
            rn,
            imm_words: off_words,
        });
    }

    /// `STR rt, [rn, #off]` — stores `rt` to `rn + off` (word offset).
    pub fn str(&mut self, rt: Reg, rn: Reg, off_words: u32) {
        self.step(Instr::StrImm {
            rt,
            rn,
            imm_words: off_words,
        });
    }

    /// `LDR rt, [sp, #off]` — stack-relative load. ARMv6-M addresses the
    /// stack frame without consuming a general-purpose base register,
    /// which is how the fixed-register multiplier frees a register for an
    /// accumulator word.
    pub fn ldr_sp(&mut self, rt: Reg, off_words: u32) {
        self.step(Instr::LdrSp {
            rt,
            imm_words: off_words,
        });
    }

    /// `STR rt, [sp, #off]` — stack-relative store.
    pub fn str_sp(&mut self, rt: Reg, off_words: u32) {
        self.step(Instr::StrSp {
            rt,
            imm_words: off_words,
        });
    }

    /// `LDR rt, [rn, rm]` — register-offset load.
    pub fn ldr_reg(&mut self, rt: Reg, rn: Reg, rm: Reg) {
        self.step(Instr::LdrReg { rt, rn, rm });
    }

    /// `STR rt, [rn, rm]` — register-offset store.
    pub fn str_reg(&mut self, rt: Reg, rn: Reg, rm: Reg) {
        self.step(Instr::StrReg { rt, rn, rm });
    }

    // ------------------------------------------------------------------
    // Moves.
    // ------------------------------------------------------------------

    /// `MOVS rd, #imm8` — move 8-bit immediate, sets N/Z.
    pub fn movs_imm(&mut self, rd: Reg, imm: u8) {
        self.step(Instr::MovsImm { rd, imm });
    }

    /// Materialises a full 32-bit constant.
    ///
    /// ARMv6-M has no wide-immediate move; real code uses a literal-pool
    /// `LDR`, which is what this helper charges (2 cycles).
    pub fn ldr_const(&mut self, rd: Reg, value: u32) {
        // The slot index is assigned at assembly time; the recording
        // carries the value so the assembler can build the pool.
        self.step_with(
            Instr::LdrLit {
                rt: rd,
                imm_words: 0,
            },
            Some(value),
        );
    }

    /// `MOV rd, rm` — register move; hi registers allowed, flags untouched.
    pub fn mov(&mut self, rd: Reg, rm: Reg) {
        self.step(Instr::Mov { rd, rm });
    }

    // ------------------------------------------------------------------
    // Bitwise logic and shifts (lo registers only).
    // ------------------------------------------------------------------

    /// `EORS rdn, rm` — exclusive or.
    pub fn eors(&mut self, rdn: Reg, rm: Reg) {
        self.step(Instr::Eors { rdn, rm });
    }

    /// `ANDS rdn, rm`.
    pub fn ands(&mut self, rdn: Reg, rm: Reg) {
        self.step(Instr::Ands { rdn, rm });
    }

    /// `ORRS rdn, rm`.
    pub fn orrs(&mut self, rdn: Reg, rm: Reg) {
        self.step(Instr::Orrs { rdn, rm });
    }

    /// `BICS rdn, rm` — bit clear.
    pub fn bics(&mut self, rdn: Reg, rm: Reg) {
        self.step(Instr::Bics { rdn, rm });
    }

    /// `MVNS rd, rm` — bitwise not.
    pub fn mvns(&mut self, rd: Reg, rm: Reg) {
        self.step(Instr::Mvns { rd, rm });
    }

    /// `TST rn, rm` — AND, flags only.
    pub fn tst(&mut self, rn: Reg, rm: Reg) {
        self.step(Instr::Tst { rn, rm });
    }

    /// `LSLS rd, rm, #imm` — logical shift left by an immediate
    /// (1 ≤ imm ≤ 31). Carry receives the last bit shifted out.
    pub fn lsls_imm(&mut self, rd: Reg, rm: Reg, imm: u32) {
        assert!((1..=31).contains(&imm), "LSLS immediate must be 1..=31");
        self.step(Instr::LslsImm { rd, rm, imm });
    }

    /// `LSRS rd, rm, #imm` — logical shift right by an immediate
    /// (1 ≤ imm ≤ 32; 32 yields zero with carry = bit 31).
    pub fn lsrs_imm(&mut self, rd: Reg, rm: Reg, imm: u32) {
        assert!((1..=32).contains(&imm), "LSRS immediate must be 1..=32");
        self.step(Instr::LsrsImm { rd, rm, imm });
    }

    /// `LSLS rdn, rm` — shift left by a register amount (low byte used).
    pub fn lsls_reg(&mut self, rdn: Reg, rm: Reg) {
        self.step(Instr::LslsReg { rdn, rm });
    }

    /// `LSRS rdn, rm` — shift right by a register amount (low byte used).
    pub fn lsrs_reg(&mut self, rdn: Reg, rm: Reg) {
        self.step(Instr::LsrsReg { rdn, rm });
    }

    /// `ASRS rd, rm, #imm` — arithmetic shift right.
    pub fn asrs_imm(&mut self, rd: Reg, rm: Reg, imm: u32) {
        assert!((1..=32).contains(&imm), "ASRS immediate must be 1..=32");
        self.step(Instr::AsrsImm { rd, rm, imm });
    }

    // ------------------------------------------------------------------
    // Arithmetic.
    // ------------------------------------------------------------------

    #[inline(always)]
    fn add_with_carry(&mut self, a: u32, b: u32, carry_in: bool) -> u32 {
        let (s1, c1) = a.overflowing_add(b);
        let (s2, c2) = s1.overflowing_add(carry_in as u32);
        self.flags.c = c1 || c2;
        let sa = a as i32;
        let sb = b as i32;
        let (t1, o1) = sa.overflowing_add(sb);
        let (_, o2) = t1.overflowing_add(carry_in as i32);
        self.flags.v = o1 ^ o2;
        self.set_nz(s2);
        s2
    }

    /// `ADDS rd, rn, rm`.
    pub fn adds(&mut self, rd: Reg, rn: Reg, rm: Reg) {
        self.step(Instr::AddsReg { rd, rn, rm });
    }

    /// `ADDS rdn, #imm8`.
    pub fn adds_imm(&mut self, rdn: Reg, imm: u8) {
        self.step(Instr::AddsImm8 { rdn, imm });
    }

    /// `ADCS rdn, rm` — add with carry (multi-precision arithmetic).
    pub fn adcs(&mut self, rdn: Reg, rm: Reg) {
        self.step(Instr::Adcs { rdn, rm });
    }

    /// `SUBS rd, rn, rm`.
    pub fn subs(&mut self, rd: Reg, rn: Reg, rm: Reg) {
        self.step(Instr::SubsReg { rd, rn, rm });
    }

    /// `SUBS rdn, #imm8`.
    pub fn subs_imm(&mut self, rdn: Reg, imm: u8) {
        self.step(Instr::SubsImm8 { rdn, imm });
    }

    /// `SBCS rdn, rm` — subtract with carry (borrow).
    pub fn sbcs(&mut self, rdn: Reg, rm: Reg) {
        self.step(Instr::Sbcs { rdn, rm });
    }

    /// `RSBS rd, rn, #0` — negate.
    pub fn rsbs(&mut self, rd: Reg, rn: Reg) {
        self.step(Instr::Rsbs { rd, rn });
    }

    /// `MULS rdn, rm` — 32×32→32 multiply (the only multiply ARMv6-M has;
    /// multi-precision code must split operands into 16-bit halves).
    pub fn muls(&mut self, rdn: Reg, rm: Reg) {
        self.step(Instr::Muls { rdn, rm });
    }

    /// `UXTH rd, rm` — zero-extend halfword (costed as a move).
    pub fn uxth(&mut self, rd: Reg, rm: Reg) {
        self.step(Instr::Uxth { rd, rm });
    }

    // ------------------------------------------------------------------
    // Compare and control flow.
    // ------------------------------------------------------------------

    /// `CMP rn, rm`.
    pub fn cmp(&mut self, rn: Reg, rm: Reg) {
        self.step(Instr::CmpReg { rn, rm });
    }

    /// `CMP rn, #imm8`.
    pub fn cmp_imm(&mut self, rn: Reg, imm: u8) {
        self.step(Instr::CmpImm { rn, imm });
    }

    /// Evaluates `cond` against the current flags *without* charging
    /// cycles (the check happens inside the branch instruction).
    pub fn cond(&self, cond: Cond) -> bool {
        let f = self.flags;
        match cond {
            Cond::Eq => f.z,
            Cond::Ne => !f.z,
            Cond::Hs => f.c,
            Cond::Lo => !f.c,
            Cond::Mi => f.n,
            Cond::Pl => !f.n,
            Cond::Ge => f.n == f.v,
            Cond::Lt => f.n != f.v,
            Cond::Gt => !f.z && f.n == f.v,
            Cond::Le => f.z || f.n != f.v,
        }
    }

    /// `B<cond>` — conditional branch. Charges 2 cycles if taken, 1 if
    /// not, and returns whether it was taken so the host loop can follow.
    pub fn b_cond(&mut self, cond: Cond) -> bool {
        let taken = self.cond(cond);
        self.rec(Instr::BCond { cond });
        self.record(if taken {
            InstrClass::BranchTaken
        } else {
            InstrClass::BranchNotTaken
        });
        taken
    }

    /// `B` — unconditional branch (2 cycles).
    pub fn b(&mut self) {
        self.rec(Instr::B);
        self.record(InstrClass::BranchTaken);
    }

    /// `BL` — call (3 cycles). The return `BX LR` is charged separately
    /// via [`Machine::bx`].
    pub fn bl(&mut self) {
        self.rec(Instr::Bl);
        self.record(InstrClass::Bl);
    }

    /// `BX lr` — return (2 cycles, pipeline refill).
    pub fn bx(&mut self) {
        self.rec(Instr::Bx);
        self.record(InstrClass::BranchTaken);
    }

    /// `PUSH`/`POP`/`LDM`/`STM` of `n` registers: 1 + n cycles.
    pub fn stack_transfer(&mut self, n: usize) {
        self.rec(Instr::Push { reg_count: n });
        self.record(InstrClass::Mov); // base cycle
        for _ in 0..n {
            self.record(InstrClass::StackWord);
        }
    }

    /// `NOP`.
    pub fn nop(&mut self) {
        self.step(Instr::Nop);
    }
}

#[cfg(test)]
impl Machine {
    /// Runs a decoded data instruction through its public Direct
    /// method — how the test oracles reach the Direct tier from an
    /// [`Instr`]. `LSRS`/`ASRS #0` decode as a shift by 32.
    pub(crate) fn direct(&mut self, instr: Instr) {
        use Instr::*;
        let by = |imm: u32| if imm == 0 { 32 } else { imm };
        match instr {
            LdrImm { rt, rn, imm_words } => self.ldr(rt, rn, imm_words),
            StrImm { rt, rn, imm_words } => self.str(rt, rn, imm_words),
            LdrSp { rt, imm_words } => self.ldr_sp(rt, imm_words),
            StrSp { rt, imm_words } => self.str_sp(rt, imm_words),
            LdrReg { rt, rn, rm } => self.ldr_reg(rt, rn, rm),
            StrReg { rt, rn, rm } => self.str_reg(rt, rn, rm),
            MovsImm { rd, imm } => self.movs_imm(rd, imm),
            Mov { rd, rm } => self.mov(rd, rm),
            Uxth { rd, rm } => self.uxth(rd, rm),
            Eors { rdn, rm } => self.eors(rdn, rm),
            Ands { rdn, rm } => self.ands(rdn, rm),
            Orrs { rdn, rm } => self.orrs(rdn, rm),
            Bics { rdn, rm } => self.bics(rdn, rm),
            Mvns { rd, rm } => self.mvns(rd, rm),
            Tst { rn, rm } => self.tst(rn, rm),
            LslsImm { rd, rm, imm } => self.lsls_imm(rd, rm, imm),
            LsrsImm { rd, rm, imm } => self.lsrs_imm(rd, rm, by(imm)),
            AsrsImm { rd, rm, imm } => self.asrs_imm(rd, rm, by(imm)),
            LslsReg { rdn, rm } => self.lsls_reg(rdn, rm),
            LsrsReg { rdn, rm } => self.lsrs_reg(rdn, rm),
            AddsReg { rd, rn, rm } => self.adds(rd, rn, rm),
            AddsImm8 { rdn, imm } => self.adds_imm(rdn, imm),
            Adcs { rdn, rm } => self.adcs(rdn, rm),
            SubsReg { rd, rn, rm } => self.subs(rd, rn, rm),
            SubsImm8 { rdn, imm } => self.subs_imm(rdn, imm),
            Sbcs { rdn, rm } => self.sbcs(rdn, rm),
            Rsbs { rd, rn } => self.rsbs(rd, rn),
            CmpReg { rn, rm } => self.cmp(rn, rm),
            CmpImm { rn, imm } => self.cmp_imm(rn, imm),
            Muls { rdn, rm } => self.muls(rdn, rm),
            Nop => self.nop(),
            LdrLit { .. } | Push { .. } | Pop { .. } | BCond { .. } | B | Bl | Bx => {
                unreachable!("{instr} is not a data instruction")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Assembler;
    use crate::exec::{execute_predecoded, Predecoded, StepAction};
    use crate::target::M0PLUS_CYCLES;
    use prng::SplitMix64;

    fn machine() -> Machine {
        Machine::new(256)
    }

    /// The flags as a nibble, N in bit 3 down to V in bit 0.
    fn nzcv(m: &Machine) -> u8 {
        let f = m.flags;
        (f.n as u8) << 3 | (f.z as u8) << 2 | (f.c as u8) << 1 | f.v as u8
    }

    /// One row of the instruction-semantics oracle,
    /// `(instr, r0, r1, nzcv_in, want_r0, want_nzcv)`: `instr` runs
    /// with `r0`/`r1` in R0/R1 and the flags `nzcv_in`, and must leave
    /// `want_r0` in R0 and `want_nzcv` in the flags.
    type Row = (Instr, u32, u32, u8, u32, u8);

    /// Checks every row three ways: through the instruction's Direct
    /// method, as an assembled fragment run by the superblock
    /// interpreter (a dormant hook) and through the executor's per-step
    /// path (a hook at every step). The fragment is `NOP; instr`: the
    /// hook always runs at index 0, so the leading `NOP` is what puts
    /// `instr` inside a superblock.
    fn check_semantics(rows: &[Row]) {
        for &(instr, r0, r1, nzcv_in, want_r0, want_nzcv) in rows {
            let fresh = || {
                let mut m = Machine::new(16);
                m.set_reg(Reg::R0, r0);
                m.set_reg(Reg::R1, r1);
                let bit = |i: u8| nzcv_in >> i & 1 != 0;
                m.flags = Flags {
                    n: bit(3),
                    z: bit(2),
                    c: bit(1),
                    v: bit(0),
                };
                m
            };
            let mut direct = fresh();
            direct.direct(instr);
            let mut asm = Assembler::new();
            asm.push(Instr::Nop);
            asm.push(instr);
            let pre = Predecoded::for_cycles(&asm.assemble().expect("assembles"), &M0PLUS_CYCLES);
            let run = |next_hook: u64| {
                let mut m = fresh();
                execute_predecoded(&mut m, &pre, 10, |_, _| (StepAction::Execute, next_hook))
                    .expect("runs");
                m
            };
            for (path, m) in [
                ("direct", direct),
                ("superblock", run(u64::MAX)),
                ("per-step", run(0)),
            ] {
                assert_eq!(
                    (m.reg(Reg::R0), nzcv(&m)),
                    (want_r0, want_nzcv),
                    "{instr} via {path} (r0 {r0:#x}, r1 {r1:#x}, nzcv {nzcv_in:04b})"
                );
            }
        }
    }

    #[test]
    fn load_store_roundtrip_costs_four_cycles() {
        let mut m = machine();
        let a = m.alloc(4);
        m.set_base(Reg::R0, a);
        m.movs_imm(Reg::R1, 42);
        let before = m.cycles();
        m.str(Reg::R1, Reg::R0, 2);
        m.ldr(Reg::R2, Reg::R0, 2);
        assert_eq!(m.cycles() - before, 4);
        assert_eq!(m.reg(Reg::R2), 42);
    }

    #[test]
    fn register_offset_addressing_works() {
        let mut m = machine();
        let a = m.alloc(8);
        m.write_slice(a, &[0, 10, 20, 30, 0, 0, 0, 0]);
        m.set_base(Reg::R0, a);
        m.movs_imm(Reg::R1, 3);
        m.ldr_reg(Reg::R2, Reg::R0, Reg::R1);
        assert_eq!(m.reg(Reg::R2), 30);
        m.movs_imm(Reg::R3, 99);
        m.str_reg(Reg::R3, Reg::R0, Reg::R1);
        assert_eq!(m.read_slice(a, 4), vec![0, 10, 20, 99]);
    }

    #[test]
    #[should_panic(expected = "lo registers")]
    fn data_processing_rejects_hi_registers() {
        let mut m = machine();
        m.eors(Reg::R8, Reg::R0);
    }

    #[test]
    fn mov_allows_hi_registers() {
        let mut m = machine();
        m.movs_imm(Reg::R0, 7);
        m.mov(Reg::R9, Reg::R0);
        m.mov(Reg::R1, Reg::R9);
        assert_eq!(m.reg(Reg::R1), 7);
        assert_eq!(m.cycles(), 3);
    }

    #[test]
    fn shifts_compute_and_set_carry() {
        let mut m = machine();
        m.ldr_const(Reg::R0, 0x8000_0001);
        m.lsls_imm(Reg::R1, Reg::R0, 1);
        assert_eq!(m.reg(Reg::R1), 2);
        assert!(m.cond(Cond::Hs), "carry should hold the shifted-out bit");
        m.lsrs_imm(Reg::R2, Reg::R0, 1);
        assert_eq!(m.reg(Reg::R2), 0x4000_0000);
        assert!(m.cond(Cond::Hs));

        let (rd, rm) = (Reg::R0, Reg::R1);
        let lsls = |imm| Instr::LslsImm { rd, rm, imm };
        let lsrs = |imm| Instr::LsrsImm { rd, rm, imm };
        let asrs = |imm| Instr::AsrsImm { rd, rm, imm };
        check_semantics(&[
            (lsls(1), 0xDEAD, 0x8000_0001, 0b0001, 0x0000_0002, 0b0011),
            (lsls(31), 0xDEAD, 0x0000_0003, 0b0000, 0x8000_0000, 0b1010),
            (lsrs(1), 0xDEAD, 0x0000_0003, 0b0000, 0x0000_0001, 0b0010),
            (lsrs(32), 0xDEAD, 0x8000_0000, 0b0001, 0, 0b0111),
            (lsrs(32), 0xDEAD, 0x7FFF_FFFF, 0b0010, 0, 0b0100),
            (asrs(1), 0xDEAD, 0x8000_0001, 0b0000, 0xC000_0000, 0b1010),
            (asrs(32), 0xDEAD, 0x8000_0000, 0b0001, 0xFFFF_FFFF, 0b1011),
            (asrs(32), 0xDEAD, 0x7FFF_FFFF, 0b0010, 0, 0b0100),
        ]);
    }

    #[test]
    fn register_amount_shifts_handle_large_amounts() {
        let mut m = machine();
        m.ldr_const(Reg::R0, 0xFFFF_FFFF);
        m.movs_imm(Reg::R1, 32);
        m.lsls_reg(Reg::R0, Reg::R1);
        assert_eq!(m.reg(Reg::R0), 0);
        m.ldr_const(Reg::R2, 0xFFFF_FFFF);
        m.movs_imm(Reg::R1, 40);
        m.lsrs_reg(Reg::R2, Reg::R1);
        assert_eq!(m.reg(Reg::R2), 0);

        // x = 0x8000_0001 shifted by the low byte of R1, with C and V
        // set beforehand: a zero amount keeps C, past 32 clears it, and
        // V is never touched.
        let (rdn, rm) = (Reg::R0, Reg::R1);
        let lsls = Instr::LslsReg { rdn, rm };
        let lsrs = Instr::LsrsReg { rdn, rm };
        let x = 0x8000_0001;
        check_semantics(&[
            (lsls, x, 0, 0b0011, x, 0b1011),
            (lsls, x, 1, 0b0011, 0x0000_0002, 0b0011),
            (lsls, x, 31, 0b0011, 0x8000_0000, 0b1001),
            (lsls, x, 32, 0b0011, 0, 0b0111),
            (lsls, x, 33, 0b0011, 0, 0b0101),
            (lsls, x, 255, 0b0011, 0, 0b0101),
            (lsls, x, 0x100, 0b0011, x, 0b1011),
            (lsrs, x, 0, 0b0011, x, 0b1011),
            (lsrs, x, 1, 0b0011, 0x4000_0000, 0b0011),
            (lsrs, x, 31, 0b0011, 0x0000_0001, 0b0001),
            (lsrs, x, 32, 0b0011, 0, 0b0111),
            (lsrs, x, 33, 0b0011, 0, 0b0101),
            (lsrs, x, 255, 0b0011, 0, 0b0101),
            (lsrs, x, 0x120, 0b0011, 0, 0b0111),
        ]);
    }

    #[test]
    fn lsrs_imm_32_zeroes_with_carry_from_bit31() {
        let mut m = machine();
        m.ldr_const(Reg::R0, 0x8000_0000);
        m.lsrs_imm(Reg::R0, Reg::R0, 32);
        assert_eq!(m.reg(Reg::R0), 0);
        assert!(m.cond(Cond::Hs));
    }

    #[test]
    fn adcs_propagates_carry_across_words() {
        // 0xFFFFFFFF + 1 with carry chain = 0x1_0000_0000.
        let mut m = machine();
        m.ldr_const(Reg::R0, 0xFFFF_FFFF);
        m.movs_imm(Reg::R1, 1);
        m.movs_imm(Reg::R2, 0);
        m.movs_imm(Reg::R3, 0);
        m.adds(Reg::R0, Reg::R0, Reg::R1); // low word, sets carry
        m.adcs(Reg::R2, Reg::R3); // high word += carry
        assert_eq!(m.reg(Reg::R0), 0);
        assert_eq!(m.reg(Reg::R2), 1);

        let adcs = Instr::Adcs {
            rdn: Reg::R0,
            rm: Reg::R1,
        };
        check_semantics(&[
            (adcs, 0xFFFF_FFFF, 0, 0b0010, 0, 0b0110),
            (adcs, 0x7FFF_FFFF, 0, 0b0010, 0x8000_0000, 0b1001),
            (adcs, 0x8000_0000, 0x8000_0000, 0b0000, 0, 0b0111),
            (adcs, 0xFFFF_FFFF, 0xFFFF_FFFF, 0b0010, 0xFFFF_FFFF, 0b1010),
            (adcs, 1, 2, 0b1101, 3, 0b0000),
        ]);
    }

    #[test]
    fn sbcs_borrows() {
        let mut m = machine();
        m.movs_imm(Reg::R0, 0);
        m.movs_imm(Reg::R1, 1);
        m.movs_imm(Reg::R2, 5);
        m.movs_imm(Reg::R3, 0);
        m.subs(Reg::R0, Reg::R0, Reg::R1); // 0 - 1 borrows
        m.sbcs(Reg::R2, Reg::R3); // 5 - 0 - borrow = 4
        assert_eq!(m.reg(Reg::R0), u32::MAX);
        assert_eq!(m.reg(Reg::R2), 4);

        // C is the inverted borrow: clear means "borrow in/out".
        let sbcs = Instr::Sbcs {
            rdn: Reg::R0,
            rm: Reg::R1,
        };
        let rsbs = Instr::Rsbs {
            rd: Reg::R0,
            rn: Reg::R1,
        };
        let cmp = Instr::CmpReg {
            rn: Reg::R0,
            rm: Reg::R1,
        };
        let cmp_0 = Instr::CmpImm {
            rn: Reg::R0,
            imm: 0,
        };
        check_semantics(&[
            (sbcs, 0, 0, 0b0000, 0xFFFF_FFFF, 0b1000),
            (sbcs, 5, 0, 0b0000, 4, 0b0010),
            (sbcs, 5, 5, 0b0010, 0, 0b0110),
            (sbcs, 0x8000_0000, 1, 0b0010, 0x7FFF_FFFF, 0b0011),
            (sbcs, 0x7FFF_FFFF, 0xFFFF_FFFF, 0b0010, 0x8000_0000, 0b1001),
            (rsbs, 0xDEAD, 0, 0b0000, 0, 0b0110),
            (rsbs, 0xDEAD, 1, 0b0000, 0xFFFF_FFFF, 0b1000),
            (rsbs, 0xDEAD, 0x8000_0000, 0b0000, 0x8000_0000, 0b1001),
            (cmp, 1, 1, 0b0000, 1, 0b0110),
            (cmp, 0, 1, 0b0000, 0, 0b1000),
            (cmp, 0x8000_0000, 1, 0b0000, 0x8000_0000, 0b0011),
            (cmp, 0x7FFF_FFFF, 0xFFFF_FFFF, 0b0000, 0x7FFF_FFFF, 0b1001),
            (cmp_0, 0, 0xDEAD, 0b1001, 0, 0b0110),
        ]);
    }

    #[test]
    #[should_panic(expected = "word address 4294967296 is outside RAM (256 words)")]
    fn direct_load_through_a_wrapping_base_panics_with_the_address() {
        let mut m = machine();
        m.set_reg(Reg::R0, 0xFFFF_FFFF);
        m.ldr(Reg::R1, Reg::R0, 1);
    }

    #[test]
    #[should_panic(expected = "word address 300 is outside RAM (256 words)")]
    fn direct_store_past_the_end_of_ram_panics_with_the_address() {
        let mut m = machine();
        m.set_reg(Reg::R0, 250);
        m.set_reg(Reg::R1, 50);
        m.str_reg(Reg::R2, Reg::R0, Reg::R1);
    }

    #[test]
    fn signed_conditions() {
        let mut m = machine();
        m.movs_imm(Reg::R0, 1);
        m.rsbs(Reg::R0, Reg::R0); // -1
        m.movs_imm(Reg::R1, 1);
        m.cmp(Reg::R0, Reg::R1); // -1 cmp 1
        assert!(m.cond(Cond::Lt));
        assert!(m.cond(Cond::Le));
        assert!(!m.cond(Cond::Ge));
        assert!(!m.cond(Cond::Eq));
        // Unsigned view: 0xFFFFFFFF >= 1.
        assert!(m.cond(Cond::Hs));
    }

    #[test]
    fn branch_costs_depend_on_outcome() {
        let mut m = machine();
        m.movs_imm(Reg::R0, 1);
        m.cmp_imm(Reg::R0, 1);
        let c0 = m.cycles();
        assert!(m.b_cond(Cond::Eq));
        assert_eq!(m.cycles() - c0, 2);
        let c1 = m.cycles();
        assert!(!m.b_cond(Cond::Ne));
        assert_eq!(m.cycles() - c1, 1);
    }

    #[test]
    fn muls_wraps() {
        let mut m = machine();
        m.ldr_const(Reg::R0, 0x1234_5678);
        m.ldr_const(Reg::R1, 0x9ABC_DEF0);
        m.muls(Reg::R0, Reg::R1);
        assert_eq!(m.reg(Reg::R0), 0x1234_5678u32.wrapping_mul(0x9ABC_DEF0));
    }

    #[test]
    fn energy_accrues_per_model() {
        let mut m = machine();
        m.movs_imm(Reg::R0, 1);
        m.movs_imm(Reg::R1, 2);
        let e0 = m.energy_pj();
        m.eors(Reg::R0, Reg::R1);
        assert!((m.energy_pj() - e0 - 12.43).abs() < 1e-9);
        m.adds(Reg::R0, Reg::R0, Reg::R1);
        assert!((m.energy_pj() - e0 - 12.43 - 13.45).abs() < 1e-9);
    }

    #[test]
    fn categories_attribute_nested_cycles_to_innermost() {
        let mut m = machine();
        m.in_category(Category::Multiply, |m| {
            m.movs_imm(Reg::R0, 1);
            m.in_category(Category::MultiplyPrecomputation, |m| {
                m.movs_imm(Reg::R1, 2);
                m.movs_imm(Reg::R2, 3);
            });
            m.movs_imm(Reg::R3, 4);
        });
        assert_eq!(m.category_totals(Category::Multiply).cycles, 2);
        assert_eq!(
            m.category_totals(Category::MultiplyPrecomputation).cycles,
            2
        );
        assert_eq!(m.category_totals(Category::Support).cycles, 0);
    }

    #[test]
    fn stack_transfer_costs_one_plus_n() {
        let mut m = machine();
        m.stack_transfer(4);
        assert_eq!(m.cycles(), 5);
    }

    #[test]
    #[should_panic(expected = "out of RAM")]
    fn alloc_past_end_panics() {
        let mut m = Machine::new(4);
        m.alloc(5);
    }

    #[test]
    fn category_override_beats_nested_scopes() {
        let mut m = machine();
        m.with_category_override(Category::TnafPrecomputation, |m| {
            m.in_category(Category::Multiply, |m| {
                m.movs_imm(Reg::R0, 1);
            });
        });
        m.in_category(Category::Multiply, |m| m.movs_imm(Reg::R1, 2));
        assert_eq!(m.category_totals(Category::TnafPrecomputation).cycles, 1);
        assert_eq!(m.category_totals(Category::Multiply).cycles, 1);
    }

    #[test]
    fn sp_relative_addressing() {
        let mut m = machine();
        let frame = m.alloc(8);
        m.set_base(Reg::Sp, frame);
        m.movs_imm(Reg::R0, 17);
        m.str_sp(Reg::R0, 5);
        m.ldr_sp(Reg::R1, 5);
        assert_eq!(m.reg(Reg::R1), 17);
        assert_eq!(m.read_slice(frame, 8)[5], 17);
    }

    #[test]
    fn recording_captures_decodable_instructions() {
        let mut m = machine();
        let a = m.alloc(4);
        m.set_base(Reg::R0, a);
        m.start_recording();
        m.movs_imm(Reg::R1, 7);
        m.str(Reg::R1, Reg::R0, 2);
        m.ldr(Reg::R2, Reg::R0, 2);
        m.eors(Reg::R2, Reg::R1);
        m.adds(Reg::R3, Reg::R1, Reg::R2);
        m.cmp_imm(Reg::R3, 0);
        m.b_cond(Cond::Ne);
        let stream = m.take_recording();
        assert_eq!(stream.len(), 7);
        // Every recorded instruction round-trips through its encoding
        // and reports the class that was charged.
        for step in &stream.steps {
            let instr = step.instr;
            let code = instr.encode();
            let (decoded, _) =
                crate::isa::Instr::decode(&code).unwrap_or_else(|| panic!("decode of {instr}"));
            assert_eq!(decoded, instr);
            assert_eq!(step.category, Category::Support);
        }
        assert_eq!(stream.steps[0].instr.class(), InstrClass::Mov);
        assert_eq!(stream.steps[1].instr.class(), InstrClass::Str);
        assert_eq!(stream.steps[6].instr.class(), InstrClass::BranchTaken);
    }

    #[test]
    fn recording_captures_literals_categories_and_reg_writes() {
        let mut m = machine();
        let a = m.alloc(4);
        m.start_recording();
        m.in_category(Category::Multiply, |m| {
            m.ldr_const(Reg::R1, 0xDEAD_BEEF);
        });
        m.set_base(Reg::R0, a);
        m.movs_imm(Reg::R2, 3);
        let rec = m.take_recording();
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.steps[0].literal, Some(0xDEAD_BEEF));
        assert_eq!(rec.steps[0].category, Category::Multiply);
        assert_eq!(rec.steps[1].literal, None);
        assert_eq!(rec.steps[1].category, Category::Support);
        // The set_base landed between the two costed instructions.
        assert_eq!(
            rec.reg_writes,
            vec![RecordedSetReg {
                at: 1,
                reg: Reg::R0,
                value: a.to_base_register_value()
            }]
        );
    }

    #[test]
    fn recording_is_off_by_default_and_clears_on_take() {
        let mut m = machine();
        m.movs_imm(Reg::R0, 1);
        assert!(m.take_recording().is_empty());
        m.start_recording();
        m.movs_imm(Reg::R0, 2);
        assert_eq!(m.take_recording().len(), 1);
        m.movs_imm(Reg::R0, 3);
        m.set_reg(Reg::R1, 9);
        let rec = m.take_recording();
        assert!(rec.is_empty(), "take stops recording");
        assert!(rec.reg_writes.is_empty(), "take stops reg-write capture");
    }

    /// One seeded draw of every data instruction shape plus a stack
    /// transfer: lo registers where ARMv6-M requires them, any register
    /// for `MOV`, architectural shift amounts.
    fn drawn_instrs(g: &mut SplitMix64) -> Vec<Instr> {
        use Instr::*;
        let lo = |g: &mut SplitMix64| Reg::LO[g.below(8) as usize];
        let any = |g: &mut SplitMix64| match g.below(15) {
            13 => Reg::Sp,
            14 => Reg::Lr,
            r => Reg::GENERAL[r as usize],
        };
        let (rt, rn, rm) = (lo(g), lo(g), lo(g));
        let (rd, rdn) = (lo(g), lo(g));
        let imm8 = g.below(256) as u8;
        let imm_words = g.below(32) as u32;
        vec![
            LdrImm { rt, rn, imm_words },
            StrImm { rt, rn, imm_words },
            LdrSp { rt, imm_words },
            StrSp { rt, imm_words },
            LdrReg { rt, rn, rm },
            StrReg { rt, rn, rm },
            LdrLit { rt, imm_words: 0 },
            MovsImm { rd, imm: imm8 },
            Mov {
                rd: any(g),
                rm: any(g),
            },
            Uxth { rd, rm },
            Eors { rdn, rm },
            Ands { rdn, rm },
            Orrs { rdn, rm },
            Bics { rdn, rm },
            Mvns { rd, rm },
            Tst { rn, rm },
            LslsImm {
                rd,
                rm,
                imm: 1 + g.below(31) as u32,
            },
            LsrsImm {
                rd,
                rm,
                imm: 1 + g.below(32) as u32,
            },
            AsrsImm {
                rd,
                rm,
                imm: 1 + g.below(32) as u32,
            },
            LslsReg { rdn, rm },
            LsrsReg { rdn, rm },
            AddsReg { rd, rn, rm },
            AddsImm8 { rdn, imm: imm8 },
            Adcs { rdn, rm },
            SubsReg { rd, rn, rm },
            SubsImm8 { rdn, imm: imm8 },
            Sbcs { rdn, rm },
            Rsbs { rd, rn },
            CmpReg { rn, rm },
            CmpImm { rn, imm: imm8 },
            Muls { rdn, rm },
            Nop,
            Push {
                reg_count: g.below(9) as usize,
            },
        ]
    }

    /// A machine with seeded registers, flags and RAM whose address
    /// registers for `op` point inside RAM.
    fn drawn_machine(g: &mut SplitMix64, op: MicroOp) -> Machine {
        let mut m = Machine::new(512);
        for r in 0..m.regs.len() {
            // Small values now and then, so register-amount shifts
            // also shift by less than 32.
            m.regs[r] = if g.below(4) == 0 {
                g.below(40) as u32
            } else {
                g.next_u32()
            };
        }
        let bits = g.below(16);
        m.flags = Flags {
            n: bits & 8 != 0,
            z: bits & 4 != 0,
            c: bits & 2 != 0,
            v: bits & 1 != 0,
        };
        for w in m.mem.iter_mut() {
            *w = g.next_u32();
        }
        if op.touches_memory() {
            m.regs[op.b as usize] = g.below(128) as u32;
            if matches!(op.kind, MicroKind::LdrReg | MicroKind::StrReg) {
                m.regs[op.c as usize] = g.below(128) as u32;
            }
        }
        m
    }

    /// The word a load or store addresses, from the instruction's own
    /// fields.
    fn addressed_word(m: &Machine, instr: Instr) -> Option<u32> {
        use Instr::*;
        match instr {
            LdrImm { rn, imm_words, .. } | StrImm { rn, imm_words, .. } => {
                Some(m.reg(rn) + imm_words)
            }
            LdrSp { imm_words, .. } | StrSp { imm_words, .. } => Some(m.reg(Reg::Sp) + imm_words),
            LdrReg { rn, rm, .. } | StrReg { rn, rm, .. } => Some(m.reg(rn) + m.reg(rm)),
            _ => None,
        }
    }

    /// The def/use masks against `apply`, the one definition of what an
    /// op does, and the recorded word against the word accessed.
    #[test]
    fn def_use_masks_match_apply() {
        let mut g = SplitMix64::new(0xdef_05e);
        let mut kinds = std::collections::HashSet::new();
        for _ in 0..64 {
            let literal = g.next_u32();
            let instrs = drawn_instrs(&mut g);
            let cond = [Cond::Eq, Cond::Ne, Cond::Hs, Cond::Lt][g.below(4) as usize];
            let ops = instrs
                .iter()
                .map(|&instr| (Some(instr), MicroOp::lower(instr, &[literal])))
                .chain([None, Some(cond)].map(|c| (None, MicroOp::branch_fall(c))));
            for (instr, op) in ops {
                kinds.insert(std::mem::discriminant(&op.kind));
                let (reads, writes) = (op.reads(), op.writes());
                let pre = drawn_machine(&mut g, op);
                let mut ran = pre.clone();
                ran.apply(op).expect("in range");
                for r in (0..15).filter(|r| writes >> r & 1 == 0) {
                    assert_eq!(ran.regs[r], pre.regs[r], "{op:?} wrote r{r}");
                }
                for r in (0..15).filter(|r| reads >> r & 1 == 0) {
                    let mut flipped = pre.clone();
                    flipped.regs[r] ^= 1 << g.below(32);
                    flipped.apply(op).expect("in range");
                    for w in (0..15).filter(|w| writes >> w & 1 != 0) {
                        assert_eq!(flipped.regs[w], ran.regs[w], "{op:?} read r{r}");
                    }
                    assert_eq!(flipped.flags, ran.flags, "{op:?} read r{r}");
                    assert_eq!(flipped.mem, ran.mem, "{op:?} read r{r}");
                }
                // The recording of the Direct method carries the word
                // the load reads or the store writes.
                let Some(instr) = instr else { continue };
                let mut direct = pre.clone();
                direct.start_recording();
                match instr {
                    Instr::LdrLit { rt, .. } => direct.ldr_const(rt, literal),
                    Instr::Push { reg_count } => direct.stack_transfer(reg_count),
                    other => direct.direct(other),
                }
                let word = direct.take_recording().steps[0].word;
                assert_eq!(word, addressed_word(&pre, instr), "{instr}");
                match instr {
                    Instr::LdrImm { rt, .. }
                    | Instr::LdrSp { rt, .. }
                    | Instr::LdrReg { rt, .. } => {
                        assert_eq!(direct.reg(rt), pre.mem[word.unwrap() as usize], "{instr}")
                    }
                    Instr::StrImm { rt, .. }
                    | Instr::StrSp { rt, .. }
                    | Instr::StrReg { rt, .. } => {
                        let w = word.unwrap() as usize;
                        assert_eq!(direct.mem[w], pre.reg(rt), "{instr}");
                        assert_eq!(direct.mem[..w], pre.mem[..w], "{instr}");
                        assert_eq!(direct.mem[w + 1..], pre.mem[w + 1..], "{instr}");
                    }
                    _ => assert_eq!(direct.mem, pre.mem, "{instr}"),
                }
            }
        }
        // Every kind but `Blocked`, which `apply` refuses to run.
        assert_eq!(kinds.len(), 33, "a micro-op kind went untested");
    }

    #[test]
    fn snapshot_delta_reports() {
        let mut m = machine();
        m.movs_imm(Reg::R0, 1);
        let snap = m.snapshot();
        m.ldr_const(Reg::R1, 5);
        m.eors(Reg::R0, Reg::R1);
        let r = m.report_since(&snap);
        assert_eq!(r.cycles, 3);
        assert_eq!(r.counts.count(InstrClass::Eor), 1);
        assert_eq!(r.counts.count(InstrClass::Ldr), 1);
        assert_eq!(r.counts.count(InstrClass::Mov), 0);
    }
}
