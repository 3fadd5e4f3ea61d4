//! The execution-backend abstraction unifying the two ways a modeled
//! kernel can run:
//!
//! * [`Backend::Direct`] — the call-per-instruction costed machine:
//!   the kernel's Rust driver calls one [`Machine`] method per Thumb
//!   instruction and the machine charges as it goes. Each method runs
//!   the same instruction semantics as the executor below, so the two
//!   backends differ in where instructions come from, not in what they
//!   do.
//! * [`Backend::Code`] — the kernel is first *recorded* (see
//!   [`Machine::start_recording`]), the captured trace is assembled into
//!   real Thumb-16 halfwords with [`crate::asm`], and the machine code
//!   is then re-executed through [`crate::exec`] with identical
//!   cost/energy/category accounting. Every published cycle count
//!   becomes reproducible from the exact halfwords a Cortex-M0+ would
//!   fetch, and any divergence between the two substrates is a hard
//!   panic instead of a latent modeling bug.
//!
//! # How a recorded trace becomes a program
//!
//! The kernels drive control flow from the host, so a recording is the
//! *linearised* instruction stream: a loop that ran five times appears
//! five times. Every control-flow instruction in the trace therefore
//! transfers to the instruction right after it, so [`translate`]
//! encodes each one with a fixed offset and needs no labels:
//!
//! * `B<cond>` → offset −1 halfwords from the pipelined PC, i.e. the
//!   next instruction (taken and fall-through paths coincide; the
//!   charged cost still depends on the replayed flags, which match the
//!   recording bit-for-bit);
//! * `B` → offset −1, the next instruction;
//! * `BL` → offset 0: its two halfwords end at the next instruction
//!   (the host return stack grows harmlessly; kernel `BL`/`BX` pairs
//!   are cost markers, not balanced calls);
//! * `BX lr` → encoded as that `B`, because a real `BX` would pop a
//!   return address the linear trace never pushed. `B` and `BX` share
//!   the cost class ([`InstrClass::BranchTaken`]) and the 2-byte
//!   footprint, so accounting is unchanged.
//!
//! Every other instruction is pushed as it encodes. The halfwords and
//! the literal pool are exactly what [`crate::asm::Assembler`] — the
//! label-resolving assembler kept for hand-written programs — makes of
//! the same stream with a label on every branch target.
//!
//! Literal loads carry their pool values in the recording; un-costed
//! host register writes ([`Machine::set_reg`] argument setup) are
//! captured with their stream positions and reapplied by a replay hook,
//! as is the per-instruction [`Category`] attribution.
//!
//! [`InstrClass::BranchTaken`]: crate::InstrClass::BranchTaken
//! [`Category`]: crate::Category

use crate::asm::{encode_bl, AsmError, Program};
use crate::exec;
use crate::fault;
use crate::isa::Instr;
use crate::machine::{Machine, Recording};
use std::collections::HashMap;

/// Which execution substrate runs a modeled kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// Call-per-instruction costed machine methods (the historic tier).
    #[default]
    Direct,
    /// Record → assemble to Thumb-16 → re-execute from the machine
    /// code, asserting bit-for-bit agreement with the direct tier.
    Code,
}

impl Backend {
    /// Parses a CLI flag value (`"direct"` / `"code"`).
    pub fn parse(s: &str) -> Option<Backend> {
        match s.trim().to_ascii_lowercase().as_str() {
            "direct" => Some(Backend::Direct),
            "code" => Some(Backend::Code),
            _ => None,
        }
    }

    /// The flag spelling of this backend.
    pub const fn label(self) -> &'static str {
        match self {
            Backend::Direct => "direct",
            Backend::Code => "code",
        }
    }

    /// Runs a kernel closure on `machine` through this backend.
    ///
    /// `Direct` simply calls the closure. `Code` records it on a shadow
    /// machine, assembles the trace, replays the machine code on
    /// `machine`, asserts full state equality against the shadow, and
    /// returns the [`KernelRun`] describing the assembled code.
    ///
    /// # Panics
    ///
    /// Under `Code`, panics if the trace does not assemble, does not
    /// replay, or replays to any different machine state (registers,
    /// flags, memory, cycles, energy, instruction mix or category
    /// totals).
    pub fn run_kernel<T>(
        self,
        machine: &mut Machine,
        name: &str,
        f: impl FnOnce(&mut Machine) -> T,
    ) -> (T, Option<KernelRun>) {
        match self {
            Backend::Direct => (f(machine), None),
            Backend::Code => {
                let (out, run) = run_recorded(machine, name, f);
                (out, Some(run))
            }
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// What the code backend learned from assembling and replaying one
/// kernel call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelRun {
    /// Flash footprint of the assembled fragment (code + literal pool),
    /// in bytes. The recording is *linearised* — loops appear once per
    /// iteration — so this is the unrolled-build figure.
    pub flash_bytes: usize,
    /// Loop-aware flash footprint in bytes: the same fragment after the
    /// repeat-collapsing pass of [`crate::footprint`], an upper bound on
    /// what a rolled build would flash.
    pub deduped_flash_bytes: usize,
    /// Instructions retired by the replay.
    pub instructions: u64,
    /// Cycles charged by the replay.
    pub cycles: u64,
}

/// Assembles a [`Recording`] into an executable [`Program`] using the
/// linear-trace translation described in the [module docs](self).
///
/// # Errors
///
/// None: every branch offset is fixed (−1, or 0 for `BL`). The
/// `Result` keeps the signature existing callers handle.
pub fn translate(recording: &Recording) -> Result<Program, AsmError> {
    // The offset fields of a branch to the next instruction: −1
    // halfwords from the pipelined PC (this position + 2) for B and
    // B<cond>, 0 for BL, whose two halfwords end right at the target.
    const COND_NEXT: u16 = 0xFF;
    const B_NEXT: u16 = 0x7FF;
    let mut code = Vec::with_capacity(recording.steps.len());
    let mut pool: Vec<u32> = Vec::new();
    for step in &recording.steps {
        match step.instr {
            Instr::BCond { .. } => code.push(step.instr.encode()[0] | COND_NEXT),
            // A linear trace cannot pop a return address it never
            // pushed, so BX lr is emitted as the cost-identical B.
            Instr::B | Instr::Bx => code.push(Instr::B.encode()[0] | B_NEXT),
            Instr::Bl => code.extend(encode_bl(0)),
            Instr::LdrLit { rt, .. } => {
                let value = step
                    .literal
                    .expect("LdrLit recorded without its literal value");
                // Pool slots in order of first use, as the assembler
                // allocates them; the encoding carries the slot index.
                let slot = pool.iter().position(|&v| v == value).unwrap_or_else(|| {
                    pool.push(value);
                    pool.len() - 1
                });
                code.extend(
                    Instr::LdrLit {
                        rt,
                        imm_words: slot as u32,
                    }
                    .encode(),
                );
            }
            other => code.extend(other.encode()),
        }
    }
    Ok(Program {
        code,
        pool,
        labels: HashMap::new(),
    })
}

/// The code-backend pipeline for one kernel call: record the closure on
/// a shadow clone of `machine`, assemble the trace to Thumb-16, replay
/// the machine code on `machine` itself (through the same replay hook
/// and superblock executor as the fault campaign, without a fault), and
/// assert that the replayed machine is bit-for-bit identical to the
/// shadow.
///
/// Returns the closure's result (computed during recording — provably
/// equal under the state assertion) and the [`KernelRun`].
///
/// # Panics
///
/// Panics (with `name` in the message) on assembly failure, replay
/// failure, literal-pool overflow or any state divergence.
pub fn run_recorded<T>(
    machine: &mut Machine,
    name: &str,
    f: impl FnOnce(&mut Machine) -> T,
) -> (T, KernelRun) {
    let mut shadow = machine.clone();
    shadow.start_recording();
    let out = f(&mut shadow);
    let recording = shadow.take_recording();

    let program = translate(&recording)
        .unwrap_or_else(|e| panic!("kernel {name}: trace does not assemble: {e}"));
    assert!(
        program.pool.len() <= 256,
        "kernel {name}: literal pool ({} slots) overflows the imm8 index",
        program.pool.len()
    );

    let predecoded = exec::predecode_with(&program, machine.model().cycle_table());
    let stats = fault::replay(machine, &predecoded, &recording, None)
        .unwrap_or_else(|e| panic!("kernel {name}: machine-code replay failed: {e}"));

    assert_eq!(
        stats.instructions,
        recording.steps.len() as u64,
        "kernel {name}: replay retired a different instruction count"
    );
    machine.assert_same_state(&shadow, name);

    (
        out,
        KernelRun {
            flash_bytes: program.size_bytes(),
            deduped_flash_bytes: crate::footprint::dedup(&program).deduped_bytes(),
            instructions: stats.instructions,
            cycles: stats.cycles,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Category, Cond, Reg};

    /// A representative kernel: literals, loops with both branch
    /// outcomes, memory traffic, category scopes, a BL/BX cost-marker
    /// pair, a nine-register stack transfer and mid-stream un-costed
    /// argument setup.
    fn kernel(m: &mut Machine, buf: crate::Addr) -> u32 {
        m.in_category(Category::Multiply, |m| {
            m.bl();
            m.stack_transfer(8);
            m.ldr_const(Reg::R0, buf.to_base_register_value());
            m.ldr_const(Reg::R1, 0xA5A5_0001);
            m.movs_imm(Reg::R2, 4);
            loop {
                m.str(Reg::R1, Reg::R0, 0);
                m.ldr(Reg::R3, Reg::R0, 0);
                m.eors(Reg::R1, Reg::R3);
                m.adds_imm(Reg::R0, 1);
                m.subs_imm(Reg::R2, 1);
                if !m.b_cond(Cond::Ne) {
                    break;
                }
            }
        });
        m.set_base(Reg::R4, buf); // mid-stream AAPCS-style setup
        m.in_category(Category::Square, |m| {
            m.ldr(Reg::R5, Reg::R4, 2);
            m.stack_transfer(8);
            m.bx();
        });
        m.reg(Reg::R5)
    }

    fn fresh() -> (Machine, crate::Addr) {
        let mut m = Machine::new(64);
        let buf = m.alloc(8);
        m.write_slice(buf, &[9, 9, 9, 9, 9, 9, 9, 9]);
        (m, buf)
    }

    #[test]
    fn code_backend_matches_direct_exactly() {
        let (mut direct, buf_d) = fresh();
        let out_d = kernel(&mut direct, buf_d);

        let (mut code, buf_c) = fresh();
        let (out_c, run) = Backend::Code.run_kernel(&mut code, "test-kernel", |m| kernel(m, buf_c));
        let run = run.expect("code backend reports a KernelRun");

        assert_eq!(out_c, out_d);
        code.assert_same_state(&direct, "code vs direct");
        assert_eq!(run.cycles, direct.cycles());
        assert!(run.flash_bytes > 0);
        assert!(run.instructions > 10);
    }

    #[test]
    fn direct_backend_reports_no_kernel_run() {
        let (mut m, buf) = fresh();
        let (_, run) = Backend::Direct.run_kernel(&mut m, "k", |m| kernel(m, buf));
        assert!(run.is_none());
    }

    #[test]
    fn translate_produces_decodable_code_with_a_pool() {
        let (mut m, buf) = fresh();
        m.start_recording();
        kernel(&mut m, buf);
        let rec = m.take_recording();
        let p = translate(&rec).expect("assembles");
        assert_eq!(p.pool.len(), 2, "two distinct literals");
        // Every halfword decodes (the disassembler stops at the first
        // failure, so a full-length walk proves decodability).
        let listing = crate::isa::disassemble(&p.code);
        assert!(!listing.contains("<undecodable>"), "{listing}");
        assert_eq!(p.size_bytes(), 2 * p.code.len() + 4 * p.pool.len());
    }

    /// The translation `translate` replaced: every branch aimed at a
    /// label on the next instruction, resolved by the assembler.
    fn assembled(recording: &Recording) -> Program {
        let mut a = crate::asm::Assembler::new();
        for (i, step) in recording.steps.iter().enumerate() {
            let next = format!("L{i}");
            match step.instr {
                Instr::BCond { cond } => a.branch_if(cond, &next),
                Instr::B | Instr::Bx => a.branch(&next),
                Instr::Bl => a.call(&next),
                Instr::LdrLit { rt, .. } => {
                    a.load_literal(rt, step.literal.expect("literal value"));
                    continue;
                }
                other => {
                    a.push(other);
                    continue;
                }
            }
            a.label(&next);
        }
        a.assemble().expect("assembles")
    }

    #[test]
    fn translate_matches_the_assembler() {
        let (mut m, buf) = fresh();
        m.start_recording();
        kernel(&mut m, buf);
        let rec = m.take_recording();
        let got = translate(&rec).expect("translates");
        let want = assembled(&rec);
        assert_eq!(got.code, want.code);
        assert_eq!(got.pool, want.pool);
    }

    #[test]
    fn empty_recording_replays_to_nothing() {
        let mut m = Machine::new(16);
        let before = m.cycles();
        let (out, run) = Backend::Code.run_kernel(&mut m, "empty", |m| {
            m.set_reg(Reg::R7, 42); // un-costed only
            7u32
        });
        assert_eq!(out, 7);
        assert_eq!(m.cycles(), before);
        assert_eq!(m.reg(Reg::R7), 42, "trailing reg write reapplied");
        assert_eq!(run.unwrap().instructions, 0);
    }

    #[test]
    fn backend_parse_and_labels() {
        assert_eq!(Backend::parse("code"), Some(Backend::Code));
        assert_eq!(Backend::parse("DIRECT"), Some(Backend::Direct));
        assert_eq!(Backend::parse("fast"), None);
        assert_eq!(Backend::default(), Backend::Direct);
        assert_eq!(format!("{}", Backend::Code), "code");
    }

    #[test]
    fn category_attribution_survives_replay() {
        let (mut direct, buf_d) = fresh();
        kernel(&mut direct, buf_d);
        let (mut code, buf_c) = fresh();
        Backend::Code.run_kernel(&mut code, "cat", |m| kernel(m, buf_c));
        for c in Category::ALL {
            assert_eq!(
                code.category_totals(c).cycles,
                direct.category_totals(c).cycles,
                "{c}"
            );
        }
        assert!(code.category_totals(Category::Multiply).cycles > 0);
        assert!(code.category_totals(Category::Square).cycles > 0);
    }
}
