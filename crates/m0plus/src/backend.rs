//! Assembly of a recorded kernel into real Thumb-16 machine code.
//!
//! A modeled kernel runs as virtual assembly: its Rust driver calls one
//! [`Machine`] method per Thumb instruction. [`Machine::start_recording`]
//! captures that stream, and [`translate`] assembles it into the
//! halfwords and literal pool a Cortex-M0+ would fetch. The fault
//! campaign replays those fragments through [`crate::exec`], and
//! [`RecordedKernel::capture`] with
//! [`RecordedKernel::assert_replays_to`] checks that the machine code
//! reproduces the virtual-assembly run bit for bit and measures its
//! flash footprint.
//!
//! [`RecordedKernel::capture`]: crate::fault::RecordedKernel::capture
//! [`RecordedKernel::assert_replays_to`]: crate::fault::RecordedKernel::assert_replays_to
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
//! [`Machine`]: crate::Machine
//! [`Machine::start_recording`]: crate::Machine::start_recording
//! [`Machine::set_reg`]: crate::Machine::set_reg
//! [`InstrClass::BranchTaken`]: crate::InstrClass::BranchTaken
//! [`Category`]: crate::Category

use crate::asm::{encode_bl, AsmError, Program};
use crate::isa::Instr;
use crate::machine::Recording;
use std::collections::HashMap;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Category, Cond, Machine, Reg};

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
}
