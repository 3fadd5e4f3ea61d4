//! Canonical execution traces for leakage verification.
//!
//! A [`Trace`] is the attacker's-eye view of one kernel execution on the
//! cost model: the executed instruction stream in program order (the
//! canonical PC sequence — the machine is host-driven, so the position
//! in the stream *is* the program counter), the effective word address
//! of every memory access, and the per-instruction cycle cost. These
//! are exactly the observables the paper's per-instruction energy model
//! (its Table 3) exposes to a power attacker, so two executions of a
//! kernel on *different secrets* must produce equal traces for the
//! kernel to be secret-independent under the model.
//!
//! Capture is armed at run time and costs one predicate per executed
//! instruction while disarmed; see
//! [`Machine::start_trace`](crate::Machine::start_trace). Comparison is
//! class-by-class ([`TraceClass`]): a kernel can be cycle-exact but
//! address-dependent (the López-Dahab window lookups are the canonical
//! example), and the verifier reports each class separately.

use crate::cost::InstrClass;
use crate::isa::Instr;

/// One observable equivalence class of a [`Trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceClass {
    /// The executed instruction stream in program order (PC sequence).
    Pc,
    /// Effective word addresses of memory accesses.
    Addr,
    /// Per-instruction cycle costs.
    Cycles,
}

impl TraceClass {
    /// All classes, in reporting order.
    pub const ALL: [TraceClass; 3] = [TraceClass::Pc, TraceClass::Addr, TraceClass::Cycles];

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            TraceClass::Pc => "pc",
            TraceClass::Addr => "addr",
            TraceClass::Cycles => "cycles",
        }
    }
}

impl std::fmt::Display for TraceClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One executed instruction as captured by the recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// The decoded instruction, or `None` for a follow-on charge that
    /// shares its instruction with the previous event (the per-word
    /// cycles of a `PUSH`/`POP` stack transfer).
    pub instr: Option<Instr>,
    /// The charged instruction class.
    pub class: InstrClass,
    /// Effective word address, for memory-access instructions.
    pub addr: Option<u32>,
    /// Cycles the machine charged for this event, priced by its
    /// target's cost model; read through [`TraceEvent::cycles`].
    pub(crate) cycles: u64,
}

impl TraceEvent {
    /// Cycle cost of this event, as the machine charged it.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Human-readable rendering (disassembly plus address), used in
    /// divergence reports.
    pub fn describe(&self) -> String {
        let core = match self.instr {
            Some(instr) => format!("{instr}"),
            None => format!("({:?} follow-on)", self.class),
        };
        match self.addr {
            Some(a) => format!("{core}  @[{a:#x}]"),
            None => core,
        }
    }
}

/// The first point where two traces disagree within one [`TraceClass`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceDivergence {
    /// The equivalence class that diverged.
    pub class: TraceClass,
    /// Index into the event stream of the first disagreement (equal to
    /// the shorter length when one trace is a prefix of the other).
    pub index: usize,
    /// Rendering of the left trace's event at `index` (disassembly),
    /// or a marker when the left trace ended.
    pub left: String,
    /// Rendering of the right trace's event at `index`.
    pub right: String,
}

impl std::fmt::Display for TraceDivergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} diverges at instruction {}: {} vs {}",
            self.class, self.index, self.left, self.right
        )
    }
}

/// A canonical execution trace; see the [module docs](self).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// Executed events in program order.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Number of captured events (instructions plus follow-on charges).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total cycles across all captured events.
    pub fn total_cycles(&self) -> u64 {
        self.events.iter().map(TraceEvent::cycles).sum()
    }

    fn describe_at(&self, index: usize) -> String {
        match self.events.get(index) {
            Some(e) => e.describe(),
            None => format!("<end of trace, {} events>", self.len()),
        }
    }

    /// First divergence from `other` within `class`, if any.
    pub fn first_divergence(&self, other: &Trace, class: TraceClass) -> Option<TraceDivergence> {
        let shorter = self.len().min(other.len());
        let index = (0..shorter).find(|&i| {
            let (a, b) = (&self.events[i], &other.events[i]);
            match class {
                TraceClass::Pc => a.instr != b.instr || a.class != b.class,
                TraceClass::Addr => a.addr != b.addr,
                TraceClass::Cycles => a.cycles() != b.cycles(),
            }
        });
        let index = match index {
            Some(i) => i,
            None if self.len() != other.len() => shorter,
            None => return None,
        };
        Some(TraceDivergence {
            class,
            index,
            left: self.describe_at(index),
            right: other.describe_at(index),
        })
    }

    /// Compares against `other` class-by-class, returning the first
    /// divergence of each class that disagrees (empty = equivalent in
    /// every class).
    pub fn compare(&self, other: &Trace) -> Vec<TraceDivergence> {
        TraceClass::ALL
            .iter()
            .filter_map(|&c| self.first_divergence(other, c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{Machine, Reg};

    fn traced(values: [u32; 2], table_index: u32) -> Trace {
        let mut m = Machine::new(64);
        let buf = m.alloc(8);
        m.write_slice(buf, &[1, 2, 3, 4, 5, 6, 7, 8]);
        m.set_base(Reg::R0, buf);
        m.set_reg(Reg::R1, values[0]);
        m.set_reg(Reg::R2, table_index);
        m.start_trace();
        m.ldr_reg(Reg::R3, Reg::R0, Reg::R2); // address depends on r2
        m.eors(Reg::R3, Reg::R1);
        m.str(Reg::R3, Reg::R0, 0);
        m.take_trace()
    }

    #[test]
    fn equal_inputs_give_equal_traces() {
        let a = traced([5, 0], 2);
        let b = traced([9, 0], 2); // different *data*, same control/addresses
        assert!(a.compare(&b).is_empty());
        assert_eq!(a.len(), 3);
        assert_eq!(a.total_cycles(), 2 + 1 + 2);
    }

    #[test]
    fn address_divergence_is_flagged_as_addr_only() {
        let a = traced([5, 0], 2);
        let b = traced([5, 0], 3); // same instructions, different lookup index
        let divs = a.compare(&b);
        assert_eq!(divs.len(), 1, "{divs:?}");
        assert_eq!(divs[0].class, TraceClass::Addr);
        assert_eq!(divs[0].index, 0);
        assert!(divs[0].left.contains("@["), "{}", divs[0].left);
    }

    #[test]
    fn control_flow_divergence_reports_disassembly() {
        let run = |flag: u32| {
            let mut m = Machine::new(16);
            m.set_reg(Reg::R0, flag);
            m.start_trace();
            m.cmp_imm(Reg::R0, 0);
            if m.reg(Reg::R0) == 0 {
                m.movs_imm(Reg::R1, 1);
            } else {
                m.adds_imm(Reg::R1, 2);
                m.adds_imm(Reg::R1, 3);
            }
            m.take_trace()
        };
        let a = run(0);
        let b = run(1);
        let divs = a.compare(&b);
        let pc = divs.iter().find(|d| d.class == TraceClass::Pc).unwrap();
        assert_eq!(pc.index, 1);
        assert!(
            pc.left.to_lowercase().contains("mov"),
            "disassembly missing: {}",
            pc.left
        );
        // Different event counts also shows up in the cycle class.
        assert!(divs.iter().any(|d| d.class == TraceClass::Cycles));
    }

    #[test]
    fn trace_is_off_by_default_and_clears_on_take() {
        let mut m = Machine::new(16);
        m.movs_imm(Reg::R0, 1);
        assert!(m.take_trace().is_empty());
        m.start_trace();
        m.movs_imm(Reg::R0, 2);
        assert_eq!(m.take_trace().len(), 1);
        m.movs_imm(Reg::R0, 3);
        assert!(m.take_trace().is_empty(), "take stops tracing");
    }

    #[test]
    fn stack_transfer_follow_on_events_share_the_instruction() {
        let mut m = Machine::new(64);
        let frame = m.alloc(32);
        m.set_base(Reg::Sp, frame);
        m.start_trace();
        m.stack_transfer(3);
        let t = m.take_trace();
        assert_eq!(t.len(), 4, "1 base + 3 stack words");
        assert!(t.events[0].instr.is_some());
        assert!(t.events[1..].iter().all(|e| e.instr.is_none()));
    }

    #[test]
    fn trace_cycles_match_the_machine_on_every_target() {
        // A taken branch and a stack transfer cost different cycles on
        // different cores; the trace must price them as the machine did.
        for target in crate::target::registry() {
            let mut m = Machine::with_target(64, target);
            m.movs_imm(Reg::R0, 0);
            m.cmp_imm(Reg::R0, 0);
            let start = m.cycles();
            m.start_trace();
            assert!(m.b_cond(crate::Cond::Eq), "branch taken");
            m.stack_transfer(3);
            let t = m.take_trace();
            assert_eq!(
                t.total_cycles(),
                m.cycles() - start,
                "target {}",
                target.name()
            );
        }
    }
}
