//! Per-instruction energy model (the paper's Table 3).
//!
//! The paper measured the energy used *per cycle* by different instructions
//! on the physical board at 48 MHz:
//!
//! | Instruction | Energy \[pJ/cycle\] |
//! |---|---|
//! | LDR | 10.98 |
//! | LSR | 12.05 |
//! | MUL | 12.14 |
//! | LSL | 12.21 |
//! | XOR | 12.43 |
//! | ADD | 13.45 |
//!
//! Classes the paper did not measure are assigned documented estimates:
//! stores behave like loads (same bus activity), `SUB` like `ADD` (same
//! adder), other bitwise logic like `XOR`, moves/compares like the cheap
//! shift class, branches like `LSL`. These assumptions only affect the
//! absolute energy figure by a fraction of a percent because the ECC
//! kernels are dominated by the six measured classes.

use crate::cost::InstrClass;

/// Energies of the six instruction classes the paper measured, in
/// pJ/cycle at 48 MHz (its Table 3).
pub mod table3 {
    /// `LDR`: the cheapest measured instruction per cycle.
    pub const LDR_PJ: f64 = 10.98;
    /// `LSR`.
    pub const LSR_PJ: f64 = 12.05;
    /// `MUL`.
    pub const MUL_PJ: f64 = 12.14;
    /// `LSL`.
    pub const LSL_PJ: f64 = 12.21;
    /// `XOR` (`EORS`).
    pub const XOR_PJ: f64 = 12.43;
    /// `ADD`: the most energy-hungry measured instruction.
    pub const ADD_PJ: f64 = 13.45;
}

/// Maps an [`InstrClass`] to its energy per cycle in picojoules.
///
/// The default model reproduces the paper's Table 3; a custom model is a
/// custom [`TargetSpec`](crate::TargetSpec) passed to
/// [`EnergyModel::for_target`] (for instance to check that the
/// binary-vs-prime conclusion of §3.1 is robust to the energy assumptions).
///
/// ```
/// use m0plus::{EnergyModel, InstrClass};
/// let model = EnergyModel::cortex_m0plus();
/// assert_eq!(model.picojoules_per_cycle(InstrClass::Ldr), 10.98);
/// // An LDR takes 2 cycles, so per instruction:
/// assert_eq!(model.picojoules_per_instr(InstrClass::Ldr), 2.0 * 10.98);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyModel {
    pj_per_cycle: [f64; InstrClass::ALL.len()],
    /// Per-class cycle counts of the target this model was built for,
    /// carried so the [`Machine`](crate::Machine) charges cycles and
    /// energy from one coherent source.
    cycles: [u64; InstrClass::ALL.len()],
    /// `pj_per_cycle[i] * cycles[i]`, cached because the machine charges
    /// energy on every retired instruction and the replay engines run
    /// millions of them.
    pj_per_instr: [f64; InstrClass::ALL.len()],
}

impl EnergyModel {
    /// The paper's measured Cortex-M0+ model (Table 3) plus the documented
    /// estimates for unmeasured classes.
    ///
    /// This delegates to the `cortex-m0plus` entry of the
    /// [`crate::target`] registry — the registry is the single source of
    /// truth for the table; this constructor and
    /// [`Machine::new`](crate::Machine::new) are views of it.
    pub fn cortex_m0plus() -> Self {
        Self::for_target(crate::target::default_target())
    }

    /// The model induced by a target: its pJ/cycle table multiplied by
    /// its own cycle table.
    pub fn for_target(target: &crate::target::TargetSpec) -> Self {
        let pj_per_cycle = target.energy_table();
        let cycles = target.cycle_table();
        let mut pj_per_instr = [0.0; InstrClass::ALL.len()];
        for c in InstrClass::ALL {
            pj_per_instr[c.index()] = pj_per_cycle[c.index()] * cycles[c.index()] as f64;
        }
        Self {
            pj_per_cycle,
            cycles,
            pj_per_instr,
        }
    }

    /// Energy per cycle for `class`, in pJ.
    pub fn picojoules_per_cycle(&self, class: InstrClass) -> f64 {
        self.pj_per_cycle[class.index()]
    }

    /// Cycle cost of one instruction of `class` on this model's target.
    #[inline]
    pub fn cycles_of(&self, class: InstrClass) -> u64 {
        self.cycles[class.index()]
    }

    /// [`EnergyModel::cycles_of`] by dense class index (superblock fast
    /// path, mirroring [`EnergyModel::pj_per_instr_idx`]).
    #[inline]
    pub(crate) fn cycles_idx(&self, idx: usize) -> u64 {
        self.cycles[idx]
    }

    /// The full per-class cycle table, in [`InstrClass::ALL`] order —
    /// what the predecoder bakes into its per-target `MicroOp` tables.
    pub fn cycle_table(&self) -> &[u64; InstrClass::ALL.len()] {
        &self.cycles
    }

    /// Energy of one complete instruction of `class` (cycles × pJ/cycle).
    #[inline]
    pub fn picojoules_per_instr(&self, class: InstrClass) -> f64 {
        self.pj_per_instr[class.index()]
    }

    /// [`EnergyModel::picojoules_per_instr`] by dense class index: the
    /// superblock lowering precomputes `InstrClass::index()` once per
    /// position, so the block interpreter skips the enum round-trip on
    /// every retired instruction. Same table, same `f64` values.
    #[inline]
    pub(crate) fn pj_per_instr_idx(&self, idx: usize) -> f64 {
        self.pj_per_instr[idx]
    }

    /// Average power in microwatts of a workload that used `energy_pj`
    /// picojoules over `cycles` cycles at `clock_hz`.
    ///
    /// The paper reports e.g. 577.2 µW for its random-point multiplication;
    /// this is the quantity its measurement rig produced.
    pub fn average_power_uw(energy_pj: f64, cycles: u64, clock_hz: u64) -> f64 {
        if cycles == 0 {
            return 0.0;
        }
        let seconds = cycles as f64 / clock_hz as f64;
        energy_pj * 1e-12 / seconds * 1e6
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self::cortex_m0plus()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_values_are_exposed() {
        let m = EnergyModel::cortex_m0plus();
        assert_eq!(m.picojoules_per_cycle(InstrClass::Ldr), 10.98);
        assert_eq!(m.picojoules_per_cycle(InstrClass::Lsr), 12.05);
        assert_eq!(m.picojoules_per_cycle(InstrClass::Mul), 12.14);
        assert_eq!(m.picojoules_per_cycle(InstrClass::Lsl), 12.21);
        assert_eq!(m.picojoules_per_cycle(InstrClass::Eor), 12.43);
        assert_eq!(m.picojoules_per_cycle(InstrClass::Add), 13.45);
    }

    #[test]
    fn add_is_most_expensive_measured_class() {
        // §4.1: "The ADD instruction was found to be the most energy
        // hungry, requiring 6.9% more energy than any other measured
        // instruction" — 13.45 / 12.43 ≈ 1.082 ≥ 1.069 over XOR, larger
        // over the rest.
        let m = EnergyModel::cortex_m0plus();
        let add = m.picojoules_per_cycle(InstrClass::Add);
        for c in [
            InstrClass::Ldr,
            InstrClass::Lsr,
            InstrClass::Mul,
            InstrClass::Lsl,
            InstrClass::Eor,
        ] {
            assert!(add > m.picojoules_per_cycle(c));
        }
        assert!(add / m.picojoules_per_cycle(InstrClass::Eor) > 1.069);
    }

    #[test]
    fn measured_spread_is_22_5_percent() {
        // §4.1: "A variation in energy consumption of up to 22.5% was
        // observed between different instructions": 13.45 / 10.98 = 1.225.
        let spread = table3::ADD_PJ / table3::LDR_PJ;
        assert!((spread - 1.225).abs() < 0.001);
    }

    #[test]
    fn shifts_and_xor_cheaper_than_add() {
        // The §3.1 argument for binary fields.
        let m = EnergyModel::cortex_m0plus();
        assert!(m.picojoules_per_cycle(InstrClass::Lsl) < m.picojoules_per_cycle(InstrClass::Add));
        assert!(m.picojoules_per_cycle(InstrClass::Lsr) < m.picojoules_per_cycle(InstrClass::Add));
        assert!(m.picojoules_per_cycle(InstrClass::Eor) < m.picojoules_per_cycle(InstrClass::Add));
    }

    #[test]
    fn average_power_of_pure_xor_stream_is_about_600_uw() {
        // 12.43 pJ per cycle at 48 MHz = 596.6 µW — consistent with the
        // ~600 µW the paper measured for the (XOR-dominated) RELIC build.
        let cycles = 1_000_000u64;
        let energy = 12.43 * cycles as f64;
        let p = EnergyModel::average_power_uw(energy, cycles, crate::CLOCK_HZ);
        assert!((p - 596.64).abs() < 0.1, "got {p}");
    }

    #[test]
    fn zero_cycles_has_zero_power() {
        assert_eq!(EnergyModel::average_power_uw(1.0, 0, crate::CLOCK_HZ), 0.0);
    }
}
