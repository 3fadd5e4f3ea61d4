//! Retargetable cost models: the per-core tables behind the machine's
//! cycle and energy accounting.
//!
//! The seed of this crate welded every number to one core: the
//! Cortex-M0+ cycle table lived in [`InstrClass::cycles`] and the
//! Table-3 pJ/cycle figures in
//! [`EnergyModel::cortex_m0plus`](crate::EnergyModel::cortex_m0plus). This
//! module extracts both into one data type, [`TargetSpec`], so that the
//! whole recorded-kernel stack — the [`Machine`](crate::Machine), the
//! predecoded/superblock executor (whose per-op cycle constants are
//! materialised **per target** at lowering time, see
//! [`crate::exec::predecode_with`]), the fault and verification
//! campaigns, and the bench/export binaries — can re-cost the same
//! kernels under a family of cores. A core the registry does not ship
//! is one [`TargetSpec::new`] away.
//!
//! The concrete registry ships four targets:
//!
//! * [`cortex_m0plus`] — the paper's platform; **bit-identical** to the
//!   seed model (same cycle table, same Table-3 energies, 48 MHz).
//! * [`cortex_m0`] — the older 3-stage sibling: taken branches refill a
//!   longer pipeline (3 cycles, `BL` 4); everything else matches.
//! * [`cortex_m0plus_mul32`] — the M0+'s iterative-multiplier synthesis
//!   option (`MULS` = 32 cycles), the trade silicon vendors take for
//!   area; only `MUL`-bearing kernels get slower.
//! * [`cortex_m3`] — a larger ARMv7-M class estimate: buffered stores,
//!   3-cycle taken branches, and a scaled energy table.
//!
//! Only `cortex-m0plus` is *measured* (the paper's Table 3); the other
//! entries are documented estimates, each annotated inline where its
//! tables are declared. [`core::crossplatform`]-style consumers
//! re-cost recorded kernels under each entry instead of citing
//! constants.

use crate::cost::InstrClass;
use crate::energy::table3;
use std::sync::OnceLock;

/// A dense per-[`InstrClass`] cycle table, indexed by
/// `InstrClass::index()` (the order of [`InstrClass::ALL`]).
pub type CycleTable = [u64; InstrClass::ALL.len()];

/// A dense per-[`InstrClass`] energy table in pJ/cycle, indexed like
/// [`CycleTable`].
pub type EnergyTable = [f64; InstrClass::ALL.len()];

/// The Cortex-M0+ cycle table (Technical Reference Manual r0p1, the
/// paper's reference \[2\]): loads/stores 2, taken branch 2 (2-stage
/// pipeline), `BL` 3, everything else — including the single-cycle
/// multiplier configuration — 1 cycle. This is the single source the
/// `const` [`InstrClass::cycles`] and the default registry entry both
/// read, in [`InstrClass::ALL`] order.
pub const M0PLUS_CYCLES: CycleTable = [
    2, // Ldr
    2, // Str
    1, // Lsl
    1, // Lsr
    1, // Eor
    1, // Logic
    1, // Add
    1, // Sub
    1, // Mul (single-cycle multiplier option)
    1, // Mov
    1, // Cmp
    2, // BranchTaken (2-stage pipeline refill)
    1, // BranchNotTaken
    3, // Bl
    1, // StackWord
    1, // Nop
];

/// Everything the cost plumbing needs to know about one core: a name,
/// the per-class cycle table, the per-class pJ/cycle table, and the
/// clock the time/power derivations assume.
#[derive(Debug, Clone, PartialEq)]
pub struct TargetSpec {
    name: &'static str,
    description: &'static str,
    cycles: CycleTable,
    pj_per_cycle: EnergyTable,
    clock_hz: u64,
}

impl TargetSpec {
    /// Builds a spec from explicit tables (for downstream sensitivity
    /// studies that want a core the registry does not ship).
    pub fn new(
        name: &'static str,
        description: &'static str,
        cycles: CycleTable,
        pj_per_cycle: EnergyTable,
        clock_hz: u64,
    ) -> TargetSpec {
        TargetSpec {
            name,
            description,
            cycles,
            pj_per_cycle,
            clock_hz,
        }
    }

    /// Registry key / CLI `--target` name, e.g. `cortex-m0plus`.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// One-line description including the estimate assumptions.
    pub fn description(&self) -> &'static str {
        self.description
    }

    /// Cycle cost of one instruction of `class` on this core.
    pub fn cycles(&self, class: InstrClass) -> u64 {
        self.cycles[class.index()]
    }

    /// Energy per cycle of `class` on this core, picojoules.
    pub fn pj_per_cycle(&self, class: InstrClass) -> f64 {
        self.pj_per_cycle[class.index()]
    }

    /// Clock frequency assumed for time/power derivation.
    pub fn clock_hz(&self) -> u64 {
        self.clock_hz
    }

    /// The dense cycle table, in [`InstrClass::ALL`] order.
    pub fn cycle_table(&self) -> CycleTable {
        self.cycles
    }

    /// The dense pJ/cycle table, in [`InstrClass::ALL`] order.
    pub fn energy_table(&self) -> EnergyTable {
        self.pj_per_cycle
    }
}

/// The paper's measured Table-3 energies plus its documented estimates
/// for unmeasured classes (stores like loads, `SUB` like `ADD`, other
/// logic like `XOR`, moves/compares/`NOP` like the cheap shift class,
/// branches like `LSL`, stack words like `LDR`) — in
/// [`InstrClass::ALL`] order. The values are pulled from
/// [`table3`], which remains the one declaration of the six
/// measured floats.
fn m0plus_energy() -> EnergyTable {
    use table3::*;
    [
        LDR_PJ, // Ldr (measured)
        LDR_PJ, // Str: same memory interface as a load
        LSL_PJ, // Lsl (measured)
        LSR_PJ, // Lsr (measured)
        XOR_PJ, // Eor (measured)
        XOR_PJ, // Logic: same datapath switching as XOR
        ADD_PJ, // Add (measured)
        ADD_PJ, // Sub: same adder as ADD
        MUL_PJ, // Mul (measured)
        LSR_PJ, // Mov: among the cheapest ALU operations
        LSR_PJ, // Cmp: like Mov
        LSL_PJ, // BranchTaken: mid-range LSL class
        LSL_PJ, // BranchNotTaken
        LSL_PJ, // Bl
        LDR_PJ, // StackWord: words over the memory interface
        LSR_PJ, // Nop
    ]
}

/// All registry targets run at the paper's 48 MHz so cross-target
/// cycle and energy columns compare like for like; time and power
/// scale trivially with the clock and would only obscure the
/// per-instruction differences the comparison is about.
const REGISTRY_CLOCK_HZ: u64 = crate::CLOCK_HZ;

fn build_registry() -> Vec<TargetSpec> {
    let mut m0_cycles = M0PLUS_CYCLES;
    // Cortex-M0 (3-stage pipeline): a taken branch refills one more
    // stage (3 cycles), and BL pays the same extra refill (4 cycles).
    // Loads/stores and data processing match the M0+.
    m0_cycles[InstrClass::BranchTaken.index()] = 3;
    m0_cycles[InstrClass::Bl.index()] = 4;

    // M0+ synthesized with the iterative (area-optimised) multiplier:
    // MULS takes 32 cycles; every other cost is the default M0+ table.
    let mut mul32_cycles = M0PLUS_CYCLES;
    mul32_cycles[InstrClass::Mul.index()] = 32;

    // Cortex-M3 class estimate (ARMv7-M, 3-stage pipeline with branch
    // speculation): single-cycle 32×32 multiplier, buffered stores
    // (1 cycle), loads 2 cycles, taken branches 3 (the TRM's 2–4
    // range), BL 4.
    let mut m3_cycles = M0PLUS_CYCLES;
    m3_cycles[InstrClass::Str.index()] = 1;
    m3_cycles[InstrClass::BranchTaken.index()] = 3;
    m3_cycles[InstrClass::Bl.index()] = 4;

    // Energy estimates for cores the paper did not measure. The M0 is
    // the same ARMv6-M datapath generation as the M0+, so its
    // per-cycle energy is estimated as the Table-3 values unchanged
    // (the M0+ is marketed as the lower-power implementation, but the
    // split is dominated by sleep modes, not active pJ/cycle). The
    // iterative multiplier busies the shift-add datapath each cycle,
    // so MUL keeps its measured per-cycle figure over 32 cycles. The
    // M3 is a larger core; active-power comparisons of the era put it
    // around 1.8× the M0+ per cycle at the same node, applied here as
    // a uniform scale on the whole Table-3 set.
    const M3_ENERGY_SCALE: f64 = 1.8;
    let m0plus_pj = m0plus_energy();
    let mut m3_pj = m0plus_pj;
    for v in &mut m3_pj {
        *v *= M3_ENERGY_SCALE;
    }

    vec![
        TargetSpec {
            name: "cortex-m0plus",
            description: "the paper's platform: 2-stage pipeline, single-cycle multiplier, \
                 measured Table-3 energies (default; bit-identical to the seed model)",
            cycles: M0PLUS_CYCLES,
            pj_per_cycle: m0plus_pj,
            clock_hz: REGISTRY_CLOCK_HZ,
        },
        TargetSpec {
            name: "cortex-m0",
            description: "3-stage ARMv6-M sibling: taken branch 3 cycles, BL 4; energy \
                 estimated as the unchanged Table-3 values (same datapath generation)",
            cycles: m0_cycles,
            pj_per_cycle: m0plus_pj,
            clock_hz: REGISTRY_CLOCK_HZ,
        },
        TargetSpec {
            name: "cortex-m0plus-mul32",
            description: "M0+ synthesized with the iterative multiplier: MULS 32 cycles at \
                 the measured MUL pJ/cycle; all other costs as the default",
            cycles: mul32_cycles,
            pj_per_cycle: m0plus_pj,
            clock_hz: REGISTRY_CLOCK_HZ,
        },
        TargetSpec {
            name: "cortex-m3",
            description: "ARMv7-M class estimate: buffered stores (1 cycle), taken branch 3, \
                 BL 4, single-cycle multiplier; energy = Table-3 scaled 1.8x (larger core)",
            cycles: m3_cycles,
            pj_per_cycle: m3_pj,
            clock_hz: REGISTRY_CLOCK_HZ,
        },
    ]
}

/// The registry of concrete targets, default first.
pub fn registry() -> &'static [TargetSpec] {
    static REGISTRY: OnceLock<Vec<TargetSpec>> = OnceLock::new();
    REGISTRY.get_or_init(build_registry)
}

/// Looks a target up by its registry name (the CLI `--target` value).
pub fn by_name(name: &str) -> Option<&'static TargetSpec> {
    registry().iter().find(|t| t.name == name)
}

/// The default target: `cortex-m0plus`, the paper's platform.
pub fn default_target() -> &'static TargetSpec {
    &registry()[0]
}

/// The paper's platform (same entry the default constructors use).
pub fn cortex_m0plus() -> &'static TargetSpec {
    by_name("cortex-m0plus").expect("registry entry")
}

/// The 3-stage Cortex-M0 estimate.
pub fn cortex_m0() -> &'static TargetSpec {
    by_name("cortex-m0").expect("registry entry")
}

/// The iterative-multiplier M0+ option.
pub fn cortex_m0plus_mul32() -> &'static TargetSpec {
    by_name("cortex-m0plus-mul32").expect("registry entry")
}

/// The Cortex-M3 class estimate.
pub fn cortex_m3() -> &'static TargetSpec {
    by_name("cortex-m3").expect("registry entry")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EnergyModel;

    #[test]
    fn default_target_matches_the_const_tables() {
        let t = default_target();
        assert_eq!(t.name, "cortex-m0plus");
        for c in InstrClass::ALL {
            assert_eq!(t.cycles(c), c.cycles(), "{c} cycle count");
        }
        let legacy = EnergyModel::cortex_m0plus();
        for c in InstrClass::ALL {
            assert_eq!(
                t.pj_per_cycle(c).to_bits(),
                legacy.picojoules_per_cycle(c).to_bits(),
                "{c} pJ/cycle"
            );
        }
    }

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        let mut seen = std::collections::HashSet::new();
        for t in registry() {
            assert!(seen.insert(t.name), "duplicate target {}", t.name);
            assert!(std::ptr::eq(by_name(t.name).expect("resolvable"), t));
            assert!(!t.description.is_empty());
            assert_eq!(t.clock_hz(), crate::CLOCK_HZ);
        }
        assert!(by_name("cortex-a53").is_none());
    }

    #[test]
    fn m0_costs_more_only_on_control_flow() {
        let m0 = cortex_m0();
        let m0p = cortex_m0plus();
        assert_eq!(m0.cycles(InstrClass::BranchTaken), 3);
        assert_eq!(m0.cycles(InstrClass::Bl), 4);
        for c in InstrClass::ALL {
            match c {
                InstrClass::BranchTaken | InstrClass::Bl => {
                    assert!(m0.cycles(c) > m0p.cycles(c))
                }
                _ => assert_eq!(m0.cycles(c), m0p.cycles(c), "{c}"),
            }
        }
    }

    #[test]
    fn mul32_only_inflates_mul() {
        let t = cortex_m0plus_mul32();
        for c in InstrClass::ALL {
            let want = if c == InstrClass::Mul { 32 } else { c.cycles() };
            assert_eq!(t.cycles(c), want, "{c}");
        }
        // The superblock lowering stores cycle costs in a u8.
        assert!(t.cycles(InstrClass::Mul) <= u8::MAX as u64);
    }

    #[test]
    fn m3_energy_is_uniformly_scaled() {
        let m3 = cortex_m3();
        let m0p = cortex_m0plus();
        for c in InstrClass::ALL {
            let ratio = m3.pj_per_cycle(c) / m0p.pj_per_cycle(c);
            assert!((ratio - 1.8).abs() < 1e-12, "{c}: {ratio}");
        }
        assert_eq!(m3.cycles(InstrClass::Str), 1);
        assert_eq!(m3.cycles(InstrClass::Mul), 1);
    }

    #[test]
    fn dense_tables_agree_with_per_class_access() {
        let t = cortex_m0();
        let cycles = t.cycle_table();
        let energy = t.energy_table();
        for c in InstrClass::ALL {
            assert_eq!(cycles[c.index()], t.cycles(c));
            assert_eq!(energy[c.index()].to_bits(), t.pj_per_cycle(c).to_bits());
        }
    }

    #[test]
    fn custom_spec_prices_each_instruction_by_its_own_cycles() {
        // A core the registry does not ship: flat 10 pJ/cycle except a
        // 20 pJ/cycle, 4-cycle multiplier.
        let mut cycles = M0PLUS_CYCLES;
        cycles[InstrClass::Mul.index()] = 4;
        let mut pj = [10.0; InstrClass::ALL.len()];
        pj[InstrClass::Mul.index()] = 20.0;
        let spec = TargetSpec::new("custom", "test core", cycles, pj, crate::CLOCK_HZ);
        let m = EnergyModel::for_target(&spec);
        assert_eq!(m.picojoules_per_cycle(InstrClass::Add), 10.0);
        assert_eq!(m.picojoules_per_cycle(InstrClass::Mul), 20.0);
        assert_eq!(m.picojoules_per_instr(InstrClass::Ldr), 20.0);
        assert_eq!(m.picojoules_per_instr(InstrClass::Mul), 80.0);
        for c in InstrClass::ALL {
            assert_eq!(m.cycles_of(c), spec.cycles(c), "{c}");
            assert_eq!(
                m.picojoules_per_instr(c).to_bits(),
                (spec.pj_per_cycle(c) * spec.cycles(c) as f64).to_bits(),
                "{c}"
            );
        }
    }
}
