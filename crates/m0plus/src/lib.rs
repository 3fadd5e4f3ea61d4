//! Instruction-level cost and energy model of the ARM Cortex-M0+.
//!
//! This crate is the *measurement substrate* of the reproduction of
//! "Ultra Low-Power implementation of ECC on the ARM Cortex-M0+"
//! (De Clercq, Uhsadel, Van Herrewege, Verbauwhede — DAC 2014).
//!
//! The paper evaluates on a physical Cortex-M0+ board attached to a power
//! measurement rig. No such board is available here, so we substitute a
//! micro-architectural cost model: an abstract machine ([`Machine`]) with
//! the ARMv6-M register file (13 general-purpose registers, the lo/hi
//! register split of the Thumb instruction set), word-addressed RAM, and a
//! per-instruction cycle cost table taken from the Cortex-M0+ Technical
//! Reference Manual (loads/stores 2 cycles, data processing 1 cycle, taken
//! branches 2 cycles — the M0+ has a 2-stage pipeline).
//!
//! Energy is accounted per cycle and per instruction class using the
//! paper's own measured values (its Table 3: LDR 10.98 pJ/cycle … ADD
//! 13.45 pJ/cycle at 48 MHz); see [`EnergyModel`] for the documented
//! assumptions covering classes the paper does not list.
//!
//! Algorithm kernels from the sibling crates are written as *virtual
//! assembly*: straight-line sequences of calls on [`Machine`], one call per
//! Thumb instruction. The machine both executes the computation (so the
//! result can be checked against an independent portable implementation)
//! and tallies cycles, instruction counts and energy, attributed to
//! operation categories ([`Category`]) so that the paper's Table 7 can be
//! regenerated.
//!
//! # Example
//!
//! ```
//! use m0plus::{Machine, Reg};
//!
//! let mut m = Machine::new(64);
//! let buf = m.alloc(2);
//! m.write_slice(buf, &[5, 7]);
//! m.set_reg(Reg::R0, buf.to_base_register_value());
//! m.ldr(Reg::R1, Reg::R0, 0); // 2 cycles
//! m.ldr(Reg::R2, Reg::R0, 1); // 2 cycles
//! m.eors(Reg::R1, Reg::R2);   // 1 cycle
//! assert_eq!(m.reg(Reg::R1), 5 ^ 7);
//! assert_eq!(m.cycles(), 5);
//! ```

pub mod asm;
pub mod backend;
pub mod cost;
pub mod energy;
pub mod exec;
pub mod fault;
pub mod footprint;
pub mod isa;
pub mod machine;
pub mod profile;
pub mod report;
pub mod rig;
pub mod target;
pub mod trace;

pub use cost::InstrClass;
pub use energy::EnergyModel;
pub use exec::{
    execute, execute_fragment_ctl, execute_predecoded, predecode, predecode_cache_reset,
    predecode_cache_stats, predecode_with, ExecError, ExecStats, Predecoded, StepAction,
};
pub use fault::{FaultKind, FaultPlan, FaultedRun, RecordedKernel};
pub use isa::Instr;
pub use machine::{Addr, Cond, Machine, RecordedSetReg, RecordedStep, Recording, Reg};
pub use profile::{Category, CategoryTotals};
pub use report::{ClassCounts, RunReport, Snapshot};
pub use rig::MeasurementRig;
pub use target::TargetSpec;
pub use trace::{Trace, TraceClass, TraceDivergence, TraceEvent};

/// Clock frequency of the paper's target platform: 48 MHz.
pub const CLOCK_HZ: u64 = 48_000_000;
