//! Verification subsystem: secret-independence checking and cross-tier
//! differential fuzzing.
//!
//! The paper's whole argument rests on the M0+ cost model — cycles and
//! the Table-3 per-instruction energy figures are what a power attacker
//! observes — so any secret-dependent variation in the instruction,
//! address or cycle trace of a crypto kernel is simultaneously a
//! model-accuracy bug and a simulated SPA leak. This crate provides the
//! two engines that turn that requirement into automated evidence:
//!
//! * [`leakage`] — runs every registered crypto kernel on pairs of
//!   random secret inputs with the [`m0plus`] trace recorder armed and
//!   asserts trace equivalence class-by-class ([`m0plus::TraceClass`]),
//!   reporting the first divergent instruction with its disassembly and
//!   a per-kernel verdict. Kernels with *documented* dependence (the
//!   data-dependent EEA inversion, the wTNAF digit pattern) carry their
//!   justification in the registry and are checked to leak only in the
//!   allowed classes.
//! * [`differential`] — a seeded, deterministic fuzz harness that feeds
//!   identical random field elements, scalars and wire frames through
//!   every execution tier (portable `Fe`, the u64 `GenericField`
//!   oracle, the counted tier, the modeled machine with and without a
//!   machine-code capture session) and cross-checks results, cycle
//!   counts between the two modeled runs, and decoder error taxonomy.
//! * [`shrink`] — a greedy byte-level shrinker used to report a minimal
//!   counterexample when (if) a differential case disagrees.
//!
//! Everything is seeded from the in-tree [`prng`] and contains no
//! wall-clock or randomness source, so two runs with the same
//! configuration produce byte-identical reports — CI runs the smoke
//! campaign twice and diffs the output.

pub mod differential;
pub mod leakage;
pub mod shrink;

pub use differential::{DiffConfig, DiffReport, Disagreement};
pub use leakage::{Cost, Kernel, KernelVerdict, LeakageConfig};
