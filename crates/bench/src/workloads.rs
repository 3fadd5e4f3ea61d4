//! Workload generation and shared measurement helpers for the table
//! regenerators.

use gf2m::modeled::{KernelFootprint, ModeledField, Tier};
use gf2m::Fe;
use koblitz::modeled::{ModeledMul, PointMulRun};
use koblitz::{order, Int};
use m0plus::{Backend, Category};

/// A deterministic full-size scalar (the paper averages over random
/// scalars; the cost model is data-independent up to digit patterns, so
/// a handful of fixed scalars gives the same averages reproducibly).
pub fn scalar(seed: u64) -> Int {
    let hex = format!("{:016x}", seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    Int::from_hex(&hex.repeat(4))
        .expect("valid hex")
        .mod_positive(&order())
}

/// A deterministic field element.
pub fn element(seed: u64) -> Fe {
    let mut s = seed.wrapping_mul(0xA076_1D64_78BD_642F) | 1;
    let mut w = [0u32; 8];
    for x in w.iter_mut() {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        *x = (s >> 11) as u32;
    }
    Fe::from_words_reduced(w)
}

/// Cycle counts of the field kernels on one tier:
/// `(sqr, mul_main, mul_lut, inversion)`.
pub fn kernel_cycles(tier: Tier) -> (u64, u64, u64, u64) {
    kernel_cycles_with(tier, Backend::Direct)
}

/// [`kernel_cycles`] on an explicit execution backend. The totals are
/// asserted identical across backends by the tier tests; regenerating a
/// table with `--backend code` re-derives every number from assembled
/// Thumb-16 machine code.
pub fn kernel_cycles_with(tier: Tier, backend: Backend) -> (u64, u64, u64, u64) {
    let mut f = ModeledField::new(tier);
    f.set_backend(backend);
    let a = f.alloc_init(element(1));
    let b = f.alloc_init(element(2));
    let z = f.alloc();
    let snap = f.machine().snapshot();
    f.sqr(z, a);
    let sqr = f.machine().report_since(&snap).cycles;
    let snap = f.machine().snapshot();
    f.mul(z, a, b);
    let r = f.machine().report_since(&snap);
    let lut = r.category_cycles(Category::MultiplyPrecomputation);
    let mul_main = r.category_cycles(Category::Multiply);
    let snap = f.machine().snapshot();
    f.inv(z, a);
    let inv = f.machine().report_since(&snap).cycles;
    (sqr, mul_main, lut, inv)
}

/// Cycle count of the C-tier rotating-registers multiplication
/// (Table 6's "LD with rotating registers" row).
pub fn rotating_c_cycles() -> u64 {
    let mut f = ModeledField::new(Tier::C);
    let a = f.alloc_init(element(3));
    let b = f.alloc_init(element(4));
    let z = f.alloc();
    let snap = f.machine().snapshot();
    f.mul_rotating_c(z, a, b);
    let r = f.machine().report_since(&snap);
    r.category_cycles(Category::Multiply)
}

/// A modeled multiplier on `tier` running its kernels through `backend`.
fn multiplier(tier: Tier, backend: Backend) -> ModeledMul {
    let mut mm = ModeledMul::new(tier);
    mm.field_mut().set_backend(backend);
    mm
}

/// Per-kernel flash footprints of one full kP + kG on the code backend
/// (the code-size numbers the cycle tables can't show).
pub fn kernel_flash(tier: Tier) -> Vec<(&'static str, KernelFootprint)> {
    let mut mm = multiplier(tier, Backend::Code);
    let g = koblitz::generator();
    mm.kp(&g, &scalar(1));
    mm.kg(&scalar(1));
    mm.field()
        .flash_report()
        .iter()
        .map(|(&name, &fp)| (name, fp))
        .collect()
}

/// Averaged modeled kP over `seeds` scalars.
pub fn average_kp(tier: Tier, seeds: std::ops::Range<u64>) -> PointMulRun {
    average_kp_with(tier, Backend::Direct, seeds)
}

/// [`average_kp`] on an explicit execution backend.
pub fn average_kp_with(tier: Tier, backend: Backend, seeds: std::ops::Range<u64>) -> PointMulRun {
    let g = koblitz::generator();
    let runs: Vec<PointMulRun> = seeds
        .map(|s| {
            let mut mm = multiplier(tier, backend);
            mm.kp(&g, &scalar(s))
        })
        .collect();
    average(runs)
}

/// One modeled kP priced under a [`m0plus::target`] registry entry
/// (direct backend) — the cross-target export and table rows. With the
/// default target this is bit-identical to [`average_kp`] over the
/// same single seed.
pub fn kp_under_target(tier: Tier, target: &'static m0plus::TargetSpec, seed: u64) -> PointMulRun {
    let mut mm = ModeledMul::with_target(tier, target);
    mm.kp(&koblitz::generator(), &scalar(seed))
}

/// Averaged modeled kG over `seeds` scalars.
pub fn average_kg(tier: Tier, seeds: std::ops::Range<u64>) -> PointMulRun {
    average_kg_with(tier, Backend::Direct, seeds)
}

/// [`average_kg`] on an explicit execution backend.
pub fn average_kg_with(tier: Tier, backend: Backend, seeds: std::ops::Range<u64>) -> PointMulRun {
    let runs: Vec<PointMulRun> = seeds
        .map(|s| {
            let mut mm = multiplier(tier, backend);
            mm.kg(&scalar(s))
        })
        .collect();
    average(runs)
}

/// Averaged RELIC-style multiplication (w = 4 online precomputation,
/// used for both its kG and kP).
pub fn average_relic(seeds: std::ops::Range<u64>) -> PointMulRun {
    let g = koblitz::generator();
    let runs: Vec<PointMulRun> = seeds
        .map(|s| {
            let mut mm = ModeledMul::new(Tier::RelicC);
            mm.run(&g, &scalar(s), 4, true)
        })
        .collect();
    average(runs)
}

/// Averages a set of runs into one representative run (cycle counts are
/// averaged; the result point is taken from the first run).
pub fn average(mut runs: Vec<PointMulRun>) -> PointMulRun {
    assert!(!runs.is_empty());
    if runs.len() == 1 {
        return runs.pop().expect("non-empty");
    }
    let first = runs[0].clone();
    let n = runs.len() as u64;
    let mut merged = first.report.clone();
    for r in &runs[1..] {
        merged = merged.merged(&r.report);
    }
    // Scale down: rebuild a report with averaged numbers by merging and
    // dividing cycles/energy. RunReport has no division; approximate by
    // reporting the merged totals divided by n through a fresh struct.
    let mut avg = merged.clone();
    avg.cycles /= n;
    avg.energy_pj /= n as f64;
    for (_, t) in avg.by_category.iter_mut() {
        t.cycles /= n;
        t.energy_pj /= n as f64;
    }
    PointMulRun {
        result: first.result,
        report: avg,
    }
}
