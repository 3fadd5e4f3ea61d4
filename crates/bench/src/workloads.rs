//! Workload generation and shared measurement helpers for the table
//! regenerators.

use gf2m::modeled::{KernelFootprint, ModeledField, Tier};
use gf2m::Fe;
use koblitz::modeled::{ModeledMul, PointMulRun};
use koblitz::{order, Int};
use m0plus::Category;

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
    kernel_cycles_on(&mut ModeledField::new(tier))
}

/// [`kernel_cycles`] on a fresh field `f`, which may have a capture
/// session open.
fn kernel_cycles_on(f: &mut ModeledField) -> (u64, u64, u64, u64) {
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
    rotating_c_cycles_on(&mut ModeledField::new(Tier::C))
}

/// [`rotating_c_cycles`] on a fresh C-tier field `f`, which may have a
/// capture session open.
fn rotating_c_cycles_on(f: &mut ModeledField) -> u64 {
    let a = f.alloc_init(element(3));
    let b = f.alloc_init(element(4));
    let z = f.alloc();
    let snap = f.machine().snapshot();
    f.mul_rotating_c(z, a, b);
    let r = f.machine().report_since(&snap);
    r.category_cycles(Category::Multiply)
}

/// Per-kernel flash footprints of one full kP + kG, from a capture
/// session that also replays every kernel call from its assembled
/// Thumb-16 (the code-size numbers the cycle tables can't show).
pub fn kernel_flash(tier: Tier) -> Vec<(&'static str, KernelFootprint)> {
    let mut mm = ModeledMul::new(tier);
    mm.field_mut().start_capture();
    let g = koblitz::generator();
    mm.kp(&g, &scalar(1));
    mm.kg(&scalar(1));
    mm.field_mut().take_capture().into_iter().collect()
}

/// Averaged modeled kP over `seeds` scalars.
pub fn average_kp(tier: Tier, seeds: std::ops::Range<u64>) -> PointMulRun {
    let g = koblitz::generator();
    let runs: Vec<PointMulRun> = seeds
        .map(|s| ModeledMul::new(tier).kp(&g, &scalar(s)))
        .collect();
    average(runs)
}

/// One modeled kP priced under a [`m0plus::target`] registry entry —
/// the cross-target export and table rows. With the default target
/// this is bit-identical to [`average_kp`] over the same single seed.
pub fn kp_under_target(tier: Tier, target: &'static m0plus::TargetSpec, seed: u64) -> PointMulRun {
    let mut mm = ModeledMul::with_target(tier, target);
    mm.kp(&koblitz::generator(), &scalar(seed))
}

/// Averaged modeled kG over `seeds` scalars.
pub fn average_kg(tier: Tier, seeds: std::ops::Range<u64>) -> PointMulRun {
    let runs: Vec<PointMulRun> = seeds
        .map(|s| ModeledMul::new(tier).kg(&scalar(s)))
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

/// Averages a set of runs into one representative run: cycles,
/// instruction counts and category cycles are integer means, energies
/// float means; the result point is taken from the first run.
pub fn average(mut runs: Vec<PointMulRun>) -> PointMulRun {
    assert!(!runs.is_empty());
    if runs.len() == 1 {
        return runs.pop().expect("non-empty");
    }
    let n = runs.len() as u64;
    let mut avg = runs[0].report.clone();
    for r in &runs[1..] {
        avg = avg.merged(&r.report);
    }
    avg.cycles /= n;
    avg.energy_pj /= n as f64;
    avg.counts = avg.counts.divided_by(n);
    for (_, t) in avg.by_category.iter_mut() {
        t.cycles /= n;
        t.energy_pj /= n as f64;
    }
    PointMulRun {
        result: runs.swap_remove(0).result,
        report: avg,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m0plus::RunReport;

    /// Asserts two reports agree field for field, energies to the bit.
    fn assert_same_report(got: &RunReport, want: &RunReport, context: &str) {
        assert_eq!(got.cycles, want.cycles, "{context}: cycles");
        assert_eq!(
            got.energy_pj.to_bits(),
            want.energy_pj.to_bits(),
            "{context}: energy"
        );
        assert_eq!(got.counts, want.counts, "{context}: instruction mix");
        assert_eq!(got.clock_hz, want.clock_hz, "{context}: clock");
        assert_eq!(got.by_category.len(), want.by_category.len());
        for ((c, a), (c2, b)) in got.by_category.iter().zip(&want.by_category) {
            assert_eq!(c, c2, "{context}: category order");
            assert_eq!(a.cycles, b.cycles, "{context}: {c} cycles");
            assert_eq!(
                a.energy_pj.to_bits(),
                b.energy_pj.to_bits(),
                "{context}: {c} energy"
            );
        }
    }

    /// Every measured column of Table 6 replayed from assembled
    /// Thumb-16: the C and Asm field kernels, the C rotating-register
    /// multiplication, and kP and kG at the table's seed on both tiers.
    /// Each run has a capture session open, which asserts after every
    /// kernel call that the machine-code replay ends in bit-identical
    /// state; the captured runs then print the numbers `table6` prints.
    #[test]
    fn table6_columns_replay_from_thumb() {
        // The modeled kP checks its result with a host kP, which looks
        // its table up in the wTNAF cache.
        let _cache = crate::wtnaf_cache_serial();
        for tier in [Tier::C, Tier::Asm] {
            let mut f = ModeledField::new(tier);
            f.start_capture();
            assert_eq!(kernel_cycles_on(&mut f), kernel_cycles(tier), "{tier:?}");
            let captured = f.take_capture();
            assert_eq!(captured.values().map(|fp| fp.calls).sum::<u64>(), 3);

            let captured = |run: fn(&mut ModeledMul) -> PointMulRun| {
                let mut mm = ModeledMul::new(tier);
                mm.field_mut().start_capture();
                let out = run(&mut mm);
                let calls: u64 = mm
                    .field_mut()
                    .take_capture()
                    .values()
                    .map(|fp| fp.calls)
                    .sum();
                assert!(calls > 1000, "{tier:?}: {calls} kernel calls captured");
                out
            };
            for (label, got, want) in [
                (
                    "kP",
                    captured(|mm| mm.kp(&koblitz::generator(), &scalar(5))),
                    average_kp(tier, 5..6),
                ),
                (
                    "kG",
                    captured(|mm| mm.kg(&scalar(5))),
                    average_kg(tier, 5..6),
                ),
            ] {
                let context = format!("{tier:?} {label}");
                assert_eq!(got.result, want.result, "{context}: point");
                assert_same_report(&got.report, &want.report, &context);
            }
        }
        let mut f = ModeledField::new(Tier::C);
        f.start_capture();
        assert_eq!(rotating_c_cycles_on(&mut f), rotating_c_cycles());
        assert_eq!(f.take_capture().len(), 1, "one rotating multiplication");
    }

    #[test]
    fn averaging_copies_of_one_run_returns_it() {
        let mut f = ModeledField::new(Tier::Asm);
        let (a, b, z) = (
            f.alloc_init(element(1)),
            f.alloc_init(element(2)),
            f.alloc(),
        );
        f.mul(z, a, b);
        f.inv(z, a);
        let run = PointMulRun {
            result: koblitz::generator(),
            report: f.machine().report(),
        };
        let avg = average(vec![run.clone(), run.clone()]);
        assert_eq!(avg.result, run.result);
        assert_same_report(&avg.report, &run.report, "average of two copies");
    }
}
