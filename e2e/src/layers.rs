//! Per-layer numbers every traced run reports whatever its workload:
//! host field-operation costs on seed-drawn operands, and the modeled
//! M0+ point-multiplication cost.

use crate::metrics::Values;
use crate::stats;
use gf2m::modeled::Tier;
use gf2m::Fe;
use prng::SplitMix64;
use std::time::Instant;

const DOMAIN_OPERANDS: u64 = 0xe2e_0400;
/// Seed-drawn operands per field-operation probe.
const OPERANDS: usize = 4096;
/// Probe repetitions; each metric is the median.
const REPS: usize = 3;

/// The modeled kP/kG cost: `(kp_cycles, kg_cycles, kp_energy_uj)`,
/// averaged over scalars 1..3 on the paper's assembly tier.
pub fn modeled() -> (u64, u64, f64) {
    let kp = bench::workloads::average_kp(Tier::Asm, 1..3);
    let kg = bench::workloads::average_kg(Tier::Asm, 1..3);
    (
        kp.report.cycles,
        kg.report.cycles,
        kp.report.energy_pj / 1e6,
    )
}

/// Median ns per call of `op` over the operands, across repetitions.
fn per_call_ns(operands: &[Fe], op: impl Fn(Fe, Fe) -> Fe) -> f64 {
    let runs: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            let mut acc = Fe::ZERO;
            for pair in operands.windows(2) {
                acc += op(pair[0], std::hint::black_box(pair[1]));
            }
            std::hint::black_box(acc);
            t0.elapsed().as_nanos() as f64 / (operands.len() - 1) as f64
        })
        .collect();
    stats::median(&runs)
}

/// Sets the `gf2m.*_ns` per-call metrics and the `model.*` metrics.
pub fn probe(seed: u64, v: &mut Values) {
    let mut rng = SplitMix64::substream(seed, DOMAIN_OPERANDS, 0);
    let operands: Vec<Fe> = (0..OPERANDS)
        .map(|_| {
            let mut w = [0u32; gf2m::N];
            rng.fill_u32(&mut w);
            Fe::from_words_reduced(w)
        })
        .collect();
    v.set("gf2m.mul_ns", per_call_ns(&operands, |a, b| a * b));
    v.set("gf2m.sqr_ns", per_call_ns(&operands, |a, _| a.square()));
    v.set(
        "gf2m.inv_ns",
        per_call_ns(&operands, |a, _| a.invert().unwrap_or(Fe::ZERO)),
    );
    let (kp, kg, kp_uj) = modeled();
    v.set("model.kp_cycles", kp as f64);
    v.set("model.kg_cycles", kg as f64);
    v.set("model.kp_energy_uj", kp_uj);
}
