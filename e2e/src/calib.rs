//! Host-speed calibration.
//!
//! The shared host this benchmark runs on slows down by up to 1.8× for
//! seconds to minutes at a time while other tenants load its caches
//! and memory, which swamps any code change. Every measured call is
//! therefore paired with a fixed probe whose work resembles the
//! library's hot paths (heap-allocated 256-bit limb vectors, schoolbook
//! products, rotate/xor passes) but whose code the library never
//! touches. A call's wall time is scaled by the probe's speed-up back to
//! `REFERENCE_NS`, raised to `SENSITIVITY`: an estimate of the time the
//! call would have taken on the reference host at rest. On that host
//! the probe tracks the batch workloads' slowdowns to within about 10 %,
//! where a plain ALU loop sees only a third of them.

use std::hint::black_box;
use std::time::Instant;

/// Median probe time on the reference host (a 2-vCPU Xeon VM) at rest.
pub const REFERENCE_NS: f64 = 470_000.0;

/// How strongly the library's code slows, in log terms, for each unit
/// the probe slows. The probe is the more contention-sensitive of the
/// two: when it ran 2× slower, ECDH batches ran only about 1.5× slower
/// and signing about 1.9×. Over eight 15 s runs per workload, 0.9
/// narrowed the run-to-run spread of `ops_per_s` on all five, against
/// full scaling.
const SENSITIVITY: f64 = 0.9;

/// Neighbours on each side whose probe times are pooled with a
/// sample's own (a median over five) to damp the probe's jitter.
const SMOOTHING: usize = 2;

/// The probe's fixed work.
fn work(seed: u64) -> u64 {
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x as u32
    };
    let mut acc = 0u64;
    for _ in 0..400 {
        let a: Vec<u32> = (0..8).map(|_| next()).collect();
        let b: Vec<u32> = (0..8).map(|_| next()).collect();
        let mut p = vec![0u32; 16];
        for i in 0..8 {
            let mut carry = 0u64;
            for j in 0..8 {
                let t = u64::from(p[i + j]) + u64::from(a[i]) * u64::from(b[j]) + carry;
                p[i + j] = t as u32;
                carry = t >> 32;
            }
            p[i + 8] = carry as u32;
        }
        let mut v = p.clone();
        for k in 0..64u32 {
            let s: Vec<u32> = v.iter().map(|w| w.rotate_left(k % 31)).collect();
            v = s.iter().zip(&p).map(|(a, b)| a ^ b).collect();
        }
        acc = acc.wrapping_add(u64::from(v[3]));
    }
    acc
}

/// Runs the probe once; returns its wall time in ns.
pub fn probe() -> f64 {
    let t0 = Instant::now();
    black_box(work(black_box(0x9E37_79B9_7F4A_7C15)));
    t0.elapsed().as_nanos() as f64
}

/// The median of five probes: one probe's jitter would swamp a single
/// interval's scale factor.
pub fn settled_probe() -> f64 {
    crate::stats::median(&[probe(), probe(), probe(), probe(), probe()])
}

/// The factor that scales a wall time measured while the probe took
/// `probe_ns` to the reference host at rest.
pub fn factor(probe_ns: f64) -> f64 {
    (REFERENCE_NS / probe_ns).powf(SENSITIVITY)
}

/// Scale factor per probe: `factor` of the median probe time of the
/// sample and its `SMOOTHING` neighbours on each side.
pub fn factors(probes: &[f64]) -> Vec<f64> {
    (0..probes.len())
        .map(|i| {
            let lo = i.saturating_sub(SMOOTHING);
            let hi = (i + SMOOTHING + 1).min(probes.len());
            factor(crate::stats::median(&probes[lo..hi]))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factors_pool_neighbouring_probes() {
        let f = factors(&[REFERENCE_NS, REFERENCE_NS, 4.0 * REFERENCE_NS, REFERENCE_NS]);
        // One slow probe among its neighbours is jitter, not a slow host.
        assert_eq!(f, vec![1.0, 1.0, 1.0, 1.0]);
        let slow = factors(&[2.0 * REFERENCE_NS; 3]);
        assert_eq!(slow, vec![factor(2.0 * REFERENCE_NS); 3]);
        // A host twice as slow for the probe is less slow for the code.
        assert!(slow[0] > 0.5 && slow[0] < 1.0);
        assert!(probe() > 0.0);
    }
}
