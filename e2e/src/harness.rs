//! What every workload shares: run options, repeated set-up, the
//! trace sample, and turning latency samples into end-to-end metrics.

use crate::calib;
use crate::metrics::Outcome;
use crate::stats;
use prng::SplitMix64;
use protocols::Sha256;
use std::time::{Duration, Instant};

/// PRNG domain of the 1-in-8 trace sample.
const DOMAIN_TRACE: u64 = 0xe2e_0001;

/// How one workload process runs.
#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    pub seed: u64,
    /// Length of the measured phase (set-up and the warm-up prefix come
    /// before it).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Set-up repetitions; `setup_s` is their median.
    pub setup_reps: usize,
}

impl RunOpts {
    /// The measured phases: untraced runs measure for the whole run; a
    /// traced run first measures a third of it untraced (the baseline
    /// for `trace.overhead`), then traces the rest.
    pub fn phases(&self) -> Vec<(bool, Duration)> {
        let total = Duration::from_secs_f64(self.seconds);
        if self.trace {
            vec![(false, total / 3), (true, total - total / 3)]
        } else {
            vec![(false, total)]
        }
    }
}

/// Whether item `index` of a workload belongs to the seeded 1-in-8
/// trace sample.
pub fn sampled(seed: u64, index: u64) -> bool {
    SplitMix64::substream(seed, DOMAIN_TRACE, index).below(8) == 0
}

/// Per item, the traced phase's wall time over the untraced phase's,
/// minus one, each without its side work (shadows and w2 re-runs;
/// calibration probes), from `[(wall_ns, side_ns, items); 2]`.
pub fn overhead(phases: &[(f64, f64, u64)]) -> f64 {
    match phases {
        [(u_wall, u_side, u_n), (t_wall, t_side, t_n)] if *u_n > 0 && *t_n > 0 => {
            ((t_wall - t_side) / *t_n as f64) / ((u_wall - u_side) / *u_n as f64) - 1.0
        }
        _ => 0.0,
    }
}

/// One set-up repetition's result: the ready state, the digest of the
/// warm-up prefix's outputs, and the prefix's operations and failures.
pub struct SetupRun<S> {
    pub state: S,
    pub digest: Sha256,
    pub attempted: u64,
    pub failed: u64,
}

/// Runs `setup` `reps` times and records their median in `setup_s`,
/// each scaled to the reference host by the probes taken just before
/// and after it, and notes the peak anonymous memory so far.
/// Counts a failure if the repetitions' prefix digests disagree (the
/// prefix is a pure function of the seed). Returns the last
/// repetition's state.
pub fn repeated_setup<S>(
    reps: usize,
    out: &mut Outcome,
    mut setup: impl FnMut() -> SetupRun<S>,
) -> S {
    let mut times = Vec::new();
    let mut last = None;
    let mut before = calib::settled_probe();
    for _ in 0..reps.max(1) {
        // Free the previous repetition first: the peak is one set-up's.
        drop(last.take());
        let t0 = Instant::now();
        let run = setup();
        let wall = t0.elapsed().as_secs_f64();
        let after = calib::settled_probe();
        let digest = run.digest.finalize();
        if !times.is_empty() && digest != out.digest {
            eprintln!("set-up repetitions produced different prefix digests");
            out.failed += 1;
        }
        out.digest = digest;
        out.attempted += run.attempted;
        out.failed += run.failed;
        times.push(wall * calib::factor((before + after) / 2.0));
        before = after;
        last = Some(run.state);
    }
    out.values.set("setup_s", stats::median(&times));
    // Taken before the measured phase, whose sample vectors are the
    // benchmark's, not the system's.
    out.note("peak_anon_mb", stats::peak_rss_mib().1, "MiB");
    last.expect("at least one repetition")
}

/// Calibrated busy time per throughput window.
const WINDOW_NS: f64 = 1e9;

/// The measured phase's calls, each paired with a calibration probe.
#[derive(Debug, Default)]
pub struct Timed {
    /// Probe wall ns, one per measured call (or service tick).
    pub probes: Vec<f64>,
    /// (wall ns, probe index, operations completed) per measured call.
    pub calls: Vec<(f64, usize, u64)>,
    /// (wall ns, probe index) per latency sample.
    pub latency: Vec<(f64, usize)>,
}

impl Timed {
    /// Runs a calibration probe; returns its index for the calls and
    /// latency samples it stands for, and its wall ns.
    pub fn probe(&mut self) -> (usize, f64) {
        let ns = calib::probe();
        self.probes.push(ns);
        (self.probes.len() - 1, ns)
    }

    /// Records one call that is also one latency sample.
    pub fn call(&mut self, ns: f64, probe: usize, ops: u64) {
        self.calls.push((ns, probe, ops));
        self.latency.push((ns, probe));
    }

    /// Sets `ops_per_s`, `latency_p50_ms` and `latency_tail_ms` (at the
    /// workload's `tail` percentile) from calibrated times, and notes
    /// the sample count, the raw wall-clock rate and the host speed.
    ///
    /// `ops_per_s` is the median rate over consecutive windows of about
    /// a second of calibrated busy time (the whole phase when it is
    /// shorter), so a burst of host noise moves one window, not the
    /// rate.
    pub fn report(self, tail: u32, out: &mut Outcome) {
        assert!(
            !self.latency.is_empty() && !self.calls.is_empty(),
            "the measured phase completed no operation"
        );
        let f = calib::factors(&self.probes);
        let mut rates = Vec::new();
        let (mut ops, mut busy) = (0, 0.0);
        for &(ns, i, n) in &self.calls {
            ops += n;
            busy += ns * f[i];
            if busy >= WINDOW_NS {
                rates.push(ops as f64 / (busy / 1e9));
                (ops, busy) = (0, 0.0);
            }
        }
        if rates.is_empty() {
            rates.push(ops as f64 / (busy / 1e9));
        }
        let total_ops: u64 = self.calls.iter().map(|c| c.2).sum();
        let wall: f64 = self.calls.iter().map(|c| c.0).sum();
        let n = self.latency.len();
        let lat = stats::sorted(self.latency.iter().map(|&(ns, i)| ns * f[i]).collect());
        out.values.set("ops_per_s", stats::median(&rates));
        out.values
            .set("latency_p50_ms", stats::percentile(&lat, 50.0) / 1e6);
        out.values.set(
            "latency_tail_ms",
            stats::percentile(&lat, f64::from(tail)) / 1e6,
        );
        out.note("latency_samples", n, "count");
        out.note("latency_tail_percentile", tail, "percentile");
        out.note("wall_ops_per_s", total_ops as f64 / (wall / 1e9), "ops/s");
        out.note("host_speed", stats::median(&f), "ratio");
        if stats::tail_percentile(n).is_none_or(|p| p < tail) {
            eprintln!("warning: p{tail} has fewer than 10 of {n} latency samples beyond it");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_with(digests: &[u8]) -> Outcome {
        let mut out = Outcome::default();
        let mut next = digests.iter();
        let state = repeated_setup(digests.len(), &mut out, || {
            let mut digest = Sha256::new();
            digest.update(&[*next.next().expect("one digest per repetition")]);
            SetupRun {
                state: 7,
                digest,
                attempted: 2,
                failed: 0,
            }
        });
        assert_eq!(state, 7);
        out
    }

    #[test]
    fn repeated_setup_flags_repetitions_that_disagree() {
        let same = run_with(&[1, 1, 1]);
        assert_eq!((same.failed, same.attempted), (0, 6));
        assert!(same.values.get("setup_s").is_some_and(|s| s > 0.0));
        assert_eq!(run_with(&[1, 2, 2]).failed, 1);
    }

    #[test]
    fn ops_per_s_is_the_median_window_rate() {
        let mut t = Timed {
            probes: vec![calib::REFERENCE_NS; 3],
            ..Timed::default()
        };
        // Three one-second windows at 10, 20 and 1000 ops/s.
        t.call(1e9, 0, 10);
        t.call(1e9, 1, 20);
        t.call(1e9, 2, 1000);
        let mut out = Outcome::default();
        t.report(75, &mut out);
        assert_eq!(out.values.get("ops_per_s"), Some(20.0));
        assert_eq!(out.values.get("latency_p50_ms"), Some(1000.0));
    }
}
