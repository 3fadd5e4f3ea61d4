//! The fault-injection campaign: sampled glitches against recorded
//! field kernels, classified against hardened and unhardened
//! countermeasure profiles, plus the measured cost of every
//! countermeasure.
//!
//! # Methodology
//!
//! Each target kernel is run once with the machine recording
//! ([`m0plus::fault::RecordedKernel::capture`]), giving a concrete
//! Thumb-16 instruction stream and the pre-run machine image. The
//! campaign then replays that stream N times through
//! [`m0plus::fault::RecordedKernel::classify`], each time with one
//! sampled [`FaultPlan`] (instruction skip, register bit flip, or
//! memory bit flip at a uniform trace index). A case is settled by
//! def/use liveness of the fault-free run where that suffices, and
//! every such case is benign, because the run ends with the fault-free
//! result words `z`:
//!
//! * a register or memory flip on a location the fault-free run writes
//!   before it reads it again, or never touches again outside `z`, is
//!   not replayed at all;
//! * any other fault is replayed from the fault-free run's last
//!   checkpoint before it, and stops at the first checkpoint after it
//!   if flags, program counter, call depth and every register and RAM
//!   word still to be read there are the fault-free run's again.
//!
//! Every other replay runs to its end or aborts. Replays are
//! classified:
//!
//! * **aborted** — the executor raised an [`m0plus::ExecError`] (the
//!   model's HardFault, e.g. a corrupted base register walking out of
//!   RAM). The node detects these for free.
//! * **benign** — the replay completed and the kernel result equals
//!   the fault-free result.
//! * **altered** — the replay completed with a wrong result. This is
//!   the dangerous class; per countermeasure profile it splits into
//!   *detected* and *silent*.
//!
//! Detection is evaluated host-side with predicates provably
//! equivalent to the charged in-machine checks (the modeled kernels
//! are verified bit-for-bit against the portable field arithmetic, so
//! "recompute and compare" in-machine computes exactly the portable
//! product): the *recompute* profile flags a result that differs from
//! the operation applied to the (possibly faulted) inputs as they are
//! in RAM after the run; the *full* profile adds the redundant
//! input-copy compare, flagging inputs that no longer match their
//! pre-run values. Memory-flip sampling excludes the squaring table's
//! word range ([`gf2m::modeled::ModeledField::rom_words`]): that table
//! models flash ROM, and an in-machine recompute would reuse a
//! corrupted copy, so host-side detection there would over-claim.
//!
//! Countermeasure *overhead* is measured separately, on clean machines
//! running the actual charged checks ([`ModeledField::mul_checked`],
//! [`koblitz::modeled::ModeledMul::kp_hardened`], …) so the reported
//! cycles/energy/flash come from executed instruction streams, not
//! estimates.

use gf2m::modeled::{FeSlot, ModeledField, Tier};
use gf2m::Fe;
use koblitz::modeled::{Hardening, ModeledMul};
use m0plus::fault::{FaultKind, FaultPlan, Outcome, RecordedKernel};
use m0plus::Machine;
use prng::SplitMix64;
use std::fmt::Write as _;

/// Campaign parameters.
#[derive(Debug, Clone, Copy)]
pub struct CampaignConfig {
    /// Seed for the fault sampler (the whole campaign is a pure
    /// function of this seed, the target and the code).
    pub seed: u64,
    /// Sampled faults per target kernel.
    pub runs_per_kernel: usize,
    /// The core the kernels are recorded and replayed on (fault
    /// *verdicts* are architectural and thus target-invariant; trace
    /// lengths and replay costs are not).
    pub target: &'static m0plus::TargetSpec,
}

impl CampaignConfig {
    /// A campaign on the default target (`cortex-m0plus`).
    pub fn new(seed: u64, runs_per_kernel: usize) -> CampaignConfig {
        CampaignConfig {
            seed,
            runs_per_kernel,
            target: m0plus::target::default_target(),
        }
    }

    /// The same campaign priced under another registry target.
    pub fn with_target(mut self, target: &'static m0plus::TargetSpec) -> CampaignConfig {
        self.target = target;
        self
    }
}

/// The field operation a target kernel computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Mul,
    Sqr,
    Inv,
    Add,
}

/// One campaign target: a named kernel on a tier.
struct Target {
    name: &'static str,
    tier: Tier,
    tier_label: &'static str,
    op: Op,
}

/// The five kernels the campaign perturbs: both multiplier tiers, the
/// squaring and inversion kernels, and a support kernel.
fn targets() -> Vec<Target> {
    vec![
        Target {
            name: "mul_asm",
            tier: Tier::Asm,
            tier_label: "asm",
            op: Op::Mul,
        },
        Target {
            name: "sqr_asm",
            tier: Tier::Asm,
            tier_label: "asm",
            op: Op::Sqr,
        },
        Target {
            name: "mul_ld_fixed_c",
            tier: Tier::C,
            tier_label: "c",
            op: Op::Mul,
        },
        Target {
            name: "inv_eea_c",
            tier: Tier::Asm,
            tier_label: "c",
            op: Op::Inv,
        },
        Target {
            name: "fe_add",
            tier: Tier::Asm,
            tier_label: "asm",
            op: Op::Add,
        },
    ]
}

/// Per-kernel campaign outcome counters.
#[derive(Debug, Clone)]
pub struct KernelStats {
    /// Kernel name (matches the flash report keys).
    pub name: &'static str,
    /// Implementation tier label.
    pub tier: &'static str,
    /// Instructions in the recorded trace.
    pub trace_len: u64,
    /// Faults sampled.
    pub sampled: usize,
    /// Sampled instruction skips / register flips / memory flips.
    pub skip_faults: usize,
    /// See [`KernelStats::skip_faults`].
    pub reg_faults: usize,
    /// See [`KernelStats::skip_faults`].
    pub mem_faults: usize,
    /// Replays that aborted with a clean executor error.
    pub aborted: usize,
    /// Replays whose result matched the fault-free run.
    pub benign: usize,
    /// Replays that completed with a wrong result.
    pub altered: usize,
    /// Altered results the recompute-and-compare profile catches.
    pub detected_recompute: usize,
    /// Altered results the full profile (recompute + input-copy
    /// compare) catches.
    pub detected_full: usize,
}

impl KernelStats {
    /// Detection rate of the recompute profile over altered results
    /// (1.0 when no fault altered a result).
    pub fn rate_recompute(&self) -> f64 {
        if self.altered == 0 {
            1.0
        } else {
            self.detected_recompute as f64 / self.altered as f64
        }
    }

    /// Detection rate of the full hardened profile over altered
    /// results.
    pub fn rate_full(&self) -> f64 {
        if self.altered == 0 {
            1.0
        } else {
            self.detected_full as f64 / self.altered as f64
        }
    }

    /// Altered results the unhardened profile lets through silently —
    /// all of them, as a fraction of sampled faults.
    pub fn silent_unhardened(&self) -> f64 {
        self.altered as f64 / self.sampled.max(1) as f64
    }

    /// Silent corruptions of the full profile, as a fraction of
    /// sampled faults.
    pub fn silent_full(&self) -> f64 {
        (self.altered - self.detected_full) as f64 / self.sampled.max(1) as f64
    }
}

/// Full campaign result.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// The seed the sampler ran with.
    pub seed: u64,
    /// Faults per kernel.
    pub runs_per_kernel: usize,
    /// Registry name of the target the kernels ran on.
    pub target: &'static str,
    /// Per-kernel outcome counters, in fixed target order.
    pub kernels: Vec<KernelStats>,
}

impl CampaignReport {
    /// Detection rate of the full profile across all kernels.
    pub fn overall_rate_full(&self) -> f64 {
        let altered: usize = self.kernels.iter().map(|k| k.altered).sum();
        let detected: usize = self.kernels.iter().map(|k| k.detected_full).sum();
        if altered == 0 {
            1.0
        } else {
            detected as f64 / altered as f64
        }
    }
}

/// A recorded target kernel plus everything needed to judge a replay.
struct PreparedTarget {
    stats_name: &'static str,
    tier_label: &'static str,
    op: Op,
    kernel: RecordedKernel,
    regions: Vec<std::ops::Range<u32>>,
    /// The result's words, the only ones [`judge`] reads of a run that
    /// ends with the fault-free result.
    live_out: [std::ops::Range<u32>; 1],
    a: FeSlot,
    b: FeSlot,
    z: FeSlot,
    a0: Fe,
    b0: Fe,
    expected: Fe,
}

fn load_fe(machine: &Machine, slot: FeSlot) -> Fe {
    let words = machine.read_slice(slot.0, 8);
    Fe::from_words_reduced(words.try_into().expect("8 words"))
}

/// Records one target kernel.
fn prepare(target: &Target, spec: &'static m0plus::TargetSpec) -> PreparedTarget {
    let mut f = ModeledField::with_target(target.tier, spec);
    let a0 = crate::workloads::element(1);
    let b0 = crate::workloads::element(2);
    let a = f.alloc_init(a0);
    let b = f.alloc_init(b0);
    let z = f.alloc();
    let rom = f.rom_words();
    let regions = vec![0..rom.start, rom.end..f.machine().allocated_words()];

    let (kernel, ()) = RecordedKernel::capture(&mut f, |f| match target.op {
        Op::Mul => f.mul(z, a, b),
        Op::Sqr => f.sqr(z, a),
        Op::Inv => f.inv(z, a),
        Op::Add => f.add(z, a, b),
    });
    let expected = f.load(z);
    let result_words = z.0 .0..z.0 .0 + 8;

    PreparedTarget {
        stats_name: target.name,
        tier_label: target.tier_label,
        op: target.op,
        kernel,
        regions,
        live_out: [result_words],
        a,
        b,
        z,
        a0,
        b0,
        expected,
    }
}

/// Whether the (possibly faulted) inputs and output are coherent under
/// the kernel's operation — what an in-machine recompute-and-compare
/// countermeasure observes.
fn recompute_coherent(op: Op, af: Fe, bf: Fe, zf: Fe) -> bool {
    match op {
        Op::Mul => zf == af * bf,
        Op::Sqr => zf == af.square(),
        Op::Inv => match af.invert() {
            Some(inv) => zf == inv,
            None => false, // inverting zero: always flagged
        },
        Op::Add => zf == af + bf,
    }
}

/// How the campaign counts one case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Aborted,
    Benign,
    /// A wrong result, and whether the recompute and full profiles
    /// catch it.
    Altered {
        recompute: bool,
        full: bool,
    },
}

/// The verdict on one replay outcome. A dead fault and a converged run
/// end with the fault-free result, so they are benign; the inputs are
/// read only from a run whose result is wrong.
fn judge(t: &PreparedTarget, outcome: Outcome) -> Verdict {
    let run = match outcome {
        Outcome::Dead | Outcome::Converged => return Verdict::Benign,
        Outcome::Ran(run) => run,
    };
    if run.aborted() {
        return Verdict::Aborted;
    }
    let zf = load_fe(&run.machine, t.z);
    if zf == t.expected {
        return Verdict::Benign;
    }
    let af = load_fe(&run.machine, t.a);
    let bf = match t.op {
        Op::Sqr | Op::Inv => af, // unary: b unused
        _ => load_fe(&run.machine, t.b),
    };
    let recompute = !recompute_coherent(t.op, af, bf, zf);
    let inputs_detect = af != t.a0
        || match t.op {
            Op::Sqr | Op::Inv => false,
            _ => bf != t.b0,
        };
    Verdict::Altered {
        recompute,
        full: recompute || inputs_detect,
    }
}

/// The fault of case `case` of kernel `kernel`, drawn from its own PRNG
/// substream keyed by (seed, kernel, case index), so any worker computes
/// case `c` without replaying `0..c` — the foundation of
/// shard-count-invariant reports.
fn case_plan(seed: u64, kernel: u64, t: &PreparedTarget, case: usize) -> FaultPlan {
    let mut rng = SplitMix64::substream(seed, kernel, case as u64);
    FaultPlan::sample(&mut rng, t.kernel.trace_len(), &t.regions)
}

/// Outcome counters accumulated by one shard window of one kernel's
/// case list; summed in window order into [`KernelStats`].
#[derive(Debug, Default, Clone, Copy)]
struct PartialStats {
    skip_faults: usize,
    reg_faults: usize,
    mem_faults: usize,
    aborted: usize,
    benign: usize,
    altered: usize,
    detected_recompute: usize,
    detected_full: usize,
}

/// Replays and classifies the cases of one shard window, each through
/// [`RecordedKernel::classify`] with the result words live: a dead
/// flip is not replayed, and a faulted run whose live state is golden
/// at the first checkpoint after its fault stops there.
fn run_cases(
    seed: u64,
    kernel: u64,
    t: &PreparedTarget,
    window: std::ops::Range<usize>,
) -> PartialStats {
    let mut p = PartialStats::default();
    for case in window {
        let plan = case_plan(seed, kernel, t, case);
        match plan.kind {
            FaultKind::SkipInstruction => p.skip_faults += 1,
            FaultKind::RegisterBitFlip { .. } => p.reg_faults += 1,
            FaultKind::MemoryBitFlip { .. } => p.mem_faults += 1,
        }
        match judge(t, t.kernel.classify(&plan, &t.live_out)) {
            Verdict::Aborted => p.aborted += 1,
            Verdict::Benign => p.benign += 1,
            Verdict::Altered { recompute, full } => {
                p.altered += 1;
                p.detected_recompute += usize::from(recompute);
                p.detected_full += usize::from(full);
            }
        }
    }
    p
}

/// Runs the full campaign: N sampled faults per kernel, deterministic
/// in `cfg.seed`. Single shard, calling thread only — byte-identical
/// to [`run_campaign_sharded`] at any shard/worker count.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignReport {
    run_campaign_sharded(cfg, 1, 1)
}

/// [`run_campaign`] with each kernel's case list split into `shards`
/// contiguous windows executed on up to `workers` threads (see
/// [`crate::shard`]). Per-case PRNG substreams make every case a pure
/// function of its index, and the window counters are merged in
/// canonical case order, so the report — down to the rendered bytes —
/// is identical for any shard and worker count.
pub fn run_campaign_sharded(cfg: &CampaignConfig, shards: usize, workers: usize) -> CampaignReport {
    let kernels = targets()
        .iter()
        .enumerate()
        .map(|(i, target)| {
            let t = prepare(target, cfg.target);
            let partials =
                crate::shard::run_shards(cfg.runs_per_kernel, shards, workers, |_, w| {
                    run_cases(cfg.seed, i as u64, &t, w)
                });
            let mut stats = KernelStats {
                name: t.stats_name,
                tier: t.tier_label,
                trace_len: t.kernel.trace_len(),
                sampled: cfg.runs_per_kernel,
                skip_faults: 0,
                reg_faults: 0,
                mem_faults: 0,
                aborted: 0,
                benign: 0,
                altered: 0,
                detected_recompute: 0,
                detected_full: 0,
            };
            for p in partials {
                stats.skip_faults += p.skip_faults;
                stats.reg_faults += p.reg_faults;
                stats.mem_faults += p.mem_faults;
                stats.aborted += p.aborted;
                stats.benign += p.benign;
                stats.altered += p.altered;
                stats.detected_recompute += p.detected_recompute;
                stats.detected_full += p.detected_full;
            }
            stats
        })
        .collect();
    CampaignReport {
        seed: cfg.seed,
        runs_per_kernel: cfg.runs_per_kernel,
        target: cfg.target.name(),
        kernels,
    }
}

/// Measured cost of one countermeasure.
#[derive(Debug, Clone)]
pub struct CountermeasureOverhead {
    /// Countermeasure name (stable identifier for the JSON export).
    pub name: &'static str,
    /// Extra cycles per protected operation.
    pub cycles: u64,
    /// Extra energy per protected operation, picojoules.
    pub energy_pj: f64,
    /// Extra flash for kernels the countermeasure links in that the
    /// unprotected stack does not use (shared kernels count once).
    pub flash_bytes: usize,
    /// How the number was obtained.
    pub note: &'static str,
}

/// Measures every countermeasure's overhead on clean machines.
///
/// Field-level checks run in a capture session so the marginal *flash*
/// of the compare/copy kernels is measured too (and every kernel is
/// checked against its machine code); point-level checks run
/// [`ModeledMul::kp_hardened`] with each toggle against the same
/// scalar, uncaptured (a capture leaves cycles and energy as they are).
pub fn measure_overheads() -> Vec<CountermeasureOverhead> {
    let mut out = Vec::new();

    // ---- field level, captured (for flash numbers) ----
    let mut f = ModeledField::new(Tier::Asm);
    f.start_capture();
    let a = f.alloc_init(crate::workloads::element(1));
    let b = f.alloc_init(crate::workloads::element(2));
    let (z, s1, s2, c1, c2) = (f.alloc(), f.alloc(), f.alloc(), f.alloc(), f.alloc());

    let delta = |f: &mut ModeledField, op: &mut dyn FnMut(&mut ModeledField)| {
        let snap = f.machine().snapshot();
        op(f);
        let r = f.machine().report_since(&snap);
        (r.cycles, r.energy_pj)
    };

    let (mul_plain_c, mul_plain_e) = delta(&mut f, &mut |f| f.mul(z, a, b));
    let (mul_chk_c, mul_chk_e) = delta(&mut f, &mut |f| {
        assert!(f.mul_checked(z, a, b, s1));
    });
    let (sqr_plain_c, sqr_plain_e) = delta(&mut f, &mut |f| f.sqr(z, a));
    let (sqr_chk_c, sqr_chk_e) = delta(&mut f, &mut |f| {
        assert!(f.sqr_checked(z, a, s1));
    });
    let (inv_plain_c, inv_plain_e) = delta(&mut f, &mut |f| f.inv(z, a));
    let (inv_chk_c, inv_chk_e) = delta(&mut f, &mut |f| {
        assert!(f.inv_checked(z, a, s1, s2));
    });
    // Redundant input copies + post-run compares (the "full" profile's
    // extra work for a binary kernel).
    let (input_c, input_e) = delta(&mut f, &mut |f| {
        f.copy(c1, a);
        f.copy(c2, b);
        assert!(f.equal(c1, a));
        assert!(f.equal(c2, b));
    });

    let flash = f.take_capture();
    let fp_bytes = |name: &str| flash.get(name).map(|fp| fp.flash_bytes).unwrap_or(0);
    let equal_flash = fp_bytes("fe_equal");
    let copy_flash = fp_bytes("fe_copy");
    let setc_flash = fp_bytes("fe_set_const");

    out.push(CountermeasureOverhead {
        name: "fe_mul_recompute",
        cycles: mul_chk_c - mul_plain_c,
        energy_pj: mul_chk_e - mul_plain_e,
        flash_bytes: equal_flash,
        note: "second multiplication + compare, measured",
    });
    out.push(CountermeasureOverhead {
        name: "fe_sqr_recompute",
        cycles: sqr_chk_c - sqr_plain_c,
        energy_pj: sqr_chk_e - sqr_plain_e,
        flash_bytes: equal_flash,
        note: "second squaring + compare, measured",
    });
    out.push(CountermeasureOverhead {
        name: "fe_inv_multiply_back",
        cycles: inv_chk_c - inv_plain_c,
        energy_pj: inv_chk_e - inv_plain_e,
        flash_bytes: equal_flash + setc_flash,
        note: "z*x == 1 check, measured (cheaper than re-inverting)",
    });
    out.push(CountermeasureOverhead {
        name: "fe_input_copy_compare",
        cycles: input_c,
        energy_pj: input_e,
        flash_bytes: copy_flash + equal_flash,
        note: "two redundant copies + compares, measured",
    });

    // ---- point level: kp_hardened toggles vs the unhardened kp ----
    let g = koblitz::generator();
    let k = crate::workloads::scalar(5);
    let kp_with = |h: Hardening| {
        let mut mm = ModeledMul::new(Tier::Asm);
        let run = mm.kp_hardened(&g, &k, h).expect("valid inputs pass");
        (run.report.cycles, run.report.energy_pj)
    };
    let (off_c, off_e) = kp_with(Hardening::OFF);
    for (name, h, flash_bytes, note) in [
        (
            "kp_validate_base_point",
            Hardening {
                validate_base: true,
                ..Hardening::OFF
            },
            equal_flash,
            "charged on-curve check of the base point, measured",
        ),
        (
            "kp_reject_infinity_result",
            Hardening {
                reject_infinity: true,
                ..Hardening::OFF
            },
            0,
            "charged Z == 0 test (is-zero kernel already linked)",
        ),
        (
            "kp_check_result_on_curve",
            Hardening {
                check_result: true,
                ..Hardening::OFF
            },
            equal_flash,
            "charged on-curve check of the result, measured",
        ),
    ] {
        let (c, e) = kp_with(h);
        out.push(CountermeasureOverhead {
            name,
            cycles: c - off_c,
            energy_pj: e - off_e,
            flash_bytes,
            note,
        });
    }

    // ---- protocol level ----
    // verify-after-sign re-runs a verification: about one kP-class
    // double multiplication. Report the modeled kP as the proxy.
    out.push(CountermeasureOverhead {
        name: "ecdsa_verify_after_sign",
        cycles: off_c,
        energy_pj: off_e,
        flash_bytes: 0,
        note: "proxy: one modeled kP (verify is one double-multiply)",
    });
    // Subgroup validation of a received point is an on-curve check
    // plus two traces and one half-trace (~116 double squarings): far
    // below one kP. Report the modeled kP as a generous upper bound.
    out.push(CountermeasureOverhead {
        name: "wire_order_validation",
        cycles: off_c,
        energy_pj: off_e,
        flash_bytes: 0,
        note: "proxy upper bound: one kP (check is on-curve + two traces)",
    });
    out
}

/// Renders the campaign as the fixed-width table the CI gate diffs.
/// Fully deterministic for a given seed.
pub fn render_campaign(report: &CampaignReport) -> String {
    let mut out = String::new();
    let w = &mut out;
    writeln!(
        w,
        "fault campaign: seed {}, {} faults/kernel, target {} (skip / reg-flip / mem-flip)",
        report.seed, report.runs_per_kernel, report.target
    )
    .unwrap();
    writeln!(
        w,
        "{:<16} {:>6} {:>7} {:>7} {:>7} {:>7} | {:>10} {:>10} {:>10}",
        "kernel",
        "trace",
        "faults",
        "abort",
        "benign",
        "altered",
        "unhardened",
        "recompute",
        "full"
    )
    .unwrap();
    for k in &report.kernels {
        writeln!(
            w,
            "{:<16} {:>6} {:>7} {:>7} {:>7} {:>7} | {:>9.1}% {:>9.1}% {:>9.1}%",
            k.name,
            k.trace_len,
            k.sampled,
            k.aborted,
            k.benign,
            k.altered,
            0.0,
            100.0 * k.rate_recompute(),
            100.0 * k.rate_full(),
        )
        .unwrap();
    }
    writeln!(
        w,
        "detection rate over altered results; unhardened detects nothing by construction"
    )
    .unwrap();
    writeln!(
        w,
        "overall full-profile detection: {:.1}%",
        100.0 * report.overall_rate_full()
    )
    .unwrap();
    out
}

/// Renders the countermeasure overhead table (cycles, energy, flash).
pub fn render_overheads(overheads: &[CountermeasureOverhead]) -> String {
    let mut out = String::new();
    let w = &mut out;
    writeln!(w, "countermeasure overhead (per protected operation)").unwrap();
    writeln!(
        w,
        "{:<26} {:>10} {:>12} {:>11}  note",
        "countermeasure", "cycles", "energy_pj", "flash_bytes"
    )
    .unwrap();
    for o in overheads {
        writeln!(
            w,
            "{:<26} {:>10} {:>12.1} {:>11}  {}",
            o.name, o.cycles, o.energy_pj, o.flash_bytes, o.note
        )
        .unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_is_deterministic_and_full_profile_detects_everything() {
        let cfg = CampaignConfig::new(7, 4);
        let r1 = run_campaign(&cfg);
        let r2 = run_campaign(&cfg);
        assert_eq!(render_campaign(&r1), render_campaign(&r2));
        for k in &r1.kernels {
            assert_eq!(k.sampled, 4);
            assert_eq!(k.aborted + k.benign + k.altered, k.sampled);
            assert_eq!(
                k.skip_faults + k.reg_faults + k.mem_faults,
                k.sampled,
                "{}: every fault has a kind",
                k.name
            );
        }
        // The acceptance bar: hardened profiles detect at least 90% of
        // faults that alter a result. The full profile is in fact
        // complete: an altered result implies either incoherent
        // (input, output) or changed inputs.
        assert!(r1.overall_rate_full() >= 0.9);
        for k in &r1.kernels {
            assert!(
                k.detected_full == k.altered,
                "{}: full profile missed {} of {} altered results",
                k.name,
                k.altered - k.detected_full,
                k.altered
            );
        }
    }

    #[test]
    fn report_is_invariant_under_shard_and_worker_count() {
        let cfg = CampaignConfig::new(11, 9);
        let baseline = render_campaign(&run_campaign_sharded(&cfg, 1, 1));
        for (shards, workers) in [(2, 1), (4, 2), (4, 4), (9, 3)] {
            assert_eq!(
                render_campaign(&run_campaign_sharded(&cfg, shards, workers)),
                baseline,
                "shards = {shards}, workers = {workers}"
            );
        }
    }

    use m0plus::asm::{Assembler, Program};
    use m0plus::fault::FaultedRun;
    use m0plus::{Instr, Recording, Reg, StepAction};

    fn prepared() -> Vec<PreparedTarget> {
        prepared_on(m0plus::target::default_target())
    }

    fn prepared_on(spec: &'static m0plus::TargetSpec) -> Vec<PreparedTarget> {
        targets().iter().map(|t| prepare(t, spec)).collect()
    }

    /// Every case `classify` settles — dead, converged or replayed to
    /// the end — gets the verdict of the full replay, the oracle that
    /// prunes nothing.
    #[test]
    fn cut_off_classification_equals_full_replay() {
        for spec in [m0plus::target::cortex_m0plus(), m0plus::target::cortex_m0()] {
            for (kernel, t) in prepared_on(spec).iter().enumerate() {
                let (mut dead, mut converged) = (0, 0);
                for seed in [7, 7919] {
                    for case in 0..128 {
                        let plan = case_plan(seed, kernel as u64, t, case);
                        let outcome = t.kernel.classify(&plan, &t.live_out);
                        dead += usize::from(matches!(outcome, Outcome::Dead));
                        converged += usize::from(matches!(outcome, Outcome::Converged));
                        let full = Outcome::Ran(Box::new(t.kernel.replay(Some(&plan))));
                        assert_eq!(
                            judge(t, outcome),
                            judge(t, full),
                            "{} on {} seed {seed} case {case}: {plan:?}",
                            t.stats_name,
                            spec.name()
                        );
                    }
                }
                assert!(dead > 0, "{}: the dead rule never fired", t.stats_name);
                if t.stats_name == "inv_eea_c" {
                    assert!(converged > 0, "live convergence never fired on inv_eea_c");
                }
            }
        }
    }

    /// A replay from `pre` through the public per-step executor: before
    /// every instruction the recording's due register writes, its
    /// category and the fault, then the writes after the last one.
    fn replay_per_step(k: &RecordedKernel, fault: Option<&FaultPlan>) -> FaultedRun {
        let rec = k.recording();
        let mut machine = k.pre().clone();
        let saved = machine.category_override();
        let mut next_write = 0;
        let max_steps = rec.len() as u64 + 1;
        let stats = m0plus::execute_fragment_ctl(&mut machine, k.program(), max_steps, |m, idx| {
            while let Some(w) = rec.reg_writes.get(next_write).filter(|w| w.at <= idx) {
                m.set_reg(w.reg, w.value);
                next_write += 1;
            }
            m.set_category_override(Some(rec.steps[idx].category));
            match fault.filter(|f| f.at == idx as u64).map(|f| f.kind) {
                Some(FaultKind::SkipInstruction) => return StepAction::Skip,
                Some(FaultKind::RegisterBitFlip { reg, bit }) => m.flip_reg_bit(reg, bit),
                Some(FaultKind::MemoryBitFlip { word, bit }) => {
                    m.flip_mem_bit(word, bit);
                }
                None => {}
            }
            StepAction::Execute
        });
        if stats.is_ok() {
            for w in &rec.reg_writes[next_write..] {
                machine.set_reg(w.reg, w.value);
            }
        }
        machine.set_category_override(saved);
        FaultedRun { machine, stats }
    }

    #[test]
    fn resumed_replays_equal_per_step_replays_from_pre() {
        for t in prepared() {
            let (k, name) = (&t.kernel, t.stats_name);
            let (len, interval) = (k.trace_len(), k.checkpoint_interval());
            let word = t.a.0 .0 + 3;
            let mut plans: Vec<FaultPlan> = [0, interval - 1, interval, interval + 1, len - 1]
                .into_iter()
                .flat_map(|at| {
                    [
                        FaultKind::SkipInstruction,
                        FaultKind::RegisterBitFlip {
                            reg: Reg::R2,
                            bit: 4,
                        },
                        FaultKind::MemoryBitFlip { word, bit: 17 },
                    ]
                    .map(|kind| FaultPlan { at, kind })
                })
                .collect();
            // The top bit of a base register flipped just before a
            // load through it sends the load out of RAM.
            let (at, rn) = (interval + 1..len)
                .find_map(|i| match k.recording().steps[i as usize].instr {
                    Instr::LdrImm { rn, .. } => Some((i, rn)),
                    _ => None,
                })
                .expect("a load after the first checkpoint");
            let abort = FaultPlan {
                at,
                kind: FaultKind::RegisterBitFlip { reg: rn, bit: 31 },
            };
            plans.push(abort);
            for plan in [None].into_iter().chain(plans.iter().map(Some)) {
                let context = format!("{name} {plan:?}");
                let got = k.replay(plan);
                let want = replay_per_step(k, plan);
                assert_eq!(got.stats, want.stats, "{context}");
                got.machine.assert_same_state(&want.machine, &context);
            }
            assert!(k.replay(Some(&abort)).aborted(), "{name}");
        }
    }

    /// The translation `backend::translate` replaced: every branch aimed
    /// at a label on the next instruction, resolved by the assembler.
    fn assembled(recording: &Recording) -> Program {
        let mut a = Assembler::new();
        for (i, step) in recording.steps.iter().enumerate() {
            let next = format!("L{i}");
            match step.instr {
                Instr::BCond { cond } => a.branch_if(cond, &next),
                Instr::B | Instr::Bx => a.branch(&next),
                Instr::Bl => a.call(&next),
                Instr::LdrLit { rt, .. } => {
                    a.load_literal(rt, step.literal.expect("literal value"));
                    continue;
                }
                other => {
                    a.push(other);
                    continue;
                }
            }
            a.label(&next);
        }
        a.assemble().expect("assembles")
    }

    #[test]
    fn label_free_translation_equals_the_assembler_on_every_kernel() {
        for t in prepared() {
            let want = assembled(t.kernel.recording());
            assert_eq!(t.kernel.program().code, want.code, "{}", t.stats_name);
            assert_eq!(t.kernel.program().pool, want.pool, "{}", t.stats_name);
        }
    }

    #[test]
    fn different_seeds_draw_different_faults() {
        let a = run_campaign(&CampaignConfig::new(1, 6));
        let b = run_campaign(&CampaignConfig::new(2, 6));
        assert_ne!(render_campaign(&a), render_campaign(&b));
    }
}
