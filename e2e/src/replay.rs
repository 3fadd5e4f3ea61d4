//! `fault_replay`: the m0plus replay executor the fault campaigns spend
//! their time in, driven through `bench::campaign` one pass at a time.
//!
//! It does no host `Fe` arithmetic, so it is the workload every gf2m
//! and koblitz change should leave alone. Its latency is the wall time
//! of one campaign pass.

use crate::harness::{self, RunOpts, SetupRun, Timed};
use crate::layers;
use crate::metrics::Outcome;
use crate::stats;
use crate::trace::Tracer;
use bench::campaign::{render_campaign, run_campaign_sharded, CampaignConfig, CampaignReport};
use gf2m::modeled::{ModeledField, Tier};
use m0plus::exec::{predecode_cache_reset, predecode_cache_stats};
use m0plus::fault::{FaultPlan, RecordedKernel};
use prng::SplitMix64;
use protocols::Sha256;
use std::ops::Range;
use std::time::Instant;

const DOMAIN_PASS: u64 = 0xe2e_0300;
/// Sampled faults per kernel in one pass.
const FAULTS_PER_KERNEL: usize = 100;
/// Passes run before measuring: recording, predecode and the digest.
const PREFIX_PASSES: u64 = 2;
/// Latency tail percentile (see `BatchLoad::TAIL`): in a quiet hour on
/// the reference host, p90 of a pass spread 8 % between runs, p75 3 %.
const TAIL: u32 = 75;
/// Measured passes re-run afterwards to confirm their reports repeat.
const RECHECKS: usize = 4;

#[derive(Debug, Clone, Copy)]
enum FieldOp {
    Mul,
    Sqr,
    Inv,
    Add,
}

/// The campaign's five kernels in its own order (the order fixes each
/// kernel's fault-sampling substream), with their shadow span names.
const KERNELS: [(&str, Tier, FieldOp); 5] = [
    ("m0plus.replay.mul_asm", Tier::Asm, FieldOp::Mul),
    ("m0plus.replay.sqr_asm", Tier::Asm, FieldOp::Sqr),
    ("m0plus.replay.mul_ld_fixed_c", Tier::C, FieldOp::Mul),
    ("m0plus.replay.inv_eea_c", Tier::Asm, FieldOp::Inv),
    ("m0plus.replay.fe_add", Tier::Asm, FieldOp::Add),
];

fn pass_seed(seed: u64, pass: u64) -> u64 {
    SplitMix64::substream(seed, DOMAIN_PASS, pass).next_u64()
}

fn run_pass(seed: u64, pass: u64) -> CampaignReport {
    let cfg = CampaignConfig::new(pass_seed(seed, pass), FAULTS_PER_KERNEL);
    run_campaign_sharded(&cfg, 1, 1)
}

fn render_hash(report: &CampaignReport) -> [u8; 32] {
    Sha256::digest(render_campaign(report).as_bytes())
}

/// Counts the pass's internal inconsistencies: every sampled fault is
/// classified exactly once and detections never exceed alterations.
fn check(report: &CampaignReport) -> u64 {
    let bad_kernels = report
        .kernels
        .iter()
        .filter(|k| {
            k.sampled != FAULTS_PER_KERNEL
                || k.skip_faults + k.reg_faults + k.mem_faults != k.sampled
                || k.aborted + k.benign + k.altered != k.sampled
                || k.detected_recompute > k.detected_full
                || k.detected_full > k.altered
        })
        .count();
    bad_kernels as u64 + u64::from(report.kernels.len() != KERNELS.len())
}

/// A kernel recorded the way the campaign records it, with the RAM
/// regions its memory faults are drawn from (the squaring table, which
/// models flash, excluded).
struct Recorded {
    kernel: RecordedKernel,
    regions: Vec<Range<u32>>,
}

fn record(tier: Tier, op: FieldOp) -> Recorded {
    let mut f = ModeledField::with_target(tier, m0plus::target::default_target());
    let a = f.alloc_init(bench::workloads::element(1));
    let b = f.alloc_init(bench::workloads::element(2));
    let z = f.alloc();
    let rom = f.rom_words();
    let pre = f.machine().clone();
    let regions = vec![0..rom.start, rom.end..pre.allocated_words()];
    f.machine_mut().start_recording();
    match op {
        FieldOp::Mul => f.mul(z, a, b),
        FieldOp::Sqr => f.sqr(z, a),
        FieldOp::Inv => f.inv(z, a),
        FieldOp::Add => f.add(z, a, b),
    }
    let recording = f.machine_mut().take_recording();
    let program = m0plus::backend::translate(&recording).expect("recorded trace assembles");
    Recorded {
        kernel: RecordedKernel::new(pre, program, recording),
        regions,
    }
}

/// Shadow of one pass: record the five kernels again, then replay a
/// 1-in-8 sample of the pass's own fault cases. Returns (instructions
/// retired by completed replays, their ns, trace-length mismatches).
fn shadow_pass(
    seed: u64,
    pass: u64,
    report: &CampaignReport,
    parent: u32,
    tr: &mut Tracer,
) -> (u64, f64, u64) {
    let (recorded, _) = tr.span("m0plus.record", Some(parent), pass, || {
        KERNELS.map(|(_, tier, op)| record(tier, op))
    });
    let mut mismatches = 0;
    let (mut instructions, mut ns) = (0, 0.0);
    let cases: Vec<usize> = (pass as usize % 8..FAULTS_PER_KERNEL).step_by(8).collect();
    let weight = FAULTS_PER_KERNEL as f64 / cases.len() as f64;
    for (k, ((span, _, _), r)) in KERNELS.iter().zip(&recorded).enumerate() {
        if report.kernels[k].trace_len != r.kernel.trace_len() {
            mismatches += 1;
        }
        for &case in &cases {
            let mut rng = SplitMix64::substream(pass_seed(seed, pass), k as u64, case as u64);
            let plan = FaultPlan::sample(&mut rng, r.kernel.trace_len(), &r.regions);
            let (run, id) = tr.span(span, Some(parent), case as u64, || {
                r.kernel.replay(Some(&plan))
            });
            tr.set_weight(id, weight);
            if let Ok(stats) = run.stats {
                instructions += stats.instructions;
                ns += tr.spans()[id as usize].ns();
            }
        }
    }
    (instructions, ns, mismatches)
}

pub fn run(opts: &RunOpts) -> (Outcome, Option<Tracer>) {
    let mut out = Outcome::default();
    harness::repeated_setup(opts.setup_reps, &mut out, || {
        // Each repetition records and predecodes from a cold cache.
        predecode_cache_reset();
        let mut digest = Sha256::new();
        let mut failed = 0;
        for i in 0..PREFIX_PASSES {
            let report = run_pass(opts.seed, i);
            failed += check(&report);
            digest.update(render_campaign(&report).as_bytes());
        }
        SetupRun {
            state: (),
            digest,
            attempted: PREFIX_PASSES * (KERNELS.len() * FAULTS_PER_KERNEL) as u64,
            failed,
        }
    });

    let mut tracer = Tracer::default();
    let mut timed = Timed::default();
    let mut pass = PREFIX_PASSES;
    let (mut sampled, mut aborted, mut altered, mut detected) = (0, 0, 0, 0);
    let (mut pd_hits, mut pd_misses) = (0, 0);
    let (mut instructions, mut instr_ns) = (0, 0.0);
    let mut rechecks = Vec::new();
    let mut phase_cost = Vec::new();
    let ops_per_pass = (KERNELS.len() * FAULTS_PER_KERNEL) as u64;
    for (traced, length) in opts.phases() {
        let start = Instant::now();
        let (mut side_ns, mut passes) = (0.0, 0);
        while start.elapsed() < length {
            let probe = (!traced).then(|| timed.probe());
            let (h0, m0) = predecode_cache_stats();
            let t0 = Instant::now();
            let report = std::hint::black_box(run_pass(opts.seed, pass));
            let ns = t0.elapsed().as_nanos() as f64;
            let parent = traced.then(|| tracer.since("campaign.pass", None, pass, t0));
            let (h1, m1) = predecode_cache_stats();
            pd_hits += h1 - h0;
            pd_misses += m1 - m0;
            if let Some((k, probe_ns)) = probe {
                timed.call(ns, k, ops_per_pass);
                side_ns += probe_ns;
            }
            out.attempted += ops_per_pass;
            out.failed += check(&report);
            for k in &report.kernels {
                sampled += k.sampled;
                aborted += k.aborted;
                altered += k.altered;
                detected += k.detected_full;
            }
            if pass.is_multiple_of(16) && rechecks.len() < RECHECKS {
                rechecks.push((pass, render_hash(&report)));
            }
            if let Some(parent) = parent.filter(|_| harness::sampled(opts.seed, pass)) {
                let t1 = Instant::now();
                let (n, t, bad) = shadow_pass(opts.seed, pass, &report, parent, &mut tracer);
                instructions += n;
                instr_ns += t;
                out.failed += bad;
                side_ns += t1.elapsed().as_nanos() as f64;
            }
            pass += 1;
            passes += 1;
        }
        phase_cost.push((start.elapsed().as_nanos() as f64, side_ns, passes));
    }
    // A campaign pass is a pure function of its seed: re-running one
    // must reproduce its report byte for byte.
    for (p, hash) in rechecks {
        if render_hash(&run_pass(opts.seed, p)) != hash {
            eprintln!("campaign pass {p} did not repeat");
            out.failed += 1;
        }
    }
    // The modeled clock's kP/kG, part of the checked output.
    let (kp, kg, kp_uj) = layers::modeled();
    let mut digest = Sha256::new();
    digest.update(&out.digest);
    digest.update(&kp.to_be_bytes());
    digest.update(&kg.to_be_bytes());
    digest.update(&kp_uj.to_bits().to_be_bytes());
    out.digest = digest.finalize();
    out.note("kp_cycles", kp, "cycles");
    out.note("kg_cycles", kg, "cycles");
    out.note("kp_energy_uj", format!("{kp_uj:.4}"), "uJ");
    out.note("campaign_passes", pass, "passes");

    if !opts.trace {
        timed.report(TAIL, &mut out);
        return (out, None);
    }
    let v = &mut out.values;
    v.set(
        "m0plus.replay_ns.mul_asm",
        stats::mean(&tracer.durations("m0plus.replay.mul_asm")),
    );
    v.set(
        "m0plus.replay_ns.inv_eea_c",
        stats::mean(&tracer.durations("m0plus.replay.inv_eea_c")),
    );
    v.set(
        "m0plus.sim_minstr_per_s",
        instructions as f64 / instr_ns.max(1.0) * 1e3,
    );
    v.set(
        "m0plus.predecode.hit_ratio",
        pd_hits as f64 / (pd_hits + pd_misses).max(1) as f64,
    );
    v.set(
        "m0plus.record_ms",
        stats::mean(&tracer.durations("m0plus.record")) / 1e6,
    );
    v.set(
        "campaign.aborted_ratio",
        aborted as f64 / sampled.max(1) as f64,
    );
    v.set(
        "campaign.detect_full",
        if altered == 0 {
            1.0
        } else {
            detected as f64 / altered as f64
        },
    );
    v.set("trace.coverage", tracer.coverage("campaign.pass"));
    v.set("trace.overhead", harness::overhead(&phase_cost));
    (out, Some(tracer))
}
