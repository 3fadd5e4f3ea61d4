//! Batch-throughput measurements: the three amortisations of the batch
//! engine, each measured rather than assumed.
//!
//! * **Batch inversion** — counted-tier cycle ratios of Montgomery's
//!   trick against pointwise EEA inversion, per batch size
//!   (deterministic: pure operation counts, no wall clock).
//! * **wTNAF table cache** — hit rates of the process-wide
//!   precomputation cache under gateway-shaped traffic (a few recurring
//!   public keys, many verifications each).
//! * **Protocol scheduler** — wall-clock operations/second of
//!   `sign_batch` / `verify_batch` / `ecdh_batch` swept over batch
//!   sizes and worker counts.
//! * **Bitsliced field backend** — A/B wall clock of the 64-lane
//!   bitsliced kernels against the portable scalar kernels (sqr, mul,
//!   batch-64 inversion) plus the batch-inversion crossover sweep,
//!   with a bit-identity check proving the values are byte-for-byte
//!   the same on every arm.
//! * **Sharded campaign** — wall clock of the fault campaign at 1, 2
//!   and 4 workers, asserting the rendered report stays byte-identical
//!   at every width.
//!
//! The wall-clock numbers (`ops_per_sec`, the bitsliced speedups, the
//! shard scaling) vary with the host; everything else is
//! deterministic.

use gf2m::bitsliced;
use gf2m::Fe;
use koblitz::projective::batch_to_affine_counted;
use koblitz::{mul, LdPoint};
use protocols::batch::{ecdh_batch, sign_batch, verify_batch, BatchConfig, VerifyJob};
use protocols::{Keypair, Signature, SigningKey};
use std::time::{Duration, Instant};

/// Measurement budget for one throughput run.
#[derive(Debug, Clone)]
pub struct ThroughputConfig {
    /// Batch sizes for the counted amortisation rows.
    pub amortisation_sizes: Vec<usize>,
    /// Batch sizes for the ops/sec sweep.
    pub batch_sizes: Vec<usize>,
    /// Worker counts for the ops/sec sweep.
    pub worker_counts: Vec<usize>,
    /// Recurring public keys in the cache-traffic shape.
    pub cache_keys: usize,
    /// Verifications per recurring key.
    pub cache_ops_per_key: usize,
    /// Batch sizes for the bitsliced batch-inversion crossover sweep.
    pub bitsliced_sizes: Vec<usize>,
    /// Replays per arm of the bitsliced A/B.
    pub bitsliced_replays: usize,
    /// Runs per kernel for the sharded-campaign scaling sweep.
    pub shard_campaign_runs: usize,
    /// Worker counts for the sharded-campaign scaling sweep.
    pub shard_worker_counts: Vec<usize>,
    /// Minimum wall-clock window per ops/sec measurement.
    pub min_measure: Duration,
}

impl ThroughputConfig {
    /// Bounded CI smoke configuration (a few seconds end to end).
    pub fn smoke() -> ThroughputConfig {
        ThroughputConfig {
            amortisation_sizes: vec![2, 8, 64],
            batch_sizes: vec![16],
            worker_counts: vec![1, 4],
            cache_keys: 3,
            cache_ops_per_key: 8,
            bitsliced_sizes: vec![64, 256, 1024],
            bitsliced_replays: 32,
            shard_campaign_runs: 8,
            shard_worker_counts: vec![1, 2, 4],
            min_measure: Duration::from_millis(50),
        }
    }

    /// The full sweep EXPERIMENTS.md records.
    pub fn full() -> ThroughputConfig {
        ThroughputConfig {
            amortisation_sizes: vec![1, 2, 4, 8, 16, 32, 64, 128],
            batch_sizes: vec![4, 16, 64],
            worker_counts: vec![1, 2, 4, 8],
            cache_keys: 8,
            cache_ops_per_key: 32,
            bitsliced_sizes: vec![32, 64, 128, 256, 512, 1024],
            bitsliced_replays: 64,
            shard_campaign_runs: 48,
            shard_worker_counts: vec![1, 2, 4],
            min_measure: Duration::from_millis(250),
        }
    }
}

/// Counted-tier cost of converting one batch of points to affine vs
/// doing it pointwise (one EEA inversion per point).
#[derive(Debug, Clone, Copy)]
pub struct AmortisationRow {
    /// Points in the batch.
    pub size: usize,
    /// Cycles the batch spends inside its single EEA inversion.
    pub batch_inv_cycles: u64,
    /// Cycles of the whole batch conversion (inversion + Montgomery
    /// multiplications).
    pub batch_total_cycles: u64,
    /// Cycles `size` pointwise conversions spend on EEA inversions.
    pub individual_inv_cycles: u64,
}

impl AmortisationRow {
    /// `individual_inv_cycles / batch_inv_cycles` — how many times the
    /// inversion bill shrinks (the acceptance bound wants ≥ 8 at
    /// size 64).
    pub fn inv_shrink(&self) -> f64 {
        if self.batch_inv_cycles == 0 {
            return 1.0;
        }
        self.individual_inv_cycles as f64 / self.batch_inv_cycles as f64
    }

    /// `individual_inv_cycles / batch_total_cycles` — end-to-end win
    /// including the 3(N−1) multiplications the trick costs.
    pub fn total_shrink(&self) -> f64 {
        if self.batch_total_cycles == 0 {
            return 1.0;
        }
        self.individual_inv_cycles as f64 / self.batch_total_cycles as f64
    }
}

/// Counted amortisation of batch affine conversion per batch size
/// (deterministic: the counted tier tallies operations, not time).
pub fn batch_amortisation(sizes: &[usize]) -> Vec<AmortisationRow> {
    let g = koblitz::generator();
    sizes
        .iter()
        .map(|&size| {
            let points: Vec<LdPoint> = (1..=size as u64)
                .map(|i| mul::mul_wtnaf_proj(&g, &crate::workloads::scalar(i), 4))
                .collect();
            let batch = batch_to_affine_counted(&points);
            let individual: u64 = points
                .iter()
                .map(|p| {
                    gf2m::counted::inv_eea(p.z)
                        .map(|r| r.tally.cycles())
                        .unwrap_or(0)
                })
                .sum();
            AmortisationRow {
                size,
                batch_inv_cycles: batch.inv.cycles(),
                batch_total_cycles: batch.total().cycles(),
                individual_inv_cycles: individual,
            }
        })
        .collect()
}

/// wTNAF table-cache behaviour under gateway-shaped traffic.
#[derive(Debug, Clone, Copy)]
pub struct CacheReport {
    /// Distinct public keys in the traffic.
    pub keys: usize,
    /// Verifications per key.
    pub ops_per_key: usize,
    /// Cache hits during the traffic.
    pub hits: u64,
    /// Cache misses during the traffic.
    pub misses: u64,
}

impl CacheReport {
    /// Hit rate in [0, 1].
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Replays gateway-shaped verification traffic — `keys` recurring
/// signers, `ops_per_key` signatures each — through the batch verifier
/// on one worker (single-threaded so the hit/miss counts are exact and
/// deterministic) and reports the table cache's counters over exactly
/// that traffic.
pub fn comb_cache_hit_rate(keys: usize, ops_per_key: usize) -> CacheReport {
    let signers: Vec<SigningKey> = (0..keys)
        .map(|i| SigningKey::generate(format!("throughput cache signer {i}").as_bytes()))
        .collect();
    let msgs: Vec<Vec<u8>> = (0..keys * ops_per_key)
        .map(|i| format!("cache traffic frame {i:04}").into_bytes())
        .collect();
    let sigs: Vec<Signature> = msgs
        .iter()
        .enumerate()
        .map(|(i, m)| signers[i % keys].sign(m))
        .collect();
    let jobs: Vec<VerifyJob> = msgs
        .iter()
        .enumerate()
        .map(|(i, m)| VerifyJob {
            public: signers[i % keys].public(),
            msg: m,
            sig: &sigs[i],
        })
        .collect();
    koblitz::cache::reset();
    let verdicts = verify_batch(&jobs, 1);
    assert!(
        verdicts.iter().all(Result::is_ok),
        "honest traffic verifies"
    );
    let stats = koblitz::cache::stats();
    CacheReport {
        keys,
        ops_per_key,
        hits: stats.hits,
        misses: stats.misses,
    }
}

/// One point of the ops/sec sweep.
#[derive(Debug, Clone, Copy)]
pub struct OpsRow {
    /// The batched operation (`sign`, `verify`, `ecdh`).
    pub op: &'static str,
    /// Operations per batch call.
    pub batch: usize,
    /// Worker threads.
    pub workers: usize,
    /// Measured operations per second (wall clock; host-dependent).
    pub ops_per_sec: f64,
}

/// Repeats `f` (which performs `ops` operations per call) until
/// `min_measure` has elapsed and returns operations per second.
fn measure_ops(ops: usize, min_measure: Duration, mut f: impl FnMut()) -> f64 {
    // One warm-up call keeps lazy tables out of the measurement.
    f();
    let start = Instant::now();
    let mut calls = 0u64;
    while start.elapsed() < min_measure {
        f();
        calls += 1;
    }
    (calls * ops as u64) as f64 / start.elapsed().as_secs_f64()
}

/// Sweeps `sign_batch` / `verify_batch` / `ecdh_batch` over batch sizes
/// and worker counts, returning wall-clock ops/sec for each point.
pub fn ops_sweep(
    batch_sizes: &[usize],
    worker_counts: &[usize],
    min_measure: Duration,
) -> Vec<OpsRow> {
    let key = SigningKey::generate(b"throughput sweep signer");
    let kp = Keypair::generate(b"throughput sweep ecdh");
    let peers: Vec<koblitz::Affine> = (0..4)
        .map(|i| *Keypair::generate(format!("sweep peer {i}").as_bytes()).public())
        .collect();
    let mut rows = Vec::new();
    for &batch in batch_sizes {
        let msgs: Vec<Vec<u8>> = (0..batch)
            .map(|i| format!("sweep frame {i:05}").into_bytes())
            .collect();
        let sigs: Vec<Signature> = msgs.iter().map(|m| key.sign(m)).collect();
        let jobs: Vec<VerifyJob> = msgs
            .iter()
            .zip(&sigs)
            .map(|(m, sig)| VerifyJob {
                public: key.public(),
                msg: m,
                sig,
            })
            .collect();
        let peer_batch: Vec<koblitz::Affine> = (0..batch).map(|i| peers[i % peers.len()]).collect();
        for &workers in worker_counts {
            rows.push(OpsRow {
                op: "sign",
                batch,
                workers,
                ops_per_sec: measure_ops(batch, min_measure, || {
                    std::hint::black_box(sign_batch(&key, &msgs, workers));
                }),
            });
            rows.push(OpsRow {
                op: "verify",
                batch,
                workers,
                ops_per_sec: measure_ops(batch, min_measure, || {
                    std::hint::black_box(verify_batch(&jobs, workers));
                }),
            });
            rows.push(OpsRow {
                op: "ecdh",
                batch,
                workers,
                ops_per_sec: measure_ops(batch, min_measure, || {
                    std::hint::black_box(ecdh_batch(&kp, &peer_batch, workers));
                }),
            });
        }
    }
    rows
}

/// Best (minimum) wall-clock nanoseconds for one call of `f` over
/// `replays` timed calls, after one untimed warm-up. The A/Bs run on
/// shared CI hosts whose load fluctuates by 2× between runs; the
/// minimum is the standard way to read through scheduler interference,
/// since noise only ever adds time.
fn best_replay_ns(replays: usize, f: &mut dyn FnMut()) -> f64 {
    f(); // warm-up
    let mut best = f64::INFINITY;
    for _ in 0..replays.max(1) {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_nanos() as f64);
    }
    best
}

/// One point of the bitsliced batch-inversion crossover sweep.
#[derive(Debug, Clone, Copy)]
pub struct BitslicedRow {
    /// Elements inverted per call.
    pub size: usize,
    /// Best wall-clock nanoseconds per call, scalar Montgomery chain.
    pub scalar_ns: f64,
    /// Best wall-clock nanoseconds per call, hybrid bitsliced chain
    /// (transposes included).
    pub bitsliced_ns: f64,
}

impl BitslicedRow {
    /// Wall-clock speedup of the bitsliced chain (> 1 is faster).
    pub fn speedup(&self) -> f64 {
        if self.bitsliced_ns == 0.0 {
            return 1.0;
        }
        self.scalar_ns / self.bitsliced_ns
    }
}

/// A/B of the 64-lane bitsliced field backend against the portable
/// scalar kernels. All numbers are wall clock (host-dependent); the
/// asserted bit-identity of every value is the deterministic part.
#[derive(Debug, Clone)]
pub struct BitslicedReport {
    /// Replays measured per arm.
    pub replays: usize,
    /// 64 portable squarings, best ns.
    pub sqr_scalar_ns: f64,
    /// One 64-lane bitsliced squaring, best ns.
    pub sqr_bitsliced_ns: f64,
    /// 64 portable multiplications, best ns.
    pub mul_scalar_ns: f64,
    /// One 64-lane bitsliced multiplication, best ns.
    pub mul_bitsliced_ns: f64,
    /// 64 pointwise portable inversions, best ns.
    pub inv_scalar_ns: f64,
    /// One 64-lane bitsliced Itoh–Tsujii inversion (transposes
    /// included), best ns.
    pub inv_bitsliced_ns: f64,
    /// Batch-inversion crossover sweep, per batch size.
    pub invert_sweep: Vec<BitslicedRow>,
}

impl BitslicedReport {
    /// Lane-throughput speedup of the bitsliced squaring (> 1 is
    /// faster than 64 portable squarings).
    pub fn sqr_speedup(&self) -> f64 {
        if self.sqr_bitsliced_ns == 0.0 {
            return 1.0;
        }
        self.sqr_scalar_ns / self.sqr_bitsliced_ns
    }

    /// Lane-throughput speedup of the bitsliced multiplication.
    pub fn mul_speedup(&self) -> f64 {
        if self.mul_bitsliced_ns == 0.0 {
            return 1.0;
        }
        self.mul_scalar_ns / self.mul_bitsliced_ns
    }

    /// Speedup of one 64-lane batch inversion over 64 pointwise ones.
    pub fn inv_speedup(&self) -> f64 {
        if self.inv_bitsliced_ns == 0.0 {
            return 1.0;
        }
        self.inv_scalar_ns / self.inv_bitsliced_ns
    }

    /// The sweep row for the largest measured batch size.
    pub fn largest_sweep_row(&self) -> Option<&BitslicedRow> {
        self.invert_sweep.iter().max_by_key(|r| r.size)
    }
}

/// Measures the 64-lane bitsliced backend against the portable scalar
/// kernels: per-kernel lane throughput (sqr, mul, batch-64 inversion)
/// and the hybrid `batch_invert` crossover sweep over `sizes`.
///
/// Before any timing, every sweep size is checked bit-identical three
/// ways — the scalar reference chain, the `batch_invert` dispatcher,
/// and the bitsliced seam called directly — so the wall-clock numbers
/// can never paper over a value regression.
///
/// # Panics
///
/// Panics if any arm produces a value that differs from the scalar
/// Montgomery chain in a single byte.
pub fn bitsliced_ab(sizes: &[usize], replays: usize) -> BitslicedReport {
    let max = sizes
        .iter()
        .copied()
        .max()
        .unwrap_or(0)
        .max(bitsliced::LANES);
    // Deterministic inputs with a sprinkling of zeros so the skip
    // path is inside the measured (and value-checked) loop.
    let elems: Vec<Fe> = (0..max)
        .map(|i| {
            if i % 17 == 9 {
                Fe::ZERO
            } else {
                crate::workloads::element(i as u64 + 1)
            }
        })
        .collect();

    for &size in sizes {
        let mut scalar = elems[..size].to_vec();
        gf2m::batch::batch_invert_scalar(&mut scalar);
        let mut dispatched = elems[..size].to_vec();
        gf2m::batch::batch_invert(&mut dispatched);
        let mut direct = elems[..size].to_vec();
        bitsliced::invert_elements(&mut direct);
        assert_eq!(scalar, dispatched, "batch_invert dispatch at {size}");
        assert_eq!(scalar, direct, "bitsliced seam at {size}");
    }

    // Lane-kernel A/B on one full 64-lane batch of non-zero elements.
    let xs: Vec<Fe> = (0..bitsliced::LANES)
        .map(|i| crate::workloads::element(2001 + i as u64))
        .collect();
    let ys: Vec<Fe> = (0..bitsliced::LANES)
        .map(|i| crate::workloads::element(4001 + i as u64))
        .collect();
    let bx = bitsliced::transpose_in(&xs);
    let by = bitsliced::transpose_in(&ys);
    let mut ws = bitsliced::MulScratch::new();

    let sqr_scalar_ns = best_replay_ns(replays, &mut || {
        for x in &xs {
            std::hint::black_box(x.square());
        }
    });
    let sqr_bitsliced_ns = best_replay_ns(replays, &mut || {
        std::hint::black_box(bx.sqr());
    });
    let mul_scalar_ns = best_replay_ns(replays, &mut || {
        for (x, y) in xs.iter().zip(&ys) {
            std::hint::black_box(*x * *y);
        }
    });
    let mul_bitsliced_ns = best_replay_ns(replays, &mut || {
        std::hint::black_box(bx.mul_with(&by, &mut ws));
    });
    let inv_scalar_ns = best_replay_ns(replays, &mut || {
        for x in &xs {
            std::hint::black_box(x.invert());
        }
    });
    let inv_bitsliced_ns = best_replay_ns(replays, &mut || {
        std::hint::black_box(
            bitsliced::transpose_in(&xs)
                .batch_inv()
                .transpose_out(bitsliced::LANES),
        );
    });

    // Crossover sweep: the scalar reference chain against the bitsliced
    // seam `batch_invert` dispatches to at and above the crossover. Each
    // call works on a fresh copy; the copy cost is identical on both
    // arms.
    let mut rows = Vec::new();
    let mut buf = elems.clone();
    for &size in sizes {
        let src = &elems[..size];
        let scalar_ns = best_replay_ns(replays, &mut || {
            buf[..size].copy_from_slice(src);
            gf2m::batch::batch_invert_scalar(&mut buf[..size]);
            std::hint::black_box(&buf);
        });
        let bitsliced_ns = best_replay_ns(replays, &mut || {
            buf[..size].copy_from_slice(src);
            bitsliced::invert_elements(&mut buf[..size]);
            std::hint::black_box(&buf);
        });
        rows.push(BitslicedRow {
            size,
            scalar_ns,
            bitsliced_ns,
        });
    }

    BitslicedReport {
        replays,
        sqr_scalar_ns,
        sqr_bitsliced_ns,
        mul_scalar_ns,
        mul_bitsliced_ns,
        inv_scalar_ns,
        inv_bitsliced_ns,
        invert_sweep: rows,
    }
}

/// One point of the sharded fault-campaign scaling sweep.
#[derive(Debug, Clone, Copy)]
pub struct ShardScalingRow {
    /// Worker threads (and shard windows — one per worker).
    pub workers: usize,
    /// Wall-clock nanoseconds for the whole campaign at this width.
    pub wall_ns: f64,
}

/// Times the fault campaign at each worker count (shards == workers),
/// asserting the rendered report stays byte-identical to the serial
/// run at every width. The wall clock is host-dependent; the asserted
/// invariance is the deterministic part.
///
/// # Panics
///
/// Panics if any sharded run renders differently from the serial run.
pub fn shard_scaling(runs_per_kernel: usize, worker_counts: &[usize]) -> Vec<ShardScalingRow> {
    let cfg = crate::campaign::CampaignConfig::new(7, runs_per_kernel);
    let baseline =
        crate::campaign::render_campaign(&crate::campaign::run_campaign_sharded(&cfg, 1, 1));
    worker_counts
        .iter()
        .map(|&workers| {
            let start = Instant::now();
            let report = crate::campaign::run_campaign_sharded(&cfg, workers, workers);
            let wall_ns = start.elapsed().as_nanos() as f64;
            assert_eq!(
                crate::campaign::render_campaign(&report),
                baseline,
                "sharded campaign diverged at {workers} workers"
            );
            ShardScalingRow { workers, wall_ns }
        })
        .collect()
}

/// Everything one throughput run measured.
#[derive(Debug, Clone)]
pub struct ThroughputReport {
    /// Counted batch-inversion amortisation per batch size.
    pub amortisation: Vec<AmortisationRow>,
    /// Table-cache behaviour under recurring-key traffic.
    pub cache: CacheReport,
    /// Wall-clock ops/sec sweep.
    pub ops: Vec<OpsRow>,
    /// Bitsliced field-backend A/B result.
    pub bitsliced: BitslicedReport,
    /// Sharded-campaign scaling sweep.
    pub shard_scaling: Vec<ShardScalingRow>,
    /// Worker-pool width `BatchConfig::default()` resolves to on this
    /// host (`available_parallelism()`).
    pub batch_workers_default: usize,
}

/// Runs the full throughput suite under `config`.
pub fn run(config: &ThroughputConfig) -> ThroughputReport {
    ThroughputReport {
        amortisation: batch_amortisation(&config.amortisation_sizes),
        cache: comb_cache_hit_rate(config.cache_keys, config.cache_ops_per_key),
        ops: ops_sweep(
            &config.batch_sizes,
            &config.worker_counts,
            config.min_measure,
        ),
        bitsliced: bitsliced_ab(&config.bitsliced_sizes, config.bitsliced_replays),
        shard_scaling: shard_scaling(config.shard_campaign_runs, &config.shard_worker_counts),
        batch_workers_default: BatchConfig::default().effective_workers(),
    }
}

/// Human-readable rendering (what `--bin throughput` prints).
pub fn render(r: &ThroughputReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let w = &mut out;
    writeln!(w, "batch inversion amortisation (counted tier, cycles)").unwrap();
    writeln!(
        w,
        "  {:>5} {:>14} {:>14} {:>16} {:>10} {:>10}",
        "size", "batch inv", "batch total", "pointwise inv", "inv/", "total/"
    )
    .unwrap();
    for row in &r.amortisation {
        writeln!(
            w,
            "  {:>5} {:>14} {:>14} {:>16} {:>9.1}x {:>9.1}x",
            row.size,
            row.batch_inv_cycles,
            row.batch_total_cycles,
            row.individual_inv_cycles,
            row.inv_shrink(),
            row.total_shrink()
        )
        .unwrap();
    }
    writeln!(
        w,
        "\nwTNAF table cache: {} keys x {} verifications: {} hits, {} misses ({:.1}% hit rate)",
        r.cache.keys,
        r.cache.ops_per_key,
        r.cache.hits,
        r.cache.misses,
        100.0 * r.cache.hit_rate()
    )
    .unwrap();
    writeln!(
        w,
        "\nbatch scheduler ops/sec (wall clock, host-dependent; default pool width {})",
        r.batch_workers_default
    )
    .unwrap();
    writeln!(
        w,
        "  {:>8} {:>6} {:>8} {:>12}",
        "op", "batch", "workers", "ops/sec"
    )
    .unwrap();
    for row in &r.ops {
        writeln!(
            w,
            "  {:>8} {:>6} {:>8} {:>12.1}",
            row.op, row.batch, row.workers, row.ops_per_sec
        )
        .unwrap();
    }
    writeln!(
        w,
        "\nbitsliced field backend (64 lanes, values bit-identical; {} replays/arm)",
        r.bitsliced.replays
    )
    .unwrap();
    writeln!(
        w,
        "  sqr  64 portable {:>9.0} ns vs bitsliced {:>9.0} ns ({:.2}x)",
        r.bitsliced.sqr_scalar_ns,
        r.bitsliced.sqr_bitsliced_ns,
        r.bitsliced.sqr_speedup()
    )
    .unwrap();
    writeln!(
        w,
        "  mul  64 portable {:>9.0} ns vs bitsliced {:>9.0} ns ({:.2}x)",
        r.bitsliced.mul_scalar_ns,
        r.bitsliced.mul_bitsliced_ns,
        r.bitsliced.mul_speedup()
    )
    .unwrap();
    writeln!(
        w,
        "  inv  64 pointwise {:>8.0} ns vs bitsliced {:>9.0} ns ({:.2}x)",
        r.bitsliced.inv_scalar_ns,
        r.bitsliced.inv_bitsliced_ns,
        r.bitsliced.inv_speedup()
    )
    .unwrap();
    writeln!(
        w,
        "  batch_invert crossover sweep (dispatch threshold {}):",
        gf2m::bitsliced::CROSSOVER
    )
    .unwrap();
    for row in &r.bitsliced.invert_sweep {
        writeln!(
            w,
            "    n = {:>5}: scalar {:>9.0} ns vs bitsliced {:>9.0} ns ({:.2}x)",
            row.size,
            row.scalar_ns,
            row.bitsliced_ns,
            row.speedup()
        )
        .unwrap();
    }
    if !r.shard_scaling.is_empty() {
        let serial_ns = r.shard_scaling[0].wall_ns;
        writeln!(
            w,
            "\nsharded fault campaign (shards == workers; report byte-identical at every width)"
        )
        .unwrap();
        for row in &r.shard_scaling {
            writeln!(
                w,
                "  workers {:>2}: {:>9.1} ms ({:.2}x vs serial)",
                row.workers,
                row.wall_ns / 1e6,
                if row.wall_ns > 0.0 {
                    serial_ns / row.wall_ns
                } else {
                    1.0
                }
            )
            .unwrap();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amortisation_meets_the_acceptance_bound_at_64() {
        // The 64 kG points are wTNAF multiplications: cache lookups.
        let _cache = crate::wtnaf_cache_serial();
        let rows = batch_amortisation(&[64]);
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert!(
            row.batch_inv_cycles * 8 <= row.individual_inv_cycles,
            "batch inversion {} vs pointwise {}",
            row.batch_inv_cycles,
            row.individual_inv_cycles
        );
        assert!(
            row.batch_total_cycles < row.individual_inv_cycles,
            "whole batch must still beat pointwise inversions"
        );
    }

    #[test]
    fn cache_traffic_hits_after_the_first_lookup_per_key() {
        let _cache = crate::wtnaf_cache_serial();
        let report = comb_cache_hit_rate(3, 4);
        // 12 verifications against 3 keys: at least one miss per key,
        // and the steady state is all hits.
        assert_eq!(report.hits + report.misses, 12);
        assert!(report.misses >= 3);
        assert!(report.hits >= 12 - 3 - 1, "hits = {}", report.hits);
        assert!(report.hit_rate() > 0.5);
    }

    #[test]
    fn bitsliced_ab_asserts_bit_identity() {
        // The three-way value assertions live inside bitsliced_ab; two
        // replays per arm and small sizes keep the test quick. One
        // size below the crossover and one spanning multiple chunks
        // exercise both dispatch outcomes.
        let report = bitsliced_ab(&[16, 192], 2);
        assert_eq!(report.invert_sweep.len(), 2);
        assert!(report.sqr_bitsliced_ns > 0.0 && report.sqr_scalar_ns > 0.0);
        assert!(report.mul_bitsliced_ns > 0.0 && report.inv_bitsliced_ns > 0.0);
        assert!(report.invert_sweep.iter().all(|r| r.scalar_ns > 0.0));
    }

    #[test]
    fn shard_scaling_asserts_byte_identical_reports() {
        let rows = shard_scaling(4, &[1, 2]);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.wall_ns > 0.0));
    }

    #[test]
    fn smoke_sweep_produces_all_rows() {
        let _cache = crate::wtnaf_cache_serial();
        let rows = ops_sweep(&[4], &[1, 2], Duration::from_millis(5));
        assert_eq!(rows.len(), 6, "3 ops x 1 batch size x 2 worker counts");
        assert!(rows.iter().all(|r| r.ops_per_sec > 0.0));
    }
}
