//! Batch-throughput measurements: the amortisations of the batch
//! engine, each measured rather than assumed, plus the sharded
//! campaign's invariance check.
//!
//! * **Batch inversion** — counted-tier cycle ratios of Montgomery's
//!   trick against pointwise EEA inversion, per batch size (pure
//!   operation counts).
//! * **wTNAF table cache** — hit rates of the process-wide
//!   precomputation cache under gateway-shaped traffic (a few recurring
//!   public keys, many verifications each).
//! * **Sharded campaign** — the fault campaign at 1, 2 and 4 workers,
//!   asserting the rendered report stays byte-identical at every width.
//!
//! Every number is deterministic; host throughput is measured by the
//! `e2e/` benchmark.

use koblitz::projective::batch_to_affine_counted;
use koblitz::{mul, LdPoint};
use protocols::batch::{verify_batch, VerifyJob};
use protocols::{Signature, SigningKey};

/// Workload sizes for one throughput run.
#[derive(Debug, Clone)]
pub struct ThroughputConfig {
    /// Batch sizes for the counted amortisation rows.
    pub amortisation_sizes: Vec<usize>,
    /// Recurring public keys in the cache-traffic shape.
    pub cache_keys: usize,
    /// Verifications per recurring key.
    pub cache_ops_per_key: usize,
    /// Runs per kernel for the sharded-campaign invariance check.
    pub shard_campaign_runs: usize,
}

/// Worker counts (and shard windows) the sharded campaign is checked at.
const SHARD_WIDTHS: [usize; 3] = [1, 2, 4];

impl ThroughputConfig {
    /// Bounded CI smoke configuration (a few seconds end to end).
    pub fn smoke() -> ThroughputConfig {
        ThroughputConfig {
            amortisation_sizes: vec![2, 8, 64],
            cache_keys: 3,
            cache_ops_per_key: 8,
            shard_campaign_runs: 8,
        }
    }

    /// The full run EXPERIMENTS.md records.
    pub fn full() -> ThroughputConfig {
        ThroughputConfig {
            amortisation_sizes: vec![1, 2, 4, 8, 16, 32, 64, 128],
            cache_keys: 8,
            cache_ops_per_key: 32,
            shard_campaign_runs: 48,
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

/// Runs the fault campaign at each worker count (shards == workers)
/// and asserts the rendered report is byte-identical to the serial run
/// at every width. Returns the widths it checked.
///
/// # Panics
///
/// Panics if any sharded run renders differently from the serial run.
pub fn shard_invariance(runs_per_kernel: usize, widths: &[usize]) -> Vec<usize> {
    let cfg = crate::campaign::CampaignConfig::new(7, runs_per_kernel);
    let baseline =
        crate::campaign::render_campaign(&crate::campaign::run_campaign_sharded(&cfg, 1, 1));
    for &workers in widths {
        let report = crate::campaign::run_campaign_sharded(&cfg, workers, workers);
        assert_eq!(
            crate::campaign::render_campaign(&report),
            baseline,
            "sharded campaign diverged at {workers} workers"
        );
    }
    widths.to_vec()
}

/// Everything one throughput run measured.
#[derive(Debug, Clone)]
pub struct ThroughputReport {
    /// Counted batch-inversion amortisation per batch size.
    pub amortisation: Vec<AmortisationRow>,
    /// Table-cache behaviour under recurring-key traffic.
    pub cache: CacheReport,
    /// Worker counts at which the sharded campaign rendered
    /// byte-identically to the serial run.
    pub shard_widths: Vec<usize>,
}

/// Runs the full throughput suite under `config`.
pub fn run(config: &ThroughputConfig) -> ThroughputReport {
    ThroughputReport {
        amortisation: batch_amortisation(&config.amortisation_sizes),
        cache: comb_cache_hit_rate(config.cache_keys, config.cache_ops_per_key),
        shard_widths: shard_invariance(config.shard_campaign_runs, &SHARD_WIDTHS),
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
    let widths: Vec<String> = r.shard_widths.iter().map(usize::to_string).collect();
    writeln!(
        w,
        "\nsharded fault campaign (shards == workers): report byte-identical to the serial run at workers {}",
        widths.join(", ")
    )
    .unwrap();
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
    fn shard_invariance_asserts_byte_identical_reports() {
        assert_eq!(shard_invariance(4, &[1, 2]), vec![1, 2]);
    }
}
