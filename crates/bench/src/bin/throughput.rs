//! Batch-throughput suite: batch-inversion amortisation, wTNAF cache
//! hit rates, scheduler ops/sec, the bitsliced field-backend A/B and
//! the sharded-campaign scaling sweep.
//!
//! Run: `cargo run --release -p bench --bin throughput [-- --smoke]`
//!
//! `--smoke` bounds the run for CI (a few seconds); the default is the
//! full sweep EXPERIMENTS.md records. Cycle ratios and hit rates are
//! deterministic; ops/sec and the bitsliced speedups are wall clock and
//! vary with the host.

use bench::throughput::{self, ThroughputConfig};

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let config = if smoke {
        ThroughputConfig::smoke()
    } else {
        ThroughputConfig::full()
    };
    let report = throughput::run(&config);
    print!("{}", throughput::render(&report));
    // The two deterministic gates, re-asserted on every run.
    let at64 = report
        .amortisation
        .iter()
        .find(|r| r.size == 64)
        .expect("the sweep includes size 64");
    assert!(
        at64.batch_inv_cycles * 8 <= at64.individual_inv_cycles,
        "batch inversion bound violated"
    );
    println!(
        "\nGATE: batch-64 inversion shrink {:.1}x (>= 8x)",
        at64.inv_shrink()
    );
    // Bitsliced gates: values are asserted bit-identical inside
    // bitsliced_ab; the wall-clock bounds are set well below the
    // measured numbers (sqr ~6.4x, batch_invert ~1.6x at 1024 on the
    // reference host) so host noise cannot flake them, while still
    // catching any regression that erases the win.
    assert!(
        report.bitsliced.sqr_speedup() >= 4.0,
        "bitsliced sqr lane throughput {:.2}x dropped below the 4x bound",
        report.bitsliced.sqr_speedup()
    );
    let largest = report
        .bitsliced
        .largest_sweep_row()
        .expect("the sweep is non-empty");
    assert!(
        largest.speedup() >= 1.2,
        "bitsliced batch_invert at {} is {:.2}x, below the 1.2x bound",
        largest.size,
        largest.speedup()
    );
    println!(
        "GATE: bitsliced values bit-identical; sqr {:.2}x (>= 4x), batch_invert@{} {:.2}x (>= 1.2x)",
        report.bitsliced.sqr_speedup(),
        largest.size,
        largest.speedup()
    );
    println!(
        "GATE: sharded campaign byte-identical at {} widths",
        report.shard_scaling.len()
    );
}
