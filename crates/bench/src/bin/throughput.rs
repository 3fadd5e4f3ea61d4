//! Batch-throughput suite: batch-inversion amortisation, wTNAF cache
//! hit rate and the sharded-campaign invariance check.
//!
//! Run: `cargo run --release -p bench --bin throughput [-- --smoke]`
//!
//! `--smoke` bounds the run for CI (a few seconds); the default is the
//! full run EXPERIMENTS.md records. The output is deterministic: ci.sh
//! runs the smoke twice and byte-diffs it.

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
    println!(
        "GATE: sharded campaign byte-identical at {} widths",
        report.shard_widths.len()
    );
}
