//! Fault-injection campaign driver.
//!
//! Samples N faults per target kernel (instruction skip, register bit
//! flip, memory bit flip), replays each from the kernel's recorded
//! Thumb-16 fragment, and reports detection / silent-corruption rates for the
//! unhardened, recompute-only, and fully hardened profiles, followed
//! by the measured overhead of every countermeasure.
//!
//! Usage:
//!   fault_campaign [--smoke] [--seed N] [--runs N] [--shards N] [--target NAME]
//!
//! `--smoke` pins seed 7 and 24 runs/kernel — the bounded CI
//! configuration (run twice and diffed byte-for-byte by ci.sh).
//! `--target NAME` prices every replay under a [`m0plus::target`]
//! registry entry (default `cortex-m0plus`; fault verdicts are
//! target-invariant but the overhead costs move with the model).
//! `--shards N` splits each kernel's case list into N windows run on
//! up to `available_parallelism()` threads; per-case PRNG substreams
//! and canonical-order merging make the report byte-identical for any
//! shard count (ci.sh diffs `--shards 1` against `--shards 4`).
//! Defaults: seed 7, 200 runs/kernel, 1 shard.

use bench::campaign::{measure_overheads, render_campaign, render_overheads, run_campaign_sharded};
use bench::shard;

fn main() {
    let mut seed = 7u64;
    let mut runs = 200usize;
    let mut target = m0plus::target::default_target();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let shards = shard::shards_from_args(&argv);
    let mut args = argv.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => {
                seed = 7;
                runs = 24;
            }
            "--seed" => {
                let v = args.next().expect("--seed requires a value");
                seed = v.parse().expect("--seed takes an integer");
            }
            "--runs" => {
                let v = args.next().expect("--runs requires a value");
                runs = v.parse().expect("--runs takes an integer");
            }
            "--target" => {
                let v = args.next().expect("--target requires a name");
                target = bench::target_by_name(v);
            }
            "--shards" => {
                args.next(); // value consumed by shards_from_args
            }
            other if other.starts_with("--shards=") => {}
            other => panic!(
                "unknown argument {other:?}: expected --smoke | --seed N | --runs N | --shards N | --target NAME"
            ),
        }
    }

    let report = run_campaign_sharded(
        &bench::campaign::CampaignConfig::new(seed, runs).with_target(target),
        shards,
        protocols::batch::default_workers(),
    );
    print!("{}", render_campaign(&report));
    println!();
    print!("{}", render_overheads(&measure_overheads()));
}
