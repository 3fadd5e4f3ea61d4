//! Verification campaign driver: secret-independence + differential.
//!
//! Runs the two engines of the `verify` crate back to back:
//!
//! 1. the **leakage campaign** — every registered crypto kernel traced
//!    on pairs of random secret inputs, with a per-kernel verdict
//!    (`independent` / `documented-exception` / `LEAK`) across the PC,
//!    address and cycle trace classes;
//! 2. the **differential harness** — seeded random field elements,
//!    scalars and wire frames through every execution tier, with
//!    cross-tier agreement counters and a decoder error taxonomy.
//!
//! Usage:
//!   verify_campaign [--smoke] [--seed N] [--shards N] [--target NAME]
//!
//! `--target NAME` runs both engines under a [`m0plus::target`]
//! registry entry (default `cortex-m0plus`). Leakage verdicts and
//! cross-tier agreement are target-invariant; only the costs the
//! traces record move with the model.
//!
//! The differential section opens with a `host features: pclmulqdq
//! yes|no, sha-ni yes|no` line: the carry-less (`paper/clmul_*`,
//! `eea/clmul_inv`) and SHA-NI (`sha_portable/sha_ni`) tier pairs run
//! only where the CPU has those instructions.
//!
//! `--smoke` is the bounded CI configuration (run twice and diffed
//! byte-for-byte by ci.sh). `--shards N` splits the differential case
//! list into N windows run on up to `available_parallelism()` threads;
//! per-case PRNG substreams and the canonical merge keep the report
//! byte-identical for any shard count (ci.sh diffs `--shards 1`
//! against `--shards 4`). The default is the full campaign: ≥ 1000
//! differential cases per tier pair. Output is fully deterministic for
//! a given configuration. Exit status is non-zero if any kernel leaks
//! outside its documented allowance or any tier pair disagrees.

use bench::shard;
use verify::{differential, leakage, DiffConfig, LeakageConfig};

fn main() {
    let mut smoke = false;
    let mut seed: Option<u64> = None;
    let mut target: Option<&'static m0plus::TargetSpec> = None;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let shards = shard::shards_from_args(&argv);
    let mut args = argv.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--seed" => {
                let v = args.next().expect("--seed requires a value");
                seed = Some(v.parse().expect("--seed takes an integer"));
            }
            "--target" => {
                let v = args.next().expect("--target requires a name");
                target = Some(bench::target_by_name(v));
            }
            "--shards" => {
                args.next(); // value consumed by shards_from_args
            }
            other if other.starts_with("--shards=") => {}
            other => panic!(
                "unknown argument {other:?}: expected --smoke | --seed N | --shards N | --target NAME"
            ),
        }
    }

    let mut leak_cfg = if smoke {
        LeakageConfig::smoke()
    } else {
        LeakageConfig::full()
    };
    let mut diff_cfg = if smoke {
        DiffConfig::smoke()
    } else {
        DiffConfig::full()
    };
    if let Some(s) = seed {
        leak_cfg.seed = s;
        diff_cfg.seed = s;
    }
    if let Some(t) = target {
        leak_cfg.target = t;
        diff_cfg.target = t;
    }

    println!("== secret-independence campaign ==");
    println!(
        "seed {:#x}, {} pairs per field kernel, {} per point kernel",
        leak_cfg.seed, leak_cfg.cheap_pairs, leak_cfg.expensive_pairs
    );
    let verdicts = leakage::run_campaign(&leak_cfg);
    let mut leaks = 0;
    for v in &verdicts {
        println!("{}", v.render());
        if !v.ok() {
            leaks += 1;
        }
    }
    let independent = verdicts
        .iter()
        .filter(|v| v.verdict() == "independent")
        .count();
    println!(
        "{} kernels checked: {} independent, {} documented exceptions, {} LEAKS",
        verdicts.len(),
        independent,
        verdicts.len() - independent - leaks,
        leaks
    );

    println!();
    println!("== cross-tier differential harness ==");
    // The carry-less and SHA-NI tier pairs run only on a CPU with the
    // instructions; this line says which ones this run has.
    let yes_no = |found: bool| if found { "yes" } else { "no" };
    println!(
        "host features: pclmulqdq {}, sha-ni {}",
        yes_no(gf2m::Clmul::detect().is_some()),
        yes_no(protocols::sha256::ShaNi::detect().is_some())
    );
    let parts = shard::run_shards(
        differential::total_cases(&diff_cfg),
        shards,
        protocols::batch::default_workers(),
        |_, window| differential::run_window(&diff_cfg, window),
    );
    let report = differential::merge(&diff_cfg, parts);
    print!("{}", report.render());

    if leaks > 0 || !report.ok() {
        println!("VERDICT: FAIL");
        std::process::exit(1);
    }
    println!("VERDICT: PASS");
}
