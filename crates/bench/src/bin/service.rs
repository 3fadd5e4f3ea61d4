//! Service-plane overload experiment driver.
//!
//! Usage:
//!   service [--smoke | --overload] [--target NAME] [--seed N]
//!           [--ticks N] [--load-permille N] [--adversarial N]
//!           [--clients N]
//!
//! `--smoke` is the bounded CI configuration at a sustainable 800‰
//! load; `--overload` drives the plane at 2× its cycle capacity with a
//! quarter of the frames adversarial (the graceful-degradation gate);
//! the default is the full experiment EXPERIMENTS.md records.
//! `--target NAME` prices and executes under a [`m0plus::target`]
//! registry entry (default `cortex-m0plus`).
//!
//! The rendered report is deterministic in (configuration, seed) —
//! ci.sh runs the smoke and overload configurations twice each and
//! byte-diffs the output.

use bench::traffic::{self, TrafficConfig};

fn main() {
    let mut smoke = false;
    let mut overload = false;
    let mut target = m0plus::target::default_target();
    let mut seed: Option<u64> = None;
    let mut ticks: Option<u64> = None;
    let mut load: Option<u64> = None;
    let mut adversarial: Option<u64> = None;
    let mut clients: Option<u32> = None;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = argv.iter();
    while let Some(arg) = args.next() {
        let mut num = |name: &str| -> u64 {
            args.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
                .parse()
                .unwrap_or_else(|_| panic!("{name} takes an integer"))
        };
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--overload" => overload = true,
            "--seed" => seed = Some(num("--seed")),
            "--ticks" => ticks = Some(num("--ticks")),
            "--load-permille" => load = Some(num("--load-permille")),
            "--adversarial" => adversarial = Some(num("--adversarial")),
            "--clients" => clients = Some(num("--clients") as u32),
            "--target" => {
                let v = args.next().expect("--target requires a name");
                target = bench::target_by_name(v);
            }
            other => panic!(
                "unknown argument {other:?}: expected --smoke | --overload | --target NAME | \
                 --seed N | --ticks N | --load-permille N | --adversarial N | --clients N"
            ),
        }
    }

    let mut cfg = if overload {
        TrafficConfig::overload(target)
    } else if smoke {
        TrafficConfig::smoke(target)
    } else {
        TrafficConfig::full(target)
    };
    if let Some(s) = seed {
        cfg.seed = s;
    }
    if let Some(t) = ticks {
        cfg.ticks = t;
    }
    if let Some(l) = load {
        cfg.load_permille = l;
    }
    if let Some(a) = adversarial {
        cfg.adversarial_permille = a;
    }
    if let Some(c) = clients {
        cfg.clients = c;
    }

    let report = traffic::run(&cfg);
    print!("{}", traffic::render(&report));

    // The deterministic gates, re-asserted on every run.
    assert!(report.counters.accounted(0), "accounting identity violated");
    println!(
        "\nGATE: service accounting balanced ({} submitted = {} typed outcomes)",
        report.counters.submitted,
        report.counters.terminal()
    );
    assert!(
        report.quote_exact,
        "quote drifted from canonical measurement"
    );
    println!(
        "GATE: quotes bit-identical to canonical measurement on {}",
        cfg.target.name()
    );
    if overload || cfg.load_permille >= 1500 {
        let typed = report.counters.shed
            + report.counters.busy_rejected
            + report.counters.overload_rejected
            + report.counters.quota_rejected;
        assert!(report.counters.completed > 0, "overload starved the plane");
        assert!(typed > 0, "overload never triggered typed backpressure");
        assert!(report.counters.max_level >= 1, "ladder never engaged");
        println!(
            "GATE: overload survivable ({} completed, {} typed rejections, max level {})",
            report.counters.completed, typed, report.counters.max_level
        );
    }
}
