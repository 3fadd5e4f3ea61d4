//! `e2e`: the repository's seeded end-to-end host benchmark.
//!
//! ```text
//! e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! e2e --all [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! e2e --spread K [--workload NAME | --all] [--seed N] [--seconds S]
//! ```
//!
//! One workload per process. The untraced run prints every end-to-end
//! metric as a `name value unit` line; `--trace 1` runs the same
//! workload and seed with shadow spans and prints the per-layer metrics
//! instead, writing the spans to `target/e2e/NAME-SEED.trace.json`.
//! Both end with `output_digest` (a hash of the warm-up prefix's
//! outputs) and a one-line JSON result. Any failed output check makes
//! the process exit with status 1. See README.md for the workloads and
//! the metric map.

mod batch;
mod calib;
mod harness;
mod layers;
mod metrics;
mod plane;
mod replay;
mod stats;
mod trace;

use batch::BatchLoad;
use harness::RunOpts;
use metrics::{MetricDef, Outcome, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::Instant;

/// Seed of the recorded baseline; pass another with `--seed`.
const DEFAULT_SEED: u64 = 1;
/// A seed kept out of development, for confirming a claimed gain.
const HELD_OUT_SEED: u64 = 7919;
/// Measured seconds per run (the `run_seconds` in BENCHMARK.json).
const DEFAULT_SECONDS: f64 = 15.0;
/// `setup_s` is the median of this many set-ups.
const SETUP_REPS: usize = 5;

const WORKLOADS: [&str; 5] = [
    batch::SignB16::NAME,
    batch::VerifyRecurring::NAME,
    batch::EcdhChurn::NAME,
    "service_mixed",
    "fault_replay",
];

#[derive(Debug, Clone, PartialEq)]
enum Mode {
    One(String),
    All,
    Spread(usize, Option<String>),
}

#[derive(Debug, Clone, PartialEq)]
struct Args {
    mode: Mode,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn usage() -> String {
    format!(
        "usage: e2e --workload NAME | --all | --spread K [--workload NAME]\n\
         \x20          [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n\
         workloads: {}\n\
         default seed {DEFAULT_SEED}, held-out seed {HELD_OUT_SEED}, {DEFAULT_SECONDS} s per run",
        WORKLOADS.join(", ")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut all, mut spread) = (None, false, None);
    let mut args = Args {
        mode: Mode::All,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--all" => all = true,
            "--spread" => {
                let k: usize = value("--spread")?
                    .parse()
                    .map_err(|_| "--spread takes a count".to_string())?;
                if k < 2 {
                    return Err("--spread needs at least 2 runs".into());
                }
                spread = Some(k);
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes an unsigned integer".to_string())?;
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?;
            }
            "--trace" => {
                // `--trace` alone means traced; `--trace 0|1` is explicit.
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(w) = &workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload {w:?}"));
        }
    }
    args.mode = match (workload, all, spread) {
        (w, false, Some(k)) => Mode::Spread(k, w),
        (None, true, Some(k)) => Mode::Spread(k, None),
        (Some(w), false, None) => Mode::One(w),
        (None, true, None) => Mode::All,
        _ => return Err("give exactly one of --workload NAME and --all".into()),
    };
    if args.smoke {
        args.seconds = args.seconds.min(1.0);
    }
    Ok(args)
}

/// Runs one workload in this process.
fn run_workload(name: &str, opts: &RunOpts) -> (Outcome, Option<trace::Tracer>) {
    let (mut outcome, tracer) = match name {
        batch::SignB16::NAME => batch::run::<batch::SignB16>(opts),
        batch::VerifyRecurring::NAME => batch::run::<batch::VerifyRecurring>(opts),
        batch::EcdhChurn::NAME => batch::run::<batch::EcdhChurn>(opts),
        "service_mixed" => plane::run(opts),
        "fault_replay" => replay::run(opts),
        other => unreachable!("workload {other} was validated"),
    };
    if opts.trace {
        layers::probe(opts.seed, &mut outcome.values);
    }
    outcome.note("peak_rss_mb", stats::peak_rss_mib().0, "MiB");
    (outcome, tracer)
}

/// The metric table a run prints.
fn table(trace: bool) -> &'static [MetricDef] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Every output line of a run: one `name value unit` line per metric
/// and note, `output_digest`, `failed_ratio`, then the JSON result.
fn render(outcome: &Outcome, trace: bool) -> Vec<String> {
    let mut lines = Vec::new();
    let mut json = Vec::new();
    for m in table(trace) {
        // A per-layer metric the workload never exercises reads 0.
        let value = match (outcome.values.get(m.name), trace) {
            (Some(v), _) => v,
            (None, true) => 0.0,
            (None, false) => panic!("end-to-end metric {} was not measured", m.name),
        };
        lines.push(format!("{} {} {}", m.name, value, m.unit));
        json.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, value, m.unit
        ));
    }
    for (name, value, unit) in &outcome.notes {
        lines.push(format!("{name} {value} {unit}"));
    }
    lines.push(format!(
        "output_digest {} sha256",
        stats::hex(&outcome.digest)
    ));
    lines.push(format!(
        "failed_ratio {} fraction",
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    ));
    lines.push(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        json.join(", ")
    ));
    lines
}

fn write_trace(name: &str, seed: u64, tracer: &trace::Tracer) -> std::io::Result<String> {
    let dir = std::path::Path::new("target").join("e2e");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}-{seed}.trace.json"));
    std::fs::write(&path, tracer.to_json())?;
    Ok(path.display().to_string())
}

fn run_one(name: &str, args: &Args) -> ExitCode {
    let opts = RunOpts {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        setup_reps: if args.smoke { 1 } else { SETUP_REPS },
    };
    let (outcome, tracer) = run_workload(name, &opts);
    if let Some(tr) = &tracer {
        match write_trace(name, args.seed, tr) {
            Ok(path) => eprintln!("trace: {} spans written to {path}", tr.spans().len()),
            Err(e) => {
                eprintln!("cannot write the trace file: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    for line in render(&outcome, args.trace) {
        println!("{line}");
    }
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("{name}: {} output checks failed", outcome.failed);
        ExitCode::FAILURE
    }
}

/// Runs one workload in a fresh child process and returns its stdout
/// lines, or why it failed.
fn child(name: &str, args: &Args, seed: u64) -> Result<Vec<String>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate myself: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot run {name}: {e}"))?;
    let lines: Vec<String> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(str::to_string)
        .collect();
    if out.status.success() {
        Ok(lines)
    } else {
        Err(format!("{name} seed {seed} exited with {}", out.status))
    }
}

fn run_all(args: &Args) -> ExitCode {
    let start = Instant::now();
    let mut ok = true;
    for name in WORKLOADS {
        match child(name, args, args.seed) {
            Ok(lines) => lines.iter().for_each(|l| println!("[{name}] {l}")),
            Err(e) => {
                eprintln!("{e}");
                ok = false;
            }
        }
    }
    println!("all_total_s {} s", start.elapsed().as_secs_f64());
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Metric values from a run's final JSON line (the format `render`
/// writes).
fn parse_result(line: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let Some((_, metrics)) = line.split_once("\"metrics\": {") else {
        return out;
    };
    for part in metrics.split("}, ") {
        let Some((name, rest)) = part.split_once("\": {\"value\": ") else {
            continue;
        };
        let value = rest.split(',').next().and_then(|v| v.parse().ok());
        if let Some(v) = value {
            out.insert(name.trim_start_matches('"').to_string(), v);
        }
    }
    out
}

/// `--spread K`: K fresh processes per workload, one seed each,
/// alternating the workload order, then each end-to-end metric's
/// median, quartiles and IQR/median.
fn run_spread(k: usize, only: Option<&str>, args: &Args) -> ExitCode {
    let names: Vec<&str> = match only {
        Some(w) => vec![w],
        None => WORKLOADS.to_vec(),
    };
    let mut values: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    let mut ok = true;
    for round in 0..k {
        let mut order = names.clone();
        if round % 2 == 1 {
            order.reverse();
        }
        let seed = args.seed + round as u64;
        for name in order {
            match child(name, args, seed) {
                Ok(lines) => {
                    let parsed = parse_result(lines.last().map_or("", String::as_str));
                    let run: Vec<String> = parsed.iter().map(|(m, v)| format!("{m}={v}")).collect();
                    println!("run {round} {name} seed={seed} {}", run.join(" "));
                    for m in table(args.trace) {
                        if let Some(v) = parsed.get(m.name) {
                            values.entry((name, m.name)).or_default().push(*v);
                        }
                    }
                }
                Err(e) => {
                    eprintln!("{e}");
                    ok = false;
                }
            }
        }
    }
    println!("workload metric better median q1 q3 iqr/median bound flag");
    for name in &names {
        for m in table(args.trace) {
            let Some(v) = values.get(&(*name, m.name)).filter(|v| v.len() >= 2) else {
                continue;
            };
            let [q1, med, q3] = stats::quartiles(v);
            let spread = (q3 - q1) / med.abs().max(f64::MIN_POSITIVE);
            let flag = match m.bound {
                Some(b) if spread > b / 2.0 => "WIDE",
                Some(_) => "ok",
                None => "-",
            };
            println!(
                "{name} {} {} {med} {q1} {q3} {spread:.4} {} {flag}",
                m.name,
                m.better.as_str(),
                m.bound.map_or("-".to_string(), |b| b.to_string())
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match &args.mode {
        Mode::One(name) => run_one(name, &args),
        Mode::All => run_all(&args),
        Mode::Spread(k, only) => run_spread(*k, only.as_deref(), &args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(seed: u64, trace: bool) -> RunOpts {
        RunOpts {
            seed,
            seconds: 0.3,
            trace,
            setup_reps: 1,
        }
    }

    fn args(v: &[&str]) -> Result<Args, String> {
        parse_args(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    fn benchmark_json() -> String {
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root")
    }

    /// The raw value of `"key": …` in a flat JSON object.
    fn field<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
        let rest = obj.split_once(&format!("\"{key}\": "))?.1;
        match rest.strip_prefix('"') {
            Some(s) => s.split('"').next(),
            None => rest.split([',', '}', '\n']).next().map(str::trim),
        }
    }

    /// The objects of one array of flat objects in BENCHMARK.json.
    fn section(json: &str, key: &str) -> Vec<String> {
        let body = json
            .split_once(&format!("\"{key}\": ["))
            .and_then(|(_, b)| b.split_once(']'))
            .map_or("", |(b, _)| b);
        body.split('{')
            .skip(1)
            .map(|o| o.split('}').next().unwrap_or("").to_string())
            .collect()
    }

    fn listed_names(json: &str, key: &str) -> Vec<String> {
        section(json, key)
            .iter()
            .map(|o| {
                field(o, "name")
                    .expect("every entry has a name")
                    .to_string()
            })
            .collect()
    }

    fn valid_name(n: &str) -> bool {
        !n.is_empty()
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let json = benchmark_json();
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let objs = section(&json, key);
            assert_eq!(objs.len(), table.len(), "{key}");
            for (obj, m) in objs.iter().zip(table) {
                assert_eq!(field(obj, "name"), Some(m.name));
                assert_eq!(field(obj, "unit"), Some(m.unit), "{}", m.name);
                assert_eq!(field(obj, "better"), Some(m.better.as_str()), "{}", m.name);
                let bound = field(obj, "bound").map(|b| b.parse::<f64>().expect("numeric bound"));
                assert_eq!(bound, m.bound, "{}", m.name);
            }
        }
        assert_eq!(listed_names(&json, "workloads"), WORKLOADS);
        let run_seconds: f64 = field(&json, "run_seconds")
            .and_then(|s| s.parse().ok())
            .expect("run_seconds");
        assert_eq!(run_seconds, DEFAULT_SECONDS);
    }

    /// Checks one run's printed lines against BENCHMARK.json's list.
    fn assert_prints(name: &str, outcome: &Outcome, trace: bool, listed: &[String]) {
        assert_eq!(outcome.failed, 0, "{name} failed a check");
        let lines = render(outcome, trace);
        let (result, text) = lines.split_last().expect("output lines");
        let printed: Vec<&str> = text
            .iter()
            .map(|l| l.split(' ').next().unwrap_or(""))
            .collect();
        for n in &printed {
            assert!(valid_name(n), "{name}: bad printed name {n:?}");
        }
        for m in listed {
            assert!(printed.contains(&m.as_str()), "{name}: {m} not printed");
        }
        assert!(result.starts_with("{\"correct\": true, \"attempted\": "));
        let parsed: Vec<String> = parse_result(result).into_keys().collect();
        let mut want = listed.to_vec();
        want.sort();
        assert_eq!(parsed, want, "{name}: JSON metrics");
    }

    // One test drives every workload, in turn: they share the library's
    // process-wide caches, which a concurrent test would disturb.
    #[test]
    fn smoke_runs_are_seeded_and_print_every_listed_metric() {
        let json = benchmark_json();
        let (e2e, layers) = (
            listed_names(&json, "end_to_end"),
            listed_names(&json, "per_layer"),
        );
        for name in WORKLOADS {
            let a = run_workload(name, &smoke(5, false)).0;
            let b = run_workload(name, &smoke(5, false)).0;
            let c = run_workload(name, &smoke(6, false)).0;
            assert_eq!(a.digest, b.digest, "{name}: same seed, same outputs");
            assert_ne!(a.digest, c.digest, "{name}: another seed, other inputs");
            assert_prints(name, &a, false, &e2e);
            let (t, tracer) = run_workload(name, &smoke(5, true));
            assert!(tracer.is_some_and(|tr| !tr.spans().is_empty()), "{name}");
            assert_prints(name, &t, true, &layers);
        }
    }

    #[test]
    fn parses_the_command_line() {
        let a = args(&[
            "--workload",
            "fault_replay",
            "--seed",
            "3",
            "--seconds",
            "15",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(a.mode, Mode::One("fault_replay".into()));
        assert_eq!((a.seed, a.seconds, a.trace), (3, 15.0, false));
        assert!(args(&["--all", "--trace", "1"]).unwrap().trace);
        assert!(args(&["--all", "--trace"]).unwrap().trace);
        assert_eq!(args(&["--all"]).unwrap().mode, Mode::All);
        assert_eq!(
            args(&["--spread", "4", "--workload", "sign_b16"])
                .unwrap()
                .mode,
            Mode::Spread(4, Some("sign_b16".into()))
        );
        assert_eq!(
            args(&["--spread", "4", "--all"]).unwrap().mode,
            Mode::Spread(4, None)
        );
        assert_eq!(args(&["--all", "--smoke"]).unwrap().seconds, 1.0);
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "sign_b16", "--all"]).is_err());
        assert!(args(&["--spread", "1", "--all"]).is_err());
        assert!(args(&["--all", "--seconds", "0"]).is_err());
        assert!(args(&[]).is_err());
    }

    #[test]
    fn parse_result_reads_what_render_writes() {
        let mut o = Outcome::default();
        for (i, m) in END_TO_END.iter().enumerate() {
            o.values.set(m.name, 1.5 + i as f64);
        }
        o.attempted = 4;
        let lines = render(&o, false);
        let parsed = parse_result(lines.last().unwrap());
        assert_eq!(parsed.len(), END_TO_END.len());
        assert_eq!(parsed["ops_per_s"], 1.5);
        assert_eq!(parsed["setup_s"], 4.5);
    }
}
