//! Regression gate on the BENCH document: builds a fresh
//! [`bench::report::document`] and requires every numeric and boolean
//! leaf of the baseline outside its `"host_dependent": true` subtrees
//! to be present with identical text (see [`bench::report::compare`]).
//! The document is deterministic, so any drift is a real modeling
//! change and must arrive with a regenerated baseline. Each drifted or
//! missing leaf prints as `path baseline <b> fresh <f>`; the gate then
//! exits 1.
//!
//! Run: `cargo run --release -p bench --bin kernel_gate [-- <baseline.json>]`
//! (defaults to the highest `BENCH_<n>.json` at the repository root).

use bench::report;
use std::path::PathBuf;

fn main() {
    let path = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(|| report::bench_path(report::bench_count()));
    let baseline = std::fs::read_to_string(&path)
        .map_err(|e| e.to_string())
        .and_then(|text| report::parse(&text))
        .unwrap_or_else(|e| {
            eprintln!("kernel gate: cannot read {}: {e}", path.display());
            std::process::exit(1);
        });
    let (compared, drifted) = report::compare(&baseline, &report::document());
    for line in &drifted {
        println!("  MISMATCH {line}");
    }
    println!(
        "kernel gate: {compared} leaves compared, {} mismatched, vs {}",
        drifted.len(),
        path.display()
    );
    if !drifted.is_empty() {
        eprintln!("regenerate the baseline with export_json if the drift is intended");
        std::process::exit(1);
    }
}
