//! Exports the key reproduction numbers as JSON (for plotting and
//! regression tracking): the [`bench::report::document`], printed to
//! stdout and also written to a versioned `BENCH_<n>.json` at the
//! repository root (`n` = next free index). The document is
//! deterministic, so re-running on an unchanged tree produces a
//! byte-identical file. Host throughput is measured by the `e2e/`
//! benchmark.
//!
//! Run: `cargo run --release -p bench --bin export_json`

use bench::report;

fn main() {
    let doc = report::render(&report::document());
    print!("{doc}");
    let path = report::bench_path(report::bench_count() + 1);
    std::fs::write(&path, &doc).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    eprintln!("wrote {}", path.display());
}
