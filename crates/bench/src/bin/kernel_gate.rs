//! Kernel-cycle regression gate: re-measures the headline field-kernel
//! cycle counts, the full point-multiplication totals
//! (`kp_this_work_asm`, `kg_this_work_asm`, `relic_style`), the
//! counted tier's batch-inversion amortisation rows (`batch_inv_cycles`,
//! `batch_total_cycles`, `individual_inv_cycles` at every batch size)
//! and the `kernel_flash` block (`flash_bytes`, `deduped_flash_bytes`,
//! `instructions`, `calls` per kernel, measured from the assembled
//! Thumb-16 of a full kP + kG) and compares them, exactly, against the
//! committed `BENCH_<n>.json` baseline.
//!
//! The cost model is deterministic, so any drift in `mul_asm_cycles`,
//! `sqr_asm_cycles`, `inv_cycles`, a point-multiplication total, an
//! amortisation row or a kernel footprint is a real modeling change and
//! must arrive together with a regenerated baseline — this gate turns a
//! silent drift into a CI failure.
//!
//! Run: `cargo run --release -p bench --bin kernel_gate [-- <baseline.json>]`
//! (defaults to the highest `BENCH_<n>.json` at the repository root).

use bench::throughput::{self, ThroughputConfig};
use bench::workloads;
use gf2m::modeled::Tier;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench has a grandparent")
        .to_path_buf()
}

/// Highest-numbered committed `BENCH_<n>.json`.
fn latest_baseline(root: &Path) -> PathBuf {
    let last = (1..)
        .take_while(|n| root.join(format!("BENCH_{n}.json")).exists())
        .last()
        .expect("at least BENCH_1.json is committed");
    root.join(format!("BENCH_{last}.json"))
}

/// Extracts `"key": <integer>` from the baseline without a JSON
/// dependency (the export format is line-oriented and deterministic).
fn extract_u64(doc: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\":");
    let line = doc
        .lines()
        .find(|l| l.contains(&needle))
        .unwrap_or_else(|| panic!("baseline has no {key:?}"));
    let rest = line.split(&needle).nth(1).expect("split after needle");
    let digits: String = rest
        .chars()
        .skip_while(|c| c.is_whitespace())
        .take_while(char::is_ascii_digit)
        .collect();
    digits
        .parse()
        .unwrap_or_else(|e| panic!("unparsable value for {key:?} in {line:?}: {e}"))
}

/// The part of the baseline that starts at `"section":` — the export
/// has a fixed key order, so the first `key` after a section header
/// belongs to that section.
fn section<'a>(doc: &'a str, name: &str) -> &'a str {
    let header = format!("\"{name}\":");
    let start = doc
        .find(&header)
        .unwrap_or_else(|| panic!("baseline has no section {name:?}"));
    &doc[start..]
}

/// The gate reads individual keys, so it works across every schema
/// revision of the export family — but a document from some other
/// producer entirely would fail with confusing per-key panics, so the
/// family prefix is checked up front. Any `ecc233-bench/<n>` passes.
fn check_schema(doc: &str, path: &Path) {
    let schema = doc
        .lines()
        .find_map(|l| l.split("\"schema\": \"").nth(1))
        .and_then(|rest| rest.split('"').next())
        .unwrap_or_else(|| panic!("{} has no \"schema\" field", path.display()));
    assert!(
        schema.starts_with("ecc233-bench/"),
        "{} is not an ecc233-bench export (schema {schema:?})",
        path.display()
    );
}

/// Compares a fresh [`workloads::kernel_flash`] against the baseline's
/// `kernel_flash` block, printing each mismatch by kernel and key.
/// Returns whether anything drifted.
fn flash_drifted(doc: &str) -> bool {
    let block = section(doc, "kernel_flash");
    let block = &block[..block.find("\n  }").expect("kernel_flash block closes")];
    let baseline: Vec<&str> = block
        .lines()
        .skip(1)
        .filter_map(|l| l.trim().strip_prefix('"')?.split('"').next())
        .collect();
    let fresh = workloads::kernel_flash(Tier::Asm);
    let names: Vec<&str> = fresh.iter().map(|(name, _)| *name).collect();
    let mut drifted = names != baseline;
    if drifted {
        println!("  kernel_flash kernels baseline {baseline:?}  fresh {names:?}  MISMATCH");
    }
    for (name, fp) in fresh.iter().filter(|(name, _)| baseline.contains(name)) {
        let row = section(block, name);
        for (key, fresh) in [
            ("flash_bytes", fp.flash_bytes as u64),
            ("deduped_flash_bytes", fp.deduped_flash_bytes as u64),
            ("instructions", fp.instructions),
            ("calls", fp.calls),
        ] {
            let baseline = extract_u64(row, key);
            if baseline != fresh {
                println!(
                    "  kernel_flash {name} {key} baseline {baseline}  fresh {fresh}  MISMATCH"
                );
                drifted = true;
            }
        }
    }
    if !drifted {
        println!("  kernel_flash     every kernel's footprint and call count  ok");
    }
    drifted
}

fn main() {
    let path = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(|| latest_baseline(&repo_root()));
    let doc =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    check_schema(&doc, &path);

    let (sqr_asm, mul_asm, _, inv_asm) = workloads::kernel_cycles(Tier::Asm);
    let (_, _, _, inv_c) = workloads::kernel_cycles(Tier::C);
    let inv = inv_asm.min(inv_c);

    let mut failed = false;
    for (key, fresh) in [
        ("mul_asm_cycles", mul_asm),
        ("sqr_asm_cycles", sqr_asm),
        ("inv_cycles", inv),
    ] {
        let baseline = extract_u64(&doc, key);
        let ok = baseline == fresh;
        println!(
            "  {key:<16} baseline {baseline:>8}  fresh {fresh:>8}  {}",
            if ok { "ok" } else { "MISMATCH" }
        );
        failed |= !ok;
    }

    // Point-multiplication totals: the whole modeled stack (field
    // kernels, wTNAF recoding, the executor) folded into one number
    // each, so any drift anywhere surfaces here.
    let kp = workloads::average_kp(Tier::Asm, 1..3);
    let kg = workloads::average_kg(Tier::Asm, 1..3);
    let relic = workloads::average_relic(1..3);
    for (name, fresh) in [
        ("kp_this_work_asm", kp.report.cycles),
        ("kg_this_work_asm", kg.report.cycles),
        ("relic_style", relic.report.cycles),
    ] {
        let baseline = extract_u64(section(&doc, name), "cycles");
        let ok = baseline == fresh;
        println!(
            "  {name:<16} baseline {baseline:>8}  fresh {fresh:>8}  {}",
            if ok { "ok" } else { "MISMATCH" }
        );
        failed |= !ok;
    }

    // The counted tier's batch-inversion amortisation rows: every
    // value is a Tally of the shared LD and EEA loops, so a change to
    // how those loops charge (or compute) shows here by size and key.
    let rows = section(&doc, "amortisation");
    let mut drifted = false;
    for row in throughput::batch_amortisation(&ThroughputConfig::full().amortisation_sizes) {
        let size = row.size.to_string();
        for (key, fresh) in [
            ("batch_inv_cycles", row.batch_inv_cycles),
            ("batch_total_cycles", row.batch_total_cycles),
            ("individual_inv_cycles", row.individual_inv_cycles),
        ] {
            let baseline = extract_u64(section(rows, &size), key);
            if baseline != fresh {
                println!(
                    "  amortisation size {size} {key} baseline {baseline}  fresh {fresh}  MISMATCH"
                );
                drifted = true;
            }
        }
    }
    if !drifted {
        println!("  amortisation     every size's inversion and total cycles  ok");
    }
    failed |= drifted;

    failed |= flash_drifted(&doc);

    if failed {
        eprintln!(
            "kernel cycle drift vs {} — regenerate the baseline with export_json if intended",
            path.display()
        );
        std::process::exit(1);
    }
    println!("kernel gate: all cycle counts match {}", path.display());
}
