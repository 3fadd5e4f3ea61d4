//! Exports the key reproduction numbers as JSON (for plotting and
//! regression tracking): printed to stdout, and also written to a
//! versioned `BENCH_<n>.json` at the repository root (`n` = next free
//! index). The whole document is deterministic — fixed key order,
//! fixed seeds, modeled cycles and counts, no timestamps and no wall
//! clock — so re-running on an unchanged tree produces a byte-identical
//! file. Host throughput is measured by the `e2e/` benchmark.
//!
//! Run: `cargo run --release -p bench --bin export_json`

use bench::campaign::{self, CampaignConfig};
use bench::throughput::{self, ThroughputConfig};
use bench::traffic::{self, TrafficConfig};
use bench::workloads;
use gf2m::modeled::Tier;
use m0plus::Category;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Schema identifier for downstream consumers; bump when the document
/// shape changes.
const SCHEMA: &str = "ecc233-bench/9";

fn main() {
    let doc = render();
    print!("{doc}");
    let root = repo_root();
    let path = next_free(&root);
    std::fs::write(&path, &doc).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    eprintln!("wrote {}", path.display());
}

/// The repository root, resolved from the bench crate's manifest
/// directory (crates/bench → two levels up).
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench has a grandparent")
        .to_path_buf()
}

/// First `BENCH_<n>.json` that does not exist yet, starting at 1.
fn next_free(root: &Path) -> PathBuf {
    (1..)
        .map(|n| root.join(format!("BENCH_{n}.json")))
        .find(|p| !p.exists())
        .expect("unbounded range")
}

fn render() -> String {
    let kp = workloads::average_kp(Tier::Asm, 1..3);
    let kg = workloads::average_kg(Tier::Asm, 1..3);
    let relic = workloads::average_relic(1..3);
    let (sqr_asm, mul_asm, lut_asm, inv) = workloads::kernel_cycles(Tier::Asm);
    let (sqr_c, mul_c, _, inv_c) = workloads::kernel_cycles(Tier::C);

    let run_json = |name: &str, run: &koblitz::modeled::PointMulRun| {
        let cats: Vec<String> = Category::ALL
            .iter()
            .map(|&c| {
                format!(
                    "      {:?}: {}",
                    c.label().replace(' ', "_"),
                    run.report.category_cycles(c)
                )
            })
            .collect();
        format!(
            "  \"{name}\": {{\n    \"cycles\": {},\n    \"energy_uj\": {:.4},\n    \"time_ms\": {:.4},\n    \"power_uw\": {:.2},\n    \"categories\": {{\n{}\n    }}\n  }}",
            run.report.cycles,
            run.report.energy_uj(),
            run.report.time_ms(),
            run.report.average_power_uw(),
            cats.join(",\n")
        )
    };

    let mut out = String::new();
    let w = &mut out;
    writeln!(w, "{{").unwrap();
    writeln!(w, "  \"schema\": \"{SCHEMA}\",").unwrap();
    writeln!(
        w,
        "  \"paper\": \"de Clercq et al., DAC 2014, 10.1145/2593069.2593238\","
    )
    .unwrap();
    writeln!(w, "  \"clock_hz\": {},", m0plus::CLOCK_HZ).unwrap();
    writeln!(w, "{},", run_json("kp_this_work_asm", &kp)).unwrap();
    writeln!(w, "{},", run_json("kg_this_work_asm", &kg)).unwrap();
    writeln!(w, "{},", run_json("relic_style", &relic)).unwrap();
    writeln!(w, "  \"kernels\": {{").unwrap();
    writeln!(w, "    \"mul_asm_cycles\": {mul_asm},").unwrap();
    writeln!(w, "    \"mul_lut_asm_cycles\": {lut_asm},").unwrap();
    writeln!(w, "    \"sqr_asm_cycles\": {sqr_asm},").unwrap();
    writeln!(w, "    \"mul_c_cycles\": {mul_c},").unwrap();
    writeln!(w, "    \"sqr_c_cycles\": {sqr_c},").unwrap();
    writeln!(w, "    \"inv_cycles\": {},", inv.min(inv_c)).unwrap();
    writeln!(w, "    \"paper_mul_asm\": 3672,").unwrap();
    writeln!(w, "    \"paper_sqr_asm\": 395").unwrap();
    writeln!(w, "  }},").unwrap();
    writeln!(w, "  \"kernel_flash\": {{").unwrap();
    let flash = workloads::kernel_flash(Tier::Asm);
    for (i, (name, fp)) in flash.iter().enumerate() {
        let sep = if i + 1 == flash.len() { "" } else { "," };
        writeln!(
            w,
            "    \"{name}\": {{ \"flash_bytes\": {}, \"deduped_flash_bytes\": {}, \"instructions\": {}, \"calls\": {} }}{sep}",
            fp.flash_bytes, fp.deduped_flash_bytes, fp.instructions, fp.calls
        )
        .unwrap();
    }
    writeln!(w, "  }},").unwrap();
    writeln!(w, "  \"robustness\": {{").unwrap();
    let cfg = CampaignConfig::new(7, 200);
    let campaign = campaign::run_campaign(&cfg);
    writeln!(
        w,
        "    \"campaign\": {{ \"seed\": {}, \"runs_per_kernel\": {}, \"target\": \"{}\" }},",
        campaign.seed, campaign.runs_per_kernel, campaign.target
    )
    .unwrap();
    writeln!(w, "    \"kernels\": {{").unwrap();
    for (i, k) in campaign.kernels.iter().enumerate() {
        let sep = if i + 1 == campaign.kernels.len() {
            ""
        } else {
            ","
        };
        writeln!(
            w,
            "      \"{}\": {{ \"trace_len\": {}, \"aborted\": {}, \"benign\": {}, \"altered\": {}, \"detect_recompute\": {:.4}, \"detect_full\": {:.4}, \"silent_unhardened\": {:.4}, \"silent_full\": {:.4} }}{sep}",
            k.name,
            k.trace_len,
            k.aborted,
            k.benign,
            k.altered,
            k.rate_recompute(),
            k.rate_full(),
            k.silent_unhardened(),
            k.silent_full(),
        )
        .unwrap();
    }
    writeln!(w, "    }},").unwrap();
    writeln!(
        w,
        "    \"overall_detect_full\": {:.4},",
        campaign.overall_rate_full()
    )
    .unwrap();
    writeln!(w, "    \"countermeasure_overhead\": {{").unwrap();
    let overheads = campaign::measure_overheads();
    for (i, o) in overheads.iter().enumerate() {
        let sep = if i + 1 == overheads.len() { "" } else { "," };
        writeln!(
            w,
            "      \"{}\": {{ \"cycles\": {}, \"energy_pj\": {:.1}, \"flash_bytes\": {}, \"note\": \"{}\" }}{sep}",
            o.name, o.cycles, o.energy_pj, o.flash_bytes, o.note
        )
        .unwrap();
    }
    writeln!(w, "    }}").unwrap();
    writeln!(w, "  }},").unwrap();
    writeln!(w, "  \"leakage\": {{").unwrap();
    let leak_cfg = verify::LeakageConfig {
        seed: 0x1ea4a9e,
        cheap_pairs: 4,
        expensive_pairs: 1,
        target: m0plus::target::default_target(),
    };
    let verdicts = verify::leakage::run_campaign(&leak_cfg);
    writeln!(
        w,
        "    \"campaign\": {{ \"seed\": {}, \"cheap_pairs\": {}, \"expensive_pairs\": {} }},",
        leak_cfg.seed, leak_cfg.cheap_pairs, leak_cfg.expensive_pairs
    )
    .unwrap();
    writeln!(w, "    \"kernels\": {{").unwrap();
    for (i, v) in verdicts.iter().enumerate() {
        let sep = if i + 1 == verdicts.len() { "" } else { "," };
        writeln!(
            w,
            "      \"{}\": {{ \"pairs\": {}, \"trace_events\": {}, \"pc\": \"{}\", \"addr\": \"{}\", \"cycles\": \"{}\", \"verdict\": \"{}\" }}{sep}",
            v.name,
            v.pairs,
            v.trace_events,
            v.class_label(0),
            v.class_label(1),
            v.class_label(2),
            v.verdict(),
        )
        .unwrap();
    }
    writeln!(w, "    }},").unwrap();
    let leaks = verdicts.iter().filter(|v| !v.ok()).count();
    writeln!(w, "    \"leaks\": {leaks}").unwrap();
    writeln!(w, "  }},").unwrap();
    let tp = throughput::run(&ThroughputConfig::full());
    writeln!(w, "  \"throughput\": {{").unwrap();
    writeln!(w, "    \"amortisation\": {{").unwrap();
    for (i, r) in tp.amortisation.iter().enumerate() {
        let sep = if i + 1 == tp.amortisation.len() {
            ""
        } else {
            ","
        };
        writeln!(
            w,
            "      \"{}\": {{ \"batch_inv_cycles\": {}, \"batch_total_cycles\": {}, \"individual_inv_cycles\": {}, \"inv_shrink\": {:.2} }}{sep}",
            r.size, r.batch_inv_cycles, r.batch_total_cycles, r.individual_inv_cycles, r.inv_shrink()
        )
        .unwrap();
    }
    writeln!(w, "    }},").unwrap();
    writeln!(
        w,
        "    \"wtnaf_cache\": {{ \"keys\": {}, \"ops_per_key\": {}, \"hits\": {}, \"misses\": {}, \"hit_rate\": {:.4} }}",
        tp.cache.keys, tp.cache.ops_per_key, tp.cache.hits, tp.cache.misses, tp.cache.hit_rate()
    )
    .unwrap();
    writeln!(w, "  }},").unwrap();
    writeln!(w, "  \"service\": {{").unwrap();
    let service_runs = [
        (
            "smoke",
            TrafficConfig::smoke(m0plus::target::default_target()),
        ),
        (
            "overload",
            TrafficConfig::overload(m0plus::target::default_target()),
        ),
    ];
    for (ri, (label, cfg)) in service_runs.iter().enumerate() {
        let rsep = if ri + 1 == service_runs.len() {
            ""
        } else {
            ","
        };
        let r = traffic::run(cfg);
        let c = &r.counters;
        writeln!(w, "    \"{label}\": {{").unwrap();
        writeln!(
            w,
            "      \"config\": {{ \"target\": \"{}\", \"seed\": {}, \"ticks\": {}, \"load_permille\": {}, \"adversarial_permille\": {}, \"clients\": {} }},",
            cfg.target.name(), cfg.seed, cfg.ticks, cfg.load_permille, cfg.adversarial_permille, cfg.clients
        )
        .unwrap();
        writeln!(
            w,
            "      \"counters\": {{ \"submitted\": {}, \"admitted\": {}, \"completed\": {}, \"decode_errors\": {}, \"replays\": {}, \"shed\": {}, \"quota_rejected\": {}, \"busy_rejected\": {}, \"overload_rejected\": {}, \"expired_on_arrival\": {}, \"timeouts\": {}, \"client_evictions\": {}, \"warms\": {}, \"level_changes\": {}, \"max_level\": {} }},",
            c.submitted, c.admitted, c.completed, c.decode_errors, c.replays, c.shed,
            c.quota_rejected, c.busy_rejected, c.overload_rejected, c.expired_on_arrival,
            c.timeouts, c.client_evictions, c.warms, c.level_changes, c.max_level
        )
        .unwrap();
        writeln!(
            w,
            "      \"executed\": {{ \"cycles\": {}, \"energy_uj\": {:.4}, \"verify_false\": {} }},",
            c.executed_cycles,
            c.executed_energy_pj / 1e6,
            r.verify_false
        )
        .unwrap();
        writeln!(
            w,
            "      \"latency_ticks\": {{ \"p50\": {}, \"p99\": {}, \"drain_ticks\": {} }},",
            r.p50_latency_ticks, r.p99_latency_ticks, r.drain_ticks
        )
        .unwrap();
        writeln!(
            w,
            "      \"wtnaf_cache\": {{ \"hits\": {}, \"misses\": {}, \"evictions\": {}, \"entries\": {} }},",
            r.cache.hits, r.cache.misses, r.cache.evictions, r.cache.entries
        )
        .unwrap();
        writeln!(w, "      \"quote_vs_actual\": {{").unwrap();
        for (i, s) in r.quote_errors.iter().enumerate() {
            let sep = if i + 1 == r.quote_errors.len() {
                ""
            } else {
                ","
            };
            writeln!(
                w,
                "        \"{}_{i}\": {{ \"quoted_cycles\": {}, \"actual_cycles\": {}, \"err_permille\": {} }}{sep}",
                s.kernel, s.quoted, s.actual,
                s.err_permille()
            )
            .unwrap();
        }
        writeln!(w, "      }},").unwrap();
        writeln!(w, "      \"quote_exact\": {},", r.quote_exact).unwrap();
        writeln!(w, "      \"accounting_balanced\": {}", c.accounted(0)).unwrap();
        writeln!(w, "    }}{rsep}").unwrap();
    }
    writeln!(w, "  }},").unwrap();
    writeln!(w, "  \"targets\": {{").unwrap();
    let specs = m0plus::target::registry();
    for (i, spec) in specs.iter().enumerate() {
        let sep = if i + 1 == specs.len() { "" } else { "," };
        let run = workloads::kp_under_target(Tier::Asm, spec, 1);
        writeln!(
            w,
            "    \"{}\": {{ \"clock_hz\": {}, \"kp_cycles\": {}, \"kp_uj\": {:.4}, \"kp_time_ms\": {:.4} }}{sep}",
            spec.name(),
            spec.clock_hz(),
            run.report.cycles,
            run.report.energy_uj(),
            run.report.time_ms(),
        )
        .unwrap();
    }
    writeln!(w, "  }},").unwrap();
    writeln!(w, "  \"paper_targets\": {{").unwrap();
    writeln!(w, "    \"kp_cycles\": 2814827, \"kp_uj\": 34.16,").unwrap();
    writeln!(w, "    \"kg_cycles\": 1864470, \"kg_uj\": 20.63,").unwrap();
    writeln!(w, "    \"relic_kp_cycles\": 5621045").unwrap();
    writeln!(w, "  }}").unwrap();
    writeln!(w, "}}").unwrap();
    out
}
