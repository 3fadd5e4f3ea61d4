//! The benchmark's metric vocabulary: every name it prints, with unit,
//! direction and (for end-to-end metrics) the regression bound.
//!
//! `BENCHMARK.json` at the repository root lists the same names; the
//! `benchmark_json_matches_the_metric_tables` test keeps the two in step.

use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric definition.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Largest worsening of the median, as a share of the parent's
    /// median, that does not yet count as a regression (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the stack sees; measured by the untraced run. Every
/// workload reports every one of these.
pub const END_TO_END: &[MetricDef] = &[
    e2e("ops_per_s", "ops/s", Higher, 0.20),
    e2e("latency_p50_ms", "ms", Lower, 0.20),
    e2e("latency_tail_ms", "ms", Lower, 0.20),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Per-layer numbers from the traced run (`--trace 1`). Timings named
/// `*_ns` without a per-call note are nanoseconds per operation of the
/// workload, averaged over the shadowed sample; a layer the workload
/// never calls reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    // gf2m: per call on 4 096 seed-drawn operands, and per batch.
    layer("gf2m.mul_ns", "ns", Lower),
    layer("gf2m.sqr_ns", "ns", Lower),
    layer("gf2m.inv_ns", "ns", Lower),
    layer("gf2m.batch_invert_ns", "ns/batch", Lower),
    // koblitz: shadow calls on each sampled operation's own inputs.
    layer("koblitz.scalar_invert_ns", "ns", Lower),
    layer("koblitz.scalar_mul_ns", "ns", Lower),
    layer("koblitz.recode_ns", "ns", Lower),
    layer("koblitz.mul_g_ns", "ns", Lower),
    layer("koblitz.double_mul_ns", "ns", Lower),
    layer("koblitz.batch_to_affine_ns", "ns/batch", Lower),
    layer("koblitz.kp_ns", "ns", Lower),
    layer("koblitz.precompute_ns", "ns", Lower),
    layer("koblitz.subgroup_check_ns", "ns", Lower),
    layer("koblitz.cache.hit_ratio", "ratio", Higher),
    layer("koblitz.cache.evictions", "count", Lower),
    // protocols
    layer("protocols.derive_nonce_ns", "ns", Lower),
    layer("protocols.batch.serial_share", "ratio", Lower),
    layer("protocols.batch.w2_speedup", "ratio", Higher),
    // service plane
    layer("service.decode_ns", "ns", Lower),
    layer("service.decode_ns_p95", "ns", Lower),
    layer("service.submit_ns", "ns", Lower),
    layer("service.tick_ns", "ns", Lower),
    layer("service.tick_ns_p95", "ns", Lower),
    layer("service.queue_wait_ticks_p95", "ticks", Lower),
    layer("service.admit_ratio", "ratio", Higher),
    layer("service.shed_ratio", "ratio", Lower),
    layer("service.decode_reject_ratio", "ratio", Lower),
    layer("service.max_level", "level", Lower),
    layer("service.cost_table_ms", "ms", Lower),
    // m0plus replay executor
    layer("m0plus.replay_ns.mul_asm", "ns", Lower),
    layer("m0plus.replay_ns.inv_eea_c", "ns", Lower),
    layer("m0plus.sim_minstr_per_s", "Minstr/s", Higher),
    layer("m0plus.predecode.hit_ratio", "ratio", Higher),
    layer("m0plus.record_ms", "ms", Lower),
    // fault campaign
    layer("campaign.aborted_ratio", "ratio", Lower),
    layer("campaign.detect_full", "ratio", Higher),
    // the modeled M0+ clock (deterministic; Tier::Asm, scalars 1..3)
    layer("model.kp_cycles", "cycles", Lower),
    layer("model.kg_cycles", "cycles", Lower),
    layer("model.kp_energy_uj", "uJ", Lower),
    // the trace itself
    layer("trace.coverage", "ratio", Higher),
    layer("trace.overhead", "ratio", Lower),
];

/// Looks a metric up by name in both tables.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// Metric values keyed by name. Setting a name that is in neither
/// table is a bug in the benchmark and panics.
#[derive(Debug, Default, Clone)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(find(name).is_some(), "undeclared metric {name}");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        // `+ 0.0` turns the -0.0 of an empty f64 sum into 0.
        self.0.insert(name, value + 0.0);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Everything one workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (prefix + timed phase).
    pub attempted: u64,
    /// Operations whose output failed its check, plus admissible
    /// requests that never completed.
    pub failed: u64,
    /// SHA-256 over the outputs of the fixed warm-up prefix, in order.
    pub digest: [u8; 32],
    pub values: Values,
    /// Extra `name value unit` lines that are not metrics (sample
    /// counts, the tail percentile, deterministic model values).
    pub notes: Vec<(String, String, String)>,
}

impl Outcome {
    pub fn note(&mut self, name: &str, value: impl ToString, unit: &str) {
        self.notes
            .push((name.to_string(), value.to_string(), unit.to_string()));
    }
}
