//! The BENCH document, written once and read once.
//!
//! [`document`] measures every reproduction number the export records
//! into one ordered [`Value`] tree: fixed seeds, modeled cycles and
//! counts, no wall clock, so two runs on one tree are identical.
//! [`render`] lays a tree out by one rule and [`parse`] reads any
//! `ecc233-bench/*` document back. `export_json` renders the fresh
//! document into the next free `BENCH_<n>.json`; `kernel_gate` parses
//! the newest one and [`compare`]s every numeric and boolean leaf
//! outside its `"host_dependent": true` subtrees against a fresh
//! document. Numbers keep the exact text the export wrote, so the gate
//! compares text, not floats.

use crate::campaign::{self, CampaignConfig};
use crate::throughput::{self, ThroughputConfig};
use crate::traffic::{self, TrafficConfig};
use crate::workloads;
use gf2m::modeled::Tier;
use koblitz::modeled::PointMulRun;
use m0plus::Category;
use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// Schema identifier for downstream consumers; bump when the document
/// shape changes.
const SCHEMA: &str = "ecc233-bench/9";

/// One node of a BENCH document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// A number, as the exact text the export writes (`1.00` stays
    /// `1.00`).
    Num(String),
    /// `true` or `false`.
    Bool(bool),
    /// A string, unescaped.
    Str(String),
    /// An object, its members in document order.
    Obj(Vec<(String, Value)>),
}

macro_rules! value_from {
    ($($t:ty: $x:ident => $e:expr;)*) => {$(
        impl From<$t> for Value {
            fn from($x: $t) -> Self { $e }
        }
    )*};
}
value_from! {
    u32: x => Value::Num(x.to_string());
    u64: x => Value::Num(x.to_string());
    usize: x => Value::Num(x.to_string());
    bool: b => Value::Bool(b);
    &str: s => Value::Str(s.to_owned());
}

/// `obj! { "key" => value, ... }`: an object with its members in the
/// order written, each value anything `Into<Value>`.
macro_rules! obj {
    ($($k:expr => $v:expr),* $(,)?) => {
        Value::Obj(vec![$((String::from($k), Value::from($v))),*])
    };
}

impl Value {
    /// The member `key` of an object.
    fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Every non-object value under this one, with its dotted path
    /// (`kernels.mul_asm_cycles`), in document order. An object holding
    /// `"host_dependent": true` is skipped whole: it records host wall
    /// clock, which no rerun reproduces.
    pub fn leaves(&self) -> Vec<(String, &Value)> {
        fn walk<'a>(prefix: &str, v: &'a Value, out: &mut Vec<(String, &'a Value)>) {
            let Value::Obj(fields) = v else {
                return out.push((prefix.to_owned(), v));
            };
            if v.get("host_dependent") != Some(&Value::Bool(true)) {
                for (k, v) in fields {
                    let dot = if prefix.is_empty() { "" } else { "." };
                    walk(&format!("{prefix}{dot}{k}"), v, out);
                }
            }
        }
        let mut out = Vec::new();
        walk("", self, &mut out);
        out
    }
}

/// JSON on one line: leaves as the export writes them, objects as
/// `{ "k": v, ... }`.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Num(text) => f.write_str(text),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Str(s) => write_quoted(f, s),
            Value::Obj(fields) if fields.is_empty() => f.write_str("{}"),
            Value::Obj(fields) => {
                for (i, (k, v)) in fields.iter().enumerate() {
                    f.write_str(if i == 0 { "{ " } else { ", " })?;
                    write_quoted(f, k)?;
                    write!(f, ": {v}")?;
                }
                f.write_str(" }")
            }
        }
    }
}

/// A JSON string literal; `parse` reads back exactly these escapes.
fn write_quoted(f: &mut impl fmt::Write, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' | '\\' => write!(f, "\\{c}")?,
            c if u32::from(c) < 0x20 => write!(f, "\\u{:04x}", u32::from(c))?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

/// Lays `doc` out as JSON text: an object whose values are all leaves
/// goes on one line, every other object puts one member per line,
/// indented two spaces per level.
pub fn render(doc: &Value) -> String {
    fn block(out: &mut String, v: &Value, depth: usize) {
        let nested = match v {
            Value::Obj(fields) if fields.iter().any(|(_, v)| matches!(v, Value::Obj(_))) => fields,
            _ => return out.push_str(&v.to_string()),
        };
        out.push_str("{\n");
        for (i, (k, v)) in nested.iter().enumerate() {
            out.push_str(&"  ".repeat(depth + 1));
            write_quoted(out, k).expect("writing to a String");
            out.push_str(": ");
            block(out, v, depth + 1);
            out.push_str(if i + 1 < nested.len() { ",\n" } else { "\n" });
        }
        out.push_str(&"  ".repeat(depth));
        out.push('}');
    }
    let mut out = String::new();
    block(&mut out, doc, 0);
    out.push('\n');
    out
}

/// Reads a BENCH document: JSON objects, strings, numbers and
/// booleans (no arrays or `null`; the export writes none).
///
/// # Errors
///
/// Malformed or truncated text, objects nested deeper than 32, or a
/// top-level `"schema"` that is missing or outside `ecc233-bench/*`.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut rest = text;
    let doc = value(&mut rest, 0)
        .and_then(|doc| match rest.trim_start() {
            "" => Ok(doc),
            _ => Err("trailing text"),
        })
        .map_err(|e| format!("{e} at byte {}", text.len() - rest.len()))?;
    match doc.get("schema") {
        Some(Value::Str(s)) if s.starts_with("ecc233-bench/") => Ok(doc),
        Some(other) => Err(format!("not an ecc233-bench document (schema {other})")),
        None => Err("no \"schema\" member".to_owned()),
    }
}

/// Skips whitespace, then consumes `c` if it comes next.
fn eat(s: &mut &str, c: char) -> bool {
    *s = s.trim_start();
    let rest = s.strip_prefix(c);
    *s = rest.unwrap_or(s);
    rest.is_some()
}

/// Consumes one value from the front of `s`.
fn value(s: &mut &str, depth: usize) -> Result<Value, &'static str> {
    *s = s.trim_start();
    if s.starts_with('"') {
        return string(s).map(Value::Str);
    }
    if eat(s, '{') {
        let mut fields = Vec::new();
        if depth == 32 {
            return Err("objects nested too deep");
        }
        if eat(s, '}') {
            return Ok(Value::Obj(fields));
        }
        loop {
            let key = string(s)?;
            if !eat(s, ':') {
                return Err("expected ':'");
            }
            fields.push((key, value(s, depth + 1)?));
            if eat(s, '}') {
                return Ok(Value::Obj(fields));
            }
            if !eat(s, ',') {
                return Err("expected ',' or '}'");
            }
        }
    }
    for (word, b) in [("true", true), ("false", false)] {
        if let Some(rest) = s.strip_prefix(word) {
            *s = rest;
            return Ok(Value::Bool(b));
        }
    }
    let len = s
        .find(|c: char| !matches!(c, '0'..='9' | '-' | '+' | '.' | 'e' | 'E'))
        .unwrap_or(s.len());
    let num = &s[..len];
    if !num.starts_with(|c: char| c == '-' || c.is_ascii_digit()) || num.parse::<f64>().is_err() {
        return Err("expected a value");
    }
    *s = &s[len..];
    Ok(Value::Num(num.to_owned()))
}

/// Consumes a string literal, reading the escapes `write_quoted`
/// writes.
fn string(s: &mut &str) -> Result<String, &'static str> {
    if !eat(s, '"') {
        return Err("expected a string");
    }
    let mut out = String::new();
    loop {
        let end = s.find(['"', '\\']).ok_or("unterminated string")?;
        out.push_str(&s[..end]);
        let tail = &s[end + 1..];
        if s.as_bytes()[end] == b'"' {
            *s = tail;
            return Ok(out);
        }
        let (c, len) = match tail.as_bytes().first() {
            Some(&q @ (b'"' | b'\\')) => (char::from(q), 1),
            Some(b'u') => (
                tail.get(1..5)
                    .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                    .and_then(|h| char::from_u32(u32::from_str_radix(h, 16).ok()?))
                    .ok_or("bad \\u escape")?,
                5,
            ),
            _ => return Err("bad escape"),
        };
        out.push(c);
        *s = &tail[len..];
    }
}

/// Checks every numeric and boolean leaf of `baseline` against the
/// leaf at the same path in `fresh`: both must exist with identical
/// text. Strings (notes, labels, the schema id) are not compared, and
/// leaves only `fresh` has are ignored. Returns how many leaves were
/// compared and one `path baseline <b> fresh <f|missing>` line per
/// leaf that differs, in baseline order.
pub fn compare(baseline: &Value, fresh: &Value) -> (usize, Vec<String>) {
    let fresh: HashMap<String, &Value> = fresh.leaves().into_iter().collect();
    let mut compared = 0;
    let mut drifted = Vec::new();
    for (path, b) in baseline.leaves() {
        if matches!(b, Value::Str(_)) {
            continue;
        }
        compared += 1;
        match fresh.get(&path) {
            Some(&f) if f == b => {}
            Some(f) => drifted.push(format!("{path} baseline {b} fresh {f}")),
            None => drifted.push(format!("{path} baseline {b} fresh missing")),
        }
    }
    (compared, drifted)
}

/// `BENCH_<n>.json` at the repository root, resolved from the bench
/// crate's manifest directory (crates/bench → two levels up), so it
/// does not depend on the working directory.
pub fn bench_path(n: usize) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench has a grandparent")
        .join(format!("BENCH_{n}.json"))
}

/// How many baselines are committed: `BENCH_1.json` through
/// `BENCH_<n>.json` all exist.
pub fn bench_count() -> usize {
    (1..).take_while(|&n| bench_path(n).exists()).count()
}

fn fixed(x: f64, places: usize) -> Value {
    Value::Num(format!("{x:.places$}"))
}

/// An object with one member per item; `row` names and builds each.
fn rows<T>(items: impl IntoIterator<Item = T>, row: impl FnMut(T) -> (String, Value)) -> Value {
    Value::Obj(items.into_iter().map(row).collect())
}

fn point_mul(run: &PointMulRun) -> Value {
    let r = &run.report;
    obj! {
        "cycles" => r.cycles, "energy_uj" => fixed(r.energy_uj(), 4),
        "time_ms" => fixed(r.time_ms(), 4), "power_uw" => fixed(r.average_power_uw(), 2),
        "categories" => rows(Category::ALL, |c| {
            (c.label().replace(' ', "_"), r.category_cycles(c).into())
        }),
    }
}

fn service_run(cfg: &TrafficConfig) -> Value {
    let r = traffic::run(cfg);
    let c = &r.counters;
    obj! {
        "config" => obj! {
            "target" => cfg.target.name(), "seed" => cfg.seed, "ticks" => cfg.ticks,
            "load_permille" => cfg.load_permille,
            "adversarial_permille" => cfg.adversarial_permille, "clients" => cfg.clients,
        },
        "counters" => obj! {
            "submitted" => c.submitted, "admitted" => c.admitted, "completed" => c.completed,
            "decode_errors" => c.decode_errors, "replays" => c.replays, "shed" => c.shed,
            "quota_rejected" => c.quota_rejected, "busy_rejected" => c.busy_rejected,
            "overload_rejected" => c.overload_rejected,
            "expired_on_arrival" => c.expired_on_arrival, "timeouts" => c.timeouts,
            "client_evictions" => c.client_evictions, "warms" => c.warms,
            "level_changes" => c.level_changes, "max_level" => c.max_level,
        },
        "executed" => obj! {
            "cycles" => c.executed_cycles, "energy_uj" => fixed(c.executed_energy_pj / 1e6, 4),
            "verify_false" => r.verify_false,
        },
        "latency_ticks" => obj! {
            "p50" => r.p50_latency_ticks, "p99" => r.p99_latency_ticks,
            "drain_ticks" => r.drain_ticks,
        },
        "wtnaf_cache" => obj! {
            "hits" => r.cache.hits, "misses" => r.cache.misses,
            "evictions" => r.cache.evictions, "entries" => r.cache.entries,
        },
        "quote_vs_actual" => rows(r.quote_errors.iter().enumerate(), |(i, s)| {
            (format!("{}_{i}", s.kernel), obj! {
                "quoted_cycles" => s.quoted, "actual_cycles" => s.actual,
                "err_permille" => s.err_permille(),
            })
        }),
        "quote_exact" => r.quote_exact,
        "accounting_balanced" => c.accounted(0),
    }
}

/// Measures and assembles the whole BENCH document (~2 s in a release
/// build). Each block is measured where it appears, so the
/// measurements run in document order: the service blocks report the
/// process-wide wTNAF cache counters, which earlier blocks move.
pub fn document() -> Value {
    let target = m0plus::target::default_target();
    obj! {
        "schema" => SCHEMA,
        "paper" => "de Clercq et al., DAC 2014, 10.1145/2593069.2593238",
        "clock_hz" => m0plus::CLOCK_HZ,
        "kp_this_work_asm" => point_mul(&workloads::average_kp(Tier::Asm, 1..3)),
        "kg_this_work_asm" => point_mul(&workloads::average_kg(Tier::Asm, 1..3)),
        "relic_style" => point_mul(&workloads::average_relic(1..3)),
        "kernels" => {
            let (sqr_asm, mul_asm, lut_asm, inv) = workloads::kernel_cycles(Tier::Asm);
            let (sqr_c, mul_c, _, inv_c) = workloads::kernel_cycles(Tier::C);
            obj! {
                "mul_asm_cycles" => mul_asm, "mul_lut_asm_cycles" => lut_asm,
                "sqr_asm_cycles" => sqr_asm, "mul_c_cycles" => mul_c, "sqr_c_cycles" => sqr_c,
                "inv_cycles" => inv.min(inv_c),
                "paper_mul_asm" => 3672_u64, "paper_sqr_asm" => 395_u64,
            }
        },
        "kernel_flash" => rows(workloads::kernel_flash(Tier::Asm), |(name, fp)| (name.into(), obj! {
            "flash_bytes" => fp.flash_bytes, "deduped_flash_bytes" => fp.deduped_flash_bytes,
            "instructions" => fp.instructions, "calls" => fp.calls,
        })),
        "robustness" => {
            let c = campaign::run_campaign(&CampaignConfig::new(7, 200));
            obj! {
                "campaign" => obj! {
                    "seed" => c.seed, "runs_per_kernel" => c.runs_per_kernel, "target" => c.target,
                },
                "kernels" => rows(&c.kernels, |k| (k.name.into(), obj! {
                    "trace_len" => k.trace_len, "aborted" => k.aborted, "benign" => k.benign,
                    "altered" => k.altered, "detect_recompute" => fixed(k.rate_recompute(), 4),
                    "detect_full" => fixed(k.rate_full(), 4),
                    "silent_unhardened" => fixed(k.silent_unhardened(), 4),
                    "silent_full" => fixed(k.silent_full(), 4),
                })),
                "overall_detect_full" => fixed(c.overall_rate_full(), 4),
                "countermeasure_overhead" => rows(campaign::measure_overheads(), |o| {
                    (o.name.into(), obj! {
                        "cycles" => o.cycles, "energy_pj" => fixed(o.energy_pj, 1),
                        "flash_bytes" => o.flash_bytes, "note" => o.note,
                    })
                }),
            }
        },
        "leakage" => {
            let cfg = verify::LeakageConfig {
                seed: 0x1ea4a9e, cheap_pairs: 4, expensive_pairs: 1, target,
            };
            let verdicts = verify::leakage::run_campaign(&cfg);
            obj! {
                "campaign" => obj! {
                    "seed" => cfg.seed, "cheap_pairs" => cfg.cheap_pairs,
                    "expensive_pairs" => cfg.expensive_pairs,
                },
                "kernels" => rows(&verdicts, |v| (v.name.into(), obj! {
                    "pairs" => v.pairs, "trace_events" => v.trace_events,
                    "pc" => v.class_label(0), "addr" => v.class_label(1),
                    "cycles" => v.class_label(2), "verdict" => v.verdict(),
                })),
                "leaks" => verdicts.iter().filter(|v| !v.ok()).count(),
            }
        },
        "throughput" => {
            let tp = throughput::run(&ThroughputConfig::full());
            obj! {
                "amortisation" => rows(&tp.amortisation, |r| (r.size.to_string(), obj! {
                    "batch_inv_cycles" => r.batch_inv_cycles,
                    "batch_total_cycles" => r.batch_total_cycles,
                    "individual_inv_cycles" => r.individual_inv_cycles,
                    "inv_shrink" => fixed(r.inv_shrink(), 2),
                })),
                "wtnaf_cache" => obj! {
                    "keys" => tp.cache.keys, "ops_per_key" => tp.cache.ops_per_key,
                    "hits" => tp.cache.hits, "misses" => tp.cache.misses,
                    "hit_rate" => fixed(tp.cache.hit_rate(), 4),
                },
            }
        },
        "service" => obj! {
            "smoke" => service_run(&TrafficConfig::smoke(target)),
            "overload" => service_run(&TrafficConfig::overload(target)),
        },
        "targets" => rows(m0plus::target::registry(), |spec| {
            let r = workloads::kp_under_target(Tier::Asm, spec, 1).report;
            (spec.name().into(), obj! {
                "clock_hz" => spec.clock_hz(), "kp_cycles" => r.cycles,
                "kp_uj" => fixed(r.energy_uj(), 4), "kp_time_ms" => fixed(r.time_ms(), 4),
            })
        }),
        "paper_targets" => obj! {
            "kp_cycles" => 2814827_u64, "kp_uj" => Value::Num("34.16".into()),
            "kg_cycles" => 1864470_u64, "kg_uj" => Value::Num("20.63".into()),
            "relic_kp_cycles" => 5621045_u64,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCH_8: &str = include_str!("../../../BENCH_8.json");

    fn sample() -> Value {
        obj! {
            "schema" => "ecc233-bench/9",
            "note" => "say \"hi\" \\ tab\there",
            "kernels" => obj! { "mul" => 3745_u64, "ratio" => fixed(1.0, 2) },
            "nested" => obj! {
                "ok" => true,
                "empty" => obj! {},
                "row" => obj! { "off" => false, "neg" => Value::Num("-7".into()) },
            },
            "wall" => obj! { "host_dependent" => true, "ns" => 12_u64 },
        }
    }

    /// `doc` with the member at dotted `path` replaced by `v` (added
    /// when the last key is new).
    fn with(mut doc: Value, path: &str, v: Value) -> Value {
        let mut node = &mut doc;
        let mut keys = path.split('.').peekable();
        while let Some(key) = keys.next() {
            let Value::Obj(fields) = node else {
                unreachable!("{path} runs through a leaf")
            };
            let at = match fields.iter().position(|(k, _)| k == key) {
                Some(at) => at,
                None => {
                    fields.push((key.to_owned(), Value::Bool(false)));
                    fields.len() - 1
                }
            };
            node = &mut fields[at].1;
            if keys.peek().is_none() {
                *node = v;
                break;
            }
        }
        doc
    }

    #[test]
    fn render_parse_render_is_byte_identical() {
        let text = render(&sample());
        assert_eq!(
            text,
            concat!(
                "{\n",
                "  \"schema\": \"ecc233-bench/9\",\n",
                "  \"note\": \"say \\\"hi\\\" \\\\ tab\\u0009here\",\n",
                "  \"kernels\": { \"mul\": 3745, \"ratio\": 1.00 },\n",
                "  \"nested\": {\n",
                "    \"ok\": true,\n",
                "    \"empty\": {},\n",
                "    \"row\": { \"off\": false, \"neg\": -7 }\n",
                "  },\n",
                "  \"wall\": { \"host_dependent\": true, \"ns\": 12 }\n",
                "}\n",
            )
        );
        let back = parse(&text).expect("parses");
        assert_eq!(back, sample());
        assert_eq!(render(&back), text);
    }

    #[test]
    fn leaves_are_dotted_and_skip_host_dependent_subtrees() {
        let doc = sample();
        let paths: Vec<String> = doc.leaves().into_iter().map(|(p, _)| p).collect();
        assert_eq!(
            paths,
            [
                "schema",
                "note",
                "kernels.mul",
                "kernels.ratio",
                "nested.ok",
                "nested.row.off",
                "nested.row.neg"
            ]
        );
    }

    #[test]
    fn committed_bench_8_parses_with_336_gated_leaves() {
        let doc = parse(BENCH_8).expect("BENCH_8.json parses");
        let leaves = doc.leaves();
        let mul = leaves.iter().find(|(p, _)| p == "kernels.mul_asm_cycles");
        assert_eq!(mul.map(|(_, v)| *v), Some(&Value::from(3745_u64)));
        let (compared, drifted) = compare(&doc, &doc);
        assert_eq!(compared, 336);
        assert!(drifted.is_empty());
        // The committed file's layout predates `render`; its values
        // survive a re-render unchanged.
        assert_eq!(parse(&render(&doc)), Ok(doc));
    }

    #[test]
    fn compare_reports_drifted_and_missing_baseline_leaves_by_path() {
        let fresh = with(sample(), "kernels.mul", 3746_u64.into());
        let fresh = with(fresh, "nested.row.extra", 1_u64.into());
        let (compared, drifted) = compare(&sample(), &fresh);
        assert_eq!(
            compared, 5,
            "strings and host_dependent leaves are not gated"
        );
        assert_eq!(drifted, ["kernels.mul baseline 3745 fresh 3746"]);

        // A leaf only the baseline has fails by path.
        let (_, drifted) = compare(&fresh, &sample());
        assert_eq!(
            drifted,
            [
                "kernels.mul baseline 3746 fresh 3745",
                "nested.row.extra baseline 1 fresh missing"
            ]
        );

        // The text must match: 1.0 is not 1.00, a number is not a
        // boolean, and a leaf is not an object.
        for (path, v) in [
            ("kernels.ratio", fixed(1.0, 1)),
            ("nested.ok", 1_u64.into()),
            ("kernels.mul", obj! { "x" => 3745_u64 }),
        ] {
            let (_, drifted) = compare(&sample(), &with(sample(), path, v));
            assert_eq!(drifted.len(), 1, "{path}");
            assert!(drifted[0].starts_with(&format!("{path} baseline ")));
        }
        // Strings and host-dependent values are not compared.
        let fresh = with(sample(), "note", "other".into());
        let fresh = with(fresh, "wall.ns", 13_u64.into());
        assert!(compare(&sample(), &fresh).1.is_empty());
    }

    #[test]
    fn malformed_documents_are_errors_not_panics() {
        let text = render(&sample());
        for cut in 0..text.trim_end().len() {
            assert!(parse(&text[..cut]).is_err(), "prefix of {cut} bytes parsed");
        }
        assert!(parse(&BENCH_8[..BENCH_8.len() / 2]).is_err());
        for bad in [
            "",
            "{\"schema\": \"other/1\"}",
            "{\"paper\": \"no schema\"}",
            "{\"schema\": 9}",
            "[1, 2]",
            "{\"schema\": \"ecc233-bench/9\", \"a\": null}",
            "{\"schema\": \"ecc233-bench/9\", \"a\": 1.2.3}",
            "{\"schema\": \"ecc233-bench/9\", \"a\": -}",
            "{\"schema\": \"ecc233-bench/9\", \"a\": tru}",
            "{\"schema\": \"ecc233-bench/9\", \"a\": \"\\q\"}",
            "{\"schema\": \"ecc233-bench/9\", \"a\": \"\\ud800\"}",
            "{\"schema\": \"ecc233-bench/9\", \"a\": \"\\u+041\"}",
            "{\"schema\": \"ecc233-bench/9\", \"a\": \"\\u12\"}",
            "{\"schema\": \"ecc233-bench/9\", \"a\": \"é\\é\"}",
            "{\"schema\": \"ecc233-bench/9\", \"a\": \"é\\",
            "{\"schema\": \"ecc233-bench/9\" \"a\": 1}",
            "{\"schema\": \"ecc233-bench/9\"} trailing",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
        let deep = "{\"a\": ".repeat(100_000);
        assert!(parse(&deep).is_err());
    }
}
