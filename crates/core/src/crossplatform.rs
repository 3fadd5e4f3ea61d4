//! Cross-platform field-multiplication model: does the paper's
//! operation-count methodology explain the *other* rows of Table 5?
//!
//! The paper's Tables 1–2 count loads, stores, XORs and shifts for the
//! M0+ (32-bit words, w = 4 ⇒ 8 outer iterations). Here the same
//! accounting is generalised over word size and memory latency and
//! evaluated for every binary-field row of Table 5 — an out-of-sample
//! check of the model on platforms we did not build kernels for. The
//! predictions land within ~2× of the cited measurements (register
//! pressure, addressing modes and compiler quality differ per platform),
//! which is the fidelity such a first-order model can claim; the
//! regenerated table prints predicted vs cited side by side.

use gf2m::formulas::OpCounts;
use gf2m::modeled::{ModeledField, Tier};
use gf2m::Fe;
use m0plus::target::{registry, TargetSpec};
use m0plus::{ClassCounts, InstrClass};

/// A target platform for the generalised model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlatformModel {
    /// Display name.
    pub name: &'static str,
    /// Machine word size in bits.
    pub word_bits: u32,
    /// Cycles per memory access (load or store).
    pub mem_cycles: u64,
    /// Cycles per ALU operation.
    pub alu_cycles: u64,
}

/// The platforms of Table 5.
pub fn platforms() -> Vec<PlatformModel> {
    vec![
        PlatformModel {
            name: "ATMega128L",
            word_bits: 8,
            mem_cycles: 2,
            alu_cycles: 1,
        },
        PlatformModel {
            name: "MSP430X",
            word_bits: 16,
            mem_cycles: 3,
            alu_cycles: 1,
        },
        PlatformModel {
            name: "ARM7TDMI",
            word_bits: 32,
            mem_cycles: 3,
            alu_cycles: 1,
        },
        PlatformModel {
            name: "PXA271",
            word_bits: 32,
            mem_cycles: 2,
            alu_cycles: 1,
        },
        PlatformModel {
            name: "Cortex-M0+",
            word_bits: 32,
            mem_cycles: 2,
            alu_cycles: 1,
        },
    ]
}

/// Generalised López-Dahab-with-rotating-registers operation counts for
/// an m-bit field on a platform with `word_bits` words and window `w`:
/// the same event accounting as `gf2m::counted`, evaluated symbolically.
pub fn ld_rotating_counts(m_bits: u32, word_bits: u32, w: u32) -> OpCounts {
    let n = m_bits.div_ceil(word_bits) as u64;
    let outer = (word_bits / w) as u64;
    let two_n = 2 * n;
    // Table generation: 2^w entries of n words (T0 zeroed, T1 copied,
    // doublings and odd-adds as in gf2m's window-table builder).
    let entries = 1u64 << w;
    let table_reads = n + (entries / 2 - 1) * (3 * n - 1);
    let table_writes = 2 * n + (entries - 2) * n;
    let table_xors = (entries - 2) * n;
    let table_shifts = (entries / 2 - 1) * 2 * n;
    // Main loop with the rotating window: per outer pass, fill (n+1
    // reads), per k: x read + n T reads, spill 1 write + 1 slide read;
    // write back n; inter-pass shift over 2n memory words.
    let main_reads = outer * ((n + 1) + n * (1 + n) + (n - 1));
    let main_writes = outer * (n + n) + two_n;
    let main_xors = outer * n * (1 + n);
    let main_shifts = outer * n + (outer - 1) * 2 * two_n;
    let shift_mem = (outer - 1) * two_n;
    OpCounts {
        reads: table_reads + main_reads + shift_mem,
        writes: table_writes + main_writes + shift_mem,
        xors: table_xors + main_xors + (outer - 1) * two_n,
        shifts: table_shifts + main_shifts,
    }
}

/// Predicted modular-multiplication cycles for `m_bits` on `platform`
/// (window chosen as w = 4, the common choice across the cited work).
pub fn predict_mul_cycles(platform: &PlatformModel, m_bits: u32) -> u64 {
    let ops = ld_rotating_counts(m_bits, platform.word_bits, 4);
    platform.mem_cycles * (ops.reads + ops.writes) + platform.alu_cycles * (ops.xors + ops.shifts)
}

/// One predicted-vs-cited comparison row.
#[derive(Debug, Clone)]
pub struct PredictionRow {
    /// Platform name.
    pub platform: &'static str,
    /// Field size in bits.
    pub m_bits: u32,
    /// Model prediction (cycles).
    pub predicted: u64,
    /// The measurement cited in Table 5 (cycles).
    pub cited: u64,
    /// Who measured it.
    pub source: &'static str,
}

impl PredictionRow {
    /// predicted / cited.
    pub fn ratio(&self) -> f64 {
        self.predicted as f64 / self.cited as f64
    }
}

/// Evaluates the model against every binary-field multiplication row of
/// Table 5.
pub fn predict_table5() -> Vec<PredictionRow> {
    let p = platforms();
    let find = |name: &str| *p.iter().find(|x| x.name == name).expect("known platform");
    let rows: [(&str, u32, u64, &str); 8] = [
        ("ATMega128L", 163, 4508, "Aranha et al. [7]"),
        ("ATMega128L", 233, 8314, "Aranha et al. [7]"),
        ("ATMega128L", 167, 5490, "Kargl et al. [14]"),
        ("MSP430X", 163, 3585, "Gouvea [10]"),
        ("MSP430X", 283, 8166, "Gouvea [10]"),
        ("ARM7TDMI", 228, 4359, "S. Erdem [8]"),
        ("ARM7TDMI", 256, 5398, "S. Erdem [8]"),
        ("PXA271", 271, 2025, "TinyPBC [20]"),
    ];
    rows.iter()
        .map(|&(name, m, cited, source)| PredictionRow {
            platform: name,
            m_bits: m,
            predicted: predict_mul_cycles(&find(name), m),
            cited,
            source,
        })
        .collect()
}

// ---------------------------------------------------------------------
// Registry-target re-costing: the generated (not cited) cross-core rows.
// ---------------------------------------------------------------------

/// One field kernel's per-class instruction counts, recorded once on
/// the modeled machine. The cost model is purely per-class — every
/// instruction of a class charges exactly `cycles[class]` and
/// `pj_per_cycle[class] × cycles[class]` — so re-pricing a recorded
/// count vector under another target's tables reproduces the cycle
/// total a machine built for that target would charge, without
/// replaying the kernel.
#[derive(Debug, Clone)]
pub struct RecordedCounts {
    /// Kernel label (`mul`, `sqr`, `inv`).
    pub kernel: &'static str,
    /// Per-class instruction counts of one call.
    pub counts: ClassCounts,
}

/// Records one call of each F₂²³³ field kernel (multiplication,
/// squaring, inversion) on `tier` and returns their per-class counts.
pub fn recorded_field_kernels(tier: Tier) -> Vec<RecordedCounts> {
    let mut f = ModeledField::new(tier);
    let a = f.alloc_init(
        Fe::from_hex("0123456789abcdef0123456789abcdef0123456789abcdef01234567").expect("hex"),
    );
    let b = f.alloc_init(
        Fe::from_hex("0fedcba9876543210fedcba9876543210fedcba9876543210fedcba9").expect("hex"),
    );
    let z = f.alloc();
    let capture =
        |name: &'static str, f: &mut ModeledField, body: &mut dyn FnMut(&mut ModeledField)| {
            let before = f.machine().counts().clone();
            body(f);
            RecordedCounts {
                kernel: name,
                counts: f.machine().counts().delta(&before),
            }
        };
    vec![
        capture("mul", &mut f, &mut |f| f.mul(z, a, b)),
        capture("sqr", &mut f, &mut |f| f.sqr(z, a)),
        capture("inv", &mut f, &mut |f| f.inv(z, a)),
    ]
}

/// One re-costed row: a recorded kernel priced under one registry
/// target.
#[derive(Debug, Clone)]
pub struct RecostRow {
    /// Registry target name.
    pub target: &'static str,
    /// Kernel label.
    pub kernel: &'static str,
    /// Total cycles under the target's cycle table.
    pub cycles: u64,
    /// Total energy under the target's tables, picojoules.
    pub energy_pj: f64,
}

/// Prices one recorded count vector under one target.
pub fn recost(counts: &ClassCounts, target: &TargetSpec) -> (u64, f64) {
    let mut cycles = 0u64;
    let mut energy_pj = 0.0f64;
    for c in InstrClass::ALL {
        let n = counts.count(c);
        let cyc = target.cycles(c);
        cycles += n * cyc;
        energy_pj += n as f64 * (target.pj_per_cycle(c) * cyc as f64);
    }
    (cycles, energy_pj)
}

/// The generated cross-target table: every registry target × every
/// recorded field kernel, re-costed from the recorded counts. This is
/// what replaced the cited-constant rows — the numbers are *derived*
/// from the kernels this repository actually executes.
pub fn recost_rows() -> Vec<RecostRow> {
    let kernels = recorded_field_kernels(Tier::Asm);
    let mut rows = Vec::new();
    for target in registry() {
        for k in &kernels {
            let (cycles, energy_pj) = recost(&k.counts, target);
            rows.push(RecostRow {
                target: target.name(),
                kernel: k.kernel,
                cycles,
                energy_pj,
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn m0plus_prediction_is_consistent_with_our_own_tables() {
        // The generalised accounting at (233, 32, 4) must land near the
        // specialised Table-2 numbers (rotating ≈ 3.5k main + ~1k table).
        let m0 = platforms().pop().expect("non-empty");
        assert_eq!(m0.name, "Cortex-M0+");
        let cycles = predict_mul_cycles(&m0, 233);
        assert!(
            (3_000..6_500).contains(&cycles),
            "predicted {cycles} for the home platform"
        );
    }

    #[test]
    fn predictions_track_cited_measurements_within_first_order() {
        for row in predict_table5() {
            let r = row.ratio();
            assert!(
                (0.35..2.8).contains(&r),
                "{} F_2^{}: predicted {} vs cited {} (ratio {r:.2})",
                row.platform,
                row.m_bits,
                row.predicted,
                row.cited
            );
        }
    }

    #[test]
    fn smaller_words_cost_more() {
        // The dominant term is outer·n² = m²/(w·W): the 8-bit AVR pays
        // ≈ 32/8 = 4× the word operations of a 32-bit core for the same
        // field, diluted by the lower-order terms.
        let avr = predict_mul_cycles(&platforms()[0], 233);
        let m0 = predict_mul_cycles(&platforms()[4], 233);
        let ratio = avr as f64 / m0 as f64;
        assert!((2.0..8.0).contains(&ratio), "ratio {ratio:.1}");
    }

    #[test]
    fn counts_grow_with_field_size() {
        let p = platforms()[4];
        assert!(predict_mul_cycles(&p, 283) > predict_mul_cycles(&p, 233));
        assert!(predict_mul_cycles(&p, 233) > predict_mul_cycles(&p, 163));
    }

    fn rows_for<'a>(rows: &'a [RecostRow], target: &str) -> Vec<&'a RecostRow> {
        rows.iter().filter(|r| r.target == target).collect()
    }

    #[test]
    fn recost_covers_every_registry_target() {
        let rows = recost_rows();
        let non_default: Vec<_> = registry()
            .iter()
            .filter(|t| t.name() != "cortex-m0plus")
            .collect();
        assert!(non_default.len() >= 3, "registry too small");
        for t in registry() {
            let mine = rows_for(&rows, t.name());
            assert_eq!(mine.len(), 3, "{}: mul/sqr/inv rows", t.name());
            for r in mine {
                assert!(r.cycles > 0 && r.energy_pj > 0.0, "{:?}", r);
            }
        }
    }

    #[test]
    fn m0_is_never_cheaper_and_costs_more_where_branches_live() {
        // The M0's only differences are taken-branch (3) and BL (4):
        // every kernel re-costs ≥ the M0+, and the branch-heavy EEA
        // inversion strictly more.
        let rows = recost_rows();
        let m0p = rows_for(&rows, "cortex-m0plus");
        let m0 = rows_for(&rows, "cortex-m0");
        for (a, b) in m0p.iter().zip(&m0) {
            assert_eq!(a.kernel, b.kernel);
            assert!(
                b.cycles >= a.cycles,
                "{}: M0 {} < M0+ {}",
                a.kernel,
                b.cycles,
                a.cycles
            );
        }
        let inv_m0p = m0p.iter().find(|r| r.kernel == "inv").expect("inv row");
        let inv_m0 = m0.iter().find(|r| r.kernel == "inv").expect("inv row");
        assert!(
            inv_m0.cycles > inv_m0p.cycles,
            "EEA inversion must pay the 3-cycle taken branches"
        );
    }

    #[test]
    fn mul32_leaves_binary_field_kernels_untouched() {
        // F₂²³³ arithmetic is shift/XOR only — no MULS retires — so the
        // iterative-multiplier target re-costs bit-identically.
        let kernels = recorded_field_kernels(Tier::Asm);
        let m0p = m0plus::target::cortex_m0plus();
        let mul32 = m0plus::target::cortex_m0plus_mul32();
        for k in &kernels {
            assert_eq!(
                k.counts.count(InstrClass::Mul),
                0,
                "{} retires MULS",
                k.kernel
            );
            let (c_a, e_a) = recost(&k.counts, m0p);
            let (c_b, e_b) = recost(&k.counts, mul32);
            assert_eq!(c_a, c_b, "{}", k.kernel);
            assert_eq!(e_a.to_bits(), e_b.to_bits(), "{}", k.kernel);
        }
    }

    #[test]
    fn recost_matches_an_actual_run_on_the_target() {
        // Re-pricing recorded counts is exact for cycles (the model is
        // purely per-class); check against a machine actually built for
        // the M0 — and that the architectural result is
        // target-invariant.
        let a_fe =
            Fe::from_hex("0123456789abcdef0123456789abcdef0123456789abcdef01234567").unwrap();
        let b_fe =
            Fe::from_hex("0fedcba9876543210fedcba9876543210fedcba9876543210fedcba9").unwrap();
        let run = |target: &'static TargetSpec| {
            let mut f = ModeledField::with_target(Tier::Asm, target);
            let a = f.alloc_init(a_fe);
            let b = f.alloc_init(b_fe);
            let z = f.alloc();
            let before = f.machine().cycles();
            f.mul(z, a, b);
            (f.load(z), f.machine().cycles() - before)
        };
        let (z_m0p, cycles_m0p) = run(m0plus::target::cortex_m0plus());
        let (z_m0, cycles_m0) = run(m0plus::target::cortex_m0());
        assert_eq!(z_m0p, z_m0, "result must be target-invariant");
        let rows = recost_rows();
        let find = |t: &str| {
            rows.iter()
                .find(|r| r.target == t && r.kernel == "mul")
                .expect("mul row")
                .cycles
        };
        assert_eq!(find("cortex-m0plus"), cycles_m0p);
        assert_eq!(find("cortex-m0"), cycles_m0);
    }
}
