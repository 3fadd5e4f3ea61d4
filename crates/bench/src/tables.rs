//! Regenerators for every table and figure of the paper.
//!
//! Each function returns the formatted table as a string with the
//! paper's published values printed next to the values measured live on
//! the cost model, so `cargo run -p bench --bin all` is a one-shot
//! reproduction of the whole evaluation section.

use crate::workloads;
use ecc233::literature;
use ecc233::model;
use gf2m::counted;
use gf2m::formulas::Method;
use gf2m::modeled::{accumulator_residency, Residency, Tier};
use m0plus::{Category, EnergyModel, InstrClass, MeasurementRig, CLOCK_HZ};
use std::fmt::Write as _;

fn header(title: &str) -> String {
    let bar = "=".repeat(title.len());
    format!("{title}\n{bar}\n")
}

/// Table 1: the closed-form operation formulas, with this
/// reproduction's measured (counted-tier) operation counts beside them.
pub fn table1() -> String {
    let mut out = header(
        "Table 1. Estimated required operation formulas for field multiplication in F_2^233",
    );
    out += "Method                         Read          Write         XOR\n";
    out += "A: LD                          16n^2+23n     8n^2+30n      8n^2+30n-7\n";
    out += "B: LD rotating registers       8n^2+39n-8    46n           8n^2+38n-7\n";
    out += "C: LD fixed registers          8n^2+24n+1    31n+1         8n^2+30n-7\n";
    out += "Shifts: 42n-21 for all methods.\n\n";
    out += "Measured main-loop counts from the instrumented multipliers (n = 8;\nour accounting conventions, see gf2m::counted):\n";
    let a = workloads::element(11);
    let b = workloads::element(12);
    for (m, p) in counted::all_methods(a, b) {
        let t = p.main;
        writeln!(
            out,
            "{:<30} R={:<5} W={:<5} X={:<5} S={:<5}",
            m.label(),
            t.reads,
            t.writes,
            t.xors,
            t.shifts
        )
        .expect("write to string");
    }
    out
}

/// Table 2: formulas evaluated at n = 8 plus the paper's cycle estimate,
/// with measured counts and the derived improvement ratios.
pub fn table2() -> String {
    let mut out = header(
        "Table 2. Estimated required operations for field multiplication in F_2^233 (n = 8)",
    );
    out += "                                paper (formulas)                   measured (counted tier)\n";
    out += "Method                         Read  Write XOR   Shift Cycles | Read  Write XOR   Shift Cycles\n";
    let a = workloads::element(21);
    let b = workloads::element(22);
    let measured = counted::all_methods(a, b);
    for (m, p) in &measured {
        let f = m.op_counts(gf2m::N as u64);
        let t = p.main;
        writeln!(
            out,
            "{:<30} {:<5} {:<5} {:<5} {:<5} {:<6} | {:<5} {:<5} {:<5} {:<5} {:<6}",
            m.label(),
            f.reads,
            f.writes,
            f.xors,
            f.shifts,
            f.cycles(),
            t.reads,
            t.writes,
            t.xors,
            t.shifts,
            t.cycles()
        )
        .expect("write to string");
    }
    let fa = Method::A.op_counts(8).cycles() as f64;
    let fb = Method::B.op_counts(8).cycles() as f64;
    let fc = Method::C.op_counts(8).cycles() as f64;
    writeln!(
        out,
        "\nPaper claim: C is {:.0}% faster than B, {:.0}% faster than A (formulas: {:.1}%, {:.1}%).",
        15.0,
        40.0,
        (1.0 - fc / fb) * 100.0,
        (1.0 - fc / fa) * 100.0
    )
    .expect("write to string");
    let ca = measured[0].1.main.cycles() as f64;
    let cb = measured[1].1.main.cycles() as f64;
    let cc = measured[2].1.main.cycles() as f64;
    writeln!(
        out,
        "Measured:   C is {:.1}% faster than B, {:.1}% faster than A.",
        (1.0 - cc / cb) * 100.0,
        (1.0 - cc / ca) * 100.0
    )
    .expect("write to string");
    out
}

/// Table 3: per-instruction energy, re-derived by the simulated
/// measurement rig.
pub fn table3() -> String {
    let mut out = header("Table 3. The energy used per cycle for different instructions (48 MHz)");
    out +=
        "Instruction   paper [pJ]   rig (compensated) [pJ]   rig raw loop [pJ]   loop power [µW]\n";
    let rig = MeasurementRig::default();
    // The paper column is the registry's default target — the same
    // values `m0plus::energy::table3` declares once for the whole tree.
    let target = m0plus::target::default_target();
    let measured = [
        InstrClass::Ldr,
        InstrClass::Lsr,
        InstrClass::Mul,
        InstrClass::Lsl,
        InstrClass::Eor,
        InstrClass::Add,
    ];
    let paper = measured.map(|class| (class, target.pj_per_cycle(class)));
    for (class, pj) in paper {
        let r = rig.measure(class);
        writeln!(
            out,
            "{:<13} {:<12.2} {:<24.2} {:<19.2} {:<10.1}",
            class.mnemonic(),
            pj,
            r.picojoules_per_cycle,
            r.raw_picojoules_per_cycle,
            r.raw_power_uw
        )
        .expect("write to string");
    }
    let spread = m0plus::energy::table3::ADD_PJ / m0plus::energy::table3::LDR_PJ;
    writeln!(
        out,
        "\nSpread ADD/LDR = {:.3} (paper: \"variation of up to 22.5%\"); ADD is the most\nenergy-hungry instruction, favouring XOR/shift-heavy binary-field arithmetic.",
        spread
    )
    .expect("write to string");
    out
}

/// Table 4: point-multiplication timings and energies — literature rows
/// quoted, Cortex-M0+ rows regenerated live from the cost model.
pub fn table4() -> String {
    let mut out = header("Table 4. Timings for point multiplications");
    out += "Platform            Implementation        Curve            [ms]      [µJ]     src\n";
    out += "--- literature rows (quoted) ---\n";
    for r in literature::table4_literature() {
        writeln!(
            out,
            "{:<19} {:<21} {:<16} {:<9.1} {:<8.1} {}{}",
            r.platform,
            r.author,
            r.curve,
            r.time_ms,
            r.energy_uj,
            r.kind.marker(),
            r.source.marker()
        )
        .expect("write to string");
    }
    out +=
        "--- Cortex-M0+ rows: paper (measured on hardware) vs this reproduction (cost model) ---\n";
    let relic = workloads::average_relic(1..3);
    let kg = workloads::average_kg(Tier::Asm, 1..3);
    let kp = workloads::average_kp(Tier::Asm, 1..3);
    let rows = [
        ("Relic kG", 115.7, 69.48, &relic),
        ("Relic kP", 117.1, 70.26, &relic),
        ("This work kG", 39.70, 20.63, &kg),
        ("This work kP", 59.18, 34.16, &kp),
    ];
    for (name, paper_ms, paper_uj, run) in rows {
        writeln!(
            out,
            "{:<19} {:<21} {:<16} {:<9.2} {:<8.2} (paper: {:.2} ms / {:.2} µJ; power {:.1} µW)",
            "Cortex-M0+",
            name,
            "sect233k1",
            run.report.time_ms(),
            run.report.energy_uj(),
            paper_ms,
            paper_uj,
            run.report.average_power_uw()
        )
        .expect("write to string");
    }
    let ratio_kp = relic.report.cycles as f64 / kp.report.cycles as f64;
    let ratio_kg = relic.report.cycles as f64 / kg.report.cycles as f64;
    writeln!(
        out,
        "\nSpeedup vs RELIC: kP ×{:.2} (paper 1.99), kG ×{:.2} (paper 2.98).",
        ratio_kp, ratio_kg
    )
    .expect("write to string");
    let best_other = literature::table4_literature()
        .iter()
        .map(|r| r.energy_uj)
        .fold(f64::INFINITY, f64::min);
    writeln!(
        out,
        "Energy headline: best literature row {:.1} µJ / our kP {:.2} µJ = ×{:.1} (paper claims ≥ {}).",
        best_other,
        kp.report.energy_uj(),
        best_other / kp.report.energy_uj(),
        literature::HEADLINE_ENERGY_FACTOR
    )
    .expect("write to string");

    out += "\nModel estimates for the prime-curve baselines on this core (hand-scheduled\nkernels; the Micro ECC rows above are C, hence slower):\n";
    for (name, limbs) in [("secp192r1", 6usize), ("secp224r1", 7), ("secp256r1", 8)] {
        let cycles = primefield::modeled::point_mul_cycles(limbs);
        let ms = cycles as f64 / CLOCK_HZ as f64 * 1e3;
        let mix = primefield::modeled::field_mul_mix(limbs);
        let epc = model::mix_energy_per_cycle(&mix, &EnergyModel::cortex_m0plus());
        writeln!(
            out,
            "{:<19} {:<21} {:<16} {:<9.1} {:<8.1}",
            "Cortex-M0+ (model)",
            "prime double-and-add",
            name,
            ms,
            cycles as f64 * epc * 1e-6
        )
        .expect("write to string");
    }
    out += "Every prime estimate costs 3-9x our sect233k1 kP — the Sec. 3.1 selection\nargument, visible inside Table 4 itself.\n";
    out
}

/// Table 5: modular multiplication/squaring cycles across platforms;
/// our row measured live, followed by the kernels' flash footprints
/// over a full kP + kG ([`workloads::kernel_flash`], which replays
/// every kernel call from its assembled Thumb-16).
pub fn table5() -> String {
    let mut out = header("Table 5. Average cycle times for modular multiplication and squaring");
    out += "Author                       Platform        word  Sqr    Mul    Field\n";
    for r in literature::table5_literature() {
        writeln!(
            out,
            "{:<28} {:<15} {:<5} {:<6} {:<6} {}",
            r.author,
            r.platform,
            r.word_bits,
            r.sqr_cycles.map_or("-".into(), |c| c.to_string()),
            r.mul_cycles,
            r.field
        )
        .expect("write to string");
    }
    let (sqr, mul_main, _lut, _inv) = workloads::kernel_cycles(Tier::Asm);
    writeln!(
        out,
        "{:<28} {:<15} {:<5} {:<6} {:<6} F_2^233   (paper: Sqr 395 / Mul 3672)",
        "This work (reproduction)", "Cortex-M0+", 32, sqr, mul_main
    )
    .expect("write to string");
    out += "\nKernel flash footprints (assembled fragments, per-kernel maxima over a\nfull kP + kG; the linearised trace — a looped build shares its j-blocks):\n";
    for (name, fp) in workloads::kernel_flash(Tier::Asm) {
        writeln!(
            out,
            "  {:<18} {:>8} B  ({} instrs, {} calls)",
            name, fp.flash_bytes, fp.instructions, fp.calls
        )
        .expect("write to string");
    }

    out += "\nOut-of-sample check: the generalised op-count model vs the cited rows\n";
    out += "(first-order; register pressure and compilers differ per platform):\n";
    out += "platform      field     predicted   cited   ratio\n";
    for r in ecc233::crossplatform::predict_table5() {
        writeln!(
            out,
            "{:<13} F_2^{:<5} {:>9} {:>7}   {:>5.2}  ({})",
            r.platform,
            r.m_bits,
            r.predicted,
            r.cited,
            r.ratio(),
            r.source
        )
        .expect("write to string");
    }
    out
}

/// Table 6: field-arithmetic cycles, C vs assembly, plus kP / kG totals.
/// The `table6_columns_replay_from_thumb` test in [`workloads`] replays
/// every measured column from assembled Thumb-16.
pub fn table6() -> String {
    let mut out = header("Table 6. Average cycle times for field arithmetic algorithms in F_2^233");
    let (sqr_c, mul_c, _lut_c, inv_c) = workloads::kernel_cycles(Tier::C);
    let (sqr_asm, mul_asm, _lut_asm, _) = workloads::kernel_cycles(Tier::Asm);
    let rot_c = workloads::rotating_c_cycles();
    let kp_c = workloads::average_kp(Tier::C, 5..6);
    let kg_c = workloads::average_kg(Tier::C, 5..6);
    let kp_asm = workloads::average_kp(Tier::Asm, 5..6);
    let kg_asm = workloads::average_kg(Tier::Asm, 5..6);
    out += "Operation                     C (paper)      C (ours)    Asm (paper)   Asm (ours)\n";
    type Table6Row = (&'static str, Option<u64>, u64, Option<u64>, Option<u64>);
    let rows: [Table6Row; 6] = [
        (
            "Modular squaring",
            Some(419),
            sqr_c,
            Some(395),
            Some(sqr_asm),
        ),
        ("Inversion", Some(141_916), inv_c, None, None),
        ("LD rotating registers", Some(5_592), rot_c, None, None),
        (
            "LD fixed registers",
            Some(5_964),
            mul_c,
            Some(3_672),
            Some(mul_asm),
        ),
        (
            "kP",
            Some(3_516_295),
            kp_c.report.cycles,
            Some(2_761_640),
            Some(kp_asm.report.cycles),
        ),
        (
            "kG",
            Some(2_494_757),
            kg_c.report.cycles,
            Some(1_864_470),
            Some(kg_asm.report.cycles),
        ),
    ];
    for (name, paper_c, ours_c, paper_asm, ours_asm) in rows {
        writeln!(
            out,
            "{:<29} {:<14} {:<11} {:<13} {:<10}",
            name,
            paper_c.map_or("-".into(), |v| v.to_string()),
            ours_c,
            paper_asm.map_or("-".into(), |v| v.to_string()),
            ours_asm.map_or("-".into(), |v| v.to_string()),
        )
        .expect("write to string");
    }
    out += "\n(The paper's kP/kG column under \"C language\" is 3 516 295 / 2 494 757; its\nassembly column is 2 761 640 / 1 864 470 before the final-table adjustments of\nTable 7; our totals include the full Table 7 pipeline.)\n";
    out
}

/// Table 7: accumulated cycles per operation category for kP and kG.
pub fn table7() -> String {
    let mut out = header("Table 7. Total accumulated timings per operation (assembly tier)");
    let kp = workloads::average_kp(Tier::Asm, 7..9);
    let kg = workloads::average_kg(Tier::Asm, 7..9);
    let paper_kp: [(Category, u64); 7] = [
        (Category::TnafRepresentation, 178_135),
        (Category::TnafPrecomputation, 398_387),
        (Category::Multiply, 1_108_890),
        (Category::MultiplyPrecomputation, 249_750),
        (Category::Square, 362_379),
        (Category::Inversion, 139_936),
        (Category::Support, 377_350),
    ];
    let paper_kg: [(Category, u64); 7] = [
        (Category::TnafRepresentation, 185_926),
        (Category::TnafPrecomputation, 0),
        (Category::Multiply, 821_178),
        (Category::MultiplyPrecomputation, 184_950),
        (Category::Square, 342_294),
        (Category::Inversion, 139_656),
        (Category::Support, 376_392),
    ];
    out += "Operation                    kP paper    kP ours     kG paper    kG ours\n";
    for ((cat, pkp), (_, pkg)) in paper_kp.iter().zip(paper_kg.iter()) {
        writeln!(
            out,
            "{:<28} {:<11} {:<11} {:<11} {:<11}",
            cat.label(),
            pkp,
            kp.report.category_cycles(*cat),
            pkg,
            kg.report.category_cycles(*cat)
        )
        .expect("write to string");
    }
    writeln!(
        out,
        "{:<28} {:<11} {:<11} {:<11} {:<11}",
        "Total", 2_814_827u64, kp.report.cycles, 1_864_470u64, kg.report.cycles
    )
    .expect("write to string");
    out
}

/// Figure 1: the LD-with-fixed-registers data flow, rendered from the
/// actual residency map of the assembly kernel.
pub fn figure1() -> String {
    let mut out =
        header("Figure 1. The proposed LD with fixed registers algorithm in F_2^m for n = 8");
    out += "Accumulator vector C (16 words); ## = word in a register, .. = word in memory:\n\n  ";
    for idx in 0..16 {
        out += &format!("C{idx:<2}");
        out += " ";
    }
    out += "\n  ";
    for idx in 0..16 {
        out += match accumulator_residency(idx) {
            Residency::LoRegister => "## ",
            Residency::HiRegister => "#h ",
            Residency::Memory => ".. ",
        };
        out += " ";
    }
    out += "\n\n";
    out += "  (## = lo register r1/r2/r3/r6, #h = hi register r8..r12, .. = stack frame)\n\n";
    out += "  LUT: T[u] = u(z)*y(z), 16 entries x 8 words, generated from y       [memory]\n";
    out += "  x:   scanned 4 bits at a time, nibble j of word k selects T[u]      [memory]\n\n";
    out += "  repeat j = 7 downto 0:\n";
    out += "      for k = 0..7:   u = nibble_j(x[k]);  C[k..k+8] ^= T[u]\n";
    out += "      if j > 0:       C <<= 4   (registers shift in place;\n";
    out += "                                 only the 7 memory words pay loads/stores)\n\n";
    // Count the memory traffic per k the residency map implies.
    let mut per_k = [0u32; 8];
    for (k, slot) in per_k.iter_mut().enumerate() {
        for l in 0..8 {
            if accumulator_residency(k + l) == Residency::Memory {
                *slot += 1;
            }
        }
    }
    out += "  memory-resident accumulator touches per k-step: ";
    for (k, n) in per_k.iter().enumerate() {
        out += &format!("k{k}:{n} ");
    }
    let total: u32 = per_k.iter().sum();
    writeln!(
        out,
        "\n  -> {total} of 64 row-accumulations per j touch memory; the other {} hit registers.",
        64 - total
    )
    .expect("write to string");
    out
}

/// The §3.1 model (not a numbered table in the paper, but the analysis
/// behind its curve choice).
pub fn model_analysis() -> String {
    let mut out = header("Sec. 3.1 model: matching a curve to the architecture");
    out += "Candidate                      mul[cyc]  pJ/cyc   kP est[cyc]  kP est[µJ]  power[µW]\n";
    let rows = model::evaluate_candidates();
    for r in &rows {
        writeln!(
            out,
            "{:<30} {:<9} {:<8.2} {:<12} {:<11.1} {:<9.1}",
            r.candidate.name,
            r.field_mul_cycles,
            r.energy_per_cycle_pj,
            r.point_mul_cycles,
            r.point_mul_energy_uj,
            r.average_power_uw()
        )
        .expect("write to string");
    }
    let c = model::conclusions(&rows);
    writeln!(
        out,
        "\nConclusion (1) Koblitz fastest at comparable security: {}\nConclusion (2) binary mix uses less energy/cycle:       {}",
        c.koblitz_is_fastest, c.binary_uses_less_power
    )
    .expect("write to string");
    out
}

/// Cross-target cost table (a model extrapolation, not a paper table):
/// the recorded field kernels re-costed under every `m0plus::target`
/// registry entry, plus a full kP actually executed under each target.
pub fn cross_targets() -> String {
    let mut out = header("Cross-target costs (cost-model extrapolation; not in the paper)");
    out += "Field kernels recorded once on the default core, re-costed per target\nfrom their per-class instruction counts (exact for a per-class model):\n\n";
    out += "target                  kernel      cycles       energy [nJ]\n";
    let mut last = "";
    for r in ecc233::crossplatform::recost_rows() {
        let shown = if r.target == last { "" } else { r.target };
        last = r.target;
        writeln!(
            out,
            "{:<23} {:<11} {:<12} {:<10.2}",
            shown,
            r.kernel,
            r.cycles,
            r.energy_pj * 1e-3
        )
        .expect("write to string");
    }
    out += "\nFull kP executed under each target model (assembly tier, one scalar):\n\n";
    out += "target                  kP cycles    kP [µJ]   kP [ms]   clock [MHz]\n";
    for spec in m0plus::target::registry() {
        let run = workloads::kp_under_target(Tier::Asm, spec, 1);
        writeln!(
            out,
            "{:<23} {:<12} {:<9.2} {:<9.2} {:<6}",
            spec.name(),
            run.report.cycles,
            run.report.energy_uj(),
            run.report.time_ms(),
            spec.clock_hz() / 1_000_000
        )
        .expect("write to string");
    }
    out += "\n(cortex-m0plus is the paper's platform and the bit-exact baseline; the\nother rows move only the per-class cycle/energy tables, so differences\nisolate architectural assumptions: branch cost on the M0's 3-stage\npipeline, a 32-cycle sequential multiplier, and an M3-class estimate.)\n";
    out
}

/// Headline summary (§4.2.2 and the abstract).
pub fn headline() -> String {
    let mut out = header("Headline results (abstract / Sec. 4.2)");
    let kg = workloads::average_kg(Tier::Asm, 11..13);
    let kp = workloads::average_kp(Tier::Asm, 11..13);
    writeln!(
        out,
        "kP: {} cycles, {:.2} ms @48 MHz, {:.2} µJ, {:.1} µW   (paper: 2 814 827 / 59.18 ms* / 34.16 µJ / 577.2 µW)",
        kp.report.cycles,
        kp.report.time_ms(),
        kp.report.energy_uj(),
        kp.report.average_power_uw()
    )
    .expect("write to string");
    writeln!(
        out,
        "kG: {} cycles, {:.2} ms @48 MHz, {:.2} µJ, {:.1} µW   (paper: 1 864 470 / 39.70 ms* / 20.63 µJ / 519.6 µW)",
        kg.report.cycles,
        kg.report.time_ms(),
        kg.report.energy_uj(),
        kg.report.average_power_uw()
    )
    .expect("write to string");
    writeln!(
        out,
        "(*the paper's ms figures in Table 4 correspond to its cycle counts at 48 MHz;\n  2 814 827 cycles = 58.6 ms, 1 864 470 = 38.8 ms)\n\nClock: {} MHz.",
        CLOCK_HZ / 1_000_000
    )
    .expect("write to string");
    out
}
