//! Ablation studies of the paper's design choices (DESIGN.md §4):
//!
//! 1. **register budget** — how many accumulator words must be pinned
//!    before the LD-fixed idea pays off (the paper picks 9, the most
//!    the M0+ can spare);
//! 2. **window width** — the wTNAF w for kP (precomputation charged,
//!    paper picks 4) and kG (offline table, paper picks 6);
//! 3. **energy-model sensitivity** — does the binary-vs-prime energy
//!    argument survive a flat per-instruction energy model?
//!
//! Run: `cargo run --release -p bench --bin ablations`

use bench::workloads;
use gf2m::counted;
use gf2m::modeled::Tier;
use koblitz::modeled::ModeledMul;
use m0plus::target::{default_target, M0PLUS_CYCLES};
use m0plus::{InstrClass, TargetSpec};

fn main() {
    register_budget();
    window_width();
    energy_sensitivity();
}

fn register_budget() {
    println!("=== Ablation 1: register budget for LD with fixed registers ===");
    println!("(counted tier, main loop only; paper uses 9 registers = 2968 est. cycles)\n");
    println!("registers  mem ops   est. cycles   vs plain LD");
    let a = workloads::element(41);
    let b = workloads::element(42);
    let base = counted::mul_ld_fixed_with_registers(a, b, 0).main.cycles() as f64;
    for regs in 0..=16 {
        let p = counted::mul_ld_fixed_with_registers(a, b, regs);
        println!(
            "{:>9}  {:>7}   {:>11}   -{:.1}%",
            regs,
            p.main.memory_ops(),
            p.main.cycles(),
            (1.0 - p.main.cycles() as f64 / base) * 100.0
        );
    }
    println!("\nThe curve flattens: the hot centre words (v6..v8) buy the most; beyond");
    println!("~11 registers the remaining words are touched once per iteration.\n");
}

fn window_width() {
    println!("=== Ablation 2: wTNAF window width ===");
    println!("(modeled asm tier; kP charges the table online, kG amortises it offline)\n");
    println!("w    kP cycles     kG-style cycles (offline table)");
    let k = workloads::scalar(77);
    let g = koblitz::generator();
    for w in 2..=6u32 {
        let mut online = ModeledMul::new(Tier::Asm);
        let kp = online.run(&g, &k, w, true).report.cycles;
        // Offline variant: suppress the precomputation charge by
        // measuring the same run and subtracting its precomputation
        // category (the table would live in flash).
        let mut mm = ModeledMul::new(Tier::Asm);
        let run = mm.run(&g, &k, w, true).report;
        let offline = run.cycles - run.category_cycles(m0plus::Category::TnafPrecomputation);
        println!("{w}    {kp:>9}     {offline:>9}");
    }
    println!("\nPaper's choices: w = 4 for kP (larger windows cost more online");
    println!("precomputation than their density saves) and w = 6 for kG (free table).\n");
}

fn energy_sensitivity() {
    println!("=== Ablation 3: energy-model sensitivity (Sec. 3.1 conclusion 2) ===\n");
    let k = workloads::scalar(99);
    // The null hypothesis: the M0+ cycle table with every class at one
    // flat energy, so only cycle counts matter.
    let flat = TargetSpec::new(
        "flat-12.2",
        "M0+ cycle table, uniform 12.2 pJ/cycle",
        M0PLUS_CYCLES,
        [12.2; InstrClass::ALL.len()],
        m0plus::CLOCK_HZ,
    );
    for (name, target) in [
        ("paper Table-3 model", default_target()),
        ("flat 12.2 pJ/cycle", &flat),
    ] {
        let mut mm = ModeledMul::with_target(Tier::Asm, target);
        let kp = mm.kp(&koblitz::generator(), &k);
        println!(
            "{name:<22} kP: {:>8} cycles, {:>6.2} µJ, {:>6.1} µW",
            kp.report.cycles,
            kp.report.energy_uj(),
            kp.report.average_power_uw()
        );
    }
    println!("\nCycle counts are model-independent; the per-instruction energy spread");
    println!("shifts total energy by only a few percent for this XOR/LDR-heavy kernel.");
    println!("The decisive binary-vs-prime gap is the ~5x cycle difference (conclusion 1);");
    println!("conclusion 2 (cheaper instruction mix) adds the final ~1-2%.");
}
