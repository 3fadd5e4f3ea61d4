//! Emits the paper's assembly kernels as genuine Cortex-M0+ (Thumb)
//! machine code via `m0plus::fault::RecordedKernel::capture`, reporting
//! flash footprint and the leading disassembly —
//! the code-size side of the fully-unrolled design that the cycle
//! tables don't show.
//!
//! Run: `cargo run --release -p bench --bin kernel_code`

use bench::workloads::element;
use gf2m::modeled::{ModeledField, Tier};
use m0plus::{Instr, RecordedKernel};

fn main() {
    for (name, tier) in [
        ("LD fixed registers (asm)", Tier::Asm),
        ("LD fixed registers (C)", Tier::C),
    ] {
        let mut f = ModeledField::new(tier);
        let (a, b, z) = (
            f.alloc_init(element(1)),
            f.alloc_init(element(2)),
            f.alloc(),
        );
        let (kernel, ()) = RecordedKernel::capture(&mut f, |f| f.mul(z, a, b));
        report(name, &kernel);
    }
    // The squaring kernel.
    let mut f = ModeledField::new(Tier::Asm);
    let (a, z) = (f.alloc_init(element(3)), f.alloc());
    let (kernel, ()) = RecordedKernel::capture(&mut f, |f| f.sqr(z, a));
    report("table squaring (asm)", &kernel);
}

fn report(name: &str, kernel: &RecordedKernel) {
    let program = kernel.program();
    println!("=== {name} ===");
    println!("instructions executed: {}", kernel.trace_len());
    println!(
        "machine code: {} halfwords + {} literal-pool words = {} bytes of flash",
        program.code.len(),
        program.pool.len(),
        program.size_bytes()
    );
    println!("  (single linear pass; the real build reuses the 8x-unrolled j-blocks,");
    println!("  so resident flash ~= one j-block x 8)");
    println!("first 12 instructions:");
    let mut offset = 0;
    for _ in 0..12 {
        if offset >= program.code.len() {
            break;
        }
        let (instr, used) = Instr::decode(&program.code[offset..])
            .unwrap_or_else(|| panic!("undecodable emission at halfword {offset}"));
        let hex: String = program.code[offset..offset + used]
            .iter()
            .map(|h| format!("{h:04x} "))
            .collect();
        println!("  {hex:<12} {instr}");
        offset += used;
    }
    println!();
}
