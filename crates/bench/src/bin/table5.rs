//! Regenerates the paper's Table 5, with the kernels' flash footprints
//! measured from their assembled Thumb-16 (every kernel call of a full
//! kP + kG is replayed from that machine code and checked).
//!
//! Run: `cargo run --release -p bench --bin table5`

fn main() {
    print!("{}", bench::tables::table5());
}
