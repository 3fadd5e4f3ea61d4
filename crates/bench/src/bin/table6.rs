//! Regenerates the paper's Table 6.
//!
//! Run: `cargo run --release -p bench --bin table6`

fn main() {
    print!("{}", bench::tables::table6());
}
