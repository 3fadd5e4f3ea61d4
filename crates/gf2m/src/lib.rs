//! Binary-field arithmetic in F₂²³³ for the DAC'14 ECC reproduction.
//!
//! The field is F₂\[z\]/(f(z)) with the sect233k1 reduction trinomial
//! f(z) = z²³³ + z⁷⁴ + 1. Elements are binary polynomials of degree ≤ 232
//! stored as `n = 8` little-endian 32-bit words — the paper's target is a
//! 32-bit machine and all of its operation-count formulas are in terms of
//! these words.
//!
//! Four tiers implement the same arithmetic:
//!
//! * **host** ([`Clmul`]) — the x86-64 carry-less multiply: Karatsuba
//!   over 64-bit limbs, a shift-based trinomial fold and Itoh–Tsujii
//!   inversion. [`Fe`]'s `mul`, `square`, `invert` and chains run it
//!   whenever the CPU has `PCLMULQDQ`, so it serves the curve layer
//!   and the protocols on such hosts;
//! * **paper** (the [`mul`], [`sqr`], [`reduce`] and [`inv`] modules) —
//!   the paper's algorithms in plain Rust on eight 32-bit words. It is
//!   [`Fe`]'s fallback without the instruction or off x86-64, and the
//!   reference every other tier is checked against;
//! * **counted** ([`counted`]) — a view of the paper tier, not a copy:
//!   its López-Dahab table, accumulate-and-shift and rotating-register
//!   loops and its EEA are each written once, generic over a counting
//!   sink. The paper tier passes a no-op sink; the counted tier passes a
//!   [`Tally`] of every memory read/write, XOR and shift, reproducing the
//!   accounting of the paper's Tables 1–2 (see also [`formulas`] for the
//!   published closed forms);
//! * **modeled** ([`modeled`]) — *virtual assembly* kernels executed on
//!   the [`m0plus::Machine`], one call per Thumb instruction, producing
//!   the cycle and energy measurements of Tables 5–7.
//!
//! Beside the tiers, [`linear`] applies the fixed F₂-linear squaring
//! chains — the half-trace, x^(2^k) for the comb strips' τ³⁰ and the
//! long blocks of an Itoh–Tsujii inversion — as 59 four-bit chunk
//! lookups, the paper's table squaring (§3.2.4) widened to a whole
//! chain. The lookups are input-addressed, so only the public-input
//! methods [`Fe::half_trace`], [`Fe::square_n_public`] and
//! [`Fe::invert_public`] use them; [`Fe::square_n`], [`Fe::invert`]
//! and [`Fe::sqrt`] keep the constant-address chains.
//!
//! The multiplication algorithms compared by the paper are all here:
//! plain López-Dahab (`Method A`), López-Dahab with rotating registers
//! (`Method B`, Aranha et al.), and the paper's contribution, López-Dahab
//! with **fixed registers** (`Method C`).
//!
//! # Example
//!
//! ```
//! use gf2m::Fe;
//!
//! let a = Fe::from_hex("1af129f22ff4149563a419c26bf50a4c9d6eefad6126")?;
//! let b = Fe::from_hex("5a67c427a8cd9bf18aeb9b56e0c11056fae6a3")?;
//! // Field axioms hold:
//! assert_eq!(a * b, b * a);
//! assert_eq!((a * b) * a.square(), a * (b * a.square()));
//! let inv = a.invert().expect("a is non-zero");
//! assert_eq!(a * inv, Fe::ONE);
//! # Ok::<(), gf2m::ParseFeError>(())
//! ```

pub mod batch;
mod clmul;
pub mod counted;
pub mod element;
pub mod formulas;
pub mod generic;
pub mod inv;
pub mod linear;
pub mod modeled;
pub mod mul;
pub mod reduce;
pub mod sqr;

pub use clmul::Clmul;
pub use counted::Tally;
pub use element::{Fe, ParseFeError};

/// Degree of the field extension: F₂²³³.
pub const M: usize = 233;

/// Exponent of the middle term of the reduction trinomial
/// f(z) = z²³³ + z⁷⁴ + 1.
pub const K: usize = 74;

/// Word size of the target platform (the Cortex-M0+ is 32-bit).
pub const W: usize = 32;

/// Number of words per field element: ⌈233 / 32⌉ = 8. The paper's
/// formulas call this `n`.
pub const N: usize = 8;

/// Window width of the López-Dahab multipliers (the paper uses w = 4
/// throughout its multiplication comparison).
pub const LD_WINDOW: usize = 4;

/// Mask of the valid bits in the most significant word
/// (bits 224…232 → 9 bits).
pub const TOP_MASK: u32 = 0x1FF;
