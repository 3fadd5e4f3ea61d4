//! The sect233k1 (NIST K-233) Koblitz curve layer of the DAC'14
//! reproduction.
//!
//! Everything the paper's point multiplication needs, built from
//! scratch on top of the [`gf2m`] field:
//!
//! * [`curve`] — curve constants and affine arithmetic (the reference
//!   group law);
//! * [`projective`] — López-Dahab projective coordinates: doubling,
//!   mixed addition and the Frobenius map (the coordinate system of
//!   §4.2);
//! * [`int`] — a small signed bignum for scalars and the recoding
//!   oracle;
//! * [`tnaf`] — τ-adic NAF machinery: Solinas partial reduction
//!   (`partmod δ`), plain TNAF and width-w TNAF digit generation, and
//!   the α_u representatives (computed, not tabulated), on fixed-width
//!   integers with the `Int` pipeline as oracle;
//! * [`mul`] — point multiplication: wTNAF random-point kP (w = 4),
//!   fixed-point kG (the paper's w = 6 precomputed table, which the
//!   modeled tier keeps; on the host a τ-adic comb of eight
//!   Frobenius-shifted w = 8 strips) and the double multiply, all on
//!   the host through one τ-adic Horner evaluator over (digit lane,
//!   table) pairs, plus the Montgomery-ladder variant the paper's §5
//!   proposes as future work;
//! * [`cache`] — a bounded LRU of wTNAF precomputation tables so
//!   repeated kP against the same base point skips the table build;
//! * [`scalar`] — arithmetic modulo the group order (for ECDH/ECDSA);
//! * [`modeled`] — the same point multiplication driven through
//!   [`gf2m::modeled::ModeledField`], with every cycle attributed to the
//!   paper's Table-7 categories.
//!
//! # Example
//!
//! ```
//! use koblitz::{curve::generator, int::Int, mul};
//!
//! let k = Int::from_hex("123456789abcdef123456789abcdef")?;
//! let slow = generator().mul_binary(&k);
//! let fast = mul::mul_wtnaf(&generator(), &k, 4);
//! assert_eq!(slow, fast);
//! # Ok::<(), koblitz::int::ParseIntError>(())
//! ```

pub mod cache;
pub mod curve;
mod formulas;
pub mod int;
pub mod modeled;
pub mod mul;
pub mod projective;
pub mod scalar;
pub mod tnaf;

pub use curve::{generator, order, Affine};
pub use int::Int;
pub use projective::{batch_to_affine, LdPoint};
pub use scalar::{Scalar, U256};

/// Field extension degree m = 233 (re-exported for recoding bounds).
pub const fn curve_m() -> usize {
    gf2m::M
}
