//! Arithmetic modulo the group order n (the scalar field of ECDH/ECDSA).
//!
//! # Representation
//!
//! A [`Scalar`] is the canonical residue in `[0, n)` held as four
//! little-endian `u64` limbs. n < 2²³², so every value, product and
//! intermediate fits in fixed arrays and no operation allocates. `Eq`,
//! `Hash`, the byte encodings and `Display` all see that canonical
//! value.
//!
//! * **Add, subtract, negate** compute the 256-bit result and apply one
//!   masked correction by n.
//! * **Products** are Montgomery products with R = 2²⁵⁶: a 4×4-limb
//!   schoolbook product, then a word-by-word Montgomery reduction and a
//!   masked final subtraction. [`Scalar::mul`] takes two of them,
//!   abR⁻¹ and then (abR⁻¹)·R²·R⁻¹ = ab, so values never leave the
//!   canonical form.
//! * **Byte inputs** of up to 48 bytes (the 40-byte wide nonce input,
//!   the 32-byte digest, the 30-byte x-coordinate) are reduced the same
//!   way: one Montgomery reduction of the zero-extended value, then one
//!   product by R².
//!
//! # Constant-time inversion
//!
//! [`Scalar::invert`] computes a^(n−2) (Fermat; n is prime) with a
//! fixed 4-bit window in the Montgomery domain. The sequence of
//! squarings and products, and the table entry each product reads,
//! depend only on the public exponent n − 2; the final subtractions are
//! masks, not branches. So its time does not depend on the value being
//! inverted, which matters for the signing nonce. The extended Euclid it
//! replaced branched and looped on the quotients of the secret.
//!
//! # `Int` as the oracle
//!
//! [`Scalar::new`] and [`Scalar::to_int`] convert to and from the
//! arbitrary-precision [`Int`], for set-up, the modeled paths and the
//! oracles, and `Display` prints the `0x…` form `Int` prints. The `scalar_int/scalar_fixed` tier pair of the
//! differential harness checks every operation here against `Int`:
//! [`Int::mod_positive`] for the ring operations and reductions, and the
//! extended Euclid [`Int::mod_inverse`] for the inversion.

use crate::curve::order;
use crate::int::Int;
use std::fmt;

/// The group order n, little-endian.
const N: [u64; 4] = [
    0x6efb_1ad5_f173_abdf,
    0x0006_9d5b_b915_bcd4,
    0,
    0x80_0000_0000,
];

/// −n⁻¹ mod 2⁶⁴, the Montgomery reduction factor (Newton's iteration
/// doubles the correct low bits each step: 1 → 64 in six).
const N0_INV: u64 = {
    let mut inv = 1u64;
    let mut i = 0;
    while i < 6 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(N[0].wrapping_mul(inv)));
        i += 1;
    }
    inv.wrapping_neg()
};

/// 2^k mod n, by k modular doublings (compile time only).
const fn pow2_mod_n(k: u32) -> [u64; 4] {
    let mut v = [1u64, 0, 0, 0];
    let mut i = 0;
    while i < k {
        // v < n < 2²³², so 2v does not overflow the top limb.
        let mut d = [0u64; 4];
        let mut j = 0;
        while j < 4 {
            d[j] = (v[j] << 1) | if j > 0 { v[j - 1] >> 63 } else { 0 };
            j += 1;
        }
        v = if geq(&d, &N) { sub_limbs(&d, &N).0 } else { d };
        i += 1;
    }
    v
}

/// R mod n: one in the Montgomery domain.
const R1: [u64; 4] = pow2_mod_n(256);

/// R² mod n: multiplying by it in Montgomery form enters the domain.
const R2: [u64; 4] = pow2_mod_n(512);

/// The inversion exponent n − 2 as 58 four-bit windows, most
/// significant first.
const INV_WINDOWS: [u8; 58] = {
    let e = sub_limbs(&N, &[2, 0, 0, 0]).0;
    let mut out = [0u8; 58];
    let mut i = 0;
    while i < 58 {
        let bit = 4 * (57 - i);
        out[i] = ((e[bit / 64] >> (bit % 64)) & 0xF) as u8;
        i += 1;
    }
    out
};

/// a ≥ b, compile-time helper for the constants.
const fn geq(a: &[u64; 4], b: &[u64; 4]) -> bool {
    let mut i = 4;
    while i > 0 {
        i -= 1;
        if a[i] != b[i] {
            return a[i] > b[i];
        }
    }
    true
}

/// a + b + carry, and the carry out.
#[inline(always)]
const fn adc(a: u64, b: u64, carry: u64) -> (u64, u64) {
    let t = a as u128 + b as u128 + carry as u128;
    (t as u64, (t >> 64) as u64)
}

/// a − b − borrow, and the borrow out (0 or 1).
#[inline(always)]
const fn sbb(a: u64, b: u64, borrow: u64) -> (u64, u64) {
    let t = (a as u128).wrapping_sub(b as u128 + borrow as u128);
    (t as u64, (t >> 127) as u64)
}

/// a + b·c + carry, and the high word.
#[inline(always)]
fn mac(a: u64, b: u64, c: u64, carry: u64) -> (u64, u64) {
    let t = a as u128 + b as u128 * c as u128 + carry as u128;
    (t as u64, (t >> 64) as u64)
}

/// a − b mod 2²⁵⁶, and the borrow out.
const fn sub_limbs(a: &[u64; 4], b: &[u64; 4]) -> ([u64; 4], u64) {
    let mut out = [0u64; 4];
    let mut borrow = 0;
    let mut i = 0;
    while i < 4 {
        (out[i], borrow) = sbb(a[i], b[i], borrow);
        i += 1;
    }
    (out, borrow)
}

/// `a` where `mask` is all ones, `b` where it is zero.
#[inline(always)]
fn select(mask: u64, a: &[u64; 4], b: &[u64; 4]) -> [u64; 4] {
    std::array::from_fn(|i| (a[i] & mask) | (b[i] & !mask))
}

/// a mod n for a < 2n, without a branch.
#[inline(always)]
fn sub_n_if_ge(a: &[u64; 4]) -> [u64; 4] {
    let (d, borrow) = sub_limbs(a, &N);
    // borrow = 1 exactly when a < n.
    select(borrow.wrapping_neg(), a, &d)
}

/// The full 512-bit product of two 256-bit values.
#[inline(always)]
fn mul_wide(a: &[u64; 4], b: &[u64; 4]) -> [u64; 8] {
    let mut t = [0u64; 8];
    for i in 0..4 {
        let mut carry = 0;
        for j in 0..4 {
            (t[i + j], carry) = mac(t[i + j], a[i], b[j], carry);
        }
        t[i + 4] = carry;
    }
    t
}

/// Montgomery reduction t·R⁻¹ mod n, canonical, for t < n·R.
///
/// Each step adds the multiple m·n that clears the lowest live limb;
/// its carry out of limb i + 4 rides into the next step. The sum stays
/// below t + n·R < 2n·R < 2⁴⁸⁹, so eight limbs hold it and the last
/// carry is zero, and the result (t + Σm·n)/R lies below 2n.
#[inline(always)]
fn redc(mut t: [u64; 8]) -> [u64; 4] {
    let mut high = 0;
    for i in 0..4 {
        let m = t[i].wrapping_mul(N0_INV);
        let mut carry = 0;
        for j in 0..4 {
            (t[i + j], carry) = mac(t[i + j], m, N[j], carry);
        }
        (t[i + 4], high) = adc(t[i + 4], carry, high);
    }
    debug_assert_eq!(high, 0);
    sub_n_if_ge(&[t[4], t[5], t[6], t[7]])
}

/// A big-endian byte string of at most 8·L bytes as L little-endian
/// limbs.
fn limbs_from_be<const L: usize>(bytes: &[u8]) -> [u64; L] {
    let mut out = [0u64; L];
    for (i, &b) in bytes.iter().rev().enumerate() {
        out[i / 8] |= (b as u64) << (8 * (i % 8));
    }
    out
}

/// a·b·R⁻¹ mod n for a, b < n.
#[inline(always)]
fn mont_mul(a: &[u64; 4], b: &[u64; 4]) -> [u64; 4] {
    redc(mul_wide(a, b))
}

/// An element of ℤ/nℤ for the sect233k1 group order n, kept canonical
/// in `[0, n)` as four little-endian limbs (see the module docs).
///
/// ```
/// use koblitz::{Int, Scalar};
/// let a = Scalar::new(Int::from(5i64));
/// let inv = a.invert().expect("5 is invertible");
/// assert_eq!(a.mul(&inv), Scalar::one());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Scalar([u64; 4]);

impl Scalar {
    /// Zero.
    pub const fn zero() -> Scalar {
        Scalar([0; 4])
    }

    /// One.
    pub const fn one() -> Scalar {
        Scalar([1, 0, 0, 0])
    }

    /// Reduces any integer into the scalar field (on `Int`, for set-up
    /// and the oracles).
    pub fn new(v: Int) -> Scalar {
        Scalar(U256::from(&v.mod_positive(&order())).0)
    }

    /// Reduces a big-endian value of up to 48 bytes mod n at fixed
    /// width: the 32-byte message digest, the 30-byte x-coordinate and
    /// the 40-byte wide input of [`Scalar::from_wide_bytes`].
    pub fn reduce_be_bytes<const LEN: usize>(bytes: &[u8; LEN]) -> Scalar {
        const { assert!(LEN <= 48, "reduce_be_bytes takes at most 48 bytes") };
        // t < 2³⁸⁴ < n·R: redc gives t·R⁻¹, the product by R² gives t.
        let t = limbs_from_be(bytes);
        Scalar(mont_mul(&redc(t), &R2))
    }

    /// Derives a scalar from 40 uniformly random bytes by reducing the
    /// 320-bit value mod n, which leaves a bias below 2⁻⁶⁴.
    pub fn from_wide_bytes(bytes: &[u8; 40]) -> Scalar {
        Scalar::reduce_be_bytes(bytes)
    }

    /// The canonical value from 30 big-endian bytes, or `None` if it is
    /// not below n.
    pub fn from_canonical_be_bytes(bytes: &[u8; 30]) -> Option<Scalar> {
        let v = limbs_from_be(bytes);
        let (_, borrow) = sub_limbs(&v, &N);
        (borrow == 1).then_some(Scalar(v))
    }

    /// The canonical value as 30 big-endian bytes.
    pub fn to_be_bytes(&self) -> [u8; 30] {
        let mut out = [0u8; 30];
        for (i, byte) in out.iter_mut().rev().enumerate() {
            *byte = (self.0[i / 8] >> (8 * (i % 8))) as u8;
        }
        out
    }

    /// The canonical representative in `[0, n)`.
    pub fn to_int(&self) -> Int {
        let limbs = self.0.iter().flat_map(|&l| [l as u32, (l >> 32) as u32]);
        Int::from_limbs(false, limbs.collect())
    }

    /// Whether this is zero.
    pub fn is_zero(&self) -> bool {
        self.0 == [0; 4]
    }

    /// Addition mod n.
    #[must_use]
    pub fn add(&self, other: &Scalar) -> Scalar {
        // Both are below 2²³², so the sum cannot carry out of 256 bits.
        let mut sum = [0u64; 4];
        let mut carry = 0;
        for (i, s) in sum.iter_mut().enumerate() {
            (*s, carry) = adc(self.0[i], other.0[i], carry);
        }
        Scalar(sub_n_if_ge(&sum))
    }

    /// Subtraction mod n.
    #[must_use]
    pub fn sub(&self, other: &Scalar) -> Scalar {
        let (d, borrow) = sub_limbs(&self.0, &other.0);
        // On a borrow, d = a − b + 2²⁵⁶; adding n wraps it to a − b + n.
        let n_or_zero = select(borrow.wrapping_neg(), &N, &[0; 4]);
        let mut out = [0u64; 4];
        let mut carry = 0;
        for (i, o) in out.iter_mut().enumerate() {
            (*o, carry) = adc(d[i], n_or_zero[i], carry);
        }
        Scalar(out)
    }

    /// Multiplication mod n.
    #[must_use]
    pub fn mul(&self, other: &Scalar) -> Scalar {
        Scalar(mont_mul(&mont_mul(&self.0, &other.0), &R2))
    }

    /// Negation mod n.
    #[must_use]
    pub fn negated(&self) -> Scalar {
        Scalar::zero().sub(self)
    }

    /// Multiplicative inverse mod n (n is prime), or `None` for zero.
    ///
    /// a^(n−2) with a fixed 4-bit window in the Montgomery domain: 15
    /// table products, 228 squarings and one product per non-zero
    /// window of the public exponent, whatever the value of `self`.
    pub fn invert(&self) -> Option<Scalar> {
        if self.is_zero() {
            return None;
        }
        // table[i] = a^i·R.
        let a = mont_mul(&self.0, &R2);
        let mut table = [R1; 16];
        for i in 1..16 {
            table[i] = mont_mul(&table[i - 1], &a);
        }
        let mut acc = table[INV_WINDOWS[0] as usize];
        for &window in &INV_WINDOWS[1..] {
            for _ in 0..4 {
                acc = mont_mul(&acc, &acc);
            }
            if window != 0 {
                acc = mont_mul(&acc, &table[window as usize]);
            }
        }
        // Leave the Montgomery domain: acc·R⁻¹.
        Some(Scalar(redc([acc[0], acc[1], acc[2], acc[3], 0, 0, 0, 0])))
    }

    /// Inverts every element with one [`Scalar::invert`] in total
    /// (Montgomery's trick, as in `gf2m::batch`): build the prefix
    /// products p_i = a_1·…·a_i, invert p_N once, then peel the inverses
    /// off the back, inv(a_i) = inv(p_i)·p_{i−1} and
    /// inv(p_{i−1}) = inv(p_i)·a_i. That is 3(N−1) products in place of
    /// N − 1 inversions.
    ///
    /// ```
    /// use koblitz::{Int, Scalar};
    /// let xs = [Scalar::new(Int::from(2i64)), Scalar::new(Int::from(7i64))];
    /// let invs = Scalar::batch_invert(&xs);
    /// assert_eq!(invs[1], xs[1].invert().unwrap());
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if any element is zero.
    pub fn batch_invert(elems: &[Scalar]) -> Vec<Scalar> {
        assert!(
            elems.iter().all(|e| !e.is_zero()),
            "batch_invert of a zero scalar"
        );
        let Some(&first) = elems.first() else {
            return Vec::new();
        };
        let mut prods = Vec::with_capacity(elems.len());
        prods.push(first);
        for e in &elems[1..] {
            let next = prods[prods.len() - 1].mul(e);
            prods.push(next);
        }
        let mut inv_acc = prods[elems.len() - 1]
            .invert()
            .expect("a product of non-zero scalars mod a prime is non-zero");
        let mut out = vec![Scalar::zero(); elems.len()];
        for i in (1..elems.len()).rev() {
            out[i] = inv_acc.mul(&prods[i - 1]);
            inv_acc = inv_acc.mul(&elems[i]);
        }
        out[0] = inv_acc;
        out
    }
}

impl fmt::LowerHex for Scalar {
    /// Lower-case hex without leading zeros, as `Int` prints it.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let top = (1..4).rev().find(|&i| self.0[i] != 0).unwrap_or(0);
        write!(f, "{:x}", self.0[top])?;
        for limb in self.0[..top].iter().rev() {
            write!(f, "{limb:016x}")?;
        }
        Ok(())
    }
}

impl fmt::Display for Scalar {
    /// The hex value with a `0x` prefix, as `Int`'s `Display`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{self:x}")
    }
}

impl fmt::Debug for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Scalar({self})")
    }
}

/// A non-negative integer below 2²⁵⁶ as four little-endian limbs: the
/// one input type of the point multiplications in [`crate::mul`] and of
/// [`crate::tnaf::recode`]. A `&Scalar` converts for free; a `&Int`
/// converts losslessly (no reduction mod n).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct U256(pub [u64; 4]);

impl U256 {
    /// Whether this is zero.
    pub fn is_zero(&self) -> bool {
        self.0 == [0; 4]
    }
}

impl From<&Scalar> for U256 {
    fn from(s: &Scalar) -> U256 {
        U256(s.0)
    }
}

impl From<&Int> for U256 {
    /// # Panics
    ///
    /// Panics if `v` is negative or has more than 256 bits.
    fn from(v: &Int) -> U256 {
        assert!(!v.is_negative(), "scalar must be non-negative");
        assert!(v.bits() <= 256, "scalars are at most 256 bits");
        U256(crate::tnaf::mag_limbs(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: i64) -> Scalar {
        Scalar::new(Int::from(v))
    }

    #[test]
    fn constants_match_the_int_oracle() {
        let n = order();
        assert_eq!(U256::from(&n).0, N);
        let r = Int::one().shl(256);
        assert_eq!(Scalar(R1).to_int(), r.mod_positive(&n));
        assert_eq!(Scalar(R2).to_int(), (&r * &r).mod_positive(&n));
        assert_eq!(N[0].wrapping_mul(N0_INV), u64::MAX, "n·(−n⁻¹) ≡ −1");
        let e = &n - &Int::from(2i64);
        let rebuilt = INV_WINDOWS
            .iter()
            .fold(Int::zero(), |acc, &w| &acc.shl(4) + &Int::from(w as i64));
        assert_eq!(rebuilt, e);
    }

    #[test]
    fn canonical_range() {
        assert_eq!(Scalar::new(order()), Scalar::zero());
        assert_eq!(Scalar::new(&order() + &Int::one()), Scalar::one());
        assert_eq!(
            Scalar::new(Int::from(-1i64)),
            Scalar::new(&order() - &Int::one())
        );
        // (n − 1)² ≡ (−1)² = 1.
        let n_minus_1 = &order() - &Int::one();
        assert_eq!(Scalar::new(&n_minus_1 * &n_minus_1), Scalar::one());
        // A negative 464-bit value reduces to the negation of its
        // magnitude's residue.
        let wide = &Int::one().shl(463) + &Int::from_hex("c0ffee").unwrap();
        assert_eq!(wide.bits(), 464);
        let neg = Scalar::new(wide.negated());
        assert!(neg.to_int() < order());
        assert_eq!(neg, Scalar::new(wide.clone()).negated());
        assert_eq!(neg.add(&Scalar::new(wide)), Scalar::zero());
    }

    #[test]
    fn field_axioms_spotcheck() {
        let a = s(123456789);
        let b = s(987654321);
        let c = s(192837465);
        assert_eq!(a.add(&b), b.add(&a));
        assert_eq!(a.mul(&b), b.mul(&a));
        assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
        assert_eq!(a.add(&a.negated()), Scalar::zero());
        assert_eq!(a.sub(&b).add(&b), a);
    }

    /// The operations against `Int`: 0, 1, n − 1, n − 2, 2²³¹ and
    /// 2²³² − 1 (reduced), then seeded wide values, in every pairing.
    #[test]
    fn fixed_width_matches_the_int_oracle() {
        let n = order();
        let mut inputs: Vec<Int> = vec![
            Int::zero(),
            Int::one(),
            &n - &Int::one(),
            &n - &Int::from(2i64),
            Int::one().shl(231),
            &Int::one().shl(232) - &Int::one(),
        ];
        let mut rng = prng::SplitMix64::new(0x5ca1_a7f1);
        for _ in 0..24 {
            let mut bytes = [0u8; 40];
            rng.fill_bytes(&mut bytes);
            inputs.push(Int::from_be_bytes(&bytes));
        }
        let reduce = |v: &Int| v.mod_positive(&n);
        for x in &inputs {
            let a = Scalar::new(x.clone());
            assert_eq!(a.to_int(), reduce(x));
            assert_eq!(a.negated().to_int(), reduce(&x.negated()), "−{x}");
            let want_inv = reduce(x).mod_inverse(&n);
            assert_eq!(a.invert().map(|i| i.to_int()), want_inv, "1/{x}");
            for y in &inputs {
                let b = Scalar::new(y.clone());
                assert_eq!(a.add(&b).to_int(), reduce(&(x + y)), "{x} + {y}");
                assert_eq!(a.sub(&b).to_int(), reduce(&(x - y)), "{x} − {y}");
                let prod = &reduce(x) * &reduce(y);
                assert_eq!(a.mul(&b).to_int(), reduce(&prod), "{x} · {y}");
            }
        }
    }

    #[test]
    fn byte_reductions_match_the_int_oracle() {
        let n = order();
        let mut rng = prng::SplitMix64::new(0xb17e5);
        for _ in 0..200 {
            let mut bytes = [0u8; 48];
            rng.fill_bytes(&mut bytes);
            let want = |b: &[u8]| Int::from_be_bytes(b).mod_positive(&n);
            let wide: &[u8; 40] = bytes[..40].try_into().unwrap();
            assert_eq!(Scalar::from_wide_bytes(wide).to_int(), want(wide));
            let digest: &[u8; 32] = bytes[..32].try_into().unwrap();
            assert_eq!(Scalar::reduce_be_bytes(digest).to_int(), want(digest));
            let x: &[u8; 30] = bytes[..30].try_into().unwrap();
            assert_eq!(Scalar::reduce_be_bytes(x).to_int(), want(x));
            assert_eq!(Scalar::reduce_be_bytes(&bytes).to_int(), want(&bytes));
        }
    }

    #[test]
    fn canonical_bytes_roundtrip_and_reject_out_of_range() {
        let n = order();
        for v in [Int::zero(), Int::one(), &n - &Int::one()] {
            let a = Scalar::new(v);
            assert_eq!(Scalar::from_canonical_be_bytes(&a.to_be_bytes()), Some(a));
        }
        for v in [n.clone(), &n + &Int::one(), Int::one().shl(232)] {
            // The raw limbs, not reduced: only to encode them.
            let bytes = Scalar(U256::from(&v).0).to_be_bytes();
            assert_eq!(Scalar::from_canonical_be_bytes(&bytes), None, "{v}");
        }
        assert_eq!(Scalar::from_canonical_be_bytes(&[0xFF; 30]), None);
    }

    #[test]
    fn int_conversion_is_lossless_up_to_256_bits() {
        let top = &Int::one().shl(256) - &Int::one();
        assert_eq!(U256::from(&top).0, [u64::MAX; 4]);
        assert_eq!(U256::from(&Int::from(5i64)).0, [5, 0, 0, 0]);
        let n = order();
        assert_eq!(U256::from(&Scalar::new(n.clone())), U256([0; 4]));
        assert_eq!(U256::from(&n).0, N, "no reduction mod n");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn int_conversion_rejects_negative_values() {
        let _ = U256::from(&Int::from(-1i64));
    }

    #[test]
    fn inversion() {
        let n = order();
        let mut inputs: Vec<Scalar> = [1i64, 2, 3, 65537, 0x7FFF_FFFF].map(s).to_vec();
        inputs.extend(
            [
                &n - &Int::one(),
                &n - &Int::from(2i64),
                Int::one().shl(231),
                &Int::one().shl(232) - &Int::one(),
            ]
            .map(Scalar::new),
        );
        let mut rng = prng::SplitMix64::new(0x696E_7665_7273);
        for _ in 0..64 {
            let mut bytes = [0u8; 40];
            rng.fill_bytes(&mut bytes);
            inputs.push(Scalar::from_wide_bytes(&bytes));
        }
        for a in &inputs {
            let inv = a.invert().expect("non-zero");
            assert!(inv.to_int() < n, "inverse of {a} is not canonical");
            assert_eq!(a.mul(&inv), Scalar::one(), "a = {a}");
        }
        assert_eq!(Scalar::zero().invert(), None);
    }

    #[test]
    fn batch_inversion_matches_pointwise() {
        let n = order();
        let mut rng = prng::SplitMix64::new(0xba7c_4e55);
        let mut pool: Vec<Scalar> = [&n - &Int::one(), &n - &Int::from(2i64), Int::one().shl(231)]
            .map(Scalar::new)
            .to_vec();
        pool.extend([1i64, 2].map(s));
        for _ in 0..130 {
            let mut bytes = [0u8; 40];
            rng.fill_bytes(&mut bytes);
            pool.push(Scalar::from_wide_bytes(&bytes));
        }
        for len in [0usize, 1, 2, 16, 130] {
            let batch = &pool[..len];
            let want: Vec<Scalar> = batch.iter().map(|a| a.invert().unwrap()).collect();
            assert_eq!(Scalar::batch_invert(batch), want, "len = {len}");
        }
    }

    #[test]
    #[should_panic(expected = "batch_invert of a zero scalar")]
    fn batch_inversion_rejects_zero() {
        Scalar::batch_invert(&[s(3), Scalar::zero(), s(5)]);
    }

    #[test]
    fn inversion_of_large_scalar() {
        let a = Scalar::new(Int::from_hex("123456789abcdef0fedcba9876543210deadbeef").unwrap());
        assert_eq!(a.mul(&a.invert().unwrap()), Scalar::one());
    }

    /// `hex` (no prefix) as a 40-byte big-endian value, left-padded.
    fn be40(hex: &str) -> [u8; 40] {
        let padded = format!("{hex:0>80}");
        let mut out = [0u8; 40];
        for (i, byte) in out.iter_mut().enumerate() {
            *byte = u8::from_str_radix(&padded[2 * i..2 * i + 2], 16).expect("hex digit");
        }
        out
    }

    const N_HEX: &str = "8000000000000000000000000000069d5bb915bcd46efb1ad5f173abdf";
    const N_MINUS_1: &str = "0x8000000000000000000000000000069d5bb915bcd46efb1ad5f173abde";

    #[test]
    fn wide_bytes_known_answers() {
        let n_minus_1 = &N_MINUS_1[2..];
        let cases = [
            (be40("0"), "0x0"),
            (
                [0xFF; 40],
                "0x7ffffff2c5488dd486572209ca5423b603fb15bcd46efb1ad5f173abde",
            ),
            (be40(N_HEX), "0x0"),
            (be40(n_minus_1), N_MINUS_1),
            (
                be40(&format!("1{}", "0".repeat(58))),
                "0x7ffffffffffffffffffffffffffff962a446ea432b9104e52a0e8c5421",
            ),
        ];
        for (bytes, want) in cases {
            assert_eq!(Scalar::from_wide_bytes(&bytes).to_string(), want);
        }
    }

    #[test]
    fn display_known_answers() {
        assert_eq!(Scalar::zero().to_string(), "0x0");
        assert_eq!(Scalar::one().to_string(), "0x1");
        assert_eq!(Scalar::one().negated().to_string(), N_MINUS_1);
    }

    #[test]
    fn wide_bytes_reduction() {
        let bytes = [0xFFu8; 40];
        let a = Scalar::from_wide_bytes(&bytes);
        assert!(!a.is_zero());
        assert!(a.to_int() < order());
    }
}
