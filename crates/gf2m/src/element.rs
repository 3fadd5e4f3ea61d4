//! The field element type [`Fe`].

// In characteristic 2 addition IS xor and subtraction IS addition, and
// Fe::mul is deliberately the inherent face of ops::Mul — silence the
// operator-surprise lints that assume integer semantics.
#![allow(clippy::suspicious_arithmetic_impl, clippy::suspicious_op_assign_impl)]
#![allow(clippy::should_implement_trait)]

use crate::{inv, linear, mul, reduce, sqr, Clmul, N, TOP_MASK};
use std::fmt;
use std::ops::{Add, AddAssign, Mul};

/// An element of F₂²³³: a binary polynomial of degree ≤ 232 stored as
/// eight little-endian 32-bit words.
///
/// Addition in a binary field is XOR (and is its own inverse), so `+`
/// doubles as subtraction. Multiplication, squaring and inversion run
/// on the host's carry-less multiply ([`Clmul`]) when the CPU has it,
/// and on the paper tier — *López-Dahab with fixed registers*, the
/// spread-table square and the EEA — otherwise; both give the same
/// values.
///
/// ```
/// use gf2m::Fe;
/// let a = Fe::from_words_reduced([1, 2, 3, 4, 5, 6, 7, 8]);
/// assert_eq!(a + a, Fe::ZERO); // characteristic 2
/// assert_eq!(a * Fe::ONE, a);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Fe(pub(crate) [u32; N]);

/// Error parsing a hexadecimal field element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseFeError {
    /// A character outside `[0-9a-fA-F]` was found.
    InvalidDigit(char),
    /// The value needs more than 233 bits.
    TooLarge,
    /// The string was empty.
    Empty,
}

impl fmt::Display for ParseFeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseFeError::InvalidDigit(c) => write!(f, "invalid hex digit {c:?}"),
            ParseFeError::TooLarge => f.write_str("value exceeds 233 bits"),
            ParseFeError::Empty => f.write_str("empty string"),
        }
    }
}

impl std::error::Error for ParseFeError {}

impl Fe {
    /// The additive identity.
    pub const ZERO: Fe = Fe([0; N]);
    /// The multiplicative identity.
    pub const ONE: Fe = Fe([1, 0, 0, 0, 0, 0, 0, 0]);

    /// Constructs an element from its words, masking away bits ≥ 233.
    ///
    /// ```
    /// use gf2m::Fe;
    /// let e = Fe::from_words_reduced([0, 0, 0, 0, 0, 0, 0, u32::MAX]);
    /// assert_eq!(e.words()[7], 0x1FF);
    /// ```
    pub fn from_words_reduced(mut words: [u32; N]) -> Fe {
        words[N - 1] &= TOP_MASK;
        Fe(words)
    }

    /// Constructs an element from exactly-canonical words.
    ///
    /// # Errors
    ///
    /// Returns `Err(ParseFeError::TooLarge)` if any bit ≥ 233 is set.
    pub fn try_from_words(words: [u32; N]) -> Result<Fe, ParseFeError> {
        if words[N - 1] & !TOP_MASK != 0 {
            return Err(ParseFeError::TooLarge);
        }
        Ok(Fe(words))
    }

    /// The element's words, little-endian.
    pub fn words(&self) -> &[u32; N] {
        &self.0
    }

    /// Consumes the element and returns its words.
    pub fn into_words(self) -> [u32; N] {
        self.0
    }

    /// Parses a big-endian hexadecimal string (with or without `0x`).
    ///
    /// # Errors
    ///
    /// Returns an error for empty strings, non-hex digits, or values of
    /// 234 bits or more.
    pub fn from_hex(s: &str) -> Result<Fe, ParseFeError> {
        let s = s
            .strip_prefix("0x")
            .or_else(|| s.strip_prefix("0X"))
            .unwrap_or(s);
        if s.is_empty() {
            return Err(ParseFeError::Empty);
        }
        let mut words = [0u32; N];
        let mut nibbles = 0usize;
        for c in s.chars() {
            let d = c.to_digit(16).ok_or(ParseFeError::InvalidDigit(c))?;
            // Shift the whole value left 4 bits and insert.
            let mut carry = d;
            for w in words.iter_mut() {
                let new_carry = *w >> 28;
                *w = (*w << 4) | carry;
                carry = new_carry;
            }
            if carry != 0 {
                return Err(ParseFeError::TooLarge);
            }
            nibbles += 1;
            if nibbles > 64 {
                return Err(ParseFeError::TooLarge);
            }
        }
        Fe::try_from_words(words)
    }

    /// Serialises to 30 big-endian bytes (⌈233/8⌉ = 30).
    pub fn to_be_bytes(self) -> [u8; 30] {
        let mut out = [0u8; 30];
        // Bits 0..240 of the value; bytes big-endian.
        for (i, b) in out.iter_mut().enumerate() {
            let bit = (29 - i) * 8;
            let word = bit / 32;
            let off = bit % 32;
            let mut v = self.0[word] >> off;
            if off > 24 && word + 1 < N {
                v |= self.0[word + 1] << (32 - off);
            }
            *b = v as u8;
        }
        out
    }

    /// Deserialises from 30 big-endian bytes, masking bits ≥ 233.
    pub fn from_be_bytes(bytes: &[u8; 30]) -> Fe {
        let mut words = [0u32; N];
        for (i, &b) in bytes.iter().rev().enumerate() {
            let bit = i * 8;
            words[bit / 32] |= (b as u32) << (bit % 32);
        }
        Fe::from_words_reduced(words)
    }

    /// Whether the element is zero.
    pub fn is_zero(&self) -> bool {
        self.0 == [0; N]
    }

    /// Bit `i` of the polynomial (coefficient of zⁱ).
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ 256`.
    pub fn bit(&self, i: usize) -> bool {
        (self.0[i / 32] >> (i % 32)) & 1 == 1
    }

    /// Degree of the polynomial, or `None` for the zero polynomial.
    pub fn degree(&self) -> Option<usize> {
        for i in (0..N).rev() {
            if self.0[i] != 0 {
                return Some(i * 32 + 31 - self.0[i].leading_zeros() as usize);
            }
        }
        None
    }

    /// Field multiplication: the carry-less-multiply kernel ([`Clmul`])
    /// where the CPU has one, the paper's *LD with fixed registers*
    /// ([`mul::mul_ld_fixed`]) otherwise. The other multipliers live in
    /// [`crate::mul`] and all agree.
    #[inline]
    pub fn mul(self, other: Fe) -> Fe {
        match Clmul::detect() {
            Some(k) => k.mul(self, other),
            None => mul::mul_ld_fixed(self, other),
        }
    }

    /// Field squaring: one carry-less square per 64-bit limb where the
    /// CPU has [`Clmul`], otherwise the paper's 256-entry spread table
    /// with interleaved reduction ([`sqr::square`], §3.2.4).
    #[inline]
    pub fn square(self) -> Fe {
        match Clmul::detect() {
            Some(k) => k.square(self),
            None => sqr::square(self),
        }
    }

    /// Repeated squaring: `self^(2^k)`, as one chain.
    pub fn square_n(self, k: usize) -> Fe {
        match Clmul::detect() {
            Some(host) => host.square_n(self, k),
            None => square_n_with(self, k, sqr::square),
        }
    }

    /// `self^(2^k)` for a **public** `self`: for k in
    /// [`linear::SQUARE_N_MAPS`] (the comb strips' τ³⁰ and the long
    /// blocks of [`Fe::invert_public`]) one lookup per four-bit chunk in
    /// a [`linear::LinearMap`], built on first use; [`Fe::square_n`]
    /// otherwise. The lookups read a table at addresses that depend on
    /// `self`, so a secret input must take [`Fe::square_n`].
    pub fn square_n_public(self, k: usize) -> Fe {
        match linear::square_n(k) {
            Some(map) => map.apply(self),
            None => self.square_n(k),
        }
    }

    /// Multiplicative inverse, or `None` for zero. Where the CPU has
    /// [`Clmul`] this is Itoh–Tsujii on the carry-less kernels
    /// (10 M + 232 S in one call); otherwise it is the paper's Extended
    /// Euclidean Algorithm ([`inv::invert`], §3.2.3), which also stays
    /// the modeled inversion.
    pub fn invert(self) -> Option<Fe> {
        match Clmul::detect() {
            Some(k) => k.invert(self),
            None => inv::invert(self),
        }
    }

    /// Multiplicative inverse of a **public** element, or `None` for
    /// zero: the Itoh–Tsujii chain with its four long squaring blocks
    /// (k = 14, 29, 58, 116) applied as [`linear::LinearMap`]s by
    /// [`Fe::square_n_public`]. The map lookups read a table at
    /// addresses that depend on `self`, so a secret input must take
    /// [`Fe::invert`].
    ///
    /// ```
    /// use gf2m::Fe;
    /// let a = Fe::from_hex("123456789abcdef")?;
    /// assert_eq!(a.invert_public(), a.invert());
    /// assert_eq!(Fe::ZERO.invert_public(), None);
    /// # Ok::<(), gf2m::ParseFeError>(())
    /// ```
    pub fn invert_public(self) -> Option<Fe> {
        if self.is_zero() {
            return None;
        }
        Some(inv::itoh_tsujii_chain(self, Fe::square_n_public, |a, b| {
            a * b
        }))
    }

    /// The trace Tr(x) = Σ x^(2^i) ∈ {0, 1}, used when solving
    /// quadratics (point decompression, the subgroup check).
    ///
    /// The trace is linear, so Tr(x) is the xor of Tr(z^i) over the set
    /// coefficients; for z^233 + z^74 + 1 only z^0 and z^159 have trace
    /// one, which makes it two bit reads.
    pub fn trace(self) -> u32 {
        (self.0[0] ^ (self.0[4] >> 31)) & 1
    }

    /// The square root √x = x^(2^(m−1)) — squaring is a bijection in
    /// F₂^m, so every element has exactly one root.
    ///
    /// ```
    /// use gf2m::Fe;
    /// let a = Fe::from_hex("abcdef12345")?;
    /// assert_eq!(a.sqrt().square(), a);
    /// # Ok::<(), gf2m::ParseFeError>(())
    /// ```
    pub fn sqrt(self) -> Fe {
        self.square_n(crate::M - 1)
    }

    /// The half-trace H(x) = Σ x^(2^(2i)) for odd m; H(x) solves
    /// λ² + λ = x whenever Tr(x) = 0.
    ///
    /// Applied as a [`linear::LinearMap`] (59 four-bit chunk lookups)
    /// built on first use from the 232-squaring chain. The lookups read
    /// a table at addresses that depend on `self`, so it takes **public
    /// values only**: its callers decompress and subgroup-check points
    /// received from outside.
    pub fn half_trace(self) -> Fe {
        linear::half_trace().apply(self)
    }

    /// Reduces a 16-word polynomial product into the field.
    pub fn from_product(product: [u32; 2 * N]) -> Fe {
        reduce::reduce(product)
    }
}

/// The element as four little-endian 64-bit limbs (the host tier's and
/// the linear maps' view of the `[u32; 8]` storage).
#[inline(always)]
pub(crate) fn limbs(a: Fe) -> [u64; 4] {
    core::array::from_fn(|i| u64::from(a.0[2 * i]) | u64::from(a.0[2 * i + 1]) << 32)
}

/// The inverse of [`limbs`].
#[inline(always)]
pub(crate) fn from_limbs(l: [u64; 4]) -> Fe {
    Fe(core::array::from_fn(|i| {
        (l[i / 2] >> (32 * (i % 2))) as u32
    }))
}

/// `x^(2^k)` by `k` applications of `square`; generic over the element
/// representation so the paper tier and the carry-less kernels share it.
#[inline(always)]
pub(crate) fn square_n_with<T>(mut x: T, k: usize, square: impl Fn(T) -> T) -> T {
    for _ in 0..k {
        x = square(x);
    }
    x
}

/// The half-trace Σ x^(2^(2i)), i = 0..=(m − 1)/2, from a squaring and
/// an addition: the chain [`Fe::half_trace`]'s map is built from, and
/// the tests' oracle.
#[inline(always)]
pub(crate) fn half_trace_with<T: Copy>(
    x: T,
    square: impl Fn(T) -> T,
    add: impl Fn(T, T) -> T,
) -> T {
    let mut t = x;
    let mut acc = x;
    for _ in 0..(crate::M - 1) / 2 {
        t = square(square(t));
        acc = add(acc, t);
    }
    acc
}

impl Add for Fe {
    type Output = Fe;

    /// Polynomial addition = XOR. Also serves as subtraction.
    fn add(self, rhs: Fe) -> Fe {
        let mut out = [0u32; N];
        for (o, (a, b)) in out.iter_mut().zip(self.0.iter().zip(rhs.0.iter())) {
            *o = a ^ b;
        }
        Fe(out)
    }
}

impl AddAssign for Fe {
    fn add_assign(&mut self, rhs: Fe) {
        for i in 0..N {
            self.0[i] ^= rhs.0[i];
        }
    }
}

impl Mul for Fe {
    type Output = Fe;

    fn mul(self, rhs: Fe) -> Fe {
        Fe::mul(self, rhs)
    }
}

impl fmt::LowerHex for Fe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut started = false;
        for i in (0..N).rev() {
            if started {
                write!(f, "{:08x}", self.0[i])?;
            } else if self.0[i] != 0 || i == 0 {
                write!(f, "{:x}", self.0[i])?;
                started = true;
            }
        }
        Ok(())
    }
}

impl fmt::Display for Fe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{self:x}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_one() {
        assert!(Fe::ZERO.is_zero());
        assert!(!Fe::ONE.is_zero());
        assert_eq!(Fe::ONE.degree(), Some(0));
        assert_eq!(Fe::ZERO.degree(), None);
    }

    #[test]
    fn addition_is_xor_and_self_inverse() {
        let a = Fe::from_words_reduced([0xAAAA_AAAA; N]);
        let b = Fe::from_words_reduced([0x5555_5555; N]);
        let c = a + b;
        assert_eq!(c.words()[0], 0xFFFF_FFFF);
        assert_eq!(c + b, a);
        assert_eq!(a + a, Fe::ZERO);
    }

    #[test]
    fn from_words_reduced_masks_top() {
        let e = Fe::from_words_reduced([0, 0, 0, 0, 0, 0, 0, 0xFFFF_FFFF]);
        assert_eq!(e.words()[7], TOP_MASK);
        assert_eq!(e.degree(), Some(232));
    }

    #[test]
    fn try_from_words_validates() {
        assert!(Fe::try_from_words([0, 0, 0, 0, 0, 0, 0, 0x200]).is_err());
        assert!(Fe::try_from_words([0, 0, 0, 0, 0, 0, 0, 0x1FF]).is_ok());
    }

    #[test]
    fn hex_roundtrip() {
        let s = "17232ba853a7e731af129f22ff4149563a419c26bf50a4c9d6eefad6126";
        let e = Fe::from_hex(s).unwrap();
        assert_eq!(format!("{e:x}"), s);
        assert_eq!(Fe::from_hex(&format!("0x{s}")).unwrap(), e);
    }

    #[test]
    fn hex_errors() {
        assert_eq!(Fe::from_hex(""), Err(ParseFeError::Empty));
        assert_eq!(Fe::from_hex("xyz"), Err(ParseFeError::InvalidDigit('x')));
        // 2^233 needs 234 bits.
        let too_big = format!("2{}", "0".repeat(58));
        assert_eq!(Fe::from_hex(&too_big), Err(ParseFeError::TooLarge));
        // 65 nibbles.
        assert_eq!(Fe::from_hex(&"1".repeat(65)), Err(ParseFeError::TooLarge));
    }

    #[test]
    fn byte_roundtrip() {
        let e =
            Fe::from_hex("1db537dece819b7f70f555a67c427a8cd9bf18aeb9b56e0c11056fae6a3").unwrap();
        let bytes = e.to_be_bytes();
        assert_eq!(Fe::from_be_bytes(&bytes), e);
        // One is the last byte.
        let one = Fe::ONE.to_be_bytes();
        assert_eq!(one[29], 1);
        assert!(one[..29].iter().all(|&b| b == 0));
    }

    #[test]
    fn bit_and_degree() {
        let e = Fe::from_hex("100000000").unwrap(); // z^32
        assert!(e.bit(32));
        assert!(!e.bit(31));
        assert_eq!(e.degree(), Some(32));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Fe::ONE), "0x1");
        assert_eq!(format!("{:x}", Fe::ZERO), "0");
        let e = Fe::from_hex("a0000000b").unwrap();
        assert_eq!(format!("{e:x}"), "a0000000b");
    }

    #[test]
    fn trace_of_one_is_one_for_odd_m() {
        // Tr(1) = m mod 2 = 1 for m = 233.
        assert_eq!(Fe::ONE.trace(), 1);
        assert_eq!(Fe::ZERO.trace(), 0);
    }

    /// The definition Tr(x) = x + x² + x⁴ + … + x^(2^232), one squaring
    /// per term: the oracle for the two-bit [`Fe::trace`].
    fn frobenius_sum_trace(x: Fe) -> u32 {
        let mut t = x;
        let mut acc = x;
        for _ in 1..crate::M {
            t = t.square();
            acc += t;
        }
        assert!(acc == Fe::ZERO || acc == Fe::ONE, "trace lies in F_2");
        acc.0[0] & 1
    }

    #[test]
    fn trace_matches_frobenius_sum() {
        let mut trace_one = Vec::new();
        for i in 0..crate::M {
            let mut words = [0u32; N];
            words[i / 32] = 1 << (i % 32);
            let z_i = Fe(words);
            assert_eq!(z_i.trace(), frobenius_sum_trace(z_i), "z^{i}");
            if z_i.trace() == 1 {
                trace_one.push(i);
            }
        }
        assert_eq!(trace_one, [0, 159]);
        let mut rng = prng::SplitMix64::new(1);
        for case in 0..10_000 {
            let mut words = [0u32; N];
            rng.fill_u32(&mut words);
            let x = Fe::from_words_reduced(words);
            assert_eq!(x.trace(), frobenius_sum_trace(x), "case {case}: {x}");
        }
    }

    #[test]
    fn trace_is_additive() {
        let a = Fe::from_hex("deadbeefcafe1234").unwrap();
        let b = Fe::from_hex("123456789abcdef0f00d").unwrap();
        assert_eq!((a + b).trace(), a.trace() ^ b.trace());
    }

    #[test]
    fn sqrt_inverts_squaring() {
        let a = Fe::from_hex("deadbeef0123456789abcdef").unwrap();
        assert_eq!(a.square().sqrt(), a);
        assert_eq!(a.sqrt().square(), a);
        assert_eq!(Fe::ZERO.sqrt(), Fe::ZERO);
        assert_eq!(Fe::ONE.sqrt(), Fe::ONE);
    }

    #[test]
    fn sqrt_is_additive() {
        // √ is the inverse Frobenius, hence additive in char 2.
        let a = Fe::from_hex("123456789").unwrap();
        let b = Fe::from_hex("fedcba987").unwrap();
        assert_eq!((a + b).sqrt(), a.sqrt() + b.sqrt());
    }

    #[test]
    fn half_trace_solves_quadratic() {
        // For any x with Tr(x) = 0, H(x)² + H(x) = x.
        let mut x = Fe::from_hex("abcdef0123456789").unwrap();
        if x.trace() == 1 {
            x += Fe::ONE; // Tr(x+1) = Tr(x) + 1 = 0
        }
        let h = x.half_trace();
        assert_eq!(h.square() + h, x);
    }
}
