//! Signed multi-precision integers for scalar arithmetic and the
//! τ-adic recoding oracle.
//!
//! A small, dependency-free bignum: sign-magnitude with little-endian
//! `u32` limbs. It provides exactly what the Koblitz-curve machinery
//! needs — ring operations, shifts, floor/nearest division, parity and
//! low-bit extraction.
//!
//! It serves set-up (constants, [`crate::Scalar::new`]), the modeled
//! paths and the oracles. The host arithmetic mod n runs on the
//! fixed-width [`crate::Scalar`], checked against `Int` products,
//! [`Int::mod_positive`] and the extended Euclid [`Int::mod_inverse`].
//! τ-adic recoding runs on fixed-width integers; the `Int` pipeline in
//! [`crate::tnaf`] is its oracle. Multiplication is schoolbook and
//! division is word-level (Knuth's Algorithm D), both over u32 limbs
//! with u64 intermediates. None of it is constant-time; the modeled
//! M0+ tier, not this module, carries the paper's cycle and energy
//! figures.

// Sign-magnitude subtraction is addition of the negation — the
// operator-surprise lint assumes two's-complement semantics.
#![allow(clippy::suspicious_arithmetic_impl)]

use std::cmp::Ordering;
use std::fmt;

/// A signed arbitrary-precision integer.
///
/// ```
/// use koblitz::int::Int;
/// let a = Int::from_hex("-ff")?;
/// let b = Int::from(510i64);
/// assert_eq!(&a * &Int::from(-2i64), b);
/// # Ok::<(), koblitz::int::ParseIntError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Int {
    /// True for strictly negative values. Zero is always non-negative.
    neg: bool,
    /// Little-endian magnitude, no trailing zero limbs.
    mag: Vec<u32>,
}

/// Error from [`Int::from_hex`] / [`Int::from_dec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseIntError {
    /// A character outside the digit set was found.
    InvalidDigit(char),
    /// The string was empty (or just a sign).
    Empty,
}

impl fmt::Display for ParseIntError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseIntError::InvalidDigit(c) => write!(f, "invalid digit {c:?}"),
            ParseIntError::Empty => f.write_str("empty integer literal"),
        }
    }
}

impl std::error::Error for ParseIntError {}

impl Int {
    /// Zero.
    pub fn zero() -> Int {
        Int::default()
    }

    /// One.
    pub fn one() -> Int {
        Int::from(1i64)
    }

    /// Whether this is zero.
    pub fn is_zero(&self) -> bool {
        self.mag.is_empty()
    }

    /// Whether this is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.neg
    }

    /// Whether the value is odd.
    pub fn is_odd(&self) -> bool {
        self.mag.first().is_some_and(|&w| w & 1 == 1)
    }

    /// Number of significant bits of the magnitude (0 for zero).
    pub fn bits(&self) -> usize {
        match self.mag.last() {
            None => 0,
            Some(&top) => (self.mag.len() - 1) * 32 + (32 - top.leading_zeros() as usize),
        }
    }

    /// The value's low `w` bits (w ≤ 32) of the magnitude interpreted
    /// *two's-complement-style over the signed value*: returns
    /// `self mod 2^w` in `0..2^w`.
    pub fn low_bits(&self, w: u32) -> u32 {
        assert!(w <= 32);
        let mask = if w == 32 { u32::MAX } else { (1u32 << w) - 1 };
        let low = self.mag.first().copied().unwrap_or(0) & mask;
        if self.neg && low != 0 {
            (mask + 1 - low) & mask
        } else {
            low
        }
    }

    /// Builds from little-endian `u32` limbs and a sign.
    pub fn from_limbs(neg: bool, mut mag: Vec<u32>) -> Int {
        while mag.last() == Some(&0) {
            mag.pop();
        }
        let neg = neg && !mag.is_empty();
        Int { neg, mag }
    }

    /// The little-endian magnitude limbs.
    pub fn limbs(&self) -> &[u32] {
        &self.mag
    }

    /// Parses a (possibly `-`-prefixed, possibly `0x`-prefixed) hex
    /// string.
    ///
    /// # Errors
    ///
    /// Returns an error on empty input or non-hex digits.
    pub fn from_hex(s: &str) -> Result<Int, ParseIntError> {
        let (neg, s) = match s.strip_prefix('-') {
            Some(rest) => (true, rest),
            None => (false, s),
        };
        let s = s
            .strip_prefix("0x")
            .or_else(|| s.strip_prefix("0X"))
            .unwrap_or(s);
        if s.is_empty() {
            return Err(ParseIntError::Empty);
        }
        let mut v = Int::zero();
        for c in s.chars() {
            let d = c.to_digit(16).ok_or(ParseIntError::InvalidDigit(c))?;
            v = &(v.shl(4)) + &Int::from(d as i64);
        }
        Ok(if neg { v.negated() } else { v })
    }

    /// Parses a decimal string (possibly `-`-prefixed).
    ///
    /// # Errors
    ///
    /// Returns an error on empty input or non-decimal digits.
    pub fn from_dec(s: &str) -> Result<Int, ParseIntError> {
        let (neg, s) = match s.strip_prefix('-') {
            Some(rest) => (true, rest),
            None => (false, s),
        };
        if s.is_empty() {
            return Err(ParseIntError::Empty);
        }
        let ten = Int::from(10i64);
        let mut v = Int::zero();
        for c in s.chars() {
            let d = c.to_digit(10).ok_or(ParseIntError::InvalidDigit(c))?;
            v = &(&v * &ten) + &Int::from(d as i64);
        }
        Ok(if neg { v.negated() } else { v })
    }

    /// Builds from 30 big-endian bytes (the sect233k1 scalar width).
    pub fn from_be_bytes(bytes: &[u8]) -> Int {
        let mut mag = vec![0u32; bytes.len().div_ceil(4)];
        for (i, &b) in bytes.iter().rev().enumerate() {
            mag[i / 4] |= (b as u32) << (8 * (i % 4));
        }
        Int::from_limbs(false, mag)
    }

    /// Lower-hex magnitude with sign, e.g. `-1f4`.
    pub fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0".into();
        }
        let mut s = String::new();
        if self.neg {
            s.push('-');
        }
        let mut first = true;
        for &limb in self.mag.iter().rev() {
            if first {
                s += &format!("{limb:x}");
                first = false;
            } else {
                s += &format!("{limb:08x}");
            }
        }
        s
    }

    /// The negation.
    #[must_use]
    pub fn negated(&self) -> Int {
        Int::from_limbs(!self.neg, self.mag.clone())
    }

    /// The absolute value.
    #[must_use]
    pub fn abs(&self) -> Int {
        Int::from_limbs(false, self.mag.clone())
    }

    /// `self << k`.
    #[must_use]
    pub fn shl(&self, k: usize) -> Int {
        if self.is_zero() {
            return Int::zero();
        }
        let words = k / 32;
        let bits = (k % 32) as u32;
        let mut mag = vec![0u32; words];
        if bits == 0 {
            mag.extend_from_slice(&self.mag);
        } else {
            let mut carry = 0u32;
            for &w in &self.mag {
                mag.push((w << bits) | carry);
                carry = w >> (32 - bits);
            }
            if carry != 0 {
                mag.push(carry);
            }
        }
        Int::from_limbs(self.neg, mag)
    }

    /// `self >> k` of the *magnitude* (arithmetic use sites only call
    /// this on even values where floor/truncate agree; documented
    /// truncation-toward-zero semantics).
    #[must_use]
    pub fn shr(&self, k: usize) -> Int {
        let words = k / 32;
        if words >= self.mag.len() {
            return Int::zero();
        }
        let bits = (k % 32) as u32;
        let src = &self.mag[words..];
        let mut mag = Vec::with_capacity(src.len());
        if bits == 0 {
            mag.extend_from_slice(src);
        } else {
            for i in 0..src.len() {
                let hi = if i + 1 < src.len() {
                    src[i + 1] << (32 - bits)
                } else {
                    0
                };
                mag.push((src[i] >> bits) | hi);
            }
        }
        Int::from_limbs(self.neg, mag)
    }

    /// Exact halving.
    ///
    /// # Panics
    ///
    /// Panics if the value is odd.
    #[must_use]
    pub fn half_exact(&self) -> Int {
        assert!(!self.is_odd(), "half_exact of an odd value");
        self.shr(1)
    }

    fn cmp_mag(a: &[u32], b: &[u32]) -> Ordering {
        if a.len() != b.len() {
            return a.len().cmp(&b.len());
        }
        for i in (0..a.len()).rev() {
            match a[i].cmp(&b[i]) {
                Ordering::Equal => continue,
                other => return other,
            }
        }
        Ordering::Equal
    }

    fn add_mag(a: &[u32], b: &[u32]) -> Vec<u32> {
        let mut out = Vec::with_capacity(a.len().max(b.len()) + 1);
        let mut carry = 0u64;
        for i in 0..a.len().max(b.len()) {
            let x = *a.get(i).unwrap_or(&0) as u64;
            let y = *b.get(i).unwrap_or(&0) as u64;
            let s = x + y + carry;
            out.push(s as u32);
            carry = s >> 32;
        }
        if carry != 0 {
            out.push(carry as u32);
        }
        out
    }

    /// a - b for |a| >= |b|.
    fn sub_mag(a: &[u32], b: &[u32]) -> Vec<u32> {
        debug_assert!(Int::cmp_mag(a, b) != Ordering::Less);
        let mut out = Vec::with_capacity(a.len());
        let mut borrow = 0i64;
        for (i, &aw) in a.iter().enumerate() {
            let x = aw as i64;
            let y = *b.get(i).unwrap_or(&0) as i64;
            let mut d = x - y - borrow;
            if d < 0 {
                d += 1 << 32;
                borrow = 1;
            } else {
                borrow = 0;
            }
            out.push(d as u32);
        }
        debug_assert_eq!(borrow, 0);
        out
    }

    /// Floor division with remainder: returns `(q, r)` with
    /// `self = q·d + r` and `0 ≤ r < |d|` … adjusted for signs so that
    /// `q = ⌊self / d⌋` (floor) and `r` has the sign of `d` or is zero.
    ///
    /// # Panics
    ///
    /// Panics on division by zero.
    pub fn divrem_floor(&self, d: &Int) -> (Int, Int) {
        assert!(!d.is_zero(), "division by zero");
        let (q_mag, r_mag) = Self::divrem_mag(&self.mag, &d.mag);
        let mut q = Int::from_limbs(self.neg != d.neg, q_mag);
        let mut r = Int::from_limbs(self.neg, r_mag);
        // Truncated → floor adjustment.
        if !r.is_zero() && (r.neg != d.neg) {
            q = &q - &Int::one();
            r = &r + d;
        }
        (q, r)
    }

    /// Nearest-integer division: returns `(q, r)` with `self = q·d + r`
    /// and `-|d|/2 ≤ r < |d|/2` (ties round toward +∞ of q when `d > 0`,
    /// i.e. the remainder interval is half-open below).
    ///
    /// # Panics
    ///
    /// Panics on division by zero.
    pub fn divrem_round(&self, d: &Int) -> (Int, Int) {
        let (mut q, mut r) = self.divrem_floor(d);
        // r is in [0, |d|) with sign of d... for d > 0: r in [0, d).
        // Shift to (-d/2, d/2]: if 2r >= d, bump q.
        let two_r = r.shl(1);
        let da = d.abs();
        if Int::cmp_mag(&two_r.mag, &da.mag) != Ordering::Less && !two_r.neg {
            if d.neg {
                q = &q - &Int::one();
                r = &r + d;
            } else {
                q = &q + &Int::one();
                r = &r - d;
            }
        } else if two_r.neg && Int::cmp_mag(&two_r.mag, &da.mag) == Ordering::Greater {
            // r < -|d|/2 (can only happen for d < 0 floor remainders).
            if d.neg {
                q = &q + &Int::one();
                r = &r - d;
            } else {
                q = &q - &Int::one();
                r = &r + d;
            }
        }
        (q, r)
    }

    /// Magnitude long division: `(⌊a/d⌋, a mod d)` for a non-zero `d`.
    ///
    /// Single-limb divisors take a short path; longer ones use Knuth's
    /// Algorithm D (TAOCP vol. 2, §4.3.1): one quotient limb per step,
    /// estimated from the top two remainder limbs and corrected against
    /// the divisor's second limb, with u64 intermediates and no
    /// allocation inside the loop.
    fn divrem_mag(a: &[u32], d: &[u32]) -> (Vec<u32>, Vec<u32>) {
        if Self::cmp_mag(a, d) == Ordering::Less {
            return (vec![], a.to_vec());
        }
        if d.len() == 1 {
            // Fast single-limb path.
            let dd = d[0] as u64;
            let mut q = vec![0u32; a.len()];
            let mut rem = 0u64;
            for i in (0..a.len()).rev() {
                let cur = (rem << 32) | a[i] as u64;
                q[i] = (cur / dd) as u32;
                rem = cur % dd;
            }
            while q.last() == Some(&0) {
                q.pop();
            }
            return (q, if rem == 0 { vec![] } else { vec![rem as u32] });
        }
        let n = d.len();
        let m = a.len() - n;
        // D1: normalise so the divisor's top limb has its high bit set;
        // the dividend gains one limb to hold what shifts out.
        let shift = d[n - 1].leading_zeros();
        let v = Self::shl_limbs(d, shift, n);
        let mut u = Self::shl_limbs(a, shift, a.len() + 1);
        let (v_top, v_next) = (v[n - 1] as u64, v[n - 2] as u64);
        let mut q = vec![0u32; m + 1];
        for j in (0..=m).rev() {
            // D3: estimate q̂ from the top two limbs, then correct it
            // (at most twice) against the divisor's second limb.
            let top = ((u[j + n] as u64) << 32) | u[j + n - 1] as u64;
            let mut q_hat = top / v_top;
            let mut r_hat = top % v_top;
            while q_hat > u32::MAX as u64 || q_hat * v_next > ((r_hat << 32) | u[j + n - 2] as u64)
            {
                q_hat -= 1;
                r_hat += v_top;
                if r_hat > u32::MAX as u64 {
                    break;
                }
            }
            // D4: u[j..=j+n] -= q̂·v.
            let mut borrow = 0i64;
            let mut carry = 0u64;
            for i in 0..n {
                let p = q_hat * v[i] as u64 + carry;
                carry = p >> 32;
                let t = u[i + j] as i64 - borrow - (p & 0xFFFF_FFFF) as i64;
                u[i + j] = t as u32;
                borrow = (t < 0) as i64;
            }
            let t = u[j + n] as i64 - borrow - carry as i64;
            u[j + n] = t as u32;
            // D6: q̂ was one too large (probability ~2/2³²); add back.
            if t < 0 {
                #[cfg(test)]
                tests::ADD_BACKS.with(|c| c.set(c.get() + 1));
                q_hat -= 1;
                let mut carry = 0u64;
                for i in 0..n {
                    let s = u[i + j] as u64 + v[i] as u64 + carry;
                    u[i + j] = s as u32;
                    carry = s >> 32;
                }
                u[j + n] = u[j + n].wrapping_add(carry as u32);
            }
            q[j] = q_hat as u32;
        }
        // D8: the remainder is the low n limbs, shifted back.
        let mut r = vec![0u32; n];
        for i in 0..n {
            r[i] = if shift == 0 {
                u[i]
            } else {
                (u[i] >> shift) | (u[i + 1] << (32 - shift))
            };
        }
        while q.last() == Some(&0) {
            q.pop();
        }
        while r.last() == Some(&0) {
            r.pop();
        }
        (q, r)
    }

    /// `a << shift` (shift < 32) into a fresh `len`-limb buffer, which
    /// must be long enough to hold the bits shifted out of the top.
    fn shl_limbs(a: &[u32], shift: u32, len: usize) -> Vec<u32> {
        let mut out = vec![0u32; len];
        let mut carry = 0u32;
        for (o, &w) in out.iter_mut().zip(a) {
            *o = (w << shift) | carry;
            carry = if shift == 0 { 0 } else { w >> (32 - shift) };
        }
        if carry != 0 {
            out[a.len()] = carry;
        }
        out
    }

    /// `self mod m` in `[0, m)` for `m > 0`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is not positive.
    pub fn mod_positive(&self, m: &Int) -> Int {
        assert!(!m.is_zero() && !m.neg, "modulus must be positive");
        self.divrem_floor(m).1
    }

    /// The inverse of `self` mod `m` in `[0, m)` by the extended
    /// Euclidean algorithm, or `None` when gcd(self, m) ≠ 1. The oracle
    /// of the fixed-width `Scalar::invert`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is not positive.
    pub fn mod_inverse(&self, m: &Int) -> Option<Int> {
        let (mut r0, mut r1) = (m.clone(), self.mod_positive(m));
        let (mut t0, mut t1) = (Int::zero(), Int::one());
        while !r1.is_zero() {
            let (q, r) = r0.divrem_floor(&r1);
            let t2 = &t0 - &(&q * &t1);
            r0 = r1;
            r1 = r;
            t0 = t1;
            t1 = t2;
        }
        (r0 == Int::one()).then(|| t0.mod_positive(m))
    }

    /// Converts to `i64`.
    ///
    /// # Panics
    ///
    /// Panics if the value does not fit.
    pub fn to_i64(&self) -> i64 {
        let v = match self.mag.len() {
            0 => 0u64,
            1 => self.mag[0] as u64,
            2 => (self.mag[0] as u64) | ((self.mag[1] as u64) << 32),
            _ => panic!("Int does not fit in i64"),
        };
        if self.neg {
            assert!(v <= (i64::MAX as u64) + 1, "Int does not fit in i64");
            (v as i64).wrapping_neg()
        } else {
            assert!(v <= i64::MAX as u64, "Int does not fit in i64");
            v as i64
        }
    }
}

impl From<i64> for Int {
    fn from(v: i64) -> Int {
        let neg = v < 0;
        let mag = v.unsigned_abs();
        Int::from_limbs(neg, vec![mag as u32, (mag >> 32) as u32])
    }
}

impl PartialOrd for Int {
    fn partial_cmp(&self, other: &Int) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Int {
    fn cmp(&self, other: &Int) -> Ordering {
        match (self.neg, other.neg) {
            (false, true) => Ordering::Greater,
            (true, false) => Ordering::Less,
            (false, false) => Int::cmp_mag(&self.mag, &other.mag),
            (true, true) => Int::cmp_mag(&other.mag, &self.mag),
        }
    }
}

impl std::ops::Add for &Int {
    type Output = Int;

    fn add(self, rhs: &Int) -> Int {
        if self.neg == rhs.neg {
            Int::from_limbs(self.neg, Int::add_mag(&self.mag, &rhs.mag))
        } else {
            match Int::cmp_mag(&self.mag, &rhs.mag) {
                Ordering::Equal => Int::zero(),
                Ordering::Greater => Int::from_limbs(self.neg, Int::sub_mag(&self.mag, &rhs.mag)),
                Ordering::Less => Int::from_limbs(rhs.neg, Int::sub_mag(&rhs.mag, &self.mag)),
            }
        }
    }
}

impl std::ops::Sub for &Int {
    type Output = Int;

    fn sub(self, rhs: &Int) -> Int {
        self + &rhs.negated()
    }
}

impl std::ops::Mul for &Int {
    type Output = Int;

    fn mul(self, rhs: &Int) -> Int {
        if self.is_zero() || rhs.is_zero() {
            return Int::zero();
        }
        let mut mag = vec![0u32; self.mag.len() + rhs.mag.len()];
        for (i, &a) in self.mag.iter().enumerate() {
            let mut carry = 0u64;
            for (j, &b) in rhs.mag.iter().enumerate() {
                let t = mag[i + j] as u64 + (a as u64) * (b as u64) + carry;
                mag[i + j] = t as u32;
                carry = t >> 32;
            }
            let mut k = i + rhs.mag.len();
            while carry != 0 {
                let t = mag[k] as u64 + carry;
                mag[k] = t as u32;
                carry = t >> 32;
                k += 1;
            }
        }
        Int::from_limbs(self.neg != rhs.neg, mag)
    }
}

impl fmt::Display for Int {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", self.to_hex().trim_start_matches('-'))?;
        Ok(())
    }
}

impl fmt::LowerHex for Int {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prng::SplitMix64;
    use std::cell::Cell;

    thread_local! {
        /// Add-back (step D6) count of this thread's divisions.
        pub(super) static ADD_BACKS: Cell<u64> = const { Cell::new(0) };
    }

    fn int(v: i64) -> Int {
        Int::from(v)
    }

    /// The bit-serial restoring division: one remainder bit per step.
    /// Slow and obviously right — the oracle the word-level
    /// [`Int::divrem_mag`] must match limb for limb.
    fn reference_divrem_mag(a: &[u32], d: &[u32]) -> (Vec<u32>, Vec<u32>) {
        let bits = Int::from_limbs(false, a.to_vec()).bits();
        let d_int = Int::from_limbs(false, d.to_vec());
        let mut rem = Int::zero();
        let mut q = vec![0u32; a.len()];
        for i in (0..bits).rev() {
            rem = rem.shl(1);
            if (a[i / 32] >> (i % 32)) & 1 == 1 {
                rem = &rem + &Int::one();
            }
            if Int::cmp_mag(&rem.mag, d) != Ordering::Less {
                rem = &rem - &d_int;
                q[i / 32] |= 1 << (i % 32);
            }
        }
        (Int::from_limbs(false, q).mag, rem.mag)
    }

    /// `len` limbs, most of them 0, `u32::MAX` or `0x8000_0000` — the
    /// values that push q̂ to its bounds and force the add-back step.
    fn biased_limbs(rng: &mut SplitMix64, len: usize) -> Vec<u32> {
        (0..len)
            .map(|_| match rng.below(4) {
                0 => 0,
                1 => u32::MAX,
                2 => 0x8000_0000,
                _ => rng.next_u32(),
            })
            .collect()
    }

    /// Seeded (dividend, divisor) pairs of 2..=16 limbs each, cycling
    /// through all four sign combinations.
    fn signed_multi_limb_pairs(seed: u64) -> Vec<(Int, Int)> {
        let mut rng = SplitMix64::new(seed);
        let mut pairs = Vec::new();
        while pairs.len() < 2_000 {
            let signs = pairs.len();
            let a_len = 2 + rng.below(15) as usize;
            let d_len = 2 + rng.below(15) as usize;
            let a = Int::from_limbs(signs & 1 == 1, biased_limbs(&mut rng, a_len));
            let d = Int::from_limbs(signs & 2 == 2, biased_limbs(&mut rng, d_len));
            if !d.is_zero() {
                pairs.push((a, d));
            }
        }
        pairs
    }

    #[test]
    fn construction_and_normalisation() {
        assert!(Int::zero().is_zero());
        assert_eq!(Int::from_limbs(true, vec![0, 0]), Int::zero());
        assert!(!Int::from_limbs(true, vec![0, 0]).is_negative());
        assert_eq!(int(5).bits(), 3);
        assert_eq!(int(-5).bits(), 3);
        assert_eq!(Int::zero().bits(), 0);
    }

    #[test]
    fn hex_and_dec_roundtrip() {
        let v =
            Int::from_hex("8000000000000000000000000000069d5bb915bcd46efb1ad5f173abdf").unwrap();
        assert_eq!(
            v.to_hex(),
            "8000000000000000000000000000069d5bb915bcd46efb1ad5f173abdf"
        );
        assert_eq!(Int::from_hex("-ff").unwrap(), int(-255));
        assert_eq!(Int::from_dec("-1024").unwrap(), int(-1024));
        assert_eq!(Int::from_dec("0").unwrap(), Int::zero());
        assert!(Int::from_hex("").is_err());
        assert!(Int::from_dec("12x").is_err());
    }

    #[test]
    fn add_sub_signs() {
        for a in [-37i64, -5, 0, 3, 111] {
            for b in [-44i64, -3, 0, 7, 120] {
                assert_eq!(&int(a) + &int(b), int(a + b), "{a}+{b}");
                assert_eq!(&int(a) - &int(b), int(a - b), "{a}-{b}");
                assert_eq!(&int(a) * &int(b), int(a * b), "{a}*{b}");
            }
        }
    }

    #[test]
    fn big_multiplication() {
        let a = Int::from_hex("ffffffffffffffffffffffffffffffff").unwrap();
        let b = &a * &a;
        // (2^128 - 1)^2 = 2^256 - 2^129 + 1.
        let want = &(&Int::one().shl(256) - &Int::one().shl(129)) + &Int::one();
        assert_eq!(b, want);
    }

    #[test]
    fn shifts() {
        let v = Int::from_hex("123456789abcdef").unwrap();
        assert_eq!(v.shl(68).shr(68), v);
        assert_eq!(v.shl(1), &v + &v);
        assert_eq!(int(-8).shr(2), int(-2));
        assert_eq!(int(6).half_exact(), int(3));
    }

    #[test]
    #[should_panic(expected = "half_exact of an odd")]
    fn half_exact_rejects_odd() {
        let _ = int(7).half_exact();
    }

    #[test]
    fn floor_division_matches_i64_semantics() {
        for a in [-100i64, -37, -1, 0, 1, 37, 100] {
            for d in [-7i64, -3, 3, 7] {
                let (q, r) = int(a).divrem_floor(&int(d));
                assert_eq!(q, int(a.div_euclid(d) + adjust(a, d)), "{a} / {d}");
                // self = q*d + r
                assert_eq!(&(&q * &int(d)) + &r, int(a), "{a:x} = q*{d:x}+r");
                // floor: r has the sign of d (or zero)
                assert!(r.is_zero() || r.is_negative() == (d < 0), "{a:x} rem {d:x}");
            }
        }
        for (a, d) in signed_multi_limb_pairs(0x0046_4C4F_4F52) {
            let (q, r) = a.divrem_floor(&d);
            assert_eq!(&(&q * &d) + &r, a, "{a:x} = q*{d:x}+r");
            // r has the sign of d (or is zero) and |r| < |d|.
            assert!(r.is_zero() || r.is_negative() == d.is_negative());
            assert!(r.abs() < d.abs(), "{a:x} rem {d:x}");
        }
        // div_euclid rounds toward -inf only for positive divisors;
        // floor division q = floor(a/d):
        fn adjust(a: i64, d: i64) -> i64 {
            let fl = (a as f64 / d as f64).floor() as i64;
            fl - a.div_euclid(d)
        }
    }

    #[test]
    fn round_division() {
        for a in -50i64..=50 {
            let d = 7i64;
            let (q, r) = int(a).divrem_round(&int(d));
            assert_eq!(&(&q * &int(d)) + &r, int(a), "value identity at {a}");
            let rv = r.to_i64();
            assert!((-d / 2 - 1) < rv && rv <= d / 2, "remainder {rv} for {a}");
            // q is the nearest integer.
            let exact = a as f64 / d as f64;
            assert!((q.to_i64() as f64 - exact).abs() <= 0.5 + 1e-9, "{a}");
        }
        for (a, d) in signed_multi_limb_pairs(0x0052_4F55_4E44) {
            let (q, r) = a.divrem_round(&d);
            assert_eq!(&(&q * &d) + &r, a, "{a:x} = q*{d:x}+r");
            // −|d|/2 ≤ r < |d|/2, i.e. −|d| ≤ 2r < |d|.
            let two_r = r.shl(1);
            assert!(two_r < d.abs(), "{a:x} rem {d:x} too large");
            assert!(two_r >= d.abs().negated(), "{a:x} rem {d:x} too small");
        }
    }

    #[test]
    fn large_division() {
        let a = Int::from_hex("123456789abcdef0123456789abcdef0123456789abcdef").unwrap();
        let d = Int::from_hex("fedcba9876543210fedcba").unwrap();
        let (q, r) = a.divrem_floor(&d);
        assert_eq!(&(&q * &d) + &r, a);
        assert!(r >= Int::zero() && r < d);
    }

    #[test]
    fn word_division_matches_bit_serial_reference() {
        let check = |a: &[u32], d: &[u32]| {
            let (q, r) = Int::divrem_mag(a, d);
            assert_eq!((q, r), reference_divrem_mag(a, d), "{a:x?} / {d:x?}");
        };
        // The add-back vector: after normalisation q̂ = 4 passes the D3
        // test, but the true quotient is 3.
        let before = ADD_BACKS.with(Cell::get);
        check(&[3, 0, 0x8000_0000], &[1, 0, 0x2000_0000]);
        assert_eq!(ADD_BACKS.with(Cell::get), before + 1, "D6 not taken");

        let mut rng = SplitMix64::new(0x4B4E_5554_4844);
        let before = ADD_BACKS.with(Cell::get);
        for _ in 0..20_000 {
            let a_len = 2 + rng.below(15) as usize;
            let d_len = 2 + rng.below(a_len as u64 - 1) as usize;
            let a = Int::from_limbs(false, biased_limbs(&mut rng, a_len));
            let d = Int::from_limbs(false, biased_limbs(&mut rng, d_len));
            if !d.is_zero() {
                check(&a.mag, &d.mag);
            }
        }
        let add_backs = ADD_BACKS.with(Cell::get) - before;
        assert!(add_backs >= 200, "only {add_backs} add-backs exercised");
    }

    #[test]
    fn mod_positive_is_canonical() {
        let m = int(97);
        assert_eq!(int(-1).mod_positive(&m), int(96));
        assert_eq!(int(97).mod_positive(&m), Int::zero());
        assert_eq!(int(100).mod_positive(&m), int(3));
    }

    #[test]
    fn low_bits_two_complement_view() {
        assert_eq!(int(13).low_bits(4), 13);
        assert_eq!(int(-1).low_bits(4), 15);
        assert_eq!(int(-8).low_bits(4), 8);
        assert_eq!(int(16).low_bits(4), 0);
        assert_eq!(Int::zero().low_bits(8), 0);
    }

    #[test]
    fn ordering() {
        assert!(int(-5) < int(-4));
        assert!(int(-1) < Int::zero());
        assert!(int(3) > int(2));
        assert!(int(-100) < int(100));
    }

    #[test]
    fn parity_and_to_i64() {
        assert!(int(7).is_odd());
        assert!(!int(8).is_odd());
        assert!(!Int::zero().is_odd());
        assert_eq!(int(-42).to_i64(), -42);
        assert_eq!(
            Int::from_hex("7fffffffffffffff").unwrap().to_i64(),
            i64::MAX
        );
    }

    #[test]
    fn from_be_bytes_matches_hex() {
        let bytes = [0x01u8, 0x02, 0x03, 0x04];
        assert_eq!(
            Int::from_be_bytes(&bytes),
            Int::from_hex("1020304").unwrap()
        );
    }
}
