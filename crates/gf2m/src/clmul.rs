//! Host F₂²³³ arithmetic on the x86-64 carry-less multiply (PCLMULQDQ).
//!
//! The paper's López-Dahab comb is shaped by the Cortex-M0+'s thirteen
//! registers; a host core with a 64×64-bit carry-less multiplier forms
//! the same 466-bit product from a handful of instructions. Operands are
//! read as four 64-bit limbs (the `[u32; 8]` storage of [`Fe`] is not
//! touched), multiplied by two-level Karatsuba over 128-bit halves
//! (nine `PCLMULQDQ`, after Dyka–Langendoerfer's iterated Karatsuba) and
//! folded modulo z²³³ + z⁷⁴ + 1 with 64-bit shifts. Squaring is one
//! carry-less square per limb and the same fold.
//!
//! The chains — repeated squaring, the square root and the Itoh–Tsujii
//! inversion — each run inside one
//! `#[target_feature]` function, so the feature check and the call are
//! paid once per chain rather than once per squaring.
//!
//! A [`Clmul`] value is the proof that the running CPU has the
//! instruction: [`Clmul::detect`] is its only constructor. [`Fe`]'s
//! methods use it when it exists and fall back to the paper tier
//! ([`crate::mul::mul_ld_fixed`], [`crate::sqr::square`],
//! [`crate::inv::invert`]) otherwise; the paper tier is also the oracle
//! these kernels are tested against. Off x86-64 the proof type is
//! uninhabited and every caller takes the fallback.

#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

use crate::Fe;

/// The carry-less-multiply kernels, usable only on a CPU that has
/// `PCLMULQDQ`.
///
/// ```
/// use gf2m::{Clmul, Fe};
/// let a = Fe::from_hex("1af129f22ff4149563a419c26bf50a4c9d6eefad6126")?;
/// let b = Fe::from_hex("5a67c427a8cd9bf18aeb9b56e0c11056fae6a3")?;
/// if let Some(k) = Clmul::detect() {
///     assert_eq!(k.mul(a, b), gf2m::mul::mul_ld_fixed(a, b));
///     assert_eq!(k.invert(a), gf2m::inv::invert(a));
/// }
/// # Ok::<(), gf2m::ParseFeError>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Clmul(Proof);

#[cfg(target_arch = "x86_64")]
type Proof = ();
#[cfg(not(target_arch = "x86_64"))]
type Proof = core::convert::Infallible;

/// Runs a `#[target_feature(enable = "pclmulqdq")]` kernel under the
/// proof carried by a [`Clmul`] token.
macro_rules! with_clmul {
    ($token:expr, $call:expr) => {{
        #[cfg(target_arch = "x86_64")]
        {
            let Clmul(()) = $token;
            // SAFETY: a `Clmul` is only built by `Clmul::detect`, after
            // `is_x86_feature_detected!("pclmulqdq")` returned true, so
            // the kernel's target feature is present on this CPU.
            unsafe { $call }
        }
        #[cfg(not(target_arch = "x86_64"))]
        match $token.0 {}
    }};
}

impl Clmul {
    /// The kernels, or `None` when the CPU lacks `PCLMULQDQ` or is not
    /// x86-64. The detection result is cached by the standard library,
    /// so a call costs one relaxed load.
    #[inline]
    pub fn detect() -> Option<Clmul> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("pclmulqdq") {
            return Some(Clmul(()));
        }
        None
    }

    /// Field multiplication.
    #[inline]
    pub fn mul(self, a: Fe, b: Fe) -> Fe {
        with_clmul!(self, x86::mul(a, b))
    }

    /// Field squaring.
    #[inline]
    pub fn square(self, a: Fe) -> Fe {
        with_clmul!(self, x86::square(a))
    }

    /// `a^(2^k)`: `k` squarings in one call.
    #[inline]
    pub fn square_n(self, a: Fe, k: usize) -> Fe {
        with_clmul!(self, x86::square_n(a, k))
    }

    /// Itoh–Tsujii inversion (10 M + 232 S), or `None` for zero.
    #[inline]
    pub fn invert(self, a: Fe) -> Option<Fe> {
        if a.is_zero() {
            return None;
        }
        Some(with_clmul!(self, x86::invert_nonzero(a)))
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use crate::element::{from_limbs, limbs};
    use crate::Fe;
    use core::arch::x86_64::{
        __m128i, _mm_clmulepi64_si128, _mm_cvtsi128_si64, _mm_set_epi64x, _mm_slli_si128,
        _mm_srli_si128, _mm_unpackhi_epi64, _mm_xor_si128,
    };

    /// Reduces a 466-bit product held in eight 64-bit limbs modulo
    /// z²³³ + z⁷⁴ + 1. A bit at 64·i + j, i ≥ 4, is z^(233 + e) with
    /// e = 64·(i − 4) + j + 23, and folds to z^e (limbs i − 4, i − 3) and
    /// z^(74 + e) = z^(64·(i − 3) + j + 33) (limbs i − 3, i − 2). Limbs 7
    /// down to 4 are folded in turn, then the 23 bits of limb 3 above bit
    /// 232 go to z⁰ (limb 0) and z⁷⁴ (limb 1, bit 10).
    #[inline(always)]
    pub(super) fn fold(mut c: [u64; 8]) -> [u64; 4] {
        for i in (4..8).rev() {
            let t = c[i];
            c[i - 4] ^= t << 23;
            c[i - 3] ^= (t >> 41) ^ (t << 33);
            c[i - 2] ^= t >> 31;
        }
        let t = c[3] >> 41;
        c[0] ^= t;
        c[1] ^= t << 10;
        [c[0], c[1], c[2], c[3] & ((1 << 41) - 1)]
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    fn pair(lo: u64, hi: u64) -> __m128i {
        _mm_set_epi64x(hi as i64, lo as i64)
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    fn split(v: __m128i) -> [u64; 2] {
        [
            _mm_cvtsi128_si64(v) as u64,
            _mm_cvtsi128_si64(_mm_unpackhi_epi64(v, v)) as u64,
        ]
    }

    /// 128×128 → 256-bit carry-less product by one Karatsuba level
    /// (three `PCLMULQDQ`).
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn mul128(a: __m128i, b: __m128i) -> [__m128i; 2] {
        let lo = _mm_clmulepi64_si128(a, b, 0x00);
        let hi = _mm_clmulepi64_si128(a, b, 0x11);
        // Low lanes of ta/tb: a0 ^ a1 and b0 ^ b1.
        let ta = _mm_xor_si128(a, _mm_unpackhi_epi64(a, a));
        let tb = _mm_xor_si128(b, _mm_unpackhi_epi64(b, b));
        let mid = _mm_xor_si128(_mm_clmulepi64_si128(ta, tb, 0x00), _mm_xor_si128(lo, hi));
        [
            _mm_xor_si128(lo, _mm_slli_si128(mid, 8)),
            _mm_xor_si128(hi, _mm_srli_si128(mid, 8)),
        ]
    }

    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn mul_limbs(a: [u64; 4], b: [u64; 4]) -> [u64; 4] {
        let (a0, a1) = (pair(a[0], a[1]), pair(a[2], a[3]));
        let (b0, b1) = (pair(b[0], b[1]), pair(b[2], b[3]));
        let [l0, l1] = mul128(a0, b0);
        let [h0, h1] = mul128(a1, b1);
        let [m0, m1] = mul128(_mm_xor_si128(a0, a1), _mm_xor_si128(b0, b1));
        let m0 = _mm_xor_si128(m0, _mm_xor_si128(l0, h0));
        let m1 = _mm_xor_si128(m1, _mm_xor_si128(l1, h1));
        let [c0, c1] = split(l0);
        let [c2, c3] = split(_mm_xor_si128(l1, m0));
        let [c4, c5] = split(_mm_xor_si128(h0, m1));
        let [c6, c7] = split(h1);
        fold([c0, c1, c2, c3, c4, c5, c6, c7])
    }

    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn square_limbs(a: [u64; 4]) -> [u64; 4] {
        let (a0, a1) = (pair(a[0], a[1]), pair(a[2], a[3]));
        let [c0, c1] = split(_mm_clmulepi64_si128(a0, a0, 0x00));
        let [c2, c3] = split(_mm_clmulepi64_si128(a0, a0, 0x11));
        let [c4, c5] = split(_mm_clmulepi64_si128(a1, a1, 0x00));
        let [c6, c7] = split(_mm_clmulepi64_si128(a1, a1, 0x11));
        fold([c0, c1, c2, c3, c4, c5, c6, c7])
    }

    #[target_feature(enable = "pclmulqdq")]
    pub(super) fn mul(a: Fe, b: Fe) -> Fe {
        from_limbs(mul_limbs(limbs(a), limbs(b)))
    }

    #[target_feature(enable = "pclmulqdq")]
    pub(super) fn square(a: Fe) -> Fe {
        from_limbs(square_limbs(limbs(a)))
    }

    #[target_feature(enable = "pclmulqdq")]
    pub(super) fn square_n(a: Fe, k: usize) -> Fe {
        from_limbs(crate::element::square_n_with(limbs(a), k, |x| {
            square_limbs(x)
        }))
    }

    #[target_feature(enable = "pclmulqdq")]
    pub(super) fn invert_nonzero(a: Fe) -> Fe {
        from_limbs(crate::inv::itoh_tsujii_chain(
            limbs(a),
            |x, k| crate::element::square_n_with(x, k, |y| square_limbs(y)),
            |x, y| mul_limbs(x, y),
        ))
    }
}

#[cfg(all(test, target_arch = "x86_64"))]
mod tests {
    use super::x86::fold;
    use super::*;
    use crate::element::{from_limbs, limbs};
    use crate::{inv, mul, reduce, sqr, M, N};
    use prng::SplitMix64;

    /// Seeded operand pairs checked against the paper tier.
    const PAIRS: usize = 100_000;

    fn kernels() -> Option<Clmul> {
        let k = Clmul::detect();
        if k.is_none() {
            eprintln!("no PCLMULQDQ on this CPU: carry-less kernels not exercised");
        }
        k
    }

    fn rand_fe(rng: &mut SplitMix64) -> Fe {
        let mut w = [0u32; N];
        rng.fill_u32(&mut w);
        Fe::from_words_reduced(w)
    }

    fn z_pow(i: usize) -> Fe {
        let mut w = [0u32; N];
        w[i / 32] = 1 << (i % 32);
        Fe(w)
    }

    /// 0, 1, the all-ones degree-232 element and a few random values.
    fn edges() -> Vec<Fe> {
        let mut rng = SplitMix64::new(0xc1);
        let mut out = vec![Fe::ZERO, Fe::ONE, Fe::from_words_reduced([u32::MAX; N])];
        out.extend((0..5).map(|_| rand_fe(&mut rng)));
        out
    }

    fn paper_square_n(a: Fe, k: usize) -> Fe {
        (0..k).fold(a, |x, _| sqr::square(x))
    }

    #[test]
    fn limb_view_roundtrips() {
        let mut rng = SplitMix64::new(3);
        for _ in 0..1000 {
            let a = rand_fe(&mut rng);
            assert_eq!(from_limbs(limbs(a)), a);
        }
        assert_eq!(limbs(z_pow(232)), [0, 0, 0, 1 << 40]);
    }

    #[test]
    fn fold_matches_bitwise_reduction() {
        let wide = |c: [u64; 8]| -> [u32; 2 * N] {
            core::array::from_fn(|i| (c[i / 2] >> (32 * (i % 2))) as u32)
        };
        // Every single bit a product can hold (degree ≤ 464).
        for p in 0..=464 {
            let mut c = [0u64; 8];
            c[p / 64] = 1 << (p % 64);
            assert_eq!(
                from_limbs(fold(c)),
                reduce::reduce_bitwise(wide(c)),
                "bit {p}"
            );
        }
        let mut rng = SplitMix64::new(0xf01d);
        for case in 0..10_000 {
            let mut c = [0u64; 8];
            for l in c.iter_mut() {
                *l = rng.next_u64();
            }
            c[7] &= (1 << 17) - 1;
            assert_eq!(
                from_limbs(fold(c)),
                reduce::reduce_bitwise(wide(c)),
                "case {case}"
            );
        }
    }

    #[test]
    fn mul_and_square_match_the_paper_tier() {
        let Some(k) = kernels() else { return };
        let edges = edges();
        for &a in &edges {
            assert_eq!(k.square(a), sqr::square(a), "sqr {a}");
            for &b in &edges {
                assert_eq!(k.mul(a, b), mul::mul_ld_fixed(a, b), "{a} * {b}");
            }
        }
        // zⁱ·zʲ over every pair of degrees: crosses each 64-bit limb
        // boundary in both operands and every fold position of z²³³.
        for i in 0..M {
            assert_eq!(k.square(z_pow(i)), sqr::square(z_pow(i)), "z^{i} squared");
            for j in 0..M {
                let (a, b) = (z_pow(i), z_pow(j));
                assert_eq!(k.mul(a, b), mul::mul_ld_fixed(a, b), "z^{i} * z^{j}");
            }
        }
        let mut rng = SplitMix64::new(0x9a1f);
        for case in 0..PAIRS {
            let (a, b) = (rand_fe(&mut rng), rand_fe(&mut rng));
            assert_eq!(k.mul(a, b), mul::mul_ld_fixed(a, b), "case {case}");
            assert_eq!(k.square(a), sqr::square(a), "case {case}");
        }
    }

    #[test]
    fn chains_match_the_paper_tier() {
        let Some(k) = kernels() else { return };
        assert_eq!(k.invert(Fe::ZERO), None);
        assert_eq!(inv::invert(Fe::ZERO), None);
        let mut inputs = edges();
        inputs.extend((0..M).map(z_pow));
        let mut rng = SplitMix64::new(0x17);
        inputs.extend((0..PAIRS).map(|_| rand_fe(&mut rng)));
        for (case, &a) in inputs.iter().enumerate() {
            assert_eq!(k.invert(a), inv::invert(a), "invert case {case}: {a}");
            let n = (rng.next_u64() % 300) as usize;
            assert_eq!(k.square_n(a, n), paper_square_n(a, n), "square_n({a}, {n})");
            assert_eq!(a.sqrt(), paper_square_n(a, M - 1), "sqrt {a}");
        }
    }
}
