//! τ-adic NAF machinery for Koblitz curves (Solinas; Guide to ECC §3.4).
//!
//! On a Koblitz curve the Frobenius map τ satisfies τ² + 2 = μτ, so
//! scalars can be expanded in powers of τ instead of powers of 2 and
//! point doublings replaced by (nearly free) Frobenius applications.
//! This module provides, *computed from first principles at runtime*
//! rather than copied from tables:
//!
//! * the ring constants d₀ + d₁τ = δ = (τᵐ − 1)/(τ − 1) and
//!   s₀, s₁ (via Lucas sequences) — validated against the SEC 2 group
//!   order through the norm identity N(δ) = n;
//! * **partial/full reduction** ρ = k mod δ by lattice rounding, which
//!   keeps the τ-adic expansion length near m instead of 2m;
//! * plain **TNAF** and width-w **TNAF** digit generation;
//! * the window representatives α_u ≡ u (mod τʷ) of minimal norm,
//!   again computed by the same rounding (not hard-coded).
//!
//! Two tiers run the same algorithm. [`recode`], the one every point
//! multiplication calls, works on fixed-width integers and allocates
//! only its output. [`partmod`], [`tnaf`] and [`wtnaf`] work on [`Int`]
//! and stay as its oracle ([`recode_int`]): the two must produce the
//! same digits for every scalar.

use crate::curve::MU;
use crate::int::Int;
use crate::scalar::U256;
use std::ops::{Add, Neg, Sub};
use std::sync::OnceLock;

/// Ring constants of ℤ\[τ\] for sect233k1.
#[derive(Debug, Clone)]
pub struct TauConstants {
    /// Real part of δ = (τᵐ − 1)/(τ − 1).
    pub d0: Int,
    /// τ-part of δ.
    pub d1: Int,
    /// s₀ = d₀ + μ·d₁ (numerator of λ₀ = s₀k/n).
    pub s0: Int,
    /// s₁ = −d₁ (numerator of λ₁ = s₁k/n).
    pub s1: Int,
    /// The norm N(δ), which equals the prime group order n.
    pub norm: Int,
}

/// Multiplication in ℤ\[τ\]: (a₀ + a₁τ)(b₀ + b₁τ) with τ² = μτ − 2.
pub fn zt_mul(a0: &Int, a1: &Int, b0: &Int, b1: &Int) -> (Int, Int) {
    let ac = a0 * b0;
    let bd = a1 * b1;
    let c0 = &ac - &bd.shl(1);
    let mid = &(a0 * b1) + &(a1 * b0);
    let c1 = if MU == -1 { &mid - &bd } else { &mid + &bd };
    (c0, c1)
}

/// The norm N(a₀ + a₁τ) = a₀² + μ·a₀a₁ + 2a₁².
pub fn zt_norm(a0: &Int, a1: &Int) -> Int {
    let sq = &(a0 * a0) + &(a1 * a1).shl(1);
    let cross = a0 * a1;
    if MU == -1 {
        &sq - &cross
    } else {
        &sq + &cross
    }
}

/// Lucas sequence U: U₀ = 0, U₁ = 1, U_{i+1} = μU_i − 2U_{i−1};
/// τⁱ = U_i·τ − 2·U_{i−1}. Returns (U_i, U_{i−1}).
///
/// # Panics
///
/// Panics if `i` is 0: U₋₁ = −1/2 is not an integer.
pub fn lucas_u(i: usize) -> (Int, Int) {
    assert!(i >= 1, "U_(i-1) is an integer only for i >= 1");
    let mut prev = Int::zero(); // U_0
    let mut cur = Int::one(); // U_1
    for _ in 1..i {
        let next = &(&Int::from(MU) * &cur) - &prev.shl(1);
        prev = cur;
        cur = next;
    }
    (cur, prev)
}

/// The sect233k1 constants, computed once.
pub fn constants() -> &'static TauConstants {
    static CONSTS: OnceLock<TauConstants> = OnceLock::new();
    CONSTS.get_or_init(|| {
        let m = crate::curve_m();
        let (um, um1) = lucas_u(m);
        // τᵐ − 1 = −(2U_{m−1} + 1) + U_m·τ.
        let a = (&um1.shl(1) + &Int::one()).negated();
        let b = um;
        // δ = (τᵐ − 1)·(τ̄ − 1)/N(τ − 1); τ̄ − 1 = (μ − 1) − τ,
        // N(τ − 1) = 3 − μ = 4 for μ = −1.
        let c = Int::from(MU - 1);
        let d = Int::from(-1i64);
        let (num0, num1) = zt_mul(&a, &b, &c, &d);
        let four = Int::from(4i64);
        let (d0, rem0) = num0.divrem_floor(&four);
        let (d1, rem1) = num1.divrem_floor(&four);
        assert!(rem0.is_zero() && rem1.is_zero(), "δ division must be exact");
        let s0 = if MU == -1 { &d0 - &d1 } else { &d0 + &d1 };
        let s1 = d1.negated();
        let norm = zt_norm(&d0, &d1);
        TauConstants {
            d0,
            d1,
            s0,
            s1,
            norm,
        }
    })
}

/// Where `x` lies against the half-open band `[lo, hi)`: −1 below it,
/// 0 inside, +1 at or above `hi`.
fn band<T: Ord>(x: &T, lo: &T, hi: &T) -> i8 {
    if x < lo {
        -1
    } else if x >= hi {
        1
    } else {
        0
    }
}

/// The correction (h₀, h₁) of Solinas round-off (Guide to ECC
/// Alg. 3.61), from the bands of its three tests: η = 2r₀ + μr₁ against
/// ±n, η₀ − 3μη₁ = r₀ − 3μr₁ against ±n and η₀ + 4μη₁ = r₀ + 4μr₁
/// against ±2n (all scaled by n). Shared by both tiers, so only the
/// comparisons differ between them.
fn round_off_correction(eta: i8, t3: i8, t4: i8) -> (i64, i64) {
    let (mut h0, mut h1) = (0, 0);
    if eta == 1 {
        if t3 == -1 {
            h1 = MU;
        } else {
            h0 = 1;
        }
    } else if t4 == 1 {
        h1 = MU;
    }
    if eta == -1 {
        if t3 == 1 {
            h1 = -MU;
        } else {
            h0 = -1;
        }
    } else if t4 == -1 {
        h1 = -MU;
    }
    (h0, h1)
}

/// Solinas round-off in ℤ\[τ\] (Guide to ECC Alg. 3.61): given the exact
/// rationals λ_i = (f_i·n + r_i)/n with r_i ∈ \[−n/2, n/2), returns the
/// rounded quotient (q₀, q₁) of minimal-norm remainder.
///
/// Any choice of (q₀, q₁) preserves the *value* k − qδ ≡ k; the
/// conditions below only minimise the remainder's norm (and hence the
/// expansion length), which the tests assert.
fn round_off(f0: &Int, r0: &Int, f1: &Int, r1: &Int, n: &Int) -> (Int, Int) {
    let mu_r1 = &Int::from(MU) * r1;
    let eta = &r0.shl(1) + &mu_r1;
    let t3 = r0 - &(&mu_r1 * &Int::from(3i64));
    let t4 = r0 + &mu_r1.shl(2);
    let (neg_n, two_n) = (n.negated(), n.shl(1));
    let (h0, h1) = round_off_correction(
        band(&eta, &neg_n, n),
        band(&t3, &neg_n, n),
        band(&t4, &two_n.negated(), &two_n),
    );
    (f0 + &Int::from(h0), f1 + &Int::from(h1))
}

/// Reduction ρ = k mod δ: returns (r₀, r₁) with ρ = r₀ + r₁τ,
/// ρ ≡ k (mod δ), and N(ρ) small enough that the TNAF of ρ has length
/// ≤ m + 4. For points in the prime-order subgroup, ρP = kP.
///
/// This is the `Int` oracle; [`recode`] reduces on fixed-width
/// integers and must return the same ρ.
pub fn partmod(k: &Int) -> (Int, Int) {
    let c = constants();
    let n = &c.norm;
    // λ_i = s_i·k / n, exactly.
    let a0 = &c.s0 * k;
    let a1 = &c.s1 * k;
    let (f0, r0) = a0.divrem_round(n);
    let (f1, r1) = a1.divrem_round(n);
    let (q0, q1) = round_off(&f0, &r0, &f1, &r1, n);
    // ρ = k − q·δ.
    let (qd0, qd1) = zt_mul(&q0, &q1, &c.d0, &c.d1);
    (k - &qd0, qd1.negated())
}

/// Plain TNAF digits (least significant first), each in {−1, 0, 1}, no
/// two consecutive non-zeros. The `Int` oracle of [`recode`] at w = 1.
pub fn tnaf(mut r0: Int, mut r1: Int) -> Vec<i8> {
    let mut digits = Vec::new();
    while !r0.is_zero() || !r1.is_zero() {
        let u: i8 = if r0.is_odd() {
            // u = 2 − ((r0 − 2r1) mod 4) ∈ {−1, 1}.
            let m4 = (&r0 - &r1.shl(1)).low_bits(2);
            let u = 2i8 - m4 as i8;
            r0 = &r0 - &Int::from(u as i64);
            u
        } else {
            0
        };
        digits.push(u);
        // (r0, r1) ← (r1 + μ·r0/2, −r0/2).
        let half = r0.half_exact();
        let signed_half = if MU == -1 {
            half.negated()
        } else {
            half.clone()
        };
        r0 = &r1 + &signed_half;
        r1 = half.negated();
    }
    digits
}

/// The window representative α_u = β + γτ ≡ u (mod τʷ) of minimal norm,
/// for odd u, computed by rounding u/τʷ in ℤ\[τ\].
pub fn alpha(u: i64, w: u32) -> (Int, Int) {
    assert!(u % 2 != 0, "representatives exist for odd u only");
    let (uw, uw1) = lucas_u(w as usize);
    // τʷ = U_w·τ − 2U_{w−1}; conj(τʷ) = (μU_w − 2U_{w−1}) − U_w·τ.
    // λ = u·conj(τʷ)/2ʷ.
    let tw0 = uw1.shl(1).negated(); // real part of τʷ
    let tw1 = uw.clone();
    let conj0 = &(&Int::from(MU) * &uw) - &uw1.shl(1);
    let conj1 = uw.negated();
    let two_w = Int::one().shl(w as usize);
    let a0 = &Int::from(u) * &conj0;
    let a1 = &Int::from(u) * &conj1;
    let (f0, r0) = a0.divrem_round(&two_w);
    let (f1, r1) = a1.divrem_round(&two_w);
    let (q0, q1) = round_off(&f0, &r0, &f1, &r1, &two_w);
    // α = u − q·τʷ.
    let (qt0, qt1) = zt_mul(&q0, &q1, &tw0, &tw1);
    (&Int::from(u) - &qt0, qt1.negated())
}

/// The 2-adic image of τ for window width w: the *even* root t_w of
/// t² + 2 ≡ μt (mod 2ʷ), found by exhaustive search (w ≤ 8).
pub fn tau_mod_2w(w: u32) -> u32 {
    assert!((2..=8).contains(&w));
    let modulus = 1u64 << w;
    for t in (0..modulus).step_by(2) {
        if (t * t + 2) % modulus == (MU.rem_euclid(modulus as i64) as u64 * t) % modulus {
            return t as u32;
        }
    }
    unreachable!("τ always has a 2-adic image");
}

/// What the width-w digit loop and the table builders need, built once
/// per width.
pub(crate) struct Window {
    /// 2ʷ − 1.
    mask: i64,
    /// t_w = [`tau_mod_2w`].
    tw: i64,
    /// α_u = (β, γ) for odd 0 < u < 2^(w−1), indexed by u/2: the only
    /// table of representatives; |β|, |γ| < 2ʷ.
    alphas: Vec<(i64, i64)>,
    /// The plain τ-NAF digit string of each α_u ([`tnaf`], least
    /// significant first), indexed like `alphas`.
    alpha_tnafs: Vec<Vec<i8>>,
}

/// The [`Window`] of width w ∈ 2..=8, built on first use.
pub(crate) fn window(w: u32) -> &'static Window {
    assert!((2..=8).contains(&w), "window width 2..=8");
    static WINDOWS: [OnceLock<Window>; 7] = [const { OnceLock::new() }; 7];
    WINDOWS[w as usize - 2].get_or_init(|| {
        let alphas: Vec<(i64, i64)> = (1..1i64 << (w - 1))
            .step_by(2)
            .map(|u| {
                let (beta, gamma) = alpha(u, w);
                (beta.to_i64(), gamma.to_i64())
            })
            .collect();
        let alpha_tnafs = alphas
            .iter()
            .map(|&(beta, gamma)| tnaf(Int::from(beta), Int::from(gamma)))
            .collect();
        Window {
            mask: (1 << w) - 1,
            tw: tau_mod_2w(w) as i64,
            alphas,
            alpha_tnafs,
        }
    })
}

impl Window {
    /// α_u = (β, γ) for u = 1, 3, …, 2^(w−1) − 1, indexed by u/2.
    pub(crate) fn alphas(&self) -> &[(i64, i64)] {
        &self.alphas
    }

    /// The plain τ-NAF digit string of each α_u (least significant
    /// first, digits in {−1, 0, 1}), indexed like [`Window::alphas`].
    pub(crate) fn alpha_tnafs(&self) -> &[Vec<i8>] {
        &self.alpha_tnafs
    }

    /// The digit for ρ = r₀ + r₁τ: 0 for even r₀, else the signed
    /// residue s = (r₀ + r₁·t_w) mods 2ʷ. It reads only the low w bits
    /// of `r0_low` and `r1_low`, which may be any values ≡ r₀, r₁ mod 2ʷ.
    fn digit(&self, r0_low: i64, r1_low: i64) -> i64 {
        if r0_low & 1 == 0 {
            return 0;
        }
        let s = ((r0_low & self.mask) + (r1_low & self.mask) * self.tw) & self.mask;
        debug_assert!(s % 2 != 0);
        if s > self.mask / 2 {
            s - self.mask - 1
        } else {
            s
        }
    }

    /// α_s for an odd digit s, negated for s < 0.
    fn alpha(&self, s: i64) -> (i64, i64) {
        let (beta, gamma) = self.alphas[(s.unsigned_abs() / 2) as usize];
        if s < 0 {
            (-beta, -gamma)
        } else {
            (beta, gamma)
        }
    }
}

/// Width-w TNAF digits (least significant first): each digit is 0 or an
/// odd integer with |digit| < 2^(w−1), and any two non-zero digits are
/// at least w positions apart. The `Int` oracle of [`recode`] at w ≥ 2.
pub fn wtnaf(mut r0: Int, mut r1: Int, w: u32) -> Vec<i8> {
    let win = window(w);
    let mut digits = Vec::new();
    while !r0.is_zero() || !r1.is_zero() {
        let s = win.digit(r0.low_bits(w) as i64, r1.low_bits(w) as i64);
        if s != 0 {
            let (beta, gamma) = win.alpha(s);
            r0 = &r0 - &Int::from(beta);
            r1 = &r1 - &Int::from(gamma);
        }
        digits.push(s as i8);
        let half = r0.half_exact();
        let signed_half = if MU == -1 {
            half.negated()
        } else {
            half.clone()
        };
        r0 = &r1 + &signed_half;
        r1 = half.negated();
    }
    digits
}

/// Fixed output length of [`recode`]: the m + 6 worst-case digit count
/// of a width-w TNAF after partial reduction mod δ. Every recoding is
/// zero-padded up to this length so the digit count — and therefore
/// the iteration count of every scalar-multiplication loop consuming
/// it — does not depend on the scalar. (A short scalar such as k = 1
/// would otherwise recode to a handful of digits, leaking ⌈log k⌉
/// through timing.)
pub fn recode_length() -> usize {
    crate::curve_m() + 6
}

/// The `Int` recoding pipeline — [`partmod`], then [`tnaf`] (w = 1) or
/// [`wtnaf`] — zero-padded like [`recode`]. It is [`recode`]'s oracle:
/// the two return the same digits for every scalar.
pub fn recode_int(k: &Int, w: u32) -> Vec<i8> {
    let (r0, r1) = partmod(k);
    let mut digits = if w == 1 {
        tnaf(r0, r1)
    } else {
        wtnaf(r0, r1, w)
    };
    debug_assert!(digits.len() <= recode_length(), "TNAF overran m + 6");
    digits.resize(recode_length(), 0);
    digits
}

// ---------------------------------------------------------------------
// The fixed-width tier.
// ---------------------------------------------------------------------

/// A two's-complement 256-bit integer as (high, low) halves. The derived
/// order compares `hi` signed, then `lo` unsigned: the signed order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct I256 {
    hi: i128,
    lo: u128,
}

impl I256 {
    const ZERO: I256 = I256 { hi: 0, lo: 0 };

    /// The value of four little-endian limbs, read mod 2²⁵⁶.
    fn from_limbs(l: [u64; 4]) -> I256 {
        I256 {
            hi: (((l[3] as u128) << 64) | l[2] as u128) as i128,
            lo: ((l[1] as u128) << 64) | l[0] as u128,
        }
    }

    /// `self · m` for a small m.
    fn times(self, m: i64) -> I256 {
        let mut acc = I256::ZERO;
        for _ in 0..m.unsigned_abs() {
            acc = acc + self;
        }
        if m < 0 {
            -acc
        } else {
            acc
        }
    }
}

impl Add for I256 {
    type Output = I256;
    fn add(self, o: I256) -> I256 {
        let (lo, carry) = self.lo.overflowing_add(o.lo);
        I256 {
            hi: self.hi.wrapping_add(o.hi).wrapping_add(carry as i128),
            lo,
        }
    }
}

impl Neg for I256 {
    type Output = I256;
    fn neg(self) -> I256 {
        let lo = (!self.lo).wrapping_add(1);
        I256 {
            hi: (!self.hi).wrapping_add((lo == 0) as i128),
            lo,
        }
    }
}

impl Sub for I256 {
    type Output = I256;
    fn sub(self, o: I256) -> I256 {
        self + -o
    }
}

/// The product of two little-endian limb strings, truncated to `N`
/// limbs (exact when `N ≥ a.len() + b.len()`).
fn mul_limbs<const N: usize>(a: &[u64], b: &[u64]) -> [u64; N] {
    let mut out = [0u64; N];
    for (i, &x) in a.iter().enumerate() {
        let mut carry = 0u128;
        for (j, &y) in b.iter().enumerate().take(N.saturating_sub(i)) {
            let t = x as u128 * y as u128 + out[i + j] as u128 + carry;
            out[i + j] = t as u64;
            carry = t >> 64;
        }
        if i + b.len() < N {
            out[i + b.len()] = carry as u64;
        }
    }
    out
}

/// |v| as `N` little-endian limbs.
///
/// # Panics
///
/// Panics if |v| does not fit.
pub(crate) fn mag_limbs<const N: usize>(v: &Int) -> [u64; N] {
    let mut out = [0u64; N];
    for (i, &l) in v.limbs().iter().enumerate() {
        out[i / 2] |= (l as u64) << (32 * (i % 2));
    }
    out
}

/// v as an `i128`.
///
/// # Panics
///
/// Panics if v does not fit.
fn to_i128(v: &Int) -> i128 {
    assert!(v.bits() < 128, "{v} does not fit in i128");
    let [lo, hi] = mag_limbs::<2>(v);
    let mag = (((hi as u128) << 64) | lo as u128) as i128;
    if v.is_negative() {
        -mag
    } else {
        mag
    }
}

/// The fixed-width forms of [`constants`].
struct FixedConstants {
    d0: i128,
    d1: i128,
    /// |s_i| and the sign of s_i.
    s_mag: [[u64; 2]; 2],
    s_neg: [bool; 2],
    /// ⌊2²⁵⁶·|s_i|/n⌋: k·g_i/2²⁵⁶ estimates |λ_i| = |s_i|·k/n from
    /// below, by less than 1 for k < 2²⁵⁶.
    g: [[u64; 3]; 2],
    n: [u64; 4],
    n_wide: I256,
    /// (n + 1)/2: for odd n, 2r ≥ n ⟺ r ≥ (n + 1)/2.
    half_n: I256,
}

fn fixed_constants() -> &'static FixedConstants {
    static FIXED: OnceLock<FixedConstants> = OnceLock::new();
    FIXED.get_or_init(|| {
        let c = constants();
        let n = &c.norm;
        let g = |s: &Int| mag_limbs(&s.abs().shl(256).divrem_floor(n).0);
        let wide = |v: &Int| I256::from_limbs(mag_limbs(v));
        FixedConstants {
            d0: to_i128(&c.d0),
            d1: to_i128(&c.d1),
            s_mag: [mag_limbs(&c.s0), mag_limbs(&c.s1)],
            s_neg: [c.s0.is_negative(), c.s1.is_negative()],
            g: [g(&c.s0), g(&c.s1)],
            n: mag_limbs(n),
            n_wide: wide(n),
            half_n: wide(&(n + &Int::one()).shr(1)),
        }
    })
}

impl FixedConstants {
    /// `divrem_round(|s_i|·k, n)` for k < 2²⁵⁶, as (f mod 2¹²⁸, r):
    /// the reciprocal estimate f̂ = ⌊k·g_i/2²⁵⁶⌋ is ⌊|λ_i|⌋ or one less,
    /// so r = |s_i|·k − f̂·n lies in [0, 2n) and at most two corrections
    /// bring it into [−n/2, n/2). r is exact from its value mod 2²⁵⁶.
    fn round_div(&self, i: usize, k: &[u64; 4]) -> (u128, I256) {
        let est: [u64; 7] = mul_limbs(k, &self.g[i]);
        let f_hat = [est[4], est[5], est[6]];
        let a_low = I256::from_limbs(mul_limbs(&self.s_mag[i], k));
        let mut r = a_low - I256::from_limbs(mul_limbs(&f_hat, &self.n));
        let mut f = ((f_hat[1] as u128) << 64) | f_hat[0] as u128;
        debug_assert!(r >= I256::ZERO && r < self.n_wide + self.n_wide);
        while r >= self.half_n {
            r = r - self.n_wide;
            f = f.wrapping_add(1);
        }
        (f, r)
    }

    /// [`partmod`] on fixed-width integers, for 0 ≤ k < 2²⁵⁶.
    ///
    /// λ_i = s_i·k/n is rounded as |s_i|·k/n and then signed: n is
    /// odd, so the quotient never lies halfway between two integers and
    /// rounding commutes with negation. Round-off then needs only the
    /// remainders' bands, compared exactly in 256 bits.
    ///
    /// ρ = k − qδ is computed mod 2¹²⁸ with wrapping `i128` arithmetic,
    /// which is exact because each |ρ_i| < 2¹¹⁶. Round-off leaves
    /// N(ρ) ≤ 4n/7 (Solinas), and n < 2²³². The norm
    /// N(r₀ + r₁τ) = (r₀ − r₁/2)² + 7r₁²/4 = 2(r₁ − r₀/4)² + 7r₀²/8
    /// bounds |r₀| by √(8N/7) < 0.81·2¹¹⁶ and |r₁| by √(4N/7) < 0.58·2¹¹⁶.
    fn partmod(&self, k: &[u64; 4]) -> (i128, i128) {
        let signed = |i: usize| {
            let (f, r) = self.round_div(i, k);
            if self.s_neg[i] {
                ((f as i128).wrapping_neg(), -r)
            } else {
                (f as i128, r)
            }
        };
        let ((f0, r0), (f1, r1)) = (signed(0), signed(1));
        let n = self.n_wide;
        let two_n = n + n;
        let mu_r1 = r1.times(MU);
        let (h0, h1) = round_off_correction(
            band(&(r0 + r0 + mu_r1), &-n, &n),
            band(&(r0 - mu_r1.times(3)), &-n, &n),
            band(&(r0 + mu_r1.times(4)), &-two_n, &two_n),
        );
        let (q0, q1) = (f0.wrapping_add(h0 as i128), f1.wrapping_add(h1 as i128));
        // ρ = k − qδ, with qδ = (q₀d₀ − 2q₁d₁) + (q₀d₁ + q₁d₀ + μq₁d₁)τ.
        let q1d1 = q1.wrapping_mul(self.d1);
        let qd0 = q0.wrapping_mul(self.d0).wrapping_sub(q1d1.wrapping_mul(2));
        let qd1 = q0
            .wrapping_mul(self.d1)
            .wrapping_add(q1.wrapping_mul(self.d0))
            .wrapping_add(q1d1.wrapping_mul(MU as i128));
        let k_low = (((k[1] as u128) << 64) | k[0] as u128) as i128;
        (k_low.wrapping_sub(qd0), qd1.wrapping_neg())
    }
}

impl Window {
    /// One step of the fixed-width digit loop on a non-zero
    /// ρ = r₀ + r₁τ: take the digit u, subtract α_u, divide by τ.
    ///
    /// The iterates keep the 2¹¹⁶ bound of [`FixedConstants::partmod`]:
    /// N is a positive-definite quadratic form, so √N obeys the triangle
    /// inequality, and dividing by τ halves N (N(τ) = 2). One step maps
    /// √N to at most (√N + √N(α))/√2, which does not grow while
    /// √N ≥ (1 + √2)·√N(α). The representatives are short
    /// (N(α) < 2^(w+1)), so √N stays below max(√N(ρ), 2.5·2^((w+1)/2)).
    fn step(&self, r: &mut (i128, i128)) -> i8 {
        let (mut r0, mut r1) = *r;
        let s = self.digit(r0 as i64, r1 as i64);
        if s != 0 {
            let (beta, gamma) = self.alpha(s);
            r0 -= beta as i128;
            r1 -= gamma as i128;
        }
        let half = r0 >> 1;
        *r = (if MU == -1 { r1 - half } else { r1 + half }, -half);
        s as i8
    }
}

/// Full recoding pipeline for a scalar: reduce mod δ, then take the
/// width-w TNAF, zero-padded to the fixed [`recode_length`] (trailing
/// zeros are on the most-significant side, where every consumer either
/// applies the Frobenius to the point at infinity — a no-op — or skips
/// the zero digit). ≈ m/(w+1) digits are non-zero.
///
/// Runs on fixed-width integers and returns the same digits as the
/// `Int` pipeline [`recode_int`]. w = 1 runs the width-2 loop: the
/// plain TNAF is the width-2 TNAF, whose only representative is α₁ = 1.
///
/// # Panics
///
/// Panics if `w` is outside 1..=8, or if `k` is an `Int` that is
/// negative or has more than 256 bits.
pub fn recode(k: impl Into<U256>, w: u32) -> Vec<i8> {
    let k = k.into();
    assert!((1..=8).contains(&w), "window width 1..=8");
    let win = window(w.max(2));
    let mut r = fixed_constants().partmod(&k.0);
    let mut digits = Vec::with_capacity(recode_length());
    while r != (0, 0) {
        digits.push(win.step(&mut r));
    }
    debug_assert!(digits.len() <= recode_length(), "TNAF overran m + 6");
    digits.resize(recode_length(), 0);
    digits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curve::{generator, order, Affine};
    use prng::SplitMix64;

    /// Applies an element r0 + r1τ of ℤ[τ] to a point using only the
    /// reference arithmetic.
    fn apply_zt(r0: &Int, r1: &Int, p: &Affine) -> Affine {
        let part = |r: &Int, q: &Affine| {
            let m = q.mul_binary(&r.abs());
            if r.is_negative() {
                m.negated()
            } else {
                m
            }
        };
        part(r0, p).add(&part(r1, &p.frobenius()))
    }

    /// Evaluates a width-w τ-adic digit string at a point. A non-zero
    /// digit u means "add α_u·P" (the window representative), so the
    /// evaluation computes α_u·P = β·P + γ·τ(P) from first principles.
    fn eval_digits(digits: &[i8], p: &Affine, w: u32) -> Affine {
        let mut acc = Affine::Infinity;
        for &d in digits.iter().rev() {
            acc = acc.frobenius();
            if d != 0 {
                let (beta, gamma) = if w == 1 {
                    (Int::from(d as i64), Int::zero())
                } else {
                    let (b, g) = alpha(d.unsigned_abs() as i64, w);
                    if d < 0 {
                        (b.negated(), g.negated())
                    } else {
                        (b, g)
                    }
                };
                acc = acc.add(&apply_zt(&beta, &gamma, p));
            }
        }
        acc
    }

    #[test]
    fn norm_of_delta_is_the_group_order() {
        // N(δ) = n — ties the Lucas-sequence computation to the SEC 2
        // constant.
        assert_eq!(constants().norm, order());
    }

    #[test]
    fn delta_times_tau_minus_one_is_tau_m_minus_one() {
        let c = constants();
        let (p0, p1) = zt_mul(&c.d0, &c.d1, &Int::from(-1i64), &Int::one());
        let (um, um1) = lucas_u(crate::curve_m());
        assert_eq!(p1, um);
        assert_eq!(p0, (&um1.shl(1) + &Int::one()).negated());
    }

    #[test]
    fn tau_mod_2w_is_an_even_root() {
        for w in 2..=8 {
            let t = tau_mod_2w(w) as u64;
            let modulus = 1u64 << w;
            assert_eq!(t % 2, 0);
            let lhs = (t * t + 2) % modulus;
            let rhs = (MU.rem_euclid(modulus as i64) as u64 * t) % modulus;
            assert_eq!(lhs, rhs, "w = {w}");
        }
    }

    #[test]
    fn alpha_is_congruent_to_u_mod_tau_w() {
        for w in 2u32..=8 {
            for i in 0..(1i64 << (w - 2)) {
                let u = 2 * i + 1;
                let (beta, gamma) = alpha(u, w);
                // (α − u) must be divisible by τʷ: multiply by conj(τʷ)
                // and check both coordinates divisible by 2ʷ.
                let diff0 = &beta - &Int::from(u);
                let (uw, uw1) = lucas_u(w as usize);
                let conj0 = &(&Int::from(MU) * &uw) - &uw1.shl(1);
                let conj1 = uw.negated();
                let (m0, m1) = zt_mul(&diff0, &gamma, &conj0, &conj1);
                let two_w = Int::one().shl(w as usize);
                assert!(m0.mod_positive(&two_w).is_zero(), "u={u} w={w}");
                assert!(m1.mod_positive(&two_w).is_zero(), "u={u} w={w}");
                // And the representative has small norm (< 2^w · 4/7·…;
                // generous bound 2^(w+1)).
                assert!(
                    zt_norm(&beta, &gamma) < Int::one().shl(w as usize + 1),
                    "norm too large for u={u} w={w}"
                );
                // The digit loop's table holds the same values.
                let small = window(w).alphas[i as usize];
                assert_eq!((Int::from(small.0), Int::from(small.1)), (beta, gamma));
            }
        }
        // w = 1 runs the width-2 loop, whose only representative is 1.
        assert_eq!(window(2).alphas, [(1, 0)]);
    }

    #[test]
    fn alpha_tnafs_are_tnafs_of_the_alphas() {
        for w in 2u32..=8 {
            let win = window(w);
            assert_eq!(win.alpha_tnafs().len(), win.alphas().len());
            for (digits, &(beta, gamma)) in win.alpha_tnafs().iter().zip(win.alphas()) {
                assert!(digits.iter().all(|d| (-1..=1).contains(d)), "w = {w}");
                assert!(
                    digits.windows(2).all(|p| p[0] == 0 || p[1] == 0),
                    "adjacent non-zero digits at w = {w}"
                );
                // Horner in ℤ[τ]: τ·(a₀ + a₁τ) = −2a₁ + (a₀ + μa₁)τ.
                let value = digits.iter().rev().fold((0i64, 0i64), |(a0, a1), &d| {
                    (-2 * a1 + d as i64, a0 + MU * a1)
                });
                assert_eq!(value, (beta, gamma), "w = {w}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "only for i >= 1")]
    fn lucas_u_rejects_index_zero() {
        lucas_u(0);
    }

    #[test]
    fn tnaf_of_small_integers_evaluates_correctly() {
        let g = generator();
        for k in 1..40i64 {
            let digits = tnaf(Int::from(k), Int::zero());
            assert_eq!(
                eval_digits(&digits, &g, 1),
                g.mul_binary(&Int::from(k)),
                "k = {k}"
            );
        }
    }

    #[test]
    fn tnaf_has_no_adjacent_nonzeros() {
        let digits = tnaf(Int::from(0xDEADBEEFi64), Int::from(0x1234i64));
        for pair in digits.windows(2) {
            assert!(pair[0] == 0 || pair[1] == 0, "adjacent non-zeros");
        }
    }

    #[test]
    fn wtnaf_digits_are_odd_and_bounded() {
        for w in [4u32, 6] {
            let digits = wtnaf(Int::from(0x0123_4567_89AB_CDEFi64), Int::from(-98765i64), w);
            let bound = 1i8 << (w - 1);
            for &d in &digits {
                assert!(d == 0 || (d % 2 != 0 && d.abs() < bound), "digit {d} w={w}");
            }
            // Non-zeros at least w apart.
            let nz: Vec<usize> = digits
                .iter()
                .enumerate()
                .filter(|(_, &d)| d != 0)
                .map(|(i, _)| i)
                .collect();
            for pair in nz.windows(2) {
                assert!(pair[1] - pair[0] >= w as usize, "spacing {pair:?} w={w}");
            }
        }
    }

    #[test]
    fn wtnaf_evaluates_correctly_for_zt_elements() {
        let g = generator();
        for (a, b) in [(5i64, 0i64), (1, 1), (-7, 3), (1000, -999), (123456789, 42)] {
            let r0 = Int::from(a);
            let r1 = Int::from(b);
            let want = apply_zt(&r0, &r1, &g);
            for w in [4u32, 5, 6] {
                let digits = wtnaf(r0.clone(), r1.clone(), w);
                assert_eq!(eval_digits(&digits, &g, w), want, "({a},{b}) w={w}");
            }
        }
    }

    #[test]
    fn partmod_preserves_the_point_multiple() {
        let g = generator();
        for k in [
            Int::from(1i64),
            Int::from(0xFFFF_FFFFi64),
            Int::from_hex("123456789abcdef0fedcba9876543210").unwrap(),
            &order() - &Int::one(),
        ] {
            let (r0, r1) = partmod(&k);
            assert_eq!(apply_zt(&r0, &r1, &g), g.mul_binary(&k), "k = {k}");
        }
    }

    #[test]
    fn partmod_output_is_short() {
        // N(ρ) small ⟹ both components ≲ 2^(m/2 + 2); the TNAF length is
        // then ≤ m + 4.
        let k = &order() - &Int::from(12345i64);
        let (r0, r1) = partmod(&k);
        assert!(r0.bits() <= 120, "r0 has {} bits", r0.bits());
        assert!(r1.bits() <= 120, "r1 has {} bits", r1.bits());
        let digits = tnaf(r0, r1);
        assert!(
            digits.len() <= crate::curve_m() + 4,
            "TNAF length {}",
            digits.len()
        );
    }

    #[test]
    fn recode_pipeline_matches_mul_binary() {
        let g = generator();
        for seed in 1..6u64 {
            let k = Int::from_hex(&format!("{:x}", seed).repeat(50)).unwrap();
            let k = k.mod_positive(&order());
            for w in [1u32, 4, 6] {
                let digits = recode(&k, w);
                assert_eq!(
                    eval_digits(&digits, &g, w),
                    g.mul_binary(&k),
                    "seed {seed} w={w}"
                );
                assert!(digits.len() <= crate::curve_m() + 6);
            }
        }
    }

    #[test]
    fn recode_length_is_scalar_independent() {
        // Regression: short scalars used to recode to short digit
        // strings, making every consumer's loop count (and cycle
        // count) leak the scalar's magnitude.
        let cases = [
            Int::one(),
            Int::from(3i64),
            Int::from(0x7FFFi64),
            &order() - &Int::one(),
            Int::from_hex(&"b7".repeat(29))
                .unwrap()
                .mod_positive(&order()),
        ];
        for w in [1u32, 4, 6] {
            for k in &cases {
                let digits = recode(k, w);
                assert_eq!(digits.len(), recode_length(), "k = {k}, w = {w}");
            }
        }
        // Padding must not change the evaluated point.
        let g = generator();
        let k = Int::from(3i64);
        assert_eq!(eval_digits(&recode(&k, 4), &g, 4), g.mul_binary(&k));
    }

    #[test]
    fn recode_density_matches_theory() {
        // Expected non-zero density of a width-w TNAF is 1/(w+1).
        let k = Int::from_hex(&"a5".repeat(29))
            .unwrap()
            .mod_positive(&order());
        for w in [4u32, 6] {
            let digits = recode(&k, w);
            let nz = digits.iter().filter(|&&d| d != 0).count() as f64;
            let density = nz / digits.len() as f64;
            let expect = 1.0 / (w as f64 + 1.0);
            assert!(
                (density - expect).abs() < 0.08,
                "w={w}: density {density:.3} vs {expect:.3}"
            );
        }
    }

    /// 0, 1, n − 1, n, n + 1, 2²³², 2²³³ − 1 and the widest input.
    fn edges() -> Vec<Int> {
        let n = order();
        vec![
            Int::zero(),
            Int::one(),
            &n - &Int::one(),
            n.clone(),
            &n + &Int::one(),
            Int::one().shl(232),
            &Int::one().shl(233) - &Int::one(),
            &Int::one().shl(256) - &Int::one(),
        ]
    }

    /// A seeded non-negative scalar of 1..=32 random bytes.
    fn seeded(rng: &mut SplitMix64) -> Int {
        let mut bytes = vec![0u8; 1 + rng.below(32) as usize];
        rng.fill_bytes(&mut bytes);
        Int::from_be_bytes(&bytes)
    }

    fn fits_116(v: i128) -> bool {
        v.unsigned_abs() < 1 << 116
    }

    fn to_int(v: i128) -> Int {
        let m = v.unsigned_abs();
        Int::from_limbs(
            v < 0,
            vec![
                m as u32,
                (m >> 32) as u32,
                (m >> 64) as u32,
                (m >> 96) as u32,
            ],
        )
    }

    #[test]
    fn fixed_recode_matches_the_int_pipeline() {
        let mut rng = SplitMix64::new(0x7e_c0de);
        let mut inputs = edges();
        inputs.extend((0..300).map(|_| seeded(&mut rng)));
        for k in &inputs {
            for w in 1..=8 {
                assert_eq!(recode(k, w), recode_int(k, w), "k = {k}, w = {w}");
            }
        }
    }

    #[test]
    fn partmod_and_digit_loop_fit_in_116_bits() {
        let mut rng = SplitMix64::new(0x11_6b17);
        let mut inputs = edges();
        inputs.extend((0..20_000).map(|_| seeded(&mut rng)));
        let fixed = fixed_constants();
        for (i, k) in inputs.iter().enumerate() {
            let rho = fixed.partmod(&U256::from(k).0);
            assert!(fits_116(rho.0) && fits_116(rho.1), "k = {k}: {rho:?}");
            if i % 10 == 0 {
                let (r0, r1) = partmod(k);
                assert_eq!((to_int(rho.0), to_int(rho.1)), (r0, r1), "k = {k}");
            }
            for w in [1u32, 4, 6] {
                let win = window(w.max(2));
                let mut r = rho;
                while r != (0, 0) {
                    win.step(&mut r);
                    assert!(fits_116(r.0) && fits_116(r.1), "k = {k}, w = {w}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at most 256 bits")]
    fn recode_rejects_scalars_wider_than_256_bits() {
        recode(&Int::one().shl(256), 4);
    }

    #[test]
    fn i256_order_and_arithmetic_are_twos_complement() {
        let one = I256 { hi: 0, lo: 1 };
        let minus_one = -one;
        assert_eq!(
            minus_one,
            I256 {
                hi: -1,
                lo: u128::MAX
            }
        );
        assert!(minus_one < I256::ZERO && I256::ZERO < one);
        let big = I256 { hi: 1, lo: 0 };
        assert!(-big < minus_one);
        assert_eq!(
            big - one,
            I256 {
                hi: 0,
                lo: u128::MAX
            }
        );
        assert_eq!(
            one.times(-4),
            I256 {
                hi: -1,
                lo: u128::MAX - 3
            }
        );
        assert_eq!(big.times(3) - big - big - big, I256::ZERO);
    }
}
