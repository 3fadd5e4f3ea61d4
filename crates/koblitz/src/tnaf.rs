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

use crate::curve::MU;
use crate::int::Int;
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
/// τⁱ = U_i·τ − 2·U_{i−1}.
pub fn lucas_u(i: usize) -> (Int, Int) {
    let mut prev = Int::zero(); // U_0
    let mut cur = Int::one(); // U_1
    if i == 0 {
        return (Int::zero(), Int::one()); // (U_0, U_{-1} = conventionally 1? not used)
    }
    for _ in 1..i {
        let next = &(&Int::from(MU) * &cur) - &prev.shl(1);
        prev = cur;
        cur = next;
    }
    (cur, prev) // (U_i, U_{i-1})
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

/// Solinas round-off in ℤ\[τ\] (Guide to ECC Alg. 3.61): given the exact
/// rationals λ_i = (f_i·n + r_i)/n with r_i ∈ \[−n/2, n/2), returns the
/// rounded quotient (q₀, q₁) of minimal-norm remainder.
///
/// Any choice of (q₀, q₁) preserves the *value* k − qδ ≡ k; the
/// conditions below only minimise the remainder's norm (and hence the
/// expansion length), which the tests assert.
fn round_off(f0: &Int, r0: &Int, f1: &Int, r1: &Int, n: &Int) -> (Int, Int) {
    let mu = Int::from(MU);
    let mut h0 = Int::zero();
    let mut h1 = Int::zero();
    // η·n = 2r0 + μr1.
    let eta = &r0.shl(1) + &(&mu * r1);
    // (η0 − 3μη1)·n and (η0 + 4μη1)·n.
    let t3 = &r0.clone() - &(&(&mu * r1) * &Int::from(3i64));
    let t4 = &r0.clone() + &(&(&mu * r1) * &Int::from(4i64));
    let neg_n = n.negated();
    if eta >= *n {
        if t3 < neg_n {
            h1 = mu.clone();
        } else {
            h0 = Int::one();
        }
    } else if t4 >= n.shl(1) {
        h1 = mu.clone();
    }
    if eta < neg_n {
        if t3 >= *n {
            h1 = mu.negated();
        } else {
            h0 = Int::from(-1i64);
        }
    } else if t4 < n.shl(1).negated() {
        h1 = mu.negated();
    }
    (f0 + &h0, f1 + &h1)
}

/// Reduction ρ = k mod δ: returns (r₀, r₁) with ρ = r₀ + r₁τ,
/// ρ ≡ k (mod δ), and N(ρ) small enough that the TNAF of ρ has length
/// ≤ m + 4. For points in the prime-order subgroup, ρP = kP.
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
/// two consecutive non-zeros.
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

/// The representatives α_u for odd 0 < u < 2^(w−1), indexed by u/2:
/// built on first use of each width w ∈ 2..=8 and shared after that.
fn alpha_table(w: u32) -> &'static [(Int, Int)] {
    static TABLES: [OnceLock<Vec<(Int, Int)>>; 7] = [const { OnceLock::new() }; 7];
    TABLES[w as usize - 2].get_or_init(|| {
        (1..1i64 << (w - 1))
            .step_by(2)
            .map(|u| alpha(u, w))
            .collect()
    })
}

/// Width-w TNAF digits (least significant first): each digit is 0 or an
/// odd integer with |digit| < 2^(w−1), and any two non-zero digits are
/// at least w positions apart.
pub fn wtnaf(mut r0: Int, mut r1: Int, w: u32) -> Vec<i8> {
    assert!((2..=8).contains(&w), "window width 2..=8");
    let tw = tau_mod_2w(w) as i64;
    let half_window = 1i64 << (w - 1);
    let full = 1i64 << w;
    let alphas = alpha_table(w);

    let mut digits = Vec::new();
    while !r0.is_zero() || !r1.is_zero() {
        let u: i8 = if r0.is_odd() {
            // s = (r0 + r1·t_w) mods 2ʷ (signed residue).
            let low = (r0.low_bits(w) as i64 + r1.low_bits(w) as i64 * tw) % full;
            let mut s = low % full;
            if s >= half_window {
                s -= full;
            }
            debug_assert!(s % 2 != 0);
            let (beta, gamma) = {
                let (b, g) = &alphas[(s.unsigned_abs() as usize) / 2];
                if s < 0 {
                    (b.negated(), g.negated())
                } else {
                    (b.clone(), g.clone())
                }
            };
            r0 = &r0 - &beta;
            r1 = &r1 - &gamma;
            s as i8
        } else {
            0
        };
        digits.push(u);
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

/// Full recoding pipeline for a scalar: reduce mod δ, then take the
/// width-w TNAF, zero-padded to the fixed [`recode_length`] (trailing
/// zeros are on the most-significant side, where every consumer either
/// applies the Frobenius to the point at infinity — a no-op — or skips
/// the zero digit). ≈ m/(w+1) digits are non-zero.
pub fn recode(k: &Int, w: u32) -> Vec<i8> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curve::{generator, order, Affine};

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
        for w in [4u32, 5, 6] {
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
            }
        }
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
}
