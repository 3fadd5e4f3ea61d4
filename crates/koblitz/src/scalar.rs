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
//! # Inversion: safegcd
//!
//! Both inverses run the Bernstein–Yang safegcd ("Fast constant-time
//! gcd computation and modular inversion", TCHES 2019) as
//! libsecp256k1's `modinv64` lays it out. f = n and g = a sit on signed
//! 62-bit limbs. Each batch of divsteps works on the low 64 bits of f
//! and g alone and yields a 2×2 transition matrix scaled by 2⁶². The
//! matrix then updates (f, g) and the Bézout coefficients (d, e) mod n.
//! Once g = 0, f = ±1 and d = ±a⁻¹. One `update_de`, one `update_fg`
//! and one `normalize` serve both entry points:
//!
//! * [`Scalar::invert`] is constant time. It runs 10 batches of 59
//!   divsteps, each step the same masked operations, with no early
//!   exit. 590 divsteps suffice: with δ starting at ½, g reaches 0
//!   within 590 divsteps for every odd modulus below 2²⁵⁶ and every
//!   input below it. libsecp256k1's `doc/safegcd_implementation.md`
//!   derives that bound with the paper's convex-hull method, and
//!   n < 2²³². The tests count the batches g needs: at most 9 of the
//!   10 on 10 000 seeded inputs and the edges. The signing nonce's k⁻¹
//!   uses it.
//! * [`Scalar::invert_public`] is variable time, for public values
//!   only: verification's s⁻¹. Its batches of 62 divsteps skip runs of
//!   zero bits with `trailing_zeros` and cancel up to six bits of g per
//!   odd step. The limbs shrink with f and g, and it stops once g = 0.
//!   Its time depends on its input, as `Fe::invert_public`'s does.
//!
//! Both return the same number, and [`Scalar::batch_invert`] and
//! [`Scalar::batch_invert_public`] share one Montgomery chain around
//! them.
//!
//! # `Int` as the oracle
//!
//! [`Scalar::new`] and [`Scalar::to_int`] convert to and from the
//! arbitrary-precision [`Int`], for set-up, the modeled paths and the
//! oracles, and `Display` prints the `0x…` form `Int` prints. The `scalar_int/scalar_fixed` tier pair of the
//! differential harness checks every operation here against `Int`:
//! [`Int::mod_positive`] for the ring operations and reductions, and the
//! extended Euclid [`Int::mod_inverse`] for the inversion; the
//! `scalar_int/scalar_inv_public` pair checks the public inverses
//! against the same oracle.

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

/// R² mod n: multiplying by it in Montgomery form enters the domain.
const R2: [u64; 4] = pow2_mod_n(512);

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

/// The low 62 bits of a limb.
const M62: u64 = u64::MAX >> 2;

/// Σ vᵢ·2⁶²ⁱ on four signed-62 limbs: limbs 0..3 lie in [0, 2⁶²) and
/// the top limb carries the sign. 248 bits hold every value the
/// inversion meets, all of magnitude below 2n < 2²³³.
type Signed62 = [i64; 4];

/// n in signed-62 limbs.
const N62: Signed62 = to_signed62(&N);

/// n⁻¹ mod 2⁶², the factor that clears the low limb in [`update_de`].
const N62_INV: u64 = N0_INV.wrapping_neg() & M62;

/// Divsteps per batch of the constant-time inversion.
const CT_DIVSTEPS: u32 = 59;

/// Batches of the constant-time inversion: 10 × 59 = 590 divsteps,
/// the bound for any modulus below 2²⁵⁶ (see the module docs).
const CT_BATCHES: usize = 10;

/// Four limbs below 2²⁴⁸ as signed-62 limbs.
const fn to_signed62(a: &[u64; 4]) -> Signed62 {
    [
        (a[0] & M62) as i64,
        ((a[0] >> 62 | a[1] << 2) & M62) as i64,
        ((a[1] >> 60 | a[2] << 4) & M62) as i64,
        (a[2] >> 58 | a[3] << 6) as i64,
    ]
}

/// A normalised value in [0, 2²⁴⁸) back to four limbs.
fn from_signed62(v: &Signed62) -> [u64; 4] {
    let v = v.map(|l| l as u64);
    [
        v[0] | v[1] << 62,
        v[1] >> 2 | v[2] << 60,
        v[2] >> 4 | v[3] << 58,
        v[3] >> 6,
    ]
}

/// The 2×2 transition matrix [u v; q r] of one batch of divsteps,
/// scaled by 2⁶²: the batch maps (f, g) to ((u·f + v·g)/2⁶²,
/// (q·f + r·g)/2⁶²). Its entries lie in [−2⁶², 2⁶²].
struct Trans {
    u: i64,
    v: i64,
    q: i64,
    r: i64,
}

/// 59 divsteps on the low bits of f and g at a fixed sequence of
/// operations: every choice is a mask. `zeta` is −(δ + ½), where δ
/// starts at ½. The matrix starts at 8 = 2³ so that 59 steps leave it
/// scaled by 2⁶², as [`update_de`] and [`update_fg`] expect.
#[inline(always)]
fn divsteps_59(mut zeta: i64, f0: u64, g0: u64) -> (i64, Trans) {
    let (mut u, mut v, mut q, mut r) = (8u64, 0u64, 0u64, 8u64);
    let (mut f, mut g) = (f0, g0);
    for _ in 0..CT_DIVSTEPS {
        debug_assert_eq!(f & 1, 1, "f stays odd");
        // neg: ζ < 0 (δ > 0); odd: g is odd.
        let neg = (zeta >> 63) as u64;
        let odd = (g & 1).wrapping_neg();
        // g += ±f and (q, r) += ±(u, v) when g is odd, minus when δ > 0.
        g = g.wrapping_add(((f ^ neg).wrapping_sub(neg)) & odd);
        q = q.wrapping_add(((u ^ neg).wrapping_sub(neg)) & odd);
        r = r.wrapping_add(((v ^ neg).wrapping_sub(neg)) & odd);
        // When both hold, δ → 1 − δ (ζ → −ζ − 2) and f takes the old g
        // (f + (g − f)); otherwise δ → 1 + δ (ζ → ζ − 1).
        let swap = neg & odd;
        zeta = (zeta ^ swap as i64) - 1;
        f = f.wrapping_add(g & swap);
        u = u.wrapping_add(q & swap);
        v = v.wrapping_add(r & swap);
        g >>= 1;
        u <<= 1;
        v <<= 1;
    }
    let t = Trans {
        u: u as i64,
        v: v as i64,
        q: q as i64,
        r: r as i64,
    };
    (zeta, t)
}

/// Up to 62 divsteps in variable time: a run of zero low bits of g is
/// one shift (`trailing_zeros`), and each odd step cancels up to six
/// low bits of g at once with a multiple of f (f⁻¹ mod 2⁶ by one
/// Newton step, or mod 2⁴ when δ ≤ 0). `eta` is −δ, where δ starts at
/// 1. The matrix is scaled by 2⁶².
fn divsteps_62_public(mut eta: i64, f0: u64, g0: u64) -> (i64, Trans) {
    let (mut u, mut v, mut q, mut r) = (1u64, 0u64, 0u64, 1u64);
    let (mut f, mut g) = (f0, g0);
    let mut left = 62u32;
    loop {
        // A sentinel bit stops the count at the steps left.
        let zeros = (g | (u64::MAX << left)).trailing_zeros();
        g >>= zeros;
        u <<= zeros;
        v <<= zeros;
        eta -= zeros as i64;
        left -= zeros;
        if left == 0 {
            break;
        }
        debug_assert_eq!(f & g & 1, 1, "f and g are odd here");
        let swapped = eta < 0;
        if swapped {
            // δ > 0: (δ, f, g) → (−δ, g, −f); the step's g + f follows.
            eta = -eta;
            (f, g) = (g, f.wrapping_neg());
            (u, q) = (q, u.wrapping_neg());
            (v, r) = (r, v.wrapping_neg());
        }
        // Cancel no more than `left` bits, and no more than η + 1: then
        // the sign of η flips again.
        let limit = (eta + 1).min(left as i64) as u32;
        let (mask, w) = if swapped {
            let mask = (u64::MAX >> (64 - limit)) & 63;
            // f·(f² − 2) ≡ −f⁻¹ (mod 2⁶), so w ≡ −g·f⁻¹.
            let w = f
                .wrapping_mul(g)
                .wrapping_mul(f.wrapping_mul(f).wrapping_sub(2));
            (mask, w & mask)
        } else {
            let mask = (u64::MAX >> (64 - limit)) & 15;
            // f + ((f + 1) & 4)·2 ≡ f⁻¹ (mod 2⁴).
            let inv = f.wrapping_add((f.wrapping_add(1) & 4) << 1);
            (mask, inv.wrapping_neg().wrapping_mul(g) & mask)
        };
        g = g.wrapping_add(f.wrapping_mul(w));
        q = q.wrapping_add(u.wrapping_mul(w));
        r = r.wrapping_add(v.wrapping_mul(w));
        debug_assert_eq!(g & mask, 0);
    }
    let t = Trans {
        u: u as i64,
        v: v as i64,
        q: q as i64,
        r: r as i64,
    };
    (eta, t)
}

/// (d, e) → (t·(d, e) + n·(md, me))/2⁶², with md and me chosen so that
/// the division is exact: the Bézout coefficients follow the matrix
/// mod n. Inputs and outputs lie in (−2n, n).
#[inline(always)]
fn update_de(d: &mut Signed62, e: &mut Signed62, t: &Trans) {
    let (u, v, q, r) = (t.u as i128, t.v as i128, t.q as i128, t.r as i128);
    // md, me start at [u, q] if d is negative plus [v, r] if e is, which
    // keeps the result above −2n.
    let (sd, se) = (d[3] >> 63, e[3] >> 63);
    let mut md = (t.u & sd) + (t.v & se);
    let mut me = (t.q & sd) + (t.r & se);
    let mut cd = u * d[0] as i128 + v * e[0] as i128;
    let mut ce = q * d[0] as i128 + r * e[0] as i128;
    // Correct md, me so that the low 62 bits of the sums vanish.
    md -= (N62_INV.wrapping_mul(cd as u64).wrapping_add(md as u64) & M62) as i64;
    me -= (N62_INV.wrapping_mul(ce as u64).wrapping_add(me as u64) & M62) as i64;
    cd += N62[0] as i128 * md as i128;
    ce += N62[0] as i128 * me as i128;
    debug_assert_eq!((cd as u64 | ce as u64) & M62, 0);
    cd >>= 62;
    ce >>= 62;
    for i in 1..4 {
        cd += u * d[i] as i128 + v * e[i] as i128 + N62[i] as i128 * md as i128;
        ce += q * d[i] as i128 + r * e[i] as i128 + N62[i] as i128 * me as i128;
        d[i - 1] = (cd as u64 & M62) as i64;
        e[i - 1] = (ce as u64 & M62) as i64;
        cd >>= 62;
        ce >>= 62;
    }
    d[3] = cd as i64;
    e[3] = ce as i64;
}

/// (f, g) → t·(f, g)/2⁶² on the low `len` limbs (the divsteps made
/// the low 62 bits of both products zero). The constant-time inversion
/// always passes 4; the public one shrinks `len` as f and g shrink.
#[inline(always)]
fn update_fg(len: usize, f: &mut Signed62, g: &mut Signed62, t: &Trans) {
    let (u, v, q, r) = (t.u as i128, t.v as i128, t.q as i128, t.r as i128);
    let mut cf = u * f[0] as i128 + v * g[0] as i128;
    let mut cg = q * f[0] as i128 + r * g[0] as i128;
    debug_assert_eq!((cf as u64 | cg as u64) & M62, 0);
    cf >>= 62;
    cg >>= 62;
    for i in 1..len {
        cf += u * f[i] as i128 + v * g[i] as i128;
        cg += q * f[i] as i128 + r * g[i] as i128;
        f[i - 1] = (cf as u64 & M62) as i64;
        g[i - 1] = (cg as u64 & M62) as i64;
        cf >>= 62;
        cg >>= 62;
    }
    f[len - 1] = cf as i64;
    g[len - 1] = cg as i64;
}

/// d in (−2n, n) to its residue in [0, n), negated first when `sign`
/// is negative (f ended at −1), with masks only.
#[inline(always)]
fn normalize(d: &mut Signed62, sign: i64) {
    let add_n = |d: &mut Signed62| {
        let neg = d[3] >> 63;
        for (l, n) in d.iter_mut().zip(N62) {
            *l += n & neg;
        }
    };
    let carry = |d: &mut Signed62| {
        for i in 0..3 {
            d[i + 1] += d[i] >> 62;
            d[i] &= M62 as i64;
        }
    };
    // (−2n, n) → (−n, n), then negate if asked.
    add_n(d);
    let negate = sign >> 63;
    for l in d.iter_mut() {
        *l = (*l ^ negate) - negate;
    }
    carry(d);
    // (−n, n) → [0, n).
    add_n(d);
    carry(d);
}

/// a⁻¹ mod n for 0 < a < n by 590 divsteps at a fixed sequence of
/// operations (f = ±1 at the end, so d = ±a⁻¹).
fn safegcd(a: &[u64; 4]) -> [u64; 4] {
    let (mut d, mut e) = ([0i64; 4], [1i64, 0, 0, 0]);
    let (mut f, mut g) = (N62, to_signed62(a));
    let mut zeta = -1i64;
    #[cfg(test)]
    let mut batches_to_zero = None;
    for _batch in 0..CT_BATCHES {
        let (z, t) = divsteps_59(zeta, f[0] as u64, g[0] as u64);
        zeta = z;
        update_de(&mut d, &mut e, &t);
        update_fg(4, &mut f, &mut g, &t);
        #[cfg(test)]
        if batches_to_zero.is_none() && g == [0; 4] {
            batches_to_zero = Some(_batch + 1);
        }
    }
    #[cfg(test)]
    tests::BATCHES_TO_ZERO.set(batches_to_zero);
    normalize(&mut d, f[3]);
    from_signed62(&d)
}

/// [`safegcd`] in variable time, for public inputs: 62-divstep batches
/// until g = 0, on limbs that shrink with f and g. With δ starting at
/// 1, Bernstein–Yang bound the divsteps for d-bit inputs by
/// ⌊(49d + 57)/17⌋, 672 for n's 232 bits: 11 batches. The loop stops
/// at 12 (libsecp256k1's bound for 256 bits) with a panic, not a hang.
fn safegcd_public(a: &[u64; 4]) -> [u64; 4] {
    let (mut d, mut e) = ([0i64; 4], [1i64, 0, 0, 0]);
    let (mut f, mut g) = (N62, to_signed62(a));
    let mut eta = -1i64;
    let mut len = 4;
    for _ in 0..12 {
        let (h, t) = divsteps_62_public(eta, f[0] as u64, g[0] as u64);
        eta = h;
        update_de(&mut d, &mut e, &t);
        update_fg(len, &mut f, &mut g, &t);
        if g[..len].iter().all(|&l| l == 0) {
            normalize(&mut d, f[len - 1]);
            return from_signed62(&d);
        }
        // Drop the top limb while it is only the sign of both f and g.
        let (fn_, gn) = (f[len - 1], g[len - 1]);
        if len > 1 && fn_ == fn_ >> 63 && gn == gn >> 63 {
            f[len - 2] |= ((fn_ as u64) << 62) as i64;
            g[len - 2] |= ((gn as u64) << 62) as i64;
            len -= 1;
        }
    }
    unreachable!("safegcd reaches g = 0 within 12 batches of 62 divsteps")
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

    /// The integers self + j·n for j = 0..=3, ascending. As n > 2²³¹,
    /// every integer below 2²³³ that is ≡ self (mod n) is one of them:
    /// ECDSA verification compares them with a projective x-coordinate
    /// instead of reducing x mod n.
    pub fn lifts(&self) -> [U256; 4] {
        let mut acc = self.0;
        std::array::from_fn(|_| {
            let lift = U256(acc);
            let mut carry = 0;
            for (a, n) in acc.iter_mut().zip(N) {
                (*a, carry) = adc(*a, n, carry);
            }
            lift
        })
    }

    /// Multiplicative inverse mod n (n is prime), or `None` for zero.
    ///
    /// Constant time: safegcd with 10 batches of 59 masked divsteps,
    /// whatever the value of `self` (see the module docs). This is the
    /// inverse for secrets, such as the signing nonce.
    pub fn invert(&self) -> Option<Scalar> {
        (!self.is_zero()).then(|| Scalar(safegcd(&self.0)))
    }

    /// [`Scalar::invert`] for **public** values only: safegcd in
    /// variable time. Its divstep batches skip runs of zero bits and it
    /// stops as soon as g = 0, so its running time depends on `self`.
    /// Verification's s⁻¹ is its one caller.
    ///
    /// ```
    /// use koblitz::{Int, Scalar};
    /// let a = Scalar::new(Int::from(5i64));
    /// assert_eq!(a.invert_public(), a.invert());
    /// ```
    pub fn invert_public(&self) -> Option<Scalar> {
        (!self.is_zero()).then(|| Scalar(safegcd_public(&self.0)))
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
        batch_invert_with(elems, Scalar::invert)
    }

    /// [`Scalar::batch_invert`] for **public** values: the same chain
    /// with its one inversion by [`Scalar::invert_public`].
    ///
    /// # Panics
    ///
    /// Panics if any element is zero.
    pub fn batch_invert_public(elems: &[Scalar]) -> Vec<Scalar> {
        batch_invert_with(elems, Scalar::invert_public)
    }
}

/// The Montgomery chain of [`Scalar::batch_invert`], with its one
/// inversion passed in.
fn batch_invert_with(elems: &[Scalar], invert: fn(&Scalar) -> Option<Scalar>) -> Vec<Scalar> {
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
    let mut inv_acc = invert(&prods[elems.len() - 1])
        .expect("a product of non-zero scalars mod a prime is non-zero");
    let mut out = vec![Scalar::zero(); elems.len()];
    for i in (1..elems.len()).rev() {
        out[i] = inv_acc.mul(&prods[i - 1]);
        inv_acc = inv_acc.mul(&elems[i]);
    }
    out[0] = inv_acc;
    out
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

impl From<U256> for Int {
    fn from(k: U256) -> Int {
        let limbs = k.0.iter().flat_map(|&l| [l as u32, (l >> 32) as u32]);
        Int::from_limbs(false, limbs.collect())
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
        assert_eq!(Scalar(R2).to_int(), (&r * &r).mod_positive(&n));
        assert_eq!(N[0].wrapping_mul(N0_INV), u64::MAX, "n·(−n⁻¹) ≡ −1");
        assert_eq!(
            (N62[0] as u64).wrapping_mul(N62_INV) & M62,
            1,
            "n·n⁻¹ ≡ 1 (mod 2⁶²)"
        );
        assert_eq!(from_signed62(&N62), N);
        assert!(N62.iter().all(|&l| (0..1 << 62).contains(&l)));
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

    /// Inputs that stress the divstep loop: 1, 2, 3, n − 1, n − 2,
    /// 2⁶², 2¹²⁴, 2¹⁸⁶ and 2²³¹ mod n (one set bit at a limb edge), 2²³²
    /// − 1 mod n, values with 60 and more trailing zero bits, and a
    /// value just below n with 100.
    fn divstep_edges() -> Vec<Scalar> {
        let n = order();
        let mut edges: Vec<Scalar> = [1i64, 2, 3, 65537, 0x7FFF_FFFF].map(s).to_vec();
        edges.extend(
            [
                &n - &Int::one(),
                &n - &Int::from(2i64),
                Int::one().shl(62),
                Int::one().shl(124),
                Int::one().shl(186),
                Int::one().shl(231),
                &Int::one().shl(232) - &Int::one(),
                Int::from(3i64).shl(60),
                &Int::one().shl(231) - &Int::one().shl(60),
                &Int::one().shl(231) + &Int::one().shl(64),
                Int::from(0x1234_5678_9abc_def1i64).shl(120),
                &n - &Int::one().shl(100),
            ]
            .map(Scalar::new),
        );
        edges
    }

    /// The edges, then `count` seeded 40-byte reductions.
    fn inversion_inputs(count: usize) -> Vec<Scalar> {
        let mut inputs = divstep_edges();
        let mut rng = prng::SplitMix64::new(0x696E_7665_7273);
        for _ in 0..count {
            let mut bytes = [0u8; 40];
            rng.fill_bytes(&mut bytes);
            inputs.push(Scalar::from_wide_bytes(&bytes));
        }
        inputs
    }

    #[test]
    fn inversion() {
        let n = order();
        for a in &inversion_inputs(64) {
            let inv = a.invert().expect("non-zero");
            assert!(inv.to_int() < n, "inverse of {a} is not canonical");
            assert_eq!(a.mul(&inv), Scalar::one(), "a = {a}");
            assert_eq!(a.invert_public(), Some(inv), "public inverse of {a}");
            assert_eq!(Some(inv.to_int()), a.to_int().mod_inverse(&n), "a = {a}");
        }
        assert_eq!(Scalar::zero().invert(), None);
        assert_eq!(Scalar::zero().invert_public(), None);
    }

    thread_local! {
        /// The batch after which g of this thread's last constant-time
        /// inversion was first zero, set by [`safegcd`].
        pub(super) static BATCHES_TO_ZERO: std::cell::Cell<Option<usize>> =
            const { std::cell::Cell::new(None) };
    }

    /// The constant-time contract's headroom: g reaches 0 at least one
    /// batch before the fixed count ends, so the last batch (at least)
    /// only runs on g = 0.
    #[test]
    fn constant_time_inversion_finishes_a_batch_early() {
        let mut most = 0;
        for a in &inversion_inputs(10_000) {
            BATCHES_TO_ZERO.set(None);
            let inv = a.invert().expect("non-zero");
            assert_eq!(a.mul(&inv), Scalar::one(), "a = {a}");
            let batches = BATCHES_TO_ZERO.get().expect("g reaches zero");
            assert!(batches < CT_BATCHES, "{a} needed {batches} batches");
            most = most.max(batches);
        }
        assert!(most >= 2, "the counter saw the loop run");
    }

    #[test]
    fn lifts_are_the_representatives_below_2_to_the_233() {
        let n = order();
        let bound = Int::one().shl(233);
        for a in [Scalar::zero(), Scalar::one(), Scalar::one().negated()] {
            let lifts = a.lifts().map(|lift| Scalar(lift.0).to_int());
            for (j, lift) in lifts.iter().enumerate() {
                assert_eq!(
                    *lift,
                    &a.to_int() + &(&n * &Int::from(j as i64)),
                    "{a} + {j}n"
                );
            }
            // The next one would be at least 2²³³.
            assert!(&lifts[3] + &n >= bound, "{a}");
        }
    }

    #[test]
    fn batch_inversion_matches_pointwise() {
        let pool = inversion_inputs(130);
        for len in [0usize, 1, 2, 16, 130] {
            let batch = &pool[pool.len() - len..];
            let want: Vec<Scalar> = batch.iter().map(|a| a.invert().unwrap()).collect();
            assert_eq!(Scalar::batch_invert(batch), want, "len = {len}");
            assert_eq!(
                Scalar::batch_invert_public(batch),
                want,
                "public, len = {len}"
            );
        }
        let edges = divstep_edges();
        let want: Vec<Scalar> = edges.iter().map(|a| a.invert().unwrap()).collect();
        assert_eq!(Scalar::batch_invert_public(&edges), want);
    }

    #[test]
    #[should_panic(expected = "batch_invert of a zero scalar")]
    fn batch_inversion_rejects_zero() {
        Scalar::batch_invert(&[s(3), Scalar::zero(), s(5)]);
    }

    #[test]
    #[should_panic(expected = "batch_invert of a zero scalar")]
    fn public_batch_inversion_rejects_zero() {
        Scalar::batch_invert_public(&[s(3), Scalar::zero(), s(5)]);
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
