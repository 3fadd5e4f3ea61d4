//! Inversion via the Extended Euclidean Algorithm for binary polynomials
//! (§3.2.3).
//!
//! The paper's two memory optimisations are both implemented:
//!
//! 1. **Swap elimination** — instead of swapping the multi-precision
//!    state variables `u ↔ v` (many loads/stores), the algorithm is
//!    written as two code segments with the variable names interchanged,
//!    and control bounces between them. [`invert`] has exactly this
//!    two-segment shape.
//! 2. **Most-significant-word tracking** — the word index of the top
//!    non-zero word of each state variable is carried along, so computing
//!    a polynomial's degree and shifting it never scans the full vector.
//!
//! The optimised EEA is written once, generic over a crate-private
//! counting sink: [`invert`] runs it uncounted, and
//! [`crate::counted::inv_eea`] runs it with a live [`crate::Tally`] of
//! every load, store, XOR and shift. [`invert_simple`] is the textbook
//! variant kept as the independent reference.

use crate::counted::{Sink, Uncounted};
use crate::{Fe, K, M, N};

/// The reduction polynomial f(z) = z²³³ + z⁷⁴ + 1 as 8 words
/// (bit 233 = word 7, bit 9).
pub const F_WORDS: [u32; N] = {
    let mut f = [0u32; N];
    f[0] = 1;
    f[K / 32] |= 1 << (K % 32);
    f[M / 32] |= 1 << (M % 32);
    f
};

/// Degree of an n-word polynomial scanning only words `0..=top`, plus the
/// updated top index. Returns `(degree, top)`; degree is `usize::MAX`
/// (sentinel) for zero — callers never invert zero past the guard. Each
/// inspected word is one read; extracting the bit position on the hit is
/// charged as one shift (the CLZ-free bit hunt of a real M0+).
fn degree_tracked(a: &[u32; N], mut top: usize, s: &mut impl Sink) -> (usize, usize) {
    loop {
        s.read(1);
        if a[top] != 0 {
            s.shift(1);
            return (top * 32 + 31 - a[top].leading_zeros() as usize, top);
        }
        if top == 0 {
            return (usize::MAX, 0);
        }
        top -= 1;
    }
}

/// `a ^= b << j` over n words, touching only the words that can change.
/// `b_top` is the index of b's top non-zero word.
fn xor_shifted(a: &mut [u32; N], b: &[u32; N], j: usize, b_top: usize) {
    charged_xor_shifted(a, b, j, b_top, &mut Uncounted);
}

/// [`xor_shifted`] with its loads, stores, XORs and shifts charged to
/// `s`.
fn charged_xor_shifted(a: &mut [u32; N], b: &[u32; N], j: usize, b_top: usize, s: &mut impl Sink) {
    let wshift = j / 32;
    let bshift = (j % 32) as u32;
    if bshift == 0 {
        for i in 0..=b_top {
            if i + wshift < N {
                a[i + wshift] ^= b[i];
                s.read(2);
                s.xor(1);
                s.write(1);
            }
        }
    } else {
        for i in 0..=b_top {
            let w = b[i];
            s.read(1);
            s.shift(2); // LSL low half, LSR carry half
            if i + wshift < N {
                a[i + wshift] ^= w << bshift;
                s.read(1);
                s.xor(1);
                s.write(1);
            }
            if i + wshift + 1 < N {
                a[i + wshift + 1] ^= w >> (32 - bshift);
                s.read(1);
                s.xor(1);
                s.write(1);
            }
        }
    }
}

fn is_one(a: &[u32; N]) -> bool {
    a[0] == 1 && a[1..].iter().all(|&w| w == 0)
}

/// Computes a⁻¹ with the paper's optimised EEA (two code segments instead
/// of swaps, tracked most-significant words). Returns `None` for zero.
///
/// ```
/// use gf2m::Fe;
/// let a = Fe::from_hex("123456789abcdef")?;
/// assert_eq!(a * gf2m::inv::invert(a).expect("non-zero"), Fe::ONE);
/// # Ok::<(), gf2m::ParseFeError>(())
/// ```
pub fn invert(a: Fe) -> Option<Fe> {
    eea(a, &mut Uncounted)
}

/// The one optimised EEA behind [`invert`] and
/// [`crate::counted::inv_eea`], with every memory access and ALU word-op
/// charged to `s`.
pub(crate) fn eea(a: Fe, s: &mut impl Sink) -> Option<Fe> {
    if a.is_zero() {
        return None;
    }
    // State: u starts as a (degree ≤ 232), v as f. g1, g2 accumulate the
    // Bézout coefficients. f has degree 233, which still fits in 8 words.
    let mut u = a.0;
    let mut v = F_WORDS;
    let mut g1 = [0u32; N];
    g1[0] = 1;
    let mut g2 = [0u32; N];
    let mut u_top = N - 1;
    let mut v_top = N - 1;

    // Segment A operates with (u, g1) as the "active" pair; segment B is
    // the same code with the names interchanged — the paper's
    // swap-elimination. Rust lets us express the duplication with one
    // inner function called with the bindings crossed, which compiles to
    // the same two specialised paths while keeping the source honest.
    #[allow(clippy::too_many_arguments)]
    fn step(
        u: &mut [u32; N],
        g1: &mut [u32; N],
        u_top: &mut usize,
        v: &[u32; N],
        g2: &[u32; N],
        v_deg: usize,
        v_top: usize,
        g2_top: usize,
        s: &mut impl Sink,
    ) -> bool {
        // Reduce u by v while deg(u) >= deg(v).
        let mut u_deg;
        (u_deg, *u_top) = degree_tracked(u, *u_top, s);
        while u_deg != usize::MAX && u_deg >= v_deg {
            let j = u_deg - v_deg;
            charged_xor_shifted(u, v, j, v_top, s);
            charged_xor_shifted(g1, g2, j, g2_top, s);
            (u_deg, *u_top) = degree_tracked(u, *u_top, s);
        }
        s.read(N as u64);
        is_one(u)
    }

    loop {
        // --- Segment A: reduce u by v. ---
        let v_deg;
        (v_deg, v_top) = degree_tracked(&v, v_top, s);
        let (_, g2_top) = degree_tracked(&g2, N - 1, s);
        if step(
            &mut u, &mut g1, &mut u_top, &v, &g2, v_deg, v_top, g2_top, s,
        ) {
            return Some(Fe(g1));
        }
        if u.iter().all(|&w| w == 0) {
            // gcd(a, f) != 1 can only happen for a = 0, handled above;
            // reaching here would mean f is reducible.
            unreachable!("f(z) is irreducible");
        }

        // --- Segment B: the same operations with names interchanged. ---
        let u_deg;
        (u_deg, u_top) = degree_tracked(&u, u_top, s);
        let (_, g1_top) = degree_tracked(&g1, N - 1, s);
        if step(
            &mut v, &mut g2, &mut v_top, &u, &g1, u_deg, u_top, g1_top, s,
        ) {
            return Some(Fe(g2));
        }
    }
}

/// Textbook EEA inversion (with explicit swaps), kept as the reference
/// implementation that [`invert`] is validated against.
pub fn invert_simple(a: Fe) -> Option<Fe> {
    if a.is_zero() {
        return None;
    }
    let mut u = a.0;
    let mut v = F_WORDS;
    let mut g1 = [0u32; N];
    g1[0] = 1;
    let mut g2 = [0u32; N];

    fn deg(a: &[u32; N]) -> isize {
        for i in (0..N).rev() {
            if a[i] != 0 {
                return (i * 32 + 31 - a[i].leading_zeros() as usize) as isize;
            }
        }
        -1
    }

    while !is_one(&u) && !is_one(&v) {
        if deg(&u) < deg(&v) {
            std::mem::swap(&mut u, &mut v);
            std::mem::swap(&mut g1, &mut g2);
        }
        let j = (deg(&u) - deg(&v)) as usize;
        xor_shifted(&mut u, &v.clone(), j, N - 1);
        xor_shifted(&mut g1, &g2.clone(), j, N - 1);
    }
    Some(Fe(if is_one(&u) { g1 } else { g2 }))
}

/// Itoh–Tsujii inversion: a⁻¹ = a^(2²³³ − 2) computed with an addition
/// chain on m − 1 = 232 = 0b11101000 — the multiplication-based
/// alternative to the Euclidean approach. It needs only 10 field
/// multiplications and 232 squarings, so its cost profile is the
/// *opposite* of the EEA's (multiplication-bound instead of
/// shift/branch-bound); on platforms with fast squaring it can win.
/// Kept as an ablation of the paper's §3.2.3 choice, built from [`Fe`]'s
/// own operations (one dispatch per step); on a host with the carry-less
/// multiply, [`Fe::invert`] runs the same [`itoh_tsujii_chain`] inside
/// one feature-enabled call.
pub fn invert_itoh_tsujii(a: Fe) -> Option<Fe> {
    if a.is_zero() {
        return None;
    }
    Some(itoh_tsujii_chain(a, Fe::square_n, |x, y| x * y))
}

/// The Itoh–Tsujii addition chain: a^(2^233 − 2) from `square_n(x, k)`
/// = x^(2^k) and a multiplication, building e(k) = a^(2^k − 1) for
/// k = 1, 2, 3, 6, 7, 14, 28, 29, 58, 116, 232 via
/// e(i + j) = e(i)^(2^j) · e(j), then squaring once. Generic over the
/// element representation so [`invert_itoh_tsujii`] and the carry-less
/// kernels' inversion share one chain.
#[inline(always)]
pub(crate) fn itoh_tsujii_chain<T: Copy>(
    a: T,
    square_n: impl Fn(T, usize) -> T,
    mul: impl Fn(T, T) -> T,
) -> T {
    let e1 = a;
    let e2 = mul(square_n(e1, 1), e1);
    let e3 = mul(square_n(e2, 1), e1);
    let e6 = mul(square_n(e3, 3), e3);
    let e7 = mul(square_n(e6, 1), e1);
    let e14 = mul(square_n(e7, 7), e7);
    let e28 = mul(square_n(e14, 14), e14);
    let e29 = mul(square_n(e28, 1), e1);
    let e58 = mul(square_n(e29, 29), e29);
    let e116 = mul(square_n(e58, 58), e58);
    let e232 = mul(square_n(e116, 116), e116);
    // a⁻¹ = (a^(2^232 − 1))² = a^(2^233 − 2).
    square_n(e232, 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fe(seed: u64) -> Fe {
        let mut s = seed.wrapping_mul(0xD134_2543_DE82_EF95) | 1;
        let mut w = [0u32; N];
        for x in w.iter_mut() {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            *x = (s >> 17) as u32;
        }
        Fe::from_words_reduced(w)
    }

    #[test]
    fn f_words_is_the_trinomial() {
        assert_eq!(F_WORDS[0], 1); // z^0 term only in word 0
        assert_eq!(F_WORDS[2], 1 << 10); // z^74
        assert_eq!(F_WORDS[7], 1 << 9); // z^233
        let others: u32 = F_WORDS[1] | F_WORDS[3] | F_WORDS[4] | F_WORDS[5] | F_WORDS[6];
        assert_eq!(others, 0);
    }

    #[test]
    fn inverse_of_one_is_one() {
        assert_eq!(invert(Fe::ONE), Some(Fe::ONE));
        assert_eq!(invert_simple(Fe::ONE), Some(Fe::ONE));
    }

    #[test]
    fn inverse_of_zero_is_none() {
        assert_eq!(invert(Fe::ZERO), None);
        assert_eq!(invert_simple(Fe::ZERO), None);
    }

    #[test]
    fn a_times_inverse_is_one() {
        for seed in 0..30u64 {
            let a = fe(seed);
            if a.is_zero() {
                continue;
            }
            let inv = invert(a).expect("non-zero");
            assert_eq!(a * inv, Fe::ONE, "seed {seed}");
        }
    }

    #[test]
    fn optimized_matches_simple() {
        for seed in 0..30u64 {
            let a = fe(seed + 500);
            assert_eq!(invert(a), invert_simple(a), "seed {seed}");
        }
    }

    #[test]
    fn double_inversion_is_identity() {
        for seed in 0..10u64 {
            let a = fe(seed + 900);
            if a.is_zero() {
                continue;
            }
            let back = invert(invert(a).expect("non-zero")).expect("non-zero");
            assert_eq!(back, a);
        }
    }

    #[test]
    fn inverse_of_z_is_correct() {
        // z · z⁻¹ = 1; z⁻¹ = (z²³³ + z⁷⁴)/z ... = z²³² + z⁷³.
        let z = Fe::from_words_reduced([2, 0, 0, 0, 0, 0, 0, 0]);
        let inv = invert(z).expect("non-zero");
        let mut want = [0u32; N];
        want[232 / 32] |= 1 << (232 % 32);
        want[73 / 32] |= 1 << (73 % 32);
        assert_eq!(inv.words(), &want);
    }

    #[test]
    fn itoh_tsujii_matches_eea() {
        assert_eq!(invert_itoh_tsujii(Fe::ZERO), None);
        assert_eq!(invert_itoh_tsujii(Fe::ONE), Some(Fe::ONE));
        for seed in 0..20u64 {
            let a = fe(seed + 2000);
            assert_eq!(invert_itoh_tsujii(a), invert(a), "seed {seed}");
        }
    }

    #[test]
    fn itoh_tsujii_is_an_inverse() {
        let a = fe(4321);
        let inv = invert_itoh_tsujii(a).expect("non-zero");
        assert_eq!(a * inv, Fe::ONE);
    }

    #[test]
    fn small_elements() {
        for v in 1u32..64 {
            let a = Fe::from_words_reduced([v, 0, 0, 0, 0, 0, 0, 0]);
            let inv = invert(a).expect("non-zero");
            assert_eq!(a * inv, Fe::ONE, "v = {v}");
        }
    }
}
