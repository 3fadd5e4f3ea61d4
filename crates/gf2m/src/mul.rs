//! Field multiplication algorithms (§3.2.1, §3.3).
//!
//! All functions compute x(z)·y(z) mod f(z) and agree bit-for-bit; they
//! differ in how the 2n-word intermediate state is scanned and where it
//! would live on the target machine. The portable functions here are the
//! *reference semantics*. The López-Dahab window table, accumulate-and-
//! shift loop and rotating-register loop are each written once, generic
//! over a crate-private counting sink: the functions here pass a no-op
//! sink, and [`crate::counted`] runs the same loops with a live
//! [`crate::Tally`]. Where an accumulator word lives (memory, a fixed
//! register, the rotating window) only changes those charges. The
//! [`crate::modeled`] tier re-expresses the loops as virtual assembly.
//!
//! * [`mul_shift_and_add`] — right-to-left comb, no window (baseline).
//! * [`mul_ld`] — plain López-Dahab, window w = 4 (the paper's Method A).
//! * [`mul_ld_rotating`] — López-Dahab with rotating registers, the prior
//!   state of the art by Aranha et al. (Method B).
//! * [`mul_ld_fixed`] — the paper's **López-Dahab with fixed registers**
//!   (Method C, its Algorithm 1).
//! * [`mul_karatsuba`] — Karatsuba-Ofman on the word level, as used by
//!   several of the related-work implementations.

// Indexed loops below mirror the paper's Algorithm 1 pseudocode
// (v[l + k] ^= T[u][l]); iterator rewrites would obscure the mapping.
#![allow(clippy::needless_range_loop)]

use crate::counted::{Sink, Uncounted};
use crate::reduce::reduce;
use crate::{Fe, LD_WINDOW, N};

/// Number of outer iterations of the windowed loop: ⌈W / w⌉ = 8.
pub const LD_OUTER: usize = crate::W / LD_WINDOW;

/// Size of the López-Dahab look-up table: 2^w entries.
pub const LD_TABLE_ENTRIES: usize = 1 << LD_WINDOW;

/// Computes the unreduced 16-word product with the right-to-left comb
/// method (one bit of `x` at a time; the multi-precision shift runs over
/// the shifted copy of `y`).
pub fn mul_poly_comb(x: &[u32; N], y: &[u32; N]) -> [u32; 2 * N] {
    let mut c = [0u32; 2 * N];
    // b = y, widened by one word to absorb the left shifts.
    let mut b = [0u32; N + 1];
    b[..N].copy_from_slice(y);
    for k in 0..crate::W {
        for j in 0..N {
            if (x[j] >> k) & 1 == 1 {
                for (l, &bw) in b.iter().enumerate() {
                    c[j + l] ^= bw;
                }
            }
        }
        if k != crate::W - 1 {
            // b <<= 1.
            let mut carry = 0u32;
            for w in b.iter_mut() {
                let nc = *w >> 31;
                *w = (*w << 1) | carry;
                carry = nc;
            }
        }
    }
    c
}

/// The López-Dahab window table: entry `u` is u(z)·y(z).
pub(crate) type LdTable = [[u32; N]; LD_TABLE_ENTRIES];

/// Generates the López-Dahab window table T(u) = u(z)·y(z) for all
/// u of degree < w. With w = 4 and deg y ≤ 232 ≤ nW − (w − 1), every
/// entry fits in n = 8 words (the paper's equation (1), second case).
pub fn ld_table(y: &[u32; N]) -> [[u32; N]; LD_TABLE_ENTRIES] {
    build_ld_table(y, &mut Uncounted)
}

/// The one window-table builder, shared by every López-Dahab method and
/// charged to `s`: `y` is memory resident and every entry is stored.
pub(crate) fn build_ld_table(y: &[u32; N], s: &mut impl Sink) -> LdTable {
    let mut t = [[0u32; N]; LD_TABLE_ENTRIES];
    // T[0] = 0 comes from zero-initialised storage: n writes.
    s.write(N as u64);
    // T[1] = y: n reads + n writes.
    t[1] = *y;
    s.read(N as u64);
    s.write(N as u64);
    for u in 1..LD_TABLE_ENTRIES / 2 {
        // t[2u] = t[u] << 1: per word read, LSL, LSR (carry), OR, write.
        let mut carry = 0u32;
        for l in 0..N {
            let w = t[u][l];
            t[2 * u][l] = (w << 1) | carry;
            carry = w >> 31;
            s.read(1);
            s.shift(2);
            s.xor(1);
            s.write(1);
        }
        debug_assert_eq!(carry, 0, "table entry overflowed n words");
        // t[2u + 1] = t[2u] + y: per word 2 reads, XOR, write. The low
        // word of t[2u] is still in a register from the doubling, so one
        // read is saved there.
        for l in 0..N {
            t[2 * u + 1][l] = t[2 * u][l] ^ y[l];
            s.read(if l == 0 { 1 } else { 2 });
            s.xor(1);
            s.write(1);
        }
    }
    t
}

/// The one López-Dahab accumulate-and-shift loop (Methods A and C, and
/// every register budget of the ablation): v ^= T(window of x\[k\]) at
/// word offset k, then v <<= w between outer iterations.
///
/// `in_regs(i)` says whether accumulator word `i` is register resident.
/// It changes only the charges to `s` (a resident word is read and
/// written for free), never the value.
pub(crate) fn ld_accumulate(
    x: &[u32; N],
    t: &LdTable,
    in_regs: impl Fn(usize) -> bool + Copy,
    s: &mut impl Sink,
) -> [u32; 2 * N] {
    let mut v = [0u32; 2 * N];
    // Zero initialisation: only the memory-resident words are stores.
    s.write((0..2 * N).filter(|&i| !in_regs(i)).count() as u64);
    for j in (0..LD_OUTER).rev() {
        for k in 0..N {
            // Read x[k] and extract the window: LSR + AND (the AND
            // charged as an xor-class ALU op).
            let u = ((x[k] >> (LD_WINDOW * j)) & 0xF) as usize;
            s.read(1);
            s.shift(1);
            s.xor(1);
            for l in 0..N {
                let i = k + l;
                v[i] ^= t[u][l];
                s.read(1); // table word
                s.xor(1);
                if !in_regs(i) {
                    s.read(1);
                    s.write(1);
                }
            }
        }
        if j != 0 {
            shift_accumulator(&mut v, in_regs, s);
        }
    }
    v
}

/// v <<= w over the 2n-word accumulator: per word an LSL, an LSR
/// extracting the carry and an OR recombining them, plus a load and a
/// store when the word is memory resident.
fn shift_accumulator(v: &mut [u32; 2 * N], in_regs: impl Fn(usize) -> bool, s: &mut impl Sink) {
    let mut carry = 0u32;
    for (i, w) in v.iter_mut().enumerate() {
        let nc = *w >> (32 - LD_WINDOW as u32);
        *w = (*w << LD_WINDOW) | carry;
        carry = nc;
        s.shift(2);
        s.xor(1);
        if !in_regs(i) {
            s.read(1);
            s.write(1);
        }
    }
}

/// The rotating-register loop (Method B): during the k-loop a sliding
/// window of n + 1 accumulator words `v[k ..= k+n]` is register
/// resident; each pass spills one finished word and loads one new one.
/// The window only changes the charges to `s`; the accumulator is
/// updated in place.
pub(crate) fn ld_rotating(x: &[u32; N], t: &LdTable, s: &mut impl Sink) -> [u32; 2 * N] {
    let mut v = [0u32; 2 * N];
    // Zero initialisation of the memory image (the register window is
    // zeroed with register moves, but the spill region must be stores).
    s.write((2 * N) as u64);
    for j in (0..LD_OUTER).rev() {
        // Fill the window v[0..=n]: n + 1 loads.
        s.read((N + 1) as u64);
        for k in 0..N {
            let u = ((x[k] >> (LD_WINDOW * j)) & 0xF) as usize;
            s.read(1); // x[k]
            s.shift(1);
            s.xor(1);
            for l in 0..N {
                v[k + l] ^= t[u][l]; // register target: free
                s.read(1); // table word
                s.xor(1);
            }
            // Spill the finished word v[k] and rotate v[k+1+n] in.
            s.write(1);
            if k + 1 + N < 2 * N {
                s.read(1);
            }
        }
        // Write back the window tail (n words).
        s.write(N as u64);
        if j != 0 {
            shift_accumulator(&mut v, |_| false, s);
        }
    }
    v
}

/// Computes the unreduced product with plain López-Dahab (Method A):
/// the whole 2n-word accumulator `v` conceptually lives in memory.
pub fn mul_poly_ld(x: &[u32; N], y: &[u32; N]) -> [u32; 2 * N] {
    ld_accumulate(x, &ld_table(y), |_| false, &mut Uncounted)
}

/// Plain López-Dahab multiplication, reduced (Method A).
pub fn mul_ld(x: Fe, y: Fe) -> Fe {
    reduce(mul_poly_ld(&x.0, &y.0))
}

/// López-Dahab with *rotating registers* (Method B, Aranha et al.).
///
/// Portable semantics are identical to [`mul_ld`]; the rotating-register
/// scheme changes which n + 1 words of `v` are register-resident during
/// the k-loop, which [`crate::counted::mul_ld_rotating`] tallies by
/// running the same loop.
pub fn mul_ld_rotating(x: Fe, y: Fe) -> Fe {
    reduce(ld_rotating(&x.0, &ld_table(&y.0), &mut Uncounted))
}

/// Indices of the accumulator words that the paper's Algorithm 1 keeps in
/// *fixed registers*: v\[3 … 11\] (the n + 1 = 9 most frequently used
/// words). v\[0…2\] and v\[12…15\] stay in memory.
pub const FIXED_REGISTER_RANGE: std::ops::Range<usize> = 3..12;

/// Residency predicate of Method C: v\[3 … 11\] live in registers.
pub(crate) fn in_fixed_registers(i: usize) -> bool {
    FIXED_REGISTER_RANGE.contains(&i)
}

/// The paper's **López-Dahab with fixed registers** (Method C,
/// Algorithm 1), portable semantics.
///
/// The accumulator split (registers vs memory) does not change the result,
/// only the access pattern; [`crate::counted::mul_ld_fixed`] tallies it
/// by running this loop, and the virtual-assembly kernel in
/// [`crate::modeled`] executes it.
pub fn mul_ld_fixed(x: Fe, y: Fe) -> Fe {
    reduce(ld_accumulate(
        &x.0,
        &ld_table(&y.0),
        in_fixed_registers,
        &mut Uncounted,
    ))
}

/// Karatsuba-Ofman multiplication: split the 8-word operands into 4-word
/// halves, three recursive 4-word comb products, combine. Used by several
/// related-work implementations (Szczechowiak et al., Gouvêa et al.).
pub fn mul_karatsuba(x: Fe, y: Fe) -> Fe {
    reduce(mul_poly_karatsuba(&x.0, &y.0))
}

/// Unreduced Karatsuba product.
pub fn mul_poly_karatsuba(x: &[u32; N], y: &[u32; N]) -> [u32; 2 * N] {
    const H: usize = N / 2;

    fn comb4(x: &[u32; 4], y: &[u32; 4]) -> [u32; 8] {
        let mut c = [0u32; 8];
        let mut b = [0u32; 5];
        b[..4].copy_from_slice(y);
        for k in 0..32 {
            for j in 0..4 {
                if (x[j] >> k) & 1 == 1 {
                    for (l, &bw) in b.iter().enumerate() {
                        c[j + l] ^= bw;
                    }
                }
            }
            if k != 31 {
                let mut carry = 0u32;
                for w in b.iter_mut() {
                    let nc = *w >> 31;
                    *w = (*w << 1) | carry;
                    carry = nc;
                }
            }
        }
        c
    }

    let xl: [u32; H] = x[..H].try_into().expect("half");
    let xh: [u32; H] = x[H..].try_into().expect("half");
    let yl: [u32; H] = y[..H].try_into().expect("half");
    let yh: [u32; H] = y[H..].try_into().expect("half");

    let low = comb4(&xl, &yl);
    let high = comb4(&xh, &yh);
    let mut xs = [0u32; H];
    let mut ys = [0u32; H];
    for i in 0..H {
        xs[i] = xl[i] ^ xh[i];
        ys[i] = yl[i] ^ yh[i];
    }
    let mid = comb4(&xs, &ys);

    let mut c = [0u32; 2 * N];
    for i in 0..2 * H {
        c[i] ^= low[i];
        c[i + N] ^= high[i];
        // middle term: (mid + low + high) << H words
        c[i + H] ^= mid[i] ^ low[i] ^ high[i];
    }
    c
}

/// Shift-and-add multiplication, reduced (the no-window baseline).
pub fn mul_shift_and_add(x: Fe, y: Fe) -> Fe {
    reduce(mul_poly_comb(&x.0, &y.0))
}

/// A named reduced multiplication routine.
pub type NamedMultiplier = (&'static str, fn(Fe, Fe) -> Fe);

/// All reduced multiplication routines, for cross-checking and benches.
pub const ALL_MULTIPLIERS: [NamedMultiplier; 5] = [
    ("shift-and-add", mul_shift_and_add),
    ("LD (Method A)", mul_ld),
    ("LD rotating (Method B)", mul_ld_rotating),
    ("LD fixed (Method C)", mul_ld_fixed),
    ("Karatsuba-Ofman", mul_karatsuba),
];

#[cfg(test)]
mod tests {
    use super::*;

    fn fe(seed: u64) -> Fe {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut w = [0u32; N];
        for x in w.iter_mut() {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            *x = (s >> 11) as u32;
        }
        Fe::from_words_reduced(w)
    }

    #[test]
    fn table_entry_u_is_u_times_y() {
        let y = fe(7);
        let t = ld_table(&y.0);
        // Check via the comb multiplier: t[u] must equal (u as poly) * y,
        // unreduced (entries fit in n words).
        for u in 0..LD_TABLE_ENTRIES {
            let mut u_poly = [0u32; N];
            u_poly[0] = u as u32;
            let full = mul_poly_comb(&u_poly, &y.0);
            assert_eq!(&full[..N], &t[u][..], "entry {u}");
            assert!(full[N..].iter().all(|&w| w == 0));
        }
    }

    #[test]
    fn identity_and_zero() {
        let a = fe(3);
        for (name, f) in ALL_MULTIPLIERS {
            assert_eq!(f(a, Fe::ONE), a, "{name}: a*1");
            assert_eq!(f(Fe::ONE, a), a, "{name}: 1*a");
            assert_eq!(f(a, Fe::ZERO), Fe::ZERO, "{name}: a*0");
        }
    }

    #[test]
    fn all_multipliers_agree() {
        for seed in 0..40u64 {
            let a = fe(seed);
            let b = fe(seed + 1000);
            let want = mul_shift_and_add(a, b);
            for (name, f) in &ALL_MULTIPLIERS[1..] {
                assert_eq!(f(a, b), want, "{name} disagrees at seed {seed}");
            }
        }
    }

    #[test]
    fn commutativity() {
        for seed in 0..10u64 {
            let a = fe(seed);
            let b = fe(seed + 77);
            assert_eq!(mul_ld_fixed(a, b), mul_ld_fixed(b, a));
        }
    }

    #[test]
    fn distributes_over_addition() {
        for seed in 0..10u64 {
            let (a, b, c) = (fe(seed), fe(seed + 5), fe(seed + 9));
            assert_eq!(
                mul_ld_fixed(a, b + c),
                mul_ld_fixed(a, b) + mul_ld_fixed(a, c)
            );
        }
    }

    #[test]
    fn max_degree_operands() {
        // Both operands of degree exactly 232.
        let mut w = [0xFFFF_FFFFu32; N];
        w[7] = crate::TOP_MASK;
        let a = Fe(w);
        let want = mul_shift_and_add(a, a);
        for (name, f) in &ALL_MULTIPLIERS[1..] {
            assert_eq!(f(a, a), want, "{name}");
        }
    }

    #[test]
    fn z233_wraps_to_trinomial_tail() {
        // z^116 * z^117 = z^233 = z^74 + 1.
        let mut a = [0u32; N];
        a[116 / 32] = 1 << (116 % 32);
        let mut b = [0u32; N];
        b[117 / 32] = 1 << (117 % 32);
        let got = mul_ld_fixed(Fe(a), Fe(b));
        let mut want = [0u32; N];
        want[74 / 32] = 1 << (74 % 32);
        want[0] |= 1;
        assert_eq!(got, Fe(want));
    }
}
