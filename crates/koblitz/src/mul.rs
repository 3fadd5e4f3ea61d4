//! Point multiplication on sect233k1.
//!
//! The paper's two operations, plus its proposed future work. Every
//! τ-adic multiplication on the host runs one private evaluator: a
//! left-to-right Horner pass over *lanes*, each a digit string paired
//! with the table its digits index. Step t does one Frobenius map, then
//! adds each lane's non-zero digit t (±α_u from that lane's table) in
//! lane order; a lane shorter than the longest reads 0 past its end.
//!
//! The recoding reduces k mod δ, N(δ) = n, so a τ-adic pass computes
//! k·P only on the order-n subgroup. A [`Comb`] proves membership: its
//! one constructor runs [`Affine::is_in_prime_order_subgroup`], and the
//! cache holds nothing else. A base without one (the other three
//! cosets) gets [`Affine::mul_binary`]'s k·P, slow but right for every
//! point; no protocol path reaches it.
//!
//! The tables' coordinates ([`TablePoint`]) fix the accumulator's. A
//! comb and G's strips are λ-affine ([`LambdaPoint`],
//! [`precompute_lambda_table`]), so the pass runs on λ-projective
//! points: 8M + 2S per mixed addition instead of López-Dahab's
//! 8M + 5S, which pays on the host, where a squaring costs nearly a
//! multiplication. One multiplication takes the result back to LD, so
//! every `*_proj` entry point still returns an [`LdPoint`]. The LD pass
//! on [`Affine`] tables is the λ pass's oracle (the `ld/lambda`
//! differential pair); the modeled M0+ tier keeps the paper's LD. The
//! callers differ only in the lanes they pass:
//!
//! * [`mul_wtnaf`] — random-point kP with the width-w TNAF digits (the
//!   paper uses w = 4), mixed additions and Frobenius in place of
//!   doublings. The cache keeps every base of the subgroup as a comb
//!   ([`key_comb`]): [`KG_COMB_STRIPS`] strips of its width-w λ table,
//!   strip j = τ^(30j) of strip 0, so k's 239 padded digits run as 8
//!   lanes of 30 over 30 Frobenius maps instead of 239, always 30 steps
//!   of 8 digit slots. The paper's one lane (Guide to ECC Alg. 3.70, k's
//!   digits against P's table, [`mul_wtnaf_with_table`]) is the comb's
//!   oracle ([`precompute_table`] builds each α_u·P the same way, from
//!   one LD lane of α_u's τ-NAF against `[P]`);
//! * [`mul_g`] — fixed-point kG. The paper's configuration is w = 6 with
//!   a precomputed table of α_u·G ([`generator_table`], built once,
//!   lazily — "offline" in the paper's accounting, which charges kG zero
//!   TNAF precomputation); the modeled M0+ tier keeps exactly that
//!   16-point table. The host runs a τ-adic fixed-base comb instead
//!   ([`generator_comb`], Guide to ECC §3.3.2): since G is fixed, its
//!   table can also hold Frobenius powers. The 239 padded w = 8 digits
//!   are cut into [`KG_COMB_STRIPS`] lanes of L = 30 (the last one 29),
//!   lane j against strip j = τ^(jL)(α_u·G), so the pass costs 30
//!   Frobenius maps instead of 239. It always runs L steps of d digit
//!   slots, so the iteration count does not depend on the scalar. Its
//!   static size is 8 × 64 = 512 λ points (32 KiB, host only);
//!   [`mul_g_horner`], the paper's one-lane LD loop, is its oracle;
//! * [`double_multiply`] — u₁·G + u₂·Q over one shared Frobenius pass:
//!   one joint comb of 16 lanes over 30 Frobenius maps
//!   ([`double_multiply_with_comb`]), u₁'s w = 8 digits against G's
//!   strips and u₂'s against Q's: on the key's first lookup the w = 4
//!   comb kP reads, and, since a verification key recurs, from its
//!   second on a comb of its own at w = 5 ([`key_comb`] at
//!   [`KEY_COMB_WINDOW`], 64 points, 4 KiB), which the cache promotes it
//!   to. The two-lane pass ([`double_multiply_with_table`]) is the joint
//!   comb's reference;
//! * [`montgomery_ladder`] — the constant-time x-only ladder the paper's
//!   §5 names as the fix for its timing-variability caveat.

use crate::curve::{generator, order, Affine};
use crate::formulas::{self, Host, Xz};
use crate::int::Int;
use crate::projective::{batch_to_affine_with, batch_to_lambda, LambdaPoint, LambdaProj, LdPoint};
use crate::scalar::U256;
use crate::tnaf;
use gf2m::Fe;
use std::sync::{Arc, OnceLock};

/// Window width the paper uses for random-point multiplication.
pub const KP_WINDOW: u32 = 4;

/// Window width the paper uses for fixed-point multiplication.
pub const KG_WINDOW: u32 = 6;

/// Window width of the host kG comb ([`generator_comb`]): 2⁶ = 64 α_u·G
/// per strip.
pub const KG_COMB_WINDOW: u32 = 8;

/// Strip count d of the host kG comb ([`generator_comb`]) and of every
/// cached base's comb ([`key_comb`]).
pub const KG_COMB_STRIPS: usize = 8;

/// Window width of a recurring verification key's comb, which the
/// cache promotes it to ([`key_comb`]): 2³ = 8 α_u·Q per strip.
pub const KEY_COMB_WINDOW: u32 = 5;

/// Panics unless `w` is a supported window width.
fn assert_window(w: u32) {
    assert!(
        (2..=8).contains(&w),
        "wTNAF window width {w} is outside 2..=8"
    );
}

/// Computes the affine precomputation table for `p`: the points α_u·p
/// for odd u = 1, 3, …, 2^(w−1) − 1 (index i holds u = 2i + 1).
///
/// The paper's `TNAF_Precomputation`, built like the modeled tier's:
/// entry 0 is p itself (α₁ = 1). Every other α_u = β + γτ is evaluated
/// by Horner's rule on an [`LdPoint`] from α_u's plain τ-NAF digit
/// string, which is cached per width next to the (β, γ) pairs: one
/// Frobenius (3S) per digit and one mixed addition of ±p (8M + 5S) per
/// non-zero digit. No [`Int`] is touched and nothing is inverted in the
/// loop. The 2^(w−2) − 1 projective entries then share **one** field
/// inversion in a batch affine conversion. At w = 4 the three entries
/// take 10 digits, 6 of them non-zero (the first of each a plain lift
/// of ±p), so the one inversion dominates. p is a public base point (a
/// peer's or signer's key, or G), so that inversion is
/// [`gf2m::Fe::invert_public`], whose squaring blocks are table lookups
/// at input-dependent addresses.
///
/// Affine coordinates are canonical, so the table equals its oracle
/// [`precompute_table_binary`] point for point. This is the LD
/// oracle's table; the λ loop's is [`precompute_lambda_table`].
///
/// # Panics
///
/// Panics if `w` is outside 2..=8.
pub fn precompute_table(p: &Affine, w: u32) -> Vec<Affine> {
    let entries = table_entries(p, w);
    std::iter::once(*p)
        .chain(batch_to_affine_with(
            &entries[1..],
            gf2m::batch::batch_invert_public,
        ))
        .collect()
}

/// [`precompute_table`] in λ-affine coordinates, for the λ loop: the
/// same α_u·p, evaluated the same way, then p and the 2^(w−2) − 1
/// entries share **one** inversion of their products X·Z (3M + 1S per
/// entry around it). p must have odd order; [`Comb::build`] refuses
/// every base outside the prime-order subgroup.
///
/// # Panics
///
/// Panics if `w` is outside 2..=8, or if p or an entry is infinity or
/// has x = 0 (p is not of odd order).
pub fn precompute_lambda_table(p: &Affine, w: u32) -> Vec<LambdaPoint> {
    batch_to_lambda(&table_entries(p, w))
}

/// p lifted to LD, then α_u·p for u = 3, 5, …, 2^(w−1) − 1 by the LD
/// loop over α_u's plain τ-NAF against `[p]`.
fn table_entries(p: &Affine, w: u32) -> Vec<LdPoint> {
    assert_window(w);
    let base = std::slice::from_ref(p);
    std::iter::once(LdPoint::from_affine(p))
        .chain(
            tnaf::window(w).alpha_tnafs()[1..]
                .iter()
                .map(|digits| eval_lanes(&[(digits, base)])),
        )
        .collect()
}

/// The affine oracle of [`precompute_table`], returning the same table:
/// α_u·p = β·p + γ·τ(p) with (β, γ) from [`tnaf::alpha`] on [`Int`] and
/// the binary double-and-add [`Affine::mul_binary`], which pays a field
/// inversion on every doubling and addition.
///
/// # Panics
///
/// Panics if `w` is outside 2..=8.
pub fn precompute_table_binary(p: &Affine, w: u32) -> Vec<Affine> {
    assert_window(w);
    let count = 1usize << (w - 2);
    let tau_p = p.frobenius();
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        let u = 2 * i as i64 + 1;
        let (beta, gamma) = tnaf::alpha(u, w);
        // α_u·p = β·p + γ·τ(p), with |β|, |γ| small.
        let term = |c: &Int, base: &Affine| {
            let m = base.mul_binary(&c.abs());
            if c.is_negative() {
                m.negated()
            } else {
                m
            }
        };
        out.push(term(&beta, p).add(&term(&gamma, &tau_p)));
    }
    out
}

/// The coordinate system a table's entries are in, which fixes the
/// evaluator's accumulator: [`Affine`] entries run the López-Dahab loop
/// (the oracle), [`LambdaPoint`] entries the λ loop (G and every
/// [`Comb`]). Sealed.
pub trait TablePoint: Copy + sealed::Coords {}

impl TablePoint for Affine {}
impl TablePoint for LambdaPoint {}

mod sealed {
    use super::*;

    /// What the evaluator and the table builders need of a coordinate
    /// system.
    pub trait Coords: Sized + 'static {
        /// The projective accumulator.
        type Acc: Copy;
        const INFINITY: Self::Acc;
        fn frobenius(acc: Self::Acc) -> Self::Acc;
        fn add(acc: Self::Acc, q: &Self) -> Self::Acc;
        fn sub(acc: Self::Acc, q: &Self) -> Self::Acc;
        fn to_ld(acc: Self::Acc) -> LdPoint;
        /// p's wTNAF table.
        fn table(p: &Affine, w: u32) -> Vec<Self>;
        /// τⁿ of a public point: both coordinates squared n times.
        fn tau_n(&self, n: usize) -> Self;
        /// The kG comb's strips in this coordinate system, built once.
        fn generator_comb() -> &'static [Vec<Self>];
    }

    impl Coords for Affine {
        type Acc = LdPoint;
        const INFINITY: LdPoint = LdPoint::INFINITY;
        #[inline]
        fn frobenius(acc: LdPoint) -> LdPoint {
            acc.frobenius()
        }
        #[inline]
        fn add(acc: LdPoint, q: &Affine) -> LdPoint {
            acc.add_affine(q)
        }
        #[inline]
        fn sub(acc: LdPoint, q: &Affine) -> LdPoint {
            acc.sub_affine(q)
        }
        #[inline]
        fn to_ld(acc: LdPoint) -> LdPoint {
            acc
        }
        fn table(p: &Affine, w: u32) -> Vec<Affine> {
            precompute_table(p, w)
        }
        fn tau_n(&self, n: usize) -> Affine {
            match *self {
                Affine::Infinity => Affine::Infinity,
                Affine::Point { x, y } => Affine::Point {
                    x: x.square_n_public(n),
                    y: y.square_n_public(n),
                },
            }
        }
        fn generator_comb() -> &'static [Vec<Affine>] {
            static COMB: OnceLock<Vec<Vec<Affine>>> = OnceLock::new();
            COMB.get_or_init(build_generator_comb)
        }
    }

    // Forced inline: see `eval_lanes`.
    impl Coords for LambdaPoint {
        type Acc = LambdaProj;
        const INFINITY: LambdaProj = LambdaProj::INFINITY;
        #[inline(always)]
        fn frobenius(acc: LambdaProj) -> LambdaProj {
            formulas::lambda_frobenius(&mut Host, acc)
        }
        #[inline(always)]
        fn add(acc: LambdaProj, q: &LambdaPoint) -> LambdaProj {
            formulas::lambda_add(&mut Host, acc, *q)
        }
        #[inline(always)]
        fn sub(acc: LambdaProj, q: &LambdaPoint) -> LambdaProj {
            let q = formulas::lambda_negate(&mut Host, *q, *q);
            formulas::lambda_add(&mut Host, acc, q)
        }
        #[inline(always)]
        fn to_ld(acc: LambdaProj) -> LdPoint {
            formulas::lambda_to_ld(&mut Host, acc)
        }
        fn table(p: &Affine, w: u32) -> Vec<LambdaPoint> {
            precompute_lambda_table(p, w)
        }
        fn tau_n(&self, n: usize) -> LambdaPoint {
            LambdaPoint {
                x: self.x.square_n_public(n),
                l: self.l.square_n_public(n),
            }
        }
        fn generator_comb() -> &'static [Vec<LambdaPoint>] {
            static COMB: OnceLock<Vec<Vec<LambdaPoint>>> = OnceLock::new();
            COMB.get_or_init(build_generator_comb)
        }
    }
}

/// The τ-adic evaluator behind every host multiplication: Horner's
/// rule over t = L − 1 down to 0, L the longest lane. Each step is one
/// Frobenius map, then, in lane order, one mixed addition of
/// ±`table[|d|/2]` for each non-zero digit d at t of a lane against
/// that lane's table (a short lane reads 0 past its end). A plain τ-NAF
/// (digits ±1) evaluates against the one-entry table `[p]`. The
/// accumulator is the tables' coordinate system's ([`TablePoint`]);
/// the result comes back in LD projective coordinates so batch callers
/// can defer the affine conversion — and its inversion — to a
/// Montgomery batch boundary.
///
/// The λ addition is forced inline and the lanes are a plain loop: in
/// a micro-benchmark the out-of-line formula call cost the λ kG
/// ~8 % and a fold over the lanes seeded with the Frobenius image
/// another ~5–7 %.
fn eval_lanes<P: TablePoint>(lanes: &[(&[i8], &[P])]) -> LdPoint {
    let l = lanes.iter().map(|(d, _)| d.len()).max().unwrap_or(0);
    let mut acc = P::INFINITY;
    for t in (0..l).rev() {
        acc = P::frobenius(acc);
        for &(digits, table) in lanes {
            match digits.get(t) {
                Some(&d) if d > 0 => acc = P::add(acc, &table[d as usize / 2]),
                Some(&d) if d < 0 => acc = P::sub(acc, &table[d.unsigned_abs() as usize / 2]),
                _ => {}
            }
        }
    }
    P::to_ld(acc)
}

/// Random-point multiplication k·P with the width-w TNAF digits of k:
/// the paper's kP configuration with `w = 4`.
///
/// P's precomputation is served from the process-wide [`crate::cache`],
/// so repeated multiplications against the same base point skip
/// `TNAF_Precomputation` entirely. A base in the prime-order subgroup is
/// cached as its [`Comb`] at width w, and k·P runs
/// [`mul_with_comb`]. Any other base gets [`Affine::mul_binary`]'s
/// k·P: the recoding reduces k mod δ, which is k·P only on the
/// subgroup.
///
/// `k` is a [`U256`]: a `&Scalar`, or a `&Int` of at most 256 bits.
///
/// # Panics
///
/// Panics if `k` is a negative or wider `Int`, or `w` is outside 2..=8.
pub fn mul_wtnaf(p: &Affine, k: impl Into<U256>, w: u32) -> Affine {
    mul_wtnaf_proj(p, k, w).to_affine()
}

/// [`mul_wtnaf`] without the final affine conversion: the result stays
/// in LD coordinates for a later [`crate::projective::batch_to_affine`].
pub fn mul_wtnaf_proj(p: &Affine, k: impl Into<U256>, w: u32) -> LdPoint {
    assert_window(w);
    let k = k.into();
    if k.is_zero() || p.is_infinity() {
        return LdPoint::INFINITY;
    }
    match crate::cache::comb_for(p, w) {
        Some(comb) => mul_with_comb(k, &comb),
        None => LdPoint::from_affine(&p.mul_binary(&k.into())),
    }
}

/// k·P on P's comb: k's digits at the comb's width as
/// [`KG_COMB_STRIPS`] lanes of 30, lane j against strip j, over 30
/// Frobenius maps instead of 239. The pass always runs 30 steps of 8
/// digit slots, so its iteration count does not depend on the scalar;
/// its digits and additions are those of the paper's one-lane loop
/// (Guide to ECC Alg. 3.70, [`mul_wtnaf_with_table`]), its oracle.
pub fn mul_with_comb(k: impl Into<U256>, comb: &Comb) -> LdPoint {
    let digits = tnaf::recode(k, comb.width());
    eval_lanes(&comb_pass::<_, KG_COMB_STRIPS>(&[(&digits, comb.strips())]))
}

/// k·P from P's width-w table given explicitly, uncached: one lane of
/// k's w-digits over 239 Frobenius maps, the paper's loop. With
/// [`precompute_lambda_table`] it is the oracle of [`mul_wtnaf_proj`]'s
/// comb, with [`precompute_table`]'s affine table the LD oracle of both.
///
/// # Panics
///
/// Panics if `table` does not hold 2^(w−2) points, or as [`mul_wtnaf`].
pub fn mul_wtnaf_with_table<P: TablePoint>(k: impl Into<U256>, w: u32, table: &[P]) -> LdPoint {
    assert_window(w);
    assert_eq!(table.len(), 1 << (w - 2), "a width-{w} table");
    eval_lanes(&[(&tnaf::recode(k, w), table)])
}

/// Plain-TNAF multiplication (w = 1): no precomputation beyond ±P.
///
/// P must be in the prime-order subgroup: the recoding reduces k mod δ,
/// so on any other base the result is (k mod δ)·P, not k·P. No
/// production path calls it; it is a differential tier on G.
pub fn mul_tnaf(p: &Affine, k: impl Into<U256>) -> Affine {
    let k = k.into();
    if k.is_zero() || p.is_infinity() {
        return Affine::Infinity;
    }
    let digits = tnaf::recode(k, 1);
    eval_lanes(&[(&digits, std::slice::from_ref(p))]).to_affine()
}

/// The paper's fixed-point table α_u·G for w = 6 (2⁴ = 16 points),
/// built once. The modeled M0+ kG loads it, and [`mul_g_horner`]
/// evaluates against it; the host [`mul_g`] reads the larger
/// [`generator_comb`] instead.
pub fn generator_table() -> &'static [Affine] {
    static TABLE: OnceLock<Vec<Affine>> = OnceLock::new();
    TABLE.get_or_init(|| precompute_table(&generator(), KG_WINDOW))
}

/// Digits per comb strip: L = ⌈[`tnaf::recode_length`] / d⌉.
fn comb_strip_len(strips: usize) -> usize {
    tnaf::recode_length().div_ceil(strips)
}

/// The comb strips over `table` (strip 0): strip j is strip j − 1 with
/// both coordinates squared L times, i.e. τ^(jL) of `table`. The base is
/// public (G or a verification key), so the squarings run as
/// [`Fe::square_n_public`] (at L = 30 one table-driven linear map).
fn comb_strips<P: TablePoint>(table: Vec<P>, strips: usize) -> Vec<Vec<P>> {
    let l = comb_strip_len(strips);
    let mut out = vec![table];
    while out.len() < strips {
        let next = out[out.len() - 1].iter().map(|p| p.tau_n(l)).collect();
        out.push(next);
    }
    out
}

/// The kG comb's strips, built from G's w = 8 table in `P`'s
/// coordinates.
fn build_generator_comb<P: TablePoint>() -> Vec<Vec<P>> {
    comb_strips(P::table(&generator(), KG_COMB_WINDOW), KG_COMB_STRIPS)
}

/// The host kG comb: [`KG_COMB_STRIPS`] strips of the w = 8 table, strip
/// j holding τ^(jL)(α_u·G) for L = 30, built once per coordinate system
/// (one table inversion plus 7 × 64 pairs of 30-fold squarings). 512
/// points, 32 KiB as [`LambdaPoint`]s, the strips [`mul_g_proj`] and the
/// double multiply read. The [`Affine`] comb (~34 KiB) serves only the
/// LD oracle, and is built when it first asks. Strip 0 is `P`'s table
/// of G at w = 8.
pub fn generator_comb<P: TablePoint>() -> &'static [Vec<P>] {
    P::generator_comb()
}

/// The comb's lanes: a padded digit string cut into chunks of L =
/// [`comb_strip_len`], chunk j paired with strip j (digit jL + t is
/// lane j's digit t). One chunk per strip; the last may be shorter.
fn comb_lanes<'a, P: TablePoint>(
    digits: &'a [i8],
    strips: &'a [Vec<P>],
) -> impl Iterator<Item = (&'a [i8], &'a [P])> {
    let l = comb_strip_len(strips.len());
    debug_assert!(digits.len() <= l * strips.len());
    digits.chunks(l).zip(strips.iter().map(Vec::as_slice))
}

/// The lanes of one pass over several combs: each (digits, strips) pair
/// cut by [`comb_lanes`], in order, as one array of `LANES` lanes, which
/// the combs' strips must number in all.
fn comb_pass<'a, P: TablePoint, const LANES: usize>(
    combs: &[(&'a [i8], &'a [Vec<P>])],
) -> [(&'a [i8], &'a [P]); LANES] {
    let mut lanes = combs
        .iter()
        .flat_map(|&(digits, strips)| comb_lanes(digits, strips));
    let pass = std::array::from_fn(|_| lanes.next().expect("one digit chunk per strip"));
    debug_assert!(lanes.next().is_none(), "one lane per strip");
    pass
}

/// Fixed-point multiplication k·G: the w = 8 digits of k cut into
/// [`KG_COMB_STRIPS`] lanes of 30, lane j evaluated against strip j of
/// [`generator_comb`] in one Horner pass — 30 Frobenius maps and ~26
/// λ additions, where the paper's one-lane loop ([`mul_g_horner`]) pays
/// 239 and ~34 LD ones. The pass always runs 30 steps of 8 digit slots,
/// so its iteration count stays independent of the scalar. Same
/// canonical affine result as the paper's kG; the modeled M0+ kG keeps
/// the paper's 16-point w = 6 table.
///
/// # Panics
///
/// Panics if `k` is a negative `Int` or one wider than 256 bits.
pub fn mul_g(k: impl Into<U256>) -> Affine {
    mul_g_proj(k).to_affine()
}

/// [`mul_g`] without the final affine conversion.
pub fn mul_g_proj(k: impl Into<U256>) -> LdPoint {
    let k = k.into();
    if k.is_zero() {
        return LdPoint::INFINITY;
    }
    mul_g_with_strips(k, generator_comb::<LambdaPoint>())
}

/// k·G by the comb over explicit strips: k's w = 8 digits in
/// [`KG_COMB_STRIPS`] lanes, lane j against `strips[j]`. On
/// [`generator_comb`]`::<Affine>()` this is the LD oracle of
/// [`mul_g_proj`].
///
/// # Panics
///
/// Panics unless `strips` has [`KG_COMB_STRIPS`] strips.
pub fn mul_g_with_strips<P: TablePoint>(k: impl Into<U256>, strips: &[Vec<P>]) -> LdPoint {
    assert_eq!(strips.len(), KG_COMB_STRIPS, "one strip per comb lane");
    let digits = tnaf::recode(k, KG_COMB_WINDOW);
    eval_lanes(&comb_pass::<_, KG_COMB_STRIPS>(&[(&digits, strips)]))
}

/// The paper's kG loop, kept as the comb's oracle: the w = 6 digits of k
/// by Horner's rule against [`generator_table`], one Frobenius per
/// padded digit. [`mul_g_proj`] must give the same point.
pub fn mul_g_horner(k: impl Into<U256>) -> LdPoint {
    eval_lanes(&[(&tnaf::recode(k, KG_WINDOW), generator_table())])
}

/// The comb of a public base point Q at width `w`: [`KG_COMB_STRIPS`]
/// strips of Q's width-w table, strip j holding τ^(30j)(α_u·Q), built
/// exactly as [`generator_comb`] builds G's (one table inversion plus
/// 7 × 2^(w−2) pairs of 30-fold squarings). [`crate::cache`] builds the
/// [`LambdaPoint`] comb of every base in the prime-order subgroup: at
/// the kP width on a miss ([`Comb::build`]), and at [`KEY_COMB_WINDOW`]
/// when a verification key recurs. The [`Affine`] combs serve the LD
/// oracle.
///
/// # Panics
///
/// Panics if `w` is outside 2..=8, or as [`precompute_lambda_table`] for
/// `P = LambdaPoint`.
pub fn key_comb<P: TablePoint>(q: &Affine, w: u32) -> Vec<Vec<P>> {
    comb_strips(P::table(q, w), KG_COMB_STRIPS)
}

/// The window width w of a table of `len` = 2^(w−2) points.
///
/// # Panics
///
/// Panics unless `len` is 2^(w−2) for a w in 2..=8.
fn table_width(len: usize) -> u32 {
    assert!(len.is_power_of_two(), "a table of {len} points");
    let w = len.trailing_zeros() + 2;
    assert_window(w);
    w
}

/// A base point's λ comb ([`key_comb`]), [`KG_COMB_STRIPS`] strips of
/// its width-w λ-affine table ([`precompute_lambda_table`]), strip 0
/// being the table itself — and the proof that the base is in the
/// prime-order subgroup, where τ-adic multiplication computes k·P.
/// [`Comb::build`] is its one constructor and runs the check;
/// [`crate::cache`] serves only combs, so a lookup that returns one
/// needs no check of its own.
#[derive(Debug, Clone, PartialEq)]
pub struct Comb(Arc<Vec<Vec<LambdaPoint>>>);

impl Comb {
    /// p's comb at width `w` if p passes
    /// [`Affine::is_in_prime_order_subgroup`], `None` otherwise (the
    /// point at infinity included). The cache runs this, and so the
    /// check, once per miss.
    ///
    /// # Panics
    ///
    /// Panics if `w` is outside 2..=8.
    pub fn build(p: &Affine, w: u32) -> Option<Comb> {
        assert_window(w);
        p.is_in_prime_order_subgroup()
            .then(|| Comb(Arc::new(key_comb(p, w))))
    }

    /// The same base's comb at width `w`, with no check: strip 0's first
    /// entry is the base itself (α₁ = 1), which this comb has proved.
    pub(crate) fn widened(&self, w: u32) -> Comb {
        Comb(Arc::new(key_comb(&self.0[0][0].to_affine(), w)))
    }

    /// The strips, strip j holding τ^(30j) of the width-w table.
    pub fn strips(&self) -> &[Vec<LambdaPoint>] {
        &self.0
    }

    /// The window width w the comb was built at.
    pub fn width(&self) -> u32 {
        table_width(self.0[0].len())
    }
}

/// Simultaneous double multiplication u₁·G + u₂·Q by interleaved
/// width-w TNAF evaluation (the τ-adic Shamir–Strauss trick): one
/// shared Frobenius pass of the lane evaluator instead of two passes,
/// so an ECDSA verification costs barely more than a single
/// random-point multiplication. Q's comb comes from the cache
/// ([`crate::cache::key_comb_for`]), and the pass is the λ joint comb
/// over 30 Frobenius maps ([`double_multiply_with_comb`]), u₂'s digits
/// at w = [`KP_WINDOW`] on the key's first double-multiply lookup (the
/// comb kP reads) and at w = [`KEY_COMB_WINDOW`] from its second on. A
/// key outside the prime-order subgroup has no comb and gets
/// u₁·G + [`Affine::mul_binary`]'s u₂·Q.
///
/// # Panics
///
/// Panics if either scalar is a negative `Int` or one wider than 256
/// bits.
pub fn double_multiply(u1: impl Into<U256>, u2: impl Into<U256>, q: &Affine) -> Affine {
    double_multiply_proj(u1, u2, q).to_affine()
}

/// [`double_multiply`] without the final affine conversion — the batch
/// verifier's workhorse: all the point arithmetic, none of the
/// inversions.
pub fn double_multiply_proj(u1: impl Into<U256>, u2: impl Into<U256>, q: &Affine) -> LdPoint {
    let (u1, u2) = (u1.into(), u2.into());
    if q.is_infinity() || u2.is_zero() {
        return mul_g_proj(u1);
    }
    if u1.is_zero() {
        return mul_wtnaf_proj(q, u2, KP_WINDOW);
    }
    match crate::cache::key_comb_for(q) {
        Some(comb) => double_multiply_with_comb(u1, u2, &comb),
        None => LdPoint::from_affine(&mul_g(u1).add(&q.mul_binary(&u2.into()))),
    }
}

/// u₁·G + u₂·Q on Q's comb: one joint comb over 30 Frobenius maps
/// ([`double_multiply_with_strips`] on G's λ strips and the comb's),
/// u₂'s digits at the comb's width.
pub fn double_multiply_with_comb(u1: impl Into<U256>, u2: impl Into<U256>, comb: &Comb) -> LdPoint {
    double_multiply_with_strips(u1, u2, comb.strips())
}

/// u₁·G + u₂·Q in two lanes over 239 Frobenius maps: u₁'s w = 8 digits
/// against strip 0 of [`generator_comb`] in `P`'s coordinates, then
/// u₂'s w = 4 digits against `table_q`, Q's table at [`KP_WINDOW`]: the
/// reference of the joint comb, in LD the λ pass's oracle.
///
/// # Panics
///
/// Panics unless `table_q` holds 2^([`KP_WINDOW`] − 2) points.
pub fn double_multiply_with_table<P: TablePoint>(
    u1: impl Into<U256>,
    u2: impl Into<U256>,
    table_q: &[P],
) -> LdPoint {
    assert_eq!(table_q.len(), 1 << (KP_WINDOW - 2), "a width-4 table");
    let d1 = tnaf::recode(u1, KG_COMB_WINDOW);
    let d2 = tnaf::recode(u2, KP_WINDOW);
    eval_lanes(&[(&d1, &generator_comb::<P>()[0]), (&d2, table_q)])
}

/// u₁·G + u₂·Q as one joint comb over 30 Frobenius maps: u₁'s w = 8
/// digits in 8 lanes against [`generator_comb`] in `P`'s coordinates,
/// then u₂'s digits in 8 lanes against `strips_q`, Q's [`key_comb`] at
/// the width w its strip length gives (2^(w−2) points a strip). Same
/// point as [`double_multiply_with_table`].
///
/// # Panics
///
/// Panics unless `strips_q` has [`KG_COMB_STRIPS`] strips of 2^(w−2)
/// points for a w in 2..=8.
pub fn double_multiply_with_strips<P: TablePoint>(
    u1: impl Into<U256>,
    u2: impl Into<U256>,
    strips_q: &[Vec<P>],
) -> LdPoint {
    assert_eq!(strips_q.len(), KG_COMB_STRIPS, "one strip per comb lane");
    let d1 = tnaf::recode(u1, KG_COMB_WINDOW);
    let d2 = tnaf::recode(u2, table_width(strips_q[0].len()));
    let combs = [(&d1[..], generator_comb::<P>()), (&d2[..], strips_q)];
    eval_lanes(&comb_pass::<_, { 2 * KG_COMB_STRIPS }>(&combs))
}

/// The ladder's base x-coordinate and its bit schedule for `k`, most
/// significant first: the 232 bits below the top one of k' = k + n or
/// k + 2n, both ≡ k (mod n) and exactly 233 bits long, so every scalar
/// runs the same number of steps. No schedule when k ≡ 0 (mod n).
///
/// # Panics
///
/// Panics if `k` is negative or `p` is the point at infinity / the
/// 2-torsion point (x = 0).
pub(crate) fn ladder_setup(p: &Affine, k: &Int) -> (Fe, Option<impl Iterator<Item = bool>>) {
    assert!(!k.is_negative(), "scalar must be non-negative");
    assert!(!p.is_infinity(), "ladder needs a finite base point");
    assert!(!p.x().is_zero(), "ladder needs a point of odd order");
    let n = order();
    let k1 = k.mod_positive(&n);
    let bits = (!k1.is_zero()).then(|| {
        let t = &k1 + &n;
        let lifted = if t.bits() == 233 { t } else { &t + &n };
        debug_assert_eq!(lifted.bits(), 233);
        (0..232)
            .rev()
            .map(move |i| (lifted.limbs()[i / 32] >> (i % 32)) & 1 == 1)
    });
    (p.x(), bits)
}

/// Constant-time Montgomery-ladder multiplication (López-Dahab 1999) —
/// the algorithm the paper's §5 proposes to close its power-analysis
/// gap. Processes a fixed number of ladder steps independent of `k` by
/// lifting the scalar to `k + n` or `k + 2n` (both 233 bits + 1).
///
/// P must be in the prime-order subgroup: the ladder reduces k mod n,
/// so on any other base the result is (k mod n)·P, not k·P. No
/// production path calls it; it is a differential tier on G.
///
/// # Panics
///
/// Panics if `k` is negative or `p` is the point at infinity / the
/// 2-torsion point (x = 0) — neither occurs for points in the
/// prime-order subgroup.
pub fn montgomery_ladder(p: &Affine, k: &Int) -> Affine {
    let (xp, bits) = ladder_setup(p, k);
    let Some(bits) = bits else {
        return Affine::Infinity;
    };
    // R0 = P, R1 = 2P (x-only).
    let mut r0 = Xz { x: xp, z: Fe::ONE };
    let mut r1 = formulas::mdouble(&mut Host, r0);
    for bit in bits {
        (r0, r1) = if bit {
            formulas::ladder_step(&mut Host, r0, r1, xp)
        } else {
            let (r1, r0) = formulas::ladder_step(&mut Host, r1, r0, xp);
            (r0, r1)
        };
    }
    formulas::recover_y(p, r0, r1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scalar(seed: u64) -> Int {
        let hex = format!("{:016x}", seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        Int::from_hex(&hex.repeat(4))
            .unwrap()
            .mod_positive(&order())
    }

    #[test]
    fn wtnaf_matches_binary_for_small_scalars() {
        let g = generator();
        for k in 0..32i64 {
            let ki = Int::from(k);
            assert_eq!(mul_wtnaf(&g, &ki, 4), g.mul_binary(&ki), "k = {k}");
        }
    }

    #[test]
    fn wtnaf_matches_binary_for_random_scalars() {
        let g = generator();
        for seed in 1..8u64 {
            let k = scalar(seed);
            let want = g.mul_binary(&k);
            for w in [2u32, 4, 5, 6] {
                assert_eq!(mul_wtnaf(&g, &k, w), want, "seed {seed} w {w}");
            }
        }
    }

    #[test]
    fn wtnaf_on_non_generator_points() {
        let g = generator();
        let p = g.mul_binary(&Int::from(0xABCDEFi64));
        for seed in 1..4u64 {
            let k = scalar(seed + 40);
            assert_eq!(mul_wtnaf(&p, &k, 4), p.mul_binary(&k), "seed {seed}");
        }
    }

    #[test]
    fn plain_tnaf_matches() {
        let g = generator();
        for seed in 1..4u64 {
            let k = scalar(seed + 80);
            assert_eq!(mul_tnaf(&g, &k), g.mul_binary(&k));
        }
    }

    #[test]
    fn mul_g_matches_wtnaf() {
        for seed in 1..6u64 {
            let k = scalar(seed + 7);
            assert_eq!(mul_g(&k), generator().mul_binary(&k), "seed {seed}");
        }
    }

    #[test]
    fn edge_scalars() {
        let g = generator();
        assert!(mul_wtnaf(&g, &Int::zero(), 4).is_infinity());
        assert!(mul_g(&Int::zero()).is_infinity());
        assert_eq!(mul_g(&Int::one()), g);
        assert!(mul_g(&order()).is_infinity(), "nG = O");
        assert_eq!(mul_g(&(&order() - &Int::one())), g.negated());
        assert_eq!(
            mul_g(&(&order() + &Int::one())),
            g,
            "(n+1)G = G (reduction works past n)"
        );
    }

    #[test]
    fn precompute_table_entries_are_on_curve() {
        let table = precompute_table(&generator(), 4);
        assert_eq!(table.len(), 4);
        assert_eq!(table[0], generator(), "α_1·G = G");
        for (i, p) in table.iter().enumerate() {
            assert!(p.is_on_curve(), "entry {i}");
            assert!(!p.is_infinity(), "entry {i} must be finite");
        }
    }

    #[test]
    fn generator_table_has_16_entries() {
        assert_eq!(generator_table().len(), 16);
    }

    /// The coset shifts of the order-n subgroup: the 2-torsion point
    /// (0, 1) and the order-4 points ±(1, 1).
    fn torsion() -> [Affine; 3] {
        let q4 = Affine::Point {
            x: Fe::ONE,
            y: Fe::ONE,
        };
        let t = Affine::Point {
            x: Fe::ZERO,
            y: Fe::ONE,
        };
        [t, q4, q4.negated()]
    }

    fn assert_tables_agree(p: &Affine, label: &str) {
        for w in 2..=8 {
            let want = precompute_table_binary(p, w);
            assert_eq!(precompute_table(p, w), want, "{label} w = {w}");
        }
    }

    #[test]
    fn projective_table_matches_the_binary_oracle() {
        assert_tables_agree(&Affine::Infinity, "O");
        // Torsion bases: intermediate sums hit infinity and the P = ±Q
        // branches of the mixed addition.
        for (j, t) in torsion().iter().enumerate() {
            assert!(t.is_on_curve());
            assert_tables_agree(t, &format!("torsion {j}"));
        }
        // G (seed 0) and 12 seeded multiples, each in all four cosets.
        let g = generator();
        for seed in 0..=12u64 {
            let p = if seed == 0 {
                g
            } else {
                g.mul_binary(&scalar(seed + 900))
            };
            assert_tables_agree(&p, &format!("seed {seed}"));
            for (j, t) in torsion().iter().enumerate() {
                assert_tables_agree(&p.add(t), &format!("seed {seed} coset {j}"));
            }
        }
    }

    #[test]
    fn generator_table_matches_the_binary_oracle() {
        assert_eq!(
            generator_table(),
            precompute_table_binary(&generator(), KG_WINDOW).as_slice()
        );
    }

    #[test]
    #[should_panic(expected = "window width 1 is outside 2..=8")]
    fn precompute_table_rejects_width_1() {
        precompute_table(&generator(), 1);
    }

    #[test]
    #[should_panic(expected = "window width 9 is outside 2..=8")]
    fn precompute_table_rejects_width_9() {
        precompute_table(&generator(), 9);
    }

    #[test]
    fn ladder_matches_binary() {
        let g = generator();
        for seed in 1..8u64 {
            let k = scalar(seed + 100);
            assert_eq!(montgomery_ladder(&g, &k), g.mul_binary(&k), "seed {seed}");
        }
    }

    #[test]
    fn ladder_small_and_edge_scalars() {
        let g = generator();
        for k in 1..16i64 {
            let ki = Int::from(k);
            assert_eq!(montgomery_ladder(&g, &ki), g.mul_binary(&ki), "k = {k}");
        }
        assert!(montgomery_ladder(&g, &Int::zero()).is_infinity());
        assert!(montgomery_ladder(&g, &order()).is_infinity());
        assert_eq!(
            montgomery_ladder(&g, &(&order() - &Int::one())),
            g.negated(),
            "(n−1)P = −P exercises the z2 = 0 recovery branch"
        );
    }

    #[test]
    fn ladder_on_random_points() {
        let p = generator().mul_binary(&Int::from(987654321i64));
        for seed in 1..4u64 {
            let k = scalar(seed + 200);
            assert_eq!(montgomery_ladder(&p, &k), p.mul_binary(&k));
        }
    }

    /// u₁·G + u₂·Q along every double-multiply path. For a key in the
    /// subgroup: the two lanes, the joint comb on Q's w = 4 comb (a key's
    /// first lookup) and on its w = 5 comb (a promoted key), each on
    /// explicit LD and λ tables. Then, for every key, the cached entry
    /// point twice, which runs both combs for a key of the subgroup it
    /// has not seen.
    fn double_multiply_paths(u1: &Int, u2: &Int, q: &Affine) -> Vec<Affine> {
        let mut out = Vec::new();
        if q.is_in_prime_order_subgroup() {
            let ld = precompute_table(q, KP_WINDOW);
            let lambda = precompute_lambda_table(q, KP_WINDOW);
            out.push(double_multiply_with_table(u1, u2, &ld).to_affine());
            out.push(double_multiply_with_table(u1, u2, &lambda).to_affine());
            for w in [KP_WINDOW, KEY_COMB_WINDOW] {
                let strips = key_comb::<Affine>(q, w);
                out.push(double_multiply_with_strips(u1, u2, &strips).to_affine());
                let strips = key_comb::<LambdaPoint>(q, w);
                out.push(double_multiply_with_strips(u1, u2, &strips).to_affine());
            }
        }
        out.push(double_multiply(u1, u2, q));
        out.push(double_multiply(u1, u2, q));
        out
    }

    #[test]
    fn double_multiply_matches_separate_multiplications() {
        // Q and its shifts into the three torsion cosets, against the
        // paper's kG loop plus a separate kP (by `mul_binary` outside the
        // subgroup).
        let q = generator().mul_binary(&Int::from(777i64));
        let cosets = std::iter::once(q).chain(torsion().map(|t| q.add(&t)));
        for (c, qc) in cosets.enumerate() {
            for seed in 1..5u64 {
                let u1 = scalar(seed + 300 + 10 * c as u64);
                let u2 = scalar(seed + 400 + 10 * c as u64);
                let separate = mul_g_horner(&u1).to_affine().add(&mul_wtnaf(&qc, &u2, 4));
                for (path, got) in double_multiply_paths(&u1, &u2, &qc).iter().enumerate() {
                    assert_eq!(*got, separate, "coset {c} seed {seed} path {path}");
                }
            }
        }
    }

    #[test]
    fn double_multiply_edge_cases() {
        let q = generator().mul_binary(&Int::from(99i64));
        let k = scalar(500);
        let zero = Int::zero();
        let all = |u1: &Int, u2: &Int, q: &Affine, want: Affine, label: &str| {
            for (path, got) in double_multiply_paths(u1, u2, q).iter().enumerate() {
                assert_eq!(*got, want, "{label}, path {path}");
            }
        };
        all(&zero, &k, &q, mul_wtnaf(&q, &k, 4), "u1 = 0");
        all(&k, &zero, &q, mul_g(&k), "u2 = 0");
        assert_eq!(
            double_multiply(&k, &k, &Affine::Infinity),
            mul_g(&k),
            "infinity Q degenerates to a single multiplication"
        );
        // Q = G: both halves read tables of the same point.
        let g = generator();
        let u2 = scalar(502);
        all(&k, &u2, &g, g.mul_binary(&(&k + &u2)), "Q = G");
        // u1·G + u2·Q = O when u2·Q = −u1·G: with Q = G and with Q = 99·G.
        let u1 = Int::from(5i64);
        let neg_scalar = (&order() - &u1).mod_positive(&order());
        all(&u1, &neg_scalar, &g, Affine::Infinity, "Q = G, sum O");
        let u1 = scalar(501);
        let u2 = Int::from(99i64).mod_inverse(&order()).unwrap();
        let u2 = (&order() - &(&u1 * &u2)).mod_positive(&order());
        all(&u1, &u2, &q, Affine::Infinity, "Q = 99·G, sum O");
    }

    /// Scalars the comb is checked at: the edges, then seeded values.
    fn comb_scalars() -> Vec<Int> {
        let n = order();
        let top = |bits: usize| &Int::one().shl(bits) - &Int::one();
        let mut out = vec![
            Int::zero(),
            Int::one(),
            Int::from(2i64),
            &n - &Int::one(),
            n.clone(),
            &n + &Int::one(),
            top(232),
            top(256),
        ];
        out.extend((1..6u64).map(|seed| scalar(seed + 1100)));
        out
    }

    /// The comb over `strip0` in `P`'s coordinates at 1..=8 strips, k's
    /// width-`w` digits in one lane a strip, against each case's point.
    fn assert_comb_matches<P: TablePoint>(strip0: &[P], w: u32, cases: &[(Int, Affine)]) {
        for d in 1..=KG_COMB_STRIPS {
            let strips = comb_strips(strip0.to_vec(), d);
            assert_eq!(strips.len(), d);
            for (k, want) in cases {
                let digits = tnaf::recode(k, w);
                let lanes: Vec<_> = comb_lanes(&digits, &strips).collect();
                assert_eq!(lanes.len(), d);
                let got = eval_lanes(&lanes).to_affine();
                assert_eq!(got, *want, "w = {w}, d = {d}, k = {k}");
            }
        }
    }

    /// A base of the subgroup whose w = 4 comb the cache holds.
    fn cached_kp_comb() -> (Affine, Comb) {
        let q = generator().mul_binary(&Int::from(0x0c0b_4a11i64));
        let comb = crate::cache::comb_for(&q, KP_WINDOW).expect("a base of the subgroup");
        (q, comb)
    }

    #[test]
    fn comb_matches_horner_at_every_strip_count() {
        let cases: Vec<(Int, Affine)> = comb_scalars()
            .into_iter()
            .map(|k| {
                let want = mul_g_horner(&k).to_affine();
                (k, want)
            })
            .collect();
        let w = KG_COMB_WINDOW;
        assert_comb_matches(&generator_comb::<LambdaPoint>()[0], w, &cases);
        assert_comb_matches(&generator_comb::<Affine>()[0], w, &cases);
        for (k, want) in &cases {
            assert_eq!(mul_g(k), *want, "k = {k}");
            let ld = mul_g_with_strips(k, generator_comb::<Affine>());
            assert_eq!(ld.to_affine(), *want, "k = {k}");
        }
        // A cached kP comb at w = 4 against the one-lane loop on the
        // base's explicit λ table, and the cached entry point.
        let (q, cached) = cached_kp_comb();
        let table = precompute_lambda_table(&q, KP_WINDOW);
        let cases: Vec<(Int, Affine)> = comb_scalars()
            .into_iter()
            .map(|k| {
                let want = mul_wtnaf_with_table(&k, KP_WINDOW, &table).to_affine();
                (k, want)
            })
            .collect();
        assert_comb_matches(&cached.strips()[0], KP_WINDOW, &cases);
        assert_comb_matches(&precompute_table(&q, KP_WINDOW), KP_WINDOW, &cases);
        for (k, want) in &cases {
            assert_eq!(mul_wtnaf(&q, k, KP_WINDOW), *want, "k = {k}");
        }
    }

    #[test]
    fn comb_strip_zero_is_the_w8_table() {
        let comb = generator_comb::<LambdaPoint>();
        assert_eq!(comb.len(), KG_COMB_STRIPS);
        assert_eq!(comb_strip_len(KG_COMB_STRIPS), 30);
        assert!(comb.iter().all(|strip| strip.len() == 64));
        let want = precompute_table_binary(&generator(), 8);
        let strip0: Vec<Affine> = comb[0].iter().map(LambdaPoint::to_affine).collect();
        assert_eq!(strip0, want);
        assert_eq!(generator_comb::<Affine>()[0], want);
    }

    /// Asserts that strip j of `strips` is `shifted` after 30j Frobenius
    /// maps.
    fn assert_frobenius_shifts(strips: &[Vec<Affine>], mut shifted: Vec<Affine>, label: &str) {
        assert_eq!(strips.len(), KG_COMB_STRIPS, "{label}");
        for (j, strip) in strips.iter().enumerate() {
            assert_eq!(*strip, shifted, "{label} strip {j}");
            for _ in 0..comb_strip_len(KG_COMB_STRIPS) {
                shifted = shifted.iter().map(Affine::frobenius).collect();
            }
        }
    }

    fn affine_strips(strips: &[Vec<LambdaPoint>]) -> Vec<Vec<Affine>> {
        strips
            .iter()
            .map(|strip| strip.iter().map(LambdaPoint::to_affine).collect())
            .collect()
    }

    #[test]
    fn comb_strip_j_is_strip_zero_after_jl_frobenius_maps() {
        let ld = generator_comb::<Affine>();
        assert_frobenius_shifts(ld, ld[0].clone(), "G's LD");
        let lambda = affine_strips(generator_comb::<LambdaPoint>());
        assert_frobenius_shifts(&lambda, ld[0].clone(), "G's λ");
        // A cached kP comb at w = 4, against the affine oracle's table.
        let (q, cached) = cached_kp_comb();
        let want = precompute_table_binary(&q, KP_WINDOW);
        assert_frobenius_shifts(&affine_strips(cached.strips()), want, "kP");
    }

    #[test]
    fn lambda_table_matches_the_binary_oracle() {
        // G (seed 0) and seeded multiples: the bases λ serves.
        let g = generator();
        for seed in 0..=6u64 {
            let p = if seed == 0 {
                g
            } else {
                g.mul_binary(&scalar(seed + 950))
            };
            for w in 2..=8 {
                let got: Vec<Affine> = precompute_lambda_table(&p, w)
                    .iter()
                    .map(LambdaPoint::to_affine)
                    .collect();
                assert_eq!(got, precompute_table_binary(&p, w), "seed {seed} w = {w}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "λ coordinates need a point of odd order")]
    fn lambda_table_rejects_the_two_torsion_point() {
        precompute_lambda_table(&torsion()[0], KP_WINDOW);
    }

    #[test]
    fn combs_exist_exactly_in_the_subgroup() {
        let q = generator().mul_binary(&Int::from(4242i64));
        let built = Comb::build(&q, KP_WINDOW).expect("a base of the subgroup");
        assert_eq!(built.strips(), key_comb::<LambdaPoint>(&q, KP_WINDOW));
        assert_eq!(built.width(), KP_WINDOW);
        assert_eq!(
            built.widened(KEY_COMB_WINDOW),
            Comb::build(&q, KEY_COMB_WINDOW).unwrap()
        );
        assert_eq!(Comb::build(&Affine::Infinity, KP_WINDOW), None);
        for t in torsion() {
            for base in [t, q.add(&t)] {
                assert_eq!(Comb::build(&base, KP_WINDOW), None, "{base}");
            }
        }
    }

    #[test]
    fn lambda_and_ld_loops_agree_on_kp() {
        // The λ loop against the LD oracle, both on explicit tables, and
        // the cached entry point, on the scalar edges and seeded scalars.
        let q = generator().mul_binary(&Int::from(0x5eed_1234i64));
        for w in [2u32, 4, 5, 8] {
            let ld = precompute_table(&q, w);
            let lambda = precompute_lambda_table(&q, w);
            for k in comb_scalars() {
                let want = mul_wtnaf_with_table(&k, w, &ld).to_affine();
                assert_eq!(mul_wtnaf_with_table(&k, w, &lambda).to_affine(), want);
                assert_eq!(mul_wtnaf(&q, &k, w), want, "w = {w}, k = {k}");
            }
        }
    }

    #[test]
    fn proj_variants_match_affine_entry_points() {
        let q = generator().mul_binary(&Int::from(31337i64));
        for seed in 1..5u64 {
            let k = scalar(seed + 600);
            let u = scalar(seed + 700);
            assert_eq!(mul_wtnaf_proj(&q, &k, 4).to_affine(), mul_wtnaf(&q, &k, 4));
            assert_eq!(mul_g_proj(&k).to_affine(), mul_g(&k));
            assert_eq!(
                double_multiply_proj(&k, &u, &q).to_affine(),
                double_multiply(&k, &u, &q)
            );
        }
        assert!(mul_wtnaf_proj(&q, &Int::zero(), 4).is_infinity());
        assert!(mul_g_proj(&Int::zero()).is_infinity());
    }

    #[test]
    fn repeated_base_multiplications_hit_the_table_cache() {
        let p = generator().mul_binary(&Int::from(0xCAFE_F00Di64));
        let k1 = scalar(801);
        let k2 = scalar(802);
        let _ = mul_wtnaf(&p, &k1, 4); // populate
        let before = crate::cache::stats();
        let got = mul_wtnaf(&p, &k2, 4);
        let after = crate::cache::stats();
        assert!(after.hits > before.hits, "second kP on same base must hit");
        assert_eq!(got, p.mul_binary(&k2));
    }

    #[test]
    fn multiplication_is_a_homomorphism() {
        // (a + b)G = aG + bG through the fast paths.
        let a = scalar(11);
        let b = scalar(22);
        let sum = (&a + &b).mod_positive(&order());
        assert_eq!(mul_g(&a).add(&mul_g(&b)), mul_g(&sum));
    }
}
