//! Point multiplication on sect233k1.
//!
//! The paper's two operations, plus its proposed future work. Every
//! τ-adic multiplication on the host runs one private evaluator: a
//! left-to-right Horner pass over *lanes*, each a digit string paired
//! with the table its digits index. Step t does one Frobenius map, then
//! adds each lane's non-zero digit t (±α_u from that lane's table) in
//! lane order; a lane shorter than the longest reads 0 past its end. The
//! callers differ only in the lanes they pass:
//!
//! * [`mul_wtnaf`] — random-point kP with the left-to-right width-w
//!   TNAF method (the paper uses w = 4), mixed LD-affine additions and
//!   Frobenius in place of doublings: one lane, k's digits against P's
//!   table ([`precompute_table`] builds each α_u·P the same way, from one
//!   lane of α_u's τ-NAF against `[P]`);
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
//!   static size is 8 × 64 = 512 affine points (~34 KiB, host only);
//!   [`mul_g_horner`], the paper's one-lane loop, is its oracle;
//! * [`double_multiply`] — u₁·G + u₂·Q over one shared Frobenius pass.
//!   A verification key recurs, so it is a fixed base too: on its second
//!   double multiply the cache promotes it to a comb of its own
//!   ([`key_comb`]: 8 strips of its w = 5 table, 64 points, 4.3 KiB),
//!   and from then on the pass is one joint comb of 16 lanes over 30
//!   Frobenius maps, u₁'s w = 8 digits against G's strips and u₂'s w = 5
//!   digits against Q's ([`double_multiply_with_strips`]). A key seen
//!   once runs two lanes over 239 maps, u₁ against the comb's strip 0 and
//!   u₂'s w = 4 digits against Q's cached table
//!   ([`double_multiply_with_table`]), the joint comb's reference;
//! * [`montgomery_ladder`] — the constant-time x-only ladder the paper's
//!   §5 names as the fix for its timing-variability caveat.

use crate::curve::{generator, order, Affine};
use crate::formulas::{self, Host, Xz};
use crate::int::Int;
use crate::projective::{batch_to_affine, LdPoint};
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

/// Strip count d of the host kG comb ([`generator_comb`]) and of a
/// recurring verification key's comb ([`key_comb`]).
pub const KG_COMB_STRIPS: usize = 8;

/// Window width of a recurring verification key's comb strips
/// ([`key_comb`]): 2³ = 8 α_u·Q per strip.
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
/// inversion in [`batch_to_affine`]. At w = 4 the three entries take 10
/// digits, 6 of them non-zero (the first of each a plain lift of ±p), so
/// the one inversion dominates.
///
/// Affine coordinates are canonical, so the table equals its oracle
/// [`precompute_table_binary`] point for point.
///
/// # Panics
///
/// Panics if `w` is outside 2..=8.
pub fn precompute_table(p: &Affine, w: u32) -> Vec<Affine> {
    assert_window(w);
    let base = std::slice::from_ref(p);
    let entries: Vec<LdPoint> = tnaf::window(w).alpha_tnafs()[1..]
        .iter()
        .map(|digits| eval_lanes(&[(digits, base)]))
        .collect();
    std::iter::once(*p)
        .chain(batch_to_affine(&entries))
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

/// Adds the table point for one non-zero wTNAF digit: ±`table[|d|/2]`.
fn add_digit(acc: LdPoint, d: i8, table: &[Affine]) -> LdPoint {
    let q = &table[d.unsigned_abs() as usize / 2];
    if d > 0 {
        acc.add_affine(q)
    } else {
        acc.sub_affine(q)
    }
}

/// The τ-adic evaluator behind every host multiplication: Horner's
/// rule over t = L − 1 down to 0, L the longest lane. Each step is one
/// Frobenius map, then one [`add_digit`] per lane, in lane order, for
/// each non-zero digit t of that lane against that lane's table (a
/// short lane reads 0 past its end). A plain τ-NAF (digits ±1)
/// evaluates against the one-entry table `[p]`. The result stays in LD
/// projective coordinates so batch callers can defer the affine
/// conversion — and its inversion — to a Montgomery batch boundary.
fn eval_lanes(lanes: &[(&[i8], &[Affine])]) -> LdPoint {
    let l = lanes.iter().map(|(d, _)| d.len()).max().unwrap_or(0);
    let mut acc = LdPoint::INFINITY;
    for t in (0..l).rev() {
        // Seeding the lane fold with the Frobenius image, rather than
        // assigning it first, ran kP and the double multiply ~3 % faster
        // in a micro-benchmark.
        acc = lanes.iter().fold(acc.frobenius(), |acc, &(digits, table)| {
            match digits.get(t) {
                Some(&d) if d != 0 => add_digit(acc, d, table),
                _ => acc,
            }
        });
    }
    acc
}

/// Random-point multiplication k·P by the left-to-right width-w TNAF
/// method (Guide to ECC Alg. 3.70): the paper's kP configuration with
/// `w = 4`.
///
/// The precomputation table is served from the process-wide
/// [`crate::cache`] — repeated multiplications against the same base
/// point skip `TNAF_Precomputation` entirely.
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
    let k = k.into();
    if k.is_zero() || p.is_infinity() {
        return LdPoint::INFINITY;
    }
    let digits = tnaf::recode(k, w);
    let table = crate::cache::table_for(p, w);
    eval_lanes(&[(&digits, &table)])
}

/// Plain-TNAF multiplication (w = 1): no precomputation beyond ±P.
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
/// both affine coordinates squared L times, i.e. τ^(jL) of `table`.
fn comb_strips(table: Vec<Affine>, strips: usize) -> Vec<Vec<Affine>> {
    let l = comb_strip_len(strips);
    let tau_l = |p: &Affine| match *p {
        Affine::Infinity => Affine::Infinity,
        Affine::Point { x, y } => Affine::Point {
            x: x.square_n(l),
            y: y.square_n(l),
        },
    };
    let mut out = vec![table];
    while out.len() < strips {
        let next = out[out.len() - 1].iter().map(tau_l).collect();
        out.push(next);
    }
    out
}

/// The host kG comb: [`KG_COMB_STRIPS`] strips of the w = 8 table, strip
/// j holding τ^(jL)(α_u·G) for L = 30, built once (one table inversion
/// plus 7 × 64 pairs of 30-fold squarings). 512 affine points, ~34 KiB.
/// Strip 0 is `precompute_table(&G, 8)`, which the double multiply
/// also reads.
pub fn generator_comb() -> &'static [Vec<Affine>] {
    static COMB: OnceLock<Vec<Vec<Affine>>> = OnceLock::new();
    COMB.get_or_init(|| {
        comb_strips(
            precompute_table(&generator(), KG_COMB_WINDOW),
            KG_COMB_STRIPS,
        )
    })
}

/// The comb's lanes: a padded digit string cut into chunks of L =
/// [`comb_strip_len`], chunk j paired with strip j (digit jL + t is
/// lane j's digit t). One chunk per strip; the last may be shorter.
fn comb_lanes<'a>(
    digits: &'a [i8],
    strips: &'a [Vec<Affine>],
) -> impl Iterator<Item = (&'a [i8], &'a [Affine])> {
    let l = comb_strip_len(strips.len());
    debug_assert!(digits.len() <= l * strips.len());
    digits.chunks(l).zip(strips.iter().map(Vec::as_slice))
}

/// Fixed-point multiplication k·G: the w = 8 digits of k cut into
/// [`KG_COMB_STRIPS`] lanes of 30, lane j evaluated against strip j of
/// [`generator_comb`] in one Horner pass — 30 Frobenius maps and ~26
/// additions, where the paper's one-lane loop ([`mul_g_horner`]) pays
/// 239 and ~34. The pass always runs 30 steps of 8 digit slots, so its
/// iteration count stays independent of the scalar. Same canonical
/// affine result as the paper's kG; the modeled M0+ kG keeps the
/// paper's 16-point w = 6 table.
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
    let digits = tnaf::recode(k, KG_COMB_WINDOW);
    let mut lanes = comb_lanes(&digits, generator_comb());
    let lanes: [_; KG_COMB_STRIPS] =
        std::array::from_fn(|_| lanes.next().expect("one digit chunk per strip"));
    eval_lanes(&lanes)
}

/// The paper's kG loop, kept as the comb's oracle: the w = 6 digits of k
/// by Horner's rule against [`generator_table`], one Frobenius per
/// padded digit. [`mul_g_proj`] must give the same point.
pub fn mul_g_horner(k: impl Into<U256>) -> LdPoint {
    eval_lanes(&[(&tnaf::recode(k, KG_WINDOW), generator_table())])
}

/// The comb strips of a recurring verification key Q: [`KG_COMB_STRIPS`]
/// strips of Q's w = [`KEY_COMB_WINDOW`] table, strip j holding
/// τ^(30j)(α_u·Q), built exactly as [`generator_comb`] builds G's (one
/// table inversion plus 7 × 2^(w−2) pairs of 30-fold squarings).
/// [`crate::cache`] builds them for a key on its second double-multiply
/// lookup.
pub fn key_comb(q: &Affine) -> Vec<Vec<Affine>> {
    comb_strips(precompute_table(q, KEY_COMB_WINDOW), KG_COMB_STRIPS)
}

/// Q's precomputation as the double multiply reads it, from
/// [`crate::cache::key_tables_for`].
#[derive(Debug, Clone, PartialEq)]
pub enum KeyTables {
    /// A key not yet promoted: its w = [`KP_WINDOW`] table.
    Window(Arc<Vec<Affine>>),
    /// A recurring key: its [`key_comb`] strips.
    Comb(Arc<Vec<Vec<Affine>>>),
}

/// Simultaneous double multiplication u₁·G + u₂·Q by interleaved
/// width-w TNAF evaluation (the τ-adic Shamir–Strauss trick): one
/// shared Frobenius pass of the lane evaluator instead of two passes,
/// so an ECDSA verification costs barely more than a single
/// random-point multiplication. Q's tables come from the cache
/// ([`crate::cache::key_tables_for`]), which decides the lanes:
///
/// * a key on its first double-multiply lookup runs two lanes over 239
///   Frobenius maps ([`double_multiply_with_table`]): u₁ at w = 8
///   against the comb's strip 0, u₂ at w = 4 against Q's table;
/// * a key seen before runs the joint comb over 30 Frobenius maps
///   ([`double_multiply_with_strips`]): u₁'s 8 lanes against G's strips,
///   then u₂'s 8 lanes at w = [`KEY_COMB_WINDOW`] against Q's.
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
    match crate::cache::key_tables_for(q) {
        KeyTables::Window(table) => double_multiply_with_table(u1, u2, &table),
        KeyTables::Comb(strips) => double_multiply_with_strips(u1, u2, &strips),
    }
}

/// u₁·G + u₂·Q in two lanes over 239 Frobenius maps: u₁'s w = 8 digits
/// against the comb's strip 0, then u₂'s w = 4 digits against `table_q`,
/// Q's [`precompute_table`] at [`KP_WINDOW`]. The path of a key seen
/// once, and the reference of the joint comb.
pub fn double_multiply_with_table(
    u1: impl Into<U256>,
    u2: impl Into<U256>,
    table_q: &[Affine],
) -> LdPoint {
    let d1 = tnaf::recode(u1, KG_COMB_WINDOW);
    let d2 = tnaf::recode(u2, KP_WINDOW);
    eval_lanes(&[(&d1, &generator_comb()[0]), (&d2, table_q)])
}

/// u₁·G + u₂·Q as one joint comb over 30 Frobenius maps: u₁'s w = 8
/// digits in 8 lanes against [`generator_comb`], then u₂'s w =
/// [`KEY_COMB_WINDOW`] digits in 8 lanes against `strips_q`, Q's
/// [`key_comb`]. Same point as [`double_multiply_with_table`].
///
/// # Panics
///
/// Panics unless `strips_q` has [`KG_COMB_STRIPS`] strips.
pub fn double_multiply_with_strips(
    u1: impl Into<U256>,
    u2: impl Into<U256>,
    strips_q: &[Vec<Affine>],
) -> LdPoint {
    assert_eq!(strips_q.len(), KG_COMB_STRIPS, "one strip per comb lane");
    let d1 = tnaf::recode(u1, KG_COMB_WINDOW);
    let d2 = tnaf::recode(u2, KEY_COMB_WINDOW);
    let mut lanes = comb_lanes(&d1, generator_comb()).chain(comb_lanes(&d2, strips_q));
    let lanes: [_; 2 * KG_COMB_STRIPS] =
        std::array::from_fn(|_| lanes.next().expect("one digit chunk per strip"));
    eval_lanes(&lanes)
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

    /// u₁·G + u₂·Q along every double-multiply path: a fresh key's two
    /// lanes and a promoted key's joint comb, each on explicit tables,
    /// then the cached entry point twice, which runs both for a key it
    /// has not seen.
    fn double_multiply_paths(u1: &Int, u2: &Int, q: &Affine) -> [Affine; 4] {
        [
            double_multiply_with_table(u1, u2, &precompute_table(q, KP_WINDOW)).to_affine(),
            double_multiply_with_strips(u1, u2, &key_comb(q)).to_affine(),
            double_multiply(u1, u2, q),
            double_multiply(u1, u2, q),
        ]
    }

    #[test]
    fn double_multiply_matches_separate_multiplications() {
        // Q and its shifts into the three torsion cosets, against the
        // paper's kG loop plus a separate kP.
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

    #[test]
    fn comb_matches_horner_at_every_strip_count() {
        let strip0 = &generator_comb()[0];
        let cases: Vec<(Int, Affine)> = comb_scalars()
            .into_iter()
            .map(|k| {
                let want = mul_g_horner(&k).to_affine();
                (k, want)
            })
            .collect();
        for d in 1..=KG_COMB_STRIPS {
            let strips = comb_strips(strip0.clone(), d);
            assert_eq!(strips.len(), d);
            for (k, want) in &cases {
                let digits = tnaf::recode(k, KG_COMB_WINDOW);
                let lanes: Vec<_> = comb_lanes(&digits, &strips).collect();
                assert_eq!(lanes.len(), d);
                let got = eval_lanes(&lanes).to_affine();
                assert_eq!(got, *want, "d = {d}, k = {k}");
            }
        }
        for (k, want) in &cases {
            assert_eq!(mul_g(k), *want, "k = {k}");
        }
    }

    #[test]
    fn comb_strip_zero_is_the_w8_table() {
        let comb = generator_comb();
        assert_eq!(comb.len(), KG_COMB_STRIPS);
        assert_eq!(comb_strip_len(KG_COMB_STRIPS), 30);
        assert!(comb.iter().all(|strip| strip.len() == 64));
        assert_eq!(comb[0], precompute_table_binary(&generator(), 8));
    }

    #[test]
    fn comb_strip_j_is_strip_zero_after_jl_frobenius_maps() {
        let comb = generator_comb();
        let l = comb_strip_len(KG_COMB_STRIPS);
        let mut shifted = comb[0].clone();
        for (j, strip) in comb.iter().enumerate() {
            assert_eq!(*strip, shifted, "strip {j}");
            for _ in 0..l {
                shifted = shifted.iter().map(Affine::frobenius).collect();
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
