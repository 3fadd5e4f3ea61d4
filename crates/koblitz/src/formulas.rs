//! The point formulas, written once over a field-ops backend.
//!
//! López-Dahab (LD): doubling (3M + 5S), mixed LD + affine addition
//! (8M + 5S), the Frobenius map (3S), table-point negation, the
//! conversion to affine (1I + 2M + 1S) and the Montgomery ladder's madd
//! (4M + 1S) and mdouble (1M + 4S). λ-projective, for the host's τ-adic
//! loops on points of odd order: mixed λ-projective + λ-affine addition
//! (8M + 2S) with its doubling (4M + 4S), the Frobenius map (3S),
//! negation (λ + 1, no multiplication), the conversion back to LD (1M)
//! and the per-point part of the table conversion to λ-affine
//! (3M + 1S around a shared inversion). The host runs λ because a
//! squaring costs nearly a multiplication there; the modeled M0+ tier,
//! where a squaring is a cheap table spread, keeps the paper's LD.
//!
//! Each formula is generic over [`FieldOps`]. The [`Host`] backend
//! computes on [`Fe`] values, behind `LdPoint`, the λ loop of `mul` and
//! `mul::montgomery_ladder`; `ModeledMul` computes on machine RAM slots
//! with charged kernels. Each operation names its destination and
//! returns it (the host ignores it, the model writes that slot), so the
//! modeled instantiation issues its kernels in the order written, into
//! the slots named. The affine tier of `curve` is the formulas' oracle.

use crate::curve::Affine;
use crate::projective::{LambdaPoint, LambdaProj, LdPoint};
use gf2m::Fe;

/// Field operations with a destination: `mul`, `sqr`, `add`, `copy` and
/// `set_const` write `dst` and return it, `inv` inverts a non-zero
/// element, and `scratch` hands out the elements a formula may write
/// its temporaries into.
pub(crate) trait FieldOps {
    /// A field element: a value on the host, a RAM slot on the model.
    type El: Copy;
    fn scratch(&self) -> [Self::El; 10];
    fn mul(&mut self, dst: Self::El, a: Self::El, b: Self::El) -> Self::El;
    fn sqr(&mut self, dst: Self::El, a: Self::El) -> Self::El;
    fn add(&mut self, dst: Self::El, a: Self::El, b: Self::El) -> Self::El;
    fn copy(&mut self, dst: Self::El, a: Self::El) -> Self::El;
    fn set_const(&mut self, dst: Self::El, c: Fe) -> Self::El;
    fn is_zero(&mut self, a: Self::El) -> bool;
    fn inv(&mut self, dst: Self::El, a: Self::El) -> Self::El;
}

/// The host backend: elements are [`Fe`] values, and copies and
/// constants are plain moves.
pub(crate) struct Host;

impl FieldOps for Host {
    type El = Fe;
    #[inline]
    fn scratch(&self) -> [Fe; 10] {
        [Fe::ZERO; 10]
    }
    #[inline]
    fn mul(&mut self, _: Fe, a: Fe, b: Fe) -> Fe {
        a * b
    }
    #[inline]
    fn sqr(&mut self, _: Fe, a: Fe) -> Fe {
        a.square()
    }
    #[inline]
    fn add(&mut self, _: Fe, a: Fe, b: Fe) -> Fe {
        a + b
    }
    #[inline]
    fn copy(&mut self, _: Fe, a: Fe) -> Fe {
        a
    }
    #[inline]
    fn set_const(&mut self, _: Fe, c: Fe) -> Fe {
        c
    }
    #[inline]
    fn is_zero(&mut self, a: Fe) -> bool {
        a.is_zero()
    }
    #[inline]
    fn inv(&mut self, _: Fe, a: Fe) -> Fe {
        a.invert().expect("inverse of a non-zero element")
    }
}

/// A finite affine point.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Xy<E> {
    pub(crate) x: E,
    pub(crate) y: E,
}

/// An x-only ladder point (x = X/Z).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Xz<E> {
    pub(crate) x: E,
    pub(crate) z: E,
}

/// Infinity, (1, 0, 0), in p's elements.
#[inline]
pub(crate) fn set_infinity<F: FieldOps>(f: &mut F, p: LdPoint<F::El>) -> LdPoint<F::El> {
    LdPoint {
        x: f.set_const(p.x, Fe::ONE),
        y: f.set_const(p.y, Fe::ZERO),
        z: f.set_const(p.z, Fe::ZERO),
    }
}

/// 2p by LD doubling with a = 0, b = 1 (Guide to ECC Alg. 3.24
/// specialised), 3M + 5S; infinity stays as it is.
#[inline]
pub(crate) fn double<F: FieldOps>(f: &mut F, p: LdPoint<F::El>) -> LdPoint<F::El> {
    if f.is_zero(p.z) {
        return p;
    }
    let [t1, t2, t3, t4, t5, ..] = f.scratch();
    let t1 = f.sqr(t1, p.z); // Z1²
    let t2 = f.sqr(t2, p.x); // X1²
    let t3 = f.mul(t3, t1, t2); // Z3 = X1²·Z1²
    let t4 = f.sqr(t4, t2); // X1⁴
    let t5 = f.sqr(t5, t1); // b·Z1⁴
    let t4 = f.add(t4, t4, t5); // X3 = X1⁴ + b·Z1⁴ (X3 = 0 needs no special case)
    let t1 = f.sqr(t1, p.y); // Y1²
    let t1 = f.add(t1, t1, t5); // a·Z3 + Y1² + b·Z1⁴
    let t2 = f.mul(t2, t5, t3); // b·Z1⁴·Z3
    let t5 = f.mul(t5, t4, t1); // X3·(a·Z3 + Y1² + b·Z1⁴)
    let t2 = f.add(t2, t2, t5); // Y3
    LdPoint {
        x: f.copy(p.x, t4),
        y: f.copy(p.y, t2),
        z: f.copy(p.z, t3),
    }
}

/// p + q by mixed LD + affine addition with a = 0 (Guide to ECC
/// Alg. 3.25 specialised), 8M + 5S. p at infinity lifts q to Z = 1;
/// equal x coordinates double p (P = Q) or give infinity (P = −Q).
#[inline]
pub(crate) fn add_affine<F: FieldOps>(
    f: &mut F,
    p: LdPoint<F::El>,
    q: Xy<F::El>,
) -> LdPoint<F::El> {
    if f.is_zero(p.z) {
        return LdPoint {
            x: f.copy(p.x, q.x),
            y: f.copy(p.y, q.y),
            z: f.set_const(p.z, Fe::ONE),
        };
    }
    let [t1, t2, a, b, c, z3, e, f3, g, x3] = f.scratch();
    let t1 = f.sqr(t1, p.z); // Z1²
    let t2 = f.mul(t2, q.y, t1); // y2·Z1²
    let a = f.add(a, p.y, t2); // A = Y1 + y2·Z1²
    let t2 = f.mul(t2, q.x, p.z); // x2·Z1
    let b = f.add(b, p.x, t2); // B = X1 + x2·Z1
    if f.is_zero(b) {
        return if f.is_zero(a) {
            double(f, p)
        } else {
            set_infinity(f, p)
        };
    }
    let c = f.mul(c, p.z, b); // C = Z1·B
    let z3 = f.sqr(z3, c); // Z3 = C²
    let t1 = f.sqr(t1, b); // B²
    let t2 = f.mul(t2, t1, c); // D = B²·(C + a·Z1²)
    let e = f.mul(e, a, c); // E = A·C
    let t1 = f.sqr(t1, a); // A²
    let t1 = f.add(t1, t1, t2); // A² + D
    let x3 = f.add(x3, t1, e); // X3 = A² + D + E
    let t1 = f.mul(t1, q.x, z3); // x2·Z3
    let f3 = f.add(f3, x3, t1); // F = X3 + x2·Z3
    let t1 = f.add(t1, q.x, q.y); // x2 + y2
    let t2 = f.sqr(t2, z3); // Z3²
    let g = f.mul(g, t1, t2); // G = (x2 + y2)·Z3²
    let t1 = f.add(t1, e, z3); // E + Z3
    let t2 = f.mul(t2, t1, f3); // (E + Z3)·F
    let t2 = f.add(t2, t2, g); // Y3 = (E + Z3)·F + G
    LdPoint {
        x: f.copy(p.x, x3),
        y: f.copy(p.y, t2),
        z: f.copy(p.z, z3),
    }
}

/// τ(p) = (X², Y², Z²), 3S.
#[inline]
pub(crate) fn frobenius<F: FieldOps>(f: &mut F, p: LdPoint<F::El>) -> LdPoint<F::El> {
    LdPoint {
        x: f.sqr(p.x, p.x),
        y: f.sqr(p.y, p.y),
        z: f.sqr(p.z, p.z),
    }
}

/// −q = (x, x + y) in dst: the table point a negative digit adds.
#[inline]
pub(crate) fn negate<F: FieldOps>(f: &mut F, dst: Xy<F::El>, q: Xy<F::El>) -> Xy<F::El> {
    Xy {
        x: f.copy(dst.x, q.x),
        y: f.add(dst.y, q.x, q.y),
    }
}

/// p + q by mixed λ-projective + λ-affine addition (Oliveira et al.,
/// CHES 2013), 8M + 2S. p at infinity lifts q to Z = 1; equal x
/// coordinates double p (P = Q) or give infinity (P = −Q). Both points
/// must have odd order: a sum equal to (0, 1), which has no λ, would
/// come out as infinity. Forced inline: the host's λ loop pays ~8 % of
/// a kG for the call otherwise.
#[inline(always)]
pub(crate) fn lambda_add<F: FieldOps>(
    f: &mut F,
    p: LambdaProj<F::El>,
    q: LambdaPoint<F::El>,
) -> LambdaProj<F::El> {
    if f.is_zero(p.z) {
        return LambdaProj {
            x: f.copy(p.x, q.x),
            l: f.copy(p.l, q.l),
            z: f.set_const(p.z, Fe::ONE),
        };
    }
    let [xz, a, b, t, ab, ax, x3, z3, lz, abl] = f.scratch();
    let xz = f.mul(xz, q.x, p.z); // x_Q·Z
    let a = f.mul(a, q.l, p.z); // λ_Q·Z
    let a = f.add(a, a, p.l); // A = L + λ_Q·Z
    let b = f.add(b, p.x, xz); // X + x_Q·Z
    let b = f.sqr(b, b); // B = (X + x_Q·Z)²
    if f.is_zero(b) {
        return lambda_add_equal_x(f, p, a);
    }
    let t = f.mul(t, a, xz); // T = A·x_Q·Z
    let ax = f.mul(ax, a, p.x); // A·X
    let x3 = f.mul(x3, t, ax); // X3 = T·A·X
    let ab = f.mul(ab, a, b); // A·B
    let z3 = f.mul(z3, ab, p.z); // Z3 = A·B·Z
    let lz = f.add(lz, p.l, p.z); // L + Z
    let abl = f.mul(abl, ab, lz); // A·B·(L + Z)
    let t = f.add(t, t, b); // T + B
    let t = f.sqr(t, t); // (T + B)²
    let l3 = f.add(t, t, abl); // L3 = (T + B)² + A·B·(L + Z)
    LambdaProj {
        x: f.copy(p.x, x3),
        l: f.copy(p.l, l3),
        z: f.copy(p.z, z3),
    }
}

/// [`lambda_add`]'s P = ±Q branch, given A = L + λ_Q·Z: 2P when A = 0,
/// infinity otherwise. Out of line and cold: random scalars all but never
/// reach it, and [`lambda_add`] is forced inline at each call site.
#[cold]
#[inline(never)]
fn lambda_add_equal_x<F: FieldOps>(f: &mut F, p: LambdaProj<F::El>, a: F::El) -> LambdaProj<F::El> {
    if f.is_zero(a) {
        lambda_double(f, p)
    } else {
        LambdaProj {
            x: f.set_const(p.x, Fe::ONE),
            l: f.set_const(p.l, Fe::ZERO),
            z: f.set_const(p.z, Fe::ZERO),
        }
    }
}

/// 2p in λ-projective coordinates with a = 0 (Oliveira et al., CHES
/// 2013), 4M + 4S: T = L² + L·Z, X2 = T², Z2 = T·Z² and
/// L2 = (X·Z)² + X2 + T·L·Z + Z2. Only [`lambda_add`]'s P = Q branch
/// calls it; infinity stays as it is.
#[inline]
pub(crate) fn lambda_double<F: FieldOps>(f: &mut F, p: LambdaProj<F::El>) -> LambdaProj<F::El> {
    if f.is_zero(p.z) {
        return p;
    }
    let [t, lz, zz, xz, x2, z2, tlz, ..] = f.scratch();
    let lz = f.mul(lz, p.l, p.z); // L·Z
    let t = f.sqr(t, p.l); // L²
    let t = f.add(t, t, lz); // T = L² + L·Z
    let zz = f.sqr(zz, p.z); // Z²
    let x2 = f.sqr(x2, t); // X2 = T²
    let z2 = f.mul(z2, t, zz); // Z2 = T·Z²
    let xz = f.mul(xz, p.x, p.z); // X·Z
    let xz = f.sqr(xz, xz); // (X·Z)²
    let tlz = f.mul(tlz, t, lz); // T·L·Z
    let xz = f.add(xz, xz, x2); // (X·Z)² + X2
    let xz = f.add(xz, xz, tlz); // … + T·L·Z
    let l2 = f.add(xz, xz, z2); // L2
    LambdaProj {
        x: f.copy(p.x, x2),
        l: f.copy(p.l, l2),
        z: f.copy(p.z, z2),
    }
}

/// τ(p) = (X², L², Z²), 3S: λ(τP) = λ(P)².
#[inline(always)]
pub(crate) fn lambda_frobenius<F: FieldOps>(f: &mut F, p: LambdaProj<F::El>) -> LambdaProj<F::El> {
    LambdaProj {
        x: f.sqr(p.x, p.x),
        l: f.sqr(p.l, p.l),
        z: f.sqr(p.z, p.z),
    }
}

/// −q = (x, λ + 1) in dst: the λ table point a negative digit adds.
#[inline]
pub(crate) fn lambda_negate<F: FieldOps>(
    f: &mut F,
    dst: LambdaPoint<F::El>,
    q: LambdaPoint<F::El>,
) -> LambdaPoint<F::El> {
    let one = f.set_const(dst.l, Fe::ONE);
    LambdaPoint {
        x: f.copy(dst.x, q.x),
        l: f.add(dst.l, q.l, one),
    }
}

/// p in LD coordinates, (X, X·(L + X), Z): y = x·(λ + x). 1M.
#[inline(always)]
pub(crate) fn lambda_to_ld<F: FieldOps>(f: &mut F, p: LambdaProj<F::El>) -> LdPoint<F::El> {
    let [t, ..] = f.scratch();
    if f.is_zero(p.z) {
        return set_infinity(
            f,
            LdPoint {
                x: p.x,
                y: p.l,
                z: p.z,
            },
        );
    }
    let t = f.add(t, p.l, p.x); // L + X
    LdPoint {
        x: p.x,
        y: f.mul(p.l, p.x, t), // X·(L + X)
        z: p.z,
    }
}

/// X·Z: the element a batch inverts to take p to λ-affine. 1M.
#[inline]
pub(crate) fn lambda_denominator<F: FieldOps>(f: &mut F, p: LdPoint<F::El>) -> F::El {
    let [t, ..] = f.scratch();
    f.mul(t, p.x, p.z)
}

/// p in λ-affine coordinates given `inv` = (X·Z)⁻¹: x = X²·inv and
/// λ = (X² + Y)·inv (x = X/Z, λ = x + y/x = (X² + Y)/(X·Z)). 2M + 1S.
#[inline]
pub(crate) fn to_lambda<F: FieldOps>(
    f: &mut F,
    p: LdPoint<F::El>,
    inv: F::El,
) -> LambdaPoint<F::El> {
    let [x2, x, l, ..] = f.scratch();
    let x2 = f.sqr(x2, p.x); // X²
    let x = f.mul(x, x2, inv); // x = X²·inv
    let x2 = f.add(x2, x2, p.y); // X² + Y
    let l = f.mul(l, x2, inv); // λ = (X² + Y)·inv
    LambdaPoint { x, l }
}

/// p's affine coordinates x = X·Z⁻¹, y = Y·(Z⁻¹)², in scratch elements 6
/// and 7: 1I + 2M + 1S. `None` for infinity.
#[inline]
pub(crate) fn to_affine<F: FieldOps>(f: &mut F, p: LdPoint<F::El>) -> Option<Xy<F::El>> {
    if f.is_zero(p.z) {
        return None;
    }
    let [t1, _, _, _, _, _, x, y, ..] = f.scratch();
    let t1 = f.inv(t1, p.z); // Z⁻¹
    let x = f.mul(x, p.x, t1); // x = X·Z⁻¹
    let t1 = f.sqr(t1, t1); // Z⁻²
    let y = f.mul(y, p.y, t1); // y = Y·Z⁻²
    Some(Xy { x, y })
}

/// a + d by x-only differential addition, written into a's elements;
/// `xp` is the base point's x, the difference d − a. 4M + 1S.
#[inline]
pub(crate) fn madd<F: FieldOps>(f: &mut F, a: Xz<F::El>, d: Xz<F::El>, xp: F::El) -> Xz<F::El> {
    let [t1, t2, t3, ..] = f.scratch();
    let t1 = f.mul(t1, a.x, d.z); // T = X1·Z2
    let t2 = f.mul(t2, d.x, a.z); // U = X2·Z1
    let t3 = f.add(t3, t1, t2); // T + U
    let z = f.sqr(a.z, t3); // Z = (T + U)²
    let t3 = f.mul(t3, t1, t2); // T·U
    let t1 = f.mul(t1, xp, z); // xp·Z
    let x = f.add(a.x, t1, t3); // X = xp·Z + T·U
    Xz { x, z }
}

/// 2d = (X⁴ + b·Z⁴, X²·Z²) with b = 1, written into d's elements. 1M + 4S.
#[inline]
pub(crate) fn mdouble<F: FieldOps>(f: &mut F, d: Xz<F::El>) -> Xz<F::El> {
    let [t1, t2, ..] = f.scratch();
    let t1 = f.sqr(t1, d.x); // X²
    let t2 = f.sqr(t2, d.z); // Z²
    let z = f.mul(d.z, t1, t2); // X²·Z²
    let t1 = f.sqr(t1, t1); // X⁴
    let t2 = f.sqr(t2, t2); // b·Z⁴
    let x = f.add(d.x, t1, t2); // X⁴ + b·Z⁴
    Xz { x, z }
}

/// One ladder step, (a, d) → (a + d, 2d): with (R0, R1) it processes a
/// one bit, with (R1, R0) a zero bit. 5M + 5S.
#[inline]
pub(crate) fn ladder_step<F: FieldOps>(
    f: &mut F,
    a: Xz<F::El>,
    d: Xz<F::El>,
    xp: F::El,
) -> (Xz<F::El>, Xz<F::El>) {
    (madd(f, a, d, xp), mdouble(f, d))
}

/// The ladder's affine result from R0 = kP and R1 = (k + 1)P, both
/// x-only (López-Dahab 1999). Both tiers run it on host values.
pub(crate) fn recover_y(p: &Affine, r0: Xz<Fe>, r1: Xz<Fe>) -> Affine {
    let (xp, yp) = (p.x(), p.y());
    if r0.z.is_zero() {
        return Affine::Infinity;
    }
    if r1.z.is_zero() {
        // kP = −P.
        return Affine::Point { x: xp, y: xp + yp };
    }
    let x1 = r0.x * r0.z.invert().expect("z1 != 0");
    let x2 = r1.x * r1.z.invert().expect("z2 != 0");
    let y =
        (x1 + xp) * ((x1 + xp) * (x2 + xp) + xp.square() + yp) * xp.invert().expect("x != 0") + yp;
    Affine::Point { x: x1, y }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curve::generator;
    use crate::int::Int;

    /// A test backend that computes on the host and counts the
    /// multiplications, squarings and inversions each formula issues.
    #[derive(Debug, Default)]
    struct Counting {
        m: u32,
        s: u32,
        i: u32,
    }

    impl Counting {
        /// (M, S, I) since the last call.
        fn take(&mut self) -> (u32, u32, u32) {
            let out = (self.m, self.s, self.i);
            *self = Counting::default();
            out
        }
    }

    impl FieldOps for Counting {
        type El = Fe;
        fn scratch(&self) -> [Fe; 10] {
            Host.scratch()
        }
        fn mul(&mut self, d: Fe, a: Fe, b: Fe) -> Fe {
            self.m += 1;
            Host.mul(d, a, b)
        }
        fn sqr(&mut self, d: Fe, a: Fe) -> Fe {
            self.s += 1;
            Host.sqr(d, a)
        }
        fn add(&mut self, d: Fe, a: Fe, b: Fe) -> Fe {
            Host.add(d, a, b)
        }
        fn copy(&mut self, d: Fe, a: Fe) -> Fe {
            Host.copy(d, a)
        }
        fn set_const(&mut self, d: Fe, c: Fe) -> Fe {
            Host.set_const(d, c)
        }
        fn is_zero(&mut self, a: Fe) -> bool {
            Host.is_zero(a)
        }
        fn inv(&mut self, d: Fe, a: Fe) -> Fe {
            self.i += 1;
            Host.inv(d, a)
        }
    }

    fn multiple(k: i64) -> Affine {
        generator().mul_binary(&Int::from(k))
    }

    fn xy(p: &Affine) -> Xy<Fe> {
        Xy { x: p.x(), y: p.y() }
    }

    /// A multiple of G in LD coordinates with Z ≠ 1.
    fn scrubbed(k: i64) -> LdPoint {
        LdPoint::from_affine(&multiple(k))
            .frobenius()
            .add_affine(&multiple(3))
    }

    #[test]
    fn ld_formula_costs() {
        let mut f = Counting::default();
        let p = double(&mut f, scrubbed(5));
        assert_eq!(f.take(), (3, 5, 0), "double: 3M + 5S");

        let p = add_affine(&mut f, p, xy(&multiple(11)));
        assert_eq!(f.take(), (8, 5, 0), "mixed addition: 8M + 5S");

        let p = frobenius(&mut f, p);
        assert_eq!(f.take(), (0, 3, 0), "Frobenius: 3S");

        let q = xy(&multiple(7));
        negate(&mut f, q, q);
        assert_eq!(f.take(), (0, 0, 0), "negation: additions only");

        to_affine(&mut f, p).expect("finite");
        assert_eq!(f.take(), (2, 1, 1), "to_affine: 1I + 2M + 1S");
    }

    #[test]
    fn mixed_addition_degenerate_branch_costs() {
        let mut f = Counting::default();
        let g = multiple(1);
        let p = scrubbed(1);
        let p_aff = p.to_affine();

        // O + Q lifts Q: no field multiplication.
        let lifted = add_affine(&mut f, LdPoint::INFINITY, xy(&g));
        assert_eq!(f.take(), (0, 0, 0), "O + Q");
        assert_eq!(lifted.to_affine(), g);

        // P + P: the 2M + 1S that find B = A = 0, then a doubling.
        let twice = add_affine(&mut f, p, xy(&p_aff));
        assert_eq!(f.take(), (2 + 3, 1 + 5, 0), "P + P");
        assert_eq!(twice.to_affine(), p_aff.double());

        // P + (−P): the 2M + 1S that find B = 0 ≠ A, then infinity.
        let zero = add_affine(&mut f, p, xy(&p_aff.negated()));
        assert_eq!(f.take(), (2, 1, 0), "P − P");
        assert!(zero.is_infinity());

        // Doubling and converting infinity cost nothing.
        double(&mut f, LdPoint::INFINITY);
        assert!(to_affine(&mut f, LdPoint::INFINITY).is_none());
        assert_eq!(f.take(), (0, 0, 0), "2·O and O → affine");
    }

    /// q in λ-affine coordinates: λ = x + y/x.
    fn lam(q: &Affine) -> LambdaPoint {
        LambdaPoint {
            x: q.x(),
            l: q.x() + q.y() * q.x().invert().expect("odd order"),
        }
    }

    /// An LD point in λ-projective coordinates, (X², X² + Y, X·Z): Z ≠ 1
    /// whenever the LD point's is.
    fn lambda_proj(p: LdPoint) -> LambdaProj {
        let x2 = p.x.square();
        LambdaProj {
            x: x2,
            l: x2 + p.y,
            z: p.x * p.z,
        }
    }

    #[test]
    fn lambda_formula_costs() {
        let mut f = Counting::default();
        let p = lambda_proj(scrubbed(5));
        let q = lam(&multiple(11));
        let p = lambda_add(&mut f, p, q);
        assert_eq!(f.take(), (8, 2, 0), "λ mixed addition: 8M + 2S");

        let p = lambda_frobenius(&mut f, p);
        assert_eq!(f.take(), (0, 3, 0), "λ Frobenius: 3S");

        let neg = lambda_negate(&mut f, q, q);
        assert_eq!(f.take(), (0, 0, 0), "λ negation: additions only");
        assert_eq!(neg.to_affine(), multiple(11).negated());

        let ld = lambda_to_ld(&mut f, p);
        assert_eq!(f.take(), (1, 0, 0), "λ → LD: 1M");
        let want = scrubbed(5).add_affine(&multiple(11)).frobenius();
        assert_eq!(ld.to_affine(), want.to_affine());

        let inv = lambda_denominator(&mut f, want)
            .invert()
            .expect("odd order");
        let entry = to_lambda(&mut f, want, inv);
        assert_eq!(f.take(), (3, 1, 0), "table entry → λ-affine: 3M + 1S");
        assert_eq!(entry, lam(&want.to_affine()));
    }

    #[test]
    fn lambda_degenerate_branch_costs() {
        let mut f = Counting::default();
        let g = multiple(1);
        let p = lambda_proj(scrubbed(1));
        let p_aff = scrubbed(1).to_affine();

        // O + Q lifts Q: no field multiplication.
        let lifted = lambda_add(&mut f, LambdaProj::INFINITY, lam(&g));
        assert_eq!(f.take(), (0, 0, 0), "O + Q");
        assert_eq!(lambda_to_ld(&mut f, lifted).to_affine(), g);
        f.take();

        // P + P: the 2M + 1S that find B = A = 0, then a 4M + 4S doubling.
        let twice = lambda_add(&mut f, p, lam(&p_aff));
        assert_eq!(f.take(), (2 + 4, 1 + 4, 0), "P + P");
        assert_eq!(lambda_to_ld(&mut f, twice).to_affine(), p_aff.double());
        f.take();

        // P + (−P): the 2M + 1S that find B = 0 ≠ A, then infinity.
        let zero = lambda_add(&mut f, p, lam(&p_aff.negated()));
        assert_eq!(f.take(), (2, 1, 0), "P − P");
        assert!(f.is_zero(zero.z));

        // Converting and doubling infinity cost nothing.
        assert_eq!(lambda_to_ld(&mut f, zero), LdPoint::INFINITY);
        lambda_double(&mut f, zero);
        assert_eq!(f.take(), (0, 0, 0), "O → LD and 2·O");
    }

    #[test]
    fn ladder_formula_costs() {
        let mut f = Counting::default();
        let xp = multiple(1).x();
        // R0 = P, R1 = 2P.
        let r0 = Xz { x: xp, z: Fe::ONE };
        let r1 = mdouble(&mut f, r0);
        assert_eq!(f.take(), (1, 4, 0), "mdouble: 1M + 4S");
        madd(&mut f, r0, r1, xp);
        assert_eq!(f.take(), (4, 1, 0), "madd: 4M + 1S");
        // A one bit: R0 = 3P, R1 = 4P.
        let (r0, r1) = ladder_step(&mut f, r0, r1, xp);
        assert_eq!(f.take(), (5, 5, 0), "ladder step: 5M + 5S");
        assert_eq!(recover_y(&multiple(1), r0, r1), multiple(3));
    }
}
