//! The sect233k1 Koblitz curve and its affine point arithmetic.
//!
//! E: y² + xy = x³ + 1 over F₂²³³ (a = 0, b = 1), the NIST K-233 curve
//! the paper selects in §3.1. Affine arithmetic costs a field inversion
//! per operation and serves as the *reference group law* against which
//! the projective (López-Dahab) formulas, the TNAF machinery and the
//! Montgomery ladder are all validated.

use crate::int::Int;
use gf2m::Fe;
use std::fmt;
use std::sync::OnceLock;

/// The curve coefficient b = 1 (a is 0 and is omitted from formulas).
pub const B: Fe = Fe::ONE;

/// μ = (−1)^(1−a) = −1 for a = 0: the trace of the Frobenius
/// endomorphism, τ² + 2 = μτ.
pub const MU: i64 = -1;

/// Cofactor h = #E / n = 4.
pub const COFACTOR: u32 = 4;

/// x-coordinate of the SEC 2 base point G.
pub fn gen_x() -> Fe {
    Fe::from_hex("17232BA853A7E731AF129F22FF4149563A419C26BF50A4C9D6EEFAD6126")
        .expect("constant is valid")
}

/// y-coordinate of the SEC 2 base point G.
pub fn gen_y() -> Fe {
    Fe::from_hex("1DB537DECE819B7F70F555A67C427A8CD9BF18AEB9B56E0C11056FAE6A3")
        .expect("constant is valid")
}

/// The prime group order n (232 bits), parsed once.
pub fn order() -> Int {
    static ORDER: OnceLock<Int> = OnceLock::new();
    ORDER
        .get_or_init(|| {
            Int::from_hex("8000000000000000000000000000069D5BB915BCD46EFB1AD5F173ABDF")
                .expect("constant is valid")
        })
        .clone()
}

/// The base point G.
pub fn generator() -> Affine {
    Affine::new(gen_x(), gen_y()).expect("G is on the curve")
}

/// An affine point on sect233k1 (or the point at infinity).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Affine {
    /// The identity element.
    Infinity,
    /// A finite point (x, y) satisfying the curve equation.
    Point {
        /// x-coordinate.
        x: Fe,
        /// y-coordinate.
        y: Fe,
    },
}

/// Error constructing a point from coordinates not on the curve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NotOnCurveError;

impl fmt::Display for NotOnCurveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("coordinates do not satisfy the curve equation")
    }
}

impl std::error::Error for NotOnCurveError {}

impl Affine {
    /// Constructs a validated point.
    ///
    /// # Errors
    ///
    /// Returns [`NotOnCurveError`] if y² + xy ≠ x³ + 1.
    pub fn new(x: Fe, y: Fe) -> Result<Affine, NotOnCurveError> {
        let p = Affine::Point { x, y };
        if p.is_on_curve() {
            Ok(p)
        } else {
            Err(NotOnCurveError)
        }
    }

    /// Whether the point satisfies the curve equation (infinity counts).
    pub fn is_on_curve(&self) -> bool {
        match *self {
            Affine::Infinity => true,
            Affine::Point { x, y } => {
                // y² + xy = x³ + 1
                y.square() + x * y == x.square() * x + B
            }
        }
    }

    /// Whether this is the identity.
    pub fn is_infinity(&self) -> bool {
        matches!(self, Affine::Infinity)
    }

    /// The x-coordinate.
    ///
    /// # Panics
    ///
    /// Panics for the point at infinity.
    pub fn x(&self) -> Fe {
        match *self {
            Affine::Point { x, .. } => x,
            Affine::Infinity => panic!("infinity has no x-coordinate"),
        }
    }

    /// The y-coordinate.
    ///
    /// # Panics
    ///
    /// Panics for the point at infinity.
    pub fn y(&self) -> Fe {
        match *self {
            Affine::Point { y, .. } => y,
            Affine::Infinity => panic!("infinity has no y-coordinate"),
        }
    }

    /// Point negation: −(x, y) = (x, x + y).
    #[must_use]
    pub fn negated(&self) -> Affine {
        match *self {
            Affine::Infinity => Affine::Infinity,
            Affine::Point { x, y } => Affine::Point { x, y: x + y },
        }
    }

    /// The Frobenius endomorphism τ(x, y) = (x², y²). On a Koblitz curve
    /// τ satisfies τ² + 2 = μτ, and τ(P) costs two squarings.
    #[must_use]
    pub fn frobenius(&self) -> Affine {
        match *self {
            Affine::Infinity => Affine::Infinity,
            Affine::Point { x, y } => Affine::Point {
                x: x.square(),
                y: y.square(),
            },
        }
    }

    /// Group addition (handles all cases).
    #[must_use]
    pub fn add(&self, other: &Affine) -> Affine {
        match (*self, *other) {
            (Affine::Infinity, q) => q,
            (p, Affine::Infinity) => p,
            (Affine::Point { x: x1, y: y1 }, Affine::Point { x: x2, y: y2 }) => {
                if x1 == x2 {
                    if y1 == y2 {
                        return self.double();
                    }
                    // P + (−P): y2 = x1 + y1.
                    debug_assert_eq!(y2, x1 + y1);
                    return Affine::Infinity;
                }
                let lambda = (y1 + y2) * (x1 + x2).invert().expect("x1 != x2");
                let x3 = lambda.square() + lambda + x1 + x2; // + a, a = 0
                let y3 = lambda * (x1 + x3) + x3 + y1;
                Affine::Point { x: x3, y: y3 }
            }
        }
    }

    /// Point doubling.
    #[must_use]
    pub fn double(&self) -> Affine {
        match *self {
            Affine::Infinity => Affine::Infinity,
            Affine::Point { x, y } => {
                if x.is_zero() {
                    // 2-torsion: the tangent is vertical.
                    return Affine::Infinity;
                }
                let lambda = x + y * x.invert().expect("x != 0");
                let x3 = lambda.square() + lambda; // + a
                let y3 = x.square() + (lambda + Fe::ONE) * x3;
                Affine::Point { x: x3, y: y3 }
            }
        }
    }

    /// Point halving (Knudsen/Schroeppel): returns a `Q` with `2Q = self`,
    /// or `None` if the point is not a double (`Tr(x) ≠ Tr(a) = 0`).
    ///
    /// Halving replaces the doubling's field inversion with one
    /// half-trace, one square root and one multiplication, which is why
    /// halve-and-add competes with double-and-add on binary curves.
    ///
    /// The half is two-valued — `Q` and `Q + (0,1)` both double back to
    /// `self` — and on this curve (cofactor 4, an order-4 point exists)
    /// *no local trace test separates them*: picking the wrong one makes
    /// the grandchild generation non-halvable. This function prefers a
    /// branch whose result is itself halvable when one exists; iterating
    /// callers handle the occasional dead end by adding the 2-torsion
    /// point `(0, 1)` and halving again (see the tests).
    pub fn halve(&self) -> Option<Affine> {
        match *self {
            Affine::Infinity => Some(Affine::Infinity),
            Affine::Point { x, y } => {
                // Solve λ² + λ = x (a = 0); solvable iff Tr(x) = 0.
                if x.trace() != 0 {
                    return None;
                }
                let lambda = x.half_trace();
                // u² = y + x·λ + x, v = u·λ + u².
                let usq = y + x * lambda + x;
                let u = usq.sqrt();
                // Two halves exist (λ and λ+1, differing by the
                // 2-torsion point); pick the one that is itself
                // halvable (Tr(u) = 0) so halving can be iterated —
                // that branch is the one inside the doubled subgroup.
                let (lambda, usq, u) = if u.trace() == 0 {
                    (lambda, usq, u)
                } else {
                    let usq2 = usq + x;
                    (lambda + Fe::ONE, usq2, usq2.sqrt())
                };
                let v = u * lambda + usq;
                let q = Affine::Point { x: u, y: v };
                debug_assert!(q.is_on_curve());
                Some(q)
            }
        }
    }

    /// Point halving that stays in the halvable chain: of the two halves
    /// (`Q` and `Q + (0,1)`), returns the one whose own half exists —
    /// one level of look-ahead, since on this cofactor-4 curve the twins
    /// share every local trace invariant (Tr is Frobenius-invariant, so
    /// `Tr(u)` and `Tr(u + √x)` are equal whenever `Tr(x) = 0`).
    ///
    /// For points of odd order this returns the subgroup half every
    /// time, so it can be iterated indefinitely (halve-and-add).
    pub fn halve_in_subgroup(&self) -> Option<Affine> {
        let c1 = self.halve()?;
        if c1.is_infinity() {
            return Some(c1);
        }
        let child_exists = |c: &Affine| match *c {
            Affine::Infinity => true,
            Affine::Point { x, y } => {
                if x.trace() != 0 {
                    return false;
                }
                let lambda = x.half_trace();
                let u = (y + x * lambda + x).sqrt();
                u.trace() == 0
            }
        };
        if child_exists(&c1) {
            return Some(c1);
        }
        let torsion = Affine::Point {
            x: Fe::ZERO,
            y: Fe::ONE,
        };
        let c2 = c1.add(&torsion);
        if child_exists(&c2) {
            Some(c2)
        } else {
            None
        }
    }

    /// Binary double-and-add scalar multiplication — the slow reference
    /// that everything faster is tested against. `k` may be any
    /// non-negative integer.
    ///
    /// # Panics
    ///
    /// Panics if `k` is negative.
    #[must_use]
    pub fn mul_binary(&self, k: &Int) -> Affine {
        assert!(!k.is_negative(), "scalar must be non-negative");
        let mut acc = Affine::Infinity;
        for i in (0..k.bits()).rev() {
            acc = acc.double();
            if (k.limbs()[i / 32] >> (i % 32)) & 1 == 1 {
                acc = acc.add(self);
            }
        }
        acc
    }

    /// Whether the point is a valid public key: finite, on the curve
    /// and of order n (annihilated by the group order). sect233k1 has
    /// cofactor 4, so an attacker can offer on-curve points of order
    /// 2 or 4 — or composite-order points like G + (0, 1) — to mount
    /// small-subgroup probes; this is the full-validation gate that
    /// rejects them.
    ///
    /// Deliberately built on [`Affine::mul_binary`]: the τ-adic wNAF
    /// path assumes its input already lies in the order-n subgroup, so
    /// validating untrusted points with it would be circular.
    pub fn is_in_prime_order_subgroup(&self) -> bool {
        match self {
            Affine::Infinity => false,
            _ => self.is_on_curve() && self.mul_binary(&order()).is_infinity(),
        }
    }
}

/// Error decoding a compressed point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecompressError {
    /// The leading tag byte was not 0x00/0x02/0x03.
    InvalidTag,
    /// No point with this x-coordinate exists on the curve.
    NotOnCurve,
}

impl fmt::Display for DecompressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecompressError::InvalidTag => f.write_str("invalid compression tag"),
            DecompressError::NotOnCurve => f.write_str("x-coordinate has no curve point"),
        }
    }
}

impl std::error::Error for DecompressError {}

impl Affine {
    /// SEC-style compressed encoding: a tag byte (0x02/0x03 carrying
    /// ỹ = lsb(y·x⁻¹); 0x00 for infinity) followed by the 30-byte
    /// big-endian x-coordinate. 31 bytes instead of 61 — the WSN radio
    /// frame argument for compression.
    pub fn to_compressed_bytes(&self) -> [u8; 31] {
        let mut out = [0u8; 31];
        match *self {
            Affine::Infinity => out,
            Affine::Point { x, y } => {
                let y_bit = if x.is_zero() {
                    0
                } else {
                    (y * x.invert().expect("x != 0")).words()[0] & 1
                };
                out[0] = 0x02 | y_bit as u8;
                out[1..].copy_from_slice(&x.to_be_bytes());
                out
            }
        }
    }

    /// Decompresses a point: solves z² + z = x + x⁻² by half-trace
    /// (m odd), picks the root with lsb = ỹ, and sets y = x·z.
    ///
    /// # Errors
    ///
    /// Rejects malformed tags and x-coordinates off the curve.
    pub fn from_compressed_bytes(bytes: &[u8; 31]) -> Result<Affine, DecompressError> {
        let tag = bytes[0];
        if tag == 0x00 {
            if bytes[1..].iter().all(|&b| b == 0) {
                return Ok(Affine::Infinity);
            }
            return Err(DecompressError::InvalidTag);
        }
        if tag != 0x02 && tag != 0x03 {
            return Err(DecompressError::InvalidTag);
        }
        let y_bit = (tag & 1) as u32;
        let x = Fe::from_be_bytes(bytes[1..].try_into().expect("30 bytes"));
        if x.is_zero() {
            // The 2-torsion point (0, 1) (y = √b = 1).
            return Ok(Affine::Point { x, y: Fe::ONE });
        }
        // α = x + x⁻²; solvable iff Tr(α) = 0.
        let x_inv = x.invert().expect("x != 0");
        let alpha = x + x_inv.square();
        if alpha.trace() != 0 {
            return Err(DecompressError::NotOnCurve);
        }
        let mut z = alpha.half_trace();
        if z.words()[0] & 1 != y_bit {
            z += Fe::ONE;
        }
        let y = x * z;
        debug_assert!(Affine::Point { x, y }.is_on_curve());
        Ok(Affine::Point { x, y })
    }
}

impl fmt::Display for Affine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Affine::Infinity => f.write_str("O"),
            Affine::Point { x, y } => write!(f, "({x:x}, {y:x})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_on_curve() {
        assert!(generator().is_on_curve());
    }

    #[test]
    fn order_has_232_bits_and_matches_nist_decimal() {
        let n = order();
        assert_eq!(n.bits(), 232);
        // FIPS 186 lists the K-233 order in decimal.
        let dec =
            Int::from_dec("3450873173395281893717377931138512760570940988862252126328087024741343")
                .unwrap();
        assert_eq!(n, dec);
    }

    #[test]
    fn curve_has_4n_points_by_lucas_sequence() {
        // #E(F_2^m) = 2^m + 1 − t_m with t_0 = 2, t_1 = μ,
        // t_{i+1} = μ·t_i − 2·t_{i−1}; for K-233, #E = h·n with h = 4.
        let mut t_prev = Int::from(2i64);
        let mut t = Int::from(MU);
        for _ in 1..crate::curve_m() {
            let next = &(&Int::from(MU) * &t) - &t_prev.shl(1);
            t_prev = t;
            t = next;
        }
        let count = &(&Int::one().shl(crate::curve_m()) + &Int::one()) - &t;
        let hn = &Int::from(COFACTOR as i64) * &order();
        assert_eq!(count, hn);
    }

    #[test]
    fn n_times_g_is_infinity() {
        assert!(generator().mul_binary(&order()).is_infinity());
    }

    #[test]
    fn small_multiples_are_on_curve_and_consistent() {
        let g = generator();
        let g2 = g.double();
        let g3 = g2.add(&g);
        let g4a = g3.add(&g);
        let g4b = g2.double();
        assert!(g2.is_on_curve() && g3.is_on_curve() && g4a.is_on_curve());
        assert_eq!(g4a, g4b, "3G + G == 2(2G)");
        assert_eq!(g.mul_binary(&Int::from(4i64)), g4a);
    }

    #[test]
    fn addition_is_commutative_and_associative() {
        let g = generator();
        let p = g.mul_binary(&Int::from(7i64));
        let q = g.mul_binary(&Int::from(11i64));
        let r = g.mul_binary(&Int::from(13i64));
        assert_eq!(p.add(&q), q.add(&p));
        assert_eq!(p.add(&q).add(&r), p.add(&q.add(&r)));
    }

    #[test]
    fn negation_and_identity() {
        let g = generator();
        assert!(g.add(&g.negated()).is_infinity());
        assert_eq!(g.add(&Affine::Infinity), g);
        assert_eq!(Affine::Infinity.add(&g), g);
        assert_eq!(g.negated().negated(), g);
        assert!(g.negated().is_on_curve());
    }

    #[test]
    fn frobenius_satisfies_characteristic_equation() {
        // τ²(P) + 2P = μτ(P)  ⟺  τ²(P) + 2P − μτ(P) = O.
        let g = generator();
        let tau = g.frobenius();
        let tau2 = tau.frobenius();
        let two_p = g.double();
        // μ = −1: τ²(P) + 2P = −τ(P).
        assert_eq!(tau2.add(&two_p), tau.negated());
        assert!(tau.is_on_curve());
    }

    #[test]
    fn frobenius_is_additive_homomorphism() {
        let g = generator();
        let p = g.mul_binary(&Int::from(5i64));
        let q = g.mul_binary(&Int::from(9i64));
        assert_eq!(p.add(&q).frobenius(), p.frobenius().add(&q.frobenius()));
    }

    #[test]
    fn mul_binary_edge_cases() {
        let g = generator();
        assert!(g.mul_binary(&Int::zero()).is_infinity());
        assert_eq!(g.mul_binary(&Int::one()), g);
        assert_eq!(
            g.mul_binary(&(&order() - &Int::one())),
            g.negated(),
            "(n-1)G = -G"
        );
    }

    #[test]
    fn mul_binary_distributes() {
        let g = generator();
        let a = Int::from(123456i64);
        let b = Int::from(654321i64);
        let sum = &a + &b;
        assert_eq!(g.mul_binary(&a).add(&g.mul_binary(&b)), g.mul_binary(&sum));
    }

    #[test]
    fn rejects_off_curve_points() {
        // (z, 0): 0 + 0 ≠ z³ + 1. Note (1, 1) IS on the curve
        // (1 + 1 = 0 = 1 + 1), so pick carefully.
        let z = Fe::from_hex("2").unwrap();
        assert_eq!(Affine::new(z, Fe::ZERO), Err(NotOnCurveError));
        assert!(Affine::new(Fe::ONE, Fe::ONE).is_ok());
    }

    #[test]
    fn compression_roundtrip() {
        let g = generator();
        for k in 1..20i64 {
            let p = g.mul_binary(&Int::from(k));
            let bytes = p.to_compressed_bytes();
            assert!(bytes[0] == 0x02 || bytes[0] == 0x03);
            assert_eq!(Affine::from_compressed_bytes(&bytes), Ok(p), "k = {k}");
        }
        // Infinity.
        let inf = Affine::Infinity.to_compressed_bytes();
        assert_eq!(inf, [0u8; 31]);
        assert_eq!(Affine::from_compressed_bytes(&inf), Ok(Affine::Infinity));
    }

    #[test]
    fn decompression_rejects_bad_inputs() {
        let mut bytes = generator().to_compressed_bytes();
        bytes[0] = 0x05;
        assert_eq!(
            Affine::from_compressed_bytes(&bytes),
            Err(DecompressError::InvalidTag)
        );
        // Half of all x-values have no point; find one by scanning.
        let mut probe = [0u8; 31];
        probe[0] = 0x02;
        let mut rejected = false;
        for v in 1u8..60 {
            probe[30] = v;
            if Affine::from_compressed_bytes(&probe) == Err(DecompressError::NotOnCurve) {
                rejected = true;
                break;
            }
        }
        assert!(rejected, "some x must be off-curve");
        // Non-zero trailing bytes under the infinity tag.
        let mut bad_inf = [0u8; 31];
        bad_inf[15] = 1;
        assert_eq!(
            Affine::from_compressed_bytes(&bad_inf),
            Err(DecompressError::InvalidTag)
        );
    }

    #[test]
    fn compressed_point_of_two_torsion() {
        let t = Affine::new(Fe::ZERO, Fe::ONE).unwrap();
        let bytes = t.to_compressed_bytes();
        assert_eq!(Affine::from_compressed_bytes(&bytes), Ok(t));
    }

    #[test]
    fn halving_inverts_doubling() {
        let g = generator();
        for k in 1..15i64 {
            let p = g.mul_binary(&Int::from(k));
            let q = p.halve().expect("odd-order points are halvable");
            assert!(q.is_on_curve(), "k = {k}");
            assert_eq!(q.double(), p, "2·halve(P) = P for k = {k}");
        }
        assert_eq!(Affine::Infinity.halve(), Some(Affine::Infinity));
    }

    #[test]
    fn repeated_halving_stays_consistent() {
        // halve^8 then double^8 must return to the start. When a halving
        // step picks the 2-torsion twin, the next point is a dead end;
        // the standard recovery is to add T = (0,1) (which doubles away)
        // and halve that instead.
        let torsion = Affine::new(Fe::ZERO, Fe::ONE).expect("on curve");
        let _ = torsion;
        let p = generator().mul_binary(&Int::from(12345i64));
        let mut q = p;
        for step in 0..8 {
            q = q
                .halve_in_subgroup()
                .unwrap_or_else(|| panic!("subgroup half must exist at step {step}"));
            assert!(q.is_on_curve());
        }
        for _ in 0..8 {
            q = q.double();
        }
        assert_eq!(q, p);
    }

    #[test]
    fn subgroup_halving_matches_scalar_division() {
        // halve_in_subgroup must equal (2⁻¹ mod n)·P exactly (not the
        // torsion twin), for odd-order P.
        let p = generator().mul_binary(&Int::from(9999i64));
        let two_inv = crate::Scalar::new(Int::from(2i64))
            .invert()
            .expect("2 invertible");
        let want = crate::mul::mul_wtnaf(&p, &two_inv.to_int(), 4);
        assert_eq!(p.halve_in_subgroup(), Some(want));
    }

    #[test]
    fn halve_agrees_with_scalar_inverse_of_two() {
        // In the odd-order subgroup the halvable branch must equal
        // (2⁻¹ mod n)·P, possibly offset by the 2-torsion point T.
        let p = generator().mul_binary(&Int::from(777i64));
        let two_inv = crate::Scalar::new(Int::from(2i64))
            .invert()
            .expect("2 is invertible");
        let want = crate::mul::mul_wtnaf(&p, &two_inv.to_int(), 4);
        let got = p.halve().expect("halvable");
        let torsion = Affine::new(Fe::ZERO, Fe::ONE).expect("on curve");
        assert!(
            got == want || got == want.add(&torsion),
            "half must be the subgroup half or its 2-torsion twin"
        );
    }

    #[test]
    fn non_halvable_points_are_rejected() {
        // (1,1) is on the curve with Tr(1) = 1 (m odd), hence not in 2E.
        let p = Affine::new(Fe::ONE, Fe::ONE).expect("on curve");
        assert_eq!(p.halve(), None);
        // Sanity: it is an order-4-ish point: 2·(1,1) = (0,1).
        assert_eq!(
            p.double(),
            Affine::new(Fe::ZERO, Fe::ONE).expect("on curve")
        );
    }

    #[test]
    fn two_torsion_point_doubles_to_infinity() {
        // (0, 1) is on the curve: 1 = 0 + 1; doubling is vertical.
        let t = Affine::new(Fe::ZERO, Fe::ONE).unwrap();
        assert!(t.double().is_infinity());
        assert_eq!(t.add(&t), Affine::Infinity);
    }

    #[test]
    fn subgroup_membership_accepts_only_order_n_points() {
        assert!(generator().is_in_prime_order_subgroup());
        assert!(generator().double().is_in_prime_order_subgroup());
        // The identity is a degenerate "key", not a subgroup member.
        assert!(!Affine::Infinity.is_in_prime_order_subgroup());
        // The 2-torsion point (0, 1) and the order-4 point (1, 1).
        let t2 = Affine::new(Fe::ZERO, Fe::ONE).unwrap();
        assert!(!t2.is_in_prime_order_subgroup());
        let t4 = Affine::new(Fe::ONE, Fe::ONE).unwrap();
        assert!(t4.is_on_curve());
        assert!(!t4.is_in_prime_order_subgroup());
        // A composite-order point: G + (0, 1) has order 2n — on the
        // curve, not annihilated by n.
        let composite = generator().add(&t2);
        assert!(composite.is_on_curve());
        assert!(!composite.is_in_prime_order_subgroup());
    }
}
