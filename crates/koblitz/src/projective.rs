//! López-Dahab projective coordinates (x = X/Z, y = Y/Z²).
//!
//! The coordinate system of the paper's implementations: point doubling
//! costs 3M + 5S, mixed LD+affine addition 8M + 5S (a = 0, b = 1), the
//! Frobenius map 3S, and converting back to affine costs one inversion —
//! the single inversion that the paper's Table 7 charges per point
//! multiplication. The formulas themselves live in the crate-private
//! `formulas` module, which the modeled tier runs too; `LdPoint`'s
//! methods instantiate them on host field elements.

use crate::curve::Affine;
use crate::formulas::{self, Host, Xy};
use gf2m::Fe;

/// A point in López-Dahab projective coordinates. `Z = 0` encodes the
/// point at infinity. The host computes on [`Fe`] coordinates, the
/// default `E`; the modeled tier's accumulator holds machine RAM slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LdPoint<E = Fe> {
    /// X coordinate (x = X/Z).
    pub x: E,
    /// Y coordinate (y = Y/Z²).
    pub y: E,
    /// Projective denominator.
    pub z: E,
}

impl LdPoint {
    /// The point at infinity.
    pub const INFINITY: LdPoint = LdPoint {
        x: Fe::ONE,
        y: Fe::ZERO,
        z: Fe::ZERO,
    };

    /// Lifts an affine point (Z = 1): the mixed addition of `p` to
    /// infinity.
    pub fn from_affine(p: &Affine) -> LdPoint {
        LdPoint::INFINITY.add_affine(p)
    }

    /// Whether this encodes the point at infinity.
    pub fn is_infinity(&self) -> bool {
        self.z.is_zero()
    }

    /// Converts back to affine: x = X·Z⁻¹, y = Y·(Z⁻¹)², 1I + 2M + 1S.
    /// This is the one place a point multiplication pays a field
    /// inversion.
    #[inline]
    pub fn to_affine(self) -> Affine {
        formulas::to_affine(&mut Host, self)
            .map_or(Affine::Infinity, |p| Affine::Point { x: p.x, y: p.y })
    }

    /// Point doubling, LD coordinates, a = 0, b = 1
    /// (Guide to ECC Alg. 3.24 specialised): 3M + 5S.
    #[must_use]
    #[inline]
    pub fn double(&self) -> LdPoint {
        formulas::double(&mut Host, *self)
    }

    /// Mixed addition: `self` (LD) + `other` (affine), a = 0
    /// (Guide to ECC Alg. 3.25 specialised): 8M + 5S.
    ///
    /// Falls back to doubling / infinity handling for the degenerate
    /// cases (P = ±Q, either infinity).
    #[must_use]
    #[inline]
    pub fn add_affine(&self, other: &Affine) -> LdPoint {
        match *other {
            Affine::Infinity => *self,
            Affine::Point { x, y } => formulas::add_affine(&mut Host, *self, Xy { x, y }),
        }
    }

    /// `self` − `other`: the mixed addition of `other` negated as a
    /// table point is.
    #[must_use]
    #[inline]
    pub(crate) fn sub_affine(&self, other: &Affine) -> LdPoint {
        match *other {
            Affine::Infinity => *self,
            Affine::Point { x, y } => {
                let q = formulas::negate(&mut Host, Xy { x, y }, Xy { x, y });
                formulas::add_affine(&mut Host, *self, q)
            }
        }
    }

    /// The Frobenius endomorphism in LD coordinates:
    /// (X, Y, Z) → (X², Y², Z²) — three squarings, no multiplication.
    #[must_use]
    #[inline]
    pub fn frobenius(&self) -> LdPoint {
        formulas::frobenius(&mut Host, *self)
    }
}

impl From<Affine> for LdPoint {
    fn from(p: Affine) -> LdPoint {
        LdPoint::from_affine(&p)
    }
}

/// Converts a batch of LD points to affine with **one** field inversion
/// total (Montgomery's trick, [`gf2m::batch::batch_invert`]): points at
/// infinity come out as [`Affine::Infinity`] and do not disturb their
/// neighbours.
///
/// This is the throughput path: N conversions cost 1 inversion +
/// 3(N−1) + 2N multiplications instead of N inversions + 2N
/// multiplications, and inversion is ~28× a multiplication on the
/// modeled tier (Table 7).
pub fn batch_to_affine(points: &[LdPoint]) -> Vec<Affine> {
    let mut zs: Vec<Fe> = points.iter().map(|p| p.z).collect();
    gf2m::batch::batch_invert(&mut zs);
    points
        .iter()
        .zip(&zs)
        .map(|(p, &zi)| {
            if zi.is_zero() {
                Affine::Infinity
            } else {
                Affine::Point {
                    x: p.x * zi,
                    y: p.y * zi.square(),
                }
            }
        })
        .collect()
}

/// Cost breakdown of one counted-tier batch affine conversion.
#[derive(Debug, Clone, Default)]
pub struct CountedBatchConversion {
    /// The affine points, identical to [`batch_to_affine`].
    pub points: Vec<Affine>,
    /// Operations spent inside the (single) EEA inversion.
    pub inv: gf2m::Tally,
    /// Operations spent in multiplications (Montgomery sweep plus the
    /// 3 per-point coordinate products x·Z⁻¹, (Z⁻¹)², y·(Z⁻¹)²).
    pub mul: gf2m::Tally,
    /// Field inversions performed.
    pub inversions: u64,
    /// Field multiplications performed.
    pub muls: u64,
}

impl CountedBatchConversion {
    /// Total tally (inversion + multiplications).
    pub fn total(&self) -> gf2m::Tally {
        self.inv.plus(self.mul)
    }
}

/// [`batch_to_affine`] on the counted tier: the same values, with the
/// inversion and multiplication costs tallied separately so the
/// amortisation claim can be checked against per-point
/// [`gf2m::counted::inv_eea`] conversions.
pub fn batch_to_affine_counted(points: &[LdPoint]) -> CountedBatchConversion {
    let zs: Vec<Fe> = points.iter().map(|p| p.z).collect();
    let batch = gf2m::batch::batch_invert_counted(&zs);
    let mut out = CountedBatchConversion {
        inv: batch.inv,
        mul: batch.mul,
        inversions: batch.inversions,
        muls: batch.muls,
        ..CountedBatchConversion::default()
    };
    let mut cmul = |a: Fe, b: Fe| {
        let p = gf2m::counted::mul_ld_fixed(a, b);
        out.mul = out.mul.plus(p.total());
        out.muls += 1;
        p.value
    };
    out.points = points
        .iter()
        .zip(&batch.values)
        .map(|(p, &zi)| {
            if zi.is_zero() {
                Affine::Infinity
            } else {
                let x = cmul(p.x, zi);
                let zi2 = cmul(zi, zi);
                let y = cmul(p.y, zi2);
                Affine::Point { x, y }
            }
        })
        .collect();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curve::generator;
    use crate::int::Int;

    fn multiple(k: i64) -> Affine {
        generator().mul_binary(&Int::from(k))
    }

    #[test]
    fn roundtrip_affine() {
        let g = generator();
        assert_eq!(LdPoint::from_affine(&g).to_affine(), g);
        assert_eq!(
            LdPoint::from_affine(&Affine::Infinity).to_affine(),
            Affine::Infinity
        );
    }

    #[test]
    fn double_matches_affine() {
        for k in 1..20i64 {
            let p = multiple(k);
            let got = LdPoint::from_affine(&p).double().to_affine();
            assert_eq!(got, p.double(), "2·({k}G)");
        }
    }

    #[test]
    fn mixed_add_matches_affine() {
        for k in 1..15i64 {
            let p = multiple(k);
            let q = multiple(k + 17);
            let got = LdPoint::from_affine(&p).add_affine(&q).to_affine();
            assert_eq!(got, p.add(&q), "{k}G + {}G", k + 17);
        }
    }

    #[test]
    fn mixed_add_degenerate_cases() {
        let g = generator();
        let gp = LdPoint::from_affine(&g);
        // P + P → doubling path.
        assert_eq!(gp.add_affine(&g).to_affine(), g.double());
        // P + (−P) → infinity.
        assert!(gp.add_affine(&g.negated()).is_infinity());
        // P + O and O + P.
        assert_eq!(gp.add_affine(&Affine::Infinity).to_affine(), g);
        assert_eq!(LdPoint::INFINITY.add_affine(&g).to_affine(), g);
    }

    #[test]
    fn add_after_double_has_nontrivial_z() {
        // Exercise the mixed addition with Z1 ≠ 1.
        let g = generator();
        let p5 = multiple(5);
        let acc = LdPoint::from_affine(&g).double().double(); // 4G, Z != 1
        assert_eq!(acc.add_affine(&p5).to_affine(), multiple(9));
    }

    #[test]
    fn frobenius_matches_affine_frobenius() {
        let p = multiple(7);
        let acc = LdPoint::from_affine(&generator()).double().add_affine(&p); // Z != 1
        let via_ld = acc.frobenius().to_affine();
        let via_affine = acc.to_affine().frobenius();
        assert_eq!(via_ld, via_affine);
    }

    #[test]
    fn batch_to_affine_matches_pointwise() {
        // A mix of Z = 1, Z ≠ 1 and infinity points.
        let mut pts = vec![LdPoint::INFINITY];
        for k in 1..20i64 {
            let mut p = LdPoint::from_affine(&multiple(k));
            for _ in 0..(k % 4) {
                p = p.double(); // scrub Z away from 1
            }
            pts.push(p);
            if k % 7 == 0 {
                pts.push(LdPoint::INFINITY);
            }
        }
        let batch = batch_to_affine(&pts);
        assert_eq!(batch.len(), pts.len());
        for (i, (b, p)) in batch.iter().zip(&pts).enumerate() {
            assert_eq!(*b, p.to_affine(), "point {i}");
        }
        // Counted tier produces identical points.
        let counted = batch_to_affine_counted(&pts);
        assert_eq!(counted.points, batch);
        assert_eq!(counted.inversions, 1);
    }

    #[test]
    fn batch_to_affine_empty_and_all_infinity() {
        assert!(batch_to_affine(&[]).is_empty());
        let all_inf = batch_to_affine(&[LdPoint::INFINITY; 3]);
        assert!(all_inf.iter().all(Affine::is_infinity));
        let counted = batch_to_affine_counted(&[LdPoint::INFINITY; 3]);
        assert_eq!(counted.inversions, 0);
        assert_eq!(counted.muls, 0);
    }

    #[test]
    fn batch_of_64_points_spends_an_eighth_of_the_inversion_cycles() {
        // Acceptance criterion: batch affine conversion of 64 points on
        // the counted tier spends ≤ 1/8 the inversion cycles of 64
        // individual inversions.
        let pts: Vec<LdPoint> = (1..=64i64)
            .map(|k| LdPoint::from_affine(&multiple(k)).double())
            .collect();
        let batch = batch_to_affine_counted(&pts);
        let individual: u64 = pts
            .iter()
            .map(|p| gf2m::counted::inv_eea(p.z).unwrap().tally.cycles())
            .sum();
        assert!(
            batch.inv.cycles() * 8 <= individual,
            "batch inversion cycles {} vs 1/8 bound {}",
            batch.inv.cycles(),
            individual / 8
        );
        // The full batch conversion (inversion + all multiplications)
        // still costs less than the inversions alone of the one-by-one
        // path.
        assert!(batch.total().cycles() < individual);
    }

    #[test]
    fn chained_operations_stay_on_curve() {
        let g = generator();
        let mut acc = LdPoint::from_affine(&g);
        for k in 2..12i64 {
            acc = acc.double().add_affine(&multiple(k));
            assert!(acc.to_affine().is_on_curve(), "step {k}");
        }
    }
}
