//! Arithmetic modulo the group order n (the scalar field of ECDH/ECDSA).

use crate::curve::order;
use crate::int::Int;
use std::fmt;

/// An element of ℤ/nℤ for the sect233k1 group order n, kept canonical
/// in `[0, n)`.
///
/// ```
/// use koblitz::{Int, Scalar};
/// let a = Scalar::new(Int::from(5i64));
/// let inv = a.invert().expect("5 is invertible");
/// assert_eq!(a.mul(&inv), Scalar::one());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Scalar(Int);

impl Scalar {
    /// Zero.
    pub fn zero() -> Scalar {
        Scalar(Int::zero())
    }

    /// One.
    pub fn one() -> Scalar {
        Scalar(Int::one())
    }

    /// Reduces any integer into the scalar field.
    pub fn new(v: Int) -> Scalar {
        Scalar(v.mod_positive(&order()))
    }

    /// Derives a scalar from (at least 30) uniformly random bytes.
    /// Uses simple modular reduction of a 40-byte-wide value, making the
    /// bias below 2⁻⁶⁴.
    pub fn from_wide_bytes(bytes: &[u8]) -> Scalar {
        Scalar::new(Int::from_be_bytes(bytes))
    }

    /// The canonical representative in `[0, n)`.
    pub fn to_int(&self) -> Int {
        self.0.clone()
    }

    /// Whether this is zero.
    pub fn is_zero(&self) -> bool {
        self.0.is_zero()
    }

    /// Addition mod n.
    #[must_use]
    pub fn add(&self, other: &Scalar) -> Scalar {
        Scalar::new(&self.0 + &other.0)
    }

    /// Subtraction mod n.
    #[must_use]
    pub fn sub(&self, other: &Scalar) -> Scalar {
        Scalar::new(&self.0 - &other.0)
    }

    /// Multiplication mod n.
    #[must_use]
    pub fn mul(&self, other: &Scalar) -> Scalar {
        Scalar::new(&self.0 * &other.0)
    }

    /// Negation mod n.
    #[must_use]
    pub fn negated(&self) -> Scalar {
        Scalar::new(self.0.negated())
    }

    /// Multiplicative inverse mod n (n is prime), or `None` for zero.
    pub fn invert(&self) -> Option<Scalar> {
        if self.is_zero() {
            return None;
        }
        // Extended Euclid over the integers.
        let n = order();
        let (mut r0, mut r1) = (n.clone(), self.0.clone());
        let (mut t0, mut t1) = (Int::zero(), Int::one());
        while !r1.is_zero() {
            let (q, r) = r0.divrem_floor(&r1);
            let t2 = &t0 - &(&q * &t1);
            r0 = r1;
            r1 = r;
            t0 = t1;
            t1 = t2;
        }
        debug_assert_eq!(r0, Int::one(), "n is prime, gcd must be 1");
        Some(Scalar::new(t0))
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
        assert!(
            elems.iter().all(|e| !e.is_zero()),
            "batch_invert of a zero scalar"
        );
        let Some(first) = elems.first() else {
            return Vec::new();
        };
        let mut prods = Vec::with_capacity(elems.len());
        prods.push(first.clone());
        for e in &elems[1..] {
            let next = prods[prods.len() - 1].mul(e);
            prods.push(next);
        }
        let mut inv_acc = prods[elems.len() - 1]
            .invert()
            .expect("a product of non-zero scalars mod a prime is non-zero");
        let mut out = vec![Scalar::zero(); elems.len()];
        for i in (1..elems.len()).rev() {
            out[i] = inv_acc.mul(&prods[i - 1]);
            inv_acc = inv_acc.mul(&elems[i]);
        }
        out[0] = inv_acc;
        out
    }
}

impl fmt::Display for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: i64) -> Scalar {
        Scalar::new(Int::from(v))
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

    #[test]
    fn inversion() {
        let n = order();
        let mut inputs: Vec<Scalar> = [1i64, 2, 3, 65537, 0x7FFF_FFFF].map(s).to_vec();
        inputs.extend(
            [
                &n - &Int::one(),
                &n - &Int::from(2i64),
                Int::one().shl(231),
                &Int::one().shl(232) - &Int::one(),
            ]
            .map(Scalar::new),
        );
        let mut rng = prng::SplitMix64::new(0x696E_7665_7273);
        for _ in 0..64 {
            let mut bytes = [0u8; 40];
            rng.fill_bytes(&mut bytes);
            inputs.push(Scalar::from_wide_bytes(&bytes));
        }
        for a in &inputs {
            let inv = a.invert().expect("non-zero");
            assert!(inv.to_int() < n, "inverse of {a} is not canonical");
            assert_eq!(a.mul(&inv), Scalar::one(), "a = {a}");
        }
        assert_eq!(Scalar::zero().invert(), None);
    }

    #[test]
    fn batch_inversion_matches_pointwise() {
        let n = order();
        let mut rng = prng::SplitMix64::new(0xba7c_4e55);
        let mut pool: Vec<Scalar> = [&n - &Int::one(), &n - &Int::from(2i64), Int::one().shl(231)]
            .map(Scalar::new)
            .to_vec();
        pool.extend([1i64, 2].map(s));
        for _ in 0..130 {
            let mut bytes = [0u8; 40];
            rng.fill_bytes(&mut bytes);
            pool.push(Scalar::from_wide_bytes(&bytes));
        }
        for len in [0usize, 1, 2, 16, 130] {
            let batch = &pool[..len];
            let want: Vec<Scalar> = batch.iter().map(|a| a.invert().unwrap()).collect();
            assert_eq!(Scalar::batch_invert(batch), want, "len = {len}");
        }
    }

    #[test]
    #[should_panic(expected = "batch_invert of a zero scalar")]
    fn batch_inversion_rejects_zero() {
        Scalar::batch_invert(&[s(3), Scalar::zero(), s(5)]);
    }

    #[test]
    fn inversion_of_large_scalar() {
        let a = Scalar::new(Int::from_hex("123456789abcdef0fedcba9876543210deadbeef").unwrap());
        assert_eq!(a.mul(&a.invert().unwrap()), Scalar::one());
    }

    #[test]
    fn wide_bytes_reduction() {
        let bytes = [0xFFu8; 40];
        let a = Scalar::from_wide_bytes(&bytes);
        assert!(!a.is_zero());
        assert!(a.to_int() < order());
    }
}
