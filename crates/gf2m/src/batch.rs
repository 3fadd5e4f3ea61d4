//! Montgomery batch inversion: amortising the field's most expensive
//! kernel over many elements at once.
//!
//! The paper's Table 7 shows inversion dominating the field kernels
//! (~105k modeled cycles — 28× a multiplication), and every affine
//! conversion pays one. Montgomery's trick replaces N inversions with
//! **one** inversion plus 3(N−1) multiplications: build the prefix
//! products p_i = a_1·…·a_i (N−1 multiplications), invert the final
//! product once, then peel inverses off the back (2(N−1) more
//! multiplications):
//!
//! ```text
//! inv(a_i) = inv(p_N) · p_{i-1} · a_{i+1} · … · a_N
//! ```
//!
//! Zeros have no inverse; the batch skips them — a zero input stays
//! zero in place and does not disturb its neighbours, which is what the
//! projective-coordinate caller wants (Z = 0 encodes infinity).
//!
//! [`batch_invert`] is the portable-tier entry point and
//! [`batch_invert_public`] its public-input twin; the counted-tier
//! variant [`batch_invert_counted`] tallies the inversion and
//! multiplication costs separately so the amortisation claim is
//! *measured*, not assumed.

use crate::counted::{self, Tally};
use crate::Fe;

/// The zero-aware Montgomery chain every tier shares: prefix products
/// carried through zeros (so `prods[i]` is the product of all non-zero
/// elements in `0..=i`), one inversion of the running product, then the
/// backward peel. `mul` and `inv` supply the tier's arithmetic —
/// portable operators, counted kernels, or anything else that matches
/// the portable values — so the algorithm lives in exactly one place.
/// Returns `false` (without calling `inv`) for an all-zero batch.
fn montgomery_core(
    elems: &mut [Fe],
    mut mul: impl FnMut(Fe, Fe) -> Fe,
    inv: impl FnOnce(Fe) -> Fe,
) -> bool {
    let mut prods = Vec::with_capacity(elems.len());
    let mut acc = Fe::ONE;
    let mut nonzero = 0usize;
    for e in elems.iter() {
        if !e.is_zero() {
            acc = if nonzero == 0 { *e } else { mul(acc, *e) };
            nonzero += 1;
        }
        prods.push(acc);
    }
    if nonzero == 0 {
        return false;
    }
    // One inversion for the whole batch.
    let mut inv_acc = inv(acc);
    // Backward sweep: peel off one inverse per non-zero element. The
    // prefix products carry through zeros, so prods[i − 1] is always
    // "the product of everything non-zero before i".
    let mut remaining = nonzero;
    for i in (0..elems.len()).rev() {
        if elems[i].is_zero() {
            continue;
        }
        remaining -= 1;
        if remaining == 0 {
            // First non-zero element: its prefix is empty.
            elems[i] = inv_acc;
            break;
        }
        let a = elems[i];
        elems[i] = mul(inv_acc, prods[i - 1]);
        inv_acc = mul(inv_acc, a);
    }
    true
}

/// Inverts every non-zero element of `elems` in place with one field
/// inversion total (Montgomery's trick). Zero elements are left as
/// zero; the other elements are unaffected by their presence.
///
/// ```
/// use gf2m::{batch, Fe};
/// let mut v = [Fe::from_hex("1234").unwrap(), Fe::ZERO, Fe::from_hex("abcd").unwrap()];
/// batch::batch_invert(&mut v);
/// assert_eq!(v[0], Fe::from_hex("1234").unwrap().invert().unwrap());
/// assert!(v[1].is_zero());
/// assert_eq!(v[2], Fe::from_hex("abcd").unwrap().invert().unwrap());
/// ```
pub fn batch_invert(elems: &mut [Fe]) {
    montgomery_core(
        elems,
        |a, b| a * b,
        |p| p.invert().expect("product of non-zero elements"),
    );
}

/// [`batch_invert`] for **public** elements: the same Montgomery chain
/// with its one inversion by [`Fe::invert_public`], whose squaring
/// blocks are input-addressed table lookups.
///
/// ```
/// use gf2m::{batch, Fe};
/// let mut v = [Fe::from_hex("1234").unwrap(), Fe::ZERO, Fe::from_hex("abcd").unwrap()];
/// let want = batch::batch_inverted(&v);
/// batch::batch_invert_public(&mut v);
/// assert_eq!(v.to_vec(), want);
/// ```
pub fn batch_invert_public(elems: &mut [Fe]) {
    montgomery_core(
        elems,
        |a, b| a * b,
        |p| p.invert_public().expect("product of non-zero elements"),
    );
}

/// [`batch_invert`] on a borrowed slice, returning the inverses.
pub fn batch_inverted(elems: &[Fe]) -> Vec<Fe> {
    let mut out = elems.to_vec();
    batch_invert(&mut out);
    out
}

/// Cost breakdown of one counted-tier batch inversion.
#[derive(Debug, Clone, Default)]
pub struct CountedBatchInversion {
    /// The inverses (zeros stay zero), identical to [`batch_invert`].
    pub values: Vec<Fe>,
    /// Operations spent inside the (single) EEA inversion.
    pub inv: Tally,
    /// Operations spent in the Montgomery multiplications.
    pub mul: Tally,
    /// Field inversions performed (1, or 0 for an all-zero batch).
    pub inversions: u64,
    /// Field multiplications performed (3(N−1) for N non-zero inputs).
    pub muls: u64,
}

impl CountedBatchInversion {
    /// Total tally (inversion + multiplications).
    pub fn total(&self) -> Tally {
        self.inv.plus(self.mul)
    }
}

/// Counted-tier batch inversion: the same `montgomery_core` chain as
/// [`batch_invert`] (not a re-implementation), instantiated with
/// [`counted::inv_eea`] and the paper's Method-C counted
/// multiplication, with the inversion and multiplication costs tallied
/// separately.
pub fn batch_invert_counted(elems: &[Fe]) -> CountedBatchInversion {
    let mut values = elems.to_vec();
    let mut mul_tally = Tally::default();
    let mut muls = 0u64;
    let mut inv_tally = Tally::default();
    let mut inversions = 0u64;
    montgomery_core(
        &mut values,
        |a, b| {
            let p = counted::mul_ld_fixed(a, b);
            mul_tally = mul_tally.plus(p.total());
            muls += 1;
            p.value
        },
        |p| {
            let run = counted::inv_eea(p).expect("product of non-zero elements");
            inv_tally = run.tally;
            inversions = 1;
            run.value
        },
    );
    CountedBatchInversion {
        values,
        inv: inv_tally,
        mul: mul_tally,
        inversions,
        muls,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::N;

    fn fe(seed: u64) -> Fe {
        let mut s = seed.wrapping_mul(0x2545_F491_4F6C_DD1D) | 1;
        let mut w = [0u32; N];
        for x in w.iter_mut() {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            *x = (s >> 13) as u32;
        }
        Fe::from_words_reduced(w)
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let mut v: Vec<Fe> = vec![];
        batch_invert(&mut v);
        assert!(v.is_empty());
        let c = batch_invert_counted(&[]);
        assert_eq!(c.inversions, 0);
        assert_eq!(c.muls, 0);
    }

    #[test]
    fn batch_of_one_matches_invert() {
        let a = fe(7);
        let mut v = [a];
        batch_invert(&mut v);
        assert_eq!(v[0], a.invert().unwrap());
    }

    #[test]
    fn batch_of_one_zero() {
        let mut v = [Fe::ZERO];
        batch_invert(&mut v);
        assert!(v[0].is_zero());
        let c = batch_invert_counted(&[Fe::ZERO]);
        assert_eq!(c.inversions, 0);
        assert!(c.values[0].is_zero());
    }

    #[test]
    fn matches_per_element_inversion() {
        for n in [2usize, 3, 8, 17, 64, 130, 257] {
            let elems: Vec<Fe> = (0..n as u64).map(|i| fe(i + 100)).collect();
            let mut batch = elems.clone();
            batch_invert(&mut batch);
            for (i, (b, e)) in batch.iter().zip(&elems).enumerate() {
                assert_eq!(*b, e.invert().unwrap(), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn zeros_stay_zero_and_neighbours_are_unaffected() {
        let elems: Vec<Fe> = (0..12u64).map(|i| fe(i + 50)).collect();
        for zero_at in [0usize, 1, 5, 10, 11] {
            let mut with_zero = elems.clone();
            with_zero[zero_at] = Fe::ZERO;
            let mut batch = with_zero.clone();
            batch_invert(&mut batch);
            for i in 0..with_zero.len() {
                if i == zero_at {
                    assert!(batch[i].is_zero(), "zero at {zero_at}");
                } else {
                    assert_eq!(
                        batch[i],
                        with_zero[i].invert().unwrap(),
                        "zero at {zero_at}, i = {i}"
                    );
                }
            }
        }
        // Several zeros at once, including adjacent ones.
        let mut v = vec![Fe::ZERO, fe(1), Fe::ZERO, Fe::ZERO, fe(2), Fe::ZERO];
        batch_invert(&mut v);
        assert!(v[0].is_zero() && v[2].is_zero() && v[3].is_zero() && v[5].is_zero());
        assert_eq!(v[1], fe(1).invert().unwrap());
        assert_eq!(v[4], fe(2).invert().unwrap());
    }

    #[test]
    fn public_batch_matches_the_batch() {
        for n in [1usize, 2, 3, 17, 64] {
            let mut elems: Vec<Fe> = (0..n as u64).map(|i| fe(i + 700)).collect();
            elems[n / 2] = Fe::ZERO;
            let mut public = elems.clone();
            batch_invert_public(&mut public);
            assert_eq!(public, batch_inverted(&elems), "n = {n}");
        }
    }

    #[test]
    fn all_zero_batch() {
        let mut v = vec![Fe::ZERO; 5];
        batch_invert(&mut v);
        assert!(v.iter().all(Fe::is_zero));
    }

    #[test]
    fn repeated_elements_invert_correctly() {
        let a = fe(77);
        let mut v = vec![a, a, a, a];
        batch_invert(&mut v);
        let want = a.invert().unwrap();
        assert!(v.iter().all(|&x| x == want));
    }

    #[test]
    fn counted_values_match_portable() {
        let elems: Vec<Fe> = (0..16u64).map(|i| fe(i + 900)).collect();
        let mut with_zero = elems.clone();
        with_zero[3] = Fe::ZERO;
        let counted = batch_invert_counted(&with_zero);
        let mut portable = with_zero.clone();
        batch_invert(&mut portable);
        assert_eq!(counted.values, portable);
    }

    #[test]
    fn counted_operation_counts_match_the_formula() {
        // N non-zero elements: 1 inversion, 3(N−1) multiplications.
        for n in [1usize, 2, 8, 64] {
            let elems: Vec<Fe> = (0..n as u64).map(|i| fe(i + 400)).collect();
            let c = batch_invert_counted(&elems);
            assert_eq!(c.inversions, 1, "n={n}");
            assert_eq!(c.muls as usize, 3 * (n - 1), "n={n}");
        }
    }

    #[test]
    fn batch_of_64_spends_an_eighth_of_the_inversion_cycles() {
        // The acceptance claim: converting 64 elements in a batch spends
        // ≤ 1/8 the *inversion* cycles of 64 individual inversions.
        let elems: Vec<Fe> = (0..64u64).map(|i| fe(i + 4000)).collect();
        let batch = batch_invert_counted(&elems);
        let individual: u64 = elems
            .iter()
            .map(|e| counted::inv_eea(*e).unwrap().tally.cycles())
            .sum();
        assert!(
            batch.inv.cycles() * 8 <= individual,
            "batch inversion cycles {} vs 8× bound of {}",
            batch.inv.cycles(),
            individual / 8
        );
        // And the whole batch (inversion + Montgomery multiplications)
        // must still beat doing 64 EEA inversions outright.
        assert!(
            batch.total().cycles() < individual,
            "total batch {} vs individual {}",
            batch.total().cycles(),
            individual
        );
    }
}
