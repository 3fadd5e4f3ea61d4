//! Fixed F₂-linear maps of the field as chunk tables, for public inputs.
//!
//! Squaring is F₂-linear in characteristic 2, so a fixed chain of
//! squarings and additions — x^(2^k), or the half-trace
//! Σ x^(2^(2i)) — is a linear map L of F₂²³³ seen as a 233-dimensional
//! vector space over F₂. The paper squares through a table (the 8-bit
//! spread table of §3.2.4); a [`LinearMap`] applies a whole chain the
//! same way. The input's 233 bits are cut into [`CHUNKS`] = 59 four-bit
//! chunks; chunk c's sixteen values index sixteen precomputed images
//! L(v·z^(4c)), and L(x) is the XOR of the 59 looked-up images. A map is
//! 59 × 16 entries of four 64-bit limbs (29.5 KiB).
//!
//! The table addresses depend on the input, so these maps serve
//! **public inputs only**: [`Fe::half_trace`] (decompression and the
//! subgroup check of an untrusted point), [`Fe::square_n_public`] (the
//! τ³⁰ of a fixed base's comb strips) and [`Fe::invert_public`] (the
//! Itoh–Tsujii chain with its four long squaring blocks as maps). Every
//! secret-input path keeps the constant-address chains of [`Fe::square`],
//! [`Fe::square_n`] and [`Fe::invert`].
//!
//! Each map is built once per process, lazily, from the chain it
//! replaces: the chain's images of the 233 basis monomials zⁱ.

use crate::element::{from_limbs, half_trace_with, limbs};
use crate::{Fe, M, N};
use std::sync::OnceLock;

/// Four-bit chunks per element: ⌈233 / 4⌉ = 59.
pub const CHUNKS: usize = M.div_ceil(4);

/// The exponents k for which [`Fe::square_n_public`] applies a map:
/// the comb strips' τ³⁰ and the four long blocks of the Itoh–Tsujii
/// chain (e(28) → e(14)^(2^14), e(58), e(116), e(232)).
pub const SQUARE_N_MAPS: [usize; 5] = [14, 29, 30, 58, 116];

/// A fixed F₂-linear map of the field, as [`CHUNKS`] tables of sixteen
/// images each.
///
/// ```
/// use gf2m::{linear::LinearMap, Fe};
/// let fourth_power = LinearMap::from_fn(|x| x.square().square());
/// let a = Fe::from_hex("1af129f22ff4149563a419c26bf50a4c9d6eefad6126")?;
/// assert_eq!(fourth_power.apply(a), a.square().square());
/// # Ok::<(), gf2m::ParseFeError>(())
/// ```
pub struct LinearMap {
    table: Box<[[[u64; 4]; 16]; CHUNKS]>,
}

impl LinearMap {
    /// Tabulates `f`, which must be F₂-linear, from its images of the
    /// 233 basis monomials: entry v of chunk c is the XOR of
    /// f(z^(4c + b)) over the set bits b of v.
    pub fn from_fn(f: impl Fn(Fe) -> Fe) -> LinearMap {
        let basis: Vec<[u64; 4]> = (0..M).map(|i| limbs(f(monomial(i)))).collect();
        let mut table = Box::new([[[0u64; 4]; 16]; CHUNKS]);
        for (c, entries) in table.iter_mut().enumerate() {
            for v in 1..16usize {
                // v = (v with its lowest bit cleared) + that bit.
                let bit = 4 * c + v.trailing_zeros() as usize;
                let image = basis.get(bit).copied().unwrap_or_default();
                let rest = entries[v & (v - 1)];
                entries[v] = std::array::from_fn(|i| rest[i] ^ image[i]);
            }
        }
        LinearMap { table }
    }

    /// The image of `x`: one lookup per four-bit chunk, XORed. Reads
    /// table entries at addresses that depend on `x`, so it must only
    /// see public values.
    #[inline]
    pub fn apply(&self, x: Fe) -> Fe {
        let mut acc = [0u64; 4];
        // Sixteen chunks per 64-bit limb, so each shift is a constant.
        for (limb, tables) in limbs(x).into_iter().zip(self.table.chunks(16)) {
            for (j, entries) in tables.iter().enumerate() {
                let image = &entries[(limb >> (4 * j)) as usize & 0xF];
                for (a, e) in acc.iter_mut().zip(image) {
                    *a ^= e;
                }
            }
        }
        from_limbs(acc)
    }
}

/// zⁱ.
fn monomial(i: usize) -> Fe {
    let mut w = [0u32; N];
    w[i / 32] = 1 << (i % 32);
    Fe(w)
}

/// The half-trace map, built on first use from the chain
/// `half_trace_with` over [`Fe::square`].
pub(crate) fn half_trace() -> &'static LinearMap {
    static MAP: OnceLock<LinearMap> = OnceLock::new();
    MAP.get_or_init(|| LinearMap::from_fn(|x| half_trace_with(x, Fe::square, |a, b| a + b)))
}

/// The map of x ↦ x^(2^k) for k in [`SQUARE_N_MAPS`], built on first
/// use from [`Fe::square_n`]; `None` for any other k.
pub(crate) fn square_n(k: usize) -> Option<&'static LinearMap> {
    static MAPS: [OnceLock<LinearMap>; SQUARE_N_MAPS.len()] =
        [const { OnceLock::new() }; SQUARE_N_MAPS.len()];
    let i = SQUARE_N_MAPS.iter().position(|&e| e == k)?;
    Some(MAPS[i].get_or_init(|| LinearMap::from_fn(|x| x.square_n(k))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{inv, sqr};
    use prng::SplitMix64;

    /// The paper-tier chains every map is checked against.
    fn paper_square_n(x: Fe, k: usize) -> Fe {
        (0..k).fold(x, |x, _| sqr::square(x))
    }

    fn paper_half_trace(x: Fe) -> Fe {
        half_trace_with(x, sqr::square, |a, b| a + b)
    }

    /// A map under test: its name, the map and its paper-tier chain.
    type Case = (String, &'static LinearMap, Box<dyn Fn(Fe) -> Fe>);

    /// Every map under test.
    fn maps() -> Vec<Case> {
        let mut out: Vec<Case> = vec![(
            "half_trace".into(),
            half_trace(),
            Box::new(paper_half_trace),
        )];
        for k in SQUARE_N_MAPS {
            let map = square_n(k).expect("listed exponent");
            out.push((
                format!("square_n({k})"),
                map,
                Box::new(move |x| paper_square_n(x, k)),
            ));
        }
        out
    }

    /// The basis monomials, 0, 1, the all-ones element and the top bit.
    fn edges() -> Vec<Fe> {
        let mut out = vec![
            Fe::ZERO,
            Fe::ONE,
            Fe::from_words_reduced([u32::MAX; N]),
            monomial(M - 1),
        ];
        out.extend((0..M).map(monomial));
        out
    }

    #[test]
    fn only_the_listed_exponents_have_maps() {
        for k in 0..=M {
            assert_eq!(square_n(k).is_some(), SQUARE_N_MAPS.contains(&k), "k = {k}");
        }
    }

    /// Entry 0 of every chunk is zero, each single-bit entry is the
    /// paper chain's image of its monomial (zero past bit 232), and every
    /// other entry is the XOR of its single-bit entries. With the chain's
    /// linearity this proves `apply` equals the chain on every input.
    #[test]
    fn every_entry_is_the_xor_of_its_basis_images() {
        for (name, map, chain) in maps() {
            for (c, entries) in map.table.iter().enumerate() {
                assert_eq!(entries[0], [0; 4], "{name} chunk {c} entry 0");
                for b in 0..4 {
                    let bit = 4 * c + b;
                    let want = if bit < M {
                        limbs(chain(monomial(bit)))
                    } else {
                        [0; 4]
                    };
                    assert_eq!(entries[1 << b], want, "{name} z^{bit}");
                }
                for v in 1..16 {
                    let xor = (0..4)
                        .filter(|b| v >> b & 1 == 1)
                        .fold([0u64; 4], |acc, b| {
                            std::array::from_fn(|i| acc[i] ^ entries[1 << b][i])
                        });
                    assert_eq!(entries[v], xor, "{name} chunk {c} entry {v}");
                }
            }
        }
    }

    #[test]
    fn maps_match_the_paper_chains() {
        let mut inputs = edges();
        let mut rng = SplitMix64::new(0x7ab1e);
        inputs.extend((0..10_000).map(|_| {
            let mut w = [0u32; N];
            rng.fill_u32(&mut w);
            Fe::from_words_reduced(w)
        }));
        for (name, map, chain) in maps() {
            for (case, &x) in inputs.iter().enumerate() {
                assert_eq!(map.apply(x), chain(x), "{name} case {case}: {x}");
            }
        }
        for &x in &inputs {
            assert_eq!(x.half_trace(), paper_half_trace(x), "half_trace {x}");
            for k in [1, 3, 7, 14, 29, 30, 58, 116, 232] {
                assert_eq!(x.square_n_public(k), paper_square_n(x, k), "{x}^(2^{k})");
            }
        }
    }

    #[test]
    fn public_inversion_matches_the_eea() {
        assert_eq!(Fe::ZERO.invert_public(), None);
        let mut inputs = edges();
        let mut rng = SplitMix64::new(0x1ff);
        inputs.extend((0..10_000).map(|_| {
            let mut w = [0u32; N];
            rng.fill_u32(&mut w);
            Fe::from_words_reduced(w)
        }));
        for (case, &x) in inputs.iter().enumerate() {
            assert_eq!(x.invert_public(), inv::invert(x), "case {case}: {x}");
        }
    }
}
