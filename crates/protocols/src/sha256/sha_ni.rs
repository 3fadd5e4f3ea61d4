//! SHA-256 compression on the x86-64 SHA extensions.
//!
//! `SHA256RNDS2` runs two rounds on the state held as the register
//! pair (ABEF, CDGH); `SHA256MSG1`/`SHA256MSG2` extend the message
//! schedule four words at a time. One 64-byte block is sixteen
//! four-round groups, after Intel's reference sequence ("Intel SHA
//! Extensions", Gulley et al., 2013).
//!
//! A [`ShaNi`] value is the proof that the running CPU has the
//! instructions: [`ShaNi::detect`] is its only constructor.
//! [`super::Sha256`] uses it when it exists and falls back to
//! [`super::compress_portable`] otherwise; the portable function is
//! also the oracle this kernel is tested against. Off x86-64 the proof
//! type is uninhabited and every caller takes the fallback.

#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

/// The SHA-NI compression, usable only on a CPU that has the SHA
/// extensions (and the SSSE3/SSE4.1 shuffles the kernel uses).
///
/// ```
/// use protocols::sha256::{compress_portable, ShaNi};
/// let block = [0x5au8; 64];
/// let mut want = [1u32, 2, 3, 4, 5, 6, 7, 8];
/// let mut got = want;
/// compress_portable(&mut want, &block);
/// if let Some(k) = ShaNi::detect() {
///     k.compress(&mut got, &[block]);
///     assert_eq!(got, want);
/// }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ShaNi(Proof);

#[cfg(target_arch = "x86_64")]
type Proof = ();
#[cfg(not(target_arch = "x86_64"))]
type Proof = core::convert::Infallible;

impl ShaNi {
    /// The kernel, or `None` when the CPU lacks `sha`, `ssse3` or
    /// `sse4.1`, or is not x86-64. The detection result is cached by
    /// the standard library, so a call costs a few relaxed loads.
    #[inline]
    pub fn detect() -> Option<ShaNi> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("sha")
            && std::arch::is_x86_feature_detected!("ssse3")
            && std::arch::is_x86_feature_detected!("sse4.1")
        {
            return Some(ShaNi(()));
        }
        None
    }

    /// Absorbs `blocks` into the chaining value `state`, exactly as
    /// [`super::compress_portable`] applied to each block in turn.
    #[inline]
    pub fn compress(self, state: &mut [u32; 8], blocks: &[[u8; 64]]) {
        #[cfg(target_arch = "x86_64")]
        {
            let ShaNi(()) = self;
            // SAFETY: a `ShaNi` is only built by `ShaNi::detect`, after
            // `is_x86_feature_detected!` confirmed `sha`, `ssse3` and
            // `sse4.1`, so the kernel's target features are present on
            // this CPU.
            unsafe { x86::compress(state, blocks) }
        }
        #[cfg(not(target_arch = "x86_64"))]
        match self.0 {}
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::super::K;
    use core::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
        _mm_shuffle_epi8, _mm_storeu_si128,
    };

    /// Four rounds: adds the round constants K[4i..4i + 4] to the
    /// message words `w` and runs two `SHA256RNDS2`, the second on the
    /// upper two sums.
    #[inline]
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, i: usize) {
        let k: [u32; 4] = K[4 * i..4 * i + 4].try_into().expect("4 constants");
        // SAFETY: `k` is 16 readable bytes; `loadu` has no alignment
        // requirement.
        let k = unsafe { _mm_loadu_si128(k.as_ptr().cast()) };
        let wk = _mm_add_epi32(w, k);
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32::<0x0E>(wk));
    }

    /// The next four schedule words W[t..t + 4] from the previous
    /// sixteen, held oldest first in `w0..w3`.
    #[inline]
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8::<4>(w3, w2));
        _mm_sha256msg2_epu32(t, w3)
    }

    /// # Safety
    ///
    /// The CPU must support `sha`, `ssse3` and `sse4.1`.
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    pub(super) unsafe fn compress(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
        // Big-endian message words: reverse the bytes of each 32-bit lane.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        // SAFETY: `state` is 32 readable bytes; `loadu` has no
        // alignment requirement.
        let (dcba, hgfe) = unsafe {
            let p = state.as_ptr().cast::<__m128i>();
            (_mm_loadu_si128(p), _mm_loadu_si128(p.add(1)))
        };
        // (A, B, C, D), (E, F, G, H) → the (ABEF, CDGH) register pair.
        let cdab = _mm_shuffle_epi32::<0xb1>(dcba);
        let efgh = _mm_shuffle_epi32::<0x1b>(hgfe);
        let mut abef = _mm_alignr_epi8::<8>(cdab, efgh);
        let mut cdgh = _mm_blend_epi16::<0xf0>(efgh, cdab);

        for block in blocks {
            let (abef_in, cdgh_in) = (abef, cdgh);
            // SAFETY: `block` is 64 readable bytes; `loadu` has no
            // alignment requirement.
            let mut w: [__m128i; 4] = unsafe {
                let p = block.as_ptr().cast::<__m128i>();
                [
                    _mm_loadu_si128(p),
                    _mm_loadu_si128(p.add(1)),
                    _mm_loadu_si128(p.add(2)),
                    _mm_loadu_si128(p.add(3)),
                ]
            }
            .map(|x| _mm_shuffle_epi8(x, bswap));
            for i in 0..16 {
                if i >= 4 {
                    w[i % 4] = schedule(w[i % 4], w[(i + 1) % 4], w[(i + 2) % 4], w[(i + 3) % 4]);
                }
                rounds4(&mut abef, &mut cdgh, w[i % 4], i);
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32::<0x1b>(abef);
        let dchg = _mm_shuffle_epi32::<0xb1>(cdgh);
        let dcba = _mm_blend_epi16::<0xf0>(feba, dchg);
        let hgef = _mm_alignr_epi8::<8>(dchg, feba);
        // SAFETY: `state` is 32 writable bytes; `storeu` has no
        // alignment requirement.
        unsafe {
            let p = state.as_mut_ptr().cast::<__m128i>();
            _mm_storeu_si128(p, dcba);
            _mm_storeu_si128(p.add(1), hgef);
        }
    }
}

#[cfg(all(test, target_arch = "x86_64"))]
mod tests {
    use super::super::compress_portable;
    use super::*;
    use prng::SplitMix64;

    #[test]
    fn agrees_with_the_portable_compression_on_chained_blocks() {
        let Some(k) = ShaNi::detect() else {
            eprintln!("no SHA extensions on this CPU: SHA-NI kernel not exercised");
            return;
        };
        let mut rng = SplitMix64::new(0x5a4);
        let mut want = [0u32; 8];
        rng.fill_u32(&mut want);
        let mut got = want;
        for n in 0..20_000 {
            let mut words = [0u32; 16];
            rng.fill_u32(&mut words);
            let mut block = [0u8; 64];
            for (b, w) in block.chunks_exact_mut(4).zip(words) {
                b.copy_from_slice(&w.to_le_bytes());
            }
            compress_portable(&mut want, &block);
            k.compress(&mut got, &[block]);
            assert_eq!(got, want, "block {n}");
        }
    }

    #[test]
    fn multi_block_call_matches_block_by_block() {
        let Some(k) = ShaNi::detect() else {
            return;
        };
        let blocks: Vec<[u8; 64]> = (0..5u8).map(|i| [i.wrapping_mul(37); 64]).collect();
        let mut want = [7u32; 8];
        for b in &blocks {
            compress_portable(&mut want, b);
        }
        let mut got = [7u32; 8];
        k.compress(&mut got, &blocks);
        assert_eq!(got, want);
        k.compress(&mut got, &[]);
        assert_eq!(got, want, "an empty slice leaves the state alone");
    }
}
