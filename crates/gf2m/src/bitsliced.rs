//! 64-lane bitsliced F₂²³³ batch backend.
//!
//! One [`BitslicedBatch`] holds 64 field elements *transposed*: lane-word
//! `i` is a `u64` whose bit `j` is the coefficient of zⁱ in element `j`.
//! In this orientation every field operation becomes pure XOR/AND data
//! flow over `u64` words — no carries, no branches, no table lookups —
//! and each machine word processes all 64 elements at once:
//!
//! * [`BitslicedBatch::mul`] — iteratively-applied Karatsuba (the
//!   Dyka & Langendoerfer decomposition, arXiv:0710.4810) down to a
//!   schoolbook base case, ~3× fewer lane-ops than the 233² schoolbook;
//! * [`BitslicedBatch::sqr`] — squaring in characteristic 2 is the
//!   coefficient spread c₂ᵢ = aᵢ, which in lane space is just a word
//!   permutation followed by one reduction;
//! * [`BitslicedBatch::reduce`] — the sect233k1 trinomial
//!   f(z) = z²³³ + z⁷⁴ + 1 folded in lane space (two XORs per excess
//!   word, high-to-low);
//! * [`BitslicedBatch::batch_inv`] — 64 lane-parallel inversions via the
//!   Itoh–Tsujii addition chain on m − 1 = 232 (10 multiplications,
//!   232 squarings — the multiplication-bound inversion that loses on
//!   a scalar machine but wins once every multiplication carries 64
//!   lanes); zero lanes come out zero for free because 0^(2²³³−2) = 0.
//!
//! [`transpose_in`]/[`transpose_out`](BitslicedBatch::transpose_out)
//! convert to and from the canonical [`Fe`] representation with the
//! word-level 64×64 bit-matrix transpose, so the backend is a drop-in
//! batch engine behind [`crate::batch::batch_invert`]: batches of at
//! least [`CROSSOVER`] elements take the bitsliced fast path (a
//! zero-aware Montgomery chain *across* chunks — [`invert_elements`] —
//! that amortises one inversion of the final prefix over every chunk),
//! and produce bit-identical values to the scalar path, since inverses
//! are unique.

use crate::{Fe, K, M, N};

/// Elements carried per batch: one per bit of the `u64` lane-words.
pub const LANES: usize = 64;

/// Length of an unreduced lane-space product: 2·233 − 1 coefficients.
pub const PROD: usize = 2 * M - 1;

/// Batch size at and above which [`crate::batch::batch_invert`] routes
/// through the bitsliced backend. Below it the scalar Montgomery chain
/// wins: both chains pay ~3 multiplications per element, so the
/// bitsliced side only pulls ahead once its cheaper lane-space
/// multiplications (~1.8× the portable per-lane throughput, see
/// EXPERIMENTS.md) have amortised the fixed cost of its final-prefix
/// inversion and the transposes. The A/B sweep in `bench --bin
/// throughput` measures 0.90× at one chunk and 1.13× / 1.43× / 1.58×
/// at 2 / 4 / 16 chunks on the reference host — two full chunks is the
/// first size that wins, and the margin only grows from there.
pub const CROSSOVER: usize = 128;

/// 64 field elements in bitsliced (transposed) representation.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct BitslicedBatch {
    /// `lanes[i]` bit `j` = coefficient of zⁱ in element `j`.
    lanes: [u64; M],
}

impl std::fmt::Debug for BitslicedBatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BitslicedBatch")
            .field(
                "nonzero_lanes",
                &format_args!("{:#018x}", self.nonzero_lanes()),
            )
            .finish()
    }
}

impl Default for BitslicedBatch {
    fn default() -> Self {
        BitslicedBatch::ZERO
    }
}

/// In-place 64×64 bit-matrix transpose (Hacker's Delight 7-3, LSB-first
/// orientation): afterwards bit `j` of word `i` is bit `i` of the old
/// word `j`.
fn transpose_64x64(a: &mut [u64; 64]) {
    let mut j = 32usize;
    let mut m: u64 = 0x0000_0000_FFFF_FFFF;
    while j != 0 {
        let mut k = 0usize;
        while k < 64 {
            let t = ((a[k] >> j) ^ a[k + j]) & m;
            a[k] ^= t << j;
            a[k + j] ^= t;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        if j != 0 {
            m ^= m << j;
        }
    }
}

/// Below this operand length the lane-space Karatsuba recursion bottoms
/// out into the schoolbook product: the O(n) split/combine overhead of
/// another level stops paying for the saved quarter-product around
/// here (half-length sums plus three recombination passes vs n²/4
/// AND+XOR pairs).
const KARA_THRESHOLD: usize = 40;

/// Lane-space scratch for one full 233-coefficient Karatsuba tree:
/// each level needs 2·⌈n/2⌉ sum words + (2·⌈n/2⌉ − 1) mid words;
/// 233 → 117 → 59 → 30 → 15 → 8 sums to < 1024.
const KARA_SCRATCH: usize = 1024;

/// Schoolbook lane-space product: `out[i + j] = Σ a[i] & b[j]`
/// (overwrites `out[..a.len() + b.len() - 1]`).
///
/// Four `a`-words are folded per pass over `b`, so every load/store of
/// the accumulator row carries eight logical ops instead of two — the
/// kernel is memory-traffic-bound, not ALU-bound, and this quarters
/// the traffic per AND+XOR pair.
fn mul_school(a: &[u64], b: &[u64], out: &mut [u64]) {
    let out = &mut out[..a.len() + b.len() - 1];
    out.fill(0);
    let blen = b.len();
    let mut i = 0;
    if blen >= 3 {
        while i + 3 < a.len() {
            let (a0, a1, a2, a3) = (a[i], a[i + 1], a[i + 2], a[i + 3]);
            let o = &mut out[i..i + blen + 3];
            o[0] ^= a0 & b[0];
            o[1] ^= (a0 & b[1]) ^ (a1 & b[0]);
            o[2] ^= (a0 & b[2]) ^ (a1 & b[1]) ^ (a2 & b[0]);
            for j in 3..blen {
                o[j] ^= (a0 & b[j]) ^ (a1 & b[j - 1]) ^ (a2 & b[j - 2]) ^ (a3 & b[j - 3]);
            }
            o[blen] ^= (a1 & b[blen - 1]) ^ (a2 & b[blen - 2]) ^ (a3 & b[blen - 3]);
            o[blen + 1] ^= (a2 & b[blen - 1]) ^ (a3 & b[blen - 2]);
            o[blen + 2] ^= a3 & b[blen - 1];
            i += 4;
        }
    }
    // 0–3 leftover a-words (or tiny b): one word per pass.
    while i < a.len() {
        let ai = a[i];
        for (o, &bj) in out[i..].iter_mut().zip(b) {
            *o ^= ai & bj;
        }
        i += 1;
    }
}

/// Recursive Karatsuba over lane-words: splits equal-length operands at
/// the midpoint, reuses `out` for the low/high sub-products and XORs
/// the middle term in afterwards (reads of the sub-products happen
/// before the destination range is written, so the combine is in
/// place). `out[..2n − 1]` is overwritten.
fn mul_karatsuba(a: &[u64], b: &[u64], out: &mut [u64], scratch: &mut [u64]) {
    let n = a.len();
    debug_assert_eq!(n, b.len());
    if n <= KARA_THRESHOLD {
        mul_school(a, b, out);
        return;
    }
    let h = n / 2; // low-half length
    let hi = n - h; // high-half length (≥ h)
    let (a0, a1) = a.split_at(h);
    let (b0, b1) = b.split_at(h);

    // low = a0·b0 into out[0 .. 2h−1], high = a1·b1 into out[2h .. 2n−1];
    // the seam word out[2h−1] belongs to neither sub-product.
    let (sums, rest) = scratch.split_at_mut(2 * hi);
    let (asum, bsum) = sums.split_at_mut(hi);
    let (mid, rest) = rest.split_at_mut(2 * hi - 1);
    mul_karatsuba(a0, b0, &mut out[..2 * h - 1], rest);
    out[2 * h - 1] = 0;
    mul_karatsuba(a1, b1, &mut out[2 * h..], rest);

    // mid = (a0 + a1)·(b0 + b1), padded to the high-half length
    // (hi − h ≤ 1, so the copy covers the possible odd tail word).
    asum.copy_from_slice(a1);
    bsum.copy_from_slice(b1);
    for (s, &x0) in asum.iter_mut().zip(a0) {
        *s ^= x0;
    }
    for (s, &x0) in bsum.iter_mut().zip(b0) {
        *s ^= x0;
    }
    mul_karatsuba(asum, bsum, mid, rest);

    // out[h ..] += mid + low + high (reads before the writes land).
    for (mw, &lo) in mid.iter_mut().zip(&out[..2 * h - 1]) {
        *mw ^= lo;
    }
    for (mw, &hiw) in mid.iter_mut().zip(&out[2 * h..]) {
        *mw ^= hiw;
    }
    for (o, &mw) in out[h..].iter_mut().zip(mid.iter()) {
        *o ^= mw;
    }
}

/// Transposes up to [`LANES`] field elements into a batch. Lanes past
/// `elems.len()` are zero.
///
/// # Panics
///
/// Panics if `elems.len() > 64`.
pub fn transpose_in(elems: &[Fe]) -> BitslicedBatch {
    assert!(elems.len() <= LANES, "a batch holds at most 64 elements");
    let mut lanes = [0u64; M];
    // Four 64×64 blocks: block b covers coefficient rows 64b .. 64b+63.
    let mut block = [0u64; 64];
    for b in 0..4 {
        for (j, e) in elems.iter().enumerate() {
            let w = e.words();
            block[j] = u64::from(w[2 * b]) | (u64::from(w[2 * b + 1]) << 32);
        }
        for row in block.iter_mut().skip(elems.len()) {
            *row = 0;
        }
        transpose_64x64(&mut block);
        let rows = (M - 64 * b).min(64);
        lanes[64 * b..64 * b + rows].copy_from_slice(&block[..rows]);
    }
    BitslicedBatch { lanes }
}

impl BitslicedBatch {
    /// The all-zero batch (64 copies of [`Fe::ZERO`]).
    pub const ZERO: BitslicedBatch = BitslicedBatch { lanes: [0; M] };

    /// The raw lane-words (`lanes[i]` bit `j` = coefficient zⁱ of
    /// element `j`).
    pub fn lane_words(&self) -> &[u64; M] {
        &self.lanes
    }

    /// Overwrites lane `j` with `value` (used by the lane-independence
    /// property tests to corrupt a single lane in place).
    ///
    /// # Panics
    ///
    /// Panics if `lane ≥ 64`.
    pub fn set_lane(&mut self, lane: usize, value: Fe) {
        assert!(lane < LANES);
        let bit = 1u64 << lane;
        for (i, w) in self.lanes.iter_mut().enumerate() {
            let coeff = u64::from(value.bit(i)) << lane;
            *w = (*w & !bit) | coeff;
        }
    }

    /// Reads lane `j` back as a field element.
    ///
    /// # Panics
    ///
    /// Panics if `lane ≥ 64`.
    pub fn lane(&self, lane: usize) -> Fe {
        assert!(lane < LANES);
        let mut words = [0u32; N];
        for (i, &w) in self.lanes.iter().enumerate() {
            words[i / 32] |= (((w >> lane) & 1) as u32) << (i % 32);
        }
        Fe::from_words_reduced(words)
    }

    /// Transposes the batch back to field elements. `len` selects how
    /// many lanes to materialise (the partner of a short
    /// [`transpose_in`] slice).
    ///
    /// # Panics
    ///
    /// Panics if `len > 64`.
    pub fn transpose_out(&self, len: usize) -> Vec<Fe> {
        assert!(len <= LANES, "a batch holds at most 64 elements");
        let mut out = vec![[0u32; N]; len];
        let mut block = [0u64; 64];
        for b in 0..4 {
            let rows = (M - 64 * b).min(64);
            block[..rows].copy_from_slice(&self.lanes[64 * b..64 * b + rows]);
            block[rows..].fill(0);
            transpose_64x64(&mut block);
            for (j, words) in out.iter_mut().enumerate() {
                words[2 * b] = block[j] as u32;
                words[2 * b + 1] = (block[j] >> 32) as u32;
            }
        }
        out.into_iter().map(Fe::from_words_reduced).collect()
    }

    /// Bit-mask of the lanes that carry a non-zero element (bit `j` set
    /// ⇔ lane `j` ≠ 0).
    pub fn nonzero_lanes(&self) -> u64 {
        self.lanes.iter().fold(0, |acc, &w| acc | w)
    }

    /// Lane-parallel field addition — in characteristic 2 just the XOR
    /// of every lane-word.
    pub fn add(&self, other: &BitslicedBatch) -> BitslicedBatch {
        let mut lanes = self.lanes;
        for (o, &b) in lanes.iter_mut().zip(&other.lanes) {
            *o ^= b;
        }
        BitslicedBatch { lanes }
    }

    /// Lane-parallel field multiplication: lane `j` of the result is
    /// `self[j] · other[j]` for all 64 lanes at once. Karatsuba down to
    /// [`KARA_THRESHOLD`], then one trinomial reduction.
    pub fn mul(&self, other: &BitslicedBatch) -> BitslicedBatch {
        self.mul_with(other, &mut MulScratch::new())
    }

    /// [`BitslicedBatch::mul`] with a caller-provided workspace —
    /// reusing one [`MulScratch`] across a chain of multiplications
    /// (as [`batch_inv`](BitslicedBatch::batch_inv) and
    /// [`batch_inv_chunks`] do) skips the ~12 KB of zero-initialisation
    /// a fresh workspace costs.
    pub fn mul_with(&self, other: &BitslicedBatch, ws: &mut MulScratch) -> BitslicedBatch {
        mul_karatsuba(&self.lanes, &other.lanes, &mut ws.prod, &mut ws.tree);
        BitslicedBatch::reduce(&ws.prod)
    }

    /// Lane-parallel squaring: the characteristic-2 coefficient spread
    /// (c₂ᵢ = aᵢ — a pure word permutation in lane space) followed by
    /// one reduction.
    pub fn sqr(&self) -> BitslicedBatch {
        let mut prod = [0u64; PROD];
        for (i, &w) in self.lanes.iter().enumerate() {
            prod[2 * i] = w;
        }
        BitslicedBatch::reduce(&prod)
    }

    /// `self^(2^k)` — `k` chained squarings.
    pub fn sqr_n(&self, k: usize) -> BitslicedBatch {
        let mut x = *self;
        for _ in 0..k {
            x = x.sqr();
        }
        x
    }

    /// Reduces an unreduced lane-space product modulo the sect233k1
    /// trinomial f(z) = z²³³ + z⁷⁴ + 1: every coefficient word k ≥ 233
    /// folds into k − 233 and k − 233 + 74. Folding high-to-low lets
    /// targets that are themselves ≥ 233 be folded in turn when the
    /// sweep reaches them.
    pub fn reduce(prod: &[u64; PROD]) -> BitslicedBatch {
        let mut p = *prod;
        for k in (M..PROD).rev() {
            let w = p[k];
            p[k - M] ^= w;
            p[k - M + K] ^= w;
        }
        let mut lanes = [0u64; M];
        lanes.copy_from_slice(&p[..M]);
        BitslicedBatch { lanes }
    }

    /// 64 lane-parallel inversions via Itoh–Tsujii: a⁻¹ = a^(2²³³ − 2)
    /// with the addition chain 1, 2, 3, 6, 7, 14, 28, 29, 58, 116, 232
    /// (10 multiplications + 232 squarings, shared by all lanes). Zero
    /// lanes come out zero — 0 to any power is 0 — which is exactly the
    /// zero-aware contract of [`crate::batch::batch_invert`].
    pub fn batch_inv(&self) -> BitslicedBatch {
        self.batch_inv_with(&mut MulScratch::new())
    }

    /// [`BitslicedBatch::batch_inv`] with a caller-provided workspace.
    pub fn batch_inv_with(&self, ws: &mut MulScratch) -> BitslicedBatch {
        // e(k) = a^(2^k − 1).
        let e1 = *self;
        let e2 = e1.sqr().mul_with(&e1, ws);
        let e3 = e2.sqr().mul_with(&e1, ws);
        let e6 = e3.sqr_n(3).mul_with(&e3, ws);
        let e7 = e6.sqr().mul_with(&e1, ws);
        let e14 = e7.sqr_n(7).mul_with(&e7, ws);
        let e28 = e14.sqr_n(14).mul_with(&e14, ws);
        let e29 = e28.sqr().mul_with(&e1, ws);
        let e58 = e29.sqr_n(29).mul_with(&e29, ws);
        let e116 = e58.sqr_n(58).mul_with(&e58, ws);
        let e232 = e116.sqr_n(116).mul_with(&e116, ws);
        // a⁻¹ = (a^(2^232 − 1))².
        e232.sqr()
    }
}

/// Reusable lane-space multiplication workspace: the unreduced
/// 465-word product plus the Karatsuba sum/middle tree. One instance
/// serves any number of sequential [`BitslicedBatch::mul_with`] calls.
pub struct MulScratch {
    prod: [u64; PROD],
    tree: [u64; KARA_SCRATCH],
}

impl MulScratch {
    pub fn new() -> MulScratch {
        MulScratch {
            prod: [0; PROD],
            tree: [0; KARA_SCRATCH],
        }
    }
}

impl Default for MulScratch {
    fn default() -> Self {
        MulScratch::new()
    }
}

/// The chunk-level Montgomery chain shared by [`batch_inv_chunks`] and
/// [`invert_elements`]: substitute 1 into zero lanes (remembering the
/// masks), build lane-wise prefix products, invert the final prefix
/// with `final_inv`, peel one chunk of inverses per backward step, and
/// mask the substituted lanes back to zero. Only the final-inversion
/// strategy differs between callers.
fn montgomery_chunks(
    chunks: &mut [BitslicedBatch],
    final_inv: impl FnOnce(&BitslicedBatch, &mut MulScratch) -> BitslicedBatch,
) {
    if chunks.is_empty() {
        return;
    }
    // Substitute 1 into zero lanes so they don't zero the chain; the
    // masks remember which lanes to clear afterwards.
    let masks: Vec<u64> = chunks
        .iter_mut()
        .map(|c| {
            let nonzero = c.nonzero_lanes();
            c.lanes[0] |= !nonzero; // a zero lane is all-zero: OR makes it exactly 1
            nonzero
        })
        .collect();

    let mut ws = MulScratch::new();

    // Forward sweep: prefix[i] = chunks[0] · … · chunks[i], lane-wise.
    let mut prefix = Vec::with_capacity(chunks.len());
    prefix.push(chunks[0]);
    for c in &chunks[1..] {
        let last = *prefix.last().expect("seeded with chunk 0");
        prefix.push(last.mul_with(c, &mut ws));
    }

    // One inversion for all lanes of all chunks.
    let mut inv = final_inv(prefix.last().expect("non-empty"), &mut ws);

    // Backward sweep: peel one chunk of inverses per step.
    for i in (1..chunks.len()).rev() {
        let a = chunks[i];
        chunks[i] = inv.mul_with(&prefix[i - 1], &mut ws);
        inv = inv.mul_with(&a, &mut ws);
    }
    chunks[0] = inv;

    // Mask substituted lanes back to zero.
    for (c, &nonzero) in chunks.iter_mut().zip(&masks) {
        for w in c.lanes.iter_mut() {
            *w &= nonzero;
        }
    }
}

/// Zero-aware Montgomery inversion chain *across* chunks: inverts every
/// lane of every batch with **one** Itoh–Tsujii inversion total. Zero
/// lanes stay zero and do not disturb any other lane.
///
/// This is Montgomery's trick run 64 lanes wide: lane `j` of the prefix
/// products is the running product of lane `j` across the chunks, the
/// single inversion is the lane-parallel [`BitslicedBatch::batch_inv`],
/// and the backward sweep peels one inverse per chunk — so `k` chunks
/// (64k elements) cost 3(k − 1) + 10 bitsliced multiplications + 233
/// squarings, against 3·(64k − 1) scalar multiplications + one EEA
/// inversion for the scalar chain. This variant never leaves lane
/// space (pure XOR/AND all the way down); the production seam
/// [`invert_elements`] swaps the final inversion for a scalar-assisted
/// one that is faster on hosts where it may round-trip through [`Fe`].
pub fn batch_inv_chunks(chunks: &mut [BitslicedBatch]) {
    montgomery_chunks(chunks, |p, ws| p.batch_inv_with(ws));
}

/// Inverts every non-zero element of `elems` in place through the
/// bitsliced backend (zeros stay zero): transpose into 64-lane chunks,
/// run the zero-aware Montgomery chain across them, transpose back.
/// Produces values bit-identical to [`crate::batch::batch_invert`]'s
/// scalar chain — inverses are unique — for any length, including a
/// ragged final chunk (its idle lanes are zero and invert to zero).
///
/// The final prefix chunk holds 64 *distinct* running products, and
/// inverting those 64 values with the scalar Montgomery chain
/// (3 multiplications per lane + one EEA inversion, after a transpose
/// out and back) is measurably cheaper than the lane-parallel
/// Itoh–Tsujii chain (10 lane-multiplications + 232 lane-squarings) on
/// SSE2-class hosts — it is the fixed cost that sets the crossover, so
/// the hybrid pulls [`CROSSOVER`] down a full binary order of
/// magnitude (sweep in EXPERIMENTS.md).
pub fn invert_elements(elems: &mut [Fe]) {
    if elems.is_empty() {
        return;
    }
    let mut chunks: Vec<BitslicedBatch> = elems.chunks(LANES).map(transpose_in).collect();
    montgomery_chunks(&mut chunks, |p, _| {
        // All lanes are non-zero here (zero lanes were substituted with
        // 1), so the scalar chain spends exactly one EEA inversion.
        let mut lanes = p.transpose_out(LANES);
        crate::batch::batch_invert_scalar(&mut lanes);
        transpose_in(&lanes)
    });
    for (chunk, batch) in elems.chunks_mut(LANES).zip(&chunks) {
        let inverted = batch.transpose_out(chunk.len());
        chunk.copy_from_slice(&inverted);
    }
}

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
            *x = (s >> 19) as u32;
        }
        Fe::from_words_reduced(w)
    }

    fn batch(seed: u64) -> (Vec<Fe>, BitslicedBatch) {
        let elems: Vec<Fe> = (0..LANES as u64).map(|i| fe(seed + i)).collect();
        let b = transpose_in(&elems);
        (elems, b)
    }

    #[test]
    fn transpose_roundtrip_random() {
        let (elems, b) = batch(100);
        assert_eq!(b.transpose_out(LANES), elems);
    }

    #[test]
    fn transpose_roundtrip_edge_patterns() {
        let top = Fe::from_words_reduced([0, 0, 0, 0, 0, 0, 0, 1 << 8]); // z²³²
        let alternating = Fe::from_words_reduced([
            0xAAAA_AAAA,
            0x5555_5555,
            0xAAAA_AAAA,
            0x5555_5555,
            0xAAAA_AAAA,
            0x5555_5555,
            0xAAAA_AAAA,
            0x5555_5555,
        ]);
        let patterns = [Fe::ZERO, Fe::ONE, top, alternating];
        // Each pattern in every lane position, padded with the others.
        for rot in 0..patterns.len() {
            let elems: Vec<Fe> = (0..LANES)
                .map(|i| patterns[(i + rot) % patterns.len()])
                .collect();
            let b = transpose_in(&elems);
            assert_eq!(b.transpose_out(LANES), elems, "rotation {rot}");
        }
        // Short batches: missing lanes are zero.
        let short = [patterns[2], patterns[3]];
        let b = transpose_in(&short);
        assert_eq!(b.transpose_out(2), short);
        assert_eq!(b.lane(63), Fe::ZERO);
    }

    #[test]
    fn lane_accessors_match_transpose() {
        let (elems, mut b) = batch(300);
        for (j, e) in elems.iter().enumerate() {
            assert_eq!(b.lane(j), *e, "lane {j}");
        }
        let replacement = fe(9999);
        b.set_lane(17, replacement);
        assert_eq!(b.lane(17), replacement);
        for (j, e) in elems.iter().enumerate() {
            if j != 17 {
                assert_eq!(b.lane(j), *e, "lane {j} after corrupting 17");
            }
        }
    }

    #[test]
    fn mul_matches_portable_per_lane() {
        let (xs, bx) = batch(1000);
        let (ys, by) = batch(2000);
        let prod = bx.mul(&by);
        for j in 0..LANES {
            assert_eq!(prod.lane(j), xs[j] * ys[j], "lane {j}");
        }
    }

    #[test]
    fn mul_edge_lanes() {
        let top = Fe::from_words_reduced([u32::MAX; N]);
        let xs = [Fe::ZERO, Fe::ONE, top, fe(1), top, Fe::ONE];
        let ys = [top, top, top, fe(2), Fe::ZERO, Fe::ONE];
        let prod = transpose_in(&xs).mul(&transpose_in(&ys));
        for j in 0..xs.len() {
            assert_eq!(prod.lane(j), xs[j] * ys[j], "lane {j}");
        }
        // Idle lanes (both inputs zero) stay zero.
        assert_eq!(prod.lane(63), Fe::ZERO);
    }

    #[test]
    fn sqr_matches_portable_per_lane() {
        let (xs, bx) = batch(3000);
        let sq = bx.sqr();
        for (j, x) in xs.iter().enumerate() {
            assert_eq!(sq.lane(j), x.square(), "lane {j}");
        }
    }

    #[test]
    fn batch_inv_matches_portable_per_lane() {
        let (mut xs, _) = batch(4000);
        xs[5] = Fe::ZERO;
        xs[6] = Fe::ONE;
        xs[7] = xs[8]; // duplicate lanes invert alike
        let inv = transpose_in(&xs).batch_inv();
        for (j, x) in xs.iter().enumerate() {
            match x.invert() {
                Some(want) => assert_eq!(inv.lane(j), want, "lane {j}"),
                None => assert_eq!(inv.lane(j), Fe::ZERO, "zero lane {j}"),
            }
        }
    }

    #[test]
    fn chunked_inversion_is_zero_aware() {
        let mut elems: Vec<Fe> = (0..200u64).map(|i| fe(i + 7000)).collect();
        elems[0] = Fe::ZERO;
        elems[63] = Fe::ZERO;
        elems[64] = Fe::ZERO;
        elems[199] = Fe::ZERO;
        let want: Vec<Fe> = elems
            .iter()
            .map(|e| e.invert().unwrap_or(Fe::ZERO))
            .collect();
        invert_elements(&mut elems);
        assert_eq!(elems, want);
    }

    #[test]
    fn chunked_inversion_all_zero() {
        let mut elems = vec![Fe::ZERO; 130];
        invert_elements(&mut elems);
        assert!(elems.iter().all(Fe::is_zero));
        let mut empty: Vec<Fe> = vec![];
        invert_elements(&mut empty);
        assert!(empty.is_empty());
    }

    #[test]
    fn reduce_agrees_with_portable_reduce() {
        // A lane-space product of two elements must reduce to the same
        // field element the portable word-level reducer produces.
        let a = fe(42);
        let b = fe(43);
        let one_lane = transpose_in(&[a]).mul(&transpose_in(&[b]));
        let wide = crate::mul::mul_poly_ld(a.words(), b.words());
        assert_eq!(one_lane.lane(0), crate::reduce::reduce(wide));
    }

    #[test]
    fn karatsuba_matches_schoolbook_in_lane_space() {
        let (_, bx) = batch(500);
        let (_, by) = batch(600);
        let mut kara = [0u64; PROD];
        let mut scratch = [0u64; KARA_SCRATCH];
        mul_karatsuba(&bx.lanes, &by.lanes, &mut kara, &mut scratch);
        let mut school = [0u64; PROD];
        mul_school(&bx.lanes, &by.lanes, &mut school);
        assert_eq!(kara[..], school[..]);
    }
}
