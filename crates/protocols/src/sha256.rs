//! SHA-256 (FIPS 180-4), implemented from scratch for the WSN
//! application layer (ECDSA message digests, HMAC, key derivation).
//!
//! Two tiers implement the compression function:
//!
//! * **host** ([`ShaNi`]) — the x86-64 SHA extensions
//!   (`SHA256RNDS2`, `SHA256MSG1/2`), two rounds per instruction.
//!   [`Sha256::new`] uses it whenever the CPU has `sha`, `ssse3` and
//!   `sse4.1`;
//! * **portable** ([`compress_portable`]) — the FIPS 180-4 round
//!   function in plain Rust. It is the fallback without the extensions
//!   or off x86-64, and the oracle the host tier is tested against
//!   ([`Sha256::portable`] hashes with it on any CPU).
//!
//! Both tiers produce the same digests; only the speed differs.

mod sha_ni;

pub use sha_ni::ShaNi;

/// Initial hash values (fractional parts of √p for the first 8 primes).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Round constants (fractional parts of ∛p for the first 64 primes).
pub(crate) const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// An incremental SHA-256 hasher.
///
/// ```
/// use protocols::sha256::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// let digest = h.finalize();
/// assert_eq!(
///     hex(&digest),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// // The portable tier (the oracle) hashes identically.
/// let mut p = Sha256::portable();
/// p.update(b"abc");
/// assert_eq!(p.finalize(), digest);
/// fn hex(b: &[u8]) -> String {
///     b.iter().map(|x| format!("{x:02x}")).collect()
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffered: usize,
    length_bits: u64,
    /// The compression tier: the SHA extensions when present,
    /// [`compress_portable`] otherwise.
    sha_ni: Option<ShaNi>,
}

impl Sha256 {
    /// Creates a fresh hasher on the fastest compression the CPU has.
    pub fn new() -> Sha256 {
        Sha256::on(ShaNi::detect())
    }

    /// Creates a fresh hasher that compresses with the portable tier
    /// on every CPU — the oracle for [`ShaNi`].
    pub fn portable() -> Sha256 {
        Sha256::on(None)
    }

    fn on(sha_ni: Option<ShaNi>) -> Sha256 {
        Sha256 {
            state: H0,
            buffer: [0; 64],
            buffered: 0,
            length_bits: 0,
            sha_ni,
        }
    }

    /// One-shot convenience digest.
    pub fn digest(data: &[u8]) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }

    /// Absorbs `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.length_bits = self.length_bits.wrapping_add((data.len() as u64) * 8);
        let mut rest = data;
        if self.buffered > 0 {
            let take = rest.len().min(64 - self.buffered);
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&rest[..take]);
            self.buffered += take;
            rest = &rest[take..];
            if self.buffered == 64 {
                let block = self.buffer;
                self.compress(&[block]);
                self.buffered = 0;
            } else {
                // Buffer still partial ⇒ the input is exhausted.
                debug_assert!(rest.is_empty());
                return;
            }
        }
        let (blocks, tail) = rest.as_chunks::<64>();
        self.compress(blocks);
        self.buffer[..tail.len()].copy_from_slice(tail);
        self.buffered = tail.len();
    }

    /// Finishes and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        // Padding: 0x80, zeros to byte 56 of the last block (a block of
        // its own when fewer than 9 bytes are free), then the bit length.
        let n = self.buffered;
        let mut block = self.buffer;
        block[n] = 0x80;
        block[n + 1..].fill(0);
        if n >= 56 {
            self.compress(&[block]);
            block = [0; 64];
        }
        block[56..].copy_from_slice(&self.length_bits.to_be_bytes());
        self.compress(&[block]);
        let mut out = [0u8; 32];
        for (chunk, w) in out.chunks_exact_mut(4).zip(self.state) {
            chunk.copy_from_slice(&w.to_be_bytes());
        }
        out
    }

    fn compress(&mut self, blocks: &[[u8; 64]]) {
        match self.sha_ni {
            Some(k) => k.compress(&mut self.state, blocks),
            None => {
                for block in blocks {
                    compress_portable(&mut self.state, block);
                }
            }
        }
    }
}

/// The portable SHA-256 compression function: absorbs one 64-byte
/// block into the chaining value `state`.
pub fn compress_portable(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes(chunk.try_into().expect("4 bytes"));
    }
    for t in 16..64 {
        let s0 = w[t - 15].rotate_right(7) ^ w[t - 15].rotate_right(18) ^ (w[t - 15] >> 3);
        let s1 = w[t - 2].rotate_right(17) ^ w[t - 2].rotate_right(19) ^ (w[t - 2] >> 10);
        w[t] = w[t - 16]
            .wrapping_add(s0)
            .wrapping_add(w[t - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for t in 0..64 {
        let big_s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(big_s1)
            .wrapping_add(ch)
            .wrapping_add(K[t])
            .wrapping_add(w[t]);
        let big_s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = big_s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    let add = [a, b, c, d, e, f, g, h];
    for (s, v) in state.iter_mut().zip(add) {
        *s = s.wrapping_add(v);
    }
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(b: &[u8]) -> String {
        b.iter().map(|x| format!("{x:02x}")).collect()
    }

    /// `Sha256::digest`, checked against the portable tier.
    fn digest_both(data: &[u8]) -> [u8; 32] {
        let mut portable = Sha256::portable();
        portable.update(data);
        let digest = Sha256::digest(data);
        assert_eq!(digest, portable.finalize(), "portable tier");
        digest
    }

    #[test]
    fn nist_vector_abc() {
        assert_eq!(
            hex(&digest_both(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn nist_vector_empty() {
        assert_eq!(
            hex(&digest_both(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn nist_vector_two_blocks() {
        assert_eq!(
            hex(&digest_both(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        for mut h in [Sha256::new(), Sha256::portable()] {
            let chunk = [b'a'; 1000];
            for _ in 0..1000 {
                h.update(&chunk);
            }
            assert_eq!(
                hex(&h.finalize()),
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
            );
        }
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data = b"the quick brown fox jumps over the lazy dog and keeps going";
        for split in [0usize, 1, 17, 55, 56, 57, data.len()] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), Sha256::digest(data), "split {split}");
        }
    }

    #[test]
    fn padding_boundaries() {
        // 55, 56 and 64-byte messages hit the three padding paths.
        for len in [55usize, 56, 63, 64, 65] {
            let data = vec![0xA5u8; len];
            let d1 = digest_both(&data);
            for mut h in [Sha256::new(), Sha256::portable()] {
                for b in &data {
                    h.update(std::slice::from_ref(b));
                }
                assert_eq!(h.finalize(), d1, "len {len}");
            }
        }
    }

    #[test]
    fn padding_edges_match_known_digests() {
        // SHA-256 over the digests of messages whose lengths straddle
        // the one- and two-block padding edges; the expected value is
        // from Python's `hashlib`.
        let mut all = Sha256::new();
        for len in [0usize, 55, 56, 63, 64, 65, 119, 120] {
            let data: Vec<u8> = (0..len).map(|i| (i * 131 + 7) as u8).collect();
            all.update(&digest_both(&data));
        }
        assert_eq!(
            hex(&all.finalize()),
            "17136e7014c31dca254f431593913c7b3858b2c50737c22d61f99969dc111e05"
        );
    }
}
