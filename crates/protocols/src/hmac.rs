//! HMAC-SHA256 (RFC 2104) and a deterministic bit generator built on it.
//!
//! The DRBG seeds ECDSA nonces and example keys deterministically — the
//! reproduction has no hardware entropy source, and deterministic nonces
//! (RFC 6979 style) are what a careful embedded implementation uses
//! anyway.
//!
//! Both run on [`Sha256`]'s compression tiers: the SHA-NI kernel
//! ([`crate::sha256::ShaNi`]) when the CPU has it, the portable
//! function otherwise, which is also the oracle (the RFC 4231 vectors
//! below run on both). A key is kept as its two midstates, the
//! SHA-256 states after the ipad and opad blocks, so every further MAC
//! under the same key skips those two compressions. The DRBG keys each
//! K once and MACs under it two to four times, and its all-zero initial
//! K is hashed once per process. Nothing on the path allocates.

use crate::sha256::Sha256;
use std::sync::OnceLock;

/// An HMAC-SHA256 key as its ipad and opad midstates.
#[derive(Clone)]
struct HmacKey {
    inner: Sha256,
    outer: Sha256,
}

impl HmacKey {
    /// Keys `fresh` (an empty hasher, which fixes the compression tier)
    /// with `key`; a key longer than the 64-byte block is hashed first.
    fn on(fresh: Sha256, key: &[u8]) -> HmacKey {
        let mut k = [0u8; 64];
        if key.len() > 64 {
            let mut h = fresh.clone();
            h.update(key);
            k[..32].copy_from_slice(&h.finalize());
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let pad = |byte: u8| {
            let mut h = fresh.clone();
            h.update(&k.map(|b| b ^ byte));
            h
        };
        HmacKey {
            inner: pad(0x36),
            outer: pad(0x5c),
        }
    }

    fn new(key: &[u8]) -> HmacKey {
        HmacKey::on(Sha256::new(), key)
    }

    /// The DRBG's initial K, 32 zero bytes, keyed once per process.
    fn zero() -> &'static HmacKey {
        static ZERO: OnceLock<HmacKey> = OnceLock::new();
        ZERO.get_or_init(|| HmacKey::new(&[0; 32]))
    }

    /// The MAC of whatever `absorb` feeds the inner hash.
    fn mac(&self, absorb: impl FnOnce(&mut Sha256)) -> [u8; 32] {
        let mut inner = self.inner.clone();
        absorb(&mut inner);
        let mut outer = self.outer.clone();
        outer.update(&inner.finalize());
        outer.finalize()
    }
}

/// Computes HMAC-SHA256 of `data` under `key`.
pub fn hmac_sha256(key: &[u8], data: &[u8]) -> [u8; 32] {
    HmacKey::new(key).mac(|h| h.update(data))
}

/// A minimal HMAC-DRBG (NIST SP 800-90A shape, no reseeding) for
/// deterministic keys and nonces. Its `Debug` output redacts K and V.
#[derive(Clone)]
pub struct HmacDrbg {
    k: HmacKey,
    v: [u8; 32],
}

impl std::fmt::Debug for HmacDrbg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HmacDrbg").finish_non_exhaustive()
    }
}

impl HmacDrbg {
    /// Instantiates from seed material.
    pub fn new(seed: &[u8]) -> HmacDrbg {
        HmacDrbg::from_parts(&[seed])
    }

    /// Instantiates from the concatenation of `seed`'s parts, without
    /// building it.
    pub(crate) fn from_parts(seed: &[&[u8]]) -> HmacDrbg {
        let mut drbg = HmacDrbg {
            k: HmacKey::zero().clone(),
            v: [1u8; 32],
        };
        drbg.update(Some(seed));
        drbg
    }

    /// The SP 800-90A update: one round without provided data, two
    /// with (even when it is empty).
    fn update(&mut self, provided: Option<&[&[u8]]>) {
        self.update_round(0x00, provided.unwrap_or_default());
        if let Some(p) = provided {
            self.update_round(0x01, p);
        }
    }

    /// K = HMAC(K, V ‖ `byte` ‖ provided), V = HMAC(K, V).
    fn update_round(&mut self, byte: u8, provided: &[&[u8]]) {
        let k = self.k.mac(|h| {
            h.update(&self.v);
            h.update(&[byte]);
            for part in provided {
                h.update(part);
            }
        });
        self.k = HmacKey::new(&k);
        self.v = self.k.mac(|h| h.update(&self.v));
    }

    /// Fills `out` with deterministic pseudo-random bytes.
    pub fn generate(&mut self, out: &mut [u8]) {
        self.fill(out);
        self.update(None);
    }

    /// Fills `out` like [`HmacDrbg::generate`] for a generator that is
    /// dropped afterwards: the closing update, which only feeds later
    /// output, is skipped.
    pub(crate) fn generate_last(mut self, out: &mut [u8]) {
        self.fill(out);
    }

    fn fill(&mut self, out: &mut [u8]) {
        for chunk in out.chunks_mut(32) {
            self.v = self.k.mac(|h| h.update(&self.v));
            chunk.copy_from_slice(&self.v[..chunk.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(b: &[u8]) -> String {
        b.iter().map(|x| format!("{x:02x}")).collect()
    }

    /// `hmac_sha256`, checked against the same MAC on the portable
    /// compression tier.
    fn mac_both(key: &[u8], data: &[u8]) -> [u8; 32] {
        let mac = hmac_sha256(key, data);
        let portable = HmacKey::on(Sha256::portable(), key).mac(|h| h.update(data));
        assert_eq!(mac, portable, "portable tier");
        mac
    }

    #[test]
    fn rfc4231_test_case_1() {
        let key = [0x0bu8; 20];
        let mac = mac_both(&key, b"Hi There");
        assert_eq!(
            hex(&mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_test_case_2() {
        let mac = mac_both(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex(&mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_test_case_3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        let mac = mac_both(&key, &data);
        assert_eq!(
            hex(&mac),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_test_case_4() {
        let key: Vec<u8> = (1..=25).collect();
        let mac = mac_both(&key, &[0xcdu8; 50]);
        assert_eq!(
            hex(&mac),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"
        );
    }

    #[test]
    fn rfc4231_long_key() {
        // RFC 4231 test case 6.
        let mac = mac_both(
            &[0xaau8; 131],
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hex(&mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn rfc4231_test_case_7() {
        let mac = mac_both(
            &[0xaau8; 131],
            b"This is a test using a larger than block-size key and a larger \
              than block-size data. The key needs to be hashed before being \
              used by the HMAC algorithm.",
        );
        assert_eq!(
            hex(&mac),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
        );
    }

    #[test]
    fn keys_at_the_block_size_edge() {
        // A 64-byte key is used as is; a 65-byte key is hashed first.
        // Expected values from Python's `hmac` module.
        let key = |len: usize| -> Vec<u8> { (0..len).map(|i| (i * 7 + 3) as u8).collect() };
        assert_eq!(
            hex(&mac_both(&key(64), b"block-size edge")),
            "e00e737f92a3536fd65710d2b3497fcde92bef138bc3d375adcb3317518ce2c3"
        );
        assert_eq!(
            hex(&mac_both(&key(65), b"block-size edge")),
            "17da93e3cd019203f3049f5b99095426f5a23da8402fc90497eb84ce3e0df1d2"
        );
    }

    #[test]
    fn drbg_known_answers() {
        // K = 0³², V = 1³², update(seed), then generate 80 bytes twice;
        // expected values from an independent Python model of the same
        // construction.
        let mut drbg = HmacDrbg::new(b"seed material");
        let mut out = [0u8; 80];
        drbg.generate(&mut out);
        assert_eq!(
            hex(&out),
            "fb632bd2c8c3fe5600e62557c46c551147c8109f42230a0c32a09e18ce573b26\
             839c645d8a62c0801164f9e729528e141ca97c6a41887aa14ac6d01a1f2eec39\
             d0dfc91a9564cd4cbf364cf618927647"
        );
        drbg.generate(&mut out);
        assert_eq!(
            hex(&out),
            "c086347686fb5c3e6a307f093017aa4cd0efb1af8efdbc2866407933a08f0918\
             1e1f09f1d5c7f77c0cac2708eb806adbb0ebe5942993804d5551222ed4caa79b\
             87452b4a97371c4f6950ed045630bc77"
        );
    }

    #[test]
    fn generate_last_matches_generate() {
        let mut a = HmacDrbg::new(b"seed material");
        let b = a.clone();
        let mut want = [0u8; 40];
        a.generate(&mut want);
        let mut got = [0u8; 40];
        b.generate_last(&mut got);
        assert_eq!(got, want);
    }

    #[test]
    fn seed_parts_concatenate() {
        let mut a = HmacDrbg::new(b"seed material");
        let mut b = HmacDrbg::from_parts(&[b"seed ", b"", b"material"]);
        let (mut out_a, mut out_b) = ([0u8; 33], [0u8; 33]);
        a.generate(&mut out_a);
        b.generate(&mut out_b);
        assert_eq!(out_a, out_b);
    }

    #[test]
    fn debug_redacts_the_state() {
        let drbg = HmacDrbg::new(b"seed material");
        assert_eq!(format!("{drbg:?}"), "HmacDrbg { .. }");
    }

    #[test]
    fn drbg_is_deterministic_and_stream_like() {
        let mut a = HmacDrbg::new(b"seed material");
        let mut b = HmacDrbg::new(b"seed material");
        let mut buf_a = [0u8; 80];
        let mut buf_b = [0u8; 80];
        a.generate(&mut buf_a);
        b.generate(&mut buf_b);
        assert_eq!(buf_a, buf_b);
        // Subsequent output differs from the first.
        let mut buf_c = [0u8; 80];
        a.generate(&mut buf_c);
        assert_ne!(buf_a, buf_c);
        // Different seeds diverge.
        let mut d = HmacDrbg::new(b"other seed");
        let mut buf_d = [0u8; 80];
        d.generate(&mut buf_d);
        assert_ne!(buf_a, buf_d);
    }
}
