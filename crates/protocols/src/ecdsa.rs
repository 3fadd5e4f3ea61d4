//! ECDSA over sect233k1 with deterministic (RFC 6979-style) nonces.

use crate::hmac::HmacDrbg;
use crate::sha256::Sha256;
use gf2m::Fe;
use koblitz::cache::key_comb_for;
use koblitz::curve::Affine;
use koblitz::{mul, LdPoint, Scalar};

/// An ECDSA signature (r, s), both non-zero scalars.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signature {
    /// r = x(k·G) mod n.
    pub r: Scalar,
    /// s = k⁻¹(e + r·d) mod n.
    pub s: Scalar,
}

/// A signing key (wraps the ECDH keypair material). Its `Debug`
/// output shows the public key only.
#[derive(Clone)]
pub struct SigningKey {
    d: Scalar,
    public: Affine,
    /// The per-key part of every nonce seed: `"ecdsa-nonce" ‖ hex(d)`.
    nonce_prefix: Box<[u8]>,
}

impl std::fmt::Debug for SigningKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SigningKey")
            .field("public", &self.public)
            .finish_non_exhaustive()
    }
}

/// Errors from signature verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyError {
    /// r or s out of range.
    MalformedSignature,
    /// The public key is not a point of order n: off the curve, the
    /// point at infinity, or outside the prime-order subgroup.
    InvalidPublicKey,
    /// The signature does not match the message.
    BadSignature,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::MalformedSignature => f.write_str("signature components out of range"),
            VerifyError::InvalidPublicKey => {
                f.write_str("public key is not a curve point of order n")
            }
            VerifyError::BadSignature => f.write_str("signature verification failed"),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Hash-to-scalar: e = SHA-256(msg) interpreted as an integer mod n.
pub(crate) fn hash_to_scalar(msg: &[u8]) -> Scalar {
    digest_to_scalar(&Sha256::digest(msg))
}

/// A message digest interpreted as an integer mod n.
pub(crate) fn digest_to_scalar(digest: &[u8; 32]) -> Scalar {
    Scalar::reduce_be_bytes(digest)
}

/// A field element's integer value mod n — how r = x(k·G) becomes a
/// scalar. The verifier compares x(u₁·G + u₂·Q) with r projectively
/// instead ([`x_matches`]).
pub(crate) fn x_to_scalar(x: &Fe) -> Scalar {
    Scalar::reduce_be_bytes(&x.to_be_bytes())
}

impl SigningKey {
    /// Derives a signing key from seed material.
    pub fn generate(seed: &[u8]) -> SigningKey {
        let mut drbg = HmacDrbg::new(seed);
        let mut wide = [0u8; 40];
        loop {
            drbg.generate(&mut wide);
            let d = Scalar::from_wide_bytes(&wide);
            if !d.is_zero() {
                let public = mul::mul_g(&d);
                let nonce_prefix = format!("ecdsa-nonce{d:x}").into_bytes();
                return SigningKey {
                    d,
                    public,
                    nonce_prefix: nonce_prefix.into_boxed_slice(),
                };
            }
        }
    }

    /// The verification (public) key.
    pub fn public(&self) -> &Affine {
        &self.public
    }

    /// The secret scalar, for the batch signer.
    pub(crate) fn d(&self) -> &Scalar {
        &self.d
    }

    /// Derives the deterministic signing nonce for `msg` (the nonce
    /// DRBG is keyed with the secret and the message digest, RFC 6979
    /// style). Exposed so the leakage verifier can drive the nonce →
    /// k·G path directly; `retry` selects the first, second, …
    /// candidate from the DRBG stream (signing uses retry 0 unless a
    /// candidate is rejected).
    pub fn derive_nonce(&self, msg: &[u8], retry: u32) -> Scalar {
        self.nonce_from_digest(&Sha256::digest(msg), retry)
    }

    /// [`SigningKey::derive_nonce`] for a message whose SHA-256 digest
    /// is already known: the nonce DRBG is seeded with
    /// `"ecdsa-nonce" ‖ hex(d) ‖ digest`.
    pub(crate) fn nonce_from_digest(&self, digest: &[u8; 32], retry: u32) -> Scalar {
        let mut drbg = HmacDrbg::from_parts(&[&self.nonce_prefix, digest]);
        let mut wide = [0u8; 40];
        for _ in 0..retry {
            drbg.generate(&mut wide);
        }
        drbg.generate_last(&mut wide);
        Scalar::from_wide_bytes(&wide)
    }

    /// Signs a message with a deterministic nonce (see
    /// [`SigningKey::derive_nonce`]).
    pub fn sign(&self, msg: &[u8]) -> Signature {
        // One digest serves both the nonce seed and e.
        let digest = Sha256::digest(msg);
        let e = digest_to_scalar(&digest);
        let mut retry = 0;
        loop {
            let k = self.nonce_from_digest(&digest, retry);
            retry += 1;
            if k.is_zero() {
                continue;
            }
            // R = k·G (fixed-point multiplication).
            let point = mul::mul_g(&k);
            let r = match point {
                Affine::Infinity => continue,
                Affine::Point { x, .. } => x_to_scalar(&x),
            };
            if r.is_zero() {
                continue;
            }
            let k_inv = k.invert().expect("k is non-zero");
            let s = k_inv.mul(&e.add(&r.mul(&self.d)));
            if s.is_zero() {
                continue;
            }
            return Signature { r, s };
        }
    }

    /// Signs, then verifies the fresh signature before releasing it —
    /// the standard countermeasure against fault attacks on the
    /// signing path (a glitched nonce or scalar multiplication would
    /// otherwise emit an invalid signature that can leak the key).
    ///
    /// # Errors
    ///
    /// Returns the verification failure when the self-check does not
    /// pass; the signature is withheld in that case.
    pub fn sign_checked(&self, msg: &[u8]) -> Result<Signature, VerifyError> {
        let sig = self.sign(msg);
        verify(&self.public, msg, &sig)?;
        Ok(sig)
    }
}

/// Verifies `sig` over `msg` for public key `q`.
///
/// # Errors
///
/// Returns the specific failure class (malformed, bad key, mismatch).
pub fn verify(q: &Affine, msg: &[u8], sig: &Signature) -> Result<(), VerifyError> {
    if sig.r.is_zero() || sig.s.is_zero() {
        return Err(VerifyError::MalformedSignature);
    }
    // s is public: the variable-time inverse.
    let s_inv = sig.s.invert_public().expect("s is non-zero");
    verify_with_s_inv(q, msg, &sig.r, &s_inv)
}

/// Verification after the range checks and s⁻¹, shared by
/// [`verify`] and the batch verifier: the key checks, then u₁·G + u₂·Q
/// by interleaved double multiplication (one shared Frobenius pass —
/// the Shamir–Strauss trick in τ-adic form), kept projective for
/// [`x_matches`]. The order check is the table cache's verdict: the
/// key's comb ([`key_comb_for`]) exists only in the prime-order
/// subgroup, where the τ-adic pass computes u₂·Q, and a key the cache
/// has not seen is checked once, on the miss.
pub(crate) fn verify_with_s_inv(
    q: &Affine,
    msg: &[u8],
    r: &Scalar,
    s_inv: &Scalar,
) -> Result<(), VerifyError> {
    if !q.is_on_curve() || q.is_infinity() {
        return Err(VerifyError::InvalidPublicKey);
    }
    let comb = key_comb_for(q).ok_or(VerifyError::InvalidPublicKey)?;
    let e = hash_to_scalar(msg);
    let u1 = e.mul(s_inv);
    let u2 = r.mul(s_inv);
    let point = mul::double_multiply_with_comb(&u1, &u2, &comb);
    if x_matches(&point, r) {
        Ok(())
    } else {
        Err(VerifyError::BadSignature)
    }
}

/// Whether `point` is finite and its affine x, read as an integer, is
/// ≡ r (mod n), with no field inversion. x < 2²³³ < 4n, so that holds
/// exactly when x equals one of r + j·n, j = 0..=3
/// ([`Scalar::lifts`]), and x = c exactly when c·Z = X: at most four
/// field products in place of an inversion and three. A lift of 2²³³
/// or more is skipped before it becomes a field element, since
/// masking its high bits would compare a different number.
pub(crate) fn x_matches(point: &LdPoint, r: &Scalar) -> bool {
    !point.is_infinity()
        && r.lifts().iter().any(|c| {
            let words = std::array::from_fn(|i| (c.0[i / 2] >> (32 * (i % 2))) as u32);
            // `try_from_words` refuses bits ≥ 233.
            Fe::try_from_words(words).is_ok_and(|c| c * point.z == point.x)
        })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use koblitz::Int;

    #[test]
    fn sign_verify_roundtrip() {
        let key = SigningKey::generate(b"node-7 identity");
        let msg = b"telemetry frame 0421";
        let sig = key.sign(msg);
        assert_eq!(verify(key.public(), msg, &sig), Ok(()));
    }

    #[test]
    fn signature_is_deterministic() {
        let key = SigningKey::generate(b"node-7 identity");
        assert_eq!(key.sign(b"m"), key.sign(b"m"));
        assert_ne!(key.sign(b"m"), key.sign(b"m'"));
    }

    #[test]
    fn tampered_message_fails() {
        let key = SigningKey::generate(b"signer");
        let sig = key.sign(b"original message");
        assert_eq!(
            verify(key.public(), b"tampered message", &sig),
            Err(VerifyError::BadSignature)
        );
    }

    #[test]
    fn wrong_key_fails() {
        let key = SigningKey::generate(b"signer");
        let other = SigningKey::generate(b"someone else");
        let sig = key.sign(b"message");
        assert_eq!(
            verify(other.public(), b"message", &sig),
            Err(VerifyError::BadSignature)
        );
    }

    #[test]
    fn malformed_signatures_rejected() {
        let key = SigningKey::generate(b"signer");
        let sig = key.sign(b"message");
        let zero_r = Signature {
            r: Scalar::zero(),
            s: sig.s,
        };
        assert_eq!(
            verify(key.public(), b"message", &zero_r),
            Err(VerifyError::MalformedSignature)
        );
        let zero_s = Signature {
            r: sig.r,
            s: Scalar::zero(),
        };
        assert_eq!(
            verify(key.public(), b"message", &zero_s),
            Err(VerifyError::MalformedSignature)
        );
    }

    #[test]
    fn swapped_components_fail() {
        let key = SigningKey::generate(b"signer");
        let sig = key.sign(b"message");
        let swapped = Signature { r: sig.s, s: sig.r };
        assert!(verify(key.public(), b"message", &swapped).is_err());
    }

    #[test]
    fn sign_checked_releases_only_verified_signatures() {
        let key = SigningKey::generate(b"node-7 identity");
        let msg = b"telemetry frame 0422";
        let sig = key.sign_checked(msg).expect("self-check passes");
        assert_eq!(sig, key.sign(msg), "the checked path signs identically");
        assert_eq!(verify(key.public(), msg, &sig), Ok(()));
    }

    #[test]
    fn debug_shows_the_public_key_only() {
        let key = SigningKey::generate(b"node-7 identity");
        let shown = format!("{key:?}");
        let d_hex = format!("{:x}", key.d);
        assert!(!shown.contains(&d_hex), "{shown}");
        assert!(!shown.contains(&d_hex.to_uppercase()), "{shown}");
        assert!(!shown.contains("ecdsa-nonce"), "{shown}");
        assert!(shown.contains(&format!("{:?}", key.public())), "{shown}");
    }

    /// `p` as an LD point with a seeded non-zero Z: (x·Z, y·Z², Z).
    fn rescaled(p: &Affine, rng: &mut prng::SplitMix64) -> LdPoint {
        let Affine::Point { x, y } = *p else {
            panic!("a finite point")
        };
        let z = loop {
            let mut bytes = [0u8; 30];
            rng.fill_bytes(&mut bytes);
            let z = Fe::from_be_bytes(&bytes);
            if !z.is_zero() {
                break z;
            }
        };
        LdPoint {
            x: x * z,
            y: y * z.square(),
            z,
        }
    }

    /// The projective x-check against `x_to_scalar(to_affine(P))` on
    /// seeded points rescaled by seeded Z, until every range of the
    /// affine x — [0, n), [n, 2n), [2n, 3n) and [3n, 2²³³) — has been
    /// seen eight times. r is accepted and r ± 1 rejected.
    #[test]
    fn projective_x_check_matches_the_affine_reduction() {
        let n = koblitz::order();
        let mut rng = prng::SplitMix64::new(0x78_636b);
        let mut seen = [0usize; 4];
        while seen.iter().any(|&c| c < 8) {
            let mut wide = [0u8; 40];
            rng.fill_bytes(&mut wide);
            let affine = mul::mul_g(&Scalar::from_wide_bytes(&wide));
            let p = rescaled(&affine, &mut rng);
            assert_eq!(p.to_affine(), affine);
            let x = affine.x();
            let range = (0..3)
                .find(|&j| Int::from_be_bytes(&x.to_be_bytes()) < &n * &Int::from(j + 1))
                .unwrap_or(3) as usize;
            seen[range] += 1;
            let r = x_to_scalar(&x);
            assert!(x_matches(&p, &r), "x = {x}, range {range}");
            for wrong in [r.add(&Scalar::one()), r.sub(&Scalar::one())] {
                assert!(!x_matches(&p, &wrong), "x = {x}, r = {wrong}");
            }
        }
    }

    /// A lift r + 3n ≥ 2²³³ must be skipped, not masked to 233 bits: for
    /// a point with a small x₀, r = x₀ + 2²³³ − 3n lies in [0, n) and
    /// its masked lift is x₀, yet x₀ ≢ r (mod n).
    #[test]
    fn projective_x_check_skips_lifts_above_the_field() {
        let n = koblitz::order();
        let mut rng = prng::SplitMix64::new(0x056b_6970);
        let (x0, point) = (2i64..)
            .find_map(|x0| {
                let mut bytes = [0u8; 31];
                bytes[0] = 0x02;
                bytes[23..].copy_from_slice(&x0.to_be_bytes());
                Some(x0).zip(Affine::from_compressed_bytes(&bytes).ok())
            })
            .expect("some small x is on the curve");
        let p = rescaled(&point, &mut rng);
        let r_int = &(&Int::from(x0) + &Int::one().shl(233)) - &(&n * &Int::from(3i64));
        assert!(r_int < n, "r is canonical");
        let r = Scalar::new(r_int);
        assert!(!x_matches(&p, &r), "x₀ = {x0} matched r = {r}");
        assert!(x_matches(&p, &Scalar::new(Int::from(x0))));
    }

    /// The point at infinity matches no r, even r = 0 on a
    /// representative with X = 0; through [`verify`] it is a
    /// `BadSignature`.
    #[test]
    fn projective_x_check_rejects_infinity() {
        let zero_x = LdPoint {
            x: Fe::ZERO,
            y: Fe::ONE,
            z: Fe::ZERO,
        };
        for r in [Scalar::zero(), Scalar::one()] {
            assert!(!x_matches(&LdPoint::INFINITY, &r));
            assert!(!x_matches(&zero_x, &r));
        }
        // With d = −e·r⁻¹, u₁·G + u₂·Q = s⁻¹(e + r·d)·G = O for every s.
        let msg = b"lands on infinity";
        let r = Scalar::new(Int::from(12345i64));
        let d = hash_to_scalar(msg).mul(&r.invert().unwrap()).negated();
        let q = mul::mul_g(&d);
        let sig = Signature {
            r,
            s: Scalar::new(Int::from(777i64)),
        };
        assert_eq!(verify(&q, msg, &sig), Err(VerifyError::BadSignature));
    }

    /// The coset shifts of the order-n subgroup: the 2-torsion point
    /// (0, 1) and the order-4 points ±(1, 1).
    pub(crate) fn torsion() -> [Affine; 3] {
        let q4 = Affine::new(Fe::ONE, Fe::ONE).unwrap();
        [Affine::new(Fe::ZERO, Fe::ONE).unwrap(), q4, q4.negated()]
    }

    /// Fifty seeded signers, each with its message and a valid signature.
    pub(crate) fn probe_signers() -> Vec<(SigningKey, Vec<u8>, Signature)> {
        (0..50)
            .map(|i| {
                let key = SigningKey::generate(format!("probe{i}").as_bytes());
                let msg = format!("m{i}").into_bytes();
                let sig = key.sign(&msg);
                (key, msg, sig)
            })
            .collect()
    }

    /// A valid signature under the signer's key shifted out of the
    /// subgroup. The τ-adic double multiply computes u₂·Q only in the
    /// subgroup, so running it on such a key once accepted some of these
    /// signatures; the key is refused instead.
    #[test]
    fn keys_outside_the_subgroup_are_refused() {
        let signers = probe_signers();
        for t in torsion() {
            let accepted = signers
                .iter()
                .filter(|(key, msg, sig)| {
                    let shifted = key.public().add(&t);
                    assert!(shifted.is_on_curve());
                    let got = verify(&shifted, msg, sig);
                    assert_ne!(got, Err(VerifyError::BadSignature), "shift {t}");
                    got.is_ok()
                })
                .count();
            assert_eq!(accepted, 0, "{accepted}/50 accepted under Q + {t}");
        }
        for (key, msg, sig) in &signers {
            assert_eq!(verify(key.public(), msg, sig), Ok(()));
        }
    }

    #[test]
    fn infinity_public_key_rejected() {
        let key = SigningKey::generate(b"signer");
        let sig = key.sign(b"message");
        assert_eq!(
            verify(&Affine::Infinity, b"message", &sig),
            Err(VerifyError::InvalidPublicKey)
        );
    }

    /// Messages of the nonce and signature known-answer tests: empty,
    /// short, and longer than one SHA-256 block.
    fn kat_messages() -> [Vec<u8>; 3] {
        [
            Vec::new(),
            b"telemetry frame 0421".to_vec(),
            vec![0x5a; 200],
        ]
    }

    #[test]
    fn derive_nonce_known_answers() {
        // Recorded from the portable SHA-256 / Vec-based HMAC-DRBG
        // implementation; any change to the nonce stream fails here.
        const WANT: [[&str; 3]; 3] = [
            [
                "0x69428768597b911c8552b96ecfac9655dc348bd8515dcdbe2958f064e6",
                "0x59a4b35b840b2deec94d9ca42836f6fd667a4a7976f6f502397e4aa6e",
                "0x7f65d1adb83a9aff5b6df3d1f88dfa1f6a9abf1fbe6b76e1785f3bafcc",
            ],
            [
                "0x4bba853dfee2daca5f9553bdf4760a45d3623b4ba3babebe1217dff892",
                "0x5b7d15ba0b32b7d278ce7768f3fa9e03888f397f5d2be66b41dd7ab453",
                "0x1a7ac9b91a6d02f845f2caadc3139303b1c79af5061b5bcd8f13568175",
            ],
            [
                "0x5dc1ed2eeb9e5cbc91aaaa49809d58cf6bdb19e74302182b630493adf9",
                "0x70f2b36260ada8bbf2c5d18cad218af8f6a65dd9b691e7c7f41b5d1df1",
                "0x12df8915ff80ce0af505dd0f17d2fc67e9dc785605a6e3e33db706f9fa",
            ],
        ];
        let key = SigningKey::generate(b"node-7 identity");
        for (msg, want) in kat_messages().iter().zip(WANT) {
            for (retry, want) in (0..).zip(want) {
                assert_eq!(
                    key.derive_nonce(msg, retry).to_string(),
                    want,
                    "message of {} bytes, retry {retry}",
                    msg.len()
                );
            }
        }
    }

    #[test]
    fn digest_to_scalar_known_answer() {
        // (2²⁵⁶ − 1) mod n.
        assert_eq!(
            digest_to_scalar(&[0xFF; 32]).to_string(),
            "0x7ffffffffffffffffffffff2c5489471e21037c69ec318337e3373abde"
        );
    }

    #[test]
    fn signature_known_answers() {
        const WANT: [(&str, &str); 3] = [
            (
                "0x4fd9ecb094156298ad329f8c6241a7587d6b5cc3cf5ccc3aa556165134",
                "0x3367ba3333bde00eaa81591429bf32e3e86e41b24d617ddec742c1e8fe",
            ),
            (
                "0x3d67c1155a15f71e0a071ecfbeba106ba96b9b1e3bbfd8bd8cef99848e",
                "0x177d42c1575cb3f0d319a4406cee03014e77e2d9d94dbbbb4fee591c77",
            ),
            (
                "0x18628ff99fef413f1d3a4d23b061c86287facd773886a00b3a5009894",
                "0x6427430d5970c2e636dc2e4637db382990cb56b9910eca3caeee77faef",
            ),
        ];
        let key = SigningKey::generate(b"node-7 identity");
        for (msg, (r, s)) in kat_messages().iter().zip(WANT) {
            let sig = key.sign(msg);
            assert_eq!(sig.r.to_string(), r, "r, message of {} bytes", msg.len());
            assert_eq!(sig.s.to_string(), s, "s, message of {} bytes", msg.len());
        }
    }
}
