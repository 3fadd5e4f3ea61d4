//! ECDSA over sect233k1 with deterministic (RFC 6979-style) nonces.

use crate::hmac::HmacDrbg;
use crate::sha256::Sha256;
use gf2m::Fe;
use koblitz::curve::Affine;
use koblitz::{mul, Int, Scalar};

/// An ECDSA signature (r, s), both non-zero scalars.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signature {
    /// r = x(k·G) mod n.
    pub r: Scalar,
    /// s = k⁻¹(e + r·d) mod n.
    pub s: Scalar,
}

/// A signing key (wraps the ECDH keypair material).
#[derive(Debug, Clone)]
pub struct SigningKey {
    d: Scalar,
    public: Affine,
}

/// Errors from signature verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyError {
    /// r or s out of range.
    MalformedSignature,
    /// The public key is invalid.
    InvalidPublicKey,
    /// The signature does not match the message.
    BadSignature,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::MalformedSignature => f.write_str("signature components out of range"),
            VerifyError::InvalidPublicKey => f.write_str("public key is not a valid curve point"),
            VerifyError::BadSignature => f.write_str("signature verification failed"),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Hash-to-scalar: e = SHA-256(msg) interpreted as an integer mod n.
pub(crate) fn hash_to_scalar(msg: &[u8]) -> Scalar {
    Scalar::new(Int::from_be_bytes(&Sha256::digest(msg)))
}

/// A field element's integer value mod n — how r = x(k·G) and the
/// verifier's x(u₁·G + u₂·Q) become scalars.
pub(crate) fn x_to_scalar(x: &Fe) -> Scalar {
    Scalar::new(Int::from_be_bytes(&x.to_be_bytes()))
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
                let public = mul::mul_g(&d.to_int());
                return SigningKey { d, public };
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
        let mut seed = Vec::new();
        seed.extend_from_slice(b"ecdsa-nonce");
        seed.extend_from_slice(self.d.to_int().to_hex().as_bytes());
        seed.extend_from_slice(&Sha256::digest(msg));
        let mut drbg = HmacDrbg::new(&seed);
        let mut wide = [0u8; 40];
        for _ in 0..=retry {
            drbg.generate(&mut wide);
        }
        Scalar::from_wide_bytes(&wide)
    }

    /// Signs a message with a deterministic nonce (see
    /// [`SigningKey::derive_nonce`]).
    pub fn sign(&self, msg: &[u8]) -> Signature {
        let e = hash_to_scalar(msg);
        let mut retry = 0;
        loop {
            let k = self.derive_nonce(msg, retry);
            retry += 1;
            if k.is_zero() {
                continue;
            }
            // R = k·G (fixed-point multiplication).
            let point = mul::mul_g(&k.to_int());
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
    if !q.is_on_curve() || q.is_infinity() {
        return Err(VerifyError::InvalidPublicKey);
    }
    let e = hash_to_scalar(msg);
    let s_inv = sig.s.invert().expect("s is non-zero");
    let u1 = e.mul(&s_inv);
    let u2 = sig.r.mul(&s_inv);
    // u1·G + u2·Q by interleaved double multiplication (one shared
    // Frobenius pass — the Shamir–Strauss trick in τ-adic form).
    let point = mul::double_multiply(&u1.to_int(), &u2.to_int(), q);
    match point {
        Affine::Infinity => Err(VerifyError::BadSignature),
        Affine::Point { x, .. } => {
            let v = x_to_scalar(&x);
            if v == sig.r {
                Ok(())
            } else {
                Err(VerifyError::BadSignature)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            s: sig.s.clone(),
        };
        assert_eq!(
            verify(key.public(), b"message", &zero_r),
            Err(VerifyError::MalformedSignature)
        );
        let zero_s = Signature {
            r: sig.r.clone(),
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
        let swapped = Signature {
            r: sig.s.clone(),
            s: sig.r.clone(),
        };
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
    fn infinity_public_key_rejected() {
        let key = SigningKey::generate(b"signer");
        let sig = key.sign(b"message");
        assert_eq!(
            verify(&Affine::Infinity, b"message", &sig),
            Err(VerifyError::InvalidPublicKey)
        );
    }
}
