//! Elliptic-curve Diffie-Hellman over sect233k1.
//!
//! The paper's motivating WSN use case: each node generates a key pair
//! (one *fixed-point* multiplication kG — the cheap 20.63 µJ operation),
//! exchanges public points, and computes the shared secret (one
//! *random-point* multiplication k·Q — the 34.16 µJ operation). The
//! derived secret feeds a KDF (SHA-256) to produce symmetric key
//! material.

use crate::hmac::HmacDrbg;
use crate::sha256::Sha256;
use koblitz::cache::comb_for;
use koblitz::curve::{Affine, NotOnCurveError};
use koblitz::{mul, LdPoint, Scalar};

/// A sect233k1 key pair. Its `Debug` output shows the public key
/// only.
#[derive(Clone)]
pub struct Keypair {
    secret: Scalar,
    public: Affine,
}

impl std::fmt::Debug for Keypair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Keypair")
            .field("public", &self.public)
            .finish_non_exhaustive()
    }
}

/// Errors from the ECDH operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EcdhError {
    /// The peer's public point failed validation.
    InvalidPublicKey,
    /// The peer's point is on the curve but outside the prime-order
    /// subgroup (a small-subgroup probe — cofactor 4 on sect233k1).
    WrongOrderPublicKey,
    /// The computed shared point was the identity (invalid peer key).
    DegenerateSharedSecret,
}

impl std::fmt::Display for EcdhError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EcdhError::InvalidPublicKey => f.write_str("peer public key is not on the curve"),
            EcdhError::WrongOrderPublicKey => {
                f.write_str("peer public key is outside the prime-order subgroup")
            }
            EcdhError::DegenerateSharedSecret => {
                f.write_str("shared secret degenerated to infinity")
            }
        }
    }
}

impl std::error::Error for EcdhError {}

impl From<NotOnCurveError> for EcdhError {
    fn from(_: NotOnCurveError) -> EcdhError {
        EcdhError::InvalidPublicKey
    }
}

impl Keypair {
    /// Generates a key pair from seed material (deterministic; a real
    /// node would mix in its entropy source). Uses the fixed-point
    /// multiplication kG.
    pub fn generate(seed: &[u8]) -> Keypair {
        let mut drbg = HmacDrbg::new(seed);
        let mut wide = [0u8; 40];
        loop {
            drbg.generate(&mut wide);
            let secret = Scalar::from_wide_bytes(&wide);
            if !secret.is_zero() {
                let public = mul::mul_g(&secret);
                return Keypair { secret, public };
            }
        }
    }

    /// The public point Q = d·G.
    pub fn public(&self) -> &Affine {
        &self.public
    }

    /// The secret scalar (exposed for tests and energy accounting).
    pub fn secret(&self) -> &Scalar {
        &self.secret
    }

    /// Computes the shared secret with a peer's public point: one
    /// random-point multiplication d·Q, then SHA-256 over the shared
    /// x-coordinate.
    ///
    /// # Errors
    ///
    /// Rejects peer points that are off-curve, outside the prime-order
    /// subgroup, or lead to the identity. The on-curve check runs
    /// first; the order check closes the small-subgroup hole (the
    /// τ-adic multiplication below computes d·Q only on the order-n
    /// subgroup). The order verdict is the table cache's: a peer it
    /// holds a comb for is in the subgroup, and a peer it has not seen
    /// is checked once, on the miss ([`comb_for`]).
    pub fn shared_secret(&self, peer: &Affine) -> Result<[u8; 32], EcdhError> {
        let shared = self.shared_point(peer)?.to_affine();
        if shared.is_infinity() {
            return Err(EcdhError::DegenerateSharedSecret);
        }
        Ok(kdf(&shared))
    }

    /// d·Q in LD coordinates after the peer checks of
    /// [`Keypair::shared_secret`], for it and the batch scheduler.
    pub(crate) fn shared_point(&self, peer: &Affine) -> Result<LdPoint, EcdhError> {
        if !peer.is_on_curve() || peer.is_infinity() {
            return Err(EcdhError::InvalidPublicKey);
        }
        let comb = comb_for(peer, mul::KP_WINDOW).ok_or(EcdhError::WrongOrderPublicKey)?;
        Ok(mul::mul_with_comb(&self.secret, &comb))
    }
}

/// The ECDH key-derivation step: SHA-256 over a domain tag and the
/// shared x-coordinate. `shared` must be finite.
pub(crate) fn kdf(shared: &Affine) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(b"ecdh-sect233k1");
    h.update(&shared.x().to_be_bytes());
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gf2m::Fe;

    #[test]
    fn both_sides_agree() {
        let alice = Keypair::generate(b"alice seed");
        let bob = Keypair::generate(b"bob seed");
        let s1 = alice.shared_secret(bob.public()).unwrap();
        let s2 = bob.shared_secret(alice.public()).unwrap();
        assert_eq!(s1, s2);
    }

    #[test]
    fn different_peers_give_different_secrets() {
        let alice = Keypair::generate(b"alice seed");
        let bob = Keypair::generate(b"bob seed");
        let carol = Keypair::generate(b"carol seed");
        let s_ab = alice.shared_secret(bob.public()).unwrap();
        let s_ac = alice.shared_secret(carol.public()).unwrap();
        assert_ne!(s_ab, s_ac);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = Keypair::generate(b"same");
        let b = Keypair::generate(b"same");
        assert_eq!(a.public(), b.public());
        let c = Keypair::generate(b"different");
        assert_ne!(a.public(), c.public());
    }

    #[test]
    fn public_key_is_on_curve() {
        let kp = Keypair::generate(b"check");
        assert!(kp.public().is_on_curve());
        assert!(!kp.public().is_infinity());
    }

    #[test]
    fn debug_shows_the_public_key_only() {
        let kp = Keypair::generate(b"check");
        let shown = format!("{kp:?}");
        let secret_hex = format!("{:x}", kp.secret());
        assert!(!shown.contains(&secret_hex), "{shown}");
        assert!(shown.contains(&format!("{:?}", kp.public())), "{shown}");
    }

    #[test]
    fn rejects_bad_peer_points() {
        let alice = Keypair::generate(b"alice");
        assert_eq!(
            alice.shared_secret(&Affine::Infinity),
            Err(EcdhError::InvalidPublicKey)
        );
        // An off-curve point constructed by corrupting a coordinate.
        let mut bad = *Keypair::generate(b"bob").public();
        if let Affine::Point { x, y } = &mut bad {
            *y += Fe::ONE;
            if Affine::new(*x, *y).is_ok() {
                // astronomically unlikely; skip rather than mis-assert
                return;
            }
        }
        assert_eq!(alice.shared_secret(&bad), Err(EcdhError::InvalidPublicKey));
    }

    #[test]
    fn rejects_small_subgroup_probes() {
        use koblitz::generator;
        let alice = Keypair::generate(b"alice");
        // The 2-torsion point (0, 1) and the order-4 point (1, 1) are
        // both on the curve — a naive on-curve check passes them.
        let t2 = Affine::new(Fe::ZERO, Fe::ONE).unwrap();
        assert_eq!(
            alice.shared_secret(&t2),
            Err(EcdhError::WrongOrderPublicKey)
        );
        let t4 = Affine::new(Fe::ONE, Fe::ONE).unwrap();
        assert_eq!(
            alice.shared_secret(&t4),
            Err(EcdhError::WrongOrderPublicKey)
        );
        // A composite-order probe: G + (0, 1) has order 2n.
        let composite = generator().add(&t2);
        assert!(composite.is_on_curve());
        assert_eq!(
            alice.shared_secret(&composite),
            Err(EcdhError::WrongOrderPublicKey)
        );
    }
}
