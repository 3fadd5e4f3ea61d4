//! WSN application layer over the sect233k1 curve — the hybrid
//! cryptosystem the paper's introduction motivates.
//!
//! The paper positions its ECC implementation for wireless sensor
//! networks where *"PKC is used for key exchange, and symmetric
//! cryptography is used for the efficient encryption of data."* This
//! crate supplies that whole stack, from scratch:
//!
//! * [`sha256`] — FIPS 180-4 SHA-256 (KDF and message digests), on
//!   the x86-64 SHA extensions when the CPU has them and on a portable
//!   compression (the fallback and the oracle) otherwise;
//! * [`hmac`] — HMAC-SHA256 and an allocation-free deterministic
//!   HMAC-DRBG (keys and RFC 6979-style nonces);
//! * [`aes128`] — FIPS 197 AES-128 with counter mode (telemetry
//!   encryption);
//! * [`ecdh`] — key agreement over sect233k1 (kG for key generation,
//!   kP for the shared secret — exactly the two operations the paper
//!   measures);
//! * [`ecdsa`] — signatures over sect233k1 with deterministic nonces;
//! * [`ecies`] — public-key encryption (ephemeral ECDH + sealed frame),
//!   the base-station-to-node direction;
//! * [`batch`] — a multi-threaded batch scheduler (`sign_batch`,
//!   `verify_batch`, `ecdh_batch`) that shards work across threads and
//!   amortises the affine-conversion inversion over whole batches;
//! * [`wire`] — radio formats: compressed 31-byte public keys, 60-byte
//!   signatures, sealed (encrypt-then-MAC) telemetry frames.
//!
//! # Example
//!
//! ```
//! use protocols::ecdh::Keypair;
//!
//! let node_a = Keypair::generate(b"node a entropy");
//! let node_b = Keypair::generate(b"node b entropy");
//! let key_a = node_a.shared_secret(node_b.public())?;
//! let key_b = node_b.shared_secret(node_a.public())?;
//! assert_eq!(key_a, key_b);
//! # Ok::<(), protocols::ecdh::EcdhError>(())
//! ```

pub mod aes128;
pub mod batch;
pub mod ecdh;
pub mod ecdsa;
pub mod ecies;
pub mod hmac;
pub mod sha256;
pub mod wire;

pub use aes128::Aes128;
pub use ecdh::Keypair;
pub use ecdsa::{Signature, SigningKey};
pub use sha256::Sha256;
