//! Multi-threaded batch protocol scheduler.
//!
//! The throughput path for a busy host (the ROADMAP's gateway serving
//! heavy traffic): shard a batch of independent protocol operations
//! across `std::thread` workers, keep every point multiplication in LD
//! projective coordinates, and pay for the expensive affine conversion
//! — one field inversion per point, the costliest kernel in the
//! paper's Table 7 — just **once per batch** via Montgomery's trick
//! ([`koblitz::projective::batch_to_affine`]).
//!
//! Three amortisations compose here:
//!
//! 1. *threads* — operations are independent, so they shard across
//!    workers (plain `std::thread::scope` + `mpsc`, no dependencies);
//! 2. *batch inversion* — N affine conversions cost 1 inversion +
//!    3(N−1) multiplications instead of N inversions;
//! 3. *table caching* — repeated operations against the same public
//!    key hit the process-wide wTNAF table cache ([`koblitz::cache`])
//!    instead of re-running `TNAF_Precomputation`;
//! 4. *bitslicing* — batches of at least [`gf2m::bitsliced::CROSSOVER`]
//!    points route the affine conversion through the 64-lane bitsliced
//!    field backend inside `batch_to_affine`. Nothing here changes for
//!    that: the pickup is transparent and the outputs are
//!    byte-identical either way (inverses are unique), which the tests
//!    below pin against the scalar operations at `CROSSOVER + 2`.
//!
//! The batch entry points are drop-in equivalent to their scalar
//! counterparts: same signatures, same shared secrets, same error
//! taxonomy, in input order.

use crate::ecdh::{self, EcdhError, Keypair};
use crate::ecdsa::{self, Signature, SigningKey, VerifyError};
use koblitz::projective::batch_to_affine;
use koblitz::{mul, Affine, LdPoint, Scalar};
use std::num::NonZeroUsize;
use std::sync::mpsc;

/// Worker-pool configuration for the batch entry points.
///
/// The explicit-`workers` functions ([`sign_batch`], [`verify_batch`],
/// [`ecdh_batch`]) stay as they are; the `_with` variants take this
/// config and size the pool from the host when no override is given.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchConfig {
    /// Worker-thread override; `None` sizes the pool from
    /// `std::thread::available_parallelism()`.
    pub workers: Option<usize>,
}

impl BatchConfig {
    /// The worker count this config resolves to on this host: the
    /// override if set, otherwise `available_parallelism()` (1 when
    /// the platform cannot report it).
    pub fn effective_workers(&self) -> usize {
        self.workers.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
        })
    }
}

/// [`sign_batch`] with the pool sized by a [`BatchConfig`].
pub fn sign_batch_with<M: AsRef<[u8]> + Sync>(
    key: &SigningKey,
    msgs: &[M],
    config: BatchConfig,
) -> Vec<Signature> {
    sign_batch(key, msgs, config.effective_workers())
}

/// [`verify_batch`] with the pool sized by a [`BatchConfig`].
pub fn verify_batch_with(
    jobs: &[VerifyJob<'_>],
    config: BatchConfig,
) -> Vec<Result<(), VerifyError>> {
    verify_batch(jobs, config.effective_workers())
}

/// [`ecdh_batch`] with the pool sized by a [`BatchConfig`].
pub fn ecdh_batch_with(
    kp: &Keypair,
    peers: &[Affine],
    config: BatchConfig,
) -> Vec<Result<[u8; 32], EcdhError>> {
    ecdh_batch(kp, peers, config.effective_workers())
}

/// Runs `f` over every item, sharded across `workers` OS threads
/// (worker w takes items w, w + workers, …). Results come back in
/// input order. `workers` ≤ 1 — or a batch of one — runs inline.
fn run_sharded<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let workers = workers.clamp(1, items.len());
    if workers == 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|s| {
        for w in 0..workers {
            let tx = tx.clone();
            let f = &f;
            s.spawn(move || {
                let mut i = w;
                while i < items.len() {
                    let r = f(i, &items[i]);
                    if tx.send((i, r)).is_err() {
                        return; // collector gone; nothing left to do
                    }
                    i += workers;
                }
            });
        }
        drop(tx);
        let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
        for (i, r) in rx {
            out[i] = Some(r);
        }
        out.into_iter()
            .map(|r| r.expect("every index is produced exactly once"))
            .collect()
    })
}

/// Outcome of the parallel phase of one batched signature.
enum SignStage {
    /// Nonce accepted on the first try: finish from the projective k·G.
    Fast { k: Scalar, point: LdPoint },
    /// A degenerate candidate (zero nonce — vanishingly rare): redo
    /// this message through the scalar retry loop.
    Retry,
}

/// Signs every message, sharded across `workers` threads, with the
/// affine conversions of all the k·G points batched into a single
/// field inversion.
///
/// Bit-identical to calling [`SigningKey::sign`] per message (same
/// deterministic RFC 6979-style nonces). The rare degenerate
/// candidates (zero nonce / r / s, probability ~2⁻²²⁵) fall back to
/// the scalar retry loop for that message alone.
pub fn sign_batch<M: AsRef<[u8]> + Sync>(
    key: &SigningKey,
    msgs: &[M],
    workers: usize,
) -> Vec<Signature> {
    // Parallel phase: nonce derivation + projective k·G (no inversion).
    let staged = run_sharded(msgs, workers, |_, msg| {
        let k = key.derive_nonce(msg.as_ref(), 0);
        if k.is_zero() {
            return SignStage::Retry;
        }
        let point = mul::mul_g_proj(&k.to_int());
        SignStage::Fast { k, point }
    });
    // Batch boundary: one inversion for every k·G in the batch.
    let points: Vec<LdPoint> = staged
        .iter()
        .map(|s| match s {
            SignStage::Fast { point, .. } => *point,
            SignStage::Retry => LdPoint::INFINITY,
        })
        .collect();
    let affine = batch_to_affine(&points);
    // Sequential finish: cheap scalar arithmetic mod n.
    staged
        .into_iter()
        .zip(affine)
        .zip(msgs)
        .map(|((stage, r_point), msg)| {
            let k = match stage {
                SignStage::Fast { k, .. } => k,
                SignStage::Retry => return key.sign(msg.as_ref()),
            };
            let r = match r_point {
                Affine::Infinity => return key.sign(msg.as_ref()),
                Affine::Point { x, .. } => ecdsa::x_to_scalar(&x),
            };
            if r.is_zero() {
                return key.sign(msg.as_ref());
            }
            let e = ecdsa::hash_to_scalar(msg.as_ref());
            let k_inv = k.invert().expect("k is non-zero");
            let s = k_inv.mul(&e.add(&r.mul(key.d())));
            if s.is_zero() {
                return key.sign(msg.as_ref());
            }
            Signature { r, s }
        })
        .collect()
}

/// One verification job: public key, message, signature.
#[derive(Debug, Clone, Copy)]
pub struct VerifyJob<'a> {
    /// The signer's public key.
    pub public: &'a Affine,
    /// The signed message.
    pub msg: &'a [u8],
    /// The signature to check.
    pub sig: &'a Signature,
}

/// Verifies every job, sharded across `workers` threads, with the
/// affine conversions of all the u₁·G + u₂·Q points batched into a
/// single field inversion.
///
/// Returns exactly what [`crate::ecdsa::verify`] would return for each
/// job, in input order. Verifications against a recurring public key
/// additionally hit the wTNAF table cache.
pub fn verify_batch(jobs: &[VerifyJob<'_>], workers: usize) -> Vec<Result<(), VerifyError>> {
    // Parallel phase: validation + the double multiplication, kept
    // projective. Err short-circuits before any point arithmetic.
    let staged: Vec<Result<(LdPoint, Scalar), VerifyError>> =
        run_sharded(jobs, workers, |_, job| {
            if job.sig.r.is_zero() || job.sig.s.is_zero() {
                return Err(VerifyError::MalformedSignature);
            }
            if !job.public.is_on_curve() || job.public.is_infinity() {
                return Err(VerifyError::InvalidPublicKey);
            }
            let e = ecdsa::hash_to_scalar(job.msg);
            let s_inv = job.sig.s.invert().expect("s is non-zero");
            let u1 = e.mul(&s_inv);
            let u2 = job.sig.r.mul(&s_inv);
            let point = mul::double_multiply_proj(&u1.to_int(), &u2.to_int(), job.public);
            Ok((point, job.sig.r.clone()))
        });
    // Batch boundary: one inversion across all surviving points (a
    // projective infinity converts to Affine::Infinity without
    // disturbing the batch).
    let points: Vec<LdPoint> = staged
        .iter()
        .map(|s| match s {
            Ok((p, _)) => *p,
            Err(_) => LdPoint::INFINITY,
        })
        .collect();
    let affine = batch_to_affine(&points);
    staged
        .into_iter()
        .zip(affine)
        .map(|(stage, point)| {
            let (_, r) = stage?;
            match point {
                Affine::Infinity => Err(VerifyError::BadSignature),
                Affine::Point { x, .. } => {
                    let v = ecdsa::x_to_scalar(&x);
                    if v == r {
                        Ok(())
                    } else {
                        Err(VerifyError::BadSignature)
                    }
                }
            }
        })
        .collect()
}

/// Computes the shared secret against every peer, sharded across
/// `workers` threads, with the affine conversions of all the d·Q
/// points batched into a single field inversion.
///
/// Returns exactly what [`Keypair::shared_secret`] would return for
/// each peer, in input order.
pub fn ecdh_batch(
    kp: &Keypair,
    peers: &[Affine],
    workers: usize,
) -> Vec<Result<[u8; 32], EcdhError>> {
    // Parallel phase: peer validation + projective d·Q.
    let staged: Vec<Result<LdPoint, EcdhError>> = run_sharded(peers, workers, |_, peer| {
        if !peer.is_on_curve() || peer.is_infinity() {
            return Err(EcdhError::InvalidPublicKey);
        }
        if !peer.is_in_prime_order_subgroup() {
            return Err(EcdhError::WrongOrderPublicKey);
        }
        Ok(mul::mul_wtnaf_proj(
            peer,
            &kp.secret().to_int(),
            mul::KP_WINDOW,
        ))
    });
    // Batch boundary + KDF.
    let points: Vec<LdPoint> = staged
        .iter()
        .map(|s| match s {
            Ok(p) => *p,
            Err(_) => LdPoint::INFINITY,
        })
        .collect();
    let affine = batch_to_affine(&points);
    staged
        .into_iter()
        .zip(affine)
        .map(|(stage, shared)| {
            stage?;
            match shared {
                Affine::Infinity => Err(EcdhError::DegenerateSharedSecret),
                finite => Ok(ecdh::kdf(&finite)),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ecdsa::verify;
    use gf2m::Fe;

    fn msgs(n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| format!("telemetry frame {i:04}").into_bytes())
            .collect()
    }

    #[test]
    fn sign_batch_matches_scalar_sign() {
        let key = SigningKey::generate(b"batch signer");
        let msgs = msgs(9);
        for workers in [1usize, 4] {
            let sigs = sign_batch(&key, &msgs, workers);
            assert_eq!(sigs.len(), msgs.len());
            for (m, sig) in msgs.iter().zip(&sigs) {
                assert_eq!(*sig, key.sign(m), "workers={workers}");
            }
        }
    }

    #[test]
    fn batches_on_the_bitsliced_path_match_scalar_operations() {
        // A batch wide enough to cross the bitsliced dispatch threshold
        // converts to affine in lane space; its signatures and ECDH
        // secrets must be byte-identical to the scalar operations.
        let n = gf2m::bitsliced::CROSSOVER + 2;
        let key = SigningKey::generate(b"bitsliced batch signer");
        let kp = Keypair::generate(b"bitsliced batch ecdh");
        let peers: Vec<Affine> = (0..n)
            .map(|i| *Keypair::generate(format!("bitsliced peer {i}").as_bytes()).public())
            .collect();
        let msgs = msgs(n);
        let sigs = sign_batch(&key, &msgs, 2);
        for (i, (m, sig)) in msgs.iter().zip(&sigs).enumerate() {
            assert_eq!(*sig, key.sign(m), "message {i}");
        }
        let secrets = ecdh_batch(&kp, &peers, 2);
        for (i, (peer, secret)) in peers.iter().zip(&secrets).enumerate() {
            assert_eq!(*secret, kp.shared_secret(peer), "peer {i}");
        }
    }

    #[test]
    fn empty_batches() {
        let key = SigningKey::generate(b"empty");
        assert!(sign_batch(&key, &Vec::<Vec<u8>>::new(), 4).is_empty());
        assert!(verify_batch(&[], 4).is_empty());
        let kp = Keypair::generate(b"empty kp");
        assert!(ecdh_batch(&kp, &[], 4).is_empty());
    }

    #[test]
    fn verify_batch_matches_scalar_verify() {
        // 8 jobs stay on the scalar affine conversion; CROSSOVER + 2
        // take the bitsliced one, the path gateway-sized batches use.
        for n in [8, gf2m::bitsliced::CROSSOVER + 2] {
            check_verify_batch(n);
        }
    }

    fn check_verify_batch(n: usize) {
        let keys: Vec<SigningKey> = (0..3)
            .map(|i| SigningKey::generate(format!("signer {i}").as_bytes()))
            .collect();
        let msgs = msgs(n);
        // Mix of valid signatures, a tampered message, a malformed
        // signature, and a bad public key.
        let mut sigs: Vec<Signature> = msgs
            .iter()
            .enumerate()
            .map(|(i, m)| keys[i % keys.len()].sign(m))
            .collect();
        sigs[5] = Signature {
            r: Scalar::zero(),
            s: sigs[5].s.clone(),
        };
        let infinity = Affine::Infinity;
        let jobs: Vec<VerifyJob> = msgs
            .iter()
            .enumerate()
            .map(|(i, m)| VerifyJob {
                public: if i == 6 {
                    &infinity
                } else {
                    keys[i % keys.len()].public()
                },
                msg: if i == 3 { b"tampered" } else { m },
                sig: &sigs[i],
            })
            .collect();
        for workers in [1usize, 3] {
            let got = verify_batch(&jobs, workers);
            for (i, job) in jobs.iter().enumerate() {
                assert_eq!(
                    got[i],
                    verify(job.public, job.msg, job.sig),
                    "n={n} workers={workers} job {i}"
                );
            }
            assert_eq!(got[0], Ok(()));
            assert_eq!(got[3], Err(VerifyError::BadSignature));
            assert_eq!(got[5], Err(VerifyError::MalformedSignature));
            assert_eq!(got[6], Err(VerifyError::InvalidPublicKey));
        }
    }

    #[test]
    fn ecdh_batch_matches_scalar_shared_secret() {
        let me = Keypair::generate(b"gateway");
        let mut peers: Vec<Affine> = (0..6)
            .map(|i| *Keypair::generate(format!("peer {i}").as_bytes()).public())
            .collect();
        peers.push(Affine::Infinity); // invalid
        peers.push(Affine::new(Fe::ZERO, Fe::ONE).unwrap()); // 2-torsion
        for workers in [1usize, 4] {
            let got = ecdh_batch(&me, &peers, workers);
            for (i, peer) in peers.iter().enumerate() {
                assert_eq!(got[i], me.shared_secret(peer), "workers={workers} peer {i}");
            }
        }
    }

    #[test]
    fn batch_config_sizes_the_pool_from_the_host_by_default() {
        assert!(BatchConfig::default().effective_workers() >= 1);
        assert_eq!(
            BatchConfig { workers: Some(3) }.effective_workers(),
            3,
            "an explicit override wins"
        );
        let key = SigningKey::generate(b"configured batch");
        let msgs = msgs(5);
        let sigs = sign_batch_with(&key, &msgs, BatchConfig::default());
        for (m, sig) in msgs.iter().zip(&sigs) {
            assert_eq!(*sig, key.sign(m));
        }
    }

    #[test]
    fn oversubscribed_worker_count_is_fine() {
        let key = SigningKey::generate(b"tiny batch");
        let msgs = msgs(2);
        let sigs = sign_batch(&key, &msgs, 64);
        for (m, sig) in msgs.iter().zip(&sigs) {
            assert_eq!(verify(key.public(), m, sig), Ok(()));
        }
    }
}
