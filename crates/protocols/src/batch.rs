//! Multi-threaded batch protocol scheduler.
//!
//! The throughput path for a busy host (the ROADMAP's gateway serving
//! heavy traffic): shard a batch of independent protocol operations
//! across `std::thread` workers and keep every point multiplication in
//! LD projective coordinates. Signing and ECDH pay for the expensive
//! affine conversion — one field inversion per point, the costliest
//! kernel in the paper's Table 7 — just **once per batch** via
//! Montgomery's trick ([`koblitz::projective::batch_to_affine`]).
//! Verification never converts to affine: it compares x(u₁·G + u₂·Q)
//! with r projectively ([`crate::ecdsa::verify`]), so each job finishes
//! inside its shard.
//!
//! Four amortisations compose here:
//!
//! 1. *threads* — operations are independent, so they shard across
//!    workers (plain `std::thread::scope`, no dependencies), the
//!    calling thread running one shard itself;
//! 2. *batch inversion* — N affine conversions cost 1 inversion +
//!    3(N−1) multiplications instead of N inversions;
//! 3. *table caching* — repeated operations against the same public
//!    key hit the process-wide wTNAF table cache ([`koblitz::cache`])
//!    instead of re-running `TNAF_Precomputation`, and a recurring
//!    verification key gets comb strips, like G's;
//! 4. *scalar batch inversion* — signing inverts every nonce k with
//!    one constant-time mod-n inversion per batch
//!    ([`Scalar::batch_invert`]), the same trick over ℤ/nℤ, and
//!    verification every s with one public one
//!    ([`Scalar::batch_invert_public`]).
//!
//! The batch entry points are drop-in equivalent to their scalar
//! counterparts: same signatures, same shared secrets, same error
//! taxonomy, in input order.

use crate::ecdh::{self, EcdhError, Keypair};
use crate::ecdsa::{self, Signature, SigningKey, VerifyError};
use crate::sha256::Sha256;
use koblitz::projective::batch_to_affine;
use koblitz::{mul, Affine, LdPoint, Scalar};

/// Worker count for callers that do not set one:
/// `std::thread::available_parallelism()`, or 1 when the platform
/// cannot report it.
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs `f` over every item, sharded across `workers` threads: the
/// items split into contiguous shards whose lengths differ by at most
/// one, the calling thread runs the first shard and `workers − 1`
/// scoped threads run the rest. Each shard writes its results into its
/// own disjoint slots of one pre-sized output, so results come back in
/// input order with no channel. `workers` ≤ 1 — or a batch of one —
/// runs inline.
///
/// # Panics
///
/// Propagates a panic from `f` on any thread.
pub fn run_sharded<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = workers.clamp(1, items.len().max(1));
    if workers == 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    let run = |start: usize, slots: &mut [Option<R>]| {
        for (i, slot) in (start..).zip(slots) {
            *slot = Some(f(i, &items[i]));
        }
    };
    let (base, extra) = (items.len() / workers, items.len() % workers);
    let shard_len = |w: usize| base + usize::from(w < extra);
    std::thread::scope(|s| {
        let (own, mut rest) = out.split_at_mut(shard_len(0));
        let mut start = own.len();
        for w in 1..workers {
            let (slots, tail) = std::mem::take(&mut rest).split_at_mut(shard_len(w));
            rest = tail;
            let run = &run;
            s.spawn(move || run(start, slots));
            start += shard_len(w);
        }
        run(0, own);
    });
    out.into_iter()
        .map(|r| r.expect("every index is produced exactly once"))
        .collect()
}

/// Outcome of the parallel phase of one batched signature.
enum SignStage {
    /// Nonce accepted on the first try: finish from the projective k·G
    /// and the message scalar e.
    Fast {
        k: Scalar,
        point: LdPoint,
        e: Scalar,
    },
    /// A degenerate candidate (zero nonce — vanishingly rare): redo
    /// this message through the scalar retry loop.
    Retry,
}

/// Signs every message, sharded across `workers` threads, with the
/// affine conversions of all the k·G points batched into a single
/// field inversion and the nonces into a single mod-n inversion.
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
    // Parallel phase: one message digest, nonce derivation and
    // projective k·G (no inversion).
    let staged = run_sharded(msgs, workers, |_, msg| {
        let digest = Sha256::digest(msg.as_ref());
        let k = key.nonce_from_digest(&digest, 0);
        if k.is_zero() {
            return SignStage::Retry;
        }
        let point = mul::mul_g_proj(&k);
        let e = ecdsa::digest_to_scalar(&digest);
        SignStage::Fast { k, point, e }
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
    // One mod-n inversion for every nonce in the batch.
    let nonces: Vec<Scalar> = staged
        .iter()
        .filter_map(|s| match s {
            SignStage::Fast { k, .. } => Some(*k),
            SignStage::Retry => None,
        })
        .collect();
    let mut k_invs = Scalar::batch_invert(&nonces).into_iter();
    // Sequential finish: scalar products mod n, no inversion.
    staged
        .into_iter()
        .zip(affine)
        .zip(msgs)
        .map(|((stage, r_point), msg)| {
            let SignStage::Fast { e, .. } = stage else {
                return key.sign(msg.as_ref());
            };
            let k_inv = k_invs.next().expect("one inverse per accepted nonce");
            let r = match r_point {
                Affine::Infinity => return key.sign(msg.as_ref()),
                Affine::Point { x, .. } => ecdsa::x_to_scalar(&x),
            };
            if r.is_zero() {
                return key.sign(msg.as_ref());
            }
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

/// Verifies every job, sharded across `workers` threads, with the s
/// values inverted by one public mod-n inversion per batch
/// ([`Scalar::batch_invert_public`]). Each job then finishes inside its
/// shard: u₁·G + u₂·Q stays projective and its x is compared with r
/// without a field inversion, as in [`crate::ecdsa::verify`].
///
/// Returns exactly what [`crate::ecdsa::verify`] would return for each
/// job, in input order. Every double multiply is one joint comb over 30
/// Frobenius maps, against the key's comb in the wTNAF table cache
/// ([`koblitz::cache::key_comb_for`]); a public key's second
/// verification promotes it there to a comb of its w = 5 table.
pub fn verify_batch(jobs: &[VerifyJob<'_>], workers: usize) -> Vec<Result<(), VerifyError>> {
    // Sequential pre-pass: the malformed-signature check, then one
    // mod-n inversion for the s of every well-formed signature.
    let well_formed = |job: &VerifyJob<'_>| !job.sig.r.is_zero() && !job.sig.s.is_zero();
    let s_values: Vec<Scalar> = jobs
        .iter()
        .filter(|job| well_formed(job))
        .map(|job| job.sig.s)
        .collect();
    let mut s_invs = Scalar::batch_invert_public(&s_values).into_iter();
    let s_inv: Vec<Option<Scalar>> = jobs
        .iter()
        .map(|job| well_formed(job).then(|| s_invs.next().expect("one inverse per well-formed s")))
        .collect();
    // Parallel phase: validation, the double multiplication and the
    // projective x-check.
    run_sharded(jobs, workers, |i, job| {
        let Some(s_inv) = &s_inv[i] else {
            return Err(VerifyError::MalformedSignature);
        };
        ecdsa::verify_with_s_inv(job.public, job.msg, &job.sig.r, s_inv)
    })
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
    let staged: Vec<Result<LdPoint, EcdhError>> =
        run_sharded(peers, workers, |_, peer| kp.shared_point(peer));
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
    fn run_sharded_matches_the_serial_map() {
        for len in [0usize, 1, 2, 16, 17] {
            let items: Vec<u64> = (0..len as u64).map(|i| i * 7 + 3).collect();
            let serial: Vec<(usize, u64)> =
                items.iter().enumerate().map(|(i, &x)| (i, x * x)).collect();
            for workers in 1..=5 {
                let got = run_sharded(&items, workers, |i, &x| (i, x * x));
                assert_eq!(got, serial, "workers = {workers}, len = {len}");
            }
        }
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
    fn wide_batches_match_scalar_operations() {
        // A gateway-sized batch converts to affine in one Montgomery
        // chain; its signatures and ECDH secrets must be byte-identical
        // to the scalar operations.
        let n = 130;
        let key = SigningKey::generate(b"wide batch signer");
        let kp = Keypair::generate(b"wide batch ecdh");
        let peers: Vec<Affine> = (0..n)
            .map(|i| *Keypair::generate(format!("wide peer {i}").as_bytes()).public())
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
        // A small batch and a gateway-sized one.
        for n in [8, 130] {
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
            s: sigs[5].s,
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

    /// One-job batches, the service plane's usual shape: each equals
    /// the scalar operation at one and three workers.
    #[test]
    fn one_job_batches_match_scalar_operations() {
        let key = SigningKey::generate(b"single-job signer");
        let msg = b"telemetry frame 7".to_vec();
        let sig = key.sign(&msg);
        let malformed = Signature {
            r: Scalar::zero(),
            s: sig.s,
        };
        let infinity = Affine::Infinity;
        let jobs = [
            (key.public(), &b"telemetry frame 7"[..], &sig, Ok(())),
            (
                key.public(),
                b"forged",
                &sig,
                Err(VerifyError::BadSignature),
            ),
            (
                key.public(),
                b"telemetry frame 7",
                &malformed,
                Err(VerifyError::MalformedSignature),
            ),
            (
                &infinity,
                b"telemetry frame 7",
                &sig,
                Err(VerifyError::InvalidPublicKey),
            ),
        ];
        for workers in [1usize, 3] {
            assert_eq!(
                sign_batch(&key, &[&msg], workers),
                std::slice::from_ref(&sig)
            );
            for (public, msg, sig, want) in &jobs {
                let job = VerifyJob { public, msg, sig };
                let got = verify_batch(&[job], workers);
                assert_eq!(got, [verify(public, msg, sig)], "workers = {workers}");
                assert_eq!(got, [*want], "workers = {workers}");
            }
        }
    }

    /// `verify_batch` refuses a signer's key shifted out of the subgroup,
    /// as `verify` does, for every one of the seeded signers.
    #[test]
    fn verify_batch_refuses_keys_outside_the_subgroup() {
        let signers = crate::ecdsa::tests::probe_signers();
        let shifted: Vec<(Affine, &[u8], &Signature)> = signers
            .iter()
            .flat_map(|(key, msg, sig)| {
                crate::ecdsa::tests::torsion().map(|t| (key.public().add(&t), &msg[..], sig))
            })
            .collect();
        let jobs: Vec<VerifyJob> = shifted
            .iter()
            .map(|(public, msg, sig)| VerifyJob { public, msg, sig })
            .collect();
        for workers in [1usize, 3] {
            let got = verify_batch(&jobs, workers);
            let accepted = got.iter().filter(|r| r.is_ok()).count();
            assert_eq!(accepted, 0, "{accepted}/{} accepted", jobs.len());
            assert!(got.iter().all(|r| *r == Err(VerifyError::InvalidPublicKey)));
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
    fn oversubscribed_worker_count_is_fine() {
        let key = SigningKey::generate(b"tiny batch");
        let msgs = msgs(2);
        let sigs = sign_batch(&key, &msgs, 64);
        for (m, sig) in msgs.iter().zip(&sigs) {
            assert_eq!(verify(key.public(), m, sig), Ok(()));
        }
    }
}
