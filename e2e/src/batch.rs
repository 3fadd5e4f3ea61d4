//! The three closed-loop batch workloads over `protocols::batch`.
//!
//! One caller, `workers = 1`: the next batch is sent only after the
//! previous one returns. Latency is the wall time of one batch call.
//! Inputs are drawn from the seed per batch index, so any batch can be
//! regenerated without replaying the ones before it.

use crate::harness::{self, RunOpts, SetupRun, Timed};
use crate::metrics::Outcome;
use crate::trace::{SpanId, Tracer};
use gf2m::Fe;
use koblitz::cache::{self, CacheStats};
use koblitz::{mul, tnaf, Affine, Int, LdPoint, Scalar};
use prng::SplitMix64;
use protocols::batch::{ecdh_batch, sign_batch, verify_batch, VerifyJob};
use protocols::ecdh::EcdhError;
use protocols::ecdsa::{self, Signature, SigningKey, VerifyError};
use protocols::wire::encode_signature;
use protocols::{Keypair, Sha256};
use std::time::Instant;

const DOMAIN_INPUTS: u64 = 0xe2e_0100;
const DOMAIN_CHECK: u64 = 0xe2e_0101;
const DOMAIN_POOL: u64 = 0xe2e_0102;

/// The per-batch context a shadow decomposition runs under.
pub struct ShadowCtx {
    /// The real batch call's span.
    pub parent: SpanId,
    /// Share of the real batch's wTNAF table lookups that missed.
    pub miss_ratio: f64,
}

/// A closed-loop batch workload.
pub trait BatchLoad: Sized {
    const NAME: &'static str;
    /// Operations per batch call.
    const BATCH: usize;
    /// Latency tail percentile: the highest of p99/p95/p90/p75 whose
    /// run-to-run spread on the reference host stays under half the
    /// bound, with ten samples beyond it in a 15 s run.
    const TAIL: u32;
    /// Batches run before measuring: cache warm-up and the digest.
    const PREFIX: u64;
    /// Shadow spans that run after the batch's parallel phase.
    const SERIAL: &'static [&'static str];
    type Input;
    type Output;

    fn setup(seed: u64) -> Self;
    fn inputs(&self, index: u64) -> Self::Input;
    fn call(&self, input: &Self::Input, workers: usize) -> Self::Output;
    /// Checks one batch's outputs (feeding them to `digest` when given)
    /// and returns the number of failed checks.
    fn check(
        &self,
        index: u64,
        input: &Self::Input,
        out: &Self::Output,
        digest: Option<&mut Sha256>,
    ) -> u64;
    /// Re-runs the public layer calls of every operation of the batch
    /// as shadow spans and returns how many disagree with `out`.
    fn shadow(
        &self,
        input: &Self::Input,
        out: &Self::Output,
        ctx: &ShadowCtx,
        tr: &mut Tracer,
    ) -> u64;
}

/// The seed's pick of the one operation per batch that gets the costly
/// scalar-path check.
fn checked_op(seed: u64, index: u64, batch: usize) -> usize {
    SplitMix64::substream(seed, DOMAIN_CHECK, index).below(batch as u64) as usize
}

/// e = SHA-256(msg) mod n, as ECDSA hashes a message.
fn hash_to_scalar(msg: &[u8]) -> Scalar {
    Scalar::new(Int::from_be_bytes(&Sha256::digest(msg)))
}

/// x(P) mod n for a finite point.
fn x_mod_n(p: &Affine) -> Option<Scalar> {
    match p {
        Affine::Infinity => None,
        Affine::Point { x, .. } => Some(Scalar::new(Int::from_be_bytes(&x.to_be_bytes()))),
    }
}

/// Times `batch_to_affine` over the batch's points, with the batch
/// inversion inside it as a nested span.
fn shadow_batch_to_affine(points: &[LdPoint], parent: SpanId, tr: &mut Tracer) -> Vec<Affine> {
    let (affine, id) = tr.span("koblitz.batch_to_affine", Some(parent), 0, || {
        koblitz::batch_to_affine(points)
    });
    let zs: Vec<Fe> = points.iter().map(|p| p.z).collect();
    tr.span("gf2m.batch_invert", Some(id), 0, || {
        gf2m::batch::batch_inverted(&zs)
    });
    affine
}

fn cache_delta(before: CacheStats, after: CacheStats) -> (u64, u64, u64) {
    (
        after.hits - before.hits,
        after.misses - before.misses,
        after.evictions - before.evictions,
    )
}

/// Runs one batch workload: repeated set-up with the warm-up prefix,
/// then the measured closed loop (traced or not).
pub fn run<W: BatchLoad>(opts: &RunOpts) -> (Outcome, Option<Tracer>) {
    let mut out = Outcome::default();
    let w = harness::repeated_setup(opts.setup_reps, &mut out, || {
        // Each repetition starts from an empty wTNAF table cache.
        cache::reset();
        let w = W::setup(opts.seed);
        let mut digest = Sha256::new();
        let mut failed = 0;
        for i in 0..W::PREFIX {
            let input = w.inputs(i);
            let o = w.call(&input, 1);
            failed += w.check(i, &input, &o, Some(&mut digest));
        }
        SetupRun {
            state: w,
            digest,
            attempted: W::PREFIX * W::BATCH as u64,
            failed,
        }
    });

    let mut tracer = Tracer::default();
    let mut index = W::PREFIX;
    let mut timed = Timed::default();
    let (mut hits, mut misses, mut evictions) = (0, 0, 0);
    // Per phase: (loop wall ns, probe + shadow + w2 ns, batches).
    let mut phase_cost = Vec::new();
    let (mut sampled_w1_ns, mut sampled_w2_ns) = (0.0, 0.0);
    for (traced, length) in opts.phases() {
        let start = Instant::now();
        let (mut side_ns, mut batches) = (0.0, 0u64);
        while start.elapsed() < length {
            let input = w.inputs(index);
            let probe = (!traced).then(|| timed.probe());
            let before = cache::stats();
            let t0 = Instant::now();
            let o = std::hint::black_box(w.call(&input, 1));
            let ns = t0.elapsed().as_nanos() as f64;
            let parent = traced.then(|| tracer.since("batch", None, index, t0));
            let (h, m, e) = cache_delta(before, cache::stats());
            hits += h;
            misses += m;
            evictions += e;
            if let Some((k, probe_ns)) = probe {
                timed.call(ns, k, W::BATCH as u64);
                side_ns += probe_ns;
            }
            out.attempted += W::BATCH as u64;
            out.failed += w.check(index, &input, &o, None);
            if let Some(parent) = parent.filter(|_| harness::sampled(opts.seed, index)) {
                let t1 = Instant::now();
                let ctx = ShadowCtx {
                    parent,
                    miss_ratio: m as f64 / (h + m).max(1) as f64,
                };
                out.failed += w.shadow(&input, &o, &ctx, &mut tracer);
                let t2 = Instant::now();
                std::hint::black_box(w.call(&input, 2));
                sampled_w1_ns += ns;
                sampled_w2_ns += t2.elapsed().as_nanos() as f64;
                side_ns += t1.elapsed().as_nanos() as f64;
            }
            batches += 1;
            index += 1;
        }
        phase_cost.push((start.elapsed().as_nanos() as f64, side_ns, batches));
    }

    if !opts.trace {
        timed.report(W::TAIL, &mut out);
        return (out, None);
    }
    let v = &mut out.values;
    let sampled_batches = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "koblitz.batch_to_affine")
        .count()
        .max(1) as f64;
    let shadow_ops = sampled_batches * W::BATCH as f64;
    for (span, metric) in [
        ("protocols.derive_nonce", "protocols.derive_nonce_ns"),
        ("koblitz.mul_g", "koblitz.mul_g_ns"),
        ("koblitz.recode", "koblitz.recode_ns"),
        ("koblitz.scalar_invert", "koblitz.scalar_invert_ns"),
        ("koblitz.scalar_mul", "koblitz.scalar_mul_ns"),
        ("koblitz.double_mul", "koblitz.double_mul_ns"),
        ("koblitz.subgroup_check", "koblitz.subgroup_check_ns"),
        ("koblitz.kp", "koblitz.kp_ns"),
        ("koblitz.precompute", "koblitz.precompute_ns"),
    ] {
        v.set(metric, tracer.total_ns(span) / shadow_ops);
    }
    v.set(
        "koblitz.batch_to_affine_ns",
        tracer.total_ns("koblitz.batch_to_affine") / sampled_batches,
    );
    v.set(
        "gf2m.batch_invert_ns",
        tracer.total_ns("gf2m.batch_invert") / sampled_batches,
    );
    let attributed: f64 = tracer
        .spans()
        .iter()
        .filter(|s| {
            s.parent
                .is_some_and(|p| tracer.spans()[p as usize].name == "batch")
        })
        .map(|s| s.ns() * s.weight)
        .sum();
    let serial: f64 = W::SERIAL.iter().map(|s| tracer.total_ns(s)).sum();
    v.set("protocols.batch.serial_share", serial / attributed.max(1.0));
    v.set(
        "protocols.batch.w2_speedup",
        sampled_w1_ns / sampled_w2_ns.max(1.0),
    );
    v.set(
        "koblitz.cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    v.set("koblitz.cache.evictions", evictions as f64);
    v.set("trace.coverage", tracer.coverage("batch"));
    v.set("trace.overhead", harness::overhead(&phase_cost));
    (out, Some(tracer))
}

/// `sign_b16`: device signing, one key, fresh seeded messages.
pub struct SignB16 {
    seed: u64,
    key: SigningKey,
}

impl BatchLoad for SignB16 {
    const NAME: &'static str = "sign_b16";
    const BATCH: usize = 16;
    const TAIL: u32 = 90;
    const PREFIX: u64 = 4;
    // The mod-n finish runs after the batch inversion.
    const SERIAL: &'static [&'static str] = &[
        "koblitz.batch_to_affine",
        "koblitz.scalar_invert",
        "koblitz.scalar_mul",
    ];
    type Input = Vec<[u8; 32]>;
    type Output = Vec<Signature>;

    fn setup(seed: u64) -> Self {
        SignB16 {
            seed,
            key: SigningKey::generate(format!("e2e sign_b16 key {seed}").as_bytes()),
        }
    }

    fn inputs(&self, index: u64) -> Self::Input {
        let mut rng = SplitMix64::substream(self.seed, DOMAIN_INPUTS, index);
        (0..Self::BATCH)
            .map(|_| {
                let mut m = [0u8; 32];
                rng.fill_bytes(&mut m);
                m
            })
            .collect()
    }

    fn call(&self, msgs: &Self::Input, workers: usize) -> Self::Output {
        sign_batch(&self.key, msgs, workers)
    }

    fn check(
        &self,
        index: u64,
        msgs: &Self::Input,
        sigs: &Self::Output,
        mut digest: Option<&mut Sha256>,
    ) -> u64 {
        if sigs.len() != msgs.len() {
            return msgs.len() as u64;
        }
        let mut failed = 0;
        for sig in sigs {
            if sig.r.is_zero() || sig.s.is_zero() {
                failed += 1;
            }
            if let Some(d) = digest.as_deref_mut() {
                d.update(&encode_signature(sig));
            }
        }
        let j = checked_op(self.seed, index, Self::BATCH);
        if ecdsa::verify(self.key.public(), &msgs[j], &sigs[j]).is_err()
            || self.key.sign(&msgs[j]) != sigs[j]
        {
            failed += 1;
        }
        failed
    }

    fn shadow(
        &self,
        msgs: &Self::Input,
        sigs: &Self::Output,
        ctx: &ShadowCtx,
        tr: &mut Tracer,
    ) -> u64 {
        let parent = Some(ctx.parent);
        let mut points = Vec::with_capacity(msgs.len());
        for (j, msg) in msgs.iter().enumerate() {
            let req = j as u64;
            let (k, _) = tr.span("protocols.derive_nonce", parent, req, || {
                self.key.derive_nonce(msg, 0)
            });
            let ki = k.to_int();
            let (point, mg) = tr.span("koblitz.mul_g", parent, req, || mul::mul_g_proj(&ki));
            tr.span("koblitz.recode", Some(mg), req, || {
                tnaf::recode(&ki, mul::KG_WINDOW)
            });
            let (k_inv, _) = tr.span("koblitz.scalar_invert", parent, req, || k.invert());
            let k_inv = k_inv.expect("a signing nonce is non-zero");
            // The finish multiplies twice (r·d, then k⁻¹·(e + r·d)); d
            // is private, so the shadow times the same two products on
            // the operation's public values.
            let e = hash_to_scalar(msg);
            let r = &sigs[j].r;
            tr.span("koblitz.scalar_mul", parent, req, || {
                k_inv.mul(&e.add(&r.mul(&e)))
            });
            points.push(point);
        }
        let affine = shadow_batch_to_affine(&points, ctx.parent, tr);
        affine
            .iter()
            .zip(sigs)
            .filter(|(p, sig)| x_mod_n(p).as_ref() != Some(&sig.r))
            .count() as u64
    }
}

/// One entry of the verification pool.
struct PoolEntry {
    signer: usize,
    msg: Vec<u8>,
    sig: Signature,
    honest: bool,
}

/// `verify_recurring_b128`: the WSN gateway — a few recurring signers,
/// a seeded pool of (message, signature) pairs, 5 % forged.
pub struct VerifyRecurring {
    seed: u64,
    publics: Vec<Affine>,
    pool: Vec<PoolEntry>,
}

impl VerifyRecurring {
    const SIGNERS: usize = 8;
    const MSGS_PER_SIGNER: usize = 32;
}

impl BatchLoad for VerifyRecurring {
    const NAME: &'static str = "verify_recurring_b128";
    const BATCH: usize = 128;
    const TAIL: u32 = 75;
    const PREFIX: u64 = 2;
    const SERIAL: &'static [&'static str] = &["koblitz.batch_to_affine"];
    type Input = Vec<usize>;
    type Output = Vec<Result<(), VerifyError>>;

    fn setup(seed: u64) -> Self {
        let mut rng = SplitMix64::substream(seed, DOMAIN_POOL, 0);
        let mut publics = Vec::new();
        let mut pool = Vec::new();
        for signer in 0..Self::SIGNERS {
            let key = SigningKey::generate(format!("e2e verify signer {seed} {signer}").as_bytes());
            let msgs: Vec<Vec<u8>> = (0..Self::MSGS_PER_SIGNER)
                .map(|_| {
                    let mut m = vec![0u8; 32];
                    rng.fill_bytes(&mut m);
                    m
                })
                .collect();
            for (mut msg, sig) in msgs.iter().cloned().zip(sign_batch(&key, &msgs, 1)) {
                // A forgery: the signature of one message presented
                // with another.
                let honest = !rng.ratio(1, 20);
                if !honest {
                    msg[0] ^= 1;
                }
                pool.push(PoolEntry {
                    signer,
                    msg,
                    sig,
                    honest,
                });
            }
            publics.push(*key.public());
        }
        VerifyRecurring {
            seed,
            publics,
            pool,
        }
    }

    fn inputs(&self, index: u64) -> Self::Input {
        let mut rng = SplitMix64::substream(self.seed, DOMAIN_INPUTS, index);
        (0..Self::BATCH)
            .map(|_| rng.below(self.pool.len() as u64) as usize)
            .collect()
    }

    fn call(&self, picks: &Self::Input, workers: usize) -> Self::Output {
        let jobs: Vec<VerifyJob<'_>> = picks
            .iter()
            .map(|&i| {
                let e = &self.pool[i];
                VerifyJob {
                    public: &self.publics[e.signer],
                    msg: &e.msg,
                    sig: &e.sig,
                }
            })
            .collect();
        verify_batch(&jobs, workers)
    }

    fn check(
        &self,
        _index: u64,
        picks: &Self::Input,
        verdicts: &Self::Output,
        mut digest: Option<&mut Sha256>,
    ) -> u64 {
        if verdicts.len() != picks.len() {
            return picks.len() as u64;
        }
        let mut failed = 0;
        for (&i, verdict) in picks.iter().zip(verdicts) {
            let expected = if self.pool[i].honest {
                Ok(())
            } else {
                Err(VerifyError::BadSignature)
            };
            if *verdict != expected {
                failed += 1;
            }
            if let Some(d) = digest.as_deref_mut() {
                d.update(&[u8::from(verdict.is_ok())]);
            }
        }
        failed
    }

    fn shadow(
        &self,
        picks: &Self::Input,
        verdicts: &Self::Output,
        ctx: &ShadowCtx,
        tr: &mut Tracer,
    ) -> u64 {
        let parent = Some(ctx.parent);
        let mut points = Vec::with_capacity(picks.len());
        for (j, &i) in picks.iter().enumerate() {
            let req = j as u64;
            let entry = &self.pool[i];
            let e = hash_to_scalar(&entry.msg);
            let (s_inv, _) = tr.span("koblitz.scalar_invert", parent, req, || {
                entry.sig.s.invert()
            });
            let s_inv = s_inv.expect("pool signatures have s != 0");
            let ((u1, u2), _) = tr.span("koblitz.scalar_mul", parent, req, || {
                (e.mul(&s_inv), entry.sig.r.mul(&s_inv))
            });
            let (u1, u2) = (u1.to_int(), u2.to_int());
            let public = &self.publics[entry.signer];
            let (point, dm) = tr.span("koblitz.double_mul", parent, req, || {
                mul::double_multiply_proj(&u1, &u2, public)
            });
            tr.span("koblitz.recode", Some(dm), req, || {
                (
                    tnaf::recode(&u1, mul::KG_WINDOW),
                    tnaf::recode(&u2, mul::KP_WINDOW),
                )
            });
            points.push(point);
        }
        let affine = shadow_batch_to_affine(&points, ctx.parent, tr);
        affine
            .iter()
            .zip(picks)
            .zip(verdicts)
            .filter(|((p, &i), verdict)| {
                let ok = x_mod_n(p).as_ref() == Some(&self.pool[i].sig.r);
                ok != verdict.is_ok()
            })
            .count() as u64
    }
}

/// `ecdh_churn_b16`: key agreement against peers drawn uniformly from
/// a pool eight times the wTNAF table cache.
pub struct EcdhChurn {
    seed: u64,
    me: Keypair,
    peers: Vec<Keypair>,
}

impl EcdhChurn {
    const PEERS: usize = 256;
}

impl BatchLoad for EcdhChurn {
    const NAME: &'static str = "ecdh_churn_b16";
    const BATCH: usize = 16;
    const TAIL: u32 = 95;
    const PREFIX: u64 = 4;
    const SERIAL: &'static [&'static str] = &["koblitz.batch_to_affine"];
    type Input = Vec<usize>;
    type Output = Vec<Result<[u8; 32], EcdhError>>;

    fn setup(seed: u64) -> Self {
        EcdhChurn {
            seed,
            me: Keypair::generate(format!("e2e ecdh responder {seed}").as_bytes()),
            peers: (0..Self::PEERS)
                .map(|i| Keypair::generate(format!("e2e ecdh peer {seed} {i}").as_bytes()))
                .collect(),
        }
    }

    fn inputs(&self, index: u64) -> Self::Input {
        let mut rng = SplitMix64::substream(self.seed, DOMAIN_INPUTS, index);
        (0..Self::BATCH)
            .map(|_| rng.below(Self::PEERS as u64) as usize)
            .collect()
    }

    fn call(&self, picks: &Self::Input, workers: usize) -> Self::Output {
        let peers: Vec<Affine> = picks.iter().map(|&i| *self.peers[i].public()).collect();
        ecdh_batch(&self.me, &peers, workers)
    }

    fn check(
        &self,
        index: u64,
        picks: &Self::Input,
        secrets: &Self::Output,
        mut digest: Option<&mut Sha256>,
    ) -> u64 {
        if secrets.len() != picks.len() {
            return picks.len() as u64;
        }
        let mut failed = 0;
        for secret in secrets {
            match (secret, digest.as_deref_mut()) {
                (Ok(s), Some(d)) => d.update(s),
                (Ok(_), None) => {}
                (Err(_), _) => failed += 1,
            }
        }
        let j = checked_op(self.seed, index, Self::BATCH);
        if secrets[j] != self.me.shared_secret(self.peers[picks[j]].public()) {
            failed += 1;
        }
        failed
    }

    fn shadow(
        &self,
        picks: &Self::Input,
        secrets: &Self::Output,
        ctx: &ShadowCtx,
        tr: &mut Tracer,
    ) -> u64 {
        let parent = Some(ctx.parent);
        let d = self.me.secret().to_int();
        let mut points = Vec::with_capacity(picks.len());
        for (j, &i) in picks.iter().enumerate() {
            let req = j as u64;
            let peer = self.peers[i].public();
            tr.span("koblitz.subgroup_check", parent, req, || {
                peer.is_in_prime_order_subgroup()
            });
            // The real call pays the table build only on a cache miss.
            let (_, pre) = tr.span("koblitz.precompute", parent, req, || {
                mul::precompute_table(peer, mul::KP_WINDOW)
            });
            tr.set_weight(pre, ctx.miss_ratio);
            let (point, kp) = tr.span("koblitz.kp", parent, req, || {
                mul::mul_wtnaf_proj(peer, &d, mul::KP_WINDOW)
            });
            tr.span("koblitz.recode", Some(kp), req, || {
                tnaf::recode(&d, mul::KP_WINDOW)
            });
            points.push(point);
        }
        let affine = shadow_batch_to_affine(&points, ctx.parent, tr);
        // The KDF is crate-private: the shadow can only confirm each
        // agreement produced a finite point where the real one succeeded.
        affine
            .iter()
            .zip(secrets)
            .filter(|(p, s)| p.is_infinity() == s.is_ok())
            .count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shadow_decomposition_agrees_with_sign_batch_r_values() {
        let w = SignB16::setup(3);
        let msgs = w.inputs(0);
        let sigs = w.call(&msgs, 1);
        let mut tr = Tracer::default();
        let parent = tr.push("batch", None, 0, 0, 1);
        let ctx = ShadowCtx {
            parent,
            miss_ratio: 0.0,
        };
        assert_eq!(w.shadow(&msgs, &sigs, &ctx, &mut tr), 0);
        assert_eq!(
            tr.durations("koblitz.mul_g").len(),
            SignB16::BATCH,
            "one mul_g shadow per operation"
        );
        // A tampered r must be caught.
        let mut bad = sigs.clone();
        bad[5].r = bad[5].r.add(&Scalar::one());
        assert_eq!(w.shadow(&msgs, &bad, &ctx, &mut tr), 1);
    }

    #[test]
    fn shadow_decomposition_agrees_with_verify_batch_verdicts() {
        let w = VerifyRecurring::setup(3);
        assert!(w.pool.iter().any(|e| !e.honest), "the pool holds forgeries");
        let picks: Vec<usize> = (0..w.pool.len()).step_by(3).collect();
        let verdicts = w.call(&picks, 1);
        assert_eq!(w.check(0, &picks, &verdicts, None), 0);
        let mut tr = Tracer::default();
        let parent = tr.push("batch", None, 0, 0, 1);
        let ctx = ShadowCtx {
            parent,
            miss_ratio: 0.0,
        };
        assert_eq!(w.shadow(&picks, &verdicts, &ctx, &mut tr), 0);
        let flipped: Vec<_> = verdicts
            .iter()
            .map(|v| match v {
                Ok(()) => Err(VerifyError::BadSignature),
                Err(_) => Ok(()),
            })
            .collect();
        assert_eq!(
            w.shadow(&picks, &flipped, &ctx, &mut tr),
            picks.len() as u64
        );
    }

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let a = SignB16::setup(11);
        let b = SignB16::setup(11);
        let c = SignB16::setup(12);
        assert_eq!(a.inputs(4), b.inputs(4));
        assert_ne!(a.inputs(4), c.inputs(4));
        assert_ne!(a.inputs(4), a.inputs(5));
        assert_eq!(
            EcdhChurn::setup(11).inputs(2),
            EcdhChurn::setup(11).inputs(2)
        );
        assert_ne!(
            EcdhChurn::setup(11).inputs(2),
            EcdhChurn::setup(12).inputs(2)
        );
    }
}
