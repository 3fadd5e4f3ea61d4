//! `service_mixed`: the gas-metered service plane end to end.
//!
//! Open loop in virtual ticks, unpaced in host time: every tick the
//! generator submits a seeded mix of frames whose quoted cycles fill
//! `LOAD_PERMILLE` of the plane's per-tick budget, then the plane
//! ticks. The schedule depends only on the seed, never on the plane's
//! replies. Admission is priced in modeled cycles, so which frames are
//! admitted does not depend on the host either; that is why there is
//! no host-rate sweep. At this load every well-formed frame completes
//! in the tick it arrives, so nothing is refused for capacity.

use crate::harness::{self, RunOpts, SetupRun, Timed};
use crate::metrics::Outcome;
use crate::stats;
use crate::trace::Tracer;
use koblitz::cache;
use prng::SplitMix64;
use protocols::batch::sign_batch;
use protocols::ecdsa::{self, Signature};
use protocols::ecies::{self, Ciphertext};
use protocols::wire::decode_signature_slice;
use protocols::{Keypair, Sha256, SigningKey};
use service::cost::CostTable;
use service::frame::{
    decode_request, encode_request, FrameError, Op, OpRequest, Priority, Request, Response, Status,
};
use service::plane::{PlaneConfig, ServicePlane};
use std::collections::HashMap;
use std::time::Instant;

const DOMAIN_ARRIVALS: u64 = 0xe2e_0200;
const DOMAIN_POOL: u64 = 0xe2e_0201;
/// Arrivals per tick, in permille of the plane's cycle budget. The
/// generator never overshoots it, so the queue empties every tick.
const LOAD_PERMILLE: u64 = 800;
/// Frames put through the mutation operator, permille.
const ADVERSARIAL_PERMILLE: u64 = 150;
const CLIENTS: u64 = 24;
/// Recurring signers and ECDH/ECIES peers (the table cache holds all).
const KEYS: usize = 8;
const MSGS: usize = 8;
/// Ticks run before measuring: cache warm-up and the digest.
const PREFIX_TICKS: u64 = 16;
/// Latency tail percentile (see `BatchLoad::TAIL`): a 15 s run
/// completes several thousand requests.
const TAIL: u32 = 99;

/// What a frame asked for, kept to check its `Done` body.
#[derive(Debug, Clone, Copy)]
enum Work {
    Sign { msg: usize },
    Verify { valid: bool },
    Ecdh { peer: usize },
    Ecies { peer: usize, msg: usize },
}

#[derive(Debug, Clone, Copy)]
struct Meta {
    /// Global frame index (the trace request id).
    index: u64,
    work: Work,
    /// Put through the mutation operator: any typed outcome is fine.
    mutated: bool,
    /// Selected for the scalar-path check of its `Done` body.
    checked: bool,
}

struct Draw {
    bytes: Vec<u8>,
    client: u32,
    seq: u64,
    meta: Meta,
}

struct Pending {
    submitted: Instant,
    tick: u64,
    meta: Meta,
}

/// The seeded mutation operator: truncate, extend, flip bits or
/// substitute a byte (or leave the frame as it is).
fn mutate(frame: &[u8], rng: &mut SplitMix64) -> Vec<u8> {
    let mut buf = frame.to_vec();
    match rng.below(5) {
        0 => buf.truncate(rng.below(buf.len() as u64 + 1) as usize),
        1 => {
            for _ in 0..=rng.below(16) {
                buf.push(rng.next_u32() as u8);
            }
        }
        2 => {
            for _ in 0..=rng.below(4) {
                let i = rng.below(buf.len() as u64) as usize;
                buf[i] ^= 1 << rng.below(8);
            }
        }
        3 => {
            let i = rng.below(buf.len() as u64) as usize;
            buf[i] = rng.next_u32() as u8;
        }
        _ => {}
    }
    buf
}

/// The plane plus the generator's pools and per-client state.
struct Mixed {
    seed: u64,
    plane: ServicePlane,
    /// Quoted cycles of arrivals per tick.
    goal: u64,
    signers: Vec<SigningKey>,
    peers: Vec<Keypair>,
    msgs: Vec<Vec<u8>>,
    /// sigs[signer][msg]
    sigs: Vec<Vec<Signature>>,
    next_seq: Vec<u64>,
    frames: u64,
    pending: HashMap<(u32, u64), Pending>,
}

/// Accumulators one tick feeds.
#[derive(Default)]
struct TickLog {
    failed: u64,
    attempted: u64,
    /// Host ns inside `submit` and `tick`.
    busy_ns: f64,
    /// Host ns spent outside the plane: shadow calls and probes.
    shadow_ns: f64,
    done: u64,
    latency_ns: Vec<f64>,
    wait_ticks: Vec<f64>,
}

impl Mixed {
    fn new(seed: u64) -> (Mixed, f64) {
        let target = m0plus::target::default_target();
        let t0 = Instant::now();
        std::hint::black_box(CostTable::measure(target));
        let cost_table_ms = t0.elapsed().as_secs_f64() * 1e3;
        let mut cfg = PlaneConfig::for_target(target);
        cfg.workers = 1;
        cfg.key_seed = seed;
        let goal = LOAD_PERMILLE * cfg.capacity_cycles_per_tick / 1000;
        let plane = ServicePlane::new(cfg).expect("the default plane policy is valid");
        let mut rng = SplitMix64::substream(seed, DOMAIN_POOL, 0);
        let msgs: Vec<Vec<u8>> = (0..MSGS)
            .map(|_| {
                let mut m = vec![0u8; 24];
                rng.fill_bytes(&mut m);
                m
            })
            .collect();
        let signers: Vec<SigningKey> = (0..KEYS)
            .map(|i| SigningKey::generate(format!("e2e service signer {seed} {i}").as_bytes()))
            .collect();
        let sigs = signers.iter().map(|k| sign_batch(k, &msgs, 1)).collect();
        let peers = (0..KEYS)
            .map(|i| Keypair::generate(format!("e2e service peer {seed} {i}").as_bytes()))
            .collect();
        let mixed = Mixed {
            seed,
            plane,
            goal,
            signers,
            peers,
            msgs,
            sigs,
            next_seq: vec![0; CLIENTS as usize + 1],
            frames: 0,
            pending: HashMap::new(),
        };
        (mixed, cost_table_ms)
    }

    /// Tick `t`'s arrivals: a pure function of the seed, `t` and the
    /// frames drawn before.
    fn arrivals(&mut self, t: u64) -> Vec<Draw> {
        let mut rng = SplitMix64::substream(self.seed, DOMAIN_ARRIVALS, t);
        let mut issued = 0;
        let mut out = Vec::new();
        loop {
            let client = 1 + rng.below(CLIENTS) as u32;
            let op = match rng.below(100) {
                0..=29 => Op::Sign,
                30..=69 => Op::Verify,
                70..=89 => Op::Ecdh,
                _ => Op::Ecies,
            };
            let priority = match rng.below(100) {
                0..=24 => Priority::Low,
                25..=84 => Priority::Normal,
                _ => Priority::High,
            };
            let replay = rng.ratio(1, 50);
            let deadline = t + 2 + rng.below(6);
            let key = rng.below(KEYS as u64) as usize;
            let msg = rng.below(MSGS as u64) as usize;
            let forged = rng.ratio(1, 20);
            let mutated = rng.ratio(ADVERSARIAL_PERMILLE, 1000);
            let checked = rng.ratio(1, 16);
            let quote = self.plane.quote(op).cycles;
            if issued + quote > self.goal {
                return out;
            }
            issued += quote;
            // ~2 % resubmit the client's previous sequence number.
            let last = &mut self.next_seq[client as usize];
            let seq = if replay && *last > 0 {
                *last
            } else {
                *last += 1;
                *last
            };
            let (op, work) = match op {
                Op::Sign => (
                    OpRequest::Sign {
                        msg: self.msgs[msg].clone(),
                    },
                    Work::Sign { msg },
                ),
                Op::Verify => (
                    OpRequest::Verify {
                        public: *self.signers[key].public(),
                        sig: self.sigs[key][msg].clone(),
                        // A forgery: another pool message's signature.
                        msg: self.msgs[(msg + usize::from(forged)) % MSGS].clone(),
                    },
                    Work::Verify { valid: !forged },
                ),
                Op::Ecdh => (
                    OpRequest::Ecdh {
                        peer: *self.peers[key].public(),
                    },
                    Work::Ecdh { peer: key },
                ),
                Op::Ecies => (
                    OpRequest::Ecies {
                        recipient: *self.peers[key].public(),
                        msg: self.msgs[msg].clone(),
                    },
                    Work::Ecies { peer: key, msg },
                ),
            };
            let mut bytes = encode_request(&Request {
                client,
                seq,
                priority,
                deadline,
                op,
            });
            if mutated {
                bytes = mutate(&bytes, &mut rng);
            }
            out.push(Draw {
                bytes,
                client,
                seq,
                meta: Meta {
                    index: self.frames,
                    work,
                    mutated,
                    checked,
                },
            });
            self.frames += 1;
        }
    }

    /// Checks a well-formed frame's `Done` body: every verdict against
    /// its label, and the sampled bodies against the scalar path.
    fn body_ok(&self, meta: &Meta, body: &[u8]) -> bool {
        match meta.work {
            Work::Verify { valid } => body == [u8::from(valid)],
            _ if !meta.checked => true,
            Work::Sign { msg } => decode_signature_slice(body).is_ok_and(|sig| {
                ecdsa::verify(self.plane.signer_public(), &self.msgs[msg], &sig).is_ok()
            }),
            Work::Ecdh { peer } => self.peers[peer]
                .shared_secret(self.plane.ecdh_public())
                .is_ok_and(|s| body == s),
            Work::Ecies { peer, msg } => {
                body.len() > 31
                    && ecies::decrypt(
                        &self.peers[peer],
                        &Ciphertext {
                            ephemeral: body[..31].try_into().expect("31 bytes"),
                            sealed: body[31..].to_vec(),
                        },
                    )
                    .is_ok_and(|m| m == self.msgs[msg])
            }
        }
    }

    /// Settles one response; returns whether it is a failure.
    fn settle(&mut self, resp: &Response, meta: Meta, digest: &mut Option<&mut Sha256>) -> bool {
        if let Some(d) = digest.as_deref_mut() {
            d.update(&resp.client.to_be_bytes());
            d.update(&resp.seq.to_be_bytes());
            d.update(resp.status.name().as_bytes());
            if let Status::Done(body) = &resp.status {
                d.update(body);
            }
        }
        match &resp.status {
            Status::Done(body) => !meta.mutated && !self.body_ok(&meta, body),
            // A replayed sequence number is refused whoever sent it.
            Status::Rejected(FrameError::Replayed { .. }) => false,
            // Mutated frames may end in any typed outcome; well-formed
            // ones must complete.
            _ => !meta.mutated,
        }
    }

    /// Runs tick `t`: submit its arrivals, then tick the plane.
    fn step(
        &mut self,
        t: u64,
        log: &mut TickLog,
        mut digest: Option<&mut Sha256>,
        mut tracer: Option<&mut Tracer>,
    ) {
        debug_assert_eq!(self.plane.now(), t);
        for draw in self.arrivals(t) {
            log.attempted += 1;
            let t0 = Instant::now();
            let resp = std::hint::black_box(self.plane.submit(&draw.bytes));
            log.busy_ns += t0.elapsed().as_nanos() as f64;
            if let Some(tr) = tracer.as_deref_mut() {
                let id = tr.since("service.submit", None, draw.meta.index, t0);
                if harness::sampled(self.seed, draw.meta.index) {
                    let t1 = Instant::now();
                    shadow_decode(&draw.bytes, id, draw.meta.index, tr);
                    log.shadow_ns += t1.elapsed().as_nanos() as f64;
                }
            }
            match resp {
                Some(r) => log.failed += u64::from(self.settle(&r, draw.meta, &mut digest)),
                None => {
                    // Admitted. A mutated frame may have decoded to
                    // another identity; the response will carry it.
                    let id = if draw.meta.mutated {
                        let req = decode_request(&draw.bytes).expect("admitted frames decode");
                        (req.client, req.seq)
                    } else {
                        (draw.client, draw.seq)
                    };
                    self.pending.insert(
                        id,
                        Pending {
                            submitted: t0,
                            tick: t,
                            meta: draw.meta,
                        },
                    );
                }
            }
        }
        self.tick(t, log, digest, tracer);
    }

    /// Ticks the plane once and settles what it answers.
    fn tick(
        &mut self,
        t: u64,
        log: &mut TickLog,
        mut digest: Option<&mut Sha256>,
        tracer: Option<&mut Tracer>,
    ) {
        let t0 = Instant::now();
        let resps = std::hint::black_box(self.plane.tick());
        let end = Instant::now();
        log.busy_ns += end.duration_since(t0).as_nanos() as f64;
        if let Some(tr) = tracer {
            tr.since("service.tick", None, t, t0);
        }
        for r in &resps {
            let Some(p) = self.pending.remove(&(r.client, r.seq)) else {
                eprintln!("response for unknown request ({}, {})", r.client, r.seq);
                log.failed += 1;
                continue;
            };
            log.failed += u64::from(self.settle(r, p.meta, &mut digest));
            if matches!(r.status, Status::Done(_)) {
                log.done += 1;
                log.latency_ns
                    .push(end.duration_since(p.submitted).as_nanos() as f64);
                log.wait_ticks.push((t - p.tick) as f64);
            }
        }
        if !self.plane.accounted() {
            eprintln!("service accounting identity violated at tick {t}");
            log.failed += 1;
        }
    }
}

/// Shadow: decode the frame again, timing the subgroup checks of its
/// points as the nested part of decoding.
fn shadow_decode(bytes: &[u8], submit: u32, req: u64, tr: &mut Tracer) {
    let (decoded, id) = tr.span("service.decode", Some(submit), req, || {
        decode_request(bytes)
    });
    let point = match decoded.map(|r| r.op) {
        Ok(OpRequest::Verify { public, .. }) => Some(public),
        Ok(OpRequest::Ecdh { peer }) => Some(peer),
        Ok(OpRequest::Ecies { recipient, .. }) => Some(recipient),
        _ => None,
    };
    if let Some(p) = point {
        tr.span("koblitz.subgroup_check", Some(id), req, || {
            p.is_in_prime_order_subgroup()
        });
    }
}

pub fn run(opts: &RunOpts) -> (Outcome, Option<Tracer>) {
    let mut out = Outcome::default();
    let mut cost_ms = Vec::new();
    let mut m = harness::repeated_setup(opts.setup_reps, &mut out, || {
        cache::reset();
        let (mut m, ms) = Mixed::new(opts.seed);
        cost_ms.push(ms);
        let mut digest = Sha256::new();
        let mut log = TickLog::default();
        for t in 0..PREFIX_TICKS {
            m.step(t, &mut log, Some(&mut digest), None);
        }
        SetupRun {
            state: m,
            digest,
            attempted: log.attempted,
            failed: log.failed,
        }
    });

    let mut tracer = Tracer::default();
    let mut t = PREFIX_TICKS;
    let cache0 = cache::stats();
    let mut timed = Timed::default();
    let mut traced_log = TickLog::default();
    let mut phase_cost = Vec::new();
    for (traced, length) in opts.phases() {
        let start = Instant::now();
        let mut ticks = 0;
        let mut untraced_log = TickLog::default();
        let log = if traced {
            &mut traced_log
        } else {
            &mut untraced_log
        };
        while start.elapsed() < length {
            // One calibration probe per tick stands for the tick's
            // submits, its `tick` call and the requests it completes.
            let probe = (!traced).then(|| timed.probe());
            let (busy0, done0) = (log.busy_ns, log.done);
            m.step(t, log, None, traced.then_some(&mut tracer));
            if let Some((k, probe_ns)) = probe {
                timed.calls.push((log.busy_ns - busy0, k, log.done - done0));
                timed
                    .latency
                    .extend(log.latency_ns.drain(..).map(|ns| (ns, k)));
                log.shadow_ns += probe_ns;
            }
            t += 1;
            ticks += 1;
        }
        phase_cost.push((start.elapsed().as_nanos() as f64, log.shadow_ns, ticks));
        out.attempted += log.attempted;
        out.failed += log.failed;
    }
    // Arrivals stop; drain whatever is still queued.
    let mut drain = TickLog::default();
    while m.plane.pending() > 0 {
        m.tick(t, &mut drain, None, None);
        t += 1;
    }
    out.failed += drain.failed + m.pending.len() as u64;
    let c = m.plane.counters();
    if !c.accounted(0) {
        out.failed += 1;
    }
    out.note("service_ticks", t, "ticks");

    if !opts.trace {
        timed.report(TAIL, &mut out);
        return (out, None);
    }
    let v = &mut out.values;
    let decode = tracer.durations("service.decode");
    let sampled = decode.len().max(1) as f64;
    v.set("service.decode_ns", stats::mean(&decode));
    if !decode.is_empty() {
        v.set(
            "service.decode_ns_p95",
            stats::percentile(&stats::sorted(decode), 95.0),
        );
    }
    v.set(
        "koblitz.subgroup_check_ns",
        tracer.total_ns("koblitz.subgroup_check") / sampled,
    );
    v.set(
        "service.submit_ns",
        stats::mean(&tracer.durations("service.submit")),
    );
    let ticks = tracer.durations("service.tick");
    v.set("service.tick_ns", stats::mean(&ticks));
    v.set(
        "service.tick_ns_p95",
        stats::percentile(&stats::sorted(ticks), 95.0),
    );
    if !traced_log.wait_ticks.is_empty() {
        v.set(
            "service.queue_wait_ticks_p95",
            stats::percentile(&stats::sorted(traced_log.wait_ticks), 95.0),
        );
    }
    let submitted = c.submitted.max(1) as f64;
    v.set("service.admit_ratio", c.admitted as f64 / submitted);
    v.set("service.shed_ratio", c.shed as f64 / submitted);
    v.set(
        "service.decode_reject_ratio",
        c.decode_errors as f64 / submitted,
    );
    v.set("service.max_level", c.max_level as f64);
    v.set("service.cost_table_ms", stats::median(&cost_ms));
    let cache1 = cache::stats();
    let (hits, misses) = (cache1.hits - cache0.hits, cache1.misses - cache0.misses);
    v.set(
        "koblitz.cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    v.set(
        "koblitz.cache.evictions",
        (cache1.evictions - cache0.evictions) as f64,
    );
    v.set("trace.coverage", tracer.coverage("service.submit"));
    v.set("trace.overhead", harness::overhead(&phase_cost));
    (out, Some(tracer))
}
