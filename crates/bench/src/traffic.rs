//! Deterministic open-loop overload experiment for the service plane.
//!
//! A seeded SplitMix64 traffic generator drives [`service::ServicePlane`]
//! with a configurable arrival load expressed in permille of the
//! plane's per-tick cycle budget: 800‰ is a sustainable service mix,
//! 2000‰ is the 2× overload the CI smoke survives. The mix exercises
//! every admission path on purpose:
//!
//! * all four operations with a skew towards verify (the gateway mix);
//! * a recurring pool of keys, so the wTNAF table cache sees hits as
//!   well as churn;
//! * deliberately corrupted-but-well-formed signatures (the
//!   verify-false `Done([0])` path);
//! * deliberate replays of already-admitted sequence numbers;
//! * an adversarial fraction of frames put through the same seeded
//!   mutation operator the robustness suites use (truncate / extend /
//!   bit-flip / substitute).
//!
//! The report is deterministic in (seed, config, target): the CI gate
//! runs the experiment twice and byte-diffs the rendered report.

use m0plus::TargetSpec;
use prng::SplitMix64;
use protocols::{Keypair, SigningKey};
use service::cost::CostTable;
use service::frame::{encode_request, Op, OpRequest, Priority, Request, Response, Status};
use service::plane::{Counters, PlaneConfig, ServicePlane};
use std::collections::{BTreeMap, HashMap};

/// PRNG domain for per-tick arrival substreams.
const DOMAIN_ARRIVALS: u64 = 0x7ea_0001;
/// PRNG domain for the quote-error scalar samples.
const DOMAIN_SAMPLES: u64 = 0x7ea_0002;

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct TrafficConfig {
    /// Cost-model target the plane prices and executes under.
    pub target: &'static TargetSpec,
    /// Generator seed.
    pub seed: u64,
    /// Ticks of open-loop arrivals (the drain afterwards is extra).
    pub ticks: u64,
    /// Arrival load in permille of the plane's per-tick cycle budget.
    pub load_permille: u64,
    /// Fraction of frames run through the mutation operator, permille.
    pub adversarial_permille: u64,
    /// Distinct client identities generating traffic.
    pub clients: u32,
    /// Worker threads for the plane's batch drain (0 = host default;
    /// results are worker-invariant).
    pub workers: usize,
}

impl TrafficConfig {
    /// Bounded CI configuration: sustainable load, every path still
    /// exercised.
    pub fn smoke(target: &'static TargetSpec) -> TrafficConfig {
        TrafficConfig {
            target,
            seed: 0xdac1_4007,
            ticks: 30,
            load_permille: 800,
            adversarial_permille: 150,
            clients: 6,
            workers: 0,
        }
    }

    /// The CI overload configuration: 2× the plane's capacity with a
    /// quarter of the frames adversarial.
    pub fn overload(target: &'static TargetSpec) -> TrafficConfig {
        TrafficConfig {
            target,
            seed: 0xdac1_4008,
            ticks: 40,
            load_permille: 2000,
            adversarial_permille: 250,
            clients: 6,
            workers: 0,
        }
    }

    /// The full experiment EXPERIMENTS.md records.
    pub fn full(target: &'static TargetSpec) -> TrafficConfig {
        TrafficConfig {
            target,
            seed: 0xdac1_4007,
            ticks: 200,
            load_permille: 1200,
            adversarial_permille: 150,
            clients: 12,
            workers: 0,
        }
    }
}

/// One quote-vs-actual sample: the canonical flat price against a
/// fresh modeled run on a scalar drawn from the request stream.
#[derive(Debug, Clone, Copy)]
pub struct QuoteErrorSample {
    /// Which kernel ("kG" or "kP").
    pub kernel: &'static str,
    /// The canonical quoted cycles.
    pub quoted: u64,
    /// The measured cycles for this sample's scalar.
    pub actual: u64,
}

impl QuoteErrorSample {
    /// Absolute quote error in permille of the actual cost.
    pub fn err_permille(&self) -> u64 {
        self.quoted.abs_diff(self.actual) * 1000 / self.actual
    }
}

/// Everything the experiment measures, deterministic in the config.
#[derive(Debug, Clone)]
pub struct TrafficReport {
    /// The configuration that produced this report.
    pub config: TrafficConfig,
    /// The plane's cumulative counters after the full drain.
    pub counters: Counters,
    /// Response histogram by status name (immediate + tick responses).
    pub outcomes: BTreeMap<&'static str, u64>,
    /// Verify requests that completed with a false verdict (the
    /// corrupted-signature fraction surfacing as data, not errors).
    pub verify_false: u64,
    /// Extra ticks needed to drain the backlog after arrivals stopped.
    pub drain_ticks: u64,
    /// Median completion latency, in ticks, of admitted work.
    pub p50_latency_ticks: u64,
    /// 99th-percentile completion latency, in ticks.
    pub p99_latency_ticks: u64,
    /// Quote-vs-actual cycle samples (the digit-pattern variance the
    /// flat canonical quote trades for O(1) pricing).
    pub quote_errors: Vec<QuoteErrorSample>,
    /// Whether re-measuring the canonical cost table reproduced the
    /// quotes bit-identically (the gas-meter acceptance gate).
    pub quote_exact: bool,
    /// wTNAF table-cache counters over the run.
    pub cache: koblitz::cache::CacheStats,
}

/// The recurring key pool: a handful of identities the mix reuses so
/// the table cache sees recurring base points.
struct KeyPool {
    signers: Vec<SigningKey>,
    peers: Vec<Keypair>,
    msgs: Vec<Vec<u8>>,
    /// sigs[i][j] = signature of msgs[j] under signers[i].
    sigs: Vec<Vec<protocols::Signature>>,
}

impl KeyPool {
    fn new(size: usize) -> KeyPool {
        let signers: Vec<SigningKey> = (0..size)
            .map(|i| SigningKey::generate(format!("traffic pool signer {i}").as_bytes()))
            .collect();
        let peers = (0..size)
            .map(|i| Keypair::generate(format!("traffic pool peer {i}").as_bytes()))
            .collect();
        let msgs: Vec<Vec<u8>> = (0..4)
            .map(|j| format!("pool telemetry frame {j}").into_bytes())
            .collect();
        let sigs = signers
            .iter()
            .map(|s| msgs.iter().map(|m| s.sign(m)).collect())
            .collect();
        KeyPool {
            signers,
            peers,
            msgs,
            sigs,
        }
    }
}

/// The seeded mutation operator shared (by construction) with the
/// robustness suites: truncate, extend, flip bits or substitute a byte.
fn mutate(template: &[u8], rng: &mut SplitMix64) -> Vec<u8> {
    let mut buf = template.to_vec();
    match rng.below(5) {
        0 => {
            let len = rng.below(buf.len() as u64 + 1) as usize;
            buf.truncate(len);
        }
        1 => {
            for _ in 0..rng.below(16) + 1 {
                buf.push(rng.next_u32() as u8);
            }
        }
        2 if !buf.is_empty() => {
            for _ in 0..rng.below(4) + 1 {
                let i = rng.below(buf.len() as u64) as usize;
                buf[i] ^= 1 << rng.below(8);
            }
        }
        3 if !buf.is_empty() => {
            let i = rng.below(buf.len() as u64) as usize;
            buf[i] = rng.next_u32() as u8;
        }
        _ => {}
    }
    buf
}

/// Draws one request from the mix. Returns the frame bytes and the
/// cycles its operation is quoted at (for the open-loop load budget).
fn draw_request(
    rng: &mut SplitMix64,
    cfg: &TrafficConfig,
    costs: &CostTable,
    pool: &KeyPool,
    now: u64,
    next_seq: &mut HashMap<u32, u64>,
    last_admittable: &HashMap<u32, u64>,
) -> (Vec<u8>, u64) {
    let client = 1 + rng.below(cfg.clients as u64) as u32;
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
    // ~2% deliberate replays of a sequence number the plane already
    // committed for this client; otherwise a fresh monotone number.
    let seq = if rng.ratio(1, 50) {
        last_admittable.get(&client).copied().unwrap_or(1)
    } else {
        let s = next_seq.entry(client).or_insert(1);
        let v = *s;
        *s += 1;
        v
    };
    let deadline = now + 2 + rng.below(6);
    let ki = rng.below(pool.signers.len() as u64) as usize;
    let mi = rng.below(pool.msgs.len() as u64) as usize;
    let op_req = match op {
        Op::Sign => OpRequest::Sign {
            msg: pool.msgs[mi].clone(),
        },
        Op::Verify => {
            // ~5% of verifies carry a signature over a *different*
            // pool message: well-formed, decodes, verifies false.
            let msg = if rng.ratio(1, 20) {
                pool.msgs[(mi + 1) % pool.msgs.len()].clone()
            } else {
                pool.msgs[mi].clone()
            };
            OpRequest::Verify {
                public: *pool.signers[ki].public(),
                sig: pool.sigs[ki][mi].clone(),
                msg,
            }
        }
        Op::Ecdh => OpRequest::Ecdh {
            peer: *pool.peers[ki].public(),
        },
        Op::Ecies => OpRequest::Ecies {
            recipient: *pool.peers[ki].public(),
            msg: pool.msgs[mi].clone(),
        },
    };
    let mut frame = encode_request(&Request {
        client,
        seq,
        priority,
        deadline,
        op: op_req,
    });
    if rng.ratio(cfg.adversarial_permille, 1000) {
        frame = mutate(&frame, rng);
    }
    (frame, costs.quote(op).cycles)
}

/// Runs the experiment: open-loop arrivals for `cfg.ticks` ticks, then
/// a full drain, then the quote-vs-actual sampling and the canonical
/// quote-exactness re-measurement.
pub fn run(cfg: &TrafficConfig) -> TrafficReport {
    let mut plane_cfg = PlaneConfig::for_target(cfg.target);
    plane_cfg.workers = cfg.workers;
    let mut plane = ServicePlane::new(plane_cfg.clone()).expect("valid default plane config");
    let costs = CostTable::shared(cfg.target);
    let pool = KeyPool::new(5);
    koblitz::cache::reset();

    let mut outcomes: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut verify_false = 0u64;
    let mut latencies: Vec<u64> = Vec::new();
    let mut arrivals: HashMap<(u32, u64), u64> = HashMap::new();
    let mut next_seq: HashMap<u32, u64> = HashMap::new();
    let mut last_admitted: HashMap<u32, u64> = HashMap::new();

    let mut note = |resp: &Response,
                    arrivals: &mut HashMap<(u32, u64), u64>,
                    latencies: &mut Vec<u64>,
                    now: u64| {
        *outcomes.entry(resp.status.name()).or_insert(0) += 1;
        if let Status::Done(body) = &resp.status {
            if body == &[0u8] {
                verify_false += 1;
            }
        }
        if matches!(resp.status, Status::Done(_)) {
            if let Some(t0) = arrivals.remove(&(resp.client, resp.seq)) {
                latencies.push(now - t0);
            }
        }
    };

    for tick in 0..cfg.ticks {
        let mut rng = SplitMix64::substream(cfg.seed, DOMAIN_ARRIVALS, tick);
        let goal = cfg.load_permille * plane_cfg.capacity_cycles_per_tick / 1000;
        let mut issued = 0u64;
        while issued < goal {
            let (frame, quoted) = draw_request(
                &mut rng,
                cfg,
                costs,
                &pool,
                plane.now(),
                &mut next_seq,
                &last_admitted,
            );
            issued += quoted;
            let now = plane.now();
            match plane.submit(&frame) {
                None => {
                    // Admitted: remember the arrival for latency and
                    // the committed seq for the replay mix.
                    if let Ok(req) = service::frame::decode_request(&frame) {
                        arrivals.insert((req.client, req.seq), now);
                        last_admitted.insert(req.client, req.seq);
                    }
                }
                Some(resp) => note(&resp, &mut arrivals, &mut latencies, now),
            }
        }
        let now = plane.now();
        for resp in plane.tick() {
            note(&resp, &mut arrivals, &mut latencies, now);
        }
    }
    // Arrivals stop; drain the backlog to empty (deadlines bound this).
    let mut drain_ticks = 0u64;
    while plane.pending() > 0 {
        drain_ticks += 1;
        let now = plane.now();
        for resp in plane.tick() {
            note(&resp, &mut arrivals, &mut latencies, now);
        }
    }

    let counters = plane.counters();
    assert!(
        counters.accounted(0),
        "accounting identity violated after full drain"
    );

    latencies.sort_unstable();
    let pct = |q: usize| {
        if latencies.is_empty() {
            0
        } else {
            latencies[(latencies.len() - 1) * q / 100]
        }
    };

    // Quote-vs-actual: fresh modeled runs on scalars from the request
    // stream (sign nonces) and from the generator (ECDH secrets).
    let mut quote_errors = Vec::new();
    for (i, msg) in pool.msgs.iter().take(2).enumerate() {
        let nonce = pool.signers[i].derive_nonce(msg, 0);
        let mut mm =
            koblitz::modeled::ModeledMul::with_target(service::cost::COST_TIER, cfg.target);
        let run = mm.kg(&nonce.to_int());
        quote_errors.push(QuoteErrorSample {
            kernel: "kG",
            quoted: costs.kg.cycles,
            actual: run.report.cycles,
        });
    }
    let mut srng = SplitMix64::substream(cfg.seed, DOMAIN_SAMPLES, 0);
    for i in 0..2usize {
        let mut wide = [0u8; 40];
        srng.fill_bytes(&mut wide);
        let k = koblitz::Scalar::from_wide_bytes(&wide);
        let mut mm =
            koblitz::modeled::ModeledMul::with_target(service::cost::COST_TIER, cfg.target);
        let run = mm.kp(pool.peers[i].public(), &k.to_int());
        quote_errors.push(QuoteErrorSample {
            kernel: "kP",
            quoted: costs.kp.cycles,
            actual: run.report.cycles,
        });
    }

    // The gas-meter acceptance gate: re-measuring the canonical table
    // reproduces the quotes bit-identically.
    let remeasured = CostTable::measure(cfg.target);
    let quote_exact = remeasured.kg.cycles == costs.kg.cycles
        && remeasured.kp.cycles == costs.kp.cycles
        && remeasured.kg.energy_pj.to_bits() == costs.kg.energy_pj.to_bits()
        && remeasured.kp.energy_pj.to_bits() == costs.kp.energy_pj.to_bits();

    TrafficReport {
        config: cfg.clone(),
        counters,
        outcomes,
        verify_false,
        drain_ticks,
        p50_latency_ticks: pct(50),
        p99_latency_ticks: pct(99),
        quote_errors,
        quote_exact,
        cache: koblitz::cache::stats(),
    }
}

/// Renders the report (byte-diffed by the CI double run).
pub fn render(report: &TrafficReport) -> String {
    let mut out = String::new();
    let c = &report.counters;
    let cfg = &report.config;
    out.push_str("== service-plane overload experiment ==\n");
    out.push_str(&format!(
        "target {}, seed {:#x}, {} ticks, load {}\u{2030} of capacity, adversarial {}\u{2030}, {} clients\n",
        cfg.target.name(),
        cfg.seed,
        cfg.ticks,
        cfg.load_permille,
        cfg.adversarial_permille,
        cfg.clients
    ));
    out.push_str(&format!(
        "submitted {}   admitted {}   completed {}   drain ticks {}\n",
        c.submitted, c.admitted, c.completed, report.drain_ticks
    ));
    out.push_str("outcomes:\n");
    for (name, n) in &report.outcomes {
        out.push_str(&format!("  {name:<12} {n}\n"));
    }
    out.push_str(&format!(
        "rejections: decode {}  replay {}  shed {}  quota {}  busy {}  overloaded {}  expired-on-arrival {}  timeouts {}\n",
        c.decode_errors,
        c.replays,
        c.shed,
        c.quota_rejected,
        c.busy_rejected,
        c.overload_rejected,
        c.expired_on_arrival,
        c.timeouts
    ));
    out.push_str(&format!(
        "degradation: max level {}  transitions {}  warms {}  client evictions {}\n",
        c.max_level, c.level_changes, c.warms, c.client_evictions
    ));
    out.push_str(&format!(
        "latency (ticks): p50 {}  p99 {}\n",
        report.p50_latency_ticks, report.p99_latency_ticks
    ));
    out.push_str(&format!(
        "executed: {} modeled cycles, {:.1} uJ modeled energy, verify-false {}\n",
        c.executed_cycles,
        c.executed_energy_pj / 1e6,
        report.verify_false
    ));
    out.push_str(&format!(
        "wTNAF cache: {} hits, {} misses, {} evictions, {} resident\n",
        report.cache.hits, report.cache.misses, report.cache.evictions, report.cache.entries
    ));
    out.push_str("quote-vs-actual (canonical flat quote vs sampled request scalars):\n");
    for s in &report.quote_errors {
        out.push_str(&format!(
            "  {}: quoted {}  actual {}  err {}\u{2030}\n",
            s.kernel,
            s.quoted,
            s.actual,
            s.err_permille()
        ));
    }
    out.push_str(&format!(
        "quotes bit-identical on re-measurement: {}\n",
        report.quote_exact
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_is_deterministic_and_balanced() {
        let _cache = crate::wtnaf_cache_serial();
        let cfg = TrafficConfig {
            ticks: 15,
            ..TrafficConfig::smoke(m0plus::target::default_target())
        };
        let r1 = run(&cfg);
        let r2 = run(&cfg);
        assert_eq!(render(&r1), render(&r2), "double run must byte-match");
        assert!(r1.counters.accounted(0));
        assert!(r1.counters.completed > 0);
        assert!(r1.counters.decode_errors > 0, "adversarial mix missing");
        assert!(r1.quote_exact);
    }

    #[test]
    fn overload_run_survives_and_sheds() {
        let _cache = crate::wtnaf_cache_serial();
        let cfg = TrafficConfig {
            ticks: 8,
            ..TrafficConfig::overload(m0plus::target::default_target())
        };
        let r = run(&cfg);
        assert!(r.counters.accounted(0));
        assert!(r.counters.completed > 0, "overload must not starve");
        let typed_rejections =
            r.counters.shed + r.counters.busy_rejected + r.counters.overload_rejected;
        assert!(typed_rejections > 0, "2x load must trigger backpressure");
        assert!(r.counters.max_level >= 1, "ladder must engage");
    }
}
