//! The cross-tier differential fuzz harness.
//!
//! Feeds identical seeded inputs through every execution tier and
//! cross-checks:
//!
//! * **field elements** — the paper tier (`mul_ld_fixed`,
//!   `sqr::square`, the EEA `inv::invert`, called by name) vs the u64
//!   [`GenericField`] oracle vs all three counted multiplication methods
//!   vs the modeled machine, uncaptured and in a capture session that
//!   replays every kernel from its assembled Thumb-16 (results *and*
//!   the cycle counts of the two, which must agree exactly),
//!   and vs the host carry-less kernels ([`Clmul`]) when the CPU has
//!   them; and the public-input linear maps (`Fe::half_trace`,
//!   `Fe::square_n_public(30)`, `Fe::invert_public`) against the
//!   paper-tier squaring chains and the EEA;
//! * **SHA-256** — the SHA-NI compression ([`ShaNi`]) against the
//!   portable one when the CPU has the extensions: messages at the
//!   padding edges and seeded messages, hashed one-shot and split
//!   (one message per field case);
//! * **scalars** — width-4 wTNAF, plain TNAF, the fixed-window kG path
//!   and the Montgomery ladder against the binary double-and-add
//!   reference, including the recoding fixed-length invariant, and the
//!   trace-based subgroup check against n·P on k·G shifted into every
//!   coset of the order-n subgroup; the projective wTNAF table build
//!   against its affine `mul_binary` oracle at every window width, on
//!   the same shifted points; the host's λ-coordinate kP, kG and double
//!   multiplies against the López-Dahab loop on G and a seeded multiple
//!   of G; kP and the double multiply on the torsion points and a
//!   subgroup point shifted by each against affine double-and-add, at
//!   full-width scalars; the cached kP comb of a base new to the cache,
//!   on its miss and its hit at w = 4 and 5, and the joint comb of a
//!   key's first double multiply, against the paper's one-lane loop and
//!   the two-lane double multiply on explicit λ tables; the τ-adic kG
//!   comb against the paper's single-table Horner loop, and the double
//!   multiply against the Horner sum on k·G; the fixed-width τ-adic
//!   recoding against its `Int` pipeline, digit for digit at every width; the
//!   mod-n batch inversion against per-element inversion; the
//!   fixed-width mod-n arithmetic (reductions, ring operations and the
//!   constant-time safegcd inversion) against `Int` and its extended
//!   Euclid; and the variable-time public inverses (one by one and
//!   batched) against the same Euclid;
//! * **wire frames** — randomly truncated/bit-flipped public keys,
//!   signatures and sealed frames through the slice and owned decoders,
//!   which must never panic and must return the same typed error.
//!
//! Every case is derived from the configured seed through a per-case
//! PRNG substream (`prng::SplitMix64::substream` keyed by seed, phase
//! domain and case index), so a case's inputs are a pure function of
//! its index: any contiguous window of the global case list (see
//! [`total_cases`]) can run on its own via [`run_window`], and
//! [`merge`] folds the window reports — in window order — into the
//! same canonical report [`run`] produces. The sharded
//! `verify_campaign` runner splits the case list across worker threads
//! that way, and CI diffs `--shards 1` against `--shards 4` to hold
//! the output byte-identical. A disagreement is reported with a
//! greedily shrunk minimal counterexample (see [`crate::shrink`]).
//!
//! Every tier pair is checked through one call, `DiffReport::check`:
//! it counts the case under the pair's name and, when the tiers
//! disagree, records a [`Disagreement`] under the same name, building
//! its input and detail only then. [`DiffReport::ok`] reads the pair
//! counters, so a counted disagreement always fails the verdict. To
//! add a pair, make one `check` call in the phase that draws its
//! inputs, then add the pair's name to the list `ci.sh` requires in
//! both verify smokes.

use std::collections::BTreeMap;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

use gf2m::generic::GenericField;
use gf2m::modeled::{ModeledField, Tier};
use gf2m::mul::mul_ld_fixed;
use gf2m::{counted, inv, sqr, Clmul, Fe};
use koblitz::{curve, mul, tnaf, Int, LambdaPoint, Scalar, U256};
use prng::SplitMix64;
use protocols::sha256::{Sha256, ShaNi};
use protocols::wire::{
    decode_public_key, decode_public_key_slice, decode_signature, decode_signature_slice,
    encode_public_key, encode_signature, SealedFrame,
};
use protocols::SigningKey;

use crate::shrink;

/// Case budget for a differential run.
#[derive(Debug, Clone, Copy)]
pub struct DiffConfig {
    /// Base seed; each phase derives its own stream from it.
    pub seed: u64,
    /// Field-element cases (each checked across every field tier pair).
    pub field_cases: usize,
    /// Scalar cases (each checked across every point-algorithm pair).
    pub scalar_cases: usize,
    /// Wire-frame mutation cases (each checked across decoder pairs).
    pub wire_cases: usize,
    /// Batch-inversion cases: each case draws a batch (with ~10% zeros)
    /// and cross-checks pointwise inversion vs the portable and counted
    /// Montgomery batch (the portable one also on a batch widened to
    /// more than 128 elements), plus batch affine conversion at the
    /// curve layer.
    pub batch_cases: usize,
    /// The target cost model the modeled tiers run under. Architectural
    /// results must be target-invariant, so the differential verdict
    /// cannot depend on this — the `--target` axis exists to prove it.
    pub target: &'static m0plus::TargetSpec,
}

impl DiffConfig {
    /// Bounded CI smoke configuration (default target).
    pub fn smoke() -> DiffConfig {
        DiffConfig {
            seed: 0xd1ff,
            field_cases: 120,
            scalar_cases: 24,
            wire_cases: 300,
            batch_cases: 16,
            target: m0plus::target::default_target(),
        }
    }

    /// Full campaign: at least 1000 cases for every tier pair (default
    /// target).
    pub fn full() -> DiffConfig {
        DiffConfig {
            seed: 0xd1ff,
            field_cases: 1000,
            scalar_cases: 1000,
            wire_cases: 1000,
            batch_cases: 200,
            target: m0plus::target::default_target(),
        }
    }
}

/// One cross-tier disagreement (expected never to occur; kept in the
/// report with a shrunk counterexample when it does).
#[derive(Debug, Clone)]
pub struct Disagreement {
    /// Input domain (`field`, `sha`, `scalar`, `wire`, `batch`).
    pub domain: &'static str,
    /// The tier pair that disagreed, e.g. `portable/modeled_direct`.
    pub pair: String,
    /// Case index within the domain's stream.
    pub case_index: usize,
    /// Hex of the (shrunk, when shrinkable) offending input.
    pub input: String,
    /// What differed.
    pub detail: String,
}

/// Agreement counters for one tier pair.
#[derive(Debug, Clone)]
pub struct TierPair {
    /// Pair label, e.g. `portable/generic_u64`.
    pub pair: String,
    /// Cases cross-checked.
    pub cases: usize,
    /// Cases that disagreed.
    pub disagreements: usize,
}

/// The result of one differential run.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// Echo of the seed the run used.
    pub seed: u64,
    /// Per tier-pair agreement counters (fixed order).
    pub pairs: Vec<TierPair>,
    /// Every disagreement, in discovery order.
    pub disagreements: Vec<Disagreement>,
    /// Decoder error taxonomy: variant name → occurrences (identical
    /// across the slice and owned decoders by construction — a variant
    /// mismatch is recorded as a disagreement instead).
    pub wire_taxonomy: BTreeMap<String, u64>,
    /// Decoder calls that panicked (must stay zero).
    pub wire_panics: usize,
}

impl DiffReport {
    /// Whether every tier pair agreed on every case and no decoder
    /// panicked. Read from the pair counters, which `check` keeps in
    /// step with the disagreement list.
    pub fn ok(&self) -> bool {
        self.pairs.iter().all(|p| p.disagreements == 0) && self.wire_panics == 0
    }

    fn pair_entry(&mut self, pair: &str) -> &mut TierPair {
        if let Some(i) = self.pairs.iter().position(|p| p.pair == pair) {
            return &mut self.pairs[i];
        }
        self.pairs.push(TierPair {
            pair: pair.to_string(),
            cases: 0,
            disagreements: 0,
        });
        self.pairs.last_mut().expect("just pushed")
    }

    /// Counts one case of `pair`, at (input domain, case index). On a
    /// disagreement it also records the case under the same pair name;
    /// `explain` builds its (input, detail) only then, so a shrinker
    /// runs on failures alone.
    fn check(
        &mut self,
        (domain, case): (&'static str, usize),
        pair: &str,
        agreed: bool,
        explain: impl FnOnce() -> (String, String),
    ) {
        let entry = self.pair_entry(pair);
        entry.cases += 1;
        if agreed {
            return;
        }
        entry.disagreements += 1;
        let (input, detail) = explain();
        self.disagreements.push(Disagreement {
            domain,
            pair: pair.to_string(),
            case_index: case,
            input,
            detail,
        });
    }

    /// Deterministic text rendering (what the CI determinism gate
    /// diffs).
    pub fn render(&self) -> String {
        let mut out = format!("differential harness (seed {:#x})\n", self.seed);
        for p in &self.pairs {
            out.push_str(&format!(
                "  tier-pair {:<34} {:>6} cases, {} disagreements\n",
                p.pair, p.cases, p.disagreements
            ));
        }
        out.push_str("  decoder error taxonomy:\n");
        for (variant, count) in &self.wire_taxonomy {
            out.push_str(&format!("    {variant:<28} {count}\n"));
        }
        out.push_str(&format!("  decoder panics: {}\n", self.wire_panics));
        for d in &self.disagreements {
            out.push_str(&format!(
                "  DISAGREEMENT [{}] {} case {}: {} (input {})\n",
                d.domain, d.pair, d.case_index, d.detail, d.input
            ));
        }
        out
    }
}

/// Substream domains, one per phase, so the phases draw from
/// unrelated generators even for equal case indices.
const FIELD_DOMAIN: u64 = 0xf1e1d;
const SCALAR_DOMAIN: u64 = 0x5ca1a7;
const WIRE_DOMAIN: u64 = 0x3175;
const BATCH_DOMAIN: u64 = 0xba7c4;
const SHA_DOMAIN: u64 = 0x5aa256;
const SCALAR_FIXED_DOMAIN: u64 = 0x5ca1f1;
const KG_COMB_DOMAIN: u64 = 0xc0b8;
const DM_COMB_DOMAIN: u64 = 0xd0c0b8;
const LD_LAMBDA_DOMAIN: u64 = 0x1d1a;
const SCALAR_INV_PUBLIC_DOMAIN: u64 = 0x5ca1b1;
const KP_COMB_DOMAIN: u64 = 0xc0b84;
const COSET_DOMAIN: u64 = 0xc05e7;

/// Size of the global case list: the four phase case lists
/// concatenated (field, then scalar, then wire, then batch). This is
/// the range sharded runners split into windows for [`run_window`].
pub fn total_cases(config: &DiffConfig) -> usize {
    config.field_cases + config.scalar_cases + config.wire_cases + config.batch_cases
}

/// Intersects a global-index window with one phase's sub-range and
/// rebases it to phase-local case indices.
fn phase_window(window: &Range<usize>, base: usize, count: usize) -> Range<usize> {
    let lo = window.start.clamp(base, base + count) - base;
    let hi = window.end.clamp(base, base + count) - base;
    lo..hi
}

/// Runs the cases of one contiguous window of the global case list
/// (`0..total_cases`). Every case draws from its own substream, so the
/// produced counters depend only on the window contents — never on
/// which shard ran them. The result is a *partial* report; fold the
/// windows with [`merge`].
pub fn run_window(config: &DiffConfig, window: Range<usize>) -> DiffReport {
    let mut report = DiffReport {
        seed: config.seed,
        ..DiffReport::default()
    };
    let scalar_base = config.field_cases;
    let wire_base = scalar_base + config.scalar_cases;
    let batch_base = wire_base + config.wire_cases;
    field_phase(
        config,
        &mut report,
        phase_window(&window, 0, config.field_cases),
    );
    scalar_phase(
        config,
        &mut report,
        phase_window(&window, scalar_base, config.scalar_cases),
    );
    wire_phase(
        config,
        &mut report,
        phase_window(&window, wire_base, config.wire_cases),
    );
    batch_phase(
        config,
        &mut report,
        phase_window(&window, batch_base, config.batch_cases),
    );
    report
}

/// Folds window reports (in window order) into the canonical report:
/// pair counters summed and sorted by pair name, disagreements
/// concatenated (window order == global case order), taxonomy and
/// panic counters summed. [`run`] goes through the same fold, so a
/// single-window run renders byte-identically to any sharded split.
pub fn merge(config: &DiffConfig, parts: Vec<DiffReport>) -> DiffReport {
    let mut out = DiffReport {
        seed: config.seed,
        ..DiffReport::default()
    };
    for part in parts {
        for p in part.pairs {
            let entry = out.pair_entry(&p.pair);
            entry.cases += p.cases;
            entry.disagreements += p.disagreements;
        }
        out.disagreements.extend(part.disagreements);
        for (variant, count) in part.wire_taxonomy {
            *out.wire_taxonomy.entry(variant).or_insert(0) += count;
        }
        out.wire_panics += part.wire_panics;
    }
    out.pairs.sort_by(|a, b| a.pair.cmp(&b.pair));
    out
}

/// Runs all differential phases under `config`.
pub fn run(config: &DiffConfig) -> DiffReport {
    let full = run_window(config, 0..total_cases(config));
    merge(config, vec![full])
}

// ---------------------------------------------------------------------
// Field elements.
// ---------------------------------------------------------------------

fn rand_fe(rng: &mut SplitMix64) -> Fe {
    let mut w = [0u32; 8];
    rng.fill_u32(&mut w);
    Fe::from_words_reduced(w)
}

/// Field edge cases fed before the random stream.
fn field_edges() -> Vec<(Fe, Fe)> {
    let top = {
        let mut w = [0u32; 8];
        w[7] = 0x1FF; // bit 232 and friends set
        Fe::from_words_reduced(w)
    };
    let ones = Fe::from_words_reduced([u32::MAX; 8]);
    let z = |i: usize| {
        let mut w = [0u32; 8];
        w[i / 32] = 1 << (i % 32);
        Fe::from_words_reduced(w)
    };
    vec![
        (Fe::ZERO, Fe::ZERO),
        (Fe::ZERO, Fe::ONE),
        (Fe::ONE, Fe::ONE),
        (top, Fe::ONE),
        (top, top),
        (ones, ones),
        // Products straddling the 64-bit limbs of the carry-less
        // kernels, and z^464, the top of the z^233 fold.
        (z(63), z(64)),
        (z(127), z(128)),
        (z(232), z(232)),
    ]
}

/// The reported input of a field disagreement: a ‖ b as 60 big-endian
/// bytes, shrunk while `still_fails` holds.
fn fe_input(a: Fe, b: Fe, still_fails: impl Fn(&[u8]) -> bool) -> String {
    let mut input = Vec::new();
    input.extend_from_slice(&a.to_be_bytes());
    input.extend_from_slice(&b.to_be_bytes());
    shrink::hex(&shrink::shrink_bytes(&input, still_fails))
}

/// Decodes the shrinker's 60-byte field-pair serialisation.
fn bytes_to_fe_pair(bytes: &[u8]) -> (Fe, Fe) {
    let mut buf = [0u8; 60];
    let n = bytes.len().min(60);
    buf[..n].copy_from_slice(&bytes[..n]);
    let a: [u8; 30] = buf[..30].try_into().expect("30 bytes");
    let b: [u8; 30] = buf[30..].try_into().expect("30 bytes");
    (Fe::from_be_bytes(&a), Fe::from_be_bytes(&b))
}

fn field_phase(config: &DiffConfig, report: &mut DiffReport, cases: Range<usize>) {
    if cases.is_empty() {
        return;
    }
    let oracle = GenericField::sect233k1();
    let mut direct = ModeledField::with_target(Tier::Asm, config.target);
    let (da, db, dz) = (direct.alloc(), direct.alloc(), direct.alloc());
    let mut code = ModeledField::with_target(Tier::Asm, config.target);
    code.start_capture();
    let (ca, cb, cz) = (code.alloc(), code.alloc(), code.alloc());

    let clmul = Clmul::detect();
    let sha_ni = ShaNi::detect();
    let edges = field_edges();
    for case in cases {
        let at = ("field", case);
        let mut rng = SplitMix64::substream(config.seed, FIELD_DOMAIN, case as u64);
        let (a, b) = edges
            .get(case)
            .copied()
            .unwrap_or_else(|| (rand_fe(&mut rng), rand_fe(&mut rng)));
        let want_mul = mul_ld_fixed(a, b);
        let want_sqr = sqr::square(a);

        // The reported input of a disagreement no shrinker re-runs.
        let unshrunk = |detail: String| (fe_input(a, b, |_| false), detail);

        // u64 generic-field oracle.
        let got = oracle
            .element_to_fe(&oracle.mul(&oracle.element_from_fe(a), &oracle.element_from_fe(b)));
        report.check(at, "portable/generic_u64", got == want_mul, || {
            let still_fails = |bytes: &[u8]| {
                let (a, b) = bytes_to_fe_pair(bytes);
                let o = GenericField::sect233k1();
                o.element_to_fe(&o.mul(&o.element_from_fe(a), &o.element_from_fe(b)))
                    != mul_ld_fixed(a, b)
            };
            let detail = format!("mul: portable {want_mul} vs generic {got}");
            (fe_input(a, b, still_fails), detail)
        });
        let got = oracle.element_to_fe(&oracle.sqr(&oracle.element_from_fe(a)));
        report.check(at, "portable/generic_u64_sqr", got == want_sqr, || {
            unshrunk(format!("sqr: portable {want_sqr} vs generic {got}"))
        });

        // Counted tier: all three multiplication methods.
        for (name, value) in [
            ("portable/counted_ld", counted::mul_ld(a, b).value),
            (
                "portable/counted_ld_rotating",
                counted::mul_ld_rotating(a, b).value,
            ),
            (
                "portable/counted_ld_fixed",
                counted::mul_ld_fixed(a, b).value,
            ),
        ] {
            report.check(at, name, value == want_mul, || {
                unshrunk(format!("mul: portable {want_mul} vs counted {value}"))
            });
        }

        // Modeled tier, uncaptured: mul + sqr.
        direct.store(da, a);
        direct.store(db, b);
        let snap = direct.machine().cycles();
        direct.mul(dz, da, db);
        direct.sqr(dz, da);
        let direct_cycles = direct.machine().cycles() - snap;
        // (the modeled tier asserts against portable internally in
        // debug builds; the explicit check also covers release runs)
        direct.mul(dz, da, db);
        let got = direct.load(dz);
        report.check(at, "portable/modeled_direct", got == want_mul, || {
            unshrunk(format!("mul: portable {want_mul} vs modeled {got}"))
        });

        // Modeled tier in a capture session, every kernel replayed from
        // its assembled Thumb-16: identical results and *cycles*.
        code.store(ca, a);
        code.store(cb, b);
        let snap = code.machine().cycles();
        code.mul(cz, ca, cb);
        code.sqr(cz, ca);
        let code_cycles = code.machine().cycles() - snap;
        let agreed = code_cycles == direct_cycles;
        report.check(at, "modeled_direct/modeled_code_cycles", agreed, || {
            unshrunk(format!(
                "mul+sqr cycles: direct {direct_cycles} vs code {code_cycles}"
            ))
        });
        code.mul(cz, ca, cb);
        let got = code.load(cz);
        report.check(at, "portable/modeled_code", got == want_mul, || {
            unshrunk(format!("mul: portable {want_mul} vs modeled code {got}"))
        });

        // Standalone reduction: interleaved portable vs bitwise vs the
        // modeled reduce kernel (sampled — it re-runs the mul frame).
        let wide = gf2m::mul::mul_poly_ld(a.words(), b.words());
        let got = gf2m::reduce::reduce_bitwise(wide);
        report.check(at, "reduce_word/reduce_bitwise", got == want_mul, || {
            unshrunk(format!("reduce: word {want_mul} vs bitwise {got}"))
        });
        if case % 16 == 0 {
            direct.reduce(dz, &wide);
            let got = direct.load(dz);
            report.check(at, "portable/modeled_reduce", got == want_mul, || {
                unshrunk(format!("reduce: portable {want_mul} vs modeled {got}"))
            });
        }

        // Host carry-less kernels, called directly, vs the paper tier.
        if let Some(k) = clmul {
            clmul_pairs(report, k, case, a, b, want_mul, want_sqr);
        }
        if sha_ni.is_some() {
            sha_pair(config, report, case);
        }

        // Public-input chunk-table maps vs the paper-tier chains.
        let (table, chain) = (table_images(a), chain_images(a));
        report.check(at, "chain/table", table == chain, || {
            let still_fails = |bytes: &[u8]| {
                let (a, _) = bytes_to_fe_pair(bytes);
                table_images(a) != chain_images(a)
            };
            let detail = format!("half-trace, x^(2^30), 1/x: chain {chain:?} vs table {table:?}");
            (fe_input(a, b, still_fails), detail)
        });

        // Inversion: EEA vs generic oracle vs modeled (sampled).
        if case % 32 == 0 && !a.is_zero() {
            let inv = inv::invert(a).expect("non-zero");
            let got = oracle
                .inv(&oracle.element_from_fe(a))
                .map(|p| oracle.element_to_fe(&p));
            report.check(at, "portable/generic_u64_inv", got == Some(inv), || {
                unshrunk(format!("inv: portable {inv} vs generic {got:?}"))
            });
            direct.store(da, a);
            direct.inv(dz, da);
            let got = direct.load(dz);
            report.check(at, "portable/modeled_inv", got == inv, || {
                unshrunk(format!("inv: portable {inv} vs modeled {got}"))
            });
        }
    }
}

/// The half-trace, τ³⁰ (x^(2^30)) and inverse of `a` through the
/// public-input linear maps of `gf2m::linear`.
fn table_images(a: Fe) -> (Fe, Fe, Option<Fe>) {
    (a.half_trace(), a.square_n_public(30), a.invert_public())
}

/// [`table_images`]' oracle: the same three values by `sqr::square`
/// chains and the EEA `inv::invert`.
fn chain_images(a: Fe) -> (Fe, Fe, Option<Fe>) {
    let mut t = a;
    let mut half_trace = a;
    for _ in 0..(gf2m::M - 1) / 2 {
        t = sqr::square(sqr::square(t));
        half_trace += t;
    }
    let tau30 = (0..30).fold(a, |x, _| sqr::square(x));
    (half_trace, tau30, inv::invert(a))
}

/// The `paper/clmul_mul`, `paper/clmul_sqr` and `eea/clmul_inv` pairs:
/// the carry-less kernels against `mul_ld_fixed`, `sqr::square` and the
/// EEA `inv::invert` (zero included: both must return `None`).
fn clmul_pairs(
    report: &mut DiffReport,
    k: Clmul,
    case: usize,
    a: Fe,
    b: Fe,
    want_mul: Fe,
    want_sqr: Fe,
) {
    let got = k.mul(a, b);
    report.check(("field", case), "paper/clmul_mul", got == want_mul, || {
        let still_fails = |bytes: &[u8]| {
            let (a, b) = bytes_to_fe_pair(bytes);
            k.mul(a, b) != mul_ld_fixed(a, b)
        };
        (
            fe_input(a, b, still_fails),
            format!("mul: paper {want_mul} vs clmul {got}"),
        )
    });
    let got = k.square(a);
    report.check(("field", case), "paper/clmul_sqr", got == want_sqr, || {
        let still_fails = |bytes: &[u8]| {
            let (a, _) = bytes_to_fe_pair(bytes);
            k.square(a) != sqr::square(a)
        };
        (
            fe_input(a, b, still_fails),
            format!("sqr: paper {want_sqr} vs clmul {got}"),
        )
    });
    let (want, got) = (inv::invert(a), k.invert(a));
    report.check(("field", case), "eea/clmul_inv", got == want, || {
        let still_fails = |bytes: &[u8]| {
            let (a, _) = bytes_to_fe_pair(bytes);
            k.invert(a) != inv::invert(a)
        };
        (
            fe_input(a, b, still_fails),
            format!("inv: eea {want:?} vs clmul {got:?}"),
        )
    });
}

/// Message lengths at SHA-256's padding edges: empty, the longest
/// one-block message (55), the shortest two-block one (56), the end of
/// the first data block (63, 64, 65), and the two-/three-block edge
/// (119, 120).
const SHA_EDGE_LENGTHS: [usize; 8] = [0, 55, 56, 63, 64, 65, 119, 120];

/// SHA-256 of `msg` absorbed in two updates split at `split`.
fn sha256_split(mut h: Sha256, msg: &[u8], split: usize) -> [u8; 32] {
    let split = split.min(msg.len());
    h.update(&msg[..split]);
    h.update(&msg[split..]);
    h.finalize()
}

/// The `sha_portable/sha_ni` pair, run only when [`ShaNi::detect`]
/// succeeds (so [`Sha256::new`] hashes on SHA-NI): the case's message
/// — a padding-edge length first, then seeded lengths below 300 bytes —
/// hashed one-shot and split at a seeded point on both tiers. All four
/// digests must equal the portable one-shot digest.
fn sha_pair(config: &DiffConfig, report: &mut DiffReport, case: usize) {
    let mut rng = SplitMix64::substream(config.seed, SHA_DOMAIN, case as u64);
    let len = SHA_EDGE_LENGTHS
        .get(case)
        .copied()
        .unwrap_or_else(|| rng.below(300) as usize);
    let mut msg = vec![0u8; len];
    rng.fill_bytes(&mut msg);
    let split = rng.below(len as u64 + 1) as usize;
    let disagrees = |msg: &[u8]| {
        let want = sha256_split(Sha256::portable(), msg, msg.len());
        [
            sha256_split(Sha256::new(), msg, msg.len()),
            sha256_split(Sha256::new(), msg, split),
            sha256_split(Sha256::portable(), msg, split),
        ]
        .iter()
        .any(|got| *got != want)
    };
    let agreed = !disagrees(&msg);
    report.check(("sha", case), "sha_portable/sha_ni", agreed, || {
        (
            shrink::hex(&shrink::shrink_bytes(&msg, disagrees)),
            format!("SHA-256 of {len} bytes split at {split}: tiers differ"),
        )
    });
}

// ---------------------------------------------------------------------
// Scalars.
// ---------------------------------------------------------------------

/// Scalar edge cases fed before the random stream: zero, small, the
/// group order and its neighbours, and top-bit-set patterns.
fn scalar_edges() -> Vec<Int> {
    let n = curve::order();
    let top_bit = Int::one().shl(232);
    vec![
        Int::zero(),
        Int::one(),
        Int::from(2i64),
        Int::from(3i64),
        Int::from(0x7FFFi64),
        &n - &Int::one(),
        n.clone(),
        &n + &Int::one(),
        top_bit.clone(),
        &top_bit + &Int::one(),
        Int::one().shl(231),
        &n - &Int::from(12345i64),
    ]
}

/// The comb's scalar edges, which the `dm_horner/dm_comb` pair gives
/// to both u₁ and u₂: 0, 1, 2, n − 1, n, n + 1, 2²³² − 1 and 2²⁵⁶ − 1.
fn dm_scalar_edges() -> Vec<Int> {
    let n = curve::order();
    let top = |bits: usize| &Int::one().shl(bits) - &Int::one();
    vec![
        Int::zero(),
        Int::one(),
        Int::from(2i64),
        &n - &Int::one(),
        n.clone(),
        &n + &Int::one(),
        top(232),
        top(256),
    ]
}

fn rand_scalar_wide(rng: &mut SplitMix64) -> Int {
    // Deliberately up to 240 bits: values ≥ n must reduce identically
    // across every algorithm.
    let mut limbs = vec![0u32; 8];
    for l in limbs.iter_mut() {
        *l = rng.next_u32();
    }
    limbs[7] &= 0xFFFF; // 240 bits
    Int::from_limbs(false, limbs)
}

/// Batch lengths the mod-n batch inversion is checked at, by case.
const SCALAR_INV_LENGTHS: [usize; 4] = [1, 2, 16, 130];

/// A batch of non-zero scalars for case `case`: k mod n (or 1 when that
/// is zero), then the [`divstep_edges`], then seeded wide scalars, cut
/// to the case's length.
fn scalar_inv_batch(case: usize, k: &Int, rng: &mut SplitMix64) -> Vec<Scalar> {
    let len = SCALAR_INV_LENGTHS[case % SCALAR_INV_LENGTHS.len()];
    let head = Scalar::new(k.clone());
    let mut batch = vec![if head.is_zero() { Scalar::one() } else { head }];
    batch.extend(divstep_edges().into_iter().map(Scalar::new));
    while batch.len() < len {
        let mut bytes = [0u8; 40];
        rng.fill_bytes(&mut bytes);
        batch.push(Scalar::from_wide_bytes(&bytes));
    }
    batch.truncate(len);
    batch
}

/// The inputs of `scalar_int/scalar_fixed` by case: [`scalar_edges`],
/// then 0, 1, n − 1, n − 2, 2²³¹ and 2²³² − 1; later cases draw seeded
/// 40-byte values.
fn scalar_fixed_edges() -> Vec<Int> {
    let n = curve::order();
    let mut edges = scalar_edges();
    edges.extend([
        Int::zero(),
        Int::one(),
        &n - &Int::one(),
        &n - &Int::from(2i64),
        Int::one().shl(231),
        &Int::one().shl(232) - &Int::one(),
    ]);
    edges
}

/// Inputs that stress the safegcd divstep loop: 1, 2, n − 1, n − 2,
/// then 2⁶², 2¹²⁴, 2¹⁸⁶ and 2²³¹ (one set bit at each signed-62 limb
/// edge; all below n), then values with 60 or more trailing zero bits.
fn divstep_edges() -> Vec<Int> {
    let n = curve::order();
    let pow = |k: usize| Int::one().shl(k);
    vec![
        Int::one(),
        Int::from(2i64),
        &n - &Int::one(),
        &n - &Int::from(2i64),
        pow(62),
        pow(124),
        pow(186),
        pow(231),
        Int::from(3i64).shl(60),
        &pow(231) - &pow(60),
        &pow(231) + &pow(64),
        Int::from(0x1234_5678_9abc_def1i64).shl(120),
    ]
}

/// The `scalar_int/scalar_inv_public` check of one case against the
/// extended Euclid [`Int::mod_inverse`]: [`Scalar::invert_public`] of a
/// — the case's edge of [`scalar_fixed_edges`] (so zero too) or a
/// seeded 40-byte value — then of each element of a batch, one by one
/// and through [`Scalar::batch_invert_public`], of the case's
/// [`scalar_inv_batch`] headed by a. Returns the first disagreement.
fn scalar_inv_public_disagreement(
    case: usize,
    edge: Option<&Int>,
    rng: &mut SplitMix64,
) -> Option<String> {
    let n = curve::order();
    let a = match edge {
        Some(k) => Scalar::new(k.clone()),
        None => {
            let mut bytes = [0u8; 40];
            rng.fill_bytes(&mut bytes);
            Scalar::from_wide_bytes(&bytes)
        }
    };
    let want = |x: &Scalar| x.to_int().mod_inverse(&n);
    if a.invert_public().map(|v| v.to_int()) != want(&a) {
        return Some(format!("invert_public differs for a = {a}"));
    }
    let batch = scalar_inv_batch(case, &a.to_int(), rng);
    let got = Scalar::batch_invert_public(&batch);
    batch
        .iter()
        .zip(&got)
        .enumerate()
        .find_map(|(i, (x, inv))| {
            let want = want(x);
            let single = x.invert_public().map(|v| v.to_int());
            (single != want || Some(inv.to_int()) != want).then(|| {
                format!(
                    "element {i} ({x}) of a batch of {}: invert_public {single:?}, \
                     batch_invert_public {inv}",
                    batch.len()
                )
            })
        })
}

/// Checks every fixed-width [`Scalar`] operation of one case against
/// `Int`: the 40-, 32- and 30-byte reductions against
/// [`Int::mod_positive`], then add, sub, negation, mul and the
/// constant-time safegcd inversion ([`Scalar::invert`]) against `Int`
/// arithmetic and the extended Euclid. a is the
/// case's edge (reduced from its 32-byte encoding) or a seeded 40-byte
/// value, b is always seeded. Returns the first operation that
/// disagrees.
fn scalar_fixed_disagreement(edge: Option<&Int>, rng: &mut SplitMix64) -> Option<String> {
    let n = curve::order();
    let reduced = |bytes: &[u8]| Int::from_be_bytes(bytes).mod_positive(&n);
    let mut wide_a = [0u8; 40];
    let mut wide_b = [0u8; 40];
    rng.fill_bytes(&mut wide_a);
    rng.fill_bytes(&mut wide_b);
    let (a_int, a) = match edge {
        Some(k) => {
            let U256(limbs) = U256::from(k);
            let bytes: [u8; 32] =
                std::array::from_fn(|i| (limbs[3 - i / 8] >> (56 - 8 * (i % 8))) as u8);
            (k.mod_positive(&n), Scalar::reduce_be_bytes(&bytes))
        }
        None => (reduced(&wide_a), Scalar::from_wide_bytes(&wide_a)),
    };
    let (b_int, b) = (reduced(&wide_b), Scalar::from_wide_bytes(&wide_b));
    let digest: &[u8; 32] = wide_b[..32].try_into().expect("32 bytes");
    let x: &[u8; 30] = wide_b[10..].try_into().expect("30 bytes");
    let checks = [
        ("reduce", a.to_int() == a_int && b.to_int() == b_int),
        (
            "reduce_32",
            Scalar::reduce_be_bytes(digest).to_int() == reduced(digest),
        ),
        (
            "reduce_30",
            Scalar::reduce_be_bytes(x).to_int() == reduced(x),
        ),
        (
            "add",
            a.add(&b).to_int() == (&a_int + &b_int).mod_positive(&n),
        ),
        (
            "sub",
            a.sub(&b).to_int() == (&a_int - &b_int).mod_positive(&n),
        ),
        (
            "neg",
            a.negated().to_int() == a_int.negated().mod_positive(&n),
        ),
        (
            "mul",
            a.mul(&b).to_int() == (&a_int * &b_int).mod_positive(&n),
        ),
        (
            "invert",
            a.invert().map(|v| v.to_int()) == a_int.mod_inverse(&n),
        ),
    ];
    let (op, _) = checks.iter().find(|(_, agreed)| !agreed)?;
    Some(format!("{op} differs for a = {a_int}, b = {b_int}"))
}

/// The `ld/lambda` pair of one scalar case: the host's λ loop against
/// the LD loop it replaced, the oracle. The scalars a and b are the
/// comb's edges paired up (a from the front, b from the back), then
/// seeded. kG runs on G's λ comb against its LD comb; then for G and a
/// seeded multiple Q of G, kP through the cache against the LD loop on
/// the base's affine table, and a·G + b·B along every double-multiply
/// path (the cache's first and second lookup, the λ two-lane and λ
/// joint-comb paths on explicit tables) against the LD two-lane one.
/// Bases outside the subgroup have no λ path; `binary/coset` checks
/// them.
fn ld_lambda_pair(config: &DiffConfig, report: &mut DiffReport, case: usize) {
    let at = ("scalar", case);
    let w = mul::KP_WINDOW;
    let edges = dm_scalar_edges();
    let mut rng = SplitMix64::substream(config.seed, LD_LAMBDA_DOMAIN, case as u64);
    let (a, b) = match edges.get(case) {
        Some(a) => (a.clone(), edges[edges.len() - 1 - case].clone()),
        None => (rand_scalar_wide(&mut rng), rand_scalar_wide(&mut rng)),
    };
    let g = curve::generator();
    let q = g.mul_binary(&rand_scalar_wide(&mut rng));
    let kg_lambda = mul::mul_g_proj(&a).to_affine();
    let kg_ld = mul::mul_g_with_strips(&a, mul::generator_comb::<curve::Affine>()).to_affine();
    report.check(at, "ld/lambda", kg_lambda == kg_ld, || {
        (
            a.to_hex(),
            "k·G: the λ comb differs from the LD comb".to_string(),
        )
    });
    for base in [g, q] {
        let ld_table = mul::precompute_table(&base, w);
        let want = mul::mul_wtnaf_with_table(&a, w, &ld_table).to_affine();
        report.check(
            at,
            "ld/lambda",
            mul::mul_wtnaf(&base, &a, w) == want,
            || {
                (
                    a.to_hex(),
                    format!("k·P for P = {base} differs from the LD loop"),
                )
            },
        );
        let want = mul::double_multiply_with_table(&a, &b, &ld_table).to_affine();
        let table = mul::precompute_lambda_table(&base, w);
        let mut got = vec![
            mul::double_multiply(&a, &b, &base),
            mul::double_multiply(&a, &b, &base),
            mul::double_multiply_with_table(&a, &b, &table).to_affine(),
        ];
        for w in [mul::KP_WINDOW, mul::KEY_COMB_WINDOW] {
            let strips = mul::key_comb::<LambdaPoint>(&base, w);
            got.push(mul::double_multiply_with_strips(&a, &b, &strips).to_affine());
        }
        report.check(at, "ld/lambda", got.iter().all(|p| *p == want), || {
            (
                a.to_hex(),
                format!(
                    "u1·G + u2·P for P = {base} differs from the LD two-lane double \
                     multiply for u1 = {a}, u2 = {b}"
                ),
            )
        });
    }
}

/// The scalars `binary/coset` starts with: n − 1, 2²²⁴ − 1, 2²³² − 1
/// and 2²⁵⁶ − 1, each one the recoding reduces mod δ.
fn coset_scalar_edges() -> Vec<Int> {
    let top = |bits: usize| &Int::one().shl(bits) - &Int::one();
    vec![&curve::order() - &Int::one(), top(224), top(232), top(256)]
}

/// The `binary/coset` pair of one scalar case: kP and the double
/// multiply on bases outside the prime-order subgroup, where the τ-adic
/// recoding's reduction mod δ does not give k·P, against affine
/// double-and-add, which shares no τ-adic code. The bases are the
/// torsion points (0, 1) and ±(1, 1) and a seeded multiple Q of G
/// shifted by each; k is [`coset_scalar_edges`], then a seeded 256-bit
/// value, and u a seeded 256-bit value. On each base, `mul_wtnaf`,
/// `mul_wtnaf_proj`, and `double_multiply` on the key's first and
/// second cached lookup must equal `mul_binary`'s k·P and u·G + k·P:
/// four checks a base.
fn coset_pair(
    config: &DiffConfig,
    report: &mut DiffReport,
    case: usize,
    torsion: &[curve::Affine],
) {
    let at = ("scalar", case);
    let w = mul::KP_WINDOW;
    let mut rng = SplitMix64::substream(config.seed, COSET_DOMAIN, case as u64);
    let mut full_width = || Int::from_limbs(false, (0..8).map(|_| rng.next_u32()).collect());
    let k = coset_scalar_edges()
        .get(case)
        .cloned()
        .unwrap_or_else(&mut full_width);
    let u = full_width();
    let q = mul::mul_g(&full_width());
    let u_g = curve::generator().mul_binary(&u);
    let bases = torsion
        .iter()
        .copied()
        .chain(torsion.iter().map(|t| q.add(t)));
    for base in bases {
        let want = base.mul_binary(&k);
        let want_dm = u_g.add(&want);
        let paths = [
            ("mul_wtnaf", mul::mul_wtnaf(&base, &k, w), want),
            (
                "mul_wtnaf_proj",
                mul::mul_wtnaf_proj(&base, &k, w).to_affine(),
                want,
            ),
            (
                "first double_multiply",
                mul::double_multiply(&u, &k, &base),
                want_dm,
            ),
            (
                "second double_multiply",
                mul::double_multiply(&u, &k, &base),
                want_dm,
            ),
        ];
        for (path, got, want) in paths {
            report.check(at, "binary/coset", got == want, || {
                (
                    k.to_hex(),
                    format!("{path} on P = {base}: {got}, double-and-add {want}, u = {u}"),
                )
            });
        }
    }
}

/// The `kp_horner/kp_comb` pair of one scalar case: the cache's λ comb
/// against the paper's one-lane loop on a base new to the cache, a
/// seeded multiple Q of G. The scalars k and u are the comb's edges
/// paired up (k from the front, u from the back), then seeded. At w = 4
/// and 5, k·Q through the cache on its miss and then on its hit must
/// equal `mul_wtnaf_with_table` on Q's explicit λ table. Then k·G + u·Q
/// on Q's first double-multiply lookup (the joint comb on the w = 4 comb
/// the kP miss cached) and the joint comb on explicit w = 4 strips must
/// equal the two-lane `double_multiply_with_table` on that table.
fn kp_comb_pair(config: &DiffConfig, report: &mut DiffReport, case: usize) {
    let at = ("scalar", case);
    let edges = dm_scalar_edges();
    let mut rng = SplitMix64::substream(config.seed, KP_COMB_DOMAIN, case as u64);
    let (k, u) = match edges.get(case) {
        Some(k) => (k.clone(), edges[edges.len() - 1 - case].clone()),
        None => (rand_scalar_wide(&mut rng), rand_scalar_wide(&mut rng)),
    };
    let q = curve::generator().mul_binary(&rand_scalar_wide(&mut rng));
    let widths = [mul::KP_WINDOW, 5];
    let tables = widths.map(|w| mul::precompute_lambda_table(&q, w));
    for (w, table) in widths.into_iter().zip(&tables) {
        let want = mul::mul_wtnaf_with_table(&k, w, table).to_affine();
        let miss = mul::mul_wtnaf_proj(&q, &k, w).to_affine();
        let hit = mul::mul_wtnaf_proj(&q, &k, w).to_affine();
        report.check(at, "kp_horner/kp_comb", miss == want && hit == want, || {
            (
                k.to_hex(),
                format!(
                    "k·Q at w = {w} for Q = {q}: the cached comb gives {miss} on the miss \
                     and {hit} on the hit, the one-lane loop {want}"
                ),
            )
        });
    }
    let want = mul::double_multiply_with_table(&k, &u, &tables[0]).to_affine();
    let strips = mul::key_comb::<LambdaPoint>(&q, mul::KP_WINDOW);
    let explicit = mul::double_multiply_with_strips(&k, &u, &strips).to_affine();
    let first = mul::double_multiply(&k, &u, &q);
    let agreed = explicit == want && first == want;
    report.check(at, "kp_horner/kp_comb", agreed, || {
        (
            k.to_hex(),
            format!(
                "k·G + u·Q for Q = {q}, u = {u}: the w = 4 joint comb gives {explicit} on \
                 explicit strips and {first} on the first cached lookup, two lanes {want}"
            ),
        )
    });
}

fn scalar_phase(config: &DiffConfig, report: &mut DiffReport, cases: Range<usize>) {
    if cases.is_empty() {
        return;
    }
    let g = curve::generator();
    let edges = scalar_edges();
    let fixed_edges = scalar_fixed_edges();
    let n = curve::order();
    // Coset representatives of the order-n subgroup: O, the 2-torsion
    // point T = (0, 1) and the order-4 points ±(1, 1).
    let q4 = curve::Affine::Point {
        x: Fe::ONE,
        y: Fe::ONE,
    };
    let shifts = [
        curve::Affine::Infinity,
        curve::Affine::Point {
            x: Fe::ZERO,
            y: Fe::ONE,
        },
        q4,
        q4.negated(),
    ];
    for case in cases {
        let at = ("scalar", case);
        let mut rng = SplitMix64::substream(config.seed, SCALAR_DOMAIN, case as u64);
        let k = edges
            .get(case)
            .cloned()
            .unwrap_or_else(|| rand_scalar_wide(&mut rng));
        let reference = g.mul_binary(&k);
        let checks = [
            ("binary/wtnaf_w4", mul::mul_wtnaf(&g, &k, 4)),
            ("binary/tnaf", mul::mul_tnaf(&g, &k)),
            ("binary/kg_window", mul::mul_g(&k)),
            ("binary/ladder", mul::montgomery_ladder(&g, &k)),
        ];
        for (pair, got) in checks {
            report.check(at, pair, got == reference, || {
                (k.to_hex(), format!("point mismatch for k = {k}"))
            });
        }
        // On k·G shifted into each coset of the order-n subgroup: the
        // trace-based subgroup check against the definition (finite, on
        // the curve, n·P = O).
        for shift in &shifts {
            let p = reference.add(shift);
            let want = !p.is_infinity() && p.is_on_curve() && p.mul_binary(&n).is_infinity();
            let got = p.is_in_prime_order_subgroup();
            report.check(at, "order_binary/order_trace", got == want, || {
                (
                    k.to_hex(),
                    format!("subgroup check says {got} for k·G + {shift}"),
                )
            });
            // The projective wTNAF table build (one inversion per
            // table) against its affine `mul_binary` oracle at every
            // window width.
            let table_diff = (2..=8)
                .find(|&w| mul::precompute_table(&p, w) != mul::precompute_table_binary(&p, w));
            report.check(at, "table_binary/table_proj", table_diff.is_none(), || {
                let w = table_diff.expect("a disagreement names its width");
                (
                    k.to_hex(),
                    format!("tables differ at w = {w} for k·G + {shift}"),
                )
            });
        }
        // The joint comb of a promoted key against the two-lane double
        // multiply of an unpromoted one, for Q = k·G. The comb reads
        // explicit strips, so the verdict does not depend on the global
        // cache; then the cached entry point runs twice on Q (the w = 4
        // comb, then the promoted one, for a key it has not seen). The
        // first cases pair up the comb's scalar edges.
        let dm_edges = dm_scalar_edges();
        let (u1, u2) = match dm_edges.get(case) {
            Some(u1) => (u1.clone(), dm_edges[dm_edges.len() - 1 - case].clone()),
            None => {
                let mut dm_rng = SplitMix64::substream(config.seed, DM_COMB_DOMAIN, case as u64);
                (rand_scalar_wide(&mut dm_rng), rand_scalar_wide(&mut dm_rng))
            }
        };
        let q = reference;
        let table = mul::precompute_table(&q, mul::KP_WINDOW);
        let want = mul::double_multiply_with_table(&u1, &u2, &table).to_affine();
        // Q = O when k ≡ 0 (mod n): no λ strips, so the LD ones.
        let w = mul::KEY_COMB_WINDOW;
        let promoted = if q.is_infinity() {
            mul::double_multiply_with_strips(&u1, &u2, &mul::key_comb::<curve::Affine>(&q, w))
        } else {
            mul::double_multiply_with_strips(&u1, &u2, &mul::key_comb::<LambdaPoint>(&q, w))
        };
        let paths = [
            ("promoted key", promoted.to_affine()),
            ("first cached lookup", mul::double_multiply(&u1, &u2, &q)),
            ("second cached lookup", mul::double_multiply(&u1, &u2, &q)),
        ];
        for (path, got) in paths {
            report.check(at, "dm_horner/dm_comb", got == want, || {
                (
                    k.to_hex(),
                    format!(
                        "{path}: u1·G + u2·(k·G) differs from the two-lane double multiply \
                         for u1 = {u1}, u2 = {u2}"
                    ),
                )
            });
        }
        ld_lambda_pair(config, report, case);
        kp_comb_pair(config, report, case);
        coset_pair(config, report, case, &shifts[1..]);
        // The kG comb against the paper's single-table loop, and the
        // double multiply against the Horner sum, for Q = k·G.
        let horner = mul::mul_g_horner(&k).to_affine();
        let mut kg_rng = SplitMix64::substream(config.seed, KG_COMB_DOMAIN, case as u64);
        let u = rand_scalar_wide(&mut kg_rng);
        report.check(at, "kg_horner/kg_comb", mul::mul_g(&k) == horner, || {
            (k.to_hex(), "k·G differs from the Horner loop".to_string())
        });
        let want = horner.add(&mul::mul_wtnaf(&reference, &u, 4));
        let agreed = mul::double_multiply(&k, &u, &reference) == want;
        report.check(at, "kg_horner/kg_comb", agreed, || {
            (
                k.to_hex(),
                format!("k·G + u·(k·G) differs from the Horner sum for u = {u}"),
            )
        });
        // The double multiply against an oracle that shares no τ-adic
        // code: k·G + u·Q by affine double-and-add, for Q = k·G (the
        // other cosets are `binary/coset`'s).
        let agreed =
            mul::double_multiply(&k, &u, &reference) == reference.add(&reference.mul_binary(&u));
        report.check(at, "binary/double_mul", agreed, || {
            (
                k.to_hex(),
                format!("k·G + u·(k·G) differs from the binary oracle for u = {u}"),
            )
        });
        // The recoding fixed-length invariant (satellite fix): no
        // scalar may change the digit count.
        let fixed = tnaf::recode(&k, 4).len() == tnaf::recode_length()
            && tnaf::recode(&k, 6).len() == tnaf::recode_length();
        report.check(at, "recode/fixed_length", fixed, || {
            (
                k.to_hex(),
                "recode length depends on the scalar".to_string(),
            )
        });
        // The fixed-width recoding against its `Int` pipeline, at w = 1
        // and every window width.
        let recode_diff = (1..=8).find(|&w| tnaf::recode(&k, w) != tnaf::recode_int(&k, w));
        report.check(at, "recode_int/recode_fixed", recode_diff.is_none(), || {
            let w = recode_diff.expect("a disagreement names its width");
            (k.to_hex(), format!("digit strings differ at w = {w}"))
        });
        // Montgomery's trick mod n against per-element inversion.
        let batch = scalar_inv_batch(case, &k, &mut rng);
        let got = Scalar::batch_invert(&batch);
        let inv_diff = batch
            .iter()
            .zip(&got)
            .position(|(a, inv)| a.invert().as_ref() != Some(inv));
        report.check(
            at,
            "scalar_inv/scalar_batch_inv",
            inv_diff.is_none(),
            || {
                let i = inv_diff.expect("a disagreement names its element");
                (
                    batch[i].to_int().to_hex(),
                    format!("element {i} of a batch of {}", batch.len()),
                )
            },
        );
        // The fixed-width scalar arithmetic against `Int`.
        let mut fixed_rng = SplitMix64::substream(config.seed, SCALAR_FIXED_DOMAIN, case as u64);
        let fixed_diff = scalar_fixed_disagreement(fixed_edges.get(case), &mut fixed_rng);
        report.check(at, "scalar_int/scalar_fixed", fixed_diff.is_none(), || {
            (k.to_hex(), fixed_diff.expect("names the operation"))
        });
        // The variable-time public inverses against `Int`.
        let mut public_rng =
            SplitMix64::substream(config.seed, SCALAR_INV_PUBLIC_DOMAIN, case as u64);
        let public_diff =
            scalar_inv_public_disagreement(case, fixed_edges.get(case), &mut public_rng);
        report.check(
            at,
            "scalar_int/scalar_inv_public",
            public_diff.is_none(),
            || (k.to_hex(), public_diff.expect("names the input")),
        );
    }
}

// ---------------------------------------------------------------------
// Batch inversion and batch affine conversion.
// ---------------------------------------------------------------------

fn batch_phase(config: &DiffConfig, report: &mut DiffReport, cases: Range<usize>) {
    if cases.is_empty() {
        return;
    }
    let g = curve::generator();
    for case in cases {
        let at = ("batch", case);
        let mut rng = SplitMix64::substream(config.seed, BATCH_DOMAIN, case as u64);
        // Sizes sweep the empty batch, a singleton, then random widths.
        let len = match case {
            0 => 0,
            1 => 1,
            _ => 2 + rng.below(62) as usize,
        };
        let elems: Vec<Fe> = (0..len)
            .map(|_| {
                // ~10% zeros so the skip-in-place path is exercised.
                if rng.below(10) == 0 {
                    Fe::ZERO
                } else {
                    rand_fe(&mut rng)
                }
            })
            .collect();

        // Portable Montgomery batch vs pointwise inversion, at the drawn
        // width and widened past 128 elements (the width of a gateway
        // batch).
        let batch = gf2m::batch::batch_inverted(&elems);
        let mut widened = elems.clone();
        while widened.len() < len + 2 * 64 + 9 {
            widened.push(if rng.below(10) == 0 {
                Fe::ZERO
            } else {
                rand_fe(&mut rng)
            });
        }
        let widened_batch = gf2m::batch::batch_inverted(&widened);
        for (src, got) in [(&elems, &batch), (&widened, &widened_batch)] {
            let agreed = src.iter().zip(got).all(|(e, b)| match e.invert() {
                Some(inv) => *b == inv,
                None => b.is_zero(),
            });
            report.check(at, "pointwise_inv/batch_inv", agreed, || {
                (
                    format!("len {}", src.len()),
                    "Montgomery batch disagrees with pointwise inversion".to_string(),
                )
            });
        }

        // Counted tier: identical values, and the 1 + 3(N−1) formula.
        let counted_batch = gf2m::batch::batch_invert_counted(&elems);
        let nonzero = elems.iter().filter(|e| !e.is_zero()).count();
        let counts_ok = counted_batch.values == batch
            && counted_batch.inversions == u64::from(nonzero > 0)
            && counted_batch.muls as usize == 3 * nonzero.saturating_sub(1);
        report.check(at, "batch_inv/batch_inv_counted", counts_ok, || {
            (
                format!("len {len}, nonzero {nonzero}"),
                format!(
                    "counted batch: {} inversions, {} muls",
                    counted_batch.inversions, counted_batch.muls
                ),
            )
        });

        // Curve layer: batch affine conversion vs per-point to_affine,
        // with the point at infinity mixed in.
        let points: Vec<koblitz::LdPoint> = (0..len.min(6))
            .map(|_| {
                if rng.below(8) == 0 {
                    koblitz::LdPoint::INFINITY
                } else {
                    mul::mul_wtnaf_proj(&g, &rand_scalar_wide(&mut rng), 4)
                }
            })
            .collect();
        let converted = koblitz::batch_to_affine(&points);
        let pointwise: Vec<_> = points.iter().map(|p| p.to_affine()).collect();
        let agreed = converted == pointwise;
        report.check(at, "pointwise_affine/batch_affine", agreed, || {
            (
                format!("{} points", points.len()),
                "batch affine conversion disagrees with to_affine".to_string(),
            )
        });
    }
}

// ---------------------------------------------------------------------
// Wire frames.
// ---------------------------------------------------------------------

/// Stable variant label for the taxonomy map.
fn wire_error_label(e: &protocols::wire::WireError) -> &'static str {
    use protocols::wire::WireError::*;
    match e {
        BadPoint(_) => "BadPoint",
        IdentityPoint => "IdentityPoint",
        WrongOrder => "WrongOrder",
        BadScalar => "BadScalar",
        BadTag => "BadTag",
        BadLength { .. } => "BadLength",
        Oversize { .. } => "Oversize",
        Replayed { .. } => "Replayed",
    }
}

fn wire_phase(config: &DiffConfig, report: &mut DiffReport, cases: Range<usize>) {
    if cases.is_empty() {
        return;
    }
    let key = SigningKey::generate(b"verify differential wire identity");
    let pk_bytes = encode_public_key(key.public()).to_vec();
    let sig_bytes = encode_signature(&key.sign(b"wire differential message")).to_vec();
    let secret = [0x5au8; 32];
    let frame_bytes = SealedFrame::seal(&secret, 7, b"telemetry frame 0x2a")
        .as_bytes()
        .to_vec();

    for case in cases {
        let at = ("wire", case);
        let mut rng = SplitMix64::substream(config.seed, WIRE_DOMAIN, case as u64);
        let template: &[u8] = match case % 3 {
            0 => &pk_bytes,
            1 => &sig_bytes,
            _ => &frame_bytes,
        };
        let buf = mutate(template, &mut rng);

        match case % 3 {
            0 => {
                // Public key: slice decoder vs owned-array decoder.
                let slice = catch_unwind(AssertUnwindSafe(|| decode_public_key_slice(&buf)));
                let Ok(slice) = slice else {
                    report.wire_panics += 1;
                    continue;
                };
                tally(report, "pk", &slice);
                if let Ok(arr) = <&[u8; 31]>::try_from(buf.as_slice()) {
                    let owned = catch_unwind(AssertUnwindSafe(|| decode_public_key(arr)));
                    let Ok(owned) = owned else {
                        report.wire_panics += 1;
                        continue;
                    };
                    let agreed = owned == slice;
                    report.check(at, "decode_pk_slice/decode_pk_owned", agreed, || {
                        let still_fails = |b: &[u8]| {
                            <&[u8; 31]>::try_from(b)
                                .map(|arr| decode_public_key(arr) != decode_public_key_slice(b))
                                .unwrap_or(false)
                        };
                        (
                            wire_input(&buf, still_fails),
                            "public-key decoders returned different results".to_string(),
                        )
                    });
                } else {
                    // Wrong length must be the typed BadLength error.
                    let agreed = matches!(slice, Err(protocols::wire::WireError::BadLength { .. }));
                    report.check(at, "decode_pk_slice/length_taxonomy", agreed, || {
                        (
                            wire_input(&buf, |_| false),
                            format!("{}-byte public key: {slice:?}, not BadLength", buf.len()),
                        )
                    });
                }
            }
            1 => {
                let slice = catch_unwind(AssertUnwindSafe(|| decode_signature_slice(&buf)));
                let Ok(slice) = slice else {
                    report.wire_panics += 1;
                    continue;
                };
                tally(report, "sig", &slice);
                if let Ok(arr) = <&[u8; 60]>::try_from(buf.as_slice()) {
                    let owned = catch_unwind(AssertUnwindSafe(|| decode_signature(arr)));
                    let Ok(owned) = owned else {
                        report.wire_panics += 1;
                        continue;
                    };
                    let agreed = owned == slice;
                    report.check(at, "decode_sig_slice/decode_sig_owned", agreed, || {
                        let still_fails = |b: &[u8]| {
                            <&[u8; 60]>::try_from(b)
                                .map(|arr| decode_signature(arr) != decode_signature_slice(b))
                                .unwrap_or(false)
                        };
                        (
                            wire_input(&buf, still_fails),
                            "signature decoders returned different results".to_string(),
                        )
                    });
                } else {
                    let agreed = matches!(slice, Err(protocols::wire::WireError::BadLength { .. }));
                    report.check(at, "decode_sig_slice/length_taxonomy", agreed, || {
                        (
                            wire_input(&buf, |_| false),
                            format!("{}-byte signature: {slice:?}, not BadLength", buf.len()),
                        )
                    });
                }
            }
            _ => {
                // Sealed frame: parse, then authenticate. Both layers
                // must be panic-free; parse-then-open must agree with
                // parse-then-open on a reconstructed frame (owned
                // round-trip).
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    SealedFrame::from_bytes(&buf).and_then(|f| f.open(&secret))
                }));
                let Ok(outcome) = outcome else {
                    report.wire_panics += 1;
                    continue;
                };
                match &outcome {
                    Ok(_) => {
                        *report
                            .wire_taxonomy
                            .entry("frame/Accepted".into())
                            .or_insert(0) += 1
                    }
                    Err(e) => {
                        *report
                            .wire_taxonomy
                            .entry(format!("frame/{}", wire_error_label(e)))
                            .or_insert(0) += 1
                    }
                }
                // Owned round-trip: re-encoding a parsed frame and
                // re-parsing must be lossless and open identically. A
                // frame that does not parse agrees trivially.
                let agreed = SealedFrame::from_bytes(&buf).map_or(true, |frame| {
                    let reparsed = SealedFrame::from_bytes(frame.as_bytes())
                        .expect("re-encoding a parsed frame always parses");
                    reparsed.open(&secret) == outcome
                });
                report.check(at, "frame_parse/frame_roundtrip", agreed, || {
                    (
                        wire_input(&buf, |_| false),
                        "frame round-trip returned different results".to_string(),
                    )
                });
            }
        }
    }
}

fn tally<T>(report: &mut DiffReport, kind: &str, result: &Result<T, protocols::wire::WireError>) {
    let label = match result {
        Ok(_) => format!("{kind}/Accepted"),
        Err(e) => format!("{kind}/{}", wire_error_label(e)),
    };
    *report.wire_taxonomy.entry(label).or_insert(0) += 1;
}

/// The reported input of a wire disagreement: the mutated frame,
/// shrunk while `still_fails` holds.
fn wire_input(buf: &[u8], still_fails: impl Fn(&[u8]) -> bool) -> String {
    shrink::hex(&shrink::shrink_bytes(buf, still_fails))
}

/// One random mutation of a template frame: truncation/extension,
/// bit flips, or byte substitutions (occasionally left intact so the
/// accepted path is also exercised).
fn mutate(template: &[u8], rng: &mut SplitMix64) -> Vec<u8> {
    let mut buf = template.to_vec();
    match rng.below(5) {
        0 => {
            // Truncate (possibly to empty).
            let len = rng.below(buf.len() as u64 + 1) as usize;
            buf.truncate(len);
        }
        1 => {
            // Extend with random bytes.
            let extra = rng.below(16) as usize + 1;
            for _ in 0..extra {
                buf.push(rng.next_u32() as u8);
            }
        }
        2 if !buf.is_empty() => {
            // Flip 1–4 random bits.
            for _ in 0..rng.below(4) + 1 {
                let i = rng.below(buf.len() as u64) as usize;
                buf[i] ^= 1 << rng.below(8);
            }
        }
        3 if !buf.is_empty() => {
            // Substitute a random byte.
            let i = rng.below(buf.len() as u64) as usize;
            buf[i] = rng.next_u32() as u8;
        }
        _ => {} // intact
    }
    buf
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_agrees_everywhere() {
        // Inversion is sampled at every 32nd field case whose `a` is
        // non-zero; case 0 is the edge (0, 0), so 33 cases reach one
        // inversion, at the random case 32.
        const FIELD: usize = 33;
        let cfg = DiffConfig {
            seed: 1,
            field_cases: FIELD,
            scalar_cases: 14,
            wire_cases: 60,
            batch_cases: 6,
            target: m0plus::target::default_target(),
        };
        let report = run(&cfg);
        assert!(report.ok(), "{}", report.render());
        assert!(report.pairs.iter().all(|p| p.disagreements == 0));
        // Every named pair saw every case of its domain.
        let find = |name: &str| {
            report
                .pairs
                .iter()
                .find(|p| p.pair == name)
                .unwrap_or_else(|| panic!("missing pair {name}"))
                .cases
        };
        assert_eq!(find("portable/generic_u64"), FIELD);
        assert_eq!(find("portable/counted_ld"), FIELD);
        assert_eq!(find("portable/modeled_direct"), FIELD);
        assert_eq!(find("modeled_direct/modeled_code_cycles"), FIELD);
        assert_eq!(find("portable/generic_u64_inv"), 1);
        assert_eq!(find("portable/modeled_inv"), 1);
        // The linear maps exist on every host.
        assert_eq!(find("chain/table"), FIELD);
        // The carry-less kernels exist only on a CPU with PCLMULQDQ.
        if Clmul::detect().is_some() {
            assert_eq!(find("paper/clmul_mul"), FIELD);
            assert_eq!(find("paper/clmul_sqr"), FIELD);
            assert_eq!(find("eea/clmul_inv"), FIELD);
        } else {
            assert!(!report.pairs.iter().any(|p| p.pair.contains("clmul")));
        }
        // So does the SHA-NI compression: one message per field case.
        if ShaNi::detect().is_some() {
            assert_eq!(find("sha_portable/sha_ni"), FIELD);
        } else {
            assert!(!report.pairs.iter().any(|p| p.pair.contains("sha_ni")));
        }
        assert_eq!(find("binary/wtnaf_w4"), 14);
        assert_eq!(find("binary/tnaf"), 14);
        assert_eq!(find("binary/kg_window"), 14);
        assert_eq!(find("binary/ladder"), 14);
        assert_eq!(find("recode/fixed_length"), 14);
        assert_eq!(find("recode_int/recode_fixed"), 14);
        assert_eq!(find("scalar_inv/scalar_batch_inv"), 14);
        assert_eq!(find("scalar_int/scalar_fixed"), 14);
        assert_eq!(find("scalar_int/scalar_inv_public"), 14);
        // k·G shifted into each of the four cosets.
        assert_eq!(find("order_binary/order_trace"), 4 * 14);
        assert_eq!(find("table_binary/table_proj"), 4 * 14);
        // kG, then the double multiply on k·G.
        assert_eq!(find("kg_horner/kg_comb"), 2 * 14);
        assert_eq!(find("binary/double_mul"), 14);
        // Three double-multiply paths on k·G.
        assert_eq!(find("dm_horner/dm_comb"), 3 * 14);
        // kG, then kP and the double multiply on G and Q.
        assert_eq!(find("ld/lambda"), (1 + 2 * 2) * 14);
        // Four paths on each of six bases outside the subgroup.
        assert_eq!(find("binary/coset"), 4 * 6 * 14);
        // kP at w = 4 and 5, then the first-lookup double multiply.
        assert_eq!(find("kp_horner/kp_comb"), 3 * 14);
        // Each batch case checks the drawn batch and its widened copy.
        assert_eq!(find("pointwise_inv/batch_inv"), 12);
        assert_eq!(find("batch_inv/batch_inv_counted"), 6);
        assert_eq!(find("pointwise_affine/batch_affine"), 6);
    }

    #[test]
    fn a_failed_check_fails_the_verdict_under_its_pair() {
        let mut report = DiffReport::default();
        report.check(("field", 31), "portable/modeled_inv", true, || {
            panic!("an agreement builds no input or detail")
        });
        report.check(("field", 32), "portable/modeled_inv", false, || {
            ("00".to_string(), "inv: forced".to_string())
        });
        assert!(!report.ok());
        let pair = &report.pairs[0];
        assert_eq!(
            (pair.pair.as_str(), pair.cases, pair.disagreements),
            ("portable/modeled_inv", 2, 1)
        );
        let rendered = report.render();
        let lines: Vec<&str> = rendered
            .lines()
            .filter(|l| l.contains("DISAGREEMENT"))
            .collect();
        assert_eq!(
            lines,
            ["  DISAGREEMENT [field] portable/modeled_inv case 32: inv: forced (input 00)"]
        );
    }

    #[test]
    fn merge_keeps_counters_and_disagreements_in_step() {
        let explain = |detail: &str| (String::new(), detail.to_string());
        let mut first = DiffReport::default();
        first.check(("wire", 0), "b/pair", true, || explain("unused"));
        first.check(("wire", 1), "a/pair", false, || explain("first"));
        let mut second = DiffReport::default();
        second.check(("wire", 2), "a/pair", false, || explain("second"));
        second.check(("wire", 3), "b/pair", true, || explain("unused"));
        let merged = merge(&DiffConfig::smoke(), vec![first, second]);
        assert!(!merged.ok());
        let counters: Vec<_> = merged
            .pairs
            .iter()
            .map(|p| (p.pair.as_str(), p.cases, p.disagreements))
            .collect();
        assert_eq!(counters, [("a/pair", 2, 2), ("b/pair", 2, 0)]);
        let listed: Vec<_> = merged
            .disagreements
            .iter()
            .map(|d| (d.pair.as_str(), d.case_index, d.detail.as_str()))
            .collect();
        assert_eq!(listed, [("a/pair", 1, "first"), ("a/pair", 2, "second")]);
    }

    #[test]
    fn runs_are_deterministic() {
        let cfg = DiffConfig {
            seed: 99,
            field_cases: 10,
            scalar_cases: 13,
            wire_cases: 40,
            batch_cases: 5,
            target: m0plus::target::default_target(),
        };
        assert_eq!(run(&cfg).render(), run(&cfg).render());
    }

    #[test]
    fn windowed_runs_merge_to_the_full_report() {
        let cfg = DiffConfig {
            seed: 5,
            field_cases: 20,
            scalar_cases: 13,
            wire_cases: 33,
            batch_cases: 5,
            target: m0plus::target::default_target(),
        };
        let baseline = run(&cfg).render();
        let total = total_cases(&cfg);
        for shards in [2usize, 3, 7] {
            // Contiguous balanced windows, like bench::shard::windows.
            let mut parts = Vec::new();
            let mut start = 0;
            for i in 0..shards {
                let len = total / shards + usize::from(i < total % shards);
                parts.push(run_window(&cfg, start..start + len));
                start += len;
            }
            assert_eq!(start, total);
            assert_eq!(merge(&cfg, parts).render(), baseline, "shards = {shards}");
        }
    }

    #[test]
    fn scalar_edges_cover_the_required_cases() {
        let edges = scalar_edges();
        let n = curve::order();
        assert!(edges.iter().any(|k| k.is_zero()));
        assert!(edges.contains(&(&n - &Int::one())));
        assert!(edges.contains(&n));
        assert!(edges.iter().any(|k| k.bits() == 233), "top-bit-set");
    }

    #[test]
    fn wire_taxonomy_is_populated() {
        let cfg = DiffConfig {
            seed: 3,
            field_cases: 0,
            scalar_cases: 0,
            wire_cases: 120,
            batch_cases: 0,
            target: m0plus::target::default_target(),
        };
        let report = run(&cfg);
        assert!(report.ok(), "{}", report.render());
        assert!(report.wire_panics == 0);
        // Truncations dominate: BadLength must appear for all three
        // formats; the intact path must also have been exercised.
        assert!(report.wire_taxonomy.keys().any(|k| k.contains("BadLength")));
        assert!(
            report.wire_taxonomy.keys().any(|k| k.contains("Accepted")),
            "{:?}",
            report.wire_taxonomy
        );
    }
}
