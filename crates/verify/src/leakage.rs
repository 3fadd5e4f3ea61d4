//! The secret-independence checker.
//!
//! Each registered [`Kernel`] knows how to run one crypto kernel on a
//! *fresh, deterministic* machine with secrets drawn from a seed, and
//! returns the canonical [`Trace`] the m0plus recorder captured (PC
//! sequence, effective memory addresses, per-instruction cycles). The
//! engine runs every kernel on pairs of different seeds and compares
//! the traces class-by-class: a kernel is *independent* in a class iff
//! no pair ever diverged there. Machines are constructed identically on
//! every run, so slot addresses are reproducible and the only varying
//! input is the secret material itself.
//!
//! Dependence is not automatically a failure: the registry records, per
//! kernel, which classes are *allowed* to depend on the secret together
//! with the documented justification (e.g. the EEA inversion's
//! data-dependent loop, with the Itoh–Tsujii chain as the constant-time
//! alternative; or the wTNAF digit pattern the paper itself flags in
//! §5). A kernel's verdict is a failure only when it diverges in a
//! class the registry does not allow.

use gf2m::modeled::{ModeledField, Tier};
use gf2m::Fe;
use koblitz::modeled::ModeledMul;
use koblitz::{curve, Int};
use m0plus::{Trace, TraceClass, TraceDivergence};
use prng::SplitMix64;
use protocols::SigningKey;

/// How expensive one traced run of a kernel is — the campaign driver
/// uses fewer pairs for the point-multiplication kernels (each run is a
/// full scalar multiplication) than for the field kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cost {
    /// One field operation: hundreds to thousands of cycles.
    Cheap,
    /// A full point multiplication: hundreds of thousands of cycles.
    Expensive,
}

/// One registered crypto kernel.
pub struct Kernel {
    /// Kernel name; matches the `run_kernel` names used by the modeled
    /// tiers where one exists (`mul_asm`, `inv_eea_c`, …).
    pub name: &'static str,
    /// Run-cost class (drives the per-kernel pair budget).
    pub cost: Cost,
    /// Per-class allowance, indexed like [`TraceClass::ALL`]
    /// (`[pc, addr, cycles]`): `true` = secret-dependence in this class
    /// is documented and accepted.
    pub allowed: [bool; 3],
    /// Justification for any `true` entry in `allowed` (empty when the
    /// kernel must be fully independent).
    pub note: &'static str,
    run: Box<dyn Fn(u64) -> Trace>,
}

impl Kernel {
    /// Runs the kernel with secrets derived from `seed`, returning the
    /// captured trace.
    pub fn run(&self, seed: u64) -> Trace {
        (self.run)(seed)
    }
}

/// Observed outcome for one trace class of one kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassOutcome {
    /// No pair of runs ever diverged in this class.
    pub independent: bool,
    /// First observed divergence (disassembly of both sides), kept for
    /// the report.
    pub divergence: Option<TraceDivergence>,
}

/// Per-kernel leakage verdict.
#[derive(Debug, Clone)]
pub struct KernelVerdict {
    /// Kernel name (see [`Kernel::name`]).
    pub name: &'static str,
    /// Number of secret pairs compared.
    pub pairs: usize,
    /// Events in the first captured trace (a size sanity signal).
    pub trace_events: usize,
    /// Outcome per class, indexed like [`TraceClass::ALL`].
    pub classes: [ClassOutcome; 3],
    /// The registry's allowance, indexed like [`TraceClass::ALL`].
    pub allowed: [bool; 3],
    /// The registry's justification for allowed dependence.
    pub note: &'static str,
}

impl KernelVerdict {
    /// Whether every observed dependence is an allowed one.
    pub fn ok(&self) -> bool {
        self.classes
            .iter()
            .zip(self.allowed)
            .all(|(c, a)| c.independent || a)
    }

    /// Outcome label for one class: `independent`,
    /// `dependent (documented)` or `LEAK`.
    pub fn class_label(&self, i: usize) -> &'static str {
        if self.classes[i].independent {
            "independent"
        } else if self.allowed[i] {
            "dependent (documented)"
        } else {
            "LEAK"
        }
    }

    /// One-word overall verdict: `independent` when every class is
    /// independent, `documented-exception` when dependence stays within
    /// the registry allowance, `LEAK` otherwise.
    pub fn verdict(&self) -> &'static str {
        if !self.ok() {
            "LEAK"
        } else if self.classes.iter().all(|c| c.independent) {
            "independent"
        } else {
            "documented-exception"
        }
    }

    /// Multi-line report block for this kernel (deterministic).
    pub fn render(&self) -> String {
        let mut out = format!(
            "kernel {:<18} pairs={:<3} events={:<8}",
            self.name, self.pairs, self.trace_events
        );
        for (i, class) in TraceClass::ALL.iter().enumerate() {
            out.push_str(&format!(" {}={}", class.label(), self.class_label(i)));
        }
        out.push_str(&format!(" -> {}", self.verdict()));
        for (i, c) in self.classes.iter().enumerate() {
            if let (false, Some(d)) = (self.classes[i].independent, &c.divergence) {
                out.push_str(&format!("\n    first {d}"));
            }
        }
        if !self.note.is_empty() {
            out.push_str(&format!("\n    note: {}", self.note));
        }
        out
    }
}

/// Pair budget for a leakage campaign.
#[derive(Debug, Clone, Copy)]
pub struct LeakageConfig {
    /// Campaign seed; pair seeds are derived from it.
    pub seed: u64,
    /// Secret pairs per [`Cost::Cheap`] kernel.
    pub cheap_pairs: usize,
    /// Secret pairs per [`Cost::Expensive`] kernel.
    pub expensive_pairs: usize,
    /// The target cost model the kernels run under. Leakage verdicts
    /// must be target-invariant (a different cycle table rescales the
    /// trace uniformly per class, it cannot create or hide a
    /// divergence), and the `--target` axis lets CI check exactly that.
    pub target: &'static m0plus::TargetSpec,
}

impl LeakageConfig {
    /// The bounded CI smoke configuration (default target).
    pub fn smoke() -> LeakageConfig {
        LeakageConfig {
            seed: 0x1ea4a9e,
            cheap_pairs: 3,
            expensive_pairs: 1,
            target: m0plus::target::default_target(),
        }
    }

    /// The full campaign configuration (default target).
    pub fn full() -> LeakageConfig {
        LeakageConfig {
            seed: 0x1ea4a9e,
            cheap_pairs: 16,
            expensive_pairs: 2,
            target: m0plus::target::default_target(),
        }
    }
}

/// Checks one kernel over `pairs` pairs of seeds drawn from `rng`.
pub fn check_kernel(kernel: &Kernel, pairs: usize, rng: &mut SplitMix64) -> KernelVerdict {
    let mut classes: [ClassOutcome; 3] = std::array::from_fn(|_| ClassOutcome {
        independent: true,
        divergence: None,
    });
    let mut trace_events = 0;
    for _ in 0..pairs {
        let left = kernel.run(rng.next_u64());
        let right = kernel.run(rng.next_u64());
        trace_events = trace_events.max(left.len());
        for (i, &class) in TraceClass::ALL.iter().enumerate() {
            if classes[i].divergence.is_some() {
                continue; // keep the first example only
            }
            if let Some(d) = left.first_divergence(&right, class) {
                classes[i].independent = false;
                classes[i].divergence = Some(d);
            }
        }
    }
    KernelVerdict {
        name: kernel.name,
        pairs,
        trace_events,
        classes,
        allowed: kernel.allowed,
        note: kernel.note,
    }
}

/// Runs the whole registry under `config`, returning one verdict per
/// kernel in registry order.
pub fn run_campaign(config: &LeakageConfig) -> Vec<KernelVerdict> {
    let mut rng = SplitMix64::new(config.seed);
    registry_for(config.target)
        .iter()
        .map(|k| {
            let pairs = match k.cost {
                Cost::Cheap => config.cheap_pairs,
                Cost::Expensive => config.expensive_pairs,
            };
            check_kernel(k, pairs.max(1), &mut rng)
        })
        .collect()
}

// ---------------------------------------------------------------------
// Secret-input generators (all driven by the per-run seed).
// ---------------------------------------------------------------------

fn rand_fe(rng: &mut SplitMix64) -> Fe {
    let mut w = [0u32; 8];
    rng.fill_u32(&mut w);
    Fe::from_words_reduced(w)
}

fn rand_nonzero_fe(rng: &mut SplitMix64) -> Fe {
    loop {
        let fe = rand_fe(rng);
        if !fe.is_zero() {
            return fe;
        }
    }
}

/// A uniformly random scalar in [1, n).
fn rand_scalar(rng: &mut SplitMix64) -> Int {
    let n = curve::order();
    loop {
        let mut limbs = vec![0u32; 8];
        for l in limbs.iter_mut() {
            *l = rng.next_u32();
        }
        let k = Int::from_limbs(false, limbs).mod_positive(&n);
        if !k.is_zero() {
            return k;
        }
    }
}

// ---------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------

/// Traces one field-kernel closure on a fresh machine.
fn field_trace(
    tier: Tier,
    target: &'static m0plus::TargetSpec,
    seed: u64,
    body: impl Fn(&mut ModeledField, &mut SplitMix64),
) -> Trace {
    let mut rng = SplitMix64::new(seed);
    let mut f = ModeledField::with_target(tier, target);
    f.machine_mut().start_trace();
    body(&mut f, &mut rng);
    f.machine_mut().take_trace()
}

/// Traces one point-kernel closure on a fresh machine.
fn point_trace(
    tier: Tier,
    target: &'static m0plus::TargetSpec,
    seed: u64,
    body: impl Fn(&mut ModeledMul, &mut SplitMix64),
) -> Trace {
    let mut rng = SplitMix64::new(seed);
    let mut mm = ModeledMul::with_target(tier, target);
    mm.field_mut().machine_mut().start_trace();
    body(&mut mm, &mut rng);
    mm.field_mut().machine_mut().take_trace()
}

const LD_TABLE_NOTE: &str = "window/squaring table lookups are indexed by operand \
     nibbles, so effective addresses depend on the data; the M0+ has no cache, so \
     address variation costs no cycles and is unobservable in the Table-3 power model";
const EEA_NOTE: &str = "the binary EEA's loop structure depends on operand degrees \
     (data-dependent shifts and swaps); the constant-time alternative is the \
     Itoh-Tsujii chain (inv_itoh_tsujii), used by the ladder's final conversion";
const TNAF_NOTE: &str = "the wTNAF digit pattern steers which window entry is added \
     (the paper's section 5 names this SPA exposure as future work); digit-string \
     *length* is fixed by recode padding, and the Montgomery ladder is the \
     constant-time alternative";

/// Builds the full kernel registry on the default target: every crypto
/// kernel of the stack with its per-class allowance and justification.
pub fn registry() -> Vec<Kernel> {
    registry_for(m0plus::target::default_target())
}

/// [`registry`] with the kernels' machines costed for an explicit
/// registry target.
pub fn registry_for(target: &'static m0plus::TargetSpec) -> Vec<Kernel> {
    let dep = true; // documented dependence allowed
    let indep = false; // must be independent
    let mut kernels: Vec<Kernel> = Vec::new();

    // --- field multiplication (LD-fixed asm, LD-fixed C, LD-rotating C)
    for (name, tier) in [("mul_asm", Tier::Asm), ("mul_ld_fixed_c", Tier::C)] {
        kernels.push(Kernel {
            name,
            cost: Cost::Cheap,
            allowed: [indep, dep, indep],
            note: LD_TABLE_NOTE,
            run: Box::new(move |seed| {
                field_trace(tier, target, seed, |f, rng| {
                    let (a, b) = (rand_fe(rng), rand_fe(rng));
                    let (sa, sb, sz) = (f.alloc_init(a), f.alloc_init(b), f.alloc());
                    f.mul(sz, sa, sb);
                })
            }),
        });
    }
    kernels.push(Kernel {
        name: "mul_ld_rotating_c",
        cost: Cost::Cheap,
        allowed: [indep, dep, indep],
        note: LD_TABLE_NOTE,
        run: Box::new(move |seed| {
            field_trace(Tier::C, target, seed, |f, rng| {
                let (a, b) = (rand_fe(rng), rand_fe(rng));
                let (sa, sb, sz) = (f.alloc_init(a), f.alloc_init(b), f.alloc());
                f.mul_rotating_c(sz, sa, sb);
            })
        }),
    });

    // --- squaring (256-entry byte table)
    for (name, tier) in [("sqr_asm", Tier::Asm), ("sqr_c", Tier::C)] {
        kernels.push(Kernel {
            name,
            cost: Cost::Cheap,
            allowed: [indep, dep, indep],
            note: LD_TABLE_NOTE,
            run: Box::new(move |seed| {
                field_trace(tier, target, seed, |f, rng| {
                    let a = rand_fe(rng);
                    let (sa, sz) = (f.alloc_init(a), f.alloc());
                    f.sqr(sz, sa);
                })
            }),
        });
    }

    // --- standalone reduction: straight-line, fully independent
    kernels.push(Kernel {
        name: "reduce_c",
        cost: Cost::Cheap,
        allowed: [indep, indep, indep],
        note: "",
        run: Box::new(move |seed| {
            field_trace(Tier::C, target, seed, |f, rng| {
                let (a, b) = (rand_fe(rng), rand_fe(rng));
                let wide = gf2m::mul::mul_poly_ld(a.words(), b.words());
                let z = f.alloc();
                f.reduce(z, &wide);
            })
        }),
    });

    // --- support ops
    kernels.push(Kernel {
        name: "fe_add",
        cost: Cost::Cheap,
        allowed: [indep, indep, indep],
        note: "",
        run: Box::new(move |seed| {
            field_trace(Tier::C, target, seed, |f, rng| {
                let (a, b) = (rand_fe(rng), rand_fe(rng));
                let (sa, sb, sz) = (f.alloc_init(a), f.alloc_init(b), f.alloc());
                f.add(sz, sa, sb);
            })
        }),
    });
    kernels.push(Kernel {
        name: "fe_cswap",
        cost: Cost::Cheap,
        allowed: [indep, indep, indep],
        note: "",
        run: Box::new(move |seed| {
            field_trace(Tier::C, target, seed, |f, rng| {
                let (a, b) = (rand_fe(rng), rand_fe(rng));
                let bit = rng.next_u64() & 1 == 1; // the secret
                let (sa, sb) = (f.alloc_init(a), f.alloc_init(b));
                f.cswap(sa, sb, bit);
            })
        }),
    });

    // --- inversion: EEA (data-dependent) vs Itoh-Tsujii (fixed chain)
    kernels.push(Kernel {
        name: "inv_eea_c",
        cost: Cost::Cheap,
        allowed: [dep, dep, dep],
        note: EEA_NOTE,
        run: Box::new(move |seed| {
            field_trace(Tier::C, target, seed, |f, rng| {
                let a = rand_nonzero_fe(rng);
                let (sa, sz) = (f.alloc_init(a), f.alloc());
                f.inv(sz, sa);
            })
        }),
    });
    kernels.push(Kernel {
        name: "inv_itoh_tsujii",
        cost: Cost::Cheap,
        allowed: [indep, dep, indep],
        note: LD_TABLE_NOTE,
        run: Box::new(move |seed| {
            field_trace(Tier::C, target, seed, |f, rng| {
                let a = rand_nonzero_fe(rng);
                let (sa, sz) = (f.alloc_init(a), f.alloc());
                f.inv_itoh_tsujii(sz, sa);
            })
        }),
    });

    // --- scalar recoding (charged bignum passes; digit-dependent)
    kernels.push(Kernel {
        name: "wtnaf_recode",
        cost: Cost::Cheap,
        allowed: [dep, dep, dep],
        note: TNAF_NOTE,
        run: Box::new(move |seed| {
            point_trace(Tier::Asm, target, seed, |mm, rng| {
                let k = rand_scalar(rng);
                let digits = mm.recode_charged(&k, 4);
                // The satellite fix this verifier confirms: the digit
                // count must never depend on the scalar.
                assert_eq!(digits.len(), koblitz::tnaf::recode_length());
            })
        }),
    });

    // --- point multiplication
    kernels.push(Kernel {
        name: "kp",
        cost: Cost::Expensive,
        allowed: [dep, dep, dep],
        note: TNAF_NOTE,
        run: Box::new(move |seed| {
            point_trace(Tier::Asm, target, seed, |mm, rng| {
                let k = rand_scalar(rng);
                mm.kp(&curve::generator(), &k);
            })
        }),
    });
    kernels.push(Kernel {
        name: "kg",
        cost: Cost::Expensive,
        allowed: [dep, dep, dep],
        note: TNAF_NOTE,
        run: Box::new(move |seed| {
            point_trace(Tier::Asm, target, seed, |mm, rng| {
                let k = rand_scalar(rng);
                mm.kg(&k);
            })
        }),
    });
    kernels.push(Kernel {
        name: "ladder",
        cost: Cost::Expensive,
        allowed: [indep, dep, indep],
        note: "control flow and cycle count are scalar-independent (fixed 232 \
             iterations of masked cswap + fixed-role step); only the LD/squaring \
             window-table addresses inside each field op vary with the data, which \
             the cacheless M0+ cannot turn into a timing or Table-3 power signal",
        run: Box::new(move |seed| {
            point_trace(Tier::Asm, target, seed, |mm, rng| {
                let k = rand_scalar(rng);
                mm.ladder(&curve::generator(), &k);
            })
        }),
    });

    // --- ECDSA signing nonce path: derive k (host DRBG), then k·G on
    // the machine. Inherits kG's documented digit dependence.
    kernels.push(Kernel {
        name: "ecdsa_sign_nonce",
        cost: Cost::Expensive,
        allowed: [dep, dep, dep],
        note: TNAF_NOTE,
        run: Box::new(move |seed| {
            point_trace(Tier::Asm, target, seed, |mm, rng| {
                let mut key_seed = [0u8; 32];
                rng.fill_bytes(&mut key_seed);
                let key = SigningKey::generate(&key_seed);
                let k = key.derive_nonce(b"leakage-campaign message", 0);
                assert!(!k.is_zero(), "DRBG nonce is zero");
                mm.kg(&k.to_int());
            })
        }),
    });

    kernels
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verdict_for(name: &str, pairs: usize) -> KernelVerdict {
        let reg = registry();
        let kernel = reg.iter().find(|k| k.name == name).unwrap();
        check_kernel(kernel, pairs, &mut SplitMix64::new(42))
    }

    #[test]
    fn field_mul_kernels_are_cycle_and_pc_independent() {
        for name in ["mul_asm", "mul_ld_fixed_c", "mul_ld_rotating_c"] {
            let v = verdict_for(name, 4);
            assert!(v.ok(), "{name}: {}", v.render());
            assert!(v.classes[0].independent, "{name} pc");
            assert!(v.classes[2].independent, "{name} cycles");
            // The LD window lookup genuinely indexes by data, so the
            // address class must be seen to diverge — if it stopped
            // diverging, the table lookup model would be wrong.
            assert!(!v.classes[1].independent, "{name} addr should depend");
        }
    }

    #[test]
    fn sqr_reduce_add_cswap_verdicts() {
        for name in ["sqr_asm", "sqr_c"] {
            let v = verdict_for(name, 4);
            assert!(v.ok(), "{name}: {}", v.render());
            assert!(v.classes[0].independent && v.classes[2].independent);
        }
        for name in ["reduce_c", "fe_add", "fe_cswap"] {
            let v = verdict_for(name, 4);
            assert_eq!(v.verdict(), "independent", "{name}: {}", v.render());
        }
    }

    #[test]
    fn eea_inversion_is_detectably_data_dependent() {
        let v = verdict_for("inv_eea_c", 4);
        assert!(v.ok(), "allowed by the registry");
        assert_eq!(v.verdict(), "documented-exception");
        assert!(
            !v.classes[2].independent,
            "the EEA must show cycle dependence — the checker would be \
             blind if it cannot see it"
        );
        let d = v.classes[2].divergence.as_ref().unwrap();
        assert!(d.index > 0 || !d.left.is_empty());
    }

    #[test]
    fn itoh_tsujii_is_cycle_independent() {
        let v = verdict_for("inv_itoh_tsujii", 3);
        assert!(v.ok(), "{}", v.render());
        assert!(v.classes[0].independent && v.classes[2].independent);
    }

    #[test]
    fn recode_is_bounded_and_documented() {
        let v = verdict_for("wtnaf_recode", 2);
        assert!(v.ok(), "{}", v.render());
        assert_eq!(v.verdict(), "documented-exception");
    }

    #[test]
    fn render_mentions_disassembly_for_divergences() {
        let v = verdict_for("inv_eea_c", 2);
        let text = v.render();
        assert!(text.contains("first"), "{text}");
        assert!(text.contains("note:"), "{text}");
    }
}
