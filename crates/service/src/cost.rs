//! The gas meter: per-operation cycle/energy quotes derived from the
//! cost model *before* any execution.
//!
//! Every request is priced from the active target's canonical modeled
//! kernel runs — kG for signing, kP for key agreement, their sum for
//! verification and ECIES (the composition the paper's Table 3 energy
//! argument uses). The quote is the *accounting contract*: the plane
//! charges exactly the quoted cycles/energy when the request executes,
//! and the quote itself is reproducible bit-identically by re-running
//! the same canonical kernels under the same target (`tests/quotes.rs`
//! asserts this for the default and a non-default target).
//!
//! Canonical runs use one fixed scalar; real request scalars vary the
//! wTNAF digit pattern by a few percent around it. That residual is
//! the *quote-vs-actual* error the bench experiment samples and
//! exports — the price of quoting in O(1) instead of simulating every
//! request.

use crate::frame::Op;
use gf2m::modeled::Tier;
use koblitz::modeled::ModeledMul;
use koblitz::{generator, order, Int};
use m0plus::TargetSpec;
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// The implementation tier quotes are priced on: the paper's headline
/// assembly implementation.
pub const COST_TIER: Tier = Tier::Asm;

/// One operation's quoted cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpCost {
    /// Modeled cycles on the active target.
    pub cycles: u64,
    /// Modeled energy on the active target, picojoules.
    pub energy_pj: f64,
}

impl OpCost {
    /// Component-wise sum (quote composition for two-kernel ops).
    pub fn plus(self, other: OpCost) -> OpCost {
        OpCost {
            cycles: self.cycles + other.cycles,
            energy_pj: self.energy_pj + other.energy_pj,
        }
    }
}

/// The canonical quoting scalar: fixed, full-width, reduced mod n (the
/// same shape the bench workloads use). One scalar, so quotes are a
/// deterministic function of the target alone.
pub fn canonical_scalar() -> Int {
    let hex = format!("{:016x}", 0xC057u64.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    Int::from_hex(&hex.repeat(4))
        .expect("valid hex")
        .mod_positive(&order())
}

/// A target's price list: the two kernel costs every quote composes.
#[derive(Debug, Clone, PartialEq)]
pub struct CostTable {
    /// The registry target this table prices for.
    pub target: &'static TargetSpec,
    /// Canonical fixed-point multiplication (kG, offline comb table).
    pub kg: OpCost,
    /// Canonical random-point multiplication (kP, online wTNAF).
    pub kp: OpCost,
}

impl CostTable {
    /// Prices the table by running the canonical modeled kernels under
    /// `target` (two full modeled point multiplications — milliseconds
    /// of host time; use [`CostTable::shared`] for the cached copy).
    pub fn measure(target: &'static TargetSpec) -> CostTable {
        let k = canonical_scalar();
        let mut mm = ModeledMul::with_target(COST_TIER, target);
        let kg = mm.kg(&k);
        let mut mm = ModeledMul::with_target(COST_TIER, target);
        let kp = mm.kp(&generator(), &k);
        CostTable {
            target,
            kg: OpCost {
                cycles: kg.report.cycles,
                energy_pj: kg.report.energy_pj,
            },
            kp: OpCost {
                cycles: kp.report.cycles,
                energy_pj: kp.report.energy_pj,
            },
        }
    }

    /// The process-wide cached table for `target`, priced on first use.
    ///
    /// A poisoned lock is recovered, not propagated: a table is
    /// inserted only after [`CostTable::measure`] returns, so a panic
    /// while the lock is held never leaves a partial entry behind.
    pub fn shared(target: &'static TargetSpec) -> &'static CostTable {
        let mut map = shared_tables().lock().unwrap_or_else(|e| e.into_inner());
        if let Some(t) = map.get(target.name()) {
            return t;
        }
        // Leaked once per registry target — bounded by the registry.
        let table: &'static CostTable = Box::leak(Box::new(CostTable::measure(target)));
        map.insert(target.name(), table);
        table
    }

    /// The pre-execution quote for one operation: kG for sign, kP for
    /// ecdh, kG + kP for verify and ecies.
    pub fn quote(&self, op: Op) -> OpCost {
        match op {
            Op::Sign => self.kg,
            Op::Ecdh => self.kp,
            Op::Verify | Op::Ecies => self.kg.plus(self.kp),
        }
    }

    /// The most expensive quote in the price list (capacity planning:
    /// a tick's budget must cover at least one of these).
    pub fn max_quote(&self) -> OpCost {
        self.quote(Op::Ecies)
    }
}

/// The [`CostTable::shared`] cache, keyed by target name.
fn shared_tables() -> &'static Mutex<HashMap<&'static str, &'static CostTable>> {
    static TABLES: OnceLock<Mutex<HashMap<&'static str, &'static CostTable>>> = OnceLock::new();
    TABLES.get_or_init(|| Mutex::new(HashMap::new()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quotes_compose_from_the_two_kernels() {
        let t = CostTable::shared(m0plus::target::default_target());
        assert_eq!(t.quote(Op::Sign), t.kg);
        assert_eq!(t.quote(Op::Ecdh), t.kp);
        assert_eq!(t.quote(Op::Verify).cycles, t.kg.cycles + t.kp.cycles);
        assert_eq!(t.quote(Op::Ecies), t.quote(Op::Verify));
        assert_eq!(t.max_quote().cycles, t.quote(Op::Ecies).cycles);
        // Sanity: the paper's headline ordering (kG cheaper than kP).
        assert!(t.kg.cycles < t.kp.cycles);
        assert!(t.kg.energy_pj < t.kp.energy_pj);
    }

    #[test]
    fn shared_table_is_cached() {
        let t1 = CostTable::shared(m0plus::target::default_target());
        let t2 = CostTable::shared(m0plus::target::default_target());
        assert!(std::ptr::eq(t1, t2));
    }

    #[test]
    fn poisoned_lock_still_serves_correct_tables() {
        let target = m0plus::target::default_target();
        let cached = CostTable::shared(target);
        let panicked = std::thread::spawn(|| {
            let _held = shared_tables().lock();
            panic!("deliberate panic while holding the cost table lock");
        })
        .join();
        assert!(panicked.is_err());
        assert!(shared_tables().is_poisoned());
        let again = CostTable::shared(target);
        assert!(std::ptr::eq(cached, again));
        assert_eq!(*again, CostTable::measure(target));
    }

    #[test]
    fn canonical_scalar_is_full_width_and_reduced() {
        let k = canonical_scalar();
        assert!(!k.is_zero());
        assert!(k < order());
    }
}
