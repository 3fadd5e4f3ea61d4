//! Implementation profiles and the [`Engine`] facade.
//!
//! A [`Profile`] selects one of the implementations the paper measures
//! on the Cortex-M0+; the [`Engine`] runs point multiplications under
//! that profile on the cost model and returns both the point and the
//! measurement report.

use koblitz::curve::Affine;
use koblitz::modeled::{ModeledMul, PointMulRun};
use koblitz::mul::{KG_WINDOW, KP_WINDOW};
use koblitz::Int;
use m0plus::RunReport;

pub use gf2m::modeled::Tier;

/// One of the sect233k1 software implementations compared in §4.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Profile {
    /// The paper's proposed implementation: assembly field arithmetic
    /// (LD with fixed registers), wTNAF w = 4 for kP and w = 6 with an
    /// offline table for kG.
    ThisWorkAsm,
    /// The same algorithms with C-tier (compiler-like) field arithmetic
    /// — the "C language" column of Table 6.
    ThisWorkC,
    /// The RELIC-toolkit baseline of §4.2.1: generic-library C field
    /// arithmetic, wTNAF w = 4 with online precomputation for both kP
    /// and kG.
    RelicStyle,
}

impl Profile {
    /// All profiles, fastest first.
    pub const ALL: [Profile; 3] = [
        Profile::ThisWorkAsm,
        Profile::ThisWorkC,
        Profile::RelicStyle,
    ];

    /// Display label matching the paper's Table 4 rows.
    pub const fn label(self) -> &'static str {
        match self {
            Profile::ThisWorkAsm => "This work",
            Profile::ThisWorkC => "This work (C only)",
            Profile::RelicStyle => "Relic",
        }
    }

    /// The field-arithmetic tier this profile runs.
    pub fn tier(self) -> Tier {
        match self {
            Profile::ThisWorkAsm => Tier::Asm,
            Profile::ThisWorkC => Tier::C,
            Profile::RelicStyle => Tier::RelicC,
        }
    }
}

impl std::fmt::Display for Profile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A measured point multiplication: the result and the rig report.
#[derive(Debug, Clone)]
pub struct Measured {
    /// The computed point.
    pub point: Affine,
    /// Cycles, energy, power, per-category split.
    pub report: RunReport,
}

impl From<PointMulRun> for Measured {
    fn from(run: PointMulRun) -> Measured {
        Measured {
            point: run.result,
            report: run.report,
        }
    }
}

/// The measurement engine: runs the paper's operations under a selected
/// [`Profile`] on the Cortex-M0+ cost model.
///
/// ```
/// use ecc233::{Engine, Profile};
/// use koblitz::Int;
///
/// let engine = Engine::new(Profile::ThisWorkAsm);
/// let k = Int::from_hex("123456789abcdef")?;
/// let m = engine.mul_g(&k);
/// assert!(!m.point.is_infinity());
/// assert!(m.report.cycles > 0);
/// # Ok::<(), koblitz::int::ParseIntError>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Engine {
    profile: Profile,
}

impl Engine {
    /// Creates an engine for `profile`, priced under the default target
    /// (`cortex-m0plus`, the paper's platform).
    pub fn new(profile: Profile) -> Engine {
        Engine { profile }
    }

    /// The selected profile.
    pub fn profile(&self) -> Profile {
        self.profile
    }

    /// Fixed-point multiplication k·G with measurement.
    pub fn mul_g(&self, k: &Int) -> Measured {
        let mut mm = ModeledMul::new(self.profile.tier());
        let run = match self.profile {
            Profile::RelicStyle => {
                // RELIC's generic fixed-point path: same as kP with the
                // generator (online precomputation, w = 4).
                mm.run(&koblitz::generator(), k, KP_WINDOW, true)
            }
            _ => mm.run(&koblitz::generator(), k, KG_WINDOW, false),
        };
        run.into()
    }

    /// Random-point multiplication k·P with measurement.
    pub fn mul_point(&self, p: &Affine, k: &Int) -> Measured {
        let mut mm = ModeledMul::new(self.profile.tier());
        mm.run(p, k, KP_WINDOW, true).into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use koblitz::order;

    fn scalar() -> Int {
        Int::from_hex(&"5c".repeat(29))
            .unwrap()
            .mod_positive(&order())
    }

    #[test]
    fn profiles_order_by_speed() {
        let k = scalar();
        let cycles: Vec<u64> = Profile::ALL
            .iter()
            .map(|&p| Engine::new(p).mul_g(&k).report.cycles)
            .collect();
        assert!(
            cycles[0] < cycles[1] && cycles[1] < cycles[2],
            "expected asm < C < RELIC, got {cycles:?}"
        );
    }

    #[test]
    fn all_profiles_compute_the_same_point() {
        let k = scalar();
        let want = koblitz::mul::mul_g(&k);
        for p in Profile::ALL {
            assert_eq!(Engine::new(p).mul_g(&k).point, want, "{p}");
        }
    }

    #[test]
    fn this_work_beats_relic_by_about_2x_kp() {
        // §4.2.2: "our random point implementation is 1.99 times faster".
        let k = scalar();
        let g = koblitz::generator();
        let ours = Engine::new(Profile::ThisWorkAsm).mul_point(&g, &k);
        let relic = Engine::new(Profile::RelicStyle).mul_point(&g, &k);
        let ratio = relic.report.cycles as f64 / ours.report.cycles as f64;
        assert!(
            (1.5..2.6).contains(&ratio),
            "kP speedup {ratio:.2} (paper: 1.99)"
        );
    }

    #[test]
    fn this_work_beats_relic_by_about_3x_kg() {
        // §4.2.2: "our fixed point implementation is 2.98 times faster".
        let k = scalar();
        let ours = Engine::new(Profile::ThisWorkAsm).mul_g(&k);
        let relic = Engine::new(Profile::RelicStyle).mul_g(&k);
        let ratio = relic.report.cycles as f64 / ours.report.cycles as f64;
        assert!(
            (2.0..3.5).contains(&ratio),
            "kG speedup {ratio:.2} (paper: 2.98)"
        );
    }

    #[test]
    fn kg_is_cheaper_than_kp_under_this_work() {
        let k = scalar();
        let e = Engine::new(Profile::ThisWorkAsm);
        let kg = e.mul_g(&k);
        let kp = e.mul_point(&koblitz::generator(), &k);
        assert!(kg.report.cycles < kp.report.cycles);
        assert!(kg.report.energy_uj() < kp.report.energy_uj());
    }
}
