//! Machine-modeled point multiplication: the paper's kP and kG running
//! on the [`m0plus`] cost model with Table-7 category attribution.
//!
//! The *control flow* (which field operation happens when) is driven
//! from Rust, but every field operation, support copy and per-digit
//! dispatch executes as charged instructions on the machine inside
//! [`gf2m::modeled::ModeledField`], so cycle totals are measured from
//! executed instruction streams. Category assignment follows the paper:
//!
//! * scalar recoding → *TNAF Representation*;
//! * the per-call window-table (α_u·P) construction, including its
//!   field operations and the simultaneous-inversion normalisation →
//!   *TNAF Precomputation* (zero for kG, whose table is offline);
//! * field multiplications → *Multiply*, with the per-multiplication
//!   López-Dahab look-up-table generation split into
//!   *Multiply Precomputation*;
//! * squarings → *Square*; the final conversion's inversion →
//!   *Inversion*; copies, digit dispatch and point bookkeeping →
//!   *Support functions*.

use crate::curve::Affine;
use crate::formulas::{self, FieldOps, Xy, Xz};
use crate::int::Int;
use crate::mul::{KG_WINDOW, KP_WINDOW};
use crate::projective::LdPoint;
use crate::tnaf;
use gf2m::modeled::{FeSlot, ModeledField, Tier};
use gf2m::Fe;
use m0plus::{Category, Cond, Reg, RunReport};

/// The widest window a modeled multiplication runs (the paper's kG).
const MAX_WINDOW: u32 = 6;

/// Window-table entries at [`MAX_WINDOW`]: 2^(w−2) = 16.
const TABLE_LEN: usize = 1 << (MAX_WINDOW - 2);

/// Result of one modeled point multiplication.
#[derive(Debug, Clone)]
pub struct PointMulRun {
    /// The computed point (verified against the portable tier).
    pub result: Affine,
    /// Cycle/energy/category report of the run.
    pub report: RunReport,
}

/// Individually toggleable fault-detection countermeasures for
/// [`ModeledMul::kp_hardened`]. Every enabled check runs as *charged*
/// instructions (attributed to *Support functions*), so its
/// cycle/energy overhead is measured by the cost model rather than
/// estimated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Hardening {
    /// Verify the base point satisfies the curve equation before
    /// multiplying (the invalid-point-attack gate).
    pub validate_base: bool,
    /// Reject a point-at-infinity result (the degenerate output a
    /// glitched accumulator or a small-order input produces).
    pub reject_infinity: bool,
    /// Verify the affine result satisfies the curve equation after the
    /// final conversion (the post-kP coherence check).
    pub check_result: bool,
}

impl Hardening {
    /// All countermeasures off — cost-identical to [`ModeledMul::kp`].
    pub const OFF: Hardening = Hardening {
        validate_base: false,
        reject_infinity: false,
        check_result: false,
    };

    /// All countermeasures on (the campaign's "full" profile).
    pub const FULL: Hardening = Hardening {
        validate_base: true,
        reject_infinity: true,
        check_result: true,
    };
}

/// A hardened multiplication rejected its input or output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HardeningError {
    /// The base point failed the curve-equation check.
    BaseNotOnCurve,
    /// The result was the point at infinity.
    ResultInfinity,
    /// The converted result failed the curve-equation check.
    ResultNotOnCurve,
}

impl std::fmt::Display for HardeningError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HardeningError::BaseNotOnCurve => f.write_str("base point is not on the curve"),
            HardeningError::ResultInfinity => f.write_str("result degenerated to infinity"),
            HardeningError::ResultNotOnCurve => f.write_str("result is not on the curve"),
        }
    }
}

impl std::error::Error for HardeningError {}

/// The modeled point multiplier. Owns a [`ModeledField`] and a bank of
/// reusable element slots, allocated once: repeated multiplications on
/// one multiplier use no further machine RAM.
#[derive(Debug)]
pub struct ModeledMul {
    f: ModeledField,
    acc: LdPoint<FeSlot>,
    table: Vec<Xy<FeSlot>>,
    neg: Xy<FeSlot>,
    tau_p: Xy<FeSlot>,
    base: Xy<FeSlot>,
    tmp: [FeSlot; 10],
    bn_scratch: FeSlot,
    /// The table build's Z denominators of entries 1.., and their
    /// prefix products for the one simultaneous inversion.
    zs: Vec<FeSlot>,
    prods: Vec<FeSlot>,
}

impl ModeledMul {
    /// Creates a modeled multiplier on the given implementation tier.
    /// Switch it to [`Backend::Code`](m0plus::Backend::Code) through
    /// [`ModeledMul::field_mut`]`().set_backend(..)`: every charged
    /// kernel — field arithmetic, bignum recoding passes, digit
    /// dispatch, ladder swaps — is then assembled to Thumb-16 and
    /// replayed from machine code.
    pub fn new(tier: Tier) -> Self {
        Self::with_target(tier, m0plus::target::default_target())
    }

    /// Creates a modeled multiplier costed for a target from the
    /// [`m0plus::target`] registry (default target ≡ [`ModeledMul::new`]).
    pub fn with_target(tier: Tier, target: &m0plus::TargetSpec) -> Self {
        Self::with_field(ModeledField::with_machine(
            tier,
            m0plus::Machine::with_target(64 * 1024, target),
        ))
    }

    /// Wraps an existing modeled field.
    pub fn with_field(mut f: ModeledField) -> Self {
        let acc = LdPoint {
            x: f.alloc(),
            y: f.alloc(),
            z: f.alloc(),
        };
        let mut xy = || Xy {
            x: f.alloc(),
            y: f.alloc(),
        };
        // Enough table slots for the widest window (w = 6 → 16 entries).
        let table = (0..TABLE_LEN).map(|_| xy()).collect();
        let (neg, tau_p, base) = (xy(), xy(), xy());
        let tmp = [(); 10].map(|_| f.alloc());
        let bn_scratch = f.alloc();
        let [zs, prods] = [(); 2].map(|_| (1..TABLE_LEN).map(|_| f.alloc()).collect());
        ModeledMul {
            f,
            acc,
            table,
            neg,
            tau_p,
            base,
            tmp,
            bn_scratch,
            zs,
            prods,
        }
    }

    /// The underlying field/machine (for reports beyond [`PointMulRun`]).
    pub fn field(&self) -> &ModeledField {
        &self.f
    }

    /// Mutable access to the underlying field/machine (the leakage
    /// verifier arms and drains the trace recorder through this).
    pub fn field_mut(&mut self) -> &mut ModeledField {
        &mut self.f
    }

    // ------------------------------------------------------------------
    // Charged big-integer work: TNAF representation.
    // ------------------------------------------------------------------

    /// Charges one RELIC-style full-width bignum pass (16 words through
    /// a called helper): the building block of the recoding loop.
    fn charge_bn_pass(&mut self, per_word: u32) {
        let s = self.bn_scratch;
        self.f.run_kernel("bn_pass", |m| {
            m.bl();
            m.set_base(Reg::R0, s.0);
            for i in 0..16u32 {
                m.ldr(Reg::R4, Reg::R0, i % 8);
                for _ in 0..per_word.saturating_sub(5) {
                    m.lsrs_imm(Reg::R5, Reg::R4, 1);
                }
                m.str(Reg::R4, Reg::R0, i % 8);
                m.adds_imm(Reg::R6, 1);
                m.cmp_imm(Reg::R6, 16);
                m.b_cond(Cond::Ne);
            }
            m.bx();
        });
    }

    /// Charges an `a_words × b_words` limb schoolbook multi-precision
    /// multiplication using the ARMv6-M 16-bit splitting (four `MULS`
    /// plus recombination per limb product).
    fn charge_bn_mul(&mut self, a_words: u32, b_words: u32) {
        let s = self.bn_scratch;
        self.f.run_kernel("bn_mul", |m| {
            m.bl();
            m.set_base(Reg::R0, s.0);
            for i in 0..a_words {
                m.ldr(Reg::R4, Reg::R0, i % 8);
                for _ in 0..b_words {
                    m.uxth(Reg::R5, Reg::R4);
                    m.lsrs_imm(Reg::R6, Reg::R4, 16);
                    m.muls(Reg::R5, Reg::R5);
                    m.muls(Reg::R6, Reg::R6);
                    m.uxth(Reg::R7, Reg::R4);
                    m.muls(Reg::R7, Reg::R4);
                    m.lsrs_imm(Reg::R3, Reg::R4, 16);
                    m.muls(Reg::R3, Reg::R4);
                    m.lsls_imm(Reg::R7, Reg::R7, 16);
                    m.adds(Reg::R5, Reg::R5, Reg::R7);
                    m.adcs(Reg::R6, Reg::R3);
                    m.ldr(Reg::R7, Reg::R0, (i + 1) % 8);
                    m.adds(Reg::R7, Reg::R7, Reg::R5);
                    m.str(Reg::R7, Reg::R0, (i + 1) % 8);
                    m.adcs(Reg::R6, Reg::R6);
                }
                m.adds_imm(Reg::R2, 1);
                m.cmp_imm(Reg::R2, 8);
                m.b_cond(Cond::Ne);
            }
            m.bx();
        });
    }

    /// Computes the width-w TNAF of `k` portably while charging the
    /// *TNAF Representation* category with the modeled recoding cost:
    /// the two λ-numerator multiplications and rounding divisions of the
    /// partial reduction, then per digit the parity test, the two
    /// halving shifts and (for non-zero digits) the representative
    /// subtraction — all as RELIC-style full-width helper calls.
    fn tnaf_representation(&mut self, k: &Int, w: u32) -> Vec<i8> {
        let digits = tnaf::recode(k, w);
        self.f
            .machine_mut()
            .set_category_override(Some(Category::TnafRepresentation));
        // partmod: a_i = s_i·k (4×8 limbs each) and two rounding
        // divisions by n (charged as multiply-back long division with 8
        // quotient limbs).
        self.charge_bn_mul(4, 8);
        self.charge_bn_mul(4, 8);
        for _ in 0..2 {
            for _ in 0..8 {
                self.charge_bn_mul(1, 8);
                self.charge_bn_pass(7); // compare + subtract correction
            }
        }
        // ρ = k − qδ: two more products and recombination.
        self.charge_bn_mul(4, 4);
        self.charge_bn_mul(4, 4);
        self.charge_bn_pass(7);
        // Digit loop.
        for &d in &digits {
            self.f.run_kernel("tnaf_digit_parity", |m| {
                m.ldr(Reg::R4, Reg::R0, 0);
                m.movs_imm(Reg::R5, 1);
                m.ands(Reg::R4, Reg::R5);
                m.b_cond(Cond::Ne);
            });
            if d != 0 {
                // u = (r0 + r1·t_w) mods 2^w, then subtract the
                // representative from both components.
                self.charge_bn_pass(7);
                self.charge_bn_pass(7);
            }
            // Two halving shifts and the recombination add.
            self.charge_bn_pass(9);
            self.charge_bn_pass(9);
            self.charge_bn_pass(7);
        }
        self.f.machine_mut().set_category_override(None);
        digits
    }

    /// Public entry to the charged recoding for the leakage verifier:
    /// computes the width-w TNAF of `k` while charging the modeled
    /// recoding cost to *TNAF Representation*: the partial reduction's
    /// products and rounding divisions, then per digit the parity test,
    /// the halving shifts and, for a non-zero digit, the representative
    /// subtraction.
    pub fn recode_charged(&mut self, k: &Int, w: u32) -> Vec<i8> {
        self.tnaf_representation(k, w)
    }

    // ------------------------------------------------------------------
    // Modeled point arithmetic: the shared formulas on slots, with `acc`
    // as the accumulator and `neg` holding a negated table point.
    // ------------------------------------------------------------------

    /// Per-digit dispatch overhead (digit fetch, compare, branch),
    /// charged to *Support*.
    fn charge_digit_dispatch(&mut self) {
        self.f.run_kernel("digit_dispatch", |m| {
            m.in_category(Category::Support, |m| {
                m.ldr(Reg::R4, Reg::R0, 0);
                m.cmp_imm(Reg::R4, 0);
                m.b_cond(Cond::Ne);
                m.b_cond(Cond::Mi);
            });
        });
    }

    /// Charged curve-equation check of the affine point held in
    /// `(x, y)`: y² + xy = x³ + b, as 2M + 2S + two additions, the
    /// constant store and the compare, attributed to *Support*.
    fn on_curve_check(&mut self, x: FeSlot, y: FeSlot) -> bool {
        let [t1, t2, t3, ..] = self.tmp;
        let prev = self.f.machine().category_override();
        self.f
            .machine_mut()
            .set_category_override(Some(Category::Support));
        self.f.sqr(t1, y);
        self.f.mul(t2, x, y);
        self.f.add(t1, t1, t2); // y² + xy
        self.f.sqr(t2, x);
        self.f.mul(t2, t2, x);
        self.f.set_const(t3, crate::curve::B);
        self.f.add(t2, t2, t3); // x³ + b
        let ok = self.f.equal(t1, t2);
        self.f.machine_mut().set_category_override(prev);
        ok
    }

    // ------------------------------------------------------------------
    // Precomputation.
    // ------------------------------------------------------------------

    /// Builds the window table for `p` in machine RAM *with* charging
    /// (kP: the paper's TNAF-precomputation phase): computes each
    /// α_u·P = β·P + γ·τP, with (β, γ) from the per-width table of
    /// [`tnaf`], through modeled additions in projective coordinates and
    /// normalises all entries with one simultaneous inversion.
    fn precompute_charged(&mut self, p: &Affine, w: u32) {
        self.f
            .machine_mut()
            .set_category_override(Some(Category::TnafPrecomputation));

        // Base point and τP as affine machine residents of this call.
        let base = self.base;
        self.f.store(base.x, p.x());
        self.f.store(base.y, p.y());
        let tau_p = self.tau_p;
        self.f.sqr(tau_p.x, base.x);
        self.f.sqr(tau_p.y, base.y);

        // Entry 0 is P itself (a support copy).
        let t0 = self.table[0];
        self.f.copy(t0.x, base.x);
        self.f.copy(t0.y, base.y);

        // Compute entries 1.. in projective coordinates, parking X and Y
        // in the entry's slots and Z in `zs` for one simultaneous
        // inversion at the end.
        let alphas = tnaf::window(w).alphas();
        for (i, &(beta, gamma)) in alphas.iter().enumerate().skip(1) {
            formulas::set_infinity(self, self.acc);
            for (coeff, pt) in [(beta, base), (gamma, tau_p)] {
                for _ in 0..coeff.unsigned_abs() {
                    let q = if coeff < 0 {
                        formulas::negate(self, self.neg, pt)
                    } else {
                        pt
                    };
                    formulas::add_affine(self, self.acc, q);
                }
            }
            let (entry, acc) = (self.table[i], self.acc);
            self.f.copy(entry.x, acc.x);
            self.f.copy(entry.y, acc.y);
            self.f.copy(self.zs[i - 1], acc.z);
        }

        // w = 2 has no non-trivial entries (the table is {P}).
        let pending = alphas.len() - 1;
        if pending == 0 {
            self.f.machine_mut().set_category_override(None);
            return;
        }

        // Simultaneous inversion (Montgomery's trick).
        let (zs, prods) = (&self.zs, &self.prods);
        for j in 0..pending {
            if j == 0 {
                self.f.copy(prods[0], zs[0]);
            } else {
                self.f.mul(prods[j], prods[j - 1], zs[j]);
            }
        }
        // The formulas' scratch slots are free here.
        let [inv_run, zi, .., t, scratch] = self.tmp;
        self.f.inv(inv_run, prods[pending - 1]);
        for j in (0..pending).rev() {
            if j == 0 {
                self.f.copy(zi, inv_run);
            } else {
                self.f.mul(zi, inv_run, prods[j - 1]);
                self.f.mul(t, inv_run, zs[j]);
                self.f.copy(inv_run, t);
            }
            // Affine: x = X·zi, y = Y·zi².
            let entry = self.table[j + 1];
            self.f.mul(entry.x, entry.x, zi);
            self.f.sqr(scratch, zi);
            self.f.mul(entry.y, entry.y, scratch);
        }

        self.f.machine_mut().set_category_override(None);
    }

    /// Loads the precomputed generator table (w = 6) into machine RAM
    /// *without* charging: the paper computes it offline and stores it
    /// in flash, and its Table 7 charges kG zero TNAF precomputation.
    fn load_generator_table(&mut self) {
        for (i, p) in crate::mul::generator_table().iter().enumerate() {
            let entry = self.table[i];
            self.f.store(entry.x, p.x());
            self.f.store(entry.y, p.y());
        }
    }

    // ------------------------------------------------------------------
    // The two public operations.
    // ------------------------------------------------------------------

    /// Random-point multiplication k·P (the paper's kP: wTNAF, w = 4).
    ///
    /// # Panics
    ///
    /// Panics if `k` is negative.
    pub fn kp(&mut self, p: &Affine, k: &Int) -> PointMulRun {
        self.run(p, k, KP_WINDOW, true)
    }

    /// Fixed-point multiplication k·G (the paper's kG: wTNAF, w = 6,
    /// offline table loaded without charge).
    ///
    /// # Panics
    ///
    /// Panics if `k` is negative.
    pub fn kg(&mut self, k: &Int) -> PointMulRun {
        let g = crate::curve::generator();
        self.run(&g, k, KG_WINDOW, false)
    }

    /// General modeled multiplication: window width `w`, with the table
    /// either built online (charged to *TNAF Precomputation*, as the
    /// paper's kP and the RELIC baseline do for every multiplication) or
    /// loaded offline (the paper's kG).
    ///
    /// # Panics
    ///
    /// Panics if `k` is negative, if `w` is outside 2..=6 (the slot bank
    /// holds the w = 6 table), or if an offline table is requested for a
    /// point other than the generator.
    pub fn run(&mut self, p: &Affine, k: &Int, w: u32, charge_precomp: bool) -> PointMulRun {
        self.run_hardened(p, k, w, charge_precomp, Hardening::OFF)
            .expect("an unhardened run rejects nothing")
    }

    /// Random-point multiplication with the selected fault
    /// countermeasures (the campaign's hardened profiles). With every
    /// toggle off this is cost-identical to [`ModeledMul::kp`]; each
    /// enabled check adds charged *Support* instructions whose overhead
    /// shows up in [`PointMulRun::report`].
    ///
    /// # Errors
    ///
    /// Returns the first failed check. A rejected run aborts the
    /// protocol operation, so no report is produced for it.
    ///
    /// # Panics
    ///
    /// Panics if `k` is negative.
    pub fn kp_hardened(
        &mut self,
        p: &Affine,
        k: &Int,
        hardening: Hardening,
    ) -> Result<PointMulRun, HardeningError> {
        self.run_hardened(p, k, KP_WINDOW, true, hardening)
    }

    /// The shared body of [`ModeledMul::run`] and
    /// [`ModeledMul::kp_hardened`]: recode, build/load the window
    /// table and evaluate, between the enabled checks. Degenerate inputs
    /// set the accumulator to a coherent infinity so post-run checks
    /// read real machine state.
    fn run_hardened(
        &mut self,
        p: &Affine,
        k: &Int,
        w: u32,
        charge_precomp: bool,
        hardening: Hardening,
    ) -> Result<PointMulRun, HardeningError> {
        assert!(!k.is_negative(), "scalar must be non-negative");
        assert!(
            (2..=MAX_WINDOW).contains(&w),
            "modeled window width {w} is outside 2..={MAX_WINDOW}"
        );
        let snap = self.f.machine().snapshot();
        if hardening.validate_base {
            if let Affine::Point { x, y } = *p {
                let base = self.base;
                self.f.store(base.x, x);
                self.f.store(base.y, y);
                if !self.on_curve_check(base.x, base.y) {
                    return Err(HardeningError::BaseNotOnCurve);
                }
            }
        }
        let degenerate = p.is_infinity() || k.is_zero();
        let result = if degenerate {
            formulas::set_infinity(self, self.acc);
            Affine::Infinity
        } else {
            let digits = self.tnaf_representation(k, w);
            if charge_precomp {
                self.precompute_charged(p, w);
            } else {
                assert_eq!(
                    *p,
                    crate::curve::generator(),
                    "offline tables exist for the generator only"
                );
                assert_eq!(w, KG_WINDOW, "the offline table is built for w = 6");
                self.load_generator_table();
            }
            self.main_loop(&digits)
        };
        if hardening.reject_infinity && self.f.is_zero(self.acc.z) {
            return Err(HardeningError::ResultInfinity);
        }
        if hardening.check_result && !result.is_infinity() {
            let (xs, ys) = (self.tmp[6], self.tmp[7]);
            if !self.on_curve_check(xs, ys) {
                return Err(HardeningError::ResultNotOnCurve);
            }
        }
        let report = self.f.machine().report_since(&snap);
        if !degenerate {
            let expect = crate::mul::mul_wtnaf(p, k, w);
            assert_eq!(
                result, expect,
                "modeled multiplication diverged from portable"
            );
        }
        Ok(PointMulRun { result, report })
    }

    /// Constant-time Montgomery-ladder multiplication on the cost model
    /// (the paper's §5 future work). Performs exactly the same
    /// instruction sequence for every scalar: 232 ladder steps of one
    /// differential addition (4M + 1S) and one doubling (1M + 4S), with
    /// the y-coordinate recovered at the end (1 inversion + a handful of
    /// multiplications). The cycle count is therefore
    /// scalar-independent, which the tests assert bit-for-bit.
    ///
    /// # Panics
    ///
    /// Panics if `k` is negative or `p` is infinity / the 2-torsion
    /// point.
    pub fn ladder(&mut self, p: &Affine, k: &Int) -> PointMulRun {
        let (xp_val, bits) = crate::mul::ladder_setup(p, k);
        let snap = self.f.machine().snapshot();
        let Some(bits) = bits else {
            let report = self.f.machine().report_since(&snap);
            return PointMulRun {
                result: Affine::Infinity,
                report,
            };
        };

        // Slots: xp constant, two ladder points (x-only), scratch.
        let xp = self.base.x;
        self.f.store(xp, xp_val);
        let (x1, z1) = (self.acc.x, self.acc.y);
        let (x2, z2) = (self.neg.x, self.neg.y);
        let [t1, t2, t3, ..] = self.tmp;
        // R0 = P, R1 = 2P.
        self.f.copy(x1, xp);
        self.f.set_const(z1, Fe::ONE);
        self.f.sqr(t1, xp); // x²
        self.f.sqr(t2, t1); // x⁴
        self.f.set_const(t3, Fe::ONE); // b
        self.f.add(x2, t2, t3); // X2 = x⁴ + b
        self.f.copy(z2, t1); // Z2 = x²

        for bit in bits {
            // Fixed roles: the step always adds into R0 = (x1,z1) and
            // doubles R1 = (x2,z2). A masked conditional swap before the
            // step routes the right operands into those roles, and the
            // matching swap afterwards restores them — so the addresses
            // each field operation touches never depend on the bit (the
            // cswap itself is trace-constant, which the leakage verifier
            // checks).
            let swap = !bit;
            self.f.cswap(x1, x2, swap);
            self.f.cswap(z1, z2, swap);
            formulas::ladder_step(self, Xz { x: x1, z: z1 }, Xz { x: x2, z: z2 }, xp);
            // Swap back so (x1,z1)/(x2,z2) keep their R0/R1 meanings.
            self.f.cswap(x1, x2, swap);
            self.f.cswap(z1, z2, swap);
        }

        // Recover y on the host (identical work for every scalar; the
        // charged conversion below covers the x normalisation).
        let load = |x, z| Xz {
            x: self.f.load(x),
            z: self.f.load(z),
        };
        let result = formulas::recover_y(p, load(x1, z1), load(x2, z2));
        // Charge the final conversion. A constant-time ladder needs a
        // constant-time inversion, so the conversion uses the
        // Itoh–Tsujii chain (fixed 10M + 233S schedule) instead of the
        // data-dependent EEA.
        let inv_in = self.tmp[3];
        self.f.store(inv_in, self.f.load(z1));
        if !self.f.load(inv_in).is_zero() {
            self.f.inv_itoh_tsujii(t1, inv_in);
            self.f.mul(t2, x1, t1);
            self.f.mul(t3, x2, t1);
        }
        let report = self.f.machine().report_since(&snap);
        assert_eq!(
            result,
            crate::mul::montgomery_ladder(p, k),
            "modeled ladder diverged from the portable ladder"
        );
        PointMulRun { result, report }
    }

    /// The left-to-right digit evaluation shared by kP and kG, then the
    /// final conversion, which leaves the affine coordinates in
    /// `tmp[6]`/`tmp[7]` so hardened runs can re-check them in machine
    /// RAM.
    fn main_loop(&mut self, digits: &[i8]) -> Affine {
        formulas::set_infinity(self, self.acc);
        for &d in digits.iter().rev() {
            formulas::frobenius(self, self.acc);
            self.charge_digit_dispatch();
            if d != 0 {
                let entry = self.table[d.unsigned_abs() as usize / 2];
                let q = if d < 0 {
                    formulas::negate(self, self.neg, entry)
                } else {
                    entry
                };
                formulas::add_affine(self, self.acc, q);
            }
        }
        match formulas::to_affine(self, self.acc) {
            None => Affine::Infinity,
            Some(p) => Affine::Point {
                x: self.f.load(p.x),
                y: self.f.load(p.y),
            },
        }
    }
}

/// The modeled backend of the point formulas: elements are RAM slots,
/// every operation is a charged kernel into its destination slot, and
/// the scratch elements are the `tmp` bank.
impl FieldOps for ModeledMul {
    type El = FeSlot;
    fn scratch(&self) -> [FeSlot; 10] {
        self.tmp
    }
    fn mul(&mut self, dst: FeSlot, a: FeSlot, b: FeSlot) -> FeSlot {
        self.f.mul(dst, a, b);
        dst
    }
    fn sqr(&mut self, dst: FeSlot, a: FeSlot) -> FeSlot {
        self.f.sqr(dst, a);
        dst
    }
    fn add(&mut self, dst: FeSlot, a: FeSlot, b: FeSlot) -> FeSlot {
        self.f.add(dst, a, b);
        dst
    }
    fn copy(&mut self, dst: FeSlot, a: FeSlot) -> FeSlot {
        self.f.copy(dst, a);
        dst
    }
    fn set_const(&mut self, dst: FeSlot, c: Fe) -> FeSlot {
        self.f.set_const(dst, c);
        dst
    }
    fn is_zero(&mut self, a: FeSlot) -> bool {
        self.f.is_zero(a)
    }
    fn inv(&mut self, dst: FeSlot, a: FeSlot) -> FeSlot {
        self.f.inv(dst, a);
        dst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curve::{generator, order};
    use m0plus::Backend;

    fn scalar(seed: u64) -> Int {
        let hex = format!("{:016x}", seed.wrapping_mul(0xA24B_AED4_963E_E407));
        Int::from_hex(&hex.repeat(4))
            .unwrap()
            .mod_positive(&order())
    }

    #[test]
    fn modeled_kg_matches_portable() {
        let mut mm = ModeledMul::new(Tier::Asm);
        let k = scalar(1);
        let run = mm.kg(&k);
        assert_eq!(run.result, crate::mul::mul_g(&k));
        assert!(run.report.cycles > 100_000);
    }

    #[test]
    fn modeled_kp_matches_portable() {
        let mut mm = ModeledMul::new(Tier::Asm);
        let k = scalar(2);
        let g = generator();
        let run = mm.kp(&g, &k);
        assert_eq!(run.result, crate::mul::mul_wtnaf(&g, &k, 4));
    }

    #[test]
    fn kp_is_slower_than_kg() {
        let mut mm = ModeledMul::new(Tier::Asm);
        let k = scalar(3);
        let kg = mm.kg(&k);
        let mut mm2 = ModeledMul::new(Tier::Asm);
        let kp = mm2.kp(&generator(), &k);
        assert!(
            kp.report.cycles > kg.report.cycles,
            "kP {} should exceed kG {}",
            kp.report.cycles,
            kg.report.cycles
        );
    }

    #[test]
    fn kg_charges_no_tnaf_precomputation() {
        let mut mm = ModeledMul::new(Tier::Asm);
        let run = mm.kg(&scalar(4));
        assert_eq!(
            run.report.category_cycles(Category::TnafPrecomputation),
            0,
            "kG's table is offline"
        );
        assert!(run.report.category_cycles(Category::TnafRepresentation) > 0);
    }

    #[test]
    fn kp_charges_all_categories() {
        let mut mm = ModeledMul::new(Tier::Asm);
        let run = mm.kp(&generator(), &scalar(5));
        for c in Category::ALL {
            assert!(run.report.category_cycles(c) > 0, "{c} should have cycles");
        }
        // Multiply dominates, as in Table 7.
        assert!(
            run.report.category_cycles(Category::Multiply)
                > run.report.category_cycles(Category::Square)
        );
    }

    #[test]
    fn asm_tier_total_is_in_the_papers_regime() {
        // Paper: kP = 2 814 827 cycles, kG = 1 864 470 (Tables 6/7).
        let mut mm = ModeledMul::new(Tier::Asm);
        let kg = mm.kg(&scalar(6));
        assert!(
            (1_400_000..=2_600_000).contains(&kg.report.cycles),
            "kG cycles = {}, paper: 1 864 470",
            kg.report.cycles
        );
        let mut mm2 = ModeledMul::new(Tier::Asm);
        let kp = mm2.kp(&generator(), &scalar(7));
        assert!(
            (2_100_000..=3_800_000).contains(&kp.report.cycles),
            "kP cycles = {}, paper: 2 814 827",
            kp.report.cycles
        );
    }

    #[test]
    fn modeled_ladder_is_scalar_independent_and_correct() {
        let g = generator();
        let cycles: Vec<u64> = [scalar(31), scalar(32), Int::from(5i64)]
            .iter()
            .map(|k| {
                let mut mm = ModeledMul::new(Tier::Asm);
                let run = mm.ladder(&g, k);
                assert_eq!(run.result, crate::mul::montgomery_ladder(&g, k));
                run.report.cycles
            })
            .collect();
        assert_eq!(cycles[0], cycles[1], "cycle counts must not depend on k");
        assert_eq!(cycles[1], cycles[2]);
        // The ladder pays ~2x the wTNAF cost (5M+5S per bit vs the
        // Frobenius trick).
        let mut mm = ModeledMul::new(Tier::Asm);
        let kp = mm.kp(&g, &scalar(33));
        assert!(cycles[0] > kp.report.cycles);
        assert!(cycles[0] < 3 * kp.report.cycles);
    }

    #[test]
    fn code_backend_full_kp_matches_direct_bit_for_bit() {
        // The tentpole acceptance check: a complete kP — recoding,
        // online window table, main loop, final conversion — executes
        // from assembled Thumb-16 machine code with *exactly* the
        // cycle, energy and per-category totals of the direct tier.
        let g = generator();
        let k = scalar(9);
        let mut direct = ModeledMul::new(Tier::Asm);
        let run_d = direct.kp(&g, &k);
        let mut code = ModeledMul::new(Tier::Asm);
        code.field_mut().set_backend(Backend::Code);
        let run_c = code.kp(&g, &k);
        assert_eq!(run_c.result, run_d.result, "points diverge");
        assert_eq!(run_c.report.cycles, run_d.report.cycles, "cycles diverge");
        assert_eq!(
            run_c.report.energy_pj.to_bits(),
            run_d.report.energy_pj.to_bits(),
            "energy diverges"
        );
        for c in Category::ALL {
            assert_eq!(
                run_c.report.category_cycles(c),
                run_d.report.category_cycles(c),
                "{c} cycles diverge"
            );
        }
        // The code backend also measured per-kernel flash footprints.
        let flash = code.field().flash_report();
        for kernel in ["mul_asm", "sqr_asm", "inv_eea_c", "bn_mul", "bn_pass"] {
            assert!(
                flash.contains_key(kernel),
                "{kernel} missing from flash report"
            );
        }
        assert!(direct.field().flash_report().is_empty());
    }

    #[test]
    fn code_backend_kg_matches_direct_cycles() {
        let k = scalar(10);
        let mut direct = ModeledMul::new(Tier::C);
        let run_d = direct.kg(&k);
        let mut code = ModeledMul::new(Tier::C);
        code.field_mut().set_backend(Backend::Code);
        let run_c = code.kg(&k);
        assert_eq!(run_c.result, run_d.result);
        assert_eq!(run_c.report.cycles, run_d.report.cycles);
    }

    #[test]
    fn zero_scalar_and_infinity_are_cheap() {
        let mut mm = ModeledMul::new(Tier::Asm);
        let run = mm.kg(&Int::zero());
        assert!(run.result.is_infinity());
        assert!(run.report.cycles < 1000);
        let run = mm.kp(&Affine::Infinity, &scalar(8));
        assert!(run.result.is_infinity());
    }

    #[test]
    fn repeated_runs_allocate_no_machine_ram() {
        let mut mm = ModeledMul::new(Tier::Asm);
        let words = mm.field().machine().allocated_words();
        let g = generator();
        for seed in 0..3 {
            mm.kp(&g, &scalar(40 + seed));
            assert_eq!(mm.field().machine().allocated_words(), words, "kP");
        }
        for w in 2..=MAX_WINDOW {
            mm.run(&g, &scalar(50 + u64::from(w)), w, true);
            assert_eq!(mm.field().machine().allocated_words(), words, "w = {w}");
        }
        mm.kg(&scalar(60));
        assert_eq!(mm.field().machine().allocated_words(), words, "kG");
    }

    #[test]
    #[should_panic(expected = "modeled window width 7 is outside 2..=6")]
    fn run_rejects_width_7() {
        ModeledMul::new(Tier::Asm).run(&generator(), &scalar(70), 7, true);
    }

    #[test]
    fn hardening_off_is_cost_identical_to_kp() {
        let g = generator();
        let k = scalar(11);
        let mut plain = ModeledMul::new(Tier::Asm);
        let base = plain.kp(&g, &k);
        let mut hardened = ModeledMul::new(Tier::Asm);
        let run = hardened.kp_hardened(&g, &k, Hardening::OFF).unwrap();
        assert_eq!(run.result, base.result);
        assert_eq!(run.report.cycles, base.report.cycles);
        assert_eq!(
            run.report.energy_pj.to_bits(),
            base.report.energy_pj.to_bits()
        );
    }

    #[test]
    fn each_countermeasure_adds_measured_cycles() {
        let g = generator();
        let k = scalar(12);
        let cycles_for = |h: Hardening| {
            let mut mm = ModeledMul::new(Tier::Asm);
            mm.kp_hardened(&g, &k, h).unwrap().report.cycles
        };
        let off = cycles_for(Hardening::OFF);
        let base = cycles_for(Hardening {
            validate_base: true,
            ..Hardening::OFF
        });
        let inf = cycles_for(Hardening {
            reject_infinity: true,
            ..Hardening::OFF
        });
        let res = cycles_for(Hardening {
            check_result: true,
            ..Hardening::OFF
        });
        let full = cycles_for(Hardening::FULL);
        assert!(base > off && inf > off && res > off);
        // The toggles compose additively.
        assert_eq!(full - off, (base - off) + (inf - off) + (res - off));
        // Each check is a tiny fraction of the multiplication itself.
        assert!(full - off < off / 50, "overhead {} vs {}", full - off, off);
    }

    #[test]
    fn hardened_run_rejects_an_off_curve_base() {
        // Off-curve garbage a faulted decompression could hand over.
        let bad = Affine::Point {
            x: Fe::from_words_reduced([2, 0, 0, 0, 0, 0, 0, 0]),
            y: Fe::from_words_reduced([3, 0, 0, 0, 0, 0, 0, 0]),
        };
        assert!(!bad.is_on_curve());
        let mut mm = ModeledMul::new(Tier::Asm);
        assert!(matches!(
            mm.kp_hardened(
                &bad,
                &scalar(13),
                Hardening {
                    validate_base: true,
                    ..Hardening::OFF
                }
            ),
            Err(HardeningError::BaseNotOnCurve)
        ));
    }

    #[test]
    fn hardened_run_rejects_an_infinity_result() {
        // k = n annihilates the generator: unhardened this silently
        // returns infinity, with the countermeasure it is rejected.
        let n = order();
        let mut mm = ModeledMul::new(Tier::Asm);
        let run = mm.kp_hardened(&generator(), &n, Hardening::OFF).unwrap();
        assert!(run.result.is_infinity());
        assert!(matches!(
            mm.kp_hardened(
                &generator(),
                &n,
                Hardening {
                    reject_infinity: true,
                    ..Hardening::OFF
                }
            ),
            Err(HardeningError::ResultInfinity)
        ));
    }
}
