//! Machine-modeled field arithmetic: *virtual assembly* kernels executed
//! on the [`m0plus::Machine`].
//!
//! Every kernel is a straight-line sequence of calls on the machine — one
//! call per Thumb instruction — so the cycle and energy totals are
//! *measured from executed instruction streams*, not estimated from
//! formulas, while the computed results are verified against the paper
//! tier ([`crate::mul::mul_ld_fixed`], [`crate::sqr::square`],
//! [`crate::inv::invert`]) by name, never against whatever [`Fe`]'s
//! operators dispatch to.
//!
//! Two tiers mirror the paper's Table 6 ("C language" vs "Assembly"):
//!
//! * [`Tier::C`] — compiler-like code: the accumulator lives in memory,
//!   loops keep their counters and branches, and values are re-loaded
//!   around every operation. This is what a (good) C compiler produces
//!   for the M0+ when it cannot pin nine words into registers.
//! * [`Tier::Asm`] — the paper's hand-scheduled kernels: the
//!   fixed-register accumulator split of its Algorithm 1 (four lo
//!   registers, five hi registers, seven memory words), fully unrolled
//!   inner loops, stack-relative operand addressing, and the
//!   `ADCS`-doubling trick in the window-table generation.
//!
//! [`ModeledField`] is the facade the curve layer drives; it owns the
//! machine and attributes each operation to its Table-7 category.

mod inv_c;
mod mul_asm;
mod mul_c;
mod sqr;
mod support;

use crate::Fe;
use m0plus::fault::RecordedKernel;
use m0plus::{Addr, Category, Machine};
use std::collections::BTreeMap;

/// Which implementation tier a [`ModeledField`] runs (Table 6's columns,
/// plus the RELIC-baseline style of §4.2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tier {
    /// Compiler-like memory-to-memory code.
    C,
    /// Hand-scheduled fixed-register assembly.
    Asm,
    /// Generic-library C in the style of the paper's RELIC baseline:
    /// the same algorithms wrapped in called helpers, with operand
    /// copies in and out of every routine and a separate
    /// (non-interleaved) reduction pass — the overheads a portable
    /// cryptographic toolkit pays on a register-starved core.
    RelicC,
}

/// A field element stored in machine RAM (eight words).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeSlot(pub Addr);

/// Aggregated machine-code footprint of one kernel entry point.
///
/// Collected while a capture session is open
/// ([`ModeledField::start_capture`]): each routed kernel call assembles
/// to real Thumb-16 and reports its flash size; the field keeps the
/// per-kernel maximum (traces of the same kernel differ only by
/// data-dependent branch outcomes, so the maximum is the flash a fully
/// linearised build would need).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelFootprint {
    /// Number of calls captured.
    pub calls: u64,
    /// Largest assembled fragment (code + literal pool), in bytes.
    /// Recordings are linearised, so for looped kernels (the EEA
    /// inversion) this is the *unrolled* figure; see `deduped_flash_bytes`
    /// for the loop-aware one.
    pub flash_bytes: usize,
    /// Largest loop-aware footprint: the fragment after
    /// [`m0plus::footprint::dedup`] collapses repeated bodies, an upper
    /// bound on a rolled build's flash.
    pub deduped_flash_bytes: usize,
    /// Largest recorded instruction count.
    pub instructions: u64,
}

impl KernelFootprint {
    /// Folds one captured call into the per-kernel maxima.
    fn fold(&mut self, kernel: &RecordedKernel) {
        let program = kernel.program();
        self.calls += 1;
        self.flash_bytes = self.flash_bytes.max(program.size_bytes());
        self.deduped_flash_bytes = self
            .deduped_flash_bytes
            .max(m0plus::footprint::dedup(program).deduped_bytes());
        self.instructions = self.instructions.max(kernel.trace_len());
    }
}

/// Storage class of an accumulator word in the assembly-tier
/// fixed-register multiplier (exposed for rendering the paper's
/// Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Residency {
    /// A lo register (`r0`–`r7`), directly usable by ALU instructions.
    LoRegister,
    /// A hi register (`r8`–`r12`), reachable through `MOV`.
    HiRegister,
    /// A stack-frame word.
    Memory,
}

/// The residency of accumulator word `idx` (0…15) under the paper's
/// Algorithm 1 as realised by the assembly kernel.
///
/// # Panics
///
/// Panics for `idx ≥ 16`.
pub fn accumulator_residency(idx: usize) -> Residency {
    match mul_asm::loc(idx) {
        mul_asm::Loc::Lo(_) => Residency::LoRegister,
        mul_asm::Loc::Hi(_) => Residency::HiRegister,
        mul_asm::Loc::Mem(_) => Residency::Memory,
    }
}

/// Layout of the multiplication working memory inside the machine.
pub(crate) struct Layout {
    /// 16-entry × 8-word López-Dahab window table.
    pub lut: Addr,
    /// Stack frame: `[0..8)` copy of x, `[8..11)` accumulator words
    /// v0–v2, `[11..15)` accumulator words v12–v15, `[15]` saved pointer,
    /// `[16..32)` general scratch (full 2n accumulator for the C tier).
    /// The kernels address it through `sp`; it is kept here for trace
    /// renderers (Figure 1).
    #[allow(dead_code)]
    pub frame: Addr,
    /// The 256-entry byte→halfword squaring table (one entry per RAM
    /// word; it lives in flash on the real part, so writing it is not
    /// charged).
    pub sqr_table: Addr,
    /// Scratch area for the inversion state vectors u, v, g1, g2 plus
    /// the variable-shift temporary (5 × 8 words, rounded up).
    pub inv_scratch: Addr,
}

/// Machine-resident F₂²³³ arithmetic with per-category cost attribution.
///
/// ```
/// use gf2m::modeled::{ModeledField, Tier};
/// use gf2m::Fe;
///
/// let mut f = ModeledField::new(Tier::Asm);
/// let a = f.alloc_init(Fe::from_hex("deadbeef").unwrap());
/// let b = f.alloc_init(Fe::from_hex("facefeed").unwrap());
/// let z = f.alloc();
/// f.mul(z, a, b);
/// assert_eq!(
///     f.load(z),
///     Fe::from_hex("deadbeef").unwrap() * Fe::from_hex("facefeed").unwrap()
/// );
/// assert!(f.machine().cycles() > 0);
/// ```
#[derive(Debug)]
pub struct ModeledField {
    machine: Machine,
    tier: Tier,
    /// The open capture session's per-kernel footprints, if any.
    capture: Option<BTreeMap<&'static str, KernelFootprint>>,
    layout_lut: Addr,
    layout_frame: Addr,
    layout_sqr_table: Addr,
    layout_inv_scratch: Addr,
    /// The Itoh–Tsujii chain's two scratch slots, allocated by its first
    /// call (not here, so a field that never runs the chain keeps the
    /// RAM layout it always had) and reused by every later call.
    itoh_tsujii_scratch: Option<(FeSlot, FeSlot)>,
}

impl ModeledField {
    /// Default machine size: enough RAM for the window table, the frame,
    /// and a few hundred field-element slots (the point-multiplication
    /// working set).
    pub const DEFAULT_RAM_WORDS: usize = 16 * 1024;

    /// Creates a modeled field of the given tier.
    pub fn new(tier: Tier) -> Self {
        Self::with_target(tier, m0plus::target::default_target())
    }

    /// Creates a modeled field costed for a target from the
    /// [`m0plus::target`] registry (the default target reproduces
    /// [`ModeledField::new`] bit for bit).
    pub fn with_target(tier: Tier, target: &m0plus::TargetSpec) -> Self {
        Self::with_machine(tier, Machine::with_target(Self::DEFAULT_RAM_WORDS, target))
    }

    /// Lays the field's tables and frame out on an existing machine
    /// (any RAM size, any target). The machine should be fresh: the
    /// layout is allocated from its current break.
    pub fn with_machine(tier: Tier, mut machine: Machine) -> Self {
        let lut = machine.alloc(16 * 8);
        let frame = machine.alloc(32);
        let sqr_table = machine.alloc(256);
        let table_words: Vec<u32> = crate::sqr::SQR_TABLE.iter().map(|&h| h as u32).collect();
        machine.write_slice(sqr_table, &table_words);
        let inv_scratch = machine.alloc(48);
        machine.set_base(m0plus::Reg::Sp, frame);
        ModeledField {
            machine,
            tier,
            capture: None,
            layout_lut: lut,
            layout_frame: frame,
            layout_sqr_table: sqr_table,
            layout_inv_scratch: inv_scratch,
            itoh_tsujii_scratch: None,
        }
    }

    /// The tier this field runs.
    pub fn tier(&self) -> Tier {
        self.tier
    }

    /// Opens a capture session (replacing any open one): from now on
    /// every kernel call is recorded, assembled to Thumb-16 and replayed
    /// from the machine code ([`RecordedKernel::capture`] and
    /// [`RecordedKernel::assert_replays_to`]), and its flash footprint
    /// is folded into the session. Results, cycles and energy are those
    /// of an uncaptured run; a replay that diverges from the run panics.
    pub fn start_capture(&mut self) {
        self.capture = Some(BTreeMap::new());
    }

    /// Closes the capture session and returns its per-kernel flash
    /// footprints (empty if no session was open).
    pub fn take_capture(&mut self) -> BTreeMap<&'static str, KernelFootprint> {
        self.capture.take().unwrap_or_default()
    }

    /// Runs one kernel call on the machine. Curve layers route their
    /// own charged code through here too, so while a capture session is
    /// open ([`ModeledField::start_capture`]) *every* costed instruction
    /// of a point multiplication is checked against assembled machine
    /// code. Otherwise this just calls `f`.
    pub fn run_kernel<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Machine) -> T) -> T {
        let Some(footprints) = self.capture.as_mut() else {
            return f(&mut self.machine);
        };
        let (kernel, out) = RecordedKernel::capture(&mut self.machine, f);
        kernel.assert_replays_to(&self.machine, name);
        footprints.entry(name).or_default().fold(&kernel);
        out
    }

    /// Read access to the underlying machine (cycle/energy counters).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Mutable access for callers that charge their own support code.
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    pub(crate) fn layout(&self) -> Layout {
        Layout {
            lut: self.layout_lut,
            frame: self.layout_frame,
            sqr_table: self.layout_sqr_table,
            inv_scratch: self.layout_inv_scratch,
        }
    }

    /// Allocates an uninitialised element slot.
    pub fn alloc(&mut self) -> FeSlot {
        FeSlot(self.machine.alloc(crate::N))
    }

    /// Allocates a slot and stores `value` (un-costed setup).
    pub fn alloc_init(&mut self, value: Fe) -> FeSlot {
        let slot = self.alloc();
        self.store(slot, value);
        slot
    }

    /// Stores `value` into `slot` without charging cycles (setup /
    /// test-oracle access).
    pub fn store(&mut self, slot: FeSlot, value: Fe) {
        self.machine.write_slice(slot.0, value.words());
    }

    /// Loads the element in `slot` without charging cycles.
    pub fn load(&self, slot: FeSlot) -> Fe {
        let words = self.machine.read_slice(slot.0, crate::N);
        Fe::from_words_reduced(words.try_into().expect("slot is 8 words"))
    }

    /// Modular multiplication `z ← x · y`, charged to *Multiply* with the
    /// window-table generation under *Multiply Precomputation*.
    pub fn mul(&mut self, z: FeSlot, x: FeSlot, y: FeSlot) {
        // Capture the expectation before the kernel runs: z may alias x
        // or y (the kernels read their inputs fully before the final
        // store-out, so aliasing is safe).
        #[cfg(debug_assertions)]
        let expect = crate::mul::mul_ld_fixed(self.load(x), self.load(y));
        let layout = self.layout();
        let tier = self.tier;
        let name = match tier {
            Tier::Asm => "mul_asm",
            Tier::C => "mul_ld_fixed_c",
            Tier::RelicC => "mul_relic_c",
        };
        self.run_kernel(name, |m| match tier {
            Tier::Asm => mul_asm::mul(m, &layout, z, x, y),
            Tier::C => mul_c::mul_fixed(m, &layout, z, x, y),
            Tier::RelicC => mul_c::mul_relic(m, &layout, z, x, y),
        });
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            self.load(z),
            expect,
            "modeled multiplication diverged from the paper tier (mul_ld_fixed)"
        );
    }

    /// The C-tier *LD with rotating registers* multiplication (the other
    /// C row of Table 6), runnable from any tier for comparison.
    pub fn mul_rotating_c(&mut self, z: FeSlot, x: FeSlot, y: FeSlot) {
        #[cfg(debug_assertions)]
        let expect = crate::mul::mul_ld_fixed(self.load(x), self.load(y));
        let layout = self.layout();
        self.run_kernel("mul_ld_rotating_c", |m| {
            mul_c::mul_rotating(m, &layout, z, x, y)
        });
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            self.load(z),
            expect,
            "modeled rotating multiplication diverged from the paper tier (mul_ld_fixed)"
        );
    }

    /// Modular squaring `z ← x²`, charged to *Square*.
    pub fn sqr(&mut self, z: FeSlot, x: FeSlot) {
        #[cfg(debug_assertions)]
        let expect = crate::sqr::square(self.load(x));
        let layout = self.layout();
        let tier = self.tier;
        let name = match tier {
            Tier::Asm => "sqr_asm",
            Tier::C => "sqr_c",
            Tier::RelicC => "sqr_relic_c",
        };
        self.run_kernel(name, |m| match tier {
            Tier::Asm => sqr::sqr_asm(m, &layout, z, x),
            Tier::C => sqr::sqr_c(m, &layout, z, x),
            Tier::RelicC => mul_c::sqr_relic(m, &layout, z, x),
        });
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            self.load(z),
            expect,
            "modeled squaring diverged from the paper tier (sqr::square)"
        );
    }

    /// Modular inversion `z ← x⁻¹`, charged to *Inversion*.
    ///
    /// # Panics
    ///
    /// Panics if `x` holds zero.
    pub fn inv(&mut self, z: FeSlot, x: FeSlot) {
        #[cfg(debug_assertions)]
        let expect = crate::inv::invert(self.load(x));
        let layout = self.layout();
        // The paper implements inversion in C only (its Table 6 has no
        // assembly column entry for inversion), so both tiers share the
        // C kernel.
        self.run_kernel("inv_eea_c", |m| inv_c::inv(m, &layout, z, x));
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            Some(self.load(z)),
            expect,
            "modeled inversion diverged from the paper tier (inv::invert)"
        );
    }

    /// Standalone reduction `z ← wide mod f(x)`: the C-tier trinomial
    /// reduction pass run as its own kernel on a raw double-width
    /// product (the non-interleaved reduction a RELIC-style library
    /// pays per multiplication — interleaving it is one of the paper's
    /// assembly wins). The product is staged into the kernel's frame
    /// accumulator without charge (it would already be there after a
    /// multiplication); the reduction itself is fully charged.
    pub fn reduce(&mut self, z: FeSlot, wide: &[u32; 2 * crate::N]) {
        #[cfg(debug_assertions)]
        let expect = crate::reduce::reduce(*wide);
        let acc = Addr(self.layout_frame.0 + mul_c::acc_offset());
        self.machine.write_slice(acc, wide);
        self.run_kernel("reduce_c", |m| mul_c::reduce_standalone(m, z));
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            self.load(z),
            expect,
            "modeled reduction diverged from the paper tier (reduce::reduce)"
        );
    }

    /// Modular inversion by the Itoh–Tsujii addition chain, built from
    /// this tier's multiplication and squaring kernels (10 M + 232 S) —
    /// the ablation partner of the EEA kernel behind [`ModeledField::inv`].
    ///
    /// # Panics
    ///
    /// Panics if `x` holds zero.
    pub fn inv_itoh_tsujii(&mut self, z: FeSlot, x: FeSlot) {
        assert!(!self.load(x).is_zero(), "inversion of zero");
        #[cfg(debug_assertions)]
        let expect = crate::inv::invert(self.load(x));
        let (cur, tmp) = self.itoh_tsujii_scratch();
        // e(k) = x^(2^k − 1); chain 1,2,3,6,7,14,28,29,58,116,232.
        self.copy_in_category(cur, x, Category::Inversion);
        let steps: [(usize, bool); 10] = [
            (1, false),  // e2 = e1²·e1
            (1, false),  // e3 = e2²·e1   (squares: 1, mul by e1)
            (3, true),   // e6 = e3^(2³)·e3
            (1, false),  // e7 = e6²·e1
            (7, true),   // e14
            (14, true),  // e28
            (1, false),  // e29
            (29, true),  // e58
            (58, true),  // e116
            (116, true), // e232
        ];
        // `prev` holds e(k) for the self-combining steps.
        for (squares, self_combine) in steps {
            if self_combine {
                self.copy_in_category(tmp, cur, Category::Inversion);
            }
            for _ in 0..squares {
                self.sqr_in_category(cur, cur, Category::Inversion);
            }
            let operand = if self_combine { tmp } else { x };
            self.mul_in_category(cur, cur, operand, Category::Inversion);
        }
        // z = e232².
        self.sqr_in_category(z, cur, Category::Inversion);
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            Some(self.load(z)),
            expect,
            "modeled Itoh–Tsujii diverged from the paper tier (inv::invert)"
        );
    }

    /// The chain registers of [`ModeledField::inv_itoh_tsujii`]:
    /// allocated on the first call, the same two slots after.
    fn itoh_tsujii_scratch(&mut self) -> (FeSlot, FeSlot) {
        match self.itoh_tsujii_scratch {
            Some(pair) => pair,
            None => {
                let pair = (self.alloc(), self.alloc());
                self.itoh_tsujii_scratch = Some(pair);
                pair
            }
        }
    }

    fn copy_in_category(&mut self, z: FeSlot, x: FeSlot, cat: Category) {
        self.machine.set_category_override(Some(cat));
        self.copy(z, x);
        self.machine.set_category_override(None);
    }

    fn sqr_in_category(&mut self, z: FeSlot, x: FeSlot, cat: Category) {
        self.machine.set_category_override(Some(cat));
        self.sqr(z, x);
        self.machine.set_category_override(None);
    }

    fn mul_in_category(&mut self, z: FeSlot, x: FeSlot, y: FeSlot, cat: Category) {
        self.machine.set_category_override(Some(cat));
        self.mul(z, x, y);
        self.machine.set_category_override(None);
    }

    /// Field addition (word-wise XOR) `z ← x + y`, charged to *Support*.
    pub fn add(&mut self, z: FeSlot, x: FeSlot, y: FeSlot) {
        self.run_kernel("fe_add", |m| support::add(m, z, x, y));
    }

    /// Copy `z ← x`, charged to *Support*.
    pub fn copy(&mut self, z: FeSlot, x: FeSlot) {
        self.run_kernel("fe_copy", |m| support::copy(m, z, x));
    }

    /// Constant-time conditional swap `(a, b) ← swap ? (b, a) : (a, b)`,
    /// charged to *Support*. The executed instruction stream, effective
    /// addresses and cycle count are identical for both values of
    /// `swap` (see `support::cswap`), which the leakage verifier
    /// checks trace-for-trace.
    pub fn cswap(&mut self, a: FeSlot, b: FeSlot, swap: bool) {
        self.run_kernel("fe_cswap", |m| support::cswap(m, a, b, swap));
    }

    /// Stores a compile-time constant into `slot` (literal-pool loads +
    /// stores), charged to *Support*.
    pub fn set_const(&mut self, slot: FeSlot, value: Fe) {
        self.run_kernel("fe_set_const", |m| support::set_const(m, slot, value));
    }

    /// Tests `x == 0`, charged to *Support*.
    pub fn is_zero(&mut self, x: FeSlot) -> bool {
        self.run_kernel("fe_is_zero", |m| support::is_zero(m, x))
    }

    /// Tests `x == y`, charged to *Support*.
    pub fn equal(&mut self, x: FeSlot, y: FeSlot) -> bool {
        self.run_kernel("fe_equal", |m| support::equal(m, x, y))
    }

    /// The word range of the 256-entry squaring table. On the real part
    /// this table lives in flash ROM (it is counted as flash bytes, and
    /// written here without charge at construction); fault campaigns use
    /// this range to exclude ROM from RAM-upset sampling.
    pub fn rom_words(&self) -> std::ops::Range<u32> {
        self.layout_sqr_table.0..self.layout_sqr_table.0 + 256
    }

    /// Recompute-and-compare multiplication: `z ← x·y`, computed twice
    /// with an equality check — the classic temporal-redundancy fault
    /// countermeasure. Returns whether the two runs agreed. All the
    /// redundant work is charged, so the overhead of the countermeasure
    /// is measured, not estimated.
    ///
    /// `scratch` holds the second product and must not alias `z`, `x`
    /// or `y` (the recomputation reads the original inputs).
    pub fn mul_checked(&mut self, z: FeSlot, x: FeSlot, y: FeSlot, scratch: FeSlot) -> bool {
        self.mul(z, x, y);
        self.mul(scratch, x, y);
        self.equal(z, scratch)
    }

    /// Recompute-and-compare squaring; see [`ModeledField::mul_checked`].
    pub fn sqr_checked(&mut self, z: FeSlot, x: FeSlot, scratch: FeSlot) -> bool {
        self.sqr(z, x);
        self.sqr(scratch, x);
        self.equal(z, scratch)
    }

    /// Multiply-back-checked inversion: `z ← x⁻¹`, then verifies
    /// `z·x = 1` (cheaper than recomputing the inversion: one M + the
    /// compare instead of a second I). Returns whether the check passed.
    /// `s1`/`s2` are scratch slots and must not alias `z` or `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` holds zero (as [`ModeledField::inv`] does).
    pub fn inv_checked(&mut self, z: FeSlot, x: FeSlot, s1: FeSlot, s2: FeSlot) -> bool {
        self.inv(z, x);
        self.mul(s1, z, x);
        self.set_const(s2, Fe::ONE);
        self.equal(s1, s2)
    }

    /// Runs `f` with every charged instruction force-attributed to
    /// `category` (see [`Machine::with_category_override`]).
    pub fn with_category_override<T>(
        &mut self,
        category: Category,
        f: impl FnOnce(&mut ModeledField) -> T,
    ) -> T {
        let prev = self.machine.category_override();
        self.machine.set_category_override(Some(category));
        let out = f(self);
        self.machine.set_category_override(prev);
        out
    }
}

/// A modeled field is a capture host: [`RecordedKernel::capture`] can
/// record a whole field operation (`f.mul(z, a, b)`) as one fragment.
impl AsMut<Machine> for ModeledField {
    fn as_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m0plus::Category;

    fn fe(seed: u64) -> Fe {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut w = [0u32; crate::N];
        for x in w.iter_mut() {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            *x = (s >> 23) as u32;
        }
        Fe::from_words_reduced(w)
    }

    fn check_tier(tier: Tier) {
        let mut f = ModeledField::new(tier);
        for seed in 0..8u64 {
            let a = fe(seed);
            let b = fe(seed + 100);
            let (sa, sb, sz) = (f.alloc_init(a), f.alloc_init(b), f.alloc());
            f.mul(sz, sa, sb);
            assert_eq!(f.load(sz), a * b, "{tier:?} mul seed {seed}");
            f.sqr(sz, sa);
            assert_eq!(f.load(sz), a.square(), "{tier:?} sqr seed {seed}");
            if !a.is_zero() {
                f.inv(sz, sa);
                assert_eq!(f.load(sz), a.invert().unwrap(), "{tier:?} inv seed {seed}");
            }
            f.add(sz, sa, sb);
            assert_eq!(f.load(sz), a + b);
        }
    }

    #[test]
    fn asm_tier_matches_portable() {
        check_tier(Tier::Asm);
    }

    #[test]
    fn standalone_reduce_matches_portable_reduction() {
        let mut f = ModeledField::new(Tier::C);
        for seed in 0..6u64 {
            let (a, b) = (fe(seed), fe(seed + 50));
            let wide = crate::mul::mul_poly_ld(a.words(), b.words());
            let z = f.alloc();
            f.reduce(z, &wide);
            assert_eq!(f.load(z), crate::reduce::reduce(wide), "seed {seed}");
            assert_eq!(f.load(z), a * b);
        }
        assert!(f.machine().category_totals(Category::Multiply).cycles > 0);
    }

    #[test]
    fn c_tier_matches_portable() {
        check_tier(Tier::C);
    }

    #[test]
    fn asm_mul_is_faster_than_c_mul() {
        let a = fe(1);
        let b = fe(2);
        let cycles = |tier| {
            let mut f = ModeledField::new(tier);
            let (sa, sb, sz) = (f.alloc_init(a), f.alloc_init(b), f.alloc());
            let snap = f.machine().snapshot();
            f.mul(sz, sa, sb);
            f.machine().report_since(&snap).cycles
        };
        let asm = cycles(Tier::Asm);
        let c = cycles(Tier::C);
        assert!(asm < c, "asm {asm} should beat C {c}");
    }

    #[test]
    fn mul_splits_table_generation_into_its_own_category() {
        let mut f = ModeledField::new(Tier::Asm);
        let (sa, sb, sz) = (f.alloc_init(fe(5)), f.alloc_init(fe(6)), f.alloc());
        f.mul(sz, sa, sb);
        let lut = f
            .machine()
            .category_totals(Category::MultiplyPrecomputation)
            .cycles;
        let main = f.machine().category_totals(Category::Multiply).cycles;
        assert!(lut > 0 && main > 0);
        assert!(main > lut, "main loop ({main}) should dominate LUT ({lut})");
    }

    #[test]
    fn category_override_redirects_field_ops() {
        let mut f = ModeledField::new(Tier::Asm);
        let (sa, sb, sz) = (f.alloc_init(fe(7)), f.alloc_init(fe(8)), f.alloc());
        f.with_category_override(Category::TnafPrecomputation, |f| {
            f.mul(sz, sa, sb);
        });
        assert_eq!(f.machine().category_totals(Category::Multiply).cycles, 0);
        assert!(
            f.machine()
                .category_totals(Category::TnafPrecomputation)
                .cycles
                > 0
        );
    }

    #[test]
    fn itoh_tsujii_matches_eea_kernel_and_costs_similarly() {
        let mut f = ModeledField::new(Tier::Asm);
        let a = fe(123);
        let (sa, sz1, sz2) = (f.alloc_init(a), f.alloc(), f.alloc());
        let s0 = f.machine().snapshot();
        f.inv(sz1, sa);
        let eea = f.machine().report_since(&s0).cycles;
        let s1 = f.machine().snapshot();
        f.inv_itoh_tsujii(sz2, sa);
        let itoh = f.machine().report_since(&s1).cycles;
        assert_eq!(f.load(sz1), f.load(sz2));
        assert_eq!(f.load(sz1), a.invert().unwrap());
        // 10 M + 233 S ≈ 45k + 95k ≈ 140k — the same league as the EEA
        // (which is the paper's point: neither inversion choice moves
        // the point-multiplication total much).
        let ratio = itoh as f64 / eea as f64;
        assert!((0.5..3.0).contains(&ratio), "itoh {itoh} vs eea {eea}");
    }

    #[test]
    fn itoh_tsujii_reuses_its_scratch_slots() {
        let mut f = ModeledField::new(Tier::Asm);
        let (sa, sz) = (f.alloc_init(fe(321)), f.alloc());
        let before = f.machine().allocated_words();
        f.inv_itoh_tsujii(sz, sa);
        let words = f.machine().allocated_words();
        assert_eq!(
            words,
            before + 2 * crate::N as u32,
            "first call allocates the pair"
        );
        for seed in 0..3 {
            f.store(sa, fe(400 + seed));
            f.inv_itoh_tsujii(sz, sa);
            assert_eq!(f.machine().allocated_words(), words, "call {seed}");
            assert_eq!(Some(f.load(sz)), fe(400 + seed).invert());
        }
    }

    /// Drives every routed kernel once and returns the results plus the
    /// machine's final cycle count — the differential probe for the
    /// capture tests.
    fn drive_all_kernels(f: &mut ModeledField) -> (Vec<Fe>, u64) {
        let a = fe(21);
        let b = fe(22);
        let (sa, sb, sz) = (f.alloc_init(a), f.alloc_init(b), f.alloc());
        let mut out = Vec::new();
        f.mul(sz, sa, sb);
        out.push(f.load(sz));
        f.mul_rotating_c(sz, sa, sb);
        out.push(f.load(sz));
        f.sqr(sz, sa);
        out.push(f.load(sz));
        f.inv(sz, sa);
        out.push(f.load(sz));
        f.add(sz, sa, sb);
        out.push(f.load(sz));
        f.copy(sz, sb);
        out.push(f.load(sz));
        f.set_const(sz, a);
        out.push(f.load(sz));
        assert!(!f.is_zero(sz));
        assert!(f.equal(sz, sa));
        (out, f.machine().cycles())
    }

    #[test]
    fn captured_kernels_match_uncaptured_for_every_kernel() {
        for tier in [Tier::Asm, Tier::C, Tier::RelicC] {
            let mut direct = ModeledField::new(tier);
            let mut code = ModeledField::new(tier);
            code.start_capture();
            let (results_d, cycles_d) = drive_all_kernels(&mut direct);
            let (results_c, cycles_c) = drive_all_kernels(&mut code);
            assert_eq!(results_c, results_d, "{tier:?}: field results diverge");
            assert_eq!(cycles_c, cycles_d, "{tier:?}: cycle totals diverge");
            for cat in Category::ALL {
                assert_eq!(
                    code.machine().category_totals(cat),
                    direct.machine().category_totals(cat),
                    "{tier:?}/{cat}: category totals diverge"
                );
            }
            assert!(direct.take_capture().is_empty());
            let flash = code.take_capture();
            assert!(code.take_capture().is_empty(), "the session is closed");
            for kernel in ["inv_eea_c", "fe_add", "fe_copy", "fe_set_const"] {
                assert!(flash.contains_key(kernel), "{tier:?}: {kernel} missing");
            }
            for (kernel, fp) in &flash {
                assert!(fp.calls > 0 && fp.flash_bytes > 0, "{tier:?}: {kernel}");
            }
        }
    }

    #[test]
    fn capture_reports_kernel_flash_footprints() {
        let mut f = ModeledField::new(Tier::Asm);
        f.start_capture();
        let (sa, sb, sz) = (f.alloc_init(fe(31)), f.alloc_init(fe(32)), f.alloc());
        f.mul(sz, sa, sb);
        f.mul(sz, sz, sb);
        let fp = f.take_capture()["mul_asm"];
        assert_eq!(fp.calls, 2);
        // The fully unrolled fixed-register multiplier linearises to a
        // few thousand halfwords — sanity-bound it.
        assert!(
            (1_000..100_000).contains(&fp.flash_bytes),
            "flash = {}",
            fp.flash_bytes
        );
        assert!(fp.instructions > 500);
    }

    #[test]
    fn looped_inversion_dedups_far_below_its_unrolled_footprint() {
        let mut f = ModeledField::new(Tier::C);
        f.start_capture();
        let (sa, sz) = (f.alloc_init(fe(33)), f.alloc());
        f.inv(sz, sa);
        let fp = f.take_capture()["inv_eea_c"];
        // The EEA records each of its ~700 data-dependent loop
        // iterations separately: a six-figure unrolled footprint. A
        // rolled build stores each body once — the dedup pass must
        // recover at least a 10× reduction.
        assert!(fp.flash_bytes > 50_000, "unrolled = {}", fp.flash_bytes);
        assert!(
            fp.deduped_flash_bytes * 10 <= fp.flash_bytes,
            "deduped {} vs unrolled {}",
            fp.deduped_flash_bytes,
            fp.flash_bytes
        );
        // Straight-line kernels barely compress: their deduped figure
        // stays the same order of magnitude as the raw one.
        let mut g = ModeledField::new(Tier::Asm);
        g.start_capture();
        let (ga, gb, gz) = (g.alloc_init(fe(34)), g.alloc_init(fe(35)), g.alloc());
        g.mul(gz, ga, gb);
        let mp = g.take_capture()["mul_asm"];
        assert!(mp.deduped_flash_bytes > 0);
        assert!(mp.deduped_flash_bytes <= mp.flash_bytes);
    }

    #[test]
    fn support_ops_have_sensible_costs() {
        let mut f = ModeledField::new(Tier::Asm);
        let (sa, sb, sz) = (f.alloc_init(fe(9)), f.alloc_init(fe(10)), f.alloc());
        let snap = f.machine().snapshot();
        f.add(sz, sa, sb);
        let add_cycles = f.machine().report_since(&snap).cycles;
        // 8 words: 2 loads + xor + store each, plus glue: well under 150.
        assert!(add_cycles > 30 && add_cycles < 150, "add = {add_cycles}");
        assert!(f.equal(sz, sz));
        assert!(!f.is_zero(sz) || f.load(sz).is_zero());
    }

    #[test]
    fn rom_range_covers_the_squaring_table() {
        let f = ModeledField::new(Tier::Asm);
        let rom = f.rom_words();
        assert_eq!(rom.end - rom.start, 256);
        assert!(rom.end <= f.machine().allocated_words());
        // The table's first entries are the 16-bit spread of 0 and 1.
        assert_eq!(f.machine().peek(rom.start), Some(0));
    }

    #[test]
    fn checked_ops_pass_clean_and_cost_more_than_unchecked() {
        let mut f = ModeledField::new(Tier::Asm);
        let a = f.alloc_init(fe(123));
        let b = f.alloc_init(fe(77));
        let (z, s1, s2) = (f.alloc(), f.alloc(), f.alloc());

        let snap = f.machine().snapshot();
        f.mul(z, a, b);
        let plain = f.machine().report_since(&snap).cycles;
        let expect = f.load(z);

        let snap = f.machine().snapshot();
        assert!(f.mul_checked(z, a, b, s1));
        let checked = f.machine().report_since(&snap).cycles;
        assert_eq!(f.load(z), expect);
        assert!(checked > 2 * plain, "recompute doubles the cost");

        assert!(f.sqr_checked(z, a, s1));
        assert_eq!(f.load(z), f.load(a).square());

        assert!(f.inv_checked(z, a, s1, s2));
        assert_eq!(Some(f.load(z)), f.load(a).invert());
    }
}
