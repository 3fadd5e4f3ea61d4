//! Run reports: cycles, instruction mix, energy, time and average power.

use crate::cost::InstrClass;
use crate::energy::EnergyModel;
use crate::profile::{Category, CategoryTotals};

/// Dense per-[`InstrClass`] instruction counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClassCounts {
    counts: [u64; InstrClass::ALL.len()],
}

impl ClassCounts {
    /// Increments the counter for `class`.
    #[inline]
    pub fn bump(&mut self, class: InstrClass) {
        self.counts[class.index()] += 1;
    }

    /// [`ClassCounts::bump`] by dense class index (precomputed by the
    /// superblock lowering, see [`crate::exec`]).
    #[inline]
    pub(crate) fn bump_idx(&mut self, idx: usize) {
        self.counts[idx] += 1;
    }

    /// Number of instructions of `class` executed.
    pub fn count(&self, class: InstrClass) -> u64 {
        self.counts[class.index()]
    }

    /// Total instructions across all classes.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Iterates over `(class, count)` pairs with non-zero counts.
    pub fn iter(&self) -> impl Iterator<Item = (InstrClass, u64)> + '_ {
        InstrClass::ALL
            .iter()
            .map(|&c| (c, self.count(c)))
            .filter(|&(_, n)| n > 0)
    }

    /// Component-wise sum.
    #[must_use]
    pub fn plus(&self, other: &ClassCounts) -> ClassCounts {
        let mut out = self.clone();
        for (c, n) in out.counts.iter_mut().zip(&other.counts) {
            *c += n;
        }
        out
    }

    /// Component-wise integer division, as an average of `n` reports
    /// divides its cycle total.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn divided_by(&self, n: u64) -> ClassCounts {
        let mut out = self.clone();
        for c in out.counts.iter_mut() {
            *c /= n;
        }
        out
    }

    /// Component-wise difference (`self` − `earlier`).
    ///
    /// # Panics
    ///
    /// Panics if any counter of `earlier` exceeds the corresponding
    /// counter of `self` (the snapshots were taken out of order).
    #[must_use]
    pub fn delta(&self, earlier: &ClassCounts) -> ClassCounts {
        let mut out = ClassCounts::default();
        for (i, c) in out.counts.iter_mut().enumerate() {
            *c = self.counts[i]
                .checked_sub(earlier.counts[i])
                .expect("snapshot taken after the end state");
        }
        out
    }
}

/// A point-in-time capture of a machine's counters.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Cycles executed at capture time.
    pub cycles: u64,
    /// Energy consumed at capture time, picojoules.
    pub energy_pj: f64,
    /// Instruction counts at capture time.
    pub counts: ClassCounts,
    /// Per-category totals at capture time, indexed like [`Category::ALL`].
    pub by_category: Vec<CategoryTotals>,
}

/// Everything the paper's measurement rig would report about one run:
/// cycle count, execution time at the configured clock, energy and average
/// power, plus the instruction mix and the per-category split.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Total cycles.
    pub cycles: u64,
    /// Total energy in picojoules.
    pub energy_pj: f64,
    /// Instruction mix.
    pub counts: ClassCounts,
    /// Per-category cycle/energy totals in [`Category::ALL`] order.
    pub by_category: Vec<(Category, CategoryTotals)>,
    /// Clock frequency assumed for time/power derivation.
    pub clock_hz: u64,
}

impl RunReport {
    /// Builds a report from two snapshots of the same machine.
    pub fn from_delta(start: &Snapshot, end: &Snapshot, clock_hz: u64) -> RunReport {
        let by_category = Category::ALL
            .iter()
            .enumerate()
            .map(|(i, &c)| (c, end.by_category[i].delta(start.by_category[i])))
            .collect();
        RunReport {
            cycles: end.cycles - start.cycles,
            energy_pj: end.energy_pj - start.energy_pj,
            counts: end.counts.delta(&start.counts),
            by_category,
            clock_hz,
        }
    }

    /// Execution time in milliseconds at the report's clock.
    pub fn time_ms(&self) -> f64 {
        self.cycles as f64 / self.clock_hz as f64 * 1e3
    }

    /// Energy in microjoules.
    pub fn energy_uj(&self) -> f64 {
        self.energy_pj * 1e-6
    }

    /// Average power in microwatts.
    pub fn average_power_uw(&self) -> f64 {
        EnergyModel::average_power_uw(self.energy_pj, self.cycles, self.clock_hz)
    }

    /// Cycles attributed to `category`.
    pub fn category_cycles(&self, category: Category) -> u64 {
        self.by_category
            .iter()
            .find(|(c, _)| *c == category)
            .map(|(_, t)| t.cycles)
            .unwrap_or(0)
    }

    /// Sums two reports (e.g. averaging runs or composing phases).
    #[must_use]
    pub fn merged(&self, other: &RunReport) -> RunReport {
        let by_category = self
            .by_category
            .iter()
            .zip(&other.by_category)
            .map(|((c, a), (c2, b))| {
                debug_assert_eq!(c, c2);
                (
                    *c,
                    CategoryTotals {
                        cycles: a.cycles + b.cycles,
                        energy_pj: a.energy_pj + b.energy_pj,
                    },
                )
            })
            .collect();
        RunReport {
            cycles: self.cycles + other.cycles,
            energy_pj: self.energy_pj + other.energy_pj,
            counts: self.counts.plus(&other.counts),
            by_category,
            clock_hz: self.clock_hz,
        }
    }
}

impl std::fmt::Display for RunReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "cycles: {}  time: {:.3} ms  energy: {:.3} µJ  power: {:.1} µW",
            self.cycles,
            self.time_ms(),
            self.energy_uj(),
            self.average_power_uw()
        )?;
        for (c, t) in &self.by_category {
            if t.cycles > 0 {
                writeln!(f, "  {:<26} {:>10} cycles", c.label(), t.cycles)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{Machine, Reg};

    #[test]
    fn class_counts_bump_and_total() {
        let mut c = ClassCounts::default();
        c.bump(InstrClass::Ldr);
        c.bump(InstrClass::Ldr);
        c.bump(InstrClass::Eor);
        assert_eq!(c.count(InstrClass::Ldr), 2);
        assert_eq!(c.total(), 3);
        let nonzero: Vec<_> = c.iter().collect();
        assert_eq!(nonzero, vec![(InstrClass::Ldr, 2), (InstrClass::Eor, 1)]);
    }

    #[test]
    #[should_panic(expected = "snapshot taken after")]
    fn delta_rejects_reversed_snapshots() {
        let mut a = ClassCounts::default();
        let mut b = ClassCounts::default();
        b.bump(InstrClass::Add);
        b.bump(InstrClass::Add);
        a.bump(InstrClass::Add);
        let _ = a.delta(&b);
    }

    #[test]
    fn report_time_and_power_at_48mhz() {
        // 48e6 cycles = 1 s. 48e6 EORs = 48e6 * 12.43 pJ.
        let mut m = Machine::new(16);
        m.movs_imm(Reg::R0, 1);
        m.movs_imm(Reg::R1, 1);
        let snap = m.snapshot();
        for _ in 0..1000 {
            m.eors(Reg::R0, Reg::R1);
        }
        let r = m.report_since(&snap);
        assert_eq!(r.cycles, 1000);
        assert!((r.time_ms() - 1000.0 / 48_000_000.0 * 1e3).abs() < 1e-12);
        assert!((r.average_power_uw() - 596.64).abs() < 0.01);
    }

    #[test]
    fn merged_adds_components() {
        let mut m = Machine::new(16);
        m.movs_imm(Reg::R0, 1);
        let s0 = m.snapshot();
        m.in_category(crate::Category::Square, |m| m.movs_imm(Reg::R1, 2));
        let r1 = m.report_since(&s0);
        let s1 = m.snapshot();
        m.in_category(crate::Category::Square, |m| {
            m.ldr_const(Reg::R2, 3);
        });
        let r2 = m.report_since(&s1);
        let merged = r1.merged(&r2);
        assert_eq!(merged.cycles, 3);
        assert_eq!(merged.category_cycles(crate::Category::Square), 3);
        assert_eq!(merged.counts.total(), 2);
        assert_eq!(merged.counts, r1.counts.plus(&r2.counts));
        assert_eq!(merged.counts.count(InstrClass::Mov), 1);
        assert_eq!(merged.counts.count(InstrClass::Ldr), 1);
    }

    #[test]
    fn class_counts_sum_and_divide_per_class() {
        let mut a = ClassCounts::default();
        a.bump(InstrClass::Ldr);
        a.bump(InstrClass::Eor);
        a.bump(InstrClass::Eor);
        let sum = a.plus(&a).plus(&a);
        assert_eq!(sum.count(InstrClass::Ldr), 3);
        assert_eq!(sum.count(InstrClass::Eor), 6);
        assert_eq!(sum.divided_by(3), a);
        assert_eq!(a.divided_by(2).count(InstrClass::Ldr), 0);
    }

    #[test]
    fn display_is_nonempty() {
        let m = Machine::new(16);
        let s = format!("{}", m.report());
        assert!(s.contains("cycles"));
    }
}
