//! Deterministic fault injection on recorded kernel executions.
//!
//! The recorded-program backend already turns every modeled kernel into
//! a concrete Thumb-16 instruction stream ([`Recording`] → `Program`).
//! This module perturbs a *replay* of that stream at a chosen
//! instruction index with one of the three classic glitch models —
//! instruction skip, single-bit register flip, single-bit memory flip —
//! and runs the faulted execution to completion, or to a clean
//! [`ExecError`] abort.
//!
//! Up to the fault, a faulted replay is the fault-free one (the *golden
//! run*). [`RecordedKernel::new`] runs the golden run once and
//! checkpoints it at 64 evenly spaced trace indices; a replay restores
//! the last checkpoint at or before its fault on a clone of the
//! pre-kernel machine state and resumes the executor there, with a
//! result bit-identical to a replay from the first instruction.
//! [`RecordedKernel::classify`] also stops at the first checkpoint after
//! the fault when the run is back on the golden run.
//!
//! Everything is deterministic: a [`FaultPlan`] fully describes one
//! fault, and [`FaultPlan::sample`] draws plans from the in-tree
//! [`prng::SplitMix64`], so a campaign with a fixed seed replays
//! byte-for-byte on every platform.

use crate::asm::Program;
use crate::backend;
use crate::exec::{self, Cursor, ExecError, ExecStats, Predecoded, StepAction, NEVER};
use crate::machine::{Machine, Recording, Reg, StateDelta};
use prng::SplitMix64;
use std::ops::Range;
use std::sync::Arc;

/// The three single-fault glitch models of the campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The targeted instruction is fetched but never retires (the
    /// effect of a clock or voltage glitch on the 2-stage pipeline).
    SkipInstruction,
    /// One bit of a general-purpose register is flipped just before the
    /// targeted instruction executes.
    RegisterBitFlip {
        /// The register hit by the upset.
        reg: Reg,
        /// Bit position, `0..32`.
        bit: u32,
    },
    /// One bit of a RAM word is flipped just before the targeted
    /// instruction executes.
    MemoryBitFlip {
        /// The word address hit by the upset.
        word: u32,
        /// Bit position, `0..32`.
        bit: u32,
    },
}

impl FaultKind {
    /// Short label for campaign tables and logs.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::SkipInstruction => "skip",
            FaultKind::RegisterBitFlip { .. } => "reg-flip",
            FaultKind::MemoryBitFlip { .. } => "mem-flip",
        }
    }
}

/// One deterministic perturbation: apply `kind` when the instruction at
/// trace index `at` is about to retire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Index into the recorded instruction stream.
    pub at: u64,
    /// What happens there.
    pub kind: FaultKind,
}

impl FaultPlan {
    /// Draws a uniformly random plan for a trace of `trace_len`
    /// instructions. Memory upsets target a word drawn from
    /// `mem_regions` (half-open word ranges — typically the machine's
    /// allocated RAM minus any range modeling flash ROM); when no
    /// region is given only skips and register flips are drawn.
    ///
    /// # Panics
    ///
    /// Panics if `trace_len` is zero.
    pub fn sample(rng: &mut SplitMix64, trace_len: u64, mem_regions: &[Range<u32>]) -> FaultPlan {
        assert!(trace_len > 0, "cannot fault an empty trace");
        let at = rng.below(trace_len);
        let mem_words: u64 = mem_regions.iter().map(|r| (r.end - r.start) as u64).sum();
        let kinds = if mem_words == 0 { 2 } else { 3 };
        let kind = match rng.below(kinds) {
            0 => FaultKind::SkipInstruction,
            1 => FaultKind::RegisterBitFlip {
                reg: Reg::GENERAL[rng.below(Reg::GENERAL.len() as u64) as usize],
                bit: rng.below(32) as u32,
            },
            _ => {
                let mut pick = rng.below(mem_words);
                let mut word = 0;
                for r in mem_regions {
                    let len = (r.end - r.start) as u64;
                    if pick < len {
                        word = r.start + pick as u32;
                        break;
                    }
                    pick -= len;
                }
                FaultKind::MemoryBitFlip {
                    word,
                    bit: rng.below(32) as u32,
                }
            }
        };
        FaultPlan { at, kind }
    }
}

/// Outcome of one (possibly faulted) replay.
#[derive(Debug)]
pub struct FaultedRun {
    /// The machine after the replay (at the abort point on error).
    pub machine: Machine,
    /// Replay statistics, or the abort reason.
    pub stats: Result<ExecStats, ExecError>,
}

impl FaultedRun {
    /// Whether the replay aborted with an executor error (the machine's
    /// HardFault-equivalent — a *detected* fault for free).
    pub fn aborted(&self) -> bool {
        self.stats.is_err()
    }
}

/// The per-step replay contract: reapply the recording's positioned
/// un-costed register writes, force the recorded per-step category,
/// inject the fault at its trace index.
///
/// All of that work is *sparse* — writes sit at a handful of indices,
/// categories run in long stretches, the fault hits one index — so the
/// hook can also report ([`ReplayHook::next_break`]) the next index at
/// which it has anything to do, which is what lets every replay run
/// hook-free between boundaries through the executor's scheduled hook.
struct ReplayHook<'a> {
    steps: &'a [crate::machine::RecordedStep],
    writes: &'a [crate::machine::RecordedSetReg],
    /// The first write not yet applied.
    cursor: usize,
    /// Category-run starts (see [`category_breaks`]).
    breaks: &'a [u32],
    /// The first run start not yet passed.
    next_run: usize,
    fault: Option<FaultPlan>,
}

/// The trace indices at which the recorded category changes: the hook
/// sets the override again only there.
fn category_breaks(recording: &Recording) -> Vec<u32> {
    let steps = &recording.steps;
    (1..steps.len())
        .filter(|&i| steps[i].category != steps[i - 1].category)
        .map(|i| i as u32)
        .collect()
}

impl<'a> ReplayHook<'a> {
    /// The hook of a replay about to retire trace index `from`: every
    /// write positioned before `from` has already been applied.
    fn new(
        recording: &'a Recording,
        breaks: &'a [u32],
        fault: Option<&FaultPlan>,
        from: u64,
    ) -> ReplayHook<'a> {
        let writes = &recording.reg_writes[..];
        ReplayHook {
            steps: &recording.steps,
            writes,
            cursor: writes.partition_point(|w| (w.at as u64) < from),
            breaks,
            next_run: breaks.partition_point(|&b| u64::from(b) <= from),
            fault: fault.copied(),
        }
    }

    /// The per-step work at retired-instruction index `idx`.
    fn at(&mut self, mm: &mut Machine, idx: usize) -> StepAction {
        while self.cursor < self.writes.len() && self.writes[self.cursor].at <= idx {
            let w = &self.writes[self.cursor];
            mm.set_reg(w.reg, w.value);
            self.cursor += 1;
        }
        if idx < self.steps.len() {
            mm.set_category_override(Some(self.steps[idx].category));
        }
        if let Some(f) = self.fault {
            if f.at == idx as u64 {
                match f.kind {
                    FaultKind::SkipInstruction => return StepAction::Skip,
                    FaultKind::RegisterBitFlip { reg, bit } => mm.flip_reg_bit(reg, bit),
                    FaultKind::MemoryBitFlip { word, bit } => {
                        mm.flip_mem_bit(word, bit);
                    }
                }
            }
        }
        StepAction::Execute
    }

    /// The next index after `idx` at which [`ReplayHook::at`] would do
    /// anything: a pending write, a category-run boundary, or the fault.
    fn next_break(&mut self, idx: usize) -> u64 {
        let mut next = u64::MAX;
        if self.cursor < self.writes.len() {
            next = next.min(self.writes[self.cursor].at as u64);
        }
        while self.next_run < self.breaks.len() && self.breaks[self.next_run] as usize <= idx {
            self.next_run += 1;
        }
        if let Some(&run) = self.breaks.get(self.next_run) {
            next = next.min(u64::from(run));
        }
        if let Some(f) = self.fault {
            if f.at > idx as u64 {
                next = next.min(f.at);
            }
        }
        next
    }
}

/// Replays a recorded kernel's predecoded fragment on `machine` from
/// `cursor` until it ends, aborts or is about to retire trace index
/// `stop` (`Ok(None)`; see [`exec::resume`]). It reapplies the
/// recording's positioned un-costed register writes and per-step
/// category attribution (`breaks` from [`category_breaks`]), injects
/// `fault`, if any, at its trace index, and on completion flushes the
/// writes recorded after the last costed instruction. The category
/// override is left as the replay set it.
fn replay_from(
    machine: &mut Machine,
    predecoded: &Predecoded,
    recording: &Recording,
    breaks: &[u32],
    fault: Option<&FaultPlan>,
    cursor: &mut Cursor,
    stop: u64,
) -> Result<Option<ExecStats>, ExecError> {
    let mut hook = ReplayHook::new(recording, breaks, fault, cursor.steps);
    let stats = exec::resume(
        machine,
        predecoded,
        cursor,
        recording.steps.len() as u64 + 1,
        stop,
        |mm, idx| {
            let action = hook.at(mm, idx);
            (action, hook.next_break(idx))
        },
    );
    if let Ok(Some(_)) = stats {
        for w in &hook.writes[hook.cursor..] {
            machine.set_reg(w.reg, w.value);
        }
    }
    stats
}

/// Replays a recorded kernel's predecoded fragment on `machine` in
/// place, from its first instruction — the code backend's verified
/// replay ([`backend::run_recorded`]). It injects `fault`, if any, at
/// its trace index; the machine's category override is restored
/// either way.
pub(crate) fn replay(
    machine: &mut Machine,
    predecoded: &Predecoded,
    recording: &Recording,
    fault: Option<&FaultPlan>,
) -> Result<ExecStats, ExecError> {
    let saved_override = machine.category_override();
    let breaks = category_breaks(recording);
    let mut cursor = Cursor::at(0, machine.cycles());
    let stats = replay_from(
        machine,
        predecoded,
        recording,
        &breaks,
        fault,
        &mut cursor,
        NEVER,
    )
    .map(|stats| stats.expect("a replay without a stop runs to its end"));
    machine.set_category_override(saved_override);
    stats
}

/// Checkpoints taken along a recorded kernel's fault-free replay, the
/// golden run. A fixed count rather than a fixed interval: a faulted
/// replay then re-runs at most 1/64 of the trace before its fault,
/// however long the kernel.
const CHECKPOINTS: u64 = 64;

/// The golden run's state just before it retires trace index
/// `cursor.steps`.
#[derive(Debug)]
struct Checkpoint {
    state: StateDelta,
    cursor: Cursor,
}

/// How [`RecordedKernel::classify`] settled one faulted replay.
#[derive(Debug)]
pub enum Outcome {
    /// At the first checkpoint after the fault, registers, flags, RAM,
    /// program counter and call depth equaled the golden run's: the
    /// rest of the run is the golden run, so it ends with the fault-free
    /// result. The replay stopped there.
    Converged,
    /// The replay ran to its end or aborted.
    Ran(Box<FaultedRun>),
}

/// Everything needed to replay one kernel under fault injection: the
/// pre-run machine state, the assembled Thumb-16 fragment, the
/// captured trace, and checkpoints of the fault-free replay.
#[derive(Debug, Clone)]
pub struct RecordedKernel {
    pre: Machine,
    program: Program,
    recording: Recording,
    /// The fragment decoded once, shared by every replay.
    predecoded: Arc<Predecoded>,
    /// Checkpoints at trace indices 0, `interval`, 2·`interval`, … up
    /// to where the golden run ends.
    checkpoints: Arc<[Checkpoint]>,
    interval: u64,
    /// The recording's category-run starts.
    breaks: Vec<u32>,
}

impl RecordedKernel {
    /// Bundles a captured kernel: predecodes the fragment once (via the
    /// process-wide cache), then replays it once without a fault and
    /// checkpoints that golden run at 64 (`CHECKPOINTS`) evenly spaced
    /// trace indices, so every later replay skips decode, hashing and
    /// the golden prefix before its fault. `pre` must have no recording
    /// or trace armed: a resumed replay could not capture its prefix.
    pub fn new(pre: Machine, program: Program, recording: Recording) -> RecordedKernel {
        debug_assert!(
            !pre.block_capture_active(),
            "a replayed machine must not be capturing"
        );
        let predecoded = exec::predecode_with(&program, pre.model().cycle_table());
        let len = recording.len() as u64;
        let mut kernel = RecordedKernel {
            breaks: category_breaks(&recording),
            interval: len.div_ceil(CHECKPOINTS).max(1),
            checkpoints: Arc::new([]),
            pre,
            program,
            recording,
            predecoded,
        };
        let mut checkpoints = Vec::new();
        let mut machine = kernel.pre.clone();
        let mut cursor = Cursor::at(0, machine.cycles());
        loop {
            checkpoints.push(Checkpoint {
                state: machine.delta_from(&kernel.pre),
                cursor: cursor.clone(),
            });
            let stop = cursor.steps + kernel.interval;
            // A fragment that ends or fails before the next checkpoint
            // has no state to keep beyond this one.
            if stop >= len || kernel.run_on(&mut machine, None, &mut cursor, stop) != Ok(None) {
                break;
            }
        }
        kernel.checkpoints = checkpoints.into();
        kernel
    }

    /// Records `f` running on a clone of `machine` and assembles the
    /// trace, returning the capture alongside `f`'s output.
    ///
    /// # Panics
    ///
    /// Panics if the trace does not assemble (cannot happen for traces
    /// produced by [`Machine::start_recording`]).
    pub fn capture<T>(machine: &Machine, f: impl FnOnce(&mut Machine) -> T) -> (RecordedKernel, T) {
        let pre = machine.clone();
        let mut rec = machine.clone();
        rec.start_recording();
        let out = f(&mut rec);
        let recording = rec.take_recording();
        let program = backend::translate(&recording).expect("recorded trace assembles");
        (RecordedKernel::new(pre, program, recording), out)
    }

    /// Machine state immediately before the kernel ran.
    pub fn pre(&self) -> &Machine {
        &self.pre
    }

    /// The assembled Thumb-16 fragment.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The captured trace (categories + positioned register writes).
    pub fn recording(&self) -> &Recording {
        &self.recording
    }

    /// Trace indices between two checkpoints of the golden run.
    pub fn checkpoint_interval(&self) -> u64 {
        self.interval
    }

    /// The last checkpoint at or before trace index `at`, as a machine
    /// and the cursor to resume it from, and that checkpoint's index.
    fn resume_point(&self, at: u64) -> (Machine, Cursor, usize) {
        let i = ((at / self.interval) as usize).min(self.checkpoints.len() - 1);
        let checkpoint = &self.checkpoints[i];
        let mut machine = self.pre.clone();
        machine.restore(&checkpoint.state);
        (machine, checkpoint.cursor.clone(), i)
    }

    /// Replays the kernel with `fault`, if any, injected at its trace
    /// index, resuming from the last golden checkpoint before the fault.
    /// The result — statistics, abort reason and the whole machine,
    /// energy totals to the bit — is that of a replay on a clone of
    /// [`RecordedKernel::pre`] from the first instruction. Unlike the
    /// code backend's replay there is no shadow-state assertion: a
    /// faulted replay diverges by design.
    pub fn replay(&self, fault: Option<&FaultPlan>) -> FaultedRun {
        let (mut machine, mut cursor, _) = self.resume_point(fault.map_or(u64::MAX, |f| f.at));
        let stats = self.run_on(&mut machine, fault, &mut cursor, NEVER);
        self.ran(machine, stats)
    }

    /// Replays the kernel with `fault` like [`RecordedKernel::replay`],
    /// but stops at the first checkpoint after the fault if the run is
    /// back on the golden run there ([`Outcome::Converged`]). A converged
    /// run's final machine is the fault-free one except for its
    /// counters, which are not computed: use this where only the
    /// kernel's result and whether it aborted matter.
    pub fn classify(&self, fault: &FaultPlan) -> Outcome {
        let (mut machine, mut cursor, i) = self.resume_point(fault.at);
        let next = self.checkpoints.get(i + 1);
        let stop = next.map_or(NEVER, |c| c.cursor.steps);
        let mut stats = self.run_on(&mut machine, Some(fault), &mut cursor, stop);
        if let (Ok(None), Some(next)) = (&stats, next) {
            if cursor.pc == next.cursor.pc
                && cursor.call_stack.len() == next.cursor.call_stack.len()
                && machine.same_architecture(&self.pre, &next.state)
            {
                return Outcome::Converged;
            }
            stats = self.run_on(&mut machine, Some(fault), &mut cursor, NEVER);
        }
        Outcome::Ran(Box::new(self.ran(machine, stats)))
    }

    fn run_on(
        &self,
        machine: &mut Machine,
        fault: Option<&FaultPlan>,
        cursor: &mut Cursor,
        stop: u64,
    ) -> Result<Option<ExecStats>, ExecError> {
        replay_from(
            machine,
            &self.predecoded,
            &self.recording,
            &self.breaks,
            fault,
            cursor,
            stop,
        )
    }

    /// The [`FaultedRun`] of a replay that ran to its end or aborted,
    /// with the pre-run category override put back.
    fn ran(&self, mut machine: Machine, stats: Result<Option<ExecStats>, ExecError>) -> FaultedRun {
        machine.set_category_override(self.pre.category_override());
        FaultedRun {
            machine,
            stats: stats.map(|s| s.expect("a replay without a stop runs to its end")),
        }
    }

    /// Number of instructions in the captured trace.
    pub fn trace_len(&self) -> u64 {
        self.recording.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Addr;
    use crate::{Category, Cond, Instr};

    /// The replay every checkpointed one must equal: a clone of `pre`
    /// replayed from the first instruction, as `RecordedKernel::replay`
    /// ran before it kept checkpoints.
    fn replay_from_pre(k: &RecordedKernel, fault: Option<&FaultPlan>) -> FaultedRun {
        let mut machine = k.pre.clone();
        let stats = replay(&mut machine, &k.predecoded, &k.recording, fault);
        FaultedRun { machine, stats }
    }

    /// Asserts two runs agree on statistics or abort reason and on the
    /// whole machine: registers, flags, RAM, cycles, instruction counts,
    /// per-category totals, the category override and every energy
    /// accumulator to the bit.
    fn assert_same_run(got: &FaultedRun, want: &FaultedRun, context: &str) {
        assert_eq!(got.stats, want.stats, "{context}: stats diverged");
        got.machine.assert_same_state(&want.machine, context);
        assert_eq!(
            got.machine.category_override(),
            want.machine.category_override(),
            "{context}: category override diverged"
        );
    }

    /// A kernel long enough for several trace indices per checkpoint:
    /// twelve rounds of a keyed four-word xor that feeds back into its
    /// input, each round with mid-stream argument writes, its own
    /// category, a literal, a conditional branch and a stack transfer.
    fn rounds_kernel(m: &mut Machine, a: Addr, b: Addr, out: Addr) {
        m.bl();
        for round in 0..12u32 {
            m.set_base(Reg::R0, a);
            m.set_base(Reg::R1, b);
            m.set_base(Reg::R2, out);
            let category = if round % 2 == 0 {
                Category::Multiply
            } else {
                Category::Square
            };
            m.in_category(category, |m| {
                m.ldr_const(Reg::R5, 0x1234_0000 + round);
                for i in 0..4 {
                    m.ldr(Reg::R3, Reg::R0, i);
                    m.ldr(Reg::R4, Reg::R1, i);
                    m.eors(Reg::R3, Reg::R4);
                    m.eors(Reg::R3, Reg::R5);
                    m.str(Reg::R3, Reg::R2, i);
                }
                m.str(Reg::R3, Reg::R0, round % 4);
                m.cmp_imm(Reg::R3, 0);
                m.b_cond(Cond::Ne);
                m.stack_transfer(3);
            });
        }
        m.bx();
    }

    fn rounds_setup() -> (RecordedKernel, Addr) {
        let (m, a, b, out) = setup();
        let (kernel, ()) = RecordedKernel::capture(&m, |m| rounds_kernel(m, a, b, out));
        (kernel, a)
    }

    /// Skip, register flip and memory flip at each of `at`.
    fn plans_at(at: &[u64], word: u32) -> Vec<FaultPlan> {
        let kinds = [
            FaultKind::SkipInstruction,
            FaultKind::RegisterBitFlip {
                reg: Reg::R3,
                bit: 5,
            },
            FaultKind::MemoryBitFlip { word, bit: 9 },
        ];
        at.iter()
            .flat_map(|&at| kinds.map(|kind| FaultPlan { at, kind }))
            .collect()
    }

    #[test]
    fn resumed_replay_matches_replay_from_pre() {
        for (name, (kernel, a)) in [
            ("xor", {
                let (m, a, b, out) = setup();
                (
                    RecordedKernel::capture(&m, |m| xor_kernel(m, a, b, out)).0,
                    a,
                )
            }),
            ("rounds", rounds_setup()),
        ] {
            let len = kernel.trace_len();
            let k = kernel.checkpoint_interval();
            assert_eq!(k, len.div_ceil(CHECKPOINTS).max(1), "{name}");
            if name == "rounds" {
                assert!(k >= 3, "{name}: K − 1, K and K + 1 must be distinct");
            }
            let clean = kernel.replay(None);
            assert_same_run(&clean, &replay_from_pre(&kernel, None), name);
            let mut plans = plans_at(&[0, k - 1, k, k + 1, len - 1], a.0 + 1);
            // A flip of the base pointer's top bit just before a load
            // through it in the second checkpoint interval aborts.
            let load = (k + 1..len)
                .find(|&i| {
                    matches!(
                        kernel.recording.steps[i as usize].instr,
                        Instr::LdrImm { rn: Reg::R0, .. }
                    )
                })
                .expect("a load through r0");
            plans.push(FaultPlan {
                at: load,
                kind: FaultKind::RegisterBitFlip {
                    reg: Reg::R0,
                    bit: 31,
                },
            });
            for plan in &plans {
                let context = format!("{name} {plan:?}");
                let got = kernel.replay(Some(plan));
                assert_same_run(&got, &replay_from_pre(&kernel, Some(plan)), &context);
                if plan.at == load {
                    assert!(
                        matches!(got.stats, Err(ExecError::MemOutOfRange { .. })),
                        "{context}"
                    );
                }
            }
        }
    }

    #[test]
    fn classify_stops_only_where_the_run_is_golden_again() {
        let (kernel, a) = rounds_setup();
        let k = kernel.checkpoint_interval();
        let clean = kernel.replay(None).machine;
        // A flip of r3 just before a load into r3 is overwritten at
        // once, so the run is golden again at the next checkpoint.
        let reload = (k..kernel.trace_len())
            .find(|&i| {
                matches!(
                    kernel.recording.steps[i as usize].instr,
                    Instr::LdrImm { rt: Reg::R3, .. }
                )
            })
            .expect("a load into r3");
        let dead = FaultPlan {
            at: reload,
            kind: FaultKind::RegisterBitFlip {
                reg: Reg::R3,
                bit: 7,
            },
        };
        assert!(matches!(kernel.classify(&dead), Outcome::Converged));
        let full = kernel.replay(Some(&dead));
        assert_eq!(full.machine.read_slice(a, 12), clean.read_slice(a, 12));

        // A flip of the second input, which the kernel never writes,
        // stays in RAM: classify runs to the end and returns the exact
        // replay.
        let live = FaultPlan {
            at: 0,
            kind: FaultKind::MemoryBitFlip {
                word: a.0 + 4 + 2,
                bit: 3,
            },
        };
        match kernel.classify(&live) {
            Outcome::Ran(run) => {
                assert_same_run(&run, &kernel.replay(Some(&live)), "live flip");
                assert_ne!(run.machine.read_slice(a, 12), clean.read_slice(a, 12));
            }
            Outcome::Converged => panic!("an altering flip cannot converge"),
        }
    }

    /// A little two-operand kernel: out[i] = a[i] ^ b[i] for 4 words,
    /// with a data-dependent twist so skips and flips show up.
    fn xor_kernel(m: &mut Machine, a: Addr, b: Addr, out: Addr) {
        m.set_base(Reg::R0, a);
        m.set_base(Reg::R1, b);
        m.set_base(Reg::R2, out);
        for i in 0..4 {
            m.ldr(Reg::R3, Reg::R0, i);
            m.ldr(Reg::R4, Reg::R1, i);
            m.eors(Reg::R3, Reg::R4);
            m.str(Reg::R3, Reg::R2, i);
        }
    }

    fn setup() -> (Machine, Addr, Addr, Addr) {
        let mut m = Machine::new(64);
        let a = m.alloc(4);
        let b = m.alloc(4);
        let out = m.alloc(4);
        m.write_slice(a, &[0x11, 0x22, 0x33, 0x44]);
        m.write_slice(b, &[0xA0, 0xB0, 0xC0, 0xD0]);
        (m, a, b, out)
    }

    #[test]
    fn clean_replay_matches_direct_execution() {
        let (mut direct, a, b, out) = setup();
        let (kernel, ()) = RecordedKernel::capture(&direct, |m| xor_kernel(m, a, b, out));
        xor_kernel(&mut direct, a, b, out);

        let run = kernel.replay(None);
        assert!(!run.aborted());
        assert_eq!(
            run.machine.read_slice(out, 4),
            direct.read_slice(out, 4),
            "un-faulted replay reproduces the kernel result"
        );
        assert_eq!(run.machine.cycles(), direct.cycles());
        assert_eq!(run.stats.unwrap().instructions, kernel.trace_len());
    }

    #[test]
    fn skip_fault_changes_the_result_deterministically() {
        let (m, a, b, out) = setup();
        let (kernel, ()) = RecordedKernel::capture(&m, |m| xor_kernel(m, a, b, out));
        let clean = kernel.replay(None).machine.read_slice(out, 4);

        // Skipping the first str leaves out[0] unwritten.
        let plan = FaultPlan {
            at: 3,
            kind: FaultKind::SkipInstruction,
        };
        let r1 = kernel.replay(Some(&plan));
        let r2 = kernel.replay(Some(&plan));
        assert!(!r1.aborted());
        assert_eq!(
            r1.machine.read_slice(out, 4),
            r2.machine.read_slice(out, 4),
            "faulted replay is deterministic"
        );
        assert_ne!(r1.machine.read_slice(out, 4), clean);
        // A skipped instruction charges nothing.
        assert!(r1.machine.cycles() < kernel.replay(None).machine.cycles());
    }

    #[test]
    fn register_flip_of_a_base_pointer_aborts_cleanly() {
        let (m, a, b, out) = setup();
        let (kernel, ()) = RecordedKernel::capture(&m, |m| xor_kernel(m, a, b, out));
        // Flip the top bit of the source base register right before the
        // first load: the effective address leaves RAM and the replay
        // must abort with MemOutOfRange instead of panicking.
        let plan = FaultPlan {
            at: 0,
            kind: FaultKind::RegisterBitFlip {
                reg: Reg::R0,
                bit: 31,
            },
        };
        let run = kernel.replay(Some(&plan));
        assert!(run.aborted());
        assert!(matches!(run.stats, Err(ExecError::MemOutOfRange { .. })));
    }

    #[test]
    fn memory_flip_corrupts_exactly_one_bit() {
        let (m, a, b, out) = setup();
        let (kernel, ()) = RecordedKernel::capture(&m, |m| xor_kernel(m, a, b, out));
        let clean = kernel.replay(None).machine.read_slice(out, 4);
        // Flip bit 2 of a[2] before anything reads it.
        let plan = FaultPlan {
            at: 0,
            kind: FaultKind::MemoryBitFlip {
                word: a.0 + 2,
                bit: 2,
            },
        };
        let run = kernel.replay(Some(&plan));
        assert!(!run.aborted());
        let faulted = run.machine.read_slice(out, 4);
        assert_eq!(faulted[0], clean[0]);
        assert_eq!(faulted[2], clean[2] ^ 4);
    }

    #[test]
    fn sampling_is_deterministic_and_respects_regions() {
        let regions = [2u32..6, 10..11];
        let mut g1 = SplitMix64::new(99);
        let mut g2 = SplitMix64::new(99);
        for _ in 0..200 {
            let p1 = FaultPlan::sample(&mut g1, 40, &regions);
            let p2 = FaultPlan::sample(&mut g2, 40, &regions);
            assert_eq!(p1, p2);
            assert!(p1.at < 40);
            if let FaultKind::MemoryBitFlip { word, bit } = p1.kind {
                assert!((2..6).contains(&word) || word == 10);
                assert!(bit < 32);
            }
        }
        // Without regions, memory flips are never drawn.
        let mut g = SplitMix64::new(1);
        for _ in 0..100 {
            let p = FaultPlan::sample(&mut g, 8, &[]);
            assert!(!matches!(p.kind, FaultKind::MemoryBitFlip { .. }));
        }
    }

    #[test]
    fn all_three_kinds_are_eventually_sampled() {
        let mut g = SplitMix64::new(5);
        let regions = vec![0..16, 24..32];
        let (mut skips, mut regs, mut mems) = (0, 0, 0);
        for _ in 0..300 {
            match FaultPlan::sample(&mut g, 100, &regions).kind {
                FaultKind::SkipInstruction => skips += 1,
                FaultKind::RegisterBitFlip { .. } => regs += 1,
                FaultKind::MemoryBitFlip { .. } => mems += 1,
            }
        }
        assert!(skips > 0 && regs > 0 && mems > 0);
    }
}
