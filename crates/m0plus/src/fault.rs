//! Deterministic fault injection on recorded kernel executions.
//!
//! [`RecordedKernel::capture`] records a modeled kernel as it runs and
//! assembles the trace into a concrete Thumb-16 fragment ([`Recording`]
//! → `Program`, via [`backend::translate`]), and
//! [`RecordedKernel::assert_replays_to`] checks that the fragment
//! replays to the machine the kernel ran on. This module perturbs a
//! *replay* of that fragment at a chosen instruction index with one of
//! the three classic glitch models — instruction skip, single-bit
//! register flip, single-bit memory flip — and runs the faulted
//! execution to completion, or to a clean [`ExecError`] abort.
//!
//! Up to the fault, a faulted replay is the fault-free one (the *golden
//! run*). A [`RecordedKernel`] runs the golden run once (in
//! [`RecordedKernel::new`], or on the first replay of a capture) and
//! checkpoints it at 64 evenly spaced trace indices; a replay restores
//! the last checkpoint at or before its fault on a clone of the
//! pre-kernel machine state and resumes the executor there, with a
//! result bit-identical to a replay from the first instruction.
//!
//! [`RecordedKernel::classify`] settles a fault for a caller that reads
//! only some result words afterwards, and replays no more than that
//! needs. On the first call it builds a def/use liveness table of the
//! golden run from the recording alone (the register masks of each
//! step and the word each load or store touched): the registers live
//! before every step, and every RAM word's loads and stores in order.
//! A register or memory flip on a location the golden run writes
//! before it reads it again — or never touches again, outside the
//! result words — cannot change the result: it is [`Outcome::Dead`]
//! without a replay. Any other fault is replayed to the first
//! checkpoint after it, and stops there ([`Outcome::Converged`]) when
//! flags, program counter, call depth and every *live* register and
//! word equal the golden run's. [`RecordedKernel::replay`], which
//! prunes nothing, is the oracle both rules are tested against.
//!
//! Everything is deterministic: a [`FaultPlan`] fully describes one
//! fault, and [`FaultPlan::sample`] draws plans from the in-tree
//! [`prng::SplitMix64`], so a campaign with a fixed seed replays
//! byte-for-byte on every platform.

use crate::asm::Program;
use crate::backend;
use crate::exec::{self, Cursor, ExecError, ExecStats, Predecoded, StepAction, NEVER};
use crate::machine::{Machine, MicroOp, Recording, Reg, StateDelta};
use prng::SplitMix64;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

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

/// How [`RecordedKernel::classify`] settled one fault.
#[derive(Debug)]
pub enum Outcome {
    /// A register or memory flip on a location the golden run writes
    /// before it reads it again, or never touches again outside the
    /// result words: the faulted run reads only golden values, so it
    /// ends with the fault-free result. Nothing was replayed.
    Dead,
    /// At the first checkpoint after the fault, flags, program counter,
    /// call depth and every register and RAM word live there equaled
    /// the golden run's: from there the run reads only golden values,
    /// so it ends with the fault-free result. The replay stopped there.
    Converged,
    /// The replay ran to its end or aborted.
    Ran(Box<FaultedRun>),
}

/// Def/use liveness of a recorded kernel's golden run, built from the
/// recording alone: one backward pass over its steps' register masks
/// ([`MicroOp::reads`] and [`MicroOp::writes`]) and positioned host
/// writes, and the word every load and store touched.
#[derive(Debug)]
struct Liveness {
    /// Per trace index, the registers (bit [`Reg::index`]) the golden
    /// run reads before it writes them again, counted from just before
    /// that step retires — after the host writes positioned there,
    /// which the replay applies before a fault. No register is live
    /// after the last step.
    regs: Box<[u16]>,
    /// RAM word `w`'s loads and stores are
    /// `accesses[starts[w]..starts[w + 1]]`, in trace order: each the
    /// trace index shifted left one, with the low bit set for a store.
    /// Words past the last one touched have none.
    starts: Box<[u32]>,
    accesses: Box<[u32]>,
}

impl Liveness {
    /// The table of `recording`.
    ///
    /// # Panics
    ///
    /// Panics if a load or store step carries no word.
    fn new(recording: &Recording) -> Liveness {
        let steps = &recording.steps;
        let writes = &recording.reg_writes;
        let mut regs = vec![0u16; steps.len()];
        // (word, access) pairs, backwards through the trace.
        let mut touches = Vec::with_capacity(steps.len() / 2);
        let (mut live, mut pending) = (0u16, writes.len());
        for (i, step) in steps.iter().enumerate().rev() {
            // Host writes positioned after this step run before the
            // next one: they overwrite what this step leaves.
            while let Some(w) = pending
                .checked_sub(1)
                .map(|p| &writes[p])
                .filter(|w| w.at > i)
            {
                live &= !(1 << w.reg.index());
                pending -= 1;
            }
            let op = MicroOp::lower(step.instr, step.literal.as_slice());
            live = live & !op.writes() | op.reads();
            regs[i] = live;
            match step.word {
                Some(word) => touches.push((word, (i as u32) << 1 | u32::from(op.stores()))),
                None => assert!(
                    !op.touches_memory(),
                    "a recorded load or store carries its word"
                ),
            }
        }
        let words = touches
            .iter()
            .map(|&(w, _)| w as usize + 1)
            .max()
            .unwrap_or(0);
        let mut starts = vec![0u32; words + 1];
        for &(word, _) in &touches {
            starts[word as usize + 1] += 1;
        }
        for w in 0..words {
            starts[w + 1] += starts[w];
        }
        let mut next = starts[..words].to_vec();
        let mut accesses = vec![0u32; touches.len()];
        for &(word, access) in touches.iter().rev() {
            accesses[next[word as usize] as usize] = access;
            next[word as usize] += 1;
        }
        Liveness {
            regs: regs.into(),
            starts: starts.into(),
            accesses: accesses.into(),
        }
    }

    /// The registers live just before trace index `at` retires (all of
    /// them past the end of the trace).
    fn regs_at(&self, at: u64) -> u16 {
        self.regs.get(at as usize).copied().unwrap_or(u16::MAX)
    }

    /// Whether RAM word `word`, changed just before trace index `at`
    /// retires, can reach the result: the golden run's next access to
    /// it from `at` on is a load, or it has none and `word` lies in
    /// `live_out`.
    fn word_live(&self, at: u64, word: u32, live_out: &[Range<u32>]) -> bool {
        let w = word as usize;
        let accesses = match self.starts.get(w..w + 2) {
            Some(&[start, end]) => &self.accesses[start as usize..end as usize],
            _ => &[],
        };
        let next = accesses.partition_point(|&a| u64::from(a >> 1) < at);
        match accesses.get(next) {
            Some(&access) => access & 1 == 0,
            None => live_out.iter().any(|r| r.contains(&word)),
        }
    }

    /// Whether `fault` injected at its trace index can change the words
    /// in `live_out`. Skips always can.
    fn fault_live(&self, fault: &FaultPlan, live_out: &[Range<u32>]) -> bool {
        match fault.kind {
            FaultKind::SkipInstruction => true,
            FaultKind::RegisterBitFlip { reg, .. } => {
                self.regs_at(fault.at) >> reg.index() & 1 != 0
            }
            FaultKind::MemoryBitFlip { word, .. } => self.word_live(fault.at, word, live_out),
        }
    }
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
    /// to where the golden run ends, taken once (by `new`, or by the
    /// first replay of a capture) and shared by every clone.
    checkpoints: Arc<OnceLock<Box<[Checkpoint]>>>,
    interval: u64,
    /// The golden run's liveness, built by the first
    /// [`RecordedKernel::classify`] and shared by every clone.
    liveness: Arc<OnceLock<Liveness>>,
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
        let kernel = RecordedKernel::bundle(pre, program, recording);
        kernel.checkpoints();
        kernel
    }

    /// [`RecordedKernel::new`] without the golden run: the checkpoints
    /// are taken by the first replay that needs them, so a capture that
    /// is only checked ([`RecordedKernel::assert_replays_to`]) never
    /// pays for them.
    fn bundle(pre: Machine, program: Program, recording: Recording) -> RecordedKernel {
        debug_assert!(
            !pre.block_capture_active(),
            "a replayed machine must not be capturing"
        );
        let predecoded = exec::predecode_with(&program, pre.model().cycle_table());
        RecordedKernel {
            breaks: category_breaks(&recording),
            interval: (recording.len() as u64).div_ceil(CHECKPOINTS).max(1),
            checkpoints: Arc::default(),
            liveness: Arc::default(),
            pre,
            program,
            recording,
            predecoded,
        }
    }

    /// The golden run's checkpoints, taken on first use.
    fn checkpoints(&self) -> &[Checkpoint] {
        self.checkpoints.get_or_init(|| {
            let len = self.trace_len();
            let mut checkpoints = Vec::new();
            let mut machine = self.pre.clone();
            let mut cursor = Cursor::at(0, machine.cycles());
            loop {
                checkpoints.push(Checkpoint {
                    state: machine.delta_from(&self.pre),
                    cursor: cursor.clone(),
                });
                let stop = cursor.steps + self.interval;
                // A fragment that ends or fails before the next
                // checkpoint has no state to keep beyond this one.
                if stop >= len || self.run_on(&mut machine, None, &mut cursor, stop) != Ok(None) {
                    break;
                }
            }
            checkpoints.into()
        })
    }

    /// The golden run's liveness table, built on first use.
    fn liveness(&self) -> &Liveness {
        self.liveness.get_or_init(|| Liveness::new(&self.recording))
    }

    /// Records `f` running on `host`'s machine and assembles the trace:
    /// the one way a kernel becomes a replayable Thumb-16 fragment.
    /// `host` is the machine itself or a wrapper that owns one (a
    /// modeled field); `f` runs on it as it would unrecorded, so `host`
    /// ends in the kernel's post-state, and `f`'s output is returned
    /// beside the capture. [`RecordedKernel::pre`] is `host`'s machine
    /// before `f` ran.
    ///
    /// # Panics
    ///
    /// Panics if `host`'s machine is already recording or tracing:
    /// captures do not nest.
    pub fn capture<H: AsMut<Machine>, T>(
        host: &mut H,
        f: impl FnOnce(&mut H) -> T,
    ) -> (RecordedKernel, T) {
        let machine = host.as_mut();
        assert!(
            !machine.block_capture_active(),
            "cannot capture on a machine that is already recording or tracing"
        );
        let pre = machine.clone();
        machine.start_recording();
        let out = f(host);
        let recording = host.as_mut().take_recording();
        let program = backend::translate(&recording).expect("recorded trace assembles");
        (RecordedKernel::bundle(pre, program, recording), out)
    }

    /// The check beside [`RecordedKernel::capture`]: replays the
    /// fragment without a fault on a clone of [`RecordedKernel::pre`]
    /// and asserts that it retires every recorded instruction and ends
    /// bit for bit in the state of `ran`, the machine the kernel was
    /// captured on (registers, flags, RAM, cycles, energy, instruction
    /// mix and category totals; see [`Machine::assert_same_state`]).
    ///
    /// # Panics
    ///
    /// Panics, with `name` in the message, if the literal pool
    /// overflows the 8-bit `LDR` slot index, the replay aborts, or any
    /// state diverges.
    pub fn assert_replays_to(&self, ran: &Machine, name: &str) {
        assert!(
            self.program.pool.len() <= 256,
            "kernel {name}: literal pool ({} slots) overflows the imm8 index",
            self.program.pool.len()
        );
        let mut replayed = self.pre.clone();
        let stats = self
            .replay_on(&mut replayed, None)
            .unwrap_or_else(|e| panic!("kernel {name}: machine-code replay failed: {e}"));
        assert_eq!(
            stats.instructions,
            self.trace_len(),
            "kernel {name}: replay retired a different instruction count"
        );
        replayed.assert_same_state(ran, name);
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
        let checkpoints = self.checkpoints();
        let i = ((at / self.interval) as usize).min(checkpoints.len() - 1);
        let checkpoint = &checkpoints[i];
        let mut machine = self.pre.clone();
        machine.restore(&checkpoint.state);
        (machine, checkpoint.cursor.clone(), i)
    }

    /// Replays the kernel with `fault`, if any, injected at its trace
    /// index, resuming from the last golden checkpoint before the fault.
    /// The result — statistics, abort reason and the whole machine,
    /// energy totals to the bit — is that of a replay on a clone of
    /// [`RecordedKernel::pre`] from the first instruction. Unlike
    /// [`RecordedKernel::assert_replays_to`] there is no state
    /// assertion: a faulted replay diverges by design.
    pub fn replay(&self, fault: Option<&FaultPlan>) -> FaultedRun {
        let (mut machine, mut cursor, _) = self.resume_point(fault.map_or(u64::MAX, |f| f.at));
        let stats = self.run_on(&mut machine, fault, &mut cursor, NEVER);
        self.ran(machine, stats)
    }

    /// Settles the kernel under `fault` for a caller that reads only the
    /// RAM words in `live_out` (half-open word ranges) of a run that
    /// ends with them golden, and the whole machine of any other run.
    ///
    /// A register or memory flip on a location the golden run does not
    /// read again before writing it, and that is not a `live_out` word
    /// left untouched, is [`Outcome::Dead`] without a replay. Any other
    /// fault is replayed like [`RecordedKernel::replay`], but stops at
    /// the first checkpoint after the fault ([`Outcome::Converged`])
    /// when flags, program counter, call depth and every register and
    /// word live there equal the golden run's. Either way the run would
    /// end with the golden `live_out` words, and the rest of its state
    /// and counters are not computed. Otherwise the result is the exact
    /// replay ([`Outcome::Ran`]).
    pub fn classify(&self, fault: &FaultPlan, live_out: &[Range<u32>]) -> Outcome {
        let liveness = self.liveness();
        if !liveness.fault_live(fault, live_out) {
            return Outcome::Dead;
        }
        let (mut machine, mut cursor, i) = self.resume_point(fault.at);
        let next = self.checkpoints().get(i + 1);
        let stop = next.map_or(NEVER, |c| c.cursor.steps);
        let mut stats = self.run_on(&mut machine, Some(fault), &mut cursor, stop);
        if let (Ok(None), Some(next)) = (&stats, next) {
            // The host writes positioned at the checkpoint are still to
            // come there, so its live registers over-approximate.
            let at = next.cursor.steps;
            if cursor.pc == next.cursor.pc
                && cursor.call_stack.len() == next.cursor.call_stack.len()
                && machine.same_live_state(&self.pre, &next.state, liveness.regs_at(at), |w| {
                    liveness.word_live(at, w, live_out)
                })
            {
                return Outcome::Converged;
            }
            stats = self.run_on(&mut machine, Some(fault), &mut cursor, NEVER);
        }
        Outcome::Ran(Box::new(self.ran(machine, stats)))
    }

    /// Replays the fragment on `machine`, which must be in the state of
    /// [`RecordedKernel::pre`], in place from its first instruction,
    /// with `fault`, if any, injected at its trace index. The machine's
    /// category override is restored either way.
    fn replay_on(
        &self,
        machine: &mut Machine,
        fault: Option<&FaultPlan>,
    ) -> Result<ExecStats, ExecError> {
        let saved_override = machine.category_override();
        let mut cursor = Cursor::at(0, machine.cycles());
        let stats = self
            .run_on(machine, fault, &mut cursor, NEVER)
            .map(|stats| stats.expect("a replay without a stop runs to its end"));
        machine.set_category_override(saved_override);
        stats
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
        let stats = k.replay_on(&mut machine, fault);
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
        let (mut m, a, b, out) = setup();
        let (kernel, ()) = RecordedKernel::capture(&mut m, |m| rounds_kernel(m, a, b, out));
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
                let (mut m, a, b, out) = setup();
                (
                    RecordedKernel::capture(&mut m, |m| xor_kernel(m, a, b, out)).0,
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

    /// The words `rounds_kernel` and `xor_kernel` leave their result
    /// in, given the first input's address.
    fn out_words(a: Addr) -> [Range<u32>; 1] {
        let out = a.0 + 8..a.0 + 12;
        [out]
    }

    /// The first trace index at or after `from` whose instruction is
    /// `instr`.
    fn first(kernel: &RecordedKernel, from: u64, instr: Instr) -> u64 {
        (from..kernel.trace_len())
            .find(|&i| kernel.recording.steps[i as usize].instr == instr)
            .unwrap_or_else(|| panic!("no {instr} from index {from}"))
    }

    fn reg_flip(at: u64, reg: Reg, bit: u32) -> FaultPlan {
        FaultPlan {
            at,
            kind: FaultKind::RegisterBitFlip { reg, bit },
        }
    }

    #[test]
    fn classify_stops_only_where_the_run_is_golden_again() {
        let (kernel, a) = rounds_setup();
        let live_out = out_words(a);
        let k = kernel.checkpoint_interval();
        let clean = kernel.replay(None).machine;
        // A flip of r3 just before a load into r3 is overwritten at
        // once: dead, so nothing is replayed.
        let reload = first(
            &kernel,
            k,
            Instr::LdrImm {
                rt: Reg::R3,
                rn: Reg::R0,
                imm_words: 1,
            },
        );
        let dead = reg_flip(reload, Reg::R3, 7);
        assert!(matches!(kernel.classify(&dead, &live_out), Outcome::Dead));
        let full = kernel.replay(Some(&dead));
        assert_eq!(full.machine.read_slice(a, 12), clean.read_slice(a, 12));

        // A flip of r3 just before round 0 stores it to out[0] reaches
        // RAM, but round 1 stores out[0] again before anything reads
        // it: live at the flip, and at the next checkpoint every live
        // location is golden while out[0] is not.
        let store = first(
            &kernel,
            k,
            Instr::StrImm {
                rt: Reg::R3,
                rn: Reg::R2,
                imm_words: 0,
            },
        );
        let washed = reg_flip(store, Reg::R3, 7);
        assert!(matches!(
            kernel.classify(&washed, &live_out),
            Outcome::Converged
        ));
        let (mut machine, mut cursor, i) = kernel.resume_point(store);
        let next = &kernel.checkpoints()[i + 1];
        let stop = next.cursor.steps;
        let paused = kernel.run_on(&mut machine, Some(&washed), &mut cursor, stop);
        assert!(matches!(paused, Ok(None)));
        assert!(
            !machine.same_live_state(&kernel.pre, &next.state, u16::MAX, |_| true),
            "only the live state is golden at the checkpoint"
        );
        let full = kernel.replay(Some(&washed));
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
        match kernel.classify(&live, &live_out) {
            Outcome::Ran(run) => {
                assert_same_run(&run, &kernel.replay(Some(&live)), "live flip");
                assert_ne!(run.machine.read_slice(a, 12), clean.read_slice(a, 12));
            }
            other => panic!("an altering flip was settled as {other:?}"),
        }
    }

    #[test]
    fn a_register_overwritten_before_it_is_read_is_dead() {
        let (mut m, a, b, out) = setup();
        let (kernel, ()) = RecordedKernel::capture(&mut m, |m| xor_kernel(m, a, b, out));
        let live_out = out_words(a);
        let clean = kernel.replay(None).machine.read_slice(out, 4);
        // Step 0 loads r3 without reading it; nothing reads r5 at all.
        for plan in [reg_flip(0, Reg::R3, 4), reg_flip(0, Reg::R5, 4)] {
            assert!(matches!(kernel.classify(&plan, &live_out), Outcome::Dead));
            let run = kernel.replay(Some(&plan));
            assert_eq!(run.machine.read_slice(out, 4), clean, "{plan:?}");
        }
        // Step 2, `EORS r3, r4`, reads r4 before anything writes it.
        let read = reg_flip(2, Reg::R4, 4);
        assert_eq!(
            kernel.recording.steps[2].instr,
            Instr::Eors {
                rdn: Reg::R3,
                rm: Reg::R4
            }
        );
        match kernel.classify(&read, &live_out) {
            Outcome::Ran(run) => assert_eq!(run.machine.read_slice(out, 4)[0], clean[0] ^ 16),
            other => panic!("a read register was settled as {other:?}"),
        }
    }

    #[test]
    fn a_host_write_at_the_fault_does_not_kill_it() {
        let (kernel, a) = rounds_setup();
        let live_out = out_words(a);
        let clean = kernel.replay(None).machine.read_slice(a, 12);
        // Round 1 points r0 at the first input again, by a host write
        // positioned where its first instruction retires.
        let at = kernel
            .recording
            .reg_writes
            .iter()
            .find(|w| w.reg == Reg::R0 && w.at > 0)
            .expect("a second round")
            .at as u64;
        // The replay applies that write before a flip at the same
        // index, so the flip survives into the round's first load,
        // which it sends out of RAM.
        let survives = reg_flip(at, Reg::R0, 31);
        match kernel.classify(&survives, &live_out) {
            Outcome::Ran(run) => {
                assert!(run.aborted());
                assert_same_run(&run, &kernel.replay(Some(&survives)), "flip at the write");
            }
            other => panic!("a flip after the host write was settled as {other:?}"),
        }
        // One index earlier the write comes after the flip and kills it.
        let killed = reg_flip(at - 1, Reg::R0, 31);
        assert!(matches!(kernel.classify(&killed, &live_out), Outcome::Dead));
        let run = kernel.replay(Some(&killed));
        assert!(!run.aborted());
        assert_eq!(run.machine.read_slice(a, 12), clean);
    }

    #[test]
    fn a_result_word_never_touched_again_stays_live() {
        let (mut m, a, b, out) = setup();
        let (kernel, ()) = RecordedKernel::capture(&mut m, |m| xor_kernel(m, a, b, out));
        let last = kernel.trace_len() - 1;
        let clean = kernel.replay(None).machine.read_slice(out, 4);
        // out[0] is stored at step 3 and never touched again.
        let flip = FaultPlan {
            at: last,
            kind: FaultKind::MemoryBitFlip {
                word: out.0,
                bit: 1,
            },
        };
        match kernel.classify(&flip, &out_words(a)) {
            Outcome::Ran(run) => assert_eq!(run.machine.read_slice(out, 4)[0], clean[0] ^ 2),
            other => panic!("a flipped result word was settled as {other:?}"),
        }
        // A caller that reads no result word cannot see it.
        assert!(matches!(kernel.classify(&flip, &[]), Outcome::Dead));
        // The last step stores out[3], overwriting a flip there.
        let overwritten = FaultPlan {
            at: last,
            kind: FaultKind::MemoryBitFlip {
                word: out.0 + 3,
                bit: 1,
            },
        };
        assert!(matches!(
            kernel.classify(&overwritten, &out_words(a)),
            Outcome::Dead
        ));
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
        let (mut m, a, b, out) = setup();
        let mut direct = m.clone();
        let (kernel, ()) = RecordedKernel::capture(&mut m, |m| xor_kernel(m, a, b, out));
        xor_kernel(&mut direct, a, b, out);
        m.assert_same_state(&direct, "capture runs the kernel on its host");

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
    fn capture_replays_to_the_machine_it_ran_on() {
        let (mut m, a, b, out) = setup();
        let mut direct = m.clone();
        let (kernel, ()) = RecordedKernel::capture(&mut m, |m| rounds_kernel(m, a, b, out));
        rounds_kernel(&mut direct, a, b, out);
        m.assert_same_state(&direct, "captured vs direct");
        kernel.assert_replays_to(&m, "rounds");
        assert!(kernel.checkpoints.get().is_none(), "a check takes none");
        for c in Category::ALL {
            assert_eq!(
                kernel.replay(None).machine.category_totals(c).cycles,
                direct.category_totals(c).cycles,
                "{c}"
            );
        }
        assert!(direct.category_totals(Category::Multiply).cycles > 0);
        assert!(direct.category_totals(Category::Square).cycles > 0);
        assert!(kernel.program().size_bytes() > 0);
        assert!(kernel.checkpoints.get().is_some(), "a replay takes them");
        let eager = RecordedKernel::new(
            kernel.pre.clone(),
            kernel.program.clone(),
            kernel.recording.clone(),
        );
        assert!(eager.checkpoints.get().is_some(), "new takes them");
    }

    #[test]
    fn capture_of_host_writes_alone_replays_to_nothing() {
        let mut m = Machine::new(16);
        let (kernel, out) = RecordedKernel::capture(&mut m, |m| {
            m.set_reg(Reg::R7, 42); // un-costed only
            7u32
        });
        assert_eq!(out, 7);
        assert_eq!(kernel.trace_len(), 0);
        assert_eq!(m.cycles(), 0);
        // The replay reapplies the trailing register write.
        kernel.assert_replays_to(&m, "empty");
    }

    #[test]
    #[should_panic(expected = "xor: memory diverged")]
    fn replay_check_catches_a_divergent_machine() {
        let (mut m, a, b, out) = setup();
        let (kernel, ()) = RecordedKernel::capture(&mut m, |m| xor_kernel(m, a, b, out));
        m.flip_mem_bit(out.0, 0);
        kernel.assert_replays_to(&m, "xor");
    }

    #[test]
    #[should_panic(expected = "already recording")]
    fn captures_do_not_nest() {
        let (mut m, a, b, out) = setup();
        RecordedKernel::capture(&mut m, |m| {
            RecordedKernel::capture(m, |m| xor_kernel(m, a, b, out));
        });
    }

    #[test]
    fn skip_fault_changes_the_result_deterministically() {
        let (mut m, a, b, out) = setup();
        let (kernel, ()) = RecordedKernel::capture(&mut m, |m| xor_kernel(m, a, b, out));
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
        let (mut m, a, b, out) = setup();
        let (kernel, ()) = RecordedKernel::capture(&mut m, |m| xor_kernel(m, a, b, out));
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
        let (mut m, a, b, out) = setup();
        let (kernel, ()) = RecordedKernel::capture(&mut m, |m| xor_kernel(m, a, b, out));
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
