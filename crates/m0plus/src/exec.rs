//! The machine-code executor: runs an assembled [`Program`] on the
//! [`Machine`], fetching and decoding real Thumb halfwords with the
//! same per-instruction semantics and cost accounting as the Direct
//! method calls: every data instruction is lowered to a `MicroOp` and
//! executed by the one `Machine::apply` the Direct methods use too.
//!
//! Supported control flow: conditional/unconditional branches, `BL`
//! subroutine calls (a host-side return stack models `LR`), and `BX lr`
//! which returns — or, at the outermost level, ends execution.
//!
//! There is one instruction loop. Every entry point — [`execute`],
//! [`execute_fragment`], [`execute_fragment_ctl`] and
//! [`execute_predecoded`] — runs the program predecoded (see
//! [`Predecoded`]) with superblock dispatch between hook calls. The
//! crate-internal `resume` runs a fragment from a saved cursor and can
//! pause it before a given instruction; the fault injector checkpoints
//! and resumes replays with it. The decode-per-step loop it replaced
//! survives only as the test oracle the executor is checked against
//! bit for bit.

use crate::asm::{decode_bl, Program};
use crate::isa::Instr;
use crate::machine::{Machine, MicroOp};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Execution errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The program counter left the code image.
    PcOutOfRange(usize),
    /// An undecodable halfword was fetched.
    InvalidInstruction { pc: usize, halfword: u16 },
    /// The step budget was exhausted (runaway loop guard).
    StepLimit,
    /// A literal load referenced a missing pool slot.
    BadLiteral { pc: usize, slot: usize },
    /// A load/store computed an effective address outside RAM (the
    /// HardFault of the model — reachable when a fault corrupts a base
    /// register, so it aborts the run instead of panicking the host).
    MemOutOfRange { pc: usize, addr: u64 },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::PcOutOfRange(pc) => write!(f, "pc {pc} outside the code image"),
            ExecError::InvalidInstruction { pc, halfword } => {
                write!(f, "invalid instruction {halfword:04x} at {pc}")
            }
            ExecError::StepLimit => f.write_str("step limit exhausted"),
            ExecError::BadLiteral { pc, slot } => {
                write!(f, "literal slot {slot} missing at {pc}")
            }
            ExecError::MemOutOfRange { pc, addr } => {
                write!(f, "memory access to word {addr} outside RAM at {pc}")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// What the control hook of [`execute_fragment_ctl`] decided for the
/// instruction about to retire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepAction {
    /// Execute normally.
    Execute,
    /// Glitch the instruction away: it is fetched but never retires —
    /// nothing is charged and control falls through, even for branches.
    Skip,
}

/// Statistics of one program run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecStats {
    /// Instructions retired.
    pub instructions: u64,
    /// Cycles charged (from the machine's counter delta).
    pub cycles: u64,
}

/// A predecoded instruction position: the decoded [`Instr`] plus every
/// pc-relative quantity (branch targets, the BL return address)
/// resolved once at predecode time instead of on every retire.
#[derive(Debug, Clone, Copy)]
struct PreStep {
    /// The decoded instruction, shift immediates resolved to their
    /// architectural amounts (a placeholder `Nop` when `invalid`).
    instr: Instr,
    /// The branch target for `BCond`/`B`/`Bl`; the raw halfword for
    /// invalid positions; unused (zero) otherwise.
    aux: usize,
    /// pc + width: the fall-through / skip successor (also the BL
    /// return address, which is exactly pc + 2).
    next: usize,
    /// The halfword does not decode (including the second halfword of a
    /// BL, which is never a legal entry point); reaching it reproduces
    /// [`ExecError::InvalidInstruction`].
    invalid: bool,
}

/// A program decoded once, ready for repeated execution. Holds copies
/// of the code image and literal pool, so running a fragment needs no
/// `Program` — and so the cache can verify a hash hit byte-for-byte.
///
/// Besides the flat per-position `PreStep` table, predecoding
/// partitions the image into *superblocks*: maximal straight-line runs
/// of positions that lower to a runnable micro-op (no control flow, no
/// invalid halfword, no unresolvable pool slot). `run_end[pc]` is the
/// exclusive end of the run starting at `pc` (== `pc` when the
/// position is not runnable), so entering a run at *any* position —
/// e.g. via a branch into the middle of a block — yields the correct
/// remainder with no special casing.
///
/// The modeled cycle and energy accounting is **identical** to
/// decode-per-step execution: predecoding changes when instructions
/// are decoded, never what they charge.
#[derive(Debug)]
pub struct Predecoded {
    steps: Vec<PreStep>,
    ops: Vec<MicroOp>,
    run_end: Vec<u32>,
    code: Vec<u16>,
    pool: Vec<u32>,
    /// The per-class cycle table the superblock `MicroOp` costs were
    /// materialised from. [`PreStep`]s are target-independent (pure
    /// decode), but `ops` bakes per-op cycle counts, so a predecoded
    /// fragment is only valid for machines whose model carries this
    /// exact table.
    cycles: crate::target::CycleTable,
}

impl Predecoded {
    /// Decodes every halfword position of `program` up front, bypassing
    /// the process-wide cache (see [`predecode_with`]). The superblock
    /// micro-ops' precomputed cycle costs are materialised from
    /// `cycle_table`, so the fragment replays correctly on a machine
    /// built for the corresponding target.
    pub fn for_cycles(program: &Program, cycle_table: &crate::target::CycleTable) -> Predecoded {
        let code = program.code.clone();
        let pool = program.pool.clone();
        let steps: Vec<PreStep> = (0..code.len())
            .map(|pc| {
                let window = &code[pc..(pc + 2).min(code.len())];
                let Some((instr, width)) = Instr::decode(window) else {
                    return PreStep {
                        instr: Instr::Nop,
                        aux: code[pc] as usize,
                        next: pc + 1,
                        invalid: true,
                    };
                };
                // LSRS/ASRS encode a shift by 32 as imm5 = 0.
                let instr = match instr {
                    Instr::LsrsImm { rd, rm, imm: 0 } => Instr::LsrsImm { rd, rm, imm: 32 },
                    Instr::AsrsImm { rd, rm, imm: 0 } => Instr::AsrsImm { rd, rm, imm: 32 },
                    instr => instr,
                };
                let hw = code[pc];
                let aux = match instr {
                    Instr::BCond { .. } => (pc as i64 + 2 + (hw & 0xFF) as i8 as i64) as usize,
                    Instr::B => (pc as i64 + 2 + (((hw & 0x7FF) as i16) << 5 >> 5) as i64) as usize,
                    Instr::Bl => {
                        (pc as i64 + 2 + decode_bl(code[pc], code[pc + 1]) as i64) as usize
                    }
                    _ => 0,
                };
                PreStep {
                    instr,
                    aux,
                    next: pc + width,
                    invalid: false,
                }
            })
            .collect();
        let (ops, run_end) = compile_superblocks(&steps, &pool, cycle_table);
        Predecoded {
            steps,
            ops,
            run_end,
            code,
            pool,
            cycles: *cycle_table,
        }
    }

    /// Exact (not just hash) equality with a program's code and pool
    /// under a given cycle table.
    fn matches(&self, program: &Program, cycle_table: &crate::target::CycleTable) -> bool {
        self.cycles == *cycle_table && self.code == program.code && self.pool == program.pool
    }

    /// Number of halfword positions.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the code image is empty.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

/// Builds the superblock tables for a predecoded step table: the
/// per-position [`MicroOp`] (registers resolved to indices, pool slots
/// to constants, shift immediates normalised, cost precomputed — see
/// [`MicroOp::lower`]) and `run_end`, the exclusive end of the maximal
/// straight-line runnable run starting at each position (== the
/// position itself when it is not runnable). All runnable positions
/// are one halfword wide, so a run's successor chain is simply
/// `pc + 1`.
///
/// Branches whose target is their own fall-through position
/// (`aux == next`) are folded into blocks: the backend linearises
/// recorded traces so every `B`/`BCond` jumps to the label that
/// immediately follows it, making them pure charge-and-continue
/// operations. `Bl` and `Bx` always end a block — they push/pop the
/// executor's call stack (and an empty-stack `Bx` terminates the run),
/// which only the per-step loop models.
fn compile_superblocks(
    steps: &[PreStep],
    pool: &[u32],
    cycle_table: &crate::target::CycleTable,
) -> (Vec<MicroOp>, Vec<u32>) {
    let ops: Vec<MicroOp> = steps
        .iter()
        .map(|s| {
            if s.invalid {
                MicroOp::BLOCKED
            } else {
                match s.instr {
                    Instr::B if s.aux == s.next => MicroOp::branch_fall(None),
                    Instr::BCond { cond } if s.aux == s.next => MicroOp::branch_fall(Some(cond)),
                    instr => MicroOp::lower(instr, pool),
                }
            }
            .priced(cycle_table)
        })
        .collect();
    let mut run_end = vec![0u32; steps.len()];
    for pc in (0..steps.len()).rev() {
        run_end[pc] = if !ops[pc].runnable() {
            pc as u32
        } else if pc + 1 < steps.len() {
            // run_end[pc + 1] is pc + 1 itself when that position is
            // not runnable, which closes this run correctly.
            run_end[pc + 1].max(pc as u32 + 1)
        } else {
            pc as u32 + 1
        };
    }
    (ops, run_end)
}

/// FNV-1a over the code image, literal pool and cycle table (lengths
/// included, so the section boundaries are unambiguous). The cycle
/// table is part of the key because the cached superblock micro-ops
/// bake per-target cycle costs.
fn program_hash(program: &Program, cycle_table: &crate::target::CycleTable) -> u64 {
    const PRIME: u64 = 0x100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(PRIME);
    };
    eat(program.code.len() as u64);
    for &hw in &program.code {
        eat(hw as u64);
    }
    eat(program.pool.len() as u64);
    for &w in &program.pool {
        eat(w as u64);
    }
    for &c in cycle_table {
        eat(c);
    }
    h
}

/// Bound on cached predecoded fragments. The campaigns cycle through a
/// few dozen kernels; at ~16 bytes per halfword position the cache
/// stays in the low megabytes even when full.
const PREDECODE_CACHE_CAPACITY: usize = 64;

struct PredecodeEntry {
    hash: u64,
    pre: Arc<Predecoded>,
    stamp: u64,
}

#[derive(Default)]
struct PredecodeCache {
    entries: Vec<PredecodeEntry>,
    clock: u64,
    hits: u64,
    misses: u64,
}

fn predecode_cache() -> &'static Mutex<PredecodeCache> {
    static CACHE: OnceLock<Mutex<PredecodeCache>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(PredecodeCache::default()))
}

/// Locks the predecode cache. A thread that panicked while holding the
/// lock may have left it half-updated; every entry can be predecoded
/// again, so the cache is emptied and the poison cleared instead of
/// failing every later caller.
fn lock_predecode_cache() -> MutexGuard<'static, PredecodeCache> {
    let cache = predecode_cache();
    cache.lock().unwrap_or_else(|poisoned| {
        cache.clear_poison();
        let mut c = poisoned.into_inner();
        c.entries.clear();
        c
    })
}

/// Returns the predecoded form of `program` from the process-wide
/// fragment cache, decoding on first sight. Entries are keyed by an
/// FNV-1a hash of code + pool and verified byte-for-byte on a hit
/// (a mutated fragment — e.g. a differently-recorded kernel that
/// collides — predecodes fresh; stale results are impossible).
pub fn predecode(program: &Program) -> Arc<Predecoded> {
    predecode_with(program, &crate::target::M0PLUS_CYCLES)
}

/// [`predecode`] for an explicit per-class cycle table: entries are
/// additionally keyed on the table, so fragments predecoded for
/// different targets coexist in the cache without contaminating each
/// other's precomputed costs.
pub fn predecode_with(
    program: &Program,
    cycle_table: &crate::target::CycleTable,
) -> Arc<Predecoded> {
    let hash = program_hash(program, cycle_table);
    {
        let mut c = lock_predecode_cache();
        c.clock += 1;
        let clock = c.clock;
        if let Some(e) = c
            .entries
            .iter_mut()
            .find(|e| e.hash == hash && e.pre.matches(program, cycle_table))
        {
            e.stamp = clock;
            let pre = Arc::clone(&e.pre);
            c.hits += 1;
            return pre;
        }
        c.misses += 1;
    }
    let pre = Arc::new(Predecoded::for_cycles(program, cycle_table));
    let mut c = lock_predecode_cache();
    // Re-check: another thread may have inserted the same program while
    // we predecoded. A duplicate entry would evict a live one.
    if let Some(e) = c
        .entries
        .iter()
        .find(|e| e.hash == hash && e.pre.matches(program, cycle_table))
    {
        return Arc::clone(&e.pre);
    }
    if c.entries.len() >= PREDECODE_CACHE_CAPACITY {
        if let Some(victim) = c
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.stamp)
            .map(|(i, _)| i)
        {
            c.entries.swap_remove(victim);
        }
    }
    let stamp = c.clock;
    c.entries.push(PredecodeEntry {
        hash,
        pre: Arc::clone(&pre),
        stamp,
    });
    pre
}

/// (hits, misses) of the predecode fragment cache.
pub fn predecode_cache_stats() -> (u64, u64) {
    let c = lock_predecode_cache();
    (c.hits, c.misses)
}

/// Empties the predecode cache and zeroes its counters.
pub fn predecode_cache_reset() {
    let mut c = lock_predecode_cache();
    c.entries.clear();
    c.clock = 0;
    c.hits = 0;
    c.misses = 0;
}

/// Where a run starts and what ends it normally.
#[derive(Clone, Copy)]
enum Entry {
    /// At a label: only the outermost `BX lr` ends the run, and leaving
    /// the code image is [`ExecError::PcOutOfRange`] — reported after
    /// the step budget, so an exhausted budget wins.
    Label(usize),
    /// At the first halfword: reaching the end of the code image also
    /// ends the run (the normal exit of linearised kernel traces, which
    /// carry no outermost `BX lr`); overshooting it is
    /// [`ExecError::PcOutOfRange`].
    Fragment,
}

/// Runs `program` on `machine` starting at `entry` (a label) until the
/// outermost `BX lr`, for at most `max_steps` instructions.
///
/// # Errors
///
/// Propagates label, decode, literal and runaway-loop failures; the
/// machine state reflects everything executed up to the error.
///
/// # Panics
///
/// Panics if `entry` is not a label of the program.
pub fn execute(
    machine: &mut Machine,
    program: &Program,
    entry: &str,
    max_steps: u64,
) -> Result<ExecStats, ExecError> {
    let pc = *program
        .labels
        .get(entry)
        .unwrap_or_else(|| panic!("entry label {entry:?} not found"));
    let pre = predecode_with(program, machine.model().cycle_table());
    run(machine, &pre, Entry::Label(pc), max_steps, |_, _| {
        (StepAction::Execute, u64::MAX)
    })
}

/// Runs an assembled code *fragment* on `machine`, starting at the first
/// halfword and completing when the program counter reaches the end of
/// the code image (the normal exit for linearised kernel traces, which
/// carry no outermost `BX lr`).
///
/// `hook` is called with the machine and the index of the instruction
/// about to retire, at every instruction.
///
/// # Errors
///
/// Propagates decode, literal and runaway-loop failures; the machine
/// state reflects everything executed up to the error.
pub fn execute_fragment(
    machine: &mut Machine,
    program: &Program,
    max_steps: u64,
    mut hook: impl FnMut(&mut Machine, usize),
) -> Result<ExecStats, ExecError> {
    execute_fragment_ctl(machine, program, max_steps, |m, idx| {
        hook(m, idx);
        StepAction::Execute
    })
}

/// Like [`execute_fragment`], but the hook *controls* each step: it can
/// order the instruction about to retire to be skipped (the fault
/// injector's instruction-skip model) or mutate machine state first
/// (its register/memory bit flips).
///
/// A skipped instruction still counts against `max_steps` and the
/// retired-instruction index — keeping hook indices aligned with a
/// recording — but charges nothing, and control falls through to the
/// next halfword even for branches.
///
/// # Errors
///
/// Propagates decode, literal, memory-range and runaway-loop failures;
/// the machine state reflects everything executed up to the error.
pub fn execute_fragment_ctl(
    machine: &mut Machine,
    program: &Program,
    max_steps: u64,
    mut ctl: impl FnMut(&mut Machine, usize) -> StepAction,
) -> Result<ExecStats, ExecError> {
    let pre = predecode_with(program, machine.model().cycle_table());
    // A hook that always re-schedules itself for the very next step is
    // exactly the per-step contract.
    execute_predecoded(machine, &pre, max_steps, |m, idx| (ctl(m, idx), 0))
}

/// Runs an already-predecoded fragment with a *scheduled* control hook:
/// the hook returns, along with its [`StepAction`], the next
/// retired-instruction index at which it must run again, and the
/// executor does not call it in between. Replay engines that run the
/// same fragment millions of times hold the [`Predecoded`] and call
/// this directly; their per-step work is sparse — positioned register
/// writes, category *runs*, a single fault index — so the steps between
/// boundaries pay no hook call at all.
///
/// A returned index at or below the current one is treated as
/// "call me on the very next step"; `u64::MAX` means "never again".
/// Instructions retired while the hook is dormant behave exactly as if
/// the hook had returned [`StepAction::Execute`] at each of them.
///
/// # Errors
///
/// Exactly those of [`execute_fragment_ctl`].
pub fn execute_predecoded(
    machine: &mut Machine,
    pre: &Predecoded,
    max_steps: u64,
    ctl: impl FnMut(&mut Machine, usize) -> (StepAction, u64),
) -> Result<ExecStats, ExecError> {
    run(machine, pre, Entry::Fragment, max_steps, ctl)
}

/// Where a fragment run stands between two calls of [`resume`]: the
/// program counter, the retired-instruction count, the executor's call
/// stack and the cycle counter the run started from (so a resumed run
/// reports the same [`ExecStats`] as an uninterrupted one).
#[derive(Debug, Clone)]
pub(crate) struct Cursor {
    pub(crate) pc: usize,
    pub(crate) steps: u64,
    pub(crate) call_stack: Vec<usize>,
    pub(crate) start_cycles: u64,
}

impl Cursor {
    /// A run about to retire its first instruction at `pc`, on a machine
    /// whose cycle counter reads `start_cycles`.
    pub(crate) fn at(pc: usize, start_cycles: u64) -> Cursor {
        Cursor {
            pc,
            steps: 0,
            call_stack: Vec::new(),
            start_cycles,
        }
    }
}

/// A `stop` for [`resume`] that is never reached.
pub(crate) const NEVER: u64 = u64::MAX;

/// Runs a predecoded fragment from `cursor` until it ends, fails, or is
/// about to retire instruction index `stop`. At the stop it returns
/// `Ok(None)` with `cursor` (and the machine) holding the run's state
/// before that instruction and before the hook's call there; resuming
/// from that cursor, on that machine or on one restored to the same
/// state, retires exactly what the uninterrupted run would. A resumed
/// run calls `ctl` at its first step whatever the hook's earlier
/// schedule said. `stop` must lie beyond `cursor.steps` (or be
/// [`NEVER`]).
///
/// # Errors
///
/// Exactly those of [`execute_predecoded`], at the same step.
pub(crate) fn resume(
    machine: &mut Machine,
    pre: &Predecoded,
    cursor: &mut Cursor,
    max_steps: u64,
    stop: u64,
    ctl: impl FnMut(&mut Machine, usize) -> (StepAction, u64),
) -> Result<Option<ExecStats>, ExecError> {
    debug_assert!(stop > cursor.steps, "a stop must lie ahead of the cursor");
    run_from(machine, pre, cursor, true, max_steps, stop, ctl)
}

/// The run behind every public entry point: a fresh [`Cursor`] at
/// `entry`, no stop.
fn run(
    machine: &mut Machine,
    pre: &Predecoded,
    entry: Entry,
    max_steps: u64,
    ctl: impl FnMut(&mut Machine, usize) -> (StepAction, u64),
) -> Result<ExecStats, ExecError> {
    let (pc, image_end_exits) = match entry {
        Entry::Label(pc) => (pc, false),
        Entry::Fragment => (0, true),
    };
    let mut cursor = Cursor::at(pc, machine.cycles());
    run_from(
        machine,
        pre,
        &mut cursor,
        image_end_exits,
        max_steps,
        NEVER,
        ctl,
    )
    .map(|stats| stats.expect("a run without a stop never pauses"))
}

/// The instruction loop.
///
/// While the hook is dormant (and no recording or trace capture is
/// armed) it runs whole predecoded *superblocks* — maximal
/// straight-line runs of non-control instructions — with one dispatch
/// per position and the category resolved once per block, truncating
/// each block at the next hook index, the stop and the step budget so
/// hooks, faults, stops and the step limit land on exactly the
/// per-step boundaries. Everything else goes through one flat per-step
/// match over the predecoded instruction: control flow, literal loads
/// and stack transfers have their own arms, and every other
/// instruction runs its predecoded [`MicroOp`] through
/// `Machine::retire` — the same `Machine::apply` the blocks and the
/// Direct methods run.
///
/// Semantics, error taxonomy, cycle and energy accounting are those of
/// decode-per-step execution (the test oracle): literal-pool lookups
/// happen at execution time (so `BadLiteral` fires at the same step),
/// invalid positions error before the hook runs, and a skipped
/// instruction still falls through by its encoded width. The stop is
/// checked where the hook would run, after every check that can end
/// the run without side effects, so pausing there and resuming
/// changes nothing.
fn run_from(
    machine: &mut Machine,
    pre: &Predecoded,
    cursor: &mut Cursor,
    image_end_exits: bool,
    max_steps: u64,
    stop: u64,
    mut ctl: impl FnMut(&mut Machine, usize) -> (StepAction, u64),
) -> Result<Option<ExecStats>, ExecError> {
    use Instr::*;
    // The superblock micro-ops bake per-op cycle costs from one cycle
    // table; running them on a machine modelling a different target
    // would charge the wrong costs silently.
    debug_assert_eq!(
        &pre.cycles,
        machine.model().cycle_table(),
        "predecoded fragment built for a different target's cycle table"
    );
    let len = pre.steps.len();
    let mut pc = cursor.pc;
    let mut steps = cursor.steps;
    let mut call_stack = std::mem::take(&mut cursor.call_stack);
    // The stop is scheduled like a hook boundary, so the hot path pays
    // nothing for it.
    let mut next_ctl = 0u64;

    loop {
        if pc >= len {
            if image_end_exits {
                break;
            }
            return Err(if steps >= max_steps {
                ExecError::StepLimit
            } else {
                ExecError::PcOutOfRange(pc)
            });
        }
        if steps >= max_steps {
            return Err(ExecError::StepLimit);
        }
        if steps < next_ctl {
            let end = pre.run_end[pc] as usize;
            if end > pc && !machine.block_capture_active() {
                // Truncate the block at the next hook index (or stop)
                // and the step budget: any prefix of a straight-line
                // run is per-step-equivalent, so the hook (or
                // StepLimit) fires at exactly the per-step position.
                // Both bounds exceed `steps` here, so at least one
                // position runs.
                let budget = (next_ctl - steps).min(max_steps - steps);
                let n = (end - pc).min(budget as usize);
                let cat = machine.current_category();
                if let Err((i, addr)) = machine.run_block(&pre.ops[pc..pc + n], cat) {
                    // The faulting instruction retires no cost; the
                    // prefix is applied+charged — exactly the per-step
                    // error state.
                    return Err(ExecError::MemOutOfRange { pc: pc + i, addr });
                }
                steps += n as u64;
                pc += n;
                continue;
            }
        }
        let step = pre.steps[pc];
        if step.invalid {
            return Err(ExecError::InvalidInstruction {
                pc,
                halfword: step.aux as u16,
            });
        }
        let action = if steps >= next_ctl {
            if steps == stop {
                *cursor = Cursor {
                    pc,
                    steps,
                    call_stack,
                    start_cycles: cursor.start_cycles,
                };
                return Ok(None);
            }
            let (action, next) = ctl(machine, steps as usize);
            next_ctl = next.max(steps + 1).min(stop);
            action
        } else {
            StepAction::Execute
        };
        steps += 1;
        if action == StepAction::Skip {
            pc = step.next;
            continue;
        }

        // Control flow reads the precomputed `aux` target; every other
        // instruction retires its predecoded micro-op.
        pc = match step.instr {
            BCond { cond } => {
                if machine.b_cond(cond) {
                    step.aux
                } else {
                    step.next
                }
            }
            B => {
                machine.b();
                step.aux
            }
            Bl => {
                machine.bl();
                call_stack.push(step.next);
                step.aux
            }
            Bx => {
                machine.bx();
                match call_stack.pop() {
                    Some(ret) => ret,
                    None => break,
                }
            }
            LdrLit { rt, imm_words } => {
                let slot = imm_words as usize;
                let value = *pre
                    .pool
                    .get(slot)
                    .ok_or(ExecError::BadLiteral { pc, slot })?;
                machine.ldr_const(rt, value);
                step.next
            }
            Push { reg_count } | Pop { reg_count } => {
                machine.stack_transfer(reg_count);
                step.next
            }
            instr => {
                machine
                    .retire(pre.ops[pc], instr, None)
                    .map_err(|addr| ExecError::MemOutOfRange { pc, addr })?;
                step.next
            }
        };
    }

    if pc > len {
        return Err(ExecError::PcOutOfRange(pc));
    }
    Ok(Some(ExecStats {
        instructions: steps,
        cycles: machine.cycles() - cursor.start_cycles,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Assembler;
    use crate::target::M0PLUS_CYCLES;
    use crate::{Cond, Instr, Reg};

    /// The effective word address a load/store is about to touch, or
    /// `None` for instructions that do not access RAM. Computed in `u64`
    /// so a corrupted base register cannot overflow the sum.
    fn mem_access(machine: &Machine, instr: &Instr) -> Option<u64> {
        use Instr::*;
        let addr = match *instr {
            LdrImm { rn, imm_words, .. } | StrImm { rn, imm_words, .. } => {
                machine.reg(rn) as u64 + imm_words as u64
            }
            LdrReg { rn, rm, .. } | StrReg { rn, rm, .. } => {
                machine.reg(rn) as u64 + machine.reg(rm) as u64
            }
            LdrSp { imm_words, .. } | StrSp { imm_words, .. } => {
                machine.reg(Reg::Sp) as u64 + imm_words as u64
            }
            _ => return None,
        };
        Some(addr)
    }

    /// The decode-per-step reference executor: fetches and decodes each
    /// halfword as it retires, resolves branch offsets on the spot,
    /// calls `ctl` before every instruction and runs data instructions
    /// through the public Direct methods. The production loop must
    /// match it bit for bit — results, error taxonomy, cycles, energy
    /// and category totals.
    fn reference_run(
        machine: &mut Machine,
        program: &Program,
        entry: Entry,
        max_steps: u64,
        mut ctl: impl FnMut(&mut Machine, usize) -> StepAction,
    ) -> Result<ExecStats, ExecError> {
        let (mut pc, image_end_exits) = match entry {
            Entry::Label(pc) => (pc, false),
            Entry::Fragment => (0, true),
        };
        let code = &program.code;
        let mut call_stack: Vec<usize> = Vec::new();
        let mut steps = 0u64;
        let start_cycles = machine.cycles();

        loop {
            if image_end_exits && pc >= code.len() {
                break;
            }
            if steps >= max_steps {
                return Err(ExecError::StepLimit);
            }
            if pc >= code.len() {
                return Err(ExecError::PcOutOfRange(pc));
            }
            let hw = code[pc];
            let window = &code[pc..(pc + 2).min(code.len())];
            let (instr, width) =
                Instr::decode(window).ok_or(ExecError::InvalidInstruction { pc, halfword: hw })?;
            let action = ctl(machine, steps as usize);
            steps += 1;
            if action == StepAction::Skip {
                pc += width;
                continue;
            }

            match instr {
                Instr::BCond { cond } => {
                    if machine.b_cond(cond) {
                        let rel = (hw & 0xFF) as i8 as i64;
                        pc = (pc as i64 + 2 + rel) as usize;
                    } else {
                        pc += 1;
                    }
                }
                Instr::B => {
                    machine.b();
                    // Sign-extend the 11-bit offset.
                    let rel = ((hw & 0x7FF) as i16) << 5 >> 5;
                    pc = (pc as i64 + 2 + rel as i64) as usize;
                }
                Instr::Bl => {
                    machine.bl();
                    let rel = decode_bl(code[pc], code[pc + 1]) as i64;
                    call_stack.push(pc + 2);
                    pc = (pc as i64 + 2 + rel) as usize;
                }
                Instr::Bx => {
                    machine.bx();
                    match call_stack.pop() {
                        Some(ret) => pc = ret,
                        None => break,
                    }
                }
                Instr::LdrLit { rt, imm_words } => {
                    let slot = imm_words as usize;
                    let value = *program
                        .pool
                        .get(slot)
                        .ok_or(ExecError::BadLiteral { pc, slot })?;
                    machine.ldr_const(rt, value);
                    pc += 1;
                }
                Instr::Push { reg_count } | Instr::Pop { reg_count } => {
                    machine.stack_transfer(reg_count);
                    pc += width;
                }
                other => {
                    if let Some(addr) = mem_access(machine, &other) {
                        if addr >= machine.ram_words() as u64 {
                            return Err(ExecError::MemOutOfRange { pc, addr });
                        }
                    }
                    machine.direct(other);
                    pc += width;
                }
            }
        }

        if pc > code.len() {
            return Err(ExecError::PcOutOfRange(pc));
        }
        Ok(ExecStats {
            instructions: steps,
            cycles: machine.cycles() - start_cycles,
        })
    }

    fn machine64() -> Machine {
        Machine::new(64)
    }

    /// A hook that runs at every step and never intervenes.
    fn per_step(_: &mut Machine, _: usize) -> (StepAction, u64) {
        (StepAction::Execute, 0)
    }

    /// A hook that never runs again after index 0 — the sparse
    /// schedule under which superblocks engage.
    fn dormant(_: &mut Machine, _: usize) -> (StepAction, u64) {
        (StepAction::Execute, u64::MAX)
    }

    /// Runs `program` from `entry` through the production loop and the
    /// reference oracle, each on a machine from `fresh`, and asserts
    /// identical results and full machine state (cycles, bitwise
    /// energy, per-category totals, memory). Returns the shared result.
    fn assert_matches_reference(
        fresh: impl Fn() -> Machine,
        program: &Program,
        entry: Entry,
        max_steps: u64,
        ctl: impl Fn(&mut Machine, usize) -> (StepAction, u64) + Copy,
        context: &str,
    ) -> Result<ExecStats, ExecError> {
        let mut oracle = fresh();
        let want = reference_run(&mut oracle, program, entry, max_steps, |m, idx| {
            ctl(m, idx).0
        });
        let mut fast = fresh();
        let got = run(
            &mut fast,
            &Predecoded::for_cycles(program, &M0PLUS_CYCLES),
            entry,
            max_steps,
            ctl,
        );
        assert_eq!(got, want, "{context}: results diverged");
        oracle.assert_same_state(&fast, context);
        got
    }

    #[test]
    fn countdown_loop_executes_the_right_number_of_times() {
        // r0 = 5; do { r1 += 2; r0 -= 1 } while (r0 != 0); bx lr
        let mut m = Machine::new(64);
        let p2 = {
            let mut a = Assembler::new();
            a.label("entry");
            a.push(Instr::MovsImm {
                rd: Reg::R0,
                imm: 5,
            });
            a.push(Instr::MovsImm {
                rd: Reg::R1,
                imm: 0,
            });
            a.label("loop");
            a.push(Instr::AddsImm8 {
                rdn: Reg::R1,
                imm: 2,
            });
            a.push(Instr::SubsImm8 {
                rdn: Reg::R0,
                imm: 1,
            });
            a.branch_if(Cond::Ne, "loop");
            a.push(Instr::Bx);
            a.assemble().expect("assembles")
        };
        let stats = execute(&mut m, &p2, "entry", 1000).expect("runs");
        assert_eq!(m.reg(Reg::R1), 10);
        assert_eq!(m.reg(Reg::R0), 0);
        // 2 movs + 5×(adds, subs, bne) + bx; the last bne falls through.
        assert_eq!(stats.instructions, 2 + 15 + 1);
        // Cycles: 2 + 5×(1+1) + 4 taken + 1 untaken branches... count:
        // movs 2, adds/subs 10, bne: 4 taken ×2 + 1 untaken ×1 = 9,
        // bx 2 ⇒ 23.
        assert_eq!(stats.cycles, 23);
    }

    #[test]
    fn memcpy_program_copies_memory() {
        // r0 = src, r1 = dst, r2 = word count.
        let mut a = Assembler::new();
        a.label("memcpy");
        a.label("loop");
        a.push(Instr::LdrImm {
            rt: Reg::R3,
            rn: Reg::R0,
            imm_words: 0,
        });
        a.push(Instr::StrImm {
            rt: Reg::R3,
            rn: Reg::R1,
            imm_words: 0,
        });
        a.push(Instr::AddsImm8 {
            rdn: Reg::R0,
            imm: 1,
        });
        a.push(Instr::AddsImm8 {
            rdn: Reg::R1,
            imm: 1,
        });
        a.push(Instr::SubsImm8 {
            rdn: Reg::R2,
            imm: 1,
        });
        a.branch_if(Cond::Ne, "loop");
        a.push(Instr::Bx);
        let p = a.assemble().expect("assembles");

        let mut m = Machine::new(256);
        let src = m.alloc(8);
        let dst = m.alloc(8);
        m.write_slice(src, &[1, 2, 3, 4, 5, 6, 7, 8]);
        m.set_base(Reg::R0, src);
        m.set_base(Reg::R1, dst);
        m.set_reg(Reg::R2, 8);
        execute(&mut m, &p, "memcpy", 1000).expect("runs");
        assert_eq!(m.read_slice(dst, 8), vec![1, 2, 3, 4, 5, 6, 7, 8]);
    }

    fn subroutine_program() -> Program {
        // main: r0 = 1; bl double; bl double; bx  (outermost return)
        // double: adds r0, r0; bx lr
        let mut a = Assembler::new();
        a.label("main");
        a.push(Instr::MovsImm {
            rd: Reg::R0,
            imm: 1,
        });
        a.call("double");
        a.call("double");
        a.push(Instr::Bx);
        a.label("double");
        a.push(Instr::AddsReg {
            rd: Reg::R0,
            rn: Reg::R0,
            rm: Reg::R0,
        });
        a.push(Instr::Bx);
        a.assemble().expect("assembles")
    }

    #[test]
    fn subroutine_call_and_return() {
        let p = subroutine_program();
        let mut m = Machine::new(64);
        let stats = execute(&mut m, &p, "main", 100).expect("runs");
        assert_eq!(m.reg(Reg::R0), 4);
        // movs, 2×(bl, adds, bx), final bx = 8 instructions.
        assert_eq!(stats.instructions, 8);
    }

    #[test]
    fn literal_pool_loads_resolve() {
        let mut a = Assembler::new();
        a.label("entry");
        a.load_literal(Reg::R0, 0x1234_5678);
        a.load_literal(Reg::R1, 0x1FF);
        a.push(Instr::Ands {
            rdn: Reg::R0,
            rm: Reg::R1,
        });
        a.push(Instr::Bx);
        let p = a.assemble().expect("assembles");
        let mut m = Machine::new(64);
        execute(&mut m, &p, "entry", 100).expect("runs");
        assert_eq!(m.reg(Reg::R0), 0x1234_5678 & 0x1FF);
    }

    #[test]
    fn runaway_loops_hit_the_step_limit() {
        let mut a = Assembler::new();
        a.label("spin");
        a.branch("spin");
        let p = a.assemble().expect("assembles");
        let mut m = Machine::new(16);
        assert_eq!(execute(&mut m, &p, "spin", 50), Err(ExecError::StepLimit));
    }

    #[test]
    fn falling_off_the_end_is_detected() {
        let mut a = Assembler::new();
        a.label("entry");
        a.push(Instr::Nop);
        let p = a.assemble().expect("assembles");
        let mut m = Machine::new(16);
        assert_eq!(
            execute(&mut m, &p, "entry", 10),
            Err(ExecError::PcOutOfRange(1))
        );
    }

    #[test]
    fn invalid_instruction_is_reported() {
        use std::collections::HashMap;
        let mut labels = HashMap::new();
        labels.insert("entry".to_string(), 0usize);
        let program = Program {
            code: vec![0b11111 << 11], // reserved encoding
            pool: vec![],
            labels,
        };
        let mut m = Machine::new(16);
        assert_eq!(
            execute(&mut m, &program, "entry", 10),
            Err(ExecError::InvalidInstruction {
                pc: 0,
                halfword: 0b11111 << 11
            })
        );
    }

    #[test]
    fn missing_literal_slot_is_reported() {
        use std::collections::HashMap;
        let mut labels = HashMap::new();
        labels.insert("entry".to_string(), 0usize);
        let program = Program {
            code: Instr::LdrLit {
                rt: Reg::R0,
                imm_words: 3,
            }
            .encode()
            .to_vec(),
            pool: vec![],
            labels,
        };
        let mut m = Machine::new(16);
        assert_eq!(
            execute(&mut m, &program, "entry", 10),
            Err(ExecError::BadLiteral { pc: 0, slot: 3 })
        );
    }

    #[test]
    #[should_panic(expected = "entry label")]
    fn unknown_entry_label_panics() {
        let program = Assembler::new().assemble().expect("empty assembles");
        let mut m = Machine::new(16);
        let _ = execute(&mut m, &program, "nope", 10);
    }

    #[test]
    fn error_display_is_informative() {
        assert!(format!("{}", ExecError::StepLimit).contains("step limit"));
        assert!(format!("{}", ExecError::PcOutOfRange(7)).contains('7'));
        assert!(format!("{}", ExecError::MemOutOfRange { pc: 3, addr: 99 }).contains("99"));
    }

    #[test]
    fn out_of_range_load_aborts_instead_of_panicking() {
        // Regression test for the fault campaign: a corrupted base
        // register must surface as ExecError::MemOutOfRange, not as a
        // host panic that tears down the whole campaign.
        let mut a = Assembler::new();
        a.label("entry");
        a.push(Instr::LdrImm {
            rt: Reg::R1,
            rn: Reg::R0,
            imm_words: 3,
        });
        a.push(Instr::Bx);
        let p = a.assemble().expect("assembles");
        let mut m = Machine::new(16);
        m.set_reg(Reg::R0, 0xFFFF_FFFF); // "glitched" base pointer
        assert_eq!(
            execute(&mut m, &p, "entry", 10),
            Err(ExecError::MemOutOfRange {
                pc: 0,
                addr: 0xFFFF_FFFFu64 + 3
            })
        );
        // Same guard on the indexed and SP-relative forms.
        let mut a = Assembler::new();
        a.label("entry");
        a.push(Instr::StrReg {
            rt: Reg::R2,
            rn: Reg::R0,
            rm: Reg::R1,
        });
        let p = a.assemble().expect("assembles");
        let mut m = Machine::new(16);
        m.set_reg(Reg::R0, 8);
        m.set_reg(Reg::R1, 9);
        assert_eq!(
            execute_fragment(&mut m, &p, 10, |_, _| {}),
            Err(ExecError::MemOutOfRange { pc: 0, addr: 17 })
        );
        let mut a = Assembler::new();
        a.label("entry");
        a.push(Instr::LdrSp {
            rt: Reg::R0,
            imm_words: 2,
        });
        let p = a.assemble().expect("assembles");
        let mut m = Machine::new(16);
        m.set_reg(Reg::Sp, 15);
        assert_eq!(
            execute_fragment(&mut m, &p, 10, |_, _| {}),
            Err(ExecError::MemOutOfRange { pc: 0, addr: 17 })
        );
    }

    #[test]
    fn skipped_instructions_charge_nothing_and_fall_through() {
        // movs r0, #5 ; adds r0, #1 ; adds r0, #1 — skip the middle one.
        let mut a = Assembler::new();
        a.label("entry");
        a.push(Instr::MovsImm {
            rd: Reg::R0,
            imm: 5,
        });
        a.push(Instr::AddsImm8 {
            rdn: Reg::R0,
            imm: 1,
        });
        a.push(Instr::AddsImm8 {
            rdn: Reg::R0,
            imm: 1,
        });
        let p = a.assemble().expect("assembles");
        let mut m = Machine::new(16);
        let stats = execute_fragment_ctl(&mut m, &p, 10, |_, idx| {
            if idx == 1 {
                StepAction::Skip
            } else {
                StepAction::Execute
            }
        })
        .expect("runs");
        assert_eq!(m.reg(Reg::R0), 6);
        // The skipped instruction retires an index but no cycles.
        assert_eq!(stats.instructions, 3);
        assert_eq!(stats.cycles, 2);
    }

    #[test]
    fn skipping_a_taken_branch_falls_through() {
        // b past an adds; skipping the branch executes the adds.
        let mut a = Assembler::new();
        a.label("entry");
        a.branch("end");
        a.push(Instr::AddsImm8 {
            rdn: Reg::R0,
            imm: 7,
        });
        a.label("end");
        let p = a.assemble().expect("assembles");
        let mut m = Machine::new(16);
        execute_fragment_ctl(&mut m, &p, 10, |_, idx| {
            if idx == 0 {
                StepAction::Skip
            } else {
                StepAction::Execute
            }
        })
        .expect("runs");
        assert_eq!(m.reg(Reg::R0), 7);
    }

    fn looped_program() -> Program {
        // r0 = 6; do { r1 += 3; r0 -= 1 } while (r0 != 0)
        let mut a = Assembler::new();
        a.label("entry");
        a.push(Instr::MovsImm {
            rd: Reg::R0,
            imm: 6,
        });
        a.push(Instr::MovsImm {
            rd: Reg::R1,
            imm: 0,
        });
        a.label("loop");
        a.push(Instr::AddsImm8 {
            rdn: Reg::R1,
            imm: 3,
        });
        a.push(Instr::SubsImm8 {
            rdn: Reg::R0,
            imm: 1,
        });
        a.branch_if(Cond::Ne, "loop");
        a.assemble().expect("assembles")
    }

    #[test]
    fn paused_runs_resume_to_the_reference_result() {
        // A BL ahead of looped_program()'s countdown loop, and a BX
        // lr after it that returns into the loop's set-up once, so the
        // call-stack entry carried across a pause decides the result.
        let mut a = Assembler::new();
        a.call("body");
        a.label("body");
        a.push(Instr::MovsImm {
            rd: Reg::R0,
            imm: 6,
        });
        a.label("loop");
        a.push(Instr::AddsImm8 {
            rdn: Reg::R1,
            imm: 3,
        });
        a.push(Instr::SubsImm8 {
            rdn: Reg::R0,
            imm: 1,
        });
        a.branch_if(Cond::Ne, "loop");
        a.push(Instr::Bx);
        let p = a.assemble().expect("assembles");
        let pre = Predecoded::for_cycles(&p, &M0PLUS_CYCLES);
        // 41 instructions retire; a budget of 30 ends in StepLimit.
        for max_steps in [1000, 30] {
            let mut oracle = machine64();
            let want = reference_run(&mut oracle, &p, Entry::Fragment, max_steps, |_, _| {
                StepAction::Execute
            });
            let end = if max_steps == 1000 {
                Ok(41)
            } else {
                Err(ExecError::StepLimit)
            };
            assert_eq!(want.clone().map(|s| s.instructions), end);
            for stop in 1..30 {
                for ctl in [per_step, dormant] {
                    let context = format!("budget {max_steps}, stop {stop}");
                    let mut paused = machine64();
                    let mut cursor = Cursor::at(0, paused.cycles());
                    let first = resume(&mut paused, &pre, &mut cursor, max_steps, stop, ctl);
                    assert_eq!(first, Ok(None), "{context}");
                    assert_eq!(cursor.steps, stop, "{context}");
                    // Resume on a copy, as a checkpoint restore does.
                    let mut restored = paused.clone();
                    let got = resume(&mut restored, &pre, &mut cursor, max_steps, NEVER, ctl)
                        .map(|stats| stats.expect("runs to its end"));
                    assert_eq!(got, want, "{context}");
                    oracle.assert_same_state(&restored, &context);
                }
            }
        }
    }

    #[test]
    fn fragments_match_the_reference_with_and_without_skips() {
        let p = looped_program();
        let stats = assert_matches_reference(machine64, &p, Entry::Fragment, 1000, per_step, "")
            .expect("runs");
        // 2 movs + 6×(adds, subs, bne).
        assert_eq!(stats.instructions, 2 + 18);
        // Skips behave identically too (skip the first loop-body adds).
        let skip_2 = |_: &mut Machine, idx: usize| {
            let action = if idx == 2 {
                StepAction::Skip
            } else {
                StepAction::Execute
            };
            (action, 0)
        };
        assert_matches_reference(machine64, &p, Entry::Fragment, 1000, skip_2, "skip")
            .expect("runs");
    }

    #[test]
    fn label_runs_match_the_reference() {
        let p = subroutine_program();
        let main = Entry::Label(p.labels["main"]);
        assert_matches_reference(machine64, &p, main, 100, dormant, "BL/BX nesting").expect("runs");
        // Without an outermost BX lr, a label run leaves the image.
        let p = looped_program();
        assert_eq!(
            assert_matches_reference(machine64, &p, Entry::Label(0), 1000, dormant, "fall off"),
            Err(ExecError::PcOutOfRange(p.code.len()))
        );
    }

    #[test]
    fn step_limit_wins_over_leaving_the_image_only_from_a_label() {
        use std::collections::HashMap;
        // `b` with offset +5: the target, 7, overshoots the image.
        let program = Program {
            code: vec![0xE005],
            pool: vec![],
            labels: HashMap::new(),
        };
        let outcome = |entry, max_steps| {
            assert_matches_reference(machine64, &program, entry, max_steps, dormant, "overshoot")
        };
        // From a label the exhausted budget is reported first...
        assert_eq!(outcome(Entry::Label(0), 1), Err(ExecError::StepLimit));
        assert_eq!(outcome(Entry::Label(0), 2), Err(ExecError::PcOutOfRange(7)));
        // ...while a fragment reports the overshoot at any budget.
        assert_eq!(outcome(Entry::Fragment, 1), Err(ExecError::PcOutOfRange(7)));
        assert_eq!(outcome(Entry::Fragment, 2), Err(ExecError::PcOutOfRange(7)));
    }

    #[test]
    fn every_error_matches_the_reference() {
        use std::collections::HashMap;
        let fresh16 = || Machine::new(16);
        // Invalid instruction.
        let program = Program {
            code: vec![0b11111 << 11],
            pool: vec![],
            labels: HashMap::new(),
        };
        assert_eq!(
            assert_matches_reference(fresh16, &program, Entry::Fragment, 10, per_step, "invalid"),
            Err(ExecError::InvalidInstruction {
                pc: 0,
                halfword: 0b11111 << 11
            })
        );
        // Missing literal slot: still an execution-time error.
        let program = Program {
            code: Instr::LdrLit {
                rt: Reg::R0,
                imm_words: 3,
            }
            .encode()
            .to_vec(),
            pool: vec![],
            labels: HashMap::new(),
        };
        assert_eq!(
            assert_matches_reference(fresh16, &program, Entry::Fragment, 10, per_step, "literal"),
            Err(ExecError::BadLiteral { pc: 0, slot: 3 })
        );
        // Out-of-range memory access.
        let mut a = Assembler::new();
        a.label("entry");
        a.push(Instr::LdrImm {
            rt: Reg::R1,
            rn: Reg::R0,
            imm_words: 3,
        });
        let p = a.assemble().expect("assembles");
        let glitched = || {
            let mut m = Machine::new(16);
            m.set_reg(Reg::R0, 0xFFFF_FFFF);
            m
        };
        assert_eq!(
            assert_matches_reference(glitched, &p, Entry::Fragment, 10, per_step, "memory"),
            Err(ExecError::MemOutOfRange {
                pc: 0,
                addr: 0xFFFF_FFFFu64 + 3
            })
        );
        // Step limit.
        assert_eq!(
            assert_matches_reference(fresh16, &looped_program(), Entry::Fragment, 3, per_step, ""),
            Err(ExecError::StepLimit)
        );
    }

    // The predecode cache is process-global and tests run concurrently;
    // tests that assert on its contents, or empty it, serialize here.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn predecode_cache_hits_on_reuse() {
        let _guard = serial();
        let p = looped_program();
        let (h0, _) = predecode_cache_stats();
        let a = predecode(&p);
        let b = predecode(&p);
        let (h1, _) = predecode_cache_stats();
        assert!(h1 > h0, "second predecode of the same program must hit");
        assert!(Arc::ptr_eq(&a, &b), "cache returns the same Arc");
        // A different program is a distinct entry, not a false hit.
        let q = {
            let mut asm = Assembler::new();
            asm.label("entry");
            asm.push(Instr::Nop);
            asm.assemble().expect("assembles")
        };
        let c = predecode(&q);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(c.len(), 1);
        assert!(!c.is_empty());
    }

    #[test]
    fn concurrent_misses_leave_one_resident_entry() {
        use std::sync::Barrier;
        let _guard = serial();
        // A program no other test predecodes, long enough that the
        // predecode work overlaps across threads.
        let mut a = Assembler::new();
        a.label("entry");
        for i in 0..20_000u32 {
            a.push(Instr::MovsImm {
                rd: Reg::R3,
                imm: (i % 199) as u8,
            });
        }
        let p = a.assemble().expect("assembles");
        const THREADS: usize = 4;
        let barrier = Barrier::new(THREADS);
        let fragments: Vec<Arc<Predecoded>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        predecode(&p)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("predecode thread"))
                .collect()
        });
        let resident = lock_predecode_cache()
            .entries
            .iter()
            .filter(|e| e.pre.matches(&p, &crate::target::M0PLUS_CYCLES))
            .count();
        assert_eq!(resident, 1, "concurrent misses must not duplicate entries");
        assert!(
            fragments.iter().all(|f| Arc::ptr_eq(f, &fragments[0])),
            "every caller shares the resident fragment"
        );
    }

    #[test]
    fn poisoned_predecode_cache_recovers() {
        let _guard = serial();
        let p = looped_program();
        let _ = predecode(&p);
        let panicked = std::thread::spawn(|| {
            let _held = lock_predecode_cache();
            panic!("deliberate panic while holding the predecode cache lock");
        })
        .join();
        assert!(panicked.is_err());
        // The recovered lookup hands back a program that runs exactly
        // like the decode-per-step reference.
        let pre = predecode(&p);
        assert!(pre.matches(&p, &crate::target::M0PLUS_CYCLES));
        let mut oracle = Machine::new(16);
        let want = reference_run(&mut oracle, &p, Entry::Fragment, 1000, |_, _| {
            StepAction::Execute
        });
        let mut fast = Machine::new(16);
        assert_eq!(run(&mut fast, &pre, Entry::Fragment, 1000, per_step), want);
        oracle.assert_same_state(&fast, "after lock poisoning");
        assert!(!predecode_cache().is_poisoned());
    }

    #[test]
    fn superblocks_match_the_reference_including_branch_into_block_middle() {
        // The bne of looped_program() targets "loop" — the middle of
        // the [movs, movs, adds, subs] straight-line run — and the
        // fragment ends on that branch's fall-through (a
        // fragment-final branch).
        let p = looped_program();
        assert_matches_reference(
            machine64,
            &p,
            Entry::Fragment,
            1000,
            dormant,
            "branch into block",
        )
        .expect("runs");
    }

    #[test]
    fn superblocks_run_literals_and_stack_transfers() {
        let mut a = Assembler::new();
        a.label("entry");
        a.load_literal(Reg::R0, 0xDEAD_BEEF);
        a.push(Instr::Push { reg_count: 3 });
        a.load_literal(Reg::R1, 0x1FF);
        a.push(Instr::Ands {
            rdn: Reg::R0,
            rm: Reg::R1,
        });
        a.push(Instr::Pop { reg_count: 3 });
        let p = a.assemble().expect("assembles");
        assert_matches_reference(machine64, &p, Entry::Fragment, 100, dormant, "literals")
            .expect("runs");
        let mut m = Machine::new(64);
        execute_predecoded(
            &mut m,
            &Predecoded::for_cycles(&p, &M0PLUS_CYCLES),
            100,
            dormant,
        )
        .expect("runs");
        assert_eq!(m.reg(Reg::R0), 0xDEAD_BEEF & 0x1FF);
    }

    #[test]
    fn superblock_hook_lands_on_per_step_boundaries() {
        // A scheduled hook that skips one instruction — first mid-run
        // (index 2, the loop-body adds), then exactly on a block
        // boundary (index 4, the bne) — must see the same machine
        // state and produce the same outcome as the per-step oracle:
        // the fault injector's window is a per-step boundary.
        let p = looped_program();
        for fault_at in [2usize, 4, 7] {
            let ctl = move |_: &mut Machine, idx: usize| {
                if idx == fault_at {
                    (StepAction::Skip, u64::MAX)
                } else {
                    (StepAction::Execute, fault_at as u64)
                }
            };
            assert_matches_reference(machine64, &p, Entry::Fragment, 1000, ctl, "fault boundary")
                .expect("runs");
        }
    }

    #[test]
    fn superblock_step_limit_fires_mid_block() {
        let p = looped_program();
        for limit in 1..=6 {
            let r = assert_matches_reference(machine64, &p, Entry::Fragment, limit, dormant, "");
            assert_eq!(r, Err(ExecError::StepLimit), "limit {limit}");
        }
    }

    #[test]
    fn superblock_errors_match_per_step_positions() {
        // MemOutOfRange mid-block: the prefix retires, the faulting
        // load charges nothing, the reported pc is the per-step one.
        let mut a = Assembler::new();
        a.label("entry");
        a.push(Instr::AddsImm8 {
            rdn: Reg::R1,
            imm: 1,
        });
        a.push(Instr::LdrImm {
            rt: Reg::R2,
            rn: Reg::R0,
            imm_words: 3,
        });
        let p = a.assemble().expect("assembles");
        let glitched = || {
            let mut m = Machine::new(16);
            m.set_reg(Reg::R0, 0xFFFF_FFFF);
            m
        };
        assert_eq!(
            assert_matches_reference(glitched, &p, Entry::Fragment, 10, dormant, "mid-block"),
            Err(ExecError::MemOutOfRange {
                pc: 1,
                addr: 0xFFFF_FFFFu64 + 3
            })
        );
        // A missing literal slot is never block-runnable: BadLiteral
        // fires from the per-step path at the same retired index.
        use std::collections::HashMap;
        let program = Program {
            code: [
                Instr::MovsImm {
                    rd: Reg::R0,
                    imm: 1,
                }
                .encode(),
                Instr::LdrLit {
                    rt: Reg::R0,
                    imm_words: 3,
                }
                .encode(),
            ]
            .into_iter()
            .flatten()
            .collect(),
            pool: vec![],
            labels: HashMap::new(),
        };
        assert_eq!(
            assert_matches_reference(machine64, &program, Entry::Fragment, 10, dormant, "literal"),
            Err(ExecError::BadLiteral { pc: 1, slot: 3 })
        );
    }

    #[test]
    fn superblocks_fall_back_per_step_while_tracing() {
        // An armed trace needs every instruction at its own position,
        // so superblock execution must defer to the per-step path —
        // and still match the oracle bit for bit.
        let p = looped_program();
        let mut oracle = Machine::new(64);
        oracle.start_trace();
        reference_run(&mut oracle, &p, Entry::Fragment, 1000, |_, _| {
            StepAction::Execute
        })
        .expect("runs");
        let t1 = oracle.take_trace();
        let mut fast = Machine::new(64);
        fast.start_trace();
        execute_predecoded(
            &mut fast,
            &Predecoded::for_cycles(&p, &M0PLUS_CYCLES),
            1000,
            dormant,
        )
        .expect("runs");
        let t2 = fast.take_trace();
        assert_eq!(t1.events.len(), t2.events.len());
        assert!(
            !t2.events.is_empty(),
            "trace captured despite a dormant hook"
        );
        oracle.assert_same_state(&fast, "trace fallback");
    }

    #[test]
    fn multiprecision_add_program() {
        // 2-word add with carry: r0 = &a, r1 = &b, r2 = &out.
        let mut a = Assembler::new();
        a.label("add64");
        a.push(Instr::LdrImm {
            rt: Reg::R3,
            rn: Reg::R0,
            imm_words: 0,
        });
        a.push(Instr::LdrImm {
            rt: Reg::R4,
            rn: Reg::R1,
            imm_words: 0,
        });
        a.push(Instr::AddsReg {
            rd: Reg::R3,
            rn: Reg::R3,
            rm: Reg::R4,
        });
        a.push(Instr::StrImm {
            rt: Reg::R3,
            rn: Reg::R2,
            imm_words: 0,
        });
        a.push(Instr::LdrImm {
            rt: Reg::R3,
            rn: Reg::R0,
            imm_words: 1,
        });
        a.push(Instr::LdrImm {
            rt: Reg::R4,
            rn: Reg::R1,
            imm_words: 1,
        });
        a.push(Instr::Adcs {
            rdn: Reg::R3,
            rm: Reg::R4,
        });
        a.push(Instr::StrImm {
            rt: Reg::R3,
            rn: Reg::R2,
            imm_words: 1,
        });
        a.push(Instr::Bx);
        let p = a.assemble().expect("assembles");

        let mut m = Machine::new(64);
        let (pa, pb, po) = (m.alloc(2), m.alloc(2), m.alloc(2));
        let a_val = 0xFFFF_FFFF_0000_0001u64;
        let b_val = 0x0000_0001_FFFF_FFFFu64;
        m.write_slice(pa, &[a_val as u32, (a_val >> 32) as u32]);
        m.write_slice(pb, &[b_val as u32, (b_val >> 32) as u32]);
        m.set_base(Reg::R0, pa);
        m.set_base(Reg::R1, pb);
        m.set_base(Reg::R2, po);
        execute(&mut m, &p, "add64", 100).expect("runs");
        let out = m.read_slice(po, 2);
        let got = out[0] as u64 | (out[1] as u64) << 32;
        assert_eq!(got, a_val.wrapping_add(b_val));
    }
}
