//! Loop-aware flash footprint of a recorded fragment.
//!
//! A recorded trace linearises host-driven control flow: a loop that
//! ran 200 times appears 200 times in the recorded trace, so
//! [`Program::size_bytes`] reports the flash a *fully unrolled* build
//! would need. For straight-line kernels (the paper's unrolled
//! multiplier and squarer) that is exactly the deployed footprint, but
//! for the looped EEA inversion it wildly overstates what a real build
//! flashes: the device stores each loop body once and branches back.
//!
//! [`dedup`] recovers a loop-aware footprint from the halfword stream
//! alone, with no knowledge of the original source structure. It is a
//! greedy LZ77-style pass over the code image: at each halfword
//! position it looks for the longest earlier *repeat* of the upcoming
//! halfwords (4-gram hash chains, as in DEFLATE); a repeat of at least
//! [`MIN_MATCH_HALFWORDS`] is charged [`MATCH_COST_HALFWORDS`]
//! halfwords — the `B`/`BL` pair a rolled build would spend to reach
//! the shared body — instead of its full length. Literal halfwords are
//! charged as themselves, and the literal pool (already deduplicated by
//! the assembler) is carried through unchanged.
//!
//! The result is an upper bound on a rolled build's flash: real
//! compilers also share partially-overlapping tails and use loop
//! counters instead of branch chains, so a hand-rolled EEA would be
//! smaller still. The point of the number is honest accounting — the
//! unrolled figure answers "how big is the recorded trace", the
//! deduplicated figure answers "how big is the kernel".

use crate::asm::Program;
use std::collections::HashMap;

/// Shortest repeat worth replacing with a branch to shared code. Below
/// this, the `B`+`BL` overhead of reaching a shared body outweighs the
/// saved halfwords.
pub const MIN_MATCH_HALFWORDS: usize = 8;

/// Halfwords charged per replaced repeat: a `BL` into the shared body
/// plus its amortised `BX` return (both Thumb-16 in this model's
/// encoding, and `BL` is counted at its real 2-halfword width).
pub const MATCH_COST_HALFWORDS: usize = 3;

/// Order of the rolling match seed: matches are found by hashing every
/// 4 consecutive halfwords, DEFLATE-style.
const SEED: usize = 4;

/// What the dedup pass found in one code image.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DedupReport {
    /// Halfwords in the recorded (unrolled) code image.
    pub raw_halfwords: usize,
    /// Halfwords a rolled build would flash: literals plus
    /// [`MATCH_COST_HALFWORDS`] per replaced repeat.
    pub deduped_halfwords: usize,
    /// Repeats of at least [`MIN_MATCH_HALFWORDS`] that were replaced.
    pub matches: usize,
    /// Literal-pool words (identical in both accountings).
    pub pool_words: usize,
}

impl DedupReport {
    /// Unrolled flash footprint in bytes (code + pool) — identical to
    /// [`Program::size_bytes`].
    pub fn raw_bytes(&self) -> usize {
        2 * self.raw_halfwords + 4 * self.pool_words
    }

    /// Loop-aware flash footprint in bytes (deduplicated code + pool).
    pub fn deduped_bytes(&self) -> usize {
        2 * self.deduped_halfwords + 4 * self.pool_words
    }

    /// `raw_bytes / deduped_bytes` as a float (1.0 for straight-line
    /// code with no repeats; large for heavily looped kernels).
    pub fn compression(&self) -> f64 {
        if self.deduped_bytes() == 0 {
            return 1.0;
        }
        self.raw_bytes() as f64 / self.deduped_bytes() as f64
    }
}

fn seed_hash(code: &[u16], at: usize) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &hw in &code[at..at + SEED] {
        h ^= hw as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Longest common run of `code` starting at the two positions (the
/// second strictly later), capped so a match never runs past the end.
fn match_len(code: &[u16], earlier: usize, here: usize) -> usize {
    let cap = code.len() - here;
    let mut n = 0;
    while n < cap && code[earlier + n] == code[here + n] {
        n += 1;
    }
    n
}

/// Computes the loop-aware footprint of an assembled program (see the
/// [module docs](self) for the model).
pub fn dedup(program: &Program) -> DedupReport {
    let code = &program.code;
    let mut report = DedupReport {
        raw_halfwords: code.len(),
        deduped_halfwords: 0,
        matches: 0,
        pool_words: program.pool.len(),
    };
    // Hash chains: seed hash → positions already emitted, newest first.
    let mut chains: HashMap<u64, Vec<usize>> = HashMap::new();
    // Bound the work per position: DEFLATE-style chain truncation. The
    // recorded kernels repeat a handful of loop bodies thousands of
    // times, so even a short chain finds the body again immediately.
    const MAX_CHAIN: usize = 32;

    let mut pos = 0usize;
    while pos < code.len() {
        let mut best = 0usize;
        if pos + SEED <= code.len() {
            if let Some(cands) = chains.get(&seed_hash(code, pos)) {
                for &cand in cands.iter().rev().take(MAX_CHAIN) {
                    let n = match_len(code, cand, pos);
                    if n > best {
                        best = n;
                    }
                }
            }
        }
        let step = if best >= MIN_MATCH_HALFWORDS {
            report.deduped_halfwords += MATCH_COST_HALFWORDS;
            report.matches += 1;
            best
        } else {
            report.deduped_halfwords += 1;
            1
        };
        // Index every position we are consuming so later repeats can
        // match into the middle of this run too.
        for p in pos..(pos + step).min(code.len()) {
            if p + SEED <= code.len() {
                chains.entry(seed_hash(code, p)).or_default().push(p);
            }
        }
        pos += step;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Assembler;
    use crate::isa::Instr;
    use crate::Reg;

    fn program_of(halfwords: &[u16]) -> Program {
        Program {
            code: halfwords.to_vec(),
            pool: Vec::new(),
            labels: Default::default(),
        }
    }

    #[test]
    fn straight_line_code_is_not_compressed() {
        // 32 distinct halfwords: no repeats, footprint unchanged.
        let code: Vec<u16> = (0..32u16).map(|i| 0x1000 | i).collect();
        let r = dedup(&program_of(&code));
        assert_eq!(r.deduped_halfwords, r.raw_halfwords);
        assert_eq!(r.matches, 0);
        assert_eq!(r.compression(), 1.0);
    }

    #[test]
    fn unrolled_loop_collapses_to_one_body() {
        // A 16-halfword "body" repeated 10 times, as a recorded loop.
        let body: Vec<u16> = (0..16u16).map(|i| 0x2000 | i).collect();
        let code: Vec<u16> = body.iter().cycle().take(16 * 10).copied().collect();
        let r = dedup(&program_of(&code));
        assert_eq!(r.raw_halfwords, 160);
        // One literal body + 9 replaced repeats. Consecutive repeats
        // merge into maximal matches, so the count can be lower, but
        // the footprint must be near one body.
        assert!(
            r.deduped_halfwords <= 16 + 9 * MATCH_COST_HALFWORDS,
            "{} halfwords",
            r.deduped_halfwords
        );
        assert!(r.matches >= 1);
        assert!(r.compression() > 3.0, "{}", r.compression());
    }

    #[test]
    fn short_repeats_stay_literal() {
        // A 4-halfword pattern repeated: below MIN_MATCH… except the
        // *concatenation* of repeats is itself a long match, which is
        // exactly what a rolled loop body looks like. Use a pattern
        // broken up by unique separators so no long match exists.
        let mut code = Vec::new();
        for i in 0..8u16 {
            code.extend_from_slice(&[0xAAAA, 0xBBBB, 0xCCCC]);
            code.push(0x4000 | i); // unique separator
        }
        let r = dedup(&program_of(&code));
        assert_eq!(r.matches, 0, "no repeat reaches MIN_MATCH");
        assert_eq!(r.deduped_halfwords, r.raw_halfwords);
    }

    #[test]
    fn pool_words_are_carried_through() {
        let mut a = Assembler::new();
        a.load_literal(Reg::R0, 0xDEAD_BEEF);
        a.load_literal(Reg::R1, 0xFACE_FEED);
        a.push(Instr::Bx);
        let p = a.assemble().unwrap();
        let r = dedup(&p);
        assert_eq!(r.pool_words, 2);
        assert_eq!(r.raw_bytes(), p.size_bytes());
        assert_eq!(r.deduped_bytes(), p.size_bytes(), "nothing to dedup");
    }

    #[test]
    fn empty_program_is_empty() {
        let r = dedup(&program_of(&[]));
        assert_eq!(r.raw_bytes(), 0);
        assert_eq!(r.deduped_bytes(), 0);
        assert_eq!(r.compression(), 1.0);
    }
}
