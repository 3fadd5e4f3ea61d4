//! Known-answer tallies for the counted tier.
//!
//! The `Tally` values below were recorded once from the counted
//! multipliers and the counted EEA and are pinned exactly: the paper's
//! Tables 1–2 and the register-budget ablation are printed from these
//! counts, so any change to how an operation is charged shows up here
//! as a named field.

use gf2m::counted::{self, CountedProduct};
use gf2m::{Fe, Tally};
use prng::SplitMix64;

const fn t(reads: u64, writes: u64, xors: u64, shifts: u64) -> Tally {
    Tally {
        reads,
        writes,
        xors,
        shifts,
    }
}

/// Window-table generation: the same for every method and operand.
const TABLE: Tally = t(169, 128, 112, 112);

/// Main-loop tallies of `mul_ld_fixed_with_registers` for register
/// budgets 0..=16 (budget 0 is Method A, budget 9 is Method C).
const BY_BUDGET: [Tally; 17] = [
    t(1200, 640, 688, 288),
    t(1129, 568, 688, 288),
    t(1066, 504, 688, 288),
    t(1003, 440, 688, 288),
    t(948, 384, 688, 288),
    t(893, 328, 688, 288),
    t(846, 280, 688, 288),
    t(799, 232, 688, 288),
    t(760, 192, 688, 288),
    t(721, 152, 688, 288),
    t(690, 120, 688, 288),
    t(659, 88, 688, 288),
    t(636, 64, 688, 288),
    t(613, 40, 688, 288),
    t(598, 24, 688, 288),
    t(583, 8, 688, 288),
    t(576, 0, 688, 288),
];

fn operand_pairs() -> [(Fe, Fe); 2] {
    let a = Fe::from_hex("1af129f22ff4149563a419c26bf50a4c9d6eefad6126").expect("hex");
    let b = Fe::from_hex("5a67c427a8cd9bf18aeb9b56e0c11056fae6a3").expect("hex");
    let mut all_ones = [u32::MAX; 8];
    all_ones[7] = gf2m::TOP_MASK;
    [(a, b), (Fe::from_words_reduced(all_ones), z232())]
}

fn z232() -> Fe {
    let mut w = [0u32; 8];
    w[7] = 1 << 8;
    Fe::from_words_reduced(w)
}

fn check(name: &str, pair: usize, got: CountedProduct, main: Tally) {
    assert_eq!(got.table, TABLE, "{name} table tally, pair {pair}");
    assert_eq!(got.main, main, "{name} main tally, pair {pair}");
}

#[test]
fn method_tallies_match_the_recorded_values() {
    for (pair, (x, y)) in operand_pairs().into_iter().enumerate() {
        check("mul_ld", pair, counted::mul_ld(x, y), BY_BUDGET[0]);
        check(
            "mul_ld_rotating",
            pair,
            counted::mul_ld_rotating(x, y),
            t(816, 256, 688, 288),
        );
        check(
            "mul_ld_fixed",
            pair,
            counted::mul_ld_fixed(x, y),
            BY_BUDGET[9],
        );
    }
}

#[test]
fn register_budget_tallies_match_the_recorded_values() {
    for (pair, (x, y)) in operand_pairs().into_iter().enumerate() {
        for (regs, &main) in BY_BUDGET.iter().enumerate() {
            let got = counted::mul_ld_fixed_with_registers(x, y, regs);
            check(&format!("{regs} registers"), pair, got, main);
        }
    }
}

#[test]
fn eea_tallies_match_the_recorded_values() {
    // The EEA's iteration count follows the operand's degree sequence,
    // so each element has its own tally.
    let seeded = |seed: u64| {
        let mut w = [0u32; 8];
        SplitMix64::new(seed).fill_u32(&mut w);
        Fe::from_words_reduced(w)
    };
    let cases = [
        ("one", Fe::ONE, t(25, 0, 0, 2)),
        ("z^232", z232(), t(161, 47, 47, 58)),
        ("seed 1", seeded(1), t(7437, 3414, 3414, 3519)),
        ("seed 2", seeded(2), t(6948, 3217, 3217, 3241)),
        ("seed 3", seeded(3), t(7671, 3511, 3511, 3653)),
    ];
    for (name, a, want) in cases {
        let got = counted::inv_eea(a).expect("non-zero");
        assert_eq!(got.tally, want, "inv_eea tally of {name}");
        assert_eq!(got.value, gf2m::inv::invert(a).expect("non-zero"), "{name}");
    }
}
