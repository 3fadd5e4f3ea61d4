//! Deterministic work sharding for the campaign runners.
//!
//! A campaign is a list of independent cases (sampled faults, fuzz
//! seeds). [`windows`] splits the case index range into contiguous
//! shard windows and [`run_shards`] executes them on at most `workers`
//! scoped threads (through [`protocols::batch::run_sharded`]),
//! returning the per-shard outputs **in shard order**. As long as each
//! case's outcome is a pure function of its index (per-case PRNG
//! substreams — see `prng::SplitMix64::substream`), merging the shard
//! outputs in window order yields a result that is byte-identical for
//! any shard and worker count; `ci.sh` diffs `--shards 1` against
//! `--shards 4` to hold the campaigns to that.

use std::ops::Range;

/// Splits the case range `0..total` into `shards` contiguous windows
/// in index order; the first `total % shards` windows are one case
/// longer. Empty windows are kept (so shard indices are stable) and
/// `shards == 0` is treated as 1.
pub fn windows(total: usize, shards: usize) -> Vec<Range<usize>> {
    let shards = shards.max(1);
    let base = total / shards;
    let extra = total % shards;
    let mut start = 0;
    (0..shards)
        .map(|i| {
            let len = base + usize::from(i < extra);
            let r = start..start + len;
            start += len;
            r
        })
        .collect()
}

/// Runs `work(shard_index, window)` for every window on at most
/// `workers` threads and returns the outputs **in shard order**.
///
/// Each thread takes a contiguous run of windows, the calling thread
/// the first; with `workers <= 1` everything runs inline on the
/// calling thread. Determinism is the caller's contract: `work` must
/// not observe anything but its own window.
///
/// # Panics
///
/// Propagates a panic from any shard worker.
pub fn run_shards<T: Send>(
    total: usize,
    shards: usize,
    workers: usize,
    work: impl Fn(usize, Range<usize>) -> T + Sync,
) -> Vec<T> {
    protocols::batch::run_sharded(&windows(total, shards), workers, |i, w| work(i, w.clone()))
}

/// Parses `--shards N` (or `--shards=N`) from an argument list,
/// defaulting to 1. Other arguments are ignored, so the campaign bins
/// can keep their own flag loops.
///
/// # Panics
///
/// Panics with a usage message on a missing or unparsable value.
pub fn shards_from_args(args: &[String]) -> usize {
    let mut shards = 1usize;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let value = if arg == "--shards" {
            it.next()
                .unwrap_or_else(|| panic!("--shards requires a value"))
                .clone()
        } else if let Some(v) = arg.strip_prefix("--shards=") {
            v.to_string()
        } else {
            continue;
        };
        shards = value
            .parse()
            .unwrap_or_else(|e| panic!("unparsable --shards value {value:?}: {e}"));
        assert!(shards >= 1, "--shards must be at least 1");
    }
    shards
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_cover_the_range_contiguously() {
        for total in [0usize, 1, 5, 24, 100] {
            for shards in [1usize, 2, 3, 4, 7, 32] {
                let wins = windows(total, shards);
                assert_eq!(wins.len(), shards);
                let mut next = 0;
                for w in &wins {
                    assert_eq!(w.start, next);
                    next = w.end;
                }
                assert_eq!(next, total);
                let (min, max) = wins.iter().fold((usize::MAX, 0), |(lo, hi), w| {
                    (lo.min(w.len()), hi.max(w.len()))
                });
                assert!(max - min <= 1, "windows must be balanced");
            }
        }
    }

    #[test]
    fn run_shards_returns_outputs_in_shard_order_for_any_worker_count() {
        let expect: Vec<Vec<usize>> = windows(23, 5).into_iter().map(|w| w.collect()).collect();
        for workers in [1usize, 2, 4, 16] {
            let got = run_shards(23, 5, workers, |_, w| w.collect::<Vec<_>>());
            assert_eq!(got, expect, "workers = {workers}");
        }
    }

    #[test]
    fn shards_flag_parses() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(shards_from_args(&args(&[])), 1);
        assert_eq!(shards_from_args(&args(&["--smoke", "--shards", "4"])), 4);
        assert_eq!(shards_from_args(&args(&["--shards=2"])), 2);
    }

    #[test]
    #[should_panic(expected = "--shards requires a value")]
    fn shards_flag_rejects_missing_value() {
        shards_from_args(&["--shards".to_string()]);
    }
}
