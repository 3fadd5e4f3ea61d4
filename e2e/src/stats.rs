//! Order statistics, the tail-percentile rule and host probes.

/// Tail percentiles the benchmark may report, highest first.
pub const TAIL_CANDIDATES: [u32; 4] = [99, 95, 90, 75];

/// The highest candidate percentile that has at least ten samples
/// beyond it among `n`, or `None` when even p75 has fewer.
pub fn tail_percentile(n: usize) -> Option<u32> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| n as u64 * u64::from(100 - p) >= 10 * 100)
}

/// Nearest-rank percentile `q` (0 < q ≤ 100) of ascending samples.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts samples ascending (they are finite timings).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 50.0)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes
/// them (the default "exclusive" method), so spreads printed here match
/// the ones the acceptance check computes.
///
/// # Panics
///
/// Panics with fewer than two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let data = sorted(values.to_vec());
    let m = data.len() + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, data.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// `(peak RSS, peak anonymous RSS)` of this process so far, MiB: the
/// `VmHWM` of `/proc/self/status`, and `VmHWM − RssFile − RssShmem`
/// (file pages are only ever faulted in, so their count now bounds the
/// one at the peak).
///
/// # Panics
///
/// Panics where `/proc/self/status` lacks those lines (the benchmark
/// runs on Linux).
pub fn peak_rss_mib() -> (f64, f64) {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib = |key: &str| -> f64 {
        status
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .unwrap_or_else(|| panic!("{key} line in /proc/self/status"))
    };
    let hwm = kib("VmHWM:");
    (
        hwm / 1024.0,
        (hwm - kib("RssFile:") - kib("RssShmem:")) / 1024.0,
    )
}

pub fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_helper_picks_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(5000), Some(99));
        assert_eq!(tail_percentile(1000), Some(99));
        assert_eq!(tail_percentile(999), Some(95));
        assert_eq!(tail_percentile(200), Some(95));
        assert_eq!(tail_percentile(199), Some(90));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(99), Some(75));
        assert_eq!(tail_percentile(40), Some(75));
        assert_eq!(tail_percentile(39), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }
}
