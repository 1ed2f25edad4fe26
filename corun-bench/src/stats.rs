//! Order statistics and process measurements shared by every workload.

/// Nearest-rank percentile (`q` in 0..=1) of `values`; 0 for no samples.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The `q` percentile of `values`, or with a `window` the median over
/// consecutive windows of that many samples of each window's percentile
/// (a trailing partial window is left out). Fewer samples than one
/// window make one window.
pub fn windowed_percentile(values: &[f64], q: f64, window: Option<usize>) -> f64 {
    match window {
        Some(w) if values.len() >= w => median(
            &values
                .chunks_exact(w)
                .map(|c| percentile(c, q))
                .collect::<Vec<_>>(),
        ),
        _ => percentile(values, q),
    }
}

/// Median (midpoint of the two central values for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// First and third quartile by the rule of Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so spreads printed here match those the bounds are checked against.
/// A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let ld = sorted.len();
    match ld {
        0 => (0.0, 0.0),
        1 => (sorted[0], sorted[0]),
        _ => {
            let m = ld + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
            };
            (q(1), q(3))
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB. Each workload
/// runs in a process of its own, so this is the workload's peak.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn windowed_percentiles_take_the_median_window() {
        // Windows [1..=10], [11..=20], [21..=30]; the trailing 31 is left out.
        let v: Vec<f64> = (1..=31).map(f64::from).collect();
        assert_eq!(windowed_percentile(&v, 0.9, Some(10)), 19.0);
        assert_eq!(windowed_percentile(&v, 0.9, None), 28.0);
        assert_eq!(windowed_percentile(&v, 0.9, Some(100)), 28.0);
    }
}
