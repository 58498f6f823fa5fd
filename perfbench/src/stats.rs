//! The benchmark's own statistics: medians, quartiles, tail percentiles
//! with enough samples behind them, failure accounting and the metric-name
//! rules the result document must follow.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for an even count);
/// `None` when empty.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// First and third quartile, computed like Python's
/// `statistics.quantiles(values, n=4)` (the default `exclusive` method);
/// `None` with fewer than two values.
#[must_use]
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median (the spread the
/// benchmark's bounds are stated in); `None` when undefined.
#[must_use]
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// Nearest-rank `q`-percentile, reported only when at least
/// [`MIN_BEYOND`] samples lie beyond it: the value at rank `⌈q·n⌉`
/// (1-based) with `n − ⌈q·n⌉ ≥ MIN_BEYOND`.  A p90 therefore needs at
/// least 100 samples, a p99 at least 1000.
#[must_use]
pub fn tail_percentile(values: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..1.0).contains(&q), "percentile must lie in [0, 1)");
    let data = sorted(values);
    let n = data.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    (n >= rank && n - rank >= MIN_BEYOND).then(|| data[rank - 1])
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Attempted and failed runs.  A failure is a run that returned an error
/// or failed a correctness gate; every run, warm-up included, is counted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Runs started.
    pub attempted: u64,
    /// Runs that errored or failed a gate.
    pub failed: u64,
}

impl Tally {
    /// Counts one run and its outcome.
    pub fn record<T, E>(&mut self, outcome: &Result<T, E>) {
        self.attempted += 1;
        if outcome.is_err() {
            self.failed += 1;
        }
    }

    /// Failed ÷ attempted (0 before anything ran).
    #[must_use]
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// A metric or workload name: starts with a letter or digit, at most 64
/// characters from `[A-Za-z0-9_.-]`.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    let first_ok = name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric());
    first_ok
        && name.len() <= 64
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit: 1 to 16 characters from `[A-Za-z0-9_/%.-]`.
#[must_use]
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([7, 1, 4, 9, 3], n=4) == [2.0, 4.0, 8.0]
        assert_eq!(quartiles(&[7.0, 1.0, 4.0, 9.0, 3.0]), Some((2.0, 8.0)));
        // Two values extrapolate: statistics.quantiles([5, 1], n=4) == [0.0, 3.0, 6.0]
        assert_eq!(quartiles(&[5.0, 1.0]), Some((0.0, 6.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_spread(&v).unwrap() - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(relative_spread(&[2.0, 2.0, 2.0]), Some(0.0));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // Rank 90 of 100: exactly ten samples beyond it.
        assert_eq!(tail_percentile(&v, 0.9), Some(90.0));
        // 99 samples leave only nine beyond rank 90.
        assert_eq!(tail_percentile(&v[..99], 0.9), None);
        // A p99 needs 1000 samples.
        assert_eq!(tail_percentile(&v, 0.99), None);
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&many, 0.99), Some(990.0));
        // A median needs only 20.
        assert_eq!(tail_percentile(&v[..20], 0.5), Some(10.0));
        assert_eq!(tail_percentile(&v[..19], 0.5), None);
    }

    #[test]
    fn tally_counts_errors_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.error_rate(), 0.0);
        t.record::<(), &str>(&Ok(()));
        t.record::<(), &str>(&Err("gate"));
        t.record::<(), &str>(&Ok(()));
        t.record::<(), &str>(&Ok(()));
        assert_eq!(t, Tally { attempted: 4, failed: 1 });
        assert_eq!(t.error_rate(), 0.25);
    }

    #[test]
    fn names_and_units_follow_the_charset() {
        for ok in ["wall_s", "proc.request_to_grant_p50_us", "lk23_threads", "9lives", "a-b.c_d"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_lead", ".lead", "has space", "slash/no", "ünï", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["s", "ms", "1/s", "count", "MB", "MB/s", "%", "ratio", "us"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }
}
