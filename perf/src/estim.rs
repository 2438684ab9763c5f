//! Estimators: window medians, quartiles, the percentile rule, host
//! normalisation and failure accounting. Everything a gated number passes
//! through lives here so it can be unit-tested without an engine.

/// Calibration-slice duration every time-based metric is normalised to.
/// Set once from this PR's acceptance runs (median `host.calib_ms_p50` over
/// all A/A runs on the 2-core sandbox) and never changed afterwards: moving
/// it rescales every gated time metric.
pub const CAL_REF_MS: f64 = 18.5;

/// Sorted copy of `xs` (NaNs are a bug upstream; `total_cmp` keeps the sort
/// total anyway).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `xs`; 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile by the rule of Python's
/// `statistics.quantiles(xs, n=4)` (exclusive method), which the driver
/// uses for its spread check. Fewer than two values have no spread.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only, only);
    }
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile range as a share of the median — the driver's spread.
pub fn spread(xs: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(xs);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Value at percentile `p` (0–100) by nearest rank on a sorted copy.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return 0.0;
    }
    // The epsilon keeps p × n products such as 0.999 × 10000 on their integer.
    let rank = ((p / 100.0) * v.len() as f64 - 1e-9).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The guide's percentile rule: the highest of p99.9 / p99 / p95 / p90 that
/// still has at least ten samples beyond it, with its value. `None` when
/// even p90 is not supported (fewer than 100 samples).
pub fn tail_percentile(xs: &[f64]) -> Option<(f64, f64)> {
    // (percentile, samples beyond it per thousand): integer arithmetic, so
    // exactly ten samples beyond counts.
    [(99.9, 1), (99.0, 10), (95.0, 50), (90.0, 100)]
        .into_iter()
        .find(|(_, beyond)| xs.len() * beyond / 1000 >= 10)
        .map(|(p, _)| (p, percentile(xs, p)))
}

/// Host-normalised rate: a slow host (calibration slice above the
/// reference) scales the rate up by the same factor.
pub fn norm_rate(raw: f64, calib_ms: f64) -> f64 {
    raw * calib_ms / CAL_REF_MS
}

/// Host-normalised duration (inverse of [`norm_rate`]).
pub fn norm_duration(raw: f64, calib_ms: f64) -> f64 {
    raw * CAL_REF_MS / calib_ms
}

/// Operations attempted against operations that failed, were refused,
/// timed out or returned a wrong answer.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one engine call carrying `n` operations (a batch of `n`
    /// queries fails or succeeds as a whole); returns the `Ok` value.
    pub fn record<T, E: std::fmt::Display>(
        &mut self,
        what: &str,
        n: u64,
        r: Result<T, E>,
    ) -> Option<T> {
        self.attempted += n;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(&format!("{what}: {e}"), n);
                None
            }
        }
    }

    /// Counts one correctness check.
    pub fn check(&mut self, holds: bool, what: &str) {
        self.attempted += 1;
        if !holds {
            self.fail(what, 1);
        }
    }

    fn fail(&mut self, what: &str, n: u64) {
        // The first few violations name themselves; the count carries the rest.
        if self.failed < 8 {
            eprintln!("[perf] FAILED {what}");
        }
        self.failed += n;
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_median_ignores_outlier_windows() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // One stalled window out of five does not move the estimate.
        assert_eq!(median(&[100.0, 101.0, 99.0, 100.5, 12.0]), 100.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), (10.0, 20.0, 40.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
        assert!((spread(&xs) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn calibration_normalisation_cancels_a_uniformly_slow_host() {
        // Host 25 % slower: slice takes 1.25x, throughput drops to 0.8x,
        // latency rises 1.25x. Normalised values equal the quiet host's.
        let quiet_qps = norm_rate(1000.0, CAL_REF_MS);
        let slow_qps = norm_rate(800.0, CAL_REF_MS * 1.25);
        assert!((quiet_qps - slow_qps).abs() < 1e-9);
        let quiet_ms = norm_duration(2.0, CAL_REF_MS);
        let slow_ms = norm_duration(2.5, CAL_REF_MS * 1.25);
        assert!((quiet_ms - slow_ms).abs() < 1e-9);
        assert_eq!(quiet_qps, 1000.0);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=64).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), None);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), Some((90.0, 90.0)));
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), Some((99.0, 990.0)));
        let xs: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), Some((99.9, 9990.0)));
        assert_eq!(percentile(&[5.0, 1.0, 3.0], 50.0), 3.0);
    }

    #[test]
    fn failure_accounting_counts_errors_and_violations() {
        let mut t = Tally::default();
        assert_eq!(t.record::<u8, String>("batch", 10, Ok(7)), Some(7));
        assert_eq!(t.record::<u8, String>("op", 1, Ok(7)), Some(7));
        // A refused batch of 4 queries is 4 failed operations.
        assert_eq!(
            t.record::<u8, String>("batch", 4, Err("refused".into())),
            None
        );
        t.check(true, "holds");
        t.check(false, "violated");
        let mut total = Tally::default();
        total.merge(t);
        assert_eq!(
            total,
            Tally {
                attempted: 17,
                failed: 5
            }
        );
        assert!((total.error_rate() - 5.0 / 17.0).abs() < 1e-12);
        assert_eq!(Tally::default().error_rate(), 0.0);
    }
}
