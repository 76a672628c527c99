//! Estimators.
//!
//! Each vCPU of the host this benchmark was built on goes in and out of
//! a ~1.3x slower contended mode, for seconds to tens of seconds at a
//! time (README, "Host noise"). Two estimators survive that, and each
//! end-to-end metric is fixed to one of them in `metrics::END_TO_END`:
//!
//! * [`Estimator::Fastest`] — the best sample of the whole run (the
//!   end-to-end run keeps it per unit of work, `e2e::Fastest`). For
//!   single-threaded deterministic work the fastest sample is the one
//!   taken with the host quiet, and it repeats; the median of the same
//!   samples moves with the share of the run the host was contended.
//! * [`Estimator::RoundMedian`] — the median over rounds of a per-round
//!   statistic. For multi-threaded and service work (and for memory)
//!   the minimum is an extreme value and does not repeat.

use std::cmp::Ordering;

/// How a metric's per-sample or per-round values become one number.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Estimator {
    /// Best sample of the run.
    Fastest,
    /// Median over the per-round (or per-daemon-instance) values.
    RoundMedian,
}

impl Estimator {
    pub fn as_str(self) -> &'static str {
        match self {
            Estimator::Fastest => "fastest",
            Estimator::RoundMedian => "round_median",
        }
    }
}

/// Which direction is good.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(Ordering::Equal));
    v
}

/// Linear-interpolated quantile of a sample (`q` in `[0, 1]`).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        1 => v[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The best sample: smallest when lower is better, largest otherwise.
pub fn fastest(values: &[f64], better: Better) -> f64 {
    let pick = |a: f64, b: f64| match better {
        Better::Lower => a.min(b),
        Better::Higher => a.max(b),
    };
    values.iter().copied().reduce(pick).unwrap_or(f64::NAN)
}

/// Applies an estimator.
pub fn estimate(est: Estimator, better: Better, values: &[f64]) -> f64 {
    match est {
        Estimator::Fastest => fastest(values, better),
        Estimator::RoundMedian => median(values),
    }
}

/// The highest percentile of a latency sample that still has at least
/// ten samples beyond it, as `(percentile, value)`. With fewer than 20
/// samples no tail can be resolved and the median is returned.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return (f64::NAN, f64::NAN);
    }
    let idx = if n >= 20 { n - 11 } else { (n - 1) / 2 };
    (100.0 * (idx + 1) as f64 / n as f64, v[idx])
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes
/// them (the "exclusive" method) — the rule the acceptance check uses.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return [x; 3];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median: the spread the
/// acceptance check compares with a metric's bound.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fastest_picks_the_good_end() {
        let v = [3.0, 1.5, 2.0, 9.0];
        assert_eq!(fastest(&v, Better::Lower), 1.5);
        assert_eq!(fastest(&v, Better::Higher), 9.0);
        assert!(fastest(&[], Better::Lower).is_nan());
    }

    #[test]
    fn median_and_quantile_interpolate() {
        assert_eq!(median(&[1.0, 3.0]), 2.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(quantile(&[0.0, 10.0], 0.25), 2.5);
        assert_eq!(quantile(&[4.0], 0.9), 4.0);
    }

    /// Why `fastest` for single-threaded work: over 30 samples of which
    /// a varying share is 1.3x slow, the fastest never moves and the
    /// median flips when the share passes one half.
    #[test]
    fn fastest_ignores_the_contended_share_and_the_median_does_not() {
        let mk = |contended: usize| -> Vec<f64> {
            (0..30)
                .map(|i| if i < contended { 1.3 } else { 1.0 })
                .collect()
        };
        for contended in [0, 8, 14, 16, 29] {
            assert_eq!(
                estimate(Estimator::Fastest, Better::Lower, &mk(contended)),
                1.0
            );
        }
        assert_eq!(
            estimate(Estimator::RoundMedian, Better::Lower, &mk(14)),
            1.0
        );
        assert_eq!(
            estimate(Estimator::RoundMedian, Better::Lower, &mk(16)),
            1.3
        );
        let rates: Vec<f64> = mk(10).iter().map(|t| 1000.0 / t).collect();
        assert_eq!(estimate(Estimator::Fastest, Better::Higher, &rates), 1000.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let (pct, value) = tail(&v);
        assert_eq!(value, 190.0);
        assert_eq!(pct, 95.0);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
        // 48 samples: p77 or so.
        let v: Vec<f64> = (1..=48).map(f64::from).collect();
        let (pct, value) = tail(&v);
        assert_eq!(value, 38.0);
        assert!((pct - 79.1666).abs() < 0.01);
        // Too few samples for any tail: the median.
        let v: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(tail(&v).1, 6.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 2, 8, 4, 6], n=4) == [3.0, 6.0, 9.0]
        assert_eq!(quartiles(&[10.0, 2.0, 8.0, 4.0, 6.0]), [3.0, 6.0, 9.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
