//! Percentile-bootstrap confidence intervals.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A two-sided percentile-bootstrap confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Point estimate (the statistic on the original sample).
    pub estimate: f64,
    /// Lower bound.
    pub lower: f64,
    /// Upper bound.
    pub upper: f64,
    /// Confidence level, e.g. `0.95`.
    pub level: f64,
}

impl ConfidenceInterval {
    /// Returns `true` when the interval contains `x`.
    pub fn contains(&self, x: f64) -> bool {
        x >= self.lower && x <= self.upper
    }

    /// Interval width.
    pub fn width(&self) -> f64 {
        self.upper - self.lower
    }
}

/// Percentile-bootstrap CI of an arbitrary statistic.
///
/// Deterministic for a fixed `seed`. Returns `None` for an empty sample or
/// a `level` outside `(0, 1)`.
///
/// # Examples
///
/// ```
/// use failstats::bootstrap_ci;
///
/// let data: Vec<f64> = (1..=100).map(|i| i as f64).collect();
/// let ci = bootstrap_ci(&data, |d| d.iter().sum::<f64>() / d.len() as f64,
///                       500, 0.95, 42).unwrap();
/// assert!(ci.contains(50.5));
/// assert!(ci.width() < 15.0);
/// ```
pub fn bootstrap_ci<F>(
    data: &[f64],
    stat: F,
    resamples: usize,
    level: f64,
    seed: u64,
) -> Option<ConfidenceInterval>
where
    F: Fn(&[f64]) -> f64,
{
    if data.is_empty() || !(level > 0.0 && level < 1.0) || resamples == 0 {
        return None;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut buf = vec![0.0; data.len()];
    let mut stats: Vec<f64> = (0..resamples)
        .map(|_| {
            for slot in buf.iter_mut() {
                *slot = data[rng.gen_range(0..data.len())];
            }
            stat(&buf)
        })
        .collect();
    stats.sort_by(|a, b| a.partial_cmp(b).expect("bootstrap statistics must be comparable"));
    let alpha = (1.0 - level) / 2.0;
    Some(ConfidenceInterval {
        estimate: stat(data),
        lower: crate::desc::quantile_sorted(&stats, alpha)?,
        upper: crate::desc::quantile_sorted(&stats, 1.0 - alpha)?,
        level,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_stat(d: &[f64]) -> f64 {
        d.iter().sum::<f64>() / d.len() as f64
    }

    #[test]
    fn ci_covers_true_mean() {
        let data: Vec<f64> = (0..500).map(|i| (i % 10) as f64).collect();
        let ci = bootstrap_ci(&data, mean_stat, 1000, 0.95, 7).unwrap();
        assert!(ci.contains(4.5), "{ci:?}");
        assert!((ci.estimate - 4.5).abs() < 1e-9);
        assert!(ci.lower <= ci.upper);
        assert_eq!(ci.level, 0.95);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let data: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let a = bootstrap_ci(&data, mean_stat, 200, 0.9, 1).unwrap();
        let b = bootstrap_ci(&data, mean_stat, 200, 0.9, 1).unwrap();
        assert_eq!(a, b);
        let c = bootstrap_ci(&data, mean_stat, 200, 0.9, 2).unwrap();
        assert_ne!(a.lower, c.lower);
    }

    #[test]
    fn degenerate_inputs_are_none() {
        assert!(bootstrap_ci(&[], mean_stat, 100, 0.95, 1).is_none());
        assert!(bootstrap_ci(&[1.0], mean_stat, 0, 0.95, 1).is_none());
        assert!(bootstrap_ci(&[1.0], mean_stat, 100, 0.0, 1).is_none());
        assert!(bootstrap_ci(&[1.0], mean_stat, 100, 1.0, 1).is_none());
    }

    #[test]
    fn wider_level_gives_wider_interval() {
        let data: Vec<f64> = (0..200).map(|i| (i as f64).sin() * 10.0 + 50.0).collect();
        let narrow = bootstrap_ci(&data, mean_stat, 800, 0.5, 3).unwrap();
        let wide = bootstrap_ci(&data, mean_stat, 800, 0.99, 3).unwrap();
        assert!(wide.width() > narrow.width());
    }

    #[test]
    fn median_statistic_works() {
        let data: Vec<f64> = (0..301).map(|i| i as f64).collect();
        let ci = bootstrap_ci(
            &data,
            |d| crate::desc::median(d).unwrap(),
            500,
            0.95,
            11,
        )
        .unwrap();
        assert!(ci.contains(150.0));
    }
}
