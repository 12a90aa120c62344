//! Failure-rate trends over the system's life.
//!
//! Field studies routinely ask whether a system's failure rate is
//! improving (maturation, proactive replacements) or degrading (wear-out)
//! over the observation period. This module provides rolling failure
//! rates and the Laplace trend test for homogeneous-Poisson arrivals.

use failtypes::FailureLog;

use failstats::special::std_normal_cdf;

/// One bin of the rolling failure rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateBin {
    /// Bin start, hours from window start.
    pub start_hours: f64,
    /// Bin width in hours (the last bin may be shorter).
    pub width_hours: f64,
    /// Failures in the bin.
    pub failures: usize,
    /// Failures per hour.
    pub rate_per_hour: f64,
}

/// Rolling failure rate over fixed-width bins.
///
/// Returns an empty vector for an empty log; the last bin is truncated at
/// the window end.
///
/// # Panics
///
/// Panics if `bin_hours` is not positive.
pub fn rolling_rate(log: &FailureLog, bin_hours: f64) -> Vec<RateBin> {
    assert!(bin_hours > 0.0, "bin width must be positive");
    let horizon = log.window().duration().get();
    let bins = (horizon / bin_hours).ceil() as usize;
    let mut counts = vec![0usize; bins];
    for rec in log.iter() {
        let idx = ((rec.time().get() / bin_hours) as usize).min(bins.saturating_sub(1));
        counts[idx] += 1;
    }
    counts
        .into_iter()
        .enumerate()
        .map(|(i, failures)| {
            let start = i as f64 * bin_hours;
            let width = (horizon - start).min(bin_hours);
            RateBin {
                start_hours: start,
                width_hours: width,
                failures,
                rate_per_hour: failures as f64 / width,
            }
        })
        .collect()
}

/// The result of the Laplace trend test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaplaceTrend {
    /// The Laplace statistic `U` (standard normal under no trend).
    pub u: f64,
    /// Two-sided p-value against "no trend".
    pub p_value: f64,
}

impl LaplaceTrend {
    /// `true` when the failure rate is significantly *increasing*
    /// (failures concentrate late in the window) at significance `alpha`.
    pub fn increasing_at(&self, alpha: f64) -> bool {
        self.u > 0.0 && self.p_value < alpha
    }

    /// `true` when the failure rate is significantly *decreasing*
    /// (reliability growth) at significance `alpha`.
    pub fn decreasing_at(&self, alpha: f64) -> bool {
        self.u < 0.0 && self.p_value < alpha
    }
}

/// Laplace centroid test for a trend in the failure arrival process:
/// `U = (mean(tᵢ) − T/2) / (T / sqrt(12 n))`, standard normal when the
/// process is homogeneous Poisson.
///
/// Returns `None` for logs with fewer than two failures.
pub fn laplace_trend(log: &FailureLog) -> Option<LaplaceTrend> {
    let n = log.len();
    if n < 2 {
        return None;
    }
    let horizon = log.window().duration().get();
    let mean_t: f64 = log.times().map(|h| h.get()).sum::<f64>() / n as f64;
    let u = (mean_t - horizon / 2.0) / (horizon / (12.0 * n as f64).sqrt());
    let p = 2.0 * (1.0 - std_normal_cdf(u.abs()));
    Some(LaplaceTrend {
        u,
        p_value: p.clamp(0.0, 1.0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use failsim::{Simulator, SystemModel};
    use failtypes::{
        Category, Date, FailureLog, FailureRecord, Generation, Hours, NodeId, ObservationWindow,
        T3Category,
    };

    fn log_with_times(times: &[f64]) -> FailureLog {
        let window = ObservationWindow::new(
            Date::new(2020, 1, 1).unwrap(),
            Date::new(2021, 1, 1).unwrap(),
        )
        .unwrap();
        let recs = times
            .iter()
            .enumerate()
            .map(|(i, &t)| {
                FailureRecord::new(
                    i as u32,
                    Hours::new(t),
                    Hours::new(1.0),
                    Category::T3(T3Category::Gpu),
                    NodeId::new(0),
                )
            })
            .collect();
        FailureLog::new(Generation::Tsubame3, window, recs).unwrap()
    }

    #[test]
    fn rolling_rate_bins_and_counts() {
        let log = log_with_times(&[10.0, 20.0, 800.0]);
        let bins = rolling_rate(&log, 730.0);
        assert_eq!(bins.len(), 13); // 8784 h / 730 h
        assert_eq!(bins[0].failures, 2);
        assert_eq!(bins[1].failures, 1);
        assert!((bins[0].rate_per_hour - 2.0 / 730.0).abs() < 1e-12);
        let total: usize = bins.iter().map(|b| b.failures).sum();
        assert_eq!(total, 3);
        // Last bin is truncated: 8784 - 12*730 = 24 h.
        assert!((bins[12].width_hours - 24.0).abs() < 1e-9);
    }

    #[test]
    fn laplace_detects_late_concentration() {
        // All failures in the last 10% of the year.
        let times: Vec<f64> = (0..50).map(|i| 8000.0 + i as f64 * 10.0).collect();
        let t = laplace_trend(&log_with_times(&times)).unwrap();
        assert!(t.increasing_at(0.001), "U = {}", t.u);
        assert!(!t.decreasing_at(0.05));
    }

    #[test]
    fn laplace_detects_early_concentration() {
        let times: Vec<f64> = (0..50).map(|i| 10.0 + i as f64 * 10.0).collect();
        let t = laplace_trend(&log_with_times(&times)).unwrap();
        assert!(t.decreasing_at(0.001), "U = {}", t.u);
    }

    #[test]
    fn laplace_accepts_homogeneous_arrivals() {
        // The calibrated models are (mildly modulated) stationary
        // processes: no strong trend.
        let log = Simulator::new(SystemModel::tsubame2(), 42).generate().unwrap();
        let t = laplace_trend(&log).unwrap();
        assert!(t.u.abs() < 3.0, "U = {}", t.u);
    }

    #[test]
    fn degenerate_logs() {
        let log = log_with_times(&[5.0]);
        assert!(laplace_trend(&log).is_none());
        let empty = log.filtered(|_| false);
        assert!(laplace_trend(&empty).is_none());
        let bins = rolling_rate(&empty, 100.0);
        assert!(bins.iter().all(|b| b.failures == 0));
    }

    #[test]
    #[should_panic(expected = "bin width")]
    fn rolling_rate_rejects_zero_bin() {
        let log = log_with_times(&[5.0]);
        let _ = rolling_rate(&log, 0.0);
    }
}
