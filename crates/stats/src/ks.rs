//! Kolmogorov–Smirnov goodness-of-fit tests.


use crate::dist::ContinuousDist;
use crate::ecdf::Ecdf;
use crate::special::kolmogorov_q;

/// The result of a KS test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KsTest {
    /// The KS statistic `D = sup |F_n(x) - F(x)|`.
    pub statistic: f64,
    /// Asymptotic p-value (Kolmogorov distribution with the Stephens
    /// small-sample correction).
    pub p_value: f64,
    /// Effective sample size used for the p-value.
    pub n_effective: f64,
}

impl KsTest {
    /// Returns `true` when the fit is rejected at the given significance
    /// level (e.g. `0.05`).
    pub fn rejects_at(&self, alpha: f64) -> bool {
        self.p_value < alpha
    }
}

/// One-sample KS test of a sample against a hypothesized continuous
/// distribution.
///
/// Returns `None` for an empty sample.
///
/// # Examples
///
/// ```
/// use failstats::{ks_test_dist, ContinuousDist, Exponential};
/// use rand::SeedableRng;
///
/// let d = Exponential::with_mean(10.0).unwrap();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let data: Vec<f64> = (0..500).map(|_| d.sample(&mut rng)).collect();
/// let test = ks_test_dist(&data, &d).unwrap();
/// assert!(!test.rejects_at(0.01)); // correct model: not rejected
/// ```
pub fn ks_test_dist(data: &[f64], dist: &dyn ContinuousDist) -> Option<KsTest> {
    if data.is_empty() {
        return None;
    }
    let mut sorted = data.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("KS data must not contain NaN"));
    let n = sorted.len() as f64;
    let mut d: f64 = 0.0;
    for (i, &x) in sorted.iter().enumerate() {
        let f = dist.cdf(x);
        let lo = i as f64 / n;
        let hi = (i + 1) as f64 / n;
        d = d.max((f - lo).abs()).max((hi - f).abs());
    }
    let lambda = (n.sqrt() + 0.12 + 0.11 / n.sqrt()) * d;
    Some(KsTest {
        statistic: d,
        p_value: kolmogorov_q(lambda),
        n_effective: n,
    })
}

/// Two-sample KS test.
///
/// Returns `None` when either sample is empty.
pub fn ks_test_two_sample(a: &[f64], b: &[f64]) -> Option<KsTest> {
    let ea = Ecdf::new(a.to_vec())?;
    let eb = Ecdf::new(b.to_vec())?;
    let d = ea.ks_distance(&eb);
    let na = a.len() as f64;
    let nb = b.len() as f64;
    let ne = na * nb / (na + nb);
    let lambda = (ne.sqrt() + 0.12 + 0.11 / ne.sqrt()) * d;
    Some(KsTest {
        statistic: d,
        p_value: kolmogorov_q(lambda),
        n_effective: ne,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{Exponential, LogNormal};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn draw(d: &dyn ContinuousDist, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| d.sample(&mut rng)).collect()
    }

    #[test]
    fn correct_model_is_not_rejected() {
        let d = Exponential::with_mean(15.0).unwrap();
        let data = draw(&d, 1000, 11);
        let t = ks_test_dist(&data, &d).unwrap();
        assert!(t.statistic < 0.05, "D = {}", t.statistic);
        assert!(t.p_value > 0.05, "p = {}", t.p_value);
    }

    #[test]
    fn wrong_model_is_rejected() {
        let truth = LogNormal::with_mean(15.0, 1.5).unwrap();
        let data = draw(&truth, 1000, 12);
        let wrong = Exponential::with_mean(15.0).unwrap();
        let t = ks_test_dist(&data, &wrong).unwrap();
        assert!(t.rejects_at(0.01), "p = {}", t.p_value);
    }

    #[test]
    fn empty_sample_is_none() {
        let d = Exponential::with_mean(1.0).unwrap();
        assert!(ks_test_dist(&[], &d).is_none());
        assert!(ks_test_two_sample(&[], &[1.0]).is_none());
        assert!(ks_test_two_sample(&[1.0], &[]).is_none());
    }

    #[test]
    fn two_sample_same_distribution() {
        let d = Exponential::with_mean(15.0).unwrap();
        let a = draw(&d, 800, 13);
        let b = draw(&d, 800, 14);
        let t = ks_test_two_sample(&a, &b).unwrap();
        assert!(t.p_value > 0.05, "p = {}", t.p_value);
    }

    #[test]
    fn two_sample_different_distributions() {
        let a = draw(&Exponential::with_mean(15.0).unwrap(), 800, 15);
        let b = draw(&Exponential::with_mean(60.0).unwrap(), 800, 16);
        let t = ks_test_two_sample(&a, &b).unwrap();
        assert!(t.rejects_at(0.001), "p = {}", t.p_value);
        assert!(t.statistic > 0.2);
    }

    #[test]
    fn statistic_is_exact_on_tiny_sample() {
        // Single observation at the median: D = 0.5.
        let d = Exponential::with_mean(1.0).unwrap();
        let x = d.quantile(0.5);
        let t = ks_test_dist(&[x], &d).unwrap();
        assert!((t.statistic - 0.5).abs() < 1e-12);
    }
}
