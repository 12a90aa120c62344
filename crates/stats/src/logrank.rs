//! The log-rank (Mantel–Cox) test for comparing two survival curves.
//!
//! Companion to [`crate::KaplanMeier`]: given two groups of possibly
//! censored lifetimes (e.g. Tsubame-2 vs Tsubame-3 node
//! time-to-first-failure), tests whether their survival distributions
//! differ.


use crate::special::gamma_q;
use crate::survival::Lifetime;

/// The result of a two-group log-rank test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogRankTest {
    /// The chi-square statistic (1 degree of freedom).
    pub statistic: f64,
    /// Upper-tail p-value.
    pub p_value: f64,
    /// Observed events in group 1.
    pub observed_1: f64,
    /// Expected events in group 1 under the null of equal hazards.
    pub expected_1: f64,
}

impl LogRankTest {
    /// Returns `true` when the survival distributions differ at
    /// significance `alpha`.
    pub fn rejects_at(&self, alpha: f64) -> bool {
        self.p_value < alpha
    }

    /// Returns `true` when group 1 fails *faster* than the null expects
    /// (more observed than expected events).
    pub fn group1_fails_faster(&self) -> bool {
        self.observed_1 > self.expected_1
    }
}

/// Two-group log-rank test.
///
/// Returns `None` when either group is empty, any duration is invalid,
/// or no events occur at all (nothing to compare).
///
/// # Examples
///
/// ```
/// use failstats::{log_rank, Lifetime};
///
/// let fast: Vec<Lifetime> = (1..40).map(|i| Lifetime::observed(i as f64)).collect();
/// let slow: Vec<Lifetime> = (1..40).map(|i| Lifetime::observed(i as f64 * 10.0)).collect();
/// let test = log_rank(&fast, &slow).unwrap();
/// assert!(test.rejects_at(0.01));
/// assert!(test.group1_fails_faster());
/// ```
pub fn log_rank(group1: &[Lifetime], group2: &[Lifetime]) -> Option<LogRankTest> {
    if group1.is_empty() || group2.is_empty() {
        return None;
    }
    let valid = |l: &Lifetime| l.duration >= 0.0 && l.duration.is_finite();
    if !group1.iter().all(valid) || !group2.iter().all(valid) {
        return None;
    }
    // Merge all observations, tagging the group.
    let mut all: Vec<(f64, bool, usize)> = group1
        .iter()
        .map(|l| (l.duration, l.observed, 0usize))
        .chain(group2.iter().map(|l| (l.duration, l.observed, 1usize)))
        .collect();
    all.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("validated finite"));

    let mut at_risk = [group1.len() as f64, group2.len() as f64];
    let mut observed_1 = 0.0;
    let mut expected_1 = 0.0;
    let mut variance = 0.0;

    let n = all.len();
    let mut i = 0;
    while i < n {
        let t = all[i].0;
        // Gather all observations at time t.
        let mut events = [0.0, 0.0];
        let mut removals = [0.0, 0.0];
        let mut j = i;
        while j < n && all[j].0 == t {
            let (_, observed, group) = all[j];
            if observed {
                events[group] += 1.0;
            }
            removals[group] += 1.0;
            j += 1;
        }
        let d = events[0] + events[1];
        let r = at_risk[0] + at_risk[1];
        if d > 0.0 && r > 1.0 {
            let e1 = d * at_risk[0] / r;
            expected_1 += e1;
            observed_1 += events[0];
            // Hypergeometric variance with tie correction.
            variance += d * (at_risk[0] / r) * (at_risk[1] / r) * (r - d) / (r - 1.0);
        }
        at_risk[0] -= removals[0];
        at_risk[1] -= removals[1];
        i = j;
    }

    if variance <= 0.0 {
        return None;
    }
    let statistic = (observed_1 - expected_1).powi(2) / variance;
    Some(LogRankTest {
        statistic,
        // Chi-square(1) upper tail.
        p_value: gamma_q(0.5, statistic / 2.0),
        observed_1,
        expected_1,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{ContinuousDist, Exponential};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn exp_sample(mean: f64, n: usize, seed: u64) -> Vec<Lifetime> {
        let d = Exponential::with_mean(mean).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| Lifetime::observed(d.sample(&mut rng))).collect()
    }

    #[test]
    fn identical_distributions_are_not_rejected() {
        let a = exp_sample(10.0, 300, 1);
        let b = exp_sample(10.0, 300, 2);
        let t = log_rank(&a, &b).unwrap();
        assert!(!t.rejects_at(0.01), "p = {}", t.p_value);
    }

    #[test]
    fn different_hazards_are_rejected() {
        let a = exp_sample(5.0, 300, 3);
        let b = exp_sample(20.0, 300, 4);
        let t = log_rank(&a, &b).unwrap();
        assert!(t.rejects_at(0.001), "p = {}", t.p_value);
        assert!(t.group1_fails_faster());
    }

    #[test]
    fn censoring_is_respected() {
        // Group 2 has the same event times but heavy censoring beyond
        // t = 5: the test must still run and not blow up.
        let a = exp_sample(10.0, 200, 5);
        let b: Vec<Lifetime> = exp_sample(10.0, 200, 6)
            .into_iter()
            .map(|l| {
                if l.duration > 5.0 {
                    Lifetime::censored(5.0)
                } else {
                    l
                }
            })
            .collect();
        let t = log_rank(&a, &b).unwrap();
        assert!(t.p_value > 0.0 && t.p_value <= 1.0);
    }

    #[test]
    fn degenerate_inputs_are_none() {
        let a = exp_sample(10.0, 10, 7);
        assert!(log_rank(&a, &[]).is_none());
        assert!(log_rank(&[], &a).is_none());
        assert!(log_rank(&a, &[Lifetime::observed(f64::NAN)]).is_none());
        // All censored: no events to compare.
        let c1 = vec![Lifetime::censored(5.0); 10];
        let c2 = vec![Lifetime::censored(7.0); 10];
        assert!(log_rank(&c1, &c2).is_none());
    }

    #[test]
    fn statistic_is_symmetric_in_groups() {
        let a = exp_sample(5.0, 100, 8);
        let b = exp_sample(15.0, 100, 9);
        let t1 = log_rank(&a, &b).unwrap();
        let t2 = log_rank(&b, &a).unwrap();
        assert!((t1.statistic - t2.statistic).abs() < 1e-9);
        assert!(t1.group1_fails_faster());
        assert!(!t2.group1_fails_faster());
    }
}
