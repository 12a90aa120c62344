//! Maximum-likelihood fitting of the continuous distributions and
//! AIC-based model selection.
//!
//! The ablation study `ablate_tbf_dist` uses these fitters to ask which
//! family best explains the generated inter-arrival data, mirroring how a
//! field study would characterize its measured TBF/TTR samples.

use std::fmt;

use crate::dist::{ContinuousDist, Exponential, Gamma, LogNormal, Weibull};
use crate::special::digamma;

/// Error returned when a fit cannot be computed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FitError {
    /// The sample has too few observations for the requested family.
    TooFewObservations {
        /// Observations provided.
        got: usize,
        /// Observations required.
        need: usize,
    },
    /// The sample contains values outside the support (non-positive or
    /// non-finite).
    InvalidObservation,
    /// The iterative solver failed to converge.
    NoConvergence,
}

impl fmt::Display for FitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FitError::TooFewObservations { got, need } => {
                write!(f, "need at least {need} observations, got {got}")
            }
            FitError::InvalidObservation => {
                write!(f, "sample contains non-positive or non-finite values")
            }
            FitError::NoConvergence => write!(f, "maximum-likelihood solver did not converge"),
        }
    }
}

impl std::error::Error for FitError {}

fn check_sample(data: &[f64], need: usize) -> Result<(), FitError> {
    if data.len() < need {
        return Err(FitError::TooFewObservations {
            got: data.len(),
            need,
        });
    }
    if data.iter().any(|&x| x <= 0.0 || !x.is_finite()) {
        return Err(FitError::InvalidObservation);
    }
    Ok(())
}

/// Log-likelihood of a sample under a distribution.
pub fn log_likelihood(dist: &dyn ContinuousDist, data: &[f64]) -> f64 {
    data.iter().map(|&x| dist.ln_pdf(x)).sum()
}

/// Akaike information criterion `2k - 2 ln L`.
pub fn aic(log_lik: f64, params: usize) -> f64 {
    2.0 * params as f64 - 2.0 * log_lik
}

/// Fits an exponential by MLE (`rate = 1 / mean`).
///
/// # Errors
///
/// Fails on empty samples or non-positive observations.
pub fn fit_exponential(data: &[f64]) -> Result<Exponential, FitError> {
    check_sample(data, 1)?;
    let mean = data.iter().sum::<f64>() / data.len() as f64;
    Exponential::with_mean(mean).ok_or(FitError::NoConvergence)
}

/// Fits a log-normal by MLE (moments of `ln x`).
///
/// # Errors
///
/// Fails with fewer than two observations or non-positive values; also
/// fails when the sample is degenerate (all values equal), since `σ = 0`
/// is outside the family.
pub fn fit_lognormal(data: &[f64]) -> Result<LogNormal, FitError> {
    check_sample(data, 2)?;
    let logs: Vec<f64> = data.iter().map(|&x| x.ln()).collect();
    let mu = logs.iter().sum::<f64>() / logs.len() as f64;
    // MLE uses the n denominator.
    let sigma2 = logs.iter().map(|l| (l - mu).powi(2)).sum::<f64>() / logs.len() as f64;
    LogNormal::new(mu, sigma2.sqrt()).ok_or(FitError::NoConvergence)
}

/// Fits a Weibull by MLE.
///
/// Solves the profile-likelihood shape equation
/// `1/k = Σ xᵢᵏ ln xᵢ / Σ xᵢᵏ - mean(ln x)` by Newton iteration with
/// bisection fallback.
///
/// # Errors
///
/// Fails with fewer than two observations, non-positive values, degenerate
/// samples, or non-convergence.
pub fn fit_weibull(data: &[f64]) -> Result<Weibull, FitError> {
    check_sample(data, 2)?;
    let n = data.len() as f64;
    let mean_ln = data.iter().map(|&x| x.ln()).sum::<f64>() / n;
    if data.iter().all(|&x| (x - data[0]).abs() < 1e-12) {
        return Err(FitError::NoConvergence);
    }

    // g(k) = Σ x^k ln x / Σ x^k - 1/k - mean_ln; root is the MLE shape.
    let g = |k: f64| -> f64 {
        let mut sx = 0.0;
        let mut sxl = 0.0;
        for &x in data {
            let xk = x.powf(k);
            sx += xk;
            sxl += xk * x.ln();
        }
        sxl / sx - 1.0 / k - mean_ln
    };

    // Bracket the root. g is increasing in k; g(k→0⁺) → -∞.
    let mut lo = 1e-3;
    let mut hi = 1.0;
    let mut iter = 0;
    while g(hi) < 0.0 {
        lo = hi;
        hi *= 2.0;
        iter += 1;
        if iter > 60 {
            return Err(FitError::NoConvergence);
        }
    }
    while g(lo) > 0.0 {
        hi = lo;
        lo /= 2.0;
        iter += 1;
        if iter > 120 {
            return Err(FitError::NoConvergence);
        }
    }
    // Bisection: robust and plenty fast for the sample sizes involved.
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if g(mid) < 0.0 {
            lo = mid;
        } else {
            hi = mid;
        }
        if hi - lo < 1e-10 * hi {
            break;
        }
    }
    let shape = 0.5 * (lo + hi);
    let scale = (data.iter().map(|&x| x.powf(shape)).sum::<f64>() / n).powf(1.0 / shape);
    Weibull::new(shape, scale).ok_or(FitError::NoConvergence)
}

/// Fits a gamma by MLE.
///
/// Uses the Minka/Choi–Wette Newton iteration on the shape equation
/// `ln k - ψ(k) = ln(mean) - mean(ln x)`.
///
/// # Errors
///
/// Fails with fewer than two observations, non-positive values, or
/// degenerate samples.
pub fn fit_gamma(data: &[f64]) -> Result<Gamma, FitError> {
    check_sample(data, 2)?;
    let n = data.len() as f64;
    let mean = data.iter().sum::<f64>() / n;
    let mean_ln = data.iter().map(|&x| x.ln()).sum::<f64>() / n;
    let s = mean.ln() - mean_ln;
    if s <= 0.0 {
        // Happens only for degenerate (constant) samples.
        return Err(FitError::NoConvergence);
    }
    // Initial guess (Minka 2002).
    let mut k = (3.0 - s + ((s - 3.0).powi(2) + 24.0 * s).sqrt()) / (12.0 * s);
    for _ in 0..100 {
        let f = k.ln() - digamma(k) - s;
        let fp = 1.0 / k - crate::special::trigamma(k);
        let next = k - f / fp;
        let next = if next <= 0.0 { k / 2.0 } else { next };
        if (next - k).abs() < 1e-12 * k {
            k = next;
            break;
        }
        k = next;
    }
    Gamma::new(k, mean / k).ok_or(FitError::NoConvergence)
}

/// A distribution family for model selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// Exponential (1 parameter).
    Exponential,
    /// Weibull (2 parameters).
    Weibull,
    /// Log-normal (2 parameters).
    LogNormal,
    /// Gamma (2 parameters).
    Gamma,
}

impl Family {
    /// All supported families.
    pub const ALL: [Family; 4] = [
        Family::Exponential,
        Family::Weibull,
        Family::LogNormal,
        Family::Gamma,
    ];

    /// Number of free parameters.
    pub const fn params(self) -> usize {
        match self {
            Family::Exponential => 1,
            _ => 2,
        }
    }

    /// Display name.
    pub const fn name(self) -> &'static str {
        match self {
            Family::Exponential => "exponential",
            Family::Weibull => "Weibull",
            Family::LogNormal => "log-normal",
            Family::Gamma => "gamma",
        }
    }
}

impl fmt::Display for Family {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The outcome of fitting one family to a sample.
pub struct FittedModel {
    /// The family that was fitted.
    pub family: Family,
    /// The fitted distribution.
    pub dist: Box<dyn ContinuousDist + Send + Sync>,
    /// Log-likelihood at the MLE.
    pub log_lik: f64,
    /// Akaike information criterion (lower is better).
    pub aic: f64,
}

impl fmt::Debug for FittedModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FittedModel")
            .field("family", &self.family)
            .field("mean", &self.dist.mean())
            .field("log_lik", &self.log_lik)
            .field("aic", &self.aic)
            .finish()
    }
}

/// Fits a single family to the sample.
///
/// # Errors
///
/// Propagates the underlying fitter's error.
pub fn fit_family(family: Family, data: &[f64]) -> Result<FittedModel, FitError> {
    let dist: Box<dyn ContinuousDist + Send + Sync> = match family {
        Family::Exponential => Box::new(fit_exponential(data)?),
        Family::Weibull => Box::new(fit_weibull(data)?),
        Family::LogNormal => Box::new(fit_lognormal(data)?),
        Family::Gamma => Box::new(fit_gamma(data)?),
    };
    let log_lik = log_likelihood(dist.as_ref(), data);
    Ok(FittedModel {
        family,
        aic: aic(log_lik, family.params()),
        dist,
        log_lik,
    })
}

/// Fits every family that converges and returns them sorted by ascending
/// AIC (best first). Families that fail to fit are skipped.
///
/// ```
/// use failstats::fit::select_best_family;
/// use failstats::{ContinuousDist, Exponential};
/// use rand::SeedableRng;
///
/// let d = Exponential::with_mean(10.0).unwrap();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let data: Vec<f64> = (0..2000).map(|_| d.sample(&mut rng)).collect();
/// let ranked = select_best_family(&data);
/// assert!(!ranked.is_empty());
/// // Exponential data: the 1-parameter family should be competitive.
/// assert!(ranked[0].aic <= ranked.last().unwrap().aic);
/// ```
pub fn select_best_family(data: &[f64]) -> Vec<FittedModel> {
    let mut fits: Vec<FittedModel> = Family::ALL
        .iter()
        .filter_map(|&f| fit_family(f, data).ok())
        .collect();
    fits.sort_by(|a, b| a.aic.partial_cmp(&b.aic).expect("AIC is finite"));
    fits
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn draw(d: &dyn ContinuousDist, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| d.sample(&mut rng)).collect()
    }

    #[test]
    fn exponential_mle_recovers_rate() {
        let truth = Exponential::with_mean(15.0).unwrap();
        let data = draw(&truth, 20_000, 1);
        let fit = fit_exponential(&data).unwrap();
        assert!((fit.mean() - 15.0).abs() < 0.4, "mean {}", fit.mean());
    }

    #[test]
    fn lognormal_mle_recovers_params() {
        let truth = LogNormal::new(3.2, 1.1).unwrap();
        let data = draw(&truth, 20_000, 2);
        let fit = fit_lognormal(&data).unwrap();
        assert!((fit.mu() - 3.2).abs() < 0.05, "mu {}", fit.mu());
        assert!((fit.sigma() - 1.1).abs() < 0.05, "sigma {}", fit.sigma());
    }

    #[test]
    fn weibull_mle_recovers_params() {
        for &(shape, scale) in &[(0.7, 20.0), (1.0, 15.0), (2.3, 80.0)] {
            let truth = Weibull::new(shape, scale).unwrap();
            let data = draw(&truth, 20_000, 3);
            let fit = fit_weibull(&data).unwrap();
            assert!(
                (fit.shape() - shape).abs() < 0.06 * shape.max(1.0),
                "shape {} want {shape}",
                fit.shape()
            );
            assert!(
                (fit.scale() - scale).abs() < 0.05 * scale,
                "scale {} want {scale}",
                fit.scale()
            );
        }
    }

    #[test]
    fn gamma_mle_recovers_params() {
        for &(shape, scale) in &[(0.8, 10.0), (2.0, 36.0), (5.0, 3.0)] {
            let truth = Gamma::new(shape, scale).unwrap();
            let data = draw(&truth, 30_000, 4);
            let fit = fit_gamma(&data).unwrap();
            assert!(
                (fit.shape() - shape).abs() < 0.08 * shape.max(1.0),
                "shape {} want {shape}",
                fit.shape()
            );
            assert!(
                (fit.mean() - shape * scale).abs() < 0.05 * shape * scale,
                "mean {} want {}",
                fit.mean(),
                shape * scale
            );
        }
    }

    #[test]
    fn fitters_reject_bad_samples() {
        assert!(matches!(
            fit_exponential(&[]),
            Err(FitError::TooFewObservations { .. })
        ));
        assert!(matches!(
            fit_lognormal(&[1.0]),
            Err(FitError::TooFewObservations { .. })
        ));
        assert_eq!(
            fit_weibull(&[1.0, -2.0]).unwrap_err(),
            FitError::InvalidObservation
        );
        assert_eq!(
            fit_gamma(&[1.0, 0.0]).unwrap_err(),
            FitError::InvalidObservation
        );
        assert_eq!(
            fit_gamma(&[1.0, f64::NAN]).unwrap_err(),
            FitError::InvalidObservation
        );
        // Degenerate (constant) samples have no 2-parameter MLE.
        assert_eq!(
            fit_gamma(&[5.0, 5.0, 5.0]).unwrap_err(),
            FitError::NoConvergence
        );
        assert_eq!(
            fit_weibull(&[5.0, 5.0, 5.0]).unwrap_err(),
            FitError::NoConvergence
        );
        assert_eq!(
            fit_lognormal(&[5.0, 5.0, 5.0]).unwrap_err(),
            FitError::NoConvergence
        );
    }

    #[test]
    fn model_selection_prefers_true_family() {
        // Strongly non-exponential gamma data.
        let truth = Gamma::new(4.0, 5.0).unwrap();
        let data = draw(&truth, 5_000, 5);
        let ranked = select_best_family(&data);
        assert!(ranked.len() >= 3);
        // The best family should be gamma or its close cousin Weibull —
        // and definitely not exponential.
        assert_ne!(ranked[0].family, Family::Exponential);
        // AICs ascend.
        for w in ranked.windows(2) {
            assert!(w[0].aic <= w[1].aic);
        }
    }

    #[test]
    fn exponential_data_keeps_exponential_competitive() {
        let truth = Exponential::with_mean(20.0).unwrap();
        let data = draw(&truth, 5_000, 6);
        let ranked = select_best_family(&data);
        let best_aic = ranked[0].aic;
        let exp_fit = ranked.iter().find(|m| m.family == Family::Exponential).unwrap();
        // On exponential data the exponential AIC is within a few units of
        // the best 2-parameter family.
        assert!(exp_fit.aic - best_aic < 6.0);
    }

    #[test]
    fn aic_formula() {
        assert_eq!(aic(-100.0, 2), 204.0);
        assert_eq!(Family::Exponential.params(), 1);
        assert_eq!(Family::Gamma.params(), 2);
        assert_eq!(Family::Weibull.to_string(), "Weibull");
    }

    #[test]
    fn fit_error_display() {
        assert!(FitError::TooFewObservations { got: 1, need: 2 }
            .to_string()
            .contains("at least 2"));
        assert!(FitError::InvalidObservation.to_string().contains("non-positive"));
        assert!(FitError::NoConvergence.to_string().contains("converge"));
    }
}
