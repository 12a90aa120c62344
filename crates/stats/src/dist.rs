//! Continuous probability distributions with densities, CDFs, quantiles,
//! moments, and samplers.
//!
//! These are the building blocks for both directions of the workspace: the
//! simulator *samples* from calibrated distributions, and the fitters in
//! [`crate::fit`] recover distribution parameters from observed data.

use rand::Rng;

use crate::special::{gamma_p, gamma_p_inv, ln_gamma, std_normal_cdf, std_normal_quantile};

/// A continuous distribution on (a subset of) the real line.
///
/// The trait is object-safe so heterogeneous distribution lists (e.g. the
/// per-category TTR models) can be stored as `Box<dyn ContinuousDist>`.
pub trait ContinuousDist {
    /// Probability density at `x`.
    fn pdf(&self, x: f64) -> f64;

    /// Cumulative distribution function at `x`.
    fn cdf(&self, x: f64) -> f64;

    /// Quantile function (inverse CDF) for `p` in `(0, 1)`.
    fn quantile(&self, p: f64) -> f64;

    /// Distribution mean.
    fn mean(&self) -> f64;

    /// Distribution variance.
    fn variance(&self) -> f64;

    /// Draws one sample.
    fn sample(&self, rng: &mut dyn rand::RngCore) -> f64;

    /// Natural log of the density, used by likelihood computations.
    ///
    /// The default takes `ln(pdf)`; implementations override it where a
    /// numerically stabler form exists.
    fn ln_pdf(&self, x: f64) -> f64 {
        self.pdf(x).ln()
    }
}

fn uniform_open01(rng: &mut dyn rand::RngCore) -> f64 {
    // Map to the open interval (0,1) so ln() and quantile() stay finite.
    loop {
        let u: f64 = rng.gen();
        if u > 0.0 && u < 1.0 {
            return u;
        }
    }
}

/// Exponential distribution with rate `λ` (mean `1/λ`).
///
/// The memoryless baseline for inter-failure times; Tsubame-2's system-wide
/// TBF is close to exponential (mean ≈ 15 h, p75 ≈ 20 h ≈ mean·ln 4).
///
/// # Examples
///
/// ```
/// use failstats::{ContinuousDist, Exponential};
///
/// let d = Exponential::with_mean(15.0).unwrap();
/// assert!((d.mean() - 15.0).abs() < 1e-12);
/// assert!((d.quantile(0.75) - 15.0 * 4.0f64.ln()).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Creates an exponential with rate `λ > 0`; `None` otherwise.
    pub fn new(rate: f64) -> Option<Self> {
        (rate > 0.0 && rate.is_finite()).then_some(Exponential { rate })
    }

    /// Creates an exponential with the given mean.
    pub fn with_mean(mean: f64) -> Option<Self> {
        Self::new(1.0 / mean)
    }

    /// Returns the rate `λ`.
    pub const fn rate(&self) -> f64 {
        self.rate
    }
}

impl ContinuousDist for Exponential {
    fn pdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            0.0
        } else {
            self.rate * (-self.rate * x).exp()
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            0.0
        } else {
            1.0 - (-self.rate * x).exp()
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..1.0).contains(&p), "quantile requires p in [0,1)");
        -(1.0 - p).ln() / self.rate
    }

    fn mean(&self) -> f64 {
        1.0 / self.rate
    }

    fn variance(&self) -> f64 {
        1.0 / (self.rate * self.rate)
    }

    fn sample(&self, rng: &mut dyn rand::RngCore) -> f64 {
        -uniform_open01(rng).ln() / self.rate
    }

    fn ln_pdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            f64::NEG_INFINITY
        } else {
            self.rate.ln() - self.rate * x
        }
    }
}

/// Weibull distribution with shape `k` and scale `λ`.
///
/// Shape below 1 models infant-mortality (decreasing hazard) failure
/// processes; shape above 1 models wear-out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Weibull {
    shape: f64,
    scale: f64,
}

impl Weibull {
    /// Creates a Weibull with `shape > 0` and `scale > 0`; `None`
    /// otherwise.
    pub fn new(shape: f64, scale: f64) -> Option<Self> {
        (shape > 0.0 && scale > 0.0 && shape.is_finite() && scale.is_finite())
            .then_some(Weibull { shape, scale })
    }

    /// Returns the shape `k`.
    pub const fn shape(&self) -> f64 {
        self.shape
    }

    /// Returns the scale `λ`.
    pub const fn scale(&self) -> f64 {
        self.scale
    }
}

impl ContinuousDist for Weibull {
    fn pdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            return 0.0;
        }
        let (k, l) = (self.shape, self.scale);
        let z = x / l;
        (k / l) * z.powf(k - 1.0) * (-z.powf(k)).exp()
    }

    fn cdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            0.0
        } else {
            1.0 - (-(x / self.scale).powf(self.shape)).exp()
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..1.0).contains(&p), "quantile requires p in [0,1)");
        self.scale * (-(1.0 - p).ln()).powf(1.0 / self.shape)
    }

    fn mean(&self) -> f64 {
        self.scale * (ln_gamma(1.0 + 1.0 / self.shape)).exp()
    }

    fn variance(&self) -> f64 {
        let g1 = (ln_gamma(1.0 + 1.0 / self.shape)).exp();
        let g2 = (ln_gamma(1.0 + 2.0 / self.shape)).exp();
        self.scale * self.scale * (g2 - g1 * g1)
    }

    fn sample(&self, rng: &mut dyn rand::RngCore) -> f64 {
        self.scale * (-uniform_open01(rng).ln()).powf(1.0 / self.shape)
    }

    fn ln_pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return f64::NEG_INFINITY;
        }
        let (k, l) = (self.shape, self.scale);
        k.ln() - l.ln() + (k - 1.0) * (x.ln() - l.ln()) - (x / l).powf(k)
    }
}

/// Log-normal distribution: `ln X ~ Normal(μ, σ²)`.
///
/// The workhorse for repair times (Figs. 9-10): long right tails with most
/// mass at moderate values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a log-normal with log-mean `mu` and log-std `sigma > 0`;
    /// `None` otherwise.
    pub fn new(mu: f64, sigma: f64) -> Option<Self> {
        (sigma > 0.0 && mu.is_finite() && sigma.is_finite()).then_some(LogNormal { mu, sigma })
    }

    /// Creates a log-normal with the given arithmetic mean and the given
    /// log-std `sigma`.
    ///
    /// Solves `mean = exp(μ + σ²/2)` for `μ` — the calibration path used by
    /// the simulator, where the paper reports means (e.g. MTTR ≈ 55 h) and
    /// we choose tail weight.
    pub fn with_mean(mean: f64, sigma: f64) -> Option<Self> {
        if mean <= 0.0 || mean.is_nan() {
            return None;
        }
        Self::new(mean.ln() - sigma * sigma / 2.0, sigma)
    }

    /// Returns the log-mean `μ`.
    pub const fn mu(&self) -> f64 {
        self.mu
    }

    /// Returns the log-std `σ`.
    pub const fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Returns the median `exp(μ)`.
    pub fn median(&self) -> f64 {
        self.mu.exp()
    }
}

impl ContinuousDist for LogNormal {
    fn pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        let z = (x.ln() - self.mu) / self.sigma;
        (-0.5 * z * z).exp() / (x * self.sigma * (2.0 * std::f64::consts::PI).sqrt())
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            std_normal_cdf((x.ln() - self.mu) / self.sigma)
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p < 1.0, "quantile requires p in (0,1)");
        (self.mu + self.sigma * std_normal_quantile(p)).exp()
    }

    fn mean(&self) -> f64 {
        (self.mu + self.sigma * self.sigma / 2.0).exp()
    }

    fn variance(&self) -> f64 {
        let s2 = self.sigma * self.sigma;
        (s2.exp() - 1.0) * (2.0 * self.mu + s2).exp()
    }

    fn sample(&self, rng: &mut dyn rand::RngCore) -> f64 {
        (self.mu + self.sigma * sample_std_normal(rng)).exp()
    }

    fn ln_pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return f64::NEG_INFINITY;
        }
        let z = (x.ln() - self.mu) / self.sigma;
        -0.5 * z * z - x.ln() - self.sigma.ln() - 0.5 * (2.0 * std::f64::consts::PI).ln()
    }
}

/// Gamma distribution with shape `k` and scale `θ`.
///
/// Used for Tsubame-3's system-wide TBF, whose reported mean (~72 h) and
/// 75th percentile (93 h) rule out both exponential and log-normal shapes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gamma {
    shape: f64,
    scale: f64,
}

impl Gamma {
    /// Creates a gamma with `shape > 0`, `scale > 0`; `None` otherwise.
    pub fn new(shape: f64, scale: f64) -> Option<Self> {
        (shape > 0.0 && scale > 0.0 && shape.is_finite() && scale.is_finite())
            .then_some(Gamma { shape, scale })
    }

    /// Creates a gamma with the given mean and shape (`scale = mean /
    /// shape`).
    pub fn with_mean(mean: f64, shape: f64) -> Option<Self> {
        Self::new(shape, mean / shape)
    }

    /// Returns the shape `k`.
    pub const fn shape(&self) -> f64 {
        self.shape
    }

    /// Returns the scale `θ`.
    pub const fn scale(&self) -> f64 {
        self.scale
    }
}

impl ContinuousDist for Gamma {
    fn pdf(&self, x: f64) -> f64 {
        self.ln_pdf(x).exp()
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            gamma_p(self.shape, x / self.scale)
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..1.0).contains(&p), "quantile requires p in [0,1)");
        self.scale * gamma_p_inv(self.shape, p)
    }

    fn mean(&self) -> f64 {
        self.shape * self.scale
    }

    fn variance(&self) -> f64 {
        self.shape * self.scale * self.scale
    }

    fn sample(&self, rng: &mut dyn rand::RngCore) -> f64 {
        self.scale * sample_std_gamma(self.shape, rng)
    }

    fn ln_pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return f64::NEG_INFINITY;
        }
        let (k, t) = (self.shape, self.scale);
        (k - 1.0) * x.ln() - x / t - ln_gamma(k) - k * t.ln()
    }
}

/// Draws a standard normal deviate via the Box–Muller transform.
pub fn sample_std_normal(rng: &mut dyn rand::RngCore) -> f64 {
    let u1 = uniform_open01(rng);
    let u2 = uniform_open01(rng);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Draws a standard (scale 1) gamma deviate with shape `k > 0` using the
/// Marsaglia–Tsang squeeze method, with the boost trick for `k < 1`.
pub fn sample_std_gamma(shape: f64, rng: &mut dyn rand::RngCore) -> f64 {
    assert!(shape > 0.0, "gamma shape must be positive, got {shape}");
    if shape < 1.0 {
        // Boost: X_k = X_{k+1} * U^{1/k}.
        let x = sample_std_gamma(shape + 1.0, rng);
        return x * uniform_open01(rng).powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let z = sample_std_normal(rng);
        let v = (1.0 + c * z).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u = uniform_open01(rng);
        // Squeeze first, then the exact log acceptance test from
        // Marsaglia & Tsang (2000).
        if u < 1.0 - 0.0331 * z * z * z * z
            || u.ln() < 0.5 * z * z + d * (1.0 - v + v.ln())
        {
            return d * v;
        }
    }
}

/// Draws a Poisson count with the given mean (Knuth's method below 30,
/// normal approximation above).
pub fn sample_poisson(mean: f64, rng: &mut dyn rand::RngCore) -> u64 {
    assert!(mean >= 0.0, "Poisson mean must be non-negative, got {mean}");
    if mean == 0.0 {
        return 0;
    }
    if mean < 30.0 {
        let l = (-mean).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= uniform_open01(rng);
            if p <= l {
                return k;
            }
            k += 1;
        }
    } else {
        let x = mean + mean.sqrt() * sample_std_normal(rng);
        x.round().max(0.0) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xDECAF)
    }

    fn sample_mean_var(d: &dyn ContinuousDist, n: usize) -> (f64, f64) {
        let mut r = rng();
        let xs: Vec<f64> = (0..n).map(|_| d.sample(&mut r)).collect();
        let m = crate::desc::mean(&xs).unwrap();
        let v = crate::desc::variance(&xs).unwrap();
        (m, v)
    }

    #[test]
    fn constructors_reject_bad_params() {
        assert!(Exponential::new(0.0).is_none());
        assert!(Exponential::new(-1.0).is_none());
        assert!(Exponential::with_mean(0.0).is_none());
        assert!(Weibull::new(0.0, 1.0).is_none());
        assert!(Weibull::new(1.0, -1.0).is_none());
        assert!(LogNormal::new(0.0, 0.0).is_none());
        assert!(LogNormal::with_mean(-5.0, 1.0).is_none());
        assert!(Gamma::new(-1.0, 1.0).is_none());
        assert!(Gamma::new(1.0, f64::NAN).is_none());
    }

    #[test]
    fn exponential_properties() {
        let d = Exponential::with_mean(15.0).unwrap();
        assert!((d.rate() - 1.0 / 15.0).abs() < 1e-12);
        assert!((d.mean() - 15.0).abs() < 1e-12);
        assert!((d.variance() - 225.0).abs() < 1e-9);
        assert_eq!(d.cdf(-1.0), 0.0);
        assert_eq!(d.pdf(-1.0), 0.0);
        assert!((d.cdf(15.0) - (1.0 - (-1.0f64).exp())).abs() < 1e-12);
        // quantile inverts cdf
        for &p in &[0.1, 0.5, 0.9] {
            assert!((d.cdf(d.quantile(p)) - p).abs() < 1e-12);
        }
        // ln_pdf consistent with pdf
        assert!((d.ln_pdf(3.0) - d.pdf(3.0).ln()).abs() < 1e-12);
    }

    #[test]
    fn exponential_sampling_matches_moments() {
        let d = Exponential::with_mean(15.0).unwrap();
        let (m, v) = sample_mean_var(&d, 40_000);
        assert!((m - 15.0).abs() < 0.3, "mean {m}");
        assert!((v - 225.0).abs() < 15.0, "var {v}");
    }

    #[test]
    fn weibull_reduces_to_exponential_at_shape_one() {
        let w = Weibull::new(1.0, 10.0).unwrap();
        let e = Exponential::with_mean(10.0).unwrap();
        for &x in &[0.5, 5.0, 20.0] {
            assert!((w.cdf(x) - e.cdf(x)).abs() < 1e-12);
            assert!((w.pdf(x) - e.pdf(x)).abs() < 1e-12);
        }
        assert!((w.mean() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn weibull_properties() {
        let d = Weibull::new(2.0, 10.0).unwrap();
        assert_eq!(d.shape(), 2.0);
        assert_eq!(d.scale(), 10.0);
        // Mean = λ Γ(1.5) = 10 · 0.8862...
        assert!((d.mean() - 8.862_269_254_527_58).abs() < 1e-9);
        for &p in &[0.05, 0.5, 0.95] {
            assert!((d.cdf(d.quantile(p)) - p).abs() < 1e-10);
        }
        assert!((d.ln_pdf(4.0) - d.pdf(4.0).ln()).abs() < 1e-10);
        let (m, _) = sample_mean_var(&d, 40_000);
        assert!((m - d.mean()).abs() < 0.15, "mean {m}");
    }

    #[test]
    fn lognormal_properties() {
        let d = LogNormal::new(3.0, 0.8).unwrap();
        assert!((d.median() - 3.0f64.exp()).abs() < 1e-9);
        assert!((d.mean() - (3.0 + 0.32f64).exp()).abs() < 1e-9);
        for &p in &[0.1, 0.5, 0.9] {
            assert!((d.cdf(d.quantile(p)) - p).abs() < 1e-6);
        }
        assert!((d.ln_pdf(7.0) - d.pdf(7.0).ln()).abs() < 1e-10);
        assert_eq!(d.pdf(0.0), 0.0);
        assert_eq!(d.cdf(-1.0), 0.0);
    }

    #[test]
    fn lognormal_with_mean_hits_target() {
        let d = LogNormal::with_mean(55.0, 1.1).unwrap();
        assert!((d.mean() - 55.0).abs() < 1e-9);
        let (m, _) = sample_mean_var(&d, 120_000);
        assert!((m - 55.0).abs() < 1.5, "sampled mean {m}");
    }

    #[test]
    fn gamma_properties() {
        let d = Gamma::with_mean(72.0, 2.0).unwrap();
        assert!((d.mean() - 72.0).abs() < 1e-12);
        assert!((d.variance() - 2.0 * 36.0 * 36.0).abs() < 1e-9);
        for &p in &[0.1, 0.5, 0.75, 0.9] {
            assert!((d.cdf(d.quantile(p)) - p).abs() < 1e-7);
        }
        assert!((d.ln_pdf(40.0) - d.pdf(40.0).ln()).abs() < 1e-10);
        let (m, v) = sample_mean_var(&d, 60_000);
        assert!((m - 72.0).abs() < 1.0, "mean {m}");
        assert!((v / d.variance() - 1.0).abs() < 0.08, "var {v}");
    }

    #[test]
    fn gamma_sampler_small_shape() {
        let d = Gamma::new(0.5, 2.0).unwrap();
        let (m, _) = sample_mean_var(&d, 60_000);
        assert!((m - 1.0).abs() < 0.05, "mean {m}");
    }

    #[test]
    fn std_normal_sampler_moments() {
        let mut r = rng();
        let xs: Vec<f64> = (0..60_000).map(|_| sample_std_normal(&mut r)).collect();
        let m = crate::desc::mean(&xs).unwrap();
        let v = crate::desc::variance(&xs).unwrap();
        assert!(m.abs() < 0.02, "mean {m}");
        assert!((v - 1.0).abs() < 0.03, "var {v}");
    }

    #[test]
    fn poisson_sampler_moments() {
        let mut r = rng();
        for &mean in &[0.5, 4.0, 50.0] {
            let xs: Vec<f64> = (0..30_000)
                .map(|_| sample_poisson(mean, &mut r) as f64)
                .collect();
            let m = crate::desc::mean(&xs).unwrap();
            assert!((m - mean).abs() < mean.sqrt() * 0.1 + 0.02, "mean {m} vs {mean}");
        }
        assert_eq!(sample_poisson(0.0, &mut r), 0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            #[test]
            fn quantile_inverts_cdf_for_all_families(
                p in 0.01f64..0.99,
                mean in 0.1f64..1e4,
                shape in 0.3f64..8.0,
                sigma in 0.05f64..2.0,
            ) {
                let dists: Vec<Box<dyn ContinuousDist>> = vec![
                    Box::new(Exponential::with_mean(mean).unwrap()),
                    Box::new(Gamma::with_mean(mean, shape).unwrap()),
                    Box::new(LogNormal::with_mean(mean, sigma).unwrap()),
                    Box::new(Weibull::new(shape, mean).unwrap()),
                ];
                for d in &dists {
                    let x = d.quantile(p);
                    prop_assert!(x >= 0.0);
                    prop_assert!((d.cdf(x) - p).abs() < 1e-5, "cdf(q({p})) = {}", d.cdf(x));
                }
            }

            #[test]
            fn cdf_is_monotone(
                mean in 0.1f64..1e3,
                shape in 0.3f64..8.0,
                a in 0.0f64..500.0,
                b in 0.0f64..500.0,
            ) {
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                let d = Gamma::with_mean(mean, shape).unwrap();
                prop_assert!(d.cdf(lo) <= d.cdf(hi) + 1e-12);
                prop_assert!((0.0..=1.0).contains(&d.cdf(hi)));
            }

            #[test]
            fn samples_are_in_support(seed in any::<u64>(), mean in 0.1f64..100.0) {
                let mut rng = StdRng::seed_from_u64(seed);
                for d in [
                    &Exponential::with_mean(mean).unwrap() as &dyn ContinuousDist,
                    &Gamma::with_mean(mean, 2.0).unwrap(),
                    &LogNormal::with_mean(mean, 0.8).unwrap(),
                    &Weibull::new(1.5, mean).unwrap(),
                ] {
                    let x = d.sample(&mut rng);
                    prop_assert!(x > 0.0 && x.is_finite());
                }
            }
        }
    }

    #[test]
    fn trait_objects_work() {
        let dists: Vec<Box<dyn ContinuousDist>> = vec![
            Box::new(Exponential::with_mean(10.0).unwrap()),
            Box::new(Weibull::new(1.5, 10.0).unwrap()),
            Box::new(LogNormal::with_mean(10.0, 1.0).unwrap()),
            Box::new(Gamma::with_mean(10.0, 2.0).unwrap()),
        ];
        let mut r = rng();
        for d in &dists {
            let x = d.sample(&mut r);
            assert!(x > 0.0);
            assert!(d.cdf(x) > 0.0 && d.cdf(x) < 1.0);
        }
    }
}
