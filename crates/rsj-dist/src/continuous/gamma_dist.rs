//! Gamma distribution `Gamma(α, β)` with shape `α` and *rate* `β`
//! (Table 1 / Table 5 / Theorem 7).

use crate::error::{check_param, Result};
use crate::special::gamma::IncGamma;
use crate::traits::{ContinuousDistribution, Support};

/// Gamma distribution with shape `α > 0` and rate `β > 0`, support `[0, ∞)`.
///
/// Paper instantiation: `α = 2.0`, `β = 2.0` (mean 1, variance 1/2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GammaDist {
    shape: f64,
    rate: f64,
    /// `P(α, ·)` and `Q(α, ·)` with `ln Γ(α)` computed once.
    igamma: IncGamma,
}

impl GammaDist {
    /// Creates a `Gamma(α, β)` distribution (shape/rate convention, matching
    /// the paper's pdf `β^α/Γ(α) · t^{α-1} e^{-βt}`).
    pub fn new(shape: f64, rate: f64) -> Result<Self> {
        check_param("alpha", shape, "must be > 0", shape > 0.0)?;
        check_param("beta", rate, "must be > 0", rate > 0.0)?;
        Ok(Self {
            shape,
            rate,
            igamma: IncGamma::new(shape),
        })
    }

    /// Shape parameter `α`.
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// Rate parameter `β`.
    pub fn rate(&self) -> f64 {
        self.rate
    }
}

impl ContinuousDistribution for GammaDist {
    fn name(&self) -> String {
        format!("Gamma(α={}, β={})", self.shape, self.rate)
    }

    fn cache_key(&self) -> Option<String> {
        Some(self.name())
    }

    fn support(&self) -> Support {
        Support::Unbounded { lower: 0.0 }
    }

    fn pdf(&self, t: f64) -> f64 {
        if t < 0.0 {
            return 0.0;
        }
        if t == 0.0 {
            return match self.shape.partial_cmp(&1.0).unwrap() {
                std::cmp::Ordering::Less => f64::INFINITY,
                std::cmp::Ordering::Equal => self.rate,
                std::cmp::Ordering::Greater => 0.0,
            };
        }
        // exp(α ln β + (α-1) ln t - βt - ln Γ(α)) avoids overflow for large α.
        (self.shape * self.rate.ln() + (self.shape - 1.0) * t.ln()
            - self.rate * t
            - self.igamma.ln_gamma_a())
        .exp()
    }

    fn cdf(&self, t: f64) -> f64 {
        if t <= 0.0 {
            0.0
        } else {
            self.igamma.p(self.rate * t)
        }
    }

    fn survival(&self, t: f64) -> f64 {
        if t <= 0.0 {
            1.0
        } else {
            self.igamma.q(self.rate * t)
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "quantile: p out of [0,1]: {p}");
        self.igamma.inverse_p(p) / self.rate
    }

    fn mean(&self) -> f64 {
        self.shape / self.rate
    }

    fn variance(&self) -> f64 {
        self.shape / (self.rate * self.rate)
    }

    fn conditional_mean_above(&self, tau: f64) -> f64 {
        // Theorem 7 / Eq. 21: E[X | X > τ] = α/β + (τβ)^α e^{-τβ} / (Γ(α, τβ) β).
        if tau <= 0.0 {
            return self.mean();
        }
        let z = tau * self.rate;
        let upper = self.igamma.upper(z);
        if upper <= 0.0 {
            // Deep tail: conditioning mass underflowed; fall back to τ + 1/β
            // (the gamma hazard approaches the exponential rate β).
            return tau + 1.0 / self.rate;
        }
        self.shape / self.rate + (self.shape * z.ln() - z).exp() / (upper * self.rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_params() {
        assert!(GammaDist::new(0.0, 1.0).is_err());
        assert!(GammaDist::new(2.0, 0.0).is_err());
    }

    #[test]
    fn shape_one_is_exponential() {
        let g = GammaDist::new(1.0, 3.0).unwrap();
        let e = crate::continuous::Exponential::new(3.0).unwrap();
        for &t in &[0.01, 0.3, 1.0, 5.0] {
            assert!((g.cdf(t) - e.cdf(t)).abs() < 1e-12, "t={t}");
        }
    }

    #[test]
    fn paper_instantiation_moments() {
        let g = GammaDist::new(2.0, 2.0).unwrap();
        assert!((g.mean() - 1.0).abs() < 1e-14);
        assert!((g.variance() - 0.5).abs() < 1e-14);
    }

    #[test]
    fn cdf_quantile_inverse() {
        let g = GammaDist::new(2.0, 2.0).unwrap();
        for &p in &[0.0, 0.05, 0.4, 0.8, 0.99, 1.0 - 1e-8] {
            let t = g.quantile(p);
            assert!((g.cdf(t) - p).abs() < 1e-9, "p={p}");
        }
    }

    #[test]
    fn gamma22_closed_form_cdf() {
        // Gamma(2, 2): F(t) = 1 - (1 + 2t) e^{-2t}.
        let g = GammaDist::new(2.0, 2.0).unwrap();
        for &t in &[0.2f64, 0.5, 1.0, 3.0] {
            let expected = 1.0 - (1.0 + 2.0 * t) * (-2.0 * t).exp();
            assert!((g.cdf(t) - expected).abs() < 1e-13, "t={t}");
        }
    }

    #[test]
    fn conditional_mean_matches_quadrature() {
        let g = GammaDist::new(2.0, 2.0).unwrap();
        for &tau in &[0.3, 1.0, 2.5] {
            let closed = g.conditional_mean_above(tau);
            let s = g.survival(tau);
            let numeric =
                tau + crate::quadrature::integrate_to_inf(|t| g.survival(t), tau, 1e-13).value / s;
            assert!(
                (closed - numeric).abs() / numeric < 1e-8,
                "tau={tau}: closed {closed}, numeric {numeric}"
            );
        }
    }

    #[test]
    fn pdf_integrates_to_one() {
        let g = GammaDist::new(2.0, 2.0).unwrap();
        let q = crate::quadrature::integrate_to_inf(|t| g.pdf(t), 0.0, 1e-12);
        assert!((q.value - 1.0).abs() < 1e-7, "mass {}", q.value);
    }

    #[test]
    fn cross_validate_against_statrs() {
        use statrs::distribution::{Continuous, ContinuousCDF};
        let ours = GammaDist::new(2.0, 2.0).unwrap();
        let theirs = statrs::distribution::Gamma::new(2.0, 2.0).unwrap();
        for &t in &[0.1, 0.5, 1.0, 2.0, 5.0] {
            assert!((ours.pdf(t) - theirs.pdf(t)).abs() < 1e-12, "pdf t={t}");
            assert!((ours.cdf(t) - theirs.cdf(t)).abs() < 1e-12, "cdf t={t}");
        }
    }
}
