//! Beta distribution `Beta(α, β)` on `[0, 1]` (Table 1 / Table 5 /
//! Theorem 12).

use crate::error::{check_param, Result};
use crate::special::beta::IncBeta;
use crate::traits::{ContinuousDistribution, Support};

/// Beta distribution with shape parameters `α, β > 0`, support `[0, 1]`.
///
/// Paper instantiation: `α = 2.0`, `β = 2.0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BetaDist {
    alpha: f64,
    beta: f64,
    /// `I_x(α, β)` with its constants (`ln B(α, β)` among them) computed
    /// once.
    ibeta: IncBeta,
}

impl BetaDist {
    /// Creates a `Beta(α, β)` distribution.
    pub fn new(alpha: f64, beta: f64) -> Result<Self> {
        check_param("alpha", alpha, "must be > 0", alpha > 0.0)?;
        check_param("beta", beta, "must be > 0", beta > 0.0)?;
        Ok(Self {
            alpha,
            beta,
            ibeta: IncBeta::new(alpha, beta),
        })
    }

    /// Second shape parameter `β`.
    pub fn beta(&self) -> f64 {
        self.beta
    }
}

impl ContinuousDistribution for BetaDist {
    fn name(&self) -> String {
        format!("Beta(α={}, β={})", self.alpha, self.beta)
    }

    fn cache_key(&self) -> Option<String> {
        Some(self.name())
    }

    fn support(&self) -> Support {
        Support::Bounded {
            lower: 0.0,
            upper: 1.0,
        }
    }

    fn pdf(&self, t: f64) -> f64 {
        if !(0.0..=1.0).contains(&t) {
            return 0.0;
        }
        if t == 0.0 || t == 1.0 {
            // Endpoint singularities for shape parameters below 1.
            let exponent = if t == 0.0 { self.alpha } else { self.beta };
            return match exponent.partial_cmp(&1.0).unwrap() {
                std::cmp::Ordering::Less => f64::INFINITY,
                std::cmp::Ordering::Equal => (-self.ibeta.ln_beta()).exp(),
                std::cmp::Ordering::Greater => 0.0,
            };
        }
        ((self.alpha - 1.0) * t.ln() + (self.beta - 1.0) * (1.0 - t).ln() - self.ibeta.ln_beta())
            .exp()
    }

    fn cdf(&self, t: f64) -> f64 {
        if t <= 0.0 {
            0.0
        } else if t >= 1.0 {
            1.0
        } else {
            self.ibeta.regularized(t)
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "quantile: p out of [0,1]: {p}");
        self.ibeta.inverse(p)
    }

    fn quantiles(&self, ps: &[f64]) -> Vec<f64> {
        self.ibeta.inverses(ps)
    }

    fn mean(&self) -> f64 {
        self.alpha / (self.alpha + self.beta)
    }

    fn variance(&self) -> f64 {
        let s = self.alpha + self.beta;
        self.alpha * self.beta / (s * s * (s + 1.0))
    }

    fn conditional_mean_above(&self, tau: f64) -> f64 {
        // Theorem 12:
        // E[X | X > τ] = [B(α+1, β) − B(τ; α+1, β)] / [B(α, β) − B(τ; α, β)].
        if tau <= 0.0 {
            return self.mean();
        }
        if tau >= 1.0 {
            return 1.0;
        }
        let shifted = IncBeta::new(self.alpha + 1.0, self.beta);
        let num = shifted.unregularized(1.0) - shifted.unregularized(tau);
        let den = self.ibeta.ln_beta().exp() - self.ibeta.unregularized(tau);
        if den <= 0.0 {
            return 1.0;
        }
        (num / den).clamp(tau, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_instance() -> BetaDist {
        BetaDist::new(2.0, 2.0).unwrap()
    }

    #[test]
    fn rejects_bad_params() {
        assert!(BetaDist::new(0.0, 1.0).is_err());
        assert!(BetaDist::new(1.0, -2.0).is_err());
    }

    #[test]
    fn beta11_is_uniform() {
        let d = BetaDist::new(1.0, 1.0).unwrap();
        for &t in &[0.1, 0.5, 0.9] {
            assert!((d.cdf(t) - t).abs() < 1e-13, "t={t}");
            assert!((d.pdf(t) - 1.0).abs() < 1e-13, "t={t}");
        }
    }

    #[test]
    fn paper_instantiation_moments() {
        let d = paper_instance();
        assert_eq!(d.mean(), 0.5);
        assert!((d.variance() - 0.05).abs() < 1e-14);
    }

    #[test]
    fn cdf_quantile_inverse() {
        let d = paper_instance();
        for &p in &[0.0, 0.1, 0.5, 0.9, 1.0] {
            let t = d.quantile(p);
            assert!((d.cdf(t) - p).abs() < 1e-10, "p={p}");
        }
    }

    #[test]
    fn conditional_mean_matches_quadrature() {
        let d = paper_instance();
        for &tau in &[0.2, 0.5, 0.8] {
            let closed = d.conditional_mean_above(tau);
            let s = d.survival(tau);
            let numeric =
                tau + crate::quadrature::integrate(|t| d.survival(t), tau, 1.0, 1e-13).value / s;
            assert!(
                (closed - numeric).abs() < 1e-8,
                "tau={tau}: closed {closed}, numeric {numeric}"
            );
        }
    }

    #[test]
    fn conditional_mean_edges() {
        let d = paper_instance();
        assert_eq!(d.conditional_mean_above(0.0), 0.5);
        assert_eq!(d.conditional_mean_above(1.0), 1.0);
        // Near the upper edge, it must stay within (τ, 1].
        let cm = d.conditional_mean_above(0.999);
        assert!(cm > 0.999 && cm <= 1.0, "cm {cm}");
    }

    #[test]
    fn cross_validate_against_statrs() {
        use statrs::distribution::{Continuous, ContinuousCDF};
        let ours = paper_instance();
        let theirs = statrs::distribution::Beta::new(2.0, 2.0).unwrap();
        for &t in &[0.1, 0.4, 0.7, 0.95] {
            assert!((ours.pdf(t) - theirs.pdf(t)).abs() < 1e-12, "pdf t={t}");
            assert!((ours.cdf(t) - theirs.cdf(t)).abs() < 1e-12, "cdf t={t}");
        }
    }
}
