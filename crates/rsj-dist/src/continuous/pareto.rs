//! Pareto distribution `Pareto(ν, α)` (Table 1 / Table 5 / Theorem 10).

use crate::error::{check_param, Result};
use crate::traits::{ContinuousDistribution, Support};

/// Pareto (type I) distribution with scale `ν > 0` and shape `α > 0`,
/// support `[ν, ∞)`.
///
/// Paper instantiation: `ν = 1.5`, `α = 3.0`. The mean requires `α > 1`,
/// the variance `α > 2` (Theorem 2's finite-second-moment assumption).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pareto {
    nu: f64,
    alpha: f64,
}

impl Pareto {
    /// Creates a `Pareto(ν, α)` distribution. Requires `α > 2` so that the
    /// second moment is finite, as assumed throughout the paper.
    pub fn new(nu: f64, alpha: f64) -> Result<Self> {
        check_param("nu", nu, "must be > 0", nu > 0.0)?;
        check_param(
            "alpha",
            alpha,
            "must be > 2 for finite variance",
            alpha > 2.0,
        )?;
        Ok(Self { nu, alpha })
    }
}

impl ContinuousDistribution for Pareto {
    fn name(&self) -> String {
        format!("Pareto(ν={}, α={})", self.nu, self.alpha)
    }

    fn cache_key(&self) -> Option<String> {
        Some(self.name())
    }

    fn support(&self) -> Support {
        Support::Unbounded { lower: self.nu }
    }

    fn pdf(&self, t: f64) -> f64 {
        if t < self.nu {
            0.0
        } else {
            self.alpha * self.nu.powf(self.alpha) / t.powf(self.alpha + 1.0)
        }
    }

    fn cdf(&self, t: f64) -> f64 {
        if t <= self.nu {
            0.0
        } else {
            1.0 - (self.nu / t).powf(self.alpha)
        }
    }

    fn survival(&self, t: f64) -> f64 {
        if t <= self.nu {
            1.0
        } else {
            (self.nu / t).powf(self.alpha)
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "quantile: p out of [0,1]: {p}");
        if p == 1.0 {
            return f64::INFINITY;
        }
        self.nu / (1.0 - p).powf(1.0 / self.alpha)
    }

    fn mean(&self) -> f64 {
        self.alpha * self.nu / (self.alpha - 1.0)
    }

    fn variance(&self) -> f64 {
        let a = self.alpha;
        a * self.nu * self.nu / ((a - 1.0) * (a - 1.0) * (a - 2.0))
    }

    fn conditional_mean_above(&self, tau: f64) -> f64 {
        // Theorem 10: E[X | X > τ] = ατ / (α - 1) for τ ≥ ν.
        let tau = tau.max(self.nu);
        self.alpha * tau / (self.alpha - 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_instance() -> Pareto {
        Pareto::new(1.5, 3.0).unwrap()
    }

    #[test]
    fn rejects_bad_params() {
        assert!(Pareto::new(0.0, 3.0).is_err());
        assert!(Pareto::new(1.5, 2.0).is_err()); // infinite variance
        assert!(Pareto::new(1.5, 1.0).is_err());
    }

    #[test]
    fn paper_instantiation_moments() {
        let d = paper_instance();
        // mean = 3·1.5/2 = 2.25; var = 3·2.25/(4·1) = 1.6875.
        assert!((d.mean() - 2.25).abs() < 1e-14);
        assert!((d.variance() - 1.6875).abs() < 1e-14);
    }

    #[test]
    fn cdf_quantile_inverse() {
        let d = paper_instance();
        for &p in &[0.0, 0.1, 0.5, 0.9, 0.9999] {
            let t = d.quantile(p);
            assert!((d.cdf(t) - p).abs() < 1e-12, "p={p}");
        }
    }

    #[test]
    fn conditional_mean_closed_form() {
        let d = paper_instance();
        // Below the support the conditional mean is the unconditional mean.
        assert!((d.conditional_mean_above(0.0) - d.mean()).abs() < 1e-14);
        // Lack-of-memory-like scaling: E[X | X > τ] = 1.5τ for α = 3.
        assert!((d.conditional_mean_above(4.0) - 6.0).abs() < 1e-13);
    }

    #[test]
    fn conditional_mean_matches_quadrature() {
        let d = paper_instance();
        for &tau in &[2.0, 5.0, 20.0] {
            let closed = d.conditional_mean_above(tau);
            let s = d.survival(tau);
            let numeric =
                tau + crate::quadrature::integrate_to_inf(|t| d.survival(t), tau, 1e-13).value / s;
            assert!(
                (closed - numeric).abs() / numeric < 1e-6,
                "tau={tau}: closed {closed}, numeric {numeric}"
            );
        }
    }

    #[test]
    fn pdf_zero_below_support() {
        let d = paper_instance();
        assert_eq!(d.pdf(1.0), 0.0);
        assert_eq!(d.cdf(1.5), 0.0);
        assert_eq!(d.survival(1.4), 1.0);
    }
}
