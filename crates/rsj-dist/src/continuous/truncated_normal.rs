//! One-sided (lower-tail) truncated normal `TruncatedNormal(μ, σ², a)`
//! (Table 1 / Table 5 / Theorem 9).

use crate::error::{check_param, Result};
use crate::special::normal::{norm_cdf, norm_pdf, norm_quantile, norm_sf};
use crate::traits::{ContinuousDistribution, Support};

/// Normal distribution truncated to `[a, ∞)`.
///
/// Paper instantiation: `μ = 8.0`, `σ² = 2.0`, `a = 0.0`.
///
/// Note: Table 5 of the paper states the variance as `σ²(1 + α·η − η²)` with
/// `η = e^{-α²/2} / erfc(α/√2)`; the standard result uses the hazard
/// `λ(α) = φ(α)/(1-Φ(α)) = √(2/π)·η` instead of `η`. We implement the
/// standard (correct) formula — see DESIGN.md §4.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TruncatedNormal {
    mu: f64,
    sigma: f64,
    a: f64,
    /// Cached `Φ((a-μ)/σ)`, the parent's mass below the truncation point.
    cdf_a: f64,
    /// Cached truncation mass `1 - Φ((a-μ)/σ)`.
    tail_mass: f64,
}

impl TruncatedNormal {
    /// Creates a normal distribution with location `μ`, *variance* `σ²`
    /// given through its standard deviation `σ > 0`, truncated below at
    /// `a ≥ 0` (execution times are nonnegative).
    pub fn new(mu: f64, sigma: f64, a: f64) -> Result<Self> {
        check_param("mu", mu, "must be finite", mu.is_finite())?;
        check_param("sigma", sigma, "must be > 0", sigma > 0.0)?;
        check_param("a", a, "must be >= 0 and finite", a >= 0.0)?;
        let tail_mass = norm_sf((a - mu) / sigma);
        if tail_mass <= 0.0 {
            return Err(crate::error::DistError::InvalidParameter {
                name: "a",
                value: a,
                requirement: "truncation point leaves no probability mass",
            });
        }
        Ok(Self {
            mu,
            sigma,
            a,
            cdf_a: norm_cdf((a - mu) / sigma),
            tail_mass,
        })
    }

    /// Location parameter `μ` of the parent normal.
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// Scale parameter `σ` of the parent normal.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Truncation point `a`.
    pub fn truncation(&self) -> f64 {
        self.a
    }

    /// Standardized hazard (inverse Mills ratio) `λ(z) = φ(z) / (1 - Φ(z))`,
    /// computed stably for large `z` via an asymptotic expansion.
    fn hazard(z: f64) -> f64 {
        if z > 30.0 {
            // φ(z)/(1-Φ(z)) → z + 1/z - 2/z³ + O(z⁻⁵).
            return z + 1.0 / z - 2.0 / (z * z * z);
        }
        let sf = norm_sf(z);
        norm_pdf(z) / sf
    }
}

impl ContinuousDistribution for TruncatedNormal {
    fn name(&self) -> String {
        format!(
            "TruncatedNormal(μ={}, σ²={}, a={})",
            self.mu,
            self.sigma * self.sigma,
            self.a
        )
    }

    fn cache_key(&self) -> Option<String> {
        Some(self.name())
    }

    fn support(&self) -> Support {
        Support::Unbounded { lower: self.a }
    }

    fn pdf(&self, t: f64) -> f64 {
        if t < self.a {
            return 0.0;
        }
        let z = (t - self.mu) / self.sigma;
        norm_pdf(z) / (self.sigma * self.tail_mass)
    }

    fn cdf(&self, t: f64) -> f64 {
        if t <= self.a {
            return 0.0;
        }
        let z = (t - self.mu) / self.sigma;
        ((norm_cdf(z) - self.cdf_a) / self.tail_mass).clamp(0.0, 1.0)
    }

    fn survival(&self, t: f64) -> f64 {
        if t <= self.a {
            return 1.0;
        }
        let z = (t - self.mu) / self.sigma;
        (norm_sf(z) / self.tail_mass).clamp(0.0, 1.0)
    }

    fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "quantile: p out of [0,1]: {p}");
        if p == 0.0 {
            return self.a;
        }
        if p == 1.0 {
            return f64::INFINITY;
        }
        // Table 5: Q(x) = μ + σ Φ⁻¹(Φ(α) + x·(1 - Φ(α))) with α = (a-μ)/σ.
        self.mu + self.sigma * norm_quantile(self.cdf_a + p * self.tail_mass)
    }

    fn mean(&self) -> f64 {
        let za = (self.a - self.mu) / self.sigma;
        self.mu + self.sigma * Self::hazard(za)
    }

    fn variance(&self) -> f64 {
        let za = (self.a - self.mu) / self.sigma;
        let lam = Self::hazard(za);
        self.sigma * self.sigma * (1.0 + za * lam - lam * lam)
    }

    fn conditional_mean_above(&self, tau: f64) -> f64 {
        // A normal truncated at `a`, conditioned on `X > τ ≥ a`, is the
        // parent normal truncated at τ: E[X | X > τ] = μ + σ λ((τ-μ)/σ)
        // (Theorem 9 in standardized form).
        let tau = tau.max(self.a);
        let z = (tau - self.mu) / self.sigma;
        self.mu + self.sigma * Self::hazard(z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_instance() -> TruncatedNormal {
        // Table 1: μ = 8, σ² = 2 (σ = √2), a = 0.
        TruncatedNormal::new(8.0, 2.0f64.sqrt(), 0.0).unwrap()
    }

    #[test]
    fn rejects_bad_params() {
        assert!(TruncatedNormal::new(8.0, 0.0, 0.0).is_err());
        assert!(TruncatedNormal::new(8.0, 1.0, -1.0).is_err());
        // Truncation point 40σ above the mean leaves no mass.
        assert!(TruncatedNormal::new(0.0, 1.0, 40.0).is_err());
    }

    #[test]
    fn nearly_untruncated_matches_normal() {
        // a = 0 is 5.66σ below μ = 8: truncation is negligible.
        let d = paper_instance();
        assert!((d.mean() - 8.0).abs() < 1e-6, "mean {}", d.mean());
        assert!((d.variance() - 2.0).abs() < 1e-5, "var {}", d.variance());
    }

    #[test]
    fn heavily_truncated_moments_vs_quadrature() {
        // Truncate right at the mean: exact half-normal shift applies.
        let d = TruncatedNormal::new(0.0, 1.0, 0.0).unwrap();
        // E = √(2/π), Var = 1 - 2/π.
        let e = (2.0 / std::f64::consts::PI).sqrt();
        assert!((d.mean() - e).abs() < 1e-12, "mean {}", d.mean());
        assert!(
            (d.variance() - (1.0 - 2.0 / std::f64::consts::PI)).abs() < 1e-12,
            "var {}",
            d.variance()
        );
    }

    #[test]
    fn cdf_quantile_inverse() {
        let d = paper_instance();
        for &p in &[0.001, 0.2, 0.5, 0.8, 0.999] {
            let t = d.quantile(p);
            assert!((d.cdf(t) - p).abs() < 1e-10, "p={p}");
        }
    }

    #[test]
    fn pdf_integrates_to_one() {
        let d = TruncatedNormal::new(1.0, 2.0, 0.5).unwrap();
        let q = crate::quadrature::integrate_to_inf(|t| d.pdf(t), 0.5, 1e-12);
        assert!((q.value - 1.0).abs() < 1e-7, "mass {}", q.value);
    }

    #[test]
    fn conditional_mean_matches_quadrature() {
        let d = paper_instance();
        for &tau in &[5.0, 8.0, 10.0, 12.0] {
            let closed = d.conditional_mean_above(tau);
            let s = d.survival(tau);
            let numeric =
                tau + crate::quadrature::integrate_to_inf(|t| d.survival(t), tau, 1e-13).value / s;
            assert!(
                (closed - numeric).abs() / numeric < 1e-7,
                "tau={tau}: closed {closed}, numeric {numeric}"
            );
        }
    }

    #[test]
    fn hazard_stable_for_large_z() {
        // Far-tail hazard must stay finite and ≈ z.
        let h = TruncatedNormal::hazard(40.0);
        assert!(h.is_finite() && (h - 40.0).abs() < 0.1, "hazard {h}");
    }

    #[test]
    fn conditional_mean_monotone_in_tau() {
        let d = paper_instance();
        let mut prev = d.mean();
        for i in 1..50 {
            let tau = i as f64 * 0.5;
            let cm = d.conditional_mean_above(tau);
            assert!(cm >= prev - 1e-9, "tau={tau}: {cm} < {prev}");
            prev = cm;
        }
    }
}
