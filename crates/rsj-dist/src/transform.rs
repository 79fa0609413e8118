//! Distribution transforms: currently positive rescaling, `Y = c·X`.
//!
//! Rescaling is what the multi-processor extension of the paper's §7
//! future work needs: a job with sequential-work law `X` executed on `p`
//! processors has runtime `X·g(p)` for the speedup-derived factor `g(p)`.

use crate::error::{check_param, Result};
use crate::traits::{ContinuousDistribution, Support};

/// The law of `c·X` for a positive constant `c` and base law `X`.
#[derive(Debug, Clone)]
pub struct Scaled<D> {
    inner: D,
    factor: f64,
}

impl<D: ContinuousDistribution> Scaled<D> {
    /// Wraps `inner` scaled by `factor > 0`.
    pub fn new(inner: D, factor: f64) -> Result<Self> {
        check_param("factor", factor, "must be > 0 and finite", factor > 0.0)?;
        Ok(Self { inner, factor })
    }
}

impl<D: ContinuousDistribution> ContinuousDistribution for Scaled<D> {
    fn name(&self) -> String {
        format!("{} × {}", self.factor, self.inner.name())
    }

    fn cache_key(&self) -> Option<String> {
        // Faithful iff the inner law's key is: `{}` on the factor is
        // shortest-roundtrip.
        self.inner
            .cache_key()
            .map(|inner| format!("{} × {inner}", self.factor))
    }

    fn support(&self) -> Support {
        match self.inner.support() {
            Support::Bounded { lower, upper } => Support::Bounded {
                lower: lower * self.factor,
                upper: upper * self.factor,
            },
            Support::Unbounded { lower } => Support::Unbounded {
                lower: lower * self.factor,
            },
        }
    }

    fn pdf(&self, t: f64) -> f64 {
        self.inner.pdf(t / self.factor) / self.factor
    }

    fn cdf(&self, t: f64) -> f64 {
        self.inner.cdf(t / self.factor)
    }

    fn survival(&self, t: f64) -> f64 {
        self.inner.survival(t / self.factor)
    }

    fn quantile(&self, p: f64) -> f64 {
        self.inner.quantile(p) * self.factor
    }

    fn mean(&self) -> f64 {
        self.inner.mean() * self.factor
    }

    fn variance(&self) -> f64 {
        self.inner.variance() * self.factor * self.factor
    }

    fn conditional_mean_above(&self, tau: f64) -> f64 {
        self.inner.conditional_mean_above(tau / self.factor) * self.factor
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::continuous::{Exponential, Uniform};

    #[test]
    fn rejects_bad_factor() {
        assert!(Scaled::new(Exponential::new(1.0).unwrap(), 0.0).is_err());
        assert!(Scaled::new(Exponential::new(1.0).unwrap(), -2.0).is_err());
    }

    #[test]
    fn scaled_exponential_is_rate_change() {
        // 2·Exp(1) has the law of Exp(1/2).
        let s = Scaled::new(Exponential::new(1.0).unwrap(), 2.0).unwrap();
        let e = Exponential::new(0.5).unwrap();
        for &t in &[0.1, 1.0, 3.0, 10.0] {
            assert!((s.cdf(t) - e.cdf(t)).abs() < 1e-13, "t={t}");
            assert!((s.pdf(t) - e.pdf(t)).abs() < 1e-13, "t={t}");
        }
        assert!((s.mean() - 2.0).abs() < 1e-13);
        assert!((s.variance() - 4.0).abs() < 1e-13);
    }

    #[test]
    fn scaled_uniform_support() {
        let s = Scaled::new(Uniform::new(10.0, 20.0).unwrap(), 0.5).unwrap();
        assert_eq!(s.support().lower(), 5.0);
        assert_eq!(s.support().upper(), Some(10.0));
        assert!((s.quantile(0.5) - 7.5).abs() < 1e-13);
    }

    #[test]
    fn conditional_mean_scales() {
        let base = Exponential::new(1.0).unwrap();
        let s = Scaled::new(base, 3.0).unwrap();
        // E[3X | 3X > τ] = 3·E[X | X > τ/3] = τ + 3 for exponential.
        assert!((s.conditional_mean_above(6.0) - 9.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_cdf_roundtrip() {
        let s = Scaled::new(Exponential::new(2.0).unwrap(), 7.0).unwrap();
        for &p in &[0.01, 0.4, 0.9, 0.999] {
            assert!((s.cdf(s.quantile(p)) - p).abs() < 1e-12);
        }
    }
}
