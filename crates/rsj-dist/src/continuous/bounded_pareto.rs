//! Bounded Pareto distribution `BoundedPareto(L, H, α)` (Table 1 / Table 5 /
//! Theorem 13).

use crate::error::{check_param, Result};
use crate::traits::{ContinuousDistribution, Support};

/// Pareto distribution truncated to `[L, H]`, with tail index `α`.
///
/// Paper instantiation: `L = 1.0`, `H = 20.0`, `α = 2.1`. The moment
/// formulas require `α ∉ {1, 2}`; the constructor rejects those values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundedPareto {
    l: f64,
    h: f64,
    alpha: f64,
    /// Cached normalization `1 - (L/H)^α`.
    norm: f64,
}

impl BoundedPareto {
    /// Creates a `BoundedPareto(L, H, α)` distribution.
    pub fn new(l: f64, h: f64, alpha: f64) -> Result<Self> {
        check_param("L", l, "must be > 0", l > 0.0)?;
        check_param("H", h, "must be > L", h > l)?;
        check_param("alpha", alpha, "must be > 0", alpha > 0.0)?;
        check_param(
            "alpha",
            alpha,
            "must differ from 1 and 2 (moment formulas)",
            (alpha - 1.0).abs() > 1e-9 && (alpha - 2.0).abs() > 1e-9,
        )?;
        Ok(Self {
            l,
            h,
            alpha,
            norm: 1.0 - (l / h).powf(alpha),
        })
    }
}

impl ContinuousDistribution for BoundedPareto {
    fn name(&self) -> String {
        format!(
            "BoundedPareto(L={}, H={}, α={})",
            self.l, self.h, self.alpha
        )
    }

    fn cache_key(&self) -> Option<String> {
        Some(self.name())
    }

    fn support(&self) -> Support {
        Support::Bounded {
            lower: self.l,
            upper: self.h,
        }
    }

    fn pdf(&self, t: f64) -> f64 {
        if !(self.l..=self.h).contains(&t) {
            return 0.0;
        }
        self.alpha * self.l.powf(self.alpha) * t.powf(-self.alpha - 1.0) / self.norm
    }

    fn cdf(&self, t: f64) -> f64 {
        if t <= self.l {
            0.0
        } else if t >= self.h {
            1.0
        } else {
            (1.0 - (self.l / t).powf(self.alpha)) / self.norm
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "quantile: p out of [0,1]: {p}");
        // Table 5: Q(x) = L / (1 - (1 - (L/H)^α) x)^{1/α}.
        self.l / (1.0 - self.norm * p).powf(1.0 / self.alpha)
    }

    fn mean(&self) -> f64 {
        // Table 5: α/(α-1) · (H^α L - H L^α)/(H^α - L^α).
        let a = self.alpha;
        let ha = self.h.powf(a);
        let la = self.l.powf(a);
        a / (a - 1.0) * (ha * self.l - self.h * la) / (ha - la)
    }

    fn variance(&self) -> f64 {
        let a = self.alpha;
        let ha = self.h.powf(a);
        let la = self.l.powf(a);
        let m = self.mean();
        let second = a / (a - 2.0) * (ha * self.l * self.l - self.h * self.h * la) / (ha - la);
        second - m * m
    }

    fn conditional_mean_above(&self, tau: f64) -> f64 {
        // Theorem 13: E[X | X > τ] = α/(α-1) · (H^{1-α} − τ^{1-α}) / (H^{-α} − τ^{-α}).
        let tau = tau.clamp(self.l, self.h);
        if tau >= self.h {
            return self.h;
        }
        let a = self.alpha;
        let num = self.h.powf(1.0 - a) - tau.powf(1.0 - a);
        let den = self.h.powf(-a) - tau.powf(-a);
        (a / (a - 1.0) * num / den).clamp(tau, self.h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_instance() -> BoundedPareto {
        BoundedPareto::new(1.0, 20.0, 2.1).unwrap()
    }

    #[test]
    fn rejects_bad_params() {
        assert!(BoundedPareto::new(0.0, 20.0, 2.1).is_err());
        assert!(BoundedPareto::new(2.0, 1.0, 2.1).is_err());
        assert!(BoundedPareto::new(1.0, 20.0, 1.0).is_err());
        assert!(BoundedPareto::new(1.0, 20.0, 2.0).is_err());
    }

    #[test]
    fn cdf_boundaries() {
        let d = paper_instance();
        assert_eq!(d.cdf(1.0), 0.0);
        assert_eq!(d.cdf(20.0), 1.0);
        assert!((d.cdf(20.0 - 1e-9) - 1.0).abs() < 1e-8);
    }

    #[test]
    fn cdf_quantile_inverse() {
        let d = paper_instance();
        for &p in &[0.0, 0.1, 0.5, 0.9, 1.0] {
            let t = d.quantile(p);
            assert!((d.cdf(t) - p).abs() < 1e-11, "p={p}");
        }
        assert!((d.quantile(1.0) - 20.0).abs() < 1e-10);
    }

    #[test]
    fn mean_matches_quadrature() {
        let d = paper_instance();
        let numeric = crate::quadrature::integrate(|t| t * d.pdf(t), 1.0, 20.0, 1e-12).value;
        assert!(
            (d.mean() - numeric).abs() < 1e-8,
            "closed {} vs numeric {numeric}",
            d.mean()
        );
    }

    #[test]
    fn variance_matches_quadrature() {
        let d = paper_instance();
        let m = d.mean();
        let numeric =
            crate::quadrature::integrate(|t| (t - m) * (t - m) * d.pdf(t), 1.0, 20.0, 1e-12).value;
        assert!(
            (d.variance() - numeric).abs() < 1e-7,
            "closed {} vs numeric {numeric}",
            d.variance()
        );
    }

    #[test]
    fn conditional_mean_matches_quadrature() {
        let d = paper_instance();
        for &tau in &[1.5, 5.0, 15.0] {
            let closed = d.conditional_mean_above(tau);
            let s = d.survival(tau);
            let numeric =
                tau + crate::quadrature::integrate(|t| d.survival(t), tau, 20.0, 1e-13).value / s;
            assert!(
                (closed - numeric).abs() / numeric < 1e-8,
                "tau={tau}: closed {closed}, numeric {numeric}"
            );
        }
    }

    #[test]
    fn conditional_mean_stays_in_support() {
        let d = paper_instance();
        for &tau in &[1.0, 10.0, 19.9, 20.0] {
            let cm = d.conditional_mean_above(tau);
            assert!((tau.max(1.0)..=20.0).contains(&cm), "tau={tau}: cm {cm}");
        }
    }

    #[test]
    fn pdf_integrates_to_one() {
        let d = paper_instance();
        let q = crate::quadrature::integrate(|t| d.pdf(t), 1.0, 20.0, 1e-12);
        assert!((q.value - 1.0).abs() < 1e-9, "mass {}", q.value);
    }
}
