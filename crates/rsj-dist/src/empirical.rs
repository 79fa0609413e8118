//! Empirical distributions built from observed runtimes (system S4).
//!
//! Used by the trace pipeline (`rsj-traces`): an archive of job runtimes is
//! loaded into an [`Empirical`] distribution for a Kolmogorov–Smirnov
//! comparison against a fitted parametric law.

use crate::error::{DistError, Result};
use crate::traits::ContinuousDistribution;

/// Empirical distribution of a sample, held as its sorted observations.
#[derive(Debug, Clone, PartialEq)]
pub struct Empirical {
    /// Sorted observations.
    sorted: Vec<f64>,
}

impl Empirical {
    /// Builds an empirical distribution from a sample of nonnegative,
    /// finite runtimes. The sample is copied and sorted.
    pub fn from_samples(samples: &[f64]) -> Result<Self> {
        if samples.is_empty() {
            return Err(DistError::DegenerateSample {
                reason: "empty sample",
            });
        }
        if samples.iter().any(|x| !x.is_finite() || *x < 0.0) {
            return Err(DistError::DegenerateSample {
                reason: "sample contains negative or non-finite values",
            });
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite by validation"));
        Ok(Self { sorted })
    }

    /// Kolmogorov–Smirnov statistic `D_n = sup_t |F̂(t) - F(t)|` against a
    /// continuous reference distribution.
    pub fn ks_statistic(&self, reference: &dyn ContinuousDistribution) -> f64 {
        let n = self.sorted.len() as f64;
        let mut d: f64 = 0.0;
        for (i, &x) in self.sorted.iter().enumerate() {
            let f = reference.cdf(x);
            let ecdf_hi = (i + 1) as f64 / n;
            let ecdf_lo = i as f64 / n;
            d = d.max((ecdf_hi - f).abs()).max((f - ecdf_lo).abs());
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::continuous::{Exponential, Uniform};
    use rand::SeedableRng;

    #[test]
    fn rejects_bad_samples() {
        assert!(Empirical::from_samples(&[]).is_err());
        assert!(Empirical::from_samples(&[1.0, -2.0]).is_err());
        assert!(Empirical::from_samples(&[1.0, f64::NAN]).is_err());
    }

    #[test]
    fn ks_small_for_matching_law() {
        let dist = Exponential::new(1.0).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let samples: Vec<f64> = (0..5000).map(|_| dist.sample(&mut rng)).collect();
        let e = Empirical::from_samples(&samples).unwrap();
        let d = e.ks_statistic(&dist);
        // 99.9% KS critical value ≈ 1.95/√n ≈ 0.0276 for n = 5000.
        assert!(d < 0.0276, "KS statistic {d} too large for matching law");
    }

    #[test]
    fn ks_large_for_wrong_law() {
        let gen = Exponential::new(1.0).unwrap();
        let wrong = Uniform::new(10.0, 20.0).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let samples: Vec<f64> = (0..1000).map(|_| gen.sample(&mut rng)).collect();
        let e = Empirical::from_samples(&samples).unwrap();
        assert!(e.ks_statistic(&wrong) > 0.5);
    }
}
