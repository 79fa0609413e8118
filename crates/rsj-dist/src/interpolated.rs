//! Trace-interpolating distribution: a continuous law built by linear
//! interpolation of an empirical CDF.
//!
//! The paper's abstract describes the NeuroHPC scenario as "based on
//! interpolating traces from a real neuroscience application": instead of
//! (or in addition to) fitting a parametric family, the archived runtimes
//! themselves define a piecewise-linear CDF — equivalently a
//! piecewise-constant density (a histogram on the inter-order-statistic
//! cells). This makes every reservation heuristic directly runnable on raw
//! trace data, with no distributional assumption.

use crate::error::{DistError, Result};
use crate::traits::{ContinuousDistribution, Support};

/// Continuous distribution obtained by linearly interpolating the
/// empirical CDF of a sample.
///
/// With sorted distinct observations `x₁ < … < xₙ`, the CDF rises linearly
/// from `0` at `x₁` to `1` at `xₙ` through the points
/// `F(xᵢ) = (i - 1)/(n - 1)`; the density is constant on each cell. (The
/// standard continuity correction: the sample's extremes bound the
/// support.) Duplicate observations are merged with their multiplicity
/// kept as extra mass on the adjoining cell boundary being collapsed —
/// i.e. duplicates simply steepen the CDF around that value.
#[derive(Debug, Clone, PartialEq)]
pub struct InterpolatedEmpirical {
    /// Sorted distinct knot positions.
    knots: Vec<f64>,
    /// CDF values at the knots (strictly increasing, first 0, last 1).
    cdf_at: Vec<f64>,
    /// Cached mean.
    mean: f64,
    /// Cached variance.
    variance: f64,
}

impl InterpolatedEmpirical {
    /// Builds the interpolated distribution from raw observations (at
    /// least two distinct, nonnegative, finite values).
    pub fn from_samples(samples: &[f64]) -> Result<Self> {
        if samples.len() < 2 {
            return Err(DistError::DegenerateSample {
                reason: "need at least two observations to interpolate",
            });
        }
        if samples.iter().any(|x| !x.is_finite() || *x < 0.0) {
            return Err(DistError::DegenerateSample {
                reason: "observations must be finite and nonnegative",
            });
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let n = sorted.len();

        // Plotting-position CDF with duplicates merged: each distinct value
        // keeps the *last* index where it occurs, so ties steepen the CDF.
        let mut knots: Vec<f64> = Vec::new();
        let mut cdf_at: Vec<f64> = Vec::new();
        for (i, &x) in sorted.iter().enumerate() {
            let p = i as f64 / (n - 1) as f64;
            match knots.last() {
                Some(&last) if x <= last + f64::EPSILON * last.abs().max(1.0) => {
                    *cdf_at.last_mut().expect("non-empty") = p;
                }
                _ => {
                    knots.push(x);
                    cdf_at.push(p);
                }
            }
        }
        if knots.len() < 2 {
            return Err(DistError::DegenerateSample {
                reason: "all observations identical; no spread to interpolate",
            });
        }
        // Normalize endpoints exactly.
        let first = cdf_at[0];
        let last = *cdf_at.last().expect("non-empty");
        for p in &mut cdf_at {
            *p = (*p - first) / (last - first);
        }
        Ok(Self::from_knots(knots, cdf_at))
    }

    /// Builds the interpolated distribution directly from CDF knots
    /// `(t, F(t))`: at least two points with strictly increasing,
    /// nonnegative, finite positions and non-decreasing CDF values
    /// starting at 0 and ending at 1 (cells of zero mass are allowed and
    /// simply carry no probability).
    ///
    /// This is the bridge from a Kaplan–Meier survival curve (or any other
    /// externally estimated CDF) to a plannable continuous law.
    pub(crate) fn from_cdf_points(points: &[(f64, f64)]) -> Result<Self> {
        if points.len() < 2 {
            return Err(DistError::DegenerateSample {
                reason: "need at least two CDF points to interpolate",
            });
        }
        if points
            .iter()
            .any(|(t, p)| !t.is_finite() || *t < 0.0 || !p.is_finite() || !(0.0..=1.0).contains(p))
        {
            return Err(DistError::DegenerateSample {
                reason: "CDF points must be finite, nonnegative, with F in [0, 1]",
            });
        }
        if points
            .windows(2)
            .any(|w| w[1].0 <= w[0].0 || w[1].1 < w[0].1)
        {
            return Err(DistError::DegenerateSample {
                reason: "CDF points must have strictly increasing t and non-decreasing F",
            });
        }
        if points[0].1 != 0.0 || points.last().expect("non-empty").1 != 1.0 {
            return Err(DistError::DegenerateSample {
                reason: "CDF must start at 0 and end at 1",
            });
        }
        let knots: Vec<f64> = points.iter().map(|(t, _)| *t).collect();
        let cdf_at: Vec<f64> = points.iter().map(|(_, p)| *p).collect();
        Ok(Self::from_knots(knots, cdf_at))
    }

    /// Moments of the piecewise-uniform law: on cell [a, b] with mass w,
    /// E = w·(a + b)/2 and E[X²] = w·(a² + ab + b²)/3.
    fn from_knots(knots: Vec<f64>, cdf_at: Vec<f64>) -> Self {
        let mut mean = 0.0;
        let mut m2 = 0.0;
        for i in 0..knots.len() - 1 {
            let (a, b) = (knots[i], knots[i + 1]);
            let w = cdf_at[i + 1] - cdf_at[i];
            mean += w * (a + b) / 2.0;
            m2 += w * (a * a + a * b + b * b) / 3.0;
        }
        Self {
            variance: (m2 - mean * mean).max(0.0),
            knots,
            cdf_at,
            mean,
        }
    }

    fn cell_of(&self, t: f64) -> usize {
        // Largest i with knots[i] <= t, clamped to a valid cell index.
        match self
            .knots
            .binary_search_by(|x| x.partial_cmp(&t).expect("finite"))
        {
            Ok(i) => i.min(self.knots.len() - 2),
            Err(0) => 0,
            Err(i) => (i - 1).min(self.knots.len() - 2),
        }
    }
}

impl ContinuousDistribution for InterpolatedEmpirical {
    fn name(&self) -> String {
        format!(
            "InterpolatedEmpirical({} knots on [{:.3}, {:.3}])",
            self.knots.len(),
            self.knots[0],
            self.knots[self.knots.len() - 1]
        )
    }

    fn support(&self) -> Support {
        Support::Bounded {
            lower: self.knots[0],
            upper: *self.knots.last().expect("non-empty"),
        }
    }

    fn pdf(&self, t: f64) -> f64 {
        if t < self.knots[0] || t > *self.knots.last().expect("non-empty") {
            return 0.0;
        }
        let i = self.cell_of(t);
        let width = self.knots[i + 1] - self.knots[i];
        (self.cdf_at[i + 1] - self.cdf_at[i]) / width
    }

    fn cdf(&self, t: f64) -> f64 {
        if t <= self.knots[0] {
            return 0.0;
        }
        if t >= *self.knots.last().expect("non-empty") {
            return 1.0;
        }
        let i = self.cell_of(t);
        let frac = (t - self.knots[i]) / (self.knots[i + 1] - self.knots[i]);
        self.cdf_at[i] + frac * (self.cdf_at[i + 1] - self.cdf_at[i])
    }

    fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "quantile: p out of [0,1]: {p}");
        if p <= 0.0 {
            return self.knots[0];
        }
        if p >= 1.0 {
            return *self.knots.last().expect("non-empty");
        }
        let i = match self
            .cdf_at
            .binary_search_by(|x| x.partial_cmp(&p).expect("finite"))
        {
            Ok(i) => return self.knots[i],
            Err(i) => i - 1, // p strictly between cdf_at[i-1] and cdf_at[i]
        };
        let frac = (p - self.cdf_at[i]) / (self.cdf_at[i + 1] - self.cdf_at[i]);
        self.knots[i] + frac * (self.knots[i + 1] - self.knots[i])
    }

    fn mean(&self) -> f64 {
        self.mean
    }

    fn variance(&self) -> f64 {
        self.variance
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::continuous::LogNormal;
    use rand::SeedableRng;

    #[test]
    fn rejects_degenerate_samples() {
        assert!(InterpolatedEmpirical::from_samples(&[]).is_err());
        assert!(InterpolatedEmpirical::from_samples(&[1.0]).is_err());
        assert!(InterpolatedEmpirical::from_samples(&[2.0, 2.0, 2.0]).is_err());
        assert!(InterpolatedEmpirical::from_samples(&[1.0, -1.0]).is_err());
    }

    #[test]
    fn two_points_is_uniform() {
        let d = InterpolatedEmpirical::from_samples(&[10.0, 20.0]).unwrap();
        assert_eq!(d.support().lower(), 10.0);
        assert_eq!(d.support().upper(), Some(20.0));
        assert!((d.pdf(15.0) - 0.1).abs() < 1e-12);
        assert!((d.cdf(15.0) - 0.5).abs() < 1e-12);
        assert!((d.mean() - 15.0).abs() < 1e-12);
        assert!((d.variance() - 100.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn cdf_quantile_round_trip() {
        let d = InterpolatedEmpirical::from_samples(&[1.0, 2.0, 4.0, 8.0, 16.0]).unwrap();
        for k in 0..=100 {
            let p = k as f64 / 100.0;
            let t = d.quantile(p);
            assert!(
                (d.cdf(t) - p).abs() < 1e-10,
                "p={p}: Q={t}, F(Q)={}",
                d.cdf(t)
            );
        }
    }

    #[test]
    fn duplicates_steepen_not_break() {
        let d = InterpolatedEmpirical::from_samples(&[1.0, 2.0, 2.0, 2.0, 3.0]).unwrap();
        // Mass between 1 and 2 covers the first three plotting positions.
        assert!((d.cdf(2.0) - 0.75).abs() < 1e-12, "cdf(2) = {}", d.cdf(2.0));
        for w in d.knots.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn approximates_the_generating_law() {
        let truth = LogNormal::new(0.0, 0.5).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let samples: Vec<f64> = (0..20_000).map(|_| truth.sample(&mut rng)).collect();
        let d = InterpolatedEmpirical::from_samples(&samples).unwrap();
        assert!((d.mean() - truth.mean()).abs() / truth.mean() < 0.02);
        for q in [0.1, 0.5, 0.9] {
            let a = d.quantile(q);
            let b = truth.quantile(q);
            assert!((a - b).abs() / b < 0.05, "q={q}: {a} vs {b}");
        }
        // CDF agreement at arbitrary points.
        for t in [0.5, 1.0, 2.0] {
            assert!((d.cdf(t) - truth.cdf(t)).abs() < 0.02, "t={t}");
        }
    }

    #[test]
    fn conditional_mean_default_works() {
        // The numeric default of the trait must handle the piecewise law.
        let d = InterpolatedEmpirical::from_samples(&[1.0, 2.0, 4.0, 8.0]).unwrap();
        let cm = d.conditional_mean_above(2.0);
        // Conditional on X > 2: uniform mass 1/3 on [2,4], 1/3 on [4,8]
        // renormalized: E = (1/2)·3 + (1/2)·6 = 4.5.
        assert!((cm - 4.5).abs() < 1e-6, "cm {cm}");
    }

    #[test]
    fn heuristics_run_directly_on_trace_data() {
        // The headline feature: reservation strategies on raw traces.
        let truth = LogNormal::new(0.0, 0.4).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let samples: Vec<f64> = (0..5_000).map(|_| truth.sample(&mut rng)).collect();
        let d = InterpolatedEmpirical::from_samples(&samples).unwrap();
        // A one-shot reservation at the sample max always succeeds.
        let b = d.support().upper().unwrap();
        assert!(d.cdf(b) == 1.0);
        assert!(d.quantile(1.0) == b);
    }
}
