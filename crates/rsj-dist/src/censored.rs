//! Censored-observation estimation (system S19, estimation layer).
//!
//! A reservation system that learns while scheduling never sees clean
//! samples: a job killed at its reservation boundary `t_i` reveals only
//! `X > t_i` — a *right-censored* observation. This module provides the
//! estimators an online adaptive planner needs:
//!
//! * [`Observation`] — a `(value, Exact | RightCensored)` pair;
//! * [`KaplanMeier`] — the product-limit survival estimator, with a bridge
//!   to [`InterpolatedEmpirical`] so a nonparametric survival curve can be
//!   planned on directly;
//! * [`fit_exponential_censored`] / [`fit_weibull_censored`] /
//!   [`fit_lognormal_censored`] — censored maximum-likelihood fits
//!   (closed-form total-time-on-test, profile-likelihood bisection, and EM
//!   with the inverse Mills ratio, respectively).
//!
//! Every censored fit reduces **exactly** to its uncensored counterpart
//! when no observation is censored: `fit_lognormal_censored` delegates to
//! [`fit_lognormal`] verbatim, and the exponential/Weibull likelihood
//! equations collapse to the classical uncensored MLEs.

use crate::continuous::{Exponential, LogNormal, Weibull};
use crate::error::{DistError, Result};
use crate::fit::fit_lognormal;
use crate::interpolated::InterpolatedEmpirical;
use crate::special::normal::{norm_pdf, norm_sf};
use serde::{Deserialize, Serialize};

/// Whether an observation is a completed runtime or a censoring bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum CensorKind {
    /// The job completed; `value` is its exact duration.
    Exact,
    /// The job was killed at `value`; only `X > value` is known.
    RightCensored,
}

/// One runtime observation, possibly right-censored.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Observation {
    /// The observed duration (exact) or censoring bound.
    pub value: f64,
    /// Exact completion or right-censoring.
    pub kind: CensorKind,
}

impl Observation {
    /// An exactly observed duration.
    pub fn exact(value: f64) -> Self {
        Self {
            value,
            kind: CensorKind::Exact,
        }
    }

    /// A right-censored observation: the job was still running at `value`.
    pub fn censored(value: f64) -> Self {
        Self {
            value,
            kind: CensorKind::RightCensored,
        }
    }

    /// `true` for right-censored observations.
    pub(crate) fn is_censored(&self) -> bool {
        self.kind == CensorKind::RightCensored
    }
}

/// Rejects empty streams and non-finite or non-positive values (a censoring
/// bound at 0 carries no information; an exact duration of 0 has zero
/// likelihood under every family fitted here).
fn validate(observations: &[Observation]) -> Result<()> {
    if observations.is_empty() {
        return Err(DistError::DegenerateSample {
            reason: "no observations",
        });
    }
    if observations
        .iter()
        .any(|o| !o.value.is_finite() || !(o.value > 0.0))
    {
        return Err(DistError::DegenerateSample {
            reason: "observations must be finite and strictly positive",
        });
    }
    Ok(())
}

fn exact_values(observations: &[Observation]) -> Vec<f64> {
    observations
        .iter()
        .filter(|o| !o.is_censored())
        .map(|o| o.value)
        .collect()
}

/// A censored maximum-likelihood fit: the fitted law plus sample counts.
#[derive(Debug, Clone, PartialEq)]
pub struct CensoredFit<D> {
    /// The fitted distribution.
    pub dist: D,
    /// Total observations used.
    pub n: usize,
    /// How many of them were right-censored.
    pub n_censored: usize,
    /// Solver iterations spent (0 for closed-form fits).
    pub iterations: usize,
}

/// Kaplan–Meier product-limit estimator of the survival function from
/// right-censored observations.
///
/// At each distinct exact-event time `tᵢ` with `dᵢ` completions out of
/// `nᵢ` observations still at risk, the survival estimate multiplies by
/// `1 − dᵢ/nᵢ`; censored observations leave the risk set without an event.
/// The estimate is a right-continuous step function, always in `[0, 1]`
/// and monotone non-increasing.
#[derive(Debug, Clone, PartialEq)]
pub struct KaplanMeier {
    /// Distinct exact-event times, sorted ascending.
    times: Vec<f64>,
    /// `S(tᵢ)` immediately after each event time.
    survival: Vec<f64>,
    /// Largest observation of either kind.
    max_observed: f64,
}

impl KaplanMeier {
    /// Fits the product-limit estimator. Errors on empty or non-positive
    /// input; an all-censored stream is allowed (the curve stays at 1).
    pub fn fit(observations: &[Observation]) -> Result<Self> {
        validate(observations)?;
        // Sort by value with exact events before censorings at ties: the
        // standard convention that a censoring at t is still at risk for
        // the deaths at t.
        let mut sorted: Vec<(f64, bool)> = observations
            .iter()
            .map(|o| (o.value, o.is_censored()))
            .collect();
        sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite").then(a.1.cmp(&b.1)));
        let n = sorted.len();
        let mut times = Vec::new();
        let mut survival = Vec::new();
        let mut s = 1.0;
        let mut i = 0;
        while i < n {
            let t = sorted[i].0;
            let at_risk = n - i;
            let mut deaths = 0usize;
            while i < n && sorted[i].0 == t {
                deaths += usize::from(!sorted[i].1);
                i += 1;
            }
            if deaths > 0 {
                s *= 1.0 - deaths as f64 / at_risk as f64;
                times.push(t);
                survival.push(s);
            }
        }
        Ok(Self {
            times,
            survival,
            max_observed: sorted.last().expect("non-empty").0,
        })
    }

    /// The estimated survival probability `Ŝ(t) = P(X > t)`.
    pub fn survival(&self, t: f64) -> f64 {
        let idx = self.times.partition_point(|x| *x <= t);
        if idx == 0 {
            1.0
        } else {
            self.survival[idx - 1]
        }
    }

    /// Converts the step curve into a plannable continuous law by linear
    /// interpolation of the CDF through the event-time knots, anchored at
    /// `F(0) = 0`.
    ///
    /// When the largest observation is censored the curve never reaches 1;
    /// a pragmatic tail knot extends the final cell's slope (and at least
    /// past the largest censoring bound) until the CDF closes. Errors when
    /// there are no exact events to interpolate through.
    pub fn to_interpolated(&self) -> Result<InterpolatedEmpirical> {
        if self.times.is_empty() {
            return Err(DistError::DegenerateSample {
                reason: "all observations censored; survival curve never leaves 1",
            });
        }
        let mut points = vec![(0.0, 0.0)];
        for (t, s) in self.times.iter().zip(&self.survival) {
            points.push((*t, 1.0 - s));
        }
        let s_last = *self.survival.last().expect("non-empty");
        let (t_last, f_last) = *points.last().expect("non-empty");
        if s_last <= 0.0 {
            points.last_mut().expect("non-empty").1 = 1.0;
        } else {
            // Extend the last cell's slope until the CDF reaches 1, but at
            // least past the deepest censoring bound (we know S stays at
            // `s_last` out to `max_observed`).
            let (t_prev, f_prev) = points[points.len() - 2];
            let slope = (f_last - f_prev) / (t_last - t_prev);
            let mut t_end = t_last + s_last / slope;
            if t_end <= self.max_observed {
                t_end = self.max_observed * (1.0 + 1e-9) + 1e-12;
            }
            points.push((t_end, 1.0));
        }
        InterpolatedEmpirical::from_cdf_points(&points)
    }
}

/// Censored maximum-likelihood fit of an `Exponential(λ)`: the classical
/// total-time-on-test estimator `λ̂ = d / Σᵢ xᵢ` with `d` the number of
/// exact events and the sum running over *all* observations. With no
/// censoring this is exactly the uncensored MLE `1 / x̄`.
pub fn fit_exponential_censored(observations: &[Observation]) -> Result<CensoredFit<Exponential>> {
    validate(observations)?;
    let d = observations.iter().filter(|o| !o.is_censored()).count();
    if d == 0 {
        return Err(DistError::DegenerateSample {
            reason: "all observations censored; exponential rate unidentifiable",
        });
    }
    let total: f64 = observations.iter().map(|o| o.value).sum();
    let lambda = d as f64 / total;
    Ok(CensoredFit {
        dist: Exponential::new(lambda)?,
        n: observations.len(),
        n_censored: observations.len() - d,
        iterations: 0,
    })
}

const WEIBULL_MAX_ITER: usize = 500;

/// Censored maximum-likelihood fit of a `Weibull(λ, κ)` by profile
/// likelihood: the shape solves
/// `Σ xᵢ^κ ln xᵢ / Σ xᵢ^κ − 1/κ = (1/d) Σ_exact ln xᵢ`
/// (sums over all observations, `d` exact events), then
/// `λ̂ = (Σ xᵢ^κ / d)^{1/κ}`. Solved by bisection on `κ ∈ [10⁻⁴, 10⁴]`
/// with values rescaled by the sample maximum so `xᵢ^κ` cannot overflow.
/// With no censoring the equations are the classical uncensored Weibull
/// MLE.
pub fn fit_weibull_censored(observations: &[Observation]) -> Result<CensoredFit<Weibull>> {
    validate(observations)?;
    let exact = exact_values(observations);
    let d = exact.len();
    if d < 2 {
        return Err(DistError::DegenerateSample {
            reason: "need at least two exact events to fit a Weibull shape",
        });
    }
    if exact.iter().all(|&x| x == exact[0]) && observations.len() == d {
        return Err(DistError::DegenerateSample {
            reason: "all observations identical; Weibull shape diverges",
        });
    }
    let scale_ref = observations
        .iter()
        .map(|o| o.value)
        .fold(f64::NEG_INFINITY, f64::max);
    let mean_exact_log: f64 = exact.iter().map(|x| x.ln()).sum::<f64>() / d as f64;
    // g(κ) = A(κ) − 1/κ − mean_exact_log, increasing in κ, with
    // A(κ) = Σ (xᵢ/m)^κ ln xᵢ / Σ (xᵢ/m)^κ (rescaling cancels in A).
    let g = |kappa: f64| -> f64 {
        let mut num = 0.0;
        let mut den = 0.0;
        for o in observations {
            let w = (o.value / scale_ref).powf(kappa);
            num += w * o.value.ln();
            den += w;
        }
        num / den - 1.0 / kappa - mean_exact_log
    };
    let (mut lo, mut hi) = (1e-4, 1e4);
    let (g_lo, g_hi) = (g(lo), g(hi));
    if !g_lo.is_finite() || !g_hi.is_finite() || g_lo > 0.0 || g_hi < 0.0 {
        return Err(DistError::DegenerateSample {
            reason: "Weibull profile likelihood has no root in [1e-4, 1e4]",
        });
    }
    let mut iterations = 0usize;
    let mut kappa = 0.5 * (lo + hi);
    while hi - lo > 1e-12 * kappa.max(1.0) {
        iterations += 1;
        if iterations > WEIBULL_MAX_ITER {
            return Err(DistError::NonConvergence {
                what: "Weibull censored MLE (profile bisection)",
                iterations,
            });
        }
        kappa = 0.5 * (lo + hi);
        let val = g(kappa);
        if !val.is_finite() {
            return Err(DistError::NonConvergence {
                what: "Weibull censored MLE (non-finite profile value)",
                iterations,
            });
        }
        if val < 0.0 {
            lo = kappa;
        } else {
            hi = kappa;
        }
    }
    let sum_pow: f64 = observations
        .iter()
        .map(|o| (o.value / scale_ref).powf(kappa))
        .sum();
    let lambda = scale_ref * (sum_pow / d as f64).powf(1.0 / kappa);
    Ok(CensoredFit {
        dist: Weibull::new(lambda, kappa)?,
        n: observations.len(),
        n_censored: observations.len() - d,
        iterations,
    })
}

/// Standard-normal hazard `φ(a)/Φ̄(a)` (the inverse Mills ratio), with the
/// asymptotic expansion `a + 1/a` once the survival underflows.
fn normal_hazard(a: f64) -> f64 {
    let sf = norm_sf(a);
    if sf > 1e-280 {
        norm_pdf(a) / sf
    } else {
        a + 1.0 / a
    }
}

const LOGNORMAL_MAX_ITER: usize = 1000;

/// Censored maximum-likelihood fit of a `LogNormal(μ, σ)` by
/// expectation–maximization in log space: each censored observation at `c`
/// contributes the conditional moments
/// `E[z | z > ln c] = μ + σ·h(a)` and
/// `E[z² | z > ln c] = μ² + σ² + σ·(ln c + μ)·h(a)` with
/// `a = (ln c − μ)/σ` and `h` the inverse Mills ratio, after which `μ, σ²`
/// are re-estimated as the completed-sample mean and variance.
///
/// With **zero** censored observations this delegates to [`fit_lognormal`]
/// and is therefore bit-identical to the uncensored fit. Errors with
/// [`DistError::NonConvergence`] when EM fails to settle and
/// [`DistError::DegenerateSample`] when the log-variance collapses.
pub fn fit_lognormal_censored(observations: &[Observation]) -> Result<CensoredFit<LogNormal>> {
    validate(observations)?;
    let exact = exact_values(observations);
    let n_censored = observations.len() - exact.len();
    if n_censored == 0 {
        let fit = fit_lognormal(&exact)?;
        return Ok(CensoredFit {
            dist: fit.dist,
            n: fit.n,
            n_censored: 0,
            iterations: 0,
        });
    }
    if exact.is_empty() {
        return Err(DistError::DegenerateSample {
            reason: "all observations censored; LogNormal parameters unidentifiable",
        });
    }
    if observations.len() < 2 {
        return Err(DistError::DegenerateSample {
            reason: "need at least two observations to fit a LogNormal",
        });
    }
    let n = observations.len() as f64;
    let exact_logs: Vec<f64> = exact.iter().map(|x| x.ln()).collect();
    let censor_logs: Vec<f64> = observations
        .iter()
        .filter(|o| o.is_censored())
        .map(|o| o.value.ln())
        .collect();
    // Initialize from all values as if exact — biased low, EM corrects.
    let all_logs: Vec<f64> = observations.iter().map(|o| o.value.ln()).collect();
    let mut mu = all_logs.iter().sum::<f64>() / n;
    let mut var = all_logs.iter().map(|l| (l - mu) * (l - mu)).sum::<f64>() / n;
    if var <= 0.0 {
        // Constant stream with mixed censoring: give EM a seed scale.
        var = 0.25;
    }
    let mut sigma = var.sqrt();
    let sum_exact: f64 = exact_logs.iter().sum();
    let sum_exact_sq: f64 = exact_logs.iter().map(|z| z * z).sum();
    let mut iterations = 0usize;
    loop {
        iterations += 1;
        if iterations > LOGNORMAL_MAX_ITER {
            return Err(DistError::NonConvergence {
                what: "LogNormal censored MLE (EM)",
                iterations,
            });
        }
        let mut s1 = sum_exact;
        let mut s2 = sum_exact_sq;
        for &c in &censor_logs {
            let a = (c - mu) / sigma;
            let h = normal_hazard(a);
            s1 += mu + sigma * h;
            s2 += mu * mu + sigma * sigma + sigma * (c + mu) * h;
        }
        let mu_next = s1 / n;
        let var_next = s2 / n - mu_next * mu_next;
        if !mu_next.is_finite() || !var_next.is_finite() || var_next <= 1e-300 {
            return Err(DistError::DegenerateSample {
                reason: "log-variance collapsed during censored EM",
            });
        }
        let sigma_next = var_next.sqrt();
        let done = (mu_next - mu).abs() <= 1e-10 * (1.0 + mu.abs())
            && (sigma_next - sigma).abs() <= 1e-10 * (1.0 + sigma);
        mu = mu_next;
        sigma = sigma_next;
        if done {
            break;
        }
    }
    Ok(CensoredFit {
        dist: LogNormal::new(mu, sigma)?,
        n: observations.len(),
        n_censored,
        iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::ContinuousDistribution;
    use rand::SeedableRng;

    fn censor_at(
        dist: &dyn ContinuousDistribution,
        bound: f64,
        n: usize,
        seed: u64,
    ) -> Vec<Observation> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let x = dist.sample(&mut rng);
                if x > bound {
                    Observation::censored(bound)
                } else {
                    Observation::exact(x)
                }
            })
            .collect()
    }

    #[test]
    fn km_matches_ecdf_without_censoring() {
        let obs: Vec<Observation> = [1.0, 2.0, 3.0, 4.0]
            .iter()
            .map(|&x| Observation::exact(x))
            .collect();
        let km = KaplanMeier::fit(&obs).unwrap();
        assert_eq!(km.survival(0.5), 1.0);
        assert!((km.survival(1.0) - 0.75).abs() < 1e-12);
        assert!((km.survival(2.5) - 0.5).abs() < 1e-12);
        assert_eq!(km.survival(4.0), 0.0);
    }

    #[test]
    fn km_textbook_example() {
        // Events at 1, 3 (death), censorings at 2, 4.
        let obs = vec![
            Observation::exact(1.0),
            Observation::censored(2.0),
            Observation::exact(3.0),
            Observation::censored(4.0),
        ];
        let km = KaplanMeier::fit(&obs).unwrap();
        // S(1) = 3/4; at t=3 risk set {3, 4}: S(3) = 3/4 · 1/2 = 3/8.
        assert!((km.survival(1.5) - 0.75).abs() < 1e-12);
        assert!((km.survival(3.5) - 0.375).abs() < 1e-12);
        // Curve never reaches 0 (last observation censored).
        assert!(km.survival(100.0) > 0.0);
    }

    #[test]
    fn km_interpolation_closes_the_tail() {
        let obs = vec![
            Observation::exact(1.0),
            Observation::censored(2.0),
            Observation::exact(3.0),
            Observation::censored(4.0),
        ];
        let km = KaplanMeier::fit(&obs).unwrap();
        let d = km.to_interpolated().unwrap();
        assert_eq!(d.cdf(0.0), 0.0);
        let upper = d.support().upper().unwrap();
        assert!(upper > 4.0, "tail knot must pass the deepest censoring");
        assert!((d.cdf(upper) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn km_all_censored_has_flat_curve_and_no_interpolation() {
        let obs = vec![Observation::censored(1.0), Observation::censored(2.0)];
        let km = KaplanMeier::fit(&obs).unwrap();
        assert_eq!(km.survival(10.0), 1.0);
        assert!(km.to_interpolated().is_err());
    }

    #[test]
    fn exponential_censored_closed_form() {
        // 2 events (1.0, 2.0) + 1 censoring at 3.0: λ = 2 / 6.
        let obs = vec![
            Observation::exact(1.0),
            Observation::exact(2.0),
            Observation::censored(3.0),
        ];
        let fit = fit_exponential_censored(&obs).unwrap();
        assert!((fit.dist.lambda() - 2.0 / 6.0).abs() < 1e-12);
        assert_eq!(fit.n_censored, 1);
        // Uncensored reduction: λ = 1/mean.
        let exact: Vec<Observation> = [1.0, 2.0, 3.0].map(Observation::exact).to_vec();
        let fit = fit_exponential_censored(&exact).unwrap();
        assert!((fit.dist.lambda() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn weibull_censored_recovers_parameters() {
        let truth = Weibull::new(2.0, 1.5).unwrap();
        let obs = censor_at(&truth, truth.quantile(0.8), 8000, 11);
        let fit = fit_weibull_censored(&obs).unwrap();
        assert!(fit.n_censored > 1000, "20% censoring expected");
        assert!(
            (fit.dist.lambda() - 2.0).abs() < 0.1,
            "lambda {}",
            fit.dist.lambda()
        );
        assert!(
            (fit.dist.kappa() - 1.5).abs() < 0.1,
            "kappa {}",
            fit.dist.kappa()
        );
    }

    #[test]
    fn lognormal_censored_recovers_parameters() {
        let truth = LogNormal::new(1.0, 0.5).unwrap();
        let obs = censor_at(&truth, truth.quantile(0.7), 8000, 12);
        let fit = fit_lognormal_censored(&obs).unwrap();
        assert!(fit.n_censored > 1500, "30% censoring expected");
        assert!((fit.dist.mu() - 1.0).abs() < 0.05, "mu {}", fit.dist.mu());
        assert!(
            (fit.dist.sigma() - 0.5).abs() < 0.05,
            "sigma {}",
            fit.dist.sigma()
        );
        assert!(fit.iterations > 0);
    }

    #[test]
    fn censored_fits_reject_degenerate_streams() {
        let all_censored = vec![Observation::censored(1.0), Observation::censored(2.0)];
        assert!(fit_exponential_censored(&all_censored).is_err());
        assert!(fit_weibull_censored(&all_censored).is_err());
        assert!(fit_lognormal_censored(&all_censored).is_err());
        assert!(fit_exponential_censored(&[]).is_err());
        assert!(fit_lognormal_censored(&[Observation::exact(-1.0)]).is_err());
        let constant: Vec<Observation> = (0..5).map(|_| Observation::exact(2.0)).collect();
        assert!(fit_weibull_censored(&constant).is_err());
        assert!(fit_lognormal_censored(&constant).is_err());
    }

    #[test]
    fn observation_serde_round_trip() {
        let obs = vec![Observation::exact(1.5), Observation::censored(2.5)];
        let json = serde_json::to_string(&obs).unwrap();
        let back: Vec<Observation> = serde_json::from_str(&json).unwrap();
        assert_eq!(obs, back);
    }
}
