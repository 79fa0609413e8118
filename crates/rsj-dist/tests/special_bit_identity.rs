//! Bit-identity oracles for the per-law special-function constants.
//!
//! `BetaDist`, `GammaDist` and `TruncatedNormal` compute their `ln Γ` and
//! `Φ` constants once at construction, and the Newton inverses take
//! `ln x` (and `ln(1 − x)`) once per step for both the incomplete function
//! and the density. The free functions build the same cores per call.
//!
//! The [`oracle`] module keeps verbatim copies of the implementations
//! that recomputed those constants on every call, down to the normal
//! CDF/quantile built on them; the two Newton inverses carry the current
//! loop and start, and `erfc`, which has no constant to cache, is the
//! crate's own, so the suite still isolates the cached constants. Every
//! test here asserts that the current code returns the same bits as those
//! copies — for the free functions
//! and for `pdf`, `cdf`, `survival`, `quantile`,
//! `conditional_mean_above` and `sample` of each law whose code path runs
//! through them (Beta, Gamma, truncated normal, lognormal, Weibull; the
//! other Table 1 laws use closed forms only).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rsj_dist::special::{
    beta_inc, beta_inc_unreg, gamma_p, gamma_q, inverse_beta_inc, inverse_gamma_p, norm_cdf,
    norm_quantile, norm_sf, upper_incomplete_gamma,
};
use rsj_dist::{
    BetaDist, ContinuousDistribution, DistSpec, GammaDist, LogNormal, TruncatedNormal, Weibull,
};

/// Verbatim copies of the special functions as they were before the
/// per-law constants were cached. Only `pub` visibility, the lint
/// attribute and the names of the two iteration caps differ, and both
/// inverses follow the current loop: they stop on an exact hit
/// (`err == 0`), the beta inverse once a Newton step is at most 2 ulp
/// (it stopped on `dx ≤ 1e-16·x` before), and the gamma inverse starts
/// from the bracket (0, ∞) and doubles `x` until a point above the root
/// makes it finite (it first searched for a finite `hi` by evaluating
/// `P(a, hi)`, a value it never reused). Both stop, without bisecting, on
/// a Newton step within that tolerance, taking it only when it lands
/// strictly inside the bracket; both start a root below 1e-4 from the
/// series' leading term in log space and return 0 for a root below the
/// smallest subnormal (the gamma start took `exp` before `powf`, so it
/// underflowed first). `ln_gamma`, `gamma`, `norm_pdf` and `erfc` are
/// used from the crate: `erfc` is fdlibm's rational approximation, with no
/// constant to cache (it was `Q(½, x²)`).
#[allow(clippy::excessive_precision)]
mod oracle {
    pub use rsj_dist::special::erfc;
    use rsj_dist::special::{gamma, ln_gamma, norm_pdf};

    // ln(2⁻¹⁰⁷⁴), the log of the smallest subnormal.
    const LN_MIN_SUBNORMAL: f64 = -744.440_071_921_381_3;
    const MAX_ITER_GAMMA: usize = 400;
    const MAX_ITER_BETA: usize = 300;
    const EPS: f64 = 1e-16;
    const FPMIN: f64 = f64::MIN_POSITIVE / EPS;

    fn gamma_p_series(a: f64, x: f64) -> f64 {
        let mut ap = a;
        let mut sum = 1.0 / a;
        let mut del = sum;
        for _ in 0..MAX_ITER_GAMMA {
            ap += 1.0;
            del *= x / ap;
            sum += del;
            if del.abs() < sum.abs() * EPS {
                break;
            }
        }
        sum * (-x + a * x.ln() - ln_gamma(a)).exp()
    }

    fn gamma_q_cf(a: f64, x: f64) -> f64 {
        let mut b = x + 1.0 - a;
        let mut c = 1.0 / FPMIN;
        let mut d = 1.0 / b;
        let mut h = d;
        for i in 1..=MAX_ITER_GAMMA {
            let an = -(i as f64) * (i as f64 - a);
            b += 2.0;
            d = an * d + b;
            if d.abs() < FPMIN {
                d = FPMIN;
            }
            c = b + an / c;
            if c.abs() < FPMIN {
                c = FPMIN;
            }
            d = 1.0 / d;
            let del = d * c;
            h *= del;
            if (del - 1.0).abs() <= EPS {
                break;
            }
        }
        (-x + a * x.ln() - ln_gamma(a)).exp() * h
    }

    pub fn gamma_p(a: f64, x: f64) -> f64 {
        assert!(a > 0.0, "gamma_p: a must be positive, got {a}");
        assert!(x >= 0.0, "gamma_p: x must be non-negative, got {x}");
        if x == 0.0 {
            return 0.0;
        }
        if x < a + 1.0 {
            gamma_p_series(a, x)
        } else {
            1.0 - gamma_q_cf(a, x)
        }
    }

    pub fn gamma_q(a: f64, x: f64) -> f64 {
        assert!(a > 0.0, "gamma_q: a must be positive, got {a}");
        assert!(x >= 0.0, "gamma_q: x must be non-negative, got {x}");
        if x == 0.0 {
            return 1.0;
        }
        if x < a + 1.0 {
            1.0 - gamma_p_series(a, x)
        } else {
            gamma_q_cf(a, x)
        }
    }

    pub fn upper_incomplete_gamma(a: f64, x: f64) -> f64 {
        gamma_q(a, x) * gamma(a)
    }

    pub fn inverse_gamma_p(a: f64, p: f64) -> f64 {
        assert!(a > 0.0, "inverse_gamma_p: a must be positive, got {a}");
        assert!(
            (0.0..=1.0).contains(&p),
            "inverse_gamma_p: p must be in [0, 1], got {p}"
        );
        if p == 0.0 {
            return 0.0;
        }
        if p == 1.0 {
            return f64::INFINITY;
        }

        let gln = ln_gamma(a);
        let a1 = a - 1.0;

        // The leading series term P(a, x) ≈ x^a / (a Γ(a)), in log space:
        // 0 when the root underflows, the start when it is below 1e-4.
        let ln_x0 = (p.ln() + a.ln() + gln) / a;
        if ln_x0 < LN_MIN_SUBNORMAL {
            return 0.0;
        }

        // Initial guess.
        let mut x = if ln_x0.exp() < 1e-4 {
            ln_x0.exp()
        } else if a > 1.0 {
            // Wilson–Hilferty starting point.
            let z = norm_quantile(p);
            let t = 1.0 - 1.0 / (9.0 * a) + z / (3.0 * a.sqrt());
            if t > 0.0 {
                a * t * t * t
            } else {
                // Deep lower tail where Wilson–Hilferty breaks down: use the
                // leading series term.
                ln_x0.exp()
            }
        } else {
            let t = 1.0 - a * (0.253 + a * 0.12);
            if p < t {
                (p / t).powf(1.0 / a)
            } else {
                1.0 - (1.0 - (p - t) / (1.0 - t)).ln()
            }
        };
        if !x.is_finite() || x <= 0.0 {
            x = a; // always a valid interior point
        }

        // Bracketed Newton on (0, ∞): a step that leaves the bracket
        // bisects it once `hi` is finite and doubles `x` before, as does
        // an underflowed density.
        let mut lo = 0.0;
        let mut hi = f64::INFINITY;
        for _ in 0..200 {
            let err = gamma_p(a, x) - p;
            if err == 0.0 {
                break;
            }
            if err > 0.0 {
                hi = x;
            } else {
                lo = x;
            }
            let pdf = (-x + a1 * x.ln() - gln).exp();
            let mut xn = if pdf > 0.0 { x - err / pdf } else { f64::NAN };
            if xn.is_finite() && (xn - x).abs() <= 1e-15 * xn.abs().max(1e-300) {
                if xn > lo && xn < hi {
                    x = xn;
                }
                break;
            }
            if !xn.is_finite() || xn <= lo || xn >= hi {
                xn = if hi < f64::INFINITY {
                    0.5 * (lo + hi)
                } else {
                    2.0 * x
                };
            }
            let dx = (xn - x).abs();
            x = xn;
            if dx <= 1e-15 * x.abs().max(1e-300) || (hi < f64::INFINITY && hi - lo <= 1e-15 * hi) {
                break;
            }
        }
        x
    }

    fn betacf(a: f64, b: f64, x: f64) -> f64 {
        let qab = a + b;
        let qap = a + 1.0;
        let qam = a - 1.0;
        let mut c = 1.0;
        let mut d = 1.0 - qab * x / qap;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        d = 1.0 / d;
        let mut h = d;
        for m in 1..=MAX_ITER_BETA {
            let m = m as f64;
            let m2 = 2.0 * m;
            // Even step.
            let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
            d = 1.0 + aa * d;
            if d.abs() < FPMIN {
                d = FPMIN;
            }
            c = 1.0 + aa / c;
            if c.abs() < FPMIN {
                c = FPMIN;
            }
            d = 1.0 / d;
            h *= d * c;
            // Odd step.
            let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
            d = 1.0 + aa * d;
            if d.abs() < FPMIN {
                d = FPMIN;
            }
            c = 1.0 + aa / c;
            if c.abs() < FPMIN {
                c = FPMIN;
            }
            d = 1.0 / d;
            let del = d * c;
            h *= del;
            if (del - 1.0).abs() <= EPS {
                break;
            }
        }
        h
    }

    pub fn ln_beta(a: f64, b: f64) -> f64 {
        assert!(a > 0.0 && b > 0.0, "ln_beta: parameters must be positive");
        ln_gamma(a) + ln_gamma(b) - ln_gamma(a + b)
    }

    pub fn beta(a: f64, b: f64) -> f64 {
        ln_beta(a, b).exp()
    }

    pub fn beta_inc(a: f64, b: f64, x: f64) -> f64 {
        assert!(a > 0.0 && b > 0.0, "beta_inc: parameters must be positive");
        assert!(
            (0.0..=1.0).contains(&x),
            "beta_inc: x must be in [0, 1], got {x}"
        );
        if x == 0.0 {
            return 0.0;
        }
        if x == 1.0 {
            return 1.0;
        }
        let bt =
            (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp();
        if x < (a + 1.0) / (a + b + 2.0) {
            bt * betacf(a, b, x) / a
        } else {
            1.0 - bt * betacf(b, a, 1.0 - x) / b
        }
    }

    pub fn beta_inc_unreg(a: f64, b: f64, x: f64) -> f64 {
        beta_inc(a, b, x) * beta(a, b)
    }

    pub fn inverse_beta_inc(a: f64, b: f64, p: f64) -> f64 {
        assert!(
            a > 0.0 && b > 0.0,
            "inverse_beta_inc: parameters must be positive"
        );
        assert!(
            (0.0..=1.0).contains(&p),
            "inverse_beta_inc: p must be in [0, 1], got {p}"
        );
        if p == 0.0 {
            return 0.0;
        }
        if p == 1.0 {
            return 1.0;
        }

        // The leading series term I_x(a, b) ≈ x^a / (a B(a, b)), in log
        // space: 0 when the root underflows, the start when it is below 1e-4.
        let ln_x0 = (p.ln() + a.ln() + ln_beta(a, b)) / a;
        if ln_x0 < LN_MIN_SUBNORMAL {
            return 0.0;
        }

        // A&S 26.5.22 initial guess.
        let mut x;
        if ln_x0.exp() < 1e-4 {
            x = ln_x0.exp();
        } else if a >= 1.0 && b >= 1.0 {
            let pp = if p < 0.5 { p } else { 1.0 - p };
            let t = (-2.0 * pp.ln()).sqrt();
            let mut w = (2.30753 + t * 0.27061) / (1.0 + t * (0.99229 + t * 0.04481)) - t;
            if p < 0.5 {
                w = -w;
            }
            let al = (w * w - 3.0) / 6.0;
            let h = 2.0 / (1.0 / (2.0 * a - 1.0) + 1.0 / (2.0 * b - 1.0));
            let ww = w * (al + h).sqrt() / h
                - (1.0 / (2.0 * b - 1.0) - 1.0 / (2.0 * a - 1.0))
                    * (al + 5.0 / 6.0 - 2.0 / (3.0 * h));
            x = a / (a + b * (2.0 * ww).exp());
        } else {
            let lna = (a / (a + b)).ln();
            let lnb = (b / (a + b)).ln();
            let t = (a * lna).exp() / a;
            let u = (b * lnb).exp() / b;
            let w = t + u;
            x = if p < t / w {
                (a * w * p).powf(1.0 / a)
            } else {
                1.0 - (b * w * (1.0 - p)).powf(1.0 / b)
            };
        }

        // Bracketed Newton on (0, 1): bisection whenever the Newton step leaves
        // the bracket or the density degenerates.
        let afac = -ln_beta(a, b);
        let a1 = a - 1.0;
        let b1 = b - 1.0;
        let mut lo = 0.0;
        let mut hi = 1.0;
        if !x.is_finite() || x <= 0.0 || x >= 1.0 {
            x = 0.5;
        }
        for _ in 0..200 {
            let err = beta_inc(a, b, x) - p;
            if err == 0.0 {
                break;
            }
            if err > 0.0 {
                hi = x;
            } else {
                lo = x;
            }
            let pdf = (a1 * x.ln() + b1 * (1.0 - x).ln() + afac).exp();
            let mut xn = if pdf > 0.0 && pdf.is_finite() {
                x - err / pdf
            } else {
                f64::NAN
            };
            if xn.is_finite() && (xn - x).abs() <= 2.0 * f64::EPSILON * xn.max(1e-300) {
                if xn > lo && xn < hi {
                    x = xn;
                }
                break;
            }
            if !xn.is_finite() || xn <= lo || xn >= hi {
                xn = 0.5 * (lo + hi);
            }
            let dx = (xn - x).abs();
            x = xn;
            if dx <= 2.0 * f64::EPSILON * x.max(1e-300) || hi - lo <= f64::EPSILON * hi {
                break;
            }
        }
        x
    }

    pub fn norm_cdf(x: f64) -> f64 {
        0.5 * erfc(-x / std::f64::consts::SQRT_2)
    }

    pub fn norm_sf(x: f64) -> f64 {
        0.5 * erfc(x / std::f64::consts::SQRT_2)
    }

    // Acklam's coefficients for the inverse normal CDF.
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.02425;

    pub fn norm_quantile(p: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&p),
            "norm_quantile: p must be in [0, 1], got {p}"
        );
        if p == 0.0 {
            return f64::NEG_INFINITY;
        }
        if p == 1.0 {
            return f64::INFINITY;
        }

        let x = if p < P_LOW {
            // Lower tail.
            let q = (-2.0 * p.ln()).sqrt();
            (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
                / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
        } else if p <= 1.0 - P_LOW {
            // Central region.
            let q = p - 0.5;
            let r = q * q;
            (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
                / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
        } else {
            // Upper tail (by symmetry).
            let q = (-2.0 * (1.0 - p).ln()).sqrt();
            -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
                / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
        };

        // One Halley refinement step pushes the ~1e-9 approximation error down
        // to machine precision.
        let e = norm_cdf(x) - p;
        let u = e / norm_pdf(x);
        x - u / (1.0 + x * u / 2.0)
    }
}

/// A law whose evaluation runs through the cached constants, with the
/// pre-change method bodies (verbatim, over the [`oracle`] functions) as
/// its reference.
#[derive(Debug, Clone, Copy)]
enum Law {
    Beta { alpha: f64, beta: f64 },
    Gamma { shape: f64, rate: f64 },
    TruncatedNormal { mu: f64, sigma: f64, a: f64 },
    LogNormal { mu: f64, sigma: f64 },
    Weibull { lambda: f64, kappa: f64 },
}

impl Law {
    /// The Table 1 laws that run through the cached constants.
    fn table1() -> Vec<Law> {
        DistSpec::paper_table1()
            .into_iter()
            .filter_map(|(_, spec)| match spec {
                DistSpec::Beta { alpha, beta } => Some(Law::Beta { alpha, beta }),
                DistSpec::Gamma { alpha, beta } => Some(Law::Gamma {
                    shape: alpha,
                    rate: beta,
                }),
                DistSpec::TruncatedNormal { mu, sigma, a } => {
                    Some(Law::TruncatedNormal { mu, sigma, a })
                }
                DistSpec::LogNormal { mu, sigma } => Some(Law::LogNormal { mu, sigma }),
                DistSpec::Weibull { lambda, kappa } => Some(Law::Weibull { lambda, kappa }),
                _ => None,
            })
            .collect()
    }

    fn build(self) -> Box<dyn ContinuousDistribution> {
        match self {
            Law::Beta { alpha, beta } => Box::new(BetaDist::new(alpha, beta).unwrap()),
            Law::Gamma { shape, rate } => Box::new(GammaDist::new(shape, rate).unwrap()),
            Law::TruncatedNormal { mu, sigma, a } => {
                Box::new(TruncatedNormal::new(mu, sigma, a).unwrap())
            }
            Law::LogNormal { mu, sigma } => Box::new(LogNormal::new(mu, sigma).unwrap()),
            Law::Weibull { lambda, kappa } => Box::new(Weibull::new(lambda, kappa).unwrap()),
        }
    }

    fn pdf(self, t: f64) -> Option<f64> {
        Some(match self {
            Law::Beta { alpha, beta } => {
                let ln_b = oracle::ln_beta(alpha, beta);
                if !(0.0..=1.0).contains(&t) {
                    return Some(0.0);
                }
                if t == 0.0 || t == 1.0 {
                    let exponent = if t == 0.0 { alpha } else { beta };
                    return Some(match exponent.partial_cmp(&1.0).unwrap() {
                        std::cmp::Ordering::Less => f64::INFINITY,
                        std::cmp::Ordering::Equal => (-ln_b).exp(),
                        std::cmp::Ordering::Greater => 0.0,
                    });
                }
                ((alpha - 1.0) * t.ln() + (beta - 1.0) * (1.0 - t).ln() - ln_b).exp()
            }
            Law::Gamma { shape, rate } => {
                if t < 0.0 {
                    return Some(0.0);
                }
                if t == 0.0 {
                    return Some(match shape.partial_cmp(&1.0).unwrap() {
                        std::cmp::Ordering::Less => f64::INFINITY,
                        std::cmp::Ordering::Equal => rate,
                        std::cmp::Ordering::Greater => 0.0,
                    });
                }
                (shape * rate.ln() + (shape - 1.0) * t.ln()
                    - rate * t
                    - rsj_dist::special::ln_gamma(shape))
                .exp()
            }
            // Unchanged closed forms with no special-function constants.
            _ => return None,
        })
    }

    fn cdf(self, t: f64) -> f64 {
        match self {
            Law::Beta { alpha, beta } => {
                if t <= 0.0 {
                    0.0
                } else if t >= 1.0 {
                    1.0
                } else {
                    oracle::beta_inc(alpha, beta, t)
                }
            }
            Law::Gamma { shape, rate } => {
                if t <= 0.0 {
                    0.0
                } else {
                    oracle::gamma_p(shape, rate * t)
                }
            }
            Law::TruncatedNormal { mu, sigma, a } => {
                let tail_mass = oracle::norm_sf((a - mu) / sigma);
                if t <= a {
                    return 0.0;
                }
                let z = (t - mu) / sigma;
                let za = (a - mu) / sigma;
                ((oracle::norm_cdf(z) - oracle::norm_cdf(za)) / tail_mass).clamp(0.0, 1.0)
            }
            Law::LogNormal { mu, sigma } => {
                if t <= 0.0 {
                    0.0
                } else {
                    oracle::norm_cdf((t.ln() - mu) / sigma)
                }
            }
            Law::Weibull { lambda, kappa } => {
                if t <= 0.0 {
                    0.0
                } else {
                    -(-(t / lambda).powf(kappa)).exp_m1()
                }
            }
        }
    }

    fn survival(self, t: f64) -> f64 {
        match self {
            // The trait default.
            Law::Beta { .. } => (1.0 - self.cdf(t)).clamp(0.0, 1.0),
            Law::Gamma { shape, rate } => {
                if t <= 0.0 {
                    1.0
                } else {
                    oracle::gamma_q(shape, rate * t)
                }
            }
            Law::TruncatedNormal { mu, sigma, a } => {
                let tail_mass = oracle::norm_sf((a - mu) / sigma);
                if t <= a {
                    return 1.0;
                }
                let z = (t - mu) / sigma;
                (oracle::norm_sf(z) / tail_mass).clamp(0.0, 1.0)
            }
            Law::LogNormal { mu, sigma } => {
                if t <= 0.0 {
                    1.0
                } else {
                    oracle::norm_sf((t.ln() - mu) / sigma)
                }
            }
            Law::Weibull { lambda, kappa } => {
                if t <= 0.0 {
                    1.0
                } else {
                    (-(t / lambda).powf(kappa)).exp()
                }
            }
        }
    }

    fn quantile(self, p: f64) -> f64 {
        match self {
            Law::Beta { alpha, beta } => oracle::inverse_beta_inc(alpha, beta, p),
            Law::Gamma { shape, rate } => oracle::inverse_gamma_p(shape, p) / rate,
            Law::TruncatedNormal { mu, sigma, a } => {
                let tail_mass = oracle::norm_sf((a - mu) / sigma);
                if p == 0.0 {
                    return a;
                }
                if p == 1.0 {
                    return f64::INFINITY;
                }
                let fa = oracle::norm_cdf((a - mu) / sigma);
                mu + sigma * oracle::norm_quantile(fa + p * tail_mass)
            }
            Law::LogNormal { mu, sigma } => {
                if p == 0.0 {
                    return 0.0;
                }
                if p == 1.0 {
                    return f64::INFINITY;
                }
                (mu + sigma * oracle::norm_quantile(p)).exp()
            }
            Law::Weibull { lambda, kappa } => {
                if p == 1.0 {
                    return f64::INFINITY;
                }
                lambda * (-(-p).ln_1p()).powf(1.0 / kappa)
            }
        }
    }

    fn conditional_mean_above(self, tau: f64) -> f64 {
        match self {
            Law::Beta { alpha, beta } => {
                if tau <= 0.0 {
                    return alpha / (alpha + beta);
                }
                if tau >= 1.0 {
                    return 1.0;
                }
                let num = oracle::beta_inc_unreg(alpha + 1.0, beta, 1.0)
                    - oracle::beta_inc_unreg(alpha + 1.0, beta, tau);
                let den =
                    oracle::ln_beta(alpha, beta).exp() - oracle::beta_inc_unreg(alpha, beta, tau);
                if den <= 0.0 {
                    return 1.0;
                }
                (num / den).clamp(tau, 1.0)
            }
            Law::Gamma { shape, rate } => {
                if tau <= 0.0 {
                    return shape / rate;
                }
                let z = tau * rate;
                let upper = oracle::upper_incomplete_gamma(shape, z);
                if upper <= 0.0 {
                    return tau + 1.0 / rate;
                }
                shape / rate + (shape * z.ln() - z).exp() / (upper * rate)
            }
            Law::TruncatedNormal { mu, sigma, a } => {
                let hazard = |z: f64| {
                    if z > 30.0 {
                        return z + 1.0 / z - 2.0 / (z * z * z);
                    }
                    let sf = oracle::norm_sf(z);
                    rsj_dist::special::norm_pdf(z) / sf
                };
                let tau = tau.max(a);
                let z = (tau - mu) / sigma;
                mu + sigma * hazard(z)
            }
            Law::LogNormal { mu, sigma } => {
                if tau <= 0.0 {
                    return (mu + sigma * sigma / 2.0).exp();
                }
                let sqrt2 = std::f64::consts::SQRT_2;
                let ln_tau = tau.ln();
                let num = oracle::erfc((ln_tau - mu - sigma * sigma) / (sqrt2 * sigma));
                let den = oracle::erfc((ln_tau - mu) / (sqrt2 * sigma));
                if den <= 0.0 {
                    return tau;
                }
                (mu + sigma * sigma / 2.0).exp() * num / den
            }
            Law::Weibull { lambda, kappa } => {
                if tau <= 0.0 {
                    return lambda * rsj_dist::special::gamma(1.0 + 1.0 / kappa);
                }
                let z = (tau / lambda).powf(kappa);
                lambda * z.exp() * oracle::upper_incomplete_gamma(1.0 + 1.0 / kappa, z)
            }
        }
    }
}

fn same(what: &str, law: Law, at: f64, new: f64, old: f64) {
    assert_eq!(
        new.to_bits(),
        old.to_bits(),
        "{law:?} {what}({at}): {new} vs oracle {old}"
    );
}

/// Quantiles at every `p`, then `pdf`, `cdf`, `survival` and
/// `conditional_mean_above` at each finite quantile and at points on
/// either side of it.
fn check_law(law: Law, ps: &[f64]) {
    let d = law.build();
    for &p in ps {
        let q = law.quantile(p);
        same("quantile", law, p, d.quantile(p), q);
        if !q.is_finite() {
            continue;
        }
        for t in [q, 0.5 * q, 1.5 * q + 0.25] {
            same("cdf", law, t, d.cdf(t), law.cdf(t));
            same("survival", law, t, d.survival(t), law.survival(t));
            same(
                "conditional_mean_above",
                law,
                t,
                d.conditional_mean_above(t),
                law.conditional_mean_above(t),
            );
            if let Some(pdf) = law.pdf(t) {
                same("pdf", law, t, d.pdf(t), pdf);
            }
        }
    }
}

/// `sample` draws by inverse transform: the same uniforms through the
/// oracle quantile must give the same draws.
fn check_samples(law: Law, seed: u64, n: usize) {
    let d = law.build();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut oracle_rng = StdRng::seed_from_u64(seed);
    for i in 0..n {
        let u: f64 = oracle_rng.gen();
        same("sample", law, i as f64, d.sample(&mut rng), law.quantile(u));
    }
}

/// A regular grid on (0, 1) plus probabilities within 1e-7 of either end.
fn probabilities() -> Vec<f64> {
    let mut ps: Vec<f64> = (0..=100).map(|i| i as f64 / 100.0).collect();
    for tiny in [1e-7, 5e-8, 1e-9, 1e-12, 1e-16, f64::EPSILON] {
        ps.push(tiny);
        ps.push(1.0 - tiny);
    }
    ps.push(1e-300);
    ps
}

#[test]
fn table1_laws_match_the_oracles() {
    let laws = Law::table1();
    assert_eq!(
        laws.len(),
        5,
        "Beta, Gamma, TruncatedNormal, LogNormal, Weibull"
    );
    for law in laws {
        check_law(law, &probabilities());
        check_samples(law, 20190520, 2_000);
    }
}

#[test]
fn benchmark_pool_ranges_match_the_oracles() {
    // The ranges the benchmark's law pool draws from.
    let ps = probabilities();
    let steps = |lo: f64, hi: f64, k: usize| -> Vec<f64> {
        (0..=k)
            .map(|i| lo + (hi - lo) * i as f64 / k as f64)
            .collect()
    };
    for alpha in steps(1.5, 3.0, 6) {
        for beta in steps(1.5, 3.0, 6) {
            check_law(Law::Beta { alpha, beta }, &ps);
        }
    }
    for shape in steps(1.5, 3.5, 8) {
        for rate in [1.0, 2.0, 3.0] {
            check_law(Law::Gamma { shape, rate }, &ps);
        }
    }
    for kappa in steps(0.4, 0.8, 4) {
        check_law(
            Law::Weibull {
                lambda: 1.25,
                kappa,
            },
            &ps,
        );
    }
    for (mu, sigma) in [(6.0, 1.0), (8.0, 1.5), (10.0, 2.0)] {
        check_law(Law::TruncatedNormal { mu, sigma, a: 0.0 }, &ps);
    }
    // Heavier truncation than the pool uses.
    check_law(
        Law::TruncatedNormal {
            mu: 1.0,
            sigma: 2.0,
            a: 0.5,
        },
        &ps,
    );
    // Off-grid parameters, as the pool's uniforms produce them.
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..16 {
        let (u, v): (f64, f64) = (rng.gen(), rng.gen());
        let law = Law::Beta {
            alpha: 1.5 + 1.5 * u,
            beta: 1.5 + 1.5 * v,
        };
        check_law(law, &ps);
        check_samples(law, 11, 200);
        let law = Law::Gamma {
            shape: 1.5 + 2.0 * u,
            rate: 1.0 + 2.0 * v,
        };
        check_law(law, &ps);
        check_samples(law, 12, 200);
    }
}

#[test]
fn shapes_below_one_match_the_oracles() {
    let ps = probabilities();
    for (alpha, beta) in [(0.3, 0.7), (0.5, 0.5), (0.9, 2.0), (2.0, 0.4), (0.2, 5.0)] {
        let law = Law::Beta { alpha, beta };
        check_law(law, &ps);
        check_samples(law, 3, 500);
    }
    for shape in [0.1, 0.25, 0.5, 0.8, 0.99] {
        let law = Law::Gamma { shape, rate: 1.5 };
        check_law(law, &ps);
        check_samples(law, 4, 500);
    }
}

#[test]
fn free_functions_match_the_oracles() {
    let xs: Vec<f64> = (0..=64).map(|i| i as f64 / 64.0).collect();
    let shapes = [0.1, 0.5, 0.9, 1.0, 1.5, 2.0, 2.75, 3.5, 7.0, 20.0];
    for &a in &shapes {
        for &b in &shapes {
            for &x in &xs {
                let law = Law::Beta { alpha: a, beta: b };
                same(
                    "beta_inc",
                    law,
                    x,
                    beta_inc(a, b, x),
                    oracle::beta_inc(a, b, x),
                );
                same(
                    "beta_inc_unreg",
                    law,
                    x,
                    beta_inc_unreg(a, b, x),
                    oracle::beta_inc_unreg(a, b, x),
                );
            }
            for p in probabilities() {
                let law = Law::Beta { alpha: a, beta: b };
                same(
                    "inverse_beta_inc",
                    law,
                    p,
                    inverse_beta_inc(a, b, p),
                    oracle::inverse_beta_inc(a, b, p),
                );
            }
        }
        let law = Law::Gamma {
            shape: a,
            rate: 1.0,
        };
        for x in (0..=120).map(|i| i as f64 * 0.25) {
            same("gamma_p", law, x, gamma_p(a, x), oracle::gamma_p(a, x));
            same("gamma_q", law, x, gamma_q(a, x), oracle::gamma_q(a, x));
            same(
                "upper_incomplete_gamma",
                law,
                x,
                upper_incomplete_gamma(a, x),
                oracle::upper_incomplete_gamma(a, x),
            );
        }
        for p in probabilities() {
            same(
                "inverse_gamma_p",
                law,
                p,
                inverse_gamma_p(a, p),
                oracle::inverse_gamma_p(a, p),
            );
        }
    }
    let law = Law::LogNormal {
        mu: 0.0,
        sigma: 1.0,
    };
    for z in (-400..=400).map(|i| i as f64 / 40.0) {
        same("norm_cdf", law, z, norm_cdf(z), oracle::norm_cdf(z));
        same("norm_sf", law, z, norm_sf(z), oracle::norm_sf(z));
    }
    for p in probabilities() {
        same(
            "norm_quantile",
            law,
            p,
            norm_quantile(p),
            oracle::norm_quantile(p),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_beta_inputs_match(a in 0.05f64..12.0, b in 0.05f64..12.0, x in 0.0f64..1.0, p in 0.0f64..1.0) {
        prop_assert_eq!(beta_inc(a, b, x).to_bits(), oracle::beta_inc(a, b, x).to_bits());
        prop_assert_eq!(
            inverse_beta_inc(a, b, p).to_bits(),
            oracle::inverse_beta_inc(a, b, p).to_bits()
        );
        let law = Law::Beta { alpha: a, beta: b };
        let d = law.build();
        prop_assert_eq!(d.quantile(p).to_bits(), law.quantile(p).to_bits());
        prop_assert_eq!(d.cdf(x).to_bits(), law.cdf(x).to_bits());
        prop_assert_eq!(d.survival(x).to_bits(), law.survival(x).to_bits());
        prop_assert_eq!(
            d.conditional_mean_above(x).to_bits(),
            law.conditional_mean_above(x).to_bits()
        );
    }

    #[test]
    fn random_gamma_inputs_match(a in 0.05f64..25.0, rate in 0.1f64..5.0, x in 0.0f64..60.0, p in 0.0f64..1.0) {
        prop_assert_eq!(gamma_p(a, x).to_bits(), oracle::gamma_p(a, x).to_bits());
        prop_assert_eq!(gamma_q(a, x).to_bits(), oracle::gamma_q(a, x).to_bits());
        prop_assert_eq!(
            inverse_gamma_p(a, p).to_bits(),
            oracle::inverse_gamma_p(a, p).to_bits()
        );
        let law = Law::Gamma { shape: a, rate };
        let d = law.build();
        let t = x / rate;
        prop_assert_eq!(d.quantile(p).to_bits(), law.quantile(p).to_bits());
        prop_assert_eq!(d.cdf(t).to_bits(), law.cdf(t).to_bits());
        prop_assert_eq!(d.survival(t).to_bits(), law.survival(t).to_bits());
        prop_assert_eq!(
            d.conditional_mean_above(t).to_bits(),
            law.conditional_mean_above(t).to_bits()
        );
    }

    #[test]
    fn random_truncated_normals_match(mu in 0.0f64..12.0, sigma in 0.2f64..4.0, a in 0.0f64..6.0, p in 0.0f64..1.0, t in 0.0f64..20.0) {
        let law = Law::TruncatedNormal { mu, sigma, a };
        let d = law.build();
        prop_assert_eq!(d.quantile(p).to_bits(), law.quantile(p).to_bits());
        prop_assert_eq!(d.cdf(t).to_bits(), law.cdf(t).to_bits());
        prop_assert_eq!(d.survival(t).to_bits(), law.survival(t).to_bits());
        prop_assert_eq!(
            d.conditional_mean_above(t).to_bits(),
            law.conditional_mean_above(t).to_bits()
        );
    }
}
