// Lanczos/Acklam-style coefficient tables keep their published full-precision digits.
#![allow(clippy::excessive_precision)]

//! Gamma function family: `ln Γ`, `Γ`, regularized incomplete gamma
//! `P(a, x)` / `Q(a, x)`, their non-regularized variants and the inverse of
//! `P(a, ·)`.
//!
//! Implemented from scratch with the classic Lanczos approximation for
//! `ln Γ` and series / continued-fraction evaluation for the incomplete
//! functions (Lentz's algorithm). Accuracy is ~1e-14 relative over the
//! parameter ranges used by the distributions in this crate.

use super::normal::norm_quantile;

/// Lanczos coefficients for `g = 7`, `n = 9`.
const LANCZOS_G: f64 = 7.0;
const LANCZOS: [f64; 9] = [
    0.999_999_999_999_809_9,
    676.520_368_121_885_1,
    -1_259.139_216_722_402_8,
    771.323_428_777_653_1,
    -176.615_029_162_140_6,
    12.507_343_278_686_905,
    -0.138_571_095_265_720_12,
    9.984_369_578_019_572e-6,
    1.505_632_735_149_311_6e-7,
];

/// Natural log of the gamma function for `x > 0`.
///
/// Uses the Lanczos approximation with reflection for `x < 0.5`.
///
/// # Panics
/// Panics in debug builds if `x` is not finite. Returns `f64::INFINITY` for
/// `x <= 0` at poles.
pub fn ln_gamma(x: f64) -> f64 {
    debug_assert!(x.is_finite(), "ln_gamma: non-finite argument {x}");
    if x < 0.5 {
        // Reflection formula: Γ(x) Γ(1-x) = π / sin(πx).
        let sin_pi_x = (std::f64::consts::PI * x).sin();
        if sin_pi_x == 0.0 {
            return f64::INFINITY; // pole at non-positive integers
        }
        return std::f64::consts::PI.ln() - sin_pi_x.abs().ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = LANCZOS[0];
    for (i, &c) in LANCZOS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + LANCZOS_G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// The gamma function `Γ(x)` for `x > 0`.
pub fn gamma(x: f64) -> f64 {
    if x <= 0.0 {
        // Reflection for the (unused here) negative branch.
        let sin_pi_x = (std::f64::consts::PI * x).sin();
        if sin_pi_x == 0.0 {
            return f64::NAN;
        }
        return std::f64::consts::PI / (sin_pi_x * gamma(1.0 - x));
    }
    ln_gamma(x).exp()
}

const MAX_ITER: usize = 400;
const EPS: f64 = 1e-16;
const FPMIN: f64 = f64::MIN_POSITIVE / EPS;

/// Series representation of the lower regularized incomplete gamma `P(a, x)`.
/// Converges fast for `x < a + 1`. Takes `ln_x = x.ln()` and
/// `gln = ln Γ(a)` from the caller.
fn gamma_p_series(a: f64, x: f64, ln_x: f64, gln: f64) -> f64 {
    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut del = sum;
    for _ in 0..MAX_ITER {
        ap += 1.0;
        del *= x / ap;
        sum += del;
        if del.abs() < sum.abs() * EPS {
            break;
        }
    }
    sum * (-x + a * ln_x - gln).exp()
}

/// Continued-fraction representation of the upper regularized incomplete
/// gamma `Q(a, x)` (modified Lentz). Converges fast for `x >= a + 1`.
/// Takes `ln_x = x.ln()` and `gln = ln Γ(a)` from the caller.
fn gamma_q_cf(a: f64, x: f64, ln_x: f64, gln: f64) -> f64 {
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / FPMIN;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..=MAX_ITER {
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
    (-x + a * ln_x - gln).exp() * h
}

/// The regularized incomplete gamma functions of one shape `a`, with
/// `ln Γ(a)` computed once at construction.
///
/// [`gamma_p`], [`gamma_q`], [`upper_incomplete_gamma`] and
/// [`inverse_gamma_p`] build one of these per call; a distribution that
/// evaluates many points of the same shape (`GammaDist`) keeps one
/// instead. Either way the arithmetic, and so every bit of the result, is
/// the same.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct IncGamma {
    a: f64,
    /// `ln Γ(a)`.
    gln: f64,
}

impl IncGamma {
    /// The incomplete gamma functions of shape `a > 0` (checked by the
    /// callers: the free functions and `GammaDist::new`).
    pub(crate) fn new(a: f64) -> Self {
        debug_assert!(a > 0.0, "IncGamma: a must be positive, got {a}");
        Self {
            a,
            gln: ln_gamma(a),
        }
    }

    /// `ln Γ(a)`, as [`ln_gamma`] returns it.
    pub(crate) fn ln_gamma_a(&self) -> f64 {
        self.gln
    }

    /// `P(a, x)` given `ln_x = x.ln()`, so a caller that also needs the
    /// density at `x` takes the logarithm once.
    fn p_ln(&self, x: f64, ln_x: f64) -> f64 {
        if x == 0.0 {
            return 0.0;
        }
        if x < self.a + 1.0 {
            gamma_p_series(self.a, x, ln_x, self.gln)
        } else {
            1.0 - gamma_q_cf(self.a, x, ln_x, self.gln)
        }
    }

    /// Lower regularized incomplete gamma `P(a, x)` for `x >= 0`.
    ///
    /// # Panics
    /// Panics if `x` is negative (or NaN).
    pub(crate) fn p(&self, x: f64) -> f64 {
        assert!(x >= 0.0, "gamma_p: x must be non-negative, got {x}");
        self.p_ln(x, x.ln())
    }

    /// Upper regularized incomplete gamma `Q(a, x) = 1 - P(a, x)` for
    /// `x >= 0`, computed without cancellation in the upper tail.
    ///
    /// # Panics
    /// Panics if `x` is negative (or NaN).
    pub(crate) fn q(&self, x: f64) -> f64 {
        assert!(x >= 0.0, "gamma_q: x must be non-negative, got {x}");
        if x == 0.0 {
            return 1.0;
        }
        let ln_x = x.ln();
        if x < self.a + 1.0 {
            1.0 - gamma_p_series(self.a, x, ln_x, self.gln)
        } else {
            gamma_q_cf(self.a, x, ln_x, self.gln)
        }
    }

    /// Non-regularized upper incomplete gamma `Γ(a, x) = Q(a, x) · Γ(a)`.
    pub(crate) fn upper(&self, x: f64) -> f64 {
        self.q(x) * self.gln.exp()
    }

    /// Inverse of `P(a, ·)`: the `x` with `P(a, x) = p`, for
    /// `p ∈ [0, 1]`. Each Newton step takes `ln x` once, for both `P` and
    /// the density.
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 1]`.
    pub(crate) fn inverse_p(&self, p: f64) -> f64 {
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

        let (a, gln) = (self.a, self.gln);
        let a1 = a - 1.0;

        // Initial guess.
        let mut x = if a > 1.0 {
            // Wilson–Hilferty starting point.
            let z = norm_quantile(p);
            let t = 1.0 - 1.0 / (9.0 * a) + z / (3.0 * a.sqrt());
            if t > 0.0 {
                a * t * t * t
            } else {
                // Deep lower tail where Wilson–Hilferty breaks down: use the
                // leading series term P(a, x) ≈ x^a / (a Γ(a)).
                ((p * a).ln() + gln).exp().powf(1.0 / a)
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

        // Establish a bracket [lo, hi] with P(a, lo) < p < P(a, hi).
        let mut lo = 0.0;
        let mut hi = x.max(a);
        let mut guard = 0;
        while self.p(hi) < p {
            hi *= 2.0;
            guard += 1;
            if guard > 600 {
                break;
            }
        }
        if x <= lo || x >= hi {
            x = 0.5 * (lo + hi); // keep the seed inside the bracket
        }

        // Bracketed Newton: fall back to bisection whenever the Newton step
        // leaves the bracket or the density underflows. It stops on an
        // exact hit, once a Newton step moves `x` by at most 1e-15
        // relative, or when the bracket collapses.
        for _ in 0..200 {
            #[cfg(test)]
            super::count_newton_step();
            let ln_x = x.ln();
            let err = self.p_ln(x, ln_x) - p;
            if err == 0.0 {
                break;
            }
            if err > 0.0 {
                hi = x;
            } else {
                lo = x;
            }
            let pdf = (-x + a1 * ln_x - gln).exp();
            let mut xn = if pdf > 0.0 { x - err / pdf } else { f64::NAN };
            if !xn.is_finite() || xn <= lo || xn >= hi {
                xn = 0.5 * (lo + hi);
            }
            let dx = (xn - x).abs();
            x = xn;
            if dx <= 1e-15 * x.abs().max(1e-300) || hi - lo <= 1e-15 * hi {
                break;
            }
        }
        x
    }
}

/// Lower regularized incomplete gamma function
/// `P(a, x) = γ(a, x) / Γ(a)` for `a > 0`, `x >= 0`.
pub fn gamma_p(a: f64, x: f64) -> f64 {
    assert!(a > 0.0, "gamma_p: a must be positive, got {a}");
    IncGamma::new(a).p(x)
}

/// Upper regularized incomplete gamma function
/// `Q(a, x) = Γ(a, x) / Γ(a) = 1 - P(a, x)`.
pub fn gamma_q(a: f64, x: f64) -> f64 {
    assert!(a > 0.0, "gamma_q: a must be positive, got {a}");
    IncGamma::new(a).q(x)
}

/// Non-regularized upper incomplete gamma `Γ(a, x)`.
///
/// This is the form used by the Mean-by-Mean recurrences of Appendix B
/// (Weibull and Gamma distributions).
pub fn upper_incomplete_gamma(a: f64, x: f64) -> f64 {
    assert!(
        a > 0.0,
        "upper_incomplete_gamma: a must be positive, got {a}"
    );
    IncGamma::new(a).upper(x)
}

/// Inverse of the lower regularized incomplete gamma: returns `x` such that
/// `P(a, x) = p`.
///
/// Initial guess follows Numerical-Recipes (`invgammp`): Wilson–Hilferty for
/// `a > 1`, a two-piece low-`a` approximation otherwise, refined by a
/// safeguarded Newton iteration on `P(a, ·)`.
pub fn inverse_gamma_p(a: f64, p: f64) -> f64 {
    assert!(a > 0.0, "inverse_gamma_p: a must be positive, got {a}");
    IncGamma::new(a).inverse_p(p)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64, msg: &str) {
        let denom = b.abs().max(1.0);
        assert!(
            (a - b).abs() / denom < tol,
            "{msg}: got {a}, expected {b} (rel err {})",
            (a - b).abs() / denom
        );
    }

    #[test]
    fn ln_gamma_integers() {
        // Γ(n) = (n-1)!
        let facts: [f64; 8] = [1.0, 1.0, 2.0, 6.0, 24.0, 120.0, 720.0, 5040.0];
        for (n, &f) in facts.iter().enumerate() {
            assert_close(
                ln_gamma((n + 1) as f64),
                f.ln(),
                1e-13,
                &format!("ln_gamma({})", n + 1),
            );
        }
    }

    #[test]
    fn ln_gamma_half() {
        // Γ(1/2) = sqrt(π)
        assert_close(
            ln_gamma(0.5),
            0.5 * std::f64::consts::PI.ln(),
            1e-13,
            "ln_gamma(0.5)",
        );
        // Γ(3/2) = sqrt(π)/2
        assert_close(
            gamma(1.5),
            std::f64::consts::PI.sqrt() / 2.0,
            1e-13,
            "gamma(1.5)",
        );
    }

    #[test]
    fn ln_gamma_reflection_small() {
        // Γ(0.25) ≈ 3.6256099082219083119
        assert_close(gamma(0.25), 3.625_609_908_221_908_3, 1e-12, "gamma(0.25)");
        // Γ(0.1) ≈ 9.513507698668731836
        assert_close(gamma(0.1), 9.513_507_698_668_731_8, 1e-12, "gamma(0.1)");
    }

    #[test]
    fn gamma_p_known_values() {
        // P(1, x) = 1 - e^{-x}
        for &x in &[0.1, 0.5, 1.0, 2.0, 5.0, 10.0] {
            assert_close(gamma_p(1.0, x), 1.0 - (-x).exp(), 1e-13, "P(1,x)");
        }
        // P(0.5, x) = erf(sqrt(x)); spot value: erf(1) = 0.8427007929497149
        assert_close(
            gamma_p(0.5, 1.0),
            0.842_700_792_949_714_9,
            1e-12,
            "P(0.5,1)",
        );
    }

    #[test]
    fn gamma_q_complements_p() {
        for &a in &[0.3, 0.5, 1.0, 2.0, 3.7, 10.0] {
            for &x in &[0.01, 0.3, 1.0, 2.5, 8.0, 30.0] {
                let p = gamma_p(a, x);
                let q = gamma_q(a, x);
                assert_close(p + q, 1.0, 1e-12, &format!("P+Q at a={a}, x={x}"));
            }
        }
    }

    #[test]
    fn gamma_p_monotone_in_x() {
        let a = 2.0;
        let mut prev = -1.0;
        for i in 0..200 {
            let x = i as f64 * 0.1;
            let p = gamma_p(a, x);
            assert!(p >= prev, "P(a,·) must be nondecreasing");
            prev = p;
        }
    }

    #[test]
    fn inverse_gamma_p_round_trip() {
        for &a in &[0.4, 0.5, 1.0, 2.0, 3.0, 7.5, 20.0] {
            for &p in &[1e-6, 0.01, 0.1, 0.5, 0.9, 0.99, 1.0 - 1e-7] {
                let x = inverse_gamma_p(a, p);
                let back = gamma_p(a, x);
                assert_close(back, p, 1e-9, &format!("roundtrip a={a}, p={p}"));
            }
        }
    }

    #[test]
    fn inverse_gamma_p_edges() {
        assert_eq!(inverse_gamma_p(2.0, 0.0), 0.0);
        assert!(inverse_gamma_p(2.0, 1.0).is_infinite());
    }

    /// About 10% above the measured counts: 4,508 and 6,310 (4.5 and 6.3
    /// per point). Filing an exact hit as below the root, so that bisection
    /// walks away from it, takes about 15.5 per point on both grids.
    #[test]
    fn equal_probability_grids_take_few_newton_steps() {
        for (shape, rate, bound) in [(2.0, 2.0, 4_960), (0.6, 1.0, 6_940)] {
            let dist = crate::GammaDist::new(shape, rate).unwrap();
            let steps = super::super::grid_newton_steps(&dist);
            assert!(
                steps <= bound,
                "Gamma({shape}, {rate}): {steps} Newton steps over 1000 points, bound {bound}"
            );
        }
    }

    #[test]
    fn upper_incomplete_gamma_at_zero_is_gamma() {
        for &a in &[0.5, 1.0, 2.5, 4.0] {
            assert_close(
                upper_incomplete_gamma(a, 0.0),
                gamma(a),
                1e-12,
                "Γ(a,0) = Γ(a)",
            );
        }
    }

    #[test]
    fn cross_validate_against_statrs() {
        use statrs::function::gamma as sg;
        for &a in &[0.25, 0.5, 1.0, 2.0, 5.0, 12.0] {
            assert_close(ln_gamma(a), sg::ln_gamma(a), 1e-12, "ln_gamma vs statrs");
            for &x in &[0.05, 0.5, 1.5, 4.0, 20.0] {
                assert_close(
                    gamma_p(a, x),
                    sg::gamma_lr(a, x),
                    1e-10,
                    &format!("P({a},{x}) vs statrs"),
                );
            }
        }
    }
}
