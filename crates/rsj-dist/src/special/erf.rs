//! Error function family, built on the incomplete gamma functions:
//! `erf(x) = sgn(x) · P(1/2, x²)` and `erfc(x) = Q(1/2, x²)` for `x ≥ 0`.

use super::gamma::{gamma_p, gamma_q};
use super::normal::norm_quantile;

/// The error function `erf(x) = (2/√π) ∫₀ˣ e^{-t²} dt`.
pub fn erf(x: f64) -> f64 {
    if x == 0.0 {
        return 0.0;
    }
    let p = gamma_p(0.5, x * x);
    if x > 0.0 {
        p
    } else {
        -p
    }
}

/// The complementary error function `erfc(x) = 1 - erf(x)`, computed without
/// cancellation in the upper tail.
pub fn erfc(x: f64) -> f64 {
    if x == 0.0 {
        return 1.0;
    }
    if x > 0.0 {
        gamma_q(0.5, x * x)
    } else {
        1.0 + gamma_p(0.5, x * x)
    }
}

/// Inverse error function: returns `x` with `erf(x) = z` for `z ∈ (-1, 1)`.
///
/// Uses the identity `erf⁻¹(z) = Φ⁻¹((z+1)/2) / √2`.
pub fn erf_inv(z: f64) -> f64 {
    assert!(
        (-1.0..=1.0).contains(&z),
        "erf_inv: argument must be in [-1, 1], got {z}"
    );
    if z == 1.0 {
        return f64::INFINITY;
    }
    if z == -1.0 {
        return f64::NEG_INFINITY;
    }
    norm_quantile((z + 1.0) / 2.0) / std::f64::consts::SQRT_2
}

/// Inverse complementary error function: `x` with `erfc(x) = q`.
pub fn erfc_inv(q: f64) -> f64 {
    assert!(
        (0.0..=2.0).contains(&q),
        "erfc_inv: argument must be in [0, 2], got {q}"
    );
    erf_inv(1.0 - q)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64, msg: &str) {
        assert!(
            (a - b).abs() < tol * b.abs().max(1.0),
            "{msg}: got {a}, expected {b}"
        );
    }

    #[test]
    fn erf_known_values() {
        assert_close(erf(1.0), 0.842_700_792_949_714_9, 1e-13, "erf(1)");
        assert_close(erf(0.5), 0.520_499_877_813_046_5, 1e-13, "erf(0.5)");
        assert_close(erf(2.0), 0.995_322_265_018_952_7, 1e-13, "erf(2)");
        assert_close(erf(-1.0), -0.842_700_792_949_714_9, 1e-13, "erf(-1)");
    }

    #[test]
    fn erfc_upper_tail_precision() {
        // erfc(5) ≈ 1.5374597944280348e-12, impossible via 1 - erf(5).
        assert_close(erfc(5.0), 1.537_459_794_428_034_8e-12, 1e-9, "erfc(5)");
    }

    #[test]
    fn erf_erfc_complement() {
        for &x in &[-3.0, -1.0, -0.1, 0.0, 0.2, 1.5, 4.0] {
            assert_close(erf(x) + erfc(x), 1.0, 1e-13, &format!("complement x={x}"));
        }
    }

    #[test]
    fn erf_inv_round_trip() {
        for i in -99..=99 {
            let z = i as f64 / 100.0;
            let x = erf_inv(z);
            assert_close(erf(x), z, 1e-11, &format!("roundtrip z={z}"));
        }
    }

    #[test]
    fn erf_is_odd() {
        for &x in &[0.1, 0.7, 1.3, 2.5] {
            assert_close(erf(-x), -erf(x), 1e-14, &format!("odd x={x}"));
        }
    }

    #[test]
    fn cross_validate_against_statrs() {
        use statrs::function::erf as se;
        // statrs' erf is itself only ~1e-10 accurate, so the oracle
        // tolerance is loose; our own known-value tests above are tighter.
        for &x in &[-2.0, -0.5, 0.3, 1.0, 2.7] {
            assert_close(erf(x), se::erf(x), 1e-8, &format!("erf({x}) vs statrs"));
            assert_close(erfc(x), se::erfc(x), 1e-8, &format!("erfc({x}) vs statrs"));
        }
    }
}
