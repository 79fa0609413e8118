// fdlibm's coefficients keep their published 21-digit decimal forms.
#![allow(clippy::excessive_precision)]

//! Error function family: a port of fdlibm's `s_erf.c`.
//!
//! ```text
//! ====================================================
//! Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
//!
//! Developed at SunPro, a Sun Microsystems, Inc. business.
//! Permission to use, copy, modify, and distribute this
//! software is freely granted, provided that this notice
//! is preserved.
//! ====================================================
//! ```
//!
//! Rational approximations on five intervals of `|x|`, with the
//! coefficients of `s_erf.c` digit for digit (the comment after each is its
//! bit pattern):
//!
//! 1. `|x| < 0.84375`: `erf(x) = x + x·R(x²)`, with
//!    `R = P/Q ≈ (2/√π − 1) + …` of degrees 4 and 5. `erfc` is `1 − erf`,
//!    rearranged as `½ − (x·R + (x − ½))` for `x ≥ ¼`.
//! 2. `0.84375 ≤ |x| < 1.25`: with `s = |x| − 1`,
//!    `erf(|x|) = erx + P(s)/Q(s)` and `erfc(|x|) = (1 − erx) − P(s)/Q(s)`,
//!    where `erx` is `erf(1)` rounded to 24 bits.
//! 3. `1.25 ≤ |x| < 1/0.35` and 4. `1/0.35 ≤ |x| < 28` (6 for `erf`):
//!    `erfc(|x|) = e^{−x² − 0.5625 + R(1/x²)/S(1/x²)} / |x|`, where `x²` is
//!    split as `z² + (x − z)(x + z)` with `z` the top 32 bits of `|x|`, so
//!    `z²` is exact.
//! 5. `|x| ≥ 28` (6 for `erf`): `erfc` underflows to 0, `erf` is `±1`.
//!
//! `tests/erf_accuracy.rs` measures both against correctly rounded values.

// erf(1) rounded to 24 bits, 0.84506291151.
const ERX: f64 = 8.45062911510467529297e-01; // 0x3FEB0AC1, 0x60000000

// [0, 0.84375).
const EFX: f64 = 1.28379167095512586316e-01; // 0x3FC06EBA, 0x8214DB69
const EFX8: f64 = 1.02703333676410069053e+00; // 0x3FF06EBA, 0x8214DB69
const PP: [f64; 5] = [
    1.28379167095512558561e-01,  // 0x3FC06EBA, 0x8214DB68
    -3.25042107247001499370e-01, // 0xBFD4CD7D, 0x691CB913
    -2.84817495755985104766e-02, // 0xBF9D2A51, 0xDBD7194F
    -5.77027029648944159157e-03, // 0xBF77A291, 0x236668E4
    -2.37630166566501626084e-05, // 0xBEF8EAD6, 0x120016AC
];
const QQ: [f64; 5] = [
    3.97917223959155352819e-01,  // 0x3FD97779, 0xCDDADC09
    6.50222499887672944485e-02,  // 0x3FB0A54C, 0x5536CEBA
    5.08130628187576562776e-03,  // 0x3F74D022, 0xC4D36B0F
    1.32494738004321644526e-04,  // 0x3F215DC9, 0x221C1A10
    -3.96022827877536812320e-06, // 0xBED09C43, 0x42A26120
];

// [0.84375, 1.25).
const PA: [f64; 7] = [
    -2.36211856075265944077e-03, // 0xBF6359B8, 0xBEF77538
    4.14856118683748331666e-01,  // 0x3FDA8D00, 0xAD92B34D
    -3.72207876035701323847e-01, // 0xBFD7D240, 0xFBB8C3F1
    3.18346619901161753674e-01,  // 0x3FD45FCA, 0x805120E4
    -1.10894694282396677476e-01, // 0xBFBC6398, 0x3D3E28EC
    3.54783043256182359371e-02,  // 0x3FA22A36, 0x599795EB
    -2.16637559486879084300e-03, // 0xBF61BF38, 0x0A96073F
];
const QA: [f64; 6] = [
    1.06420880400844228286e-01, // 0x3FBB3E66, 0x18EEE323
    5.40397917702171048937e-01, // 0x3FE14AF0, 0x92EB6F33
    7.18286544141962662868e-02, // 0x3FB2635C, 0xD99FE9A7
    1.26171219808761642112e-01, // 0x3FC02660, 0xE763351F
    1.36370839120290507362e-02, // 0x3F8BEDC2, 0x6B51DD1C
    1.19844998467991074170e-02, // 0x3F888B54, 0x5735151D
];

// [1.25, 1/0.35).
const RA: [f64; 8] = [
    -9.86494403484714822705e-03, // 0xBF843412, 0x600D6435
    -6.93858572707181764372e-01, // 0xBFE63416, 0xE4BA7360
    -1.05586262253232909814e+01, // 0xC0251E04, 0x41B0E726
    -6.23753324503260060396e+01, // 0xC04F300A, 0xE4CBA38D
    -1.62396669462573470355e+02, // 0xC0644CB1, 0x84282266
    -1.84605092906711035994e+02, // 0xC067135C, 0xEBCCABB2
    -8.12874355063065934246e+01, // 0xC0545265, 0x57E4D2F2
    -9.81432934416914548592e+00, // 0xC023A0EF, 0xC69AC25C
];
const SA: [f64; 8] = [
    1.96512716674392571292e+01,  // 0x4033A6B9, 0xBD707687
    1.37657754143519042600e+02,  // 0x4061350C, 0x526AE721
    4.34565877475229228821e+02,  // 0x407B290D, 0xD58A1A71
    6.45387271733267880336e+02,  // 0x40842B19, 0x21EC2868
    4.29008140027567833386e+02,  // 0x407AD021, 0x57700314
    1.08635005541779435134e+02,  // 0x405B28A3, 0xEE48AE2C
    6.57024977031928170135e+00,  // 0x401A47EF, 0x8E484A93
    -6.04244152148580987438e-02, // 0xBFAEEFF2, 0xEE749A62
];

// [1/0.35, 28).
const RB: [f64; 7] = [
    -9.86494292470009928597e-03, // 0xBF843412, 0x39E86F4A
    -7.99283237680523006574e-01, // 0xBFE993BA, 0x70C285DE
    -1.77579549177547519889e+01, // 0xC031C209, 0x555F995A
    -1.60636384855821916062e+02, // 0xC064145D, 0x43C5ED98
    -6.37566443368389627722e+02, // 0xC083EC88, 0x1375F228
    -1.02509513161107724954e+03, // 0xC0900461, 0x6A2E5992
    -4.83519191608651397019e+02, // 0xC07E384E, 0x9BDC383F
];
const SB: [f64; 7] = [
    3.03380607434824582924e+01,  // 0x403E568B, 0x261D5190
    3.25792512996573918826e+02,  // 0x40745CAE, 0x221B9F0A
    1.53672958608443695994e+03,  // 0x409802EB, 0x189D5118
    3.19985821950859553908e+03,  // 0x40A8FFB7, 0x688C246A
    2.55305040643316442583e+03,  // 0x40A3F219, 0xCEDF3BE6
    4.74528541206955367215e+02,  // 0x407DA874, 0xE79FE763
    -2.24409524465858183362e+01, // 0xC03670E2, 0x42712D62
];

const TINY: f64 = 1e-300;

/// The high 32 bits of `x` without its sign, as fdlibm compares them.
fn high_word(x: f64) -> u32 {
    (x.to_bits() >> 32) as u32 & 0x7fff_ffff
}

/// `c₀ + s·(c₁ + s·(c₂ + …))`.
fn poly(s: f64, c: &[f64]) -> f64 {
    c.iter().rev().fold(0.0, |acc, &ci| ci + s * acc)
}

/// `1 + s·(c₀ + s·(c₁ + …))`, the denominators' form.
fn poly1(s: f64, c: &[f64]) -> f64 {
    1.0 + s * poly(s, c)
}

/// `x·R(x²)` on interval 1.
fn small(x: f64) -> f64 {
    let z = x * x;
    x * (poly(z, &PP) / poly1(z, &QQ))
}

/// `P(s)/Q(s)` on interval 2, `s = |x| − 1`.
fn near_one(ax: f64) -> f64 {
    let s = ax - 1.0;
    poly(s, &PA) / poly1(s, &QA)
}

/// `erfc(|x|)` on intervals 3 and 4; `ix` is `|x|`'s high word and `bound`
/// the high word from which interval 4 applies (`s_erf.c` uses
/// 0x4006DB6E for `erf` and 0x4006DB6D for `erfc`).
fn tail(ax: f64, ix: u32, bound: u32) -> f64 {
    let s = 1.0 / (ax * ax);
    let (r, q) = if ix < bound {
        (poly(s, &RA), poly1(s, &SA))
    } else {
        (poly(s, &RB), poly1(s, &SB))
    };
    let z = f64::from_bits(ax.to_bits() & 0xffff_ffff_0000_0000);
    (-z * z - 0.5625).exp() * ((z - ax) * (z + ax) + r / q).exp() / ax
}

/// The error function `erf(x) = (2/√π) ∫₀ˣ e^{-t²} dt`.
pub fn erf(x: f64) -> f64 {
    let ix = high_word(x);
    if ix >= 0x7ff0_0000 {
        // NaN stays NaN, ±∞ gives ±1.
        return if x.is_nan() { x } else { x.signum() };
    }
    if ix < 0x3feb_0000 {
        // |x| < 0.84375.
        if ix < 0x3e30_0000 {
            // |x| < 2⁻²⁸; the scaling avoids underflow for subnormal x.
            if ix < 0x0080_0000 {
                return 0.125 * (8.0 * x + EFX8 * x);
            }
            return x + EFX * x;
        }
        return x + small(x);
    }
    if ix < 0x3ff4_0000 {
        // |x| < 1.25.
        let pq = near_one(x.abs());
        return if x >= 0.0 { ERX + pq } else { -ERX - pq };
    }
    if ix >= 0x4018_0000 {
        // |x| ≥ 6.
        return if x >= 0.0 { 1.0 - TINY } else { TINY - 1.0 };
    }
    let r = tail(x.abs(), ix, 0x4006_db6e);
    if x >= 0.0 {
        1.0 - r
    } else {
        r - 1.0
    }
}

/// The complementary error function `erfc(x) = 1 − erf(x)`, computed
/// without cancellation in the upper tail.
pub fn erfc(x: f64) -> f64 {
    let ix = high_word(x);
    if ix >= 0x7ff0_0000 {
        // NaN stays NaN, +∞ gives 0 and −∞ gives 2.
        return if x.is_nan() {
            x
        } else if x > 0.0 {
            0.0
        } else {
            2.0
        };
    }
    if ix < 0x3feb_0000 {
        // |x| < 0.84375.
        if ix < 0x3c70_0000 {
            // |x| < 2⁻⁵⁶.
            return 1.0 - x;
        }
        let xr = small(x);
        return if x < 0.25 {
            1.0 - (x + xr)
        } else {
            0.5 - (xr + (x - 0.5))
        };
    }
    if ix < 0x3ff4_0000 {
        // |x| < 1.25.
        let pq = near_one(x.abs());
        return if x >= 0.0 {
            (1.0 - ERX) - pq
        } else {
            1.0 + (ERX + pq)
        };
    }
    if ix < 0x403c_0000 {
        // |x| < 28.
        if x < 0.0 && ix >= 0x4018_0000 {
            // x ≤ −6.
            return 2.0 - TINY;
        }
        let r = tail(x.abs(), ix, 0x4006_db6d);
        return if x > 0.0 { r } else { 2.0 - r };
    }
    if x > 0.0 {
        TINY * TINY
    } else {
        2.0 - TINY
    }
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
        assert_close(erf(1.0), 0.842_700_792_949_714_9, 1e-15, "erf(1)");
        assert_close(erf(0.5), 0.520_499_877_813_046_5, 1e-15, "erf(0.5)");
        assert_close(erf(2.0), 0.995_322_265_018_952_7, 1e-15, "erf(2)");
        assert_close(erf(-1.0), -0.842_700_792_949_714_9, 1e-15, "erf(-1)");
    }

    #[test]
    fn erfc_upper_tail_precision() {
        // erfc(5) ≈ 1.5374597944280348e-12, impossible via 1 - erf(5).
        let relative = erfc(5.0) / 1.537_459_794_428_034_8e-12 - 1.0;
        assert!(relative.abs() < 1e-15, "erfc(5) off by {relative:e}");
    }

    #[test]
    fn erf_erfc_complement() {
        for &x in &[-3.0, -1.0, -0.1, 0.0, 0.2, 1.5, 4.0] {
            assert_close(erf(x) + erfc(x), 1.0, 1e-15, &format!("complement x={x}"));
        }
    }

    #[test]
    fn erf_is_odd() {
        for &x in &[1e-310, 1e-20, 0.1, 0.7, 1.0, 1.3, 2.5, 3.0, 7.0] {
            assert_eq!(erf(-x), -erf(x), "odd x={x}");
        }
    }

    #[test]
    fn special_arguments() {
        assert!(erf(f64::NAN).is_nan() && erfc(f64::NAN).is_nan());
        assert_eq!(erf(f64::INFINITY), 1.0);
        assert_eq!(erf(f64::NEG_INFINITY), -1.0);
        assert_eq!(erfc(f64::INFINITY), 0.0);
        assert_eq!(erfc(f64::NEG_INFINITY), 2.0);
        assert_eq!(erf(0.0), 0.0);
        assert_eq!(erf(-0.0).to_bits(), (-0.0f64).to_bits());
        assert_eq!(erfc(0.0), 1.0);
        assert_eq!(erfc(28.0), 0.0);
        assert_eq!(erfc(-30.0), 2.0);
        // erfc underflows gradually: erfc(26.5) ≈ 2e-307 is normal and
        // erfc(27) ≈ 5e-319 subnormal.
        assert!(erfc(26.5).is_normal());
        assert!(erfc(27.0) > 0.0 && !erfc(27.0).is_normal());
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
