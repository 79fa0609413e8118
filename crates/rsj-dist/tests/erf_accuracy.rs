//! Accuracy of `erf` and `erfc` against correctly rounded values.
//!
//! `data/erf_reference.py` (standard-library Python) writes each function
//! correctly rounded on a grid over [−6, 27], both tails included;
//! `data/erf_reference.txt` is its output. The test measures both
//! functions against that table in ulps and fails if either's worst error
//! exceeds its bound.

use rsj_dist::special::{erf, erfc};

/// `erfc`'s worst error, in ulps.
const ERFC_BOUND: u64 = 2;
/// `erf`'s worst error, in ulps: the measured worst.
const ERF_BOUND: u64 = 1;

/// `[x, erf(x), erfc(x)]`, each correctly rounded.
fn reference() -> Vec<[f64; 3]> {
    let hex = |s: &str| f64::from_bits(u64::from_str_radix(s, 16).expect("hex bits"));
    include_str!("data/erf_reference.txt")
        .lines()
        .filter(|line| !line.starts_with('#'))
        .map(|line| {
            let fields: Vec<f64> = line.split_whitespace().map(hex).collect();
            fields.try_into().expect("three fields per line")
        })
        .collect()
}

/// Distance in ulps between two doubles of any sign: how many doubles lie
/// between them, counting from one to the other.
fn ulps(x: f64, y: f64) -> u64 {
    // Maps the doubles onto the integers in their order, with ±0 both at 0.
    let ordered = |v: f64| {
        let b = v.to_bits() as i64;
        if b < 0 {
            i64::MIN - b
        } else {
            b
        }
    };
    ordered(x).abs_diff(ordered(y))
}

#[test]
fn erf_and_erfc_stay_within_their_ulp_bounds() {
    let table = reference();
    assert!(table.len() > 2000, "{} points", table.len());
    assert!(table.iter().any(|r| r[0] <= -6.0) && table.iter().any(|r| r[0] >= 27.0));
    let mut over = Vec::new();
    for (name, f, column, bound) in [
        ("erf", erf as fn(f64) -> f64, 1, ERF_BOUND),
        ("erfc", erfc, 2, ERFC_BOUND),
    ] {
        let errors: Vec<(u64, f64)> = table
            .iter()
            .map(|r| (ulps(f(r[0]), r[column]), r[0]))
            .collect();
        let (max, at) = errors
            .iter()
            .fold((0, 0.0), |w, &e| if e.0 > w.0 { e } else { w });
        let mean = errors.iter().map(|e| e.0).sum::<u64>() as f64 / errors.len() as f64;
        let exact = errors.iter().filter(|e| e.0 == 0).count();
        println!(
            "{name:<5} max {max} ulp (x = {at:e}), mean {mean:.3} ulp, {exact}/{} correctly rounded",
            errors.len()
        );
        if max > bound {
            over.push(format!(
                "{name}: max {max} ulp at x = {at:e}, bound {bound}"
            ));
        }
    }
    assert!(over.is_empty(), "{over:#?}");
}

#[test]
fn ulps_count_across_zero() {
    assert_eq!(ulps(1.0, 1.0), 0);
    assert_eq!(ulps(0.0, -0.0), 0);
    assert_eq!(ulps(f64::from_bits(1), -f64::from_bits(1)), 2);
    assert_eq!(ulps(1.0, f64::from_bits(1.0f64.to_bits() + 3)), 3);
    assert_eq!(ulps(-1.0, f64::from_bits((-1.0f64).to_bits() + 3)), 3);
}
