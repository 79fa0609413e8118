//! Distribution conformance suite: every Table 1 instantiation must
//! satisfy the analytic identities its closed forms claim, checked against
//! numeric quadrature and sampling.

use rand::SeedableRng;
use rsj_dist::quadrature::{integrate, integrate_to_inf};
use rsj_dist::{ContinuousDistribution, DistSpec, Empirical};

fn all() -> Vec<(&'static str, Box<dyn ContinuousDistribution>)> {
    DistSpec::paper_table1()
        .into_iter()
        .map(|(n, s)| (n, s.build().unwrap()))
        .collect()
}

/// Upper integration limit: the support's end or a deep quantile.
fn hi(d: &dyn ContinuousDistribution) -> f64 {
    d.support()
        .upper()
        .unwrap_or_else(|| d.quantile(1.0 - 1e-13))
}

#[test]
fn pdf_is_nonnegative_everywhere() {
    for (name, d) in all() {
        let lo = d.support().lower();
        let top = hi(d.as_ref());
        for k in 0..=400 {
            let t = lo + (top - lo) * k as f64 / 400.0;
            assert!(d.pdf(t) >= 0.0, "{name}: pdf({t}) negative");
        }
        // And zero outside the support.
        assert_eq!(d.pdf(lo - 0.5), 0.0, "{name}");
        assert_eq!(d.pdf(-1.0), 0.0, "{name}");
    }
}

#[test]
fn pdf_integrates_to_one() {
    for (name, d) in all() {
        let lo = d.support().lower();
        let mass = match d.support().upper() {
            Some(b) => integrate(|t| d.pdf(t), lo, b, 1e-11).value,
            None => integrate_to_inf(|t| d.pdf(t), lo.max(1e-12), 1e-11).value,
        };
        assert!((mass - 1.0).abs() < 1e-5, "{name}: total mass {mass}");
    }
}

#[test]
fn cdf_is_monotone_and_bounded() {
    for (name, d) in all() {
        let lo = d.support().lower();
        let top = hi(d.as_ref());
        let mut prev = -1e-15;
        for k in 0..=500 {
            let t = lo + (top - lo) * k as f64 / 500.0;
            let f = d.cdf(t);
            assert!((0.0..=1.0).contains(&f), "{name}: cdf({t}) = {f}");
            assert!(f >= prev - 1e-12, "{name}: cdf not monotone at {t}");
            prev = f;
        }
        assert_eq!(d.cdf(lo - 1.0), 0.0, "{name}: cdf below support");
    }
}

#[test]
fn cdf_matches_integrated_pdf() {
    for (name, d) in all() {
        let lo = d.support().lower();
        for q in [0.2, 0.5, 0.8] {
            let t = d.quantile(q);
            let numeric = integrate(|x| d.pdf(x), lo.max(1e-12), t, 1e-11).value;
            assert!(
                (numeric - d.cdf(t)).abs() < 1e-6,
                "{name}: ∫pdf = {numeric} vs cdf {} at q={q}",
                d.cdf(t)
            );
        }
    }
}

#[test]
fn quantile_inverts_cdf_across_the_range() {
    for (name, d) in all() {
        for k in 1..100 {
            let p = k as f64 / 100.0;
            let t = d.quantile(p);
            assert!(
                (d.cdf(t) - p).abs() < 1e-7,
                "{name}: cdf(Q({p})) = {}",
                d.cdf(t)
            );
        }
    }
}

#[test]
fn survival_complements_cdf() {
    for (name, d) in all() {
        for q in [0.01, 0.3, 0.6, 0.95, 0.999] {
            let t = d.quantile(q);
            assert!(
                (d.cdf(t) + d.survival(t) - 1.0).abs() < 1e-9,
                "{name}: F + S ≠ 1 at q={q}"
            );
        }
    }
}

#[test]
fn mean_matches_quadrature() {
    for (name, d) in all() {
        let lo = d.support().lower();
        let numeric = match d.support().upper() {
            Some(b) => integrate(|t| t * d.pdf(t), lo, b, 1e-11).value,
            None => integrate_to_inf(|t| t * d.pdf(t), lo.max(1e-12), 1e-11).value,
        };
        assert!(
            (numeric - d.mean()).abs() / d.mean().abs().max(1e-9) < 1e-4,
            "{name}: numeric mean {numeric} vs closed {}",
            d.mean()
        );
    }
}

#[test]
fn variance_matches_quadrature() {
    for (name, d) in all() {
        let lo = d.support().lower();
        let m = d.mean();
        let f = |t: f64| (t - m) * (t - m) * d.pdf(t);
        let numeric = match d.support().upper() {
            Some(b) => integrate(f, lo, b, 1e-12).value,
            None => integrate_to_inf(f, lo.max(1e-12), 1e-12).value,
        };
        assert!(
            (numeric - d.variance()).abs() / d.variance().max(1e-9) < 1e-3,
            "{name}: numeric var {numeric} vs closed {}",
            d.variance()
        );
    }
}

#[test]
fn conditional_mean_matches_quadrature_everywhere() {
    for (name, d) in all() {
        for q in [0.1, 0.5, 0.9, 0.99] {
            let tau = d.quantile(q);
            let closed = d.conditional_mean_above(tau);
            let s = d.survival(tau);
            let integral = match d.support().upper() {
                Some(b) => integrate(|t| d.survival(t), tau, b, 1e-12).value,
                None => integrate_to_inf(|t| d.survival(t), tau, 1e-12).value,
            };
            let numeric = tau + integral / s;
            assert!(
                (closed - numeric).abs() / numeric < 1e-4,
                "{name} at q={q}: closed {closed} vs numeric {numeric}"
            );
        }
    }
}

#[test]
fn conditional_mean_is_monotone_in_tau() {
    for (name, d) in all() {
        let mut prev = d.mean();
        for k in 1..50 {
            let tau = d.quantile(k as f64 / 51.0);
            let cm = d.conditional_mean_above(tau);
            assert!(
                cm >= prev - 1e-7 * prev.abs().max(1.0),
                "{name}: conditional mean dips at τ={tau}: {cm} < {prev}"
            );
            prev = cm;
        }
    }
}

#[test]
fn sampling_matches_distribution_ks() {
    for (name, d) in all() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(777);
        let samples: Vec<f64> = (0..8000).map(|_| d.sample(&mut rng)).collect();
        let emp = Empirical::from_samples(&samples).unwrap();
        let ks = emp.ks_statistic(d.as_ref());
        // 0.1% critical value ≈ 1.95/√n ≈ 0.0218 for n = 8000.
        assert!(ks < 0.0218, "{name}: KS {ks}");
    }
}

#[test]
fn sample_moments_match() {
    for (name, d) in all() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(778);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let tol = 6.0 * d.std_dev() / (n as f64).sqrt();
        assert!(
            (mean - d.mean()).abs() < tol.max(1e-3 * d.mean().abs()),
            "{name}: sample mean {mean} vs {} (tol {tol})",
            d.mean()
        );
    }
}

#[test]
fn median_is_half_quantile() {
    for (name, d) in all() {
        assert!(
            (d.cdf(d.median()) - 0.5).abs() < 1e-8,
            "{name}: F(median) = {}",
            d.cdf(d.median())
        );
    }
}

#[test]
fn second_moment_consistency() {
    for (name, d) in all() {
        let m2 = d.second_moment();
        let expect = d.variance() + d.mean() * d.mean();
        assert!(
            (m2 - expect).abs() / expect < 1e-12,
            "{name}: E[X²] inconsistent"
        );
        assert!(m2.is_finite() && m2 > 0.0, "{name}: E[X²] = {m2}");
    }
}

#[test]
fn support_contains_all_quantiles() {
    for (name, d) in all() {
        let sup = d.support();
        for q in [0.0, 0.001, 0.5, 0.999] {
            let t = d.quantile(q);
            assert!(
                sup.contains(t) || (t - sup.lower()).abs() < 1e-9,
                "{name}: Q({q}) = {t} outside support"
            );
        }
    }
}
