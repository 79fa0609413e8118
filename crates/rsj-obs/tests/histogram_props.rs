//! Property tests for the log-linear histogram: merge associativity /
//! commutativity and the advertised quantile error bound.

use proptest::collection::vec;
use proptest::prelude::*;
use rsj_obs::{Histogram, SUBBUCKETS};

fn sample() -> impl proptest::strategy::Strategy<Value = f64> {
    // Spans several binary orders of magnitude, the range real
    // measurements (seconds, costs) occupy.
    1e-6..1e6f64
}

fn hist_of(samples: &[f64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in samples {
        h.record(v);
    }
    h
}

type Fingerprint = (u64, f64, f64, Vec<(f64, f64, u64)>, Vec<f64>);

/// The observable state the merge laws promise to preserve exactly:
/// buckets, counts, extrema and therefore every quantile.
fn fingerprint(h: &Histogram) -> Fingerprint {
    let quantiles = [0.01, 0.1, 0.5, 0.9, 0.95, 0.99, 1.0]
        .iter()
        .map(|&q| h.quantile(q))
        .collect();
    let buckets = h
        .nonzero_buckets_with_exemplars()
        .into_iter()
        .map(|(lower, upper, count, _)| (lower, upper, count))
        .collect();
    (h.count(), h.min(), h.max(), buckets, quantiles)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// (a ∪ b) ∪ c == a ∪ (b ∪ c): integer bucket counts make merge
    /// exactly associative.
    #[test]
    fn merge_is_associative(
        a in vec(sample(), 0..200),
        b in vec(sample(), 0..200),
        c in vec(sample(), 0..200),
    ) {
        let mut left = hist_of(&a);
        left.merge(&hist_of(&b));
        left.merge(&hist_of(&c));

        let mut bc = hist_of(&b);
        bc.merge(&hist_of(&c));
        let mut right = hist_of(&a);
        right.merge(&bc);

        prop_assert_eq!(fingerprint(&left), fingerprint(&right));
    }

    /// a ∪ b == b ∪ a.
    #[test]
    fn merge_is_commutative(
        a in vec(sample(), 0..300),
        b in vec(sample(), 0..300),
    ) {
        let mut ab = hist_of(&a);
        ab.merge(&hist_of(&b));
        let mut ba = hist_of(&b);
        ba.merge(&hist_of(&a));
        prop_assert_eq!(fingerprint(&ab), fingerprint(&ba));
    }

    /// Merging shards is indistinguishable from recording every sample
    /// into one histogram (the pattern the instrumented batch loops use).
    #[test]
    fn merge_equals_single_recording(
        a in vec(sample(), 1..300),
        b in vec(sample(), 1..300),
    ) {
        let mut merged = hist_of(&a);
        merged.merge(&hist_of(&b));
        let single = hist_of(&[a.as_slice(), b.as_slice()].concat());
        prop_assert_eq!(fingerprint(&merged), fingerprint(&single));
        prop_assert_eq!(merged.count(), (a.len() + b.len()) as u64);
    }

    /// Quantile estimates stay within the 1/SUBBUCKETS relative error
    /// bound of the exact order statistic.
    #[test]
    fn quantile_error_is_bounded(
        mut samples in vec(sample(), 10..500),
        q in 0.01..1.0f64,
    ) {
        let h = hist_of(&samples);
        samples.sort_by(|x, y| x.partial_cmp(y).unwrap());
        let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
        let exact = samples[rank - 1];
        let est = h.quantile(q);
        let rel = (est - exact).abs() / exact;
        prop_assert!(
            rel <= 1.0 / SUBBUCKETS as f64 + 1e-12,
            "q={}: estimate {} vs exact {} (rel {})", q, est, exact, rel
        );
    }
}
