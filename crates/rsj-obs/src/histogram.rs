//! A mergeable log-linear-bucket histogram for non-negative samples
//! (latencies, costs, counts).
//!
//! Values are bucketed by binary exponent with [`SUBBUCKETS`] linear
//! subdivisions per power of two, so any quantile estimate carries at most
//! `1/SUBBUCKETS` (~3%) relative error while the memory footprint stays
//! bounded by the sample *range*, not the sample *count*. Bucket counts are
//! integers, which makes [`Histogram::merge`] exactly associative and
//! commutative — per-shard histograms can be combined in any order and
//! yield identical quantiles (the floating-point `sum` is the only
//! order-sensitive field, and only in its last ulp).

use std::collections::BTreeMap;

/// Linear subdivisions per power of two. 32 bounds the relative quantile
/// error by 1/32 ≈ 3.1%.
pub const SUBBUCKETS: usize = 32;

/// Smallest/largest binary exponents tracked; values beyond are clamped
/// into the edge buckets. `2^-64 ≈ 5e-20` and `2^64 ≈ 1.8e19` cover every
/// quantity this workspace measures (seconds, costs, counts).
const MIN_EXP: i32 = -64;
const MAX_EXP: i32 = 64;

/// The bucket key reserved for exemplars of the underflow bucket
/// (values `<= 0`); real buckets clamp their exponent to
/// `[MIN_EXP, MAX_EXP]`, so this never collides.
const UNDERFLOW_KEY: (i32, usize) = (i32::MIN, 0);

/// An exemplar: one concrete sample retained alongside a bucket's count
/// so an aggregate can be traced back to an individual request.
#[derive(Debug, Clone, PartialEq)]
pub struct Exemplar {
    /// The sample value.
    pub value: f64,
    /// The trace id of the request that produced it.
    pub trace_id: String,
}

/// A mergeable log-linear histogram. See the module docs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Histogram {
    /// Bucket counts keyed by binary exponent; each entry holds
    /// [`SUBBUCKETS`] linear sub-bucket counts for `[2^e, 2^{e+1})`.
    buckets: BTreeMap<i32, Vec<u64>>,
    /// Samples `<= 0` (a separate bucket: log buckets cannot hold them).
    zero: u64,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    /// Most recent traced sample per bucket, keyed like `buckets` plus
    /// [`UNDERFLOW_KEY`]. Only populated by [`Histogram::record_with_exemplar`].
    exemplars: BTreeMap<(i32, usize), Exemplar>,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: BTreeMap::new(),
            zero: 0,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            exemplars: BTreeMap::new(),
        }
    }

    /// Records one sample. Non-finite values are dropped (they carry no
    /// position on the bucket axis); zero and negative values land in a
    /// dedicated underflow bucket.
    pub fn record(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        if value <= 0.0 {
            self.zero += 1;
            return;
        }
        let (exp, sub) = bucket_of(value);
        self.buckets
            .entry(exp)
            .or_insert_with(|| vec![0; SUBBUCKETS])[sub] += 1;
    }

    /// Records one sample and retains it as its bucket's exemplar
    /// (last-writer-wins: the bucket remembers its most recent traced
    /// sample). Non-finite values are dropped exactly as in
    /// [`Histogram::record`].
    pub(crate) fn record_with_exemplar(&mut self, value: f64, trace_id: &str) {
        if !value.is_finite() {
            return;
        }
        let key = if value <= 0.0 {
            UNDERFLOW_KEY
        } else {
            bucket_of(value)
        };
        self.record(value);
        self.exemplars.insert(
            key,
            Exemplar {
                value,
                trace_id: trace_id.to_string(),
            },
        );
    }

    /// Number of recorded (finite) samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples.
    pub(crate) fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Estimates the `q`-quantile (`q` in `[0, 1]`) from the buckets.
    ///
    /// Returns 0 for an empty histogram. The estimate is the midpoint of
    /// the bucket containing the rank-`⌈q·n⌉` sample, clamped to the exact
    /// observed `[min, max]`, so the relative error is bounded by half a
    /// bucket width (≤ 1/[`SUBBUCKETS`]).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = self.zero;
        if rank <= seen {
            // The rank falls among zero/negative samples; min is exact for
            // the common all-non-negative case.
            return self.min.min(0.0);
        }
        for (&exp, subs) in &self.buckets {
            for (i, &c) in subs.iter().enumerate() {
                seen += c;
                if rank <= seen {
                    let lower = exp2(exp) * (1.0 + i as f64 / SUBBUCKETS as f64);
                    let upper = exp2(exp) * (1.0 + (i + 1) as f64 / SUBBUCKETS as f64);
                    return (0.5 * (lower + upper)).clamp(self.min, self.max);
                }
            }
        }
        self.max
    }

    /// The median estimate.
    pub(crate) fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// The 95th-percentile estimate.
    pub(crate) fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// The 99th-percentile estimate.
    pub(crate) fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Adds every bucket of `other` into `self`. Exactly associative and
    /// commutative on counts/min/max (see the module docs).
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum += other.sum;
        self.zero += other.zero;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (&exp, subs) in &other.buckets {
            let mine = self
                .buckets
                .entry(exp)
                .or_insert_with(|| vec![0; SUBBUCKETS]);
            for (m, &s) in mine.iter_mut().zip(subs) {
                *m += s;
            }
        }
        // Exemplars are most-recent-wins: the merged-in histogram is the
        // newer batch, so its exemplars replace ours where both exist.
        for (key, exemplar) in &other.exemplars {
            self.exemplars.insert(*key, exemplar.clone());
        }
    }

    /// The non-empty buckets as `(lower, upper, count, exemplar)` in
    /// ascending order, with the underflow bucket (values ≤ 0) first as
    /// `(0, 0, n, _)` when present; each carries its retained exemplar, if
    /// any. This is the exporters' view.
    pub fn nonzero_buckets_with_exemplars(&self) -> Vec<(f64, f64, u64, Option<&Exemplar>)> {
        let mut out = Vec::new();
        if self.zero > 0 {
            out.push((0.0, 0.0, self.zero, self.exemplars.get(&UNDERFLOW_KEY)));
        }
        for (&exp, subs) in &self.buckets {
            for (i, &c) in subs.iter().enumerate() {
                if c > 0 {
                    let lower = exp2(exp) * (1.0 + i as f64 / SUBBUCKETS as f64);
                    let upper = exp2(exp) * (1.0 + (i + 1) as f64 / SUBBUCKETS as f64);
                    out.push((lower, upper, c, self.exemplars.get(&(exp, i))));
                }
            }
        }
        out
    }
}

/// `2^exp` without `f64::powi`'s libm dependency question marks.
fn exp2(exp: i32) -> f64 {
    (exp as f64).exp2()
}

/// Maps a positive finite value to its (exponent, sub-bucket) pair.
fn bucket_of(value: f64) -> (i32, usize) {
    debug_assert!(value > 0.0 && value.is_finite());
    // The IEEE-754 exponent field gives floor(log2) exactly for normal
    // values — no rounding trouble at powers of two.
    let bits = value.to_bits();
    let raw_exp = ((bits >> 52) & 0x7ff) as i32;
    let exp = if raw_exp == 0 {
        MIN_EXP // subnormal: clamp into the lowest tracked decade
    } else {
        (raw_exp - 1023).clamp(MIN_EXP, MAX_EXP)
    };
    let lower = exp2(exp);
    let frac = (value / lower - 1.0).clamp(0.0, 1.0 - f64::EPSILON);
    let sub = ((frac * SUBBUCKETS as f64) as usize).min(SUBBUCKETS - 1);
    (exp, sub)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert!(h.nonzero_buckets_with_exemplars().is_empty());
    }

    #[test]
    fn exact_on_powers_of_two() {
        let mut h = Histogram::new();
        for _ in 0..100 {
            h.record(4.0);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.min(), 4.0);
        assert_eq!(h.max(), 4.0);
        // Single-bucket histograms clamp to [min, max]: exact.
        assert_eq!(h.p50(), 4.0);
        assert_eq!(h.p99(), 4.0);
    }

    #[test]
    fn zero_and_negative_land_in_underflow() {
        let mut h = Histogram::new();
        h.record(0.0);
        h.record(-3.0);
        h.record(1.0);
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), -3.0);
        let buckets = h.nonzero_buckets_with_exemplars();
        assert_eq!(buckets[0], (0.0, 0.0, 2, None));
    }

    #[test]
    fn non_finite_is_dropped() {
        let mut h = Histogram::new();
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn quantile_relative_error_is_bounded() {
        let mut h = Histogram::new();
        let samples: Vec<f64> = (1..=10_000).map(|i| i as f64 / 100.0).collect();
        for &v in &samples {
            h.record(v);
        }
        for q in [0.01, 0.25, 0.5, 0.75, 0.95, 0.99, 1.0] {
            let exact = samples[((q * samples.len() as f64).ceil() as usize).max(1) - 1];
            let est = h.quantile(q);
            let rel = (est - exact).abs() / exact;
            assert!(rel <= 1.0 / SUBBUCKETS as f64, "q={q}: {est} vs {exact}");
        }
    }

    #[test]
    fn merge_equals_recording_everything() {
        let a_samples: Vec<f64> = (1..500).map(|i| (i as f64).sqrt()).collect();
        let b_samples: Vec<f64> = (1..800).map(|i| (i as f64) * 0.17).collect();
        let record = |h: &mut Histogram, samples: &[f64]| samples.iter().for_each(|&v| h.record(v));
        let mut merged = Histogram::new();
        record(&mut merged, &a_samples);
        record(&mut merged, &b_samples);
        let mut a = Histogram::new();
        record(&mut a, &a_samples);
        let mut b = Histogram::new();
        record(&mut b, &b_samples);
        a.merge(&b);
        assert_eq!(a.count(), merged.count());
        assert_eq!(a.min(), merged.min());
        assert_eq!(a.max(), merged.max());
        assert_eq!(
            a.nonzero_buckets_with_exemplars(),
            merged.nonzero_buckets_with_exemplars()
        );
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(a.quantile(q), merged.quantile(q));
        }
    }

    #[test]
    fn exemplars_track_the_most_recent_traced_sample() {
        let mut h = Histogram::new();
        h.record(4.05); // untraced: counted, no exemplar
        h.record_with_exemplar(4.20, "trace-a");
        h.record_with_exemplar(4.21, "trace-b"); // same sub-bucket: replaces
        h.record_with_exemplar(-1.0, "trace-z"); // underflow bucket
        h.record_with_exemplar(f64::NAN, "dropped");
        assert_eq!(h.count(), 4);
        let buckets = h.nonzero_buckets_with_exemplars();
        assert_eq!(buckets.len(), 3);
        let (lower, upper, count, exemplar) = &buckets[0];
        assert_eq!((*lower, *upper, *count), (0.0, 0.0, 1));
        assert_eq!(exemplar.unwrap().trace_id, "trace-z");
        assert!(buckets[1].3.is_none(), "untraced bucket has no exemplar");
        let exemplar = buckets[2].3.expect("traced bucket keeps an exemplar");
        assert_eq!(exemplar.trace_id, "trace-b");
        assert_eq!(exemplar.value, 4.21);
    }

    #[test]
    fn merge_adopts_the_newer_batch_exemplars() {
        let mut a = Histogram::new();
        a.record_with_exemplar(2.5, "old");
        let mut b = Histogram::new();
        b.record_with_exemplar(2.5, "new");
        a.merge(&b);
        let buckets = a.nonzero_buckets_with_exemplars();
        assert_eq!(buckets[0].2, 2);
        assert_eq!(buckets[0].3.unwrap().trace_id, "new");
    }

    #[test]
    fn extreme_values_clamp_into_edge_buckets() {
        let mut h = Histogram::new();
        h.record(1e-300);
        h.record(1e300);
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), 1e-300);
        assert_eq!(h.max(), 1e300);
        // Quantiles stay within the observed range despite clamping.
        assert!(h.p50() >= 1e-300 && h.p50() <= 1e300);
    }
}
