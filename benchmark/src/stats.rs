//! Order statistics: the tail-percentile rule, quartiles as Python's
//! `statistics.quantiles` gives them, and medians of microsecond-rounded
//! stage durations.

/// A tail percentile is reported only with at least this many samples
/// beyond it.
pub const TAIL_BEYOND: usize = 10;

/// The tail quantile reported for `n` samples: the 99th percentile when
/// at least ten samples lie beyond it, else the highest quantile that
/// still leaves ten beyond (never below the median).
pub fn tail_quantile(n: usize) -> f64 {
    (1.0 - TAIL_BEYOND as f64 / n.max(1) as f64).clamp(0.5, 0.99)
}

/// Nearest-rank quantile of an ascending slice: the value at rank
/// `ceil(q·n)`, so exactly `n - ceil(q·n)` samples lie beyond it.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median and tail of a sample, with the tail's quantile and the count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub tail: f64,
    pub tail_q: f64,
}

pub fn summarize(mut values: Vec<f64>) -> Summary {
    values.sort_by(f64::total_cmp);
    let tail_q = tail_quantile(values.len());
    Summary {
        n: values.len(),
        p50: quantile(&values, 0.5),
        tail: quantile(&values, tail_q),
        tail_q,
    }
}

/// Samples each window of [`windowed`] holds at least, so that its
/// tail quantile is a true 99th percentile.
pub const WINDOW_SAMPLES: usize = 1000;

/// Medians over windows: the samples, in time order, are cut into at
/// most `max_windows` consecutive windows of at least
/// [`WINDOW_SAMPLES`] each (one window when there are fewer), and the
/// result holds the median of the windows' medians and of their tail
/// quantiles. A burst of interference then moves one window's values,
/// not the result.
pub fn windowed(values: &[f64], max_windows: usize) -> Summary {
    let windows = (values.len() / WINDOW_SAMPLES).clamp(1, max_windows.max(1));
    let size = values.len() / windows;
    let parts: Vec<Summary> = (0..windows)
        .map(|w| {
            let end = if w + 1 == windows {
                values.len()
            } else {
                (w + 1) * size
            };
            summarize(values[w * size..end].to_vec())
        })
        .collect();
    let median_of = |f: fn(&Summary) -> f64| quartiles(&parts.iter().map(f).collect::<Vec<_>>()).1;
    Summary {
        n: values.len(),
        p50: median_of(|s| s.p50),
        tail: median_of(|s| s.tail),
        tail_q: parts.iter().map(|s| s.tail_q).fold(1.0, f64::min),
    }
}

/// Quartiles `(q1, median, q3)` by the exclusive method of Python's
/// `statistics.quantiles(values, n=4)`; a single value is all three.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let len = data.len();
    if len < 2 {
        let v = data.first().copied().unwrap_or(0.0);
        return (v, v, v);
    }
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// The `q` quantile of durations recorded in whole microseconds, read as
/// grouped data: a duration `v` stands for the interval `[v - ½, v + ½)`
/// and the quantile interpolates inside the interval that holds it. A
/// plain order statistic of rounded data would read the same integer on
/// every run and hide any change smaller than a microsecond.
pub fn grouped_quantile(values_us: &[u64], q: f64) -> f64 {
    if values_us.is_empty() {
        return 0.0;
    }
    let mut sorted = values_us.to_vec();
    sorted.sort_unstable();
    let target = q * sorted.len() as f64;
    let mut below = 0usize;
    let mut i = 0;
    while i < sorted.len() {
        let v = sorted[i];
        let count = sorted[i..].iter().take_while(|&&x| x == v).count();
        if (below + count) as f64 >= target {
            return v as f64 - 0.5 + (target - below as f64) / count as f64;
        }
        below += count;
        i += count;
    }
    *sorted.last().expect("non-empty") as f64 + 0.5
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(100_000), 0.99);
        assert_eq!(tail_quantile(1000), 0.99);
        assert!((tail_quantile(500) - 0.98).abs() < 1e-12);
        assert_eq!(tail_quantile(5), 0.5);
        for n in [20, 57, 500, 999, 1000, 4321] {
            let sorted: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let tail = quantile(&sorted, tail_quantile(n));
            let beyond = sorted.iter().filter(|&&v| v > tail).count();
            assert!(beyond >= TAIL_BEYOND, "n={n}: {beyond} beyond");
            if n >= 1000 {
                assert_eq!(tail, quantile(&sorted, 0.99));
            }
        }
    }

    #[test]
    fn windowed_medians_shrug_off_one_bad_window() {
        let mut values: Vec<f64> = (0..5000).map(|i| (i % 100) as f64).collect();
        let whole = summarize(values.clone());
        let w = windowed(&values, 10);
        assert_eq!(
            (w.n, w.p50, w.tail, w.tail_q),
            (5000, whole.p50, whole.tail, 0.99)
        );
        // A stall in one of the five windows leaves the medians alone.
        for v in &mut values[1000..2000] {
            *v += 1000.0;
        }
        let w = windowed(&values, 10);
        assert_eq!((w.p50, w.tail), (whole.p50, whole.tail));
        // Too few samples for two windows: the whole run, by the tail rule.
        let few = windowed(&values[..500], 10);
        assert_eq!(few.tail_q, tail_quantile(500));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2, 5, 4], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 5.0, 4.0]), (1.5, 3.0, 4.5));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn grouped_median_interpolates_within_the_microsecond() {
        assert_eq!(grouped_quantile(&[1, 1, 1, 2, 2, 2], 0.5), 1.5);
        assert_eq!(grouped_quantile(&[4, 4, 4, 4], 0.5), 4.0);
        // More mass at 5 pulls the median up within [4.5, 5.5).
        let a = grouped_quantile(&[4, 5, 5, 5], 0.5);
        let b = grouped_quantile(&[4, 4, 5, 5], 0.5);
        assert!(a > b && (4.5..5.5).contains(&a), "{a} {b}");
        assert_eq!(grouped_quantile(&[], 0.5), 0.0);
    }
}
