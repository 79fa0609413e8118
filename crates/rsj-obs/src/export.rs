//! Registry exporters: Prometheus text exposition and JSON (via the
//! workspace's `serde_json` with its `float_roundtrip` convention, so a
//! snapshot → JSON → snapshot → JSON cycle is bit-for-bit stable).

use crate::histogram::Histogram;
use crate::metrics::Registry;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::path::Path;

/// One counter at snapshot time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterSample {
    /// Metric name.
    pub name: String,
    /// Accumulated value.
    pub value: u64,
}

/// One gauge at snapshot time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeSample {
    /// Metric name.
    pub name: String,
    /// Last-set value.
    pub value: f64,
}

/// An exported exemplar: the bucket's most recent traced sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExemplarSample {
    /// The sample value.
    pub value: f64,
    /// The trace id of the request that produced it; resolvable to a
    /// full timeline via the serving layer's `trace` op.
    pub trace_id: String,
}

/// One histogram bucket: samples in `[lower, upper)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BucketSample {
    /// Inclusive lower bound (0 for the underflow bucket).
    pub lower: f64,
    /// Exclusive upper bound (0 for the underflow bucket).
    pub upper: f64,
    /// Samples in the bucket.
    pub count: u64,
    /// The bucket's exemplar, when a traced sample landed here.
    #[serde(default)]
    pub exemplar: Option<ExemplarSample>,
}

/// One histogram at snapshot time, with precomputed summary quantiles.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSample {
    /// Metric name.
    pub name: String,
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: f64,
    /// Smallest sample (0 when empty).
    pub min: f64,
    /// Largest sample (0 when empty).
    pub max: f64,
    /// Median estimate.
    pub p50: f64,
    /// 95th-percentile estimate.
    pub p95: f64,
    /// 99th-percentile estimate.
    pub p99: f64,
    /// Non-empty buckets in ascending order.
    pub buckets: Vec<BucketSample>,
}

impl HistogramSample {
    /// Summarizes `histogram` under `name`.
    pub(crate) fn of(name: &str, histogram: &Histogram) -> Self {
        Self {
            name: name.to_string(),
            count: histogram.count(),
            sum: histogram.sum(),
            min: histogram.min(),
            max: histogram.max(),
            p50: histogram.p50(),
            p95: histogram.p95(),
            p99: histogram.p99(),
            buckets: histogram
                .nonzero_buckets_with_exemplars()
                .into_iter()
                .map(|(lower, upper, count, exemplar)| BucketSample {
                    lower,
                    upper,
                    count,
                    exemplar: exemplar.map(|e| ExemplarSample {
                        value: e.value,
                        trace_id: e.trace_id.clone(),
                    }),
                })
                .collect(),
        }
    }
}

/// A point-in-time copy of a whole [`Registry`], ready for serialization.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counters, name-sorted.
    #[serde(default)]
    pub counters: Vec<CounterSample>,
    /// Gauges, name-sorted.
    #[serde(default)]
    pub gauges: Vec<GaugeSample>,
    /// Histograms, name-sorted.
    #[serde(default)]
    pub histograms: Vec<HistogramSample>,
}

impl MetricsSnapshot {
    /// Whether the snapshot holds no metrics at all.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Pretty-printed JSON (round-trip-exact floats).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot types are serializable")
    }

    /// Prometheus text exposition (version 0.0.4). Counters and gauges map
    /// directly; histograms are exported in summary form —
    /// `name{quantile="…"}` series plus `name_sum`, `name_count`, `name_min`
    /// and `name_max` — because log-linear buckets have no fixed upper
    /// bounds a scrape config could rely on.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for c in &self.counters {
            let name = sanitize_metric_name(&c.name);
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {}", c.value);
        }
        for g in &self.gauges {
            let name = sanitize_metric_name(&g.name);
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {}", fmt_value(g.value));
        }
        for h in &self.histograms {
            let name = sanitize_metric_name(&h.name);
            let _ = writeln!(out, "# TYPE {name} summary");
            for (q, v) in [("0.5", h.p50), ("0.95", h.p95), ("0.99", h.p99)] {
                let _ = writeln!(out, "{name}{{quantile=\"{q}\"}} {}", fmt_value(v));
            }
            let _ = writeln!(out, "{name}_sum {}", fmt_value(h.sum));
            let _ = writeln!(out, "{name}_count {}", h.count);
            let _ = writeln!(out, "{name}_min {}", fmt_value(h.min));
            let _ = writeln!(out, "{name}_max {}", fmt_value(h.max));
            // Exemplars ride as comments (the 0.0.4 text format has no
            // native exemplar syntax): one line per traced bucket, tying
            // the aggregate to a concrete, fetchable trace id.
            for b in &h.buckets {
                if let Some(e) = &b.exemplar {
                    let _ = writeln!(
                        out,
                        "# exemplar {name}{{le=\"{}\"}} {} trace_id=\"{}\"",
                        fmt_value(b.upper),
                        fmt_value(e.value),
                        e.trace_id.replace(['"', '\\', '\n'], "_"),
                    );
                }
            }
        }
        out
    }
}

/// Prometheus sample values: Rust's shortest-round-trip `Display`, which
/// the exposition format accepts (plain decimal or scientific).
fn fmt_value(v: f64) -> String {
    format!("{v}")
}

/// Maps a metric name into the Prometheus grammar
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`.
pub(crate) fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, ch) in name.chars().enumerate() {
        let ok =
            ch.is_ascii_alphabetic() || ch == '_' || ch == ':' || (i > 0 && ch.is_ascii_digit());
        out.push(if ok { ch } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Writes `registry`'s snapshot to `path`: JSON when the extension is
/// `.json`, Prometheus text otherwise. This is what `--metrics-out`
/// flags call.
pub fn write_metrics_file(registry: &Registry, path: impl AsRef<Path>) -> std::io::Result<()> {
    let path = path.as_ref();
    let snapshot = registry.snapshot();
    let body = if path.extension().is_some_and(|e| e == "json") {
        let mut json = snapshot.to_json();
        json.push('\n');
        json
    } else {
        snapshot.to_prometheus()
    };
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, body)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_registry() -> Registry {
        let reg = Registry::new();
        reg.counter("rsj_jobs_total").add(12);
        reg.gauge("rsj_utilization").set(0.751);
        let h = reg.histogram("rsj_solve_seconds");
        for i in 1..=100 {
            h.observe(i as f64 / 1000.0);
        }
        h.observe_with_exemplar(0.05, "0000000000000000000000000000beef");
        reg
    }

    #[test]
    fn prometheus_lines_match_exposition_grammar() {
        let text = sample_registry().snapshot().to_prometheus();
        for line in text.lines() {
            let ok = line.starts_with("# TYPE ")
                || line.starts_with("# HELP ")
                || exemplar_comment_ok(line)
                || prometheus_sample_line_ok(line);
            assert!(ok, "bad exposition line: {line:?}");
        }
        assert!(text.contains("# TYPE rsj_jobs_total counter"));
        assert!(text.contains("rsj_jobs_total 12"));
        assert!(text.contains("# TYPE rsj_solve_seconds summary"));
        assert!(text.contains("rsj_solve_seconds_count 101"));
        assert!(text.contains("rsj_solve_seconds{quantile=\"0.5\"}"));
        assert!(
            text.contains("trace_id=\"0000000000000000000000000000beef\""),
            "exemplar comment missing: {text}"
        );
    }

    /// `# exemplar name{le="upper"} value trace_id="id"` — the comment
    /// form this crate emits for bucket exemplars.
    fn exemplar_comment_ok(line: &str) -> bool {
        let Some(rest) = line.strip_prefix("# exemplar ") else {
            return false;
        };
        let Some((series, tail)) = rest.split_once("} ") else {
            return false;
        };
        let Some((value, trace)) = tail.split_once(' ') else {
            return false;
        };
        series.contains("{le=\"")
            && value.parse::<f64>().is_ok()
            && trace.starts_with("trace_id=\"")
            && trace.ends_with('"')
    }

    /// `name{labels} value` with the value a decimal float.
    fn prometheus_sample_line_ok(line: &str) -> bool {
        let Some((series, value)) = line.rsplit_once(' ') else {
            return false;
        };
        let name_part = series.split('{').next().unwrap_or("");
        let name_ok = !name_part.is_empty()
            && name_part.chars().enumerate().all(|(i, c)| {
                c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit())
            });
        let labels_ok = match series.split_once('{') {
            None => true,
            Some((_, rest)) => rest.ends_with('}'),
        };
        name_ok && labels_ok && value.parse::<f64>().is_ok()
    }

    #[test]
    fn json_round_trips_bit_for_bit() {
        let snap = sample_registry().snapshot();
        let json = snap.to_json();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.to_json(), json, "second serialization must be stable");
    }

    #[test]
    fn sanitizer_covers_awkward_names() {
        assert_eq!(sanitize_metric_name("a.b-c/d"), "a_b_c_d");
        assert_eq!(sanitize_metric_name("9lives"), "_lives");
        assert_eq!(sanitize_metric_name(""), "_");
        assert_eq!(sanitize_metric_name("ok_name:total"), "ok_name:total");
    }

    #[test]
    fn write_metrics_file_picks_format_by_extension() {
        let reg = sample_registry();
        let dir = std::env::temp_dir().join("rsj_obs_export_test");
        let json_path = dir.join("m.json");
        let prom_path = dir.join("m.prom");
        write_metrics_file(&reg, &json_path).unwrap();
        write_metrics_file(&reg, &prom_path).unwrap();
        let json = std::fs::read_to_string(&json_path).unwrap();
        assert!(serde_json::from_str::<MetricsSnapshot>(&json).is_ok());
        let prom = std::fs::read_to_string(&prom_path).unwrap();
        assert!(prom.contains("# TYPE"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
