//! The metric catalogue, the printed and JSON forms of a run, the
//! `--runs` summary and the `--compare` verdicts.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use serde_json::{json, Value};

use crate::stats;

/// One metric: name, unit and which direction is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// What a user of the server or the facade sees; measured untraced.
pub const END_TO_END: [MetricDef; 6] = [
    def("throughput_per_s", "1/s", "higher"),
    def("latency_p50_ms", "ms", "lower"),
    def("latency_p99_ms", "ms", "lower"),
    def("cpu_ms_per_1k", "ms", "lower"),
    def("peak_rss_mb", "MB", "lower"),
    def("setup_s", "s", "lower"),
];

/// One layer each, measured by the traced run and the replay.
pub const PER_LAYER: [MetricDef; 39] = [
    def("server.rw_syscalls_per_req", "count", "lower"),
    def("server.bytes_written_per_req", "bytes", "lower"),
    def("server.ctx_switches_per_req", "count", "lower"),
    def("server.reconnects_per_1k", "count", "lower"),
    def("server.write_us_p50", "us", "lower"),
    def("protocol.decode_us_p50", "us", "lower"),
    def("protocol.decode_allocs", "count", "lower"),
    def("protocol.encode_us_p50", "us", "lower"),
    def("protocol.encode_allocs", "count", "lower"),
    def("protocol.request_bytes", "bytes", "lower"),
    def("protocol.response_bytes", "bytes", "lower"),
    def("admission.queue_wait_us_p50", "us", "lower"),
    def("admission.queue_wait_us_p99", "us", "lower"),
    def("cache.hit_ratio", "ratio", "higher"),
    def("cache.lookup_us_p50", "us", "lower"),
    def("cache.get_allocs", "count", "lower"),
    def("singleflight.coalesced_ratio", "ratio", "higher"),
    def("singleflight.solves_per_key", "ratio", "lower"),
    def("planner.build_us_p50", "us", "lower"),
    def("planner.solve_us_p50", "us", "lower"),
    def("planner.solve_us_p99", "us", "lower"),
    def("planner.score_us_p50", "us", "lower"),
    def("planner.plan_allocs", "count", "lower"),
    def("batch.item_us_p50", "us", "lower"),
    def("batch.groups_per_frame", "count", "lower"),
    def("eval_table.warm_ratio", "ratio", "higher"),
    def("eval_table.build_us_p50", "us", "lower"),
    def("dp.solve_us_p50", "us", "lower"),
    def("dp.solve_us_p99", "us", "lower"),
    def("dp.evals_per_solve", "count", "lower"),
    def("dp.fallback_ratio", "ratio", "lower"),
    def("journal.append_us_p50", "us", "lower"),
    def("journal.bytes_per_record", "bytes", "lower"),
    def("recovery.records_per_s", "1/s", "higher"),
    def("sim.us_per_1k_jobs", "us", "lower"),
    def("trace.stage_coverage", "ratio", "higher"),
    def("trace.unattributed_us_p50", "us", "lower"),
    def("trace.overhead_ratio", "ratio", "higher"),
    def("gen.cpu_ms_per_1k", "ms", "lower"),
];

pub fn catalogue(traced: bool) -> &'static [MetricDef] {
    if traced {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// One measured value; `note` says how it was sampled where that
/// matters (percentile and sample count).
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub def: MetricDef,
    pub value: f64,
    pub note: String,
}

/// The outcome of one workload run.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// Collects `values` (name → value, note) in catalogue order; every
    /// catalogue metric must be present.
    pub fn metrics_from(
        traced: bool,
        mut values: BTreeMap<&'static str, (f64, String)>,
    ) -> Vec<Metric> {
        catalogue(traced)
            .iter()
            .map(|def| {
                let (value, note) = values
                    .remove(def.name)
                    .unwrap_or_else(|| panic!("metric {} was not measured", def.name));
                Metric {
                    def: *def,
                    value,
                    note,
                }
            })
            .collect()
    }

    /// `workload metric value unit` lines, then the request tally.
    pub fn lines(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let note = if m.note.is_empty() {
                    String::new()
                } else {
                    format!(" # {}", m.note)
                };
                format!(
                    "{} {} {} {}{note}",
                    self.workload, m.def.name, m.value, m.def.unit
                )
            })
            .collect();
        out.push(format!(
            "# {} seed={} traced={} attempted={} failed={} correct={}{}",
            self.workload,
            self.seed,
            self.traced,
            self.attempted,
            self.failed,
            self.correct,
            self.first_failure
                .as_ref()
                .map(|f| format!(" first_failure={f:?}"))
                .unwrap_or_default()
        ));
        out
    }

    pub fn to_json(&self) -> Value {
        json!({
            "workload": self.workload,
            "seed": self.seed,
            "traced": self.traced,
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": Value::Map(
                self.metrics
                    .iter()
                    .map(|m| (m.def.name.to_string(), Value::F64(m.value)))
                    .collect()
            )
        })
    }
}

/// The one-line result object: `correct`, `attempted`, `failed` and each
/// metric with its unit. Metric names carry a `workload.` prefix when
/// the line sums up more than one workload, and values are medians when
/// it sums up more than one run.
pub fn result_line(results: &[RunResult]) -> String {
    let single = results.len() == 1;
    let mut metrics = Vec::new();
    for (workload, name, unit, values) in grouped(results) {
        let key = if single {
            name.to_string()
        } else {
            format!("{workload}.{name}")
        };
        let median = stats::quartiles(&values).1;
        metrics.push((key, json!({"value": median, "unit": unit})));
    }
    let value = json!({
        "correct": results.iter().all(|r| r.correct),
        "attempted": results.iter().map(|r| r.attempted).sum::<u64>(),
        "failed": results.iter().map(|r| r.failed).sum::<u64>(),
        "metrics": Value::Map(metrics)
    });
    serde_json::to_string(&value).expect("result serializes")
}

/// `(workload, metric, unit, values)` per workload × metric, in run order.
fn grouped(results: &[RunResult]) -> Vec<(String, &'static str, &'static str, Vec<f64>)> {
    let mut out: Vec<(String, &'static str, &'static str, Vec<f64>)> = Vec::new();
    for r in results {
        for m in &r.metrics {
            match out
                .iter_mut()
                .find(|(w, n, _, _)| *w == r.workload && *n == m.def.name)
            {
                Some(entry) => entry.3.push(m.value),
                None => out.push((r.workload.clone(), m.def.name, m.def.unit, vec![m.value])),
            }
        }
    }
    out
}

/// The `--runs` summary: median and quartiles per workload × metric.
pub fn summary_lines(results: &[RunResult]) -> Vec<String> {
    grouped(results)
        .into_iter()
        .map(|(workload, name, unit, values)| {
            let (q1, median, q3) = stats::quartiles(&values);
            format!(
                "{workload} {name} median={median} q1={q1} q3={q3} {unit} # {} runs",
                values.len()
            )
        })
        .collect()
}

/// How a new set of runs compares with a base set on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The runs spread wider than the bound, so a change within it
    /// cannot be told from noise.
    Unresolved,
}

/// Judges `new` against `base`: worse (better) when the median moved
/// the wrong (right) way by more than `bound` of the base median;
/// unresolved when either set's quartile spread exceeds the bound,
/// unless every new run beats every base run.
pub fn verdict(base: &[f64], new: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let (b1, bm, b3) = stats::quartiles(base);
    let (n1, nm, n3) = stats::quartiles(new);
    let rel = |q1: f64, q3: f64, m: f64| if m != 0.0 { (q3 - q1) / m.abs() } else { 0.0 };
    let spread = rel(b1, b3, bm).max(rel(n1, n3, nm));
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    let worse_by = if bm != 0.0 {
        sign * (nm - bm) / bm.abs()
    } else {
        0.0
    };
    let beats = |n: f64, b: f64| if lower_is_better { n < b } else { n > b };
    let all_better = new.iter().all(|&n| base.iter().all(|&b| beats(n, b)));
    if spread > bound {
        if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Worse
    } else if -worse_by > bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn read_json(path: &Path) -> io::Result<Value> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
    serde_json::from_str(&text).map_err(|e| io::Error::other(format!("{}: {e}", path.display())))
}

/// The end-to-end metrics of `BENCHMARK.json`: `(name, better, bound)`.
pub fn bounds(benchmark_json: &Path) -> io::Result<Vec<(String, String, f64)>> {
    let doc = read_json(benchmark_json)?;
    let list = doc["end_to_end"]
        .as_array()
        .ok_or_else(|| io::Error::other("BENCHMARK.json has no end_to_end list"))?;
    list.iter()
        .map(|m| {
            Some((
                m["name"].as_str()?.to_string(),
                m["better"].as_str()?.to_string(),
                m["bound"].as_f64()?,
            ))
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| io::Error::other("BENCHMARK.json end_to_end entry is malformed"))
}

/// Values per `(workload, metric)` of the untraced runs in a report
/// written by `--out`.
fn report_values(path: &Path) -> io::Result<BTreeMap<(String, String), Vec<f64>>> {
    let doc = read_json(path)?;
    let runs = doc["runs"]
        .as_array()
        .ok_or_else(|| io::Error::other(format!("{}: no runs", path.display())))?;
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for run in runs.iter().filter(|r| r["traced"].as_bool() == Some(false)) {
        let workload = run["workload"].as_str().unwrap_or_default().to_string();
        for (name, value) in run["metrics"].as_map_entries().unwrap_or_default() {
            if let Some(v) = value.as_f64() {
                out.entry((workload.clone(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(out)
}

/// `--compare BASE NEW`: one row per workload × bounded metric.
pub fn compare(base: &Path, new: &Path, benchmark_json: &Path) -> io::Result<Vec<String>> {
    let bounds = bounds(benchmark_json)?;
    let base = report_values(base)?;
    let new = report_values(new)?;
    let mut rows = vec![format!(
        "{:<13} {:<17} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "base median", "new median", "change", "bound"
    )];
    let mut workloads: Vec<&String> = base.keys().map(|(w, _)| w).collect();
    workloads.dedup();
    for workload in workloads {
        for (name, better, bound) in &bounds {
            let key = (workload.clone(), name.clone());
            let (Some(b), Some(n)) = (base.get(&key), new.get(&key)) else {
                continue;
            };
            let lower = better == "lower";
            let v = verdict(b, n, lower, *bound);
            let (bm, nm) = (stats::quartiles(b).1, stats::quartiles(n).1);
            let change = if bm != 0.0 { (nm - bm) / bm.abs() } else { 0.0 };
            rows.push(format!(
                "{workload:<13} {name:<17} {bm:>14.6} {nm:>14.6} {:>+7.1}% {:>5.0}%  {}",
                change * 100.0,
                bound * 100.0,
                format!("{v:?}").to_lowercase()
            ));
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    fn benchmark_json() -> Value {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        read_json(&path).expect("BENCHMARK.json at the repository root")
    }

    fn names(list: &Value, key: &str) -> Vec<String> {
        list[key]
            .as_array()
            .expect("a list")
            .iter()
            .map(|m| m["name"].as_str().expect("a name").to_string())
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let doc = benchmark_json();
        assert_eq!(names(&doc, "workloads"), WORKLOADS);
        let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names(&doc, "end_to_end"), e2e);
        let layers: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names(&doc, "per_layer"), layers);
        for (list, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            for (entry, def) in doc[list].as_array().unwrap().iter().zip(defs) {
                assert_eq!(entry["unit"].as_str(), Some(def.unit), "{}", def.name);
                assert_eq!(entry["better"].as_str(), Some(def.better), "{}", def.name);
            }
        }
    }

    #[test]
    fn verdicts_apply_the_bound() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(verdict(&base, &base, true, 0.1), Verdict::Same);
        let slower = [120.0, 121.0, 119.0, 120.5, 119.5];
        assert_eq!(verdict(&base, &slower, true, 0.1), Verdict::Worse);
        assert_eq!(verdict(&base, &slower, false, 0.1), Verdict::Better);
        let noisy = [60.0, 140.0, 100.0, 80.0, 120.0];
        assert_eq!(verdict(&base, &noisy, true, 0.1), Verdict::Unresolved);
        let far = [10.0, 30.0, 20.0, 15.0, 25.0];
        assert_eq!(verdict(&base, &far, true, 0.1), Verdict::Better);
    }
}
