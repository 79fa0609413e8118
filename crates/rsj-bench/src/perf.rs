//! The performance manifest: wall-time per experiment plus the full
//! metrics snapshot (solver counters, per-batch histograms), written by
//! `run_all` to `results/perf_manifest.json`. It is not committed: every
//! run rewrites its wall times. [`digest_f64s`] and [`HostInfo`] also
//! serve `perf_gate` and the serving benches.

use rsj_obs::MetricsSnapshot;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

/// Bumped when the manifest layout changes incompatibly.
///
/// v2: per-step `threads` in the manifest.
///
/// v3: a `host` section recording `available_parallelism` and the global
/// pool width — without it, a wall time at a given thread count cannot be
/// read (the same step is expected to take as long at 4 threads as at 1
/// on a 1-CPU container, and not on a 16-CPU box).
pub const PERF_SCHEMA_VERSION: u32 = 3;

fn default_schema_version() -> u32 {
    PERF_SCHEMA_VERSION
}

fn default_threads() -> usize {
    1
}

/// The machine a performance artifact was produced on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct HostInfo {
    /// `std::thread::available_parallelism()` at run time (0 when the
    /// platform could not report it).
    #[serde(default)]
    pub available_parallelism: usize,
    /// Width of the installed global `rsj-par` pool when the artifact was
    /// written (what the solvers actually used).
    #[serde(default)]
    pub pool_threads: usize,
}

impl HostInfo {
    /// Captures the current process's view of the machine.
    pub fn capture() -> Self {
        Self {
            available_parallelism: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(0),
            pool_threads: rsj_par::Parallelism::current().threads(),
        }
    }
}

/// Wall time of one experiment step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentTiming {
    /// Step name as shown in the run log (e.g. `"Table 2"`).
    pub name: String,
    /// Wall-clock seconds the step took.
    pub wall_seconds: f64,
    /// Worker threads the step ran with (defaults to 1 when reading
    /// manifests written before the parallel layer).
    #[serde(default = "default_threads")]
    pub threads: usize,
}

/// FNV-1a over the IEEE-754 bit patterns of `values`, rendered as 16 hex
/// digits. Equal digests across runs at different thread counts certify
/// bit-for-bit identical results — the determinism contract of `rsj-par`.
pub fn digest_f64s(values: impl IntoIterator<Item = f64>) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// The `results/perf_manifest.json` document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerfManifest {
    /// Layout version ([`PERF_SCHEMA_VERSION`]).
    #[serde(default = "default_schema_version")]
    pub schema_version: u32,
    /// `"Quick"` or `"Paper"` — the fidelity the suite ran at.
    pub fidelity: String,
    /// RNG seed of the run.
    pub seed: u64,
    /// Whole-suite wall-clock seconds.
    pub total_wall_seconds: f64,
    /// The machine the run executed on (defaults to zeros when reading
    /// pre-v3 manifests).
    #[serde(default)]
    pub host: HostInfo,
    /// Per-step timings, in execution order.
    #[serde(default)]
    pub experiments: Vec<ExperimentTiming>,
    /// The global registry at the end of the run: solver wall-time
    /// histograms (p50/p95/p99), candidate/state counters, per-batch
    /// fault/refit counters.
    #[serde(default)]
    pub metrics: MetricsSnapshot,
}

impl PerfManifest {
    /// An empty manifest for a run at `fidelity` with `seed`.
    pub fn new(fidelity: impl Into<String>, seed: u64) -> Self {
        Self {
            schema_version: PERF_SCHEMA_VERSION,
            fidelity: fidelity.into(),
            seed,
            total_wall_seconds: 0.0,
            host: HostInfo::capture(),
            experiments: Vec::new(),
            metrics: MetricsSnapshot::default(),
        }
    }

    /// Records one finished step and the thread count it ran with.
    pub fn push_step(&mut self, name: impl Into<String>, wall_seconds: f64, threads: usize) {
        self.experiments.push(ExperimentTiming {
            name: name.into(),
            wall_seconds,
            threads,
        });
    }

    /// Pretty JSON (round-trip-exact floats, same convention as the
    /// metrics exporters).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("manifest is serializable")
    }

    /// Writes the manifest to `results/perf_manifest.json` (honouring
    /// `RSJ_RESULTS_DIR`) and returns the path.
    pub fn write(&self) -> std::io::Result<PathBuf> {
        let mut body = self.to_json();
        body.push('\n');
        crate::report::write_result_file("perf_manifest.json", &body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PerfManifest {
        let mut m = PerfManifest::new("Quick", 7);
        m.push_step("Table 2", 1.25, 4);
        m.push_step("Figure 3", 0.5, 1);
        m.total_wall_seconds = 1.75;
        let reg = rsj_obs::Registry::new();
        reg.counter("rsj_core_dp_solves_total").add(3);
        reg.histogram("rsj_core_dp_wall_seconds").observe(0.125);
        m.metrics = reg.snapshot();
        m
    }

    #[test]
    fn json_round_trips_bit_for_bit() {
        let m = sample();
        let json = m.to_json();
        let back: PerfManifest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn old_manifest_without_new_fields_still_parses() {
        let json = r#"{"fidelity": "Paper", "seed": 1, "total_wall_seconds": 9.5}"#;
        let m: PerfManifest = serde_json::from_str(json).unwrap();
        assert_eq!(m.schema_version, PERF_SCHEMA_VERSION);
        assert!(m.experiments.is_empty());
        assert!(m.metrics.is_empty());
        // Pre-v3 manifests have no host section; zeros mean "unknown".
        assert_eq!(m.host, HostInfo::default());
        // A v1 step (no threads field) defaults to 1 worker.
        let json = r#"{"name": "Table 2", "wall_seconds": 0.5}"#;
        let t: ExperimentTiming = serde_json::from_str(json).unwrap();
        assert_eq!(t.threads, 1);
    }

    #[test]
    fn host_capture_reports_the_machine() {
        let host = HostInfo::capture();
        assert!(host.available_parallelism >= 1);
        assert!(host.pool_threads >= 1);
    }

    #[test]
    fn digest_is_stable_and_bit_sensitive() {
        let a = digest_f64s([1.0, 2.5, -0.0]);
        assert_eq!(a, digest_f64s([1.0, 2.5, -0.0]));
        assert_eq!(a.len(), 16);
        // +0.0 and -0.0 compare equal but differ in bits — the digest is
        // over bit patterns, so it must tell them apart.
        assert_ne!(a, digest_f64s([1.0, 2.5, 0.0]));
        assert_ne!(digest_f64s([]), digest_f64s([0.0]));
    }
}
