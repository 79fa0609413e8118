//! Snapshot tests pinning the exporters' exact output for a fixed
//! registry, so format drift is a deliberate diff rather than an
//! accident, plus the bit-for-bit JSON round-trip guarantee.

use rsj_obs::{MetricsSnapshot, Registry};

fn fixed_registry() -> Registry {
    let reg = Registry::new();
    reg.counter("rsj_sim_jobs_total").add(250);
    reg.counter("rsj_core_dp_states_total").add(1_000);
    reg.gauge("rsj_sim_waste_fraction").set(0.125);
    let h = reg.histogram("rsj_core_solve_wall_seconds");
    // Powers of two are bucket boundaries: quantiles come out exact and
    // the snapshot below is stable across platforms.
    for v in [0.25, 0.25, 0.25, 0.5, 0.5, 1.0, 2.0, 4.0] {
        h.observe(v);
    }
    reg
}

#[test]
fn prometheus_snapshot_is_stable() {
    let text = fixed_registry().snapshot().to_prometheus();
    let expected = "\
# TYPE rsj_core_dp_states_total counter
rsj_core_dp_states_total 1000
# TYPE rsj_sim_jobs_total counter
rsj_sim_jobs_total 250
# TYPE rsj_sim_waste_fraction gauge
rsj_sim_waste_fraction 0.125
# TYPE rsj_core_solve_wall_seconds summary
rsj_core_solve_wall_seconds{quantile=\"0.5\"} 0.5078125
rsj_core_solve_wall_seconds{quantile=\"0.95\"} 4
rsj_core_solve_wall_seconds{quantile=\"0.99\"} 4
rsj_core_solve_wall_seconds_sum 8.75
rsj_core_solve_wall_seconds_count 8
rsj_core_solve_wall_seconds_min 0.25
rsj_core_solve_wall_seconds_max 4
";
    assert_eq!(text, expected);
}

#[test]
fn json_snapshot_round_trips_bit_for_bit() {
    let snap = fixed_registry().snapshot();
    let json = snap.to_json();
    let back: MetricsSnapshot = serde_json::from_str(&json).expect("snapshot JSON parses");
    assert_eq!(back, snap, "value round-trip");
    assert_eq!(back.to_json(), json, "textual round-trip is bit-for-bit");
}

#[test]
fn json_snapshot_contains_quantiles_and_buckets() {
    let json = fixed_registry().snapshot().to_json();
    for needle in [
        "\"rsj_core_solve_wall_seconds\"",
        "\"p50\"",
        "\"p95\"",
        "\"p99\"",
        "\"buckets\"",
        "\"rsj_sim_jobs_total\"",
    ] {
        assert!(json.contains(needle), "missing {needle} in:\n{json}");
    }
}

#[test]
fn empty_snapshot_deserializes_from_empty_object() {
    // #[serde(default)] on every field: "{}" is a valid (empty) snapshot,
    // keeping old perf manifests readable as fields are added.
    let snap: MetricsSnapshot = serde_json::from_str("{}").unwrap();
    assert!(snap.is_empty());
}
