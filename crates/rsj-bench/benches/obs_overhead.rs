//! Criterion: cost of the rsj-obs instrumentation when nothing is
//! listening. The acceptance bar for the observability layer is ≤1%
//! regression on solver hot paths with no subscriber installed and
//! metrics disabled; these benches measure exactly that configuration.
//!
//! `instrumented_loop` runs the same arithmetic as `baseline_loop` but
//! passes through a span with its wall-time histogram, a trace event and
//! guarded registry calls on every iteration — the worst case of guard
//! density, far denser than any real solver loop. `dp_optimal_discrete` times the
//! real instrumented DP entry point end to end.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rsj_core::heuristics::optimal_discrete;
use rsj_core::CostModel;
use rsj_dist::{discretize, DiscretizationScheme, LogNormal};

const ITERS: u64 = 1024;

fn baseline_loop() -> f64 {
    let mut acc = 0.0f64;
    for i in 0..ITERS {
        acc += black_box(i as f64).sqrt();
    }
    acc
}

fn instrumented_loop() -> f64 {
    let mut acc = 0.0f64;
    for i in 0..ITERS {
        let _span = rsj_obs::span!("bench.iteration", "bench_noop_seconds");
        rsj_obs::trace!("iteration {i}");
        acc += black_box(i as f64).sqrt();
        if rsj_obs::metrics_enabled() {
            let registry = rsj_obs::global_registry();
            registry.counter("bench_noop_total").inc();
            registry.histogram("bench_noop_hist").observe(acc);
        }
    }
    acc
}

fn bench_disabled_overhead(c: &mut Criterion) {
    // Neither init_from_env() nor set_metrics_enabled(true) is called:
    // tracing is off and metrics are disabled, the production default.
    assert!(!rsj_obs::metrics_enabled());
    let mut group = c.benchmark_group("obs_disabled_overhead");
    group.bench_function("baseline_loop", |b| b.iter(baseline_loop));
    group.bench_function("instrumented_loop", |b| b.iter(instrumented_loop));
    group.finish();
}

fn bench_instrumented_solver(c: &mut Criterion) {
    let dist = LogNormal::new(3.0, 0.5).unwrap();
    let discrete = discretize(&dist, DiscretizationScheme::EqualProbability, 200, 1e-7).unwrap();
    let cost = CostModel::reservation_only();
    let mut group = c.benchmark_group("obs_instrumented_solver");
    group.bench_function("dp_optimal_discrete_n200", |b| {
        b.iter(|| optimal_discrete(black_box(&discrete), &cost).unwrap());
    });
    group.finish();
}

criterion_group!(benches, bench_disabled_overhead, bench_instrumented_solver);
criterion_main!(benches);
