//! The metrics registry: named counters, gauges and histograms behind
//! cheap cloneable handles, plus the process-global registry used by the
//! instrumented crates.
//!
//! ## Zero cost when disabled
//!
//! Recording into the *global* registry is opt-in: call [`set_enabled`]
//! (the CLI's `--metrics-out`, the bench harness, and `RSJ_METRICS=1` do).
//! Instrumented hot paths guard on [`enabled`] — a single relaxed atomic
//! load — so a build without metrics consumers pays nothing beyond that
//! load per *operation* (solve / batch), never per inner-loop iteration.

use crate::histogram::Histogram;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonically increasing counter handle.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `delta`.
    #[inline]
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins gauge handle (stored as `f64` bits in an atomic).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the value.
    #[inline]
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub(crate) fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A histogram handle; see [`Histogram`] for the bucketing scheme.
#[derive(Debug, Clone)]
pub struct HistogramHandle(Arc<Mutex<Histogram>>);

impl HistogramHandle {
    /// Records one sample.
    #[inline]
    pub fn observe(&self, value: f64) {
        self.0
            .lock()
            .expect("histogram lock poisoned")
            .record(value);
    }

    /// Records one sample and retains it as its bucket's exemplar, so
    /// the exported aggregate points back at this request's trace id
    /// (see [`Histogram::record_with_exemplar`]).
    #[inline]
    pub fn observe_with_exemplar(&self, value: f64, trace_id: &str) {
        self.0
            .lock()
            .expect("histogram lock poisoned")
            .record_with_exemplar(value, trace_id);
    }

    /// Merges a locally accumulated histogram (the per-shard pattern:
    /// record lock-free into a local [`Histogram`], merge once per batch).
    pub fn merge_from(&self, other: &Histogram) {
        self.0.lock().expect("histogram lock poisoned").merge(other);
    }

    /// A point-in-time copy.
    pub fn snapshot(&self) -> Histogram {
        self.0.lock().expect("histogram lock poisoned").clone()
    }
}

/// One named metric.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(HistogramHandle),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A set of named metrics. Handles returned by [`Registry::counter`] /
/// [`Registry::gauge`] / [`Registry::histogram`] stay valid (and cheap to
/// record into) for the registry's lifetime; names are created on first
/// use.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, created on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind — that is
    /// a programming error in the instrumented code, not a runtime
    /// condition.
    pub fn counter(&self, name: &str) -> Counter {
        match self.get_or_insert(name, || {
            Metric::Counter(Counter(Arc::new(AtomicU64::new(0))))
        }) {
            Metric::Counter(c) => c,
            other => panic!("metric {name:?} is a {}, not a counter", other.kind()),
        }
    }

    /// The gauge named `name`, created on first use (same contract as
    /// [`Registry::counter`]).
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.get_or_insert(name, || Metric::Gauge(Gauge(Arc::new(AtomicU64::new(0))))) {
            Metric::Gauge(g) => g,
            other => panic!("metric {name:?} is a {}, not a gauge", other.kind()),
        }
    }

    /// The histogram named `name`, created on first use (same contract as
    /// [`Registry::counter`]).
    pub fn histogram(&self, name: &str) -> HistogramHandle {
        match self.get_or_insert(name, || {
            Metric::Histogram(HistogramHandle(Arc::new(Mutex::new(Histogram::new()))))
        }) {
            Metric::Histogram(h) => h,
            other => panic!("metric {name:?} is a {}, not a histogram", other.kind()),
        }
    }

    fn get_or_insert(&self, name: &str, create: impl FnOnce() -> Metric) -> Metric {
        let mut metrics = self.metrics.lock().expect("registry lock poisoned");
        metrics.get(name).cloned().unwrap_or_else(|| {
            let metric = create();
            metrics.insert(name.to_string(), metric.clone());
            metric
        })
    }

    /// Registered metric names in sorted order.
    pub fn names(&self) -> Vec<String> {
        self.metrics
            .lock()
            .expect("registry lock poisoned")
            .keys()
            .cloned()
            .collect()
    }

    /// A consistent point-in-time snapshot for the exporters.
    pub fn snapshot(&self) -> crate::export::MetricsSnapshot {
        let metrics = self.metrics.lock().expect("registry lock poisoned");
        let mut snap = crate::export::MetricsSnapshot::default();
        for (name, metric) in metrics.iter() {
            match metric {
                Metric::Counter(c) => snap.counters.push(crate::export::CounterSample {
                    name: name.clone(),
                    value: c.get(),
                }),
                Metric::Gauge(g) => snap.gauges.push(crate::export::GaugeSample {
                    name: name.clone(),
                    value: g.get(),
                }),
                Metric::Histogram(h) => snap
                    .histograms
                    .push(crate::export::HistogramSample::of(name, &h.snapshot())),
            }
        }
        snap
    }
}

/// `true` once a metrics consumer opted in (exporter, bench harness).
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether global-registry recording is on — the hot-path guard
/// (one relaxed atomic load).
#[inline(always)]
pub(crate) fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns global-registry recording on or off.
pub(crate) fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// The process-global registry. Always usable; instrumented code gates on
/// [`enabled`] before touching it.
pub(crate) fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_accumulate() {
        let reg = Registry::new();
        let c = reg.counter("jobs_total");
        c.inc();
        c.add(4);
        assert_eq!(reg.counter("jobs_total").get(), 5);

        let g = reg.gauge("queue_depth");
        g.set(3.25);
        assert_eq!(reg.gauge("queue_depth").get(), 3.25);

        let h = reg.histogram("latency");
        for v in [1.0, 2.0, 3.0] {
            h.observe(v);
        }
        assert_eq!(reg.histogram("latency").snapshot().count(), 3);
    }

    #[test]
    fn names_are_sorted() {
        let reg = Registry::new();
        reg.counter("b");
        reg.counter("a");
        assert_eq!(reg.names(), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_mismatch_panics_with_names() {
        let reg = Registry::new();
        reg.counter("x");
        reg.gauge("x");
    }

    #[test]
    fn merge_from_matches_direct_observation() {
        let reg = Registry::new();
        let h = reg.histogram("shards");
        let mut local = crate::Histogram::new();
        for i in 1..100 {
            local.record(i as f64);
        }
        h.merge_from(&local);
        let direct = reg.histogram("shards").snapshot();
        assert_eq!(direct.count(), 99);
        assert_eq!(direct.p50(), local.p50());
    }
}
