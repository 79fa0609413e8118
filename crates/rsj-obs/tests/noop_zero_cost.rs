//! The zero-cost guarantee, asserted: with no subscriber installed and
//! metrics disabled, instrumented code paths allocate nothing, print
//! nothing, and record nothing.

use rsj_obs::{Level, MemorySink};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Subscriber/metrics state is process-global; the tests in this file
/// serialize on this lock so they cannot observe each other's setup.
static GLOBAL_STATE: Mutex<()> = Mutex::new(());

/// Takes [`GLOBAL_STATE`] even if another test panicked while holding
/// it: each test sets up the state it needs, so one failure must not
/// fail the others.
fn global_state() -> MutexGuard<'static, ()> {
    GLOBAL_STATE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Counts allocations so tests can assert a region performed none.
struct CountingAllocator;

thread_local! {
    /// Allocations made by this thread. Per thread, so the test
    /// harness's own threads allocating concurrently cannot show up in
    /// a measured region. `const`-initialised, so reading it never
    /// allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: allocations during thread teardown find no slot.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// A stand-in for an instrumented hot path: a span with its wall-time
/// histogram, leveled events with formatting arguments, guarded registry
/// calls, and the disabled per-request timeline that the server and the
/// facade pass when a request is not traced.
fn instrumented_work(iterations: u64) -> f64 {
    let _span = rsj_obs::span!("noop_test", "noop_test_wall_seconds");
    let epoch = std::time::Instant::now();
    let mut timeline = rsj_obs::Timeline::disabled();
    let mut acc = 0.0;
    for i in 0..iterations {
        // Formatting here would allocate; the macros must skip it.
        rsj_obs::debug!("iteration {} acc {}", i, acc);
        rsj_obs::trace!("fine-grained {}", i);
        acc += timeline.time("noop_stage", || (i as f64).sqrt());
        if rsj_obs::metrics_enabled() {
            rsj_obs::global_registry()
                .histogram("noop_test_values")
                .observe(acc);
        }
    }
    timeline.record_span("noop_span", epoch, epoch);
    if rsj_obs::metrics_enabled() {
        rsj_obs::global_registry()
            .counter("noop_test_iterations")
            .add(iterations);
    }
    // A disabled timeline yields no record (and allocated nothing on the
    // way here).
    assert!(timeline.finish("noop").is_none());
    acc
}

#[test]
fn disabled_observability_does_not_allocate_or_record() {
    let _guard = global_state();
    // Process-global state: make the disabled state explicit rather than
    // assuming test ordering.
    rsj_obs::init(None);
    rsj_obs::set_metrics_enabled(false);

    // Warm up once so lazily initialized runtime structures (thread-local
    // registration, etc.) don't count against the measured region.
    std::hint::black_box(instrumented_work(10));

    let before = allocations();
    let result = std::hint::black_box(instrumented_work(10_000));
    let after = allocations();

    assert!(result > 0.0);
    assert_eq!(
        after - before,
        0,
        "disabled instrumentation must not allocate"
    );
    assert!(
        !rsj_obs::global_registry()
            .names()
            .iter()
            .any(|n| n.starts_with("noop_test")),
        "disabled instrumentation must not create metrics"
    );
}

#[test]
fn disabled_tracing_emits_nothing_to_a_sink_installed_later() {
    let _guard = global_state();
    // Events emitted while disabled are gone: installing a sink afterwards
    // must observe an empty world, proving nothing was buffered.
    rsj_obs::init(None);
    std::hint::black_box(instrumented_work(100));

    let sink = Arc::new(MemorySink::new(Level::Trace));
    rsj_obs::set_subscriber(sink.clone());
    assert!(sink.events().is_empty());
    assert!(sink.span_exits().is_empty());

    // And with the sink live, the same code does report.
    std::hint::black_box(instrumented_work(3));
    assert!(!sink.events().is_empty(), "live sink must receive events");
    assert!(
        !sink.span_exits().is_empty(),
        "live sink must receive span exits"
    );
    rsj_obs::clear_subscriber();
}

/// One `span!` scope feeding the histogram `histogram`.
fn one_span(histogram: &'static str) {
    let _span = rsj_obs::span!("one_span", histogram);
    std::hint::black_box((0..100u64).sum::<u64>());
}

#[test]
fn span_with_metrics_on_records_one_sample() {
    let _guard = global_state();
    rsj_obs::init(None);
    rsj_obs::set_metrics_enabled(true);
    one_span("one_span_metered_wall_seconds");
    rsj_obs::set_metrics_enabled(false);
    let histogram = rsj_obs::global_registry().histogram("one_span_metered_wall_seconds");
    assert_eq!(histogram.snapshot().count(), 1);
}

#[test]
fn span_with_a_trace_subscriber_reports_one_exit_and_no_metric() {
    let _guard = global_state();
    rsj_obs::set_metrics_enabled(false);
    let sink = Arc::new(MemorySink::new(Level::Trace));
    rsj_obs::set_subscriber(sink.clone());
    one_span("one_span_traced_wall_seconds");
    rsj_obs::clear_subscriber();
    let exits = sink.span_exits();
    assert_eq!(exits.len(), 1, "{exits:?}");
    assert_eq!(exits[0].0, "one_span");
    let names = rsj_obs::global_registry().names();
    assert!(!names.iter().any(|n| n == "one_span_traced_wall_seconds"));
}
