//! The span/event tracing layer: a global [`Subscriber`], a thread-local
//! span stack, and the dispatch functions behind the [`span!`](crate::span)
//! / [`event!`](crate::event) macros.
//!
//! ## Zero cost when disabled
//!
//! The installed subscriber's maximum level is mirrored into a global
//! `AtomicU8` (`0` = no subscriber). Every macro expansion first checks
//! that atomic with a relaxed load; when the level is filtered out the
//! expansion performs **no formatting, no allocation, no clock read and no
//! lock**. A [`Span`] also checks the metrics switch: with neither on it
//! is inert and its `Drop` is a branch.

use crate::level::Level;
use crate::metrics;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// A structured log record handed to [`Subscriber::on_event`].
#[derive(Debug)]
pub struct Event<'a> {
    /// Severity.
    pub level: Level,
    /// The `module_path!()` of the call site.
    pub target: &'a str,
    /// The formatted message.
    pub message: &'a str,
    /// Names of the spans enclosing the call site, outermost first.
    pub spans: &'a [&'static str],
}

/// A span exit handed to [`Subscriber::on_span_exit`].
#[derive(Debug)]
pub struct SpanRecord<'a> {
    /// Names of the enclosing spans including this one, outermost first.
    pub spans: &'a [&'static str],
}

/// Receives events and span boundaries. Implementations must be cheap to
/// call and internally synchronized (`Send + Sync`).
pub trait Subscriber: Send + Sync {
    /// The most verbose level this subscriber wants; more verbose events
    /// are never dispatched to it.
    fn max_level(&self) -> Level;

    /// An event passed the level filter.
    fn on_event(&self, event: &Event<'_>);

    /// A span was exited after `elapsed` (dispatched only at
    /// `max_level() >= Trace`).
    fn on_span_exit(&self, _span: &SpanRecord<'_>, _elapsed: Duration) {}
}

/// `0` = off; otherwise the installed subscriber's `max_level() as u8`.
static MAX_LEVEL: AtomicU8 = AtomicU8::new(0);

static SUBSCRIBER: RwLock<Option<Arc<dyn Subscriber>>> = RwLock::new(None);

thread_local! {
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// Installs `subscriber` as the process-global subscriber, replacing any
/// previous one (tests swap subscribers; production installs once at
/// startup).
pub fn set_subscriber(subscriber: Arc<dyn Subscriber>) {
    let level = subscriber.max_level() as u8;
    *SUBSCRIBER.write().expect("subscriber lock poisoned") = Some(subscriber);
    MAX_LEVEL.store(level, Ordering::Relaxed);
}

/// Removes the global subscriber; tracing reverts to the free disabled
/// path.
pub fn clear_subscriber() {
    MAX_LEVEL.store(0, Ordering::Relaxed);
    *SUBSCRIBER.write().expect("subscriber lock poisoned") = None;
}

/// Whether an event at `level` would reach the installed subscriber. This
/// is the macros' fast path: a single relaxed atomic load.
#[inline(always)]
pub fn enabled(level: Level) -> bool {
    level as u8 <= MAX_LEVEL.load(Ordering::Relaxed)
}

/// Formats and dispatches an event. Called by the [`event!`](crate::event)
/// macro *after* the level check; not intended for direct use.
#[doc(hidden)]
pub fn dispatch_event(level: Level, target: &str, args: std::fmt::Arguments<'_>) {
    let guard = SUBSCRIBER.read().expect("subscriber lock poisoned");
    let Some(subscriber) = guard.as_ref() else {
        return;
    };
    if level > subscriber.max_level() {
        return;
    }
    let message = args.to_string();
    SPAN_STACK.with(|stack| {
        let spans = stack.borrow();
        subscriber.on_event(&Event {
            level,
            target,
            message: &message,
            spans: &spans,
        });
    });
}

/// An RAII span: created by the [`span!`](crate::span) macro, it times
/// its scope once and reports that wall time on drop to the two sinks
/// that were on when it was entered:
///
/// - the subscriber, when one at [`Level::Trace`] was installed — the
///   span's name is pushed onto the thread-local span stack for the
///   span's lifetime;
/// - the global registry's histogram `histogram` (in seconds), when
///   metrics were enabled.
///
/// With neither on, construction reads no clock and the drop is a branch
/// on `None`.
#[derive(Debug)]
#[must_use = "a span is exited when dropped; binding it to `_` drops it immediately"]
pub struct Span {
    name: &'static str,
    /// The histogram to record into; `None` when metrics were off.
    histogram: Option<&'static str>,
    /// Whether the subscriber saw this span's entry.
    traced: bool,
    start: Option<Instant>,
}

impl Span {
    /// Enters a span named `name` that records its wall time into the
    /// histogram `histogram` (each a no-op unless its sink is on).
    #[inline]
    pub fn enter(name: &'static str, histogram: &'static str) -> Self {
        let traced = enabled(Level::Trace);
        let histogram = metrics::enabled().then_some(histogram);
        if traced {
            enter_span(name);
        }
        Self {
            name,
            histogram,
            traced,
            start: (traced || histogram.is_some()).then(Instant::now),
        }
    }
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let elapsed = start.elapsed();
            if self.traced {
                exit_span(self.name, elapsed);
            }
            if let Some(histogram) = self.histogram {
                metrics::global()
                    .histogram(histogram)
                    .observe(elapsed.as_secs_f64());
            }
        }
    }
}

#[cold]
fn enter_span(name: &'static str) {
    SPAN_STACK.with(|stack| stack.borrow_mut().push(name));
}

#[cold]
fn exit_span(name: &'static str, elapsed: Duration) {
    SPAN_STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let guard = SUBSCRIBER.read().expect("subscriber lock poisoned");
        if let Some(subscriber) = guard.as_ref() {
            subscriber.on_span_exit(&SpanRecord { spans: &stack }, elapsed);
        }
        // Pop after notifying so the record still contains this span.
        // Guard against unbalanced drops (a span sent across threads).
        if stack.last() == Some(&name) {
            stack.pop();
        }
    });
}

/// Enters a span named `$name` that records its wall time into the
/// global histogram `$histogram` (both `&'static str`), returning a guard
/// that reports when dropped — to the subscriber when span tracing is on,
/// to the histogram when metrics are on.
///
/// ```
/// let _guard = rsj_obs::span!("solver.brute_force", "solver_wall_seconds");
/// // ... traced work ...
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr, $histogram:expr) => {
        $crate::trace::Span::enter($name, $histogram)
    };
}

/// Emits an event at an explicit [`Level`](crate::Level) with `format!`
/// syntax. Formatting is skipped entirely when the level is filtered out.
///
/// ```
/// rsj_obs::event!(rsj_obs::Level::Info, "finished {} jobs", 42);
/// ```
#[macro_export]
macro_rules! event {
    ($level:expr, $($arg:tt)+) => {
        if $crate::trace::enabled($level) {
            $crate::trace::dispatch_event($level, module_path!(), format_args!($($arg)+));
        }
    };
}

/// [`event!`](crate::event) at [`Level::Error`](crate::Level::Error).
#[macro_export]
macro_rules! error {
    ($($arg:tt)+) => { $crate::event!($crate::Level::Error, $($arg)+) };
}

/// [`event!`](crate::event) at [`Level::Warn`](crate::Level::Warn).
#[macro_export]
macro_rules! warn {
    ($($arg:tt)+) => { $crate::event!($crate::Level::Warn, $($arg)+) };
}

/// [`event!`](crate::event) at [`Level::Info`](crate::Level::Info).
#[macro_export]
macro_rules! info {
    ($($arg:tt)+) => { $crate::event!($crate::Level::Info, $($arg)+) };
}

/// [`event!`](crate::event) at [`Level::Debug`](crate::Level::Debug).
#[macro_export]
macro_rules! debug {
    ($($arg:tt)+) => { $crate::event!($crate::Level::Debug, $($arg)+) };
}

/// [`event!`](crate::event) at [`Level::Trace`](crate::Level::Trace).
#[macro_export]
macro_rules! trace {
    ($($arg:tt)+) => { $crate::event!($crate::Level::Trace, $($arg)+) };
}
