//! Ready-made [`Subscriber`] implementations: the leveled stderr logger
//! behind `RSJ_LOG` and an in-memory capture for tests.

use crate::level::Level;
use crate::trace::{Event, SpanRecord, Subscriber};
use std::io::Write;
use std::sync::Mutex;
use std::time::Duration;

/// Leveled logger printing `[LEVEL target] span.path: message` lines to
/// stderr. This is what [`crate::init_from_env`] installs.
#[derive(Debug)]
pub(crate) struct StderrLogger {
    level: Level,
}

impl StderrLogger {
    /// A logger passing everything at `level` and more severe.
    pub(crate) fn new(level: Level) -> Self {
        Self { level }
    }

    fn format(event: &Event<'_>) -> String {
        let mut line = format!("[{} {}] ", event.level.tag(), event.target);
        if !event.spans.is_empty() {
            line.push_str(&event.spans.join(">"));
            line.push_str(": ");
        }
        line.push_str(event.message);
        line
    }
}

impl Subscriber for StderrLogger {
    fn max_level(&self) -> Level {
        self.level
    }

    // `writeln!` on a locked stderr, not `eprintln!`: a closed stderr (its
    // reader exited) drops the line instead of panicking the logging thread.
    fn on_event(&self, event: &Event<'_>) {
        let _ = writeln!(std::io::stderr().lock(), "{}", Self::format(event));
    }

    fn on_span_exit(&self, span: &SpanRecord<'_>, elapsed: Duration) {
        let _ = writeln!(
            std::io::stderr().lock(),
            "[{} span] {}: {:.3?}",
            Level::Trace.tag(),
            span.spans.join(">"),
            elapsed
        );
    }
}

/// Captures formatted events in memory — for asserting on log output in
/// tests without touching stderr.
#[derive(Debug)]
pub struct MemorySink {
    level: Level,
    events: Mutex<Vec<String>>,
    span_exits: Mutex<Vec<(String, Duration)>>,
}

impl MemorySink {
    /// A capture accepting everything at `level` and more severe.
    pub fn new(level: Level) -> Self {
        Self {
            level,
            events: Mutex::new(Vec::new()),
            span_exits: Mutex::new(Vec::new()),
        }
    }

    /// The formatted events captured so far, in order.
    pub fn events(&self) -> Vec<String> {
        self.events.lock().expect("sink lock poisoned").clone()
    }

    /// The span exits captured so far: `(span path, elapsed)`.
    pub fn span_exits(&self) -> Vec<(String, Duration)> {
        self.span_exits.lock().expect("sink lock poisoned").clone()
    }
}

impl Subscriber for MemorySink {
    fn max_level(&self) -> Level {
        self.level
    }

    fn on_event(&self, event: &Event<'_>) {
        self.events
            .lock()
            .expect("sink lock poisoned")
            .push(StderrLogger::format(event));
    }

    fn on_span_exit(&self, span: &SpanRecord<'_>, elapsed: Duration) {
        self.span_exits
            .lock()
            .expect("sink lock poisoned")
            .push((span.spans.join(">"), elapsed));
    }
}
