//! Observability for the reservation-strategies workspace: structured
//! span/event tracing, a metrics registry with mergeable log-linear
//! histograms (with per-bucket exemplars), exporters (Prometheus text
//! exposition and round-trip-exact JSON), and per-request distributed
//! tracing — [`TraceContext`] identities, [`Timeline`] stage recorders,
//! a [`TraceRing`] of completed request timelines, and a
//! Chrome-trace/Perfetto exporter ([`chrome_trace_json`]).
//!
//! One timer serves both sinks: a [`span!`] times its scope once and
//! reports to the subscriber when span tracing is on and to its
//! wall-time histogram when metrics are on.
//!
//! The crate is built so that *disabled* observability is effectively
//! free: every tracing macro and metrics guard reduces to a relaxed
//! atomic load on its fast path, and nothing allocates.
//!
//! ## Quick start
//!
//! ```
//! // Install the stderr logger from RSJ_LOG (defaults to `info`).
//! rsj_obs::init_from_env();
//!
//! // Leveled logging with format! syntax — free when filtered out.
//! rsj_obs::info!("batch finished: {} jobs", 128);
//!
//! // Metrics: opt in, record, export.
//! rsj_obs::set_metrics_enabled(true);
//! if rsj_obs::metrics_enabled() {
//!     rsj_obs::global_registry().counter("jobs_total").add(128);
//! }
//! let prometheus_text = rsj_obs::global_registry().snapshot().to_prometheus();
//! # assert!(prometheus_text.contains("jobs_total"));
//! ```
//!
//! ## Environment
//!
//! | Variable | Effect |
//! |---|---|
//! | `RSJ_LOG` | stderr log level: `error`, `warn`, `info`, `debug`, `trace`, or `off` |

#![warn(missing_docs)]

pub(crate) mod chrome;
pub mod export;
pub(crate) mod histogram;
pub(crate) mod level;
pub(crate) mod metrics;
pub(crate) mod ring;
pub(crate) mod subscribers;
pub(crate) mod timeline;
pub mod trace;

pub use chrome::chrome_trace_json;
pub use export::{write_metrics_file, HistogramSample, MetricsSnapshot};
pub use histogram::{Histogram, SUBBUCKETS};
pub use level::{parse_filter, Level};
pub use metrics::{Counter, Registry};
pub use ring::TraceRing;
pub use subscribers::MemorySink;
pub use timeline::{StageRecord, Timeline, TimelineRecord, TraceContext};
pub use trace::{clear_subscriber, set_subscriber, Span, Subscriber};

use std::sync::Arc;
use subscribers::StderrLogger;

/// Whether recording into the global metrics registry is enabled
/// (re-export of `metrics::enabled` under an unambiguous name).
#[inline(always)]
pub fn metrics_enabled() -> bool {
    metrics::enabled()
}

/// Turns global metrics recording on or off (re-export of
/// `metrics::set_enabled`).
pub fn set_metrics_enabled(on: bool) {
    metrics::set_enabled(on);
}

/// The process-global metrics registry (re-export of `metrics::global`).
pub fn global_registry() -> &'static Registry {
    metrics::global()
}

/// Installs a `StderrLogger` at `level`; `None` clears the subscriber
/// so tracing reverts to the free disabled path.
pub fn init(level: Option<Level>) {
    match level {
        Some(level) => set_subscriber(Arc::new(StderrLogger::new(level))),
        None => clear_subscriber(),
    }
}

/// Installs a `StderrLogger` at the level named by `RSJ_LOG`, falling
/// back to `default` when the variable is unset and to `warn` when it is
/// set to an unparsable value (a typo should not silence error reporting).
pub fn init_from_env_default(default: Option<Level>) {
    let level = match std::env::var("RSJ_LOG") {
        Ok(value) => parse_filter(&value).unwrap_or(Some(Level::Warn)),
        Err(_) => default,
    };
    init(level);
}

/// [`init_from_env_default`] with the common `info` default: progress
/// milestones visible, solver internals quiet, `RSJ_LOG=off` silent.
pub fn init_from_env() {
    init_from_env_default(Some(Level::Info));
}

#[cfg(test)]
mod tests {
    use super::*;

    // Subscriber state is process-global, so env/init behavior is
    // exercised in one test to avoid cross-test interference.
    #[test]
    fn init_paths_install_and_clear() {
        init(Some(Level::Debug));
        assert!(trace::enabled(Level::Debug));
        assert!(!trace::enabled(Level::Trace));
        init(None);
        assert!(!trace::enabled(Level::Error));
    }
}
