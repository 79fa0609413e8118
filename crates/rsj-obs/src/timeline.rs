//! Per-request trace identities and stage timelines.
//!
//! A [`TraceContext`] is a 128-bit trace id plus a 64-bit span id, drawn
//! from a splitmix64 generator seeded by [`set_trace_seed`] and advanced
//! by an atomic counter — no wall-clock entropy, so a run that issues the
//! same requests in the same order mints the same ids and stays
//! reproducible. A [`Timeline`] records named stage intervals against a
//! monotonic epoch and freezes into a serializable [`TimelineRecord`].
//!
//! Both follow the crate's one-relaxed-atomic-when-disabled discipline:
//! [`Timeline::disabled`] holds no allocation and every recording call on
//! it is a branch on `None`, and [`Timeline::begin_if_enabled`] costs a
//! single relaxed atomic load when request tracing is off.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use serde::{Deserialize, Serialize};

/// Process-global switch for [`Timeline::begin_if_enabled`].
static REQUEST_TRACING: AtomicBool = AtomicBool::new(false);

/// Generator state: a settable base seed plus a monotonically increasing
/// draw counter. Ids depend only on (seed, draw index), never the clock.
static TRACE_SEED: AtomicU64 = AtomicU64::new(0x9E37_79B9_7F4A_7C15);
static TRACE_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Whether [`Timeline::begin_if_enabled`] starts live timelines. One
/// relaxed atomic load.
#[inline(always)]
pub fn request_tracing_enabled() -> bool {
    REQUEST_TRACING.load(Ordering::Relaxed)
}

/// Turns process-global request tracing on or off.
pub fn set_request_tracing(on: bool) {
    REQUEST_TRACING.store(on, Ordering::Relaxed);
}

/// Reseeds the trace-id generator and resets its draw counter, making the
/// sequence of generated ids reproducible from this point.
pub fn set_trace_seed(seed: u64) {
    TRACE_SEED.store(seed, Ordering::Relaxed);
    TRACE_COUNTER.store(0, Ordering::Relaxed);
}

/// The splitmix64 finalizer: a bijective avalanche over `u64`.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A per-request trace identity: a 128-bit trace id shared by everything
/// that happened on behalf of one request, and a 64-bit span id for one
/// hop within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// The 128-bit request identity.
    pub trace_id: u128,
    /// This hop's 64-bit span identity.
    pub span_id: u64,
}

impl TraceContext {
    /// Mints a fresh context from the seeded generator. Deterministic
    /// given the seed and the number of prior draws; never reads a clock.
    pub fn generate() -> Self {
        let draw = TRACE_COUNTER.fetch_add(1, Ordering::Relaxed);
        let seed = TRACE_SEED.load(Ordering::Relaxed);
        let hi = splitmix64(seed ^ splitmix64(draw));
        let lo = splitmix64(hi.wrapping_add(draw));
        let trace_id = ((hi as u128) << 64) | lo as u128;
        Self {
            // A zero id reads as "absent" in most tracing systems.
            trace_id: if trace_id == 0 { 1 } else { trace_id },
            span_id: splitmix64(lo ^ seed),
        }
    }

    /// Parses a 1–32 character hex trace id (as produced by
    /// [`trace_id_hex`](Self::trace_id_hex)); the span id is minted fresh.
    pub fn from_hex(s: &str) -> Option<Self> {
        if s.is_empty() || s.len() > 32 {
            return None;
        }
        let trace_id = u128::from_str_radix(s, 16).ok()?;
        Some(Self {
            trace_id,
            span_id: Self::generate().span_id,
        })
    }

    /// The trace id as 32 lowercase hex characters.
    pub fn trace_id_hex(&self) -> String {
        format!("{:032x}", self.trace_id)
    }
}

/// One recorded stage interval, in microseconds relative to the
/// timeline's epoch.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageRecord {
    /// Stage name (`queue_wait`, `solve`, ...).
    pub name: String,
    /// Microseconds from the timeline epoch to the stage start.
    pub start_us: u64,
    /// Microseconds from the timeline epoch to the stage end
    /// (`>= start_us`).
    pub end_us: u64,
    /// Key/value annotations attached after the stage ran (e.g. the
    /// `solve` stage carries `dp_path` and `eval_table` so traces can
    /// attribute fast-path speedups). Empty for most stages, written as
    /// `[]`; a missing `args` (a pre-annotation trace) reads as empty.
    #[serde(default)]
    pub args: Vec<(String, String)>,
}

impl StageRecord {
    /// The stage duration in microseconds.
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// A frozen, serializable request timeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimelineRecord {
    /// The request's trace id (lowercase hex, or a client-supplied token).
    pub trace_id: String,
    /// The operation the request performed (`plan`, `ping`, ...).
    pub op: String,
    /// Microseconds from the epoch to the freeze point — the
    /// server-measured wall time of the request.
    pub total_us: u64,
    /// The recorded stage intervals, in recording order.
    pub stages: Vec<StageRecord>,
}

impl TimelineRecord {
    /// The duration of the first stage named `name`, if recorded.
    pub fn stage_us(&self, name: &str) -> Option<u64> {
        self.stages
            .iter()
            .find(|s| s.name == name)
            .map(StageRecord::duration_us)
    }

    /// The sum of all recorded stage durations — comparable to
    /// [`total_us`](Self::total_us) to judge timeline coverage.
    pub fn stage_sum_us(&self) -> u64 {
        self.stages.iter().map(StageRecord::duration_us).sum()
    }
}

/// Live recording state; boxed behind [`Timeline`]'s `Option` so the
/// disabled timeline is a single `None` word and allocates nothing.
#[derive(Debug)]
struct Inner {
    ctx: TraceContext,
    /// Overrides `ctx`'s hex id in the frozen record (a client-adopted id).
    adopted_id: Option<String>,
    epoch: Instant,
    stages: Vec<LiveStage>,
}

/// A recorded stage before freezing; args accumulate via
/// [`Timeline::annotate_last`].
#[derive(Debug)]
struct LiveStage {
    name: &'static str,
    start_us: u64,
    end_us: u64,
    args: Vec<(String, String)>,
}

/// A per-request stage recorder. See the module docs.
#[derive(Debug)]
pub struct Timeline {
    inner: Option<Box<Inner>>,
}

impl Timeline {
    /// A timeline that records nothing and holds no allocation: every
    /// call on it is a branch on `None`.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// Starts a live timeline with stage offsets measured from `epoch`
    /// (which may predate this call — e.g. when the connection was
    /// accepted — so queued time is attributable).
    pub fn begin(ctx: TraceContext, epoch: Instant) -> Self {
        Self {
            inner: Some(Box::new(Inner {
                ctx,
                adopted_id: None,
                epoch,
                stages: Vec::with_capacity(8),
            })),
        }
    }

    /// [`begin`](Self::begin) with a freshly generated context when
    /// process-global request tracing is on, [`disabled`](Self::disabled)
    /// otherwise. The off path is one relaxed atomic load: no id is
    /// minted, no clock read, nothing allocated.
    pub fn begin_if_enabled(epoch: Instant) -> Self {
        if request_tracing_enabled() {
            Self::begin(TraceContext::generate(), epoch)
        } else {
            Self::disabled()
        }
    }

    /// Whether this timeline is recording.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The trace id that the frozen record will carry, if recording.
    pub fn trace_id(&self) -> Option<String> {
        let inner = self.inner.as_ref()?;
        Some(match &inner.adopted_id {
            Some(id) => id.clone(),
            None => inner.ctx.trace_id_hex(),
        })
    }

    /// Adopts a caller-supplied trace id verbatim (e.g. one sent by a
    /// client) in place of the generated hex id. No-op when disabled.
    pub fn adopt_trace_id(&mut self, id: impl Into<String>) {
        if let Some(inner) = &mut self.inner {
            inner.adopted_id = Some(id.into());
        }
    }

    /// Records a stage that ran from `start` to `end`. Instants before
    /// the epoch clamp to it, so retroactive spans (queue wait measured
    /// from accept time) stay non-negative and well-ordered.
    pub fn record_span(&mut self, name: &'static str, start: Instant, end: Instant) {
        if let Some(inner) = &mut self.inner {
            let start_us = micros_since(inner.epoch, start);
            let end_us = micros_since(inner.epoch, end).max(start_us);
            inner.stages.push(LiveStage {
                name,
                start_us,
                end_us,
                args: Vec::new(),
            });
        }
    }

    /// Attaches a `key = value` annotation to the most recently recorded
    /// stage (e.g. the DP path the `solve` stage took, known only after
    /// it returns). No-op when disabled or before any stage is recorded.
    pub fn annotate_last(&mut self, key: impl Into<String>, value: impl Into<String>) {
        if let Some(inner) = &mut self.inner {
            if let Some(stage) = inner.stages.last_mut() {
                stage.args.push((key.into(), value.into()));
            }
        }
    }

    /// Runs `f`, recording it as stage `name`. When disabled this calls
    /// `f` directly without reading the clock.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        match &mut self.inner {
            None => f(),
            Some(inner) => {
                let start = Instant::now();
                let out = f();
                let start_us = micros_since(inner.epoch, start);
                let end_us = micros_since(inner.epoch, Instant::now()).max(start_us);
                inner.stages.push(LiveStage {
                    name,
                    start_us,
                    end_us,
                    args: Vec::new(),
                });
                out
            }
        }
    }

    /// Freezes the current state into a [`TimelineRecord`] without
    /// consuming the timeline (used to embed a timeline in a response
    /// while later stages are still to come). `None` when disabled.
    pub fn snapshot(&self, op: &str) -> Option<TimelineRecord> {
        let inner = self.inner.as_ref()?;
        Some(TimelineRecord {
            trace_id: self.trace_id()?,
            op: op.to_string(),
            total_us: micros_since(inner.epoch, Instant::now()),
            stages: inner
                .stages
                .iter()
                .map(|stage| StageRecord {
                    name: stage.name.to_string(),
                    start_us: stage.start_us,
                    end_us: stage.end_us,
                    args: stage.args.clone(),
                })
                .collect(),
        })
    }

    /// Consumes the timeline into its frozen record; `None` when disabled.
    pub fn finish(self, op: &str) -> Option<TimelineRecord> {
        self.snapshot(op)
    }
}

/// Saturating whole microseconds from `epoch` to `at`.
fn micros_since(epoch: Instant, at: Instant) -> u64 {
    at.saturating_duration_since(epoch).as_micros() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn generated_ids_are_unique_and_nonzero() {
        let a = TraceContext::generate();
        let b = TraceContext::generate();
        assert_ne!(a.trace_id, 0);
        assert_ne!(a.trace_id, b.trace_id);
        assert_ne!(a.span_id, b.span_id);
    }

    #[test]
    fn hex_round_trips() {
        let ctx = TraceContext::generate();
        let hex = ctx.trace_id_hex();
        assert_eq!(hex.len(), 32);
        let back = TraceContext::from_hex(&hex).expect("parse");
        assert_eq!(back.trace_id, ctx.trace_id);
        assert!(TraceContext::from_hex("").is_none());
        assert!(TraceContext::from_hex("zz").is_none());
        assert!(TraceContext::from_hex(&"f".repeat(33)).is_none());
    }

    #[test]
    fn timeline_records_ordered_stages() {
        let epoch = Instant::now();
        let mut t = Timeline::begin(TraceContext::generate(), epoch);
        t.record_span("queued", epoch, Instant::now());
        let out = t.time("work", || {
            std::thread::sleep(Duration::from_millis(2));
            41 + 1
        });
        assert_eq!(out, 42);
        let record = t.finish("test").expect("live timeline");
        assert_eq!(record.op, "test");
        assert_eq!(record.stages.len(), 2);
        assert_eq!(record.stages[0].name, "queued");
        assert!(record.stage_us("work").expect("work stage") >= 2_000);
        assert!(record.total_us >= record.stages[1].end_us);
        for s in &record.stages {
            assert!(s.end_us >= s.start_us);
        }
    }

    #[test]
    fn pre_epoch_instants_clamp_to_zero() {
        let early = Instant::now();
        std::thread::sleep(Duration::from_millis(1));
        let epoch = Instant::now();
        let mut t = Timeline::begin(TraceContext::generate(), epoch);
        t.record_span("retro", early, epoch);
        let record = t.finish("clamp").unwrap();
        assert_eq!(record.stages[0].start_us, 0);
        assert_eq!(record.stages[0].end_us, 0);
    }

    #[test]
    fn disabled_timeline_yields_nothing() {
        let mut t = Timeline::disabled();
        assert!(!t.is_enabled());
        assert!(t.trace_id().is_none());
        t.record_span("ignored", Instant::now(), Instant::now());
        assert_eq!(t.time("ignored", || 7), 7);
        assert!(t.finish("ignored").is_none());
    }

    #[test]
    fn adopted_ids_override_generated_hex() {
        let mut t = Timeline::begin(TraceContext::generate(), Instant::now());
        t.adopt_trace_id("client-abc");
        assert_eq!(t.trace_id().as_deref(), Some("client-abc"));
        assert_eq!(t.finish("op").unwrap().trace_id, "client-abc");
    }
}
