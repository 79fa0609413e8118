//! The versioned wire protocol: line-delimited JSON over TCP.
//!
//! Every message is one JSON object on one line, terminated by `\n`.
//! Requests carry an `op` tag (`plan`, `plan_batch`, `trace`, `metrics`,
//! `ping`, `shutdown`) and a protocol version `v`; responses carry a
//! `status` tag (`plan`, `plan_batch`, `trace`, `metrics`, `pong`,
//! `shutting_down`, `error`). Unknown ops, malformed JSON and unsupported
//! versions all produce a typed [`Response::Error`] — the connection
//! stays usable afterwards.
//!
//! **Version negotiation.** `v` defaults to 1 when omitted, so every
//! bare-`op` frame and pre-v2 client works unchanged; the server accepts
//! `1..=`[`PROTOCOL_VERSION_MAX`] and answers each request in the version
//! it arrived in. v2 adds the `plan_batch` op — a vec of plan requests
//! answered with per-item tagged results ([`BatchItem`]).
//!
//! Plan requests may carry a client-chosen `trace_id`; the server adopts
//! and echoes it on every reply to that request — success, typed error,
//! or an `overloaded`/`not_ready` shed — so client and server logs join
//! on one key. `trace: true` additionally embeds the server-side stage
//! timeline in the response.
//!
//! The `plan` request body reuses the workspace's own serde shapes
//! ([`DistSpec`], [`CostModel`], [`SolverSpec`], [`SimulateOptions`]), so a
//! request is exactly "a [`Planner`](reservation_strategies::Planner)
//! configuration on the wire" and the response embeds the facade's
//! [`Plan`] verbatim.

use reservation_strategies::{Plan, PlanRequest, RsjError, SimulateOptions};
use rsj_core::{CostModel, SolverSpec};
use rsj_dist::DistSpec;
use serde::{Deserialize, Serialize};

use crate::recovery::RecoveryStats;

/// The baseline protocol version, and the default when a frame omits `v`
/// — so every bare-`op` one-liner and every pre-v2 client keeps working
/// unchanged. The server answers each request in the version it arrived
/// in.
pub const PROTOCOL_VERSION: u32 = 1;

/// The newest protocol version this build speaks. v2 adds the
/// `plan_batch` op; every v1 frame is also a valid v2 frame. Requests
/// outside `1..=PROTOCOL_VERSION_MAX` are rejected with
/// [`ErrorKind::UnsupportedVersion`].
pub const PROTOCOL_VERSION_MAX: u32 = 2;

fn default_version() -> u32 {
    PROTOCOL_VERSION
}

fn default_solver() -> SolverSpec {
    SolverSpec::MeanByMean
}

/// A client request. The `v` field defaults to [`PROTOCOL_VERSION`] when
/// omitted so hand-written one-liners stay short.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "op", rename_all = "snake_case")]
pub enum Request {
    /// Compute (or fetch from cache) a reservation plan.
    Plan {
        /// Protocol version.
        #[serde(default = "default_version")]
        v: u32,
        /// The job-runtime distribution (required).
        distribution: DistSpec,
        /// Cost model rates; defaults to RESERVATIONONLY (`α=1, β=γ=0`).
        #[serde(default)]
        cost: Option<CostModel>,
        /// Which solver to dispatch to (default `mean_by_mean`).
        #[serde(default = "default_solver")]
        solver: SolverSpec,
        /// Re-seeds the solver where a seed applies (Brute-Force Monte
        /// Carlo); overrides the seed inside `solver`.
        #[serde(default)]
        seed: Option<u64>,
        /// Also replay the plan against a seeded batch of sampled jobs.
        #[serde(default)]
        simulate: Option<SimulateOptions>,
        /// Per-request deadline in milliseconds, measured from the moment
        /// the server takes the request off the wire (for a freshly
        /// accepted connection, from accept — queue wait counts). Expired
        /// requests are shed with [`ErrorKind::DeadlineExceeded`] without
        /// invoking the solver; a deadline that fires mid-solve cancels
        /// the solver cooperatively.
        #[serde(default)]
        deadline_ms: Option<u64>,
        /// Client-supplied trace id. The server adopts it (instead of
        /// generating one) and echoes it in the response — including
        /// error and shed responses — so client and server logs join.
        #[serde(default)]
        trace_id: Option<String>,
        /// Ask the server to record a stage timeline for this request and
        /// embed it in the response, even when the server-wide trace ring
        /// is off.
        #[serde(default)]
        trace: bool,
    },
    /// Compute a whole batch of plans in one round trip (protocol v2).
    /// Each item takes the path a `plan` takes — plan cache, single-flight
    /// coalescing with identical in-flight items or plans, solver, journal
    /// — and succeeds or fails independently; the response is a vec of
    /// per-item tagged results in input order.
    PlanBatch {
        /// Protocol version; `plan_batch` requires `v: 2`.
        #[serde(default = "default_version")]
        v: u32,
        /// The plan requests, each a full planner configuration (same
        /// shape as the facade's `PlanRequest`).
        items: Vec<PlanRequest>,
        /// Batch-level deadline in milliseconds, measured like a `plan`
        /// deadline; when it expires, remaining unsolved items fail with
        /// [`ErrorKind::DeadlineExceeded`].
        #[serde(default)]
        deadline_ms: Option<u64>,
        /// Client-supplied trace id for the whole batch (one id; items are
        /// distinguished by per-item `item` stage annotations).
        #[serde(default)]
        trace_id: Option<String>,
        /// Embed the server-side stage timeline in the response.
        #[serde(default)]
        trace: bool,
    },
    /// Fetch recent request timelines from the server's trace ring
    /// (requires the server to run with `--trace-buffer`).
    Trace {
        /// Protocol version.
        #[serde(default = "default_version")]
        v: u32,
        /// At most this many timelines, newest first (server-capped at
        /// the ring capacity; defaults to 32).
        #[serde(default)]
        last: Option<usize>,
        /// Only timelines at least this long, in milliseconds.
        #[serde(default)]
        min_duration_ms: Option<f64>,
        /// Only the timeline(s) with exactly this trace id (a filter, not
        /// an identity for the trace request itself).
        #[serde(default)]
        trace_id: Option<String>,
    },
    /// Fetch the server's metrics in Prometheus text exposition format.
    Metrics {
        /// Protocol version.
        #[serde(default = "default_version")]
        v: u32,
    },
    /// Liveness probe.
    Ping {
        /// Protocol version.
        #[serde(default = "default_version")]
        v: u32,
    },
    /// Health probe: always answers (even mid-recovery) with the server's
    /// durability and load posture.
    Health {
        /// Protocol version.
        #[serde(default = "default_version")]
        v: u32,
    },
    /// Readiness probe: succeeds only when recovery has completed and the
    /// admission queue sits below its high watermark; otherwise a typed
    /// [`ErrorKind::NotReady`] error.
    Ready {
        /// Protocol version.
        #[serde(default = "default_version")]
        v: u32,
    },
    /// Ask the server to stop accepting connections and drain.
    Shutdown {
        /// Protocol version.
        #[serde(default = "default_version")]
        v: u32,
    },
}

impl Request {
    /// A plan request for `distribution` with all defaults (RESERVATIONONLY
    /// cost, `mean_by_mean` solver, no simulation).
    pub fn plan(distribution: DistSpec) -> Self {
        Request::Plan {
            v: PROTOCOL_VERSION,
            distribution,
            cost: None,
            solver: default_solver(),
            seed: None,
            simulate: None,
            deadline_ms: None,
            trace_id: None,
            trace: false,
        }
    }

    /// A plan request for `distribution` solved by `solver`.
    pub fn plan_with(distribution: DistSpec, solver: SolverSpec) -> Self {
        Request::Plan {
            v: PROTOCOL_VERSION,
            distribution,
            cost: None,
            solver,
            seed: None,
            simulate: None,
            deadline_ms: None,
            trace_id: None,
            trace: false,
        }
    }

    /// A v2 batch request over `items` with no deadline and no tracing.
    pub fn plan_batch(items: Vec<PlanRequest>) -> Self {
        Request::PlanBatch {
            v: PROTOCOL_VERSION_MAX,
            items,
            deadline_ms: None,
            trace_id: None,
            trace: false,
        }
    }

    /// Sets the per-request (or batch-level) deadline on a plan or
    /// plan-batch request; a no-op for the other ops (they answer
    /// immediately).
    pub fn with_deadline_ms(mut self, ms: u64) -> Self {
        match &mut self {
            Request::Plan { deadline_ms, .. } | Request::PlanBatch { deadline_ms, .. } => {
                *deadline_ms = Some(ms);
            }
            _ => {}
        }
        self
    }

    /// Attaches a client-chosen trace id to a plan or plan-batch request
    /// (or sets the id filter on a trace request); a no-op for the other
    /// ops.
    pub fn with_trace_id(mut self, id: impl Into<String>) -> Self {
        match &mut self {
            Request::Plan { trace_id, .. }
            | Request::PlanBatch { trace_id, .. }
            | Request::Trace { trace_id, .. } => {
                *trace_id = Some(id.into());
            }
            _ => {}
        }
        self
    }

    /// Asks for an embedded stage timeline on a plan or plan-batch
    /// request; a no-op for the other ops.
    pub fn with_trace(mut self) -> Self {
        match &mut self {
            Request::Plan { trace, .. } | Request::PlanBatch { trace, .. } => {
                *trace = true;
            }
            _ => {}
        }
        self
    }

    /// The trace id the request carries, if any.
    pub fn trace_id(&self) -> Option<&str> {
        match self {
            Request::Plan { trace_id, .. }
            | Request::PlanBatch { trace_id, .. }
            | Request::Trace { trace_id, .. } => trace_id.as_deref(),
            _ => None,
        }
    }

    /// A trace-ring query: at most `last` timelines (newest first),
    /// optionally only those at least `min_duration_ms` long or matching
    /// `trace_id` exactly.
    pub fn trace_query(
        last: Option<usize>,
        min_duration_ms: Option<f64>,
        trace_id: Option<String>,
    ) -> Self {
        Request::Trace {
            v: PROTOCOL_VERSION,
            last,
            min_duration_ms,
            trace_id,
        }
    }

    /// A metrics request.
    pub fn metrics() -> Self {
        Request::Metrics {
            v: PROTOCOL_VERSION,
        }
    }

    /// A liveness probe.
    pub fn ping() -> Self {
        Request::Ping {
            v: PROTOCOL_VERSION,
        }
    }

    /// A health probe.
    pub fn health() -> Self {
        Request::Health {
            v: PROTOCOL_VERSION,
        }
    }

    /// A readiness probe.
    pub fn ready() -> Self {
        Request::Ready {
            v: PROTOCOL_VERSION,
        }
    }

    /// A graceful-shutdown request.
    pub fn shutdown() -> Self {
        Request::Shutdown {
            v: PROTOCOL_VERSION,
        }
    }

    /// The protocol version the request claims.
    pub fn version(&self) -> u32 {
        match *self {
            Request::Plan { v, .. }
            | Request::PlanBatch { v, .. }
            | Request::Trace { v, .. }
            | Request::Metrics { v }
            | Request::Ping { v }
            | Request::Health { v }
            | Request::Ready { v }
            | Request::Shutdown { v } => v,
        }
    }
}

/// Validates a client-supplied trace id for adoption: trimmed, non-empty,
/// at most 64 printable-ASCII characters. Anything else is treated as
/// absent rather than rejected — a bad trace id should never fail a
/// request.
pub fn sanitize_trace_id(id: Option<&str>) -> Option<String> {
    let id = id?.trim();
    if id.is_empty() || id.len() > 64 || !id.chars().all(|c| c.is_ascii_graphic()) {
        return None;
    }
    Some(id.to_string())
}

/// Where a plan response came from and who produced it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Provenance {
    /// Server identity, e.g. `rsj-serve/0.1.0`.
    pub server: String,
    /// Protocol version the response was produced under.
    pub protocol: u32,
    /// Canonical solver name that produced (or would have produced) the
    /// plan.
    pub solver: String,
    /// Worker-pool width the solve ran with.
    pub threads: usize,
    /// `true` when the plan was served from the LRU cache without invoking
    /// the solver.
    pub cached: bool,
    /// `true` when this response coalesced onto another request's
    /// in-flight solve (single-flight) instead of running its own.
    #[serde(default)]
    pub coalesced: bool,
}

/// Wall-clock breakdown of one plan request, in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Timings {
    /// Validating the request and instantiating the planner.
    pub build_seconds: f64,
    /// Running the solver (0 on a cache hit).
    pub solve_seconds: f64,
    /// End-to-end handling time.
    pub total_seconds: f64,
}

/// What went wrong, as a stable machine-readable discriminant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum ErrorKind {
    /// The line was not valid JSON or not a known request shape.
    MalformedRequest,
    /// The request's `v` falls outside the versions this build speaks
    /// (`1..=`[`PROTOCOL_VERSION_MAX`]), or a v2-only op claimed v1.
    UnsupportedVersion,
    /// The distribution spec failed validation.
    InvalidDistribution,
    /// The cost-model rates violate the §2.2 constraints.
    InvalidCost,
    /// The solver spec or name failed validation.
    InvalidSolver,
    /// The solver ran and failed.
    PlanningFailed,
    /// The simulate-on-plan replay failed.
    SimulationFailed,
    /// The connection exceeded the server's per-connection request limit.
    TooManyRequests,
    /// The request line exceeded the server's size limit.
    RequestTooLarge,
    /// The server shed the request under load (admission queue above its
    /// high watermark). Retryable after backoff: nothing about the
    /// request itself is wrong.
    Overloaded,
    /// The server is still warming up (recovery in progress, or the
    /// queue is above its high watermark). Retryable — and unlike
    /// [`ErrorKind::Overloaded`] it signals a *warming* server, not a
    /// struggling one, so clients should retry patiently without
    /// escalating backoff or tripping circuit breakers.
    NotReady,
    /// The request's `deadline_ms` expired — in the queue, or mid-solve
    /// (the solver was cancelled cooperatively).
    DeadlineExceeded,
    /// A `trace` op hit a server running without `--trace-buffer`.
    TracingDisabled,
    /// Anything else (worker pool failures, internal bugs).
    Internal,
}

impl std::fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ErrorKind::MalformedRequest => "malformed_request",
            ErrorKind::UnsupportedVersion => "unsupported_version",
            ErrorKind::InvalidDistribution => "invalid_distribution",
            ErrorKind::InvalidCost => "invalid_cost",
            ErrorKind::InvalidSolver => "invalid_solver",
            ErrorKind::PlanningFailed => "planning_failed",
            ErrorKind::SimulationFailed => "simulation_failed",
            ErrorKind::TooManyRequests => "too_many_requests",
            ErrorKind::RequestTooLarge => "request_too_large",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::NotReady => "not_ready",
            ErrorKind::DeadlineExceeded => "deadline_exceeded",
            ErrorKind::TracingDisabled => "tracing_disabled",
            ErrorKind::Internal => "internal",
        };
        f.write_str(s)
    }
}

impl ErrorKind {
    /// Whether retrying the identical request later can succeed. Only
    /// transient server-side conditions qualify; malformed or invalid
    /// requests will fail the same way every time, and an expired
    /// deadline stays expired.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            ErrorKind::Overloaded | ErrorKind::NotReady | ErrorKind::Internal
        )
    }
}

/// Maps a facade error onto the wire discriminant.
pub fn classify(err: &RsjError) -> ErrorKind {
    match err {
        RsjError::Dist(_) => ErrorKind::InvalidDistribution,
        // The only cancellation source in the server is the per-request
        // deadline token, so a cancelled solve is a deadline miss.
        RsjError::Core(rsj_core::CoreError::Cancelled) => ErrorKind::DeadlineExceeded,
        RsjError::Core(rsj_core::CoreError::UnknownName { .. }) => ErrorKind::InvalidSolver,
        RsjError::Core(rsj_core::CoreError::InvalidHeuristicParameter { .. }) => {
            ErrorKind::InvalidSolver
        }
        RsjError::Core(rsj_core::CoreError::InvalidCostParameter { .. }) => ErrorKind::InvalidCost,
        RsjError::Core(_) => ErrorKind::PlanningFailed,
        RsjError::Sim(_) => ErrorKind::SimulationFailed,
        RsjError::Par(_) => ErrorKind::Internal,
        RsjError::Config { .. } => ErrorKind::MalformedRequest,
    }
}

/// The server's durability and load posture, as reported by the `health`
/// op. Always available — a server mid-recovery still answers `health`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HealthInfo {
    /// Whether the server would answer a `ready` probe right now:
    /// recovery complete, not draining, queue below its high watermark.
    pub ready: bool,
    /// Whether startup recovery (snapshot load + journal replay) has
    /// completed. Servers without a `--journal-dir` recover trivially.
    pub recovered: bool,
    /// Whether a shutdown/drain is in progress.
    pub draining: bool,
    /// Current admission-queue depth.
    pub queue_depth: usize,
    /// Plans currently held by the cache.
    pub cache_entries: usize,
    /// What recovery found, once it has run (`null` before that, and on
    /// servers without durability configured).
    #[serde(default)]
    pub recovery: Option<RecoveryStats>,
}

/// One item of a `plan_batch` response: independently a plan or a typed
/// error, tagged like a top-level response (`status`: `plan` / `error`).
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "status", rename_all = "snake_case")]
pub enum BatchItem {
    /// The item's plan, bit-identical to what a standalone `plan` op for
    /// the same request would return.
    Plan {
        /// The computed (or cached) plan.
        plan: Plan,
        /// Who computed it and whether the cache served it.
        provenance: Provenance,
    },
    /// The item failed; its neighbours are unaffected.
    Error {
        /// Stable machine-readable discriminant.
        kind: ErrorKind,
        /// Human-readable explanation.
        message: String,
    },
}

impl BatchItem {
    /// Shorthand for an error item.
    pub fn error(kind: ErrorKind, message: impl Into<String>) -> Self {
        BatchItem::Error {
            kind,
            message: message.into(),
        }
    }

    /// Whether the item carries a plan.
    pub fn is_ok(&self) -> bool {
        matches!(self, BatchItem::Plan { .. })
    }

    /// The item's error kind, when it failed.
    pub fn error_kind(&self) -> Option<ErrorKind> {
        match self {
            BatchItem::Error { kind, .. } => Some(*kind),
            BatchItem::Plan { .. } => None,
        }
    }

    /// Whether a failed item is worth retrying (transient error kind).
    pub fn is_retryable_error(&self) -> bool {
        self.error_kind().is_some_and(|k| k.is_retryable())
    }
}

/// A server response.
// One short-lived Response exists per request and is serialized right
// away, so the size skew of the Plan variant costs nothing; boxing it
// would complicate the wire shape for the vendored serde stub.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "status", rename_all = "snake_case")]
pub enum Response {
    /// A successful plan.
    Plan {
        /// Protocol version.
        v: u32,
        /// The computed (or cached) plan, exactly as the offline facade
        /// would return it — including the FNV-1a sequence digest.
        plan: Plan,
        /// Who computed it and whether the cache served it.
        provenance: Provenance,
        /// Wall-clock breakdown.
        timings: Timings,
        /// The request's trace id (echoed when the client sent one,
        /// server-generated when tracing is on, `null` otherwise).
        #[serde(default)]
        trace_id: Option<String>,
        /// The server-side stage timeline, when the request asked for it
        /// with `trace: true`.
        #[serde(default)]
        timeline: Option<rsj_obs::TimelineRecord>,
    },
    /// Per-item results of a `plan_batch` request, in input order
    /// (protocol v2).
    PlanBatch {
        /// Protocol version.
        v: u32,
        /// One tagged result per requested item.
        results: Vec<BatchItem>,
        /// The batch's trace id (one id for the whole batch).
        #[serde(default)]
        trace_id: Option<String>,
        /// The server-side stage timeline (one `item` stage per item),
        /// when the request asked with `trace: true`.
        #[serde(default)]
        timeline: Option<rsj_obs::TimelineRecord>,
    },
    /// Recent request timelines from the server's trace ring, newest
    /// first.
    Trace {
        /// Protocol version.
        v: u32,
        /// The matching timelines.
        timelines: Vec<rsj_obs::TimelineRecord>,
    },
    /// Metrics in Prometheus text exposition format.
    Metrics {
        /// Protocol version.
        v: u32,
        /// The exposition body.
        prometheus: String,
    },
    /// Liveness reply.
    Pong {
        /// Protocol version.
        v: u32,
    },
    /// Health report (always answered, even mid-recovery).
    Health {
        /// Protocol version.
        v: u32,
        /// The server's current posture.
        health: HealthInfo,
    },
    /// Readiness confirmation; a not-ready server answers the `ready` op
    /// with a typed [`ErrorKind::NotReady`] error instead.
    Ready {
        /// Protocol version.
        v: u32,
    },
    /// Acknowledges a shutdown request; the server drains and exits.
    ShuttingDown {
        /// Protocol version.
        v: u32,
    },
    /// A typed failure; the connection remains usable unless the kind is
    /// [`ErrorKind::TooManyRequests`] or [`ErrorKind::RequestTooLarge`].
    Error {
        /// Protocol version.
        v: u32,
        /// Stable machine-readable discriminant.
        kind: ErrorKind,
        /// Human-readable explanation.
        message: String,
        /// The request's trace id, echoed even on failures and sheds so
        /// client-side errors join to server-side timelines.
        #[serde(default)]
        trace_id: Option<String>,
    },
}

impl Response {
    /// Shorthand for a versioned error response.
    pub fn error(kind: ErrorKind, message: impl Into<String>) -> Self {
        Response::Error {
            v: PROTOCOL_VERSION,
            kind,
            message: message.into(),
            trace_id: None,
        }
    }

    /// [`Response::error`] carrying the request's trace id.
    pub fn error_traced(
        kind: ErrorKind,
        message: impl Into<String>,
        trace_id: Option<String>,
    ) -> Self {
        Response::Error {
            v: PROTOCOL_VERSION,
            kind,
            message: message.into(),
            trace_id,
        }
    }

    /// The trace id the response carries, if any.
    pub fn trace_id(&self) -> Option<&str> {
        match self {
            Response::Plan { trace_id, .. }
            | Response::PlanBatch { trace_id, .. }
            | Response::Error { trace_id, .. } => trace_id.as_deref(),
            _ => None,
        }
    }

    /// Stamps `id` onto the variants that carry a trace id (plan,
    /// plan-batch and error responses); a no-op for the rest.
    pub fn with_trace_id(mut self, id: Option<String>) -> Self {
        if id.is_some() {
            match &mut self {
                Response::Plan { trace_id, .. }
                | Response::PlanBatch { trace_id, .. }
                | Response::Error { trace_id, .. } => {
                    *trace_id = id;
                }
                _ => {}
            }
        }
        self
    }

    /// The protocol version the response claims.
    pub fn version(&self) -> u32 {
        match *self {
            Response::Plan { v, .. }
            | Response::PlanBatch { v, .. }
            | Response::Trace { v, .. }
            | Response::Metrics { v, .. }
            | Response::Pong { v }
            | Response::Health { v, .. }
            | Response::Ready { v }
            | Response::ShuttingDown { v }
            | Response::Error { v, .. } => v,
        }
    }

    /// Restamps the response in `version` — the negotiation step: the
    /// server answers each request in the version the request arrived in.
    /// Provenance `protocol` fields follow the stamp.
    pub fn with_version(mut self, version: u32) -> Self {
        match &mut self {
            Response::Plan { v, provenance, .. } => {
                *v = version;
                provenance.protocol = version;
            }
            Response::PlanBatch { v, results, .. } => {
                *v = version;
                for item in results {
                    if let BatchItem::Plan { provenance, .. } = item {
                        provenance.protocol = version;
                    }
                }
            }
            Response::Trace { v, .. }
            | Response::Metrics { v, .. }
            | Response::Pong { v }
            | Response::Health { v, .. }
            | Response::Ready { v }
            | Response::ShuttingDown { v }
            | Response::Error { v, .. } => *v = version,
        }
        self
    }
}

/// Parses one request line, enforcing version negotiation: `v` must fall
/// in `1..=PROTOCOL_VERSION_MAX` (default [`PROTOCOL_VERSION`] when
/// omitted), and v2-only ops (`plan_batch`) must claim `v: 2`. The error
/// arm is ready to ship as a [`Response::Error`].
pub fn decode_request(line: &str) -> Result<Request, (ErrorKind, String)> {
    let request: Request = serde_json::from_str(line.trim())
        .map_err(|e| (ErrorKind::MalformedRequest, format!("bad request: {e}")))?;
    let v = request.version();
    if !(PROTOCOL_VERSION..=PROTOCOL_VERSION_MAX).contains(&v) {
        return Err((
            ErrorKind::UnsupportedVersion,
            format!(
                "protocol version {v} not supported \
                 (server speaks {PROTOCOL_VERSION}..={PROTOCOL_VERSION_MAX})"
            ),
        ));
    }
    if matches!(request, Request::PlanBatch { .. }) && v < 2 {
        return Err((
            ErrorKind::UnsupportedVersion,
            "the plan_batch op requires protocol v:2".to_string(),
        ));
    }
    Ok(request)
}

/// Serializes a message as one wire line (no trailing newline).
pub fn encode<T: Serialize>(message: &T) -> serde_json::Result<String> {
    serde_json::to_string(message)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_defaults_and_is_enforced() {
        let req = decode_request(r#"{"op":"ping"}"#).unwrap();
        assert_eq!(req, Request::ping());
        let (kind, msg) = decode_request(r#"{"op":"ping","v":99}"#).unwrap_err();
        assert_eq!(kind, ErrorKind::UnsupportedVersion);
        assert!(msg.contains("99"), "{msg}");
    }

    #[test]
    fn v2_frames_decode_and_plan_batch_is_v2_only() {
        // Any v1 op is also accepted at v2 (the server answers in kind).
        let req = decode_request(r#"{"op":"ping","v":2}"#).unwrap();
        assert_eq!(req.version(), 2);
        // plan_batch decodes at v2…
        let req = decode_request(
            r#"{"op":"plan_batch","v":2,"items":[{"distribution":{"family":"exponential","lambda":1.0}}]}"#,
        )
        .unwrap();
        assert_eq!(
            req,
            Request::plan_batch(vec![PlanRequest::new(DistSpec::Exponential {
                lambda: 1.0
            })])
        );
        // …and a bare plan_batch frame (defaulting to v1) is rejected with
        // a pointer at v2, not a confusing malformed_request.
        let (kind, msg) = decode_request(
            r#"{"op":"plan_batch","items":[{"distribution":{"family":"exponential","lambda":1.0}}]}"#,
        )
        .unwrap_err();
        assert_eq!(kind, ErrorKind::UnsupportedVersion);
        assert!(msg.contains("v:2"), "{msg}");
    }

    #[test]
    fn batch_response_round_trips_mixed_items() {
        let resp = Response::PlanBatch {
            v: PROTOCOL_VERSION_MAX,
            results: vec![
                BatchItem::error(ErrorKind::InvalidDistribution, "lambda must be positive"),
                BatchItem::error(ErrorKind::DeadlineExceeded, "batch deadline expired"),
            ],
            trace_id: Some("batch-1".into()),
            timeline: None,
        };
        assert_eq!(resp.trace_id(), Some("batch-1"));
        let line = encode(&resp).unwrap();
        assert!(line.contains(r#""status":"plan_batch""#), "{line}");
        assert!(line.contains(r#""status":"error""#), "{line}");
        let back: Response = serde_json::from_str(&line).unwrap();
        assert_eq!(back, resp);
        assert_eq!(resp.version(), 2);
        assert_eq!(resp.with_version(1).version(), 1);
    }

    #[test]
    fn with_version_restamps_everything_including_provenance() {
        let resp = Response::Pong { v: 1 }.with_version(2);
        assert_eq!(resp.version(), 2);
        let err = Response::error(ErrorKind::Internal, "x").with_version(2);
        assert_eq!(err.version(), 2);
        let line = encode(&err).unwrap();
        assert!(line.contains(r#""v":2"#), "{line}");
    }

    #[test]
    fn plan_request_defaults_mirror_the_facade() {
        let req =
            decode_request(r#"{"op":"plan","distribution":{"family":"exponential","lambda":1.0}}"#)
                .unwrap();
        assert_eq!(req, Request::plan(DistSpec::Exponential { lambda: 1.0 }));
    }

    #[test]
    fn deadline_round_trips_and_defaults_off() {
        let req =
            decode_request(r#"{"op":"plan","distribution":{"family":"exponential","lambda":1.0}}"#)
                .unwrap();
        assert!(matches!(
            req,
            Request::Plan {
                deadline_ms: None,
                ..
            }
        ));
        let req = Request::plan(DistSpec::Exponential { lambda: 1.0 }).with_deadline_ms(250);
        let line = encode(&req).unwrap();
        assert!(line.contains(r#""deadline_ms":250"#), "{line}");
        assert_eq!(decode_request(&line).unwrap(), req);
    }

    #[test]
    fn health_and_ready_round_trip() {
        assert_eq!(
            decode_request(r#"{"op":"health"}"#).unwrap(),
            Request::health()
        );
        assert_eq!(
            decode_request(r#"{"op":"ready"}"#).unwrap(),
            Request::ready()
        );
        let resp = Response::Health {
            v: PROTOCOL_VERSION,
            health: HealthInfo {
                ready: true,
                recovered: true,
                draining: false,
                queue_depth: 3,
                cache_entries: 17,
                recovery: Some(RecoveryStats {
                    snapshot_generation: Some(2),
                    snapshot_records: 10,
                    journal_records: 7,
                    recovered_records: 17,
                    corrupt_records: 1,
                    wall_seconds: 0.25,
                }),
            },
        };
        let line = encode(&resp).unwrap();
        assert!(line.contains(r#""status":"health""#), "{line}");
        let back: Response = serde_json::from_str(&line).unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn retryability_is_limited_to_transient_kinds() {
        assert!(ErrorKind::Overloaded.is_retryable());
        assert!(ErrorKind::NotReady.is_retryable());
        assert!(ErrorKind::Internal.is_retryable());
        for kind in [
            ErrorKind::MalformedRequest,
            ErrorKind::InvalidDistribution,
            ErrorKind::DeadlineExceeded,
            ErrorKind::TooManyRequests,
            ErrorKind::RequestTooLarge,
        ] {
            assert!(!kind.is_retryable(), "{kind}");
        }
    }

    #[test]
    fn trace_fields_round_trip_and_default_off() {
        let req =
            decode_request(r#"{"op":"plan","distribution":{"family":"exponential","lambda":1.0}}"#)
                .unwrap();
        assert!(matches!(
            req,
            Request::Plan {
                trace_id: None,
                trace: false,
                ..
            }
        ));
        let req = Request::plan(DistSpec::Exponential { lambda: 1.0 })
            .with_trace_id("abc123")
            .with_trace();
        assert_eq!(req.trace_id(), Some("abc123"));
        let line = encode(&req).unwrap();
        assert!(line.contains(r#""trace_id":"abc123""#), "{line}");
        assert_eq!(decode_request(&line).unwrap(), req);
    }

    #[test]
    fn trace_op_round_trips() {
        let req = decode_request(r#"{"op":"trace","last":5,"min_duration_ms":2.5}"#).unwrap();
        assert_eq!(req, Request::trace_query(Some(5), Some(2.5), None));
        let resp = Response::Trace {
            v: PROTOCOL_VERSION,
            timelines: vec![rsj_obs::TimelineRecord {
                trace_id: "deadbeef".to_string(),
                op: "plan".to_string(),
                total_us: 1234,
                stages: vec![rsj_obs::StageRecord {
                    name: "solve".to_string(),
                    start_us: 10,
                    end_us: 1200,
                    args: Vec::new(),
                }],
            }],
        };
        let line = encode(&resp).unwrap();
        assert!(line.contains(r#""status":"trace""#), "{line}");
        let back: Response = serde_json::from_str(&line).unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn error_responses_echo_trace_ids() {
        let resp = Response::error_traced(ErrorKind::Overloaded, "try later", Some("t-1".into()));
        assert_eq!(resp.trace_id(), Some("t-1"));
        let line = encode(&resp).unwrap();
        let back: Response = serde_json::from_str(&line).unwrap();
        assert_eq!(back.trace_id(), Some("t-1"));
        // Stamping only fills variants that carry an id, and never erases.
        let stamped = Response::error(ErrorKind::Internal, "x").with_trace_id(Some("t-2".into()));
        assert_eq!(stamped.trace_id(), Some("t-2"));
        let pong = Response::Pong {
            v: PROTOCOL_VERSION,
        }
        .with_trace_id(Some("ignored".into()));
        assert_eq!(pong.trace_id(), None);
    }

    #[test]
    fn trace_id_sanitizer_rejects_junk() {
        assert_eq!(sanitize_trace_id(Some(" ab12 ")).as_deref(), Some("ab12"));
        assert_eq!(sanitize_trace_id(None), None);
        assert_eq!(sanitize_trace_id(Some("")), None);
        assert_eq!(sanitize_trace_id(Some("   ")), None);
        assert_eq!(sanitize_trace_id(Some("has space")), None);
        assert_eq!(sanitize_trace_id(Some("new\nline")), None);
        assert_eq!(sanitize_trace_id(Some(&"x".repeat(65))), None);
        assert!(sanitize_trace_id(Some(&"x".repeat(64))).is_some());
    }

    #[test]
    fn malformed_lines_are_typed() {
        for line in [
            "not json",
            "{}",
            r#"{"op":"warp"}"#,
            r#"{"op":"plan"}"#,
            r#"{"op":"plan","distribution":{"family":"nope"}}"#,
        ] {
            let (kind, _) = decode_request(line).unwrap_err();
            assert_eq!(kind, ErrorKind::MalformedRequest, "{line}");
        }
    }
}
