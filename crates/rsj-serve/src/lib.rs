//! # rsj-serve
//!
//! A multi-client planning service for *Reservation Strategies for
//! Stochastic Jobs* (systems S22–S25 and S27 of DESIGN.md): a
//! long-running TCP server that computes reservation plans on demand,
//! behind the stable [`Planner`](reservation_strategies::Planner) facade.
//!
//! * **Protocol** (`protocol`) — negotiated, line-delimited JSON: one
//!   request object per line (`op`: `plan` / `plan_batch` / `trace` /
//!   `metrics` / `health` / `ready` / `ping` / `shutdown`), one response
//!   object per line. Requests carry an optional version `v` (absent
//!   means v1); the server answers at the version the request spoke and
//!   rejects unknown versions with a typed `unsupported_version` error at
//!   v1, so old clients keep their exact bytes. Plan requests are exactly
//!   a `Planner` configuration on the wire (`DistSpec` + `CostModel` +
//!   `SolverSpec` + optional simulate), and plan responses embed the
//!   facade's [`Plan`](reservation_strategies::Plan) verbatim, FNV-1a
//!   sequence digest included — so served plans diff bit-for-bit against
//!   offline artifacts. Protocol v2's `plan_batch` submits many items in
//!   one frame and returns per-item tagged [`BatchItem`] results in input
//!   order — one round trip, one trace id, one batch-level deadline —
//!   with a failing item confined to its slot.
//! * **Reactor** (`poll` / `server`) — a single-threaded nonblocking
//!   epoll front end (std-only, raw `libc`) that owns every connection's
//!   read buffering, incremental line assembly, partial-write resumption
//!   and idle deadline, so a slow or idle peer costs a buffer rather than
//!   a thread. Complete frames cross a bounded MPMC queue into a fixed
//!   worker pool, one request per pop.
//! * **Server** (`server`) — admission control (`admission`:
//!   watermark-hysteresis load shedding with typed `overloaded`
//!   fast-rejects), per-request deadlines enforced at dequeue and
//!   propagated into the solvers as cooperative cancellation,
//!   single-flight coalescing of identical concurrent solves
//!   (`singleflight`), a sharded exact-LRU plan cache (`cache`) keyed
//!   on the planner's faithful cache key — one path for a `plan` and for
//!   each `plan_batch` item — per-connection request limits
//!   and read timeouts, panic-tolerant workers, graceful idempotent
//!   shutdown that drains in-flight requests, and full `rsj-obs`
//!   instrumentation (request/error/shed/coalesce counters, latency and
//!   queue-wait histograms, Prometheus exposition via the `metrics` op).
//! * **Client** (`client`) — a small blocking client used by
//!   `rsj request` and the integration tests, with typed errors for torn
//!   and oversized responses and a [`Client::plan_batch`] wrapper for the
//!   v2 batch op; `retry` wraps it into a [`ResilientClient`] that
//!   reconnects and retries one call with seeded-jitter backoff, up to
//!   an attempt cap (`rsj request --retries`).
//! * **Chaos** ([`chaos`]) — a seed-reproducible fault-injection policy
//!   and TCP proxy for the hardening tests, plus a seeded
//!   journal-[`CorruptionPolicy`] for recovery testing.
//! * **Durability** ([`journal`] / `durable`) — a CRC32-framed
//!   append-only plan journal (`journal`: the frame format and the
//!   forensic scanner) behind one handle (`durable`) that recovers the
//!   cache at startup ([`recover`]: newest usable snapshot plus the
//!   journal tail, torn or bit-flipped records skipped with typed faults,
//!   every recovered digest re-verified), appends before each response,
//!   compacts into an atomically renamed snapshot and syncs at drain.
//!   `health`/`ready` protocol ops expose the recovery posture; `plan`
//!   requests are shed with a typed `not_ready` until recovery completes.
//!
//! ```no_run
//! use rsj_serve::{Client, Request, Server, ServerConfig};
//! use rsj_dist::DistSpec;
//!
//! let server = Server::bind(ServerConfig::default())?;
//! let addr = server.local_addr();
//! std::thread::spawn(move || server.run());
//!
//! let mut client = Client::connect(addr)?;
//! let response = client.call(&Request::plan(DistSpec::Exponential { lambda: 1.0 }))?;
//! # let _ = response;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub(crate) mod admission;
pub(crate) mod cache;
pub mod chaos;
pub(crate) mod client;
pub(crate) mod durable;
pub mod journal;
pub(crate) mod poll;
pub(crate) mod protocol;
pub(crate) mod retry;
pub(crate) mod server;
pub(crate) mod singleflight;

pub use admission::AdmissionConfig;
pub use cache::PlanCache;
pub use chaos::{ChaosPolicy, ChaosProxy, CorruptionPolicy};
pub use client::{Client, ClientError};
pub use durable::{recover, DurabilityConfig, RecoveryStats};
pub use journal::{JournalRecord, JournalWriter};
pub use protocol::{
    decode_request, encode, BatchItem, ErrorKind, HealthInfo, Provenance, Request, Response,
    Timings, PROTOCOL_VERSION, PROTOCOL_VERSION_MAX,
};
pub use reservation_strategies::PlanRequest;
pub use retry::{ResilientClient, RetryPolicy};
pub use server::{Server, ServerConfig, ShutdownHandle};
