//! Client-side retries with deterministic jitter.
//!
//! [`RetryPolicy`] computes exponential backoff with *seeded* jitter —
//! the jitter fraction is a pure function of `(jitter_seed, call, attempt)`
//! via [`rsj_par::substream_seed`], so a test replays the exact same retry
//! timeline on every run while clients with different seeds still
//! decorrelate.
//!
//! [`ResilientClient`] puts it onto [`Client`]: reconnect per attempt,
//! retry only what is safe to retry (transport failures and responses
//! whose `ErrorKind::is_retryable`), retry a warming server (`not_ready`)
//! on a constant pause, and stop at the policy's attempt cap.
//! `rsj request --retries` runs one call of it per process.

use std::net::ToSocketAddrs;
use std::time::Duration;

use rsj_par::substream_seed;

use crate::client::{Client, ClientError};
use crate::protocol::{ErrorKind, Request, Response};

/// Backoff shape and retry limits for [`ResilientClient`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per call, including the first (≥ 1).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per further retry.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Seed for the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 4,
            base_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_secs(2),
            jitter_seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The pause before retry number `retry` (0-based) of call `call`:
    /// `base · 2^retry`, capped at `max_backoff`, scaled by a
    /// deterministic jitter factor in `[0.5, 1.0]`.
    pub(crate) fn backoff(&self, call: u64, retry: u32) -> Duration {
        let exp = self
            .base_backoff
            .saturating_mul(1u32 << retry.min(16))
            .min(self.max_backoff);
        let roll = substream_seed(substream_seed(self.jitter_seed, call), u64::from(retry));
        // Top 53 bits → a uniform fraction in [0, 1).
        let frac = (roll >> 11) as f64 / (1u64 << 53) as f64;
        exp.mul_f64(0.5 + 0.5 * frac)
    }
}

/// How one attempt's outcome steers the retry loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RetryClass {
    /// A usable answer (success, or a typed error retrying can't fix):
    /// return it.
    Done,
    /// A transient failure (`overloaded`, `internal`, transport): retry
    /// with exponential backoff on a fresh connection.
    Transient,
    /// The server answered `not_ready`: it is up but still warming
    /// (recovery in progress). Retry on a *constant* base backoff:
    /// recovery finishes on its own schedule.
    Warming,
}

/// Classifies one attempt outcome for the retry loop. Transport errors
/// worth a reconnect are [`RetryClass::Transient`]; a fatal transport
/// error is not classified here (the caller returns it as-is).
pub(crate) fn classify_response(response: &Response) -> RetryClass {
    match response {
        Response::Error {
            kind: ErrorKind::NotReady,
            ..
        } => RetryClass::Warming,
        Response::Error { kind, .. } if kind.is_retryable() => RetryClass::Transient,
        _ => RetryClass::Done,
    }
}

/// A [`Client`] wrapper that reconnects and retries per [`RetryPolicy`].
///
/// Retried failures: transport errors (connect/I/O/torn responses) and
/// typed server errors whose `ErrorKind::is_retryable` — i.e.
/// `overloaded`, `not_ready` and `internal`. Everything else (invalid
/// requests, deadline misses, protocol violations) returns immediately:
/// retrying cannot change the outcome. `not_ready` is special-cased as
/// `RetryClass::Warming`: retried on a constant base backoff, because a
/// warming server is not a failing one.
pub struct ResilientClient {
    addr: String,
    policy: RetryPolicy,
    conn: Option<Client>,
    calls: u64,
    retries_spent: u32,
}

impl ResilientClient {
    /// A resilient client for `addr` (connections are opened lazily, one
    /// per attempt that needs one).
    pub fn new(addr: impl Into<String>, policy: RetryPolicy) -> Self {
        Self {
            addr: addr.into(),
            policy: RetryPolicy {
                max_attempts: policy.max_attempts.max(1),
                ..policy
            },
            conn: None,
            calls: 0,
            retries_spent: 0,
        }
    }

    /// Retries spent across the client's lifetime.
    pub fn retries_spent(&self) -> u32 {
        self.retries_spent
    }

    /// Sends `request`, retrying per policy. `Ok` carries whatever the
    /// server finally answered — including a typed, non-retryable
    /// [`Response::Error`]; a retryable error response that survives the
    /// last attempt is also returned as `Ok`, faithfully.
    pub fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        let call = self.calls;
        self.calls += 1;
        // Mint a trace id for plan requests that lack one, so every
        // attempt of this call — and the server's logs, timelines and
        // exemplars — correlate under a single id. (A `trace` op's id
        // field is a *filter*, never auto-filled.)
        let minted;
        let request = match request {
            Request::Plan { trace_id: None, .. } => {
                minted = request
                    .clone()
                    .with_trace_id(rsj_obs::TraceContext::generate().trace_id_hex());
                &minted
            }
            _ => request,
        };
        let trace_id = request.trace_id().unwrap_or("untraced");
        let mut retry: u32 = 0;
        loop {
            let outcome = self.attempt(request);
            rsj_obs::debug!(
                "call {call} attempt {}/{} trace_id={trace_id}: {}",
                retry + 1,
                self.policy.max_attempts,
                describe_outcome(&outcome),
            );
            let class = match &outcome {
                Ok(response) => classify_response(response),
                Err(e) => {
                    if !is_transient(e) {
                        return outcome;
                    }
                    RetryClass::Transient
                }
            };
            if class == RetryClass::Done {
                return outcome;
            }
            if class == RetryClass::Transient {
                self.conn = None; // reconnect on the next attempt
            }
            if retry + 1 >= self.policy.max_attempts {
                // A retryable *response* is still a server answer — return
                // it faithfully. Only transport errors get wrapped, so the
                // caller learns the trace id and attempt count of a call
                // that never produced an answer at all.
                return match outcome {
                    Ok(response) => Ok(response),
                    Err(last) => Err(ClientError::RetriesExhausted {
                        attempts: retry + 1,
                        trace_id: trace_id.to_owned(),
                        last: Box::new(last),
                    }),
                };
            }
            let pause = match class {
                // Constant base pause while warming: recovery finishes on
                // its own schedule, escalating backoff only delays the
                // first post-recovery request.
                RetryClass::Warming => self.policy.backoff(call, 0),
                _ => self.policy.backoff(call, retry),
            };
            std::thread::sleep(pause);
            retry += 1;
            self.retries_spent += 1;
        }
    }

    fn attempt(&mut self, request: &Request) -> Result<Response, ClientError> {
        if self.conn.is_none() {
            let addrs = self
                .addr
                .to_socket_addrs()
                .map_err(ClientError::Io)?
                .collect::<Vec<_>>();
            let addr = addrs
                .first()
                .ok_or_else(|| ClientError::Protocol(format!("no address for {}", self.addr)))?;
            self.conn = Some(Client::connect(addr)?);
        }
        let conn = self.conn.as_mut().expect("connection just ensured");
        let result = conn.call(request);
        if result.is_err() {
            self.conn = None;
        }
        result
    }
}

/// One-line outcome description for the per-attempt debug log.
fn describe_outcome(outcome: &Result<Response, ClientError>) -> String {
    match outcome {
        Ok(Response::Error { kind, .. }) => format!("server error: {kind}"),
        Ok(_) => "ok".to_string(),
        Err(e) => format!("transport error: {e}"),
    }
}

/// Transport-level failures worth a reconnect-and-retry.
fn is_transient(e: &ClientError) -> bool {
    matches!(
        e,
        ClientError::Io(_) | ClientError::ConnectionClosed | ClientError::UnexpectedEof { .. }
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn not_ready_is_warming_while_overloaded_is_transient() {
        let warming = Response::error(ErrorKind::NotReady, "recovering");
        let struggling = Response::error(ErrorKind::Overloaded, "shedding");
        let broken = Response::error(ErrorKind::Internal, "bug");
        let fatal = Response::error(ErrorKind::InvalidDistribution, "nope");
        assert_eq!(classify_response(&warming), RetryClass::Warming);
        assert_eq!(classify_response(&struggling), RetryClass::Transient);
        assert_eq!(classify_response(&broken), RetryClass::Transient);
        assert_eq!(classify_response(&fatal), RetryClass::Done);
        assert_eq!(
            classify_response(&Response::Pong { v: 1 }),
            RetryClass::Done
        );
    }

    #[test]
    fn backoff_grows_is_capped_and_is_deterministic() {
        let policy = RetryPolicy {
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(100),
            jitter_seed: 7,
            ..RetryPolicy::default()
        };
        let replay = policy;
        for retry in 0..8 {
            let d = policy.backoff(3, retry);
            assert_eq!(d, replay.backoff(3, retry), "retry {retry}");
            // Jitter keeps every pause in [half, full] of the exponential.
            let nominal = Duration::from_millis(10)
                .saturating_mul(1 << retry)
                .min(Duration::from_millis(100));
            assert!(
                d >= nominal.mul_f64(0.5) && d <= nominal,
                "retry {retry}: {d:?}"
            );
        }
        // Different calls jitter differently (with overwhelming likelihood
        // for any fixed seed; this seed is one of them).
        assert_ne!(policy.backoff(0, 1), policy.backoff(1, 1));
    }
}
