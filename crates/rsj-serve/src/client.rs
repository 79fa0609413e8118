//! A blocking line-protocol client for the planning server.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use reservation_strategies::PlanRequest;

use crate::protocol::{encode, BatchItem, ErrorKind, HealthInfo, Request, Response};

/// Longest response line the client will buffer before giving up with
/// [`ClientError::ResponseTooLarge`] — the client-side mirror of the
/// server's `max_line_bytes` bounded read. Plans embed their sequences,
/// so this is far roomier than the request cap.
pub(crate) const DEFAULT_MAX_RESPONSE_BYTES: usize = 64 << 20;

/// What can go wrong on the client side of a call.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(std::io::Error),
    /// The server's reply was not a valid protocol line.
    Protocol(String),
    /// The server closed the connection without replying.
    ConnectionClosed,
    /// The server closed the connection mid-response: bytes arrived but
    /// the line never terminated. Distinct from [`ConnectionClosed`]
    /// because a torn response proves the request *was* dispatched.
    ///
    /// [`ConnectionClosed`]: ClientError::ConnectionClosed
    UnexpectedEof {
        /// How many bytes of the torn response had arrived.
        received: usize,
    },
    /// The response line exceeded the client's size cap.
    ResponseTooLarge {
        /// The cap that was exceeded.
        limit: usize,
    },
    /// A [`ResilientClient`](crate::retry::ResilientClient) made its last
    /// attempt without an answer. Carries the trace id of the final
    /// attempt so the failure can be correlated with server-side
    /// timelines and logs.
    RetriesExhausted {
        /// How many attempts were made.
        attempts: u32,
        /// The trace id the final attempt carried.
        trace_id: String,
        /// The error the final attempt failed with.
        last: Box<ClientError>,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::ConnectionClosed => f.write_str("server closed the connection"),
            ClientError::UnexpectedEof { received } => write!(
                f,
                "server closed the connection mid-response ({received} bytes received)"
            ),
            ClientError::ResponseTooLarge { limit } => {
                write!(f, "response line exceeds {limit} bytes")
            }
            ClientError::RetriesExhausted {
                attempts,
                trace_id,
                last,
            } => write!(
                f,
                "retries exhausted after {attempts} attempts (trace_id={trace_id}): {last}"
            ),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            ClientError::RetriesExhausted { last, .. } => Some(last.as_ref()),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A persistent connection to an `rsj-serve` instance; requests pipeline
/// over one TCP stream, one JSON line each way per call.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    max_response_bytes: usize,
}

impl Client {
    /// Connects to a running server.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        // Requests are single small lines; Nagle would stall each one
        // behind the server's delayed ACK.
        let _ = writer.set_nodelay(true);
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Self {
            reader,
            writer,
            max_response_bytes: DEFAULT_MAX_RESPONSE_BYTES,
        })
    }

    /// Bounds how long [`call`](Self::call) waits for a reply.
    pub fn set_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.writer.set_read_timeout(timeout)
    }

    /// Caps the accepted response line (default
    /// `DEFAULT_MAX_RESPONSE_BYTES`).
    pub fn set_max_response_bytes(&mut self, limit: usize) {
        self.max_response_bytes = limit.max(1);
    }

    /// Sends one request and reads its response.
    pub fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        let mut line = encode(request).map_err(|e| ClientError::Protocol(e.to_string()))?;
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()?;
        let reply = self.read_response_line()?;
        serde_json::from_str(reply.trim()).map_err(|e| {
            ClientError::Protocol(format!("unparsable response: {e} (line: {reply:?})"))
        })
    }

    /// Reads one `\n`-terminated response line, bounded at
    /// `max_response_bytes`, distinguishing a clean pre-reply close from
    /// a torn mid-response one.
    fn read_response_line(&mut self) -> Result<String, ClientError> {
        let mut reply = String::new();
        loop {
            // One byte of headroom past the cap makes an overlong line
            // detectable without unbounded buffering — the same idiom as
            // the server's bounded request read.
            let room = (self.max_response_bytes + 1).saturating_sub(reply.len());
            let n = Read::by_ref(&mut self.reader)
                .take(room as u64)
                .read_line(&mut reply)?;
            if reply.len() > self.max_response_bytes {
                return Err(ClientError::ResponseTooLarge {
                    limit: self.max_response_bytes,
                });
            }
            if n == 0 {
                return if reply.is_empty() {
                    Err(ClientError::ConnectionClosed)
                } else {
                    Err(ClientError::UnexpectedEof {
                        received: reply.len(),
                    })
                };
            }
            if reply.ends_with('\n') {
                return Ok(reply);
            }
        }
    }

    /// Solves a whole batch of plan requests in one round trip (protocol
    /// v2 `plan_batch`). Returns the per-item results in input order;
    /// each item is independently a plan or a typed error, so a batch
    /// with one bad distribution still yields plans for the rest. A
    /// batch-level server error (shed, not ready, …) surfaces as
    /// [`ClientError::Protocol`].
    pub fn plan_batch(&mut self, items: Vec<PlanRequest>) -> Result<Vec<BatchItem>, ClientError> {
        match self.call(&Request::plan_batch(items))? {
            Response::PlanBatch { results, .. } => Ok(results),
            Response::Error { kind, message, .. } => Err(ClientError::Protocol(format!(
                "plan_batch failed: {kind}: {message}"
            ))),
            other => Err(ClientError::Protocol(format!(
                "expected plan_batch, got {other:?}"
            ))),
        }
    }

    /// Liveness probe; `Ok(())` when the server answered `pong`.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::ping())? {
            Response::Pong { .. } => Ok(()),
            other => Err(ClientError::Protocol(format!(
                "expected pong, got {other:?}"
            ))),
        }
    }

    /// Fetches the server's health report (answered even mid-recovery).
    pub fn health(&mut self) -> Result<HealthInfo, ClientError> {
        match self.call(&Request::health())? {
            Response::Health { health, .. } => Ok(health),
            other => Err(ClientError::Protocol(format!(
                "expected health, got {other:?}"
            ))),
        }
    }

    /// Readiness probe: `Ok(true)` when the server is ready, `Ok(false)`
    /// when it answered a typed `not_ready`, an error otherwise.
    pub fn ready(&mut self) -> Result<bool, ClientError> {
        match self.call(&Request::ready())? {
            Response::Ready { .. } => Ok(true),
            Response::Error {
                kind: ErrorKind::NotReady,
                ..
            } => Ok(false),
            other => Err(ClientError::Protocol(format!(
                "expected ready/not_ready, got {other:?}"
            ))),
        }
    }

    /// Fetches the server's Prometheus metrics exposition.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        match self.call(&Request::metrics())? {
            Response::Metrics { prometheus, .. } => Ok(prometheus),
            other => Err(ClientError::Protocol(format!(
                "expected metrics, got {other:?}"
            ))),
        }
    }

    /// Fetches recent request timelines from the server's trace ring:
    /// the newest `last` (server default when `None`), optionally kept
    /// only when at least `min_duration_ms` long or matching an exact
    /// `trace_id`.
    pub fn trace(
        &mut self,
        last: Option<usize>,
        min_duration_ms: Option<f64>,
        trace_id: Option<&str>,
    ) -> Result<Vec<rsj_obs::TimelineRecord>, ClientError> {
        let request = Request::trace_query(last, min_duration_ms, trace_id.map(str::to_owned));
        match self.call(&request)? {
            Response::Trace { timelines, .. } => Ok(timelines),
            Response::Error { kind, message, .. } => Err(ClientError::Protocol(format!(
                "trace query failed: {kind}: {message}"
            ))),
            other => Err(ClientError::Protocol(format!(
                "expected trace, got {other:?}"
            ))),
        }
    }

    /// Requests a graceful shutdown; `Ok(())` once acknowledged.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::shutdown())? {
            Response::ShuttingDown { .. } => Ok(()),
            other => Err(ClientError::Protocol(format!(
                "expected shutting_down, got {other:?}"
            ))),
        }
    }
}
