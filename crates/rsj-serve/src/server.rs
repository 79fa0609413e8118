//! The planning server: a single-threaded readiness reactor feeding a
//! bounded pool of solver workers through an admission-controlled queue.
//!
//! Life of a request:
//!
//! 1. the reactor thread ([`poll`](crate::poll): epoll on Linux,
//!    `poll(2)` elsewhere) owns the listener and every connection state:
//!    nonblocking reads assemble line-delimited frames in a per-connection
//!    buffer, partial writes park on writable interest, and an idle
//!    deadline evicts peers that stop making progress. A slowloris or
//!    byte-drip peer costs a buffer, not a thread — bytes without a
//!    newline never extend the idle deadline;
//! 2. only *complete decoded requests* cross the bounded MPMC
//!    [`AdmissionQueue`]. Above the high watermark the request is *shed*
//!    on the reactor thread with a typed [`ErrorKind::Overloaded`] line.
//!    A worker pops one request at a time and dispatches it: `ping` /
//!    `metrics` answer immediately, `shutdown` raises the flag, and a
//!    `plan` and each item of a `plan_batch` take one path — the LRU
//!    plan cache, then single-flight coalescing of identical in-flight
//!    misses, then the [`Planner`] facade, then the journal. A batch's
//!    items are visited in [`Planner::batch_order`] and answered in input
//!    order. A request carrying `deadline_ms` is shed at dequeue if
//!    already expired, each batch item is shed once it has, and a solve
//!    is cancelled cooperatively (via [`CancelToken`]) if the deadline
//!    fires mid-flight;
//! 3. finished responses return to the reactor over an outbox (a queue
//!    plus a self-pipe waker) and are flushed with partial-write
//!    resumption. Once the shutdown flag is up the reactor stops
//!    accepting, the queue is closed, and in-flight requests drain:
//!    every request already admitted gets its answer before exit.
//!
//! Workers are panic-tolerant: a panicking request handler (a bug, or an
//! injected [`ChaosPolicy`] fault) kills that connection only — the
//! worker catches the unwind, counts it, and pulls the next request.
//!
//! Determinism: solvers run on the worker thread via the facade, and every
//! internally parallel stage goes through `rsj-par`, which is bit-identical
//! at any thread count — so concurrent clients asking the same question
//! get byte-identical plans whether computed, recomputed, cached, batched,
//! or coalesced onto another client's in-flight solve.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use reservation_strategies::{CancelToken, Plan, PlanRequest, Planner, RsjError, SimulateOptions};

use crate::admission::{AdmissionConfig, AdmissionQueue};
use crate::cache::PlanCache;
use crate::chaos::ChaosPolicy;
use crate::durable::{DurabilityConfig, Journal, RecoveryStats};
use crate::poll::{Event, Interest, Poller};
use crate::protocol::{
    classify, decode_request, encode, sanitize_trace_id, BatchItem, ErrorKind, HealthInfo,
    Provenance, Request, Response, Timings, PROTOCOL_VERSION, PROTOCOL_VERSION_MAX,
};
use crate::singleflight::{Flighted, SingleFlight};

/// Lock shards of the plan cache.
const CACHE_SHARDS: usize = 8;

/// Tunables for [`Server::bind`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 to let the OS pick (read it back with
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Solver worker threads (the reactor itself is one extra thread).
    pub workers: usize,
    /// Requests served on one connection before it is closed with a
    /// `too_many_requests` error.
    pub max_requests_per_conn: usize,
    /// Idle deadline per connection: a peer that neither completes a
    /// request line nor drains its response within this window is
    /// disconnected. Partial bytes do not extend it.
    pub read_timeout: Duration,
    /// Total plans held by the LRU cache (0 disables caching).
    pub cache_capacity: usize,
    /// Longest accepted request line, in bytes.
    pub max_line_bytes: usize,
    /// Admission-queue sizing (the shed watermarks).
    pub admission: AdmissionConfig,
    /// Fault-injection schedule; `None` in production.
    pub chaos: Option<ChaosPolicy>,
    /// Crash-safety settings; `None` serves memory-only (a restart loses
    /// the cache).
    pub durability: Option<DurabilityConfig>,
    /// Retain the last this many request timelines in a ring buffer,
    /// served by the `trace` op (0 disables server-side tracing; requests
    /// asking `trace: true` still get a per-request timeline).
    pub trace_buffer: usize,
    /// Emit one warn-level event with the full stage breakdown for any
    /// request slower than this many milliseconds (`None` disables).
    pub slow_ms: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            max_requests_per_conn: 1024,
            read_timeout: Duration::from_secs(30),
            cache_capacity: 256,
            max_line_bytes: 1 << 20,
            admission: AdmissionConfig::default(),
            chaos: None,
            durability: None,
            trace_buffer: 0,
            slow_ms: None,
        }
    }
}

/// Signals a running [`Server`] to drain and exit, from any thread.
#[derive(Debug, Clone)]
pub struct ShutdownHandle(Arc<AtomicBool>);

impl ShutdownHandle {
    /// Raises the shutdown flag. Idempotent: signalling an already
    /// draining (or even finished) server is a no-op, never an error.
    pub fn signal(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether shutdown has been requested.
    pub fn is_signaled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// What one plan solve produced, as shared through the single-flight
/// group: the plan, or the typed error every coalesced caller should
/// echo.
type SolveOutcome = Result<Arc<Plan>, (ErrorKind, String)>;

/// One complete decoded request crossing from the reactor to a worker.
/// The socket never crosses: workers compute, the reactor does all I/O.
struct WorkItem {
    /// Reactor slab slot of the owning connection.
    token: usize,
    /// Guards against slab-slot reuse between enqueue and completion.
    conn_id: u64,
    /// Zero-based request ordinal on its connection (chaos keying).
    req_index: u64,
    decoded: Result<Request, (ErrorKind, String)>,
    /// Protocol version the client spoke; the response answers in kind.
    version: u32,
    /// Deadline anchor: accept time for a connection's first request,
    /// line-arrival time after that.
    base: Instant,
    client_trace_id: Option<String>,
    op: &'static str,
    /// When decoding began, anchoring the request-latency histograms.
    started: Instant,
    enqueued_at: Instant,
    timeline: rsj_obs::Timeline,
}

/// A finished response travelling back to the reactor.
struct WorkResult {
    token: usize,
    conn_id: u64,
    /// The encoded response line (newline included); `None` means the
    /// handler panicked and the connection must close unanswered.
    payload: Option<String>,
    /// Close the connection once the payload is flushed.
    close: bool,
    timeline: rsj_obs::Timeline,
    op: &'static str,
}

/// Worker→reactor return channel: a locked queue plus the poller's
/// self-pipe waker so a parked reactor notices completions immediately.
struct Outbox {
    queue: Mutex<VecDeque<WorkResult>>,
    waker: OnceLock<crate::poll::Waker>,
}

impl Outbox {
    fn new() -> Self {
        Self {
            queue: Mutex::new(VecDeque::new()),
            waker: OnceLock::new(),
        }
    }

    fn push(&self, result: WorkResult) {
        self.queue.lock().expect("outbox lock").push_back(result);
        if let Some(waker) = self.waker.get() {
            waker.wake();
        }
    }

    fn take(&self) -> VecDeque<WorkResult> {
        std::mem::take(&mut *self.queue.lock().expect("outbox lock"))
    }
}

/// What startup publishes, once: recovery's stats and the journal. Both
/// are `None` on a memory-only server, and either is `None` when its half
/// of a durable start failed.
struct Startup {
    recovery: Option<RecoveryStats>,
    journal: Option<Mutex<Journal>>,
}

struct Shared {
    config: ServerConfig,
    cache: PlanCache,
    flights: SingleFlight<SolveOutcome>,
    admission: AdmissionQueue<WorkItem>,
    outbox: Outbox,
    shutdown: Arc<AtomicBool>,
    /// Set once startup recovery (if any) has finished; `plan` requests
    /// are shed with a typed `not_ready` until then.
    startup: OnceLock<Startup>,
    /// Completed request timelines, served by the `trace` op; `None`
    /// when the server runs without `--trace-buffer`.
    trace: Option<rsj_obs::TraceRing>,
}

impl Shared {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn is_recovered(&self) -> bool {
        self.startup.get().is_some()
    }

    fn journal(&self) -> Option<&Mutex<Journal>> {
        self.startup.get()?.journal.as_ref()
    }

    /// Readiness: recovered, not draining, and the queue below its shed
    /// watermark — the same gate an orchestrator should route traffic on.
    fn is_ready(&self) -> bool {
        self.is_recovered()
            && !self.shutting_down()
            && self.admission.depth() < self.admission.config().high_watermark
    }

    fn health_info(&self) -> HealthInfo {
        HealthInfo {
            ready: self.is_ready(),
            recovered: self.is_recovered(),
            draining: self.shutting_down(),
            queue_depth: self.admission.depth(),
            cache_entries: self.cache.len(),
            recovery: self.startup.get().and_then(|s| s.recovery.clone()),
        }
    }

    /// Journals one solved plan (append-before-response, so anything a
    /// client heard back survives `kill -9`); a no-op without a journal.
    fn journal_append(&self, key: &str, plan: &Plan) {
        if let Some(journal) = self.journal() {
            journal
                .lock()
                .expect("journal lock poisoned")
                .append(key, plan, &self.cache);
        }
    }
}

/// A bound (but not yet running) planning server.
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listener and prepares the cache; call [`run`](Self::run)
    /// to start serving.
    pub fn bind(config: ServerConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let cache = PlanCache::new(config.cache_capacity, CACHE_SHARDS);
        let admission = AdmissionQueue::new(config.admission);
        let trace = (config.trace_buffer > 0).then(|| rsj_obs::TraceRing::new(config.trace_buffer));
        let shared = Arc::new(Shared {
            config,
            cache,
            flights: SingleFlight::new(),
            admission,
            outbox: Outbox::new(),
            shutdown: Arc::new(AtomicBool::new(false)),
            startup: OnceLock::new(),
            trace,
        });
        Ok(Self {
            local_addr,
            listener,
            shared,
        })
    }

    /// The address the server actually listens on.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A handle that can signal shutdown from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle(Arc::clone(&self.shared.shutdown))
    }

    /// Serves until shutdown is signaled (by a `shutdown` request or a
    /// [`ShutdownHandle`]), then drains in-flight requests and returns.
    pub fn run(self) -> std::io::Result<()> {
        let Server {
            listener,
            local_addr,
            shared,
        } = self;
        listener.set_nonblocking(true)?;
        rsj_obs::info!("rsj-serve listening on {local_addr}");

        // Recovery runs concurrently with the reactor so the server
        // answers `ping`/`health` from the first instant; `plan` requests
        // get a typed `not_ready` until the cache is warm.
        let recovery_thread = match shared.config.durability.clone() {
            Some(durability) => {
                let shared = Arc::clone(&shared);
                Some(
                    std::thread::Builder::new()
                        .name("rsj-serve-recovery".to_string())
                        .spawn(move || {
                            let (journal, recovery) = Journal::open(&durability, &shared.cache);
                            let _ = shared.startup.set(Startup {
                                recovery,
                                journal: journal.map(Mutex::new),
                            });
                            rsj_obs::info!("rsj-serve ready ({} plans warm)", shared.cache.len());
                        })
                        .expect("spawn recovery thread"),
                )
            }
            None => {
                // Nothing to recover: ready as soon as we listen.
                let _ = shared.startup.set(Startup {
                    recovery: None,
                    journal: None,
                });
                None
            }
        };

        // The waker must be installed before any worker can complete a
        // request, so every outbox push can interrupt the reactor's wait.
        let poller = Poller::new()?;
        poller.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READABLE)?;
        let _ = shared.outbox.waker.set(poller.waker());

        let workers: Vec<_> = (0..shared.config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("rsj-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();

        let mut reactor = Reactor {
            poller,
            listener: Some(listener),
            shared: Arc::clone(&shared),
            conns: Vec::new(),
            free: Vec::new(),
            recycled: Vec::new(),
            next_conn_id: 0,
            draining: false,
            drain_deadline: None,
        };
        let result = reactor.run();
        drop(reactor);

        // Idempotent if the reactor already began the drain; on the error
        // path it is what wakes the workers so the join below can finish.
        shared.admission.close();
        for w in workers {
            let _ = w.join();
        }
        if let Some(t) = recovery_thread {
            let _ = t.join();
        }
        // A graceful drain leaves nothing for the OS page cache to lose.
        if let Some(journal) = shared.journal() {
            journal.lock().expect("journal lock poisoned").sync();
        }
        rsj_obs::info!("rsj-serve stopped");
        result
    }
}

/// Slab token of the listener; connection tokens are slab indices, so
/// they stay far below this.
const TOKEN_LISTENER: usize = usize::MAX - 1;

/// Upper bound on how long the reactor parks in `wait` before rechecking
/// the shutdown flag and the idle deadlines.
const EVENT_LOOP_TICK: Duration = Duration::from_millis(25);

/// Complete-but-undispatched request lines buffered per connection before
/// its readable interest is paused (pipelining backpressure).
const PENDING_LINE_CAP: usize = 128;

/// How long a drain waits for in-flight requests and unflushed responses
/// before force-closing what remains.
const DRAIN_GRACE: Duration = Duration::from_secs(10);

/// Read chunk size for connection sockets.
const READ_CHUNK: usize = 16 * 1024;

/// A deferred timeline finish: the `write` span can only be recorded
/// once the response has fully reached the socket.
struct PendingFinish {
    timeline: rsj_obs::Timeline,
    op: &'static str,
    write_started: Instant,
}

/// Per-connection reactor state. All I/O for the connection happens on
/// the reactor thread; at most one request per connection is in flight
/// with the workers at a time, which preserves per-connection ordering.
struct Conn {
    stream: TcpStream,
    conn_id: u64,
    accepted_at: Instant,
    /// Raw bytes read but not yet split into lines.
    read_buf: Vec<u8>,
    /// Where the next newline scan resumes (everything before it has
    /// already been scanned).
    scan_from: usize,
    /// Complete request lines awaiting dispatch, with arrival times.
    lines: VecDeque<(String, Instant)>,
    /// The response currently being written, and how much has gone out.
    out: Vec<u8>,
    out_pos: usize,
    /// Whether a request from this connection is with the workers.
    in_flight: bool,
    /// Requests started on this connection (for `max_requests_per_conn`).
    served: usize,
    /// `Some(accept time)` until the first request dispatches: the first
    /// deadline counts time spent queued behind the reactor.
    first_base: Option<Instant>,
    /// Evict when now passes this with nothing in flight. Refreshed only
    /// by *complete* request lines and *fully flushed* responses — a
    /// byte-dripping peer never extends it.
    idle_at: Instant,
    eof: bool,
    close_after_write: bool,
    finish: Option<PendingFinish>,
    /// The interest currently registered, to dedupe `reregister` calls.
    interest: Interest,
}

/// How ingesting freshly read bytes ended.
enum Ingest {
    Ok,
    /// A line (or an unterminated partial) exceeded `max_line_bytes`.
    TooLarge,
    /// A line was not valid UTF-8; close without a reply, like the old
    /// buffered reader did on an invalid-data error.
    BadUtf8,
}

/// Splits `read_buf` into complete lines, enforcing the line-length cap
/// against partials too (so a peer cannot grow the buffer unboundedly by
/// never sending a newline). Blank lines are skipped without counting.
fn ingest_lines(conn: &mut Conn, max_line_bytes: usize, read_timeout: Duration) -> Ingest {
    loop {
        match conn.read_buf[conn.scan_from..]
            .iter()
            .position(|b| *b == b'\n')
        {
            Some(rel) => {
                let end = conn.scan_from + rel;
                let raw: Vec<u8> = conn.read_buf.drain(..=end).collect();
                conn.scan_from = 0;
                // The cap counts the newline, matching the old reader.
                if raw.len() > max_line_bytes {
                    return Ingest::TooLarge;
                }
                let Ok(line) = String::from_utf8(raw) else {
                    return Ingest::BadUtf8;
                };
                if line.trim().is_empty() {
                    continue;
                }
                conn.lines.push_back((line, Instant::now()));
                conn.idle_at = Instant::now() + read_timeout;
            }
            None => {
                conn.scan_from = conn.read_buf.len();
                if conn.read_buf.len() > max_line_bytes {
                    return Ingest::TooLarge;
                }
                if conn.eof && !conn.read_buf.is_empty() {
                    // EOF: a partial unterminated line is still one
                    // request.
                    let raw = std::mem::take(&mut conn.read_buf);
                    conn.scan_from = 0;
                    let Ok(line) = String::from_utf8(raw) else {
                        return Ingest::BadUtf8;
                    };
                    if !line.trim().is_empty() {
                        conn.lines.push_back((line, Instant::now()));
                    }
                }
                return Ingest::Ok;
            }
        }
    }
}

/// The event loop: owns the poller, the listener and every connection.
struct Reactor {
    poller: Poller,
    listener: Option<TcpListener>,
    shared: Arc<Shared>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    /// Tokens freed this iteration; merged into `free` only at the next
    /// loop top so a stale event in the same batch cannot hit a new
    /// connection that reused the slot.
    recycled: Vec<usize>,
    next_conn_id: u64,
    draining: bool,
    drain_deadline: Option<Instant>,
}

impl Reactor {
    fn run(&mut self) -> io::Result<()> {
        let mut events: Vec<Event> = Vec::with_capacity(256);
        loop {
            self.free.append(&mut self.recycled);
            if self.shared.shutting_down() && !self.draining {
                self.begin_drain();
            }
            if self.draining {
                let done = self.conns.iter().all(Option::is_none);
                let expired = self.drain_deadline.is_some_and(|d| Instant::now() >= d);
                if done {
                    return Ok(());
                }
                if expired {
                    for token in 0..self.conns.len() {
                        self.close_conn(token);
                    }
                    return Ok(());
                }
            }
            self.poller.wait(&mut events, Some(EVENT_LOOP_TICK))?;
            for &ev in &events {
                if ev.token == TOKEN_LISTENER {
                    self.accept_ready()?;
                    continue;
                }
                if ev.readable || ev.hangup {
                    self.read_conn(ev.token);
                }
                if ev.writable {
                    self.flush_conn(ev.token);
                }
            }
            for result in self.shared.outbox.take() {
                self.apply_result(result);
            }
            self.sweep_idle();
        }
    }

    /// Stop accepting, close the queue, and close every connection with
    /// nothing left to answer; the rest drain under [`DRAIN_GRACE`].
    fn begin_drain(&mut self) {
        self.draining = true;
        self.drain_deadline = Some(Instant::now() + DRAIN_GRACE);
        rsj_obs::info!(
            "rsj-serve draining {} workers",
            self.shared.config.workers.max(1)
        );
        if let Some(listener) = self.listener.take() {
            let _ = self.poller.deregister(listener.as_raw_fd());
        }
        self.shared.admission.close();
        let idle: Vec<usize> = self
            .conns
            .iter()
            .enumerate()
            .filter_map(|(t, slot)| slot.as_ref().map(|c| (t, c)))
            .filter(|(_, c)| !c.in_flight && c.out.is_empty() && c.finish.is_none())
            .map(|(t, _)| t)
            .collect();
        for token in idle {
            rsj_obs::debug!("dropping idle connection for drain");
            self.close_conn(token);
        }
    }

    fn accept_ready(&mut self) -> io::Result<()> {
        loop {
            let Some(listener) = &self.listener else {
                return Ok(());
            };
            match listener.accept() {
                Ok((stream, _peer)) => {
                    counter("rsj_serve_connections_total").inc();
                    // Responses are single small lines; leaving Nagle on
                    // costs a delayed-ACK round trip (~40ms) per request.
                    let _ = stream.set_nodelay(true);
                    if let Err(e) = stream.set_nonblocking(true) {
                        rsj_obs::warn!("cannot make accepted socket nonblocking: {e}");
                        continue;
                    }
                    let now = Instant::now();
                    let conn_id = self.next_conn_id;
                    self.next_conn_id += 1;
                    let token = match self.free.pop() {
                        Some(t) => t,
                        None => {
                            self.conns.push(None);
                            self.conns.len() - 1
                        }
                    };
                    if let Err(e) =
                        self.poller
                            .register(stream.as_raw_fd(), token, Interest::READABLE)
                    {
                        rsj_obs::warn!("cannot register accepted socket: {e}");
                        self.free.push(token);
                        continue;
                    }
                    self.conns[token] = Some(Conn {
                        stream,
                        conn_id,
                        accepted_at: now,
                        read_buf: Vec::new(),
                        scan_from: 0,
                        lines: VecDeque::new(),
                        out: Vec::new(),
                        out_pos: 0,
                        in_flight: false,
                        served: 0,
                        first_base: Some(now),
                        idle_at: now + self.shared.config.read_timeout,
                        eof: false,
                        close_after_write: false,
                        finish: None,
                        interest: Interest::READABLE,
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Drain the socket to `WouldBlock`/EOF, split complete lines, and
    /// dispatch what became runnable.
    fn read_conn(&mut self, token: usize) {
        let max_line_bytes = self.shared.config.max_line_bytes;
        let read_timeout = self.shared.config.read_timeout;
        let ingest;
        {
            let Some(Some(conn)) = self.conns.get_mut(token) else {
                return;
            };
            let mut chunk = [0u8; READ_CHUNK];
            loop {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        conn.eof = true;
                        break;
                    }
                    Ok(n) => conn.read_buf.extend_from_slice(&chunk[..n]),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => {
                        rsj_obs::debug!("connection ended with I/O error: {e}");
                        self.close_conn(token);
                        return;
                    }
                }
            }
            ingest = ingest_lines(conn, max_line_bytes, read_timeout);
        }
        match ingest {
            Ingest::Ok => {}
            Ingest::BadUtf8 => {
                rsj_obs::debug!("connection sent a non-UTF-8 request line");
                self.close_conn(token);
                return;
            }
            Ingest::TooLarge => {
                counter("rsj_serve_errors_total").inc();
                let response = Response::error(
                    ErrorKind::RequestTooLarge,
                    format!("request exceeds {max_line_bytes} bytes"),
                );
                self.queue_direct_response(token, &response);
                return;
            }
        }
        self.pump(token);
        self.maybe_close_finished(token);
        self.update_interest(token);
    }

    /// Dispatch the next queued line: decode on the reactor, then hand
    /// the complete decoded request to the workers (or shed it, or answer
    /// a connection-limit error directly). At most one request per
    /// connection is in flight at a time, so this dispatches at most one.
    fn pump(&mut self, token: usize) {
        if self.draining {
            return;
        }
        let shared = Arc::clone(&self.shared);
        let (line, line_at, conn_id, served, is_first, base, accepted_at);
        {
            let Some(Some(conn)) = self.conns.get_mut(token) else {
                return;
            };
            if conn.in_flight
                || !conn.out.is_empty()
                || conn.finish.is_some()
                || conn.close_after_write
            {
                return;
            }
            let Some((l, at)) = conn.lines.pop_front() else {
                return;
            };
            conn.served += 1;
            conn_id = conn.conn_id;
            served = conn.served;
            is_first = conn.first_base.is_some();
            base = conn.first_base.take().unwrap_or(at);
            accepted_at = conn.accepted_at;
            line = l;
            line_at = at;
        }
        if served > shared.config.max_requests_per_conn {
            counter("rsj_serve_errors_total").inc();
            let response = Response::error(
                ErrorKind::TooManyRequests,
                format!(
                    "connection exceeded {} requests; reconnect to continue",
                    shared.config.max_requests_per_conn
                ),
            );
            self.queue_direct_response(token, &response);
            return;
        }
        let started = Instant::now();
        let decoded = decode_request(&line);
        let decode_ended = Instant::now();
        let version = decoded
            .as_ref()
            .map(|r| r.version())
            .unwrap_or(PROTOCOL_VERSION);
        let (client_trace_id, want_trace) = match &decoded {
            Ok(
                Request::Plan {
                    trace_id, trace, ..
                }
                | Request::PlanBatch {
                    trace_id, trace, ..
                },
            ) => (sanitize_trace_id(trace_id.as_deref()), *trace),
            _ => (None, false),
        };
        let op = op_name(&decoded);
        // A timeline exists when the server retains traces, when slow
        // logging needs a breakdown, or when this request asked for
        // one. Otherwise the disabled timeline allocates nothing.
        let tracing = want_trace || shared.trace.is_some() || shared.config.slow_ms.is_some();
        let timeline = if tracing {
            let mut t = rsj_obs::Timeline::begin(rsj_obs::TraceContext::generate(), base);
            if let Some(id) = &client_trace_id {
                t.adopt_trace_id(id.clone());
            }
            if is_first {
                // The connection sat between accept and its first
                // complete line: client think time, not server
                // latency — recorded so the timeline has no
                // unattributed gap, and named so the slow-warn gate
                // can subtract it.
                t.record_span("read_wait", accepted_at, line_at);
            }
            t.record_span("decode", started, decode_ended);
            t
        } else {
            rsj_obs::Timeline::disabled()
        };
        let item = WorkItem {
            token,
            conn_id,
            req_index: (served - 1) as u64,
            decoded,
            version,
            base,
            client_trace_id,
            op,
            started,
            enqueued_at: Instant::now(),
            timeline,
        };
        match shared.admission.try_admit(item) {
            Ok(()) => {
                if let Some(Some(conn)) = self.conns.get_mut(token) {
                    conn.in_flight = true;
                }
            }
            Err(rejected) => {
                // Shed on the reactor thread: a typed fast-reject
                // costs one encode and one buffered write, never a
                // worker slot.
                counter("rsj_serve_shed_total").inc();
                let response = Response::error_traced(
                    ErrorKind::Overloaded,
                    format!(
                        "admission queue above its high watermark ({} queued ≥ {}); retry with backoff",
                        shared.admission.depth(),
                        shared.admission.config().high_watermark
                    ),
                    rejected.client_trace_id,
                )
                .with_version(rejected.version);
                self.queue_direct_response(token, &response);
            }
        }
    }

    /// Queue a reactor-generated response (shed / limit / oversize) and
    /// close the connection once it is flushed.
    fn queue_direct_response(&mut self, token: usize, response: &Response) {
        let Ok(mut body) = encode(response) else {
            self.close_conn(token);
            return;
        };
        body.push('\n');
        {
            let Some(Some(conn)) = self.conns.get_mut(token) else {
                return;
            };
            conn.out = body.into_bytes();
            conn.out_pos = 0;
            conn.close_after_write = true;
        }
        self.flush_conn(token);
    }

    /// A worker finished a request: queue its response for writing (or
    /// close the connection if the handler panicked).
    fn apply_result(&mut self, result: WorkResult) {
        let token = result.token;
        {
            let Some(Some(conn)) = self.conns.get_mut(token) else {
                return;
            };
            if conn.conn_id != result.conn_id {
                return;
            }
            conn.in_flight = false;
        }
        let Some(payload) = result.payload else {
            self.close_conn(token);
            return;
        };
        {
            let Some(Some(conn)) = self.conns.get_mut(token) else {
                return;
            };
            conn.out = payload.into_bytes();
            conn.out_pos = 0;
            conn.idle_at = Instant::now() + self.shared.config.read_timeout;
            conn.finish = Some(PendingFinish {
                timeline: result.timeline,
                op: result.op,
                write_started: Instant::now(),
            });
            if result.close {
                conn.close_after_write = true;
            }
        }
        self.flush_conn(token);
    }

    /// Write as much of the pending response as the socket accepts; a
    /// short write parks on writable interest and resumes on the next
    /// readiness event.
    fn flush_conn(&mut self, token: usize) {
        loop {
            let Some(Some(conn)) = self.conns.get_mut(token) else {
                return;
            };
            if conn.out_pos >= conn.out.len() {
                break;
            }
            match conn.stream.write(&conn.out[conn.out_pos..]) {
                Ok(0) => {
                    self.close_conn(token);
                    return;
                }
                Ok(n) => {
                    let Some(Some(conn)) = self.conns.get_mut(token) else {
                        return;
                    };
                    conn.out_pos += n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.update_interest(token);
                    return;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    rsj_obs::debug!("connection ended with I/O error: {e}");
                    self.close_conn(token);
                    return;
                }
            }
        }
        // Fully flushed: record the write span, finish the timeline, and
        // either close or look for the next pipelined request.
        let shared = Arc::clone(&self.shared);
        let finish;
        let close;
        {
            let Some(Some(conn)) = self.conns.get_mut(token) else {
                return;
            };
            if conn.out.is_empty() && conn.finish.is_none() && !conn.close_after_write {
                return; // nothing was pending (spurious writable event)
            }
            conn.out.clear();
            conn.out_pos = 0;
            conn.idle_at = Instant::now() + shared.config.read_timeout;
            finish = conn.finish.take();
            close = conn.close_after_write;
        }
        if let Some(pf) = finish {
            let mut timeline = pf.timeline;
            timeline.record_span("write", pf.write_started, Instant::now());
            if let Some(record) = timeline.finish(pf.op) {
                if let Some(slow_ms) = shared.config.slow_ms {
                    if attributable_us(&record) >= slow_ms.saturating_mul(1_000) {
                        warn_slow_request(&record, slow_ms);
                    }
                }
                if let Some(ring) = &shared.trace {
                    ring.push(record);
                }
            }
        }
        if close || self.draining {
            self.close_conn(token);
            return;
        }
        self.pump(token);
        self.maybe_close_finished(token);
        self.update_interest(token);
    }

    /// Close a connection that has reached EOF with nothing left to do.
    fn maybe_close_finished(&mut self, token: usize) {
        let done = {
            let Some(Some(conn)) = self.conns.get_mut(token) else {
                return;
            };
            conn.eof && conn.lines.is_empty() && !conn.in_flight && conn.out.is_empty()
        };
        if done {
            self.close_conn(token);
        }
    }

    /// Converge the registered interest with what the connection needs:
    /// readable unless paused (EOF, drain, or a full pipeline backlog),
    /// writable only while a response is partially written.
    fn update_interest(&mut self, token: usize) {
        let draining = self.draining;
        let Some(Some(conn)) = self.conns.get_mut(token) else {
            return;
        };
        let desired = Interest {
            readable: !conn.eof && !draining && conn.lines.len() < PENDING_LINE_CAP,
            writable: conn.out_pos < conn.out.len(),
        };
        if desired != conn.interest {
            conn.interest = desired;
            let fd = conn.stream.as_raw_fd();
            let _ = self.poller.reregister(fd, token, desired);
        }
    }

    /// Evict connections whose idle deadline passed. `in_flight` protects
    /// a slow solve; everything else — including a peer refusing to drain
    /// its response — is fair game.
    fn sweep_idle(&mut self) {
        let now = Instant::now();
        let idle: Vec<usize> = self
            .conns
            .iter()
            .enumerate()
            .filter_map(|(t, slot)| slot.as_ref().map(|c| (t, c)))
            .filter(|(_, c)| !c.in_flight && now >= c.idle_at)
            .map(|(t, _)| t)
            .collect();
        for token in idle {
            rsj_obs::debug!("closing idle connection");
            self.close_conn(token);
        }
    }

    fn close_conn(&mut self, token: usize) {
        let Some(slot) = self.conns.get_mut(token) else {
            return;
        };
        let Some(conn) = slot.take() else {
            return;
        };
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        self.recycled.push(token);
        // Dropping `conn` closes the socket.
    }
}

/// One worker: dequeue one request at a time and handle it, absorbing
/// handler panics so a poisoned request (or an injected chaos panic)
/// never shrinks the pool.
fn worker_loop(shared: &Shared) {
    while let Some(item) = shared.admission.pop() {
        process_item(shared, item);
    }
}

/// Handle one item behind a panic shield; a panic closes that connection
/// only (the reactor sees `payload: None`).
fn process_item(shared: &Shared, item: WorkItem) {
    let token = item.token;
    let conn_id = item.conn_id;
    let outcome =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handle_item(shared, item)));
    match outcome {
        Ok(result) => shared.outbox.push(result),
        Err(_) => {
            counter("rsj_serve_worker_panics_total").inc();
            rsj_obs::warn!("worker survived a connection-handler panic");
            shared.outbox.push(WorkResult {
                token,
                conn_id,
                payload: None,
                close: true,
                timeline: rsj_obs::Timeline::disabled(),
                op: "invalid",
            });
        }
    }
}

/// Worker-side request handling: chaos injection, dispatch, metrics, and
/// response encoding. Pure compute — no socket I/O happens here.
fn handle_item(shared: &Shared, item: WorkItem) -> WorkResult {
    let WorkItem {
        token,
        conn_id,
        req_index,
        decoded,
        version,
        base,
        client_trace_id,
        op,
        started,
        enqueued_at,
        mut timeline,
    } = item;
    let dequeued = Instant::now();
    rsj_obs::global_registry()
        .histogram("rsj_serve_queue_wait_seconds")
        .observe((dequeued - enqueued_at).as_secs_f64());
    timeline.record_span("queue_wait", enqueued_at, dequeued);
    if let Some(chaos) = &shared.config.chaos {
        if let Some(delay) = chaos.dispatch_delay(conn_id, req_index) {
            std::thread::sleep(delay);
        }
        if chaos.worker_panics(conn_id, req_index) {
            panic!("chaos: injected worker panic (conn {conn_id}, request {req_index})");
        }
    }
    counter("rsj_serve_requests_total").inc();
    // Generate-or-adopt: every response carries the client's id when it
    // sent one, or the server-minted id when tracing is on.
    let trace_id = timeline.trace_id().or_else(|| client_trace_id.clone());
    let (response, is_shutdown) = dispatch(shared, decoded, base, &mut timeline);
    let response = response
        .with_trace_id(trace_id.clone())
        .with_version(version);
    if let Response::Error { kind, .. } = &response {
        counter("rsj_serve_errors_total").inc();
        if *kind == ErrorKind::DeadlineExceeded {
            counter("rsj_serve_deadline_exceeded_total").inc();
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    let registry = rsj_obs::global_registry();
    let aggregate = registry.histogram("rsj_serve_request_seconds");
    let per_op = registry.histogram(per_op_histogram(op));
    match &trace_id {
        Some(id) => {
            aggregate.observe_with_exemplar(elapsed, id);
            per_op.observe_with_exemplar(elapsed, id);
        }
        None => {
            aggregate.observe(elapsed);
            per_op.observe(elapsed);
        }
    }
    let encode_started = Instant::now();
    let mut payload = match encode(&response) {
        Ok(body) => body,
        Err(e) => {
            rsj_obs::warn!("response encoding failed: {e}");
            r#"{"status":"error","v":1,"kind":"internal","message":"response encoding failed"}"#
                .to_string()
        }
    };
    // One buffer per response: the reactor writes it in a single
    // (possibly resumed) stream, so Nagle never sees a lone `\n`.
    payload.push('\n');
    timeline.record_span("encode", encode_started, Instant::now());
    if is_shutdown {
        shared.shutdown.store(true, Ordering::SeqCst);
    }
    WorkResult {
        token,
        conn_id,
        payload: Some(payload),
        close: is_shutdown,
        timeline,
        op,
    }
}

fn counter(name: &str) -> rsj_obs::Counter {
    rsj_obs::global_registry().counter(name)
}

/// Sets every state gauge at scrape time — the admission queue's depth,
/// the plan cache's size and the discretization memo's counters — so
/// the request path does no work for them.
fn publish_state_gauges(shared: &Shared) {
    let stats = rsj_dist::eval_cache_stats();
    let registry = rsj_obs::global_registry();
    for (name, value) in [
        ("rsj_serve_queue_depth", shared.admission.depth() as f64),
        ("rsj_serve_cache_entries", shared.cache.len() as f64),
        ("rsj_dist_eval_cache_hits", stats.hits as f64),
        ("rsj_dist_eval_cache_misses", stats.misses as f64),
        ("rsj_dist_eval_cache_evictions", stats.evictions as f64),
        ("rsj_dist_eval_cache_entries", stats.entries as f64),
        ("rsj_dist_eval_cache_bytes", stats.bytes as f64),
        ("rsj_dist_eval_cache_build_seconds", stats.build_seconds),
    ] {
        registry.gauge(name).set(value);
    }
}

/// The request's op as a static label (for per-op metrics and timeline
/// records) — no allocation on the request path.
fn op_name(decoded: &Result<Request, (ErrorKind, String)>) -> &'static str {
    match decoded {
        Ok(Request::Plan { .. }) => "plan",
        Ok(Request::PlanBatch { .. }) => "plan_batch",
        Ok(Request::Trace { .. }) => "trace",
        Ok(Request::Metrics { .. }) => "metrics",
        Ok(Request::Ping { .. }) => "ping",
        Ok(Request::Health { .. }) => "health",
        Ok(Request::Ready { .. }) => "ready",
        Ok(Request::Shutdown { .. }) => "shutdown",
        Err(_) => "invalid",
    }
}

/// The per-op latency series: `rsj_serve_request_seconds_<op>`. Static
/// names (the registry is unlabelled) so the hot path never formats.
/// The aggregate `rsj_serve_request_seconds` series is kept alongside
/// for dashboard continuity.
fn per_op_histogram(op: &str) -> &'static str {
    match op {
        "plan" => "rsj_serve_request_seconds_plan",
        "plan_batch" => "rsj_serve_request_seconds_plan_batch",
        "trace" => "rsj_serve_request_seconds_trace",
        "metrics" => "rsj_serve_request_seconds_metrics",
        "ping" => "rsj_serve_request_seconds_ping",
        "health" => "rsj_serve_request_seconds_health",
        "ready" => "rsj_serve_request_seconds_ready",
        "shutdown" => "rsj_serve_request_seconds_shutdown",
        _ => "rsj_serve_request_seconds_invalid",
    }
}

/// The server-attributable share of a request's wall time: everything
/// except `read_wait`, the span spent waiting for the client's first
/// bytes after accept. That wait belongs to the client — a peer that
/// connects and sits idle before sending must not read as a slow
/// *request* — so the `--slow-ms` gate compares against this, not
/// `total_us`.
fn attributable_us(record: &rsj_obs::TimelineRecord) -> u64 {
    record
        .total_us
        .saturating_sub(record.stage_us("read_wait").unwrap_or(0))
}

/// The single warn-level slow-request event: trace id, op, total and the
/// full stage breakdown in one line, so log pipelines keep it atomic.
fn warn_slow_request(record: &rsj_obs::TimelineRecord, slow_ms: u64) {
    use std::fmt::Write as _;
    let mut stages = String::new();
    for s in &record.stages {
        let _ = write!(
            stages,
            " {}={:.3}ms",
            s.name,
            s.duration_us() as f64 / 1_000.0
        );
    }
    rsj_obs::warn!(
        "slow request trace_id={} op={} total={:.3}ms threshold={slow_ms}ms stages:{stages}",
        record.trace_id,
        record.op,
        record.total_us as f64 / 1_000.0,
    );
}

/// Answers a `trace` op: the ring's newest records, filtered, as wire
/// timelines. Filters apply across the whole ring; `last` caps the
/// filtered result.
fn handle_trace(
    shared: &Shared,
    last: Option<usize>,
    min_duration_ms: Option<f64>,
    trace_id: Option<String>,
) -> Response {
    const TRACE_DEFAULT_LAST: usize = 32;
    let Some(ring) = &shared.trace else {
        return Response::error(
            ErrorKind::TracingDisabled,
            "server runs without --trace-buffer; no timelines are retained",
        );
    };
    let timelines = ring
        .recent(ring.capacity())
        .into_iter()
        .filter(|r| min_duration_ms.is_none_or(|ms| r.total_us as f64 / 1_000.0 >= ms))
        .filter(|r| trace_id.as_deref().is_none_or(|id| r.trace_id == id))
        .take(last.unwrap_or(TRACE_DEFAULT_LAST))
        .map(|r| (*r).clone())
        .collect();
    Response::Trace {
        v: PROTOCOL_VERSION,
        timelines,
    }
}

/// Answers one decoded request; `base` anchors the request's deadline
/// and `timeline` accumulates its stage intervals. The bool is
/// "shutdown requested".
fn dispatch(
    shared: &Shared,
    decoded: Result<Request, (ErrorKind, String)>,
    base: Instant,
    timeline: &mut rsj_obs::Timeline,
) -> (Response, bool) {
    let request = match decoded {
        Ok(request) => request,
        Err((kind, message)) => return (Response::error(kind, message), false),
    };
    // A recovering server sheds plan work with a typed `not_ready`:
    // answering from a half-warm cache would turn guaranteed hits into
    // misses and double-solve the backlog.
    if matches!(request, Request::Plan { .. } | Request::PlanBatch { .. }) && !shared.is_recovered()
    {
        counter("rsj_serve_not_ready_total").inc();
        return (
            Response::error(ErrorKind::NotReady, not_ready_message(shared)),
            false,
        );
    }
    match request {
        Request::Ping { .. } => (
            Response::Pong {
                v: PROTOCOL_VERSION,
            },
            false,
        ),
        Request::Metrics { .. } => {
            publish_state_gauges(shared);
            (
                Response::Metrics {
                    v: PROTOCOL_VERSION,
                    prometheus: rsj_obs::global_registry().snapshot().to_prometheus(),
                },
                false,
            )
        }
        Request::Health { .. } => (
            Response::Health {
                v: PROTOCOL_VERSION,
                health: shared.health_info(),
            },
            false,
        ),
        Request::Ready { .. } => {
            if shared.is_ready() {
                (
                    Response::Ready {
                        v: PROTOCOL_VERSION,
                    },
                    false,
                )
            } else {
                (
                    Response::error(ErrorKind::NotReady, not_ready_message(shared)),
                    false,
                )
            }
        }
        Request::Shutdown { .. } => (
            Response::ShuttingDown {
                v: PROTOCOL_VERSION,
            },
            true,
        ),
        Request::Trace {
            last,
            min_duration_ms,
            trace_id,
            ..
        } => (handle_trace(shared, last, min_duration_ms, trace_id), false),
        Request::Plan {
            distribution,
            cost,
            solver,
            seed,
            simulate,
            deadline_ms,
            trace,
            ..
        } => {
            let request = PlanRequest {
                distribution,
                cost,
                solver,
                seed,
                simulate,
            };
            let deadline = deadline_ms.map(|ms| base + Duration::from_millis(ms));
            let mut response = handle_plan(shared, request, deadline, timeline);
            // The `write` span can't be in this snapshot (the response is
            // serialized after it's built); the ring's copy of the same
            // trace, pushed after the write completes, has it.
            if trace {
                if let Response::Plan { timeline: slot, .. } = &mut response {
                    *slot = timeline.snapshot("plan");
                }
            }
            (response, false)
        }
        Request::PlanBatch {
            items,
            deadline_ms,
            trace,
            ..
        } => {
            // One batch-level deadline bounds every item.
            let deadline = deadline_ms.map(|ms| base + Duration::from_millis(ms));
            let mut response = handle_plan_batch(shared, items, deadline, timeline);
            if trace {
                if let Response::PlanBatch { timeline: slot, .. } = &mut response {
                    *slot = timeline.snapshot("plan_batch");
                }
            }
            (response, false)
        }
    }
}

fn not_ready_message(shared: &Shared) -> String {
    if !shared.is_recovered() {
        "server is recovering its plan cache; retry shortly".to_string()
    } else if shared.shutting_down() {
        "server is draining".to_string()
    } else {
        format!(
            "admission queue at {} (high watermark {})",
            shared.admission.depth(),
            shared.admission.config().high_watermark
        )
    }
}

/// The composite cache key: the planner's own `(dist, cost, solver)` key
/// plus the simulate options, which also shape the returned [`Plan`].
fn full_cache_key(planner: &Planner, simulate: Option<SimulateOptions>) -> Option<String> {
    let base = planner.cache_key()?;
    let sim = match simulate {
        Some(s) => format!("jobs={},seed={}", s.jobs, s.seed),
        None => "none".to_string(),
    };
    Some(format!("{base}|sim={sim}"))
}

fn deadline_exceeded(deadline: Instant) -> (ErrorKind, String) {
    (
        ErrorKind::DeadlineExceeded,
        format!("deadline expired {} ms ago", deadline.elapsed().as_millis()),
    )
}

/// Counter deltas of one request, added to the registry once when it is
/// answered: a `plan_batch` frame costs one registry lookup per counter,
/// not one per item.
#[derive(Default)]
struct Tally {
    hits: u64,
    misses: u64,
    leaders: u64,
    coalesced: u64,
}

impl Tally {
    fn publish(&self) {
        // Each leader runs the solver once; followers and hits never do.
        for (name, n) in [
            ("rsj_serve_cache_hits_total", self.hits),
            ("rsj_serve_cache_misses_total", self.misses),
            ("rsj_serve_singleflight_leaders_total", self.leaders),
            ("rsj_serve_solver_invocations_total", self.leaders),
            ("rsj_serve_singleflight_coalesced_total", self.coalesced),
        ] {
            if n > 0 {
                counter(name).add(n);
            }
        }
    }
}

/// How a plan reached its caller, for [`Provenance`].
#[derive(Clone, Copy, PartialEq)]
enum Origin {
    Cached,
    Computed,
    Coalesced,
}

/// A plan as [`serve_plan`] delivered it.
struct Served {
    plan: Arc<Plan>,
    origin: Origin,
    /// Wall time from the cache miss to the plan; 0 for a cache hit.
    solve_seconds: f64,
}

/// The one plan path: a `plan` calls it once and a `plan_batch` once per
/// item. It sheds the item if `deadline` has lapsed, answers from the
/// plan cache, and otherwise runs single-flight over identical in-flight
/// misses — from a batch or a singleton — so the leader's one solve is
/// cached and journaled before anyone hears it.
fn serve_plan(
    shared: &Shared,
    built: Result<Planner, RsjError>,
    simulate: Option<SimulateOptions>,
    deadline: Option<Instant>,
    tally: &mut Tally,
    timeline: &mut rsj_obs::Timeline,
) -> Result<Served, (ErrorKind, String)> {
    // Shed-at-dequeue: an item whose deadline lapsed while it waited is
    // dead on arrival; answering it would only waste a solver slot.
    if let Some(d) = deadline.filter(|d| Instant::now() >= *d) {
        return Err(deadline_exceeded(d));
    }
    let planner = built.map_err(|e| (classify(&e), e.to_string()))?;
    let key = full_cache_key(&planner, simulate);
    let cached = timeline.time("cache_lookup", || {
        key.as_deref().and_then(|key| shared.cache.get(key))
    });
    if let Some(plan) = cached {
        tally.hits += 1;
        return Ok(Served {
            plan,
            origin: Origin::Cached,
            solve_seconds: 0.0,
        });
    }
    tally.misses += 1;
    let solve_started = Instant::now();
    let flighted = match key.as_deref() {
        // Identical concurrent misses coalesce onto one solver run. The
        // abandoned value is what followers see if the leader panics
        // (e.g. an injected chaos fault) — typed, not a hang.
        Some(key) => shared.flights.run(
            key,
            deadline,
            Err((ErrorKind::Internal, "in-flight solve abandoned".to_string())),
            || solve(shared, &planner, Some(key), deadline, timeline),
        ),
        // Uncacheable requests have no stable identity to coalesce on.
        None => Flighted::Led(solve(shared, &planner, None, deadline, timeline)),
    };
    let solve_seconds = solve_started.elapsed().as_secs_f64();
    let (outcome, origin) = match flighted {
        Flighted::Led(outcome) => {
            tally.leaders += 1;
            (outcome, Origin::Computed)
        }
        Flighted::Joined(outcome) => {
            tally.coalesced += 1;
            // A follower's wall time here is spent parked on the
            // leader's flight, not solving.
            timeline.record_span("singleflight_wait", solve_started, Instant::now());
            (outcome, Origin::Coalesced)
        }
        Flighted::TimedOut => {
            let d = deadline.expect("only a deadline can time a follower out");
            return Err(deadline_exceeded(d));
        }
    };
    Ok(Served {
        plan: outcome?,
        origin,
        solve_seconds,
    })
}

/// Runs the solver, cancellable by `deadline`. A plan with a cache key is
/// cached and journaled before it is returned: append-before-response,
/// so once a client hears the answer the record is already flushed to
/// the OS and survives `kill -9`.
fn solve(
    shared: &Shared,
    planner: &Planner,
    key: Option<&str>,
    deadline: Option<Instant>,
    timeline: &mut rsj_obs::Timeline,
) -> SolveOutcome {
    let cancel = deadline.map_or_else(CancelToken::none, CancelToken::with_deadline);
    let plan = match planner.plan_traced(&cancel, timeline) {
        Ok(plan) => Arc::new(plan),
        Err(e) => return Err((classify(&e), e.to_string())),
    };
    if let Some(key) = key {
        shared.cache.insert(key.to_string(), Arc::clone(&plan));
        timeline.time("journal_append", || shared.journal_append(key, &plan));
    }
    Ok(plan)
}

/// Answers a `plan` op through [`serve_plan`].
fn handle_plan(
    shared: &Shared,
    request: PlanRequest,
    deadline: Option<Instant>,
    timeline: &mut rsj_obs::Timeline,
) -> Response {
    let started = Instant::now();
    let built = request.planner();
    let build_ended = Instant::now();
    timeline.record_span("build", started, build_ended);
    let mut tally = Tally::default();
    let served = serve_plan(
        shared,
        built,
        request.simulate,
        deadline,
        &mut tally,
        timeline,
    );
    tally.publish();
    match served {
        Ok(served) => Response::Plan {
            v: PROTOCOL_VERSION,
            provenance: provenance(request.solver.name(), served.origin),
            timings: Timings {
                build_seconds: (build_ended - started).as_secs_f64(),
                solve_seconds: served.solve_seconds,
                total_seconds: started.elapsed().as_secs_f64(),
            },
            plan: (*served.plan).clone(),
            trace_id: None,
            timeline: None,
        },
        Err((kind, message)) => Response::error(kind, message),
    }
}

/// Answers a `plan_batch` op: every item goes through [`serve_plan`],
/// visited in [`Planner::batch_order`] and answered in input order. A
/// frame whose deadline lapsed before it was dequeued gets one
/// frame-level `deadline_exceeded`; once the deadline lapses mid-frame,
/// each item not yet run gets its own.
fn handle_plan_batch(
    shared: &Shared,
    items: Vec<PlanRequest>,
    deadline: Option<Instant>,
    timeline: &mut rsj_obs::Timeline,
) -> Response {
    if let Some(d) = deadline.filter(|d| Instant::now() >= *d) {
        let (kind, message) = deadline_exceeded(d);
        return Response::error(kind, message);
    }
    let mut tally = Tally::default();
    let order = timeline.time("build", || Planner::batch_order(&items));
    let mut results: Vec<(usize, BatchItem)> = Vec::with_capacity(items.len());
    for (i, built) in order {
        let item = &items[i];
        // Each item's stages fold into one, so a frame's timeline stays
        // one stage per item however large the frame is, and an item
        // carries the attribution of its own solve: none for a cache hit
        // or a coalesced follower.
        let served = timeline.time_folded("item", |timeline| {
            serve_plan(shared, built, item.simulate, deadline, &mut tally, timeline)
        });
        if timeline.is_enabled() {
            timeline.annotate_last("item", i.to_string());
            match &served {
                Ok(served) => timeline.annotate_last("digest", served.plan.digest.as_str()),
                Err((_, message)) => timeline.annotate_last("error", message.as_str()),
            }
        }
        results.push((
            i,
            match served {
                Ok(served) => BatchItem::Plan {
                    plan: (*served.plan).clone(),
                    provenance: provenance(item.solver.name(), served.origin),
                },
                Err((kind, message)) => BatchItem::Error { kind, message },
            },
        ));
    }
    tally.publish();
    results.sort_by_key(|(i, _)| *i);
    Response::PlanBatch {
        v: PROTOCOL_VERSION_MAX,
        results: results.into_iter().map(|(_, result)| result).collect(),
        trace_id: None,
        timeline: None,
    }
}

/// Response provenance shared by the singleton and batch paths. The
/// protocol field is restamped by `with_version` to the client's
/// negotiated version before the response leaves the worker.
fn provenance(solver: &str, origin: Origin) -> Provenance {
    Provenance {
        server: concat!("rsj-serve/", env!("CARGO_PKG_VERSION")).to_string(),
        protocol: PROTOCOL_VERSION,
        solver: solver.to_string(),
        threads: rsj_par::Parallelism::current().threads(),
        cached: origin == Origin::Cached,
        coalesced: origin == Origin::Coalesced,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    // Subscriber state is process-global; this is the only test in the
    // lib binary that installs one.
    #[test]
    fn slow_request_warns_once_with_trace_id_and_stage_breakdown() {
        let sink = Arc::new(rsj_obs::MemorySink::new(rsj_obs::Level::Warn));
        rsj_obs::set_subscriber(sink.clone());
        let record = rsj_obs::TimelineRecord {
            trace_id: "00000000000000000000000000c0ffee".to_string(),
            op: "plan".to_string(),
            total_us: 12_500,
            stages: vec![
                rsj_obs::StageRecord {
                    name: "queue_wait".to_string(),
                    start_us: 0,
                    end_us: 1_000,
                    args: Vec::new(),
                },
                rsj_obs::StageRecord {
                    name: "solve".to_string(),
                    start_us: 1_000,
                    end_us: 12_000,
                    args: Vec::new(),
                },
            ],
        };
        warn_slow_request(&record, 5);
        rsj_obs::clear_subscriber();
        let events = sink.events();
        assert_eq!(events.len(), 1, "exactly one warn event: {events:?}");
        let event = &events[0];
        assert!(event.contains("slow request"), "{event}");
        assert!(
            event.contains("trace_id=00000000000000000000000000c0ffee"),
            "{event}"
        );
        assert!(event.contains("op=plan"), "{event}");
        assert!(event.contains("total=12.500ms"), "{event}");
        assert!(event.contains("threshold=5ms"), "{event}");
        assert!(event.contains("queue_wait=1.000ms"), "{event}");
        assert!(event.contains("solve=11.000ms"), "{event}");
    }

    #[test]
    fn client_idle_before_the_first_line_is_not_slow() {
        // 12.5 ms wall, but 10 ms of it was waiting for the client's
        // first bytes: only the remaining 2.5 ms counts against a 5 ms
        // slow threshold.
        let record = rsj_obs::TimelineRecord {
            trace_id: "00000000000000000000000000c0ffee".to_string(),
            op: "plan".to_string(),
            total_us: 12_500,
            stages: vec![
                rsj_obs::StageRecord {
                    name: "read_wait".to_string(),
                    start_us: 0,
                    end_us: 10_000,
                    args: Vec::new(),
                },
                rsj_obs::StageRecord {
                    name: "solve".to_string(),
                    start_us: 10_000,
                    end_us: 12_000,
                    args: Vec::new(),
                },
            ],
        };
        assert_eq!(attributable_us(&record), 2_500);
        assert!(attributable_us(&record) < 5_000, "must not warn at 5ms");
        // Without a read_wait stage the full wall time is attributable.
        let no_wait = rsj_obs::TimelineRecord {
            stages: Vec::new(),
            ..record
        };
        assert_eq!(attributable_us(&no_wait), 12_500);
    }

    #[test]
    fn per_op_histogram_names_are_static_and_distinct() {
        let decoded: Result<Request, (ErrorKind, String)> = Ok(Request::ping());
        assert_eq!(op_name(&decoded), "ping");
        assert_eq!(per_op_histogram("ping"), "rsj_serve_request_seconds_ping");
        assert_eq!(per_op_histogram("plan"), "rsj_serve_request_seconds_plan");
        assert_eq!(
            per_op_histogram("plan_batch"),
            "rsj_serve_request_seconds_plan_batch"
        );
        assert_eq!(
            per_op_histogram("nonsense"),
            "rsj_serve_request_seconds_invalid"
        );
    }

    /// A reactor connection over a real socket; [`ingest_lines`] only
    /// touches its buffers.
    fn test_conn() -> Conn {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let now = Instant::now();
        Conn {
            stream,
            conn_id: 0,
            accepted_at: now,
            read_buf: Vec::new(),
            scan_from: 0,
            lines: VecDeque::new(),
            out: Vec::new(),
            out_pos: 0,
            in_flight: false,
            served: 0,
            first_base: Some(now),
            idle_at: now,
            eof: false,
            close_after_write: false,
            finish: None,
            interest: Interest::READABLE,
        }
    }

    #[test]
    fn ingest_splits_lines_and_rejects_byte_drip_overflow() {
        let mut conn = test_conn();
        conn.read_buf
            .extend_from_slice(b"{\"op\":\"ping\"}\n\n{\"op\":");
        assert!(matches!(
            ingest_lines(&mut conn, 64, Duration::from_secs(30)),
            Ingest::Ok
        ));
        assert_eq!(conn.lines.len(), 1, "blank line skipped, partial held");
        assert_eq!(conn.lines[0].0, "{\"op\":\"ping\"}\n");
        assert_eq!(conn.read_buf, b"{\"op\":");
        // A partial that outgrows the cap without ever sending a newline
        // is rejected instead of buffering forever.
        conn.read_buf.extend_from_slice(&[b'x'; 64]);
        assert!(matches!(
            ingest_lines(&mut conn, 64, Duration::from_secs(30)),
            Ingest::TooLarge
        ));
    }

    /// What a byte stream is made of in the property below: JSON-ish
    /// text, whitespace, newlines and blank lines, valid multi-byte UTF-8,
    /// and a run long enough to outgrow the smaller caps.
    const STREAM_TOKENS: &[&[u8]] = &[
        b"{\"op\":\"ping\"}",
        b"{\"op\":\"plan\",\"distribution\":{\"family\":\"exponential\",\"lambda\":1.0}}",
        b"\"v\":2,",
        b"[1,2.5e-3,null,true]",
        b" ",
        b"\t",
        b"\r",
        b"\n",
        b"\n\n",
        b"\r\n",
        b"  \n",
        b"\xc3\xa9",
        b"\xf0\x9f\x98\x80",
        b"xxxxxxxxxxxxxxxx",
    ];

    /// Bytes that are never valid UTF-8 where they land: a byte no
    /// encoding uses, a lead byte cut from its continuation, a stray
    /// continuation byte.
    const INVALID_UTF8: &[u8] = &[0xff, 0xc3, 0x80];

    /// The lines [`ingest_lines`] must queue for `stream` under a cap of
    /// `cap` bytes, and the first rejection, from one plain split of the
    /// whole stream: blank lines dropped, the unterminated tail kept as a
    /// line at EOF, and a terminated line's newline counted in the cap.
    fn reference_split(stream: &[u8], cap: usize) -> (Vec<String>, Option<&'static str>) {
        let mut lines = Vec::new();
        let mut rest = stream;
        while !rest.is_empty() {
            let end = rest
                .iter()
                .position(|b| *b == b'\n')
                .map_or(rest.len(), |at| at + 1);
            let (raw, tail) = rest.split_at(end);
            rest = tail;
            if raw.len() > cap {
                return (lines, Some("too large"));
            }
            let Ok(line) = std::str::from_utf8(raw) else {
                return (lines, Some("bad utf-8"));
            };
            if !line.trim().is_empty() {
                lines.push(line.to_string());
            }
        }
        (lines, None)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        fn ingest_matches_a_whole_stream_split_under_any_chunking(
            tokens in proptest::collection::vec(0..STREAM_TOKENS.len(), 0..40),
            (invalid, invalid_at) in (0..2 * INVALID_UTF8.len(), 0.0f64..1.0),
            cuts in proptest::collection::vec(0.0f64..1.0, 0..8),
            cap in 8usize..160,
        ) {
            let mut stream: Vec<u8> =
                tokens.iter().flat_map(|&t| STREAM_TOKENS[t]).copied().collect();
            // Half the streams carry one invalid byte somewhere.
            if let Some(&byte) = INVALID_UTF8.get(invalid) {
                stream.insert((invalid_at * stream.len() as f64) as usize, byte);
            }
            // Chunk ends at random offsets; the last chunk carries EOF.
            let mut ends: Vec<usize> =
                cuts.iter().map(|c| (c * stream.len() as f64) as usize).collect();
            ends.push(stream.len());
            ends.sort_unstable();
            let mut conn = test_conn();
            let mut rejected = None;
            let mut from = 0;
            for (i, &end) in ends.iter().enumerate() {
                conn.read_buf.extend_from_slice(&stream[from..end]);
                from = end;
                conn.eof = i + 1 == ends.len();
                match ingest_lines(&mut conn, cap, Duration::from_secs(30)) {
                    Ingest::Ok => {}
                    Ingest::TooLarge => {
                        rejected = Some("too large");
                        break;
                    }
                    Ingest::BadUtf8 => {
                        rejected = Some("bad utf-8");
                        break;
                    }
                }
            }
            let lines: Vec<String> = conn.lines.iter().map(|(line, _)| line.clone()).collect();
            prop_assert_eq!((lines, rejected), reference_split(&stream, cap));
            if rejected.is_none() {
                prop_assert!(conn.read_buf.is_empty(), "EOF leaves nothing buffered");
            }
        }
    }
}
