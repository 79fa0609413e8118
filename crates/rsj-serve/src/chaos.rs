//! Seed-reproducible fault injection for the serving stack.
//!
//! Two layers, both driven by one [`ChaosPolicy`]:
//!
//! * **in-process hooks** — the server consults the policy per request to
//!   inject dispatch delays (slow workers) and worker panics, which the
//!   pool must survive;
//! * **[`ChaosProxy`]** — a TCP forwarder between client and server that
//!   drops connections mid-stream, stalls responses, and truncates writes
//!   (partial lines), exercising the client's typed-error paths.
//!
//! Every decision is a pure function of `(seed, stream, index)` via
//! [`rsj_par::substream_seed`], the workspace's splitmix64 substream
//! derivation: re-running a suite with the same seed and the same
//! connection/request ordering replays the exact same fault schedule. No
//! global RNG, no wall clock — the same property that makes solves
//! bit-identical makes the chaos harness reproducible.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rsj_par::substream_seed;

/// Labels for the per-purpose decision substreams, so a panic roll for
/// request k never correlates with a delay roll for the same request.
const STREAM_PANIC: u64 = 1;
const STREAM_DELAY: u64 = 2;
const STREAM_DROP: u64 = 3;
const STREAM_STALL: u64 = 4;
const STREAM_TRUNCATE: u64 = 5;
const STREAM_CORRUPT: u64 = 6;

/// A deterministic fault schedule. Every `*_every` knob is a sampling
/// rate: `0` disables the fault, `n` injects it on roughly 1-in-`n`
/// events, chosen by a seeded hash of the event's identity (connection
/// id, request index) rather than by a shared counter — so the schedule
/// is independent of thread interleaving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosPolicy {
    /// Root seed for every decision substream.
    pub seed: u64,
    /// Worker panics while handling ~1-in-n requests.
    pub worker_panic_every: u32,
    /// Dispatch of ~1-in-n requests is delayed by `delay_ms` (slow
    /// worker).
    pub delay_every: u32,
    /// Length of an injected dispatch delay.
    pub delay_ms: u64,
    /// The proxy drops ~1-in-n connections after forwarding a few
    /// response bytes.
    pub drop_conn_every: u32,
    /// The proxy stalls the first response read on ~1-in-n connections by
    /// `stall_ms`.
    pub stall_every: u32,
    /// Length of an injected stall.
    pub stall_ms: u64,
    /// The proxy truncates the first response chunk on ~1-in-n
    /// connections and closes (partial write).
    pub partial_write_every: u32,
}

impl ChaosPolicy {
    /// A policy with every fault disabled; turn knobs on from here.
    pub fn quiet(seed: u64) -> Self {
        Self {
            seed,
            worker_panic_every: 0,
            delay_every: 0,
            delay_ms: 0,
            drop_conn_every: 0,
            stall_every: 0,
            stall_ms: 0,
            partial_write_every: 0,
        }
    }

    /// The deterministic roll for event `index` of `stream`.
    fn roll(&self, stream: u64, index: u64) -> u64 {
        substream_seed(substream_seed(self.seed, stream), index)
    }

    fn hits(&self, stream: u64, index: u64, every: u32) -> bool {
        every != 0 && self.roll(stream, index).is_multiple_of(u64::from(every))
    }

    /// Event identity for a request: connection id and request index
    /// folded into one substream index.
    fn request_index(conn: u64, req: u64) -> u64 {
        conn.wrapping_mul(0x1_0000_0001).wrapping_add(req)
    }

    /// Should the worker handling request `req` of connection `conn`
    /// panic?
    pub fn worker_panics(&self, conn: u64, req: u64) -> bool {
        self.hits(
            STREAM_PANIC,
            Self::request_index(conn, req),
            self.worker_panic_every,
        )
    }

    /// Injected dispatch delay for request `req` of connection `conn`.
    pub fn dispatch_delay(&self, conn: u64, req: u64) -> Option<Duration> {
        if self.hits(
            STREAM_DELAY,
            Self::request_index(conn, req),
            self.delay_every,
        ) {
            Some(Duration::from_millis(self.delay_ms))
        } else {
            None
        }
    }

    /// The proxy-side fault (if any) for connection `conn`. At most one
    /// fault per connection, precedence drop > truncate > stall, so the
    /// observed failure mode is unambiguous.
    pub fn conn_fault(&self, conn: u64) -> Option<ConnFault> {
        if self.hits(STREAM_DROP, conn, self.drop_conn_every) {
            // Let between 1 and 64 response bytes through first, so the
            // client usually sees a torn line rather than a clean EOF.
            let after = 1 + (self.roll(STREAM_DROP, conn) >> 7) % 64;
            return Some(ConnFault::DropAfter(after as usize));
        }
        if self.hits(STREAM_TRUNCATE, conn, self.partial_write_every) {
            return Some(ConnFault::TruncateFirstChunk);
        }
        if self.hits(STREAM_STALL, conn, self.stall_every) {
            return Some(ConnFault::StallFirstByte(Duration::from_millis(
                self.stall_ms,
            )));
        }
        None
    }
}

/// One way to damage a journal/snapshot byte stream, as chosen by the
/// [`CorruptionPolicy`]. Each variant models a real failure: a crash
/// mid-append ([`TruncateAt`](Corruption::TruncateAt),
/// [`ZeroLengthTail`](Corruption::ZeroLengthTail) — filesystems often
/// extend a file with zeros before the data lands), silent media bit rot
/// ([`BitFlip`](Corruption::BitFlip)), and a replayed write
/// ([`DuplicateRecord`](Corruption::DuplicateRecord)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Corruption {
    /// Cut the stream at this byte offset (torn tail).
    TruncateAt {
        /// Offset to truncate at; clamped to the stream length.
        offset: usize,
    },
    /// Flip one bit of one byte (media rot).
    BitFlip {
        /// Byte offset to damage; clamped to the stream length.
        offset: usize,
        /// Which bit (0–7) to flip.
        bit: u8,
    },
    /// Append a copy of an existing record's frame (replayed write).
    DuplicateRecord {
        /// Index of the frame to duplicate, modulo the frame count.
        index: usize,
    },
    /// Append a run of zero bytes (preallocated-but-unwritten tail).
    ZeroLengthTail {
        /// How many zero bytes to append.
        zeros: usize,
    },
}

/// A seed-reproducible journal-corruption injector, following the same
/// `(seed, stream, index)` discipline as [`ChaosPolicy`]: corruption op
/// `k` is a pure function of the seed and `k`, so a failing recovery run
/// replays byte-for-byte from its seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorruptionPolicy {
    /// Root seed for the corruption substream.
    pub seed: u64,
}

impl CorruptionPolicy {
    /// A policy rooted at `seed`.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// The `index`-th corruption op for a stream of `len` bytes holding
    /// `records` well-formed frames. Pure: same `(seed, index, len,
    /// records)` → same op, regardless of call order or thread.
    pub(crate) fn op(&self, index: u64, len: usize, records: usize) -> Corruption {
        let roll = substream_seed(substream_seed(self.seed, STREAM_CORRUPT), index);
        // Decorrelated draws for the op selector and its parameters.
        let param = substream_seed(roll, 1);
        match roll % 4 {
            0 => Corruption::TruncateAt {
                offset: if len == 0 { 0 } else { param as usize % len },
            },
            1 => Corruption::BitFlip {
                offset: if len == 0 { 0 } else { param as usize % len },
                bit: (substream_seed(roll, 2) % 8) as u8,
            },
            2 => Corruption::DuplicateRecord {
                index: if records == 0 {
                    0
                } else {
                    param as usize % records
                },
            },
            _ => Corruption::ZeroLengthTail {
                zeros: 1 + (param as usize % 64),
            },
        }
    }

    /// Applies `count` seeded ops to a framed byte stream (`spans` are
    /// the well-formed frame ranges, from
    /// [`crate::journal::frame_spans`]). Ops are applied sequentially —
    /// op `k+1` sees the stream op `k` produced — so the damage pattern
    /// is fully determined by `(seed, count)` and the input bytes.
    pub fn corrupt(&self, bytes: &[u8], spans: &[std::ops::Range<usize>], count: u64) -> Vec<u8> {
        let mut out = bytes.to_vec();
        for index in 0..count {
            match self.op(index, out.len(), spans.len()) {
                Corruption::TruncateAt { offset } => {
                    out.truncate(offset.min(out.len()));
                }
                Corruption::BitFlip { offset, bit } => {
                    if let Some(b) = out.get_mut(offset) {
                        *b ^= 1 << bit;
                    }
                }
                Corruption::DuplicateRecord { index } => {
                    // Spans describe the *original* stream; skip if a
                    // previous truncation already ate that frame.
                    if let Some(span) = spans.get(index) {
                        if span.end <= out.len() {
                            let frame = out[span.clone()].to_vec();
                            out.extend_from_slice(&frame);
                        }
                    }
                }
                Corruption::ZeroLengthTail { zeros } => {
                    let new_len = out.len() + zeros;
                    out.resize(new_len, 0);
                }
            }
        }
        out
    }
}

/// A connection-scoped fault applied by the proxy to the server→client
/// leg.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnFault {
    /// Forward this many response bytes, then sever the connection.
    DropAfter(usize),
    /// Forward only half of the first response chunk, then sever.
    TruncateFirstChunk,
    /// Sleep before forwarding the first response byte.
    StallFirstByte(Duration),
}

/// Stops a running [`ChaosProxy`] from another thread.
#[derive(Debug, Clone)]
pub struct ProxyHandle(Arc<AtomicBool>);

impl ProxyHandle {
    /// Asks the proxy's accept loop and pumps to wind down. Idempotent.
    pub fn stop(&self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// A fault-injecting TCP forwarder: clients connect to the proxy, the
/// proxy connects onward to the real server, and the policy decides per
/// connection whether (and how) to misbehave on the response leg.
pub struct ChaosProxy {
    listener: TcpListener,
    local_addr: SocketAddr,
    upstream: SocketAddr,
    policy: ChaosPolicy,
    stop: Arc<AtomicBool>,
}

/// How often a proxy pump wakes up to poll the stop flag.
const PUMP_POLL: Duration = Duration::from_millis(50);

impl ChaosProxy {
    /// Binds the proxy on an ephemeral localhost port in front of
    /// `upstream`.
    pub fn bind(upstream: SocketAddr, policy: ChaosPolicy) -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let local_addr = listener.local_addr()?;
        Ok(Self {
            listener,
            local_addr,
            upstream,
            policy,
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The address clients should connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A handle that can stop the proxy from another thread.
    pub fn stop_handle(&self) -> ProxyHandle {
        ProxyHandle(Arc::clone(&self.stop))
    }

    /// Forwards connections until stopped. Connection ids are assigned in
    /// accept order (0, 1, 2, …), which is what ties a fault schedule to
    /// a deterministic client workload.
    pub fn run(self) -> std::io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let mut pumps = Vec::new();
        let mut conn_id: u64 = 0;
        while !self.stop.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((client, _peer)) => {
                    let fault = self.policy.conn_fault(conn_id);
                    conn_id += 1;
                    let _ = client.set_nodelay(true);
                    match TcpStream::connect(self.upstream) {
                        Ok(server) => {
                            let _ = server.set_nodelay(true);
                            pumps.extend(spawn_pumps(client, server, fault, &self.stop));
                        }
                        Err(e) => {
                            rsj_obs::debug!("chaos proxy upstream connect failed: {e}");
                            let _ = client.shutdown(Shutdown::Both);
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        for pump in pumps {
            let _ = pump.join();
        }
        Ok(())
    }
}

/// One pump per direction. Faults apply to the server→client leg only:
/// the request must reach the server for the fault to model a *response*
/// failure, which is the side a resilient client has to survive.
fn spawn_pumps(
    client: TcpStream,
    server: TcpStream,
    fault: Option<ConnFault>,
    stop: &Arc<AtomicBool>,
) -> Vec<std::thread::JoinHandle<()>> {
    let up = (client.try_clone(), server.try_clone(), Arc::clone(stop));
    let down = (server, client, Arc::clone(stop));
    let mut handles = Vec::new();
    if let (Ok(from), Ok(to), stop) = up {
        handles.push(
            std::thread::Builder::new()
                .name("chaos-up".into())
                .spawn(move || pump(from, to, None, &stop))
                .expect("spawn chaos pump"),
        );
    }
    let (from, to, stop) = down;
    handles.push(
        std::thread::Builder::new()
            .name("chaos-down".into())
            .spawn(move || pump(from, to, fault, &stop))
            .expect("spawn chaos pump"),
    );
    handles
}

/// Copies bytes `from` → `to`, applying `fault`, until EOF, error, or
/// stop.
fn pump(from: TcpStream, mut to: TcpStream, fault: Option<ConnFault>, stop: &AtomicBool) {
    let _ = from.set_read_timeout(Some(PUMP_POLL));
    let mut from = from;
    let mut buf = [0u8; 4096];
    let mut forwarded: usize = 0;
    let mut first_chunk = true;
    loop {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let n = match from.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        };
        let mut chunk = &buf[..n];
        match fault {
            Some(ConnFault::StallFirstByte(delay)) if first_chunk => {
                std::thread::sleep(delay);
            }
            Some(ConnFault::TruncateFirstChunk) if first_chunk => {
                // Half of the first chunk, then a hard close: the client
                // sees a torn response line.
                chunk = &chunk[..n / 2];
                if to.write_all(chunk).is_err() {
                    break;
                }
                let _ = to.flush();
                sever(&from, &to);
                return;
            }
            _ => {}
        }
        first_chunk = false;
        // A drop fault severs *mid-line*: clamp the chunk to the byte
        // budget so a small response can't slip through whole before the
        // limit check.
        if let Some(ConnFault::DropAfter(limit)) = fault {
            let room = limit.saturating_sub(forwarded);
            if chunk.len() >= room {
                if to.write_all(&chunk[..room]).is_ok() {
                    let _ = to.flush();
                }
                sever(&from, &to);
                return;
            }
        }
        if to.write_all(chunk).is_err() {
            break;
        }
        let _ = to.flush();
        forwarded += chunk.len();
    }
    let _ = to.shutdown(Shutdown::Write);
}

fn sever(a: &TcpStream, b: &TcpStream) {
    let _ = a.shutdown(Shutdown::Both);
    let _ = b.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_pure_function_of_seed_and_identity() {
        let policy = ChaosPolicy {
            worker_panic_every: 3,
            delay_every: 2,
            delay_ms: 5,
            drop_conn_every: 4,
            stall_every: 2,
            stall_ms: 10,
            partial_write_every: 5,
            ..ChaosPolicy::quiet(42)
        };
        let replay = policy;
        for conn in 0..50u64 {
            assert_eq!(policy.conn_fault(conn), replay.conn_fault(conn));
            for req in 0..20u64 {
                assert_eq!(
                    policy.worker_panics(conn, req),
                    replay.worker_panics(conn, req)
                );
                assert_eq!(
                    policy.dispatch_delay(conn, req),
                    replay.dispatch_delay(conn, req)
                );
            }
        }
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let a = ChaosPolicy {
            worker_panic_every: 2,
            ..ChaosPolicy::quiet(1)
        };
        let b = ChaosPolicy {
            worker_panic_every: 2,
            ..ChaosPolicy::quiet(2)
        };
        let schedule =
            |p: &ChaosPolicy| -> Vec<bool> { (0..64).map(|req| p.worker_panics(0, req)).collect() };
        assert_ne!(schedule(&a), schedule(&b));
    }

    #[test]
    fn quiet_policy_injects_nothing() {
        let policy = ChaosPolicy::quiet(7);
        for conn in 0..20u64 {
            assert_eq!(policy.conn_fault(conn), None);
            for req in 0..20u64 {
                assert!(!policy.worker_panics(conn, req));
                assert_eq!(policy.dispatch_delay(conn, req), None);
            }
        }
    }

    #[test]
    fn corruption_ops_are_pure_functions_of_seed_and_index() {
        let policy = CorruptionPolicy::new(20190520);
        let replay = CorruptionPolicy::new(20190520);
        for index in 0..64u64 {
            assert_eq!(policy.op(index, 1000, 5), replay.op(index, 1000, 5));
        }
        let other = CorruptionPolicy::new(20190521);
        let ops = |p: &CorruptionPolicy| -> Vec<Corruption> {
            (0..64).map(|i| p.op(i, 1000, 5)).collect()
        };
        assert_ne!(ops(&policy), ops(&other));
    }

    #[test]
    fn corruption_covers_every_variant() {
        let policy = CorruptionPolicy::new(7);
        let mut seen = [false; 4];
        for index in 0..256u64 {
            match policy.op(index, 1000, 5) {
                Corruption::TruncateAt { .. } => seen[0] = true,
                Corruption::BitFlip { .. } => seen[1] = true,
                Corruption::DuplicateRecord { .. } => seen[2] = true,
                Corruption::ZeroLengthTail { .. } => seen[3] = true,
            }
        }
        assert_eq!(seen, [true; 4], "{seen:?}");
    }

    #[test]
    fn corrupt_is_deterministic_and_never_panics_on_short_input() {
        let policy = CorruptionPolicy::new(99);
        let bytes: Vec<u8> = (0..200).map(|i| i as u8).collect();
        let spans = vec![0..50, 50..120, 120..200];
        let a = policy.corrupt(&bytes, &spans, 8);
        let b = policy.corrupt(&bytes, &spans, 8);
        assert_eq!(a, b);
        // Degenerate inputs must not panic.
        let _ = policy.corrupt(&[], &[], 8);
        let _ = policy.corrupt(&bytes[..3], &[], 8);
    }

    #[test]
    fn sampling_rates_are_roughly_respected() {
        let policy = ChaosPolicy {
            worker_panic_every: 4,
            ..ChaosPolicy::quiet(9)
        };
        let hits = (0..4000u64)
            .filter(|&req| policy.worker_panics(1, req))
            .count();
        // 1-in-4 nominal; allow a generous band for hash variance.
        assert!((700..=1300).contains(&hits), "{hits}");
    }
}
