//! Driving `rsj serve` from outside: spawn a fresh server process, wait
//! for readiness, run the closed-loop load, read its `/proc` files and
//! its `metrics` / `trace` ops, and stop it.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use rsj_serve::Client;

use crate::procfs;
use crate::workloads::{Line, ServeLoad};

/// Requests `rsj serve` answers on one connection before it closes it
/// (`max_requests_per_conn`, which has no flag): the generator
/// reconnects after this many, inside the timed window.
pub const REQUESTS_PER_CONN: usize = 1024;

/// Worker threads of every spawned server: one per CPU of the 2-CPU
/// host the bounds were set on.
pub const WORKERS: &str = "2";

/// A running `rsj serve` child; dropping it kills and reaps the process.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    // Held so the server's stdout never becomes a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Server {
    /// Starts `rsj serve` on a free loopback port and reads the address
    /// it prints.
    pub fn spawn(
        rsj: &Path,
        journal_dir: Option<&Path>,
        trace_buffer: Option<usize>,
    ) -> io::Result<Self> {
        let mut cmd = Command::new(rsj);
        cmd.args(["serve", "--addr", "127.0.0.1:0", "--workers", WORKERS]);
        if let Some(dir) = journal_dir {
            // Without snapshots: a snapshot `sync_all`s to disk, and on a
            // shared virtual disk that wait varies far more than any bound
            // (it set `serve_miss`'s p99 when one came every 64 appends).
            // Journal appends still reach the OS before each reply.
            cmd.arg("--journal-dir").arg(dir);
            cmd.args(["--snapshot-every", "0"]);
        }
        if let Some(n) = trace_buffer {
            cmd.args(["--trace-buffer", &n.to_string()]);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut first = String::new();
        let addr = stdout
            .read_line(&mut first)
            .ok()
            .and_then(|_| first.trim().rsplit(' ').next()?.parse().ok());
        match addr {
            Some(addr) => Ok(Self {
                child,
                addr,
                _stdout: stdout,
            }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(io::Error::other(format!(
                    "rsj serve did not print its address (got {first:?})"
                )))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// A control connection (readiness, metrics, traces, shutdown).
    pub fn client(&self) -> io::Result<Client> {
        let client = Client::connect(self.addr)?;
        client.set_timeout(Some(Duration::from_secs(60)))?;
        Ok(client)
    }

    /// Polls the `ready` op until the server answers ready.
    pub fn wait_ready(&self, timeout: Duration) -> io::Result<()> {
        let started = Instant::now();
        let mut client = self.client()?;
        let mut polls = 0;
        loop {
            match client.ready() {
                Ok(true) => return Ok(()),
                Ok(false) => {}
                Err(e) => return Err(io::Error::other(format!("ready probe failed: {e}"))),
            }
            if started.elapsed() > timeout {
                return Err(io::Error::other("server not ready in time"));
            }
            polls += 1;
            if polls % (REQUESTS_PER_CONN - 1) == 0 {
                client = self.client()?;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Asks the server to drain and exit, and reaps it.
    pub fn stop(mut self) -> io::Result<()> {
        let asked = self.client().and_then(|mut c| {
            c.shutdown()
                .map_err(|e| io::Error::other(format!("shutdown failed: {e}")))
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        while asked.is_ok() && Instant::now() < deadline {
            if self.child.try_wait()?.is_some() {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        asked.and(Err(io::Error::other("server did not exit after shutdown")))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// What one load connection saw during the timed window.
#[derive(Debug, Default)]
pub struct ConnLog {
    /// Request lines sent (frames, on `serve_batch`).
    pub sent: usize,
    /// Plans received: one per `plan` line, one per item of a frame.
    pub items_sent: usize,
    pub items_ok: usize,
    /// Typed errors, transport failures, digest and trace-id mismatches.
    pub failures: usize,
    pub first_failure: Option<String>,
    /// Each reply, in send order; reply `k` answered request line
    /// `k % lines.len()`.
    pub replies: Vec<Reply>,
    /// `(request table index, plan digest)` of every plan received.
    pub digests: Vec<(usize, [u8; 16])>,
    pub response_bytes: u64,
    /// CPU time of this generator thread.
    pub cpu_ns: u64,
}

/// When a reply arrived, how long it took, and how many plans it held.
#[derive(Debug, Clone, Copy)]
pub struct Reply {
    /// Arrival, in nanoseconds since the timed window opened.
    pub end_ns: u64,
    /// Client-observed latency: send (or reconnect) to the reply's end.
    pub latency_ns: u64,
    pub items_ok: u32,
}

impl ConnLog {
    fn fail(&mut self, why: String) {
        self.failures += 1;
        self.first_failure.get_or_insert(why);
    }
}

fn connect(addr: SocketAddr) -> io::Result<(TcpStream, BufReader<TcpStream>)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    let reader = BufReader::with_capacity(1 << 16, stream.try_clone()?);
    Ok((stream, reader))
}

/// The closed loop of one connection: send a line, wait for its reply,
/// check it, repeat until `until` or `limit` lines; reconnect every
/// [`REQUESTS_PER_CONN`] lines. `expected[i]` is the digest request
/// table entry `i` must get, where known in advance.
fn drive(
    addr: SocketAddr,
    lines: &[Line],
    expected: &[Option<[u8; 16]>],
    (origin, until): (Instant, Instant),
    limit: usize,
) -> ConnLog {
    let cpu_start = procfs::thread_cpu_ns();
    let mut log = ConnLog::default();
    let mut conn: Option<(TcpStream, BufReader<TcpStream>)> = None;
    let mut on_conn = 0;
    let mut reply = Vec::with_capacity(1 << 16);
    while log.sent < limit && Instant::now() < until {
        let line = &lines[log.sent % lines.len()];
        log.sent += 1;
        log.items_sent += line.items.len();
        let started = Instant::now();
        if on_conn == REQUESTS_PER_CONN {
            conn = None;
        }
        if conn.is_none() {
            on_conn = 0;
            match connect(addr) {
                Ok(c) => conn = Some(c),
                Err(e) => {
                    log.fail(format!("connect: {e}"));
                    std::thread::sleep(Duration::from_millis(10));
                    log.replies.push(Reply {
                        end_ns: origin.elapsed().as_nanos() as u64,
                        latency_ns: started.elapsed().as_nanos() as u64,
                        items_ok: 0,
                    });
                    continue;
                }
            }
        }
        let (stream, reader) = conn.as_mut().expect("connected above");
        on_conn += 1;
        reply.clear();
        let exchanged = stream
            .write_all(line.text.as_bytes())
            .and_then(|_| reader.read_until(b'\n', &mut reply));
        let ended = Instant::now();
        let ok_before = log.items_ok;
        match exchanged {
            Ok(n) if n > 0 && reply.ends_with(b"\n") => {
                log.response_bytes += n as u64;
                if let Err(why) = check_reply(&reply, line, expected, &mut log) {
                    log.fail(why);
                }
            }
            Ok(_) => {
                log.fail("connection closed mid-reply".to_string());
                conn = None;
            }
            Err(e) => {
                log.fail(format!("transport: {e}"));
                conn = None;
            }
        }
        log.replies.push(Reply {
            end_ns: (ended - origin).as_nanos() as u64,
            latency_ns: (ended - started).as_nanos() as u64,
            items_ok: (log.items_ok - ok_before) as u32,
        });
    }
    log.cpu_ns = procfs::thread_cpu_ns().saturating_sub(cpu_start);
    log
}

fn find(hay: &[u8], needle: &[u8], from: usize) -> Option<usize> {
    hay.get(from..)?
        .windows(needle.len())
        .position(|w| w == needle)
        .map(|p| p + from)
}

/// The string value that starts right after `at` (just past an opening
/// quote), up to the closing quote.
fn string_at(hay: &[u8], at: usize) -> &[u8] {
    let end = hay[at..].iter().position(|&b| b == b'"').unwrap_or(0);
    &hay[at..at + end]
}

const STATUS: &[u8] = br#""status":""#;
const DIGEST: &[u8] = br#""digest":""#;
const TRACE_ID: &[u8] = br#""trace_id":""#;

/// Checks a reply against its request line by scanning the JSON text
/// (a full parse per reply would make the generator the bottleneck on
/// cache hits): the echoed trace id, a `plan` status for every item, and
/// each plan digest where one is expected. Records the digests, counts
/// each failed item, and returns an error for a malformed reply.
fn check_reply(
    reply: &[u8],
    line: &Line,
    expected: &[Option<[u8; 16]>],
    log: &mut ConnLog,
) -> Result<(), String> {
    let text = || String::from_utf8_lossy(&reply[..reply.len().min(300)]).into_owned();
    let echoed = reply
        .windows(TRACE_ID.len())
        .rposition(|w| w == TRACE_ID)
        .map(|p| string_at(reply, p + TRACE_ID.len()));
    if echoed != Some(line.trace_id.as_bytes()) {
        return Err(format!("trace id {} not echoed: {}", line.trace_id, text()));
    }
    let top = find(reply, STATUS, 0).ok_or_else(|| format!("no status: {}", text()))?;
    let mut at = top + STATUS.len();
    let batch = line.items.len() > 1 || string_at(reply, at) == b"plan_batch";
    for (n, &item) in line.items.iter().enumerate() {
        if batch {
            match find(reply, STATUS, at) {
                Some(p) => at = p + STATUS.len(),
                None => return Err(format!("reply holds {n} of {} items", line.items.len())),
            }
        }
        if string_at(reply, at) != b"plan" {
            log.fail(format!("item {n} failed: {}", text()));
            continue;
        }
        let d = find(reply, DIGEST, at).ok_or_else(|| format!("no digest: {}", text()))?;
        at = d + DIGEST.len();
        let digest: [u8; 16] = string_at(reply, at)
            .try_into()
            .map_err(|_| format!("malformed digest: {}", text()))?;
        if let Some(Some(want)) = expected.get(item) {
            if *want != digest {
                log.fail(format!("digest mismatch on item {n} of {}", line.trace_id));
                continue;
            }
        }
        log.items_ok += 1;
        log.digests.push((item, digest));
    }
    Ok(())
}

/// Length of the windows a timed run is cut into; the end-to-end rates
/// are medians over them, so a burst of interference from other
/// processes on the host moves one window, not the result.
pub const WINDOW: Duration = Duration::from_secs(1);

/// What the timed window of a serving run recorded.
pub struct LoadRun {
    pub logs: Vec<ConnLog>,
    /// When the timed window opened; reply times count from here.
    pub origin: Instant,
    pub wall_s: f64,
    /// Server CPU ticks at the start and at the end of each [`WINDOW`].
    pub cpu_ticks: Vec<u64>,
}

/// Runs the load's connections concurrently, one thread and one
/// connection each, for `duration`, while this thread reads the server's
/// CPU time at every window boundary.
pub fn run_load(
    addr: SocketAddr,
    pid: u32,
    load: &ServeLoad,
    expected: &[Option<[u8; 16]>],
    duration: Duration,
) -> io::Result<LoadRun> {
    let origin = Instant::now();
    let until = origin + duration;
    let cpu = || procfs::cpu_ticks(pid);
    let mut cpu_ticks = vec![cpu()?];
    let logs = std::thread::scope(|scope| {
        let handles: Vec<_> = load
            .conns
            .iter()
            .filter(|lines| !lines.is_empty())
            .map(|lines| {
                scope.spawn(move || drive(addr, lines, expected, (origin, until), usize::MAX))
            })
            .collect();
        let mut boundary = origin + WINDOW;
        while boundary <= until {
            std::thread::sleep(boundary.saturating_duration_since(Instant::now()));
            match cpu() {
                Ok(ticks) => cpu_ticks.push(ticks),
                Err(_) => break,
            }
            boundary += WINDOW;
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread"))
            .collect()
    });
    Ok(LoadRun {
        logs,
        origin,
        wall_s: origin.elapsed().as_secs_f64(),
        cpu_ticks,
    })
}

/// Sends `lines` once, sequentially, on one connection (the set-up
/// warm-up); fails on any bad reply.
pub fn send_once(
    addr: SocketAddr,
    lines: &[Line],
    expected: &[Option<[u8; 16]>],
) -> io::Result<()> {
    if lines.is_empty() {
        return Ok(());
    }
    let now = Instant::now();
    let log = drive(
        addr,
        lines,
        expected,
        (now, now + Duration::from_secs(600)),
        lines.len(),
    );
    match log.first_failure {
        None => Ok(()),
        Some(why) => Err(io::Error::other(format!("warm-up failed: {why}"))),
    }
}

/// The value of a Prometheus counter in a `metrics` op exposition (0
/// when the counter was never touched).
pub fn counter(prometheus: &str, name: &str) -> u64 {
    prometheus
        .lines()
        .find_map(|line| {
            let (n, v) = line.split_once(' ')?;
            (n == name).then(|| v.trim().parse::<f64>().ok())?
        })
        .map_or(0, |v| v as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(items: Vec<usize>) -> Line {
        Line {
            text: String::new(),
            trace_id: "t-1".into(),
            items,
        }
    }

    #[test]
    fn plan_reply_is_checked_and_digest_recorded() {
        let reply = br#"{"status":"plan","v":1,"plan":{"distribution":"Exp","digest":"0123456789abcdef","simulation":null},"provenance":{},"trace_id":"t-1","timeline":null}
"#;
        let mut log = ConnLog::default();
        let want = [Some(*b"0123456789abcdef")];
        check_reply(reply, &line(vec![0]), &want, &mut log).unwrap();
        assert_eq!(log.digests, vec![(0, *b"0123456789abcdef")]);
        assert_eq!((log.items_ok, log.failures), (1, 0));
        let other = [Some(*b"fedcba9876543210")];
        check_reply(reply, &line(vec![0]), &other, &mut log).unwrap();
        assert_eq!((log.items_ok, log.failures), (1, 1));
        let mut wrong_id = line(vec![0]);
        wrong_id.trace_id = "t-2".into();
        assert!(check_reply(reply, &wrong_id, &[], &mut log).is_err());
    }

    #[test]
    fn batch_reply_items_are_checked_in_order() {
        let reply = br#"{"status":"plan_batch","v":2,"results":[{"status":"plan","plan":{"digest":"aaaaaaaaaaaaaaaa"}},{"status":"error","kind":"invalid_distribution","message":"x"},{"status":"plan","plan":{"digest":"bbbbbbbbbbbbbbbb"}}],"trace_id":"t-1"}
"#;
        let mut log = ConnLog::default();
        check_reply(reply, &line(vec![4, 5, 6]), &[], &mut log).unwrap();
        assert_eq!((log.items_ok, log.failures), (2, 1));
        assert!(log.first_failure.unwrap().contains("item 1"));
        assert_eq!(
            log.digests,
            vec![(4, *b"aaaaaaaaaaaaaaaa"), (6, *b"bbbbbbbbbbbbbbbb")]
        );
        let mut log = ConnLog::default();
        assert!(check_reply(reply, &line(vec![1, 2, 3, 4]), &[], &mut log).is_err());
    }

    #[test]
    fn counters_read_from_the_exposition() {
        let prom = "# TYPE rsj_serve_cache_hits_total counter\nrsj_serve_cache_hits_total 41\n\
                    rsj_serve_cache_hits_total_extra 9\n";
        assert_eq!(counter(prom, "rsj_serve_cache_hits_total"), 41);
        assert_eq!(counter(prom, "rsj_serve_cache_misses_total"), 0);
    }
}
