//! Reactor-level integration tests: framing under adversarial I/O
//! (byte-split reads, byte-drip peers, unread responses), the v1/v2
//! protocol interop matrix, the `plan_batch` op, and a 512-connection
//! storm checked bit-for-bit against the offline solver.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use proptest::prelude::*;
use reservation_strategies::{PlanRequest, Planner};
use rsj_dist::DistSpec;
use rsj_serve::{
    encode, AdmissionConfig, BatchItem, Client, ErrorKind, Request, Response, ServerConfig,
};

mod common;
use common::{fast_dp, spawn_server};

fn stop(handle: rsj_serve::ShutdownHandle, join: std::thread::JoinHandle<std::io::Result<()>>) {
    handle.signal();
    join.join().expect("server thread").expect("clean exit");
}

/// One raw request line over a fresh connection, answered with one line.
fn raw_round_trip(addr: SocketAddr, line: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(line.as_bytes()).expect("write");
    stream.write_all(b"\n").expect("write newline");
    let mut reader = BufReader::new(stream);
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read");
    reply
}

/// The reactor assembles a frame no matter where the peer's writes split
/// it: every byte boundary of a plan request line, exhaustively.
#[test]
fn request_split_at_every_byte_boundary_still_decodes() {
    let (addr, handle, join) = spawn_server(ServerConfig::default());
    let mut line = encode(&Request::plan(DistSpec::Exponential { lambda: 1.0 })).unwrap();
    line.push('\n');
    let bytes = line.as_bytes();
    for split in 1..bytes.len() {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(&bytes[..split]).expect("first chunk");
        stream.flush().unwrap();
        // Give the reactor a chance to observe the partial frame.
        std::thread::sleep(Duration::from_millis(1));
        stream.write_all(&bytes[split..]).expect("second chunk");
        let mut reader = BufReader::new(stream);
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read");
        let response: Response =
            serde_json::from_str(reply.trim()).unwrap_or_else(|e| panic!("split at {split}: {e}"));
        assert!(
            matches!(response, Response::Plan { .. }),
            "split at {split}: {response:?}"
        );
    }
    stop(handle, join);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random multi-chunk partitions of a request line (a harsher version
    /// of the exhaustive two-chunk split above).
    #[test]
    fn random_chunked_writes_still_decode(cuts in proptest::collection::vec(0.0f64..1.0, 1..6)) {
        let (addr, handle, join) = spawn_server(ServerConfig::default());
        let mut line = encode(&Request::plan(DistSpec::LogNormal { mu: 1.0, sigma: 0.5 })).unwrap();
        line.push('\n');
        let bytes = line.as_bytes();
        let mut boundaries: Vec<usize> = cuts
            .iter()
            .map(|f| ((f * bytes.len() as f64) as usize).clamp(1, bytes.len() - 1))
            .collect();
        boundaries.sort_unstable();
        boundaries.dedup();
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut from = 0;
        for &to in boundaries.iter().chain(std::iter::once(&bytes.len())) {
            stream.write_all(&bytes[from..to]).expect("chunk");
            stream.flush().unwrap();
            std::thread::sleep(Duration::from_millis(1));
            from = to;
        }
        let mut reader = BufReader::new(stream);
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read");
        let response: Response = serde_json::from_str(reply.trim()).expect("parse");
        prop_assert!(matches!(response, Response::Plan { .. }), "{response:?}");
        stop(handle, join);
    }
}

/// A response far larger than the socket buffers, written while the
/// client refuses to read: the reactor must park the remainder, wait for
/// writability, and resume — byte-perfectly — once the client drains.
#[test]
fn partial_writes_resume_when_the_client_finally_reads() {
    let (addr, handle, join) = spawn_server(ServerConfig::default());
    // A multi-megabyte single-line response (4096 cheap plans in one
    // batch) is far beyond any loopback socket-buffer pair, so the write
    // *must* hit WouldBlock mid-response while the client sleeps.
    let items: Vec<PlanRequest> = (0..4096)
        .map(|i| {
            PlanRequest::new(DistSpec::Exponential {
                lambda: 1.0 + i as f64 * 1e-6,
            })
        })
        .collect();
    let offline_first = items[0].planner().unwrap().plan().unwrap().digest;
    let mut line = encode(&Request::plan_batch(items)).unwrap();
    line.push('\n');
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    writer.write_all(line.as_bytes()).expect("send batch");
    // Let the response pile up against a closed window before draining.
    std::thread::sleep(Duration::from_millis(600));
    let mut reader = BufReader::new(stream);
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read");
    assert!(
        reply.len() > 1 << 20,
        "response must dwarf the socket buffers to force a partial write ({} bytes)",
        reply.len()
    );
    let response: Response = serde_json::from_str(reply.trim()).expect("resumed bytes intact");
    match response {
        Response::PlanBatch { results, .. } => {
            assert_eq!(results.len(), 4096);
            assert!(results.iter().all(BatchItem::is_ok));
            match &results[0] {
                BatchItem::Plan { plan, .. } => assert_eq!(plan.digest, offline_first),
                other => panic!("{other:?}"),
            }
        }
        other => panic!("{other:?}"),
    }
    stop(handle, join);
}

/// A byte-drip peer (slowloris) never completes a line, so it never
/// refreshes its idle deadline: the reactor evicts it on schedule even
/// though bytes keep arriving.
#[test]
fn byte_drip_peer_is_evicted_at_the_idle_deadline() {
    let (addr, handle, join) = spawn_server(ServerConfig {
        read_timeout: Duration::from_millis(400),
        ..ServerConfig::default()
    });
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let started = Instant::now();
    let drip = stream.try_clone().expect("clone");
    let dripper = std::thread::spawn(move || {
        let mut drip = drip;
        // One request byte every 50 ms, never a newline.
        for _ in 0..100 {
            if drip.write_all(b"{").is_err() {
                break; // server already hung up
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    });
    let mut buf = [0u8; 16];
    let read = stream.read(&mut buf);
    let elapsed = started.elapsed();
    // EOF and a reset both mean "closed without a reply": the server may
    // evict while a drip byte sits unread in its socket, and Linux
    // answers a close with unread input by sending RST. A reply byte, a
    // read timeout (no eviction) or any other error fails.
    match read {
        Ok(0) => {}
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
        Ok(n) => panic!("eviction closes without a reply, got {n} bytes"),
        Err(e) => panic!("read until server close: {e}"),
    }
    assert!(
        elapsed >= Duration::from_millis(300) && elapsed < Duration::from_secs(5),
        "evicted at the idle deadline, not sooner or much later: {elapsed:?}"
    );
    drop(stream);
    dripper.join().unwrap();
    stop(handle, join);
}

/// 512 concurrent connections, each planning one of four distributions:
/// every digest must be bit-identical to the offline facade's plan.
#[test]
fn five_hundred_twelve_connections_get_offline_identical_digests() {
    let (addr, handle, join) = spawn_server(ServerConfig {
        workers: 4,
        admission: AdmissionConfig {
            high_watermark: 2048,
            low_watermark: 512,
        },
        read_timeout: Duration::from_secs(30),
        ..ServerConfig::default()
    });
    let dists = [
        DistSpec::Exponential { lambda: 1.0 },
        DistSpec::LogNormal {
            mu: 3.0,
            sigma: 0.5,
        },
        DistSpec::Weibull {
            lambda: 1.0,
            kappa: 0.5,
        },
        DistSpec::Gamma {
            alpha: 2.0,
            beta: 1.0,
        },
    ];
    let offline: Vec<String> = dists
        .iter()
        .map(|spec| {
            Planner::builder()
                .distribution(spec.clone())
                .solver(fast_dp())
                .build()
                .unwrap()
                .plan()
                .unwrap()
                .digest
        })
        .collect();
    let clients: Vec<_> = (0..512)
        .map(|i| {
            let spec = dists[i % dists.len()].clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                match client
                    .call(&Request::plan_with(spec, fast_dp()))
                    .unwrap_or_else(|e| panic!("conn {i}: {e}"))
                {
                    Response::Plan { plan, .. } => plan.digest,
                    other => panic!("conn {i}: {other:?}"),
                }
            })
        })
        .collect();
    for (i, c) in clients.into_iter().enumerate() {
        let digest = c.join().expect("client thread");
        assert_eq!(digest, offline[i % offline.len()], "conn {i}");
    }
    stop(handle, join);
}

/// The version interop matrix: the server answers in the version each
/// client speaks, bare frames default to v1, and v2-only ops are typed
/// rejections below v2.
#[test]
fn v1_v2_interop_matrix() {
    let (addr, handle, join) = spawn_server(ServerConfig::default());
    let plan_v1 = r#"{"op":"plan","distribution":{"family":"exponential","lambda":1.0}}"#;
    let batch_items = r#""items":[{"distribution":{"family":"exponential","lambda":1.0}}]"#;
    // (request line, expected response version, expects-error kind)
    let matrix: Vec<(String, u32, Option<ErrorKind>)> = vec![
        // Bare frames default to v1 and are answered at v1.
        (r#"{"op":"ping"}"#.to_string(), 1, None),
        (plan_v1.to_string(), 1, None),
        // Explicit v1 and v2 clients each get their own version back.
        (r#"{"op":"ping","v":1}"#.to_string(), 1, None),
        (r#"{"op":"ping","v":2}"#.to_string(), 2, None),
        (
            plan_v1.replace(r#""op":"plan","#, r#""op":"plan","v":2,"#),
            2,
            None,
        ),
        // The batch op exists only at v2.
        (
            format!(r#"{{"op":"plan_batch","v":2,{batch_items}}}"#),
            2,
            None,
        ),
        (
            format!(r#"{{"op":"plan_batch",{batch_items}}}"#),
            1,
            Some(ErrorKind::UnsupportedVersion),
        ),
        (
            format!(r#"{{"op":"plan_batch","v":1,{batch_items}}}"#),
            1,
            Some(ErrorKind::UnsupportedVersion),
        ),
        // Versions beyond the range are typed rejections.
        (
            r#"{"op":"ping","v":3}"#.to_string(),
            1,
            Some(ErrorKind::UnsupportedVersion),
        ),
    ];
    for (line, want_v, want_error) in matrix {
        let reply = raw_round_trip(addr, &line);
        let response: Response =
            serde_json::from_str(reply.trim()).unwrap_or_else(|e| panic!("{line}: {e}"));
        assert_eq!(response.version(), want_v, "{line} -> {reply}");
        match want_error {
            None => assert!(
                !matches!(response, Response::Error { .. }),
                "{line} -> {reply}"
            ),
            Some(kind) => match response {
                Response::Error { kind: got, .. } => assert_eq!(got, kind, "{line}"),
                other => panic!("{line}: expected {kind:?}, got {other:?}"),
            },
        }
    }
    stop(handle, join);
}

/// `plan_batch` round trip with mixed outcomes: good items plan, the bad
/// item fails alone, order is preserved, and a repeat batch is served
/// from cache with digests matching the offline solver bit-for-bit.
#[test]
fn plan_batch_round_trips_mixed_ok_and_error_items() {
    let (addr, handle, join) = spawn_server(ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    let items = vec![
        PlanRequest::new(DistSpec::Exponential { lambda: 1.0 }).with_solver(fast_dp()),
        PlanRequest::new(DistSpec::Exponential { lambda: -1.0 }).with_solver(fast_dp()),
        PlanRequest::new(DistSpec::LogNormal {
            mu: 3.0,
            sigma: 0.5,
        })
        .with_solver(fast_dp()),
    ];
    let offline: Vec<Option<String>> = items
        .iter()
        .map(|item| item.planner().ok().map(|p| p.plan().unwrap().digest))
        .collect();

    let results = client.plan_batch(items.clone()).expect("batch call");
    assert_eq!(results.len(), 3);
    for (i, (item, want)) in results.iter().zip(&offline).enumerate() {
        match (item, want) {
            (BatchItem::Plan { plan, provenance }, Some(digest)) => {
                assert_eq!(&plan.digest, digest, "item {i}");
                assert!(!provenance.cached, "item {i}: first batch must compute");
            }
            (BatchItem::Error { kind, .. }, None) => {
                assert_eq!(*kind, ErrorKind::InvalidDistribution, "item {i}");
            }
            (got, want) => panic!("item {i}: got {got:?}, want ok={}", want.is_some()),
        }
    }

    // The same batch again: good items now come from the plan cache.
    let again = client.plan_batch(items).expect("repeat batch");
    for (i, item) in again.iter().enumerate() {
        if let BatchItem::Plan { plan, provenance } = item {
            assert!(provenance.cached, "item {i}: repeat must hit cache");
            assert_eq!(Some(&plan.digest), offline[i].as_ref(), "item {i}");
        }
    }
    stop(handle, join);
}
