//! Overload-behavior tests: admission shedding, what a batch frame costs
//! in the server's own counters, deadlines, single-flight coalescing,
//! idempotent shutdown, typed client errors, and the resilient client.
//!
//! Like `serve_integration.rs`, tests asserting on the process-global
//! metrics registry serialize on [`registry_lock`]; so does every test
//! that runs a server, because any request moves the request counters.
//! Ordering comes from construction (barriers, one request in flight per
//! connection, an injected dispatch delay), never from a sleep.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener};
use std::ops::Range;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use reservation_strategies::plan_digest;
use rsj_core::{DiscretizedDp, SolverSpec, Strategy};
use rsj_dist::{DiscretizationScheme, DistSpec};
use rsj_serve::{
    encode, AdmissionConfig, BatchItem, ChaosPolicy, Client, ClientError, ErrorKind, PlanRequest,
    Request, ResilientClient, Response, RetryPolicy, ServerConfig,
};

mod common;
use common::{counter_value, registry_lock, spawn_server};

/// A brute-force Monte-Carlo plan slow enough (~2s in debug builds,
/// ~0.4s in release) to hold a worker while the test probes the server's
/// behavior under load; `seed` picks the cache key.
fn slow_item(seed: u64) -> PlanRequest {
    PlanRequest::new(DistSpec::LogNormal {
        mu: 3.0,
        sigma: 0.5,
    })
    .with_solver(SolverSpec::BruteForce {
        grid: 2000,
        samples: 20_000,
        analytic: false,
        seed,
    })
}

fn slow_plan() -> Request {
    let item = slow_item(11);
    Request::plan_with(item.distribution, item.solver)
}

/// A cheap DP plan of its own for each index `i`: every index is a
/// distinct cache key.
fn cheap_item(i: usize) -> PlanRequest {
    PlanRequest::new(DistSpec::Exponential {
        lambda: 1.0 + 0.01 * i as f64,
    })
    .with_solver(SolverSpec::Dp {
        scheme: DiscretizationScheme::EqualProbability,
        n: 50,
        epsilon: 1e-6,
        monotone: true,
    })
}

fn cheap_plan(i: usize) -> Request {
    let item = cheap_item(i);
    Request::plan_with(item.distribution, item.solver)
}

/// [`cheap_item`]'s plan digest from the offline facade.
fn offline_digest(i: usize) -> String {
    cheap_item(i)
        .planner()
        .expect("planner")
        .plan()
        .expect("offline plan")
        .digest
}

/// The digest and `(cached, coalesced)` provenance of a batch slot.
fn slot(item: &BatchItem) -> (String, bool, bool) {
    match item {
        BatchItem::Plan { plan, provenance } => {
            (plan.digest.clone(), provenance.cached, provenance.coalesced)
        }
        other => panic!("expected a plan item, got {other:?}"),
    }
}

fn error_kind(response: &Response) -> Option<ErrorKind> {
    match response {
        Response::Error { kind, .. } => Some(*kind),
        _ => None,
    }
}

/// Opens one connection per request, then releases every request at once
/// through a barrier: all connections are open before any request is
/// sent, so the whole burst is in flight together.
fn burst(addr: SocketAddr, requests: Vec<Request>) -> Vec<Result<Response, ClientError>> {
    let start = Arc::new(Barrier::new(requests.len()));
    let threads: Vec<_> = requests
        .into_iter()
        .map(|request| {
            let mut client = Client::connect(addr).expect("connect");
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                client.call(&request)
            })
        })
        .collect();
    threads
        .into_iter()
        .map(|t| t.join().expect("burst thread"))
        .collect()
}

#[test]
fn bursts_within_the_high_watermark_are_served_and_past_it_get_typed_sheds() {
    let _guard = registry_lock();
    // One worker, a queue whose high watermark is H,
    // and a chaos delay on every dispatch: the worker holds each request
    // for 150 ms whatever the solver or the build profile.
    const H: usize = 4;
    let (addr, handle, join) = spawn_server(ServerConfig {
        workers: 1,
        admission: AdmissionConfig {
            high_watermark: H,
            low_watermark: 0,
        },
        chaos: Some(ChaosPolicy {
            delay_every: 1,
            delay_ms: 150,
            ..ChaosPolicy::quiet(0)
        }),
        ..ServerConfig::default()
    });
    let mut probe = Client::connect(addr).expect("connect probe");
    let shed_before = counter_value(&probe.metrics().expect("metrics"), "rsj_serve_shed_total");

    // Every reply is typed: a plan bit-identical to the offline solver, or
    // an `overloaded` line the reactor writes without a worker. Returns
    // (served, shed).
    let run = |indices: Range<usize>| -> (usize, usize) {
        let replies = burst(addr, indices.clone().map(cheap_plan).collect());
        let mut shed = 0;
        for (i, reply) in indices.zip(&replies) {
            match reply {
                Ok(Response::Plan { plan, .. }) => {
                    assert_eq!(plan.digest, offline_digest(i), "request {i}")
                }
                Ok(response) => {
                    assert_eq!(
                        error_kind(response),
                        Some(ErrorKind::Overloaded),
                        "request {i}: {response:?}"
                    );
                    shed += 1;
                }
                Err(e) => {
                    panic!("request {i}: a shed must be a typed reply, not a transport error: {e}")
                }
            }
        }
        (replies.len() - shed, shed)
    };

    // Admission depth never exceeds the requests in flight: each of H
    // requests finds at most H − 1 queued ahead of it, below the
    // watermark, so none is shed.
    assert_eq!(run(0..H), (H, 0), "a burst of H = {H} must be served whole");

    // 4H in flight: the first H are admitted for the same reason, and
    // with the worker holding each for 150 ms the queue reaches H and the
    // rest are shed.
    let (served, shed) = run(H..5 * H);
    assert!(
        served >= H,
        "the first H of a burst are always admitted: {served}"
    );
    assert!(shed >= 1, "a burst of 4H = {} must be shed in part", 4 * H);

    let metrics = probe.metrics().expect("metrics");
    assert!(
        counter_value(&metrics, "rsj_serve_shed_total") - shed_before >= shed as u64,
        "the shed counter must record all {shed} fast-rejects:\n{metrics}"
    );

    handle.signal();
    drop(probe);
    join.join().expect("server thread").expect("clean exit");
}

/// `rsj_serve_requests_total`, `rsj_serve_queue_wait_seconds_count` and
/// `rsj_serve_solver_invocations_total`, read through one `metrics`
/// request, which counts itself in the first two.
fn request_counts(client: &mut Client) -> [u64; 3] {
    let metrics = client.metrics().expect("metrics");
    [
        "rsj_serve_requests_total",
        "rsj_serve_queue_wait_seconds_count",
        "rsj_serve_solver_invocations_total",
    ]
    .map(|name| counter_value(&metrics, name))
}

#[test]
fn a_batch_frame_is_one_request_and_one_solve_per_item() {
    let _guard = registry_lock();
    const K: usize = 32;
    let (addr, handle, join) = spawn_server(ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");

    // K singleton plans, every one a distinct cache miss.
    let before = request_counts(&mut client);
    for i in 0..K {
        match client.call(&cheap_plan(i)).expect("plan") {
            Response::Plan {
                plan, provenance, ..
            } => {
                assert!(!provenance.cached && !provenance.coalesced, "plan {i}");
                assert_eq!(plan.digest, offline_digest(i), "plan {i}");
            }
            other => panic!("plan {i}: expected a plan, got {other:?}"),
        }
    }
    let singles = request_counts(&mut client);

    // K more distinct misses in one `plan_batch` frame.
    let results = client
        .plan_batch((K..2 * K).map(cheap_item).collect())
        .expect("batch call");
    assert_eq!(results.len(), K);
    for (i, item) in (K..2 * K).zip(&results) {
        let (digest, cached, coalesced) = slot(item);
        assert!(!cached && !coalesced, "batch item {i}");
        assert_eq!(digest, offline_digest(i), "batch item {i}");
    }
    let batched = request_counts(&mut client);

    // The server's own counters: a singleton costs a request and a queue
    // crossing per plan, a frame costs one of each for all K items, and
    // both solve K times. Each `metrics` probe adds 1 to the first two.
    let delta = |a: [u64; 3], b: [u64; 3]| [b[0] - a[0], b[1] - a[1], b[2] - a[2]];
    let k = K as u64;
    assert_eq!(delta(before, singles), [k + 1, k + 1, k], "K singletons");
    assert_eq!(delta(singles, batched), [2, 2, k], "one K-item frame");

    handle.signal();
    drop(client);
    join.join().expect("server thread").expect("clean exit");
}

#[test]
fn deadlines_shed_at_dequeue_and_cancel_mid_solve() {
    let _guard = registry_lock();
    let (addr, handle, join) = spawn_server(ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");

    // An already-expired deadline is shed before the solver runs.
    let response = client.call(&slow_plan().with_deadline_ms(0)).expect("call");
    assert_eq!(error_kind(&response), Some(ErrorKind::DeadlineExceeded));

    // A deadline that fires mid-solve cancels the solver cooperatively:
    // the typed answer arrives in deadline time, not solve time.
    let started = Instant::now();
    let response = client
        .call(&slow_plan().with_deadline_ms(150))
        .expect("call");
    assert_eq!(
        error_kind(&response),
        Some(ErrorKind::DeadlineExceeded),
        "{response:?}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "cancellation must interrupt the solve, took {:?}",
        started.elapsed()
    );

    // A generous deadline changes nothing about the result: bit-identical
    // to the offline solver.
    let fast = Request::plan_with(
        DistSpec::LogNormal {
            mu: 3.0,
            sigma: 0.5,
        },
        SolverSpec::Dp {
            scheme: DiscretizationScheme::EqualProbability,
            n: 150,
            epsilon: 1e-6,
            monotone: true,
        },
    );
    let response = client
        .call(&fast.clone().with_deadline_ms(60_000))
        .expect("call");
    let plan = match response {
        Response::Plan { plan, .. } => plan,
        other => panic!("expected plan, got {other:?}"),
    };
    let offline = DiscretizedDp::new(DiscretizationScheme::EqualProbability, 150, 1e-6)
        .unwrap()
        .sequence(
            DistSpec::LogNormal {
                mu: 3.0,
                sigma: 0.5,
            }
            .build()
            .unwrap()
            .as_ref(),
            &rsj_core::CostModel::reservation_only(),
        )
        .unwrap();
    assert_eq!(plan.digest, plan_digest(offline.times().iter().copied()));

    let metrics = client.metrics().expect("metrics");
    assert!(
        counter_value(&metrics, "rsj_serve_deadline_exceeded_total") >= 2,
        "{metrics}"
    );

    handle.signal();
    drop(client);
    join.join().expect("server thread").expect("clean exit");
}

#[test]
fn batch_deadlines_shed_the_frame_at_dequeue_and_the_unrun_items_mid_frame() {
    let _guard = registry_lock();
    let (addr, handle, join) = spawn_server(ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    // Anchor later deadlines at line arrival, not at accept time.
    client.ping().expect("ping");

    // A frame whose deadline lapsed before dequeue is shed whole.
    let response = client
        .call(&Request::plan_batch(vec![slow_item(21)]).with_deadline_ms(0))
        .expect("call");
    assert_eq!(error_kind(&response), Some(ErrorKind::DeadlineExceeded));

    // A deadline that lapses mid-frame fails the item it cancels and
    // every item not yet run, one slot each; whatever ran before it is a
    // plan bit-identical to the offline solver. Items are visited in
    // group order, so which slots those are is not asserted.
    let fast = |lambda: f64| {
        PlanRequest::new(DistSpec::Exponential { lambda }).with_solver(SolverSpec::Dp {
            scheme: DiscretizationScheme::EqualProbability,
            n: 150,
            epsilon: 1e-6,
            monotone: true,
        })
    };
    let items = vec![
        fast(1.3),
        slow_item(21),
        fast(2.6),
        slow_item(22),
        fast(3.9),
    ];
    let response = client
        .call(&Request::plan_batch(items.clone()).with_deadline_ms(200))
        .expect("call");
    let Response::PlanBatch { results, .. } = response else {
        panic!("expected per-item results, got {response:?}");
    };
    assert_eq!(results.len(), items.len());
    let mut expired = 0;
    for (i, (item, result)) in items.iter().zip(&results).enumerate() {
        match result {
            BatchItem::Plan { plan, .. } => {
                let offline = item.planner().unwrap().plan().unwrap();
                assert_eq!(plan.digest, offline.digest, "slot {i}");
            }
            BatchItem::Error { kind, .. } => {
                assert_eq!(*kind, ErrorKind::DeadlineExceeded, "slot {i}: {result:?}");
                expired += 1;
            }
        }
    }
    assert!(
        expired >= 1,
        "the deadline must fire mid-frame: {results:?}"
    );

    handle.signal();
    drop(client);
    join.join().expect("server thread").expect("clean exit");
}

#[test]
fn concurrent_identical_misses_coalesce_onto_one_solve() {
    let _guard = registry_lock();
    const CLIENTS: usize = 6;
    let (addr, handle, join) = spawn_server(ServerConfig {
        workers: CLIENTS,
        ..ServerConfig::default()
    });

    let mut probe = Client::connect(addr).expect("connect");
    let before = probe.metrics().expect("metrics");
    let solves_before = counter_value(&before, "rsj_serve_solver_invocations_total");
    let coalesced_before = counter_value(&before, "rsj_serve_singleflight_coalesced_total");
    let hits_before = counter_value(&before, "rsj_serve_cache_hits_total");

    // A parameterization unique to this test (so the cache starts cold),
    // slow enough that a barrier-released burst lands inside one flight.
    let request = Request::plan_with(
        DistSpec::LogNormal {
            mu: 2.53,
            sigma: 0.41,
        },
        SolverSpec::Dp {
            scheme: DiscretizationScheme::EqualProbability,
            n: 900,
            epsilon: 1e-7,
            monotone: true,
        },
    );
    let start = Arc::new(Barrier::new(CLIENTS));
    let burst: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let request = request.clone();
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                start.wait();
                match client
                    .call(&request)
                    .unwrap_or_else(|e| panic!("client {i}: {e}"))
                {
                    Response::Plan {
                        plan, provenance, ..
                    } => (plan.digest, provenance.cached, provenance.coalesced),
                    other => panic!("client {i}: expected plan, got {other:?}"),
                }
            })
        })
        .collect();
    let results: Vec<_> = burst.into_iter().map(|h| h.join().unwrap()).collect();

    // Everyone got the same bits, exactly one solver run happened, and
    // the other five were coalesced followers or late cache hits.
    let digest = &results[0].0;
    assert!(results.iter().all(|(d, _, _)| d == digest));
    let after = probe.metrics().expect("metrics");
    assert_eq!(
        counter_value(&after, "rsj_serve_solver_invocations_total"),
        solves_before + 1,
        "identical concurrent misses must share one solver invocation"
    );
    let coalesced =
        counter_value(&after, "rsj_serve_singleflight_coalesced_total") - coalesced_before;
    let hits = counter_value(&after, "rsj_serve_cache_hits_total") - hits_before;
    assert_eq!(
        coalesced + hits,
        (CLIENTS - 1) as u64,
        "every non-leader must be coalesced or cache-served:\n{after}"
    );
    assert_eq!(
        results
            .iter()
            .filter(|(_, cached, coalesced)| !cached && !coalesced)
            .count(),
        1,
        "exactly one response is the computed leader: {results:?}"
    );

    handle.signal();
    drop(probe);
    join.join().expect("server thread").expect("clean exit");
}

#[test]
fn identical_items_in_one_batch_solve_once() {
    let _guard = registry_lock();
    let (addr, handle, join) = spawn_server(ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    let before = counter_value(
        &client.metrics().expect("metrics"),
        "rsj_serve_solver_invocations_total",
    );

    // Parameterizations unique to this test, so every item misses.
    let dp = SolverSpec::Dp {
        scheme: DiscretizationScheme::EqualProbability,
        n: 300,
        epsilon: 1e-7,
        monotone: true,
    };
    let a = PlanRequest::new(DistSpec::LogNormal {
        mu: 2.17,
        sigma: 0.37,
    })
    .with_solver(dp.clone());
    let b = PlanRequest::new(DistSpec::LogNormal {
        mu: 1.93,
        sigma: 0.44,
    })
    .with_solver(dp);
    let results = client
        .plan_batch(vec![a.clone(), b, a])
        .expect("batch call");

    // The second A is answered by the first one's solve, not a new one.
    let after = counter_value(
        &client.metrics().expect("metrics"),
        "rsj_serve_solver_invocations_total",
    );
    assert_eq!(after, before + 2, "[A, B, A] must invoke the solver twice");
    let (first, second) = (slot(&results[0]), slot(&results[2]));
    assert_eq!(first.0, second.0, "identical items share one digest");
    assert_eq!(
        [first.1, second.1].iter().filter(|cached| **cached).count(),
        1,
        "one A is computed, the other served from the plan cache: {results:?}"
    );

    handle.signal();
    drop(client);
    join.join().expect("server thread").expect("clean exit");
}

#[test]
fn plans_and_batch_items_coalesce_onto_one_solve() {
    let _guard = registry_lock();
    const PER_OP: usize = 3;
    let (addr, handle, join) = spawn_server(ServerConfig {
        workers: 2 * PER_OP,
        ..ServerConfig::default()
    });

    let mut probe = Client::connect(addr).expect("connect");
    let before = probe.metrics().expect("metrics");
    let solves_before = counter_value(&before, "rsj_serve_solver_invocations_total");
    let coalesced_before = counter_value(&before, "rsj_serve_singleflight_coalesced_total");
    let hits_before = counter_value(&before, "rsj_serve_cache_hits_total");

    // One slow key, asked three times as a `plan` and three times as a
    // single-item `plan_batch`, all released together.
    let start = Arc::new(Barrier::new(2 * PER_OP));
    let burst: Vec<_> = (0..2 * PER_OP)
        .map(|i| {
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                start.wait();
                if i < PER_OP {
                    match client.call(&slow_plan()) {
                        Ok(Response::Plan {
                            plan, provenance, ..
                        }) => (plan.digest, provenance.cached, provenance.coalesced),
                        other => panic!("client {i}: expected plan, got {other:?}"),
                    }
                } else {
                    let results = client
                        .plan_batch(vec![slow_item(11)])
                        .unwrap_or_else(|e| panic!("client {i}: {e}"));
                    slot(&results[0])
                }
            })
        })
        .collect();
    let results: Vec<_> = burst.into_iter().map(|h| h.join().unwrap()).collect();

    let digest = &results[0].0;
    assert!(results.iter().all(|(d, _, _)| d == digest));
    let after = probe.metrics().expect("metrics");
    assert_eq!(
        counter_value(&after, "rsj_serve_solver_invocations_total"),
        solves_before + 1,
        "plans and batch items for one key must share one solver invocation"
    );
    let coalesced =
        counter_value(&after, "rsj_serve_singleflight_coalesced_total") - coalesced_before;
    let hits = counter_value(&after, "rsj_serve_cache_hits_total") - hits_before;
    assert_eq!(
        coalesced + hits,
        (2 * PER_OP - 1) as u64,
        "every non-leader must be coalesced or cache-served:\n{after}"
    );
    assert_eq!(
        results
            .iter()
            .filter(|(_, cached, coalesced)| !cached && !coalesced)
            .count(),
        1,
        "exactly one reply is the computed leader: {results:?}"
    );

    handle.signal();
    drop(probe);
    join.join().expect("server thread").expect("clean exit");
}

#[test]
fn shutdown_is_idempotent_and_safe_under_concurrency() {
    let _guard = registry_lock();
    const CLIENTS: usize = 4;
    let (addr, handle, join) = spawn_server(ServerConfig {
        workers: CLIENTS,
        ..ServerConfig::default()
    });

    // Connect everyone first and ping so each connection is owned by a
    // worker (a connect alone may still sit in the accept backlog, where
    // a racing shutdown would reset it), then race shutdown ops.
    let clients: Vec<Client> = (0..CLIENTS)
        .map(|_| {
            let mut client = Client::connect(addr).expect("connect");
            client.ping().expect("ping");
            client
        })
        .collect();
    let start = Arc::new(Barrier::new(CLIENTS));
    let racers: Vec<_> = clients
        .into_iter()
        .map(|mut client| {
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                client.shutdown()
            })
        })
        .collect();
    // Every racer must resolve cleanly: a served `shutting_down`, or the
    // connection closing under it because another racer's shutdown won
    // the race and the drain reaped this connection first. Anything else
    // (protocol garbage, a hang, an unexpected error) is a bug.
    let mut served = 0;
    for (i, racer) in racers.into_iter().enumerate() {
        match racer.join().expect("racer thread") {
            Ok(()) => served += 1,
            Err(ClientError::ConnectionClosed) => {}
            Err(ClientError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::ConnectionReset | std::io::ErrorKind::BrokenPipe
                ) => {}
            Err(e) => panic!("shutdown racer {i}: {e}"),
        }
    }
    assert!(served >= 1, "someone must have triggered the shutdown");

    // Racing handle signals are no-ops too.
    handle.signal();
    handle.signal();
    assert!(handle.is_signaled());

    join.join().expect("server thread").expect("clean exit");
}

#[test]
fn deeply_nested_lines_get_typed_errors_and_the_server_lives_on() {
    let _guard = registry_lock();
    // 200,000 unclosed brackets: far under the line cap, far over the
    // reader's nesting bound. Once in a field the decoder reads, once in
    // an unknown field it skips. Each must come back as a typed error,
    // not overflow the reactor thread's stack.
    let (addr, handle, join) = spawn_server(ServerConfig::default());
    let deep = "[".repeat(200_000);
    for line in [
        format!(r#"{{"op":"plan","distribution":{deep}"#),
        format!(r#"{{"op":"ping","x":{deep}"#),
    ] {
        let mut raw = std::net::TcpStream::connect(addr).expect("raw connect");
        raw.write_all(line.as_bytes()).expect("write");
        raw.write_all(b"\n").expect("write");
        let mut reply = String::new();
        BufReader::new(raw).read_line(&mut reply).expect("read");
        let response: Response = serde_json::from_str(reply.trim()).expect("parse");
        assert_eq!(
            error_kind(&response),
            Some(ErrorKind::MalformedRequest),
            "{response:?}"
        );
    }
    let mut client = Client::connect(addr).expect("a new connection");
    let pong = client.call(&Request::ping()).expect("ping");
    assert!(matches!(pong, Response::Pong { .. }), "{pong:?}");
    handle.signal();
    join.join().expect("server thread").expect("clean exit");
}

#[test]
fn client_reports_torn_and_oversized_responses_as_typed_errors() {
    // A scripted "server" that misbehaves per connection: close without a
    // byte, tear a response line, then send an endless unterminated one.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind stub");
    let addr = listener.local_addr().unwrap();
    let stub = std::thread::spawn(move || {
        // 1: read the request, then close without replying. (Reading
        // first matters: closing with unread data in the socket buffer
        // sends RST, and the client would see ConnectionReset instead of
        // a clean EOF.)
        let (stream, _) = listener.accept().expect("accept");
        let mut line = String::new();
        BufReader::new(stream)
            .read_line(&mut line)
            .expect("read request");
        // 2: reply with half a line, then close.
        let (mut stream, _) = listener.accept().expect("accept");
        let mut line = String::new();
        BufReader::new(stream.try_clone().unwrap())
            .read_line(&mut line)
            .expect("read request");
        stream.write_all(b"{\"status\":\"po").expect("torn write");
        drop(stream);
        // 3: reply with a huge line that never fits the client's cap.
        let (mut stream, _) = listener.accept().expect("accept");
        let mut line = String::new();
        BufReader::new(stream.try_clone().unwrap())
            .read_line(&mut line)
            .expect("read request");
        let huge = vec![b'x'; 1 << 16];
        stream.write_all(&huge).expect("huge write");
        stream.write_all(b"\n").expect("newline");
        drop(stream);
    });

    let mut client = Client::connect(addr).expect("connect 1");
    match client.call(&Request::ping()) {
        Err(ClientError::ConnectionClosed) => {}
        other => panic!("expected ConnectionClosed, got {other:?}"),
    }

    let mut client = Client::connect(addr).expect("connect 2");
    match client.call(&Request::ping()) {
        Err(ClientError::UnexpectedEof { received }) => {
            assert!(received > 0, "the torn bytes must be reported")
        }
        other => panic!("expected UnexpectedEof, got {other:?}"),
    }

    let mut client = Client::connect(addr).expect("connect 3");
    client.set_max_response_bytes(1024);
    match client.call(&Request::ping()) {
        Err(ClientError::ResponseTooLarge { limit }) => assert_eq!(limit, 1024),
        other => panic!("expected ResponseTooLarge, got {other:?}"),
    }

    stub.join().expect("stub thread");
}

#[test]
fn resilient_client_retries_transient_failures_to_success() {
    // A scripted server: two connections answer a typed `overloaded`
    // line, the third answers the request properly.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind stub");
    let addr = listener.local_addr().unwrap();
    let stub = std::thread::spawn(move || {
        for round in 0..3 {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut line = String::new();
            BufReader::new(stream.try_clone().unwrap())
                .read_line(&mut line)
                .expect("read request");
            let reply = if round < 2 {
                encode(&Response::error(ErrorKind::Overloaded, "try later")).unwrap()
            } else {
                encode(&Response::Pong {
                    v: rsj_serve::PROTOCOL_VERSION,
                })
                .unwrap()
            };
            stream.write_all(reply.as_bytes()).expect("write");
            stream.write_all(b"\n").expect("newline");
            drop(stream);
        }
    });

    let policy = RetryPolicy {
        max_attempts: 5,
        base_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(20),
        jitter_seed: 3,
    };
    let mut client = ResilientClient::new(addr.to_string(), policy);
    let response = client.call(&Request::ping()).expect("retried to success");
    assert!(matches!(response, Response::Pong { .. }), "{response:?}");
    assert_eq!(client.retries_spent(), 2, "two overloaded rounds retried");
    stub.join().expect("stub thread");
}
