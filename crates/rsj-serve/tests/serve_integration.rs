//! End-to-end tests: a real server on a loopback port, real TCP clients.
//!
//! The process-global metrics registry is shared by every test in this
//! binary, so every test serializes on [`registry_lock`]: some assert on
//! counter deltas, and the shutdown test waits on a histogram count.
//! Each test binds its own server on port 0.

use std::time::{Duration, Instant};

use reservation_strategies::plan_digest;
use rsj_core::{CostModel, DiscretizedDp, SolverSpec, Strategy};
use rsj_dist::{DiscretizationScheme, DistSpec};
use rsj_serve::{ChaosPolicy, Client, ErrorKind, Request, Response, ServerConfig};

mod common;
use common::{counter_value, fast_dp, registry_lock, spawn_server};

fn expect_plan(response: Response) -> (reservation_strategies::Plan, bool) {
    match response {
        Response::Plan {
            plan, provenance, ..
        } => (plan, provenance.cached),
        other => panic!("expected a plan, got {other:?}"),
    }
}

#[test]
fn all_table1_distributions_match_offline_solver() {
    let _guard = registry_lock();
    let (addr, handle, join) = spawn_server(ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    client.ping().expect("ping");

    let cost = CostModel::reservation_only();
    let offline = DiscretizedDp::new(DiscretizationScheme::EqualProbability, 150, 1e-6).unwrap();
    for (name, spec) in DistSpec::paper_table1() {
        let (plan, _) = expect_plan(
            client
                .call(&Request::plan_with(spec.clone(), fast_dp()))
                .unwrap_or_else(|e| panic!("{name}: {e}")),
        );
        let dist = spec.build().unwrap();
        let expected = offline.sequence(dist.as_ref(), &cost).unwrap();
        assert_eq!(plan.sequence, expected.times(), "{name}");
        assert_eq!(
            plan.digest,
            plan_digest(expected.times().iter().copied()),
            "{name}: served plan must be bit-identical to the offline DP"
        );
    }

    client.shutdown().expect("shutdown ack");
    drop(client);
    join.join().expect("server thread").expect("clean exit");
    assert!(handle.is_signaled());
}

#[test]
fn concurrent_clients_get_bit_identical_plans() {
    let _guard = registry_lock();
    let (addr, _handle, join) = spawn_server(ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    });

    // Offline ground truth for both solver families.
    let cost = CostModel::reservation_only();
    let spec = DistSpec::LogNormal {
        mu: 3.0,
        sigma: 0.5,
    };
    let dist = spec.build().unwrap();
    let brute = SolverSpec::BruteForce {
        grid: 200,
        samples: 200,
        analytic: true,
        seed: 7,
    };
    let dp_offline = DiscretizedDp::new(DiscretizationScheme::EqualProbability, 150, 1e-6)
        .unwrap()
        .sequence(dist.as_ref(), &cost)
        .unwrap();
    let brute_offline = brute
        .build()
        .unwrap()
        .sequence(dist.as_ref(), &cost)
        .unwrap();
    let dp_digest = plan_digest(dp_offline.times().iter().copied());
    let brute_digest = plan_digest(brute_offline.times().iter().copied());

    let clients: Vec<_> = (0..8)
        .map(|i| {
            let spec = spec.clone();
            let brute = brute.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let (dp_plan, _) = expect_plan(
                    client
                        .call(&Request::plan_with(spec.clone(), fast_dp()))
                        .unwrap_or_else(|e| panic!("client {i} dp: {e}")),
                );
                let (brute_plan, _) = expect_plan(
                    client
                        .call(&Request::plan_with(spec, brute))
                        .unwrap_or_else(|e| panic!("client {i} brute: {e}")),
                );
                (dp_plan, brute_plan)
            })
        })
        .collect();
    for c in clients {
        let (dp_plan, brute_plan) = c.join().expect("client thread");
        assert_eq!(dp_plan.digest, dp_digest);
        assert_eq!(dp_plan.sequence, dp_offline.times());
        assert_eq!(brute_plan.digest, brute_digest);
        assert_eq!(brute_plan.sequence, brute_offline.times());
    }

    let mut client = Client::connect(addr).expect("connect");
    client.shutdown().expect("shutdown ack");
    drop(client);
    join.join().expect("server thread").expect("clean exit");
}

#[test]
fn repeat_request_hits_cache_without_reinvoking_solver() {
    let _guard = registry_lock();
    let (addr, _handle, join) = spawn_server(ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");

    // A parameterization no other test uses, so the first call must miss.
    let request = Request::plan_with(
        DistSpec::LogNormal {
            mu: 1.71,
            sigma: 0.29,
        },
        fast_dp(),
    );
    let (first, first_cached) = expect_plan(client.call(&request).expect("first call"));
    assert!(!first_cached, "first request must be computed");

    let before = client.metrics().expect("metrics");
    let hits_before = counter_value(&before, "rsj_serve_cache_hits_total");
    let solves_before = counter_value(&before, "rsj_serve_solver_invocations_total");

    let (second, second_cached) = expect_plan(client.call(&request).expect("second call"));
    assert!(second_cached, "identical request must be served from cache");
    assert_eq!(first, second, "cache hit must be byte-identical");

    let after = client.metrics().expect("metrics");
    assert_eq!(
        counter_value(&after, "rsj_serve_cache_hits_total"),
        hits_before + 1,
        "cache-hit counter must increment"
    );
    assert_eq!(
        counter_value(&after, "rsj_serve_solver_invocations_total"),
        solves_before,
        "a cache hit must not invoke the solver"
    );

    client.shutdown().expect("shutdown ack");
    drop(client);
    join.join().expect("server thread").expect("clean exit");
}

#[test]
fn malformed_and_invalid_requests_get_typed_errors() {
    let _guard = registry_lock();
    let (addr, handle, join) = spawn_server(ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");

    // Not JSON: the connection survives and the error is typed.
    use std::io::Write;
    // Reach under the helper to write a raw garbage line.
    let mut raw = std::net::TcpStream::connect(addr).expect("raw connect");
    raw.write_all(b"this is not json\n").expect("write");
    let mut reader = std::io::BufReader::new(raw.try_clone().unwrap());
    let mut line = String::new();
    std::io::BufRead::read_line(&mut reader, &mut line).expect("read");
    let response: Response = serde_json::from_str(line.trim()).expect("parse");
    assert!(matches!(
        response,
        Response::Error {
            kind: ErrorKind::MalformedRequest,
            ..
        }
    ));
    // Same connection still serves valid requests afterwards.
    raw.write_all(b"{\"op\":\"ping\"}\n").expect("write");
    line.clear();
    std::io::BufRead::read_line(&mut reader, &mut line).expect("read");
    let response: Response = serde_json::from_str(line.trim()).expect("parse");
    assert!(matches!(response, Response::Pong { .. }));
    drop(reader);
    drop(raw);

    // Invalid distribution parameters → invalid_distribution.
    let response = client
        .call(&Request::plan(DistSpec::Exponential { lambda: -1.0 }))
        .expect("call");
    assert!(
        matches!(
            response,
            Response::Error {
                kind: ErrorKind::InvalidDistribution,
                ..
            }
        ),
        "{response:?}"
    );

    // Invalid cost rates → invalid_cost.
    let response = client
        .call(&Request::Plan {
            v: rsj_serve::PROTOCOL_VERSION,
            distribution: DistSpec::Exponential { lambda: 1.0 },
            cost: Some(CostModel {
                alpha: 0.0,
                beta: 0.0,
                gamma: 0.0,
            }),
            solver: SolverSpec::MeanByMean,
            seed: None,
            simulate: None,
            deadline_ms: None,
            trace_id: None,
            trace: false,
        })
        .expect("call");
    assert!(
        matches!(
            response,
            Response::Error {
                kind: ErrorKind::InvalidCost,
                ..
            }
        ),
        "{response:?}"
    );

    // Unsupported protocol version → unsupported_version.
    let response = client.call(&Request::Ping { v: 99 }).expect("call");
    assert!(
        matches!(
            response,
            Response::Error {
                kind: ErrorKind::UnsupportedVersion,
                ..
            }
        ),
        "{response:?}"
    );

    handle.signal();
    join.join().expect("server thread").expect("clean exit");
}

#[test]
fn per_connection_limits_are_enforced() {
    let _guard = registry_lock();
    let (addr, handle, join) = spawn_server(ServerConfig {
        max_requests_per_conn: 2,
        max_line_bytes: 512,
        ..ServerConfig::default()
    });

    // Request limit: the third request on one connection is refused and
    // the connection closed.
    let mut client = Client::connect(addr).expect("connect");
    client.ping().expect("ping 1");
    client.ping().expect("ping 2");
    let response = client.call(&Request::ping()).expect("call");
    assert!(
        matches!(
            response,
            Response::Error {
                kind: ErrorKind::TooManyRequests,
                ..
            }
        ),
        "{response:?}"
    );
    assert!(client.ping().is_err(), "connection must be closed");

    // Line limit: an oversized line is refused and the connection closed.
    let mut client = Client::connect(addr).expect("connect");
    use std::io::Write;
    let mut raw = std::net::TcpStream::connect(addr).expect("raw connect");
    let oversized = format!("{}\n", "x".repeat(1024));
    raw.write_all(oversized.as_bytes()).expect("write");
    let mut reader = std::io::BufReader::new(raw);
    let mut line = String::new();
    std::io::BufRead::read_line(&mut reader, &mut line).expect("read");
    let response: Response = serde_json::from_str(line.trim()).expect("parse");
    assert!(
        matches!(
            response,
            Response::Error {
                kind: ErrorKind::RequestTooLarge,
                ..
            }
        ),
        "{response:?}"
    );

    client.ping().expect("fresh connection still works");
    handle.signal();
    drop(client);
    join.join().expect("server thread").expect("clean exit");
}

/// Requests dequeued by a worker so far, process-wide: the worker observes
/// `rsj_serve_queue_wait_seconds` once per request, before it dispatches.
fn dequeued_requests() -> u64 {
    rsj_obs::global_registry()
        .histogram("rsj_serve_queue_wait_seconds")
        .snapshot()
        .count()
}

#[test]
fn shutdown_drains_in_flight_requests() {
    let _guard = registry_lock();
    // An injected dispatch delay holds every request in its worker for
    // 300 ms after the dequeue, whatever the solver or the build profile.
    let (addr, handle, join) = spawn_server(ServerConfig {
        workers: 2,
        read_timeout: Duration::from_secs(2),
        chaos: Some(ChaosPolicy {
            delay_every: 1,
            delay_ms: 300,
            ..ChaosPolicy::quiet(0)
        }),
        ..ServerConfig::default()
    });
    let dist = DistSpec::LogNormal {
        mu: 3.0,
        sigma: 0.5,
    };
    let request = Request::plan_with(dist.clone(), fast_dp());
    let dequeued_before = dequeued_requests();
    let in_flight = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect");
        client
            .call(&request)
            .expect("in-flight request must be answered")
    });

    // Signal only once a worker holds the request: it has left the
    // admission queue, and the dispatch delay keeps it in flight.
    let deadline = Instant::now() + Duration::from_secs(10);
    while dequeued_requests() == dequeued_before {
        assert!(Instant::now() < deadline, "the request was never dequeued");
        std::thread::yield_now();
    }
    handle.signal();

    let (plan, _) = expect_plan(in_flight.join().expect("client thread"));
    let offline = DiscretizedDp::new(DiscretizationScheme::EqualProbability, 150, 1e-6)
        .unwrap()
        .sequence(
            dist.build().unwrap().as_ref(),
            &CostModel::reservation_only(),
        )
        .unwrap();
    assert_eq!(
        plan.digest,
        plan_digest(offline.times().iter().copied()),
        "the drained plan must be bit-identical to the offline DP"
    );
    join.join().expect("server thread").expect("clean exit");

    // The drained server no longer accepts work.
    assert!(
        Client::connect(addr)
            .map(|mut c| c.ping())
            .map_or(true, |r| r.is_err()),
        "server must be gone after drain"
    );
}

fn gauge_value(prometheus: &str, name: &str) -> f64 {
    assert!(
        prometheus.contains(&format!("# TYPE {name} gauge\n")),
        "missing gauge {name}"
    );
    prometheus
        .lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .map(|v| v.trim().parse().expect("gauge value"))
        .expect("gauge sample")
}

#[test]
fn metrics_publish_eval_cache_gauges() {
    let _guard = registry_lock();
    let (addr, handle, join) = spawn_server(ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");

    // A law no other test uses, so its eval table is built cold.
    let request = Request::plan_with(
        DistSpec::LogNormal {
            mu: 2.17,
            sigma: 0.61,
        },
        fast_dp(),
    );
    expect_plan(client.call(&request).expect("plan"));

    let prometheus = client.metrics().expect("metrics");
    assert!(gauge_value(&prometheus, "rsj_dist_eval_cache_misses") >= 1.0);
    assert!(gauge_value(&prometheus, "rsj_dist_eval_cache_entries") >= 1.0);
    assert!(gauge_value(&prometheus, "rsj_dist_eval_cache_bytes") > 0.0);
    assert!(gauge_value(&prometheus, "rsj_dist_eval_cache_build_seconds") > 0.0);
    for name in ["rsj_dist_eval_cache_hits", "rsj_dist_eval_cache_evictions"] {
        assert!(gauge_value(&prometheus, name) >= 0.0);
    }

    handle.signal();
    drop(client);
    join.join().expect("server thread").expect("clean exit");
}

#[test]
fn metrics_publish_queue_and_cache_gauges_at_scrape() {
    let _guard = registry_lock();
    let (addr, handle, join) = spawn_server(ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    for mu in [2.23, 2.29] {
        let request = Request::plan_with(DistSpec::LogNormal { mu, sigma: 0.61 }, fast_dp());
        expect_plan(client.call(&request).expect("plan"));
    }

    // Read from the server's state by the scrape itself: the plan cache
    // holds the two plans, and nothing else is queued.
    let prometheus = client.metrics().expect("metrics");
    assert_eq!(gauge_value(&prometheus, "rsj_serve_cache_entries"), 2.0);
    assert_eq!(gauge_value(&prometheus, "rsj_serve_queue_depth"), 0.0);

    handle.signal();
    drop(client);
    join.join().expect("server thread").expect("clean exit");
}

#[test]
fn simulate_on_request_attaches_batch_stats() {
    let _guard = registry_lock();
    let (addr, handle, join) = spawn_server(ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");

    let response = client
        .call(&Request::Plan {
            v: rsj_serve::PROTOCOL_VERSION,
            distribution: DistSpec::Exponential { lambda: 1.0 },
            cost: None,
            solver: SolverSpec::MeanByMean,
            seed: None,
            simulate: Some(reservation_strategies::SimulateOptions { jobs: 64, seed: 9 }),
            deadline_ms: None,
            trace_id: None,
            trace: false,
        })
        .expect("call");
    let (plan, _) = expect_plan(response);
    let stats = plan.simulation.expect("simulation attached");
    assert!(stats.mean_cost.is_finite() && stats.mean_cost > 0.0);

    // Offline replay must agree exactly (same seed, deterministic pool).
    let dist = DistSpec::Exponential { lambda: 1.0 }.build().unwrap();
    let cost = CostModel::reservation_only();
    let seq = rsj_core::MeanByMean::default()
        .sequence(dist.as_ref(), &cost)
        .unwrap();
    let offline = rsj_sim::run_batch_seeded(
        &seq,
        dist.as_ref(),
        &cost,
        64,
        9,
        &rsj_par::Parallelism::serial(),
    )
    .unwrap();
    assert_eq!(stats, offline);

    handle.signal();
    drop(client);
    join.join().expect("server thread").expect("clean exit");
}
