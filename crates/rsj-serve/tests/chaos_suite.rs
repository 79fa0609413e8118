//! Seed-reproducible chaos suite: a fixed [`ChaosPolicy`] drives worker
//! panics and dispatch delays inside the server plus connection faults in
//! a [`ChaosProxy`] in front of it, while a deterministic serial client
//! workload runs through the proxy.
//!
//! Because every injection decision is a pure function of
//! `(seed, stream, index)` and connection ids are assigned in accept
//! order, the test can compute an exact per-connection oracle: which
//! connections must fail (panic / drop / truncate) and which must succeed
//! with a plan bit-identical to the offline solver. The same schedule
//! then runs under a [`ResilientClient`], whose retries must recover
//! requests the plain client loses, again bit-identically.

use std::net::SocketAddr;
use std::time::Duration;

use reservation_strategies::plan_digest;
use rsj_core::{CostModel, DiscretizedDp, SolverSpec, Strategy};
use rsj_dist::{DiscretizationScheme, DistSpec};
use rsj_serve::chaos::ConnFault;
use rsj_serve::{
    ChaosPolicy, ChaosProxy, Client, ClientError, Request, ResilientClient, Response, RetryPolicy,
    Server, ServerConfig,
};

/// Serial connections per suite run; each sends exactly one plan request.
const CONNS: u64 = 24;

fn policy() -> ChaosPolicy {
    ChaosPolicy {
        seed: 1,
        worker_panic_every: 5,
        delay_every: 4,
        delay_ms: 25,
        drop_conn_every: 6,
        stall_every: 5,
        stall_ms: 100,
        partial_write_every: 7,
    }
}

/// The request served on connection `conn` — a small rotating set so the
/// suite exercises cold solves and cache hits alike.
fn request_for(conn: u64) -> (DistSpec, SolverSpec) {
    let dists = [
        DistSpec::LogNormal {
            mu: 3.0,
            sigma: 0.5,
        },
        DistSpec::LogNormal {
            mu: 2.0,
            sigma: 0.8,
        },
        DistSpec::LogNormal {
            mu: 1.5,
            sigma: 0.3,
        },
    ];
    let solver = SolverSpec::Dp {
        scheme: DiscretizationScheme::EqualProbability,
        n: 150,
        epsilon: 1e-6,
        monotone: true,
    };
    (dists[(conn % 3) as usize].clone(), solver)
}

fn offline_digest(dist: &DistSpec) -> String {
    let sequence = DiscretizedDp::new(DiscretizationScheme::EqualProbability, 150, 1e-6)
        .unwrap()
        .sequence(
            dist.clone().build().unwrap().as_ref(),
            &CostModel::reservation_only(),
        )
        .unwrap();
    plan_digest(sequence.times().iter().copied())
}

/// What one connection observed, compressed to the deterministic part.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Outcome {
    /// A plan response with this digest.
    Plan(String),
    /// A typed error response of this kind.
    ServerError(String),
    /// A transport-level failure (torn line, reset, clean close, …).
    Fault,
}

/// The oracle: does the schedule doom connection `conn`?
fn must_fail(policy: &ChaosPolicy, conn: u64) -> bool {
    policy.worker_panics(conn, 0)
        || matches!(
            policy.conn_fault(conn),
            Some(ConnFault::DropAfter(_)) | Some(ConnFault::TruncateFirstChunk)
        )
}

/// Boots a chaotic server and a chaos proxy in front of it, runs
/// `drive(proxy_addr, server_addr)`, then tears both down.
fn with_chaos<T>(drive: impl FnOnce(SocketAddr, SocketAddr) -> T) -> T {
    let server = Server::bind(ServerConfig {
        workers: 2,
        chaos: Some(policy()),
        ..ServerConfig::default()
    })
    .expect("bind server");
    let server_addr = server.local_addr();
    let shutdown = server.shutdown_handle();
    let server_join = std::thread::spawn(move || server.run());

    let proxy = ChaosProxy::bind(server_addr, policy()).expect("bind proxy");
    let proxy_addr = proxy.local_addr();
    let proxy_stop = proxy.stop_handle();
    let proxy_join = std::thread::spawn(move || proxy.run());

    let result = drive(proxy_addr, server_addr);

    shutdown.signal();
    proxy_stop.stop();
    server_join
        .join()
        .expect("server thread")
        .expect("clean server exit");
    proxy_join
        .join()
        .expect("proxy thread")
        .expect("clean proxy exit");
    result
}

/// The serial workload, one connection per request, through the proxy.
fn run_suite() -> Vec<Outcome> {
    with_chaos(|proxy_addr, server_addr| {
        let outcomes = (0..CONNS)
            .map(|conn| {
                let (dist, solver) = request_for(conn);
                let request = Request::plan_with(dist, solver);
                let client = match Client::connect(proxy_addr) {
                    Ok(c) => c,
                    Err(_) => return Outcome::Fault,
                };
                client
                    .set_timeout(Some(Duration::from_secs(5)))
                    .expect("set timeout");
                let mut client = client;
                match client.call(&request) {
                    Ok(Response::Plan { plan, .. }) => Outcome::Plan(plan.digest),
                    Ok(Response::Error { kind, .. }) => Outcome::ServerError(kind.to_string()),
                    Ok(other) => panic!("conn {conn}: unexpected response {other:?}"),
                    Err(_) => Outcome::Fault,
                }
            })
            .collect();

        // The pool must have survived every injected panic: a fresh direct
        // connection (skipping the proxy) still gets served. The server's
        // chaos schedule keeps running for these conn ids, so tolerate a
        // doomed one and retry.
        let mut revived = false;
        for _ in 0..3 {
            if let Ok(mut client) = Client::connect(server_addr) {
                let _ = client.set_timeout(Some(Duration::from_secs(5)));
                if client.ping().is_ok() {
                    revived = true;
                    break;
                }
            }
        }
        assert!(revived, "server must keep serving after injected panics");
        outcomes
    })
}

/// The same schedule and requests, sent by one [`ResilientClient`] that
/// retries what the chaos breaks. Returns each request's outcome and the
/// retries spent.
fn run_resilient() -> (Vec<Outcome>, u32) {
    let retry = RetryPolicy {
        max_attempts: 4,
        base_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(50),
        jitter_seed: policy().seed,
    };
    with_chaos(|proxy_addr, _| {
        let mut client = ResilientClient::new(proxy_addr.to_string(), retry);
        let outcomes = (0..CONNS)
            .map(|i| {
                let (dist, solver) = request_for(i);
                match client.call(&Request::plan_with(dist, solver)) {
                    Ok(Response::Plan { plan, .. }) => Outcome::Plan(plan.digest),
                    Ok(Response::Error { kind, .. }) => Outcome::ServerError(kind.to_string()),
                    Ok(other) => panic!("request {i}: unexpected response {other:?}"),
                    Err(ClientError::RetriesExhausted { .. }) => Outcome::Fault,
                    Err(e) => panic!("request {i}: a failed call must exhaust its retries: {e}"),
                }
            })
            .collect();
        (outcomes, client.retries_spent())
    })
}

#[test]
fn fixed_seed_chaos_is_survivable_reproducible_and_bit_identical() {
    let policy = policy();

    // The fixed seed must actually exercise every fault family within the
    // workload — otherwise the suite is vacuous.
    let panics = (0..CONNS).filter(|&c| policy.worker_panics(c, 0)).count();
    let drops = (0..CONNS)
        .filter(|&c| matches!(policy.conn_fault(c), Some(ConnFault::DropAfter(_))))
        .count();
    let truncates = (0..CONNS)
        .filter(|&c| matches!(policy.conn_fault(c), Some(ConnFault::TruncateFirstChunk)))
        .count();
    let stalls = (0..CONNS)
        .filter(|&c| matches!(policy.conn_fault(c), Some(ConnFault::StallFirstByte(_))))
        .count();
    let delays = (0..CONNS)
        .filter(|&c| policy.dispatch_delay(c, 0).is_some())
        .count();
    assert!(
        panics >= 1 && drops >= 1 && truncates >= 1 && stalls >= 1 && delays >= 1,
        "seed {} must schedule every fault family: \
         panics={panics} drops={drops} truncates={truncates} stalls={stalls} delays={delays}",
        policy.seed
    );

    let panics_before = rsj_obs::global_registry()
        .counter("rsj_serve_worker_panics_total")
        .get();
    let outcomes = run_suite();

    // Every connection matches the oracle: doomed ones fail at the
    // transport (never a protocol-level lie), the rest get plans that are
    // bit-identical to the offline solver. Stalled and delayed
    // connections land in the success column — slower, not wrong.
    let mut successes = 0;
    for (conn, outcome) in outcomes.iter().enumerate() {
        let conn = conn as u64;
        if must_fail(&policy, conn) {
            assert_eq!(
                outcome,
                &Outcome::Fault,
                "conn {conn} is doomed by the schedule"
            );
        } else {
            let (dist, _) = request_for(conn);
            assert_eq!(
                outcome,
                &Outcome::Plan(offline_digest(&dist)),
                "conn {conn} must get the offline solver's exact bits"
            );
            successes += 1;
        }
    }
    assert!(
        successes >= CONNS as usize / 2,
        "most connections must still be served: {successes}/{CONNS}"
    );

    // The injected panics were absorbed by the pool and counted.
    let panics_after = rsj_obs::global_registry()
        .counter("rsj_serve_worker_panics_total")
        .get();
    assert!(
        panics_after >= panics_before + panics as u64,
        "worker panic counter must record the injected panics \
         (before={panics_before}, after={panics_after}, scheduled={panics})"
    );

    // Seed-reproducibility: a second run from scratch sees the exact same
    // outcome sequence.
    let rerun = run_suite();
    assert_eq!(outcomes, rerun, "same seed, same chaos, same outcomes");
}

#[test]
fn a_retrying_client_survives_the_same_chaos_with_offline_identical_plans() {
    let (outcomes, retries) = run_resilient();
    let mut served = 0;
    for (i, outcome) in outcomes.iter().enumerate() {
        let (dist, _) = request_for(i as u64);
        match outcome {
            Outcome::Plan(digest) => {
                assert_eq!(digest, &offline_digest(&dist), "request {i}");
                served += 1;
            }
            Outcome::Fault => {}
            Outcome::ServerError(kind) => panic!("request {i}: unexpected typed error {kind}"),
        }
    }
    // Stricter than "most": retries recover requests that the plain
    // client of the suite above loses to the schedule.
    let doomed = (0..CONNS).filter(|&c| must_fail(&policy(), c)).count();
    assert!(
        served > CONNS as usize - doomed,
        "retries must recover requests a plain client loses: {served}/{CONNS} served, {doomed} doomed"
    );
    assert!(
        served > CONNS as usize / 2,
        "retries must carry most requests: {served}/{CONNS}"
    );
    assert!(retries > 0, "the schedule must force retries");

    // The retry jitter is seeded too: a second run spends the same
    // retries and sees the same outcomes.
    assert_eq!(run_resilient(), (outcomes, retries));
}
