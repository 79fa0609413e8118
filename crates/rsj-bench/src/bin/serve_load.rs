//! Seeds `results/BENCH_serve.json`: load numbers for the `rsj-serve`
//! planning daemon under three closed-loop regimes — a healthy baseline,
//! deliberate overload against a tiny admission queue, and the fixed-seed
//! chaos schedule behind a fault-injecting proxy with a retrying client —
//! plus two open-ended studies: an *open-loop Poisson* offered-rate sweep
//! across the saturation knee, and a batched-vs-singleton round-trip
//! comparison for the v2 `plan_batch` op.
//!
//! Reported per scenario: throughput, p50/p99 request latency, and the
//! shed/failure split. Future robustness PRs diff against this file
//! instead of folklore. Timings move with the host; the invariants the
//! suite *asserts* (typed sheds, bit-identical successes) are enforced by
//! the `rsj-serve` test suite, not here.
//!
//! The saturation sweep pins the per-request service time with an
//! injected dispatch delay (the chaos policy's deterministic slow-worker
//! fault), so the knee sits at a *known* offered rate — `workers ×
//! 1000/delay_ms` requests per second — instead of wherever the host's
//! solver happens to land. Past the knee the open-loop backlog must shed
//! with typed `overloaded`/`deadline_exceeded` answers, never resets.
//!
//! The batch comparison runs a cache-missing workload (one
//! distribution, per-item gamma jitter to defeat the plan cache while
//! sharing the eval table) through K singleton round trips and through
//! one `plan_batch` call, interleaved round by round against one server
//! with the resilient client both ways. On this 1-CPU container the
//! ~2x speedup is round-trip amortization (framing, syscalls, queue
//! crossings, per-request client bookkeeping), not parallelism —
//! multi-core hosts will see more.
//!
//! Honours `RSJ_FIDELITY` (`quick` shrinks the request counts), `RSJ_LOG`
//! and `RSJ_RESULTS_DIR`.

use reservation_strategies::PlanRequest;
use rsj_bench::perf::HostInfo;
use rsj_bench::scenarios::Fidelity;
use rsj_bench::{report, DEFAULT_SEED};
use rsj_core::{CostModel, SolverSpec};
use rsj_dist::{DiscretizationScheme, DistSpec};
use rsj_par::substream_seed;
use rsj_serve::{
    AdmissionConfig, BatchItem, BreakerConfig, ChaosPolicy, ChaosProxy, Client, Request,
    ResilientClient, Response, RetryPolicy, Server, ServerConfig,
};
use serde::{Deserialize, Serialize};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

const SCHEMA_VERSION: u32 = 2;

/// Per-stage latency summary, computed from the server's own request
/// timelines (the `trace` op against a `trace_buffer` server), so the
/// numbers attribute time the way the server measured it rather than the
/// way the client observed it.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct StageSummary {
    stage: String,
    count: usize,
    p50_ms: f64,
    p99_ms: f64,
}

/// One load regime's aggregate numbers.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ScenarioResult {
    name: String,
    /// Requests attempted (including ones that were shed or failed).
    requests: usize,
    /// Successful plan/pong responses.
    ok: usize,
    /// Typed `overloaded` / `deadline_exceeded` rejections.
    shed: usize,
    /// Transport-level failures (chaos faults, torn lines).
    failed: usize,
    /// Client-side retry attempts beyond the first try (chaos scenario).
    retries: usize,
    wall_seconds: f64,
    throughput_rps: f64,
    p50_ms: f64,
    p99_ms: f64,
    shed_rate: f64,
    /// Server-side stage breakdown (baseline scenario only; empty where
    /// the regime runs untraced).
    #[serde(default)]
    stages: Vec<StageSummary>,
}

/// One offered rate of the open-loop Poisson sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SaturationPoint {
    /// Offered arrival rate (requests/second), open-loop: arrivals do not
    /// wait for completions.
    offered_rps: f64,
    /// Offered rate over the injected service capacity (1.0 = the knee).
    utilization: f64,
    arrivals: usize,
    ok: usize,
    /// Typed `overloaded` admission sheds.
    shed_overloaded: usize,
    /// Typed `deadline_exceeded` sheds (queue wait ate the deadline).
    shed_deadline: usize,
    /// Transport-level failures (must stay 0: sheds are answers).
    failed: usize,
    achieved_rps: f64,
    p50_ms: f64,
    p99_ms: f64,
}

/// Batched vs singleton round trips over the same cache-missing workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct BatchCompare {
    /// Items per mode (all cache misses over one shared eval table).
    items: usize,
    singleton_wall_seconds: f64,
    singleton_rps: f64,
    batched_wall_seconds: f64,
    batched_rps: f64,
    /// `batched_rps / singleton_rps`.
    speedup: f64,
}

/// The `results/BENCH_serve.json` document.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ServeBaseline {
    schema_version: u32,
    fidelity: String,
    seed: u64,
    host: HostInfo,
    workers: usize,
    scenarios: Vec<ScenarioResult>,
    /// Open-loop Poisson offered-rate sweep across the saturation knee.
    #[serde(default)]
    saturation: Vec<SaturationPoint>,
    /// `plan_batch` vs singleton round-trip throughput.
    #[serde(default)]
    batch_compare: Option<BatchCompare>,
}

/// The rotating request mix: three distributions over one DP config, so
/// the stream exercises cold solves, cache hits and coalescing alike.
fn request_for(i: usize) -> Request {
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
    Request::plan_with(
        dists[i % 3].clone(),
        SolverSpec::Dp {
            scheme: DiscretizationScheme::EqualProbability,
            n: 300,
            epsilon: 1e-6,
            monotone: true,
        },
    )
}

/// A request no other load thread will have cached: every solve is cold,
/// so the overload scenario keeps the workers genuinely busy.
fn unique_request(i: usize) -> Request {
    Request::plan_with(
        DistSpec::LogNormal {
            mu: 1.5 + 0.01 * i as f64,
            sigma: 0.6,
        },
        SolverSpec::Dp {
            scheme: DiscretizationScheme::EqualProbability,
            n: 600,
            epsilon: 1e-6,
            monotone: true,
        },
    )
}

fn percentile_ms(latencies: &mut [Duration], q: f64) -> f64 {
    if latencies.is_empty() {
        return 0.0;
    }
    latencies.sort_unstable();
    let rank = ((latencies.len() as f64 * q).ceil() as usize).clamp(1, latencies.len());
    latencies[rank - 1].as_secs_f64() * 1e3
}

/// Outcome counts accumulated while driving one regime.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    ok: usize,
    shed: usize,
    failed: usize,
    retries: usize,
}

fn finish(
    name: &str,
    requests: usize,
    tally: Tally,
    wall: Duration,
    latencies: &mut [Duration],
) -> ScenarioResult {
    let wall_seconds = wall.as_secs_f64();
    ScenarioResult {
        name: name.to_string(),
        requests,
        ok: tally.ok,
        shed: tally.shed,
        failed: tally.failed,
        retries: tally.retries,
        wall_seconds,
        throughput_rps: requests as f64 / wall_seconds.max(1e-9),
        p50_ms: percentile_ms(latencies, 0.50),
        p99_ms: percentile_ms(latencies, 0.99),
        shed_rate: tally.shed as f64 / (requests as f64).max(1.0),
        stages: Vec::new(),
    }
}

/// Per-stage p50/p99 over the plan timelines retained by the server's
/// trace ring, name-sorted for a stable JSON diff.
fn stage_summaries(timelines: &[rsj_obs::TimelineRecord]) -> Vec<StageSummary> {
    let mut by_stage: std::collections::BTreeMap<&str, Vec<Duration>> =
        std::collections::BTreeMap::new();
    for record in timelines.iter().filter(|r| r.op == "plan") {
        for stage in &record.stages {
            by_stage
                .entry(stage.name.as_str())
                .or_default()
                .push(Duration::from_micros(stage.duration_us()));
        }
    }
    by_stage
        .into_iter()
        .map(|(stage, mut durations)| StageSummary {
            stage: stage.to_string(),
            count: durations.len(),
            p50_ms: percentile_ms(&mut durations, 0.50),
            p99_ms: percentile_ms(&mut durations, 0.99),
        })
        .collect()
}

fn spawn_server(config: ServerConfig) -> (SocketAddr, impl FnOnce()) {
    let server = Server::bind(config).expect("bind server");
    let addr = server.local_addr();
    let shutdown = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run());
    (addr, move || {
        shutdown.signal();
        // Unblock the accept poll with one last connection attempt.
        let _ = std::net::TcpStream::connect(addr);
        join.join()
            .expect("server thread")
            .expect("clean server exit");
    })
}

/// Healthy regime: one closed-loop client, default admission settings.
/// Runs against a `trace_buffer` server so the result also carries the
/// server-side per-stage breakdown.
fn baseline(workers: usize, requests: usize) -> ScenarioResult {
    let (addr, stop) = spawn_server(ServerConfig {
        workers,
        trace_buffer: requests.max(64),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).expect("connect");
    let mut latencies = Vec::with_capacity(requests);
    let mut tally = Tally::default();
    let started = Instant::now();
    for i in 0..requests {
        let t = Instant::now();
        match client.call(&request_for(i)) {
            Ok(Response::Plan { .. }) => tally.ok += 1,
            Ok(Response::Error { .. }) => tally.shed += 1,
            Ok(_) => {}
            Err(_) => tally.failed += 1,
        }
        latencies.push(t.elapsed());
    }
    let wall = started.elapsed();
    let timelines = client.trace(Some(requests), None, None).unwrap_or_default();
    drop(client);
    stop();
    let mut result = finish("baseline", requests, tally, wall, &mut latencies);
    result.stages = stage_summaries(&timelines);
    result
}

/// Overload regime: a burst of concurrent connections against a tiny
/// admission queue; the interesting number is the typed shed rate.
fn overload(workers: usize, clients: usize, per_client: usize) -> ScenarioResult {
    let (addr, stop) = spawn_server(ServerConfig {
        workers,
        admission: AdmissionConfig {
            capacity: 2,
            high_watermark: 2,
            low_watermark: 1,
        },
        ..ServerConfig::default()
    });
    let started = Instant::now();
    let threads: Vec<_> = (0..clients)
        .map(|c| {
            std::thread::spawn(move || {
                let mut latencies = Vec::with_capacity(per_client);
                let mut tally = Tally::default();
                for i in 0..per_client {
                    let t = Instant::now();
                    match Client::connect(addr) {
                        Ok(mut client) => {
                            match client
                                .call(&unique_request(c * per_client + i).with_deadline_ms(10_000))
                            {
                                Ok(Response::Plan { .. }) => tally.ok += 1,
                                Ok(Response::Error { .. }) => tally.shed += 1,
                                Ok(_) => {}
                                Err(_) => tally.failed += 1,
                            }
                        }
                        Err(_) => tally.failed += 1,
                    }
                    latencies.push(t.elapsed());
                }
                (tally, latencies)
            })
        })
        .collect();
    let mut tally = Tally::default();
    let mut latencies = Vec::new();
    for t in threads {
        let (part, l) = t.join().expect("load thread");
        tally.ok += part.ok;
        tally.shed += part.shed;
        tally.failed += part.failed;
        latencies.extend(l);
    }
    let wall = started.elapsed();
    stop();
    finish(
        "overload",
        clients * per_client,
        tally,
        wall,
        &mut latencies,
    )
}

/// Chaos regime: the fixed-seed fault schedule (worker panics, dispatch
/// delays, dropped/truncated/stalled connections) behind the chaos proxy,
/// driven by the retrying resilient client.
fn chaos(workers: usize, requests: usize, seed: u64) -> ScenarioResult {
    let policy = ChaosPolicy {
        seed,
        worker_panic_every: 5,
        delay_every: 4,
        delay_ms: 10,
        drop_conn_every: 6,
        stall_every: 5,
        stall_ms: 50,
        partial_write_every: 7,
    };
    let (addr, stop) = spawn_server(ServerConfig {
        workers,
        chaos: Some(policy),
        ..ServerConfig::default()
    });
    let proxy = ChaosProxy::bind(addr, policy).expect("bind proxy");
    let proxy_addr = proxy.local_addr();
    let proxy_stop = proxy.stop_handle();
    let proxy_join = std::thread::spawn(move || proxy.run());

    let retry = RetryPolicy {
        max_attempts: 4,
        base_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(50),
        jitter_seed: seed,
        retry_budget: (requests * 2) as u32,
    };
    // A lenient breaker: the point of this scenario is retry
    // effectiveness under a known fault rate, not fail-fast behavior.
    let breaker = BreakerConfig {
        failure_threshold: u32::MAX,
        ..BreakerConfig::default()
    };
    let mut client = ResilientClient::new(proxy_addr.to_string(), retry, breaker);
    let mut latencies = Vec::with_capacity(requests);
    let mut tally = Tally::default();
    let started = Instant::now();
    for i in 0..requests {
        let t = Instant::now();
        match client.call(&request_for(i)) {
            Ok(Response::Plan { .. }) => tally.ok += 1,
            Ok(Response::Error { .. }) => tally.shed += 1,
            Ok(_) => {}
            Err(_) => tally.failed += 1,
        }
        latencies.push(t.elapsed());
    }
    let wall = started.elapsed();
    tally.retries = client.retries_spent() as usize;
    drop(client);
    proxy_stop.stop();
    stop();
    proxy_join
        .join()
        .expect("proxy thread")
        .expect("clean proxy exit");
    finish("chaos", requests, tally, wall, &mut latencies)
}

/// Injected per-request service time for the saturation sweep, so the
/// knee is a known constant instead of a host-dependent solve time.
const SERVICE_MS: u64 = 10;

/// One open-loop Poisson point: `arrivals` requests launched on a seeded
/// exponential-gap schedule at `offered_rps`, regardless of completions
/// (each arrival is its own thread and connection — a closed-loop client
/// would throttle itself and never cross the knee).
fn saturation_point(
    workers: usize,
    offered_rps: f64,
    arrivals: usize,
    seed: u64,
) -> SaturationPoint {
    let policy = ChaosPolicy {
        delay_every: 1,
        delay_ms: SERVICE_MS,
        ..ChaosPolicy::quiet(seed)
    };
    let (addr, stop) = spawn_server(ServerConfig {
        workers,
        admission: AdmissionConfig {
            capacity: 32,
            high_watermark: 24,
            low_watermark: 8,
        },
        chaos: Some(policy),
        ..ServerConfig::default()
    });
    // Seeded Poisson schedule: cumulative exponential gaps. Decorrelate
    // the substream by the rate's bits so every point gets its own draw.
    let stream = substream_seed(seed, offered_rps.to_bits());
    let mut offsets = Vec::with_capacity(arrivals);
    let mut at = 0.0f64;
    for i in 0..arrivals {
        let u = (substream_seed(stream, i as u64) >> 11) as f64 / (1u64 << 53) as f64;
        at += -(1.0 - u).ln() / offered_rps;
        offsets.push(Duration::from_secs_f64(at));
    }
    let started = Instant::now();
    let threads: Vec<_> = offsets
        .into_iter()
        .enumerate()
        .map(|(i, due)| {
            std::thread::spawn(move || {
                let now = started.elapsed();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let t = Instant::now();
                let outcome = Client::connect(addr)
                    .map_err(rsj_serve::ClientError::Io)
                    .and_then(|mut client| {
                        client.call(
                            // Cheap unique solve: the injected delay is the
                            // service time, the solver itself is noise.
                            &Request::plan(DistSpec::Exponential {
                                lambda: 1.0 + i as f64 * 1e-6,
                            })
                            .with_deadline_ms(1_500),
                        )
                    });
                (outcome, t.elapsed())
            })
        })
        .collect();
    let mut point = SaturationPoint {
        offered_rps,
        utilization: offered_rps * SERVICE_MS as f64 / (workers as f64 * 1e3),
        arrivals,
        ok: 0,
        shed_overloaded: 0,
        shed_deadline: 0,
        failed: 0,
        achieved_rps: 0.0,
        p50_ms: 0.0,
        p99_ms: 0.0,
    };
    let mut ok_latencies = Vec::new();
    for thread in threads {
        let (outcome, latency) = thread.join().expect("arrival thread");
        match outcome {
            Ok(Response::Plan { .. }) => {
                point.ok += 1;
                ok_latencies.push(latency);
            }
            Ok(Response::Error {
                kind: rsj_serve::ErrorKind::Overloaded,
                ..
            }) => point.shed_overloaded += 1,
            Ok(Response::Error {
                kind: rsj_serve::ErrorKind::DeadlineExceeded,
                ..
            }) => point.shed_deadline += 1,
            Ok(_) => point.failed += 1,
            Err(_) => point.failed += 1,
        }
    }
    let wall = started.elapsed().as_secs_f64();
    point.achieved_rps = point.ok as f64 / wall.max(1e-9);
    point.p50_ms = percentile_ms(&mut ok_latencies, 0.50);
    point.p99_ms = percentile_ms(&mut ok_latencies, 0.99);
    stop();
    point
}

/// The offered-rate sweep: half the knee, the knee, and 2× / 4× past it.
fn saturation_sweep(workers: usize, arrivals: usize, seed: u64) -> Vec<SaturationPoint> {
    let knee = workers as f64 * 1e3 / SERVICE_MS as f64;
    [0.5, 1.0, 2.0, 4.0]
        .iter()
        .map(|mult| saturation_point(workers, knee * mult, arrivals, seed))
        .collect()
}

/// The batch workload: one distribution and solver, per-item gamma
/// jitter — every item is a distinct plan-cache key, but all of them
/// share one eval table (and, batched, one warm table build).
fn batch_items(k: usize, round: usize) -> Vec<PlanRequest> {
    (0..k)
        .map(|i| {
            PlanRequest::new(DistSpec::Exponential { lambda: 1.0 })
                .with_solver(SolverSpec::Dp {
                    scheme: DiscretizationScheme::EqualProbability,
                    n: 20,
                    epsilon: 1e-6,
                    monotone: true,
                })
                .with_cost(CostModel {
                    alpha: 1.0,
                    beta: 0.0,
                    // Unique across every round so repeat rounds stay
                    // cache misses against the same server.
                    gamma: 1e-9 * (round * k + i + 1) as f64,
                })
        })
        .collect()
}

/// K singleton round trips vs one `plan_batch` call against one shared
/// server — every item is a distinct cache miss, so neither mode ever
/// sees the other's plans. Both legs drive the [`ResilientClient`] a
/// fleet would actually deploy, so the per-request client bookkeeping
/// (trace-id minting, breaker accounting) that batching amortizes is
/// part of the measurement. The process-wide eval-table memo is warmed
/// once up front so neither mode pays the first build.
fn batch_compare(workers: usize, k: usize) -> BatchCompare {
    batch_items(k, 0)[0]
        .planner()
        .expect("valid item")
        .plan()
        .expect("warmup solve");
    // Round 0 is an untimed warmup (allocator, page faults, branch
    // history); rounds 1..=ROUNDS are timed and the best wall wins —
    // min-of-rounds is the usual low-noise estimator on a shared CPU.
    // The modes alternate within each round so a frequency or scheduler
    // wobble hits both rather than biasing one. Every round uses fresh
    // cost rates, so every solve stays a cache miss — the comparison
    // measures round-trip amortization, not cache hits.
    const ROUNDS: usize = 7;

    let (addr, stop) = spawn_server(ServerConfig {
        workers,
        // 8 warm+timed singleton rounds exceed the default per-connection
        // request cap; the cap is not what this microbenchmark measures.
        max_requests_per_conn: usize::MAX,
        ..ServerConfig::default()
    });
    let mut client = ResilientClient::new(
        addr.to_string(),
        RetryPolicy::default(),
        BreakerConfig::default(),
    );
    let mut singleton_walls = Vec::new();
    let mut batched_walls = Vec::new();
    for round in 0..=ROUNDS {
        // Singleton leg: one request per round trip.
        let items = batch_items(k, 2 * round);
        let started = Instant::now();
        for item in &items {
            let response = client
                .call(&Request::Plan {
                    v: rsj_serve::PROTOCOL_VERSION,
                    distribution: item.distribution.clone(),
                    cost: item.cost,
                    solver: item.solver.clone(),
                    seed: None,
                    simulate: None,
                    deadline_ms: None,
                    trace_id: None,
                    trace: false,
                })
                .expect("singleton call");
            assert!(
                matches!(response, Response::Plan { .. }),
                "singleton mode must plan: {response:?}"
            );
        }
        if round > 0 {
            singleton_walls.push(started.elapsed().as_secs_f64());
        }

        // Batched leg: the same number of items in one round trip.
        let items = batch_items(k, 2 * round + 1);
        let started = Instant::now();
        let results = client.plan_batch(items, None).expect("batch call");
        if round > 0 {
            batched_walls.push(started.elapsed().as_secs_f64());
        }
        assert!(
            results.len() == k && results.iter().all(BatchItem::is_ok),
            "batched mode must plan every item"
        );
    }
    drop(client);
    stop();

    let best = |walls: &[f64]| -> f64 { walls.iter().copied().fold(f64::INFINITY, f64::min) };
    let singleton_wall = best(&singleton_walls);
    let batched_wall = best(&batched_walls);
    let singleton_rps = k as f64 / singleton_wall.max(1e-9);
    let batched_rps = k as f64 / batched_wall.max(1e-9);
    BatchCompare {
        items: k,
        singleton_wall_seconds: singleton_wall,
        singleton_rps,
        batched_wall_seconds: batched_wall,
        batched_rps,
        speedup: batched_rps / singleton_rps.max(1e-9),
    }
}

fn main() -> std::io::Result<()> {
    rsj_obs::init_from_env();
    rsj_obs::set_metrics_enabled(true);
    let host = HostInfo::capture();
    let fidelity = Fidelity::from_env();
    // Closed-loop volumes per regime; the baked-in solver configs are
    // bench-scoped, so only the counts move with fidelity.
    let (base_requests, load_clients, load_per_client, chaos_requests, arrivals, batch_k) =
        match fidelity {
            Fidelity::Paper => (400, 12, 20, 96, 240, 128),
            Fidelity::Quick => (60, 6, 5, 24, 80, 128),
        };
    let workers = 2;

    rsj_obs::info!("serve_load at {fidelity:?} fidelity, {workers} workers");
    // The comparison runs first, before the load regimes and the
    // open-loop sweep litter the process with hundreds of spawned-and-
    // joined arrival threads — scheduler debris that only adds noise to
    // a microbenchmark.
    let compare = batch_compare(workers, batch_k);
    rsj_obs::info!(
        "batch compare over {} items: singleton {:.0} rps, batched {:.0} rps ({:.2}x)",
        compare.items,
        compare.singleton_rps,
        compare.batched_rps,
        compare.speedup
    );
    let scenarios = vec![
        baseline(workers, base_requests),
        overload(workers, load_clients, load_per_client),
        chaos(workers, chaos_requests, DEFAULT_SEED),
    ];
    let saturation = saturation_sweep(workers, arrivals, DEFAULT_SEED);
    for p in &saturation {
        rsj_obs::info!(
            "saturation {:.0} rps offered (u={:.2}): ok={} shed={}+{} failed={} \
             achieved {:.1} rps, p50 {:.2}ms p99 {:.2}ms",
            p.offered_rps,
            p.utilization,
            p.ok,
            p.shed_overloaded,
            p.shed_deadline,
            p.failed,
            p.achieved_rps,
            p.p50_ms,
            p.p99_ms
        );
    }
    for s in &scenarios {
        rsj_obs::info!(
            "{}: {} req in {:.2}s ({:.1} rps), p50 {:.2}ms p99 {:.2}ms, \
             ok={} shed={} failed={} retries={}",
            s.name,
            s.requests,
            s.wall_seconds,
            s.throughput_rps,
            s.p50_ms,
            s.p99_ms,
            s.ok,
            s.shed,
            s.failed,
            s.retries
        );
    }

    let doc = ServeBaseline {
        schema_version: SCHEMA_VERSION,
        fidelity: format!("{fidelity:?}"),
        seed: DEFAULT_SEED,
        host,
        workers,
        scenarios,
        saturation,
        batch_compare: Some(compare),
    };
    let path = report::write_result_file(
        "BENCH_serve.json",
        &format!(
            "{}\n",
            serde_json::to_string_pretty(&doc).expect("serializable")
        ),
    )?;
    println!("wrote {}", path.display());
    Ok(())
}
