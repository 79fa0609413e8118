//! End-to-end tracing tests: trace-id round trips on every response
//! path (success, typed errors, not-ready, overload sheds), per-request
//! timelines, the `trace` op and its filters, per-op request histograms,
//! and exemplar-to-timeline resolution.
//!
//! The process-global metrics registry is shared by every test in this
//! binary, so all tests serialize on [`registry_lock`].

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use reservation_strategies::{PlanRequest, Planner};
use rsj_core::SolverSpec;
use rsj_dist::{DiscretizationScheme, DistSpec};
use rsj_serve::{
    AdmissionConfig, ChaosPolicy, Client, DurabilityConfig, ErrorKind, Request, Response,
    ServerConfig,
};

mod common;
use common::{fast_dp, registry_lock, spawn_server, temp_dir};

/// A valid 128-bit trace id in the canonical 32-hex form.
const TRACE_ID: &str = "00000000000000000000000000c0ffee";

/// Signals shutdown and unblocks the accept loop with a throwaway
/// connection so `run()` returns.
fn stop_server(
    handle: rsj_serve::ShutdownHandle,
    addr: std::net::SocketAddr,
    join: std::thread::JoinHandle<std::io::Result<()>>,
) {
    handle.signal();
    let _ = std::net::TcpStream::connect(addr);
    join.join().expect("server thread").expect("clean exit");
}

/// A server that retains request timelines in a ring of `buffer`.
fn traced_config(buffer: usize) -> ServerConfig {
    ServerConfig {
        trace_buffer: buffer,
        ..ServerConfig::default()
    }
}

/// A solver heavy enough that the `solve` stage dominates the request —
/// what the stage-coverage assertion needs.
fn heavy_dp() -> SolverSpec {
    SolverSpec::Dp {
        scheme: DiscretizationScheme::EqualProbability,
        n: 2000,
        epsilon: 1e-6,
        monotone: true,
    }
}

/// The `{name}_count` sample from a Prometheus exposition, 0 if absent.
fn histogram_count(prometheus: &str, name: &str) -> u64 {
    prometheus
        .lines()
        .find_map(|l| l.strip_prefix(&format!("{name}_count ")))
        .map(|v| v.trim().parse().expect("count value"))
        .unwrap_or(0)
}

#[test]
fn plan_responses_echo_the_client_trace_id_or_mint_one() {
    let _guard = registry_lock();
    let (addr, handle, join) = spawn_server(traced_config(8));
    let mut client = Client::connect(addr).expect("connect");

    // A client-supplied id comes back verbatim on success.
    let request = Request::plan_with(DistSpec::Exponential { lambda: 1.0 }, fast_dp())
        .with_trace_id(TRACE_ID);
    match client.call(&request).expect("plan") {
        Response::Plan { trace_id, .. } => assert_eq!(trace_id.as_deref(), Some(TRACE_ID)),
        other => panic!("expected a plan, got {other:?}"),
    }

    // Without one, a tracing server mints a 32-hex id and reports it so
    // the response can still be joined to the server-side timeline.
    let request = Request::plan_with(DistSpec::Exponential { lambda: 2.0 }, fast_dp());
    match client.call(&request).expect("plan") {
        Response::Plan { trace_id, .. } => {
            let id = trace_id.expect("server-minted trace id");
            assert_eq!(id.len(), 32, "{id}");
            assert!(id.chars().all(|c| c.is_ascii_hexdigit()), "{id}");
        }
        other => panic!("expected a plan, got {other:?}"),
    }

    stop_server(handle, addr, join);
}

#[test]
fn error_responses_echo_the_client_trace_id_even_untraced() {
    let _guard = registry_lock();
    // Default config: no trace buffer, no slow threshold — the echo must
    // not depend on server-side tracing being on.
    let (addr, handle, join) = spawn_server(ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");

    let request = Request::plan(DistSpec::Exponential { lambda: -1.0 }).with_trace_id(TRACE_ID);
    match client.call(&request).expect("error response") {
        Response::Error { kind, trace_id, .. } => {
            assert_eq!(kind, ErrorKind::InvalidDistribution);
            assert_eq!(trace_id.as_deref(), Some(TRACE_ID));
        }
        other => panic!("expected invalid_distribution, got {other:?}"),
    }

    stop_server(handle, addr, join);
}

#[test]
fn not_ready_sheds_echo_the_client_trace_id() {
    let _guard = registry_lock();
    let dir = temp_dir("tracing", "notready");
    let (addr, handle, join) = spawn_server(ServerConfig {
        durability: Some(DurabilityConfig {
            recovery_delay: Some(Duration::from_millis(800)),
            ..DurabilityConfig::new(&dir)
        }),
        ..ServerConfig::default()
    });

    // Inside the recovery window a plan is typed-shed — with the id.
    let mut client = Client::connect(addr).expect("connect during recovery");
    let request = Request::plan(DistSpec::Exponential { lambda: 1.0 }).with_trace_id(TRACE_ID);
    match client.call(&request).expect("shed response") {
        Response::Error { kind, trace_id, .. } => {
            assert_eq!(kind, ErrorKind::NotReady);
            assert_eq!(trace_id.as_deref(), Some(TRACE_ID));
        }
        other => panic!("expected not_ready during recovery, got {other:?}"),
    }

    stop_server(handle, addr, join);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn overload_sheds_echo_the_client_trace_id() {
    let _guard = registry_lock();
    // One worker that holds each request 300 ms in a chaos delay and a
    // one-slot admission queue: of N requests in flight together, one is
    // in service and one queued, and the reactor sheds the rest. Every
    // reply, a shed one too, must carry its own request's id.
    const N: usize = 6;
    let (addr, handle, join) = spawn_server(ServerConfig {
        workers: 1,
        admission: AdmissionConfig {
            high_watermark: 1,
            low_watermark: 0,
        },
        chaos: Some(ChaosPolicy {
            delay_every: 1,
            delay_ms: 300,
            ..ChaosPolicy::quiet(11)
        }),
        ..ServerConfig::default()
    });

    // Every connection is open before the barrier releases any request.
    let start = Arc::new(Barrier::new(N));
    let threads: Vec<_> = (0..N)
        .map(|i| {
            let mut client = Client::connect(addr).expect("connect");
            client
                .set_timeout(Some(Duration::from_secs(30)))
                .expect("timeout");
            let start = Arc::clone(&start);
            let id = format!("{:032x}", 0xc0ffee00_u64 + i as u64);
            let request =
                Request::plan(DistSpec::Exponential { lambda: 1.0 }).with_trace_id(id.clone());
            std::thread::spawn(move || {
                start.wait();
                (id, client.call(&request))
            })
        })
        .collect();

    let mut shed = 0;
    for thread in threads {
        let (id, reply) = thread.join().expect("burst thread");
        match reply {
            Ok(Response::Plan { trace_id, .. }) => {
                assert_eq!(trace_id.as_deref(), Some(id.as_str()), "plan reply");
            }
            Ok(Response::Error { kind, trace_id, .. }) => {
                assert_eq!(kind, ErrorKind::Overloaded, "request {id}");
                assert_eq!(trace_id.as_deref(), Some(id.as_str()), "shed reply");
                shed += 1;
            }
            Ok(other) => panic!("request {id}: expected a plan or overloaded, got {other:?}"),
            Err(e) => panic!("request {id}: a transport error instead of a reply: {e}"),
        }
    }
    assert!(
        shed >= N - 2,
        "at most one request in service and one queued: {shed} of {N} shed"
    );

    stop_server(handle, addr, join);
}

#[test]
fn traced_plans_carry_a_timeline_that_explains_the_request() {
    let _guard = registry_lock();
    let (addr, handle, join) = spawn_server(traced_config(8));
    // The first request's timeline starts at accept, so the client's
    // stopwatch starts before it connects.
    let started = Instant::now();
    let mut client = Client::connect(addr).expect("connect");

    let spec = DistSpec::LogNormal {
        mu: 3.0,
        sigma: 0.5,
    };
    let request = Request::plan_with(spec.clone(), heavy_dp())
        .with_trace_id(TRACE_ID)
        .with_trace();
    let response = client.call(&request).expect("plan");
    let wall = started.elapsed();

    let Response::Plan {
        plan,
        trace_id,
        timeline,
        ..
    } = response
    else {
        panic!("expected a plan");
    };
    assert_eq!(trace_id.as_deref(), Some(TRACE_ID));
    let timeline = timeline.expect("trace: true returns the server-side timeline");
    assert_eq!(timeline.trace_id, TRACE_ID);
    assert_eq!(timeline.op, "plan");
    for stage in ["queue_wait", "decode", "build", "cache_lookup", "solve"] {
        assert!(
            timeline.stage_us(stage).is_some(),
            "missing stage {stage}: {timeline:?}"
        );
    }
    for stage in &timeline.stages {
        assert!(stage.start_us <= stage.end_us, "{stage:?}");
        assert!(
            stage.end_us <= timeline.total_us,
            "{stage:?} escapes the request"
        );
    }

    // The acceptance bar: stage durations explain the server-side wall
    // time (the stages are sequential, so their sum can only fall short
    // of the total by unattributed gaps).
    let sum = timeline.stage_sum_us();
    assert!(sum <= timeline.total_us, "{sum} > {}", timeline.total_us);
    assert!(
        sum * 10 >= timeline.total_us * 8,
        "stages explain under 80% of the request: {sum} of {} us",
        timeline.total_us
    );
    // And the server-side wall is bounded by the client-observed wall.
    assert!(timeline.total_us <= wall.as_micros() as u64);

    // Tracing must not perturb the solve: the served digest is
    // bit-identical to the offline facade's.
    let offline = Planner::builder()
        .distribution(spec)
        .solver(heavy_dp())
        .build()
        .expect("planner")
        .plan()
        .expect("offline plan");
    assert_eq!(plan.digest, offline.digest);

    stop_server(handle, addr, join);
}

#[test]
fn traced_batches_record_one_annotated_stage_per_item() {
    let _guard = registry_lock();
    let (addr, handle, join) = spawn_server(traced_config(8));
    let mut client = Client::connect(addr).expect("connect");

    // 8 laws x 16 cost rates, so the frame spans many groups.
    const ITEMS: usize = 128;
    let items: Vec<PlanRequest> = (0..ITEMS)
        .map(|i| {
            PlanRequest::new(DistSpec::Exponential {
                lambda: 0.5 + (i % 8) as f64,
            })
            .with_cost(rsj_core::CostModel::new(1.0, 0.01 * (i / 8) as f64, 0.0).unwrap())
            .with_solver(fast_dp())
        })
        .collect();
    let response = client
        .call(&Request::plan_batch(items).with_trace())
        .expect("plan_batch");
    let Response::PlanBatch {
        results, timeline, ..
    } = response
    else {
        panic!("expected a plan_batch response");
    };
    assert_eq!(results.len(), ITEMS);
    let timeline = timeline.expect("trace: true returns the server-side timeline");
    assert_eq!(timeline.op, "plan_batch");

    // One `item` stage per item, each naming its slot and its outcome,
    // and no per-item inner stages.
    let stages: Vec<_> = timeline
        .stages
        .iter()
        .filter(|s| s.name == "item")
        .collect();
    assert_eq!(stages.len(), ITEMS, "{timeline:?}");
    let mut slots: Vec<usize> = stages
        .iter()
        .map(|stage| {
            let arg = |key: &str| {
                stage
                    .args
                    .iter()
                    .find(|(k, _)| k == key)
                    .map(|(_, v)| v.clone())
                    .unwrap_or_else(|| panic!("item stage without `{key}`: {stage:?}"))
            };
            let slot: usize = arg("item").parse().expect("item index");
            match &results[slot] {
                rsj_serve::BatchItem::Plan { plan, .. } => assert_eq!(arg("digest"), plan.digest),
                other => panic!("slot {slot}: {other:?}"),
            }
            slot
        })
        .collect();
    slots.sort_unstable();
    assert_eq!(slots, (0..ITEMS).collect::<Vec<_>>());
    assert!(timeline.stage_us("solve").is_none(), "{timeline:?}");

    stop_server(handle, addr, join);
}

#[test]
fn batch_items_carry_their_own_solves_attribution() {
    let _guard = registry_lock();
    let (addr, handle, join) = spawn_server(traced_config(8));
    let mut client = Client::connect(addr).expect("connect");

    // [A, A, B]: A is a DP item on a law no other test plans, so its one
    // solve builds a cold table and its twin is a plan-cache hit; B is a
    // closed-form item.
    let a = PlanRequest::new(DistSpec::Weibull {
        lambda: 2.71,
        kappa: 1.61,
    })
    .with_solver(fast_dp());
    let b =
        PlanRequest::new(DistSpec::Exponential { lambda: 1.0 }).with_solver(SolverSpec::MeanByMean);
    let response = client
        .call(&Request::plan_batch(vec![a.clone(), a, b]).with_trace())
        .expect("plan_batch");
    let Response::PlanBatch {
        results, timeline, ..
    } = response
    else {
        panic!("expected a plan_batch response");
    };
    match &results[1] {
        rsj_serve::BatchItem::Plan { provenance, .. } => assert!(provenance.cached),
        other => panic!("slot 1: {other:?}"),
    }
    let timeline = timeline.expect("trace: true returns the server-side timeline");
    let eval_table = |slot: &str| {
        timeline
            .stages
            .iter()
            .find(|s| s.name == "item" && s.arg("item") == Some(slot))
            .unwrap_or_else(|| panic!("no item stage for slot {slot}: {timeline:?}"))
            .arg("eval_table")
    };
    assert_eq!(eval_table("0"), Some("cold"), "{timeline:?}");
    assert_eq!(eval_table("1"), None, "{timeline:?}");
    assert_eq!(eval_table("2"), None, "{timeline:?}");

    stop_server(handle, addr, join);
}

#[test]
fn the_trace_op_serves_ring_timelines_with_filters() {
    let _guard = registry_lock();
    let (addr, handle, join) = spawn_server(traced_config(16));
    let mut client = Client::connect(addr).expect("connect");

    let ids: Vec<String> = (0..3).map(|i| format!("{i:032x}")).collect();
    for (i, id) in ids.iter().enumerate() {
        let request = Request::plan_with(
            DistSpec::LogNormal {
                mu: 1.5 + 0.1 * i as f64,
                sigma: 0.6,
            },
            fast_dp(),
        )
        .with_trace_id(id.clone());
        client.call(&request).expect("plan");
    }

    // Requests on one connection are sequential past the ring push, so
    // all three timelines are already retained.
    let all = client.trace(None, None, None).expect("trace op");
    for id in &ids {
        assert!(
            all.iter().any(|r| &r.trace_id == id),
            "missing {id} in {all:?}"
        );
    }

    // Exact-id filter: one record, and the ring's copy (unlike the
    // response-embedded snapshot) includes the write span.
    let one = client.trace(None, None, Some(&ids[1])).expect("trace op");
    assert_eq!(one.len(), 1, "{one:?}");
    assert_eq!(one[0].trace_id, ids[1]);
    assert_eq!(one[0].op, "plan");
    assert!(
        one[0].stage_us("write").is_some(),
        "ring copy lacks the write span: {:?}",
        one[0]
    );

    // A threshold far above any request filters everything out; `last`
    // bounds the answer.
    assert!(client
        .trace(None, Some(1e9), None)
        .expect("trace op")
        .is_empty());
    assert_eq!(
        client.trace(Some(1), None, None).expect("trace op").len(),
        1
    );

    stop_server(handle, addr, join);
}

#[test]
fn the_trace_op_without_a_buffer_is_a_typed_error() {
    let _guard = registry_lock();
    let (addr, handle, join) = spawn_server(ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");

    match client
        .call(&Request::trace_query(None, None, None))
        .expect("response")
    {
        Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::TracingDisabled),
        other => panic!("expected tracing_disabled, got {other:?}"),
    }
    let err = client
        .trace(None, None, None)
        .expect_err("typed client error");
    assert!(err.to_string().contains("tracing_disabled"), "{err}");

    // But a request that asks for its own timeline still gets one — the
    // per-request path does not depend on the retention ring.
    let request = Request::plan_with(DistSpec::Exponential { lambda: 1.0 }, fast_dp()).with_trace();
    match client.call(&request).expect("plan") {
        Response::Plan {
            trace_id, timeline, ..
        } => {
            assert!(trace_id.is_some());
            let timeline = timeline.expect("per-request timeline");
            assert!(timeline.stage_us("solve").is_some(), "{timeline:?}");
        }
        other => panic!("expected a plan, got {other:?}"),
    }

    stop_server(handle, addr, join);
}

#[test]
fn request_histograms_split_by_op_and_keep_the_aggregate() {
    let _guard = registry_lock();
    let (addr, handle, join) = spawn_server(traced_config(8));
    let mut client = Client::connect(addr).expect("connect");

    // A request observes itself after building its response, so this
    // exposition excludes the metrics request that produced it.
    let before = client.metrics().expect("metrics");
    let plan_before = histogram_count(&before, "rsj_serve_request_seconds_plan");
    let metrics_before = histogram_count(&before, "rsj_serve_request_seconds_metrics");
    let aggregate_before = histogram_count(&before, "rsj_serve_request_seconds");

    for lambda in [0.5, 0.9] {
        client
            .call(&Request::plan_with(
                DistSpec::Exponential { lambda },
                fast_dp(),
            ))
            .expect("plan");
    }

    let after = client.metrics().expect("metrics");
    assert!(after.contains("# TYPE rsj_serve_request_seconds_plan summary"));
    assert_eq!(
        histogram_count(&after, "rsj_serve_request_seconds_plan"),
        plan_before + 2,
        "the per-op split must count exactly the plan requests"
    );
    assert_eq!(
        histogram_count(&after, "rsj_serve_request_seconds_metrics"),
        metrics_before + 1,
        "the first metrics request lands in its own op bucket"
    );
    assert_eq!(
        histogram_count(&after, "rsj_serve_request_seconds"),
        aggregate_before + 3,
        "the aggregate histogram keeps counting every request"
    );

    stop_server(handle, addr, join);
}

#[test]
fn exemplars_resolve_to_fetchable_timelines() {
    let _guard = registry_lock();
    let (addr, handle, join) = spawn_server(traced_config(8));
    let mut client = Client::connect(addr).expect("connect");

    let id = "feedfacecafebeef0123456789abcdef";
    client
        .call(
            &Request::plan_with(DistSpec::Exponential { lambda: 0.7 }, fast_dp()).with_trace_id(id),
        )
        .expect("plan");

    // The plan histogram's exemplar comment names our trace id (the most
    // recent traced sample in its bucket).
    let metrics = client.metrics().expect("metrics");
    let quoted = format!("trace_id=\"{id}\"");
    let line = metrics
        .lines()
        .find(|l| {
            l.starts_with("# exemplar rsj_serve_request_seconds_plan{") && l.contains(&quoted)
        })
        .unwrap_or_else(|| panic!("no exemplar for {id} in:\n{metrics}"));
    assert!(line.contains("le=\""), "{line}");

    // The id lifted from the exposition resolves to a full timeline via
    // the trace op — the metrics-to-trace join the exemplar exists for.
    let resolved = client.trace(None, None, Some(id)).expect("trace op");
    assert_eq!(resolved.len(), 1, "{resolved:?}");
    assert_eq!(resolved[0].trace_id, id);
    assert_eq!(resolved[0].op, "plan");
    assert!(resolved[0].stage_us("solve").is_some(), "{:?}", resolved[0]);

    stop_server(handle, addr, join);
}
