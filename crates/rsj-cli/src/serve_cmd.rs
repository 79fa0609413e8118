//! `rsj serve` and `rsj request`: the CLI front of the `rsj-serve`
//! planning daemon.
//!
//! `serve` binds and runs a server in the foreground until a client sends
//! a `shutdown` request (or the process is killed). `request` is a
//! one-shot client: connect, send one request, print the response, exit —
//! enough for scripts, smoke tests and quick interactive use.

use crate::config::PlanConfig;
use rsj_core::CostModel;
use rsj_serve::{
    Client, DurabilityConfig, Request, ResilientClient, Response, RetryPolicy, Server,
    ServerConfig, PROTOCOL_VERSION,
};
use std::io::Write;

/// Options for `rsj serve`, all flag-settable.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address (default `127.0.0.1:7077`; port 0 picks a free one).
    pub addr: String,
    /// Connection-handler threads (`--workers`).
    pub workers: Option<usize>,
    /// Plan-cache capacity (`--cache`, 0 disables caching).
    pub cache: Option<usize>,
    /// Admission-queue size N (`--queue`, default 256): shedding starts
    /// at 3N/4 and stops at N/4 unless overridden.
    pub queue: Option<usize>,
    /// Shedding starts at this queue depth (`--queue-high`, capped at N).
    pub queue_high: Option<usize>,
    /// Shedding stops once depth drains to this (`--queue-low`).
    pub queue_low: Option<usize>,
    /// Directory for the durable plan journal and snapshots
    /// (`--journal-dir`); restarting against the same directory
    /// warm-fills the cache. Unset serves memory-only.
    pub journal_dir: Option<String>,
    /// Compact the journal into a snapshot every N appends
    /// (`--snapshot-every`, default 64; 0 disables snapshots).
    pub snapshot_every: Option<u64>,
    /// Retain the last N request timelines for the `trace` op
    /// (`--trace-buffer`; 0 or unset disables server-side retention).
    pub trace_buffer: Option<usize>,
    /// Warn (one event, full stage breakdown) on requests slower than
    /// this many milliseconds (`--slow-ms`; unset disables).
    pub slow_ms: Option<u64>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7077".to_string(),
            workers: None,
            cache: None,
            queue: None,
            queue_high: None,
            queue_low: None,
            journal_dir: None,
            snapshot_every: None,
            trace_buffer: None,
            slow_ms: None,
        }
    }
}

/// `--queue` when the flag is absent: the default watermarks (192 and
/// 64) are 3N/4 and N/4 of it, and `--queue-high` is capped at it.
const DEFAULT_QUEUE: usize = 256;

/// `rsj serve`: run the planning server in the foreground. Prints the
/// bound address on stdout (scripts bind port 0 and read it back), then
/// blocks until a graceful shutdown drains the last request.
pub fn run_serve(opts: &ServeOptions) -> Result<(), String> {
    let mut config = ServerConfig {
        addr: opts.addr.clone(),
        ..ServerConfig::default()
    };
    if let Some(workers) = opts.workers {
        if workers == 0 {
            return Err("--workers must be >= 1".to_string());
        }
        config.workers = workers;
    }
    if let Some(cache) = opts.cache {
        config.cache_capacity = cache;
    }
    if let Some(queue) = opts.queue {
        if queue == 0 {
            return Err("--queue must be >= 1".to_string());
        }
        // Keep the watermarks proportional unless overridden below.
        config.admission.high_watermark = queue * 3 / 4;
        config.admission.low_watermark = queue / 4;
    }
    if let Some(high) = opts.queue_high {
        config.admission.high_watermark = high.min(opts.queue.unwrap_or(DEFAULT_QUEUE));
    }
    if let Some(low) = opts.queue_low {
        config.admission.low_watermark = low;
    }
    if let Some(dir) = &opts.journal_dir {
        let mut durability = DurabilityConfig::new(dir);
        if let Some(every) = opts.snapshot_every {
            durability.snapshot_every = every;
        }
        config.durability = Some(durability);
    } else if opts.snapshot_every.is_some() {
        return Err("--snapshot-every requires --journal-dir".to_string());
    }
    if let Some(buffer) = opts.trace_buffer {
        config.trace_buffer = buffer;
    }
    config.slow_ms = opts.slow_ms;
    let server = Server::bind(config).map_err(|e| format!("cannot bind {}: {e}", opts.addr))?;
    // One write of a line that scripts parse. A closed stdout loses the
    // line, not the server.
    let line = format!("rsj-serve listening on {}\n", server.local_addr());
    let mut stdout = std::io::stdout().lock();
    if let Err(e) = stdout
        .write_all(line.as_bytes())
        .and_then(|()| stdout.flush())
    {
        rsj_obs::warn!("cannot write the listening line to stdout: {e}");
    }
    drop(stdout);
    server.run().map_err(|e| format!("server error: {e}"))
}

/// What `rsj request` should send.
#[derive(Debug, Clone)]
pub enum RequestAction {
    /// `--ping`: liveness probe.
    Ping,
    /// `--metrics`: fetch Prometheus metrics.
    Metrics,
    /// `--health`: fetch the server's durability/load posture (answers
    /// even mid-recovery).
    Health,
    /// `--ready`: readiness probe; exits non-zero with a typed
    /// `not_ready` while the server is still recovering.
    Ready,
    /// `--shutdown`: ask the server to drain and exit.
    Shutdown,
    /// `--config <plan.json>`: request a plan (the same schema as
    /// `rsj plan`).
    Plan(Box<PlanConfig>),
}

/// Client-side knobs for `rsj request`.
#[derive(Debug, Clone, Copy, Default)]
pub struct RequestOptions {
    /// Per-request deadline in milliseconds (`--deadline-ms`); the server
    /// sheds the request (typed `deadline_exceeded`) once it lapses.
    pub deadline_ms: Option<u64>,
    /// Retry attempts after the first (`--retries`), so a call makes at
    /// most `retries + 1` attempts; retried through the resilient client
    /// (seeded-jitter backoff, a fresh connection per attempt) and only
    /// for transient failures (`overloaded`, `not_ready`, `internal`,
    /// transport).
    pub retries: Option<u32>,
    /// `--trace`: ask the server to return its per-request timeline and
    /// render it under the plan (text mode) or embed it (JSON mode).
    pub trace: bool,
}

/// `rsj request`: send one request to a running server and render the
/// response. Error responses become `Err`, so the process exits non-zero.
pub fn run_request(
    addr: &str,
    action: &RequestAction,
    json: bool,
    opts: RequestOptions,
) -> Result<String, String> {
    let mut request = match action {
        RequestAction::Ping => Request::ping(),
        RequestAction::Metrics => Request::metrics(),
        RequestAction::Health => Request::health(),
        RequestAction::Ready => Request::ready(),
        RequestAction::Shutdown => Request::shutdown(),
        RequestAction::Plan(cfg) => Request::Plan {
            v: PROTOCOL_VERSION,
            distribution: cfg.distribution.clone(),
            cost: Some(CostModel {
                alpha: cfg.cost.alpha,
                beta: cfg.cost.beta,
                gamma: cfg.cost.gamma,
            }),
            solver: cfg.heuristic.clone(),
            seed: None,
            simulate: None,
            deadline_ms: None,
            trace_id: None,
            trace: false,
        },
    };
    if let Some(ms) = opts.deadline_ms {
        request = request.with_deadline_ms(ms);
    }
    if opts.trace {
        request = request.with_trace();
    }
    let response = match opts.retries {
        Some(retries) if retries > 0 => {
            let policy = RetryPolicy {
                max_attempts: retries + 1,
                ..RetryPolicy::default()
            };
            let mut client = ResilientClient::new(addr, policy);
            client
                .call(&request)
                .map_err(|e| format!("request failed: {e}"))?
        }
        _ => {
            let mut client =
                Client::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
            client
                .call(&request)
                .map_err(|e| format!("request failed: {e}"))?
        }
    };

    if let Response::Error { kind, message, .. } = &response {
        return Err(format!("server error ({kind}): {message}"));
    }
    if json {
        return Ok(format!(
            "{}\n",
            serde_json::to_string_pretty(&response).expect("responses are serializable")
        ));
    }
    Ok(match response {
        Response::Pong { .. } => "pong\n".to_string(),
        Response::Ready { .. } => "ready\n".to_string(),
        Response::Health { health, .. } => {
            let mut out = String::new();
            out.push_str(&format!("ready:            {}\n", health.ready));
            out.push_str(&format!("recovered:        {}\n", health.recovered));
            out.push_str(&format!("draining:         {}\n", health.draining));
            out.push_str(&format!("queue depth:      {}\n", health.queue_depth));
            out.push_str(&format!("cache entries:    {}\n", health.cache_entries));
            if let Some(recovery) = &health.recovery {
                out.push_str(&format!(
                    "recovery:         {} records warm ({} snapshot + {} journal), {} corrupt skipped, {:.3}s\n",
                    recovery.recovered_records,
                    recovery.snapshot_records,
                    recovery.journal_records,
                    recovery.corrupt_records,
                    recovery.wall_seconds
                ));
            }
            out
        }
        Response::ShuttingDown { .. } => "server shutting down\n".to_string(),
        Response::Metrics { prometheus, .. } => prometheus,
        Response::Plan {
            plan,
            provenance,
            timings,
            trace_id,
            timeline,
            ..
        } => {
            let mut out = String::new();
            out.push_str(&format!("server:           {}\n", provenance.server));
            out.push_str(&format!("distribution:     {}\n", plan.distribution));
            out.push_str(&format!("solver:           {}\n", plan.solver));
            out.push_str(&format!("ladder length:    {}\n", plan.sequence.len()));
            out.push_str(&format!("expected cost:    {:.4}\n", plan.expected_cost));
            out.push_str(&format!(
                "vs omniscient:    {:.4} (E° = {:.4})\n",
                plan.normalized_cost, plan.omniscient_cost
            ));
            out.push_str(&format!("plan digest:      {}\n", plan.digest));
            out.push_str(&format!(
                "served:           {} in {:.1} ms\n",
                if provenance.cached {
                    "from cache"
                } else if provenance.coalesced {
                    "coalesced"
                } else {
                    "computed"
                },
                timings.total_seconds * 1e3
            ));
            if let Some(id) = &trace_id {
                out.push_str(&format!("trace id:         {id}\n"));
            }
            if let Some(timeline) = &timeline {
                out.push_str(&render_timeline(timeline));
            }
            out
        }
        Response::Error { .. } => unreachable!("handled above"),
        Response::Trace { .. } => unreachable!("request never sends a trace op"),
        Response::PlanBatch { .. } => unreachable!("request never sends a plan_batch op"),
    })
}

/// The server-side timeline as an indented stage table: one line per
/// stage with its offset and duration, then the stage-sum coverage of
/// the server-measured wall time.
fn render_timeline(timeline: &rsj_obs::TimelineRecord) -> String {
    let mut out = String::new();
    let wall_ms = timeline.total_us as f64 / 1e3;
    out.push_str(&format!("server timeline:  {wall_ms:.3} ms wall\n"));
    for stage in &timeline.stages {
        out.push_str(&format!(
            "  {:<18} @{:>9.3} ms  {:>9.3} ms\n",
            stage.name,
            stage.start_us as f64 / 1e3,
            stage.duration_us() as f64 / 1e3,
        ));
    }
    let sum_ms = timeline.stage_sum_us() as f64 / 1e3;
    let pct = if timeline.total_us > 0 {
        100.0 * sum_ms / wall_ms
    } else {
        0.0
    };
    out.push_str(&format!(
        "  stage sum:       {sum_ms:.3} ms ({pct:.0}% of wall)\n"
    ));
    out
}

/// Options for `rsj trace export`.
#[derive(Debug, Clone, Default)]
pub struct TraceExportOptions {
    /// Output path (`--out`); the file is Chrome-trace JSON, loadable in
    /// Perfetto / `chrome://tracing`.
    pub out: String,
    /// Fetch at most this many timelines (`--last`; server default 32).
    pub last: Option<usize>,
    /// Keep only timelines at least this long (`--min-ms`).
    pub min_ms: Option<f64>,
}

/// `rsj trace export`: fetch recent request timelines from a running
/// server's trace ring and write them as a Chrome-trace JSON file.
pub fn run_trace_export(addr: &str, opts: &TraceExportOptions) -> Result<String, String> {
    if opts.out.is_empty() {
        return Err("missing --out <trace.json>".to_string());
    }
    let mut client = Client::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let timelines = client
        .trace(opts.last, opts.min_ms, None)
        .map_err(|e| format!("trace fetch failed: {e}"))?;
    let mut json = rsj_obs::chrome_trace_json(&timelines);
    json.push('\n');
    std::fs::write(&opts.out, json).map_err(|e| format!("cannot write {}: {e}", opts.out))?;
    Ok(format!(
        "wrote {} timeline(s) to {}\n",
        timelines.len(),
        opts.out
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CostSpec;
    use rsj_core::SolverSpec;
    use rsj_dist::DistSpec;

    fn spawn_test_server() -> (String, std::thread::JoinHandle<std::io::Result<()>>) {
        let server = Server::bind(ServerConfig::default()).expect("bind");
        let addr = server.local_addr().to_string();
        let join = std::thread::spawn(move || server.run());
        (addr, join)
    }

    #[test]
    fn request_round_trip_against_live_server() {
        let (addr, join) = spawn_test_server();
        assert_eq!(
            run_request(
                &addr,
                &RequestAction::Ping,
                false,
                RequestOptions::default()
            )
            .unwrap(),
            "pong\n"
        );

        let cfg = PlanConfig {
            distribution: DistSpec::LogNormal {
                mu: 3.0,
                sigma: 0.5,
            },
            cost: CostSpec {
                alpha: 1.0,
                beta: 0.0,
                gamma: 0.0,
            },
            heuristic: SolverSpec::MeanByMean,
            show: 5,
        };
        let action = RequestAction::Plan(Box::new(cfg.clone()));
        let text = run_request(&addr, &action, false, RequestOptions::default()).unwrap();
        assert!(text.contains("plan digest"), "{text}");

        // The served digest equals the offline `rsj plan --json` digest.
        let offline = crate::commands::run_plan(&cfg, true, false).unwrap();
        let offline: serde_json::Value = serde_json::from_str(&offline).unwrap();
        let served = run_request(&addr, &action, true, RequestOptions::default()).unwrap();
        let served: serde_json::Value = serde_json::from_str(&served).unwrap();
        assert_eq!(served["plan"]["digest"], offline["digest"]);
        assert_eq!(served["plan"]["sequence"], offline["sequence"]);

        let metrics = run_request(
            &addr,
            &RequestAction::Metrics,
            false,
            RequestOptions::default(),
        )
        .unwrap();
        assert!(metrics.contains("rsj_serve_requests_total"), "{metrics}");

        assert!(run_request(
            &addr,
            &RequestAction::Shutdown,
            false,
            RequestOptions::default()
        )
        .unwrap()
        .contains("shutting down"));
        join.join().expect("server thread").expect("clean exit");
    }

    #[test]
    fn health_and_ready_round_trip_against_live_server() {
        let (addr, join) = spawn_test_server();
        assert_eq!(
            run_request(
                &addr,
                &RequestAction::Ready,
                false,
                RequestOptions::default()
            )
            .unwrap(),
            "ready\n"
        );
        let health = run_request(
            &addr,
            &RequestAction::Health,
            false,
            RequestOptions::default(),
        )
        .unwrap();
        assert!(health.contains("ready:            true"), "{health}");
        assert!(health.contains("recovered:        true"), "{health}");
        run_request(
            &addr,
            &RequestAction::Shutdown,
            false,
            RequestOptions::default(),
        )
        .unwrap();
        join.join().expect("server thread").expect("clean exit");
    }

    #[test]
    fn server_errors_exit_nonzero() {
        let (addr, join) = spawn_test_server();
        let cfg = PlanConfig {
            distribution: DistSpec::Exponential { lambda: -1.0 },
            cost: CostSpec {
                alpha: 1.0,
                beta: 0.0,
                gamma: 0.0,
            },
            heuristic: SolverSpec::MeanByMean,
            show: 5,
        };
        let err = run_request(
            &addr,
            &RequestAction::Plan(Box::new(cfg)),
            false,
            RequestOptions::default(),
        )
        .unwrap_err();
        assert!(err.contains("invalid_distribution"), "{err}");
        run_request(
            &addr,
            &RequestAction::Shutdown,
            false,
            RequestOptions::default(),
        )
        .unwrap();
        join.join().expect("server thread").expect("clean exit");
    }
}
