//! The per-layer replay: a seeded sample of a workload's request lines,
//! run in this process through each layer's public functions, with a
//! span recorded around every call.
//!
//! A span holds the layer function's name, its duration, and the heap
//! allocations made on this thread while it was open (counted by [`CountingAlloc`], which counts only
//! inside a span). The program itself carries no instrumentation for
//! this: a rename of one of these functions changes only this module.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashSet;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use reservation_strategies::{Plan, PlanRequest, Planner};
use rsj_core::{optimal_discrete, CancelToken, CostModel, ReservationSequence, SolverSpec};
use rsj_dist::{discretize, DiscreteDistribution, EvalTable};
use rsj_obs::{Timeline, TraceContext};
use rsj_serve::{
    decode_request, encode, recover, BatchItem, JournalRecord, JournalWriter, PlanCache,
    Provenance, Request, Response, Timings, PROTOCOL_VERSION,
};

use crate::stats;
use crate::workloads::{Line, SIMULATE_JOBS};

/// The global allocator of the benchmark binary: the system allocator,
/// plus a per-thread count of allocations made while a replay span is
/// open on that thread.
pub struct CountingAlloc;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    // `try_with`: allocations during thread teardown find no TLS slot.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's obligations under `GlobalAlloc` are exactly `System`'s;
// the counting touches only const-initialized thread-locals, which never
// allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: forwarded verbatim; see the impl comment.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: forwarded verbatim; see the impl comment.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        // SAFETY: forwarded verbatim; see the impl comment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; see the impl comment.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub dur_ns: u64,
    pub allocs: u64,
}

/// The replay's spans, kept in memory until the metrics are computed.
#[derive(Default)]
pub struct Recorder {
    pub spans: Vec<Span>,
}

impl Recorder {
    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let allocs_before = ALLOCS.with(Cell::get);
        COUNTING.with(|c| c.set(true));
        let start = Instant::now();
        let out = f();
        let dur = start.elapsed();
        COUNTING.with(|c| c.set(false));
        self.spans.push(Span {
            name,
            dur_ns: dur.as_nanos() as u64,
            allocs: ALLOCS.with(Cell::get) - allocs_before,
        });
        out
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Durations of the spans named `name`, in microseconds.
    pub fn micros(&self, name: &str) -> Vec<f64> {
        self.named(name).map(|s| s.dur_ns as f64 / 1e3).collect()
    }

    pub fn mean_allocs(&self, name: &str) -> f64 {
        mean(self.named(name).map(|s| s.allocs as f64))
    }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

fn p50(values: Vec<f64>) -> f64 {
    stats::summarize(values).p50
}

fn tail(values: Vec<f64>) -> f64 {
    stats::summarize(values).tail
}

/// DP solves replayed per workload: enough for a true 99th percentile.
const DP_SOLVES: usize = 1024;
/// Journal records appended (and then recovered) per workload.
const JOURNAL_APPENDS: usize = 1024;
/// Sampled plans replayed through the simulator.
const SIM_PLANS: usize = 8;
/// Items per replayed `plan_many` call.
const FRAME: usize = 128;

fn bad(what: impl std::fmt::Display) -> io::Error {
    io::Error::other(format!("replay: {what}"))
}

/// The plan requests a decoded line carries.
fn items_of(request: Request) -> io::Result<Vec<PlanRequest>> {
    match request {
        Request::Plan {
            distribution,
            cost,
            solver,
            seed,
            simulate,
            ..
        } => Ok(vec![PlanRequest {
            distribution,
            cost,
            solver,
            seed,
            simulate,
        }]),
        Request::PlanBatch { items, .. } => Ok(items),
        other => Err(bad(format!("unexpected request {other:?}"))),
    }
}

/// The server's plan-cache key for `req` (planner key plus the simulate
/// options).
pub fn cache_key(planner: &Planner, req: &PlanRequest) -> Option<String> {
    let sim = match req.simulate {
        Some(s) => format!("jobs={},seed={}", s.jobs, s.seed),
        None => "none".to_string(),
    };
    Some(format!("{}|sim={sim}", planner.cache_key()?))
}

fn provenance(solver: &SolverSpec) -> Provenance {
    Provenance {
        server: "rsj-serve".to_string(),
        protocol: PROTOCOL_VERSION,
        solver: solver.name().to_string(),
        threads: 1,
        cached: false,
        coalesced: false,
    }
}

/// Replays `lines` (a sample of one workload's requests) and returns the
/// per-layer metrics it measures, by name.
pub fn run(lines: &[Line], work: &Path, seed: u64) -> io::Result<Vec<(&'static str, f64)>> {
    let mut rec = Recorder::default();
    let cache = PlanCache::new(256, 8);
    rsj_dist::clear_eval_cache();
    let mut frames: Vec<Vec<PlanRequest>> = Vec::new();
    let mut solved: Vec<(PlanRequest, String, Arc<Plan>)> = Vec::new();
    let mut dp_inputs: Vec<(DiscreteDistribution, CostModel)> = Vec::new();
    let (mut solve_us, mut score_us) = (Vec::new(), Vec::new());

    for line in lines {
        let decoded = rec
            .span("protocol.decode", || decode_request(&line.text))
            .map_err(|(kind, msg)| bad(format!("{kind}: {msg}")))?;
        let batch = matches!(decoded, Request::PlanBatch { .. });
        let items = items_of(decoded)?;
        let mut answers = Vec::new();
        for req in &items {
            let planner = rec.span("planner.build", || req.planner()).map_err(bad)?;
            let key = cache_key(&planner, req).ok_or_else(|| bad("uncacheable law"))?;
            if let SolverSpec::Dp {
                scheme, n, epsilon, ..
            } = req.solver
            {
                let dist = req.distribution.build().map_err(bad)?;
                let discrete = rec
                    .span("eval_table.build", || {
                        let discrete = discretize(dist.as_ref(), scheme, n, epsilon)?;
                        EvalTable::build(dist.as_ref(), discrete.values().to_vec())?;
                        Ok::<_, rsj_dist::DistError>(discrete)
                    })
                    .map_err(bad)?;
                let cost = *planner.cost_model();
                dp_inputs.push((discrete, cost));
            }
            let mut timeline = Timeline::begin(TraceContext::generate(), Instant::now());
            let plan = rec
                .span("planner.plan", || {
                    planner.plan_traced(&CancelToken::none(), &mut timeline)
                })
                .map_err(bad)?;
            let record = timeline.finish("plan").expect("live timeline");
            solve_us.extend(record.stage_us("solve"));
            score_us.extend(record.stage_us("score"));
            let plan = Arc::new(plan);
            cache.insert(key.clone(), Arc::clone(&plan));
            rec.span("cache.get", || cache.get(&key));
            answers.push((req.solver.clone(), Arc::clone(&plan)));
            solved.push((req.clone(), key, plan));
        }
        let response = if batch {
            Response::PlanBatch {
                v: 2,
                results: answers
                    .iter()
                    .map(|(solver, plan)| BatchItem::Plan {
                        plan: (**plan).clone(),
                        provenance: provenance(solver),
                    })
                    .collect(),
                trace_id: Some(line.trace_id.clone()),
                timeline: None,
            }
        } else {
            let (solver, plan) = &answers[0];
            Response::Plan {
                v: PROTOCOL_VERSION,
                plan: (**plan).clone(),
                provenance: provenance(solver),
                timings: Timings {
                    build_seconds: 0.0,
                    solve_seconds: 0.0,
                    total_seconds: 0.0,
                },
                trace_id: Some(line.trace_id.clone()),
                timeline: None,
            }
        };
        rec.span("protocol.encode", || encode(&response))
            .map_err(bad)?;
        if batch {
            frames.push(items);
        }
    }
    if frames.is_empty() {
        frames = solved
            .chunks(FRAME)
            .map(|chunk| chunk.iter().map(|(req, _, _)| req.clone()).collect())
            .collect();
    }

    // The DP pass alone, over the sample's discretized laws, with the
    // solver's counters on for just this loop.
    let registry = rsj_obs::global_registry();
    let counter = |name: &str| registry.counter(name).get();
    let names = [
        "rsj_core_dp_solves_total",
        "rsj_core_dp_monotone_evals_total",
        "rsj_core_dp_transitions_total",
        "rsj_core_dp_monotone_solves_total",
        "rsj_core_dp_monotone_declined_total",
    ];
    let before: Vec<u64> = names.iter().map(|n| counter(n)).collect();
    rsj_obs::set_metrics_enabled(true);
    if !dp_inputs.is_empty() {
        for k in 0..DP_SOLVES {
            let (discrete, cost) = &dp_inputs[k % dp_inputs.len()];
            rec.span("dp.solve", || optimal_discrete(discrete, cost))
                .map_err(bad)?;
        }
    }
    rsj_obs::set_metrics_enabled(false);
    let delta: Vec<f64> = names
        .iter()
        .zip(&before)
        .map(|(n, b)| (counter(n) - b) as f64)
        .collect();
    let (solves, evals, transitions, fast, declined) =
        (delta[0], delta[1], delta[2], delta[3], delta[4]);

    // Journal appends of the sample's plans, then a recovery of them.
    let dir = work.join("replay-journal");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;
    let mut writer =
        JournalWriter::open(dir.join(rsj_serve::journal::JOURNAL_FILE), false).map_err(bad)?;
    let mut frame_bytes = Vec::new();
    for k in 0..JOURNAL_APPENDS {
        let (_, key, plan) = &solved[k % solved.len()];
        let record = JournalRecord {
            key: format!("{key}#{k}"),
            plan: (**plan).clone(),
        };
        frame_bytes.push(
            rec.span("journal.append", || writer.append(&record))
                .map_err(bad)? as f64,
        );
    }
    drop(writer);
    let stats = rec.span("recovery.recover", || {
        recover(&dir, &PlanCache::new(256, 8))
    })?;
    let recover_s = rec.micros("recovery.recover")[0] / 1e6;

    // The simulator on the first few sampled plans.
    for (req, _, plan) in solved.iter().take(SIM_PLANS) {
        let dist = req.distribution.build().map_err(bad)?;
        let seq = ReservationSequence::new(plan.sequence.clone(), plan.complete).map_err(bad)?;
        let cost = req.cost.unwrap_or_else(CostModel::reservation_only);
        let par = rsj_par::Parallelism::serial();
        rec.span("sim.run_batch", || {
            rsj_sim::run_batch_seeded(&seq, dist.as_ref(), &cost, SIMULATE_JOBS, seed, &par)
        })
        .map_err(bad)?;
    }

    // The batch entry point over frames of the sample.
    let mut item_us = Vec::new();
    let mut groups = Vec::new();
    for frame in &frames {
        rsj_dist::clear_eval_cache();
        let mut timeline = Timeline::begin(TraceContext::generate(), Instant::now());
        let results = Planner::plan_many_traced(frame, &CancelToken::none(), &mut timeline);
        if let Some(Err(e)) = results.into_iter().find(Result::is_err) {
            return Err(bad(e));
        }
        let record = timeline.finish("plan_batch").expect("live timeline");
        item_us.extend(
            record
                .stages
                .iter()
                .filter(|s| s.name == "item")
                .map(|s| s.duration_us()),
        );
        let keys: HashSet<Option<String>> = frame
            .iter()
            .map(|req| req.planner().ok().and_then(|p| p.group_key()))
            .collect();
        groups.push(keys.len() as f64);
    }

    let sim_us_per_1k: Vec<f64> = rec
        .micros("sim.run_batch")
        .into_iter()
        .map(|us| us / (SIMULATE_JOBS as f64 / 1e3))
        .collect();
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    Ok(vec![
        ("protocol.decode_us_p50", p50(rec.micros("protocol.decode"))),
        ("protocol.decode_allocs", rec.mean_allocs("protocol.decode")),
        ("protocol.encode_us_p50", p50(rec.micros("protocol.encode"))),
        ("protocol.encode_allocs", rec.mean_allocs("protocol.encode")),
        ("cache.get_allocs", rec.mean_allocs("cache.get")),
        ("planner.build_us_p50", p50(rec.micros("planner.build"))),
        (
            "planner.solve_us_p50",
            stats::grouped_quantile(&solve_us, 0.5),
        ),
        (
            "planner.solve_us_p99",
            stats::grouped_quantile(&solve_us, stats::tail_quantile(solve_us.len())),
        ),
        (
            "planner.score_us_p50",
            stats::grouped_quantile(&score_us, 0.5),
        ),
        ("planner.plan_allocs", rec.mean_allocs("planner.plan")),
        ("batch.item_us_p50", stats::grouped_quantile(&item_us, 0.5)),
        ("batch.groups_per_frame", mean(groups.into_iter())),
        (
            "eval_table.build_us_p50",
            p50(rec.micros("eval_table.build")),
        ),
        ("dp.solve_us_p50", p50(rec.micros("dp.solve"))),
        ("dp.solve_us_p99", tail(rec.micros("dp.solve"))),
        ("dp.evals_per_solve", ratio(evals + transitions, solves)),
        ("dp.fallback_ratio", ratio(declined, fast + declined)),
        ("journal.append_us_p50", p50(rec.micros("journal.append"))),
        ("journal.bytes_per_record", mean(frame_bytes.into_iter())),
        (
            "recovery.records_per_s",
            ratio(stats.recovered_records as f64, recover_s),
        ),
        ("sim.us_per_1k_jobs", p50(sim_us_per_1k)),
    ])
}
