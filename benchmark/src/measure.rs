//! One run of one workload: the untraced measurement of the end-to-end
//! metrics, or the traced measurement of the per-layer ones.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use rsj_core::SolverSpec;
use rsj_obs::TimelineRecord;
use rsj_serve::journal::JOURNAL_FILE;
use rsj_serve::{JournalRecord, JournalWriter};
use serde_json::Value;

use crate::offline;
use crate::procfs::{self, TICKS_PER_S};
use crate::replay;
use crate::report::RunResult;
use crate::serve::{self, ConnLog, Server};
use crate::speed::{Host, Probe};
use crate::stats;
use crate::workloads::{self, Line, Rng, ServeLoad, OFFLINE_PLAN, SERVE_HIT, SERVE_MISS};

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;
/// Trace ring of the traced server, in timelines.
pub const TRACE_BUFFER: usize = 8192;
/// Sampled replies whose digests are recomputed in-process
/// (`serve_miss`, `serve_batch`), and sampled n=1000 offline calls
/// recomputed with the exact DP pass.
const CHECKED_REPLIES: usize = 512;
const CHECKED_OFFLINE: usize = 128;
/// Request lines the per-layer replay samples (frames on `serve_batch`).
const REPLAY_LINES: usize = 128;
const REPLAY_FRAMES: usize = 2;

/// Where the programs are and where a run may write.
pub struct Ctx {
    pub rsj: PathBuf,
    pub exe: PathBuf,
    pub work: PathBuf,
}

type Values = BTreeMap<&'static str, (f64, String)>;

fn put(values: &mut Values, name: &'static str, value: f64) {
    values.insert(name, (value, String::new()));
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn median(values: &[f64]) -> f64 {
    stats::quartiles(values).1
}

/// Windows the latency samples of a run are cut into at most.
const LATENCY_WINDOWS: usize = 30;

/// Latency metrics from nanosecond samples in completion order: medians
/// over windows of the windows' p50 and tail, with the tail's percentile
/// and the sample count in the note.
fn put_latency(values: &mut Values, latencies_ns: impl Iterator<Item = u64>) {
    let ms: Vec<f64> = latencies_ns.map(|ns| ns as f64 / 1e6).collect();
    let s = stats::windowed(&ms, LATENCY_WINDOWS);
    let windows = (s.n / stats::WINDOW_SAMPLES).clamp(1, LATENCY_WINDOWS);
    let note = format!("n={}, median of {windows} windows", s.n);
    values.insert("latency_p50_ms", (s.p50, note.clone()));
    values.insert(
        "latency_p99_ms",
        (s.tail, format!("p{:.1}; {note}", s.tail_q * 100.0)),
    );
}

/// One part of a timed run: plans completed, seconds taken, CPU ticks
/// spent, and how the host ran meanwhile.
struct Window {
    plans: f64,
    seconds: f64,
    ticks: f64,
    host: Host,
}

/// Throughput and CPU cost per 1,000 plans at the reference speed, each
/// the median over the run's windows.
fn put_rates(values: &mut Values, windows: &[Window]) {
    let throughput: Vec<f64> = windows
        .iter()
        .map(|w| ratio(w.plans, w.seconds) * w.host.wall)
        .collect();
    let cpu: Vec<f64> = windows
        .iter()
        .map(|w| ratio(w.ticks * 1e3 / TICKS_PER_S * 1e3, w.plans) / w.host.cpu)
        .collect();
    let of = |f: fn(&Host) -> f64| median(&windows.iter().map(|w| f(&w.host)).collect::<Vec<_>>());
    let note = format!(
        "median of {} windows; host factor {:.3}, stolen {:.2}%",
        windows.len(),
        of(|h| h.cpu),
        of(|h| h.stolen) * 100.0
    );
    values.insert("throughput_per_s", (median(&throughput), note.clone()));
    values.insert("cpu_ms_per_1k", (median(&cpu), note));
}

/// `setup_s`: the median set-up, each scaled to the reference speed.
fn put_setup(values: &mut Values, probe: &Probe, setups: &[(Instant, Instant)]) {
    let scaled: Vec<f64> = setups
        .iter()
        .map(|&(from, to)| (to - from).as_secs_f64() / probe.host(from, to).wall)
        .collect();
    let raw: Vec<f64> = setups
        .iter()
        .map(|&(from, to)| (to - from).as_secs_f64())
        .collect();
    let note = format!(
        "median of {} set-ups; unscaled {:.6}",
        setups.len(),
        median(&raw)
    );
    values.insert("setup_s", (median(&scaled), note));
}

pub fn run(
    ctx: &Ctx,
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> io::Result<RunResult> {
    let _ = std::fs::remove_dir_all(&ctx.work);
    std::fs::create_dir_all(&ctx.work)?;
    let outcome = match (workload == OFFLINE_PLAN, traced) {
        (false, false) => serving(ctx, &Probe::start(), workload, seed, seconds),
        (false, true) => serving_traced(ctx, workload, seed, seconds),
        (true, false) => offline_run(ctx, &Probe::start(), seed, seconds),
        (true, true) => offline_traced(ctx, seed, seconds),
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    let (values, tally) = outcome?;
    Ok(RunResult {
        workload: workload.to_string(),
        seed,
        traced,
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        first_failure: tally.first_failure,
        metrics: RunResult::metrics_from(traced, values),
    })
}

#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
}

impl Tally {
    fn add(&mut self, attempted: u64, failed: u64, why: Option<String>) {
        self.attempted += attempted;
        self.failed += failed;
        if self.first_failure.is_none() {
            self.first_failure = why;
        }
    }
}

/// One server lifetime: set-ups, the timed closed loop, and (traced)
/// the server's counters and timelines.
struct Pass {
    load: ServeLoad,
    /// When each set-up started and ended.
    setups: Vec<(Instant, Instant)>,
    logs: Vec<ConnLog>,
    /// When the timed window opened.
    origin: Instant,
    wall_s: f64,
    /// Server CPU ticks at each window boundary of the timed window.
    cpu_ticks: Vec<u64>,
    before: procfs::Sample,
    after: procfs::Sample,
    /// `metrics` op exposition before and after the timed window.
    counters: Option<(String, String)>,
    /// Plan timelines in the trace ring after the timed window, and
    /// those from set-up that the window's traffic pushed out of it.
    timelines: Vec<TimelineRecord>,
    setup_timelines: Vec<TimelineRecord>,
}

impl Pass {
    fn lines_sent(&self) -> f64 {
        self.logs.iter().map(|l| l.sent).sum::<usize>() as f64
    }

    fn items_ok(&self) -> f64 {
        self.logs.iter().map(|l| l.items_ok).sum::<usize>() as f64
    }

    /// Latencies of every reply, in completion order, each divided by
    /// the wall factor of the window it ended in.
    fn scaled_latencies_ns(&self, windows: &[Window]) -> Vec<u64> {
        let mut replies: Vec<_> = self.logs.iter().flat_map(|l| &l.replies).collect();
        replies.sort_by_key(|r| r.end_ns);
        let window_ns = serve::WINDOW.as_nanos() as u64;
        replies
            .iter()
            .map(|r| {
                let w = ((r.end_ns / window_ns) as usize).min(windows.len().saturating_sub(1));
                let factor = windows.get(w).map_or(1.0, |w| w.host.wall);
                (r.latency_ns as f64 / factor) as u64
            })
            .collect()
    }

    /// Plans completed, server CPU ticks spent and how the host ran in
    /// each full window.
    fn windows(&self, probe: &Probe) -> Vec<Window> {
        let mut windows: Vec<Window> = self
            .cpu_ticks
            .windows(2)
            .enumerate()
            .map(|(k, t)| {
                let from = self.origin + serve::WINDOW * k as u32;
                Window {
                    plans: 0.0,
                    seconds: serve::WINDOW.as_secs_f64(),
                    ticks: (t[1] - t[0]) as f64,
                    host: probe.host(from, from + serve::WINDOW),
                }
            })
            .collect();
        let window_ns = serve::WINDOW.as_nanos() as u64;
        for reply in self.logs.iter().flat_map(|l| &l.replies) {
            if let Some(w) = windows.get_mut((reply.end_ns / window_ns) as usize) {
                w.plans += f64::from(reply.items_ok);
            }
        }
        windows
    }

    /// Each connection's log with the request lines it cycled through.
    fn streams(&self) -> impl Iterator<Item = (&ConnLog, &[Line])> {
        let conns = self.load.conns.iter().filter(|c| !c.is_empty());
        self.logs.iter().zip(conns.map(Vec::as_slice))
    }

    fn tally(&self, tally: &mut Tally) {
        for log in &self.logs {
            tally.add(
                log.items_sent as u64,
                log.failures as u64,
                log.first_failure.clone(),
            );
        }
    }

    /// `(trace id → client latency)` of the last use of each line.
    fn latency_by_trace_id(&self) -> HashMap<&str, u64> {
        let mut out = HashMap::new();
        for (log, lines) in self.streams() {
            for (k, reply) in log.replies.iter().enumerate() {
                out.insert(lines[k % lines.len()].trace_id.as_str(), reply.latency_ns);
            }
        }
        out
    }
}

/// Digests every hit key must come back with, computed in-process.
fn expected_digests(load: &ServeLoad) -> io::Result<Vec<Option<[u8; 16]>>> {
    load.table
        .iter()
        .map(|req| {
            let plan = req
                .planner()
                .and_then(|p| p.plan())
                .map_err(io::Error::other)?;
            let digest: [u8; 16] = plan
                .digest
                .as_bytes()
                .try_into()
                .map_err(io::Error::other)?;
            Ok(Some(digest))
        })
        .collect()
}

/// Writes the journal `serve_miss` recovers at start-up (untimed).
fn seed_journal(dir: &Path) -> io::Result<()> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir)?;
    let mut writer =
        JournalWriter::open(dir.join(JOURNAL_FILE), false).map_err(io::Error::other)?;
    for req in workloads::journal_requests() {
        let planner = req.planner().map_err(io::Error::other)?;
        let key =
            replay::cache_key(&planner, &req).ok_or_else(|| io::Error::other("keyless law"))?;
        let plan = planner.plan().map_err(io::Error::other)?;
        writer
            .append(&JournalRecord { key, plan })
            .map_err(io::Error::other)?;
    }
    Ok(())
}

fn client_error(e: rsj_serve::ClientError) -> io::Error {
    io::Error::other(e.to_string())
}

/// The plan timelines in the server's trace ring, newest first.
fn plan_timelines(client: &mut rsj_serve::Client) -> io::Result<Vec<TimelineRecord>> {
    let mut all = client
        .trace(Some(TRACE_BUFFER), None, None)
        .map_err(client_error)?;
    all.retain(|r| r.op == "plan" || r.op == "plan_batch");
    Ok(all)
}

/// Spawns `reps` servers one after another (each timed from spawn
/// through readiness and warm-up), keeps the last, and drives the load
/// against it for `seconds`.
fn pass(
    ctx: &Ctx,
    load: ServeLoad,
    workload: &str,
    seconds: f64,
    traced: bool,
    reps: usize,
) -> io::Result<Pass> {
    let expected = if workload == SERVE_HIT {
        expected_digests(&load)?
    } else {
        Vec::new()
    };
    let journal = (workload == SERVE_MISS).then(|| ctx.work.join("journal"));
    if let Some(dir) = &journal {
        // Set-ups send no plans, so every one of them recovers this same
        // journal; the timed window then appends to it.
        seed_journal(dir)?;
    }
    let trace_buffer = traced.then_some(TRACE_BUFFER);
    let mut setups = Vec::new();
    let mut server = None;
    for rep in 0..reps {
        let started = Instant::now();
        let s = Server::spawn(&ctx.rsj, journal.as_deref(), trace_buffer)?;
        s.wait_ready(Duration::from_secs(120))?;
        serve::send_once(s.addr, &load.warmup, &expected)?;
        setups.push((started, Instant::now()));
        if rep + 1 < reps {
            s.stop()?;
        } else {
            server = Some(s);
        }
    }
    let server = server.ok_or_else(|| io::Error::other("no set-up ran"))?;
    let mut control = if traced { Some(server.client()?) } else { None };
    let (mut timelines, mut setup_timelines) = (Vec::new(), Vec::new());
    let mut counters_before = String::new();
    if let Some(c) = control.as_mut() {
        setup_timelines = plan_timelines(c)?;
        counters_before = c.metrics().map_err(client_error)?;
    }
    let before = procfs::sample(server.pid())?;
    let duration = Duration::from_secs_f64(seconds);
    let run = serve::run_load(server.addr, server.pid(), &load, &expected, duration)?;
    let after = procfs::sample(server.pid())?;
    let mut counters = None;
    if let Some(c) = control.as_mut() {
        let counters_after = c.metrics().map_err(client_error)?;
        counters = Some((counters_before, counters_after));
        timelines = plan_timelines(c)?;
        let later: HashSet<&str> = timelines.iter().map(|t| t.trace_id.as_str()).collect();
        setup_timelines.retain(|t| !later.contains(t.trace_id.as_str()));
    }
    drop(control);
    server.stop()?;
    Ok(Pass {
        load,
        setups,
        logs: run.logs,
        origin: run.origin,
        wall_s: run.wall_s,
        cpu_ticks: run.cpu_ticks,
        before,
        after,
        counters,
        timelines,
        setup_timelines,
    })
}

/// Recomputes a seeded sample of the received plans in-process and
/// counts digest mismatches.
fn check_sample(pass: &Pass, seed: u64, tally: &mut Tally) -> io::Result<()> {
    let mut received: BTreeMap<usize, Vec<[u8; 16]>> = BTreeMap::new();
    for log in &pass.logs {
        for (item, digest) in &log.digests {
            received.entry(*item).or_default().push(*digest);
        }
    }
    let items: Vec<usize> = received.keys().copied().collect();
    let mut rng = Rng::new(seed, 50);
    let mut mismatches = 0;
    let mut why = None;
    let checked = CHECKED_REPLIES.min(items.len());
    for _ in 0..checked {
        let item = items[rng.below(items.len())];
        let plan = pass.load.table[item]
            .planner()
            .and_then(|p| p.plan())
            .map_err(io::Error::other)?;
        for digest in &received[&item] {
            if digest != plan.digest.as_bytes() {
                mismatches += 1;
                why.get_or_insert_with(|| {
                    format!("served digest differs from offline on item {item}")
                });
            }
        }
    }
    tally.add(0, mismatches, why);
    Ok(())
}

fn serving(
    ctx: &Ctx,
    probe: &Probe,
    workload: &str,
    seed: u64,
    seconds: f64,
) -> io::Result<(Values, Tally)> {
    let load = workloads::serve_load(workload, seed, seconds.ceil() as u64);
    let p = pass(ctx, load, workload, seconds, false, SETUP_REPS)?;
    let mut tally = Tally::default();
    p.tally(&mut tally);
    if workload != SERVE_HIT {
        check_sample(&p, seed, &mut tally)?;
    }
    let mut values = Values::new();
    let windows = p.windows(probe);
    put_rates(&mut values, &windows);
    put_latency(&mut values, p.scaled_latencies_ns(&windows).into_iter());
    put(
        &mut values,
        "peak_rss_mb",
        p.after.peak_rss_kb as f64 / 1024.0,
    );
    put_setup(&mut values, probe, &p.setups);
    Ok((values, tally))
}

/// A seeded sample of a load's request lines for the replay.
fn replay_sample(load: &ServeLoad, seed: u64, count: usize) -> Vec<Line> {
    let all: Vec<&Line> = load.conns.iter().flatten().collect();
    let mut rng = Rng::new(seed, 60);
    (0..count.min(all.len()))
        .map(|_| all[rng.below(all.len())].clone())
        .collect()
}

fn stage_durations(timelines: &[&TimelineRecord], stage: &str) -> Vec<u64> {
    timelines
        .iter()
        .flat_map(|t| t.stages.iter().filter(|s| s.name == stage))
        .map(|s| s.duration_us())
        .collect()
}

/// The warm share of the eval tables the server's solves used, from the
/// `eval_table` argument of `solve` (and batch `item`) stages.
fn warm_ratio<'a>(timelines: impl Iterator<Item = &'a TimelineRecord>) -> f64 {
    let (mut warm, mut all) = (0.0, 0.0);
    for stage in timelines.flat_map(|t| &t.stages) {
        for (k, v) in &stage.args {
            if k == "eval_table" {
                all += 1.0;
                if v == "warm" {
                    warm += 1.0;
                }
            }
        }
    }
    ratio(warm, all)
}

/// The server-side per-layer metrics of a traced pass.
fn server_layers(p: &Pass, values: &mut Values) {
    let lines = p.lines_sent();
    let (b, a) = (&p.before, &p.after);
    let (before, after) = p.counters.as_ref().expect("traced pass");
    let delta = |name: &str| (serve::counter(after, name) - serve::counter(before, name)) as f64;
    // `/proc/<pid>/io` sees read/write-family calls only: the journal,
    // snapshots and the reactor's waker, not the sockets (recv/send).
    let rw_calls = (a.io.syscr + a.io.syscw) - (b.io.syscr + b.io.syscw);
    put(
        values,
        "server.rw_syscalls_per_req",
        ratio(rw_calls as f64, lines),
    );
    put(
        values,
        "server.bytes_written_per_req",
        ratio((a.io.wchar - b.io.wchar) as f64, lines),
    );
    put(
        values,
        "server.ctx_switches_per_req",
        ratio((a.ctx_switches - b.ctx_switches) as f64, lines),
    );
    put(
        values,
        "server.reconnects_per_1k",
        ratio(delta("rsj_serve_connections_total") * 1e3, lines),
    );
    let sent: usize = p
        .streams()
        .flat_map(|(log, lines)| (0..log.sent).map(move |k| lines[k % lines.len()].text.len()))
        .sum();
    put(values, "protocol.request_bytes", ratio(sent as f64, lines));
    let received: u64 = p.logs.iter().map(|l| l.response_bytes).sum();
    put(
        values,
        "protocol.response_bytes",
        ratio(received as f64, lines),
    );
    let (hits, misses) = (
        delta("rsj_serve_cache_hits_total"),
        delta("rsj_serve_cache_misses_total"),
    );
    put(values, "cache.hit_ratio", ratio(hits, hits + misses));
    let (leaders, joined) = (
        delta("rsj_serve_singleflight_leaders_total"),
        delta("rsj_serve_singleflight_coalesced_total"),
    );
    put(
        values,
        "singleflight.coalesced_ratio",
        ratio(joined, leaders + joined),
    );
    // Distinct keys per pass over the cycled lines: a key sent again a
    // whole cycle later is long evicted and needs its solve again.
    let keys: HashSet<(usize, usize)> = p
        .streams()
        .flat_map(|(log, lines)| {
            (0..log.sent).flat_map(move |k| {
                let cycle = k / lines.len();
                lines[k % lines.len()]
                    .items
                    .iter()
                    .map(move |&i| (i, cycle))
            })
        })
        .collect();
    let solves = delta("rsj_serve_solver_invocations_total");
    put(
        values,
        "singleflight.solves_per_key",
        ratio(solves, keys.len() as f64),
    );
    let gen_cpu_ms = p.logs.iter().map(|l| l.cpu_ns).sum::<u64>() as f64 / 1e6;
    put(
        values,
        "gen.cpu_ms_per_1k",
        ratio(gen_cpu_ms * 1e3, p.items_ok()),
    );

    // Stage timings of the timelines whose requests this pass timed.
    let latency = p.latency_by_trace_id();
    let mut seen: HashMap<&str, usize> = HashMap::new();
    for t in &p.timelines {
        *seen.entry(t.trace_id.as_str()).or_default() += 1;
    }
    let matched: Vec<&TimelineRecord> = p
        .timelines
        .iter()
        .filter(|t| seen[t.trace_id.as_str()] == 1 && latency.contains_key(t.trace_id.as_str()))
        .collect();
    let median_us = |stage: &str| stats::grouped_quantile(&stage_durations(&matched, stage), 0.5);
    put(values, "server.write_us_p50", median_us("write"));
    put(
        values,
        "admission.queue_wait_us_p50",
        median_us("queue_wait"),
    );
    let waits = stage_durations(&matched, "queue_wait");
    let tail = stats::tail_quantile(waits.len());
    put(
        values,
        "admission.queue_wait_us_p99",
        stats::grouped_quantile(&waits, tail),
    );
    put(values, "cache.lookup_us_p50", median_us("cache_lookup"));
    let stage_sum: u64 = matched.iter().map(|t| t.stage_sum_us()).sum();
    let total: u64 = matched.iter().map(|t| t.total_us).sum();
    values.insert(
        "trace.stage_coverage",
        (
            ratio(stage_sum as f64, total as f64),
            format!("{} timelines", matched.len()),
        ),
    );
    let gaps: Vec<f64> = matched
        .iter()
        .map(|t| latency[t.trace_id.as_str()] as f64 / 1e3 - t.total_us as f64)
        .collect();
    put(
        values,
        "trace.unattributed_us_p50",
        stats::summarize(gaps).p50,
    );
    // On `serve_hit` the only solves are the set-up warm-fill's.
    let solved = p.timelines.iter().chain(&p.setup_timelines);
    put(values, "eval_table.warm_ratio", warm_ratio(solved));
}

fn replay_layers(
    ctx: &Ctx,
    load: &ServeLoad,
    workload: &str,
    seed: u64,
    values: &mut Values,
) -> io::Result<()> {
    let count = if workload == workloads::SERVE_BATCH {
        REPLAY_FRAMES
    } else {
        REPLAY_LINES
    };
    for (name, value) in replay::run(&replay_sample(load, seed, count), &ctx.work, seed)? {
        put(values, name, value);
    }
    Ok(())
}

fn serving_traced(
    ctx: &Ctx,
    workload: &str,
    seed: u64,
    seconds: f64,
) -> io::Result<(Values, Tally)> {
    let half = seconds / 2.0;
    let secs = half.ceil() as u64;
    let plain = pass(
        ctx,
        workloads::serve_load(workload, seed, secs),
        workload,
        half,
        false,
        1,
    )?;
    let traced = pass(
        ctx,
        workloads::serve_load(workload, seed, secs),
        workload,
        half,
        true,
        1,
    )?;
    let mut tally = Tally::default();
    for p in [&plain, &traced] {
        p.tally(&mut tally);
        if workload != SERVE_HIT {
            check_sample(p, seed, &mut tally)?;
        }
    }
    let mut values = Values::new();
    server_layers(&traced, &mut values);
    put(
        &mut values,
        "trace.overhead_ratio",
        ratio(
            traced.items_ok() / traced.wall_s,
            plain.items_ok() / plain.wall_s,
        ),
    );
    replay_layers(ctx, &traced.load, workload, seed, &mut values)?;
    Ok((values, tally))
}

fn num(v: &Value, key: &str) -> io::Result<f64> {
    v[key]
        .as_f64()
        .ok_or_else(|| io::Error::other(format!("offline child result lacks {key}")))
}

fn offline_tally(result: &Value, tally: &mut Tally) -> io::Result<()> {
    let failures = num(result, "failures")? as u64;
    let why = result["first_failure"]
        .as_str()
        .filter(|s| !s.is_empty())
        .map(str::to_string);
    tally.add(num(result, "calls")? as u64, failures, why);
    Ok(())
}

/// Recomputes a seeded sample of the child's n=1000 plans with the exact
/// O(n²) DP pass (`monotone: false`), which the fast path must match bit
/// for bit.
fn check_offline(result: &Value, seed: u64, seconds: f64, tally: &mut Tally) -> io::Result<()> {
    let calls = offline::calls_for(seed, seconds);
    let digests = result["digests"].as_array().cloned().unwrap_or_default();
    let candidates: Vec<usize> = (0..digests.len())
        .filter(|&i| {
            matches!(
                calls[i % calls.len()].solver,
                SolverSpec::Dp { n: 1000, .. }
            )
        })
        .collect();
    if candidates.is_empty() {
        return Ok(());
    }
    let mut rng = Rng::new(seed, 70);
    let (mut mismatches, mut why) = (0, None);
    for _ in 0..CHECKED_OFFLINE {
        let i = candidates[rng.below(candidates.len())];
        let mut req = calls[i % calls.len()].clone();
        if let SolverSpec::Dp { monotone, .. } = &mut req.solver {
            *monotone = false;
        }
        let exact = req
            .planner()
            .and_then(|p| p.plan())
            .map_err(io::Error::other)?;
        if digests[i].as_str() != Some(exact.digest.as_str()) {
            mismatches += 1;
            why.get_or_insert_with(|| format!("offline call {i} differs from the exact DP pass"));
        }
    }
    tally.add(0, mismatches, why);
    Ok(())
}

fn offline_run(ctx: &Ctx, probe: &Probe, seed: u64, seconds: f64) -> io::Result<(Values, Tally)> {
    let run = offline::run(&ctx.exe, seed, seconds, false, SETUP_REPS)?;
    let r = &run.result;
    let mut tally = Tally::default();
    offline_tally(r, &mut tally)?;
    check_offline(r, seed, seconds, &mut tally)?;
    let column = |key: &str| -> Vec<f64> {
        r[key]
            .as_array()
            .map(|a| a.iter().filter_map(Value::as_f64).collect())
            .unwrap_or_default()
    };
    // The child's windows are whole cycles of the call mix, so each holds
    // the same work; fixed-time windows would not. They follow one
    // another from the moment the child was told to go.
    let mut from = run.go_at;
    let windows: Vec<Window> = (column("block_ok").into_iter())
        .zip(column("block_s"))
        .zip(column("block_ticks"))
        .map(|((plans, seconds), ticks)| {
            let to = from + Duration::from_secs_f64(seconds);
            let host = probe.host(from, to);
            from = to;
            Window {
                plans,
                seconds,
                ticks,
                host,
            }
        })
        .collect();
    let mut values = Values::new();
    put_rates(&mut values, &windows);
    // Call `i` belongs to cycle `i / OFFLINE_CYCLE`; calls after the last
    // whole cycle take the wall factor of the last one.
    let latencies = column("latencies_ns")
        .into_iter()
        .enumerate()
        .map(|(i, ns)| {
            let w = (i / workloads::OFFLINE_CYCLE).min(windows.len().saturating_sub(1));
            (ns / windows.get(w).map_or(1.0, |w| w.host.wall)) as u64
        });
    put_latency(&mut values, latencies);
    put(&mut values, "peak_rss_mb", num(r, "peak_rss_kb")? / 1024.0);
    put_setup(&mut values, probe, &run.setups);
    Ok((values, tally))
}

/// The traced offline run, a third of the time each: the child untraced
/// and traced (the overhead, coverage and table-warmth numbers), then a
/// pass of the same calls through a traced `rsj serve` (so the serving
/// layers' numbers exist for these inputs too); then the replay.
fn offline_traced(ctx: &Ctx, seed: u64, seconds: f64) -> io::Result<(Values, Tally)> {
    let third = seconds / 3.0;
    let plain = offline::run(&ctx.exe, seed, third, false, 1)?.result;
    let traced = offline::run(&ctx.exe, seed, third, true, 1)?.result;
    let mut tally = Tally::default();
    for r in [&plain, &traced] {
        offline_tally(r, &mut tally)?;
        check_offline(r, seed, third, &mut tally)?;
    }
    let load = workloads::serve_load(OFFLINE_PLAN, seed, third.ceil() as u64);
    let served = pass(ctx, load, OFFLINE_PLAN, third, true, 1)?;
    served.tally(&mut tally);
    check_sample(&served, seed, &mut tally)?;

    let mut values = Values::new();
    server_layers(&served, &mut values);
    let throughput = |r: &Value| -> io::Result<f64> {
        Ok((num(r, "calls")? - num(r, "failures")?) / num(r, "wall_s")?)
    };
    put(
        &mut values,
        "trace.overhead_ratio",
        ratio(throughput(&traced)?, throughput(&plain)?),
    );
    put(
        &mut values,
        "trace.stage_coverage",
        ratio(num(&traced, "stage_us")?, num(&traced, "wall_us")?),
    );
    let gaps: Vec<f64> = traced["unattributed_us"]
        .as_array()
        .map(|a| a.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default();
    put(
        &mut values,
        "trace.unattributed_us_p50",
        stats::summarize(gaps).p50,
    );
    let (warm, cold) = (num(&traced, "warm_tables")?, num(&traced, "cold_tables")?);
    put(
        &mut values,
        "eval_table.warm_ratio",
        ratio(warm, warm + cold),
    );
    replay_layers(ctx, &served.load, OFFLINE_PLAN, seed, &mut values)?;
    Ok((values, tally))
}
