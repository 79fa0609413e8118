//! The `offline_plan` workload: `PlanRequest::planner()?.plan()` calls,
//! the `rsj plan` path, in a fresh child process of this binary, on one
//! thread with no server.
//!
//! Protocol with the child: it builds its inputs, warms up on Table 1's
//! laws, prints `ready` and waits for `go` on stdin (EOF
//! makes it exit instead, which is how the extra set-ups end); then it
//! plans until its time is up and prints one JSON result line.

use std::io::{self, BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use reservation_strategies::PlanRequest;
use rsj_core::CancelToken;
use rsj_dist::{DiscretizationScheme, DistSpec};
use rsj_obs::{Timeline, TraceContext};
use serde_json::{json, Value};

use crate::procfs;
use crate::workloads::{dp, offline_calls, OFFLINE_CALLS_PER_S, OFFLINE_CYCLE};

/// The calls a run of `seconds` may make (the list wraps if a host is
/// faster than the sizing assumed; a wrapped law is long gone from the
/// 128-entry table memo, so it stays cold).
pub fn calls_for(seed: u64, seconds: f64) -> Vec<PlanRequest> {
    offline_calls(seed, OFFLINE_CALLS_PER_S * seconds.ceil().max(1.0) as usize)
}

fn own_cpu_ticks() -> io::Result<u64> {
    procfs::cpu_ticks(std::process::id())
}

/// The child side.
pub fn child(seed: u64, seconds: f64, traced: bool) -> io::Result<()> {
    // One thread: the simulator's pool would otherwise take the second
    // CPU, and the workload is the single caller's path.
    rsj_par::Parallelism::serial().install_global();
    let calls = calls_for(seed, seconds);
    // Set-up: every family × scheme × n path of the call mix runs once,
    // on the fixed Table 1 laws, before timing starts.
    for (_, law) in DistSpec::paper_table1() {
        for scheme in [
            DiscretizationScheme::EqualProbability,
            DiscretizationScheme::EqualTime,
        ] {
            for n in [1000, 5000] {
                PlanRequest::new(law.clone())
                    .with_solver(dp(scheme, n))
                    .planner()
                    .and_then(|p| p.plan())
                    .map_err(io::Error::other)?;
            }
        }
    }
    let mut stdout = io::stdout().lock();
    writeln!(stdout, "ready")?;
    stdout.flush()?;
    let mut go = String::new();
    io::stdin().lock().read_line(&mut go)?;
    if go.trim() != "go" {
        return Ok(());
    }

    let started_loop = Instant::now();
    let until = started_loop + Duration::from_secs_f64(seconds);
    let mut latencies = Vec::new();
    let mut digests = Vec::new();
    let mut failures = 0u64;
    let mut first_failure = String::new();
    let (mut stage_us, mut wall_us, mut unattributed_us) = (0u64, 0f64, Vec::new());
    let (mut warm_tables, mut cold_tables) = (0u64, 0u64);
    let (mut block_s, mut block_ok, mut block_ticks) = (Vec::new(), Vec::new(), Vec::new());
    let mut block = (started_loop, own_cpu_ticks()?, 0u64);
    let mut i = 0;
    while Instant::now() < until {
        let req = &calls[i % calls.len()];
        i += 1;
        let started = Instant::now();
        let mut timeline = if traced {
            Timeline::begin(TraceContext::generate(), started)
        } else {
            Timeline::disabled()
        };
        let outcome = req
            .planner()
            .and_then(|p| p.plan_traced(&CancelToken::none(), &mut timeline));
        let elapsed = started.elapsed();
        latencies.push(Value::U64(elapsed.as_nanos() as u64));
        match outcome {
            Ok(plan) => {
                digests.push(Value::Str(plan.digest));
                block.2 += 1;
            }
            Err(e) => {
                failures += 1;
                if first_failure.is_empty() {
                    first_failure = e.to_string();
                }
                digests.push(Value::Null);
            }
        }
        if let Some(record) = timeline.finish("plan") {
            let sum = record.stage_sum_us();
            stage_us += sum;
            wall_us += elapsed.as_nanos() as f64 / 1e3;
            unattributed_us.push(Value::F64(elapsed.as_nanos() as f64 / 1e3 - sum as f64));
            for stage in record.stages.iter().filter(|s| s.name == "solve") {
                for (k, v) in &stage.args {
                    match (k.as_str(), v.as_str()) {
                        ("eval_table", "warm") => warm_tables += 1,
                        ("eval_table", "cold") => cold_tables += 1,
                        _ => {}
                    }
                }
            }
        }
        if i % OFFLINE_CYCLE == 0 {
            let ticks = own_cpu_ticks()?;
            block_s.push(Value::F64(block.0.elapsed().as_secs_f64()));
            block_ok.push(Value::U64(block.2));
            block_ticks.push(Value::U64(ticks - block.1));
            block = (Instant::now(), ticks, 0);
        }
    }
    let wall_s = started_loop.elapsed().as_secs_f64();
    let peak_rss_kb = procfs::sample(std::process::id())?.peak_rss_kb;
    let result = json!({
        "calls": i,
        "wall_s": wall_s,
        "failures": failures,
        "first_failure": first_failure,
        "latencies_ns": Value::Seq(latencies),
        "digests": Value::Seq(digests),
        "peak_rss_kb": peak_rss_kb,
        "stage_us": stage_us,
        "wall_us": wall_us,
        "unattributed_us": Value::Seq(unattributed_us),
        "warm_tables": warm_tables,
        "cold_tables": cold_tables,
        "block_s": Value::Seq(block_s),
        "block_ok": Value::Seq(block_ok),
        "block_ticks": Value::Seq(block_ticks)
    });
    writeln!(
        stdout,
        "{}",
        serde_json::to_string(&result).map_err(io::Error::other)?
    )?;
    stdout.flush()
}

/// A child process that is killed and reaped if dropped early.
struct Guard(Child);

impl Drop for Guard {
    fn drop(&mut self) {
        if let Ok(None) = self.0.try_wait() {
            let _ = self.0.kill();
        }
        let _ = self.0.wait();
    }
}

/// What the measured child reported, when each set-up started and
/// ended, and when the child was told to go (its `block_s` windows
/// follow one another from there).
pub struct OfflineRun {
    pub setups: Vec<(Instant, Instant)>,
    pub go_at: Instant,
    pub result: Value,
}

/// Starts `reps` children one after another, timing each from spawn to
/// `ready`; the last one runs the workload for `seconds`.
pub fn run(
    exe: &Path,
    seed: u64,
    seconds: f64,
    traced: bool,
    reps: usize,
) -> io::Result<OfflineRun> {
    let mut setups = Vec::new();
    for rep in 0..reps {
        let started = Instant::now();
        let mut child = Guard(
            Command::new(exe)
                .args(["--offline-child", "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .spawn()?,
        );
        let mut stdout = BufReader::new(child.0.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        if line.trim() != "ready" {
            return Err(io::Error::other(format!("offline child said {line:?}")));
        }
        setups.push((started, Instant::now()));
        let mut stdin = child.0.stdin.take().expect("stdin is piped");
        if rep + 1 < reps {
            drop(stdin);
            child.0.wait()?;
            continue;
        }
        let go_at = Instant::now();
        stdin.write_all(b"go\n")?;
        stdin.flush()?;
        line.clear();
        stdout.read_line(&mut line)?;
        drop(stdin);
        let status = child.0.wait()?;
        if !status.success() {
            return Err(io::Error::other(format!("offline child exited {status}")));
        }
        let result = serde_json::from_str(&line)
            .map_err(|e| io::Error::other(format!("offline child result: {e}")))?;
        return Ok(OfflineRun {
            setups,
            go_at,
            result,
        });
    }
    Err(io::Error::other("no offline set-up ran"))
}
