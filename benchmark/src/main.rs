//! The repository's benchmark: four workloads, end-to-end metrics
//! measured from outside the programs, and a per-layer breakdown. See
//! README.md in this directory for the workloads, metrics and commands.
//!
//! ```text
//! benchmark [--workload W] [--seed S] [--seconds T] [--trace 0|1 | --traced]
//!           [--runs N] [--out FILE] [--rsj PATH]
//! benchmark --compare BASE.json NEW.json
//! ```
//!
//! Exit codes: 0 when every output was correct, 1 when a correctness
//! check failed, 2 when the benchmark could not run (bad arguments, no
//! `rsj` binary, an I/O failure).

mod measure;
mod offline;
mod procfs;
mod replay;
mod report;
mod serve;
mod speed;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use serde_json::{json, Value};

use report::RunResult;
use workloads::WORKLOADS;

#[global_allocator]
static ALLOC: replay::CountingAlloc = replay::CountingAlloc;

pub const DEFAULT_SEED: u64 = 20190520;
pub const DEFAULT_SECONDS: f64 = 24.0;

#[derive(Debug)]
struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    runs: usize,
    out: Option<PathBuf>,
    rsj: PathBuf,
    compare: Option<(PathBuf, PathBuf)>,
    offline_child: bool,
}

fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"))
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        runs: 1,
        out: None,
        rsj: target_dir().join("release").join("rsj"),
        compare: None,
        offline_child: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = value("a workload name")?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w} (one of {WORKLOADS:?})"));
                }
                args.workloads.push(w);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                args.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--traced" => args.traced = true,
            "--runs" => {
                args.runs = value("a number")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
                if args.runs == 0 {
                    return Err("--runs must be at least 1".to_string());
                }
            }
            "--out" => args.out = Some(PathBuf::from(value("a file")?)),
            "--rsj" => args.rsj = PathBuf::from(value("a path")?),
            "--compare" => {
                let base = PathBuf::from(value("BASE.json NEW.json")?);
                let new = PathBuf::from(value("BASE.json NEW.json")?);
                args.compare = Some((base, new));
            }
            "--offline-child" => args.offline_child = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workloads.is_empty() {
        args.workloads = WORKLOADS.iter().map(|w| w.to_string()).collect();
    }
    Ok(args)
}

/// The commit of the checkout, read from `.git` without running git
/// (which could wander into a repository above the checkout).
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let sha = match head.strip_prefix("ref: ") {
        Some(name) => std::fs::read_to_string(Path::new(".git").join(name))
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed.lines().find_map(|l| {
                    let (sha, r) = l.split_once(' ')?;
                    (r == name).then(|| sha.to_string())
                })
            })
            .unwrap_or_default(),
        None => head.to_string(),
    };
    match sha.trim() {
        "" => "unknown".to_string(),
        sha => sha.to_string(),
    }
}

fn provenance(args: &Args) -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| procfs::cpu_model(&text))
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    json!({
        "commit": commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "nproc": nproc,
        "cpu": cpu,
        "rsj": args.rsj.display().to_string(),
        "server_workers": serve::WORKERS,
        "setup_reps": measure::SETUP_REPS
    })
}

fn fail(code: u8, msg: &str) -> ExitCode {
    eprintln!("benchmark: {msg}");
    ExitCode::from(code)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => return fail(2, &msg),
    };
    if args.offline_child {
        return match offline::child(args.seed, args.seconds, args.traced) {
            Ok(_) => ExitCode::SUCCESS,
            Err(e) => fail(2, &format!("offline child: {e}")),
        };
    }
    if let Some((base, new)) = &args.compare {
        return match report::compare(base, new, Path::new("BENCHMARK.json")) {
            Ok(rows) => {
                for row in rows {
                    println!("{row}");
                }
                ExitCode::SUCCESS
            }
            Err(e) => fail(2, &format!("compare: {e}")),
        };
    }
    if !args.rsj.is_file() {
        return fail(
            2,
            &format!(
                "no rsj binary at {} (build it with `cargo build --release -p rsj-cli`, \
                 or pass --rsj)",
                args.rsj.display()
            ),
        );
    }
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return fail(2, &format!("cannot locate this binary: {e}")),
    };
    let ctx = measure::Ctx {
        rsj: args.rsj.clone(),
        exe,
        work: target_dir()
            .join("benchmark-work")
            .join(std::process::id().to_string()),
    };
    let prov = provenance(&args);
    println!(
        "# provenance {}",
        serde_json::to_string(&prov).expect("json")
    );

    let mut results: Vec<RunResult> = Vec::new();
    for run in 0..args.runs as u64 {
        for workload in &args.workloads {
            let seed = args.seed + run;
            match measure::run(&ctx, workload, seed, args.seconds, args.traced) {
                Ok(result) => {
                    for line in result.lines() {
                        println!("{line}");
                    }
                    results.push(result);
                }
                Err(e) => return fail(2, &format!("{workload} (seed {seed}): {e}")),
            }
        }
    }
    let _ = std::fs::remove_dir(target_dir().join("benchmark-work"));
    if args.runs > 1 {
        for line in report::summary_lines(&results) {
            println!("{line}");
        }
    }
    if let Some(out) = &args.out {
        let doc = json!({
            "provenance": prov,
            "runs": Value::Seq(results.iter().map(RunResult::to_json).collect())
        });
        let text = serde_json::to_string_pretty(&doc).expect("json") + "\n";
        if let Err(e) = std::fs::write(out, text) {
            return fail(2, &format!("cannot write {}: {e}", out.display()));
        }
    }
    println!("{}", report::result_line(&results));
    if results.iter().all(|r| r.correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn run_arguments_parse() {
        let a = parse(&[
            "--workload",
            "serve_miss",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workloads, vec!["serve_miss"]);
        assert_eq!((a.seed, a.seconds, a.traced, a.runs), (7, 10.0, true, 1));
        let all = parse(&[]).unwrap();
        assert_eq!(all.workloads, WORKLOADS);
        assert_eq!(all.seed, DEFAULT_SEED);
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--runs", "0"]).is_err());
        assert!(parse(&["--seed"]).is_err());
    }
}
