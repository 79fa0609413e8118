//! Runs every experiment of the reproduction in sequence — the one-shot
//! "regenerate the paper" entry point. Honours `RSJ_FIDELITY` and
//! `RSJ_RESULTS_DIR` like the individual binaries, and `RSJ_LOG` for
//! progress verbosity (`warn` silences the step markers, `debug` shows
//! solver internals).
//!
//! Metrics are always collected: each run writes
//! `results/perf_manifest.json` with per-step wall times and the full
//! solver/simulator metrics snapshot. `--metrics-out <path>` additionally
//! exports the raw registry (Prometheus text, or JSON when the path ends
//! in `.json`).

use rsj_bench::perf::PerfManifest;
use rsj_bench::scenarios::Fidelity;
use rsj_bench::{experiments, DEFAULT_SEED};
use rsj_par::Parallelism;
use std::time::Instant;

struct Args {
    metrics_out: Option<String>,
    threads: Option<Parallelism>,
}

fn parse_args() -> Result<Args, String> {
    let mut parsed = Args {
        metrics_out: None,
        threads: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--metrics-out" => match args.next() {
                Some(path) => parsed.metrics_out = Some(path),
                None => return Err("--metrics-out requires a path".into()),
            },
            "--threads" => match args.next() {
                Some(v) => {
                    let n: usize = v
                        .parse()
                        .map_err(|_| format!("--threads: `{v}` is not a positive integer"))?;
                    parsed.threads = Some(Parallelism::new(n).map_err(|e| e.to_string())?);
                }
                None => return Err("--threads requires a count".into()),
            },
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(parsed)
}

fn main() -> std::io::Result<()> {
    rsj_obs::init_from_env();
    rsj_obs::set_metrics_enabled(true);
    let args = match parse_args() {
        Ok(v) => v,
        Err(msg) => {
            rsj_obs::error!("{msg}");
            eprintln!("usage: run_all [--metrics-out <path>] [--threads <n>]");
            std::process::exit(2);
        }
    };
    if let Some(par) = args.threads {
        par.install_global();
    }
    let metrics_out = args.metrics_out;

    let fidelity = Fidelity::from_env();
    rsj_obs::info!("running the full experiment suite at {fidelity:?} fidelity");

    let total = Instant::now();
    let mut manifest = PerfManifest::new(format!("{fidelity:?}"), DEFAULT_SEED);
    let mut run = |name: &str, step: &mut dyn FnMut() -> std::io::Result<()>| {
        rsj_obs::info!(
            "── {name} ({:.1}s elapsed) ──",
            total.elapsed().as_secs_f64()
        );
        let sw = Instant::now();
        step()?;
        manifest.push_step(
            name,
            sw.elapsed().as_secs_f64(),
            Parallelism::current().threads(),
        );
        Ok::<(), std::io::Error>(())
    };

    run("Table 2", &mut || {
        experiments::table2::emit(fidelity, DEFAULT_SEED).map(drop)
    })?;
    run("Table 3", &mut || {
        experiments::table3::emit(fidelity, DEFAULT_SEED).map(drop)
    })?;
    run("Table 4", &mut || {
        experiments::table4::emit(fidelity, DEFAULT_SEED).map(drop)
    })?;
    run("Figure 1", &mut || {
        experiments::fig1::emit(fidelity, DEFAULT_SEED).map(drop)
    })?;
    run("Figure 2", &mut || {
        experiments::fig2::emit(fidelity, DEFAULT_SEED).map(drop)
    })?;
    run("Figure 3", &mut || {
        experiments::fig3::emit(fidelity, DEFAULT_SEED).map(drop)
    })?;
    run("Figure 4", &mut || {
        experiments::fig4::emit(fidelity, DEFAULT_SEED).map(drop)
    })?;
    run("§3.5 exponential optimum", &mut || {
        experiments::exp_s1::emit().map(drop)
    })?;
    run("Figure 4 (simulated-queue cost model)", &mut || {
        experiments::fig4_simqueue::emit(fidelity, DEFAULT_SEED).map(drop)
    })?;
    run("Ablation: checkpointing", &mut || {
        experiments::ablation_checkpoint::emit(fidelity).map(drop)
    })?;
    run("Ablation: fit-then-plan fragility", &mut || {
        experiments::ablation_misfit::emit(fidelity, DEFAULT_SEED).map(drop)
    })?;
    run("Ablation: fault injection", &mut || {
        experiments::ablation_faults::emit(fidelity, DEFAULT_SEED).map(drop)
    })?;
    run("Ablation: online adaptive replanning", &mut || {
        experiments::ablation_adaptive::emit(fidelity, DEFAULT_SEED).map(drop)
    })?;

    manifest.total_wall_seconds = total.elapsed().as_secs_f64();
    manifest.metrics = rsj_obs::global_registry().snapshot();
    let manifest_path = manifest.write()?;

    if let Some(path) = metrics_out {
        rsj_obs::write_metrics_file(rsj_obs::global_registry(), &path)?;
        rsj_obs::info!("metrics exported to {path}");
    }

    rsj_obs::info!(
        "all experiments done in {:.1}s; outputs in {}, perf manifest at {}",
        total.elapsed().as_secs_f64(),
        rsj_bench::report::results_dir().display(),
        manifest_path.display()
    );
    Ok(())
}
