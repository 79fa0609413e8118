//! `rsj` binary: thin argv dispatch over the library commands.

use rsj_cli::{run_evaluate, run_fit, run_plan, run_simulate, USAGE};
use std::io::Write;
use std::process::ExitCode;
use std::str::FromStr;

/// Argv-level mistake: the user asked for something the CLI doesn't
/// have, so show them what it does have.
fn fail(msg: &str) -> ExitCode {
    report(&format!("error: {msg}\n\n{USAGE}"))
}

/// Runtime failure in a correctly-invoked command (solver error, server
/// rejection, bad config contents): the usage text would only bury it.
fn fail_runtime(msg: &str) -> ExitCode {
    report(&format!("error: {msg}"))
}

/// Writes `line` to stderr and fails. A closed stderr (its reader exited)
/// loses the message, not the exit code.
fn report(line: &str) -> ExitCode {
    let _ = writeln!(std::io::stderr().lock(), "{line}");
    ExitCode::FAILURE
}

/// Writes `text` to stdout in one `write_all`. A closed stdout (its
/// reader exited, as in `rsj --help | head -1`) is not a failure: the
/// output had nowhere to go.
fn emit(text: &str) -> Result<(), String> {
    let mut stdout = std::io::stdout().lock();
    match stdout
        .write_all(text.as_bytes())
        .and_then(|()| stdout.flush())
    {
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => {
            Err(format!("cannot write to stdout: {e}"))
        }
        _ => Ok(()),
    }
}

fn usage() -> ExitCode {
    match emit(&format!("{USAGE}\n")) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => fail_runtime(&msg),
    }
}

/// Extracts `--flag <value>` from the argument list.
fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Parses `--flag <n>`: `Ok(None)` when the flag is absent, an error
/// naming the flag when its value is not a number.
fn number_flag<T: FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    flag_value(args, flag)
        .map(|v| {
            v.parse()
                .map_err(|_| format!("invalid {flag}: expected a number"))
        })
        .transpose()
}

/// `rsj serve`'s options, read from its flags.
fn serve_options(args: &[String]) -> Result<rsj_cli::ServeOptions, String> {
    Ok(rsj_cli::ServeOptions {
        addr: flag_value(args, "--addr").unwrap_or(rsj_cli::ServeOptions::default().addr),
        workers: number_flag(args, "--workers")?,
        cache: number_flag(args, "--cache")?,
        queue: number_flag(args, "--queue")?,
        queue_high: number_flag(args, "--queue-high")?,
        queue_low: number_flag(args, "--queue-low")?,
        journal_dir: flag_value(args, "--journal-dir"),
        snapshot_every: number_flag(args, "--snapshot-every")?,
        trace_buffer: number_flag(args, "--trace-buffer")?,
        slow_ms: number_flag(args, "--slow-ms")?,
    })
}

/// `rsj request`'s options, read from its flags.
fn request_options(args: &[String]) -> Result<rsj_cli::RequestOptions, String> {
    let deadline_ms = number_flag(args, "--deadline-ms")?;
    // A call makes `retries + 1` attempts, so that count must fit.
    let retries = number_flag(args, "--retries")?;
    if retries == Some(u32::MAX) {
        return Err("invalid --retries: at most 4294967294".to_string());
    }
    Ok(rsj_cli::RequestOptions {
        deadline_ms,
        retries,
        trace: args.iter().any(|a| a == "--trace"),
    })
}

/// `rsj trace export`'s options, read from its flags.
fn trace_options(args: &[String]) -> Result<rsj_cli::TraceExportOptions, String> {
    Ok(rsj_cli::TraceExportOptions {
        out: flag_value(args, "--out").ok_or("missing --out <trace.json>")?,
        last: number_flag(args, "--last")?,
        min_ms: number_flag(args, "--min-ms")?,
    })
}

/// The flags a command accepts: those that take a value, and switches.
struct Flags {
    values: &'static [&'static str],
    switches: &'static [&'static str],
}

/// Accepted by every command.
const COMMON_FLAGS: Flags = Flags {
    values: &["--log-level", "--metrics-out", "--threads"],
    switches: &["--json"],
};

/// The flags of `command` (`trace` means `trace export`), or `None` when
/// there is no such command.
fn command_flags(command: &str) -> Option<Flags> {
    let (values, switches): (&'static [&'static str], &'static [&'static str]) = match command {
        "plan" => (&["--config"], &["--explain-solver"]),
        "risk" | "evaluate" | "simulate" => (&["--config"], &[]),
        "fit" => (&["--csv"], &[]),
        "serve" => (
            &[
                "--addr",
                "--workers",
                "--cache",
                "--queue",
                "--queue-high",
                "--queue-low",
                "--journal-dir",
                "--snapshot-every",
                "--trace-buffer",
                "--slow-ms",
            ],
            &[],
        ),
        "request" => (
            &["--addr", "--config", "--deadline-ms", "--retries"],
            &[
                "--ping",
                "--metrics",
                "--health",
                "--ready",
                "--shutdown",
                "--trace",
            ],
        ),
        "trace" => (&["--addr", "--out", "--last", "--min-ms"], &[]),
        _ => return None,
    };
    Some(Flags { values, switches })
}

/// Checks every argument after the command against `flags` and
/// [`COMMON_FLAGS`]: an unknown argument, or a value flag with no value
/// after it, is an error.
fn check_flags(args: &[String], flags: &Flags) -> Result<(), String> {
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        let arg = arg.as_str();
        if flags.values.contains(&arg) || COMMON_FLAGS.values.contains(&arg) {
            match rest.next() {
                Some(value) if !value.starts_with("--") => {}
                _ => return Err(format!("missing value for {arg}")),
            }
        } else if !flags.switches.contains(&arg) && !COMMON_FLAGS.switches.contains(&arg) {
            return Err(format!("unknown argument: {arg}"));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        return usage();
    };
    if command == "help" || args.iter().any(|a| a == "--help" || a == "-h") {
        return usage();
    }
    let Some(flags) = command_flags(command) else {
        return fail(&format!("unknown command: {command}"));
    };
    // `trace` has one subcommand; its flags follow it.
    let flagged = if command == "trace" {
        if args.get(1).map(String::as_str) != Some("export") {
            return fail("trace supports one subcommand: export");
        }
        &args[2..]
    } else {
        &args[1..]
    };
    if let Err(msg) = check_flags(flagged, &flags) {
        return fail(&msg);
    }
    let json = args.iter().any(|a| a == "--json");

    // Observability flags, accepted by every command. `--log-level`
    // overrides `RSJ_LOG`; without either the CLI stays quiet (warnings
    // and errors only) so stdout/stderr remain script-friendly.
    match flag_value(&args, "--log-level") {
        Some(spec) => match rsj_obs::parse_filter(&spec) {
            Ok(level) => rsj_obs::init(level),
            Err(e) => return fail(&format!("invalid --log-level: {e}")),
        },
        None => rsj_obs::init_from_env_default(Some(rsj_obs::Level::Warn)),
    }
    let metrics_out = flag_value(&args, "--metrics-out");
    if metrics_out.is_some() {
        rsj_obs::set_metrics_enabled(true);
    }

    // Worker-thread override: `--threads <n>` beats `RSJ_THREADS` beats
    // the hardware default. Zero or garbage is a typed error (exit 1),
    // not a panic — and a malformed RSJ_THREADS is rejected here rather
    // than silently ignored mid-solve.
    match flag_value(&args, "--threads") {
        Some(spec) => match spec
            .parse::<usize>()
            .map_err(|_| rsj_par::ParError::InvalidEnv {
                value: spec.clone(),
            })
            .and_then(rsj_par::Parallelism::new)
        {
            Ok(par) => par.install_global(),
            Err(e) => return fail(&format!("invalid --threads: {e}")),
        },
        None => match rsj_par::Parallelism::from_env() {
            Ok(par) => par.install_global(),
            Err(e) => return fail(&format!("invalid RSJ_THREADS: {e}")),
        },
    }

    let result = match command.as_str() {
        "plan" | "risk" | "evaluate" | "simulate" => {
            let Some(path) = flag_value(&args, "--config") else {
                return fail("missing --config <file.json>");
            };
            let text = match std::fs::read_to_string(&path) {
                Ok(t) => t,
                Err(e) => return fail(&format!("cannot read {path}: {e}")),
            };
            match command.as_str() {
                "plan" => {
                    let explain = args.iter().any(|a| a == "--explain-solver");
                    serde_json::from_str(&text)
                        .map_err(|e| format!("invalid plan config: {e}"))
                        .and_then(|cfg| run_plan(&cfg, json, explain))
                }
                "risk" => serde_json::from_str(&text)
                    .map_err(|e| format!("invalid plan config: {e}"))
                    .and_then(|cfg| rsj_cli::run_risk(&cfg, json)),
                "evaluate" => serde_json::from_str(&text)
                    .map_err(|e| format!("invalid evaluate config: {e}"))
                    .and_then(|cfg| run_evaluate(&cfg, json)),
                _ => serde_json::from_str(&text)
                    .map_err(|e| format!("invalid simulate config: {e}"))
                    .and_then(|cfg| run_simulate(&cfg, json)),
            }
        }
        "fit" => {
            let Some(path) = flag_value(&args, "--csv") else {
                return fail("missing --csv <traces.csv>");
            };
            match std::fs::read_to_string(&path) {
                Ok(text) => run_fit(&text, json),
                Err(e) => return fail(&format!("cannot read {path}: {e}")),
            }
        }
        "serve" => {
            let opts = match serve_options(&args) {
                Ok(opts) => opts,
                Err(msg) => return fail(&msg),
            };
            return match rsj_cli::run_serve(&opts) {
                Ok(()) => ExitCode::SUCCESS,
                Err(msg) => fail_runtime(&msg),
            };
        }
        "request" => {
            let Some(addr) = flag_value(&args, "--addr") else {
                return fail("missing --addr <host:port>");
            };
            let action = if args.iter().any(|a| a == "--ping") {
                rsj_cli::RequestAction::Ping
            } else if args.iter().any(|a| a == "--metrics") {
                rsj_cli::RequestAction::Metrics
            } else if args.iter().any(|a| a == "--health") {
                rsj_cli::RequestAction::Health
            } else if args.iter().any(|a| a == "--ready") {
                rsj_cli::RequestAction::Ready
            } else if args.iter().any(|a| a == "--shutdown") {
                rsj_cli::RequestAction::Shutdown
            } else if let Some(path) = flag_value(&args, "--config") {
                let text = match std::fs::read_to_string(&path) {
                    Ok(t) => t,
                    Err(e) => return fail(&format!("cannot read {path}: {e}")),
                };
                match serde_json::from_str(&text) {
                    Ok(cfg) => rsj_cli::RequestAction::Plan(Box::new(cfg)),
                    Err(e) => return fail(&format!("invalid plan config: {e}")),
                }
            } else {
                return fail(
                    "request needs one of --config/--ping/--metrics/--health/--ready/--shutdown",
                );
            };
            let opts = match request_options(&args) {
                Ok(opts) => opts,
                Err(msg) => return fail(&msg),
            };
            rsj_cli::run_request(&addr, &action, json, opts)
        }
        "trace" => {
            let Some(addr) = flag_value(&args, "--addr") else {
                return fail("missing --addr <host:port>");
            };
            let opts = match trace_options(&args) {
                Ok(opts) => opts,
                Err(msg) => return fail(&msg),
            };
            rsj_cli::run_trace_export(&addr, &opts)
        }
        other => return fail(&format!("unknown command: {other}")),
    };

    match result {
        Ok(out) => {
            if let Err(msg) = emit(&out) {
                return fail_runtime(&msg);
            }
            if let Some(path) = &metrics_out {
                if let Err(e) = rsj_obs::write_metrics_file(rsj_obs::global_registry(), path) {
                    return fail(&format!("cannot write metrics to {path}: {e}"));
                }
                rsj_obs::info!("metrics exported to {path}");
            }
            ExitCode::SUCCESS
        }
        Err(msg) => fail_runtime(&msg),
    }
}
