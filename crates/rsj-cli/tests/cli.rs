//! End-to-end tests of the `rsj` binary: spawn the compiled executable and
//! check exit codes and output.

use std::io::{BufRead, BufReader, Read, Write};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

fn rsj() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rsj"))
}

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("rsj_cli_test_{}_{name}", std::process::id()));
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(contents.as_bytes()).unwrap();
    path
}

#[test]
fn no_args_prints_usage() {
    let out = rsj().output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

#[test]
fn unknown_command_fails() {
    let out = rsj().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn plan_text_and_json() {
    let cfg = write_temp(
        "plan.json",
        r#"{
            "distribution": { "family": "uniform", "a": 10.0, "b": 20.0 },
            "cost": { "alpha": 1.0 },
            "heuristic": { "kind": "dp", "scheme": "equal_time", "n": 100 }
        }"#,
    );
    let out = rsj().args(["plan", "--config"]).arg(&cfg).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    // Theorem 4: the ladder is the single reservation (b) at ratio 4/3.
    assert!(text.contains("20.0000"), "{text}");
    assert!(text.contains("1.3333"), "{text}");

    let out = rsj()
        .args(["plan", "--json", "--config"])
        .arg(&cfg)
        .output()
        .unwrap();
    assert!(out.status.success());
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).unwrap();
    assert_eq!(v["sequence"].as_array().unwrap().len(), 1);
    std::fs::remove_file(cfg).ok();
}

#[test]
fn plan_rejects_invalid_config() {
    let cfg = write_temp("bad_plan.json", r#"{ "not": "a plan" }"#);
    let out = rsj().args(["plan", "--config"]).arg(&cfg).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("invalid plan config"));
    std::fs::remove_file(cfg).ok();
}

#[test]
fn plan_missing_config_flag() {
    let out = rsj().arg("plan").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--config"));
}

#[test]
fn fit_round_trip() {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    let archive = rsj_traces::synthesize(&rsj_traces::SynthConfig::vbmqa(1500), &mut rng);
    let csv = write_temp("traces.csv", &archive.to_csv());
    let out = rsj().args(["fit", "--csv"]).arg(&csv).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("VBMQA"), "{text}");
    assert!(text.contains("LogNormal"), "{text}");
    std::fs::remove_file(csv).ok();
}

#[test]
fn evaluate_from_file() {
    let cfg = write_temp(
        "eval.json",
        r#"{
            "distribution": { "family": "exponential", "lambda": 1.0 },
            "cost": { "alpha": 1.0 },
            "sequence": [1.0, 2.0, 4.0, 8.0, 16.0, 32.0],
            "monte_carlo_samples": 2000
        }"#,
    );
    let out = rsj()
        .args(["evaluate", "--json", "--config"])
        .arg(&cfg)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).unwrap();
    let analytic = v["analytic_expected_cost"].as_f64().unwrap();
    let mc = v["monte_carlo_expected_cost"].as_f64().unwrap();
    assert!(analytic > 1.0 && (analytic - mc).abs() / analytic < 0.2);
    std::fs::remove_file(cfg).ok();
}

/// Runs `rsj` with `args` and waits at most 10 s for it to exit, so a
/// server that starts by mistake fails the test instead of hanging it.
fn run_bounded(args: &[&str]) -> std::process::Output {
    let mut child = rsj()
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let exited = wait_bounded(&mut child).is_some();
    let out = child.wait_with_output().unwrap();
    assert!(
        exited,
        "rsj {args:?} was still running after 10 s; stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    out
}

/// Waits up to 10 s for `child` to exit and kills it if it has not;
/// `None` when it had to be killed.
fn wait_bounded(child: &mut Child) -> Option<ExitStatus> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Some(status) = child.try_wait().unwrap() {
            return Some(status);
        }
        if Instant::now() > deadline {
            child.kill().ok();
            child.wait().ok();
            return None;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// A pipe whose reader is gone before the child starts, so the child's
/// first write to it fails with a broken pipe, whatever the timing.
fn closed_pipe() -> std::io::PipeWriter {
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    writer
}

#[test]
fn serve_rejects_a_misspelt_flag_before_binding() {
    let out = run_bounded(&["serve", "--addr", "127.0.0.1:0", "--wrokers", "3"]);
    assert!(!out.status.success());
    assert!(!String::from_utf8_lossy(&out.stdout).contains("rsj-serve listening on"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown argument: --wrokers"), "{stderr}");
    assert!(stderr.contains("USAGE"), "{stderr}");
}

#[test]
fn serve_help_prints_usage_without_serving() {
    let out = run_bounded(&["serve", "--help"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("USAGE"), "{stdout}");
    assert!(!stdout.contains("rsj-serve listening on"), "{stdout}");
}

#[test]
fn plan_rejects_unknown_flags_and_missing_values() {
    let out = rsj()
        .args(["plan", "--config", "f", "--jsn"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown argument: --jsn"));
    let out = rsj().args(["plan", "--config"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing value for --config"));
}

#[test]
fn a_closed_stdout_is_a_quiet_exit_not_a_panic() {
    let cfg = write_temp(
        "closed_stdout.json",
        r#"{
            "distribution": { "family": "uniform", "a": 10.0, "b": 20.0 },
            "cost": { "alpha": 1.0 },
            "heuristic": { "kind": "dp", "scheme": "equal_time", "n": 100 }
        }"#,
    );
    let cfg_arg = cfg.to_str().unwrap();
    for args in [
        &["--help"][..],
        &["serve", "--help"],
        &["plan", "--config", cfg_arg, "--json"],
    ] {
        let out = rsj().args(args).stdout(closed_pipe()).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "rsj {args:?}: {stderr}");
        assert!(
            stderr.is_empty(),
            "rsj {args:?} must exit quietly: {stderr}"
        );
    }
    std::fs::remove_file(cfg).ok();
}

#[test]
fn a_closed_stderr_keeps_the_exit_code() {
    for args in [
        &["frobnicate"][..],
        &["plan", "--config", "/nonexistent.json"],
    ] {
        let mut child = rsj()
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(closed_pipe())
            .spawn()
            .unwrap();
        let status = wait_bounded(&mut child);
        assert_eq!(
            status.and_then(|s| s.code()),
            Some(1),
            "rsj {args:?} must fail with exit 1, not a panic"
        );
    }
}

#[test]
fn a_server_logging_to_a_closed_stderr_serves_and_shuts_down() {
    let mut child = rsj()
        .args(["serve", "--addr", "127.0.0.1:0", "--log-level", "info"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(closed_pipe())
        .spawn()
        .unwrap();
    // The listening line, read on a thread so the wait for it is bounded;
    // the thread then drains stdout until the server exits.
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut line = String::new();
        stdout.read_line(&mut line).ok();
        tx.send(line).ok();
        stdout.read_to_end(&mut Vec::new()).ok();
    });
    let Ok(line) = rx.recv_timeout(Duration::from_secs(10)) else {
        child.kill().ok();
        child.wait().ok();
        panic!("no listening line within 10 s");
    };
    let Some(addr) = line.trim().strip_prefix("rsj-serve listening on ") else {
        let status = wait_bounded(&mut child);
        panic!("unexpected first line {line:?}; server exit {status:?}");
    };
    let mut client = rsj_serve::Client::connect(addr).expect("connect");
    client
        .set_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    client.ping().expect("ping");
    client.shutdown().expect("shutdown");
    let status = wait_bounded(&mut child);
    assert_eq!(status.and_then(|s| s.code()), Some(0));
}
