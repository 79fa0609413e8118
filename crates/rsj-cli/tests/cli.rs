//! End-to-end tests of the `rsj` binary: spawn the compiled executable and
//! check exit codes and output.

use std::io::Write;
use std::process::Command;

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
    use std::process::Stdio;
    use std::time::{Duration, Instant};
    let mut child = rsj()
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while child.try_wait().unwrap().is_none() {
        if Instant::now() > deadline {
            child.kill().ok();
            let out = child.wait_with_output().unwrap();
            panic!(
                "rsj {args:?} was still running after 10 s; stdout: {}",
                String::from_utf8_lossy(&out.stdout)
            );
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().unwrap()
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
