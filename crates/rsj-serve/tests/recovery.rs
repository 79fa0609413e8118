//! Crash-recovery integration tests: a real `kill -9` mid-load, seeded
//! journal corruption, snapshot compaction, the not-ready window, and
//! journals written under an older solver revision.
//!
//! The kill test follows the self-exec pattern: the parent test re-runs
//! this test binary as a child process (targeting the env-gated, ignored
//! `child_server_process` entry below), which runs a durable server in
//! the foreground. The parent drives load through it, SIGKILLs it with no
//! warning, restarts a server on the same journal directory in-process,
//! and asserts every answered request is a warm cache hit with a digest
//! bit-identical to the offline solver.
//!
//! Tests asserting on the process-global metrics registry serialize on
//! [`registry_lock`].

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use reservation_strategies::{plan_digest, PlanRequest, Planner, SOLVER_REVISION};
use rsj_core::SolverSpec;
use rsj_dist::{DiscretizationScheme, DistSpec};
use rsj_serve::journal::{frame_spans, read_log_bytes, JOURNAL_FILE};
use rsj_serve::{
    BatchItem, Client, CorruptionPolicy, DurabilityConfig, ErrorKind, JournalRecord, JournalWriter,
    Request, Response, Server, ServerConfig,
};

fn registry_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rsj_recovery_{}_{}", tag, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A distinct, fast DP request per index — deterministic, cacheable, and
/// reproducible offline for digest comparison.
fn dp_request(i: usize) -> Request {
    Request::plan_with(dist_for(i), dp_solver())
}

fn dist_for(i: usize) -> DistSpec {
    DistSpec::LogNormal {
        mu: 1.5 + 0.05 * i as f64,
        sigma: 0.6,
    }
}

fn dp_solver() -> SolverSpec {
    SolverSpec::Dp {
        scheme: DiscretizationScheme::EqualProbability,
        n: 200,
        epsilon: 1e-6,
        monotone: true,
    }
}

fn planner_for(i: usize) -> Planner {
    Planner::builder()
        .distribution(dist_for(i))
        .solver(dp_solver())
        .build()
        .expect("planner")
}

/// The same plan computed offline through the facade: the ground truth a
/// served (or recovered) plan must match bit for bit.
fn offline_digest(i: usize) -> String {
    planner_for(i).plan().expect("offline plan").digest
}

fn spawn_durable_server(
    dir: &Path,
    snapshot_every: u64,
    recovery_delay: Option<Duration>,
) -> (
    SocketAddr,
    rsj_serve::ShutdownHandle,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let config = ServerConfig {
        durability: Some(DurabilityConfig {
            dir: dir.to_path_buf(),
            snapshot_every,
            fsync: false,
            recovery_delay,
        }),
        ..ServerConfig::default()
    };
    let server = Server::bind(config).expect("bind");
    let addr = server.local_addr();
    let handle = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run());
    (addr, handle, join)
}

fn wait_until_ready(addr: SocketAddr, timeout: Duration) {
    let deadline = Instant::now() + timeout;
    loop {
        if let Ok(mut client) = Client::connect(addr) {
            if client.ready().unwrap_or(false) {
                return;
            }
        }
        assert!(Instant::now() < deadline, "server never became ready");
        std::thread::sleep(Duration::from_millis(25));
    }
}

fn plan_digest_and_cached(response: &Response) -> (String, bool) {
    match response {
        Response::Plan {
            plan, provenance, ..
        } => (plan.digest.clone(), provenance.cached),
        other => panic!("expected a plan, got {other:?}"),
    }
}

/// [`dp_request`]'s plan as `plan_batch` items, one per index.
fn dp_items(indices: std::ops::Range<usize>) -> Vec<PlanRequest> {
    indices
        .map(|i| PlanRequest::new(dist_for(i)).with_solver(dp_solver()))
        .collect()
}

fn item_digest_and_cached(item: &BatchItem) -> (String, bool) {
    match item {
        BatchItem::Plan { plan, provenance } => (plan.digest.clone(), provenance.cached),
        other => panic!("expected a plan item, got {other:?}"),
    }
}

/// Child-process entry for the kill -9 test: runs a durable server in the
/// foreground until killed. Gated on an env var so `cargo test` never
/// runs it directly (`#[ignore]` keeps it out of the default set too).
#[test]
#[ignore = "child-process entry point for kill_neg9_mid_load_then_warm_restart"]
fn child_server_process() {
    let Ok(dir) = std::env::var("RSJ_RECOVERY_CHILD_DIR") else {
        return;
    };
    let config = ServerConfig {
        durability: Some(DurabilityConfig::new(&dir)),
        ..ServerConfig::default()
    };
    let server = Server::bind(config).expect("child bind");
    let addr = server.local_addr();
    // Atomic publish of the address: write to a temp name, then rename,
    // so the parent never reads a half-written line.
    let tmp = Path::new(&dir).join("addr.tmp");
    std::fs::write(&tmp, addr.to_string()).expect("write addr");
    std::fs::rename(&tmp, Path::new(&dir).join("addr.txt")).expect("publish addr");
    // Runs until SIGKILL.
    server.run().expect("child server");
}

/// The acceptance-criteria test: `kill -9` a serving process mid-load,
/// restart on the same journal dir, and require readiness, warm hits, and
/// bit-identical digests vs the offline solver.
#[test]
fn kill_neg9_mid_load_then_warm_restart() {
    let _guard = registry_lock();
    let dir = temp_dir("kill9");

    // Re-exec this test binary at the child entry point.
    let exe = std::env::current_exe().expect("current exe");
    let mut child = std::process::Command::new(exe)
        .args([
            "child_server_process",
            "--exact",
            "--ignored",
            "--nocapture",
        ])
        .env("RSJ_RECOVERY_CHILD_DIR", &dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn child server");

    // Wait for the child to publish its address.
    let addr_path = dir.join("addr.txt");
    let deadline = Instant::now() + Duration::from_secs(30);
    let addr: SocketAddr = loop {
        if let Ok(text) = std::fs::read_to_string(&addr_path) {
            if let Ok(addr) = text.trim().parse() {
                break addr;
            }
        }
        assert!(
            Instant::now() < deadline,
            "child never published an address"
        );
        std::thread::sleep(Duration::from_millis(25));
    };

    // Drive load: solve N distinct plans, then M more in one batch,
    // remembering what the client was told. The cache starts cold, so
    // every answer is a fresh solve, and everything answered is journaled
    // (append-before-response).
    const PLANS: usize = 6;
    const BATCHED: usize = 4;
    let batch = PLANS..PLANS + BATCHED;
    let mut answered = Vec::new();
    let batched: Vec<String>;
    {
        let mut client = Client::connect(addr).expect("connect to child");
        client
            .set_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        for i in 0..PLANS {
            let response = client.call(&dp_request(i)).expect("plan");
            let (digest, cached) = plan_digest_and_cached(&response);
            assert!(!cached, "plan {i} was cached before any solve");
            answered.push((i, digest));
        }
        let results = client
            .plan_batch(dp_items(batch.clone()))
            .expect("plan_batch");
        batched = results
            .iter()
            .zip(batch.clone())
            .map(|(item, i)| {
                let (digest, cached) = item_digest_and_cached(item);
                assert!(!cached, "batch item {i} was cached before any solve");
                digest
            })
            .collect();
    }
    assert_eq!(answered.len(), PLANS);
    assert_eq!(batched.len(), BATCHED);

    // SIGKILL, mid-operation, no drain, no flush beyond the per-append
    // OS flush. The journal must already hold every answered plan.
    child.kill().expect("kill -9 the child");
    let _ = child.wait();

    // Restart on the same directory, in-process this time.
    let (addr, handle, join) = spawn_durable_server(&dir, 64, None);
    wait_until_ready(addr, Duration::from_secs(30));

    let mut client = Client::connect(addr).expect("connect to restarted server");
    client
        .set_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");

    // Readiness flipped, and recovery reports the journaled plans.
    let health = client.health().expect("health");
    assert!(health.ready && health.recovered, "{health:?}");
    let recovery = health.recovery.expect("recovery stats present");
    assert_eq!(
        recovery.recovered_records,
        (PLANS + BATCHED) as u64,
        "every answered plan must survive kill -9: {recovery:?}"
    );
    assert_eq!(recovery.corrupt_records, 0, "{recovery:?}");

    // Every previously answered key is a warm cache hit, and every digest
    // is bit-identical to both what the client was told pre-crash and the
    // offline solver's answer.
    for (i, pre_crash_digest) in &answered {
        let response = client.call(&dp_request(*i)).expect("warm plan");
        let (digest, cached) = plan_digest_and_cached(&response);
        assert!(cached, "plan {i} was not served from the recovered cache");
        assert_eq!(&digest, pre_crash_digest, "plan {i} digest drifted");
        assert_eq!(digest, offline_digest(*i), "plan {i} differs from offline");
    }
    // The batch's plans survive the same way, item by item.
    let results = client
        .plan_batch(dp_items(batch.clone()))
        .expect("warm plan_batch");
    assert_eq!(results.len(), BATCHED);
    for ((i, item), pre_crash_digest) in batch.zip(&results).zip(&batched) {
        let (digest, cached) = item_digest_and_cached(item);
        assert!(
            cached,
            "batch item {i} was not served from the recovered cache"
        );
        assert_eq!(&digest, pre_crash_digest, "batch item {i} digest drifted");
        assert_eq!(
            digest,
            offline_digest(i),
            "batch item {i} differs from offline"
        );
    }

    handle.signal();
    let _ = Client::connect(addr); // poke the accept loop
    join.join().expect("server thread").expect("clean exit");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Seeded corruption injector over a real journal: recovery must skip
/// damaged records with typed faults (counted, never a panic) while every
/// record the corruption left intact still becomes a warm hit.
#[test]
fn seeded_corruption_is_skipped_counted_and_survivors_recovered() {
    let _guard = registry_lock();
    let dir = temp_dir("corrupt");

    // Build a journal by serving plans, then drain cleanly.
    const PLANS: usize = 6;
    {
        let (addr, handle, join) = spawn_durable_server(&dir, 0, None);
        wait_until_ready(addr, Duration::from_secs(30));
        let mut client = Client::connect(addr).expect("connect");
        client
            .set_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        for i in 0..PLANS {
            client.call(&dp_request(i)).expect("plan");
        }
        handle.signal();
        let _ = Client::connect(addr);
        join.join().expect("server thread").expect("clean exit");
    }

    // Corrupt it with the seeded injector: every op a pure function of
    // (seed, index), so a failure here replays exactly.
    let journal_path = dir.join(JOURNAL_FILE);
    let bytes = read_log_bytes(&journal_path).expect("read journal");
    assert!(!bytes.is_empty(), "journal should hold {PLANS} records");
    let spans = frame_spans(&bytes);
    assert_eq!(spans.len(), PLANS);
    let policy = CorruptionPolicy::new(20190520);
    let damaged = policy.corrupt(&bytes, &spans, 3);
    assert_ne!(damaged, bytes, "3 seeded ops must change the stream");
    std::fs::write(&journal_path, &damaged).expect("write damaged journal");

    // Restart over the damaged journal: no panic, typed skips, counted.
    let (addr, handle, join) = spawn_durable_server(&dir, 64, None);
    wait_until_ready(addr, Duration::from_secs(30));
    let mut client = Client::connect(addr).expect("connect");
    client
        .set_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let health = client.health().expect("health");
    let recovery = health.recovery.expect("recovery stats");
    assert!(
        recovery.recovered_records + recovery.corrupt_records > 0,
        "{recovery:?}"
    );

    // Every plan the injector's damage spared must be a warm hit with the
    // offline digest; damaged ones recompute (a miss, not an error).
    let mut warm = 0usize;
    for i in 0..PLANS {
        let response = client.call(&dp_request(i)).expect("plan after damage");
        let (digest, cached) = plan_digest_and_cached(&response);
        assert_eq!(digest, offline_digest(i), "plan {i} digest must match");
        if cached {
            warm += 1;
        }
    }
    assert!(
        warm >= recovery.recovered_records.min(PLANS as u64) as usize,
        "recovered records should serve warm: warm={warm}, {recovery:?}"
    );

    handle.signal();
    let _ = Client::connect(addr);
    join.join().expect("server thread").expect("clean exit");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Snapshot compaction: with a small `snapshot_every`, serving enough
/// plans must produce a snapshot and truncate the journal; a restart
/// recovers from the snapshot (plus tail) and reports it in `health`.
#[test]
fn snapshot_compaction_bounds_the_journal_and_recovers() {
    let _guard = registry_lock();
    let dir = temp_dir("compact");

    const PLANS: usize = 10;
    {
        let (addr, handle, join) = spawn_durable_server(&dir, 4, None);
        wait_until_ready(addr, Duration::from_secs(30));
        let mut client = Client::connect(addr).expect("connect");
        client
            .set_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        for i in 0..PLANS {
            client.call(&dp_request(i)).expect("plan");
        }
        handle.signal();
        let _ = Client::connect(addr);
        join.join().expect("server thread").expect("clean exit");
    }

    // 10 appends at snapshot_every=4 → at least 2 compactions; the
    // journal tail holds fewer records than were served.
    let snapshots: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".snap"))
        .collect();
    assert!(!snapshots.is_empty(), "no snapshot was written");
    let tail = read_log_bytes(&dir.join(JOURNAL_FILE)).expect("read journal");
    assert!(
        frame_spans(&tail).len() < PLANS,
        "journal was never truncated by compaction"
    );

    let (addr, handle, join) = spawn_durable_server(&dir, 4, None);
    wait_until_ready(addr, Duration::from_secs(30));
    let mut client = Client::connect(addr).expect("connect");
    client
        .set_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let health = client.health().expect("health");
    let recovery = health.recovery.expect("recovery stats");
    assert!(recovery.snapshot_generation.is_some(), "{recovery:?}");
    assert!(recovery.snapshot_records > 0, "{recovery:?}");
    assert!(recovery.recovered_records >= PLANS as u64, "{recovery:?}");

    // All served plans warm.
    for i in 0..PLANS {
        let response = client.call(&dp_request(i)).expect("warm plan");
        let (digest, cached) = plan_digest_and_cached(&response);
        assert!(cached, "plan {i} should be warm after compacted recovery");
        assert_eq!(digest, offline_digest(i));
    }

    handle.signal();
    let _ = Client::connect(addr);
    join.join().expect("server thread").expect("clean exit");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The not-ready window: while recovery runs, `plan` is shed with a typed
/// `not_ready`, `ready` answers not-ready, but `ping` and `health` work;
/// once recovery finishes everything flows.
#[test]
fn plan_requests_are_shed_with_not_ready_until_recovery_completes() {
    let _guard = registry_lock();
    let dir = temp_dir("notready");

    let (addr, handle, join) = spawn_durable_server(&dir, 64, Some(Duration::from_millis(600)));

    // Inside the window: liveness yes, readiness no, plan typed-shed.
    let mut client = Client::connect(addr).expect("connect during recovery");
    client
        .set_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    client.ping().expect("ping answers during recovery");
    let health = client.health().expect("health answers during recovery");
    assert!(!health.recovered, "{health:?}");
    assert!(!health.ready, "{health:?}");
    assert!(!client.ready().expect("ready answers"), "not ready yet");
    match client.call(&dp_request(0)).expect("plan answered") {
        Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::NotReady),
        other => panic!("expected not_ready during recovery, got {other:?}"),
    }

    // After the window closes, the same connection serves plans.
    wait_until_ready(addr, Duration::from_secs(30));
    let response = client.call(&dp_request(0)).expect("plan after recovery");
    let (digest, _) = plan_digest_and_cached(&response);
    assert_eq!(digest, offline_digest(0));

    handle.signal();
    let _ = Client::connect(addr);
    join.join().expect("server thread").expect("clean exit");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The key the server journals [`dp_request`]`(i)` under at solver revision
/// `revision`: the planner's key plus the simulate options (none here).
/// Builds before the revision existed (revision 0) wrote no revision field.
fn journal_key_at_revision(i: usize, revision: u32) -> String {
    let key = planner_for(i).cache_key().expect("cacheable law");
    let unrevised = key
        .strip_prefix(&format!("rev{SOLVER_REVISION}|"))
        .expect("the key leads with the solver revision");
    match revision {
        0 => format!("{unrevised}|sim=none"),
        r => format!("rev{r}|{unrevised}|sim=none"),
    }
}

/// A plan no solver produced for request `i`, with a digest that matches
/// its own sequence, so recovery accepts it.
fn marker_plan(i: usize) -> reservation_strategies::Plan {
    let mut plan = planner_for(i).plan().expect("offline plan");
    plan.sequence = vec![1.0, 2.0, 3.0];
    plan.digest = plan_digest(plan.sequence.iter().copied());
    assert_ne!(plan.digest, offline_digest(i));
    plan
}

/// A journal written by the previous solver revision is recovered but never
/// served: its plans carry that build's numbers, and recovery only checks
/// each plan against its own digest. The same record under this
/// revision's key is served, so the revision in the key is what keeps the
/// old plan out.
#[test]
fn records_of_an_older_solver_revision_are_recovered_but_never_served() {
    let _guard = registry_lock();
    let dir = temp_dir("revision");
    {
        let mut journal = JournalWriter::open(dir.join(JOURNAL_FILE), false).expect("journal");
        for (i, revision) in [(0, SOLVER_REVISION - 1), (1, SOLVER_REVISION)] {
            journal
                .append(&JournalRecord {
                    key: journal_key_at_revision(i, revision),
                    plan: marker_plan(i),
                })
                .expect("append");
        }
    }

    let (addr, handle, join) = spawn_durable_server(&dir, 0, None);
    wait_until_ready(addr, Duration::from_secs(30));
    let mut client = Client::connect(addr).expect("connect");
    client
        .set_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let recovery = client.health().expect("health").recovery.expect("stats");
    assert_eq!(recovery.recovered_records, 2, "{recovery:?}");
    assert_eq!(recovery.corrupt_records, 0, "{recovery:?}");

    let (digest, cached) = plan_digest_and_cached(&client.call(&dp_request(0)).expect("plan"));
    assert!(!cached, "an older revision's plan must not be served");
    assert_eq!(digest, offline_digest(0));
    let (digest, cached) = plan_digest_and_cached(&client.call(&dp_request(1)).expect("plan"));
    assert!(cached, "a record under this revision's key is served");
    assert_eq!(digest, marker_plan(1).digest);

    handle.signal();
    let _ = Client::connect(addr);
    join.join().expect("server thread").expect("clean exit");
    let _ = std::fs::remove_dir_all(&dir);
}
