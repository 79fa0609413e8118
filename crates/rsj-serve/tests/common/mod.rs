//! Helpers shared by the `rsj-serve` integration suites. Each suite
//! compiles this module on its own and uses a subset of it.
#![allow(dead_code)]

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;

use rsj_core::SolverSpec;
use rsj_dist::DiscretizationScheme;
use rsj_serve::{Server, ServerConfig, ShutdownHandle};

/// Serializes the tests of one suite that read or move the
/// process-global metrics registry. A test that panicked while holding
/// it does not poison the rest.
pub fn registry_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Binds a server, runs it on a background thread, returns the address
/// plus a join handle resolving to `run()`'s result.
pub fn spawn_server(
    config: ServerConfig,
) -> (SocketAddr, ShutdownHandle, JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(config).expect("bind");
    let addr = server.local_addr();
    let handle = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run());
    (addr, handle, join)
}

/// A cheap DP solver spec (fast enough to run many times in a test).
pub fn fast_dp() -> SolverSpec {
    SolverSpec::Dp {
        scheme: DiscretizationScheme::EqualProbability,
        n: 150,
        epsilon: 1e-6,
        monotone: true,
    }
}

/// The value of counter `name` in a Prometheus exposition, 0 if absent.
pub fn counter_value(prometheus: &str, name: &str) -> u64 {
    prometheus
        .lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .map(|v| v.trim().parse().expect("counter value"))
        .unwrap_or(0)
}

/// A fresh, empty directory `rsj_{suite}_{tag}_{pid}` under the system
/// temp dir.
pub fn temp_dir(suite: &str, tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rsj_{}_{}_{}", suite, tag, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}
