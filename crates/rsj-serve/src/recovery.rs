//! Startup recovery: snapshot load + journal replay → a warm cache.
//!
//! The sequence mirrors every log-structured store:
//!
//! 1. pick the newest *usable* snapshot (falling back one generation if
//!    the newest is damaged — see the `snapshot` module), insert its
//!    records into the cache;
//! 2. replay `journal.log` on top — records written after the snapshot
//!    win by insertion order, and duplicate keys are benign because the
//!    cache key deterministically identifies the plan bytes;
//! 3. count everything: recovered records warm the cache, corrupt
//!    records are skipped with a typed [`RecordFault`] and a warning,
//!    never a panic.
//!
//! Every recovered plan re-earns its place: the [`RecordScanner`] has
//! already recomputed the FNV-1a digest over the journaled sequence and
//! rejected any record whose digest disagrees, so a warm hit is exactly
//! as trustworthy as a fresh solve.

use std::path::Path;
use std::time::Instant;

use crate::cache::PlanCache;
use crate::journal::{read_log_bytes, RecordFault, RecordScanner, JOURNAL_FILE};
use crate::snapshot::SnapshotStore;

use serde::{Deserialize, Serialize};

/// What recovery found, both for the operator (`health` op) and for the
/// metrics registry.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RecoveryStats {
    /// Generation of the snapshot that was loaded, if any.
    pub snapshot_generation: Option<u64>,
    /// Records recovered from the snapshot.
    pub snapshot_records: u64,
    /// Records recovered from the journal tail.
    pub journal_records: u64,
    /// Total records inserted into the cache (snapshot + journal).
    pub recovered_records: u64,
    /// Damaged records skipped with a typed fault (snapshot + journal).
    pub corrupt_records: u64,
    /// Wall-clock seconds recovery took.
    pub wall_seconds: f64,
}

/// Recovers the plan cache from `dir` (a `--journal-dir`): newest usable
/// snapshot, then the journal tail. Returns the tallies; corrupt records
/// are logged and counted, never fatal. The only hard error is an I/O
/// failure reading the directory itself.
pub fn recover(dir: &Path, cache: &PlanCache) -> std::io::Result<RecoveryStats> {
    let started = Instant::now();
    let mut stats = RecoveryStats::default();

    // Newest usable snapshot wins; a snapshot that yields zero records
    // *and* faults is damaged beyond use, so fall back a generation.
    let store = SnapshotStore::open(dir)?;
    for file in store.list()? {
        let (records, faults) = store.load(&file)?;
        for fault in &faults {
            rsj_obs::warn!(
                "recovery: corrupt snapshot record in {}: {fault}",
                file.path.display()
            );
        }
        if records.is_empty() && !faults.is_empty() {
            rsj_obs::warn!(
                "recovery: snapshot generation {} unusable, falling back",
                file.generation
            );
            stats.corrupt_records += faults.len() as u64;
            continue;
        }
        stats.snapshot_generation = Some(file.generation);
        stats.snapshot_records = records.len() as u64;
        stats.corrupt_records += faults.len() as u64;
        for record in records {
            cache.insert(record.key, std::sync::Arc::new(record.plan));
        }
        break;
    }

    // Journal tail on top: appended after the snapshot, so later wins —
    // though with deterministic keys, "wins" is a distinction without a
    // difference.
    let journal_bytes = read_log_bytes(&dir.join(JOURNAL_FILE))?;
    for item in RecordScanner::new(&journal_bytes) {
        match item {
            Ok((_, record)) => {
                stats.journal_records += 1;
                cache.insert(record.key, std::sync::Arc::new(record.plan));
            }
            Err(fault) => {
                stats.corrupt_records += 1;
                // A torn tail is the expected signature of a crash mid-
                // append, not an anomaly worth a warning.
                if matches!(fault, RecordFault::TornTail { .. }) {
                    rsj_obs::info!("recovery: journal ends in a torn record: {fault}");
                } else {
                    rsj_obs::warn!("recovery: corrupt journal record: {fault}");
                }
            }
        }
    }

    stats.recovered_records = stats.snapshot_records + stats.journal_records;
    stats.wall_seconds = started.elapsed().as_secs_f64();

    let registry = rsj_obs::global_registry();
    registry
        .counter("rsj_serve_recovered_records_total")
        .add(stats.recovered_records);
    registry
        .counter("rsj_serve_corrupt_records_total")
        .add(stats.corrupt_records);
    registry
        .gauge("rsj_serve_cache_entries")
        .set(cache.len() as f64);

    rsj_obs::info!(
        "recovery: {} records warm ({} snapshot + {} journal), {} corrupt skipped, {:.3}s",
        stats.recovered_records,
        stats.snapshot_records,
        stats.journal_records,
        stats.corrupt_records,
        stats.wall_seconds
    );
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{JournalRecord, JournalWriter};
    use reservation_strategies::{plan_digest, Plan};
    use std::path::PathBuf;

    fn record(tag: &str, seq: &[f64]) -> JournalRecord {
        JournalRecord {
            key: format!("key-{tag}"),
            plan: Plan {
                distribution: format!("dist-{tag}"),
                solver: "mean_by_mean".to_string(),
                sequence: seq.to_vec(),
                complete: true,
                expected_cost: 2.5,
                omniscient_cost: 1.25,
                normalized_cost: 2.0,
                coverage_gap: 0.0,
                digest: plan_digest(seq.iter().copied()),
                simulation: None,
            },
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rsj_recover_{}_{}", tag, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn empty_directory_recovers_to_an_empty_cache() {
        let dir = temp_dir("empty");
        let cache = PlanCache::new(16, 2);
        let stats = recover(&dir, &cache).unwrap();
        assert_eq!(stats.recovered_records, 0);
        assert_eq!(stats.corrupt_records, 0);
        assert!(stats.snapshot_generation.is_none());
        assert_eq!(cache.len(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_plus_journal_tail_warms_the_cache() {
        let dir = temp_dir("warm");
        let store = SnapshotStore::open(&dir).unwrap();
        store
            .write(3, &[record("a", &[1.0]), record("b", &[2.0])])
            .unwrap();
        let mut writer = JournalWriter::open(dir.join(JOURNAL_FILE), false).unwrap();
        writer.append(&record("c", &[3.0])).unwrap();

        let cache = PlanCache::new(16, 2);
        let stats = recover(&dir, &cache).unwrap();
        assert_eq!(stats.snapshot_generation, Some(3));
        assert_eq!(stats.snapshot_records, 2);
        assert_eq!(stats.journal_records, 1);
        assert_eq!(stats.recovered_records, 3);
        assert_eq!(stats.corrupt_records, 0);
        for tag in ["a", "b", "c"] {
            assert!(cache.get(&format!("key-{tag}")).is_some(), "missing {tag}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_journal_tail_is_counted_not_fatal() {
        let dir = temp_dir("torn");
        let mut writer = JournalWriter::open(dir.join(JOURNAL_FILE), false).unwrap();
        writer.append(&record("a", &[1.0])).unwrap();
        writer.append(&record("b", &[2.0])).unwrap();
        drop(writer);
        // Simulate a crash mid-append: chop the last 5 bytes.
        let path = dir.join(JOURNAL_FILE);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();

        let cache = PlanCache::new(16, 2);
        let stats = recover(&dir, &cache).unwrap();
        assert_eq!(stats.journal_records, 1);
        assert_eq!(stats.corrupt_records, 1);
        assert!(cache.get("key-a").is_some());
        assert!(cache.get("key-b").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn falls_back_to_an_older_snapshot_when_the_newest_is_destroyed() {
        let dir = temp_dir("fallback");
        let store = SnapshotStore::open(&dir).unwrap();
        store.write(1, &[record("old", &[1.0])]).unwrap();
        let newest = store.write(2, &[record("new", &[2.0])]).unwrap();
        // Destroy generation 2 wholesale: every record damaged.
        let mut bytes = std::fs::read(&newest).unwrap();
        for b in bytes.iter_mut() {
            *b ^= 0xFF;
        }
        std::fs::write(&newest, &bytes).unwrap();

        let cache = PlanCache::new(16, 2);
        let stats = recover(&dir, &cache).unwrap();
        assert_eq!(stats.snapshot_generation, Some(1));
        assert!(cache.get("key-old").is_some());
        assert!(stats.corrupt_records > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
