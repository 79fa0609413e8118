//! Durability of the plan cache: appends, snapshot compaction, the drain
//! sync and startup recovery, behind one [`Journal`] handle.
//!
//! A `--journal-dir` holds two kinds of file, both in the CRC32 framing of
//! [`crate::journal`] (one codec, one forensic reader, one set of typed
//! faults):
//!
//! * `journal.log` — one record per solved plan, appended and flushed to
//!   the OS before the response, so anything a client heard back survives
//!   `kill -9`;
//! * `snapshot-{generation:08}.snap` — the whole cache, written every
//!   `snapshot_every` appends, which bounds replay at the next restart to
//!   one snapshot plus a short journal tail.
//!
//! Compaction order is what makes a crash at any instant safe: the
//! snapshot is written to `*.snap.tmp`, `sync_all`ed, and atomically
//! renamed into place; only once the rename has landed is the journal
//! truncated. A crash therefore leaves the previous generation plus the
//! whole journal, or the new generation — never a half-written file that
//! recovery would have to guess about. The two newest generations are
//! kept.
//!
//! Recovery ([`recover`]) mirrors every log-structured store:
//!
//! 1. load the newest *usable* snapshot into the cache, falling back one
//!    generation if the newest is damaged beyond use (bit rot);
//! 2. replay `journal.log` on top — records written after the snapshot
//!    win by insertion order, and duplicate keys are benign because the
//!    cache key deterministically identifies the plan bytes;
//! 3. count everything: corrupt records are skipped with a typed
//!    [`RecordFault`] and a warning, never a panic.
//!
//! Every recovered plan re-earns its place: the [`RecordScanner`] has
//! already recomputed the FNV-1a digest over the journaled sequence and
//! rejected any record whose digest disagrees, so a warm hit is exactly
//! as trustworthy as a fresh solve.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use reservation_strategies::Plan;
use serde::{Deserialize, Serialize};

use crate::cache::PlanCache;
use crate::journal::{
    encode_record, read_log_bytes, JournalRecord, JournalWriter, RecordFault, RecordScanner,
    JOURNAL_FILE,
};

/// Crash-safety settings: where the plan journal lives and how often it
/// compacts into a snapshot.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding `journal.log` and `snapshot-*.snap`; created if
    /// missing. Restarting against the same directory warm-fills the
    /// cache.
    pub dir: PathBuf,
    /// Compact the journal into a snapshot every this many appends
    /// (0 disables snapshots; the journal then grows unboundedly until
    /// restart).
    pub snapshot_every: u64,
    /// `sync_data` per append: extends the durability guarantee from
    /// process death (`kill -9`) to machine death, at a large per-append
    /// cost. Off by default.
    pub fsync: bool,
    /// Test-only: stall recovery by this long before it starts, to make
    /// the not-ready window observable. `None` in production.
    pub recovery_delay: Option<Duration>,
}

impl DurabilityConfig {
    /// Durability rooted at `dir` with the default snapshot cadence
    /// (every 64 appends) and no per-append fsync.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            snapshot_every: 64,
            fsync: false,
            recovery_delay: None,
        }
    }
}

/// How many snapshot generations to keep on disk. The newest is the
/// recovery source; the one before it is the fallback if the newest is
/// damaged.
const SNAPSHOT_GENERATIONS_KEPT: usize = 2;

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

/// Recovers the plan cache from `dir` (a `--journal-dir`, created if
/// missing): newest usable snapshot, then the journal tail. Returns the
/// tallies; corrupt records are logged and counted, never fatal. The only
/// hard error is an I/O failure reading the directory itself.
pub fn recover(dir: &Path, cache: &PlanCache) -> io::Result<RecoveryStats> {
    let started = Instant::now();
    let mut stats = RecoveryStats::default();
    fs::create_dir_all(dir)?;

    // Newest usable snapshot wins; a snapshot that yields zero records
    // *and* faults is damaged beyond use, so fall back a generation.
    for (generation, path) in snapshots(dir)? {
        let (records, faults) = scan(&path)?;
        for fault in &faults {
            rsj_obs::warn!(
                "recovery: corrupt snapshot record in {}: {fault}",
                path.display()
            );
        }
        stats.corrupt_records += faults.len() as u64;
        if records.is_empty() && !faults.is_empty() {
            rsj_obs::warn!("recovery: snapshot generation {generation} unusable, falling back");
            continue;
        }
        stats.snapshot_generation = Some(generation);
        stats.snapshot_records = records.len() as u64;
        for record in records {
            cache.insert(record.key, Arc::new(record.plan));
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
                cache.insert(record.key, Arc::new(record.plan));
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

/// The write side of a `--journal-dir`: appends, compaction into a
/// snapshot every `snapshot_every` appends, and the sync at drain.
pub(crate) struct Journal {
    writer: JournalWriter,
    dir: PathBuf,
    snapshot_every: u64,
    appends_since_snapshot: u64,
    next_generation: u64,
}

impl Journal {
    /// Recovers `cache` from `config.dir`, then opens the journal for
    /// appending. A failure is logged and leaves the server memory-only,
    /// so it still becomes ready (an operator losing durability beats an
    /// operator losing serving). A failed recovery opens no writer: its
    /// first compaction would snapshot a cache that lacks the plans
    /// recovery never read and then truncate the journal that holds them.
    pub(crate) fn open(
        config: &DurabilityConfig,
        cache: &PlanCache,
    ) -> (Option<Self>, Option<RecoveryStats>) {
        if let Some(delay) = config.recovery_delay {
            std::thread::sleep(delay);
        }
        let dir = &config.dir;
        let stats = match recover(dir, cache) {
            Ok(stats) => stats,
            Err(e) => {
                rsj_obs::warn!(
                    "recovery failed for {}; serving memory-only: {e}",
                    dir.display()
                );
                return (None, None);
            }
        };
        let journal = next_generation(dir)
            .and_then(|next_generation| {
                Ok(Self {
                    writer: JournalWriter::open(dir.join(JOURNAL_FILE), config.fsync)?,
                    dir: dir.clone(),
                    snapshot_every: config.snapshot_every,
                    appends_since_snapshot: 0,
                    next_generation,
                })
            })
            .inspect_err(|e| {
                rsj_obs::warn!(
                    "cannot open journal in {}; serving memory-only: {e}",
                    dir.display()
                );
            })
            .ok();
        (journal, Some(stats))
    }

    /// Journals one solved plan, then compacts `cache` into a snapshot if
    /// this append completes a `snapshot_every` run. Failures are logged
    /// and counted, never propagated: serving degrades to memory-only
    /// rather than failing requests over a full disk.
    pub(crate) fn append(&mut self, key: &str, plan: &Plan, cache: &PlanCache) {
        let record = JournalRecord {
            key: key.to_string(),
            plan: plan.clone(),
        };
        let registry = rsj_obs::global_registry();
        if let Err(e) = self.writer.append(&record) {
            registry.counter("rsj_serve_journal_errors_total").inc();
            rsj_obs::warn!("journal append failed (serving continues memory-only): {e}");
            return;
        }
        registry.counter("rsj_serve_journal_appends_total").inc();
        self.appends_since_snapshot += 1;
        if self.snapshot_every == 0 || self.appends_since_snapshot < self.snapshot_every {
            return;
        }
        let records: Vec<JournalRecord> = cache
            .entries()
            .into_iter()
            .map(|(key, plan)| JournalRecord {
                key,
                plan: (*plan).clone(),
            })
            .collect();
        match write_snapshot(&self.dir, self.next_generation, &records) {
            Ok(path) => {
                registry.counter("rsj_serve_snapshots_total").inc();
                rsj_obs::info!(
                    "snapshot generation {} written ({} records) to {}",
                    self.next_generation,
                    records.len(),
                    path.display()
                );
                self.next_generation += 1;
                self.appends_since_snapshot = 0;
                // The snapshot durably holds everything; the journal
                // restarts empty. Order matters: truncating *before* the
                // rename lands would open a loss window.
                if let Err(e) = self.writer.reset() {
                    registry.counter("rsj_serve_journal_errors_total").inc();
                    rsj_obs::warn!("journal truncate after snapshot failed: {e}");
                }
            }
            Err(e) => {
                registry.counter("rsj_serve_journal_errors_total").inc();
                rsj_obs::warn!("snapshot write failed (journal keeps growing): {e}");
            }
        }
    }

    /// Forces the journal tail to disk: a graceful drain should leave
    /// nothing for the OS page cache to lose.
    pub(crate) fn sync(&mut self) {
        if let Err(e) = self.writer.sync() {
            rsj_obs::warn!("journal sync on drain failed: {e}");
        }
    }
}

/// Writes `records` as snapshot `generation` in `dir`: temp file,
/// `sync_all`, atomic rename, then a prune down to the newest
/// [`SNAPSHOT_GENERATIONS_KEPT`].
fn write_snapshot(dir: &Path, generation: u64, records: &[JournalRecord]) -> io::Result<PathBuf> {
    let final_path = dir.join(format!("snapshot-{generation:08}.snap"));
    let tmp_path = dir.join(format!("snapshot-{generation:08}.snap.tmp"));
    let mut buf = Vec::new();
    for record in records {
        buf.extend_from_slice(&encode_record(record)?);
    }
    fs::write(&tmp_path, &buf)?;
    // Durability before visibility: the rename must not land before the
    // bytes do, or a crash could leave a *complete-looking* but
    // empty/partial snapshot under the final name.
    fs::File::open(&tmp_path)?.sync_all()?;
    fs::rename(&tmp_path, &final_path)?;
    for (_, stale) in snapshots(dir)?.into_iter().skip(SNAPSHOT_GENERATIONS_KEPT) {
        let _ = fs::remove_file(stale);
    }
    Ok(final_path)
}

/// The snapshot files in `dir` as `(generation, path)`, newest first.
/// Unparsable file names are ignored (they are not snapshots).
fn snapshots(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut found = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(generation) = name
            .to_str()
            .and_then(|name| name.strip_prefix("snapshot-"))
            .and_then(|rest| rest.strip_suffix(".snap"))
            .and_then(|digits| digits.parse::<u64>().ok())
        else {
            continue;
        };
        found.push((generation, entry.path()));
    }
    found.sort_by_key(|&(generation, _)| std::cmp::Reverse(generation));
    Ok(found)
}

/// The generation the next snapshot in `dir` takes: one past the newest
/// on disk, or 1 in a fresh directory.
fn next_generation(dir: &Path) -> io::Result<u64> {
    fs::create_dir_all(dir)?;
    Ok(snapshots(dir)?
        .first()
        .map_or(1, |&(generation, _)| generation + 1))
}

/// Scans one snapshot file with the shared forensic reader: the decoded
/// records plus every typed fault encountered.
fn scan(path: &Path) -> io::Result<(Vec<JournalRecord>, Vec<RecordFault>)> {
    let bytes = read_log_bytes(path)?;
    let mut records = Vec::new();
    let mut faults = Vec::new();
    for item in RecordScanner::new(&bytes) {
        match item {
            Ok((_, record)) => records.push(record),
            Err(fault) => faults.push(fault),
        }
    }
    Ok((records, faults))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::fixtures::{record, temp_dir};

    fn durability(dir: &Path, snapshot_every: u64) -> DurabilityConfig {
        DurabilityConfig {
            snapshot_every,
            ..DurabilityConfig::new(dir)
        }
    }

    fn generations(dir: &Path) -> Vec<u64> {
        snapshots(dir)
            .unwrap()
            .into_iter()
            .map(|(g, _)| g)
            .collect()
    }

    #[test]
    fn write_scan_round_trips() {
        let dir = temp_dir("durable_roundtrip");
        let records = vec![record("a", &[1.0, 2.0]), record("b", &[3.0])];
        write_snapshot(&dir, 1, &records).unwrap();
        let files = snapshots(&dir).unwrap();
        assert_eq!(files.len(), 1);
        assert_eq!(files[0].0, 1);
        let (loaded, faults) = scan(&files[0].1).unwrap();
        assert_eq!(loaded, records);
        assert!(faults.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn keeps_only_the_newest_generations() {
        let dir = temp_dir("durable_prune");
        for generation in 1..=4 {
            write_snapshot(&dir, generation, &[record("x", &[1.0])]).unwrap();
        }
        assert_eq!(generations(&dir), vec![4, 3]);
        assert_eq!(next_generation(&dir).unwrap(), 5);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn no_tmp_file_survives_a_write() {
        let dir = temp_dir("durable_tmp");
        write_snapshot(&dir, 1, &[record("a", &[1.0])]).unwrap();
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fresh_directory_starts_at_generation_one() {
        let dir = temp_dir("durable_fresh");
        assert!(snapshots(&dir).unwrap().is_empty());
        assert_eq!(next_generation(&dir).unwrap(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_snapshot_reports_typed_faults() {
        let dir = temp_dir("durable_damaged");
        let records = vec![record("a", &[1.0]), record("b", &[2.0])];
        let path = write_snapshot(&dir, 1, &records).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        fs::write(&path, &bytes).unwrap();
        let (loaded, faults) = scan(&path).unwrap();
        assert!(!faults.is_empty());
        assert!(loaded.len() < records.len());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_directory_recovers_to_an_empty_cache() {
        let dir = temp_dir("durable_empty");
        let cache = PlanCache::new(16, 2);
        let stats = recover(&dir, &cache).unwrap();
        assert_eq!(stats.recovered_records, 0);
        assert_eq!(stats.corrupt_records, 0);
        assert!(stats.snapshot_generation.is_none());
        assert_eq!(cache.len(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_plus_journal_tail_warms_the_cache() {
        let dir = temp_dir("durable_warm");
        write_snapshot(&dir, 3, &[record("a", &[1.0]), record("b", &[2.0])]).unwrap();
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
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_journal_tail_is_counted_not_fatal() {
        let dir = temp_dir("durable_torn");
        let mut writer = JournalWriter::open(dir.join(JOURNAL_FILE), false).unwrap();
        writer.append(&record("a", &[1.0])).unwrap();
        writer.append(&record("b", &[2.0])).unwrap();
        drop(writer);
        // Simulate a crash mid-append: chop the last 5 bytes.
        let path = dir.join(JOURNAL_FILE);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();

        let cache = PlanCache::new(16, 2);
        let stats = recover(&dir, &cache).unwrap();
        assert_eq!(stats.journal_records, 1);
        assert_eq!(stats.corrupt_records, 1);
        assert!(cache.get("key-a").is_some());
        assert!(cache.get("key-b").is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn falls_back_to_an_older_snapshot_when_the_newest_is_destroyed() {
        let dir = temp_dir("durable_fallback");
        write_snapshot(&dir, 1, &[record("old", &[1.0])]).unwrap();
        let newest = write_snapshot(&dir, 2, &[record("new", &[2.0])]).unwrap();
        // Destroy generation 2 wholesale: every record damaged.
        let mut bytes = fs::read(&newest).unwrap();
        for b in bytes.iter_mut() {
            *b ^= 0xFF;
        }
        fs::write(&newest, &bytes).unwrap();

        let cache = PlanCache::new(16, 2);
        let stats = recover(&dir, &cache).unwrap();
        assert_eq!(stats.snapshot_generation, Some(1));
        assert!(cache.get("key-old").is_some());
        assert!(stats.corrupt_records > 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn appends_compact_every_snapshot_every_and_truncate_after_the_rename() {
        let dir = temp_dir("durable_compact");
        let cache = PlanCache::new(16, 2);
        let (journal, stats) = Journal::open(&durability(&dir, 2), &cache);
        let mut journal = journal.expect("journal opens");
        assert_eq!(stats.expect("recovery ran").recovered_records, 0);

        for (i, tag) in ["a", "b", "c"].into_iter().enumerate() {
            let rec = record(tag, &[1.0 + i as f64]);
            cache.insert(rec.key.clone(), Arc::new(rec.plan.clone()));
            journal.append(&rec.key, &rec.plan, &cache);
        }
        // The second append compacted a and b into generation 1 and
        // emptied the journal; the third is the journal's only record.
        assert_eq!(generations(&dir), vec![1]);
        let (snapshot, faults) = scan(&snapshots(&dir).unwrap()[0].1).unwrap();
        assert!(faults.is_empty());
        assert_eq!(snapshot.len(), 2);
        let tail = read_log_bytes(&dir.join(JOURNAL_FILE)).unwrap();
        let tail: Vec<_> = RecordScanner::new(&tail).map(|r| r.unwrap().1).collect();
        assert_eq!(tail, vec![record("c", &[3.0])]);
        journal.sync();
        drop(journal);

        // A restart reads generation 1 plus the tail, and its next
        // snapshot is generation 2.
        let warm = PlanCache::new(16, 2);
        let (journal, stats) = Journal::open(&durability(&dir, 2), &warm);
        let stats = stats.expect("recovery ran");
        assert_eq!(stats.snapshot_generation, Some(1));
        assert_eq!((stats.snapshot_records, stats.journal_records), (2, 1));
        assert_eq!(warm.len(), 3);
        assert_eq!(journal.expect("journal reopens").next_generation, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_every_zero_never_compacts() {
        let dir = temp_dir("durable_no_compact");
        let cache = PlanCache::new(16, 2);
        let (journal, _) = Journal::open(&durability(&dir, 0), &cache);
        let mut journal = journal.expect("journal opens");
        for i in 0..5 {
            let rec = record(&format!("k{i}"), &[1.0 + i as f64]);
            journal.append(&rec.key, &rec.plan, &cache);
        }
        assert!(generations(&dir).is_empty());
        let bytes = read_log_bytes(&dir.join(JOURNAL_FILE)).unwrap();
        assert_eq!(RecordScanner::new(&bytes).count(), 5);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_recovery_leaves_the_journal_for_the_next_restart() {
        let dir = temp_dir("durable_failed_recovery");
        let mut writer = JournalWriter::open(dir.join(JOURNAL_FILE), false).unwrap();
        writer.append(&record("a", &[1.0])).unwrap();
        writer.append(&record("b", &[2.0])).unwrap();
        drop(writer);
        // Named like snapshot generation 1, but a directory: recovery
        // cannot read it.
        let obstacle = dir.join("snapshot-00000001.snap");
        fs::create_dir(&obstacle).unwrap();

        let cache = PlanCache::new(16, 2);
        let (journal, stats) = Journal::open(&durability(&dir, 1), &cache);
        assert!(stats.is_none(), "recovery cannot read the obstacle");
        // A plan solved while serving memory-only: with a writer open, its
        // append would compact a cache without a and b and empty the
        // journal.
        let c = record("c", &[3.0]);
        cache.insert(c.key.clone(), Arc::new(c.plan.clone()));
        if let Some(mut journal) = journal {
            journal.append(&c.key, &c.plan, &cache);
        }

        fs::remove_dir(&obstacle).unwrap();
        let warm = PlanCache::new(16, 2);
        let (journal, stats) = Journal::open(&durability(&dir, 1), &warm);
        assert!(journal.is_some());
        assert_eq!(stats.expect("recovery runs").journal_records, 2);
        for tag in ["a", "b"] {
            assert!(warm.get(&format!("key-{tag}")).is_some(), "lost {tag}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_unusable_directory_serves_memory_only() {
        // A plain file where the directory should be: both halves fail,
        // and neither failure is fatal.
        let dir = temp_dir("durable_unusable");
        let not_a_dir = dir.join("file");
        fs::write(&not_a_dir, b"x").unwrap();
        let cache = PlanCache::new(16, 2);
        let (journal, stats) = Journal::open(&DurabilityConfig::new(&not_a_dir), &cache);
        assert!(journal.is_none());
        assert!(stats.is_none());
        let _ = fs::remove_dir_all(&dir);
    }
}
