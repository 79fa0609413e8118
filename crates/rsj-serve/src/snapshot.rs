//! Compacted snapshots of the plan cache, written atomically.
//!
//! A snapshot is the journal's compaction target: every
//! `--snapshot-every` appends the server dumps its live cache into
//! `snapshot-{generation:08}.snap` and truncates `journal.log`, bounding
//! replay work at the next restart to one snapshot plus a short journal
//! tail.
//!
//! Snapshots reuse the journal's CRC32 framing byte for byte
//! ([`crate::journal::encode_record`] / [`crate::journal::RecordScanner`])
//! — one codec, one forensic reader, one set of typed faults.
//!
//! Crash safety: a snapshot is first written and `sync_all`ed to
//! `*.snap.tmp`, then atomically renamed into place, so a crash
//! mid-snapshot leaves either the previous generation or the new one —
//! never a half-written file that recovery would have to guess about.
//! The two newest generations are kept; if the newest turns out to be
//! damaged at recovery time (bit rot), recovery falls back to the older
//! one.

use std::fs;
use std::path::PathBuf;

use crate::journal::{
    encode_record, read_log_bytes, JournalError, JournalRecord, RecordFault, RecordScanner,
};

/// How many snapshot generations to keep on disk. The newest is the
/// recovery source; the one before it is the fallback if the newest is
/// damaged.
pub(crate) const SNAPSHOT_GENERATIONS_KEPT: usize = 2;

/// Manages the snapshot files inside one journal directory.
#[derive(Debug, Clone)]
pub(crate) struct SnapshotStore {
    dir: PathBuf,
}

/// One snapshot file on disk, newest-first in [`SnapshotStore::list`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SnapshotFile {
    /// Monotonic snapshot generation (embedded in the file name).
    pub generation: u64,
    /// Full path to the `.snap` file.
    pub path: PathBuf,
}

impl SnapshotStore {
    /// A store over `dir`, creating the directory if needed.
    pub(crate) fn open(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Self { dir })
    }

    fn snapshot_path(&self, generation: u64) -> PathBuf {
        self.dir.join(format!("snapshot-{generation:08}.snap"))
    }

    /// Writes `records` as generation `generation`: temp file, `sync_all`,
    /// atomic rename, then prune of generations older than the newest
    /// [`SNAPSHOT_GENERATIONS_KEPT`].
    pub(crate) fn write(
        &self,
        generation: u64,
        records: &[JournalRecord],
    ) -> Result<PathBuf, JournalError> {
        let final_path = self.snapshot_path(generation);
        let tmp_path = self.dir.join(format!("snapshot-{generation:08}.snap.tmp"));
        let mut buf = Vec::new();
        for record in records {
            buf.extend_from_slice(&encode_record(record)?);
        }
        fs::write(&tmp_path, &buf)?;
        // Durability before visibility: the rename must not land before
        // the bytes do, or a crash could leave a *complete-looking* but
        // empty/partial snapshot under the final name.
        let tmp = fs::File::open(&tmp_path)?;
        tmp.sync_all()?;
        drop(tmp);
        fs::rename(&tmp_path, &final_path)?;
        self.prune()?;
        Ok(final_path)
    }

    /// All snapshot files in the directory, newest generation first.
    /// Unparsable file names are ignored (they are not snapshots).
    pub(crate) fn list(&self) -> std::io::Result<Vec<SnapshotFile>> {
        let mut found = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(generation) = name
                .strip_prefix("snapshot-")
                .and_then(|rest| rest.strip_suffix(".snap"))
                .and_then(|digits| digits.parse::<u64>().ok())
            else {
                continue;
            };
            found.push(SnapshotFile {
                generation,
                path: entry.path(),
            });
        }
        found.sort_by_key(|s| std::cmp::Reverse(s.generation));
        Ok(found)
    }

    /// The generation the *next* snapshot should use: one past the newest
    /// on disk, or 1 on a fresh directory.
    pub(crate) fn next_generation(&self) -> std::io::Result<u64> {
        Ok(self.list()?.first().map(|s| s.generation + 1).unwrap_or(1))
    }

    /// Scans one snapshot file with the shared forensic reader: decoded
    /// records plus every typed fault encountered.
    pub(crate) fn load(
        &self,
        file: &SnapshotFile,
    ) -> std::io::Result<(Vec<JournalRecord>, Vec<RecordFault>)> {
        let bytes = read_log_bytes(&file.path)?;
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

    fn prune(&self) -> std::io::Result<()> {
        for stale in self.list()?.into_iter().skip(SNAPSHOT_GENERATIONS_KEPT) {
            let _ = fs::remove_file(&stale.path);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reservation_strategies::{plan_digest, Plan};

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

    fn temp_store(tag: &str) -> SnapshotStore {
        let dir = std::env::temp_dir().join(format!("rsj_snap_{}_{}", tag, std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        SnapshotStore::open(dir).unwrap()
    }

    #[test]
    fn write_load_round_trips() {
        let store = temp_store("roundtrip");
        let records = vec![record("a", &[1.0, 2.0]), record("b", &[3.0])];
        store.write(1, &records).unwrap();
        let files = store.list().unwrap();
        assert_eq!(files.len(), 1);
        assert_eq!(files[0].generation, 1);
        let (loaded, faults) = store.load(&files[0]).unwrap();
        assert_eq!(loaded, records);
        assert!(faults.is_empty());
        let _ = fs::remove_dir_all(&store.dir);
    }

    #[test]
    fn keeps_only_the_newest_generations() {
        let store = temp_store("prune");
        for generation in 1..=4 {
            store.write(generation, &[record("x", &[1.0])]).unwrap();
        }
        let files = store.list().unwrap();
        let gens: Vec<u64> = files.iter().map(|f| f.generation).collect();
        assert_eq!(gens, vec![4, 3]);
        assert_eq!(store.next_generation().unwrap(), 5);
        let _ = fs::remove_dir_all(&store.dir);
    }

    #[test]
    fn no_tmp_file_survives_a_write() {
        let store = temp_store("tmp");
        store.write(1, &[record("a", &[1.0])]).unwrap();
        let leftovers: Vec<_> = fs::read_dir(&store.dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty());
        let _ = fs::remove_dir_all(&store.dir);
    }

    #[test]
    fn fresh_directory_starts_at_generation_one() {
        let store = temp_store("fresh");
        assert!(store.list().unwrap().is_empty());
        assert_eq!(store.next_generation().unwrap(), 1);
        let _ = fs::remove_dir_all(&store.dir);
    }

    #[test]
    fn damaged_snapshot_reports_typed_faults() {
        let store = temp_store("damaged");
        let records = vec![record("a", &[1.0]), record("b", &[2.0])];
        let path = store.write(1, &records).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        fs::write(&path, &bytes).unwrap();
        let files = store.list().unwrap();
        let (loaded, faults) = store.load(&files[0]).unwrap();
        assert!(!faults.is_empty());
        assert!(loaded.len() < records.len());
        let _ = fs::remove_dir_all(&store.dir);
    }
}
