//! [`SegmentStore`]: the segmented write-ahead log itself — rotation,
//! the compactor, garbage collection, and bounded-time recovery.
//!
//! See the [module docs](crate::store) for the layout and crash-safety
//! argument. The store implements [`RecordLog`], so
//! [`EngineBackend::with_log`](crate::backend::EngineBackend::with_log)
//! commits rounds through it exactly as it does through a
//! single-segment [`WalWriter`](crate::wal::WalWriter) — the durability
//! barrier (commit = durable append, failure = rollback) is unchanged.

use std::path::Path;

use crate::wal::{self, EpochRecord, RecordKind, RecordLog, Replay, WalError, WAL_MAGIC};

use super::fs::{DirFs, StoreFs};
use super::manifest::{parse_segment_name, segment_file_name, Manifest, MANIFEST_FILE};

/// Rotation and compaction thresholds. All three are *lazy*: they are
/// evaluated against durably committed state immediately before the
/// next append, so an interrupted run and its resume make identical
/// rotation/compaction decisions — what keeps crash recovery
/// bit-identical at the directory level, not just the state level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// Seal the active segment once it holds at least this many bytes
    /// (`0` disables size-based rotation).
    pub rotate_bytes: u64,
    /// Seal the active segment once it holds at least this many records
    /// (`0` disables count-based rotation).
    pub rotate_records: u64,
    /// Write a snapshot and garbage-collect everything it covers once
    /// this many epoch records follow the newest snapshot (`0` disables
    /// compaction; the log then grows without bound, like the
    /// single-segment layout).
    pub compact_every: u64,
}

impl Default for StoreConfig {
    /// 64 MiB size rotation, no count rotation, compaction every 256
    /// records.
    fn default() -> Self {
        Self {
            rotate_bytes: 64 << 20,
            rotate_records: 0,
            compact_every: 256,
        }
    }
}

/// What one segment of a replayed store holds (for `dptd recover
/// --stats` and the harnesses).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentInfo {
    /// The segment's id (its file is
    /// [`segment_file_name`]`(id)`).
    pub id: u64,
    /// The file's total length in bytes (committed prefix + any torn
    /// tail).
    pub bytes: u64,
    /// Committed records in the segment.
    pub records: u64,
    /// How many of those are stored as v3 delta frames (the rest are
    /// full epoch or snapshot frames).
    pub delta_records: u64,
    /// Bytes the delta frames occupy.
    pub delta_bytes: u64,
    /// Epochs of the snapshot records inside the segment (normally at
    /// most one, as the segment's first record).
    pub snapshot_epochs: Vec<u64>,
    /// Torn-tail bytes (only ever non-zero for the active segment).
    pub torn_bytes: u64,
}

impl SegmentInfo {
    /// Committed records stored as full (epoch or snapshot) frames.
    pub fn full_records(&self) -> u64 {
        self.records - self.delta_records
    }

    /// Bytes those full frames occupy.
    pub fn full_bytes(&self) -> u64 {
        (self.bytes - self.torn_bytes).saturating_sub(WAL_MAGIC.len() as u64 + self.delta_bytes)
    }
}

/// A read-only replay of a whole segmented store directory.
#[derive(Debug, Clone)]
pub struct StoreReplay {
    /// Every committed record across every segment, in log order —
    /// feed to [`recover_replay`](crate::recovery::recover_replay).
    pub replay: Replay,
    /// Per-segment accounting, in manifest order.
    pub segments: Vec<SegmentInfo>,
    /// Segment files on disk that the manifest does not name, with
    /// their sizes: staged-but-uncommitted segments or interrupted
    /// garbage collection. A writer deletes them at open; a reader
    /// only reports them.
    pub orphans: Vec<(String, u64)>,
    /// The manifest the replay followed (synthesized for a legacy
    /// single-segment directory with no manifest file).
    pub manifest: Manifest,
}

impl StoreReplay {
    /// The newest snapshot record's epoch anywhere in the log.
    pub fn newest_snapshot_epoch(&self) -> Option<u64> {
        self.segments
            .iter()
            .flat_map(|s| s.snapshot_epochs.iter().copied())
            .max()
    }

    /// Total bytes of every manifest-named segment file.
    pub fn total_bytes(&self) -> u64 {
        self.segments.iter().map(|s| s.bytes).sum()
    }

    /// Bytes a compaction running now would free: everything except
    /// one fresh segment holding a snapshot of the newest committed
    /// record. Computed arithmetically — a snapshot is the record's
    /// *full* frame minus its accepted-user list, however the record
    /// itself is stored — so inspecting a million-user log never
    /// serializes one just to measure it. Zero once delta frames have
    /// kept the log below one snapshot's size.
    pub fn reclaimable_bytes(&self) -> u64 {
        let Some(last) = self.replay.records.last() else {
            return 0;
        };
        let snapshot_len = last.encoded_len() - 8 * last.accepted_users.len();
        let keep = (WAL_MAGIC.len() + snapshot_len) as u64;
        self.total_bytes().saturating_sub(keep)
    }
}

/// The segmented snapshot store: an ordered set of checksummed segment
/// files rooted in an atomically-rewritten [`Manifest`], with segment
/// rotation, snapshot compaction and garbage collection.
///
/// Open with [`SegmentStore::open`] (or
/// [`SegmentStore::open_dir`]); commit records through the
/// [`RecordLog`] impl. The caller holds the directory's advisory
/// [`WalLock`](crate::wal::WalLock), exactly as with
/// [`FileWal`](crate::wal::FileWal).
#[derive(Debug)]
pub struct SegmentStore {
    fs: Box<dyn StoreFs>,
    config: StoreConfig,
    manifest: Manifest,
    /// Committed bytes of the active segment (its magic included).
    active_len: u64,
    /// Committed records in the active segment.
    active_records: u64,
    /// Epoch records committed since the newest snapshot (or ever, if
    /// the log holds no snapshot) — the compaction clock.
    records_since_snapshot: u64,
    /// The newest committed record: everything a lazily-written
    /// snapshot needs, and the base the next delta frame is taken
    /// against. Updated in place, and only once an append has
    /// committed.
    last_record: Option<EpochRecord>,
    /// The users the last delta frame listed (scratch, reused).
    changed: Vec<u32>,
    /// Set when an append failed; the next append truncates the active
    /// segment back to its committed length first.
    dirty: bool,
}

/// Replay every manifest-named segment through `read`, enforcing that
/// only the **active** (last) segment may carry a torn tail — sealed
/// segments were synced record-by-record before the manifest ever
/// sealed them, so damage there is real corruption.
///
/// `synthesized` says the manifest was never on disk (a fresh or
/// legacy-adopted directory): only then may the active segment be
/// missing. A *committed* manifest references files it created before
/// its own atomic rewrite, so any named segment that has vanished —
/// sealed or active — lost committed records and is refused rather
/// than silently replayed as a shorter campaign (which would regress
/// the privacy-budget ledger).
fn replay_manifest(
    manifest: &Manifest,
    synthesized: bool,
    mut read: impl FnMut(&str) -> Result<Option<Vec<u8>>, WalError>,
) -> Result<(Replay, Vec<SegmentInfo>), WalError> {
    let mut infos = Vec::new();
    let mut whole = Replay::default();
    for (i, &id) in manifest.segments.iter().enumerate() {
        let is_active = i + 1 == manifest.segments.len();
        let name = segment_file_name(id);
        let bytes = match read(&name)? {
            Some(bytes) => bytes,
            None if is_active && synthesized => Vec::new(),
            None => {
                return Err(WalError::Corrupt {
                    offset: 0,
                    reason: "manifest names a segment that is missing",
                });
            }
        };
        let replayed = wal::replay(&bytes)?;
        if !is_active {
            if replayed.truncated_bytes > 0 {
                return Err(WalError::Corrupt {
                    offset: replayed.valid_len,
                    reason: "sealed segment has a torn tail",
                });
            }
            if replayed.records.is_empty() {
                return Err(WalError::Corrupt {
                    offset: 0,
                    reason: "sealed segment holds no committed records",
                });
            }
        } else {
            whole.valid_len = replayed.valid_len;
            whole.truncated_bytes = replayed.truncated_bytes;
        }
        whole.delta_records += replayed.delta_records;
        whole.delta_bytes += replayed.delta_bytes;
        infos.push(SegmentInfo {
            id,
            bytes: bytes.len() as u64,
            records: replayed.records.len() as u64,
            delta_records: replayed.delta_records,
            delta_bytes: replayed.delta_bytes,
            snapshot_epochs: replayed
                .records
                .iter()
                .filter(|r| r.kind == RecordKind::Snapshot)
                .map(|r| r.epoch)
                .collect(),
            torn_bytes: replayed.truncated_bytes,
        });
        whole.records.extend(replayed.records);
    }
    Ok((whole, infos))
}

/// Epoch records after the newest snapshot (the compaction clock's
/// replayed value).
fn count_since_snapshot(records: &[EpochRecord]) -> u64 {
    let mut count = 0;
    for record in records.iter().rev() {
        match record.kind {
            RecordKind::Snapshot => break,
            RecordKind::Epoch => count += 1,
        }
    }
    count
}

impl SegmentStore {
    /// Open (creating or repairing as needed) the segmented store in
    /// `fs`, returning it alongside the replay of every committed
    /// record — hand both to
    /// [`EngineBackend::with_log`](crate::backend::EngineBackend::with_log).
    ///
    /// Opening repairs every crash the store's operations can leave
    /// behind, deterministically: a leftover manifest temp file is
    /// deleted, orphan segments (staged rotations/compactions whose
    /// manifest commit never happened, or an interrupted garbage
    /// collection) are deleted, and the active segment's torn tail is
    /// truncated. A directory written by the single-segment
    /// [`FileWal`](crate::wal::FileWal) layout is adopted in place: its
    /// `segment-000.wal` becomes the whole manifest.
    ///
    /// # Errors
    ///
    /// [`WalError::Corrupt`] for a damaged manifest, a missing or torn
    /// **sealed** segment, or corruption inside any segment;
    /// [`WalError::Io`] for filesystem failures.
    pub fn open(mut fs: Box<dyn StoreFs>, config: StoreConfig) -> Result<(Self, Replay), WalError> {
        // A crash inside an atomic rewrite leaves a `*.tmp` staging file
        // (`MANIFEST.tmp`, `segment-NNN.wal.tmp`); none was ever part of
        // the log, so all are garbage.
        for name in fs.list()? {
            if name.ends_with(".tmp") {
                fs.remove(&name)?;
            }
        }
        let (manifest, manifest_on_disk) = match fs.read(MANIFEST_FILE)? {
            Some(bytes) => (Manifest::decode(&bytes)?, true),
            // Fresh directory, or a legacy single-segment FileWal dir:
            // either way segment 0 is the whole log.
            None => (Manifest { segments: vec![0] }, false),
        };
        // Orphan segments are uncommitted staging or interrupted GC;
        // both repairs are deletion.
        for name in fs.list()? {
            if let Some(id) = parse_segment_name(&name) {
                if !manifest.segments.contains(&id) {
                    fs.remove(&name)?;
                }
            }
        }
        let (replay, infos) = replay_manifest(&manifest, !manifest_on_disk, |name| fs.read(name))?;
        let active_name = segment_file_name(manifest.active());
        if replay.truncated_bytes > 0 {
            fs.truncate(&active_name, replay.valid_len)?;
        }
        let mut active_len = replay.valid_len;
        if active_len == 0 {
            fs.append(&active_name, &WAL_MAGIC)?;
            active_len = WAL_MAGIC.len() as u64;
        }
        if !manifest_on_disk {
            // Adoption is durable only once the manifest is: written
            // after the segment it names exists.
            fs.write_atomic(MANIFEST_FILE, &manifest.encode())?;
        }
        let active_records = infos.last().map_or(0, |info| info.records);
        let store = Self {
            fs,
            config,
            manifest,
            active_len,
            active_records,
            records_since_snapshot: count_since_snapshot(&replay.records),
            last_record: replay.records.last().cloned(),
            changed: Vec::new(),
            dirty: false,
        };
        Ok((store, replay))
    }

    /// [`SegmentStore::open`] over a real directory ([`DirFs`]).
    ///
    /// # Errors
    ///
    /// As [`SegmentStore::open`], plus directory-creation failures.
    pub fn open_dir(dir: &Path, config: StoreConfig) -> Result<(Self, Replay), WalError> {
        let fs = DirFs::open(dir)?;
        Self::open(Box::new(fs), config)
    }

    /// The store's thresholds.
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// The manifest as currently committed.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// Epoch records committed since the newest snapshot.
    pub fn records_since_snapshot(&self) -> u64 {
        self.records_since_snapshot
    }

    fn compaction_due(&self) -> bool {
        self.config.compact_every > 0
            && self.last_record.is_some()
            && self.records_since_snapshot >= self.config.compact_every
    }

    fn rotation_due(&self) -> bool {
        self.active_records > 0
            && ((self.config.rotate_bytes > 0 && self.active_len >= self.config.rotate_bytes)
                || (self.config.rotate_records > 0
                    && self.active_records >= self.config.rotate_records))
    }

    /// Seal the active segment and open a fresh one. Commit point: the
    /// manifest rewrite (a crash before it leaves an orphan the next
    /// open deletes).
    fn rotate(&mut self) -> Result<(), WalError> {
        let id = self.manifest.next_id();
        let name = segment_file_name(id);
        // Atomic creation: a leftover orphan from an earlier interrupted
        // attempt is simply replaced.
        self.fs.write_atomic(&name, &WAL_MAGIC)?;
        let mut next = self.manifest.clone();
        next.segments.push(id);
        self.fs.write_atomic(MANIFEST_FILE, &next.encode())?;
        self.manifest = next;
        self.active_len = WAL_MAGIC.len() as u64;
        self.active_records = 0;
        Ok(())
    }

    /// The compactor: write a snapshot of the newest committed record
    /// into a fresh segment, commit it as the *entire* manifest, then
    /// garbage-collect every superseded segment. Commit point: the
    /// manifest rewrite — before it the snapshot segment is an orphan;
    /// after it the old segments are orphans; either way the next open
    /// repairs by deletion and recovery replays to the same state.
    fn compact(&mut self) -> Result<(), WalError> {
        let snapshot = self
            .last_record
            .as_ref()
            .expect("compaction_due requires a committed record")
            .to_snapshot();
        let id = self.manifest.next_id();
        let name = segment_file_name(id);
        let mut bytes = WAL_MAGIC.to_vec();
        bytes.extend_from_slice(&snapshot.encode());
        self.fs.write_atomic(&name, &bytes)?;
        let next = Manifest { segments: vec![id] };
        self.fs.write_atomic(MANIFEST_FILE, &next.encode())?;
        let old = std::mem::replace(&mut self.manifest, next);
        self.active_len = bytes.len() as u64;
        self.active_records = 1;
        self.records_since_snapshot = 0;
        self.last_record = Some(snapshot);
        // GC: everything the snapshot covers. A failure mid-loop leaves
        // orphans (the manifest no longer names these files), which the
        // next open deletes — recovery never reads them either way.
        for stale in old.segments {
            self.fs.remove(&segment_file_name(stale))?;
        }
        Ok(())
    }
}

impl RecordLog for SegmentStore {
    fn append_record(&mut self, record: &EpochRecord) -> Result<(), WalError> {
        let active = segment_file_name(self.manifest.active());
        if self.dirty {
            // Same repair discipline as `WalWriter`: a failed append may
            // have left a torn prefix (or a full frame whose sync
            // failed, which the caller was told did not commit) —
            // truncate back to the acknowledged length before retrying.
            self.fs.truncate(&active, self.active_len)?;
            self.dirty = false;
        }
        if self.compaction_due() {
            self.compact()?;
        } else if self.rotation_due() {
            self.rotate()?;
        }
        let active = segment_file_name(self.manifest.active());
        // The writer rule, a function of committed state only. The
        // first record of a segment is always full, so every segment
        // replays on its own; after that, a delta whenever it is the
        // strictly shorter frame.
        let delta = match &self.last_record {
            Some(base) if self.active_records > 0 => {
                record.encode_delta_if_shorter(base, &mut self.changed)
            }
            _ => None,
        };
        let is_delta = delta.is_some();
        let frame = delta.unwrap_or_else(|| record.encode());
        match self.fs.append(&active, &frame) {
            Ok(()) => {
                self.active_len += frame.len() as u64;
                self.active_records += 1;
                if record.kind == RecordKind::Epoch {
                    self.records_since_snapshot += 1;
                } else {
                    self.records_since_snapshot = 0;
                }
                match &mut self.last_record {
                    Some(last) => {
                        last.overwrite_from(record, is_delta.then_some(&self.changed[..]));
                    }
                    None => self.last_record = Some(record.clone()),
                }
                Ok(())
            }
            Err(e) => {
                self.dirty = true;
                Err(e)
            }
        }
    }

    fn sync(&mut self) -> Result<(), WalError> {
        let active = segment_file_name(self.manifest.active());
        self.fs.sync(&active)
    }
}

/// Replay a segmented store directory **strictly read-only**: nothing
/// is created, repaired, truncated or deleted — orphans and torn tails
/// are reported, not fixed. This is what `dptd recover` uses.
///
/// A directory with no manifest but a legacy `segment-000.wal` is read
/// through a synthesized single-segment manifest.
///
/// # Errors
///
/// [`WalError::Io`] when the directory holds no log at all;
/// [`WalError::Corrupt`]/[`WalError::BadMagic`] as
/// [`SegmentStore::open`].
pub fn read_dir(dir: &Path) -> Result<StoreReplay, WalError> {
    let read_file = |name: &str| -> Result<Option<Vec<u8>>, WalError> {
        match std::fs::read(dir.join(name)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(WalError::Io {
                op: "load",
                message: e.to_string(),
            }),
        }
    };
    let (manifest, synthesized) = match read_file(MANIFEST_FILE)? {
        Some(bytes) => (Manifest::decode(&bytes)?, false),
        None => {
            if read_file(&segment_file_name(0))?.is_none() {
                return Err(WalError::Io {
                    op: "load",
                    message: format!(
                        "no write-ahead log in `{}` (neither a MANIFEST nor a segment-000.wal)",
                        dir.display()
                    ),
                });
            }
            (Manifest { segments: vec![0] }, true)
        }
    };
    let (replay, segments) = replay_manifest(&manifest, synthesized, |name| read_file(name))?;
    let mut orphans = Vec::new();
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            // Orphans a writer open would delete: segments the manifest
            // does not name, and `*.tmp` staging files left by a crash
            // inside an atomic rewrite.
            let unnamed_segment =
                parse_segment_name(&name).is_some_and(|id| !manifest.segments.contains(&id));
            if unnamed_segment || name.ends_with(".tmp") {
                let bytes = entry.metadata().map(|m| m.len()).unwrap_or(0);
                orphans.push((name, bytes));
            }
        }
    }
    orphans.sort();
    Ok(StoreReplay {
        replay,
        segments,
        orphans,
        manifest,
    })
}

#[cfg(test)]
mod tests {
    use super::super::fs::MemFs;
    use super::*;
    use crate::recovery::recover_replay;
    use crate::wal::WalPolicy;
    use dptd_truth::Loss;

    const USERS: usize = 3;

    fn policy() -> WalPolicy {
        WalPolicy {
            per_round_epsilon: 0.5,
            per_round_delta: 0.0,
            budget_epsilon: 64.0,
            budget_delta: 0.0,
            stream_tag: 7,
        }
    }

    /// A ledger-consistent record sequence: epoch `e` accepts user
    /// `e % USERS` and snapshots the accumulated state, so
    /// `recover_replay` passes its cross-checks on any suffix seeded
    /// from a snapshot.
    fn records(n: u64) -> Vec<EpochRecord> {
        let mut debits = vec![0u32; USERS];
        let mut losses = vec![0.0f64; USERS];
        (0..n)
            .map(|epoch| {
                let user = (epoch as usize) % USERS;
                debits[user] += 1;
                losses[user] += 0.25 * (epoch + 1) as f64;
                EpochRecord {
                    kind: RecordKind::Epoch,
                    epoch,
                    batches_seen: epoch + 1,
                    loss: Loss::Squared,
                    policy: policy(),
                    accepted_users: vec![user],
                    cumulative_losses: losses.clone(),
                    rounds_debited: debits.clone(),
                }
            })
            .collect()
    }

    fn config(rotate_records: u64, compact_every: u64) -> StoreConfig {
        StoreConfig {
            rotate_bytes: 0,
            rotate_records,
            compact_every,
        }
    }

    fn segment_names(mem: &MemFs) -> Vec<String> {
        mem.snapshot()
            .keys()
            .filter(|k| parse_segment_name(k).is_some())
            .cloned()
            .collect()
    }

    #[test]
    fn rotation_seals_segments_at_the_record_budget() {
        let mem = MemFs::new();
        let (mut store, replay) = SegmentStore::open(Box::new(mem.clone()), config(2, 0)).unwrap();
        assert!(replay.records.is_empty());
        for r in records(5) {
            store.append_record(&r).unwrap();
        }
        // Lazy rotation: segment 0 sealed at 2 records, segment 1 at 2,
        // segment 2 active with the 5th.
        assert_eq!(store.manifest().segments, vec![0, 1, 2]);
        assert_eq!(
            segment_names(&mem),
            vec!["segment-000.wal", "segment-001.wal", "segment-002.wal"]
        );
        drop(store);

        // Reopen: all five records replay across the segments.
        let (store, replay) = SegmentStore::open(Box::new(mem.clone()), config(2, 0)).unwrap();
        assert_eq!(replay.records, records(5));
        assert_eq!(replay.truncated_bytes, 0);
        let recovered = recover_replay(&replay, USERS, Loss::Squared, Some(&policy())).unwrap();
        assert_eq!(recovered.records_applied, 5);
        assert_eq!(recovered.last_epoch, Some(4));
        drop(store);
    }

    #[test]
    fn compaction_snapshots_and_collects_covered_segments() {
        let mem = MemFs::new();
        let (mut store, _) = SegmentStore::open(Box::new(mem.clone()), config(2, 3)).unwrap();
        let all = records(8);
        for r in &all {
            store.append_record(r).unwrap();
        }
        // Compaction fired (lazily) whenever 3 epoch records had
        // accumulated past the newest snapshot: old segments are gone,
        // the manifest names only the post-snapshot tail.
        assert!(
            store.manifest().segments.len() <= 3,
            "manifest kept {} segments",
            store.manifest().segments.len()
        );
        let reference = recover_replay(
            &Replay {
                records: all.clone(),
                ..Replay::default()
            },
            USERS,
            Loss::Squared,
            Some(&policy()),
        )
        .unwrap();
        drop(store);

        let (_, replay) = SegmentStore::open(Box::new(mem.clone()), config(2, 3)).unwrap();
        // The replay is the compacted suffix: a seeding snapshot plus
        // the records after it — strictly fewer than the full history.
        assert!(replay.records.len() < all.len());
        assert_eq!(replay.records[0].kind, RecordKind::Snapshot);
        let recovered = recover_replay(&replay, USERS, Loss::Squared, Some(&policy())).unwrap();
        assert_eq!(recovered.records_applied, 8);
        assert_eq!(recovered.last_epoch, Some(7));
        assert_eq!(recovered.rounds_debited, reference.rounds_debited);
        assert_eq!(recovered.crh.weights(), reference.crh.weights());
        assert!(recovered.snapshot_epoch.is_some());
    }

    #[test]
    fn disk_usage_is_bounded_by_the_compaction_budget() {
        // 60 rounds with compaction every 4: total on-disk bytes must
        // stay under a fixed multiple of one snapshot, independent of
        // the round count.
        let mem = MemFs::new();
        let (mut store, _) = SegmentStore::open(Box::new(mem.clone()), config(0, 4)).unwrap();
        let all = records(60);
        for r in &all {
            store.append_record(r).unwrap();
        }
        let snapshot_bytes = all.last().unwrap().to_snapshot().encode().len() as u64;
        let total: u64 = mem.snapshot().values().map(|v| v.len() as u64).sum();
        // One snapshot + at most compact_every records + manifest/magic
        // slack; 8× one snapshot is comfortably above that and
        // comfortably below the 60-record uncompacted log.
        assert!(
            total < 8 * snapshot_bytes,
            "{total} bytes on disk vs snapshot {snapshot_bytes}"
        );
        let uncompacted: u64 = all.iter().map(|r| r.encode().len() as u64).sum();
        assert!(total < uncompacted / 2);
    }

    #[test]
    fn the_first_record_of_a_segment_is_full_and_shorter_deltas_follow() {
        let mem = MemFs::new();
        let (mut store, _) = SegmentStore::open(Box::new(mem.clone()), config(3, 0)).unwrap();
        let all = records(7);
        for r in &all {
            store.append_record(r).unwrap();
        }
        drop(store);
        // One user moves per round, so after each segment's leading
        // full frame the 16-byte-per-change delta wins: [F D D][F D D][F].
        let files = mem.snapshot();
        let mut at = 0;
        for (name, deltas) in [
            ("segment-000.wal", 2),
            ("segment-001.wal", 2),
            ("segment-002.wal", 0),
        ] {
            // Each segment replays on its own, whatever came before it.
            let replayed = wal::replay(&files[name]).unwrap();
            let n = replayed.records.len();
            assert_eq!(replayed.records, all[at..at + n], "{name}");
            assert_eq!(replayed.delta_records, deltas, "{name}");
            let first = &all[at];
            assert_eq!(
                files[name].len(),
                WAL_MAGIC.len()
                    + first.encoded_len()
                    + deltas as usize * first.delta_encoded_len(1),
                "{name}"
            );
            assert!(first.delta_encoded_len(1) < first.encoded_len());
            at += n;
        }
        assert_eq!(at, all.len());

        // A reopened store keeps the rule: its base is the replayed
        // record, and the directory is the one an uninterrupted writer
        // leaves.
        let resumed = MemFs::new();
        let (mut store, _) = SegmentStore::open(Box::new(resumed.clone()), config(3, 0)).unwrap();
        for r in &all[..5] {
            store.append_record(r).unwrap();
        }
        drop(store);
        let (mut store, _) = SegmentStore::open(Box::new(resumed.clone()), config(3, 0)).unwrap();
        for r in &all[5..] {
            store.append_record(r).unwrap();
        }
        assert_eq!(resumed.snapshot(), files);
    }

    #[test]
    fn a_delta_that_is_not_strictly_shorter_is_written_in_full() {
        // Two of three users move every round: 8 + 2·16 ≥ 3·12, so the
        // delta loses the size comparison and the log is byte for byte
        // the full-frame log.
        let mut all = records(4);
        for (i, r) in all.iter_mut().enumerate() {
            r.cumulative_losses[(i + 1) % USERS] += 1.0 + i as f64;
        }
        let mem = MemFs::new();
        let (mut store, _) = SegmentStore::open(Box::new(mem.clone()), config(0, 0)).unwrap();
        let mut expected = WAL_MAGIC.to_vec();
        for r in &all {
            store.append_record(r).unwrap();
            expected.extend_from_slice(&r.encode());
        }
        assert_eq!(mem.snapshot()["segment-000.wal"], expected);
    }

    #[test]
    fn legacy_single_segment_directories_are_adopted() {
        // A PR-3-era FileWal directory: segment-000.wal, no manifest.
        let mem = MemFs::new();
        let mut legacy = WAL_MAGIC.to_vec();
        for r in records(3) {
            legacy.extend_from_slice(&r.encode());
        }
        {
            let mut fs: Box<dyn StoreFs> = Box::new(mem.clone());
            fs.append("segment-000.wal", &legacy).unwrap();
        }
        let (mut store, replay) = SegmentStore::open(Box::new(mem.clone()), config(0, 0)).unwrap();
        assert_eq!(replay.records, records(3));
        assert_eq!(store.manifest().segments, vec![0]);
        // Adoption persisted the manifest.
        assert!(mem.snapshot().contains_key(MANIFEST_FILE));

        // A log of full frames only — what every release before the v3
        // delta frame wrote — resumes: the old bytes stay as they are
        // and the next records follow them, as deltas where shorter.
        for r in &records(5)[3..] {
            store.append_record(r).unwrap();
        }
        drop(store);
        assert_eq!(mem.snapshot()["segment-000.wal"][..legacy.len()], legacy);
        let (_, replay) = SegmentStore::open(Box::new(mem.clone()), config(0, 0)).unwrap();
        assert_eq!(replay.records, records(5));
        assert_eq!(replay.delta_records, 2);
    }

    #[test]
    fn orphans_and_stale_tmp_files_are_repaired_at_open() {
        let mem = MemFs::new();
        let (mut store, _) = SegmentStore::open(Box::new(mem.clone()), config(2, 0)).unwrap();
        for r in records(3) {
            store.append_record(&r).unwrap();
        }
        drop(store);
        // Simulate a killed rotation/compaction: a staged segment the
        // manifest never committed, plus torn atomic rewrites (both the
        // manifest's and a staged segment's temp file).
        {
            let mut fs: Box<dyn StoreFs> = Box::new(mem.clone());
            fs.append("segment-099.wal", b"staged-but-never-committed")
                .unwrap();
            fs.append("MANIFEST.tmp", b"torn atomic rewrite").unwrap();
            fs.append("segment-042.wal.tmp", b"torn segment staging")
                .unwrap();
        }
        let (_, replay) = SegmentStore::open(Box::new(mem.clone()), config(2, 0)).unwrap();
        assert_eq!(replay.records, records(3), "repair must not lose records");
        let files = mem.snapshot();
        assert!(!files.contains_key("segment-099.wal"), "orphan kept");
        assert!(!files.contains_key("MANIFEST.tmp"), "stale tmp kept");
        assert!(
            !files.contains_key("segment-042.wal.tmp"),
            "stale segment tmp kept"
        );
    }

    #[test]
    fn a_committed_manifest_with_a_missing_active_segment_is_refused() {
        let mem = MemFs::new();
        let (mut store, _) = SegmentStore::open(Box::new(mem.clone()), config(0, 0)).unwrap();
        for r in records(2) {
            store.append_record(&r).unwrap();
        }
        let active = segment_file_name(store.manifest().active());
        drop(store);
        // The manifest is on disk and names the active segment, so its
        // disappearance can only be external data loss: replaying the
        // log as empty would regress the privacy-budget ledger.
        {
            let mut fs: Box<dyn StoreFs> = Box::new(mem.clone());
            fs.remove(&active).unwrap();
        }
        let err = SegmentStore::open(Box::new(mem.clone()), config(0, 0)).unwrap_err();
        assert!(matches!(err, WalError::Corrupt { .. }), "{err:?}");
        // Read-only inspection refuses identically... via a real dir.
        let dir = std::env::temp_dir().join(format!(
            "dptd-store-missing-active-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let (mut store, _) = SegmentStore::open_dir(&dir, config(0, 0)).unwrap();
        for r in records(2) {
            store.append_record(&r).unwrap();
        }
        let active = segment_file_name(store.manifest().active());
        drop(store);
        std::fs::remove_file(dir.join(active)).unwrap();
        assert!(matches!(read_dir(&dir), Err(WalError::Corrupt { .. })));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn interrupted_gc_repairs_and_missing_sealed_segments_refuse() {
        // Build a compacted store, then re-create one of the collected
        // segments as an orphan (= a GC killed between deletes).
        let mem = MemFs::new();
        let (mut store, _) = SegmentStore::open(Box::new(mem.clone()), config(2, 3)).unwrap();
        for r in records(7) {
            store.append_record(&r).unwrap();
        }
        let manifest = store.manifest().clone();
        drop(store);
        {
            let mut fs: Box<dyn StoreFs> = Box::new(mem.clone());
            let mut stale = WAL_MAGIC.to_vec();
            stale.extend_from_slice(&records(1)[0].encode());
            fs.append("segment-000.wal", &stale).unwrap();
        }
        assert!(!manifest.segments.contains(&0), "0 was collected");
        // Read-only replay reports the orphan; the writer deletes it and
        // recovers the exact same records either way.
        let (_, replay) = SegmentStore::open(Box::new(mem.clone()), config(2, 3)).unwrap();
        let r1 = recover_replay(&replay, USERS, Loss::Squared, Some(&policy())).unwrap();
        assert_eq!(r1.last_epoch, Some(6));
        assert!(!mem.snapshot().contains_key("segment-000.wal"));

        // A manifest-named sealed segment that vanished is refused, not
        // silently skipped: committed records are gone.
        let (mut store, _) = SegmentStore::open(Box::new(mem.clone()), config(1, 0)).unwrap();
        for r in records(9).into_iter().skip(7) {
            store.append_record(&r).unwrap();
        }
        assert!(store.manifest().segments.len() > 1);
        let sealed = segment_file_name(store.manifest().segments[0]);
        drop(store);
        {
            let mut fs: Box<dyn StoreFs> = Box::new(mem.clone());
            fs.remove(&sealed).unwrap();
        }
        let err = SegmentStore::open(Box::new(mem.clone()), config(1, 0)).unwrap_err();
        assert!(matches!(err, WalError::Corrupt { .. }), "{err:?}");
    }

    #[test]
    fn torn_active_tail_is_truncated_only_for_writers() {
        let dir = std::env::temp_dir().join(format!(
            "dptd-store-torn-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let (mut store, _) = SegmentStore::open_dir(&dir, config(2, 0)).unwrap();
        for r in records(3) {
            store.append_record(&r).unwrap();
        }
        drop(store);
        let active = {
            let replayed = read_dir(&dir).unwrap();
            segment_file_name(replayed.manifest.active())
        };
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(dir.join(&active))
                .unwrap();
            f.write_all(&[0xba, 0xad]).unwrap();
        }
        // Reader: reports the tear, leaves the bytes alone.
        let replayed = read_dir(&dir).unwrap();
        assert_eq!(replayed.replay.truncated_bytes, 2);
        assert_eq!(replayed.replay.records, records(3));
        assert_eq!(replayed.segments.last().unwrap().torn_bytes, 2);
        let before = std::fs::read(dir.join(&active)).unwrap();
        assert_eq!(read_dir(&dir).unwrap().replay.records.len(), 3);
        assert_eq!(std::fs::read(dir.join(&active)).unwrap(), before);
        // Writer: truncates the tear away.
        let (_, replay) = SegmentStore::open_dir(&dir, config(2, 0)).unwrap();
        assert_eq!(replay.truncated_bytes, 2);
        assert_eq!(
            std::fs::read(dir.join(&active)).unwrap().len(),
            before.len() - 2
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_replay_reports_stats() {
        let mem = MemFs::new();
        let dir = std::env::temp_dir().join(format!(
            "dptd-store-stats-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let (mut store, _) = SegmentStore::open_dir(&dir, config(2, 3)).unwrap();
        for r in records(8) {
            store.append_record(&r).unwrap();
        }
        drop(store);
        let replayed = read_dir(&dir).unwrap();
        assert!(replayed.newest_snapshot_epoch().is_some());
        assert!(replayed.total_bytes() > 0);
        assert!(replayed.reclaimable_bytes() < replayed.total_bytes());
        assert!(replayed.orphans.is_empty());
        // Mixed frame sizes are accounted per segment: the first record
        // of each is full, and full + delta bytes add up to the file.
        let last = replayed.replay.records.last().unwrap();
        let (full, delta) = (last.encoded_len() as u64, last.delta_encoded_len(1) as u64);
        for info in &replayed.segments {
            assert!(info.delta_records < info.records, "{info:?}");
            assert_eq!(info.delta_bytes, info.delta_records * delta, "{info:?}");
            let snapshots = info.snapshot_epochs.len() as u64;
            let epochs = info.records - info.delta_records - snapshots;
            // A snapshot frame is an epoch frame minus its one accepted user.
            assert_eq!(info.full_records(), epochs + snapshots);
            assert_eq!(
                info.full_bytes(),
                epochs * full + snapshots * (full - 8),
                "{info:?}"
            );
            assert_eq!(
                info.bytes,
                WAL_MAGIC.len() as u64 + info.full_bytes() + info.delta_bytes
            );
        }
        assert!(replayed.replay.delta_records > 0);
        assert_eq!(
            replayed.replay.delta_records,
            replayed
                .segments
                .iter()
                .map(|s| s.delta_records)
                .sum::<u64>()
        );
        assert_eq!(
            replayed.reclaimable_bytes(),
            replayed.total_bytes() - (WAL_MAGIC.len() as u64 + full - 8)
        );
        drop(mem);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
