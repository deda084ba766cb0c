//! Segmented snapshot store: WAL compaction, segment rotation, and
//! bounded-time recovery.
//!
//! The single-segment [`FileWal`](crate::wal::FileWal) layout appends
//! one full-state [`EpochRecord`](crate::wal::EpochRecord) per round to
//! one file forever, so a long-running campaign's disk usage — and its
//! crash-recovery replay time — grow as `O(rounds × num_users)`. This
//! module replaces that placeholder with a **log-structured store**:
//!
//! * [`Manifest`] (`MANIFEST`): a checksummed binary file naming the
//!   ordered segment files that constitute the log, replaced only via
//!   atomic rename (temp file + fsync + rename + directory fsync). The
//!   manifest rename is the commit point of every multi-file
//!   operation.
//! * **Segments** (`segment-NNN.wal`): each a self-contained WAL
//!   file. Appends go to the last (*active*) segment; earlier ones are
//!   sealed at record boundaries. Rotation seals the active segment
//!   once it exceeds a byte/record budget ([`StoreConfig`]).
//! * **Delta frames**: a full record costs `89 + 8·accepted + 12·users`
//!   bytes whoever reported, yet a round only moves the entries of the
//!   users it heard from. So [`SegmentStore`] commits an epoch record
//!   as a v3 delta frame (layout in [`crate::wal`]:
//!   `97 + 8·accepted + 16·changed` bytes) **iff** (a) the active
//!   segment already holds a committed record, (b) that record — the
//!   store's `last_record` — snapshots the same population, one whose
//!   ids fit `u32`, and (c) the delta frame is strictly shorter than
//!   the full one, which is to say fewer than ¾ of the users changed.
//!   All three are functions of committed state and the record itself,
//!   so an interrupted run and its resume choose alike. The changed
//!   set is found one of two ways, and both write the same bytes.
//!   Given by the caller: the campaign backend appends each round
//!   borrowed ([`RecordLog::append_round`](crate::wal::RecordLog)),
//!   and a round's accepted users are exactly the users it changed —
//!   each was debited, and nobody else's loss moved — so the frame and
//!   the `last_record` update cost `O(accepted)`, not `O(users)`.
//!   Diffed: an owned record
//!   ([`RecordLog::append_record`](crate::wal::RecordLog), what a
//!   cluster node appends) is compared with `last_record` (losses by
//!   bit pattern), and its accepted-user list is not trusted to
//!   predict the set.
//!   Because of (a) the **first record of every segment is full**:
//!   each segment replays on its own, a sealed segment never depends
//!   on one that garbage collection may already have deleted, and
//!   rotation, compaction and GC work exactly as they did on full
//!   frames. [`wal::replay`](crate::wal::replay) rebuilds the full
//!   record, so nothing above this module — recovery's cross-checks,
//!   the registry, cluster nodes, byte-level replication — can tell.
//! * **The compactor**: once enough epoch records accumulate past the
//!   newest snapshot, the store writes a v2
//!   [`RecordKind::Snapshot`](crate::wal::RecordKind) record — the
//!   same payload layout as every epoch record (which already carries
//!   the full carried-weights + cumulative-ledger state), with an
//!   empty accepted-user set so replay never re-debits — into a fresh
//!   segment, commits that segment as the entire manifest, and
//!   garbage-collects everything the snapshot covers. Disk usage and
//!   recovery time become `O(num_users + rounds_since_last_snapshot)`
//!   instead of `O(campaign lifetime)`; with delta frames a directory
//!   holds roughly `12·users·(1 + segments_since_snapshot) +
//!   24·reports_since_snapshot` bytes.
//! * **Recovery** ([`SegmentStore::open`] for writers, [`read_dir`]
//!   for read-only inspection): replays the manifest's segments in
//!   order; [`recover_replay`](crate::recovery::recover_replay) seeks
//!   to the newest valid snapshot, seeds the estimator and the
//!   privacy-budget ledger from it, and replays only the suffix.
//!   Every crash window — torn record tail, torn manifest rewrite,
//!   staged-but-uncommitted rotation or compaction, interrupted
//!   garbage collection — repairs deterministically (orphan deletion +
//!   tail truncation), so a killed-and-resumed campaign ends
//!   bit-identical to an uninterrupted one, directory bytes included.
//!
//! Crash injection for all of the above runs through [`FailingFs`],
//! the segmented analogue of [`FailingWal`](crate::wal::FailingWal):
//! `crates/engine/tests/store_faults.rs` kills the store at every byte
//! of every append and at every boundary inside rotation, compaction
//! and GC, on a dense campaign (full frames) and a sparse one (delta
//! frames).

mod fs;
mod manifest;
mod observer;
#[allow(clippy::module_inception)]
mod store;

pub use fs::{DirFs, FailingFs, MemFs, StoreFs};
pub use manifest::{
    parse_segment_name, segment_file_name, Manifest, MANIFEST_FILE, MANIFEST_MAGIC,
};
pub use observer::{ObservedFs, StoreObserver};
pub use store::{read_dir, SegmentInfo, SegmentStore, StoreConfig, StoreReplay};
