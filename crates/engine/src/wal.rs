//! Epoch write-ahead log: durable, checksummed records of merged epochs.
//!
//! The engine and campaign driver keep all merged-epoch state (the
//! carried [`StreamingCrh`](dptd_truth::streaming::StreamingCrh) weights)
//! and the per-user privacy-budget ledger in memory; a crash mid-campaign
//! would lose both — and budget spend is the one thing a DP system must
//! never forget. This module persists, after each epoch's canonical
//! merge, one self-contained [`EpochRecord`]: the epoch id, the users
//! whose reports were aggregated (the round's budget debits), the
//! privacy policy the debits were accounted under ([`WalPolicy`] — so a
//! resume can never silently reinterpret the ledger under different
//! `(ε, δ)` parameters), and a full snapshot of the estimator's
//! cumulative losses plus the debit ledger. Recovery
//! ([`crate::recovery`]) replays the records to rebuild everything.
//!
//! # On-disk layout (version 1, pinned by a golden test)
//!
//! ```text
//! file   := magic record*
//! magic  := "DPTDWAL" 0x01                      (8 bytes)
//! record := payload_len:u32 len_check:u32 checksum:u64 payload
//! payload:= epoch:u64 batches_seen:u64 loss:u8
//!           per_round_eps:f64 per_round_delta:f64
//!           budget_eps:f64 budget_delta:f64 stream_tag:u64
//!           num_users:u64 accepted_len:u64 accepted_user:u64*
//!           cumulative_loss_bits:u64* debits:u32*    (all little-endian)
//! ```
//!
//! `checksum` is FNV-1a over the payload bytes ([`dptd_stats::digest`]),
//! the fold the workspace's reproducibility digests use (the wire frames
//! its bodies with its own check); `len_check` is `payload_len ^ "WAL1"`, a
//! self-check that distinguishes a *corrupted* length prefix (rejected as
//! [`WalError::Corrupt`] — it would otherwise masquerade as a torn tail
//! and truncate committed records) from a genuinely torn frame. The mask
//! that passes doubles as the frame's kind: `"WAL1"` frames a v1
//! [`RecordKind::Epoch`] record, `"WAL2"` frames a v2
//! [`RecordKind::Snapshot`] record (same payload layout, written by the
//! segmented store's compactor — see [`crate::store`]), `"WAL3"` frames
//! a v3 *delta* (below). A record
//! is **committed** iff its frame is complete and both checks pass.
//! Replay truncates a *torn tail* (a partial frame, or a checksum-bad
//! final frame — what a crash mid-write leaves behind) and rejects
//! corruption anywhere earlier as [`WalError::Corrupt`].
//!
//! The payloads are declared with [`crate::codec`]'s field kinds, so a
//! frame's length and its bytes come from one `put`, and its decoder
//! bounds every count by the bytes present. The accepted users, like a
//! delta's changed users, must be strictly ascending. The frame layer —
//! header, masks, checksum, torn-tail rules — is this module's own.
//!
//! # Delta frames (version 3, pinned by a golden test)
//!
//! A full record costs 12 bytes per population member whoever reported,
//! but a round only moves the cumulative loss of users with claims in it
//! and only debits accepted users. A v3 frame therefore carries an epoch
//! record as *what changed* against the committed record right before
//! it:
//!
//! ```text
//! payload:= epoch … accepted_user:u64*          (the v1 fields, unchanged)
//!           changed_len:u64
//!           (user:u32 cumulative_loss_bits:u64 debits:u32)*
//! ```
//!
//! with `user` strictly ascending — 97 bytes of frame header and fixed
//! fields + 8 per accepted user + 16 per changed user, against 89 + 8
//! per accepted user + 12 per population member for a full frame.
//! [`replay`], the only reader, rebuilds the full [`EpochRecord`]
//! (kind [`RecordKind::Epoch`], bit-for-bit the record the writer was
//! handed) from the **immediately preceding committed record of the
//! same log image**, which must snapshot the same population; a delta
//! with no such base, with users out of order or range, or whose
//! `changed_len` disagrees with the bytes present is
//! [`WalError::Corrupt`]. Nothing above this module ever sees a delta.
//! Only the segmented store writes them
//! ([`EpochRecord::encode_delta`], or from a borrowed [`RoundRecord`]
//! whose accepted users are its changed ones; the rule for *when* is
//! in [`crate::store`]); [`WalWriter`] always writes full frames. A
//! reader that knows only `"WAL1"`/`"WAL2"` fails the length
//! self-check on a v3 frame and refuses the log as corrupt instead of
//! misreading it.
//!
//! [`WalWriter`] keeps its one segment, [`SEGMENT_FILE`], in a
//! [`StoreFs`] — the filesystem seam the segmented store writes
//! through too: [`DirFs`] on disk (fsynced per record), [`MemFs`] in
//! tests, and [`FailingFs`](crate::store::FailingFs), which tears a
//! write after a byte budget, for the fault-injection harnesses in
//! `tests/wal_recovery.rs` and `crates/engine/tests/wal_proptests.rs`.
//!
//! **Single-writer contract**: a log directory belongs to one campaign
//! process at a time. [`WalLock`] enforces it advisorily with an OS
//! file lock (flock-style, PID-stamped `LOCK` file for diagnostics), so
//! a second live writer is refused **at open** ([`WalError::Locked`])
//! instead of only detected at recovery — while a lock whose holder
//! died releases with the process, so a crash never blocks the very
//! recovery this module exists for. The filesystem itself stays
//! lock-free so read-only inspection (`dptd recover`) never contends;
//! writers — the campaign CLI and the network server's per-campaign
//! WAL dirs — acquire the lock around it. Recovery additionally still *detects*
//! interleaved writers after the fact (a non-increasing epoch whose
//! record differs from the one already applied refuses as
//! [`WalError::Inconsistent`]).

use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use dptd_stats::digest::Fnv1a;
use dptd_truth::Loss;

use crate::codec::{Ascending, Counter, Field, Malformed, Reader, Sink};
use crate::store::{DirFs, MemFs, StoreFs};

/// The 8-byte file header: 7 ASCII magic bytes plus the format version.
pub const WAL_MAGIC: [u8; 8] = *b"DPTDWAL\x01";

/// Name of the segment file [`WalWriter`] keeps inside a WAL directory.
pub const SEGMENT_FILE: &str = "segment-000.wal";

/// Name of the advisory single-writer lock file inside a WAL directory.
pub const LOCK_FILE: &str = "LOCK";

/// Bytes of frame overhead before each record payload (length prefix,
/// length self-check, checksum).
pub const FRAME_HEADER_LEN: usize = 4 + 4 + 8;

/// XOR mask for the frame header's length self-check — also the record
/// *kind* tag: `"WAL1"` marks a v1 [`RecordKind::Epoch`] record.
const LEN_XOR: u32 = u32::from_le_bytes(*b"WAL1");

/// Length self-check mask for a v2 [`RecordKind::Snapshot`] record. The
/// payload layout is byte-for-byte the v1 [`EpochRecord`] layout; only
/// the mask differs, so a v1-only reader refuses a snapshot-bearing log
/// as [`WalError::Corrupt`] instead of silently misreading it.
const SNAP_XOR: u32 = u32::from_le_bytes(*b"WAL2");

/// Length self-check mask for a v3 delta frame: an epoch record stored
/// as its differences from the committed record before it.
const DELTA_XOR: u32 = u32::from_le_bytes(*b"WAL3");

/// One changed user's entry in a delta frame: the user, then its
/// cumulative loss and debits.
type Change = (u32, (f64, u32));

/// What a committed record *means* to replay.
///
/// An `Epoch` record appends one merged epoch (its accepted users are
/// that round's budget debits). A `Snapshot` record — written by the
/// segmented store's compactor — carries the same full-state payload but
/// asserts that it **covers** every record before it: recovery may seed
/// from it directly and earlier segments may be garbage-collected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// One merged epoch (v1 framing, `"WAL1"` mask).
    Epoch,
    /// A compaction snapshot (v2 framing, `"WAL2"` mask): full state as
    /// of its epoch, `accepted_users` empty so replay debits nothing.
    Snapshot,
}

/// How a frame lays its record out, as tagged by the length self-check
/// mask: in full (v1/v2, the mask also names the [`RecordKind`]) or as a
/// v3 delta against the record before it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FrameKind {
    Full(RecordKind),
    Delta,
}

impl FrameKind {
    const ALL: [FrameKind; 3] = [
        FrameKind::Full(RecordKind::Epoch),
        FrameKind::Full(RecordKind::Snapshot),
        FrameKind::Delta,
    ];

    fn mask(self) -> u32 {
        match self {
            FrameKind::Full(RecordKind::Epoch) => LEN_XOR,
            FrameKind::Full(RecordKind::Snapshot) => SNAP_XOR,
            FrameKind::Delta => DELTA_XOR,
        }
    }

    /// What the decoded record means to replay (a delta is an epoch).
    fn record_kind(self) -> RecordKind {
        match self {
            FrameKind::Full(kind) => kind,
            FrameKind::Delta => RecordKind::Epoch,
        }
    }

    /// Write `round`'s payload in this layout: the fields every layout
    /// shares, through the accepted users, then every user's entry (v1/v2)
    /// or the `changed` users' entries, ascending (v3).
    fn put<S: Sink>(self, round: &RoundRecord<'_>, changed: &[usize], w: &mut S) {
        w.put(&round.epoch);
        w.put(&round.batches_seen);
        w.put(&round.loss);
        w.put(&round.policy);
        w.put(&round.num_users());
        // The `Ascending` lists, written from borrowed slices.
        debug_assert!(
            round.accepted_users.is_sorted_by(|a, b| a < b),
            "replay refuses accepted users that are not strictly ascending"
        );
        w.put(&(round.accepted_users.len() as u64));
        w.column(round.accepted_users);
        match self {
            FrameKind::Full(_) => {
                debug_assert_eq!(
                    round.cumulative_losses.len(),
                    round.rounds_debited.len(),
                    "snapshot vectors must cover the same population"
                );
                w.column(round.cumulative_losses);
                w.column(round.rounds_debited);
            }
            FrameKind::Delta => {
                w.put(&(changed.len() as u64));
                for &user in changed {
                    let entry = (round.cumulative_losses[user], round.rounds_debited[user]);
                    w.put::<Change>(&(user as u32, entry));
                }
            }
        }
    }

    /// Read back one checksum-verified payload of this layout, whole.
    /// `base` is the record committed immediately before it in the same
    /// log image — what a delta's entries are applied to.
    fn get(self, payload: &[u8], base: Option<&EpochRecord>) -> Result<EpochRecord, Malformed> {
        let r = &mut Reader { buf: payload };
        let (epoch, batches_seen, loss, policy) = (r.get()?, r.get()?, r.get()?, r.get()?);
        let users: usize = r.get()?;
        let accepted_users: Vec<usize> = Ascending::<usize>::get(r)?;
        if accepted_users.last().is_some_and(|&user| user >= users) {
            return Err(Malformed("accepted user outside the population"));
        }
        let kind = self.record_kind();
        if kind == RecordKind::Snapshot && !accepted_users.is_empty() {
            // A snapshot's debits live in its ledger; a non-empty
            // accepted set would double-charge them on replay.
            return Err(Malformed("snapshot record with a non-empty accepted set"));
        }
        let (cumulative_losses, rounds_debited) = match self {
            FrameKind::Full(_) => (r.column::<_, f64>(users)?, r.column::<_, u32>(users)?),
            FrameKind::Delta => {
                let base = base.ok_or(Malformed("delta with no record before it"))?;
                if base.num_users() != users {
                    return Err(Malformed("delta against another population"));
                }
                // The entries fill the rest of the payload exactly:
                // checked before the base is copied.
                let stated = Reader { buf: r.buf }.get::<u64>()?;
                if stated.checked_mul(Change::MIN_LEN as u64) != Some(r.buf.len() as u64 - 8) {
                    return Err(Malformed(
                        "delta's changed count disagrees with its payload",
                    ));
                }
                let mut losses = base.cumulative_losses.clone();
                let mut debits = base.rounds_debited.clone();
                Ascending::<Change>::each(r, |(user, entry)| {
                    let user = user as usize;
                    if user >= users {
                        return Err(Malformed("changed user outside the population"));
                    }
                    (losses[user], debits[user]) = entry;
                    Ok(())
                })?;
                (losses, debits)
            }
        };
        if !r.buf.is_empty() {
            return Err(Malformed("trailing bytes inside a record payload"));
        }
        Ok(EpochRecord {
            kind,
            epoch,
            batches_seen,
            loss,
            policy,
            accepted_users,
            cumulative_losses,
            rounds_debited,
        })
    }

    /// Byte length of `round`'s frame in this layout, counted by the
    /// same `put` that writes it.
    fn frame_len(self, round: &RoundRecord<'_>, changed: &[usize]) -> usize {
        let mut n = Counter(FRAME_HEADER_LEN);
        self.put(round, changed, &mut n);
        n.0
    }

    /// Append `round`'s frame in this layout to `out` (which may already
    /// hold a segment's magic).
    fn frame_into(self, round: &RoundRecord<'_>, changed: &[usize], out: &mut Vec<u8>) {
        let payload_len = self.frame_len(round, changed) - FRAME_HEADER_LEN;
        put_frame(out, self.mask(), payload_len, |w| {
            self.put(round, changed, w)
        });
    }

    /// `round`'s frame in this layout, in a buffer of its own.
    fn frame(self, round: &RoundRecord<'_>, changed: &[usize]) -> Vec<u8> {
        let mut out = Vec::new();
        self.frame_into(round, changed, &mut out);
        out
    }
}

/// Append to `out` one frame under the self-check `mask`: the header,
/// then the `payload_len`-byte payload `put` writes, `out` grown once and
/// the checksum patched in behind. The manifest is framed with it too.
pub(crate) fn put_frame(
    out: &mut Vec<u8>,
    mask: u32,
    payload_len: usize,
    put: impl FnOnce(&mut Vec<u8>),
) {
    out.reserve(FRAME_HEADER_LEN + payload_len);
    out.extend_from_slice(&(payload_len as u32).to_le_bytes());
    out.extend_from_slice(&(payload_len as u32 ^ mask).to_le_bytes());
    out.extend_from_slice(&[0; 8]);
    let start = out.len();
    put(out);
    debug_assert_eq!(out.len() - start, payload_len);
    let sum = checksum(&out[start..]);
    out[start - 8..start].copy_from_slice(&sum.to_le_bytes());
}

/// A frame header's three words: the payload length, the mask its
/// self-check passes under (`payload_len ^ len_check`) and the payload's
/// checksum. `None` when `bytes` holds less than a header.
pub(crate) fn read_header(bytes: &[u8]) -> Option<(usize, u32, u64)> {
    let [l0, l1, l2, l3, c0, c1, c2, c3, sum @ ..] = *bytes.first_chunk::<FRAME_HEADER_LEN>()?;
    let payload_len = u32::from_le_bytes([l0, l1, l2, l3]);
    let mask = payload_len ^ u32::from_le_bytes([c0, c1, c2, c3]);
    Some((payload_len as usize, mask, u64::from_le_bytes(sum)))
}

/// Errors from the write-ahead log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalError {
    /// An I/O operation on the backing filesystem failed (or a
    /// [`FailingFs`](crate::store::FailingFs)-injected crash fired).
    Io {
        /// Which filesystem operation failed (`"read"`, `"append"`, …).
        op: &'static str,
        /// The underlying error rendered as text.
        message: String,
    },
    /// The file does not start with [`WAL_MAGIC`] — not a WAL, or a
    /// future format version.
    BadMagic,
    /// A committed (non-tail) record failed validation. The log is
    /// damaged and must not be silently repaired.
    Corrupt {
        /// Byte offset of the offending frame.
        offset: u64,
        /// What failed.
        reason: &'static str,
    },
    /// Replayed records contradict each other (e.g. the debit ledger
    /// snapshot disagrees with the per-epoch accepted-user history).
    Inconsistent {
        /// What disagreed.
        reason: &'static str,
    },
    /// Another live writer holds the directory's advisory [`WalLock`].
    Locked {
        /// PID recorded in the lock file (0 if unreadable).
        pid: u32,
        /// The lock file's path, for the operator.
        path: String,
    },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io { op, message } => write!(f, "wal {op} failed: {message}"),
            WalError::BadMagic => write!(f, "not a dptd write-ahead log (bad magic/version)"),
            WalError::Corrupt { offset, reason } => {
                write!(f, "wal corrupt at byte {offset}: {reason}")
            }
            WalError::Inconsistent { reason } => write!(f, "wal records inconsistent: {reason}"),
            WalError::Locked { pid, path } => write!(
                f,
                "wal directory locked by live writer pid {pid} (OS lock on `{path}`; \
                 it releases when that process exits)"
            ),
        }
    }
}

impl std::error::Error for WalError {}

pub(crate) fn io_err(op: &'static str, e: std::io::Error) -> WalError {
    WalError::Io {
        op,
        message: e.to_string(),
    }
}

/// Advisory single-writer lock on a WAL directory.
///
/// The authoritative exclusion is an **OS file lock**
/// ([`std::fs::File::try_lock`], flock-style) on `dir/LOCK`, so it dies
/// with the holding process: a crashed campaign can never block its own
/// recovery, and there is no stale-lock reclaim (and therefore no
/// reclaim race) to get wrong. The file's content is the holder's PID,
/// written purely as a diagnostic for the refusal message; the file
/// itself is left in place on drop — its *presence* means nothing, only
/// the live OS lock does.
///
/// Two live writers on one directory are refused at open
/// ([`WalError::Locked`]) rather than only detected at recovery. This
/// also holds within a single process: each acquisition opens its own
/// file description, and the OS denies a second lock through a second
/// descriptor.
///
/// The lock is advisory: read-only inspection (`dptd recover`)
/// deliberately ignores it.
#[derive(Debug)]
pub struct WalLock {
    /// Holding this open descriptor IS the lock; closing it (drop)
    /// releases.
    file: fs::File,
    path: PathBuf,
}

impl WalLock {
    /// Acquire the single-writer lock on `dir`, creating the directory if
    /// needed.
    ///
    /// # Errors
    ///
    /// [`WalError::Locked`] when another live writer (any process,
    /// including this one through another handle) holds the lock;
    /// [`WalError::Io`] for filesystem failures.
    pub fn acquire(dir: &Path) -> Result<Self, WalError> {
        fs::create_dir_all(dir).map_err(|e| io_err("create dir", e))?;
        let path = dir.join(LOCK_FILE);
        let mut file = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| io_err("open lock", e))?;
        match file.try_lock() {
            Ok(()) => {}
            Err(std::fs::TryLockError::WouldBlock) => {
                // Read the holder's PID (best effort, diagnostics only).
                let pid = fs::read_to_string(&path)
                    .ok()
                    .and_then(|s| s.trim().parse::<u32>().ok())
                    .unwrap_or(0);
                return Err(WalError::Locked {
                    pid,
                    path: path.display().to_string(),
                });
            }
            Err(std::fs::TryLockError::Error(e)) => return Err(io_err("lock", e)),
        }
        // Locked: stamp our PID over whatever a previous holder left.
        file.set_len(0).map_err(|e| io_err("write lock", e))?;
        file.write_all(std::process::id().to_string().as_bytes())
            .map_err(|e| io_err("write lock", e))?;
        file.sync_all().map_err(|e| io_err("write lock", e))?;
        Ok(Self { file, path })
    }

    /// The lock file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for WalLock {
    fn drop(&mut self) {
        // Explicit for clarity; closing the descriptor would release the
        // OS lock anyway. The file stays behind — presence is not the
        // signal, the lock is.
        let _ = self.file.unlock();
    }
}

/// The privacy policy a log's debits were accounted under: the
/// per-round `(ε, δ)` each debit cost and the campaign-wide budget.
///
/// Persisted in **every** record so a resumed campaign can never
/// silently reinterpret the debit ledger — a debit count only means
/// something together with the per-round loss it was charged at, and
/// replaying `k` debits under a smaller `ε` would let users exceed the
/// budget the log exists to protect. Comparison is by IEEE-754 bits
/// ([`WalPolicy::matches`]), like every other bit-exactness check in the
/// workspace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WalPolicy {
    /// ε one aggregated report costs its user.
    pub per_round_epsilon: f64,
    /// δ one aggregated report costs its user.
    pub per_round_delta: f64,
    /// The campaign-wide ε ceiling per user.
    pub budget_epsilon: f64,
    /// The campaign-wide δ ceiling per user.
    pub budget_delta: f64,
    /// Opaque caller-supplied fingerprint of the input stream / campaign
    /// configuration (`0` when unused). The `dptd campaign` CLI hashes
    /// its load-generator parameters into this, so a resume with a
    /// different `--seed`/`--churn`/… is refused instead of silently
    /// producing a digest no uninterrupted run would print. Validated
    /// bit-exactly like the `(ε, δ)` coordinates.
    pub stream_tag: u64,
}

impl WalPolicy {
    /// The policy a campaign accounts under: the driver's per-round loss
    /// and budget, with no stream fingerprint (add one with
    /// [`WalPolicy::with_stream_tag`]).
    pub fn from_campaign(config: &dptd_protocol::campaign::CampaignConfig) -> Self {
        Self {
            per_round_epsilon: config.per_round_loss.epsilon(),
            per_round_delta: config.per_round_loss.delta(),
            budget_epsilon: config.budget.epsilon(),
            budget_delta: config.budget.delta(),
            stream_tag: 0,
        }
    }

    /// Attach an input-stream fingerprint (see the field docs).
    #[must_use]
    pub fn with_stream_tag(mut self, tag: u64) -> Self {
        self.stream_tag = tag;
        self
    }

    fn bits(&self) -> [u64; 5] {
        [
            self.per_round_epsilon.to_bits(),
            self.per_round_delta.to_bits(),
            self.budget_epsilon.to_bits(),
            self.budget_delta.to_bits(),
            self.stream_tag,
        ]
    }

    /// Bit-exact equality (so `-0.0 != 0.0` and NaNs compare by pattern,
    /// matching what the log stores).
    pub fn matches(&self, other: &WalPolicy) -> bool {
        self.bits() == other.bits()
    }
}

/// One merged epoch, as persisted: the accepted-user set (this epoch's
/// budget debits) plus a full snapshot of the carried estimator and the
/// debit ledger, so the **last** committed record alone can restore the
/// campaign while the accepted histories let recovery cross-check the
/// ledger (and future compaction drop history without losing state).
///
/// Equality is the log's own: two records are equal iff they encode to
/// the same bytes, so the `f64` fields compare by bit pattern (`-0.0`
/// differs from `0.0`, and a NaN equals the same NaN).
#[derive(Debug, Clone)]
pub struct EpochRecord {
    /// What this record means to replay: a merged epoch, or a
    /// compaction snapshot covering everything before it. The kind is
    /// carried by the frame's length-self-check mask, not the payload,
    /// so the v1 payload layout is untouched.
    pub kind: RecordKind,
    /// The epoch id as stamped on its reports.
    pub epoch: u64,
    /// Estimator batches ingested up to and including this epoch.
    pub batches_seen: u64,
    /// The estimator's loss function (needed to rebuild it offline).
    pub loss: Loss,
    /// The privacy policy the debits below were accounted under.
    pub policy: WalPolicy,
    /// Users whose report was aggregated this epoch, ascending — exactly
    /// the users the campaign driver debits for this round.
    pub accepted_users: Vec<usize>,
    /// Snapshot of the estimator's per-user cumulative losses *after*
    /// this epoch's merge (bit-exact: stored as IEEE-754 bit patterns).
    pub cumulative_losses: Vec<f64>,
    /// Snapshot of the per-user debit ledger *after* this epoch's debits.
    pub rounds_debited: Vec<u32>,
}

impl PartialEq for EpochRecord {
    fn eq(&self, other: &Self) -> bool {
        (self.kind, self.epoch, self.batches_seen, self.loss)
            == (other.kind, other.epoch, other.batches_seen, other.loss)
            && self.policy.matches(&other.policy)
            && self.accepted_users == other.accepted_users
            && same_bits(&self.cumulative_losses, &other.cumulative_losses)
            && self.rounds_debited == other.rounds_debited
    }
}

/// Whether `a` and `b` hold the same IEEE-754 bit patterns, element for
/// element — equality as the log stores it.
pub(crate) fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// One merged round as a [`RecordLog`] is handed it by an owner that
/// keeps the state anyway (the campaign backend): an [`EpochRecord`] of
/// kind [`RecordKind::Epoch`] whose population vectors are borrowed, so
/// nothing population-sized is copied to log it.
///
/// It also says which users changed. Every accepted user was debited,
/// and a round moves no one else's loss or debits, so `accepted_users`
/// are **exactly** the users whose entry differs from the record
/// committed before this one. [`RecordLog::append_round`] may rely on
/// that instead of diffing the population.
#[derive(Debug, Clone, Copy)]
pub struct RoundRecord<'a> {
    /// The epoch id as stamped on its reports.
    pub epoch: u64,
    /// Estimator batches ingested up to and including this epoch.
    pub batches_seen: u64,
    /// The estimator's loss function.
    pub loss: Loss,
    /// The privacy policy the debits were accounted under.
    pub policy: WalPolicy,
    /// Users whose report was aggregated this epoch, ascending.
    pub accepted_users: &'a [usize],
    /// Every user's cumulative loss after this epoch's merge.
    pub cumulative_losses: &'a [f64],
    /// Every user's debits after this epoch's debits.
    pub rounds_debited: &'a [u32],
}

/// The estimator's loss as its one-byte tag.
impl Field for Loss {
    const MIN_LEN: usize = 1;
    fn put<S: Sink>(v: &Loss, w: &mut S) {
        w.put(&match v {
            Loss::Squared => 0u8,
            Loss::Absolute => 1,
            Loss::NormalizedSquared => 2,
        });
    }
    fn get(r: &mut Reader<'_>) -> Result<Loss, Malformed> {
        match r.get::<u8>()? {
            0 => Ok(Loss::Squared),
            1 => Ok(Loss::Absolute),
            2 => Ok(Loss::NormalizedSquared),
            _ => Err(Malformed("unknown loss tag")),
        }
    }
}

crate::record!(impl WalPolicy {
    per_round_epsilon: f64,
    per_round_delta: f64,
    budget_epsilon: f64,
    budget_delta: f64,
    stream_tag: u64,
});

impl RoundRecord<'_> {
    /// The population size this round snapshots.
    pub fn num_users(&self) -> usize {
        self.cumulative_losses.len()
    }

    /// The owned [`EpochRecord`] (copies both population vectors).
    pub fn to_record(&self) -> EpochRecord {
        EpochRecord {
            kind: RecordKind::Epoch,
            epoch: self.epoch,
            batches_seen: self.batches_seen,
            loss: self.loss,
            policy: self.policy,
            accepted_users: self.accepted_users.to_vec(),
            cumulative_losses: self.cumulative_losses.to_vec(),
            rounds_debited: self.rounds_debited.to_vec(),
        }
    }

    /// The full frame of this round as a record of `kind`.
    pub(crate) fn full_frame(&self, kind: RecordKind) -> Vec<u8> {
        FrameKind::Full(kind).frame(self, &[])
    }

    /// Whether a delta frame against `base` can express this round at
    /// all: the populations agree and fit the frame's `u32` user ids.
    fn deltas_against(&self, base: &EpochRecord) -> bool {
        let num_users = self.num_users();
        base.num_users() == num_users
            && self.rounds_debited.len() == num_users
            && base.rounds_debited.len() == num_users
            && u32::try_from(num_users).is_ok()
    }

    /// Most changed users a delta frame may list and still be
    /// **strictly shorter** than the full frame.
    fn shorter_delta_limit(&self) -> Option<usize> {
        let full = FrameKind::Full(RecordKind::Epoch).frame_len(self, &[]);
        let empty_delta = FrameKind::Delta.frame_len(self, &[]);
        full.checked_sub(empty_delta + 1)
            .map(|room| room / <Change as Field>::MIN_LEN)
    }

    /// Collect into `changed`, ascending, the users whose
    /// `(cumulative loss bits, debits)` entry differs from `base`'s.
    /// Returns `false` — `changed` is then meaningless — when more than
    /// `limit` users differ. The caller has checked
    /// [`RoundRecord::deltas_against`].
    fn diff_into(&self, base: &EpochRecord, limit: usize, changed: &mut Vec<usize>) -> bool {
        changed.clear();
        let ours = self.cumulative_losses.iter().zip(self.rounds_debited);
        let theirs = base.cumulative_losses.iter().zip(&base.rounds_debited);
        for (user, ((loss, debits), (base_loss, base_debits))) in ours.zip(theirs).enumerate() {
            if loss.to_bits() != base_loss.to_bits() || debits != base_debits {
                if changed.len() == limit {
                    return false;
                }
                changed.push(user);
            }
        }
        true
    }

    /// This round's delta frame against `base`, the record committed right
    /// before it, if one can express the round (the populations agree and
    /// fit `u32` ids) and it is **strictly shorter** than the full frame —
    /// the size half of the segmented store's writer rule. Without a
    /// `diff` buffer the frame lists the accepted users: a round's
    /// accepted users are exactly the users it changed (see
    /// [`RoundRecord`]; debug-checked), so this costs `O(accepted)`. With
    /// one, it lists the users whose entry differs from `base`'s, found by
    /// comparing the two up to the first one too many and left in `diff`.
    pub(crate) fn delta_if_shorter(
        &self,
        base: &EpochRecord,
        diff: Option<&mut Vec<usize>>,
    ) -> Option<Vec<u8>> {
        let limit = self.shorter_delta_limit()?;
        if !self.deltas_against(base) {
            return None;
        }
        let changed = match diff {
            Some(diff) => self.diff_into(base, limit, diff).then_some(&diff[..])?,
            None => {
                debug_assert!(
                    {
                        let mut changed = Vec::new();
                        self.diff_into(base, usize::MAX, &mut changed);
                        changed == self.accepted_users
                    },
                    "a round's accepted users must be exactly the users it changed"
                );
                self.accepted_users
            }
        };
        (changed.len() <= limit).then(|| FrameKind::Delta.frame(self, changed))
    }
}

impl EpochRecord {
    /// The population size this record snapshots.
    pub fn num_users(&self) -> usize {
        self.cumulative_losses.len()
    }

    /// This record's fields, borrowed. Its kind stays with the record.
    pub(crate) fn round(&self) -> RoundRecord<'_> {
        RoundRecord {
            epoch: self.epoch,
            batches_seen: self.batches_seen,
            loss: self.loss,
            policy: self.policy,
            accepted_users: &self.accepted_users,
            cumulative_losses: &self.cumulative_losses,
            rounds_debited: &self.rounds_debited,
        }
    }

    /// The [`RecordKind::Snapshot`] record covering this record: the
    /// same full state (estimator losses, ledger, policy, epoch) with an
    /// empty accepted-user set, so replay seeds from it without
    /// re-debiting anyone. Every committed record already carries
    /// everything a snapshot needs; the compactor turns its copy of the
    /// newest one into this in place.
    #[must_use]
    pub fn to_snapshot(&self) -> EpochRecord {
        EpochRecord {
            kind: RecordKind::Snapshot,
            accepted_users: Vec::new(),
            ..self.clone()
        }
    }

    /// Byte length of the frame [`EpochRecord::encode`] produces,
    /// counted without building it.
    pub fn encoded_len(&self) -> usize {
        FrameKind::Full(self.kind).frame_len(&self.round(), &[])
    }

    /// Byte length of the v3 delta frame carrying this record with
    /// `changed` changed-user entries.
    pub fn delta_encoded_len(&self, changed: usize) -> usize {
        FrameKind::Delta.frame_len(&self.round(), &[]) + changed * <Change as Field>::MIN_LEN
    }

    /// Encode the record as one framed WAL entry (length prefix, length
    /// self-check, checksum, payload) in the full v1/v2 layout.
    pub fn encode(&self) -> Vec<u8> {
        self.round().full_frame(self.kind)
    }

    /// [`EpochRecord::encode`] appended to `out` — how the compactor
    /// writes a snapshot right behind a segment's magic, in one buffer.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        FrameKind::Full(self.kind).frame_into(&self.round(), &[], out);
    }

    /// Encode the record as a v3 delta frame against `base`, the record
    /// committed immediately before it in the same log: the shared
    /// fields plus only the users whose entry differs, found by
    /// comparing the two records (losses by bit pattern), so
    /// [`replay`] rebuilds exactly this record whatever the pair.
    /// `None` when no delta can express it: the record is a snapshot,
    /// or the populations differ or exceed `u32` user ids.
    pub fn encode_delta(&self, base: &EpochRecord) -> Option<Vec<u8>> {
        let (round, mut changed) = (self.round(), Vec::new());
        (self.kind == RecordKind::Epoch
            && round.deltas_against(base)
            && round.diff_into(base, usize::MAX, &mut changed))
        .then(|| FrameKind::Delta.frame(&round, &changed))
    }

    /// Make `self` equal to `round`, as a record of `kind`, inside its
    /// existing allocations. `changed`, when given, lists every user
    /// whose entry differs between the two, so only those are copied.
    pub(crate) fn overwrite_from(
        &mut self,
        kind: RecordKind,
        round: RoundRecord<'_>,
        changed: Option<&[usize]>,
    ) {
        self.kind = kind;
        self.epoch = round.epoch;
        self.batches_seen = round.batches_seen;
        self.loss = round.loss;
        self.policy = round.policy;
        self.accepted_users.clear();
        self.accepted_users.extend_from_slice(round.accepted_users);
        match changed {
            Some(changed) => {
                for &user in changed {
                    self.cumulative_losses[user] = round.cumulative_losses[user];
                    self.rounds_debited[user] = round.rounds_debited[user];
                }
            }
            None => {
                self.cumulative_losses.clear();
                self.cumulative_losses
                    .extend_from_slice(round.cumulative_losses);
                self.rounds_debited.clear();
                self.rounds_debited.extend_from_slice(round.rounds_debited);
            }
        }
    }
}

/// FNV-1a over a frame's payload: the checksum of its header.
pub(crate) fn checksum(payload: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    for &b in payload {
        h.write_u8(b);
    }
    h.finish()
}

/// What a replay of the raw log found.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Replay {
    /// Every committed record, in log order — delta frames already
    /// rebuilt into the full records their writer was handed.
    pub records: Vec<EpochRecord>,
    /// Length of the valid prefix (header + committed frames). A writer
    /// resuming on this log must truncate to here first.
    pub valid_len: u64,
    /// Torn-tail bytes past `valid_len` that replay discarded.
    pub truncated_bytes: u64,
    /// How many of `records` were stored as v3 delta frames.
    pub delta_records: u64,
    /// Bytes of the valid prefix those delta frames occupy.
    pub delta_bytes: u64,
}

/// Replay a raw log image: verify the header, decode every committed
/// record, and classify the tail.
///
/// A partial trailing frame — or a final frame whose checksum fails,
/// which is what a crash mid-write leaves — is a **torn tail**: it is
/// reported via `truncated_bytes`, not an error. A checksum or structure
/// failure on any frame *before* the last is [`WalError::Corrupt`]: the
/// log lost committed data and must not be silently repaired.
///
/// # Errors
///
/// [`WalError::BadMagic`] for a foreign or future-version header;
/// [`WalError::Corrupt`] as above.
pub fn replay(bytes: &[u8]) -> Result<Replay, WalError> {
    replay_known(bytes, &FrameKind::ALL)
}

/// [`replay`] by a reader that knows only the `known` frame kinds; a
/// frame of any other kind fails the length self-check.
fn replay_known(bytes: &[u8], known: &[FrameKind]) -> Result<Replay, WalError> {
    let mut replay = Replay::default();
    if bytes.len() < WAL_MAGIC.len() {
        // Empty, or a crash while writing the very first header.
        replay.truncated_bytes = bytes.len() as u64;
        return Ok(replay);
    }
    if bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        return Err(WalError::BadMagic);
    }

    let mut offset = WAL_MAGIC.len();
    loop {
        let remaining = &bytes[offset..];
        replay.valid_len = offset as u64;
        if remaining.is_empty() {
            break;
        }
        // Whatever stops the loop early leaves `remaining` as the tail.
        replay.truncated_bytes = remaining.len() as u64;
        let Some((payload_len, mask, stored_sum)) = read_header(remaining) else {
            break;
        };
        // The header was written before any payload byte (appends are
        // sequential), so a complete header with a failing self-check is
        // *corruption* of the length prefix — without this check a
        // flipped length bit would masquerade as a torn tail and
        // silently truncate every committed record after it. The mask
        // that passes doubles as the frame-kind tag (v1 epoch record,
        // v2 snapshot record or v3 delta).
        let Some(kind) = known.iter().copied().find(|kind| kind.mask() == mask) else {
            return Err(WalError::Corrupt {
                offset: offset as u64,
                reason: "length prefix failed its self-check",
            });
        };
        let frame_len = FRAME_HEADER_LEN + payload_len;
        if remaining.len() < frame_len {
            break;
        }
        let payload = &remaining[FRAME_HEADER_LEN..frame_len];
        let is_last_frame = remaining.len() == frame_len;
        if checksum(payload) != stored_sum {
            if is_last_frame {
                // A full-length final frame with a bad checksum is still a
                // torn write (e.g. the length landed but the payload did
                // not all reach the disk surface).
                break;
            }
            return Err(WalError::Corrupt {
                offset: offset as u64,
                reason: "record checksum mismatch",
            });
        }
        match kind.get(payload, replay.records.last()) {
            Ok(record) => replay.records.push(record),
            Err(Malformed(reason)) => {
                return Err(WalError::Corrupt {
                    offset: offset as u64,
                    reason,
                });
            }
        }
        if kind == FrameKind::Delta {
            replay.delta_records += 1;
            replay.delta_bytes += frame_len as u64;
        }
        replay.truncated_bytes = 0;
        offset += frame_len;
    }
    Ok(replay)
}

/// The record-level appending interface the engine backend writes
/// through: [`WalWriter`] (the single-segment layout) and the segmented
/// [`crate::store::SegmentStore`] (rotation + compaction) both
/// implement it, so the durability barrier in
/// [`crate::backend::EngineBackend`] is layout-agnostic.
///
/// A record reaches a log one of two ways, which commit the same bytes:
/// owned ([`RecordLog::append_record`], where a log that writes deltas
/// diffs the record against the one before it to find the changed
/// users), or borrowed from a caller that names the changed users
/// ([`RecordLog::append_round`], the campaign backend's path).
pub trait RecordLog: fmt::Debug + Send {
    /// Durably append one epoch record. The record is committed iff
    /// this returns `Ok` — an error must leave the log recoverable to
    /// its pre-append state (the caller rolls its in-memory state back).
    fn append_record(&mut self, record: &EpochRecord) -> Result<(), WalError>;

    /// Durably append one round, borrowed, whose accepted users are
    /// exactly the users it changed ([`RoundRecord`]). Commits what
    /// [`RecordLog::append_record`] of [`RoundRecord::to_record`]
    /// commits, byte for byte, under the same contract — which is this
    /// default.
    fn append_round(&mut self, round: RoundRecord<'_>) -> Result<(), WalError> {
        self.append_record(&round.to_record())
    }

    /// Flush everything committed so far to stable storage (a no-op for
    /// logs that sync on every append) — called on orderly shutdown.
    fn sync(&mut self) -> Result<(), WalError> {
        Ok(())
    }
}

/// The appending half of the single-segment log: keeps
/// [`SEGMENT_FILE`] in a [`StoreFs`], repairs its torn tail on open, and
/// frames every record.
#[derive(Debug)]
pub struct WalWriter {
    fs: Box<dyn StoreFs>,
    /// Bytes known durably committed (header + acknowledged frames).
    /// Everything past this after a failed append is suspect — a torn
    /// prefix, or worse a *complete* frame whose fsync failed (the
    /// caller was told the round did not commit, so replaying that
    /// frame would double-charge its debits) — and is truncated away
    /// before the next append.
    committed_len: u64,
    /// Set when an append failed; the next append repairs first.
    dirty: bool,
}

impl WalWriter {
    /// Open a log for appending: read and replay the segment's existing
    /// bytes, truncate any torn tail, and write the header if the log is
    /// fresh. Returns the writer plus the replay (what recovery feeds
    /// on).
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures and replay errors ([`WalError`]).
    pub fn open(mut fs: Box<dyn StoreFs>) -> Result<(Self, Replay), WalError> {
        let bytes = fs.read(SEGMENT_FILE)?.unwrap_or_default();
        let replay = replay(&bytes)?;
        if replay.truncated_bytes > 0 {
            fs.truncate(SEGMENT_FILE, replay.valid_len)?;
        }
        let mut committed_len = replay.valid_len;
        if committed_len == 0 {
            fs.append(SEGMENT_FILE, &WAL_MAGIC)?;
            committed_len = WAL_MAGIC.len() as u64;
        }
        Ok((
            Self {
                fs,
                committed_len,
                dirty: false,
            },
            replay,
        ))
    }

    /// Append one epoch record (a single synced append).
    ///
    /// A failed append may leave bytes of the unacknowledged frame
    /// behind — a torn prefix, or a complete frame whose sync failed —
    /// so the writer marks itself dirty and the **next** append
    /// truncates back to the last acknowledged commit before writing. A
    /// retried round after a transient failure (e.g. a full disk that
    /// was cleared) therefore commits exactly once, to a clean log.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures; the record is not committed if
    /// this errors.
    pub fn append(&mut self, record: &EpochRecord) -> Result<(), WalError> {
        self.append_frame(&record.encode())
    }

    fn append_frame(&mut self, frame: &[u8]) -> Result<(), WalError> {
        if self.dirty {
            self.fs.truncate(SEGMENT_FILE, self.committed_len)?;
            self.dirty = false;
        }
        match self.fs.append(SEGMENT_FILE, frame) {
            Ok(()) => {
                self.committed_len += frame.len() as u64;
                Ok(())
            }
            Err(e) => {
                self.dirty = true;
                Err(e)
            }
        }
    }
}

impl RecordLog for WalWriter {
    fn append_record(&mut self, record: &EpochRecord) -> Result<(), WalError> {
        self.append(record)
    }

    /// Always a full frame, encoded straight from the borrowed round.
    fn append_round(&mut self, round: RoundRecord<'_>) -> Result<(), WalError> {
        self.append_frame(&round.full_frame(RecordKind::Epoch))
    }
}

/// The in-memory filesystem under its single-segment-log name. The
/// benchmark harness (`e2e_ledger/`) is its only user; ROADMAP item 1
/// slice A moves the harness off it and removes it.
pub type MemWal = MemFs;

/// The on-disk filesystem under its single-segment-log name. The
/// benchmark harness (`e2e_ledger/`) is its only user; ROADMAP item 1
/// slice A moves the harness off it and removes it.
pub type FileWal = DirFs;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::FailingFs;

    /// An in-memory directory whose segment holds `bytes`.
    fn seeded(bytes: Vec<u8>) -> MemFs {
        MemFs::from_map([(SEGMENT_FILE.to_string(), bytes)].into())
    }

    /// The segment's bytes (empty when nothing created it).
    fn segment(fs: &MemFs) -> Vec<u8> {
        fs.snapshot().remove(SEGMENT_FILE).unwrap_or_default()
    }

    fn record(epoch: u64) -> EpochRecord {
        EpochRecord {
            kind: RecordKind::Epoch,
            epoch,
            batches_seen: epoch + 1,
            loss: Loss::Squared,
            policy: WalPolicy {
                per_round_epsilon: 0.5,
                per_round_delta: 0.0,
                budget_epsilon: 2.0,
                budget_delta: 0.25,
                stream_tag: 0xDEAD_BEEF,
            },
            accepted_users: vec![0, 2],
            cumulative_losses: vec![0.5, 0.0, 1.25],
            rounds_debited: vec![1, 0, 1],
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let r = record(7);
        let frame = r.encode();
        assert_eq!(frame.len(), r.encoded_len());
        assert_eq!(
            r.to_snapshot().encode().len(),
            r.to_snapshot().encoded_len()
        );
        let replayed = replay(&[WAL_MAGIC.as_slice(), &frame].concat()).unwrap();
        assert_eq!(replayed.records, vec![r]);
        assert_eq!(replayed.truncated_bytes, 0);
    }

    #[test]
    fn golden_binary_layout_is_pinned() {
        // Version-1 layout, byte for byte. If this test fails you have
        // changed the on-disk format: bump the magic version byte and
        // write migration notes — old logs must not be misread.
        let frame = record(7).encode();
        let golden: Vec<u8> = [
            // payload_len = 125 (u32 LE)
            vec![125, 0, 0, 0],
            // len_check = 125 ^ "WAL1" (u32 LE)
            (125u32 ^ u32::from_le_bytes(*b"WAL1"))
                .to_le_bytes()
                .to_vec(),
            // FNV-1a checksum of the payload (u64 LE)
            0x1857_fa8a_ee30_240fu64.to_le_bytes().to_vec(),
            // epoch = 7
            vec![7, 0, 0, 0, 0, 0, 0, 0],
            // batches_seen = 8
            vec![8, 0, 0, 0, 0, 0, 0, 0],
            // loss tag: Squared = 0
            vec![0],
            // privacy policy: per-round (0.5, 0.0), budget (2.0, 0.25),
            // stream tag 0xDEADBEEF
            0.5f64.to_bits().to_le_bytes().to_vec(),
            0.0f64.to_bits().to_le_bytes().to_vec(),
            2.0f64.to_bits().to_le_bytes().to_vec(),
            0.25f64.to_bits().to_le_bytes().to_vec(),
            0xDEAD_BEEFu64.to_le_bytes().to_vec(),
            // num_users = 3
            vec![3, 0, 0, 0, 0, 0, 0, 0],
            // accepted_len = 2, accepted users 0 and 2
            vec![2, 0, 0, 0, 0, 0, 0, 0],
            vec![0, 0, 0, 0, 0, 0, 0, 0],
            vec![2, 0, 0, 0, 0, 0, 0, 0],
            // cumulative losses 0.5, 0.0, 1.25 as IEEE-754 bits
            0.5f64.to_bits().to_le_bytes().to_vec(),
            0.0f64.to_bits().to_le_bytes().to_vec(),
            1.25f64.to_bits().to_le_bytes().to_vec(),
            // debits 1, 0, 1 (u32 LE each)
            vec![1, 0, 0, 0],
            vec![0, 0, 0, 0],
            vec![1, 0, 0, 0],
        ]
        .concat();
        assert_eq!(frame, golden, "WAL v1 layout changed; frame = {frame:?}");
        assert_eq!(WAL_MAGIC, *b"DPTDWAL\x01");
    }

    #[test]
    fn snapshot_records_frame_with_the_v2_mask_and_roundtrip() {
        let snap = record(7).to_snapshot();
        assert_eq!(snap.kind, RecordKind::Snapshot);
        assert!(snap.accepted_users.is_empty());
        let frame = snap.encode();
        // Identical frame to the epoch encoding except the len-check
        // mask (and the dropped accepted users in the payload).
        let len_check = u32::from_le_bytes(frame[4..8].try_into().unwrap());
        let payload_len = u32::from_le_bytes(frame[..4].try_into().unwrap());
        assert_eq!(payload_len ^ len_check, u32::from_le_bytes(*b"WAL2"));

        // A mixed log (epoch record, then its snapshot) replays with the
        // kinds intact.
        let log = [WAL_MAGIC.as_slice(), &record(7).encode(), &frame].concat();
        let replayed = replay(&log).unwrap();
        assert_eq!(replayed.records, vec![record(7), snap]);

        // A snapshot frame claiming accepted users is corrupt — its
        // debits live in the ledger, so replaying them would
        // double-charge.
        let mut forged = record(7);
        forged.kind = RecordKind::Snapshot;
        let log = [WAL_MAGIC.as_slice(), &forged.encode()].concat();
        match replay(&log) {
            Err(WalError::Corrupt { reason, .. }) => {
                assert!(reason.contains("accepted"), "{reason}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    /// The round after `record(7)`: only user 2 reports, so only its
    /// entry moves.
    fn next_record() -> EpochRecord {
        EpochRecord {
            epoch: 8,
            batches_seen: 9,
            accepted_users: vec![2],
            cumulative_losses: vec![0.5, 0.0, 2.0],
            rounds_debited: vec![1, 0, 2],
            ..record(7)
        }
    }

    /// A hand-framed delta payload: `next_record()`'s shared fields
    /// claiming `num_users`, then `changed_len` and `entries`.
    fn delta_frame(num_users: u64, changed_len: u64, entries: &[(u32, f64, u32)]) -> Vec<u8> {
        let full = next_record().encode();
        // epoch … stream_tag, then num_users/accepted_len/accepted_user.
        let mut payload = full[FRAME_HEADER_LEN..FRAME_HEADER_LEN + 57].to_vec();
        payload.extend_from_slice(&num_users.to_le_bytes());
        payload.extend_from_slice(&1u64.to_le_bytes());
        payload.extend_from_slice(&2u64.to_le_bytes());
        payload.extend_from_slice(&changed_len.to_le_bytes());
        for &(user, loss, debits) in entries {
            payload.extend_from_slice(&user.to_le_bytes());
            payload.extend_from_slice(&loss.to_bits().to_le_bytes());
            payload.extend_from_slice(&debits.to_le_bytes());
        }
        let mut frame = Vec::new();
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&((payload.len() as u32) ^ DELTA_XOR).to_le_bytes());
        frame.extend_from_slice(&checksum(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        frame
    }

    fn corrupt_reason(log: &[u8]) -> &'static str {
        match replay(log) {
            Err(WalError::Corrupt { reason, .. }) => reason,
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn golden_delta_layout_is_pinned() {
        // Version-3 layout, byte for byte, next to the v1/v2 pins: the
        // v1 fields through the accepted-user list, then only what the
        // round changed.
        let frame = next_record().encode_delta(&record(7)).unwrap();
        let golden: Vec<u8> = [
            // payload_len = 105 (u32 LE)
            vec![105, 0, 0, 0],
            // len_check = 105 ^ "WAL3" (u32 LE)
            (105u32 ^ u32::from_le_bytes(*b"WAL3"))
                .to_le_bytes()
                .to_vec(),
            // FNV-1a checksum of the payload (u64 LE)
            0xc8e6_727b_c352_0883u64.to_le_bytes().to_vec(),
            // epoch = 8, batches_seen = 9, loss tag Squared = 0
            vec![8, 0, 0, 0, 0, 0, 0, 0],
            vec![9, 0, 0, 0, 0, 0, 0, 0],
            vec![0],
            // privacy policy, as in the v1 pin
            0.5f64.to_bits().to_le_bytes().to_vec(),
            0.0f64.to_bits().to_le_bytes().to_vec(),
            2.0f64.to_bits().to_le_bytes().to_vec(),
            0.25f64.to_bits().to_le_bytes().to_vec(),
            0xDEAD_BEEFu64.to_le_bytes().to_vec(),
            // num_users = 3
            vec![3, 0, 0, 0, 0, 0, 0, 0],
            // accepted_len = 1, accepted user 2
            vec![1, 0, 0, 0, 0, 0, 0, 0],
            vec![2, 0, 0, 0, 0, 0, 0, 0],
            // changed_len = 1
            vec![1, 0, 0, 0, 0, 0, 0, 0],
            // user 2 (u32): cumulative loss 2.0, debits 2 (u32)
            vec![2, 0, 0, 0],
            2.0f64.to_bits().to_le_bytes().to_vec(),
            vec![2, 0, 0, 0],
        ]
        .concat();
        assert_eq!(frame, golden, "WAL v3 layout changed; frame = {frame:?}");
        assert_eq!(frame.len(), next_record().delta_encoded_len(1));
        assert_eq!(frame, delta_frame(3, 1, &[(2, 2.0, 2)]));

        // It replays to the record the writer was handed, as an epoch.
        let log = [WAL_MAGIC.as_slice(), &record(7).encode(), &frame].concat();
        let replayed = replay(&log).unwrap();
        assert_eq!(replayed.records, vec![record(7), next_record()]);
        assert_eq!(replayed.delta_records, 1);
        assert_eq!(replayed.delta_bytes, frame.len() as u64);
        // A snapshot is a base like any other record.
        let log = [
            WAL_MAGIC.as_slice(),
            &record(7).to_snapshot().encode(),
            &frame,
        ]
        .concat();
        assert_eq!(replay(&log).unwrap().records[1], next_record());
    }

    #[test]
    fn a_reader_without_the_delta_kind_refuses_the_log_as_corrupt() {
        // What a pre-v3 binary does with a delta-bearing log: the "WAL3"
        // mask passes neither check it knows, so the frame is a corrupt
        // length prefix — never a misread record, never a torn tail.
        let delta = next_record().encode_delta(&record(7)).unwrap();
        let log = [WAL_MAGIC.as_slice(), &record(7).encode(), &delta].concat();
        let v2_reader = [
            FrameKind::Full(RecordKind::Epoch),
            FrameKind::Full(RecordKind::Snapshot),
        ];
        match replay_known(&log, &v2_reader) {
            Err(WalError::Corrupt { offset, reason }) => {
                assert_eq!(offset as usize, WAL_MAGIC.len() + record(7).encoded_len());
                assert!(reason.contains("self-check"), "{reason}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // v1/v2-only logs read the same with or without the new kind.
        let old = [
            WAL_MAGIC.as_slice(),
            &record(7).encode(),
            &record(7).to_snapshot().encode(),
        ]
        .concat();
        assert_eq!(replay_known(&old, &v2_reader), replay(&old));
    }

    #[test]
    fn malformed_deltas_are_corrupt_and_a_damaged_final_one_is_a_torn_tail() {
        let base = record(7).encode();
        let good = delta_frame(3, 1, &[(2, 2.0, 2)]);
        let log = |frames: &[&[u8]]| [&[WAL_MAGIC.as_slice()], frames].concat().concat();

        // First frame of its log image: nothing to apply it to.
        assert!(corrupt_reason(&log(&[&good])).contains("no record before"));
        // A base snapshotting another population.
        let wide = EpochRecord {
            cumulative_losses: vec![0.0; 4],
            rounds_debited: vec![0; 4],
            ..record(7)
        };
        assert!(corrupt_reason(&log(&[&wide.encode(), &good])).contains("another population"));
        // Users out of order, repeated, or outside the population.
        for entries in [
            [(2, 2.0, 2), (1, 0.0, 0)],
            [(1, 2.0, 2), (1, 0.0, 0)],
            [(1, 2.0, 2), (3, 0.0, 0)],
        ] {
            let reason = corrupt_reason(&log(&[&base, &delta_frame(3, 2, &entries)]));
            assert!(
                reason.contains("ascending") || reason.contains("outside"),
                "{reason}"
            );
        }
        // A changed count beyond the bytes present is refused before
        // anything is allocated for it; one short of them leaves
        // trailing bytes.
        for changed_len in [u64::MAX, 1 << 40, 2, 0] {
            let reason =
                corrupt_reason(&log(&[&base, &delta_frame(3, changed_len, &[(2, 2.0, 2)])]));
            assert!(reason.contains("changed count"), "{reason}");
        }

        // A bit flip in a delta that is NOT the final frame is
        // corruption; the same flip in the final frame is a torn tail.
        let two = log(&[&base, &good, &good]);
        let first_delta = WAL_MAGIC.len() + base.len();
        let mut middle = two.clone();
        middle[first_delta + FRAME_HEADER_LEN + 3] ^= 0x01;
        assert_eq!(corrupt_reason(&middle), "record checksum mismatch");
        let mut last = two.clone();
        let at = two.len() - 1;
        last[at] ^= 0x01;
        let r = replay(&last).unwrap();
        assert_eq!(r.records.len(), 2);
        assert_eq!(r.valid_len as usize, first_delta + good.len());
        assert_eq!(r.truncated_bytes as usize, good.len());
        // …as is every partial write of it.
        for cut in first_delta + good.len()..two.len() {
            let r = replay(&two[..cut]).unwrap();
            assert_eq!(r.records.len(), 2, "cut at {cut}");
            assert_eq!(r.delta_records, 1, "cut at {cut}");
        }
    }

    #[test]
    fn torn_tails_truncate_and_corrupt_middles_reject() {
        let full: Vec<u8> = [
            WAL_MAGIC.as_slice(),
            &record(0).encode(),
            &record(1).encode(),
        ]
        .concat();
        let first_len = WAL_MAGIC.len() + record(0).encode().len();

        // Every possible torn tail of the second record truncates cleanly
        // back to the first.
        for cut in first_len..full.len() {
            let r = replay(&full[..cut]).unwrap();
            assert_eq!(r.records.len(), 1, "cut at {cut}");
            assert_eq!(r.valid_len as usize, first_len, "cut at {cut}");
            assert_eq!(r.truncated_bytes as usize, cut - first_len, "cut at {cut}");
        }

        // A corrupt byte in the FIRST record (followed by a committed
        // second record) is rejected, never repaired.
        let mut corrupt = full.clone();
        corrupt[WAL_MAGIC.len() + FRAME_HEADER_LEN + 3] ^= 0xff;
        assert!(matches!(replay(&corrupt), Err(WalError::Corrupt { .. })));

        // A bit flip in the FINAL record is indistinguishable from a torn
        // write and truncates instead.
        let mut torn_final = full.clone();
        let last = full.len() - 1;
        torn_final[last] ^= 0xff;
        let r = replay(&torn_final).unwrap();
        assert_eq!(r.records.len(), 1);
        assert_eq!(r.valid_len as usize, first_len);
    }

    #[test]
    fn corrupted_length_prefix_is_corruption_not_a_torn_tail() {
        // A flipped high bit in the FIRST record's length prefix makes
        // the frame appear to run past end-of-file. Without the length
        // self-check that would be classified as a torn tail and the
        // committed second record would be silently truncated away; with
        // it, replay refuses.
        let full: Vec<u8> = [
            WAL_MAGIC.as_slice(),
            &record(0).encode(),
            &record(1).encode(),
        ]
        .concat();
        let mut corrupt = full.clone();
        corrupt[WAL_MAGIC.len() + 3] ^= 0x80; // high byte of payload_len
        match replay(&corrupt) {
            Err(WalError::Corrupt { reason, .. }) => {
                assert!(reason.contains("self-check"), "{reason}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // Same flip in the final record's length: the record is the tail,
        // but a complete header with a failing self-check is still
        // corruption (torn writes cannot produce an inconsistent pair —
        // the header is written before any payload byte).
        let second_start = WAL_MAGIC.len() + record(0).encode().len();
        let mut corrupt_tail = full;
        corrupt_tail[second_start + 3] ^= 0x80;
        assert!(matches!(
            replay(&corrupt_tail),
            Err(WalError::Corrupt { .. })
        ));
    }

    #[test]
    fn crafted_huge_counts_error_instead_of_aborting() {
        // A record whose payload claims an absurd population must be
        // rejected as corrupt — not abort the read-only inspector with a
        // capacity-overflow panic when Vec::with_capacity is fed
        // 2^61 * 8. The checksum is valid (FNV is unkeyed), so only the
        // size bound stands between a crafted file and the allocator.
        let mut payload = Vec::new();
        payload.extend_from_slice(&7u64.to_le_bytes()); // epoch
        payload.extend_from_slice(&8u64.to_le_bytes()); // batches_seen
        payload.push(0); // loss tag
        for _ in 0..5 {
            payload.extend_from_slice(&0u64.to_le_bytes()); // policy + tag
        }
        payload.extend_from_slice(&(1u64 << 61).to_le_bytes()); // num_users
        payload.extend_from_slice(&(1u64 << 61).to_le_bytes()); // accepted
        let mut frame = Vec::new();
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&((payload.len() as u32) ^ LEN_XOR).to_le_bytes());
        frame.extend_from_slice(&checksum(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);

        let log = [WAL_MAGIC.as_slice(), &frame, &record(0).encode()].concat();
        assert!(matches!(replay(&log), Err(WalError::Corrupt { .. })));
    }

    #[test]
    fn bad_magic_and_torn_header() {
        assert!(matches!(replay(b"NOTAWAL!rest"), Err(WalError::BadMagic)));
        // A crash mid-header truncates to an empty log.
        let r = replay(&WAL_MAGIC[..5]).unwrap();
        assert_eq!(r.valid_len, 0);
        assert_eq!(r.truncated_bytes, 5);
        // Future version byte is a bad magic, not a guess.
        let mut v2 = WAL_MAGIC;
        v2[7] = 0x02;
        assert!(matches!(replay(&v2), Err(WalError::BadMagic)));
    }

    #[test]
    fn writer_repairs_torn_tail_before_appending() {
        let mut torn = [WAL_MAGIC.as_slice(), &record(0).encode()].concat();
        torn.extend_from_slice(&[1, 2, 3, 4, 5]); // torn garbage
        let mem = seeded(torn);
        let (mut writer, replayed) = WalWriter::open(Box::new(mem.clone())).unwrap();
        assert_eq!(replayed.records.len(), 1);
        assert_eq!(replayed.truncated_bytes, 5);
        writer.append(&record(1)).unwrap();
        let clean = replay(&segment(&mem)).unwrap();
        assert_eq!(clean.records.len(), 2);
        assert_eq!(clean.truncated_bytes, 0);
    }

    #[test]
    fn retried_append_after_a_torn_failure_repairs_before_writing() {
        /// Fails exactly one append — persisting a fraction of the frame
        /// (a torn write) or all of it (a full write whose fsync
        /// failed). A transient fault, unlike [`FailingFs`]'s
        /// permanent crash.
        #[derive(Debug)]
        struct FlakyFs {
            inner: MemFs,
            fail_next: bool,
            /// Numerator over 2: 1 = write half the frame, 2 = all of it.
            persist_halves: usize,
        }
        impl StoreFs for FlakyFs {
            fn read(&mut self, name: &str) -> Result<Option<Vec<u8>>, WalError> {
                self.inner.read(name)
            }
            fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), WalError> {
                if self.fail_next {
                    self.fail_next = false;
                    self.inner
                        .append(name, &bytes[..bytes.len() * self.persist_halves / 2])?;
                    return Err(WalError::Io {
                        op: "append",
                        message: "transient: no space left".to_string(),
                    });
                }
                self.inner.append(name, bytes)
            }
            fn truncate(&mut self, name: &str, len: u64) -> Result<(), WalError> {
                self.inner.truncate(name, len)
            }
            fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> Result<(), WalError> {
                self.inner.write_atomic(name, bytes)
            }
            fn remove(&mut self, name: &str) -> Result<(), WalError> {
                self.inner.remove(name)
            }
            fn list(&mut self) -> Result<Vec<String>, WalError> {
                self.inner.list()
            }
            fn sync(&mut self, name: &str) -> Result<(), WalError> {
                self.inner.sync(name)
            }
        }

        for persist_halves in [1usize, 2] {
            let mem = MemFs::new();
            let (mut writer, _) = WalWriter::open(Box::new(FlakyFs {
                inner: mem.clone(),
                fail_next: false,
                persist_halves,
            }))
            .unwrap();
            writer.append(&record(0)).unwrap();

            // Fail the next append (torn half-frame, or a complete frame
            // whose sync failed — the caller was told it did NOT commit).
            // The writer owns its filesystem, so model the fault with a
            // second writer over the same shared directory.
            let (mut flaky_writer, _) = WalWriter::open(Box::new(FlakyFs {
                inner: mem.clone(),
                fail_next: true,
                persist_halves,
            }))
            .unwrap();
            assert!(flaky_writer.append(&record(1)).is_err());
            assert!(segment(&mem).len() > WAL_MAGIC.len() + record(0).encode().len());

            // The retry must truncate back to the last acknowledged
            // commit first: without that, a torn prefix would make the
            // retried frame non-tail garbage (Corrupt), and a fully
            // persisted unacknowledged frame would commit the same epoch
            // twice (double-charging its debits on replay).
            flaky_writer.append(&record(1)).unwrap();
            let clean = replay(&segment(&mem)).unwrap();
            assert_eq!(
                clean.records,
                vec![record(0), record(1)],
                "persist_halves = {persist_halves}"
            );
            assert_eq!(clean.truncated_bytes, 0);
        }
    }

    #[test]
    fn failing_wal_tears_exactly_at_the_byte_budget() {
        let mem = MemFs::new();
        let failing = FailingFs::new(mem.clone(), WAL_MAGIC.len() as u64 + 10);
        let (mut writer, _) = WalWriter::open(Box::new(failing)).unwrap();
        assert!(writer.append(&record(0)).is_err());
        // Exactly 10 bytes of the frame survived — a torn tail replay
        // truncates.
        assert_eq!(segment(&mem).len(), WAL_MAGIC.len() + 10);
        let r = replay(&segment(&mem)).unwrap();
        assert_eq!(r.records.len(), 0);
        assert_eq!(r.truncated_bytes, 10);
        // The dead process stays dead: the retry's repair fails too.
        assert!(writer.append(&record(0)).is_err());
        assert_eq!(segment(&mem).len(), WAL_MAGIC.len() + 10);
    }

    #[test]
    fn wal_lock_refuses_a_second_live_writer_and_releases_on_drop() {
        let dir = std::env::temp_dir().join(format!(
            "dptd-wal-lock-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);

        let lock = WalLock::acquire(&dir).unwrap();
        assert!(lock.path().exists());
        // Same directory, same process, second handle: refused — this is
        // exactly the two-live-writers case the lock exists to stop.
        match WalLock::acquire(&dir) {
            Err(WalError::Locked { pid, .. }) => assert_eq!(pid, std::process::id()),
            other => panic!("expected Locked, got {other:?}"),
        }
        // Dropping releases; the next writer acquires cleanly.
        drop(lock);
        let relock = WalLock::acquire(&dir).unwrap();
        drop(relock);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_lock_file_left_by_a_dead_writer_never_blocks() {
        let dir = std::env::temp_dir().join(format!(
            "dptd-wal-stale-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        // A LOCK file left behind by a crashed writer (any content, even
        // garbage): the OS lock died with the process, so the file's
        // mere presence must not block — this is what lets a crashed
        // campaign recover without operator intervention.
        fs::write(dir.join(LOCK_FILE), "not-a-pid").unwrap();
        let lock = WalLock::acquire(&dir).expect("an unheld lock file must not block");
        // The new holder stamped its own PID over the leftovers.
        assert_eq!(
            fs::read_to_string(lock.path()).unwrap().trim(),
            std::process::id().to_string()
        );
        drop(lock);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_wal_round_trips_through_disk() {
        let dir = std::env::temp_dir().join(format!(
            "dptd-wal-unit-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        {
            let (mut writer, replayed) =
                WalWriter::open(Box::new(DirFs::open(&dir).unwrap())).unwrap();
            assert!(replayed.records.is_empty());
            writer.append(&record(0)).unwrap();
            writer.append(&record(1)).unwrap();
        }
        // Reopen from disk: both records committed; append a torn tail by
        // hand and confirm the next open repairs it.
        let mut disk = DirFs::open(&dir).unwrap();
        let bytes = disk.read(SEGMENT_FILE).unwrap().unwrap();
        let r = replay(&bytes).unwrap();
        assert_eq!(r.records.len(), 2);
        disk.append(SEGMENT_FILE, &[0xde, 0xad]).unwrap();
        let (_, replayed) = WalWriter::open(Box::new(DirFs::open(&dir).unwrap())).unwrap();
        assert_eq!(replayed.records.len(), 2);
        assert_eq!(replayed.truncated_bytes, 2);
        assert_eq!(
            disk.read(SEGMENT_FILE).unwrap().unwrap().len() as u64,
            replayed.valid_len
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
