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
//! the same fold every other layer of the workspace uses for exact
//! reproducibility digests; `len_check` is `payload_len ^ "WAL1"`, a
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
//! ([`EpochRecord::encode_delta`]; the rule for *when* is in
//! [`crate::store`]); [`WalWriter`] always writes full frames. A
//! reader that knows only `"WAL1"`/`"WAL2"` fails the length
//! self-check on a v3 frame and refuses the log as corrupt instead of
//! misreading it.
//!
//! Sinks: [`FileWal`] appends to a single segment file (fsynced per
//! record), [`MemWal`] is the in-memory test double, and [`FailingWal`]
//! injects crashes — it tears the write after a byte budget — for the
//! fault-injection harnesses in `tests/wal_recovery.rs` and
//! `crates/engine/tests/wal_proptests.rs`.
//!
//! **Single-writer contract**: a log directory belongs to one campaign
//! process at a time. [`WalLock`] enforces it advisorily with an OS
//! file lock (flock-style, PID-stamped `LOCK` file for diagnostics), so
//! a second live writer is refused **at open** ([`WalError::Locked`])
//! instead of only detected at recovery — while a lock whose holder
//! died releases with the process, so a crash never blocks the very
//! recovery this module exists for. [`FileWal`] itself stays lock-free
//! so read-only inspection (`dptd recover`) never contends; writers —
//! the campaign CLI and the network server's per-campaign WAL dirs —
//! acquire the lock around it. Recovery additionally still *detects*
//! interleaved writers after the fact (a non-increasing epoch whose
//! record differs from the one already applied refuses as
//! [`WalError::Inconsistent`]).

use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use dptd_stats::digest::Fnv1a;
use dptd_truth::Loss;

/// The 8-byte file header: 7 ASCII magic bytes plus the format version.
pub const WAL_MAGIC: [u8; 8] = *b"DPTDWAL\x01";

/// Name of the (single, for now) segment file inside a WAL directory.
/// Compacting snapshots into rotated segments is a planned follow-on.
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

/// Payload bytes every layout spends before the accepted-user list:
/// epoch, batches seen, loss tag, the five policy words, population and
/// accepted counts.
const FIXED_FIELDS_LEN: usize = 8 + 8 + 1 + 40 + 8 + 8;

/// Payload bytes of one changed-user entry in a delta frame.
const DELTA_ENTRY_LEN: usize = 4 + 8 + 4;

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

    /// The kind among `known` whose mask passes the self-check.
    fn from_check(payload_len: u32, len_check: u32, known: &[FrameKind]) -> Option<Self> {
        known
            .iter()
            .copied()
            .find(|kind| payload_len ^ kind.mask() == len_check)
    }
}

/// Errors from the write-ahead log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalError {
    /// An I/O operation on the backing sink failed (or a
    /// [`FailingWal`]-injected crash fired).
    Io {
        /// Which sink operation failed (`"load"`, `"append"`, …).
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

fn io_err(op: &'static str, e: std::io::Error) -> WalError {
    WalError::Io {
        op,
        message: e.to_string(),
    }
}

/// A byte-level append log the WAL writes through. Implementations only
/// store bytes; framing, checksums and replay live in this module so
/// every sink shares the exact same format.
pub trait WalSink: fmt::Debug + Send {
    /// Read the entire log from the beginning.
    fn load(&mut self) -> Result<Vec<u8>, WalError>;
    /// Append `bytes` at the end (one call per record frame; a crash may
    /// leave a prefix of the frame behind — replay handles that).
    fn append(&mut self, bytes: &[u8]) -> Result<(), WalError>;
    /// Discard everything past `len` bytes (torn-tail repair).
    fn truncate(&mut self, len: u64) -> Result<(), WalError>;
}

/// File-backed WAL sink: one segment file inside a directory, fsynced
/// after every append. One live writer per directory (see the module
/// docs' single-writer contract).
#[derive(Debug, Clone)]
pub struct FileWal {
    path: PathBuf,
}

impl FileWal {
    /// Open (creating if needed) the WAL segment inside `dir`.
    ///
    /// # Errors
    ///
    /// Returns [`WalError::Io`] if the directory or file cannot be
    /// created.
    pub fn open(dir: &Path) -> Result<Self, WalError> {
        fs::create_dir_all(dir).map_err(|e| io_err("create dir", e))?;
        let path = dir.join(SEGMENT_FILE);
        if !path.exists() {
            fs::File::create(&path).map_err(|e| io_err("create segment", e))?;
            // Durability of the *name*, not just the bytes: without
            // fsyncing the directory, a power cut can drop the freshly
            // created entry and the whole log silently vanishes —
            // restart would replay an empty log and re-spend budgets.
            if let Ok(d) = fs::File::open(dir) {
                d.sync_all().map_err(|e| io_err("sync dir", e))?;
            }
        }
        Ok(Self { path })
    }

    /// The segment file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl WalSink for FileWal {
    fn load(&mut self) -> Result<Vec<u8>, WalError> {
        match fs::read(&self.path) {
            Ok(bytes) => Ok(bytes),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
            Err(e) => Err(io_err("load", e)),
        }
    }

    fn append(&mut self, bytes: &[u8]) -> Result<(), WalError> {
        let mut file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)
            .map_err(|e| io_err("append", e))?;
        file.write_all(bytes).map_err(|e| io_err("append", e))?;
        file.sync_data().map_err(|e| io_err("append", e))
    }

    fn truncate(&mut self, len: u64) -> Result<(), WalError> {
        let file = fs::OpenOptions::new()
            .write(true)
            .open(&self.path)
            .map_err(|e| io_err("truncate", e))?;
        file.set_len(len).map_err(|e| io_err("truncate", e))?;
        file.sync_data().map_err(|e| io_err("truncate", e))
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
/// The lock is advisory: read-only inspection ([`FileWal::load`],
/// `dptd recover`) deliberately ignores it.
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

/// In-memory WAL sink for tests. Clones share the same buffer, so a test
/// can keep a handle, hand a clone to the engine, "crash" it, and read
/// what survived.
#[derive(Debug, Clone, Default)]
pub struct MemWal {
    buf: Arc<Mutex<Vec<u8>>>,
}

impl MemWal {
    /// An empty in-memory log.
    pub fn new() -> Self {
        Self::default()
    }

    /// An in-memory log seeded with `bytes` (e.g. what survived a
    /// simulated crash).
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        Self {
            buf: Arc::new(Mutex::new(bytes)),
        }
    }

    /// A copy of the log's current bytes.
    pub fn snapshot(&self) -> Vec<u8> {
        self.buf.lock().expect("wal buffer lock").clone()
    }
}

impl WalSink for MemWal {
    fn load(&mut self) -> Result<Vec<u8>, WalError> {
        Ok(self.snapshot())
    }

    fn append(&mut self, bytes: &[u8]) -> Result<(), WalError> {
        self.buf
            .lock()
            .expect("wal buffer lock")
            .extend_from_slice(bytes);
        Ok(())
    }

    fn truncate(&mut self, len: u64) -> Result<(), WalError> {
        let mut buf = self.buf.lock().expect("wal buffer lock");
        if (len as usize) < buf.len() {
            buf.truncate(len as usize);
        }
        Ok(())
    }
}

/// Fault-injection sink: forwards to `inner` until a byte budget runs
/// out, then **tears** the offending append (writes only the bytes the
/// budget still covers) and fails every call after — exactly what a
/// crash mid-`write(2)` leaves on disk.
///
/// A budget landing on a frame boundary models a clean kill between
/// records; any other budget models a torn partial write.
#[derive(Debug)]
pub struct FailingWal<S: WalSink> {
    inner: S,
    remaining: u64,
    crashed: bool,
}

impl<S: WalSink> FailingWal<S> {
    /// Crash once `fail_after_bytes` total bytes have been appended
    /// through this wrapper (the header written on open counts).
    pub fn new(inner: S, fail_after_bytes: u64) -> Self {
        Self {
            inner,
            remaining: fail_after_bytes,
            crashed: false,
        }
    }

    /// Whether the injected crash has fired.
    pub fn crashed(&self) -> bool {
        self.crashed
    }

    /// Unwrap the inner sink (to inspect what survived the crash).
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: WalSink> WalSink for FailingWal<S> {
    fn load(&mut self) -> Result<Vec<u8>, WalError> {
        self.inner.load()
    }

    fn append(&mut self, bytes: &[u8]) -> Result<(), WalError> {
        if self.crashed {
            return Err(WalError::Io {
                op: "append",
                message: "injected crash: process already dead".to_string(),
            });
        }
        if (bytes.len() as u64) <= self.remaining {
            self.remaining -= bytes.len() as u64;
            return self.inner.append(bytes);
        }
        // Torn write: persist only the prefix the budget covers, then die.
        let keep = self.remaining as usize;
        self.crashed = true;
        self.remaining = 0;
        if keep > 0 {
            self.inner.append(&bytes[..keep])?;
        }
        Err(WalError::Io {
            op: "append",
            message: format!("injected crash: write torn after {keep} bytes"),
        })
    }

    fn truncate(&mut self, len: u64) -> Result<(), WalError> {
        if self.crashed {
            return Err(WalError::Io {
                op: "truncate",
                message: "injected crash: process already dead".to_string(),
            });
        }
        self.inner.truncate(len)
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
#[derive(Debug, Clone, PartialEq)]
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

fn loss_tag(loss: Loss) -> u8 {
    match loss {
        Loss::Squared => 0,
        Loss::Absolute => 1,
        Loss::NormalizedSquared => 2,
    }
}

fn loss_from_tag(tag: u8) -> Option<Loss> {
    match tag {
        0 => Some(Loss::Squared),
        1 => Some(Loss::Absolute),
        2 => Some(Loss::NormalizedSquared),
        _ => None,
    }
}

impl EpochRecord {
    /// The population size this record snapshots.
    pub fn num_users(&self) -> usize {
        self.cumulative_losses.len()
    }

    /// The [`RecordKind::Snapshot`] record covering this record: the
    /// same full state (estimator losses, ledger, policy, epoch) with an
    /// empty accepted-user set, so replay seeds from it without
    /// re-debiting anyone. This is what the compactor writes — every
    /// committed record already carries everything a snapshot needs.
    #[must_use]
    pub fn to_snapshot(&self) -> EpochRecord {
        EpochRecord {
            kind: RecordKind::Snapshot,
            accepted_users: Vec::new(),
            ..self.clone()
        }
    }

    /// Byte length of the frame [`EpochRecord::encode`] produces,
    /// computed without building it (header + fixed payload fields +
    /// 8 bytes per accepted user + 12 bytes per population member).
    pub fn encoded_len(&self) -> usize {
        FRAME_HEADER_LEN + FIXED_FIELDS_LEN + 8 * self.accepted_users.len() + 12 * self.num_users()
    }

    /// Byte length of the v3 delta frame carrying this record with
    /// `changed` changed-user entries.
    pub fn delta_encoded_len(&self, changed: usize) -> usize {
        FRAME_HEADER_LEN
            + FIXED_FIELDS_LEN
            + 8 * self.accepted_users.len()
            + 8
            + DELTA_ENTRY_LEN * changed
    }

    /// Build one `frame_len`-byte frame in a single buffer: reserve
    /// the header, write the fields every layout shares (up to and
    /// including the accepted-user list), let `body` write what
    /// follows, then patch length, self-check and checksum in.
    fn encode_frame(
        &self,
        kind: FrameKind,
        frame_len: usize,
        body: impl FnOnce(&mut Vec<u8>),
    ) -> Vec<u8> {
        let mut frame = Vec::with_capacity(frame_len);
        frame.extend_from_slice(&[0; FRAME_HEADER_LEN]);
        frame.extend_from_slice(&self.epoch.to_le_bytes());
        frame.extend_from_slice(&self.batches_seen.to_le_bytes());
        frame.push(loss_tag(self.loss));
        for bits in self.policy.bits() {
            frame.extend_from_slice(&bits.to_le_bytes());
        }
        frame.extend_from_slice(&(self.num_users() as u64).to_le_bytes());
        frame.extend_from_slice(&(self.accepted_users.len() as u64).to_le_bytes());
        for &user in &self.accepted_users {
            frame.extend_from_slice(&(user as u64).to_le_bytes());
        }
        body(&mut frame);
        debug_assert_eq!(frame.len(), frame_len);

        let payload_len = (frame.len() - FRAME_HEADER_LEN) as u32;
        let sum = checksum(&frame[FRAME_HEADER_LEN..]);
        frame[..4].copy_from_slice(&payload_len.to_le_bytes());
        frame[4..8].copy_from_slice(&(payload_len ^ kind.mask()).to_le_bytes());
        frame[8..FRAME_HEADER_LEN].copy_from_slice(&sum.to_le_bytes());
        frame
    }

    /// Encode the record as one framed WAL entry (length prefix, length
    /// self-check, checksum, payload) in the full v1/v2 layout.
    pub fn encode(&self) -> Vec<u8> {
        debug_assert_eq!(
            self.cumulative_losses.len(),
            self.rounds_debited.len(),
            "snapshot vectors must cover the same population"
        );
        self.encode_frame(FrameKind::Full(self.kind), self.encoded_len(), |frame| {
            for &loss in &self.cumulative_losses {
                frame.extend_from_slice(&loss.to_bits().to_le_bytes());
            }
            for &debits in &self.rounds_debited {
                frame.extend_from_slice(&debits.to_le_bytes());
            }
        })
    }

    /// Collect into `changed`, ascending, the users whose
    /// `(cumulative loss bits, debits)` entry differs from `base`'s.
    /// Returns `false` — `changed` is then meaningless — when this
    /// record cannot be a delta against `base` (it is a snapshot, the
    /// populations differ or do not fit the frame's `u32` user ids) or
    /// when more than `limit` users differ.
    fn diff_into(&self, base: &EpochRecord, limit: usize, changed: &mut Vec<u32>) -> bool {
        changed.clear();
        let num_users = self.num_users();
        if self.kind != RecordKind::Epoch
            || base.num_users() != num_users
            || self.rounds_debited.len() != num_users
            || base.rounds_debited.len() != num_users
            || u32::try_from(num_users).is_err()
        {
            return false;
        }
        let ours = self.cumulative_losses.iter().zip(&self.rounds_debited);
        let theirs = base.cumulative_losses.iter().zip(&base.rounds_debited);
        for (user, ((loss, debits), (base_loss, base_debits))) in ours.zip(theirs).enumerate() {
            if loss.to_bits() != base_loss.to_bits() || debits != base_debits {
                if changed.len() == limit {
                    return false;
                }
                changed.push(user as u32);
            }
        }
        true
    }

    /// The v3 frame listing this record's entries for the `changed`
    /// users (as `diff_into` found them).
    fn encode_delta_frame(&self, changed: &[u32]) -> Vec<u8> {
        self.encode_frame(
            FrameKind::Delta,
            self.delta_encoded_len(changed.len()),
            |frame| {
                frame.extend_from_slice(&(changed.len() as u64).to_le_bytes());
                for &user in changed {
                    let at = user as usize;
                    frame.extend_from_slice(&user.to_le_bytes());
                    frame.extend_from_slice(&self.cumulative_losses[at].to_bits().to_le_bytes());
                    frame.extend_from_slice(&self.rounds_debited[at].to_le_bytes());
                }
            },
        )
    }

    /// Encode the record as a v3 delta frame against `base`, the record
    /// committed immediately before it in the same log: the shared
    /// fields plus only the users whose entry differs, found by
    /// comparing the two records (losses by bit pattern), so
    /// [`replay`] rebuilds exactly this record whatever the pair.
    /// `None` when no delta can express it: the record is a snapshot,
    /// or the populations differ or exceed `u32` user ids.
    pub fn encode_delta(&self, base: &EpochRecord) -> Option<Vec<u8>> {
        let mut changed = Vec::new();
        self.diff_into(base, usize::MAX, &mut changed)
            .then(|| self.encode_delta_frame(&changed))
    }

    /// [`EpochRecord::encode_delta`] only if that frame is **strictly
    /// shorter** than [`EpochRecord::encode`]'s — the size half of the
    /// segmented store's writer rule. The comparison stops at the first
    /// changed user too many, so a dense round costs one partial pass.
    /// On `Some`, `changed` holds the users the frame lists.
    pub(crate) fn encode_delta_if_shorter(
        &self,
        base: &EpochRecord,
        changed: &mut Vec<u32>,
    ) -> Option<Vec<u8>> {
        // delta < full  ⇔  8 + 16·changed < 12·users.
        let limit = (12 * self.num_users()).checked_sub(9)? / DELTA_ENTRY_LEN;
        self.diff_into(base, limit, changed)
            .then(|| self.encode_delta_frame(changed))
    }

    /// Make `self` equal to `record` inside its existing allocations.
    /// `changed`, when given, lists every user whose entry differs
    /// between the two, so only those are copied.
    pub(crate) fn overwrite_from(&mut self, record: &EpochRecord, changed: Option<&[u32]>) {
        self.kind = record.kind;
        self.epoch = record.epoch;
        self.batches_seen = record.batches_seen;
        self.loss = record.loss;
        self.policy = record.policy;
        self.accepted_users.clone_from(&record.accepted_users);
        match changed {
            Some(changed) => {
                for &user in changed {
                    let at = user as usize;
                    self.cumulative_losses[at] = record.cumulative_losses[at];
                    self.rounds_debited[at] = record.rounds_debited[at];
                }
            }
            None => {
                self.cumulative_losses.clone_from(&record.cumulative_losses);
                self.rounds_debited.clone_from(&record.rounds_debited);
            }
        }
    }

    /// Decode one checksum-verified payload whose frame carried `kind`.
    /// `base` is the record committed immediately before it in the same
    /// log image — what a delta frame's entries are applied to.
    fn decode(
        payload: &[u8],
        kind: FrameKind,
        base: Option<&EpochRecord>,
    ) -> Result<Self, &'static str> {
        let mut r = Reader { buf: payload };
        let epoch = r.u64()?;
        let batches_seen = r.u64()?;
        let loss = loss_from_tag(r.u8()?).ok_or("unknown loss tag")?;
        let policy = WalPolicy {
            per_round_epsilon: f64::from_bits(r.u64()?),
            per_round_delta: f64::from_bits(r.u64()?),
            budget_epsilon: f64::from_bits(r.u64()?),
            budget_delta: f64::from_bits(r.u64()?),
            stream_tag: r.u64()?,
        };
        let num_users = usize::try_from(r.u64()?).map_err(|_| "population overflows usize")?;
        let accepted_len = usize::try_from(r.u64()?).map_err(|_| "accepted overflows usize")?;
        if accepted_len > num_users {
            return Err("more accepted users than the population");
        }
        // Bound the claimed counts against the bytes actually present
        // BEFORE allocating: a crafted record claiming 2^61 users would
        // otherwise abort the read-only inspector with a capacity
        // overflow instead of erroring. Each accepted user costs 8
        // payload bytes; a full frame then spends 8 (loss bits) + 4
        // (debits) per population member, a delta frame at least its
        // changed-user count.
        let rest = match kind {
            FrameKind::Full(_) => num_users.checked_mul(12),
            FrameKind::Delta => Some(8),
        };
        let need = accepted_len
            .checked_mul(8)
            .zip(rest)
            .and_then(|(a, n)| a.checked_add(n))
            .ok_or("record sizes overflow")?;
        if r.buf.len() < need {
            return Err("record payload shorter than its claimed sizes");
        }
        let mut accepted_users = Vec::with_capacity(accepted_len);
        for _ in 0..accepted_len {
            let user = usize::try_from(r.u64()?).map_err(|_| "user id overflows usize")?;
            if user >= num_users {
                return Err("accepted user outside the population");
            }
            accepted_users.push(user);
        }
        let (cumulative_losses, rounds_debited) = match kind {
            FrameKind::Full(_) => {
                let mut cumulative_losses = Vec::with_capacity(num_users);
                for _ in 0..num_users {
                    cumulative_losses.push(f64::from_bits(r.u64()?));
                }
                let mut rounds_debited = Vec::with_capacity(num_users);
                for _ in 0..num_users {
                    rounds_debited.push(r.u32()?);
                }
                (cumulative_losses, rounds_debited)
            }
            FrameKind::Delta => {
                let base = base.ok_or("delta record with no record before it to apply to")?;
                if base.num_users() != num_users {
                    return Err("delta record against a base of another population");
                }
                let changed_len =
                    usize::try_from(r.u64()?).map_err(|_| "changed overflows usize")?;
                // Checked against the bytes present before the base is
                // copied; equality also rules trailing bytes out.
                if changed_len.checked_mul(DELTA_ENTRY_LEN) != Some(r.buf.len()) {
                    return Err("delta record's changed count disagrees with its payload");
                }
                let mut cumulative_losses = base.cumulative_losses.clone();
                let mut rounds_debited = base.rounds_debited.clone();
                let mut next_user = 0usize;
                for _ in 0..changed_len {
                    let user = r.u32()? as usize;
                    if user < next_user {
                        return Err("delta record's changed users not strictly ascending");
                    }
                    if user >= num_users {
                        return Err("changed user outside the population");
                    }
                    cumulative_losses[user] = f64::from_bits(r.u64()?);
                    rounds_debited[user] = r.u32()?;
                    next_user = user + 1;
                }
                (cumulative_losses, rounds_debited)
            }
        };
        if !r.buf.is_empty() {
            return Err("trailing bytes inside a record payload");
        }
        let kind = kind.record_kind();
        if kind == RecordKind::Snapshot && !accepted_users.is_empty() {
            // A snapshot's debits live in its ledger; a non-empty
            // accepted set would double-charge them on replay.
            return Err("snapshot record with a non-empty accepted set");
        }
        Ok(Self {
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
}

fn checksum(payload: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    for &b in payload {
        h.write_u8(b);
    }
    h.finish()
}

struct Reader<'a> {
    buf: &'a [u8],
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], &'static str> {
        if self.buf.len() < n {
            return Err("record payload shorter than its fields");
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, &'static str> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, &'static str> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, &'static str> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }
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
        if remaining.len() < FRAME_HEADER_LEN {
            break;
        }
        let payload_len = u32::from_le_bytes(remaining[..4].try_into().expect("4 bytes"));
        let len_check = u32::from_le_bytes(remaining[4..8].try_into().expect("4 bytes"));
        // The header was written before any payload byte (appends are
        // sequential), so a complete header with a failing self-check is
        // *corruption* of the length prefix — without this check a
        // flipped length bit would masquerade as a torn tail and
        // silently truncate every committed record after it. The mask
        // that passes doubles as the frame-kind tag (v1 epoch record,
        // v2 snapshot record or v3 delta).
        let Some(kind) = FrameKind::from_check(payload_len, len_check, known) else {
            return Err(WalError::Corrupt {
                offset: offset as u64,
                reason: "length prefix failed its self-check",
            });
        };
        let stored_sum = u64::from_le_bytes(remaining[8..16].try_into().expect("8 bytes"));
        let frame_len = FRAME_HEADER_LEN + payload_len as usize;
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
        match EpochRecord::decode(payload, kind, replay.records.last()) {
            Ok(record) => replay.records.push(record),
            Err(reason) => {
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
/// through: [`WalWriter`] (one sink, the single-segment layout) and the
/// segmented [`crate::store::SegmentStore`] (rotation + compaction)
/// both implement it, so the durability barrier in
/// [`crate::backend::EngineBackend`] is layout-agnostic.
pub trait RecordLog: fmt::Debug + Send {
    /// Durably append one epoch record. The record is committed iff
    /// this returns `Ok` — an error must leave the log recoverable to
    /// its pre-append state (the caller rolls its in-memory state back).
    fn append_record(&mut self, record: &EpochRecord) -> Result<(), WalError>;

    /// Flush everything committed so far to stable storage (a no-op for
    /// sinks that sync on every append) — called on orderly shutdown.
    fn sync(&mut self) -> Result<(), WalError> {
        Ok(())
    }
}

/// The appending half of the WAL: owns a sink, repairs its torn tail on
/// open, and frames every record.
#[derive(Debug)]
pub struct WalWriter {
    sink: Box<dyn WalSink>,
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
    /// Open a log for appending: load and replay the existing bytes,
    /// truncate any torn tail, and write the header if the log is fresh.
    /// Returns the writer plus the replay (what recovery feeds on).
    ///
    /// # Errors
    ///
    /// Propagates sink I/O failures and replay errors ([`WalError`]).
    pub fn open(mut sink: Box<dyn WalSink>) -> Result<(Self, Replay), WalError> {
        let bytes = sink.load()?;
        let replay = replay(&bytes)?;
        if replay.truncated_bytes > 0 {
            sink.truncate(replay.valid_len)?;
        }
        let mut committed_len = replay.valid_len;
        if committed_len == 0 {
            sink.append(&WAL_MAGIC)?;
            committed_len = WAL_MAGIC.len() as u64;
        }
        Ok((
            Self {
                sink,
                committed_len,
                dirty: false,
            },
            replay,
        ))
    }

    /// Drop everything past the last acknowledged commit, clearing the
    /// dirty flag on success.
    fn repair(&mut self) -> Result<(), WalError> {
        self.sink.truncate(self.committed_len)?;
        self.dirty = false;
        Ok(())
    }

    /// Append one epoch record (a single sink write, synced by the sink).
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
    /// Propagates sink I/O failures; the record is not committed if this
    /// errors.
    pub fn append(&mut self, record: &EpochRecord) -> Result<(), WalError> {
        if self.dirty {
            self.repair()?;
        }
        let frame = record.encode();
        match self.sink.append(&frame) {
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
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mem = MemWal::from_bytes(torn);
        let (mut writer, replayed) = WalWriter::open(Box::new(mem.clone())).unwrap();
        assert_eq!(replayed.records.len(), 1);
        assert_eq!(replayed.truncated_bytes, 5);
        writer.append(&record(1)).unwrap();
        let clean = replay(&mem.snapshot()).unwrap();
        assert_eq!(clean.records.len(), 2);
        assert_eq!(clean.truncated_bytes, 0);
    }

    #[test]
    fn retried_append_after_a_torn_failure_repairs_before_writing() {
        /// Fails exactly one append — persisting a fraction of the frame
        /// (a torn write) or all of it (a full write whose fsync
        /// failed). A transient fault, unlike [`FailingWal`]'s
        /// permanent crash.
        #[derive(Debug)]
        struct FlakyWal {
            inner: MemWal,
            fail_next: bool,
            /// Numerator over 2: 1 = write half the frame, 2 = all of it.
            persist_halves: usize,
        }
        impl WalSink for FlakyWal {
            fn load(&mut self) -> Result<Vec<u8>, WalError> {
                self.inner.load()
            }
            fn append(&mut self, bytes: &[u8]) -> Result<(), WalError> {
                if self.fail_next {
                    self.fail_next = false;
                    self.inner
                        .append(&bytes[..bytes.len() * self.persist_halves / 2])?;
                    return Err(WalError::Io {
                        op: "append",
                        message: "transient: no space left".to_string(),
                    });
                }
                self.inner.append(bytes)
            }
            fn truncate(&mut self, len: u64) -> Result<(), WalError> {
                self.inner.truncate(len)
            }
        }

        for persist_halves in [1usize, 2] {
            let mem = MemWal::new();
            let (mut writer, _) = WalWriter::open(Box::new(FlakyWal {
                inner: mem.clone(),
                fail_next: false,
                persist_halves,
            }))
            .unwrap();
            writer.append(&record(0)).unwrap();

            // Fail the next append (torn half-frame, or a complete frame
            // whose sync failed — the caller was told it did NOT commit).
            // The writer owns its sink, so model the fault with a second
            // writer over the same shared buffer.
            let (mut flaky_writer, _) = WalWriter::open(Box::new(FlakyWal {
                inner: mem.clone(),
                fail_next: true,
                persist_halves,
            }))
            .unwrap();
            assert!(flaky_writer.append(&record(1)).is_err());
            assert!(mem.snapshot().len() > WAL_MAGIC.len() + record(0).encode().len());

            // The retry must truncate back to the last acknowledged
            // commit first: without that, a torn prefix would make the
            // retried frame non-tail garbage (Corrupt), and a fully
            // persisted unacknowledged frame would commit the same epoch
            // twice (double-charging its debits on replay).
            flaky_writer.append(&record(1)).unwrap();
            let clean = replay(&mem.snapshot()).unwrap();
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
        let mem = MemWal::new();
        let mut failing = FailingWal::new(mem.clone(), WAL_MAGIC.len() as u64 + 10);
        failing.append(&WAL_MAGIC).unwrap();
        let frame = record(0).encode();
        assert!(failing.append(&frame).is_err());
        assert!(failing.crashed());
        // Exactly 10 bytes of the frame survived — a torn tail replay
        // truncates.
        assert_eq!(mem.snapshot().len(), WAL_MAGIC.len() + 10);
        let r = replay(&mem.snapshot()).unwrap();
        assert_eq!(r.records.len(), 0);
        assert_eq!(r.truncated_bytes, 10);
        // The dead process stays dead.
        assert!(failing.append(&frame).is_err());
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
            let sink = FileWal::open(&dir).unwrap();
            let (mut writer, replayed) = WalWriter::open(Box::new(sink)).unwrap();
            assert!(replayed.records.is_empty());
            writer.append(&record(0)).unwrap();
            writer.append(&record(1)).unwrap();
        }
        // Reopen from disk: both records committed; append a torn tail by
        // hand and confirm the next open repairs it.
        let mut sink = FileWal::open(&dir).unwrap();
        let bytes = sink.load().unwrap();
        let r = replay(&bytes).unwrap();
        assert_eq!(r.records.len(), 2);
        sink.append(&[0xde, 0xad]).unwrap();
        let (_, replayed) = WalWriter::open(Box::new(FileWal::open(&dir).unwrap())).unwrap();
        assert_eq!(replayed.records.len(), 2);
        assert_eq!(replayed.truncated_bytes, 2);
        assert_eq!(
            FileWal::open(&dir).unwrap().load().unwrap().len() as u64,
            replayed.valid_len
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
