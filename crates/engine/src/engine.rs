//! The sharded streaming aggregation engine.
//!
//! ```text
//!                  ┌───────────────┐ chunks of   ┌────────────────┐ ShardClaims
//! StampedReport ──▶│ router        │ ≤256, one   │ workers        │ (columnar, users
//! stream (caller)  │ stage by      │ bounded     │ deadline,      │  ascending)
//!                  │ user % S,     │──inbox per─▶│ dedup, copy    │──────────┐
//!                  │ flush on full │  worker     │ claims into    │          ▼
//!                  │ / epoch end   │ (back-      │ the shard's    │   ┌─────────────┐
//!                  └───────────────┘  pressure)  │ columnar arena │   │ merger:     │
//!                                                └───────┬────────┘   │ load_shards │
//!                                                        │ spent      │ + canonical │
//!                                                        └──chunks───▶│ StreamingCrh│
//!                                                          (to free)  └─────────────┘
//! ```
//!
//! One router (the calling thread) stages each report in a small buffer
//! for its shard and hands a **chunk** — `CHUNK_REPORTS` (256) reports of one
//! shard, fewer at an epoch boundary or the end of the stream — to the
//! inbox of the worker that owns the shard. Each worker owns a
//! contiguous run of shards and **blocks on one inbox** for all of them;
//! the shard id travels in the message. At each epoch boundary the
//! router flushes every staging buffer and then posts an end-of-epoch
//! marker to every inbox, so the marker is behind all of its reports;
//! every shard then emits its canonical claims and the merger folds them
//! — users in ascending id, independent of sharding — into one global
//! [`StreamingCrh`]. Merged truths are therefore **bit-identical for any
//! shard count, worker count and queue capacity**, which
//! `crates/engine/tests/proptests.rs` and `chunked_pipeline.rs` assert.
//!
//! What is paid per chunk, not per report: the channel's lock and
//! wake-up, two clock reads on each side, the latency sample. What is
//! paid per report: a modulo, a move into the staging buffer, the
//! shard's deadline and first-wins checks, and one copy of its claims
//! into the shard's arena ([`crate::shard`]).
//!
//! # Metrics
//!
//! [`EngineMetrics`] keeps its meaning under chunking.
//! `ingest_latency` has one sample per submitted report: every report of
//! a chunk records the chunk's latency, measured from when the chunk's
//! *first* report was staged to the end of the chunk's ingest — an upper
//! bound for the others. `stage.route` is the time the router spent
//! enqueueing (blocked time included), `stage.filter` the workers' time
//! ingesting chunks and closing epochs, `stage.merge` the merger's time
//! in the cross-shard merge. `queue_capacity` is in reports: an inbox
//! holds `queue_capacity / chunk` chunks, so the reports queued for one
//! worker never exceed it, `max_queue_depth` (sampled at every send,
//! each queued message counted as a full chunk) never exceeds it either,
//! and a full inbox blocks the router and counts one
//! `backpressure_stalls`.
//!
//! # What an engine keeps between runs
//!
//! Everything whose size follows the population is built on an
//! [`Engine`]'s first run and reused by every later one — a campaign
//! hosts one engine, so this is scratch per campaign, not per round:
//! the [`ShardState`]s (12 bytes per user: the slot → arena-span index)
//! and the merger's [`ColumnarBatch`] (16 bytes per user of
//! generation-stamped slot index), plus the columns of the largest round
//! seen so far, twice — once spread over the shard arenas, once in the
//! merge arena — at 16 bytes per claim each, and 16 more per reporting
//! user in the merge arena.
//! A 1 M-user campaign at 2 % participation therefore keeps ≈28 MB
//! resident and re-zeroes none of it: every index resets by generation
//! stamp or in time proportional to the round's reports. A run takes the
//! scratch out of the engine and puts it back when it succeeds; a second
//! run racing it on the same engine (or a clone) builds its own.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, unbounded, Receiver, Sender, TrySendError};

use dptd_obs::trace::{codes as trace_codes, TraceScope};
use dptd_obs::Histogram;
use dptd_protocol::message::StampedReport;
use dptd_truth::columnar::ColumnarBatch;
use dptd_truth::streaming::{ShardClaims, StreamingCrh};
use dptd_truth::Loss;

use crate::metrics::{EngineMetrics, StageTimings};
use crate::shard::{ShardEpochStats, ShardState};
use crate::EngineError;

/// Engine sizing and policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Fixed population size (user ids are `0..num_users`).
    pub num_users: usize,
    /// Objects per epoch (every epoch is a fresh wave of this many).
    pub num_objects: usize,
    /// Number of ingestion shards (`user % num_shards` routing).
    pub num_shards: usize,
    /// Worker threads, each draining one inbox for the shards it owns;
    /// `0` means `min(num_shards, available parallelism)`.
    pub workers: usize,
    /// Most reports that may be queued for one worker; a full inbox
    /// pushes back on the router.
    pub queue_capacity: usize,
    /// Reports whose virtual send time exceeds this are dropped as late.
    pub epoch_deadline_us: u64,
    /// Loss function of the global CRH estimator.
    pub loss: Loss,
    /// Threads for the canonical cross-shard merge's reduction tree;
    /// `0` means auto. The merged truths are **bit-identical for every
    /// value** — the tree's shape is a pure function of the population
    /// size, so workers only change who computes which leaf.
    pub merge_workers: usize,
}

impl Default for EngineConfig {
    /// 1 000 users, 8 objects, 4 shards, auto workers (drain and merge),
    /// 1 024-deep queues, 1 s deadline, squared loss.
    fn default() -> Self {
        Self {
            num_users: 1_000,
            num_objects: 8,
            num_shards: 4,
            workers: 0,
            queue_capacity: 1_024,
            epoch_deadline_us: 1_000_000,
            loss: Loss::Squared,
            merge_workers: 0,
        }
    }
}

impl EngineConfig {
    fn validate(&self) -> Result<(), EngineError> {
        let checks = [
            ("num_users", self.num_users as f64, self.num_users > 0),
            ("num_objects", self.num_objects as f64, self.num_objects > 0),
            (
                "num_shards",
                self.num_shards as f64,
                self.num_shards > 0 && self.num_shards <= self.num_users,
            ),
            (
                "queue_capacity",
                self.queue_capacity as f64,
                self.queue_capacity > 0,
            ),
            (
                "epoch_deadline_us",
                self.epoch_deadline_us as f64,
                self.epoch_deadline_us > 0,
            ),
        ];
        for (name, value, ok) in checks {
            if !ok {
                return Err(EngineError::InvalidParameter {
                    name,
                    value,
                    constraint: "must be positive (and num_shards <= num_users)",
                });
            }
        }
        Ok(())
    }
}

/// Result of one merged epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochOutcome {
    /// The epoch id as stamped on its reports.
    pub epoch: u64,
    /// Merged truths, one per object — bit-identical to the single-shard
    /// [`StreamingCrh`] reference.
    pub truths: Vec<f64>,
    /// Reports aggregated this epoch.
    pub accepted: usize,
    /// Users whose report was aggregated this epoch, ascending —
    /// independent of sharding. Consumed by the campaign layer's per-user
    /// privacy accounting (only aggregated reports are debited).
    pub accepted_users: Vec<usize>,
    /// Duplicates discarded this epoch.
    pub duplicates_discarded: usize,
    /// Late reports dropped this epoch.
    pub late_dropped: u64,
    /// Mean absolute gap between the shards' local views — each shard's
    /// **unweighted per-object mean** of its accepted claims — and the
    /// merged truths, over shards whose users covered every object
    /// (`None` if no shard had full local coverage). A shard whose users
    /// disagree with the population shows up here.
    pub shard_drift: Option<f64>,
}

/// Everything a finished run reports.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineReport {
    /// Per-epoch outcomes in epoch order.
    pub epochs: Vec<EpochOutcome>,
    /// Final per-user weights of the global streaming estimator.
    pub final_weights: Vec<f64>,
    /// Counters, latency and throughput.
    pub metrics: EngineMetrics,
}

/// Reports per router → worker hand-off (fewer only when
/// `queue_capacity` is smaller, or at a flush). A constant, not a knob:
/// at a few hundred reports the channel's lock, wake-up and clock reads
/// are already noise beside the ingest work they bracket, while a chunk
/// (≈12 KB of report headers) still fits a core's L1 and an epoch
/// boundary never has more than `num_shards` partial chunks to flush.
const CHUNK_REPORTS: usize = 256;

enum ShardMsg {
    /// Consecutive reports of one shard, in stream order.
    Chunk {
        shard: usize,
        reports: Vec<StampedReport>,
        /// When the chunk's first report was staged.
        staged_at: Instant,
    },
    /// Every chunk of this epoch is ahead of this marker in the inbox:
    /// close it on each shard the worker owns.
    EpochEnd(u64),
}

struct EpochClaims {
    shard: usize,
    epoch: u64,
    claims: ShardClaims,
    stats: ShardEpochStats,
}

enum MergeMsg {
    Epoch(EpochClaims),
    /// A chunk whose claims a shard has copied out, sent here only to be
    /// dropped. The reports' claim lists were allocated by whoever built
    /// the stream, so freeing them takes that thread's allocator arena
    /// lock; two workers doing it at once convoy on that lock (measured:
    /// 0.9 µs per free instead of tens of ns, the whole B − A gap again),
    /// while the merger — idle until the epoch closes — frees them one
    /// thread at a time for nothing.
    Spent(Vec<StampedReport>),
    WorkerDone {
        latency: Histogram,
        filter_busy: Duration,
    },
}

/// Everything a run needs whose size follows the population: the shard
/// states and the merger's columnar arena. Built on an engine's first
/// run and kept by it, so a campaign pays for them once, not per round.
#[derive(Debug)]
struct Scratch {
    shards: Vec<ShardState>,
    arena: ColumnarBatch,
}

impl Scratch {
    fn new(cfg: &EngineConfig) -> Self {
        Self {
            shards: (0..cfg.num_shards)
                .map(|id| {
                    ShardState::new(
                        id,
                        cfg.num_shards,
                        cfg.num_users,
                        cfg.num_objects,
                        cfg.epoch_deadline_us,
                        cfg.loss,
                    )
                })
                .collect(),
            arena: ColumnarBatch::new(cfg.num_users, cfg.num_objects),
        }
    }
}

/// The sharded streaming aggregation engine. See the module docs for the
/// dataflow and for what an engine keeps resident between runs.
pub struct Engine {
    config: EngineConfig,
    /// Parked between runs; `None` before the first run and while a run
    /// has it.
    scratch: Mutex<Option<Scratch>>,
}

impl Clone for Engine {
    /// An engine with the same configuration and no scratch of its own
    /// yet.
    fn clone(&self) -> Self {
        Self {
            config: self.config,
            scratch: Mutex::new(None),
        }
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl Engine {
    /// Create an engine from a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidParameter`] for non-positive sizes or
    /// more shards than users.
    pub fn new(config: EngineConfig) -> Result<Self, EngineError> {
        config.validate()?;
        Ok(Self {
            config,
            scratch: Mutex::new(None),
        })
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Drive a stream of stamped reports through the engine and merge
    /// every epoch.
    ///
    /// The stream must be ordered by epoch (any order within an epoch);
    /// reports for an epoch that has already been closed are counted as
    /// `out_of_order_dropped`. The calling thread acts as the router and
    /// blocks until every queue has drained and every epoch has merged.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidUser`] for a report outside the
    /// population and propagates aggregation failures (e.g. an epoch in
    /// which some object received no surviving report).
    pub fn run<I>(&self, stream: I) -> Result<EngineReport, EngineError>
    where
        I: IntoIterator<Item = StampedReport>,
    {
        let mut crh = StreamingCrh::new(self.config.num_users, self.config.loss)?;
        self.run_on(&mut crh, stream)
    }

    /// Like [`Engine::run`], but resume from a carried-over global
    /// streaming estimator (weights and cumulative losses) instead of a
    /// fresh one, and hand the updated estimator back.
    ///
    /// This is the multi-round campaign entry point: each campaign round
    /// is one engine epoch, and the estimator carried between calls is
    /// what makes user weights sharpen across rounds exactly as a single
    /// continuous [`Engine::run`] over the concatenated stream would.
    ///
    /// # Errors
    ///
    /// Everything [`Engine::run`] returns, plus
    /// [`EngineError::InvalidParameter`] when `state` does not match the
    /// engine's population size or loss function. On error the estimator
    /// is not returned. The epoch whose merge failed never mutated it
    /// ([`StreamingCrh::ingest_columnar_with_workers`] commits only after
    /// the whole pass succeeds), but earlier epochs of the same stream
    /// may have merged first — callers that need to resume after a
    /// failure run one epoch per call, as the campaign backend does.
    pub fn run_with_state<I>(
        &self,
        mut state: StreamingCrh,
        stream: I,
    ) -> Result<(EngineReport, StreamingCrh), EngineError>
    where
        I: IntoIterator<Item = StampedReport>,
    {
        let report = self.run_on(&mut state, stream)?;
        Ok((report, state))
    }

    /// [`Engine::run_with_state`] over a borrowed estimator, which
    /// therefore survives a failed run: untouched if the stream was a
    /// single epoch. The campaign backend's entry point.
    pub(crate) fn run_on<I>(
        &self,
        crh: &mut StreamingCrh,
        stream: I,
    ) -> Result<EngineReport, EngineError>
    where
        I: IntoIterator<Item = StampedReport>,
    {
        if crh.num_users() != self.config.num_users {
            return Err(EngineError::InvalidParameter {
                name: "state.num_users",
                value: crh.num_users() as f64,
                constraint: "carried-over state must match the engine population",
            });
        }
        if crh.loss() != self.config.loss {
            return Err(EngineError::InvalidParameter {
                name: "state.loss",
                value: f64::NAN,
                constraint: "carried-over state must use the engine's loss function",
            });
        }
        // Take the scratch for the length of the run. A second run racing
        // this one (on `&self` from another thread) finds none and builds
        // its own; whichever finishes last leaves its scratch parked.
        let mut scratch = self
            .park()
            .take()
            .unwrap_or_else(|| Scratch::new(&self.config));
        let result = self.pipeline(&mut scratch, crh, stream);
        // Every shard closed every epoch it opened only on success; a
        // run that stopped part-way may have left reports half ingested,
        // and that scratch is dropped rather than parked.
        if result.is_ok() {
            *self.park() = Some(scratch);
        }
        result
    }

    fn park(&self) -> MutexGuard<'_, Option<Scratch>> {
        // The lock only ever guards a take or a store, so a poisoned
        // guard still holds a valid value.
        self.scratch.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn pipeline<I>(
        &self,
        scratch: &mut Scratch,
        crh: &mut StreamingCrh,
        stream: I,
    ) -> Result<EngineReport, EngineError>
    where
        I: IntoIterator<Item = StampedReport>,
    {
        let cfg = self.config;
        let started = Instant::now();

        let num_shards = cfg.num_shards;
        let workers = if cfg.workers == 0 {
            thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            cfg.workers
        }
        .min(num_shards);
        // An inbox holds whole chunks, sized so that the reports queued
        // for one worker never exceed `queue_capacity`.
        let chunk_len = CHUNK_REPORTS.min(cfg.queue_capacity);
        let inbox_chunks = cfg.queue_capacity / chunk_len;

        let (merge_tx, merge_rx) = unbounded::<MergeMsg>();
        let Scratch { shards, arena } = scratch;

        // Spans at stage granularity (one per thread per run): a few
        // atomic stores per run, nothing per report, so tracing cannot
        // perturb the data plane.
        let run_span = TraceScope::begin(trace_codes::ROUND, num_shards as u64);
        // Thread-locals don't cross `scope.spawn`: capture the round
        // span's context here and re-enter it inside each stage closure
        // so MERGE/FILTER spans parent under ROUND even though they run
        // on other threads. `None` when tracing is off — zero work.
        let ambient = dptd_obs::trace::current();
        let cfg_ref = &cfg;
        let merger_crh = &mut *crh;
        let (routed, router_metrics, merger_out) = thread::scope(|scope| {
            // Merger: folds per-shard epoch claims into the global CRH.
            let merger = scope.spawn(move || {
                let _ctx = ambient.map(dptd_obs::trace::enter);
                let _span = TraceScope::begin(trace_codes::MERGE, num_shards as u64);
                merge_loop(cfg_ref, merger_crh, arena, merge_rx)
            });

            // Workers: each owns a contiguous, balanced run of shards and
            // blocks on one inbox for all of them.
            let mut inboxes: Vec<Sender<ShardMsg>> = Vec::with_capacity(workers);
            let mut owner: Vec<usize> = Vec::with_capacity(num_shards);
            let mut rest = shards.as_mut_slice();
            for worker in 0..workers {
                let owned = num_shards / workers + usize::from(worker < num_shards % workers);
                let first = owner.len();
                let (mine, tail) = rest.split_at_mut(owned);
                rest = tail;
                owner.resize(first + owned, worker);
                let (tx, rx) = bounded::<ShardMsg>(inbox_chunks);
                inboxes.push(tx);
                let merge_tx = merge_tx.clone();
                scope.spawn(move || {
                    let _ctx = ambient.map(dptd_obs::trace::enter);
                    let _span = TraceScope::begin(trace_codes::FILTER, owned as u64);
                    drain_inbox(mine, first, rx, merge_tx);
                });
            }
            drop(merge_tx); // merger exits once the last worker's clone drops

            // Router (this thread): stage each report for its shard.
            let route_span = TraceScope::begin(trace_codes::ROUTE, 0);
            let mut router = Router {
                inboxes,
                owner,
                staging: (0..num_shards)
                    .map(|_| Staged {
                        reports: Vec::with_capacity(chunk_len),
                        since: started,
                    })
                    .collect(),
                chunk_len,
                metrics: RouterMetrics::default(),
            };
            let routed = router.route(cfg.num_users, stream);
            drop(route_span);
            let metrics = std::mem::take(&mut router.metrics);
            drop(router); // closes the inboxes: workers drain and exit

            (
                routed,
                metrics,
                merger.join().expect("merger thread panicked"),
            )
        });
        drop(run_span);

        routed?;
        let MergeOut {
            outcomes: epochs,
            latency,
            filter_busy,
            merge_busy,
            error: merge_err,
        } = merger_out;
        if let Some(e) = merge_err {
            return Err(e);
        }

        let mut metrics = EngineMetrics {
            reports_submitted: router_metrics.submitted,
            out_of_order_dropped: router_metrics.out_of_order,
            backpressure_stalls: router_metrics.backpressure,
            max_queue_depth: router_metrics.max_queue_depth,
            epochs_merged: epochs.len() as u64,
            ingest_latency: latency,
            stage: StageTimings {
                route: router_metrics.route_busy,
                filter: filter_busy,
                merge: merge_busy,
            },
            elapsed: started.elapsed(),
            ..EngineMetrics::default()
        };
        for e in &epochs {
            metrics.reports_accepted += e.accepted as u64;
            metrics.duplicates_discarded += e.duplicates_discarded as u64;
            metrics.late_dropped += e.late_dropped;
        }

        Ok(EngineReport {
            epochs,
            final_weights: crh.weights().to_vec(),
            metrics,
        })
    }
}

#[derive(Default)]
struct RouterMetrics {
    submitted: u64,
    out_of_order: u64,
    backpressure: u64,
    max_queue_depth: usize,
    route_busy: Duration,
}

/// One shard's reports waiting to fill a chunk.
struct Staged {
    reports: Vec<StampedReport>,
    /// When the oldest report in `reports` was staged.
    since: Instant,
}

/// The calling thread's half of the pipeline: stages reports per shard
/// and hands full chunks to the owning worker's inbox.
struct Router {
    inboxes: Vec<Sender<ShardMsg>>,
    /// Shard id → index of the worker (and inbox) that owns it.
    owner: Vec<usize>,
    staging: Vec<Staged>,
    chunk_len: usize,
    metrics: RouterMetrics,
}

impl Router {
    fn route<I>(&mut self, num_users: usize, stream: I) -> Result<(), EngineError>
    where
        I: IntoIterator<Item = StampedReport>,
    {
        let num_shards = self.staging.len();
        let mut open_epoch: Option<u64> = None;
        for stamped in stream {
            self.metrics.submitted += 1;
            match open_epoch {
                None => open_epoch = Some(stamped.epoch),
                Some(open) if stamped.epoch > open => {
                    self.end_epoch(open)?;
                    open_epoch = Some(stamped.epoch);
                }
                Some(open) if stamped.epoch < open => {
                    self.metrics.out_of_order += 1;
                    continue;
                }
                Some(_) => {}
            }
            let user = stamped.report.user;
            if user >= num_users {
                return Err(EngineError::InvalidUser { user, num_users });
            }
            let shard = user % num_shards;
            let staged = &mut self.staging[shard];
            if staged.reports.is_empty() {
                staged.since = Instant::now();
            }
            staged.reports.push(stamped);
            if staged.reports.len() == self.chunk_len {
                self.flush(shard)?;
            }
        }
        match open_epoch {
            Some(open) => self.end_epoch(open),
            None => Ok(()),
        }
    }

    /// Flush every partial chunk, then tell every worker the epoch is
    /// over — in that order, so the marker is behind all of its reports.
    fn end_epoch(&mut self, epoch: u64) -> Result<(), EngineError> {
        for shard in 0..self.staging.len() {
            self.flush(shard)?;
        }
        for worker in 0..self.inboxes.len() {
            self.send(worker, ShardMsg::EpochEnd(epoch))?;
        }
        Ok(())
    }

    fn flush(&mut self, shard: usize) -> Result<(), EngineError> {
        let staged = &mut self.staging[shard];
        if staged.reports.is_empty() {
            return Ok(());
        }
        let chunk = ShardMsg::Chunk {
            shard,
            reports: std::mem::replace(&mut staged.reports, Vec::with_capacity(self.chunk_len)),
            staged_at: staged.since,
        };
        self.send(self.owner[shard], chunk)
    }

    /// Enqueue on a worker's inbox, blocking while it is full. The time
    /// spent here — blocked time included — is the route stage's busy
    /// time, clocked once per message.
    fn send(&mut self, worker: usize, msg: ShardMsg) -> Result<(), EngineError> {
        let inbox = &self.inboxes[worker];
        let start = Instant::now();
        let sent = match inbox.try_send(msg) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(msg)) => {
                // Backpressure: block until the drain catches up.
                self.metrics.backpressure += 1;
                inbox.send(msg).map_err(|_| EngineError::Disconnected)
            }
            Err(TrySendError::Disconnected(_)) => Err(EngineError::Disconnected),
        };
        // Depth in reports, every queued message counted as a full chunk
        // — an upper bound that `queue_capacity` bounds in turn.
        let depth = inbox.len() * self.chunk_len;
        self.metrics.max_queue_depth = self.metrics.max_queue_depth.max(depth);
        self.metrics.route_busy += start.elapsed();
        sent
    }
}

/// One worker: block on the inbox, ingest chunks into the owned shards
/// (`shards[i]` is shard `first + i`), close epochs on the marker.
fn drain_inbox(
    shards: &mut [ShardState],
    first: usize,
    inbox: Receiver<ShardMsg>,
    merge_tx: Sender<MergeMsg>,
) {
    let mut latency = Histogram::new();
    let mut filter_busy = Duration::ZERO;
    while let Ok(msg) = inbox.recv() {
        let start = Instant::now();
        match msg {
            ShardMsg::Chunk {
                shard,
                reports,
                staged_at,
            } => {
                let count = reports.len() as u64;
                let state = &mut shards[shard - first];
                for stamped in &reports {
                    state.ingest_borrowed(stamped);
                }
                let done = Instant::now();
                let _ = merge_tx.send(MergeMsg::Spent(reports));
                filter_busy += done - start;
                // One clock pair per chunk: every report of it is given
                // the wait of the chunk's first, an upper bound.
                latency.record_many(done - staged_at, count);
            }
            ShardMsg::EpochEnd(epoch) => {
                for (i, state) in shards.iter_mut().enumerate() {
                    let (claims, stats) = state.finish_epoch();
                    let _ = merge_tx.send(MergeMsg::Epoch(EpochClaims {
                        shard: first + i,
                        epoch,
                        claims,
                        stats,
                    }));
                }
                filter_busy += start.elapsed();
            }
        }
    }
    let _ = merge_tx.send(MergeMsg::WorkerDone {
        latency,
        filter_busy,
    });
}

struct MergeOut {
    outcomes: Vec<EpochOutcome>,
    latency: Histogram,
    filter_busy: Duration,
    merge_busy: Duration,
    error: Option<EngineError>,
}

/// Collect per-shard epoch claims; when all shards reported an epoch, run
/// the canonical cross-shard merge through the global streaming CRH
/// (carried over from the caller, so campaigns resume mid-stream) in the
/// engine's columnar arena.
fn merge_loop(
    cfg: &EngineConfig,
    crh: &mut StreamingCrh,
    arena: &mut ColumnarBatch,
    rx: Receiver<MergeMsg>,
) -> MergeOut {
    let mut pending: BTreeMap<u64, Vec<EpochClaims>> = BTreeMap::new();
    let mut outcomes: Vec<EpochOutcome> = Vec::new();
    let mut latency = Histogram::new();
    let mut filter_busy = Duration::ZERO;
    let mut merge_busy = Duration::ZERO;
    let mut error: Option<EngineError> = None;

    while let Ok(msg) = rx.recv() {
        match msg {
            MergeMsg::WorkerDone {
                latency: l,
                filter_busy: f,
            } => {
                latency.merge(&l);
                filter_busy += f;
            }
            MergeMsg::Spent(reports) => drop(reports),
            MergeMsg::Epoch(claims) => {
                if error.is_some() {
                    continue; // drain without merging after a failure
                }
                let epoch = claims.epoch;
                let bucket = pending.entry(epoch).or_default();
                bucket.push(claims);
                if bucket.len() < cfg.num_shards {
                    continue;
                }
                let batch = pending.remove(&epoch).expect("bucket exists");
                let start = Instant::now();
                match merge_epoch(cfg, crh, arena, epoch, batch) {
                    Ok(outcome) => outcomes.push(outcome),
                    Err(e) => error = Some(e),
                }
                merge_busy += start.elapsed();
            }
        }
    }

    MergeOut {
        outcomes,
        latency,
        filter_busy,
        merge_busy,
        error,
    }
}

fn merge_epoch(
    cfg: &EngineConfig,
    crh: &mut StreamingCrh,
    arena: &mut ColumnarBatch,
    epoch: u64,
    batch: Vec<EpochClaims>,
) -> Result<EpochOutcome, EngineError> {
    debug_assert!(
        {
            let mut ids: Vec<usize> = batch.iter().map(|c| c.shard).collect();
            ids.sort_unstable();
            ids.windows(2).all(|w| w[0] != w[1])
        },
        "a shard reported the same epoch twice"
    );
    let (shard_claims, stats): (Vec<ShardClaims>, Vec<ShardEpochStats>) =
        batch.into_iter().map(|c| (c.claims, c.stats)).unzip();
    arena.load_shards(&shard_claims)?;
    // The canonical batch stores users ascending, so the accepted set
    // falls out of the merge without a separate sort.
    let accepted_users: Vec<usize> = arena.users().to_vec();
    let truths = crh.ingest_columnar_with_workers(arena, cfg.merge_workers)?;

    let mut accepted = 0usize;
    let mut duplicates = 0usize;
    let mut late = 0u64;
    let mut drift_sum = 0.0;
    let mut drift_n = 0usize;
    for s in &stats {
        accepted += s.accepted;
        duplicates += s.duplicates_discarded;
        late += s.late_dropped;
        if let Some(local) = &s.local_truths {
            let gap: f64 = local
                .iter()
                .zip(&truths)
                .map(|(l, t)| (l - t).abs())
                .sum::<f64>()
                / truths.len().max(1) as f64;
            drift_sum += gap;
            drift_n += 1;
        }
    }

    Ok(EpochOutcome {
        epoch,
        truths,
        accepted,
        accepted_users,
        duplicates_discarded: duplicates,
        late_dropped: late,
        shard_drift: (drift_n > 0).then(|| drift_sum / drift_n as f64),
    })
}
