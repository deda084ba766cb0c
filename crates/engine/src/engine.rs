//! The sharded streaming aggregation engine.
//!
//! ```text
//!                    ┌────────────┐  bounded   ┌──────────┐ ShardClaims
//!  StampedReport ───▶│ router     │──queues───▶│ workers  │──────────┐
//!  stream (caller)   │ user % S   │  (back-    │ dedup,   │          ▼
//!                    └────────────┘  pressure) │ deadline,│   ┌────────────┐
//!                                              │ local CRH│   │ merger:    │
//!                                              └──────────┘   │ canonical  │
//!                                                             │ StreamingCrh│
//!                                                             └────────────┘
//! ```
//!
//! One router (the calling thread) hashes each report to a shard queue; a
//! capped worker pool drains the queues; at each epoch boundary every
//! shard emits its canonical claims and the merger folds them — users in
//! ascending id, independent of sharding — into one global
//! [`StreamingCrh`]. Merged truths are therefore **bit-identical for any
//! shard count and any worker count**, which
//! `crates/engine/tests/proptests.rs` asserts for shard counts 1/4/16.

use std::collections::BTreeMap;
use std::thread;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, unbounded, Receiver, Sender, TrySendError};

use dptd_obs::trace::{codes as trace_codes, TraceScope};
use dptd_obs::Histogram;
use dptd_protocol::message::StampedReport;
use dptd_protocol::pool::WorkerPool;
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
    /// Worker threads draining shard queues; `0` means
    /// `min(num_shards, available parallelism)`.
    pub workers: usize,
    /// Capacity of each shard's bounded queue; a full queue pushes back on
    /// the router.
    pub queue_capacity: usize,
    /// Reports whose virtual send time exceeds this are dropped as late.
    pub epoch_deadline_us: u64,
    /// Loss function for the global (and per-shard) CRH estimators.
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
    /// Mean absolute gap between the shards' local incremental estimates
    /// and the merged truths, over shards whose users covered every object
    /// (`None` if no shard had full local coverage).
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

enum ShardMsg {
    Report(StampedReport, Instant),
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
    ShardDone {
        latency: Histogram,
        filter_busy: Duration,
    },
}

/// The sharded streaming aggregation engine. See the module docs for the
/// dataflow.
#[derive(Debug, Clone)]
pub struct Engine {
    config: EngineConfig,
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
        Ok(Self { config })
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
        let crh = StreamingCrh::new(self.config.num_users, self.config.loss)?;
        self.run_with_state(crh, stream).map(|(report, _)| report)
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
    /// ([`StreamingCrh::ingest`] validates before touching any state),
    /// but earlier epochs of the same stream may have merged first —
    /// callers that need to resume after a failure should clone the
    /// estimator per epoch, as the campaign backend does.
    pub fn run_with_state<I>(
        &self,
        state: StreamingCrh,
        stream: I,
    ) -> Result<(EngineReport, StreamingCrh), EngineError>
    where
        I: IntoIterator<Item = StampedReport>,
    {
        if state.num_users() != self.config.num_users {
            return Err(EngineError::InvalidParameter {
                name: "state.num_users",
                value: state.num_users() as f64,
                constraint: "carried-over state must match the engine population",
            });
        }
        if state.loss() != self.config.loss {
            return Err(EngineError::InvalidParameter {
                name: "state.loss",
                value: f64::NAN,
                constraint: "carried-over state must use the engine's loss function",
            });
        }
        let cfg = self.config;
        let started = Instant::now();

        let num_shards = cfg.num_shards;
        let workers = if cfg.workers == 0 {
            WorkerPool::default().workers().min(num_shards)
        } else {
            cfg.workers.min(num_shards)
        };
        let pool = WorkerPool::new(workers);

        let mut txs: Vec<Sender<ShardMsg>> = Vec::with_capacity(num_shards);
        // Receivers are parked in mutexed slots so each queue-drain worker
        // can take exactly its own (run_partitioned hands every shard id
        // to one worker).
        let mut rx_slots: Vec<std::sync::Mutex<Option<Receiver<ShardMsg>>>> =
            Vec::with_capacity(num_shards);
        for _ in 0..num_shards {
            let (tx, rx) = bounded::<ShardMsg>(cfg.queue_capacity);
            txs.push(tx);
            rx_slots.push(std::sync::Mutex::new(Some(rx)));
        }
        let (merge_tx, merge_rx) = unbounded::<MergeMsg>();
        let worker_merge_tx = merge_tx.clone();

        let mut router_metrics = RouterMetrics::default();
        let mut router_err: Option<EngineError> = None;

        let rx_slots_ref = &rx_slots;
        let cfg_ref = &cfg;
        // Spans at stage granularity (one per thread per run): a few
        // atomic stores per run, nothing per report, so tracing cannot
        // perturb the data plane.
        let run_span = TraceScope::begin(trace_codes::ROUND, num_shards as u64);
        // Thread-locals don't cross `scope.spawn`: capture the round
        // span's context here and re-enter it inside each stage closure
        // so MERGE/FILTER spans parent under ROUND even though they run
        // on other threads. `None` when tracing is off — zero work.
        let ambient = dptd_obs::trace::current();
        let merger_out = thread::scope(|scope| {
            // Merger: folds per-shard epoch claims into the global CRH.
            let merger = scope.spawn(move || {
                let _ctx = ambient.map(dptd_obs::trace::enter);
                let _span = TraceScope::begin(trace_codes::MERGE, num_shards as u64);
                merge_loop(cfg_ref, state, num_shards, merge_rx)
            });

            // Workers: each drains a contiguous set of shard queues.
            scope.spawn(move || {
                let worker_merge_tx = worker_merge_tx;
                pool.run_partitioned(num_shards, |shard_ids| {
                    let _ctx = ambient.map(dptd_obs::trace::enter);
                    let _span = TraceScope::begin(trace_codes::FILTER, shard_ids.len() as u64);
                    let my_shards: Vec<(usize, Receiver<ShardMsg>)> = shard_ids
                        .iter()
                        .map(|&s| {
                            let rx = rx_slots_ref[s]
                                .lock()
                                .expect("rx slot lock")
                                .take()
                                .expect("each shard receiver is taken once");
                            (s, rx)
                        })
                        .collect();
                    drain_shards(cfg_ref, my_shards, worker_merge_tx.clone());
                });
            });

            // Router (this thread): hash each report to its shard queue.
            let route_span = TraceScope::begin(trace_codes::ROUTE, 0);
            let mut open_epoch: Option<u64> = None;
            for stamped in stream {
                router_metrics.submitted += 1;

                match open_epoch {
                    None => open_epoch = Some(stamped.epoch),
                    Some(open) if stamped.epoch > open => {
                        for tx in &txs {
                            if tx.send(ShardMsg::EpochEnd(open)).is_err() {
                                router_err = Some(EngineError::Disconnected);
                            }
                        }
                        open_epoch = Some(stamped.epoch);
                    }
                    Some(open) if stamped.epoch < open => {
                        router_metrics.out_of_order += 1;
                        continue;
                    }
                    Some(_) => {}
                }
                if router_err.is_some() {
                    break;
                }

                let user = stamped.report.user;
                if user >= cfg.num_users {
                    router_err = Some(EngineError::InvalidUser {
                        user,
                        num_users: cfg.num_users,
                    });
                    break;
                }
                let shard = user % num_shards;

                // Sample queue depth cheaply (every 64th report).
                if router_metrics.submitted & 63 == 0 {
                    router_metrics.max_queue_depth =
                        router_metrics.max_queue_depth.max(txs[shard].len());
                }

                let enqueued = Instant::now();
                let msg = ShardMsg::Report(stamped, enqueued);
                match txs[shard].try_send(msg) {
                    Ok(()) => {}
                    Err(TrySendError::Full(msg)) => {
                        // Backpressure: block until the drain catches up.
                        router_metrics.backpressure += 1;
                        router_metrics.max_queue_depth =
                            router_metrics.max_queue_depth.max(cfg.queue_capacity);
                        if txs[shard].send(msg).is_err() {
                            router_err = Some(EngineError::Disconnected);
                            break;
                        }
                    }
                    Err(TrySendError::Disconnected(_)) => {
                        router_err = Some(EngineError::Disconnected);
                        break;
                    }
                }
                router_metrics.route_busy += enqueued.elapsed();
            }
            if let Some(open) = open_epoch {
                if router_err.is_none() {
                    for tx in &txs {
                        let _ = tx.send(ShardMsg::EpochEnd(open));
                    }
                }
            }
            drop(route_span);
            drop(txs); // workers drain and exit
            drop(merge_tx); // merger exits once the last worker clone drops

            merger.join().expect("merger thread panicked")
        });
        drop(run_span);

        if let Some(e) = router_err {
            return Err(e);
        }
        let MergeOut {
            outcomes: epochs,
            crh,
            latency,
            filter_busy,
            merge_busy,
            error: merge_err,
        } = merger_out;
        if let Some(e) = merge_err {
            return Err(e);
        }
        let final_weights = crh.weights().to_vec();

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

        Ok((
            EngineReport {
                epochs,
                final_weights,
                metrics,
            },
            crh,
        ))
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

/// Drain loop for one worker owning `shards` (id, receiver) pairs.
fn drain_shards(
    cfg: &EngineConfig,
    shards: Vec<(usize, Receiver<ShardMsg>)>,
    merge_tx: Sender<MergeMsg>,
) {
    let mut states: Vec<ShardState> = shards
        .iter()
        .map(|&(id, _)| {
            ShardState::new(
                id,
                cfg.num_shards,
                cfg.num_users,
                cfg.num_objects,
                cfg.epoch_deadline_us,
                cfg.loss,
            )
        })
        .collect();
    let mut latency = Histogram::new();
    let mut filter_busy = Duration::ZERO;
    let mut open: Vec<bool> = vec![true; shards.len()];

    // Fast path: a worker owning exactly one shard can block on recv.
    if shards.len() == 1 {
        let (shard_id, rx) = &shards[0];
        while let Ok(msg) = rx.recv() {
            handle(
                msg,
                &mut states[0],
                *shard_id,
                &mut latency,
                &mut filter_busy,
                &merge_tx,
            );
        }
    } else {
        use crossbeam::channel::TryRecvError;
        while open.iter().any(|&o| o) {
            let mut progress = false;
            for (i, (shard_id, rx)) in shards.iter().enumerate() {
                if !open[i] {
                    continue;
                }
                // Bounded burst per visit keeps shards fair under skew.
                for _ in 0..256 {
                    match rx.try_recv() {
                        Ok(msg) => {
                            progress = true;
                            handle(
                                msg,
                                &mut states[i],
                                *shard_id,
                                &mut latency,
                                &mut filter_busy,
                                &merge_tx,
                            );
                        }
                        Err(TryRecvError::Empty) => break,
                        Err(TryRecvError::Disconnected) => {
                            open[i] = false;
                            break;
                        }
                    }
                }
            }
            if !progress {
                thread::sleep(Duration::from_micros(20));
            }
        }
    }

    let _ = merge_tx.send(MergeMsg::ShardDone {
        latency,
        filter_busy,
    });
}

fn handle(
    msg: ShardMsg,
    state: &mut ShardState,
    shard_id: usize,
    latency: &mut Histogram,
    filter_busy: &mut Duration,
    merge_tx: &Sender<MergeMsg>,
) {
    match msg {
        ShardMsg::Report(stamped, enqueued_at) => {
            let start = Instant::now();
            state.ingest(stamped);
            let done = Instant::now();
            *filter_busy += done - start;
            latency.record(done - enqueued_at);
        }
        ShardMsg::EpochEnd(epoch) => {
            let start = Instant::now();
            let (claims, stats) = state.finish_epoch();
            *filter_busy += start.elapsed();
            let _ = merge_tx.send(MergeMsg::Epoch(EpochClaims {
                shard: shard_id,
                epoch,
                claims,
                stats,
            }));
        }
    }
}

struct MergeOut {
    outcomes: Vec<EpochOutcome>,
    crh: StreamingCrh,
    latency: Histogram,
    filter_busy: Duration,
    merge_busy: Duration,
    error: Option<EngineError>,
}

/// Collect per-shard epoch claims; when all shards reported an epoch, run
/// the canonical cross-shard merge through the global streaming CRH
/// (carried over from the caller, so campaigns resume mid-stream).
fn merge_loop(
    cfg: &EngineConfig,
    mut crh: StreamingCrh,
    num_shards: usize,
    rx: Receiver<MergeMsg>,
) -> MergeOut {
    let mut pending: BTreeMap<u64, Vec<EpochClaims>> = BTreeMap::new();
    let mut outcomes: Vec<EpochOutcome> = Vec::new();
    let mut latency = Histogram::new();
    let mut filter_busy = Duration::ZERO;
    let mut merge_busy = Duration::ZERO;
    let mut error: Option<EngineError> = None;
    // The columnar arena is reused across epochs: claim storage, scratch
    // stamps, and leaf boundaries recycle their buffers.
    let mut arena = ColumnarBatch::new(cfg.num_users, cfg.num_objects);

    while let Ok(msg) = rx.recv() {
        match msg {
            MergeMsg::ShardDone {
                latency: l,
                filter_busy: f,
            } => {
                latency.merge(&l);
                filter_busy += f;
            }
            MergeMsg::Epoch(claims) => {
                if error.is_some() {
                    continue; // drain without merging after a failure
                }
                let epoch = claims.epoch;
                let bucket = pending.entry(epoch).or_default();
                bucket.push(claims);
                if bucket.len() < num_shards {
                    continue;
                }
                let batch = pending.remove(&epoch).expect("bucket exists");
                let start = Instant::now();
                match merge_epoch(cfg, &mut crh, &mut arena, epoch, batch) {
                    Ok(outcome) => outcomes.push(outcome),
                    Err(e) => error = Some(e),
                }
                merge_busy += start.elapsed();
            }
        }
    }

    MergeOut {
        outcomes,
        crh,
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
