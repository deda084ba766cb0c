//! The sharded streaming aggregation engine.
//!
//! ```text
//!                    ┌──────────────────────────┐
//! a batch of one ───▶│ filter (stage): a thread │ claims copied into
//! epoch: a submit,   │ per run of shards scans  │ each shard's
//! or a whole round   │ the batch in stream      │ columnar arena
//!                    │ order: deadline, dedup   │
//!                    └────────────┬─────────────┘
//!                                 │ close: every shard emits its
//!                                 ▼ ShardClaims (users ascending)
//!                    ┌──────────────────────────┐
//!                    │ merge (caller):          │
//!                    │ load_shards + canonical  │
//!                    │ StreamingCrh             │
//!                    └──────────────────────────┘
//! ```
//!
//! An engine aggregates one epoch at a time. [`Engine::stage`] filters a
//! batch of one epoch into the shards — each report to shard `user % S`,
//! with the epoch deadline, first-wins dedup and a copy of its claims
//! into the shard's arena ([`crate::shard`]) — and leaves the epoch open.
//! Closing the epoch finishes every shard, which emits its canonical
//! claims, users ascending, and the caller folds them into one global
//! [`StreamingCrh`]. A served campaign stages each submit batch on the
//! thread that decoded it and closes the round at its end;
//! [`Engine::run_with_state`] stages a whole round and closes it in one
//! call.
//!
//! A batch of at least [`PAR_STAGE_THRESHOLD`] reports fans out over
//! `workers` balanced runs of shards (at most one shard a run), through
//! [`scoped_map`]: the last run on the caller, each other on a scoped
//! thread, each run one `filter` span. Each run scans the whole batch in
//! stream order, ingesting only its own shards' reports, so first-wins
//! dedup sees each shard's reports in the order they came. A smaller
//! batch — a served submit of a few hundred reports — is one run, on the
//! caller: it is not worth a thread. A close finishes the shards on the
//! same fan-out, sized by the reports its epoch staged, and merges on
//! the caller. The
//! filter works per user and the merge is canonical in user id, so the
//! merged truths are **bit-identical for any shard count, worker count
//! and batch split**, which `crates/engine/tests/proptests.rs`,
//! `stage_fan_out.rs` and `campaign_equivalence.rs` assert.
//!
//! # Metrics
//!
//! [`EngineMetrics::ingest_latency`] has one sample per staged report:
//! every report of a batch records that batch's filter time. Staged
//! reports count in `reports_submitted` of the close that merges their
//! epoch. `stage.filter` is the wall time spent filtering batches and
//! finishing shards, `stage.merge` the caller's time in the cross-shard
//! merge. That merge commits every round the same way: the weight
//! refresh and the weights digest run inside it on two threads of their
//! own, beside the round's durable step (a logged round's append, or
//! nothing), so a close returns with its digest memoised. With no
//! router and no queue left, `stage.route`, `backpressure_stalls` and
//! `max_queue_depth` stay zero.
//!
//! # What an engine keeps between rounds
//!
//! Everything whose size follows the population is built on an
//! [`Engine`]'s first stage or close and reused by every later one — a
//! campaign hosts one engine, so this is scratch per campaign, not per
//! round: the [`ShardState`]s (one bit per user, the first-wins bitmap)
//! and the merge's [`ColumnarBatch`] (one occupancy bit per user); no
//! other index in either is sized by the population. Beside them sit the
//! columns of the largest round seen so far, twice — once spread over
//! the shard arenas, once in the merge arena — at 12 bytes per claim
//! each (a `u32` object, an `f64` value), and 32 more per reporting user
//! (8 in a shard's arrival list: the slot and where its claims end; 8 in
//! the merge's `(shard, row)` row sources; 16 in the merge arena's user
//! and offset columns).
//! A 1 M-user campaign at 2 % participation with 8 objects (160 k claims
//! a round) therefore keeps ≈4.7 MB resident: 0.25 MB of bitmaps,
//! 3.8 MB of claim columns and 0.6 MB of per-reporter columns. Only the
//! merge's occupancy bitmap is re-zeroed each round; every other index,
//! the shards' bitmap words included, resets in time proportional to the
//! round's reports. A close takes
//! the scratch out of the engine and puts it back when it succeeds; a
//! second close racing it on the same engine (or a clone) builds its
//! own. A staged epoch lives in the parked scratch, so a failed or
//! refused round — or [`Engine::unstage`] — drops it with the scratch.

use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::Instant;

use dptd_obs::trace::{codes as trace_codes, TraceScope};
use dptd_protocol::message::StampedReport;
use dptd_truth::columnar::{scoped_map, split_runs, ColumnarBatch};
use dptd_truth::streaming::{Committed, ShardClaims, StreamingCrh};
use dptd_truth::Loss;

use crate::metrics::EngineMetrics;
use crate::shard::{ShardEpochStats, ShardState};
use crate::EngineError;

/// Reports in one batch, or staged in one epoch, at or above which its
/// filter or close fans out over threads; below it the caller does the
/// work. The results are bit-identical either way, so the threshold only
/// guards against paying a thread spawn for a few hundred reports.
pub const PAR_STAGE_THRESHOLD: usize = 16_384;

/// Engine sizing and policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Fixed population size (user ids are `0..num_users`).
    pub num_users: usize,
    /// Objects per epoch (every epoch is a fresh wave of this many).
    pub num_objects: usize,
    /// Number of ingestion shards (`user % num_shards` routing).
    pub num_shards: usize,
    /// Threads a batch's filter or an epoch's close fans out over, each
    /// owning a contiguous run of shards (at most one thread per shard);
    /// `0` means the available parallelism.
    pub workers: usize,
    /// Inert (still refused at 0): `e2e_ledger/` is its only reader, and slice A deletes it.
    pub queue_capacity: usize,
    /// Reports whose virtual send time exceeds this are dropped as late.
    pub epoch_deadline_us: u64,
    /// Loss function of the global CRH estimator.
    pub loss: Loss,
    /// Threads for the canonical cross-shard merge's reduction tree;
    /// `0` means auto. The merged truths are **bit-identical for every
    /// value** — the tree's shape is a pure function of the population
    /// size, so workers only change who computes which leaf. Loading the
    /// shards' claims into the merge arena always picks its own worker
    /// count (auto), whatever this says.
    pub merge_workers: usize,
}

impl Default for EngineConfig {
    /// 1 000 users, 8 objects, 4 shards, auto workers (filter and merge),
    /// 1 s deadline, squared loss.
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
        // Claim columns store object ids as `u32`, and an id past it
        // saturates to `u32::MAX`: that id must name no object.
        if self.num_objects > u32::MAX as usize {
            return Err(EngineError::InvalidParameter {
                name: "num_objects",
                value: self.num_objects as f64,
                constraint: "must be at most u32::MAX (object ids are stored as u32)",
            });
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
}

/// Everything a closed round reports.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineReport {
    /// The epoch the round merged; `None` if nothing was staged.
    pub epoch: Option<EpochOutcome>,
    /// Final per-user weights of the global streaming estimator.
    pub final_weights: Vec<f64>,
    /// Counters, latency and throughput.
    pub metrics: EngineMetrics,
}

/// Everything a round needs whose size follows the population: the shard
/// states and the merge's columnar arena. Built on an engine's first
/// stage (or close) and kept by it, so a campaign pays for them once,
/// not per round. Between closes the shards may hold an epoch that
/// [`Engine::stage`] has filtered reports into.
#[derive(Debug)]
struct Scratch {
    shards: Vec<ShardState>,
    arena: ColumnarBatch,
    staged: Option<StagedEpoch>,
}

/// The epoch open in the shards, and what filtering its staged batches
/// cost: reports submitted, filter time and latency, which the close
/// that merges it completes.
#[derive(Debug)]
struct StagedEpoch {
    epoch: u64,
    metrics: EngineMetrics,
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
            staged: None,
        }
    }

    /// Filter `batch` — every report of `epoch`, every user in the
    /// population — into the shards and leave `epoch` open. An empty
    /// batch opens nothing.
    fn stage(
        &mut self,
        cfg: &EngineConfig,
        epoch: u64,
        batch: &[StampedReport],
    ) -> Result<(), EngineError> {
        if batch.is_empty() {
            return Ok(());
        }
        let staged = self.staged.get_or_insert_with(|| StagedEpoch {
            epoch,
            metrics: EngineMetrics::default(),
        });
        if staged.epoch != epoch {
            return Err(EngineError::InvalidParameter {
                name: "epoch",
                value: epoch as f64,
                constraint: "another epoch is already staged",
            });
        }
        let count = batch.len() as u64;
        let _span = TraceScope::begin(trace_codes::STAGE, count);
        let start = Instant::now();
        let num_shards = self.shards.len();
        let runs = split_runs(&mut self.shards, filter_threads(cfg, batch.len()));
        scoped_map(runs, |(first, run)| {
            let _span = TraceScope::begin(trace_codes::FILTER, run.len() as u64);
            let end = first + run.len();
            // Stream order within each shard: first-wins stays exact.
            for stamped in batch {
                let shard = stamped.report.user % num_shards;
                if (first..end).contains(&shard) {
                    run[shard - first].ingest_borrowed(stamped);
                }
            }
        });
        // A staged report's latency is its batch's filter time.
        let took = start.elapsed();
        let metrics = &mut staged.metrics;
        metrics.reports_submitted += count;
        metrics.stage.filter += took;
        metrics.ingest_latency.record_many(took, count);
        Ok(())
    }
}

/// Threads to filter `reports` reports over: one below
/// [`PAR_STAGE_THRESHOLD`], else `workers` (`0`: the available
/// parallelism), at most one per shard.
fn filter_threads(cfg: &EngineConfig, reports: usize) -> usize {
    if reports < PAR_STAGE_THRESHOLD {
        return 1;
    }
    let workers = match cfg.workers {
        0 => thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    };
    workers.min(cfg.num_shards)
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

    /// Aggregate one round: stage `reports`, every report of one epoch,
    /// then close that epoch into the carried-over global streaming
    /// estimator `state` (weights and cumulative losses) and hand the
    /// updated estimator back. An empty batch closes whatever
    /// [`Engine::stage`] left open, if anything.
    ///
    /// This is the multi-round campaign entry point: each campaign round
    /// is one engine epoch, and the estimator carried between calls is
    /// what makes user weights sharpen across rounds.
    ///
    /// # Errors
    ///
    /// What [`Engine::stage`] refuses — a report outside the population,
    /// a batch that mixes epochs or names another than the one staged —
    /// is refused whole, and drops what was staged. Otherwise
    /// [`EngineError::InvalidParameter`] when `state` does not match the
    /// engine's population size or loss function, and aggregation
    /// failures (e.g. an object that received no surviving report). On
    /// error the estimator is not returned.
    pub fn run_with_state(
        &self,
        mut state: StreamingCrh,
        reports: Vec<StampedReport>,
    ) -> Result<(EngineReport, StreamingCrh), EngineError> {
        let started = Instant::now();
        if let Some(epoch) = reports.first().map(|r| r.epoch) {
            if let Err(e) = self.stage(epoch, reports) {
                self.unstage();
                return Err(e);
            }
        }
        let mut report = self.close(&mut state, |_, _| Ok(()))?;
        report.metrics.elapsed = started.elapsed();
        Ok((report, state))
    }

    /// Filter `batch`, every report of epoch `epoch`, into the parked
    /// scratch's shards now (each report to shard `user % S`, with
    /// [`ShardState::ingest`]'s deadline and first-wins checks; on the
    /// calling thread below [`PAR_STAGE_THRESHOLD`] reports, fanned out
    /// over the shards at or above it), and leave the epoch open. The
    /// next close merges it over every batch staged: the same epoch, bit
    /// for bit, as one batch of their concatenation. A failed close
    /// drops what was staged with its scratch.
    ///
    /// The batch is checked whole before anything is filtered; an empty
    /// one stages nothing, not even its epoch. Staging and closing on one
    /// engine must not race: a close that parks its scratch replaces one
    /// a concurrent stage built.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidUser`] for a report outside the population;
    /// [`EngineError::InvalidParameter`] for a report of another epoch,
    /// or when another epoch is already staged.
    pub fn stage(&self, epoch: u64, batch: Vec<StampedReport>) -> Result<(), EngineError> {
        let num_users = self.config.num_users;
        if let Some(stray) = batch.iter().find(|r| r.epoch != epoch) {
            return Err(EngineError::InvalidParameter {
                name: "report.epoch",
                value: stray.epoch as f64,
                constraint: "every staged report must carry the staged epoch",
            });
        }
        if let Some(stray) = batch.iter().find(|r| r.report.user >= num_users) {
            return Err(EngineError::InvalidUser {
                user: stray.report.user,
                num_users,
            });
        }
        self.park()
            .get_or_insert_with(|| Scratch::new(&self.config))
            .stage(&self.config, epoch, &batch)
    }

    /// The epoch [`Engine::stage`] has left open, if any.
    pub fn staged_epoch(&self) -> Option<u64> {
        self.park()
            .as_ref()
            .and_then(|s| s.staged.as_ref().map(|staged| staged.epoch))
    }

    /// Drop whatever [`Engine::stage`] has left open — with the scratch
    /// that holds it, as a failed close does. A no-op when nothing is
    /// staged.
    pub fn unstage(&self) {
        let mut parked = self.park();
        if parked.as_ref().is_some_and(|s| s.staged.is_some()) {
            *parked = None;
        }
    }

    /// Close the epoch [`Engine::stage`] left open, if any, into `crh`:
    /// finish every shard, then merge their claims on the caller, which
    /// runs `step` on the merged epoch beside the weight refresh and
    /// digest ([`StreamingCrh::ingest_columnar_durably`]; a failed step
    /// takes the epoch back and fails the close). `crh` changes only if
    /// the merge succeeds. `metrics.elapsed` is left to the caller, which
    /// knows when its round began.
    pub(crate) fn close(
        &self,
        crh: &mut StreamingCrh,
        step: impl FnOnce(u64, Committed<'_>) -> Result<(), EngineError>,
    ) -> Result<EngineReport, EngineError> {
        let cfg = &self.config;
        // Take the scratch for the length of the close. A second close
        // racing this one (on `&self` from another thread) finds none and
        // builds its own; whichever finishes last leaves its scratch
        // parked. Taken before any check, so a refused close drops a
        // staged epoch just as a failed one does.
        let mut scratch = self.park().take().unwrap_or_else(|| Scratch::new(cfg));
        if crh.num_users() != cfg.num_users {
            return Err(EngineError::InvalidParameter {
                name: "state.num_users",
                value: crh.num_users() as f64,
                constraint: "carried-over state must match the engine population",
            });
        }
        if crh.loss() != cfg.loss {
            return Err(EngineError::InvalidParameter {
                name: "state.loss",
                value: f64::NAN,
                constraint: "carried-over state must use the engine's loss function",
            });
        }
        let _span = TraceScope::begin(trace_codes::ROUND, cfg.num_shards as u64);
        let Some(StagedEpoch { epoch, mut metrics }) = scratch.staged.take() else {
            *self.park() = Some(scratch);
            return Ok(EngineReport {
                epoch: None,
                final_weights: crh.weights().to_vec(),
                metrics: EngineMetrics::default(),
            });
        };
        // The copy the merge's refresh thread fills, so that thread never
        // allocates. Taken before the round's smaller buffers, so each
        // round's copy can take the place the last round's freed.
        let mut final_weights = Vec::with_capacity(cfg.num_users);
        let start = Instant::now();
        let threads = filter_threads(cfg, metrics.reports_submitted as usize);
        let (shard_claims, stats): (Vec<ShardClaims>, Vec<ShardEpochStats>) =
            scoped_map(split_runs(&mut scratch.shards, threads), |(_, run)| {
                let _span = TraceScope::begin(trace_codes::FILTER, run.len() as u64);
                run.iter_mut()
                    .map(ShardState::finish_epoch)
                    .collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .unzip();
        metrics.stage.filter += start.elapsed();

        // The canonical cross-shard merge through the carried estimator,
        // in the engine's columnar arena. A failed merge returns here,
        // dropping the scratch: only a clean close parks it again.
        let start = Instant::now();
        let merge_span = TraceScope::begin(trace_codes::MERGE, cfg.num_shards as u64);
        scratch.arena.load_shards(&shard_claims)?;
        // The canonical batch stores users ascending, so the accepted set
        // falls out of the merge without a separate sort.
        let accepted_users = scratch.arena.users().to_vec();
        let truths = crh.ingest_columnar_durably(
            &scratch.arena,
            cfg.merge_workers,
            Some(&mut final_weights),
            |committed| step(epoch, committed),
        )?;
        drop(merge_span);
        metrics.stage.merge = start.elapsed();
        let outcome = EpochOutcome {
            epoch,
            truths,
            accepted: stats.iter().map(|s| s.accepted).sum(),
            accepted_users,
            duplicates_discarded: stats.iter().map(|s| s.duplicates_discarded).sum(),
            late_dropped: stats.iter().map(|s| s.late_dropped).sum(),
        };
        metrics.reports_accepted = outcome.accepted as u64;
        metrics.duplicates_discarded = outcome.duplicates_discarded as u64;
        metrics.late_dropped = outcome.late_dropped;
        metrics.epochs_merged = 1;
        *self.park() = Some(scratch);
        Ok(EngineReport {
            epoch: Some(outcome),
            final_weights,
            metrics,
        })
    }

    fn park(&self) -> MutexGuard<'_, Option<Scratch>> {
        // The lock only ever guards a take or a store, so a poisoned
        // guard still holds a valid value.
        self.scratch.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `u32::MAX` objects is the most an engine takes, so the id an
    /// oversized one saturates to is never a valid object; one more is
    /// refused by name. [`Engine::new`] only validates (its scratch is
    /// built on the first stage), so neither case allocates per object.
    #[test]
    fn num_objects_past_u32_max_is_refused() {
        let config = |num_objects| EngineConfig {
            num_objects,
            ..EngineConfig::default()
        };
        assert!(Engine::new(config(u32::MAX as usize)).is_ok());
        for num_objects in [u32::MAX as usize + 1, usize::MAX] {
            match Engine::new(config(num_objects)) {
                Err(EngineError::InvalidParameter {
                    name: "num_objects",
                    value,
                    ..
                }) => assert_eq!(value, num_objects as f64),
                other => panic!("{num_objects} objects: {other:?}"),
            }
        }
    }
}
