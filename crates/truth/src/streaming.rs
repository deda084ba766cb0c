//! Incremental truth discovery over batched object arrivals.
//!
//! Crowd-sensing tasks often arrive in waves (new hallway segments, new
//! road links). Re-running batch truth discovery from scratch on the full
//! history is `O(total objects)` per wave; this module keeps per-user
//! cumulative losses and updates weights incrementally, so each new batch
//! costs only `O(batch)`.
//!
//! The estimator mirrors CRH: weights are `−log` of each user's share of
//! the *cumulative* loss, and each batch's truths are the weighted mean of
//! that batch's claims under the current weights (one refinement pass per
//! batch).
//!
//! # What a batch costs per claim
//!
//! The refinement pass reads every claim of the batch four times: two
//! weighted aggregations (under the carried weights, then under the
//! trial ones) and two loss accumulations (trial, then final). Under
//! [`Loss::NormalizedSquared`] it reads them twice more first, for the
//! per-object spreads that loss divides by (a mean, then the squared
//! deviations, each folded over the reduction tree);
//! [`Loss::Squared`] and [`Loss::Absolute`] never read a spread, so
//! they skip both passes and cannot move a bit by it.
//!
//! # What a batch costs per population member
//!
//! Claims only move the losses of the users who made them, so the
//! refinement pass works on the batch's rows alone: its trial losses,
//! trial weights and truths are row-indexed. Because every weight is a
//! share of the *total* loss, three things still touch every member of
//! the population once per batch, and nothing else does:
//!
//! * the loss total, one left-to-right fold that reads the carried loss
//!   everywhere except the batch's rows — taken once for the trial
//!   weights and once for the committed ones;
//! * the `−ln` refresh of the committed weights, in
//!   [`StreamingCrh::COMMIT_CHUNK`] chunks on a thread of its own;
//! * the weights digest ([`StreamingCrh::weights_digest`]), hashed on a
//!   second thread chunk by chunk right behind the refresh.
//!
//! Every batch commits through one routine,
//! [`StreamingCrh::ingest_columnar_durably`]: while those two threads
//! run, the caller runs its durable step (a no-op for a batch that is
//! not logged), so every commit's digest is memoised by the time its
//! ingest returns.

use std::sync::{mpsc, OnceLock};

use dptd_obs::{codes, TraceScope};
use dptd_stats::digest::{fnv1a_f64s, Fnv1a};

use crate::columnar::{effective_workers, resolve_workers, ColumnarBatch};
use crate::loss::Loss;
use crate::matrix::ObservationMatrix;
use crate::TruthError;

/// Fewer weights than this are refreshed single-threaded: a `−ln` costs
/// a few nanoseconds, so below this a spawn costs more than it saves.
/// Bit-identical either way.
const PAR_REFRESH_USERS: usize = 1 << 17;

/// Streaming CRH-style truth discovery.
///
/// # Example
///
/// ```
/// use dptd_truth::streaming::StreamingCrh;
/// use dptd_truth::{Loss, ObservationMatrix};
///
/// # fn main() -> Result<(), dptd_truth::TruthError> {
/// let mut s = StreamingCrh::new(3, Loss::Squared)?;
/// let batch1 = ObservationMatrix::from_dense(&[
///     &[1.0][..], &[1.1], &[5.0],
/// ])?;
/// let truths1 = s.ingest(&batch1)?;
/// assert!((truths1[0] - 1.0).abs() < 0.6);
/// // After the first batch the outlier's weight has dropped, so batch 2
/// // aggregates are cleaner.
/// let batch2 = ObservationMatrix::from_dense(&[
///     &[2.0][..], &[2.1], &[9.0],
/// ])?;
/// let truths2 = s.ingest(&batch2)?;
/// assert!((truths2[0] - 2.0).abs() < 0.3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct StreamingCrh {
    num_users: usize,
    loss: Loss,
    cumulative_loss: Vec<f64>,
    batches_seen: usize,
    weights: Vec<f64>,
    /// `fnv1a_f64s(&weights)`: filled by every commit, hashed on first
    /// request after [`StreamingCrh::new`] or [`StreamingCrh::from_parts`].
    digest: OnceLock<u64>,
    /// The refinement pass's row-indexed scratch (one weight and one
    /// loss per reporting user), kept between batches so that a batch
    /// no larger than an earlier one allocates nothing.
    row_weights: Vec<f64>,
    row_loss: Vec<f64>,
}

/// What a durable step is shown of a batch whose losses are final
/// (see [`StreamingCrh::ingest_columnar_durably`]).
#[derive(Debug, Clone, Copy)]
pub struct Committed<'a> {
    /// The batch's users, ascending: no other user's cumulative loss
    /// moved.
    pub users: &'a [usize],
    /// Every user's cumulative loss after the batch.
    pub cumulative_losses: &'a [f64],
    /// Batches ingested, this one included.
    pub batches_seen: usize,
}

impl StreamingCrh {
    /// Weights a commit refreshes, copies out and hands to its digest
    /// thread at a time (128 KiB): small enough that the digest
    /// starts right behind the refresh, large enough that the hand-over
    /// is noise.
    pub const COMMIT_CHUNK: usize = 1 << 14;

    /// Create a streaming aggregator for a fixed population of
    /// `num_users`.
    ///
    /// # Errors
    ///
    /// Returns [`TruthError::EmptyMatrix`] if `num_users` is zero.
    pub fn new(num_users: usize, loss: Loss) -> Result<Self, TruthError> {
        if num_users == 0 {
            return Err(TruthError::EmptyMatrix);
        }
        Ok(Self {
            num_users,
            loss,
            cumulative_loss: vec![0.0; num_users],
            batches_seen: 0,
            weights: vec![1.0; num_users],
            digest: OnceLock::new(),
            row_weights: Vec::new(),
            row_loss: Vec::new(),
        })
    }

    /// Rebuild an estimator from a persisted snapshot of its cumulative
    /// losses — the write-ahead-log recovery path.
    ///
    /// Weights are a pure function of the cumulative losses (recomputed
    /// here exactly as [`StreamingCrh::ingest`] commits them), so an
    /// estimator restored from the losses a crashed run logged is
    /// **bit-identical** to one that lived through the same batches.
    ///
    /// # Errors
    ///
    /// Returns [`TruthError::EmptyMatrix`] for an empty snapshot and
    /// [`TruthError::Degenerate`] if any stored loss is negative or not
    /// finite (a fresh estimator has all-zero losses, so zero is valid).
    pub fn from_parts(
        loss: Loss,
        cumulative_losses: Vec<f64>,
        batches_seen: usize,
    ) -> Result<Self, TruthError> {
        if cumulative_losses.is_empty() {
            return Err(TruthError::EmptyMatrix);
        }
        if cumulative_losses.iter().any(|l| !l.is_finite() || *l < 0.0) {
            return Err(TruthError::Degenerate {
                reason: "a restored cumulative loss is negative or not finite",
            });
        }
        let mut weights = vec![0.0; cumulative_losses.len()];
        let total = loss_total(&cumulative_losses, &[], &[]);
        refresh_weights(&mut weights, &cumulative_losses, total, 0);
        Ok(Self {
            num_users: cumulative_losses.len(),
            loss,
            cumulative_loss: cumulative_losses,
            batches_seen,
            weights,
            digest: OnceLock::new(),
            row_weights: Vec::new(),
            row_loss: Vec::new(),
        })
    }

    /// Current per-user weights (uniform before the first batch).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// FNV-1a digest of the current weights' bit patterns
    /// (`fnv1a_f64s(self.weights())`). Every commit hashes it beside its
    /// weight refresh, so after an ingest this reads the memo; only a
    /// fresh or restored estimator pays the `O(num_users)` pass, on the
    /// first call.
    pub fn weights_digest(&self) -> u64 {
        *self.digest.get_or_init(|| fnv1a_f64s(&self.weights))
    }

    /// Number of batches ingested so far.
    pub fn batches_seen(&self) -> usize {
        self.batches_seen
    }

    /// The loss function in use.
    pub fn loss(&self) -> Loss {
        self.loss
    }

    /// The population size this aggregator was created for.
    pub fn num_users(&self) -> usize {
        self.num_users
    }

    /// Per-user cumulative losses accumulated so far.
    pub fn cumulative_losses(&self) -> &[f64] {
        &self.cumulative_loss
    }

    /// Ingest one epoch that was collected **sharded**: each
    /// [`ShardClaims`] holds the claims of a disjoint subset of users.
    ///
    /// The shards are merged into one canonical columnar batch — users in
    /// ascending id, regardless of which shard owned them or in which
    /// order the shards are passed — and that batch goes through the exact
    /// reduction-tree kernels of [`StreamingCrh::ingest`]. The result is
    /// therefore **bit identical** to the single-shard reference for any
    /// shard count: this is the cross-shard weight-merge step of the
    /// `dptd-engine` aggregation engine. Workers are auto-selected; see
    /// [`StreamingCrh::ingest_sharded_with_workers`] to pin a count (the
    /// result is worker-count-independent either way).
    ///
    /// Each call builds a fresh [`ColumnarBatch`] arena — a slot index
    /// sized for the whole population plus the epoch's columns — and
    /// frees it. A caller that merges every round keeps one
    /// [`ColumnarBatch`] instead, and calls
    /// [`ColumnarBatch::load_shards`] then
    /// [`StreamingCrh::ingest_columnar_durably`] on it (the engine's
    /// close does; the cluster coordinator, through
    /// [`StreamingCrh::ingest_columnar_with_workers`]).
    ///
    /// # Errors
    ///
    /// Returns [`TruthError::UserOutOfRange`] if a shard claims a user
    /// outside the population, [`TruthError::DuplicateObservation`] if two
    /// shards (or two claims) cover the same cell, plus everything
    /// [`StreamingCrh::ingest`] can return.
    pub fn ingest_sharded(
        &mut self,
        num_objects: usize,
        shards: Vec<ShardClaims>,
    ) -> Result<Vec<f64>, TruthError> {
        self.ingest_sharded_with_workers(num_objects, &shards, 0)
    }

    /// [`StreamingCrh::ingest_sharded`] with an explicit merge worker
    /// count (`0` = auto, `1` = sequential). The bitwise result is
    /// guaranteed identical for every worker count: the reduction tree's
    /// shape is a pure function of the population size.
    ///
    /// # Errors
    ///
    /// Same as [`StreamingCrh::ingest_sharded`].
    pub fn ingest_sharded_with_workers(
        &mut self,
        num_objects: usize,
        shards: &[ShardClaims],
        workers: usize,
    ) -> Result<Vec<f64>, TruthError> {
        let mut batch = ColumnarBatch::new(self.num_users, num_objects);
        batch.load_shards(shards)?;
        self.ingest_columnar_with_workers(&batch, workers)
    }

    /// Ingest one batch of new objects and return their estimated truths.
    ///
    /// The batch matrix must have exactly the population's user count; its
    /// objects are new (disjoint from previous batches).
    ///
    /// # Errors
    ///
    /// Returns [`TruthError::ObjectOutOfRange`] if the batch's user count
    /// differs from the population, [`TruthError::UnobservedObject`] if an
    /// object in the batch has no claims, and propagates aggregation
    /// degeneracies.
    pub fn ingest(&mut self, batch: &ObservationMatrix) -> Result<Vec<f64>, TruthError> {
        if batch.num_users() != self.num_users {
            return Err(TruthError::ObjectOutOfRange {
                object: batch.num_users(),
                num_objects: self.num_users,
            });
        }
        let mut columnar = ColumnarBatch::new(self.num_users, batch.num_objects());
        columnar.load_matrix(batch);
        self.ingest_columnar_with_workers(&columnar, 0)
    }

    /// Ingest a pre-built [`ColumnarBatch`] (the engine's arena-reuse hot
    /// path) with an explicit worker count (`0` = auto, `1` =
    /// sequential). All [`StreamingCrh`] ingest entry points funnel into
    /// its refinement pass, so every backend shares one canonical
    /// summation order; this is
    /// [`StreamingCrh::ingest_columnar_durably`] with no durable step and
    /// no copy of the weights.
    ///
    /// On error the estimator state is untouched: losses and weights only
    /// commit after the whole refinement pass succeeds.
    ///
    /// # Errors
    ///
    /// Returns [`TruthError::ObjectOutOfRange`] if the batch's population
    /// differs from the estimator's, [`TruthError::UnobservedObject`] if
    /// an object has no claims, and propagates aggregation degeneracies —
    /// including [`TruthError::Degenerate`] for a batch that would leave
    /// a cumulative loss (and so every weight) not finite.
    pub fn ingest_columnar_with_workers(
        &mut self,
        batch: &ColumnarBatch,
        workers: usize,
    ) -> Result<Vec<f64>, TruthError> {
        self.ingest_columnar_durably(batch, workers, None, |_| Ok(()))
    }

    /// Ingest `batch` and commit it — the one commit every batch goes
    /// through. Once the batch's losses are final, three threads
    /// overlap:
    ///
    /// * a scoped thread refreshes the weights in
    ///   [`StreamingCrh::COMMIT_CHUNK`]-weight chunks, appending each to
    ///   `weights_out` if given (cleared first; the caller allocates it,
    ///   so the copy never costs the refresher an allocation);
    /// * a second one folds each chunk into the FNV-1a digest as soon as
    ///   it is handed over, under a `digest` span, so
    ///   [`StreamingCrh::weights_digest`] is memoised on return;
    /// * the calling thread runs `durable` on the committed losses — the
    ///   campaign backend's log append, or nothing.
    ///
    /// Truths, weights, `weights_out` and the digest are a pure function
    /// of the carried state and the batch, for any `workers`.
    ///
    /// If `durable` fails, the batch is taken back before this returns:
    /// losses, weights, digest and [`StreamingCrh::batches_seen`] are
    /// exactly what they were before the call, and `weights_out` is
    /// empty.
    ///
    /// # Errors
    ///
    /// Everything [`StreamingCrh::ingest_columnar_with_workers`] returns
    /// (`durable` then never runs), and whatever `durable` returns.
    pub fn ingest_columnar_durably<E: From<TruthError>>(
        &mut self,
        batch: &ColumnarBatch,
        workers: usize,
        mut weights_out: Option<&mut Vec<f64>>,
        durable: impl FnOnce(Committed<'_>) -> Result<(), E>,
    ) -> Result<Vec<f64>, E> {
        let (truths, total) = self.refine(batch, workers)?;
        let rows = batch.users();
        // Swap the final losses in: `row_loss` keeps the carried ones, all
        // a rollback needs to take them back.
        for (&u, l) in rows.iter().zip(self.row_loss.iter_mut()) {
            std::mem::swap(&mut self.cumulative_loss[u], l);
        }
        self.batches_seen += 1;
        let before = std::mem::take(&mut self.digest);
        if let Some(out) = weights_out.as_deref_mut() {
            out.clear();
            out.reserve(self.num_users);
        }

        let ambient = dptd_obs::trace::current();
        let committed = Committed {
            users: rows,
            cumulative_losses: &self.cumulative_loss,
            batches_seen: self.batches_seen,
        };
        let (weights, losses) = (&mut self.weights, &self.cumulative_loss);
        let mut out = weights_out.as_deref_mut();
        let (digest, made_durable) = std::thread::scope(|scope| {
            let (chunks, handed) = mpsc::channel::<&[f64]>();
            let hasher = scope.spawn(move || {
                let _ctx = ambient.map(dptd_obs::trace::enter);
                let _span = TraceScope::begin(codes::DIGEST, committed.batches_seen as u64);
                let mut digest = Fnv1a::new();
                for chunk in handed {
                    for &w in chunk {
                        digest.write_f64(w);
                    }
                }
                digest.finish()
            });
            scope.spawn(move || {
                let span = Self::COMMIT_CHUNK;
                for (w, l) in weights.chunks_mut(span).zip(losses.chunks(span)) {
                    refresh_span(w, l, total);
                    if let Some(out) = out.as_deref_mut() {
                        out.extend_from_slice(w);
                    }
                    // The hasher only hangs up by panicking, which its
                    // join re-raises.
                    let _ = chunks.send(w);
                }
            });
            let made_durable = durable(committed);
            let digest = hasher
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            (digest, made_durable)
        });

        if let Err(e) = made_durable {
            for (&u, l) in rows.iter().zip(self.row_loss.iter_mut()) {
                std::mem::swap(&mut self.cumulative_loss[u], l);
            }
            self.batches_seen -= 1;
            // One fold in population order: the same additions, in the
            // same order, as the total the carried weights came from.
            let total = loss_total(&self.cumulative_loss, &[], &[]);
            refresh_weights(&mut self.weights, &self.cumulative_loss, total, workers);
            self.digest = before;
            if let Some(out) = weights_out {
                out.clear();
            }
            return Err(e);
        }
        self.digest = OnceLock::from(digest);
        Ok(truths)
    }

    /// The refinement pass, committing nothing: aggregate under the
    /// current weights, then the rows' trial losses (each starting from
    /// its carried loss, claims added in claim order), the trial total
    /// over the whole population, trial weights for the rows only,
    /// re-aggregate, and the rows' final losses against the refined
    /// truths. Returns the truths and the population's loss total under
    /// the final losses, which it leaves in `self.row_loss` in row order
    /// — unless one overflowed, which would poison every weight and the
    /// log.
    fn refine(
        &mut self,
        batch: &ColumnarBatch,
        workers: usize,
    ) -> Result<(Vec<f64>, f64), TruthError> {
        if batch.num_users() != self.num_users {
            return Err(TruthError::ObjectOutOfRange {
                object: batch.num_users(),
                num_objects: self.num_users,
            });
        }
        batch.validate_coverage()?;
        let requested = workers;
        let workers = effective_workers(requested, batch.num_claims(), batch.num_leaves());
        // Only a normalised loss reads the spreads; the others ignore
        // them, so skipping two claim passes and two folds moves no bit.
        let stds = match self.loss {
            Loss::NormalizedSquared => batch.object_std_devs(workers),
            Loss::Squared | Loss::Absolute => vec![1.0; batch.num_objects()],
        };
        let rows = batch.users();
        let mut row_weights = std::mem::take(&mut self.row_weights);
        let mut row_loss = std::mem::take(&mut self.row_loss);

        // Aggregate the new batch under current weights, gathered once
        // per row.
        row_weights.clear();
        row_weights.extend(rows.iter().map(|&u| self.weights[u]));
        let mut truths = batch.weighted_truths(&row_weights, workers)?;

        self.carried_losses(rows, &mut row_loss);
        batch.accumulate_losses(&truths, &stds, self.loss, &mut row_loss, workers);
        let total = loss_total(&self.cumulative_loss, rows, &row_loss);
        refresh_weights(&mut row_weights, &row_loss, total, requested);
        truths = batch.weighted_truths(&row_weights, workers)?;

        self.carried_losses(rows, &mut row_loss);
        batch.accumulate_losses(&truths, &stds, self.loss, &mut row_loss, workers);
        let total = loss_total(&self.cumulative_loss, rows, &row_loss);
        self.row_weights = row_weights;
        self.row_loss = row_loss;
        if !total.is_finite() {
            return Err(TruthError::Degenerate {
                reason: "a cumulative loss would not be finite",
            });
        }
        Ok((truths, total))
    }

    /// Refill `row_loss` with the cumulative losses of `rows`.
    fn carried_losses(&self, rows: &[usize], row_loss: &mut Vec<f64>) {
        row_loss.clear();
        row_loss.extend(rows.iter().map(|&u| self.cumulative_loss[u]));
    }
}

/// The claims one shard collected for one epoch, for a disjoint subset
/// of the population. Produced by the `dptd-engine` shards (which a
/// cluster node also runs, and whose last round it keeps for a
/// re-driven barrier) and by the cluster coordinator, and consumed by
/// [`StreamingCrh::ingest_sharded`].
///
/// Stored compressed-sparse-row, like the [`ColumnarBatch`] it is merged
/// into: `users[i]` is row `i`'s user and `offsets[i]..offsets[i + 1]`
/// indexes its claims in the parallel `objects` (`u32`) / `values`
/// (`f64`) columns, in the order they were pushed — 12 bytes a claim.
/// Four allocations per shard instead of one per user, and a row reaches
/// the merge as two contiguous slices.
///
/// Nothing is validated here — rows may repeat a user, name an object
/// out of range or carry a non-finite value; [`ColumnarBatch::load_shards`]
/// checks every row before a kernel can see it. An object id past
/// `u32::MAX` is stored as [`narrow_object`] makes it, so it is still
/// refused as out of range.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardClaims {
    users: Vec<usize>,
    offsets: Vec<usize>,
    objects: Vec<u32>,
    values: Vec<f64>,
}

impl Default for ShardClaims {
    fn default() -> Self {
        Self {
            users: Vec::new(),
            offsets: vec![0],
            objects: Vec::new(),
            values: Vec::new(),
        }
    }
}

impl ShardClaims {
    /// An empty claim set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `claims` (`(object, value)` pairs) for `user`, each object
    /// id through [`narrow_object`]. Each user must be pushed at most
    /// once per epoch (shards de-duplicate upstream).
    pub fn push(&mut self, user: usize, claims: Vec<(usize, f64)>) {
        self.objects
            .extend(claims.iter().map(|&(object, _)| narrow_object(object)));
        self.values.extend(claims.iter().map(|&(_, value)| value));
        self.users.push(user);
        self.offsets.push(self.objects.len());
    }

    /// A claim set from its four columns, as [`ShardClaims::columns`]
    /// returns them — how a decoder that read the columns off the wire,
    /// or a shard that laid out its rows, hands them over without a
    /// per-row copy. `None` unless `offsets` has one more entry than
    /// `users`, starts at 0, never decreases and ends at the length of
    /// `objects` and of `values`.
    pub fn from_columns(
        users: Vec<usize>,
        offsets: Vec<usize>,
        objects: Vec<u32>,
        values: Vec<f64>,
    ) -> Option<Self> {
        let well_formed = offsets.len() == users.len() + 1
            && offsets.first() == Some(&0)
            && offsets.windows(2).all(|w| w[0] <= w[1])
            && offsets.last() == Some(&objects.len())
            && objects.len() == values.len();
        well_formed.then_some(Self {
            users,
            offsets,
            objects,
            values,
        })
    }

    /// The four columns: each row's user, the `len() + 1` row offsets
    /// (from 0), and every claim's object and value, all in push order.
    pub fn columns(&self) -> (&[usize], &[usize], &[u32], &[f64]) {
        (&self.users, &self.offsets, &self.objects, &self.values)
    }

    /// Rewrite every row's user through `to`, in place — how the
    /// cluster coordinator turns a node's local ids into global ones.
    pub fn map_users(&mut self, mut to: impl FnMut(usize) -> usize) {
        for user in &mut self.users {
            *user = to(*user);
        }
    }

    /// Row `row` in push order: its user and its claims as parallel
    /// `objects` / `values` slices.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.len()`.
    pub fn row(&self, row: usize) -> (usize, &[u32], &[f64]) {
        let cells = self.offsets[row]..self.offsets[row + 1];
        (
            self.users[row],
            &self.objects[cells.clone()],
            &self.values[cells],
        )
    }

    /// Number of rows: users with recorded claims.
    pub fn len(&self) -> usize {
        self.users.len()
    }

    /// Total number of `(object, value)` claims across users.
    pub fn num_claims(&self) -> usize {
        self.values.len()
    }

    /// Whether no user has recorded claims.
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }

    /// The users with recorded claims, in push order.
    pub fn users(&self) -> impl Iterator<Item = usize> + '_ {
        self.users.iter().copied()
    }
}

/// An object id as a claim column stores it: an id past `u32::MAX`
/// saturates to `u32::MAX` and never wraps. `u32::MAX` is a valid object
/// only in a batch over more than `u32::MAX` objects, which nothing
/// builds (the engine's configuration refuses one, and its per-object
/// counts alone would take 32 GiB), so a saturated id is refused as
/// [`TruthError::ObjectOutOfRange`] and cannot alias a real object.
pub fn narrow_object(object: usize) -> u32 {
    object.min(u32::MAX as usize) as u32
}

/// The population's loss total as one left-to-right fold: `carried`
/// everywhere except at `rows` (ascending user ids), where `row_loss`
/// stands in — the same additions in the same order as summing the
/// spliced population, without building it.
fn loss_total(carried: &[f64], rows: &[usize], row_loss: &[f64]) -> f64 {
    let sum = |total: f64, span: &[f64]| span.iter().fold(total, |acc, &l| acc + l);
    let mut total = 0.0;
    let mut next = 0;
    for (&user, &loss) in rows.iter().zip(row_loss) {
        total = sum(total, &carried[next..user]) + loss;
        next = user + 1;
    }
    sum(total, &carried[next..])
}

/// Rewrite `weights` from `losses` in place — the population's, or one
/// batch's rows: each weight is `−ln` of its loss's share of `total`,
/// floored at `1e-12`, or `1.0` while no loss has accrued anywhere.
fn refresh_span(weights: &mut [f64], losses: &[f64], total: f64) {
    if total <= 0.0 {
        weights.fill(1.0);
        return;
    }
    for (w, &l) in weights.iter_mut().zip(losses) {
        *w = -((l / total).max(1e-12)).ln();
    }
}

/// [`refresh_span`] split over `workers` (`0` = auto) in contiguous
/// ranges; each weight is one expression of its own loss, so the split
/// cannot change a bit.
fn refresh_weights(weights: &mut [f64], losses: &[f64], total: f64, workers: usize) {
    let workers = resolve_workers(workers);
    if total <= 0.0 || workers <= 1 || weights.len() < PAR_REFRESH_USERS {
        refresh_span(weights, losses, total);
        return;
    }
    let span = weights.len().div_ceil(workers);
    std::thread::scope(|scope| {
        let mut ranges = weights.chunks_mut(span).zip(losses.chunks(span));
        let own = ranges.next();
        for (w, l) in ranges {
            scope.spawn(move || refresh_span(w, l, total));
        }
        if let Some((w, l)) = own {
            refresh_span(w, l, total);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use dptd_stats::dist::{Continuous, Normal};

    #[test]
    fn rejects_empty_population() {
        assert!(StreamingCrh::new(0, Loss::Squared).is_err());
    }

    #[test]
    fn rejects_population_mismatch() {
        let mut s = StreamingCrh::new(2, Loss::Squared).unwrap();
        let batch = ObservationMatrix::from_dense(&[&[1.0][..], &[1.0], &[1.0]]).unwrap();
        assert!(s.ingest(&batch).is_err());
    }

    #[test]
    fn weights_sharpen_over_batches() {
        // User 2 is consistently bad; its weight share must fall as
        // batches accumulate evidence.
        let mut rng = dptd_stats::seeded_rng(131);
        let good = Normal::new(0.0, 0.05).unwrap();
        let mut s = StreamingCrh::new(3, Loss::Squared).unwrap();
        let mut bad_share_first = None;
        for batch_idx in 0..6 {
            let truth = batch_idx as f64;
            let rows: Vec<Vec<f64>> = vec![
                vec![truth + good.sample(&mut rng)],
                vec![truth + good.sample(&mut rng)],
                vec![truth + 3.0],
            ];
            let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
            s.ingest(&ObservationMatrix::from_dense(&refs).unwrap())
                .unwrap();
            let w = s.weights();
            let share = w[2] / (w[0] + w[1] + w[2]);
            if batch_idx == 0 {
                bad_share_first = Some(share);
            } else if batch_idx == 5 {
                assert!(
                    share <= bad_share_first.unwrap() + 1e-9,
                    "bad user share grew: {share} vs {:?}",
                    bad_share_first
                );
            }
        }
    }

    #[test]
    fn sharded_ingest_is_bit_identical_to_single_matrix() {
        // 7 users, 3 objects, two epochs; users sharded 3 ways by id % 3.
        let mut rng = dptd_stats::seeded_rng(139);
        let noise = Normal::new(0.0, 0.3).unwrap();
        let mut reference = StreamingCrh::new(7, Loss::Squared).unwrap();
        let mut sharded = StreamingCrh::new(7, Loss::Squared).unwrap();
        for epoch in 0..2 {
            let rows: Vec<Vec<f64>> = (0..7)
                .map(|_| {
                    (0..3)
                        .map(|n| (epoch * 3 + n) as f64 + noise.sample(&mut rng))
                        .collect()
                })
                .collect();
            let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
            let batch = ObservationMatrix::from_dense(&refs).unwrap();

            let mut shards = vec![ShardClaims::new(); 3];
            // Deliberately push users in a scrambled order within shards.
            for &user in &[6usize, 0, 4, 2, 5, 1, 3] {
                shards[user % 3].push(user, batch.observations_of_user(user).collect());
            }

            let a = reference.ingest(&batch).unwrap();
            let b = sharded.ingest_sharded(3, shards).unwrap();
            assert_eq!(a, b, "epoch {epoch}: sharded truths diverged");
            assert_eq!(reference.weights(), sharded.weights());
            assert_eq!(reference.cumulative_losses(), sharded.cumulative_losses());
        }
    }

    /// `from_columns` takes back exactly what `columns` hands out, and
    /// refuses offsets that do not describe the other three columns.
    #[test]
    fn claim_columns_round_trip_and_bad_offsets_are_refused() {
        let mut shard = ShardClaims::new();
        shard.push(4, vec![(1, 0.5), (0, 2.0)]);
        shard.push(1, vec![]);
        let (users, offsets, objects, values) = shard.columns();
        assert_eq!(
            ShardClaims::from_columns(
                users.to_vec(),
                offsets.to_vec(),
                objects.to_vec(),
                values.to_vec()
            ),
            Some(shard.clone())
        );
        let columns = |offsets: &[usize], values: &[f64]| {
            ShardClaims::from_columns(vec![4, 1], offsets.to_vec(), vec![1, 0], values.to_vec())
        };
        assert!(columns(&[0, 2, 2], &[0.5, 2.0]).is_some());
        for (offsets, values) in [
            (&[0, 2][..], &[0.5, 2.0][..]), // one offset short
            (&[1, 2, 2], &[0.5, 2.0]),      // not from 0
            (&[0, 2, 1], &[0.5, 2.0]),      // decreasing
            (&[0, 1, 1], &[0.5, 2.0]),      // ends short of the objects
            (&[0, 2, 2], &[0.5]),           // values short of the objects
        ] {
            assert_eq!(columns(offsets, values), None, "{offsets:?} {values:?}");
        }
    }

    #[test]
    fn sharded_ingest_rejects_cross_shard_duplicates() {
        let mut s = StreamingCrh::new(2, Loss::Squared).unwrap();
        let mut a = ShardClaims::new();
        a.push(0, vec![(0, 1.0)]);
        let mut b = ShardClaims::new();
        b.push(0, vec![(0, 2.0)]);
        b.push(1, vec![(0, 1.5)]);
        assert!(matches!(
            s.ingest_sharded(1, vec![a, b]),
            Err(TruthError::DuplicateObservation { user: 0, .. })
        ));
    }

    #[test]
    fn sharded_ingest_rejects_duplicates_even_with_empty_claim_lists() {
        // An empty claim list still occupies the user's slot: a second
        // shard claiming the same user must be rejected, not silently
        // overwrite.
        let mut s = StreamingCrh::new(2, Loss::Squared).unwrap();
        let mut a = ShardClaims::new();
        a.push(0, vec![]);
        let mut b = ShardClaims::new();
        b.push(0, vec![(0, 2.0)]);
        b.push(1, vec![(0, 1.5)]);
        assert!(matches!(
            s.ingest_sharded(1, vec![a, b]),
            Err(TruthError::DuplicateObservation { user: 0, .. })
        ));
    }

    #[test]
    fn sharded_ingest_rejects_out_of_population_user() {
        let mut s = StreamingCrh::new(2, Loss::Squared).unwrap();
        let mut a = ShardClaims::new();
        a.push(5, vec![(0, 1.0)]);
        assert!(s.ingest_sharded(1, vec![a]).is_err());
    }

    #[test]
    fn from_parts_restores_bit_identical_state() {
        let mut rng = dptd_stats::seeded_rng(149);
        let noise = Normal::new(0.0, 0.4).unwrap();
        let mut live = StreamingCrh::new(5, Loss::NormalizedSquared).unwrap();
        for epoch in 0..3 {
            let rows: Vec<Vec<f64>> = (0..5)
                .map(|_| {
                    (0..2)
                        .map(|_| epoch as f64 + noise.sample(&mut rng))
                        .collect()
                })
                .collect();
            let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
            live.ingest(&ObservationMatrix::from_dense(&refs).unwrap())
                .unwrap();
        }
        // Snapshot → restore → both halves continue identically.
        let mut restored = StreamingCrh::from_parts(
            live.loss(),
            live.cumulative_losses().to_vec(),
            live.batches_seen(),
        )
        .unwrap();
        assert_eq!(restored.weights(), live.weights());
        assert_eq!(restored.batches_seen(), live.batches_seen());
        let rows: Vec<Vec<f64>> = (0..5)
            .map(|_| (0..2).map(|_| noise.sample(&mut rng)).collect())
            .collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let batch = ObservationMatrix::from_dense(&refs).unwrap();
        assert_eq!(
            live.ingest(&batch).unwrap(),
            restored.ingest(&batch).unwrap()
        );
        assert_eq!(restored.weights(), live.weights());
        assert_eq!(restored.cumulative_losses(), live.cumulative_losses());
    }

    #[test]
    fn from_parts_restores_fresh_state_and_rejects_garbage() {
        // All-zero losses restore the pre-first-batch uniform weights.
        let fresh = StreamingCrh::from_parts(Loss::Squared, vec![0.0; 3], 0).unwrap();
        assert_eq!(
            fresh.weights(),
            StreamingCrh::new(3, Loss::Squared).unwrap().weights()
        );
        assert!(StreamingCrh::from_parts(Loss::Squared, vec![], 0).is_err());
        assert!(StreamingCrh::from_parts(Loss::Squared, vec![1.0, -0.5], 1).is_err());
        assert!(StreamingCrh::from_parts(Loss::Squared, vec![f64::NAN], 1).is_err());
    }

    fn assert_digest_fresh(s: &StreamingCrh, what: &str) {
        assert_eq!(s.weights_digest(), fnv1a_f64s(s.weights()), "{what}");
    }

    fn wave(users: usize, objects: usize, seed: u64) -> ObservationMatrix {
        let mut rng = dptd_stats::seeded_rng(seed);
        let noise = Normal::new(0.0, 0.5).unwrap();
        let rows: Vec<Vec<f64>> = (0..users)
            .map(|_| {
                (0..objects)
                    .map(|n| n as f64 + noise.sample(&mut rng))
                    .collect()
            })
            .collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        ObservationMatrix::from_dense(&refs).unwrap()
    }

    #[test]
    fn weights_digest_is_never_stale() {
        let mut s = StreamingCrh::new(5, Loss::NormalizedSquared).unwrap();
        assert_digest_fresh(&s, "new");
        for seed in 0..3 {
            // Warm the memo, then move the weights under it.
            s.weights_digest();
            s.ingest(&wave(5, 2, 150 + seed)).unwrap();
            assert_digest_fresh(&s, "after an ingest");
        }

        // A refused batch (object 1 unobserved) commits nothing.
        let before = (s.weights().to_vec(), s.weights_digest());
        let mut shard = ShardClaims::new();
        shard.push(0, vec![(0, 1.0)]);
        assert!(s.ingest_sharded(2, vec![shard]).is_err());
        assert_eq!((s.weights().to_vec(), s.weights_digest()), before);
        assert_digest_fresh(&s, "after a failed ingest");

        let restored =
            StreamingCrh::from_parts(s.loss(), s.cumulative_losses().to_vec(), 3).unwrap();
        assert_digest_fresh(&restored, "from_parts");
        assert_eq!(restored.weights_digest(), s.weights_digest());

        // A clone carries a warm memo; its next ingest resets its own.
        let mut twin = s.clone();
        assert_digest_fresh(&twin, "clone");
        twin.ingest(&wave(5, 2, 160)).unwrap();
        assert_digest_fresh(&twin, "clone after an ingest");
        assert_digest_fresh(&s, "original after the clone's ingest");
        assert_ne!(twin.weights_digest(), s.weights_digest());
    }

    #[test]
    fn a_loss_that_would_overflow_is_refused_with_the_state_untouched() {
        // A claim far past `MAX_CLAIM_MAGNITUDE` that reaches the kernels
        // through a matrix: its squared deviation overflows.
        let mut s = StreamingCrh::new(3, Loss::NormalizedSquared).unwrap();
        s.ingest(&wave(3, 1, 170)).unwrap();
        let before = (
            s.weights().to_vec(),
            s.cumulative_losses().to_vec(),
            s.batches_seen(),
            s.weights_digest(),
        );
        let huge = ObservationMatrix::from_dense(&[&[1e200][..], &[1.0], &[2.0]]).unwrap();
        assert!(matches!(
            s.ingest(&huge),
            Err(TruthError::Degenerate { .. })
        ));
        let after = (
            s.weights().to_vec(),
            s.cumulative_losses().to_vec(),
            s.batches_seen(),
            s.weights_digest(),
        );
        assert_eq!(after, before);
        assert!(s.ingest(&wave(3, 1, 171)).is_ok());
    }

    #[test]
    fn streaming_tracks_batch_truths() {
        let mut s = StreamingCrh::new(4, Loss::Squared).unwrap();
        let mut rng = dptd_stats::seeded_rng(137);
        let noise = Normal::new(0.0, 0.1).unwrap();
        for wave in 0..4 {
            let truths: Vec<f64> = (0..5).map(|n| (wave * 5 + n) as f64).collect();
            let rows: Vec<Vec<f64>> = (0..4)
                .map(|_| truths.iter().map(|t| t + noise.sample(&mut rng)).collect())
                .collect();
            let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
            let est = s
                .ingest(&ObservationMatrix::from_dense(&refs).unwrap())
                .unwrap();
            let err = dptd_stats::summary::mae(&est, &truths).unwrap();
            assert!(err < 0.1, "wave {wave} err {err}");
        }
        assert_eq!(s.batches_seen(), 4);
    }
}
