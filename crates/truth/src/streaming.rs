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

use crate::columnar::{effective_workers, ColumnarBatch};
use crate::loss::Loss;
use crate::matrix::ObservationMatrix;
use crate::TruthError;

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
}

impl StreamingCrh {
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
        let weights = share_weights(&cumulative_losses);
        Ok(Self {
            num_users: cumulative_losses.len(),
            loss,
            cumulative_loss: cumulative_losses,
            batches_seen,
            weights,
        })
    }

    /// Current per-user weights (uniform before the first batch).
    pub fn weights(&self) -> &[f64] {
        &self.weights
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
    /// sequential). All [`StreamingCrh`] ingest entry points funnel here,
    /// so every backend shares one canonical summation order.
    ///
    /// On error the estimator state is untouched: losses and weights only
    /// commit after the whole refinement pass succeeds.
    ///
    /// # Errors
    ///
    /// Returns [`TruthError::ObjectOutOfRange`] if the batch's population
    /// differs from the estimator's, [`TruthError::UnobservedObject`] if
    /// an object has no claims, and propagates aggregation degeneracies.
    pub fn ingest_columnar_with_workers(
        &mut self,
        batch: &ColumnarBatch,
        workers: usize,
    ) -> Result<Vec<f64>, TruthError> {
        if batch.num_users() != self.num_users {
            return Err(TruthError::ObjectOutOfRange {
                object: batch.num_users(),
                num_objects: self.num_users,
            });
        }
        batch.validate_coverage()?;
        let workers = effective_workers(workers, batch.num_claims(), batch.num_leaves());
        let stds = batch.object_std_devs(workers);

        // Aggregate the new batch under current weights.
        let mut truths = batch.weighted_truths(&self.weights, workers)?;

        // One refinement pass: update cumulative losses with this batch,
        // recompute weights, re-aggregate.
        let mut trial_loss = self.cumulative_loss.clone();
        batch.accumulate_losses(&truths, &stds, self.loss, &mut trial_loss, workers);
        let weights = share_weights(&trial_loss);
        truths = batch.weighted_truths(&weights, workers)?;

        // Commit: final losses against the refined truths.
        batch.accumulate_losses(
            &truths,
            &stds,
            self.loss,
            &mut self.cumulative_loss,
            workers,
        );
        self.weights = share_weights(&self.cumulative_loss);
        self.batches_seen += 1;
        Ok(truths)
    }
}

/// The claims one shard collected for one epoch, for a disjoint subset
/// of the population. Produced by the `dptd-engine` shards (and the
/// cluster coordinator) and consumed by [`StreamingCrh::ingest_sharded`].
///
/// Stored compressed-sparse-row, like the [`ColumnarBatch`] it is merged
/// into: `users[i]` is row `i`'s user and `offsets[i]..offsets[i + 1]`
/// indexes its claims in the parallel `objects` / `values` columns, in
/// the order they were pushed. Four allocations per shard instead of one
/// per user, and a row reaches the merge as two contiguous slices.
///
/// Nothing is validated here — rows may repeat a user, name an object
/// out of range or carry a non-finite value; [`ColumnarBatch::load_shards`]
/// checks every row before a kernel can see it.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardClaims {
    users: Vec<usize>,
    offsets: Vec<usize>,
    objects: Vec<usize>,
    values: Vec<f64>,
}

impl Default for ShardClaims {
    fn default() -> Self {
        Self::with_capacity(0, 0)
    }
}

impl ShardClaims {
    /// An empty claim set.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty claim set with room for `users` rows and `claims` cells.
    pub fn with_capacity(users: usize, claims: usize) -> Self {
        let mut offsets = Vec::with_capacity(users + 1);
        offsets.push(0);
        Self {
            users: Vec::with_capacity(users),
            offsets,
            objects: Vec::with_capacity(claims),
            values: Vec::with_capacity(claims),
        }
    }

    /// Record `claims` (`(object, value)` pairs) for `user`. Each user must
    /// be pushed at most once per epoch (shards de-duplicate upstream).
    pub fn push(&mut self, user: usize, claims: Vec<(usize, f64)>) {
        self.objects
            .extend(claims.iter().map(|&(object, _)| object));
        self.values.extend(claims.iter().map(|&(_, value)| value));
        self.users.push(user);
        self.offsets.push(self.objects.len());
    }

    /// [`ShardClaims::push`] from claims already split into parallel
    /// `objects` / `values` slices — two contiguous copies. This is how
    /// a shard emits its rows users-ascending out of its columnar arena.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn push_row(&mut self, user: usize, objects: &[usize], values: &[f64]) {
        assert_eq!(objects.len(), values.len(), "one value per object");
        self.objects.extend_from_slice(objects);
        self.values.extend_from_slice(values);
        self.users.push(user);
        self.offsets.push(self.objects.len());
    }

    /// Row `row` in push order: its user and its claims as parallel
    /// `objects` / `values` slices.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.num_users()`.
    pub(crate) fn row(&self, row: usize) -> (usize, &[usize], &[f64]) {
        let cells = self.offsets[row]..self.offsets[row + 1];
        (
            self.users[row],
            &self.objects[cells.clone()],
            &self.values[cells],
        )
    }

    /// Number of users with recorded claims.
    pub fn num_users(&self) -> usize {
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

fn share_weights(losses: &[f64]) -> Vec<f64> {
    let total: f64 = losses.iter().sum();
    if total <= 0.0 {
        return vec![1.0; losses.len()];
    }
    losses
        .iter()
        .map(|&l| -((l / total).max(1e-12)).ln())
        .collect()
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
