//! Columnar epoch batches and the fixed-shape parallel reduction tree.
//!
//! The engine's per-epoch merge used to materialise a dense
//! `ObservationMatrix` (`O(users × objects)` `Option<f64>` cells) and fold
//! it sequentially. This module replaces that hot path with a compressed
//! sparse-row (CSR) **struct-of-arrays** batch — parallel `users` /
//! `offsets` / `objects` / `values` arrays over contiguous memory — plus
//! reduction kernels whose floating-point summation order is a **pure
//! function of the population size**, never of worker count, shard count,
//! or scheduling.
//!
//! # The reduction tree
//!
//! The user-id space `[0, num_users)` is cut into fixed leaves of
//! [`LEAF_SPAN`] users each (`num_leaves = ceil(num_users / LEAF_SPAN)`).
//! Every aggregate (per-object value sums, weighted numerator/denominator
//! pairs, squared deviations) is computed per leaf — users ascending
//! within the leaf, claims ascending by object within a user — and the
//! per-leaf partials are folded **pairwise in fixed leaf order** (leaf 0
//! with leaf 1, leaf 2 with leaf 3, … then the same one level up). The
//! tree's shape therefore depends only on `num_users`; any number of
//! workers may compute the leaf partials in any order and the bitwise
//! result cannot change, because float addition only ever happens at
//! tree positions that are fixed up front.
//!
//! Per-user loss accumulation needs no tree at all: each user's slot is
//! written by exactly one leaf, so leaves are handed to workers as
//! disjoint `&mut` ranges of the accumulator.

use crate::loss::Loss;
use crate::matrix::ObservationMatrix;
use crate::streaming::ShardClaims;
use crate::TruthError;

/// Number of user ids covered by one leaf of the reduction tree.
///
/// This constant is part of the *canonical summation order*: changing it
/// changes every digest downstream (sim, engine, server, cluster move
/// together — no absolute values are pinned — but WAL snapshots written
/// by an older build would no longer bit-match a rerun).
pub const LEAF_SPAN: usize = 256;

/// Auto-selected worker cap (`workers = 0` requests auto).
const MAX_AUTO_WORKERS: usize = 8;

/// Batches with fewer claims than this run single-threaded; the results
/// are bit-identical either way, so the threshold is purely a
/// spawn-overhead guard.
const PAR_CLAIM_THRESHOLD: usize = 16_384;

/// One epoch of claims in columnar (CSR / struct-of-arrays) form, with
/// arena-style buffer reuse: call [`ColumnarBatch::load_shards`] or
/// [`ColumnarBatch::load_matrix`] each epoch and the backing buffers are
/// recycled instead of reallocated.
///
/// Layout: `users` holds the distinct reporting users in ascending id
/// order (a user that occupied a slot with an *empty* claim list is still
/// present); `offsets[i]..offsets[i + 1]` indexes that user's claims in
/// the parallel `objects` / `values` arrays, sorted ascending by object.
/// A [`ShardClaims`] has the same four columns, in push order and
/// unvalidated, so loading one is a column-to-column copy.
///
/// The arena is meant to outlive the epoch: the per-user slot index
/// (16 bytes a user) resets by generation stamp, and the columns keep
/// the capacity of the largest epoch loaded so far.
#[derive(Debug, Clone)]
pub struct ColumnarBatch {
    num_users: usize,
    num_objects: usize,
    users: Vec<usize>,
    offsets: Vec<usize>,
    objects: Vec<usize>,
    values: Vec<f64>,
    object_counts: Vec<usize>,
    /// `leaf_starts[l]..leaf_starts[l + 1]` indexes `users` for leaf `l`.
    leaf_starts: Vec<usize>,
    // Generation-stamped scratch: O(1) resets across epochs, no clearing.
    cell_stamp: Vec<u64>,
    cell_gen: u64,
    slot_stamp: Vec<u64>,
    slot_ref: Vec<(u32, u32)>,
    slot_gen: u64,
    sort_buf: Vec<(usize, f64)>,
}

impl ColumnarBatch {
    /// An empty batch arena for a fixed population and object count.
    pub fn new(num_users: usize, num_objects: usize) -> Self {
        Self {
            num_users,
            num_objects,
            users: Vec::new(),
            offsets: vec![0],
            objects: Vec::new(),
            values: Vec::new(),
            object_counts: vec![0; num_objects],
            leaf_starts: Vec::new(),
            cell_stamp: vec![0; num_objects],
            cell_gen: 0,
            slot_stamp: vec![0; num_users],
            slot_ref: vec![(0, 0); num_users],
            slot_gen: 0,
            sort_buf: Vec::new(),
        }
    }

    /// Population size the arena was built for.
    pub fn num_users(&self) -> usize {
        self.num_users
    }

    /// Objects per epoch the arena was built for.
    pub fn num_objects(&self) -> usize {
        self.num_objects
    }

    /// Users that occupied a slot this epoch, ascending by id.
    pub fn users(&self) -> &[usize] {
        &self.users
    }

    /// Total claims loaded this epoch.
    pub fn num_claims(&self) -> usize {
        self.values.len()
    }

    /// Leaves in the reduction tree — `ceil(num_users / LEAF_SPAN)`, a
    /// pure function of the population size.
    pub fn num_leaves(&self) -> usize {
        self.num_users.div_ceil(LEAF_SPAN)
    }

    fn clear(&mut self) {
        self.users.clear();
        self.offsets.clear();
        self.offsets.push(0);
        self.objects.clear();
        self.values.clear();
        self.object_counts.iter_mut().for_each(|c| *c = 0);
        self.leaf_starts.clear();
    }

    /// Merge per-shard claim sets into the canonical batch: users in
    /// ascending id regardless of which shard owned them or the order
    /// entries were pushed within a shard.
    ///
    /// Two passes. The first walks every shard's rows in shard/push
    /// order and claims each user's slot — a user outside the population
    /// or a slot claimed twice is reported for the first row that does it
    /// — and is all that looks at a row's *user*. The second walks the
    /// claimed slots ascending and copies each row's columns across,
    /// validating every *cell* on the way (object range, then
    /// finiteness, then a repeated object, in the order the claims were
    /// pushed): a row already ascending by object is two slice copies,
    /// any other goes through the sort buffer. Nothing a shard pushed is
    /// trusted, and nothing is checked twice.
    ///
    /// # Errors
    ///
    /// [`TruthError::UserOutOfRange`] for a user outside the population,
    /// [`TruthError::DuplicateObservation`] if two shards (or two claims)
    /// cover the same slot or cell — an empty claim list still occupies
    /// its user's slot — [`TruthError::EmptyMatrix`] for a zero-object
    /// epoch, [`TruthError::ObjectOutOfRange`] /
    /// [`TruthError::NonFiniteObservation`] for bad cells.
    pub fn load_shards(&mut self, shards: &[ShardClaims]) -> Result<(), TruthError> {
        self.clear();
        // Pass 1 — slot occupancy, in shard/push order so the first
        // conflicting entry is the one reported.
        self.slot_gen += 1;
        let gen = self.slot_gen;
        for (s, shard) in shards.iter().enumerate() {
            for e in 0..shard.num_users() {
                let (user, objects, _) = shard.row(e);
                if user >= self.num_users {
                    return Err(TruthError::UserOutOfRange {
                        user,
                        num_users: self.num_users,
                    });
                }
                if self.slot_stamp[user] == gen {
                    return Err(TruthError::DuplicateObservation {
                        user,
                        object: objects.first().copied().unwrap_or(0),
                    });
                }
                self.slot_stamp[user] = gen;
                self.slot_ref[user] = (s as u32, e as u32);
            }
        }
        if self.num_objects == 0 {
            return Err(TruthError::EmptyMatrix);
        }
        // Pass 2 — canonical order: users ascending, each row validated
        // once and copied column to column. Shards that emit their rows
        // users-ascending (the engine's do) are read front to back.
        self.reserve_for(shards);
        for user in 0..self.num_users {
            if self.slot_stamp[user] != gen {
                continue;
            }
            let (s, e) = self.slot_ref[user];
            let (_, objects, values) = shards[s as usize].row(e as usize);
            self.push_row(user, objects, values)?;
        }
        self.seal();
        Ok(())
    }

    /// Grow the columns once to what this epoch needs, so a campaign's
    /// largest round sizes the arena instead of every round doubling
    /// into it.
    fn reserve_for(&mut self, shards: &[ShardClaims]) {
        let rows: usize = shards.iter().map(ShardClaims::num_users).sum();
        let cells: usize = shards.iter().map(ShardClaims::num_claims).sum();
        self.users.reserve(rows);
        self.offsets.reserve(rows);
        self.objects.reserve(cells);
        self.values.reserve(cells);
    }

    /// Load pre-sorted `(user, claims)` rows — strictly ascending by user
    /// id — straight into the arena, for a caller that already holds its
    /// rows in canonical order and so needs no slot pass. Cells are
    /// validated exactly as in [`ColumnarBatch::load_shards`].
    ///
    /// # Errors
    ///
    /// [`TruthError::UserOutOfRange`] for a user outside the population,
    /// [`TruthError::DuplicateObservation`] if the rows are not strictly
    /// ascending (or a user claims an object twice),
    /// [`TruthError::EmptyMatrix`] for a zero-object epoch, and cell
    /// errors as in [`ColumnarBatch::load_shards`].
    pub fn load_rows<'a, I>(&mut self, rows: I) -> Result<(), TruthError>
    where
        I: IntoIterator<Item = (usize, &'a [(usize, f64)])>,
    {
        self.clear();
        if self.num_objects == 0 {
            return Err(TruthError::EmptyMatrix);
        }
        let mut last: Option<usize> = None;
        let (mut objects, mut values) = (Vec::new(), Vec::new());
        for (user, claims) in rows {
            if user >= self.num_users {
                return Err(TruthError::UserOutOfRange {
                    user,
                    num_users: self.num_users,
                });
            }
            if last.is_some_and(|prev| prev >= user) {
                return Err(TruthError::DuplicateObservation {
                    user,
                    object: claims.first().map(|&(n, _)| n).unwrap_or(0),
                });
            }
            last = Some(user);
            objects.clear();
            objects.extend(claims.iter().map(|&(object, _)| object));
            values.clear();
            values.extend(claims.iter().map(|&(_, value)| value));
            self.push_row(user, &objects, &values)?;
        }
        self.seal();
        Ok(())
    }

    /// Load a dense batch (the single-process reference path). The matrix
    /// validated its cells on insert, so only layout work happens here.
    pub fn load_matrix(&mut self, batch: &ObservationMatrix) {
        debug_assert_eq!(batch.num_users(), self.num_users);
        debug_assert_eq!(batch.num_objects(), self.num_objects);
        self.clear();
        for user in 0..self.num_users {
            let start = self.objects.len();
            for (object, value) in batch.observations_of_user(user) {
                self.objects.push(object);
                self.values.push(value);
                self.object_counts[object] += 1;
            }
            if self.objects.len() > start {
                self.users.push(user);
                self.offsets.push(self.objects.len());
            }
        }
        self.seal();
    }

    /// Validate one user's claims and append them. This is the only door
    /// into the columns for claims that did not come out of a validated
    /// [`ObservationMatrix`]: every cell is checked here, once, in the
    /// order it was pushed — object range, then finiteness, then
    /// duplicate cell. A row already ascending by object (what every
    /// shard emits for a well-formed report) is then two slice copies;
    /// any other row goes through the sort buffer.
    fn push_row(
        &mut self,
        user: usize,
        objects: &[usize],
        values: &[f64],
    ) -> Result<(), TruthError> {
        self.cell_gen += 1;
        let mut ascending = true;
        let mut prev = 0;
        for (k, (&object, &value)) in objects.iter().zip(values).enumerate() {
            if object >= self.num_objects {
                return Err(TruthError::ObjectOutOfRange {
                    object,
                    num_objects: self.num_objects,
                });
            }
            if !value.is_finite() {
                return Err(TruthError::NonFiniteObservation {
                    user,
                    object,
                    value,
                });
            }
            if self.cell_stamp[object] == self.cell_gen {
                return Err(TruthError::DuplicateObservation { user, object });
            }
            self.cell_stamp[object] = self.cell_gen;
            self.object_counts[object] += 1;
            ascending &= k == 0 || prev < object;
            prev = object;
        }
        if ascending {
            self.objects.extend_from_slice(objects);
            self.values.extend_from_slice(values);
        } else {
            self.sort_buf.clear();
            self.sort_buf
                .extend(objects.iter().copied().zip(values.iter().copied()));
            self.sort_buf.sort_unstable_by_key(|&(object, _)| object);
            self.objects
                .extend(self.sort_buf.iter().map(|&(object, _)| object));
            self.values
                .extend(self.sort_buf.iter().map(|&(_, value)| value));
        }
        self.users.push(user);
        self.offsets.push(self.objects.len());
        Ok(())
    }

    /// Compute the leaf boundaries over the (ascending) `users` array.
    fn seal(&mut self) {
        let num_leaves = self.num_leaves();
        self.leaf_starts.push(0);
        let mut next_bound = LEAF_SPAN;
        for (idx, &user) in self.users.iter().enumerate() {
            while user >= next_bound {
                self.leaf_starts.push(idx);
                next_bound += LEAF_SPAN;
            }
        }
        while self.leaf_starts.len() <= num_leaves {
            self.leaf_starts.push(self.users.len());
        }
    }

    /// Every object must have at least one claim this epoch.
    pub fn validate_coverage(&self) -> Result<(), TruthError> {
        for (object, &count) in self.object_counts.iter().enumerate() {
            if count == 0 {
                return Err(TruthError::UnobservedObject { object });
            }
        }
        Ok(())
    }

    #[inline]
    fn for_leaf_claims(&self, leaf: usize, mut f: impl FnMut(usize, usize, f64)) {
        for i in self.leaf_starts[leaf]..self.leaf_starts[leaf + 1] {
            let user = self.users[i];
            for k in self.offsets[i]..self.offsets[i + 1] {
                f(user, self.objects[k], self.values[k]);
            }
        }
    }

    /// Compute one `part_len`-wide partial per leaf, distributing leaves
    /// over `workers` threads in contiguous chunks. Which worker computes
    /// which leaf cannot affect any result: partials are folded later at
    /// fixed tree positions.
    fn leaf_partials<F>(&self, workers: usize, part_len: usize, fill: F) -> Vec<Vec<f64>>
    where
        F: Fn(usize, &mut [f64]) + Sync,
    {
        let num_leaves = self.num_leaves();
        let mut parts: Vec<Vec<f64>> = (0..num_leaves).map(|_| vec![0.0; part_len]).collect();
        if workers <= 1 || num_leaves <= 1 {
            for (leaf, part) in parts.iter_mut().enumerate() {
                fill(leaf, part);
            }
        } else {
            let chunk = num_leaves.div_ceil(workers.min(num_leaves));
            std::thread::scope(|scope| {
                for (c, slice) in parts.chunks_mut(chunk).enumerate() {
                    let fill = &fill;
                    scope.spawn(move || {
                        for (i, part) in slice.iter_mut().enumerate() {
                            fill(c * chunk + i, part);
                        }
                    });
                }
            });
        }
        parts
    }

    /// Per-object standard deviations (population, two-pass), folded over
    /// the reduction tree. Objects with fewer than two claims — or with a
    /// spread at floating-point noise level — report `1.0`, matching
    /// [`ObservationMatrix::object_std_devs`].
    pub fn object_std_devs(&self, workers: usize) -> Vec<f64> {
        let sums = tree_fold(self.leaf_partials(workers, self.num_objects, |leaf, part| {
            self.for_leaf_claims(leaf, |_, object, value| part[object] += value);
        }));
        let means: Vec<f64> = (0..self.num_objects)
            .map(|n| {
                if self.object_counts[n] == 0 {
                    0.0
                } else {
                    sums[n] / self.object_counts[n] as f64
                }
            })
            .collect();
        let devs = tree_fold(self.leaf_partials(workers, self.num_objects, |leaf, part| {
            self.for_leaf_claims(leaf, |_, object, value| {
                part[object] += (value - means[object]).powi(2);
            });
        }));
        (0..self.num_objects)
            .map(|n| {
                if self.object_counts[n] < 2 {
                    return 1.0;
                }
                let sd = (devs[n] / self.object_counts[n] as f64).sqrt();
                if sd > 1e-12 {
                    sd
                } else {
                    1.0
                }
            })
            .collect()
    }

    /// Weighted mean per object: per-leaf `(numerator, denominator)`
    /// pairs folded over the reduction tree.
    ///
    /// # Errors
    ///
    /// [`TruthError::Degenerate`] if an object's total weight is not
    /// positive.
    pub fn weighted_truths(&self, weights: &[f64], workers: usize) -> Result<Vec<f64>, TruthError> {
        let parts = tree_fold(
            self.leaf_partials(workers, 2 * self.num_objects, |leaf, part| {
                self.for_leaf_claims(leaf, |user, object, value| {
                    let w = weights[user];
                    part[2 * object] += w * value;
                    part[2 * object + 1] += w;
                });
            }),
        );
        (0..self.num_objects)
            .map(|n| {
                let (num, den) = (parts[2 * n], parts[2 * n + 1]);
                if den <= 0.0 {
                    return Err(TruthError::Degenerate {
                        reason: "total weight on a streamed object is not positive",
                    });
                }
                Ok(num / den)
            })
            .collect()
    }

    /// Add each user's epoch loss into `acc` (one slot per user in the
    /// population). No fold is needed: each user is written by exactly
    /// one leaf, so leaves are parallelised as disjoint `&mut` ranges of
    /// `acc` — summation order per user is claim order (ascending object)
    /// no matter how leaves are scheduled.
    pub fn accumulate_losses(
        &self,
        truths: &[f64],
        stds: &[f64],
        loss: Loss,
        acc: &mut [f64],
        workers: usize,
    ) {
        debug_assert_eq!(acc.len(), self.num_users);
        let num_leaves = self.num_leaves();
        if workers <= 1 || num_leaves <= 1 {
            self.accumulate_losses_leaves(0, num_leaves, truths, stds, loss, acc, 0);
            return;
        }
        let chunk = num_leaves.div_ceil(workers.min(num_leaves));
        std::thread::scope(|scope| {
            let mut rest = acc;
            let mut leaf = 0;
            while leaf < num_leaves {
                let hi = (leaf + chunk).min(num_leaves);
                let user_lo = leaf * LEAF_SPAN;
                let user_hi = (hi * LEAF_SPAN).min(self.num_users);
                let (mine, next) = rest.split_at_mut(user_hi - user_lo);
                rest = next;
                scope.spawn(move || {
                    self.accumulate_losses_leaves(leaf, hi, truths, stds, loss, mine, user_lo);
                });
                leaf = hi;
            }
        });
    }

    #[allow(clippy::too_many_arguments)]
    fn accumulate_losses_leaves(
        &self,
        leaf_lo: usize,
        leaf_hi: usize,
        truths: &[f64],
        stds: &[f64],
        loss: Loss,
        acc: &mut [f64],
        acc_base: usize,
    ) {
        for i in self.leaf_starts[leaf_lo]..self.leaf_starts[leaf_hi] {
            let user_loss = &mut acc[self.users[i] - acc_base];
            for k in self.offsets[i]..self.offsets[i + 1] {
                let n = self.objects[k];
                *user_loss += loss.distance(self.values[k], truths[n], stds[n]);
            }
        }
    }
}

/// What [`ColumnarBatch::load_shards`] would refuse in one user's claim
/// list, without a batch: the same checks in the same order — per claim
/// object range then finiteness, then a repeated object — and the same
/// error. For a door that wants to turn a malformed report away before
/// it can fail a whole epoch's merge.
///
/// # Errors
///
/// [`TruthError::ObjectOutOfRange`], [`TruthError::NonFiniteObservation`]
/// or [`TruthError::DuplicateObservation`] for the first defect found.
pub fn check_claims(
    user: usize,
    claims: &[(usize, f64)],
    num_objects: usize,
) -> Result<(), TruthError> {
    // The first cell that is bad on its own, if any; a repeat only counts
    // if it comes before that.
    let cell_defect = claims.iter().enumerate().find_map(|(k, &(object, value))| {
        if object >= num_objects {
            Some((
                k,
                TruthError::ObjectOutOfRange {
                    object,
                    num_objects,
                },
            ))
        } else if !value.is_finite() {
            Some((
                k,
                TruthError::NonFiniteObservation {
                    user,
                    object,
                    value,
                },
            ))
        } else {
            None
        }
    });
    let head = &claims[..cell_defect.as_ref().map_or(claims.len(), |&(k, _)| k)];
    // Ascending (every well-formed report) cannot repeat; otherwise sort
    // `(object, position)` and take the earliest second occurrence.
    if !head.windows(2).all(|w| w[0].0 < w[1].0) {
        let mut order: Vec<(usize, usize)> = head
            .iter()
            .enumerate()
            .map(|(k, &(object, _))| (object, k))
            .collect();
        order.sort_unstable();
        let repeat = order.windows(2).filter(|w| w[0].0 == w[1].0);
        if let Some(k) = repeat.map(|w| w[1].1).min() {
            return Err(TruthError::DuplicateObservation {
                user,
                object: head[k].0,
            });
        }
    }
    cell_defect.map_or(Ok(()), |(_, defect)| Err(defect))
}

/// Fold per-leaf partials pairwise in fixed leaf order: level 0 combines
/// leaf 0+1, 2+3, …; each level repeats one step up. The shape is a pure
/// function of the leaf count.
fn tree_fold(mut parts: Vec<Vec<f64>>) -> Vec<f64> {
    while parts.len() > 1 {
        let mut next = Vec::with_capacity(parts.len().div_ceil(2));
        let mut it = parts.into_iter();
        while let Some(mut a) = it.next() {
            if let Some(b) = it.next() {
                for (x, y) in a.iter_mut().zip(&b) {
                    *x += *y;
                }
            }
            next.push(a);
        }
        parts = next;
    }
    parts.pop().unwrap_or_default()
}

/// Resolve a requested worker count against the batch at hand: `0` means
/// auto (capped at [`MAX_AUTO_WORKERS`]); small batches always run
/// single-threaded. Purely a scheduling decision — bitwise results are
/// worker-count-independent by construction.
pub fn effective_workers(requested: usize, num_claims: usize, num_leaves: usize) -> usize {
    let w = if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(MAX_AUTO_WORKERS)
    } else {
        requested
    };
    if num_claims < PAR_CLAIM_THRESHOLD {
        1
    } else {
        w.min(num_leaves).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noise(seed: u64, user: usize, object: usize) -> f64 {
        // Cheap deterministic pseudo-noise; no RNG dependency needed.
        let h = seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(user as u64 * 31 + object as u64 * 7);
        (h % 1000) as f64 / 1000.0
    }

    fn batch_of(num_users: usize, num_objects: usize, seed: u64) -> ColumnarBatch {
        let mut shard = ShardClaims::new();
        for user in 0..num_users {
            let claims: Vec<(usize, f64)> = (0..num_objects)
                .map(|n| (n, n as f64 + noise(seed, user, n)))
                .collect();
            shard.push(user, claims);
        }
        let mut b = ColumnarBatch::new(num_users, num_objects);
        b.load_shards(std::slice::from_ref(&shard)).unwrap();
        b
    }

    #[test]
    fn worker_count_cannot_change_any_kernel_result() {
        // Straddle several leaf boundaries so the tree is non-trivial.
        let b = batch_of(3 * LEAF_SPAN + 17, 4, 7);
        let weights: Vec<f64> = (0..b.num_users()).map(|u| 1.0 + (u % 7) as f64).collect();
        let stds_1 = b.object_std_devs(1);
        let truths_1 = b.weighted_truths(&weights, 1).unwrap();
        let mut acc_1 = vec![0.0; b.num_users()];
        b.accumulate_losses(&truths_1, &stds_1, Loss::Squared, &mut acc_1, 1);
        for workers in 2..=8 {
            assert_eq!(stds_1, b.object_std_devs(workers), "stds w={workers}");
            assert_eq!(
                truths_1,
                b.weighted_truths(&weights, workers).unwrap(),
                "truths w={workers}"
            );
            let mut acc = vec![0.0; b.num_users()];
            b.accumulate_losses(&truths_1, &stds_1, Loss::Squared, &mut acc, workers);
            assert_eq!(acc_1, acc, "losses w={workers}");
        }
    }

    #[test]
    fn arena_reload_is_stateless() {
        // Loading epoch B into a dirty arena equals loading it fresh.
        let fresh = batch_of(2 * LEAF_SPAN, 3, 11);
        let mut reused = batch_of(2 * LEAF_SPAN, 3, 99);
        let mut shard = ShardClaims::new();
        for user in 0..2 * LEAF_SPAN {
            let claims: Vec<(usize, f64)> =
                (0..3).map(|n| (n, n as f64 + noise(11, user, n))).collect();
            shard.push(user, claims);
        }
        reused.load_shards(std::slice::from_ref(&shard)).unwrap();
        assert_eq!(fresh.users(), reused.users());
        assert_eq!(fresh.num_claims(), reused.num_claims());
        assert_eq!(fresh.object_std_devs(1), reused.object_std_devs(1));
    }

    #[test]
    fn tree_fold_shape_is_leaf_count_only() {
        // 5 leaves: ((0+1)+(2+3))+4 — verify against the hand-computed
        // fold, which a flat left-to-right sum would not reproduce.
        let leaves: Vec<Vec<f64>> = vec![vec![1e16], vec![1.0], vec![-1e16], vec![1.0], vec![3.0]];
        let l01: f64 = 1e16 + 1.0;
        let l23: f64 = -1e16 + 1.0;
        let expected: f64 = (l01 + l23) + 3.0;
        assert_eq!(tree_fold(leaves)[0].to_bits(), expected.to_bits());
    }

    #[test]
    fn claims_are_canonicalised_ascending_by_object() {
        let mut shard = ShardClaims::new();
        shard.push(0, vec![(2, 2.0), (0, 0.5), (1, 1.5)]);
        let mut b = ColumnarBatch::new(1, 3);
        b.load_shards(std::slice::from_ref(&shard)).unwrap();
        assert_eq!(b.objects, vec![0, 1, 2]);
        assert_eq!(b.values, vec![0.5, 1.5, 2.0]);
    }

    #[test]
    fn check_claims_refuses_what_load_shards_refuses_with_the_same_error() {
        let inf = f64::INFINITY;
        let rows: [&[(usize, f64)]; 9] = [
            &[],
            &[(0, 1.0), (2, 2.0)],
            &[(2, 1.0), (0, 2.0), (1, 0.5)],
            &[(7, 1.0), (1, inf)],
            &[(1, inf), (7, 1.0)],
            &[(0, 1.0), (0, inf)],
            &[(0, 1.0), (0, 2.0), (9, 1.0)],
            &[(2, 1.0), (0, 2.0), (2, 3.0), (0, 4.0)],
            &[(1, 1.0), (2, 1.0), (1, 1.0), (9, inf)],
        ];
        for claims in rows {
            let mut shard = ShardClaims::new();
            shard.push(5, claims.to_vec());
            let mut batch = ColumnarBatch::new(8, 3);
            assert_eq!(
                check_claims(5, claims, 3),
                batch.load_shards(std::slice::from_ref(&shard)),
                "{claims:?}"
            );
        }
    }

    #[test]
    fn small_batches_resolve_to_one_worker() {
        assert_eq!(effective_workers(8, 10, 4), 1);
        assert_eq!(effective_workers(1, 1 << 20, 400), 1);
        assert!(effective_workers(0, 1 << 20, 400) >= 1);
        assert_eq!(effective_workers(6, 1 << 20, 2), 2);
    }
}
