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
//!
//! Every kernel takes and produces **one slot per row** (per reporting
//! user), never one per member of the population: a round in which 2 %
//! of the population reports reads and writes 2 % of it here. What a
//! round must still pay per population member — the loss total and the
//! weight refresh — lives in [`crate::streaming`].
//!
//! # Finding the reporters
//!
//! [`ColumnarBatch::load_shards`] keeps no per-user index beside a
//! one-bit-per-user occupancy bitmap: the first pass test-and-sets a
//! user's bit (a bit already set is a repeated slot) and notes whether
//! each shard's users ascend. The rows are then laid out a leaf at a
//! time: a cursor per shard moves that shard's rows in the leaf into a
//! 256-entry table on the stack, and the leaf's four occupancy words
//! read the table back users ascending, with `trailing_zeros`. A leaf
//! with no bit set is skipped on its four words, so the layout costs
//! `num_users / 64` word reads plus one step per reporter and one per
//! shard per occupied leaf. A shard pushed out of user order (the
//! public API allows it; the engine's shards and a coordinator's nodes
//! never do) is first given a row permutation of its own.
//!
//! # Copying the claims
//!
//! With every row's place known up front, the second pass — validate
//! each cell, copy the row, sort it if it was pushed out of order — runs
//! on the merge workers, over contiguous runs of rows, each writing its
//! own slice of the columns (the caller takes the last run). The columns
//! are reused from epoch to epoch without being cleared, and the rows
//! are checked in users-ascending order within each run, so the first
//! error of the lowest run is the one a single thread would have met
//! first.

use crate::loss::Loss;
use crate::matrix::ObservationMatrix;
use crate::streaming::{narrow_object, ShardClaims};
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

/// The largest claim magnitude a batch admits: [`check_claims`] and
/// [`ColumnarBatch::load_shards`] refuse any `|value|` above it, in the
/// slot where they refuse a non-finite one.
///
/// Derived so that no cumulative loss can overflow. A truth is a
/// weighted mean of claims, so `|claim − truth| <= 2e100`, and the
/// largest one-claim loss is [`Loss::NormalizedSquared`]'s
/// `(2e100)² / 1e-12 = 4e212` (its spread floor is `1e-12`). Summing
/// `2^64` such losses — more claims than any population at
/// `host::MAX_USERS_PER_CAMPAIGN` can make — stays below `7.4e231`,
/// far under `f64::MAX ≈ 1.8e308`; so do the weighted sums
/// (`≤ 27.7 · 1e100` a claim) and the spread sums (`≤ 4e200` a claim).
pub const MAX_CLAIM_MAGNITUDE: f64 = 1e100;

/// One epoch of claims in columnar (CSR / struct-of-arrays) form, with
/// arena-style buffer reuse: call [`ColumnarBatch::load_shards`] or
/// [`ColumnarBatch::load_matrix`] each epoch and the backing buffers are
/// recycled instead of reallocated.
///
/// Layout: `users` holds the distinct reporting users in ascending id
/// order (a user that occupied a slot with an *empty* claim list is still
/// present); `offsets[i]..offsets[i + 1]` indexes that user's claims in
/// the parallel `objects` (`u32`) / `values` (`f64`) arrays, sorted
/// ascending by object — 12 bytes a claim, 16 more a reporting user. A
/// [`ShardClaims`] has the same four columns, in push order and
/// unvalidated, so loading one is a column-to-column copy. An object id
/// is widened to `usize` only where a kernel indexes by it.
///
/// The arena is meant to outlive the epoch: it keeps one occupancy bit
/// a user, and every other buffer — the columns, and the 8-byte
/// `(shard, row)` source of each row that a load lays out (4 more bytes
/// a row for a shard pushed out of user order) — is sized by the rows
/// and keeps the capacity of the largest epoch loaded so far.
#[derive(Debug, Clone)]
pub struct ColumnarBatch {
    num_users: usize,
    num_objects: usize,
    users: Vec<usize>,
    offsets: Vec<usize>,
    objects: Vec<u32>,
    values: Vec<f64>,
    object_counts: Vec<usize>,
    /// `leaf_starts[l]..leaf_starts[l + 1]` indexes `users` for leaf `l`.
    leaf_starts: Vec<usize>,
    /// One bit per user: set while the user holds a slot this epoch.
    occupied: Vec<u64>,
    /// The `(shard, row)` each canonical row is copied from.
    sources: Vec<(u32, u32)>,
    /// The rows of each shard not pushed users-ascending, in user order.
    reordered: Vec<u32>,
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
            occupied: vec![0; num_users.div_ceil(64)],
            sources: Vec::new(),
            reordered: Vec::new(),
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
        self.offsets[self.users.len()]
    }

    /// The epoch's four columns, as [`ShardClaims::columns`] lays them
    /// out: the users ascending, the `users().len() + 1` row offsets
    /// (from 0), and every claim's object and value, ascending by object
    /// within a row.
    pub fn columns(&self) -> (&[usize], &[usize], &[u32], &[f64]) {
        let cells = self.num_claims();
        (
            &self.users,
            &self.offsets,
            &self.objects[..cells],
            &self.values[..cells],
        )
    }

    /// Leaves in the reduction tree — `ceil(num_users / LEAF_SPAN)`, a
    /// pure function of the population size.
    pub fn num_leaves(&self) -> usize {
        self.num_users.div_ceil(LEAF_SPAN)
    }

    /// Empty the row columns. The claim columns keep their length: each
    /// loader sizes them, and only `offsets` says which cells are live.
    fn clear(&mut self) {
        self.users.clear();
        self.offsets.clear();
        self.offsets.push(0);
        self.object_counts.iter_mut().for_each(|c| *c = 0);
        self.leaf_starts.clear();
    }

    /// Merge per-shard claim sets into the canonical batch: users in
    /// ascending id regardless of which shard owned them or the order
    /// entries were pushed within a shard.
    ///
    /// Two passes. The first walks every shard's rows in shard/push
    /// order and sets each user's occupancy bit — a user outside the
    /// population or a bit already set is reported for the first row
    /// that does it — and is all that checks a row's *user*. A serial
    /// walk of the occupied leaves then lays out the canonical user order
    /// and where each row's cells start. The second pass copies each
    /// row's columns across, validating every *cell* on the way (object
    /// range, then finiteness and magnitude, then a repeated object, in
    /// the order the claims were pushed): a row already ascending by
    /// object is two slice copies, any other is sorted first. It runs
    /// over contiguous runs of rows, one per merge worker (auto, as the
    /// kernels pick at `0`, so an epoch under the parallel threshold
    /// stays on the caller, which always takes the last run); each run
    /// writes its own cells, and the lowest run's error is the one
    /// returned — the first bad row users ascending, as if one thread
    /// had walked them all. Nothing a shard pushed is trusted, and
    /// nothing is checked twice.
    ///
    /// A refused epoch leaves the batch empty: no users, no claims.
    ///
    /// # Errors
    ///
    /// [`TruthError::UserOutOfRange`] for a user outside the population,
    /// [`TruthError::DuplicateObservation`] if two shards (or two claims)
    /// cover the same slot or cell — an empty claim list still occupies
    /// its user's slot — [`TruthError::EmptyMatrix`] for a zero-object
    /// epoch, [`TruthError::ObjectOutOfRange`] /
    /// [`TruthError::NonFiniteObservation`] /
    /// [`TruthError::ObservationOutOfBounds`] for bad cells.
    pub fn load_shards(&mut self, shards: &[ShardClaims]) -> Result<(), TruthError> {
        self.clear();
        // A refused epoch may leave bits behind; `num_users / 64` words
        // is the whole price of starting from an empty bitmap.
        self.occupied.fill(0);
        // Pass 1 — slot occupancy, in shard/push order so the first
        // conflicting entry is the one reported. Each shard's rows are
        // then read in user order: in push order if that ascends (the
        // engine's shards and a coordinator's nodes do), else through a
        // permutation of their own in `reordered`. A lane is the shard's
        // next row in that order and where its permutation starts.
        self.reordered.clear();
        let mut lanes: Vec<(usize, Option<usize>)> = Vec::with_capacity(shards.len());
        for shard in shards {
            let (users, offsets, objects, _) = shard.columns();
            for (e, &user) in users.iter().enumerate() {
                if user >= self.num_users {
                    return Err(TruthError::UserOutOfRange {
                        user,
                        num_users: self.num_users,
                    });
                }
                let (word, bit) = (user / 64, 1u64 << (user % 64));
                let bits = &mut self.occupied[word];
                if *bits & bit != 0 {
                    let first = objects[offsets[e]..offsets[e + 1]].first();
                    return Err(TruthError::DuplicateObservation {
                        user,
                        object: first.map_or(0, |&object| object as usize),
                    });
                }
                *bits |= bit;
            }
            let ascending = users.windows(2).all(|w| w[0] < w[1]);
            let base = (!ascending).then(|| {
                let base = self.reordered.len();
                self.reordered.extend(0..users.len() as u32);
                self.reordered[base..].sort_unstable_by_key(|&e| users[e as usize]);
                base
            });
            lanes.push((0, base));
        }
        if self.num_objects == 0 {
            return Err(TruthError::EmptyMatrix);
        }
        // Canonical order, a leaf at a time: every shard's rows in the
        // leaf go into a table by user, and the leaf's occupancy words
        // read it back users ascending, each row's cells placed from its
        // length alone.
        self.sources.clear();
        let mut table = [(0u32, 0u32); LEAF_SPAN];
        let mut end = 0;
        for (leaf, words) in self.occupied.chunks(LEAF_SPAN / 64).enumerate() {
            if words.iter().all(|&word| word == 0) {
                continue;
            }
            let bound = (leaf + 1) * LEAF_SPAN;
            for (s, (shard, (next, base))) in shards.iter().zip(&mut lanes).enumerate() {
                let users = shard.columns().0;
                while *next < users.len() {
                    let e = base.map_or(*next, |base| self.reordered[base + *next] as usize);
                    if users[e] >= bound {
                        break;
                    }
                    table[users[e] % LEAF_SPAN] = (s as u32, e as u32);
                    *next += 1;
                }
            }
            for (w, &word) in words.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let at = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let (s, e) = table[at];
                    let offsets = shards[s as usize].columns().1;
                    end += offsets[e as usize + 1] - offsets[e as usize];
                    self.users.push(leaf * LEAF_SPAN + at);
                    self.offsets.push(end);
                    self.sources.push((s, e));
                }
            }
        }
        // Pass 2 — reuse the columns as they are: `resize` only writes
        // the cells past last epoch's length, and every live cell is
        // overwritten below.
        self.objects.resize(end, 0);
        self.values.resize(end, 0.0);
        if let Err(e) = self.copy_rows(shards) {
            self.clear();
            return Err(e);
        }
        self.seal();
        Ok(())
    }

    /// Pass 2 of [`ColumnarBatch::load_shards`]: validate and copy every
    /// laid-out row, in contiguous runs of rows over the merge workers,
    /// and add up each run's per-object claim counts.
    fn copy_rows(&mut self, shards: &[ShardClaims]) -> Result<(), TruthError> {
        let rows = self.users.len();
        let workers = effective_workers(0, self.num_claims(), rows);
        let (num_objects, sources) = (self.num_objects, &self.sources[..]);
        let (users, offsets) = (&self.users[..], &self.offsets[..]);
        // One run: rows `lo..hi`, whose cells are `objects` / `values`.
        let copy_run = |lo: usize, hi: usize, objects: &mut [u32], values: &mut [f64]| {
            let mut counts = vec![0usize; num_objects];
            // The last row (1-based within the run) that named each object.
            let mut stamp = vec![0usize; num_objects];
            let mut sorted = Vec::new();
            for row in lo..hi {
                let user = users[row];
                let (s, e) = sources[row];
                let (_, row_objects, row_values) = shards[s as usize].row(e as usize);
                let mut ascending = true;
                let mut prev = 0;
                for (k, (&id, &value)) in row_objects.iter().zip(row_values).enumerate() {
                    let object = id as usize;
                    if object >= num_objects {
                        return Err(TruthError::ObjectOutOfRange {
                            object,
                            num_objects,
                        });
                    }
                    check_value(user, object, value)?;
                    if stamp[object] == row - lo + 1 {
                        return Err(TruthError::DuplicateObservation { user, object });
                    }
                    stamp[object] = row - lo + 1;
                    counts[object] += 1;
                    ascending &= k == 0 || prev < id;
                    prev = id;
                }
                let cells = offsets[row] - offsets[lo]..offsets[row + 1] - offsets[lo];
                if ascending {
                    objects[cells.clone()].copy_from_slice(row_objects);
                    values[cells].copy_from_slice(row_values);
                } else {
                    sorted.clear();
                    sorted.extend(row_objects.iter().copied().zip(row_values.iter().copied()));
                    sorted.sort_unstable_by_key(|&(object, _)| object);
                    let out = objects[cells.clone()].iter_mut().zip(&mut values[cells]);
                    for ((o, v), &(object, value)) in out.zip(&sorted) {
                        (*o, *v) = (object, value);
                    }
                }
            }
            Ok(counts)
        };
        let mut runs = Vec::with_capacity(workers);
        let (mut objects, mut values) = (&mut self.objects[..], &mut self.values[..]);
        for t in 0..workers {
            let (lo, hi) = (rows * t / workers, rows * (t + 1) / workers);
            let (mine, rest) = objects.split_at_mut(offsets[hi] - offsets[lo]);
            objects = rest;
            let (mine_values, rest) = values.split_at_mut(mine.len());
            values = rest;
            runs.push((lo, hi, mine, mine_values));
        }
        let copy_run = &copy_run;
        let (lo, hi, objects, values) = runs.pop().expect("at least one worker");
        let counts = std::thread::scope(|scope| {
            let spawned: Vec<_> = runs
                .into_iter()
                .map(|(lo, hi, o, v)| scope.spawn(move || copy_run(lo, hi, o, v)))
                .collect();
            let mine = copy_run(lo, hi, objects, values);
            spawned
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .chain([mine])
                .collect::<Vec<_>>()
        });
        // Runs in row order: the first error met is the lowest user's.
        for run in counts {
            for (total, n) in self.object_counts.iter_mut().zip(run?) {
                *total += n;
            }
        }
        Ok(())
    }

    /// Load a dense batch (the single-process reference path). The matrix
    /// validated its cells on insert, so only layout work happens here.
    pub fn load_matrix(&mut self, batch: &ObservationMatrix) {
        debug_assert_eq!(batch.num_users(), self.num_users);
        debug_assert_eq!(batch.num_objects(), self.num_objects);
        self.clear();
        self.objects.clear();
        self.values.clear();
        for user in 0..self.num_users {
            let start = self.objects.len();
            for (object, value) in batch.observations_of_user(user) {
                self.objects.push(narrow_object(object));
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

    /// Visit leaf `leaf`'s claims as `(row, object, value)`, rows
    /// ascending and claims ascending by object within a row.
    #[inline]
    fn for_leaf_claims(&self, leaf: usize, mut f: impl FnMut(usize, usize, f64)) {
        for row in self.leaf_starts[leaf]..self.leaf_starts[leaf + 1] {
            for k in self.offsets[row]..self.offsets[row + 1] {
                f(row, self.objects[k] as usize, self.values[k]);
            }
        }
    }

    /// Compute one `part_len`-wide partial per leaf into one flat
    /// `num_leaves × part_len` buffer (leaf `l` at `l * part_len`),
    /// distributing leaves over `workers` threads in contiguous chunks.
    /// Which worker computes which leaf cannot affect any result:
    /// partials are folded later at fixed tree positions.
    fn leaf_partials<F>(&self, workers: usize, part_len: usize, fill: F) -> Vec<f64>
    where
        F: Fn(usize, &mut [f64]) + Sync,
    {
        let num_leaves = self.num_leaves();
        let mut parts = vec![0.0; num_leaves * part_len];
        if part_len == 0 {
            return parts;
        }
        if workers <= 1 || num_leaves <= 1 {
            for (leaf, part) in parts.chunks_mut(part_len).enumerate() {
                fill(leaf, part);
            }
        } else {
            let chunk = num_leaves.div_ceil(workers.min(num_leaves));
            std::thread::scope(|scope| {
                for (c, slice) in parts.chunks_mut(chunk * part_len).enumerate() {
                    let fill = &fill;
                    scope.spawn(move || {
                        for (i, part) in slice.chunks_mut(part_len).enumerate() {
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
        let part_len = self.num_objects;
        let sums = tree_fold(
            self.leaf_partials(workers, part_len, |leaf, part| {
                self.for_leaf_claims(leaf, |_, object, value| part[object] += value);
            }),
            part_len,
        );
        let means: Vec<f64> = (0..self.num_objects)
            .map(|n| {
                if self.object_counts[n] == 0 {
                    0.0
                } else {
                    sums[n] / self.object_counts[n] as f64
                }
            })
            .collect();
        let devs = tree_fold(
            self.leaf_partials(workers, part_len, |leaf, part| {
                self.for_leaf_claims(leaf, |_, object, value| {
                    part[object] += (value - means[object]).powi(2);
                });
            }),
            part_len,
        );
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

    /// Weighted mean per object under `row_weights` — one weight per
    /// row, in [`ColumnarBatch::users`] order: per-leaf `(numerator,
    /// denominator)` pairs folded over the reduction tree.
    ///
    /// # Errors
    ///
    /// [`TruthError::Degenerate`] if an object's total weight is not
    /// positive.
    pub fn weighted_truths(
        &self,
        row_weights: &[f64],
        workers: usize,
    ) -> Result<Vec<f64>, TruthError> {
        debug_assert_eq!(row_weights.len(), self.users.len());
        let part_len = 2 * self.num_objects;
        let parts = tree_fold(
            self.leaf_partials(workers, part_len, |leaf, part| {
                self.for_leaf_claims(leaf, |row, object, value| {
                    let w = row_weights[row];
                    part[2 * object] += w * value;
                    part[2 * object + 1] += w;
                });
            }),
            part_len,
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

    /// Add each row's epoch loss into `acc` — one slot per row, in
    /// [`ColumnarBatch::users`] order. No fold is needed: each row is
    /// written by exactly one leaf, so leaves are parallelised as
    /// disjoint `&mut` ranges of `acc` — summation order per row is
    /// claim order (ascending object) no matter how leaves are
    /// scheduled.
    pub fn accumulate_losses(
        &self,
        truths: &[f64],
        stds: &[f64],
        loss: Loss,
        acc: &mut [f64],
        workers: usize,
    ) {
        debug_assert_eq!(acc.len(), self.users.len());
        let num_leaves = self.num_leaves();
        let leaf_losses = |leaf_lo: usize, leaf_hi: usize, acc: &mut [f64]| {
            let base = self.leaf_starts[leaf_lo];
            for row in base..self.leaf_starts[leaf_hi] {
                let row_loss = &mut acc[row - base];
                for k in self.offsets[row]..self.offsets[row + 1] {
                    let n = self.objects[k] as usize;
                    *row_loss += loss.distance(self.values[k], truths[n], stds[n]);
                }
            }
        };
        if workers <= 1 || num_leaves <= 1 {
            leaf_losses(0, num_leaves, acc);
            return;
        }
        let chunk = num_leaves.div_ceil(workers.min(num_leaves));
        std::thread::scope(|scope| {
            let mut rest = acc;
            let mut leaf = 0;
            while leaf < num_leaves {
                let hi = (leaf + chunk).min(num_leaves);
                let rows = self.leaf_starts[hi] - self.leaf_starts[leaf];
                let (mine, next) = rest.split_at_mut(rows);
                rest = next;
                let leaf_losses = &leaf_losses;
                scope.spawn(move || leaf_losses(leaf, hi, mine));
                leaf = hi;
            }
        });
    }
}

/// The finiteness slot of the precedence order: a non-finite value,
/// else one beyond [`MAX_CLAIM_MAGNITUDE`]. One comparison admits every
/// good value — NaN and `±∞` fail it too.
fn check_value(user: usize, object: usize, value: f64) -> Result<(), TruthError> {
    if value.abs() <= MAX_CLAIM_MAGNITUDE {
        Ok(())
    } else if value.is_finite() {
        Err(TruthError::ObservationOutOfBounds {
            user,
            object,
            value,
        })
    } else {
        Err(TruthError::NonFiniteObservation {
            user,
            object,
            value,
        })
    }
}

/// What [`ColumnarBatch::load_shards`] would refuse in one user's claim
/// list, without a batch: the same checks in the same order — per claim
/// object range then finiteness and magnitude, then a repeated object —
/// and the same error. For a door that wants to turn a malformed report
/// away before it can fail a whole epoch's merge.
///
/// # Errors
///
/// [`TruthError::ObjectOutOfRange`], [`TruthError::NonFiniteObservation`],
/// [`TruthError::ObservationOutOfBounds`] or
/// [`TruthError::DuplicateObservation`] for the first defect found.
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
        } else {
            check_value(user, object, value)
                .err()
                .map(|defect| (k, defect))
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

/// Fold flat per-leaf partials (leaf `l` at `l * part_len`) pairwise in
/// fixed leaf order, in place: level 0 adds leaf 1 into leaf 0, leaf 3
/// into leaf 2, …; each level repeats one step up at twice the stride,
/// and the root ends in leaf 0's slot. The shape is a pure function of
/// the leaf count.
fn tree_fold(mut parts: Vec<f64>, part_len: usize) -> Vec<f64> {
    let num_leaves = parts.len().checked_div(part_len).unwrap_or(0);
    let mut stride = 1;
    while stride < num_leaves {
        for left in (0..num_leaves - stride).step_by(2 * stride) {
            let (head, tail) = parts.split_at_mut((left + stride) * part_len);
            let a = &mut head[left * part_len..][..part_len];
            for (x, y) in a.iter_mut().zip(&tail[..part_len]) {
                *x += *y;
            }
        }
        stride *= 2;
    }
    parts.truncate(part_len);
    parts
}

/// Resolve a requested worker count against the batch at hand: `0` means
/// auto (capped at `MAX_AUTO_WORKERS`, 8); small batches always run
/// single-threaded. Purely a scheduling decision — bitwise results are
/// worker-count-independent by construction.
pub fn effective_workers(requested: usize, num_claims: usize, num_leaves: usize) -> usize {
    if num_claims < PAR_CLAIM_THRESHOLD {
        1
    } else {
        resolve_workers(requested).min(num_leaves).max(1)
    }
}

/// A requested worker count with `0` (auto) resolved to the machine's
/// parallelism, capped at [`MAX_AUTO_WORKERS`].
pub(crate) fn resolve_workers(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(MAX_AUTO_WORKERS)
    } else {
        requested
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
        let leaves = vec![1e16, 1.0, -1e16, 1.0, 3.0];
        let l01: f64 = 1e16 + 1.0;
        let l23: f64 = -1e16 + 1.0;
        let expected: f64 = (l01 + l23) + 3.0;
        assert_eq!(tree_fold(leaves, 1)[0].to_bits(), expected.to_bits());
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
        let huge = 2.0 * MAX_CLAIM_MAGNITUDE;
        let rows: [&[(usize, f64)]; 13] = [
            &[],
            &[(0, 1.0), (2, 2.0)],
            &[(2, 1.0), (0, 2.0), (1, 0.5)],
            &[(7, 1.0), (1, inf)],
            &[(1, inf), (7, 1.0)],
            &[(0, 1.0), (0, inf)],
            &[(0, 1.0), (0, 2.0), (9, 1.0)],
            &[(2, 1.0), (0, 2.0), (2, 3.0), (0, 4.0)],
            &[(1, 1.0), (2, 1.0), (1, 1.0), (9, inf)],
            &[(0, MAX_CLAIM_MAGNITUDE), (1, -MAX_CLAIM_MAGNITUDE)],
            &[(1, -huge), (7, 1.0)],
            &[(0, 1.0), (0, huge)],
            &[(2, huge), (1, inf)],
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
