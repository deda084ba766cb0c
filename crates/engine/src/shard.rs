//! The round filter: per-shard ingestion state.
//!
//! This is the one implementation of the server's filter — keep each
//! user's first on-time report. The engine runs one per shard; a
//! cluster node runs one over its whole partition
//! (`ShardState::new(0, 1, local_users, ..)`, where a user is its local
//! slot).
//!
//! A shard owns the users whose id is congruent to its shard id modulo the
//! shard count, stored under a **dense local index** (`user / num_shards`)
//! so per-shard memory is proportional to the shard, not the population.
//!
//! Within an epoch a shard applies the epoch deadline, de-duplicates
//! first-wins (a late duplicate counts as late) on a one-bit-per-slot
//! bitmap, and **copies an accepted report's claims into its own
//! columnar arena** — a `u32` `objects` and an `f64` `values` column
//! filled in arrival order, each object id narrowed by [`narrow_object`]
//! — after which the report is garbage. Beside the bitmap it keeps only
//! the accepted slots in arrival order and where each one's claims end
//! in the arena (CSR, so a report's cells start where the one before it
//! ended).
//!
//! [`ShardState::claims`] copies the open epoch's rows into one
//! contiguous, users-ascending [`ShardClaims`] (a node's repeatable
//! prepare replies with it) without closing the epoch; at the epoch
//! boundary [`ShardState::finish_epoch`] emits the same copy for the
//! cross-shard merge, and [`ShardState::end_epoch`] closes the epoch
//! without one — a node commits the copy its last prepare already made.
//! The copy costs one step per accepted report plus one per 256-slot
//! block: the arrivals are bucketed by block (a counting sort into the
//! emitted users column, which the copy then overwrites), and each
//! block fills a 256-entry table on the stack from its arrivals and walks
//! its four bitmap words, so sparse and dense epochs take the same path.
//! Resetting for the next epoch clears the bitmap words that arrivals
//! touched and nothing else, so a `ShardState` is meant to live as long
//! as its campaign.
//!
//! Resident cost: one bit per owned user, plus 8 bytes per accepted
//! report (its slot and its arena end) and 12 bytes per claim for the
//! largest epoch seen.
//!
//! The references (`dptd_protocol::sim`, `dptd_protocol::campaign`)
//! apply the same policy through a per-user table of their own
//! (`dptd_protocol::dedup`); the engine's proptests and
//! `campaign_equivalence` keep the two equal.

use dptd_protocol::message::StampedReport;
use dptd_truth::streaming::{narrow_object, ShardClaims};
use dptd_truth::Loss;

/// Local slots per emission block: four bitmap words.
const BLOCK: usize = 256;

/// What a shard hands the merge at an epoch boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardEpochStats {
    /// Reports accepted into the epoch batch.
    pub accepted: usize,
    /// Duplicates discarded this epoch.
    pub duplicates_discarded: usize,
    /// Reports dropped for missing the epoch deadline.
    pub late_dropped: u64,
}

/// Mutable state of one shard. Owned by exactly one thread at a
/// time; no internal synchronisation. Reusable across epochs and runs:
/// [`ShardState::finish_epoch`] (or [`ShardState::end_epoch`]) leaves it
/// as [`ShardState::new`] built it, allocations kept.
#[derive(Debug)]
pub struct ShardState {
    shard_id: usize,
    num_shards: usize,
    epoch_deadline_us: u64,
    local_users: usize,
    /// One bit per local slot: set once the slot's first on-time report
    /// is accepted this epoch.
    seen: Vec<u64>,
    /// The local slot of each accepted report, in arrival order.
    /// Each accepted report's local slot and where its cells end in the
    /// arena columns, in arrival order; its cells start where the report
    /// before it ended.
    arrivals: Vec<(u32, u32)>,
    duplicates: usize,
    late_dropped: u64,
    /// Accepted claims of the open epoch as parallel columns, one span
    /// per report, in arrival order.
    objects: Vec<u32>,
    values: Vec<f64>,
}

impl ShardState {
    /// State for shard `shard_id` of `num_shards` over a population of
    /// `num_users`. The object count and the loss function are not used
    /// — a shard neither indexes claims by object nor runs an estimator
    /// of its own — and are accepted so callers that size a shard from an
    /// engine configuration need not change.
    ///
    /// # Panics
    ///
    /// Panics if `shard_id >= num_shards`, if the shard owns no users —
    /// the engine validates `num_shards <= num_users` up front — or if it
    /// owns more than 2³² (a slot is stored as a `u32`).
    pub fn new(
        shard_id: usize,
        num_shards: usize,
        num_users: usize,
        _num_objects: usize,
        epoch_deadline_us: u64,
        _loss: Loss,
    ) -> Self {
        assert!(shard_id < num_shards, "shard id out of range");
        let local_users = num_users.saturating_sub(shard_id).div_ceil(num_shards);
        assert!(local_users > 0, "shard {shard_id} owns no users");
        assert!(
            u32::try_from(local_users - 1).is_ok(),
            "shard {shard_id} owns more than 2^32 users"
        );
        Self {
            shard_id,
            num_shards,
            epoch_deadline_us,
            local_users,
            seen: vec![0; local_users.div_ceil(64)],
            arrivals: Vec::new(),
            duplicates: 0,
            late_dropped: 0,
            objects: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Number of users this shard owns.
    pub fn local_users(&self) -> usize {
        self.local_users
    }

    /// Whether this shard owns `user`.
    pub fn owns(&self, user: usize) -> bool {
        user % self.num_shards == self.shard_id
    }

    /// Ingest one report for the current epoch. Returns `true` if the
    /// report was accepted into the batch (on time and first from its
    /// user), in which case its claims now live in the shard's arena.
    ///
    /// Claims are copied as they are, each object id through
    /// [`narrow_object`] (an id past `u32::MAX` saturates, so it stays out
    /// of range). A malformed claim (object out of range, non-finite
    /// value, repeated object) is refused by the merge, which validates
    /// every row.
    ///
    /// # Panics
    ///
    /// Panics if the report's user is not owned by this shard (a routing
    /// bug, not a data error), or if one epoch's accepted claims on this
    /// shard would pass 2³² (64 GiB of arena).
    pub fn ingest(&mut self, stamped: StampedReport) -> bool {
        self.ingest_borrowed(&stamped)
    }

    /// [`ShardState::ingest`] without taking the report: the engine's
    /// and a node's stage steps keep a batch whole so that it is freed
    /// in one place.
    pub fn ingest_borrowed(&mut self, stamped: &StampedReport) -> bool {
        let user = stamped.report.user;
        assert!(
            self.owns(user),
            "report for user {user} routed to wrong shard"
        );
        if stamped.sent_at_us > self.epoch_deadline_us {
            self.late_dropped += 1;
            return false;
        }
        let claims = &stamped.report.values;
        let end = u32::try_from(self.values.len() + claims.len())
            .expect("a shard's epoch arena holds fewer than 2^32 claims");
        let slot = user / self.num_shards;
        let (word, bit) = (&mut self.seen[slot / 64], 1u64 << (slot % 64));
        if *word & bit != 0 {
            self.duplicates += 1;
            return false;
        }
        *word |= bit;
        // `new` checked that every local slot fits.
        self.arrivals.push((slot as u32, end));
        self.objects
            .extend(claims.iter().map(|&(object, _)| narrow_object(object)));
        self.values.extend(claims.iter().map(|&(_, value)| value));
        true
    }

    /// Reports accepted into the open epoch so far.
    pub fn accepted(&self) -> usize {
        self.arrivals.len()
    }

    /// Duplicates discarded in the open epoch so far.
    pub fn duplicates_discarded(&self) -> usize {
        self.duplicates
    }

    /// Reports dropped for missing the deadline in the open epoch so far.
    pub fn late_dropped(&self) -> u64 {
        self.late_dropped
    }

    /// The open epoch's accepted rows, users ascending, as one
    /// contiguous [`ShardClaims`] sized exactly: each row's user and its
    /// claims in report order. The epoch stays open.
    pub fn claims(&self) -> ShardClaims {
        let rows = self.arrivals.len();
        // Count each block's arrivals, then turn the counts into where
        // each block's run starts.
        let mut runs = vec![0; self.seen.len().div_ceil(BLOCK / 64)];
        for &(slot, _) in &self.arrivals {
            runs[slot as usize / BLOCK] += 1;
        }
        let mut start = 0;
        for run in &mut runs {
            (*run, start) = (start, start + *run);
        }
        // Bucket the arrivals by block, in arrival order within a block,
        // in the column that becomes the users; `runs[b]` ends up where
        // block `b`'s run ends.
        let mut users = vec![0; rows];
        for (arrival, &(slot, _)) in self.arrivals.iter().enumerate() {
            let next = &mut runs[slot as usize / BLOCK];
            users[*next] = arrival;
            *next += 1;
        }
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        let mut objects = Vec::with_capacity(self.objects.len());
        let mut values = Vec::with_capacity(self.values.len());
        // A block's arrivals by slot within it; only the entries whose
        // bit is set are read, and each of those was written for this
        // block.
        let mut table = [0u32; BLOCK];
        let mut lo = 0;
        for (block, words) in self.seen.chunks(BLOCK / 64).enumerate() {
            let hi = runs[block];
            for &arrival in &users[lo..hi] {
                table[self.arrivals[arrival].0 as usize % BLOCK] = arrival as u32;
            }
            // Each row is written after its block's arrivals were read
            // out, so the walk overwrites only what it no longer needs.
            let mut row = lo;
            for (w, &word) in words.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let at = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let arrival = table[at] as usize;
                    let start = arrival.checked_sub(1).map_or(0, |a| self.arrivals[a].1);
                    let cells = start as usize..self.arrivals[arrival].1 as usize;
                    objects.extend_from_slice(&self.objects[cells.clone()]);
                    values.extend_from_slice(&self.values[cells]);
                    offsets.push(objects.len());
                    users[row] = (block * BLOCK + at) * self.num_shards + self.shard_id;
                    row += 1;
                }
            }
            debug_assert_eq!(row, hi, "one bit per accepted slot");
            lo = hi;
        }
        ShardClaims::from_columns(users, offsets, objects, values)
            .expect("rows are laid out in order")
    }

    /// Close the current epoch: emit [`ShardState::claims`] as the
    /// canonical claims for the cross-shard merge, plus shard-level
    /// stats, and reset for the next epoch.
    pub fn finish_epoch(&mut self) -> (ShardClaims, ShardEpochStats) {
        (self.claims(), self.end_epoch())
    }

    /// Close the current epoch without copying its rows: the shard-level
    /// stats, then the reset [`ShardState::finish_epoch`] does. For a
    /// caller that already holds the epoch's [`ShardState::claims`] (a
    /// cluster node keeps the copy its last prepare replied with).
    pub fn end_epoch(&mut self) -> ShardEpochStats {
        let stats = ShardEpochStats {
            accepted: self.accepted(),
            duplicates_discarded: std::mem::take(&mut self.duplicates),
            late_dropped: std::mem::take(&mut self.late_dropped),
        };
        for &(slot, _) in &self.arrivals {
            self.seen[slot as usize / 64] = 0;
        }
        self.arrivals.clear();
        self.objects.clear();
        self.values.clear();
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dptd_core::roles::PerturbedReport;

    fn stamped(user: usize, sent_at_us: u64, values: Vec<(usize, f64)>) -> StampedReport {
        StampedReport {
            epoch: 0,
            sent_at_us,
            report: PerturbedReport { user, values },
        }
    }

    #[test]
    fn modulo_ownership_and_local_sizing() {
        // 10 users over 4 shards: shards own 3, 3, 2, 2 users.
        let sizes: Vec<usize> = (0..4)
            .map(|s| ShardState::new(s, 4, 10, 2, 1000, Loss::Squared).local_users())
            .collect();
        assert_eq!(sizes, vec![3, 3, 2, 2]);
        let s1 = ShardState::new(1, 4, 10, 2, 1000, Loss::Squared);
        assert!(s1.owns(1) && s1.owns(5) && s1.owns(9));
        assert!(!s1.owns(0) && !s1.owns(2));
    }

    #[test]
    fn late_and_duplicate_handling() {
        let mut s = ShardState::new(0, 1, 3, 1, 100, Loss::Squared);
        assert!(s.ingest(stamped(0, 50, vec![(0, 1.0)])));
        assert!(!s.ingest(stamped(0, 60, vec![(0, 9.0)]))); // duplicate
        assert!(!s.ingest(stamped(1, 101, vec![(0, 2.0)]))); // late
        assert!(s.ingest(stamped(1, 100, vec![(0, 2.0)]))); // exactly at deadline: on time
        assert!(s.ingest(stamped(2, 10, vec![(0, 3.0)])));
        let (claims, stats) = s.finish_epoch();
        assert_eq!(stats.accepted, 3);
        assert_eq!(stats.duplicates_discarded, 1);
        assert_eq!(stats.late_dropped, 1);
        assert_eq!(claims.len(), 3);
        // First-wins: user 0 kept 1.0.
        assert_eq!(claims.row(0).2, &[1.0]);
    }

    #[test]
    fn deadline_applies_before_dedup() {
        // One shard over a node's partition: a user is its local slot.
        let mut s = ShardState::new(0, 1, 2, 1, 100, Loss::Squared);
        assert!(s.ingest(stamped(0, 50, vec![(0, 1.0)])));
        // A late duplicate of an accepted user counts as late, not as a
        // duplicate; an on-time one counts as a duplicate.
        assert!(!s.ingest(stamped(0, 150, vec![(0, 2.0)])));
        assert!(!s.ingest(stamped(0, 60, vec![(0, 3.0)])));
        assert!(s.ingest(stamped(1, 70, vec![(0, 4.0)])));
        let counts = (s.accepted(), s.duplicates_discarded(), s.late_dropped());
        assert_eq!(counts, (2, 1, 1));
        // The open-epoch copy closes nothing, and is what the close emits.
        let cells = |claims: &ShardClaims| -> Vec<(usize, Vec<f64>)> {
            (0..claims.len())
                .map(|r| (claims.row(r).0, claims.row(r).2.to_vec()))
                .collect()
        };
        let view = cells(&s.claims());
        // First-wins: the value of the first on-time report survived.
        assert_eq!(view, vec![(0, vec![1.0]), (1, vec![4.0])]);
        assert_eq!(cells(&s.claims()), view, "copying the epoch twice");
        let (claims, stats) = s.finish_epoch();
        assert_eq!(cells(&claims), view);
        let closed = (
            stats.accepted,
            stats.duplicates_discarded,
            stats.late_dropped,
        );
        assert_eq!(closed, (2, 1, 1));
    }

    #[test]
    fn epoch_reset_is_clean() {
        let mut s = ShardState::new(0, 1, 2, 1, 100, Loss::Squared);
        s.ingest(stamped(0, 1, vec![(0, 5.0)]));
        s.ingest(stamped(1, 1, vec![(0, 5.0)]));
        let (_, first) = s.finish_epoch();
        assert_eq!(first.accepted, 2);
        // Same users submit again next epoch: not duplicates.
        assert!(s.ingest(stamped(0, 1, vec![(0, 6.0)])));
        let (_, second) = s.finish_epoch();
        assert_eq!(second.accepted, 1);
        assert_eq!(second.duplicates_discarded, 0);
    }

    /// `claims()` then `end_epoch()` is `finish_epoch()`: the same rows,
    /// the same stats, and the same clean epoch after it.
    #[test]
    fn claims_then_end_epoch_is_finish_epoch() {
        let round0 = [
            stamped(2, 10, vec![(1, 5.0), (0, 4.0)]),
            stamped(0, 20, vec![]),
            stamped(2, 30, vec![(0, 9.0)]),  // duplicate
            stamped(1, 500, vec![(0, 1.0)]), // late
            stamped(3, 40, vec![(0, 2.0), (1, 3.0)]),
        ];
        let round1 = [
            stamped(2, 5, vec![(0, 6.0)]),
            stamped(3, 6, vec![(1, 7.0)]),
            stamped(3, 7, vec![(1, 8.0)]), // duplicate
        ];
        let mut whole = ShardState::new(0, 1, 4, 2, 100, Loss::Squared);
        let mut split = ShardState::new(0, 1, 4, 2, 100, Loss::Squared);
        for round in [&round0[..], &round1[..]] {
            for report in round {
                assert_eq!(whole.ingest(report.clone()), split.ingest(report.clone()));
            }
            let (claims, stats) = whole.finish_epoch();
            let split_claims = split.claims();
            assert_eq!(split.end_epoch(), stats);
            assert_eq!(split_claims, claims);
            // Both reset: nothing accepted, dropped or discarded yet.
            for s in [&whole, &split] {
                let counts = (s.accepted(), s.duplicates_discarded(), s.late_dropped());
                assert_eq!(counts, (0, 0, 0));
                assert!(s.claims().is_empty());
            }
        }
    }

    #[test]
    #[should_panic(expected = "wrong shard")]
    fn misrouted_report_panics() {
        let mut s = ShardState::new(0, 2, 4, 1, 100, Loss::Squared);
        s.ingest(stamped(1, 0, vec![(0, 1.0)]));
    }
}
