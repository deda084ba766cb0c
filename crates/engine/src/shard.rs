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
//! first-wins (the policy is [`dptd_protocol::dedup::DedupFilter`]'s; a
//! late duplicate counts as late), and **copies an accepted report's
//! claims into its own columnar arena** — an `objects` and a `values`
//! column filled in arrival order — after which the report is garbage.
//! The filter stores nothing but the span of the arena each local
//! slot's report was given. [`ShardState::rows`] walks the slots
//! ascending without closing the epoch, and [`ShardState::claims`]
//! copies that walk into one contiguous, users-ascending [`ShardClaims`]
//! (a node's repeatable prepare replies with it); at the epoch boundary
//! [`ShardState::finish_epoch`] emits the same copy for the cross-shard
//! merge (a slot's user is implied, its cells are two slice copies), and
//! [`ShardState::end_epoch`] closes the epoch without one — a node
//! commits the copy its last prepare already made.
//! Resetting for the next epoch costs time proportional to the reports
//! accepted, not to the users owned, so a `ShardState` is meant to live
//! as long as its campaign.
//!
//! Resident cost: 12 bytes per owned user (the slot → span index) plus
//! the arena of the largest epoch seen (16 bytes per claim).

use dptd_protocol::dedup::DedupFilter;
use dptd_protocol::message::StampedReport;
use dptd_truth::streaming::ShardClaims;
use dptd_truth::Loss;

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
    /// Local slot → `start..end` of the arena columns, for the first
    /// on-time report only.
    dedup: DedupFilter<(u32, u32)>,
    late_dropped: u64,
    /// Accepted claims of the open epoch as parallel columns, one span
    /// per report, in arrival order.
    objects: Vec<usize>,
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
    /// Panics if `shard_id >= num_shards` or the shard owns no users —
    /// the engine validates `num_shards <= num_users` up front.
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
        Self {
            shard_id,
            num_shards,
            epoch_deadline_us,
            local_users,
            dedup: DedupFilter::new(local_users),
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
    /// Claims are copied as they are. A malformed one (object out of
    /// range, non-finite value, repeated object) is refused by the merge,
    /// which validates every row.
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
        let start = self.values.len();
        let end = u32::try_from(start + claims.len())
            .expect("a shard's epoch arena holds fewer than 2^32 claims");
        // `start <= end`, so it fits as well.
        if !self
            .dedup
            .accept(user / self.num_shards, (start as u32, end))
        {
            return false;
        }
        self.objects
            .extend(claims.iter().map(|&(object, _)| object));
        self.values.extend(claims.iter().map(|&(_, value)| value));
        true
    }

    /// The open epoch's accepted rows so far, users ascending: each
    /// row's user and its claims as parallel `objects` / `values` slices
    /// of the arena, in report order. A view — the epoch stays open.
    pub fn rows(&self) -> impl Iterator<Item = (usize, &[usize], &[f64])> + '_ {
        self.dedup.slot_ordered().map(|(slot, &(start, end))| {
            let cells = start as usize..end as usize;
            (
                slot * self.num_shards + self.shard_id,
                &self.objects[cells.clone()],
                &self.values[cells],
            )
        })
    }

    /// Reports accepted into the open epoch so far.
    pub fn accepted(&self) -> usize {
        self.dedup.len()
    }

    /// Duplicates discarded in the open epoch so far.
    pub fn duplicates_discarded(&self) -> usize {
        self.dedup.duplicates_discarded()
    }

    /// Reports dropped for missing the deadline in the open epoch so far.
    pub fn late_dropped(&self) -> u64 {
        self.late_dropped
    }

    /// [`ShardState::rows`] copied into one users-ascending
    /// [`ShardClaims`], sized exactly: four allocations, whatever the
    /// row count. The epoch stays open.
    pub fn claims(&self) -> ShardClaims {
        let mut claims = ShardClaims::with_capacity(self.accepted(), self.values.len());
        for (user, objects, values) in self.rows() {
            claims.push_row(user, objects, values);
        }
        claims
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
            duplicates_discarded: self.duplicates_discarded(),
            late_dropped: std::mem::take(&mut self.late_dropped),
        };
        self.dedup.reset();
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
        // The open-epoch view closes nothing, and is what the close emits.
        let cells = |(user, _, values): (usize, &[usize], &[f64])| (user, values.to_vec());
        let view: Vec<(usize, Vec<f64>)> = s.rows().map(cells).collect();
        // First-wins: the value of the first on-time report survived.
        assert_eq!(view, vec![(0, vec![1.0]), (1, vec![4.0])]);
        assert_eq!(s.rows().count(), 2, "reading the view twice");
        let (claims, stats) = s.finish_epoch();
        let emitted: Vec<(usize, Vec<f64>)> =
            (0..claims.len()).map(|r| cells(claims.row(r))).collect();
        assert_eq!(emitted, view);
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
