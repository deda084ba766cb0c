//! Per-shard ingestion state.
//!
//! A shard owns the users whose id is congruent to its shard id modulo the
//! shard count, stored under a **dense local index** (`user / num_shards`)
//! so per-shard memory is proportional to the shard, not the population.
//!
//! Within an epoch a shard applies the epoch deadline, de-duplicates
//! first-wins (the policy is [`dptd_protocol::dedup::DedupFilter`]'s; a
//! late duplicate counts as late), and **copies an accepted report's
//! claims into its own columnar arena** — an `objects` and a `values`
//! column filled in arrival order, on the worker thread — after which
//! the report is garbage. The filter stores nothing but the span of the
//! arena each local slot's report was given. At the epoch boundary the
//! shard walks its slots ascending and emits the spans as one
//! contiguous, users-ascending [`ShardClaims`] for the cross-shard merge
//! (a slot's user is implied, its cells are two slice copies); resetting
//! for the next epoch costs time proportional to the reports accepted,
//! not to the users owned, so a `ShardState` is meant to live as long as
//! its campaign.
//!
//! Resident cost: 12 bytes per owned user (the slot → span index) plus
//! the arena of the largest epoch seen (16 bytes per claim).
//!
//! # The shard-local view
//!
//! Alongside, a shard keeps a running sum and count of its accepted
//! claims per object. [`ShardEpochStats::local_truths`] is their quotient:
//! the shard's **unweighted per-object mean**, present only if the
//! shard's own users covered every object. Its gap to the merged global
//! truths is a health signal — a shard whose users disagree with the
//! population shows up there — at eight additions per report instead of a
//! second truth discovery per shard.

use dptd_protocol::dedup::DedupFilter;
use dptd_protocol::message::StampedReport;
use dptd_truth::streaming::ShardClaims;
use dptd_truth::Loss;

/// What a shard hands the merger at an epoch boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardEpochStats {
    /// Reports accepted into the epoch batch.
    pub accepted: usize,
    /// Duplicates discarded this epoch.
    pub duplicates_discarded: usize,
    /// Reports dropped for missing the epoch deadline.
    pub late_dropped: u64,
    /// The unweighted mean of the shard's accepted claims per object, if
    /// its own users covered every object (`None` otherwise — a small
    /// shard legitimately may not). No weights enter it: it says what
    /// this shard's users reported, not what the estimator made of it.
    pub local_truths: Option<Vec<f64>>,
}

/// Mutable state of one shard. Owned by exactly one worker thread at a
/// time; no internal synchronisation. Reusable across epochs and runs:
/// [`ShardState::finish_epoch`] leaves it as [`ShardState::new`] built it,
/// allocations kept.
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
    /// Per object: sum and count of the accepted claims.
    object_sums: Vec<(f64, u64)>,
}

impl ShardState {
    /// State for shard `shard_id` of `num_shards` over a population of
    /// `num_users`. The loss function is not used — a shard no longer
    /// runs an estimator of its own — and is accepted so callers that
    /// size a shard from an engine configuration need not change.
    ///
    /// # Panics
    ///
    /// Panics if `shard_id >= num_shards` or the shard owns no users —
    /// the engine validates `num_shards <= num_users` up front.
    pub fn new(
        shard_id: usize,
        num_shards: usize,
        num_users: usize,
        num_objects: usize,
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
            object_sums: vec![(0.0, 0); num_objects],
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
    /// which validates every row; here it is only kept out of the
    /// shard-local sums it cannot index.
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
    /// workers keep a chunk whole so that it is freed in one place.
    pub(crate) fn ingest_borrowed(&mut self, stamped: &StampedReport) -> bool {
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
        for &(object, value) in claims {
            if let Some((sum, count)) = self.object_sums.get_mut(object) {
                *sum += value;
                *count += 1;
            }
        }
        self.objects
            .extend(claims.iter().map(|&(object, _)| object));
        self.values.extend(claims.iter().map(|&(_, value)| value));
        true
    }

    /// Close the current epoch: emit the canonical claims for the
    /// cross-shard merge — users ascending, copied span by span out of
    /// the arena — plus shard-level stats, and reset for the next epoch.
    pub fn finish_epoch(&mut self) -> (ShardClaims, ShardEpochStats) {
        let mut claims = ShardClaims::with_capacity(self.dedup.len(), self.values.len());
        for (slot, &(start, end)) in self.dedup.slot_ordered() {
            let cells = start as usize..end as usize;
            claims.push_row(
                slot * self.num_shards + self.shard_id,
                &self.objects[cells.clone()],
                &self.values[cells],
            );
        }
        let covered = self.object_sums.iter().all(|&(_, count)| count > 0);
        let stats = ShardEpochStats {
            accepted: self.dedup.len(),
            duplicates_discarded: self.dedup.duplicates_discarded(),
            late_dropped: std::mem::take(&mut self.late_dropped),
            local_truths: covered.then(|| {
                self.object_sums
                    .iter()
                    .map(|&(sum, count)| sum / count as f64)
                    .collect()
            }),
        };
        self.dedup.reset();
        self.objects.clear();
        self.values.clear();
        self.object_sums.fill((0.0, 0));
        (claims, stats)
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
        assert_eq!(claims.num_users(), 3);
        // First-wins: user 0 kept 1.0, and the local CRH covered object 0.
        let local = stats.local_truths.unwrap();
        assert!(local[0] > 1.0 && local[0] < 3.0);
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

    #[test]
    fn local_truths_absent_without_coverage() {
        // Shard 0 of 2 owns users {0, 2}; its users observe only object 0
        // of 2, so the local view must be None while claims still flow.
        let mut s = ShardState::new(0, 2, 4, 2, 100, Loss::Squared);
        s.ingest(stamped(0, 1, vec![(0, 1.0)]));
        s.ingest(stamped(2, 2, vec![(0, 1.2)]));
        let (claims, stats) = s.finish_epoch();
        assert!(stats.local_truths.is_none());
        assert_eq!(claims.num_users(), 2);
    }

    #[test]
    #[should_panic(expected = "wrong shard")]
    fn misrouted_report_panics() {
        let mut s = ShardState::new(0, 2, 4, 1, 100, Loss::Squared);
        s.ingest(stamped(1, 0, vec![(0, 1.0)]));
    }
}
