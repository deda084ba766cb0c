//! User partitioning: the report-stream split that lets N nodes run one
//! campaign.
//!
//! A cluster shards a campaign's population across nodes, each node
//! filtering its own users' reports (deadline cut-off, first-wins
//! de-duplication) and the coordinator merging the per-node survivors
//! with one [`StreamingCrh::ingest_sharded`] call (the fixed-shape
//! parallel reduction tree — worker count cannot change a bit of the
//! result). Because every user
//! lives in **exactly one** partition, running the canonical pipeline
//! per-partition and merging is bit-identical to running it globally:
//! the deadline check is per-report, de-duplication is per-user, and the
//! sharded ingest is documented bit-identical to the single-matrix
//! ingest. This module pins that argument in code:
//!
//! * [`PartitionMap`] — a user → node assignment with dense per-node
//!   local ids, so each node can treat its slice as an ordinary
//!   contiguous population.
//! * [`EpochLane`] — one partition's round filter: the exact
//!   deadline-then-dedup order of [`SimBackend`], over local slots. The
//!   cluster node runs one of these per round; so does
//!   [`PartitionedBackend`].
//! * [`PartitionedBackend`] — a [`RoundBackend`] that routes the stream
//!   through per-node lanes and merges with `ingest_sharded`: the
//!   in-process reference for what an N-node cluster must produce,
//!   pinned bit-identical to [`SimBackend`] by the tests below.
//!
//! [`SimBackend`]: crate::campaign::SimBackend

use dptd_core::roles::PerturbedReport;
use dptd_truth::streaming::{ShardClaims, StreamingCrh};
use dptd_truth::Loss;

use crate::campaign::{RoundBackend, RoundInput, RoundOutput};
use crate::dedup::DedupFilter;
use crate::message::StampedReport;
use crate::ProtocolError;

/// A fixed assignment of a campaign population to `num_nodes`
/// partitions, with dense local ids per partition.
///
/// Global user `u` lives on node [`node_of(u)`](PartitionMap::node_of)
/// as local user [`local_of(u)`](PartitionMap::local_of); the inverse is
/// [`global_of`](PartitionMap::global_of). Local ids are assigned in
/// ascending global order, so each node's population is a sorted slice
/// of the global one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionMap {
    assignment: Vec<usize>,
    local_of: Vec<usize>,
    locals: Vec<Vec<usize>>,
}

impl PartitionMap {
    /// Build a map from `assignment[user] = node`.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::InvalidParameter`] for an empty
    /// population, zero nodes, or an assignment naming a node outside
    /// `0..num_nodes`.
    pub fn new(assignment: Vec<usize>, num_nodes: usize) -> Result<Self, ProtocolError> {
        if num_nodes == 0 {
            return Err(ProtocolError::InvalidParameter {
                name: "num_nodes",
                value: 0.0,
                constraint: "a cluster needs at least one node",
            });
        }
        if assignment.is_empty() {
            return Err(ProtocolError::InvalidParameter {
                name: "assignment",
                value: 0.0,
                constraint: "a partition map needs at least one user",
            });
        }
        let mut locals = vec![Vec::new(); num_nodes];
        let mut local_of = Vec::with_capacity(assignment.len());
        for (user, &node) in assignment.iter().enumerate() {
            if node >= num_nodes {
                return Err(ProtocolError::InvalidParameter {
                    name: "assignment",
                    value: node as f64,
                    constraint: "every user must be assigned a node inside the cluster",
                });
            }
            local_of.push(locals[node].len());
            locals[node].push(user);
        }
        Ok(Self {
            assignment,
            local_of,
            locals,
        })
    }

    /// Population size.
    pub fn num_users(&self) -> usize {
        self.assignment.len()
    }

    /// Number of partitions (some may be empty).
    pub fn num_nodes(&self) -> usize {
        self.locals.len()
    }

    /// The node owning global user `user`.
    ///
    /// # Panics
    ///
    /// Panics if `user` is outside the population.
    pub fn node_of(&self, user: usize) -> usize {
        self.assignment[user]
    }

    /// The dense local id of global user `user` on its owning node.
    ///
    /// # Panics
    ///
    /// Panics if `user` is outside the population.
    pub fn local_of(&self, user: usize) -> usize {
        self.local_of[user]
    }

    /// The global id of `node`'s local user `local`.
    ///
    /// # Panics
    ///
    /// Panics if `node` or `local` is out of range.
    pub fn global_of(&self, node: usize, local: usize) -> usize {
        self.locals[node][local]
    }

    /// `node`'s users as ascending global ids.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn locals(&self, node: usize) -> &[usize] {
        &self.locals[node]
    }

    /// `node`'s population size.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn population(&self, node: usize) -> usize {
        self.locals[node].len()
    }
}

/// One partition's filter for one round: the canonical server pipeline
/// over dense local slots, in the exact order of
/// [`SimBackend`](crate::campaign::SimBackend) — the deadline cut-off
/// runs **before** de-duplication, so a late duplicate counts as late,
/// not as a duplicate.
///
/// Both [`PartitionedBackend`] and the cluster node's in-memory round
/// buffer drain through this type, which is what makes "filter remotely,
/// merge centrally" bit-identical to filtering globally.
#[derive(Debug, Clone)]
pub struct EpochLane {
    deadline_us: u64,
    dedup: DedupFilter,
    late_dropped: u64,
}

/// What one [`EpochLane`] kept after its round drained.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneResult {
    /// Surviving `(local slot, report)` pairs, ascending by slot.
    pub claims: Vec<(usize, PerturbedReport)>,
    /// Duplicate submissions discarded (first-wins).
    pub duplicates_discarded: u64,
    /// Reports dropped for missing the deadline.
    pub late_dropped: u64,
}

impl EpochLane {
    /// A lane over `local_users` dense slots with the round's deadline.
    pub fn new(local_users: usize, deadline_us: u64) -> Self {
        Self {
            deadline_us,
            dedup: DedupFilter::new(local_users),
            late_dropped: 0,
        }
    }

    /// Offer one report under its dense local `slot`, in stream order.
    ///
    /// The caller has already validated epoch and ownership; the lane
    /// only applies the deadline and first-wins de-duplication.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is outside the lane's population.
    pub fn offer(&mut self, slot: usize, stamped: StampedReport) {
        if stamped.sent_at_us > self.deadline_us {
            self.late_dropped += 1;
            return;
        }
        self.dedup.accept(slot, stamped.report);
    }

    /// Number of slots currently holding an accepted report.
    pub fn accepted(&self) -> usize {
        self.dedup.len()
    }

    /// The lane's survivors and counts **so far**, without consuming it
    /// — a cluster node answers each `CloseRoundPrepare` with this, so
    /// a re-driven barrier (after more submissions, or a coordinator
    /// restart) sees the cumulative stream's result.
    pub fn snapshot(&self) -> LaneResult {
        LaneResult {
            claims: self
                .dedup
                .slot_ordered()
                .map(|(slot, report)| (slot, report.clone()))
                .collect(),
            duplicates_discarded: self.duplicates_discarded(),
            late_dropped: self.late_dropped,
        }
    }

    /// The surviving reports so far, ascending by slot, borrowed — a
    /// node clones these straight into its `Prepared` reply, once.
    pub fn survivors(&self) -> impl Iterator<Item = &PerturbedReport> {
        self.dedup.slot_ordered().map(|(_, report)| report)
    }

    /// Duplicate submissions discarded so far (first-wins).
    pub fn duplicates_discarded(&self) -> u64 {
        self.dedup.duplicates_discarded() as u64
    }

    /// Reports dropped so far for missing the deadline.
    pub fn late_dropped(&self) -> u64 {
        self.late_dropped
    }

    /// Drain the lane into its slot-ordered survivors and drop counts.
    pub fn finish(self) -> LaneResult {
        LaneResult {
            duplicates_discarded: self.duplicates_discarded(),
            claims: self.dedup.into_slot_ordered(),
            late_dropped: self.late_dropped,
        }
    }
}

/// A [`RoundBackend`] that executes each round the way an N-node
/// cluster does: validate the stream in order, route each report to its
/// owner's [`EpochLane`], then merge the per-node survivors with one
/// [`StreamingCrh::ingest_sharded`] call over **global** ids.
///
/// For any [`PartitionMap`] over the same population this produces
/// truths, weights and drop counts bit-identical to
/// [`SimBackend`](crate::campaign::SimBackend) on the same stream —
/// pinned by this module's proptest — so a cluster that drains its
/// node lanes faithfully inherits the single-node semantics.
#[derive(Debug, Clone)]
pub struct PartitionedBackend {
    partition: PartitionMap,
    streaming: StreamingCrh,
}

impl PartitionedBackend {
    /// A backend over `partition`'s population with fresh weights.
    ///
    /// # Errors
    ///
    /// Propagates estimator construction failures.
    pub fn new(partition: PartitionMap, loss: Loss) -> Result<Self, ProtocolError> {
        let streaming = StreamingCrh::new(partition.num_users(), loss)
            .map_err(|e| ProtocolError::Core(dptd_core::CoreError::Truth(e)))?;
        Ok(Self {
            partition,
            streaming,
        })
    }

    /// The partition this backend routes by.
    pub fn partition(&self) -> &PartitionMap {
        &self.partition
    }

    /// The backing streaming estimator.
    pub fn streaming(&self) -> &StreamingCrh {
        &self.streaming
    }
}

impl RoundBackend for PartitionedBackend {
    fn name(&self) -> &'static str {
        "partitioned"
    }

    fn num_users(&self) -> usize {
        self.partition.num_users()
    }

    fn run_round(&mut self, input: RoundInput) -> Result<RoundOutput, ProtocolError> {
        let num_users = self.partition.num_users();
        let mut lanes: Vec<EpochLane> = (0..self.partition.num_nodes())
            .map(|node| EpochLane::new(self.partition.population(node), input.deadline_us))
            .collect();
        // Validation mirrors `SimBackend` exactly — same checks, same
        // order, same errors — so a malformed stream fails identically
        // on either backend.
        for stamped in input.reports {
            if stamped.epoch != input.epoch {
                return Err(ProtocolError::InvalidParameter {
                    name: "report.epoch",
                    value: stamped.epoch as f64,
                    constraint: "every report in a campaign round must carry the round's epoch",
                });
            }
            let user = stamped.report.user;
            if user >= num_users {
                return Err(ProtocolError::InvalidParameter {
                    name: "report.user",
                    value: user as f64,
                    constraint: "must be inside the campaign population",
                });
            }
            lanes[self.partition.node_of(user)].offer(self.partition.local_of(user), stamped);
        }

        let mut duplicates_discarded = 0u64;
        let mut late_dropped = 0u64;
        let mut accepted_users = Vec::new();
        let mut shards = Vec::with_capacity(lanes.len());
        for (node, lane) in lanes.into_iter().enumerate() {
            let result = lane.finish();
            duplicates_discarded += result.duplicates_discarded;
            late_dropped += result.late_dropped;
            let mut shard = ShardClaims::new();
            for (slot, report) in result.claims {
                let user = self.partition.global_of(node, slot);
                accepted_users.push(user);
                shard.push(user, report.values);
            }
            shards.push(shard);
        }
        accepted_users.sort_unstable();

        let truths = self
            .streaming
            .ingest_sharded(input.num_objects, shards)
            .map_err(|e| ProtocolError::Core(dptd_core::CoreError::Truth(e)))?;

        Ok(RoundOutput {
            truths,
            weights: self.streaming.weights().to_vec(),
            accepted_users,
            duplicates_discarded,
            late_dropped,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{CampaignConfig, CampaignDriver, SimBackend};
    use dptd_ldp::PrivacyLoss;
    use proptest::prelude::*;

    fn stamped(user: usize, epoch: u64, sent_at_us: u64, value: f64) -> StampedReport {
        StampedReport {
            epoch,
            sent_at_us,
            report: PerturbedReport {
                user,
                values: vec![(0, value), (1, value + 1.0)],
            },
        }
    }

    #[test]
    fn partition_map_round_trips_every_user() {
        let map = PartitionMap::new(vec![2, 0, 1, 0, 2, 2], 3).unwrap();
        assert_eq!(map.num_users(), 6);
        assert_eq!(map.num_nodes(), 3);
        assert_eq!(map.locals(0), &[1, 3]);
        assert_eq!(map.locals(1), &[2]);
        assert_eq!(map.locals(2), &[0, 4, 5]);
        for user in 0..map.num_users() {
            let (node, local) = (map.node_of(user), map.local_of(user));
            assert_eq!(map.global_of(node, local), user);
        }
        assert_eq!(map.population(1), 1);
    }

    #[test]
    fn partition_map_rejects_malformed_assignments() {
        assert!(PartitionMap::new(vec![0, 1], 0).is_err());
        assert!(PartitionMap::new(Vec::new(), 2).is_err());
        assert!(PartitionMap::new(vec![0, 2], 2).is_err());
    }

    #[test]
    fn lane_applies_deadline_before_dedup() {
        let mut lane = EpochLane::new(2, 100);
        lane.offer(0, stamped(0, 0, 50, 1.0)); // accepted
        lane.offer(0, stamped(0, 0, 150, 2.0)); // late duplicate → late
        lane.offer(0, stamped(0, 0, 60, 3.0)); // on-time duplicate → dup
        lane.offer(1, stamped(1, 0, 70, 4.0)); // accepted
        assert_eq!(lane.accepted(), 2);
        // The borrowed views are the consuming result, minus the clone
        // of the whole filter.
        let snapshot = lane.snapshot();
        let survivors: Vec<PerturbedReport> = lane.survivors().cloned().collect();
        let result = lane.finish();
        assert_eq!(snapshot, result);
        let claimed: Vec<PerturbedReport> = result.claims.iter().map(|(_, r)| r.clone()).collect();
        assert_eq!(survivors, claimed);
        assert_eq!(result.late_dropped, 1);
        assert_eq!(result.duplicates_discarded, 1);
        let slots: Vec<usize> = result.claims.iter().map(|&(s, _)| s).collect();
        assert_eq!(slots, vec![0, 1]);
        // First-wins: the value from the first on-time report survived.
        assert_eq!(result.claims[0].1.values[0], (0, 1.0));
    }

    #[test]
    fn partitioned_backend_rejects_what_sim_rejects() {
        let map = PartitionMap::new(vec![0, 1, 0], 2).unwrap();
        let mut backend = PartitionedBackend::new(map, Loss::Squared).unwrap();
        let bad_epoch = RoundInput {
            epoch: 3,
            num_objects: 2,
            deadline_us: 100,
            reports: vec![stamped(0, 4, 10, 1.0)],
        };
        assert!(matches!(
            backend.run_round(bad_epoch),
            Err(ProtocolError::InvalidParameter {
                name: "report.epoch",
                ..
            })
        ));
        let bad_user = RoundInput {
            epoch: 0,
            num_objects: 2,
            deadline_us: 100,
            reports: vec![stamped(7, 0, 10, 1.0)],
        };
        assert!(matches!(
            backend.run_round(bad_user),
            Err(ProtocolError::InvalidParameter {
                name: "report.user",
                ..
            })
        ));
    }

    /// A deterministic messy stream: duplicates, lates, and a value per
    /// (user, epoch) so first-wins ordering matters.
    fn messy_round(num_users: usize, epoch: u64) -> Vec<StampedReport> {
        let mut reports = Vec::new();
        for user in 0..num_users {
            let jitter = ((user as u64 * 37 + epoch * 11) % 90) + 1;
            reports.push(stamped(user, epoch, jitter, user as f64 + epoch as f64));
            if user % 3 == 0 {
                // A later duplicate that must lose first-wins.
                reports.push(stamped(user, epoch, jitter + 1, -99.0));
            }
            if user % 4 == 1 {
                // A late report (deadline is 100 in these tests).
                reports.push(stamped(user, epoch, 150, -77.0));
            }
        }
        reports
    }

    fn driver_config(rounds_affordable: u32) -> CampaignConfig {
        let per_round = PrivacyLoss::new(0.5, 0.0).unwrap();
        let budget = PrivacyLoss::new(0.5 * f64::from(rounds_affordable), 0.0).unwrap();
        CampaignConfig {
            num_objects: 2,
            deadline_us: 100,
            per_round_loss: per_round,
            budget,
        }
    }

    /// The acceptance argument, pinned: a partitioned campaign (here
    /// 3 nodes, interleaved assignment) is bit-identical to the
    /// single-node reference — truths, weights, counts, and per-user
    /// debit ledgers — including through a budget-refused final round.
    #[test]
    fn partitioned_campaign_is_bit_identical_to_sim() {
        let num_users = 10;
        let assignment: Vec<usize> = (0..num_users).map(|u| u % 3).collect();
        let map = PartitionMap::new(assignment, 3).unwrap();
        let config = driver_config(2);
        let mut sim =
            CampaignDriver::new(SimBackend::new(num_users, Loss::Squared).unwrap(), config)
                .unwrap();
        let mut part =
            CampaignDriver::new(PartitionedBackend::new(map, Loss::Squared).unwrap(), config)
                .unwrap();
        for epoch in 0..2u64 {
            let stream = messy_round(num_users, epoch);
            let a = sim.run_round(epoch, stream.clone()).unwrap();
            let b = part.run_round(epoch, stream).unwrap();
            assert_eq!(a, b, "round {epoch} diverged");
            assert_eq!(
                a.weights.iter().map(|w| w.to_bits()).collect::<Vec<u64>>(),
                b.weights.iter().map(|w| w.to_bits()).collect::<Vec<u64>>(),
                "weights are not bit-identical in round {epoch}"
            );
        }
        // The budget affords exactly two rounds: round 2 must refuse on
        // both backends identically.
        assert!(sim.run_round(2, messy_round(num_users, 2)).is_err());
        assert!(part.run_round(2, messy_round(num_users, 2)).is_err());
        assert_eq!(
            sim.accountant().debits_by_user(),
            part.accountant().debits_by_user()
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// For any assignment over 1–4 nodes and any report stream
        /// (duplicates, lates, arbitrary interleaving), the partitioned
        /// backend matches the single-node reference bit for bit.
        #[test]
        fn any_partitioning_matches_sim(
            num_nodes in 1usize..=4,
            assignment in prop::collection::vec(0usize..4, 4..20),
            stream in prop::collection::vec(
                (0usize..20, 0u64..140, -5.0f64..5.0),
                0..60,
            ),
        ) {
            let num_users = assignment.len();
            let assignment: Vec<usize> =
                assignment.iter().map(|&n| n % num_nodes).collect();
            let map = PartitionMap::new(assignment, num_nodes).unwrap();
            let mut sim = SimBackend::new(num_users, Loss::Squared).unwrap();
            let mut part = PartitionedBackend::new(map, Loss::Squared).unwrap();
            let reports: Vec<StampedReport> = stream
                .into_iter()
                .map(|(user, sent_at_us, value)| {
                    stamped(user % num_users, 0, sent_at_us, value)
                })
                .collect();
            let input = RoundInput {
                epoch: 0,
                num_objects: 2,
                deadline_us: 100,
                reports,
            };
            let a = sim.run_round(input.clone());
            let b = part.run_round(input);
            match (a, b) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(&a, &b);
                    let bits = |ws: &[f64]| {
                        ws.iter().map(|w| w.to_bits()).collect::<Vec<u64>>()
                    };
                    prop_assert_eq!(bits(&a.weights), bits(&b.weights));
                    prop_assert_eq!(bits(&a.truths), bits(&b.truths));
                }
                // Degenerate rounds (e.g. an uncovered object) must fail
                // on both backends alike.
                (Err(_), Err(_)) => {}
                (a, b) => panic!("backends diverged: sim={a:?} partitioned={b:?}"),
            }
        }
    }
}
