//! `ShardState`'s users-ascending emission against a slot-table
//! reference: one entry per local slot, holding the first on-time
//! report's claims, walked ascending at the close.
//!
//! For every case the shard's `ingest` answers, its open-epoch
//! `claims()`, its `finish_epoch` rows and its stats equal the
//! reference's row for row, and the next epoch starts clean: two epochs
//! run back to back through one shard, the second re-using users the
//! first accepted. Populations straddle the 64-slot word and the
//! 256-slot block (`local_users` of 1, 63, 64, 65, 255, 256, 257 and
//! odd sizes past them); fills of 1 %, 50 % and 100 % of the slots; the
//! slots 0, 63, 64, 255, 256 and the last one always report; duplicates
//! (on time and late), late first reports followed by an on-time one,
//! and empty claim lists are mixed in.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use dptd_core::roles::PerturbedReport;
use dptd_engine::shard::{ShardEpochStats, ShardState};
use dptd_protocol::message::StampedReport;
use dptd_truth::streaming::ShardClaims;
use dptd_truth::Loss;

const DEADLINE_US: u64 = 1_000;
const FILLS: [f64; 3] = [0.01, 0.5, 1.0];
const EDGE_POPULATIONS: [usize; 10] = [1, 63, 64, 65, 255, 256, 257, 1_000, 4_099, 10_007];

/// The round filter as a table of one entry per local slot.
struct SlotTable {
    shard_id: usize,
    num_shards: usize,
    slots: Vec<Option<Vec<(usize, f64)>>>,
    duplicates: usize,
    late: u64,
}

impl SlotTable {
    fn new(shard_id: usize, num_shards: usize, local_users: usize) -> Self {
        Self {
            shard_id,
            num_shards,
            slots: vec![None; local_users],
            duplicates: 0,
            late: 0,
        }
    }

    fn ingest(&mut self, stamped: &StampedReport) -> bool {
        if stamped.sent_at_us > DEADLINE_US {
            self.late += 1;
            return false;
        }
        let slot = &mut self.slots[stamped.report.user / self.num_shards];
        if slot.is_some() {
            self.duplicates += 1;
            return false;
        }
        *slot = Some(stamped.report.values.clone());
        true
    }

    /// The open epoch's rows, by a walk of every slot.
    fn claims(&self) -> ShardClaims {
        let mut claims = ShardClaims::new();
        for (slot, entry) in self.slots.iter().enumerate() {
            if let Some(values) = entry {
                // `push` narrows each object id as the shard's arena does.
                claims.push(slot * self.num_shards + self.shard_id, values.clone());
            }
        }
        claims
    }

    fn finish_epoch(&mut self) -> (ShardClaims, ShardEpochStats) {
        let claims = self.claims();
        let stats = ShardEpochStats {
            accepted: claims.len(),
            duplicates_discarded: std::mem::take(&mut self.duplicates),
            late_dropped: std::mem::take(&mut self.late),
        };
        self.slots.iter_mut().for_each(|slot| *slot = None);
        (claims, stats)
    }
}

/// One epoch of reports for the shard's users: `fill` of the slots plus
/// the edge slots report, in a shuffled order, with duplicates, late
/// reports and empty claim lists mixed in.
fn epoch_reports(
    rng: &mut StdRng,
    (shard_id, num_shards, local_users): (usize, usize, usize),
    fill: f64,
) -> Vec<StampedReport> {
    let mut slots: Vec<usize> = (0..local_users)
        .filter(|_| rng.gen_range(0.0..1.0) < fill)
        .collect();
    slots.extend(
        [0, 63, 64, 255, 256, local_users - 1]
            .iter()
            .filter(|&&s| s < local_users),
    );
    slots.sort_unstable();
    slots.dedup();
    let report = |rng: &mut StdRng, slot: usize, sent_at_us: u64| {
        let width = rng.gen_range(0..5usize);
        let values = (0..width)
            .map(|_| {
                // Now and then an id past `u32::MAX`, which narrows.
                let object = if rng.gen_range(0..50u32) == 0 {
                    (1usize << 32) + 1
                } else {
                    rng.gen_range(0..12usize)
                };
                (object, rng.gen_range(-100.0..100.0f64))
            })
            .collect();
        StampedReport {
            epoch: 0,
            sent_at_us,
            report: PerturbedReport {
                user: slot * num_shards + shard_id,
                values,
            },
        }
    };
    let mut reports = Vec::new();
    for &slot in &slots {
        // A late first try, then the on-time report.
        if rng.gen_range(0..10u32) == 0 {
            reports.push(report(rng, slot, DEADLINE_US + 1));
        }
        let on_time = rng.gen_range(0..=DEADLINE_US);
        reports.push(report(rng, slot, on_time));
    }
    reports.shuffle(rng);
    // Duplicates, on time and late, after some of the first reports.
    let extra = reports.len() / 4 + 1;
    for _ in 0..extra {
        let slot = slots[rng.gen_range(0..slots.len())];
        let sent_at_us = if rng.gen_range(0..2u32) == 0 {
            rng.gen_range(0..=DEADLINE_US)
        } else {
            DEADLINE_US + rng.gen_range(1..100u64)
        };
        let at = rng.gen_range(0..=reports.len());
        reports.insert(at, report(rng, slot, sent_at_us));
    }
    reports
}

/// Two epochs through one shard and one reference, compared at every
/// step; each failure names its case.
fn check(seed: u64, shard_id: usize, num_shards: usize, local_users: usize, fills: [f64; 2]) {
    let num_users = (local_users - 1) * num_shards + shard_id + 1;
    let mut shard = ShardState::new(
        shard_id,
        num_shards,
        num_users,
        12,
        DEADLINE_US,
        Loss::Squared,
    );
    assert_eq!(shard.local_users(), local_users);
    let mut reference = SlotTable::new(shard_id, num_shards, local_users);
    let mut rng = StdRng::seed_from_u64(seed);
    for (epoch, fill) in fills.into_iter().enumerate() {
        let what = format!(
            "seed {seed}, shard {shard_id}/{num_shards}, {local_users} local users, \
             fill {fill}, epoch {epoch}"
        );
        for report in epoch_reports(&mut rng, (shard_id, num_shards, local_users), fill) {
            let want = reference.ingest(&report);
            assert_eq!(shard.ingest(report), want, "{what}: ingest");
        }
        assert_eq!(
            shard.claims(),
            reference.claims(),
            "{what}: open-epoch claims"
        );
        let (want_claims, want_stats) = reference.finish_epoch();
        let (claims, stats) = shard.finish_epoch();
        assert_eq!(claims, want_claims, "{what}: emitted rows");
        assert_eq!(stats, want_stats, "{what}: stats");
        let counts = (
            shard.accepted(),
            shard.duplicates_discarded(),
            shard.late_dropped(),
        );
        assert_eq!(counts, (0, 0, 0), "{what}: next epoch starts clean");
        assert!(shard.claims().is_empty(), "{what}: next epoch holds rows");
    }
}

#[test]
fn every_fill_on_every_edge_population() {
    for (i, &local_users) in EDGE_POPULATIONS.iter().enumerate() {
        for (f, &fill) in FILLS.iter().enumerate() {
            let next = FILLS[(f + 1) % FILLS.len()];
            let seed = (i * FILLS.len() + f) as u64;
            check(seed, 0, 1, local_users, [fill, next]);
            check(seed, 2, 3, local_users, [fill, fill]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn emission_equals_the_slot_table_walk(
        seed in 0u64..u64::MAX,
        (num_shards, shard_id) in (1usize..5).prop_flat_map(|n| (Just(n), 0..n)),
        local_users in 1usize..3_000,
        fills in (0usize..3, 0usize..3),
    ) {
        check(seed, shard_id, num_shards, local_users, [FILLS[fills.0], FILLS[fills.1]]);
    }
}
