//! Property tests pinning the fixed-shape parallel merge: the reduction
//! tree's shape is a pure function of the population size, so **no**
//! combination of shard count, merge-worker count, or adversarial range
//! split may change a single bit of the merged truths or the carried
//! weights — including across a WAL-style resume that rebuilds the
//! estimator from its persisted parts mid-stream.

use proptest::prelude::*;

use dptd_engine::{Engine, EngineConfig, LoadGen, LoadGenConfig};
use dptd_truth::streaming::{ShardClaims, StreamingCrh};
use dptd_truth::Loss;

/// Bit-exact view of a float vector: `f64::==` would conflate `-0.0`
/// with `0.0`, and "byte-identical" is the actual contract.
fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Deterministic pseudo-noise in (-1, 1), no RNG dependency.
fn noise(seed: u64, user: usize, object: usize) -> f64 {
    let mut h = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add((user as u64) << 32 | object as u64);
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    (h % 2_000_000) as f64 / 1_000_000.0 - 1.0
}

/// One epoch of synthetic claims: every user claims object
/// `user % objects` (guaranteeing coverage) plus a pseudo-random subset
/// of the rest, with values that differ per (epoch, user, object).
fn epoch_claims(epoch: u64, users: usize, objects: usize, seed: u64) -> Vec<Vec<(usize, f64)>> {
    (0..users)
        .map(|u| {
            (0..objects)
                .filter(|&o| o == u % objects || noise(seed ^ (epoch << 17), u, o + objects) > 0.25)
                .map(|o| (o, 10.0 * noise(seed.wrapping_add(epoch), u, o)))
                .collect()
        })
        .collect()
}

/// Split one epoch's claims into `num_shards` [`ShardClaims`] under an
/// arbitrary user→shard assignment, with each shard's push order
/// scrambled by `scramble` (an LCG-driven Fisher–Yates) — the most
/// adversarial range split the merge can legally receive.
fn adversarial_shards(
    claims: &[Vec<(usize, f64)>],
    assignment: &[usize],
    num_shards: usize,
    scramble: u64,
) -> Vec<ShardClaims> {
    let mut per_shard: Vec<Vec<usize>> = vec![Vec::new(); num_shards];
    for (user, &shard) in assignment.iter().enumerate() {
        per_shard[shard].push(user);
    }
    let mut state = scramble | 1;
    let mut next = || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        state
    };
    per_shard
        .into_iter()
        .map(|mut members| {
            for i in (1..members.len()).rev() {
                members.swap(i, (next() % (i as u64 + 1)) as usize);
            }
            let mut shard = ShardClaims::new();
            for user in members {
                shard.push(user, claims[user].clone());
            }
            shard
        })
        .collect()
}

/// Populations chosen to straddle the reduction tree's 256-user leaf
/// boundary (one leaf, exactly one, just over one, two, just over two)
/// plus small odd sizes.
fn population() -> impl Strategy<Value = usize> {
    (0usize..5, 0usize..40).prop_map(|(which, r)| match which {
        0 => 1 + r,       // small odd sizes, single partial leaf
        1 => 254 + r % 5, // straddling the first leaf boundary
        2 => 511,         // one short of two full leaves
        3 => 512,         // exactly two leaves
        _ => 513,         // two leaves plus a one-user leaf
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary shard counts × 1–8 merge workers × adversarial range
    /// splits: every combination's truths and weights are byte-identical
    /// to the sequential (one worker, one shard, ascending) merge.
    #[test]
    fn parallel_merge_is_bit_identical_to_sequential(
        users in population(),
        objects in 1usize..4,
        num_shards in 1usize..7,
        seed in 0u64..1000,
        scramble in 0u64..1000,
        assignment_seed in 0u64..1000,
    ) {
        let epochs = 2u64;
        let assignment: Vec<usize> =
            (0..users).map(|u| (noise(assignment_seed, u, 0).abs() * num_shards as f64)
                as usize % num_shards).collect();

        // Sequential reference: one shard, users ascending, one worker.
        let mut reference = StreamingCrh::new(users, Loss::Squared).unwrap();
        let mut ref_truths = Vec::new();
        for epoch in 0..epochs {
            let claims = epoch_claims(epoch, users, objects, seed);
            let mut shard = ShardClaims::new();
            for (user, user_claims) in claims.iter().enumerate() {
                shard.push(user, user_claims.clone());
            }
            ref_truths.push(
                reference.ingest_sharded_with_workers(objects, &[shard], 1).unwrap());
        }

        for workers in 1usize..=8 {
            let mut crh = StreamingCrh::new(users, Loss::Squared).unwrap();
            for epoch in 0..epochs {
                let claims = epoch_claims(epoch, users, objects, seed);
                let shards = adversarial_shards(&claims, &assignment, num_shards, scramble);
                let truths = crh
                    .ingest_sharded_with_workers(objects, &shards, workers)
                    .unwrap();
                prop_assert_eq!(
                    bits(&truths), bits(&ref_truths[epoch as usize]),
                    "truths diverged: {} shards, {} workers, epoch {}",
                    num_shards, workers, epoch
                );
            }
            prop_assert_eq!(
                bits(crh.weights()), bits(reference.weights()),
                "weights diverged: {} shards, {} workers", num_shards, workers
            );
        }
    }

    /// A WAL-style resume — rebuild the estimator from its persisted
    /// `(loss, cumulative_losses, batches_seen)` mid-stream, then finish
    /// under a *different* worker count and shard split — lands on the
    /// same bits as the uninterrupted sequential run.
    #[test]
    fn resume_from_parts_preserves_merge_bits(
        users in population(),
        objects in 1usize..4,
        num_shards in 1usize..6,
        seed in 0u64..1000,
        workers_before in 1usize..=8,
        workers_after in 1usize..=8,
    ) {
        let epochs = 3u64;
        let split = 2u64; // resume point: after epoch 0 and 1
        let assignment: Vec<usize> = (0..users).map(|u| u % num_shards).collect();

        let mut reference = StreamingCrh::new(users, Loss::Squared).unwrap();
        let mut ref_truths = Vec::new();
        for epoch in 0..epochs {
            let claims = epoch_claims(epoch, users, objects, seed);
            let mut shard = ShardClaims::new();
            for (user, user_claims) in claims.iter().enumerate() {
                shard.push(user, user_claims.clone());
            }
            ref_truths.push(
                reference.ingest_sharded_with_workers(objects, &[shard], 1).unwrap());
        }

        let mut crh = StreamingCrh::new(users, Loss::Squared).unwrap();
        for epoch in 0..split {
            let claims = epoch_claims(epoch, users, objects, seed);
            let shards = adversarial_shards(&claims, &assignment, num_shards, seed);
            crh.ingest_sharded_with_workers(objects, &shards, workers_before).unwrap();
        }
        // The WAL persists exactly these parts; recovery rebuilds from
        // them and the stream continues.
        let mut resumed = StreamingCrh::from_parts(
            Loss::Squared,
            crh.cumulative_losses().to_vec(),
            crh.batches_seen(),
        ).unwrap();
        drop(crh);
        for epoch in split..epochs {
            let claims = epoch_claims(epoch, users, objects, seed);
            let shards = adversarial_shards(&claims, &assignment, num_shards, seed ^ 0xabcd);
            let truths = resumed
                .ingest_sharded_with_workers(objects, &shards, workers_after)
                .unwrap();
            prop_assert_eq!(bits(&truths), bits(&ref_truths[epoch as usize]),
                "post-resume truths diverged at epoch {}", epoch);
        }
        prop_assert_eq!(bits(resumed.weights()), bits(reference.weights()),
            "post-resume weights diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// End to end through the engine: `merge_workers` is pure scheduling
    /// — every setting produces a bit-identical report.
    #[test]
    fn engine_reports_are_invariant_across_merge_workers(
        users in 16usize..300,
        objects in 1usize..5,
        seed in 0u64..1000,
    ) {
        let epochs = 2u64;
        let load = LoadGen::new(LoadGenConfig {
            num_users: users,
            num_objects: objects,
            epochs,
            duplicate_probability: 0.1,
            straggler_fraction: 0.1,
            coverage: 0.8,
            seed,
            ..LoadGenConfig::default()
        }).unwrap();

        let mut outputs = Vec::new();
        for merge_workers in [1usize, 2, 8, 0] {
            let engine = Engine::new(EngineConfig {
                num_users: users,
                num_objects: objects,
                num_shards: 4,
                workers: 2,
                queue_capacity: 64,
                epoch_deadline_us: load.config().epoch_len_us,
                loss: Loss::Squared,
                merge_workers,
            }).unwrap();
            let mut state = StreamingCrh::new(users, Loss::Squared).unwrap();
            let mut outcomes = Vec::new();
            for epoch in 0..epochs {
                let (report, next) =
                    engine.run_with_state(state, load.epoch_reports(epoch)).unwrap();
                state = next;
                outcomes.extend(report.epoch);
            }
            outputs.push((outcomes, state.weights().to_vec()));
        }
        for w in outputs.windows(2) {
            for (a, b) in w[0].0.iter().zip(&w[1].0) {
                prop_assert_eq!(bits(&a.truths), bits(&b.truths));
                prop_assert_eq!(&a.accepted_users, &b.accepted_users);
                prop_assert_eq!(a.accepted, b.accepted);
            }
            prop_assert_eq!(bits(&w[0].1), bits(&w[1].1));
        }
    }
}
