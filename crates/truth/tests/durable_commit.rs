//! The durable commit against the plain one.
//!
//! [`StreamingCrh::ingest_columnar_durably`] refreshes the weights in
//! [`StreamingCrh::COMMIT_CHUNK`]-weight chunks on one thread, hashes
//! each chunk on a second as it is handed over, and runs the caller's
//! durable step on a third. Truths, weights, the weights copy and the
//! digest must be bit-identical to `ingest_columnar_with_workers`
//! followed by `fnv1a_f64s` — for populations around every chunk edge,
//! for a round whose loss total is zero, and for 1, 2 and auto merge
//! workers. A durable step that fails must leave the estimator exactly
//! as it was before the call.

use dptd_stats::digest::fnv1a_f64s;
use dptd_truth::columnar::ColumnarBatch;
use dptd_truth::streaming::{Committed, ShardClaims, StreamingCrh};
use dptd_truth::{Loss, TruthError};
use rand::Rng;

const CHUNK: usize = StreamingCrh::COMMIT_CHUNK;
const OBJECTS: usize = 3;

/// One user; one chunk minus one, exactly one, one plus one; several
/// chunks plus a tail.
const POPULATIONS: [usize; 5] = [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 17];

/// 1, 2 and auto merge workers.
const WORKERS: [usize; 3] = [1, 2, 0];

/// One round: user 0 and about one user in `every` report, each
/// claiming every object `spread` or less away from the object's id.
fn batch(users: usize, every: usize, spread: f64, seed: u64) -> ColumnarBatch {
    let mut rng = dptd_stats::seeded_rng(seed);
    let mut claims = ShardClaims::new();
    for user in 0..users {
        if user == 0 || rng.gen_range(0..every) == 0 {
            let row = (0..OBJECTS)
                .map(|object| {
                    let noise = if spread > 0.0 {
                        rng.gen_range(-spread..spread)
                    } else {
                        0.0
                    };
                    (object, object as f64 + noise)
                })
                .collect();
            claims.push(user, row);
        }
    }
    let mut batch = ColumnarBatch::new(users, OBJECTS);
    batch.load_shards(&[claims]).unwrap();
    batch
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Everything a commit leaves behind: losses, weights, digest, batches.
fn state(s: &StreamingCrh) -> (Vec<u64>, Vec<u64>, u64, usize) {
    (
        bits(s.cumulative_losses()),
        bits(s.weights()),
        s.weights_digest(),
        s.batches_seen(),
    )
}

/// Run `rounds` through both commits side by side and require every
/// observable to agree bit for bit after each, including what the
/// durable step was shown.
fn assert_commits_agree(users: usize, workers: usize, rounds: &[ColumnarBatch]) {
    let what = format!("{users} users, {workers} workers");
    let mut plain = StreamingCrh::new(users, Loss::NormalizedSquared).unwrap();
    let mut durable = plain.clone();
    let mut weights = Vec::new();
    for (round, batch) in rounds.iter().enumerate() {
        let expected = plain.ingest_columnar_with_workers(batch, workers).unwrap();
        let mut shown = None;
        let truths = durable
            .ingest_columnar_durably(batch, workers, &mut weights, |c: Committed<'_>| {
                shown = Some((c.users.to_vec(), bits(c.cumulative_losses), c.batches_seen));
                Ok::<(), TruthError>(())
            })
            .unwrap();
        assert_eq!(bits(&truths), bits(&expected), "{what}, round {round}");
        assert_eq!(
            durable.weights_digest(),
            fnv1a_f64s(plain.weights()),
            "{what}, round {round}: digest"
        );
        assert_eq!(state(&durable), state(&plain), "{what}, round {round}");
        assert_eq!(
            bits(&weights),
            bits(plain.weights()),
            "{what}, round {round}"
        );
        assert_eq!(
            shown,
            Some((
                batch.users().to_vec(),
                bits(plain.cumulative_losses()),
                plain.batches_seen()
            )),
            "{what}, round {round}: the durable step's view"
        );
    }
}

#[test]
fn durable_commits_equal_plain_ones_around_every_chunk_edge() {
    for users in POPULATIONS {
        let rounds: Vec<ColumnarBatch> = (0..3)
            .map(|round| batch(users, 7, 0.8, users as u64 * 10 + round))
            .collect();
        for workers in WORKERS {
            assert_commits_agree(users, workers, &rounds);
        }
    }
}

#[test]
fn a_zero_total_round_leaves_every_weight_at_one() {
    // Every claim sits on its object's truth, so no loss accrues
    // anywhere and every weight stays 1.0; the next round moves them.
    let users = 2 * CHUNK + 5;
    let rounds = [batch(users, 3, 0.0, 1), batch(users, 3, 0.5, 2)];
    for workers in WORKERS {
        assert_commits_agree(users, workers, &rounds);
        let mut s = StreamingCrh::new(users, Loss::NormalizedSquared).unwrap();
        let mut weights = Vec::new();
        s.ingest_columnar_durably(&rounds[0], workers, &mut weights, |_| {
            Ok::<(), TruthError>(())
        })
        .unwrap();
        assert!(s.cumulative_losses().iter().all(|&l| l == 0.0));
        assert!(s.weights().iter().all(|&w| w == 1.0));
        assert_eq!(bits(&weights), bits(s.weights()));
    }
}

#[test]
fn a_failed_durable_step_takes_the_batch_back() {
    let users = CHUNK + 3;
    let refused = |_: Committed<'_>| {
        Err(TruthError::Degenerate {
            reason: "injected durable-step failure",
        })
    };
    let mut plain = StreamingCrh::new(users, Loss::NormalizedSquared).unwrap();
    let mut s = plain.clone();
    let mut weights = Vec::new();
    for (round, seed) in [11u64, 12, 13].into_iter().enumerate() {
        let batch = batch(users, 5, 0.8, seed);
        // From a fresh estimator (round 0) and from carried state, with
        // the digest memo cold (worker 1) and warm (the later ones).
        for workers in WORKERS {
            let before = (
                bits(s.cumulative_losses()),
                bits(s.weights()),
                s.batches_seen(),
            );
            let err = s
                .ingest_columnar_durably(&batch, workers, &mut weights, refused)
                .unwrap_err();
            assert!(matches!(err, TruthError::Degenerate { .. }), "{err:?}");
            let after = (
                bits(s.cumulative_losses()),
                bits(s.weights()),
                s.batches_seen(),
            );
            assert_eq!(after, before, "round {round}, {workers} workers");
            assert_eq!(s.weights_digest(), fnv1a_f64s(s.weights()), "round {round}");
            assert!(weights.is_empty());
        }
        // The retried batch commits as if the failures never happened.
        plain.ingest_columnar_with_workers(&batch, 0).unwrap();
        s.ingest_columnar_durably(&batch, 2, &mut weights, |_| Ok::<(), TruthError>(()))
            .unwrap();
        assert_eq!(state(&s), state(&plain), "round {round}");
    }
}
