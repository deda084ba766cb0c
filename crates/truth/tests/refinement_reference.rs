//! `StreamingCrh`'s claimant-only refinement against the formulation it
//! replaced, bit for bit.
//!
//! The reference below is the straightforward population-wide step: clone
//! every cumulative loss, add the batch's trial losses in place, derive
//! a full weight vector from the clone, re-aggregate, add the final
//! losses in place and derive the full weight vector again. The
//! estimator under test touches only the batch's rows until it needs the
//! loss total and the weight refresh. Every truth, loss and weight must
//! agree by `to_bits`: across populations that straddle bitmap words
//! (63/64/65), reduction leaves and the weight-refresh split (`256k ± 1`),
//! participation from 0.1 % to 100 % with rows whose claim lists are
//! empty, a first round whose total loss is zero, and 1–8 workers.

use dptd_stats::digest::fnv1a_f64s;
use dptd_truth::columnar::{effective_workers, ColumnarBatch};
use dptd_truth::streaming::{ShardClaims, StreamingCrh};
use dptd_truth::{Loss, TruthError};

const OBJECTS: usize = 3;

/// One round's claims: `(user, claims ascending by object)`, users
/// ascending. A user may appear with no claims at all.
type Round = Vec<(usize, Vec<(usize, f64)>)>;

fn mix(seed: u64, a: usize, b: usize) -> u64 {
    let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
    for x in [a as u64, b as u64] {
        h = (h ^ x).wrapping_mul(0x0100_0000_01b3);
        h ^= h >> 29;
    }
    h
}

fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// A round at `participation` of `users`: user `anchor` always reports
/// every object (so each object is covered), every eighth other reporter
/// sends an empty claim list, and `flat` makes every claim equal its
/// object's id — a round whose every loss, and so whose total, is zero.
fn round(users: usize, participation: f64, seed: u64, flat: bool) -> Round {
    let anchor = (seed as usize) % users;
    (0..users)
        .filter(|&u| u == anchor || unit(mix(seed, u, 0)) < participation)
        .map(|u| {
            let h = mix(seed, u, 1);
            let claims = if u != anchor && h.is_multiple_of(8) {
                Vec::new()
            } else {
                (0..OBJECTS)
                    .filter(|&n| u == anchor || !mix(seed, u, n + 2).is_multiple_of(3))
                    .map(|n| {
                        let noise = if flat {
                            0.0
                        } else {
                            // A tenth of the users are ten times noisier.
                            let scale = if h % 10 == 1 { 10.0 } else { 1.0 };
                            scale * (unit(mix(seed, u, n + 7)) - 0.5)
                        };
                        (n, n as f64 + noise)
                    })
                    .collect()
            };
            (u, claims)
        })
        .collect()
}

/// The rows split over three shards by `user % 3`, each ascending.
fn shards(round: &Round) -> Vec<ShardClaims> {
    let mut shards = vec![ShardClaims::new(); 3];
    for (user, claims) in round {
        shards[user % 3].push(*user, claims.clone());
    }
    shards
}

/// Per-user weights from cumulative losses, computed over the whole
/// population into a fresh vector.
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

/// The population-wide reference estimator.
struct Reference {
    loss: Loss,
    cumulative: Vec<f64>,
    weights: Vec<f64>,
}

impl Reference {
    fn new(users: usize, loss: Loss) -> Self {
        Self {
            loss,
            cumulative: vec![0.0; users],
            weights: vec![1.0; users],
        }
    }

    /// Add each claim's loss into its user's slot of `acc`, users
    /// ascending and claims ascending by object.
    fn add_losses(&self, round: &Round, truths: &[f64], stds: &[f64], acc: &mut [f64]) {
        for (user, claims) in round {
            for &(n, v) in claims {
                acc[*user] += self.loss.distance(v, truths[n], stds[n]);
            }
        }
    }

    fn step(
        &mut self,
        batch: &ColumnarBatch,
        round: &Round,
        workers: usize,
    ) -> Result<Vec<f64>, TruthError> {
        batch.validate_coverage()?;
        let workers = effective_workers(workers, batch.num_claims(), batch.num_leaves());
        let stds = batch.object_std_devs(workers);
        let gather =
            |weights: &[f64]| -> Vec<f64> { batch.users().iter().map(|&u| weights[u]).collect() };
        let mut truths = batch.weighted_truths(&gather(&self.weights), workers)?;
        let mut trial = self.cumulative.clone();
        self.add_losses(round, &truths, &stds, &mut trial);
        let trial_weights = share_weights(&trial);
        truths = batch.weighted_truths(&gather(&trial_weights), workers)?;
        let mut cumulative = std::mem::take(&mut self.cumulative);
        self.add_losses(round, &truths, &stds, &mut cumulative);
        self.cumulative = cumulative;
        self.weights = share_weights(&self.cumulative);
        Ok(truths)
    }
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Drive both estimators through `participations` (the first round
/// flat) at `workers`, comparing everything after every round.
fn agree(users: usize, participations: &[f64], workers: usize, loss: Loss) {
    let mut reference = Reference::new(users, loss);
    let mut live = StreamingCrh::new(users, loss).unwrap();
    let mut batch = ColumnarBatch::new(users, OBJECTS);
    for (r, &p) in participations.iter().enumerate() {
        let what = format!("{users} users, round {r} at {p}, {workers} workers, {loss:?}");
        let claims = round(users, p, (users * 31 + r) as u64, r == 0);
        batch.load_shards(&shards(&claims)).unwrap();
        let expected = reference.step(&batch, &claims, workers).unwrap();
        let got = live.ingest_columnar_with_workers(&batch, workers).unwrap();
        assert_eq!(bits(&got), bits(&expected), "{what}: truths");
        assert_eq!(
            bits(live.cumulative_losses()),
            bits(&reference.cumulative),
            "{what}: losses"
        );
        assert_eq!(
            bits(live.weights()),
            bits(&reference.weights),
            "{what}: weights"
        );
        assert_eq!(live.weights_digest(), fnv1a_f64s(&reference.weights));
        if r == 0 {
            assert!(
                live.weights().iter().all(|&w| w == 1.0),
                "{what}: zero total"
            );
        }
    }
}

#[test]
fn small_populations_agree_for_every_worker_count() {
    let participations = [1.0, 0.001, 0.02, 0.3, 1.0, 0.5];
    for users in [1, 2, 63, 64, 65, 255, 256, 257, 600] {
        for workers in 1..=8 {
            for loss in [Loss::NormalizedSquared, Loss::Squared, Loss::Absolute] {
                agree(users, &participations, workers, loss);
            }
        }
    }
}

#[test]
fn populations_around_the_refresh_split_agree() {
    // 256k ± 1: every leaf boundary and bitmap word at this scale, and a
    // weight refresh split over the workers in uneven ranges. Every loss,
    // above the parallel threshold too: the estimator computes spreads
    // only for the normalised one, the reference for all three.
    let participations = [0.01, 0.001, 0.02, 1.0];
    for (users, workers) in [(262_143, 1), (262_144, 3), (262_145, 8), (262_145, 2)] {
        for loss in [Loss::NormalizedSquared, Loss::Squared, Loss::Absolute] {
            agree(users, &participations, workers, loss);
        }
    }
}
