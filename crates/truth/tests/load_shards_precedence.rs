//! Which [`TruthError`] `ColumnarBatch::load_shards` reports when an
//! epoch has more than one thing wrong with it.
//!
//! The order is part of the contract the serving layer's refusals and
//! the engine's error strings are written against: slot occupancy is
//! checked first, over every shard in shard/push order; then rows are
//! validated users ascending, and within a row claims in the order they
//! were pushed — object range, then finiteness and magnitude, then
//! duplicate cell.

use dptd_truth::columnar::{ColumnarBatch, MAX_CLAIM_MAGNITUDE};
use dptd_truth::streaming::ShardClaims;
use dptd_truth::TruthError;

type Row = (usize, Vec<(usize, f64)>);

struct Case {
    name: &'static str,
    num_users: usize,
    num_objects: usize,
    /// One inner `Vec` per shard, rows in push order.
    shards: Vec<Vec<Row>>,
    expect: Result<Vec<usize>, TruthError>,
}

fn dup(user: usize, object: usize) -> Result<Vec<usize>, TruthError> {
    Err(TruthError::DuplicateObservation { user, object })
}

fn cases() -> Vec<Case> {
    let inf = f64::INFINITY;
    vec![
        Case {
            name: "range defect before a non-finite value: claim order decides",
            num_users: 4,
            num_objects: 2,
            shards: vec![vec![(1, vec![(7, 1.0), (1, inf)])]],
            expect: Err(TruthError::ObjectOutOfRange {
                object: 7,
                num_objects: 2,
            }),
        },
        Case {
            name: "non-finite value before a range defect: claim order decides",
            num_users: 4,
            num_objects: 2,
            shards: vec![vec![(1, vec![(1, inf), (7, 1.0)])]],
            expect: Err(TruthError::NonFiniteObservation {
                user: 1,
                object: 1,
                value: inf,
            }),
        },
        Case {
            name: "a repeated cell whose second value is non-finite: finiteness is checked first",
            num_users: 4,
            num_objects: 2,
            shards: vec![vec![(2, vec![(0, 1.0), (0, inf)])]],
            expect: Err(TruthError::NonFiniteObservation {
                user: 2,
                object: 0,
                value: inf,
            }),
        },
        Case {
            name: "a repeated cell before a range defect later in the row",
            num_users: 4,
            num_objects: 2,
            shards: vec![vec![(2, vec![(0, 1.0), (0, 2.0), (9, 1.0)])]],
            expect: dup(2, 0),
        },
        Case {
            name: "a repeated cell in an unsorted row",
            num_users: 4,
            num_objects: 3,
            shards: vec![vec![(3, vec![(2, 1.0), (0, 2.0), (2, 3.0)])]],
            expect: dup(3, 2),
        },
        Case {
            name: "two bad rows: the lower user id is reported, not the first pushed",
            num_users: 4,
            num_objects: 2,
            shards: vec![vec![(3, vec![(0, inf)])], vec![(1, vec![(5, 1.0)])]],
            expect: Err(TruthError::ObjectOutOfRange {
                object: 5,
                num_objects: 2,
            }),
        },
        Case {
            name: "two shards claim one user: occupancy beats the bad cell in the first copy",
            num_users: 4,
            num_objects: 2,
            shards: vec![vec![(0, vec![(0, inf)])], vec![(0, vec![(1, 2.0)])]],
            expect: dup(0, 1),
        },
        Case {
            name: "two shards claim one user, first copy empty: the second copy's object is named",
            num_users: 4,
            num_objects: 2,
            shards: vec![
                vec![(0, vec![])],
                vec![(0, vec![(1, 2.0)]), (1, vec![(0, 1.5)])],
            ],
            expect: dup(0, 1),
        },
        Case {
            name: "two shards claim one user, second copy empty: object 0 stands in",
            num_users: 4,
            num_objects: 2,
            shards: vec![vec![(0, vec![(1, 2.0)])], vec![(0, vec![])]],
            expect: dup(0, 0),
        },
        Case {
            name: "one shard pushes a user twice",
            num_users: 4,
            num_objects: 2,
            shards: vec![vec![(2, vec![(0, 1.0)]), (2, vec![(1, 1.0)])]],
            expect: dup(2, 1),
        },
        Case {
            name: "a user out of population pushed before a slot conflict",
            num_users: 4,
            num_objects: 2,
            shards: vec![vec![(9, vec![(0, 1.0)])], vec![(1, vec![]), (1, vec![])]],
            expect: Err(TruthError::UserOutOfRange {
                user: 9,
                num_users: 4,
            }),
        },
        Case {
            name: "a slot conflict pushed before a user out of population",
            num_users: 4,
            num_objects: 2,
            shards: vec![vec![(1, vec![]), (1, vec![])], vec![(9, vec![(0, 1.0)])]],
            expect: dup(1, 0),
        },
        Case {
            name: "a slot conflict in a zero-object epoch: occupancy is checked before the shape",
            num_users: 4,
            num_objects: 0,
            shards: vec![vec![(1, vec![]), (1, vec![])]],
            expect: dup(1, 0),
        },
        Case {
            name: "a zero-object epoch with a claim: the shape is reported, not the cell",
            num_users: 4,
            num_objects: 0,
            shards: vec![vec![(1, vec![(0, 1.0)])]],
            expect: Err(TruthError::EmptyMatrix),
        },
        Case {
            name: "an empty claim list occupies its slot and is not an error",
            num_users: 4,
            num_objects: 2,
            shards: vec![vec![(3, vec![])], vec![(0, vec![(1, 1.0), (0, 2.0)])]],
            expect: Ok(vec![0, 3]),
        },
        Case {
            name: "a claim at the magnitude bound is admitted",
            num_users: 4,
            num_objects: 2,
            shards: vec![vec![(
                1,
                vec![(0, MAX_CLAIM_MAGNITUDE), (1, -MAX_CLAIM_MAGNITUDE)],
            )]],
            expect: Ok(vec![1]),
        },
        Case {
            name: "a finite claim past the magnitude bound is refused with its user and object",
            num_users: 4,
            num_objects: 2,
            shards: vec![vec![(1, vec![(0, 1.0), (1, 1e200)])]],
            expect: Err(TruthError::ObservationOutOfBounds {
                user: 1,
                object: 1,
                value: 1e200,
            }),
        },
        Case {
            name: "range defect before an out-of-bounds value: claim order decides",
            num_users: 4,
            num_objects: 2,
            shards: vec![vec![(1, vec![(7, 1.0), (1, -1e101)])]],
            expect: Err(TruthError::ObjectOutOfRange {
                object: 7,
                num_objects: 2,
            }),
        },
        Case {
            name: "an out-of-bounds value before a non-finite one: claim order decides",
            num_users: 4,
            num_objects: 2,
            shards: vec![vec![(1, vec![(1, -1e101), (0, f64::NAN)])]],
            expect: Err(TruthError::ObservationOutOfBounds {
                user: 1,
                object: 1,
                value: -1e101,
            }),
        },
        Case {
            name: "a repeated cell whose second value is out of bounds: magnitude is checked first",
            num_users: 4,
            num_objects: 2,
            shards: vec![vec![(2, vec![(0, 1.0), (0, 1e200)])]],
            expect: Err(TruthError::ObservationOutOfBounds {
                user: 2,
                object: 0,
                value: 1e200,
            }),
        },
        Case {
            name: "two shards claim one user: occupancy beats an out-of-bounds cell",
            num_users: 4,
            num_objects: 2,
            shards: vec![vec![(0, vec![(0, 1e200)])], vec![(0, vec![(1, 2.0)])]],
            expect: dup(0, 1),
        },
        Case {
            name: "reporters in different bitmap words come out ascending",
            num_users: 200,
            num_objects: 1,
            shards: vec![
                vec![(199, vec![(0, 1.0)]), (64, vec![(0, 1.0)])],
                vec![(63, vec![]), (0, vec![(0, 2.0)]), (128, vec![(0, 3.0)])],
            ],
            expect: Ok(vec![0, 63, 64, 128, 199]),
        },
    ]
}

#[test]
fn load_shards_reports_the_documented_error_for_every_pair_of_defects() {
    for case in cases() {
        let shards: Vec<ShardClaims> = case
            .shards
            .into_iter()
            .map(|rows| {
                let mut shard = ShardClaims::new();
                for (user, claims) in rows {
                    shard.push(user, claims);
                }
                shard
            })
            .collect();
        let mut batch = ColumnarBatch::new(case.num_users, case.num_objects);
        let got = batch.load_shards(&shards).map(|()| batch.users().to_vec());
        assert_eq!(got, case.expect, "{}", case.name);
        // A refused load leaves the arena usable: the next epoch loads
        // into it and shows nothing of the refused one.
        if case.num_objects > 0 {
            let mut clean = ShardClaims::new();
            clean.push(2, vec![(0, 1.0)]);
            batch
                .load_shards(&[clean])
                .unwrap_or_else(|e| panic!("{}: clean epoch after the refusal: {e}", case.name));
            assert_eq!(batch.users(), &[2], "{}", case.name);
            assert_eq!(batch.num_claims(), 1, "{}", case.name);
        }
    }
}

#[test]
fn nan_is_reported_with_its_user_and_object() {
    let mut shard = ShardClaims::new();
    shard.push(57, vec![(0, 1.0), (1, f64::NAN)]);
    let mut batch = ColumnarBatch::new(100, 2);
    match batch.load_shards(&[shard]) {
        Err(TruthError::NonFiniteObservation {
            user: 57,
            object: 1,
            value,
        }) => assert!(value.is_nan()),
        other => panic!("expected the NaN cell of user 57, got {other:?}"),
    }
}

/// `columnar.rs`'s parallel threshold: an epoch of this many claims or
/// more copies its rows on the merge workers, in contiguous runs of
/// rows, the last run on the caller. (On a one-core host every epoch
/// stays on the caller, and these cases pin the serial order only.)
const PAR_CLAIM_THRESHOLD: usize = 16_384;
const SHARDS: usize = 16;
const OBJECTS: usize = 8;

/// An epoch of exactly `claims` claims, users ascending: full rows of
/// [`OBJECTS`] claims and one short row for the remainder, every ninth
/// reporter an empty row and every fifth row pushed objects descending
/// (so it is sorted on the way in). Returns the population and the rows.
fn big_epoch(claims: usize, seed: usize) -> (usize, Vec<Row>) {
    let mut rows = Vec::new();
    let mut remaining = claims;
    while remaining > 0 {
        let k = rows.len();
        let user = 3 * k + 1;
        let width = if k % 9 == 8 {
            0
        } else {
            remaining.min(OBJECTS)
        };
        remaining -= width;
        let mut row: Vec<(usize, f64)> = (0..width)
            .map(|n| {
                let noise = ((user * 31 + n * 7 + seed * 13) % 1000) as f64 / 1000.0;
                (n, n as f64 + noise)
            })
            .collect();
        if k % 5 == 0 {
            row.reverse();
        }
        rows.push((user, row));
    }
    (3 * rows.len() + 2, rows)
}

/// The rows split over [`SHARDS`] shards by `user % SHARDS`.
fn sharded(rows: &[Row]) -> Vec<ShardClaims> {
    let mut shards = vec![ShardClaims::new(); SHARDS];
    for (user, claims) in rows {
        shards[user % SHARDS].push(*user, claims.clone());
    }
    shards
}

/// What a loaded batch shows its kernels: the users, the claim count,
/// the spreads and the truths under uneven row weights, by bits.
fn fingerprint(batch: &ColumnarBatch) -> (Vec<usize>, usize, Vec<u64>, Vec<u64>) {
    let weights: Vec<f64> = (0..batch.users().len())
        .map(|row| 1.0 + (row % 7) as f64)
        .collect();
    let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect();
    (
        batch.users().to_vec(),
        batch.num_claims(),
        bits(batch.object_std_devs(1)),
        bits(batch.weighted_truths(&weights, 1).unwrap()),
    )
}

/// Plant one defect of `kind` in row `at` (a row with claims) and
/// return the error `load_shards` must report for it.
fn plant(rows: &mut [Row], at: usize, kind: usize) -> TruthError {
    let (user, claims) = &mut rows[at];
    let user = *user;
    match kind {
        0 => {
            claims.last_mut().unwrap().0 = OBJECTS + 3;
            TruthError::ObjectOutOfRange {
                object: OBJECTS + 3,
                num_objects: OBJECTS,
            }
        }
        1 => {
            claims[0].1 = f64::INFINITY;
            TruthError::NonFiniteObservation {
                user,
                object: claims[0].0,
                value: f64::INFINITY,
            }
        }
        _ => {
            let object = claims[0].0;
            claims.last_mut().unwrap().0 = object;
            TruthError::DuplicateObservation { user, object }
        }
    }
}

#[test]
fn a_parallel_load_reports_the_lowest_defective_user_and_leaves_nothing_behind() {
    for claims in [
        PAR_CLAIM_THRESHOLD - 1,
        PAR_CLAIM_THRESHOLD,
        4 * PAR_CLAIM_THRESHOLD,
    ] {
        let (num_users, clean) = big_epoch(claims, 1);
        let mut fresh = ColumnarBatch::new(num_users, OBJECTS);
        fresh.load_shards(&sharded(&clean)).unwrap();
        assert_eq!(fresh.num_claims(), claims);
        let expected = fingerprint(&fresh);

        // Rows with claims on either side of the middle (a two-run
        // boundary) and at both ends (different runs for any worker
        // count above one).
        let filled = |i: &usize| !clean[*i].1.is_empty();
        let half = clean.len() / 2;
        let below = (0..half).rev().find(filled).unwrap();
        let above = (half..clean.len()).find(filled).unwrap();
        let last = clean.len() - 1;
        let mut plantings: Vec<Vec<(usize, usize)>> = Vec::new();
        for (lo, hi) in [(0, last), (below, above)] {
            for kind in 0..3 {
                plantings.push(vec![(lo, kind), (hi, (kind + 1) % 3)]);
                plantings.push(vec![(hi, kind), (lo, (kind + 2) % 3)]);
            }
        }
        for kind in 0..3 {
            plantings.push(vec![(last, kind)]);
        }

        let mut batch = ColumnarBatch::new(num_users, OBJECTS);
        for planted in plantings {
            let what = format!("{claims} claims, defects at {planted:?}");
            let mut rows = clean.clone();
            let errors: Vec<(usize, TruthError)> = planted
                .iter()
                .map(|&(at, kind)| (at, plant(&mut rows, at, kind)))
                .collect();
            let lowest = errors.into_iter().min_by_key(|&(at, _)| at).unwrap().1;
            assert_eq!(batch.load_shards(&sharded(&rows)), Err(lowest), "{what}");
            assert!(batch.users().is_empty(), "{what}: refused rows kept");
            assert_eq!(batch.num_claims(), 0, "{what}: refused claims kept");
            batch.load_shards(&sharded(&clean)).unwrap();
            assert_eq!(fingerprint(&batch), expected, "{what}: clean epoch after");
        }
    }
}

/// An object id past `u32::MAX` is refused as out of range, never read
/// as the object it would wrap to: `(1 << 32) + 1` (object 1, a valid
/// one, if wrapped) and `usize::MAX`, pushed through `ShardClaims::push`
/// in a row that is otherwise clean, in an epoch on either side of the
/// parallel threshold. A refused load leaves the batch empty, and the
/// next clean epoch loads as it does into a fresh arena.
#[test]
fn an_object_id_past_u32_is_refused_not_aliased() {
    for claims in [PAR_CLAIM_THRESHOLD - 1, 4 * PAR_CLAIM_THRESHOLD] {
        let (num_users, clean) = big_epoch(claims, 2);
        let mut fresh = ColumnarBatch::new(num_users, OBJECTS);
        fresh.load_shards(&sharded(&clean)).unwrap();
        let expected = fingerprint(&fresh);
        let mut batch = ColumnarBatch::new(num_users, OBJECTS);
        for bad in [(1usize << 32) + 1, usize::MAX] {
            let what = format!("{claims} claims, object {bad}");
            // `big_epoch` leaves user 0 free.
            let mut rows = clean.clone();
            rows.insert(0, (0, vec![(0, 1.0), (bad, 2.0)]));
            match batch.load_shards(&sharded(&rows)) {
                Err(TruthError::ObjectOutOfRange {
                    num_objects: OBJECTS,
                    ..
                }) => {}
                other => panic!("{what}: {other:?}"),
            }
            assert!(batch.users().is_empty(), "{what}: refused rows kept");
            assert_eq!(batch.num_claims(), 0, "{what}: refused claims kept");
            batch.load_shards(&sharded(&clean)).unwrap();
            assert_eq!(fingerprint(&batch), expected, "{what}: clean epoch after");
        }
    }
}

#[test]
fn a_sharded_load_equals_the_matrix_path_bit_for_bit() {
    use dptd_truth::streaming::StreamingCrh;
    use dptd_truth::{Loss, ObservationMatrix};

    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for claims in [
        PAR_CLAIM_THRESHOLD - 1,
        PAR_CLAIM_THRESHOLD,
        4 * PAR_CLAIM_THRESHOLD,
    ] {
        for loss in [Loss::Squared, Loss::NormalizedSquared] {
            let num_users = big_epoch(claims, 0).0;
            let mut reference = StreamingCrh::new(num_users, loss).unwrap();
            let mut live = StreamingCrh::new(num_users, loss).unwrap();
            let mut batch = ColumnarBatch::new(num_users, OBJECTS);
            for seed in 0..3 {
                let what = format!("{claims} claims, {loss:?}, epoch {seed}");
                let (_, rows) = big_epoch(claims, seed);
                let mut matrix = ObservationMatrix::with_dims(num_users, OBJECTS).unwrap();
                for (user, row) in &rows {
                    for &(object, value) in row {
                        matrix.insert(*user, object, value).unwrap();
                    }
                }
                let expected = reference.ingest(&matrix).unwrap();
                batch.load_shards(&sharded(&rows)).unwrap();
                let got = live.ingest_columnar_with_workers(&batch, 0).unwrap();
                assert_eq!(bits(&got), bits(&expected), "{what}: truths");
                assert_eq!(
                    bits(live.weights()),
                    bits(reference.weights()),
                    "{what}: weights"
                );
            }
        }
    }
}
