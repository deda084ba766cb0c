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
