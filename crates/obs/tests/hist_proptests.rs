//! Property tests for the observability primitives:
//!
//! 1. The log-linear histogram's bucket geometry is a total, monotone,
//!    self-consistent partition of `u64`: every value lands in-range,
//!    inside the `[floor(i), floor(i+1))` window its index claims, and
//!    larger values never map to smaller buckets.
//! 2. The lock-free `Counter` absorbs concurrent writers (1–8 threads)
//!    without losing a single increment.

use proptest::prelude::*;

use dptd_obs::hist::{bucket_floor, bucket_index};
use dptd_obs::{Counter, NUM_BUCKETS};

/// Values spread across the histogram's whole dynamic range: the linear
/// region, every binary octave, and the saturating top.
fn latency_ns() -> impl Strategy<Value = u64> {
    (0u32..66, 0u64..u64::MAX).prop_map(|(class, raw)| match class {
        64 => raw % 4_096, // linear region
        65 => u64::MAX,    // saturating top
        shift => {
            // Inside the octave [2^shift, 2^(shift+1)).
            let lo = 1u64 << shift;
            lo + raw % lo.max(1)
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn bucket_geometry_is_total_monotone_and_self_consistent(v in latency_ns()) {
        let i = bucket_index(v);
        prop_assert!(i < NUM_BUCKETS, "index {i} out of range for {v}");
        prop_assert!(bucket_floor(i) <= v,
            "floor({i}) = {} exceeds its member {v}", bucket_floor(i));
        if i + 1 < NUM_BUCKETS {
            prop_assert!(v < bucket_floor(i + 1),
                "{v} in bucket {i} but >= next floor {}", bucket_floor(i + 1));
        }
        // A floor is its own bucket's first member.
        prop_assert_eq!(bucket_index(bucket_floor(i)), i);
        // Monotone: one past the floor can never fall back a bucket.
        prop_assert!(bucket_index(v.saturating_add(1)) >= i);
    }
}

proptest! {
    // Each case spawns real threads; keep the count civil.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn concurrent_writers_lose_nothing(
        values in prop::collection::vec(0u64..1 << 40, 1..400),
        writers in 1usize..=8,
    ) {
        // `writers` threads share the counter, each counting a disjoint
        // interleaved slice.
        let count = Counter::new();
        let handles: Vec<_> = (0..writers)
            .map(|w| {
                let count = count.clone();
                let slice: Vec<u64> = values
                    .iter()
                    .copied()
                    .skip(w)
                    .step_by(writers)
                    .collect();
                std::thread::spawn(move || {
                    for _ in slice {
                        count.incr();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("writer thread");
        }

        prop_assert_eq!(count.get(), values.len() as u64);
    }
}
