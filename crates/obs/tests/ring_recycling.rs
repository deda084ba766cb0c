//! Trace rings of exited threads are recycled: a thread that records
//! takes over the ring of one that has exited instead of registering a
//! new one. Its own test binary, so no concurrent test shares the ring
//! registry.

use std::collections::BTreeSet;

use dptd_obs::trace::{self, codes, TraceScope};

#[test]
fn sequential_threads_reuse_one_ring() {
    trace::set_enabled(true);
    const THREADS: u64 = 64;
    for i in 0..THREADS {
        std::thread::spawn(move || {
            let _span = TraceScope::begin(codes::MERGE, i);
        })
        .join()
        .expect("recording thread");
    }

    let events = trace::collect();
    let rings: BTreeSet<u64> = events.iter().map(|e| e.tid).collect();
    assert_eq!(
        rings.len(),
        1,
        "{THREADS} threads run one after another registered {} rings",
        rings.len()
    );
    // Every thread's span is still readable: a reused ring keeps what
    // earlier owners recorded until it wraps.
    let begun: BTreeSet<u64> = events
        .iter()
        .filter(|e| e.phase == 'B' && e.code == codes::MERGE)
        .map(|e| e.arg)
        .collect();
    assert_eq!(begun, (0..THREADS).collect());
    let ended = events.iter().filter(|e| e.phase == 'E').count();
    assert_eq!(ended, THREADS as usize);
    assert_eq!(events.len(), 2 * THREADS as usize);

    // `reset` still clears the recycled ring.
    trace::reset();
    assert!(trace::collect().is_empty());
}
