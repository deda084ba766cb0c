//! A capped, scoped worker pool.
//!
//! One OS thread per user exhausts OS threads long before the
//! million-user populations the ROADMAP targets. This pool caps
//! concurrency at a fixed worker count and statically partitions work
//! across the workers; the sharded aggregation engine (`dptd-engine`)
//! runs on it.
//!
//! Scoped threads keep the API borrow-friendly: closures may capture
//! references to stack data of the caller.

use std::num::NonZeroUsize;
use std::thread;

/// A fixed-size worker pool. Cheap to copy; threads are spawned per call
/// and joined before the call returns (scoped).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerPool {
    workers: usize,
}

impl Default for WorkerPool {
    /// One worker per available hardware thread (at least one).
    fn default() -> Self {
        let workers = thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1);
        Self { workers }
    }
}

impl WorkerPool {
    /// A pool of exactly `workers` threads (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
        }
    }

    /// The number of worker threads this pool runs.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Run `f(index)` for every `index in 0..items`, using at most
    /// `self.workers()` OS threads (contiguous static chunking). Blocks
    /// until every index has been processed.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any worker after all workers have been
    /// joined.
    pub fn for_each_index<F>(&self, items: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        if items == 0 {
            return;
        }
        let threads = self.workers.min(items);
        let f = &f;
        thread::scope(|scope| {
            for (lo, hi) in balanced_ranges(items, threads) {
                scope.spawn(move || {
                    for i in lo..hi {
                        f(i);
                    }
                });
            }
        });
    }

    /// Spawn `min(self.workers(), partitions)` long-running workers, each
    /// handed its contiguous slice of partition ids, and block until all
    /// return. Unlike [`WorkerPool::for_each_index`], each worker sees its
    /// whole assignment at once — the shape a queue-drain loop needs (one
    /// worker interleaving several shard queues).
    ///
    /// # Panics
    ///
    /// Propagates a panic from any worker after all workers have been
    /// joined.
    pub fn run_partitioned<F>(&self, partitions: usize, f: F)
    where
        F: Fn(&[usize]) + Sync,
    {
        if partitions == 0 {
            return;
        }
        let threads = self.workers.min(partitions);
        let f = &f;
        thread::scope(|scope| {
            for (lo, hi) in balanced_ranges(partitions, threads) {
                let ids: Vec<usize> = (lo..hi).collect();
                scope.spawn(move || f(&ids));
            }
        });
    }
}

/// Split `0..items` into exactly `threads` contiguous ranges whose sizes
/// differ by at most one — ceil-based chunking would leave trailing
/// workers with nothing whenever `items` is slightly above a multiple of
/// `threads` (e.g. 6 items over 4 workers as 2/2/2/0).
fn balanced_ranges(items: usize, threads: usize) -> impl Iterator<Item = (usize, usize)> {
    debug_assert!(threads >= 1 && threads <= items);
    let base = items / threads;
    let extra = items % threads;
    let mut lo = 0;
    (0..threads).map(move |w| {
        let len = base + usize::from(w < extra);
        let range = (lo, lo + len);
        lo += len;
        range
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    #[test]
    fn zero_workers_clamps_to_one() {
        assert_eq!(WorkerPool::new(0).workers(), 1);
    }

    #[test]
    fn covers_every_index_exactly_once() {
        let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        WorkerPool::new(7).for_each_index(1000, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn caps_concurrency() {
        // With 2 workers, at most 2 closures run at once.
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        WorkerPool::new(2).for_each_index(64, |_| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_micros(200));
            live.fetch_sub(1, Ordering::SeqCst);
        });
        assert!(peak.load(Ordering::SeqCst) <= 2);
    }

    #[test]
    fn handles_more_items_than_workers_and_vice_versa() {
        for (workers, items) in [(1, 5), (8, 3), (4, 4), (3, 1000)] {
            let count = AtomicUsize::new(0);
            WorkerPool::new(workers).for_each_index(items, |_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(count.load(Ordering::Relaxed), items);
        }
    }

    #[test]
    fn empty_work_is_a_noop() {
        WorkerPool::new(4).for_each_index(0, |_| panic!("must not run"));
        WorkerPool::new(4).run_partitioned(0, |_| panic!("must not run"));
    }

    #[test]
    fn partitions_are_disjoint_and_complete() {
        let seen = Mutex::new(Vec::new());
        WorkerPool::new(3).run_partitioned(10, |ids| {
            seen.lock().unwrap().extend_from_slice(ids);
        });
        let mut all = seen.into_inner().unwrap();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn every_worker_gets_a_nonempty_balanced_slice() {
        // 6 partitions over 4 workers must be 2/2/1/1, never 2/2/2/0.
        for (workers, partitions) in [(4usize, 6usize), (3, 10), (8, 9), (5, 5)] {
            let sizes = Mutex::new(Vec::new());
            WorkerPool::new(workers).run_partitioned(partitions, |ids| {
                sizes.lock().unwrap().push(ids.len());
            });
            let sizes = sizes.into_inner().unwrap();
            assert_eq!(sizes.len(), workers.min(partitions));
            assert!(
                sizes.iter().all(|&s| s > 0),
                "{workers}w/{partitions}p: {sizes:?}"
            );
            let (min, max) = (*sizes.iter().min().unwrap(), *sizes.iter().max().unwrap());
            assert!(
                max - min <= 1,
                "{workers}w/{partitions}p unbalanced: {sizes:?}"
            );
        }
    }
}
