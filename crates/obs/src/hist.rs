//! Log-linear latency histograms: the single-writer [`Histogram`] and
//! the sparse [`HistogramSnapshot`] it exports.
//!
//! The bucket layout is HDR-style log-linear: values below
//! `LINEAR_CUTOFF` (16) get exact buckets; above it each power-of-two
//! octave is split into 16 sub-buckets, so every quantile is reported
//! with ≤ 6.25% relative error over 1 ns .. ~584 years from a fixed
//! 976-slot footprint. Histograms with the same layout merge by
//! bucket-wise addition, which makes per-shard and per-node quantiles
//! exactly composable — a merged histogram is bit-identical to one fed
//! the concatenated stream.

use std::time::Duration;

const OCTAVE_SUB: u64 = 16;
const LINEAR_CUTOFF: u64 = 16; // values below this get exact buckets

/// Fixed number of buckets in every histogram of this layout.
pub const NUM_BUCKETS: usize = (LINEAR_CUTOFF + (64 - 4) * OCTAVE_SUB) as usize;

/// The bucket index holding `value_ns`. Exposed so tests (and the
/// proptest suite) can pin the boundary behaviour.
pub fn bucket_index(value_ns: u64) -> usize {
    if value_ns < LINEAR_CUTOFF {
        value_ns as usize
    } else {
        let exp = 63 - value_ns.leading_zeros() as u64; // >= 4
        let sub = (value_ns >> (exp - 4)) & (OCTAVE_SUB - 1);
        (LINEAR_CUTOFF + (exp - 4) * OCTAVE_SUB + sub) as usize
    }
}

/// The lower bound of bucket `index` (what quantile queries report).
pub fn bucket_floor(index: usize) -> u64 {
    let index = index as u64;
    if index < LINEAR_CUTOFF {
        index
    } else {
        let exp = (index - LINEAR_CUTOFF) / OCTAVE_SUB + 4;
        let sub = (index - LINEAR_CUTOFF) % OCTAVE_SUB;
        (1 << exp) + (sub << (exp - 4))
    }
}

/// A log-linear latency histogram (single writer, mergeable).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    max_ns: u64,
    total_ns: u128,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: vec![0; NUM_BUCKETS],
            count: 0,
            max_ns: 0,
            total_ns: 0,
        }
    }

    /// Record one latency observation.
    pub fn record(&mut self, latency: Duration) {
        self.record_many(latency, 1);
    }

    /// Record one observation given directly in nanoseconds.
    pub fn record_ns(&mut self, ns: u64) {
        self.record_many(Duration::from_nanos(ns), 1);
    }

    /// Record `count` observations of the same `latency` — what a stage
    /// that hands work over in batches knows about each item of a batch.
    pub fn record_many(&mut self, latency: Duration, count: u64) {
        if count == 0 {
            return;
        }
        let ns = u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX);
        self.buckets[bucket_index(ns)] += count;
        self.count += count;
        self.max_ns = self.max_ns.max(ns);
        self.total_ns += ns as u128 * count as u128;
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Self) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.max_ns = self.max_ns.max(other.max_ns);
        self.total_ns += other.total_ns;
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The `q`-quantile (`0.0..=1.0`) in nanoseconds, or `None` when
    /// empty. Reported at bucket granularity (≤ 6.25% relative error).
    pub fn quantile_ns(&self, q: f64) -> Option<u64> {
        quantile_over(&self.buckets, self.count, self.max_ns, q)
    }

    /// Median latency.
    pub fn p50(&self) -> Option<Duration> {
        self.quantile_ns(0.50).map(Duration::from_nanos)
    }

    /// 90th-percentile latency.
    pub fn p90(&self) -> Option<Duration> {
        self.quantile_ns(0.90).map(Duration::from_nanos)
    }

    /// 99th-percentile latency.
    pub fn p99(&self) -> Option<Duration> {
        self.quantile_ns(0.99).map(Duration::from_nanos)
    }

    /// Maximum recorded latency.
    pub fn max(&self) -> Duration {
        Duration::from_nanos(self.max_ns)
    }

    /// Mean recorded latency.
    pub fn mean(&self) -> Option<Duration> {
        if self.count == 0 {
            None
        } else {
            Some(Duration::from_nanos(
                u64::try_from(self.total_ns / self.count as u128).unwrap_or(u64::MAX),
            ))
        }
    }

    /// Export the occupied buckets as a sparse snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            total_ns: u64::try_from(self.total_ns).unwrap_or(u64::MAX),
            max_ns: self.max_ns,
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c != 0)
                .map(|(i, &c)| (i as u32, c))
                .collect(),
        }
    }
}

/// A sparse, wire-friendly histogram dump: only the occupied buckets,
/// in increasing index order. Quantiles are answered directly from the
/// sparse form, and snapshots with the same layout merge additively
/// (the cluster coordinator folds per-node snapshots this way).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total recorded observations.
    pub count: u64,
    /// Sum of all observations in nanoseconds (saturating).
    pub total_ns: u64,
    /// Largest recorded observation in nanoseconds.
    pub max_ns: u64,
    /// `(bucket index, occupancy)` for every non-empty bucket,
    /// strictly increasing by index.
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    /// The `q`-quantile (`0.0..=1.0`) in nanoseconds, or `None` when
    /// empty.
    pub fn quantile_ns(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(i, c) in &self.buckets {
            seen += c;
            if seen >= rank {
                return Some(bucket_floor(i as usize).min(self.max_ns));
            }
        }
        Some(self.max_ns)
    }

    /// Median in nanoseconds.
    pub fn p50_ns(&self) -> Option<u64> {
        self.quantile_ns(0.50)
    }

    /// 99th percentile in nanoseconds.
    pub fn p99_ns(&self) -> Option<u64> {
        self.quantile_ns(0.99)
    }

    /// Mean in nanoseconds.
    pub fn mean_ns(&self) -> Option<u64> {
        self.total_ns.checked_div(self.count)
    }

    /// Fold another snapshot into this one (bucket-wise addition).
    pub fn merge(&mut self, other: &Self) {
        let mut merged = Vec::with_capacity(self.buckets.len() + other.buckets.len());
        let (mut a, mut b) = (
            self.buckets.iter().peekable(),
            other.buckets.iter().peekable(),
        );
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&(ia, ca)), Some(&&(ib, cb))) => {
                    if ia < ib {
                        merged.push((ia, ca));
                        a.next();
                    } else if ib < ia {
                        merged.push((ib, cb));
                        b.next();
                    } else {
                        merged.push((ia, ca + cb));
                        a.next();
                        b.next();
                    }
                }
                (Some(&&e), None) => {
                    merged.push(e);
                    a.next();
                }
                (None, Some(&&e)) => {
                    merged.push(e);
                    b.next();
                }
                (None, None) => break,
            }
        }
        self.buckets = merged;
        self.count += other.count;
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

fn quantile_over(buckets: &[u64], count: u64, max_ns: u64, q: f64) -> Option<u64> {
    if count == 0 {
        return None;
    }
    let q = q.clamp(0.0, 1.0);
    let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
    let mut seen = 0u64;
    for (i, &c) in buckets.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return Some(bucket_floor(i).min(max_ns));
        }
    }
    Some(max_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_floor_inverts_bucket_index() {
        for v in [0u64, 1, 15, 16, 17, 100, 1_000, 123_456, u32::MAX as u64] {
            let idx = bucket_index(v);
            let floor = bucket_floor(idx);
            assert!(floor <= v, "floor {floor} > value {v}");
            // Next bucket's floor exceeds the value.
            if idx + 1 < NUM_BUCKETS {
                assert!(bucket_floor(idx + 1) > v);
            }
        }
    }

    #[test]
    fn record_many_equals_repeated_record() {
        let mut batched = Histogram::new();
        batched.record_many(Duration::from_nanos(700), 3);
        batched.record_many(Duration::from_nanos(9_000), 0);
        batched.record_many(Duration::from_nanos(40), 2);
        let mut single = Histogram::new();
        for ns in [700, 700, 700, 40, 40] {
            single.record_ns(ns);
        }
        assert_eq!(batched, single);
        assert_eq!(batched.max(), Duration::from_nanos(700));
    }

    #[test]
    fn empty_histograms_have_no_quantiles() {
        assert_eq!(Histogram::new().p50(), None);
        assert_eq!(Histogram::new().snapshot().p50_ns(), None);
        assert_eq!(HistogramSnapshot::default().mean_ns(), None);
    }

    #[test]
    fn snapshot_quantiles_match_the_dense_histogram() {
        let mut h = Histogram::new();
        for us in 1..=1000u64 {
            h.record(Duration::from_micros(us));
        }
        let snap = h.snapshot();
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(snap.quantile_ns(q), h.quantile_ns(q), "q = {q}");
        }
        assert_eq!(snap.mean_ns(), h.mean().map(|d| d.as_nanos() as u64));
    }

    #[test]
    fn sparse_merge_equals_merged_dense() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for us in 1..=100u64 {
            a.record(Duration::from_micros(us));
            b.record(Duration::from_micros(us * 7));
        }
        let mut sparse = a.snapshot();
        sparse.merge(&b.snapshot());
        let mut dense = a.clone();
        dense.merge(&b);
        assert_eq!(sparse, dense.snapshot());
    }
}
