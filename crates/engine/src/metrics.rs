//! Engine observability: run-level metrics.
//!
//! The histogram machinery lives in [`dptd_obs`] (the workspace-wide
//! observability crate) so the engine, the server and the cluster share
//! one bucket layout. `EngineMetrics` is built on top of
//! [`dptd_obs::Histogram`]: the serving layer samples these
//! per-campaign blocks into its `MetricsSnapshot` (see
//! `dptd_obs::registry::names`), which is where per-campaign fair-share
//! accounting comes from.

use std::time::Duration;

use dptd_obs::Histogram;

/// Busy wall-clock time per pipeline stage, summed over the threads
/// running that stage. `route` can exceed the others on a backpressured
/// run (it includes the time the router spent blocked on full queues);
/// `filter` sums across all shard workers, so it can exceed `elapsed` on
/// a multi-worker run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Router: enqueueing chunks of reports on the workers' inboxes,
    /// including any time blocked on a full one (backpressure). Clocked
    /// per chunk, so staging a report in its shard's buffer is not in it.
    pub route: Duration,
    /// Shard workers: per-report deadline/dedup filtering and the copy of
    /// accepted claims into the shard's arena, plus epoch close (emitting
    /// the claims users-ascending).
    pub filter: Duration,
    /// Merger: the canonical cross-shard reduction into the global CRH.
    pub merge: Duration,
}

impl StageTimings {
    /// Fold another run's stage timings into this one (sums).
    pub fn absorb(&mut self, other: &StageTimings) {
        self.route += other.route;
        self.filter += other.filter;
        self.merge += other.merge;
    }
}

/// Counters and timings for one [`crate::Engine::run`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineMetrics {
    /// Reports offered to the engine (including duplicates and lates).
    pub reports_submitted: u64,
    /// Reports accepted into an epoch batch after dedup/deadline checks.
    pub reports_accepted: u64,
    /// Duplicate submissions discarded (first-wins).
    pub duplicates_discarded: u64,
    /// Reports dropped because their virtual send time missed the epoch
    /// deadline.
    pub late_dropped: u64,
    /// Reports dropped because they arrived for an already-closed epoch.
    pub out_of_order_dropped: u64,
    /// Producer-side stalls: a worker's inbox was full and the router had
    /// to block (backpressure engaged).
    pub backpressure_stalls: u64,
    /// Epochs that completed a cross-shard merge.
    pub epochs_merged: u64,
    /// Highest depth, in reports, sampled across the workers' inboxes
    /// (every queued chunk counted as a full one); never above
    /// `queue_capacity`.
    pub max_queue_depth: usize,
    /// Staging + queue-wait + processing latency, one sample per
    /// accepted-or-rejected report: each report of a chunk is given the
    /// latency of the chunk's first-staged report, an upper bound.
    pub ingest_latency: Histogram,
    /// Busy time per pipeline stage (route / filter / merge).
    pub stage: StageTimings,
    /// Wall-clock duration of the whole run.
    pub elapsed: Duration,
}

impl EngineMetrics {
    /// Reports offered to the engine per wall-clock second. Counts every
    /// submission the router handled — including duplicates, lates, and
    /// out-of-order drops — i.e. ingest-path throughput, not the number
    /// of reports that reached an epoch batch (that is
    /// `reports_accepted`).
    pub fn throughput_rps(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.reports_submitted as f64 / secs
        }
    }

    /// Fold another run's metrics into this one: counters add, queue
    /// depths take the max, latency histograms merge, and elapsed times
    /// sum. Used by the campaign backend, which drives one engine run per
    /// round but reports one campaign-wide metrics block.
    pub fn absorb(&mut self, other: &EngineMetrics) {
        self.reports_submitted += other.reports_submitted;
        self.reports_accepted += other.reports_accepted;
        self.duplicates_discarded += other.duplicates_discarded;
        self.late_dropped += other.late_dropped;
        self.out_of_order_dropped += other.out_of_order_dropped;
        self.backpressure_stalls += other.backpressure_stalls;
        self.epochs_merged += other.epochs_merged;
        self.max_queue_depth = self.max_queue_depth.max(other.max_queue_depth);
        self.ingest_latency.merge(&other.ingest_latency);
        self.stage.absorb(&other.stage);
        self.elapsed += other.elapsed;
    }

    /// Render a human-readable multi-line summary.
    pub fn render(&self) -> String {
        let fmt_lat = |d: Option<Duration>| match d {
            Some(d) => format!("{:.3} µs", d.as_nanos() as f64 / 1e3),
            None => "n/a".to_string(),
        };
        format!(
            "reports submitted   {}\n\
             reports accepted    {}\n\
             duplicates dropped  {}\n\
             late dropped        {}\n\
             out-of-order drops  {}\n\
             backpressure stalls {}\n\
             epochs merged       {}\n\
             max queue depth     {}\n\
             ingest latency      p50 {}  p99 {}  max {}\n\
             stage busy          route {:.3} s  filter {:.3} s  merge {:.3} s\n\
             elapsed             {:.3} s\n\
             throughput          {:.0} reports/s",
            self.reports_submitted,
            self.reports_accepted,
            self.duplicates_discarded,
            self.late_dropped,
            self.out_of_order_dropped,
            self.backpressure_stalls,
            self.epochs_merged,
            self.max_queue_depth,
            fmt_lat(self.ingest_latency.p50()),
            fmt_lat(self.ingest_latency.p99()),
            fmt_lat(Some(self.ingest_latency.max())),
            self.stage.route.as_secs_f64(),
            self.stage.filter.as_secs_f64(),
            self.stage.merge.as_secs_f64(),
            self.elapsed.as_secs_f64(),
            self.throughput_rps(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = Histogram::new();
        assert_eq!(h.p50(), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn quantiles_are_order_statistics_at_bucket_granularity() {
        let mut h = Histogram::new();
        for us in 1..=1000u64 {
            h.record(Duration::from_micros(us));
        }
        let p50 = h.quantile_ns(0.5).unwrap();
        let p99 = h.quantile_ns(0.99).unwrap();
        // ≤ 6.25% relative bucket error.
        assert!(
            (p50 as f64 - 500_000.0).abs() < 500_000.0 * 0.07,
            "p50 {p50}"
        );
        assert!(
            (p99 as f64 - 990_000.0).abs() < 990_000.0 * 0.07,
            "p99 {p99}"
        );
        assert_eq!(h.max(), Duration::from_millis(1));
        assert_eq!(h.count(), 1000);
    }

    #[test]
    fn merge_is_additive() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(Duration::from_micros(10));
        b.record(Duration::from_micros(30));
        b.record(Duration::from_micros(50));
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max(), Duration::from_micros(50));
    }

    #[test]
    fn absorb_accumulates_runs() {
        let mut total = EngineMetrics::default();
        let mut round = EngineMetrics {
            reports_submitted: 10,
            reports_accepted: 8,
            late_dropped: 2,
            epochs_merged: 1,
            max_queue_depth: 5,
            elapsed: Duration::from_millis(3),
            ..EngineMetrics::default()
        };
        round.ingest_latency.record(Duration::from_micros(7));
        total.absorb(&round);
        round.max_queue_depth = 2;
        total.absorb(&round);
        assert_eq!(total.reports_submitted, 20);
        assert_eq!(total.reports_accepted, 16);
        assert_eq!(total.late_dropped, 4);
        assert_eq!(total.epochs_merged, 2);
        assert_eq!(total.max_queue_depth, 5);
        assert_eq!(total.ingest_latency.count(), 2);
        assert_eq!(total.elapsed, Duration::from_millis(6));
    }

    #[test]
    fn metrics_render_mentions_key_counters() {
        let m = EngineMetrics {
            reports_submitted: 12345,
            ..EngineMetrics::default()
        };
        let s = m.render();
        assert!(s.contains("12345"));
        assert!(s.contains("throughput"));
    }
}
