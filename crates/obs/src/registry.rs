//! The metrics registry: lock-free counters and gauges under
//! hierarchical dotted names, the [`MetricsSnapshot`] dump the serving
//! layers expose over the wire (histograms join it as
//! [`Histogram::snapshot`](crate::Histogram::snapshot)s), and the
//! per-campaign fair-share view derived from it.
//!
//! Handles ([`Counter`], [`Gauge`]) are cheap clones of shared atomics:
//! callers obtain them once (taking the registry's name-map lock) and
//! then record from any thread with
//! relaxed atomic ops — the hot path never locks. A
//! [`snapshot`](Registry::snapshot) walks the name map and dumps every
//! metric's current value; snapshots from several nodes
//! [`absorb`](MetricsSnapshot::absorb) into a fleet-wide view (counters
//! and gauges add, histograms merge bucket-wise).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::hist::HistogramSnapshot;

/// Well-known metric names and the `campaign.<id>.<suffix>` naming
/// scheme shared by every layer that populates a snapshot.
pub mod names {
    /// Live connections currently held by the front end.
    pub const SERVER_CONN_LIVE: &str = "server.conn.live";
    /// Connections admitted since the front end started.
    pub const SERVER_CONN_ACCEPTED: &str = "server.conn.accepted";
    /// Connections refused at the budget (`ServerBusy`).
    pub const SERVER_CONN_REFUSED: &str = "server.conn.refused";
    /// I/O threads the front end runs.
    pub const SERVER_IO_THREADS: &str = "server.io.threads";
    /// Requests dispatched by the registry, all campaigns.
    pub const SERVER_REQUESTS: &str = "server.requests";

    /// Per-campaign suffix: filter (stage and shard close) busy nanoseconds.
    pub const FILTER_BUSY_NS: &str = "filter_busy_ns";
    /// Per-campaign suffix: cross-shard merge busy nanoseconds.
    pub const MERGE_BUSY_NS: &str = "merge_busy_ns";
    /// Per-campaign suffix: reports waiting in the submission queue.
    pub const QUEUE_DEPTH: &str = "queue_depth";
    /// Per-campaign suffix: reports offered to the engine.
    pub const SUBMITTED: &str = "submitted";
    /// Per-campaign suffix: reports accepted into epoch batches.
    pub const ACCEPTED: &str = "accepted";
    /// Per-campaign suffix: duplicates + late drops.
    pub const DROPPED: &str = "dropped";
    /// Per-campaign suffix: rounds closed.
    pub const ROUNDS: &str = "rounds";
    /// Per-campaign suffix: bytes appended to the campaign's WAL.
    pub const WAL_BYTES: &str = "wal_bytes";
    /// Per-campaign suffix: submissions refused at the bounded queue.
    pub const REFUSED_BUSY: &str = "refused.busy";
    /// Per-campaign suffix: rounds refused for exhausted budgets.
    pub const REFUSED_BUDGET: &str = "refused.budget_exhausted";
    /// Per-campaign suffix: operations refused by the write-ahead log.
    pub const REFUSED_WAL: &str = "refused.wal";
    /// Per-campaign suffix: requests refused because the campaign is
    /// quarantined.
    pub const REFUSED_QUARANTINED: &str = "refused.quarantined";
    /// Per-campaign suffix: 1 when the campaign is quarantined.
    pub const QUARANTINED: &str = "quarantined";
    /// Per-campaign suffix: ingest latency histogram.
    pub const INGEST_LATENCY: &str = "ingest_latency";

    /// Every per-campaign suffix, longest first so
    /// [`split_campaign`] can match unambiguously even though campaign
    /// ids may themselves contain dots.
    pub(super) const CAMPAIGN_SUFFIXES: &[&str] = &[
        REFUSED_BUDGET,
        REFUSED_QUARANTINED,
        REFUSED_BUSY,
        REFUSED_WAL,
        INGEST_LATENCY,
        FILTER_BUSY_NS,
        MERGE_BUSY_NS,
        QUARANTINED,
        QUEUE_DEPTH,
        WAL_BYTES,
        SUBMITTED,
        ACCEPTED,
        DROPPED,
        ROUNDS,
    ];

    /// The full name of a per-campaign metric.
    pub fn campaign_metric(id: &str, suffix: &str) -> String {
        format!("campaign.{id}.{suffix}")
    }

    /// Split `campaign.<id>.<suffix>` back into `(id, suffix)`; `None`
    /// for any other name. Suffixes are matched against the known set
    /// (longest first), so campaign ids containing dots parse
    /// correctly.
    pub fn split_campaign(name: &str) -> Option<(&str, &str)> {
        let rest = name.strip_prefix("campaign.")?;
        for suffix in CAMPAIGN_SUFFIXES {
            if let Some(id) = rest.strip_suffix(suffix) {
                if let Some(id) = id.strip_suffix('.') {
                    if !id.is_empty() {
                        return Some((id, suffix));
                    }
                }
            }
        }
        None
    }
}

/// A monotonically increasing atomic counter. Cloning shares the cell.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh zeroed counter (detached from any registry).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add 1.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins atomic gauge. Cloning shares the cell.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// A fresh zeroed gauge (detached from any registry).
    pub fn new() -> Self {
        Self::default()
    }

    /// Overwrite the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add `n` (e.g. a connection admitted).
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtract `n`, saturating at zero (e.g. a connection closed).
    pub fn sub(&self, n: u64) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(n))
            });
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Clone)]
enum Slot {
    Counter(Counter),
    Gauge(Gauge),
}

/// A registry of named metrics. Registration takes a lock; recording
/// through the returned handles never does.
#[derive(Debug, Default)]
pub struct Registry {
    slots: Mutex<BTreeMap<String, Slot>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn slot(&self, name: &str, make: impl FnOnce() -> Slot) -> Slot {
        let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        slots.entry(name.to_string()).or_insert_with(make).clone()
    }

    /// The counter registered under `name` (created on first use). A
    /// name registers exactly one kind: asking for a counter where a
    /// gauge lives returns a fresh detached handle.
    pub fn counter(&self, name: &str) -> Counter {
        match self.slot(name, || Slot::Counter(Counter::new())) {
            Slot::Counter(c) => c,
            _ => Counter::new(),
        }
    }

    /// The gauge registered under `name` (created on first use).
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.slot(name, || Slot::Gauge(Gauge::new())) {
            Slot::Gauge(g) => g,
            _ => Gauge::new(),
        }
    }

    /// Dump every registered metric, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        MetricsSnapshot {
            entries: slots
                .iter()
                .map(|(name, slot)| {
                    let value = match slot {
                        Slot::Counter(c) => MetricValue::Counter(c.get()),
                        Slot::Gauge(g) => MetricValue::Gauge(g.get()),
                    };
                    (name.clone(), value)
                })
                .collect(),
        }
    }
}

/// One metric's value inside a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A monotonic count.
    Counter(u64),
    /// A point-in-time level.
    Gauge(u64),
    /// A latency distribution.
    Histogram(HistogramSnapshot),
}

/// A point-in-time dump of a [`Registry`] (plus any computed entries a
/// serving layer appends), sorted by name. This is what the wire's
/// `QueryStatus` carries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` pairs, sorted by name.
    pub entries: Vec<(String, MetricValue)>,
}

impl MetricsSnapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert or overwrite `name`, keeping the entries sorted.
    pub fn set(&mut self, name: String, value: MetricValue) {
        match self
            .entries
            .binary_search_by(|(n, _)| n.as_str().cmp(&name))
        {
            Ok(i) => self.entries[i].1 = value,
            Err(i) => self.entries.insert(i, (name, value)),
        }
    }

    /// The value registered under `name`.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// The scalar under `name` (counter or gauge), if any.
    pub fn scalar(&self, name: &str) -> Option<u64> {
        match self.get(name)? {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => Some(*v),
            MetricValue::Histogram(_) => None,
        }
    }

    /// The histogram under `name`, if any.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.get(name)? {
            MetricValue::Histogram(h) => Some(h),
            _ => None,
        }
    }

    /// Fold `other` into this snapshot: counters and gauges add,
    /// histograms merge bucket-wise, names absent here are inserted.
    /// This is how the cluster coordinator builds a fleet-wide view
    /// from per-node snapshots.
    pub fn absorb(&mut self, other: &MetricsSnapshot) {
        for (name, value) in &other.entries {
            match self
                .entries
                .binary_search_by(|(n, _)| n.as_str().cmp(name.as_str()))
            {
                Err(i) => self.entries.insert(i, (name.clone(), value.clone())),
                Ok(i) => {
                    let mine = &mut self.entries[i].1;
                    match (mine, value) {
                        (MetricValue::Counter(a), MetricValue::Counter(b)) => *a += b,
                        (MetricValue::Gauge(a), MetricValue::Gauge(b)) => *a += b,
                        (MetricValue::Histogram(a), MetricValue::Histogram(b)) => a.merge(b),
                        // Mismatched kinds under one name: keep ours.
                        _ => {}
                    }
                }
            }
        }
    }

    /// Render the snapshot as Prometheus/OpenMetrics text exposition:
    /// counters and gauges as scalar samples, histograms as cumulative
    /// `_bucket{le="…"}` series (upper bounds in nanoseconds from the
    /// shared log-linear layout) plus `_sum`/`_count`. Dotted names are
    /// mangled to the `[a-zA-Z0-9_:]` charset scrapers require.
    pub fn prometheus(&self) -> String {
        fn mangle(name: &str) -> String {
            name.chars()
                .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
                .collect()
        }
        let mut out = String::with_capacity(self.entries.len() * 64);
        for (name, value) in &self.entries {
            let pname = mangle(name);
            match value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("# TYPE {pname} counter\n{pname} {v}\n"));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!("# TYPE {pname} gauge\n{pname} {v}\n"));
                }
                MetricValue::Histogram(h) => {
                    out.push_str(&format!("# TYPE {pname} histogram\n"));
                    let mut cumulative = 0u64;
                    for &(idx, n) in &h.buckets {
                        cumulative += n;
                        let le = crate::hist::bucket_floor(idx as usize + 1);
                        out.push_str(&format!("{pname}_bucket{{le=\"{le}\"}} {cumulative}\n"));
                    }
                    out.push_str(&format!(
                        "{pname}_bucket{{le=\"+Inf\"}} {}\n{pname}_sum {}\n{pname}_count {}\n",
                        h.count, h.total_ns, h.count
                    ));
                }
            }
        }
        out
    }

    /// Every campaign id appearing in `campaign.<id>.<suffix>` entries,
    /// sorted and deduplicated.
    pub fn campaign_ids(&self) -> Vec<String> {
        let mut ids: Vec<String> = self
            .entries
            .iter()
            .filter_map(|(name, _)| names::split_campaign(name).map(|(id, _)| id.to_string()))
            .collect();
        ids.dedup();
        ids.sort();
        ids.dedup();
        ids
    }

    /// The per-campaign fair-share view: each campaign's cumulative
    /// stage busy time and its share of the total busy time across all
    /// campaigns in the snapshot. Shares sum to ≤ 1 (exactly 1 when any
    /// campaign has done work; all zero otherwise).
    pub fn campaign_shares(&self) -> Vec<CampaignShare> {
        let ids = self.campaign_ids();
        let scalar = |id: &str, suffix: &str| {
            self.scalar(&names::campaign_metric(id, suffix))
                .unwrap_or(0)
        };
        let mut shares: Vec<CampaignShare> = ids
            .into_iter()
            .map(|id| {
                let filter_busy_ns = scalar(&id, names::FILTER_BUSY_NS);
                let merge_busy_ns = scalar(&id, names::MERGE_BUSY_NS);
                let ingest = self
                    .histogram(&names::campaign_metric(&id, names::INGEST_LATENCY))
                    .cloned()
                    .unwrap_or_default();
                CampaignShare {
                    filter_busy_ns,
                    merge_busy_ns,
                    share: 0.0,
                    queue_depth: scalar(&id, names::QUEUE_DEPTH),
                    submitted: scalar(&id, names::SUBMITTED),
                    accepted: scalar(&id, names::ACCEPTED),
                    dropped: scalar(&id, names::DROPPED),
                    rounds: scalar(&id, names::ROUNDS),
                    wal_bytes: scalar(&id, names::WAL_BYTES),
                    refused_busy: scalar(&id, names::REFUSED_BUSY),
                    refused_budget: scalar(&id, names::REFUSED_BUDGET),
                    refused_wal: scalar(&id, names::REFUSED_WAL),
                    refused_quarantined: scalar(&id, names::REFUSED_QUARANTINED),
                    quarantined: scalar(&id, names::QUARANTINED) != 0,
                    ingest,
                    id,
                }
            })
            .collect();
        let total: u128 = shares.iter().map(|s| s.busy_ns() as u128).sum();
        if total > 0 {
            for s in &mut shares {
                s.share = s.busy_ns() as f64 / total as f64;
            }
        }
        shares
    }
}

/// One campaign's slice of the fair-share accounting (derived from a
/// [`MetricsSnapshot`] by [`MetricsSnapshot::campaign_shares`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignShare {
    /// The campaign id.
    pub id: String,
    /// Cumulative filter (stage and shard close) busy time, ns.
    pub filter_busy_ns: u64,
    /// Cumulative cross-shard merge busy time, ns.
    pub merge_busy_ns: u64,
    /// This campaign's fraction of total stage busy time across all
    /// campaigns in the snapshot (`0.0..=1.0`).
    pub share: f64,
    /// Reports waiting in the submission queue.
    pub queue_depth: u64,
    /// Reports offered to the engine.
    pub submitted: u64,
    /// Reports accepted into epoch batches.
    pub accepted: u64,
    /// Duplicates + late drops.
    pub dropped: u64,
    /// Rounds closed.
    pub rounds: u64,
    /// Bytes appended to the campaign's WAL.
    pub wal_bytes: u64,
    /// Submissions refused at the bounded queue.
    pub refused_busy: u64,
    /// Rounds refused for exhausted budgets.
    pub refused_budget: u64,
    /// Operations refused by the write-ahead log.
    pub refused_wal: u64,
    /// Requests refused because the campaign is quarantined.
    pub refused_quarantined: u64,
    /// Whether the campaign is quarantined.
    pub quarantined: bool,
    /// Ingest latency distribution.
    pub ingest: HistogramSnapshot,
}

impl CampaignShare {
    /// Total stage busy time, ns.
    pub fn busy_ns(&self) -> u64 {
        self.filter_busy_ns + self.merge_busy_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Histogram;
    use std::time::Duration;

    /// One observation of `us` microseconds, as a snapshot entry.
    fn latency(us: u64) -> MetricValue {
        let mut h = Histogram::new();
        h.record(Duration::from_micros(us));
        MetricValue::Histogram(h.snapshot())
    }

    #[test]
    fn handles_share_cells_and_snapshots_sort() {
        let reg = Registry::new();
        let c = reg.counter("server.requests");
        c.add(3);
        reg.counter("server.requests").incr();
        assert_eq!(c.get(), 4);
        let g = reg.gauge("server.conn.live");
        g.add(2);
        g.sub(1);
        g.sub(5); // saturates
        assert_eq!(g.get(), 0);
        g.set(7);
        let mut snap = reg.snapshot();
        snap.set("a.lat".to_string(), latency(5));
        let names: Vec<&str> = snap.entries.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["a.lat", "server.conn.live", "server.requests"]);
        assert_eq!(snap.scalar("server.requests"), Some(4));
        assert_eq!(snap.scalar("server.conn.live"), Some(7));
        assert_eq!(snap.histogram("a.lat").unwrap().count, 1);
        assert_eq!(snap.scalar("a.lat"), None);
        assert_eq!(snap.get("missing"), None);
    }

    #[test]
    fn mismatched_kind_returns_detached_handle() {
        let reg = Registry::new();
        let _ = reg.counter("x");
        let g = reg.gauge("x");
        g.set(99);
        // The registered counter is untouched.
        assert_eq!(reg.snapshot().scalar("x"), Some(0));
    }

    #[test]
    fn campaign_names_roundtrip_even_with_dots_in_ids() {
        let name = names::campaign_metric("air.quality-2", names::REFUSED_BUDGET);
        assert_eq!(
            names::split_campaign(&name),
            Some(("air.quality-2", names::REFUSED_BUDGET))
        );
        assert_eq!(names::split_campaign("server.conn.live"), None);
        assert_eq!(names::split_campaign("campaign.x.unknown_suffix"), None);
    }

    #[test]
    fn absorb_sums_scalars_and_merges_histograms() {
        let a_reg = Registry::new();
        a_reg.counter("n.requests").add(2);
        a_reg.gauge("n.live").set(3);
        let b_reg = Registry::new();
        b_reg.counter("n.requests").add(5);
        b_reg.gauge("n.live").set(4);
        b_reg.counter("n.only_b").incr();

        let mut fleet = a_reg.snapshot();
        fleet.set("n.lat".to_string(), latency(10));
        let mut b = b_reg.snapshot();
        b.set("n.lat".to_string(), latency(30));
        fleet.absorb(&b);
        assert_eq!(fleet.scalar("n.requests"), Some(7));
        assert_eq!(fleet.scalar("n.live"), Some(7));
        assert_eq!(fleet.scalar("n.only_b"), Some(1));
        assert_eq!(fleet.histogram("n.lat").unwrap().count, 2);
    }

    #[test]
    fn absorb_edge_cases_stay_well_formed() {
        // Absorbing an empty snapshot is a no-op; absorbing *into* an
        // empty snapshot copies the other side verbatim.
        let reg = Registry::new();
        reg.counter("n.requests").add(2);
        let mut base = reg.snapshot();
        base.set("n.lat".to_string(), latency(10));
        let mut unchanged = base.clone();
        unchanged.absorb(&MetricsSnapshot::new());
        assert_eq!(unchanged, base, "absorbing empty must change nothing");
        let mut fresh = MetricsSnapshot::new();
        fresh.absorb(&base);
        assert_eq!(fresh, base, "empty.absorb(x) must equal x");

        // Mismatched kinds under one name keep ours.
        let mut mine = MetricsSnapshot::new();
        mine.set("x".to_string(), MetricValue::Counter(3));
        let mut theirs = MetricsSnapshot::new();
        theirs.set("x".to_string(), MetricValue::Gauge(9));
        mine.absorb(&theirs);
        assert_eq!(mine.get("x"), Some(&MetricValue::Counter(3)));

        // Overlapping campaign ids across nodes: per-campaign counters
        // add, and the fleet view sees one campaign, not two.
        let node = |submitted: u64, busy: u64| {
            let mut s = MetricsSnapshot::new();
            s.set(
                names::campaign_metric("shared", names::SUBMITTED),
                MetricValue::Counter(submitted),
            );
            s.set(
                names::campaign_metric("shared", names::FILTER_BUSY_NS),
                MetricValue::Counter(busy),
            );
            s
        };
        let mut fleet = node(10, 300);
        fleet.absorb(&node(7, 100));
        assert_eq!(fleet.campaign_ids(), vec!["shared".to_string()]);
        assert_eq!(
            fleet.scalar(&names::campaign_metric("shared", names::SUBMITTED)),
            Some(17)
        );

        // Share renormalization after absorb: shares still sum to ≤ 1
        // (exactly 1 here — both nodes did work), never above.
        let mut two = node(10, 300);
        let mut other = MetricsSnapshot::new();
        other.set(
            names::campaign_metric("other", names::FILTER_BUSY_NS),
            MetricValue::Counter(100),
        );
        two.absorb(&other);
        let shares = two.campaign_shares();
        let total: f64 = shares.iter().map(|s| s.share).sum();
        assert!(total <= 1.0 + 1e-12, "shares sum past 100%: {total}");
        assert!((total - 1.0).abs() < 1e-12, "busy fleet sums to 1: {total}");
    }

    #[test]
    fn prometheus_exposition_renders_all_three_kinds() {
        let mut snap = MetricsSnapshot::new();
        snap.set("server.conn.live".to_string(), MetricValue::Gauge(3));
        snap.set("server.requests".to_string(), MetricValue::Counter(512));
        snap.set(
            "campaign.air-2.ingest_latency".to_string(),
            MetricValue::Histogram(HistogramSnapshot {
                count: 4,
                total_ns: 10_000,
                max_ns: 4_000,
                buckets: vec![(17, 1), (42, 3)],
            }),
        );
        let text = snap.prometheus();
        assert!(text.contains("# TYPE server_requests counter\nserver_requests 512\n"));
        assert!(text.contains("# TYPE server_conn_live gauge\nserver_conn_live 3\n"));
        assert!(text.contains("# TYPE campaign_air_2_ingest_latency histogram\n"));
        // Buckets are cumulative with `le` upper bounds from the shared
        // layout, closed by +Inf and the sum/count pair.
        let le17 = crate::hist::bucket_floor(18);
        let le42 = crate::hist::bucket_floor(43);
        assert!(
            text.contains(&format!(
                "campaign_air_2_ingest_latency_bucket{{le=\"{le17}\"}} 1\n"
            )),
            "{text}"
        );
        assert!(
            text.contains(&format!(
                "campaign_air_2_ingest_latency_bucket{{le=\"{le42}\"}} 4\n"
            )),
            "{text}"
        );
        assert!(text.contains("campaign_air_2_ingest_latency_bucket{le=\"+Inf\"} 4\n"));
        assert!(text.contains("campaign_air_2_ingest_latency_sum 10000\n"));
        assert!(text.contains("campaign_air_2_ingest_latency_count 4\n"));
        // No un-mangled characters survive.
        assert!(!text.contains("server.requests"), "{text}");
    }

    #[test]
    fn campaign_shares_sum_to_one_when_busy() {
        let mut snap = MetricsSnapshot::new();
        for (id, busy) in [("a", 300u64), ("b", 100), ("c", 0)] {
            snap.set(
                names::campaign_metric(id, names::FILTER_BUSY_NS),
                MetricValue::Counter(busy * 2),
            );
            snap.set(
                names::campaign_metric(id, names::MERGE_BUSY_NS),
                MetricValue::Counter(busy),
            );
        }
        let shares = snap.campaign_shares();
        assert_eq!(shares.len(), 3);
        let total: f64 = shares.iter().map(|s| s.share).sum();
        assert!((total - 1.0).abs() < 1e-12, "shares sum to 1, got {total}");
        assert!(shares[0].share > shares[1].share);
        assert_eq!(shares[2].share, 0.0);

        // An idle snapshot has all-zero shares, never NaN.
        let idle = MetricsSnapshot::new();
        assert!(idle.campaign_shares().is_empty());
    }
}
