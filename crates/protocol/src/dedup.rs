//! First-wins report de-duplication for the in-process references.
//!
//! Every runtime must cope with duplicate submissions (retries,
//! at-least-once transports): the server keeps the **first** report per
//! user and counts the rest. This filter is that policy for the
//! references — the event simulator (`sim.rs`) and `SimBackend`
//! (`campaign.rs`) — indexed by global user id, each slot holding the
//! report itself, built fresh for each round.
//!
//! The engine's filter is `dptd_engine::shard::ShardState`, which the
//! engine runs per shard and a cluster node runs over its partition: a
//! one-bit-per-user bitmap beside an arena of claims. The two apply the
//! same policy (deadline first, then first-wins), and
//! `campaign_equivalence` and the engine's proptests keep them
//! bit-equal.

use dptd_core::roles::PerturbedReport;

/// First-wins de-duplication over a fixed number of slots, each holding
/// the first report to arrive for it.
#[derive(Debug, Clone, PartialEq)]
pub struct DedupFilter {
    received: Vec<Option<PerturbedReport>>,
    arrival_order: Vec<usize>,
    duplicates: usize,
}

impl DedupFilter {
    /// A filter with `slots` empty slots.
    pub fn new(slots: usize) -> Self {
        Self {
            received: std::iter::repeat_with(|| None).take(slots).collect(),
            arrival_order: Vec::new(),
            duplicates: 0,
        }
    }

    /// Offer a report for `slot`. Returns `true` if it was accepted (first
    /// arrival) and `false` if it was discarded as a duplicate.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn accept(&mut self, slot: usize, report: PerturbedReport) -> bool {
        assert!(slot < self.received.len(), "dedup slot {slot} out of range");
        if self.received[slot].is_some() {
            self.duplicates += 1;
            return false;
        }
        self.arrival_order.push(slot);
        self.received[slot] = Some(report);
        true
    }

    /// Number of duplicates discarded so far.
    pub fn duplicates_discarded(&self) -> usize {
        self.duplicates
    }

    /// Number of accepted reports.
    pub fn len(&self) -> usize {
        self.arrival_order.len()
    }

    /// Whether no report has been accepted yet.
    pub fn is_empty(&self) -> bool {
        self.arrival_order.is_empty()
    }

    /// Slots that received a report, in arrival order.
    pub fn participants(&self) -> &[usize] {
        &self.arrival_order
    }

    /// Slots that never received a report, in ascending order.
    pub fn missing(&self) -> Vec<usize> {
        self.received
            .iter()
            .enumerate()
            .filter_map(|(s, r)| r.is_none().then_some(s))
            .collect()
    }

    /// Consume the filter, yielding the accepted reports in arrival order.
    pub fn into_reports(self) -> Vec<PerturbedReport> {
        let mut received = self.received;
        self.arrival_order
            .iter()
            .map(|&s| received[s].take().expect("arrival order implies stored"))
            .collect()
    }

    /// Consume the filter, yielding `(slot, report)` pairs in **ascending
    /// slot order** — users ascending, the order a round's batch is
    /// built in.
    pub fn into_slot_ordered(self) -> Vec<(usize, PerturbedReport)> {
        self.received
            .into_iter()
            .enumerate()
            .filter_map(|(s, r)| r.map(|r| (s, r)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(user: usize, v: f64) -> PerturbedReport {
        PerturbedReport {
            user,
            values: vec![(0, v)],
        }
    }

    #[test]
    fn first_wins_and_duplicates_count() {
        let mut d = DedupFilter::new(3);
        assert!(d.accept(1, report(1, 10.0)));
        assert!(!d.accept(1, report(1, 99.0)));
        assert!(d.accept(0, report(0, 5.0)));
        assert_eq!(d.duplicates_discarded(), 1);
        assert_eq!(d.len(), 2);
        assert_eq!(d.participants(), &[1, 0]);
        assert_eq!(d.missing(), vec![2]);
        // The first value survived.
        assert_eq!(d.into_reports()[0].values[0].1, 10.0);
    }

    #[test]
    fn arrival_order_is_preserved() {
        let mut d = DedupFilter::new(4);
        for slot in [2, 0, 3] {
            d.accept(slot, report(slot, slot as f64));
        }
        let reports = d.into_reports();
        assert_eq!(
            reports.iter().map(|r| r.user).collect::<Vec<_>>(),
            vec![2, 0, 3]
        );
    }

    #[test]
    fn slot_ordered_view_is_canonical() {
        let mut d = DedupFilter::new(5);
        for slot in [4, 1, 3] {
            d.accept(slot, report(slot, 0.0));
        }
        let slots: Vec<usize> = d.into_slot_ordered().into_iter().map(|(s, _)| s).collect();
        assert_eq!(slots, vec![1, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_slot_panics() {
        DedupFilter::new(1).accept(1, report(1, 0.0));
    }
}
