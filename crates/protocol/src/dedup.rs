//! First-wins report de-duplication.
//!
//! Both the discrete-event simulator and the streaming engine must cope
//! with duplicate submissions (retries, at-least-once transports): the
//! server keeps the **first** report per user and counts the rest. This
//! module lifts that policy out of `sim.rs` into a reusable filter so every
//! runtime shares identical semantics.
//!
//! The filter is indexed by a caller-chosen *slot*: the simulator uses the
//! global user id, while each engine shard uses a dense local index for its
//! own sub-population (keeping per-shard memory proportional to the shard,
//! not the population). What a slot *stores* is the caller's choice too:
//! the simulator and the cluster lane keep the report itself, an engine
//! shard keeps the span of its columnar arena that holds the report's
//! claims.

use dptd_core::roles::PerturbedReport;

/// First-wins de-duplication over a fixed number of slots, each holding
/// a `T` for the first arrival (the report itself unless the caller says
/// otherwise).
#[derive(Debug, Clone, PartialEq)]
pub struct DedupFilter<T = PerturbedReport> {
    received: Vec<Option<T>>,
    arrival_order: Vec<usize>,
    duplicates: usize,
}

impl<T> DedupFilter<T> {
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
    pub fn accept(&mut self, slot: usize, report: T) -> bool {
        assert!(slot < self.received.len(), "dedup slot {slot} out of range");
        if self.received[slot].is_some() {
            self.duplicates += 1;
            return false;
        }
        self.arrival_order.push(slot);
        self.received[slot] = Some(report);
        true
    }

    /// Empty every slot and zero the duplicate count, in time
    /// proportional to the reports accepted since the last reset — not
    /// to the slot count — keeping the allocation. A filter that lives
    /// as long as its campaign calls this at each round boundary.
    pub fn reset(&mut self) {
        for slot in self.arrival_order.drain(..) {
            self.received[slot] = None;
        }
        self.duplicates = 0;
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

    /// The accepted report in `slot`, if any.
    pub fn get(&self, slot: usize) -> Option<&T> {
        self.received.get(slot).and_then(Option::as_ref)
    }

    /// Consume the filter, yielding the accepted reports in arrival order.
    pub fn into_reports(self) -> Vec<T> {
        let mut received = self.received;
        self.arrival_order
            .iter()
            .map(|&s| received[s].take().expect("arrival order implies stored"))
            .collect()
    }

    /// The accepted `(slot, report)` pairs so far, in **ascending slot
    /// order**, borrowed — what [`DedupFilter::into_slot_ordered`] would
    /// yield, without consuming (or cloning) the filter.
    pub fn slot_ordered(&self) -> impl Iterator<Item = (usize, &T)> {
        self.received
            .iter()
            .enumerate()
            .filter_map(|(s, r)| r.as_ref().map(|r| (s, r)))
    }

    /// Consume the filter, yielding `(slot, report)` pairs in **ascending
    /// slot order** — the canonical layout the cross-shard merge of the
    /// aggregation engine requires.
    pub fn into_slot_ordered(self) -> Vec<(usize, T)> {
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
        assert_eq!(d.get(1).unwrap().values[0].1, 10.0);
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
    fn reset_forgets_the_round_and_stores_any_payload() {
        // The engine's shards store an arena index, not a report.
        let mut d: DedupFilter<u32> = DedupFilter::new(4);
        assert!(d.accept(3, 0));
        assert!(d.accept(1, 1));
        assert!(!d.accept(3, 2));
        assert_eq!(d.slot_ordered().collect::<Vec<_>>(), vec![(1, &1), (3, &0)]);
        d.reset();
        assert!(d.is_empty());
        assert_eq!(d.duplicates_discarded(), 0);
        assert_eq!(d.missing(), vec![0, 1, 2, 3]);
        // Last round's users are first arrivals again.
        assert!(d.accept(3, 0));
        assert_eq!(d.participants(), &[3]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_slot_panics() {
        DedupFilter::new(1).accept(1, report(1, 0.0));
    }
}
