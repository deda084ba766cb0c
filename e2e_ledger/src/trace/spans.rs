//! Spans and per-round samples of a traced run, kept in memory until
//! the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json;
use crate::stats;

#[derive(Debug)]
struct Span {
    name: String,
    lane: usize,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    round: u64,
}

/// In-memory span store; nothing is written until the run ends.
#[derive(Debug)]
pub(super) struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    lanes: Vec<&'static str>,
}

impl Tracer {
    pub(super) fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            lanes: Vec::new(),
        }
    }

    pub(super) fn lane(&mut self, name: &'static str) -> usize {
        self.lanes.push(name);
        self.lanes.len() - 1
    }

    pub(super) fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub(super) fn open(
        &mut self,
        name: &str,
        lane: usize,
        round: u64,
        parent: Option<usize>,
    ) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            lane,
            start_ns,
            end_ns: start_ns,
            parent,
            round,
        });
        self.spans.len() - 1
    }

    /// End span `id`, returning its duration in seconds.
    pub(super) fn close(&mut self, id: usize) -> f64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        (end_ns - span.start_ns) as f64 / 1e9
    }

    /// Time `f` under a span.
    pub(super) fn time<T>(
        &mut self,
        name: &str,
        lane: usize,
        round: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, lane, round, parent);
        let out = f();
        (out, self.close(id))
    }

    /// chrome://tracing "complete" events, one lane per rung.
    pub(super) fn chrome_json(&self) -> String {
        let mut events: Vec<String> = self
            .lanes
            .iter()
            .enumerate()
            .map(|(tid, name)| {
                format!(
                    "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {tid}, \
                     \"args\": {{\"name\": {}}}}}",
                    json::string(name)
                )
            })
            .collect();
        events.extend(self.spans.iter().enumerate().map(|(id, s)| {
            format!(
                "{{\"name\": {}, \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"args\": {{\"span\": {id}, \"parent\": {}, \"round\": {}}}}}",
                json::string(&s.name),
                s.lane,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.parent
                    .map_or_else(|| "null".to_string(), |p| p.to_string()),
                s.round
            )
        }));
        format!("{{\"traceEvents\": [\n{}\n]}}\n", events.join(",\n"))
    }
}

/// Per-round samples by name.
#[derive(Debug, Default)]
pub(super) struct Samples(BTreeMap<String, Vec<f64>>);

impl Samples {
    pub(super) fn push(&mut self, key: &str, value: f64) {
        match self.0.get_mut(key) {
            Some(values) => values.push(value),
            None => {
                self.0.insert(key.to_string(), vec![value]);
            }
        }
    }

    pub(super) fn get(&self, key: &str) -> &[f64] {
        self.0.get(key).map_or(&[], Vec::as_slice)
    }

    pub(super) fn median(&self, key: &str) -> f64 {
        stats::median(self.get(key))
    }

    pub(super) fn sum(&self, key: &str) -> f64 {
        self.get(key).iter().sum()
    }

    pub(super) fn max(&self, key: &str) -> f64 {
        stats::max(self.get(key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_render_as_chrome_events() {
        let mut tracer = Tracer::new();
        let lane = tracer.lane("A test");
        let outer = tracer.open("outer", lane, 3, None);
        let ((), inner_s) = tracer.time("inner", lane, 3, Some(outer), || ());
        let outer_s = tracer.close(outer);
        assert!(outer_s >= inner_s);
        assert_eq!(tracer.spans[1].parent, Some(outer));
        let json = tracer.chrome_json();
        assert!(json.contains("\"name\": \"inner\""));
        assert!(json.contains("\"parent\": 0"));
        assert!(json.contains("\"round\": 3"));
    }
}
