//! In-memory spans around the calls this benchmark makes into each layer.
//!
//! Spans are recorded from the benchmark's own files only (the program is
//! not instrumented): name, start, end, the span that caused it, and the
//! request it belongs to. They stay in memory for the whole run and are
//! written to `out/<workload>/spans.json` when it ends.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// Index of a span inside its recorder.
pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub request: Option<u64>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans against one epoch. `open`/`close` cost two clock reads
/// and one push; `bench.trace_overhead_frac` is what that adds up to.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    pub fn new() -> Self {
        Self { epoch: Instant::now(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, request: Option<u64>) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, request });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64).collect()
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::obj([
                        ("id", Json::Num(id as f64)),
                        ("name", Json::str(s.name)),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                        ("request", s.request.map_or(Json::Null, |r| Json::Num(r as f64))),
                    ])
                })
                .collect(),
        )
    }
}

/// The recorder as a round sees it: present in the traced run, absent in the
/// untraced one, where every call below does nothing.
pub struct Trace<'a>(pub Option<&'a mut Recorder>);

impl Trace<'_> {
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: Option<u64>,
    ) -> Option<SpanId> {
        self.0.as_deref_mut().map(|r| r.open(name, parent, request))
    }

    pub fn close(&mut self, id: Option<SpanId>) {
        if let (Some(r), Some(id)) = (self.0.as_deref_mut(), id) {
            r.close(id);
        }
    }

    /// Runs `call` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: Option<u64>,
        call: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let out = call();
        self.close(id);
        out
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover (children may overlap one another, so the
/// covered part is the union of their intervals clipped to the parent).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children.entry(parent).or_default().push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(id, span)| {
            let Some(intervals) = children.get_mut(&id) else { return span.duration_ns() };
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = span.start_ns;
            for &(start, end) in intervals.iter() {
                let start = start.max(cursor);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            span.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Total self time per span name, in nanoseconds.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(span.name).or_insert(0) += self_ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span { name, start_ns, end_ns, parent, request: None }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("round", 0, 100, None),
            span("step", 10, 40, Some(0)),
            span("forward", 15, 35, Some(1)), // grandchild: charged to `step`, not `round`
            span("step", 50, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 10, 20, 40]);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["round"], 30);
        assert_eq!(by_name["step"], 50);
        assert_eq!(by_name["forward"], 20);
        // Self times partition the root's duration.
        assert_eq!(by_name.values().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_not_double_counted() {
        let spans = [
            span("parent", 100, 200, None),
            span("a", 110, 150, Some(0)),
            span("b", 140, 170, Some(0)), // overlaps `a` by 10
            span("c", 190, 260, Some(0)), // overhangs the parent's end by 60
            span("d", 120, 130, Some(0)), // nested inside `a`'s interval
        ];
        // Covered: [110,170) ∪ [190,200) = 70 of 100.
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn recorder_nests_and_exports() {
        let mut rec = Recorder::new();
        let root = rec.open("round", None, None);
        let child = rec.open("engine.submit", Some(root), Some(7));
        rec.close(child);
        rec.close(root);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(rec.durations("engine.submit").len(), 1);
        let json = rec.to_json().to_line();
        assert!(json.contains("\"parent\": 0") && json.contains("\"request\": 7"), "{json}");
    }

    #[test]
    fn trace_records_only_when_a_recorder_is_present() {
        let mut rec = Recorder::new();
        let mut on = Trace(Some(&mut rec));
        let round = on.open("round", None, None);
        assert_eq!(on.span("engine.step", round, None, || 41 + 1), 42);
        on.close(round);
        assert_eq!(
            rec.spans().iter().map(|s| (s.name, s.parent)).collect::<Vec<_>>(),
            [("round", None), ("engine.step", Some(0))]
        );
        let mut off = Trace(None);
        assert_eq!(off.open("round", None, None), None);
        assert_eq!(off.span("engine.step", None, None, || 7), 7);
    }
}
