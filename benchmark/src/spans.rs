//! The harness's span recorder.
//!
//! Spans are recorded from the benchmark's own code, around the calls
//! into each layer (name, start, end, parent, request id); nothing in
//! the analyzer is instrumented. They stay in memory until the traced
//! pass ends, then go out as a Chrome trace-event file. A layer's self
//! time is its span's duration minus what its child spans cover.

use serde::Value;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The request (program index of the pass) that caused the span.
    pub request: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `work` inside a span. The span's parent is whichever span
    /// is open when it starts.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u32,
        work: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            request,
        });
        self.stack.push(idx);
        let out = work(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome trace-event JSON (`ts`/`dur` in whole microseconds, as
    /// `trace_check` requires). The request id and the parent span go
    /// in `args`.
    pub fn chrome_trace(&self, process: &str) -> String {
        let mut events = vec![Value::Object(vec![
            ("name".to_string(), Value::Str("process_name".to_string())),
            ("ph".to_string(), Value::Str("M".to_string())),
            ("pid".to_string(), Value::UInt(1)),
            ("tid".to_string(), Value::UInt(1)),
            (
                "args".to_string(),
                Value::Object(vec![("name".to_string(), Value::Str(process.to_string()))]),
            ),
        ])];
        for (idx, s) in self.spans.iter().enumerate() {
            events.push(Value::Object(vec![
                ("name".to_string(), Value::Str(s.name.to_string())),
                ("ph".to_string(), Value::Str("X".to_string())),
                ("pid".to_string(), Value::UInt(1)),
                ("tid".to_string(), Value::UInt(1)),
                ("ts".to_string(), Value::UInt(s.start_ns / 1000)),
                ("dur".to_string(), Value::UInt(s.dur_ns() / 1000)),
                (
                    "args".to_string(),
                    Value::Object(vec![
                        ("span".to_string(), Value::UInt(idx as u64)),
                        (
                            "parent".to_string(),
                            s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                        ),
                        ("request".to_string(), Value::UInt(u64::from(s.request))),
                    ]),
                ),
            ]));
        }
        let doc = Value::Object(vec![("traceEvents".to_string(), Value::Array(events))]);
        serde_json::to_string(&doc).expect("a value tree of strings and integers serializes")
    }
}

/// Self time of every span: duration minus the duration of its direct
/// children (children never overlap: one thread, strict nesting).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// `(total, self)` nanoseconds per span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let own = self_times_ns(spans);
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, own_ns) in spans.iter().zip(own) {
        let e = out.entry(s.name).or_default();
        e.0 += s.dur_ns();
        e.1 += own_ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("request", 0, 100, None),
            span("parse", 10, 30, Some(0)),
            span("dataflow", 30, 90, Some(0)),
            span("expand", 40, 60, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 20, 40, 20]);
        let by = totals_by_name(&spans);
        assert_eq!(by["request"], (100, 20));
        assert_eq!(by["dataflow"], (60, 40));
    }

    #[test]
    fn self_time_never_underflows() {
        // A child that (through clock granularity) outlasts its parent.
        let spans = vec![span("a", 0, 10, None), span("b", 0, 12, Some(0))];
        assert_eq!(self_times_ns(&spans), vec![0, 12]);
    }

    #[test]
    fn recorder_nests_and_tags_requests() {
        let mut rec = Recorder::new();
        rec.span("request", 7, |rec| {
            rec.span("parse", 7, |_| {});
            rec.span("sema", 7, |_| {});
        });
        rec.span("request", 8, |_| {});
        let s = rec.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!(s[3].parent, None);
        assert_eq!(s[3].request, 8);
        assert!(s[0].end_ns >= s[2].end_ns);
        let doc = serde_json::from_str(&rec.chrome_trace("panobench")).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 5);
        assert!(events[1].get("ts").unwrap().as_u64().is_some());
    }
}
