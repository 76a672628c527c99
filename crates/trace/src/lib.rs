//! panotrace — structured tracing for the analysis pipeline.
//!
//! When no collector is installed on the current thread, every
//! instrumentation site — [`span`], [`span_with`], [`add`], [`event`] —
//! is one load of a `const`-initialised thread-local flag and an
//! immediate return. No allocation, no formatting on the disabled path;
//! closures passed to [`span_with`] and [`event`] are never called.
//!
//! When a [`Collector`] *is* installed on the current thread, sites
//! record a tree of spans with monotonic microsecond timestamps, typed
//! counters (GAR list lengths, predicate-term counts, cache hits,
//! widenings, …) attached to the innermost open span, and point-in-time
//! events. Two renderings:
//!
//! * [`Collector::tree`] — a hierarchical [`SpanNode`] forest with
//!   timestamps rebased to the first span, the structure embedded in
//!   daemon responses (`"trace":true`) and asserted byte-identical
//!   across worker counts and cache settings by the determinism suite;
//! * [`chrome_trace`] — Chrome trace-event JSON (one *process* track
//!   per labelled collector, e.g. per daemon worker), loadable in
//!   Perfetto or `chrome://tracing`. [`Registry`] accumulates labelled
//!   collectors across threads behind a poison-safe lock for exactly
//!   this sink.
//!
//! Collectors are per-thread, nest, and merge up on finish (see
//! [`scope`]), so one traced request in a daemon never sees spans from
//! a neighbouring worker. The crate is std-only: it renders its own
//! JSON.

#![warn(missing_docs)]

pub mod ledger;
pub mod scope;

use scope::{Scope, Sink};
use std::cell::{Cell, RefCell};
use std::sync::{Mutex, PoisonError};
use std::thread::LocalKey;
use std::time::Instant;

thread_local! {
    static COLLECTORS: RefCell<Vec<Collector>> = const { RefCell::new(Vec::new()) };
    static COLLECTING: Cell<bool> = const { Cell::new(false) };
}

impl Sink for Collector {
    fn stack() -> &'static LocalKey<RefCell<Vec<Self>>> {
        &COLLECTORS
    }

    fn flag() -> &'static LocalKey<Cell<bool>> {
        &COLLECTING
    }
}

/// An installed-collector scope. A finished collector stays apart from
/// the one it shadowed unless the caller [`splice`]s it in.
pub type CollectorScope = Scope<Collector>;

const NO_PARENT: usize = usize::MAX;

/// One recorded span (internal arena representation).
#[derive(Clone, Debug)]
struct SpanRec {
    name: String,
    parent: usize,
    start_us: u64,
    dur_us: u64,
    counters: Vec<(String, u64)>,
    events: Vec<SpanEvent>,
}

/// A point-in-time event attached to a span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// Microseconds since the collector's (rebased) origin.
    pub at_us: u64,
    /// Event name, e.g. `cache_replay`.
    pub name: String,
    /// Free-form detail, e.g. the routine that was replayed.
    pub detail: String,
}

/// One node of the rendered span tree.
#[derive(Clone, Debug)]
pub struct SpanNode {
    /// Span name, e.g. `dataflow` or `sum_loop:interf/i`.
    pub name: String,
    /// Start, microseconds since the first span of the collector.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Typed counters accumulated while this span was innermost, in
    /// first-touch order (deterministic for a deterministic run).
    pub counters: Vec<(String, u64)>,
    /// Events recorded while this span was innermost.
    pub events: Vec<SpanEvent>,
    /// Child spans in start order.
    pub children: Vec<SpanNode>,
}

/// A per-thread span collector. Create one, install it
/// ([`CollectorScope`]), run the instrumented code, then finish the
/// scope to get it back.
#[derive(Clone, Debug)]
pub struct Collector {
    epoch: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
    /// Counters recorded with no span open.
    counters: Vec<(String, u64)>,
    /// Events recorded with no span open.
    events: Vec<SpanEvent>,
}

impl Collector {
    /// A collector whose timestamps are relative to its creation.
    pub fn new() -> Self {
        Self::with_epoch(Instant::now())
    }

    /// A collector measuring against a shared epoch — how daemon
    /// workers align their tracks on one [`Registry`] timeline.
    pub fn with_epoch(epoch: Instant) -> Self {
        Collector {
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            counters: Vec::new(),
            events: Vec::new(),
        }
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    fn open(&mut self, name: String) -> usize {
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let idx = self.spans.len();
        self.spans.push(SpanRec {
            name,
            parent,
            start_us: self.now_us(),
            dur_us: 0,
            counters: Vec::new(),
            events: Vec::new(),
        });
        self.stack.push(idx);
        idx
    }

    fn close(&mut self, idx: usize) {
        let end = self.now_us();
        if let Some(rec) = self.spans.get_mut(idx) {
            rec.dur_us = end.saturating_sub(rec.start_us);
        }
        // Normal RAII drops close the top of the stack; an out-of-order
        // drop (unwinding, mem::forget games) removes the span wherever
        // it is so siblings keep nesting correctly.
        match self.stack.iter().rposition(|&i| i == idx) {
            Some(pos) if pos == self.stack.len() - 1 => {
                self.stack.pop();
            }
            Some(pos) => {
                self.stack.remove(pos);
            }
            None => {}
        }
    }

    fn bump(&mut self, name: &str, delta: u64) {
        let counters = match self.stack.last() {
            Some(&idx) => &mut self.spans[idx].counters,
            None => &mut self.counters,
        };
        match counters.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => *v += delta,
            None => counters.push((name.to_string(), delta)),
        }
    }

    fn note(&mut self, name: &str, detail: String) {
        let at_us = self.now_us();
        let ev = SpanEvent {
            at_us,
            name: name.to_string(),
            detail,
        };
        match self.stack.last() {
            Some(&idx) => self.spans[idx].events.push(ev),
            None => self.events.push(ev),
        }
    }

    /// True when no span was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.counters.is_empty() && self.events.is_empty()
    }

    /// The recorded span forest, timestamps rebased so the earliest
    /// span starts at 0 (daemon uptime must not leak into responses).
    pub fn tree(&self) -> Vec<SpanNode> {
        let base = self.spans.iter().map(|s| s.start_us).min().unwrap_or(0);
        let mut nodes: Vec<SpanNode> = self
            .spans
            .iter()
            .map(|s| SpanNode {
                name: s.name.clone(),
                start_us: s.start_us - base,
                dur_us: s.dur_us,
                counters: s.counters.clone(),
                events: s
                    .events
                    .iter()
                    .map(|e| SpanEvent {
                        at_us: e.at_us.saturating_sub(base),
                        ..e.clone()
                    })
                    .collect(),
                children: Vec::new(),
            })
            .collect();
        // Children were pushed in start order; reattach bottom-up so
        // each parent receives its children already ordered.
        let mut roots = Vec::new();
        for idx in (0..self.spans.len()).rev() {
            let node = nodes.pop().expect("arena length");
            let parent = self.spans[idx].parent;
            if parent == NO_PARENT {
                roots.push(node);
            } else {
                nodes[parent].children.insert(0, node);
            }
        }
        roots.reverse();
        roots
    }

    /// Counters recorded outside any span (rarely used; instrumented
    /// code normally runs under a phase span).
    pub fn top_level_counters(&self) -> &[(String, u64)] {
        &self.counters
    }

    /// The instant this collector's timestamps are measured against.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Appends another (finished) collector's recordings to this one,
    /// re-anchoring timestamps onto this collector's epoch and keeping
    /// span parenting intact: the spliced spans appear exactly where
    /// they would have been recorded directly. `other`'s open-span
    /// stack is ignored; splice finished collectors only.
    pub fn splice(&mut self, other: &Collector) {
        // `other` was created after `self` in the intended use; if not,
        // saturate — a 0 shift only misplaces, never corrupts, spans.
        let shift = other
            .epoch
            .checked_duration_since(self.epoch)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0);
        let offset = self.spans.len();
        for rec in &other.spans {
            let mut rec = rec.clone();
            rec.start_us += shift;
            for ev in &mut rec.events {
                ev.at_us += shift;
            }
            if rec.parent != NO_PARENT {
                rec.parent += offset;
            }
            self.spans.push(rec);
        }
        for (name, delta) in &other.counters {
            match self.counters.iter_mut().find(|(n, _)| n == name) {
                Some((_, v)) => *v += delta,
                None => self.counters.push((name.clone(), *delta)),
            }
        }
        for ev in &other.events {
            self.events.push(SpanEvent {
                at_us: ev.at_us + shift,
                ..ev.clone()
            });
        }
    }
}

impl Default for Collector {
    fn default() -> Self {
        Self::new()
    }
}

/// Is a collector installed on the current thread? One thread-local
/// load.
#[inline]
pub fn enabled() -> bool {
    COLLECTING.get()
}

/// Splices a finished collector into the current thread's collector
/// ([`Collector::splice`]) — how a daemon worker folds a request's
/// spans, recorded on a nested collector so the flight recorder gets
/// an isolated tree, back into the `--trace-out` track it shadowed.
pub fn splice(finished: &Collector) {
    scope::with(|c: &mut Collector| c.splice(finished));
}

/// An open span; closes itself on drop. Obtained from [`span`] /
/// [`span_with`]; inert (a two-word no-op) when tracing is disabled.
pub struct Span(Option<usize>);

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(idx) = self.0 {
            scope::with(|c: &mut Collector| c.close(idx));
        }
    }
}

const INERT: Span = Span(None);

/// Opens a span named `name` under the innermost open span.
#[inline]
pub fn span(name: &str) -> Span {
    if !enabled() {
        return INERT;
    }
    span_slow(|| name.to_string())
}

/// Opens a span with a lazily built name — the closure never runs when
/// tracing is disabled, so hot paths pay no formatting cost.
#[inline]
pub fn span_with(name: impl FnOnce() -> String) -> Span {
    if !enabled() {
        return INERT;
    }
    span_slow(name)
}

fn span_slow(name: impl FnOnce() -> String) -> Span {
    Span(scope::with(|c: &mut Collector| c.open(name())))
}

/// Adds `delta` to the typed counter `name` on the innermost open span.
#[inline]
pub fn add(name: &str, delta: u64) {
    if !enabled() {
        return;
    }
    scope::with(|c: &mut Collector| c.bump(name, delta));
}

/// Records a point-in-time event on the innermost open span. The
/// detail closure never runs when tracing is disabled.
#[inline]
pub fn event(name: &str, detail: impl FnOnce() -> String) {
    if !enabled() {
        return;
    }
    scope::with(|c: &mut Collector| c.note(name, detail()));
}

/// A process-wide accumulator of labelled collectors — the daemon's
/// `--trace-out` sink. Each label becomes one Chrome process track;
/// collectors created with [`Registry::epoch`] share its timeline.
pub struct Registry {
    epoch: Instant,
    tracks: Mutex<Vec<(String, Collector)>>,
}

impl Registry {
    /// A registry whose timeline starts now.
    pub fn new() -> Self {
        Registry {
            epoch: Instant::now(),
            tracks: Mutex::new(Vec::new()),
        }
    }

    /// The shared epoch for worker collectors.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<(String, Collector)>> {
        // A worker panic between adopt() calls must not wedge the
        // shutdown dump: recover from poisoning like the PR 3 locks.
        self.tracks.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Files a finished collector under `label` (e.g. `worker-3`).
    pub fn adopt(&self, label: &str, c: Collector) {
        if c.is_empty() {
            return;
        }
        self.lock().push((label.to_string(), c));
    }

    /// Renders everything adopted so far as Chrome trace-event JSON,
    /// one process track per distinct label.
    pub fn chrome_trace(&self) -> String {
        let tracks = self.lock();
        let borrowed: Vec<(String, &Collector)> =
            tracks.iter().map(|(label, c)| (label.clone(), c)).collect();
        chrome_trace(&borrowed)
    }
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

/// Renders labelled collectors as a Chrome trace-event JSON document
/// (`{"traceEvents":[...]}`): complete (`"ph":"X"`) events for spans
/// with counters in `args`, instant (`"ph":"i"`) events for
/// [`SpanEvent`]s, and one `process_name` metadata record per distinct
/// label. Loadable in Perfetto and `chrome://tracing`.
pub fn chrome_trace(tracks: &[(String, &Collector)]) -> String {
    let mut pids: Vec<&str> = Vec::new();
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let emit = |s: String, out: &mut String, first: &mut bool| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push_str(&s);
    };
    for (label, collector) in tracks {
        let pid = match pids.iter().position(|l| l == label) {
            Some(p) => p,
            None => {
                pids.push(label);
                let meta = format!(
                    "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\
                     \"args\":{{\"name\":{}}}}}",
                    pids.len() - 1,
                    json_str(label)
                );
                emit(meta, &mut out, &mut first);
                pids.len() - 1
            }
        };
        for rec in &collector.spans {
            let mut args = String::from("{");
            for (i, (k, v)) in rec.counters.iter().enumerate() {
                if i > 0 {
                    args.push(',');
                }
                args.push_str(&format!("{}:{}", json_str(k), v));
            }
            args.push('}');
            emit(
                format!(
                    "{{\"name\":{},\"cat\":\"panorama\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                     \"pid\":{},\"tid\":0,\"args\":{}}}",
                    json_str(&rec.name),
                    rec.start_us,
                    rec.dur_us,
                    pid,
                    args
                ),
                &mut out,
                &mut first,
            );
            for ev in &rec.events {
                emit(
                    format!(
                        "{{\"name\":{},\"cat\":\"panorama\",\"ph\":\"i\",\"ts\":{},\"s\":\"t\",\
                         \"pid\":{},\"tid\":0,\"args\":{{\"detail\":{}}}}}",
                        json_str(&ev.name),
                        ev.at_us,
                        pid,
                        json_str(&ev.detail)
                    ),
                    &mut out,
                    &mut first,
                );
            }
        }
    }
    out.push_str("]}");
    out
}

/// Minimal JSON string escaping (the crate is std-only by design).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_collector(f: impl FnOnce()) -> Collector {
        let scope = CollectorScope::install(Collector::new());
        f();
        scope.finish().expect("collector installed")
    }

    #[test]
    fn disabled_sites_are_inert() {
        assert!(!enabled());
        let _s = span("never");
        span_with(|| panic!("name closure must not run"));
        add("n", 1);
        event("e", || panic!("detail closure must not run"));
    }

    #[test]
    fn spans_nest_and_counters_attach() {
        let c = with_collector(|| {
            let _outer = span("outer");
            add("ticks", 2);
            {
                let _inner = span_with(|| format!("inner:{}", 1));
                add("ticks", 3);
                event("hit", || "x".to_string());
            }
            add("ticks", 1);
        });
        let tree = c.tree();
        assert_eq!(tree.len(), 1);
        let outer = &tree[0];
        assert_eq!(outer.name, "outer");
        assert_eq!(outer.counters, vec![("ticks".to_string(), 3)]);
        assert_eq!(outer.children.len(), 1);
        let inner = &outer.children[0];
        assert_eq!(inner.name, "inner:1");
        assert_eq!(inner.counters, vec![("ticks".to_string(), 3)]);
        assert_eq!(inner.events.len(), 1);
        assert_eq!(inner.events[0].name, "hit");
    }

    #[test]
    fn tree_rebases_to_first_span() {
        let c = with_collector(|| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            let _s = span("late");
        });
        assert_eq!(c.tree()[0].start_us, 0);
    }

    #[test]
    fn siblings_stay_ordered() {
        let c = with_collector(|| {
            let _root = span("root");
            for name in ["a", "b", "c"] {
                let _s = span(name);
            }
        });
        let tree = c.tree();
        let names: Vec<&str> = tree[0].children.iter().map(|n| n.name.as_str()).collect();
        assert_eq!(names, ["a", "b", "c"]);
    }

    #[test]
    fn chrome_trace_is_wellformed() {
        let c = with_collector(|| {
            let _s = span("phase \"q\"");
            add("gar_pieces", 7);
            event("cache_replay", || "routine x\n".to_string());
        });
        let json = chrome_trace(&[("worker-0".to_string(), &c)]);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\"phase \\\"q\\\"\""));
        assert!(json.contains("\"gar_pieces\":7"));
        assert!(json.contains("\\n"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
    }

    #[test]
    fn registry_groups_by_label() {
        let reg = Registry::new();
        let mk = |name: &str| {
            let scope = CollectorScope::install(Collector::with_epoch(reg.epoch()));
            let _s = span(name);
            drop(_s);
            scope.finish().unwrap()
        };
        reg.adopt("worker-0", mk("a"));
        reg.adopt("worker-1", mk("b"));
        reg.adopt("worker-0", mk("c"));
        reg.adopt("worker-0", Collector::new()); // empty: dropped
        let json = reg.chrome_trace();
        assert_eq!(json.matches("process_name").count(), 2);
        assert!(json.contains("\"pid\":0"));
        assert!(json.contains("\"pid\":1"));
    }

    #[test]
    fn splice_preserves_structure_and_shifts_time() {
        let mut worker = with_collector(|| {
            let _s = span("before");
        });
        std::thread::sleep(std::time::Duration::from_millis(2));
        let request = with_collector(|| {
            let _outer = span("analyze");
            let _inner = span("dataflow");
            add("steps", 4);
            event("cache_replay", || "extr".to_string());
        });
        let before = request.spans[0].start_us;
        worker.splice(&request);
        let tree = worker.tree();
        assert_eq!(tree.len(), 2);
        assert_eq!(tree[0].name, "before");
        assert_eq!(tree[1].name, "analyze");
        assert_eq!(tree[1].children.len(), 1);
        assert_eq!(tree[1].children[0].name, "dataflow");
        assert_eq!(tree[1].children[0].counters, vec![("steps".to_string(), 4)]);
        // The request collector's epoch postdates the worker's by ≥2ms,
        // so its spans land later on the worker timeline.
        assert!(worker.spans[1].start_us >= before + 2_000);
    }

    #[test]
    fn splice_merges_top_level_counters() {
        let mut a = with_collector(|| add("n", 1));
        let b = with_collector(|| {
            add("n", 2);
            add("m", 5);
        });
        a.splice(&b);
        assert_eq!(
            a.top_level_counters(),
            &[("n".to_string(), 3), ("m".to_string(), 5)]
        );
    }

    #[test]
    fn adversarial_span_names_escape_cleanly() {
        let names = [
            "quote \" in name",
            "back\\slash\\path",
            "non-ascii: héllo 名前 🙂",
            "ctrl\u{7}\u{1f}chars",
            "tab\tand\nnewline\rret",
        ];
        let c = with_collector(|| {
            for n in &names {
                let _s = span(n);
                event(n, || format!("detail {n}"));
            }
        });
        let json = chrome_trace(&[("w \"q\"\\".to_string(), &c)]);
        // No raw control bytes may survive into the document; every
        // quote and backslash inside a string must be escaped.
        for b in json.bytes() {
            assert!(b >= 0x20, "raw control byte {b:#x} leaked into JSON");
        }
        assert!(json.contains("quote \\\" in name"));
        assert!(json.contains("back\\\\slash\\\\path"));
        assert!(json.contains("héllo 名前 🙂"));
        assert!(json.contains("\\u0007"));
        assert!(json.contains("\\t"));
        assert!(json.contains("\\n"));
        assert!(json.contains("\\r"));
    }

    #[test]
    fn nested_scope_shadows_then_restores_and_splices_on_request() {
        let outer = CollectorScope::install(Collector::new());
        drop(span("before"));
        let inner = CollectorScope::install(Collector::new());
        drop(span("request"));
        let request = inner.finish().expect("inner collector");
        assert!(enabled(), "the enclosing collector is current again");
        drop(span("after"));
        let names =
            |c: &Collector| -> Vec<String> { c.tree().into_iter().map(|n| n.name).collect() };
        assert_eq!(names(&request), ["request"]);
        splice(&request);
        let worker = outer.finish().expect("outer collector");
        assert_eq!(names(&worker), ["before", "after", "request"]);
        assert!(!enabled());
    }
}
