//! panoledger — precision-loss accounting for the analysis pipeline.
//!
//! Every place the analyzer deliberately answers ⊤ instead of thinking
//! harder — fuel widenings, alias degradations at call sites, exhausted
//! value-range/content budgets, refused control flow, summary-cache
//! bypasses, condensed goto-cycles, codegen lowering refusals — records
//! one typed [`PrecisionEvent`] here. The ledger is the ground truth
//! behind `panorama --precision-report`, the daemon's
//! `panorama_precision_*` counters and the flight recorder: a verdict
//! that went serial because of a degradation, rather than a proven
//! dependence, must be attributable to the event that caused it.
//!
//! Same zero-cost discipline as the span collector: with neither a
//! ledger nor a collector installed on the current thread, [`record`]
//! is two thread-local flag loads and an immediate return — the site
//! closure never runs, so hot paths pay no formatting or allocation.
//! Ledgers are per-thread, nest, and merge up on finish
//! ([`crate::scope`]): one request in a daemon never sees a
//! neighbouring worker's events, and a driver-owned ledger inside a
//! worker-owned one hands its events up when it ends.

use crate::scope::{self, Scope, Sink};
use std::cell::{Cell, RefCell};
use std::thread::LocalKey;

thread_local! {
    static LEDGERS: RefCell<Vec<Ledger>> = const { RefCell::new(Vec::new()) };
    static ACCOUNTING: Cell<bool> = const { Cell::new(false) };
}

/// Hard cap on events per ledger: a pathological input must not turn
/// the accounting layer into a memory leak. Overflow is counted, not
/// silently dropped.
pub const MAX_EVENTS: usize = 16_384;

/// Why precision was lost at a site. Each variant names one
/// conservative approximation the pipeline takes; the `as_str` strings
/// are stable schema (DESIGN.md §4j) shared by the JSON report, the
/// Prometheus `cause` label and the flight recorder.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Cause {
    /// `dataflow::fuel` exhaustion widened a summary, segment or loop
    /// to an unknown over-approximation (steps, state caps, deadline).
    FuelWiden,
    /// `SUM_call` could not prove the call alias-clean: some arrays got
    /// unknown MOD/UE or lost DE, or a COMMON mismatch degraded a block.
    AliasDegrade,
    /// The value-range pass ran out of budget inside a routine; range
    /// facts from that routine are incomplete.
    RangeBudget,
    /// The array-content pass ran out of budget on a loop body; its
    /// UE₍i₎ refutations and full-definition facts were discarded.
    ContentBudget,
    /// The array-content pass refused a loop body outright (CALL, GOTO,
    /// RETURN or STOP in the body — unmodelled control flow).
    ContentRefused,
    /// An offered routine-summary cache was bypassed (propagation trace
    /// requested, or resource limits constrain results), so this run
    /// re-derived summaries a warm run would have replayed.
    CacheBypass,
    /// A goto-cycle was condensed and summarized conservatively: every
    /// array touched inside became unknown MOD/UE with no DE.
    GotoCondense,
    /// The emission backend declined to transform or lower a loop
    /// (synthetic, serial, degraded, nested, or an unlowerable clause).
    LowerSkip,
}

impl Cause {
    /// Every cause, in stable report order.
    pub const ALL: [Cause; 8] = [
        Cause::FuelWiden,
        Cause::AliasDegrade,
        Cause::RangeBudget,
        Cause::ContentBudget,
        Cause::ContentRefused,
        Cause::CacheBypass,
        Cause::GotoCondense,
        Cause::LowerSkip,
    ];

    /// Stable lower-snake-case name used across every surface.
    pub fn as_str(self) -> &'static str {
        match self {
            Cause::FuelWiden => "fuel_widen",
            Cause::AliasDegrade => "alias_degrade",
            Cause::RangeBudget => "range_budget",
            Cause::ContentBudget => "content_budget",
            Cause::ContentRefused => "content_refused",
            Cause::CacheBypass => "cache_bypass",
            Cause::GotoCondense => "goto_condense",
            Cause::LowerSkip => "lower_skip",
        }
    }

    /// Inverse of [`Cause::as_str`].
    pub fn parse(s: &str) -> Option<Cause> {
        Cause::ALL.into_iter().find(|c| c.as_str() == s)
    }

    /// Causes that can flip a loop verdict from parallel to serial (or
    /// discard a refutation that would have flipped it back): the
    /// degradation class the suite-wide invariant tests account for.
    /// `CacheBypass`, `GotoCondense` and `LowerSkip` lose time or
    /// emission coverage, not verdict precision the verdicts don't
    /// already record as a proven dependence.
    pub fn degrades_verdicts(self) -> bool {
        matches!(
            self,
            Cause::FuelWiden
                | Cause::AliasDegrade
                | Cause::RangeBudget
                | Cause::ContentBudget
                | Cause::ContentRefused
        )
    }
}

impl std::fmt::Display for Cause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Where precision was lost: the site fields of a [`PrecisionEvent`],
/// built lazily by the closure passed to [`record`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Site {
    /// Enclosing routine (empty when the loss is not routine-scoped,
    /// e.g. a whole-run cache bypass).
    pub routine: String,
    /// Affected variable or loop index (empty when not var-specific).
    pub var: String,
    /// 1-based source line (0 when unknown).
    pub line: u32,
    /// Free-form elaboration, e.g. the callee or the widened arrays.
    pub detail: String,
}

impl Site {
    /// A site anchored to `routine`; chain the other fields.
    pub fn routine(routine: impl Into<String>) -> Site {
        Site {
            routine: routine.into(),
            ..Site::default()
        }
    }

    /// Sets the affected variable.
    pub fn var(mut self, var: impl Into<String>) -> Site {
        self.var = var.into();
        self
    }

    /// Sets the source line.
    pub fn line(mut self, line: u32) -> Site {
        self.line = line;
        self
    }

    /// Sets the detail text.
    pub fn detail(mut self, detail: impl Into<String>) -> Site {
        self.detail = detail.into();
        self
    }
}

/// One recorded precision loss: a cause at a site.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PrecisionEvent {
    /// What kind of approximation was taken.
    pub cause: Cause,
    /// Enclosing routine (may be empty).
    pub routine: String,
    /// Affected variable or loop index (may be empty).
    pub var: String,
    /// 1-based source line (0 = unknown).
    pub line: u32,
    /// Free-form elaboration.
    pub detail: String,
}

/// `routine[/var][ (line N)]: detail` — the site as the
/// `--precision-report` listing and the span event's detail show it.
impl std::fmt::Display for PrecisionEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.routine)?;
        if !self.var.is_empty() {
            write!(f, "/{}", self.var)?;
        }
        if self.line != 0 {
            write!(f, " (line {})", self.line)?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// A per-thread event ledger. Install one ([`LedgerScope`]), run the
/// pipeline, finish the scope to take it back out.
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    events: Vec<PrecisionEvent>,
    dropped: u64,
}

impl Ledger {
    /// An empty ledger.
    pub fn new() -> Ledger {
        Ledger::default()
    }

    fn push(&mut self, ev: PrecisionEvent) {
        if self.events.len() >= MAX_EVENTS {
            self.dropped += 1;
        } else {
            self.events.push(ev);
        }
    }

    /// The recorded events, in record order.
    pub fn events(&self) -> &[PrecisionEvent] {
        &self.events
    }

    /// Consumes the ledger into its event list.
    pub fn into_events(self) -> Vec<PrecisionEvent> {
        self.events
    }

    /// Events dropped past [`MAX_EVENTS`].
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl Sink for Ledger {
    fn stack() -> &'static LocalKey<RefCell<Vec<Self>>> {
        &LEDGERS
    }

    fn flag() -> &'static LocalKey<Cell<bool>> {
        &ACCOUNTING
    }

    /// A nested ledger's events and drop count also belong to the
    /// ledger it shadowed (the daemon's per-request one, feeding the
    /// metrics and the flight recorder).
    fn hand_up(&self, enclosing: &mut Ledger) {
        for ev in &self.events {
            enclosing.push(ev.clone());
        }
        enclosing.dropped += self.dropped;
    }
}

/// An installed-ledger scope.
pub type LedgerScope = Scope<Ledger>;

/// Records one precision loss: on the current thread's ledger, and as
/// an instant event named `cause.as_str()` on the innermost open span
/// of its collector. The site closure never runs when neither is
/// installed.
#[inline]
pub fn record(cause: Cause, site: impl FnOnce() -> Site) {
    if !ACCOUNTING.get() && !crate::enabled() {
        return;
    }
    let s = site();
    let ev = PrecisionEvent {
        cause,
        routine: s.routine,
        var: s.var,
        line: s.line,
        detail: s.detail,
    };
    crate::event(cause.as_str(), || ev.to_string());
    scope::with(|l: &mut Ledger| l.push(ev));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn install() -> LedgerScope {
        LedgerScope::install(Ledger::new())
    }

    #[test]
    fn disabled_record_is_inert() {
        assert!(!ACCOUNTING.get());
        record(Cause::FuelWiden, || panic!("site closure must not run"));
    }

    #[test]
    fn records_events_in_order() {
        let scope = install();
        record(Cause::FuelWiden, || {
            Site::routine("interf").var("x").line(7).detail("segment")
        });
        record(Cause::AliasDegrade, || {
            Site::routine("main").detail("main -> extr")
        });
        let ledger = scope.finish().expect("ledger installed");
        assert_eq!(ledger.events().len(), 2);
        assert_eq!(ledger.events()[0].cause, Cause::FuelWiden);
        assert_eq!(ledger.events()[0].routine, "interf");
        assert_eq!(ledger.events()[0].var, "x");
        assert_eq!(ledger.events()[0].line, 7);
        assert_eq!(ledger.events()[0].to_string(), "interf/x (line 7): segment");
        assert_eq!(ledger.events()[1].to_string(), "main: main -> extr");
        assert!(!ACCOUNTING.get());
    }

    #[test]
    fn nested_ledger_owns_its_slice_and_hands_it_up() {
        let outer = install();
        record(Cause::CacheBypass, || Site::default().detail("before"));
        let inner = install();
        record(Cause::FuelWiden, || Site::routine("r"));
        let inner = inner.finish().expect("inner ledger");
        assert_eq!(inner.events().len(), 1);
        assert_eq!(inner.events()[0].cause, Cause::FuelWiden);
        record(Cause::LowerSkip, || Site::routine("r"));
        let outer = outer.finish().expect("outer ledger");
        let causes: Vec<Cause> = outer.events().iter().map(|e| e.cause).collect();
        assert_eq!(
            causes,
            [Cause::CacheBypass, Cause::FuelWiden, Cause::LowerSkip]
        );
    }

    #[test]
    fn unwinding_scope_restores_and_hands_up() {
        let outer = install();
        let result = std::panic::catch_unwind(|| {
            let _scope = install();
            record(Cause::GotoCondense, || Site::routine("doomed"));
            panic!("boom");
        });
        assert!(result.is_err());
        let outer = outer.finish().expect("outer ledger");
        assert_eq!(outer.events().len(), 1);
        assert_eq!(outer.events()[0].routine, "doomed");
        assert!(!ACCOUNTING.get());
    }

    #[test]
    fn record_is_also_a_span_event() {
        // With a collector but no ledger the event still lands on the
        // innermost span — `--trace-out` needs no `--precision-report`.
        let scope = crate::CollectorScope::install(crate::Collector::new());
        {
            let _s = crate::span("sum_loop");
            record(Cause::FuelWiden, || Site::routine("r").var("i").detail("d"));
        }
        let tree = scope.finish().expect("collector").tree();
        assert_eq!(tree[0].events.len(), 1);
        assert_eq!(tree[0].events[0].name, "fuel_widen");
        assert_eq!(tree[0].events[0].detail, "r/i: d");
    }

    #[test]
    fn overflow_is_counted_not_grown() {
        let outer = install();
        let scope = install();
        for i in 0..(MAX_EVENTS + 5) {
            record(Cause::LowerSkip, || Site::routine("r").line(i as u32));
        }
        let ledger = scope.finish().unwrap();
        assert_eq!(ledger.events().len(), MAX_EVENTS);
        assert_eq!(ledger.dropped(), 5);
        // The drop count travels up with the events.
        let outer = outer.finish().unwrap();
        assert_eq!(outer.events().len(), MAX_EVENTS);
        assert_eq!(outer.dropped(), 5);
    }

    #[test]
    fn cause_names_round_trip() {
        for c in Cause::ALL {
            assert_eq!(Cause::parse(c.as_str()), Some(c));
        }
        assert_eq!(Cause::parse("nope"), None);
    }
}
