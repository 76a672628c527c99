//! The shared parse→analyze→report driver.
//!
//! Every front end — the `panorama` CLI and the `panoramad` service —
//! funnels through this module instead of re-implementing the "analyze a
//! source string, optionally run the race oracle, build the JSON report,
//! look up a verdict" sequence. One request in, one [`Outcome`] out.

use crate::{
    analyze_source_limited, json_report, Analysis, FuelLimits, Options, OracleReport,
    PanoramaError, PrecisionReport, SummaryCache,
};
use std::sync::Arc;
use trace::ledger::{Ledger, LedgerScope};

/// One unit of analysis work.
#[derive(Clone, Debug)]
pub struct Request<'a> {
    /// Fortran source text.
    pub source: &'a str,
    /// Technique toggles.
    pub opts: Options,
    /// Also run the dynamic race oracle and attach witness diagnostics.
    pub oracle: bool,
    /// Resource budgets (fuel/state caps/deadline); unlimited by default.
    pub limits: FuelLimits,
    /// This request's span tree will be reported (the caller installs a
    /// `trace::Collector` around [`run`]). Trace-reported requests
    /// bypass the summary cache: cache replay changes which `sum_*`
    /// spans exist, and the determinism contract extends to span trees
    /// (`crates/server/tests/determinism.rs`).
    pub trace_spans: bool,
    /// Also run the panogen emission backend (DESIGN.md §4h): select
    /// OpenMP clauses, lower the executable parallel plan and print the
    /// annotated source. The result lands in [`Outcome::transform`] and
    /// under the additive `"transform"` JSON key.
    pub emit: bool,
    /// Account precision losses: run the pipeline under a
    /// `trace::ledger` and attach the aggregated [`PrecisionReport`]
    /// ([`Outcome::precision`], additive `"precision"` JSON key).
    /// Precision-accounted requests bypass the summary cache for the
    /// same reason traced ones do: cache replay changes which
    /// degradation sites execute, and the report is part of the
    /// byte-identical determinism contract.
    pub precision: bool,
}

impl<'a> Request<'a> {
    /// A request with default options, no oracle, no budgets, no emission.
    pub fn new(source: &'a str) -> Self {
        Request {
            source,
            opts: Options::default(),
            oracle: false,
            limits: FuelLimits::unlimited(),
            trace_spans: false,
            emit: false,
            precision: false,
        }
    }
}

/// The result of driving one [`Request`].
pub struct Outcome {
    /// The full analysis.
    pub analysis: Analysis,
    /// The oracle report, when the request asked for it.
    pub oracle: Option<OracleReport>,
    /// The emission backend's result, when the request asked for it.
    pub transform: Option<codegen::Transform>,
    /// The precision-loss accounting, when the request asked for it.
    pub precision: Option<PrecisionReport>,
}

impl Outcome {
    /// The machine-readable report (DESIGN.md §4d), oracle included when
    /// it ran, transform included (additive `"transform"` key) when the
    /// emission backend ran.
    pub fn json(&self) -> serde::Value {
        let mut report = json_report(&self.analysis, self.oracle.as_ref());
        if let serde::Value::Object(fields) = &mut report {
            if let Some(t) = &self.transform {
                fields.push(("transform".to_string(), t.json()));
            }
            if let Some(p) = &self.precision {
                fields.push(("precision".to_string(), p.json()));
            }
        }
        report
    }

    /// Whether the oracle ran and contradicted a static verdict — the
    /// condition every front end treats as a hard failure.
    pub fn soundness_violation(&self) -> bool {
        self.oracle.as_ref().is_some_and(|r| !r.sound())
    }
}

/// Drives one request through the full pipeline.
pub fn run(req: &Request<'_>) -> Result<Outcome, PanoramaError> {
    run_with_cache(req, None)
}

/// [`run`] consulting (and feeding) a cross-run summary cache.
pub fn run_with_cache(
    req: &Request<'_>,
    cache: Option<Arc<dyn SummaryCache>>,
) -> Result<Outcome, PanoramaError> {
    let cache = if req.trace_spans || req.precision {
        None
    } else {
        cache
    };
    // This request's own ledger; nested inside a caller's (a daemon
    // worker accounts every request for its metrics) it hands its
    // events up when it ends.
    let ledger_scope = req.precision.then(|| LedgerScope::install(Ledger::new()));

    let mut analysis = analyze_source_limited(req.source, req.opts, cache, req.limits)?;
    let oracle = req.oracle.then(|| analysis.run_oracle());
    let transform = req.emit.then(|| {
        codegen::transform(
            &analysis.program,
            &analysis.sema,
            &analysis.loops,
            &analysis.verdicts,
        )
    });
    let precision = ledger_scope.and_then(LedgerScope::finish).map(|ledger| {
        let dropped = ledger.dropped();
        PrecisionReport::build(&analysis, ledger.into_events(), dropped)
    });
    Ok(Outcome {
        analysis,
        oracle,
        transform,
        precision,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "
      PROGRAM t
      REAL w(10), a(100)
      INTEGER i, k
      DO i = 1, 100
        DO k = 1, 10
          w(k) = i * 1.0
        ENDDO
        a(i) = w(5)
      ENDDO
      END
";

    #[test]
    fn run_and_lookup() {
        let out = run(&Request::new(SRC)).unwrap();
        assert!(out.oracle.is_none());
        assert!(!out.soundness_violation());
    }

    #[test]
    fn precision_report_attaches_and_scope_unwinds() {
        let req = Request {
            precision: true,
            ..Request::new(SRC)
        };
        let out = run(&req).unwrap();
        let p = out.precision.as_ref().unwrap();
        assert_eq!(p.loops_total, 2);
        assert_eq!(p.loops_serial_degraded, 0);
        assert_eq!(p.ratio(), "1.000");
        let json = out.json();
        let prec = json.get("precision").expect("precision key");
        assert!(prec.get("precision_ratio").is_some());
        assert!(prec.get("causes").unwrap().get("fuel_widen").is_some());
    }

    #[test]
    fn starved_run_accounts_for_degradation() {
        let req = Request {
            precision: true,
            limits: FuelLimits {
                steps: Some(1),
                ..FuelLimits::default()
            },
            ..Request::new(SRC)
        };
        let out = run(&req).unwrap();
        assert!(out.analysis.degraded());
        let p = out.precision.unwrap();
        assert!(p.degrading_events() > 0, "starved run must record events");
        assert!(p.loops_serial_degraded > 0);
        assert_ne!(p.ratio(), "1.000");
    }

    #[test]
    fn oracle_runs_on_request() {
        let req = Request {
            oracle: true,
            ..Request::new(SRC)
        };
        let out = run(&req).unwrap();
        let report = out.oracle.as_ref().unwrap();
        assert!(report.sound());
        assert!(!out.json().get("oracle").unwrap().is_null());
    }
}
