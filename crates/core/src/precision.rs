//! panoledger reporting — the [`PrecisionReport`] aggregation over one
//! run's precision-loss events (DESIGN.md §4j).
//!
//! The raw material is the `trace::ledger` event stream recorded while
//! the pipeline ran; this module folds it together with the verdicts
//! into the report every surface shares: event counts by cause, the
//! serial-verdict attribution split (proven dependence vs. degraded
//! analysis) and the headline precision ratio. The ratio is rendered as
//! a fixed three-decimal string — integer arithmetic, no floats — so
//! reports are byte-identical across job counts and cache state.

use crate::Analysis;
use serde::Value;
use trace::ledger::{Cause, PrecisionEvent};

/// Aggregated precision accounting for one analysis run.
#[derive(Clone, Debug)]
pub struct PrecisionReport {
    /// Event count per cause, for every cause in [`Cause::ALL`] order
    /// (zero counts included — the schema is fixed-shape).
    pub counts: Vec<(Cause, u64)>,
    /// Outermost-and-nested loop verdicts in the run.
    pub loops_total: u64,
    /// Verdicts parallel (as-is or after privatization).
    pub loops_parallel: u64,
    /// Serial verdicts backed by a proven dependence at full precision.
    pub loops_serial_dependence: u64,
    /// Serial verdicts from a budget-degraded (widened) analysis — the
    /// loops whose serialization is attributable to precision loss, not
    /// to a dependence anyone proved.
    pub loops_serial_degraded: u64,
    /// The recorded events, in pipeline order.
    pub events: Vec<PrecisionEvent>,
    /// Events dropped past the ledger's hard cap.
    pub events_dropped: u64,
}

impl PrecisionReport {
    /// Folds a run's ledger slice and verdicts into the report.
    pub fn build(analysis: &Analysis, events: Vec<PrecisionEvent>, events_dropped: u64) -> Self {
        let counts = Cause::ALL
            .into_iter()
            .map(|c| (c, events.iter().filter(|e| e.cause == c).count() as u64))
            .collect();
        let mut loops_total = 0u64;
        let mut loops_parallel = 0u64;
        let mut loops_serial_degraded = 0u64;
        for v in &analysis.verdicts {
            loops_total += 1;
            if v.parallel_after_privatization {
                loops_parallel += 1;
            } else if v.degraded {
                loops_serial_degraded += 1;
            }
        }
        let loops_serial_dependence = loops_total - loops_parallel - loops_serial_degraded;
        PrecisionReport {
            counts,
            loops_total,
            loops_parallel,
            loops_serial_dependence,
            loops_serial_degraded,
            events,
            events_dropped,
        }
    }

    /// Total events across all causes (dropped events not included).
    pub fn events_total(&self) -> u64 {
        self.counts.iter().map(|(_, n)| n).sum()
    }

    /// Events whose cause can flip a verdict to serial
    /// ([`Cause::degrades_verdicts`]).
    pub fn degrading_events(&self) -> u64 {
        self.counts
            .iter()
            .filter(|(c, _)| c.degrades_verdicts())
            .map(|(_, n)| n)
            .sum()
    }

    /// The headline ratio: verdicts decided at full precision (parallel
    /// or serial-with-proven-dependence) over all verdicts, as a fixed
    /// three-decimal string. An empty run is vacuously `"1.000"`.
    pub fn ratio(&self) -> String {
        ratio_3(
            self.loops_total - self.loops_serial_degraded,
            self.loops_total,
        )
    }

    /// The machine-readable report, attached to the analysis JSON under
    /// the additive `"precision"` key.
    pub fn json(&self) -> Value {
        Value::Object(vec![
            (
                "causes".to_string(),
                Value::Object(
                    self.counts
                        .iter()
                        .map(|(c, n)| (c.as_str().to_string(), Value::UInt(*n)))
                        .collect(),
                ),
            ),
            (
                "loops".to_string(),
                Value::Object(vec![
                    ("total".to_string(), Value::UInt(self.loops_total)),
                    ("parallel".to_string(), Value::UInt(self.loops_parallel)),
                    (
                        "serial_dependence".to_string(),
                        Value::UInt(self.loops_serial_dependence),
                    ),
                    (
                        "serial_degraded".to_string(),
                        Value::UInt(self.loops_serial_degraded),
                    ),
                ]),
            ),
            ("precision_ratio".to_string(), Value::Str(self.ratio())),
            (
                "events".to_string(),
                Value::Array(
                    self.events
                        .iter()
                        .map(|e| {
                            Value::Object(vec![
                                (
                                    "cause".to_string(),
                                    Value::Str(e.cause.as_str().to_string()),
                                ),
                                ("routine".to_string(), Value::Str(e.routine.clone())),
                                ("var".to_string(), Value::Str(e.var.clone())),
                                ("line".to_string(), Value::UInt(u64::from(e.line))),
                                ("detail".to_string(), Value::Str(e.detail.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "events_dropped".to_string(),
                Value::UInt(self.events_dropped),
            ),
        ])
    }

    /// Human-readable rendering for `panorama --precision-report`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("precision report:\n");
        out.push_str(&format!(
            "  loops: {} total, {} parallel, {} serial (proven dependence), {} serial (degraded analysis)\n",
            self.loops_total,
            self.loops_parallel,
            self.loops_serial_dependence,
            self.loops_serial_degraded,
        ));
        out.push_str(&format!(
            "  precision ratio: {} (verdicts decided at full precision)\n",
            self.ratio()
        ));
        out.push_str(&format!(
            "  events: {} recorded ({} verdict-degrading), {} dropped\n",
            self.events_total(),
            self.degrading_events(),
            self.events_dropped,
        ));
        for (c, n) in &self.counts {
            if *n > 0 {
                out.push_str(&format!("    {:<16} {}\n", c.as_str(), n));
            }
        }
        for e in &self.events {
            out.push_str(&format!("  [{}] {e}\n", e.cause));
        }
        out
    }
}

/// `num / den` to three fixed decimals, round-half-up, in integers.
/// `den == 0` is the vacuous full-precision case.
fn ratio_3(num: u64, den: u64) -> String {
    if den == 0 {
        return "1.000".to_string();
    }
    let scaled = (num * 1000 + den / 2) / den;
    format!("{}.{:03}", scaled / 1000, scaled % 1000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_is_fixed_point() {
        assert_eq!(ratio_3(0, 0), "1.000");
        assert_eq!(ratio_3(1, 1), "1.000");
        assert_eq!(ratio_3(1, 3), "0.333");
        assert_eq!(ratio_3(2, 3), "0.667");
        assert_eq!(ratio_3(11, 12), "0.917");
    }
}
