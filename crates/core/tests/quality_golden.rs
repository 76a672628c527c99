//! The quality trajectory is *committed*:
//! `tests/golden/quality_benchsuite.json` must match what the analyzer
//! produces today, byte for byte. It holds every benchsuite kernel
//! analyzed under `--precision-report`, with the per-loop verdicts and
//! the precision ledger attached. A change in any kernel's verdicts — a
//! lost parallel loop, a new degradation cause, a shifted precision
//! ratio — fails this test until the file is regenerated with
//! `UPDATE_GOLDEN=1 cargo test -p panorama --test quality_golden` and
//! the diff is reviewed and committed alongside the code change.

use panorama::driver;
use serde::Value;
use std::collections::BTreeMap;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/quality_benchsuite.json"
);

/// The quality trajectory. The payload is fully deterministic — no dates,
/// commits or timings — so it can be compared byte for byte.
fn quality_report() -> Value {
    let mut kernels_json = Vec::new();
    let mut loops = [0u64; 4]; // total, parallel, serial_dependence, serial_degraded
    let mut causes: BTreeMap<&'static str, u64> = BTreeMap::new();
    for k in benchsuite::kernels() {
        let req = driver::Request {
            precision: true,
            ..driver::Request::new(k.source)
        };
        let out =
            driver::run(&req).unwrap_or_else(|e| panic!("{}: analysis failed: {e}", k.loop_label));
        let report = out.precision.expect("precision requested");
        loops[0] += report.loops_total;
        loops[1] += report.loops_parallel;
        loops[2] += report.loops_serial_dependence;
        loops[3] += report.loops_serial_degraded;
        for (c, n) in &report.counts {
            *causes.entry(c.as_str()).or_insert(0) += n;
        }
        let loops_json = out
            .analysis
            .verdicts
            .iter()
            .map(|v| {
                Value::Object(vec![
                    ("id".to_string(), Value::Str(v.id.clone())),
                    ("line".to_string(), Value::UInt(u64::from(v.line))),
                    ("parallel_as_is".to_string(), Value::Bool(v.parallel_as_is)),
                    (
                        "parallel_after_privatization".to_string(),
                        Value::Bool(v.parallel_after_privatization),
                    ),
                    ("degraded".to_string(), Value::Bool(v.degraded)),
                    (
                        "privatized".to_string(),
                        Value::Array(v.privatized.iter().cloned().map(Value::Str).collect()),
                    ),
                    (
                        "reductions".to_string(),
                        Value::Array(v.reductions.iter().cloned().map(Value::Str).collect()),
                    ),
                ])
            })
            .collect();
        kernels_json.push(Value::Object(vec![
            ("program".to_string(), Value::Str(k.program.to_string())),
            (
                "loop_label".to_string(),
                Value::Str(k.loop_label.to_string()),
            ),
            ("loops".to_string(), Value::Array(loops_json)),
            ("precision".to_string(), report.json()),
        ]));
    }
    Value::Object(vec![
        ("suite".to_string(), Value::Str("benchsuite".to_string())),
        ("schema_version".to_string(), Value::UInt(1)),
        ("kernels".to_string(), Value::Array(kernels_json)),
        (
            "totals".to_string(),
            Value::Object(vec![
                ("loops_total".to_string(), Value::UInt(loops[0])),
                ("loops_parallel".to_string(), Value::UInt(loops[1])),
                ("loops_serial_dependence".to_string(), Value::UInt(loops[2])),
                ("loops_serial_degraded".to_string(), Value::UInt(loops[3])),
                (
                    "precision_ratio".to_string(),
                    Value::Str(ratio_3(loops[0] - loops[3], loops[0])),
                ),
                (
                    "causes".to_string(),
                    Value::Object(
                        causes
                            .iter()
                            .map(|(c, n)| (c.to_string(), Value::UInt(*n)))
                            .collect(),
                    ),
                ),
            ]),
        ),
    ])
}

/// `num / den` to three fixed decimals, round-half-up, in integers —
/// the same formula `PrecisionReport::ratio` uses, so the suite-wide
/// total is comparable to the per-kernel ratios.
fn ratio_3(num: u64, den: u64) -> String {
    if den == 0 {
        return "1.000".to_string();
    }
    let scaled = (num * 1000 + den / 2) / den;
    format!("{}.{:03}", scaled / 1000, scaled % 1000)
}

#[test]
fn committed_quality_report_matches_regenerated() {
    let regenerated = serde_json::to_string_pretty(&quality_report()).expect("serialize");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(GOLDEN, &regenerated).unwrap();
        return;
    }
    let committed = std::fs::read_to_string(GOLDEN)
        .unwrap_or_else(|e| panic!("missing golden file {GOLDEN}: {e}"));
    assert_eq!(
        committed, regenerated,
        "quality trajectory drifted from tests/golden/quality_benchsuite.json; \
         rerun with UPDATE_GOLDEN=1 if the verdict change is intentional"
    );
}

#[test]
fn quality_report_is_deterministic_and_fully_precise() {
    let a = serde_json::to_string_pretty(&quality_report()).unwrap();
    let b = serde_json::to_string_pretty(&quality_report()).unwrap();
    assert_eq!(a, b, "quality report must be run-to-run deterministic");

    let v: Value = serde_json::from_str(&a).unwrap();
    let totals = v.get("totals").expect("totals");
    // At full budget the suite analyzes without a single degradation:
    // every serial verdict is a proven dependence, never a widening.
    assert_eq!(
        totals.get("loops_serial_degraded").and_then(Value::as_u64),
        Some(0),
        "full-budget benchsuite run must not degrade"
    );
    assert_eq!(
        totals.get("precision_ratio").and_then(Value::as_str),
        Some("1.000")
    );
    let loops_total = totals
        .get("loops_total")
        .and_then(Value::as_u64)
        .expect("loops_total");
    assert!(loops_total > 0, "suite must contain loops");
    let kernels = v.get("kernels").and_then(Value::as_array).expect("kernels");
    assert_eq!(kernels.len(), benchsuite::kernels().len());
}
