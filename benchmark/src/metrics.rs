//! The metric tables: every name the benchmark may print, with its
//! unit, direction, estimator and (end to end) regression bound.
//! `BENCHMARK.json` repeats the names, units, directions and bounds; a
//! unit test keeps the two in step.

use crate::stats::{Better, Estimator};

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub estimator: Estimator,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    estimator: Estimator,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        estimator,
    }
}

/// The ten end-to-end metrics; every workload reports all of them.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", Better::Lower, 0.25, Estimator::Fastest),
    e2e("cli_wall_ms", "ms", Better::Lower, 0.15, Estimator::Fastest),
    e2e(
        "cli_peak_rss_kb",
        "kB",
        Better::Lower,
        0.10,
        Estimator::RoundMedian,
    ),
    e2e(
        "analyze_lines_per_s",
        "1/s",
        Better::Higher,
        0.15,
        Estimator::Fastest,
    ),
    e2e(
        "daemon_rps",
        "1/s",
        Better::Higher,
        0.20,
        Estimator::RoundMedian,
    ),
    e2e(
        "daemon_latency_ms_p50",
        "ms",
        Better::Lower,
        0.15,
        Estimator::RoundMedian,
    ),
    e2e(
        "daemon_latency_ms_tail",
        "ms",
        Better::Lower,
        0.15,
        Estimator::RoundMedian,
    ),
    e2e(
        "daemon_peak_rss_kb",
        "kB",
        Better::Lower,
        0.10,
        Estimator::RoundMedian,
    ),
    e2e(
        "exec_serial_ms",
        "ms",
        Better::Lower,
        0.15,
        Estimator::Fastest,
    ),
    e2e(
        "exec_parallel_ms",
        "ms",
        Better::Lower,
        0.15,
        Estimator::RoundMedian,
    ),
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// A count that must repeat exactly between two passes over the
    /// same inputs.
    pub exact: bool,
}

const fn time(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer {
        name,
        unit,
        better,
        exact: true,
    }
}

const fn ratio(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer {
        name,
        unit,
        better,
        exact: false,
    }
}

use Better::{Higher, Lower};

/// The per-layer metrics of the traced run, grouped by crate. Times are
/// per corpus pass (`_ms`) or per operation (`_us`).
pub const PER_LAYER: &[Layer] = &[
    // fortran
    time("fortran.lex_ms", "ms"),
    time("fortran.parse_ms", "ms"),
    time("fortran.sema_ms", "ms"),
    time("fortran.print_ms", "ms"),
    count("fortran.tokens", "count", Lower),
    count("fortran.routines", "count", Lower),
    // hsg
    time("hsg.build_ms", "ms"),
    count("hsg.nodes", "count", Lower),
    // deptest
    time("deptest.conventional_ms", "ms"),
    count("deptest.loops_parallel", "count", Higher),
    // vrange
    time("vrange.routine_facts_ms", "ms"),
    count("vrange.facts", "count", Higher),
    // content
    time("content.body_ms", "ms"),
    time("content.lint_ms", "ms"),
    count("content.ue_refuted", "count", Higher),
    // dataflow: the analyzer
    time("dataflow.run_ms", "ms"),
    count("dataflow.nodes_processed", "count", Lower),
    count("dataflow.loops_analyzed", "count", Lower),
    count("dataflow.peak_state_size", "count", Lower),
    count("dataflow.total_summary_size", "count", Lower),
    count("dataflow.intersections", "count", Lower),
    count("dataflow.expansions", "count", Lower),
    count("dataflow.widenings", "count", Lower),
    count("dataflow.pred_terms", "count", Lower),
    // dataflow: the summary cache and panostore
    time("dataflow.routine_keys_ms", "ms"),
    count("dataflow.cache_hits", "count", Higher),
    count("dataflow.cache_misses", "count", Lower),
    count("dataflow.cache_evictions", "count", Lower),
    count("dataflow.cache_hit_ratio", "ratio", Higher),
    time("dataflow.cache_get_us", "us"),
    time("dataflow.cache_put_us", "us"),
    time("dataflow.disk_open_ms", "ms"),
    time("dataflow.disk_get_us", "us"),
    time("dataflow.disk_put_us", "us"),
    count("dataflow.disk_bytes", "bytes", Lower),
    time("dataflow.wire_encode_us", "us"),
    time("dataflow.wire_decode_us", "us"),
    // the symbolic kernel
    time("gar.intersect_us", "us"),
    time("gar.subtract_us", "us"),
    time("gar.union_us", "us"),
    time("gar.expand_us", "us"),
    count("gar.operand_pieces_mean", "count", Lower),
    time("region.intersect_us", "us"),
    time("region.subtract_us", "us"),
    time("predicate.implies_us", "us"),
    time("sym.compare_us", "us"),
    // privatize, alias
    time("privatize.judge_ms", "ms"),
    count("privatize.loops_parallel", "count", Higher),
    count("privatize.loops_serial", "count", Lower),
    time("alias.lint_ms", "ms"),
    count("alias.lints", "count", Lower),
    // codegen
    time("codegen.transform_ms", "ms"),
    count("codegen.loops_planned", "count", Higher),
    count("codegen.loops_skipped", "count", Lower),
    count("codegen.emitted_bytes", "bytes", Lower),
    // panorama (core)
    time("core.json_report_ms", "ms"),
    count("core.report_bytes", "bytes", Lower),
    time("core.driver_self_ms", "ms"),
    // interp, raceoracle
    count("interp.serial_ops", "count", Lower),
    time("interp.serial_ns_per_op", "ns"),
    ratio("interp.parallel_speedup", "ratio", Higher),
    count("interp.sim_speedup_p8", "ratio", Higher),
    time("raceoracle.validate_ms", "ms"),
    // panoramad (server)
    time("server.parse_request_us", "us"),
    ratio("server.serve_rps_jobs1", "1/s", Higher),
    ratio("server.serve_rps_jobsN", "1/s", Higher),
    ratio("server.jobs_scaling", "ratio", Higher),
    time("server.cpu_ms_per_request", "ms"),
    time("server.spawn_to_ready_ms", "ms"),
    // the harness itself
    time("trace.harness_overhead_pct", "%"),
];

/// The four workloads and the one-line reason for each.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "paper_default",
        "the paper's own 22 kernels, default options, no cache: guard- and symbol-heavy, dataflow and the symbolic kernel dominate",
    ),
    (
        "paper_allpasses",
        "same kernels with content, forall, lints and emission on: prices the forward passes, codegen and serialization; plans differ",
    ),
    (
        "synth_cold",
        "12 seeded programs of 4-64 routine pairs through a 64-entry FIFO cache: every routine misses, is inserted and evicted",
    ),
    (
        "reuse_warm",
        "24 seeded programs over a shared 56-routine library, every summary cached: parsing, hashing, cache reads and protocol dominate",
    ),
];

/// A metric, workload or span name the benchmark may print:
/// `[A-Za-z0-9_.-]+`, starting with a letter or digit, at most 64 long.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit: at most 16 of letters, digits, `_ / % . -`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Checks every name and unit of the tables against the rules above;
/// the benchmark refuses to print a name that breaks them.
pub fn check_tables() -> Result<(), String> {
    let mut seen = std::collections::BTreeSet::new();
    let metrics = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
    for (name, unit) in metrics.chain(WORKLOADS.iter().map(|(name, _)| (*name, "count"))) {
        if !valid_name(name) {
            return Err(format!("{name:?} is not a valid name"));
        }
        if !valid_unit(unit) {
            return Err(format!("{name}: {unit:?} is not a valid unit"));
        }
        if !seen.insert(name) {
            return Err(format!("{name} is defined twice"));
        }
    }
    Ok(())
}

/// Seconds one run of the driver measures (`run_seconds`).
pub const RUN_SECONDS: u64 = 28;

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> String {
    use serde::Value;
    let text = |s: &str| Value::Str(s.to_string());
    let obj = |fields: Vec<(&str, Value)>| {
        Value::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    };
    let doc = obj(vec![
        (
            "command",
            Value::Array(vec![text("bash"), text("benchmark/run.sh")]),
        ),
        ("paths", Value::Array(vec![text("benchmark")])),
        ("run_seconds", Value::UInt(RUN_SECONDS)),
        (
            "workloads",
            Value::Array(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| obj(vec![("name", text(name)), ("why", text(why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.as_str())),
                            ("bound", Value::Float(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Array(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let mut out = serde_json::to_string_pretty(&doc).expect("strings and numbers serialize");
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_validation() {
        for good in [
            "setup_s",
            "gar.intersect_us",
            "server.serve_rps_jobsN",
            "a-b",
            "9lives",
        ] {
            assert!(valid_name(good), "{good}");
        }
        let long = "x".repeat(65);
        for bad in ["", ".hidden", "_x", "has space", "µs", "a/b", long.as_str()] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("kB"));
        assert!(!valid_unit("") && !valid_unit("per second") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn tables_are_well_formed() {
        check_tables().unwrap();
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        assert_eq!(END_TO_END.len(), 10);
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert_eq!(END_TO_END[0].name, "setup_s");
    }

    /// `BENCHMARK.json` at the root is the rendering of the tables here.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            text,
            benchmark_json(),
            "stale: run `run.sh --write-expected`"
        );
        let doc = serde_json::from_str(&text).unwrap();
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!(text.len() < 64 * 1024);
        assert!((1..=60).contains(&RUN_SECONDS));
    }
}
