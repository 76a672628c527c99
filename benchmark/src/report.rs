//! Output: the human-readable tables, the final JSON line of the
//! driver contract, the `--repeat` agreement report and `--smoke`.

use crate::e2e::{self, E2eResult};
use crate::harness::{Env, Tally};
use crate::layers::{self, LayerResult};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::proc;
use crate::stats::{self, Estimator};
use serde::Value;
use std::process::Command;

fn print_tally(tally: &Tally) {
    println!(
        "operations attempted {} failed {}",
        tally.attempted, tally.failed
    );
    for why in &tally.reasons {
        println!("  FAILED {why}");
    }
}

pub fn print_e2e(r: &E2eResult) {
    println!(
        "== {} seed {} inputs {} :: {} rounds over {:.1} s, tracing off",
        r.workload,
        r.seed,
        r.digest,
        r.rounds,
        r.span.as_secs_f64()
    );
    println!(
        "{:<24} {:>14} {:<5} {:>6} {:<21} {:>7}   {:>12} {:>12} {:>12}",
        "metric", "value", "unit", "bound", "estimator", "samples", "q1", "median", "q3"
    );
    for (i, (m, value)) in r.metrics().enumerate() {
        let (q1, q2, q3) = e2e::describe(&r.samples[i]);
        println!(
            "{:<24} {:>14.4} {:<5} {:>6.2} {:<21} {:>7}   {:>12.4} {:>12.4} {:>12.4}",
            m.name,
            value,
            m.unit,
            m.bound,
            m.estimator.as_str(),
            r.samples[i].len(),
            q1,
            q2,
            q3
        );
    }
    println!(
        "daemon_latency_ms_tail is p{:.1} of {} requests per round",
        r.tail_percentile, r.latency_samples_per_round
    );
    print_tally(&r.tally);
}

pub fn print_layers(r: &LayerResult) {
    println!(
        "== {} seed {} inputs {} :: traced run, {} corpus passes, trace in {}",
        r.workload,
        r.seed,
        r.digest,
        r.passes,
        r.trace_path.display()
    );
    println!(
        "{:<30} {:>16} {:<6} {:>8}  kind",
        "metric", "value", "unit", "samples"
    );
    for (m, (value, samples)) in PER_LAYER.iter().zip(&r.values) {
        println!(
            "{:<30} {:>16.4} {:<6} {:>8}  {}",
            m.name,
            value,
            m.unit,
            samples,
            if m.exact { "exact" } else { "fastest" }
        );
    }
    print_tally(&r.tally);
}

/// Writes what every value of a run was estimated from to
/// `out/samples-<workload>.json`, for anyone comparing estimators.
pub fn write_samples(env: &Env, r: &E2eResult) -> Result<(), String> {
    let doc = Value::Object(
        r.metrics()
            .zip(&r.samples)
            .map(|((m, value), samples)| {
                let fields = vec![
                    ("value".to_string(), Value::Float(value)),
                    (
                        "estimator".to_string(),
                        Value::Str(m.estimator.as_str().to_string()),
                    ),
                    (
                        "samples".to_string(),
                        Value::Array(samples.iter().map(|x| Value::Float(*x)).collect()),
                    ),
                ];
                (m.name.to_string(), Value::Object(fields))
            })
            .collect(),
    );
    let path = env.out_dir().join(format!("samples-{}.json", r.workload));
    let text = serde_json::to_string(&doc).expect("numbers and strings serialize");
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn result_json(tally: &Tally, metrics: Vec<(String, Value)>) -> String {
    let doc = Value::Object(vec![
        ("correct".to_string(), Value::Bool(tally.failed == 0)),
        ("attempted".to_string(), Value::UInt(tally.attempted.max(1))),
        ("failed".to_string(), Value::UInt(tally.failed)),
        ("metrics".to_string(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&doc).expect("numbers and strings serialize")
}

fn metric_json(value: f64, unit: &str) -> Value {
    Value::Object(vec![
        ("value".to_string(), Value::Float(value)),
        ("unit".to_string(), Value::Str(unit.to_string())),
    ])
}

/// The last line of a `--trace 0` run.
pub fn e2e_json(r: &E2eResult) -> String {
    let metrics = r
        .metrics()
        .map(|(m, v)| (m.name.to_string(), metric_json(v, m.unit)))
        .collect();
    result_json(&r.tally, metrics)
}

/// The last line of a `--trace 1` run.
pub fn layers_json(r: &LayerResult) -> String {
    let metrics = PER_LAYER
        .iter()
        .zip(&r.values)
        .map(|(m, (v, _))| (m.name.to_string(), metric_json(*v, m.unit)))
        .collect();
    result_json(&r.tally, metrics)
}

/// `--repeat K`: K full sets; per metric and workload each set's value,
/// the relative spread (the interquartile spread the acceptance check
/// uses, and largest minus smallest, over the median) and pass/fail of
/// the former against the metric's bound. Written to
/// `out/agreement.json`.
pub fn repeat(
    env: &Env,
    workloads: &[&str],
    seed: u64,
    seconds: f64,
    sets: usize,
) -> Result<bool, String> {
    let mut all_ok = true;
    let mut rows = Vec::new();
    // values[w][m][set]
    let mut values: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); END_TO_END.len()]; workloads.len()];
    for set in 0..sets {
        for (w, name) in workloads.iter().enumerate() {
            let r = e2e::run(env, name, seed, seconds, None)?;
            println!("-- set {} of {sets}", set + 1);
            print_e2e(&r);
            all_ok &= r.tally.failed == 0;
            for (m, (_, v)) in r.metrics().enumerate() {
                values[w][m].push(v);
            }
        }
    }
    println!(
        "\n{:<16} {:<24} {:>9} {:>9} {:>6}  verdict",
        "workload", "metric", "range", "iqr", "bound"
    );
    for (w, name) in workloads.iter().enumerate() {
        for (m, metric) in END_TO_END.iter().enumerate() {
            let v = &values[w][m];
            let median = stats::median(v);
            let range = (stats::quantile(v, 1.0) - stats::quantile(v, 0.0)) / median;
            let iqr = stats::spread(v);
            // The acceptance rule: the interquartile spread stays within
            // the bound (one set inside a contended spell of the host
            // widens the range, not the quartiles). Set-up time is gated
            // on its median only.
            let within = iqr <= metric.bound || metric.name == "setup_s";
            all_ok &= within;
            println!(
                "{:<16} {:<24} {:>8.2}% {:>8.2}% {:>5.0}%  {}",
                name,
                metric.name,
                100.0 * range,
                100.0 * iqr,
                100.0 * metric.bound,
                if within { "ok" } else { "TOO WIDE" }
            );
            rows.push(Value::Object(vec![
                ("workload".to_string(), Value::Str(name.to_string())),
                ("metric".to_string(), Value::Str(metric.name.to_string())),
                ("unit".to_string(), Value::Str(metric.unit.to_string())),
                (
                    "estimator".to_string(),
                    Value::Str(metric.estimator.as_str().to_string()),
                ),
                (
                    "values".to_string(),
                    Value::Array(v.iter().map(|x| Value::Float(*x)).collect()),
                ),
                ("median".to_string(), Value::Float(median)),
                ("range_over_median".to_string(), Value::Float(range)),
                ("iqr_over_median".to_string(), Value::Float(iqr)),
                ("bound".to_string(), Value::Float(metric.bound)),
                ("within_bound".to_string(), Value::Bool(within)),
            ]));
        }
    }
    let doc = Value::Object(vec![
        ("sets".to_string(), Value::UInt(sets as u64)),
        ("seed".to_string(), Value::UInt(seed)),
        ("seconds_per_run".to_string(), Value::Float(seconds)),
        ("nproc".to_string(), Value::UInt(env.nproc as u64)),
        ("claim".to_string(), Value::Null),
        ("rows".to_string(), Value::Array(rows)),
    ]);
    let path = env.out_dir().join("agreement.json");
    let mut text = serde_json::to_string_pretty(&doc).expect("numbers and strings serialize");
    text.push('\n');
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(all_ok)
}

/// `--smoke`: a short run of everything. Every end-to-end metric of
/// every workload and every declared per-layer metric is emitted with a
/// unit and a sample count, exact counts repeat (checked inside the
/// traced run), and the Chrome trace passes `trace_check`.
pub fn smoke(env: &Env, workloads: &[&str], seed: u64, seconds: f64) -> Result<bool, String> {
    let mut ok = true;
    let mut complain = |what: String| {
        println!("SMOKE FAILED: {what}");
        ok = false;
    };
    for name in workloads {
        let r = e2e::run(env, name, seed, seconds, Some(3))?;
        print_e2e(&r);
        if r.tally.failed > 0 {
            complain(format!("{name}: {} operations failed", r.tally.failed));
        }
        for (i, (m, v)) in r.metrics().enumerate() {
            let enough = match (m.estimator, m.name) {
                (Estimator::Fastest, _) | (_, "daemon_peak_rss_kb") => !r.samples[i].is_empty(),
                _ => r.samples[i].len() == r.rounds,
            };
            if !(v.is_finite() && v > 0.0 && enough) {
                complain(format!(
                    "{name}: {} = {v} from {} samples",
                    m.name,
                    r.samples[i].len()
                ));
            }
        }
        let t = layers::run(env, name, seed, seconds)?;
        print_layers(&t);
        if t.tally.failed > 0 {
            complain(format!(
                "{name}: traced run: {} operations failed",
                t.tally.failed
            ));
        }
        for (m, (v, samples)) in PER_LAYER.iter().zip(&t.values) {
            if !v.is_finite() || *samples == 0 {
                complain(format!("{name}: {} = {v} from {samples} samples", m.name));
            }
        }
        let (usage, out) = proc::run_captured(
            Command::new(&env.bins.trace_check)
                .arg(&t.trace_path)
                .args([
                    "request",
                    "core.pipeline",
                    "core.driver",
                    "dataflow.run",
                    "fortran.parse",
                ]),
        )
        .map_err(|e| format!("cannot run trace_check: {e}"))?;
        print!("{}", String::from_utf8_lossy(&out));
        if !usage.exit_ok {
            complain(format!(
                "{name}: trace_check rejects {}",
                t.trace_path.display()
            ));
        }
    }
    println!("smoke {}", if ok { "ok" } else { "FAILED" });
    Ok(ok)
}
