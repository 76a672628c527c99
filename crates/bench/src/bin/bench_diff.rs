//! `bench_diff` — pins a same-run ratio between two criterion benches.
//!
//! ```text
//! bench_diff ratio INPUT NUM DEN [--max RATIO]
//!     Fail (exit 1) when INPUT's bench NUM is more than RATIO times
//!     its bench DEN (default 1.10). Same-run ratios are
//!     machine-independent; this is how CI pins the ledger/trace
//!     disabled-path overhead.
//! ```
//!
//! INPUT is raw criterion-shim output (`bench NAME: median T per iter
//! (N samples)` lines, as emitted by `cargo bench`). Absolute numbers
//! and trajectories are panobench's job (`bash benchmark/run.sh`).

use std::collections::BTreeMap;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!("usage: bench_diff ratio INPUT NUM DEN [--max RATIO]");
    std::process::exit(2);
}

/// Parses one criterion-shim output line,
/// `bench NAME: median 14.776 ms per iter (20 samples)`, into the bench
/// name and its median in nanoseconds.
fn parse_criterion_line(line: &str) -> Option<(String, u64)> {
    let rest = line.trim().strip_prefix("bench ")?;
    let (name, rest) = rest.split_once(": median ")?;
    let (time, rest) = rest.split_once(" per iter (")?;
    let _samples: u64 = rest.strip_suffix(" samples)")?.trim().parse().ok()?;
    let (value, unit) = time.trim().split_once(' ')?;
    let value: f64 = value.parse().ok()?;
    let scale = match unit {
        "ns" => 1.0,
        "µs" | "us" => 1e3,
        "ms" => 1e6,
        "s" => 1e9,
        _ => return None,
    };
    Some((name.to_string(), (value * scale).round() as u64))
}

/// Loads criterion output into a name → median-nanoseconds map.
fn load(path: &str) -> Result<BTreeMap<String, u64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let out: BTreeMap<String, u64> = text.lines().filter_map(parse_criterion_line).collect();
    if out.is_empty() {
        return Err(format!("{path}: no criterion bench lines"));
    }
    Ok(out)
}

fn flag_value(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let pos = args.iter().position(|a| a == flag)?;
    if pos + 1 >= args.len() {
        eprintln!("{flag} needs a value");
        usage();
    }
    let value = args.remove(pos + 1);
    args.remove(pos);
    Some(value)
}

fn ratio(path: &str, num: &str, den: &str, max: f64) -> Result<bool, String> {
    let benches = load(path)?;
    let median = |name: &str| {
        benches
            .get(name)
            .copied()
            .ok_or_else(|| format!("{path}: no bench named {name}"))
    };
    let (n, d) = (median(num)?, median(den)?);
    let r = n as f64 / d.max(1) as f64;
    let ok = r <= max;
    println!(
        "bench_diff: {num} / {den} = {n} / {d} ns = {r:.3}x (max {max:.3}x) {}",
        if ok { "ok" } else { "EXCEEDED" }
    );
    Ok(ok)
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) != Some("ratio") {
        usage();
    }
    args.remove(0);
    let max =
        flag_value(&mut args, "--max").map_or(1.10, |v| v.parse().unwrap_or_else(|_| usage()));
    let [input, num, den] = args.as_slice() else {
        usage();
    };
    match ratio(input, num, den, max) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench_diff: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_criterion_lines() {
        let (name, median_ns) = parse_criterion_line(
            "bench ledger_overhead/disabled: median 14.776 ms per iter (20 samples)",
        )
        .unwrap();
        assert_eq!(name, "ledger_overhead/disabled");
        assert_eq!(median_ns, 14_776_000);
        let (_, us) =
            parse_criterion_line("bench x: median 1.500 µs per iter (3 samples)").unwrap();
        assert_eq!(us, 1_500);
        let (_, s) = parse_criterion_line("bench x: median 2.000 s per iter (1 samples)").unwrap();
        assert_eq!(s, 2_000_000_000);
        assert!(parse_criterion_line("not a bench line").is_none());
        assert!(parse_criterion_line("bench x: no samples (closure never called iter)").is_none());
    }
}
