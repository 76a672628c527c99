//! panobench — the repository's benchmark (see `benchmark/README.md`).
//!
//! ```text
//! panobench --bench-dir DIR --bin-dir DIR [--workload W] [--seed N]
//!           [--seconds S] [--trace 0|1] [--traced] [--repeat K] [--smoke]
//!           [--expected-dir DIR] [--noise SECONDS] [--write-expected]
//! ```
//!
//! `run.sh` builds the release binaries and calls this with the two
//! directories filled in. With `--workload` it measures that workload
//! and ends its standard output with one JSON line: the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
//! Without, it measures all four workloads. `--write-expected`
//! regenerates `expected/*.json` and `/BENCHMARK.json` from the tables
//! and the kernel metadata.

mod corpus;
mod e2e;
mod expect;
mod harness;
mod layers;
mod metrics;
mod noise;
mod proc;
mod report;
mod rng;
mod spans;
mod stats;

use harness::Env;
use std::path::PathBuf;
use std::process::ExitCode;

/// Run length when none is given: 30 rounds of 1.6 s plus set-ups.
const DEFAULT_SECONDS: f64 = 55.0;
const SMOKE_SECONDS: f64 = 5.0;

struct Args {
    bench_dir: PathBuf,
    bin_dir: PathBuf,
    expected_dir: Option<PathBuf>,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    traced: bool,
    repeat: Option<usize>,
    smoke: bool,
    write_expected: bool,
    noise: Option<f64>,
}

fn usage() -> String {
    "usage: run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--traced]\n\
     \x20             [--repeat K] [--smoke] [--noise SECONDS] [--expected-dir DIR]\n\
     workloads: paper_default paper_allpasses synth_cold reuse_warm"
        .to_string()
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        bench_dir: PathBuf::new(),
        bin_dir: PathBuf::new(),
        expected_dir: None,
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        traced: false,
        repeat: None,
        smoke: false,
        write_expected: false,
        noise: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .ok_or(format!("{flag} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--bench-dir" => a.bench_dir = PathBuf::from(value()?),
            "--bin-dir" => a.bin_dir = PathBuf::from(value()?),
            "--expected-dir" => a.expected_dir = Some(PathBuf::from(value()?)),
            "--workload" => a.workload = Some(value()?),
            "--seed" => {
                a.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--traced" => a.traced = true,
            "--repeat" => {
                let k: usize = value()?.parse().map_err(|_| "--repeat takes a count")?;
                if k < 2 {
                    return Err("--repeat needs at least 2 sets".to_string());
                }
                a.repeat = Some(k);
            }
            "--smoke" => a.smoke = true,
            "--write-expected" => a.write_expected = true,
            "--noise" => a.noise = Some(value()?.parse().map_err(|_| "--noise takes seconds")?),
            "-h" | "--help" => return Err(usage()),
            other => return Err(format!("unknown option {other}\n{}", usage())),
        }
    }
    if a.bench_dir.as_os_str().is_empty() {
        return Err("--bench-dir is required (run.sh passes it)".to_string());
    }
    if let Some(w) = &a.workload {
        if !metrics::WORKLOADS.iter().any(|(name, _)| name == w) {
            return Err(format!("unknown workload {w:?}\n{}", usage()));
        }
    }
    Ok(a)
}

fn write_expected(args: &Args) -> Result<(), String> {
    let dir = args.bench_dir.join("expected");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for (name, _) in metrics::WORKLOADS {
        let path = dir.join(format!("{name}.json"));
        let text = expect::derive(name)
            .expect("a workload of the table")
            .to_json();
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    let path = args.bench_dir.join("../BENCHMARK.json");
    std::fs::write(&path, metrics::benchmark_json())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

fn real_main() -> Result<bool, String> {
    if std::env::args().nth(1).as_deref() == Some("--spawner") {
        return proc::spawner_main()
            .map(|()| true)
            .map_err(|e| format!("spawner: {e}"));
    }
    // Before anything is allocated: the helper must stay small.
    let spawner = proc::Spawner::start().map_err(|e| format!("cannot start the spawner: {e}"))?;
    let args = parse_args()?;
    metrics::check_tables()?;
    if args.write_expected {
        write_expected(&args)?;
        return Ok(true);
    }
    let env = Env {
        bins: proc::Binaries::in_dir(&args.bin_dir)?,
        expected_dir: args
            .expected_dir
            .clone()
            .unwrap_or_else(|| args.bench_dir.join("expected")),
        bench_dir: args.bench_dir.clone(),
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        cpus: proc::Cpus::detect(),
        spawner: std::cell::RefCell::new(spawner),
    };
    std::fs::create_dir_all(env.out_dir())
        .map_err(|e| format!("{}: {e}", env.out_dir().display()))?;
    let seconds = args.seconds.unwrap_or(if args.smoke {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    let workloads: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => metrics::WORKLOADS.iter().map(|(name, _)| *name).collect(),
    };

    if let Some(probe_seconds) = args.noise {
        return noise::run(&env, probe_seconds);
    }
    if args.smoke {
        return report::smoke(&env, &workloads, args.seed, seconds);
    }
    if let Some(sets) = args.repeat {
        return report::repeat(&env, &workloads, args.seed, seconds, sets);
    }
    let mut ok = true;
    let mut last_line = String::new();
    for name in &workloads {
        if !args.trace {
            let result = e2e::run(&env, name, args.seed, seconds, None)?;
            report::print_e2e(&result);
            report::write_samples(&env, &result)?;
            ok &= result.tally.failed == 0;
            last_line = report::e2e_json(&result);
        }
        if args.trace || args.traced {
            let result = layers::run(&env, name, args.seed, seconds)?;
            report::print_layers(&result);
            ok &= result.tally.failed == 0;
            last_line = report::layers_json(&result);
        }
    }
    println!("{last_line}");
    Ok(ok)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("panobench: operations failed; see the reasons above");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("panobench: {e}");
            ExitCode::from(2)
        }
    }
}
