//! Golden analysis reports: for the 22 paper programs, `exec_golden`'s four
//! `benchsuite::synthetic_program` shapes and a hundred generated programs,
//! the report `panorama --json` prints is pinned at
//! `tests/golden/report_digests.txt` as an FNV-64 digest and a byte length
//! per program and profile. The requests account precision, so the
//! `"precision"` section is covered too. Profiles:
//!
//! * `default` — default options;
//! * `forall+content` — the ∀-extension and the array-content pass, with
//!   the emission backend (the `"transform"` section).
//!
//! `tests/golden/budget_digests.txt` pins the 22 paper programs' reports
//! (default profile, precision accounted) under four budget limits:
//! `--range-budget 100`, `--range-budget 1000`, `--fuel 50` and
//! `--fuel 200`. Each limit degrades the reports differently from the
//! others and from the unlimited run, so a change to what the symbolic
//! kernel charges the range oracle's budget or the propagation fuel
//! shows up there.
//!
//! Any change to a verdict, a provenance line, a lint, a plan or a
//! precision event shows up here. Regenerate after an intentional change
//! with `UPDATE_GOLDEN=1 cargo test -p panorama --test report_golden`.

use panorama::{driver, FuelLimits, Options};
use std::sync::atomic::{AtomicUsize, Ordering};

#[path = "generator.rs"]
mod generator;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/report_digests.txt"
);

const BUDGET_GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/budget_digests.txt"
);

/// `exec_golden`'s synthetic shapes: `(n_routines, inner_size)`.
const SYNTH_SHAPES: [(usize, usize); 4] = [(2, 16), (4, 24), (8, 32), (12, 48)];

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The programs, named like the benchmark's corpus.
fn programs() -> Vec<(String, String)> {
    let mut progs: Vec<(String, String)> = benchsuite::paper_programs()
        .into_iter()
        .map(|(name, src)| (name, src.to_string()))
        .collect();
    for (routines, inner) in SYNTH_SHAPES {
        let src = benchsuite::synthetic_program(routines, inner);
        progs.push((format!("synth_{routines}x{inner}"), src));
    }
    for seed in 20_000..20_100u64 {
        progs.push((format!("gen_{seed}"), generator::Gen::new(seed).program()));
    }
    progs
}

/// `name tag digest bytes` for the `--json` report of one request.
fn digest_line(name: &str, tag: &str, req: &driver::Request<'_>) -> String {
    let res = driver::run(req).unwrap_or_else(|e| panic!("{name}: analysis failed: {e}"));
    let report = serde_json::to_string_pretty(&res.json())
        .unwrap_or_else(|e| panic!("{name}: report failed to render: {e}"));
    format!(
        "{name} {tag} {:016x} {}\n",
        fnv64(report.as_bytes()),
        report.len()
    )
}

/// One line per profile: `name profile digest bytes`.
fn lines(name: &str, source: &str) -> String {
    let profiles = [
        ("default", Options::default(), false),
        (
            "forall+content",
            Options {
                forall_ext: true,
                content: true,
                ..Options::default()
            },
            true,
        ),
    ];
    let mut out = String::new();
    for (tag, opts, emit) in profiles {
        let req = driver::Request {
            opts,
            emit,
            precision: true,
            ..driver::Request::new(source)
        };
        out.push_str(&digest_line(name, tag, &req));
    }
    out
}

/// Every program's lines, in corpus order; the programs are spread over
/// the host's CPUs.
fn render() -> String {
    let progs = programs();
    let next = AtomicUsize::new(0);
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
    let mut done: Vec<(usize, String)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        let Some((name, src)) = progs.get(k) else {
                            return done;
                        };
                        done.push((k, lines(name, src)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("a program panicked"))
            .collect()
    });
    done.sort_unstable_by_key(|(k, _)| *k);
    done.into_iter().map(|(_, text)| text).collect()
}

/// The budget-limited lines: every paper program under every limit.
fn render_budgets() -> String {
    let limits = [
        (
            "range-budget=100",
            FuelLimits {
                range_budget: Some(100),
                ..FuelLimits::unlimited()
            },
        ),
        (
            "range-budget=1000",
            FuelLimits {
                range_budget: Some(1000),
                ..FuelLimits::unlimited()
            },
        ),
        (
            "fuel=50",
            FuelLimits {
                steps: Some(50),
                ..FuelLimits::unlimited()
            },
        ),
        (
            "fuel=200",
            FuelLimits {
                steps: Some(200),
                ..FuelLimits::unlimited()
            },
        ),
    ];
    let mut out = String::new();
    for (name, src) in benchsuite::paper_programs() {
        for (tag, limits) in limits {
            let req = driver::Request {
                limits,
                precision: true,
                ..driver::Request::new(src)
            };
            out.push_str(&digest_line(&name, tag, &req));
        }
    }
    out
}

/// Compares `got` with the golden at `path`, or rewrites it under
/// `UPDATE_GOLDEN`.
fn check_golden(path: &str, got: &str) {
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(path, got).unwrap();
        return;
    }
    let want =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("missing golden file {path}: {e}"));
    assert_eq!(
        got, want,
        "reports drifted from {path}; \
         rerun with UPDATE_GOLDEN=1 if the change is intentional"
    );
}

#[test]
fn reports_match_the_golden_digests() {
    check_golden(GOLDEN, &render());
}

#[test]
fn budget_limited_reports_match_the_golden_digests() {
    check_golden(BUDGET_GOLDEN, &render_budgets());
}
