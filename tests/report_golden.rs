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
//! Any change to a verdict, a provenance line, a lint, a plan or a
//! precision event shows up here. Regenerate after an intentional change
//! with `UPDATE_GOLDEN=1 cargo test -p panorama --test report_golden`.

use panorama::{driver, Options};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};

#[path = "generator.rs"]
mod generator;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/report_digests.txt"
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
    let mut progs = Vec::new();
    for (n, k) in benchsuite::kernels().iter().enumerate() {
        let name = format!("k{n:02}_{}", k.loop_label.replace('/', "_"));
        progs.push((name, k.source.to_string()));
    }
    for (tag, _, _, _, src) in benchsuite::fig1_kernels() {
        progs.push((format!("fig{tag}"), src.to_string()));
    }
    for k in benchsuite::range_kernels() {
        progs.push((format!("range_{}", k.tag), k.source.to_string()));
    }
    progs.push((
        "range_rdemo".to_string(),
        benchsuite::range_lint_demo().to_string(),
    ));
    for k in benchsuite::content_kernels() {
        progs.push((format!("content_{}", k.tag), k.source.to_string()));
    }
    progs.push((
        "content_cdemo".to_string(),
        benchsuite::content_lint_demo().to_string(),
    ));
    for (routines, inner) in SYNTH_SHAPES {
        let src = benchsuite::synthetic_program(routines, inner);
        progs.push((format!("synth_{routines}x{inner}"), src));
    }
    for seed in 20_000..20_100u64 {
        progs.push((format!("gen_{seed}"), generator::Gen::new(seed).program()));
    }
    progs
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
        let res = driver::run(&req).unwrap_or_else(|e| panic!("{name}: analysis failed: {e}"));
        let report = serde_json::to_string_pretty(&res.json())
            .unwrap_or_else(|e| panic!("{name}: report failed to render: {e}"));
        let _ = writeln!(
            out,
            "{name} {tag} {:016x} {}",
            fnv64(report.as_bytes()),
            report.len()
        );
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

#[test]
fn reports_match_the_golden_digests() {
    let got = render();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(GOLDEN, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(GOLDEN)
        .unwrap_or_else(|e| panic!("missing golden file {GOLDEN}: {e}"));
    assert_eq!(
        got, want,
        "reports drifted from tests/golden/report_digests.txt; \
         rerun with UPDATE_GOLDEN=1 if the change is intentional"
    );
}
