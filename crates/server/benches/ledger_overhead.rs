//! The near-zero-cost-when-off claim behind `panoledger`: with no
//! ledger installed, every `ledger::record` site in the pipeline is two
//! thread-local flag loads and the site closure never runs, so
//! end-to-end analysis throughput must be within noise (the same ≤3%
//! acceptance bar as `trace_overhead`) of a build without the
//! accounting. The `enabled` benchmark bounds what an accounted run
//! pays, and `report` adds the full `PrecisionReport` aggregation a
//! `--precision-report` run performs.

use benchsuite::kernels;
use criterion::{criterion_group, criterion_main, Criterion};
use panorama::{analyze_source, driver, Options};
use std::hint::black_box;
use trace::ledger::{Ledger, LedgerScope};

fn suite_source() -> String {
    kernels()
        .iter()
        .map(|k| k.source)
        .collect::<Vec<_>>()
        .join("\n")
}

fn bench_ledger_overhead(c: &mut Criterion) {
    let src = suite_source();
    let mut g = c.benchmark_group("ledger_overhead");

    g.bench_function("disabled", |b| {
        b.iter(|| analyze_source(black_box(&src), Options::default()).unwrap())
    });

    g.bench_function("enabled", |b| {
        b.iter(|| {
            let scope = LedgerScope::install(Ledger::new());
            let analysis = analyze_source(black_box(&src), Options::default()).unwrap();
            let ledger = scope.finish().expect("ledger installed");
            black_box((analysis, ledger.events().len()))
        })
    });

    g.bench_function("report", |b| {
        b.iter(|| {
            let req = driver::Request {
                precision: true,
                ..driver::Request::new(black_box(&src))
            };
            let out = driver::run(&req).unwrap();
            black_box(out.precision.expect("precision report").events_total())
        })
    });

    g.finish();
}

criterion_group!(benches, bench_ledger_overhead);
criterion_main!(benches);
