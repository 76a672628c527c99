//! The near-zero-cost-when-off claim behind `panotrace`: with no
//! collector installed, every instrumentation site in the pipeline is a
//! single thread-local flag load, so end-to-end analysis throughput must
//! be within noise (the acceptance bar is ≤3%) of an uninstrumented
//! build. The `enabled` benchmark bounds what a traced run pays.

use benchsuite::kernels;
use criterion::{criterion_group, criterion_main, Criterion};
use panorama::{analyze_source, Options};
use std::hint::black_box;

fn suite_source() -> String {
    kernels()
        .iter()
        .map(|k| k.source)
        .collect::<Vec<_>>()
        .join("\n")
}

fn bench_trace_overhead(c: &mut Criterion) {
    let src = suite_source();
    let mut g = c.benchmark_group("trace_overhead");

    g.bench_function("disabled", |b| {
        b.iter(|| analyze_source(black_box(&src), Options::default()).unwrap())
    });

    g.bench_function("enabled", |b| {
        b.iter(|| {
            let scope = trace::CollectorScope::install(trace::Collector::new());
            let analysis = analyze_source(black_box(&src), Options::default()).unwrap();
            let collector = scope.finish().expect("collector installed");
            black_box((analysis, collector.tree().len()))
        })
    });

    g.finish();
}

criterion_group!(benches, bench_trace_overhead);
criterion_main!(benches);
