//! Telemetry scopes own their thread (DESIGN.md §4f): requests that
//! run concurrently on different threads each get exactly their own
//! precision ledger and span tree, whatever the neighbours install.

use panorama::{driver, FuelLimits};
use std::sync::Barrier;
use trace::ledger::{Ledger, LedgerScope};
use trace::{Collector, CollectorScope, SpanNode};

const THREADS: usize = 8;

/// The rendered precision report of a fuel-starved run.
fn starved_report(src: &str) -> String {
    let req = driver::Request {
        precision: true,
        limits: FuelLimits {
            steps: Some(1),
            ..FuelLimits::unlimited()
        },
        ..driver::Request::new(src)
    };
    let out = driver::run(&req).expect("analysis failed");
    out.precision.expect("precision requested").render()
}

/// The span names of a traced full-budget run, in pre-order.
fn traced_span_names(src: &str) -> Vec<String> {
    fn walk(nodes: &[SpanNode], out: &mut Vec<String>) {
        for n in nodes {
            out.push(n.name.clone());
            walk(&n.children, out);
        }
    }
    let scope = CollectorScope::install(Collector::new());
    let out = driver::run(&driver::Request::new(src)).expect("analysis failed");
    assert!(out.precision.is_none());
    let mut names = Vec::new();
    walk(
        &scope.finish().expect("collector installed").tree(),
        &mut names,
    );
    names
}

#[test]
fn concurrent_requests_own_their_telemetry() {
    let kernels = &benchsuite::kernels()[..];
    let reports: Vec<String> = kernels.iter().map(|k| starved_report(k.source)).collect();
    let spans: Vec<Vec<String>> = kernels
        .iter()
        .map(|k| traced_span_names(k.source))
        .collect();
    assert!(
        reports.iter().any(|r| r.contains("[fuel_widen]")),
        "starvation recorded nothing — the comparison below has no teeth"
    );

    // The spawning thread holds a ledger and a collector of its own the
    // whole time: they must neither switch the workers' telemetry on or
    // off nor receive any of it.
    let bystander_ledger = LedgerScope::install(Ledger::new());
    let bystander_collector = CollectorScope::install(Collector::new());
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (barrier, reports, spans) = (&barrier, &reports, &spans);
            s.spawn(move || {
                barrier.wait();
                for (i, k) in kernels.iter().enumerate() {
                    if t % 2 == 0 {
                        let got = starved_report(k.source);
                        assert_eq!(got, reports[i], "thread {t}: {}", k.loop_label);
                    } else {
                        let got = traced_span_names(k.source);
                        assert_eq!(got, spans[i], "thread {t}: {}", k.loop_label);
                    }
                }
            });
        }
    });
    let ledger = bystander_ledger.finish().expect("ledger installed");
    assert!(ledger.events().is_empty(), "{:?}", ledger.events());
    let collector = bystander_collector.finish().expect("collector installed");
    assert!(collector.is_empty(), "{:?}", collector.tree());
}
