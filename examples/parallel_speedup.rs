//! Analyze a Perfect-benchmark kernel, lower its parallel plan, execute
//! it sequentially and in parallel (real threads + simulated P-processor
//! schedule), and report the speedups.
//!
//! ```text
//! cargo run --release --example parallel_speedup [loop-label] [default]
//! ```
//!
//! e.g. `cargo run --release --example parallel_speedup ocean/270`. The
//! analysis runs with every technique on; a second argument `default`
//! leaves the ∀-extension off, as the benchmark's `paper_default` workload
//! does. `interf/1000 default` is then the probe behind
//! `interp::THREAD_COST_OPS` (DESIGN.md §3): its outer loop stays serial
//! and five small planned loops (four in callees) are reached 100 times
//! each.

use benchsuite::kernels;
use interp::{simulate_speedup, ExecStats, Machine, RuntimeError};
use panorama::{driver, Options};
use std::time::Instant;

/// Wall-clock milliseconds of the fastest of five runs, and its counters.
fn fastest<M>(run: impl Fn() -> Result<(M, ExecStats), RuntimeError>) -> (f64, ExecStats) {
    let mut best: Option<(f64, ExecStats)> = None;
    for _ in 0..5 {
        let start = Instant::now();
        let (_, stats) = run().expect("execution");
        let ms = start.elapsed().as_secs_f64() * 1e3;
        if best.as_ref().is_none_or(|(b, _)| ms < *b) {
            best = Some((ms, stats));
        }
    }
    best.expect("five runs")
}

fn main() {
    let wanted = std::env::args().nth(1);
    let opts = match std::env::args().nth(2).as_deref() {
        None => Options::full(),
        Some("default") => Options::default(),
        Some(other) => {
            eprintln!("unknown option set {other}; the only one is `default`");
            std::process::exit(2);
        }
    };
    let ks = kernels();
    let kernel = match &wanted {
        Some(label) => ks
            .iter()
            .find(|k| k.loop_label == label.as_str())
            .unwrap_or_else(|| {
                eprintln!("unknown loop label {label}; available:");
                for k in &ks {
                    eprintln!("  {}", k.loop_label);
                }
                std::process::exit(1);
            }),
        None => &ks[5], // ocean/270
    };

    println!("kernel {} ({})", kernel.loop_label, kernel.program);

    // 1. Analyze and lower the plan (every loop the backend planned — the
    //    plan the benchmark executes).
    let req = driver::Request {
        opts,
        emit: true,
        ..driver::Request::new(kernel.source)
    };
    let out = driver::run(&req).expect("analysis");
    let v = out
        .analysis
        .verdict(kernel.routine, kernel.var)
        .expect("target loop verdict");
    println!(
        "  parallel after privatization: {} (privatize arrays {:?}, scalars {:?})",
        v.parallel_after_privatization, v.privatized, v.private_scalars
    );
    if !v.parallel_after_privatization {
        println!("  blockers: {:?}", v.blockers);
    }
    let transform = out.transform.as_ref().expect("emit was requested");
    for l in transform.loops.iter().filter(|l| l.planned) {
        println!("  planned: {} (line {}) {}", l.id, l.line, l.directive);
    }

    // 2. Execute: sequentially, with the plan as the benchmark runs it
    //    (the cut-off decides which instances fork), and with every
    //    instance forked (the differential suites' checking reference).
    let machine = Machine::new(&out.analysis.program, &out.analysis.sema);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (serial_ms, serial) = fastest(|| machine.run());
    let (gated_ms, gated) = fastest(|| machine.run_parallel(&transform.plan, threads));
    let (checked_ms, checked) = fastest(|| machine.run_parallel_checked(&transform.plan, threads));
    println!(
        "  sequential: {} ops, {serial_ms:.2} ms ({:.1} ns/op)",
        serial.ops,
        serial_ms * 1e6 / serial.ops as f64
    );
    for (name, ms, s) in [
        ("threaded", gated_ms, &gated),
        ("every instance forked", checked_ms, &checked),
    ] {
        println!(
            "  {name}, {threads} threads: {ms:.2} ms (measured speedup {:.2}); \
             {} instances forked, {} declined, {} iterations on worker threads",
            serial_ms / ms,
            s.forked_instances,
            s.declined_instances,
            s.parallel_iterations
        );
    }

    // 3. Simulated P-processor speedups (the Table 1 substitute for the
    //    Alliant FX/8).
    if !v.parallel_after_privatization {
        return;
    }
    println!("  simulated speedups:");
    for p in [1usize, 2, 4, 8, 16] {
        let sim = simulate_speedup(&machine, kernel.routine, kernel.var, p).expect("simulation");
        println!(
            "    P={p:<3} speedup {:.2}  (loop fraction {:.1}%)",
            sim.speedup,
            100.0 * sim.loop_fraction
        );
    }
    println!(
        "  paper reported: {:.1} on 8 processors ({}% of sequential time)",
        kernel.paper_speedup, kernel.paper_pct_seq
    );
}
