//! End-to-end validation of the panogen emission backend: for every
//! benchsuite kernel and a fuzz corpus of generated programs,
//!
//! * the emitted OpenMP-annotated source must reparse to the original
//!   AST (directives are comments, nothing else moved);
//! * executing the lowered [`interp::ParallelPlan`] across threads must
//!   produce memory bitwise equal to sequential execution (modulo
//!   PRIVATE arrays without copy-out, whose post-loop values are
//!   unspecified by the clause semantics) — with every planned instance
//!   forked (`run_parallel_checked`, so the clauses are exercised on
//!   every instance), and once more as the benchmark runs it, with the
//!   fork cut-off deciding (`run_parallel`);
//! * the dynamic race oracle must never contradict a verdict the
//!   backend planned from.

use fortran::RoutineKind;
use interp::Machine;
use panorama::{driver, FuelLimits, Options};
use std::collections::BTreeSet;

#[path = "generator.rs"]
mod generator;
use generator::Gen;

/// Runs one program through analysis + emission + the execution
/// differential. `oracle` additionally cross-checks with the dynamic
/// race oracle (skipped for bulk fuzz corpora to bound runtime).
fn differential(label: &str, src: &str, opts: Options, oracle: bool) {
    let req = driver::Request {
        source: src,
        opts,
        oracle,
        limits: FuelLimits::unlimited(),
        trace_spans: false,
        emit: true,
        precision: false,
    };
    let out = driver::run(&req).unwrap_or_else(|e| panic!("{label}: analysis failed: {e}"));
    assert!(
        !out.soundness_violation(),
        "{label}: oracle contradicted a static verdict"
    );
    let t = out.transform.as_ref().expect("emit was requested");

    // The annotated source is still the same program.
    let reparsed = fortran::parse_program(&t.source).unwrap_or_else(|e| {
        panic!(
            "{label}: emitted source does not reparse: {e}\n{}",
            t.source
        )
    });
    assert_eq!(
        fortran::strip_lines(&reparsed),
        fortran::strip_lines(&out.analysis.program),
        "{label}: emitted source changed the program"
    );

    if !t.loops.iter().any(|l| l.planned) {
        return; // nothing lowered, nothing to execute
    }

    let program = &out.analysis.program;
    let machine = Machine::new(program, &out.analysis.sema);
    let (seq, _) = machine
        .run()
        .unwrap_or_else(|e| panic!("{label}: sequential run failed: {e}"));

    let main = program
        .routines
        .iter()
        .find(|r| matches!(r.kind, RoutineKind::Program))
        .expect("main program unit");
    // Main-frame arrays privatized without copy-out (PRIVATE, or
    // FIRSTPRIVATE with no LASTPRIVATE) in a planned loop: the shared
    // array is unspecified after that loop in OpenMP semantics too, so
    // only everything else must match serial.
    let skip: BTreeSet<usize> = main
        .arrays
        .iter()
        .enumerate()
        .filter(|(_, (n, _))| {
            t.loops.iter().any(|l| {
                l.planned
                    && l.routine == main.name
                    && (l.clauses.private.contains(n) || l.clauses.firstprivate.contains(n))
                    && !l.clauses.lastprivate.contains(n)
            })
        })
        .map(|(h, _)| h)
        .collect();

    let matches_serial = |par: &interp::Memory, how: &str| {
        for h in 0..main.arrays.len() {
            if skip.contains(&h) {
                continue;
            }
            assert_eq!(
                seq.arrays[h].data, par.arrays[h].data,
                "{label}: array {} (handle {h}) diverged, {how}",
                main.arrays[h].0
            );
        }
    };
    for threads in [2usize, 4] {
        let (par, stats) = machine
            .run_parallel_checked(&t.plan, threads)
            .unwrap_or_else(|e| panic!("{label}: parallel run ({threads} threads) failed: {e}"));
        assert_eq!(stats.declined_instances, 0, "{label}");
        matches_serial(&par, &format!("{threads} threads, every instance forked"));
    }
    let (par, _) = machine
        .run_parallel(&t.plan, 2)
        .unwrap_or_else(|e| panic!("{label}: cost-gated parallel run failed: {e}"));
    matches_serial(&par, "2 threads, cost-gated");
}

#[test]
fn benchsuite_kernels_transform_and_match_serial() {
    let mut planned_any = false;
    for k in benchsuite::kernels() {
        let label = format!("kernel {}", k.loop_label);
        differential(&label, k.source, Options::full(), true);
        // The target loop itself must at least be annotated.
        let req = driver::Request {
            opts: Options::full(),
            emit: true,
            ..driver::Request::new(k.source)
        };
        let out = driver::run(&req).unwrap();
        let t = out.transform.as_ref().unwrap();
        let lt = t
            .loop_transform(k.routine, k.var)
            .unwrap_or_else(|| panic!("{label}: target loop not transformed"));
        assert!(
            lt.directive.starts_with("!$OMP PARALLEL DO"),
            "{label}: {}",
            lt.directive
        );
        planned_any |= lt.planned;
    }
    assert!(
        planned_any,
        "no benchsuite target loop was lowered to a plan"
    );
}

#[test]
fn fig1_kernels_transform_and_match_serial() {
    for (tag, _, _, _, src) in benchsuite::fig1_kernels() {
        differential(&format!("fig1 {tag}"), src, Options::full(), true);
    }
}

#[test]
fn range_kernels_transform_and_match_serial() {
    for k in benchsuite::range_kernels() {
        differential(&format!("range {}", k.tag), k.source, Options::full(), true);
    }
}

#[test]
fn content_kernels_transform_and_match_serial() {
    // Under default options and with the content pass choosing clauses.
    let all_passes = Options {
        content: true,
        forall_ext: true,
        ..Options::default()
    };
    for k in benchsuite::content_kernels() {
        differential(
            &format!("content {}", k.tag),
            k.source,
            Options::default(),
            true,
        );
        differential(&format!("content+ {}", k.tag), k.source, all_passes, true);
    }
}

#[test]
fn fuzz_250_programs_transform_and_match_serial() {
    let mut planned = 0usize;
    for seed in 20_000..20_250u64 {
        let src = Gen::new(seed).program();
        differential(
            &format!("fuzz seed {seed}"),
            &src,
            Options::default(),
            false,
        );
        let req = driver::Request {
            emit: true,
            ..driver::Request::new(&src)
        };
        let out = driver::run(&req).unwrap();
        if out
            .transform
            .as_ref()
            .unwrap()
            .loops
            .iter()
            .any(|l| l.planned)
        {
            planned += 1;
        }
    }
    // The corpus must actually exercise the executor, not just skip.
    assert!(
        planned > 50,
        "only {planned}/250 fuzz programs planned a loop"
    );
}

#[test]
fn oracle_cross_checks_planned_fuzz_sample() {
    // A slice of the fuzz corpus additionally runs the race oracle, so
    // planned loops are double-checked by a dynamic race detector on top
    // of the execution differential.
    for seed in (20_000..20_250u64).step_by(10) {
        let src = Gen::new(seed).program();
        differential(
            &format!("fuzz+oracle seed {seed}"),
            &src,
            Options::default(),
            true,
        );
    }
}
