//! The array-content suite: the guarded kernel must flip serial →
//! parallel with `--content` on (with `content_refute` provenance), the
//! full-definition kernel must demote FIRSTPRIVATE → PRIVATE in the
//! emitted clauses AND execute bitwise-identically to the sequential
//! run under the demoted plan, and the negative twin must not flip.
//! Every flip is cross-validated by the dynamic race oracle.

use benchsuite::{content_kernels, ContentKernel};
use dataflow::{Analyzer, Options};
use interp::Machine;
use privatize::{judge_all, LoopVerdict};

struct Prep {
    program: fortran::Program,
    sema: fortran::ProgramSema,
    hsg: hsg::Hsg,
}

fn prep(src: &str) -> Prep {
    let program = fortran::parse_program(src).unwrap();
    let sema = fortran::analyze(&program).unwrap();
    let hsg = hsg::build_hsg(&program).unwrap();
    Prep { program, sema, hsg }
}

fn content_opts() -> Options {
    Options {
        content: true,
        ..Options::default()
    }
}

fn judge(p: &Prep, k: &ContentKernel, opts: Options) -> LoopVerdict {
    let mut az = Analyzer::new(&p.program, &p.sema, &p.hsg, opts);
    az.run();
    judge_all(&az.loops)
        .into_iter()
        .find(|v| v.routine == k.routine && v.var == k.var && v.depth == 0)
        .unwrap_or_else(|| panic!("{}: target loop missing", k.tag))
}

#[test]
fn content_pass_flips_only_the_flip_kernels() {
    for k in content_kernels() {
        let p = prep(k.source);
        let off = judge(&p, &k, Options::default());
        let on = judge(&p, &k, content_opts());
        if k.flips {
            assert!(
                !off.parallel_as_is && !off.parallel_after_privatization,
                "{}: expected serial with content off, got parallel",
                k.tag
            );
            assert!(
                on.parallel_as_is || on.parallel_after_privatization,
                "{}: expected parallel with content on, got {:?}",
                k.tag,
                on.blockers
            );
            for arr in k.privatized {
                assert!(
                    on.privatized.iter().any(|a| a == arr),
                    "{}: array {arr} not privatized",
                    k.tag
                );
            }
            assert!(
                on.provenance.iter().any(|e| e.op == "content_refute"),
                "{}: no content_refute provenance in {:?}",
                k.tag,
                on.provenance
            );
        } else {
            // One-directional guarantee: the pass may only add parallel
            // loops, never take one away.
            assert_eq!(
                off.parallel_as_is || off.parallel_after_privatization,
                on.parallel_as_is || on.parallel_after_privatization,
                "{}: content toggled a non-flip kernel",
                k.tag
            );
        }
    }
}

#[test]
fn negative_twin_keeps_its_ue() {
    // ckc reads under a different guard than it writes; the refutation
    // must not fire and the loop must stay serial even with content on.
    let k = content_kernels()
        .into_iter()
        .find(|k| k.tag == "ckc")
        .unwrap();
    let p = prep(k.source);
    let on = judge(&p, &k, content_opts());
    assert!(
        !on.parallel_as_is && !on.parallel_after_privatization,
        "ckc: mismatched guards must not be refuted"
    );
    assert!(
        on.provenance.iter().all(|e| e.op != "content_refute"),
        "ckc: unexpected content_refute in {:?}",
        on.provenance
    );
}

#[test]
fn content_flips_pass_the_race_oracle() {
    for k in content_kernels().into_iter().filter(|k| k.flips) {
        let p = prep(k.source);
        let mut az = Analyzer::new(&p.program, &p.sema, &p.hsg, content_opts());
        az.run();
        let verdicts = judge_all(&az.loops);
        let report = raceoracle::validate(&p.program, &p.sema, &verdicts);
        assert_eq!(
            report.soundness_violations, 0,
            "{}: race oracle violations: {:?}",
            k.tag, report.loops
        );
        assert!(report.confirmed > 0, "{}: nothing confirmed", k.tag);
    }
}

/// The FIRSTPRIVATE → PRIVATE demotion on ckb, end to end: clause
/// shape, executable plan, and bitwise-identical threaded execution.
#[test]
fn content_demotes_firstprivate_to_private() {
    let k = content_kernels()
        .into_iter()
        .find(|k| k.tag == "ckb")
        .unwrap();
    let p = prep(k.source);

    let transform = |opts: Options| {
        let mut az = Analyzer::new(&p.program, &p.sema, &p.hsg, opts);
        az.run();
        let verdicts = judge_all(&az.loops);
        let (loops, _, _) = az.finish();
        codegen::transform(&p.program, &p.sema, &loops, &verdicts)
    };

    // Baseline: w is live after the loop and the analysis cannot prove
    // full definition, so the copy is seeded (FIRSTPRIVATE LASTPRIVATE).
    let off = transform(Options::default());
    let lt = off.loop_transform(k.routine, k.var).expect("transformed");
    assert!(lt.clauses.firstprivate.contains(&"w".to_string()), "{lt:?}");
    assert!(lt.clauses.lastprivate.contains(&"w".to_string()), "{lt:?}");

    // With the content pass: full definition proved, copy-in demoted.
    let on = transform(content_opts());
    let lt = on.loop_transform(k.routine, k.var).expect("transformed");
    assert!(
        !lt.clauses.firstprivate.contains(&"w".to_string()),
        "content must demote the copy-in: {lt:?}"
    );
    assert!(lt.clauses.lastprivate.contains(&"w".to_string()), "{lt:?}");
    assert!(lt.planned, "{:?}", lt.plan_note);
    assert!(
        lt.provenance
            .iter()
            .any(|e| e.op == "clause" && e.subject == "w" && e.result == "LASTPRIVATE"),
        "{:?}",
        lt.provenance
    );

    // The demoted plan zero-scrubs w per thread; execution must still be
    // bitwise-identical to sequential because every element is written
    // before it is read, every iteration.
    let m = Machine::new(&p.program, &p.sema);
    let (seq_mem, _) = m.run().unwrap();
    for threads in [2, 4] {
        let (par_mem, stats) = m.run_parallel_checked(&on.plan, threads).unwrap();
        for (h, (s, q)) in seq_mem.arrays.iter().zip(&par_mem.arrays).enumerate() {
            assert_eq!(s.data, q.data, "array {h} diverged with {threads} threads");
        }
        assert!(stats.parallel_iterations > 0);
        assert_eq!(stats.declined_instances, 0);
    }

    // And the demoted verdict still survives the race oracle.
    let mut az = Analyzer::new(&p.program, &p.sema, &p.hsg, content_opts());
    az.run();
    let verdicts = judge_all(&az.loops);
    let report = raceoracle::validate(&p.program, &p.sema, &verdicts);
    assert_eq!(report.soundness_violations, 0, "{:?}", report.loops);
}
