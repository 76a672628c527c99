//! The heart of the reproduction: every kernel's privatization must
//! succeed exactly when the techniques Table 1 marks as needed are
//! enabled, all kernels must execute, and parallel execution with the
//! derived privatization plan must match sequential execution.

use benchsuite::{fig1_kernels, kernels, Kernel};
use dataflow::{Analyzer, Options};
use interp::{ArrayData, LoopPlan, Machine, ParallelPlan};
use privatize::judge_all;

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

/// Do all the kernel's listed arrays privatize under these options?
fn privatizes(p: &Prep, k: &Kernel, opts: Options) -> bool {
    let mut az = Analyzer::new(&p.program, &p.sema, &p.hsg, opts);
    az.run();
    let verdicts = judge_all(&az.loops);
    let v = verdicts
        .iter()
        .find(|v| v.routine == k.routine && v.var == k.var && v.depth == 0)
        .unwrap_or_else(|| panic!("{}: target loop missing", k.loop_label));
    k.privatizable.iter().all(|arr| {
        v.arrays
            .iter()
            .find(|a| a.array == *arr)
            .is_some_and(|a| a.privatizable)
    })
}

#[test]
fn table1_technique_matrix() {
    for k in kernels() {
        let p = prep(k.source);
        for t1 in [false, true] {
            for t2 in [false, true] {
                for t3 in [false, true] {
                    let opts = Options {
                        symbolic: t1,
                        if_conditions: t2,
                        interprocedural: t3,
                        ..Options::default()
                    };
                    let expect = (!k.needs.t1 || t1) && (!k.needs.t2 || t2) && (!k.needs.t3 || t3);
                    let got = privatizes(&p, &k, opts);
                    assert_eq!(
                        got, expect,
                        "{}: T1={t1} T2={t2} T3={t3}: expected privatized={expect}",
                        k.loop_label
                    );
                }
            }
        }
    }
}

#[test]
fn hard_arrays_need_forall() {
    for k in kernels() {
        if k.hard.is_empty() {
            continue;
        }
        let p = prep(k.source);
        // Base analysis: hard arrays not privatizable (Table 2 status no).
        let mut az = Analyzer::new(&p.program, &p.sema, &p.hsg, Options::default());
        az.run();
        let verdicts = judge_all(&az.loops);
        let v = verdicts
            .iter()
            .find(|v| v.routine == k.routine && v.var == k.var && v.depth == 0)
            .unwrap();
        for arr in k.hard {
            let a = v.arrays.iter().find(|a| &a.array == arr).unwrap();
            assert!(
                !a.privatizable,
                "{}: {arr} should need the forall extension",
                k.loop_label
            );
        }
        // ∀-extension: privatizable.
        let mut az2 = Analyzer::new(&p.program, &p.sema, &p.hsg, Options::full());
        az2.run();
        let verdicts2 = judge_all(&az2.loops);
        let v2 = verdicts2
            .iter()
            .find(|v| v.routine == k.routine && v.var == k.var && v.depth == 0)
            .unwrap();
        for arr in k.hard {
            let a = v2.arrays.iter().find(|a| &a.array == arr).unwrap();
            assert!(
                a.privatizable,
                "{}: {arr} should privatize under the forall extension",
                k.loop_label
            );
        }
    }
}

#[test]
fn kernels_execute_sequentially() {
    for k in kernels() {
        let p = prep(k.source);
        let m = Machine::new(&p.program, &p.sema);
        let (_, stats) = m
            .run()
            .unwrap_or_else(|e| panic!("{}: runtime error {e}", k.loop_label));
        assert!(stats.ops > 1000, "{}: trivial execution", k.loop_label);
    }
    for (tag, _, _, _, src) in fig1_kernels() {
        let p = prep(src);
        let m = Machine::new(&p.program, &p.sema);
        m.run().unwrap_or_else(|e| panic!("fig{tag}: {e}"));
    }
}

#[test]
fn parallel_execution_matches_sequential() {
    for k in kernels() {
        let p = prep(k.source);
        // Derive the plan from the verdicts (full options).
        let mut az = Analyzer::new(&p.program, &p.sema, &p.hsg, Options::full());
        az.run();
        let verdicts = judge_all(&az.loops);
        let v = verdicts
            .iter()
            .find(|v| v.routine == k.routine && v.var == k.var && v.depth == 0)
            .unwrap();
        if !v.parallel_after_privatization {
            // (only the base-analysis-hard kernels could hit this; with
            // forall on everything should pass)
            panic!(
                "{}: not parallel after privatization: {:?}",
                k.loop_label, v.blockers
            );
        }
        let mut plan = ParallelPlan::new();
        plan.add(
            k.routine,
            k.var,
            v.line,
            LoopPlan {
                // FIRSTPRIVATE (copy-in) for every privatized array: the
                // conservative clause that is correct whether or not the
                // loop reads pre-loop values.
                firstprivate: v.privatized.clone(),
                private_scalars: v.private_scalars.clone(),
                copy_out: v
                    .arrays
                    .iter()
                    .filter(|a| a.privatizable && a.needs_copy_out)
                    .map(|a| a.array.clone())
                    .collect(),
                scalar_copy_out: v.private_scalars.clone(),
                sum_reductions: v.reductions.clone(),
                ..Default::default()
            },
        );

        let m = Machine::new(&p.program, &p.sema);
        let (seq_mem, _) = m.run().unwrap();
        let (par_mem, stats) = m
            .run_parallel_checked(&plan, 4)
            .unwrap_or_else(|e| panic!("{}: parallel run failed: {e}", k.loop_label));
        assert!(stats.parallel_iterations > 0, "{}", k.loop_label);
        assert_eq!(stats.declined_instances, 0, "{}", k.loop_label);

        // Compare all arrays except privatized-without-copy-out ones.
        let skip: Vec<usize> = {
            let main = p.program.routine(k.routine).unwrap();
            let table = &p.sema.tables[&main.name];
            let _ = table;
            // privatized arrays are allocated in declaration order within
            // the main frame; find their handles by replaying allocation
            // order: locals are allocated in `arrays` order.
            main.arrays
                .iter()
                .enumerate()
                .filter(|(_, (n, _))| {
                    v.privatized.contains(n)
                        && !v.arrays.iter().any(|a| &a.array == n && a.needs_copy_out)
                })
                .map(|(idx, _)| idx)
                .collect()
        };
        for (h, (s, q)) in seq_mem.arrays.iter().zip(&par_mem.arrays).enumerate() {
            if skip.contains(&h) {
                continue;
            }
            if let (ArrayData::Real(sv), ArrayData::Real(qv)) = (&s.data, &q.data) {
                assert_eq!(
                    sv, qv,
                    "{}: array handle {h} diverged under parallel execution",
                    k.loop_label
                );
            }
        }
    }
}

#[test]
fn fig1_kernels_analyze() {
    for (tag, routine, var, array, src) in fig1_kernels() {
        let p = prep(src);
        let opts = if tag == "1a" {
            Options::full()
        } else {
            Options::default()
        };
        let mut az = Analyzer::new(&p.program, &p.sema, &p.hsg, opts);
        az.run();
        let verdicts = judge_all(&az.loops);
        let v = verdicts
            .iter()
            .find(|v| v.routine == routine && v.var == var && v.depth == 0)
            .unwrap();
        let a = v
            .arrays
            .iter()
            .find(|a| a.array == array)
            .unwrap_or_else(|| panic!("fig{tag}: array {array} not analyzed"));
        assert!(a.privatizable, "fig{tag}: {array} must privatize: {v:?}");
    }
}
