//! Soundness fuzzing: generate random well-formed Fortran programs, run
//! the whole analysis pipeline, and *execute* every verdict.
//!
//! The oracle is the interpreter: whenever the analyzer declares a loop
//! "parallel after privatization", running that loop across threads with
//! the derived privatization plan must produce results bitwise equal to
//! sequential execution. A single divergence would expose an unsound
//! verdict (a missed dependence, a wrong kill, a bad expansion). The
//! generator is bounds-safe by construction so every program also runs
//! without runtime errors.

use interp::{ArrayData, LoopPlan, Machine, ParallelPlan};
use panorama::{analyze_source, Options};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[path = "generator.rs"]
mod generator;
use generator::{Gen, ASIZE, OUTER};

/// Runs one generated program through analysis and the execution oracle.
fn check_seed(seed: u64) {
    let src = Gen::new(seed).program();
    let analysis = analyze_source(&src, Options::default())
        .unwrap_or_else(|e| panic!("seed {seed}: analysis failed: {e}\n{src}"));

    let sema = fortran::analyze(&analysis.program).unwrap();
    let machine = Machine::new(&analysis.program, &sema);
    let (seq, _) = machine
        .run()
        .unwrap_or_else(|e| panic!("seed {seed}: sequential run failed: {e}\n{src}"));

    let Some(v) = analysis.verdict("fuzz", "i") else {
        return;
    };
    if !v.parallel_after_privatization {
        return; // nothing claimed, nothing to falsify
    }
    let mut plan = ParallelPlan::new();
    plan.add(
        "fuzz",
        "i",
        v.line,
        LoopPlan {
            // Copy-in for all privatized arrays: sound regardless of
            // upward-exposed reads (panogen picks the tighter clause).
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
    for threads in [2usize, 3] {
        let (par, stats) = machine
            .run_parallel_checked(&plan, threads)
            .unwrap_or_else(|e| panic!("seed {seed}: parallel run failed: {e}\n{src}"));
        assert_eq!(stats.declined_instances, 0);
        // Arrays u,v,w allocate in declaration order (handles 0..3).
        let names = ["u", "v", "w"];
        for (h, name) in names.iter().enumerate() {
            // Privatized arrays without copy-out may legitimately differ.
            let priv_no_copyout = v.privatized.contains(&name.to_string())
                && !v
                    .arrays
                    .iter()
                    .any(|a| &a.array == name && a.needs_copy_out);
            if priv_no_copyout {
                continue;
            }
            if let (ArrayData::Real(a), ArrayData::Real(b)) =
                (&seq.arrays[h].data, &par.arrays[h].data)
            {
                assert_eq!(
                    a, b,
                    "seed {seed}: UNSOUND VERDICT — array {name} diverged with \
                     {threads} threads\nverdict: {v:?}\nprogram:\n{src}"
                );
            }
        }
    }
}

#[test]
fn fuzz_soundness_300_programs() {
    for seed in 0..300 {
        check_seed(seed);
    }
}

#[test]
fn fuzz_with_calls() {
    // A second generator shape: the outer loop calls a subroutine that
    // fills a work array with a random guard; soundness oracle as above.
    for seed in 1000..1060 {
        let mut rng = StdRng::seed_from_u64(seed);
        let guard = rng.random_range(0..20);
        let bound = rng.random_range(5..ASIZE);
        let use_guard = rng.random_bool(0.5);
        let guard_line = if use_guard {
            format!("      IF (x .GT. {guard}.0) RETURN\n")
        } else {
            String::new()
        };
        let src = format!(
            "
      PROGRAM fuzz
      REAL u({ASIZE}), v({ASIZE})
      REAL x
      INTEGER i
      DO i = 1, {OUTER}
        x = float(i)
        call fill(u, x, {bound})
        call take(v, u, x, {bound}, i)
      ENDDO
      END
      SUBROUTINE fill(b, x, m)
      REAL b(*)
      REAL x
      INTEGER m, j
{guard_line}      DO j = 1, m
        b(j) = x + float(j)
      ENDDO
      END
      SUBROUTINE take(r, b, x, m, i)
      REAL r(*), b(*)
      REAL x, s
      INTEGER m, i, j
{guard_line}      s = 0.0
      DO j = 1, m
        s = s + b(j)
      ENDDO
      r(i) = s
      END
"
        );
        let analysis =
            analyze_source(&src, Options::default()).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let v = analysis.verdict("fuzz", "i").unwrap();
        assert!(
            v.parallel_after_privatization,
            "seed {seed}: expected parallel: {v:?}"
        );
        let sema = fortran::analyze(&analysis.program).unwrap();
        let machine = Machine::new(&analysis.program, &sema);
        let (seq, _) = machine.run().unwrap();
        let mut plan = ParallelPlan::new();
        plan.add(
            "fuzz",
            "i",
            v.line,
            LoopPlan {
                firstprivate: v.privatized.clone(),
                private_scalars: v.private_scalars.clone(),
                scalar_copy_out: v.private_scalars.clone(),
                sum_reductions: v.reductions.clone(),
                ..Default::default()
            },
        );
        let (par, stats) = machine.run_parallel_checked(&plan, 3).unwrap();
        assert_eq!(stats.declined_instances, 0);
        // v (handle 1) is the shared result array.
        assert_eq!(
            seq.arrays[1].data, par.arrays[1].data,
            "seed {seed}: diverged\n{src}"
        );
    }
}
