//! Interpreter tests: sequential semantics, calls, gotos, the parallel
//! executor's bitwise agreement with sequential execution, and the fork
//! cut-off's decisions.

use fortran::{analyze, parse_program, walk_stmts, StmtKind};
use interp::{
    simulate_speedup, ArrayData, ExecStats, LoopPlan, Machine, Memory, ParallelPlan,
    THREAD_COST_OPS,
};

fn run(src: &str) -> Memory {
    let p = parse_program(src).unwrap();
    let sema = analyze(&p).unwrap();
    let m = Machine::new(&p, &sema);
    m.run().unwrap().0
}

fn real_array(mem: &Memory, handle: usize) -> &[f64] {
    match &mem.arrays[handle].data {
        ArrayData::Real(v) => v,
        other => panic!("expected real array, got {other:?}"),
    }
}

/// Source line of the `nth` (0-based, in source order) `DO` on `var` in
/// `routine`, at any nesting depth — plans are keyed by
/// `(routine, var, line)`.
fn do_line(p: &fortran::Program, routine: &str, var: &str, nth: usize) -> u32 {
    let mut lines = Vec::new();
    walk_stmts(&p.routine(routine).expect("routine").body, &mut |s| {
        if matches!(&s.kind, StmtKind::Do { var: v, .. } if v == var) {
            lines.push(s.line);
        }
    });
    *lines.get(nth).expect("DO statement")
}

/// The checking reference: every planned instance forks, so these tests
/// exercise the clauses on every instance.
fn run_checked(m: &Machine, plan: &ParallelPlan, threads: usize) -> (Memory, ExecStats) {
    let (mem, stats) = m.run_parallel_checked(plan, threads).unwrap();
    assert_eq!(stats.declined_instances, 0);
    (mem, stats)
}

#[test]
fn simple_arithmetic_and_do() {
    let mem = run("
      PROGRAM t
      REAL a(10)
      INTEGER i
      DO i = 1, 10
        a(i) = 2.0 * i + 1.0
      ENDDO
      END
");
    let a = real_array(&mem, 0);
    assert_eq!(a[0], 3.0);
    assert_eq!(a[9], 21.0);
}

#[test]
fn nested_do_and_2d() {
    let mem = run("
      PROGRAM t
      REAL a(3, 4)
      INTEGER i, j
      DO j = 1, 4
        DO i = 1, 3
          a(i, j) = i * 10.0 + j
        ENDDO
      ENDDO
      END
");
    let a = real_array(&mem, 0);
    // column-major: a(2,3) at (2-1) + (3-1)*3 = 7
    assert_eq!(a[7], 23.0);
}

#[test]
fn do_with_step_and_final_value() {
    let p = parse_program(
        "
      PROGRAM t
      INTEGER i, n
      REAL a(20)
      n = 0
      DO i = 1, 10, 3
        n = n + 1
        a(n) = i * 1.0
      ENDDO
      a(15) = i * 1.0
      END
",
    )
    .unwrap();
    let sema = analyze(&p).unwrap();
    let m = Machine::new(&p, &sema);
    let mem = m.run().unwrap().0;
    let a = real_array(&mem, 0);
    assert_eq!(&a[0..4], &[1.0, 4.0, 7.0, 10.0]);
    // Fortran: after the loop i = 13.
    assert_eq!(a[14], 13.0);
}

#[test]
fn if_and_logical_if() {
    let mem = run("
      PROGRAM t
      REAL a(5)
      INTEGER i
      DO i = 1, 5
        IF (i .GT. 3) THEN
          a(i) = 1.0
        ELSE
          a(i) = 2.0
        ENDIF
        IF (i .EQ. 5) a(1) = 9.0
      ENDDO
      END
");
    let a = real_array(&mem, 0);
    assert_eq!(a, &[9.0, 2.0, 2.0, 1.0, 1.0]);
}

#[test]
fn goto_skip_pattern() {
    // Fig 1(a)-style conditional skip to labeled ENDDO.
    let mem = run("
      PROGRAM t
      REAL a(10)
      INTEGER k
      DO k = 1, 10
        IF (k .GT. 5) goto 1
        a(k) = 1.0
1     ENDDO
      END
");
    let a = real_array(&mem, 0);
    assert_eq!(a[4], 1.0);
    assert_eq!(a[5], 0.0);
}

#[test]
fn backward_goto_loop() {
    let mem = run("
      PROGRAM t
      REAL a(5)
      INTEGER k
      k = 1
10    a(k) = k * 1.0
      k = k + 1
      IF (k .LE. 5) goto 10
      END
");
    let a = real_array(&mem, 0);
    assert_eq!(a, &[1.0, 2.0, 3.0, 4.0, 5.0]);
}

#[test]
fn call_with_array_and_scalar_copyback() {
    let mem = run("
      PROGRAM t
      REAL a(10)
      INTEGER n
      n = 4
      call fill(a, n)
      END
      SUBROUTINE fill(b, m)
      REAL b(*)
      INTEGER m, j
      DO j = 1, m
        b(j) = j * 1.0
      ENDDO
      m = 99
      END
");
    let a = real_array(&mem, 0);
    assert_eq!(&a[0..4], &[1.0, 2.0, 3.0, 4.0]);
}

#[test]
fn common_blocks_shared() {
    let mem = run("
      PROGRAM t
      COMMON /blk/ w
      REAL w(10)
      call setw()
      END
      SUBROUTINE setw()
      COMMON /blk/ w
      REAL w(10)
      w(3) = 7.5
      END
");
    // the COMMON array is the only allocation
    let w = real_array(&mem, 0);
    assert_eq!(w[2], 7.5);
}

#[test]
fn intrinsics() {
    let mem = run("
      PROGRAM t
      REAL a(6)
      a(1) = max(1.0, 3.5)
      a(2) = min(2, 7)
      a(3) = abs(-4.5)
      a(4) = mod(7, 3)
      a(5) = sqrt(9.0)
      a(6) = float(3) / 2.0
      END
");
    let a = real_array(&mem, 0);
    assert_eq!(a, &[3.5, 2.0, 4.5, 1.0, 3.0, 1.5]);
}

#[test]
fn parameter_constants() {
    let mem = run("
      PROGRAM t
      PARAMETER (n = 5)
      REAL a(10)
      INTEGER i
      DO i = 1, n
        a(i) = 1.0
      ENDDO
      END
");
    let a = real_array(&mem, 0);
    assert_eq!(a.iter().filter(|&&x| x == 1.0).count(), 5);
}

const OCEAN_EXEC: &str = "
      PROGRAM ocean
      REAL A(50), R(40)
      INTEGER n, m, i
      REAL x
      n = 40
      m = 50
      DO i = 1, n
        x = float(i)
        call in(A, x, m)
        call out(A, x, m, R, i)
      ENDDO
      END

      SUBROUTINE in(B, x, mm)
      REAL B(*)
      INTEGER mm, j
      REAL x
      IF (x .GT. 20.0) RETURN
      DO j = 1, mm
        B(j) = x + j
      ENDDO
      END

      SUBROUTINE out(B, x, mm, R, i)
      REAL B(*), R(*)
      INTEGER mm, j, i
      REAL x, s
      IF (x .GT. 20.0) RETURN
      s = 0.0
      DO j = 1, mm
        s = s + B(j)
      ENDDO
      R(i) = s
      END
";

#[test]
fn parallel_matches_sequential_ocean() {
    let p = parse_program(OCEAN_EXEC).unwrap();
    let sema = analyze(&p).unwrap();
    let m = Machine::new(&p, &sema);
    let (seq_mem, _) = m.run().unwrap();

    let mut plan = ParallelPlan::new();
    plan.add(
        "ocean",
        "i",
        do_line(&p, "ocean", "i", 0),
        LoopPlan {
            private_arrays: vec!["a".to_string()],
            private_scalars: vec!["x".to_string()],
            ..Default::default()
        },
    );
    for threads in [1, 2, 4] {
        let (par_mem, stats) = run_checked(&m, &plan, threads);
        assert_eq!(
            par_mem.arrays.len(),
            seq_mem.arrays.len(),
            "allocation divergence"
        );
        // R (the shared result array) must match exactly.
        for (k, (s, q)) in seq_mem.arrays.iter().zip(&par_mem.arrays).enumerate() {
            if let (ArrayData::Real(sv), ArrayData::Real(qv)) = (&s.data, &q.data) {
                // skip the privatized working array A (handle of "a"):
                // its final contents differ by design unless copied out.
                if k == 0 {
                    continue;
                }
                assert_eq!(sv, qv, "array {k} diverged with {threads} threads");
            }
        }
        // Iterations, not threads.
        assert_eq!(stats.parallel_iterations, 40);
        assert_eq!(stats.forked_instances, 1);
    }
}

#[test]
fn parallel_work_array_with_copy_out() {
    let src = "
      PROGRAM t
      REAL w(10), a(100), q
      INTEGER i, k
      DO i = 1, 100
        DO k = 1, 10
          w(k) = i * 1.0
        ENDDO
        a(i) = w(5)
      ENDDO
      q = w(3)
      a(50) = q
      END
";
    let p = parse_program(src).unwrap();
    let sema = analyze(&p).unwrap();
    let m = Machine::new(&p, &sema);
    let (seq_mem, _) = m.run().unwrap();

    let mut plan = ParallelPlan::new();
    plan.add(
        "t",
        "i",
        do_line(&p, "t", "i", 0),
        LoopPlan {
            private_arrays: vec!["w".to_string()],
            private_scalars: vec!["k".to_string()],
            copy_out: vec!["w".to_string()],
            ..Default::default()
        },
    );
    let (par_mem, _) = run_checked(&m, &plan, 3);
    for (s, q) in seq_mem.arrays.iter().zip(&par_mem.arrays) {
        assert_eq!(s.data, q.data, "copy-out must reproduce last values");
    }
}

#[test]
fn speedup_simulation_shape() {
    let p = parse_program(OCEAN_EXEC).unwrap();
    let sema = analyze(&p).unwrap();
    let m = Machine::new(&p, &sema);
    let s1 = simulate_speedup(&m, "ocean", "i", 1).unwrap();
    let s8 = simulate_speedup(&m, "ocean", "i", 8).unwrap();
    assert_eq!(s1.iterations, 40);
    assert!(s1.speedup <= 1.01);
    assert!(
        s8.speedup > 3.0 && s8.speedup <= 8.0,
        "8-way speedup out of band: {}",
        s8.speedup
    );
    assert!(s8.loop_fraction > 0.9);
}

#[test]
fn runtime_errors() {
    let p = parse_program(
        "
      PROGRAM t
      REAL a(5)
      a(9) = 1.0
      END
",
    )
    .unwrap();
    let sema = analyze(&p).unwrap();
    let m = Machine::new(&p, &sema);
    let e = m.run().unwrap_err();
    assert!(e.message.contains("out of bounds"), "{e}");

    let p2 = parse_program(
        "
      PROGRAM t
      INTEGER i
      i = 1 / 0
      END
",
    )
    .unwrap();
    let sema2 = analyze(&p2).unwrap();
    let m2 = Machine::new(&p2, &sema2);
    assert!(m2.run().is_err());
}

#[test]
fn goto_cycle_budget_guard() {
    let p = parse_program(
        "
      PROGRAM t
      INTEGER i
      i = 0
10    i = i - 1
      IF (i .LT. 1) goto 10
      END
",
    )
    .unwrap();
    let sema = analyze(&p).unwrap();
    let m = Machine::new(&p, &sema);
    let e = m.run().unwrap_err();
    assert!(e.message.contains("budget"), "{e}");
}

#[test]
fn parallel_sum_reduction() {
    let src = "
      PROGRAM t
      REAL a(100), s
      INTEGER i
      DO i = 1, 100
        a(i) = float(i)
      ENDDO
      s = 10.0
      DO i = 1, 100
        s = s + a(i)
      ENDDO
      a(1) = s
      END
";
    let p = parse_program(src).unwrap();
    let sema = analyze(&p).unwrap();
    let m = Machine::new(&p, &sema);
    let (seq, _) = m.run().unwrap();

    let mut plan = ParallelPlan::new();
    plan.add(
        "t",
        "i",
        do_line(&p, "t", "i", 1),
        LoopPlan {
            sum_reductions: vec!["s".to_string()],
            ..Default::default()
        },
    );
    // The plan is keyed by line, so only the second i loop (the sum) runs
    // in parallel; the initialization loop stays sequential.
    let (par, _) = run_checked(&m, &plan, 4);
    let seq_s = match &seq.arrays[0].data {
        ArrayData::Real(v) => v[0],
        _ => unreachable!(),
    };
    let par_s = match &par.arrays[0].data {
        ArrayData::Real(v) => v[0],
        _ => unreachable!(),
    };
    // 10 + Σ 1..100 = 5060; integers up to 2^24 are exact in f32/f64
    // arithmetic here, so equality is exact.
    assert_eq!(seq_s, 5060.0);
    assert!((par_s - seq_s).abs() < 1e-9, "par {par_s} vs seq {seq_s}");
}

#[test]
fn two_dim_array_through_call() {
    // A 2-D array passed to a callee that declares it 1-D (sequence
    // association) and fills it linearly.
    let mem = run("
      PROGRAM t
      REAL a(3, 4)
      call fill(a)
      END
      SUBROUTINE fill(b)
      REAL b(12)
      INTEGER k
      DO k = 1, 12
        b(k) = float(k)
      ENDDO
      END
");
    let a = real_array(&mem, 0);
    assert_eq!(a[0], 1.0);
    assert_eq!(a[11], 12.0);
}

#[test]
fn adjustable_array_dims_from_args() {
    // The callee's declared extent comes from another argument.
    let mem = run("
      PROGRAM t
      REAL a(6, 2)
      INTEGER n
      n = 6
      call fill(a, n)
      END
      SUBROUTINE fill(b, n)
      INTEGER n, j
      REAL b(n, 2)
      DO j = 1, n
        b(j, 2) = float(j)
      ENDDO
      END
");
    let a = real_array(&mem, 0);
    // column-major: b(j,2) at (j-1) + 1*6
    assert_eq!(a[6], 1.0);
    assert_eq!(a[11], 6.0);
}

#[test]
fn common_scalar_roundtrip() {
    let mem = run("
      PROGRAM t
      COMMON /blk/ w
      REAL w(4)
      w(1) = 1.5
      call bump()
      w(3) = w(2)
      END
      SUBROUTINE bump()
      COMMON /blk/ w
      REAL w(4)
      w(2) = w(1) * 2.0
      END
");
    let w = real_array(&mem, 0);
    assert_eq!(w, &[1.5, 3.0, 3.0, 0.0]);
}

#[test]
fn logical_values_and_not() {
    let mem = run("
      PROGRAM t
      REAL a(3)
      LOGICAL p, q
      p = .TRUE.
      q = .NOT. p
      IF (p .AND. .NOT. q) a(1) = 1.0
      IF (p .OR. q) a(2) = 2.0
      IF (q) a(3) = 3.0
      END
");
    let a = real_array(&mem, 0);
    assert_eq!(a, &[1.0, 2.0, 0.0]);
}

#[test]
fn integer_arithmetic_semantics() {
    let mem = run("
      PROGRAM t
      REAL a(4)
      INTEGER i, j
      i = 7
      j = 2
      a(1) = float(i / j)
      a(2) = float(mod(i, j))
      a(3) = float(i ** 2)
      a(4) = float(-i / j)
      END
");
    let a = real_array(&mem, 0);
    // Fortran integer division truncates toward zero.
    assert_eq!(a, &[3.0, 1.0, 49.0, -3.0]);
}

#[test]
fn nested_calls_three_deep() {
    let mem = run("
      PROGRAM t
      REAL a(5)
      call outer3(a)
      END
      SUBROUTINE outer3(x)
      REAL x(5)
      call middle(x)
      END
      SUBROUTINE middle(y)
      REAL y(5)
      call leaf(y)
      y(2) = y(1) + 1.0
      END
      SUBROUTINE leaf(z)
      REAL z(5)
      z(1) = 10.0
      END
");
    let a = real_array(&mem, 0);
    assert_eq!(a[0], 10.0);
    assert_eq!(a[1], 11.0);
}

#[test]
fn parallel_product_reduction() {
    // An INTEGER product reduction: combining thread partials additively
    // (the pre-fix behavior) gives 1 + p1 + p2 + ... instead of
    // 1 * p1 * p2 * ..., which diverges for any input with a factor > 1.
    let src = "
      PROGRAM t
      INTEGER f(12), p
      INTEGER i
      DO i = 1, 12
        f(i) = i
      ENDDO
      p = 1
      DO i = 1, 12
        p = p * f(i)
      ENDDO
      f(1) = p
      END
";
    let p = parse_program(src).unwrap();
    let sema = analyze(&p).unwrap();
    let m = Machine::new(&p, &sema);
    let (seq, _) = m.run().unwrap();
    let seq_p = match &seq.arrays[0].data {
        ArrayData::Int(v) => v[0],
        _ => unreachable!(),
    };
    assert_eq!(seq_p, 479_001_600); // 12!

    let mut plan = ParallelPlan::new();
    plan.add(
        "t",
        "i",
        do_line(&p, "t", "i", 1),
        LoopPlan {
            mul_reductions: vec!["p".to_string()],
            ..Default::default()
        },
    );
    for threads in [2, 4] {
        let (par, _) = run_checked(&m, &plan, threads);
        let par_p = match &par.arrays[0].data {
            ArrayData::Int(v) => v[0],
            _ => unreachable!(),
        };
        assert_eq!(par_p, seq_p, "{threads} threads");
    }
}

#[test]
fn plan_key_line_disambiguates_same_var_loops() {
    // Two i loops; only the second is safe to privatize w (the first
    // READS w before writing it). A (routine, var)-keyed plan would fire
    // on both and zero-scrub w under the first loop, corrupting b.
    let src = "
      PROGRAM t
      REAL w(4), b(8), c(8)
      INTEGER i, k
      w(1) = 7.0
      DO i = 1, 8
        b(i) = w(1) + i
      ENDDO
      DO i = 1, 8
        DO k = 1, 4
          w(k) = i * 2.0
        ENDDO
        c(i) = w(3)
      ENDDO
      END
";
    let p = parse_program(src).unwrap();
    let sema = analyze(&p).unwrap();
    let m = Machine::new(&p, &sema);
    let (seq, _) = m.run().unwrap();

    let mut plan = ParallelPlan::new();
    plan.add(
        "t",
        "i",
        do_line(&p, "t", "i", 1),
        LoopPlan {
            private_arrays: vec!["w".to_string()],
            private_scalars: vec!["k".to_string()],
            copy_out: vec!["w".to_string()],
            ..Default::default()
        },
    );
    let (par, stats) = run_checked(&m, &plan, 4);
    for (s, q) in seq.arrays.iter().zip(&par.arrays) {
        assert_eq!(s.data, q.data, "line-keyed plan must not touch loop 1");
    }
    assert_eq!(stats.parallel_iterations, 8);
}

#[test]
fn copy_out_of_a_downward_loop_takes_the_last_iteration() {
    // The sequentially last iteration is i = 1, run by the last chunk;
    // picking the thread with the largest index value copied out m = 12.
    let src = "
      PROGRAM t
      REAL a(10), r(2)
      INTEGER i, m
      DO i = 10, 1, -1
        m = i * 2
        a(i) = float(m)
      ENDDO
      r(1) = float(m)
      END
";
    let p = parse_program(src).unwrap();
    let sema = analyze(&p).unwrap();
    let m = Machine::new(&p, &sema);
    let (seq, _) = m.run().unwrap();
    let mut plan = ParallelPlan::new();
    plan.add(
        "t",
        "i",
        do_line(&p, "t", "i", 0),
        LoopPlan {
            private_scalars: vec!["m".to_string()],
            scalar_copy_out: vec!["m".to_string()],
            ..Default::default()
        },
    );
    for threads in [2, 3] {
        let (par, _) = run_checked(&m, &plan, threads);
        assert_eq!(par.arrays, seq.arrays, "{threads} threads");
    }
}

/// A plan for the (only) `DO j` of PROGRAM `t`, which needs no clauses.
fn plan_on_j(p: &fortran::Program) -> ParallelPlan {
    let mut plan = ParallelPlan::new();
    plan.add("t", "j", do_line(p, "t", "j", 0), LoopPlan::default());
    plan
}

/// A serial outer loop (a recurrence along `i`) that runs a parallel inner
/// loop of `inner` trips `outer` times.
fn repeated_inner_loop(outer: u64, inner: u64) -> String {
    format!(
        "
      PROGRAM t
      REAL a({inner}, 0:{outer})
      INTEGER i, j
      DO i = 1, {outer}
        DO j = 1, {inner}
          a(j, i) = a(j, i - 1) + float(i * j)
        ENDDO
      ENDDO
      END
"
    )
}

/// The cut-off's rule, restated: forking pays iff the serial time saved
/// exceeds what the threads cost.
fn fork_pays(work: u64, threads: u64) -> bool {
    work - work / threads > threads * THREAD_COST_OPS
}

#[test]
fn small_repeated_loop_forks_once_then_is_declined() {
    const N: u64 = 12;
    let p = parse_program(&repeated_inner_loop(N, 8)).unwrap();
    let sema = analyze(&p).unwrap();
    let m = Machine::new(&p, &sema);
    let plan = plan_on_j(&p);
    let (seq, seq_stats) = m.run().unwrap();

    let (gated, stats) = m.run_parallel(&plan, 2).unwrap();
    assert_eq!(
        (stats.forked_instances, stats.declined_instances),
        (1, N - 1)
    );
    assert_eq!(stats.parallel_iterations, 8);
    assert_eq!(gated.arrays, seq.arrays);
    assert_eq!(stats.ops, seq_stats.ops);

    let (checked, stats) = m.run_parallel_checked(&plan, 2).unwrap();
    assert_eq!((stats.forked_instances, stats.declined_instances), (N, 0));
    assert_eq!(stats.parallel_iterations, 8 * N);
    assert_eq!(checked.arrays, seq.arrays);
    assert_eq!(stats.ops, seq_stats.ops);
}

#[test]
fn large_repeated_loop_forks_every_time() {
    // One trip per THREAD_COST_OPS: at 2 threads any body of 5 or more
    // operations an iteration (this one has 13) is above break-even.
    const N: u64 = 3;
    let p = parse_program(&repeated_inner_loop(N, THREAD_COST_OPS)).unwrap();
    let sema = analyze(&p).unwrap();
    let m = Machine::new(&p, &sema);
    let plan = plan_on_j(&p);
    let (seq, seq_stats) = m.run().unwrap();
    let (gated, stats) = m.run_parallel(&plan, 2).unwrap();
    assert_eq!((stats.forked_instances, stats.declined_instances), (N, 0));
    assert_eq!(gated.arrays, seq.arrays);
    assert_eq!(stats.ops, seq_stats.ops);
}

/// An inner loop of `i * unit` trips under a serial `DO i = 1, outer`.
fn triangular_loop(outer: u64, unit: u64) -> String {
    format!(
        "
      PROGRAM t
      REAL a({})
      INTEGER i, j
      DO i = 1, {outer}
        DO j = 1, i * {unit}
          a(j) = a(j) + float(i)
        ENDDO
      ENDDO
      END
",
        outer * unit
    )
}

#[test]
fn growing_loop_crosses_break_even_and_decisions_repeat() {
    const N: u64 = 8;
    let ops = |src: &str| {
        let p = parse_program(src).unwrap();
        let sema = analyze(&p).unwrap();
        Machine::new(&p, &sema).run().unwrap().1.ops
    };
    // Counted operations of one inner iteration.
    let per_iter = ops(&triangular_loop(1, 2)) - ops(&triangular_loop(1, 1));
    // Instance i holds about i × THREAD_COST_OPS operations of work, and
    // break-even at 2 threads is 4 × THREAD_COST_OPS.
    let unit = THREAD_COST_OPS / per_iter;
    let forks = |threads: u64| {
        (2..=N)
            .filter(|i| fork_pays(i * unit * per_iter, threads.min(i * unit)))
            .count() as u64
    };
    assert!(0 < forks(2) && forks(2) < N - 1, "never crosses break-even");

    let p = parse_program(&triangular_loop(N, unit)).unwrap();
    let sema = analyze(&p).unwrap();
    let m = Machine::new(&p, &sema);
    let plan = plan_on_j(&p);
    let (seq, seq_stats) = m.run().unwrap();
    for threads in [2, 4] {
        let (gated, stats) = m.run_parallel(&plan, threads as usize).unwrap();
        assert_eq!(stats.forked_instances, 1 + forks(threads), "{threads}");
        assert_eq!(stats.declined_instances, N - 1 - forks(threads));
        assert_eq!(gated.arrays, seq.arrays);
        assert_eq!(stats.ops, seq_stats.ops);
    }

    // The decisions read no clock: every counter repeats exactly.
    let counters = |s: &ExecStats| {
        (
            s.ops,
            s.forked_instances,
            s.declined_instances,
            s.parallel_iterations,
        )
    };
    let first = counters(&m.run_parallel(&plan, 2).unwrap().1);
    for _ in 0..9 {
        assert_eq!(counters(&m.run_parallel(&plan, 2).unwrap().1), first);
    }

    // One thread never repays a fork: only first instances do.
    let (gated, stats) = m.run_parallel(&plan, 1).unwrap();
    assert_eq!(
        (stats.forked_instances, stats.declined_instances),
        (1, N - 1)
    );
    assert_eq!(gated.arrays, seq.arrays);
}

#[test]
fn interf_under_default_options_forks_each_callee_loop_once() {
    // The benchmark's costliest program: the outer loop is serial without
    // the ∀-extension, so its five planned loops (four in callees) are
    // reached 100 times each, with 135 to 3 900 operations of work.
    let kernels = benchsuite::kernels();
    let k = kernels
        .iter()
        .find(|k| k.loop_label == "interf/1000")
        .unwrap();
    let req = panorama::driver::Request {
        emit: true,
        ..panorama::driver::Request::new(k.source)
    };
    let out = panorama::driver::run(&req).unwrap();
    let plan = &out.transform.as_ref().unwrap().plan;
    let m = Machine::new(&out.analysis.program, &out.analysis.sema);
    let (seq, seq_stats) = m.run().unwrap();

    let (gated, stats) = m.run_parallel(plan, 2).unwrap();
    assert_eq!((stats.forked_instances, stats.declined_instances), (5, 495));
    assert_eq!(gated.arrays, seq.arrays);
    assert_eq!(stats.ops, seq_stats.ops);

    let (checked, stats) = m.run_parallel_checked(plan, 2).unwrap();
    assert_eq!((stats.forked_instances, stats.declined_instances), (500, 0));
    assert_eq!(checked.arrays, seq.arrays);
    assert_eq!(stats.ops, seq_stats.ops);
}

#[test]
fn runaway_iteration_in_a_forked_loop_exhausts_the_budget() {
    let p = parse_program(
        "
      PROGRAM t
      REAL a(10)
      INTEGER i
      DO i = 1, 10
5       a(i) = 1.0
        goto 5
      ENDDO
      END
",
    )
    .unwrap();
    let sema = analyze(&p).unwrap();
    let m = Machine::with_budget(&p, &sema, 10_000);
    let mut plan = ParallelPlan::new();
    plan.add("t", "i", do_line(&p, "t", "i", 0), LoopPlan::default());
    assert!(m.run().unwrap_err().is_budget_exceeded());
    assert!(m.run_parallel(&plan, 2).unwrap_err().is_budget_exceeded());
    assert!(m
        .run_parallel_checked(&plan, 2)
        .unwrap_err()
        .is_budget_exceeded());
}

#[test]
fn budget_covers_the_workers_together() {
    // Each of two workers needs about half of the run's operations, so
    // each stays within a budget one short of the total; their sum does
    // not, and the run must fail like the sequential one.
    let p = parse_program(&repeated_inner_loop(1, 64)).unwrap();
    let sema = analyze(&p).unwrap();
    let plan = plan_on_j(&p);
    let total = Machine::new(&p, &sema).run().unwrap().1.ops;

    let exact = Machine::with_budget(&p, &sema, total);
    assert_eq!(exact.run_parallel(&plan, 2).unwrap().1.ops, total);
    let short = Machine::with_budget(&p, &sema, total - 1);
    assert!(short.run().unwrap_err().is_budget_exceeded());
    assert!(short
        .run_parallel(&plan, 2)
        .unwrap_err()
        .is_budget_exceeded());
}

fn int_array(mem: &Memory, handle: usize) -> &[i64] {
    match &mem.arrays[handle].data {
        ArrayData::Int(v) => v,
        other => panic!("expected integer array, got {other:?}"),
    }
}

#[test]
fn integer_overflow_wraps_instead_of_panicking() {
    // i64::MIN / -1, MOD(i64::MIN, -1), -i64::MIN and ABS(i64::MIN) have no
    // i64 result: they wrap (two's complement), as the other integer
    // operations already do.
    let mem = run("
      PROGRAM t
      INTEGER a(5), i
      i = -9223372036854775807 - 1
      a(1) = i / (-1)
      a(2) = mod(i, -1)
      a(3) = -i
      a(4) = abs(i)
      a(5) = iabs(i)
      END
");
    assert_eq!(
        int_array(&mem, 0),
        &[i64::MIN, 0, i64::MIN, i64::MIN, i64::MIN]
    );

    // Zero divisors still fail, as run-time errors.
    for expr in ["i / 0", "mod(i, 0)"] {
        let p = parse_program(&format!(
            "
      PROGRAM t
      INTEGER i, j
      i = 7
      j = {expr}
      END
"
        ))
        .unwrap();
        let sema = analyze(&p).unwrap();
        let e = Machine::new(&p, &sema).run().unwrap_err();
        assert!(!e.is_budget_exceeded(), "{expr}: {e}");
    }
}

#[test]
fn extreme_do_bounds_neither_panic_nor_miscount() {
    // The index steps past i64::MAX after the last trip and wraps.
    let mem = run("
      PROGRAM t
      INTEGER a(2), i
      DO i = 9223372036854775806, 9223372036854775807
        a(1) = a(1) + 1
      ENDDO
      a(2) = i
      END
");
    assert_eq!(int_array(&mem, 0), &[2, i64::MIN]);

    // A step of i64::MIN cannot be negated, and its loop runs once.
    let mem = run("
      PROGRAM t
      INTEGER a(1), i, s
      s = -9223372036854775807 - 1
      DO i = 10, 1, s
        a(1) = a(1) + 1
      ENDDO
      END
");
    assert_eq!(int_array(&mem, 0), &[1]);

    // Steps larger than the distance the wrong way round: zero trips.
    let mem = run("
      PROGRAM t
      INTEGER a(2), i
      DO i = 2, 1, 5
        a(1) = a(1) + 1
      ENDDO
      DO i = 1, 2, -5
        a(2) = a(2) + 1
      ENDDO
      END
");
    assert_eq!(int_array(&mem, 0), &[0, 0]);

    // 2^64 trips: the count saturates and the op budget ends the loop.
    let p = parse_program(
        "
      PROGRAM t
      INTEGER i, lo, hi, n
      lo = -9223372036854775807 - 1
      hi = 9223372036854775807
      DO i = lo, hi
        n = n + 1
      ENDDO
      END
",
    )
    .unwrap();
    let sema = analyze(&p).unwrap();
    let m = Machine::with_budget(&p, &sema, 10_000);
    assert!(m.run().unwrap_err().is_budget_exceeded());
    let mut plan = ParallelPlan::new();
    plan.add("t", "i", do_line(&p, "t", "i", 0), LoopPlan::default());
    assert!(m.run_parallel(&plan, 2).unwrap_err().is_budget_exceeded());
}

#[test]
fn parameters_fold_with_their_exact_charge_and_fail_only_when_reached() {
    // The statement (1), the reference to n (1) plus its definition
    // `2 + 3` (3), and the subscript (1).
    let p = parse_program(
        "
      PROGRAM t
      PARAMETER (n = 2 + 3)
      INTEGER a(1)
      a(1) = n
      END
",
    )
    .unwrap();
    let sema = analyze(&p).unwrap();
    let (mem, stats) = Machine::new(&p, &sema).run().unwrap();
    assert_eq!((int_array(&mem, 0), stats.ops), (&[5][..], 6));

    // A PARAMETER that divides by zero fails where it is used, if it is.
    let src = |i: i64| {
        format!(
            "
      PROGRAM t
      PARAMETER (k = 1 / 0)
      INTEGER a(2), i
      i = {i}
      IF (i .GT. 0) a(1) = k
      a(2) = 1
      END
"
        )
    };
    for (i, fails) in [(0, false), (1, true)] {
        let p = parse_program(&src(i)).unwrap();
        let sema = analyze(&p).unwrap();
        let res = Machine::new(&p, &sema).run();
        assert_eq!(res.is_err(), fails, "i = {i}");
        if let Err(e) = res {
            assert!(e.message.contains("division by 0"), "{e}");
        }
    }

    // One defined through itself never finishes evaluating: the budget
    // ends the run.
    let p = parse_program(
        "
      PROGRAM t
      PARAMETER (n = m + 1, m = n)
      INTEGER a(1)
      a(1) = 0
      a(1) = n
      END
",
    )
    .unwrap();
    let sema = analyze(&p).unwrap();
    assert!(Machine::new(&p, &sema)
        .run()
        .unwrap_err()
        .is_budget_exceeded());
}
