//! Workspace-level integration tests: the whole pipeline on multi-routine
//! programs, cross-checking the analyzer against actual interpretation.

use panorama::{analyze_source, driver, Options};

#[test]
fn multi_routine_program_full_pipeline() {
    let src = "
      PROGRAM main
      REAL grid(500), tmp(50), out(100)
      INTEGER it, k, niter, m
      niter = 100
      m = 40
      DO k = 1, 500
        grid(k) = float(k) * 0.01
      ENDDO
      DO it = 1, niter
        call relax(tmp, grid, m, it)
        call reduce(out, tmp, m, it)
      ENDDO
      END

      SUBROUTINE relax(t, g, m, it)
      REAL t(*), g(*)
      INTEGER m, it, k
      DO k = 1, m
        t(k) = g(k) + g(k + 1) + float(it)
      ENDDO
      END

      SUBROUTINE reduce(o, t, m, it)
      REAL o(*), t(*)
      REAL s
      INTEGER m, it, k
      s = 0.0
      DO k = 1, m
        s = s + t(k)
      ENDDO
      o(it) = s
      END
";
    let a = analyze_source(src, Options::default()).unwrap();
    // the it loop: tmp is a privatizable work array.
    let v = a.verdict("main", "it").unwrap();
    assert!(v.parallel_after_privatization, "{:?}", v.blockers);
    assert!(v.privatized.contains(&"tmp".to_string()));
    // grid is read-only inside the loop: no deps.
    let grid = v.arrays.iter().find(|x| x.array == "grid").unwrap();
    assert!(!grid.flow_dep && !grid.output_dep && !grid.anti_dep);
    // the initialization loop is parallel as-is.
    let init = a.verdict("main", "k").unwrap();
    assert!(init.parallel_as_is);
}

#[test]
fn verdicts_agree_with_execution_semantics() {
    // If the analyzer says the loop is parallel after privatization, then
    // running it with the derived plan must give bit-identical results.
    let src = "
      PROGRAM t
      REAL w(20), acc(200)
      INTEGER i, k, n
      n = 200
      DO i = 1, n
        DO k = 1, 20
          w(k) = float(i) / float(k)
        ENDDO
        acc(i) = w(1) + w(20) * 2.0
      ENDDO
      END
";
    let a = analyze_source(src, Options::default()).unwrap();
    let v = a.verdict("t", "i").unwrap();
    assert!(v.parallel_after_privatization);

    let sema = fortran::analyze(&a.program).unwrap();
    let m = interp::Machine::new(&a.program, &sema);
    let (seq, _) = m.run().unwrap();

    let mut plan = interp::ParallelPlan::new();
    plan.add(
        "t",
        "i",
        v.line,
        interp::LoopPlan {
            firstprivate: v.privatized.clone(),
            private_scalars: v.private_scalars.clone(),
            scalar_copy_out: v.private_scalars.clone(),
            sum_reductions: v.reductions.clone(),
            ..Default::default()
        },
    );
    let (par, stats) = m.run_parallel_checked(&plan, 3).unwrap();
    assert_eq!(stats.declined_instances, 0);
    // acc (handle 1: w is declared first) must agree.
    assert_eq!(seq.arrays[1].data, par.arrays[1].data);
}

#[test]
fn nested_loop_verdicts_both_levels() {
    let src = "
      PROGRAM t
      REAL a(100, 100)
      INTEGER i, j
      DO i = 1, 100
        DO j = 1, 100
          a(j, i) = float(i + j)
        ENDDO
      ENDDO
      END
";
    let a = analyze_source(src, Options::default()).unwrap();
    let outer = a.verdict("t", "i").unwrap();
    let inner = a.verdict("t", "j").unwrap();
    // The outer loop must privatize the inner index j (a written scalar),
    // but needs nothing else; the inner loop is parallel outright.
    assert!(outer.parallel_after_privatization, "{outer:?}");
    assert!(outer.privatized.is_empty(), "{outer:?}");
    assert_eq!(outer.private_scalars, vec!["j".to_string()]);
    assert!(inner.parallel_as_is, "{inner:?}");
}

#[test]
fn trace_reproduces_fig5_structure() {
    // The Fig 1(b)/Fig 5 kernel traced: the trace must show the guarded
    // A(jmax) UE piece and the (jlow:jup) mod piece.
    let src = "
      PROGRAM fig1b
      REAL a(600)
      REAL q
      LOGICAL p
      INTEGER i, j, jlow, jup, jmax
      DO i = 1, 4
        DO j = jlow, jup
          a(j) = float(i + j)
        ENDDO
        IF (.NOT. p) THEN
          a(jmax) = float(i)
        ENDIF
        DO j = jlow, jup
          q = a(j) + a(jmax)
        ENDDO
      ENDDO
      END
";
    let a = analyze_source(
        src,
        Options {
            trace: true,
            ..Options::default()
        },
    )
    .unwrap();
    let text = a.trace.join("\n");
    assert!(text.contains("ue_in[a]"), "trace missing UE lines:\n{text}");
    assert!(text.contains("mod_in[a]"));
    assert!(text.contains("jmax"));
    assert!(text.contains("jlow"));
}

#[test]
fn goto_heavy_program_survives() {
    let src = "
      PROGRAM spaghetti
      REAL a(50)
      INTEGER i, k
      k = 1
5     IF (k .GT. 50) goto 99
      a(k) = float(k)
      k = k + 1
      goto 5
99    CONTINUE
      DO i = 1, 50
        a(i) = a(i) + 1.0
      ENDDO
      END
";
    let a = analyze_source(src, Options::default()).unwrap();
    // the backward-goto cycle condenses; the DO loop still analyzes —
    // conservatively serial or parallel, but the pipeline must not fail.
    assert_eq!(a.verdicts.len(), 1);
    // the DO loop itself has a(i) = a(i) + 1: per-element, no carried dep.
    let v = a.verdict("spaghetti", "i").unwrap();
    assert!(v.parallel_as_is, "{v:?}");
}

#[test]
fn two_dim_regions_flow_through() {
    let src = "
      PROGRAM t
      REAL u(64, 64), w(64, 64)
      INTEGER i, j, it
      DO it = 1, 10
        DO j = 1, 64
          DO i = 1, 64
            w(i, j) = float(i + j + it)
          ENDDO
        ENDDO
        DO j = 1, 64
          DO i = 1, 64
            u(i, j) = w(i, j) * 0.5
          ENDDO
        ENDDO
      ENDDO
      END
";
    let a = analyze_source(src, Options::default()).unwrap();
    let v = a.verdict("t", "it").unwrap();
    let w = v.arrays.iter().find(|x| x.array == "w").unwrap();
    assert!(w.privatizable, "2-D work array must privatize: {v:?}");
    assert!(v.parallel_after_privatization);
}

/// Programs whose relations, subscripts, loop bounds or constants
/// overflow `i64` when normalized: `i - n` with `n = i64::MIN`, the region
/// validity guard of `a(i * i64::MAX)`, the ELSE guard `-e - 1 < 0` of
/// `e < 0` with an `i64::MIN` coefficient, the bounds of what survives
/// subtracting `a(i + i64::MAX)` in the array-content pass, the negation
/// of an `i64::MIN` coefficient in a subscript and in a relation, the
/// expansion bound `i - step` of a loop stepping by `i64::MIN`, and
/// `i64::MIN / -1` (and `-i64::MIN`) in a subscript, a scalar's value
/// range and a PARAMETER. Each used to panic the analyzer.
const OVERFLOWING: [(&str, &str); 17] = [
    (
        "eq_min",
        "
      PROGRAM t
      INTEGER n, i
      REAL a(10)
      n = -9223372036854775807 - 1
      DO i = 1, 10
        IF (i .EQ. n) THEN
          a(i) = 1.0
        ENDIF
      ENDDO
      END
",
    ),
    (
        "ne_min",
        "
      PROGRAM t
      INTEGER i
      REAL a(10)
      DO i = 1, 10
        IF (i .NE. -9223372036854775807 - 1) THEN
          a(i) = 1.0
        ENDIF
      ENDDO
      END
",
    ),
    (
        "mul_max",
        "
      PROGRAM t
      INTEGER i
      REAL a(10)
      DO i = 1, 10
        a(i * 9223372036854775807) = 1.0
      ENDDO
      END
",
    ),
    (
        "else_of_min",
        "
      PROGRAM t
      INTEGER i
      REAL a(10)
      DO i = 1, 10
        IF (i * (-9223372036854775807 - 1) .LT. 0) THEN
          a(i) = 1.0
        ELSE
          a(i) = 2.0
        ENDIF
      ENDDO
      END
",
    ),
    (
        "subtract_max",
        "
      PROGRAM t
      INTEGER i
      REAL a(10)
      DO i = 1, 10
        a(i + 9223372036854775807) = 1.0
      ENDDO
      END
",
    ),
    (
        "neg_subscript",
        "
      PROGRAM t
      INTEGER i
      REAL a(10)
      DO i = 1, 10
        a(-(i * (-9223372036854775807 - 1))) = 1.0
      ENDDO
      END
",
    ),
    (
        "neg_relation",
        "
      PROGRAM t
      INTEGER i
      REAL a(10)
      DO i = 1, 10
        IF (-(-9223372036854775807 - 1) .LT. i) THEN
          a(i) = 1.0
        ENDIF
      ENDDO
      END
",
    ),
    (
        "step_min",
        "
      PROGRAM t
      INTEGER i
      REAL a(10)
      DO 10 i = 1, 10, -9223372036854775807-1
        a(i) = 1.0
   10 CONTINUE
      END
",
    ),
    (
        "div_subscript",
        "
      PROGRAM t
      REAL a(10)
      a((-9223372036854775807-1) / (-1)) = 1.0
      END
",
    ),
    (
        "div_range",
        "
      PROGRAM t
      INTEGER i, n
      REAL a(10)
      n = (-9223372036854775807-1) / (-1)
      DO i = 1, 10
        a(i) = n
      ENDDO
      END
",
    ),
    (
        "param_div",
        "
      PROGRAM t
      INTEGER i, m
      PARAMETER (m = (-9223372036854775807-1) / (-1))
      REAL a(10)
      DO i = 1, 10
        a(i) = m
      ENDDO
      END
",
    ),
    (
        "param_neg",
        "
      PROGRAM t
      INTEGER i, m
      PARAMETER (m = -(-9223372036854775807-1))
      REAL a(10)
      DO i = 1, 10
        a(i) = m
      ENDDO
      END
",
    ),
    (
        "extent_max",
        "
      PROGRAM t
      INTEGER i
      REAL a(9223372036854775807)
      DO i = 1, 10
        a(i) = 1.0
      ENDDO
      END
",
    ),
    (
        "extent_product",
        "
      PROGRAM t
      INTEGER i
      REAL a(4294967296, 4294967296)
      DO i = 1, 10
        a(i, 1) = 1.0
      ENDDO
      END
",
    ),
    (
        "extent_bounds",
        "
      PROGRAM t
      INTEGER i
      REAL a(-9223372036854775807-1:9223372036854775807)
      DO i = 1, 10
        a(i) = 1.0
      ENDDO
      END
",
    ),
    (
        "dummy_extent",
        "
      PROGRAM t
      REAL a(8)
      INTEGER n
      n = 3000000
      CALL s(a, n)
      END
      SUBROUTINE s(b, n)
      INTEGER n, i
      REAL b(n, n, n)
      DO i = 1, 8
        b(i, 1, 1) = 1.0
      ENDDO
      END
",
    ),
    (
        "sequence_subscript",
        "
      PROGRAM t
      INTEGER i
      REAL a(-4611686018427387904:-4611686018427387904, 4)
      DO i = 1, 4
        a(4611686018427387904) = 1.0
      ENDDO
      END
",
    ),
];

/// Analyzes `src` under the default profile and under `forall+content`,
/// with emission and the oracle: the analysis must succeed and no verdict
/// may be refuted.
fn assert_degrades_soundly(name: &str, src: &str) {
    let content = Options {
        content: true,
        forall_ext: true,
        ..Options::default()
    };
    for opts in [Options::default(), content] {
        let out = driver::run(&driver::Request {
            opts,
            oracle: true,
            emit: true,
            ..driver::Request::new(src)
        })
        .unwrap_or_else(|e| panic!("{name}: analysis failed: {e}\n{src}"));
        assert!(
            !out.soundness_violation(),
            "{name}: oracle refutes a verdict\n{src}"
        );
    }
}

#[test]
fn overflowing_relations_degrade_to_unknown_guards() {
    for (name, src) in OVERFLOWING {
        assert_degrades_soundly(name, src);
    }
}

/// The `i64` extremes and their neighbours as Fortran literals
/// (`i64::MIN` has no literal of its own).
const EXTREME_LITERALS: [&str; 6] = [
    "(-9223372036854775807 - 1)",
    "(-9223372036854775807)",
    "(-1)",
    "1",
    "9223372036854775806",
    "9223372036854775807",
];

/// One statement each, `@` standing for a literal: a subscript, unary
/// minus, the three DO bounds, an IF relation, a PARAMETER, `/`, `*` and
/// `-`, a declared extent (1-D, 2-D, explicit lower bound), either operand
/// of `**`, an EQUIVALENCE subscript and a CALL actual, which
/// [`EXTREME_CALLEE`] adds to a subscript.
const EXTREME_TEMPLATES: [&str; 17] = [
    "DO i = 1, 10\n a(i + @) = 1.0\nENDDO",
    "DO i = 1, 10\n a(-(i * @)) = 1.0\nENDDO",
    "DO i = @, 10\n a(i) = 1.0\nENDDO",
    "DO i = 1, @\n a(i) = 1.0\nENDDO",
    "DO i = 1, 10, @\n a(i) = 1.0\nENDDO",
    "DO i = 1, 10\n IF (@ .LT. i) a(i) = 1.0\nENDDO",
    "PARAMETER (m = -@)\nDO i = 1, 10\n a(i + m) = 1.0\nENDDO",
    "DO i = 1, 10\n k = @ / (-1)\n a(k) = 1.0\nENDDO",
    "DO i = 1, 10\n a(i * @) = 1.0\nENDDO",
    "DO i = 1, 10\n a(@ - i) = 1.0\nENDDO",
    "REAL b(@)\nDO i = 1, 10\n b(i) = 1.0\nENDDO",
    "REAL b(@, 2)\nDO i = 1, 10\n b(i, 1) = 1.0\nENDDO",
    "REAL b(@:10)\nDO i = 1, 10\n b(i) = 1.0\nENDDO",
    "DO i = 1, 10\n a(i ** @) = 1.0\nENDDO",
    "DO i = 1, 10\n a(@ ** i) = 1.0\nENDDO",
    "REAL b(10)\nEQUIVALENCE (a(@), b(1))\nDO i = 1, 10\n b(i) = a(i)\nENDDO",
    "CALL s(a, @)",
];

/// Appended to every filled template: the callee of the CALL template.
const EXTREME_CALLEE: &str = "      SUBROUTINE s(b, n)
      INTEGER n, j
      REAL b(10)
      DO j = 1, 5
        b(n + j) = 1.0
      ENDDO
      END
";

/// Every template filled with every extreme literal degrades soundly: a
/// deterministic slice over the places a program's text puts integers.
#[test]
fn extreme_literals_degrade_soundly() {
    for template in EXTREME_TEMPLATES {
        for lit in EXTREME_LITERALS {
            let body: String = template
                .replace('@', lit)
                .lines()
                .map(|l| format!("      {l}\n"))
                .collect();
            let src = format!(
                "      PROGRAM t\n      INTEGER i, k, m\n      REAL a(10)\n{body}      END\n{EXTREME_CALLEE}"
            );
            assert_degrades_soundly(template, &src);
        }
    }
}

#[test]
fn cli_exits_zero_on_overflowing_programs() {
    let dir = std::env::temp_dir().join(format!("panorama-overflow-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (name, src) in OVERFLOWING {
        let path = dir.join(format!("{name}.f"));
        std::fs::write(&path, src).unwrap();
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_panorama"))
            .args(["--json", "--explain", "--content", "--forall"])
            .arg(&path)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{name}: exit {:?}: {}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
