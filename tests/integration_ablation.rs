//! Ablation integration tests at the workspace level: the technique
//! toggles and the design-choice ablations DESIGN.md §5 calls out.

use panorama::{analyze_source, Options};

const GUARDED_KILL: &str = "
      PROGRAM t
      REAL a(100), b(100)
      REAL x
      INTEGER i, k
      DO i = 1, 50
        x = float(i)
        IF (x .LT. 200.0) THEN
          DO k = 1, 100
            a(k) = x
          ENDDO
        ENDIF
        IF (x .LT. 200.0) THEN
          DO k = 1, 100
            b(k) = a(k)
          ENDDO
        ENDIF
      ENDDO
      END
";

#[test]
fn guards_enable_correlated_kills() {
    // With guards (T2), the second IF's use of `a` is covered by the
    // first IF's definition under the same condition.
    let full = analyze_source(GUARDED_KILL, Options::default()).unwrap();
    let v = full.verdict("t", "i").unwrap();
    let a = v.arrays.iter().find(|x| x.array == "a").unwrap();
    assert!(a.privatizable, "{v:?}");

    // Without guards the kill fails (conventional kill-set intersection of
    // a taken/not-taken branch is empty).
    let no_t2 = analyze_source(
        GUARDED_KILL,
        Options {
            if_conditions: false,
            ..Options::default()
        },
    )
    .unwrap();
    let v2 = no_t2.verdict("t", "i").unwrap();
    let a2 = v2.arrays.iter().find(|x| x.array == "a").unwrap();
    assert!(!a2.privatizable);
}

#[test]
fn conventional_must_mod_still_kills_both_branch_writes() {
    // Ablation: with T2 off, the must-mod (branch intersection) still
    // kills uses covered on BOTH branches — the pre-GAR behaviour.
    let src = "
      PROGRAM t
      REAL w(50), r(40)
      REAL x
      INTEGER i, k
      DO i = 1, 40
        x = float(i)
        IF (x .GT. 20.0) THEN
          DO k = 1, 50
            w(k) = x
          ENDDO
        ELSE
          DO k = 1, 50
            w(k) = -x
          ENDDO
        ENDIF
        r(i) = w(1) + w(50)
      ENDDO
      END
";
    for t2 in [true, false] {
        let a = analyze_source(
            src,
            Options {
                if_conditions: t2,
                ..Options::default()
            },
        )
        .unwrap();
        let v = a.verdict("t", "i").unwrap();
        let w = v.arrays.iter().find(|x| x.array == "w").unwrap();
        assert!(
            w.privatizable,
            "T2={t2}: both-branch definition must kill the use: {v:?}"
        );
    }
}

#[test]
fn on_the_fly_substitution_matters() {
    // The bound of the fill loop is copied through a scalar chain; without
    // value propagation (here: with T1 off) the kill cannot be proved.
    let src = "
      PROGRAM t
      REAL w(200), r(50)
      INTEGER i, k, m, mm, n
      n = int(float(120))
      DO i = 1, 50
        m = n
        mm = m
        DO k = 1, mm
          w(k) = float(i + k)
        ENDDO
        r(i) = 0.0
        DO k = 1, n
          r(i) = r(i) + w(k)
        ENDDO
      ENDDO
      END
";
    let full = analyze_source(src, Options::default()).unwrap();
    let v = full.verdict("t", "i").unwrap();
    let w = v.arrays.iter().find(|x| x.array == "w").unwrap();
    assert!(
        w.privatizable,
        "substitution mm = m = n must close the kill: {v:?}"
    );

    let no_t1 = analyze_source(
        src,
        Options {
            symbolic: false,
            ..Options::default()
        },
    )
    .unwrap();
    let v1 = no_t1.verdict("t", "i").unwrap();
    let w1 = v1.arrays.iter().find(|x| x.array == "w").unwrap();
    assert!(!w1.privatizable);
}

#[test]
fn interprocedural_scalar_values_propagate() {
    // The callee writes the work array up to a bound passed as an actual
    // computed from PARAMETER constants.
    let src = "
      PROGRAM t
      PARAMETER (half = 50)
      REAL w(200), r(60)
      INTEGER i, m
      m = half * 2
      DO i = 1, 60
        call fill(w, m, i)
        call take(r, w, m, i)
      ENDDO
      END
      SUBROUTINE fill(w, m, i)
      REAL w(*)
      INTEGER m, i, k
      DO k = 1, m
        w(k) = float(i)
      ENDDO
      END
      SUBROUTINE take(r, w, m, i)
      REAL r(*), w(*)
      INTEGER m, i, k
      REAL s
      s = 0.0
      DO k = 1, m
        s = s + w(k)
      ENDDO
      r(i) = s
      END
";
    let a = analyze_source(src, Options::default()).unwrap();
    let v = a.verdict("t", "i").unwrap();
    let w = v.arrays.iter().find(|x| x.array == "w").unwrap();
    assert!(w.privatizable, "{v:?}");
}

#[test]
fn forall_extension_only_affects_hard_case() {
    // The ∀-extension must not change the verdict of any array Table 2
    // lists as privatizable, including the other arrays of the kernel
    // whose hard array it exists for.
    for k in benchsuite::kernels() {
        let base = analyze_source(k.source, Options::default()).unwrap();
        let ext = analyze_source(k.source, Options::full()).unwrap();
        let vb = base.verdict(k.routine, k.var).unwrap();
        let ve = ext.verdict(k.routine, k.var).unwrap();
        for arr in k.privatizable {
            let b = vb.arrays.iter().find(|a| &a.array == arr).unwrap();
            let e = ve.arrays.iter().find(|a| &a.array == arr).unwrap();
            assert_eq!(
                b.privatizable, e.privatizable,
                "{}: {arr} changed under forall",
                k.loop_label
            );
        }
    }
}

#[test]
fn conventional_prefilter_vs_dataflow() {
    // The pre-filter proves the easy loop parallel; the work-array loop
    // needs the dataflow analysis — and gets it.
    let src = "
      PROGRAM t
      REAL a(100), w(10), r(50)
      INTEGER i, q, k
      DO q = 1, 100
        a(q) = float(q)
      ENDDO
      DO i = 1, 50
        DO k = 1, 10
          w(k) = a(k) + float(i)
        ENDDO
        r(i) = w(10)
      ENDDO
      END
";
    let a = analyze_source(src, Options::default()).unwrap();
    assert!(a.conventional_parallel.contains(&"t/q".to_string()));
    assert!(!a.conventional_parallel.contains(&"t/i".to_string()));
    let v = a.verdict("t", "i").unwrap();
    assert!(v.parallel_after_privatization, "{v:?}");
}
