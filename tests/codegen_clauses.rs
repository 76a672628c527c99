//! Clause selection is load-bearing: for each data-sharing clause there
//! is a paired kernel where the *wrong* clause changes program output.
//! The differential harness catches the wrong plan and accepts panogen's.
//! Every run forks every instance (`run_parallel_checked`): a declined
//! instance runs sequentially and would hide a wrong clause.

use interp::{LoopPlan, Machine, ParallelPlan};
use panorama::{driver, Options};

struct Run {
    out: driver::Outcome,
}

impl Run {
    fn new(src: &str) -> Run {
        let req = driver::Request {
            opts: Options::full(),
            emit: true,
            ..driver::Request::new(src)
        };
        Run {
            out: driver::run(&req).unwrap(),
        }
    }

    fn machine(&self) -> Machine<'_> {
        Machine::new(&self.out.analysis.program, &self.out.analysis.sema)
    }

    fn transform(&self) -> &codegen::Transform {
        self.out.transform.as_ref().unwrap()
    }
}

fn run_checked(m: &Machine, plan: &ParallelPlan) -> interp::Memory {
    let (mem, stats) = m.run_parallel_checked(plan, 4).unwrap();
    assert_eq!(stats.declined_instances, 0);
    mem
}

/// FIRSTPRIVATE pair: the loop reads array cells it never writes, so a
/// zero-initialized PRIVATE copy computes different values.
const NEEDS_FIRSTPRIVATE: &str = "
      PROGRAM ka
      REAL w(20), a(10)
      INTEGER i, k
      DO k = 1, 20
        w(k) = float(k)
      ENDDO
      DO i = 1, 10
        DO k = 1, 10
          w(k) = w(k + 10) + float(i)
        ENDDO
        a(i) = w(1) + w(10)
      ENDDO
      END
";

#[test]
fn firstprivate_wrong_clause_diverges_selected_clause_matches() {
    let r = Run::new(NEEDS_FIRSTPRIVATE);
    let t = r.transform();
    let lt = t.loop_transform("ka", "i").expect("i loop transformed");
    assert!(
        lt.clauses.firstprivate.contains(&"w".to_string()),
        "{:?}",
        lt.clauses
    );
    assert!(lt.planned, "{:?}", lt.plan_note);

    let m = r.machine();
    let (seq, _) = m.run().unwrap();

    // panogen's plan (FIRSTPRIVATE w): byte-identical to serial.
    let par = run_checked(&m, &t.plan);
    assert_eq!(seq.arrays[1].data, par.arrays[1].data, "a diverged");

    // The deliberately wrong clause (PRIVATE w, zero-initialized):
    // the upward-exposed reads of w(11..20) see zeros and a differs.
    let mut wrong = ParallelPlan::new();
    wrong.add(
        "ka",
        "i",
        lt.line,
        LoopPlan {
            private_arrays: vec!["w".to_string()],
            private_scalars: vec!["k".to_string()],
            ..Default::default()
        },
    );
    let bad = run_checked(&m, &wrong);
    assert_ne!(
        seq.arrays[1].data, bad.arrays[1].data,
        "PRIVATE instead of FIRSTPRIVATE went unnoticed — kernel no longer discriminates"
    );
}

/// Scalar LASTPRIVATE pair: `m` is read after the loop; without scalar
/// copy-out the main frame keeps the pre-loop value.
const NEEDS_LASTPRIVATE_SCALAR: &str = "
      PROGRAM kb
      REAL a(10), r(2)
      INTEGER i, m
      DO i = 1, 10
        m = i * 2
        a(i) = float(m)
      ENDDO
      r(1) = float(m)
      END
";

#[test]
fn scalar_lastprivate_wrong_clause_diverges_selected_clause_matches() {
    let r = Run::new(NEEDS_LASTPRIVATE_SCALAR);
    let t = r.transform();
    let lt = t.loop_transform("kb", "i").expect("i loop transformed");
    assert!(
        lt.clauses.lastprivate.contains(&"m".to_string()),
        "{:?}",
        lt.clauses
    );
    assert!(lt.planned, "{:?}", lt.plan_note);

    let m = r.machine();
    let (seq, _) = m.run().unwrap();
    let par = run_checked(&m, &t.plan);
    assert_eq!(seq.arrays[1].data, par.arrays[1].data, "r diverged");

    // Wrong clause: m PRIVATE with no copy-out — r(1) sees the pre-loop
    // value instead of the sequentially-last one.
    let mut wrong = ParallelPlan::new();
    wrong.add(
        "kb",
        "i",
        lt.line,
        LoopPlan {
            private_scalars: vec!["m".to_string()],
            ..Default::default()
        },
    );
    let bad = run_checked(&m, &wrong);
    assert_ne!(
        seq.arrays[1].data, bad.arrays[1].data,
        "missing scalar LASTPRIVATE went unnoticed — kernel no longer discriminates"
    );
}

/// Array LASTPRIVATE pair: the privatized work array is read after the
/// loop; without copy-out the shared array keeps its initial zeros.
const NEEDS_LASTPRIVATE_ARRAY: &str = "
      PROGRAM kc
      REAL w(10), a(10), r(2)
      INTEGER i, k
      DO i = 1, 10
        DO k = 1, 10
          w(k) = float(i + k)
        ENDDO
        a(i) = w(1)
      ENDDO
      r(1) = w(5)
      END
";

#[test]
fn array_lastprivate_wrong_clause_diverges_selected_clause_matches() {
    let r = Run::new(NEEDS_LASTPRIVATE_ARRAY);
    let t = r.transform();
    let lt = t.loop_transform("kc", "i").expect("i loop transformed");
    assert!(
        lt.clauses.lastprivate.contains(&"w".to_string()),
        "{:?}",
        lt.clauses
    );
    assert!(lt.planned, "{:?}", lt.plan_note);

    let m = r.machine();
    let (seq, _) = m.run().unwrap();
    let par = run_checked(&m, &t.plan);
    assert_eq!(seq.arrays[2].data, par.arrays[2].data, "r diverged");

    // Wrong clause: w PRIVATE with no copy-out — the post-loop read of
    // w(5) sees the untouched shared array.
    let mut wrong = ParallelPlan::new();
    wrong.add(
        "kc",
        "i",
        lt.line,
        LoopPlan {
            private_arrays: vec!["w".to_string()],
            private_scalars: vec!["k".to_string()],
            ..Default::default()
        },
    );
    let bad = run_checked(&m, &wrong);
    assert_ne!(
        seq.arrays[2].data, bad.arrays[2].data,
        "missing array LASTPRIVATE went unnoticed — kernel no longer discriminates"
    );
}
