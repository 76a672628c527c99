//! Array privatization and loop parallelization (§3.2).
//!
//! Given the per-loop dependence sets computed by the dataflow analysis
//! ([`dataflow::LoopAnalysis`]), this crate renders the paper's verdicts:
//!
//! * **loop-carried flow dependence** exists iff `UE_i ∩ MOD_<i ≠ ∅`,
//! * **loop-carried output dependence** iff `MOD_i ∩ (MOD_<i ∪ MOD_>i) ≠ ∅`,
//! * **loop-carried anti dependence** iff `UE_i ∩ MOD_>i ≠ ∅`,
//! * an array is a **privatization candidate** when its accesses do not
//!   involve the loop index (iterations overwrite the same elements), and
//!   **privatizable** when additionally no loop-carried flow dependence
//!   exists,
//! * a loop is **parallelizable after privatization** when every
//!   remaining dependence sits on a privatizable array and every scalar
//!   written in the body is itself privatizable (not upwards exposed).
//!
//! All tests are conservative: "dependence exists" really means "cannot be
//! disproved" — exactly the compile-time stance of the paper.

#![warn(missing_docs)]

use dataflow::{ContentNote, LoopAnalysis, RangeNote};
use gar::GarList;
use serde::Serialize;
use vrange::{Budget, Interval, RangeEnv, ValueRange, DEFAULT_BUDGET};

/// One step of the decision trace behind a verdict (DESIGN.md §4f).
///
/// A [`LoopVerdict`]'s `provenance` is the ordered chain of region
/// operations that decided it: candidate screening, every loop-carried
/// intersection test with the surviving GAR (guard included) when the
/// intersection is non-empty, scalar/reduction classification, budget
/// degradation, and a final `decide` entry naming the deciding
/// intersection or degradation. Built purely from the [`LoopAnalysis`]
/// sets, so it is byte-identical across worker counts and cache
/// settings.
#[derive(Clone, Debug, Serialize)]
pub struct ProvEntry {
    /// Operation kind: `candidate`, `intersect`, `scalar`,
    /// `premature_exit`, `degraded`, `range_refute`, `range_compare`
    /// or `decide`.
    pub op: String,
    /// The array or scalar concerned (empty for loop-level entries).
    pub subject: String,
    /// What was tested, e.g. `UE_i ∩ MOD_<i`, with the surviving GAR
    /// and its guard when the test failed to prove emptiness.
    pub detail: String,
    /// Outcome of the step: `empty`, `nonempty`, `yes`, `no`,
    /// `reduction`, `private`, `serializes`, `parallel_as_is`,
    /// `parallel_after_privatization` or `serial`.
    pub result: String,
}

impl ProvEntry {
    /// One-line rendering for `--explain` and the golden provenance
    /// file: `intersect w: MOD_i ∩ MOD_<i = nonempty — ...`.
    pub fn render(&self) -> String {
        let subject = if self.subject.is_empty() {
            String::new()
        } else {
            format!(" {}", self.subject)
        };
        if self.detail.is_empty() {
            format!("{}{}: {}", self.op, subject, self.result)
        } else {
            format!("{}{}: {} = {}", self.op, subject, self.detail, self.result)
        }
    }
}

/// Dependence / privatization verdict for one array in one loop.
#[derive(Clone, Debug, Serialize)]
pub struct ArrayVerdict {
    /// The array name.
    pub array: String,
    /// Written at all in the loop body.
    pub written: bool,
    /// Privatization candidate: accessed regions do not involve the loop
    /// index.
    pub candidate: bool,
    /// Loop-carried flow dependence cannot be disproved.
    pub flow_dep: bool,
    /// Loop-carried output dependence cannot be disproved.
    pub output_dep: bool,
    /// Loop-carried anti dependence cannot be disproved.
    pub anti_dep: bool,
    /// Candidate with no loop-carried flow dependence.
    pub privatizable: bool,
    /// The array is used after the loop: a privatized copy must write its
    /// last value back (§3.2.1 live analysis).
    pub needs_copy_out: bool,
}

/// Why a loop fails to parallelize.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub enum Blocker {
    /// A flow dependence on the named array.
    ArrayFlowDep(String),
    /// An output/anti dependence on a non-privatizable array.
    ArrayStorageDep(String),
    /// A scalar that is both written and upwards exposed.
    ScalarDep(String),
    /// The loop has a premature exit (multi-exit DO).
    PrematureExit,
}

impl Blocker {
    /// The array this blocker concerns, if it is an array blocker.
    pub fn array(&self) -> Option<&str> {
        match self {
            Blocker::ArrayFlowDep(a) | Blocker::ArrayStorageDep(a) => Some(a),
            _ => None,
        }
    }
}

/// Dependence class of a concrete witness (mirrors the three
/// loop-carried tests above).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Serialize)]
pub enum DepClass {
    /// `UE_i ∩ MOD_<i`: value flows from an earlier iteration.
    Flow,
    /// `DE_i ∩ MOD_>i`: a later iteration overwrites a read value.
    Anti,
    /// `MOD_i ∩ (MOD_<i ∪ MOD_>i)`: two iterations write one element.
    Output,
}

impl std::fmt::Display for DepClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DepClass::Flow => "flow",
            DepClass::Anti => "anti",
            DepClass::Output => "output",
        })
    }
}

/// A concrete witness for a negative verdict: one element of one array,
/// touched by two conflicting iterations, with source lines. Produced by
/// the dynamic race oracle and attached to the corresponding
/// [`LoopVerdict`]; the static analysis alone only proves *existence* of
/// a dependence, the witness pins it to real accesses.
#[derive(Clone, Debug, Serialize)]
pub struct Diagnostic {
    /// The array involved.
    pub array: String,
    /// Dependence class of the conflict.
    pub class: DepClass,
    /// Fortran subscripts of the conflicting element.
    pub element: Vec<i64>,
    /// Induction-variable value of the earlier conflicting iteration.
    pub earlier_iter: i64,
    /// Induction-variable value of the later conflicting iteration.
    pub later_iter: i64,
    /// 1-based source line of the earlier access (0 = unknown).
    pub earlier_line: u32,
    /// 1-based source line of the later access (0 = unknown).
    pub later_line: u32,
}

impl Diagnostic {
    /// Human-readable one-line rendering, e.g.
    /// `a(4): flow dependence — iter 2 (line 7) -> iter 3 (line 9)`.
    pub fn render(&self) -> String {
        let subs = self
            .element
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{}({}): {} dependence — iter {} (line {}) -> iter {} (line {})",
            self.array,
            subs,
            self.class,
            self.earlier_iter,
            self.earlier_line,
            self.later_iter,
            self.later_line
        )
    }
}

/// The full verdict for one loop.
#[derive(Clone, Debug, Serialize)]
pub struct LoopVerdict {
    /// Enclosing routine.
    pub routine: String,
    /// Loop index variable.
    pub var: String,
    /// 1-based source line of the DO statement (0 if synthetic).
    pub line: u32,
    /// Stable loop id (`routine/do var#sg`).
    pub id: String,
    /// Nesting depth.
    pub depth: usize,
    /// Per-array verdicts.
    pub arrays: Vec<ArrayVerdict>,
    /// Arrays that must be privatized for the loop to parallelize.
    pub privatized: Vec<String>,
    /// Scalars that must be privatized (written, not upwards exposed).
    pub private_scalars: Vec<String>,
    /// Scalars recognized as reductions (`s = s + e`): parallelizable with
    /// a reduction transform (an extension beyond the paper, standard in
    /// Polaris-era parallelizers).
    pub reductions: Vec<String>,
    /// Parallel with no transformation at all.
    pub parallel_as_is: bool,
    /// Parallel once the `privatized` arrays and `private_scalars` get
    /// per-iteration copies.
    pub parallel_after_privatization: bool,
    /// What blocks parallelization (empty iff parallelizable).
    pub blockers: Vec<Blocker>,
    /// Concrete dynamic witnesses for the blockers, when the race oracle
    /// has run (see the `raceoracle` crate). Empty for positive verdicts
    /// and for statically-judged-only runs.
    pub diagnostics: Vec<Diagnostic>,
    /// Whether the underlying analysis was widened by a resource budget
    /// (fuel, state cap or deadline — see `dataflow::fuel`). A degraded
    /// verdict is sound but conservative: it may say "serial" for a loop
    /// a full-budget run proves parallel, never the reverse.
    pub degraded: bool,
    /// The ordered decision trace (never empty): every region operation
    /// that fed the verdict, ending in a `decide` entry that names the
    /// deciding intersection or degradation. Additive JSON key; see
    /// DESIGN.md §4f.
    pub provenance: Vec<ProvEntry>,
}

/// Does any piece's *region* mention the variable? (Guards may mention the
/// index — e.g. `MOD_<i` — without the accesses themselves varying.)
fn regions_contain_var(list: &GarList, var: &str) -> bool {
    // Guards count too: a write under `IF (k .LE. 4)` reaches different
    // elements on different iterations even when the subscripts are
    // index-free, so per-iteration sets are not uniform and copy-out
    // from the last iteration would drop earlier iterations' writes.
    list.gars().iter().any(|g| g.contains_var(var))
}

/// Runs one loop-carried intersection test and records it in the
/// provenance chain: the sets tested, and — when emptiness cannot be
/// proved — the surviving GAR with its guard (the guard that failed to
/// refute the dependence). Returns whether a dependence survives.
fn probe(prov: &mut Vec<ProvEntry>, subject: &str, label: &str, a: &GarList, b: &GarList) -> bool {
    let inter = a.intersect(b);
    let dep = !inter.definitely_empty();
    let detail = match inter.gars().first() {
        Some(g) if dep => format!("{label}; surviving GAR {g}"),
        _ => label.to_string(),
    };
    prov.push(ProvEntry {
        op: "intersect".to_string(),
        subject: subject.to_string(),
        detail,
        result: if dep { "nonempty" } else { "empty" }.to_string(),
    });
    trace::add("intersections", 1);
    if dep {
        trace::add("intersections_nonempty", 1);
    }
    dep
}

/// Renders one value-range contribution recorded at analysis time as a
/// provenance entry (`range_refute` / `range_compare`, DESIGN.md §4g).
fn range_note_entry(note: &RangeNote) -> ProvEntry {
    match note {
        RangeNote::Refute { cond, always } => ProvEntry {
            op: "range_refute".to_string(),
            subject: String::new(),
            detail: cond.clone(),
            result: if *always { "always" } else { "never" }.to_string(),
        },
        RangeNote::Compare {
            lhs,
            rhs,
            detail,
            result,
        } => ProvEntry {
            op: "range_compare".to_string(),
            subject: String::new(),
            detail: format!("{lhs} ? {rhs}; {detail}"),
            result: result.clone(),
        },
    }
}

fn content_note_entry(note: &ContentNote) -> ProvEntry {
    match note {
        ContentNote::Refute { array, detail } => ProvEntry {
            op: "content_refute".to_string(),
            subject: array.clone(),
            detail: detail.clone(),
            result: "ue_i = {}".to_string(),
        },
        ContentNote::FullDef { array, detail } => ProvEntry {
            op: "content_full_def".to_string(),
            subject: array.clone(),
            detail: detail.clone(),
            result: "fully defined".to_string(),
        },
    }
}

/// Re-installs the loop's proved scalar bounds as a [`sym::bounds`]
/// comparison oracle for the duration of the judge's intersection
/// tests. The analyzer snapshotted the bounds on the [`LoopAnalysis`],
/// so cached replays reach the same Δ-unknown decisions as a cold run.
fn install_range_oracle(la: &LoopAnalysis) -> Option<sym::bounds::OracleGuard> {
    if la.range_bounds.is_empty() || sym::bounds::oracle_active() {
        return None;
    }
    let mut env = RangeEnv::new();
    for (name, (lo, hi)) in &la.range_bounds {
        env.set(
            name.clone(),
            ValueRange::of_interval(Interval::new(*lo, *hi)),
        );
    }
    let budget = Budget::new(DEFAULT_BUDGET);
    Some(sym::bounds::OracleGuard::install(Box::new(
        move |diff: &sym::Expr| vrange::sign_of(diff, &env, &budget),
    )))
}

/// Judges one analyzed loop.
pub fn judge_loop(la: &LoopAnalysis) -> LoopVerdict {
    let _span = trace::span_with(|| format!("judge:{}", la.id()));
    let mut arrays = Vec::new();
    let mut blockers = Vec::new();
    let mut privatized = Vec::new();
    let mut prov = Vec::new();

    // What the value-range pass contributed while the loop was
    // summarized, replayed from the analysis so cached verdicts render
    // identical provenance.
    for note in &la.range_notes {
        prov.push(range_note_entry(note));
    }
    // Likewise for the content pass (UE refutations, full definition).
    for note in &la.content_notes {
        prov.push(content_note_entry(note));
    }
    let range_guard = install_range_oracle(la);

    for (name, sets) in &la.arrays {
        let written = !sets.mod_i.is_empty();
        // Arrays whose storage overlaps another name (EQUIVALENCE or
        // COMMON layout) are never privatization candidates: a private
        // copy would sever the overlay partners' view of the bytes.
        let candidate = written
            && !la.overlaid.contains(name)
            && !regions_contain_var(&sets.mod_i, &la.var)
            && !regions_contain_var(&sets.ue_i, &la.var);
        let why = if !written {
            "not written in the loop"
        } else if la.overlaid.contains(name) {
            "storage overlay (COMMON/EQUIVALENCE partner)"
        } else if regions_contain_var(&sets.mod_i, &la.var)
            || regions_contain_var(&sets.ue_i, &la.var)
        {
            "accessed regions vary with the loop index"
        } else {
            "written; accessed regions independent of the loop index"
        };
        prov.push(ProvEntry {
            op: "candidate".to_string(),
            subject: name.clone(),
            detail: why.to_string(),
            result: if candidate { "yes" } else { "no" }.to_string(),
        });
        let mark = sym::bounds::log_mark();
        let flow_dep = probe(&mut prov, name, "UE_i ∩ MOD_<i", &sets.ue_i, &sets.mod_lt);
        let out_lt = probe(&mut prov, name, "MOD_i ∩ MOD_<i", &sets.mod_i, &sets.mod_lt);
        let out_gt = probe(&mut prov, name, "MOD_i ∩ MOD_>i", &sets.mod_i, &sets.mod_gt);
        let output_dep = out_lt || out_gt;
        // §3.2.2: when anti dependences are considered separately, the
        // downwards-exposed use set DE_i replaces UE_i.
        let anti_dep = probe(&mut prov, name, "DE_i ∩ MOD_>i", &sets.de_i, &sets.mod_gt);
        // Δ-unknown comparisons the reinstalled range oracle decided
        // inside this array's four tests.
        if range_guard.is_some() {
            for d in sym::bounds::decisions_since(mark) {
                prov.push(ProvEntry {
                    op: "range_compare".to_string(),
                    subject: name.clone(),
                    detail: format!("{} ? {}; {}", d.lhs, d.rhs, d.detail),
                    result: d.result.to_string(),
                });
            }
        }
        let privatizable = candidate && !flow_dep;
        let needs_copy_out = la.live_after.contains(name);

        if flow_dep {
            blockers.push(Blocker::ArrayFlowDep(name.clone()));
        } else if output_dep || anti_dep {
            if privatizable {
                privatized.push(name.clone());
            } else {
                blockers.push(Blocker::ArrayStorageDep(name.clone()));
            }
        }

        arrays.push(ArrayVerdict {
            array: name.clone(),
            written,
            candidate,
            flow_dep,
            output_dep,
            anti_dep,
            privatizable,
            needs_copy_out,
        });
    }

    // Scalars: anything written in the body must be private (not upwards
    // exposed) or it serializes the loop. The index variable is implicitly
    // private.
    let mut private_scalars = Vec::new();
    let mut reductions = Vec::new();
    for s in &la.scalar_mod {
        if s == &la.var {
            continue;
        }
        let (class, detail) = if la.reductions.contains(s) {
            reductions.push(s.clone());
            ("reduction", "recognized reduction (s = s op e)")
        } else if la.scalar_ue.contains(s) {
            blockers.push(Blocker::ScalarDep(s.clone()));
            ("serializes", "written and upwards exposed")
        } else {
            private_scalars.push(s.clone());
            ("private", "written, not upwards exposed")
        };
        prov.push(ProvEntry {
            op: "scalar".to_string(),
            subject: s.clone(),
            detail: detail.to_string(),
            result: class.to_string(),
        });
    }

    if la.premature_exit {
        blockers.push(Blocker::PrematureExit);
        prov.push(ProvEntry {
            op: "premature_exit".to_string(),
            subject: String::new(),
            detail: "multi-exit DO: iterations cannot be reordered".to_string(),
            result: "serializes".to_string(),
        });
    }

    if la.degraded {
        prov.push(ProvEntry {
            op: "degraded".to_string(),
            subject: String::new(),
            detail: "resource budget widened summaries to unknown over-approximations".to_string(),
            result: "conservative".to_string(),
        });
    }

    let parallel_after = blockers.is_empty();
    let parallel_as_is = parallel_after
        && privatized.is_empty()
        && private_scalars.is_empty()
        && reductions.is_empty();

    // The final entry names the deciding fact: for serial loops the
    // first blocking intersection (or the degradation that made it
    // non-refutable), for parallel loops the emptiness of every test.
    let (result, detail) = if !parallel_after {
        let named = match &blockers[0] {
            Blocker::ArrayFlowDep(a) | Blocker::ArrayStorageDep(a) => prov
                .iter()
                .find(|e| e.op == "intersect" && &e.subject == a && e.result == "nonempty")
                .map(|e| format!("{} ({a}) nonempty", intersection_label(&e.detail))),
            Blocker::ScalarDep(s) => Some(format!("scalar {s} written and upwards exposed")),
            Blocker::PrematureExit => Some("premature loop exit".to_string()),
        }
        .unwrap_or_else(|| "loop-carried dependence".to_string());
        let detail = if la.degraded {
            format!("degradation: budget widening left {named} non-refutable")
        } else {
            named
        };
        ("serial", detail)
    } else if parallel_as_is {
        (
            "parallel_as_is",
            "all loop-carried intersections empty".to_string(),
        )
    } else {
        (
            "parallel_after_privatization",
            format!(
                "all remaining dependences on privatizable storage \
                 (arrays [{}], scalars [{}], reductions [{}])",
                privatized.join(", "),
                private_scalars.join(", "),
                reductions.join(", ")
            ),
        )
    };
    prov.push(ProvEntry {
        op: "decide".to_string(),
        subject: String::new(),
        detail,
        result: result.to_string(),
    });

    LoopVerdict {
        routine: la.routine.clone(),
        var: la.var.clone(),
        line: la.line,
        id: la.id(),
        depth: la.depth,
        arrays,
        privatized,
        private_scalars,
        reductions,
        parallel_as_is,
        parallel_after_privatization: parallel_after,
        blockers,
        diagnostics: Vec::new(),
        degraded: la.degraded,
        provenance: prov,
    }
}

/// The set-expression part of an `intersect` entry's detail (before the
/// `; surviving GAR …` suffix).
fn intersection_label(detail: &str) -> &str {
    detail.split(';').next().unwrap_or(detail)
}

/// Judges every loop of an analysis run.
pub fn judge_all(loops: &[LoopAnalysis]) -> Vec<LoopVerdict> {
    loops.iter().map(judge_loop).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataflow::{Analyzer, Options};

    fn verdicts(src: &str, opts: Options) -> Vec<LoopVerdict> {
        let program = fortran::parse_program(src).unwrap();
        let sema = fortran::analyze(&program).unwrap();
        let h = hsg::build_hsg(&program).unwrap();
        let mut az = Analyzer::new(&program, &sema, &h, opts);
        az.run();
        judge_all(&az.loops)
    }

    fn find<'a>(vs: &'a [LoopVerdict], routine: &str, var: &str) -> &'a LoopVerdict {
        vs.iter()
            .find(|v| v.routine == routine && v.var == var)
            .unwrap_or_else(|| panic!("loop {routine}/{var} not found"))
    }

    #[test]
    fn simple_parallel_loop() {
        // a(i) = b(i): each iteration owns its element, parallel as-is.
        let vs = verdicts(
            "
      PROGRAM t
      REAL a(100), b(100)
      INTEGER i
      DO i = 1, 100
        a(i) = b(i)
      ENDDO
      END
",
            Options::default(),
        );
        let v = find(&vs, "t", "i");
        assert!(v.parallel_as_is, "{v:?}");
        assert!(v.blockers.is_empty());
    }

    #[test]
    fn true_recurrence_blocks() {
        // a(i) = a(i-1): genuine flow dependence.
        let vs = verdicts(
            "
      PROGRAM t
      REAL a(100)
      INTEGER i
      DO i = 2, 100
        a(i) = a(i-1)
      ENDDO
      END
",
            Options::default(),
        );
        let v = find(&vs, "t", "i");
        assert!(!v.parallel_after_privatization);
        assert!(v
            .blockers
            .iter()
            .any(|b| matches!(b, Blocker::ArrayFlowDep(a) if a == "a")));
    }

    #[test]
    fn work_array_privatizes() {
        let vs = verdicts(
            "
      PROGRAM t
      REAL w(10), a(100)
      INTEGER i, k
      DO i = 1, 100
        DO k = 1, 10
          w(k) = 1.0
        ENDDO
        DO k = 1, 10
          a(i) = a(i) + w(k)
        ENDDO
      ENDDO
      END
",
            Options::default(),
        );
        let v = find(&vs, "t", "i");
        assert!(!v.parallel_as_is);
        assert!(v.parallel_after_privatization, "{v:?}");
        assert_eq!(v.privatized, vec!["w".to_string()]);
        let w = v.arrays.iter().find(|a| a.array == "w").unwrap();
        assert!(w.candidate && w.privatizable && w.output_dep);
        assert!(!w.flow_dep);
        // `a` has no loop-carried dependence at all (a(i) only).
        let a = v.arrays.iter().find(|a| a.array == "a").unwrap();
        assert!(!a.flow_dep && !a.output_dep && !a.anti_dep);
    }

    #[test]
    fn upward_exposed_work_array_blocks() {
        // w used before written: values flow across iterations.
        let vs = verdicts(
            "
      PROGRAM t
      REAL w(10), s
      INTEGER i, k
      DO i = 1, 100
        DO k = 1, 10
          s = s + w(k)
        ENDDO
        DO k = 1, 10
          w(k) = s
        ENDDO
      ENDDO
      END
",
            Options::default(),
        );
        let v = find(&vs, "t", "i");
        assert!(!v.parallel_after_privatization);
        assert!(v
            .blockers
            .iter()
            .any(|b| matches!(b, Blocker::ArrayFlowDep(a) if a == "w")));
    }

    #[test]
    fn sum_reduction_recognized() {
        // s accumulates across iterations: recognized as a reduction, so
        // the loop parallelizes with a reduction transform.
        let vs = verdicts(
            "
      PROGRAM t
      REAL a(100), s
      INTEGER i
      DO i = 1, 100
        s = s + a(i)
      ENDDO
      END
",
            Options::default(),
        );
        let v = find(&vs, "t", "i");
        assert!(v.parallel_after_privatization, "{v:?}");
        assert!(!v.parallel_as_is);
        assert_eq!(v.reductions, vec!["s".to_string()]);
    }

    #[test]
    fn non_reduction_scalar_dependence_blocks() {
        // s carried across iterations in a non-reduction form.
        let vs = verdicts(
            "
      PROGRAM t
      REAL a(100), s
      INTEGER i
      DO i = 1, 100
        s = s * s + a(i)
      ENDDO
      END
",
            Options::default(),
        );
        let v = find(&vs, "t", "i");
        assert!(!v.parallel_after_privatization);
        assert!(v
            .blockers
            .iter()
            .any(|b| matches!(b, Blocker::ScalarDep(s) if s == "s")));
        assert!(v.reductions.is_empty());
    }

    #[test]
    fn reduction_value_used_in_body_blocks() {
        // The running value of s feeds the array: order matters, not a
        // plain reduction.
        let vs = verdicts(
            "
      PROGRAM t
      REAL a(100), s
      INTEGER i
      DO i = 1, 100
        s = s + a(i)
        a(i) = s
      ENDDO
      END
",
            Options::default(),
        );
        let v = find(&vs, "t", "i");
        assert!(!v.parallel_after_privatization, "{v:?}");
    }

    #[test]
    fn private_scalar_ok() {
        let vs = verdicts(
            "
      PROGRAM t
      REAL a(100), tmp
      INTEGER i
      DO i = 1, 100
        tmp = 2.0
        a(i) = tmp * tmp
      ENDDO
      END
",
            Options::default(),
        );
        let v = find(&vs, "t", "i");
        assert!(v.parallel_after_privatization, "{v:?}");
        assert!(v.private_scalars.contains(&"tmp".to_string()));
    }

    #[test]
    fn copy_out_detection() {
        let vs = verdicts(
            "
      PROGRAM t
      REAL w(10), a(100), q
      INTEGER i, k
      DO i = 1, 100
        DO k = 1, 10
          w(k) = 1.0
        ENDDO
        a(i) = w(5)
      ENDDO
      q = w(3)
      END
",
            Options::default(),
        );
        let v = find(&vs, "t", "i");
        let w = v.arrays.iter().find(|a| a.array == "w").unwrap();
        assert!(w.privatizable);
        assert!(w.needs_copy_out, "w is read after the loop");
    }

    #[test]
    fn premature_exit_blocks() {
        let vs = verdicts(
            "
      PROGRAM t
      REAL a(100)
      INTEGER i
      DO i = 1, 100
        IF (a(i) .GT. 0.0) goto 9
        a(i) = 1.0
      ENDDO
9     CONTINUE
      END
",
            Options::default(),
        );
        let v = find(&vs, "t", "i");
        assert!(v.blockers.contains(&Blocker::PrematureExit));
        assert!(!v.parallel_after_privatization);
    }

    #[test]
    fn provenance_ends_in_decide() {
        let vs = verdicts(
            "
      PROGRAM t
      REAL a(100), b(100)
      INTEGER i
      DO i = 1, 100
        a(i) = b(i)
      ENDDO
      END
",
            Options::default(),
        );
        let v = find(&vs, "t", "i");
        assert!(!v.provenance.is_empty());
        let last = v.provenance.last().unwrap();
        assert_eq!(last.op, "decide");
        assert_eq!(last.result, "parallel_as_is");
        assert_eq!(last.detail, "all loop-carried intersections empty");
        assert!(v
            .provenance
            .iter()
            .any(|e| e.op == "intersect" && e.subject == "a" && e.result == "empty"));
    }

    #[test]
    fn provenance_names_blocking_intersection_with_surviving_gar() {
        let vs = verdicts(
            "
      PROGRAM t
      REAL a(100)
      INTEGER i
      DO i = 2, 100
        a(i) = a(i-1)
      ENDDO
      END
",
            Options::default(),
        );
        let v = find(&vs, "t", "i");
        let flow = v
            .provenance
            .iter()
            .find(|e| e.op == "intersect" && e.detail.starts_with("UE_i ∩ MOD_<i"))
            .expect("flow intersection recorded");
        assert_eq!(flow.result, "nonempty");
        assert!(
            flow.detail.contains("surviving GAR"),
            "nonempty test must carry its witness GAR: {}",
            flow.detail
        );
        let last = v.provenance.last().unwrap();
        assert_eq!(last.result, "serial");
        assert!(
            last.detail.contains("UE_i ∩ MOD_<i (a) nonempty"),
            "decide must name the deciding intersection: {}",
            last.detail
        );
    }

    #[test]
    fn provenance_is_deterministic() {
        let src = "
      PROGRAM t
      REAL w(10), a(100)
      INTEGER i, k
      DO i = 1, 100
        DO k = 1, 10
          w(k) = 1.0
        ENDDO
        a(i) = w(5)
      ENDDO
      END
";
        let render = |vs: &[LoopVerdict]| {
            vs.iter()
                .flat_map(|v| v.provenance.iter().map(ProvEntry::render))
                .collect::<Vec<_>>()
                .join("\n")
        };
        let a = render(&verdicts(src, Options::default()));
        let b = render(&verdicts(src, Options::default()));
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn fig1c_verdict_end_to_end() {
        let vs = verdicts(
            "
      PROGRAM ocean
      REAL A(1000)
      INTEGER n, m, i
      REAL x
      DO i = 1, n
        x = 3.5
        call in(A, x, m)
        call out(A, x, m)
      ENDDO
      END
      SUBROUTINE in(B, x, mm)
      REAL B(*)
      INTEGER mm, j
      REAL x
      IF (x .GT. 64.0) RETURN
      DO j = 1, mm
        B(j) = 0.0
      ENDDO
      END
      SUBROUTINE out(B, x, mm)
      REAL B(*)
      INTEGER mm, j
      REAL x, y
      IF (x .GT. 64.0) RETURN
      DO j = 1, mm
        y = B(j)
      ENDDO
      END
",
            Options::default(),
        );
        let v = find(&vs, "ocean", "i");
        assert!(v.parallel_after_privatization, "{v:?}");
        assert!(v.privatized.contains(&"a".to_string()));
    }
}
