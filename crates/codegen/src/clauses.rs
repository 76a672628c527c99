//! OpenMP data-sharing clause selection (DESIGN.md §4h).
//!
//! Maps a positive [`privatize::LoopVerdict`] onto the four data-sharing
//! clauses, using the dependence sets the verdict was judged from:
//!
//! * **PRIVATE** — a privatized array whose `UE_i` set is provably empty
//!   (every read is preceded by a same-iteration write), or a private
//!   scalar not observable after the loop. The per-thread copy may start
//!   undefined.
//! * **FIRSTPRIVATE** — a privatized array with upward-exposed reads
//!   (`UE_i` not provably empty): the private copy must start from the
//!   incoming shared values.
//! * **LASTPRIVATE** — a privatized array the analysis marked live after
//!   the loop (`needs_copy_out`), or a private scalar that may be
//!   observed after the loop: the sequentially-last value is copied back.
//!   A copy-out *array* is always also FIRSTPRIVATE: LASTPRIVATE
//!   transfers the whole final private copy, and the analysis does not
//!   prove the final iteration writes every live-out element, so the
//!   copy must start from the shared values.
//! * **REDUCTION(+:…)** / **REDUCTION(*:…)** — recognized reduction
//!   scalars, split by the operator found in the loop body.
//!
//! Every choice is recorded as a [`ProvEntry`] so `--transform-out`
//! reports *why* each name got its clause.

use dataflow::LoopAnalysis;
use fortran::{Expr, LValue, Routine, Stmt, StmtKind, SymbolTable};
use privatize::{LoopVerdict, ProvEntry};
use serde::Serialize;
use std::collections::BTreeSet;

/// The selected data-sharing clauses for one loop, ready to render into a
/// `!$OMP PARALLEL DO` directive. Names are the lower-cased identifiers
/// of the printed program. A name appears in at most one of `private` /
/// `firstprivate`; `lastprivate` may repeat a `firstprivate` name (both
/// copy-in and copy-out) but never a `private` one (LASTPRIVATE already
/// implies privatization).
#[derive(Clone, Debug, Default, PartialEq, Serialize)]
pub struct Clauses {
    /// PRIVATE list (arrays and scalars).
    pub private: Vec<String>,
    /// FIRSTPRIVATE list (arrays with upward-exposed reads).
    pub firstprivate: Vec<String>,
    /// LASTPRIVATE list (arrays and scalars needing copy-out).
    pub lastprivate: Vec<String>,
    /// REDUCTION(+:…) scalars (covers `s = s + e` and `s = s - e`).
    pub reduction_add: Vec<String>,
    /// REDUCTION(*:…) scalars (`s = s * e`).
    pub reduction_mul: Vec<String>,
}

impl Clauses {
    /// Renders the full `!$OMP PARALLEL DO …` directive line.
    pub fn directive(&self) -> String {
        let mut s = String::from("!$OMP PARALLEL DO");
        let clause = |out: &mut String, kw: &str, names: &[String]| {
            if !names.is_empty() {
                out.push_str(&format!(" {kw}({})", names.join(", ")));
            }
        };
        clause(&mut s, "PRIVATE", &self.private);
        clause(&mut s, "FIRSTPRIVATE", &self.firstprivate);
        clause(&mut s, "LASTPRIVATE", &self.lastprivate);
        if !self.reduction_add.is_empty() {
            s.push_str(&format!(" REDUCTION(+:{})", self.reduction_add.join(", ")));
        }
        if !self.reduction_mul.is_empty() {
            s.push_str(&format!(" REDUCTION(*:{})", self.reduction_mul.join(", ")));
        }
        s
    }

    /// All clause-listed names, for quick membership checks in tests.
    pub fn all_names(&self) -> BTreeSet<&str> {
        self.private
            .iter()
            .chain(&self.firstprivate)
            .chain(&self.lastprivate)
            .chain(&self.reduction_add)
            .chain(&self.reduction_mul)
            .map(String::as_str)
            .collect()
    }
}

/// Selects clauses for one transformable loop.
///
/// `body` is the loop's statement list (for reduction-operator
/// classification); `la` supplies the `UE_i` sets behind the
/// PRIVATE-vs-FIRSTPRIVATE split.
pub fn select(
    v: &LoopVerdict,
    la: &LoopAnalysis,
    routine: &Routine,
    table: &SymbolTable,
    body: &[Stmt],
    prov: &mut Vec<ProvEntry>,
) -> Clauses {
    let mut c = Clauses::default();

    // Arrays: the verdict's privatized list, classified by copy-in
    // (UE_i) and copy-out (liveness) needs.
    for name in &v.privatized {
        let copy_in = la
            .arrays
            .get(name)
            .is_some_and(|sets| !sets.ue_i.definitely_empty());
        let copy_out = v
            .arrays
            .iter()
            .find(|a| &a.array == name)
            .is_some_and(|a| a.needs_copy_out);
        let (clause, why) = if copy_out {
            // LASTPRIVATE transfers the final iteration's *whole* private
            // copy. Unless the content pass proved every declared element
            // is written each iteration, the copy must be seeded from the
            // shared array (FIRSTPRIVATE) or never-written elements would
            // come back undefined.
            if !copy_in && la.content_full.contains(name) {
                c.lastprivate.push(name.clone());
                (
                    "LASTPRIVATE",
                    "live after the loop; content pass proves every declared \
                     element is written each iteration, so no seeding is needed",
                )
            } else {
                c.firstprivate.push(name.clone());
                c.lastprivate.push(name.clone());
                if copy_in {
                    (
                        "FIRSTPRIVATE LASTPRIVATE",
                        "UE_i not provably empty (reads pre-loop values); live after the loop",
                    )
                } else {
                    (
                        "FIRSTPRIVATE LASTPRIVATE",
                        "live after the loop: copy-out transfers the whole array, so the \
                         private copy is seeded to preserve never-written elements",
                    )
                }
            }
        } else if copy_in {
            c.firstprivate.push(name.clone());
            (
                "FIRSTPRIVATE",
                "UE_i not provably empty (reads pre-loop values)",
            )
        } else {
            c.private.push(name.clone());
            (
                "PRIVATE",
                "UE_i empty (written before read); dead after the loop",
            )
        };
        prov.push(ProvEntry {
            op: "clause".to_string(),
            subject: name.clone(),
            detail: why.to_string(),
            result: clause.to_string(),
        });
    }

    // Scalars: private ones that may be observed after the loop need
    // their sequentially-last value copied back.
    let live = scalars_live_after(routine, v.line, &v.var);
    for s in &v.private_scalars {
        // COMMON scalars and dummy arguments escape the routine (the
        // caller can observe them) regardless of local liveness.
        let observable = live.contains(s.as_str())
            || table.common_block(s).is_some()
            || routine.params.contains(s);
        let (clause, why) = if observable {
            c.lastprivate.push(s.clone());
            ("LASTPRIVATE", "may be observed after the loop")
        } else {
            c.private.push(s.clone());
            ("PRIVATE", "dead after the loop")
        };
        prov.push(ProvEntry {
            op: "clause".to_string(),
            subject: s.clone(),
            detail: why.to_string(),
            result: clause.to_string(),
        });
    }

    // Reductions, split by the operator used in the body.
    for s in &v.reductions {
        let mul = reduction_is_product(body, s);
        let clause = if mul {
            c.reduction_mul.push(s.clone());
            "REDUCTION(*)"
        } else {
            c.reduction_add.push(s.clone());
            "REDUCTION(+)"
        };
        prov.push(ProvEntry {
            op: "clause".to_string(),
            subject: s.clone(),
            detail: "recognized reduction".to_string(),
            result: clause.to_string(),
        });
    }
    c
}

/// Does any `s = s * e` assignment appear in the body? (The recognizer
/// only accepts `v = v op e` forms with op in `{+, -, *}`, so a single
/// multiplicative site makes the whole chain a product reduction.)
fn reduction_is_product(body: &[Stmt], s: &str) -> bool {
    let mut found = false;
    fortran::walk_stmts(body, &mut |st| {
        if let StmtKind::Assign(LValue::Var(lhs), Expr::Bin(fortran::BinOp::Mul, ..)) = &st.kind {
            if lhs == s {
                found = true;
            }
        }
    });
    found
}

/// Over-approximates the scalars whose value may be observed after the
/// loop at `(line, var)` finishes: every identifier occurring in a
/// statement that follows the loop in the routine's text. A GOTO
/// anywhere in the routine forces full conservatism (control may revisit
/// "earlier" text after the loop). Copying a last value back is always
/// semantics-preserving, so over-approximation only costs clause
/// precision, never correctness.
fn scalars_live_after(routine: &Routine, line: u32, var: &str) -> BTreeSet<String> {
    let mut has_goto = false;
    fortran::walk_stmts(&routine.body, &mut |s| {
        if matches!(s.kind, StmtKind::Goto(_)) {
            has_goto = true;
        }
    });
    let mut live = BTreeSet::new();
    if has_goto {
        // Every scalar may be re-read via a backward jump.
        for s in &routine.body {
            collect_stmt_names(s, &mut live);
        }
    } else {
        let mut found = false;
        collect_after(&routine.body, line, var, &mut found, &mut live);
    }
    live
}

/// Collects identifiers from statements textually after the target loop.
/// Once the loop statement itself is passed, every sibling and ancestor
/// sibling counts; branches parallel to the loop (e.g. the ELSE arm of
/// an IF that contains it) are included conservatively.
fn collect_after(
    stmts: &[Stmt],
    line: u32,
    var: &str,
    found: &mut bool,
    out: &mut BTreeSet<String>,
) {
    for s in stmts {
        if *found {
            collect_stmt_names(s, out);
            continue;
        }
        match &s.kind {
            StmtKind::Do { var: v, .. } if s.line == line && v == var => {
                *found = true; // the loop's own body is not "after"
            }
            StmtKind::Do { body, .. } => {
                let before = *found;
                collect_after(body, line, var, found, out);
                if *found && !before {
                    // The target loop is nested inside this DO: the whole
                    // enclosing body (including statements textually
                    // before the target) re-executes on the next
                    // iteration, so all of it is dynamically "after".
                    collect_stmt_names(s, out);
                }
            }
            StmtKind::If {
                then_body,
                else_body,
                ..
            } => {
                let before = *found;
                collect_after(then_body, line, var, found, out);
                if *found && !before {
                    // Loop sits in the THEN arm: the ELSE arm never runs
                    // in the same pass, but collecting it is harmlessly
                    // conservative.
                    for t in else_body {
                        collect_stmt_names(t, out);
                    }
                } else {
                    collect_after(else_body, line, var, found, out);
                }
            }
            StmtKind::LogicalIf(_, inner) => {
                collect_after(std::slice::from_ref(&**inner), line, var, found, out)
            }
            _ => {}
        }
    }
}

/// Every identifier a statement mentions (reads and writes — a write-only
/// occurrence still keeps the copy-out harmless).
fn collect_stmt_names(s: &Stmt, out: &mut BTreeSet<String>) {
    // Nested bodies of the statement are also "after" the loop.
    s.walk(&mut |s| {
        if let StmtKind::Assign(lv, _) = &s.kind {
            out.insert(lv.name().to_string());
        }
        s.exprs(&mut |e| {
            e.walk(&mut |x| {
                if let Expr::Var(n) | Expr::Index(n, _) = x {
                    out.insert(n.clone());
                }
            })
        });
    });
}
