//! `panolint`: stable, machine-readable diagnostics.
//!
//! Every "we conservatively assume X" decision in the pipeline becomes
//! a lint with a stable code. Lints are computed by a standalone static
//! pass over the program — never during summary propagation — so the
//! output is deterministic across `--jobs`, cache state, and daemon vs
//! one-shot CLI.

use crate::classify::classify_call;
use fortran::{Expr, LValue, Program, ProgramSema, Routine, Stmt, StmtKind, SymbolTable};

/// Stable lint codes. The numeric code of an existing lint never
/// changes; new lints append.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum LintCode {
    /// `P001` — two actuals of one CALL (or an actual and a COMMON
    /// block visible to the callee) share storage.
    AliasedActuals,
    /// `P002` — an array's shape differs across a call boundary: rank
    /// change, or a COMMON block laid out differently per routine.
    ReshapedAcrossCall,
    /// `P003` — an element/slice actual `a(k)`; the callee's footprint
    /// inside `a` is not tracked.
    SliceActual,
    /// `P004` — an EQUIVALENCE group overlays arrays; overlaid arrays
    /// are never privatization candidates.
    EquivalenceOverlay,
    /// `P005` — a subscript is not affine in loop variables (indirect
    /// indexing, products of variables, …); regions become unknown.
    NonlinearSubscript,
    /// `P006` — a CALL summarized without interprocedural analysis;
    /// its reachable storage is clobbered.
    ConservativeClobber,
    /// `P007` — an IF condition is provably constant under the scalar
    /// value ranges, so one arm can never execute.
    InfeasibleGuard,
    /// `P008` — a subscript's proved range is disjoint from the array's
    /// declared dimension bounds.
    SubscriptOutOfDeclaredBounds,
    /// `P009` — a DO loop's trip range is provably empty: the body
    /// never executes.
    LoopNeverExecutes,
    /// `P010` — a local array is read in a region no earlier store may
    /// have defined: the value is whatever the allocator left there.
    ReadBeforeWrite,
    /// `P011` — an array store is completely overwritten before any
    /// element of it is read.
    RedundantStore,
    /// `P012` — an initialization loop whose entire effect is
    /// overwritten before any read.
    DeadInitializationLoop,
}

impl LintCode {
    /// All codes, in code order.
    pub const ALL: [LintCode; 12] = [
        LintCode::AliasedActuals,
        LintCode::ReshapedAcrossCall,
        LintCode::SliceActual,
        LintCode::EquivalenceOverlay,
        LintCode::NonlinearSubscript,
        LintCode::ConservativeClobber,
        LintCode::InfeasibleGuard,
        LintCode::SubscriptOutOfDeclaredBounds,
        LintCode::LoopNeverExecutes,
        LintCode::ReadBeforeWrite,
        LintCode::RedundantStore,
        LintCode::DeadInitializationLoop,
    ];

    /// The stable code, e.g. `"P001"`.
    pub fn code(self) -> &'static str {
        match self {
            LintCode::AliasedActuals => "P001",
            LintCode::ReshapedAcrossCall => "P002",
            LintCode::SliceActual => "P003",
            LintCode::EquivalenceOverlay => "P004",
            LintCode::NonlinearSubscript => "P005",
            LintCode::ConservativeClobber => "P006",
            LintCode::InfeasibleGuard => "P007",
            LintCode::SubscriptOutOfDeclaredBounds => "P008",
            LintCode::LoopNeverExecutes => "P009",
            LintCode::ReadBeforeWrite => "P010",
            LintCode::RedundantStore => "P011",
            LintCode::DeadInitializationLoop => "P012",
        }
    }

    /// The human slug, e.g. `"aliased-actuals"`.
    pub fn slug(self) -> &'static str {
        match self {
            LintCode::AliasedActuals => "aliased-actuals",
            LintCode::ReshapedAcrossCall => "reshaped-across-call",
            LintCode::SliceActual => "slice-actual",
            LintCode::EquivalenceOverlay => "equivalence-overlay",
            LintCode::NonlinearSubscript => "nonlinear-subscript",
            LintCode::ConservativeClobber => "conservative-clobber",
            LintCode::InfeasibleGuard => "infeasible-guard",
            LintCode::SubscriptOutOfDeclaredBounds => "subscript-out-of-declared-bounds",
            LintCode::LoopNeverExecutes => "loop-never-executes",
            LintCode::ReadBeforeWrite => "read-before-write",
            LintCode::RedundantStore => "redundant-store",
            LintCode::DeadInitializationLoop => "dead-initialization-loop",
        }
    }

    /// Parses a stable code (`"P007"`) or slug (`"infeasible-guard"`).
    pub fn parse(s: &str) -> Option<LintCode> {
        LintCode::ALL
            .iter()
            .copied()
            .find(|c| c.code().eq_ignore_ascii_case(s) || c.slug() == s)
    }
}

impl std::fmt::Display for LintCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}", self.code(), self.slug())
    }
}

/// One diagnostic.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Lint {
    /// Stable code.
    pub code: LintCode,
    /// Routine the lint is anchored in.
    pub routine: String,
    /// 1-based source line (0 = declaration-level, no single line).
    pub line: u32,
    /// Human-readable explanation; deterministic, derived only from
    /// the AST.
    pub message: String,
}

impl std::fmt::Display for Lint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(f, "{}: [{}] {}", self.routine, self.code, self.message)
        } else {
            write!(
                f,
                "{}:{}: [{}] {}",
                self.routine, self.line, self.code, self.message
            )
        }
    }
}

/// Computes every lint for a checked program. `interprocedural`
/// mirrors the analysis option: with it off, every CALL earns a `P006`
/// conservative-clobber witness. `value_range` mirrors the value-range
/// pass: with it on, the flow-sensitive range walk contributes
/// P007/P008/P009. `content` mirrors the array-content pass: with it
/// on, the initialization walk contributes P010/P011/P012. The result
/// is sorted by `(routine, line, code, message)` and deduplicated —
/// byte-identical regardless of job count or cache state.
pub fn lint_program(
    program: &Program,
    sema: &ProgramSema,
    interprocedural: bool,
    value_range: bool,
    content: bool,
) -> Vec<Lint> {
    let mut lints = Vec::new();
    for r in &program.routines {
        let Some(table) = sema.tables.get(&r.name) else {
            continue;
        };
        lint_equivalences(r, &mut lints);
        fortran::walk_stmts(&r.body, &mut |stmt| {
            lint_stmt(program, sema, r, table, stmt, interprocedural, &mut lints);
        });
        if value_range {
            lint_ranges(r, table, &mut lints);
        }
        if content {
            lint_content(r, table, &mut lints);
        }
    }
    lints.sort_by(|a, b| {
        (a.routine.as_str(), a.line, a.code, a.message.as_str()).cmp(&(
            b.routine.as_str(),
            b.line,
            b.code,
            b.message.as_str(),
        ))
    });
    lints.dedup();
    lints
}

/// P007/P008/P009: runs the value-range walk (`vrange::routine_facts`)
/// over one routine and renders each proved fact as a lint. The walk is
/// a standalone AST pass under its own budget, so — like every other
/// rule here — the output is independent of job count and cache state;
/// budget exhaustion silently drops facts, never invents them.
fn lint_ranges(r: &Routine, table: &SymbolTable, lints: &mut Vec<Lint>) {
    let mut dims = vrange::DeclaredDims::new();
    for (name, _) in &r.arrays {
        if let Some(b) = table.declared_bounds(name) {
            dims.insert(name.clone(), b);
        }
    }
    let budget = vrange::Budget::new(vrange::DEFAULT_BUDGET);
    for fact in vrange::routine_facts(r, &dims, &budget) {
        let (code, message) = match fact.kind {
            vrange::RangeFactKind::InfeasibleGuard { cond, always } => (
                LintCode::InfeasibleGuard,
                format!(
                    "condition ({cond}) is provably {}; the {} branch never executes",
                    if always { "true" } else { "false" },
                    if always { "ELSE" } else { "THEN" },
                ),
            ),
            vrange::RangeFactKind::SubscriptOutOfBounds {
                array,
                dim,
                subscript,
                range,
                declared,
            } => {
                let lo = declared.0.map_or("*".to_string(), |v| v.to_string());
                let hi = declared.1.map_or("*".to_string(), |v| v.to_string());
                (
                    LintCode::SubscriptOutOfDeclaredBounds,
                    format!(
                        "subscript {subscript} of {array} proved in {range}, \
                         outside declared dimension {dim} ({lo}:{hi})"
                    ),
                )
            }
            vrange::RangeFactKind::LoopNeverExecutes { var, lo, hi } => (
                LintCode::LoopNeverExecutes,
                format!("DO {var} never executes: lower bound in {lo}, upper bound in {hi}"),
            ),
        };
        lints.push(Lint {
            code,
            routine: r.name.clone(),
            line: fact.line,
            message,
        });
    }
}

/// P010/P011/P012: runs the array-content initialization walk
/// (`content::lint_routine`) over one routine. Like the range walk, it
/// is a standalone AST pass under its own budget: deterministic across
/// jobs and caches, and budget exhaustion only silences lints.
fn lint_content(r: &Routine, table: &SymbolTable, lints: &mut Vec<Lint>) {
    let budget = vrange::Budget::new(vrange::DEFAULT_BUDGET);
    for l in content::lint_routine(r, table, &budget) {
        let code = match l.kind {
            content::LintKind::ReadBeforeWrite => LintCode::ReadBeforeWrite,
            content::LintKind::RedundantStore => LintCode::RedundantStore,
            content::LintKind::DeadInitializationLoop => LintCode::DeadInitializationLoop,
        };
        lints.push(Lint {
            code,
            routine: r.name.clone(),
            line: l.line,
            message: l.message,
        });
    }
}

fn lint_equivalences(r: &Routine, lints: &mut Vec<Lint>) {
    for group in &r.equivalences {
        let names: Vec<&str> = group.iter().map(|(n, _)| n.as_str()).collect();
        lints.push(Lint {
            code: LintCode::EquivalenceOverlay,
            routine: r.name.clone(),
            line: 0,
            message: format!("EQUIVALENCE overlays {}", names.join(", ")),
        });
    }
}

fn lint_stmt(
    program: &Program,
    sema: &ProgramSema,
    r: &Routine,
    table: &SymbolTable,
    stmt: &Stmt,
    interprocedural: bool,
    lints: &mut Vec<Lint>,
) {
    let mut push = |code: LintCode, message: String| {
        lints.push(Lint {
            code,
            routine: r.name.clone(),
            line: stmt.line,
            message,
        });
    };

    if let StmtKind::Call(callee, args) = &stmt.kind {
        let params: &[String] = program.routine(callee).map_or(&[], |c| &c.params);
        let c = classify_call(sema, &r.name, callee, params, args);
        for p in &c.pairs {
            let how = match &p.reason {
                crate::AliasReason::SameActual(n) => format!("both pass {n}"),
                crate::AliasReason::StorageOverlap(x, y) => {
                    format!("{x} and {y} may share storage")
                }
            };
            push(
                LintCode::AliasedActuals,
                format!(
                    "actuals #{} and #{} of CALL {callee} {}-alias ({how})",
                    p.a + 1,
                    p.b + 1,
                    if p.class == crate::AliasClass::Must {
                        "must"
                    } else {
                        "may"
                    },
                ),
            );
        }
        for g in &c.globals {
            push(
                LintCode::AliasedActuals,
                format!(
                    "actual #{} of CALL {callee} ({}) is also reachable by {callee} through COMMON /{}/",
                    g.pos + 1,
                    g.actual,
                    g.block
                ),
            );
        }
        for (pos, actual, fr, ar) in &c.reshaped {
            push(
                LintCode::ReshapedAcrossCall,
                format!(
                    "actual #{} of CALL {callee} reshapes {actual} from rank {ar} to rank {fr}",
                    pos + 1
                ),
            );
        }
        for b in &c.mismatched_commons {
            push(
                LintCode::ReshapedAcrossCall,
                format!("COMMON /{b}/ reachable from CALL {callee} is laid out differently across routines"),
            );
        }
        for (pos, base) in &c.slices {
            push(
                LintCode::SliceActual,
                format!(
                    "actual #{} of CALL {callee} passes a slice of {base}",
                    pos + 1
                ),
            );
        }
        if !interprocedural {
            let reach = sema.common_reach.get(callee);
            let blocks: Vec<String> = reach
                .map(|r| r.iter().map(|b| format!("/{b}/")).collect())
                .unwrap_or_default();
            push(
                LintCode::ConservativeClobber,
                if blocks.is_empty() {
                    format!("CALL {callee} summarized without interprocedural analysis; clobbers its array actuals")
                } else {
                    format!(
                        "CALL {callee} summarized without interprocedural analysis; clobbers its array actuals and COMMON {}",
                        blocks.join(", ")
                    )
                },
            );
        }
    }

    // P005: nonlinear subscripts anywhere in the statement.
    let check_subs = |name: &str, subs: &[Expr], push: &mut dyn FnMut(LintCode, String)| {
        if !table.is_array(name) {
            return;
        }
        for s in subs {
            if !is_affine(s, table) {
                push(
                    LintCode::NonlinearSubscript,
                    format!("nonlinear subscript {s} in reference to {name}"),
                );
            }
        }
    };
    let mut check_refs = |s: &Stmt| {
        s.exprs(&mut |e| {
            e.walk(&mut |e| {
                if let Expr::Index(name, subs) = e {
                    check_subs(name, subs, &mut push);
                }
            })
        })
    };
    check_refs(stmt);
    // A logical IF's statement is part of the same statement too.
    if let StmtKind::LogicalIf(_, inner) = &stmt.kind {
        check_refs(inner);
    }
    if let StmtKind::Assign(LValue::Element(name, subs), _) = &stmt.kind {
        check_subs(name, subs, &mut push);
    }
}

/// Is a subscript affine: a sum of `const * var` and `const` terms?
fn is_affine(e: &Expr, t: &SymbolTable) -> bool {
    match e {
        Expr::Int(_) | Expr::Real(_) | Expr::Logical(_) | Expr::Var(_) => true,
        Expr::Un(_, a) => is_affine(a, t),
        Expr::Bin(op, a, b) => match op {
            fortran::BinOp::Add | fortran::BinOp::Sub => is_affine(a, t) && is_affine(b, t),
            fortran::BinOp::Mul => {
                (is_const(a, t) && is_affine(b, t)) || (is_const(b, t) && is_affine(a, t))
            }
            _ => is_const(a, t) && is_const(b, t),
        },
        Expr::Index(..) => false,
    }
}

/// Is an expression a compile-time constant (literals and PARAMETERs)?
fn is_const(e: &Expr, t: &SymbolTable) -> bool {
    match e {
        Expr::Int(_) | Expr::Real(_) | Expr::Logical(_) => true,
        Expr::Var(n) => t.constant(n).is_some(),
        Expr::Un(_, a) => is_const(a, t),
        Expr::Bin(_, a, b) => is_const(a, t) && is_const(b, t),
        Expr::Index(..) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fortran::{analyze, parse_program};

    fn lints_of(src: &str, interprocedural: bool) -> Vec<Lint> {
        let p = parse_program(src).unwrap();
        let sema = analyze(&p).unwrap();
        lint_program(&p, &sema, interprocedural, true, true)
    }

    #[test]
    fn aliased_call_and_clobber_lints() {
        let src = "
      PROGRAM t
      REAL a(10)
      CALL f(a, a)
      END
      SUBROUTINE f(x, y)
      REAL x(10), y(10)
      x(1) = y(1)
      END
";
        let l = lints_of(src, true);
        assert_eq!(l.len(), 1, "{l:?}");
        assert_eq!(l[0].code, LintCode::AliasedActuals);
        assert_eq!(l[0].routine, "t");
        assert_eq!(l[0].line, 4);
        // With interprocedural analysis off, a P006 witness appears too.
        let l = lints_of(src, false);
        let codes: Vec<&str> = l.iter().map(|x| x.code.code()).collect();
        assert_eq!(codes, vec!["P001", "P006"]);
    }

    #[test]
    fn equivalence_and_nonlinear_lints() {
        let l = lints_of(
            "
      PROGRAM t
      REAL a(10), b(4), c(10)
      EQUIVALENCE (a(3), b(1))
      DO i = 1, 10
        c(i*i) = a(i)
      ENDDO
      END
",
            true,
        );
        let codes: Vec<&str> = l.iter().map(|x| x.code.code()).collect();
        assert_eq!(codes, vec!["P004", "P005"]);
        assert!(l[1].message.contains("(i*i)"), "{}", l[1].message);
    }

    #[test]
    fn indirect_subscript_is_nonlinear() {
        let l = lints_of(
            "
      PROGRAM t
      REAL a(10)
      INTEGER idx(10)
      DO i = 1, 10
        a(idx(i)) = 0.0
      ENDDO
      END
",
            true,
        );
        // P005 for the indirect subscript — and P010, because idx is a
        // local array read without ever being written.
        let codes: Vec<&str> = l.iter().map(|x| x.code.code()).collect();
        assert_eq!(codes, vec!["P005", "P010"], "{l:?}");
    }

    #[test]
    fn affine_subscripts_stay_quiet() {
        let l = lints_of(
            "
      PROGRAM t
      PARAMETER (n = 5)
      REAL a(100)
      DO i = 1, 10
        a(2*i + n - 1) = 0.0
      ENDDO
      END
",
            true,
        );
        assert!(l.is_empty(), "{l:?}");
    }

    #[test]
    fn range_lints_fire_with_value_range_on() {
        let src = "
      PROGRAM t
      REAL a(100)
      INTEGER n, m, i
      n = 150
      a(n) = 0.0
      IF (n .GT. 200) THEN
        a(1) = 1.0
      ENDIF
      m = 0
      DO i = 1, m
        a(i) = 2.0
      ENDDO
      END
";
        let l = lints_of(src, true);
        let codes: Vec<&str> = l.iter().map(|x| x.code.code()).collect();
        assert_eq!(codes, vec!["P008", "P007", "P009"], "{l:?}");
        assert!(l[0]
            .message
            .contains("outside declared dimension 1 (1:100)"));
        assert!(l[1].message.contains("provably false"));
        assert!(l[2].message.contains("never executes"));
        // With the value-range pass off, none of P007–P009 appear.
        let p = parse_program(src).unwrap();
        let sema = analyze(&p).unwrap();
        assert!(lint_program(&p, &sema, true, false, false).is_empty());
    }

    #[test]
    fn content_lints_fire_with_content_on() {
        let src = "
      PROGRAM t
      REAL a(10), b(10), c(10)
      INTEGER i
      c(1) = 1.0
      c(1) = 2.0
      DO i = 1, 10
        b(i) = a(i)
      ENDDO
      b(1) = c(1)
      END
";
        let l = lints_of(src, true);
        let codes: Vec<&str> = l.iter().map(|x| x.code.code()).collect();
        assert_eq!(codes, vec!["P011", "P010"], "{l:?}");
        // P011: c(1) stored on line 5 and overwritten on line 6 unread.
        assert_eq!(l[0].line, 5);
        assert!(
            l[0].message.contains("overwritten before it is ever read"),
            "{}",
            l[0].message
        );
        // P010: a read in the loop without any prior store.
        assert!(
            l[1].message.contains("read before any element is written"),
            "{}",
            l[1].message
        );
        // With the content pass off, none of P010–P012 appear.
        let p = parse_program(src).unwrap();
        let sema = analyze(&p).unwrap();
        assert!(lint_program(&p, &sema, true, false, false).is_empty());
    }

    #[test]
    fn dead_initialization_loop_lint() {
        let src = "
      PROGRAM t
      INTEGER a(10), s, i
      DO i = 1, 10
        a(i) = 0
      ENDDO
      DO i = 1, 10
        a(i) = i + 1
      ENDDO
      s = a(5)
      END
";
        let l = lints_of(src, true);
        let codes: Vec<&str> = l.iter().map(|x| x.code.code()).collect();
        assert_eq!(codes, vec!["P012"], "{l:?}");
        assert!(
            l[0].message.contains("initializes a to 0"),
            "{}",
            l[0].message
        );

        // The clean twin — a read between the loops — stays quiet.
        let quiet = lints_of(
            "
      PROGRAM t
      INTEGER a(10), s, i
      DO i = 1, 10
        a(i) = 0
      ENDDO
      s = a(5)
      DO i = 1, 10
        a(i) = i + 1
      ENDDO
      s = s + a(5)
      END
",
            true,
        );
        assert!(quiet.is_empty(), "{quiet:?}");
    }

    #[test]
    fn lint_code_parse_round_trips() {
        for c in LintCode::ALL {
            assert_eq!(LintCode::parse(c.code()), Some(c));
            assert_eq!(LintCode::parse(c.slug()), Some(c));
        }
        assert_eq!(LintCode::parse("p007"), Some(LintCode::InfeasibleGuard));
        assert_eq!(LintCode::parse("P042"), None);
    }

    #[test]
    fn lints_are_sorted_and_deduped() {
        let l = lints_of(
            "
      PROGRAM t
      REAL a(10)
      DO i = 1, 10
        a(i*i) = a(i*i) + 1.0
      ENDDO
      CALL f(a, a)
      END
      SUBROUTINE f(x, y)
      REAL x(10), y(10)
      x(1) = y(1)
      END
",
            true,
        );
        // One P005 (deduped across read+write of the same expr), one P001.
        let codes: Vec<&str> = l.iter().map(|x| x.code.code()).collect();
        assert_eq!(codes, vec!["P005", "P001"]);
        let mut sorted = l.clone();
        sorted.sort_by(|a, b| {
            (a.routine.as_str(), a.line, a.code, a.message.as_str()).cmp(&(
                b.routine.as_str(),
                b.line,
                b.code,
                b.message.as_str(),
            ))
        });
        assert_eq!(l, sorted);
    }
}
