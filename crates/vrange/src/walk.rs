//! Flow-sensitive range walk over a routine's AST — the lint-side
//! consumer of the lattice, powering P007/P008/P009.
//!
//! The walk mirrors the analyzer's forward pass but stays on the AST:
//! integer scalars are tracked through assignments, `IF` arms narrow
//! with the branch condition, `DO` loops bind the index to its trip
//! hull and clobber body-assigned scalars, and unstructured control flow
//! (`GOTO` and its targets) degrades the environment to ⊤ — imprecise
//! but never unsound.

use crate::{Budget, Interval, RangeEnv, ValueRange};
use fortran::{walk_stmts, BinOp, Expr, LValue, Routine, Stmt, StmtKind, Ty, UnOp};
use std::collections::{BTreeMap, BTreeSet};

/// Declared (lo, hi) bounds per dimension for each array of a routine,
/// constant-evaluated by semantic analysis; `None` for a symbolic or
/// assumed bound.
pub type DeclaredDims = BTreeMap<String, Vec<(Option<i64>, Option<i64>)>>;

/// One proved range fact a lint rule can report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RangeFact {
    /// Source line of the offending statement.
    pub line: u32,
    /// What was proved.
    pub kind: RangeFactKind,
}

/// The provable situations the walk reports.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RangeFactKind {
    /// P007: a guard is constant, so one arm can never execute.
    InfeasibleGuard {
        /// The condition, as written.
        cond: String,
        /// The constant truth value the pass proved.
        always: bool,
    },
    /// P008: a subscript's proved range is disjoint from the declared
    /// dimension.
    SubscriptOutOfBounds {
        /// Array name.
        array: String,
        /// 1-based dimension index.
        dim: usize,
        /// The subscript expression, as written.
        subscript: String,
        /// Its proved range.
        range: Interval,
        /// Declared bounds of the dimension.
        declared: (Option<i64>, Option<i64>),
    },
    /// P009: a `DO` loop's trip range is provably empty.
    LoopNeverExecutes {
        /// Loop index variable.
        var: String,
        /// Proved range of the lower bound.
        lo: Interval,
        /// Proved range of the upper bound.
        hi: Interval,
    },
}

struct Walker<'a> {
    dims: &'a DeclaredDims,
    budget: &'a Budget,
    int_scalars: BTreeSet<String>,
    common_scalars: BTreeSet<String>,
    goto_targets: BTreeSet<u32>,
    facts: Vec<RangeFact>,
}

/// Runs the range walk over `routine` and returns every proved fact, in
/// source order. `dims` supplies the declared array bounds (see
/// `sema::SymbolTable::declared_bounds`).
pub fn routine_facts(routine: &Routine, dims: &DeclaredDims, budget: &Budget) -> Vec<RangeFact> {
    let mut w = Walker {
        dims,
        budget,
        int_scalars: integer_scalars(routine),
        common_scalars: BTreeSet::new(),
        goto_targets: BTreeSet::new(),
        facts: Vec::new(),
    };
    for (_, names) in &routine.commons {
        for n in names {
            if w.int_scalars.contains(n) {
                w.common_scalars.insert(n.clone());
            }
        }
    }
    walk_stmts(&routine.body, &mut |s| {
        if let StmtKind::Goto(l) = &s.kind {
            w.goto_targets.insert(*l);
        }
    });
    let mut env = RangeEnv::new();
    // PARAMETER constants are immutable: evaluate them in order (later
    // ones may reference earlier ones).
    for (name, e) in &routine.parameters {
        let v = eval_ast(e, &env, budget);
        env.set(name.clone(), v);
    }
    w.walk(&routine.body, &mut env);
    w.facts
}

/// The integer scalars of a routine: explicitly declared `INTEGER`
/// names plus implicitly-typed `i`–`n` names, minus arrays.
fn integer_scalars(routine: &Routine) -> BTreeSet<String> {
    let arrays: BTreeSet<&str> = routine.arrays.iter().map(|(n, _)| n.as_str()).collect();
    let explicit: BTreeMap<&str, Ty> = routine
        .types
        .iter()
        .map(|(n, t)| (n.as_str(), *t))
        .collect();
    let mut out = BTreeSet::new();
    let mut consider = |name: &str| {
        if arrays.contains(name) {
            return;
        }
        let is_int = match explicit.get(name) {
            Some(t) => *t == Ty::Integer,
            None => matches!(name.bytes().next(), Some(b'i'..=b'n')),
        };
        if is_int {
            out.insert(name.to_string());
        }
    };
    for (n, _) in &routine.types {
        consider(n);
    }
    for n in &routine.params {
        consider(n);
    }
    for (n, _) in &routine.parameters {
        consider(n);
    }
    for (_, names) in &routine.commons {
        for n in names {
            consider(n);
        }
    }
    walk_stmts(&routine.body, &mut |s| {
        if let StmtKind::Assign(LValue::Var(v), _) = &s.kind {
            consider(v);
        }
        s.exprs(&mut |e| {
            e.walk(&mut |e| {
                if let Expr::Var(v) = e {
                    consider(v);
                }
            });
        });
    });
    out
}

impl Walker<'_> {
    fn walk(&mut self, stmts: &[Stmt], env: &mut RangeEnv) {
        for s in stmts {
            self.stmt(s, env);
        }
    }

    fn stmt(&mut self, s: &Stmt, env: &mut RangeEnv) {
        if !self.budget.step() {
            *env = RangeEnv::new();
            return;
        }
        // A GOTO target merges unknown in-edges: degrade to ⊤.
        if matches!(s.label, Some(l) if self.goto_targets.contains(&l)) {
            *env = RangeEnv::new();
        }
        // Proved-range subscript checks on this statement's expressions.
        s.exprs(&mut |e| self.check_subscripts(s.line, e, env));
        if let StmtKind::Assign(LValue::Element(name, subs), _) = &s.kind {
            self.check_element(s.line, name, subs, env);
        }
        match &s.kind {
            StmtKind::Assign(LValue::Var(v), rhs) => {
                if self.int_scalars.contains(v) {
                    let val = eval_ast(rhs, env, self.budget);
                    env.set(v.clone(), val);
                }
            }
            StmtKind::Assign(LValue::Element(..), _) => {}
            StmtKind::If {
                cond,
                then_body,
                else_body,
            } => match self.cond_value(cond, env) {
                Some(always) => {
                    let dead = if always { else_body } else { then_body };
                    if !dead.is_empty() {
                        self.facts.push(RangeFact {
                            line: s.line,
                            kind: RangeFactKind::InfeasibleGuard {
                                cond: cond.to_string(),
                                always,
                            },
                        });
                    }
                    let live = if always { then_body } else { else_body };
                    let mut live_env = env.clone();
                    refine(&mut live_env, cond, always, self.budget);
                    self.walk(live, &mut live_env);
                    *env = live_env;
                }
                None => {
                    let mut t_env = env.clone();
                    refine(&mut t_env, cond, true, self.budget);
                    self.walk(then_body, &mut t_env);
                    let mut f_env = env.clone();
                    refine(&mut f_env, cond, false, self.budget);
                    self.walk(else_body, &mut f_env);
                    *env = t_env.join(&f_env);
                }
            },
            StmtKind::LogicalIf(cond, inner) => match self.cond_value(cond, env) {
                Some(true) => self.stmt(inner, env),
                Some(false) => {
                    self.facts.push(RangeFact {
                        line: s.line,
                        kind: RangeFactKind::InfeasibleGuard {
                            cond: cond.to_string(),
                            always: false,
                        },
                    });
                }
                None => {
                    let mut t_env = env.clone();
                    refine(&mut t_env, cond, true, self.budget);
                    self.stmt(inner, &mut t_env);
                    *env = t_env.join(env);
                }
            },
            StmtKind::Do {
                var,
                lo,
                hi,
                step,
                body,
            } => {
                let l = eval_ast(lo, env, self.budget).interval;
                let h = eval_ast(hi, env, self.budget).interval;
                let st = step.as_ref().map_or(Some(1), |e| {
                    eval_ast(e, env, self.budget).interval.as_const()
                });
                let empty_trip = match st {
                    Some(c) if c > 0 => matches!((l.lo, h.hi), (Some(a), Some(b)) if a > b),
                    Some(c) if c < 0 => matches!((l.hi, h.lo), (Some(a), Some(b)) if a < b),
                    _ => false,
                };
                if empty_trip {
                    self.facts.push(RangeFact {
                        line: s.line,
                        kind: RangeFactKind::LoopNeverExecutes {
                            var: var.clone(),
                            lo: l,
                            hi: h,
                        },
                    });
                    // The body is dead; the index still gets its
                    // initial value.
                    env.set(var.clone(), ValueRange::of_interval(l));
                    return;
                }
                let mut body_env = env.clone();
                for v in assigned_scalars(body, &self.int_scalars, &self.common_scalars) {
                    body_env.forget(&v);
                }
                let hull = match st {
                    Some(c) if c > 0 => Interval::new(l.lo, h.hi),
                    Some(c) if c < 0 => Interval::new(h.lo, l.hi),
                    _ => Interval::new(
                        match (l.lo, h.lo) {
                            (Some(a), Some(b)) => Some(a.min(b)),
                            _ => None,
                        },
                        match (l.hi, h.hi) {
                            (Some(a), Some(b)) => Some(a.max(b)),
                            _ => None,
                        },
                    ),
                };
                body_env.set(var.clone(), ValueRange::of_interval(hull));
                self.walk(body, &mut body_env);
                // After the loop: body-assigned scalars and the index
                // are unknown; everything else keeps its entry range.
                *env = {
                    let mut out = env.clone();
                    for v in assigned_scalars(body, &self.int_scalars, &self.common_scalars) {
                        out.forget(&v);
                    }
                    out.forget(var);
                    out
                };
            }
            StmtKind::Call(_, args) => {
                // By-reference actuals and COMMON scalars may change.
                for a in args {
                    if let Expr::Var(v) = a {
                        env.forget(v);
                    }
                }
                let commons: Vec<String> = self.common_scalars.iter().cloned().collect();
                for v in commons {
                    env.forget(&v);
                }
            }
            StmtKind::Goto(_) => {
                // Fallthrough is dead; the next live point is a target
                // label, which resets the env anyway.
                *env = RangeEnv::new();
            }
            StmtKind::Return | StmtKind::Continue | StmtKind::Stop => {}
        }
    }

    fn check_subscripts(&mut self, line: u32, e: &Expr, env: &RangeEnv) {
        let mut elements = Vec::new();
        e.walk(&mut |node| {
            if let Expr::Index(name, subs) = node {
                elements.push((name, subs));
            }
        });
        for (name, subs) in elements {
            self.check_element(line, name, subs, env);
        }
    }

    fn check_element(&mut self, line: u32, name: &str, subs: &[Expr], env: &RangeEnv) {
        let Some(dims) = self.dims.get(name) else {
            return;
        };
        for (k, sub) in subs.iter().enumerate() {
            let Some((dlo, dhi)) = dims.get(k).copied() else {
                continue;
            };
            let r = eval_ast(sub, env, self.budget).interval;
            if r.is_empty() {
                continue;
            }
            let below = matches!((r.hi, dlo), (Some(h), Some(l)) if h < l);
            let above = matches!((r.lo, dhi), (Some(l), Some(h)) if l > h);
            if below || above {
                self.facts.push(RangeFact {
                    line,
                    kind: RangeFactKind::SubscriptOutOfBounds {
                        array: name.to_string(),
                        dim: k + 1,
                        subscript: sub.to_string(),
                        range: r,
                        declared: (dlo, dhi),
                    },
                });
            }
        }
    }

    /// Three-valued truth of a condition under `env`.
    fn cond_value(&self, e: &Expr, env: &RangeEnv) -> Option<bool> {
        if !self.budget.step() {
            return None;
        }
        match e {
            Expr::Logical(b) => Some(*b),
            Expr::Un(UnOp::Not, a) => self.cond_value(a, env).map(|b| !b),
            Expr::Bin(op, a, b) if op.is_logical() => {
                let (va, vb) = (self.cond_value(a, env), self.cond_value(b, env));
                match op {
                    BinOp::And => match (va, vb) {
                        (Some(false), _) | (_, Some(false)) => Some(false),
                        (Some(true), Some(true)) => Some(true),
                        _ => None,
                    },
                    _ => match (va, vb) {
                        (Some(true), _) | (_, Some(true)) => Some(true),
                        (Some(false), Some(false)) => Some(false),
                        _ => None,
                    },
                }
            }
            Expr::Bin(op, a, b) if op.is_relational() => {
                let ra = eval_ast(a, env, self.budget);
                let rb = eval_ast(b, env, self.budget);
                decide_relation(*op, &ra, &rb)
            }
            _ => None,
        }
    }
}

/// Decides `a op b` when the proved ranges separate the operands.
fn decide_relation(op: BinOp, a: &ValueRange, b: &ValueRange) -> Option<bool> {
    let (ai, bi) = (a.interval, b.interval);
    if ai.is_empty() || bi.is_empty() {
        return None;
    }
    let lt = matches!((ai.hi, bi.lo), (Some(x), Some(y)) if x < y);
    let le = matches!((ai.hi, bi.lo), (Some(x), Some(y)) if x <= y);
    let gt = matches!((ai.lo, bi.hi), (Some(x), Some(y)) if x > y);
    let ge = matches!((ai.lo, bi.hi), (Some(x), Some(y)) if x >= y);
    match op {
        BinOp::Lt => {
            if lt {
                Some(true)
            } else if ge {
                Some(false)
            } else {
                None
            }
        }
        BinOp::Le => {
            if le {
                Some(true)
            } else if gt {
                Some(false)
            } else {
                None
            }
        }
        BinOp::Gt => {
            if gt {
                Some(true)
            } else if le {
                Some(false)
            } else {
                None
            }
        }
        BinOp::Ge => {
            if ge {
                Some(true)
            } else if lt {
                Some(false)
            } else {
                None
            }
        }
        BinOp::Eq => {
            if let (Some(x), Some(y)) = (a.as_const(), b.as_const()) {
                Some(x == y)
            } else if lt || gt || a.congruence.disjoint(&b.congruence) {
                Some(false)
            } else {
                None
            }
        }
        BinOp::Ne => decide_relation(BinOp::Eq, a, b).map(|v| !v),
        _ => None,
    }
}

/// Narrows `env` assuming `cond == holds`, for the simple shapes
/// `var REL expr` / `expr REL var` and their `.AND.`/`.OR.`/`.NOT.`
/// combinations.
fn refine(env: &mut RangeEnv, cond: &Expr, holds: bool, budget: &Budget) {
    match cond {
        Expr::Un(UnOp::Not, a) => refine(env, a, !holds, budget),
        Expr::Bin(BinOp::And, a, b) if holds => {
            refine(env, a, true, budget);
            refine(env, b, true, budget);
        }
        Expr::Bin(BinOp::Or, a, b) if !holds => {
            refine(env, a, false, budget);
            refine(env, b, false, budget);
        }
        Expr::Bin(op, a, b) if op.is_relational() => {
            // Normalize to `var op bound`.
            let (var, bound, op) = match (a.as_ref(), b.as_ref()) {
                (Expr::Var(v), e) => (v, e, *op),
                (e, Expr::Var(v)) => (v, e, flip(*op)),
                _ => return,
            };
            let r = eval_ast(bound, env, budget).interval;
            if r.is_empty() {
                return;
            }
            let op = if holds { op } else { negate(op) };
            let cur = env.get(var);
            let constraint = match op {
                // var < e with e <= r.hi ⇒ var <= r.hi - 1
                BinOp::Lt => Interval::new(None, r.hi.and_then(|h| h.checked_sub(1))),
                BinOp::Le => Interval::new(None, r.hi),
                BinOp::Gt => Interval::new(r.lo.and_then(|l| l.checked_add(1)), None),
                BinOp::Ge => Interval::new(r.lo, None),
                BinOp::Eq => r,
                _ => return,
            };
            let narrowed = ValueRange {
                interval: cur.interval.meet(&constraint),
                congruence: cur.congruence,
            };
            // An empty meet means this arm is infeasible; keep the
            // narrowed (empty) interval out of the env — the caller
            // decides feasibility through `cond_value`, not here.
            if !narrowed.interval.is_empty() {
                env.set(var.clone(), narrowed);
            }
        }
        _ => {}
    }
}

fn flip(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

fn negate(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Ge,
        BinOp::Le => BinOp::Gt,
        BinOp::Gt => BinOp::Le,
        BinOp::Ge => BinOp::Lt,
        BinOp::Eq => BinOp::Ne,
        BinOp::Ne => BinOp::Eq,
        other => other,
    }
}

/// Integer scalars assigned (or clobbered through CALLs) anywhere in
/// `stmts`.
fn assigned_scalars(
    stmts: &[Stmt],
    int_scalars: &BTreeSet<String>,
    common_scalars: &BTreeSet<String>,
) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    walk_stmts(stmts, &mut |s| match &s.kind {
        StmtKind::Assign(LValue::Var(v), _) if int_scalars.contains(v) => {
            out.insert(v.clone());
        }
        StmtKind::Do { var, .. } if int_scalars.contains(var) => {
            out.insert(var.clone());
        }
        StmtKind::Call(_, args) => {
            for a in args {
                if let Expr::Var(v) = a {
                    if int_scalars.contains(v) {
                        out.insert(v.clone());
                    }
                }
            }
            out.extend(common_scalars.iter().cloned());
        }
        _ => {}
    });
    out
}

/// Evaluates an AST expression to a [`ValueRange`] under `env`.
/// Non-integer and opaque constructs answer ⊤.
pub fn eval_ast(e: &Expr, env: &RangeEnv, budget: &Budget) -> ValueRange {
    if !budget.step() {
        return ValueRange::TOP;
    }
    match e {
        Expr::Int(c) => ValueRange::constant(*c),
        Expr::Real(_) | Expr::Logical(_) | Expr::Index(..) => ValueRange::TOP,
        Expr::Var(v) => env.get(v),
        Expr::Un(UnOp::Neg, a) => eval_ast(a, env, budget).neg(),
        Expr::Un(UnOp::Not, _) => ValueRange::TOP,
        Expr::Bin(op, a, b) => {
            let (ra, rb) = (eval_ast(a, env, budget), eval_ast(b, env, budget));
            match op {
                BinOp::Add => ra.add(&rb),
                BinOp::Sub => ra.sub(&rb),
                BinOp::Mul => ra.mul(&rb),
                BinOp::Div => match (ra.as_const(), rb.as_const()) {
                    (Some(x), Some(y)) => x
                        .checked_div(y)
                        .map_or(ValueRange::TOP, ValueRange::constant),
                    _ => ValueRange::TOP,
                },
                BinOp::Pow => match (ra.as_const(), rb.as_const()) {
                    (Some(x), Some(y)) if (0..=16).contains(&y) => x
                        .checked_pow(y as u32)
                        .map_or(ValueRange::TOP, ValueRange::constant),
                    _ => ValueRange::TOP,
                },
                _ => ValueRange::TOP,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fortran::{parse_program, DimBound};

    fn facts_of(src: &str) -> Vec<RangeFact> {
        let program = parse_program(src).expect("parse");
        let routine = &program.routines[0];
        let mut dims = DeclaredDims::new();
        for (name, bounds) in &routine.arrays {
            let ds = bounds
                .iter()
                .map(|b| match b {
                    DimBound::Upper(Expr::Int(n)) => (Some(1), Some(*n)),
                    DimBound::Both(Expr::Int(l), Expr::Int(h)) => (Some(*l), Some(*h)),
                    _ => (Some(1), None),
                })
                .collect();
            dims.insert(name.clone(), ds);
        }
        routine_facts(routine, &dims, &Budget::default())
    }

    #[test]
    fn infeasible_guard_detected() {
        let facts = facts_of(
            "      SUBROUTINE S(A)\n\
                   REAL A(100)\n\
                   N = 5\n\
                   IF (N .GT. 10) THEN\n\
                     A(1) = 0.0\n\
                   ELSE\n\
                     A(2) = 0.0\n\
                   ENDIF\n\
                   END\n",
        );
        assert_eq!(facts.len(), 1, "{facts:?}");
        assert!(matches!(
            &facts[0].kind,
            RangeFactKind::InfeasibleGuard { always: false, .. }
        ));
    }

    #[test]
    fn branch_join_not_constant() {
        // After the join m ∈ [1,2]: neither arm of the second IF is
        // provably dead.
        let facts = facts_of(
            "      SUBROUTINE S(A, K)\n\
                   REAL A(100)\n\
                   IF (K .GT. 0) THEN\n\
                     M = 1\n\
                   ELSE\n\
                     M = 2\n\
                   ENDIF\n\
                   IF (M .GT. 0) THEN\n\
                     A(M) = 0.0\n\
                   ENDIF\n\
                   END\n",
        );
        // M > 0 is provable from the join [1,2] — the ELSE arm is dead,
        // but it is empty, so no fact fires.
        assert!(facts.is_empty(), "{facts:?}");
    }

    #[test]
    fn subscript_out_of_bounds_detected() {
        let facts = facts_of(
            "      SUBROUTINE S(A)\n\
                   REAL A(100)\n\
                   N = 150\n\
                   A(N) = 0.0\n\
                   END\n",
        );
        assert_eq!(facts.len(), 1, "{facts:?}");
        match &facts[0].kind {
            RangeFactKind::SubscriptOutOfBounds {
                array,
                dim,
                declared,
                ..
            } => {
                assert_eq!(array, "a");
                assert_eq!(*dim, 1);
                assert_eq!(*declared, (Some(1), Some(100)));
            }
            other => panic!("unexpected fact {other:?}"),
        }
    }

    #[test]
    fn loop_index_range_checks_subscripts() {
        let facts = facts_of(
            "      SUBROUTINE S(A)\n\
                   REAL A(100)\n\
                   DO 10 I = 1, 50\n\
                     A(I + 200) = 0.0\n\
                10 CONTINUE\n\
                   END\n",
        );
        assert_eq!(facts.len(), 1, "{facts:?}");
        assert!(matches!(
            &facts[0].kind,
            RangeFactKind::SubscriptOutOfBounds { dim: 1, .. }
        ));
    }

    #[test]
    fn empty_trip_loop_detected() {
        let facts = facts_of(
            "      SUBROUTINE S(A)\n\
                   REAL A(100)\n\
                   N = 0\n\
                   DO 10 I = 1, N\n\
                     A(I) = 0.0\n\
                10 CONTINUE\n\
                   END\n",
        );
        assert_eq!(facts.len(), 1, "{facts:?}");
        assert!(matches!(
            &facts[0].kind,
            RangeFactKind::LoopNeverExecutes { .. }
        ));
    }

    #[test]
    fn goto_degrades_to_top() {
        // The backward GOTO forms a loop: n's range must not stick.
        let facts = facts_of(
            "      SUBROUTINE S(A)\n\
                   REAL A(100)\n\
                   N = 150\n\
                20 N = N - 100\n\
                   A(N) = 0.0\n\
                   IF (N .GT. 0) GOTO 20\n\
                   END\n",
        );
        assert!(facts.is_empty(), "{facts:?}");
    }

    #[test]
    fn narrowing_refines_arms() {
        let facts = facts_of(
            "      SUBROUTINE S(A, N)\n\
                   REAL A(100)\n\
                   IF (N .GT. 100) THEN\n\
                     A(N) = 0.0\n\
                   ENDIF\n\
                   END\n",
        );
        assert_eq!(facts.len(), 1, "narrowed N > 100 escapes A(100): {facts:?}");
        assert!(matches!(
            &facts[0].kind,
            RangeFactKind::SubscriptOutOfBounds { .. }
        ));
    }

    #[test]
    fn call_clobbers_actuals() {
        let facts = facts_of(
            "      SUBROUTINE S(A)\n\
                   REAL A(100)\n\
                   N = 150\n\
                   CALL F(N)\n\
                   A(N) = 0.0\n\
                   END\n",
        );
        assert!(facts.is_empty(), "{facts:?}");
    }

    #[test]
    fn zero_budget_reports_nothing() {
        let program = parse_program(
            "      SUBROUTINE S(A)\n\
                   REAL A(100)\n\
                   N = 150\n\
                   A(N) = 0.0\n\
                   END\n",
        )
        .expect("parse");
        let routine = &program.routines[0];
        let mut dims = DeclaredDims::new();
        dims.insert("a".into(), vec![(Some(1), Some(100))]);
        let b = Budget::new(0);
        let facts = routine_facts(routine, &dims, &b);
        assert!(facts.is_empty(), "exhausted budget invented facts");
        assert!(b.degraded());
    }
}
