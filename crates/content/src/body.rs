//! Per-iteration coverage facts for one DO-loop body.
//!
//! [`analyze_loop_body`] walks the body of a candidate loop once,
//! forward, and answers two questions for the dataflow analyzer:
//!
//! * **coverage** — is every read of array `a` in the body preceded, in
//!   the *same* iteration, by a definition of the elements it reads? If
//!   so the loop's UE₍i₎ entry for `a` is refutable (the backward pass
//!   over-approximates reads whose guards it cannot represent —
//!   array-element guards in particular).
//! * **full definition** — does every iteration definitely write every
//!   declared element of `a`? If so a live-after privatized `a` needs
//!   no FIRSTPRIVATE seeding: the final iteration rewrites the whole
//!   array before LASTPRIVATE copies it out.
//!
//! Three coverage mechanisms, all must-based:
//!
//! 1. plain must-definitions accumulated in statement order (inner-loop
//!    definitions are expanded over the loop range with [`gar::expand`]
//!    when the loop provably executes, and only *after* the loop
//!    closes);
//! 2. same-level guarded writes matched against reads under the
//!    *syntactically identical* guard;
//! 3. per-element guarantees: `IF (g(k)) a(k) = …` inside `DO k` covers
//!    a later `IF (g(j)) … a(j)` inside `DO j` when the guard and
//!    subscript templates agree after index canonicalization, the read
//!    loop's range is contained in the write loop's, and nothing in the
//!    body assigns any variable the guard mentions.
//!
//! The walk *refuses* (decides nothing) on CALL, GOTO, RETURN and STOP
//! anywhere in the body, and degrades to ⊤ when the step budget runs
//! out.

use crate::conv::{canon, canon_subs, collect_assigned, names_of, region_of, to_sym, Ctx};
use fortran::{Expr as FExpr, LValue, Stmt, StmtKind, SymbolTable, UnOp};
use gar::{expand_list, Gar, GarList, LoopCtx};
use pred::Pred;
use region::{prove_le, Dim, Region};
use std::collections::{BTreeMap, BTreeSet};
use sym::Expr;
use vrange::Budget;

/// One inner loop on the walk stack.
struct LoopSpec {
    var: String,
    lo: Option<Expr>,
    hi: Option<Expr>,
    /// Unit step (only unit-step inner loops contribute guarantees).
    unit: bool,
}

/// A per-element guarantee from a (possibly guarded) write inside an
/// inner loop: for every index value in `[lo, hi]`, if the guard
/// template holds at that index, the subscript template is defined.
struct ElemG {
    array: String,
    /// Canonical guard text with the loop index replaced by `%`
    /// (empty string = unconditional).
    guard: String,
    /// Canonical subscript-tuple text with the index replaced by `%`.
    subs: String,
    lo: Expr,
    hi: Expr,
}

/// Read/coverage tallies for one array.
#[derive(Default)]
struct ArrFacts {
    reads: usize,
    uncovered: usize,
    details: Vec<String>,
}

/// The result of [`analyze_loop_body`].
pub struct BodyFacts {
    ok: bool,
    degraded: bool,
    arrays: BTreeMap<String, ArrFacts>,
    /// Per-iteration top-level must-defined regions, outer index symbolic.
    must: BTreeMap<String, GarList>,
}

impl BodyFacts {
    /// `Some(detail)` when every read of `array` in the body is covered
    /// by a prior same-iteration definition — i.e. the loop's UE₍i₎
    /// entry for `array` is refuted. `None` when the body had no reads
    /// of the array (nothing to refute), any read was uncovered, or the
    /// walk refused/degraded.
    pub fn covers_reads(&self, array: &str) -> Option<String> {
        if !self.ok || self.degraded {
            return None;
        }
        let f = self.arrays.get(array)?;
        if f.reads == 0 || f.uncovered != 0 {
            return None;
        }
        let mut ds: Vec<&str> = f.details.iter().map(String::as_str).collect();
        ds.dedup();
        Some(format!(
            "{} read{} covered: {}",
            f.reads,
            if f.reads == 1 { "" } else { "s" },
            ds.join("; ")
        ))
    }

    /// `Some(detail)` when every iteration must-writes every declared
    /// element of `array` (`bounds` are the declared per-dimension
    /// constant bounds).
    pub fn fully_defines(&self, array: &str, bounds: &[(i64, i64)]) -> Option<String> {
        if !self.ok || self.degraded || bounds.is_empty() {
            return None;
        }
        let must = self.must.get(array)?;
        let declared = Region::new(
            bounds
                .iter()
                .map(|&(lo, hi)| Dim::contiguous(Expr::from(lo), Expr::from(hi)))
                .collect(),
        );
        let rem = GarList::single(Gar::new(Pred::tru(), declared.clone())).subtract(must);
        if rem.definitely_empty() {
            Some(format!("every iteration writes all of {array}{declared}"))
        } else {
            None
        }
    }

    /// `true` when the walk refused (unmodelled control flow) or ran out
    /// of budget; all queries answer `None` in that case.
    pub fn degraded(&self) -> bool {
        !self.ok || self.degraded
    }

    /// `true` when the walk refused outright on unmodelled control flow
    /// (CALL, GOTO, RETURN or STOP in the body).
    pub fn refused(&self) -> bool {
        !self.ok
    }

    /// `true` when the step budget ran out mid-walk (precision lost to
    /// exhaustion rather than to a refused construct).
    pub fn out_of_budget(&self) -> bool {
        self.degraded
    }
}

/// Analyzes one DO-loop body. `outer_var` is the loop's own index;
/// `enclosing` lists indices of loops surrounding it (kept symbolic).
pub fn analyze_loop_body(
    body: &[Stmt],
    outer_var: &str,
    enclosing: &BTreeSet<String>,
    table: &SymbolTable,
    budget: &Budget,
) -> BodyFacts {
    let _span = trace::span("content:body");
    let mut loop_vars = enclosing.clone();
    loop_vars.insert(outer_var.to_string());
    let mut assigned = BTreeSet::new();
    collect_assigned(body, &mut assigned);
    let mut w = BodyWalk {
        table,
        budget,
        loop_vars,
        consts: BTreeMap::new(),
        assigned,
        ok: true,
        degraded: false,
        must_stack: vec![BTreeMap::new()],
        loop_stack: Vec::new(),
        guard_stack: Vec::new(),
        guarded: BTreeMap::new(),
        elems: Vec::new(),
        arrays: BTreeMap::new(),
    };
    w.walk(body);
    trace::add("content:body_arrays", w.arrays.len() as u64);
    BodyFacts {
        ok: w.ok,
        degraded: w.degraded,
        arrays: w.arrays,
        must: w.must_stack.swap_remove(0),
    }
}

struct BodyWalk<'a> {
    table: &'a SymbolTable,
    budget: &'a Budget,
    loop_vars: BTreeSet<String>,
    consts: BTreeMap<String, i64>,
    assigned: BTreeSet<String>,
    ok: bool,
    degraded: bool,
    /// Scoped must-defined maps: one level per open inner loop. Writes
    /// land in the innermost level; a level is expanded over its loop
    /// range and merged down only when the loop closes, so reads inside
    /// the loop never see iterations that have not happened yet.
    must_stack: Vec<BTreeMap<String, GarList>>,
    loop_stack: Vec<LoopSpec>,
    guard_stack: Vec<FExpr>,
    /// Same-level guarded must-writes: canonical guard → array → regions.
    guarded: BTreeMap<String, BTreeMap<String, GarList>>,
    elems: Vec<ElemG>,
    arrays: BTreeMap<String, ArrFacts>,
}

impl BodyWalk<'_> {
    fn ctx(&self) -> Ctx<'_> {
        Ctx {
            table: self.table,
            loop_vars: &self.loop_vars,
            consts: &self.consts,
        }
    }

    fn step(&mut self) -> bool {
        if !self.budget.step() {
            self.degraded = true;
        }
        !self.degraded && self.ok
    }

    fn walk(&mut self, stmts: &[Stmt]) {
        for s in stmts {
            if !self.step() {
                return;
            }
            match &s.kind {
                StmtKind::Assign(lv, rhs) => {
                    self.reads_of(rhs);
                    match lv {
                        LValue::Element(name, subs) => {
                            for sub in subs {
                                self.reads_of(sub);
                            }
                            if self.table.is_array(name) {
                                self.write(name, subs);
                            }
                        }
                        LValue::Var(name) => {
                            // Scalar constant tracking, straight-line only.
                            let c = if self.guard_stack.is_empty() && self.loop_stack.is_empty() {
                                to_sym(rhs, &self.ctx()).and_then(|e| e.as_const())
                            } else {
                                None
                            };
                            match c {
                                Some(v) => {
                                    self.consts.insert(name.clone(), v);
                                }
                                None => {
                                    self.consts.remove(name);
                                }
                            }
                        }
                    }
                }
                StmtKind::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    self.reads_of(cond);
                    self.guard_stack.push(cond.clone());
                    self.walk(then_body);
                    self.guard_stack.pop();
                    if !else_body.is_empty() {
                        self.guard_stack
                            .push(FExpr::Un(UnOp::Not, Box::new(cond.clone())));
                        self.walk(else_body);
                        self.guard_stack.pop();
                    }
                }
                StmtKind::LogicalIf(cond, inner) => {
                    self.reads_of(cond);
                    self.guard_stack.push(cond.clone());
                    self.walk(std::slice::from_ref(inner));
                    self.guard_stack.pop();
                }
                StmtKind::Do {
                    var,
                    lo,
                    hi,
                    step,
                    body,
                } => {
                    self.reads_of(lo);
                    self.reads_of(hi);
                    if let Some(st) = step {
                        self.reads_of(st);
                    }
                    self.walk_do(var, lo, hi, step.as_ref(), body);
                }
                StmtKind::Continue => {}
                // Unmodelled control flow: refuse everything.
                StmtKind::Call(..) | StmtKind::Goto(_) | StmtKind::Return | StmtKind::Stop => {
                    self.ok = false;
                    return;
                }
            }
        }
    }

    fn walk_do(&mut self, var: &str, lo: &FExpr, hi: &FExpr, step: Option<&FExpr>, body: &[Stmt]) {
        let unit = match step {
            None => true,
            Some(s) => to_sym(s, &self.ctx()).and_then(|e| e.as_const()) == Some(1),
        };
        // Bound expressions are only usable when nothing in the body (or
        // a sibling inner loop) reassigns their free variables.
        let stable = |e: &FExpr| {
            let mut ns = BTreeSet::new();
            names_of(e, &mut ns);
            ns.iter().all(|n| !self.assigned.contains(n))
        };
        let lo_sym = if stable(lo) {
            to_sym(lo, &self.ctx())
        } else {
            None
        };
        let hi_sym = if stable(hi) {
            to_sym(hi, &self.ctx())
        } else {
            None
        };
        let trip = match (&lo_sym, &hi_sym) {
            (Some(l), Some(h)) => prove_le(&Pred::tru(), l, h),
            _ => false,
        };
        self.loop_stack.push(LoopSpec {
            var: var.to_string(),
            lo: lo_sym.clone(),
            hi: hi_sym.clone(),
            unit,
        });
        let was_loop_var = self.loop_vars.insert(var.to_string());
        self.consts.remove(var);
        self.must_stack.push(BTreeMap::new());
        self.walk(body);
        let scope = self.must_stack.pop().expect("scope pushed above");
        // Expand the inner scope over the closed loop's full range; only
        // provably-executing unit-step loops with representable bounds
        // contribute must evidence to the enclosing level.
        if unit && trip {
            if let (Some(l), Some(h)) = (lo_sym, hi_sym) {
                let lctx = LoopCtx::new(var, l, h);
                let parent = self.must_stack.last_mut().expect("root scope");
                for (name, list) in scope {
                    let expanded = expand_list(&list, &lctx);
                    let must = GarList::from_gars(expanded.must_view().cloned());
                    if !must.is_empty() {
                        let e = parent.entry(name).or_insert_with(GarList::empty);
                        *e = e.union(&must);
                    }
                }
            }
        }
        if !was_loop_var {
            self.loop_vars.remove(var);
        }
        self.loop_stack.pop();
    }

    /// A write of `name(subs…)` at the current guard/loop position.
    fn write(&mut self, name: &str, subs: &[FExpr]) {
        if !self.step() {
            return;
        }
        let region = region_of(subs, &self.ctx());
        let exact = region.is_exact();
        if self.guard_stack.is_empty() {
            if exact {
                let top = self.must_stack.last_mut().expect("root scope");
                let e = top.entry(name.to_string()).or_insert_with(GarList::empty);
                *e = e.union_gar(Gar::new(Pred::tru(), region.clone()));
            }
            // Unconditional writes in a unit inner loop also yield an
            // index-canonical per-element guarantee (covers reads under a
            // differently-named index in a later loop).
            if let [spec] = &self.loop_stack[..] {
                if exact && spec.unit {
                    if let (Some(l), Some(h)) = (&spec.lo, &spec.hi) {
                        self.elems.push(ElemG {
                            array: name.to_string(),
                            guard: String::new(),
                            subs: canon_subs(subs, Some(&spec.var)),
                            lo: l.clone(),
                            hi: h.clone(),
                        });
                    }
                }
            }
            return;
        }
        if !exact || self.guard_stack.len() != 1 {
            return;
        }
        let g = self.guard_stack[0].clone();
        match &self.loop_stack[..] {
            [] if self.guard_usable(&g, None) => {
                let key = canon(&g, None);
                let e = self
                    .guarded
                    .entry(key)
                    .or_default()
                    .entry(name.to_string())
                    .or_insert_with(GarList::empty);
                *e = e.union_gar(Gar::new(Pred::tru(), region));
            }
            [spec] if spec.unit && self.guard_usable(&g, Some(&spec.var)) => {
                if let (Some(l), Some(h)) = (&spec.lo, &spec.hi) {
                    self.elems.push(ElemG {
                        array: name.to_string(),
                        guard: canon(&g, Some(&spec.var)),
                        subs: canon_subs(subs, Some(&spec.var)),
                        lo: l.clone(),
                        hi: h.clone(),
                    });
                }
            }
            _ => {}
        }
    }

    /// A guard template is only sound to match across program points if
    /// nothing in the body assigns any name it mentions (the matched
    /// loop index, canonicalized away, excepted).
    fn guard_usable(&self, g: &FExpr, idx: Option<&str>) -> bool {
        let mut ns = BTreeSet::new();
        names_of(g, &mut ns);
        ns.iter()
            .all(|n| Some(n.as_str()) == idx || !self.assigned.contains(n))
    }

    /// Registers every array read inside `e` and checks coverage.
    fn reads_of(&mut self, e: &FExpr) {
        match e {
            FExpr::Index(name, subs) => {
                for s in subs {
                    self.reads_of(s);
                }
                if self.table.is_array(name) {
                    let name = name.clone();
                    let subs = subs.clone();
                    self.read(&name, &subs);
                }
            }
            FExpr::Bin(_, a, b) => {
                self.reads_of(a);
                self.reads_of(b);
            }
            FExpr::Un(_, a) => self.reads_of(a),
            _ => {}
        }
    }

    fn read(&mut self, name: &str, subs: &[FExpr]) {
        if !self.step() {
            return;
        }
        let region = region_of(subs, &self.ctx());
        let covered = self.covered(name, subs, &region);
        let f = self.arrays.entry(name.to_string()).or_default();
        f.reads += 1;
        match covered {
            Some(d) => {
                if f.details.len() < 8 {
                    f.details.push(d);
                }
            }
            None => f.uncovered += 1,
        }
    }

    fn covered(&self, name: &str, subs: &[FExpr], region: &Region) -> Option<String> {
        if !region.is_exact() {
            return None;
        }
        // 1. Plain must coverage from any open scope.
        let mut rem = GarList::single(Gar::new(Pred::tru(), region.clone()));
        for scope in &self.must_stack {
            if let Some(m) = scope.get(name) {
                rem = rem.subtract(m);
                if rem.definitely_empty() {
                    return Some(format!("{name}{region} defined earlier in the iteration"));
                }
            }
        }
        // 2. Same-level guarded coverage: read under the syntactically
        //    identical guard as an earlier write.
        if self.loop_stack.is_empty() {
            if let [g] = &self.guard_stack[..] {
                if self.guard_usable(g, None) {
                    if let Some(m) = self
                        .guarded
                        .get(&canon(g, None))
                        .and_then(|by| by.get(name))
                    {
                        if rem.subtract(m).definitely_empty() {
                            return Some(format!(
                                "{name}{region} defined under the same guard {g}"
                            ));
                        }
                    }
                }
            }
        }
        // 3. Per-element template match across inner loops.
        if let [spec] = &self.loop_stack[..] {
            if spec.unit {
                if let (Some(rlo), Some(rhi)) = (&spec.lo, &spec.hi) {
                    let rguard = match &self.guard_stack[..] {
                        [] => Some(String::new()),
                        [g] if self.guard_usable(g, Some(&spec.var)) => {
                            Some(canon(g, Some(&spec.var)))
                        }
                        _ => None,
                    }?;
                    let rsubs = canon_subs(subs, Some(&spec.var));
                    for el in &self.elems {
                        if el.array == name
                            && el.subs == rsubs
                            && (el.guard.is_empty() || el.guard == rguard)
                            && prove_le(&Pred::tru(), &el.lo, rlo)
                            && prove_le(&Pred::tru(), rhi, &el.hi)
                        {
                            return Some(if el.guard.is_empty() {
                                format!("{name}({rsubs}) written for every index in range")
                            } else {
                                format!(
                                    "{name}({rsubs}) written under matching guard {} for every index",
                                    el.guard
                                )
                            });
                        }
                    }
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fortran::{analyze, parse_program, StmtKind};
    use vrange::DEFAULT_BUDGET;

    /// Finds the outermost DO in the first routine and analyzes its body.
    fn facts_of(src: &str) -> (BodyFacts, fortran::Routine) {
        let p = parse_program(src).unwrap();
        let sema = analyze(&p).unwrap();
        let r = p.routines[0].clone();
        let table = &sema.tables[&r.name];
        let budget = Budget::new(DEFAULT_BUDGET);
        for s in &r.body {
            if let StmtKind::Do { var, body, .. } = &s.kind {
                let f = analyze_loop_body(body, var, &BTreeSet::new(), table, &budget);
                return (f, r.clone());
            }
        }
        panic!("no DO loop in source");
    }

    #[test]
    fn plain_write_then_read_is_covered() {
        let (f, _) = facts_of(
            "
      SUBROUTINE s(a, b, n)
      REAL a(100), b(100), t(100)
      INTEGER n, i, k
      DO i = 1, n
        DO k = 1, 100
          t(k) = a(k)
        ENDDO
        DO k = 1, 100
          b(k) = t(k) * 2.0
        ENDDO
      ENDDO
      END
",
        );
        assert!(!f.degraded());
        assert!(f.covers_reads("t").is_some(), "t reads should be covered");
        assert!(f.covers_reads("a").is_none(), "a is genuinely exposed");
    }

    #[test]
    fn guarded_write_covers_same_guard_read() {
        let (f, _) = facts_of(
            "
      SUBROUTINE s(b, c, n)
      REAL b(10), c(10), w(10), s2
      INTEGER n, i, k, j
      s2 = 0.0
      DO i = 1, n
        DO k = 1, 10
          IF (c(k) .GT. 0.0) w(k) = b(k)
        ENDDO
        DO j = 1, 10
          IF (c(j) .GT. 0.0) s2 = s2 + w(j)
        ENDDO
      ENDDO
      END
",
        );
        assert!(!f.degraded());
        assert!(
            f.covers_reads("w").is_some(),
            "guard-template match should cover w"
        );
    }

    #[test]
    fn guard_mismatch_is_not_covered() {
        let (f, _) = facts_of(
            "
      SUBROUTINE s(b, c, d, n)
      REAL b(10), c(10), d(10), w(10), s2
      INTEGER n, i, k, j
      s2 = 0.0
      DO i = 1, n
        DO k = 1, 10
          IF (c(k) .GT. 0.0) w(k) = b(k)
        ENDDO
        DO j = 1, 10
          IF (d(j) .GT. 0.0) s2 = s2 + w(j)
        ENDDO
      ENDDO
      END
",
        );
        assert!(
            f.covers_reads("w").is_none(),
            "different guards must not match"
        );
    }

    #[test]
    fn guard_variable_modified_in_body_refuses_match() {
        let (f, _) = facts_of(
            "
      SUBROUTINE s(b, n)
      REAL b(10), c(10), w(10), s2
      INTEGER n, i, k, j
      s2 = 0.0
      DO i = 1, n
        DO k = 1, 10
          IF (c(k) .GT. 0.0) w(k) = b(k)
          c(k) = b(k)
        ENDDO
        DO j = 1, 10
          IF (c(j) .GT. 0.0) s2 = s2 + w(j)
        ENDDO
      ENDDO
      END
",
        );
        assert!(
            f.covers_reads("w").is_none(),
            "c changes between write and read"
        );
    }

    #[test]
    fn read_before_write_in_same_inner_loop_not_covered() {
        // w(k+1) is read before the iteration that writes it.
        let (f, _) = facts_of(
            "
      SUBROUTINE s(b, n)
      REAL b(100), w(100), s2
      INTEGER n, i, k
      s2 = 0.0
      DO i = 1, n
        DO k = 1, 99
          w(k) = b(k)
          s2 = s2 + w(k + 1)
        ENDDO
      ENDDO
      END
",
        );
        assert!(f.covers_reads("w").is_none(), "forward-reaching read leaks");
    }

    #[test]
    fn full_definition_fact() {
        let (f, _) = facts_of(
            "
      SUBROUTINE s(a, b, n, q)
      REAL a(100), b(100), w(10), q
      INTEGER n, i, k
      DO i = 1, n
        DO k = 1, 10
          w(k) = a(k) + b(k)
        ENDDO
        b(i) = w(3)
      ENDDO
      q = w(3)
      END
",
        );
        assert!(!f.degraded());
        assert!(f.fully_defines("w", &[(1, 10)]).is_some());
        assert!(f.fully_defines("w", &[(1, 11)]).is_none(), "partial cover");
    }

    #[test]
    fn call_or_goto_refuses() {
        let (f, _) = facts_of(
            "
      SUBROUTINE s(a, n)
      REAL a(100), w(10)
      INTEGER n, i, k
      DO i = 1, n
        DO k = 1, 10
          w(k) = a(k)
        ENDDO
        CALL other(w)
        a(i) = w(1)
      ENDDO
      END
      SUBROUTINE other(x)
      REAL x(10)
      x(1) = 0.0
      END
",
        );
        assert!(f.degraded());
        assert!(f.covers_reads("w").is_none());
        assert!(f.fully_defines("w", &[(1, 10)]).is_none());
    }

    #[test]
    fn budget_exhaustion_degrades_to_top() {
        let src = "
      SUBROUTINE s(a, b, n)
      REAL a(100), b(100), t(100)
      INTEGER n, i, k
      DO i = 1, n
        DO k = 1, 100
          t(k) = a(k)
        ENDDO
        DO k = 1, 100
          b(k) = t(k)
        ENDDO
      ENDDO
      END
";
        let p = parse_program(src).unwrap();
        let sema = analyze(&p).unwrap();
        let r = &p.routines[0];
        let table = &sema.tables[&r.name];
        let budget = Budget::new(2);
        for s in &r.body {
            if let StmtKind::Do { var, body, .. } = &s.kind {
                let f = analyze_loop_body(body, var, &BTreeSet::new(), table, &budget);
                assert!(f.degraded());
                assert!(f.covers_reads("t").is_none(), "degraded decides nothing");
                return;
            }
        }
    }
}
