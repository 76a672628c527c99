//! Conversion of Fortran expressions into symbolic expressions, regions
//! and guard predicates, under a forward value environment.

use crate::scalars::{CounterFact, ValueEnv};
use fortran::{BinOp, Expr as FExpr, SymbolTable, Ty, UnOp};
use pred::{Atom, CondTemplate, Disj, Pred, RelOp};
use region::{Dim, Region};
use std::collections::{BTreeMap, BTreeSet};
use sym::{Expr, Name};

/// Everything conversion needs to know.
pub struct ConvertCtx<'a> {
    /// The routine's symbol table.
    pub table: &'a SymbolTable,
    /// The forward value environment at the conversion point.
    pub env: &'a ValueEnv,
    /// T1: symbolic expressions allowed.
    pub symbolic: bool,
    /// Loop indices currently in scope (always representable, even with T1
    /// off — conventional dependence analysis handles loop indices).
    pub loop_vars: &'a BTreeSet<String>,
    /// Registered conditional-counter facts (∀-extension).
    pub facts: &'a BTreeMap<String, CounterFact>,
}

impl ConvertCtx<'_> {
    /// Is the expression representable under the T1 setting? With T1 off
    /// only constants and in-scope loop indices may appear.
    fn representable(&self, e: &Expr) -> bool {
        if self.symbolic {
            return true;
        }
        e.vars().iter().all(|v| self.loop_vars.contains(v.as_str()))
    }
}

/// Converts an integer-valued Fortran expression to a symbolic expression,
/// entry-relative via the value environment. `None` when not representable.
pub fn to_sym(e: &FExpr, ctx: &ConvertCtx) -> Option<Expr> {
    let out = to_sym_inner(e, ctx)?;
    if ctx.representable(&out) {
        Some(out)
    } else {
        None
    }
}

fn to_sym_inner(e: &FExpr, ctx: &ConvertCtx) -> Option<Expr> {
    match e {
        FExpr::Int(v) => Some(Expr::from(*v)),
        FExpr::Var(n) => {
            // PARAMETER constants fold to their (integer) value.
            if let Some(c) = ctx.table.constant(n) {
                return to_sym_inner(c, ctx);
            }
            match ctx.table.scalar_ty(n) {
                Some(Ty::Integer) => Some(ctx.env.int_value(n)),
                _ => None,
            }
        }
        FExpr::Bin(op, a, b) => {
            let (a, b) = (to_sym_inner(a, ctx)?, to_sym_inner(b, ctx)?);
            match op {
                BinOp::Add => a.try_add(&b),
                BinOp::Sub => a.try_sub(&b),
                BinOp::Mul => a.try_mul(&b),
                BinOp::Div => {
                    let c = b.as_const()?;
                    a.div_exact(c)
                }
                BinOp::Pow => {
                    let p = b.as_const()?;
                    if !(0..=3).contains(&p) {
                        return None;
                    }
                    let mut acc = Expr::one();
                    for _ in 0..p {
                        acc = acc.try_mul(&a)?;
                    }
                    Some(acc)
                }
                _ => None,
            }
        }
        FExpr::Un(UnOp::Neg, a) => to_sym_inner(a, ctx)?.try_negate(),
        _ => None,
    }
}

/// Builds the region accessed by an array reference `name(subs…)`,
/// entry-relative. Unrepresentable subscripts — including products of two
/// or more index variables, per §3.1 — become Ω dimensions.
pub fn subscripts_region(subs: &[FExpr], ctx: &ConvertCtx) -> Region {
    Region::new(
        subs.iter()
            .map(|s| match to_sym(s, ctx) {
                Some(e) if e.max_vars_per_term() <= 1 => Dim::unit(e),
                _ => Dim::Unknown,
            })
            .collect(),
    )
}

/// All array elements *read* by an expression (including reads nested in
/// subscripts and intrinsic arguments): `(array, region)` pairs.
pub fn collect_array_reads(e: &FExpr, ctx: &ConvertCtx) -> Vec<(String, Region)> {
    let mut out = Vec::new();
    collect_reads_inner(e, ctx, &mut out);
    out
}

fn collect_reads_inner(e: &FExpr, ctx: &ConvertCtx, out: &mut Vec<(String, Region)>) {
    match e {
        FExpr::Index(name, subs) => {
            if ctx.table.is_array(name) {
                out.push((name.clone(), subscripts_region(subs, ctx)));
            }
            for s in subs {
                collect_reads_inner(s, ctx, out);
            }
        }
        FExpr::Bin(_, a, b) => {
            collect_reads_inner(a, ctx, out);
            collect_reads_inner(b, ctx, out);
        }
        FExpr::Un(_, a) => collect_reads_inner(a, ctx, out),
        _ => {}
    }
}

/// Converts a logical Fortran expression (an IF condition) into a guard
/// predicate. `None` when no useful structure can be extracted — the
/// caller then guards both branches with Δ.
pub fn to_pred(e: &FExpr, ctx: &ConvertCtx) -> Option<Pred> {
    let p = to_pred_inner(e, ctx)?;
    Some(apply_counter_facts(p, ctx.facts))
}

fn to_pred_inner(e: &FExpr, ctx: &ConvertCtx) -> Option<Pred> {
    match e {
        FExpr::Logical(true) => Some(Pred::tru()),
        FExpr::Logical(false) => Some(Pred::fals()),
        FExpr::Var(n) => match ctx.table.scalar_ty(n) {
            Some(Ty::Logical) => Some(Pred::atom(Atom::Bool(ctx.env.version(n), true))),
            _ => None,
        },
        FExpr::Un(UnOp::Not, inner) => Some(to_pred_inner(inner, ctx)?.not()),
        FExpr::Bin(BinOp::And, a, b) => Some(to_pred_inner(a, ctx)?.and(&to_pred_inner(b, ctx)?)),
        FExpr::Bin(BinOp::Or, a, b) => Some(to_pred_inner(a, ctx)?.or(&to_pred_inner(b, ctx)?)),
        FExpr::Bin(op, a, b) if op.is_relational() => {
            // Integer-exact relation?
            if let (Some(sa), Some(sb)) = (to_sym(a, ctx), to_sym(b, ctx)) {
                let atom = match op {
                    BinOp::Lt => Atom::lt(sa, sb),
                    BinOp::Le => Atom::le(sa, sb),
                    BinOp::Gt => Atom::gt(sa, sb),
                    BinOp::Ge => Atom::ge(sa, sb),
                    BinOp::Eq => Atom::eq(sa, sb),
                    BinOp::Ne => Atom::ne(sa, sb),
                    _ => unreachable!(),
                };
                // An overflowing relation is the unknown guard Δ.
                return Some(atom.map_or_else(Pred::unknown, Pred::atom));
            }
            // Opaque condition template.
            build_cond_atom(e, ctx).map(Pred::atom)
        }
        _ => None,
    }
}

/// Builds an opaque condition-template atom from a relational expression
/// the integer machinery cannot express: REAL comparisons, comparisons
/// involving one array element, intrinsic calls.
fn build_cond_atom(e: &FExpr, ctx: &ConvertCtx) -> Option<Atom> {
    let mut b = TemplateBuilder {
        ctx,
        deps: Vec::new(),
        dep_of: BTreeMap::new(),
        index: None,
        text: String::new(),
    };
    b.walk(e)?;
    let index = b.index.unwrap_or_else(Expr::zero);
    Some(Atom::Cond {
        template: CondTemplate::new(b.text),
        index,
        deps: b.deps,
        positive: true,
    })
}

struct TemplateBuilder<'a, 'b> {
    ctx: &'a ConvertCtx<'b>,
    deps: Vec<Name>,
    dep_of: BTreeMap<Name, usize>,
    /// The single array subscript expression, if one array reference
    /// appears.
    index: Option<Expr>,
    text: String,
}

impl TemplateBuilder<'_, '_> {
    fn dep(&mut self, name: Name) -> usize {
        if let Some(&k) = self.dep_of.get(&name) {
            return k;
        }
        let k = self.deps.len();
        self.deps.push(name.clone());
        self.dep_of.insert(name, k);
        k
    }

    fn walk(&mut self, e: &FExpr) -> Option<()> {
        match e {
            FExpr::Int(v) => self.text.push_str(&v.to_string()),
            FExpr::Real(v) => self.text.push_str(&format!("{v}")),
            FExpr::Logical(v) => self.text.push_str(if *v { "T" } else { "F" }),
            FExpr::Var(n) => {
                if let Some(c) = self.ctx.table.constant(n) {
                    // Fold PARAMETER constants into the template literally.
                    return self.walk(c);
                }
                let k = self.dep(self.ctx.env.version(n));
                self.text.push_str(&format!("${k}"));
            }
            FExpr::Index(name, subs) => {
                if self.ctx.table.is_array(name) {
                    // At most one array reference, 1-D, with a convertible
                    // subscript, becomes the quantifiable index.
                    if self.index.is_some() || subs.len() != 1 {
                        return None;
                    }
                    let sub = to_sym(&subs[0], self.ctx)?;
                    self.index = Some(sub);
                    // The array's values are a dependency: writes to it
                    // must invalidate the condition.
                    let k = self.dep(Name::new(name.as_str()));
                    self.text.push_str(&format!("${k}(@)"));
                } else {
                    // Intrinsic call.
                    self.text.push_str(name);
                    self.text.push('(');
                    for (i, s) in subs.iter().enumerate() {
                        if i > 0 {
                            self.text.push(',');
                        }
                        self.walk(s)?;
                    }
                    self.text.push(')');
                }
            }
            FExpr::Bin(op, a, b) => {
                self.text.push('(');
                self.walk(a)?;
                self.text.push_str(&format!("{op:?}"));
                self.walk(b)?;
                self.text.push(')');
            }
            FExpr::Un(op, a) => {
                self.text.push_str(&format!("{op:?}("));
                self.walk(a)?;
                self.text.push(')');
            }
        }
        Some(())
    }
}

/// Rewrites unit clauses `cnt = 0` over registered counter synthetics into
/// the universally quantified facts they encode (∀-extension).
pub fn apply_counter_facts(p: Pred, facts: &BTreeMap<String, CounterFact>) -> Pred {
    if facts.is_empty() {
        return p;
    }
    let Pred::Cnf { disjs, unknown } = &p else {
        return p;
    };
    let mut changed = false;
    let mut out = Vec::with_capacity(disjs.len());
    for d in disjs {
        if let Some(Atom::Rel(e, RelOp::Eq)) = d.as_unit() {
            if let Some(var) = e.as_var() {
                if let Some(fact) = facts.get(var.as_str()) {
                    // cnt = 0 ⟺ ∀ k ∈ [lo, hi]: condition != counted
                    out.push(Disj::unit(Atom::ForallCond {
                        template: fact.template.clone(),
                        lo: fact.lo.clone(),
                        hi: fact.hi.clone(),
                        deps: fact.deps.clone(),
                        positive: !fact.counted_positive,
                    }));
                    changed = true;
                    continue;
                }
            }
        }
        out.push(d.clone());
    }
    if changed {
        Pred::from_disjs(out, *unknown)
    } else {
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fortran::parse_program;

    fn e(s: &str) -> Expr {
        sym::parse_expr(s).unwrap()
    }

    fn with_ctx<R>(src: &str, f: impl FnOnce(&ConvertCtx) -> R) -> R {
        let program = parse_program(src).unwrap();
        let sema = fortran::analyze(&program).unwrap();
        let table = sema.tables.values().next().unwrap();
        let env = ValueEnv::identity();
        let loop_vars = BTreeSet::new();
        let facts = BTreeMap::new();
        let ctx = ConvertCtx {
            table,
            env: &env,
            symbolic: true,
            loop_vars: &loop_vars,
            facts: &facts,
        };
        f(&ctx)
    }

    const DECLS: &str = "
      PROGRAM t
      INTEGER n, m, i, kc, jm(5)
      REAL a(100), b(100), x, cut2
      LOGICAL p
      PARAMETER (size = 64)
      y = 0
      END
";

    fn fexpr(src: &str) -> FExpr {
        // Parse `x = <expr>` and pull the rhs out.
        let text = format!("      PROGRAM e\n      zz = {src}\n      END\n");
        let p = parse_program(&text).unwrap();
        match &p.routines[0].body[0].kind {
            fortran::StmtKind::Assign(_, rhs) => rhs.clone(),
            _ => unreachable!(),
        }
    }

    #[test]
    fn to_sym_basics() {
        with_ctx(DECLS, |ctx| {
            assert_eq!(to_sym(&fexpr("3"), ctx), Some(Expr::from(3)));
            assert_eq!(to_sym(&fexpr("n + 1"), ctx), Some(e("n + 1")));
            assert_eq!(to_sym(&fexpr("2 * i - m"), ctx), Some(e("2*i - m")));
            // real scalar not representable as integer expr
            assert_eq!(to_sym(&fexpr("x"), ctx), None);
            // array element not representable
            assert_eq!(to_sym(&fexpr("jm(i)"), ctx), None);
            // parameter constant folds
            assert_eq!(to_sym(&fexpr("size"), ctx), Some(Expr::from(64)));
            // exact division
            assert_eq!(to_sym(&fexpr("(4 * n) / 2"), ctx), Some(e("2*n")));
            assert_eq!(to_sym(&fexpr("n / 2"), ctx), None);
            // power
            assert_eq!(to_sym(&fexpr("i ** 2"), ctx), Some(e("i^2")));
        });
    }

    #[test]
    fn t1_off_rejects_symbolic() {
        let program = parse_program(DECLS).unwrap();
        let sema = fortran::analyze(&program).unwrap();
        let table = sema.tables.values().next().unwrap();
        let env = ValueEnv::identity();
        let mut loop_vars = BTreeSet::new();
        loop_vars.insert("i".to_string());
        let facts = BTreeMap::new();
        let ctx = ConvertCtx {
            table,
            env: &env,
            symbolic: false,
            loop_vars: &loop_vars,
            facts: &facts,
        };
        assert!(to_sym(&fexpr("i + 1"), &ctx).is_some()); // loop var OK
        assert!(to_sym(&fexpr("n"), &ctx).is_none()); // other symbolic rejected
        assert!(to_sym(&fexpr("7"), &ctx).is_some());
    }

    #[test]
    fn env_substitution() {
        let program = parse_program(DECLS).unwrap();
        let sema = fortran::analyze(&program).unwrap();
        let table = sema.tables.values().next().unwrap();
        let mut env = ValueEnv::identity();
        env.set_int("kc", Expr::from(0));
        let loop_vars = BTreeSet::new();
        let facts = BTreeMap::new();
        let ctx = ConvertCtx {
            table,
            env: &env,
            symbolic: true,
            loop_vars: &loop_vars,
            facts: &facts,
        };
        assert_eq!(to_sym(&fexpr("kc + 1"), &ctx), Some(Expr::from(1)));
    }

    #[test]
    fn to_pred_integer_relations() {
        with_ctx(DECLS, |ctx| {
            let p = to_pred(&fexpr("i .LE. n"), ctx).unwrap();
            assert_eq!(p, Pred::le(Expr::var("i"), Expr::var("n")));
            let q = to_pred(&fexpr("kc .NE. 0"), ctx).unwrap();
            assert_eq!(q, Pred::ne(Expr::var("kc"), Expr::from(0)));
            let n = to_pred(&fexpr(".NOT. (i .LE. n)"), ctx).unwrap();
            assert_eq!(n, Pred::le(Expr::var("i"), Expr::var("n")).not());
        });
    }

    #[test]
    fn to_pred_logical_var() {
        with_ctx(DECLS, |ctx| {
            let p = to_pred(&fexpr("p"), ctx).unwrap();
            assert_eq!(p, Pred::atom(Atom::Bool(Name::new("p"), true)));
            let np = to_pred(&fexpr(".NOT. p"), ctx).unwrap();
            assert_eq!(np, Pred::atom(Atom::Bool(Name::new("p"), false)));
        });
    }

    #[test]
    fn opaque_real_condition_correlates() {
        with_ctx(DECLS, |ctx| {
            let p1 = to_pred(&fexpr("x .GT. 64.0"), ctx).unwrap();
            let p2 = to_pred(&fexpr("x .GT. 64.0"), ctx).unwrap();
            assert_eq!(p1, p2);
            // complement relationship holds
            assert!(p1.and(&p2.not()).is_false());
        });
    }

    #[test]
    fn array_condition_gets_index() {
        with_ctx(DECLS, |ctx| {
            let p = to_pred(&fexpr("b(kc + 4) .GT. cut2"), ctx).unwrap();
            let atom = p.disjs()[0].as_unit().unwrap().clone();
            match atom {
                Atom::Cond { index, deps, .. } => {
                    assert_eq!(index, e("kc + 4"));
                    // deps: the array b and the scalar cut2
                    let names: Vec<&str> = deps.iter().map(|d| d.as_str()).collect();
                    assert!(names.contains(&"b"));
                    assert!(names.contains(&"cut2"));
                }
                other => panic!("expected Cond atom, got {other:?}"),
            }
        });
    }

    #[test]
    fn same_condition_different_offset_shares_template() {
        with_ctx(DECLS, |ctx| {
            let p1 = to_pred(&fexpr("b(i) .GT. cut2"), ctx).unwrap();
            let p2 = to_pred(&fexpr("b(i + 4) .GT. cut2"), ctx).unwrap();
            let t1 = match p1.disjs()[0].as_unit().unwrap() {
                Atom::Cond { template, .. } => template.clone(),
                _ => panic!(),
            };
            let t2 = match p2.disjs()[0].as_unit().unwrap() {
                Atom::Cond { template, .. } => template.clone(),
                _ => panic!(),
            };
            assert_eq!(t1, t2);
        });
    }

    #[test]
    fn unconvertible_conditions() {
        with_ctx(DECLS, |ctx| {
            // two array refs → None
            assert!(to_pred(&fexpr("a(i) .GT. b(i)"), ctx).is_none());
            // arithmetic (non-logical) expr → None
            assert!(to_pred(&fexpr("i + 1"), ctx).is_none());
        });
    }

    #[test]
    fn collect_reads() {
        with_ctx(DECLS, |ctx| {
            let reads = collect_array_reads(&fexpr("a(i) + b(jm(i)) * 2"), ctx);
            let names: Vec<&str> = reads.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(names, vec!["a", "b", "jm"]);
            // b's subscript jm(i) is unconvertible → Ω dim
            assert!(!reads[1].1.is_exact());
            assert!(reads[0].1.is_exact());
        });
    }

    #[test]
    fn counter_fact_rewrites() {
        let mut facts = BTreeMap::new();
        facts.insert(
            "kc#1".to_string(),
            CounterFact {
                template: CondTemplate::new("t"),
                deps: vec![Name::new("b")],
                counted_positive: true,
                lo: Expr::from(1),
                hi: Expr::from(9),
            },
        );
        let p = Pred::eq(Expr::var("kc#1"), Expr::zero());
        let rewritten = apply_counter_facts(p, &facts);
        match rewritten.disjs()[0].as_unit().unwrap() {
            Atom::ForallCond {
                positive, lo, hi, ..
            } => {
                assert!(!positive);
                assert_eq!(lo, &Expr::from(1));
                assert_eq!(hi, &Expr::from(9));
            }
            other => panic!("expected ForallCond, got {other:?}"),
        }
    }
}
