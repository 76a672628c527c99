//! Atomic predicates.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;
use sym::{Expr, Name};

/// Relational operator of an atom, always against zero.
///
/// All six Fortran relational operators normalize to these three on the
/// integers: `a <= b` becomes `a - b - 1 < 0`, `a > b` becomes `b - a < 0`,
/// and so on.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub enum RelOp {
    /// `e < 0`
    Lt,
    /// `e = 0`
    Eq,
    /// `e ≠ 0`
    Ne,
}

/// A conditional template: an opaque, loop-varying condition distinguished
/// by an identifier, applied at a symbolic index. `C⟨t⟩(e)` reads "the
/// condition with template `t` holds at index `e`".
///
/// The frontend creates one template per textual condition containing a
/// loop-varying array reference (e.g. `B(K).GT.cut2` in MDG `interf`), with
/// the subscript abstracted out. Two occurrences `B(K).GT.cut2` and
/// `B(K+4).GT.cut2` share the template and differ only in the index
/// expression, which is what lets the ∀-inference connect them.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CondTemplate(pub Arc<str>);

impl Serialize for CondTemplate {
    fn to_json_value(&self) -> serde::Value {
        serde::Value::Str(self.0.to_string())
    }
}

impl CondTemplate {
    /// Creates a template from its canonical text.
    pub fn new(s: impl AsRef<str>) -> Self {
        CondTemplate(Arc::from(s.as_ref()))
    }
}

impl fmt::Display for CondTemplate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// An atomic predicate.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub enum Atom {
    /// `e op 0` over a symbolic expression.
    Rel(Expr, RelOp),
    /// A logical scalar variable compared with a truth value.
    Bool(Name, bool),
    /// The condition template holds (`positive = true`) or does not hold at
    /// the given index.
    ///
    /// Purely scalar opaque conditions (e.g. a REAL comparison `x > SIZE`
    /// the integer machinery cannot express) use a constant `index` of 0;
    /// their identity is the template plus `deps`.
    Cond {
        /// Which textual condition. Templates reference their scalar
        /// dependencies positionally (`$0`, `$1`, …) so renaming a
        /// dependency does not change the template.
        template: CondTemplate,
        /// The index expression the condition is instantiated at.
        index: Expr,
        /// Free scalar variables of the condition besides the index. If
        /// any of them is redefined the atom must be invalidated.
        deps: Vec<Name>,
        /// Polarity.
        positive: bool,
    },
    /// `∀ k ∈ [lo, hi] : C⟨t⟩(k) == positive` — a universally quantified
    /// fact about a condition template over an index range. The body is
    /// implicitly `Cond{template, k, deps, positive}`.
    ForallCond {
        /// The condition template quantified over.
        template: CondTemplate,
        /// Lower bound of the quantified range (inclusive).
        lo: Expr,
        /// Upper bound of the quantified range (inclusive).
        hi: Expr,
        /// Scalar dependencies of the quantified condition.
        deps: Vec<Name>,
        /// Polarity asserted for every index in the range.
        positive: bool,
    },
}

impl Atom {
    /// `a < b` as an atom; `None` when `a - b` overflows. Callers turn
    /// that into the unknown guard Δ.
    pub fn lt(a: Expr, b: Expr) -> Option<Atom> {
        Some(Atom::Rel(a.try_sub(&b)?, RelOp::Lt).canon())
    }

    /// `a <= b` as an atom (integers: `a - b - 1 < 0`); `None` on
    /// overflow.
    pub fn le(a: Expr, b: Expr) -> Option<Atom> {
        let e = a.try_sub(&b)?.try_add_const(-1)?;
        Some(Atom::Rel(e, RelOp::Lt).canon())
    }

    /// `a > b` as an atom; `None` on overflow.
    pub fn gt(a: Expr, b: Expr) -> Option<Atom> {
        Atom::lt(b, a)
    }

    /// `a >= b` as an atom; `None` on overflow.
    pub fn ge(a: Expr, b: Expr) -> Option<Atom> {
        Atom::le(b, a)
    }

    /// `a = b` as an atom; `None` on overflow.
    pub fn eq(a: Expr, b: Expr) -> Option<Atom> {
        Some(Atom::Rel(a.try_sub(&b)?, RelOp::Eq).canon())
    }

    /// `a ≠ b` as an atom; `None` on overflow.
    pub fn ne(a: Expr, b: Expr) -> Option<Atom> {
        Some(Atom::Rel(a.try_sub(&b)?, RelOp::Ne).canon())
    }

    /// Canonicalizes: for `Eq`/`Ne`, the expression sign is fixed so that
    /// the leading term has a positive coefficient (both signs denote the
    /// same set). An expression whose negation overflows keeps its sign.
    pub fn canon(self) -> Atom {
        match self {
            Atom::Rel(e, op @ (RelOp::Eq | RelOp::Ne)) => {
                let negated = match e.terms().first() {
                    Some(t) if t.coef < 0 => e.try_negate(),
                    _ => None,
                };
                Atom::Rel(negated.unwrap_or(e), op)
            }
            other => other,
        }
    }

    /// The exact logical complement of this atom, `None` when it has no
    /// expressible one: a `∀` (its complement is an `∃`), or an `e < 0`
    /// whose complement `-e - 1 < 0` overflows (an `i64::MIN`
    /// coefficient). Callers treat `None` as unknown.
    pub fn complement(&self) -> Option<Atom> {
        Some(match self {
            // ¬(e < 0) == (e >= 0) == (-e - 1 < 0)
            Atom::Rel(e, RelOp::Lt) => Atom::Rel(e.try_negate()?.try_add_const(-1)?, RelOp::Lt),
            Atom::Rel(e, RelOp::Eq) => Atom::Rel(e.clone(), RelOp::Ne),
            Atom::Rel(e, RelOp::Ne) => Atom::Rel(e.clone(), RelOp::Eq),
            Atom::Bool(v, b) => Atom::Bool(v.clone(), !b),
            Atom::Cond {
                template,
                index,
                deps,
                positive,
            } => Atom::Cond {
                template: template.clone(),
                index: index.clone(),
                deps: deps.clone(),
                positive: !positive,
            },
            Atom::ForallCond { .. } => return None,
        })
    }

    /// Constant-folds the atom: `Some(true/false)` if it is a tautology or
    /// contradiction on its own. Besides literal constants, a symbolic
    /// relation is discharged when the [`sym::bounds`] range oracle (when
    /// one is installed) proves the sign of its expression — this is how
    /// proved value ranges refute Δ-unknown guards.
    pub fn const_value(&self) -> Option<bool> {
        match self {
            Atom::Rel(e, op) => {
                if let Some(c) = e.as_const() {
                    return Some(match op {
                        RelOp::Lt => c < 0,
                        RelOp::Eq => c == 0,
                        RelOp::Ne => c != 0,
                    });
                }
                if !sym::bounds::oracle_active() {
                    return None;
                }
                use sym::SymOrdering::{Equal, Greater, Less};
                match (sym::compare(e, &sym::Expr::zero()), op) {
                    (Less, RelOp::Lt) => Some(true),
                    (Equal | Greater, RelOp::Lt) => Some(false),
                    (Equal, RelOp::Eq) => Some(true),
                    (Less | Greater, RelOp::Eq) => Some(false),
                    (Equal, RelOp::Ne) => Some(false),
                    (Less | Greater, RelOp::Ne) => Some(true),
                    _ => None,
                }
            }
            // An empty quantified range is vacuously true.
            Atom::ForallCond { lo, hi, .. } => match sym::compare(lo, hi) {
                sym::SymOrdering::Greater => Some(true),
                _ => None,
            },
            _ => None,
        }
    }

    /// Does the atom mention the scalar variable `name`?
    pub fn contains_var(&self, name: &str) -> bool {
        match self {
            Atom::Rel(e, _) => e.contains_var(name),
            Atom::Bool(v, _) => v.as_str() == name,
            Atom::Cond { index, deps, .. } => {
                index.contains_var(name) || deps.iter().any(|d| d.as_str() == name)
            }
            Atom::ForallCond { lo, hi, deps, .. } => {
                lo.contains_var(name)
                    || hi.contains_var(name)
                    || deps.iter().any(|d| d.as_str() == name)
            }
        }
    }

    /// Collects every scalar name mentioned by the atom into `out`.
    pub fn collect_vars(&self, out: &mut std::collections::BTreeSet<Name>) {
        match self {
            Atom::Rel(e, _) => out.extend(e.vars()),
            Atom::Bool(v, _) => {
                out.insert(v.clone());
            }
            Atom::Cond { index, deps, .. } => {
                out.extend(index.vars());
                out.extend(deps.iter().cloned());
            }
            Atom::ForallCond { lo, hi, deps, .. } => {
                out.extend(lo.vars());
                out.extend(hi.vars());
                out.extend(deps.iter().cloned());
            }
        }
    }

    /// Substitutes `name := value` in every expression of the atom.
    /// Returns `None` on arithmetic overflow, and also when an opaque
    /// dependency of a `Cond` atom is replaced by a non-variable — the
    /// condition can then no longer be represented and the clause must be
    /// dropped (weakened to Δ) by the caller.
    pub fn try_subst_var(&self, name: &str, value: &Expr) -> Option<Atom> {
        Some(match self {
            Atom::Rel(e, op) => Atom::Rel(e.try_subst_var(name, value)?, *op).canon(),
            Atom::Bool(v, b) => {
                if v.as_str() == name {
                    // Renaming a logical variable is fine; anything else is
                    // not representable.
                    let w = value.as_var()?;
                    Atom::Bool(w.clone(), *b)
                } else {
                    self.clone()
                }
            }
            Atom::Cond {
                template,
                index,
                deps,
                positive,
            } => {
                let deps = if deps.iter().any(|d| d.as_str() == name) {
                    let w = value.as_var()?;
                    deps.iter()
                        .map(|d| {
                            if d.as_str() == name {
                                w.clone()
                            } else {
                                d.clone()
                            }
                        })
                        .collect()
                } else {
                    deps.clone()
                };
                Atom::Cond {
                    template: template.clone(),
                    index: index.try_subst_var(name, value)?,
                    deps,
                    positive: *positive,
                }
            }
            Atom::ForallCond {
                template,
                lo,
                hi,
                deps,
                positive,
            } => {
                let deps = if deps.iter().any(|d| d.as_str() == name) {
                    let w = value.as_var()?;
                    deps.iter()
                        .map(|d| {
                            if d.as_str() == name {
                                w.clone()
                            } else {
                                d.clone()
                            }
                        })
                        .collect()
                } else {
                    deps.clone()
                };
                Atom::ForallCond {
                    template: template.clone(),
                    lo: lo.try_subst_var(name, value)?,
                    hi: hi.try_subst_var(name, value)?,
                    deps,
                    positive: *positive,
                }
            }
        })
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Atom::Rel(e, RelOp::Lt) => write!(f, "{e} < 0"),
            Atom::Rel(e, RelOp::Eq) => write!(f, "{e} = 0"),
            Atom::Rel(e, RelOp::Ne) => write!(f, "{e} != 0"),
            Atom::Bool(v, true) => write!(f, "{v}"),
            Atom::Bool(v, false) => write!(f, "!{v}"),
            Atom::Cond {
                template,
                index,
                deps,
                positive,
            } => {
                if !*positive {
                    f.write_str("!")?;
                }
                write!(f, "C<{template}>({index}")?;
                for d in deps {
                    write!(f, "; {d}")?;
                }
                f.write_str(")")
            }
            Atom::ForallCond {
                template,
                lo,
                hi,
                positive,
                ..
            } => {
                if *positive {
                    write!(f, "forall k in [{lo},{hi}]: C<{template}>(k)")
                } else {
                    write!(f, "forall k in [{lo},{hi}]: !C<{template}>(k)")
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sym::parse_expr;

    fn e(s: &str) -> Expr {
        parse_expr(s).unwrap()
    }

    #[test]
    fn relational_normalization() {
        // a <= b  ==>  a - b - 1 < 0
        let a = Atom::le(e("a"), e("b")).unwrap();
        assert_eq!(a.to_string(), "a - b - 1 < 0");
        // a > b  ==>  b - a < 0
        let g = Atom::gt(e("a"), e("b")).unwrap();
        assert_eq!(g.to_string(), "-a + b < 0");
    }

    #[test]
    fn eq_sign_canonical() {
        let p = Atom::eq(e("a"), e("b")).unwrap();
        let q = Atom::eq(e("b"), e("a")).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn complement_involution() {
        let a = Atom::lt(e("i"), e("n")).unwrap();
        let twice = a.complement().and_then(|c| c.complement());
        assert_eq!(twice.map(Atom::canon), Some(a.clone().canon()));
        let b = Atom::Bool(Name::new("p"), true);
        assert_eq!(b.complement(), Some(Atom::Bool(Name::new("p"), false)));
        let q = Atom::eq(e("i"), e("0")).unwrap();
        assert_eq!(q.complement().and_then(|c| c.complement()), Some(q));
    }

    #[test]
    fn complement_is_exact_lt() {
        // ¬(i < n): i - n < 0 -> complement -(i-n)-1 < 0 == n - i - 1 < 0 == i >= n
        let a = Atom::lt(e("i"), e("n")).unwrap();
        let c = a.complement();
        // i >= n == n <= i == n - i - 1 < 0
        assert_eq!(c, Atom::ge(e("i"), e("n")));
    }

    #[test]
    fn const_folding() {
        assert_eq!(Atom::lt(e("1"), e("2")).unwrap().const_value(), Some(true));
        assert_eq!(Atom::lt(e("2"), e("1")).unwrap().const_value(), Some(false));
        assert_eq!(Atom::eq(e("3"), e("3")).unwrap().const_value(), Some(true));
        assert_eq!(Atom::lt(e("i"), e("2")).unwrap().const_value(), None);
    }

    #[test]
    fn forall_vacuous_range_true() {
        let a = Atom::ForallCond {
            deps: vec![],
            template: CondTemplate::new("t"),
            lo: e("5"),
            hi: e("2"),
            positive: false,
        };
        assert_eq!(a.const_value(), Some(true));
    }

    #[test]
    fn subst_in_rel() {
        let a = Atom::lt(e("i"), e("n")).unwrap();
        let s = a.try_subst_var("i", &e("j + 1")).unwrap();
        assert_eq!(s, Atom::lt(e("j + 1"), e("n")).unwrap());
    }

    #[test]
    fn contains_var() {
        let a = Atom::lt(e("i"), e("n")).unwrap();
        assert!(a.contains_var("i"));
        assert!(a.contains_var("n"));
        assert!(!a.contains_var("j"));
        let b = Atom::Bool(Name::new("flag"), true);
        assert!(b.contains_var("flag"));
    }
}
