//! Solving variable bounds out of a guard.
//!
//! The *expansion* step of the paper (§4.1) requires that when a loop index
//! `i` appears in a GAR's guard, "`i` should be solved from the guard which,
//! in general, is written as `l' <= i <= u'`". This module extracts such
//! bounds from the unit clauses of a predicate.

use crate::atom::{Atom, RelOp};
use crate::disj::Disj;
use crate::predicate::Pred;
use sym::Expr;

/// Bounds solved for one variable from a guard, plus the residual guard with
/// the solved clauses removed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VarBounds {
    /// Lower bounds (the effective bound is their maximum).
    pub los: Vec<Expr>,
    /// Upper bounds (the effective bound is their minimum).
    pub his: Vec<Expr>,
    /// The guard with the solved clauses deleted (per the paper: "the
    /// inequalities and equalities involving `i` in the guard are then
    /// deleted").
    pub residual: Pred,
}

/// Attempts to solve all occurrences of `var` out of the guard.
///
/// Succeeds only when every clause mentioning `var` is a *unit* clause whose
/// atom is affine in `var` with coefficient ±1 (`c*var + r < 0` or `= 0`).
/// `Ne` atoms and disjunctive occurrences cannot be turned into bounds;
/// their presence makes the solve fail and the caller must approximate
/// (mark the region unknown), exactly as the paper prescribes for
/// non-representable substitutions.
///
/// Returns `None` when `var` occurs but cannot be fully solved, which
/// includes a bound whose arithmetic overflows. When `var`
/// does not occur at all the result has empty bound lists and `residual`
/// equal to the input.
pub fn bounds_on(pred: &Pred, var: &str) -> Option<VarBounds> {
    let Pred::Cnf { disjs, unknown } = pred else {
        // False: the GAR is empty anyway; report trivial bounds.
        return Some(VarBounds {
            los: Vec::new(),
            his: Vec::new(),
            residual: Pred::False,
        });
    };
    let mut los = Vec::new();
    let mut his = Vec::new();
    let mut residual: Vec<Disj> = Vec::new();
    for d in disjs {
        if !d.contains_var(var) {
            residual.push(d.clone());
            continue;
        }
        let atom = d.as_unit()?;
        match atom {
            Atom::Rel(e, RelOp::Lt) => {
                let (c, rest) = e.affine_decompose(var)?;
                match c {
                    // var + rest < 0  ⇔  var <= -rest - 1
                    1 => his.push(rest.try_negate()?.try_add_const(-1)?),
                    // -var + rest < 0  ⇔  var >= rest + 1
                    -1 => los.push(rest.try_add_const(1)?),
                    _ => return None,
                }
            }
            Atom::Rel(e, RelOp::Eq) => {
                let (c, rest) = e.affine_decompose(var)?;
                let v = match c {
                    1 => rest.try_negate()?,
                    -1 => rest,
                    _ => return None,
                };
                los.push(v.clone());
                his.push(v);
            }
            _ => return None,
        }
    }
    Some(VarBounds {
        los,
        his,
        residual: Pred::from_disjs(residual, *unknown),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sym::parse_expr;

    fn e(s: &str) -> Expr {
        parse_expr(s).unwrap()
    }

    #[test]
    fn no_occurrence_trivial() {
        let p = Pred::le(e("a"), e("b"));
        let b = bounds_on(&p, "i").unwrap();
        assert!(b.los.is_empty() && b.his.is_empty());
        assert_eq!(b.residual, p);
    }

    #[test]
    fn upper_and_lower() {
        // c <= i + 1 <= d  (the paper's expansion example) gives
        // lo = c - 1, hi = d - 1.
        let p = Pred::le(e("c"), e("i + 1")).and(&Pred::le(e("i + 1"), e("d")));
        let b = bounds_on(&p, "i").unwrap();
        assert_eq!(b.los, vec![e("c - 1")]);
        assert_eq!(b.his, vec![e("d - 1")]);
        assert!(b.residual.is_true());
    }

    #[test]
    fn equality_pins_both() {
        let p = Pred::eq(e("i"), e("n + 2"));
        let b = bounds_on(&p, "i").unwrap();
        assert_eq!(b.los, vec![e("n + 2")]);
        assert_eq!(b.his, vec![e("n + 2")]);
    }

    #[test]
    fn residual_keeps_other_clauses() {
        let p = Pred::le(e("i"), e("9")).and(&Pred::le(e("x"), e("y")));
        let b = bounds_on(&p, "i").unwrap();
        assert_eq!(b.his, vec![e("9")]);
        assert_eq!(b.residual, Pred::le(e("x"), e("y")));
    }

    #[test]
    fn ne_fails() {
        let p = Pred::ne(e("i"), e("3"));
        assert!(bounds_on(&p, "i").is_none());
    }

    #[test]
    fn disjunction_fails() {
        let p = Pred::lt(e("i"), e("3")).or(&Pred::lt(e("q"), e("0")));
        assert!(bounds_on(&p, "i").is_none());
    }

    #[test]
    fn non_unit_coefficient_fails() {
        let p = Pred::lt(e("2*i"), e("n"));
        assert!(bounds_on(&p, "i").is_none());
    }

    #[test]
    fn false_pred_trivial() {
        let b = bounds_on(&Pred::fals(), "i").unwrap();
        assert!(b.residual.is_false());
    }
}
