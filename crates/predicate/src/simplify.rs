//! Pairwise implication tests between atoms and disjunctions.
//!
//! These are the building blocks of the paper's "limited simplifier" (§5.2)
//! which "evaluates the truth value of the conjunction of two disjunctions
//! or the disjunction of two relational expressions" — i.e. everything is
//! decided two operands at a time.

use crate::atom::{Atom, RelOp};
use crate::disj::Disj;
use std::cell::OnceCell;
use sym::{diff_const, sum_const};

/// Is `a ⇒ b` provable (pairwise, by normalizing expression differences)?
///
/// This is *sound but incomplete*: a `false` answer means "could not prove",
/// not "does not hold".
pub fn atom_implies(a: &Atom, b: &Atom) -> bool {
    if a == b {
        return true;
    }
    if a.const_value() == Some(false) || b.const_value() == Some(true) {
        return true;
    }
    match (a, b) {
        (Atom::Rel(e1, RelOp::Lt), Atom::Rel(e2, RelOp::Lt)) => {
            // e1 < 0 ⇒ e2 < 0 whenever e2 <= e1 everywhere.
            diff_const(e2, e1).is_some_and(|c| c <= 0)
        }
        (Atom::Rel(e1, RelOp::Eq), Atom::Rel(e2, RelOp::Lt)) => {
            // e1 = 0 ⇒ e2 < 0 if e2 = ±e1 + c with c < 0.
            diff_const(e2, e1).is_some_and(|c| c < 0) || sum_const(e2, e1).is_some_and(|c| c < 0)
        }
        (Atom::Rel(e1, RelOp::Eq), Atom::Rel(e2, RelOp::Eq)) => {
            // Canonical sign makes ±e compare equal; different constants
            // never imply each other unless identical (handled above).
            diff_const(e2, e1) == Some(0) || sum_const(e2, e1) == Some(0)
        }
        (Atom::Rel(e1, RelOp::Eq), Atom::Rel(e2, RelOp::Ne)) => {
            // e1 = 0 ⇒ e2 ≠ 0 if e2 = ±e1 + c with c ≠ 0.
            diff_const(e2, e1).is_some_and(|c| c != 0) || sum_const(e2, e1).is_some_and(|c| c != 0)
        }
        (Atom::Rel(e1, RelOp::Lt), Atom::Rel(e2, RelOp::Ne)) => {
            // e1 < 0 ⇒ e2 ≠ 0 if e2 <= e1 (then e2 < 0), or e2 = -e1 + c
            // with c >= 0 (then e2 >= 1 + c > 0).
            diff_const(e2, e1).is_some_and(|c| c <= 0) || sum_const(e2, e1).is_some_and(|c| c >= 0)
        }
        (Atom::Rel(e1, RelOp::Ne), Atom::Rel(e2, RelOp::Ne)) => {
            diff_const(e2, e1) == Some(0) || sum_const(e2, e1) == Some(0)
        }
        (Atom::Bool(v1, b1), Atom::Bool(v2, b2)) => v1 == v2 && b1 == b2,
        (
            Atom::Cond {
                template: t1,
                index: i1,
                deps: d1,
                positive: p1,
            },
            Atom::Cond {
                template: t2,
                index: i2,
                deps: d2,
                positive: p2,
            },
        ) => t1 == t2 && d1 == d2 && p1 == p2 && diff_const(i1, i2) == Some(0),
        (
            Atom::ForallCond {
                template: t1,
                lo,
                hi,
                deps: d1,
                positive: p1,
            },
            Atom::Cond {
                template: t2,
                index,
                deps: d2,
                positive: p2,
            },
        ) => {
            // ∀k∈[lo,hi]: C(k)=p ⇒ C(e)=p whenever lo <= e <= hi provably.
            t1 == t2
                && d1 == d2
                && p1 == p2
                && diff_const(lo, index).is_some_and(|c| c <= 0)
                && diff_const(index, hi).is_some_and(|c| c <= 0)
        }
        (
            Atom::ForallCond {
                template: t1,
                lo: lo1,
                hi: hi1,
                deps: d1,
                positive: p1,
            },
            Atom::ForallCond {
                template: t2,
                lo: lo2,
                hi: hi2,
                deps: d2,
                positive: p2,
            },
        ) => {
            // Wider range implies narrower range: [lo2,hi2] ⊆ [lo1,hi1].
            t1 == t2
                && d1 == d2
                && p1 == p2
                && diff_const(lo1, lo2).is_some_and(|c| c <= 0)
                && diff_const(hi2, hi1).is_some_and(|c| c <= 0)
        }
        _ => false,
    }
}

/// An atom with its complement, built on first use and then reused — the
/// simplifier tests one atom against many.
pub(crate) struct Complemented<'a> {
    atom: &'a Atom,
    complement: OnceCell<Option<Atom>>,
}

impl<'a> Complemented<'a> {
    pub(crate) fn new(atom: &'a Atom) -> Self {
        Complemented {
            atom,
            complement: OnceCell::new(),
        }
    }

    pub(crate) fn atom(&self) -> &'a Atom {
        self.atom
    }

    /// The exact complement, `None` when the atom has none.
    pub(crate) fn complement(&self) -> Option<&Atom> {
        self.complement
            .get_or_init(|| self.atom.complement())
            .as_ref()
    }

    /// Are the two atoms provably contradictory (`a ∧ b = False`)?
    pub(crate) fn contradicts(&self, other: &Complemented) -> bool {
        other
            .complement()
            .is_some_and(|c| atom_implies(self.atom, c))
            || self
                .complement()
                .is_some_and(|c| atom_implies(other.atom, c))
    }
}

/// Is `d1 ⇒ d2` provable? Sufficient test: every atom of `d1` implies some
/// atom of `d2`.
pub fn disj_implies(d1: &Disj, d2: &Disj) -> bool {
    d1.atoms()
        .iter()
        .all(|a| d2.atoms().iter().any(|b| atom_implies(a, b)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::CondTemplate;
    use sym::{parse_expr, Expr, Name};

    fn e(s: &str) -> Expr {
        parse_expr(s).unwrap()
    }

    #[test]
    fn lt_implication_by_offset() {
        // i < n  ⇒  i < n + 5
        let a = Atom::lt(e("i"), e("n")).unwrap();
        let b = Atom::lt(e("i"), e("n + 5")).unwrap();
        assert!(atom_implies(&a, &b));
        assert!(!atom_implies(&b, &a));
    }

    #[test]
    fn le_lt_interplay() {
        // i <= n  ⇒  i < n + 1 (same atom after normalization)
        let a = Atom::le(e("i"), e("n")).unwrap();
        let b = Atom::lt(e("i"), e("n + 1")).unwrap();
        assert_eq!(a, b);
        // i < n ⇒ i <= n
        assert!(atom_implies(
            &Atom::lt(e("i"), e("n")).unwrap(),
            &Atom::le(e("i"), e("n")).unwrap()
        ));
    }

    #[test]
    fn eq_implies_ne_of_shifted() {
        // i = 5 ⇒ i ≠ 6
        let a = Atom::eq(e("i"), e("5")).unwrap();
        let b = Atom::ne(e("i"), e("6")).unwrap();
        assert!(atom_implies(&a, &b));
        // i = 5 does not prove i ≠ j
        let c = Atom::ne(e("i"), e("j")).unwrap();
        assert!(!atom_implies(&a, &c));
    }

    #[test]
    fn eq_implies_lt() {
        // i = 3 ⇒ i < 7  (i.e. i - 3 = 0 ⇒ i - 7 < 0)
        assert!(atom_implies(
            &Atom::eq(e("i"), e("3")).unwrap(),
            &Atom::lt(e("i"), e("7")).unwrap()
        ));
        assert!(!atom_implies(
            &Atom::eq(e("i"), e("9")).unwrap(),
            &Atom::lt(e("i"), e("7")).unwrap()
        ));
    }

    #[test]
    fn lt_implies_ne() {
        // i < n ⇒ i ≠ n
        assert!(atom_implies(
            &Atom::lt(e("i"), e("n")).unwrap(),
            &Atom::ne(e("i"), e("n")).unwrap()
        ));
        // i < n ⇒ i ≠ n + 3
        assert!(atom_implies(
            &Atom::lt(e("i"), e("n")).unwrap(),
            &Atom::ne(e("i"), e("n + 3")).unwrap()
        ));
    }

    fn atoms_contradict(a: &Atom, b: &Atom) -> bool {
        Complemented::new(a).contradicts(&Complemented::new(b))
    }

    #[test]
    fn contradictions() {
        // i < 3 ∧ i > 5 contradictory
        assert!(atoms_contradict(
            &Atom::lt(e("i"), e("3")).unwrap(),
            &Atom::gt(e("i"), e("5")).unwrap()
        ));
        // i = 0 ∧ i ≠ 0 contradictory
        assert!(atoms_contradict(
            &Atom::eq(e("i"), e("0")).unwrap(),
            &Atom::ne(e("i"), e("0")).unwrap()
        ));
        // p ∧ ¬p contradictory
        assert!(atoms_contradict(
            &Atom::Bool(Name::new("p"), true),
            &Atom::Bool(Name::new("p"), false)
        ));
        // i < n ∧ i < m: no contradiction
        assert!(!atoms_contradict(
            &Atom::lt(e("i"), e("n")).unwrap(),
            &Atom::lt(e("i"), e("m")).unwrap()
        ));
    }

    #[test]
    fn forall_instantiation() {
        // ∀k∈[1,9]: ¬C(k)  ⇒  ¬C(e) for e = K+4, K∈[2,5] → need constant
        // bounds: instantiate at 6 (constant) works.
        let t = CondTemplate::new("b_gt_cut2");
        let fa = Atom::ForallCond {
            deps: vec![],
            template: t.clone(),
            lo: e("1"),
            hi: e("9"),
            positive: false,
        };
        let inst = Atom::Cond {
            deps: vec![],
            template: t.clone(),
            index: e("6"),
            positive: false,
        };
        assert!(atom_implies(&fa, &inst));
        let outside = Atom::Cond {
            deps: vec![],
            template: t.clone(),
            index: e("12"),
            positive: false,
        };
        assert!(!atom_implies(&fa, &outside));
        // symbolic instantiation: k + 4 with [lo,hi] = [k, k+9] style
        let fa2 = Atom::ForallCond {
            deps: vec![],
            template: t.clone(),
            lo: e("k"),
            hi: e("k + 9"),
            positive: false,
        };
        let inst2 = Atom::Cond {
            deps: vec![],
            template: t,
            index: e("k + 4"),
            positive: false,
        };
        assert!(atom_implies(&fa2, &inst2));
    }

    #[test]
    fn forall_narrowing() {
        let t = CondTemplate::new("c");
        let wide = Atom::ForallCond {
            deps: vec![],
            template: t.clone(),
            lo: e("1"),
            hi: e("9"),
            positive: true,
        };
        let narrow = Atom::ForallCond {
            deps: vec![],
            template: t,
            lo: e("2"),
            hi: e("5"),
            positive: true,
        };
        assert!(atom_implies(&wide, &narrow));
        assert!(!atom_implies(&narrow, &wide));
    }

    #[test]
    fn disj_implication() {
        let d1 = Disj::from_atoms([Atom::lt(e("i"), e("3")).unwrap()]);
        let d2 = Disj::from_atoms([
            Atom::lt(e("i"), e("5")).unwrap(),
            Atom::eq(e("j"), e("0")).unwrap(),
        ]);
        assert!(disj_implies(&d1, &d2));
        assert!(!disj_implies(&d2, &d1));
    }
}
