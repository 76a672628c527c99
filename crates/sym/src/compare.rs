//! Symbolic comparison of expressions.
//!
//! The analyzer constantly needs to answer "is `a <= b`?" for symbolic
//! bounds. Following the paper, comparisons are decided by normalizing the
//! difference `a - b`: if it reduces to an integer constant the answer is
//! definite, otherwise it is *unknown* and the caller must case-split by
//! pushing the inequality into a guard.
//!
//! The difference is walked, not built: both operands are canonical term
//! lists sorted by monomial, so merging them term by term tells whether
//! `a - b` is a constant (and which) without allocating. The walk uses
//! exactly [`Expr::try_sub`]'s checked arithmetic, so an overflow gives the
//! same `None`/`Unknown` the built difference would. `a - b` is
//! materialized only when it stays symbolic and the range oracle
//! ([`crate::bounds`]) must see it.

use crate::expr::Expr;
use std::cmp::Ordering;

/// The result of comparing two symbolic expressions.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SymOrdering {
    /// Definitely `a < b`.
    Less,
    /// Definitely `a == b` (as polynomials).
    Equal,
    /// Definitely `a > b`.
    Greater,
    /// Cannot be decided without more information.
    Unknown,
}

impl SymOrdering {
    /// Converts to a definite [`Ordering`] if known.
    pub fn definite(self) -> Option<Ordering> {
        match self {
            SymOrdering::Less => Some(Ordering::Less),
            SymOrdering::Equal => Some(Ordering::Equal),
            SymOrdering::Greater => Some(Ordering::Greater),
            SymOrdering::Unknown => None,
        }
    }

    /// `true` iff we can prove `a <= b`.
    pub fn is_le(self) -> bool {
        matches!(self, SymOrdering::Less | SymOrdering::Equal)
    }

    /// `true` iff we can prove `a >= b`.
    pub fn is_ge(self) -> bool {
        matches!(self, SymOrdering::Greater | SymOrdering::Equal)
    }
}

/// Compares `a` and `b` symbolically by examining `a - b`. When the
/// difference stays symbolic, an installed bounds oracle
/// ([`crate::bounds`]) gets a chance to decide its sign from proved
/// scalar ranges before the answer degrades to Δ-unknown.
pub fn compare(a: &Expr, b: &Expr) -> SymOrdering {
    match merge(a, b, i64::checked_neg) {
        Merged::Overflow => SymOrdering::Unknown,
        Merged::Const(c) => match c.cmp(&0) {
            Ordering::Less => SymOrdering::Less,
            Ordering::Equal => SymOrdering::Equal,
            Ordering::Greater => SymOrdering::Greater,
        },
        Merged::Symbolic if b.is_zero() => crate::bounds::consult(a, b, a),
        Merged::Symbolic => match a.try_sub(b) {
            Some(d) => crate::bounds::consult(a, b, &d),
            None => SymOrdering::Unknown,
        },
    }
}

/// `Some(c)` iff `a - b` normalizes to the constant `c`. This is the main
/// workhorse for merging adjacent ranges: `(1:a) ∪ (a+1:100)` merges because
/// `(a+1) - a == 1`.
pub fn diff_const(a: &Expr, b: &Expr) -> Option<i64> {
    merge(a, b, i64::checked_neg).into_const()
}

/// `Some(c)` iff `a + b` normalizes to the constant `c` — i.e. `a` and `b`
/// are negatives of each other up to `c`.
pub fn sum_const(a: &Expr, b: &Expr) -> Option<i64> {
    merge(a, b, Some).into_const()
}

/// What `a ± b` normalizes to.
enum Merged {
    /// A coefficient overflowed.
    Overflow,
    /// The integer constant.
    Const(i64),
    /// A non-constant expression.
    Symbolic,
}

impl Merged {
    fn into_const(self) -> Option<i64> {
        match self {
            Merged::Const(c) => Some(c),
            Merged::Overflow | Merged::Symbolic => None,
        }
    }
}

/// Classifies `a + sign(b)` by merging the two canonical term lists, where
/// `sign` maps each coefficient of `b` (`checked_neg` for a difference).
/// Every term is visited, so an overflow anywhere wins over a symbolic
/// residue, as it does for [`Expr::try_sub`] and [`Expr::try_add`].
fn merge(a: &Expr, b: &Expr, sign: fn(i64) -> Option<i64>) -> Merged {
    let (mut xs, mut ys) = (a.terms().iter().peekable(), b.terms().iter().peekable());
    let mut constant = 0;
    let mut symbolic = false;
    loop {
        let order = match (xs.peek(), ys.peek()) {
            (None, None) => break,
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (Some(x), Some(y)) => x.mono.cmp(&y.mono),
        };
        let x = if order.is_le() { xs.next() } else { None };
        let y = if order.is_ge() { ys.next() } else { None };
        let coef = match (x, y) {
            (Some(x), Some(y)) => sign(y.coef).and_then(|c| x.coef.checked_add(c)),
            (Some(x), None) => Some(x.coef),
            (None, Some(y)) => sign(y.coef),
            (None, None) => unreachable!("one list has a term left"),
        };
        let Some(coef) = coef else {
            return Merged::Overflow;
        };
        if x.or(y).is_some_and(|t| t.mono.is_one()) {
            constant = coef;
        } else if coef != 0 {
            symbolic = true;
        }
    }
    if symbolic {
        Merged::Symbolic
    } else {
        Merged::Const(constant)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(n: &str) -> Expr {
        Expr::var(n)
    }

    fn e(s: &str) -> Expr {
        crate::parse_expr(s).unwrap()
    }

    #[test]
    fn constant_comparisons() {
        assert_eq!(compare(&Expr::from(1), &Expr::from(2)), SymOrdering::Less);
        assert_eq!(compare(&Expr::from(2), &Expr::from(2)), SymOrdering::Equal);
        assert_eq!(
            compare(&Expr::from(3), &Expr::from(2)),
            SymOrdering::Greater
        );
    }

    #[test]
    fn symbolic_equal_after_normalization() {
        let a = e("(i + 1) * 2");
        let b = e("i*2 + 2");
        assert_eq!(compare(&a, &b), SymOrdering::Equal);
    }

    #[test]
    fn offset_comparison() {
        let a = v("n");
        let b = e("n + 1");
        assert_eq!(compare(&a, &b), SymOrdering::Less);
        assert!(compare(&a, &b).is_le());
        assert!(!compare(&a, &b).is_ge());
    }

    #[test]
    fn unrelated_vars_unknown() {
        assert_eq!(compare(&v("a"), &v("b")), SymOrdering::Unknown);
        assert_eq!(compare(&v("a"), &v("b")).definite(), None);
    }

    #[test]
    fn diff_const_for_merging() {
        // (a+1) - a == 1, the adjacency test used in range union
        assert_eq!(diff_const(&e("a + 1"), &v("a")), Some(1));
        assert_eq!(diff_const(&v("a"), &v("b")), None);
    }

    #[test]
    fn sum_const_of_negated_pairs() {
        // (n - i + 2) + (i - n) == 2
        assert_eq!(sum_const(&e("n - i + 2"), &e("i - n")), Some(2));
        assert_eq!(sum_const(&v("i"), &v("i")), None);
        // -MIN overflows in a difference but not in a sum.
        let min = Expr::from(i64::MIN);
        assert_eq!(diff_const(&Expr::from(-1), &min), None);
        assert_eq!(sum_const(&Expr::from(-1), &min), None);
        assert_eq!(sum_const(&Expr::from(1), &min), Some(i64::MIN + 1));
    }
}
