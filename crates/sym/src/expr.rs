//! Normalized symbolic expressions: ordered sums of products.

use crate::env::Env;
use crate::monomial::{Monomial, Name};
use crate::term::Term;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// A symbolic integer expression in canonical sum-of-products form.
///
/// Invariants: terms are sorted by [`Monomial`] order, monomials are unique,
/// and no coefficient is zero. The zero expression has no terms.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct Expr {
    terms: Vec<Term>,
}

impl Expr {
    /// The zero expression.
    pub fn zero() -> Self {
        Expr { terms: Vec::new() }
    }

    /// The constant one.
    pub fn one() -> Self {
        Expr::from(1)
    }

    /// A single variable.
    pub fn var(name: impl Into<Name>) -> Self {
        Expr {
            terms: vec![Term::new(1, Monomial::var(name.into()))],
        }
    }

    /// Builds a normalized expression from arbitrary terms (sorts, merges,
    /// drops zeros). Returns `None` on coefficient overflow while merging.
    pub fn try_from_terms(terms: impl IntoIterator<Item = Term>) -> Option<Self> {
        let mut v: Vec<Term> = terms.into_iter().filter(|t| t.coef != 0).collect();
        v.sort_by(|a, b| a.mono.cmp(&b.mono));
        let mut out: Vec<Term> = Vec::with_capacity(v.len());
        for t in v {
            match out.last_mut() {
                Some(last) if last.mono == t.mono => {
                    last.coef = last.coef.checked_add(t.coef)?;
                }
                _ => out.push(t),
            }
        }
        out.retain(|t| t.coef != 0);
        Some(Expr { terms: out })
    }

    /// The terms, in canonical order.
    pub fn terms(&self) -> &[Term] {
        &self.terms
    }

    /// `true` iff this is the zero expression.
    pub fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }

    /// `Some(c)` iff the expression is the integer constant `c`.
    pub fn as_const(&self) -> Option<i64> {
        match self.terms.as_slice() {
            [] => Some(0),
            [t] if t.mono.is_one() => Some(t.coef),
            _ => None,
        }
    }

    /// `true` iff the expression is a constant.
    pub fn is_const(&self) -> bool {
        self.as_const().is_some()
    }

    /// `Some(name)` iff the expression is exactly one variable with
    /// coefficient 1.
    pub fn as_var(&self) -> Option<&Name> {
        match self.terms.as_slice() {
            [t] if t.coef == 1 && t.mono.degree() == 1 => t.mono.var_names().next(),
            _ => None,
        }
    }

    /// The constant term of the expression (0 if none).
    pub fn constant_part(&self) -> i64 {
        self.terms
            .iter()
            .find(|t| t.mono.is_one())
            .map_or(0, |t| t.coef)
    }

    /// Checked addition.
    pub fn try_add(&self, other: &Expr) -> Option<Expr> {
        Expr::try_from_terms(self.terms.iter().chain(other.terms.iter()).cloned())
    }

    /// Checked subtraction.
    pub fn try_sub(&self, other: &Expr) -> Option<Expr> {
        let negated = other
            .terms
            .iter()
            .map(|t| t.coef.checked_neg().map(|c| Term::new(c, t.mono.clone())));
        let mut all: Vec<Term> = self.terms.clone();
        for t in negated {
            all.push(t?);
        }
        Expr::try_from_terms(all)
    }

    /// Checked multiplication.
    pub fn try_mul(&self, other: &Expr) -> Option<Expr> {
        let mut prods = Vec::with_capacity(self.terms.len() * other.terms.len());
        for a in &self.terms {
            for b in &other.terms {
                prods.push(a.try_mul(b)?);
            }
        }
        Expr::try_from_terms(prods)
    }

    /// Checked multiplication by an integer constant.
    pub fn try_scale(&self, c: i64) -> Option<Expr> {
        if c == 0 {
            return Some(Expr::zero());
        }
        let terms = self
            .terms
            .iter()
            .map(|t| t.coef.checked_mul(c).map(|k| Term::new(k, t.mono.clone())))
            .collect::<Option<Vec<_>>>()?;
        Some(Expr { terms })
    }

    /// Exact division by an integer constant: `Some` iff every coefficient is
    /// divisible by `c` (and `c != 0`) and no quotient overflows. This is the
    /// paper's "division with an integer constant divisor".
    pub fn div_exact(&self, c: i64) -> Option<Expr> {
        if c == 0 {
            return None;
        }
        let terms = self
            .terms
            .iter()
            .map(|t| {
                if t.coef.checked_rem(c)? == 0 {
                    Some(Term::new(t.coef.checked_div(c)?, t.mono.clone()))
                } else {
                    None
                }
            })
            .collect::<Option<Vec<_>>>()?;
        Some(Expr { terms })
    }

    /// Checked negation: `None` iff some coefficient is `i64::MIN`.
    pub fn try_negate(&self) -> Option<Expr> {
        let terms = self
            .terms
            .iter()
            .map(|t| t.coef.checked_neg().map(|c| Term::new(c, t.mono.clone())))
            .collect::<Option<Vec<_>>>()?;
        Some(Expr { terms })
    }

    /// Does the expression mention the variable `name`?
    pub fn contains_var(&self, name: &str) -> bool {
        self.terms.iter().any(|t| t.mono.contains(name))
    }

    /// The set of distinct variable names in the expression.
    pub fn vars(&self) -> BTreeSet<Name> {
        let mut set = BTreeSet::new();
        for t in &self.terms {
            for n in t.mono.var_names() {
                set.insert(n.clone());
            }
        }
        set
    }

    /// Maximum total degree over all terms (0 for constants).
    pub fn degree(&self) -> u32 {
        self.terms
            .iter()
            .map(|t| t.mono.degree())
            .max()
            .unwrap_or(0)
    }

    /// Maximum number of *distinct* variables multiplied together in any one
    /// term. The paper marks regions **unknown** when this exceeds 1 for
    /// index variables ("multiplications of more than one index variable").
    pub fn max_vars_per_term(&self) -> usize {
        self.terms
            .iter()
            .map(|t| t.mono.num_vars())
            .max()
            .unwrap_or(0)
    }

    /// `true` iff the expression is affine: every term has degree <= 1.
    pub fn is_affine(&self) -> bool {
        self.degree() <= 1
    }

    /// `true` iff the expression is affine in `name`: `name` appears only in
    /// degree-1 terms not multiplied by any other variable.
    pub fn is_affine_in(&self, name: &str) -> bool {
        self.terms.iter().all(|t| {
            let p = t.mono.power_of(name);
            p == 0 || (p == 1 && t.mono.num_vars() == 1)
        })
    }

    /// Decomposes `self = c * name + rest` when the expression is affine in
    /// `name`; returns `(c, rest)` where `rest` does not mention `name`.
    /// Returns `None` if not affine in `name`. `c` may be 0 if `name` is
    /// absent.
    pub fn affine_decompose(&self, name: &str) -> Option<(i64, Expr)> {
        if !self.is_affine_in(name) {
            return None;
        }
        let mut coef = 0i64;
        let mut rest = Vec::new();
        for t in &self.terms {
            if t.mono.contains(name) {
                coef = coef.checked_add(t.coef)?;
            } else {
                rest.push(t.clone());
            }
        }
        Some((coef, Expr { terms: rest }))
    }

    /// Checked substitution of `name := value` (value may be any expression).
    /// Powers substitute as repeated products.
    pub fn try_subst_var(&self, name: &str, value: &Expr) -> Option<Expr> {
        if !self.contains_var(name) {
            return Some(self.clone());
        }
        let mut acc = Expr::zero();
        for t in &self.terms {
            let (rest, power) = t.mono.without(name);
            let mut piece = Expr {
                terms: vec![Term::new(t.coef, rest)],
            };
            for _ in 0..power {
                piece = piece.try_mul(value)?;
            }
            acc = acc.try_add(&piece)?;
        }
        Some(acc)
    }

    /// Evaluates under an environment binding every variable to an integer.
    /// `None` if a variable is unbound or arithmetic overflows.
    pub fn eval(&self, env: &Env) -> Option<i64> {
        let mut sum: i64 = 0;
        for t in &self.terms {
            let mut prod: i64 = t.coef;
            for (n, p) in t.mono.factors() {
                let v = env.get(n.as_str())?;
                for _ in 0..*p {
                    prod = prod.checked_mul(v)?;
                }
            }
            sum = sum.checked_add(prod)?;
        }
        Some(sum)
    }

    /// A size measure used by simplifiers to cap blow-up: total number of
    /// monomial factors plus terms.
    pub fn size(&self) -> usize {
        self.terms
            .iter()
            .map(|t| 1 + t.mono.num_vars())
            .sum::<usize>()
    }
}

impl From<i64> for Expr {
    fn from(c: i64) -> Self {
        if c == 0 {
            Expr::zero()
        } else {
            Expr {
                terms: vec![Term::constant(c)],
            }
        }
    }
}

impl From<&str> for Expr {
    /// A bare variable (convenience for tests): `Expr::from("i")`.
    fn from(name: &str) -> Self {
        Expr::var(name)
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.terms.is_empty() {
            return f.write_str("0");
        }
        for (k, t) in self.terms.iter().enumerate() {
            if k == 0 {
                write!(f, "{t}")?;
            } else if t.coef < 0 {
                // The magnitude, spelled like `Term`'s display; unsigned so
                // `i64::MIN` has one.
                let c = t.coef.unsigned_abs();
                match (c, t.mono.is_one()) {
                    (_, true) => write!(f, " - {c}")?,
                    (1, false) => write!(f, " - {}", t.mono)?,
                    _ => write!(f, " - {c}*{}", t.mono)?,
                }
            } else {
                write!(f, " + {t}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_expr;

    fn v(n: &str) -> Expr {
        Expr::var(n)
    }

    fn e(s: &str) -> Expr {
        parse_expr(s).unwrap()
    }

    #[test]
    fn zero_and_const() {
        assert!(Expr::zero().is_zero());
        assert_eq!(Expr::from(0), Expr::zero());
        assert_eq!(Expr::from(5).as_const(), Some(5));
        assert_eq!(Expr::zero().as_const(), Some(0));
        assert_eq!(v("i").as_const(), None);
    }

    #[test]
    fn add_merges_and_cancels() {
        let e = v("i").try_add(&v("i")).unwrap();
        assert_eq!(e.to_string(), "2*i");
        let z = v("i").try_sub(&v("i")).unwrap();
        assert!(z.is_zero());
    }

    #[test]
    fn canonical_ordering_display() {
        // 2*(i+1) - i == i + 2
        let sum = v("i").try_add(&Expr::one()).unwrap();
        let e2 = sum.try_scale(2).unwrap().try_sub(&v("i")).unwrap();
        assert_eq!(e2.to_string(), "i + 2");
        // products sort before linear terms (grlex)
        assert_eq!(e("a + i*j").to_string(), "i*j + a");
    }

    #[test]
    fn mul_distributes() {
        let p = e("i + 1").try_mul(&e("i - 1")).unwrap();
        assert_eq!(p.to_string(), "i^2 - 1");
    }

    #[test]
    fn subst_simple() {
        let r = e("3*i + j").try_subst_var("i", &e("k + 2")).unwrap();
        assert_eq!(r.to_string(), "j + 3*k + 6");
    }

    #[test]
    fn subst_power() {
        let r = e("i*i").try_subst_var("i", &e("j + 1")).unwrap();
        assert_eq!(r.to_string(), "j^2 + 2*j + 1");
    }

    #[test]
    fn subst_absent_is_identity() {
        let x = e("i + 4");
        assert_eq!(x.try_subst_var("q", &Expr::from(9)), Some(x));
    }

    #[test]
    fn div_exact_works() {
        let x = e("4*i + 8");
        assert_eq!(x.div_exact(4).unwrap().to_string(), "i + 2");
        assert!(x.div_exact(3).is_none());
        assert!(x.div_exact(0).is_none());
        assert!(Expr::from(i64::MIN).div_exact(-1).is_none());
    }

    #[test]
    fn affine_decompose_basic() {
        let (c, rest) = e("2*i + n - 1").affine_decompose("i").unwrap();
        assert_eq!(c, 2);
        assert_eq!(rest.to_string(), "n - 1");
        // i*j is not affine in i
        assert!(e("i*j").affine_decompose("i").is_none());
        // absent var decomposes with c = 0
        let (c0, r0) = Expr::from(7).affine_decompose("i").unwrap();
        assert_eq!(c0, 0);
        assert_eq!(r0.as_const(), Some(7));
    }

    #[test]
    fn max_vars_per_term_flags_products_of_indices() {
        assert_eq!(e("i*j").max_vars_per_term(), 2);
        assert_eq!(e("i + j").max_vars_per_term(), 1);
        assert_eq!(Expr::from(3).max_vars_per_term(), 0);
    }

    #[test]
    fn eval_env() {
        let env = Env::from_pairs([("i", 3), ("j", 4)]);
        assert_eq!(e("i*j + 1").eval(&env), Some(13));
        let missing = v("q");
        assert_eq!(missing.eval(&env), None);
    }

    #[test]
    fn overflow_checked() {
        let big = Expr::from(i64::MAX);
        assert!(big.try_add(&Expr::from(1)).is_none());
        assert!(big.try_mul(&Expr::from(2)).is_none());
    }

    #[test]
    fn as_var() {
        assert_eq!(v("i").as_var().unwrap().as_str(), "i");
        assert!(Expr::from(3).as_var().is_none());
        assert!(e("2*i").as_var().is_none());
    }
}
