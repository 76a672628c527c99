//! Variable names and monomials (ordered products of variable powers).

use serde::Serialize;
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// An interned-ish variable name. Cheap to clone (`Arc<str>`), ordered and
/// hashed by its string content.
///
/// Names compare by byte order, which fixes the variable order inside
/// monomials and therefore the canonical form of every [`crate::Expr`].
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Name(Arc<str>);

impl Name {
    /// Creates a name from anything string-like.
    pub fn new(s: impl AsRef<str>) -> Self {
        Name(Arc::from(s.as_ref()))
    }

    /// The underlying string.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Name({})", self.0)
    }
}

impl From<&str> for Name {
    fn from(s: &str) -> Self {
        Name::new(s)
    }
}

impl From<String> for Name {
    fn from(s: String) -> Self {
        Name::new(s)
    }
}

impl Borrow<str> for Name {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl Serialize for Name {
    fn to_json_value(&self) -> serde::Value {
        serde::Value::Str(self.0.to_string())
    }
}

/// A product of variable powers, e.g. `i^2 * j`. The constant monomial `1`
/// is the empty product.
///
/// Invariants: factors are sorted by [`Name`], every power is `>= 1`, and no
/// variable appears twice.
///
/// The constant and single-variable monomials, which are most of them,
/// keep their factor inline; only products of two or more variables use
/// the heap. Equality, order, hashing, `Debug` and the serialized form
/// all read the factor slice, so they are those of a `Vec` of factors.
#[derive(Clone)]
pub struct Monomial {
    factors: Factors,
}

/// The factor storage of a [`Monomial`]; `Many` holds at least two.
#[derive(Clone)]
enum Factors {
    One,
    Single([(Name, u32); 1]),
    Many(Vec<(Name, u32)>),
}

impl Monomial {
    /// The constant monomial (empty product).
    pub fn one() -> Self {
        Monomial {
            factors: Factors::One,
        }
    }

    /// A single variable to the first power.
    pub fn var(name: impl Into<Name>) -> Self {
        Monomial {
            factors: Factors::Single([(name.into(), 1)]),
        }
    }

    /// The monomial of already sorted, merged, nonzero factors.
    fn from_sorted(mut factors: Vec<(Name, u32)>) -> Self {
        let factors = match factors.len() {
            0 => Factors::One,
            1 => Factors::Single([factors.pop().expect("one factor")]),
            _ => Factors::Many(factors),
        };
        Monomial { factors }
    }

    /// Builds a monomial from `(name, power)` pairs; merges duplicates and
    /// drops zero powers.
    pub fn from_factors(factors: impl IntoIterator<Item = (Name, u32)>) -> Self {
        let mut v: Vec<(Name, u32)> = Vec::new();
        for (n, p) in factors {
            if p == 0 {
                continue;
            }
            v.push((n, p));
        }
        v.sort_by(|a, b| a.0.cmp(&b.0));
        let mut merged: Vec<(Name, u32)> = Vec::with_capacity(v.len());
        for (n, p) in v {
            match merged.last_mut() {
                Some((ln, lp)) if *ln == n => *lp += p,
                _ => merged.push((n, p)),
            }
        }
        Monomial::from_sorted(merged)
    }

    /// `true` iff this is the constant monomial.
    pub fn is_one(&self) -> bool {
        matches!(self.factors, Factors::One)
    }

    /// Total degree — the sum of all powers.
    pub fn degree(&self) -> u32 {
        self.factors().iter().map(|&(_, p)| p).sum()
    }

    /// Number of *distinct* variables.
    pub fn num_vars(&self) -> usize {
        self.factors().len()
    }

    /// The sorted `(name, power)` factors.
    pub fn factors(&self) -> &[(Name, u32)] {
        match &self.factors {
            Factors::One => &[],
            Factors::Single(f) => f,
            Factors::Many(fs) => fs,
        }
    }

    /// Does the monomial mention `name`?
    pub fn contains(&self, name: &str) -> bool {
        self.factors().iter().any(|(n, _)| n.as_str() == name)
    }

    /// The power of `name` in this monomial (0 if absent).
    pub fn power_of(&self, name: &str) -> u32 {
        self.factors()
            .iter()
            .find(|(n, _)| n.as_str() == name)
            .map_or(0, |&(_, p)| p)
    }

    /// Product of two monomials: a merge of the two sorted factor lists.
    pub fn mul(&self, other: &Monomial) -> Monomial {
        let (xs, ys) = (self.factors(), other.factors());
        match (xs, ys) {
            ([], _) => return other.clone(),
            (_, []) => return self.clone(),
            ([(a, p)], [(b, q)]) if a == b => {
                return Monomial {
                    factors: Factors::Single([(a.clone(), p + q)]),
                }
            }
            _ => {}
        }
        let mut out = Vec::with_capacity(xs.len() + ys.len());
        let (mut i, mut j) = (0, 0);
        while i < xs.len() && j < ys.len() {
            let ((a, p), (b, q)) = (&xs[i], &ys[j]);
            match a.cmp(b) {
                Ordering::Less => {
                    out.push((a.clone(), *p));
                    i += 1;
                }
                Ordering::Greater => {
                    out.push((b.clone(), *q));
                    j += 1;
                }
                Ordering::Equal => {
                    out.push((a.clone(), p + q));
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&xs[i..]);
        out.extend_from_slice(&ys[j..]);
        Monomial::from_sorted(out)
    }

    /// Removes `name` entirely, returning the remaining monomial and the
    /// removed power.
    pub fn without(&self, name: &str) -> (Monomial, u32) {
        let factors = self.factors();
        let Some(k) = factors.iter().position(|(n, _)| n.as_str() == name) else {
            return (self.clone(), 0);
        };
        let rest = match factors {
            [_] => Factors::One,
            [a, b] => Factors::Single([if k == 0 { b.clone() } else { a.clone() }]),
            _ => {
                let mut v = factors.to_vec();
                v.remove(k);
                Factors::Many(v)
            }
        };
        (Monomial { factors: rest }, factors[k].1)
    }

    /// Iterates over the variable names.
    pub fn var_names(&self) -> impl Iterator<Item = &Name> {
        self.factors().iter().map(|(n, _)| n)
    }
}

impl PartialEq for Monomial {
    fn eq(&self, other: &Self) -> bool {
        self.factors() == other.factors()
    }
}

impl Eq for Monomial {}

impl Hash for Monomial {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.factors().hash(state);
    }
}

impl fmt::Debug for Monomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Monomial")
            .field("factors", &self.factors())
            .finish()
    }
}

impl Serialize for Monomial {
    fn to_json_value(&self) -> serde::Value {
        serde::Value::Object(vec![(
            "factors".to_string(),
            self.factors().to_json_value(),
        )])
    }
}

impl PartialOrd for Monomial {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Graded lexicographic order: first by total degree, then lexicographically
/// by the factor list. The constant monomial sorts last (so constants print
/// at the end of a sum, like the paper's examples `i + 2`).
impl Ord for Monomial {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self.is_one(), other.is_one()) {
            (true, true) => return Ordering::Equal,
            (true, false) => return Ordering::Greater,
            (false, true) => return Ordering::Less,
            _ => {}
        }
        other
            .degree()
            .cmp(&self.degree())
            .then_with(|| self.factors().cmp(other.factors()))
    }
}

impl fmt::Display for Monomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_one() {
            return f.write_str("1");
        }
        let mut first = true;
        for (n, p) in self.factors() {
            if !first {
                f.write_str("*")?;
            }
            first = false;
            if *p == 1 {
                write!(f, "{n}")?;
            } else {
                write!(f, "{n}^{p}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_is_empty() {
        assert!(Monomial::one().is_one());
        assert_eq!(Monomial::one().degree(), 0);
    }

    #[test]
    fn factors_sorted_and_merged() {
        let m = Monomial::from_factors([
            (Name::new("j"), 1),
            (Name::new("i"), 2),
            (Name::new("j"), 1),
        ]);
        assert_eq!(m.to_string(), "i^2*j^2");
        assert_eq!(m.degree(), 4);
        assert_eq!(m.num_vars(), 2);
    }

    #[test]
    fn zero_powers_dropped() {
        let m = Monomial::from_factors([(Name::new("i"), 0)]);
        assert!(m.is_one());
    }

    #[test]
    fn mul_merges() {
        let a = Monomial::var("i");
        let b = Monomial::from_factors([(Name::new("i"), 1), (Name::new("k"), 3)]);
        assert_eq!(a.mul(&b).to_string(), "i^2*k^3");
    }

    #[test]
    fn without_removes_var() {
        let m = Monomial::from_factors([(Name::new("i"), 2), (Name::new("j"), 1)]);
        let (rest, p) = m.without("i");
        assert_eq!(p, 2);
        assert_eq!(rest.to_string(), "j");
        let (same, p0) = m.without("zz");
        assert_eq!(p0, 0);
        assert_eq!(same, m);
    }

    #[test]
    fn ordering_grlex_constant_last() {
        let one = Monomial::one();
        let i = Monomial::var("i");
        let ij = Monomial::from_factors([(Name::new("i"), 1), (Name::new("j"), 1)]);
        assert!(ij < i, "higher degree sorts first");
        assert!(i < one, "constant sorts last");
    }

    #[test]
    fn power_of_and_contains() {
        let m = Monomial::from_factors([(Name::new("n"), 3)]);
        assert_eq!(m.power_of("n"), 3);
        assert!(m.contains("n"));
        assert!(!m.contains("m"));
    }
}
