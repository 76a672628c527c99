//! Disjunctions of atoms (the clauses of a CNF predicate).

use crate::atom::Atom;
use crate::simplify::{atom_implies, Complemented};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A disjunction `a1 ∨ a2 ∨ … ∨ an` of atoms, kept sorted and deduplicated.
///
/// An empty disjunction is `False`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct Disj {
    atoms: Vec<Atom>,
}

impl Disj {
    /// Builds a disjunction from atoms, canonicalizing and deduplicating.
    pub fn from_atoms(atoms: impl IntoIterator<Item = Atom>) -> Self {
        let mut v: Vec<Atom> = atoms.into_iter().map(Atom::canon).collect();
        v.sort();
        v.dedup();
        Disj { atoms: v }
    }

    /// Rebuilds a disjunction from atoms that are *already canonical*
    /// (as returned by [`Disj::atoms`]), without re-canonicalizing,
    /// sorting, or deduplicating. Used by persistence layers that must
    /// reproduce a previously observed value byte-for-byte; feeding it
    /// non-canonical atoms breaks `Eq`/`Ord` invariants.
    pub fn from_canonical_atoms(atoms: Vec<Atom>) -> Self {
        Disj { atoms }
    }

    /// A single-atom disjunction.
    pub fn unit(atom: Atom) -> Self {
        Disj {
            atoms: vec![atom.canon()],
        }
    }

    /// The sorted atoms.
    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
    }

    /// `true` iff the disjunction is the empty (false) clause.
    pub fn is_false_clause(&self) -> bool {
        self.atoms.is_empty()
    }

    /// `Some(&atom)` iff the clause has exactly one atom.
    pub fn as_unit(&self) -> Option<&Atom> {
        match self.atoms.as_slice() {
            [a] => Some(a),
            _ => None,
        }
    }

    /// Or-combines two disjunctions.
    pub fn or(&self, other: &Disj) -> Disj {
        Disj::from_atoms(self.atoms.iter().chain(other.atoms.iter()).cloned())
    }

    /// Simplifies the clause pairwise.
    ///
    /// Returns `None` if the clause is a tautology (contains a constant-true
    /// atom or a complementary pair) and should be dropped from the CNF;
    /// otherwise the simplified clause (possibly empty = false).
    pub fn simplified(&self) -> Option<Disj> {
        // Drop constant-false atoms; detect constant-true.
        let mut kept: Vec<&Atom> = Vec::with_capacity(self.atoms.len());
        for a in &self.atoms {
            match a.const_value() {
                Some(true) => return None,
                Some(false) => {}
                None => kept.push(a),
            }
        }
        // Tautology: a ∨ b where ¬a ⇒ b (covers exact complements).
        for (i, &a) in kept.iter().enumerate() {
            let a = Complemented::new(a);
            for (j, &b) in kept.iter().enumerate() {
                if i != j && a.complement().is_some_and(|c| atom_implies(c, b)) {
                    return None;
                }
            }
        }
        // Absorption: drop a if a ⇒ b for some other kept atom b. What is
        // left is a subsequence of the sorted, deduplicated atoms, so it
        // is sorted and deduplicated too.
        let mut out: Vec<Atom> = Vec::with_capacity(kept.len());
        'outer: for (i, &a) in kept.iter().enumerate() {
            for (j, &b) in kept.iter().enumerate() {
                if i == j {
                    continue;
                }
                if atom_implies(a, b) && !(atom_implies(b, a) && i > j) {
                    // a is subsumed by the (weaker or equal) atom b. The
                    // second condition keeps exactly one of a mutually
                    // implying pair.
                    if atom_implies(b, a) && j > i {
                        // mutual: keep the first occurrence (i < j) only
                        continue;
                    }
                    continue 'outer;
                }
            }
            out.push(a.clone());
        }
        Some(Disj { atoms: out })
    }

    /// Does any atom mention `name`?
    pub fn contains_var(&self, name: &str) -> bool {
        self.atoms.iter().any(|a| a.contains_var(name))
    }

    /// Substitutes `name := value` in every atom; `None` on overflow.
    pub fn try_subst_var(&self, name: &str, value: &sym::Expr) -> Option<Disj> {
        let atoms = self
            .atoms
            .iter()
            .map(|a| a.try_subst_var(name, value))
            .collect::<Option<Vec<_>>>()?;
        Some(Disj::from_atoms(atoms))
    }

    /// Collects every scalar name mentioned by the clause.
    pub fn collect_vars(&self, out: &mut std::collections::BTreeSet<sym::Name>) {
        for a in &self.atoms {
            a.collect_vars(out);
        }
    }
}

impl fmt::Display for Disj {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.atoms.is_empty() {
            return f.write_str("FALSE");
        }
        if self.atoms.len() == 1 {
            return write!(f, "{}", self.atoms[0]);
        }
        f.write_str("(")?;
        for (k, a) in self.atoms.iter().enumerate() {
            if k > 0 {
                f.write_str(" | ")?;
            }
            write!(f, "{a}")?;
        }
        f.write_str(")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sym::{parse_expr, Expr};

    fn e(s: &str) -> Expr {
        parse_expr(s).unwrap()
    }

    #[test]
    fn dedup_and_sort() {
        let d = Disj::from_atoms([
            Atom::lt(e("i"), e("3")).unwrap(),
            Atom::lt(e("i"), e("3")).unwrap(),
        ]);
        assert_eq!(d.atoms().len(), 1);
    }

    #[test]
    fn const_false_dropped() {
        let d = Disj::from_atoms([
            Atom::lt(e("2"), e("1")).unwrap(),
            Atom::lt(e("i"), e("3")).unwrap(),
        ]);
        let s = d.simplified().unwrap();
        assert_eq!(s.atoms().len(), 1);
    }

    #[test]
    fn const_true_makes_tautology() {
        let d = Disj::from_atoms([
            Atom::lt(e("1"), e("2")).unwrap(),
            Atom::lt(e("i"), e("3")).unwrap(),
        ]);
        assert!(d.simplified().is_none());
    }

    #[test]
    fn complementary_pair_is_tautology() {
        let a = Atom::lt(e("i"), e("n")).unwrap();
        let d = Disj::from_atoms([a.clone(), a.complement().unwrap()]);
        assert!(d.simplified().is_none());
    }

    #[test]
    fn covering_pair_is_tautology() {
        // (i < 5) ∨ (i >= 3) is a tautology: ¬(i<5) = (i>=5) ⇒ (i>=3).
        let d = Disj::from_atoms([
            Atom::lt(e("i"), e("5")).unwrap(),
            Atom::ge(e("i"), e("3")).unwrap(),
        ]);
        assert!(d.simplified().is_none());
    }

    #[test]
    fn absorption_keeps_weakest() {
        // (i < 3) ∨ (i < 5) simplifies to (i < 5)
        let d = Disj::from_atoms([
            Atom::lt(e("i"), e("3")).unwrap(),
            Atom::lt(e("i"), e("5")).unwrap(),
        ]);
        let s = d.simplified().unwrap();
        assert_eq!(s.atoms(), &[Atom::lt(e("i"), e("5")).unwrap()]);
    }

    #[test]
    fn empty_is_false() {
        let d = Disj::from_atoms([]);
        assert!(d.is_false_clause());
        assert_eq!(d.simplified().unwrap(), d);
        assert_eq!(d.to_string(), "FALSE");
    }

    #[test]
    fn subst_var() {
        let d = Disj::from_atoms([Atom::lt(e("i"), e("n")).unwrap()]);
        let s = d.try_subst_var("n", &e("10")).unwrap();
        assert_eq!(s, Disj::from_atoms([Atom::lt(e("i"), e("10")).unwrap()]));
    }

    #[test]
    fn unit_contradiction() {
        let d1 = Disj::unit(Atom::eq(e("kc"), e("0")).unwrap());
        let d2 = Disj::unit(Atom::ne(e("kc"), e("0")).unwrap());
        assert!(crate::Pred::from_disjs([d1, d2], false).is_false());
    }
}
