//! The predicate type: ordered CNF with an unknown (Δ) flag.

use crate::atom::{Atom, RelOp};
use crate::disj::Disj;
use crate::simplify::{disj_implies, Complemented};
use serde::{Deserialize, Serialize};
use std::fmt;
use sym::Expr;

/// Maximum number of clause pairs produced when distributing an OR (or a
/// NOT) before the simplifier gives up and falls back to an inexact result.
/// The paper's guards stay tiny in practice (§3.1), so a small cap is fine.
const DISTRIBUTE_CAP: usize = 64;

/// A guard predicate.
///
/// Either provably `False`, or a conjunction of [`Disj`] clauses optionally
/// conjoined with an *unknown* component Δ (the paper's "guard whose
/// predicate cannot be written explicitly").
///
/// **Invariant / semantics.** Writing `G` for the actual (runtime) guard and
/// `K` for the conjunction of `disjs`:
///
/// * `unknown == false` ⇒ `G ⇔ K` (the guard is *exact*);
/// * `unknown == true`  ⇒ `G ⇒ K` (K is a *necessary* condition — the guard
///   is an over-approximation).
///
/// Proving `K` false therefore always proves `G` false, which is what the
/// dataflow emptiness tests need.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum Pred {
    /// Provably false.
    False,
    /// `disjs[0] ∧ disjs[1] ∧ …` (∧ Δ when `unknown`).
    Cnf {
        /// The known clauses, sorted and deduplicated.
        disjs: Vec<Disj>,
        /// Whether an inexpressible conjunct Δ is present.
        unknown: bool,
    },
}

impl Pred {
    /// The constant `True`.
    pub fn tru() -> Pred {
        Pred::Cnf {
            disjs: Vec::new(),
            unknown: false,
        }
    }

    /// The constant `False`.
    pub fn fals() -> Pred {
        Pred::False
    }

    /// The wholly unknown guard Δ.
    pub fn unknown() -> Pred {
        Pred::Cnf {
            disjs: Vec::new(),
            unknown: true,
        }
    }

    /// A single-atom predicate.
    pub fn atom(a: Atom) -> Pred {
        Pred::from_disjs([Disj::unit(a)], false)
    }

    /// Builds and simplifies a predicate from clauses.
    pub fn from_disjs(disjs: impl IntoIterator<Item = Disj>, unknown: bool) -> Pred {
        let disjs: Vec<Disj> = disjs.into_iter().collect();
        simplify_cnf(&disjs, &[], unknown)
    }

    /// `a <= b` as a predicate; Δ when `a - b` overflows.
    pub fn le(a: Expr, b: Expr) -> Pred {
        Atom::le(a, b).map_or_else(Pred::unknown, Pred::atom)
    }

    /// `a < b` as a predicate; Δ when `a - b` overflows.
    pub fn lt(a: Expr, b: Expr) -> Pred {
        Atom::lt(a, b).map_or_else(Pred::unknown, Pred::atom)
    }

    /// `a = b` as a predicate; Δ when `a - b` overflows.
    pub fn eq(a: Expr, b: Expr) -> Pred {
        Atom::eq(a, b).map_or_else(Pred::unknown, Pred::atom)
    }

    /// `a ≠ b` as a predicate; Δ when `a - b` overflows.
    pub fn ne(a: Expr, b: Expr) -> Pred {
        Atom::ne(a, b).map_or_else(Pred::unknown, Pred::atom)
    }

    /// `true` iff provably the constant true.
    pub fn is_true(&self) -> bool {
        matches!(
            self,
            Pred::Cnf {
                disjs,
                unknown: false
            } if disjs.is_empty()
        )
    }

    /// `true` iff provably false.
    pub fn is_false(&self) -> bool {
        matches!(self, Pred::False)
    }

    /// `true` iff the predicate is exact (no Δ component).
    pub fn is_exact(&self) -> bool {
        match self {
            Pred::False => true,
            Pred::Cnf { unknown, .. } => !unknown,
        }
    }

    /// The known clauses (empty for `False`).
    pub fn disjs(&self) -> &[Disj] {
        match self {
            Pred::False => &[],
            Pred::Cnf { disjs, .. } => disjs,
        }
    }

    /// Conjunction.
    pub fn and(&self, other: &Pred) -> Pred {
        match (self, other) {
            (Pred::False, _) | (_, Pred::False) => Pred::False,
            (
                Pred::Cnf {
                    disjs: d1,
                    unknown: u1,
                },
                Pred::Cnf {
                    disjs: d2,
                    unknown: u2,
                },
            ) => simplify_cnf(d1, d2, *u1 || *u2),
        }
    }

    /// Conjunction with a single atom.
    pub fn and_atom(&self, a: Atom) -> Pred {
        self.and(&Pred::atom(a))
    }

    /// Disjunction. Exact when both operands are exact and the distribution
    /// stays within the internal clause cap; otherwise the result carries Δ.
    pub fn or(&self, other: &Pred) -> Pred {
        match (self, other) {
            (Pred::False, p) | (p, Pred::False) => p.clone(),
            (
                Pred::Cnf {
                    disjs: d1,
                    unknown: u1,
                },
                Pred::Cnf {
                    disjs: d2,
                    unknown: u2,
                },
            ) => {
                if self.is_true() || other.is_true() {
                    return Pred::tru();
                }
                if d1.len().saturating_mul(d2.len()) > DISTRIBUTE_CAP {
                    // Fall back to the clauses common to both sides: each is
                    // implied by either operand, hence by the disjunction.
                    let common: Vec<Disj> = d1.iter().filter(|c| d2.contains(c)).cloned().collect();
                    return simplify_cnf(&common, &[], true);
                }
                let mut out = Vec::with_capacity(d1.len() * d2.len());
                for a in d1 {
                    for b in d2 {
                        out.push(a.or(b));
                    }
                }
                simplify_cnf(&out, &[], *u1 || *u2)
            }
        }
    }

    /// Negation. Exact CNFs negate exactly (De Morgan + distribution, caps
    /// permitting); anything carrying Δ negates to Δ.
    pub fn not(&self) -> Pred {
        match self {
            Pred::False => Pred::tru(),
            Pred::Cnf { disjs, unknown } => {
                if *unknown {
                    return Pred::unknown();
                }
                if disjs.is_empty() {
                    return Pred::False;
                }
                // ¬(∧ Di) = ∨ (¬Di); each ¬Di is a conjunction of atom
                // complements.
                let mut result = Pred::False;
                for d in disjs {
                    let mut clause_neg = Pred::tru();
                    for a in d.atoms() {
                        let Some(c) = a.complement() else {
                            return Pred::unknown();
                        };
                        clause_neg = clause_neg.and_atom(c);
                    }
                    result = result.or(&clause_neg);
                }
                result
            }
        }
    }

    /// Is `self ⇒ other` provable? Sound but incomplete. Requires `other`
    /// to be exact (a Δ on the right cannot be confirmed).
    ///
    /// Besides direct clause implication, unit `e < 0` clauses are chained
    /// pairwise (`e1 < 0 ∧ e2 < 0 ⇒ e1 + e2 + 1 < 0`), which discharges
    /// transitive facts like `a <= b ∧ b <= c ⇒ a <= c` while staying a
    /// two-operand technique in the spirit of the paper's §5.2 simplifier.
    pub fn implies(&self, other: &Pred) -> bool {
        if self.is_false() || other.is_true() {
            return true;
        }
        let (
            Pred::Cnf { disjs: d1, .. },
            Pred::Cnf {
                disjs: d2,
                unknown: u2,
            },
        ) = (self, other)
        else {
            return other.is_true();
        };
        if *u2 {
            return false;
        }
        let extended = with_derived_units(d1);
        d2.iter()
            .all(|e| extended.iter().any(|d| disj_implies(d, e)))
    }

    /// Does any clause mention the scalar `name`?
    pub fn contains_var(&self, name: &str) -> bool {
        self.disjs().iter().any(|d| d.contains_var(name))
    }

    /// Substitutes `name := value` in every clause. Clauses whose
    /// substitution overflows are dropped and Δ is set (sound weakening).
    pub fn subst_var(&self, name: &str, value: &Expr) -> Pred {
        match self {
            Pred::False => Pred::False,
            Pred::Cnf { disjs, unknown } => {
                let mut out = Vec::with_capacity(disjs.len());
                let mut unk = *unknown;
                for d in disjs {
                    match d.try_subst_var(name, value) {
                        Some(nd) => out.push(nd),
                        None => unk = true,
                    }
                }
                simplify_cnf(&out, &[], unk)
            }
        }
    }

    /// Weakens the predicate by dropping every clause that mentions `name`,
    /// setting Δ if any was dropped. Used when a scalar's defining value is
    /// unanalyzable.
    pub fn forget_var(&self, name: &str) -> Pred {
        match self {
            Pred::False => Pred::False,
            Pred::Cnf { disjs, unknown } => {
                let mut out = Vec::new();
                let mut unk = *unknown;
                for d in disjs {
                    if d.contains_var(name) {
                        unk = true;
                    } else {
                        out.push(d.clone());
                    }
                }
                simplify_cnf(&out, &[], unk)
            }
        }
    }

    /// Collects every scalar name mentioned by the predicate.
    pub fn collect_vars(&self, out: &mut std::collections::BTreeSet<sym::Name>) {
        for d in self.disjs() {
            d.collect_vars(out);
        }
    }

    /// Total number of atoms, a size measure for caps and stats.
    pub fn size(&self) -> usize {
        self.disjs().iter().map(|d| d.atoms().len()).sum()
    }
}

/// Extends a clause set with facts derived from pairs of unit `e < 0`
/// clauses: `e1 < 0 ∧ e2 < 0 ⇒ e1 + e2 + 1 < 0` (integers). Derived
/// clauses are appended after the originals.
fn with_derived_units(disjs: &[Disj]) -> Vec<Disj> {
    let units: Vec<&sym::Expr> = disjs
        .iter()
        .filter_map(|d| match d.as_unit() {
            Some(Atom::Rel(e, RelOp::Lt)) => Some(e),
            _ => None,
        })
        .collect();
    let mut out = disjs.to_vec();
    for i in 0..units.len() {
        for j in (i + 1)..units.len() {
            if let Some(sum) = units[i].try_add(units[j]) {
                if let Some(s1) = sum.try_add(&sym::Expr::one()) {
                    out.push(Disj::unit(Atom::Rel(s1, RelOp::Lt)));
                }
            }
        }
    }
    out
}

/// Simplifies the clauses of `first` and `second` into a canonical
/// [`Pred`]. The input is borrowed: `Pred::and` passes both operands'
/// clause lists as they are.
fn simplify_cnf(first: &[Disj], second: &[Disj], unknown: bool) -> Pred {
    let mut clauses: Vec<Disj> = Vec::with_capacity(first.len() + second.len());
    for d in first.iter().chain(second) {
        match d.simplified() {
            None => {} // tautology
            Some(s) if s.is_false_clause() => return Pred::False,
            Some(s) => clauses.push(s),
        }
    }
    clauses.sort();
    clauses.dedup();

    // Pairwise contradiction and redundancy elimination, to fixpoint
    // (bounded; clause counts are tiny in practice).
    for _round in 0..4 {
        let mut changed = false;
        // The unit clauses' atoms, each complemented at most once below.
        let units: Vec<Complemented> = clauses
            .iter()
            .filter_map(|d| d.as_unit().map(Complemented::new))
            .collect();
        // Contradictions between unit clauses, including the pairwise sum
        // rule: e1 < 0 ∧ e2 < 0 forces e1 + e2 <= -2 on the integers.
        for (i, u1) in units.iter().enumerate() {
            for u2 in &units[i + 1..] {
                if u1.contradicts(u2) {
                    return Pred::False;
                }
                if let (Atom::Rel(e1, RelOp::Lt), Atom::Rel(e2, RelOp::Lt)) = (u1.atom(), u2.atom())
                {
                    if sym::sum_const(e1, e2).is_some_and(|c| c > -2) {
                        return Pred::False;
                    }
                }
            }
        }
        // Unit resolution: a unit clause refutes contradictory atoms inside
        // other clauses (the paper's "conjunction of two disjunctions"
        // evaluation). An emptied clause makes the predicate False.
        if !units.is_empty() {
            let mut resolved = false;
            let mut next = Vec::with_capacity(clauses.len());
            for d in &clauses {
                if d.as_unit().is_some() {
                    next.push(d.clone());
                    continue;
                }
                let kept: Vec<Atom> = d
                    .atoms()
                    .iter()
                    .filter(|a| {
                        let a = Complemented::new(a);
                        !units.iter().any(|u| u.contradicts(&a))
                    })
                    .cloned()
                    .collect();
                if kept.len() != d.atoms().len() {
                    resolved = true;
                    if kept.is_empty() {
                        return Pred::False;
                    }
                    next.push(Disj::from_atoms(kept));
                } else {
                    next.push(d.clone());
                }
            }
            if resolved {
                clauses = next;
                clauses.sort();
                clauses.dedup();
            }
        }
        // Unit equality substitution: a unit clause `v ± rest = 0` rewrites
        // `v` inside the *other* clauses (the defining clause is kept), so
        // chains like `i = 5 ∧ n = 7 ∧ i > n` collapse to False.
        {
            let mut defs: Vec<(usize, String, sym::Expr)> = Vec::new();
            for (k, d) in clauses.iter().enumerate() {
                if let Some(Atom::Rel(e, RelOp::Eq)) = d.as_unit() {
                    for name in e.vars() {
                        // A definition whose negation overflows is skipped.
                        let val = match e.affine_decompose(name.as_str()) {
                            Some((1, rest)) => rest.try_negate(),
                            Some((-1, rest)) => Some(rest),
                            _ => None,
                        };
                        if let Some(val) = val {
                            defs.push((k, name.as_str().to_string(), val));
                            break;
                        }
                    }
                }
                if defs.len() >= 4 {
                    break;
                }
            }
            let mut subst_changed = false;
            for (def_idx, var, val) in &defs {
                if val.contains_var(var) {
                    continue;
                }
                let mut next = Vec::with_capacity(clauses.len());
                for (k, d) in clauses.iter().enumerate() {
                    if k == *def_idx || !d.contains_var(var) {
                        next.push(d.clone());
                        continue;
                    }
                    match d.try_subst_var(var, val) {
                        Some(nd) => {
                            subst_changed = true;
                            match nd.simplified() {
                                None => {} // became a tautology
                                Some(s) if s.is_false_clause() => return Pred::False,
                                Some(s) => next.push(s),
                            }
                        }
                        None => next.push(d.clone()),
                    }
                }
                clauses = next;
            }
            if subst_changed {
                clauses.sort();
                clauses.dedup();
            }
        }
        // Drop clause j if some other clause i implies it.
        let mut keep = vec![true; clauses.len()];
        for i in 0..clauses.len() {
            if !keep[i] {
                continue;
            }
            for j in 0..clauses.len() {
                if i == j || !keep[j] {
                    continue;
                }
                if disj_implies(&clauses[i], &clauses[j]) {
                    // When both imply each other keep the smaller index.
                    if disj_implies(&clauses[j], &clauses[i]) && j < i {
                        continue;
                    }
                    keep[j] = false;
                    changed = true;
                }
            }
        }
        if changed {
            let mut next = Vec::with_capacity(clauses.len());
            for (k, c) in clauses.into_iter().enumerate() {
                if keep[k] {
                    next.push(c);
                }
            }
            clauses = next;
        } else {
            break;
        }
    }

    Pred::Cnf {
        disjs: clauses,
        unknown,
    }
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pred::False => f.write_str("FALSE"),
            Pred::Cnf { disjs, unknown } => {
                if disjs.is_empty() {
                    return f.write_str(if *unknown { "DELTA" } else { "TRUE" });
                }
                for (k, d) in disjs.iter().enumerate() {
                    if k > 0 {
                        f.write_str(" & ")?;
                    }
                    write!(f, "{d}")?;
                }
                if *unknown {
                    f.write_str(" & DELTA")?;
                }
                Ok(())
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
    fn overflowing_relations_are_unknown() {
        let min = Expr::from(i64::MIN);
        // i - MIN overflows: no atom, and the predicate is Δ.
        assert!(Atom::eq(e("i"), min.clone()).is_none());
        assert_eq!(Pred::eq(e("i"), min.clone()), Pred::unknown());
        assert_eq!(Pred::ne(e("i"), min.clone()), Pred::unknown());
        assert_eq!(Pred::lt(e("i"), min.clone()), Pred::unknown());
        // MIN <= i overflows only in `le`'s extra `- 1`.
        assert!(Atom::lt(min.clone(), e("i")).is_some());
        assert_eq!(Pred::le(min, e("i")), Pred::unknown());
        // A leading i64::MIN coefficient cannot be negated: `canon`
        // keeps the sign instead of panicking.
        let lead = Expr::var("i").try_scale(i64::MIN).unwrap();
        let a = Atom::Rel(lead.clone(), RelOp::Eq).canon();
        assert_eq!(a, Atom::Rel(lead.clone(), RelOp::Eq));
        // Nor can `MIN*i < 0` be complemented: its negation is Δ.
        let lt = Atom::Rel(lead, RelOp::Lt);
        assert_eq!(lt.complement(), None);
        assert_eq!(Pred::atom(lt).not(), Pred::unknown());
    }

    #[test]
    fn constants() {
        assert!(Pred::tru().is_true());
        assert!(Pred::fals().is_false());
        assert!(!Pred::unknown().is_true());
        assert!(!Pred::unknown().is_exact());
        assert!(Pred::tru().is_exact());
    }

    #[test]
    fn and_basic() {
        let p = Pred::le(e("1"), e("i"));
        let q = Pred::le(e("i"), e("n"));
        let r = p.and(&q);
        assert_eq!(r.disjs().len(), 2);
        assert!(p.and(&Pred::fals()).is_false());
        assert_eq!(p.and(&Pred::tru()), p);
    }

    #[test]
    fn and_detects_contradiction() {
        // i <= 3 ∧ i >= 5 → False
        let p = Pred::le(e("i"), e("3"));
        let q = Pred::atom(Atom::ge(e("i"), e("5")).unwrap());
        assert!(p.and(&q).is_false());
        // kc = 0 ∧ kc ≠ 0 → False (the MDG pattern)
        let a = Pred::eq(e("kc"), e("0"));
        let b = Pred::ne(e("kc"), e("0"));
        assert!(a.and(&b).is_false());
    }

    #[test]
    fn and_removes_redundancy() {
        // (i < 3) ∧ (i < 5)  →  (i < 3)
        let p = Pred::lt(e("i"), e("3"));
        let q = Pred::lt(e("i"), e("5"));
        let r = p.and(&q);
        assert_eq!(r, p);
    }

    #[test]
    fn or_distributes_exactly() {
        let p = Pred::eq(e("i"), e("1"));
        let q = Pred::eq(e("i"), e("2"));
        let r = p.or(&q);
        assert!(r.is_exact());
        assert_eq!(r.disjs().len(), 1);
        assert_eq!(r.disjs()[0].atoms().len(), 2);
        assert!(p.or(&Pred::tru()).is_true());
        assert_eq!(p.or(&Pred::fals()), p);
    }

    #[test]
    fn or_complement_is_true() {
        let p = Pred::lt(e("i"), e("n"));
        assert!(p.or(&p.not()).is_true());
    }

    #[test]
    fn not_exact_roundtrip() {
        let p = Pred::le(e("i"), e("n"));
        let n = p.not();
        assert!(n.is_exact());
        assert_eq!(n.not(), p);
        assert!(p.and(&n).is_false());
    }

    #[test]
    fn not_of_conjunction() {
        // ¬(a ∧ b) = ¬a ∨ ¬b
        let p = Pred::le(e("1"), e("i")).and(&Pred::le(e("i"), e("n")));
        let n = p.not();
        assert!(n.is_exact());
        // (i < 1) ∨ (i > n): one clause with two atoms
        assert_eq!(n.disjs().len(), 1);
        assert_eq!(n.disjs()[0].atoms().len(), 2);
    }

    #[test]
    fn not_unknown_is_unknown() {
        assert_eq!(Pred::unknown().not(), Pred::unknown());
        assert!(Pred::fals().not().is_true());
        assert!(Pred::tru().not().is_false());
    }

    #[test]
    fn implication() {
        let strong = Pred::le(e("i"), e("3"));
        let weak = Pred::le(e("i"), e("5"));
        assert!(strong.implies(&weak));
        assert!(!weak.implies(&strong));
        assert!(Pred::fals().implies(&strong));
        assert!(strong.implies(&Pred::tru()));
        // nothing implies an inexact predicate except trivially
        assert!(!strong.implies(&Pred::unknown()));
    }

    #[test]
    fn implication_with_conjunction() {
        // (1 <= i ∧ i <= n) ⇒ (i <= n)
        let p = Pred::le(e("1"), e("i")).and(&Pred::le(e("i"), e("n")));
        let q = Pred::le(e("i"), e("n + 2"));
        assert!(p.implies(&q));
    }

    #[test]
    fn subst_triggers_simplification() {
        // (i <= n) with n := 5, then ∧ (i >= 6) → False
        let p = Pred::le(e("i"), e("n")).subst_var("n", &e("5"));
        let q = Pred::atom(Atom::ge(e("i"), e("6")).unwrap());
        assert!(p.and(&q).is_false());
    }

    #[test]
    fn forget_var_weakens() {
        let p = Pred::le(e("i"), e("n")).and(&Pred::le(e("1"), e("j")));
        let q = p.forget_var("n");
        assert!(!q.is_exact());
        assert_eq!(q.disjs().len(), 1);
        assert!(q.contains_var("j"));
        assert!(!q.contains_var("n"));
    }

    #[test]
    fn unknown_propagates_through_and() {
        let p = Pred::le(e("i"), e("n")).and(&Pred::unknown());
        assert!(!p.is_exact());
        // but the known part still detects falsity
        let q = p.and(&Pred::atom(Atom::gt(e("i"), e("n")).unwrap()));
        assert!(q.is_false());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Pred::tru().to_string(), "TRUE");
        assert_eq!(Pred::fals().to_string(), "FALSE");
        assert_eq!(Pred::unknown().to_string(), "DELTA");
        let p = Pred::le(e("1"), e("i"));
        assert!(p.to_string().contains("< 0"));
    }

    #[test]
    fn unit_equality_substitution() {
        // i = 5 ∧ n = 7 ∧ i > n  →  False
        let p = Pred::eq(e("i"), e("5"))
            .and(&Pred::eq(e("n"), e("7")))
            .and(&Pred::atom(Atom::gt(e("i"), e("n")).unwrap()));
        assert!(p.is_false(), "{p}");
        // i = 5 ∧ i < n keeps both facts, with i rewritten
        let q = Pred::eq(e("i"), e("5")).and(&Pred::lt(e("i"), e("n")));
        assert!(!q.is_false());
        assert!(q.implies(&Pred::lt(e("5"), e("n"))), "{q}");
        assert!(q.implies(&Pred::eq(e("i"), e("5"))));
    }

    #[test]
    fn equality_chain_terminates() {
        // mutually defined equalities must not loop
        let p = Pred::eq(e("i"), e("j")).and(&Pred::eq(e("j"), e("i")));
        assert!(!p.is_false());
        let r = p.and(&Pred::lt(e("i"), e("j")));
        assert!(r.is_false(), "{r}");
    }

    #[test]
    fn paper_t1_t2_guard_example() {
        // From §3: T1 = [a<=b, A(a:b)], T2 = [b<=c, A(b:c)]; the guard
        // algebra must keep a<=b ∧ b>c coherent: conjunction not false,
        // exact, and its negation recovers.
        let g1 = Pred::le(e("a"), e("b"));
        let g2 = Pred::le(e("b"), e("c"));
        let both = g1.and(&g2);
        assert_eq!(both.disjs().len(), 2);
        let mixed = g1.and(&g2.not());
        assert!(!mixed.is_false());
        assert!(mixed.is_exact());
        // and the three cases are mutually exclusive
        assert!(both.and(&mixed).is_false());
    }
}
